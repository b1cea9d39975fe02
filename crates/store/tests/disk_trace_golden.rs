//! The store's disk behaviour is pinned, call by call.
//!
//! A scripted workload runs through a recording [`Disk`] wrapper over
//! [`MemDisk`]; every call the engine makes — `append`/`write_atomic`
//! with length and CRC-32 of the bytes, `delete`, `read`, `read_range`
//! with offset and length, `file_size`, `list` — is compared, in order,
//! with `golden/disk_trace_*.txt`, recorded at the commit before
//! `engine.rs` was split.  Results of every get and scan are folded into
//! the trace as `#` lines, so a refactor of the write path, the scans,
//! the compaction core or the manifest writer that moves one byte on
//! disk, one block read or one returned record turns this red.
//!
//! Policies are passed explicitly (`open_with`), so the `BIOOPERA_*`
//! sweeps of `scripts/check.sh` run the same script.  `compact()` on a
//! tiered store is deliberately not in the script: it is the one call
//! whose disk behaviour the split changed (it now does what an automatic
//! roll does).

use bioopera_store::crc::crc32;
use bioopera_store::{
    Batch, CompactionPolicy, Disk, MemDisk, Space, Store, StoreResult, TieredPolicy,
};
use bytes::Bytes;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Forwards to a [`MemDisk`] and logs one line per call.
#[derive(Clone)]
struct Recording {
    inner: MemDisk,
    log: Arc<Mutex<String>>,
}

impl Recording {
    fn new() -> Self {
        Recording {
            inner: MemDisk::new(),
            log: Arc::default(),
        }
    }

    fn note(&self, line: std::fmt::Arguments<'_>) {
        writeln!(self.log.lock().unwrap(), "{line}").unwrap();
    }

    fn trace(&self) -> String {
        self.log.lock().unwrap().clone()
    }
}

impl Disk for Recording {
    fn read(&self, name: &str) -> StoreResult<Option<Vec<u8>>> {
        self.note(format_args!("read {name}"));
        self.inner.read(name)
    }
    fn write_atomic(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        self.note(format_args!(
            "write_atomic {name} {} {:08x}",
            data.len(),
            crc32(data)
        ));
        self.inner.write_atomic(name, data)
    }
    fn append(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        self.note(format_args!(
            "append {name} {} {:08x}",
            data.len(),
            crc32(data)
        ));
        self.inner.append(name, data)
    }
    fn list(&self) -> StoreResult<Vec<String>> {
        self.note(format_args!("list"));
        self.inner.list()
    }
    fn delete(&self, name: &str) -> StoreResult<()> {
        self.note(format_args!("delete {name}"));
        self.inner.delete(name)
    }
    fn read_range(&self, name: &str, offset: u64, len: usize) -> StoreResult<Option<Vec<u8>>> {
        self.note(format_args!("read_range {name} {offset} {len}"));
        self.inner.read_range(name, offset, len)
    }
    fn file_size(&self, name: &str) -> StoreResult<Option<u64>> {
        self.note(format_args!("file_size {name}"));
        self.inner.file_size(name)
    }
}

type Rec = Store<Recording>;

fn value(seq: usize) -> Bytes {
    Bytes::from(vec![(seq % 251) as u8; 60 + seq % 90])
}

/// Fold a scan result into the trace: count plus a CRC over keys and
/// values, so a scan that returns other records fails the golden too.
fn note_scan(disk: &Recording, what: &str, rows: &[(String, Bytes)]) {
    let mut bytes = Vec::new();
    for (k, v) in rows {
        bytes.extend_from_slice(k.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(v);
        bytes.push(0);
    }
    disk.note(format_args!(
        "# {what} -> {} rows {:08x}",
        rows.len(),
        crc32(&bytes)
    ));
}

fn probe(disk: &Recording, store: &Rec, space: Space, keys: &[&str]) {
    for key in keys {
        let got = store.get(space, key).unwrap();
        disk.note(format_args!(
            "# get {} {key} -> {}",
            space.name(),
            got.map_or("none".to_string(), |v| format!(
                "{} {:08x}",
                v.len(),
                crc32(&v)
            ))
        ));
    }
}

fn scans(disk: &Recording, store: &Rec, prefixes: &[(Space, &str)], froms: &[(Space, &str)]) {
    for (space, prefix) in prefixes {
        let rows = store.scan_prefix(*space, prefix).unwrap();
        note_scan(
            disk,
            &format!("scan_prefix {} {prefix}", space.name()),
            &rows,
        );
    }
    for (space, start) in froms {
        let rows = store.scan_from(*space, start).unwrap();
        note_scan(disk, &format!("scan_from {} {start}", space.name()), &rows);
    }
    for space in Space::ALL {
        disk.note(format_args!(
            "# len {} -> {}",
            space.name(),
            store.len(space).unwrap()
        ));
    }
}

/// Plain WAL + snapshot mode: single applies, group commits, deletes,
/// reopen, explicit and policy-driven `compact()`, a retention watermark
/// carried through a snapshot roll.
fn untiered_script() -> String {
    let disk = Recording::new();
    let store = Store::open_with(disk.clone(), None).unwrap();
    disk.note(format_args!("# single applies"));
    for i in 0..12 {
        let (space, key) = if i % 3 == 0 {
            (Space::History, format!("ev/{i:04}"))
        } else {
            (Space::Instance, format!("inst/{:02}/task/{i}", i % 4))
        };
        store.put(space, key, value(i)).unwrap();
    }
    let mut batch = Batch::new();
    batch
        .put(Space::Template, "tmpl/allvsall", value(100))
        .put(Space::Configuration, "node/n1", value(101))
        .delete(Space::Instance, "inst/01/task/1");
    store.apply(batch).unwrap();
    store.apply(Batch::new()).unwrap();

    disk.note(format_args!("# group commit"));
    store
        .apply_many((0..3).map(|g| {
            let mut b = Batch::new();
            b.put(Space::History, format!("ev/{:04}", 20 + g), value(20 + g));
            if g == 1 {
                b.delete(Space::History, "ev/0003");
            }
            b
        }))
        .unwrap();
    store.apply_many([Batch::new()]).unwrap();
    store.delete(Space::Instance, "inst/02/task/2").unwrap();
    store.delete(Space::Instance, "never/there").unwrap();
    probe(
        &disk,
        &store,
        Space::Instance,
        &["inst/01/task/5", "inst/01/task/1", "nope"],
    );
    scans(
        &disk,
        &store,
        &[(Space::Instance, "inst/01/"), (Space::History, "")],
        &[(Space::History, "ev/0006")],
    );

    disk.note(format_args!("# reopen"));
    drop(store);
    let store = Store::open_with(disk.clone(), None).unwrap();
    disk.note(format_args!("# explicit compact"));
    store.compact().unwrap();
    store.put(Space::History, "ev/0030", value(30)).unwrap();

    disk.note(format_args!("# compaction policy"));
    store.set_compaction_policy(Some(CompactionPolicy {
        wal_bytes_threshold: 400,
        min_wal_batches: 2,
    }));
    for i in 40..60 {
        store
            .put(Space::History, format!("ev/{i:04}"), value(i))
            .unwrap();
    }
    store.set_compaction_policy(None);

    disk.note(format_args!("# retention without runs"));
    let retired = store
        .retain_below(Space::History, "ev/", "ev/0009")
        .unwrap();
    disk.note(format_args!("# retired {retired}"));
    store.put(Space::History, "ev/0002", value(2)).unwrap();
    store.compact().unwrap();
    scans(&disk, &store, &[(Space::History, "ev/")], &[]);

    disk.note(format_args!("# reopen"));
    drop(store);
    let store = Store::open_with(disk.clone(), None).unwrap();
    store.put(Space::History, "ev/0061", value(61)).unwrap();
    scans(
        &disk,
        &store,
        &[(Space::History, "ev/")],
        &[(Space::History, "ev/0050")],
    );
    let stats = store.stats();
    disk.note(format_args!(
        "# stats epoch {} batches {} records {}",
        stats.epoch, stats.batches_applied, stats.records
    ));
    disk.trace()
}

/// Budgets small enough that the script spills every few rounds, merges
/// L0 into L1 every second spill and pushes runs down to L2 and beyond,
/// with runs of several 4 KiB blocks per space so scans skip blocks at
/// both ends, and a cache too small to hold the tier.
fn squeeze() -> TieredPolicy {
    TieredPolicy {
        memtable_budget_bytes: 8 * 1024,
        run_merge_threshold: 2,
        level_base_bytes: 32 * 1024,
        level_growth: 2,
        level_run_bytes: 16 * 1024,
        block_cache_budget: 16 * 1024,
    }
}

/// One round of the tiered workload: a group commit of four batches
/// (sequential history keys, overwritten instance keys, the odd delete)
/// and one single apply.
fn tiered_round(store: &Rec, round: usize) {
    store
        .apply_many((0..4).map(|g| {
            let seq = round * 4 + g;
            let mut b = Batch::new();
            b.put(Space::History, format!("ev/{seq:06}"), value(seq));
            b.put(
                Space::Instance,
                format!("inst/{:04}/task/{}", seq % 37, seq % 5),
                value(seq + 7),
            );
            b.put(
                Space::Instance,
                format!("inst/{:04}/header", seq % 37),
                value(seq + 13),
            );
            if seq % 9 == 4 {
                b.delete(
                    Space::Instance,
                    format!("inst/{:04}/task/{}", (seq + 20) % 37, seq % 5),
                );
            }
            b
        }))
        .unwrap();
    store
        .put(
            Space::Configuration,
            format!("node/{:03}", round % 23),
            value(round),
        )
        .unwrap();
}

fn tiered_reads(disk: &Recording, store: &Rec) {
    probe(
        disk,
        store,
        Space::History,
        &["ev/000000", "ev/000123", "ev/000401", "ev/999999", "aa"],
    );
    probe(
        disk,
        store,
        Space::Instance,
        &[
            "inst/0007/header",
            "inst/0024/task/4",
            "inst/0036/task/0",
            "inst/0040/header",
        ],
    );
    scans(
        disk,
        store,
        &[
            (Space::Instance, "inst/0007/"),
            (Space::Instance, "inst/002"),
            (Space::History, "ev/0003"),
            (Space::Configuration, ""),
            (Space::Template, "tmpl/"),
        ],
        &[
            (Space::History, "ev/000350"),
            (Space::Instance, "inst/0030"),
        ],
    );
}

/// The tiered engine end to end through automatic rolls only: spills,
/// L0→L1 merges, deeper push-downs, bloom/cache-gated gets, scans over
/// multi-block runs, two widening retention advances, a tiered reopen
/// and an untiered reopen over the runs left on disk.
fn tiered_script() -> String {
    let disk = Recording::new();
    let store = Store::open_with(disk.clone(), Some(squeeze())).unwrap();
    for round in 0..140 {
        tiered_round(&store, round);
        if round % 35 == 34 {
            disk.note(format_args!("# reads after round {round}"));
            tiered_reads(&disk, &store);
        }
    }
    let stats = store.stats();
    assert!(stats.spills >= 8, "script must spill: {stats:?}");
    assert!(stats.run_merges >= 6, "script must merge: {stats:?}");
    assert!(stats.levels >= 2, "script must reach L2: {stats:?}");

    disk.note(format_args!("# retention, widening at both ends"));
    for (start, below) in [("ev/000050", "ev/000100"), ("ev/", "ev/000260")] {
        let retired = store.retain_below(Space::History, start, below).unwrap();
        disk.note(format_args!("# retired {retired}"));
    }
    tiered_reads(&disk, &store);
    disk.note(format_args!("# explicit maintenance round"));
    store.compact_levels().unwrap();

    disk.note(format_args!("# reopen tiered"));
    drop(store);
    let store = Store::open_with(disk.clone(), Some(squeeze())).unwrap();
    for round in 140..200 {
        tiered_round(&store, round);
    }
    // Below the watermark: accepted, logged, never visible.
    store.put(Space::History, "ev/000010", value(10)).unwrap();
    tiered_reads(&disk, &store);
    let stats = store.stats();
    disk.note(format_args!(
        "# stats epoch {} runs {} levels {} spills {} merges {} max_merge {} retired {} records {}",
        stats.epoch,
        stats.runs,
        stats.levels,
        stats.spills,
        stats.run_merges,
        stats.max_merge_bytes,
        stats.retired,
        stats.records
    ));

    disk.note(format_args!("# reopen untiered over the runs"));
    drop(store);
    let store = Store::open_with(disk.clone(), None).unwrap();
    store.put(Space::History, "ev/000900", value(900)).unwrap();
    store.delete(Space::Instance, "inst/0007/header").unwrap();
    tiered_reads(&disk, &store);
    disk.trace()
}

/// Compare with the golden; on a mismatch leave the actual trace under
/// the target directory and name the first line that differs.
fn assert_golden(name: &str, actual: &str, golden: &str) {
    if actual == golden {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual.txt"));
    std::fs::write(&path, actual).unwrap();
    let line = actual
        .lines()
        .zip(golden.lines())
        .position(|(a, g)| a != g)
        .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
    panic!(
        "{name} differs from its golden at line {}:\n  actual: {:?}\n  golden: {:?}\nfull trace written to {}",
        line + 1,
        actual.lines().nth(line),
        golden.lines().nth(line),
        path.display()
    );
}

/// Names the manifest on `disk` lists at level 1 or deeper.
fn settled_runs(disk: &Recording) -> Vec<String> {
    let manifest = disk.inner.read("MANIFEST").unwrap().unwrap_or_default();
    String::from_utf8(manifest)
        .unwrap()
        .lines()
        .filter_map(|l| l.strip_prefix("lrun "))
        .map(|l| l.split_once(' ').unwrap().1.to_string())
        .collect()
}

/// Append-only history — provenance only ever grows — costs two writes
/// per byte and no re-read: the spill, and the one L0 merge that turns
/// overlapping-by-construction L0 runs into a level-1 run.  From there
/// a run only moves down by manifest commits: it is never selected by a
/// later merge (no newer block reaches its hull), never read by a point
/// lookup of a newer key, never rewritten and never deleted.
#[test]
fn append_only_runs_are_written_twice_and_never_touched_again() {
    let disk = Recording::new();
    let policy = TieredPolicy {
        memtable_budget_bytes: 8 * 1024,
        run_merge_threshold: 3,
        level_base_bytes: 32 * 1024,
        level_growth: 2,
        level_run_bytes: 16 * 1024,
        block_cache_budget: 0,
    };
    let store = Store::open_with(disk.clone(), Some(policy)).unwrap();
    let mut data = 0usize;
    let mut settled: Vec<String> = Vec::new();
    let mut seen = 0usize;
    for i in 0..2400usize {
        let (key, v) = (format!("ev/{i:08}"), value(i));
        data += key.len() + v.len();
        store.put(Space::History, key, v).unwrap();
        let trace = disk.trace();
        for line in trace[seen..].lines() {
            let touched = line.split(' ').nth(1).unwrap_or("");
            assert!(
                !settled.iter().any(|run| run == touched),
                "put {i}: `{line}` touches a run already in level >= 1"
            );
        }
        seen = trace.len();
        let now = settled_runs(&disk);
        assert!(
            settled.iter().all(|run| now.contains(run)),
            "put {i}: a settled run left the manifest: {settled:?} -> {now:?}"
        );
        settled = now;
    }
    let stats = store.stats();
    assert!(stats.levels >= 3, "history never reached L3: {stats:?}");
    assert!(stats.trivial_moves > 0, "{stats:?}");
    // Every rewriting merge was an L0 merge of `run_merge_threshold`
    // spills; nothing deeper was ever rewritten.
    let in_l0 = stats.runs as u64 - settled.len() as u64;
    assert_eq!(stats.run_merges * 3, stats.spills - in_l0, "{stats:?}");
    let run_bytes_written: usize = disk
        .trace()
        .lines()
        .filter_map(|l| l.strip_prefix("write_atomic run-"))
        .map(|l| l.split(' ').nth(1).unwrap().parse::<usize>().unwrap())
        .sum();
    // Twice the data plus what a run file adds to it: frame headers,
    // the per-op tags and lengths, bloom and sparse index.
    assert!(
        run_bytes_written <= 2 * data + data / 5,
        "{run_bytes_written} run bytes written for {data} bytes of records"
    );
    assert_eq!(stats.merge_bytes_out, stats.merge_bytes_in);
    assert_eq!(
        store.get(Space::History, "ev/00000000").unwrap(),
        Some(value(0))
    );
}

#[test]
fn untiered_disk_trace_matches_the_golden() {
    assert_golden(
        "disk_trace_untiered",
        &untiered_script(),
        include_str!("golden/disk_trace_untiered.txt"),
    );
}

#[test]
fn tiered_disk_trace_matches_the_golden() {
    assert_golden(
        "disk_trace_tiered",
        &tiered_script(),
        include_str!("golden/disk_trace_tiered.txt"),
    );
}
