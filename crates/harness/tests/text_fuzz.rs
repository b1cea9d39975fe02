//! Seeded fuzzing of the hand-written readers: the OCR parser
//! (`bioopera_ocr::parser`, behind `bioopera validate|fmt|run`), the
//! store's MANIFEST reader (behind every `Store::open_with`, its one
//! caller) and the sorted-run decoder (`Run::open`'s footer and meta
//! section, and the op walk every run block and WAL frame goes through).
//!
//! The inputs are mutations of real texts — the paper's templates as the
//! printer prints them, the manifest a leveled store with a retention
//! watermark commits, a spilled run — every truncation, bit flips (every
//! one of the manifest's and the run's footer and meta, seeded ones of the
//! templates' and of a block) and seeded byte insertions.  Where a
//! checksum guards the bytes, the mutated bytes are checksummed again so
//! that they reach the parser behind it.  Every input parses or comes back
//! as an `Err`; none may panic, and none may size an allocation by a
//! forged length.  A failure names the `HARNESS_SEED` and the mutation
//! that reproduce it.

use bioopera_harness::{seed_from_env, tiny_leveled_policy, DEFAULT_SEED};
use bioopera_ocr::parser::{parse_library, parse_process};
use bioopera_ocr::to_ocr_text;
use bioopera_store::crc::crc32;
use bioopera_store::runs::{build_run, Run, RunEntry, FOOTER_LEN};
use bioopera_store::wal::{replay, HEADER_LEN, MAGIC};
use bioopera_store::{Disk, MemDisk, Space, Store};
use bioopera_workloads::{allvsall, tower};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One mutation of a text.
#[derive(Debug)]
enum Mutation {
    /// Keep the first `n` bytes.
    Truncate(usize),
    /// Flip bit `bit` of the byte at `at`.
    Flip { at: usize, bit: u8 },
    /// Insert `byte` before the byte at `at`.
    Insert { at: usize, byte: u8 },
}

impl Mutation {
    fn apply(&self, text: &[u8]) -> Vec<u8> {
        let mut out = text.to_vec();
        match *self {
            Mutation::Truncate(n) => out.truncate(n),
            Mutation::Flip { at, bit } => out[at] ^= 1 << bit,
            Mutation::Insert { at, byte } => out.insert(at, byte),
        }
        out
    }
}

/// Bytes that mean something to one reader or the other.
const STRUCTURAL: &[u8] = b"{}()[];,:.\"'=<>!&|+-*/%0123456789 \n\t\r";

/// Every truncation of `text`; every bit flip when `seeded` is `None`,
/// else that many seeded ones; and as many seeded byte insertions as
/// there are flips — half of them structural bytes, half any byte at all.
fn mutations(text: &[u8], rng: &mut StdRng, seeded: Option<usize>) -> Vec<Mutation> {
    let mut out: Vec<Mutation> = (0..text.len()).map(Mutation::Truncate).collect();
    match seeded {
        None => out.extend((0..text.len() * 8).map(|i| Mutation::Flip {
            at: i / 8,
            bit: (i % 8) as u8,
        })),
        Some(n) => out.extend((0..n).map(|_| Mutation::Flip {
            at: rng.gen_range(0..text.len()),
            bit: rng.gen_range(0..8u64) as u8,
        })),
    }
    for _ in 0..seeded.unwrap_or(text.len() * 8) {
        let byte = if rng.gen_range(0..2u64) == 0 {
            STRUCTURAL[rng.gen_range(0..STRUCTURAL.len())]
        } else {
            rng.gen_range(0..=255u64) as u8
        };
        out.push(Mutation::Insert {
            at: rng.gen_range(0..=text.len()),
            byte,
        });
    }
    out
}

/// Feed every mutation of `text` to `read`, which answers whether the
/// input was accepted.  Panics name the seed and the mutation; the counts
/// of accepted and refused inputs are returned.
fn fuzz(
    what: &str,
    seed: u64,
    text: &[u8],
    seeded: Option<usize>,
    read: impl Fn(&[u8]) -> bool,
) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut accepted, mut refused) = (0, 0);
    let mut panics = Vec::new();
    for m in mutations(text, &mut rng, seeded) {
        match catch_unwind(AssertUnwindSafe(|| read(&m.apply(text)))) {
            Ok(true) => accepted += 1,
            Ok(false) => refused += 1,
            Err(_) => panics.push(format!("HARNESS_SEED={seed} {what}: {m:?}")),
        }
    }
    assert!(
        panics.is_empty(),
        "{} inputs panicked instead of returning Err; first: {}",
        panics.len(),
        panics[0]
    );
    (accepted, refused)
}

#[test]
fn the_ocr_parser_refuses_mangled_templates_without_panicking() {
    let seed = seed_from_env(DEFAULT_SEED);
    let templates = [
        allvsall::top_template(),
        allvsall::chunk_template(),
        tower::tower_template(),
    ];
    let as_text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    for (i, t) in templates.iter().enumerate() {
        let text = to_ocr_text(t);
        assert_eq!(
            &parse_process(&text).unwrap(),
            t,
            "the printed text reparses"
        );
        let (accepted, refused) = fuzz(
            &t.name,
            seed ^ i as u64,
            text.as_bytes(),
            Some(1_500),
            |b| parse_process(&as_text(b)).is_ok(),
        );
        assert!(refused > text.len() / 2, "{}: {refused} refused", t.name);
        assert!(accepted > 0, "{}: no mutation survived", t.name);
    }
    let library: String = templates.iter().map(to_ocr_text).collect();
    assert_eq!(parse_library(&library).unwrap().len(), templates.len());
    fuzz("library", seed, library.as_bytes(), Some(1_500), |b| {
        parse_library(&as_text(b)).is_ok()
    });
}

#[test]
fn the_manifest_reader_refuses_mangled_manifests_without_panicking() {
    let seed = seed_from_env(DEFAULT_SEED);
    let policy = Some(tiny_leveled_policy());
    // A leveled store with runs in L0 and deeper and a retention
    // watermark: every kind of line a manifest has, plus the per-space
    // counts older engines wrote after the epoch.
    let image = MemDisk::new();
    let mut store = Store::open_with(image.clone(), policy).unwrap();
    for i in 0..160u32 {
        store
            .put(Space::History, format!("ev/{i:04}"), vec![i as u8; 40])
            .unwrap();
        store
            .put(Space::Instance, format!("inst/{}", i % 7), vec![7; 24])
            .unwrap();
    }
    store
        .retain_below(Space::History, "ev/", "ev/0100")
        .unwrap();
    drop(store);
    let text = String::from_utf8(image.read("MANIFEST").unwrap().unwrap()).unwrap();
    let text = text.replacen('\n', "\nlive 0 7 0 60\n", 1);
    let manifest = text.clone().into_bytes();
    for line in ["live ", "retain ", "run ", "lrun "] {
        assert!(text.contains(line), "no `{line}` line in:\n{text}");
    }

    let (accepted, refused) = fuzz("MANIFEST", seed, &manifest, None, |bytes| {
        let disk = MemDisk::new();
        for name in image.list().unwrap() {
            let data = image.read(&name).unwrap().unwrap();
            disk.write_atomic(&name, &data).unwrap();
        }
        disk.write_atomic("MANIFEST", bytes).unwrap();
        Store::open_with(disk, policy).is_ok()
    });
    assert!(
        refused > 0 && accepted > 0,
        "{accepted} accepted, {refused} refused"
    );
}

/// `(space, key, value)`; `None` is a tombstone.
type Row = (u8, String, Option<Vec<u8>>);

/// A spilled run's image: two spaces, tombstones, several blocks.
fn sample_run() -> (Vec<u8>, Vec<Row>) {
    let rows: Vec<Row> = (0..90u32)
        .map(|i| {
            let value = (i % 9 != 4).then(|| vec![i as u8; 40 + (i as usize * 7) % 90]);
            (1 + (i / 60) as u8 * 2, format!("inst/{i:04}"), value)
        })
        .collect();
    let entries: Vec<RunEntry<'_>> = rows
        .iter()
        .map(|(space, key, value)| RunEntry {
            space: *space,
            key,
            value: value.as_deref(),
        })
        .collect();
    (build_run(&entries), rows)
}

/// Open `image` as a run and, if it opens, look keys up across all its
/// blocks: `true` when the run opened and every lookup answered.
fn open_and_read(image: &[u8], rows: &[Row]) -> bool {
    let disk = MemDisk::new();
    disk.write_atomic("run-000001", image).unwrap();
    let Ok(run) = Run::open(&disk, "run-000001") else {
        return false;
    };
    rows.iter()
        .step_by(8)
        .all(|(space, key, _)| run.get(&disk, *space, key).is_ok())
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// `data`, then a meta section around `meta` — its length and checksum
/// recomputed — and the footer that points at it.
fn with_meta(data: &[u8], meta: &[u8]) -> Vec<u8> {
    let mut out = data.to_vec();
    out.extend_from_slice(&(meta.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(meta).to_le_bytes());
    out.extend_from_slice(meta);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    out.extend_from_slice(&(8 + meta.len() as u64).to_le_bytes());
    out.extend_from_slice(b"BOR1");
    out
}

/// `payload` as one frame, its length and checksum recomputed.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

#[test]
fn the_run_decoder_refuses_mangled_footers_metas_and_blocks_without_panicking() {
    let seed = seed_from_env(DEFAULT_SEED);
    let (image, rows) = sample_run();
    assert!(open_and_read(&image, &rows), "the sample run reads");
    let footer_at = image.len() - FOOTER_LEN;
    let meta_off = u64_at(&image, footer_at) as usize;
    let (data, meta) = (&image[..meta_off], &image[meta_off + 8..footer_at]);
    assert_eq!(with_meta(data, meta), image);

    // The footer as it lies on disk: nothing guards it, and nothing in it
    // may change — its offset and length must frame the meta section
    // exactly, before the magic.
    let (accepted, refused) = fuzz("run footer", seed, &image[footer_at..], None, |footer| {
        open_and_read(&[&image[..footer_at], footer].concat(), &rows)
    });
    assert!(
        refused > 0 && accepted == 0,
        "footer: {accepted} accepted, {refused} refused"
    );

    // The meta payload behind a recomputed checksum: counts, bloom and a
    // block index whose forged lengths, offsets and counts reach the
    // parser and, when it accepts them, the block reads.
    let (accepted, refused) = fuzz("run meta", seed ^ 1, meta, None, |meta| {
        open_and_read(&with_meta(data, meta), &rows)
    });
    assert!(
        refused > 0 && accepted > 0,
        "meta: {accepted} accepted, {refused} refused"
    );

    // The first block's payload behind a recomputed checksum: the op walk
    // over it (as a WAL frame, the walk every block and frame goes
    // through), and — where the mutation keeps its length, so the index
    // still frames it — every lookup of the run it is spliced into.
    let block_len = u32::from_le_bytes(data[2..6].try_into().unwrap()) as usize + HEADER_LEN;
    let payload = &data[HEADER_LEN..block_len];
    let (accepted, refused) = fuzz("run block", seed ^ 2, payload, Some(1_500), |payload| {
        let walked = replay(&frame(payload));
        let spliced = payload.len() == block_len - HEADER_LEN
            && open_and_read(&[&frame(payload), &image[block_len..]].concat(), &rows);
        walked.is_ok_and(|end| !end.torn_tail) && spliced
    });
    assert!(
        refused > 0 && accepted > 0,
        "block: {accepted} accepted, {refused} refused"
    );
}
