//! Concurrent reader/writer stress: readers must never observe a
//! half-applied batch, no matter how writes, group commits and
//! compactions interleave with their scans.
//!
//! The writer applies *marker batches*: every record written by batch
//! `i` carries the same value `i`.  A reader that scans the space and
//! sees two different values in what should be one batch's records has
//! observed a torn batch — exactly the isolation violation the
//! `RwLock`-based engine must rule out (writers hold the write lock for
//! the whole in-memory application).

use bioopera_store::{Batch, CompactionPolicy, MemDisk, Space, Store, TieredPolicy};
use bytes::Bytes;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::thread;

/// Keys per marker batch: all of them must always agree.
const KEYS: usize = 16;
const READERS: usize = 4;
const BATCHES: u64 = 400;

fn marker_batch(value: u64) -> Batch {
    let mut b = Batch::new();
    let payload = Bytes::from(value.to_le_bytes().to_vec());
    for k in 0..KEYS {
        b.put(Space::Instance, format!("stress/{k:02}"), payload.clone());
    }
    b
}

fn decode(v: &Bytes) -> u64 {
    u64::from_le_bytes(v.as_slice().try_into().expect("8-byte marker value"))
}

#[test]
fn readers_never_observe_a_half_applied_batch() {
    let disk = MemDisk::new();
    let store = Store::open(disk.clone()).unwrap();
    store.apply(marker_batch(0)).unwrap();

    let done = AtomicBool::new(false);
    let max_seen = AtomicU64::new(0);
    // The writer starts only once every reader has completed a read, so
    // no reader can be scheduled for the first time after `done` is set
    // and every reader overlaps the whole write sequence.
    let readers_started = Barrier::new(READERS + 1);

    thread::scope(|s| {
        for reader in 0..READERS {
            let store = store.clone();
            let done = &done;
            let max_seen = &max_seen;
            let readers_started = &readers_started;
            s.spawn(move || {
                let mut reads = 0u64;
                let mut last = 0u64;
                loop {
                    // Scans and gets interleave; both must be consistent.
                    if reads.is_multiple_of(2) {
                        let hits = store.scan_prefix(Space::Instance, "stress/").unwrap();
                        assert_eq!(hits.len(), KEYS, "reader {reader}: batch partially visible");
                        let first = decode(&hits[0].1);
                        for (k, v) in &hits {
                            assert_eq!(
                                decode(v),
                                first,
                                "reader {reader}: torn batch at key {k} after {reads} reads"
                            );
                        }
                        assert!(
                            first >= last,
                            "reader {reader}: batch visibility went backwards ({last} -> {first})"
                        );
                        last = first;
                        max_seen.fetch_max(first, Ordering::Relaxed);
                    } else {
                        let a = store.get(Space::Instance, "stress/00").unwrap().unwrap();
                        let b = store
                            .get(Space::Instance, &format!("stress/{:02}", KEYS - 1))
                            .unwrap()
                            .unwrap();
                        // Two point reads may straddle a batch boundary, but
                        // can never run ahead of the committed sequence.
                        assert!(decode(&a) <= BATCHES && decode(&b) <= BATCHES);
                    }
                    // O(1) len never disagrees with the scan's cardinality.
                    assert_eq!(store.len(Space::Instance).unwrap(), KEYS);
                    reads += 1;
                    if reads == 1 {
                        readers_started.wait();
                    }
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                }
            });
        }

        // One writer: single applies, group commits and compactions.
        let writer_store = store.clone();
        let done = &done;
        let readers_started = &readers_started;
        s.spawn(move || {
            readers_started.wait();
            let mut i = 1u64;
            while i <= BATCHES {
                match i % 5 {
                    0 if i < BATCHES => {
                        // Group-commit two consecutive markers in one append.
                        let pair = [marker_batch(i), marker_batch(i + 1)];
                        writer_store.apply_many(pair).unwrap();
                        i += 2;
                    }
                    3 => {
                        writer_store.apply(marker_batch(i)).unwrap();
                        writer_store.compact().unwrap();
                        i += 1;
                    }
                    _ => {
                        writer_store.apply(marker_batch(i)).unwrap();
                        i += 1;
                    }
                }
            }
            done.store(true, Ordering::Relaxed);
        });
    });

    // The final state is the last marker, and it survives reopen.
    let hits = store.scan_prefix(Space::Instance, "stress/").unwrap();
    assert_eq!(hits.len(), KEYS);
    for (_, v) in &hits {
        assert_eq!(decode(v), BATCHES);
    }
    assert!(max_seen.load(Ordering::Relaxed) <= BATCHES);
    drop(store);
    let recovered = Store::open(disk).unwrap();
    for (_, v) in recovered.scan_prefix(Space::Instance, "stress/").unwrap() {
        assert_eq!(decode(&v), BATCHES);
    }
}

#[test]
fn tiered_spills_and_merges_under_concurrent_readers_never_break_a_scan() {
    // Regression test for the run-GC race: a merge compaction must swap
    // the in-memory tier list before deleting its input files, or a
    // reader holding the old view scans a vanished run.  The tiny budget
    // and merge threshold make spills and merges continuous while the
    // readers hammer scans, gets and len.
    let disk = MemDisk::new();
    let store = Store::open_with(
        disk.clone(),
        Some(TieredPolicy {
            memtable_budget_bytes: 2048,
            run_merge_threshold: 2,
            ..TieredPolicy::default()
        }),
    )
    .unwrap();
    store.apply(marker_batch(0)).unwrap();

    const TIERED_BATCHES: u64 = 200;
    let done = AtomicBool::new(false);
    thread::scope(|s| {
        for reader in 0..READERS {
            let store = store.clone();
            let done = &done;
            s.spawn(move || {
                let mut last = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let hits = store.scan_prefix(Space::Instance, "stress/").unwrap();
                    assert_eq!(hits.len(), KEYS, "reader {reader}: batch partially visible");
                    let first = decode(&hits[0].1);
                    for (k, v) in &hits {
                        assert_eq!(decode(v), first, "reader {reader}: torn batch at key {k}");
                    }
                    assert!(first >= last, "reader {reader}: visibility went backwards");
                    last = first;
                    let point = store.get(Space::Instance, "stress/00").unwrap().unwrap();
                    assert!(decode(&point) <= TIERED_BATCHES);
                    assert_eq!(store.len(Space::Instance).unwrap(), KEYS);
                }
            });
        }
        let writer = store.clone();
        let done = &done;
        s.spawn(move || {
            for i in 1..=TIERED_BATCHES {
                writer.apply(marker_batch(i)).unwrap();
                if i % 40 == 0 {
                    writer.compact().unwrap();
                }
            }
            done.store(true, Ordering::Relaxed);
        });
    });

    // The workload actually exercised the tier machinery.
    let stats = store.stats();
    assert!(stats.spills > 0, "budget never triggered a spill");
    assert!(stats.run_merges > 0, "threshold never triggered a merge");

    drop(store);
    let recovered = Store::open_with(disk, None).unwrap();
    let hits = recovered.scan_prefix(Space::Instance, "stress/").unwrap();
    assert_eq!(hits.len(), KEYS);
    for (_, v) in &hits {
        assert_eq!(decode(v), TIERED_BATCHES);
    }
}

#[test]
fn auto_compaction_under_concurrent_readers_keeps_state_consistent() {
    let disk = MemDisk::new();
    let store = Store::open(disk.clone()).unwrap();
    store.set_compaction_policy(Some(CompactionPolicy {
        wal_bytes_threshold: 2 * 1024,
        min_wal_batches: 2,
    }));
    store.apply(marker_batch(0)).unwrap();

    let done = AtomicBool::new(false);
    thread::scope(|s| {
        for _ in 0..READERS {
            let store = store.clone();
            let done = &done;
            s.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    let hits = store.scan_prefix(Space::Instance, "stress/").unwrap();
                    assert_eq!(hits.len(), KEYS);
                    let first = decode(&hits[0].1);
                    for (_, v) in &hits {
                        assert_eq!(decode(v), first);
                    }
                }
            });
        }
        let writer = store.clone();
        let done = &done;
        s.spawn(move || {
            for i in 1..=200u64 {
                writer.apply(marker_batch(i)).unwrap();
            }
            done.store(true, Ordering::Relaxed);
        });
    });

    // The policy actually fired (epoch advanced) and nothing was lost.
    assert!(store.stats().epoch > 0, "auto-compaction never triggered");
    drop(store);
    let recovered = Store::open(disk).unwrap();
    assert_eq!(recovered.len(Space::Instance).unwrap(), KEYS);
    for (_, v) in recovered.scan_prefix(Space::Instance, "stress/").unwrap() {
        assert_eq!(decode(&v), 200);
    }
}
