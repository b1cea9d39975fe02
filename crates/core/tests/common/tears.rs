//! One append torn at each of its frame boundaries.
//!
//! A sharded engine's round reaches the store as one append of whole WAL
//! frames — every shard's journal batches in shard order, then the
//! history batch — and so does a recovery, and so does a `Runtime` step,
//! public call or recovery (a batch per dirty instance, the configuration
//! batch, the history batch).  A crash inside that append
//! leaves a CRC-valid prefix of its frames on disk: a cut inside a frame
//! loses that frame at the next open, so the frame boundaries are every
//! state a crash in the append can leave.  This file names nothing but
//! `bioopera_store`, so the engine's own unit tests include it as well.

use bioopera_store::{wal, CrashEffect, Disk, FaultPlan, MemDisk};

/// Crash a run at one of its appends once per frame boundary of that
/// append, each time on a fresh disk, and return what `recover` returned
/// for each.
///
/// `crash(disk, plan)` replays the run on `disk`, installs `plan` right
/// before the append it means to tear — so the append is the plan's
/// mutation 0 — and makes it, which must fail.  `recover(disk, crashed,
/// kept)` then gets the rebooted disk, what `crash` returned, and how
/// many bytes of the append survived.  The first crash keeps the whole
/// append (durable, its acknowledgment lost) and shows where its frames
/// end; then every shorter frame-aligned prefix, down to none, is kept
/// in turn — one case more than the append has frames.
pub fn tear_at_each_frame<T, R>(
    mut crash: impl FnMut(&MemDisk, FaultPlan) -> T,
    mut recover: impl FnMut(&MemDisk, T, u64) -> R,
) -> Vec<R> {
    let mut crash_on_a_fresh_disk = |effect| {
        let disk = MemDisk::new();
        let crashed = crash(&disk, FaultPlan::at_mutation(0, effect));
        assert!(disk.has_crashed(), "the armed append never happened");
        disk.reboot();
        (disk, crashed)
    };
    let (disk, crashed) = crash_on_a_fresh_disk(CrashEffect::AfterApply);
    let mut ends = frame_ends(&last_append(&disk));
    let whole = ends.pop().expect("an append ends");
    let mut out = vec![recover(&disk, crashed, whole)];
    for keep in ends.into_iter().rev() {
        let (disk, crashed) = crash_on_a_fresh_disk(CrashEffect::Torn { keep });
        out.push(recover(&disk, crashed, keep));
    }
    out
}

/// The bytes of the newest WAL that the disk's last fault plan saw
/// appended.
fn last_append(disk: &MemDisk) -> Vec<u8> {
    let wal = disk
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| n.starts_with("wal-"))
        .max();
    let log = disk.read(&wal.expect("a WAL")).unwrap().unwrap_or_default();
    log[log.len() - disk.bytes_appended() as usize..].to_vec()
}

/// Where each frame of `data` ends, from no frame to all of them.
fn frame_ends(data: &[u8]) -> Vec<u64> {
    let mut ends = vec![0];
    let mut off = 0;
    while off < data.len() {
        let payload = u32::from_le_bytes(data[off + 2..off + 6].try_into().unwrap());
        off += wal::HEADER_LEN + payload as usize;
        ends.push(off as u64);
    }
    assert_eq!(off, data.len(), "an append is whole frames");
    ends
}
