//! Windowed retention: the per-space watermark below which keys are
//! retired for good.
//!
//! The manifest records one `[start, below)` range per space; reads
//! treat it as absent ([`crate::levels::Levels::retained`]), writes into
//! it are dropped on apply (including WAL replay), and compactions
//! reclaim the bytes physically.  The runtime advances the watermark
//! over the history stream's `sev/` records once a durable summary covers
//! them.

use crate::disk::Disk;
use crate::engine::{Space, Store};
use crate::error::StoreResult;
use crate::manifest::manifest_for;
use crate::memtable::entry_cost;
use crate::merge::{Merge, Scan};
use std::ops::Bound;

impl<D: Disk> Store<D> {
    /// Advance the retention watermark of `space`: every key in
    /// `[start, below)` — widened to the convex hull of any existing
    /// watermark — is permanently retired.  Retired keys are invisible
    /// to reads, writes to them are dropped on apply (including WAL
    /// replay), and compactions reclaim the bytes physically.  The
    /// single manifest write is the commit point (one disk mutation);
    /// it persists the widened watermark.  Returns how many visible
    /// records the advance retired.
    pub fn retain_below(&mut self, space: Space, start: &str, below: &str) -> StoreResult<u64> {
        self.check_alive()?;
        if below <= start {
            return Ok(0);
        }
        let si = space.as_u8() as usize;
        let old = self.levels.retain[si].clone();
        let (new_start, new_below) = match &old {
            Some((s, b)) => (
                s.as_str().min(start).to_string(),
                b.as_str().max(below).to_string(),
            ),
            None => (start.to_string(), below.to_string()),
        };
        if old
            .as_ref()
            .is_some_and(|(s, b)| *s == new_start && *b == new_below)
        {
            return Ok(0); // already covered
        }
        // The newly retired region(s): the hull minus the old range.
        let deltas: Vec<(String, String)> = match &old {
            Some((s, b)) => {
                let mut d = Vec::new();
                if new_start.as_str() < s.as_str() {
                    d.push((new_start.clone(), s.clone()));
                }
                if new_below.as_str() > b.as_str() {
                    d.push((b.clone(), new_below.clone()));
                }
                d
            }
            None => vec![(new_start.clone(), new_below.clone())],
        };
        // Count what the advance retires in the merged view of the runs
        // and the memtable, and price the memtable entries to purge.
        let (retired, purge_cost) = {
            let (mem, levels) = (&self.mem, &self.levels);
            let mut retired = 0u64;
            let mut purge_cost = 0u64;
            for (lo, hi) in &deltas {
                let scan = Scan {
                    space: space.as_u8(),
                    start: lo,
                    within: &|k: &str| k < hi.as_str(),
                    mem,
                };
                let mut merge = Merge::new(&self.disk, levels.merge_inputs(), Some(scan))?;
                while let Some(e) = merge.next()? {
                    retired += u64::from(e.value.is_some());
                }
                for (k, v) in mem.spaces[si]
                    .range::<str, _>((Bound::Included(lo.as_str()), Bound::Excluded(hi.as_str())))
                {
                    purge_cost += entry_cost(k.len(), v.as_ref().map_or(0, |b| b.len()));
                }
            }
            (retired, purge_cost)
        };
        let mut retain = self.levels.retain.clone();
        retain[si] = Some((new_start, new_below));
        let manifest = manifest_for(
            self.wal.epoch,
            &self.levels.l0,
            &self.levels.deeper,
            &retain,
        );
        self.commit_manifest(&manifest)?;
        // Committed: publish the watermark and purge the in-range
        // memtable entries.
        let mem = &mut self.mem;
        for (lo, hi) in &deltas {
            let keys: Vec<String> = mem.spaces[si]
                .range::<str, _>((Bound::Included(lo.as_str()), Bound::Excluded(hi.as_str())))
                .map(|(k, _)| k.clone())
                .collect();
            for k in keys {
                mem.spaces[si].remove(&k);
            }
        }
        mem.approx_bytes -= purge_cost;
        self.levels.retain = retain;
        self.wal.retired += retired;
        Ok(retired)
    }

    /// The retention watermark of `space`, if any: the `[start, below)`
    /// range of permanently retired keys.
    pub fn retention(&self, space: Space) -> Option<(String, String)> {
        self.levels.retain[space.as_u8() as usize].clone()
    }
}

#[cfg(test)]
mod tests {
    use crate::disk::{FaultPlan, MemDisk};
    use crate::engine::tests::{assert_only_live_files, tiny_tiered};
    use crate::{Space, Store};
    use bytes::Bytes;

    #[test]
    fn retention_drops_covered_prefix_and_survives_reopen() {
        let disk = MemDisk::new();
        let mut store = Store::open_with(disk.clone(), Some(tiny_tiered())).unwrap();
        for i in 0..30u32 {
            store
                .put(
                    Space::History,
                    format!("ev/{i:04}"),
                    Bytes::from(vec![i as u8; 60]),
                )
                .unwrap();
        }
        store.put(Space::Instance, "keepme", &b"v"[..]).unwrap();
        store.spill().unwrap();
        assert_eq!(store.len(Space::History).unwrap(), 30);

        let retired = store
            .retain_below(Space::History, "ev/", "ev/0020")
            .unwrap();
        assert_eq!(retired, 20, "exactly the covered records retire");
        assert_eq!(store.len(Space::History).unwrap(), 10);
        assert_eq!(store.get(Space::History, "ev/0005").unwrap(), None);
        assert_eq!(
            store.get(Space::History, "ev/0025").unwrap().unwrap(),
            &[25u8; 60][..]
        );
        assert_eq!(
            store.retention(Space::History),
            Some(("ev/".to_string(), "ev/0020".to_string()))
        );
        // Other spaces are untouched.
        assert_eq!(
            store.get(Space::Instance, "keepme").unwrap().unwrap(),
            &b"v"[..]
        );
        // Scans start past the watermark.
        let scanned = store.scan_prefix(Space::History, "ev/").unwrap();
        assert_eq!(scanned.len(), 10);
        assert_eq!(scanned[0].0, "ev/0020");

        // A write below the watermark is accepted but never becomes
        // visible — the retention contract is a floor, not a suggestion.
        store
            .put(Space::History, "ev/0003", &b"zombie"[..])
            .unwrap();
        assert_eq!(store.get(Space::History, "ev/0003").unwrap(), None);
        assert_eq!(store.len(Space::History).unwrap(), 10);

        // Re-retaining an already-covered window is a no-op.
        assert_eq!(
            store
                .retain_below(Space::History, "ev/", "ev/0010")
                .unwrap(),
            0
        );

        drop(store);
        let reopened = Store::open_with(disk.clone(), Some(tiny_tiered())).unwrap();
        assert_eq!(
            reopened.retention(Space::History),
            Some(("ev/".to_string(), "ev/0020".to_string()))
        );
        assert_eq!(reopened.len(Space::History).unwrap(), 10);
        assert_eq!(reopened.get(Space::History, "ev/0003").unwrap(), None);
        assert_eq!(reopened.get(Space::History, "ev/0005").unwrap(), None);
        assert_eq!(
            reopened.get(Space::History, "ev/0025").unwrap().unwrap(),
            &[25u8; 60][..]
        );
        assert_only_live_files(&disk, "after retention reopen");
    }

    #[test]
    fn crash_at_retention_manifest_recovers_to_old_or_new_watermark() {
        use crate::disk::CrashEffect;
        // retain_below commits through exactly one disk mutation (the
        // manifest rewrite).  Crash on it with every effect: recovery
        // must land on either the old state or the new one, never a mix.
        for effect in [
            CrashEffect::Drop,
            CrashEffect::Torn { keep: 9 },
            CrashEffect::AfterApply,
        ] {
            let disk = MemDisk::new();
            let mut store = Store::open_with(disk.clone(), Some(tiny_tiered())).unwrap();
            for i in 0..20u32 {
                store
                    .put(
                        Space::History,
                        format!("ev/{i:04}"),
                        Bytes::from(vec![i as u8; 60]),
                    )
                    .unwrap();
            }
            store.spill().unwrap();

            disk.set_fault_plan(Some(FaultPlan::at_mutation(0, effect)));
            assert!(
                store
                    .retain_below(Space::History, "ev/", "ev/0010")
                    .is_err(),
                "{effect:?}: crash must surface"
            );
            assert!(store.is_poisoned(), "{effect:?}");
            disk.reboot();

            let mut recovered = Store::open_with(disk.clone(), Some(tiny_tiered())).unwrap();
            match recovered.retention(Space::History) {
                None => {
                    // Old state: nothing retired.
                    assert_eq!(recovered.len(Space::History).unwrap(), 20, "{effect:?}");
                    assert!(
                        recovered.get(Space::History, "ev/0005").unwrap().is_some(),
                        "{effect:?}"
                    );
                }
                Some((start, below)) => {
                    // New state: the full watermark, with every covered
                    // record invisible.
                    assert_eq!(
                        (start.as_str(), below.as_str()),
                        ("ev/", "ev/0010"),
                        "{effect:?}"
                    );
                    assert_eq!(recovered.len(Space::History).unwrap(), 10, "{effect:?}");
                    assert_eq!(
                        recovered.get(Space::History, "ev/0005").unwrap(),
                        None,
                        "{effect:?}"
                    );
                }
            }
            assert!(
                recovered.get(Space::History, "ev/0015").unwrap().is_some(),
                "{effect:?}: record above the watermark vanished"
            );
            assert_only_live_files(&disk, "retention crash recovery");
            // The recovered store keeps working, including a clean retry.
            recovered
                .retain_below(Space::History, "ev/", "ev/0010")
                .unwrap();
            assert_eq!(recovered.len(Space::History).unwrap(), 10, "{effect:?}");
        }
    }
}
