//! Every rewrite of on-disk state: the memtable spill and bounded
//! leveled compaction.
//!
//! Both follow one discipline — write the new files, commit with a
//! single manifest write, swap the in-memory view, then garbage-collect
//! the inputs — so a crash at any point leaves either the old state or
//! the new one fully recoverable (`Store::open_with` removes whatever the
//! manifest does not list).  There is exactly one roll body, a spill
//! and one round of leveled maintenance ([`Store::compact`], which the
//! automatic roll after a commit calls), and exactly one
//! select/merge/write/GC core (`push_down`); per compaction work
//! is O(what overlaps), never O(history), and resident memory is one
//! block per input plus one output run.

use crate::disk::Disk;
use crate::engine::Store;
use crate::error::StoreResult;
use crate::levels::Levels;
use crate::manifest::{manifest_for, snapshot_name, wal_name, MANIFEST};
use crate::memtable::entry_cost;
use crate::merge::{Entry, Merge};
use crate::runs::{run_name, Run, RunEntry, RunWriter};
use std::collections::BTreeMap;

impl<D: Disk> Store<D> {
    /// Roll the WAL forward, exactly as an automatic roll would: spill
    /// the memtables to a sorted run at epoch `e + 1`, then one round of
    /// leveled maintenance.  A crash at any point leaves either the old
    /// epoch or the new epoch fully recoverable.
    pub fn compact(&mut self) -> StoreResult<()> {
        self.spill()?;
        self.compact_levels()
    }

    /// Is a roll due — the memtable over its budget, or the WAL at its
    /// length threshold?  Checked after every commit.
    pub(crate) fn roll_due(&self) -> bool {
        let wal = &self.wal;
        wal.tiered
            .is_some_and(|t| self.mem.approx_bytes > t.memtable_budget_bytes)
            || wal
                .policy
                .is_some_and(|p| wal.wal_bytes >= p.wal_bytes_threshold)
    }

    /// Spill the memtables to a new immutable sorted-run file, rolling
    /// the WAL epoch.  No-op when there is nothing to persist and the
    /// WAL is already empty.
    ///
    /// Sequence: build the run image from the memtable, write it,
    /// re-open it (self-check through the same decoder recovery will
    /// use), commit the manifest at `epoch + 1` (THE commit point —
    /// before it the new run is invisible garbage, after it the old WAL
    /// and any legacy snapshot are garbage), GC the old epoch, then swap
    /// the memtables for the run.
    pub fn spill(&mut self) -> StoreResult<()> {
        self.check_alive()?;
        let mem = &self.mem;
        if self.wal.wal_bytes == 0 && mem.spaces.iter().all(BTreeMap::is_empty) {
            return Ok(());
        }
        // The memtable streams into the run image; its byte estimate
        // bounds the image's data region.
        let mut run = RunWriter::with_capacity(mem.approx_bytes as usize + 256);
        for (space, map) in mem.spaces.iter().enumerate() {
            for (key, value) in map {
                run.push(RunEntry {
                    space: space as u8,
                    key,
                    value: value.as_deref(),
                });
            }
        }
        let data = run.finish();
        let epoch = self.wal.epoch;
        let name = run_name(self.wal.next_run_id);
        let run = self.poison_on_err((|| {
            self.disk.write_atomic(&name, &data)?;
            let run = Run::open(&self.disk, &name)?;
            let levels = &self.levels;
            let manifest = manifest_for(
                epoch + 1,
                levels.l0.iter().chain([&run]),
                &levels.deeper,
                &levels.retain,
            );
            self.disk.write_atomic(MANIFEST, manifest.as_bytes())?;
            self.disk.delete(&wal_name(epoch))?;
            self.disk.delete(&snapshot_name(epoch))?;
            Ok(run)
        })())?;
        for map in &mut self.mem.spaces {
            map.clear();
        }
        self.mem.approx_bytes = 0;
        self.levels.l0.push(run);
        self.wal.epoch = epoch + 1;
        self.wal.wal_bytes = 0;
        self.wal.next_run_id += 1;
        self.wal.spills += 1;
        Ok(())
    }

    /// One round of bounded leveled maintenance: compact L0 into L1
    /// once it reaches the policy's run-count threshold, then cascade:
    /// any deeper level holding more bytes than its budget (and more
    /// than one run) pushes one victim run down.  Each push-down moves
    /// bytes strictly deeper, so the loop terminates; the iteration cap
    /// is a pure safety net.  A store with no policy lays its levels out
    /// as the default policy does.  Run by every roll; exposed for tests
    /// and benches.
    pub fn compact_levels(&mut self) -> StoreResult<()> {
        self.check_alive()?;
        let policy = self.wal.tiered.unwrap_or_default();
        if self.levels.l0.len() >= policy.run_merge_threshold {
            self.push_down(0)?;
        }
        for _ in 0..64 {
            let levels = &self.levels;
            let over = (1..=levels.deeper.len()).find(|&i| {
                let lvl = &levels.deeper[i - 1];
                lvl.len() > 1 && lvl.iter().map(|r| r.data_bytes).sum::<u64>() > policy.level_cap(i)
            });
            match over {
                Some(level) => self.push_down(level)?,
                None => return Ok(()),
            }
        }
        Ok(())
    }

    /// One bounded compaction step.  `source == 0` takes every L0 run,
    /// `source >= 1` one cursor-picked victim run, and moves their data
    /// into level `source + 1`, rewriting only what overlaps:
    ///
    /// * **Selection** is block-granular.  A target-level run joins the
    ///   merge only if some source *block* range intersects its hull.
    ///   Any target run whose hull contains a source key is therefore
    ///   selected — an older version or a key a source tombstone shadows
    ///   can never be left behind — while a run that merely sits between
    ///   two source blocks (append-only history under a spill whose hull
    ///   spans every space) is not read at all.
    /// * **Fence cut.**  The merge output is split at the policy's target
    ///   size and wherever the next key would jump an untouched target
    ///   run, so the level keeps pairwise-disjoint sorted hulls.
    /// * **Trivial move.**  A single source run that selects nothing,
    ///   whose hull intersects no target run, that would not carry
    ///   tombstones into the bottom level and that no retention
    ///   watermark reaches moves by the manifest commit alone.
    ///
    /// Commit point is the single manifest write; inputs are GC'd after
    /// the in-memory swap.  Tombstones are dropped only when every level
    /// deeper than the output is empty — nothing older exists to
    /// resurrect.
    fn push_down(&mut self, source: usize) -> StoreResult<()> {
        let target = source + 1;
        let (sources, overlaps, bottom, mut new_levels) = {
            let levels = &self.levels;
            let sources: Vec<Run> = if source == 0 {
                levels.l0.clone()
            } else {
                let lvl = match levels.deeper.get(source - 1) {
                    Some(l) if !l.is_empty() => l,
                    _ => return Ok(()),
                };
                // Round-robin victim: first run past the cursor, else
                // wrap to the front.
                let pick = match self
                    .wal
                    .level_cursors
                    .get(source - 1)
                    .and_then(|c| c.as_ref())
                {
                    Some((cs, ck)) => lvl
                        .iter()
                        .position(|r| r.min_key().is_some_and(|mk| mk > (*cs, ck.as_str())))
                        .unwrap_or(0),
                    None => 0,
                };
                vec![lvl[pick].clone()]
            };
            if sources.is_empty() {
                return Ok(());
            }
            let overlaps: Vec<Run> = levels
                .deeper
                .get(target - 1)
                .map(|lvl| {
                    lvl.iter()
                        .filter(|t| match t.hull() {
                            Some((lo, hi)) => {
                                sources.iter().any(|s| s.any_block_intersects(lo, hi))
                            }
                            // A degenerate empty run folds away.
                            None => true,
                        })
                        .cloned()
                        .collect()
                })
                .unwrap_or_default();
            let bottom = levels.deeper.iter().skip(target).all(Vec::is_empty);
            // The tier as it will look after this step, minus the new
            // runs (added once written).
            let mut base = Levels {
                l0: if source == 0 {
                    Vec::new()
                } else {
                    levels.l0.clone()
                },
                deeper: levels.deeper.clone(),
                retain: levels.retain.clone(),
            };
            if source >= 1 {
                base.deeper[source - 1].retain(|r| !sources.iter().any(|s| s.name() == r.name()));
            }
            if base.deeper.len() < target {
                base.deeper.resize_with(target, Vec::new);
            }
            base.deeper[target - 1].retain(|r| !overlaps.iter().any(|o| o.name() == r.name()));
            (sources, overlaps, bottom, base)
        };

        // What stays of the target level: the merge output must not
        // straddle any of these.
        let untouched = &new_levels.deeper[target - 1];
        let trivial = match sources.as_slice() {
            [victim] if overlaps.is_empty() => {
                victim.hull().is_some_and(|(lo, hi)| {
                    !untouched
                        .iter()
                        .any(|t| t.hull().is_some_and(|(tlo, thi)| tlo <= hi && lo <= thi))
                }) && !(bottom && victim.tombstones > 0)
                    && !new_levels.retains_part_of(victim)
            }
            _ => false,
        };
        let new_runs = if trivial {
            sources.clone()
        } else {
            self.poison_on_err(self.merge_into_runs(
                &overlaps,
                &sources,
                untouched,
                |space, key, live| new_levels.retained(space, key) || (bottom && !live),
            ))?
        };
        {
            let tgt = &mut new_levels.deeper[target - 1];
            tgt.extend(new_runs.iter().cloned());
            tgt.sort_by(|a, b| a.min_key().cmp(&b.min_key()));
        }
        debug_assert!(
            new_levels.deeper_levels_disjoint(),
            "push-down out of L{source} breaks the level invariant"
        );
        // Same epoch: a merge never changes the visible view.
        let manifest = manifest_for(
            self.wal.epoch,
            &new_levels.l0,
            &new_levels.deeper,
            &new_levels.retain,
        );
        self.commit_manifest(&manifest)?;
        // Publish in memory before GC'ing inputs.  (A crash between the
        // manifest commit and these deletes only leaves unlisted run
        // files, which recovery hygiene removes.)
        self.levels = new_levels;
        let wal = &mut self.wal;
        if source >= 1 {
            if wal.level_cursors.len() < source {
                wal.level_cursors.resize(source, None);
            }
            wal.level_cursors[source - 1] = sources
                .last()
                .and_then(Run::max_key)
                .map(|(s, k)| (s, k.to_owned()));
        }
        if trivial {
            wal.trivial_moves += 1;
            return Ok(());
        }
        let bytes_in: u64 = overlaps.iter().chain(&sources).map(|r| r.data_bytes).sum();
        wal.next_run_id += new_runs.len() as u64;
        wal.run_merges += 1;
        wal.merge_bytes_in += bytes_in;
        wal.merge_bytes_out += new_runs.iter().map(|r| r.data_bytes).sum::<u64>();
        wal.merge_bytes_max = wal.merge_bytes_max.max(bytes_in);
        for r in sources.iter().chain(overlaps.iter()) {
            self.cache.purge_run(r.id());
            self.poison_on_err(self.disk.delete(r.name()))?;
        }
        Ok(())
    }

    /// Stream the merge of `overlaps` (target level, older) and
    /// `sources` (oldest first) into new run files, skipping every entry
    /// `skip(space, key, is_live)` names.  Output is cut at the
    /// policy's run size and before any key past the next `untouched`
    /// target run (sorted, hulls disjoint from every merged key).  Each
    /// entry is copied once, from its input block into the output image;
    /// each written run is re-opened through the decoder recovery will
    /// use; nothing is committed here.
    fn merge_into_runs(
        &self,
        overlaps: &[Run],
        sources: &[Run],
        untouched: &[Run],
        skip: impl Fn(u8, &str, bool) -> bool,
    ) -> StoreResult<Vec<Run>> {
        let run_target = self.wal.tiered.unwrap_or_default().run_target();
        // The target level holds strictly older data than the sources,
        // so it ranks first and the sources overwrite.
        let mut inputs: Vec<&[Run]> = vec![overlaps];
        inputs.extend(sources.iter().map(std::slice::from_ref));
        let mut merge = Merge::new(&self.disk, inputs, None)?;
        // An output run holds at most `run_target` of entry cost, which
        // bounds its image, and no more than the inputs hold.
        let bytes_in: u64 = overlaps.iter().chain(sources).map(|r| r.data_bytes).sum();
        let capacity = run_target.min(bytes_in) as usize + 256;
        let mut new_runs: Vec<Run> = Vec::new();
        let mut write_run = |run: RunWriter| -> StoreResult<()> {
            let name = run_name(self.wal.next_run_id + new_runs.len() as u64);
            self.disk.write_atomic(&name, &run.finish())?;
            new_runs.push(Run::open(&self.disk, &name)?);
            Ok(())
        };
        // `untouched[fence]` is the first untouched run not wholly below
        // the open output; a key past its hull must start a new run.
        let mut fence = 0usize;
        let past_fence = |fence: usize, space: u8, key: &str| {
            untouched
                .get(fence)
                .and_then(Run::min_key)
                .is_some_and(|min| min < (space, key))
        };
        let mut out = RunWriter::with_capacity(capacity);
        let mut out_bytes = 0u64;
        while let Some(Entry { space, key, value }) = merge.next()? {
            let value = value.map(|(block, at)| &block[at]);
            if skip(space, key, value.is_some()) {
                continue;
            }
            let cost = entry_cost(key.len(), value.map_or(0, <[u8]>::len));
            if !out.is_empty() && (out_bytes + cost > run_target || past_fence(fence, space, key)) {
                write_run(std::mem::replace(
                    &mut out,
                    RunWriter::with_capacity(capacity),
                ))?;
                out_bytes = 0;
            }
            if out.is_empty() {
                while past_fence(fence, space, key) {
                    fence += 1;
                }
            }
            out.push(RunEntry { space, key, value });
            out_bytes += cost;
        }
        if !out.is_empty() {
            write_run(out)?;
        }
        Ok(new_runs)
    }
}

#[cfg(test)]
mod tests {
    use crate::disk::{Disk, FaultPlan, MemDisk};
    use crate::engine::tests::{assert_only_live_files, open_mem, tiny_tiered};
    use crate::manifest::MANIFEST;
    use crate::{CompactionPolicy, Space, Store, TieredPolicy};
    use bytes::Bytes;
    use std::collections::BTreeMap;

    #[test]
    fn compact_then_recover() {
        let (disk, mut store) = open_mem();
        for i in 0..100 {
            store
                .put(
                    Space::History,
                    format!("ev/{i:04}"),
                    Bytes::from(vec![i as u8]),
                )
                .unwrap();
        }
        store.delete(Space::History, "ev/0000").unwrap();
        let pre = store.stats();
        assert!(pre.wal_bytes > 0);
        store.compact().unwrap();
        let post = store.stats();
        assert_eq!(post.epoch, pre.epoch + 1);
        assert_eq!(post.wal_bytes, 0);
        assert_eq!(store.len(Space::History).unwrap(), 99);

        // Post-compaction writes land in the new WAL.
        store.put(Space::History, "ev/9999", &b"new"[..]).unwrap();
        drop(store);
        let recovered = Store::open_with(disk, None).unwrap();
        assert_eq!(recovered.len(Space::History).unwrap(), 100);
        assert_eq!(recovered.get(Space::History, "ev/0000").unwrap(), None);
        assert_eq!(
            recovered.get(Space::History, "ev/9999").unwrap().unwrap(),
            &b"new"[..]
        );
    }

    #[test]
    fn compact_empty_store() {
        let (disk, mut store) = open_mem();
        store.compact().unwrap();
        drop(store);
        let recovered = Store::open_with(disk, None).unwrap();
        for space in Space::ALL {
            assert!(recovered.is_empty(space).unwrap());
        }
    }

    #[test]
    fn compaction_policy_rolls_the_wal_automatically() {
        let (disk, mut store) = open_mem();
        store.set_compaction_policy(Some(CompactionPolicy {
            wal_bytes_threshold: 256,
        }));
        let epoch0 = store.stats().epoch;
        for i in 0..32 {
            store
                .put(
                    Space::History,
                    format!("ev/{i:03}"),
                    Bytes::from(vec![0u8; 64]),
                )
                .unwrap();
        }
        let stats = store.stats();
        assert!(
            stats.epoch > epoch0,
            "policy must have compacted at least once"
        );
        assert!(
            stats.wal_bytes < 256 + 2 * 128,
            "live WAL stays near the threshold, got {}",
            stats.wal_bytes
        );
        // Every roll is a spill: the memtable holds what the live WAL
        // does, not the history (32 entries of 119 B).
        assert_eq!(stats.spills, stats.epoch - epoch0);
        assert!(stats.memtable_bytes < 4 * 119, "{stats:?}");
        assert_eq!(store.len(Space::History).unwrap(), 32);
        // Everything survives recovery regardless of where the epoch rolled.
        drop(store);
        let recovered = Store::open_with(disk, None).unwrap();
        assert_eq!(recovered.len(Space::History).unwrap(), 32);
    }

    /// `tiny_tiered` with an L0 threshold of two, so two spills are
    /// enough for `compact_levels` to merge L0 down.
    fn merge_at_two() -> TieredPolicy {
        TieredPolicy {
            run_merge_threshold: 2,
            ..tiny_tiered()
        }
    }

    #[test]
    fn deletes_tombstone_runs_until_merge_drops_them() {
        let disk = MemDisk::new();
        let mut store = Store::open_with(disk.clone(), Some(merge_at_two())).unwrap();
        for i in 0..10 {
            store
                .put(
                    Space::Configuration,
                    format!("c/{i}"),
                    Bytes::from(vec![1u8; 32]),
                )
                .unwrap();
        }
        store.spill().unwrap();
        assert_eq!(store.stats().runs, 1);

        // Deleting a spilled key leaves a tombstone in the memtable …
        store.delete(Space::Configuration, "c/3").unwrap();
        assert_eq!(store.get(Space::Configuration, "c/3").unwrap(), None);
        assert_eq!(store.len(Space::Configuration).unwrap(), 9);

        // … the tombstone rides the next spill into a run …
        store.spill().unwrap();
        let runs = store.levels.l0.clone();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].tombstones, 1);

        // … and the merge, whose output lands in the bottom level, folds
        // it away for good.
        store.compact_levels().unwrap();
        assert!(store.levels.l0.is_empty());
        let runs = store.levels.deeper[0].clone();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].tombstones, 0);
        assert_eq!(runs[0].entries, 9);
        assert_eq!(store.get(Space::Configuration, "c/3").unwrap(), None);
        assert_eq!(store.len(Space::Configuration).unwrap(), 9);

        // A reopen agrees, and deleting a key no run may contain never
        // creates a tombstone at all.
        let mut reopened = Store::open_with(disk, Some(merge_at_two())).unwrap();
        assert_eq!(reopened.len(Space::Configuration).unwrap(), 9);
        reopened.put(Space::Template, "t/x", &b"v"[..]).unwrap();
        reopened.delete(Space::Template, "t/x").unwrap();
        assert!(reopened.mem.spaces[Space::Template.as_u8() as usize].is_empty());
    }

    #[test]
    fn crash_at_every_spill_mutation_recovers() {
        use crate::disk::CrashEffect;
        // A roll is a spill whatever the budget: 4 mutations, run write,
        // manifest write, old-WAL delete, legacy-snapshot delete.  Crash
        // at each, with every effect, and verify recovery sees exactly
        // the pre-spill records and leaves no stale files behind.
        for (tiered, idx) in [None, Some(tiny_tiered())]
            .into_iter()
            .flat_map(|t| (0..4u64).map(move |idx| (t, idx)))
        {
            for effect in [
                CrashEffect::Drop,
                CrashEffect::Torn { keep: 7 },
                CrashEffect::AfterApply,
            ] {
                let disk = MemDisk::new();
                let mut store = Store::open_with(disk.clone(), tiered).unwrap();
                for i in 0..20 {
                    store
                        .put(Space::History, format!("ev/{i:02}"), Bytes::from(vec![i]))
                        .unwrap();
                }
                store.delete(Space::History, "ev/00").unwrap();
                let expected: Vec<(String, Bytes)> = store.scan_prefix(Space::History, "").unwrap();

                let ctx = format!("{tiered:?} spill mutation {idx} {effect:?}");
                disk.set_fault_plan(Some(FaultPlan::at_mutation(idx, effect)));
                assert!(store.compact().is_err(), "{ctx}: crash not surfaced");
                assert!(store.is_poisoned(), "{ctx}");
                disk.reboot();

                let mut recovered = Store::open_with(disk.clone(), tiered).unwrap();
                assert_eq!(
                    recovered.scan_prefix(Space::History, "").unwrap(),
                    expected,
                    "{ctx}: records diverged"
                );
                assert_only_live_files(&disk, &ctx);
                // The recovered store keeps working — including the very
                // operation that crashed.
                recovered
                    .put(Space::History, "ev/99", &b"post"[..])
                    .unwrap();
                recovered.compact().unwrap();
            }
        }
    }

    /// Crash `compact_levels()` at every disk mutation it makes on the
    /// state `setup` builds, with every crash effect: recovery must see
    /// exactly the pre-crash records, leave no stale file, keep every
    /// deeper level disjoint, and finish the interrupted maintenance.
    /// `expect` checks — on a crash-free probe — that the round really
    /// took the steps the scenario is named for.  Returns the number of
    /// mutations enumerated.
    fn crash_at_every_mutation_of_a_maintenance_round(
        policy: TieredPolicy,
        setup: impl Fn(&mut Store<MemDisk>),
        expect: impl Fn(&Store<MemDisk>),
    ) -> u64 {
        use crate::disk::CrashEffect;
        let scan = |store: &Store<MemDisk>| -> Vec<(String, Bytes)> {
            [Space::Instance, Space::Configuration, Space::History]
                .into_iter()
                .flat_map(|space| store.scan_prefix(space, "").unwrap())
                .collect()
        };
        let (mutations, settled) = {
            let disk = MemDisk::new();
            let mut store = Store::open_with(disk.clone(), Some(policy)).unwrap();
            setup(&mut store);
            let before = disk.mutation_count();
            store.compact_levels().unwrap();
            expect(&store);
            (disk.mutation_count() - before, store.level_ranges())
        };
        for idx in 0..mutations {
            for effect in [
                CrashEffect::Drop,
                CrashEffect::Torn { keep: 7 },
                CrashEffect::AfterApply,
            ] {
                let ctx = format!("maintenance mutation {idx}/{mutations} {effect:?}");
                let disk = MemDisk::new();
                let mut store = Store::open_with(disk.clone(), Some(policy)).unwrap();
                setup(&mut store);
                let expected = scan(&store);

                disk.set_fault_plan(Some(FaultPlan::at_mutation(idx, effect)));
                assert!(store.compact_levels().is_err(), "{ctx}: crash not surfaced");
                assert!(store.is_poisoned(), "{ctx}");
                disk.reboot();

                let mut recovered = Store::open_with(disk.clone(), Some(policy)).unwrap();
                assert_eq!(scan(&recovered), expected, "{ctx}: records diverged");
                assert_only_live_files(&disk, &ctx);
                assert!(recovered.levels.deeper_levels_disjoint(), "{ctx}");
                // Whatever step the crash interrupted is redone (a crash
                // before a merge's commit re-merges into fresh run ids).
                recovered.compact_levels().unwrap();
                assert_eq!(recovered.level_ranges(), settled, "{ctx}: layout");
                assert!(recovered.levels.l0.is_empty(), "{ctx}");
                assert_eq!(scan(&recovered), expected, "{ctx}: diverged after redo");
            }
        }
        mutations
    }

    fn put_range(store: &mut Store<MemDisk>, space: Space, prefix: &str, n: u8, fill: u8) {
        for i in 0..n {
            store
                .put(
                    space,
                    format!("{prefix}/{i:02}"),
                    Bytes::from(vec![fill; 90]),
                )
                .unwrap();
        }
    }

    #[test]
    fn crash_at_every_merge_mutation_recovers() {
        // Two L0 runs, one output: merged-run write, manifest write and
        // one delete per input run.
        let mutations = crash_at_every_mutation_of_a_maintenance_round(
            merge_at_two(),
            |store| {
                for i in 0..12 {
                    store
                        .put(Space::Instance, format!("a/{i:02}"), Bytes::from(vec![i]))
                        .unwrap();
                }
                store.spill().unwrap();
                for i in 0..12 {
                    if i % 3 == 0 {
                        store.delete(Space::Instance, format!("a/{i:02}")).unwrap();
                    } else {
                        store
                            .put(Space::Instance, format!("b/{i:02}"), Bytes::from(vec![i]))
                            .unwrap();
                    }
                }
                store.spill().unwrap();
                assert_eq!(store.stats().runs, 2);
            },
            |store| assert_eq!(store.stats().runs, 1),
        );
        assert_eq!(mutations, 4);
    }

    #[test]
    fn crash_at_every_fence_cut_merge_mutation_recovers() {
        // L1 = [instance run, configuration run, history run]; the two
        // L0 runs hold instance and history keys only, so no source
        // block reaches the configuration run: it is neither read nor
        // rewritten, and the output must be cut where it would jump it.
        let policy = TieredPolicy {
            memtable_budget_bytes: 1 << 20,
            run_merge_threshold: 2,
            level_base_bytes: 1 << 20,
            level_run_bytes: 1 << 20,
            ..TieredPolicy::default()
        };
        let mutations = crash_at_every_mutation_of_a_maintenance_round(
            policy,
            |store| {
                for fill in 0..2 {
                    put_range(store, Space::Configuration, "node", 8, fill);
                    store.spill().unwrap();
                }
                store.compact_levels().unwrap();
                for round in 0..2u8 {
                    for fill in 0..2 {
                        put_range(store, Space::Instance, "inst", 8, 10 * round + fill);
                        put_range(store, Space::History, "ev", 8, 10 * round + fill);
                        store.delete(Space::Instance, "inst/03").unwrap();
                        store.spill().unwrap();
                    }
                    if round == 0 {
                        store.compact_levels().unwrap();
                        assert_eq!(store.level_ranges()[0].len(), 3, "fence cut missing");
                    }
                }
            },
            |store| {
                let stats = store.stats();
                assert_eq!((stats.run_merges, stats.trivial_moves), (3, 0));
                let l1 = store.levels.deeper[0].clone();
                assert_eq!(l1.len(), 3);
                // The configuration run is still the file the first
                // merge wrote; its neighbours were rewritten around it.
                assert_eq!(l1[1].name(), "run-000002");
                assert_eq!(l1[1].min_key(), Some((2, "node/00")));
                assert!(l1[0].id() > 6 && l1[2].id() > 6);
            },
        );
        // Two output runs, the manifest, four input deletes.
        assert_eq!(mutations, 7);
    }

    #[test]
    fn crash_at_every_trivial_move_mutation_recovers() {
        // The L0 merge leaves L1 over its budget in several runs; with
        // L2 empty each push-down is a trivial move — one manifest write
        // and nothing else.
        let policy = TieredPolicy {
            memtable_budget_bytes: 1 << 20, // explicit spills only
            ..tiny_leveled()
        };
        let mutations = crash_at_every_mutation_of_a_maintenance_round(
            policy,
            |store| {
                put_range(store, Space::Instance, "a", 12, 1);
                store.spill().unwrap();
                put_range(store, Space::Instance, "b", 12, 2);
                store.spill().unwrap();
            },
            |store| {
                let stats = store.stats();
                assert_eq!(stats.run_merges, 1);
                assert!(stats.trivial_moves >= 2, "{stats:?}");
                // Only the one rewriting merge is charged: nothing was
                // dropped, so out is in plus a few more block headers.
                assert!(stats.merge_bytes_in > 2000, "{stats:?}");
                assert!(stats.merge_bytes_out.abs_diff(stats.merge_bytes_in) < 100);
                assert!(stats.levels >= 2);
            },
        );
        let merge_mutations = 4 + 1 + 2; // outputs, manifest, input deletes
        assert!(mutations > merge_mutations, "no trivial move enumerated");
    }

    type Row<'a> = (u8, &'a str, Option<&'a [u8]>);

    /// A store opened over hand-laid deeper levels: `levels[i]` lists
    /// the runs of level `i + 1`, each a sorted entry list; `retain` is
    /// a manifest watermark line (with its newline) or empty.
    fn store_over(levels: &[&[&[Row<'_>]]], retain: &str) -> (MemDisk, Store<MemDisk>) {
        use crate::runs::{build_run, run_name, RunEntry};
        let disk = MemDisk::new();
        let mut lruns = String::new();
        let mut id = 0;
        for (level, runs) in levels.iter().enumerate() {
            for rows in runs.iter() {
                let entries: Vec<RunEntry<'_>> = rows
                    .iter()
                    .map(|&(space, key, value)| RunEntry { space, key, value })
                    .collect();
                disk.write_atomic(&run_name(id), &build_run(&entries))
                    .unwrap();
                lruns += &format!("lrun {} {}\n", level + 1, run_name(id));
                id += 1;
            }
        }
        let manifest = format!("1\n{retain}{lruns}");
        disk.write_atomic(MANIFEST, manifest.as_bytes()).unwrap();
        let policy = TieredPolicy {
            memtable_budget_bytes: 1 << 20,
            ..TieredPolicy::default()
        };
        let store = Store::open_with(disk.clone(), Some(policy)).unwrap();
        (disk, store)
    }

    fn level_names(store: &Store<MemDisk>, level: usize) -> Vec<String> {
        store.levels.deeper[level - 1]
            .iter()
            .map(|r| r.name().to_string())
            .collect()
    }

    #[test]
    fn push_down_moves_a_run_that_overlaps_nothing_by_manifest_alone() {
        let v = Some(&b"v"[..]);
        let (disk, mut store) = store_over(
            &[
                &[&[(3, "ev/05", v), (3, "ev/06", v)]],
                &[&[(3, "ev/01", v)]],
            ],
            "",
        );
        let (mutations, reads) = (disk.mutation_count(), disk.read_op_count());
        store.push_down(1).unwrap();
        assert_eq!(disk.mutation_count() - mutations, 1, "one manifest write");
        assert_eq!(disk.read_op_count(), reads, "no run is read");
        assert_eq!(level_names(&store, 2), ["run-000001", "run-000000"]);
        assert!(level_names(&store, 1).is_empty());
        let stats = store.stats();
        assert_eq!((stats.trivial_moves, stats.run_merges), (1, 0));
        assert_eq!((stats.merge_bytes_in, stats.merge_bytes_out), (0, 0));
        drop(store);
        let reopened = Store::open_with(disk, None).unwrap();
        assert_eq!(reopened.scan_prefix(Space::History, "").unwrap().len(), 3);
    }

    #[test]
    fn push_down_rewrites_when_a_move_would_break_a_rule() {
        let v = Some(&b"v"[..]);
        // A tombstone must not settle in the bottom level.
        let (_, mut store) = store_over(&[&[&[(3, "ev/05", v), (3, "ev/06", None)]]], "");
        store.push_down(1).unwrap();
        let stats = store.stats();
        assert_eq!((stats.trivial_moves, stats.run_merges), (0, 1));
        let moved = store.levels.deeper[1].clone();
        assert_eq!((moved[0].entries, moved[0].tombstones), (1, 0));

        // … but rides along while something deeper could still hold the
        // key it shadows.
        let (_, mut store) = store_over(
            &[
                &[&[(3, "ev/05", v), (3, "ev/06", None)]],
                &[],
                &[&[(1, "a", v)]],
            ],
            "",
        );
        store.push_down(1).unwrap();
        assert_eq!(store.stats().trivial_moves, 1);
        assert_eq!(level_names(&store, 2), ["run-000000"]);

        // A retention watermark reaching into the run filters it.
        let (_, mut store) = store_over(
            &[&[&[(3, "ev/05", v), (3, "ev/06", v)]]],
            "retain 3 ev/ ev/06\n",
        );
        store.push_down(1).unwrap();
        assert_eq!(store.stats().run_merges, 1);
        let moved = store.levels.deeper[1].clone();
        assert_eq!(moved[0].min_key(), Some((3, "ev/06")));

        // No block of the victim reaches the target run, but its hull
        // spans it: the run is rewritten in two pieces around the
        // untouched one, which is never read.
        let (disk, mut store) =
            store_over(&[&[&[(1, "a", v), (3, "z", v)]], &[&[(2, "m", v)]]], "");
        store.push_down(1).unwrap();
        assert_eq!(store.stats().run_merges, 1);
        assert_eq!(
            level_names(&store, 2),
            ["run-000002", "run-000001", "run-000003"]
        );
        assert_eq!(
            store.level_ranges()[1],
            [
                ((1, "a".to_string()), (1, "a".to_string())),
                ((2, "m".to_string()), (2, "m".to_string())),
                ((3, "z".to_string()), (3, "z".to_string())),
            ]
        );
        assert!(disk.file_len("run-000000").is_none(), "input not GC'd");
    }

    #[test]
    fn reopen_after_spill_reads_only_the_tail() {
        let disk = MemDisk::new();
        let mut store = Store::open_with(disk.clone(), Some(tiny_tiered())).unwrap();
        // A long history, fully spilled, plus a short live WAL tail.
        for i in 0..2000u32 {
            store
                .put(
                    Space::History,
                    format!("ev/{i:08}"),
                    Bytes::from(vec![i as u8; 100]),
                )
                .unwrap();
        }
        store.compact().unwrap(); // everything into runs, empty WAL
        for i in 2000..2010u32 {
            store
                .put(
                    Space::History,
                    format!("ev/{i:08}"),
                    Bytes::from(vec![i as u8; 100]),
                )
                .unwrap();
        }
        drop(store);

        let total = disk.total_file_bytes();
        let before = disk.bytes_read();
        let reopened = Store::open_with(disk.clone(), Some(tiny_tiered())).unwrap();
        let opened_bytes = disk.bytes_read() - before;
        assert_eq!(reopened.len(Space::History).unwrap(), 2010);
        // O(tail): open reads the manifest, the run's footer/meta and the
        // short WAL — never the run's data blocks.  The data region is
        // ~230 KiB here; the open must touch only a small fraction.
        assert!(
            opened_bytes < total / 4,
            "open read {opened_bytes} of {total} bytes"
        );
        // And the reopened store answers a point get with a single block
        // read, not a full-file scan.
        let before = disk.bytes_read();
        assert!(reopened
            .get(Space::History, "ev/00000042")
            .unwrap()
            .is_some());
        let get_bytes = disk.bytes_read() - before;
        assert!(
            get_bytes < 2 * crate::runs::BLOCK_TARGET_BYTES as u64,
            "point get read {get_bytes} bytes"
        );
    }

    #[test]
    fn compact_in_tiered_mode_spills_and_merges_to_one_run() {
        let disk = MemDisk::new();
        let mut store = Store::open_with(disk.clone(), Some(tiny_tiered())).unwrap();
        for round in 0..3 {
            for i in 0..8 {
                store
                    .put(
                        Space::History,
                        format!("ev/{round}/{i}"),
                        Bytes::from(vec![i; 40]),
                    )
                    .unwrap();
            }
            store.spill().unwrap();
        }
        assert_eq!(store.stats().runs, 3);
        store.put(Space::History, "ev/tail", &b"t"[..]).unwrap();
        store.compact().unwrap();
        let stats = store.stats();
        assert_eq!(stats.runs, 1, "compact must merge the four L0 runs down");
        assert_eq!(stats.wal_bytes, 0);
        assert_eq!(store.len(Space::History).unwrap(), 25);
        // Quiescent compact is a no-op: no new run, no epoch churn.
        let epoch = store.stats().epoch;
        store.compact().unwrap();
        assert_eq!(store.stats().epoch, epoch);
        assert_eq!(store.stats().runs, 1);
    }

    /// Thresholds small enough that a few hundred records cascade past L1.
    fn tiny_leveled() -> TieredPolicy {
        TieredPolicy {
            memtable_budget_bytes: 512,
            run_merge_threshold: 2,
            level_base_bytes: 1024,
            level_growth: 2,
            level_run_bytes: 768,
            ..TieredPolicy::default()
        }
    }

    #[test]
    fn leveled_push_down_keeps_levels_disjoint_and_model_equivalent() {
        let disk = MemDisk::new();
        let mut store = Store::open_with(disk.clone(), Some(tiny_leveled())).unwrap();
        let mut model: BTreeMap<(u8, String), Vec<u8>> = BTreeMap::new();
        for i in 0..300u32 {
            let space = if i % 3 == 0 {
                Space::History
            } else {
                Space::Instance
            };
            let key = format!("k/{:03}", (i * 7) % 120);
            let value = vec![i as u8; 90];
            store
                .put(space, key.clone(), Bytes::from(value.clone()))
                .unwrap();
            model.insert((space.as_u8(), key), value);
            if i % 13 == 4 {
                let dk = format!("k/{:03}", (i * 7 + 7) % 120);
                store.delete(space, dk.clone()).unwrap();
                model.remove(&(space.as_u8(), dk));
            }
        }
        let stats = store.stats();
        assert!(stats.spills > 2, "workload never spilled");
        assert!(stats.run_merges > 0, "workload never pushed a run down");
        let ranges = store.level_ranges();
        assert!(
            ranges.iter().any(|level| !level.is_empty()),
            "no run ever reached L1+"
        );
        assert!(store.levels.deeper_levels_disjoint());

        let check = |store: &Store<MemDisk>| {
            for space in [Space::History, Space::Instance] {
                let expect: Vec<(String, Bytes)> = model
                    .range((space.as_u8(), String::new())..((space.as_u8() + 1), String::new()))
                    .map(|((_, k), v)| (k.clone(), Bytes::from(v.clone())))
                    .collect();
                assert_eq!(store.scan_prefix(space, "").unwrap(), expect, "{space:?}");
                for (k, v) in &expect {
                    assert_eq!(
                        store.get(space, k).unwrap().as_ref(),
                        Some(v),
                        "{space:?}/{k}"
                    );
                }
            }
        };
        check(&store);
        drop(store);
        let reopened = Store::open_with(disk.clone(), Some(tiny_leveled())).unwrap();
        check(&reopened);
        assert_only_live_files(&disk, "leveled reopen");
    }
}
