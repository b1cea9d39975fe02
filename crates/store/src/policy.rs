//! When the store rolls its WAL, and how big each tier may grow.
//!
//! A roll is always a spill.  [`CompactionPolicy`] rolls once the live
//! WAL is long enough, a [`TieredPolicy`] once the memtables outgrow its
//! budget; it also sizes the levels, and a store opened without one
//! (`None`: no budget) uses `TieredPolicy::default()`'s levels.  Both
//! are arguments (a `Runtime` takes one through `RuntimeConfig::tiered`);
//! nothing here reads the environment.

use crate::cache::DEFAULT_BLOCK_CACHE_BUDGET;

/// When to roll the WAL automatically.  Installed with
/// [`crate::Store::set_compaction_policy`]; the store then spills right
/// after the commit that crosses the threshold, so month-long runs bound
/// their replay cost — and, with no memtable budget, their resident
/// memtable — without the caller sprinkling `compact()` calls.
///
/// With no policy installed (the default) the store never rolls on its
/// WAL's length — mutation sequences are exactly the caller's calls (and
/// a memtable budget's spills), which is what the crash-point torture
/// harness enumerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Roll once the live WAL holds at least this many bytes.
    pub wal_bytes_threshold: u64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            wal_bytes_threshold: 8 * 1024 * 1024,
        }
    }
}

/// Bounded-memory tiering: once the memtables' estimated resident size
/// exceeds `memtable_budget_bytes`, the commit that crossed the budget
/// spills them to an L0 sorted-run file; once `run_merge_threshold` L0
/// runs exist they are merged — together with only the *overlapping*
/// L1 runs — into L1, and a deeper level that outgrows its byte budget
/// pushes one victim run down a level.  Tombstones are dropped only
/// when a merge output lands in the bottom level.
///
/// With no tiered policy installed (`None`, the default) the store has
/// no memtable budget: it spills only when its [`CompactionPolicy`]
/// fires or `compact()` is called, and its levels take this type's
/// default layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TieredPolicy {
    /// Spill once the memtables' estimated bytes exceed this.  The check
    /// runs once per [`crate::Store::apply_many`], after the whole call
    /// is applied — once per round on the sharded engine, whose round is
    /// one call — so the memtables can exceed the budget by up to one
    /// call's writes before the roll.
    pub memtable_budget_bytes: u64,
    /// Compact L0 into L1 once this many L0 runs exist.
    pub run_merge_threshold: usize,
    /// Byte budget of L1; level *i* holds `level_base_bytes *
    /// level_growth^(i-1)`.  `0` derives a default from the memtable
    /// budget (`budget * threshold * 4`) so tiny test budgets exercise
    /// deep levels.
    pub level_base_bytes: u64,
    /// Fan-out between consecutive level budgets.
    pub level_growth: u64,
    /// Target size of each run a compaction writes; merge output is
    /// split at this boundary so one oversized run never forms.  `0`
    /// derives `max(memtable_budget_bytes, 4096)`.
    pub level_run_bytes: u64,
    /// Budget of the shared decoded-block cache
    /// ([`crate::cache::BlockCache`]); `0` disables caching.
    pub block_cache_budget: u64,
}

impl Default for TieredPolicy {
    fn default() -> Self {
        TieredPolicy {
            memtable_budget_bytes: 4 * 1024 * 1024,
            run_merge_threshold: 4,
            level_base_bytes: 0,
            level_growth: 8,
            level_run_bytes: 0,
            block_cache_budget: DEFAULT_BLOCK_CACHE_BUDGET,
        }
    }
}

impl TieredPolicy {
    /// Byte budget of level `level` (1-based; L0 is run-count-gated).
    pub(crate) fn level_cap(&self, level: usize) -> u64 {
        let base = if self.level_base_bytes > 0 {
            self.level_base_bytes
        } else {
            self.memtable_budget_bytes
                .saturating_mul(self.run_merge_threshold as u64)
                .saturating_mul(4)
                .max(4096)
        };
        let growth = self.level_growth.max(2);
        base.saturating_mul(growth.saturating_pow(level.saturating_sub(1) as u32))
    }

    /// Target output-run size for leveled compactions.
    pub(crate) fn run_target(&self) -> u64 {
        if self.level_run_bytes > 0 {
            self.level_run_bytes
        } else {
            self.memtable_budget_bytes.max(4096)
        }
    }
}
