//! The in-memory half of the store: one ordered map per space, and the
//! one function that applies a durable batch to them.

use crate::cache::BlockCache;
use crate::disk::Disk;
use crate::error::StoreResult;
use crate::levels::{levels_lookup, Levels, TierMetrics};
use crate::wal::WalOp;
use bytes::Bytes;
use std::collections::BTreeMap;

/// The four per-space memtables.  Keys are plain `String`s so lookups
/// can borrow the caller's `&str` (no per-`get` allocation).  A `None`
/// value is a **tombstone**: the key exists in an older run but has
/// been deleted; tombstones only appear while runs exist.  `live`
/// tracks the per-space count of the merged (memtable ∪ runs) view so
/// `len` stays O(1) even with tombstones in play.
#[derive(Default)]
pub(crate) struct MemTables {
    pub(crate) spaces: [BTreeMap<String, Option<Bytes>>; 4],
    pub(crate) live: [usize; 4],
    /// Estimated resident bytes — what the spill budget is checked
    /// against.
    pub(crate) approx_bytes: u64,
}

/// Estimated resident cost of one memtable entry (`value_len` 0 for a
/// tombstone).  The constant overhead stands in for the `BTreeMap` node
/// and `Bytes` handle.
const ENTRY_OVERHEAD: u64 = 48;

pub(crate) fn entry_cost(key_len: usize, value_len: usize) -> u64 {
    key_len as u64 + value_len as u64 + ENTRY_OVERHEAD
}

/// Apply a durable batch to the memtables, maintaining the live counts
/// against the run tier.  Writes inside a retention watermark are
/// dropped outright — the watermark only ever covers windows whose
/// durable rollup already subsumes them, and dropping here is what
/// keeps WAL replay consistent with the advanced manifest.  Fallible
/// only because resolving whether an absent key is live in a run may
/// read run blocks (bloom-gated; always infallible and free when the
/// tier is empty).
pub(crate) fn apply_ops<D: Disk>(
    mem: &mut MemTables,
    levels: &Levels,
    disk: &D,
    metrics: &TierMetrics,
    cache: &BlockCache,
    ops: Vec<WalOp>,
) -> StoreResult<()> {
    for op in ops {
        let (space, key, value) = op.into_entry();
        // Unknown space tags can only come from a corrupted frame that
        // still passed its CRC; drop them rather than panic — they were
        // never addressable anyway.
        let si = space as usize;
        if si >= 4 || levels.retained(space, &key) {
            continue;
        }
        // What the memtable holds for the key: `Some(Some(len))` a live
        // value, `Some(None)` a tombstone, `None` nothing — then only the
        // runs can say whether the key is visible.
        let held = mem.spaces[si].get(&key).map(|v| v.as_ref().map(Bytes::len));
        if value.is_none() && held == Some(None) {
            continue; // already deleted
        }
        let was_live = match held {
            Some(entry) => entry.is_some(),
            None => {
                !levels.no_runs()
                    && levels_lookup(levels, disk, metrics, cache, space, &key)?
                        .is_some_and(|v| v.is_some())
            }
        };
        if let Some(entry) = held {
            mem.approx_bytes -= entry_cost(key.len(), entry.unwrap_or(0));
        }
        match value {
            Some(value) => {
                if !was_live {
                    mem.live[si] += 1;
                }
                mem.approx_bytes += entry_cost(key.len(), value.len());
                mem.spaces[si].insert(key, Some(value));
            }
            None => {
                if was_live {
                    mem.live[si] -= 1;
                }
                // A tombstone is only worth keeping if some run might
                // still surface the key (bloom check, no I/O); otherwise
                // plain removal suffices.
                let shadows_a_run = match held {
                    Some(_) => levels.may_contain_any(space, &key),
                    None => was_live,
                };
                if shadows_a_run {
                    mem.approx_bytes += entry_cost(key.len(), 0);
                    mem.spaces[si].insert(key, None);
                } else {
                    mem.spaces[si].remove(&key);
                }
            }
        }
    }
    Ok(())
}
