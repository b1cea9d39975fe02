//! Per-shard key-space naming and recovery scans.
//!
//! The sharded navigator hash-buckets process instances into N shards and
//! gives each shard its own *journal prefix* inside [`Space::Instance`]:
//! every record a shard writes lives under `s{shard:04}/…`, so
//!
//! * shard batches touch disjoint key ranges — N steppers can group-commit
//!   concurrently through the shared engine without their logical
//!   histories interleaving (the WAL serialises the *physical* appends,
//!   but replay order between disjoint key sets is immaterial), and
//! * recovery is a per-shard prefix scan: shard `k` rebuilds from exactly
//!   `scan_shard(Space::Instance, k)` and never observes another shard's
//!   in-flight writes.
//!
//! The prefix is zero-padded to four digits so shard 10 never interleaves
//! with shard 1 in sorted scans, mirroring the instance-id padding of the
//! serial engine's `inst/{id:012}/` keys.

use crate::engine::{Space, Store};
use crate::error::{StoreError, StoreResult};
use crate::Disk;
use bytes::Bytes;

/// Prefix of every record shard `shard` owns.
pub fn shard_prefix(shard: usize) -> String {
    format!("s{shard:04}/")
}

/// A key inside shard `shard`'s journal.
pub fn shard_key(shard: usize, rest: &str) -> String {
    format!("s{shard:04}/{rest}")
}

/// Split a shard-journal key into `(shard, rest)`; `None` when the key is
/// not shard-prefixed (e.g. a serial-engine `inst/…` record).
pub fn parse_shard_key(key: &str) -> Option<(usize, &str)> {
    let rest = key.strip_prefix('s')?;
    let (digits, tail) = rest.split_at_checked(4)?;
    let tail = tail.strip_prefix('/')?;
    let shard = digits.parse().ok()?;
    Some((shard, tail))
}

impl<D: Disk> Store<D> {
    /// Recovery scan of one shard's journal: every `(key, value)` under
    /// the shard prefix, with the prefix stripped, in key order.
    pub fn scan_shard(&self, space: Space, shard: usize) -> StoreResult<Vec<(String, Bytes)>> {
        let prefix = shard_prefix(shard);
        let mut out = Vec::new();
        self.visit_prefix(space, &prefix, |k, v| {
            out.push((k[prefix.len()..].to_string(), v.clone()));
            Ok::<(), StoreError>(())
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDisk;

    #[test]
    fn shard_keys_roundtrip_and_sort_disjoint() {
        assert_eq!(
            shard_key(3, "inst/000000000007/header"),
            "s0003/inst/000000000007/header"
        );
        assert_eq!(
            parse_shard_key("s0003/inst/000000000007/header"),
            Some((3, "inst/000000000007/header"))
        );
        assert_eq!(parse_shard_key("inst/000000000007/header"), None);
        assert_eq!(parse_shard_key("s12/x"), None);
        // Padding keeps shard 10 out of shard 1's range.
        assert!(!shard_key(10, "a").starts_with(&shard_prefix(1)));
    }

    #[test]
    fn scan_shard_sees_only_its_prefix() {
        let store = Store::open(MemDisk::new()).unwrap();
        store
            .put(Space::Instance, shard_key(0, "inst/a"), b"0".to_vec())
            .unwrap();
        store
            .put(Space::Instance, shard_key(1, "inst/a"), b"1".to_vec())
            .unwrap();
        store
            .put(Space::Instance, "inst/a", b"serial".to_vec())
            .unwrap();
        let s0 = store.scan_shard(Space::Instance, 0).unwrap();
        assert_eq!(s0.len(), 1);
        assert_eq!(s0[0].0, "inst/a");
        assert_eq!(s0[0].1.as_ref(), b"0");
        let s1 = store.scan_shard(Space::Instance, 1).unwrap();
        assert_eq!(s1[0].1.as_ref(), b"1");
    }
}
