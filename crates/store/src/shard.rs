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
//! * recovery is a per-shard prefix visit: shard `k` rebuilds from exactly
//!   `visit_shard(Space::Instance, k, …)` and never observes another
//!   shard's in-flight writes.
//!
//! The prefix is zero-padded to four digits so shard 10 never interleaves
//! with shard 1 in sorted scans, mirroring the instance-id padding of the
//! serial engine's `inst/{id:012}/` keys.

use crate::engine::{Space, Store};
use crate::error::StoreError;
use crate::Disk;
use bytes::Bytes;

/// Append `n` in decimal, zero-padded to at least `width` digits (at most
/// twenty, which hold any `u64`) — what `{n:0width$}` prints, without a
/// formatter run.  Every number inside a
/// sorted key of this repo is spelled this way (shard prefixes here;
/// instance ids, rounds and event indexes in the engine's keys), so a key
/// is built in one pass into one buffer.
pub fn push_padded(key: &mut String, n: u64, width: usize) {
    // The buffer starts out as the padding.
    let mut digits = [b'0'; 20];
    debug_assert!(width <= digits.len());
    let mut first = digits.len();
    let mut rest = n;
    loop {
        first -= 1;
        digits[first] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let first = first.min(digits.len().saturating_sub(width));
    for digit in &digits[first..] {
        key.push(char::from(*digit));
    }
}

/// Append the prefix of every record shard `shard` owns.
pub fn push_shard_prefix(key: &mut String, shard: usize) {
    key.push('s');
    push_padded(key, shard as u64, 4);
    key.push('/');
}

/// Prefix of every record shard `shard` owns.
pub fn shard_prefix(shard: usize) -> String {
    let mut key = String::with_capacity(6);
    push_shard_prefix(&mut key, shard);
    key
}

/// A key inside shard `shard`'s journal.
pub fn shard_key(shard: usize, rest: &str) -> String {
    let mut key = String::with_capacity(6 + rest.len());
    push_shard_prefix(&mut key, shard);
    key.push_str(rest);
    key
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
    /// Recovery visit of one shard's journal: `visit` sees every `(key,
    /// value)` under the shard prefix, the prefix stripped, in key order —
    /// nothing is collected, so a reader that builds as it goes holds the
    /// journal once.  As for [`Store::visit_prefix`], an error from `visit`
    /// ends the visit and `visit` must not write to this store.
    pub fn visit_shard<E: From<StoreError>>(
        &self,
        space: Space,
        shard: usize,
        mut visit: impl FnMut(&str, &Bytes) -> Result<(), E>,
    ) -> Result<(), E> {
        let prefix = shard_prefix(shard);
        self.visit_prefix(space, &prefix, |k, v| visit(&k[prefix.len()..], v))
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

    /// The digit writer spells what `format!` spells, at every width the
    /// keys use, across every digit count, wider numbers printed in full.
    #[test]
    fn push_padded_is_the_zero_padded_format() {
        let mut samples = vec![0u64, 1, 9, u64::MAX];
        for digits in 1..20 {
            let power = 10u64.pow(digits);
            samples.extend([power - 1, power, power + 7]);
        }
        for n in samples {
            for (width, expect) in [
                (0, format!("{n}")),
                (4, format!("{n:04}")),
                (6, format!("{n:06}")),
                (8, format!("{n:08}")),
                (12, format!("{n:012}")),
                (20, format!("{n:020}")),
            ] {
                let mut key = String::from("k/");
                push_padded(&mut key, n, width);
                assert_eq!(key, format!("k/{expect}"), "{n} at width {width}");
            }
        }
        for shard in [0usize, 7, 9_999, 10_000, 123_456] {
            assert_eq!(shard_prefix(shard), format!("s{shard:04}/"));
            assert_eq!(shard_key(shard, "inst/a"), format!("s{shard:04}/inst/a"));
        }
    }

    fn collect_shard(store: &Store<MemDisk>, shard: usize) -> Vec<(String, Bytes)> {
        let mut out = Vec::new();
        store
            .visit_shard(Space::Instance, shard, |k, v| {
                out.push((k.to_string(), v.clone()));
                Ok::<(), StoreError>(())
            })
            .unwrap();
        out
    }

    #[test]
    fn visit_shard_sees_only_its_prefix() {
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
        let s0 = collect_shard(&store, 0);
        assert_eq!(s0.len(), 1);
        assert_eq!(s0[0].0, "inst/a");
        assert_eq!(s0[0].1.as_ref(), b"0");
        let s1 = collect_shard(&store, 1);
        assert_eq!(s1[0].1.as_ref(), b"1");
    }
}
