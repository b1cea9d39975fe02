//! The MANIFEST file: the store's one commit point, and its format.
//!
//! Every state change bigger than a WAL append — spill, leveled
//! compaction, retention advance — becomes durable by one
//! `write_atomic` of this file.  Nothing outside this module knows how
//! the text is laid out; writers hand [`manifest_for`] the tier they want
//! committed, [`parse_manifest`] gives recovery the same facts back.

use crate::error::{StoreError, StoreResult};
use crate::runs::{parse_run_name, Run};
use std::fmt::Write as _;

pub(crate) const MANIFEST: &str = "MANIFEST";

pub(crate) fn wal_name(epoch: u64) -> String {
    format!("wal-{epoch:06}")
}

pub(crate) fn snapshot_name(epoch: u64) -> String {
    format!("snapshot-{epoch:06}")
}

/// Per-space retention watermark `[start, below)`.
pub(crate) type Retain = [Option<(String, String)>; 4];

/// Parsed MANIFEST contents.
pub(crate) struct ManifestState {
    pub(crate) epoch: u64,
    /// L0 runs, oldest first.
    pub(crate) run_names: Vec<String>,
    /// Deeper runs as `(level, name)`, level ≥ 1, range order within a
    /// level.
    pub(crate) level_runs: Vec<(usize, String)>,
    pub(crate) retain: Retain,
}

impl ManifestState {
    pub(crate) fn empty() -> Self {
        ManifestState {
            epoch: 0,
            run_names: Vec::new(),
            level_runs: Vec::new(),
            retain: Default::default(),
        }
    }
}

/// Escape a retention-watermark key for the line-oriented manifest:
/// percent-encode the bytes that would break tokenization.
fn escape_key(key: &str) -> String {
    let mut out = String::with_capacity(key.len());
    for c in key.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            '\t' => out.push_str("%09"),
            c => out.push(c),
        }
    }
    out
}

fn unescape_key(s: &str) -> StoreResult<String> {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(c) = rest.chars().next() {
        if c == '%' {
            let byte = rest
                .get(1..3)
                .and_then(|h| u8::from_str_radix(h, 16).ok())
                .filter(u8::is_ascii)
                .ok_or_else(|| StoreError::Corruption("manifest retain escape malformed".into()))?;
            out.push(byte as char);
            rest = &rest[3..];
        } else {
            out.push(c);
            rest = &rest[c.len_utf8()..];
        }
    }
    Ok(out)
}

/// Serialize the manifest for a tier: `l0` oldest first, `deeper[i]` is
/// level `i + 1` in range order.  With no runs and no retention the
/// output is the bare epoch digits — **byte-identical** to what every
/// pre-tiering engine version wrote, so a store that never spills
/// produces an unchanged directory.  Otherwise extra lines follow:
/// `retain <space> <start> <below>` watermarks (keys %-escaped), one
/// `run <name>` line per L0 run and one `lrun <level> <name>` line per
/// deeper run.
pub(crate) fn manifest_for<'a>(
    epoch: u64,
    l0: impl IntoIterator<Item = &'a Run>,
    deeper: &'a [Vec<Run>],
    retain: &Retain,
) -> String {
    // Writing into a `String` cannot fail.
    let mut runs = String::new();
    for run in l0 {
        let _ = writeln!(runs, "run {}", run.name());
    }
    for (i, level) in deeper.iter().enumerate() {
        for run in level {
            let _ = writeln!(runs, "lrun {} {}", i + 1, run.name());
        }
    }
    if runs.is_empty() && retain.iter().all(Option::is_none) {
        return epoch.to_string();
    }
    let mut out = format!("{epoch}\n");
    for (space, range) in retain.iter().enumerate() {
        if let Some((start, below)) = range {
            let (start, below) = (escape_key(start), escape_key(below));
            let _ = writeln!(out, "retain {space} {start} {below}");
        }
    }
    out.push_str(&runs);
    out
}

pub(crate) fn parse_manifest(bytes: Vec<u8>) -> StoreResult<ManifestState> {
    let text = String::from_utf8(bytes)
        .map_err(|_| StoreError::Corruption("manifest not utf-8".into()))?;
    let mut lines = text.lines();
    let epoch = lines
        .next()
        .unwrap_or("")
        .trim()
        .parse::<u64>()
        .map_err(|_| StoreError::Corruption("manifest not a number".into()))?;
    let mut state = ManifestState {
        epoch,
        ..ManifestState::empty()
    };
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("live ") {
            // Per-space record counts, written by engines that kept `len`
            // O(1): still checked, no longer used.
            let counts: Result<Vec<usize>, _> = rest.split_whitespace().map(str::parse).collect();
            if !counts.is_ok_and(|c| c.len() == 4) {
                return Err(StoreError::Corruption(
                    "manifest live counts malformed".into(),
                ));
            }
        } else if let Some(name) = line.strip_prefix("run ") {
            if parse_run_name(name).is_none() {
                return Err(StoreError::Corruption(format!(
                    "manifest lists malformed run name {name:?}"
                )));
            }
            state.run_names.push(name.to_string());
        } else if let Some(rest) = line.strip_prefix("lrun ") {
            let (level, name) = rest
                .split_once(' ')
                .and_then(|(l, n)| Some((l.parse::<usize>().ok()?, n)))
                .filter(|(l, n)| *l >= 1 && parse_run_name(n).is_some())
                .ok_or_else(|| {
                    StoreError::Corruption(format!("manifest has malformed lrun line {line:?}"))
                })?;
            state.level_runs.push((level, name.to_string()));
        } else if let Some(rest) = line.strip_prefix("retain ") {
            let fields: Vec<&str> = rest.split(' ').collect();
            let parsed = match fields.as_slice() {
                [space, start, below] => space
                    .parse::<usize>()
                    .ok()
                    .filter(|s| *s < 4)
                    .map(|s| (s, *start, *below)),
                _ => None,
            };
            let (space, start, below) = parsed.ok_or_else(|| {
                StoreError::Corruption(format!("manifest has malformed retain line {line:?}"))
            })?;
            state.retain[space] = Some((unescape_key(start)?, unescape_key(below)?));
        } else {
            return Err(StoreError::Corruption(format!(
                "manifest has unknown line {line:?}"
            )));
        }
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use crate::{MemDisk, Space, Store, TieredPolicy};

    #[test]
    fn manifest_retention_watermark_escaping_roundtrips() {
        // Watermark bounds with spaces, percent signs, newlines and
        // control bytes must survive the manifest's escaped encoding.
        let disk = MemDisk::new();
        let policy = Some(TieredPolicy::default());
        let mut store = Store::open_with(disk.clone(), policy).unwrap();
        let start = "a b%1\t\u{1}";
        let below = "a b%2\nz 100%";
        let retired = store.retain_below(Space::Template, start, below).unwrap();
        assert_eq!(retired, 0);
        assert_eq!(
            store.retention(Space::Template),
            Some((start.to_string(), below.to_string()))
        );
        drop(store);
        let reopened = Store::open_with(disk, policy).unwrap();
        assert_eq!(
            reopened.retention(Space::Template),
            Some((start.to_string(), below.to_string())),
            "watermark bounds did not roundtrip through the manifest"
        );
    }

    /// A manifest no longer carries per-space record counts; one written
    /// when it did opens to the same store, and a mangled count line is
    /// still refused.
    #[test]
    fn live_counts_of_older_manifests_are_checked_and_ignored() {
        use super::{parse_manifest, MANIFEST};
        use crate::Disk;
        let disk = MemDisk::new();
        let policy = Some(crate::engine::tests::tiny_tiered());
        let mut store = Store::open_with(disk.clone(), policy).unwrap();
        for i in 0..40u32 {
            store
                .put(Space::History, format!("ev/{i:03}"), vec![1; 60])
                .unwrap();
        }
        store.delete(Space::History, "ev/007").unwrap();
        assert!(store.stats().runs > 0);
        let scan = store.scan_prefix(Space::History, "").unwrap();
        drop(store);
        let text = String::from_utf8(disk.read(MANIFEST).unwrap().unwrap()).unwrap();
        assert!(!text.contains("live"), "{text}");
        let (epoch, rest) = text.split_once('\n').unwrap();
        for (live, opens) in [
            ("live 0 0 0 39", true),
            ("live 7 7 7 7", true),
            ("live 0 0 39", false),
            ("live 0 0 0 x", false),
        ] {
            let older = format!("{epoch}\n{live}\n{rest}");
            assert_eq!(
                parse_manifest(older.clone().into_bytes()).is_ok(),
                opens,
                "{live}"
            );
            disk.write_atomic(MANIFEST, older.as_bytes()).unwrap();
            match Store::open_with(disk.clone(), policy) {
                Ok(reopened) => {
                    assert!(opens, "{live}");
                    assert_eq!(reopened.scan_prefix(Space::History, "").unwrap(), scan);
                    assert_eq!(reopened.len(Space::History).unwrap(), 39);
                }
                Err(_) => assert!(!opens, "{live}"),
            }
        }
    }
}
