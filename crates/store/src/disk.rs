//! Disk abstraction for the store.
//!
//! Two backends are provided:
//!
//! * [`FileDisk`] — a directory on the real filesystem: every write is
//!   `fsync`ed, and so is the directory after a rename, an append that
//!   created its file, and a delete.
//! * [`MemDisk`] — an in-memory filesystem with **fault injection**: a
//!   [`FaultPlan`] makes the disk "crash" either after a configured number of
//!   appended bytes or at an exact disk-mutation index, with a configurable
//!   [`CrashEffect`] (drop the interrupted write, persist an arbitrary byte
//!   prefix of it, or complete it and crash immediately after).  Persisted
//!   bytes can additionally be bit-flipped in place to model media
//!   corruption.  This is how the test suite, the recovery experiments and
//!   the crash-point torture harness create genuine crash states instead of
//!   pretending.

use crate::error::{StoreError, StoreResult};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Abstract flat-namespace disk: named files supporting atomic whole-file
/// writes (runs, manifests) and append-only writes (the WAL).
pub trait Disk: Send + Sync {
    /// Read the full contents of `name`, or `None` if it does not exist.
    fn read(&self, name: &str) -> StoreResult<Option<Vec<u8>>>;
    /// Atomically replace the contents of `name` (write-temp + rename).
    fn write_atomic(&self, name: &str, data: &[u8]) -> StoreResult<()>;
    /// Append `data` to `name`, creating it if missing, and make it durable.
    fn append(&self, name: &str, data: &[u8]) -> StoreResult<()>;
    /// List file names, sorted.
    fn list(&self) -> StoreResult<Vec<String>>;
    /// Delete `name` if it exists.
    fn delete(&self, name: &str) -> StoreResult<()>;
    /// Read `len` bytes of `name` starting at `offset` (clamped to the
    /// file's end), or `None` if the file does not exist.  Backends
    /// should override the whole-file default with a real ranged read —
    /// this is what keeps sorted-run block lookups O(block), not
    /// O(file).
    fn read_range(&self, name: &str, offset: u64, len: usize) -> StoreResult<Option<Vec<u8>>> {
        Ok(self.read(name)?.map(|data| {
            let start = (offset as usize).min(data.len());
            let end = start.saturating_add(len).min(data.len());
            data[start..end].to_vec()
        }))
    }
    /// Size of `name` in bytes, or `None` if it does not exist.
    fn file_size(&self, name: &str) -> StoreResult<Option<u64>> {
        Ok(self.read(name)?.map(|d| d.len() as u64))
    }
}

// ---------------------------------------------------------------------------
// FileDisk
// ---------------------------------------------------------------------------

/// Filesystem-backed disk rooted at a directory.
pub struct FileDisk {
    root: PathBuf,
}

impl FileDisk {
    /// Open (creating if necessary) a disk rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> StoreResult<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(FileDisk { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Make the directory's entries durable: a file's creation, rename or
    /// removal is a write to its directory, which the file's own `fsync`
    /// does not cover.
    fn sync_dir(&self) -> StoreResult<()> {
        std::fs::File::open(&self.root)?.sync_all()?;
        Ok(())
    }
}

impl Disk for FileDisk {
    fn read(&self, name: &str) -> StoreResult<Option<Vec<u8>>> {
        match std::fs::read(self.path(name)) {
            Ok(data) => Ok(Some(data)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        let tmp = self.path(&format!("{name}.tmp"));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(data)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.path(name))?;
        self.sync_dir()
    }

    fn append(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        let path = self.path(name);
        let (mut f, created) = match std::fs::OpenOptions::new().append(true).open(&path) {
            Ok(f) => (f, false),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let f = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)?;
                (f, true)
            }
            Err(e) => return Err(e.into()),
        };
        f.write_all(data)?;
        f.sync_data()?;
        if created {
            self.sync_dir()?;
        }
        Ok(())
    }

    fn list(&self) -> StoreResult<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    fn delete(&self, name: &str) -> StoreResult<()> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => self.sync_dir(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn read_range(&self, name: &str, offset: u64, len: usize) -> StoreResult<Option<Vec<u8>>> {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = match std::fs::File::open(self.path(name)) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let size = f.metadata()?.len();
        let start = offset.min(size);
        let take = (len as u64).min(size - start);
        f.seek(SeekFrom::Start(start))?;
        let mut buf = vec![0u8; take as usize];
        f.read_exact(&mut buf)?;
        Ok(Some(buf))
    }

    fn file_size(&self, name: &str) -> StoreResult<Option<u64>> {
        match std::fs::metadata(self.path(name)) {
            Ok(m) => Ok(Some(m.len())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

// ---------------------------------------------------------------------------
// MemDisk with fault injection
// ---------------------------------------------------------------------------

/// When an injected fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Fire once this many further bytes have been appended.  Only
    /// `append` consumes the budget; `write_atomic`/`delete` never trigger
    /// (the legacy "crash after N appended bytes" model).
    AfterBytes(u64),
    /// Fire on the N-th disk **mutation** — `append`, `write_atomic` or
    /// `delete` — counted from fault-plan installation, 0-based.  This is
    /// what lets a harness enumerate *every* crash point of a workload.
    AtMutation(u64),
}

/// What the crash leaves behind of the mutation it interrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashEffect {
    /// The interrupted mutation is lost entirely.
    Drop,
    /// A torn write: an `append` persists only a byte prefix of the
    /// attempted data; a `write_atomic` leaves a torn `<name>.tmp` beside
    /// the intact old contents (mirroring [`FileDisk`]'s
    /// write-temp-then-rename); a `delete` is simply lost.  `keep` bounds
    /// the persisted prefix (clamped to the attempted length, and — under
    /// [`FaultTrigger::AfterBytes`] — to the remaining byte budget).
    Torn {
        /// Upper bound on the persisted prefix length.
        keep: u64,
    },
    /// The mutation completes in full, *then* the crash fires: models
    /// power loss immediately after a durable write was acknowledged.
    AfterApply,
}

/// Plan describing when the in-memory disk should simulate a crash and
/// what state the interrupted mutation leaves behind.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// When the fault fires.
    pub trigger: FaultTrigger,
    /// What survives of the interrupted mutation.
    pub effect: CrashEffect,
}

impl FaultPlan {
    /// The legacy byte-budget plan: crash once `crash_after_bytes` further
    /// bytes have been appended; with `tear_final_write` the interrupted
    /// append keeps the remaining budget as a torn prefix.
    pub fn after_bytes(crash_after_bytes: u64, tear_final_write: bool) -> Self {
        FaultPlan {
            trigger: FaultTrigger::AfterBytes(crash_after_bytes),
            effect: if tear_final_write {
                CrashEffect::Torn { keep: u64::MAX }
            } else {
                CrashEffect::Drop
            },
        }
    }

    /// Crash on the `index`-th disk mutation with the given effect.
    pub fn at_mutation(index: u64, effect: CrashEffect) -> Self {
        FaultPlan {
            trigger: FaultTrigger::AtMutation(index),
            effect,
        }
    }
}

#[derive(Default)]
struct MemDiskState {
    files: BTreeMap<String, Vec<u8>>,
    appended: u64,
    mutations: u64,
    read_ops: u64,
    read_bytes: u64,
    plan: Option<FaultPlan>,
}

/// In-memory disk.  Cloning shares the underlying storage, which lets a test
/// "re-open" the disk after a crash exactly as recovery would re-open a real
/// device.
#[derive(Clone, Default)]
pub struct MemDisk {
    state: Arc<Mutex<MemDiskState>>,
    crashed: Arc<AtomicBool>,
}

impl MemDisk {
    /// A fresh, empty, fault-free disk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install (or replace) the fault plan. Byte and mutation accounting
    /// restart at zero.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        let mut st = self.state();
        st.appended = 0;
        st.mutations = 0;
        st.plan = plan;
        self.crashed.store(false, Ordering::SeqCst);
    }

    /// Has the simulated crash fired?
    pub fn has_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Clear the crashed flag, as if the machine rebooted. The (possibly
    /// torn) file contents survive, mirroring non-volatile storage.
    pub fn reboot(&self) {
        self.crashed.store(false, Ordering::SeqCst);
        self.state().plan = None;
    }

    /// Total bytes appended since the last fault-plan installation.
    pub fn bytes_appended(&self) -> u64 {
        self.state().appended
    }

    /// Disk mutations (`append` + `write_atomic` + `delete`) attempted
    /// since the last fault-plan installation, including the mutation a
    /// crash interrupted.  A crash-free probe run of a workload therefore
    /// yields the exact number of enumerable crash points.
    pub fn mutation_count(&self) -> u64 {
        self.state().mutations
    }

    /// XOR `mask` into byte `offset` of the persisted image of `name`,
    /// modelling media corruption of at-rest bytes.  Returns `false` when
    /// the file does not exist or `offset` is out of range.  Works even
    /// while the disk is "crashed" — corruption does not need a live disk.
    pub fn corrupt_byte(&self, name: &str, offset: usize, mask: u8) -> bool {
        let mut st = self.state();
        match st.files.get_mut(name) {
            Some(data) if offset < data.len() && mask != 0 => {
                data[offset] ^= mask;
                true
            }
            _ => false,
        }
    }

    /// Length of the persisted image of `name`, bypassing crash state
    /// (harness introspection; `None` when the file does not exist).
    pub fn file_len(&self, name: &str) -> Option<usize> {
        self.state().files.get(name).map(Vec::len)
    }

    /// Bytes handed out by `read`/`read_range` since creation.  Together
    /// with [`MemDisk::read_op_count`] this lets a test prove an open
    /// path is O(tail): the reopen's read-byte delta must stay far below
    /// the total on-disk footprint.
    pub fn bytes_read(&self) -> u64 {
        self.state().read_bytes
    }

    /// Read operations (`read` + `read_range` + `file_size`) since
    /// creation.
    pub fn read_op_count(&self) -> u64 {
        self.state().read_ops
    }

    /// Total bytes currently persisted across all files.
    pub fn total_file_bytes(&self) -> u64 {
        self.state().files.values().map(|f| f.len() as u64).sum()
    }

    /// The disk's lock; a panic under it propagates to every later user.
    fn state(&self) -> MutexGuard<'_, MemDiskState> {
        self.state.lock().expect("a panic under the MemDisk lock")
    }

    fn check_alive(&self) -> StoreResult<()> {
        if self.has_crashed() {
            Err(StoreError::SimulatedCrash)
        } else {
            Ok(())
        }
    }

    fn crash(&self) -> StoreError {
        self.crashed.store(true, Ordering::SeqCst);
        StoreError::SimulatedCrash
    }
}

/// Whether the installed plan fires for this mutation, and with which
/// effect.  Assumes `st.mutations` has already been incremented for the
/// current mutation (so the 0-based index of the current mutation is
/// `st.mutations - 1`).
fn fault_fires(st: &MemDiskState, append_len: Option<u64>) -> Option<CrashEffect> {
    let plan = st.plan.as_ref()?;
    match plan.trigger {
        FaultTrigger::AfterBytes(budget) => {
            let len = append_len?; // only appends consume the byte budget
            (len > budget.saturating_sub(st.appended)).then_some(plan.effect)
        }
        FaultTrigger::AtMutation(idx) => (st.mutations - 1 == idx).then_some(plan.effect),
    }
}

impl Disk for MemDisk {
    fn read(&self, name: &str) -> StoreResult<Option<Vec<u8>>> {
        self.check_alive()?;
        let mut st = self.state();
        let data = st.files.get(name).cloned();
        st.read_ops += 1;
        st.read_bytes += data.as_ref().map_or(0, |d| d.len() as u64);
        Ok(data)
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        self.check_alive()?;
        let mut st = self.state();
        st.mutations += 1;
        if let Some(effect) = fault_fires(&st, None) {
            match effect {
                // Atomic replace never tears the target: the old version
                // survives a crash before the rename commits.
                CrashEffect::Drop => {}
                // ... but the temp file the backend was writing can be
                // left behind, torn, exactly as FileDisk would.
                CrashEffect::Torn { keep } => {
                    let kept = (keep as usize).min(data.len());
                    st.files
                        .insert(format!("{name}.tmp"), data[..kept].to_vec());
                }
                CrashEffect::AfterApply => {
                    st.files.insert(name.to_string(), data.to_vec());
                }
            }
            drop(st);
            return Err(self.crash());
        }
        st.files.insert(name.to_string(), data.to_vec());
        Ok(())
    }

    fn append(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        self.check_alive()?;
        let mut st = self.state();
        st.mutations += 1;
        if let Some(effect) = fault_fires(&st, Some(data.len() as u64)) {
            let kept = match effect {
                CrashEffect::Drop => 0,
                CrashEffect::Torn { keep } => {
                    let mut kept = (keep as usize).min(data.len());
                    if let Some(FaultTrigger::AfterBytes(budget)) =
                        st.plan.as_ref().map(|p| p.trigger)
                    {
                        kept = kept.min(budget.saturating_sub(st.appended) as usize);
                    }
                    kept
                }
                CrashEffect::AfterApply => data.len(),
            };
            let file = st.files.entry(name.to_string()).or_default();
            file.extend_from_slice(&data[..kept]);
            st.appended += kept as u64;
            drop(st);
            return Err(self.crash());
        }
        st.appended += data.len() as u64;
        st.files
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn list(&self) -> StoreResult<Vec<String>> {
        self.check_alive()?;
        Ok(self.state().files.keys().cloned().collect())
    }

    fn delete(&self, name: &str) -> StoreResult<()> {
        self.check_alive()?;
        let mut st = self.state();
        st.mutations += 1;
        if let Some(effect) = fault_fires(&st, None) {
            if effect == CrashEffect::AfterApply {
                st.files.remove(name);
            }
            drop(st);
            return Err(self.crash());
        }
        st.files.remove(name);
        Ok(())
    }

    fn read_range(&self, name: &str, offset: u64, len: usize) -> StoreResult<Option<Vec<u8>>> {
        self.check_alive()?;
        let mut st = self.state();
        st.read_ops += 1;
        let out = {
            let Some(data) = st.files.get(name) else {
                return Ok(None);
            };
            let start = (offset as usize).min(data.len());
            let end = start.saturating_add(len).min(data.len());
            data[start..end].to_vec()
        };
        st.read_bytes += out.len() as u64;
        Ok(Some(out))
    }

    fn file_size(&self, name: &str) -> StoreResult<Option<u64>> {
        self.check_alive()?;
        let mut st = self.state();
        st.read_ops += 1;
        Ok(st.files.get(name).map(|d| d.len() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("bioopera-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = FileDisk::open(&dir).unwrap();
        assert_eq!(disk.read("a").unwrap(), None);
        disk.write_atomic("a", b"hello").unwrap();
        assert_eq!(disk.read("a").unwrap().unwrap(), b"hello");
        disk.append("a", b" world").unwrap();
        assert_eq!(disk.read("a").unwrap().unwrap(), b"hello world");
        // An append that creates its file.
        disk.append("b", b"new").unwrap();
        assert_eq!(disk.read("b").unwrap().unwrap(), b"new");
        assert_eq!(disk.list().unwrap(), vec!["a".to_string(), "b".to_string()]);
        disk.delete("a").unwrap();
        disk.delete("a").unwrap();
        assert_eq!(disk.read("a").unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_disk_shares_state_across_clones() {
        let disk = MemDisk::new();
        disk.append("wal", b"abc").unwrap();
        let reopened = disk.clone();
        assert_eq!(reopened.read("wal").unwrap().unwrap(), b"abc");
    }

    #[test]
    fn fault_plan_tears_final_write() {
        let disk = MemDisk::new();
        disk.set_fault_plan(Some(FaultPlan::after_bytes(5, true)));
        disk.append("wal", b"abc").unwrap();
        let err = disk.append("wal", b"defgh").unwrap_err();
        assert!(matches!(err, StoreError::SimulatedCrash));
        assert!(disk.has_crashed());
        // Everything fails until reboot.
        assert!(disk.read("wal").is_err());
        disk.reboot();
        // 5-byte budget: "abc" (3) + 2 bytes of the torn write survive.
        assert_eq!(disk.read("wal").unwrap().unwrap(), b"abcde");
    }

    #[test]
    fn fault_plan_drop_final_write() {
        let disk = MemDisk::new();
        disk.set_fault_plan(Some(FaultPlan::after_bytes(4, false)));
        disk.append("wal", b"abcd").unwrap();
        assert!(disk.append("wal", b"e").is_err());
        disk.reboot();
        assert_eq!(disk.read("wal").unwrap().unwrap(), b"abcd");
    }

    #[test]
    fn mutation_trigger_counts_every_mutation_kind() {
        let disk = MemDisk::new();
        disk.append("wal", b"a").unwrap();
        disk.write_atomic("snap", b"s").unwrap();
        disk.delete("snap").unwrap();
        assert_eq!(disk.mutation_count(), 3);
        // Reads do not count.
        disk.read("wal").unwrap();
        disk.list().unwrap();
        assert_eq!(disk.mutation_count(), 3);

        // Crash exactly on mutation index 1 (the write_atomic).
        disk.set_fault_plan(Some(FaultPlan::at_mutation(1, CrashEffect::Drop)));
        assert_eq!(disk.mutation_count(), 0);
        disk.append("wal", b"b").unwrap();
        assert!(disk.write_atomic("snap", b"new").is_err());
        assert!(disk.has_crashed());
        disk.reboot();
        // The atomic write was dropped whole: no "snap", no tmp.
        assert_eq!(disk.read("snap").unwrap(), None);
        assert_eq!(disk.read("snap.tmp").unwrap(), None);
        assert_eq!(disk.read("wal").unwrap().unwrap(), b"ab");
    }

    #[test]
    fn torn_write_atomic_leaves_partial_tmp_file() {
        let disk = MemDisk::new();
        disk.write_atomic("snap", b"old").unwrap();
        disk.set_fault_plan(Some(FaultPlan::at_mutation(
            0,
            CrashEffect::Torn { keep: 4 },
        )));
        assert!(disk.write_atomic("snap", b"new-contents").is_err());
        disk.reboot();
        // Old contents intact, torn temp file left behind.
        assert_eq!(disk.read("snap").unwrap().unwrap(), b"old");
        assert_eq!(disk.read("snap.tmp").unwrap().unwrap(), b"new-");
    }

    #[test]
    fn after_apply_persists_then_crashes() {
        let disk = MemDisk::new();
        disk.set_fault_plan(Some(FaultPlan::at_mutation(0, CrashEffect::AfterApply)));
        assert!(disk.append("wal", b"abc").is_err());
        disk.reboot();
        // The write the caller saw fail is nonetheless fully durable.
        assert_eq!(disk.read("wal").unwrap().unwrap(), b"abc");
    }

    #[test]
    fn after_apply_delete_takes_effect() {
        let disk = MemDisk::new();
        disk.write_atomic("f", b"x").unwrap();
        disk.set_fault_plan(Some(FaultPlan::at_mutation(0, CrashEffect::AfterApply)));
        assert!(disk.delete("f").is_err());
        disk.reboot();
        assert_eq!(disk.read("f").unwrap(), None);
    }

    #[test]
    fn torn_append_keeps_bounded_prefix() {
        let disk = MemDisk::new();
        disk.set_fault_plan(Some(FaultPlan::at_mutation(
            0,
            CrashEffect::Torn { keep: 2 },
        )));
        assert!(disk.append("wal", b"abcdef").is_err());
        disk.reboot();
        assert_eq!(disk.read("wal").unwrap().unwrap(), b"ab");
    }

    #[test]
    fn corrupt_byte_flips_persisted_bits() {
        let disk = MemDisk::new();
        disk.append("wal", b"abc").unwrap();
        assert!(disk.corrupt_byte("wal", 1, 0x01));
        assert_eq!(disk.read("wal").unwrap().unwrap(), b"acc"); // 'b' ^ 0x01 == 'c'
        assert!(!disk.corrupt_byte("wal", 99, 0x01));
        assert!(!disk.corrupt_byte("missing", 0, 0x01));
        assert_eq!(disk.file_len("wal"), Some(3));
        assert_eq!(disk.file_len("missing"), None);
    }
}
