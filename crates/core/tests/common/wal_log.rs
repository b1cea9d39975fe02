//! A disk that shows what a store appended and read back.

use bioopera_store::wal::{self, WalOp};
use bioopera_store::{Disk, MemDisk, Space, StoreResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A `MemDisk` that keeps every batch appended to a WAL, in order — the
/// log itself cannot be read back afterwards, because a tiered store
/// retires WAL epochs — and counts the bytes of every History-space run
/// block read back.
#[derive(Clone, Default)]
pub struct WalLog {
    inner: MemDisk,
    batches: Arc<Mutex<Vec<Vec<WalOp>>>>,
    history_block_bytes: Arc<AtomicU64>,
}

impl WalLog {
    /// A log over `inner`, which a test may arm with a fault plan.
    pub fn on(inner: MemDisk) -> Self {
        WalLog {
            inner,
            ..WalLog::default()
        }
    }

    /// The batches appended since the last call.
    pub fn take(&self) -> Vec<Vec<WalOp>> {
        std::mem::take(&mut *self.batches.lock().unwrap())
    }

    /// The bytes of History-space run blocks read since the last call.
    pub fn take_history_block_bytes(&self) -> u64 {
        self.history_block_bytes.swap(0, Ordering::Relaxed)
    }
}

impl Disk for WalLog {
    fn read(&self, name: &str) -> StoreResult<Option<Vec<u8>>> {
        self.inner.read(name)
    }
    fn write_atomic(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        self.inner.write_atomic(name, data)
    }
    fn append(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        if name.starts_with("wal-") {
            // One append is one or more whole frames (a group commit).
            let frames = wal::replay(data)?;
            assert!(!frames.torn_tail, "an append is whole frames");
            self.batches.lock().unwrap().extend(frames.batches);
        }
        self.inner.append(name, data)
    }
    fn list(&self) -> StoreResult<Vec<String>> {
        self.inner.list()
    }
    fn delete(&self, name: &str) -> StoreResult<()> {
        self.inner.delete(name)
    }
    fn read_range(&self, name: &str, offset: u64, len: usize) -> StoreResult<Option<Vec<u8>>> {
        let data = self.inner.read_range(name, offset, len)?;
        // A data block of a run is one whole frame of one space's records;
        // anything else read by range (a run's index and filter) is not.
        if let Some(Ok(frame)) = data.as_deref().map(wal::replay) {
            let is_history = |op: &WalOp| match op {
                WalOp::Put { space, .. } | WalOp::Delete { space, .. } => {
                    Space::from_u8(*space).ok() == Some(Space::History)
                }
            };
            if !frame.torn_tail && frame.batches.iter().flatten().any(is_history) {
                self.history_block_bytes
                    .fetch_add(len as u64, Ordering::Relaxed);
            }
        }
        Ok(data)
    }
    fn file_size(&self, name: &str) -> StoreResult<Option<u64>> {
        self.inner.file_size(name)
    }
}
