//! The `Disk` the workloads run on: a `MemDisk` behind a wrapper that
//! counts every call and byte, and times each call as a child span when
//! tracing is on.  The wrapper adds nothing else — a test holds it to the
//! same bytes, mutations and file contents as a bare `MemDisk`.

use crate::tracer::{self, Kind};
use bioopera_store::{Disk, MemDisk, StoreResult};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Default)]
struct Counters {
    append_calls: AtomicU64,
    append_bytes: AtomicU64,
    write_atomic_calls: AtomicU64,
    write_atomic_bytes: AtomicU64,
    read_calls: AtomicU64,
    read_bytes: AtomicU64,
    delete_calls: AtomicU64,
}

/// A snapshot of the counters plus the bytes the disk holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskCounts {
    pub append_calls: u64,
    pub append_bytes: u64,
    pub write_atomic_calls: u64,
    pub write_atomic_bytes: u64,
    pub read_calls: u64,
    pub read_bytes: u64,
    pub delete_calls: u64,
    pub stored_bytes: u64,
}

/// Cloning shares the storage and the counters, as cloning a `MemDisk`
/// shares the storage: the runtime reopens its store on a clone.
#[derive(Clone, Default)]
pub struct CountingDisk {
    inner: MemDisk,
    counters: Arc<Counters>,
}

fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

impl CountingDisk {
    pub fn new() -> Self {
        Self::default()
    }

    /// The disk underneath, for replaying the final image uncounted.
    pub fn inner(&self) -> &MemDisk {
        &self.inner
    }

    pub fn counts(&self) -> DiskCounts {
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        DiskCounts {
            append_calls: get(&c.append_calls),
            append_bytes: get(&c.append_bytes),
            write_atomic_calls: get(&c.write_atomic_calls),
            write_atomic_bytes: get(&c.write_atomic_bytes),
            read_calls: get(&c.read_calls),
            read_bytes: get(&c.read_bytes),
            delete_calls: get(&c.delete_calls),
            stored_bytes: self.inner.total_file_bytes(),
        }
    }

    fn count_read(&self, got: &StoreResult<Option<Vec<u8>>>) {
        add(&self.counters.read_calls, 1);
        if let Ok(Some(data)) = got {
            add(&self.counters.read_bytes, data.len() as u64);
        }
    }
}

impl Disk for CountingDisk {
    fn read(&self, name: &str) -> StoreResult<Option<Vec<u8>>> {
        let got = tracer::child(Kind::DiskRead, || self.inner.read(name));
        self.count_read(&got);
        got
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        add(&self.counters.write_atomic_calls, 1);
        add(&self.counters.write_atomic_bytes, data.len() as u64);
        tracer::child(Kind::DiskWriteAtomic, || {
            self.inner.write_atomic(name, data)
        })
    }

    fn append(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        add(&self.counters.append_calls, 1);
        add(&self.counters.append_bytes, data.len() as u64);
        tracer::child(Kind::DiskAppend, || self.inner.append(name, data))
    }

    fn list(&self) -> StoreResult<Vec<String>> {
        self.inner.list()
    }

    fn delete(&self, name: &str) -> StoreResult<()> {
        add(&self.counters.delete_calls, 1);
        tracer::child(Kind::DiskDelete, || self.inner.delete(name))
    }

    fn read_range(&self, name: &str, offset: u64, len: usize) -> StoreResult<Option<Vec<u8>>> {
        let got = tracer::child(Kind::DiskRead, || self.inner.read_range(name, offset, len));
        self.count_read(&got);
        got
    }

    fn file_size(&self, name: &str) -> StoreResult<Option<u64>> {
        self.inner.file_size(name)
    }
}

/// A deep copy of `disk`'s files on a fresh `MemDisk`, so the layer
/// replays can reopen the final image without touching the original.
pub fn copy_image(disk: &MemDisk) -> StoreResult<MemDisk> {
    let copy = MemDisk::new();
    for name in disk.list()? {
        if let Some(data) = disk.read(&name)? {
            copy.write_atomic(&name, &data)?;
        }
    }
    Ok(copy)
}
