//! Typed views over a record space.
//!
//! The engine stores raw bytes; higher layers (navigator, awareness model,
//! planner) deal in serde-serializable records.  [`TypedSpace`] pairs a
//! [`Space`] with a record type and handles the JSON codec, so call sites
//! read like a typed table.

use crate::engine::{Batch, Space, Store};
use crate::error::StoreResult;
use crate::Disk;
use bytes::Bytes;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::marker::PhantomData;

impl Batch {
    /// Queue an insert/replace of `record` as the JSON it is stored as.
    /// The record streams into `scratch` — the caller's, reused from
    /// record to record, and left holding the encoding — and is copied
    /// once, into a value of exactly its size: per record the allocator is
    /// asked for the key and the value, nothing else.
    pub fn put_record<T: Serialize + ?Sized>(
        &mut self,
        space: Space,
        key: impl Into<String>,
        record: &T,
        scratch: &mut String,
    ) -> &mut Self {
        scratch.clear();
        record.write_json(scratch);
        self.put(space, key, Bytes::copy_from_slice(scratch.as_bytes()))
    }
}

/// A typed facade over one space of a [`Store`].
pub struct TypedSpace<T> {
    space: Space,
    prefix: String,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Serialize + DeserializeOwned> TypedSpace<T> {
    /// Create a typed view with a key prefix (e.g. `"task/"`) inside `space`.
    pub fn new(space: Space, prefix: impl Into<String>) -> Self {
        TypedSpace {
            space,
            prefix: prefix.into(),
            _marker: PhantomData,
        }
    }

    fn full_key(&self, key: &str) -> String {
        format!("{}{}", self.prefix, key)
    }

    /// Serialize and store `value` under `key`.
    pub fn put<D: Disk>(&self, store: &Store<D>, key: &str, value: &T) -> StoreResult<()> {
        store.put(self.space, self.full_key(key), serde_json::to_vec(value)?)
    }

    /// Queue a put into an existing batch (for multi-record atomicity).
    pub fn put_in<'b>(
        &self,
        batch: &'b mut Batch,
        key: &str,
        value: &T,
    ) -> StoreResult<&'b mut Batch> {
        Ok(batch.put(self.space, self.full_key(key), serde_json::to_vec(value)?))
    }

    /// Fetch and deserialize `key`.
    pub fn get<D: Disk>(&self, store: &Store<D>, key: &str) -> StoreResult<Option<T>> {
        match store.get(self.space, &self.full_key(key))? {
            Some(bytes) => Ok(Some(serde_json::from_slice(&bytes)?)),
            None => Ok(None),
        }
    }

    /// Delete `key`.
    pub fn delete<D: Disk>(&self, store: &Store<D>, key: &str) -> StoreResult<()> {
        store.delete(self.space, self.full_key(key))
    }

    /// Queue a delete into an existing batch.
    pub fn delete_in<'b>(&self, batch: &'b mut Batch, key: &str) -> &'b mut Batch {
        batch.delete(self.space, self.full_key(key))
    }

    /// All records under this view's prefix, `(suffix-key, value)` pairs in
    /// key order.
    pub fn scan<D: Disk>(&self, store: &Store<D>) -> StoreResult<Vec<(String, T)>> {
        let mut out = Vec::new();
        for (k, v) in store.scan_prefix(self.space, &self.prefix)? {
            let suffix = k[self.prefix.len()..].to_string();
            out.push((suffix, serde_json::from_slice(&v)?));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct NodeRecord {
        host: String,
        cpus: u32,
        mhz: u32,
    }

    #[test]
    fn typed_roundtrip_and_scan() {
        let store = Store::open(MemDisk::new()).unwrap();
        let nodes: TypedSpace<NodeRecord> = TypedSpace::new(Space::Configuration, "node/");
        let a = NodeRecord {
            host: "linneus1".into(),
            cpus: 2,
            mhz: 500,
        };
        let b = NodeRecord {
            host: "ik-sun3".into(),
            cpus: 1,
            mhz: 360,
        };
        nodes.put(&store, "linneus1", &a).unwrap();
        nodes.put(&store, "ik-sun3", &b).unwrap();
        assert_eq!(nodes.get(&store, "linneus1").unwrap().unwrap(), a);
        let all = nodes.scan(&store).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, "ik-sun3");
        nodes.delete(&store, "ik-sun3").unwrap();
        assert_eq!(nodes.get(&store, "ik-sun3").unwrap(), None);
    }

    #[test]
    fn typed_batched_atomicity() {
        let store = Store::open(MemDisk::new()).unwrap();
        let nodes: TypedSpace<NodeRecord> = TypedSpace::new(Space::Configuration, "node/");
        let mut batch = Batch::new();
        nodes
            .put_in(
                &mut batch,
                "n1",
                &NodeRecord {
                    host: "n1".into(),
                    cpus: 1,
                    mhz: 300,
                },
            )
            .unwrap();
        nodes
            .put_in(
                &mut batch,
                "n2",
                &NodeRecord {
                    host: "n2".into(),
                    cpus: 2,
                    mhz: 600,
                },
            )
            .unwrap();
        store.apply(batch).unwrap();
        assert_eq!(nodes.scan(&store).unwrap().len(), 2);
    }

    #[test]
    fn prefixes_do_not_collide() {
        let store = Store::open(MemDisk::new()).unwrap();
        let a: TypedSpace<u32> = TypedSpace::new(Space::History, "load/");
        let b: TypedSpace<u32> = TypedSpace::new(Space::History, "loaded/");
        a.put(&store, "x", &1).unwrap();
        b.put(&store, "x", &2).unwrap();
        assert_eq!(a.get(&store, "x").unwrap(), Some(1));
        assert_eq!(b.get(&store, "x").unwrap(), Some(2));
        // The "load/" scan must not swallow "loaded/" keys: the separator is
        // part of the prefix string, so only "load/x" matches.
        let hits = a.scan(&store).unwrap();
        assert_eq!(hits, vec![("x".to_string(), 1)]);
    }
}
