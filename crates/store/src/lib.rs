//! # bioopera-store
//!
//! Embedded storage engine backing BioOpera's persistent *spaces*.
//!
//! The BioOpera paper (§3.2) requires that "a process instance is persistent
//! both in terms of the data and the state of the execution", so that the
//! server can "resume execution of processes after failures occur without
//! losing already completed work".  The original system used a relational
//! database; this crate provides the equivalent durability contract as an
//! embedded engine:
//!
//! * a **write-ahead log** ([`wal`]) with CRC-framed, atomically-replayable
//!   batches and torn-tail tolerance,
//! * a **tiered layer** ([`runs`], [`bloom`]): every WAL roll is a spill
//!   of the memtables to an immutable sorted-run file with a bloom filter
//!   and a sparse block index — on a [`TieredPolicy`] budget, a
//!   [`CompactionPolicy`] WAL length or [`Store::compact`] (`None`: no
//!   budget) — and a crash-safe leveled merge folds runs together and
//!   drops tombstones; an older engine's snapshot is read, never written,
//! * four typed **record spaces** ([`Space`]) mirroring the paper's template /
//!   instance / configuration / data (history) spaces,
//! * a pluggable [`disk::Disk`] abstraction with a real filesystem backend and
//!   an in-memory fault-injecting backend used to *actually* crash the engine
//!   mid-write in tests and recovery experiments.
//!
//! All mutation goes through [`Batch`]es: either every record of a batch is
//! visible after recovery or none is.  This is what makes the navigator's
//! "mapping phase" (copying task outputs into the whiteboard plus marking the
//! task done) atomic across failures.

pub mod bloom;
pub mod cache;
mod compaction;
pub mod crc;
pub mod disk;
pub mod engine;
pub mod error;
mod levels;
mod manifest;
mod memtable;
mod merge;
mod policy;
mod retention;
pub mod runs;
pub mod shard;
pub mod wal;

pub use disk::{CrashEffect, Disk, FaultPlan, FaultTrigger, FileDisk, MemDisk};
pub use engine::{Batch, Space, Store, StoreStats};
pub use error::{StoreError, StoreResult};
pub use policy::{CompactionPolicy, TieredPolicy};
pub use shard::{parse_shard_key, push_padded, push_shard_prefix, shard_key, shard_prefix};
