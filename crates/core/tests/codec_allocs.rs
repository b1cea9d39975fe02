//! What encoding and decoding a record costs the allocator.
//!
//! Every navigation step encodes the records it touched and every
//! recovery decodes all of them, so the codec's allocations are paid a
//! million times a run.  Going through a `Content` tree cost the chain's
//! task record 33 allocations to write and 37 to read — a `String` per
//! field name, a `Vec` per struct, every string cloned.  Streamed, a
//! record is written with none (into a warm buffer) and read with the
//! allocations the value itself holds.  This gate keeps it so: a derive or
//! a container impl that falls back to the tree shows up here as a count,
//! long before it shows up as a slow benchmark.
//!
//! And on its way into a commit a record asks the allocator for two things
//! only: its key, built in one pass, and its value, copied once out of the
//! buffer every record of the commit is encoded through.

mod common;

use bioopera_core::shard::{Instance, ShardEvent};
use bioopera_core::{EventKind, InstanceHeader, RunOutcome, TaskRecord};
use bioopera_ocr::value::Value;
use bioopera_store::Batch;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

/// Counts the allocator calls (`alloc` and `realloc`) made on the
/// *calling thread*, so the other threads of the test harness cannot
/// disturb a measurement.
struct CountCalls;

thread_local! {
    // `const` and without a destructor: safe to touch from an allocator.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for CountCalls {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator only ever hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountCalls = CountCalls;

/// `f`'s result and the allocator calls it made.
fn calls<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = CALLS.with(Cell::get);
    let result = f();
    (result, CALLS.with(Cell::get) - before)
}

/// The records `bench_e2e`'s chain leaves behind: a finished instance's
/// header, its `B` task record and the `TaskEnd` event of that task — and
/// the instance itself.
fn chain_records() -> (TaskRecord, ShardEvent, InstanceHeader, Instance) {
    let mut engine = common::chain_engine();
    for x in [123_456i64, 654_321, 7] {
        let initial = BTreeMap::from([("x".to_string(), Value::Int(x))]);
        engine.submit("Chain", initial).unwrap();
    }
    assert_eq!(engine.run_to_completion().unwrap(), RunOutcome::Completed);

    let (_, _, instance) = engine.slots().next().expect("three instances ran");
    let task = instance.tasks["B"].as_ref().clone();
    let event = engine
        .persisted_events()
        .unwrap()
        .into_iter()
        .find(|e| matches!(&e.kind, EventKind::TaskEnd { path, .. } if path == "B"))
        .expect("B ended");
    (task, event, instance.header.clone(), instance.clone())
}

fn gate<T: Serialize + DeserializeOwned + Clone>(what: &str, value: &T) {
    let bytes = serde_json::to_vec(value).unwrap();
    let text = String::from_utf8_lossy(&bytes).into_owned();

    // Into a warm buffer — how the digests encode — nothing is allocated.
    let mut buffer = String::with_capacity(2 * bytes.len());
    let ((), warm) = calls(|| value.write_json(&mut buffer));
    assert_eq!(buffer.as_bytes(), bytes, "{what}");
    assert_eq!(
        warm, 0,
        "{what}: {warm} allocator calls to encode {text} into a warm buffer"
    );

    // From nothing: the output buffer, and at most one growth of it.
    let (_, fresh) = calls(|| serde_json::to_vec(value).unwrap());
    assert!(
        fresh <= 2,
        "{what}: {fresh} allocator calls to encode {text} (at most 2: the buffer, one growth)"
    );

    // Decoding builds the value and nothing else: what a deep copy of it
    // allocates, plus two (a collection that grows, then is cut to size).
    let (decoded, decode) = calls(|| serde_json::from_slice::<T>(&bytes).unwrap());
    let (_copy, clone) = calls(|| decoded.clone());
    assert!(
        decode <= clone + 2,
        "{what}: {decode} allocator calls to decode {text}; a clone of the value makes {clone}"
    );
    // The counter works: none of these records is allocation-free.
    assert!(clone >= 1, "{what}: implausible, a clone allocated nothing");
}

#[test]
fn a_record_is_encoded_without_allocating_and_decoded_with_only_what_it_holds() {
    let (task, event, header, _) = chain_records();
    assert_eq!(task.inputs.len(), 1);
    assert_eq!(task.outputs.len(), 1);
    assert!(task.node.is_some());
    gate("the chain's task record", &task);
    gate("a TaskEnd shard event", &event);
    gate("an instance header", &header);
}

/// A task record committed to a shard's journal: the key (shard prefix,
/// instance id and path written in one pass) and the value (streamed into
/// the commit's buffer, copied once at its exact size).  The header that
/// every navigation commit carries costs the same two.
#[test]
fn a_committed_record_costs_its_key_and_its_value() {
    let (_, _, _, instance) = chain_records();
    let mut scratch = String::new();
    // A batch that has taken a commit already: its list of operations has
    // room, and the buffer has grown to a record's size.
    let mut warm = || {
        let mut batch = Batch::new();
        instance.commit_into(&mut batch, Some(3), ["A"], &mut scratch);
        assert_eq!(batch.len(), 2);
        batch
    };
    let (mut batch, mut other) = (warm(), warm());
    let ((), task) = calls(|| instance.tasks_into(&mut batch, Some(3), ["B"], &mut scratch));
    assert_eq!(batch.len(), 3);
    assert!(
        task <= 2,
        "{task} allocator calls to commit one task record (its key, its value)"
    );
    let ((), commit) = calls(|| {
        instance.commit_into(
            &mut other,
            Some(3),
            std::iter::empty::<&str>(),
            &mut scratch,
        )
    });
    assert_eq!(other.len(), 3);
    assert!(
        commit <= 2,
        "{commit} allocator calls to commit a header (its key, its value)"
    );
    // The counter works.
    assert!(task >= 1 && commit >= 1);
}
