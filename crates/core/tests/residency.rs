//! What an instance costs in the navigator's memory.
//!
//! A server keeps every running process resident for weeks, so the bytes
//! one instance holds decide how many experiments it can carry.  This
//! gate pins that cost where it can be counted exactly — the live heap
//! behind `ShardEngine::slots()` — and the two sizes it hangs on, so a
//! container that allocates for capacity instead of contents (a
//! `BTreeMap` leaf is 11 entries whatever it holds) or a grown task
//! record is a deliberate act, not an accident.

mod common;

use bioopera_core::shard::Instance;
use bioopera_core::{RunOutcome, TaskMap, TaskRecord};
use bioopera_ocr::value::Value;
use common::chain_engine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::mem::size_of;

/// The `(key, value)` bytes a map's leaf sets aside for each of its 11
/// slots.
trait Entry {
    const SIZE: usize;
}

impl<K, V> Entry for BTreeMap<K, V> {
    const SIZE: usize = size_of::<(K, V)>();
}

// A task record fits three cache lines, and a task-map entry is a key and
// a pointer: 11 × 32 B + 16 B = a 368 B leaf.
const _: () = assert!(size_of::<TaskRecord>() <= 192);
const _: () = assert!(<TaskMap as Entry>::SIZE == 32);

/// Live heap per resident two-task chain instance the gate allows.  The
/// containers this repo had before cost 5 120 B here; exact-size field
/// maps and boxed task records cost 1 496 B.
const BUDGET_BYTES: usize = 2048;

/// Counts the bytes live on the *calling thread's* account, so the other
/// threads of the test harness cannot disturb a measurement.
struct LiveBytes;

thread_local! {
    // `const` and without a destructor: safe to touch from an allocator.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn account(delta: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as isize);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(-(layout.size() as isize));
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator only ever hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size as isize - layout.size() as isize);
        // SAFETY: as for `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

#[test]
fn a_resident_chain_instance_costs_at_most_two_kib_of_heap() {
    const INSTANCES: usize = 2000;
    let mut engine = chain_engine();
    for i in 0..INSTANCES {
        let initial = BTreeMap::from([("x".to_string(), Value::Int(i as i64))]);
        engine.submit("Chain", initial).unwrap();
    }
    assert_eq!(engine.run_to_completion().unwrap(), RunOutcome::Completed);

    // What the slots hold is what a deep copy of them allocates (the
    // template is shared, and the copies' own `Vec` is set up first).
    let mut copies: Vec<Instance> = Vec::with_capacity(INSTANCES);
    let before = live_bytes();
    copies.extend(engine.slots().map(|(_, _, instance)| instance.clone()));
    let held = (live_bytes() - before) as usize;
    assert_eq!(copies.len(), INSTANCES);
    assert!(copies.iter().all(|c| c.tasks.len() == 2));

    let each = held / INSTANCES;
    assert!(
        each <= BUDGET_BYTES,
        "a resident two-task instance holds {each} B of heap, over the {BUDGET_BYTES} B budget \
         ({held} B for {INSTANCES})"
    );
    // The counter works: a finished chain cannot weigh nothing.
    assert!(each >= 500, "implausible: {each} B per instance");
}
