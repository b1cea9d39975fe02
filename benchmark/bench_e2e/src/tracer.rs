//! Spans recorded from outside the program.
//!
//! A *root* span is one call the driver makes into the engine (`step`,
//! `step_round`, `submit`, a recovery call).  A *child* span is one call
//! the engine makes back out through an extension point the driver
//! wrapped: the disk, an activity program, the scheduling policy.  Only
//! one root is open at a time, so a child's parent is whichever root is
//! open — also when the child runs on a stepper thread.  Spans stay in
//! memory until the repetition ends.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// What a span covers.  Roots first, then children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Submit,
    Step,
    Recover,
    DiskAppend,
    DiskWriteAtomic,
    DiskRead,
    DiskDelete,
    Program,
    Policy,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Submit => "engine.submit",
            Kind::Step => "engine.step",
            Kind::Recover => "engine.recover",
            Kind::DiskAppend => "disk.append",
            Kind::DiskWriteAtomic => "disk.write_atomic",
            Kind::DiskRead => "disk.read",
            Kind::DiskDelete => "disk.delete",
            Kind::Program => "library.program",
            Kind::Policy => "dispatcher.choose",
        }
    }

    /// A call the driver makes into the engine (as opposed to a call the
    /// engine makes back out through a wrapped extension point).
    pub fn is_root(self) -> bool {
        matches!(self, Kind::Submit | Kind::Step | Kind::Recover)
    }

    pub fn is_disk(self) -> bool {
        matches!(
            self,
            Kind::DiskAppend | Kind::DiskWriteAtomic | Kind::DiskRead | Kind::DiskDelete
        )
    }
}

/// One recorded interval, in nanoseconds since the tracer started.
/// `parent` is the index of the root span a child ran under; `None` for
/// a root, and for a child that ran outside every root (set-up I/O).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

const NO_ROOT: u32 = u32::MAX;

struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    open_root: AtomicU32,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACER: OnceLock<Tracer> = OnceLock::new();

fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer {
        origin: Instant::now(),
        spans: Mutex::new(Vec::with_capacity(1 << 18)),
        open_root: AtomicU32::new(NO_ROOT),
    })
}

/// Start recording spans (the `--trace 1` repetition only).
pub fn enable() {
    tracer();
    ENABLED.store(true, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns(t: &Tracer) -> u64 {
    t.origin.elapsed().as_nanos() as u64
}

fn lock(t: &Tracer) -> std::sync::MutexGuard<'_, Vec<Span>> {
    t.spans
        .lock()
        .expect("a thread panicked while recording a span")
}

/// Time one driver call into the engine and return its result with the
/// seconds it took.  Records a root span when tracing is on.
pub fn root<R>(kind: Kind, f: impl FnOnce() -> R) -> (R, f64) {
    if !enabled() {
        let t0 = Instant::now();
        let r = f();
        return (r, t0.elapsed().as_secs_f64());
    }
    let t = tracer();
    let start_ns = now_ns(t);
    let id = {
        let mut spans = lock(t);
        spans.push(Span {
            kind,
            start_ns,
            end_ns: start_ns,
            parent: None,
        });
        (spans.len() - 1) as u32
    };
    t.open_root.store(id, Ordering::SeqCst);
    let r = f();
    t.open_root.store(NO_ROOT, Ordering::SeqCst);
    let end_ns = now_ns(t);
    lock(t)[id as usize].end_ns = end_ns;
    (r, (end_ns - start_ns) as f64 / 1e9)
}

/// Re-label the root span recorded last: a `month_shared` step turns out
/// to have been a recovery step only after it returned.
pub fn retag_last_root(kind: Kind) {
    if !enabled() {
        return;
    }
    let mut spans = lock(tracer());
    if let Some(span) = spans.iter_mut().rev().find(|s| s.kind.is_root()) {
        span.kind = kind;
    }
}

/// Run `f` as a child span of the open root.  Costs one relaxed load
/// when tracing is off.
pub fn child<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let t = tracer();
    let start_ns = now_ns(t);
    let r = f();
    let end_ns = now_ns(t);
    let root = t.open_root.load(Ordering::SeqCst);
    lock(t).push(Span {
        kind,
        start_ns,
        end_ns,
        parent: (root != NO_ROOT).then_some(root),
    });
    r
}

/// Every span recorded so far.
pub fn snapshot() -> Vec<Span> {
    if TRACER.get().is_none() {
        return Vec::new();
    }
    lock(tracer()).clone()
}

/// Self time of every root span: its duration minus the part of its
/// interval that its children cover.  Children of two stepper threads
/// overlap, so the covered part is the length of the *union* of their
/// intervals, clipped to the root.  Returns `(root index, self ns)`.
pub fn self_times(spans: &[Span]) -> Vec<(usize, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if !s.kind.is_root() {
            continue;
        }
        let kids = &mut children[i];
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start_ns;
        for &(a, b) in kids.iter() {
            let a = a.max(cursor);
            let b = b.min(s.end_ns);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        out.push((i, s.nanos() - covered));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            kind,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // One round; two stepper threads append at the same time.
        let spans = vec![
            span(Kind::Step, 100, 1100, None),
            span(Kind::DiskAppend, 200, 500, Some(0)), // thread 1
            span(Kind::DiskAppend, 400, 700, Some(0)), // thread 2, overlaps
            span(Kind::Program, 450, 460, Some(0)),    // inside both
            span(Kind::DiskAppend, 900, 1000, Some(0)),
        ];
        // Union: [200, 700) + [900, 1000) = 600 of the 1000 ns.
        assert_eq!(self_times(&spans), vec![(0, 400)]);
    }

    #[test]
    fn children_are_clipped_to_their_root_and_roots_stay_apart() {
        let spans = vec![
            span(Kind::Step, 0, 100, None),
            span(Kind::DiskRead, 90, 150, Some(0)), // runs past the root's end
            span(Kind::Recover, 200, 300, None),
            span(Kind::DiskRead, 210, 220, Some(2)),
            span(Kind::DiskRead, 500, 600, None), // no root open: nobody's child
        ];
        assert_eq!(self_times(&spans), vec![(0, 90), (2, 90)]);
    }

    #[test]
    fn a_root_without_children_is_all_self_time() {
        let spans = vec![span(Kind::Submit, 5, 25, None)];
        assert_eq!(self_times(&spans), vec![(0, 20)]);
    }
}
