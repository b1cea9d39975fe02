//! A SIGPROF stack sampler with no dependency, for hosts with no
//! profiler: `scripts/profile.sh` copies this file into a scratch copy of
//! `benchmark/bench_e2e`, builds it with frame pointers and runs it.
//!
//! `ITIMER_PROF` fires every 4 ms of CPU time; the handler walks the
//! frame-pointer chain of the interrupted thread (main thread only —
//! elsewhere it keeps the program counter alone) into a preallocated
//! buffer, tagged with the driver phase (`tracer::root`'s span kind) that
//! was open.  `dump` writes one line per sample for `symbolize.py`.

use std::ffi::c_void;
use std::io::Write;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

const DEPTH: usize = 64;
const MAX_SAMPLES: usize = 1 << 15;
const TICK_US: i64 = 4_000;

static mut SAMPLES: [[usize; DEPTH + 1]; MAX_SAMPLES] = [[0; DEPTH + 1]; MAX_SAMPLES];
static NEXT: AtomicUsize = AtomicUsize::new(0);
static PHASE: AtomicU8 = AtomicU8::new(0);
static STACK_LO: AtomicUsize = AtomicUsize::new(0);
static STACK_HI: AtomicUsize = AtomicUsize::new(0);

#[repr(C)]
struct Timeval(i64, i64);
#[repr(C)]
struct Itimerval(Timeval, Timeval);
/// glibc's x86-64 `struct sigaction`.
#[repr(C)]
struct Sigaction {
    handler: usize,
    mask: [u64; 16],
    flags: i32,
    restorer: usize,
}

extern "C" {
    fn sigaction(sig: i32, act: *const Sigaction, old: *mut Sigaction) -> i32;
    fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
}

const SIGPROF: i32 = 27;
const ITIMER_PROF: i32 = 2;
const SA_SIGINFO: i32 = 4;
const SA_RESTART: i32 = 0x1000_0000;
/// `ucontext_t.uc_mcontext.gregs` starts 40 bytes in; indices from
/// `<sys/ucontext.h>`.
const GREGS: usize = 40;
const REG_RBP: usize = 10;
const REG_RSP: usize = 15;
const REG_RIP: usize = 16;

extern "C" fn on_prof(_sig: i32, _info: *mut c_void, ctx: *mut c_void) {
    let slot = NEXT.fetch_add(1, Ordering::Relaxed);
    if slot >= MAX_SAMPLES {
        return;
    }
    // SAFETY: the kernel hands a valid `ucontext_t`; the slot index is
    // unique to this invocation; a frame is dereferenced only while it
    // lies inside the main thread's mapped stack, above the interrupted
    // stack pointer, 8-aligned and strictly ascending.
    unsafe {
        let greg = |i: usize| *((ctx as usize + GREGS + 8 * i) as *const usize);
        let sample = &mut *std::ptr::addr_of_mut!(SAMPLES[slot]);
        sample[0] = PHASE.load(Ordering::Relaxed) as usize;
        sample[1] = greg(REG_RIP);
        let (mut fp, sp) = (greg(REG_RBP), greg(REG_RSP));
        let (lo, hi) = (
            STACK_LO.load(Ordering::Relaxed).max(sp),
            STACK_HI.load(Ordering::Relaxed),
        );
        let mut n = 2;
        while n <= DEPTH && fp >= lo && fp + 16 <= hi && fp % 8 == 0 {
            sample[n] = *((fp + 8) as *const usize);
            n += 1;
            let next = *(fp as *const usize);
            if next <= fp {
                break;
            }
            fp = next;
        }
    }
}

/// Tag samples taken until the guard drops with `phase` (1-based).
pub fn enter(kind: u8) -> impl Drop {
    struct Guard(u8);
    impl Drop for Guard {
        fn drop(&mut self) {
            PHASE.store(self.0, Ordering::Relaxed);
        }
    }
    Guard(PHASE.swap(kind + 1, Ordering::Relaxed))
}

pub fn start() {
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap_or_default();
    if let Some(line) = maps.lines().find(|l| l.ends_with("[stack]")) {
        let (lo, hi) = line.split(' ').next().unwrap().split_once('-').unwrap();
        STACK_LO.store(usize::from_str_radix(lo, 16).unwrap(), Ordering::Relaxed);
        STACK_HI.store(usize::from_str_radix(hi, 16).unwrap(), Ordering::Relaxed);
    }
    let act = Sigaction {
        handler: on_prof as *const () as usize,
        mask: [0; 16],
        flags: SA_SIGINFO | SA_RESTART,
        restorer: 0,
    };
    let tick = Itimerval(Timeval(0, TICK_US), Timeval(0, TICK_US));
    // SAFETY: both structs match glibc's layout and outlive the calls.
    unsafe {
        sigaction(SIGPROF, &act, std::ptr::null_mut());
        setitimer(ITIMER_PROF, &tick, std::ptr::null_mut());
    }
}

/// Stop the timer and write `$SIGPROF_DIR/sigprof.<pid>.txt`: the
/// file-backed mappings of the process (`map start-end perms path`), then
/// `phase pc ret ret …` per sample.
pub fn dump() {
    let off = Itimerval(Timeval(0, 0), Timeval(0, 0));
    // SAFETY: as in `start`.
    unsafe { setitimer(ITIMER_PROF, &off, std::ptr::null_mut()) };
    let Ok(dir) = std::env::var("SIGPROF_DIR") else {
        return;
    };
    let path = format!("{dir}/sigprof.{}.txt", std::process::id());
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).unwrap());
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap_or_default();
    for line in maps.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() == 6 && f[5].starts_with('/') {
            writeln!(out, "map {} {} {}", f[0], f[1], f[5]).unwrap();
        }
    }
    let taken = NEXT.load(Ordering::Relaxed).min(MAX_SAMPLES);
    for i in 0..taken {
        // SAFETY: the timer is off; no handler writes any more.
        let s = unsafe { &*std::ptr::addr_of!(SAMPLES[i]) };
        let frames: Vec<String> = s[1..]
            .iter()
            .take_while(|&&a| a != 0)
            .map(|a| format!("{a:x}"))
            .collect();
        writeln!(out, "{} {}", s[0], frames.join(" ")).unwrap();
    }
}
