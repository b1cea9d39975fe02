//! What the host is and how fast it is right now.
//!
//! Timings on this kind of host swing with host speed, not with
//! preemption: CPU time tracks wall time.  The spin is a fixed amount of
//! pure computation that brackets every repetition, so a slow stretch of
//! the host can be seen — and its repetition discarded — without looking
//! at the code under test.

use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

const SPIN_BYTES: usize = 32 << 20;

/// The buffer the spin walks, allocated and touched once per process so
/// the timed pass pays no page faults.
pub struct Spin {
    buf: Vec<u8>,
}

impl Spin {
    pub fn new() -> Self {
        let spin = Spin {
            buf: (0..SPIN_BYTES).map(|i| i as u8).collect(),
        };
        // A fresh process starts on a vCPU that is still waking up: the
        // first passes run up to twice as long as the ones after them and
        // say nothing about the host.  Spin until two passes agree.
        let mut last = spin.seconds();
        for _ in 0..8 {
            let next = spin.seconds();
            let settled = (next - last).abs() <= 0.03 * last;
            last = next;
            if settled {
                break;
            }
        }
        spin
    }

    /// Seconds one FNV-1a pass over the buffer takes.
    pub fn seconds(&self) -> f64 {
        let t0 = Instant::now();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in black_box(&self.buf) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        black_box(h);
        t0.elapsed().as_secs_f64()
    }
}

/// Peak resident set of this process in KiB (`VmHWM`).
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Facts recorded with every result, so a number can be traced to the
/// host, toolchain and commit that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostFacts {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub commit: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl HostFacts {
    pub fn gather() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
            rustc: command_line("rustc", &["-V"]),
            // The benchmark also runs from a plain export of the tree,
            // where there is no commit to name.
            commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }
}
