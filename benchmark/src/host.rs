//! The host stamp carried by every output, the calibration loop behind
//! the noise guard, and the process's peak resident set.

use serde_json::Value;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Two calibration scores further apart than this mark the run noisy.
pub const NOISY_FRAC: f64 = 0.10;

/// One calibration: a fixed integer-mixing loop (millions of rounds per
/// second) and a fixed pointer chase over a 16 MB table (millions of
/// steps per second). The first sees a slower or throttled CPU, the
/// second what this host's other tenants do to the memory system, which
/// is what moves the simulator. Both are reported beside the metrics
/// and never used to scale them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    pub alu: f64,
    pub mem: f64,
}

/// The chase table: one cycle through all 4 Mi entries (Sattolo's
/// shuffle from a fixed seed), so every step is a dependent load from
/// an unpredictable line.
fn chase_table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        const ENTRIES: usize = 1 << 22;
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        next
    })
}

pub fn calibrate() -> Calibration {
    const ROUNDS: u64 = 20_000_000;
    const STEPS: u64 = 1_000_000;
    let table = chase_table();
    let t0 = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for i in 0..ROUNDS {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .wrapping_add(i);
    }
    black_box(x);
    let alu = ROUNDS as f64 / t0.elapsed().as_secs_f64() / 1e6;
    let t0 = Instant::now();
    let mut p = black_box(0u32);
    for _ in 0..STEPS {
        p = table[p as usize];
    }
    black_box(p);
    Calibration {
        alu,
        mem: STEPS as f64 / t0.elapsed().as_secs_f64() / 1e6,
    }
}

#[derive(Debug, Clone)]
pub struct HostStamp {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub git_commit: String,
    pub calib_before: Calibration,
    pub calib_after: Calibration,
}

fn first_line_after(text: &str, key: &str) -> Option<String> {
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

impl HostStamp {
    /// Reads the host facts and takes the first calibration score.
    /// `rustc` and the git commit come from `run.sh` through the
    /// environment: the driver's checkout is not a git repository.
    pub fn begin() -> HostStamp {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let env_or_unknown = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
        HostStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: first_line_after(&cpuinfo, "model name")
                .unwrap_or_else(|| "unknown".to_string()),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
            rustc: env_or_unknown("BENCH_RUSTC"),
            git_commit: env_or_unknown("BENCH_GIT_COMMIT"),
            calib_before: calibrate(),
            calib_after: Calibration { alu: 0.0, mem: 0.0 },
        }
    }

    /// Takes the second calibration score.
    pub fn end(&mut self) {
        self.calib_after = calibrate();
    }

    pub fn noisy(&self) -> bool {
        let apart = |a: f64, b: f64| a.max(b) > 0.0 && (a - b).abs() / a.max(b) > NOISY_FRAC;
        apart(self.calib_before.alu, self.calib_after.alu)
            || apart(self.calib_before.mem, self.calib_after.mem)
    }

    /// The marker printed beside every timing.
    pub fn noise_tag(&self) -> &'static str {
        if self.noisy() {
            "  [noisy host]"
        } else {
            ""
        }
    }

    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "nproc": self.nproc as u64,
            "cpu_model": self.cpu_model,
            "kernel": self.kernel,
            "rustc": self.rustc,
            "git_commit": self.git_commit,
            "calib_alu_mrounds_per_s": [self.calib_before.alu, self.calib_after.alu],
            "calib_mem_msteps_per_s": [self.calib_before.mem, self.calib_after.mem],
            "noisy": self.noisy(),
        })
    }

    pub fn print(&self) {
        println!(
            "host: nproc={} cpu=\"{}\" kernel={} rustc=\"{}\" commit={}",
            self.nproc, self.cpu_model, self.kernel, self.rustc, self.git_commit
        );
        println!(
            "host: calibration alu {:.1} -> {:.1} Mrounds/s, mem {:.2} -> {:.2} Msteps/s{}",
            self.calib_before.alu,
            self.calib_after.alu,
            self.calib_before.mem,
            self.calib_after.mem,
            if self.noisy() {
                "  NOISY: a score moved by more than 10 % during the run, timings below are suspect"
            } else {
                ""
            }
        );
    }
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    first_line_after(&status, "VmHWM")
        .and_then(|v| {
            v.split_whitespace()
                .next()
                .and_then(|n| n.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noisy_when_scores_differ_by_more_than_a_tenth() {
        let mut h = HostStamp {
            nproc: 2,
            cpu_model: String::new(),
            kernel: String::new(),
            rustc: String::new(),
            git_commit: String::new(),
            calib_before: Calibration {
                alu: 100.0,
                mem: 10.0,
            },
            calib_after: Calibration {
                alu: 95.0,
                mem: 10.5,
            },
        };
        assert!(!h.noisy());
        h.calib_after.alu = 85.0;
        assert!(h.noisy());
        h.calib_after.alu = 100.0;
        h.calib_after.mem = 8.0;
        assert!(h.noisy(), "the memory score alone marks a run noisy");
        assert!(h.to_json().get("noisy").is_some());
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
