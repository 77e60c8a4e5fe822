//! Kernel and application results.

use gpu_mem::{Cycle, MemStats};
use gpu_telemetry::{CycleAccounting, STALL_CLASSES};
use serde::{Deserialize, Serialize};

/// Per-basic-block cycle accounting measured over a kernel's detailed
/// warps: how many instances ran, the cycles they took, the stall
/// classes those cycles were attributed to, and (when the controller
/// published one) the predicted mean duration for the block.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BbAccounting {
    /// Basic-block index within the kernel's program.
    pub bb: u32,
    /// Detailed block instances measured.
    pub instances: u64,
    /// Dynamic instructions across those instances.
    pub insts: u64,
    /// Measured cycles summed across those instances (the paper's
    /// interval definition: first issue to first issue of the next
    /// block).
    pub cycles: u64,
    /// Warp-cycles per [`gpu_telemetry::StallClass`] attributed to the
    /// block's detailed instances, indexed by `StallClass::index()`.
    pub stall: [u64; STALL_CLASSES],
    /// The sampling controller's predicted mean duration for one
    /// instance, when it published one (`None` for baselines that do
    /// not predict per-block times).
    pub predicted_mean: Option<f64>,
}

impl BbAccounting {
    /// Measured mean cycles per instance (zero when nothing ran).
    pub fn measured_mean(&self) -> f64 {
        if self.instances == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instances as f64
        }
    }
}

/// Outcome of one kernel execution (detailed, sampled, or skipped).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelResult {
    /// Kernel name.
    pub name: String,
    /// Simulated kernel execution time in cycles (the paper's "Sim
    /// Time" metric).
    pub cycles: Cycle,
    /// Cycle at which the kernel started.
    pub start_cycle: Cycle,
    /// Instructions executed in detailed mode.
    pub detailed_insts: u64,
    /// Instructions executed functionally only (fast-forward, traces).
    pub functional_insts: u64,
    /// Warps in the launch.
    pub total_warps: u64,
    /// Warps that ran in detailed mode.
    pub detailed_warps: u64,
    /// Warps whose duration was predicted.
    pub predicted_warps: u64,
    /// Detailed instructions issued per IPC window.
    pub ipc_timeline: Vec<u64>,
    /// Width of one IPC window in cycles.
    pub ipc_window: Cycle,
    /// Whether the kernel was skipped entirely (kernel-sampling).
    pub skipped: bool,
    /// Memory-system activity of this kernel (detailed accesses only).
    pub mem: MemStats,
    /// Cycle accounting: per-CU stall attribution and the windowed
    /// stall/occupancy timeline. `None` for skipped kernels (nothing
    /// was resident). Observation-only — `cycles` is bit-identical with
    /// and without it.
    pub accounting: Option<CycleAccounting>,
    /// Per-basic-block measured timing and stall attribution over the
    /// kernel's detailed warps (empty for skipped kernels).
    pub bb_stats: Vec<BbAccounting>,
}

impl KernelResult {
    /// Overall detailed-mode IPC (zero if no cycles elapsed).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.detailed_insts as f64 / self.cycles as f64
        }
    }

    /// IPC per window, for the paper's Figure 1 style plots.
    ///
    /// The final window is usually partial — the kernel rarely ends on
    /// a window boundary — so its count is divided by the cycles that
    /// actually elapsed in it, not the full window width (which would
    /// systematically understate tail IPC).
    pub fn ipc_series(&self) -> Vec<f64> {
        let n = self.ipc_timeline.len();
        self.ipc_timeline
            .iter()
            .enumerate()
            .map(|(i, &cnt)| {
                let width = if i + 1 == n {
                    // Elapsed cycles in the last window. The timeline
                    // can be shorter than cycles/window (trailing
                    // all-zero windows are not materialized), in which
                    // case this window did span its full width.
                    self.cycles
                        .saturating_sub(i as Cycle * self.ipc_window)
                        .max(1)
                        .min(self.ipc_window.max(1))
                } else {
                    self.ipc_window
                };
                cnt as f64 / width as f64
            })
            .collect()
    }

    /// Fraction of warps that were predicted rather than simulated.
    pub fn sampled_fraction(&self) -> f64 {
        if self.total_warps == 0 {
            0.0
        } else {
            self.predicted_warps as f64 / self.total_warps as f64
        }
    }
}

/// Aggregate over a multi-kernel application run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AppResult {
    /// Per-kernel results in launch order.
    pub kernels: Vec<KernelResult>,
}

impl AppResult {
    /// Sum of kernel execution times.
    pub fn total_cycles(&self) -> Cycle {
        self.kernels.iter().map(|k| k.cycles).sum()
    }

    /// Sum of detailed instructions.
    pub fn total_detailed_insts(&self) -> u64 {
        self.kernels.iter().map(|k| k.detailed_insts).sum()
    }

    /// Sum of functional-only instructions.
    pub fn total_functional_insts(&self) -> u64 {
        self.kernels.iter().map(|k| k.functional_insts).sum()
    }

    /// Number of kernels skipped by kernel-sampling.
    pub fn skipped_kernels(&self) -> usize {
        self.kernels.iter().filter(|k| k.skipped).count()
    }

    /// Sum of warps across all kernels.
    pub fn total_warps(&self) -> u64 {
        self.kernels.iter().map(|k| k.total_warps).sum()
    }

    /// Sum of warps simulated in detailed mode.
    pub fn total_detailed_warps(&self) -> u64 {
        self.kernels.iter().map(|k| k.detailed_warps).sum()
    }

    /// Sum of warps whose duration was predicted.
    pub fn total_predicted_warps(&self) -> u64 {
        self.kernels.iter().map(|k| k.predicted_warps).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kr(cycles: Cycle, insts: u64) -> KernelResult {
        KernelResult {
            name: "k".into(),
            cycles,
            start_cycle: 0,
            detailed_insts: insts,
            functional_insts: 0,
            total_warps: 10,
            detailed_warps: 10,
            predicted_warps: 0,
            ipc_timeline: vec![],
            ipc_window: 2048,
            skipped: false,
            mem: MemStats::default(),
            accounting: None,
            bb_stats: Vec::new(),
        }
    }

    #[test]
    fn ipc_computes() {
        assert_eq!(kr(100, 250).ipc(), 2.5);
        assert_eq!(kr(0, 250).ipc(), 0.0);
    }

    #[test]
    fn app_totals() {
        let app = AppResult {
            kernels: vec![kr(10, 5), kr(20, 7)],
        };
        assert_eq!(app.total_cycles(), 30);
        assert_eq!(app.total_detailed_insts(), 12);
        assert_eq!(app.skipped_kernels(), 0);
    }

    #[test]
    fn sampled_fraction() {
        let mut k = kr(1, 1);
        k.predicted_warps = 5;
        assert_eq!(k.sampled_fraction(), 0.5);
    }

    #[test]
    fn ipc_series_uses_elapsed_width_for_partial_last_window() {
        // Kernel ends mid-window: 2 full 2048-cycle windows plus 100
        // cycles into the third.
        let mut k = kr(2 * 2048 + 100, 0);
        k.ipc_timeline = vec![4096, 2048, 50];
        let s = k.ipc_series();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0], 2.0);
        assert_eq!(s[1], 1.0);
        // Tail: 50 insts over the 100 cycles that actually elapsed —
        // not 50/2048, which would understate the tail 20x.
        assert_eq!(s[2], 0.5);
    }

    #[test]
    fn ipc_series_with_full_final_window() {
        // Kernel ends exactly on a window boundary.
        let mut k = kr(2 * 2048, 0);
        k.ipc_timeline = vec![2048, 1024];
        assert_eq!(k.ipc_series(), vec![1.0, 0.5]);
        // Timeline shorter than elapsed windows (trailing zero windows
        // dropped): the last materialized window spans its full width.
        let mut k = kr(10 * 2048, 0);
        k.ipc_timeline = vec![2048, 1024];
        assert_eq!(k.ipc_series(), vec![1.0, 0.5]);
    }
}
