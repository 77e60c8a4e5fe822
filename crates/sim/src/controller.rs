//! The sampling hook surface.
//!
//! The timing engine is policy-free: a [`SamplingController`] observes
//! timing events (basic-block records, warp retirements, per-class
//! instruction latencies, IPC windows) and steers the engine between
//! detailed simulation and the sampled modes. Photon, PKA, and the
//! full-detailed baseline are all implementations of this trait.

use crate::error::SimError;
use crate::result::KernelResult;
use crate::warp::WarpTrace;
use gpu_isa::{BasicBlockId, InstClass, KernelLaunch};
use gpu_mem::Cycle;
use serde::{Deserialize, Serialize};

/// What to do with a kernel about to be launched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelDirective {
    /// Run the kernel (detailed, with per-workgroup mode polling).
    Simulate,
    /// Skip simulation: charge `predicted_cycles` to the clock and
    /// (optionally) execute the kernel functionally so later kernels see
    /// its memory effects.
    Skip {
        /// Cycles to charge for the kernel.
        predicted_cycles: Cycle,
        /// Whether to replay the kernel functionally (fast-forward).
        functional_replay: bool,
    },
}

/// Execution mode assigned to a workgroup at dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WgMode {
    /// Full detailed timing.
    Detailed,
    /// Basic-block sampling: warps run functionally (fast-forward) and
    /// their duration is predicted from per-block times (paper §4.1).
    BbSampled,
    /// Warp sampling: no functional execution at all; duration is the
    /// mean of recent detailed warps; only the scheduler is simulated
    /// (paper §4.2).
    WarpSampled,
}

/// One basic-block execution interval of a detailed warp.
///
/// Per the paper (§3 Obs 3), the execution time of a block instance is
/// the interval from the issue of its first instruction to the issue of
/// the first instruction of the *next* block (or warp retirement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BbRecord {
    /// Global warp id.
    pub warp: u64,
    /// Which block.
    pub bb: BasicBlockId,
    /// Issue cycle of the block's first instruction.
    pub start: Cycle,
    /// Issue cycle of the next block's first instruction.
    pub end: Cycle,
    /// Instructions executed in this instance.
    pub insts: u32,
}

impl BbRecord {
    /// The block's execution time in cycles.
    pub fn duration(&self) -> Cycle {
        self.end.saturating_sub(self.start)
    }
}

/// Issue/retire record of one detailed warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarpRecord {
    /// Global warp id.
    pub warp: u64,
    /// Cycle the warp was scheduled onto its compute unit.
    pub issue: Cycle,
    /// Cycle the warp finished all instructions.
    pub retire: Cycle,
    /// Dynamic instructions executed.
    pub insts: u64,
}

impl WarpRecord {
    /// The warp's execution time in cycles.
    pub fn duration(&self) -> Cycle {
        self.retire.saturating_sub(self.issue)
    }
}

/// Observer/policy hooks consulted by the timing engine.
///
/// All methods have no-op defaults, so a controller only implements the
/// events it cares about. The full-detailed baseline is
/// [`NullController`].
///
/// Controllers are required to be [`Send`] so a boxed controller, its
/// simulator, and a per-run telemetry handle can move together onto a
/// worker thread of the parallel experiment executor.
#[allow(unused_variables)]
pub trait SamplingController: Send {
    /// Offered the engine's [`gpu_telemetry::Telemetry`] handle before
    /// each kernel, so controllers can register counters and emit
    /// decision events into the shared registry/trace. Must be
    /// idempotent (the engine calls it on every launch).
    fn attach_telemetry(&mut self, telemetry: &gpu_telemetry::Telemetry) {}

    /// Called once per kernel before dispatch. The context allows
    /// side-effect-free functional tracing of sample warps (Photon's
    /// online analysis).
    fn on_kernel_start(&mut self, ctx: &mut dyn KernelStartAccess) -> KernelDirective {
        KernelDirective::Simulate
    }

    /// Polled at every workgroup dispatch: mode for that workgroup.
    fn dispatch_mode(&mut self) -> WgMode {
        WgMode::Detailed
    }

    /// A detailed warp completed a basic-block instance.
    fn on_bb_record(&mut self, rec: &BbRecord) {}

    /// A detailed warp retired.
    fn on_warp_retire(&mut self, rec: &WarpRecord) {}

    /// A detailed instruction retired with the given latency.
    fn on_inst_retire(&mut self, class: InstClass, latency: Cycle) {}

    /// An IPC window elapsed (detailed instructions issued in
    /// `[start, start + window)`).
    fn on_ipc_window(&mut self, start: Cycle, insts: u64, window: Cycle) {}

    /// Polled after every IPC window: return `Some(stable_ipc)` to stop
    /// detailed simulation and extrapolate the whole kernel from that
    /// IPC (the PKA mechanism).
    fn check_abort(&mut self) -> Option<f64> {
        None
    }

    /// Predicted duration (cycles) for a functionally traced warp in a
    /// [`WgMode::BbSampled`] workgroup.
    fn predict_warp_bb(&mut self, trace: &WarpTrace) -> Cycle {
        0
    }

    /// Predicted duration (cycles) for a warp in a
    /// [`WgMode::WarpSampled`] workgroup.
    fn predict_warp_avg(&mut self) -> Cycle {
        0
    }

    /// The kernel finished (any mode).
    fn on_kernel_end(&mut self, result: &KernelResult) {}

    /// Per-basic-block predicted mean durations `(bb, cycles)` the
    /// controller can publish once the kernel ends (queried *after*
    /// [`SamplingController::on_kernel_end`]). The engine folds them
    /// into the result's measured per-BB rows so reports carry
    /// predicted-vs-measured error side by side. Default: none.
    fn bb_predictions(&mut self) -> Vec<(u32, f64)> {
        Vec::new()
    }
}

/// Engine services available during [`SamplingController::on_kernel_start`].
pub trait KernelStartAccess {
    /// The launch being started.
    fn launch(&self) -> &KernelLaunch;
    /// Total warps in the launch.
    fn total_warps(&self) -> u64;
    /// Simulated cycle at which the kernel starts (for timestamping
    /// controller decision events; defaults to 0 for test harnesses).
    fn clock(&self) -> Cycle {
        0
    }
    /// Functionally traces one warp against a copy-on-write memory
    /// overlay (no side effects); barriers are treated as no-ops, LDS is
    /// warp-private scratch. Only the program's control slice is
    /// executed, but the trace, its `insts` and any error are those of
    /// executing every instruction (see
    /// [`trace_warp_isolated`](crate::trace_warp_isolated)); the
    /// instructions the warp covers, `insts`, are charged as functional
    /// work.
    ///
    /// # Errors
    /// Returns [`SimError::InstLimitExceeded`] for runaway warps and
    /// [`SimError::ExecFault`] for faulting ones; controllers typically
    /// react by falling back to detailed simulation.
    fn trace_warp(&mut self, global_warp: u64) -> Result<WarpTrace, SimError>;
}

/// The full-detailed baseline: simulate everything, observe nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullController;

impl SamplingController for NullController {}

/// A controller that records every event stream, used for the paper's
/// observation figures (Figs 1–4) and for tests.
#[derive(Debug, Default)]
pub struct Recorder {
    /// All basic-block records, in completion order.
    pub bb_records: Vec<BbRecord>,
    /// All warp records, in retirement order.
    pub warp_records: Vec<WarpRecord>,
    /// `(window_start, insts)` pairs.
    pub ipc_windows: Vec<(Cycle, u64)>,
    /// Latency observations per class: `(class, latency)`.
    pub inst_latencies: Vec<(InstClass, Cycle)>,
    /// Cap on stored instruction latencies (they are dense).
    pub max_latencies: usize,
}

impl Recorder {
    /// Creates a recorder storing at most `max_latencies` per-instruction
    /// latency samples (other streams are unbounded).
    pub fn new() -> Self {
        Recorder {
            max_latencies: 1_000_000,
            ..Default::default()
        }
    }
}

impl SamplingController for Recorder {
    fn on_bb_record(&mut self, rec: &BbRecord) {
        self.bb_records.push(*rec);
    }

    fn on_warp_retire(&mut self, rec: &WarpRecord) {
        self.warp_records.push(*rec);
    }

    fn on_inst_retire(&mut self, class: InstClass, latency: Cycle) {
        if self.inst_latencies.len() < self.max_latencies {
            self.inst_latencies.push((class, latency));
        }
    }

    fn on_ipc_window(&mut self, start: Cycle, insts: u64, _window: Cycle) {
        self.ipc_windows.push((start, insts));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_saturate() {
        let r = BbRecord {
            warp: 0,
            bb: BasicBlockId(0),
            start: 10,
            end: 25,
            insts: 4,
        };
        assert_eq!(r.duration(), 15);
        let w = WarpRecord {
            warp: 0,
            issue: 5,
            retire: 5,
            insts: 1,
        };
        assert_eq!(w.duration(), 0);
    }

    #[test]
    fn null_controller_defaults() {
        let mut c = NullController;
        assert_eq!(c.dispatch_mode(), WgMode::Detailed);
        assert_eq!(c.check_abort(), None);
        assert_eq!(c.predict_warp_avg(), 0);
    }
}
