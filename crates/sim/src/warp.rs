//! Architectural warp state and functional warp traces.

use gpu_isa::{BasicBlockId, Program, LANES, MAX_SREGS, MAX_VREGS};
use serde::{Deserialize, Serialize};

#[cfg(test)]
thread_local! {
    /// Set by the register-file oracle: warps built on this thread get
    /// the full ISA register file whatever their program names.
    pub(crate) static FULL_WIDTH: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The architectural state of one warp: PC, scalar and vector register
/// files, and the mask registers.
#[derive(Clone)]
pub struct WarpState {
    /// Program counter (instruction index).
    pub pc: u32,
    /// Scalar registers (64-bit each).
    pub sregs: [u64; MAX_SREGS],
    /// Vector registers, one 32-bit value per lane: as many as the
    /// program names ([`WarpState::for_program`]), or `MAX_VREGS`.
    pub vregs: Box<[[u32; LANES]]>,
    /// Lane-enable mask.
    pub exec: u64,
    /// Vector condition code.
    pub vcc: u64,
    /// Scalar condition code.
    pub scc: bool,
    /// Whether `s_endpgm` has executed.
    pub ended: bool,
}

impl WarpState {
    /// Fresh state at PC 0 with all lanes enabled and the full ISA
    /// vector register file, for any program.
    pub fn new() -> Self {
        Self::with_vregs(MAX_VREGS)
    }

    /// Fresh state for a warp of `program`: as [`WarpState::new`], with
    /// only the vector registers the program names
    /// ([`Program::vreg_footprint`]), as GCN hardware allocates a
    /// kernel's declared VGPR count. Running any other program on it may
    /// index past the file and panic.
    pub fn for_program(program: &Program) -> Self {
        #[cfg(test)]
        if FULL_WIDTH.get() {
            return Self::new();
        }
        Self::with_vregs(program.vreg_footprint())
    }

    fn with_vregs(vregs: usize) -> Self {
        WarpState {
            pc: 0,
            sregs: [0; MAX_SREGS],
            vregs: vec![[0u32; LANES]; vregs].into_boxed_slice(),
            exec: u64::MAX,
            vcc: 0,
            scc: false,
            ended: false,
        }
    }
}

impl Default for WarpState {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for WarpState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarpState")
            .field("pc", &self.pc)
            .field("exec", &format_args!("{:#018x}", self.exec))
            .field("vcc", &format_args!("{:#018x}", self.vcc))
            .field("scc", &self.scc)
            .field("ended", &self.ended)
            .finish_non_exhaustive()
    }
}

/// The functional trace of one warp: its basic-block execution counts
/// (the warp's BBV, in the paper's terms) and total instruction count.
///
/// Two warps with equal `bb_counts` are of the same *warp type*
/// (paper §3, Obs 4).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WarpTrace {
    /// `(block, times executed)` sorted by block id.
    pub bb_counts: Vec<(BasicBlockId, u32)>,
    /// Total dynamic instructions.
    pub insts: u64,
}

impl WarpTrace {
    /// Builds a trace from an unsorted multiset of block executions.
    pub fn from_counts(mut bb_counts: Vec<(BasicBlockId, u32)>, insts: u64) -> Self {
        bb_counts.sort_unstable_by_key(|(b, _)| *b);
        WarpTrace { bb_counts, insts }
    }

    /// Execution count of one block.
    pub fn count(&self, bb: BasicBlockId) -> u32 {
        self.bb_counts
            .binary_search_by_key(&bb, |(b, _)| *b)
            .map(|i| self.bb_counts[i].1)
            .unwrap_or(0)
    }

    /// Total block executions.
    pub fn total_bb_execs(&self) -> u64 {
        self.bb_counts.iter().map(|(_, c)| *c as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, EngineMode};
    use crate::corpus::{self, Call, Case, Script};
    use crate::engine::GpuSimulator;
    use crate::error::SimError;
    use crate::functional::trace_warp_isolated;
    use crate::result::KernelResult;
    use gpu_isa::{Inst, VAluOp, VectorSrc, Vreg};
    use gpu_telemetry::MetricsSnapshot;

    #[test]
    fn fresh_state_enables_all_lanes() {
        let w = WarpState::new();
        assert_eq!(w.exec, u64::MAX);
        assert_eq!(w.pc, 0);
        assert!(!w.ended);
        assert_eq!(w.vregs.len(), MAX_VREGS);
    }

    #[test]
    fn a_program_gets_the_registers_it_names() {
        let p = Program::from_insts(
            "v9",
            vec![
                Inst::VAlu {
                    op: VAluOp::Mov,
                    dst: Vreg::new(9),
                    a: VectorSrc::LaneId,
                    b: VectorSrc::Imm(0),
                },
                Inst::SEndpgm,
            ],
        )
        .unwrap();
        let w = WarpState::for_program(&p);
        assert_eq!(w.vregs.len(), 10);
        assert!(w.vregs.iter().flatten().all(|&x| x == 0));
        assert_eq!((w.pc, w.exec, w.ended), (0, u64::MAX, false));
        let none = Program::from_insts("none", vec![Inst::SEndpgm]).unwrap();
        assert!(WarpState::for_program(&none).vregs.is_empty());
    }

    /// What one run of a case did.
    struct Outcome {
        kernels: Vec<Result<KernelResult, SimError>>,
        calls: Vec<Call>,
        metrics: MetricsSnapshot,
        memory: u64,
        traces: Vec<Result<WarpTrace, SimError>>,
    }

    /// Runs the case once with every warp's vector register file full
    /// width, or sized by its program. Before each launch, about 64
    /// evenly spaced warps (all of a smaller launch) are traced in
    /// isolation, as kernel start traces its sample.
    fn run(case: &Case, mode: EngineMode, threads: u32, full_width: bool) -> Outcome {
        FULL_WIDTH.set(full_width);
        let mut cfg = case.cfg.clone();
        cfg.engine = EngineConfig {
            mode,
            threads,
            quantum: 0,
        };
        let max_insts = cfg.max_insts_per_warp;
        let mut gpu = GpuSimulator::new(cfg);
        *gpu.mem_mut() = case.image.clone();
        let mut ctrl = Script::new(case.sample_every, case.abort_after);
        let (mut kernels, mut traces) = (Vec::new(), Vec::new());
        for l in &case.launches {
            let warps = u64::from(l.num_wgs) * u64::from(l.warps_per_wg);
            for w in (0..warps).step_by((warps / 64).max(1) as usize) {
                traces.push(trace_warp_isolated(l, gpu.mem(), w, max_insts));
            }
            kernels.push(gpu.run_kernel_sampled(l, &mut ctrl));
        }
        FULL_WIDTH.set(false);
        Outcome {
            kernels,
            calls: ctrl.calls,
            metrics: gpu.telemetry().snapshot(),
            memory: corpus::digest(gpu.mem(), case.heap_end),
            traces,
        }
    }

    /// The full ISA register file against the program-sized one, serial
    /// and deterministic on 1 and 2 threads.
    fn check(case: &Case) {
        assert!(
            case.launches
                .iter()
                .all(|l| l.kernel.program().vreg_footprint() < MAX_VREGS),
            "{}: test premise: every program names fewer than {MAX_VREGS} vector registers",
            case.name
        );
        for &(mode, threads) in case.modes.iter().filter(|(_, t)| *t <= 2) {
            let at = format!("{} {mode:?}/{threads}", case.name);
            let want = run(case, mode, threads, true);
            let got = run(case, mode, threads, false);
            assert_eq!(want.kernels, got.kernels, "{at}: kernel results");
            assert!(want.calls == got.calls, "{at}: controller calls");
            assert_eq!(want.metrics, got.metrics, "{at}: metrics snapshot");
            assert_eq!(want.memory, got.memory, "{at}: device memory");
            assert_eq!(want.traces, got.traces, "{at}: sample traces");
            for k in &got.kernels {
                k.as_ref().unwrap_or_else(|e| panic!("{at}: {e}"));
            }
        }
    }

    #[test]
    fn full_width_register_file_is_the_oracle_on_the_registry_benchmarks() {
        corpus::registry_benchmarks().iter().for_each(check);
    }

    #[test]
    fn full_width_register_file_is_the_oracle_on_the_registry_applications() {
        corpus::registry_applications().iter().for_each(check);
    }

    #[test]
    fn full_width_register_file_is_the_oracle_on_seeded_contention_kernels() {
        (0..20).map(corpus::contention_case).for_each(|c| check(&c));
    }

    #[test]
    fn trace_counts_sorted_and_queryable() {
        let t = WarpTrace::from_counts(vec![(BasicBlockId(2), 5), (BasicBlockId(0), 1)], 42);
        assert_eq!(t.bb_counts[0].0, BasicBlockId(0));
        assert_eq!(t.count(BasicBlockId(2)), 5);
        assert_eq!(t.count(BasicBlockId(7)), 0);
        assert_eq!(t.total_bb_execs(), 6);
    }

    #[test]
    fn identical_traces_are_equal() {
        let a = WarpTrace::from_counts(vec![(BasicBlockId(0), 3)], 9);
        let b = WarpTrace::from_counts(vec![(BasicBlockId(0), 3)], 9);
        assert_eq!(a, b);
    }
}
