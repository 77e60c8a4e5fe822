//! Functional (fast-forward) execution.
//!
//! Two entry points:
//!
//! * [`trace_warp_isolated`] — Photon's online analysis primitive: run
//!   one warp's control slice against a copy-on-write overlay (no side
//!   effects), treating barriers as no-ops and LDS as private scratch,
//!   and return its [`WarpTrace`] (per-block execution counts = the
//!   warp's BBV).
//! * [`run_wg_functional`] — committed fast-forward execution of a whole
//!   workgroup with correct cooperative semantics: warps interleave at
//!   barriers so LDS data exchange (e.g. matrix-multiply tiling) is
//!   functionally correct.

use crate::error::SimError;
use crate::exec::{execute, fetch, LaunchEnv, StepEffect};
use crate::overlay::OverlayMem;
use crate::warp::{WarpState, WarpTrace};
use gpu_isa::{BasicBlockId, KernelLaunch};
use gpu_mem::AddressSpace;

#[cfg(test)]
thread_local! {
    /// Set by the line-buffer oracle: functional execution on this
    /// thread coalesces every global access into a buffer, as it did
    /// before nothing read the lines.
    static BUILD_LINES: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Set by the control-slice oracle: [`trace_warp_isolated`] on this
    /// thread executes every instruction, as it did before the slice.
    static FULL_SLICE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Instructions [`trace_warp_isolated`] executed on this thread
    /// (the charged ones are its traces' `insts`).
    static TRACE_EXECUTED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The line buffer functional execution passes `execute`: none, since
/// nothing reads the cache lines of a run that times nothing.
fn line_buffer() -> Option<Vec<u64>> {
    #[cfg(test)]
    if BUILD_LINES.get() {
        return Some(Vec::new());
    }
    None
}

fn bb_counts_to_trace(counts: Vec<u32>, insts: u64) -> WarpTrace {
    let bb_counts = counts
        .into_iter()
        .enumerate()
        .filter(|(_, c)| *c > 0)
        .map(|(i, c)| (BasicBlockId(i as u32), c))
        .collect();
    WarpTrace::from_counts(bb_counts, insts)
}

/// Functionally traces one warp in isolation over a memory overlay.
///
/// Executes only the program's [control slice]
/// (`Program::control_slice`): an instruction outside it just advances
/// the pc. The warp still enters every block and counts every
/// instruction — the runaway guard included — exactly as full
/// execution would, so the trace and any error are those of running
/// the whole warp, and its `insts` (charged as functional work by
/// callers) are the instructions the warp covers, not the fewer it
/// executed.
///
/// [control slice]: gpu_isa::Program::control_slice
///
/// # Errors
/// Returns [`SimError::InstLimitExceeded`] if the warp exceeds
/// `max_insts` (runaway loop guard), or [`SimError::ExecFault`] if the
/// warp faults (bad argument index, out-of-bounds LDS access).
pub fn trace_warp_isolated(
    launch: &KernelLaunch,
    mem: &AddressSpace,
    global_warp: u64,
    max_insts: u64,
) -> Result<WarpTrace, SimError> {
    let program = launch.kernel.program();
    let ops = program.decoded();
    let slice = program.control_slice();
    #[cfg(test)]
    let every_pc = vec![true; slice.len()];
    #[cfg(test)]
    let slice = if FULL_SLICE.get() { &every_pc } else { slice };
    let mut counts = vec![0u32; program.basic_blocks().len()];
    let mut overlay = OverlayMem::new(mem);
    let mut lds = vec![0u8; launch.lds_bytes.max(4) as usize];
    let mut warp = WarpState::for_program(program);
    let env = LaunchEnv {
        args: &launch.args,
        wg_id: (global_warp / launch.warps_per_wg as u64) as u32,
        warp_in_wg: (global_warp % launch.warps_per_wg as u64) as u32,
        warps_per_wg: launch.warps_per_wg,
        num_wgs: launch.num_wgs,
    };
    let mut insts = 0u64;
    let mut lines = line_buffer();
    loop {
        let op = fetch(&warp, ops, &env)?;
        if let Some(bb) = op.block_start() {
            counts[bb.index()] += 1;
        }
        let end = if slice[warp.pc as usize] {
            #[cfg(test)]
            TRACE_EXECUTED.set(TRACE_EXECUTED.get() + 1);
            let info = execute(&mut warp, op, &mut overlay, &mut lds, &env, lines.as_mut())?;
            info.effect == StepEffect::End
        } else {
            // Nothing outside the slice branches, ends or faults.
            warp.pc += 1;
            false
        };
        insts += 1;
        if insts > max_insts {
            return Err(SimError::InstLimitExceeded {
                warp: global_warp,
                limit: max_insts,
            });
        }
        if end {
            break;
        }
        // Barriers are no-ops in isolated tracing.
    }
    Ok(bb_counts_to_trace(counts, insts))
}

/// One warp's seat in the cooperative workgroup interpreter.
pub(crate) struct CoopWarp<'a> {
    /// Position within the workgroup ([`LaunchEnv::warp_in_wg`]).
    pub warp_in_wg: u32,
    /// Architectural state: fresh for a functional run, the shard's live
    /// state when a detailed run is finished functionally.
    pub state: &'a mut WarpState,
    /// Parked at a barrier the rest of the workgroup has yet to reach.
    pub at_barrier: bool,
    /// Instructions executed over the warp's whole life (the runaway
    /// guard), advanced by every step taken here.
    pub insts: &'a mut u64,
    /// Per-block entry counts to fill in, when the caller wants traces.
    pub bb_counts: Option<&'a mut [u32]>,
}

/// Runs the warps of one workgroup to completion with cooperative
/// semantics, committing memory effects: warps run round-robin, each
/// until it ends or parks at a barrier, and a barrier releases once
/// every live warp has arrived — which preserves LDS-mediated data
/// exchange. Returns the instructions executed.
///
/// # Errors
/// Returns [`SimError::InstLimitExceeded`] if any warp exceeds
/// `max_insts`, or [`SimError::ExecFault`] if one faults.
pub(crate) fn run_warps_cooperative(
    launch: &KernelLaunch,
    mem: &mut AddressSpace,
    wg_id: u32,
    lds: &mut [u8],
    warps: &mut [CoopWarp<'_>],
    max_insts: u64,
) -> Result<u64, SimError> {
    let ops = launch.kernel.program().decoded();
    let mut lines = line_buffer();
    let mut total = 0u64;
    loop {
        let mut progressed = false;
        for warp in warps.iter_mut() {
            if warp.state.ended || warp.at_barrier {
                continue;
            }
            let env = LaunchEnv {
                args: &launch.args,
                wg_id,
                warp_in_wg: warp.warp_in_wg,
                warps_per_wg: launch.warps_per_wg,
                num_wgs: launch.num_wgs,
            };
            loop {
                let op = fetch(warp.state, ops, &env)?;
                if let (Some(counts), Some(bb)) = (warp.bb_counts.as_deref_mut(), op.block_start())
                {
                    counts[bb.index()] += 1;
                }
                let info = execute(warp.state, op, mem, lds, &env, lines.as_mut())?;
                *warp.insts += 1;
                total += 1;
                progressed = true;
                if *warp.insts > max_insts {
                    return Err(SimError::InstLimitExceeded {
                        warp: wg_id as u64 * launch.warps_per_wg as u64 + warp.warp_in_wg as u64,
                        limit: max_insts,
                    });
                }
                match info.effect {
                    StepEffect::End => break,
                    StepEffect::Barrier => {
                        warp.at_barrier = true;
                        break;
                    }
                    _ => {}
                }
            }
        }
        let live = warps.iter().filter(|w| !w.state.ended).count();
        if live == 0 {
            return Ok(total);
        }
        // Release when every live warp has arrived — or when nothing
        // moved: some warps wait at a barrier the rest exited past (a
        // malformed kernel), and releasing avoids an infinite loop.
        let arrived = warps.iter().filter(|w| w.at_barrier).count();
        if arrived == live || !progressed {
            warps.iter_mut().for_each(|w| w.at_barrier = false);
        }
    }
}

/// Functionally executes one whole workgroup from fresh warp states,
/// committing memory effects (see [`run_warps_cooperative`]). Returns
/// one trace per warp plus the total instructions executed.
///
/// # Errors
/// Returns [`SimError::InstLimitExceeded`] if any warp exceeds
/// `max_insts`.
pub fn run_wg_functional(
    launch: &KernelLaunch,
    mem: &mut AddressSpace,
    wg_id: u32,
    max_insts: u64,
) -> Result<(Vec<WarpTrace>, u64), SimError> {
    let n = launch.warps_per_wg as usize;
    let program = launch.kernel.program();
    let blocks = program.basic_blocks().len();
    let mut states: Vec<WarpState> = (0..n).map(|_| WarpState::for_program(program)).collect();
    let mut counts: Vec<Vec<u32>> = vec![vec![0u32; blocks]; n];
    let mut insts: Vec<u64> = vec![0; n];
    let mut lds = vec![0u8; launch.lds_bytes.max(4) as usize];
    let mut warps: Vec<CoopWarp<'_>> = states
        .iter_mut()
        .zip(counts.iter_mut().zip(insts.iter_mut()))
        .enumerate()
        .map(|(i, (state, (counts, insts)))| CoopWarp {
            warp_in_wg: i as u32,
            state,
            at_barrier: false,
            insts,
            bb_counts: Some(counts),
        })
        .collect();
    let total = run_warps_cooperative(launch, mem, wg_id, &mut lds, &mut warps, max_insts)?;
    drop(warps);
    let traces = counts
        .into_iter()
        .zip(insts)
        .map(|(c, i)| bb_counts_to_trace(c, i))
        .collect();
    Ok((traces, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{self, Case};
    use gpu_isa::{CmpOp, Kernel, KernelBuilder, MemWidth, SAluOp, VAluOp, VectorSrc};

    /// Every warp of every launch traced in isolation, then every
    /// workgroup run cooperatively, building the line buffer or not:
    /// the traces and the final device image.
    fn run_functionally(case: &Case, build_lines: bool) -> (Vec<WarpTrace>, u64) {
        BUILD_LINES.set(build_lines);
        let mut mem = case.image.clone();
        let mut traces = Vec::new();
        for l in &case.launches {
            let warps = u64::from(l.num_wgs) * u64::from(l.warps_per_wg);
            for w in 0..warps {
                traces.push(trace_warp_isolated(l, &mem, w, u64::MAX).unwrap());
            }
            for wg in 0..l.num_wgs {
                traces.extend(run_wg_functional(l, &mut mem, wg, u64::MAX).unwrap().0);
            }
        }
        BUILD_LINES.set(false);
        (traces, corpus::digest(&mem, case.heap_end))
    }

    #[test]
    fn functional_runs_are_the_same_without_the_line_buffer() {
        let cases = corpus::registry_benchmarks();
        for case in cases.iter().chain(&corpus::registry_applications()) {
            let (want_traces, want_memory) = run_functionally(case, true);
            let (traces, memory) = run_functionally(case, false);
            assert!(want_traces == traces, "{}: traces", case.name);
            assert_eq!(want_memory, memory, "{}: device memory", case.name);
        }
    }

    /// Traces `w` with every instruction executed (the oracle) and with
    /// the control slice alone, and requires the same outcome.
    fn trace_both_ways(
        l: &KernelLaunch,
        mem: &AddressSpace,
        w: u64,
        max_insts: u64,
    ) -> Result<WarpTrace, SimError> {
        FULL_SLICE.set(true);
        let want = trace_warp_isolated(l, mem, w, max_insts);
        FULL_SLICE.set(false);
        let got = trace_warp_isolated(l, mem, w, max_insts);
        assert_eq!(want, got, "{}: warp {w}", l.kernel.name());
        got
    }

    /// Every warp of every launch of `case` traced both ways, each
    /// launch then run to give the next one its memory. Returns the
    /// warps compared.
    fn slice_matches_full_execution(case: &Case) -> u64 {
        let mut mem = case.image.clone();
        let mut warps = 0;
        for l in &case.launches {
            for w in 0..l.total_warps() {
                trace_both_ways(l, &mem, w, u64::MAX).unwrap();
                warps += 1;
            }
            for wg in 0..l.num_wgs {
                run_wg_functional(l, &mut mem, wg, u64::MAX).unwrap();
            }
        }
        warps
    }

    #[test]
    fn control_slice_traces_as_full_execution_on_the_registry_benchmarks() {
        let warps: u64 = corpus::registry_benchmarks()
            .iter()
            .map(slice_matches_full_execution)
            .sum();
        assert!(warps > 0);
    }

    #[test]
    fn control_slice_traces_as_full_execution_on_the_registry_applications() {
        let warps: u64 = corpus::registry_applications()
            .iter()
            .map(slice_matches_full_execution)
            .sum();
        assert!(warps > 0);
    }

    #[test]
    fn control_slice_traces_as_full_execution_on_seeded_contention_kernels() {
        for seed in 0..40 {
            slice_matches_full_execution(&corpus::contention_case(seed));
        }
    }

    fn launch_of(kb: KernelBuilder, lds: u32) -> KernelLaunch {
        let k = Kernel::new(kb.finish().unwrap());
        KernelLaunch::new(k, 1, 1, vec![0x1000]).with_lds(lds)
    }

    #[test]
    fn an_lds_store_out_of_bounds_faults_though_its_data_is_outside_the_slice() {
        let mut kb = KernelBuilder::new("lds_oob");
        let (data, addr) = (kb.vreg(), kb.vreg());
        kb.vfma(
            data,
            VectorSrc::LaneId,
            VectorSrc::ImmF32(2.0),
            VectorSrc::ImmF32(1.0),
        );
        kb.valu(VAluOp::Shl, addr, VectorSrc::LaneId, VectorSrc::Imm(2));
        kb.valu(
            VAluOp::Add,
            addr,
            VectorSrc::Reg(addr),
            VectorSrc::Imm(1024),
        );
        kb.lds_store(data, addr, 0);
        let launch = launch_of(kb, 256);
        assert!(
            !launch.kernel.program().control_slice()[0],
            "the data is not in the slice"
        );
        let err = trace_both_ways(&launch, &AddressSpace::new(), 0, 1_000).unwrap_err();
        assert!(matches!(
            err,
            SimError::ExecFault {
                fault: crate::error::ExecFaultKind::LdsOutOfBounds { addr: 1024, .. },
                ..
            }
        ));
    }

    #[test]
    fn a_runaway_loop_outside_the_slice_hits_the_same_limit() {
        let mut kb = KernelBuilder::new("runaway");
        let v = kb.vreg();
        let top = kb.label();
        kb.place(top);
        kb.valu(VAluOp::Add, v, VectorSrc::Reg(v), VectorSrc::Imm(1));
        kb.branch(top);
        let launch = launch_of(kb, 0);
        assert_eq!(launch.kernel.program().control_slice()[..2], [false, true]);
        let err = trace_both_ways(&launch, &AddressSpace::new(), 0, 1_001).unwrap_err();
        assert_eq!(
            err,
            SimError::InstLimitExceeded {
                warp: 0,
                limit: 1_001
            }
        );
    }

    #[test]
    fn a_branch_on_a_global_load_executes_the_whole_program() {
        let mut kb = KernelBuilder::new("load_branch");
        let base = kb.sreg();
        kb.load_arg(base, 0);
        let (off, x, y) = (kb.vreg(), kb.vreg(), kb.vreg());
        kb.valu(VAluOp::Shl, off, VectorSrc::LaneId, VectorSrc::Imm(2));
        kb.global_load(x, base, off, 0, MemWidth::B32);
        kb.vcmp(CmpOp::Gt, VectorSrc::Reg(x), VectorSrc::Imm(3), false);
        kb.if_vcc(|kb| {
            kb.valu(VAluOp::Add, y, VectorSrc::Reg(x), VectorSrc::Imm(1));
            kb.global_store(y, base, off, 4, MemWidth::B32);
        });
        let launch = launch_of(kb, 0);
        assert!(launch.kernel.program().control_slice().iter().all(|&s| s));
        let mut mem = AddressSpace::new();
        for (lane, value) in [(0, 5), (1, 2), (9, 7)] {
            mem.write_u32(0x1000 + 4 * lane, value);
        }
        let trace = trace_both_ways(&launch, &mem, 0, 1_000).unwrap();
        assert_eq!(trace.bb_counts.len(), 3, "the guarded block runs");
        let quiet = trace_both_ways(&launch, &AddressSpace::new(), 0, 1_000).unwrap();
        assert_eq!(quiet.bb_counts.len(), 2, "all zeros skip it");

        // The branch reads back what the warp stored: only executing the
        // store (outside any slice of registers) gets it right.
        let mut kb = KernelBuilder::new("store_load_branch");
        let base = kb.sreg();
        kb.load_arg(base, 0);
        let (off, x) = (kb.vreg(), kb.vreg());
        kb.valu(VAluOp::Shl, off, VectorSrc::LaneId, VectorSrc::Imm(2));
        kb.valu(VAluOp::Add, x, VectorSrc::LaneId, VectorSrc::Imm(5));
        kb.global_store(x, base, off, 0, MemWidth::B32);
        kb.global_load(x, base, off, 0, MemWidth::B32);
        kb.vcmp(CmpOp::Gt, VectorSrc::Reg(x), VectorSrc::Imm(3), false);
        kb.if_vcc(|kb| {
            kb.vmov(x, VectorSrc::Imm(0));
        });
        let launch = launch_of(kb, 0);
        let trace = trace_both_ways(&launch, &AddressSpace::new(), 0, 1_000).unwrap();
        assert_eq!(trace.bb_counts.len(), 3, "the stored values pass the test");
    }

    #[test]
    fn a_vector_compare_under_a_narrowed_exec_reads_exec() {
        // EXEC reaches the branch only through the compare's lane-wise
        // write of VCC.
        let mut kb = KernelBuilder::new("narrow_cmp");
        let (s_vcc, n) = (kb.sreg(), kb.sreg());
        kb.push(gpu_isa::Inst::SWriteMask {
            dst: gpu_isa::MaskReg::Exec,
            src: gpu_isa::ScalarSrc::Imm(0xff),
        });
        kb.vcmp(CmpOp::Lt, VectorSrc::LaneId, VectorSrc::Imm(32), false);
        kb.push(gpu_isa::Inst::SReadMask {
            dst: s_vcc,
            src: gpu_isa::MaskReg::Vcc,
        });
        kb.scmp(CmpOp::Eq, s_vcc, 0xffi64);
        kb.if_scc(|kb| {
            kb.smov(n, 1i64);
        });
        let launch = launch_of(kb, 0);
        assert!(launch.kernel.program().control_slice()[0]);
        let trace = trace_both_ways(&launch, &AddressSpace::new(), 0, 1_000).unwrap();
        assert_eq!(
            trace.bb_counts.len(),
            3,
            "eight lanes compared: the guarded block runs"
        );
    }

    /// The 1 % sample Photon traces on `resnet50_kernels` (ResNet-50 at
    /// input 64, channels / 8): how many of the instructions it charges
    /// the tracer executed.
    #[test]
    fn the_resnet_sample_executes_under_half_of_what_it_charges() {
        let case = corpus::resnet50_kernels();
        let (mut executed, mut charged) = (0, 0);
        for l in &case.launches {
            let total = l.total_warps();
            let k = total.div_ceil(100).max(8).min(total);
            for i in 0..k {
                let w = ((i as f64 + 0.5) * total as f64 / k as f64) as u64;
                TRACE_EXECUTED.set(0);
                charged += trace_warp_isolated(l, &case.image, w.min(total - 1), u64::MAX)
                    .unwrap()
                    .insts;
                executed += TRACE_EXECUTED.get();
            }
        }
        assert_eq!(charged, 1_231_928, "the sample the benchmark charges");
        let share = executed as f64 / charged as f64;
        assert!(
            share <= 0.45,
            "executed {executed} of {charged} ({share:.3})"
        );
    }

    /// Kernel: each warp stores (global_warp_id + lane) to out[tid].
    fn simple_launch(num_wgs: u32, warps_per_wg: u32, out: u64) -> KernelLaunch {
        let mut kb = KernelBuilder::new("store_tid");
        let s_out = kb.sreg();
        kb.load_arg(s_out, 0);
        let v_tid = kb.vreg();
        kb.global_thread_id(v_tid);
        let v_off = kb.vreg();
        kb.valu(VAluOp::Shl, v_off, VectorSrc::Reg(v_tid), VectorSrc::Imm(2));
        kb.global_store(v_tid, s_out, v_off, 0, MemWidth::B32);
        let k = Kernel::new(kb.finish().unwrap());
        KernelLaunch::new(k, num_wgs, warps_per_wg, vec![out])
    }

    #[test]
    fn isolated_trace_has_no_side_effects() {
        let launch = simple_launch(2, 2, 0x1000);
        let mem = AddressSpace::new();
        let trace = trace_warp_isolated(&launch, &mem, 3, 1_000_000).unwrap();
        assert!(trace.insts > 0);
        assert_eq!(mem.read_u32(0x1000), 0);
    }

    #[test]
    fn wg_functional_commits() {
        let launch = simple_launch(2, 2, 0x1000);
        let mut mem = AddressSpace::new();
        let (traces, total) = run_wg_functional(&launch, &mut mem, 1, 1_000_000).unwrap();
        assert_eq!(traces.len(), 2);
        assert!(total > 0);
        // wg 1 covers global threads 256..512 (2 warps * 64 lanes, offset by wg 1)
        let tid0 = 2 * 64; // first thread of wg 1 (2 warps per wg)
        assert_eq!(mem.read_u32(0x1000 + 4 * tid0 as u64), tid0);
    }

    #[test]
    fn barrier_exchanges_lds_data() {
        // warp 0 writes 42+lane to LDS; all warps barrier; every warp
        // reads LDS and stores to out[warp * 64 + lane].
        let mut kb = KernelBuilder::new("lds_exchange");
        let s_out = kb.sreg();
        kb.load_arg(s_out, 0);
        let s_wiw = kb.sreg();
        kb.special(s_wiw, gpu_isa::SpecialReg::WarpInWg);
        let v_addr = kb.vreg();
        kb.valu(VAluOp::Shl, v_addr, VectorSrc::LaneId, VectorSrc::Imm(2));
        // only warp 0 writes
        kb.scmp(CmpOp::Eq, s_wiw, 0i64);
        kb.if_scc(|kb| {
            let v = kb.vreg();
            kb.valu(VAluOp::Add, v, VectorSrc::LaneId, VectorSrc::Imm(42));
            kb.lds_store(v, v_addr, 0);
        });
        kb.barrier();
        let v_read = kb.vreg();
        kb.lds_load(v_read, v_addr, 0);
        // out offset = (warp_in_wg * 64 + lane) * 4
        let s_base = kb.sreg();
        kb.salu(SAluOp::Mul, s_base, s_wiw, 256i64);
        let v_off = kb.vreg();
        kb.valu(
            VAluOp::Add,
            v_off,
            VectorSrc::Sreg(s_base),
            VectorSrc::Reg(v_addr),
        );
        kb.global_store(v_read, s_out, v_off, 0, MemWidth::B32);
        let k = Kernel::new(kb.finish().unwrap());
        let launch = KernelLaunch::new(k, 1, 4, vec![0x8000]).with_lds(256);

        let mut mem = AddressSpace::new();
        run_wg_functional(&launch, &mut mem, 0, 1_000_000).unwrap();
        // warp 3, lane 5 must have read warp 0's LDS value
        assert_eq!(mem.read_u32(0x8000 + 4 * (3 * 64 + 5)), 42 + 5);
    }

    #[test]
    fn traces_count_loop_blocks() {
        // uniform loop of 10 iterations: loop body block must count 10
        let mut kb = KernelBuilder::new("loop10");
        let i = kb.sreg();
        let acc = kb.sreg();
        kb.smov(acc, 0i64);
        kb.for_uniform(i, 0i64, 10i64, |kb| {
            kb.salu(SAluOp::Add, acc, acc, 1i64);
        });
        let k = Kernel::new(kb.finish().unwrap());
        let launch = KernelLaunch::new(k, 1, 1, vec![]);
        let mem = AddressSpace::new();
        let trace = trace_warp_isolated(&launch, &mem, 0, 1_000_000).unwrap();
        // some block executes exactly 10 times (the loop body)
        assert!(
            trace.bb_counts.iter().any(|(_, c)| *c == 10),
            "no block executed 10 times: {:?}",
            trace.bb_counts
        );
    }

    #[test]
    fn same_type_warps_have_equal_traces() {
        let launch = simple_launch(4, 2, 0x1000);
        let mem = AddressSpace::new();
        let a = trace_warp_isolated(&launch, &mem, 0, 1_000_000).unwrap();
        let b = trace_warp_isolated(&launch, &mem, 7, 1_000_000).unwrap();
        assert_eq!(a, b);
    }
}
