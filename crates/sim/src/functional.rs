//! Functional (fast-forward) execution.
//!
//! Two entry points:
//!
//! * [`trace_warp_isolated`] — Photon's online analysis primitive: run
//!   one warp against a copy-on-write overlay (no side effects),
//!   treating barriers as no-ops and LDS as private scratch, and return
//!   its [`WarpTrace`] (per-block execution counts = the warp's BBV).
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

fn bb_counts_to_trace(counts: Vec<u32>, insts: u64) -> WarpTrace {
    let bb_counts = counts
        .into_iter()
        .enumerate()
        .filter(|(_, c)| *c > 0)
        .map(|(i, c)| (BasicBlockId(i as u32), c))
        .collect();
    WarpTrace::from_counts(bb_counts, insts)
}

/// Functionally executes one warp in isolation over a memory overlay.
///
/// Returns the trace and the number of instructions executed (charged
/// as functional work by callers).
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
    let mut counts = vec![0u32; program.basic_blocks().len()];
    let mut overlay = OverlayMem::new(mem);
    let mut lds = vec![0u8; launch.lds_bytes.max(4) as usize];
    let mut warp = WarpState::new();
    let env = LaunchEnv {
        args: &launch.args,
        wg_id: (global_warp / launch.warps_per_wg as u64) as u32,
        warp_in_wg: (global_warp % launch.warps_per_wg as u64) as u32,
        warps_per_wg: launch.warps_per_wg,
        num_wgs: launch.num_wgs,
    };
    let mut insts = 0u64;
    let mut lines = Vec::new();
    loop {
        let op = fetch(&warp, ops, &env)?;
        if let Some(bb) = op.block_start() {
            counts[bb.index()] += 1;
        }
        let info = execute(&mut warp, op, &mut overlay, &mut lds, &env, &mut lines)?;
        insts += 1;
        if insts > max_insts {
            return Err(SimError::InstLimitExceeded {
                warp: global_warp,
                limit: max_insts,
            });
        }
        if info.effect == StepEffect::End {
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
    let mut lines = Vec::new();
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
                let info = execute(warp.state, op, mem, lds, &env, &mut lines)?;
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
    let blocks = launch.kernel.program().basic_blocks().len();
    let mut states: Vec<WarpState> = (0..n).map(|_| WarpState::new()).collect();
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
    use gpu_isa::{CmpOp, Kernel, KernelBuilder, MemWidth, SAluOp, VAluOp, VectorSrc};

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
