//! Guardrail tests: the pre-flight validator, the barrier-deadlock
//! detector, and the cycle-fuel watchdog must turn pathological kernels
//! into typed errors in bounded time instead of hangs or panics.

use gpu_isa::{
    CmpOp, Inst, Kernel, KernelBuilder, KernelLaunch, MemWidth, Program, SpecialReg, Sreg, VAluOp,
    VectorSrc,
};
use gpu_sim::{GpuConfig, GpuSimulator, SimError};

/// A kernel where only warp 1 of each workgroup reaches the barrier:
/// the classic mismatched-barrier deadlock. The branch is scalar
/// (uniform per warp), so the pre-flight divergence check passes.
fn mismatched_barrier_kernel() -> Kernel {
    let mut kb = KernelBuilder::new("half_barrier");
    let s = kb.sreg();
    kb.special(s, SpecialReg::WarpInWg);
    kb.scmp(CmpOp::Eq, s, 1i64);
    kb.if_scc(|kb| {
        kb.barrier();
    });
    Kernel::new(kb.finish().unwrap())
}

#[test]
fn mismatched_barrier_is_reported_as_deadlock() {
    let launch = KernelLaunch::new(mismatched_barrier_kernel(), 2, 2, vec![]);
    let mut gpu = GpuSimulator::new(GpuConfig::tiny());
    match gpu.run_kernel(&launch) {
        Err(SimError::Deadlock { snapshot }) => {
            // The snapshot must name the stuck warp and the short count.
            assert!(
                snapshot.stuck.iter().any(|w| w.at_barrier),
                "no stuck warp flagged at a barrier: {snapshot}"
            );
            assert!(
                snapshot
                    .barriers
                    .iter()
                    .any(|&(_, arrived, expected)| arrived < expected),
                "no under-subscribed barrier in snapshot: {snapshot}"
            );
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

#[test]
fn runaway_kernel_exhausts_fuel_in_bounded_time() {
    // An unconditional self-loop: each step makes forward progress, so
    // only the fuel budget can stop it. A small budget keeps the test
    // fast; the default (100M cycles on tiny) is for real workloads.
    let program =
        Program::from_insts("spin", vec![Inst::Branch { target: 0 }, Inst::SEndpgm]).unwrap();
    let launch = KernelLaunch::new(Kernel::new(program), 1, 1, vec![]);
    let mut cfg = GpuConfig::tiny();
    cfg.watchdog.cycle_fuel = 50_000;
    let mut gpu = GpuSimulator::new(cfg);
    match gpu.run_kernel(&launch) {
        Err(SimError::FuelExhausted { fuel, snapshot }) => {
            assert_eq!(fuel, 50_000);
            assert!(!snapshot.stuck.is_empty(), "snapshot lists no warps");
        }
        other => panic!("expected FuelExhausted, got {other:?}"),
    }
}

#[test]
fn aborted_kernel_still_publishes_its_memory_statistics() {
    // A memory-bound kernel (every lane loads its own cache line) cut
    // short by the fuel watchdog: the registry that flight records and
    // skipped-run reports snapshot must hold the misses and queue delays
    // of exactly the kernel that failed.
    let mut cfg = GpuConfig::tiny();
    cfg.watchdog.cycle_fuel = 2_000;
    let mut gpu = GpuSimulator::new(cfg);
    let threads = 64 * 4 * 64u64;
    let a = gpu.alloc_buffer(threads * 128 + 4).unwrap();
    let mut kb = KernelBuilder::new("strided_loads");
    let sa = kb.sreg();
    kb.load_arg(sa, 0);
    let tid = kb.vreg();
    kb.global_thread_id(tid);
    let off = kb.vreg();
    kb.valu(VAluOp::Shl, off, VectorSrc::Reg(tid), VectorSrc::Imm(7));
    let v = kb.vreg();
    kb.global_load(v, sa, off, 0, MemWidth::B32);
    kb.global_store(v, sa, off, 0, MemWidth::B32);
    let launch = KernelLaunch::new(Kernel::new(kb.finish().unwrap()), 64, 4, vec![a]);
    match gpu.run_kernel(&launch) {
        Err(SimError::FuelExhausted { .. }) => {}
        other => panic!("expected FuelExhausted, got {other:?}"),
    }
    let snap = gpu.telemetry().snapshot();
    let misses = snap.counter("mem.l1v.misses").unwrap_or(0);
    assert!(misses > 0, "the aborted kernel's misses were dropped");
    assert_eq!(misses, gpu.mem_stats().l1v_misses);
    let delays = snap
        .histograms
        .iter()
        .find(|h| h.name == "mem.l1v.queue_delay")
        .expect("queue-delay histogram");
    assert!(
        delays.count > 0,
        "the aborted kernel's queue delays were dropped"
    );
}

#[test]
fn invalid_kernel_is_rejected_before_simulation() {
    // An argument load with no arguments bound: the pre-flight validator
    // must refuse the launch before any cycle is simulated.
    let program = Program::from_insts(
        "bad_arg",
        vec![
            Inst::SLoadArg {
                dst: Sreg::new(0),
                index: 3,
            },
            Inst::SEndpgm,
        ],
    )
    .unwrap();
    let launch = KernelLaunch::new(Kernel::new(program), 1, 1, vec![]);
    let mut gpu = GpuSimulator::new(GpuConfig::tiny());
    match gpu.run_kernel(&launch) {
        Err(SimError::InvalidKernel(e)) => {
            let msg = e.to_string();
            assert!(msg.contains("argument"), "unexpected message: {msg}");
        }
        other => panic!("expected InvalidKernel, got {other:?}"),
    }
}

#[test]
fn well_formed_kernel_still_runs_under_guardrails() {
    // The same barrier pattern, but subscribed by every warp: guardrails
    // must not flag a healthy kernel.
    let mut kb = KernelBuilder::new("full_barrier");
    kb.barrier();
    let launch = KernelLaunch::new(Kernel::new(kb.finish().unwrap()), 2, 2, vec![]);
    let mut gpu = GpuSimulator::new(GpuConfig::tiny());
    let result = gpu.run_kernel(&launch).unwrap();
    assert!(result.cycles > 0);
}
