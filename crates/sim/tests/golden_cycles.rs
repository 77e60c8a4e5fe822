//! Golden-cycles regression suite: pins `cycles`, `detailed_insts`, and
//! `ipc_timeline` for three representative workloads so engine
//! performance work (event-queue changes, allocation removal, latency
//! tables) can never silently change timing. The pinned values were
//! captured from the seed engine (binary-heap event queue, per-inst
//! `LatencyConfig` clones) and every later engine must reproduce them
//! bit-for-bit.

use gpu_isa::{CmpOp, Kernel, KernelBuilder, KernelLaunch, MemWidth, SAluOp, VAluOp, VectorSrc};
use gpu_sim::{EngineMode, GpuConfig, GpuSimulator, NullController};

/// The compact timing fingerprint every engine revision must reproduce.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    cycles: u64,
    detailed_insts: u64,
    ipc_timeline: Vec<u64>,
}

/// A barrier kernel: warp 0 of each workgroup produces LDS values, the
/// whole workgroup synchronizes, every warp consumes. Exercises barrier
/// park/release timing and LDS latency.
fn barrier_launch(gpu: &mut GpuSimulator, num_wgs: u32, warps_per_wg: u32) -> KernelLaunch {
    let out = gpu
        .alloc_buffer(num_wgs as u64 * warps_per_wg as u64 * 64 * 4)
        .unwrap();
    let mut kb = KernelBuilder::new("golden_barrier");
    let s_out = kb.sreg();
    kb.load_arg(s_out, 0);
    let s_wiw = kb.sreg();
    kb.special(s_wiw, gpu_isa::SpecialReg::WarpInWg);
    let v_addr = kb.vreg();
    kb.valu(VAluOp::Shl, v_addr, VectorSrc::LaneId, VectorSrc::Imm(2));
    kb.scmp(CmpOp::Eq, s_wiw, 0i64);
    kb.if_scc(|kb| {
        let v = kb.vreg();
        kb.valu(VAluOp::Add, v, VectorSrc::LaneId, VectorSrc::Imm(11));
        kb.lds_store(v, v_addr, 0);
    });
    kb.barrier();
    let v_read = kb.vreg();
    kb.lds_load(v_read, v_addr, 0);
    let s_wg = kb.sreg();
    kb.special(s_wg, gpu_isa::SpecialReg::WgId);
    let s_base = kb.sreg();
    kb.salu(SAluOp::Mul, s_base, s_wiw, 256i64);
    let s_wgoff = kb.sreg();
    kb.salu(SAluOp::Mul, s_wgoff, s_wg, warps_per_wg as i64 * 256);
    kb.salu(
        SAluOp::Add,
        s_base,
        s_base,
        gpu_isa::ScalarSrc::Reg(s_wgoff),
    );
    let v_off = kb.vreg();
    kb.valu(
        VAluOp::Add,
        v_off,
        VectorSrc::Sreg(s_base),
        VectorSrc::Reg(v_addr),
    );
    kb.global_store(v_read, s_out, v_off, 0, MemWidth::B32);
    let k = Kernel::new(kb.finish().unwrap());
    KernelLaunch::new(k, num_wgs, warps_per_wg, vec![out]).with_lds(256)
}

/// A strided-memory kernel: each lane loads `a[tid * 32]` (one 4-byte
/// word every 128 bytes), so a warp's access fans out over many cache
/// lines — the worst case for the coalescer and the memory hierarchy's
/// queueing model.
fn strided_launch(gpu: &mut GpuSimulator, num_wgs: u32, warps_per_wg: u32) -> KernelLaunch {
    let threads = num_wgs as u64 * warps_per_wg as u64 * 64;
    let a = gpu.alloc_buffer(threads * 128 + 4).unwrap();
    let out = gpu.alloc_buffer(threads * 4).unwrap();
    for i in 0..threads {
        gpu.mem_mut().write_u32(a + 128 * i, (3 * i) as u32);
    }
    let mut kb = KernelBuilder::new("golden_strided");
    let (sa, so) = (kb.sreg(), kb.sreg());
    kb.load_arg(sa, 0);
    kb.load_arg(so, 1);
    let tid = kb.vreg();
    kb.global_thread_id(tid);
    let off_in = kb.vreg();
    kb.valu(VAluOp::Shl, off_in, VectorSrc::Reg(tid), VectorSrc::Imm(7));
    let v = kb.vreg();
    kb.global_load(v, sa, off_in, 0, MemWidth::B32);
    let v2 = kb.vreg();
    kb.valu(VAluOp::Add, v2, VectorSrc::Reg(v), VectorSrc::Imm(1));
    let off_out = kb.vreg();
    kb.valu(VAluOp::Shl, off_out, VectorSrc::Reg(tid), VectorSrc::Imm(2));
    kb.global_store(v2, so, off_out, 0, MemWidth::B32);
    let k = Kernel::new(kb.finish().unwrap());
    KernelLaunch::new(k, num_wgs, warps_per_wg, vec![a, out])
}

fn fingerprint(gpu: &mut GpuSimulator, launch: &KernelLaunch) -> Golden {
    let r = gpu.run_kernel(launch).unwrap();
    Golden {
        cycles: r.cycles,
        detailed_insts: r.detailed_insts,
        ipc_timeline: r.ipc_timeline,
    }
}

#[test]
fn golden_barrier_kernel() {
    let mut gpu = GpuSimulator::new(GpuConfig::tiny());
    let launch = barrier_launch(&mut gpu, 8, 4);
    let got = fingerprint(&mut gpu, &launch);
    assert_eq!(
        got,
        Golden {
            cycles: 439,
            detailed_insts: 464,
            ipc_timeline: vec![464],
        }
    );
    // Functional spot check: wg 3, warp 2, lane 9 sees producer's value.
    let out = launch.args[0];
    assert_eq!(gpu.mem().read_u32(out + 4 * ((3 * 4 + 2) * 64 + 9)), 11 + 9);
}

#[test]
fn golden_strided_kernel() {
    let mut gpu = GpuSimulator::new(GpuConfig::tiny());
    let launch = strided_launch(&mut gpu, 16, 4);
    let got = fingerprint(&mut gpu, &launch);
    assert_eq!(
        got,
        Golden {
            cycles: 1638,
            detailed_insts: 704,
            ipc_timeline: vec![448, 102, 128, 26],
        }
    );
    let out = launch.args[1];
    assert_eq!(gpu.mem().read_u32(out + 4 * 777), 3 * 777 + 1);
}

#[test]
fn golden_multi_kernel_app() {
    // Two kernels back to back on one simulator: cache flushes at the
    // kernel boundary, the clock stays monotone, and the second kernel
    // reads memory the first one wrote.
    let mut gpu = GpuSimulator::new(GpuConfig::tiny());
    let k1 = strided_launch(&mut gpu, 8, 4);
    let k2 = barrier_launch(&mut gpu, 4, 4);
    let g1 = fingerprint(&mut gpu, &k1);
    let g2 = fingerprint(&mut gpu, &k2);
    assert_eq!(
        g1,
        Golden {
            cycles: 1126,
            detailed_insts: 352,
            ipc_timeline: vec![224, 102, 26],
        }
    );
    assert_eq!(
        g2,
        Golden {
            cycles: 439,
            detailed_insts: 232,
            ipc_timeline: vec![232],
        }
    );
    assert_eq!(gpu.clock(), g1.cycles + g2.cycles);
}

/// The tiny config with the deterministic epoch engine at a given
/// worker-thread count (quantum auto-sized to the safe bound).
fn det_config(threads: u32) -> GpuConfig {
    let mut cfg = GpuConfig::tiny();
    cfg.engine.mode = EngineMode::Deterministic;
    cfg.engine.threads = threads;
    cfg
}

/// The deterministic epoch engine must reproduce the serial goldens
/// bit-for-bit at every thread count: the epoch protocol (per-CU
/// shards, barrier-ordered memory service, canonical replay) is a pure
/// reorganization of the same event sequence.
#[test]
fn deterministic_engine_reproduces_serial_goldens() {
    for threads in [1, 2, 4] {
        let mut gpu = GpuSimulator::new(det_config(threads));
        let launch = barrier_launch(&mut gpu, 8, 4);
        let got = fingerprint(&mut gpu, &launch);
        assert_eq!(
            got,
            Golden {
                cycles: 439,
                detailed_insts: 464,
                ipc_timeline: vec![464],
            },
            "barrier kernel, {threads} thread(s)"
        );
        let out = launch.args[0];
        assert_eq!(gpu.mem().read_u32(out + 4 * ((3 * 4 + 2) * 64 + 9)), 11 + 9);

        let mut gpu = GpuSimulator::new(det_config(threads));
        let launch = strided_launch(&mut gpu, 16, 4);
        let got = fingerprint(&mut gpu, &launch);
        assert_eq!(
            got,
            Golden {
                cycles: 1638,
                detailed_insts: 704,
                ipc_timeline: vec![448, 102, 128, 26],
            },
            "strided kernel, {threads} thread(s)"
        );
        let out = launch.args[1];
        assert_eq!(gpu.mem().read_u32(out + 4 * 777), 3 * 777 + 1);
    }
}

/// Seeded-interleaving check on real workloads: a FIR app and a
/// (scaled-down) VGG-16 inference produce *identical* full metrics
/// snapshots — every counter, gauge, and histogram, including the
/// per-shard busy-cycle counters — whether the deterministic engine
/// runs on one worker thread or four.
#[test]
fn deterministic_engine_is_thread_invariant_on_fir_and_vgg16() {
    let scale = gpu_workloads::dnn::DnnScale {
        input_hw: 32,
        channel_div: 32,
    };
    let run_fir = |threads: u32| {
        let mut gpu = GpuSimulator::new(det_config(threads));
        let app = gpu_workloads::fir::build(&mut gpu, 128, 7);
        app.run(&mut gpu, &mut NullController).unwrap();
        gpu.telemetry().snapshot()
    };
    let run_vgg = |threads: u32| {
        let mut gpu = GpuSimulator::new(det_config(threads));
        let app = gpu_workloads::registry::RealWorldApp::Vgg16.build(&mut gpu, scale, 7);
        app.run(&mut gpu, &mut NullController).unwrap();
        gpu.telemetry().snapshot()
    };
    assert_eq!(run_fir(1), run_fir(4), "FIR: threads=1 vs threads=4");
    assert_eq!(run_vgg(1), run_vgg(4), "VGG-16: threads=1 vs threads=4");
}

/// The detailed memory-fidelity model (MSHRs, NoC bank queues, DRAM
/// bank-level parallelism) must keep the deterministic engine
/// thread-invariant: the hierarchy is a deterministic function of the
/// canonical service order, so the worker count may not leak into
/// results. (Serial and deterministic engines interleave CU requests
/// differently on stateful workloads, so serial equivalence is only
/// pinned on the golden kernels — in legacy mode.)
#[test]
fn detailed_fidelity_is_thread_invariant() {
    let detailed = |mut cfg: GpuConfig| {
        cfg.mem = cfg.mem.with_detailed_fidelity();
        cfg
    };
    let run_fir = |cfg: GpuConfig| {
        let mut gpu = GpuSimulator::new(cfg);
        let app = gpu_workloads::fir::build(&mut gpu, 128, 7);
        app.run(&mut gpu, &mut NullController).unwrap();
        (gpu.clock(), gpu.telemetry().snapshot())
    };
    let det1 = run_fir(detailed(det_config(1)));
    let det4 = run_fir(detailed(det_config(4)));
    // Detailed fidelity must actually engage: FIR's overlapping windows
    // coalesce same-line misses into in-flight fills.
    let merges = det1.1.counter("mem.l1v.mshr_merges").unwrap_or(0)
        + det1.1.counter("mem.l2.mshr_merges").unwrap_or(0);
    assert!(merges > 0, "detailed FIR run must coalesce some misses");
    assert_eq!(det1, det4, "FIR: threads=1 vs threads=4");

    // Strided kernel: the golden fingerprint itself (cycles + timeline)
    // must agree across thread counts, and results stay correct.
    let mut prints = Vec::new();
    for threads in [1, 4] {
        let mut gpu = GpuSimulator::new(detailed(det_config(threads)));
        let launch = strided_launch(&mut gpu, 16, 4);
        prints.push(fingerprint(&mut gpu, &launch));
        let out = launch.args[1];
        assert_eq!(gpu.mem().read_u32(out + 4 * 777), 3 * 777 + 1);
    }
    assert_eq!(prints[0], prints[1], "strided: threads=1 vs threads=4");
}
