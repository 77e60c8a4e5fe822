//! Decision-level tests of the Photon controller through a mock
//! engine context: kernel-sampling matching, level gating, and mode
//! transitions, without running the timing simulator.

use gpu_isa::{BasicBlockId, Inst, Kernel, KernelBuilder, KernelLaunch, VAluOp, VectorSrc};
use gpu_sim::{
    BbRecord, KernelDirective, KernelResult, KernelStartAccess, SamplingController, SimError,
    WarpRecord, WarpTrace, WgMode,
};
use photon::{Levels, PhotonConfig, PhotonController};

/// A fake engine: hands out a fixed trace for every sampled warp
/// (or a tracing fault, when `fail` is set).
struct MockCtx {
    launch: KernelLaunch,
    trace: WarpTrace,
    traced: u64,
    fail: bool,
}

impl MockCtx {
    fn new(warps: u64, trace: WarpTrace) -> Self {
        let mut kb = KernelBuilder::new("mock");
        let v = kb.vreg();
        kb.valu(VAluOp::Add, v, VectorSrc::LaneId, VectorSrc::Imm(1));
        let kernel = Kernel::new(kb.finish().unwrap());
        MockCtx {
            launch: KernelLaunch::new(kernel, warps as u32, 1, vec![]),
            trace,
            traced: 0,
            fail: false,
        }
    }

    fn failing(warps: u64, trace: WarpTrace) -> Self {
        let mut ctx = Self::new(warps, trace);
        ctx.fail = true;
        ctx
    }
}

impl KernelStartAccess for MockCtx {
    fn launch(&self) -> &KernelLaunch {
        &self.launch
    }
    fn total_warps(&self) -> u64 {
        self.launch.total_warps()
    }
    fn trace_warp(&mut self, global_warp: u64) -> Result<WarpTrace, SimError> {
        if self.fail {
            return Err(SimError::InstLimitExceeded {
                warp: global_warp,
                limit: 1,
            });
        }
        self.traced += 1;
        Ok(self.trace.clone())
    }
}

fn uniform_trace(insts: u64) -> WarpTrace {
    WarpTrace::from_counts(vec![(BasicBlockId(0), 1)], insts)
}

fn finish_kernel(ctrl: &mut PhotonController, cycles: u64, warps: u64) {
    let result = KernelResult {
        name: "mock".into(),
        cycles,
        start_cycle: 0,
        detailed_insts: warps * 10,
        functional_insts: 0,
        total_warps: warps,
        detailed_warps: warps,
        predicted_warps: 0,
        ipc_timeline: vec![],
        ipc_window: 2048,
        skipped: false,
        mem: Default::default(),
        accounting: None,
        bb_stats: Vec::new(),
    };
    ctrl.on_kernel_end(&result);
}

#[test]
fn identical_kernel_matches_history_and_scales() {
    let mut ctrl = PhotonController::new(PhotonConfig::default(), 64);
    // kernel A: simulate and record
    let mut ctx = MockCtx::new(1000, uniform_trace(10));
    assert_eq!(ctrl.on_kernel_start(&mut ctx), KernelDirective::Simulate);
    finish_kernel(&mut ctrl, 5000, 1000);

    // kernel A again: must be skipped with roughly the same time
    let mut ctx2 = MockCtx::new(1000, uniform_trace(10));
    match ctrl.on_kernel_start(&mut ctx2) {
        KernelDirective::Skip {
            predicted_cycles, ..
        } => {
            assert!(
                (predicted_cycles as f64 - 5000.0).abs() / 5000.0 < 0.05,
                "predicted {predicted_cycles}"
            );
        }
        other => panic!("expected skip, got {other:?}"),
    }
    assert_eq!(ctrl.stats().kernels_skipped, 1);
}

#[test]
fn different_shape_does_not_match() {
    let mut ctrl = PhotonController::new(PhotonConfig::default(), 64);
    let mut ctx = MockCtx::new(1000, uniform_trace(10));
    ctrl.on_kernel_start(&mut ctx);
    finish_kernel(&mut ctrl, 5000, 1000);

    // a kernel with 50x the per-warp work (different trip counts):
    // the instructions-per-warp term of the GPU-BBV distance separates it
    let other = WarpTrace::from_counts(vec![(BasicBlockId(0), 50)], 500);
    let mut ctx2 = MockCtx::new(1000, other);
    assert_eq!(ctrl.on_kernel_start(&mut ctx2), KernelDirective::Simulate);
}

#[test]
fn kernel_level_disabled_never_skips() {
    let mut ctrl = PhotonController::new(PhotonConfig::with_levels(Levels::bb_only()), 64);
    for _ in 0..3 {
        let mut ctx = MockCtx::new(1000, uniform_trace(10));
        assert_eq!(ctrl.on_kernel_start(&mut ctx), KernelDirective::Simulate);
        finish_kernel(&mut ctrl, 5000, 1000);
    }
    assert_eq!(ctrl.stats().kernels_skipped, 0);
}

#[test]
fn small_kernels_need_exact_warp_count() {
    // fewer warps than the GPU has CUs: §4.3's exact-match rule
    let mut ctrl = PhotonController::new(PhotonConfig::default(), 64);
    let mut ctx = MockCtx::new(32, uniform_trace(10));
    ctrl.on_kernel_start(&mut ctx);
    finish_kernel(&mut ctrl, 700, 32);

    // same shape, different (still small) warp count: no match
    let mut ctx2 = MockCtx::new(48, uniform_trace(10));
    assert_eq!(ctrl.on_kernel_start(&mut ctx2), KernelDirective::Simulate);
    // exact warp count: match
    let mut ctx3 = MockCtx::new(32, uniform_trace(10));
    assert!(matches!(
        ctrl.on_kernel_start(&mut ctx3),
        KernelDirective::Skip { .. }
    ));
}

#[test]
fn warp_mode_transition_via_records() {
    // Feed stable warp records directly; the controller must switch its
    // dispatch mode to WarpSampled.
    let cfg = PhotonConfig::default().small_windows(16, 16);
    let mut ctrl = PhotonController::new(cfg, 64);
    let mut ctx = MockCtx::new(10_000, uniform_trace(10));
    ctrl.on_kernel_start(&mut ctx);
    assert_eq!(ctrl.dispatch_mode(), WgMode::Detailed);

    for i in 0..64u64 {
        ctrl.on_warp_retire(&WarpRecord {
            warp: i,
            issue: 1000 + i * 50,
            retire: 1000 + i * 50 + 800,
            insts: 10,
        });
    }
    assert_eq!(ctrl.dispatch_mode(), WgMode::WarpSampled);
    assert_eq!(ctrl.predict_warp_avg(), 800);
    assert_eq!(ctrl.stats().warp_switches, 1);
}

#[test]
fn bb_mode_transition_via_records() {
    let cfg = PhotonConfig::with_levels(Levels::bb_only()).small_windows(16, 16);
    let mut ctrl = PhotonController::new(cfg, 64);
    let mut ctx = MockCtx::new(10_000, uniform_trace(10));
    ctrl.on_kernel_start(&mut ctx);

    for i in 0..64u64 {
        ctrl.on_bb_record(&BbRecord {
            warp: i,
            bb: BasicBlockId(0),
            start: 500 + i * 40,
            end: 500 + i * 40 + 120,
            insts: 10,
        });
    }
    assert_eq!(ctrl.dispatch_mode(), WgMode::BbSampled);
    assert_eq!(ctrl.stats().bb_switches, 1);
    // the warp prediction for a trace of one bb0 execution = its mean
    let pred = ctrl.predict_warp_bb(&uniform_trace(10));
    assert_eq!(pred, 120);
}

#[test]
fn unstable_records_keep_detailed_mode() {
    let cfg = PhotonConfig::default().small_windows(16, 16);
    let mut ctrl = PhotonController::new(cfg, 64);
    let mut ctx = MockCtx::new(10_000, uniform_trace(10));
    ctrl.on_kernel_start(&mut ctx);
    for i in 0..64u64 {
        // durations exploding: never stable
        ctrl.on_warp_retire(&WarpRecord {
            warp: i,
            issue: 1000 + i * 50,
            retire: 1000 + i * 50 + 100 * (i + 1),
            insts: 10,
        });
    }
    assert_eq!(ctrl.dispatch_mode(), WgMode::Detailed);
    assert_eq!(ctrl.stats().warp_switches, 0);
}

#[test]
fn latency_table_feeds_from_inst_retires() {
    let mut ctrl = PhotonController::new(
        PhotonConfig::with_levels(Levels::bb_only()).small_windows(16, 16),
        64,
    );
    let mut ctx = MockCtx::new(10_000, uniform_trace(10));
    ctrl.on_kernel_start(&mut ctx);
    for _ in 0..100 {
        ctrl.on_inst_retire(gpu_isa::InstClass::MemLoad, 333);
    }
    // rare-bb prediction paths consume the table through predict_warp_bb;
    // a block never seen in records must still predict a positive time
    let unseen = WarpTrace::from_counts(vec![(BasicBlockId(0), 1)], 1);
    assert!(ctrl.predict_warp_bb(&unseen) >= 1);
}

#[test]
fn offline_analyses_are_consumed_in_order() {
    // Build analyses by running a controller once, then replay them.
    let mut first = PhotonController::new(PhotonConfig::default(), 64);
    let mut ctx = MockCtx::new(1000, uniform_trace(10));
    first.on_kernel_start(&mut ctx);
    let traced_online = ctx.traced;
    assert!(traced_online > 0);
    finish_kernel(&mut first, 5000, 1000);

    let analyses = first.export_analyses().to_vec();
    let mut replay = PhotonController::with_offline(PhotonConfig::default(), 64, analyses);
    let mut ctx2 = MockCtx::new(1000, uniform_trace(10));
    replay.on_kernel_start(&mut ctx2);
    assert_eq!(ctx2.traced, 0, "offline mode must not trace");
}

#[test]
fn failed_tracing_falls_back_to_detailed() {
    // A sample warp that faults during online analysis must not panic,
    // must run the kernel fully detailed, and must leave no history
    // entry behind that a later kernel could match.
    let mut ctrl = PhotonController::new(PhotonConfig::default(), 64);
    let mut bad = MockCtx::failing(1000, uniform_trace(10));
    assert_eq!(ctrl.on_kernel_start(&mut bad), KernelDirective::Simulate);
    assert_eq!(ctrl.dispatch_mode(), WgMode::Detailed);
    assert_eq!(ctrl.stats().full_detailed, 1);
    finish_kernel(&mut ctrl, 5000, 1000);
    assert!(ctrl.history().records().is_empty());

    // A healthy identical kernel afterwards still works normally.
    let mut good = MockCtx::new(1000, uniform_trace(10));
    assert_eq!(ctrl.on_kernel_start(&mut good), KernelDirective::Simulate);
    finish_kernel(&mut ctrl, 5000, 1000);
    assert_eq!(ctrl.history().records().len(), 1);
}

#[test]
fn registry_counters_mirror_stats() {
    let tel = gpu_telemetry::Telemetry::default();
    let mut ctrl = PhotonController::new(PhotonConfig::default(), 64);
    ctrl.attach_telemetry(&tel);

    // First launch simulates fully detailed; the identical second one
    // is skipped by kernel-sampling.
    let mut ctx = MockCtx::new(1000, uniform_trace(10));
    assert_eq!(ctrl.on_kernel_start(&mut ctx), KernelDirective::Simulate);
    finish_kernel(&mut ctrl, 5000, 1000);
    let mut ctx2 = MockCtx::new(1000, uniform_trace(10));
    assert!(matches!(
        ctrl.on_kernel_start(&mut ctx2),
        KernelDirective::Skip { .. }
    ));

    let snap = tel.snapshot();
    assert_eq!(snap.counter("photon.kernels"), Some(ctrl.stats().kernels));
    assert_eq!(
        snap.counter("photon.kernels.skipped"),
        Some(ctrl.stats().kernels_skipped)
    );
    assert_eq!(
        snap.counter("photon.full_detailed"),
        Some(ctrl.stats().full_detailed)
    );
    assert_eq!(snap.counter("photon.bb_switches"), Some(0));
}

#[test]
fn skip_decision_lands_in_the_trace() {
    let tel = gpu_telemetry::Telemetry::default();
    tel.enable_tracing(1024);
    let mut ctrl = PhotonController::new(PhotonConfig::default(), 64);
    ctrl.attach_telemetry(&tel);

    let mut ctx = MockCtx::new(1000, uniform_trace(10));
    ctrl.on_kernel_start(&mut ctx);
    finish_kernel(&mut ctrl, 5000, 1000);
    let mut ctx2 = MockCtx::new(1000, uniform_trace(10));
    ctrl.on_kernel_start(&mut ctx2);

    let log = tel.take_events();
    assert!(
        log.events.iter().any(|e| matches!(
            &e.kind,
            gpu_telemetry::EventKind::ControllerDecision {
                controller,
                decision,
                ..
            } if controller == "photon" && decision == "kernel-skip"
        )),
        "no kernel-skip decision in {} events",
        log.events.len()
    );
}

#[test]
fn mock_program_has_expected_blocks() {
    // sanity on the mock itself
    let ctx = MockCtx::new(4, uniform_trace(10));
    let map = ctx.launch.kernel.program().basic_blocks();
    assert_eq!(map.len(), 1);
    assert!(matches!(ctx.launch.kernel.program().inst(1), Inst::SEndpgm));
}
