//! The deterministic epoch engine under the Photon controller gives the
//! same answer at every worker-thread count, including counts that cut
//! the shards into uneven chunks: FIR and MM on a 16-CU R9 Nano at 1,
//! 2, 3 (chunks of 6/6/4), 5 (4/4/4/4) and 64 (one shard each) threads.
//! Photon's basic-block and warp sampling engage, so sampled workgroups'
//! durations and every buffered controller callback flow through the
//! epoch barrier's replay; the callback stream is compared call by call.

use gpu_isa::{InstClass, KernelLaunch};
use gpu_sim::{
    BbRecord, Cycle, EngineMode, GpuConfig, GpuSimulator, KernelDirective, KernelResult,
    KernelStartAccess, SamplingController, WarpRecord, WarpTrace, WgMode,
};
use gpu_telemetry::{MetricsSnapshot, Telemetry};
use gpu_workloads::registry::Benchmark;
use gpu_workloads::App;
use photon::{Levels, PhotonConfig, PhotonController};

/// One controller callback, in the order the engine made it, with the
/// controller's answer where it gave one.
#[derive(Debug, Clone, PartialEq)]
enum Call {
    Start(KernelDirective),
    Dispatch(WgMode),
    Bb(BbRecord),
    Warp(WarpRecord),
    Inst(InstClass, Cycle),
    Window(Cycle, u64, Cycle),
    Abort(Option<f64>),
    PredictBb(Cycle),
    PredictAvg(Cycle),
    End(Cycle),
}

/// Photon, with every callback it receives recorded.
struct Recording {
    photon: PhotonController,
    calls: Vec<Call>,
}

impl SamplingController for Recording {
    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.photon.attach_telemetry(telemetry);
    }
    fn on_kernel_start(&mut self, ctx: &mut dyn KernelStartAccess) -> KernelDirective {
        let d = self.photon.on_kernel_start(ctx);
        self.calls.push(Call::Start(d.clone()));
        d
    }
    fn dispatch_mode(&mut self) -> WgMode {
        let m = self.photon.dispatch_mode();
        self.calls.push(Call::Dispatch(m));
        m
    }
    fn on_bb_record(&mut self, rec: &BbRecord) {
        self.calls.push(Call::Bb(*rec));
        self.photon.on_bb_record(rec);
    }
    fn on_warp_retire(&mut self, rec: &WarpRecord) {
        self.calls.push(Call::Warp(*rec));
        self.photon.on_warp_retire(rec);
    }
    fn on_inst_retire(&mut self, class: InstClass, latency: Cycle) {
        self.calls.push(Call::Inst(class, latency));
        self.photon.on_inst_retire(class, latency);
    }
    fn on_ipc_window(&mut self, start: Cycle, insts: u64, window: Cycle) {
        self.calls.push(Call::Window(start, insts, window));
        self.photon.on_ipc_window(start, insts, window);
    }
    fn check_abort(&mut self) -> Option<f64> {
        let a = self.photon.check_abort();
        self.calls.push(Call::Abort(a));
        a
    }
    fn predict_warp_bb(&mut self, trace: &WarpTrace) -> Cycle {
        let c = self.photon.predict_warp_bb(trace);
        self.calls.push(Call::PredictBb(c));
        c
    }
    fn predict_warp_avg(&mut self) -> Cycle {
        let c = self.photon.predict_warp_avg();
        self.calls.push(Call::PredictAvg(c));
        c
    }
    fn on_kernel_end(&mut self, result: &KernelResult) {
        self.calls.push(Call::End(result.cycles));
        self.photon.on_kernel_end(result);
    }
    fn bb_predictions(&mut self) -> Vec<(u32, f64)> {
        self.photon.bb_predictions()
    }
}

fn config(threads: u32) -> GpuConfig {
    let mut cfg = GpuConfig::r9_nano()
        .with_num_cus(16)
        .with_engine_mode(EngineMode::Deterministic);
    cfg.engine.threads = threads;
    cfg
}

/// What one run did: per-kernel results, the callback stream, and the
/// whole metrics registry.
type Outcome = (Vec<KernelResult>, Vec<Call>, MetricsSnapshot);

fn run(threads: u32, build: &dyn Fn(&mut GpuSimulator) -> App) -> Outcome {
    let cfg = config(threads);
    let mut gpu = GpuSimulator::new(cfg.clone());
    let app = build(&mut gpu);
    let launches: Vec<KernelLaunch> = app.launches().iter().map(|l| l.launch.clone()).collect();
    let photon = PhotonConfig::with_levels(Levels::all()).small_windows(128, 64);
    let mut ctrl = Recording {
        photon: PhotonController::new(photon, u64::from(cfg.num_cus)),
        calls: Vec::new(),
    };
    let kernels = launches
        .iter()
        .map(|l| gpu.run_kernel_sampled(l, &mut ctrl).expect("kernel runs"))
        .collect();
    (kernels, ctrl.calls, gpu.telemetry().snapshot())
}

/// Runs `build` at every thread count against one thread; `modes` are
/// the sampled workgroup modes Photon must pick along the way.
fn check(name: &str, build: &dyn Fn(&mut GpuSimulator) -> App, modes: &[WgMode]) {
    let (want_kernels, want_calls, want_snap) = run(1, build);
    for &m in modes {
        let picked = want_calls.contains(&Call::Dispatch(m));
        assert!(
            picked,
            "{name}: test premise: Photon dispatches {m:?} workgroups"
        );
    }
    assert!(want_snap.counter("engine.epochs").unwrap_or(0) > 100);
    for threads in [2, 3, 5, 64] {
        let (kernels, calls, snap) = run(threads, build);
        for (want, got) in want_kernels.iter().zip(&kernels) {
            let (want, got) = (want.accounting.as_ref(), got.accounting.as_ref());
            assert!(want.is_some(), "{name}: accounting present");
            assert_eq!(want, got, "{name}, {threads} threads: cycle accounting");
        }
        assert_eq!(
            want_kernels, kernels,
            "{name}, {threads} threads: kernel results"
        );
        if let Some(i) = want_calls.iter().zip(&calls).position(|(w, g)| w != g) {
            panic!(
                "{name}, {threads} threads: callback {i}: want {:?}, got {:?}",
                want_calls[i], calls[i]
            );
        }
        assert_eq!(want_calls.len(), calls.len(), "{name}, {threads} threads");
        assert_eq!(
            want_snap, snap,
            "{name}, {threads} threads: metrics snapshot"
        );
    }
}

#[test]
fn fir_under_photon_is_thread_invariant_on_uneven_chunks() {
    check(
        "FIR",
        &|gpu| Benchmark::Fir.build(gpu, 1024, 3),
        &[WgMode::WarpSampled],
    );
}

#[test]
fn mm_under_photon_is_thread_invariant_on_uneven_chunks() {
    check(
        "MM",
        &|gpu| Benchmark::Mm.build(gpu, 1024, 3),
        &[WgMode::BbSampled, WgMode::WarpSampled],
    );
}
