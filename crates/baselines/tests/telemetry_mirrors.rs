//! Registry-mirror tests: the baseline controllers must report the same
//! numbers through the shared telemetry registry as through their typed
//! stats structs, and leave decision events in an attached trace.

use gpu_baselines::{
    PkaConfig, PkaController, SieveConfig, SieveController, TbPointConfig, TbPointController,
};
use gpu_sim::{GpuConfig, GpuSimulator};
use gpu_telemetry::{EventKind, Telemetry};
use gpu_workloads::fir;

fn sim_with(tel: &Telemetry) -> GpuSimulator {
    GpuSimulator::with_telemetry(GpuConfig::tiny(), tel.clone())
}

/// Drains the trace and counts `controller`'s `kernel-skip` decisions.
fn traced_kernel_skips(tel: &Telemetry, controller: &str) -> u64 {
    tel.take_events()
        .events
        .iter()
        .filter(|e| {
            matches!(
                &e.kind,
                EventKind::ControllerDecision {
                    controller: c,
                    decision,
                    ..
                } if c == controller && decision == "kernel-skip"
            )
        })
        .count() as u64
}

#[test]
fn sieve_counters_mirror_stats() {
    let tel = Telemetry::default();
    tel.enable_tracing(1 << 14);
    let mut gpu = sim_with(&tel);
    let app = fir::build(&mut gpu, 32, 7);
    let mut sieve = SieveController::new(SieveConfig::default());
    // Identical second run: the stratum has a representative, so the
    // kernel is skipped.
    app.run(&mut gpu, &mut sieve).unwrap();
    app.run(&mut gpu, &mut sieve).unwrap();

    let stats = sieve.stats();
    assert_eq!(stats.kernels, 2);
    assert!(stats.kernels_skipped >= 1);

    let snap = tel.snapshot();
    assert_eq!(snap.counter("sieve.kernels"), Some(stats.kernels));
    assert_eq!(
        snap.counter("sieve.kernels.skipped"),
        Some(stats.kernels_skipped)
    );
    let strata = snap
        .gauges
        .iter()
        .find(|g| g.name == "sieve.strata")
        .map(|g| g.value);
    assert_eq!(strata, Some(stats.strata as f64));

    assert_eq!(traced_kernel_skips(&tel, "sieve"), stats.kernels_skipped);
}

#[test]
fn pka_counters_mirror_stats() {
    let tel = Telemetry::default();
    tel.enable_tracing(1 << 14);
    let mut gpu = sim_with(&tel);
    let app = fir::build(&mut gpu, 32, 7);
    let mut pka = PkaController::new(PkaConfig::default());
    app.run(&mut gpu, &mut pka).unwrap();
    app.run(&mut gpu, &mut pka).unwrap();

    let stats = pka.stats();
    let snap = tel.snapshot();
    assert_eq!(snap.counter("pka.kernels"), Some(stats.kernels));
    assert_eq!(
        snap.counter("pka.kernels.skipped"),
        Some(stats.kernels_skipped)
    );
    assert_eq!(snap.counter("pka.ipc_aborts"), Some(stats.ipc_aborts));
    assert_eq!(traced_kernel_skips(&tel, "pka"), stats.kernels_skipped);
}

#[test]
fn tbpoint_counters_mirror_stats() {
    let tel = Telemetry::default();
    let mut gpu = sim_with(&tel);
    let app = fir::build(&mut gpu, 32, 7);
    // A tiny sample budget so the extrapolation phase is reached.
    let mut tbp = TbPointController::new(TbPointConfig {
        sample_wgs: 1,
        min_sample_warps: 4,
    });
    app.run(&mut gpu, &mut tbp).unwrap();

    let stats = tbp.stats();
    assert_eq!(stats.kernels, 1);
    assert_eq!(stats.extrapolated, 1);
    let snap = tel.snapshot();
    assert_eq!(snap.counter("tbpoint.kernels"), Some(stats.kernels));
    assert_eq!(
        snap.counter("tbpoint.extrapolated"),
        Some(stats.extrapolated)
    );
}
