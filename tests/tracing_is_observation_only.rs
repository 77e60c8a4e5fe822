//! Event tracing observes a run and never steers it: the same seeded
//! Photon run yields identical simulated cycles with and without a
//! trace ring attached, and the attached run records the controller's
//! decisions.

use gpu_sim::{GpuConfig, GpuSimulator};
use gpu_telemetry::{EventKind, Telemetry, TraceLog};
use gpu_workloads::registry::Benchmark;
use photon::{Levels, PhotonConfig, PhotonController};

/// FIR under Photon, launched twice so kernel-sampling decides too.
fn run_photon(trace_capacity: Option<usize>) -> (Vec<u64>, TraceLog) {
    let cfg = GpuConfig::r9_nano().with_num_cus(8);
    let tel = Telemetry::default();
    if let Some(capacity) = trace_capacity {
        tel.enable_tracing(capacity);
    }
    let mut gpu = GpuSimulator::with_telemetry(cfg.clone(), tel.clone());
    let app = Benchmark::Fir.build(&mut gpu, 512, 3);
    let pcfg = PhotonConfig::with_levels(Levels::all()).small_windows(128, 64);
    let mut ph = PhotonController::new(pcfg, cfg.num_cus as u64);
    let mut cycles = Vec::new();
    for _ in 0..2 {
        let result = app.run(&mut gpu, &mut ph).expect("photon run");
        cycles.extend(result.kernels.iter().map(|k| k.cycles));
    }
    (cycles, tel.take_events())
}

#[test]
fn attached_ring_changes_no_simulated_cycle() {
    let (plain, no_log) = run_photon(None);
    let (traced, log) = run_photon(Some(1 << 16));

    assert_eq!(plain, traced, "tracing moved sim_cycles");
    assert!(no_log.events.is_empty() && no_log.dropped == 0);
    let decisions = log
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ControllerDecision { .. }))
        .count();
    assert!(
        decisions >= 1,
        "no ControllerDecision among {} events ({} dropped)",
        log.events.len(),
        log.dropped
    );
}
