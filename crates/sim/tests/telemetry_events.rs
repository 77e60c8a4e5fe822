//! Trace-event integration tests: a detailed run must produce a
//! coherent event stream — kernel span, dispatches, warp retirements,
//! cache traffic — and a watchdog abort must leave a diagnosable
//! `WatchdogAbort` event.

use gpu_isa::{CmpOp, Kernel, KernelBuilder, KernelLaunch, SpecialReg};
use gpu_sim::{GpuConfig, GpuSimulator, SimError};
use gpu_telemetry::{AbortKind, EventKind, Telemetry};

fn simple_launch(wgs: u32, warps_per_wg: u32) -> KernelLaunch {
    let mut kb = KernelBuilder::new("bar");
    kb.barrier();
    KernelLaunch::new(Kernel::new(kb.finish().unwrap()), wgs, warps_per_wg, vec![])
}

#[test]
fn detailed_run_emits_coherent_event_stream() {
    let tel = Telemetry::default();
    tel.enable_tracing(1 << 16);
    let mut gpu = GpuSimulator::with_telemetry(GpuConfig::tiny(), tel.clone());
    let result = gpu.run_kernel(&simple_launch(2, 2)).unwrap();

    let log = tel.take_events();
    assert_eq!(log.dropped, 0);
    let count = |pred: &dyn Fn(&EventKind) -> bool| {
        log.events.iter().filter(|e| pred(&e.kind)).count() as u64
    };

    assert_eq!(count(&|k| matches!(k, EventKind::KernelBegin { .. })), 1);
    assert_eq!(count(&|k| matches!(k, EventKind::WgDispatch { .. })), 2);
    assert_eq!(
        count(&|k| matches!(k, EventKind::WarpRetire { .. })),
        result.detailed_warps
    );
    // Each workgroup's barrier waits twice and releases once.
    assert_eq!(count(&|k| matches!(k, EventKind::BarrierWait { .. })), 4);
    assert_eq!(count(&|k| matches!(k, EventKind::BarrierRelease { .. })), 2);

    // The kernel span closes the stream with the measured duration.
    let Some(end) = log.events.iter().rev().find_map(|e| match &e.kind {
        EventKind::KernelEnd {
            cycles, skipped, ..
        } => Some((*cycles, *skipped)),
        _ => None,
    }) else {
        panic!("no KernelEnd event");
    };
    assert_eq!(end, (result.cycles, false));

    // Draining left the ring attached: a second kernel records again.
    gpu.run_kernel(&simple_launch(1, 1)).unwrap();
    assert!(tel
        .take_events()
        .events
        .iter()
        .any(|e| matches!(e.kind, EventKind::KernelBegin { seq: 1, .. })));
}

#[test]
fn watchdog_abort_is_diagnosable_from_the_trace() {
    // Only warp 1 reaches the barrier (uniform scalar branch), the
    // classic mismatched-barrier deadlock from the guardrail tests.
    let mut kb = KernelBuilder::new("half_barrier");
    let s = kb.sreg();
    kb.special(s, SpecialReg::WarpInWg);
    kb.scmp(CmpOp::Eq, s, 1i64);
    kb.if_scc(|kb| {
        kb.barrier();
    });
    let launch = KernelLaunch::new(Kernel::new(kb.finish().unwrap()), 2, 2, vec![]);

    let tel = Telemetry::default();
    tel.enable_tracing(1 << 16);
    let mut gpu = GpuSimulator::with_telemetry(GpuConfig::tiny(), tel.clone());
    let err = gpu.run_kernel(&launch).unwrap_err();
    assert!(matches!(err, SimError::Deadlock { .. }));

    let log = tel.take_events();
    let abort = log
        .events
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::WatchdogAbort {
                kind,
                stuck_warps,
                detail,
            } => Some((*kind, *stuck_warps, detail.clone())),
            _ => None,
        })
        .expect("no WatchdogAbort event in trace");
    assert_eq!(abort.0, AbortKind::Deadlock);
    assert!(abort.1 > 0);
    // The rendered snapshot names the barrier, so the exported trace
    // alone explains the abort.
    assert!(
        abort.2.contains("barrier"),
        "snapshot detail not diagnosable: {}",
        abort.2
    );
    assert_eq!(tel.snapshot().counter("sim.watchdog.aborts"), Some(1));
}
