//! The `Trace` handle's run-time gate: un-attached, an emit site never
//! builds its event; attached, clones share one ring buffer with
//! drop-oldest overflow.

use gpu_telemetry::{EventKind, Telemetry, TraceEvent};

fn ev(ts: u64) -> TraceEvent {
    TraceEvent {
        ts,
        dur: 0,
        kind: EventKind::DramAccess { channel: 0 },
    }
}

#[test]
fn unattached_handle_never_builds_an_event() {
    let tel = Telemetry::default();
    assert!(!tel.tracing_active());

    // The closure must not run: hot paths skip event construction, not
    // just recording.
    let mut built = false;
    tel.trace().emit_with(|| {
        built = true;
        ev(1)
    });
    assert!(!built);

    let log = tel.take_events();
    assert!(log.events.is_empty());
    assert_eq!(log.dropped, 0);
}

#[test]
fn attached_ring_is_shared_by_clones_and_drops_oldest() {
    let tel = Telemetry::default();
    let clone = tel.clone();

    // Attaching through one handle activates every clone.
    tel.enable_tracing(4);
    assert!(clone.tracing_active());
    for i in 1..=6u64 {
        clone.trace().emit_with(|| ev(i));
    }

    // Ring of 4: the two oldest of the six were overwritten.
    let log = tel.take_events();
    assert_eq!(log.dropped, 2);
    let ts: Vec<u64> = log.events.iter().map(|e| e.ts).collect();
    assert_eq!(ts, vec![3, 4, 5, 6]);

    // take() drains but leaves the ring attached.
    assert!(tel.tracing_active());
    assert!(tel.take_events().events.is_empty());
}
