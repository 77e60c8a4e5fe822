//! Golden-file tests for the exporter: a fixed trace must render to
//! byte-identical Chrome-trace JSON across runs and platforms.
//! Regenerate the goldens with `UPDATE_GOLDEN=1 cargo test -p
//! gpu-telemetry` after an intentional schema change (and bump
//! `SCHEMA_VERSION`).

use gpu_telemetry::export::chrome_trace_json;
use gpu_telemetry::{AbortKind, CacheLevel, EventKind, SampleMode, TraceEvent, TraceLog};
use std::path::Path;

fn fixed_log() -> TraceLog {
    let events = vec![
        TraceEvent {
            ts: 0,
            dur: 0,
            kind: EventKind::KernelBegin {
                kernel: "fir".to_string(),
                seq: 0,
                total_warps: 8,
            },
        },
        TraceEvent {
            ts: 0,
            dur: 0,
            kind: EventKind::WgDispatch {
                wg: 0,
                cu: 1,
                mode: SampleMode::Detailed,
            },
        },
        TraceEvent {
            ts: 4,
            dur: 0,
            kind: EventKind::CacheAccess {
                level: CacheLevel::L1V,
                hit: false,
                evicted: false,
            },
        },
        TraceEvent {
            ts: 4,
            dur: 0,
            kind: EventKind::DramAccess { channel: 2 },
        },
        TraceEvent {
            ts: 10,
            dur: 6,
            kind: EventKind::BbInterval {
                warp: 3,
                bb: 1,
                insts: 5,
            },
        },
        TraceEvent {
            ts: 12,
            dur: 0,
            kind: EventKind::BarrierWait {
                wg: 0,
                warp: 3,
                arrived: 1,
                expected: 2,
            },
        },
        TraceEvent {
            ts: 14,
            dur: 0,
            kind: EventKind::BarrierRelease { wg: 0, released: 2 },
        },
        TraceEvent {
            ts: 16,
            dur: 0,
            kind: EventKind::IpcWindow {
                insts: 40,
                window: 16,
            },
        },
        TraceEvent {
            ts: 2,
            dur: 18,
            kind: EventKind::WarpRetire {
                warp: 3,
                cu: 1,
                insts: 20,
            },
        },
        TraceEvent {
            ts: 20,
            dur: 0,
            kind: EventKind::ControllerDecision {
                controller: "photon".to_string(),
                decision: "switch-bb".to_string(),
                detail: "bb latencies converged".to_string(),
            },
        },
        TraceEvent {
            ts: 25,
            dur: 0,
            kind: EventKind::WatchdogAbort {
                kind: AbortKind::FuelExhausted,
                stuck_warps: 2,
                detail: "fuel 1000 exhausted; warp 3 @pc 16".to_string(),
            },
        },
        TraceEvent {
            ts: 0,
            dur: 30,
            kind: EventKind::KernelEnd {
                kernel: "fir".to_string(),
                seq: 0,
                cycles: 30,
                detailed_insts: 160,
                functional_insts: 40,
                skipped: false,
            },
        },
        TraceEvent {
            ts: 16,
            dur: 0,
            kind: EventKind::StallSample {
                issued: 40,
                dep_scoreboard: 12,
                mem_pending: 30,
                mem_queue_full: 6,
                barrier: 8,
                lds_conflict: 2,
                no_warp_ready: 20,
                drained: 10,
            },
        },
        TraceEvent {
            ts: 16,
            dur: 0,
            kind: EventKind::OccupancySample { resident_warps: 8 },
        },
    ];
    TraceLog { events, dropped: 3 }
}

fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run with UPDATE_GOLDEN=1", name));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden; if intentional, bump SCHEMA_VERSION and regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn chrome_trace_matches_golden() {
    check_golden("trace.chrome.json", &chrome_trace_json(&fixed_log()));
}

#[test]
fn chrome_golden_is_valid_json_with_all_event_kinds() {
    let out = chrome_trace_json(&fixed_log());
    let v: serde_json::Value = serde_json::from_str(&out).unwrap();
    let serde_json::Value::Object(fields) = v else {
        panic!("not an object");
    };
    let Some((_, serde_json::Value::Array(events))) =
        fields.iter().find(|(k, _)| k == "traceEvents")
    else {
        panic!("no traceEvents array");
    };
    assert_eq!(events.len(), fixed_log().events.len());
    for name in [
        "kernel_begin",
        "wg_dispatch",
        "cache_access",
        "dram_access",
        "bb",
        "barrier_wait",
        "barrier_release",
        "ipc_window",
        "warp",
        "controller_decision",
        "watchdog_abort",
        "kernel",
        "stall_mix",
        "occupancy",
    ] {
        assert!(
            out.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing"
        );
    }
}
