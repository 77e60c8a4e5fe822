//! Trace exporter: Chrome trace-event JSON (loadable in
//! `chrome://tracing` / Perfetto).
//!
//! The format is deterministic for a given input: events are emitted in
//! record order and object keys in a fixed order, so golden tests can
//! compare exported bytes directly.

use crate::trace::{EventKind, TraceEvent, TraceLog, SCHEMA_VERSION};
use serde_json::Value;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(v: &str) -> Value {
    Value::String(v.to_string())
}

fn u(v: u64) -> Value {
    Value::U64(v)
}

/// Chrome-trace args payload for an event (flat key/value object).
fn args(kind: &EventKind) -> Value {
    match kind {
        EventKind::KernelBegin {
            kernel,
            seq,
            total_warps,
        } => obj(vec![
            ("kernel", s(kernel)),
            ("seq", u(*seq)),
            ("total_warps", u(*total_warps)),
        ]),
        EventKind::KernelEnd {
            kernel,
            seq,
            cycles,
            detailed_insts,
            functional_insts,
            skipped,
        } => obj(vec![
            ("kernel", s(kernel)),
            ("seq", u(*seq)),
            ("cycles", u(*cycles)),
            ("detailed_insts", u(*detailed_insts)),
            ("functional_insts", u(*functional_insts)),
            ("skipped", Value::Bool(*skipped)),
        ]),
        EventKind::WgDispatch { wg, cu, mode } => obj(vec![
            ("wg", u(u64::from(*wg))),
            ("cu", u(u64::from(*cu))),
            ("mode", s(&format!("{mode:?}"))),
        ]),
        EventKind::WarpRetire { warp, cu, insts } => obj(vec![
            ("warp", u(*warp)),
            ("cu", u(u64::from(*cu))),
            ("insts", u(*insts)),
        ]),
        EventKind::BbInterval { warp, bb, insts } => obj(vec![
            ("warp", u(*warp)),
            ("bb", u(u64::from(*bb))),
            ("insts", u(u64::from(*insts))),
        ]),
        EventKind::CacheAccess {
            level,
            hit,
            evicted,
        } => obj(vec![
            ("level", s(&format!("{level:?}"))),
            ("hit", Value::Bool(*hit)),
            ("evicted", Value::Bool(*evicted)),
        ]),
        EventKind::DramAccess { channel } => obj(vec![("channel", u(u64::from(*channel)))]),
        EventKind::BarrierWait {
            wg,
            warp,
            arrived,
            expected,
        } => obj(vec![
            ("wg", u(u64::from(*wg))),
            ("warp", u(*warp)),
            ("arrived", u(u64::from(*arrived))),
            ("expected", u(u64::from(*expected))),
        ]),
        EventKind::BarrierRelease { wg, released } => obj(vec![
            ("wg", u(u64::from(*wg))),
            ("released", u(u64::from(*released))),
        ]),
        EventKind::IpcWindow { insts, window } => {
            obj(vec![("insts", u(*insts)), ("window", u(*window))])
        }
        EventKind::WatchdogAbort {
            kind,
            stuck_warps,
            detail,
        } => obj(vec![
            ("kind", s(&format!("{kind:?}"))),
            ("stuck_warps", u(*stuck_warps)),
            ("detail", s(detail)),
        ]),
        EventKind::ControllerDecision {
            controller,
            decision,
            detail,
        } => obj(vec![
            ("controller", s(controller)),
            ("decision", s(decision)),
            ("detail", s(detail)),
        ]),
        EventKind::StallSample {
            issued,
            dep_scoreboard,
            mem_pending,
            mem_queue_full,
            barrier,
            lds_conflict,
            no_warp_ready,
            drained,
        } => obj(vec![
            ("issued", u(*issued)),
            ("dep_scoreboard", u(*dep_scoreboard)),
            ("mem_pending", u(*mem_pending)),
            ("mem_queue_full", u(*mem_queue_full)),
            ("barrier", u(*barrier)),
            ("lds_conflict", u(*lds_conflict)),
            ("no_warp_ready", u(*no_warp_ready)),
            ("drained", u(*drained)),
        ]),
        EventKind::OccupancySample { resident_warps } => {
            obj(vec![("resident_warps", u(*resident_warps))])
        }
        EventKind::EpochBarrier {
            epoch,
            busy_shards,
            requests,
        } => obj(vec![
            ("epoch", u(*epoch)),
            ("busy_shards", u(u64::from(*busy_shards))),
            ("requests", u(u64::from(*requests))),
        ]),
    }
}

/// Chrome-trace track (`tid`) an event is drawn on, grouping related
/// activity into lanes.
fn track(kind: &EventKind) -> u64 {
    match kind {
        EventKind::KernelBegin { .. } | EventKind::KernelEnd { .. } => 0,
        EventKind::WgDispatch { .. } => 1,
        EventKind::WarpRetire { .. } | EventKind::BbInterval { .. } => 2,
        EventKind::CacheAccess { .. } | EventKind::DramAccess { .. } => 3,
        EventKind::BarrierWait { .. } | EventKind::BarrierRelease { .. } => 4,
        EventKind::IpcWindow { .. } => 5,
        EventKind::WatchdogAbort { .. } | EventKind::ControllerDecision { .. } => 6,
        EventKind::StallSample { .. } | EventKind::OccupancySample { .. } => 7,
        EventKind::EpochBarrier { .. } => 8,
    }
}

fn chrome_event(ev: &TraceEvent) -> Value {
    // Counter ("C") events render as stacked per-series graphs from
    // their args; complete ("X") events carry a duration; everything
    // else is an instant ("i"). Timestamps are simulated cycles
    // reported as µs — Chrome's viewer needs *some* unit, and
    // 1 cycle = 1 µs keeps the numbers readable.
    let counter = ev.kind.is_counter();
    let ph = if counter {
        "C"
    } else if ev.dur > 0 {
        "X"
    } else {
        "i"
    };
    let mut fields = vec![("name", s(ev.kind.name())), ("ph", s(ph)), ("ts", u(ev.ts))];
    if counter {
        // Counters take only name/ts/pid/args; a duration or instant
        // scope field would be ignored (or rejected) by the viewer.
    } else if ev.dur > 0 {
        fields.push(("dur", u(ev.dur)));
    } else {
        fields.push(("s", s("t")));
    }
    fields.push(("pid", u(1)));
    fields.push(("tid", u(track(&ev.kind))));
    fields.push(("args", args(&ev.kind)));
    obj(fields)
}

/// Renders a [`TraceLog`] as a Chrome trace-event JSON document
/// (`{"traceEvents": [...], ...}` object form).
pub fn chrome_trace_json(log: &TraceLog) -> String {
    let events: Vec<Value> = log.events.iter().map(chrome_event).collect();
    let doc = obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", s("ms")),
        (
            "otherData",
            obj(vec![
                ("schema_version", u(u64::from(SCHEMA_VERSION))),
                ("dropped_events", u(log.dropped)),
            ]),
        ),
    ]);
    serde_json::to_string_pretty(&doc).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{AbortKind, CacheLevel};

    fn sample_log() -> TraceLog {
        TraceLog {
            events: vec![
                TraceEvent {
                    ts: 0,
                    dur: 120,
                    kind: EventKind::KernelEnd {
                        kernel: "fir".to_string(),
                        seq: 0,
                        cycles: 120,
                        detailed_insts: 640,
                        functional_insts: 0,
                        skipped: false,
                    },
                },
                TraceEvent {
                    ts: 8,
                    dur: 0,
                    kind: EventKind::CacheAccess {
                        level: CacheLevel::L1V,
                        hit: false,
                        evicted: true,
                    },
                },
                TraceEvent {
                    ts: 40,
                    dur: 0,
                    kind: EventKind::WatchdogAbort {
                        kind: AbortKind::Deadlock,
                        stuck_warps: 2,
                        detail: "w0 @barrier".to_string(),
                    },
                },
                TraceEvent {
                    ts: 64,
                    dur: 0,
                    kind: EventKind::OccupancySample { resident_warps: 12 },
                },
            ],
            dropped: 1,
        }
    }

    #[test]
    fn chrome_trace_has_events_and_metadata() {
        let out = chrome_trace_json(&sample_log());
        assert!(out.contains("\"traceEvents\""));
        assert!(out.contains("\"ph\": \"X\""));
        assert!(out.contains("\"ph\": \"i\""));
        assert!(out.contains("\"ph\": \"C\""));
        assert!(out.contains("\"dropped_events\": 1"));
        assert!(out.contains("watchdog_abort"));
        // Must parse back as JSON.
        let v: Value = serde_json::from_str(&out).unwrap();
        match v {
            Value::Object(fields) => {
                assert!(fields.iter().any(|(k, _)| k == "traceEvents"));
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn empty_log_exports_cleanly() {
        let log = TraceLog::default();
        let chrome = chrome_trace_json(&log);
        assert!(chrome.contains("\"traceEvents\": []"));
    }
}
