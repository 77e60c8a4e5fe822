//! Shared telemetry plumbing for the baseline controllers: a
//! `ControllerDecision` emitter bound to a fixed controller name.

use gpu_sim::Cycle;
use gpu_telemetry::{EventKind, Telemetry, Trace, TraceEvent};

/// Emits decision events under one controller name. Starts detached
/// (no ring buffer, events vanish); [`Decisions::attach`] swaps in the
/// engine's shared trace handle before each launch.
#[derive(Debug)]
pub(crate) struct Decisions {
    controller: &'static str,
    trace: Trace,
}

impl Decisions {
    pub(crate) fn new(controller: &'static str) -> Self {
        Decisions {
            controller,
            trace: Trace::default(),
        }
    }

    pub(crate) fn attach(&mut self, telemetry: &Telemetry) {
        self.trace = telemetry.trace().clone();
    }

    /// Emits one decision event; `detail` is only rendered when a ring
    /// buffer is attached.
    pub(crate) fn emit(&self, ts: Cycle, decision: &str, detail: impl FnOnce() -> String) {
        let controller = self.controller;
        self.trace.emit_with(|| TraceEvent {
            ts,
            dur: 0,
            kind: EventKind::ControllerDecision {
                controller: controller.to_string(),
                decision: decision.to_string(),
                detail: detail(),
            },
        });
    }
}
