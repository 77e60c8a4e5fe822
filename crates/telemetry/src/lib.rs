//! # gpu-telemetry
//!
//! Unified observability for the Photon stack: a low-overhead metrics
//! registry (counters / gauges / histograms), a structured event tracer
//! with a Chrome-trace exporter, per-CU cycle accounting, causal spans,
//! and the deterministic [`faults`] injection harness chaos tests drive
//! the stack's guardrails with. The run-report schema that records
//! benchmark runs lives with its only user, `photon_bench::report`.
//!
//! The crate sits at the bottom of the workspace dependency graph so
//! every layer (`mem`, `sim`, `core`, `baselines`, `bench`) can emit
//! through one [`Telemetry`] handle. Metrics back the load-bearing
//! simulation statistics and are always recording; **event recording**
//! is compiled into every build and switched on at run time by
//! [`Telemetry::enable_tracing`] — until then an emit site costs one
//! relaxed atomic load.
//!
//! # Example
//!
//! ```
//! use gpu_telemetry::Telemetry;
//!
//! let tel = Telemetry::default();
//! let hits = tel.counter("mem.l2.hits");
//! hits.add(3);
//! assert_eq!(tel.snapshot().counter("mem.l2.hits"), Some(3));
//!
//! // Event recording starts once a ring buffer is attached:
//! tel.enable_tracing(1 << 16);
//! assert!(tel.tracing_active());
//! ```

// Production code must surface failures as typed errors, not panics;
// tests are free to unwrap.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod accounting;
pub mod export;
pub mod faults;
mod registry;
pub mod span;
mod trace;

pub use accounting::{
    BbErrorRow, CuAccounting, CycleAccounting, ShardAccounting, StallClass, StallWindow,
    STALL_CLASSES,
};
pub use registry::{
    percentile_from_buckets, Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram,
    HistogramSnapshot, MetricsSnapshot, Registry,
};
pub use span::{SpanGuard, SpanKind, SpanRecord, TraceCtx};
pub use trace::{
    AbortKind, CacheLevel, EventKind, SampleMode, Trace, TraceEvent, TraceLog, Tracer,
    SCHEMA_VERSION,
};

use std::sync::Arc;

/// The one handle instrumented code holds: a shared metrics registry
/// plus the (run-time gated) trace emitter. Cloning is cheap and all
/// clones observe the same registry and ring buffer, so a simulator can
/// hand copies to its memory hierarchy and controllers.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    registry: Arc<Registry>,
    trace: Trace,
}

impl Telemetry {
    /// The shared metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The trace emission handle.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Shorthand for `registry().counter(name)`.
    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(name)
    }

    /// Shorthand for `registry().gauge(name)`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(name)
    }

    /// Shorthand for `registry().histogram(name)`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.registry.histogram(name)
    }

    /// Attaches a ring buffer of `capacity` events; all clones of this
    /// handle start recording.
    pub fn enable_tracing(&self, capacity: usize) {
        self.trace.attach(capacity);
    }

    /// Whether events are currently being recorded.
    pub fn tracing_active(&self) -> bool {
        self.trace.is_active()
    }

    /// Drains recorded events (empty until tracing is enabled).
    pub fn take_events(&self) -> TraceLog {
        self.trace.take()
    }

    /// Snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

// Compile-time guarantee that telemetry handles can move to (Send) and
// be updated from (Sync) executor worker threads. Each run owns its own
// `Telemetry`, so concurrent runs never share a registry or ring; these
// bounds are what let the handle travel with its simulator.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Telemetry>();
    assert_send_sync::<Registry>();
    assert_send_sync::<Counter>();
    assert_send_sync::<Gauge>();
    assert_send_sync::<Histogram>();
    const fn assert_send<T: Send>() {}
    assert_send::<MetricsSnapshot>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_registry() {
        let a = Telemetry::default();
        let b = a.clone();
        a.counter("x").add(2);
        b.counter("x").inc();
        assert_eq!(a.snapshot().counter("x"), Some(3));
    }

    #[test]
    fn tracing_is_off_until_enabled() {
        let tel = Telemetry::default();
        assert!(!tel.tracing_active());
        tel.enable_tracing(16);
        assert!(tel.tracing_active());
        assert!(tel.take_events().events.is_empty());
    }
}
