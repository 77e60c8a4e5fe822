//! Structured event tracing: a bounded ring buffer of typed
//! [`TraceEvent`]s and the [`Trace`] handle instrumented code emits
//! through.
//!
//! Event timestamps are **simulated cycles** (not host time), so a
//! trace lines up with the timing model's view of the run. The handle
//! is compiled into every build and gated at run time: until a ring is
//! attached an emit site costs one relaxed atomic load and a not-taken
//! branch, and its event is never constructed.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Version stamped into exported traces and reports; bump on any
/// incompatible change to the event vocabulary or report schema.
/// Version 2 added the cycle-accounting counter tracks
/// ([`EventKind::StallSample`], [`EventKind::OccupancySample`]).
pub const SCHEMA_VERSION: u32 = 2;

/// Execution mode a workgroup was dispatched in (mirror of the
/// simulator's `WgMode`, kept here so `gpu-telemetry` stays at the
/// bottom of the dependency graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SampleMode {
    /// Full detailed timing.
    Detailed,
    /// Functional execution with per-warp predicted durations.
    BbSampled,
    /// Scheduler-only with predicted durations.
    WarpSampled,
}

/// Which cache level an access event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheLevel {
    /// Per-CU vector L1.
    L1V,
    /// Shared scalar cache.
    L1S,
    /// Banked L2.
    L2,
}

/// Which watchdog condition aborted a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AbortKind {
    /// No forward progress was possible (barrier deadlock or stall).
    Deadlock,
    /// The launch exceeded its cycle-fuel budget.
    FuelExhausted,
}

/// The event vocabulary (see DESIGN.md "Observability" for semantics).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A kernel entered the engine. `seq` is the per-simulator launch
    /// index.
    KernelBegin {
        /// Kernel name.
        kernel: String,
        /// Launch index on this simulator.
        seq: u64,
        /// Warps in the launch.
        total_warps: u64,
    },
    /// A kernel finished (any mode). Emitted as a span covering the
    /// kernel's simulated duration.
    KernelEnd {
        /// Kernel name.
        kernel: String,
        /// Launch index on this simulator.
        seq: u64,
        /// Simulated cycles charged.
        cycles: u64,
        /// Instructions executed in detailed mode.
        detailed_insts: u64,
        /// Instructions executed functionally only.
        functional_insts: u64,
        /// Whether kernel-sampling skipped the kernel outright.
        skipped: bool,
    },
    /// A workgroup was dispatched to a CU in the given mode (the
    /// controller's per-workgroup decision).
    WgDispatch {
        /// Flat workgroup id.
        wg: u32,
        /// Compute unit it landed on.
        cu: u32,
        /// Mode the controller chose.
        mode: SampleMode,
    },
    /// A detailed warp retired. The event's `dur` spans issue→retire.
    WarpRetire {
        /// Global warp id.
        warp: u64,
        /// Compute unit it ran on.
        cu: u32,
        /// Dynamic instructions executed.
        insts: u64,
    },
    /// A basic-block instance of a detailed warp completed. The event's
    /// `dur` is the paper's block execution interval.
    BbInterval {
        /// Global warp id.
        warp: u64,
        /// Basic block index.
        bb: u32,
        /// Instructions in this instance.
        insts: u32,
    },
    /// A line transaction was looked up in a cache.
    CacheAccess {
        /// Which level.
        level: CacheLevel,
        /// Whether the tag array hit.
        hit: bool,
        /// Whether a valid line was evicted to make room (miss only).
        evicted: bool,
    },
    /// A line was fetched from DRAM.
    DramAccess {
        /// DRAM channel serving the fetch.
        channel: u32,
    },
    /// A warp arrived at a workgroup barrier and parked.
    BarrierWait {
        /// Flat workgroup id.
        wg: u32,
        /// Global warp id.
        warp: u64,
        /// Warps arrived so far (including this one).
        arrived: u32,
        /// Warps the barrier waits for.
        expected: u32,
    },
    /// A workgroup barrier released all its warps.
    BarrierRelease {
        /// Flat workgroup id.
        wg: u32,
        /// Warps released.
        released: u32,
    },
    /// One IPC window elapsed (detailed instructions issued in it).
    IpcWindow {
        /// Instructions issued in the window.
        insts: u64,
        /// Window width in cycles.
        window: u64,
    },
    /// The watchdog aborted the launch; `detail` is the rendered
    /// stuck-warp snapshot, so an exported trace alone explains the
    /// abort.
    WatchdogAbort {
        /// Which condition fired.
        kind: AbortKind,
        /// Warps still resident at the abort.
        stuck_warps: u64,
        /// Rendered [`WatchdogSnapshot`](https://docs.rs) text.
        detail: String,
    },
    /// A sampling controller made a policy decision (kernel skip, mode
    /// switch, abort, fallback).
    ControllerDecision {
        /// Controller name (`photon`, `pka`, `tbpoint`, `sieve`).
        controller: String,
        /// Short decision tag (`kernel-skip`, `switch-bb`, ...).
        decision: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Cycle-accounting counter sample: warp-cycles per stall class in
    /// one timeline window, summed over CUs. Exported as a Chrome-trace
    /// counter track (`"ph":"C"`) so the stall mix renders as a stacked
    /// graph. Field order matches `StallClass` discriminant order.
    StallSample {
        /// Warp-cycles spent issuing.
        issued: u64,
        /// Warp-cycles waiting on ALU/branch results.
        dep_scoreboard: u64,
        /// Warp-cycles waiting on outstanding memory accesses.
        mem_pending: u64,
        /// Warp-cycles queued behind busy memory resources.
        mem_queue_full: u64,
        /// Warp-cycles parked at workgroup barriers.
        barrier: u64,
        /// Warp-cycles waiting on LDS latency.
        lds_conflict: u64,
        /// Warp-cycles ready but not selected for issue.
        no_warp_ready: u64,
        /// Warp-cycles resident after retirement (workgroup draining).
        drained: u64,
    },
    /// Cycle-accounting counter sample: mean resident warps across one
    /// timeline window (active-warp occupancy), rounded to the nearest
    /// warp. Exported as a Chrome-trace counter track.
    OccupancySample {
        /// Mean resident warps in the window.
        resident_warps: u64,
    },
    /// One epoch of the sharded timing engine completed its barrier.
    /// The event's `ts` is the epoch start and `dur` its quantum.
    EpochBarrier {
        /// Epoch ordinal within the kernel launch.
        epoch: u64,
        /// Shards that processed at least one event this epoch.
        busy_shards: u32,
        /// Memory requests drained across the port boundary.
        requests: u32,
    },
}

impl EventKind {
    /// Short display name (used as the Chrome-trace event name).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::KernelBegin { .. } => "kernel_begin",
            EventKind::KernelEnd { .. } => "kernel",
            EventKind::WgDispatch { .. } => "wg_dispatch",
            EventKind::WarpRetire { .. } => "warp",
            EventKind::BbInterval { .. } => "bb",
            EventKind::CacheAccess { .. } => "cache_access",
            EventKind::DramAccess { .. } => "dram_access",
            EventKind::BarrierWait { .. } => "barrier_wait",
            EventKind::BarrierRelease { .. } => "barrier_release",
            EventKind::IpcWindow { .. } => "ipc_window",
            EventKind::WatchdogAbort { .. } => "watchdog_abort",
            EventKind::ControllerDecision { .. } => "controller_decision",
            EventKind::StallSample { .. } => "stall_mix",
            EventKind::OccupancySample { .. } => "occupancy",
            EventKind::EpochBarrier { .. } => "epoch_barrier",
        }
    }

    /// Whether this event exports as a Chrome-trace counter track
    /// (`"ph":"C"`) rather than a duration/instant event.
    pub fn is_counter(&self) -> bool {
        matches!(
            self,
            EventKind::StallSample { .. } | EventKind::OccupancySample { .. }
        )
    }
}

/// One trace event: a timestamp (simulated cycle), an optional duration
/// (0 = instantaneous), and the typed payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Start cycle.
    pub ts: u64,
    /// Duration in cycles (0 for instant events).
    pub dur: u64,
    /// Typed payload.
    pub kind: EventKind,
}

/// A bounded ring buffer of trace events. When full, the **oldest**
/// event is overwritten (ring semantics), so a trace always holds the
/// most recent window of activity; `dropped` counts the overwritten
/// events.
#[derive(Debug)]
pub struct Tracer {
    capacity: usize,
    buf: Vec<TraceEvent>,
    head: usize,
    dropped: u64,
}

impl Tracer {
    /// Creates a tracer holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            capacity,
            buf: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// Appends an event, overwriting the oldest when full.
    pub fn record(&mut self, ev: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten (or rejected by a zero-capacity tracer).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The held events in record order (oldest first).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

/// The events (and overflow count) drained from a [`Trace`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    /// Events in record order (oldest first).
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow before the drain.
    pub dropped: u64,
}

#[derive(Debug, Default)]
struct Shared {
    active: AtomicBool,
    tracer: Mutex<Option<Tracer>>,
}

/// The handle instrumented code emits events through. Clones share
/// one ring buffer; until [`Trace::attach`] is called every emit is
/// one relaxed atomic load and a not-taken branch.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    shared: Arc<Shared>,
}

impl Trace {
    fn lock(&self) -> std::sync::MutexGuard<'_, Option<Tracer>> {
        self.shared.tracer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attaches a ring buffer of `capacity` events; all clones of
    /// this handle start recording.
    pub fn attach(&self, capacity: usize) {
        *self.lock() = Some(Tracer::new(capacity));
        self.shared.active.store(true, Ordering::Release);
    }

    /// Whether a ring buffer is attached and recording.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Records the event built by `f`, constructing it only when a
    /// ring buffer is attached, so payload construction (string
    /// allocation etc.) is skipped when tracing is off.
    #[inline]
    pub fn emit_with(&self, f: impl FnOnce() -> TraceEvent) {
        if self.is_active() {
            self.record_with(f);
        }
    }

    /// The recording path, kept out of line so an emit site inlines to
    /// the load and the branch only.
    #[cold]
    #[inline(never)]
    fn record_with(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(t) = self.lock().as_mut() {
            t.record(f());
        }
    }

    /// Drains the held events, leaving an empty (still attached)
    /// ring behind.
    pub fn take(&self) -> TraceLog {
        let mut guard = self.lock();
        match guard.as_mut() {
            Some(t) => {
                let log = TraceLog {
                    events: t.events(),
                    dropped: t.dropped(),
                };
                *t = Tracer::new(t.capacity);
                log
            }
            None => TraceLog::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64) -> TraceEvent {
        TraceEvent {
            ts,
            dur: 0,
            kind: EventKind::DramAccess { channel: 0 },
        }
    }

    #[test]
    fn ring_keeps_most_recent_window() {
        let mut t = Tracer::new(3);
        for i in 0..5 {
            t.record(ev(i));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let ts: Vec<u64> = t.events().iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![2, 3, 4]);
    }

    #[test]
    fn ring_under_capacity_keeps_all() {
        let mut t = Tracer::new(8);
        t.record(ev(1));
        t.record(ev(2));
        assert_eq!(t.dropped(), 0);
        let ts: Vec<u64> = t.events().iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![1, 2]);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut t = Tracer::new(0);
        t.record(ev(1));
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn event_names_are_stable() {
        assert_eq!(ev(0).kind.name(), "dram_access");
        assert_eq!(
            EventKind::WatchdogAbort {
                kind: AbortKind::Deadlock,
                stuck_warps: 1,
                detail: String::new(),
            }
            .name(),
            "watchdog_abort"
        );
        assert_eq!(
            EventKind::OccupancySample { resident_warps: 3 }.name(),
            "occupancy"
        );
    }

    #[test]
    fn only_accounting_samples_are_counters() {
        assert!(!ev(0).kind.is_counter());
        assert!(EventKind::OccupancySample { resident_warps: 0 }.is_counter());
        assert!(EventKind::StallSample {
            issued: 1,
            dep_scoreboard: 0,
            mem_pending: 0,
            mem_queue_full: 0,
            barrier: 0,
            lds_conflict: 0,
            no_warp_ready: 0,
            drained: 0,
        }
        .is_counter());
    }
}
