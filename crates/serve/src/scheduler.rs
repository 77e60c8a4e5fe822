//! The job scheduler behind `photon-serve`: a bounded two-lane
//! admission queue over a pool of simulation worker threads, with
//! submit-time coalescing, a byte-budgeted store of finished jobs,
//! cancellation, and graceful drain/resume.
//!
//! ## Single-flight state machine
//!
//! A job is keyed by its spec's [`photon_bench::journal_key`], so every
//! identical submission resolves to the *same* job id. A job is in
//! exactly one place: the live map while queued or running, the result
//! store once done or cancelled.
//!
//! ```text
//!             submit(spec)
//!                  │
//!        ┌─────────┴──────────────────────────────┐
//!        │ id in the live map?                    │ else
//!        ▼                                        ▼
//!   Queued/Running ──► join (subscribers+1,   replayable result stored
//!        │              "coalesced")            ──► Cached
//!        │                                    else admission check:
//!        │                                    queue full ──► 429
//!        │                                    draining   ──► 503
//!        │                                    else enqueue ──► Queued
//!        ▼
//!   worker dequeues (interactive lane first) ──► Running
//!        │   resolve_spec looks a Full run up in the reference
//!        │   cache's directory, else simulates
//!        ▼
//!   stored as Done, then removed from the live map
//!   (a cancel stores and removes a queued job as Cancelled)
//! ```
//!
//! A worker is the only runner of its id: an id sits in at most one
//! lane entry, and `submit` coalesces any live id. The scheduler only
//! records what the returned [`photon_bench::Resolution`] reports:
//! `serve.sim_runs`, `exec.retried`, the result's `origin`. Every
//! finished job is stored, but only a replayable one (the run journal's
//! rule) answers a resubmission; a cancelled job or a transient failure
//! is enqueued again.
//!
//! Cancelling a queued job removes it from its lane before any worker
//! dequeues it (`exec.cancelled`); with several subscribers, a cancel
//! detaches one and the job keeps running for the rest.
//!
//! ## Drain / resume
//!
//! [`Scheduler::begin_drain`] stops dequeueing; workers finish their
//! in-flight jobs and exit. [`Scheduler::drain_pending_to`] writes every
//! still-queued spec to a crc-framed pending-jobs journal (the same
//! line format as the run journal, [`photon_bench::persist::frame_line`]);
//! [`Scheduler::resume_pending_from`] re-enqueues them on the next
//! start, so a SIGTERM'd server loses no accepted work.

use crate::protocol::PROTOCOL_VERSION;
use crate::store::LruStore;
use gpu_telemetry::span::{self, job_hex, SpanKind, TraceCtx};
use gpu_telemetry::{MetricsSnapshot, Telemetry};
use photon_bench::flightrec::{self, Trigger};
use photon_bench::harness::RunOutcome;
use photon_bench::journal::journalable;
use photon_bench::persist::{frame_line, load_lines};
use photon_bench::{
    journal_key, resolve_spec, ExecOptions, Measurement, Method, RefCache, Resolution, RunSpec,
};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How a scheduler runs: worker count, admission bound, executor
/// options for the simulations themselves, and flight recording.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Simulation worker threads.
    pub workers: usize,
    /// Admission bound: queued jobs (both lanes combined) beyond this
    /// are rejected with a 429 + `retry_after_ms` hint.
    pub queue_capacity: usize,
    /// Per-simulation options (timeout, retries, reference-cache
    /// policy). The run journal is unused here — the server has its own
    /// pending-jobs journal.
    pub exec: ExecOptions,
    /// Flight-recorder dump directory. When set, a job that fails,
    /// absorbs a failed span (e.g. a retried fault), or lands past the
    /// live p99 latency dumps its span trail and metrics to
    /// `<dir>/<job_id>.json` (checksum-framed). `None` disables dumps;
    /// the span rings stay on regardless.
    pub flightrec: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 2,
            queue_capacity: 64,
            exec: ExecOptions::default(),
            flightrec: None,
        }
    }
}

/// In-memory result-store byte budget (finished jobs of all methods,
/// keyed by job id, LRU-bounded).
const RESULT_BUDGET: u64 = 64 * 1024 * 1024;

/// Minimum completed-latency observations before the p99 trigger arms:
/// with fewer samples the "p99" is noise and every other job would dump.
const P99_MIN_SAMPLES: u64 = 20;

/// Where a job stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Accepted, waiting in a lane.
    Queued,
    /// A worker is simulating it.
    Running,
    /// Finished (result available via `fetch`).
    Done,
    /// Removed from the queue before any worker picked it up.
    Cancelled,
}

impl Phase {
    /// Wire rendering.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Cancelled => "cancelled",
        }
    }

    /// Whether the job will make no further transitions.
    pub fn terminal(self) -> bool {
        matches!(self, Phase::Done | Phase::Cancelled)
    }
}

/// A completed job's answer, shared by every subscriber.
#[derive(Debug)]
pub struct JobResult {
    /// Measurement or structured skip.
    pub outcome: RunOutcome,
    /// The run's metrics snapshot (empty for cache-served results).
    pub metrics: MetricsSnapshot,
    /// `"executed"` or `"refcache"` — where the answer came from.
    pub origin: &'static str,
    /// Wall-clock seconds the job spent from dequeue to completion.
    pub wall_secs: f64,
}

struct Job {
    spec: RunSpec,
    tenant: String,
    phase: Phase,
    /// Live submissions attached to this job; a cancel detaches one.
    subscribers: usize,
    /// Per-job live registry: the running simulation writes `sim.*`
    /// counters here and `status`/`wait` read them concurrently.
    progress: Telemetry,
    /// Trace context minted at submit: the root `job` span every
    /// downstream span (queued, sim, epoch-barrier, ...) hangs off.
    ctx: TraceCtx,
    /// The open `queued` span's id (0 once closed at dequeue).
    queued_span: u64,
    /// When the job entered its lane — `serve.queued_ms` and the
    /// `stats` jobs view measure from here.
    queued_at: Instant,
}

/// A job once it is done or cancelled, as the result store keeps it.
struct Finished {
    /// `workload/method` label.
    label: String,
    /// `Done` or `Cancelled`.
    phase: Phase,
    /// The answer (`None` for a cancelled job).
    result: Option<Arc<JobResult>>,
}

/// The live jobs (queued or running) and the two lanes.
struct State {
    jobs: HashMap<u64, Job>,
    interactive: VecDeque<u64>,
    batch: VecDeque<u64>,
    running: usize,
}

impl State {
    fn queued(&self) -> usize {
        self.interactive.len() + self.batch.len()
    }
}

/// What `submit` decided.
#[derive(Debug, Clone)]
pub enum Submitted {
    /// Newly enqueued (`lane` is `"interactive"` or `"batch"`).
    Queued {
        /// The job's id (= journal key).
        id: u64,
        /// Which lane it waits in.
        lane: &'static str,
    },
    /// Joined a live identical job.
    Coalesced {
        /// The shared job's id.
        id: u64,
        /// That job's current phase.
        phase: Phase,
    },
    /// Answered instantly from the result store.
    Cached {
        /// The finished job's id.
        id: u64,
    },
    /// Admission control refused it (queue full): retry later.
    Rejected {
        /// Suggested client back-off in milliseconds.
        retry_after_ms: u64,
    },
    /// The server is draining and accepts no new work.
    Draining,
}

/// One `status` snapshot.
#[derive(Debug, Clone)]
pub struct StatusView {
    /// The job's phase at snapshot time.
    pub phase: Phase,
    /// `workload/method` label.
    pub label: String,
    /// `sim.*` progress counters: live while the job runs, its result's
    /// once done (empty before the run starts and for a cancelled job).
    pub progress: Vec<(String, u64)>,
}

/// A pending-jobs journal line: everything needed to re-enqueue a
/// drained job on restart.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PendingEntry {
    /// Must equal [`PROTOCOL_VERSION`] to be resumed.
    schema_version: u32,
    /// The drained spec.
    spec: RunSpec,
    /// Its accounting tenant.
    tenant: String,
}

/// The scheduler. Connection handlers call `submit`/`status`/`fetch`/
/// `cancel`/`stats` concurrently; worker threads loop in
/// [`Scheduler::worker_loop`].
pub struct Scheduler {
    state: Mutex<State>,
    /// Signals workers that a job was enqueued (or drain began).
    work_cv: Condvar,
    /// Signals waiters that some job changed phase.
    done_cv: Condvar,
    /// Finished jobs by id, LRU-bounded by bytes; what makes a warm
    /// resubmission of *any* method instant.
    results: LruStore<Arc<Finished>>,
    /// The full-detailed reference cache: the directory the batch
    /// executor reads and writes too (none under `--no-cache`).
    cache: RefCache,
    telemetry: Telemetry,
    opts: ServeOptions,
    draining: AtomicBool,
}

impl Scheduler {
    /// A scheduler with `opts`; spawn its workers with
    /// [`Scheduler::worker_loop`] (the server does this).
    pub fn new(opts: ServeOptions) -> Scheduler {
        Scheduler {
            state: Mutex::new(State {
                jobs: HashMap::new(),
                interactive: VecDeque::new(),
                batch: VecDeque::new(),
                running: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            results: LruStore::new(RESULT_BUDGET),
            cache: opts.exec.ref_cache(),
            telemetry: Telemetry::default(),
            opts,
            draining: AtomicBool::new(false),
        }
    }

    /// The server-wide metrics registry (`serve.*`, `exec.cancelled`,
    /// per-tenant counters).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lane_of(method: &Method) -> &'static str {
        if *method == Method::Full {
            "batch"
        } else {
            "interactive"
        }
    }

    /// Submits a spec on behalf of `tenant`. See the module docs for
    /// the full decision diagram.
    pub fn submit(&self, spec: RunSpec, tenant: &str) -> Submitted {
        self.admit(spec, tenant, self.opts.queue_capacity)
    }

    /// [`submit`](Self::submit) against an explicit admission bound on
    /// queued jobs.
    fn admit(&self, spec: RunSpec, tenant: &str, capacity: usize) -> Submitted {
        let id = journal_key(&spec);
        if self.draining.load(Ordering::SeqCst) {
            self.telemetry.counter("serve.rejected").add(1);
            self.tenant_counter(tenant, "rejected");
            return Submitted::Draining;
        }
        let mut state = self.lock_state();
        if let Some(job) = state.jobs.get_mut(&id) {
            job.subscribers += 1;
            let phase = job.phase;
            span::emit(job.ctx, SpanKind::Coalesced, tenant, true, phase.name());
            self.telemetry.counter("serve.coalesced").add(1);
            self.tenant_counter(tenant, "submitted");
            return Submitted::Coalesced { id, phase };
        }
        // Probed under the state lock: a worker stores a finished job
        // before it leaves the live map, so it is never in neither. Only
        // a result that replays like a rerun (the journal's rule) counts.
        let stored = self.results.get(id);
        if stored.is_some_and(|f| f.result.as_ref().is_some_and(|r| journalable(&r.outcome))) {
            self.telemetry.counter("serve.cache_hits").add(1);
            self.tenant_counter(tenant, "submitted");
            return Submitted::Cached { id };
        }
        if state.queued() >= capacity {
            self.telemetry.counter("serve.rejected").add(1);
            self.tenant_counter(tenant, "rejected");
            return Submitted::Rejected {
                retry_after_ms: self.retry_after_ms(&state),
            };
        }
        let lane = Self::lane_of(&spec.method);
        if lane == "interactive" {
            state.interactive.push_back(id);
        } else {
            state.batch.push_back(id);
        }
        let ctx = span::start_job(id, &spec.label());
        let queued = span::open(ctx, SpanKind::Queued, lane);
        state.jobs.insert(
            id,
            Job {
                spec,
                tenant: tenant.to_string(),
                phase: Phase::Queued,
                subscribers: 1,
                progress: Telemetry::default(),
                ctx,
                queued_span: queued.span,
                queued_at: Instant::now(),
            },
        );
        self.telemetry.counter("serve.submitted").add(1);
        self.tenant_counter(tenant, "submitted");
        drop(state);
        self.work_cv.notify_one();
        Submitted::Queued { id, lane }
    }

    /// The 429 `Retry-After` hint: the queue drains at roughly
    /// (workers / per-job wall time); estimate per-job time from the
    /// completed average (floor 10 ms so an idle estimate never says
    /// "now" while the queue is provably full).
    fn retry_after_ms(&self, state: &State) -> u64 {
        let snapshot = self.telemetry.snapshot();
        let completed = snapshot.counter("serve.completed").unwrap_or(0);
        let busy_ms = snapshot.counter("serve.busy_ms").unwrap_or(0);
        let per_job_ms = busy_ms
            .checked_div(completed)
            .map_or(100, |avg| avg.max(10));
        let ahead = (state.queued() + state.running) as u64;
        (ahead * per_job_ms / self.opts.workers.max(1) as u64).max(10)
    }

    fn tenant_counter(&self, tenant: &str, what: &str) {
        self.telemetry
            .counter(&format!("serve.tenant.{tenant}.{what}"))
            .add(1);
    }

    /// Looks `id` up where it is: `live` reads it in the live map,
    /// else `finished` reads it in the result store.
    fn find<T>(
        &self,
        id: u64,
        live: impl FnOnce(&Job) -> T,
        finished: impl FnOnce(&Finished) -> T,
    ) -> Option<T> {
        let state = self.lock_state();
        match state.jobs.get(&id) {
            Some(job) => Some(live(job)),
            None => self.results.get(id).map(|f| finished(&f)),
        }
    }

    /// Files a terminal job in the result store, charged its
    /// measurement's footprint (256 bytes without one). Callers store
    /// before they remove the job from the live map.
    fn store(&self, id: u64, label: String, phase: Phase, result: Option<Arc<JobResult>>) {
        let bytes = result
            .as_ref()
            .and_then(|r| r.outcome.measurement())
            .map_or(256, Measurement::footprint);
        let finished = Finished {
            label,
            phase,
            result,
        };
        self.results.insert(id, Arc::new(finished), bytes);
    }

    /// One job's phase + progress counters.
    pub fn status(&self, id: u64) -> Option<StatusView> {
        self.find(
            id,
            |job| StatusView {
                phase: job.phase,
                label: job.spec.label(),
                progress: job.progress.snapshot().counters_with_prefix("sim."),
            },
            |f| StatusView {
                phase: f.phase,
                label: f.label.clone(),
                progress: f
                    .result
                    .as_ref()
                    .map_or_else(Vec::new, |r| r.metrics.counters_with_prefix("sim.")),
            },
        )
    }

    /// Blocks until `id` reaches a terminal phase or `step` elapses;
    /// returns the phase either way (`None`: unknown job). `wait`
    /// handlers call this in a loop, emitting a progress event per
    /// wake-up.
    pub fn wait_step(&self, id: u64, step: Duration) -> Option<Phase> {
        let deadline = Instant::now() + step;
        let mut state = self.lock_state();
        loop {
            let Some(job) = state.jobs.get(&id) else {
                return self.results.get(id).map(|f| f.phase);
            };
            let now = Instant::now();
            if now >= deadline {
                return Some(job.phase);
            }
            let (s, _timeout) = self
                .done_cv
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = s;
        }
    }

    /// The completed result of `id`, if it is done.
    pub fn fetch(&self, id: u64) -> Option<Arc<JobResult>> {
        self.find(id, |_| None, |f| f.result.clone()).flatten()
    }

    /// Cancels one subscription to `id`. Only a queued job with no
    /// remaining subscribers is removed from its lane (counted in
    /// `exec.cancelled` — before any worker can dequeue it); a running
    /// or finished job reports `false`.
    pub fn cancel(&self, id: u64) -> Option<bool> {
        let mut state = self.lock_state();
        let Some(job) = state.jobs.get_mut(&id) else {
            return self.results.get(id).map(|_| false);
        };
        if job.phase != Phase::Queued {
            return Some(false);
        }
        job.subscribers = job.subscribers.saturating_sub(1);
        if job.subscribers > 0 {
            return Some(false);
        }
        span::close(job.queued_span, false, "cancelled");
        span::close(job.ctx.span, false, "cancelled");
        self.store(id, job.spec.label(), Phase::Cancelled, None);
        state.jobs.remove(&id);
        state.interactive.retain(|&q| q != id);
        state.batch.retain(|&q| q != id);
        self.telemetry.counter("exec.cancelled").add(1);
        self.telemetry.counter("serve.cancelled").add(1);
        drop(state);
        self.done_cv.notify_all();
        Some(true)
    }

    /// The worker thread body: dequeue (interactive lane first), run,
    /// publish, repeat — until drain begins and the queues stop feeding.
    pub fn worker_loop(&self) {
        loop {
            let (id, spec, progress, ctx) = {
                let mut state = self.lock_state();
                let id = loop {
                    if self.draining.load(Ordering::SeqCst) {
                        return;
                    }
                    // Interactive sampled methods preempt queued batch
                    // Full runs at dequeue time.
                    if let Some(id) = state
                        .interactive
                        .pop_front()
                        .or_else(|| state.batch.pop_front())
                    {
                        break id;
                    }
                    let (s, _t) = self
                        .work_cv
                        .wait_timeout(state, Duration::from_millis(100))
                        .unwrap_or_else(|e| e.into_inner());
                    state = s;
                };
                let Some(job) = state.jobs.get_mut(&id) else {
                    continue;
                };
                job.phase = Phase::Running;
                let queued_ms = job.queued_at.elapsed().as_millis() as u64;
                span::close(job.queued_span, true, "");
                job.queued_span = 0;
                self.telemetry
                    .histogram("serve.queued_ms")
                    .record(queued_ms);
                let claimed = (id, job.spec.clone(), job.progress.clone(), job.ctx);
                state.running += 1;
                claimed
            };
            self.done_cv.notify_all();

            let started = Instant::now();
            // Enter the job's trace context on this worker thread so
            // every span the executor and engine emit (sim, persist,
            // epoch-barrier, mem-service) attaches to this job.
            let result = {
                let _scope = span::enter(ctx);
                let res = resolve_spec(&spec, &self.opts.exec, &self.cache, Some(&progress));
                Arc::new(self.record(res, &spec.workload.name(), ctx, started))
            };
            // Stored outside the state lock (an eviction scan never
            // holds up `submit`) and before the job leaves the live map.
            self.store(id, spec.label(), Phase::Done, Some(Arc::clone(&result)));
            let mut state = self.lock_state();
            state.running -= 1;
            let tenant = state.jobs.remove(&id).map(|job| job.tenant);
            drop(state);
            if let Some(tenant) = tenant {
                let ok = result.outcome.measurement().is_some();
                self.telemetry
                    .counter(if ok {
                        "serve.completed"
                    } else {
                        "serve.failed"
                    })
                    .add(1);
                self.telemetry
                    .counter("serve.busy_ms")
                    .add(started.elapsed().as_millis() as u64);
                self.tenant_counter(&tenant, "completed");
                self.finish_trace(id, &spec, ctx, &result, started);
            }
            self.done_cv.notify_all();
        }
    }

    /// Terminal trace bookkeeping for one finished job: closes the root
    /// span, records the latency histogram, mirrors the run's engine
    /// shard/imbalance telemetry into the server registry (so `stats`
    /// and `metrics` show the most recent run's shard balance), and
    /// evaluates the flight-recorder triggers.
    fn finish_trace(
        &self,
        id: u64,
        spec: &RunSpec,
        ctx: TraceCtx,
        result: &JobResult,
        started: Instant,
    ) {
        let ok = result.outcome.measurement().is_some();
        let fail_reason = match &result.outcome {
            RunOutcome::Skipped { reason, .. } => reason.clone(),
            RunOutcome::Completed(_) => String::new(),
        };
        span::close(ctx.span, ok, &fail_reason);

        // The p99 the trigger compares against is the distribution
        // *before* this observation — a job cannot dodge the trigger by
        // dragging its own tail bucket up.
        let wall_ms = started.elapsed().as_millis() as u64;
        let snap = self.telemetry.snapshot();
        let (p99_ms, samples) = snap
            .histograms
            .iter()
            .find(|h| h.name == "serve.latency_ms")
            .map(|h| (h.p99, h.count))
            .unwrap_or((0, 0));
        self.telemetry.histogram("serve.latency_ms").record(wall_ms);

        for (name, v) in result.metrics.counters_with_prefix("engine.shard.") {
            self.telemetry.gauge(&name).set(v as f64);
        }
        if let Some(g) = result
            .metrics
            .gauges
            .iter()
            .find(|g| g.name == "engine.epoch.imbalance")
        {
            self.telemetry.gauge("engine.epoch.imbalance").set(g.value);
        }

        let Some(dir) = &self.opts.flightrec else {
            return;
        };
        let spans = span::job_records(id);
        let trigger = if !ok {
            Some((Trigger::JobFailed, fail_reason))
        } else if let Some(bad) = spans.iter().find(|s| !s.open && !s.ok) {
            Some((Trigger::SpanFailed, bad.detail.clone()))
        } else if samples >= P99_MIN_SAMPLES && wall_ms > p99_ms {
            Some((
                Trigger::P99Latency,
                format!("wall {wall_ms} ms > p99 {p99_ms} ms over {samples} jobs"),
            ))
        } else {
            None
        };
        let Some((trigger, detail)) = trigger else {
            return;
        };
        let rec = flightrec::assemble(
            id,
            &spec.label(),
            trigger,
            &detail,
            result.wall_secs,
            &spans,
            result.metrics.clone(),
        );
        match flightrec::dump(dir, &rec) {
            Ok(path) => {
                self.telemetry.counter("serve.flightrec_dumps").add(1);
                eprintln!(
                    "photon-serve: flight record ({}) {}",
                    rec.trigger,
                    path.display()
                );
            }
            Err(e) => {
                self.telemetry.counter("serve.flightrec_errors").add(1);
                eprintln!("photon-serve: flight-record dump failed: {e}");
            }
        }
    }

    /// Turns what [`resolve_spec`] answered into the job's result,
    /// mirroring what the answer cost into the server-wide registry (the
    /// per-job `progress` registry has it too, but jobs are transient
    /// and `stats` is not).
    fn record(&self, res: Resolution, label: &str, ctx: TraceCtx, started: Instant) -> JobResult {
        for (name, n) in [
            ("serve.sim_runs", res.simulations),
            ("exec.retried", res.retries),
        ] {
            if n > 0 {
                self.telemetry.counter(name).add(n as u64);
            }
        }
        let mut origin = "executed";
        if res.from_cache {
            origin = "refcache";
            span::emit(ctx, SpanKind::CacheProbe, label, true, "refcache-hit");
        }
        JobResult {
            outcome: res.outcome,
            metrics: res.metrics,
            origin,
            wall_secs: started.elapsed().as_secs_f64(),
        }
    }

    /// Stops dequeueing: workers finish their in-flight jobs and their
    /// loops return. New submissions are answered with 503.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        // Wake every parked worker so it observes the flag.
        let _state = self.lock_state();
        self.work_cv.notify_all();
    }

    /// Whether [`begin_drain`](Self::begin_drain) has been called.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Blocks until no job is running (drain must have begun, or this
    /// can wait forever).
    pub fn await_idle(&self) {
        let mut state = self.lock_state();
        while state.running > 0 {
            let (s, _t) = self
                .done_cv
                .wait_timeout(state, Duration::from_millis(100))
                .unwrap_or_else(|e| e.into_inner());
            state = s;
        }
    }

    /// Journals every still-queued job to `path` (crc-framed lines,
    /// written atomically) and returns how many were drained. Call
    /// after [`await_idle`](Self::await_idle).
    pub fn drain_pending_to(&self, path: &Path) -> std::io::Result<usize> {
        let state = self.lock_state();
        let mut lines = String::new();
        let mut n = 0;
        for id in state.interactive.iter().chain(state.batch.iter()) {
            let Some(job) = state.jobs.get(id) else {
                continue;
            };
            let entry = PendingEntry {
                schema_version: PROTOCOL_VERSION,
                spec: job.spec.clone(),
                tenant: job.tenant.clone(),
            };
            let json =
                serde_json::to_string(&entry).map_err(|e| std::io::Error::other(e.to_string()))?;
            lines.push_str(&frame_line(&json));
            n += 1;
        }
        drop(state);
        if n == 0 {
            // Nothing pending: remove any stale journal so the next
            // start does not resume ghosts.
            let _ = std::fs::remove_file(path);
            return Ok(0);
        }
        photon_bench::atomic_write(path, &lines)?;
        self.telemetry.counter("serve.drained_jobs").add(n as u64);
        Ok(n)
    }

    /// Re-enqueues jobs journaled by a previous server's drain, then
    /// removes the journal. They were admitted once, so the admission
    /// bound does not apply to them. Torn or corrupt lines are skipped
    /// (counted in the return). Call before accepting connections.
    pub fn resume_pending_from(&self, path: &Path) -> (usize, usize) {
        let Ok((entries, mut corrupt)) = load_lines::<PendingEntry>(path) else {
            return (0, 0);
        };
        let mut resumed = 0;
        for e in entries {
            if e.schema_version == PROTOCOL_VERSION {
                self.admit(e.spec, &e.tenant, usize::MAX);
                resumed += 1;
            } else {
                corrupt += 1;
            }
        }
        let _ = std::fs::remove_file(path);
        self.telemetry
            .counter("serve.resumed_jobs")
            .add(resumed as u64);
        (resumed, corrupt)
    }

    /// The correlated span trail of one job, as `(spans, tree)`, or
    /// `None` when the job is unknown and no spans were ever recorded
    /// for its id.
    pub fn trace(&self, id: u64) -> Option<Value> {
        let records = span::job_records(id);
        let (label, state_name) = self
            .find(
                id,
                |job| (job.spec.label(), job.phase.name()),
                |f| (f.label.clone(), f.phase.name()),
            )
            .unzip();
        if records.is_empty() && label.is_none() {
            return None;
        }
        let tree = span::build_tree(id, &records);
        Some(serde_json::json!({
            "job": job_hex(id),
            "label": label,
            "state": state_name,
            "phase": tree.current_phase().map(|s| s.kind.name()),
            "phases": tree.phases,
            "failed": tree.failed_spans().iter().map(|s| serde_json::json!({
                "kind": s.kind.name(),
                "label": s.label,
                "detail": s.detail,
            })).collect::<Vec<Value>>(),
            "spans": records,
            "tree": tree.roots,
        }))
    }

    /// Refreshes the live queue/worker gauges from scheduler state (the
    /// `stats` and `metrics` ops both call this before snapshotting).
    fn refresh_gauges(&self) -> (usize, usize, usize) {
        let (queued_i, queued_b, running) = {
            let state = self.lock_state();
            (state.interactive.len(), state.batch.len(), state.running)
        };
        self.telemetry
            .gauge("serve.queue.interactive")
            .set(queued_i as f64);
        self.telemetry
            .gauge("serve.queue.batch")
            .set(queued_b as f64);
        self.telemetry.gauge("serve.running").set(running as f64);
        (queued_i, queued_b, running)
    }

    /// The server registry rendered in Prometheus text exposition
    /// format 0.0.4 — the `metrics` op's body.
    pub fn metrics_text(&self) -> String {
        self.refresh_gauges();
        gpu_telemetry::export::prometheus_text(&self.telemetry.snapshot())
    }

    /// Server-wide stats: the metrics registry (counters incl.
    /// per-tenant, `serve.*`, `exec.cancelled`), live queue/worker
    /// gauges, the in-flight jobs with their current trace phase, and
    /// the result-store and reference-cache counters.
    pub fn stats(&self) -> Value {
        self.refresh_gauges();
        // Copy the live jobs out under the state lock; their span
        // trees are built after it is released, so a `stats` poll
        // never holds up submit, wait, fetch or the workers.
        let live: Vec<(u64, String, String, Phase, u64)> = {
            let state = self.lock_state();
            state
                .jobs
                .iter()
                .map(|(id, j)| {
                    let age_ms = j.queued_at.elapsed().as_millis() as u64;
                    (*id, j.spec.label(), j.tenant.clone(), j.phase, age_ms)
                })
                .collect()
        };
        let jobs: Vec<Value> = live
            .into_iter()
            .map(|(id, label, tenant, phase, age_ms)| {
                let tree = span::build_tree(id, &span::job_records(id));
                serde_json::json!({
                    "job": job_hex(id),
                    "label": label,
                    "tenant": tenant,
                    "state": phase.name(),
                    "phase": tree
                        .current_phase()
                        .map_or(phase.name(), |s| s.kind.name()),
                    "age_ms": age_ms,
                })
            })
            .collect();
        let cache_stats = self.cache.stats();
        // Mirror the disk-eviction count into the registry (counters
        // are monotonic: add the delta since the last stats call).
        let evicted = self.telemetry.counter("refcache.evicted");
        let seen = evicted.get();
        if cache_stats.disk_evicted > seen {
            evicted.add(cache_stats.disk_evicted - seen);
        }
        // When fault injection is armed, surface per-site injection
        // counts so the chaos CI gate can prove panics actually fired.
        let faults_injected = Value::Object(
            gpu_telemetry::faults::FaultSite::ALL
                .iter()
                .filter(|site| gpu_telemetry::faults::injected(**site) > 0)
                .map(|site| {
                    (
                        site.name().to_string(),
                        Value::U64(gpu_telemetry::faults::injected(*site)),
                    )
                })
                .collect(),
        );
        serde_json::json!({
            "protocol_version": PROTOCOL_VERSION,
            "workers": self.opts.workers,
            "queue_capacity": self.opts.queue_capacity,
            "draining": self.draining(),
            "faults_active": gpu_telemetry::faults::active(),
            "faults_injected": faults_injected,
            "jobs": jobs,
            "metrics": self.telemetry.snapshot(),
            "results_store": self.results.stats(),
            "refcache": cache_stats,
        })
    }
}
