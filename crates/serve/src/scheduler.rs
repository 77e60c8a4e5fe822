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
//!   trail closed, stored as Done, then removed from the live map
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
//! dequeues it (`serve.cancelled`); with several subscribers, a cancel
//! detaches one and the job keeps running for the rest.
//!
//! A submission's tenant is a validated label ([`crate::protocol`]):
//! it travels with the job into the `stats` jobs view and the pending
//! journal, and names no counter, so the server's registry holds a
//! fixed set of names however many tenants clients invent.
//!
//! ## Drain / resume
//!
//! [`Scheduler::begin_drain`] stops dequeueing; workers finish their
//! in-flight jobs and exit. [`Scheduler::drain_pending_to`] records
//! every still-queued spec in a fresh pending-jobs journal (a
//! [`photon_bench::journal::Journal`], like the run journal, one
//! fsync'd line per job); [`Scheduler::resume_pending_from`]
//! re-enqueues them on the next start, so a SIGTERM'd server loses no
//! accepted work.

use crate::protocol::PROTOCOL_VERSION;
use crate::store::LruStore;
use gpu_telemetry::faults::{self, FaultSite};
use gpu_telemetry::span::{self, job_hex, SpanKind, TraceCtx};
use gpu_telemetry::{MetricsSnapshot, Telemetry};
use photon_bench::flightrec::{self, Trigger};
use photon_bench::harness::RunOutcome;
use photon_bench::journal::{self, journalable, Journal};
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
    /// counters here and `trace` reads them concurrently.
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

impl Job {
    /// Closes the job's `queued` and root spans for a job that leaves
    /// without running (a closed span is left alone).
    fn close_trail(&self, ok: bool, detail: &str) {
        span::close(self.queued_span, ok, detail);
        span::close(self.ctx.span, ok, detail);
    }
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

/// A pending-jobs journal line: everything needed to re-enqueue a
/// drained job on restart.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PendingEntry {
    /// Must equal [`PROTOCOL_VERSION`] to be resumed.
    schema_version: u32,
    /// The drained spec.
    spec: RunSpec,
    /// Its tenant label.
    tenant: String,
}

/// The scheduler. Connection handlers call `submit`/`wait_step`/`fetch`/
/// `cancel`/`trace`/`stats` concurrently; worker threads loop in
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

    /// The server-wide metrics registry (`serve.*`, `exec.retried`).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
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
            return Submitted::Draining;
        }
        let mut state = self.lock_state();
        if let Some(job) = state.jobs.get_mut(&id) {
            job.subscribers += 1;
            let phase = job.phase;
            span::emit(job.ctx, SpanKind::Coalesced, tenant, true, phase.name());
            self.telemetry.counter("serve.coalesced").add(1);
            return Submitted::Coalesced { id, phase };
        }
        // Probed under the state lock: a worker stores a finished job
        // before it leaves the live map, so it is never in neither. Only
        // a result that replays like a rerun (the journal's rule) counts.
        let stored = self.results.get(id);
        if stored.is_some_and(|f| f.result.as_ref().is_some_and(|r| journalable(&r.outcome))) {
            self.telemetry.counter("serve.cache_hits").add(1);
            return Submitted::Cached { id };
        }
        if state.queued() >= capacity {
            self.telemetry.counter("serve.rejected").add(1);
            return Submitted::Rejected {
                retry_after_ms: self.retry_after_ms(&state),
            };
        }
        // Sampled methods are interactive; Full runs wait in the batch lane.
        let (lane, queue) = if spec.method == Method::Full {
            ("batch", &mut state.batch)
        } else {
            ("interactive", &mut state.interactive)
        };
        queue.push_back(id);
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
        drop(state);
        self.work_cv.notify_one();
        Submitted::Queued { id, lane }
    }

    /// The 429 `Retry-After` hint: the queue drains at roughly
    /// (workers / per-job wall time); estimate per-job time from the
    /// completed average (floor 10 ms so an idle estimate never says
    /// "now" while the queue is provably full).
    fn retry_after_ms(&self, state: &State) -> u64 {
        let completed = self.telemetry.counter("serve.completed").get();
        let busy_ms = self.telemetry.counter("serve.busy_ms").get();
        let per_job_ms = busy_ms
            .checked_div(completed)
            .map_or(100, |avg| avg.max(10));
        let ahead = (state.queued() + state.running) as u64;
        (ahead * per_job_ms / self.opts.workers.max(1) as u64).max(10)
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

    /// Blocks until `id` reaches a terminal phase or `step` elapses;
    /// returns the phase either way (`None`: unknown job). `wait`
    /// handlers call this in a loop, checking for a drain between
    /// steps; `Duration::ZERO` reads the phase without blocking.
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
    /// `serve.cancelled` — before any worker can dequeue it); a running
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
        job.close_trail(false, "cancelled");
        self.store(id, job.spec.label(), Phase::Cancelled, None);
        state.jobs.remove(&id);
        state.interactive.retain(|&q| q != id);
        state.batch.retain(|&q| q != id);
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
            // The job's counters and trail are final before it leaves
            // the live map: a `wait` that answers, or a resubmission
            // that starts a fresh trail, finds nothing still to come.
            self.finish(id, &spec, ctx, &result, started);
            // Stored outside the state lock (an eviction scan never
            // holds up `submit`) and before the job leaves the live map.
            self.store(id, spec.label(), Phase::Done, Some(result));
            let mut state = self.lock_state();
            state.running -= 1;
            state.jobs.remove(&id);
            drop(state);
            self.done_cv.notify_all();
        }
    }

    /// Terminal bookkeeping for one finished job: counts its outcome
    /// and busy time, closes the root span, records the latency
    /// histogram and evaluates the flight-recorder triggers.
    fn finish(&self, id: u64, spec: &RunSpec, ctx: TraceCtx, result: &JobResult, started: Instant) {
        let ok = result.outcome.measurement().is_some();
        let wall_ms = started.elapsed().as_millis() as u64;
        let outcome = if ok {
            "serve.completed"
        } else {
            "serve.failed"
        };
        self.telemetry.counter(outcome).add(1);
        self.telemetry.counter("serve.busy_ms").add(wall_ms);
        let fail_reason = match &result.outcome {
            RunOutcome::Skipped { reason, .. } => reason.clone(),
            RunOutcome::Completed(_) => String::new(),
        };
        span::close(ctx.span, ok, &fail_reason);

        // The p99 the trigger compares against is the distribution
        // *before* this observation — a job cannot dodge the trigger by
        // dragging its own tail bucket up.
        let latency = self.telemetry.histogram("serve.latency_ms");
        let (p99_ms, samples) = (latency.percentile(0.99), latency.count());
        latency.record(wall_ms);

        let Some(dir) = &self.opts.flightrec else {
            return;
        };
        let spans = span::job_records(id);
        let (trigger, detail) = if !ok {
            (Trigger::JobFailed, fail_reason)
        } else if let Some(bad) = spans.iter().find(|s| !s.open && !s.ok) {
            (Trigger::SpanFailed, bad.detail.clone())
        } else if samples >= P99_MIN_SAMPLES && wall_ms > p99_ms {
            let why = format!("wall {wall_ms} ms > p99 {p99_ms} ms over {samples} jobs");
            (Trigger::P99Latency, why)
        } else {
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

    /// Records every still-queued job in a fresh pending journal at
    /// `path` and returns how many were drained. Each drained job's
    /// trail closes here (`"drained"`), so a resume under the same id,
    /// in this process or another, starts a fresh one. With none
    /// queued, any stale journal is removed instead, so the next start
    /// resumes no ghosts. Call after [`await_idle`](Self::await_idle).
    pub fn drain_pending_to(&self, path: &Path) -> std::io::Result<usize> {
        let pending: Vec<(u64, PendingEntry)> = {
            let state = self.lock_state();
            let queued = state.interactive.iter().chain(&state.batch);
            queued
                .filter_map(|&id| {
                    let job = state.jobs.get(&id)?;
                    job.close_trail(true, "drained");
                    let entry = PendingEntry {
                        schema_version: PROTOCOL_VERSION,
                        spec: job.spec.clone(),
                        tenant: job.tenant.clone(),
                    };
                    Some((id, entry))
                })
                .collect()
        };
        if pending.is_empty() {
            let _ = std::fs::remove_file(path);
            return Ok(0);
        }
        let journal = Journal::open(path, true)?;
        for (id, entry) in &pending {
            journal.record(*id, entry)?;
        }
        self.telemetry
            .counter("serve.drained_jobs")
            .add(pending.len() as u64);
        Ok(pending.len())
    }

    /// Re-enqueues jobs journaled by a previous server's drain, then
    /// removes the journal. They were admitted once, so the admission
    /// bound does not apply to them. Torn or corrupt lines, and lines
    /// of another protocol version, are skipped (counted in the
    /// return); a missing journal changes nothing. Call before
    /// accepting connections.
    pub fn resume_pending_from(&self, path: &Path) -> (usize, usize) {
        let (entries, mut corrupt) = journal::load::<PendingEntry>(path);
        if entries.is_empty() && corrupt == 0 {
            return (0, 0);
        }
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

    /// One job's view: its state, its `sim.*` progress counters (live
    /// while it is queued or running, its result's once done, none for
    /// a cancelled job) and its correlated span trail — the flat list
    /// with its current phase, per-phase totals and failed spans. `None`
    /// when the job is unknown and no spans were ever recorded for its
    /// id.
    pub fn trace(&self, id: u64) -> Option<Value> {
        let records = span::job_records(id);
        // Under the state lock only a handle is cloned: the live
        // registry (`Ok`) or the stored result (`Err`). The counters are
        // read after the lock is released.
        let found = self.find(
            id,
            |job| (job.spec.label(), job.phase, Ok(job.progress.clone())),
            |f| (f.label.clone(), f.phase, Err(f.result.clone())),
        );
        if records.is_empty() && found.is_none() {
            return None;
        }
        let progress = match &found {
            Some((_, _, Ok(live))) => live.snapshot().counters_with_prefix("sim."),
            Some((_, _, Err(Some(result)))) => result.metrics.counters_with_prefix("sim."),
            _ => Vec::new(),
        };
        let (label, state) = found.map(|(label, phase, _)| (label, phase.name())).unzip();
        let progress = progress.into_iter().map(|(k, v)| (k, Value::U64(v)));
        Some(serde_json::json!({
            "job": job_hex(id),
            "label": label,
            "state": state,
            "progress": Value::Object(progress.collect()),
            "phase": span::current_phase(&records).map(|s| s.kind.name()),
            "phases": span::phases(&records),
            "failed": records.iter().filter(|s| !s.ok).map(|s| serde_json::json!({
                "kind": s.kind.name(),
                "label": s.label,
                "detail": s.detail,
            })).collect::<Vec<Value>>(),
            "spans": records,
        }))
    }

    /// Server-wide stats: the lane depths and running count, the
    /// metrics registry (`serve.*`, `exec.retried`), the in-flight jobs
    /// with their tenant and current trace phase, and the result-store
    /// and reference-cache counters.
    pub fn stats(&self) -> Value {
        // Copy the live jobs out under the state lock; their spans are
        // read after it is released, so a `stats` poll never holds up
        // submit, wait, fetch or the workers.
        let (queued, running, live) = {
            let state = self.lock_state();
            let live: Vec<(u64, String, String, Phase, u64)> = state
                .jobs
                .iter()
                .map(|(id, j)| {
                    let age_ms = j.queued_at.elapsed().as_millis() as u64;
                    (*id, j.spec.label(), j.tenant.clone(), j.phase, age_ms)
                })
                .collect();
            let queued = serde_json::json!({
                "interactive": state.interactive.len(),
                "batch": state.batch.len(),
            });
            (queued, state.running, live)
        };
        let jobs: Vec<Value> = live
            .into_iter()
            .map(|(id, label, tenant, phase, age_ms)| {
                let records = span::job_records(id);
                serde_json::json!({
                    "job": job_hex(id),
                    "label": label,
                    "tenant": tenant,
                    "state": phase.name(),
                    "phase": span::current_phase(&records)
                        .map_or(phase.name(), |s| s.kind.name()),
                    "age_ms": age_ms,
                })
            })
            .collect();
        // When fault injection is armed, surface per-site injection
        // counts so the chaos CI gate can prove panics actually fired.
        let faults_injected = Value::Object(
            FaultSite::ALL
                .iter()
                .map(|&site| (site, faults::injected(site)))
                .filter(|&(_, n)| n > 0)
                .map(|(site, n)| (site.name().to_string(), Value::U64(n)))
                .collect(),
        );
        serde_json::json!({
            "protocol_version": PROTOCOL_VERSION,
            "workers": self.opts.workers,
            "queue_capacity": self.opts.queue_capacity,
            "draining": self.draining(),
            "queued": queued,
            "running": running,
            "faults_active": faults::active(),
            "faults_injected": faults_injected,
            "jobs": jobs,
            "metrics": self.telemetry.snapshot(),
            "results_store": self.results.stats(),
            "refcache": self.cache.stats(),
        })
    }
}

impl Drop for Scheduler {
    /// A scheduler dropped with live jobs (one that never drained, or
    /// one with no workers) closes their trails, so a later job under
    /// the same id starts with one root.
    fn drop(&mut self) {
        let state = self.state.get_mut().unwrap_or_else(|e| e.into_inner());
        for job in state.jobs.values() {
            job.close_trail(false, "dropped");
        }
    }
}
