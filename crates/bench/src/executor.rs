//! The parallel experiment executor: [`RunSpec`] jobs fanned out over a
//! work-stealing pool, with full-detailed reference runs deduplicated
//! through the [`RefCache`].
//!
//! ## Job model
//!
//! Every job is self-contained: the worker constructs a fresh
//! `GpuSimulator`, application, controller, and **per-run**
//! [`Telemetry`] from its [`RunSpec`], so concurrent runs share no
//! mutable state and scheduling order cannot affect any measurement.
//! Results are written back by job index — the output order equals the
//! spec order regardless of which worker finished first, and a suite
//! executed with `--jobs 1` and `--jobs N` is bit-identical in
//! everything but wall-clock fields.
//!
//! Each run keeps the harness guardrails: it executes behind
//! `catch_unwind` and a wall-clock timeout on a dedicated run thread
//! (the pool worker blocks on it), so a panicking or wedged
//! configuration becomes a [`RunOutcome::Skipped`] while its siblings
//! continue. A timed-out run thread is abandoned, never joined into the
//! pool.

use crate::harness::{panic_reason, try_run_app_method, FailureKind, Measurement, RunOutcome};
use crate::journal::{journal_key, Journal};
use crate::refcache::{reference_key, RefCache};
use crate::specs::{Method, RunSpec};
use gpu_telemetry::faults::{self, FaultSite};
use gpu_telemetry::span::{self, SpanKind};
use gpu_telemetry::{MetricsSnapshot, Telemetry, TraceLog};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::Mutex;
use std::time::Duration;

/// How an executor invocation runs: worker count, per-run timeout,
/// retry budget, journaling, and reference-cache policy.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads (`--jobs N`); clamped to at least 1.
    pub jobs: usize,
    /// Wall-clock budget per run before it is skipped.
    pub timeout: Duration,
    /// Whether completed `Method::Full` runs are served from / stored
    /// to the persistent reference cache (`--no-cache` disables it;
    /// in-process deduplication still applies).
    pub cache: bool,
    /// Cache directory override; `None` means `results/cache/`. Tests
    /// point this at a temp directory so parallel test binaries never
    /// race on env vars or a shared cache.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Ring capacity for per-run event tracing, the run-time switch.
    /// 0 = off: no ring is attached and an emit site costs one atomic
    /// load.
    pub trace_capacity: usize,
    /// Extra attempts granted to a run whose failure is
    /// [`FailureKind::Transient`] (panics, timeouts). Permanent
    /// failures never retry.
    pub retries: u32,
    /// Base delay before the first retry; doubles per attempt, capped
    /// at one second.
    pub retry_backoff: Duration,
    /// Run-journal path (`--resume` reads it; every completed spec
    /// appends to it). `None` disables journaling — the default for
    /// library/test use; the CLI turns it on at `results/journal.jsonl`.
    pub journal: Option<std::path::PathBuf>,
    /// Replay completed specs from the journal instead of re-simulating
    /// them (requires `journal`).
    pub resume: bool,
    /// Timing-engine override applied to every spec's machine config
    /// before running (`--engine`). `None` leaves the specs untouched.
    pub engine_mode: Option<gpu_sim::EngineMode>,
    /// Worker-thread override for the epoch engine (`--engine-threads`).
    /// Applied to the machine a run simulates on, never to the spec:
    /// results are thread-count-invariant, so cache and journal keys
    /// must be too.
    pub engine_threads: Option<u32>,
    /// Memory-fidelity override applied to every spec's machine config
    /// (`--mem-fidelity legacy|detailed`). `None` leaves the specs
    /// untouched; `Detailed` swaps in [`gpu_mem::MemFidelityConfig::
    /// detailed`]'s knobs, `Legacy` forces the legacy miss path.
    pub mem_fidelity: Option<gpu_mem::MemFidelityMode>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            jobs: default_jobs(),
            timeout: Duration::from_secs(1800),
            cache: true,
            cache_dir: None,
            trace_capacity: 0,
            retries: 2,
            retry_backoff: Duration::from_millis(50),
            journal: None,
            resume: false,
            engine_mode: None,
            engine_threads: None,
            mem_fidelity: None,
        }
    }
}

/// The default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One executed (or cache-served) spec: the outcome plus the run's own
/// telemetry. Metrics and trace are empty for cache hits and for runs
/// deduplicated against an identical sibling spec.
#[derive(Debug)]
pub struct RunResult {
    /// The spec this result answers.
    pub spec: RunSpec,
    /// Measurement or structured skip.
    pub outcome: RunOutcome,
    /// The run's private metrics snapshot (merge explicitly across runs
    /// with [`MetricsSnapshot::merge`]).
    pub metrics: MetricsSnapshot,
    /// The run's private trace (empty when tracing is off).
    pub trace: TraceLog,
    /// True when the measurement came from the persistent reference
    /// cache instead of a simulation.
    pub from_cache: bool,
}

impl RunResult {
    /// The measurement, if the run completed.
    pub fn measurement(&self) -> Option<&Measurement> {
        self.outcome.measurement()
    }
}

/// Counters describing what an executor invocation actually did — the
/// warm-cache CI assertion reads `full_runs_executed`.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct ExecStats {
    /// Worker threads used.
    pub jobs: usize,
    /// Specs submitted.
    pub total: usize,
    /// Simulations actually executed (after dedup and cache hits).
    pub executed: usize,
    /// `Method::Full` simulations actually executed. Zero on a warm
    /// cache.
    pub full_runs_executed: usize,
    /// Specs served from the persistent reference cache.
    pub cache_hits: usize,
    /// Specs answered by an identical sibling spec in the same
    /// invocation.
    pub deduped: usize,
    /// Runs that ended as [`RunOutcome::Skipped`].
    pub skipped: usize,
    /// Extra attempts consumed retrying transient failures.
    pub retried: usize,
    /// Specs replayed from the run journal (`--resume`).
    pub resumed: usize,
}

/// Results (in spec order) plus execution statistics.
#[derive(Debug)]
pub struct ExecReport {
    /// One result per submitted spec, in submission order.
    pub results: Vec<RunResult>,
    /// What the executor did to produce them.
    pub stats: ExecStats,
    /// Executor-level telemetry: the `exec.abandoned_threads` gauge
    /// (worker threads leaked by timeouts during this invocation) and
    /// the `refcache.quarantined` counter. Kept separate from per-run
    /// metrics so merging results never double-counts it.
    pub metrics: MetricsSnapshot,
}

impl ExecReport {
    /// The completed measurements, in submission order, panicking on
    /// the first skip with its recorded reason. Figures that cannot
    /// render partial grids use this; sweeps that tolerate holes match
    /// on [`RunResult::outcome`] instead.
    ///
    /// # Panics
    /// Panics if any run was skipped.
    pub fn measurements(&self) -> Vec<&Measurement> {
        self.results
            .iter()
            .map(|r| match &r.outcome {
                RunOutcome::Completed(m) => m,
                RunOutcome::Skipped {
                    workload,
                    method,
                    reason,
                    ..
                } => panic!("{workload} under {method} skipped: {reason}"),
            })
            .collect()
    }
}

/// Runs every spec and returns results in spec order.
///
/// Identical specs are simulated once (`stats.deduped` counts the
/// copies). Completed `Full` runs are additionally memoized through the
/// reference cache, so a warm rerun of the same grid performs zero
/// full-detailed simulations.
pub fn run_specs(specs: &[RunSpec], opts: &ExecOptions) -> ExecReport {
    // Engine-mode and fidelity overrides rewrite the specs up front so
    // everything keyed on the spec (deduplication, the reference cache,
    // the journal) sees the machine that actually ran.
    let overridden: Vec<RunSpec>;
    let specs: &[RunSpec] = if opts.engine_mode.is_some() || opts.mem_fidelity.is_some() {
        overridden = specs
            .iter()
            .map(|s| {
                let mut s = s.clone();
                if let Some(mode) = opts.engine_mode {
                    s.gpu.engine.mode = mode;
                }
                match opts.mem_fidelity {
                    Some(gpu_mem::MemFidelityMode::Detailed) => {
                        s.gpu.mem.fidelity = gpu_mem::MemFidelityConfig::detailed();
                    }
                    Some(gpu_mem::MemFidelityMode::Legacy) => {
                        s.gpu.mem.fidelity.mode = gpu_mem::MemFidelityMode::Legacy;
                    }
                    None => {}
                }
                s
            })
            .collect();
        &overridden
    } else {
        specs
    };
    let mut stats = ExecStats {
        jobs: opts.jobs.max(1),
        total: specs.len(),
        ..ExecStats::default()
    };
    let cache = if opts.cache {
        RefCache::persistent(opts.cache_dir.clone().unwrap_or_else(RefCache::default_dir))
    } else {
        RefCache::memory_only()
    };
    let abandoned_before = crate::harness::abandoned_threads();

    // Run journal: load completed specs when resuming, then open for
    // appending (a fresh run truncates — the journal describes *this*
    // grid). Journal failures degrade to journal-less operation.
    let replay = if opts.resume {
        opts.journal
            .as_deref()
            .map(|p| crate::journal::load_journal(p).entries)
            .unwrap_or_default()
    } else {
        std::collections::HashMap::new()
    };
    let journal = opts.journal.as_deref().and_then(|p| {
        let opened = if opts.resume {
            Journal::append(p)
        } else {
            Journal::create(p)
        };
        match opened {
            Ok(j) => Some(j),
            Err(e) => {
                eprintln!("warning: could not open journal {}: {e}", p.display());
                None
            }
        }
    });

    // Deduplicate identical specs: only the first occurrence simulates.
    let mut unique: Vec<usize> = Vec::new(); // unique-job -> spec index
    let mut alias: Vec<usize> = Vec::with_capacity(specs.len()); // spec -> unique-job
    for (i, spec) in specs.iter().enumerate() {
        match unique.iter().position(|&u| specs[u] == *spec) {
            Some(j) => {
                alias.push(j);
                stats.deduped += 1;
            }
            None => {
                unique.push(i);
                alias.push(unique.len() - 1);
            }
        }
    }

    // Resolve unique jobs: journal replay, cache hit, or simulation.
    enum Resolved {
        Cached(Measurement),
        Journaled {
            outcome: RunOutcome,
            metrics: MetricsSnapshot,
        },
        Ran {
            outcome: RunOutcome,
            metrics: MetricsSnapshot,
            trace: TraceLog,
        },
    }
    let cache_hits = AtomicUsize::new(0);
    let executed = AtomicUsize::new(0);
    let full_executed = AtomicUsize::new(0);
    let retried = AtomicUsize::new(0);
    let resumed = AtomicUsize::new(0);
    let resolved: Vec<Resolved> = parallel_map(
        unique.iter().map(|&i| &specs[i]).collect(),
        stats.jobs,
        &|spec: &RunSpec| {
            let jkey = journal_key(spec);
            if let Some(entry) = replay.get(&jkey) {
                resumed.fetch_add(1, Ordering::Relaxed);
                return Resolved::Journaled {
                    outcome: entry.outcome.clone(),
                    metrics: entry.metrics.clone(),
                };
            }
            // Root job span for this unique spec: CLI grids leave the
            // same evidence trail as serve jobs (same job id — the
            // journal key). Replays above are bookkeeping, not runs, and
            // get no span.
            let jctx = span::start_job(jkey, &spec.label());
            let _jscope = span::enter(jctx);
            let record = |outcome: &RunOutcome, metrics: &MetricsSnapshot| {
                if let Some(j) = &journal {
                    // Transient skips are deliberately not journaled:
                    // a resumed run must retry them, not replay them.
                    if crate::journal::journalable(outcome) {
                        j.record(jkey, &spec.label(), outcome, metrics);
                    }
                }
            };
            let resolved = if spec.method == Method::Full {
                // Single-flight through the cache: a hit answers from
                // memory/disk, a miss leads the simulation (storing the
                // completed measurement before followers wake), and a
                // concurrent identical computation — e.g. photon-serve
                // sharing this cache instance — is joined, not repeated.
                let key = reference_key(spec);
                let probe = span::guard(jctx, SpanKind::CacheProbe, &spec.workload.name());
                let mut led: Option<(RunOutcome, MetricsSnapshot, TraceLog)> = None;
                let (m, _origin) = cache.get_or_compute_full(key, &spec.workload.name(), || {
                    let out = execute_spec_retrying(spec, opts, jkey, &retried, None);
                    executed.fetch_add(1, Ordering::Relaxed);
                    full_executed.fetch_add(1, Ordering::Relaxed);
                    let meas = match &out.0 {
                        RunOutcome::Completed(m) => Some(m.clone()),
                        _ => None,
                    };
                    led = Some(out);
                    meas
                });
                probe.finish(
                    true,
                    if led.is_none() && m.is_some() {
                        "hit"
                    } else {
                        "miss"
                    },
                );
                if let Some((outcome, metrics, trace)) = led {
                    record(&outcome, &metrics);
                    Resolved::Ran {
                        outcome,
                        metrics,
                        trace,
                    }
                } else {
                    match m {
                        Some(m) => {
                            cache_hits.fetch_add(1, Ordering::Relaxed);
                            let outcome = RunOutcome::Completed(m.clone());
                            record(&outcome, &MetricsSnapshot::default());
                            Resolved::Cached(m)
                        }
                        None => {
                            // Coalesced onto a leader (in another executor
                            // sharing this cache) whose run failed: fall back
                            // to running it ourselves so this grid still gets
                            // a first-hand outcome.
                            let (outcome, metrics, trace) =
                                execute_spec_retrying(spec, opts, jkey, &retried, None);
                            executed.fetch_add(1, Ordering::Relaxed);
                            full_executed.fetch_add(1, Ordering::Relaxed);
                            record(&outcome, &metrics);
                            Resolved::Ran {
                                outcome,
                                metrics,
                                trace,
                            }
                        }
                    }
                }
            } else {
                let (outcome, metrics, trace) =
                    execute_spec_retrying(spec, opts, jkey, &retried, None);
                executed.fetch_add(1, Ordering::Relaxed);
                record(&outcome, &metrics);
                Resolved::Ran {
                    outcome,
                    metrics,
                    trace,
                }
            };
            let (ok, detail) = match &resolved {
                Resolved::Cached(_) => (true, String::from("cache-hit")),
                Resolved::Journaled { .. } => (true, String::new()),
                Resolved::Ran { outcome, .. } => match outcome {
                    RunOutcome::Completed(_) => (true, String::new()),
                    RunOutcome::Skipped { reason, .. } => (false, reason.clone()),
                },
            };
            span::close(jctx.span, ok, &detail);
            resolved
        },
    );
    stats.cache_hits = cache_hits.into_inner();
    stats.executed = executed.into_inner();
    stats.full_runs_executed = full_executed.into_inner();
    stats.retried = retried.into_inner();
    stats.resumed = resumed.into_inner();

    // Fan results back out to submission order.
    let mut results = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().cloned().enumerate() {
        let job = alias[i];
        let first_owner = i == unique[job];
        let r = match &resolved[job] {
            Resolved::Cached(m) => RunResult {
                spec,
                outcome: RunOutcome::Completed(m.clone()),
                metrics: MetricsSnapshot::default(),
                trace: TraceLog::default(),
                from_cache: true,
            },
            Resolved::Journaled { outcome, metrics } => RunResult {
                spec,
                outcome: outcome.clone(),
                // The journal stored the original run's metrics, so a
                // resumed grid merges to the same snapshot as an
                // uninterrupted one. The trace is gone — it is not part
                // of any report.
                metrics: if first_owner {
                    metrics.clone()
                } else {
                    MetricsSnapshot::default()
                },
                trace: TraceLog::default(),
                from_cache: false,
            },
            Resolved::Ran {
                outcome,
                metrics,
                trace,
            } => RunResult {
                spec,
                outcome: outcome.clone(),
                // Telemetry belongs to the run, not its aliases: only
                // the first occurrence carries it, so merging every
                // result never double-counts a simulation.
                metrics: if first_owner {
                    metrics.clone()
                } else {
                    MetricsSnapshot::default()
                },
                trace: if first_owner {
                    trace.clone()
                } else {
                    TraceLog::default()
                },
                from_cache: false,
            },
        };
        if r.outcome.measurement().is_none() {
            stats.skipped += 1;
        }
        results.push(r);
    }

    // Executor-level telemetry. These are invocation properties, not
    // run properties, so they live beside the per-run snapshots; both
    // values are 0 on a healthy fault-free run, which keeps resumed and
    // uninterrupted reports byte-identical.
    let exec_tel = Telemetry::default();
    exec_tel
        .gauge("exec.abandoned_threads")
        .set((crate::harness::abandoned_threads() - abandoned_before) as f64);
    exec_tel
        .counter("refcache.quarantined")
        .add(cache.quarantined());
    let cache_stats = cache.stats();
    exec_tel
        .counter("refcache.evicted")
        .add(cache_stats.disk_evicted);
    exec_tel
        .counter("refcache.mem_evicted")
        .add(cache_stats.memory.evicted);
    exec_tel
        .counter("refcache.coalesced")
        .add(cache_stats.memory.coalesced);
    ExecReport {
        results,
        stats,
        metrics: exec_tel.snapshot(),
    }
}

/// Executes one spec with the full guardrail + retry stack, observable
/// from outside: when `telemetry` is provided, the run's counters and
/// gauges land in that registry **live** (this is how `photon-serve`
/// streams `status`/`wait` progress events while a simulation runs) in
/// addition to being returned as the final snapshot. With `None` the
/// behavior is exactly the executor's: a fresh private registry per
/// run.
pub fn run_spec_observed(
    spec: &RunSpec,
    opts: &ExecOptions,
    telemetry: Option<&Telemetry>,
) -> (RunOutcome, MetricsSnapshot, TraceLog) {
    let retried = AtomicUsize::new(0);
    let (outcome, mut metrics, trace) =
        execute_spec_retrying(spec, opts, journal_key(spec), &retried, telemetry);
    let retries = retried.load(Ordering::Relaxed) as u64;
    if retries > 0 {
        // The snapshot was taken before the retry count was known; fold
        // it in so observers see how many attempts the outcome cost.
        if let Some(t) = telemetry {
            t.counter("exec.retried").add(retries);
        }
        metrics.counters.push(gpu_telemetry::CounterSnapshot {
            name: "exec.retried".to_string(),
            value: retries,
        });
    }
    (outcome, metrics, trace)
}

/// [`execute_spec`] plus the transient-failure retry loop: a panic or
/// timeout re-runs (after capped exponential backoff) until it succeeds
/// or the budget is exhausted; a deterministic failure returns
/// immediately. The last attempt's outcome is returned either way.
fn execute_spec_retrying(
    spec: &RunSpec,
    opts: &ExecOptions,
    jkey: u64,
    retried: &AtomicUsize,
    external: Option<&Telemetry>,
) -> (RunOutcome, MetricsSnapshot, TraceLog) {
    let mut attempt: u32 = 0;
    loop {
        let out = execute_spec(spec, opts, jkey ^ u64::from(attempt), external);
        match out.0.failure() {
            Some(FailureKind::Transient) if attempt < opts.retries => {
                attempt += 1;
                retried.fetch_add(1, Ordering::Relaxed);
                let backoff = opts
                    .retry_backoff
                    .saturating_mul(1u32 << (attempt - 1).min(16))
                    .min(Duration::from_secs(1));
                std::thread::sleep(backoff);
            }
            _ => return out,
        }
    }
}

/// Executes one spec with the harness guardrails, returning the outcome
/// together with the run's private telemetry.
///
/// The simulation happens on its own named thread behind `catch_unwind`
/// and `opts.timeout`; the calling pool worker just waits. On timeout
/// the run thread is abandoned (it cannot be cancelled) and empty
/// telemetry is returned — the abandoned thread still owns its handle.
///
/// `fault_key` seeds the `exec.panic` / `exec.stall` injection sites:
/// it is the spec's journal key XOR the attempt number, so fault
/// decisions are a pure function of *what* runs (never of scheduling
/// order — `--jobs 1` and `--jobs N` see identical faults) and a retry
/// re-rolls rather than deterministically re-failing.
fn execute_spec(
    spec: &RunSpec,
    opts: &ExecOptions,
    fault_key: u64,
    external: Option<&Telemetry>,
) -> (RunOutcome, MetricsSnapshot, TraceLog) {
    let workload = spec.workload.name();
    let method_name = spec.method.name();
    let skipped =
        |reason: String, error: Option<String>, failure: FailureKind| RunOutcome::Skipped {
            workload: workload.clone(),
            method: method_name.clone(),
            reason,
            error,
            failure,
        };

    let mut run_spec = spec.clone();
    if let Some(threads) = opts.engine_threads {
        run_spec.gpu.engine.threads = threads;
    }
    let trace_capacity = opts.trace_capacity;
    // `Telemetry` is a cheap-clone handle onto a shared registry, so an
    // external observer sees the run's counters move live. (A timed-out
    // run's abandoned thread keeps writing into it until it exits —
    // observers read monotonic counters, so that is benign.)
    let ext = external.cloned();
    // Long enough to trip the timeout with margin, short enough that
    // the abandoned sleeper exits soon after.
    let stall = opts.timeout.saturating_mul(2);
    // The run thread inherits the caller's trace context (thread-locals
    // don't cross the spawn) and wraps the attempt in a `sim` span, so
    // a failed attempt's span names its failure — including the fault
    // site of an injected panic.
    let parent_ctx = span::current();
    let attempt_label = format!("{} attempt {}", spec.label(), fault_key ^ journal_key(spec));
    let (tx, rx) = channel();
    let spawn = std::thread::Builder::new()
        .name(format!("run-{}", spec.label()))
        .spawn(move || {
            let _scope = parent_ctx.map(span::enter);
            let sim_span = parent_ctx.map(|ctx| span::guard(ctx, SpanKind::Sim, &attempt_label));
            let _sim_scope = sim_span.as_ref().map(|g| span::enter(g.ctx()));
            if faults::active() {
                faults::maybe_stall(FaultSite::ExecStall, fault_key, stall);
            }
            let telemetry = ext.unwrap_or_default();
            if trace_capacity > 0 {
                telemetry.enable_tracing(trace_capacity);
            }
            let res = catch_unwind(AssertUnwindSafe(|| {
                if faults::active() {
                    faults::maybe_panic(FaultSite::ExecPanic, fault_key);
                }
                try_run_app_method(
                    &run_spec.gpu,
                    &run_spec.workload.name(),
                    &|gpu| run_spec.workload.build(gpu, run_spec.seed),
                    &run_spec.method,
                    &run_spec.photon,
                    &telemetry,
                )
            }));
            if let Some(g) = sim_span {
                match &res {
                    Ok(Ok(_)) => g.finish(true, ""),
                    Ok(Err(e)) => g.finish(false, &format!("simulation error: {e}")),
                    Err(payload) => g.finish(false, &panic_reason(payload.as_ref())),
                }
            }
            let snapshot = telemetry.snapshot();
            let trace = telemetry.take_events();
            // The receiver may already have timed out and moved on.
            let _ = tx.send((res, snapshot, trace));
        });
    let handle = match spawn {
        Ok(h) => h,
        Err(e) => {
            return (
                skipped(
                    format!("could not spawn run thread: {e}"),
                    None,
                    FailureKind::Transient,
                ),
                MetricsSnapshot::default(),
                TraceLog::default(),
            )
        }
    };

    match rx.recv_timeout(opts.timeout) {
        Ok((res, metrics, trace)) => {
            let _ = handle.join();
            let outcome = match res {
                Ok(Ok(mut m)) => {
                    // Single-kernel benchmarks report the requested
                    // problem size; multi-kernel apps keep the builder's
                    // total.
                    if spec.workload.warps() > 0 {
                        m.warps = spec.workload.warps();
                    }
                    RunOutcome::Completed(m)
                }
                Ok(Err(sim_err)) => skipped(
                    format!("simulation error: {sim_err}"),
                    Some(format!("{sim_err:?}")),
                    FailureKind::Permanent,
                ),
                Err(payload) => skipped(
                    format!("panicked: {}", panic_reason(payload.as_ref())),
                    None,
                    FailureKind::Transient,
                ),
            };
            (outcome, metrics, trace)
        }
        Err(RecvTimeoutError::Timeout) => {
            crate::harness::note_abandoned_thread();
            (
                skipped(
                    format!("timed out after {:.1}s", opts.timeout.as_secs_f64()),
                    None,
                    FailureKind::Transient,
                ),
                MetricsSnapshot::default(),
                TraceLog::default(),
            )
        }
        Err(RecvTimeoutError::Disconnected) => {
            let _ = handle.join();
            (
                skipped(
                    "run thread died without reporting".to_string(),
                    None,
                    FailureKind::Transient,
                ),
                MetricsSnapshot::default(),
                TraceLog::default(),
            )
        }
    }
}

/// Applies `f` to every item on a work-stealing pool of `jobs` workers
/// and returns the results in item order.
///
/// Items are seeded round-robin into per-worker deques; an idle worker
/// drains its own deque LIFO, then steals FIFO from its siblings. With
/// `jobs <= 1` (or one item) everything runs on the calling thread —
/// the degenerate case the determinism test compares against.
pub fn parallel_map<T, R, F>(items: Vec<T>, jobs: usize, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 {
        return items.into_iter().map(f).collect();
    }

    use crossbeam::deque::{Stealer, Worker};
    let total = items.len();
    let workers: Vec<Worker<(usize, T)>> = (0..jobs).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<(usize, T)>> = workers.iter().map(|w| w.stealer()).collect();
    for (i, item) in items.into_iter().enumerate() {
        workers[i % jobs].push((i, item));
    }

    let slots: Vec<Mutex<Option<R>>> = (0..total).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for (wi, worker) in workers.into_iter().enumerate() {
            let stealers = &stealers;
            let slots = &slots;
            scope.spawn(move || loop {
                // own deque first, then siblings
                let next = worker.pop().or_else(|| {
                    stealers
                        .iter()
                        .enumerate()
                        .filter(|(si, _)| *si != wi)
                        .find_map(|(_, s)| s.steal().success())
                });
                // No task produces new tasks, so one empty sweep over
                // every queue means the pool is drained.
                let Some((i, item)) = next else { break };
                let r = f(item);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            });
        }
    });

    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .unwrap_or_else(|| unreachable!("every pool slot is filled before join"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let seq = parallel_map(items.clone(), 1, &|x| x * 3);
        let par = parallel_map(items, 4, &|x| x * 3);
        assert_eq!(seq, par);
        assert_eq!(par[10], 30);
    }

    #[test]
    fn parallel_map_runs_work_concurrently() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let out = parallel_map((0..16).collect::<Vec<_>>(), 4, &|x: u64| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(20));
            live.fetch_sub(1, Ordering::SeqCst);
            x
        });
        assert_eq!(out.len(), 16);
        assert!(
            peak.load(Ordering::SeqCst) > 1,
            "expected overlapping workers, saw peak {}",
            peak.load(Ordering::SeqCst)
        );
    }
}
