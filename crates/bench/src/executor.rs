//! The parallel experiment executor. [`resolve_spec`] is the one way a
//! [`RunSpec`] gets answered — reference-cache hit or a simulation
//! behind the guardrails — and [`run_specs`] maps it over a grid on
//! [`parallel_map`]'s pool.
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
//! Each run keeps the harness guardrails (`execute_spec`): a panicking
//! or wedged configuration becomes a [`RunOutcome::Skipped`] while its
//! siblings continue.

use crate::harness::{panic_reason, try_run_app_method, FailureKind, Measurement, RunOutcome};
use crate::journal::{journal_key, journalable, Journal, JournalEntry};
use crate::refcache::{reference_key, RefCache};
use crate::specs::{Method, RunSpec};
use gpu_mem::{MemFidelityConfig, MemFidelityMode};
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
    /// `run_specs` still simulates equal specs once).
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
    /// [`FailureKind::Transient`] (panics, timeouts), after a backoff
    /// of 50 ms that doubles per attempt. Permanent failures never
    /// retry.
    pub retries: u32,
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
    pub mem_fidelity: Option<MemFidelityMode>,
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
            journal: None,
            resume: false,
            engine_mode: None,
            engine_threads: None,
            mem_fidelity: None,
        }
    }
}

impl ExecOptions {
    /// `spec` as this invocation runs it: the `--engine` /
    /// `--mem-fidelity` overrides rewrite the machine up front, so
    /// everything keyed on the spec (deduplication, the reference cache,
    /// the journal) sees the machine that actually ran.
    fn overridden(&self, spec: &RunSpec) -> RunSpec {
        let mut spec = spec.clone();
        if let Some(mode) = self.engine_mode {
            spec.gpu.engine.mode = mode;
        }
        match self.mem_fidelity {
            Some(MemFidelityMode::Detailed) => {
                spec.gpu.mem.fidelity = MemFidelityConfig::detailed()
            }
            Some(MemFidelityMode::Legacy) => spec.gpu.mem.fidelity.mode = MemFidelityMode::Legacy,
            None => {}
        }
        spec
    }

    /// The reference cache `cache` / `cache_dir` ask for: the
    /// directory, or a cache with none (every lookup misses).
    pub fn ref_cache(&self) -> RefCache {
        if self.cache {
            RefCache::persistent(self.cache_dir.clone().unwrap_or_else(RefCache::default_dir))
        } else {
            RefCache::memory_only()
        }
    }
}

/// Delay before the first retry of a transient failure; it doubles per
/// attempt, capped at one second.
const RETRY_BACKOFF: Duration = Duration::from_millis(50);

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

/// One answered spec: the outcome, the telemetry of the run that
/// produced it, and what answering it cost — the one value both the grid
/// executor and `photon-serve` read their counters off.
#[derive(Debug)]
pub struct Resolution {
    /// Measurement or structured skip.
    pub outcome: RunOutcome,
    /// The run's metrics snapshot (empty when nothing simulated).
    pub metrics: MetricsSnapshot,
    /// The run's event trace (empty unless tracing was on and it ran).
    pub trace: TraceLog,
    /// True when the reference cache's directory answered instead of a
    /// simulation.
    pub from_cache: bool,
    /// Simulations performed: 0 for a cache hit or a journal replay,
    /// else 1 (however many attempts it took — see `retries`).
    pub simulations: usize,
    /// Extra attempts consumed retrying transient failures.
    pub retries: usize,
}

impl Resolution {
    fn answered(outcome: RunOutcome, metrics: MetricsSnapshot, from_cache: bool) -> Resolution {
        Resolution {
            outcome,
            metrics,
            trace: TraceLog::default(),
            from_cache,
            simulations: 0,
            retries: 0,
        }
    }
}

/// Runs every spec and returns results in spec order.
///
/// Identical specs are simulated once (`stats.deduped` counts the
/// copies). Completed `Full` runs are additionally memoized through the
/// reference cache, so a warm rerun of the same grid performs zero
/// full-detailed simulations.
pub fn run_specs(specs: &[RunSpec], opts: &ExecOptions) -> ExecReport {
    let specs: Vec<RunSpec> = specs.iter().map(|s| opts.overridden(s)).collect();
    let mut stats = ExecStats {
        jobs: opts.jobs.max(1),
        total: specs.len(),
        ..ExecStats::default()
    };
    let cache = opts.ref_cache();
    let abandoned_before = crate::harness::abandoned_threads();

    // Run journal: load completed specs when resuming, then open for
    // appending (a fresh run truncates — the journal describes *this*
    // grid). Journal failures degrade to journal-less operation.
    let replay = match opts.journal.as_deref() {
        Some(p) if opts.resume => crate::journal::load_journal(p).0,
        _ => std::collections::HashMap::new(),
    };
    let journal = opts.journal.as_deref().and_then(|p| {
        Journal::open(p, !opts.resume)
            .map(|j| (j, p))
            .map_err(|e| eprintln!("warning: could not open journal {}: {e}", p.display()))
            .ok()
    });

    // Deduplicate identical specs: only the first occurrence simulates.
    let mut unique: Vec<usize> = Vec::new(); // unique-job -> spec index
    let mut alias: Vec<usize> = Vec::with_capacity(specs.len()); // spec -> unique-job
    for (i, spec) in specs.iter().enumerate() {
        let seen = unique.iter().position(|&u| specs[u] == *spec);
        alias.push(seen.unwrap_or_else(|| {
            unique.push(i);
            unique.len() - 1
        }));
    }
    stats.deduped = specs.len() - unique.len();

    // Answer each unique job: journal replay, else `resolve_spec`.
    let mut resolved = parallel_map(unique.clone(), stats.jobs, &|i: usize| {
        let spec = &specs[i];
        let jkey = journal_key(spec);
        if let Some(entry) = replay.get(&jkey) {
            // A replay is bookkeeping, not a run, and gets no span. It
            // carries the original run's metrics, so a resumed grid
            // merges to the same snapshot as an uninterrupted one; the
            // trace is gone (it is not part of any report).
            return (
                Resolution::answered(entry.outcome.clone(), entry.metrics.clone(), false),
                true,
            );
        }
        // Root job span for this unique spec: CLI grids leave the same
        // evidence trail as serve jobs (same job id — the journal key).
        let jctx = span::start_job(jkey, &spec.label());
        let _jscope = span::enter(jctx);
        let res = resolve_spec(spec, opts, &cache, None);
        // Transient skips are deliberately not journaled: a resumed run
        // must retry them, not replay them. A failed append only warns:
        // the journal speeds up resume, it is never a correctness input.
        if let Some((j, p)) = journal.as_ref().filter(|_| journalable(&res.outcome)) {
            let entry = JournalEntry::new(jkey, &spec.label(), &res.outcome, &res.metrics);
            if let Err(e) = j.record(jkey, &entry) {
                eprintln!("warning: could not append to journal {}: {e}", p.display());
            }
        }
        match &res.outcome {
            RunOutcome::Completed(_) if res.from_cache => span::close(jctx.span, true, "cache-hit"),
            RunOutcome::Completed(_) => span::close(jctx.span, true, ""),
            RunOutcome::Skipped { reason, .. } => span::close(jctx.span, false, reason),
        }
        (res, false)
    });
    for (&i, (res, replayed)) in unique.iter().zip(&resolved) {
        stats.resumed += usize::from(*replayed);
        stats.executed += res.simulations;
        if specs[i].method == Method::Full {
            stats.full_runs_executed += res.simulations;
        }
        stats.cache_hits += usize::from(res.from_cache);
        stats.retried += res.retries;
    }

    // Fan results back out to submission order. Telemetry belongs to
    // the run, not its aliases: the first occurrence takes it and later
    // ones find it empty, so merging every result never double-counts a
    // simulation.
    let mut results = Vec::with_capacity(specs.len());
    for (i, spec) in specs.into_iter().enumerate() {
        let (res, _) = &mut resolved[alias[i]];
        if res.outcome.measurement().is_none() {
            stats.skipped += 1;
        }
        results.push(RunResult {
            spec,
            outcome: res.outcome.clone(),
            metrics: std::mem::take(&mut res.metrics),
            trace: std::mem::take(&mut res.trace),
            from_cache: res.from_cache,
        });
    }

    // Executor-level telemetry. These are invocation properties, not
    // run properties, so they live beside the per-run snapshots; both
    // values are 0 on a healthy fault-free run, which keeps resumed and
    // uninterrupted reports byte-identical.
    let exec_tel = Telemetry::default();
    exec_tel
        .gauge("exec.abandoned_threads")
        .set((crate::harness::abandoned_threads() - abandoned_before) as f64);
    let cache_stats = cache.stats();
    for (name, n) in [
        ("refcache.quarantined", cache_stats.quarantined),
        ("refcache.evicted", cache_stats.disk_evicted),
    ] {
        exec_tel.counter(name).add(n);
    }
    ExecReport {
        results,
        stats,
        metrics: exec_tel.snapshot(),
    }
}

/// Answers one spec — the only path from a [`RunSpec`] to a simulation:
/// [`run_specs`] maps it over a grid, `photon-serve` calls it per job.
///
/// A `Method::Full` spec is first looked up in `cache`'s directory; a
/// miss simulates, and a completed measurement is stored there. The
/// lookup is a `cache-probe` span ("hit" / "miss") under the caller's
/// current trace context. A failed run stores nothing, so a failure is
/// never served from the cache. Sampled methods always simulate.
/// `telemetry` is [`run_spec_observed`]'s live registry.
pub fn resolve_spec(
    spec: &RunSpec,
    opts: &ExecOptions,
    cache: &RefCache,
    telemetry: Option<&Telemetry>,
) -> Resolution {
    if spec.method != Method::Full {
        return run_spec_observed(spec, opts, telemetry);
    }
    let key = reference_key(spec);
    let workload = spec.workload.name();
    let probe = span::current().map(|ctx| span::guard(ctx, SpanKind::CacheProbe, &workload));
    let cached = cache.lookup(key);
    if let Some(probe) = probe {
        probe.finish(true, if cached.is_some() { "hit" } else { "miss" });
    }
    if let Some(m) = cached {
        let outcome = RunOutcome::Completed(m);
        return Resolution::answered(outcome, MetricsSnapshot::default(), true);
    }
    let run = run_spec_observed(spec, opts, telemetry);
    if let Some(m) = run.outcome.measurement() {
        cache.store(key, &workload, m);
    }
    run
}

/// Simulates one spec with the full guardrail + retry stack: a panic or
/// timeout ([`FailureKind::Transient`]) re-runs after capped
/// exponential backoff until it succeeds or `opts.retries` is spent; a
/// deterministic failure returns immediately. The last attempt's
/// outcome is returned either way.
///
/// When `telemetry` is provided, the run's counters and gauges land in
/// that registry **live** (this is how `photon-serve`'s `trace` op
/// shows a job's progress while its simulation runs) in addition
/// to being returned as the final snapshot, and the retry count is
/// folded into both as `exec.retried`. With `None` each attempt gets a
/// fresh private registry.
pub fn run_spec_observed(
    spec: &RunSpec,
    opts: &ExecOptions,
    telemetry: Option<&Telemetry>,
) -> Resolution {
    let mut attempt: u32 = 0;
    let (outcome, mut metrics, trace) = loop {
        let out = execute_spec(spec, opts, attempt, telemetry);
        match out.0.failure() {
            Some(FailureKind::Transient) if attempt < opts.retries => {
                attempt += 1;
                let backoff = RETRY_BACKOFF
                    .saturating_mul(1u32 << (attempt - 1).min(16))
                    .min(Duration::from_secs(1));
                std::thread::sleep(backoff);
            }
            _ => break out,
        }
    };
    if let Some(t) = telemetry.filter(|_| attempt > 0) {
        // The snapshot was taken before the retry count was known; fold
        // it in so observers see how many attempts the outcome cost.
        t.counter("exec.retried").add(u64::from(attempt));
        metrics.counters.push(gpu_telemetry::CounterSnapshot {
            name: "exec.retried".to_string(),
            value: u64::from(attempt),
        });
    }
    Resolution {
        outcome,
        metrics,
        trace,
        from_cache: false,
        simulations: 1,
        retries: attempt as usize,
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
/// The `exec.panic` / `exec.stall` injection sites are keyed by the
/// spec's journal key XOR `attempt`, so fault decisions are a pure
/// function of *what* runs (never of scheduling order — `--jobs 1` and
/// `--jobs N` see identical faults) and a retry re-rolls rather than
/// deterministically re-failing.
fn execute_spec(
    spec: &RunSpec,
    opts: &ExecOptions,
    attempt: u32,
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
    let fault_key = journal_key(spec) ^ u64::from(attempt);
    let attempt_label = format!("{} attempt {attempt}", spec.label());
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
    // Every way of not hearing back from the run thread is transient
    // and leaves no telemetry (an abandoned thread still owns its own).
    let lost = |reason: String| {
        let outcome = skipped(reason, None, FailureKind::Transient);
        (outcome, MetricsSnapshot::default(), TraceLog::default())
    };
    let handle = match spawn {
        Ok(h) => h,
        Err(e) => return lost(format!("could not spawn run thread: {e}")),
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
            lost(format!(
                "timed out after {:.1}s",
                opts.timeout.as_secs_f64()
            ))
        }
        Err(RecvTimeoutError::Disconnected) => {
            let _ = handle.join();
            lost("run thread died without reporting".to_string())
        }
    }
}

/// Applies `f` to every item on `jobs` scoped worker threads and
/// returns the results in item order.
///
/// Workers claim the next unclaimed index from one shared cursor, so a
/// slow item never strands work queued behind it, and leave each result
/// in the cell the item came from. With `jobs <= 1` (or one item)
/// everything runs on the calling thread — the degenerate case the
/// determinism test compares against. A panic in `f` propagates to the
/// caller once the other workers have drained the cursor.
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

    // Index-addressed slots: `items[i]` holds the item until a worker
    // claims it, `slots[i]` its result. Each is written whole, so a lock
    // poisoned by a sibling's panic still guards a valid value.
    fn lock<V>(m: &Mutex<V>) -> std::sync::MutexGuard<'_, V> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    // Relaxed: the cursor only hands out indices; items and results are
    // published by the slot mutexes and the scope's join.
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i).and_then(|cell| lock(cell).take()) else {
                    break;
                };
                *lock(&slots[i]) = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .unwrap_or_else(|| unreachable!("every slot is filled before the scope joins"))
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
