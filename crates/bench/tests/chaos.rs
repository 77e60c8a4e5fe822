//! Chaos suite: provoke every guardrail in the stack through the
//! seeded fault-injection sites and assert the documented recovery —
//! retries for transient failures, permanent skips for deterministic
//! simulator errors, quarantine for corrupt cache entries, and
//! journal-driven resume that reproduces an uninterrupted run.
//!
//! The fault plan is process-global, so every test takes `lock_faults`
//! (tests in this binary serialize; other test binaries are separate
//! processes with their own — empty — plan).

use gpu_sim::{GpuConfig, GpuSimulator, SamplingController};
use gpu_telemetry::faults::{self, FaultPlan, FaultSite};
use gpu_telemetry::Telemetry;
use gpu_workloads::registry::Benchmark;
use gpu_workloads::App;
use photon::Levels;
use photon_bench::harness::{try_run_app_method, FailureKind, RunOutcome};
use photon_bench::{journal_key, load_journal, run_specs, ExecOptions, Method, RunSpec};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Serializes chaos tests and guarantees the plan is cleared on exit
/// (even when an assertion fails).
struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for FaultGuard {
    fn drop(&mut self) {
        faults::install(None);
        faults::reset_injected();
    }
}

fn lock_faults() -> FaultGuard {
    static LOCK: Mutex<()> = Mutex::new(());
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    faults::install(None);
    faults::reset_injected();
    FaultGuard(g)
}

fn set_faults(spec: &str) {
    faults::install(Some(FaultPlan::parse(spec).expect("valid fault spec")));
}

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "photon-bench-chaos-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fir(method: Method) -> RunSpec {
    RunSpec::bench(GpuConfig::tiny(), Benchmark::Fir, 64, method)
}

/// Executor options for chaos runs: hermetic (no cache dir, no journal
/// unless the test opts in), with two retries.
fn opts() -> ExecOptions {
    ExecOptions {
        jobs: 1,
        cache: false,
        retries: 2,
        ..ExecOptions::default()
    }
}

fn reason_of(outcome: &RunOutcome) -> &str {
    match outcome {
        RunOutcome::Completed(_) => "",
        RunOutcome::Skipped { reason, .. } => reason,
    }
}

/// Whether two outcomes of one spec must be taken as the same under
/// `--jobs 1` and `--jobs N`: completed runs are the same simulated
/// result, skips the same reason, error and failure kind.
fn same_outcome(a: &RunOutcome, b: &RunOutcome) -> Result<(), String> {
    match (a, b) {
        (RunOutcome::Completed(a), RunOutcome::Completed(b)) => {
            let differences = a.differences(b);
            if differences.is_empty() {
                Ok(())
            } else {
                Err(differences.join("; "))
            }
        }
        (
            RunOutcome::Skipped {
                reason,
                error,
                failure,
                ..
            },
            RunOutcome::Skipped {
                reason: r,
                error: e,
                failure: f,
                ..
            },
        ) if (reason, error, failure) == (r, e, f) => Ok(()),
        _ => Err(format!("{a:?} vs {b:?}")),
    }
}

#[test]
fn exec_panic_is_transient_and_a_retry_succeeds() {
    let spec = fir(Method::Photon(Levels::all()));
    let jkey = journal_key(&spec);
    // Pure seed search: inject on attempt 0 (key = jkey ^ 0), stay
    // clean on attempt 1 (key = jkey ^ 1).
    let seed = (0..100_000u64)
        .find(|&s| {
            let p = FaultPlan::parse(&format!("exec.panic:0.5:{s}")).unwrap();
            p.would_inject(FaultSite::ExecPanic, jkey)
                && !p.would_inject(FaultSite::ExecPanic, jkey ^ 1)
        })
        .expect("a seed that panics attempt 0 and spares attempt 1");

    let _g = lock_faults();
    set_faults(&format!("exec.panic:0.5:{seed}"));
    let report = run_specs(&[spec], &opts());
    assert!(
        report.results[0].measurement().is_some(),
        "retry after an injected panic must succeed: {:?}",
        report.results[0].outcome
    );
    assert_eq!(report.stats.retried, 1);
    assert_eq!(faults::injected(FaultSite::ExecPanic), 1);
}

#[test]
fn exec_panic_at_rate_one_exhausts_the_retry_budget() {
    let _g = lock_faults();
    set_faults("exec.panic:1.0:1");
    let report = run_specs(&[fir(Method::Photon(Levels::all()))], &opts());
    let outcome = &report.results[0].outcome;
    assert!(reason_of(outcome).contains("panicked"), "{outcome:?}");
    assert_eq!(outcome.failure(), Some(FailureKind::Transient));
    // retries = 2 -> three attempts total, two of them retries.
    assert_eq!(report.stats.retried, 2);
    assert_eq!(report.stats.skipped, 1);
    assert_eq!(faults::injected(FaultSite::ExecPanic), 3);
}

#[test]
fn exec_stall_trips_the_timeout_and_counts_the_abandoned_thread() {
    let _g = lock_faults();
    set_faults("exec.stall:1.0:1");
    let mut o = opts();
    o.timeout = Duration::from_millis(100);
    o.retries = 0;
    let report = run_specs(&[fir(Method::Photon(Levels::all()))], &o);
    let outcome = &report.results[0].outcome;
    assert!(reason_of(outcome).contains("timed out"), "{outcome:?}");
    assert_eq!(outcome.failure(), Some(FailureKind::Transient));
    let abandoned = report
        .metrics
        .gauges
        .iter()
        .find(|g| g.name == "exec.abandoned_threads")
        .expect("executor reports the abandoned-thread gauge");
    assert!(abandoned.value >= 1.0, "gauge {}", abandoned.value);
    // Let the injected 200ms sleeper drain before the next test reuses
    // the fault lock (keeps the global abandoned counter quiescent).
    std::thread::sleep(Duration::from_millis(250));
}

#[test]
fn watchdog_fuel_exhaustion_is_a_permanent_skip_without_retries() {
    let _g = lock_faults();
    set_faults("watchdog.fuel:1.0:1");
    let report = run_specs(&[fir(Method::Full)], &opts());
    let outcome = &report.results[0].outcome;
    assert_eq!(outcome.failure(), Some(FailureKind::Permanent));
    match outcome {
        RunOutcome::Skipped { error, .. } => {
            let error = error.as_deref().unwrap_or_default();
            assert!(error.contains("FuelExhausted"), "{error}");
        }
        RunOutcome::Completed(_) => panic!("fuel exhaustion must skip the run"),
    }
    // Deterministic simulator errors never burn the retry budget.
    assert_eq!(report.stats.retried, 0);
    assert!(faults::injected(FaultSite::WatchdogFuel) >= 1);
}

#[test]
fn watchdog_stuck_warp_is_a_permanent_deadlock_skip() {
    let _g = lock_faults();
    set_faults("watchdog.stuck:1.0:1");
    let report = run_specs(&[fir(Method::Full)], &opts());
    let outcome = &report.results[0].outcome;
    assert_eq!(outcome.failure(), Some(FailureKind::Permanent));
    match outcome {
        RunOutcome::Skipped { error, .. } => {
            let error = error.as_deref().unwrap_or_default();
            assert!(error.contains("Deadlock"), "{error}");
        }
        RunOutcome::Completed(_) => panic!("a zero stall budget must deadlock the run"),
    }
    assert_eq!(report.stats.retried, 0);
}

/// Requests an IPC abort after the first elapsed window — the
/// engine-side guardrail (not the controller) must refuse it when the
/// verdict degenerates to NaN.
struct AbortAfterFirstWindow {
    windows: u32,
    ipc: f64,
}

impl SamplingController for AbortAfterFirstWindow {
    fn on_ipc_window(&mut self, _start: gpu_sim::Cycle, insts: u64, window: gpu_sim::Cycle) {
        self.windows += 1;
        self.ipc = insts as f64 / window as f64;
    }
    fn check_abort(&mut self) -> Option<f64> {
        (self.windows >= 1 && self.ipc > 0.0).then_some(self.ipc)
    }
}

#[test]
fn controller_nan_abort_is_refused_and_the_run_stays_detailed() {
    let _g = lock_faults();

    // Control: the same controller aborts and extrapolates when the
    // verdict is sane.
    let mut gpu = GpuSimulator::new(GpuConfig::tiny());
    let app = gpu_workloads::fir::build(&mut gpu, 256, 7);
    let launch = app.launches()[0].launch.clone();
    let mut ctrl = AbortAfterFirstWindow {
        windows: 0,
        ipc: 0.0,
    };
    let aborted = gpu.run_kernel_sampled(&launch, &mut ctrl).unwrap();
    assert!(
        aborted.functional_insts > 0,
        "control run must accept the abort and extrapolate"
    );

    // Fault: the verdict degenerates to NaN at the moment of use; the
    // engine must refuse it and finish in detail.
    set_faults("controller.nan:1.0:9");
    let tel = Telemetry::default();
    let mut gpu = GpuSimulator::with_telemetry(GpuConfig::tiny(), tel.clone());
    let app = gpu_workloads::fir::build(&mut gpu, 256, 7);
    let launch = app.launches()[0].launch.clone();
    let mut ctrl = AbortAfterFirstWindow {
        windows: 0,
        ipc: 0.0,
    };
    let detailed = gpu.run_kernel_sampled(&launch, &mut ctrl).unwrap();
    assert_eq!(
        detailed.functional_insts, 0,
        "a refused abort must stay fully detailed"
    );
    assert!(detailed.detailed_insts > aborted.detailed_insts);
    let snap = tel.snapshot();
    assert!(snap.counter("sim.ipc_abort.refused").unwrap_or(0) >= 1);
    assert!(faults::injected(FaultSite::ControllerNan) >= 1);
}

/// Three identical FIR launches so Photon's kernel-sampling matches the
/// second and third against the first's history entry.
fn fir3(gpu: &mut GpuSimulator) -> App {
    let fir = gpu_workloads::fir::build(gpu, 64, 7);
    let l = fir.launches()[0].clone();
    App::new("FIR", vec![l.clone(), l.clone(), l])
}

#[test]
fn controller_zero_cycle_prediction_falls_back_to_detailed_simulation() {
    let _g = lock_faults();
    let method = Method::Photon(Levels::kernel_only());
    let pcfg = photon_bench::scaled_photon_config(Levels::kernel_only());

    // Control: repeated identical kernels are skipped via history.
    let control = try_run_app_method(
        &GpuConfig::tiny(),
        "FIR",
        &fir3,
        &method,
        &pcfg,
        &Telemetry::default(),
    )
    .unwrap();
    assert!(
        control.skipped_kernels > 0,
        "kernel-sampling must skip a repeated kernel"
    );

    // Fault: every prediction degenerates to zero cycles; the
    // controller's guardrail must refuse the skip and simulate.
    set_faults("controller.zero_cycle:1.0:3");
    let tel = Telemetry::default();
    let guarded =
        try_run_app_method(&GpuConfig::tiny(), "FIR", &fir3, &method, &pcfg, &tel).unwrap();
    assert_eq!(
        guarded.skipped_kernels, 0,
        "zero-cycle skips must be refused"
    );
    assert!(faults::injected(FaultSite::ControllerZeroCycle) >= 1);

    // Refusing the skip means full detail: every kernel's cycles match
    // the detailed reference.
    let full = try_run_app_method(
        &GpuConfig::tiny(),
        "FIR",
        &fir3,
        &Method::Full,
        &pcfg,
        &Telemetry::default(),
    )
    .unwrap();
    faults::install(None);
    assert_eq!(guarded.sim_cycles, full.sim_cycles);
}

#[test]
fn fault_decisions_are_identical_across_job_counts() {
    let grid = vec![
        fir(Method::Full),
        fir(Method::Photon(Levels::all())),
        RunSpec::bench(GpuConfig::tiny(), Benchmark::Relu, 64, Method::Full),
        RunSpec::bench(
            GpuConfig::tiny(),
            Benchmark::Relu,
            64,
            Method::Photon(Levels::all()),
        ),
    ];
    // Pick a seed whose plan panics at least one spec's final attempt,
    // so the comparison covers a surviving injected failure (retries =
    // 1 -> attempts use keys jkey ^ 0 and jkey ^ 1).
    let seed = (0..100_000u64)
        .find(|&s| {
            let p = FaultPlan::parse(&format!("exec.panic:0.5:{s}")).unwrap();
            grid.iter().any(|spec| {
                let k = journal_key(spec);
                p.would_inject(FaultSite::ExecPanic, k)
                    && p.would_inject(FaultSite::ExecPanic, k ^ 1)
            })
        })
        .expect("a seed that exhausts some spec's retry budget");

    let _g = lock_faults();
    let plan = format!("exec.panic:0.5:{seed}");
    let mut o = opts();
    o.retries = 1;

    set_faults(&plan);
    o.jobs = 1;
    let serial = run_specs(&grid, &o);
    // Fresh plan install between runs (counters are diagnostics only;
    // decisions are pure, so reinstalling changes nothing).
    set_faults(&plan);
    o.jobs = 4;
    let parallel = run_specs(&grid, &o);

    assert_eq!(serial.results.len(), parallel.results.len());
    for (s, p) in serial.results.iter().zip(&parallel.results) {
        if let Err(e) = same_outcome(&s.outcome, &p.outcome) {
            panic!(
                "{}: jobs=1 and jobs=4 diverged under the same fault seed: {e}",
                s.spec.label()
            );
        }
    }
    assert_eq!(serial.stats.retried, parallel.stats.retried);
    assert!(
        serial.results.iter().any(|r| r.measurement().is_none()),
        "the chosen seed must actually skip something"
    );
}

#[test]
fn torn_cache_write_is_quarantined_on_the_next_lookup() {
    let _g = lock_faults();
    let dir = temp_dir("torn-write");
    let mut o = opts();
    o.cache = true;
    o.cache_dir = Some(dir.clone());

    // The write lands torn (as if the process died mid-write, without
    // the atomic rename): the run itself still completes.
    set_faults("refcache.write.torn:1.0:5");
    let first = run_specs(&[fir(Method::Full)], &o);
    assert!(first.results[0].measurement().is_some());
    assert!(faults::injected(FaultSite::RefcacheWriteTorn) >= 1);

    // Next lookup sees the torn entry: quarantine + recompute + repair.
    faults::install(None);
    let second = run_specs(&[fir(Method::Full)], &o);
    assert_eq!(second.stats.cache_hits, 0);
    assert_eq!(second.stats.full_runs_executed, 1);
    assert_eq!(second.metrics.counter("refcache.quarantined"), Some(1));

    let third = run_specs(&[fir(Method::Full)], &o);
    assert_eq!(third.stats.cache_hits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_write_io_error_degrades_to_uncached_operation() {
    let _g = lock_faults();
    let dir = temp_dir("ioerr");
    let mut o = opts();
    o.cache = true;
    o.cache_dir = Some(dir.clone());

    set_faults("refcache.write.ioerr:1.0:5");
    let first = run_specs(&[fir(Method::Full)], &o);
    assert!(first.results[0].measurement().is_some());

    // Nothing was persisted, so the rerun recomputes (no hit, no crash).
    faults::install(None);
    let second = run_specs(&[fir(Method::Full)], &o);
    assert_eq!(second.stats.cache_hits, 0);
    assert_eq!(second.stats.full_runs_executed, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_corrupted_cache_read_is_quarantined_and_recomputed() {
    let _g = lock_faults();
    let dir = temp_dir("read-corrupt");
    let mut o = opts();
    o.cache = true;
    o.cache_dir = Some(dir.clone());

    // Populate a healthy entry, then corrupt it at read time.
    let cold = run_specs(&[fir(Method::Full)], &o);
    assert!(cold.results[0].measurement().is_some());
    set_faults("refcache.read.corrupt:1.0:5");
    let corrupted = run_specs(&[fir(Method::Full)], &o);
    assert_eq!(corrupted.stats.cache_hits, 0);
    assert_eq!(corrupted.stats.full_runs_executed, 1);
    assert_eq!(corrupted.metrics.counter("refcache.quarantined"), Some(1));
    assert!(faults::injected(FaultSite::RefcacheReadCorrupt) >= 1);
    assert!(corrupted.results[0].measurement().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

fn journal_grid() -> Vec<RunSpec> {
    vec![
        fir(Method::Full),
        fir(Method::Photon(Levels::all())),
        RunSpec::bench(
            GpuConfig::tiny(),
            Benchmark::Relu,
            64,
            Method::Photon(Levels::all()),
        ),
    ]
}

fn journal_opts(path: &Path) -> ExecOptions {
    ExecOptions {
        journal: Some(path.to_path_buf()),
        ..opts()
    }
}

/// Serialized outcomes + merged metrics — the byte-level content a
/// report is built from (wall-clock included: replay preserves it).
fn report_bytes(report: &photon_bench::ExecReport) -> String {
    let mut merged = gpu_telemetry::MetricsSnapshot::default();
    for r in &report.results {
        merged.merge(&r.metrics);
    }
    merged.merge(&report.metrics);
    let outcomes: Vec<String> = report
        .results
        .iter()
        .map(|r| serde_json::to_string(&r.outcome).unwrap())
        .collect();
    format!(
        "{}|{}",
        outcomes.join("\n"),
        serde_json::to_string(&merged).unwrap()
    )
}

#[test]
fn resume_replays_the_journal_byte_identically() {
    let _g = lock_faults();
    let dir = temp_dir("resume");
    std::fs::create_dir_all(&dir).unwrap();
    let jpath = dir.join("journal.jsonl");
    let o = journal_opts(&jpath);

    let first = run_specs(&journal_grid(), &o);
    assert_eq!(first.stats.executed, 3);
    let load = load_journal(&jpath);
    assert_eq!(load.corrupt_lines, 0);
    assert_eq!(load.entries.len(), 3);

    // Resume with a complete journal: zero simulations, identical
    // report content (measurements, wall clocks, merged metrics).
    let resumed = run_specs(
        &journal_grid(),
        &ExecOptions {
            resume: true,
            ..o.clone()
        },
    );
    assert_eq!(resumed.stats.resumed, 3);
    assert_eq!(resumed.stats.executed, 0);
    assert_eq!(report_bytes(&resumed), report_bytes(&first));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_simulates_only_the_specs_missing_from_the_journal() {
    let _g = lock_faults();
    let dir = temp_dir("resume-partial");
    std::fs::create_dir_all(&dir).unwrap();
    let jpath = dir.join("journal.jsonl");
    let o = journal_opts(&jpath);

    let first = run_specs(&journal_grid(), &o);
    assert_eq!(first.stats.executed, 3);

    // Simulate a kill after the first completed spec: keep only the
    // journal's first line.
    let text = std::fs::read_to_string(&jpath).unwrap();
    let first_line = text.lines().next().unwrap().to_string();
    std::fs::write(&jpath, format!("{first_line}\n")).unwrap();

    let resumed = run_specs(
        &journal_grid(),
        &ExecOptions {
            resume: true,
            ..o.clone()
        },
    );
    assert_eq!(resumed.stats.resumed, 1);
    assert_eq!(resumed.stats.executed, 2);
    assert!(resumed.results.iter().all(|r| r.measurement().is_some()));
    // The journal was appended, not truncated: a second resume replays
    // everything.
    let again = run_specs(&journal_grid(), &ExecOptions { resume: true, ..o });
    assert_eq!(again.stats.resumed, 3);
    assert_eq!(again.stats.executed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engine_epoch_stall_slows_workers_without_changing_results() {
    let _g = lock_faults();
    // Deterministic epoch engine at 4 worker threads: stalls injected
    // into the run phase of `(epoch, chunk)` jobs — mostly on pool
    // threads, which the coordinator then waits on (a slow/descheduled
    // worker) — may cost wall time but must be invisible in every
    // simulated metric: the epoch protocol commits shard effects in
    // canonical order regardless of worker timing.
    let run = || {
        let mut cfg = GpuConfig::tiny();
        cfg.engine.mode = gpu_sim::EngineMode::Deterministic;
        cfg.engine.threads = 4;
        let mut gpu = GpuSimulator::new(cfg);
        let app = gpu_workloads::fir::build(&mut gpu, 64, 7);
        app.run(&mut gpu, &mut gpu_sim::NullController).unwrap();
        gpu.telemetry().snapshot()
    };
    let clean = run();
    set_faults("engine.epoch.stall:0.05:7");
    let stalled = run();
    assert!(faults::injected(FaultSite::EngineEpochStall) >= 1);
    assert_eq!(
        clean, stalled,
        "worker stalls must not leak into simulation results"
    );
}

#[test]
fn torn_journal_lines_force_a_rerun_instead_of_a_bad_replay() {
    let _g = lock_faults();
    let dir = temp_dir("journal-torn");
    std::fs::create_dir_all(&dir).unwrap();
    let jpath = dir.join("journal.jsonl");
    let o = journal_opts(&jpath);

    // Every journal append lands torn, as if the process crashed
    // mid-line each time.
    set_faults("journal.torn:1.0:1");
    let first = run_specs(&journal_grid(), &o);
    assert_eq!(first.stats.executed, 3);
    assert!(faults::injected(FaultSite::JournalTorn) >= 3);

    faults::install(None);
    let load = load_journal(&jpath);
    assert_eq!(load.entries.len(), 0, "torn lines must not replay");
    // A torn line loses its newline too, so consecutive torn appends
    // run together; what matters is that nothing validates.
    assert!(load.corrupt_lines >= 1);

    // Resume finds nothing usable and re-simulates everything.
    let resumed = run_specs(&journal_grid(), &ExecOptions { resume: true, ..o });
    assert_eq!(resumed.stats.resumed, 0);
    assert_eq!(resumed.stats.executed, 3);
    let _ = std::fs::remove_dir_all(&dir);
}
