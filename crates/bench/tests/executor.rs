//! Executor determinism and deduplication: the same grid must produce
//! bit-identical measurements (modulo wall-clock) at any job count.

use gpu_sim::{EngineMode, GpuConfig};
use gpu_workloads::registry::Benchmark;
use photon::Levels;
use photon_bench::cli::force_traced_run;
use photon_bench::specs::DEFAULT_SEED;
use photon_bench::{
    parallel_map, reference_key, resolve_spec, run_specs, ExecOptions, FailureKind, Measurement,
    Method, RefCache, RunOutcome, RunSpec,
};

fn grid() -> Vec<RunSpec> {
    let gpu = GpuConfig::tiny();
    let mut specs = Vec::new();
    for bench in [Benchmark::Fir, Benchmark::Mm, Benchmark::Spmv] {
        for method in [Method::Full, Method::Photon(Levels::all()), Method::Pka] {
            specs.push(RunSpec::bench(gpu.clone(), bench, 64, method));
        }
    }
    specs
}

fn opts(jobs: usize) -> ExecOptions {
    ExecOptions {
        jobs,
        cache: false,
        ..ExecOptions::default()
    }
}

/// Everything a measurement determines except wall-clock time.
fn deterministic_view(m: &Measurement) -> impl PartialEq + std::fmt::Debug {
    (
        m.workload.clone(),
        m.method.clone(),
        m.warps,
        (
            m.sim_cycles,
            m.detailed_insts,
            m.functional_insts,
            m.detailed_warps,
            m.predicted_warps,
        ),
        (m.skipped_kernels, m.kernel_cycles.clone()),
    )
}

#[test]
fn jobs_1_and_jobs_4_are_bit_identical() {
    let specs = grid();
    let seq = run_specs(&specs, &opts(1));
    let par = run_specs(&specs, &opts(4));
    assert_eq!(seq.results.len(), par.results.len());
    for (a, b) in seq.results.iter().zip(&par.results) {
        assert_eq!(a.spec, b.spec);
        let (ma, mb) = (
            a.measurement().expect("sequential run completed"),
            b.measurement().expect("parallel run completed"),
        );
        // sim cycles, per-kernel cycles, and every controller decision
        // (sampled vs detailed warps, skipped kernels) must match
        assert_eq!(
            deterministic_view(ma),
            deterministic_view(mb),
            "{} diverged between --jobs 1 and --jobs 4",
            a.spec.label()
        );
        // the run's own telemetry counters are part of the contract too
        assert_eq!(
            a.metrics.counters,
            b.metrics.counters,
            "{} telemetry diverged",
            a.spec.label()
        );
    }
    assert_eq!(seq.stats.executed, par.stats.executed);
    assert_eq!(seq.stats.full_runs_executed, par.stats.full_runs_executed);
}

#[test]
fn identical_specs_are_simulated_once() {
    let gpu = GpuConfig::tiny();
    let spec = RunSpec::bench(gpu, Benchmark::Fir, 64, Method::Full);
    let specs = vec![spec.clone(), spec.clone(), spec];
    let report = run_specs(&specs, &opts(2));
    assert_eq!(report.stats.total, 3);
    assert_eq!(report.stats.executed, 1);
    assert_eq!(report.stats.deduped, 2);
    let m0 = report.results[0].measurement().unwrap();
    for r in &report.results[1..] {
        assert_eq!(
            m0.sim_cycles,
            r.measurement().unwrap().sim_cycles,
            "deduped copies answer with the executed measurement"
        );
        // aliases carry no telemetry, so merging every result's metrics
        // never double-counts the single simulation
        assert!(r.metrics.counters.is_empty());
    }
}

#[test]
fn skipped_runs_do_not_poison_siblings() {
    // 0 warps is a typed SimError (EmptyLaunch), not a panic -> Skipped.
    let gpu = GpuConfig::tiny();
    let specs = vec![
        RunSpec::bench(gpu.clone(), Benchmark::Fir, 0, Method::Full),
        RunSpec::bench(gpu, Benchmark::Fir, 64, Method::Full),
    ];
    let report = run_specs(&specs, &opts(2));
    assert_eq!(report.stats.skipped, 1);
    // The skip keeps the typed error's display and debug renderings, so
    // a serialized report stays diagnosable, and is never retried.
    match &report.results[0].outcome {
        RunOutcome::Skipped {
            reason,
            error,
            failure,
            ..
        } => {
            assert!(reason.contains("simulation error"), "reason: {reason}");
            let error = error.as_deref().expect("typed error preserved");
            assert!(error.contains("EmptyLaunch"), "error: {error}");
            assert_eq!(*failure, FailureKind::Permanent);
        }
        RunOutcome::Completed(_) => panic!("a zero-warp launch completed"),
    }
    assert_eq!(report.stats.retried, 0);
    assert!(report.results[1].measurement().is_some());
    assert_eq!(report.results[0].spec.seed, DEFAULT_SEED);
}

/// `photon_sim --trace` semantics: a traced run has to simulate. With
/// the reference cache warm and the spec already journaled, a plain
/// rerun answers without running (and so without events); the traced
/// options must produce a non-empty log every time.
#[test]
fn traced_full_run_simulates_despite_warm_cache_and_journal() {
    let dir = std::env::temp_dir().join(format!("photon-traced-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = RunSpec::bench(GpuConfig::tiny(), Benchmark::Fir, 64, Method::Full);
    let warm = ExecOptions {
        jobs: 1,
        cache_dir: Some(dir.join("cache")),
        journal: Some(dir.join("journal.jsonl")),
        trace_capacity: 1 << 16,
        ..ExecOptions::default()
    };
    let first = run_specs(std::slice::from_ref(&spec), &warm);
    assert!(!first.results[0].trace.events.is_empty());
    // The bug: served from the cache, the same options export nothing.
    let hit = run_specs(std::slice::from_ref(&spec), &warm);
    assert!(hit.results[0].from_cache && hit.results[0].trace.events.is_empty());

    for resume in [false, true] {
        let mut traced = ExecOptions {
            resume,
            ..warm.clone()
        };
        force_traced_run(&mut traced);
        for _ in 0..2 {
            let r = run_specs(std::slice::from_ref(&spec), &traced);
            assert_eq!(r.stats.full_runs_executed, 1);
            assert!(!r.results[0].from_cache);
            assert!(!r.results[0].trace.events.is_empty());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--engine-threads` steers how a run executes, never what it is: a
/// Deterministic result is thread-count-invariant, so the reference
/// cache must answer a 2-thread request from a 1-thread run.
#[test]
fn engine_threads_do_not_leak_into_the_cache_key() {
    let dir = std::env::temp_dir().join(format!("photon-threads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let gpu = GpuConfig::tiny().with_engine_mode(EngineMode::Deterministic);
    let spec = RunSpec::bench(gpu, Benchmark::Fir, 64, Method::Full);
    let with_threads = |threads| ExecOptions {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        engine_threads: Some(threads),
        ..ExecOptions::default()
    };
    let one = run_specs(std::slice::from_ref(&spec), &with_threads(1));
    assert_eq!(one.stats.full_runs_executed, 1);
    let two = run_specs(std::slice::from_ref(&spec), &with_threads(2));
    assert_eq!(two.stats.full_runs_executed, 0, "second run is a cache hit");
    assert_eq!(
        two.results[0].spec, spec,
        "the spec is reported as submitted"
    );
    assert_eq!(
        one.results[0].measurement().unwrap().sim_cycles,
        two.results[0].measurement().unwrap().sim_cycles
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `resolve_spec` is the one door to a simulation: two calls for the
/// same `Full` spec on one cache simulate once, and the second says so.
#[test]
fn resolving_the_same_full_spec_twice_simulates_once() {
    let spec = RunSpec::bench(GpuConfig::tiny(), Benchmark::Fir, 64, Method::Full);
    let cache = RefCache::memory_only();
    let first = resolve_spec(&spec, &opts(1), &cache, None);
    assert_eq!((first.simulations, first.from_cache), (1, false));
    assert!(!first.metrics.counters.is_empty(), "the run's telemetry");
    let second = resolve_spec(&spec, &opts(1), &cache, None);
    assert_eq!((second.simulations, second.from_cache), (0, true));
    assert!(second.metrics.counters.is_empty() && second.trace.events.is_empty());
    assert_eq!(
        first.outcome.measurement().unwrap().sim_cycles,
        second.outcome.measurement().unwrap().sim_cycles
    );
    // Sampled methods are never cached: each call simulates.
    let photon = RunSpec {
        method: Method::Photon(Levels::all()),
        ..spec
    };
    for _ in 0..2 {
        let r = resolve_spec(&photon, &opts(1), &cache, None);
        assert_eq!((r.simulations, r.from_cache), (1, false));
    }
}

/// A follower that joined a leader whose run failed must not be handed
/// the failure second-hand: it runs the spec itself.
#[test]
fn a_failed_leader_answers_its_follower_with_a_first_hand_run() {
    // Out of cycle fuel after a few hundred milliseconds of simulation:
    // a permanent failure (no retries) that leaves the leader in flight
    // long enough for the follower, released by the same barrier, to
    // join it.
    let mut gpu = GpuConfig::tiny();
    gpu.watchdog.cycle_fuel = 20_000;
    let spec = RunSpec::bench(gpu, Benchmark::Fir, 4096, Method::Full);
    let cache = RefCache::memory_only();
    let start = std::sync::Barrier::new(2);
    let resolve = || {
        start.wait();
        resolve_spec(&spec, &opts(1), &cache, None)
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(resolve);
        let b = s.spawn(resolve);
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(
        cache.stats().memory.coalesced,
        1,
        "one of the two joined the other's flight"
    );
    for r in [&a, &b] {
        assert_eq!(r.outcome.failure(), Some(FailureKind::Permanent));
        assert_eq!((r.simulations, r.from_cache), (1, false), "first-hand");
    }
    assert!(
        cache.lookup(reference_key(&spec)).is_none(),
        "nothing cached"
    );
}

#[test]
fn parallel_map_keeps_order_at_any_job_count_and_propagates_panics() {
    let items: Vec<u64> = (0..7).collect();
    let doubled: Vec<u64> = items.iter().map(|x| x * 2).collect();
    // more workers than items, exactly one, and the empty input
    assert_eq!(parallel_map(items.clone(), 64, &|x| x * 2), doubled);
    assert_eq!(parallel_map(items.clone(), 1, &|x| x * 2), doubled);
    assert_eq!(parallel_map(Vec::<u64>::new(), 4, &|x| x * 2), vec![]);
    for jobs in [1, 3] {
        let panicked = std::panic::catch_unwind(|| {
            parallel_map(items.clone(), jobs, &|x| {
                assert_ne!(x, 5, "item 5 is poison");
                x
            })
        });
        assert!(panicked.is_err(), "--jobs {jobs} swallowed the panic");
    }
}
