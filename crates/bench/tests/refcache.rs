//! Reference-cache behavior through the executor: warm hits, key
//! invalidation on config/problem-size change, and graceful fallback on
//! corrupt or version-mismatched entries.

use gpu_sim::GpuConfig;
use gpu_workloads::registry::Benchmark;
use photon::Levels;
use photon_bench::{run_specs, ExecOptions, Method, RunSpec, CACHE_SCHEMA_VERSION};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// A unique per-test cache directory (no wall clock / randomness: the
/// process id plus a counter is unique enough for parallel test runs).
fn temp_cache_dir() -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "photon-bench-refcache-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(dir: &Path) -> ExecOptions {
    ExecOptions {
        jobs: 2,
        cache: true,
        cache_dir: Some(dir.to_path_buf()),
        ..ExecOptions::default()
    }
}

fn grid(gpu: GpuConfig, warps: u64) -> Vec<RunSpec> {
    vec![
        RunSpec::bench(gpu.clone(), Benchmark::Fir, warps, Method::Full),
        RunSpec::bench(gpu, Benchmark::Fir, warps, Method::Photon(Levels::all())),
    ]
}

#[test]
fn warm_rerun_performs_zero_full_simulations() {
    let dir = temp_cache_dir();
    let opts = opts(&dir);

    let cold = run_specs(&grid(GpuConfig::tiny(), 64), &opts);
    assert_eq!(cold.stats.full_runs_executed, 1);
    assert_eq!(cold.stats.cache_hits, 0);
    let cold_full = cold.results[0].measurement().unwrap().clone();

    // Same grid, fresh executor: the Full run must come from disk.
    let warm = run_specs(&grid(GpuConfig::tiny(), 64), &opts);
    assert_eq!(warm.stats.full_runs_executed, 0);
    assert_eq!(warm.stats.cache_hits, 1);
    assert!(warm.results[0].from_cache);
    // Read back from disk, it is the same simulated result.
    let warm_full = warm.results[0].measurement().unwrap();
    assert_eq!(cold_full.differences(warm_full), Vec::<String>::new());
    // The sampled run is never cached.
    assert!(!warm.results[1].from_cache);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn config_or_problem_size_change_misses() {
    let dir = temp_cache_dir();
    let opts = opts(&dir);

    let cold = run_specs(&grid(GpuConfig::tiny(), 64), &opts);
    assert_eq!(cold.stats.full_runs_executed, 1);

    // Different machine -> different key -> recompute.
    let other_gpu = run_specs(&grid(GpuConfig::tiny().with_num_cus(2), 64), &opts);
    assert_eq!(other_gpu.stats.full_runs_executed, 1);
    assert_eq!(other_gpu.stats.cache_hits, 0);

    // Different problem size -> different key -> recompute.
    let other_size = run_specs(&grid(GpuConfig::tiny(), 128), &opts);
    assert_eq!(other_size.stats.full_runs_executed, 1);
    assert_eq!(other_size.stats.cache_hits, 0);

    // The original entry is still intact.
    let warm = run_specs(&grid(GpuConfig::tiny(), 64), &opts);
    assert_eq!(warm.stats.full_runs_executed, 0);
    assert_eq!(warm.stats.cache_hits, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The single `.json` entry the cold run persisted.
fn only_entry(dir: &Path) -> PathBuf {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("cache dir exists after a cold run")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    assert_eq!(entries.len(), 1, "expected exactly one cache entry");
    entries.pop().unwrap()
}

/// The `.corrupt` quarantine files in a cache directory.
fn quarantined_entries(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .expect("cache dir exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "corrupt"))
        .collect()
}

#[test]
fn corrupt_entry_is_quarantined_and_recomputed() {
    let dir = temp_cache_dir();
    let opts = opts(&dir);

    run_specs(&grid(GpuConfig::tiny(), 64), &opts);
    let entry = only_entry(&dir);
    std::fs::write(&entry, "{definitely not json").unwrap();

    let rerun = run_specs(&grid(GpuConfig::tiny(), 64), &opts);
    assert_eq!(rerun.stats.cache_hits, 0);
    assert_eq!(rerun.stats.full_runs_executed, 1);
    assert!(rerun.results[0].measurement().is_some());
    // The corpse was quarantined (not left to re-warn every warm run)
    // and counted in the executor's telemetry.
    assert_eq!(quarantined_entries(&dir).len(), 1);
    assert_eq!(rerun.metrics.counter("refcache.quarantined"), Some(1));

    // The recompute repaired the entry on disk; the quarantine file
    // does not shadow it.
    let warm = run_specs(&grid(GpuConfig::tiny(), 64), &opts);
    assert_eq!(warm.stats.cache_hits, 1);
    assert_eq!(warm.metrics.counter("refcache.quarantined"), Some(0));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_mismatched_entry_is_quarantined_and_recomputed() {
    let dir = temp_cache_dir();
    let opts = opts(&dir);

    run_specs(&grid(GpuConfig::tiny(), 64), &opts);
    let entry = only_entry(&dir);
    // Rewrite the entry with a stale schema version, re-framed with a
    // valid checksum so version validation (not the checksum) rejects
    // it.
    let framed = photon_bench::read_framed(&entry).unwrap();
    assert!(framed.verified, "cache entries are checksum-framed");
    let old = format!("\"schema_version\": {CACHE_SCHEMA_VERSION}");
    assert!(
        framed.payload.contains(&old),
        "entry layout changed under the test"
    );
    let stale = framed.payload.replace(&old, "\"schema_version\": 999");
    photon_bench::atomic_write_framed(&entry, &stale).unwrap();

    let rerun = run_specs(&grid(GpuConfig::tiny(), 64), &opts);
    assert_eq!(rerun.stats.cache_hits, 0);
    assert_eq!(rerun.stats.full_runs_executed, 1);
    assert!(rerun.results[0].measurement().is_some());
    assert_eq!(quarantined_entries(&dir).len(), 1);
    assert_eq!(rerun.metrics.counter("refcache.quarantined"), Some(1));

    let _ = std::fs::remove_dir_all(&dir);
}
