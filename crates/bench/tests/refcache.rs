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
    assert_eq!(
        warm.results[0].measurement().unwrap().sim_cycles,
        cold_full.sim_cycles
    );
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

mod store_properties {
    //! LRU-eviction properties of the store backing the cache: the
    //! byte budget is a hard invariant over the whole store, the victim
    //! is always its least recently used entry, and the hottest (most
    //! recently touched) entry is never the victim.

    use photon_bench::LruStore;
    use proptest::prelude::*;

    const BUDGET: u64 = 100;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Entries capped at a quarter of the budget: the store never
        /// holds more than its budget, and the entry touched by the
        /// previous operation always survives the next insert's
        /// eviction pass.
        #[test]
        fn budget_never_exceeded_and_hottest_never_evicted(
            ops in prop::collection::vec((0u64..24, 1u64..26), 2..250)
        ) {
            let store: LruStore<u64> = LruStore::new(BUDGET);
            let mut prev: Option<u64> = None;
            for (key, bytes) in ops {
                if store.get(key).is_none() {
                    store.insert(key, key, bytes);
                }
                if let Some(p) = prev {
                    if p != key {
                        prop_assert!(
                            store.get(p).is_some(),
                            "hottest entry {} was evicted",
                            p
                        );
                    }
                }
                let stats = store.stats();
                prop_assert!(
                    stats.bytes <= BUDGET,
                    "store holds {} bytes, budget is {}",
                    stats.bytes,
                    BUDGET
                );
                prev = Some(key);
            }
        }

        /// Arbitrary get/insert sequences against a model that keeps
        /// every resident `(key, bytes)` in recency order: each get
        /// hits exactly when the model holds the key, and after every
        /// operation the store's residency, byte total and eviction
        /// count are the model's — which they can only be if every
        /// victim was the least recently used key of the whole store
        /// and never the key just touched.
        #[test]
        fn victim_is_always_the_least_recently_used_key_of_the_whole_store(
            ops in prop::collection::vec((any::<bool>(), 0u64..24, 1u64..40), 1..300)
        ) {
            let store: LruStore<u64> = LruStore::new(BUDGET);
            let mut model: Vec<(u64, u64)> = Vec::new(); // least recent first
            let mut evicted = 0;
            let resident = |model: &[(u64, u64)]| model.iter().map(|(_, b)| b).sum::<u64>();
            for (is_get, key, bytes) in ops {
                let at = model.iter().position(|(k, _)| *k == key);
                if is_get {
                    prop_assert_eq!(store.get(key).is_some(), at.is_some(), "get {}", key);
                    if let Some(i) = at {
                        let touched = model.remove(i);
                        model.push(touched);
                    }
                } else {
                    store.insert(key, key, bytes);
                    if let Some(i) = at {
                        model.remove(i);
                    }
                    model.push((key, bytes));
                    while resident(&model) > BUDGET {
                        model.remove(0);
                        evicted += 1;
                    }
                    prop_assert_eq!(model.last(), Some(&(key, bytes)));
                }
                let stats = store.stats();
                prop_assert!(stats.bytes <= BUDGET);
                prop_assert_eq!(
                    (stats.entries, stats.bytes, stats.evicted),
                    (model.len() as u64, resident(&model), evicted)
                );
            }
            for key in 0..24 {
                let held = model.iter().any(|(k, _)| *k == key);
                prop_assert_eq!(store.get(key).is_some(), held, "key {}", key);
            }
        }
    }

    #[test]
    fn an_entry_of_exactly_the_budget_is_admitted_and_one_byte_more_is_refused() {
        let store: LruStore<u64> = LruStore::new(BUDGET);
        store.insert(1, 10, 30);
        // Exactly the budget: admitted, at the price of everything else.
        store.insert(2, 20, BUDGET);
        assert_eq!(store.get(2), Some(20));
        assert_eq!(store.get(1), None);
        let stats = store.stats();
        assert_eq!((stats.bytes, stats.evicted, stats.rejected), (BUDGET, 1, 0));
        // One byte more: refused, and nothing is evicted to make room.
        store.insert(3, 30, BUDGET + 1);
        assert_eq!(store.get(3), None);
        assert_eq!(store.get(2), Some(20));
        let stats = store.stats();
        assert_eq!((stats.bytes, stats.evicted, stats.rejected), (BUDGET, 1, 1));
    }
}
