//! The content-addressed reference cache: completed full-detailed
//! measurements persisted under `results/cache/`, one file per key.
//!
//! [`RefCache`] is that directory and nothing else: a lookup reads and
//! validates the entry file, a store writes it ([`crate::persist`]
//! atomic writes with checksum footers) and re-bounds the directory by
//! deleting its oldest-mtime entries. Nothing is held in memory; within
//! one process, `run_specs` deduplicates equal specs and `photon-serve`
//! answers repeated jobs from its own store before either asks the
//! cache.
//!
//! ## Key definition
//!
//! The key is FNV-1a (64-bit) over the canonical JSON rendering of
//! `(CACHE_SCHEMA_VERSION, isa_fingerprint, workload, gpu, seed)`.
//! The method is deliberately *not* part of the key — only `Full` runs
//! are cached, and the reference measurement is method-independent by
//! definition. Any change to the `GpuConfig`, the problem size, the
//! seed, the ISA revision, or this cache's schema changes the key and
//! therefore invalidates the entry.
//!
//! ## Failure model
//!
//! The cache is an accelerator, never a correctness dependency: a
//! missing, corrupt, or version-mismatched entry produces a warning and
//! a recompute, and write failures are warnings too. Entries are
//! written atomically with a checksum footer ([`crate::persist`]); an
//! entry that fails validation is **quarantined** — renamed to
//! `<key>.json.corrupt` — so the next warm run recomputes silently
//! instead of re-warning about the same corpse forever. Quarantines are
//! counted ([`CacheStats::quarantined`]) and surface as the
//! `refcache.quarantined` telemetry counter in executor reports. Only
//! completed measurements are stored, so a failed run never poisons
//! the cache.

use crate::harness::Measurement;
use crate::persist::{self, LoadError};
use crate::specs::{spec_key, RunSpec};
use gpu_isa::isa_fingerprint;
use gpu_telemetry::faults::{self, FaultSite};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bumped whenever the entry layout or the key derivation changes;
/// entries persisted under any other version are recomputed.
/// Version 2: `Measurement` gained cycle accounting and per-BB error
/// rows; `bb_errors` is not `#[serde(default)]`, so a version-1 entry
/// cannot deserialize and must be recomputed.
pub const CACHE_SCHEMA_VERSION: u32 = 2;

/// Default on-disk byte budget for `results/cache/` (256 MiB).
pub const DEFAULT_DISK_BUDGET: u64 = 256 * 1024 * 1024;

/// The stable cache key of a spec's full-detailed reference.
///
/// Canonical-JSON hashing works because the vendored `serde_json`
/// renders struct fields in declaration order — two equal specs always
/// produce byte-identical text.
pub fn reference_key(spec: &RunSpec) -> u64 {
    let workload = serde_json::to_string(&spec.workload).unwrap_or_default();
    let gpu = serde_json::to_string(&spec.gpu).unwrap_or_default();
    spec_key(
        CACHE_SCHEMA_VERSION,
        &[
            workload.as_bytes(),
            gpu.as_bytes(),
            &spec.seed.to_le_bytes(),
        ],
    )
}

/// One persisted cache entry: the measurement plus enough context to
/// validate it and to audit the cache directory by hand. Written by
/// `render_entry`, field for field.
#[derive(Debug, Clone, Deserialize)]
pub struct CacheEntry {
    /// Must equal [`CACHE_SCHEMA_VERSION`] to be trusted.
    pub schema_version: u32,
    /// The key this entry was stored under, hex-rendered.
    pub key: String,
    /// The ISA fingerprint at store time, hex-rendered (diagnostic; the
    /// fingerprint is already folded into the key).
    pub isa_fingerprint: String,
    /// Workload display name (diagnostic).
    pub workload: String,
    /// The memoized full-detailed measurement.
    pub measurement: Measurement,
}

/// Aggregated health counters of a [`RefCache`].
#[derive(Debug, Clone, Default, Serialize)]
pub struct CacheStats {
    /// Lookups answered by an entry on disk.
    pub disk_hits: u64,
    /// Disk entries evicted by the on-disk byte budget (oldest mtime
    /// first) — the `refcache.evicted` counter.
    pub disk_evicted: u64,
    /// Disk entries quarantined to `.corrupt`.
    pub quarantined: u64,
}

/// The on-disk reference cache. One instance serves a whole executor
/// invocation (or a whole `photon-serve` process); worker threads share
/// it behind `&self`.
#[derive(Debug, Default)]
pub struct RefCache {
    /// The cache directory (`None`: a cache with no directory).
    dir: Option<PathBuf>,
    disk_budget: u64,
    disk_hits: AtomicU64,
    disk_evicted: AtomicU64,
    /// Entries quarantined (renamed to `.corrupt`) by this instance.
    quarantined: AtomicU64,
}

impl RefCache {
    /// A cache under `dir` (created on first store), with the default
    /// disk budget.
    pub fn persistent(dir: PathBuf) -> RefCache {
        RefCache::with_disk_budget(dir, DEFAULT_DISK_BUDGET)
    }

    /// A cache with no directory (`--no-cache`): every lookup misses
    /// and every store is dropped.
    pub fn memory_only() -> RefCache {
        RefCache::default()
    }

    /// A cache under `dir` with an explicit disk budget (tests size it
    /// small to exercise eviction deterministically).
    fn with_disk_budget(dir: PathBuf, disk_budget: u64) -> RefCache {
        RefCache {
            dir: Some(dir),
            disk_budget,
            ..RefCache::default()
        }
    }

    /// The cache's counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_evicted: self.disk_evicted.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// The default persistence directory, `results/cache/`.
    pub fn default_dir() -> PathBuf {
        crate::harness::results_dir().join("cache")
    }

    fn entry_path(&self, key: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{key:016x}.json")))
    }

    /// The reference measurement persisted under `key`, if its entry is
    /// there and is what it claims to be. Entries that fail checksum
    /// verification, fail to parse, carry the wrong schema version, or
    /// were stored under a different key are quarantined (renamed to
    /// `.corrupt`) with a warning and recomputed.
    pub fn lookup(&self, key: u64) -> Option<Measurement> {
        let path = self.entry_path(key)?;
        let entry = persist::read_text(&path).and_then(|mut text| {
            if faults::active() && faults::should_inject(FaultSite::RefcacheReadCorrupt, key) {
                corrupt_one_byte(&mut text, key);
            }
            validate_entry(&text, key).map_err(LoadError::Corrupt)
        });
        match entry {
            Ok(entry) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.measurement)
            }
            Err(LoadError::Corrupt(why)) => {
                eprintln!(
                    "warning: quarantining reference cache entry {}: {why} (recomputing)",
                    path.display()
                );
                if persist::quarantine(&path).is_some() {
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
            // Nothing there, or the host refused the read: a miss, and
            // nothing to judge the file by.
            Err(LoadError::Missing | LoadError::Unreadable(_)) => None,
        }
    }

    /// Persists a completed full-detailed measurement under `key` —
    /// atomically, with a checksum footer — then re-bounds the
    /// directory. Without a directory this does nothing; an I/O failure
    /// warns and leaves the entry unwritten.
    pub fn store(&self, key: u64, workload: &str, m: &Measurement) {
        let Some(path) = self.entry_path(key) else {
            return;
        };
        let write = || -> Result<(), String> {
            let text = render_entry(key, workload, m)?;
            if faults::active() {
                if faults::should_inject(FaultSite::RefcacheWriteIoErr, key) {
                    return Err("injected I/O error".to_string());
                }
                if faults::should_inject(FaultSite::RefcacheWriteTorn, key) {
                    // Simulate a crash mid-write through the legacy
                    // (non-atomic) path: half the framed entry lands.
                    let framed = persist::frame(&text);
                    let torn = &framed[..framed.len() / 2];
                    if let Some(parent) = path.parent() {
                        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
                    }
                    return std::fs::write(&path, torn).map_err(|e| e.to_string());
                }
            }
            persist::atomic_write_framed(&path, &text).map_err(|e| e.to_string())
        };
        if let Err(e) = write() {
            eprintln!(
                "warning: could not persist reference cache entry {}: {e}",
                path.display()
            );
        }
        self.enforce_disk_budget();
    }

    /// Re-bounds the on-disk cache directory: while the summed size of
    /// `*.json` entries exceeds the disk budget, the oldest-mtime entry
    /// is deleted (counted in [`CacheStats::disk_evicted`]). Quarantined
    /// `.corrupt` files are deleted first — they are evidence, not
    /// cache, and must not crowd out live entries.
    fn enforce_disk_budget(&self) {
        let Some(dir) = &self.dir else { return };
        if self.disk_budget == 0 {
            return;
        }
        let Ok(listing) = std::fs::read_dir(dir) else {
            return;
        };
        let mut entries: Vec<(PathBuf, u64, std::time::SystemTime)> = Vec::new();
        let mut corpses: Vec<PathBuf> = Vec::new();
        let mut total = 0u64;
        for e in listing.flatten() {
            let path = e.path();
            let name = e.file_name();
            let name = name.to_string_lossy();
            let Ok(meta) = e.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            if name.ends_with(".corrupt") {
                // Quarantine corpses do not count against the budget but
                // are reaped here once the directory is over it.
                corpses.push(path);
                continue;
            }
            if !name.ends_with(".json") {
                continue;
            }
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            total += meta.len();
            entries.push((path, meta.len(), mtime));
        }
        if total <= self.disk_budget {
            return;
        }
        // Corpses are evidence, not cache: delete them before any live
        // entry is evicted (they are not counted in disk_evicted).
        for path in corpses {
            let _ = std::fs::remove_file(&path);
        }
        entries.sort_by_key(|(_, _, mtime)| *mtime);
        for (path, len, _) in entries {
            if total <= self.disk_budget {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                total -= len;
                self.disk_evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The one place a cache entry is rendered: a [`CacheEntry`], field for
/// field, around the borrowed measurement, so storing one copies
/// nothing. Test builds tally the calls, to pin that a lookup never
/// renders.
fn render_entry(key: u64, workload: &str, m: &Measurement) -> Result<String, String> {
    #[cfg(test)]
    tests::RENDERS.with(|n| n.set(n.get() + 1));
    let entry = serde_json::json!({
        "schema_version": CACHE_SCHEMA_VERSION,
        "key": format!("{key:016x}"),
        "isa_fingerprint": format!("{:016x}", isa_fingerprint()),
        "workload": workload,
        "measurement": m,
    });
    serde_json::to_string_pretty(&entry).map_err(|e| e.to_string())
}

/// Deterministically flips one byte of an in-memory entry text (the
/// `refcache.read.corrupt` fault): position is derived from the key,
/// and the replacement stays ASCII so the text remains a `String`.
fn corrupt_one_byte(text: &mut String, key: u64) {
    if text.is_empty() {
        return;
    }
    let pos = (key as usize).wrapping_mul(0x9e37_79b9) % text.len();
    // SAFETY-free: replace via byte vector, '#' keeps UTF-8 valid.
    let mut bytes = std::mem::take(text).into_bytes();
    bytes[pos] = if bytes[pos] == b'#' { b'%' } else { b'#' };
    *text = String::from_utf8_lossy(&bytes).into_owned();
}

/// Decodes an entry text ([`persist::decode`]: checksum over the bytes
/// as read, then one parse) and applies the cache's own checks: the
/// schema version, and the key it was resolved by.
fn validate_entry(text: &str, key: u64) -> Result<CacheEntry, String> {
    let entry = persist::decode::<CacheEntry>(text)?.payload;
    if entry.schema_version != CACHE_SCHEMA_VERSION {
        return Err(format!(
            "schema version {} (tool expects {})",
            entry.schema_version, CACHE_SCHEMA_VERSION
        ));
    }
    let expect = format!("{key:016x}");
    if entry.key != expect {
        return Err(format!(
            "stored under key {} but resolved by {expect} — stale file name",
            entry.key
        ));
    }
    Ok(entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::{Method, RunSpec};
    use gpu_sim::GpuConfig;
    use gpu_workloads::registry::Benchmark;
    use std::cell::Cell;

    thread_local! {
        /// Cache entries rendered by this thread.
        pub(super) static RENDERS: Cell<usize> = const { Cell::new(0) };
    }

    fn meas() -> Measurement {
        Measurement {
            workload: "fir".into(),
            warps: 64,
            method: "Full".into(),
            sim_cycles: 1234,
            wall_secs: 0.5,
            detailed_insts: 10,
            functional_insts: 0,
            detailed_warps: 64,
            predicted_warps: 0,
            skipped_kernels: 0,
            kernel_cycles: vec![1234],
            accounting: None,
            bb_errors: vec![],
        }
    }

    #[test]
    fn key_is_stable_and_sensitive() {
        let a = RunSpec::bench(GpuConfig::tiny(), Benchmark::Fir, 64, Method::Full);
        assert_eq!(reference_key(&a), reference_key(&a.clone()));
        // method does NOT change the key (only Full is cached; the
        // reference is method-independent)
        let mut ph = a.clone();
        ph.method = Method::Pka;
        assert_eq!(reference_key(&a), reference_key(&ph));
        // problem size, machine, and seed all do
        let b = RunSpec::bench(GpuConfig::tiny(), Benchmark::Fir, 128, Method::Full);
        assert_ne!(reference_key(&a), reference_key(&b));
        let c = RunSpec::bench(
            GpuConfig::tiny().with_num_cus(2),
            Benchmark::Fir,
            64,
            Method::Full,
        );
        assert_ne!(reference_key(&a), reference_key(&c));
        let mut d = a.clone();
        d.seed = 8;
        assert_ne!(reference_key(&a), reference_key(&d));
    }

    #[test]
    fn a_cache_with_no_directory_misses_and_drops_every_store() {
        let cache = RefCache::memory_only();
        assert!(cache.lookup(42).is_none());
        cache.store(42, "fir", &meas());
        assert!(cache.lookup(42).is_none());
        assert_eq!(RENDERS.with(Cell::get), 0, "nothing to render for");
        let stats = cache.stats();
        assert_eq!(
            (stats.disk_hits, stats.disk_evicted, stats.quarantined),
            (0, 0, 0)
        );
    }

    #[test]
    fn entry_validation_rejects_bad_entries() {
        let text = render_entry(7, "fir", &meas()).unwrap();
        let entry = validate_entry(&text, 7).expect("a rendered entry validates");
        assert_eq!(entry.measurement, meas());
        // wrong key
        assert!(validate_entry(&text, 8).is_err());
        // wrong schema version
        let version = format!("\"schema_version\": {CACHE_SCHEMA_VERSION}");
        assert!(
            text.contains(&version),
            "entry layout changed under the test"
        );
        let stale = text.replace(&version, "\"schema_version\": 999");
        assert!(validate_entry(&stale, 7).is_err());
        // garbage
        assert!(validate_entry("{not json", 7).is_err());
    }

    #[test]
    fn disk_budget_evicts_oldest_entries() {
        let dir =
            std::env::temp_dir().join(format!("photon-refcache-diskbudget-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let m = meas();
        // Size one persisted entry, then budget the real cache so only
        // two fit — the third store must evict the oldest.
        let probe = RefCache::with_disk_budget(dir.clone(), u64::MAX);
        probe.store(1, "fir", &m);
        let entry_len = std::fs::metadata(dir.join(format!("{:016x}.json", 1u64)))
            .unwrap()
            .len();
        let budget = entry_len * 2 + entry_len / 2;
        let cache = RefCache::with_disk_budget(dir.clone(), budget);
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.store(2, "fir", &m);
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.store(3, "fir", &m);
        let stats = cache.stats();
        assert!(stats.disk_evicted >= 1, "stats: {stats:?}");
        let on_disk: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".json"))
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert!(
            on_disk <= budget,
            "disk usage {on_disk} over budget {budget}"
        );
        // The newest entry survives on disk.
        assert!(dir.join(format!("{:016x}.json", 3u64)).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_budget_reaps_corrupt_quarantine_files() {
        let dir =
            std::env::temp_dir().join(format!("photon-refcache-corpses-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let corpse = dir.join("00000000deadbeef.json.corrupt");
        std::fs::write(&corpse, "torn entry kept as evidence").unwrap();
        let m = meas();
        let probe = RefCache::with_disk_budget(dir.clone(), u64::MAX);
        probe.store(1, "fir", &m);
        let entry_len = std::fs::metadata(dir.join(format!("{:016x}.json", 1u64)))
            .unwrap()
            .len();
        // Budget fits one entry: the second store goes over it, which
        // must reap the corpse before evicting any live entry.
        let cache = RefCache::with_disk_budget(dir.clone(), entry_len + entry_len / 2);
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.store(2, "fir", &m);
        assert!(
            !corpse.exists(),
            "corrupt corpse must be reaped once the directory is over budget"
        );
        // The newest live entry survives.
        assert!(dir.join(format!("{:016x}.json", 2u64)).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_lookup_reads_the_entry_without_rendering() {
        let dir =
            std::env::temp_dir().join(format!("photon-refcache-norender-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        RefCache::persistent(dir.clone()).store(9, "fir", &meas());
        assert_eq!(RENDERS.with(Cell::get), 1, "one render, for the disk");

        // Every lookup reads the entry on disk, on any instance.
        let cache = RefCache::persistent(dir.clone());
        for _ in 0..2 {
            assert_eq!(cache.lookup(9), Some(meas()));
        }
        assert_eq!(RENDERS.with(Cell::get), 1, "a lookup must not render");
        assert_eq!(cache.stats().disk_hits, 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
