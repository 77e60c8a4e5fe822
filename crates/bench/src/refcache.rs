//! The content-addressed reference cache: an LRU-bounded,
//! concurrency-safe store with single-flight deduplication — the
//! storage layer behind both the parallel executor and `photon-serve`.
//!
//! ## Layering
//!
//! * [`LruStore`] — the generic in-memory core: one mutex around one
//!   map keyed by `u64` content hashes, recency-stamped LRU eviction
//!   under a byte budget, and a single-flight table so concurrent
//!   computations of the same key coalesce onto one leader. Sized to
//!   its traffic: the busiest serve workload makes a few thousand
//!   operations a second, each a map probe and an `Arc` clone.
//! * [`RefCache`] — the full-detailed reference cache built on top: an
//!   `LruStore<Arc<Measurement>>` (a hit is a pointer copy) plus
//!   crash-safe disk persistence under `results/cache/`
//!   ([`crate::persist`] atomic writes with checksum footers) and a
//!   byte-budgeted disk directory with oldest-mtime eviction.
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
//! `refcache.quarantined` telemetry counter in executor reports.
//! A leader whose computation fails publishes the failure to its
//! followers (they see `None`) and caches nothing, so a transient
//! failure never poisons the store.

use crate::harness::Measurement;
use crate::persist::{self, LoadError};
use crate::specs::RunSpec;
use gpu_isa::{fnv1a, fnv1a_extend, isa_fingerprint};
use gpu_telemetry::faults::{self, FaultSite};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Bumped whenever the entry layout or the key derivation changes;
/// entries persisted under any other version are recomputed.
/// Version 2: `Measurement` gained cycle accounting and per-BB error
/// rows (the vendored serde has no `#[serde(default)]`, so old entries
/// cannot deserialize and must be recomputed).
pub const CACHE_SCHEMA_VERSION: u32 = 2;

/// Default in-memory byte budget (64 MiB).
pub const DEFAULT_MEM_BUDGET: u64 = 64 * 1024 * 1024;

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
    let mut h = fnv1a(&CACHE_SCHEMA_VERSION.to_le_bytes());
    h = fnv1a_extend(h, &isa_fingerprint().to_le_bytes());
    h = fnv1a_extend(h, workload.as_bytes());
    h = fnv1a_extend(h, gpu.as_bytes());
    fnv1a_extend(h, &spec.seed.to_le_bytes())
}

/// Where a [`RefCache::get_or_compute_full`] (or
/// [`LruStore::join_or_lead`], which never answers `Hit`) answer came
/// from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Served from the store (memory or disk) without waiting.
    Hit,
    /// This caller led the computation.
    Miss,
    /// Coalesced onto a concurrent identical computation and received
    /// the leader's result.
    Coalesced,
}

/// Counters describing what a store (or cache) has done so far. All
/// monotonic except `entries`/`bytes`, which are the current residency.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct StoreStats {
    /// In-memory lookups answered.
    pub hits: u64,
    /// In-memory lookups missed.
    pub misses: u64,
    /// Callers that coalesced onto an in-flight computation.
    pub coalesced: u64,
    /// Entries evicted from memory by the LRU byte budget.
    pub evicted: u64,
    /// Entries refused because they alone exceed the whole budget.
    pub rejected: u64,
    /// Entries currently resident in memory.
    pub entries: u64,
    /// Bytes currently resident in memory (as sized at insert).
    pub bytes: u64,
}

struct Entry<V> {
    value: V,
    bytes: u64,
    stamp: u64,
}

/// One in-flight computation: followers block on the condvar until the
/// leader publishes. `None` means the leader's computation failed —
/// followers must handle the miss themselves.
struct Flight<V> {
    slot: Mutex<(bool, Option<V>)>,
    cv: Condvar,
}

/// Everything the store's one lock guards.
struct Inner<V> {
    map: HashMap<u64, Entry<V>>,
    inflight: HashMap<u64, Arc<Flight<V>>>,
    /// Recency clock: every get and insert takes the next stamp.
    clock: u64,
    /// Counters and residency; `entries` is filled in at read time.
    stats: StoreStats,
}

/// The LRU-bounded, single-flight in-memory store.
///
/// Values are cloned out on every hit, so `V` should be an `Arc` (both
/// users' are). The byte budget is enforced over the whole store: the
/// residency never exceeds it, the eviction victim is always the least
/// recently used entry of the store, and an entry is refused only when
/// it alone exceeds the budget.
pub struct LruStore<V> {
    inner: Mutex<Inner<V>>,
    budget: u64,
}

impl<V> std::fmt::Debug for LruStore<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruStore")
            .field("budget", &self.budget)
            .finish()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<V: Clone> LruStore<V> {
    /// A store under a total byte `budget` (at least 1).
    pub fn new(budget: u64) -> LruStore<V> {
        LruStore {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                inflight: HashMap::new(),
                clock: 0,
                stats: StoreStats::default(),
            }),
            budget: budget.max(1),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: u64) -> Option<V> {
        let mut guard = lock(&self.inner);
        let inner = &mut *guard;
        inner.clock += 1;
        match inner.map.get_mut(&key) {
            Some(e) => {
                e.stamp = inner.clock;
                inner.stats.hits += 1;
                Some(e.value.clone())
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts `value` under `key` at an accounted size of `bytes`,
    /// evicting least-recently-used entries until the store is back
    /// under budget. A value that alone exceeds the budget is not
    /// stored (counted in `rejected`).
    pub fn insert(&self, key: u64, value: V, bytes: u64) {
        let mut guard = lock(&self.inner);
        let inner = &mut *guard;
        if bytes > self.budget {
            inner.stats.rejected += 1;
            return;
        }
        inner.clock += 1;
        let entry = Entry {
            value,
            bytes,
            stamp: inner.clock,
        };
        if let Some(old) = inner.map.insert(key, entry) {
            inner.stats.bytes -= old.bytes;
        }
        inner.stats.bytes += bytes;
        while inner.stats.bytes > self.budget {
            // The just-inserted entry carries the freshest stamp and
            // fits the budget alone, so the victim is some other entry.
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
            else {
                break;
            };
            if let Some(e) = inner.map.remove(&victim) {
                inner.stats.bytes -= e.bytes;
            }
            inner.stats.evicted += 1;
        }
    }

    /// Joins an in-flight computation of `key` if one exists (blocking
    /// until the leader publishes), otherwise leads it: `compute`
    /// returns the value plus its accounted byte size and whether to
    /// store it (`false` keeps transient failures out of the cache
    /// while still answering followers).
    ///
    /// Returns the value (or `None` if the computation produced none)
    /// and whether this caller led ([`Origin::Miss`]) or coalesced.
    pub fn join_or_lead<F>(&self, key: u64, compute: F) -> (Option<V>, Origin)
    where
        F: FnOnce() -> (Option<V>, u64, bool),
    {
        let flight = {
            let mut inner = lock(&self.inner);
            if let Some(f) = inner.inflight.get(&key) {
                let f = Arc::clone(f);
                inner.stats.coalesced += 1;
                drop(inner);
                let mut slot = lock(&f.slot);
                while !slot.0 {
                    slot = f.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
                }
                return (slot.1.clone(), Origin::Coalesced);
            }
            let f = Arc::new(Flight {
                slot: Mutex::new((false, None)),
                cv: Condvar::new(),
            });
            inner.inflight.insert(key, Arc::clone(&f));
            f
        };
        // Lead. Publish-on-drop so a panicking computation can never
        // strand its followers on the condvar.
        struct Publish<'a, V> {
            store: &'a LruStore<V>,
            key: u64,
            flight: Arc<Flight<V>>,
            value: Option<V>,
        }
        impl<V> Drop for Publish<'_, V> {
            fn drop(&mut self) {
                let mut slot = lock(&self.flight.slot);
                slot.0 = true;
                slot.1 = self.value.take();
                self.flight.cv.notify_all();
                drop(slot);
                lock(&self.store.inner).inflight.remove(&self.key);
            }
        }
        let mut publish = Publish {
            store: self,
            key,
            flight,
            value: None,
        };
        let (value, bytes, store) = compute();
        if store {
            if let Some(v) = &value {
                self.insert(key, v.clone(), bytes);
            }
        }
        publish.value = value.clone();
        drop(publish);
        (value, Origin::Miss)
    }

    /// Current counters and residency.
    pub fn stats(&self) -> StoreStats {
        let inner = lock(&self.inner);
        StoreStats {
            entries: inner.map.len() as u64,
            ..inner.stats.clone()
        }
    }
}

/// One persisted cache entry: the measurement plus enough context to
/// validate it and to audit the cache directory by hand.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    /// The memoized full-detailed measurement (shared with the
    /// in-memory store, so writing an entry copies nothing).
    pub measurement: Arc<Measurement>,
}

/// Aggregated health/throughput counters of a [`RefCache`].
#[derive(Debug, Clone, Default, Serialize)]
pub struct CacheStats {
    /// The in-memory store's counters.
    pub memory: StoreStats,
    /// Lookups answered from disk (after a memory miss).
    pub disk_hits: u64,
    /// Disk entries evicted by the on-disk byte budget (oldest mtime
    /// first) — the `refcache.evicted` counter.
    pub disk_evicted: u64,
    /// Disk entries quarantined to `.corrupt`.
    pub quarantined: u64,
}

/// The in-memory + on-disk reference cache. One instance serves a whole
/// executor invocation (or a whole `photon-serve` process); worker
/// threads share it behind `&self`.
#[derive(Debug)]
pub struct RefCache {
    /// Persistence directory (`None` = memory only).
    dir: Option<PathBuf>,
    store: LruStore<Arc<Measurement>>,
    disk_budget: u64,
    disk_hits: AtomicU64,
    disk_evicted: AtomicU64,
    /// Entries quarantined (renamed to `.corrupt`) by this instance.
    quarantined: AtomicU64,
}

impl RefCache {
    /// A cache persisting under `dir` (created on first store), with
    /// the default budgets.
    pub fn persistent(dir: PathBuf) -> RefCache {
        RefCache::with_budgets(Some(dir), DEFAULT_MEM_BUDGET, DEFAULT_DISK_BUDGET)
    }

    /// A memory-only cache (used when persistence is disabled: entries
    /// still deduplicate and coalesce within one process).
    pub fn memory_only() -> RefCache {
        RefCache::with_budgets(None, DEFAULT_MEM_BUDGET, 0)
    }

    /// A cache with explicit byte budgets (tests size these small to
    /// exercise eviction deterministically).
    pub fn with_budgets(dir: Option<PathBuf>, mem_budget: u64, disk_budget: u64) -> RefCache {
        RefCache {
            dir,
            store: LruStore::new(mem_budget),
            disk_budget,
            disk_hits: AtomicU64::new(0),
            disk_evicted: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// Aggregated memory + disk counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            memory: self.store.stats(),
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

    /// Looks up the reference measurement for `key`, checking memory
    /// first and then disk (a disk hit is promoted into memory, charged
    /// the length of the entry text just read). Disk entries that fail
    /// checksum verification, fail to parse, carry the wrong schema
    /// version, or were stored under a different key are quarantined
    /// (renamed to `.corrupt`) with a warning and recomputed.
    pub fn lookup(&self, key: u64) -> Option<Arc<Measurement>> {
        if let Some(m) = self.store.get(key) {
            return Some(m);
        }
        let (m, bytes) = self.disk_lookup(key)?;
        self.store.insert(key, Arc::clone(&m), bytes);
        Some(m)
    }

    /// The entry persisted under `key` and the length of its text, if
    /// one is there and is what it claims to be.
    fn disk_lookup(&self, key: u64) -> Option<(Arc<Measurement>, u64)> {
        let path = self.entry_path(key)?;
        let entry = persist::read_text(&path).and_then(|mut text| {
            if faults::active() && faults::should_inject(FaultSite::RefcacheReadCorrupt, key) {
                corrupt_one_byte(&mut text, key);
            }
            let entry = validate_entry(&text, key).map_err(LoadError::Corrupt)?;
            Ok((entry.measurement, text.len() as u64))
        });
        match entry {
            Ok(hit) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                Some(hit)
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

    /// Stores a completed full-detailed measurement under `key`, in
    /// memory and (when persistence is on) on disk — atomically, with a
    /// checksum footer — then re-bounds the disk directory. I/O
    /// failures warn and degrade to memory-only.
    pub fn store(&self, key: u64, workload: &str, m: &Measurement) {
        let m = Arc::new(m.clone());
        let bytes = self.store_disk(key, workload, &m);
        self.store.insert(key, m, bytes);
    }

    /// Persists `m` (when persistence is on) and returns what the
    /// memory store should charge for it: the length of the entry text
    /// just written, else [`Measurement::footprint`] — never a render
    /// made only to be measured.
    fn store_disk(&self, key: u64, workload: &str, m: &Arc<Measurement>) -> u64 {
        let Some(path) = self.entry_path(key) else {
            return m.footprint();
        };
        let entry = CacheEntry {
            schema_version: CACHE_SCHEMA_VERSION,
            key: format!("{key:016x}"),
            isa_fingerprint: format!("{:016x}", isa_fingerprint()),
            workload: workload.to_string(),
            measurement: Arc::clone(m),
        };
        let write = || -> Result<u64, String> {
            let text = render_entry(&entry)?;
            let bytes = text.len() as u64;
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
                    std::fs::write(&path, torn).map_err(|e| e.to_string())?;
                    return Ok(bytes);
                }
            }
            persist::atomic_write_framed(&path, &text).map_err(|e| e.to_string())?;
            Ok(bytes)
        };
        let bytes = write().unwrap_or_else(|e| {
            eprintln!(
                "warning: could not persist reference cache entry {}: {e}",
                path.display()
            );
            m.footprint()
        });
        self.enforce_disk_budget();
        bytes
    }

    /// Single-flight resolution of a full-detailed reference: serve
    /// from memory/disk, coalesce onto a concurrent identical
    /// computation, or lead it — in which case the completed
    /// measurement is stored and persisted before followers wake.
    ///
    /// `compute` returning `None` means the simulation failed; nothing
    /// is cached and followers receive `None` too.
    pub fn get_or_compute_full<F>(
        &self,
        key: u64,
        workload: &str,
        compute: F,
    ) -> (Option<Arc<Measurement>>, Origin)
    where
        F: FnOnce() -> Option<Measurement>,
    {
        if let Some(m) = self.lookup(key) {
            return (Some(m), Origin::Hit);
        }
        self.store.join_or_lead(key, || {
            // Memory already missed above; re-check disk in case a
            // sibling process persisted the entry in the meantime.
            if let Some((m, bytes)) = self.disk_lookup(key) {
                return (Some(m), bytes, true);
            }
            match compute() {
                Some(m) => {
                    let m = Arc::new(m);
                    let bytes = self.store_disk(key, workload, &m);
                    (Some(m), bytes, true)
                }
                None => (None, 0, false),
            }
        })
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

/// The one place a cache entry is rendered; test builds tally the
/// calls, to pin that a lookup never renders.
fn render_entry(entry: &CacheEntry) -> Result<String, String> {
    #[cfg(test)]
    tests::RENDERS.with(|n| n.set(n.get() + 1));
    serde_json::to_string_pretty(entry).map_err(|e| e.to_string())
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
    fn memory_only_cache_round_trips() {
        let cache = RefCache::memory_only();
        assert!(cache.lookup(42).is_none());
        cache.store(42, "fir", &meas());
        assert_eq!(cache.lookup(42).unwrap().sim_cycles, 1234);
    }

    #[test]
    fn entry_validation_rejects_bad_entries() {
        let good = CacheEntry {
            schema_version: CACHE_SCHEMA_VERSION,
            key: format!("{:016x}", 7u64),
            isa_fingerprint: "0".into(),
            workload: "fir".into(),
            measurement: Arc::new(meas()),
        };
        let text = serde_json::to_string(&good).unwrap();
        assert!(validate_entry(&text, 7).is_ok());
        // wrong key
        assert!(validate_entry(&text, 8).is_err());
        // wrong schema version
        let mut stale = good.clone();
        stale.schema_version = CACHE_SCHEMA_VERSION + 1;
        let text = serde_json::to_string(&stale).unwrap();
        assert!(validate_entry(&text, 7).is_err());
        // garbage
        assert!(validate_entry("{not json", 7).is_err());
    }

    #[test]
    fn store_lru_eviction_respects_budget_and_recency() {
        let store: LruStore<u64> = LruStore::new(100);
        store.insert(1, 10, 40);
        store.insert(2, 20, 40);
        // Touch 1 so 2 becomes the LRU entry.
        assert_eq!(store.get(1), Some(10));
        store.insert(3, 30, 40); // 120 > 100: evict key 2
        assert_eq!(store.get(2), None);
        assert_eq!(store.get(1), Some(10));
        assert_eq!(store.get(3), Some(30));
        let s = store.stats();
        assert_eq!(s.evicted, 1);
        assert!(s.bytes <= 100, "bytes {} over budget", s.bytes);
        // An entry bigger than the whole budget is refused, not stored.
        store.insert(4, 40, 101);
        assert_eq!(store.get(4), None);
        assert_eq!(store.stats().rejected, 1);
    }

    #[test]
    fn single_flight_coalesces_concurrent_computes() {
        use std::sync::atomic::AtomicUsize;
        let store: LruStore<u64> = LruStore::new(1 << 20);
        let computes = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        store.join_or_lead(99, || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open until the other seven
                            // callers have joined it (or 5 s have passed).
                            let t0 = std::time::Instant::now();
                            while store.stats().coalesced < 7 && t0.elapsed().as_secs() < 5 {
                                std::thread::yield_now();
                            }
                            (Some(777u64), 8, true)
                        })
                    })
                })
                .collect();
            let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for (v, _) in &results {
                assert_eq!(*v, Some(777));
            }
            // Exactly one leader; everyone else coalesced.
            assert_eq!(computes.load(Ordering::SeqCst), 1);
            let leaders = results.iter().filter(|(_, o)| *o == Origin::Miss).count();
            assert_eq!(leaders, 1);
        });
    }

    #[test]
    fn failed_compute_is_not_cached_and_followers_see_none() {
        let store: LruStore<u64> = LruStore::new(1 << 20);
        let (v, origin) = store.join_or_lead(5, || (None, 0, false));
        assert_eq!(v, None);
        assert_eq!(origin, Origin::Miss);
        // The failure was not cached: the next call recomputes.
        let (v, origin) = store.join_or_lead(5, || (Some(1), 8, true));
        assert_eq!(v, Some(1));
        assert_eq!(origin, Origin::Miss);
    }

    #[test]
    fn disk_budget_evicts_oldest_entries() {
        let dir =
            std::env::temp_dir().join(format!("photon-refcache-diskbudget-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let m = meas();
        // Size one persisted entry, then budget the real cache so only
        // two fit — the third store must evict the oldest.
        let probe = RefCache::with_budgets(Some(dir.clone()), 1 << 20, u64::MAX);
        probe.store(1, "fir", &m);
        let entry_len = std::fs::metadata(dir.join(format!("{:016x}.json", 1u64)))
            .unwrap()
            .len();
        let budget = entry_len * 2 + entry_len / 2;
        let cache = RefCache::with_budgets(Some(dir.clone()), 1 << 20, budget);
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
        let probe = RefCache::with_budgets(Some(dir.clone()), 1 << 20, u64::MAX);
        probe.store(1, "fir", &m);
        let entry_len = std::fs::metadata(dir.join(format!("{:016x}.json", 1u64)))
            .unwrap()
            .len();
        // Budget fits one entry: the second store goes over it, which
        // must reap the corpse before evicting any live entry.
        let cache = RefCache::with_budgets(Some(dir.clone()), 1 << 20, entry_len + entry_len / 2);
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
    fn a_disk_hit_is_promoted_without_rendering_and_charged_the_text_it_read() {
        let dir =
            std::env::temp_dir().join(format!("photon-refcache-norender-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        RefCache::persistent(dir.clone()).store(9, "fir", &meas());
        assert_eq!(RENDERS.with(Cell::get), 1, "one render, for the disk");
        let on_disk = std::fs::metadata(dir.join(format!("{:016x}.json", 9u64)))
            .unwrap()
            .len();

        // A fresh instance has nothing in memory: the first lookup is a
        // disk hit, the second a memory hit — and both return the same
        // allocation.
        let cache = RefCache::persistent(dir.clone());
        let first = cache.lookup(9).expect("disk hit");
        let second = cache.lookup(9).expect("memory hit");
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(*first, meas());
        assert_eq!(RENDERS.with(Cell::get), 1, "a lookup must not render");
        let stats = cache.stats();
        assert_eq!((stats.disk_hits, stats.memory.hits), (1, 1));
        assert_eq!(stats.memory.bytes, on_disk);

        // With no entry text at hand the charge is structural.
        let mem = RefCache::memory_only();
        mem.store(9, "fir", &meas());
        assert_eq!(mem.stats().memory.bytes, meas().footprint());
        assert_eq!(RENDERS.with(Cell::get), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn get_or_compute_full_hits_after_store() {
        let cache = RefCache::memory_only();
        let (m, origin) = cache.get_or_compute_full(7, "fir", || Some(meas()));
        assert_eq!(origin, Origin::Miss);
        assert_eq!(m.unwrap().sim_cycles, 1234);
        let (m, origin) =
            cache.get_or_compute_full(7, "fir", || panic!("must be served from memory"));
        assert_eq!(origin, Origin::Hit);
        assert_eq!(m.unwrap().sim_cycles, 1234);
    }
}
