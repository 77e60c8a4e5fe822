//! The content-addressed reference cache, promoted (PR 7) into a
//! sharded, LRU-bounded, concurrency-safe store with single-flight
//! deduplication — the storage layer behind both the parallel executor
//! and `photon-serve`.
//!
//! ## Layering
//!
//! * [`ShardedStore`] — the generic in-memory core: N mutex-sharded
//!   maps keyed by `u64` content hashes, recency-stamped LRU eviction
//!   under a byte budget, and a single-flight table so concurrent
//!   computations of the same key coalesce onto one leader.
//! * [`RefCache`] — the full-detailed reference cache built on top: a
//!   `ShardedStore<Measurement>` plus crash-safe disk persistence under
//!   `results/cache/` ([`crate::persist`] atomic writes with checksum
//!   footers) and a byte-budgeted disk directory with oldest-mtime
//!   eviction.
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
//! counted ([`RefCache::quarantined`]) and surface as the
//! `refcache.quarantined` telemetry counter in executor reports.
//! A leader whose computation fails publishes the failure to its
//! followers (they see `None`) and caches nothing, so a transient
//! failure never poisons the store.

use crate::harness::Measurement;
use crate::persist;
use crate::specs::RunSpec;
use gpu_isa::{fnv1a, fnv1a_extend, isa_fingerprint};
use gpu_telemetry::faults::{self, FaultSite};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Bumped whenever the entry layout or the key derivation changes;
/// entries persisted under any other version are recomputed.
/// Version 2: `Measurement` gained cycle accounting and per-BB error
/// rows (the vendored serde has no `#[serde(default)]`, so old entries
/// cannot deserialize and must be recomputed).
pub const CACHE_SCHEMA_VERSION: u32 = 2;

/// Shard count of the in-memory store: enough that sixteen executor or
/// server workers rarely contend on the same lock, few enough that the
/// per-shard byte budget stays meaningful.
pub const DEFAULT_SHARDS: usize = 16;

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

/// Where a [`ShardedStore::get_or_compute`] (or
/// [`RefCache::get_or_compute_full`]) answer came from.
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
    /// Entries refused because they alone exceed a shard's budget.
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

struct Shard<V> {
    map: HashMap<u64, Entry<V>>,
    bytes: u64,
}

impl<V> Default for Shard<V> {
    fn default() -> Self {
        Shard {
            map: HashMap::new(),
            bytes: 0,
        }
    }
}

/// One in-flight computation: followers block on the condvar until the
/// leader publishes. `None` means the leader's computation failed —
/// followers must handle the miss themselves.
struct Flight<V> {
    slot: Mutex<(bool, Option<V>)>,
    cv: Condvar,
}

impl<V> Default for Flight<V> {
    fn default() -> Self {
        Flight {
            slot: Mutex::new((false, None)),
            cv: Condvar::new(),
        }
    }
}

/// The sharded, LRU-bounded, single-flight in-memory store.
///
/// Keys are already well-mixed content hashes; values are cloned out on
/// every hit, so `V` should be cheap to clone or wrapped in an `Arc` by
/// the caller. The byte budget is split evenly across shards and
/// enforced per shard: the store's total residency never exceeds the
/// budget, and the most recently used entry of a shard is never the
/// eviction victim.
pub struct ShardedStore<V> {
    shards: Box<[Mutex<Shard<V>>]>,
    shard_budget: u64,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evicted: AtomicU64,
    rejected: AtomicU64,
    inflight: Mutex<HashMap<u64, Arc<Flight<V>>>>,
}

impl<V> std::fmt::Debug for ShardedStore<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.shards.len())
            .field("shard_budget", &self.shard_budget)
            .finish()
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<V: Clone> ShardedStore<V> {
    /// A store of `shards` mutex-sharded maps under a total byte
    /// `budget` (split evenly per shard, at least 1 byte each).
    pub fn new(shards: usize, budget: u64) -> ShardedStore<V> {
        let n = shards.max(1);
        ShardedStore {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: (budget / n as u64).max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            inflight: Mutex::new(HashMap::new()),
        }
    }

    fn shard_of(&self, key: u64) -> &Mutex<Shard<V>> {
        // Fibonacci-mix the (already hashed) key so shard choice does
        // not correlate with any bit pattern of the key derivation.
        let i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.shards.len();
        &self.shards[i]
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: u64) -> Option<V> {
        let mut shard = lock(self.shard_of(key));
        match shard.map.get_mut(&key) {
            Some(e) => {
                e.stamp = self.clock.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `value` under `key` at an accounted size of `bytes`,
    /// evicting least-recently-used entries of the same shard until the
    /// shard is back under budget. A value that alone exceeds the shard
    /// budget is not stored (counted in `rejected`).
    pub fn insert(&self, key: u64, value: V, bytes: u64) {
        if bytes > self.shard_budget {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = lock(self.shard_of(key));
        if let Some(old) = shard.map.insert(
            key,
            Entry {
                value,
                bytes,
                stamp,
            },
        ) {
            shard.bytes -= old.bytes;
        }
        shard.bytes += bytes;
        while shard.bytes > self.shard_budget {
            // The just-inserted entry carries the freshest stamp, so the
            // victim is always some other entry.
            let victim = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    if let Some(e) = shard.map.remove(&k) {
                        shard.bytes -= e.bytes;
                    }
                    self.evicted.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }

    /// Joins an in-flight computation of `key` if one exists (blocking
    /// until the leader publishes), otherwise leads it: `compute`
    /// returns the value plus its accounted byte size and whether to
    /// store it (`false` keeps transient failures out of the cache
    /// while still answering followers).
    ///
    /// Returns the value (or `None` if the computation produced none)
    /// and whether this caller coalesced.
    pub fn join_or_lead<F>(&self, key: u64, compute: F) -> (Option<V>, bool)
    where
        F: FnOnce() -> (Option<V>, u64, bool),
    {
        let flight = {
            let mut inflight = lock(&self.inflight);
            if let Some(f) = inflight.get(&key) {
                let f = Arc::clone(f);
                drop(inflight);
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                let mut slot = lock(&f.slot);
                while !slot.0 {
                    slot = f.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
                }
                return (slot.1.clone(), true);
            }
            let f = Arc::new(Flight::default());
            inflight.insert(key, Arc::clone(&f));
            f
        };
        // Lead. Publish-on-drop so a panicking computation can never
        // strand its followers on the condvar.
        struct Publish<'a, V> {
            store: &'a ShardedStore<V>,
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
                lock(&self.store.inflight).remove(&self.key);
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
        (value, false)
    }

    /// [`get`](Self::get) then [`join_or_lead`](Self::join_or_lead):
    /// the single call sites use for "answer from cache or compute
    /// exactly once across all concurrent callers".
    pub fn get_or_compute<F>(&self, key: u64, compute: F) -> (Option<V>, Origin)
    where
        F: FnOnce() -> (Option<V>, u64, bool),
    {
        if let Some(v) = self.get(key) {
            return (Some(v), Origin::Hit);
        }
        let (v, coalesced) = self.join_or_lead(key, compute);
        (
            v,
            if coalesced {
                Origin::Coalesced
            } else {
                Origin::Miss
            },
        )
    }

    /// Current counters and residency.
    pub fn stats(&self) -> StoreStats {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for s in self.shards.iter() {
            let s = lock(s);
            entries += s.map.len() as u64;
            bytes += s.bytes;
        }
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            entries,
            bytes,
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
    /// The memoized full-detailed measurement.
    pub measurement: Measurement,
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
    store: ShardedStore<Measurement>,
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
            store: ShardedStore::new(DEFAULT_SHARDS, mem_budget),
            disk_budget,
            disk_hits: AtomicU64::new(0),
            disk_evicted: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// Entries this instance quarantined to `.corrupt` files.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
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
    /// first and then disk (a disk hit is promoted into memory). Disk
    /// entries that fail checksum verification, fail to parse, carry
    /// the wrong schema version, or were stored under a different key
    /// are quarantined (renamed to `.corrupt`) with a warning and
    /// recomputed.
    pub fn lookup(&self, key: u64) -> Option<Measurement> {
        if let Some(m) = self.store.get(key) {
            return Some(m);
        }
        let m = self.disk_lookup(key)?;
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
        self.store.insert(key, m.clone(), measurement_bytes(&m));
        Some(m)
    }

    fn disk_lookup(&self, key: u64) -> Option<Measurement> {
        let path = self.entry_path(key)?;
        let mut text = std::fs::read_to_string(&path).ok()?;
        if faults::active() && faults::should_inject(FaultSite::RefcacheReadCorrupt, key) {
            corrupt_one_byte(&mut text, key);
        }
        match validate_entry(&text, key, &path) {
            Ok(m) => Some(m),
            Err(why) => {
                eprintln!(
                    "warning: quarantining reference cache entry {}: {why} (recomputing)",
                    path.display()
                );
                if persist::quarantine(&path).is_some() {
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        }
    }

    /// Stores a completed full-detailed measurement under `key`, in
    /// memory and (when persistence is on) on disk — atomically, with a
    /// checksum footer — then re-bounds the disk directory. I/O
    /// failures warn and degrade to memory-only.
    pub fn store(&self, key: u64, workload: &str, m: &Measurement) {
        self.store.insert(key, m.clone(), measurement_bytes(m));
        self.store_disk(key, workload, m);
    }

    fn store_disk(&self, key: u64, workload: &str, m: &Measurement) {
        let Some(path) = self.entry_path(key) else {
            return;
        };
        let entry = CacheEntry {
            schema_version: CACHE_SCHEMA_VERSION,
            key: format!("{key:016x}"),
            isa_fingerprint: format!("{:016x}", isa_fingerprint()),
            workload: workload.to_string(),
            measurement: m.clone(),
        };
        let write = || -> Result<(), String> {
            let text = serde_json::to_string_pretty(&entry).map_err(|e| e.to_string())?;
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
    ) -> (Option<Measurement>, Origin)
    where
        F: FnOnce() -> Option<Measurement>,
    {
        if let Some(m) = self.lookup(key) {
            return (Some(m), Origin::Hit);
        }
        let (m, coalesced) = self.store.join_or_lead(key, || {
            // Memory already missed above; re-check disk in case a
            // sibling process persisted the entry in the meantime.
            if let Some(m) = self.disk_lookup(key) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                let bytes = measurement_bytes(&m);
                return (Some(m), bytes, true);
            }
            match compute() {
                Some(m) => {
                    self.store_disk(key, workload, &m);
                    let bytes = measurement_bytes(&m);
                    (Some(m), bytes, true)
                }
                None => (None, 0, false),
            }
        });
        (
            m,
            if coalesced {
                Origin::Coalesced
            } else {
                Origin::Miss
            },
        )
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

/// The accounted in-memory size of a measurement: its canonical JSON
/// length (what the disk entry costs, minus framing) — cheap enough for
/// a cold path and proportional to the real footprint.
pub fn measurement_bytes(m: &Measurement) -> u64 {
    serde_json::to_string(m)
        .map(|s| s.len() as u64)
        .unwrap_or(0)
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

fn validate_entry(text: &str, key: u64, path: &Path) -> Result<Measurement, String> {
    // Checksum frame first: a torn or bit-flipped entry must be caught
    // before JSON parsing sees it. Unframed entries (pre-framing cache
    // dirs) fall through to the parse, which is their only validation.
    let framed = persist::split_frame(text)?;
    let text = framed.payload.as_str();
    let entry: CacheEntry = serde_json::from_str(text).map_err(|e| format!("unparseable ({e})"))?;
    if entry.schema_version != CACHE_SCHEMA_VERSION {
        return Err(format!(
            "schema version {} (tool expects {})",
            entry.schema_version, CACHE_SCHEMA_VERSION
        ));
    }
    let expect = format!("{key:016x}");
    if entry.key != expect {
        return Err(format!(
            "stored under key {} but resolved by {} — stale file name at {}",
            entry.key,
            expect,
            path.display()
        ));
    }
    Ok(entry.measurement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::{Method, RunSpec};
    use gpu_sim::GpuConfig;
    use gpu_workloads::registry::Benchmark;

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
            measurement: meas(),
        };
        let text = serde_json::to_string(&good).unwrap();
        assert!(validate_entry(&text, 7, Path::new("x")).is_ok());
        // wrong key
        assert!(validate_entry(&text, 8, Path::new("x")).is_err());
        // wrong schema version
        let mut stale = good.clone();
        stale.schema_version = CACHE_SCHEMA_VERSION + 1;
        let text = serde_json::to_string(&stale).unwrap();
        assert!(validate_entry(&text, 7, Path::new("x")).is_err());
        // garbage
        assert!(validate_entry("{not json", 7, Path::new("x")).is_err());
    }

    #[test]
    fn sharded_store_lru_eviction_respects_budget_and_recency() {
        // One shard so eviction order is fully deterministic.
        let store: ShardedStore<u64> = ShardedStore::new(1, 100);
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
        let store: ShardedStore<u64> = ShardedStore::new(4, 1 << 20);
        let computes = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        store.get_or_compute(99, || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            // Give followers time to pile onto the flight.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            (Some(777u64), 8, true)
                        })
                    })
                })
                .collect();
            let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for (v, _) in &results {
                assert_eq!(*v, Some(777));
            }
            // Exactly one leader; everyone else hit or coalesced.
            assert_eq!(computes.load(Ordering::SeqCst), 1);
            let leaders = results.iter().filter(|(_, o)| *o == Origin::Miss).count();
            assert_eq!(leaders, 1);
        });
    }

    #[test]
    fn failed_compute_is_not_cached_and_followers_see_none() {
        let store: ShardedStore<u64> = ShardedStore::new(4, 1 << 20);
        let (v, origin) = store.get_or_compute(5, || (None, 0, false));
        assert_eq!(v, None);
        assert_eq!(origin, Origin::Miss);
        // The failure was not cached: the next call recomputes.
        let (v, origin) = store.get_or_compute(5, || (Some(1), 8, true));
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
