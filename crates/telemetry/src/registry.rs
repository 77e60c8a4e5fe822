//! The metrics registry: named monotonic counters, gauges, and
//! log2-bucketed histograms behind cheap `Arc` handles.
//!
//! Handles are resolved once (at subsystem construction) and then
//! updated lock-free, so instrumented hot paths pay one relaxed atomic
//! operation per update. The registry itself is only locked when a
//! metric is registered or a [`MetricsSnapshot`] is taken — both cold
//! paths.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Locks a mutex, recovering the guard from a poisoned lock (telemetry
/// must never take the simulation down).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A monotonically increasing counter handle.
///
/// Cloning shares the underlying cell; updates use relaxed atomics.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge handle (stored as `f64` bits).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Stores a value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i` holds
/// values in `[2^(i-1), 2^i)`.
const BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramInner {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Lower bound of a bucket.
fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Midpoint of a bucket — the representative value in percentile
/// estimates. Bucket `i > 0` covers `[2^(i-1), 2^i - 1]`; the floor
/// would systematically underestimate, so percentiles report the
/// center. Bucket 0 holds only the value 0.
fn bucket_mid(i: usize) -> u64 {
    let lo = bucket_floor(i);
    if i == 0 {
        0
    } else {
        lo + (lo - 1) / 2
    }
}

/// Percentile estimate over log2 bucket counts: the midpoint of the
/// bucket holding the observation at rank `ceil(p × count)`.
/// Resolution is the bucket width; `0` when `count` is 0. Public so
/// report tools can recompute percentiles from snapshot bucket data.
pub fn percentile_from_buckets(buckets: &[u64], count: u64, p: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = (p * count as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return bucket_mid(i);
        }
    }
    bucket_mid(buckets.len().max(1) - 1)
}

/// A log2-bucketed histogram handle for latency/duration distributions.
///
/// Recording is O(1); percentiles are approximate (bucket resolution).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<Mutex<HistogramInner>>);

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of the same value in one locked update
    /// (bulk import of pre-aggregated data, e.g. per-level queue-delay
    /// buckets published at kernel end).
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let mut h = lock(&self.0);
        h.buckets[bucket_index(v)] += n;
        h.count += n;
        h.sum = h.sum.saturating_add(v.saturating_mul(n));
        h.min = h.min.min(v);
        h.max = h.max.max(v);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        lock(&self.0).count
    }

    /// The `p` percentile of the observations so far (`p` in `[0, 1]`),
    /// as [`percentile_from_buckets`] estimates it; 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let h = lock(&self.0);
        percentile_from_buckets(&h.buckets, h.count, p)
    }

    /// Snapshot of the distribution under a name.
    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let h = lock(&self.0);
        HistogramSnapshot {
            name: name.to_string(),
            count: h.count,
            sum: h.sum,
            min: if h.count == 0 { 0 } else { h.min },
            max: h.max,
            mean: if h.count == 0 {
                0.0
            } else {
                h.sum as f64 / h.count as f64
            },
            p50: percentile_from_buckets(&h.buckets, h.count, 0.50),
            p95: percentile_from_buckets(&h.buckets, h.count, 0.95),
            p99: percentile_from_buckets(&h.buckets, h.count, 0.99),
            buckets: h.buckets.to_vec(),
        }
    }
}

/// One counter in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One gauge in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: f64,
}

/// Summary of one histogram in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Observations.
    pub count: u64,
    /// Sum of observations (saturating).
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Mean observation.
    pub mean: f64,
    /// Approximate median (log2-bucket resolution).
    pub p50: u64,
    /// Approximate 95th percentile.
    pub p95: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
    /// Raw log2 bucket counts (length [`BUCKETS`]): bucket 0 holds the
    /// value 0, bucket `i` holds `[2^(i-1), 2^i)`. Carried so merged
    /// snapshots can recompute percentiles exactly and report tools can
    /// render distributions.
    pub buckets: Vec<u64>,
}

/// A serializable snapshot of every metric in a [`Registry`], sorted by
/// name for deterministic export.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a counter by name, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// All counters whose name starts with `prefix`, as `(name, value)`
    /// pairs in name order — how `photon-serve` selects the `sim.*`
    /// progress counters its `trace` op shows beside a job's spans.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .filter(|c| c.name.starts_with(prefix))
            .map(|c| (c.name.clone(), c.value))
            .collect()
    }

    /// Merges another snapshot into this one, so a suite of *per-run*
    /// registries can be combined into one aggregate without ever
    /// sharing live metric handles between concurrent runs.
    ///
    /// Semantics per metric kind:
    /// * **counters** — summed (both are totals of disjoint runs);
    /// * **gauges** — last writer wins (`other` overwrites `self`);
    /// * **histograms** — `count`/`sum` summed and `min`/`max` combined
    ///   exactly; `mean` recomputed from the merged sum and count;
    ///   bucket counts are added elementwise and `p50`/`p95`/`p99`
    ///   recomputed exactly from the merged buckets. When either side
    ///   lacks bucket data (a snapshot from an older producer), the
    ///   percentiles fall back to the max of the two parts — a
    ///   conservative upper-bound approximation.
    ///
    /// Name order stays sorted, so merging is deterministic regardless
    /// of the order runs finish in.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for c in &other.counters {
            match self.counters.iter_mut().find(|m| m.name == c.name) {
                Some(m) => m.value += c.value,
                None => self.counters.push(c.clone()),
            }
        }
        self.counters.sort_by(|a, b| a.name.cmp(&b.name));
        for g in &other.gauges {
            match self.gauges.iter_mut().find(|m| m.name == g.name) {
                Some(m) => m.value = g.value,
                None => self.gauges.push(g.clone()),
            }
        }
        self.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        for h in &other.histograms {
            match self.histograms.iter_mut().find(|m| m.name == h.name) {
                Some(m) => {
                    let count = m.count + h.count;
                    m.sum = m.sum.saturating_add(h.sum);
                    m.min = if m.count == 0 {
                        h.min
                    } else if h.count == 0 {
                        m.min
                    } else {
                        m.min.min(h.min)
                    };
                    m.max = m.max.max(h.max);
                    m.mean = if count == 0 {
                        0.0
                    } else {
                        m.sum as f64 / count as f64
                    };
                    if m.buckets.len() == BUCKETS && h.buckets.len() == BUCKETS {
                        for (a, b) in m.buckets.iter_mut().zip(h.buckets.iter()) {
                            *a += b;
                        }
                        m.p50 = percentile_from_buckets(&m.buckets, count, 0.50);
                        m.p95 = percentile_from_buckets(&m.buckets, count, 0.95);
                        m.p99 = percentile_from_buckets(&m.buckets, count, 0.99);
                    } else {
                        m.buckets.clear();
                        m.p50 = m.p50.max(h.p50);
                        m.p95 = m.p95.max(h.p95);
                        m.p99 = m.p99.max(h.p99);
                    }
                    m.count = count;
                }
                None => self.histograms.push(h.clone()),
            }
        }
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    }
}

/// One name-ordered map per metric kind: a lookup is a tree search and
/// a snapshot is already sorted.
#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// The handle registered under `name` in `map`, created on first use.
/// Repeated calls share one cell.
fn handle<T: Clone + Default>(map: &mut BTreeMap<String, T>, name: &str) -> T {
    if let Some(h) = map.get(name) {
        return h.clone();
    }
    let h = T::default();
    map.insert(name.to_string(), h.clone());
    h
}

/// The metric registry. One per simulated GPU (shared by its memory
/// hierarchy and any attached controllers), cheap to share via
/// [`crate::Telemetry`].
///
/// # Example
/// ```
/// use gpu_telemetry::Registry;
/// let reg = Registry::default();
/// let c = reg.counter("sim.kernels");
/// c.inc();
/// assert_eq!(reg.snapshot().counter("sim.kernels"), Some(1));
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// Returns the counter registered under `name`, creating it on
    /// first use. Repeated calls share one cell.
    pub fn counter(&self, name: &str) -> Counter {
        handle(&mut lock(&self.inner).counters, name)
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use.
    pub fn gauge(&self, name: &str) -> Gauge {
        handle(&mut lock(&self.inner).gauges, name)
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        handle(&mut lock(&self.inner).histograms, name)
    }

    /// Snapshot of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = lock(&self.inner);
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(n, c)| CounterSnapshot {
                    name: n.clone(),
                    value: c.get(),
                })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(n, g)| GaugeSnapshot {
                    name: n.clone(),
                    value: g.get(),
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(n, h)| h.snapshot(n))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name() {
        let reg = Registry::default();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(reg.snapshot().counter("x"), Some(4));
        assert_eq!(reg.snapshot().counter("y"), None);
    }

    #[test]
    fn gauge_last_value_wins() {
        let reg = Registry::default();
        let g = reg.gauge("ipc");
        g.set(1.5);
        g.set(2.25);
        assert_eq!(g.get(), 2.25);
        assert_eq!(reg.snapshot().gauges[0].value, 2.25);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot("lat");
        assert_eq!(s.count, 6);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 1106);
        // p50 falls into the [2,3] bucket, whose midpoint is 2.
        assert_eq!(s.p50, 2);
        assert!(s.p99 >= 512);
    }

    #[test]
    fn percentile_on_the_handle_matches_the_snapshot() {
        let h = Histogram::default();
        assert_eq!(h.percentile(0.99), 0);
        for v in [0u64, 1, 2, 3, 100, 1000, 7, 7, 40] {
            h.record(v);
        }
        let s = h.snapshot("lat");
        assert_eq!(
            [h.percentile(0.50), h.percentile(0.95), h.percentile(0.99)],
            [s.p50, s.p95, s.p99]
        );
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let s = Histogram::default().snapshot("empty");
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.p50, 0);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_floor(2), 2);
        assert_eq!(bucket_floor(64), 1u64 << 63);
        // Midpoints center each [2^(i-1), 2^i - 1] range and stay
        // inside their own bucket.
        assert_eq!(bucket_mid(0), 0);
        assert_eq!(bucket_mid(1), 1);
        assert_eq!(bucket_mid(3), 5);
        assert_eq!(bucket_mid(10), 767);
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_mid(i)), i);
        }
    }

    #[test]
    fn merge_sums_counters_and_combines_histograms() {
        let a = Registry::default();
        a.counter("runs").add(2);
        a.gauge("ipc").set(1.0);
        let ha = a.histogram("lat");
        ha.record(10);
        ha.record(20);

        let b = Registry::default();
        b.counter("runs").add(3);
        b.counter("only_b").inc();
        b.gauge("ipc").set(2.0);
        let hb = b.histogram("lat");
        hb.record(5);
        hb.record(1000);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("runs"), Some(5));
        assert_eq!(merged.counter("only_b"), Some(1));
        assert_eq!(merged.gauges[0].value, 2.0);
        let h = &merged.histograms[0];
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1035);
        assert_eq!(h.min, 5);
        assert_eq!(h.max, 1000);
        assert!((h.mean - 1035.0 / 4.0).abs() < 1e-9);
        // Counter names stay sorted after merging in new entries.
        let names: Vec<_> = merged.counters.iter().map(|c| c.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn record_n_bulk_matches_repeated_record() {
        let a = Histogram::default();
        for _ in 0..5 {
            a.record(16);
        }
        a.record(3);
        let b = Histogram::default();
        b.record_n(16, 5);
        b.record_n(3, 1);
        b.record_n(99, 0); // no-op
        assert_eq!(a.snapshot("h"), b.snapshot("h"));
        assert_eq!(b.count(), 6);
    }

    #[test]
    fn merged_percentiles_are_exact_from_buckets() {
        // One side holds many small values, the other a few large ones.
        // The max-of-parts approximation would report p50 = 512 (the
        // larger side's median); the exact bucket merge keeps p50 small.
        let a = Registry::default();
        let ha = a.histogram("lat");
        ha.record_n(2, 90);
        let b = Registry::default();
        let hb = b.histogram("lat");
        hb.record_n(512, 10);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let h = &merged.histograms[0];
        assert_eq!(h.count, 100);
        assert_eq!(h.p50, 2);
        // 512 lands in the [512, 1023] bucket; percentiles report the
        // bucket midpoint, not its floor.
        assert_eq!(h.p95, 767);
        assert_eq!(h.buckets.iter().sum::<u64>(), 100);

        // Without bucket data the merge falls back to max-of-parts.
        let mut no_buckets = a.snapshot();
        no_buckets.histograms[0].buckets.clear();
        no_buckets.merge(&b.snapshot());
        assert_eq!(no_buckets.histograms[0].p50, 767);
        assert!(no_buckets.histograms[0].buckets.is_empty());
    }

    #[test]
    fn merge_into_empty_snapshot_copies_everything() {
        let b = Registry::default();
        b.counter("x").add(7);
        b.histogram("h").record(3);
        let mut merged = MetricsSnapshot::default();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("x"), Some(7));
        assert_eq!(merged.histograms[0].min, 3);
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let reg = Registry::default();
        reg.counter("b");
        reg.counter("a");
        let names: Vec<_> = reg
            .snapshot()
            .counters
            .into_iter()
            .map(|c| c.name)
            .collect();
        assert_eq!(names, vec!["a".to_string(), "b".to_string()]);
    }
}
