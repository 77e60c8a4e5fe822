//! Memory system statistics.
//!
//! [`MemStats`] is a point-in-time *snapshot* of the tallies kept by
//! [`crate::MemoryHierarchy`] — a serializable, diffable copy that
//! results carry. The hierarchy mirrors it into the telemetry registry
//! (one `mem.*` counter per field) when a kernel ends.

use serde::{Deserialize, Serialize};

/// Snapshot of the counters accumulated by [`crate::MemoryHierarchy`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// Vector L1 hits across all CUs.
    pub l1v_hits: u64,
    /// Vector L1 misses across all CUs.
    pub l1v_misses: u64,
    /// Valid lines displaced from vector L1s.
    pub l1v_evictions: u64,
    /// Scalar cache hits.
    pub l1s_hits: u64,
    /// Scalar cache misses.
    pub l1s_misses: u64,
    /// Valid lines displaced from scalar caches.
    pub l1s_evictions: u64,
    /// L2 hits across all banks.
    pub l2_hits: u64,
    /// L2 misses across all banks.
    pub l2_misses: u64,
    /// Valid lines displaced from L2 banks.
    pub l2_evictions: u64,
    /// Lines fetched from DRAM.
    pub dram_accesses: u64,
    /// L1V misses coalesced into an outstanding same-line fill (no
    /// downstream traffic): `l1v_misses - l1v_mshr_merges` transactions
    /// reached L2.
    pub l1v_mshr_merges: u64,
    /// L1S misses coalesced into an outstanding same-line fill.
    pub l1s_mshr_merges: u64,
    /// L2 misses coalesced into an outstanding same-line fill:
    /// `l2_misses - l2_mshr_merges` transactions reached DRAM.
    pub l2_mshr_merges: u64,
    /// DRAM accesses that hit an open row buffer (detailed fidelity).
    pub dram_row_hits: u64,
    /// DRAM accesses that activated an idle bank (detailed fidelity).
    pub dram_row_misses: u64,
    /// DRAM accesses that closed a conflicting open row first (detailed
    /// fidelity).
    pub dram_row_conflicts: u64,
}

impl MemStats {
    /// Every field beside the name of the registry counter mirroring it.
    pub(crate) fn counters(&self) -> [(&'static str, u64); 16] {
        [
            ("mem.l1v.hits", self.l1v_hits),
            ("mem.l1v.misses", self.l1v_misses),
            ("mem.l1v.evictions", self.l1v_evictions),
            ("mem.l1v.mshr_merges", self.l1v_mshr_merges),
            ("mem.l1s.hits", self.l1s_hits),
            ("mem.l1s.misses", self.l1s_misses),
            ("mem.l1s.evictions", self.l1s_evictions),
            ("mem.l1s.mshr_merges", self.l1s_mshr_merges),
            ("mem.l2.hits", self.l2_hits),
            ("mem.l2.misses", self.l2_misses),
            ("mem.l2.evictions", self.l2_evictions),
            ("mem.l2.mshr_merges", self.l2_mshr_merges),
            ("mem.dram.accesses", self.dram_accesses),
            ("mem.dram.row_hits", self.dram_row_hits),
            ("mem.dram.row_misses", self.dram_row_misses),
            ("mem.dram.row_conflicts", self.dram_row_conflicts),
        ]
    }

    /// Vector L1 hit rate in `[0, 1]`; zero when no accesses occurred.
    pub fn l1v_hit_rate(&self) -> f64 {
        let total = self.l1v_hits + self.l1v_misses;
        if total == 0 {
            0.0
        } else {
            self.l1v_hits as f64 / total as f64
        }
    }

    /// L2 hit rate in `[0, 1]`; zero when no accesses occurred.
    pub fn l2_hit_rate(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_hits as f64 / total as f64
        }
    }

    /// DRAM row-buffer hit rate in `[0, 1]`; zero when no accesses
    /// occurred (always zero under legacy fidelity).
    pub fn dram_row_hit_rate(&self) -> f64 {
        let total = self.dram_row_hits + self.dram_row_misses + self.dram_row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.dram_row_hits as f64 / total as f64
        }
    }

    /// Field-wise difference `self - earlier` (for per-kernel deltas).
    ///
    /// # Panics
    /// Panics in debug builds if `earlier` is not a prefix state of
    /// `self` (counters only grow).
    pub fn since(&self, earlier: &MemStats) -> MemStats {
        MemStats {
            l1v_hits: self.l1v_hits - earlier.l1v_hits,
            l1v_misses: self.l1v_misses - earlier.l1v_misses,
            l1v_evictions: self.l1v_evictions - earlier.l1v_evictions,
            l1s_hits: self.l1s_hits - earlier.l1s_hits,
            l1s_misses: self.l1s_misses - earlier.l1s_misses,
            l1s_evictions: self.l1s_evictions - earlier.l1s_evictions,
            l2_hits: self.l2_hits - earlier.l2_hits,
            l2_misses: self.l2_misses - earlier.l2_misses,
            l2_evictions: self.l2_evictions - earlier.l2_evictions,
            dram_accesses: self.dram_accesses - earlier.dram_accesses,
            l1v_mshr_merges: self.l1v_mshr_merges - earlier.l1v_mshr_merges,
            l1s_mshr_merges: self.l1s_mshr_merges - earlier.l1s_mshr_merges,
            l2_mshr_merges: self.l2_mshr_merges - earlier.l2_mshr_merges,
            dram_row_hits: self.dram_row_hits - earlier.dram_row_hits,
            dram_row_misses: self.dram_row_misses - earlier.dram_row_misses,
            dram_row_conflicts: self.dram_row_conflicts - earlier.dram_row_conflicts,
        }
    }
}

/// Log2 buckets in a [`QueueDelayHist`]: bucket 0 holds delay 0,
/// bucket `i` in `1..16` holds `[2^(i-1), 2^i)`, and the last bucket
/// holds everything at or above `2^15` cycles.
pub const QDELAY_BUCKETS: usize = 17;

/// A flat log2 histogram of per-transaction queueing delay at one
/// cache/DRAM level: how long transactions waited for a busy resource
/// before being serviced, separate from the access latency itself.
///
/// Kept `Copy` and allocation-free so the hierarchy can record on the
/// hot path with one branch and two adds; snapshots diff with
/// [`QueueDelayHist::since`] exactly like [`MemStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueDelayHist {
    /// Bucket counts (see [`QDELAY_BUCKETS`]).
    pub buckets: [u64; QDELAY_BUCKETS],
    /// Transactions recorded.
    pub count: u64,
    /// Total queue cycles (saturating).
    pub sum: u64,
}

impl QueueDelayHist {
    /// Bucket a delay lands in.
    #[inline]
    pub fn bucket_index(delay: u64) -> usize {
        if delay == 0 {
            0
        } else {
            (64 - delay.leading_zeros() as usize).min(QDELAY_BUCKETS - 1)
        }
    }

    /// Lower bound of bucket `i`.
    pub fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Midpoint of bucket `i` — the unbiased representative value for
    /// publishing bucket counts into registry histograms. The floor
    /// systematically underestimates (every delay in `[2^(i-1), 2^i)`
    /// would be reported as `2^(i-1)`); the midpoint is off by at most
    /// half the bucket width in either direction. The open-ended cap
    /// bucket keeps its floor, the only defensible point estimate.
    pub fn bucket_mid(i: usize) -> u64 {
        let lo = Self::bucket_floor(i);
        if i == 0 || i == QDELAY_BUCKETS - 1 {
            lo
        } else {
            // Bucket spans [lo, 2*lo - 1].
            lo + (lo - 1) / 2
        }
    }

    /// Records one transaction's queueing delay.
    #[inline]
    pub fn record(&mut self, delay: u64) {
        self.buckets[Self::bucket_index(delay)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(delay);
    }

    /// Field-wise difference `self - earlier` (per-kernel deltas; the
    /// hierarchy's histograms only grow).
    pub fn since(&self, earlier: &QueueDelayHist) -> QueueDelayHist {
        let mut buckets = [0u64; QDELAY_BUCKETS];
        for (o, (a, b)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(earlier.buckets.iter()))
        {
            *o = a - b;
        }
        QueueDelayHist {
            buckets,
            count: self.count - earlier.count,
            sum: self.sum - earlier.sum,
        }
    }
}

/// Queue-delay histograms for every level of the hierarchy, snapshotted
/// together so per-kernel deltas stay consistent.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueDelays {
    /// Per-CU vector L1 path.
    pub l1v: QueueDelayHist,
    /// Shared scalar cache path.
    pub l1s: QueueDelayHist,
    /// L2 bank contention.
    pub l2: QueueDelayHist,
    /// DRAM channel contention.
    pub dram: QueueDelayHist,
}

impl QueueDelays {
    /// `(name, histogram)` pairs for iteration (export, publishing).
    pub fn levels(&self) -> [(&'static str, &QueueDelayHist); 4] {
        [
            ("l1v", &self.l1v),
            ("l1s", &self.l1s),
            ("l2", &self.l2),
            ("dram", &self.dram),
        ]
    }

    /// Total queue cycles across all levels — the running accumulator
    /// the timing engine diffs around a memory access to split the
    /// queued portion of a wait from the in-flight portion.
    pub fn queue_cycles(&self) -> u64 {
        self.l1v.sum + self.l1s.sum + self.l2.sum + self.dram.sum
    }

    /// Field-wise difference `self - earlier`.
    pub fn since(&self, earlier: &QueueDelays) -> QueueDelays {
        QueueDelays {
            l1v: self.l1v.since(&earlier.l1v),
            l1s: self.l1s.since(&earlier.l1s),
            l2: self.l2.since(&earlier.l2),
            dram: self.dram.since(&earlier.dram),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_diffs_fieldwise() {
        let a = MemStats {
            l1v_hits: 10,
            l1v_misses: 5,
            l2_hits: 3,
            l2_misses: 2,
            l2_evictions: 1,
            dram_accesses: 2,
            ..Default::default()
        };
        let b = MemStats {
            l1v_hits: 25,
            l1v_misses: 9,
            l2_hits: 7,
            l2_misses: 2,
            l2_evictions: 1,
            dram_accesses: 2,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.l1v_hits, 15);
        assert_eq!(d.l1v_misses, 4);
        assert_eq!(d.l2_hits, 4);
        assert_eq!(d.l2_misses, 0);
        assert_eq!(d.l2_evictions, 0);
    }

    #[test]
    fn hit_rate_handles_zero() {
        assert_eq!(MemStats::default().l1v_hit_rate(), 0.0);
        let s = MemStats {
            l1v_hits: 3,
            l1v_misses: 1,
            ..Default::default()
        };
        assert!((s.l1v_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn qdelay_buckets_and_floors() {
        assert_eq!(QueueDelayHist::bucket_index(0), 0);
        assert_eq!(QueueDelayHist::bucket_index(1), 1);
        assert_eq!(QueueDelayHist::bucket_index(2), 2);
        assert_eq!(QueueDelayHist::bucket_index(3), 2);
        assert_eq!(QueueDelayHist::bucket_index(1 << 14), 15);
        // Everything at/above 2^15 lands in the cap bucket.
        assert_eq!(QueueDelayHist::bucket_index(1 << 15), 16);
        assert_eq!(QueueDelayHist::bucket_index(u64::MAX), 16);
        assert_eq!(QueueDelayHist::bucket_floor(0), 0);
        assert_eq!(QueueDelayHist::bucket_floor(2), 2);
        assert_eq!(QueueDelayHist::bucket_floor(16), 1 << 15);
    }

    #[test]
    fn bucket_mid_centers_bounded_buckets() {
        assert_eq!(QueueDelayHist::bucket_mid(0), 0);
        assert_eq!(QueueDelayHist::bucket_mid(1), 1); // [1, 1]
        assert_eq!(QueueDelayHist::bucket_mid(2), 2); // [2, 3]
        assert_eq!(QueueDelayHist::bucket_mid(3), 5); // [4, 7]
        assert_eq!(QueueDelayHist::bucket_mid(4), 11); // [8, 15]
                                                       // A bucket's midpoint stays inside the bucket, so re-bucketing
                                                       // the published value never shifts it into a neighbor.
        for i in 0..QDELAY_BUCKETS {
            assert_eq!(
                QueueDelayHist::bucket_index(QueueDelayHist::bucket_mid(i)),
                i,
                "bucket {i}"
            );
        }
        // The open-ended cap bucket keeps its floor.
        assert_eq!(QueueDelayHist::bucket_mid(16), 1 << 15);
    }

    #[test]
    fn qdelay_record_and_since() {
        let mut h = QueueDelayHist::default();
        h.record(0);
        h.record(5);
        h.record(70_000);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 70_005);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[3], 1); // 5 in [4, 8)
        assert_eq!(h.buckets[16], 1);

        let earlier = {
            let mut e = QueueDelayHist::default();
            e.record(0);
            e
        };
        let d = h.since(&earlier);
        assert_eq!(d.count, 2);
        assert_eq!(d.buckets[0], 0);
        assert_eq!(d.sum, 70_005);
    }

    #[test]
    fn queue_delays_aggregate_across_levels() {
        let mut q = QueueDelays::default();
        q.l1v.record(4);
        q.l2.record(10);
        q.dram.record(100);
        assert_eq!(q.queue_cycles(), 114);
        let names: Vec<_> = q.levels().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["l1v", "l1s", "l2", "dram"]);
        let d = q.since(&QueueDelays::default());
        assert_eq!(d, q);
    }
}
