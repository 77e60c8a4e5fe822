//! Photon's online analysis (paper Figs 7/10/12, step 1).
//!
//! At kernel start, Photon functionally simulates a small sample of
//! warps (1 % by default) against a copy-on-write overlay and derives:
//!
//! * the **warp type distribution** — warps with identical BBVs form a
//!   type; warp-sampling requires a dominant type (≥ 95 %),
//! * the **basic-block distribution** — the share of kernel instructions
//!   each block accounts for; blocks below a rarity threshold are
//!   handled by the interval model rather than waited for,
//! * the kernel's **GPU BBV** for kernel-matching.

use crate::bbv::{Bbv, GpuBbv};
use gpu_isa::BasicBlockId;
use gpu_sim::WarpTrace;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Aggregated result of tracing a sample of warps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineAnalysis {
    /// Distinct warp types with their sampled counts, descending.
    pub types: Vec<(WarpTrace, u64)>,
    /// Fraction of sampled warps in the most frequent type.
    pub dominant_fraction: f64,
    /// Per-block share of sampled instructions, sorted by block id
    /// (a sorted vec rather than a map so it serializes to JSON).
    pub bb_inst_share: Vec<(BasicBlockId, f64)>,
    /// The kernel's GPU BBV.
    pub gpu_bbv: GpuBbv,
    /// Warps sampled.
    pub sampled_warps: u64,
    /// Instructions executed by the sample.
    pub sample_insts: u64,
    /// Mean instructions per sampled warp.
    pub insts_per_warp: f64,
}

impl OnlineAnalysis {
    /// Builds the analysis from sampled warp traces.
    ///
    /// `bb_map` must be the basic-block map of the traced kernel.
    ///
    /// Returns `None` if `traces` is empty (e.g. a zero-warp launch or a
    /// sample whose warps all faulted); callers fall back to detailed
    /// simulation in that case.
    pub fn from_traces(traces: &[WarpTrace], bb_map: &gpu_isa::BasicBlockMap) -> Option<Self> {
        if traces.is_empty() {
            return None;
        }
        let mut by_type: HashMap<&WarpTrace, u64> = HashMap::new();
        for t in traces {
            *by_type.entry(t).or_insert(0) += 1;
        }
        let mut types: Vec<(WarpTrace, u64)> =
            by_type.into_iter().map(|(t, n)| (t.clone(), n)).collect();
        // Count, then length, then the counts themselves: a total order,
        // so tied types keep one order whatever the map's iteration.
        types.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| a.0.insts.cmp(&b.0.insts))
                .then_with(|| a.0.bb_counts.cmp(&b.0.bb_counts))
        });
        let total = traces.len() as u64;
        let dominant_fraction = types.first().map_or(0.0, |(_, n)| *n as f64 / total as f64);

        let mut by_block: HashMap<BasicBlockId, f64> = HashMap::new();
        let mut sample_insts = 0u64;
        for t in traces {
            sample_insts += t.insts;
            for &(bb, count) in &t.bb_counts {
                let len = bb_map.block(bb).len as f64;
                *by_block.entry(bb).or_insert(0.0) += count as f64 * len;
            }
        }
        let total_weight: f64 = by_block.values().sum();
        let mut bb_insts: Vec<(BasicBlockId, f64)> = by_block
            .into_iter()
            .map(|(bb, w)| {
                (
                    bb,
                    if total_weight > 0.0 {
                        w / total_weight
                    } else {
                        0.0
                    },
                )
            })
            .collect();
        bb_insts.sort_unstable_by_key(|(bb, _)| *bb);

        let insts_per_warp = sample_insts as f64 / total as f64;
        let typed_bbvs: Vec<(Bbv, u64)> = types
            .iter()
            .map(|(t, n)| (Bbv::from_trace(t, bb_map), *n))
            .collect();
        let gpu_bbv = GpuBbv::new(typed_bbvs, insts_per_warp);

        Some(OnlineAnalysis {
            types,
            dominant_fraction,
            bb_inst_share: bb_insts,
            gpu_bbv,
            sampled_warps: total,
            sample_insts,
            insts_per_warp,
        })
    }

    /// The dominant warp type's trace, if any type exists.
    pub fn dominant_type(&self) -> Option<&WarpTrace> {
        self.types.first().map(|(t, _)| t)
    }

    /// Share of sampled instructions attributed to `bb` (0 if unseen).
    pub fn bb_share(&self, bb: BasicBlockId) -> f64 {
        self.bb_inst_share
            .binary_search_by_key(&bb, |(b, _)| *b)
            .map(|i| self.bb_inst_share[i].1)
            .unwrap_or(0.0)
    }
}

/// Picks `k` sample warp ids evenly spread over `total` warps (Photon's
/// 1 % online sample; always at least `min` and at most `total`).
///
/// # Example
/// ```
/// let ids = photon::sample_warp_ids(1000, 0.01, 4);
/// assert_eq!(ids.len(), 10);
/// assert!(ids.windows(2).all(|w| w[0] < w[1]));
/// ```
pub fn sample_warp_ids(total: u64, fraction: f64, min: u64) -> Vec<u64> {
    if total == 0 {
        return Vec::new();
    }
    let k = ((total as f64 * fraction).ceil() as u64)
        .max(min)
        .min(total);
    let stride = total as f64 / k as f64;
    (0..k)
        .map(|i| ((i as f64 + 0.5) * stride) as u64)
        .map(|w| w.min(total - 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_isa::{BasicBlockMap, Inst};

    fn bb_map(n_blocks: usize) -> BasicBlockMap {
        let mut insts = Vec::new();
        for _ in 0..n_blocks - 1 {
            insts.push(Inst::SBarrier);
        }
        insts.push(Inst::SEndpgm);
        BasicBlockMap::from_program(&insts)
    }

    fn trace(counts: &[(u32, u32)]) -> WarpTrace {
        let insts = counts.iter().map(|&(_, c)| c as u64).sum();
        WarpTrace::from_counts(
            counts.iter().map(|&(b, c)| (BasicBlockId(b), c)).collect(),
            insts,
        )
    }

    #[test]
    fn dominant_type_detected() {
        let map = bb_map(4);
        let a = trace(&[(0, 5)]);
        let b = trace(&[(1, 5)]);
        let traces = vec![a.clone(), a.clone(), a.clone(), b];
        let oa = OnlineAnalysis::from_traces(&traces, &map).unwrap();
        assert_eq!(oa.types.len(), 2);
        assert_eq!(oa.dominant_fraction, 0.75);
        assert_eq!(oa.dominant_type(), Some(&a));
    }

    #[test]
    fn tied_types_give_one_gpu_bbv() {
        // Four types, one warp each, all of one length: a tie at every
        // place, which the type map's random iteration order must not
        // break.
        let map = bb_map(4);
        let traces: Vec<_> = (0..4).map(|b| trace(&[(b, 5)])).collect();
        let first = OnlineAnalysis::from_traces(&traces, &map).unwrap();
        for _ in 0..64 {
            let again = OnlineAnalysis::from_traces(&traces, &map).unwrap();
            assert_eq!(again.gpu_bbv, first.gpu_bbv);
            assert_eq!(again.gpu_bbv.distance(&first.gpu_bbv), 0.0);
        }
    }

    #[test]
    fn bb_shares_sum_to_one() {
        let map = bb_map(4);
        let traces = vec![trace(&[(0, 3), (1, 1)]), trace(&[(0, 1), (2, 2)])];
        let oa = OnlineAnalysis::from_traces(&traces, &map).unwrap();
        let sum: f64 = oa.bb_inst_share.iter().map(|(_, w)| w).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(oa.bb_share(BasicBlockId(0)) > oa.bb_share(BasicBlockId(1)));
        assert_eq!(oa.bb_share(BasicBlockId(3)), 0.0);
    }

    #[test]
    fn sample_ids_properties() {
        // exact 1%
        assert_eq!(sample_warp_ids(10_000, 0.01, 4).len(), 100);
        // minimum enforced
        assert_eq!(sample_warp_ids(100, 0.01, 8).len(), 8);
        // capped at total
        assert_eq!(sample_warp_ids(3, 0.01, 8).len(), 3);
        // empty launch
        assert!(sample_warp_ids(0, 0.01, 8).is_empty());
        // ids strictly within range and unique
        let ids = sample_warp_ids(1_000_000, 0.01, 4);
        assert!(ids.iter().all(|&i| i < 1_000_000));
        let mut sorted = ids.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }

    #[test]
    fn empty_traces_yield_none() {
        let map = bb_map(2);
        assert!(OnlineAnalysis::from_traces(&[], &map).is_none());
    }
}
