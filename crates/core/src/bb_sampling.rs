//! Basic-block sampling (paper §4.1, Figure 7).
//!
//! During detailed simulation the sampler watches every basic-block
//! record through a per-block [`RollingStability`] detector. The share
//! of kernel instructions (from the online 1 % sample) attributed to
//! currently-stable blocks is the *stable rate*; once it exceeds the
//! threshold (95 %), remaining warps are functionally simulated and
//! their durations predicted as the sum of their blocks' mean stable
//! times — rare blocks fall back to the interval model of Figure 9.

use crate::analysis::OnlineAnalysis;
use crate::config::PhotonConfig;
use crate::interval::{predict_block_interval, LatencyTable};
use crate::ls::RollingStability;
use gpu_isa::Program;
use gpu_sim::{BbRecord, Cycle, WarpTrace};

/// Per-kernel basic-block sampling state.
#[derive(Debug)]
pub struct BbSampler {
    /// Per-block stability detector (index = block id).
    detectors: Vec<RollingStability>,
    /// Per-block instruction share from online analysis.
    shares: Vec<f64>,
    /// Cached stability flags.
    stable: Vec<bool>,
    /// Instruction-weighted share of currently stable blocks.
    stable_share: f64,
    /// Share threshold to trigger (e.g. 0.95).
    trigger_rate: f64,
    /// Blocks under this share don't need to stabilize (rare blocks).
    rare_share: f64,
    /// Total share of non-rare blocks (the denominator of the rate).
    significant_share: f64,
    records_seen: u64,
}

impl BbSampler {
    /// Creates the sampler for a kernel with `bb_count` blocks.
    pub fn new(bb_count: usize, analysis: &OnlineAnalysis, cfg: &PhotonConfig) -> Self {
        let mut shares = vec![0.0f64; bb_count];
        for (bb, share) in &analysis.bb_inst_share {
            if bb.index() < bb_count {
                shares[bb.index()] = *share;
            }
        }
        let significant_share: f64 = shares.iter().filter(|&&s| s >= cfg.rare_bb_share).sum();
        BbSampler {
            detectors: (0..bb_count)
                .map(|_| RollingStability::new(cfg.bb_window, cfg.delta))
                .collect(),
            stable: vec![false; bb_count],
            shares,
            stable_share: 0.0,
            trigger_rate: cfg.stable_bb_rate,
            rare_share: cfg.rare_bb_share,
            significant_share,
            records_seen: 0,
        }
    }

    /// Feeds one basic-block record (cycles should be rebased to the
    /// kernel start for numerical stability).
    pub fn on_record(&mut self, rec: &BbRecord) {
        let i = rec.bb.index();
        if i >= self.detectors.len() {
            return;
        }
        self.records_seen += 1;
        self.detectors[i].push(rec.start as f64, rec.end as f64);
        let now_stable = self.detectors[i].is_stable();
        if now_stable != self.stable[i] {
            let share = self.shares[i];
            if share >= self.rare_share {
                if now_stable {
                    self.stable_share += share;
                } else {
                    self.stable_share -= share;
                }
            }
            self.stable[i] = now_stable;
        }
    }

    /// The current stable rate: stable share over significant share.
    pub fn stable_rate(&self) -> f64 {
        if self.significant_share <= 0.0 {
            0.0
        } else {
            (self.stable_share / self.significant_share).clamp(0.0, 1.0)
        }
    }

    /// Whether basic-block sampling should take over.
    pub fn is_triggered(&self) -> bool {
        self.records_seen > 0 && self.stable_rate() >= self.trigger_rate
    }

    /// Records observed so far.
    pub fn records_seen(&self) -> u64 {
        self.records_seen
    }

    /// The current per-block mean-duration estimates (diagnostics).
    pub fn mean_durations(&self) -> Vec<(usize, Option<f64>, u64)> {
        self.detectors
            .iter()
            .enumerate()
            .map(|(i, d)| (i, d.mean_duration(), d.len()))
            .collect()
    }

    /// Predicts a warp's duration from its functional trace: the sum of
    /// per-block mean times, with the interval model covering blocks
    /// that never produced online timings (rare blocks).
    pub fn predict_warp(
        &self,
        trace: &WarpTrace,
        program: &Program,
        table: &LatencyTable,
    ) -> Cycle {
        let bb_map = program.basic_blocks();
        let mut total = 0.0f64;
        for &(bb, count) in &trace.bb_counts {
            let i = bb.index();
            let per_exec = self
                .detectors
                .get(i)
                .and_then(|d| d.mean_duration())
                .unwrap_or_else(|| {
                    let block = bb_map.block(bb);
                    predict_block_interval(program, block.start_pc, block.len, table)
                });
            total += per_exec * count as f64;
        }
        total.round().max(1.0) as Cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_isa::{BasicBlockId, BasicBlockMap, Inst};
    use gpu_sim::WarpTrace;

    fn analysis_with_shares(shares: &[(u32, f64)], map: &BasicBlockMap) -> OnlineAnalysis {
        // Build via a synthetic trace that reproduces the desired shares
        // (all blocks have len 1 in the barrier program).
        let counts: Vec<(BasicBlockId, u32)> = shares
            .iter()
            .map(|&(b, s)| (BasicBlockId(b), (s * 1000.0) as u32))
            .collect();
        let insts = counts.iter().map(|(_, c)| *c as u64).sum();
        let t = WarpTrace::from_counts(counts, insts);
        OnlineAnalysis::from_traces(&[t], map).unwrap()
    }

    fn barrier_map(n: usize) -> BasicBlockMap {
        let mut insts = Vec::new();
        for _ in 0..n - 1 {
            insts.push(Inst::SBarrier);
        }
        insts.push(Inst::SEndpgm);
        BasicBlockMap::from_program(&insts)
    }

    fn cfg(window: usize) -> PhotonConfig {
        PhotonConfig::default().small_windows(window, window)
    }

    fn rec(bb: u32, start: u64, end: u64) -> BbRecord {
        BbRecord {
            warp: 0,
            bb: BasicBlockId(bb),
            start,
            end,
            insts: 1,
        }
    }

    #[test]
    fn triggers_when_dominant_block_stabilizes() {
        let map = barrier_map(3);
        let oa = analysis_with_shares(&[(0, 0.990), (1, 0.009), (2, 0.001)], &map);
        let c = cfg(16);
        let mut s = BbSampler::new(3, &oa, &c);
        assert!(!s.is_triggered());
        for i in 0..64u64 {
            s.on_record(&rec(0, i * 100, i * 100 + 40));
        }
        assert!(s.is_triggered(), "rate = {}", s.stable_rate());
    }

    #[test]
    fn unstable_durations_do_not_trigger() {
        let map = barrier_map(2);
        let oa = analysis_with_shares(&[(0, 0.99), (1, 0.01)], &map);
        let c = cfg(16);
        let mut s = BbSampler::new(2, &oa, &c);
        for i in 0..64u64 {
            // duration grows with time: slope far from 1
            s.on_record(&rec(0, i * 100, i * 100 + 40 + i * 50));
        }
        assert!(!s.is_triggered(), "rate = {}", s.stable_rate());
    }

    #[test]
    fn rare_blocks_do_not_block_trigger() {
        // dominant block stable, a rare one never seen at all
        let map = barrier_map(3);
        let oa = analysis_with_shares(&[(0, 0.999), (2, 0.001)], &map);
        let c = cfg(8);
        let mut s = BbSampler::new(3, &oa, &c);
        for i in 0..32u64 {
            s.on_record(&rec(0, i * 10, i * 10 + 7));
        }
        assert!(s.is_triggered());
    }

    #[test]
    fn prediction_sums_block_times() {
        let map = barrier_map(2);
        let oa = analysis_with_shares(&[(0, 0.5), (1, 0.5)], &map);
        let c = cfg(8);
        let mut s = BbSampler::new(2, &oa, &c);
        for i in 0..32u64 {
            s.on_record(&rec(0, i * 100, i * 100 + 30));
            s.on_record(&rec(1, i * 100, i * 100 + 70));
        }
        // trace: bb0 x2, bb1 x1 → 2*30 + 70 = 130
        let program = {
            let insts = vec![Inst::SBarrier, Inst::SEndpgm];
            Program::from_insts("t", insts).unwrap()
        };
        let trace = WarpTrace::from_counts(vec![(BasicBlockId(0), 2), (BasicBlockId(1), 1)], 3);
        let p = s.predict_warp(&trace, &program, &LatencyTable::new());
        assert_eq!(p, 130);
    }

    #[test]
    fn unseen_block_uses_interval_model() {
        let program = Program::from_insts("t", vec![Inst::SBarrier, Inst::SEndpgm]).unwrap();
        let map = program.basic_blocks().clone();
        let oa = analysis_with_shares(&[(0, 1.0)], &map);
        let c = cfg(8);
        let s = BbSampler::new(2, &oa, &c);
        // no records at all: prediction must still be positive
        let trace = WarpTrace::from_counts(vec![(BasicBlockId(1), 1)], 1);
        let p = s.predict_warp(&trace, &program, &LatencyTable::new());
        assert!(p >= 1);
    }

    #[test]
    fn destabilization_lowers_rate() {
        let map = barrier_map(2);
        let oa = analysis_with_shares(&[(0, 1.0)], &map);
        let c = cfg(8);
        let mut s = BbSampler::new(2, &oa, &c);
        for i in 0..32u64 {
            s.on_record(&rec(0, i * 10, i * 10 + 5));
        }
        assert!(s.is_triggered());
        // level shift destabilizes the mean check: with window 8, the
        // recent window is now all at the new level while the previous
        // window still holds the old level
        for i in 32..40u64 {
            s.on_record(&rec(0, i * 10, i * 10 + 500));
        }
        assert!(!s.is_triggered());
    }
}
