//! The Photon controller (paper §4): the multi-tiered composition of
//! kernel-, warp-, and basic-block-sampling with purely online analysis.
//!
//! Per kernel:
//! 1. Trace a 1 % warp sample (copy-on-write, no side effects) and build
//!    the online analysis (warp types, block distribution, GPU BBV).
//! 2. If kernel-sampling is enabled and a prior kernel matches, skip the
//!    kernel with a predicted time.
//! 3. Otherwise start detailed simulation with the basic-block and warp
//!    detectors running concurrently. Basic-block-sampling switches in
//!    when the stable-block rate crosses its threshold; warp-sampling
//!    (which is faster, needing no functional execution) takes over
//!    whenever its criteria are met, even from basic-block-sampling.
//! 4. Photon falls back to full detailed simulation when nothing
//!    stabilizes.

use crate::analysis::{sample_warp_ids, OnlineAnalysis};
use crate::bb_sampling::BbSampler;
use crate::config::PhotonConfig;
use crate::interval::LatencyTable;
use crate::kernel_sampling::{KernelHistory, KernelRecord};
use crate::warp_sampling::WarpSampler;
use gpu_isa::{InstClass, Program};
use gpu_sim::{
    BbRecord, Cycle, KernelDirective, KernelResult, KernelStartAccess, SamplingController,
    WarpRecord, WarpTrace, WgMode,
};
use gpu_telemetry::faults::{self, FaultSite};
use gpu_telemetry::{Counter, EventKind, Telemetry, Trace, TraceEvent};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One diagnostic row per basic block: `(block index, records, slope,
/// stable, instruction share)`.
pub type BbDetectorRow = (usize, u64, Option<f64>, bool, f64);

/// Counters describing what Photon did across a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhotonStats {
    /// Kernels launched.
    pub kernels: u64,
    /// Kernels skipped by kernel-sampling.
    pub kernels_skipped: u64,
    /// Kernels that switched to basic-block-sampling.
    pub bb_switches: u64,
    /// Kernels that switched to warp-sampling.
    pub warp_switches: u64,
    /// Kernels that ran fully detailed (no level triggered).
    pub full_detailed: u64,
}

/// Registry mirrors of [`PhotonStats`] plus the decision-event trace
/// handle. Starts against a private registry so a bare controller works
/// in tests; `attach_telemetry` swaps in the engine's shared handle
/// before every launch.
struct PhotonTelemetry {
    trace: Trace,
    kernels: Counter,
    kernels_skipped: Counter,
    bb_switches: Counter,
    warp_switches: Counter,
    full_detailed: Counter,
}

impl PhotonTelemetry {
    fn new(tel: &Telemetry) -> Self {
        PhotonTelemetry {
            trace: tel.trace().clone(),
            kernels: tel.counter("photon.kernels"),
            kernels_skipped: tel.counter("photon.kernels.skipped"),
            bb_switches: tel.counter("photon.bb_switches"),
            warp_switches: tel.counter("photon.warp_switches"),
            full_detailed: tel.counter("photon.full_detailed"),
        }
    }

    /// Emits a `ControllerDecision` event; `detail` is only rendered
    /// when tracing is active.
    fn decision(&self, ts: Cycle, decision: &str, detail: impl FnOnce() -> String) {
        self.trace.emit_with(|| TraceEvent {
            ts,
            dur: 0,
            kind: EventKind::ControllerDecision {
                controller: "photon".to_string(),
                decision: decision.to_string(),
                detail: detail(),
            },
        });
    }
}

impl Default for PhotonTelemetry {
    fn default() -> Self {
        Self::new(&Telemetry::default())
    }
}

struct KernelState {
    program: Arc<Program>,
    analysis: OnlineAnalysis,
    bb_sampler: BbSampler,
    warp_sampler: WarpSampler,
    mode: WgMode,
    kernel_start: Option<Cycle>,
    switched_bb: bool,
    switched_warp: bool,
}

/// The Photon sampled-simulation controller.
///
/// # Example
/// ```no_run
/// use gpu_sim::{GpuConfig, GpuSimulator};
/// use photon::{PhotonConfig, PhotonController};
/// # let launch: gpu_isa::KernelLaunch = unimplemented!();
/// let mut gpu = GpuSimulator::new(GpuConfig::r9_nano());
/// let mut photon = PhotonController::new(PhotonConfig::default(), 64);
/// let result = gpu.run_kernel_sampled(&launch, &mut photon).unwrap();
/// println!("sampled fraction: {}", result.sampled_fraction());
/// ```
pub struct PhotonController {
    cfg: PhotonConfig,
    num_cus: u64,
    history: KernelHistory,
    table: LatencyTable,
    state: Option<KernelState>,
    stats: PhotonStats,
    tel: PhotonTelemetry,
    /// Analyses in launch order (exported for offline reuse).
    recorded_analyses: Vec<OnlineAnalysis>,
    /// Pre-recorded analyses consumed instead of tracing (offline mode).
    offline_analyses: Option<Vec<OnlineAnalysis>>,
    offline_cursor: usize,
    last_bb_stats: Option<Vec<BbDetectorRow>>,
    last_bb_means: Option<Vec<(usize, Option<f64>, u64)>>,
}

impl std::fmt::Debug for PhotonController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhotonController")
            .field("stats", &self.stats)
            .field("history_len", &self.history.records().len())
            .finish_non_exhaustive()
    }
}

impl PhotonController {
    /// Creates a controller for a GPU with `num_cus` compute units.
    pub fn new(cfg: PhotonConfig, num_cus: u64) -> Self {
        PhotonController {
            cfg,
            num_cus,
            history: KernelHistory::new(),
            table: LatencyTable::new(),
            state: None,
            stats: PhotonStats::default(),
            tel: PhotonTelemetry::default(),
            recorded_analyses: Vec::new(),
            offline_analyses: None,
            offline_cursor: 0,
            last_bb_stats: None,
            last_bb_means: None,
        }
    }

    /// Creates a controller that reuses previously exported analyses
    /// (paper §6.3 "Online/Offline Tradeoff") instead of re-tracing.
    pub fn with_offline(cfg: PhotonConfig, num_cus: u64, analyses: Vec<OnlineAnalysis>) -> Self {
        let mut c = Self::new(cfg, num_cus);
        c.offline_analyses = Some(analyses);
        c
    }

    /// What Photon did so far.
    pub fn stats(&self) -> PhotonStats {
        self.stats
    }

    /// The kernel history accumulated so far.
    pub fn history(&self) -> &KernelHistory {
        &self.history
    }

    /// Exports the per-kernel analyses (micro-architecture agnostic)
    /// for offline reuse.
    pub fn export_analyses(&self) -> &[OnlineAnalysis] {
        &self.recorded_analyses
    }

    /// Diagnostic view of the current kernel's basic-block detectors
    /// (`(block, records, slope, stable, share)` rows), if a kernel is
    /// in flight.
    pub fn bb_detector_stats(&self) -> Option<Vec<BbDetectorRow>> {
        self.state.as_ref().map(|s| s.bb_sampler.detector_stats())
    }

    /// The current kernel's stable-block rate, if a kernel is in flight.
    pub fn bb_stable_rate(&self) -> Option<f64> {
        self.state.as_ref().map(|s| s.bb_sampler.stable_rate())
    }

    /// Detector stats snapshot taken when the last kernel finished.
    pub fn last_bb_detector_stats(&self) -> Option<&[BbDetectorRow]> {
        self.last_bb_stats.as_deref()
    }

    /// Mean-duration snapshot taken when the last kernel finished.
    pub fn last_bb_means(&self) -> Option<&[(usize, Option<f64>, u64)]> {
        self.last_bb_means.as_deref()
    }

    /// Traces the online sample, returning `None` (= fall back to
    /// detailed simulation) when a sample warp faults or the launch has
    /// nothing to sample.
    fn obtain_analysis(&mut self, ctx: &mut dyn KernelStartAccess) -> Option<OnlineAnalysis> {
        if let Some(pre) = &self.offline_analyses {
            if let Some(a) = pre.get(self.offline_cursor) {
                self.offline_cursor += 1;
                return Some(a.clone());
            }
        }
        let total = ctx.total_warps();
        let ids = sample_warp_ids(total, self.cfg.sample_fraction, self.cfg.min_sample_warps);
        let mut traces: Vec<WarpTrace> = Vec::with_capacity(ids.len());
        for &w in &ids {
            match ctx.trace_warp(w) {
                Ok(t) => traces.push(t),
                Err(e) => {
                    eprintln!(
                        "photon: online analysis of kernel `{}` failed tracing warp {w}: {e}; \
                         falling back to detailed simulation",
                        ctx.launch().kernel.name()
                    );
                    return None;
                }
            }
        }
        let bb_map = ctx.launch().kernel.program().basic_blocks();
        OnlineAnalysis::from_traces(&traces, bb_map)
    }
}

impl SamplingController for PhotonController {
    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.tel = PhotonTelemetry::new(telemetry);
    }

    fn on_kernel_start(&mut self, ctx: &mut dyn KernelStartAccess) -> KernelDirective {
        self.stats.kernels += 1;
        self.tel.kernels.inc();
        let clock = ctx.clock();
        let Some(analysis) = self.obtain_analysis(ctx) else {
            // No usable sample: run fully detailed. With no KernelState,
            // dispatch_mode stays Detailed and on_kernel_end records
            // nothing, so a bad kernel cannot poison the history.
            self.state = None;
            self.stats.full_detailed += 1;
            self.tel.full_detailed.inc();
            self.tel.decision(clock, "fallback-detailed", || {
                "online analysis failed; simulating fully detailed".to_string()
            });
            return KernelDirective::Simulate;
        };
        self.recorded_analyses.push(analysis.clone());
        let total_warps = ctx.total_warps();
        let launch = ctx.launch();
        let program = Arc::clone(launch.kernel.program());

        if self.cfg.levels.kernel {
            if let Some(m) = self.history.find_match(
                &analysis.gpu_bbv,
                total_warps,
                self.num_cus,
                self.cfg.kernel_distance,
            ) {
                let scaled_sample =
                    (analysis.insts_per_warp * (analysis.sampled_warps as f64)).round() as u64;
                let mut p = self.history.predict(m, scaled_sample);
                // The controller.zero_cycle fault degenerates the
                // prediction right where the guardrail below must
                // catch it (no-op unless faults are configured).
                if faults::active()
                    && faults::should_inject(
                        FaultSite::ControllerZeroCycle,
                        gpu_isa::fnv1a(launch.kernel.name().as_bytes()),
                    )
                {
                    p.cycles = 0;
                }
                if p.cycles > 0 {
                    self.stats.kernels_skipped += 1;
                    self.tel.kernels_skipped.inc();
                    self.tel.decision(clock, "kernel-skip", || {
                        format!("matched history entry {m}; predicted {} cycles", p.cycles)
                    });
                    // Record this instance too, so later launches can
                    // match the closest warp count.
                    let ipc = self.history.records()[m].ipc;
                    self.history.push(KernelRecord {
                        name: launch.kernel.name().to_string(),
                        gpu_bbv: analysis.gpu_bbv.clone(),
                        total_warps,
                        sample_insts: analysis.sample_insts,
                        est_total_insts: analysis.insts_per_warp * total_warps as f64,
                        cycles: p.cycles,
                        ipc,
                    });
                    self.state = None;
                    return KernelDirective::Skip {
                        predicted_cycles: p.cycles,
                        functional_replay: self.cfg.functional_replay,
                    };
                }
                // A degenerate prediction (matched kernel had no
                // measurable cycles) would skip the kernel for free and
                // corrupt the clock; simulate in detail instead.
                eprintln!(
                    "photon: kernel `{}` matched history entry with zero predicted \
                     cycles; simulating in detail instead of skipping",
                    launch.kernel.name()
                );
                self.tel.decision(clock, "skip-refused", || {
                    "history match predicted zero cycles; simulating in detail".to_string()
                });
            }
        }

        let bb_count = program.basic_blocks().len();
        self.state = Some(KernelState {
            bb_sampler: BbSampler::new(bb_count, &analysis, &self.cfg),
            warp_sampler: WarpSampler::new(&analysis, &self.cfg),
            analysis,
            program,
            mode: WgMode::Detailed,
            kernel_start: None,
            switched_bb: false,
            switched_warp: false,
        });
        KernelDirective::Simulate
    }

    fn dispatch_mode(&mut self) -> WgMode {
        self.state.as_ref().map_or(WgMode::Detailed, |s| s.mode)
    }

    fn on_bb_record(&mut self, rec: &BbRecord) {
        let Some(st) = self.state.as_mut() else {
            return;
        };
        let base = *st.kernel_start.get_or_insert(rec.start);
        let rebased = BbRecord {
            start: rec.start.saturating_sub(base),
            end: rec.end.saturating_sub(base),
            ..*rec
        };
        st.bb_sampler.on_record(&rebased);
        if self.cfg.levels.bb && st.mode == WgMode::Detailed && st.bb_sampler.is_triggered() {
            st.mode = WgMode::BbSampled;
            if !st.switched_bb {
                st.switched_bb = true;
                self.stats.bb_switches += 1;
                self.tel.bb_switches.inc();
                let rate = st.bb_sampler.stable_rate();
                self.tel.decision(rec.end, "switch-bb", || {
                    format!("stable-block rate {rate:.2} crossed threshold")
                });
            }
        }
    }

    fn on_warp_retire(&mut self, rec: &WarpRecord) {
        let Some(st) = self.state.as_mut() else {
            return;
        };
        let base = *st.kernel_start.get_or_insert(rec.issue);
        let rebased = WarpRecord {
            issue: rec.issue.saturating_sub(base),
            retire: rec.retire.saturating_sub(base),
            ..*rec
        };
        st.warp_sampler.on_warp(&rebased);
        if self.cfg.levels.warp && st.mode != WgMode::WarpSampled && st.warp_sampler.is_triggered()
        {
            st.mode = WgMode::WarpSampled;
            if !st.switched_warp {
                st.switched_warp = true;
                self.stats.warp_switches += 1;
                self.tel.warp_switches.inc();
                self.tel.decision(rec.retire, "switch-warp", || {
                    "warp-sampling criteria met".to_string()
                });
            }
        }
    }

    fn on_inst_retire(&mut self, class: InstClass, latency: Cycle) {
        self.table.observe(class, latency);
    }

    fn predict_warp_bb(&mut self, trace: &WarpTrace) -> Cycle {
        let Some(st) = self.state.as_ref() else {
            return 1;
        };
        st.bb_sampler.predict_warp(trace, &st.program, &self.table)
    }

    fn predict_warp_avg(&mut self) -> Cycle {
        self.state.as_ref().map_or(1, |s| s.warp_sampler.predict())
    }

    fn on_kernel_end(&mut self, result: &KernelResult) {
        if result.skipped {
            return;
        }
        let Some(st) = self.state.take() else { return };
        self.last_bb_stats = Some(st.bb_sampler.detector_stats());
        self.last_bb_means = Some(st.bb_sampler.mean_durations());
        if !st.switched_bb && !st.switched_warp {
            self.stats.full_detailed += 1;
            self.tel.full_detailed.inc();
            self.tel.decision(
                result.start_cycle.saturating_add(result.cycles),
                "full-detailed",
                || "no sampling level triggered".to_string(),
            );
        }
        let est_total_insts = st.analysis.insts_per_warp * result.total_warps as f64;
        let ipc = if result.cycles > 0 {
            est_total_insts / result.cycles as f64
        } else {
            0.0
        };
        self.history.push(KernelRecord {
            name: result.name.clone(),
            gpu_bbv: st.analysis.gpu_bbv.clone(),
            total_warps: result.total_warps,
            sample_insts: st.analysis.sample_insts,
            est_total_insts,
            cycles: result.cycles,
            ipc,
        });
    }

    fn bb_predictions(&mut self) -> Vec<(u32, f64)> {
        // Published from the BB-sampler means captured at kernel end, so
        // the engine can pair the predictions against its measured
        // per-BB timing for the error decomposition in run reports.
        self.last_bb_means
            .as_deref()
            .unwrap_or(&[])
            .iter()
            .filter_map(|&(bb, mean, _count)| mean.map(|m| (bb as u32, m)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Levels;

    #[test]
    fn stats_start_zeroed() {
        let c = PhotonController::new(PhotonConfig::default(), 64);
        assert_eq!(c.stats(), PhotonStats::default());
        assert!(c.history().records().is_empty());
    }

    #[test]
    fn dispatch_mode_defaults_to_detailed() {
        let mut c = PhotonController::new(PhotonConfig::with_levels(Levels::none()), 64);
        assert_eq!(c.dispatch_mode(), WgMode::Detailed);
        assert_eq!(c.predict_warp_avg(), 1);
    }
}
