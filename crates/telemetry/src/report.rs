//! Machine-readable run reports: the schema every benchmark run is
//! recorded in (`results/BENCH_<app>.json`) and the regression
//! comparison used by the bench `report` tool.

use crate::accounting::{BbErrorRow, CycleAccounting};
use crate::registry::MetricsSnapshot;
use serde::{Deserialize, Serialize};

/// Version stamped into every [`RunReport`]; bump on incompatible
/// schema changes so old reports are not silently misread. Version 2
/// added cycle accounting, per-BB prediction-error rows, and histogram
/// bucket data.
pub const REPORT_SCHEMA_VERSION: u32 = 2;

/// One completed (workload, method) measurement inside a [`RunReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodRun {
    /// Sampling method (`full`, `photon`, `pka`, ...).
    pub method: String,
    /// Warps launched across the app.
    pub warps: u64,
    /// Host wall-clock seconds for the simulation.
    pub wall_secs: f64,
    /// Simulated cycles across all kernels.
    pub sim_cycles: u64,
    /// Detailed instructions per simulated cycle.
    pub ipc: f64,
    /// Instructions simulated in detailed timing mode.
    pub detailed_insts: u64,
    /// Instructions executed functionally only.
    pub functional_insts: u64,
    /// Warps that ran in detailed mode.
    pub detailed_warps: u64,
    /// Warps whose duration was predicted instead of simulated.
    pub predicted_warps: u64,
    /// Fraction of warps simulated in detail (1.0 for full detailed).
    pub sample_coverage: f64,
    /// Kernels skipped outright by kernel-level sampling.
    pub skipped_kernels: u64,
    /// Host-time speedup relative to the detailed run (0 when no
    /// detailed reference exists in the report).
    pub speedup_vs_detailed: f64,
    /// Relative cycle error vs. the detailed run (0 when no reference).
    pub error_vs_detailed: f64,
    /// Per-CU stall attribution and occupancy timeline, merged across
    /// the app's kernels (`None` when the run produced no accounting —
    /// e.g. every kernel skipped).
    pub accounting: Option<CycleAccounting>,
    /// Per-BB predicted-vs-measured error decomposition by stall class.
    pub bb_errors: Vec<BbErrorRow>,
}

/// A (workload, method) pair that did not produce a measurement, with
/// the typed error preserved (previously lost on serialization).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SkippedRun {
    /// Sampling method that was attempted.
    pub method: String,
    /// Why the harness skipped it (panic, timeout, sim error).
    pub reason: String,
    /// The typed simulator error rendered to text, when one existed
    /// (empty for panics/timeouts with no `SimError`).
    pub error: String,
}

/// The per-app benchmark report serialized to `results/BENCH_<app>.json`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Report schema version ([`REPORT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Workload name.
    pub workload: String,
    /// Completed measurements, one per method.
    pub runs: Vec<MethodRun>,
    /// Methods that failed or were skipped.
    pub skipped: Vec<SkippedRun>,
    /// Metric registry snapshot taken after the last run (empty when
    /// telemetry was not collected).
    pub metrics: MetricsSnapshot,
}

impl RunReport {
    /// A report for `workload` with the schema version filled in.
    pub fn new(workload: &str) -> Self {
        RunReport {
            schema_version: REPORT_SCHEMA_VERSION,
            workload: workload.to_string(),
            ..RunReport::default()
        }
    }

    /// The run for `method`, if it completed.
    pub fn run(&self, method: &str) -> Option<&MethodRun> {
        self.runs.iter().find(|r| r.method == method)
    }
}

/// A difference between a baseline report and a current report that the
/// `report check` tool flags.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Regression {
    /// Workload the regression is in.
    pub workload: String,
    /// Method the regression is in.
    pub method: String,
    /// What regressed, human-readable.
    pub what: String,
}

/// Compares `current` against `baseline` and returns every flagged
/// difference: methods that disappeared or started failing, and any
/// change — in either direction — of a deterministic [`MethodRun`]
/// field (`sim_cycles`, `detailed_insts`, `functional_insts`,
/// `detailed_warps`, `predicted_warps`, `skipped_kernels`). Cycle error
/// is a function of those fields, so it needs no rule of its own. Host
/// time (`wall_secs`, `speedup_vs_detailed`) is not compared: it is
/// measured and gated by the repo benchmark, on one host, in pairs.
/// An improvement is flagged too — accepting it is a visible edit of
/// the committed baseline, never a silent pass.
pub fn compare_reports(baseline: &RunReport, current: &RunReport) -> Vec<Regression> {
    let mut out = Vec::new();
    let mut flag = |method: &str, what: String| {
        out.push(Regression {
            workload: current.workload.clone(),
            method: method.to_string(),
            what,
        });
    };
    for base in &baseline.runs {
        let Some(cur) = current.run(&base.method) else {
            let detail = current
                .skipped
                .iter()
                .find(|s| s.method == base.method)
                .map(|s| format!("now skipped: {}", s.reason))
                .unwrap_or_else(|| "missing from current report".to_string());
            flag(&base.method, detail);
            continue;
        };
        for (field, was, now) in [
            ("sim_cycles", base.sim_cycles, cur.sim_cycles),
            ("detailed_insts", base.detailed_insts, cur.detailed_insts),
            (
                "functional_insts",
                base.functional_insts,
                cur.functional_insts,
            ),
            ("detailed_warps", base.detailed_warps, cur.detailed_warps),
            ("predicted_warps", base.predicted_warps, cur.predicted_warps),
            ("skipped_kernels", base.skipped_kernels, cur.skipped_kernels),
        ] {
            if was != now {
                flag(&base.method, format!("{field} {was} -> {now}"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(method: &str, error: f64, speedup: f64) -> MethodRun {
        MethodRun {
            method: method.to_string(),
            warps: 64,
            wall_secs: 0.1,
            sim_cycles: 1000,
            ipc: 1.0,
            detailed_insts: 100,
            functional_insts: 0,
            detailed_warps: 64,
            predicted_warps: 0,
            sample_coverage: 1.0,
            skipped_kernels: 0,
            speedup_vs_detailed: speedup,
            error_vs_detailed: error,
            accounting: None,
            bb_errors: Vec::new(),
        }
    }

    fn report(runs: Vec<MethodRun>) -> RunReport {
        RunReport {
            runs,
            ..RunReport::new("fir")
        }
    }

    #[test]
    fn identical_reports_and_host_time_changes_have_no_regressions() {
        let base = report(vec![run("full", 0.0, 1.0), run("photon", 0.02, 5.0)]);
        assert!(compare_reports(&base, &base).is_empty());
        // Host time is not this comparison's business.
        let mut cur = base.clone();
        cur.runs[1].wall_secs = 50.0;
        cur.runs[1].speedup_vs_detailed = 0.1;
        assert!(compare_reports(&base, &cur).is_empty());
    }

    #[test]
    fn a_changed_deterministic_field_is_flagged_in_either_direction() {
        let base = report(vec![run("full", 0.0, 1.0), run("photon", 0.02, 5.0)]);
        for cycles in [999, 1001] {
            let mut cur = base.clone();
            cur.runs[1].sim_cycles = cycles;
            let regs = compare_reports(&base, &cur);
            assert_eq!(regs.len(), 1, "{regs:?}");
            assert_eq!(regs[0].method, "photon");
            assert_eq!(regs[0].what, format!("sim_cycles 1000 -> {cycles}"));
        }
        // Each compared field is reported on its own line.
        let mut cur = base.clone();
        cur.runs[1].detailed_insts = 90;
        cur.runs[1].functional_insts = 10;
        cur.runs[1].detailed_warps = 8;
        cur.runs[1].predicted_warps = 56;
        cur.runs[1].skipped_kernels = 1;
        let whats: Vec<String> = compare_reports(&base, &cur)
            .into_iter()
            .map(|r| r.what)
            .collect();
        assert_eq!(
            whats,
            [
                "detailed_insts 100 -> 90",
                "functional_insts 0 -> 10",
                "detailed_warps 64 -> 8",
                "predicted_warps 0 -> 56",
                "skipped_kernels 0 -> 1",
            ]
        );
    }

    #[test]
    fn missing_and_now_skipped_methods_are_flagged() {
        let base = report(vec![
            run("full", 0.0, 1.0),
            run("photon", 0.02, 10.0),
            run("pka", 0.05, 8.0),
        ]);
        let mut cur = report(vec![run("full", 0.0, 1.0)]);
        cur.skipped.push(SkippedRun {
            method: "pka".to_string(),
            reason: "panicked: boom".to_string(),
            error: String::new(),
        });
        let regs = compare_reports(&base, &cur);
        assert_eq!(regs.len(), 2, "{regs:?}");
        assert_eq!(regs[0].method, "photon");
        assert_eq!(regs[0].what, "missing from current report");
        assert_eq!(regs[1].method, "pka");
        assert_eq!(regs[1].what, "now skipped: panicked: boom");
    }

    #[test]
    fn report_roundtrips_through_json() {
        let mut r = report(vec![run("full", 0.0, 0.0)]);
        r.skipped.push(SkippedRun {
            method: "sieve".to_string(),
            reason: "timed out".to_string(),
            error: "deadlock at cycle 10".to_string(),
        });
        let text = serde_json::to_string_pretty(&r).unwrap_or_default();
        let back: RunReport = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => panic!("roundtrip failed: {e}"),
        };
        assert_eq!(r, back);
        assert_eq!(back.run("full").map(|m| m.warps), Some(64));
    }
}
