//! Assembling harness measurements into machine-readable
//! [`RunReport`]s (`results/BENCH_<app>.json`) and rendering them /
//! checking them against committed baselines for the `report` binary.
//! The check compares deterministic quantities only (see
//! [`gpu_telemetry::compare_reports`]); host time is measured and gated
//! by the repo benchmark (`benchmark/README.md`).

use crate::harness::{results_dir, Measurement, RunOutcome, Table};
use crate::persist::{self, LoadError};
use gpu_telemetry::{
    compare_reports, percentile_from_buckets, MethodRun, MetricsSnapshot, Regression, RunReport,
    SkippedRun,
};
use serde::Deserialize;
use std::path::{Path, PathBuf};

/// Converts one measurement into a [`MethodRun`], computing speedup and
/// cycle error against `detailed` (the full-detailed reference) when one
/// exists.
pub fn method_run(m: &Measurement, detailed: Option<&Measurement>) -> MethodRun {
    let (speedup, error) = match detailed {
        Some(full) if full.sim_cycles > 0 => (m.speedup_vs(full), m.error_vs(full)),
        _ => (0.0, 0.0),
    };
    MethodRun {
        method: m.method.clone(),
        warps: m.warps,
        wall_secs: m.wall_secs,
        sim_cycles: m.sim_cycles,
        ipc: if m.sim_cycles == 0 {
            0.0
        } else {
            m.detailed_insts as f64 / m.sim_cycles as f64
        },
        detailed_insts: m.detailed_insts,
        functional_insts: m.functional_insts,
        detailed_warps: m.detailed_warps,
        predicted_warps: m.predicted_warps,
        sample_coverage: if m.warps == 0 {
            1.0
        } else {
            m.detailed_warps as f64 / m.warps as f64
        },
        skipped_kernels: m.skipped_kernels as u64,
        speedup_vs_detailed: speedup,
        error_vs_detailed: error,
        accounting: m.accounting.clone(),
        bb_errors: m.bb_errors.clone(),
    }
}

/// Builds the per-app report from a sweep's outcomes plus the metric
/// registry snapshot taken after the last run. The `Full` measurement
/// (when present) is the reference for every run's speedup and error —
/// including its own row, which reports speedup 1.0 and error 0.0.
pub fn build_report(
    workload: &str,
    outcomes: &[RunOutcome],
    metrics: MetricsSnapshot,
) -> RunReport {
    let detailed = outcomes
        .iter()
        .filter_map(RunOutcome::measurement)
        .find(|m| m.method == "Full");
    let mut report = RunReport::new(workload);
    report.metrics = metrics;
    for out in outcomes {
        match out {
            RunOutcome::Completed(m) => report.runs.push(method_run(m, detailed)),
            RunOutcome::Skipped {
                method,
                reason,
                error,
                ..
            } => report.skipped.push(SkippedRun {
                method: method.clone(),
                reason: reason.clone(),
                error: error.clone().unwrap_or_default(),
            }),
        }
    }
    report
}

/// The canonical path of a report: `results/BENCH_<workload>.json`.
pub fn report_path(workload: &str) -> PathBuf {
    results_dir().join(format!("BENCH_{workload}.json"))
}

/// Writes a report to its canonical path (atomically, with a checksum
/// footer), returning the path.
///
/// # Errors
/// Returns a rendered I/O or serialization error.
pub fn write_report(report: &RunReport) -> Result<PathBuf, String> {
    let path = report_path(&report.workload);
    let text = serde_json::to_string_pretty(report).map_err(|e| e.to_string())?;
    persist::atomic_write_framed(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Reads a report back from disk, verifying its checksum footer when
/// present (reports from before the framing load unverified). A pure
/// read: whatever is wrong with the file, it stays where it is —
/// callers pass committed baselines and user-named paths here.
///
/// # Errors
/// Returns a rendered I/O, checksum, parse, or schema-version error.
pub fn load_report(path: &Path) -> Result<RunReport, String> {
    let doc = persist::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_report(path, &doc.payload)
}

/// Reads an intact JSON document as a [`RunReport`] of this tool's
/// schema version; `path` only labels the error.
fn parse_report(path: &Path, doc: &serde_json::Value) -> Result<RunReport, String> {
    let report = RunReport::deserialize(doc).map_err(|e| format!("{}: {e}", path.display()))?;
    if report.schema_version != gpu_telemetry::REPORT_SCHEMA_VERSION {
        return Err(format!(
            "{}: schema version {} (tool expects {})",
            path.display(),
            report.schema_version,
            gpu_telemetry::REPORT_SCHEMA_VERSION
        ));
    }
    Ok(report)
}

/// Every `BENCH_*.json` run report in `dir` (the results directory),
/// sorted by workload. Only a file proven corrupt — its bytes fail
/// their checksum footer or are not a JSON document at all — is
/// quarantined to `<name>.corrupt`. A document that is intact but is
/// not a [`RunReport`] (`photon-loadgen`'s `BENCH_serve*.json` share
/// the name pattern) is some other tool's artifact: it is skipped with
/// a note and left where it lies.
///
/// # Errors
/// Returns an error only when the directory itself is unreadable.
pub fn load_all_reports(dir: &Path) -> Result<Vec<RunReport>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let path = entry.path();
        match persist::load(&path) {
            Ok(doc) => match parse_report(&path, &doc.payload) {
                Ok(r) => out.push(r),
                Err(e) => eprintln!("note: not a run report, skipped: {e}"),
            },
            Err(LoadError::Corrupt(e)) => {
                persist::quarantine(&path);
                eprintln!("warning: quarantined report: {}: {e}", path.display());
            }
            Err(e) => eprintln!("warning: skipping report: {}: {e}", path.display()),
        }
    }
    out.sort_by(|a, b| a.workload.cmp(&b.workload));
    Ok(out)
}

/// Renders reports as a summary table (one row per completed run, one
/// trailing row per skipped run).
pub fn summary_table(reports: &[RunReport]) -> Table {
    let mut t = Table::new(&[
        "workload", "method", "cycles", "IPC", "coverage", "wall (s)", "speedup", "error",
    ]);
    for r in reports {
        for run in &r.runs {
            t.row(vec![
                r.workload.clone(),
                run.method.clone(),
                run.sim_cycles.to_string(),
                format!("{:.3}", run.ipc),
                format!("{:.1}%", run.sample_coverage * 100.0),
                format!("{:.3}", run.wall_secs),
                format!("{:.2}x", run.speedup_vs_detailed),
                format!("{:.3}%", run.error_vs_detailed * 100.0),
            ]);
        }
        for s in &r.skipped {
            t.row(vec![
                r.workload.clone(),
                s.method.clone(),
                "skipped".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                s.reason.clone(),
            ]);
        }
    }
    t
}

/// Renders every histogram carried by the reports' metric snapshots as
/// one summary line per histogram: count, mean, and p50/p95/p99
/// recomputed from the persisted log2 bucket counts. Reports whose
/// snapshot has no histograms contribute nothing.
pub fn histogram_summary(reports: &[RunReport]) -> Table {
    let mut t = Table::new(&[
        "workload",
        "histogram",
        "count",
        "mean",
        "p50",
        "p95",
        "p99",
        "max",
    ]);
    for r in reports {
        for h in &r.metrics.histograms {
            if h.count == 0 {
                continue;
            }
            t.row(vec![
                r.workload.clone(),
                h.name.clone(),
                h.count.to_string(),
                format!("{:.1}", h.mean),
                percentile_from_buckets(&h.buckets, h.count, 0.50).to_string(),
                percentile_from_buckets(&h.buckets, h.count, 0.95).to_string(),
                percentile_from_buckets(&h.buckets, h.count, 0.99).to_string(),
                h.max.to_string(),
            ]);
        }
    }
    t
}

/// `engine.epoch.imbalance` (max/mean shard busy-cycles) above this
/// ratio earns a warning row in [`gauge_summary`]: the busiest shard is
/// doing more than twice the average work, so epoch barriers wait on a
/// straggler.
pub const IMBALANCE_WARN_RATIO: f64 = 2.0;

/// Renders every counter and gauge carried by the reports' metric
/// snapshots that describes executor health — abandoned worker threads,
/// quarantined cache entries, watchdog aborts, refused IPC aborts,
/// timing-engine shard load (`engine.shard.<i>.busy_cycles`), epoch
/// imbalance, and detailed-fidelity memory health (per-bank L2 queue
/// occupancy peaks, DRAM row-buffer hit rate) — so `report show`
/// surfaces leaks, guardrail activity, lopsided shard partitions, and
/// memory-model contention. Zero-valued entries are kept: "0 abandoned
/// threads" is the healthy reading, not noise.
pub fn gauge_summary(reports: &[RunReport]) -> Table {
    const HEALTH: &[&str] = &[
        "exec.abandoned_threads",
        "exec.cancelled",
        "refcache.evicted",
        "refcache.quarantined",
        "sim.watchdog.aborts",
        "sim.ipc_abort.refused",
        "engine.epochs",
        "mem.dram.row_hit_rate",
    ];
    // Per-instance metric families are matched on prefix: shard and
    // L2-bank counts depend on the machine config, so the names cannot
    // be enumerated statically.
    const HEALTH_PREFIXES: &[&str] = &["engine.shard.", "engine.epoch.", "mem.l2.bank."];
    let is_health =
        |name: &str| HEALTH.contains(&name) || HEALTH_PREFIXES.iter().any(|p| name.starts_with(p));
    let mut t = Table::new(&["workload", "metric", "value"]);
    for r in reports {
        for g in &r.metrics.gauges {
            if is_health(&g.name) {
                t.row(vec![
                    r.workload.clone(),
                    g.name.clone(),
                    format!("{:.2}", g.value),
                ]);
                // The imbalance gauge is max/mean shard busy-cycles; a
                // raw number invites misreading, so interpret it: past
                // the warning ratio, one shard is doing more than twice
                // the average work and epoch barriers are dominated by
                // that straggler.
                if g.name == "engine.epoch.imbalance" && g.value > IMBALANCE_WARN_RATIO {
                    t.row(vec![
                        r.workload.clone(),
                        "  WARNING".to_string(),
                        format!(
                            "shard imbalance {:.2} > {IMBALANCE_WARN_RATIO}x mean busy-cycles; epoch barriers are straggler-bound",
                            g.value
                        ),
                    ]);
                }
            }
        }
        for c in &r.metrics.counters {
            if is_health(&c.name) {
                t.row(vec![
                    r.workload.clone(),
                    c.name.clone(),
                    c.value.to_string(),
                ]);
            }
        }
    }
    t
}

/// Checks every current report that has a stored baseline
/// (`results/baselines/BENCH_<workload>.json`) and returns the flagged
/// differences. Reports without a baseline are ignored. Baselines are
/// committed inputs: one that exists but does not load is itself a
/// flagged regression, and the file is never moved.
pub fn check_against_baselines(current: &[RunReport], baseline_dir: &Path) -> Vec<Regression> {
    let mut out = Vec::new();
    for cur in current {
        let base_path = baseline_dir.join(format!("BENCH_{}.json", cur.workload));
        if !base_path.exists() {
            continue;
        }
        match load_report(&base_path) {
            Ok(base) => out.extend(compare_reports(&base, cur)),
            Err(e) => out.push(Regression {
                workload: cur.workload.clone(),
                method: "-".to_string(),
                what: format!("unreadable baseline: {e}"),
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meas(method: &str, cycles: u64, wall: f64) -> Measurement {
        Measurement {
            workload: "fir".into(),
            warps: 100,
            method: method.into(),
            sim_cycles: cycles,
            wall_secs: wall,
            detailed_insts: 5 * cycles,
            functional_insts: 0,
            detailed_warps: if method == "Full" { 100 } else { 10 },
            predicted_warps: if method == "Full" { 0 } else { 90 },
            skipped_kernels: 0,
            kernel_cycles: vec![cycles],
            accounting: None,
            bb_errors: vec![],
        }
    }

    #[test]
    fn report_computes_speedup_and_error_vs_full() {
        let outcomes = vec![
            RunOutcome::Completed(meas("Full", 1000, 2.0)),
            RunOutcome::Completed(meas("Photon", 950, 0.5)),
            RunOutcome::Skipped {
                workload: "fir".into(),
                method: "PKA".into(),
                reason: "simulation error: deadlock".into(),
                error: Some("Deadlock { cycle: 10 }".into()),
                failure: crate::harness::FailureKind::Permanent,
            },
        ];
        let report = build_report("fir", &outcomes, MetricsSnapshot::default());
        assert_eq!(report.schema_version, gpu_telemetry::REPORT_SCHEMA_VERSION);

        let full = report.run("Full").unwrap();
        assert_eq!(full.speedup_vs_detailed, 1.0);
        assert_eq!(full.error_vs_detailed, 0.0);
        assert_eq!(full.sample_coverage, 1.0);

        let photon = report.run("Photon").unwrap();
        assert!((photon.speedup_vs_detailed - 4.0).abs() < 1e-12);
        assert!((photon.error_vs_detailed - 0.05).abs() < 1e-12);
        assert!((photon.sample_coverage - 0.1).abs() < 1e-12);

        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].error, "Deadlock { cycle: 10 }");
    }

    #[test]
    fn report_without_full_reference_reports_zero_comparisons() {
        let outcomes = vec![RunOutcome::Completed(meas("Photon", 950, 0.5))];
        let report = build_report("fir", &outcomes, MetricsSnapshot::default());
        let photon = report.run("Photon").unwrap();
        assert_eq!(photon.speedup_vs_detailed, 0.0);
        assert_eq!(photon.error_vs_detailed, 0.0);
    }

    /// A fresh, empty temp directory unique to `tag` and this process.
    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("photon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The names in `dir`, sorted.
    fn names_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn load_all_reports_skips_foreign_artifacts_and_quarantines_only_checksum_failures() {
        let dir = temp_dir("reports");
        let report = build_report(
            "fir",
            &[RunOutcome::Completed(meas("Full", 1000, 2.0))],
            MetricsSnapshot::default(),
        );
        let text = serde_json::to_string(&report).unwrap();
        persist::atomic_write_framed(&dir.join("BENCH_fir.json"), &text).unwrap();
        // photon-loadgen's report shares the name pattern but not the
        // schema: intact, not ours, so it must survive the listing.
        persist::atomic_write_framed(
            &dir.join("BENCH_serve.json"),
            r#"{"schema_version":1,"clients":4,"cold":{"p50_ms":9.5}}"#,
        )
        .unwrap();
        // A run report whose content no longer matches its footer is
        // proven corrupt: that one is quarantined.
        let framed = persist::frame(&text).replace("\"fir\"", "\"fit\"");
        std::fs::write(dir.join("BENCH_torn.json"), framed).unwrap();
        // So is one cut short with no footer left to convict it: what
        // remains is no JSON document, of this tool's or anyone's.
        std::fs::write(dir.join("BENCH_cut.json"), &text[..text.len() / 2]).unwrap();

        let loaded = load_all_reports(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].workload, "fir");
        assert_eq!(
            names_in(&dir),
            [
                "BENCH_cut.json.corrupt",
                "BENCH_fir.json",
                "BENCH_serve.json",
                "BENCH_torn.json.corrupt"
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unreadable_baseline_is_a_regression_and_stays_in_place() {
        let dir = temp_dir("baselines");
        let report = build_report(
            "fir",
            &[RunOutcome::Completed(meas("Full", 1000, 2.0))],
            MetricsSnapshot::default(),
        );
        let text = serde_json::to_string_pretty(&report).unwrap();
        // A baseline cut short, as a bad merge or a partial checkout
        // leaves it.
        std::fs::write(dir.join("BENCH_fir.json"), &text[..text.len() / 2]).unwrap();

        let regs = check_against_baselines(std::slice::from_ref(&report), &dir);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(
            regs[0].what.starts_with("unreadable baseline: "),
            "{regs:?}"
        );
        assert_eq!(names_in(&dir), ["BENCH_fir.json"]);

        // Restored, the same baseline compares clean; a workload with
        // no baseline at all is ignored.
        std::fs::write(dir.join("BENCH_fir.json"), &text).unwrap();
        let mut other = report.clone();
        other.workload = "spmv".into();
        assert!(check_against_baselines(&[report, other], &dir).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn histogram_summary_recomputes_percentiles_from_buckets() {
        use gpu_telemetry::Telemetry;
        let tel = Telemetry::default();
        let h = tel.histogram("mem.queue_delay");
        for v in [1u64, 1, 2, 4, 8, 100] {
            h.record(v);
        }
        let mut report = build_report(
            "fir",
            &[RunOutcome::Completed(meas("Full", 1000, 2.0))],
            tel.snapshot(),
        );
        let rendered = histogram_summary(std::slice::from_ref(&report)).render();
        assert!(rendered.contains("mem.queue_delay"), "{rendered}");
        assert!(rendered.contains("p95"), "{rendered}");
        // Empty histograms are elided entirely.
        report.metrics.histograms.clear();
        assert!(histogram_summary(std::slice::from_ref(&report)).is_empty());
    }

    #[test]
    fn gauge_summary_surfaces_engine_shard_metrics() {
        let tel = gpu_telemetry::Telemetry::default();
        tel.counter("engine.shard.0.busy_cycles").add(400);
        tel.counter("engine.shard.1.busy_cycles").add(100);
        tel.counter("engine.epochs").add(12);
        tel.gauge("engine.epoch.imbalance").set(1.6);
        tel.gauge("mem.dram.row_hit_rate").set(0.75);
        tel.gauge("mem.l2.bank.3.peak_queue").set(9.0);
        tel.counter("sim.unrelated.metric").add(1);
        let report = build_report(
            "vgg",
            &[RunOutcome::Completed(meas("Full", 1000, 2.0))],
            tel.snapshot(),
        );
        let rendered = gauge_summary(std::slice::from_ref(&report)).render();
        assert!(
            rendered.contains("engine.shard.0.busy_cycles"),
            "{rendered}"
        );
        assert!(
            rendered.contains("engine.shard.1.busy_cycles"),
            "{rendered}"
        );
        assert!(rendered.contains("engine.epochs"), "{rendered}");
        assert!(rendered.contains("engine.epoch.imbalance"), "{rendered}");
        assert!(rendered.contains("1.60"), "{rendered}");
        assert!(rendered.contains("mem.dram.row_hit_rate"), "{rendered}");
        assert!(rendered.contains("mem.l2.bank.3.peak_queue"), "{rendered}");
        assert!(!rendered.contains("unrelated"), "{rendered}");
        // 1.6 is under the warning ratio: no interpretation row.
        assert!(!rendered.contains("WARNING"), "{rendered}");
    }

    #[test]
    fn gauge_summary_warns_on_epoch_imbalance_past_the_ratio() {
        let tel = gpu_telemetry::Telemetry::default();
        tel.gauge("engine.epoch.imbalance").set(3.4);
        let report = build_report(
            "vgg",
            &[RunOutcome::Completed(meas("Full", 1000, 2.0))],
            tel.snapshot(),
        );
        let rendered = gauge_summary(std::slice::from_ref(&report)).render();
        assert!(rendered.contains("WARNING"), "{rendered}");
        assert!(rendered.contains("straggler"), "{rendered}");
        assert!(rendered.contains("3.40"), "{rendered}");
    }

    #[test]
    fn summary_table_includes_skips() {
        let outcomes = vec![
            RunOutcome::Completed(meas("Full", 1000, 2.0)),
            RunOutcome::Skipped {
                workload: "fir".into(),
                method: "PKA".into(),
                reason: "timed out after 1.0s".into(),
                error: None,
                failure: crate::harness::FailureKind::Transient,
            },
        ];
        let report = build_report("fir", &outcomes, MetricsSnapshot::default());
        let rendered = summary_table(&[report]).render();
        assert!(rendered.contains("Full"));
        assert!(rendered.contains("timed out"));
    }
}
