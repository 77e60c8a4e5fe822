//! Machine-readable run reports: the schema every benchmark run is
//! recorded in (`results/BENCH_<app>.json`), assembled from harness
//! measurements, rendered, and compared for the `report` binary. Two
//! reports hold the same simulated result when [`compare_reports`]
//! finds no difference; host time is measured and gated by the repo
//! benchmark (`benchmark/README.md`).

use crate::harness::{results_dir, Measurement, RunOutcome, Table};
use crate::persist::{self, LoadError};
use crate::profile::check_report;
use gpu_telemetry::{percentile_from_buckets, MetricsSnapshot};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Version stamped into every [`RunReport`]; bump on incompatible
/// schema changes so old reports are not silently misread. Version 2
/// added cycle accounting, per-BB prediction-error rows, and histogram
/// bucket data.
pub const REPORT_SCHEMA_VERSION: u32 = 2;

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
    pub runs: Vec<Measurement>,
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
    pub fn run(&self, method: &str) -> Option<&Measurement> {
        self.runs.iter().find(|r| r.method == method)
    }

    /// The reference every run's speedup and cycle error are taken
    /// against: the `Full` run, when it simulated any cycles.
    pub fn reference(&self) -> Option<&Measurement> {
        self.run("Full").filter(|full| full.sim_cycles > 0)
    }

    /// How `method` fared in this report: `completed`, `skipped:
    /// <reason>` or `missing`.
    fn status(&self, method: &str) -> String {
        match (
            self.run(method),
            self.skipped.iter().find(|s| s.method == method),
        ) {
            (Some(_), _) => "completed".to_string(),
            (None, Some(s)) => format!("skipped: {}", s.reason),
            (None, None) => "missing".to_string(),
        }
    }
}

/// Compares `current` with `baseline` run by run, pairing runs by
/// method in both directions, and returns every difference as
/// `workload / method: what`. A method that did not complete on both
/// sides — missing from one, or skipped on either — is flagged; a pair
/// that did is held to [`Measurement::differences`], which compares
/// every field but host time. An improvement is flagged too: accepting
/// it is a visible edit of the committed baseline, never a silent pass.
pub fn compare_reports(baseline: &RunReport, current: &RunReport) -> Vec<String> {
    let mut methods: Vec<&str> = Vec::new();
    for report in [baseline, current] {
        let completed = report.runs.iter().map(|r| r.method.as_str());
        for method in completed.chain(report.skipped.iter().map(|s| s.method.as_str())) {
            if !methods.contains(&method) {
                methods.push(method);
            }
        }
    }
    let mut out = Vec::new();
    for method in methods {
        let tag = format!("{} / {method}", current.workload);
        match (baseline.run(method), current.run(method)) {
            (Some(base), Some(cur)) => out.extend(
                base.differences(cur)
                    .into_iter()
                    .map(|d| format!("{tag}: {d}")),
            ),
            _ => out.push(format!(
                "{tag}: {} -> {}",
                baseline.status(method),
                current.status(method)
            )),
        }
    }
    out
}

/// Builds the per-app report from a sweep's outcomes plus the metric
/// registry snapshot taken after the last run: each completed
/// measurement is a row as it is, each skip a [`SkippedRun`].
pub fn build_report(
    workload: &str,
    outcomes: &[RunOutcome],
    metrics: MetricsSnapshot,
) -> RunReport {
    let mut report = RunReport::new(workload);
    report.metrics = metrics;
    for out in outcomes {
        match out {
            RunOutcome::Completed(m) => report.runs.push(m.clone()),
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
    if report.schema_version != REPORT_SCHEMA_VERSION {
        return Err(format!(
            "{}: schema version {} (tool expects {REPORT_SCHEMA_VERSION})",
            path.display(),
            report.schema_version,
        ));
    }
    Ok(report)
}

/// Every `BENCH_*.json` run report in `dir` (the results directory),
/// sorted by workload. Only a file proven corrupt — its bytes fail
/// their checksum footer or are not a JSON document at all — is
/// quarantined to `<name>.corrupt`. A document that is intact but is
/// not a [`RunReport`] (the directory is shared, and the name pattern
/// is not ours alone) is some other tool's artifact: it is skipped with
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
/// trailing row per skipped run). Speedup and error are taken against
/// the report's [`RunReport::reference`], and read 0 without one.
pub fn summary_table(reports: &[RunReport]) -> Table {
    let mut t = Table::new(&[
        "workload", "method", "cycles", "IPC", "coverage", "wall (s)", "speedup", "error",
    ]);
    for r in reports {
        let full = r.reference();
        for run in &r.runs {
            t.row(vec![
                r.workload.clone(),
                run.method.clone(),
                run.sim_cycles.to_string(),
                format!("{:.3}", run.ipc()),
                format!("{:.1}%", run.sample_coverage() * 100.0),
                format!("{:.3}", run.wall_secs),
                format!("{:.2}x", full.map_or(0.0, |f| run.speedup_vs(f))),
                format!("{:.3}%", full.map_or(0.0, |f| run.error_vs(f)) * 100.0),
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

/// `report check` over the loaded `results/BENCH_*.json` reports:
/// every report must pass [`check_report`]'s accounting invariants, and
/// one with a committed baseline (`baseline_dir/BENCH_<workload>.json`)
/// must be the same simulated result ([`compare_reports`]). Returns
/// every problem found; no report at all is one, not a vacuous pass.
/// Baselines are committed inputs: one that exists but does not load is
/// flagged, and the file is never moved.
pub fn check_reports(current: &[RunReport], baseline_dir: &Path) -> Vec<String> {
    if current.is_empty() {
        return vec!["no BENCH_*.json run reports to check; run `report smoke` first".to_string()];
    }
    let mut out = Vec::new();
    for cur in current {
        out.extend(check_report(cur));
        let base_path = baseline_dir.join(format!("BENCH_{}.json", cur.workload));
        if !base_path.exists() {
            continue;
        }
        match load_report(&base_path) {
            Ok(base) => out.extend(compare_reports(&base, cur)),
            Err(e) => out.push(format!("{}: unreadable baseline: {e}", cur.workload)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_telemetry::{BbErrorRow, CuAccounting, CycleAccounting};

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
            // Balanced: every resident warp-cycle issued.
            accounting: Some(CycleAccounting {
                cycles,
                window: 64,
                cus: vec![CuAccounting {
                    classes: [cycles, 0, 0, 0, 0, 0, 0, 0],
                    resident_warp_cycles: cycles,
                }],
                ..CycleAccounting::default()
            }),
            bb_errors: vec![BbErrorRow {
                kernel: "fir".into(),
                instances: 1,
                ..BbErrorRow::default()
            }],
        }
    }

    /// The rendered summary row of `method`, split into its cells.
    fn summary_row(report: &RunReport, method: &str) -> Vec<String> {
        let rendered = summary_table(std::slice::from_ref(report)).render();
        let line = rendered
            .lines()
            .find(|l| l.split_whitespace().nth(1) == Some(method))
            .unwrap_or_else(|| panic!("no {method} row in\n{rendered}"));
        line.split_whitespace().map(String::from).collect()
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
        assert_eq!(report.schema_version, REPORT_SCHEMA_VERSION);
        // Each completed measurement is a row as it is.
        assert_eq!(
            report.runs,
            [meas("Full", 1000, 2.0), meas("Photon", 950, 0.5)]
        );
        assert_eq!(report.reference().map(|m| m.wall_secs), Some(2.0));

        // IPC, coverage, wall, speedup and error, derived at render time.
        assert_eq!(
            summary_row(&report, "Full")[3..],
            ["5.000", "100.0%", "2.000", "1.00x", "0.000%"]
        );
        assert_eq!(
            summary_row(&report, "Photon")[3..],
            ["5.000", "10.0%", "0.500", "4.00x", "5.000%"]
        );

        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].error, "Deadlock { cycle: 10 }");
    }

    #[test]
    fn report_without_full_reference_reports_zero_comparisons() {
        let outcomes = vec![RunOutcome::Completed(meas("Photon", 950, 0.5))];
        let report = build_report("fir", &outcomes, MetricsSnapshot::default());
        assert!(report.reference().is_none());
        assert_eq!(summary_row(&report, "Photon")[6..], ["0.00x", "0.000%"]);
        // A Full run that simulated no cycles is no reference either.
        let mut idle = report.clone();
        idle.runs.push(meas("Full", 0, 2.0));
        assert!(idle.reference().is_none());
        assert_eq!(summary_row(&idle, "Photon")[6..], ["0.00x", "0.000%"]);
    }

    /// A row with the fields `compare_reports` checks set to round,
    /// distinct values.
    fn run(method: &str) -> Measurement {
        Measurement {
            warps: 64,
            wall_secs: 0.1,
            detailed_insts: 100,
            detailed_warps: 64,
            predicted_warps: 0,
            ..meas(method, 1000, 0.1)
        }
    }

    fn report(runs: Vec<Measurement>) -> RunReport {
        RunReport {
            runs,
            ..RunReport::new("fir")
        }
    }

    #[test]
    fn identical_reports_and_host_time_changes_have_no_regressions() {
        let base = report(vec![run("full"), run("photon")]);
        assert!(compare_reports(&base, &base).is_empty());
        // Host time is not this comparison's business.
        let mut cur = base.clone();
        cur.runs[1].wall_secs = 50.0;
        assert!(compare_reports(&base, &cur).is_empty());
    }

    #[test]
    fn a_changed_deterministic_field_is_flagged_in_either_direction() {
        let base = report(vec![run("full"), run("photon")]);
        for cycles in [999, 1001] {
            let mut cur = base.clone();
            cur.runs[1].sim_cycles = cycles;
            assert_eq!(
                compare_reports(&base, &cur),
                [format!("fir / photon: sim_cycles 1000 -> {cycles}")]
            );
        }
        // Each compared field is reported on its own line.
        let mut cur = base.clone();
        cur.runs[1].detailed_insts = 90;
        cur.runs[1].functional_insts = 10;
        cur.runs[1].detailed_warps = 8;
        cur.runs[1].predicted_warps = 56;
        cur.runs[1].skipped_kernels = 1;
        assert_eq!(
            compare_reports(&base, &cur),
            [
                "fir / photon: detailed_insts 100 -> 90",
                "fir / photon: functional_insts 0 -> 10",
                "fir / photon: detailed_warps 64 -> 8",
                "fir / photon: predicted_warps 0 -> 56",
                "fir / photon: skipped_kernels 0 -> 1",
            ]
        );
    }

    #[test]
    fn missing_and_now_skipped_methods_are_flagged() {
        let skip = |method: &str| SkippedRun {
            method: method.to_string(),
            reason: "panicked: boom".to_string(),
            error: String::new(),
        };
        let mut base = report(vec![run("full"), run("photon"), run("pka")]);
        base.skipped.push(skip("sieve"));
        let mut cur = report(vec![run("full"), run("tbpoint")]);
        cur.skipped.push(skip("pka"));
        cur.skipped.push(skip("sieve"));
        // Runs pair by method in both directions: one that is new in
        // the current report is flagged as surely as one that went
        // missing, and a method skipped on both sides is no pass.
        assert_eq!(
            compare_reports(&base, &cur),
            [
                "fir / photon: completed -> missing",
                "fir / pka: completed -> skipped: panicked: boom",
                "fir / sieve: skipped: panicked: boom -> skipped: panicked: boom",
                "fir / tbpoint: missing -> completed",
            ]
        );
    }

    #[test]
    fn report_roundtrips_through_json() {
        let mut r = report(vec![Measurement {
            kernel_cycles: vec![400, 600],
            ..run("full")
        }]);
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
        assert_eq!(
            back.run("full").map(|m| m.kernel_cycles.as_slice()),
            Some(&[400, 600][..])
        );
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
        // Another tool's artifact shares the name pattern but not the
        // schema: intact, not ours, so it must survive the listing.
        persist::atomic_write_framed(
            &dir.join("BENCH_other.json"),
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
                "BENCH_other.json",
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

        let regs = check_reports(std::slice::from_ref(&report), &dir);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(
            regs[0].starts_with("fir: unreadable baseline: "),
            "{regs:?}"
        );
        assert_eq!(names_in(&dir), ["BENCH_fir.json"]);

        // Restored, the same baseline compares clean; a workload with
        // no baseline at all is ignored.
        std::fs::write(dir.join("BENCH_fir.json"), &text).unwrap();
        let mut other = report.clone();
        other.workload = "spmv".into();
        assert!(check_reports(&[report.clone(), other], &dir).is_empty());

        // Against the baseline, a changed count fails; so does a report
        // that breaks the accounting invariants with no baseline at all,
        // and so does finding no report to check.
        let mut moved = report.clone();
        moved.runs[0].sim_cycles += 1;
        assert_eq!(
            check_reports(&[moved], &dir),
            ["fir / Full: sim_cycles 1000 -> 1001"]
        );
        let mut unbalanced = report;
        unbalanced.workload = "spmv".into();
        unbalanced.runs[0].accounting.as_mut().unwrap().cus[0].resident_warp_cycles += 1;
        let regs = check_reports(&[unbalanced], &dir);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].starts_with("spmv / Full: cu 0:"), "{regs:?}");
        assert_eq!(check_reports(&[], &dir).len(), 1);
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
