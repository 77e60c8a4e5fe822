//! Nsight-style cycle-accounting profiles over run reports, as `report
//! show REPORT` and `report diff` print them: stall-class breakdowns,
//! occupancy timelines, per-BB prediction-error tables, the memory
//! signature of a report pair, and the accounting invariants that
//! `report check` and `report diff` hold every report to (stall classes
//! sum to resident warp-cycles, and every non-skipping run carries
//! per-BB attribution).

use crate::harness::{Measurement, Table};
use crate::report::RunReport;
use gpu_telemetry::{
    percentile_from_buckets, BbErrorRow, CycleAccounting, HistogramSnapshot, StallClass,
};

/// Number of worst-offender BB rows shown per run.
const TOP_BBS: usize = 8;

fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", part as f64 / whole as f64 * 100.0)
    }
}

/// The stall-class breakdown of one run: warp-cycles per class and the
/// share of resident warp-cycles, one row per class plus a totals row.
pub fn stall_table(workload: &str, run: &Measurement, acct: &CycleAccounting) -> Table {
    let mut t = Table::new(&["workload", "method", "stall class", "warp-cycles", "share"]);
    let totals = acct.totals();
    let resident = acct.resident_warp_cycles();
    for class in StallClass::ALL {
        let v = totals[class.index()];
        t.row(vec![
            workload.to_string(),
            run.method.clone(),
            class.name().to_string(),
            v.to_string(),
            pct(v, resident),
        ]);
    }
    t.row(vec![
        workload.to_string(),
        run.method.clone(),
        "resident total".to_string(),
        resident.to_string(),
        pct(totals.iter().sum(), resident),
    ]);
    t
}

/// One-line occupancy summary from the stall timeline: mean and peak
/// resident warps plus the busy share (windows with any residency).
pub fn occupancy_summary(acct: &CycleAccounting) -> String {
    if acct.timeline.is_empty() {
        return "occupancy: no timeline windows".to_string();
    }
    let warps: Vec<f64> = acct
        .timeline
        .iter()
        .map(|w| w.resident_warps(acct.window))
        .collect();
    let mean = warps.iter().sum::<f64>() / warps.len() as f64;
    let peak = warps.iter().cloned().fold(0.0f64, f64::max);
    let busy = warps.iter().filter(|&&w| w > 0.0).count();
    format!(
        "occupancy: mean {:.1} warps, peak {:.1} warps over {} windows of {} cycles ({} busy)",
        mean,
        peak,
        acct.timeline.len(),
        acct.window,
        busy
    )
}

/// Absolute predicted-vs-measured cycle impact of one BB row: how many
/// total cycles the prediction error accounts for across its instances.
fn impact(row: &BbErrorRow) -> f64 {
    (row.delta * row.instances as f64).abs()
}

/// The per-BB error table for one run: rows sorted by absolute cycle
/// impact (`|delta × instances|`), truncated to the worst [`TOP_BBS`]
/// with the dominant stall class of each block's measured cycles.
pub fn bb_error_table(workload: &str, run: &Measurement) -> Table {
    let mut t = Table::new(&[
        "workload",
        "method",
        "kernel",
        "bb",
        "instances",
        "measured",
        "predicted",
        "delta",
        "impact",
        "top stall",
    ]);
    let mut rows: Vec<&BbErrorRow> = run.bb_errors.iter().collect();
    rows.sort_by(|a, b| {
        impact(b)
            .partial_cmp(&impact(a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for row in rows.into_iter().take(TOP_BBS) {
        let top = StallClass::ALL
            .iter()
            .max_by_key(|c| row.stall[c.index()])
            .filter(|c| row.stall[c.index()] > 0)
            .map_or("-", |c| c.name());
        t.row(vec![
            workload.to_string(),
            run.method.clone(),
            row.kernel.clone(),
            row.bb.to_string(),
            row.instances.to_string(),
            format!("{:.2}", row.measured_mean),
            format!("{:.2}", row.predicted_mean),
            format!("{:+.2}", row.delta),
            format!("{:.0}", impact(row)),
            top.to_string(),
        ]);
    }
    t
}

/// Renders the full profile of one report: per run, the stall table,
/// the occupancy summary, and the worst-BB error table.
pub fn render_report(report: &RunReport) -> String {
    let mut out = String::new();
    for run in &report.runs {
        let Some(acct) = &run.accounting else {
            out.push_str(&format!(
                "{} / {}: no accounting data\n",
                report.workload, run.method
            ));
            continue;
        };
        out.push_str(&stall_table(&report.workload, run, acct).render());
        out.push_str(&format!(
            "{} / {}: {}\n",
            report.workload,
            run.method,
            occupancy_summary(acct)
        ));
        let bbs = bb_error_table(&report.workload, run);
        if !bbs.is_empty() {
            out.push_str(&bbs.render());
        }
        out.push('\n');
    }
    out
}

/// Renders the memory-model signature of a base→current report pair:
/// per method, the `mem_pending` / `mem_queue_full` shares of resident
/// warp-cycles, and per hierarchy level the queue-delay p50/p95 from
/// the published `mem.<level>.queue_delay` histograms, recomputed from
/// their log2 buckets (as [`crate::report::histogram_summary`] does), so
/// reports that stored percentiles under an older rule compare on one
/// definition. This is the review artifact for memory-model changes:
/// `report diff` prints it before its verdict, so a fidelity change's
/// stall-share footprint is visible in CI logs.
pub fn mem_signature(base: &RunReport, cur: &RunReport) -> String {
    let share = |run: &Measurement, class: StallClass| -> String {
        match &run.accounting {
            Some(a) => pct(a.totals()[class.index()], a.resident_warp_cycles()),
            None => "-".to_string(),
        }
    };
    let mut t = Table::new(&[
        "workload",
        "method",
        "mem_pending",
        "mem_queue_full",
        "(base -> cur)",
    ]);
    for cur_run in &cur.runs {
        let base_run = base.runs.iter().find(|r| r.method == cur_run.method);
        let fmt = |class: StallClass| {
            format!(
                "{} -> {}",
                base_run.map_or("-".to_string(), |r| share(r, class)),
                share(cur_run, class)
            )
        };
        t.row(vec![
            cur.workload.clone(),
            cur_run.method.clone(),
            fmt(StallClass::MemPending),
            fmt(StallClass::MemQueueFull),
            String::new(),
        ]);
    }
    let mut out = t.render();
    let mut q = Table::new(&[
        "queue-delay histogram",
        "count",
        "p50",
        "p95",
        "(base -> cur)",
    ]);
    for h in &cur.metrics.histograms {
        if !h.name.ends_with(".queue_delay") {
            continue;
        }
        let b = base.metrics.histograms.iter().find(|x| x.name == h.name);
        let col = |f: fn(&HistogramSnapshot) -> u64| {
            format!(
                "{} -> {}",
                b.map_or("-".to_string(), |x| f(x).to_string()),
                f(h)
            )
        };
        q.row(vec![
            h.name.clone(),
            col(|x| x.count),
            col(|x| percentile_from_buckets(&x.buckets, x.count, 0.50)),
            col(|x| percentile_from_buckets(&x.buckets, x.count, 0.95)),
            String::new(),
        ]);
    }
    if !q.is_empty() {
        out.push_str(&q.render());
    }
    out
}

/// Validates a report's accounting data for `report check` and `report
/// diff`:
///
/// - every run carrying accounting satisfies the stall-sum invariant
///   ([`CycleAccounting::check`]) and accounts a nonzero residency;
/// - every run that simulated cycles without skipping all its kernels
///   carries accounting and a non-empty per-BB attribution (predicting
///   *and* IPC-extrapolating methods both produce rows). A row written
///   before reports kept `kernel_cycles` counts as one kernel.
///
/// Returns the list of violations (empty = pass).
pub fn check_report(report: &RunReport) -> Vec<String> {
    let mut problems = Vec::new();
    for run in &report.runs {
        let tag = format!("{} / {}", report.workload, run.method);
        match &run.accounting {
            Some(acct) => {
                if let Err(e) = acct.check() {
                    problems.push(format!("{tag}: {e}"));
                }
                if acct.is_empty() {
                    problems.push(format!("{tag}: accounting present but empty"));
                }
                if run.bb_errors.is_empty() && run.detailed_insts > 0 {
                    problems.push(format!(
                        "{tag}: detailed instructions but no per-BB attribution"
                    ));
                }
            }
            None if run.sim_cycles > 0 && run.skipped_kernels < run.kernel_cycles.len().max(1) => {
                problems.push(format!("{tag}: simulated cycles but no accounting"));
            }
            None => {}
        }
    }
    if report.runs.iter().all(|r| r.accounting.is_none()) && !report.runs.is_empty() {
        problems.push(format!("{}: no run carries accounting", report.workload));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::compare_reports;
    use gpu_telemetry::{CuAccounting, StallWindow, STALL_CLASSES};

    fn acct(classes: [u64; STALL_CLASSES]) -> CycleAccounting {
        CycleAccounting {
            cycles: 100,
            window: 64,
            cus: vec![CuAccounting {
                classes,
                resident_warp_cycles: classes.iter().sum(),
            }],
            timeline: vec![
                StallWindow { start: 0, classes },
                StallWindow {
                    start: 64,
                    classes: [0; STALL_CLASSES],
                },
            ],
            shards: Vec::new(),
        }
    }

    fn run(method: &str, acct: Option<CycleAccounting>, bb_errors: Vec<BbErrorRow>) -> Measurement {
        Measurement {
            workload: "fir".into(),
            warps: 64,
            method: method.into(),
            sim_cycles: 100,
            wall_secs: 1.0,
            detailed_insts: if bb_errors.is_empty() { 0 } else { 100 },
            functional_insts: 0,
            detailed_warps: 64,
            predicted_warps: 0,
            skipped_kernels: 0,
            kernel_cycles: vec![100],
            accounting: acct,
            bb_errors,
        }
    }

    fn bb_row(bb: u32, delta: f64, instances: u64) -> BbErrorRow {
        BbErrorRow {
            kernel: "fir".into(),
            bb,
            instances,
            insts: instances * 8,
            measured_cycles: instances * 10,
            measured_mean: 10.0,
            predicted_mean: 10.0 + delta,
            delta,
            stall: [2, 0, 8, 0, 0, 0, 0, 0],
        }
    }

    fn report(runs: Vec<Measurement>) -> RunReport {
        let mut r = RunReport::new("fir");
        r.runs = runs;
        r
    }

    #[test]
    fn stall_table_shows_shares() {
        let a = acct([50, 0, 30, 0, 0, 0, 20, 0]);
        let r = run("full", Some(a.clone()), vec![]);
        let rendered = stall_table("fir", &r, &a).render();
        assert!(rendered.contains("issued"), "{rendered}");
        assert!(rendered.contains("50.0%"), "{rendered}");
        assert!(rendered.contains("mem_pending"), "{rendered}");
        assert!(rendered.contains("resident total"), "{rendered}");
        assert!(rendered.contains("100.0%"), "{rendered}");
    }

    #[test]
    fn occupancy_summary_reads_timeline() {
        let s = occupancy_summary(&acct([64, 0, 64, 0, 0, 0, 0, 0]));
        // 128 warp-cycles in the first 64-cycle window = 2 warps; second
        // window is empty, so the mean is 1.0 and the peak 2.0.
        assert!(s.contains("mean 1.0"), "{s}");
        assert!(s.contains("peak 2.0"), "{s}");
        assert!(s.contains("1 busy"), "{s}");
        assert_eq!(
            occupancy_summary(&CycleAccounting::default()),
            "occupancy: no timeline windows"
        );
    }

    #[test]
    fn bb_error_table_sorts_by_impact() {
        // bb 1 has a small per-instance delta but many instances; its
        // total impact (0.5 × 1000 = 500) beats bb 2's (3.0 × 10 = 30).
        let r = run(
            "photon",
            Some(acct([10, 0, 0, 0, 0, 0, 0, 0])),
            vec![bb_row(2, 3.0, 10), bb_row(1, -0.5, 1000)],
        );
        let rendered = bb_error_table("fir", &r).render();
        let bb1 = rendered.find("-0.50").unwrap();
        let bb2 = rendered.find("+3.00").unwrap();
        assert!(bb1 < bb2, "highest-impact row first:\n{rendered}");
        assert!(rendered.contains("mem_pending"), "{rendered}");
    }

    #[test]
    fn render_report_covers_runs_without_accounting() {
        let rep = report(vec![
            run("full", Some(acct([10, 0, 0, 0, 0, 0, 0, 0])), vec![]),
            run("sieve", None, vec![]),
        ]);
        let s = render_report(&rep);
        assert!(s.contains("resident total"), "{s}");
        assert!(s.contains("fir / sieve: no accounting data"), "{s}");
    }

    #[test]
    fn diff_flags_cycle_drift() {
        let base = report(vec![run(
            "full",
            Some(acct([90, 0, 10, 0, 0, 0, 0, 0])),
            vec![],
        )]);
        assert!(compare_reports(&base, &base).is_empty());
        // One cycle in either direction is a different result: there is
        // no tolerance.
        for cycles in [101, 99] {
            let mut cur = base.clone();
            cur.runs[0].sim_cycles = cycles;
            assert_eq!(
                compare_reports(&base, &cur),
                [format!("fir / full: sim_cycles 100 -> {cycles}")]
            );
        }
    }

    #[test]
    fn diff_flags_grown_stall_share() {
        let base = report(vec![run(
            "photon",
            Some(acct([90, 0, 10, 0, 0, 0, 0, 0])),
            vec![],
        )]);
        // One warp-cycle moved between two classes leaves every count
        // and sum in place; it is still a different result, whichever
        // way it moves (issued growing is no exception).
        let moved = |from: StallClass, to: StallClass| {
            let mut cur = base.clone();
            let cu = &mut cur.runs[0].accounting.as_mut().unwrap().cus[0];
            cu.classes[from.index()] -= 1;
            cu.classes[to.index()] += 1;
            cur
        };
        let cur = moved(StallClass::Issued, StallClass::MemPending);
        assert!(check_report(&cur).is_empty());
        let flagged = compare_reports(&base, &cur);
        assert_eq!(
            flagged[..2],
            [
                "fir / photon: accounting.issued 90 -> 89",
                "fir / photon: accounting.mem_pending 10 -> 11",
            ]
        );
        assert!(
            flagged[2].starts_with("fir / photon: accounting.cus[0] "),
            "{flagged:?}"
        );
        let cur = moved(StallClass::MemPending, StallClass::Issued);
        assert_eq!(compare_reports(&base, &cur).len(), 3);
    }

    #[test]
    fn mem_signature_shows_share_movement_and_queue_percentiles() {
        let base = report(vec![run(
            "photon",
            Some(acct([80, 0, 15, 5, 0, 0, 0, 0])),
            vec![],
        )]);
        let mut cur = report(vec![run(
            "photon",
            Some(acct([60, 0, 20, 20, 0, 0, 0, 0])),
            vec![],
        )]);
        let reg = gpu_telemetry::Registry::default();
        reg.histogram("mem.l2.queue_delay").record_n(100, 10);
        cur.metrics.histograms = reg.snapshot().histograms;
        let s = mem_signature(&base, &cur);
        assert!(s.contains("mem_pending"), "{s}");
        assert!(s.contains("15.0% -> 20.0%"), "{s}");
        assert!(s.contains("5.0% -> 20.0%"), "{s}");
        assert!(s.contains("mem.l2.queue_delay"), "{s}");
        // Base has no histogram; the movement column degrades to "-".
        assert!(s.contains("- -> 10"), "{s}");
        // A method missing from the base still renders.
        let lone = report(vec![run("pka", None, vec![])]);
        let s2 = mem_signature(&report(vec![]), &lone);
        assert!(s2.contains("pka"), "{s2}");
        assert!(s2.contains("- -> -"), "{s2}");
    }

    #[test]
    fn mem_signature_recomputes_percentiles_from_buckets() {
        let reg = gpu_telemetry::Registry::default();
        reg.histogram("mem.l1v.queue_delay").record_n(40, 10);
        let mut base = report(vec![]);
        base.metrics.histograms = reg.snapshot().histograms;
        let mut cur = base.clone();
        // Same buckets, stored percentiles from an older rule.
        base.metrics.histograms[0].p50 = 32;
        base.metrics.histograms[0].p95 = 32;
        let p = percentile_from_buckets(&cur.metrics.histograms[0].buckets, 10, 0.5);
        cur.metrics.histograms[0].p50 = p + 1;
        let s = mem_signature(&base, &cur);
        let row = s
            .lines()
            .find(|l| l.contains("mem.l1v.queue_delay"))
            .unwrap();
        assert_eq!(
            row.split_whitespace().collect::<Vec<_>>(),
            [
                "mem.l1v.queue_delay",
                "10",
                "->",
                "10",
                &p.to_string(),
                "->",
                &p.to_string(),
                &p.to_string(),
                "->",
                &p.to_string()
            ],
            "{s}"
        );
    }

    #[test]
    fn check_passes_balanced_report_and_flags_violations() {
        let good = report(vec![run(
            "full",
            Some(acct([50, 0, 50, 0, 0, 0, 0, 0])),
            vec![bb_row(0, 0.1, 10)],
        )]);
        assert!(check_report(&good).is_empty());

        // Unbalanced CU: stall classes no longer sum to residency.
        let mut broken = good.clone();
        broken.runs[0].accounting.as_mut().unwrap().cus[0].resident_warp_cycles += 7;
        let problems = check_report(&broken);
        assert!(problems.iter().any(|p| p.contains("delta")), "{problems:?}");

        // Detailed instructions but empty per-BB attribution.
        let mut missing_bbs = good.clone();
        missing_bbs.runs[0].bb_errors.clear();
        let problems = check_report(&missing_bbs);
        assert!(
            problems.iter().any(|p| p.contains("per-BB")),
            "{problems:?}"
        );

        // A run that simulated cycles without any accounting at all.
        let no_acct = report(vec![run("full", None, vec![])]);
        let problems = check_report(&no_acct);
        assert!(!problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn check_demands_accounting_unless_every_kernel_was_skipped() {
        let skipping = |skipped_kernels| {
            let mut r = run("pka", None, vec![]);
            r.kernel_cycles = vec![60, 0, 40];
            r.skipped_kernels = skipped_kernels;
            // A sibling with accounting, so only the skipping row is judged.
            report(vec![
                run("full", Some(acct([50, 0, 50, 0, 0, 0, 0, 0])), vec![]),
                r,
            ])
        };
        // One of three kernels skipped: the other two ran, so cycles
        // without accounting are a violation.
        let problems = check_report(&skipping(1));
        assert_eq!(
            problems,
            ["fir / pka: simulated cycles but no accounting"],
            "{problems:?}"
        );
        // All three skipped: nothing was resident, nothing to account.
        assert!(check_report(&skipping(3)).is_empty());
        // A legacy row (no kernel_cycles) keeps the old rule: any skip
        // excuses it, none does not.
        let mut legacy = skipping(1);
        legacy.runs[1].kernel_cycles.clear();
        assert!(check_report(&legacy).is_empty());
        legacy.runs[1].skipped_kernels = 0;
        assert_eq!(check_report(&legacy).len(), 1);
    }
}
