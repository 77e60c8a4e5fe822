//! Benchmark run reports: produce, render, and regression-check
//! `results/BENCH_<app>.json` files.
//!
//! ```console
//! $ report smoke                    # run the smoke grid, write BENCH_smoke.json
//! $ report smoke --jobs 2           # same grid, fanned over 2 workers
//! $ report smoke --require-cached   # fail unless every Full run was a cache hit
//! $ report smoke --mem-fidelity detailed   # the detailed memory model, write BENCH_smoke_detailed.json
//! $ report show                     # table over every results/BENCH_*.json
//! $ report check                    # deterministic fields vs results/baselines/, exit 1 on any difference
//! $ report flightrec PATH           # load + verify a flight-recorder dump, print its story
//! ```

use gpu_mem::MemFidelityMode;
use gpu_telemetry::MetricsSnapshot;
use photon_bench::cli::{parse_exec_options, usage as exec_usage};
use photon_bench::harness::{results_dir, RunOutcome};
use photon_bench::report::{
    build_report, check_against_baselines, gauge_summary, histogram_summary, load_all_reports,
    summary_table, write_report,
};
use photon_bench::specs::smoke_grid;
use photon_bench::{run_specs, ExecOptions, Method};

fn usage() -> ! {
    eprintln!(
        "usage: report <smoke|show|check|flightrec PATH> [--require-cached]\n{}",
        exec_usage("report smoke", " [--require-cached]")
    );
    std::process::exit(2);
}

/// Runs the fixed smoke grid (small FIR, Full + Photon) through the
/// executor and writes `results/BENCH_smoke.json`; the Photon run's
/// events are exported to `results/TRACE_smoke.trace.json`. Under
/// `--mem-fidelity detailed` the report is workload `smoke_detailed`
/// (`results/BENCH_smoke_detailed.json`), so the two memory models sit
/// side by side and `report check` holds each to its own baseline.
///
/// Each run owns a private `Telemetry`; the report merges the
/// per-run snapshots explicitly, so concurrent runs can never bleed
/// counters into each other (the old shared-handle smoke run mixed both
/// runs' metrics into one registry).
fn smoke(mut opts: ExecOptions, require_cached: bool) {
    opts.trace_capacity = 1 << 16;
    let workload = match opts.mem_fidelity {
        Some(MemFidelityMode::Detailed) => "smoke_detailed",
        _ => "smoke",
    };
    let grid = smoke_grid();
    let report = run_specs(&grid, &opts);
    println!(
        "(smoke grid: {} specs, {} executed, {} cache hits, jobs={})",
        report.stats.total, report.stats.executed, report.stats.cache_hits, report.stats.jobs
    );
    if require_cached && report.stats.full_runs_executed > 0 {
        eprintln!(
            "error: --require-cached but {} full-detailed run(s) were re-simulated",
            report.stats.full_runs_executed
        );
        std::process::exit(1);
    }

    // Export the Photon run's trace; the detailed run's would dwarf
    // the ring with per-warp events.
    if let Some(r) = report
        .results
        .iter()
        .find(|r| r.spec.method != Method::Full)
    {
        let path = results_dir().join("TRACE_smoke.trace.json");
        match std::fs::write(&path, gpu_telemetry::export::chrome_trace_json(&r.trace)) {
            Ok(()) => println!(
                "(wrote {} — {} events, {} dropped)",
                path.display(),
                r.trace.events.len(),
                r.trace.dropped
            ),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    let mut metrics = MetricsSnapshot::default();
    for r in &report.results {
        metrics.merge(&r.metrics);
    }
    // Executor-level health metrics (abandoned threads, quarantined
    // cache entries) ride along so `report show` surfaces them.
    metrics.merge(&report.metrics);
    let mut outcomes = Vec::new();
    for r in &report.results {
        let mut outcome = r.outcome.clone();
        if let RunOutcome::Completed(m) = &mut outcome {
            m.workload = workload.to_string();
        }
        outcomes.push(outcome);
    }
    let report = build_report(workload, &outcomes, metrics);
    match write_report(&report) {
        Ok(path) => println!("(wrote {})", path.display()),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    print!("{}", summary_table(&[report]).render());
}

fn show() {
    let reports = match load_all_reports(&results_dir()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if reports.is_empty() {
        println!("no results/BENCH_*.json reports found; run `report smoke` first");
        return;
    }
    print!("{}", summary_table(&reports).render());
    let hists = histogram_summary(&reports);
    if !hists.is_empty() {
        println!();
        print!("{}", hists.render());
    }
    let health = gauge_summary(&reports);
    if !health.is_empty() {
        println!();
        print!("{}", health.render());
    }
}

fn check() {
    let reports = match load_all_reports(&results_dir()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let baseline_dir = results_dir().join("baselines");
    if !baseline_dir.exists() {
        println!(
            "no baseline directory at {}; nothing to check",
            baseline_dir.display()
        );
        return;
    }
    let regressions = check_against_baselines(&reports, &baseline_dir);
    if regressions.is_empty() {
        println!("no regressions against {}", baseline_dir.display());
        return;
    }
    for r in &regressions {
        println!("REGRESSION {} / {}: {}", r.workload, r.method, r.what);
    }
    std::process::exit(1);
}

/// Loads a flight-recorder dump (verifying its checksum frame — a
/// corrupt dump is quarantined and fails the command) and prints what
/// tripped it: trigger, job, per-phase durations, and every failed
/// span with its detail. The CI serve gate greps this output for the
/// injected fault site.
fn flightrec_show(path: &str) {
    let rec = match photon_bench::flightrec::load(std::path::Path::new(path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "flight record {} ({}) trigger={} wall={:.3}s",
        rec.job, rec.label, rec.trigger, rec.wall_secs
    );
    if !rec.detail.is_empty() {
        println!("  detail: {}", rec.detail);
    }
    println!("  spans: {}", rec.spans.len());
    for p in &rec.tree.phases {
        println!(
            "  phase {:<14} count={:<4} total={:.3}ms",
            p.phase,
            p.count,
            p.total_us as f64 / 1000.0
        );
    }
    let failed = rec.tree.failed_spans();
    if failed.is_empty() {
        println!("  no failed spans");
    }
    for s in failed {
        println!("  FAILED {} {:?}: {}", s.kind.name(), s.label, s.detail);
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_exec_options(&mut args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            usage();
        }
    };
    let require_cached = if let Some(i) = args.iter().position(|a| a == "--require-cached") {
        args.remove(i);
        true
    } else {
        false
    };
    match (args.first().map(String::as_str), args.len()) {
        (Some("smoke"), 1) => smoke(opts, require_cached),
        (Some("show"), 1) => show(),
        (Some("check"), 1) => check(),
        (Some("flightrec"), 2) => flightrec_show(&args[1]),
        _ => usage(),
    }
}
