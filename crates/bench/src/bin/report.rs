//! Benchmark run reports: produce, render, check and compare
//! `results/BENCH_<app>.json` files.
//!
//! ```console
//! $ report smoke                    # run the smoke grid, write BENCH_smoke.json
//! $ report smoke --jobs 2           # same grid, fanned over 2 workers
//! $ report smoke --require-cached   # fail unless every Full run was a cache hit
//! $ report smoke --mem-fidelity detailed   # the detailed memory model, write BENCH_smoke_detailed.json
//! $ report show                     # table over every results/BENCH_*.json
//! $ report show REPORT              # stall tables, occupancy, worst BBs of one report
//! $ report check                    # every BENCH_*.json: invariants, and same result as its baseline
//! $ report diff BASE CURRENT        # memory signature; exit 1 unless the same simulated result
//! $ report flightrec PATH           # load + verify a flight-recorder dump, print its story
//! ```
//!
//! Executor flags belong to `smoke`; any other subcommand refuses them.

use gpu_mem::MemFidelityMode;
use gpu_telemetry::MetricsSnapshot;
use photon_bench::cli::{parse_exec_options, usage as exec_usage};
use photon_bench::harness::{results_dir, RunOutcome};
use photon_bench::profile::{check_report, mem_signature, render_report};
use photon_bench::report::{
    build_report, check_reports, compare_reports, gauge_summary, histogram_summary,
    load_all_reports, load_report, summary_table, write_report, RunReport,
};
use photon_bench::specs::smoke_grid;
use photon_bench::{run_specs, ExecOptions, Method};
use std::path::Path;

fn usage() -> ! {
    eprintln!(
        "usage: report <smoke|show [REPORT]|check|diff BASE CURRENT|flightrec PATH>\n{}",
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

/// The tables over every `results/BENCH_*.json`.
fn show_all() {
    let reports = load_all_reports(&results_dir()).unwrap_or_else(|e| fail(&e));
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
    let reports = load_all_reports(&results_dir()).unwrap_or_else(|e| fail(&e));
    let baseline_dir = results_dir().join("baselines");
    let ok = format!(
        "{} report(s): accounting balanced, per-BB attribution present, \
         no regressions against {}",
        reports.len(),
        baseline_dir.display()
    );
    verdict(&check_reports(&reports, &baseline_dir), &ok);
}

/// Prints the memory signature of `base` → `current`, then exits 1
/// unless both reports pass the accounting invariants and hold the same
/// simulated result.
fn diff(base_path: &str, cur_path: &str) {
    let base = load(base_path);
    let cur = load(cur_path);
    print!("{}", mem_signature(&base, &cur));
    let mut problems = check_report(&base);
    problems.extend(check_report(&cur));
    problems.extend(compare_reports(&base, &cur));
    verdict(
        &problems,
        &format!("{cur_path}: the same simulated result as {base_path}"),
    );
}

/// Prints `ok` when there are no problems; else each one, and exits 1.
fn verdict(problems: &[String], ok: &str) {
    if problems.is_empty() {
        println!("{ok}");
        return;
    }
    for p in problems {
        println!("DIFFERENT {p}");
    }
    std::process::exit(1);
}

fn load(path: &str) -> RunReport {
    load_report(Path::new(path)).unwrap_or_else(|e| fail(&e))
}

fn fail(e: &str) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1);
}

/// Loads a flight-recorder dump (verifying its checksum frame — a
/// corrupt dump is quarantined and fails the command) and prints what
/// tripped it: trigger, job, per-phase durations, and every failed
/// span with its detail. The CI serve gate greps this output for the
/// injected fault site.
fn flightrec_show(path: &str) {
    let rec = photon_bench::flightrec::load(Path::new(path)).unwrap_or_else(|e| fail(&e));
    println!(
        "flight record {} ({}) trigger={} wall={:.3}s",
        rec.job, rec.label, rec.trigger, rec.wall_secs
    );
    if !rec.detail.is_empty() {
        println!("  detail: {}", rec.detail);
    }
    println!("  spans: {}", rec.spans.len());
    for p in gpu_telemetry::span::phases(&rec.spans) {
        println!(
            "  phase {:<14} count={:<4} total={:.3}ms",
            p.phase,
            p.count,
            p.total_us as f64 / 1000.0
        );
    }
    let mut failed = rec.spans.iter().filter(|s| !s.ok).peekable();
    if failed.peek().is_none() {
        println!("  no failed spans");
    }
    for s in failed {
        println!("  FAILED {} {:?}: {}", s.kind.name(), s.label, s.detail);
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("smoke") {
        args.remove(0);
        let opts = parse_exec_options(&mut args).unwrap_or_else(|e| {
            eprintln!("{e}");
            usage();
        });
        match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
            [] => smoke(opts, false),
            ["--require-cached"] => smoke(opts, true),
            _ => usage(),
        }
        return;
    }
    // Only `smoke` runs a grid; a flag given to anything else would
    // be dropped, so it is refused by name.
    let flag = args.iter().skip(1).find(|a| a.starts_with("--"));
    if let (Some(cmd), Some(flag)) = (args.first(), flag) {
        eprintln!("report {cmd} does not take {flag}: executor flags belong to `report smoke`");
        std::process::exit(2);
    }
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["show"] => show_all(),
        ["show", path] => print!("{}", render_report(&load(path))),
        ["check"] => check(),
        ["diff", base, cur] => diff(base, cur),
        ["flightrec", path] => flightrec_show(path),
        _ => usage(),
    }
}
