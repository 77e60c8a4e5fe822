//! Cycle-accounting profiler over `results/BENCH_*.json` reports.
//!
//! ```console
//! $ profile show results/BENCH_smoke.json   # stall tables, occupancy, worst BBs
//! $ profile diff base.json current.json     # flag stall-share / cycle drift > 5%
//! $ profile diff base.json current.json 0.10   # custom ceiling (fraction)
//! $ profile check [report.json]             # invariant gate (CI); exit 1 on failure
//! ```
//!
//! The optional `diff` ceiling is the mem-fidelity gate's: CI diffs a
//! cold detailed-memory smoke rerun against the first one at 1%, and
//! prints the legacy-vs-detailed diff at 95% for its memory signature
//! (see DESIGN.md, "Memory model"), instead of the 5% default.
//!
//! `check` without an argument validates `results/BENCH_smoke.json`
//! (the artifact `report smoke` writes): every run's stall classes must
//! sum exactly to its resident warp-cycles and every detailed run must
//! carry per-BB prediction-error attribution.

use photon_bench::harness::results_dir;
use photon_bench::profile::{check_report, diff_reports, mem_signature, render_report};
use photon_bench::report::load_report;
use std::path::{Path, PathBuf};

/// Share-of-residency growth (absolute) a stall class may show before
/// `diff` flags it: five percentage points.
const DIFF_THRESHOLD: f64 = 0.05;

fn usage() -> ! {
    eprintln!("usage: profile <show <report>|diff <base> <current> [ceiling]|check [report]>");
    std::process::exit(2);
}

fn load(path: &Path) -> gpu_telemetry::RunReport {
    match load_report(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match (args.first().map(String::as_str), args.len()) {
        (Some("show"), 2) => {
            print!("{}", render_report(&load(Path::new(&args[1]))));
        }
        (Some("diff"), n) if n == 3 || n == 4 => {
            let threshold = match args.get(3) {
                Some(v) => match v.parse::<f64>() {
                    Ok(t) if t > 0.0 && t < 1.0 => t,
                    _ => {
                        eprintln!("error: ceiling must be a fraction in (0, 1), got {v}");
                        std::process::exit(2);
                    }
                },
                None => DIFF_THRESHOLD,
            };
            let base = load(Path::new(&args[1]));
            let cur = load(Path::new(&args[2]));
            // Memory-model signature first: informational, never fails
            // the diff — it is the review artifact for fidelity changes.
            print!("{}", mem_signature(&base, &cur));
            let flagged = diff_reports(&base, &cur, threshold);
            if flagged.is_empty() {
                println!(
                    "no stall-share or cycle regressions (> {:.0}%) vs {}",
                    threshold * 100.0,
                    args[1]
                );
                return;
            }
            for f in &flagged {
                println!("REGRESSION {f}");
            }
            std::process::exit(1);
        }
        (Some("check"), n) if n <= 2 => {
            let path: PathBuf = args
                .get(1)
                .map(PathBuf::from)
                .unwrap_or_else(|| results_dir().join("BENCH_smoke.json"));
            let report = load(&path);
            let problems = check_report(&report);
            if problems.is_empty() {
                println!(
                    "{}: accounting balanced across {} run(s), per-BB attribution present",
                    path.display(),
                    report.runs.len()
                );
                return;
            }
            for p in &problems {
                eprintln!("FAIL {p}");
            }
            std::process::exit(1);
        }
        _ => usage(),
    }
}
