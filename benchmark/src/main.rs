//! The repository benchmark. `run.sh` builds and starts this program;
//! see README.md for the workloads, the metrics and how to read them.
//!
//! With `--workload W` it runs that workload in this process and ends
//! with the result object as the last line of standard output (the
//! driver's interface). Without, it runs every workload in a child
//! process of its own, one at a time.

mod expected;
mod host;
mod metrics;
mod probes;
mod run;
mod serve;
mod spans;
mod stats;
mod workloads;

use expected::SimStats;
use metrics::RunResult;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str =
    "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
       run.sh --selfcheck | --bless
  --workload W   one of mm_compute spmv_irregular fir_stream resnet50_kernels mm_det2
                 serve_closed2; without it every workload runs, each in its own child process
  --seed N       input seed (default 1; hold-out seed 2)
  --seconds S    how long one run measures (default: run_seconds of BENCHMARK.json)
  --trace [0|1]  1 (or bare): the traced run — spans, layer probes, per-layer metrics
  --quick        quarter sizes, one round: a smoke run, not a measurement
  --selfcheck    two full sets of runs of this build, compared against the bounds
  --bless        rewrite expected.json from seeds 1 and 2";

/// `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 10.0;

#[derive(Debug, Clone)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    selfcheck: bool,
    bless: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        selfcheck: false,
        bless: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => cli.workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                cli.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed: not a whole number")?
            }
            "--seconds" => {
                cli.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds: not a number of seconds")?
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    cli.trace = false;
                    i += 1;
                }
                Some("1") => {
                    cli.trace = true;
                    i += 1;
                }
                _ => cli.trace = true,
            },
            "--quick" => cli.quick = true,
            "--selfcheck" => cli.selfcheck = true,
            "--bless" => cli.bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if let Some(w) = &cli.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}"));
        }
    }
    if cli.quick {
        cli.seconds = 0.0;
    }
    Ok(cli)
}

/// The benchmark's own directory: `BENCH_DIR` (set by `run.sh`), else
/// `benchmark` under the current directory.
fn bench_dir() -> PathBuf {
    std::env::var_os("BENCH_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

/// Every `PHOTON_*` variable changes what the program does
/// (`PHOTON_BENCH_FULL`, `PHOTON_ENGINE_THREADS`, `PHOTON_FAULTS`,
/// `PHOTON_BENCH_CACHE`, `PHOTON_SPAN_RING`, ...): none may leak in.
fn scrub_environment() {
    let names: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("PHOTON_"))
        .collect();
    for k in names {
        std::env::remove_var(k);
    }
}

fn out_file(dir: &Path, kind: &str, workload: &str) -> PathBuf {
    dir.join("out").join(format!("{kind}_{workload}.json"))
}

/// Runs one workload in this process; the result object is the last
/// line printed.
fn run_single(cli: &Cli, workload: &str, dir: &Path) -> Result<RunResult, String> {
    std::fs::create_dir_all(dir.join("out")).map_err(|e| e.to_string())?;
    let opts = run::Options {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        quick: cli.quick,
        bench_dir: dir.to_path_buf(),
    };
    println!(
        "== {workload} (seed {}, {} s, {}{}) ==",
        cli.seed,
        cli.seconds,
        if cli.trace { "traced" } else { "untraced" },
        if cli.quick { ", quick sizes" } else { "" }
    );
    let outcome = run::run(&opts)?;
    outcome.host.print();
    outcome.res.print(outcome.host.noise_tag());
    expected::report(
        &dir.join("expected.json"),
        workload,
        cli.seed,
        cli.quick,
        &outcome.stats,
    );
    let declared = if cli.trace {
        metrics::per_layer_names()
    } else {
        metrics::end_to_end_names()
    };
    outcome
        .res
        .covers(&declared)
        .map_err(|e| format!("the run does not report the declared metrics: {e}"))?;

    let mut doc = vec![
        ("workload".to_string(), Value::String(workload.to_string())),
        ("seed".to_string(), Value::U64(cli.seed)),
        ("quick".to_string(), Value::Bool(cli.quick)),
        ("host".to_string(), outcome.host.to_json()),
        ("result".to_string(), outcome.res.to_json()),
        ("series".to_string(), outcome.res.series_json()),
        ("sim_stats".to_string(), outcome.stats.to_json()),
    ];
    let path = if cli.trace {
        spans::check_tree(&outcome.spans).map_err(|e| format!("span tree: {e}"))?;
        println!("self time per layer (span duration minus children):");
        let by_layer = spans::self_time_by_layer(&outcome.spans);
        let total: u64 = by_layer.iter().map(|(_, t)| t).sum();
        for (layer, us) in &by_layer {
            println!(
                "  {layer:<10} {:>10.3} ms  {:>5.1} %",
                *us as f64 / 1e3,
                *us as f64 / total.max(1) as f64 * 100.0
            );
        }
        doc.push(("spans".to_string(), spans::spans_to_json(&outcome.spans)));
        doc.push((
            "self_time_us_by_layer".to_string(),
            Value::Object(
                by_layer
                    .into_iter()
                    .map(|(l, t)| (l, Value::U64(t)))
                    .collect(),
            ),
        ));
        out_file(dir, "trace", workload)
    } else {
        out_file(dir, "result", workload)
    };
    let text = serde_json::to_string_pretty(&Value::Object(doc)).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("(wrote {})", path.display());
    println!(
        "{}",
        serde_json::to_string(&outcome.res.to_json()).map_err(|e| e.to_string())?
    );
    Ok(outcome.res)
}

/// One workload in a child process of its own (so `peak_rss_mb` is that
/// workload's alone); waits for it and parses its last line.
fn run_child(cli: &Cli, workload: &str, echo: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if cli.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .spawn()
        .and_then(|c| c.wait_with_output())
        .map_err(|e| format!("{workload}: could not run the child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{text}");
    }
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    let last = text.lines().last().unwrap_or_default();
    let v: Value = serde_json::from_str(last).map_err(|e| format!("{workload}: last line: {e}"))?;
    RunResult::from_json(&v)
}

/// Every workload, one child at a time, then one combined result
/// object whose metric names are `<workload>.<metric>`.
fn run_all(cli: &Cli) -> Result<(), String> {
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut combined = Vec::new();
    let mut summary = vec!["== summary ==".to_string()];
    for w in workloads::NAMES {
        let r = run_child(cli, w, true)?;
        summary.push(format!(
            "{w}: correct={} failed_frac={} ({} of {})",
            r.correct,
            r.failed_frac(),
            r.failed,
            r.attempted
        ));
        correct &= r.correct;
        attempted += r.attempted;
        failed += r.failed;
        for m in &r.metrics {
            combined.push((
                format!("{w}.{}", m.name),
                serde_json::json!({ "value": m.value, "unit": metrics::unit_of(&m.name) }),
            ));
        }
    }
    summary.iter().for_each(|line| println!("{line}"));
    let v = serde_json::json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(combined),
    });
    println!("{}", serde_json::to_string(&v).map_err(|e| e.to_string())?);
    Ok(())
}

/// Runs of each workload in each of the two sets of a selfcheck.
const SELFCHECK_RUNS: usize = 5;

/// Two sets of runs of the same build; the relative difference of every
/// end-to-end metric on every workload against its bound. The sets
/// alternate run by run (A B A B A B per workload), so both see the
/// same stretches of host noise, and each set's figure is the median
/// of its runs — what the driver compares. Prints the table as markdown
/// (`SELFCHECK.md` is this output).
fn selfcheck(cli: &Cli, dir: &Path) -> Result<bool, String> {
    let host = host::HostStamp::begin();
    let mut rows = Vec::new();
    let mut ok = true;
    for w in workloads::NAMES {
        let mut sets: [Vec<RunResult>; 2] = [Vec::new(), Vec::new()];
        let mut counts = Vec::new();
        for _ in 0..SELFCHECK_RUNS {
            for set in &mut sets {
                set.push(run_child(cli, w, false)?);
                counts.push(stats_of(dir, w)?);
            }
        }
        let median_of = |set: &[RunResult], name: &str| {
            stats::median(&set.iter().filter_map(|r| r.get(name)).collect::<Vec<_>>())
        };
        for (name, _, better, bound) in metrics::END_TO_END {
            let (first, second) = (median_of(&sets[0], name), median_of(&sets[1], name));
            let worse = if better == "higher" {
                (first - second) / first
            } else {
                (second - first) / first
            };
            let pass = worse <= bound;
            ok &= pass;
            rows.push(format!(
                "| {w} | {name} | {first:.6} | {second:.6} | {:+.2} % | {:.2} % | {} |",
                worse * 100.0,
                bound * 100.0,
                if pass { "ok" } else { "FAIL" }
            ));
        }
        let failed: Vec<u64> = sets
            .iter()
            .map(|s| s.iter().map(|r| r.failed).sum())
            .collect();
        let clean = failed.iter().all(|f| *f == 0);
        ok &= clean;
        rows.push(format!(
            "| {w} | failed (count) | {} | {} | | 0 | {} |",
            failed[0],
            failed[1],
            if clean { "ok" } else { "FAIL" }
        ));
        // Simulated counts and photon_err_pct repeat exactly.
        let exact = counts.windows(2).all(|p| p[0] == p[1]);
        ok &= exact;
        rows.push(format!(
            "| {w} | sim_stats | {} runs | | | exact | {} |",
            counts.len(),
            if exact { "identical" } else { "DIFFER" }
        ));
    }
    println!("# Selfcheck: two sets of runs of the same build\n");
    println!(
        "Host: {} x `{}`, kernel {}, {}, commit {}. Seed {}, {} s per run, {SELFCHECK_RUNS} runs per workload and set, the sets alternating run by run; each figure is the median of its set.\n",
        host.nproc, host.cpu_model, host.kernel, host.rustc, host.git_commit, cli.seed, cli.seconds
    );
    println!("`worse by` is how much worse the second set is than the first, as a share of the first (negative: better). A row fails when it exceeds the bound. The simulated counts of every run were compared with `expected.json` by the run itself.\n");
    println!("| workload | metric | first | second | worse by | bound | verdict |");
    println!("|---|---|---|---|---|---|---|");
    rows.iter().for_each(|r| println!("{r}"));
    println!(
        "\nVerdict: {}",
        if ok { "within bounds" } else { "OUT OF BOUNDS" }
    );
    Ok(ok)
}

fn stats_of(dir: &Path, workload: &str) -> Result<SimStats, String> {
    let path = out_file(dir, "result", workload);
    let doc = expected::load(&path).ok_or(format!("{}: unreadable", path.display()))?;
    doc.get("sim_stats")
        .and_then(SimStats::from_json)
        .ok_or(format!("{}: no sim_stats", path.display()))
}

/// Rewrites expected.json from short runs of seeds 1 and 2 (the counts
/// do not depend on how long a run measures).
fn bless(cli: &Cli, dir: &Path) -> Result<(), String> {
    let mut entries = Vec::new();
    for seed in [1, 2] {
        let short = Cli {
            seed,
            seconds: 0.0,
            trace: false,
            quick: false,
            ..cli.clone()
        };
        for w in workloads::NAMES {
            let r = run_child(&short, w, false)?;
            println!(
                "blessed {w} seed {seed} (failed {} of {})",
                r.failed, r.attempted
            );
            entries.push((w.to_string(), seed, stats_of(dir, w)?));
        }
    }
    let text =
        serde_json::to_string_pretty(&expected::document(&entries)).map_err(|e| e.to_string())?;
    let path = dir.join("expected.json");
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("(wrote {})", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    scrub_environment();
    let dir = bench_dir();
    let done = if cli.bless {
        bless(&cli, &dir)
    } else if cli.selfcheck {
        match selfcheck(&cli, &dir) {
            Ok(true) => Ok(()),
            Ok(false) => return ExitCode::from(1),
            Err(e) => Err(e),
        }
    } else if let Some(w) = &cli.workload {
        run_single(&cli, w, &dir).map(|_| ())
    } else {
        run_all(&cli)
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_and_hand_typed_flags_parse() {
        let c = parse_args(&args("--workload mm_det2 --seed 2 --seconds 10 --trace 0")).unwrap();
        assert_eq!(
            (c.workload.as_deref(), c.seed, c.seconds, c.trace),
            (Some("mm_det2"), 2, 10.0, false)
        );
        assert!(parse_args(&args("--trace 1")).unwrap().trace);
        assert!(
            parse_args(&args("--trace --workload fir_stream"))
                .unwrap()
                .trace
        );
        assert!(parse_args(&args("--trace")).unwrap().trace);
        let q = parse_args(&args("--quick")).unwrap();
        assert_eq!((q.quick, q.seconds), (true, 0.0));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seconds -1")).is_err());
        assert!(parse_args(&args("--frobnicate")).is_err());
    }

    /// `--quick` (quarter sizes, one round) through all six workloads,
    /// untraced and traced: every declared metric is reported, nothing
    /// fails, and the traced run's spans form a well-formed tree.
    #[test]
    fn quick_mode_drives_all_six_workloads_end_to_end() {
        let started = std::time::Instant::now();
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        std::fs::create_dir_all(dir.join("out")).unwrap();
        for trace in [false, true] {
            for workload in workloads::NAMES {
                let outcome = run::run(&run::Options {
                    workload: workload.to_string(),
                    seed: 1,
                    seconds: 0.0,
                    trace,
                    quick: true,
                    bench_dir: dir.clone(),
                })
                .unwrap_or_else(|e| panic!("{workload}: {e}"));
                let r = &outcome.res;
                assert!(
                    r.correct && r.failed == 0 && r.attempted > 0,
                    "{workload}: {r:?}"
                );
                let declared = if trace {
                    metrics::per_layer_names()
                } else {
                    metrics::end_to_end_names()
                };
                r.covers(&declared)
                    .unwrap_or_else(|e| panic!("{workload}: {e}"));
                if trace {
                    spans::check_tree(&outcome.spans).unwrap_or_else(|e| panic!("{workload}: {e}"));
                    assert!(outcome.spans.len() > 20, "{workload}");
                } else {
                    // End-to-end metrics are never zero: bounds are
                    // shares of the parent's median.
                    assert!(r.metrics.iter().all(|m| m.value > 0.0), "{workload}: {r:?}");
                    assert!(outcome.spans.is_empty());
                }
                assert!(!outcome.stats.0.is_empty());
            }
        }
        let took = started.elapsed().as_secs_f64();
        assert!(
            took < 30.0 || cfg!(debug_assertions),
            "quick mode took {took:.1} s"
        );
    }
}
