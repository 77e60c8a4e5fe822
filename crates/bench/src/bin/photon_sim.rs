//! A command-line runner for individual experiments, in the spirit of
//! the artifact's `testallbench.py`.
//!
//! ```console
//! $ photon_sim --workload mm --warps 4096 --method photon
//! $ photon_sim --workload spmv --warps 1024 --method pka --arch mi100
//! $ photon_sim --workload resnet152 --method photon
//! $ photon_sim --workload vgg16 --method full --cus 16 --no-cache
//! ```
//!
//! Runs go through the same executor as the `figures` binary, so a
//! `--method full` run is served from (and feeds) the persistent
//! reference cache under `results/cache/`.

use gpu_workloads::registry::{Benchmark, RealWorldApp};
use photon::Levels;
use photon_bench::cli::parse_exec_options;
use photon_bench::harness::{results_dir, RunOutcome};
use photon_bench::report::{build_report, write_report};
use photon_bench::specs::{dnn_scale, scaled_photon_config, WorkloadSpec, DEFAULT_SEED};
use photon_bench::{run_specs, Method, RunSpec};

fn usage() -> ! {
    eprintln!(
        "usage: photon_sim --workload <name> [--warps N] [--method full|photon|pka|tbpoint|sieve|bb|warp|kernel] \
         [--arch r9nano|mi100] [--cus N] [--seed N] [--jobs N] [--timeout SECS] [--no-cache] \
         [--trace <file.trace.json>] [--report <name>]\n\
         workloads: aes fir sc mm relu spmv pr-<nodes> vgg16 vgg19 resnet18|34|50|101|152\n\
         --trace  writes a Chrome-trace JSON of the run (always simulates: implies --no-cache, ignores --resume)\n\
         --report writes results/BENCH_<name>.json"
    );
    std::process::exit(2);
}

fn parse_args(args: Vec<String>) -> std::collections::HashMap<String, String> {
    let mut out = std::collections::HashMap::new();
    let mut args = args.into_iter();
    while let Some(k) = args.next() {
        let Some(key) = k.strip_prefix("--") else {
            usage()
        };
        let Some(v) = args.next() else { usage() };
        out.insert(key.to_string(), v);
    }
    out
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = match parse_exec_options(&mut raw) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            usage();
        }
    };
    let args = parse_args(raw);
    let workload = args.get("workload").cloned().unwrap_or_else(|| usage());
    let warps: u64 = args
        .get("warps")
        .map(|w| w.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(4096);
    let seed: u64 = args
        .get("seed")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(DEFAULT_SEED);
    let method = match args.get("method").map(String::as_str).unwrap_or("photon") {
        "full" => Method::Full,
        "photon" => Method::Photon(Levels::all()),
        "pka" => Method::Pka,
        "tbpoint" => Method::TbPoint,
        "sieve" => Method::Sieve,
        "bb" => Method::Photon(Levels::bb_only()),
        "warp" => Method::Photon(Levels::warp_only()),
        "kernel" => Method::Photon(Levels::kernel_only()),
        _ => usage(),
    };
    let mut gpu_cfg = match args.get("arch").map(String::as_str).unwrap_or("r9nano") {
        "r9nano" => gpu_sim::GpuConfig::r9_nano(),
        "mi100" => gpu_sim::GpuConfig::mi100(),
        _ => usage(),
    };
    if let Some(cus) = args.get("cus") {
        let n: u32 = cus.parse().unwrap_or_else(|_| usage());
        gpu_cfg = gpu_cfg.with_num_cus(n);
    }

    let scale = dnn_scale();
    let lower = workload.to_lowercase();
    let real_world = |app: RealWorldApp| WorkloadSpec::RealWorld { app, scale };
    let bench = |b: Benchmark| WorkloadSpec::Bench { bench: b, warps };
    let workload_spec = match lower.as_str() {
        "aes" => bench(Benchmark::Aes),
        "fir" => bench(Benchmark::Fir),
        "sc" => bench(Benchmark::Sc),
        "mm" => bench(Benchmark::Mm),
        "relu" => bench(Benchmark::Relu),
        "spmv" => bench(Benchmark::Spmv),
        "vgg16" => real_world(RealWorldApp::Vgg16),
        "vgg19" => real_world(RealWorldApp::Vgg19),
        "resnet18" => real_world(RealWorldApp::ResNet18),
        "resnet34" => real_world(RealWorldApp::ResNet34),
        "resnet50" => real_world(RealWorldApp::ResNet50),
        "resnet101" => real_world(RealWorldApp::ResNet101),
        "resnet152" => real_world(RealWorldApp::ResNet152),
        other => {
            if let Some(nodes) = other.strip_prefix("pr-") {
                let n: u32 = nodes.parse().unwrap_or_else(|_| usage());
                real_world(RealWorldApp::PageRank(n))
            } else {
                usage()
            }
        }
    };
    let spec = RunSpec {
        workload: workload_spec,
        method: method.clone(),
        gpu: gpu_cfg.clone(),
        photon: scaled_photon_config(Levels::all()),
        seed,
    };

    let trace_path = args.get("trace");
    if trace_path.is_some() {
        photon_bench::cli::force_traced_run(&mut opts);
    }

    let report = run_specs(std::slice::from_ref(&spec), &opts);
    let result = &report.results[0];
    if result.from_cache {
        println!(
            "(served from reference cache under {})",
            opts.cache_dir
                .clone()
                .unwrap_or_else(|| results_dir().join("cache"))
                .display()
        );
    }

    if let Some(path) = trace_path {
        let log = &result.trace;
        match std::fs::write(path, gpu_telemetry::export::chrome_trace_json(log)) {
            Ok(()) => println!(
                "(wrote {path} — {} events, {} dropped)",
                log.events.len(),
                log.dropped
            ),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }

    if let Some(report_name) = args.get("report") {
        let report = build_report(
            report_name,
            std::slice::from_ref(&result.outcome),
            result.metrics.clone(),
        );
        match write_report(&report) {
            Ok(path) => println!("(wrote {})", path.display()),
            Err(e) => eprintln!("warning: could not write report: {e}"),
        }
    }

    match &result.outcome {
        RunOutcome::Completed(m) => {
            println!(
                "{} on {} ({} CUs) under {}:",
                workload, gpu_cfg.name, gpu_cfg.num_cus, m.method
            );
            println!("  simulated kernel time : {} cycles", m.sim_cycles);
            println!("  wall time             : {:.3} s", m.wall_secs);
            println!("  detailed instructions : {}", m.detailed_insts);
            println!("  functional instructions: {}", m.functional_insts);
            println!(
                "  warps detailed/predicted: {}/{}",
                m.detailed_warps, m.predicted_warps
            );
            println!("  kernels skipped       : {}", m.skipped_kernels);
        }
        RunOutcome::Skipped { reason, .. } => {
            eprintln!("{workload} under {}: {reason}", method.name());
            std::process::exit(1);
        }
    }
}
