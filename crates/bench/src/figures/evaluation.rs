//! The evaluation figures (§6): the Full/PKA/Photon comparison, the
//! MI100 robustness check, the sampling-level ablation, the real-world
//! applications, the VGG-16 per-layer analysis, and the online/offline
//! tradeoff, plus Tables 1 and 2.
//!
//! Every comparison figure builds its grid in [`crate::specs`] and runs
//! it through [`crate::executor::run_specs`]: runs fan out across
//! `--jobs` workers and the full-detailed references are shared through
//! the persistent cache, so regenerating a second figure (or re-running
//! one) never re-simulates a reference it already has.

use crate::executor::{run_specs, ExecOptions, ExecReport};
use crate::harness::{write_json, Measurement, RunOutcome, Table};
use crate::specs::{
    comparison_grid, fig13_methods, fig14_methods, fig15_methods, fig17_methods, figure16_grid,
    figure17_grid, mi100, r9_nano, scaled_photon_config, Method, DEFAULT_SEED,
};
use gpu_sim::{GpuConfig, GpuSimulator};
use gpu_workloads::registry::{Benchmark, RealWorldApp};
use photon::{Levels, PhotonController};
use serde::Serialize;
use std::time::Instant;

pub use crate::specs::dnn_scale;

/// One comparison row: a workload/size under one method measured
/// against the full-detailed baseline.
#[derive(Debug, Clone, Serialize)]
pub struct ComparisonRow {
    /// Workload name.
    pub workload: String,
    /// Problem size (warps).
    pub warps: u64,
    /// Method name.
    pub method: String,
    /// Simulated kernel cycles.
    pub sim_cycles: u64,
    /// Error vs full detailed.
    pub error: f64,
    /// Wall-clock speedup vs full detailed.
    pub speedup: f64,
    /// Wall seconds.
    pub wall_secs: f64,
}

fn full_row(full: &Measurement) -> ComparisonRow {
    ComparisonRow {
        workload: full.workload.clone(),
        warps: full.warps,
        method: "Full".to_string(),
        sim_cycles: full.sim_cycles,
        error: 0.0,
        speedup: 1.0,
        wall_secs: full.wall_secs,
    }
}

fn method_row(m: &Measurement, full: &Measurement) -> ComparisonRow {
    ComparisonRow {
        workload: m.workload.clone(),
        warps: m.warps,
        method: m.method.clone(),
        sim_cycles: m.sim_cycles,
        error: m.error_vs(full),
        speedup: m.speedup_vs(full),
        wall_secs: m.wall_secs,
    }
}

fn warn_skip(outcome: &RunOutcome) {
    if let RunOutcome::Skipped {
        workload,
        method,
        reason,
        ..
    } = outcome
    {
        eprintln!("warning: {workload} under {method} skipped: {reason}");
    }
}

/// Turns an executed comparison grid (Full first, then the methods, per
/// workload/size — the [`comparison_grid`] order) into rows. Skipped
/// runs are warned about and omitted; runs whose Full reference was
/// skipped are omitted with it.
fn rows_from_report(report: &ExecReport) -> Vec<ComparisonRow> {
    let mut rows = Vec::new();
    let mut full: Option<&Measurement> = None;
    for r in &report.results {
        warn_skip(&r.outcome);
        if r.spec.method == Method::Full {
            full = r.outcome.measurement();
            if let Some(f) = full {
                rows.push(full_row(f));
            }
        } else if let Some(m) = r.outcome.measurement() {
            match full {
                Some(f) => rows.push(method_row(m, f)),
                None => eprintln!(
                    "warning: no full-detailed reference for {} — row dropped",
                    r.spec.label()
                ),
            }
        }
    }
    rows
}

fn compare(
    gpu_cfg: &GpuConfig,
    methods: &[Method],
    benches: &[Benchmark],
    opts: &ExecOptions,
) -> Vec<ComparisonRow> {
    let grid = comparison_grid(gpu_cfg, methods, benches);
    let report = run_specs(&grid, opts);
    eprintln!(
        "({} specs: {} executed, {} cache hits, {} deduped, {} skipped, jobs={})",
        report.stats.total,
        report.stats.executed,
        report.stats.cache_hits,
        report.stats.deduped,
        report.stats.skipped,
        report.stats.jobs
    );
    rows_from_report(&report)
}

fn print_rows(title: &str, rows: &[ComparisonRow]) {
    println!("== {title} ==");
    let mut table = Table::new(&[
        "workload",
        "warps",
        "method",
        "sim cycles",
        "error",
        "speedup",
        "wall (s)",
    ]);
    for r in rows {
        table.row(vec![
            r.workload.clone(),
            r.warps.to_string(),
            r.method.clone(),
            r.sim_cycles.to_string(),
            format!("{:.1}%", 100.0 * r.error),
            format!("{:.2}x", r.speedup),
            format!("{:.2}", r.wall_secs),
        ]);
    }
    println!("{}", table.render());
    // method summaries
    for method in ["PKA", "Photon", "BB-sampling", "Warp-sampling"] {
        let ms: Vec<&ComparisonRow> = rows.iter().filter(|r| r.method == method).collect();
        if ms.is_empty() {
            continue;
        }
        let avg_err = ms.iter().map(|r| r.error).sum::<f64>() / ms.len() as f64;
        let max_speedup = ms.iter().map(|r| r.speedup).fold(0.0, f64::max);
        let avg_speedup = ms.iter().map(|r| r.speedup).sum::<f64>() / ms.len() as f64;
        println!(
            "{method}: avg error {:.2}%, avg speedup {:.2}x, max speedup {:.2}x",
            100.0 * avg_err,
            avg_speedup,
            max_speedup
        );
    }
    println!();
}

/// Figure 13: Full vs PKA vs Photon on the R9 Nano across all
/// single-kernel benchmarks and problem sizes.
pub fn fig13(opts: &ExecOptions) -> Vec<ComparisonRow> {
    let rows = compare(&r9_nano(), &fig13_methods(), &Benchmark::ALL, opts);
    print_rows("Figure 13: R9 Nano, Full vs PKA vs Photon", &rows);
    write_json("fig13", &rows);
    rows
}

/// Figure 14: Full vs Photon on the MI100 (micro-architecture
/// independence).
pub fn fig14(opts: &ExecOptions) -> Vec<ComparisonRow> {
    let rows = compare(&mi100(), &fig14_methods(), &Benchmark::ALL, opts);
    print_rows("Figure 14: MI100, Full vs Photon", &rows);
    write_json("fig14", &rows);
    rows
}

/// Figure 15: the sampling-level ablation — basic-block-sampling only,
/// warp-sampling only, and full Photon.
pub fn fig15(opts: &ExecOptions) -> Vec<ComparisonRow> {
    let rows = compare(&r9_nano(), &fig15_methods(), &Benchmark::ALL, opts);
    print_rows("Figure 15: sampling levels (BB / Warp / Photon)", &rows);
    write_json("fig15", &rows);
    rows
}

/// Figure 16: real-world applications (PageRank, VGG, ResNet), Full vs
/// Photon.
pub fn fig16(opts: &ExecOptions) -> Vec<ComparisonRow> {
    let grid = figure16_grid(&r9_nano(), dnn_scale());
    let report = run_specs(&grid, opts);
    let rows = rows_from_report(&report);
    for pair in rows.chunks(2) {
        if let [full, ph] = pair {
            if ph.method != "Full" {
                println!(
                    "{}: full {} cycles in {:.2}s; Photon {} cycles in {:.2}s (err {:.1}%, speedup {:.2}x)",
                    full.workload,
                    full.sim_cycles,
                    full.wall_secs,
                    ph.sim_cycles,
                    ph.wall_secs,
                    100.0 * ph.error,
                    ph.speedup,
                );
            }
        }
    }
    let photon_rows: Vec<&ComparisonRow> = rows.iter().filter(|r| r.method == "Photon").collect();
    if !photon_rows.is_empty() {
        let avg = photon_rows.iter().map(|r| r.error).sum::<f64>() / photon_rows.len() as f64;
        println!(
            "average sampling error across applications: {:.1}%",
            100.0 * avg
        );
    }
    write_json("fig16", &rows);
    rows
}

/// One per-layer row of Figure 17.
#[derive(Debug, Clone, Serialize)]
pub struct LayerRow {
    /// Layer label (conv1-1 … fc-8, "whole").
    pub layer: String,
    /// Method name.
    pub method: String,
    /// Absolute runtime error vs full detailed for that layer.
    pub error: f64,
}

/// Figure 17: per-layer error of kernel-sampling, kernel+warp-sampling,
/// and full Photon on VGG-16, plus whole-network speedups.
///
/// # Panics
/// Panics if any of the four VGG-16 runs is skipped — the per-layer
/// table cannot be rendered from a partial grid.
pub fn fig17(opts: &ExecOptions) -> Vec<LayerRow> {
    let gpu_cfg = r9_nano();
    let scale = dnn_scale();

    // layer labels in launch order (identical across runs)
    let labels: Vec<String> = {
        let mut gpu = GpuSimulator::new(gpu_cfg.clone());
        RealWorldApp::Vgg16
            .build(&mut gpu, scale, DEFAULT_SEED)
            .launches()
            .iter()
            .map(|l| l.layer.clone())
            .collect()
    };

    let grid = figure17_grid(&gpu_cfg, scale);
    let report = run_specs(&grid, opts);
    let measures = report.measurements();
    let (full, measures) = (measures[0], &measures[1..]);
    let methods = fig17_methods();

    let mut rows = Vec::new();
    let mut table = Table::new(&["layer", "kernel", "kernel+warp", "Photon"]);
    let layer_order: Vec<String> = {
        let mut seen = Vec::new();
        for l in &labels {
            if !seen.contains(l) {
                seen.push(l.clone());
            }
        }
        seen
    };

    let layer_cycles = |m: &Measurement, layer: &str| -> u64 {
        m.kernel_cycles
            .iter()
            .zip(&labels)
            .filter(|(_, l)| *l == layer)
            .map(|(c, _)| *c)
            .sum()
    };
    for layer in &layer_order {
        let base = layer_cycles(full, layer) as f64;
        let mut cells = vec![layer.clone()];
        for (method, m) in methods.iter().zip(measures) {
            let err = (layer_cycles(m, layer) as f64 - base).abs() / base.max(1.0);
            cells.push(format!("{:.1}%", 100.0 * err));
            rows.push(LayerRow {
                layer: layer.clone(),
                method: method.name(),
                error: err,
            });
        }
        table.row(cells);
    }
    // whole-network row
    let mut cells = vec!["whole".to_string()];
    for (method, m) in methods.iter().zip(measures) {
        let err = m.error_vs(full);
        cells.push(format!("{:.1}%", 100.0 * err));
        rows.push(LayerRow {
            layer: "whole".into(),
            method: method.name(),
            error: err,
        });
    }
    table.row(cells);
    println!("== Figure 17: VGG-16 per-layer absolute runtime error ==");
    println!("{}", table.render());
    for (method, m) in methods.iter().zip(measures) {
        println!(
            "{}: whole-inference speedup {:.2}x (error {:.1}%)",
            method.name(),
            m.speedup_vs(full),
            100.0 * m.error_vs(full)
        );
    }
    write_json("fig17", &rows);
    rows
}

/// §6.3 online/offline tradeoff: Photon with online analysis vs Photon
/// reusing exported analyses.
///
/// Inherently sequential: the offline pass consumes the analyses the
/// online pass exports, so there is nothing for the executor to fan
/// out. What repeats is checked — reuse predicts exactly the online
/// cycles and charges fewer functional instructions — and each wall
/// time is one host-time sample (host time is `benchmark/run.sh`'s).
///
/// # Panics
/// When either check fails.
pub fn offline_tradeoff() {
    let gpu_cfg = r9_nano();
    let scale = dnn_scale();
    let pcfg = scaled_photon_config(Levels::all());

    // online pass, exporting analyses
    let mut gpu = GpuSimulator::new(gpu_cfg.clone());
    let app = RealWorldApp::Vgg16.build(&mut gpu, scale, DEFAULT_SEED);
    let mut online = PhotonController::new(pcfg.clone(), gpu_cfg.num_cus as u64);
    let t0 = Instant::now();
    let online_res = app.run(&mut gpu, &mut online).expect("online run");
    let online_wall = t0.elapsed().as_secs_f64();
    let analyses = online.export_analyses().to_vec();

    // offline pass reusing them
    let mut gpu2 = GpuSimulator::new(gpu_cfg.clone());
    let app2 = RealWorldApp::Vgg16.build(&mut gpu2, scale, DEFAULT_SEED);
    let mut offline = PhotonController::with_offline(pcfg, gpu_cfg.num_cus as u64, analyses);
    let t1 = Instant::now();
    let offline_res = app2.run(&mut gpu2, &mut offline).expect("offline run");
    let offline_wall = t1.elapsed().as_secs_f64();

    for (name, res, wall) in [
        ("online", &online_res, online_wall),
        ("offline", &offline_res, offline_wall),
    ] {
        println!(
            "{name:<8} {} functional insts, {} cycles; one wall sample {wall:.2}s",
            res.total_functional_insts(),
            res.total_cycles()
        );
    }
    write_json(
        "offline_tradeoff",
        &serde_json::json!({
            "online_wall_secs": online_wall,
            "offline_wall_secs": offline_wall,
            "online_functional_insts": online_res.total_functional_insts(),
            "offline_functional_insts": offline_res.total_functional_insts(),
        }),
    );
    assert!(
        offline_res.total_cycles() == online_res.total_cycles()
            && offline_res.total_functional_insts() < online_res.total_functional_insts(),
        "offline reuse must predict the online cycles from fewer functional insts"
    );
}

/// Table 1: the simulated GPU configurations.
pub fn table1() {
    println!("== Table 1: GPU configurations ==");
    let mut table = Table::new(&["Component", "R9 Nano", "MI100"]);
    let r9 = GpuConfig::r9_nano();
    let mi = GpuConfig::mi100();
    table.row(vec![
        "CU".into(),
        format!("1.0GHz, {} per GPU", r9.num_cus),
        format!("1.0GHz, {} per GPU", mi.num_cus),
    ]);
    table.row(vec![
        "L1 Vector Cache".into(),
        format!(
            "{}KB {}-way, {} per GPU",
            r9.mem.l1v.size_bytes / 1024,
            r9.mem.l1v.assoc,
            r9.num_cus
        ),
        format!(
            "{}KB {}-way, {} per GPU",
            mi.mem.l1v.size_bytes / 1024,
            mi.mem.l1v.assoc,
            mi.num_cus
        ),
    ]);
    table.row(vec![
        "L2 Cache".into(),
        format!(
            "{}KB {}-way, {} banks",
            r9.mem.l2.size_bytes / 1024,
            r9.mem.l2.assoc,
            r9.mem.l2_banks
        ),
        format!(
            "{}MB total, {} banks",
            r9_to_mb(mi.mem.l2.size_bytes * mi.mem.l2_banks),
            mi.mem.l2_banks
        ),
    ]);
    table.row(vec![
        "DRAM".into(),
        format!("{}GB", r9.mem.dram.capacity_bytes >> 30),
        format!("{}GB", mi.mem.dram.capacity_bytes >> 30),
    ]);
    println!("{}", table.render());
}

fn r9_to_mb(bytes: u64) -> u64 {
    bytes / (1024 * 1024)
}

/// Table 2: the benchmark registry.
pub fn table2() {
    println!("== Table 2: benchmarks ==");
    let mut table = Table::new(&["Abbr.", "Suite", "Workload Description"]);
    for b in Benchmark::ALL {
        table.row(vec![
            b.abbr().to_string(),
            b.suite().to_string(),
            b.description().to_string(),
        ]);
    }
    table.row(vec![
        "PR-X".into(),
        "Hetero-Mark".into(),
        "PageRank with X nodes".into(),
    ]);
    table.row(vec![
        "VGG".into(),
        "-".into(),
        "VGG-16 and VGG-19; batchsize=1".into(),
    ]);
    table.row(vec![
        "ResNet".into(),
        "-".into(),
        "ResNet-18 (34, 50, 101, 152); batchsize=1".into(),
    ]);
    println!("{}", table.render());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::RunOutcome;
    use crate::specs::{RunSpec, WorkloadSpec};
    use gpu_telemetry::{MetricsSnapshot, TraceLog};

    fn meas(workload: &str, method: &str, cycles: u64) -> Measurement {
        Measurement {
            workload: workload.into(),
            warps: 64,
            method: method.into(),
            sim_cycles: cycles,
            wall_secs: 1.0,
            detailed_insts: 0,
            functional_insts: 0,
            detailed_warps: 0,
            predicted_warps: 0,
            skipped_kernels: 0,
            kernel_cycles: vec![cycles],
            accounting: None,
            bb_errors: vec![],
        }
    }

    fn result(spec: RunSpec, outcome: RunOutcome) -> crate::executor::RunResult {
        crate::executor::RunResult {
            spec,
            outcome,
            metrics: MetricsSnapshot::default(),
            trace: TraceLog::default(),
            from_cache: false,
        }
    }

    #[test]
    fn rows_track_the_preceding_full_reference() {
        let spec = |method: Method| RunSpec {
            workload: WorkloadSpec::Bench {
                bench: Benchmark::Fir,
                warps: 64,
            },
            method,
            gpu: GpuConfig::tiny(),
            photon: scaled_photon_config(Levels::all()),
            seed: 7,
        };
        let report = ExecReport {
            results: vec![
                result(
                    spec(Method::Full),
                    RunOutcome::Completed(meas("fir", "Full", 1000)),
                ),
                result(
                    spec(Method::Pka),
                    RunOutcome::Completed(meas("fir", "PKA", 900)),
                ),
                result(
                    spec(Method::Photon(Levels::all())),
                    RunOutcome::Skipped {
                        workload: "fir".into(),
                        method: "Photon".into(),
                        reason: "timed out".into(),
                        error: None,
                        failure: crate::harness::FailureKind::Transient,
                    },
                ),
            ],
            stats: crate::executor::ExecStats::default(),
            metrics: gpu_telemetry::MetricsSnapshot::default(),
        };
        let rows = rows_from_report(&report);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].method, "Full");
        assert!((rows[1].error - 0.1).abs() < 1e-12);
    }
}
