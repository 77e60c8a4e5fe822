//! The observation figures (§3): IPC timelines, basic-block and warp
//! issue/retire behavior, distribution sampling, and GPU-BBV
//! clustering.
//!
//! These figures measure *recordings*, not comparison grids, so they do
//! not go through the reference cache; but every per-workload loop fans
//! out over [`parallel_map`] with the binary's `--jobs` setting.
//! Results are collected per workload and printed afterwards in the
//! fixed workload order, so the output is identical at any job count.

use crate::executor::{parallel_map, ExecOptions};
use crate::harness::{write_json, Table};
use crate::specs::{r9_nano, scaled_photon_config, size_scale};
use gpu_sim::{GpuSimulator, Recorder};
use gpu_workloads::dnn::DnnScale;
use gpu_workloads::registry::{Benchmark, RealWorldApp};
use photon::{least_squares, Levels, OnlineAnalysis, PhotonController};
use serde::Serialize;

fn run_recorded(bench: Benchmark, warps: u64) -> (Recorder, u64) {
    let cfg = r9_nano();
    let mut gpu = GpuSimulator::new(cfg);
    let app = bench.build(&mut gpu, warps, 7);
    let mut rec = Recorder::new();
    let result = app.run(&mut gpu, &mut rec).expect("detailed run");
    (rec, result.total_cycles())
}

/// Figure 1: IPC over time for ReLU (stabilizes) and MM (fluctuates).
///
/// Returns `(workload, ipc series)` pairs and writes them to
/// `results/fig1.json`.
pub fn fig1(opts: &ExecOptions) -> Vec<(String, Vec<f64>)> {
    let pairs = vec![(Benchmark::Relu, 16384u64), (Benchmark::Mm, 4096)];
    let computed = parallel_map(pairs, opts.jobs, &|(bench, warps): (Benchmark, u64)| {
        let warps = warps / size_scale().max(1);
        let (rec, cycles) = run_recorded(bench, warps);
        let window = 2048.0;
        let series: Vec<f64> = rec
            .ipc_windows
            .iter()
            .map(|(_, insts)| *insts as f64 / window)
            .collect();
        (bench, cycles, series)
    });
    let mut out = Vec::new();
    for (bench, cycles, series) in computed {
        println!(
            "{}: {} windows over {} cycles; first/mid/last IPC = {:.2}/{:.2}/{:.2}",
            bench.abbr(),
            series.len(),
            cycles,
            series.first().copied().unwrap_or(0.0),
            series.get(series.len() / 2).copied().unwrap_or(0.0),
            series.last().copied().unwrap_or(0.0),
        );
        out.push((bench.abbr().to_string(), series));
    }
    write_json("fig1", &out);
    out
}

/// The dominating basic block (by total execution time) of a recording.
fn dominating_bb(rec: &Recorder) -> u32 {
    use std::collections::HashMap;
    let mut time: HashMap<u32, u64> = HashMap::new();
    for r in &rec.bb_records {
        *time.entry(r.bb.0).or_insert(0) += r.duration();
    }
    time.into_iter()
        .max_by_key(|(_, t)| *t)
        .map(|(b, _)| b)
        .unwrap_or(0)
}

/// One (x, y) series for a scatter-style figure.
#[derive(Debug, Serialize)]
pub struct Series {
    /// Workload label.
    pub workload: String,
    /// Point set.
    pub points: Vec<(f64, f64)>,
    /// Least-squares (a, b) if computable.
    pub fit: Option<(f64, f64)>,
}

/// The (benchmark, paper-size) pairs Figures 2–4 contrast: regular MM
/// against irregular SpMV.
fn regular_vs_irregular() -> Vec<(Benchmark, u64)> {
    vec![(Benchmark::Mm, 4096), (Benchmark::Spmv, 1024)]
}

/// Figure 2: execution time of the dominating basic block over its
/// execution index, plus the global variance the paper shows prior work
/// thresholds on.
pub fn fig2(opts: &ExecOptions) -> Vec<Series> {
    let computed = parallel_map(regular_vs_irregular(), opts.jobs, &|(bench, warps): (
        Benchmark,
        u64,
    )| {
        let warps = warps / size_scale().max(1);
        let (rec, _) = run_recorded(bench, warps);
        let bb = dominating_bb(&rec);
        let durations: Vec<f64> = rec
            .bb_records
            .iter()
            .filter(|r| r.bb.0 == bb)
            .map(|r| r.duration() as f64)
            .collect();
        (bench, bb, durations)
    });
    let mut out = Vec::new();
    for (bench, bb, durations) in computed {
        let n = durations.len() as f64;
        let mean = durations.iter().sum::<f64>() / n;
        let var = durations
            .iter()
            .map(|d| (d - mean) * (d - mean))
            .sum::<f64>()
            / n;
        println!(
            "{}: dominating bb{} executed {} times; mean {:.1}, global variance {:.2} (normalized {:.2})",
            bench.abbr(),
            bb,
            durations.len(),
            mean,
            var,
            var / (mean * mean),
        );
        let points = durations
            .iter()
            .enumerate()
            .step_by((durations.len() / 2000).max(1))
            .map(|(i, d)| (i as f64, *d))
            .collect();
        out.push(Series {
            workload: bench.abbr().to_string(),
            points,
            fit: None,
        });
    }
    write_json("fig2", &out);
    out
}

/// Figure 3: issue vs retired time of the dominating basic block with
/// its least-squares line (slope ≈ 1 once competition stabilizes).
pub fn fig3(opts: &ExecOptions) -> Vec<Series> {
    let computed = parallel_map(regular_vs_irregular(), opts.jobs, &|(bench, warps): (
        Benchmark,
        u64,
    )| {
        let warps = warps / size_scale().max(1);
        let (rec, _) = run_recorded(bench, warps);
        let bb = dominating_bb(&rec);
        let points: Vec<(f64, f64)> = rec
            .bb_records
            .iter()
            .filter(|r| r.bb.0 == bb)
            .map(|r| (r.start as f64, r.end as f64))
            .collect();
        (bench, bb, points)
    });
    let mut out = Vec::new();
    for (bench, bb, points) in computed {
        let fit = least_squares(&points);
        if let Some((a, b)) = fit {
            println!(
                "{}: bb{}: Retired = {:.2} * Issue + {:.2} over {} points",
                bench.abbr(),
                bb,
                a,
                b,
                points.len()
            );
        }
        let thinned = points
            .iter()
            .step_by((points.len() / 2000).max(1))
            .copied()
            .collect();
        out.push(Series {
            workload: bench.abbr().to_string(),
            points: thinned,
            fit,
        });
    }
    write_json("fig3", &out);
    out
}

/// Figure 4: warp issue vs retired time with least-squares fit — the
/// slope is near the stationary expectation for regular MM, far from it
/// for irregular SpMV.
pub fn fig4(opts: &ExecOptions) -> Vec<Series> {
    let computed = parallel_map(regular_vs_irregular(), opts.jobs, &|(bench, warps): (
        Benchmark,
        u64,
    )| {
        let warps = warps / size_scale().max(1);
        let (rec, _) = run_recorded(bench, warps);
        let points: Vec<(f64, f64)> = rec
            .warp_records
            .iter()
            .map(|r| (r.issue as f64, r.retire as f64))
            .collect();
        (bench, points)
    });
    let mut out = Vec::new();
    for (bench, points) in computed {
        let fit = least_squares(&points);
        if let Some((a, b)) = fit {
            println!(
                "{}: warps: Retired = {:.2} * Issue + {:.2} over {} warps",
                bench.abbr(),
                a,
                b,
                points.len()
            );
        }
        out.push(Series {
            workload: bench.abbr().to_string(),
            points,
            fit,
        });
    }
    write_json("fig4", &out);
    out
}

/// Figure 6: IPC of all VGG-16 conv/pool/dense kernels, clustered by
/// GPU BBV — kernels in the same cluster have similar IPC.
///
/// Inherently sequential: one recorded VGG-16 inference produces every
/// kernel record, so there is nothing to fan out.
pub fn fig6() -> Vec<(String, usize, f64)> {
    let cfg = r9_nano();
    let mut gpu = GpuSimulator::new(cfg.clone());
    let app = RealWorldApp::Vgg16.build(&mut gpu, DnnScale::default(), 3);
    // run fully detailed but under a Photon controller with no sampling
    // levels: it records each kernel's GPU BBV and measured IPC.
    let mut ph = PhotonController::new(scaled_photon_config(Levels::none()), cfg.num_cus as u64);
    app.run(&mut gpu, &mut ph).expect("vgg run");

    // greedy clustering by GPU-BBV distance
    let records = ph.history().records();
    let mut clusters: Vec<usize> = Vec::with_capacity(records.len());
    let mut reps: Vec<usize> = Vec::new();
    for (i, r) in records.iter().enumerate() {
        let found = reps
            .iter()
            .position(|&rep| records[rep].gpu_bbv.distance(&r.gpu_bbv) < 0.25);
        match found {
            Some(c) => clusters.push(c),
            None => {
                reps.push(i);
                clusters.push(reps.len() - 1);
            }
        }
    }
    let mut rows = Vec::new();
    let mut table = Table::new(&["kernel", "layer-kernel", "cluster", "IPC"]);
    for (i, (r, c)) in records.iter().zip(&clusters).enumerate() {
        table.row(vec![
            i.to_string(),
            r.name.clone(),
            c.to_string(),
            format!("{:.2}", r.ipc),
        ]);
        rows.push((r.name.clone(), *c, r.ipc));
    }
    println!("{}", table.render());

    // report intra-cluster vs global IPC spread
    let n_clusters = reps.len();
    let global_mean = rows.iter().map(|r| r.2).sum::<f64>() / rows.len() as f64;
    let global_var = rows
        .iter()
        .map(|r| (r.2 - global_mean).powi(2))
        .sum::<f64>()
        / rows.len() as f64;
    let mut intra_var = 0.0;
    for c in 0..n_clusters {
        let members: Vec<f64> = rows.iter().filter(|r| r.1 == c).map(|r| r.2).collect();
        let m = members.iter().sum::<f64>() / members.len() as f64;
        intra_var += members.iter().map(|x| (x - m).powi(2)).sum::<f64>();
    }
    intra_var /= rows.len() as f64;
    println!(
        "{} kernels in {} clusters; IPC variance global {:.3} vs intra-cluster {:.3}",
        rows.len(),
        n_clusters,
        global_var,
        intra_var
    );
    write_json("fig6", &rows);
    rows
}

fn distribution_figure(
    name: &str,
    opts: &ExecOptions,
    per_item: impl Fn(&OnlineAnalysis) -> Vec<(String, f64)> + Sync,
) -> Vec<(String, String, f64, f64)> {
    let pairs = vec![(Benchmark::Sc, 8192u64), (Benchmark::Spmv, 1024)];
    let computed = parallel_map(pairs, opts.jobs, &|(bench, warps): (Benchmark, u64)| {
        let warps = warps / size_scale().max(1);
        let cfg = r9_nano();
        let mut gpu = GpuSimulator::new(cfg);
        let app = bench.build(&mut gpu, warps, 7);
        let launch = &app.launches()[0].launch;
        let total = launch.total_warps();
        let bb_map = launch.kernel.program().basic_blocks();

        // all warps
        let all_traces: Vec<_> = (0..total)
            .map(|w| {
                gpu_sim::trace_warp_isolated(launch, gpu.mem(), w, 50_000_000)
                    .expect("figure kernels trace cleanly")
            })
            .collect();
        let all =
            OnlineAnalysis::from_traces(&all_traces, bb_map).expect("figure kernels have warps");
        // 1% sample
        let ids = photon::sample_warp_ids(total, 0.01, 8);
        let sample_traces: Vec<_> = ids
            .iter()
            .map(|&w| {
                gpu_sim::trace_warp_isolated(launch, gpu.mem(), w, 50_000_000)
                    .expect("figure kernels trace cleanly")
            })
            .collect();
        let sample =
            OnlineAnalysis::from_traces(&sample_traces, bb_map).expect("figure kernels have warps");
        (bench, per_item(&all), per_item(&sample))
    });
    let mut out = Vec::new();
    for (bench, a, s) in computed {
        println!("{} ({name}):", bench.abbr());
        let mut table = Table::new(&["item", "all warps", "1% sample"]);
        for (key, va) in &a {
            let vs = s
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v)
                .unwrap_or(0.0);
            table.row(vec![
                key.clone(),
                format!("{:.4}", va),
                format!("{:.4}", vs),
            ]);
            out.push((bench.abbr().to_string(), key.clone(), *va, vs));
        }
        println!("{}", table.render());
    }
    out
}

/// Figure 8: basic-block instruction-share distribution, all warps vs a
/// 1 % sample — the sample suffices for online analysis.
pub fn fig8(opts: &ExecOptions) -> Vec<(String, String, f64, f64)> {
    let rows = distribution_figure("basic blocks", opts, |a| {
        a.bb_inst_share
            .iter()
            .map(|(bb, share)| (format!("bb{}", bb.0), *share))
            .collect()
    });
    write_json("fig8", &rows);
    rows
}

/// Figure 11: warp-type distribution, all warps vs a 1 % sample —
/// regular applications have a dominant type, irregular ones do not.
pub fn fig11(opts: &ExecOptions) -> Vec<(String, String, f64, f64)> {
    let rows = distribution_figure("warp types", opts, |a| {
        let total: u64 = a.types.iter().map(|(_, n)| *n).sum();
        a.types
            .iter()
            .take(8)
            .enumerate()
            .map(|(i, (_, n))| (format!("type{}", i), *n as f64 / total as f64))
            .collect()
    });
    write_json("fig11", &rows);
    rows
}
