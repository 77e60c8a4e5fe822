//! `photon-loadgen` — closed-loop load generator for photon-serve.
//!
//! Drives N clients against a running server with a duplicate-heavy
//! spec mix (every client cycles the same three FIR specs, so identical
//! submissions collide constantly), in two phases per client count:
//! **cold** (empty caches: submissions lead or coalesce onto real
//! simulations) then **warm** (identical resubmissions: served from the
//! result store). Writes `results/BENCH_serve.json` with p50/p99
//! latency, jobs/sec, and cache-hit / coalesce rates per client count —
//! the scaling claim as a checkable artifact.
//!
//! ```console
//! $ photon-loadgen --addr 127.0.0.1:41723 --clients 4 --jobs-per-client 3 --check
//! ```
//!
//! `--check` exits nonzero unless every fetch succeeded, the coalesce
//! rate is positive, and the warm p50 is at least 10x below the cold
//! p50 — the CI serve gate runs exactly this.

use gpu_sim::GpuConfig;
use gpu_workloads::registry::Benchmark;
use photon::Levels;
use photon_bench::harness::write_json;
use photon_bench::{Method, RunSpec};
use photon_serve::client::{response_job, response_ok, stats_counter, Client};
use serde::Serialize;
use serde_json::Value;
use std::time::Instant;

/// The duplicate-heavy mix: three small FIR specs (one per lane
/// flavor). Small on purpose — cold latency is simulation-bound
/// (tens of ms), warm latency is store-bound (sub-ms), which is the
/// contrast the benchmark exists to measure. The warp count scales
/// with `clients` (more clients -> more cold work, keeping the cold
/// phase simulation-bound under contention) and is perturbed by `salt`
/// so each series point gets distinct specs — a later point's cold
/// phase must not hit caches warmed by an earlier one.
fn mix(clients: usize, salt: usize) -> Vec<RunSpec> {
    let gpu = GpuConfig::tiny();
    let w = (2048 * clients + 128 * salt) as u64;
    vec![
        RunSpec::bench(
            gpu.clone(),
            Benchmark::Fir,
            w,
            Method::Photon(Levels::all()),
        ),
        RunSpec::bench(gpu.clone(), Benchmark::Fir, w, Method::Full),
        RunSpec::bench(gpu, Benchmark::Fir, 2 * w, Method::Pka),
    ]
}

/// One phase's aggregate numbers.
#[derive(Debug, Clone, Default, Serialize)]
struct PhaseStats {
    /// Jobs completed in the phase.
    jobs: u64,
    /// Fetches that did not return a completed report.
    failed_fetches: u64,
    /// Median end-to-end latency (submit to final report), ms.
    p50_ms: f64,
    /// 99th-percentile latency, ms.
    p99_ms: f64,
    /// Phase throughput across all clients.
    jobs_per_sec: f64,
    /// Fraction of submissions answered instantly from a cache/store.
    cache_hit_rate: f64,
    /// Fraction of submissions that coalesced onto a live job.
    coalesce_rate: f64,
}

/// One client-count's cold + warm measurements.
#[derive(Debug, Clone, Serialize)]
struct SeriesPoint {
    /// Concurrent closed-loop clients.
    clients: usize,
    /// Jobs each client submitted per phase.
    jobs_per_client: usize,
    /// First pass: empty caches.
    cold: PhaseStats,
    /// Second pass: identical resubmissions.
    warm: PhaseStats,
}

/// The whole `results/BENCH_serve.json` artifact.
#[derive(Debug, Clone, Serialize)]
struct ServeBench {
    /// Artifact schema version.
    schema_version: u32,
    /// Server address driven.
    addr: String,
    /// One point per requested client count.
    series: Vec<SeriesPoint>,
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * q).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

struct PhaseCounters {
    submitted: u64,
    coalesced: u64,
    cache_hits: u64,
}

fn phase_counters(stats: &Value) -> PhaseCounters {
    PhaseCounters {
        submitted: stats_counter(stats, "serve.submitted")
            + stats_counter(stats, "serve.coalesced")
            + stats_counter(stats, "serve.cache_hits"),
        coalesced: stats_counter(stats, "serve.coalesced"),
        cache_hits: stats_counter(stats, "serve.cache_hits"),
    }
}

/// Runs one phase: `clients` threads, each submitting and awaiting
/// `jobs_per_client` jobs from the shared mix.
fn run_phase(
    addr: &str,
    clients: usize,
    jobs_per_client: usize,
    salt: usize,
) -> (PhaseStats, Vec<f64>) {
    let before = {
        let mut c = Client::connect(addr).expect("connecting for stats");
        c.stats().expect("stats request")
    };
    let started = Instant::now();
    let barrier = std::sync::Barrier::new(clients);
    let results: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|ci| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut latencies = Vec::new();
                    let mut failed = 0u64;
                    // Connect before the barrier: every thread must
                    // reach wait() or the others block forever, so a
                    // failed connect records its failures only after
                    // releasing the rendezvous.
                    let client = Client::connect(addr);
                    let specs = mix(clients, salt);
                    barrier.wait();
                    let mut client = match client {
                        Ok(c) => c,
                        Err(_) => return (latencies, jobs_per_client as u64),
                    };
                    for j in 0..jobs_per_client {
                        // Same cycle for every client: maximally
                        // duplicate-heavy.
                        let spec = &specs[j % specs.len()];
                        let t0 = Instant::now();
                        let ok = (|| -> std::io::Result<bool> {
                            let sub = client.submit(spec, &format!("client-{ci}"))?;
                            if !response_ok(&sub) {
                                return Ok(false);
                            }
                            let job = match response_job(&sub) {
                                Some(j) => j,
                                None => return Ok(false),
                            };
                            // A submit answered from cache is already
                            // done — waiting would only round-trip.
                            let done = matches!(
                                sub.get("state"),
                                Some(Value::String(s)) if s == "done"
                            );
                            if !done {
                                let fin = client.wait(&job)?;
                                if !response_ok(&fin) {
                                    return Ok(false);
                                }
                            }
                            let fetched = client.fetch(&job)?;
                            Ok(response_ok(&fetched)
                                && matches!(
                                    fetched.get("report").and_then(|r| r.get("completed")),
                                    Some(Value::Bool(true))
                                ))
                        })()
                        .unwrap_or(false);
                        if !ok {
                            failed += 1;
                        }
                        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    (latencies, failed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let after = {
        let mut c = Client::connect(addr).expect("connecting for stats");
        c.stats().expect("stats request")
    };

    let mut latencies: Vec<f64> = Vec::new();
    let mut failed = 0u64;
    for (l, f) in results {
        latencies.extend(l);
        failed += f;
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let jobs = latencies.len() as u64;
    let (b, a) = (phase_counters(&before), phase_counters(&after));
    let submitted = a.submitted.saturating_sub(b.submitted).max(1);
    let stats = PhaseStats {
        jobs,
        failed_fetches: failed,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        jobs_per_sec: if wall > 0.0 { jobs as f64 / wall } else { 0.0 },
        cache_hit_rate: a.cache_hits.saturating_sub(b.cache_hits) as f64 / submitted as f64,
        coalesce_rate: a.coalesced.saturating_sub(b.coalesced) as f64 / submitted as f64,
    };
    (stats, latencies)
}

fn usage() -> &'static str {
    "usage: photon-loadgen --addr HOST:PORT [--clients N[,N...]] [--jobs-per-client N]\n\
     \x20                     [--out NAME] [--check]\n\
     \x20 --addr HOST:PORT     server to drive (required)\n\
     \x20 --clients LIST       comma-separated client counts (default 4)\n\
     \x20 --jobs-per-client N  closed-loop jobs per client per phase (default 3)\n\
     \x20 --out NAME           artifact name (default BENCH_serve -> results/BENCH_serve.json)\n\
     \x20 --check              exit nonzero unless: zero failed fetches, coalesce rate > 0,\n\
     \x20                      and warm p50 at least 10x below cold p50"
}

fn main() {
    let mut addr = String::new();
    let mut clients_list: Vec<usize> = vec![4];
    let mut jobs_per_client = 3usize;
    let mut out = "BENCH_serve".to_string();
    let mut check = false;

    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().unwrap_or_default(),
            "--clients" => {
                let v = it.next().unwrap_or_default();
                clients_list = v
                    .split(',')
                    .filter_map(|s| s.trim().parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .collect();
                if clients_list.is_empty() {
                    eprintln!("--clients: bad value {v:?}\n{}", usage());
                    std::process::exit(2);
                }
            }
            "--jobs-per-client" => {
                let v = it.next().unwrap_or_default();
                jobs_per_client = match v.parse::<usize>() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("--jobs-per-client: bad value {v:?}\n{}", usage());
                        std::process::exit(2);
                    }
                };
            }
            "--out" => out = it.next().unwrap_or_default(),
            "--check" => check = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}\n{}", usage());
                std::process::exit(2);
            }
        }
    }
    if addr.is_empty() {
        eprintln!("--addr is required\n{}", usage());
        std::process::exit(2);
    }

    let mut series = Vec::new();
    for (salt, &clients) in clients_list.iter().enumerate() {
        eprintln!("loadgen: {clients} client(s) x {jobs_per_client} job(s), cold phase...");
        let (cold, _) = run_phase(&addr, clients, jobs_per_client, salt);
        eprintln!(
            "loadgen:   cold p50 {:.1} ms, p99 {:.1} ms, {:.1} jobs/s, coalesce {:.0}%",
            cold.p50_ms,
            cold.p99_ms,
            cold.jobs_per_sec,
            cold.coalesce_rate * 100.0
        );
        eprintln!("loadgen: {clients} client(s), warm phase (identical resubmissions)...");
        let (warm, _) = run_phase(&addr, clients, jobs_per_client, salt);
        eprintln!(
            "loadgen:   warm p50 {:.2} ms, p99 {:.2} ms, {:.1} jobs/s, cache-hit {:.0}%",
            warm.p50_ms,
            warm.p99_ms,
            warm.jobs_per_sec,
            warm.cache_hit_rate * 100.0
        );
        series.push(SeriesPoint {
            clients,
            jobs_per_client,
            cold,
            warm,
        });
    }

    let bench = ServeBench {
        schema_version: 1,
        addr: addr.clone(),
        series,
    };
    write_json(&out, &bench);

    if check {
        let mut failures = Vec::new();
        for p in &bench.series {
            if p.cold.failed_fetches + p.warm.failed_fetches > 0 {
                failures.push(format!(
                    "{} clients: {} failed fetches",
                    p.clients,
                    p.cold.failed_fetches + p.warm.failed_fetches
                ));
            }
            if p.clients > 1 && p.cold.coalesce_rate <= 0.0 && p.warm.coalesce_rate <= 0.0 {
                failures.push(format!("{} clients: coalesce rate is zero", p.clients));
            }
            if p.warm.p50_ms * 10.0 > p.cold.p50_ms {
                failures.push(format!(
                    "{} clients: warm p50 {:.2} ms not 10x below cold p50 {:.2} ms",
                    p.clients, p.warm.p50_ms, p.cold.p50_ms
                ));
            }
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("loadgen check FAILED: {f}");
            }
            std::process::exit(1);
        }
        println!("loadgen check passed");
    }
}
