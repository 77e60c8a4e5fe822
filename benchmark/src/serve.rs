//! The serve phase: an in-process `photon_serve::Server` on an
//! ephemeral loopback port, driven closed-loop by blocking `Client`s.
//! `serve_closed2` runs it over the 80-spec mix; every simulation
//! workload runs it over its own Full and Photon specs, so the serve
//! metrics exist on every workload.

use crate::metrics::RunResult;
use crate::spans::Tracer;
use gpu_telemetry::span::SpanRecord;
use gpu_telemetry::MetricsSnapshot;
use photon_bench::harness::Measurement;
use photon_bench::specs::RunSpec;
use photon_bench::{journal_key, ExecOptions};
use photon_serve::client::{response_job, response_ok, Client};
use photon_serve::server::ShutdownHandle;
use photon_serve::{ServeOptions, Server};
use serde::Deserialize;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

pub const WORKERS: usize = 2;

struct Running {
    server: Arc<Server>,
    handle: ShutdownHandle,
    acceptor: JoinHandle<std::io::Result<usize>>,
    workers: Vec<JoinHandle<()>>,
    state_dir: PathBuf,
}

/// Brings a server up with all its state under `state_dir` and
/// connects `clients` clients. Returns the host seconds that took:
/// state directory, bind, scheduler, workers, acceptor, connects.
fn start(state_dir: &Path, clients: usize) -> std::io::Result<(Running, Vec<Client>, f64)> {
    let t0 = Instant::now();
    std::fs::create_dir_all(state_dir)?;
    let opts = ServeOptions {
        workers: WORKERS,
        exec: ExecOptions {
            jobs: 1,
            cache: true,
            cache_dir: Some(state_dir.join("cache")),
            journal: None,
            ..ExecOptions::default()
        },
        flightrec: Some(state_dir.join("flightrec")),
        ..ServeOptions::default()
    };
    let server = Arc::new(Server::bind(
        "127.0.0.1:0",
        opts,
        Some(state_dir.join("pending.jsonl")),
    )?);
    let addr = server.local_addr()?.to_string();
    let handle = server.shutdown_handle();
    let workers = server.spawn_workers();
    let srv = Arc::clone(&server);
    let acceptor = std::thread::Builder::new()
        .name("bench-acceptor".to_string())
        .spawn(move || srv.run())?;
    let running = Running {
        server,
        handle,
        acceptor,
        workers,
        state_dir: state_dir.to_path_buf(),
    };
    let mut conns = Vec::with_capacity(clients);
    for _ in 0..clients {
        match Client::connect(&addr) {
            Ok(c) => conns.push(c),
            Err(e) => {
                running.stop();
                return Err(e);
            }
        }
    }
    Ok((running, conns, t0.elapsed().as_secs_f64()))
}

impl Running {
    fn request_stop(&self) {
        self.handle.shutdown();
    }

    /// Drains the server, joins every thread it started and removes
    /// its state.
    fn stop(self) {
        self.handle.shutdown();
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
        drop(self.server);
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

/// One closed-loop job: submit, wait, fetch. The three round trips are
/// timed separately; the latency is submit to fetched.
struct Job {
    /// Seconds since this client's phase began.
    start_s: f64,
    latency_ms: f64,
    rtt_us: [f64; 3],
    ok: bool,
    fetched: Option<Value>,
}

fn run_job(
    client: &mut Client,
    spec: &RunSpec,
    tenant: &str,
    phase_began: Instant,
    tracer: &mut Tracer,
) -> Job {
    let span = tracer.open("serve", "job");
    let t0 = Instant::now();
    let mut rtt_us = [0.0; 3];
    let fetched = (|| -> std::io::Result<Option<Value>> {
        let s = tracer.open("serve", "submit");
        let sub = client.submit(spec, tenant);
        tracer.close(s);
        rtt_us[0] = t0.elapsed().as_secs_f64() * 1e6;
        let sub = sub?;
        let Some(id) = response_job(&sub).filter(|_| response_ok(&sub)) else {
            return Ok(None);
        };
        let t1 = Instant::now();
        let s = tracer.open("serve", "wait");
        let fin = client.wait(&id);
        tracer.close(s);
        rtt_us[1] = t1.elapsed().as_secs_f64() * 1e6;
        if !response_ok(&fin?) {
            return Ok(None);
        }
        let t2 = Instant::now();
        let s = tracer.open("serve", "fetch");
        let fetched = client.fetch(&id);
        tracer.close(s);
        rtt_us[2] = t2.elapsed().as_secs_f64() * 1e6;
        let fetched = fetched?;
        let completed = matches!(
            fetched.get("report").and_then(|r| r.get("completed")),
            Some(Value::Bool(true))
        );
        Ok((response_ok(&fetched) && completed).then_some(fetched))
    })()
    .unwrap_or(None);
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    tracer.close(span);
    Job {
        start_s: (t0 - phase_began).as_secs_f64(),
        latency_ms,
        rtt_us,
        ok: fetched.is_some(),
        fetched,
    }
}

/// A finished cold job's report: the simulation the server ran.
#[derive(Debug, Clone)]
pub struct ColdReport {
    pub spec: RunSpec,
    pub latency_ms: f64,
    pub measurement: Measurement,
    pub metrics: MetricsSnapshot,
}

fn cold_report(spec: &RunSpec, job: &Job) -> Option<ColdReport> {
    let fetched = job.fetched.as_ref()?;
    Some(ColdReport {
        spec: spec.clone(),
        latency_ms: job.latency_ms,
        measurement: Measurement::deserialize(fetched.get("report")?.get("measurement")?).ok()?,
        metrics: MetricsSnapshot::deserialize(fetched.get("metrics")?).ok()?,
    })
}

#[derive(Debug, Default)]
pub struct ServeOutcome {
    /// Seconds each set-up took (the measured server's and the extra
    /// ones made only to time set-up).
    pub setup_s: Vec<f64>,
    /// Cold latencies of generation 0 (the specs the warm phase
    /// resubmits), and every generation's median.
    pub cold_ms: Vec<f64>,
    pub cold_generation_p50_ms: Vec<f64>,
    /// Warm latencies of every client.
    pub warm_ms: Vec<f64>,
    /// Client 0's warm latencies in the rounds it recorded spans, and
    /// in the rounds it did not (traced run only).
    pub warm_traced_ms: Vec<f64>,
    pub warm_untraced_ms: Vec<f64>,
    /// The warm phase cut into up to ten consecutive parts (of at least
    /// ten jobs per client): each part's
    /// median latency over all clients, and its jobs completed ÷ wall
    /// summed over the clients. The host's noise comes in bursts and
    /// only ever slows things down, so the quietest part is the
    /// steadiest estimate of what the server can do.
    pub warm_part_p50_ms: Vec<f64>,
    pub warm_part_jobs_per_s: Vec<f64>,
    pub cold_reports: Vec<ColdReport>,
    /// Submit, wait and fetch round trips of warm jobs.
    pub rtt_us: [Vec<f64>; 3],
    pub warm_cache_hit_rate: f64,
    pub coalesce_rate: f64,
    pub sim_runs: u64,
    pub rejected: u64,
    pub queued_ms_p50: f64,
}

fn server_metrics(client: &mut Client) -> Option<MetricsSnapshot> {
    let stats = client.stats().ok()?;
    MetricsSnapshot::deserialize(stats.get("metrics")?).ok()
}

struct ClientRun {
    /// `(generation, spec index, job)`.
    cold: Vec<(usize, usize, Job)>,
    warm: Vec<Job>,
    warm_traced: Vec<bool>,
    tracer: Tracer,
}

/// The shape of a serve phase. Both counts are fixed, never run
/// against a deadline: the server's memory grows with the jobs it has
/// answered, so a count that followed the host's speed would move
/// `peak_rss_mb`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// How many times the cold phase is made, each time with the same
    /// specs on other input data (so nothing is cached). One cold
    /// simulation is one sample of a noisy host; of several
    /// generations the quietest is reported.
    pub cold_generations: usize,
    /// Rounds every client makes over its specs in the warm phase.
    pub warm_rounds: usize,
}

/// Generation `g` of a spec: the same work on other data.
fn generation(spec: &RunSpec, g: usize) -> RunSpec {
    let mut s = spec.clone();
    s.seed ^= (g as u64) << 32;
    s
}

/// Runs the cold phase (every spec once per generation) and the warm
/// phase (generation 0's specs again, `plan.warm_rounds` times) and
/// folds fetch failures and the serve checks into `res`.
///
/// `extra_setups` servers are brought up and torn down only to time
/// set-up. In a traced run `exemplar` is submitted alone after the
/// phases and its server-side spans are fetched with the protocol's
/// `trace` op.
pub fn run(
    per_client: &[Vec<RunSpec>],
    plan: Plan,
    state_root: &Path,
    extra_setups: usize,
    exemplar: &RunSpec,
    tracer: &mut Tracer,
    res: &mut RunResult,
) -> ServeOutcome {
    let mut out = ServeOutcome::default();
    let clients = per_client.len();
    let state_dir = |i: usize| state_root.join(format!("serve-{}-{i}", std::process::id()));

    // Extra set-ups first: each is timed, asked to stop at once, and
    // joined at the end so their drains overlap the measured phases.
    let mut extras = Vec::new();
    for i in 0..extra_setups {
        if let Ok((running, conns, secs)) = start(&state_dir(i + 1), clients) {
            drop(conns);
            running.request_stop();
            out.setup_s.push(secs);
            extras.push(running);
        }
    }

    let setup_span = tracer.open("serve", "serve.setup");
    let started = start(&state_dir(0), clients + 1);
    tracer.close(setup_span);
    let (running, mut conns, secs) = match started {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: could not start the server: {e}");
            res.attempt(false);
            extras.into_iter().for_each(Running::stop);
            return out;
        }
    };
    out.setup_s.push(secs);
    let mut control = conns.pop().expect("one connection more than clients");

    let barrier = Barrier::new(clients + 1);
    let traced = tracer.enabled();
    let (runs, after_cold): (Vec<ClientRun>, Option<MetricsSnapshot>) =
        std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .into_iter()
                .zip(per_client)
                .enumerate()
                .map(|(ci, (mut client, specs))| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let tenant = format!("client-{ci}");
                        let mut off = Tracer::new(false);
                        // Only client 0 records spans, so the tree stays
                        // one thread's sequence.
                        let mut mine = Tracer::new(traced && ci == 0);
                        barrier.wait();
                        let t0 = Instant::now();
                        let mut cold = Vec::new();
                        for g in 0..plan.cold_generations {
                            for (i, s) in specs.iter().enumerate() {
                                let job =
                                    run_job(&mut client, &generation(s, g), &tenant, t0, &mut off);
                                cold.push((g, i, job));
                            }
                            // Generations start together, so a coalescing
                            // pair stays a pair.
                            barrier.wait();
                        }
                        barrier.wait();
                        let t0 = Instant::now();
                        let mut warm = Vec::new();
                        let mut warm_traced = Vec::new();
                        for round in 0..plan.warm_rounds {
                            let record = round % 2 == 1;
                            for s in specs {
                                let t = if record { &mut mine } else { &mut off };
                                warm.push(run_job(&mut client, s, &tenant, t0, t));
                                warm_traced.push(record);
                            }
                        }
                        ClientRun {
                            cold,
                            warm,
                            warm_traced,
                            tracer: mine,
                        }
                    })
                })
                .collect();
            let cold_span = tracer.open("serve", "serve.cold");
            barrier.wait();
            for _ in 0..plan.cold_generations {
                barrier.wait();
            }
            tracer.close(cold_span);
            let after_cold = server_metrics(&mut control);
            let warm_span = tracer.open("serve", "serve.warm");
            barrier.wait();
            let runs: Vec<ClientRun> = handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect();
            if let Some(first) = runs.first() {
                tracer.adopt(first.tracer.spans());
            }
            tracer.close(warm_span);
            (runs, after_cold)
        });
    let after_warm = server_metrics(&mut control);

    let mut by_generation = vec![Vec::new(); plan.cold_generations];
    for (ci, (run, specs)) in runs.iter().zip(per_client).enumerate() {
        for (g, i, job) in &run.cold {
            res.attempt(job.ok);
            by_generation[*g].push(job.latency_ms);
            if *g > 0 {
                continue;
            }
            out.cold_ms.push(job.latency_ms);
            if let Some(r) = cold_report(&specs[*i], job) {
                out.cold_reports.push(r);
            }
        }
        for (job, recorded) in run.warm.iter().zip(&run.warm_traced) {
            res.attempt(job.ok);
            out.warm_ms.push(job.latency_ms);
            for (k, series) in out.rtt_us.iter_mut().enumerate() {
                series.push(job.rtt_us[k]);
            }
            if traced && ci == 0 {
                if *recorded {
                    out.warm_traced_ms.push(job.latency_ms);
                } else {
                    out.warm_untraced_ms.push(job.latency_ms);
                }
            }
        }
    }
    out.cold_generation_p50_ms = by_generation
        .iter()
        .map(|g| crate::stats::median(g))
        .collect();
    let shortest = runs.iter().map(|r| r.warm.len()).min().unwrap_or(0);
    let parts = (shortest / 10).clamp(1, 10);
    for i in 0..parts {
        let mut latencies = Vec::new();
        let mut rate = 0.0;
        for run in &runs {
            let n = run.warm.len();
            let part = &run.warm[i * n / parts..(i + 1) * n / parts];
            let (Some(first), Some(last)) = (part.first(), part.last()) else {
                continue;
            };
            latencies.extend(part.iter().map(|j| j.latency_ms));
            let wall = last.start_s + last.latency_ms / 1e3 - first.start_s;
            rate += part.len() as f64 / wall.max(1e-9);
        }
        out.warm_part_p50_ms.push(crate::stats::median(&latencies));
        out.warm_part_jobs_per_s.push(rate);
    }

    let mut distinct: Vec<u64> = per_client.iter().flatten().map(journal_key).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let total_specs = (distinct.len() * plan.cold_generations) as u64;
    match (&after_cold, &after_warm) {
        (Some(cold), Some(warm)) => {
            let c = |m: &MetricsSnapshot, name: &str| m.counter(name).unwrap_or(0);
            let delta = |name: &str| c(warm, name) - c(cold, name);
            let warm_submissions =
                delta("serve.submitted") + delta("serve.coalesced") + delta("serve.cache_hits");
            out.warm_cache_hit_rate =
                delta("serve.cache_hits") as f64 / warm_submissions.max(1) as f64;
            let all = c(warm, "serve.submitted")
                + c(warm, "serve.coalesced")
                + c(warm, "serve.cache_hits");
            out.coalesce_rate = c(warm, "serve.coalesced") as f64 / all.max(1) as f64;
            out.sim_runs = c(warm, "serve.sim_runs");
            out.rejected = c(warm, "serve.rejected");
            out.queued_ms_p50 = warm
                .histograms
                .iter()
                .find(|h| h.name == "serve.queued_ms")
                .map_or(0.0, |h| h.p50 as f64);
            // Every distinct spec simulates exactly once, and every warm
            // submission is answered from the store.
            if !res.attempt(out.sim_runs == total_specs) {
                println!(
                    "CHECK FAILED: serve.sim_runs {} != {total_specs}",
                    out.sim_runs
                );
            }
            if !res.attempt(out.warm_cache_hit_rate == 1.0) {
                println!(
                    "CHECK FAILED: warm cache_hit_rate {} != 1",
                    out.warm_cache_hit_rate
                );
            }
        }
        _ => {
            println!("CHECK FAILED: the server's stats could not be read");
            res.attempt(false);
        }
    }

    if traced {
        run_exemplar(&mut control, exemplar, tracer, res);
    }

    drop(control);
    running.stop();
    extras.into_iter().for_each(Running::stop);
    out
}

/// One cold job submitted alone, with the server's own spans of it
/// (queued, cache-probe, sim, persist) fetched through the protocol's
/// `trace` op and hung under the `wait` span they happened during.
fn run_exemplar(client: &mut Client, spec: &RunSpec, tracer: &mut Tracer, res: &mut RunResult) {
    let span = tracer.open("serve", "serve.exemplar");
    let since = gpu_telemetry::span::now_us();
    let ok = (|| -> std::io::Result<bool> {
        let sub = tracer.within("serve", "submit", |_| client.submit(spec, "exemplar"))?;
        let Some(id) = response_job(&sub).filter(|_| response_ok(&sub)) else {
            return Ok(false);
        };
        let wait = tracer.open("serve", "wait");
        let fin = client.wait(&id);
        let records = client
            .trace(&id)
            .ok()
            .and_then(|v| Vec::<SpanRecord>::deserialize(v.get("spans")?).ok())
            .unwrap_or_default();
        tracer.import(&records, since);
        tracer.close(wait);
        if !response_ok(&fin?) {
            return Ok(false);
        }
        let fetched = tracer.within("serve", "fetch", |_| client.fetch(&id))?;
        Ok(response_ok(&fetched))
    })()
    .unwrap_or(false);
    res.attempt(ok);
    tracer.close(span);
}
