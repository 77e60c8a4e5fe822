//! One run of one workload: the correctness passes, the timed reps (or
//! the serve phases), the serve epilogue, and — in the traced run — the
//! layer probes. Ends with the metrics the mode reports.

use crate::expected::SimStats;
use crate::host::{peak_rss_mb, HostStamp};
use crate::metrics::RunResult;
use crate::probes::{self, Built, DirectPass};
use crate::serve::{self, ColdReport, Plan, ServeOutcome};
use crate::spans::{Span, Tracer};
use crate::stats::{median, tail};
use crate::workloads::{self, SimWorkload};
use gpu_telemetry::span::{self, SpanKind};
use gpu_telemetry::MetricsSnapshot;
use photon_bench::executor::{run_specs, ExecOptions};
use photon_bench::harness::Measurement;
use photon_bench::journal_key;
use photon_bench::specs::{Method, RunSpec};
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Quarter sizes, one round: the end-to-end smoke the tests drive.
    pub quick: bool,
    /// The benchmark's own directory; scratch state lives in `out/`.
    pub bench_dir: PathBuf,
}

pub struct Outcome {
    pub res: RunResult,
    pub stats: SimStats,
    pub host: HostStamp,
    pub spans: Vec<Span>,
}

/// How every simulation goes through the executor: the path
/// `photon_sim` takes, one worker, nothing cached or journaled.
fn exec_options() -> ExecOptions {
    ExecOptions {
        jobs: 1,
        cache: false,
        journal: None,
        ..ExecOptions::default()
    }
}

/// Share of `--seconds` the traced run gives to the timed reps; the
/// rest goes to the probes and the serve epilogue.
const TRACED_REPS_SHARE: f64 = 0.45;
/// The serve epilogue of a simulation workload: the cold submission
/// made three times over, then 40 fetches per client (a 127-kernel
/// result takes 50 ms to fetch, a one-kernel result 2 ms).
const EPILOGUE: Plan = Plan {
    cold_generations: 3,
    warm_rounds: 40,
};
/// Warm rounds of `serve_closed2` per second of `--seconds`: with the
/// cold phase near 5 s on the reference host, 25 rounds (2000 jobs)
/// fill a 10 s run.
const WARM_ROUNDS_PER_SECOND: f64 = 2.5;
/// Servers brought up only to time set-up on `serve_closed2`.
const EXTRA_SETUPS: usize = 24;

struct Rep {
    outer_s: f64,
    traced: bool,
    m: Measurement,
    metrics: MetricsSnapshot,
}

/// One `run_specs(&[spec])` call: a fresh simulator every time (the
/// executor simulates identical specs of one call only once).
fn run_rep(
    spec: &RunSpec,
    span_name: Option<&str>,
    tr: &mut Tracer,
    res: &mut RunResult,
) -> Option<Rep> {
    let span = span_name.map(|n| tr.open("bench", n));
    let since = span::now_us();
    let t0 = Instant::now();
    let mut report = run_specs(std::slice::from_ref(spec), &exec_options());
    let outer_s = t0.elapsed().as_secs_f64();
    if let Some(s) = span {
        // The executor's own job, cache-probe and sim spans (and the
        // epoch engine's aggregates) of this call.
        tr.import(&span::job_records(journal_key(spec)), since);
        tr.close(s);
    }
    let r = report.results.pop()?;
    let m = r.outcome.measurement().cloned();
    if !res.attempt(m.is_some()) {
        println!(
            "RUN FAILED: {} did not complete: {:?}",
            spec.label(),
            r.outcome
        );
    }
    Some(Rep {
        outer_s,
        traced: span_name.is_some(),
        m: m?,
        metrics: r.metrics,
    })
}

/// What one method did on a workload: exact counts and the host walls.
#[derive(Default)]
struct Agg {
    detailed_insts: u64,
    functional_insts: u64,
    cycles: u64,
    detailed_warps: u64,
    predicted_warps: u64,
    skipped_kernels: u64,
    kernel_cycles: Vec<u64>,
    walls: Vec<f64>,
    metrics: MetricsSnapshot,
    sample: Option<Measurement>,
}

impl Agg {
    fn insts(&self) -> u64 {
        self.detailed_insts + self.functional_insts
    }

    /// The wall the counts above belong to: the fastest rep of a spec,
    /// or the sum over the jobs of a mix.
    fn wall(&self) -> f64 {
        fastest(&self.walls)
    }

    fn counter(&self, name: &str) -> f64 {
        self.metrics.counter(name).unwrap_or(0) as f64
    }

    fn add_counts(&mut self, m: &Measurement, metrics: &MetricsSnapshot) {
        self.detailed_insts += m.detailed_insts;
        self.functional_insts += m.functional_insts;
        self.cycles += m.sim_cycles;
        self.detailed_warps += m.detailed_warps;
        self.predicted_warps += m.predicted_warps;
        self.skipped_kernels += m.skipped_kernels as u64;
        self.metrics.merge(metrics);
        if self.sample.is_none() {
            self.kernel_cycles = m.kernel_cycles.clone();
            self.sample = Some(m.clone());
        }
    }

    /// Reps of one spec: the counts repeat, the walls are the series.
    fn of_reps<'a>(reps: impl Iterator<Item = &'a Rep>) -> Agg {
        let mut a = Agg::default();
        for r in reps {
            if a.sample.is_none() {
                a.add_counts(&r.m, &r.metrics);
            }
            a.walls.push(r.m.wall_secs);
        }
        a
    }

    /// Distinct jobs of the serve mix: counts and walls add up.
    fn of_reports<'a>(reports: impl Iterator<Item = &'a ColdReport>) -> Agg {
        let mut a = Agg::default();
        let mut wall = 0.0;
        for r in reports {
            a.add_counts(&r.measurement, &r.metrics);
            wall += r.measurement.wall_secs;
        }
        a.walls.push(wall);
        a
    }
}

fn err_pct(sampled: u64, full: u64) -> f64 {
    (sampled as f64 - full as f64).abs() / (full as f64).max(1.0) * 100.0
}

/// `downstream == misses - mshr_merges` at L1V+L1S (into L2) and at L2
/// (into DRAM), from a run's registry snapshot.
fn conservation_holds(full: &Agg) -> bool {
    let c = |n: &str| full.metrics.counter(n).unwrap_or(0);
    let into_l2 = c("mem.l1v.misses") + c("mem.l1s.misses")
        - c("mem.l1v.mshr_merges")
        - c("mem.l1s.mshr_merges");
    let l2_ok = c("mem.l2.hits") + c("mem.l2.misses") == into_l2;
    let dram_ok = c("mem.dram.accesses") == c("mem.l2.misses") - c("mem.l2.mshr_merges");
    if !(l2_ok && dram_ok) {
        println!(
            "CHECK FAILED: conservation: L2 accesses {} vs upstream misses-merges {}, DRAM {} vs L2 misses-merges {}",
            c("mem.l2.hits") + c("mem.l2.misses"),
            into_l2,
            c("mem.dram.accesses"),
            c("mem.l2.misses") - c("mem.l2.mshr_merges")
        );
    }
    l2_ok && dram_ok
}

/// Everything the timed part of a run produced.
struct Measured {
    full: Agg,
    photon: Agg,
    /// `mm_det2`: walls of the serial reference reps.
    serial_walls: Vec<f64>,
    setup_s: Vec<f64>,
    photon_err_pct: f64,
    serve: ServeOutcome,
    /// Host seconds around the simulation the executor (or the server)
    /// adds on top of building the workload, per job.
    overhead_s: Vec<f64>,
    trace_overhead_pct: f64,
    /// Simulated Minsts per host second of Full, per rep (or per job of
    /// the serve mix), and the figure reported from them.
    full_rates: Vec<f64>,
    full_rate: f64,
    /// Host seconds of Photon, per rep (or per job), and the figure
    /// reported from them.
    photon_walls: Vec<f64>,
    photon_wall: f64,
}

/// The host's noise (other tenants of the machine) comes in bursts and
/// only ever slows a rep down, so of several reps of the same
/// deterministic work the fastest is the steadiest estimate; the median
/// is printed beside it.
fn fastest(walls: &[f64]) -> f64 {
    walls.iter().copied().fold(f64::INFINITY, f64::min)
}

fn highest(rates: &[f64]) -> f64 {
    rates.iter().copied().fold(0.0, f64::max)
}

fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    if untraced > 0.0 {
        (traced - untraced) / untraced * 100.0
    } else {
        0.0
    }
}

fn measure_sim(
    w: &SimWorkload,
    opts: &Options,
    tr: &mut Tracer,
    res: &mut RunResult,
) -> Option<Measured> {
    let (full_spec, photon_spec) = (w.full(), w.photon());
    let serial_spec = w.serial_reference.then(|| w.serial());
    let share = if opts.trace { TRACED_REPS_SHARE } else { 1.0 };
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds * share);
    let mut full = Vec::new();
    let mut photon = Vec::new();
    let mut serial = Vec::new();
    loop {
        // Alternating, so drift of the host hits both methods alike.
        // In the traced run these reps are the reference the traced
        // ones are compared with; their time belongs to no layer.
        let reference = tr.open("(untraced)", "reference.reps");
        full.push(run_rep(&full_spec, None, tr, res)?);
        photon.push(run_rep(&photon_spec, None, tr, res)?);
        if let Some(s) = &serial_spec {
            serial.push(run_rep(s, None, tr, res)?);
        }
        tr.close(reference);
        if opts.trace {
            full.push(run_rep(&full_spec, Some("run.full"), tr, res)?);
            photon.push(run_rep(&photon_spec, Some("run.photon"), tr, res)?);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let outer = |reps: &[Rep], traced: bool| {
        median(
            &reps
                .iter()
                .filter(|r| r.traced == traced)
                .map(|r| r.outer_s)
                .collect::<Vec<_>>(),
        )
    };
    let trace_overhead_pct = overhead_pct(
        outer(&full, true) + outer(&photon, true),
        outer(&full, false) + outer(&photon, false),
    );
    let setup_s: Vec<f64> = full
        .iter()
        .chain(&photon)
        .chain(&serial)
        .map(|r| r.outer_s - r.m.wall_secs)
        .collect();

    // The traced run's epilogue: two clients ask for this workload's
    // Photon result at the same moment. One submission simulates, the
    // other coalesces onto it; after that both are answered from the
    // store. It is what gives the `serve.*` layer metrics a meaning on
    // a simulation workload.
    let serve = if opts.trace {
        serve::run(
            &[vec![photon_spec.clone()], vec![photon_spec.clone()]],
            EPILOGUE,
            &opts.bench_dir.join("out"),
            0,
            &exemplar_of(&photon_spec),
            tr,
            res,
        )
    } else {
        ServeOutcome::default()
    };
    let full = Agg::of_reps(full.iter());
    let photon = Agg::of_reps(photon.iter());
    let full_rates: Vec<f64> = full
        .walls
        .iter()
        .map(|w| full.insts() as f64 / w.max(1e-9) / 1e6)
        .collect();
    Some(Measured {
        photon_err_pct: err_pct(photon.cycles, full.cycles),
        full_rate: highest(&full_rates),
        full_rates,
        photon_wall: fastest(&photon.walls),
        photon_walls: photon.walls.clone(),
        overhead_s: setup_s.clone(),
        full,
        photon,
        serial_walls: serial.iter().map(|r| r.m.wall_secs).collect(),
        setup_s,
        serve,
        trace_overhead_pct,
    })
}

/// A cold job no phase has submitted: the same spec on other data.
fn exemplar_of(spec: &RunSpec) -> RunSpec {
    let mut s = spec.clone();
    s.seed ^= 0x5eed_0000;
    s
}

fn measure_serve(opts: &Options, tr: &mut Tracer, res: &mut RunResult) -> Measured {
    let mix = workloads::serve_mix(opts.seed, opts.quick);
    let serve = serve::run(
        &mix.per_client,
        Plan {
            cold_generations: 1,
            warm_rounds: mix
                .min_warm_rounds
                .max((WARM_ROUNDS_PER_SECOND * opts.seconds) as usize),
        },
        &opts.bench_dir.join("out"),
        EXTRA_SETUPS,
        &exemplar_of(&mix.per_client[0][1]),
        tr,
        res,
    );
    let of = |full: bool| {
        Agg::of_reports(
            serve
                .cold_reports
                .iter()
                .filter(move |r| (r.spec.method == Method::Full) == full),
        )
    };
    // Every size ran under both methods: the error is the mean over
    // the pairs.
    let errs: Vec<f64> = serve
        .cold_reports
        .iter()
        .filter(|r| r.spec.method != Method::Full)
        .filter_map(|p| {
            serve
                .cold_reports
                .iter()
                .find(|f| f.spec.method == Method::Full && f.spec.workload == p.spec.workload)
                .map(|f| err_pct(p.measurement.sim_cycles, f.measurement.sim_cycles))
        })
        .collect();
    // Per job, as for the reps of a simulation workload, the quietest
    // one is the steadiest: the highest Full rate of the 40 jobs (the
    // rate hardly depends on the size) and the fastest Photon job (the
    // smallest size).
    let jobs = |full: bool| {
        serve
            .cold_reports
            .iter()
            .filter(move |r| (r.spec.method == Method::Full) == full)
            .map(|r| &r.measurement)
    };
    let full_rates: Vec<f64> = jobs(true)
        .map(|m| (m.detailed_insts + m.functional_insts) as f64 / m.wall_secs.max(1e-9) / 1e6)
        .collect();
    let photon_walls: Vec<f64> = jobs(false).map(|m| m.wall_secs).collect();
    Measured {
        full_rate: highest(&full_rates),
        full_rates,
        photon_wall: fastest(&photon_walls),
        photon_walls,
        full: of(true),
        photon: of(false),
        serial_walls: Vec::new(),
        setup_s: serve.setup_s.clone(),
        photon_err_pct: errs.iter().sum::<f64>() / errs.len().max(1) as f64,
        overhead_s: serve
            .cold_reports
            .iter()
            .map(|r| r.latency_ms / 1e3 - r.measurement.wall_secs)
            .collect(),
        trace_overhead_pct: overhead_pct(
            median(&serve.warm_traced_ms),
            median(&serve.warm_untraced_ms),
        ),
        serve,
    }
}

fn sim_stats(m: &Measured) -> SimStats {
    let mut s = SimStats::default();
    s.put("sim.cycles_full", m.full.cycles as f64);
    s.put("sim.cycles_photon", m.photon.cycles as f64);
    s.put("sim.insts_detailed", m.full.detailed_insts as f64);
    s.put("sim.events", m.full.counter("sim.events"));
    for name in [
        "mem.l1v.hits",
        "mem.l1v.misses",
        "mem.l1v.mshr_merges",
        "mem.l2.hits",
        "mem.l2.misses",
        "mem.l2.mshr_merges",
        "mem.dram.accesses",
    ] {
        s.put(name, m.full.counter(name));
    }
    s.put("photon_err_pct", m.photon_err_pct);
    s
}

fn put_end_to_end(m: &Measured, res: &mut RunResult) {
    res.put_series("setup_s", fastest(&m.setup_s), &m.setup_s);
    res.put_series("full_minsts_per_s", m.full_rate, &m.full_rates);
    res.put_series("photon_wall_s", m.photon_wall, &m.photon_walls);
    res.put("photon_accuracy_pct", 100.0 - m.photon_err_pct);
    res.put("peak_rss_mb", peak_rss_mb());
}

/// The serve latencies of an untraced `serve_closed2` run. They are
/// layer metrics (`--trace 1` reports them), not gated: on the
/// reference host they spread wider than any bound the driver allows.
fn print_serve_latencies(s: &ServeOutcome) {
    let mut info = RunResult::default();
    info.put_series("serve.cold_p50_ms", median(&s.cold_ms), &s.cold_ms);
    info.put_series(
        "serve.warm_p50_ms",
        fastest(&s.warm_part_p50_ms),
        &s.warm_part_p50_ms,
    );
    info.put_series(
        "serve.warm_jobs_per_s",
        highest(&s.warm_part_jobs_per_s),
        &s.warm_part_jobs_per_s,
    );
    info.print_metrics("  [not gated]");
}

/// The probes that need the workload replayed, and their results.
struct Probed {
    stream_reqs: u64,
    stream_lines: u64,
    legacy_ns_per_line: f64,
    detailed_ns_per_line: f64,
    port_ns_per_req: f64,
    addrspace_ns: f64,
    trace_warp_us: f64,
    memfree_minsts: f64,
    kernel_launch_us: f64,
    bb_record_ns: f64,
    warp_record_ns: f64,
    kernel_start_us: f64,
    history_match_us: f64,
    replay_l1v_hit_rate: f64,
    build_s: f64,
}

fn probe_workload(
    w: &SimWorkload,
    direct: &DirectPass,
    full: &Agg,
    tr: &mut Tracer,
) -> Result<Probed, String> {
    let stream = tr.within("sim", "mem.record_stream", |_| probes::record_stream(w))?;
    let cfg = &w.gpu.mem;
    let (legacy, replay_l1v_hit_rate) = tr.within("mem", "mem.replay_legacy", |_| {
        probes::replay_service(&stream, cfg)
    });
    let (detailed, _) = tr.within("mem", "mem.replay_detailed", |_| {
        probes::replay_service(&stream, &probes::detailed(cfg))
    });
    let port = tr.within("mem", "mem.replay_port", |_| {
        probes::replay_port(&stream, cfg)
    });
    let mut built: Built = tr.within("workloads", "workloads.build", |_| probes::build(w, None))?;
    let (trace_warp_us, traces) =
        tr.within("sim", "sim.trace_warp", |_| probes::trace_sample(&built))?;
    let (kernel_start_us, history_match_us) = tr.within("core", "core.kernel_start", |_| {
        probes::kernel_start_us(&built, &full.kernel_cycles)
    });
    let (bb_record_ns, warp_record_ns) = tr.within("core", "core.sampler_records", |_| {
        probes::sampler_record_ns(&built, &traces, &direct.bb_records, &direct.warp_records)
    });
    let memfree_minsts = tr.within("sim", "sim.memfree", |_| {
        probes::memfree_minsts_per_s(&built)
    })?;
    let kernel_launch_us = tr.within("sim", "sim.kernel_launch", |_| {
        probes::kernel_launch_us(&built)
    })?;
    let addrspace_ns = tr.within("mem", "mem.addrspace", |_| {
        probes::addrspace_ns_per_u32(&mut built)
    });
    Ok(Probed {
        stream_reqs: stream.reqs(),
        stream_lines: stream.line_count(),
        legacy_ns_per_line: legacy,
        detailed_ns_per_line: detailed,
        port_ns_per_req: port,
        addrspace_ns,
        trace_warp_us,
        memfree_minsts,
        kernel_launch_us,
        bb_record_ns,
        warp_record_ns,
        kernel_start_us,
        history_match_us,
        replay_l1v_hit_rate,
        build_s: built.build_s,
    })
}

/// Host seconds of the epoch engine's aggregate spans in the latest
/// traced Full rep: `(barrier, memory service)`.
fn epoch_span_secs(spec: &RunSpec) -> (f64, f64) {
    let records = span::job_records(journal_key(spec));
    let latest = |kind: SpanKind| {
        records
            .iter()
            .filter(|r| r.kind == kind)
            .max_by_key(|r| r.id)
            .map_or(0.0, |r| r.dur_us as f64 / 1e6)
    };
    (latest(SpanKind::EpochBarrier), latest(SpanKind::MemService))
}

#[allow(clippy::too_many_arguments)]
fn put_per_layer(
    w: &SimWorkload,
    m: &Measured,
    direct: &DirectPass,
    functional: &probes::Functional,
    p: &Probed,
    pka: Option<&Measurement>,
    store: &probes::StoreProbe,
    tel: &probes::TelemetryProbe,
    calendar: (f64, f64),
    overlay_ns: f64,
    res: &mut RunResult,
) {
    let full_wall = m.full.wall();
    let photon_wall = m.photon.wall();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let hist_p50 = |name: &str| {
        m.full
            .metrics
            .histograms
            .iter()
            .find(|h| h.name == name)
            .map_or(0.0, |h| h.p50 as f64)
    };
    let gauge = |name: &str| {
        m.full
            .metrics
            .gauges
            .iter()
            .find(|g| g.name == name)
            .map_or(0.0, |g| g.value)
    };
    let c = |n: &str| m.full.counter(n);
    let pc = |n: &str| m.photon.counter(n);

    res.put("isa.kernels", direct.setup.kernels as f64);
    res.put("isa.static_insts", direct.setup.static_insts as f64);
    res.put(
        "isa.validate_us_per_kernel",
        direct.setup.validate_us_per_kernel,
    );
    // Three builds of the same workload: the first one also pays for
    // cold pages, so the median is the steadier figure.
    let build_s = median(&[direct.setup.build_s, functional.build_s, p.build_s]);
    res.put("workloads.build_s", build_s);
    res.put("workloads.device_mb", direct.setup.device_mb);

    res.put("mem.replay_reqs", p.stream_reqs as f64);
    res.put("mem.replay_lines", p.stream_lines as f64);
    res.put(
        "mem.lines_per_req",
        ratio(p.stream_lines as f64, p.stream_reqs as f64),
    );
    res.put("mem.legacy_ns_per_line", p.legacy_ns_per_line);
    res.put("mem.detailed_ns_per_line", p.detailed_ns_per_line);
    res.put("mem.port_ns_per_req", p.port_ns_per_req);
    res.put("mem.addrspace_ns_per_u32", p.addrspace_ns);
    res.put(
        "mem.l1v_hit_rate",
        ratio(c("mem.l1v.hits"), c("mem.l1v.hits") + c("mem.l1v.misses")),
    );
    res.put(
        "mem.l2_hit_rate",
        ratio(c("mem.l2.hits"), c("mem.l2.hits") + c("mem.l2.misses")),
    );
    res.put("mem.dram_accesses", c("mem.dram.accesses"));
    res.put("mem.l1v_mshr_merges", c("mem.l1v.mshr_merges"));
    res.put("mem.dram_queue_p50", hist_p50("mem.dram.queue_delay"));

    res.put("sim.insts_detailed", m.full.detailed_insts as f64);
    res.put("sim.events", c("sim.events"));
    res.put("sim.cycles_full", m.full.cycles as f64);
    res.put("sim.cycles_photon", m.photon.cycles as f64);
    res.put(
        "sim.host_ns_per_inst",
        ratio(full_wall * 1e9, m.full.insts() as f64),
    );
    res.put(
        "sim.host_ns_per_event",
        ratio(full_wall * 1e9, c("sim.events")),
    );
    res.put(
        "sim.host_us_per_cycle",
        ratio(full_wall * 1e6, m.full.cycles as f64),
    );
    res.put(
        "sim.functional_minsts_per_s",
        ratio(functional.insts as f64 / 1e6, functional.secs),
    );
    res.put("sim.trace_warp_us", p.trace_warp_us);
    res.put("sim.calendar_near_ns_per_op", calendar.0);
    res.put("sim.calendar_far_ns_per_op", calendar.1);
    res.put("sim.memfree_minsts_per_s", p.memfree_minsts);
    res.put("sim.kernel_launch_us", p.kernel_launch_us);
    res.put("sim.overlay_ns_per_write", overlay_ns);
    // The serial engine runs no epochs: these are true zeros there.
    let (barrier_s, mem_service_s) = epoch_span_secs(&w.full());
    res.put("sim.epochs", c("engine.epochs"));
    res.put("sim.epoch_imbalance", gauge("engine.epoch.imbalance"));
    res.put("sim.epoch_barrier_s", barrier_s);
    res.put("sim.epoch_mem_service_s", mem_service_s);
    // On a serial-engine workload the serial reference is the
    // workload itself, so the ratio is 1 by definition.
    res.put(
        "sim.det2_vs_serial",
        if m.serial_walls.is_empty() {
            1.0
        } else {
            ratio(fastest(&m.serial_walls), full_wall)
        },
    );

    res.put("core.photon_speedup", ratio(full_wall, photon_wall));
    res.put("core.photon_err_pct", m.photon_err_pct);
    res.put(
        "core.detailed_frac",
        ratio(m.photon.detailed_insts as f64, m.full.detailed_insts as f64),
    );
    res.put(
        "core.predicted_warp_frac",
        ratio(
            m.photon.predicted_warps as f64,
            (m.photon.predicted_warps + m.photon.detailed_warps) as f64,
        ),
    );
    res.put("core.functional_insts", m.photon.functional_insts as f64);
    res.put("core.kernels_skipped", m.photon.skipped_kernels as f64);
    res.put("core.bb_switches", pc("photon.bb_switches"));
    res.put("core.warp_switches", pc("photon.warp_switches"));
    res.put("core.bb_record_ns", p.bb_record_ns);
    res.put("core.warp_record_ns", p.warp_record_ns);
    res.put("core.kernel_start_us", p.kernel_start_us);
    res.put("core.history_match_us", p.history_match_us);

    res.put("baselines.pka_wall_s", pka.map_or(0.0, |m| m.wall_secs));
    res.put(
        "baselines.pka_err_pct",
        pka.map_or(0.0, |k| err_pct(k.sim_cycles, direct.cycles)),
    );

    res.put(
        "bench.executor_overhead_ms",
        (median(&m.overhead_s) - build_s) * 1e3,
    );
    res.put("bench.persist_write_us", store.persist_write_us);
    res.put("bench.persist_read_us", store.persist_read_us);
    res.put("bench.measurement_json_kb", store.measurement_json_kb);
    res.put("bench.refcache_mem_hit_us", store.refcache_mem_hit_us);
    res.put("bench.refcache_disk_hit_us", store.refcache_disk_hit_us);

    let s = &m.serve;
    res.put_series(
        "serve.cold_p50_ms",
        fastest(&s.cold_generation_p50_ms),
        &s.cold_generation_p50_ms,
    );
    res.put_series(
        "serve.warm_p50_ms",
        fastest(&s.warm_part_p50_ms),
        &s.warm_part_p50_ms,
    );
    res.put_series(
        "serve.warm_jobs_per_s",
        highest(&s.warm_part_jobs_per_s),
        &s.warm_part_jobs_per_s,
    );
    res.put_series("serve.submit_rtt_us", median(&s.rtt_us[0]), &s.rtt_us[0]);
    res.put_series("serve.wait_rtt_us", median(&s.rtt_us[1]), &s.rtt_us[1]);
    res.put_series("serve.fetch_rtt_us", median(&s.rtt_us[2]), &s.rtt_us[2]);
    let (cold, warm) = (tail(&s.cold_ms), tail(&s.warm_ms));
    res.put("serve.cold_tail_ms", cold.value);
    res.put("serve.cold_tail_pct", cold.pct);
    res.put("serve.warm_tail_ms", warm.value);
    res.put("serve.warm_tail_pct", warm.pct);
    res.put("serve.cache_hit_rate", s.warm_cache_hit_rate);
    res.put("serve.coalesce_rate", s.coalesce_rate);
    res.put("serve.sim_runs", s.sim_runs as f64);
    res.put("serve.rejected", s.rejected as f64);
    res.put("serve.queued_ms_p50", s.queued_ms_p50);

    res.put("telemetry.counter_inc_ns", tel.counter_inc_ns);
    res.put("telemetry.hist_observe_ns", tel.hist_observe_ns);
    res.put("telemetry.span_guard_ns", tel.span_guard_ns);
    res.put("telemetry.snapshot_us", tel.snapshot_us);
    res.put("trace_overhead_pct", m.trace_overhead_pct);

    // How the layers bound the end-to-end numbers: with one thread a
    // faster layer returns at most its share of the Full wall.
    let share = |secs: f64| ratio(secs, full_wall) * 100.0;
    println!("layer shares of the Full wall ({full_wall:.3} s), upper bounds on what a layer can return:");
    println!(
        "  mem legacy replay   {:>6.1} %   ({:.1} ns/line x {} lines)",
        share(p.legacy_ns_per_line * p.stream_lines as f64 / 1e9),
        p.legacy_ns_per_line,
        p.stream_lines
    );
    println!(
        "  mem detailed replay {:>6.1} %",
        share(p.detailed_ns_per_line * p.stream_lines as f64 / 1e9)
    );
    println!(
        "  (the replay saw an L1V hit rate of {:.3}; the Full run's was {:.3})",
        p.replay_l1v_hit_rate,
        ratio(c("mem.l1v.hits"), c("mem.l1v.hits") + c("mem.l1v.misses"))
    );
    println!("  sim functional      {:>6.1} %", share(functional.secs));
    if c("engine.epochs") > 0.0 {
        println!(
            "  epoch barrier + memory service {:>6.1} %  (serial: bounds what two threads can give)",
            share(barrier_s + mem_service_s)
        );
    }
    let slowest = ["submit", "wait", "fetch"]
        .iter()
        .zip(&s.rtt_us)
        .max_by(|a, b| median(a.1).total_cmp(&median(b.1)))
        .map_or("", |(n, _)| n);
    println!("  serve warm latency is three round trips; the slowest is {slowest}");
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut host = HostStamp::begin();
    let mut res = RunResult::default();
    let mut tr = Tracer::new(opts.trace);
    let root = tr.open("bench", "workload");

    let sim = workloads::sim_workload(&opts.workload, opts.seed, opts.quick);
    if sim.is_none() && opts.workload != "serve_closed2" {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    // The spec the direct passes and the probes replay: the workload's
    // own, or the serve mix's first job.
    let w = sim
        .clone()
        .unwrap_or_else(|| workloads::serve_probe(&workloads::serve_mix(opts.seed, opts.quick)));

    // Untimed passes. The detailed one runs the epoch engine on one
    // thread, so its cycles check threads = 1 against threads = 2.
    let det_threads = w.serial_reference.then_some(1);
    let direct = probes::direct_pass(&w, det_threads, opts.trace, &mut tr)?;
    let functional = probes::functional_reference(&w, &mut tr)?;
    if !res.attempt(direct.digest == functional.digest) {
        println!(
            "CHECK FAILED: device memory after Full ({:016x}) differs from the functional reference ({:016x})",
            direct.digest.0, functional.digest.0
        );
    }

    let measured = match &sim {
        Some(w) => measure_sim(w, opts, &mut tr, &mut res)
            .ok_or_else(|| "a timed run did not complete".to_string())?,
        None => measure_serve(opts, &mut tr, &mut res),
    };
    if sim.is_some() && !res.attempt(direct.cycles == measured.full.cycles) {
        // On mm_det2 this is threads = 1 against threads = 2.
        println!(
            "CHECK FAILED: the direct pass simulated {} cycles, the executor {}",
            direct.cycles, measured.full.cycles
        );
    }
    res.attempt(conservation_holds(&measured.full));

    if opts.trace {
        let pka = run_rep(
            &w.with_method(Method::Pka),
            Some("run.pka"),
            &mut tr,
            &mut res,
        );
        let probed = probe_workload(&w, &direct, &measured.full, &mut tr)?;
        let sample = measured
            .full
            .sample
            .clone()
            .ok_or_else(|| "no Full measurement to probe the store with".to_string())?;
        let store = tr.within("bench", "bench.store", |_| {
            probes::store_probe(&sample, &opts.bench_dir.join("out"))
        })?;
        let tel = tr.within("telemetry", "telemetry.handles", |_| {
            probes::telemetry_probe(&measured.full.metrics)
        });
        let calendar = tr.within("sim", "sim.calendar", |_| {
            (
                probes::calendar_ns_per_op(false),
                probes::calendar_ns_per_op(true),
            )
        });
        let overlay_ns = tr.within("sim", "sim.overlay", |_| probes::overlay_ns_per_write());
        put_per_layer(
            &w,
            &measured,
            &direct,
            &functional,
            &probed,
            pka.as_ref().map(|r| &r.m),
            &store,
            &tel,
            calendar,
            overlay_ns,
            &mut res,
        );
    } else {
        put_end_to_end(&measured, &mut res);
        if sim.is_none() {
            print_serve_latencies(&measured.serve);
        }
    }
    tr.close(root);
    host.end();
    res.correct = res.failed == 0;
    Ok(Outcome {
        stats: sim_stats(&measured),
        res,
        host,
        spans: tr.spans().to_vec(),
    })
}
