//! Layer probes: every layer measured from outside, by timing calls
//! into its public functions. Probes that replay a workload take the
//! workload's own launches, memory image and line stream as input.

use crate::spans::Tracer;
use crate::stats::Digest;
use crate::workloads::{photon_config, SimWorkload};
use gpu_isa::{Kernel, KernelBuilder, KernelLaunch, KernelLimits, SAluOp, VAluOp, VectorSrc};
use gpu_mem::{AddressSpace, MemFidelityConfig, MemHierarchyConfig, MemPort, MemoryHierarchy};
use gpu_sim::{
    run_wg_functional, step, trace_warp_isolated, BbRecord, CalendarQueue, DataMem, GpuSimulator,
    KernelDirective, KernelResult, KernelStartAccess, LaunchEnv, NullController, OverlayMem,
    Recorder, SamplingController, SimError, StepEffect, WarpRecord, WarpState, WarpTrace,
};
use gpu_telemetry::span::{self, SpanKind};
use gpu_telemetry::{MetricsSnapshot, Telemetry};
use gpu_workloads::App;
use photon::{sample_warp_ids, BbSampler, OnlineAnalysis, PhotonController, WarpSampler};
use photon_bench::harness::Measurement;
use photon_bench::{atomic_write_framed, read_framed, RefCache};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// First allocatable device address (`gpu_sim`'s heap base).
const HEAP_BASE: u64 = 0x1000;
/// Where the engine places kernel arguments for scalar loads.
const ARG_BASE: u64 = 0x100;
const PAGE_BYTES: f64 = 4096.0;

/// A workload built on a fresh simulator, with the end of its
/// allocated range.
pub struct Built {
    pub gpu: GpuSimulator,
    pub app: App,
    pub end: u64,
    pub build_s: f64,
}

pub fn build(w: &SimWorkload, det_threads: Option<u32>) -> Result<Built, String> {
    let mut cfg = w.gpu.clone();
    if let Some(t) = det_threads {
        cfg.engine.threads = t;
    }
    let mut gpu = GpuSimulator::new(cfg);
    let t0 = Instant::now();
    let app = w.workload.build(&mut gpu, w.seed);
    let build_s = t0.elapsed().as_secs_f64();
    // The bump allocator hands out addresses in order, so one more
    // allocation marks the end of everything the workload allocated.
    let end = gpu.alloc_buffer(1).map_err(|e| e.to_string())?;
    Ok(Built {
        gpu,
        app,
        end,
        build_s,
    })
}

/// Digest of the allocated device range.
pub fn digest(mem: &AddressSpace, end: u64) -> Digest {
    let mut d = Digest::new();
    let mut a = HEAP_BASE;
    while a < end {
        d.word(mem.read_u32(a));
        a += 4;
    }
    d
}

/// Index of the launch with the most warps: the kernel the recorder
/// and the memory-free probe take their shape from.
fn largest_launch(app: &App) -> usize {
    app.launches()
        .iter()
        .enumerate()
        .max_by_key(|(i, l)| (l.launch.total_warps(), std::cmp::Reverse(*i)))
        .map_or(0, |(i, _)| i)
}

/// What the set-up of a workload costs and how large it is.
#[derive(Debug, Clone, Default)]
pub struct SetupInfo {
    pub build_s: f64,
    pub validate_us_per_kernel: f64,
    pub kernels: u64,
    pub static_insts: u64,
    pub device_mb: f64,
}

/// The untimed detailed pass that drives `GpuSimulator` directly:
/// `run_specs` does not hand the simulator back, so this is where the
/// final device memory, the set-up costs and (traced run) the
/// recorder's event streams come from. It doubles as the warm-up rep.
pub struct DirectPass {
    pub setup: SetupInfo,
    pub cycles: u64,
    pub digest: Digest,
    pub bb_records: Vec<BbRecord>,
    pub warp_records: Vec<WarpRecord>,
}

pub fn direct_pass(
    w: &SimWorkload,
    det_threads: Option<u32>,
    record: bool,
    tr: &mut Tracer,
) -> Result<DirectPass, String> {
    let setup_span = tr.open("bench", "setup");
    let built = tr.within("workloads", "workloads.build", |_| build(w, det_threads))?;
    let Built {
        mut gpu,
        app,
        end,
        build_s,
    } = built;
    let t0 = Instant::now();
    let mut static_insts = 0u64;
    tr.within("isa", "isa.validate", |_| {
        for l in app.launches() {
            gpu_isa::validate_launch(&l.launch, &KernelLimits::default())
                .map_err(|e| e.to_string())?;
            black_box(l.launch.kernel.program().basic_blocks().len());
            static_insts += l.launch.kernel.program().len() as u64;
        }
        Ok::<(), String>(())
    })?;
    let kernels = app.launches().len() as u64;
    let setup = SetupInfo {
        build_s,
        validate_us_per_kernel: t0.elapsed().as_secs_f64() * 1e6 / kernels.max(1) as f64,
        kernels,
        static_insts,
        device_mb: gpu.mem().resident_pages() as f64 * PAGE_BYTES / 1e6,
    };
    tr.close(setup_span);

    let span = tr.open("sim", "direct.detailed");
    let recorded = largest_launch(&app);
    let mut recorder = Recorder::new();
    // Instruction latencies are dense and no probe replays them.
    recorder.max_latencies = 0;
    let mut cycles = 0u64;
    for (i, l) in app.launches().iter().enumerate() {
        let ctrl: &mut dyn SamplingController = if record && i == recorded {
            &mut recorder
        } else {
            &mut NullController
        };
        cycles += gpu
            .run_kernel_sampled(&l.launch, ctrl)
            .map_err(|e| e.to_string())?
            .cycles;
    }
    tr.close(span);
    let digest = tr.within("mem", "direct.digest", |_| digest(gpu.mem(), end));
    Ok(DirectPass {
        setup,
        cycles,
        digest,
        bb_records: recorder.bb_records,
        warp_records: recorder.warp_records,
    })
}

/// The reference image: every workgroup of every launch run through
/// `run_wg_functional` on a fresh build. Also `sim`'s functional rate.
pub struct Functional {
    pub digest: Digest,
    pub insts: u64,
    pub secs: f64,
    pub build_s: f64,
}

pub fn functional_reference(w: &SimWorkload, tr: &mut Tracer) -> Result<Functional, String> {
    let span = tr.open("sim", "sim.functional");
    let Built {
        mut gpu,
        app,
        end,
        build_s,
    } = build(w, None)?;
    let max_insts = gpu.config().max_insts_per_warp;
    let t0 = Instant::now();
    let mut insts = 0u64;
    for l in app.launches() {
        for wg in 0..l.launch.num_wgs {
            let (_, n) = run_wg_functional(&l.launch, gpu.mem_mut(), wg, max_insts)
                .map_err(|e| e.to_string())?;
            insts += n;
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    tr.close(span);
    Ok(Functional {
        digest: digest(gpu.mem(), end),
        insts,
        secs,
        build_s,
    })
}

/// One memory request of the workload's own stream.
#[derive(Debug, Clone, Copy)]
struct StreamReq {
    cu: u32,
    write: bool,
    /// Scalar (argument) load address; vector requests use `lines`.
    scalar: Option<u64>,
    lines: (u32, u32),
}

/// The workload's line stream: what its warps ask of the memory
/// hierarchy, recorded by stepping every workgroup functionally.
#[derive(Debug, Default)]
pub struct Stream {
    reqs: Vec<StreamReq>,
    lines: Vec<u64>,
    /// Per launch, the request ranges one warp issued between two
    /// barriers: within a range every request waits for the one before.
    launches: Vec<Vec<(usize, usize)>>,
}

impl Stream {
    pub fn reqs(&self) -> u64 {
        self.reqs.len() as u64
    }

    /// Lines moved: a scalar load counts as one.
    pub fn line_count(&self) -> u64 {
        self.lines.len() as u64 + self.reqs.iter().filter(|r| r.scalar.is_some()).count() as u64
    }

    fn lines_of(&self, r: &StreamReq) -> &[u64] {
        &self.lines[r.lines.0 as usize..r.lines.1 as usize]
    }
}

/// Streams longer than this are cut: the replays only need enough
/// requests for a steady per-line time.
const STREAM_CAP: usize = 1_500_000;

pub fn record_stream(w: &SimWorkload) -> Result<Stream, String> {
    let Built { mut gpu, app, .. } = build(w, None)?;
    let num_cus = gpu.config().num_cus;
    let mut stream = Stream::default();
    let mut scratch = Vec::new();
    for l in app.launches() {
        let mut runs = Vec::new();
        let launch = &l.launch;
        let program = launch.kernel.program();
        for wg in 0..launch.num_wgs {
            if stream.reqs.len() >= STREAM_CAP {
                break;
            }
            // The interleaving of `run_wg_functional`: each warp runs
            // to its next barrier, then all are released together.
            let n = launch.warps_per_wg as usize;
            let mut warps: Vec<WarpState> = (0..n).map(|_| WarpState::new()).collect();
            let mut at_barrier = vec![false; n];
            let mut lds = vec![0u8; launch.lds_bytes.max(4) as usize];
            loop {
                let mut progressed = false;
                for wi in 0..n {
                    if warps[wi].ended || at_barrier[wi] {
                        continue;
                    }
                    let env = LaunchEnv {
                        args: &launch.args,
                        wg_id: wg,
                        warp_in_wg: wi as u32,
                        warps_per_wg: launch.warps_per_wg,
                        num_wgs: launch.num_wgs,
                    };
                    let run_start = stream.reqs.len();
                    loop {
                        let info = step(
                            &mut warps[wi],
                            program,
                            gpu.mem_mut(),
                            &mut lds,
                            &env,
                            &mut scratch,
                        )
                        .map_err(|e: SimError| e.to_string())?;
                        progressed = true;
                        let cu = wg % num_cus;
                        match info.effect {
                            StepEffect::Mem { write } => {
                                let a = stream.lines.len() as u32;
                                stream.lines.extend_from_slice(&scratch);
                                stream.reqs.push(StreamReq {
                                    cu,
                                    write,
                                    scalar: None,
                                    lines: (a, stream.lines.len() as u32),
                                });
                            }
                            StepEffect::ArgLoad { index } => stream.reqs.push(StreamReq {
                                cu,
                                write: false,
                                scalar: Some(ARG_BASE + 8 * u64::from(index)),
                                lines: (0, 0),
                            }),
                            StepEffect::End => break,
                            StepEffect::Barrier => {
                                at_barrier[wi] = true;
                                break;
                            }
                            _ => {}
                        }
                    }
                    if stream.reqs.len() > run_start {
                        runs.push((run_start, stream.reqs.len()));
                    }
                }
                let live = warps.iter().filter(|w| !w.ended).count();
                if live == 0 {
                    break;
                }
                let arrived = at_barrier.iter().filter(|&&b| b).count();
                if arrived == live || !progressed {
                    at_barrier.iter_mut().for_each(|b| *b = false);
                }
            }
        }
        stream.launches.push(runs);
    }
    Ok(stream)
}

/// Warps a replay keeps in flight: each issues its next request once
/// its previous one is back, as a warp of the engine does, so a line
/// fetched by a warp is a hit when the same warp comes back to it.
const REPLAY_WARPS: usize = 64;
/// Cycles between two requests entering the hierarchy in a replay.
const REPLAY_PACE: u64 = 4;

struct Cursor {
    next: usize,
    end: usize,
    /// Cycle its previous request completed.
    ready: u64,
}

/// What a replay does with one round: service the `(request, issue
/// cycle)` pairs in order and push each one's completion cycle.
type ServeRound<'a> = dyn FnMut(&mut MemoryHierarchy, &[(StreamReq, u64)], &mut Vec<u64>) + 'a;

/// Drives a replay in rounds: the next request of every warp in
/// flight, in issue order, handed to `serve`, which writes each one's
/// completion cycle. Caches flush between launches.
fn replay(stream: &Stream, hier: &mut MemoryHierarchy, serve: &mut ServeRound<'_>) {
    let mut clock = 0u64;
    let mut round: Vec<(StreamReq, u64)> = Vec::with_capacity(REPLAY_WARPS);
    let mut owners: Vec<usize> = Vec::with_capacity(REPLAY_WARPS);
    let mut done: Vec<u64> = Vec::with_capacity(REPLAY_WARPS);
    let mut order: Vec<usize> = Vec::with_capacity(REPLAY_WARPS);
    let mut sorted: Vec<(StreamReq, u64)> = Vec::with_capacity(REPLAY_WARPS);
    for runs in &stream.launches {
        hier.flush_caches();
        let mut waiting = runs.iter();
        let mut cursors: Vec<Cursor> = Vec::with_capacity(REPLAY_WARPS);
        loop {
            cursors.retain(|c| c.next < c.end);
            while cursors.len() < REPLAY_WARPS {
                match waiting.next() {
                    Some(&(next, end)) => cursors.push(Cursor {
                        next,
                        end,
                        ready: clock,
                    }),
                    None => break,
                }
            }
            if cursors.is_empty() {
                break;
            }
            round.clear();
            owners.clear();
            for (ci, c) in cursors.iter().enumerate() {
                clock += REPLAY_PACE;
                round.push((stream.reqs[c.next], clock.max(c.ready)));
                owners.push(ci);
            }
            // The hierarchy is asked in issue order, as the engine asks.
            order.clear();
            order.extend(0..round.len());
            order.sort_by_key(|&i| round[i].1);
            sorted.clear();
            sorted.extend(order.iter().map(|&i| round[i]));
            done.clear();
            serve(hier, &sorted, &mut done);
            for (k, &i) in order.iter().enumerate() {
                let c = &mut cursors[owners[i]];
                c.next += 1;
                c.ready = done[k];
            }
        }
    }
}

/// Replays the stream through `service_vector` / `service_scalar`;
/// returns host nanoseconds per line and the L1V hit rate the replay
/// saw (to hold against the run's own).
pub fn replay_service(stream: &Stream, cfg: &MemHierarchyConfig) -> (f64, f64) {
    let mut hier = MemoryHierarchy::new(cfg.clone());
    let t0 = Instant::now();
    replay(stream, &mut hier, &mut |hier, round, done| {
        for (r, at) in round {
            let resp = match r.scalar {
                Some(addr) => hier.service_scalar(r.cu as usize, addr, *at),
                None => hier.service_vector(r.cu as usize, stream.lines_of(r), r.write, *at),
            };
            done.push(resp.done);
        }
    });
    let ns_per_line = t0.elapsed().as_secs_f64() * 1e9 / stream.line_count().max(1) as f64;
    (ns_per_line, hier.stats().l1v_hit_rate())
}

/// Replays the stream through `MemPort::submit_*` + `service_port`,
/// one drain per round (the epoch engine's shape: requests of many
/// warps collected, then serviced together); nanoseconds per request.
pub fn replay_port(stream: &Stream, cfg: &MemHierarchyConfig) -> f64 {
    let mut hier = MemoryHierarchy::new(cfg.clone());
    let mut port = MemPort::new();
    let mut responses = Vec::new();
    let t0 = Instant::now();
    replay(stream, &mut hier, &mut |hier, round, done| {
        for (r, at) in round {
            match r.scalar {
                Some(addr) => port.submit_scalar(r.cu, 0, *at, addr),
                None => port.submit_vector(r.cu, 0, *at, *at, r.write, stream.lines_of(r)),
            };
        }
        hier.service_port(&mut port);
        port.take_responses(&mut responses);
        done.extend(responses.drain(..).map(|resp| resp.done));
    });
    t0.elapsed().as_secs_f64() * 1e9 / stream.reqs.len().max(1) as f64
}

pub fn detailed(cfg: &MemHierarchyConfig) -> MemHierarchyConfig {
    let mut cfg = cfg.clone();
    cfg.fidelity = MemFidelityConfig::detailed();
    cfg
}

/// `AddressSpace::read_u32` + `write_u32` over the device image;
/// nanoseconds per call.
pub fn addrspace_ns_per_u32(built: &mut Built) -> f64 {
    const MAX_WORDS: u64 = 4_000_000;
    let words = ((built.end - HEAP_BASE) / 4).clamp(1, MAX_WORDS);
    let mem = built.gpu.mem_mut();
    let t0 = Instant::now();
    for i in 0..words {
        let a = HEAP_BASE + 4 * i;
        let v = mem.read_u32(a);
        mem.write_u32(a, v);
    }
    t0.elapsed().as_secs_f64() * 1e9 / (2 * words) as f64
}

/// `trace_warp_isolated` on the 1 % sample Photon would take of every
/// launch; microseconds per traced warp. Also returns the traces of
/// the largest launch for the sampler probes.
pub fn trace_sample(built: &Built) -> Result<(f64, Vec<WarpTrace>), String> {
    let cfg = photon_config();
    let max_insts = built.gpu.config().max_insts_per_warp;
    let keep = largest_launch(&built.app);
    let mut kept = Vec::new();
    let mut traced = 0u64;
    let t0 = Instant::now();
    for (i, l) in built.app.launches().iter().enumerate() {
        let ids = sample_warp_ids(
            l.launch.total_warps(),
            cfg.sample_fraction,
            cfg.min_sample_warps,
        );
        for id in ids {
            let t = trace_warp_isolated(&l.launch, built.gpu.mem(), id, max_insts)
                .map_err(|e| e.to_string())?;
            traced += 1;
            if i == keep {
                kept.push(t);
            }
        }
    }
    Ok((
        t0.elapsed().as_secs_f64() * 1e6 / traced.max(1) as f64,
        kept,
    ))
}

/// `CalendarQueue` push + pop with a steady population; `far` pushes
/// land in the overflow heap instead of the 1024-cycle wheel.
/// Nanoseconds per push+pop pair.
pub fn calendar_ns_per_op(far: bool) -> f64 {
    const LIVE: u64 = 256;
    const OPS: u64 = 2_000_000;
    let delta = |i: u64| {
        let r = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
        if far {
            1024 + r % 60_000
        } else {
            1 + r % 900
        }
    };
    let mut q: CalendarQueue<u64> = CalendarQueue::new(0);
    for i in 0..LIVE {
        q.push(delta(i), i);
    }
    let t0 = Instant::now();
    for i in LIVE..LIVE + OPS {
        let (cycle, ev) = q.pop().expect("population is steady");
        black_box(ev);
        q.push(cycle + delta(i), i);
    }
    t0.elapsed().as_secs_f64() * 1e9 / OPS as f64
}

fn alu_kernel(iters: i64) -> Result<Kernel, String> {
    let mut kb = KernelBuilder::new("memfree");
    let i = kb.sreg();
    let s = kb.sreg();
    let a = kb.vreg();
    let b = kb.vreg();
    kb.smov(s, 1i64);
    kb.vmov(a, VectorSrc::LaneId);
    kb.vmov(b, VectorSrc::Imm(3));
    kb.for_uniform(i, 0i64, iters, |kb| {
        for _ in 0..4 {
            kb.valu(VAluOp::Add, a, VectorSrc::Reg(a), VectorSrc::Reg(b));
            kb.valu(VAluOp::Xor, b, VectorSrc::Reg(b), VectorSrc::Reg(a));
        }
        kb.salu(SAluOp::Add, s, s, 3i64);
        kb.salu(SAluOp::Xor, s, s, 5i64);
    });
    Ok(Kernel::new(kb.finish().map_err(|e| e.to_string())?))
}

/// `run_kernel` on a VALU/SALU-only kernel with the grid of the
/// workload's largest launch; simulated Minsts per host second.
pub fn memfree_minsts_per_s(built: &Built) -> Result<f64, String> {
    const TARGET_INSTS: u64 = 600_000;
    const INSTS_PER_ITER: u64 = 14;
    let shape = &built.app.launches()[largest_launch(&built.app)].launch;
    let iters = (TARGET_INSTS / shape.total_warps().max(1) / INSTS_PER_ITER).clamp(1, 4096);
    let launch = KernelLaunch::new(
        alu_kernel(iters as i64)?,
        shape.num_wgs,
        shape.warps_per_wg,
        vec![],
    );
    let mut gpu = GpuSimulator::new(built.gpu.config().clone());
    let t0 = Instant::now();
    let r = gpu.run_kernel(&launch).map_err(|e| e.to_string())?;
    Ok(r.detailed_insts as f64 / t0.elapsed().as_secs_f64() / 1e6)
}

/// `run_kernel` on a one-warp kernel that only ends; microseconds per
/// launch on the workload's machine.
pub fn kernel_launch_us(built: &Built) -> Result<f64, String> {
    const LAUNCHES: u32 = 300;
    let program = KernelBuilder::new("end")
        .finish()
        .map_err(|e| e.to_string())?;
    let launch = KernelLaunch::new(Kernel::new(program), 1, 1, vec![]);
    let mut gpu = GpuSimulator::new(built.gpu.config().clone());
    let t0 = Instant::now();
    for _ in 0..LAUNCHES {
        black_box(gpu.run_kernel(&launch).map_err(|e| e.to_string())?.cycles);
    }
    Ok(t0.elapsed().as_secs_f64() * 1e6 / f64::from(LAUNCHES))
}

/// `OverlayMem` writes drained with `take_writes`, an epoch's worth at
/// a time; nanoseconds per `write_u32`.
pub fn overlay_ns_per_write() -> f64 {
    const EPOCH_WRITES: u64 = 4096;
    const EPOCHS: u64 = 200;
    let base = AddressSpace::new();
    let t0 = Instant::now();
    for e in 0..EPOCHS {
        let mut ov = OverlayMem::new(&base);
        for i in 0..EPOCH_WRITES {
            ov.write_u32(HEAP_BASE + 4 * (e * EPOCH_WRITES + i), i as u32);
        }
        black_box(ov.take_writes().len());
    }
    t0.elapsed().as_secs_f64() * 1e9 / (EPOCHS * EPOCH_WRITES) as f64
}

/// A recorder run's streams replayed into Photon's online samplers;
/// nanoseconds per `BbSampler::on_record` and `WarpSampler::on_warp`.
pub fn sampler_record_ns(
    built: &Built,
    traces: &[WarpTrace],
    bb_records: &[BbRecord],
    warp_records: &[WarpRecord],
) -> (f64, f64) {
    const TARGET_CALLS: usize = 1_000_000;
    let launch = &built.app.launches()[largest_launch(&built.app)].launch;
    let bb_map = launch.kernel.program().basic_blocks();
    let Some(analysis) = OnlineAnalysis::from_traces(traces, bb_map) else {
        return (0.0, 0.0);
    };
    let cfg = photon_config();
    // Whole passes over the stream, each into a fresh sampler, until
    // about a million calls are timed.
    fn ns_per_call(calls: usize, mut pass: impl FnMut()) -> f64 {
        if calls == 0 {
            return 0.0;
        }
        let passes = TARGET_CALLS.div_ceil(calls);
        let t0 = Instant::now();
        (0..passes).for_each(|_| pass());
        t0.elapsed().as_secs_f64() * 1e9 / (passes * calls) as f64
    }
    let bb = ns_per_call(bb_records.len(), || {
        let mut s = BbSampler::new(bb_map.len(), &analysis, &cfg);
        bb_records.iter().for_each(|r| s.on_record(r));
        black_box(s.is_triggered());
    });
    let warp = ns_per_call(warp_records.len(), || {
        let mut s = WarpSampler::new(&analysis, &cfg);
        warp_records.iter().for_each(|r| s.on_warp(r));
        black_box(s.is_triggered());
    });
    (bb, warp)
}

/// The benchmark's side of `on_kernel_start`: traces sample warps
/// against the workload's memory image, as the engine's context does.
struct StartAccess<'a> {
    launch: &'a KernelLaunch,
    mem: &'a AddressSpace,
    max_insts: u64,
}

impl KernelStartAccess for StartAccess<'_> {
    fn launch(&self) -> &KernelLaunch {
        self.launch
    }
    fn total_warps(&self) -> u64 {
        self.launch.total_warps()
    }
    fn trace_warp(&mut self, global_warp: u64) -> Result<WarpTrace, SimError> {
        trace_warp_isolated(self.launch, self.mem, global_warp, self.max_insts)
    }
}

/// `PhotonController::on_kernel_start` over the app's launches in
/// order, each simulated kernel reported back with the cycles the Full
/// run measured so the history fills as it would; then
/// `KernelHistory::find_match` of every launch against that history.
/// Microseconds per call of each.
pub fn kernel_start_us(built: &Built, full_kernel_cycles: &[u64]) -> (f64, f64) {
    let cfg = photon_config();
    let gpu_cfg = built.gpu.config();
    let num_cus = u64::from(gpu_cfg.num_cus);
    let mut ctrl = PhotonController::new(cfg.clone(), num_cus);
    let launches = built.app.launches();
    let t0 = Instant::now();
    for (i, l) in launches.iter().enumerate() {
        let mut ctx = StartAccess {
            launch: &l.launch,
            mem: built.gpu.mem(),
            max_insts: gpu_cfg.max_insts_per_warp,
        };
        if ctrl.on_kernel_start(&mut ctx) == KernelDirective::Simulate {
            ctrl.on_kernel_end(&KernelResult {
                name: l.launch.kernel.name().to_string(),
                cycles: full_kernel_cycles.get(i).copied().unwrap_or(1).max(1),
                start_cycle: 0,
                detailed_insts: 0,
                functional_insts: 0,
                total_warps: l.launch.total_warps(),
                detailed_warps: l.launch.total_warps(),
                predicted_warps: 0,
                ipc_timeline: Vec::new(),
                ipc_window: gpu_cfg.ipc_window,
                skipped: false,
                mem: gpu_mem::MemStats::default(),
                accounting: None,
                bb_stats: Vec::new(),
            });
        }
    }
    let start_us = t0.elapsed().as_secs_f64() * 1e6 / launches.len().max(1) as f64;

    const TARGET_CALLS: usize = 2000;
    let analyses = ctrl.export_analyses();
    let passes = TARGET_CALLS.div_ceil(analyses.len().max(1));
    let t0 = Instant::now();
    for _ in 0..passes {
        for (a, l) in analyses.iter().zip(launches) {
            black_box(ctrl.history().find_match(
                &a.gpu_bbv,
                l.launch.total_warps(),
                num_cus,
                cfg.kernel_distance,
            ));
        }
    }
    let match_us = t0.elapsed().as_secs_f64() * 1e6 / (passes * analyses.len()).max(1) as f64;
    (start_us, match_us)
}

/// `bench`'s store path on a real serialized measurement.
#[derive(Debug, Default)]
pub struct StoreProbe {
    pub persist_write_us: f64,
    pub persist_read_us: f64,
    pub measurement_json_kb: f64,
    pub refcache_mem_hit_us: f64,
    pub refcache_disk_hit_us: f64,
}

/// A probe whose unit of work grows with the workload (a serialized
/// ResNet measurement is megabytes) stops after this long.
const PROBE_BUDGET: Duration = Duration::from_millis(150);

/// Calls `f` up to `max` times, stopping early once the budget is
/// spent; mean microseconds per call.
fn us_per_call(max: u32, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut calls = 0;
    while calls < max && (calls == 0 || t0.elapsed() < PROBE_BUDGET) {
        f()?;
        calls += 1;
    }
    Ok(t0.elapsed().as_secs_f64() * 1e6 / f64::from(calls))
}

pub fn store_probe(m: &Measurement, scratch: &Path) -> Result<StoreProbe, String> {
    let dir = scratch.join(format!("store-probe-{}", std::process::id()));
    let json = serde_json::to_string_pretty(m).map_err(|e| e.to_string())?;
    let path = dir.join("measurement.json");
    let persist_write_us = us_per_call(20, || {
        atomic_write_framed(&path, &json).map_err(|e| e.to_string())
    })?;
    let persist_read_us = us_per_call(200, || {
        black_box(read_framed(&path)?.payload.len());
        Ok(())
    })?;

    let key = 0x5eed_cafe_u64;
    let mem = RefCache::memory_only();
    mem.store(key, &m.workload, m);
    let refcache_mem_hit_us = us_per_call(2000, || {
        black_box(mem.lookup(key).is_some());
        Ok(())
    })?;

    let cache_dir = dir.join("refcache");
    RefCache::persistent(cache_dir.clone()).store(key, &m.workload, m);
    // A fresh instance has nothing in memory: every lookup reads,
    // verifies and parses the entry on disk.
    let refcache_disk_hit_us = us_per_call(50, || {
        match RefCache::persistent(cache_dir.clone()).lookup(key) {
            Some(_) => Ok(()),
            None => Err("refcache disk entry did not read back".to_string()),
        }
    })?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(StoreProbe {
        persist_write_us,
        persist_read_us,
        measurement_json_kb: json.len() as f64 / 1024.0,
        refcache_mem_hit_us,
        refcache_disk_hit_us,
    })
}

/// Direct calls on `Telemetry` handles.
#[derive(Debug, Default)]
pub struct TelemetryProbe {
    pub counter_inc_ns: f64,
    pub hist_observe_ns: f64,
    pub span_guard_ns: f64,
    pub snapshot_us: f64,
}

/// `shape` is a real run's snapshot: the registry the snapshot probe
/// copies has the same number of counters, gauges and histograms.
pub fn telemetry_probe(shape: &MetricsSnapshot) -> TelemetryProbe {
    const INCS: u64 = 5_000_000;
    const OBSERVATIONS: u64 = 2_000_000;
    const GUARDS: u64 = 100_000;
    const SNAPSHOTS: u32 = 200;
    let tel = Telemetry::default();
    for c in &shape.counters {
        tel.counter(&c.name).add(c.value);
    }
    for g in &shape.gauges {
        tel.gauge(&g.name).set(g.value);
    }
    for h in &shape.histograms {
        tel.histogram(&h.name).record(h.p50);
    }
    let counter = tel.counter("probe.counter");
    let t0 = Instant::now();
    for _ in 0..INCS {
        counter.inc();
    }
    let counter_inc_ns = t0.elapsed().as_secs_f64() * 1e9 / INCS as f64;
    let hist = tel.histogram("probe.hist");
    let t0 = Instant::now();
    for i in 0..OBSERVATIONS {
        hist.record(i & 0xfff);
    }
    let hist_observe_ns = t0.elapsed().as_secs_f64() * 1e9 / OBSERVATIONS as f64;
    let root = span::start_job(0xbe9c_0000_0000_0001, "telemetry-probe");
    let t0 = Instant::now();
    for _ in 0..GUARDS {
        drop(span::guard(root, SpanKind::Sim, "probe"));
    }
    let span_guard_ns = t0.elapsed().as_secs_f64() * 1e9 / GUARDS as f64;
    span::close(root.span, true, "");
    let t0 = Instant::now();
    for _ in 0..SNAPSHOTS {
        black_box(tel.snapshot().counters.len());
    }
    TelemetryProbe {
        counter_inc_ns,
        hist_observe_ns,
        span_guard_ns,
        snapshot_us: t0.elapsed().as_secs_f64() * 1e6 / f64::from(SNAPSHOTS),
    }
}
