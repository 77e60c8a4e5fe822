//! The cycle-level timing engine (coordinator side).
//!
//! The model: workgroups are dispatched to compute units under resource
//! constraints (wavefront slots, LDS, workgroups-per-CU); each CU has
//! `simds_per_cu` SIMD units issuing one instruction per cycle from their
//! resident wavefronts; each wavefront executes in order with one
//! outstanding instruction, so latency is hidden by multi-wavefront
//! interleaving (the classic simplified GPU timing model); memory
//! instructions coalesce into 64-byte lines that traverse the
//! [`gpu_mem::MemoryHierarchy`] with queueing contention; `s_barrier`
//! parks warps until the whole workgroup arrives.
//!
//! The engine is event-driven (indexed calendar queues of warp-ready
//! events, see [`crate::calendar`]), so simulation cost scales with
//! executed instructions rather than elapsed cycles. The
//! per-instruction path is allocation-free: coalesced memory lines land
//! in a reusable scratch buffer, instruction latencies come from tables
//! precomputed at kernel start, and event scheduling is O(1) (see
//! DESIGN.md, "Engine hot path").
//!
//! Since the sharding refactor the per-warp machinery lives in
//! [`crate::shard`]: every kernel run is split into CU-shard event
//! domains that reach shared memory only through typed
//! [`gpu_mem::MemPort`]s. This module is the *coordinator*: it owns the
//! dispatcher (resource pools are global), the IPC windows, the
//! watchdog, and the shared [`gpu_mem::MemoryHierarchy`]. Under
//! [`EngineMode::Serial`] there is exactly one shard spanning every CU,
//! serviced inline ([`Backend::Direct`]) — bit-identical to the
//! pre-shard engine. The epoch-parallel modes (one shard per CU,
//! lock-step quanta, see [`crate::epoch`]) reuse the same shard code
//! with deferred ports.
//!
//! Sampling is mechanically supported in three ways, steered by a
//! [`SamplingController`]:
//! * kernels can be skipped outright with a predicted time
//!   (kernel-sampling),
//! * workgroups can be dispatched in [`WgMode::BbSampled`] (functional
//!   execution + per-warp predicted durations) or
//!   [`WgMode::WarpSampled`] (no execution, predicted durations;
//!   scheduler-only) — predicted warps still occupy scheduler slots,
//! * detailed simulation can be aborted with a stable IPC and
//!   extrapolated (the PKA mechanism).

use crate::config::{EngineMode, GpuConfig, WatchdogConfig};
use crate::controller::{
    KernelDirective, KernelStartAccess, NullController, SamplingController, WgMode,
};
use crate::error::{SimError, StuckWarp, WatchdogSnapshot};
use crate::functional::{run_warps_cooperative, run_wg_functional, trace_warp_isolated, CoopWarp};
use crate::result::{AppResult, KernelResult};
use crate::shard::{close_wait, Backend, CtrlSink, EvKind, RunAccounting, Shard, ShardStop};
use crate::shard::{SimHooks, WarpSeed};
use crate::warp::WarpTrace;
use gpu_isa::KernelLaunch;
use gpu_mem::{AddressSpace, BumpAllocator, Cycle, MemStats, MemoryHierarchy};
use gpu_telemetry::faults::{self, FaultSite};
use gpu_telemetry::{
    AbortKind, Counter, EventKind, SampleMode, StallClass, StallWindow, Telemetry, TraceEvent,
};

/// First allocatable device address.
const HEAP_BASE: u64 = 0x1000;

/// A simulated GPU: functional memory, timing hierarchy, and the engine
/// that runs kernels under a [`SamplingController`].
///
/// # Example
/// ```
/// use gpu_isa::{Kernel, KernelBuilder, KernelLaunch};
/// use gpu_sim::{GpuConfig, GpuSimulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut gpu = GpuSimulator::new(GpuConfig::tiny());
/// let mut kb = KernelBuilder::new("nop");
/// let s = kb.sreg();
/// kb.smov(s, 1i64);
/// let launch = KernelLaunch::new(Kernel::new(kb.finish()?), 4, 2, vec![]);
/// let result = gpu.run_kernel(&launch)?;
/// assert!(result.cycles > 0);
/// assert_eq!(result.total_warps, 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GpuSimulator {
    config: GpuConfig,
    mem: AddressSpace,
    alloc: BumpAllocator,
    hierarchy: MemoryHierarchy,
    clock: Cycle,
    telemetry: Telemetry,
    counters: SimCounters,
    hooks: SimHooks,
    kernel_seq: u64,
}

/// Registry handles for the engine's `sim.*` counters, bulk-updated at
/// kernel boundaries (never per instruction) to keep the hot loop
/// untouched.
#[derive(Debug, Clone)]
struct SimCounters {
    kernels: Counter,
    kernels_skipped: Counter,
    detailed_insts: Counter,
    functional_insts: Counter,
    detailed_warps: Counter,
    predicted_warps: Counter,
    cycles: Counter,
    /// Timing events scheduled (`sim.events`) — the calendar queues'
    /// push counts, bulk-recorded at kernel end.
    events: Counter,
}

impl SimCounters {
    fn new(tel: &Telemetry) -> Self {
        SimCounters {
            kernels: tel.counter("sim.kernels"),
            kernels_skipped: tel.counter("sim.kernels.skipped"),
            detailed_insts: tel.counter("sim.insts.detailed"),
            functional_insts: tel.counter("sim.insts.functional"),
            detailed_warps: tel.counter("sim.warps.detailed"),
            predicted_warps: tel.counter("sim.warps.predicted"),
            cycles: tel.counter("sim.cycles"),
            events: tel.counter("sim.events"),
        }
    }

    fn record(&self, result: &KernelResult) {
        self.kernels.inc();
        if result.skipped {
            self.kernels_skipped.inc();
        }
        self.detailed_insts.add(result.detailed_insts);
        self.functional_insts.add(result.functional_insts);
        self.detailed_warps.add(result.detailed_warps);
        self.predicted_warps.add(result.predicted_warps);
        self.cycles.add(result.cycles);
    }
}

impl SimHooks {
    fn new(tel: &Telemetry) -> Self {
        SimHooks {
            trace: tel.trace().clone(),
            warp_duration: tel.histogram("sim.warp.duration"),
            bb_duration: tel.histogram("sim.bb.duration"),
            watchdog_aborts: tel.counter("sim.watchdog.aborts"),
            ipc_abort_refused: tel.counter("sim.ipc_abort.refused"),
        }
    }

    /// Counts a watchdog abort and records the snapshot as a trace
    /// event, so an exported trace alone explains why the run died.
    pub(crate) fn abort(&self, kind: AbortKind, snap: &WatchdogSnapshot) {
        self.watchdog_aborts.inc();
        self.trace.emit_with(|| TraceEvent {
            ts: snap.cycle,
            dur: 0,
            kind: EventKind::WatchdogAbort {
                kind,
                stuck_warps: snap.stuck.len() as u64,
                detail: snap.to_string(),
            },
        });
    }
}

fn sample_mode(mode: WgMode) -> SampleMode {
    match mode {
        WgMode::Detailed => SampleMode::Detailed,
        WgMode::BbSampled => SampleMode::BbSampled,
        WgMode::WarpSampled => SampleMode::WarpSampled,
    }
}

impl GpuSimulator {
    /// Creates a simulator for the given configuration with its own
    /// private telemetry.
    pub fn new(config: GpuConfig) -> Self {
        Self::with_telemetry(config, Telemetry::default())
    }

    /// Creates a simulator wired to a shared [`Telemetry`] handle, so
    /// engine and memory counters land in one registry and trace events
    /// interleave in one ring buffer.
    pub fn with_telemetry(config: GpuConfig, telemetry: Telemetry) -> Self {
        let hierarchy = MemoryHierarchy::with_telemetry(config.mem.clone(), &telemetry);
        let cap = config.mem.dram.capacity_bytes;
        GpuSimulator {
            mem: AddressSpace::new(),
            alloc: BumpAllocator::new(HEAP_BASE, cap - HEAP_BASE),
            hierarchy,
            clock: 0,
            counters: SimCounters::new(&telemetry),
            hooks: SimHooks::new(&telemetry),
            telemetry,
            kernel_seq: 0,
            config,
        }
    }

    /// The simulator's telemetry handle (registry + trace).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The active configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Current simulated cycle (monotone across kernels).
    pub fn clock(&self) -> Cycle {
        self.clock
    }

    /// Read access to device memory (host-side result checks).
    pub fn mem(&self) -> &AddressSpace {
        &self.mem
    }

    /// Write access to device memory (host-side data initialization).
    pub fn mem_mut(&mut self) -> &mut AddressSpace {
        &mut self.mem
    }

    /// Allocates a 256-byte-aligned device buffer.
    ///
    /// # Errors
    /// Returns [`SimError::OutOfDeviceMemory`] when DRAM capacity is
    /// exhausted.
    pub fn alloc_buffer(&mut self, bytes: u64) -> Result<u64, SimError> {
        Ok(self.alloc.alloc(bytes.max(1), 256)?)
    }

    /// Snapshot of the accumulated memory-system statistics.
    pub fn mem_stats(&self) -> MemStats {
        self.hierarchy.stats()
    }

    /// Runs one kernel in full detailed mode.
    ///
    /// # Errors
    /// Propagates launch-validation and runaway-loop errors.
    pub fn run_kernel(&mut self, launch: &KernelLaunch) -> Result<KernelResult, SimError> {
        self.run_kernel_sampled(launch, &mut NullController)
    }

    /// Runs one kernel under a sampling controller.
    ///
    /// # Errors
    /// Returns [`SimError::EmptyLaunch`], [`SimError::WorkgroupTooLarge`],
    /// [`SimError::LdsOverflow`] or [`SimError::InvalidKernel`] for
    /// launches rejected by pre-flight validation (before any cycle is
    /// simulated); [`SimError::InstLimitExceeded`] or
    /// [`SimError::ExecFault`] for runaway/faulting warps; and
    /// [`SimError::Deadlock`] or [`SimError::FuelExhausted`] (with a
    /// [`WatchdogSnapshot`](crate::WatchdogSnapshot) of the stuck warps)
    /// when the watchdog aborts a launch that stopped making progress.
    pub fn run_kernel_sampled(
        &mut self,
        launch: &KernelLaunch,
        ctrl: &mut dyn SamplingController,
    ) -> Result<KernelResult, SimError> {
        if launch.num_wgs == 0 || launch.warps_per_wg == 0 {
            return Err(SimError::EmptyLaunch);
        }
        if launch.warps_per_wg > self.config.warps_per_cu() {
            return Err(SimError::WorkgroupTooLarge {
                warps_per_wg: launch.warps_per_wg,
                capacity: self.config.warps_per_cu(),
            });
        }
        if launch.lds_bytes > self.config.lds_per_cu {
            return Err(SimError::LdsOverflow {
                requested: launch.lds_bytes,
                available: self.config.lds_per_cu,
            });
        }
        // Pre-flight: catch malformed programs (deserialized or
        // hand-assembled ones bypass the builder's checks) before any
        // cycle is simulated.
        gpu_isa::validate_launch(launch, &gpu_isa::KernelLimits::default())?;

        self.hierarchy.flush_caches();
        let start = self.clock;
        let seq = self.kernel_seq;
        self.kernel_seq += 1;
        ctrl.attach_telemetry(&self.telemetry);
        self.hooks.trace.emit_with(|| TraceEvent {
            ts: start,
            dur: 0,
            kind: EventKind::KernelBegin {
                kernel: launch.kernel.name().to_string(),
                seq,
                total_warps: launch.total_warps(),
            },
        });
        let mem_before = self.hierarchy.stats();
        let max_insts = self.config.max_insts_per_warp;
        let mut functional_insts = 0u64;

        // Kernel-start hook (kernel-sampling decision point).
        let directive = {
            let mut ctx = StartCtx {
                launch,
                mem: &self.mem,
                functional_insts: 0,
                max_insts,
                start,
            };
            let d = ctrl.on_kernel_start(&mut ctx);
            functional_insts += ctx.functional_insts;
            d
        };
        if let KernelDirective::Skip {
            predicted_cycles,
            functional_replay,
        } = directive
        {
            if functional_replay {
                for wg in 0..launch.num_wgs {
                    let (_, n) = run_wg_functional(launch, &mut self.mem, wg, max_insts)?;
                    functional_insts += n;
                }
            }
            self.clock = start + predicted_cycles.max(1);
            let result = KernelResult {
                name: launch.kernel.name().to_string(),
                cycles: predicted_cycles.max(1),
                start_cycle: start,
                detailed_insts: 0,
                functional_insts,
                total_warps: launch.total_warps(),
                detailed_warps: 0,
                predicted_warps: launch.total_warps(),
                ipc_timeline: Vec::new(),
                ipc_window: self.config.ipc_window,
                skipped: true,
                mem: gpu_mem::MemStats::default(),
                accounting: None,
                bb_stats: Vec::new(),
            };
            self.counters.record(&result);
            self.emit_kernel_end(&result, seq);
            ctrl.on_kernel_end(&result);
            return Ok(result);
        }

        let hooks = self.hooks.clone();
        let mut run = KernelRun::new(
            &self.config,
            &mut self.mem,
            &mut self.hierarchy,
            launch,
            start,
            hooks,
        );
        run.functional_insts = functional_insts;
        let outcome = run.run(ctrl);
        let events_scheduled = run.events_scheduled();
        let shard_busy: Vec<u64> = run.shards.iter().map(|s| s.busy_cycles).collect();
        let epochs = run.epochs;
        // Bulk-publish the memory counters and queue-delay histograms
        // accumulated during the run (cold path; the hot loop touches
        // neither atomics nor locked histograms) — before an error
        // propagates, so the registry a flight record or a skipped-run
        // report snapshots holds the kernel that failed.
        self.hierarchy.publish_queue_delays();
        let mut result = outcome?;
        self.clock = start + result.cycles;
        result.name = launch.kernel.name().to_string();
        result.mem = self.hierarchy.stats().since(&mem_before);
        self.counters.record(&result);
        self.counters.events.add(events_scheduled);
        // Per-shard utilization and epoch health (cold path, once per
        // kernel): busy cycles per shard, plus the imbalance ratio
        // (max/mean busy) for epoch runs.
        for (i, b) in shard_busy.iter().enumerate() {
            self.telemetry
                .counter(&format!("engine.shard.{i}.busy_cycles"))
                .add(*b);
        }
        if epochs > 0 {
            self.telemetry.counter("engine.epochs").add(epochs);
            let max = shard_busy.iter().copied().max().unwrap_or(0) as f64;
            let mean = shard_busy.iter().sum::<u64>() as f64 / shard_busy.len().max(1) as f64;
            self.telemetry
                .gauge("engine.epoch.imbalance")
                .set(if mean > 0.0 { max / mean } else { 1.0 });
        }
        self.emit_kernel_end(&result, seq);
        ctrl.on_kernel_end(&result);
        // Controllers that model per-block durations publish their
        // predictions after seeing the kernel end; fold them into the
        // measured per-BB rows so results carry predicted-vs-measured
        // error side by side.
        for (bb, mean) in ctrl.bb_predictions() {
            if let Some(row) = result.bb_stats.iter_mut().find(|r| r.bb == bb) {
                row.predicted_mean = Some(mean);
            }
        }
        Ok(result)
    }

    fn emit_kernel_end(&self, result: &KernelResult, seq: u64) {
        self.hooks.trace.emit_with(|| TraceEvent {
            ts: result.start_cycle,
            dur: result.cycles,
            kind: EventKind::KernelEnd {
                kernel: result.name.clone(),
                seq,
                cycles: result.cycles,
                detailed_insts: result.detailed_insts,
                functional_insts: result.functional_insts,
                skipped: result.skipped,
            },
        });
    }

    /// Runs a sequence of kernel launches under one controller and
    /// collects per-kernel results.
    ///
    /// # Errors
    /// Stops at and returns the first kernel error.
    pub fn run_app(
        &mut self,
        launches: &[KernelLaunch],
        ctrl: &mut dyn SamplingController,
    ) -> Result<AppResult, SimError> {
        let mut app = AppResult::default();
        for launch in launches {
            app.kernels.push(self.run_kernel_sampled(launch, ctrl)?);
        }
        Ok(app)
    }
}

struct StartCtx<'a> {
    launch: &'a KernelLaunch,
    mem: &'a AddressSpace,
    functional_insts: u64,
    max_insts: u64,
    start: Cycle,
}

impl KernelStartAccess for StartCtx<'_> {
    fn launch(&self) -> &KernelLaunch {
        self.launch
    }

    fn total_warps(&self) -> u64 {
        self.launch.total_warps()
    }

    fn clock(&self) -> Cycle {
        self.start
    }

    fn trace_warp(&mut self, global_warp: u64) -> Result<WarpTrace, SimError> {
        let t = trace_warp_isolated(self.launch, self.mem, global_warp, self.max_insts)?;
        self.functional_insts += t.insts;
        Ok(t)
    }
}

/// One kernel run: the coordinator over a set of [`Shard`] event
/// domains. Owns everything global — the dispatcher and its resource
/// pools, IPC windows, the watchdog, the shared hierarchy — while the
/// shards own warps, calendars, and accounting.
pub(crate) struct KernelRun<'a> {
    pub(crate) cfg: &'a GpuConfig,
    pub(crate) mem: &'a mut AddressSpace,
    pub(crate) hier: &'a mut MemoryHierarchy,
    pub(crate) launch: &'a KernelLaunch,
    pub(crate) start: Cycle,

    /// CU-shard event domains: one spanning shard under
    /// [`EngineMode::Serial`], one per CU under the epoch modes (so the
    /// partition — and therefore the result — is invariant to the
    /// worker-thread count).
    pub(crate) shards: Vec<Shard>,
    /// Global CU index → owning shard index.
    pub(crate) cu_shard: Vec<u32>,
    pub(crate) next_wg: u32,

    pub(crate) cu_free_warps: Vec<u32>,
    pub(crate) cu_free_lds: Vec<u32>,
    pub(crate) cu_wg_count: Vec<u32>,
    pub(crate) rr_cu: usize,
    pub(crate) dispatcher_free: Cycle,

    pub(crate) functional_insts: u64,
    pub(crate) detailed_warps: u64,
    pub(crate) predicted_warps: u64,
    pub(crate) fired_windows: usize,
    pub(crate) abort_ipc: Option<f64>,
    /// Set by the `controller.nan` fault site: degrade any controller
    /// abort IPC to NaN, exercising the refuse-and-stay-detailed path.
    pub(crate) inject_nan_abort: bool,
    pub(crate) hooks: SimHooks,
    /// Epoch barriers executed (0 for serial runs).
    pub(crate) epochs: u64,
}

impl<'a> KernelRun<'a> {
    pub(crate) fn new(
        cfg: &'a GpuConfig,
        mem: &'a mut AddressSpace,
        hier: &'a mut MemoryHierarchy,
        launch: &'a KernelLaunch,
        start: Cycle,
        hooks: SimHooks,
    ) -> Self {
        let n_cu = cfg.num_cus as usize;
        let n_bbs = launch.kernel.program().basic_blocks().len();
        // Serial: one shard spanning every CU — the degenerate sharding
        // that reproduces the monolithic engine's event order exactly.
        // Epoch modes: strictly one shard per CU, regardless of thread
        // count, so epoch partitioning is thread-invariant.
        let n_shards = match cfg.engine.mode {
            EngineMode::Serial => 1,
            EngineMode::Deterministic => n_cu,
        };
        let shards = (0..n_shards)
            .map(|i| {
                Shard::new(
                    i as u32,
                    n_cu,
                    n_bbs,
                    start,
                    cfg.lat,
                    cfg.simds_per_cu,
                    cfg.ipc_window,
                    cfg.max_insts_per_warp,
                    hooks.clone(),
                )
            })
            .collect();
        let cu_shard = (0..n_cu)
            .map(|cu| if n_shards == 1 { 0 } else { cu as u32 })
            .collect();
        KernelRun {
            cfg,
            mem,
            hier,
            launch,
            start,
            shards,
            cu_shard,
            next_wg: 0,
            cu_free_warps: vec![cfg.warps_per_cu(); n_cu],
            cu_free_lds: vec![cfg.lds_per_cu; n_cu],
            cu_wg_count: vec![0; n_cu],
            rr_cu: 0,
            dispatcher_free: start,
            functional_insts: 0,
            detailed_warps: 0,
            predicted_warps: 0,
            fired_windows: 0,
            abort_ipc: None,
            inject_nan_abort: false,
            hooks,
            epochs: 0,
        }
    }

    /// Total timing events scheduled across all shard calendars.
    pub(crate) fn events_scheduled(&self) -> u64 {
        self.shards.iter().map(|s| s.events.pushes()).sum()
    }

    /// Last cycle at which any shard issued or retired (watchdog stall
    /// detection).
    pub(crate) fn last_progress(&self) -> Cycle {
        self.shards
            .iter()
            .map(|s| s.last_progress)
            .max()
            .unwrap_or(self.start)
    }

    fn last_retire(&self) -> Cycle {
        self.shards
            .iter()
            .map(|s| s.last_retire)
            .max()
            .unwrap_or(self.start)
    }

    fn detailed_insts(&self) -> u64 {
        self.shards.iter().map(|s| s.detailed_insts).sum()
    }

    /// Instructions issued in timeline window `idx`, summed over shards.
    pub(crate) fn window_insts(&self, idx: usize) -> u64 {
        self.shards
            .iter()
            .map(|s| s.ipc_counts.get(idx).copied().unwrap_or(0))
            .sum()
    }

    pub(crate) fn run(
        &mut self,
        ctrl: &mut dyn SamplingController,
    ) -> Result<KernelResult, SimError> {
        let mut wd = self.cfg.watchdog;
        // Fault injection (no-op unless PHOTON_FAULTS / --faults is
        // configured): consulted once per kernel, keyed by the kernel
        // name so the decision is independent of scheduling order.
        if faults::active() {
            let fault_key = gpu_isa::fnv1a(self.launch.kernel.name().as_bytes());
            if faults::should_inject(FaultSite::WatchdogFuel, fault_key) {
                wd.cycle_fuel = 0;
            }
            if faults::should_inject(FaultSite::WatchdogStuck, fault_key) {
                wd.stall_cycles = 0;
            }
            self.inject_nan_abort = faults::should_inject(FaultSite::ControllerNan, fault_key);
        }
        self.dispatch(self.start, ctrl)?;
        let now = match self.cfg.engine.mode {
            EngineMode::Serial => self.run_serial(wd, ctrl)?,
            EngineMode::Deterministic => self.run_epochs(wd, ctrl)?,
        };
        self.finish_run(now, ctrl)
    }

    /// The serial event loop: pop → watchdog → windows → handler, with
    /// the single spanning shard serviced inline against the hierarchy.
    fn run_serial(
        &mut self,
        wd: WatchdogConfig,
        ctrl: &mut dyn SamplingController,
    ) -> Result<Cycle, SimError> {
        let mut now = self.start;
        while let Some((cycle, kind)) = self.shards[0].events.pop() {
            now = cycle;
            self.watchdog(now, &wd)?;
            self.fire_windows(now, ctrl);
            if self.abort_ipc.is_some() {
                break;
            }
            let r = {
                let shard = &mut self.shards[0];
                let mut backend = Backend::Direct(&mut *self.hier);
                let mut sink = CtrlSink::Live(&mut *ctrl);
                match kind {
                    EvKind::Ready(w) => shard.handle_ready(
                        w,
                        now,
                        self.launch,
                        &mut *self.mem,
                        &mut backend,
                        &mut sink,
                    ),
                    EvKind::PredRetire(w) => shard.retire_warp(w, now, &mut sink),
                }
            };
            if let Err(stop) = r {
                return Err(self.stop_to_err(stop));
            }
            // A handler can complete at most one workgroup; free its
            // resources and refill the CU immediately, preserving the
            // monolithic engine's retire→dispatch ordering.
            while let Some(&(cycle, wg_local)) = self.shards[0].completions.first() {
                self.shards[0].completions.remove(0);
                self.free_wg_resources(0, wg_local);
                self.dispatch(cycle, ctrl)?;
            }
        }
        Ok(now)
    }

    /// The watchdog check both event loops make before handling cycle
    /// `now`: the kernel is out of cycle fuel, or no shard has issued or
    /// retired for `stall_cycles`.
    #[inline]
    pub(crate) fn watchdog(&self, now: Cycle, wd: &WatchdogConfig) -> Result<(), SimError> {
        if now - self.start > wd.cycle_fuel {
            let snapshot = self.snapshot(now);
            self.hooks.abort(AbortKind::FuelExhausted, &snapshot);
            return Err(SimError::FuelExhausted {
                fuel: wd.cycle_fuel,
                snapshot,
            });
        }
        if now.saturating_sub(self.last_progress()) > wd.stall_cycles {
            let snapshot = self.snapshot(now);
            self.hooks.abort(AbortKind::Deadlock, &snapshot);
            return Err(SimError::Deadlock { snapshot });
        }
        Ok(())
    }

    /// Converts a shard-local stop into the engine error, building the
    /// global watchdog snapshot for deadlocks.
    pub(crate) fn stop_to_err(&self, stop: ShardStop) -> SimError {
        match stop {
            ShardStop::Error(e) => e,
            ShardStop::DeadlockAt(cycle) => {
                let snapshot = self.snapshot(cycle);
                self.hooks.abort(AbortKind::Deadlock, &snapshot);
                SimError::Deadlock { snapshot }
            }
        }
    }

    /// Releases the resources of a completed workgroup back to its CU.
    pub(crate) fn free_wg_resources(&mut self, shard_idx: usize, wg_local: u32) {
        let cu = self.shards[shard_idx].wgs[wg_local as usize].cu as usize;
        self.cu_free_warps[cu] += self.launch.warps_per_wg;
        self.cu_free_lds[cu] += self.launch.lds_bytes;
        self.cu_wg_count[cu] -= 1;
    }

    /// Shared run tail: deadlock-on-drain detection, the short-kernel
    /// final-window flush, abort extrapolation, and result assembly
    /// (merging per-shard accounting and timelines).
    fn finish_run(
        &mut self,
        now: Cycle,
        ctrl: &mut dyn SamplingController,
    ) -> Result<KernelResult, SimError> {
        // The event queues drained. Unless we aborted deliberately, any
        // leftover work means warps are parked with nothing that could
        // ever wake them (e.g. a barrier some warps bypassed).
        if self.abort_ipc.is_none()
            && (self.next_wg < self.launch.num_wgs
                || self.shards.iter().any(|s| s.wgs.iter().any(|wg| !wg.done)))
        {
            let snapshot = self.snapshot(now);
            self.hooks.abort(AbortKind::Deadlock, &snapshot);
            return Err(SimError::Deadlock { snapshot });
        }

        // A kernel shorter than one IPC window would otherwise end
        // without the controller ever observing a window (blinding
        // PKA-style abort logic on short kernels). Flush one final
        // window over the actual elapsed span. Any abort verdict is
        // meaningless now — the kernel already finished in full detail —
        // so it is deliberately discarded.
        if self.abort_ipc.is_none() && self.fired_windows == 0 {
            let elapsed = (self.last_retire() - self.start).max(1);
            let insts = self.window_insts(0);
            ctrl.on_ipc_window(self.start, insts, elapsed);
            let _ = ctrl.check_abort();
            self.hooks.trace.emit_with(|| TraceEvent {
                ts: self.start,
                dur: elapsed,
                kind: EventKind::ControllerDecision {
                    controller: "engine".to_string(),
                    decision: "final-window-flush".to_string(),
                    detail: format!(
                        "kernel ended after {elapsed} cycles, before the first \
                         {}-cycle IPC window",
                        self.cfg.ipc_window
                    ),
                },
            });
        }

        let cycles = if let Some(ipc) = self.abort_ipc {
            // The detailed prefix ends here: close every incomplete
            // workgroup's accounting at the abort cycle so the stall-sum
            // invariant holds over the simulated span (the extrapolated
            // tail is deliberately unaccounted).
            self.close_accounting(now);
            // PKA-style extrapolation: total instructions / stable IPC.
            let remaining = self.finish_functional()?;
            self.functional_insts += remaining;
            let total = self.detailed_insts() + remaining;
            ((total as f64 / ipc.max(1e-9)).round() as Cycle).max(1)
        } else {
            (self.last_retire() - self.start).max(1)
        };
        if matches!(self.cfg.engine.mode, EngineMode::Serial) {
            // The spanning shard is busy for the whole run (the epoch
            // engines accumulate per-epoch busy spans instead).
            self.shards[0].busy_cycles = cycles;
        }

        // Merge the per-shard accounting and instruction timelines into
        // the kernel-level views; keep the per-shard rows alongside so
        // the balance invariant is checkable per event domain.
        let n_cu = self.cfg.num_cus as usize;
        let n_bbs = self.launch.kernel.program().basic_blocks().len();
        let mut acct = RunAccounting::new(n_cu, n_bbs, self.start, self.cfg.ipc_window);
        for shard in &self.shards {
            acct.merge_from(&shard.acct);
        }
        self.emit_accounting_samples(&acct);
        let counted = self
            .shards
            .iter()
            .map(|s| s.ipc_counts.len())
            .max()
            .unwrap_or(0);
        let mut timeline = vec![0u64; self.fired_windows.max(counted)];
        for shard in &self.shards {
            for (i, v) in shard.ipc_counts.iter().enumerate() {
                timeline[i] += v;
            }
        }
        let mut accounting = acct.finish(cycles);
        accounting.shards = self
            .shards
            .iter()
            .map(|s| s.acct.shard_entry(s.id))
            .collect();

        Ok(KernelResult {
            name: String::new(),
            cycles,
            start_cycle: self.start,
            detailed_insts: self.detailed_insts(),
            functional_insts: self.functional_insts,
            total_warps: self.launch.total_warps(),
            detailed_warps: self.detailed_warps,
            predicted_warps: self.predicted_warps,
            ipc_timeline: timeline,
            ipc_window: self.cfg.ipc_window,
            skipped: false,
            mem: gpu_mem::MemStats::default(),
            accounting: Some(accounting),
            bb_stats: acct.bb_stats(),
        })
    }

    /// Closes accounting for every still-resident workgroup at `now`
    /// (the PKA abort cutoff): open waits are attributed through `now`
    /// and residency is credited as if the workgroup completed here.
    fn close_accounting(&mut self, now: Cycle) {
        let n = self.launch.warps_per_wg as usize;
        for shard in &mut self.shards {
            for wg_idx in 0..shard.wgs.len() {
                if shard.wgs[wg_idx].done {
                    continue;
                }
                let (cu, t0, first) = {
                    let wg = &shard.wgs[wg_idx];
                    (wg.cu as usize, wg.t0, wg.first_warp_rt as usize)
                };
                for i in first..first + n {
                    close_wait(&mut shard.acct, &mut shard.warps[i], now);
                }
                shard.acct.cu_resident[cu] += n as u64 * now.saturating_sub(t0);
            }
        }
    }

    /// Emits the per-window stall-mix and occupancy counter samples into
    /// the trace (cold path, once per kernel, over the merged view).
    fn emit_accounting_samples(&self, acct: &RunAccounting) {
        let window = acct.window;
        for (i, classes) in acct.win_stalls.iter().enumerate() {
            let ts = acct.start + i as Cycle * window;
            let c = *classes;
            self.hooks.trace.emit_with(|| TraceEvent {
                ts,
                dur: window,
                kind: EventKind::StallSample {
                    issued: c[StallClass::Issued.index()],
                    dep_scoreboard: c[StallClass::DepScoreboard.index()],
                    mem_pending: c[StallClass::MemPending.index()],
                    mem_queue_full: c[StallClass::MemQueueFull.index()],
                    barrier: c[StallClass::Barrier.index()],
                    lds_conflict: c[StallClass::LdsConflict.index()],
                    no_warp_ready: c[StallClass::NoWarpReady.index()],
                    drained: c[StallClass::Drained.index()],
                },
            });
            let resident = StallWindow {
                start: ts,
                classes: c,
            }
            .resident_warps(window);
            self.hooks.trace.emit_with(|| TraceEvent {
                ts,
                dur: window,
                kind: EventKind::OccupancySample {
                    resident_warps: resident.round() as u64,
                },
            });
        }
    }

    pub(crate) fn fire_windows(&mut self, now: Cycle, ctrl: &mut dyn SamplingController) {
        let w = self.cfg.ipc_window;
        while self.start + (self.fired_windows as Cycle + 1) * w <= now {
            let idx = self.fired_windows;
            let insts = self.window_insts(idx);
            ctrl.on_ipc_window(self.start + idx as Cycle * w, insts, w);
            self.hooks.trace.emit_with(|| TraceEvent {
                ts: self.start + idx as Cycle * w,
                dur: w,
                kind: EventKind::IpcWindow { insts, window: w },
            });
            self.fired_windows += 1;
            if let Some(ipc) = ctrl.check_abort() {
                // The controller.nan fault degenerates the verdict the
                // moment it would have been acted on.
                let ipc = if self.inject_nan_abort { f64::NAN } else { ipc };
                // A non-finite or non-positive IPC would extrapolate to
                // nonsense; ignore the abort and stay detailed.
                if ipc.is_finite() && ipc > 0.0 {
                    self.abort_ipc = Some(ipc);
                    return;
                }
                self.hooks.ipc_abort_refused.inc();
            }
        }
    }

    /// Captures the state of every still-resident warp for a watchdog
    /// error. Cycles are kernel-relative.
    pub(crate) fn snapshot(&self, now: Cycle) -> WatchdogSnapshot {
        let mut stuck = Vec::new();
        let mut barriers = Vec::new();
        for shard in &self.shards {
            for (i, warp) in shard.warps.iter().enumerate() {
                if warp.done {
                    continue;
                }
                let wg = &shard.wgs[warp.wg as usize];
                stuck.push(StuckWarp {
                    warp: warp.global_id,
                    pc: warp.state.as_deref().map_or(0, |s| s.pc),
                    wg: wg.id,
                    at_barrier: wg.barrier_waiting.contains(&(i as u32)),
                    waiting_on: StallClass::from_index(warp.pending as usize).name(),
                });
            }
            for wg in shard
                .wgs
                .iter()
                .filter(|wg| !wg.done && wg.barrier_arrived > 0)
            {
                barriers.push((wg.id, wg.barrier_arrived, self.launch.warps_per_wg));
            }
        }
        WatchdogSnapshot {
            cycle: now.saturating_sub(self.start),
            stuck,
            barriers,
        }
    }

    /// Dispatches pending workgroups to CUs with free resources,
    /// admitting each into its CU's owning shard.
    pub(crate) fn dispatch(
        &mut self,
        now: Cycle,
        ctrl: &mut dyn SamplingController,
    ) -> Result<(), SimError> {
        let n_cu = self.cfg.num_cus as usize;
        while self.next_wg < self.launch.num_wgs {
            // Find a CU with capacity, round-robin.
            let mut found = None;
            for probe in 0..n_cu {
                let cu = (self.rr_cu + probe) % n_cu;
                if self.cu_free_warps[cu] >= self.launch.warps_per_wg
                    && self.cu_free_lds[cu] >= self.launch.lds_bytes
                    && self.cu_wg_count[cu] < self.cfg.max_wgs_per_cu
                {
                    found = Some(cu);
                    break;
                }
            }
            let Some(cu) = found else { break };
            self.rr_cu = (cu + 1) % n_cu;
            let wg_id = self.next_wg;
            self.next_wg += 1;
            self.cu_free_warps[cu] -= self.launch.warps_per_wg;
            self.cu_free_lds[cu] -= self.launch.lds_bytes;
            self.cu_wg_count[cu] += 1;

            let mode = ctrl.dispatch_mode();
            // the command processor dispatches workgroups sequentially
            let slot = now.max(self.dispatcher_free);
            self.dispatcher_free = slot + self.cfg.lat.dispatch_interval;
            let t0 = slot + self.cfg.lat.dispatch;
            self.hooks.trace.emit_with(|| TraceEvent {
                ts: t0,
                dur: 0,
                kind: EventKind::WgDispatch {
                    wg: wg_id,
                    cu: cu as u32,
                    mode: sample_mode(mode),
                },
            });

            let seed = match mode {
                WgMode::Detailed => {
                    self.detailed_warps += self.launch.warps_per_wg as u64;
                    WarpSeed::Detailed
                }
                WgMode::BbSampled => {
                    let (traces, n) = run_wg_functional(
                        self.launch,
                        self.mem,
                        wg_id,
                        self.cfg.max_insts_per_warp,
                    )?;
                    self.functional_insts += n;
                    let durs = traces
                        .iter()
                        .map(|trace| ctrl.predict_warp_bb(trace).max(1))
                        .collect();
                    self.predicted_warps += self.launch.warps_per_wg as u64;
                    WarpSeed::Predicted(durs)
                }
                WgMode::WarpSampled => {
                    let durs = (0..self.launch.warps_per_wg)
                        .map(|_| ctrl.predict_warp_avg().max(1))
                        .collect();
                    self.predicted_warps += self.launch.warps_per_wg as u64;
                    WarpSeed::Predicted(durs)
                }
            };
            let shard = self.cu_shard[cu] as usize;
            self.shards[shard].admit_wg(wg_id, cu as u32, mode, t0, now, seed, self.launch);
        }
        Ok(())
    }

    /// Finishes all unfinished work functionally (abort path): resumes
    /// live detailed warps cooperatively and runs undispatched
    /// workgroups fresh. Returns the instructions executed.
    fn finish_functional(&mut self) -> Result<u64, SimError> {
        let mut total = 0u64;
        let max_insts = self.cfg.max_insts_per_warp;
        let n = self.launch.warps_per_wg as usize;

        for shard in self.shards.iter_mut() {
            for wg in shard.wgs.iter_mut().filter(|wg| !wg.done) {
                let first = wg.first_warp_rt as usize;
                let mut lds = std::mem::take(&mut wg.lds);
                if lds.is_empty() {
                    // The workgroup aborted before any detailed warp
                    // stepped, so its lazy LDS was never materialized.
                    lds = vec![0u8; self.launch.lds_bytes.max(4) as usize];
                }
                // Warps without a state were predicted, not executed:
                // they have nothing to resume.
                let mut warps: Vec<CoopWarp<'_>> = shard.warps[first..first + n]
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(i, rt)| {
                        Some(CoopWarp {
                            warp_in_wg: i as u32,
                            state: rt.state.as_deref_mut()?,
                            at_barrier: wg.barrier_waiting.contains(&((first + i) as u32)),
                            insts: &mut rt.insts,
                            bb_counts: None,
                        })
                    })
                    .collect();
                total += run_warps_cooperative(
                    self.launch,
                    self.mem,
                    wg.id,
                    &mut lds,
                    &mut warps,
                    max_insts,
                )?;
                wg.done = true;
            }
        }

        for wg_id in self.next_wg..self.launch.num_wgs {
            let (_, n) = run_wg_functional(self.launch, self.mem, wg_id, max_insts)?;
            total += n;
        }
        self.next_wg = self.launch.num_wgs;
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Recorder;
    use gpu_isa::{CmpOp, Kernel, KernelBuilder, MemWidth, SAluOp, VAluOp, VectorSrc};

    fn vadd_launch(gpu: &mut GpuSimulator, n_wgs: u32, warps_per_wg: u32) -> KernelLaunch {
        let total_threads = n_wgs as u64 * warps_per_wg as u64 * 64;
        let a = gpu.alloc_buffer(total_threads * 4).unwrap();
        let b = gpu.alloc_buffer(total_threads * 4).unwrap();
        let c = gpu.alloc_buffer(total_threads * 4).unwrap();
        for i in 0..total_threads {
            gpu.mem_mut().write_f32(a + 4 * i, i as f32);
            gpu.mem_mut().write_f32(b + 4 * i, 2.0 * i as f32);
        }
        let mut kb = KernelBuilder::new("vadd");
        let (sa, sb, sc) = (kb.sreg(), kb.sreg(), kb.sreg());
        kb.load_arg(sa, 0);
        kb.load_arg(sb, 1);
        kb.load_arg(sc, 2);
        let tid = kb.vreg();
        kb.global_thread_id(tid);
        let off = kb.vreg();
        kb.valu(VAluOp::Shl, off, VectorSrc::Reg(tid), VectorSrc::Imm(2));
        let va = kb.vreg();
        let vb = kb.vreg();
        kb.global_load(va, sa, off, 0, MemWidth::B32);
        kb.global_load(vb, sb, off, 0, MemWidth::B32);
        let vc = kb.vreg();
        kb.valu(VAluOp::FAdd, vc, VectorSrc::Reg(va), VectorSrc::Reg(vb));
        kb.global_store(vc, sc, off, 0, MemWidth::B32);
        let k = Kernel::new(kb.finish().unwrap());
        KernelLaunch::new(k, n_wgs, warps_per_wg, vec![a, b, c])
    }

    #[test]
    fn vadd_detailed_is_functionally_correct() {
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        let launch = vadd_launch(&mut gpu, 8, 4);
        let result = gpu.run_kernel(&launch).unwrap();
        assert!(result.cycles > 0);
        assert_eq!(result.detailed_warps, 32);
        assert_eq!(result.predicted_warps, 0);
        let c = launch.args[2];
        for i in [0u64, 100, 2047] {
            assert_eq!(gpu.mem().read_f32(c + 4 * i), 3.0 * i as f32, "elem {i}");
        }
        // every warp executes the same straight-line program
        let per_warp = launch.kernel.program().len() as u64;
        assert_eq!(result.detailed_insts, per_warp * 32);
    }

    #[test]
    fn clock_advances_across_kernels() {
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        let launch = vadd_launch(&mut gpu, 2, 2);
        let r1 = gpu.run_kernel(&launch).unwrap();
        let c1 = gpu.clock();
        let r2 = gpu.run_kernel(&launch).unwrap();
        assert_eq!(c1, r1.cycles);
        assert_eq!(gpu.clock(), r1.cycles + r2.cycles);
        assert_eq!(r2.start_cycle, c1);
    }

    #[test]
    fn empty_launch_rejected() {
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        let launch = vadd_launch(&mut gpu, 2, 2);
        let mut bad = launch.clone();
        bad.num_wgs = 0;
        assert_eq!(gpu.run_kernel(&bad).unwrap_err(), SimError::EmptyLaunch);
    }

    #[test]
    fn oversized_wg_rejected() {
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        let launch = vadd_launch(&mut gpu, 2, 2);
        let mut bad = launch.clone();
        bad.warps_per_wg = 100;
        assert!(matches!(
            gpu.run_kernel(&bad).unwrap_err(),
            SimError::WorkgroupTooLarge { .. }
        ));
    }

    #[test]
    fn recorder_sees_bb_and_warp_records() {
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        let launch = vadd_launch(&mut gpu, 4, 2);
        let mut rec = Recorder::new();
        let result = gpu.run_kernel_sampled(&launch, &mut rec).unwrap();
        assert_eq!(rec.warp_records.len(), 8);
        // vadd is one straight-line basic block per warp
        assert_eq!(rec.bb_records.len(), 8);
        let insts_from_bbs: u64 = rec.bb_records.iter().map(|r| r.insts as u64).sum();
        assert_eq!(insts_from_bbs, result.detailed_insts);
        for wr in &rec.warp_records {
            assert!(wr.retire > wr.issue);
        }
    }

    #[test]
    fn barrier_kernel_synchronizes_in_timing_mode() {
        // Producer warp 0 writes LDS, all barrier, consumers read.
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        let out = gpu.alloc_buffer(4 * 64 * 4).unwrap();
        let mut kb = KernelBuilder::new("lds_sync");
        let s_out = kb.sreg();
        kb.load_arg(s_out, 0);
        let s_wiw = kb.sreg();
        kb.special(s_wiw, gpu_isa::SpecialReg::WarpInWg);
        let v_addr = kb.vreg();
        kb.valu(VAluOp::Shl, v_addr, VectorSrc::LaneId, VectorSrc::Imm(2));
        kb.scmp(CmpOp::Eq, s_wiw, 0i64);
        kb.if_scc(|kb| {
            let v = kb.vreg();
            kb.valu(VAluOp::Add, v, VectorSrc::LaneId, VectorSrc::Imm(7));
            kb.lds_store(v, v_addr, 0);
        });
        kb.barrier();
        let v_read = kb.vreg();
        kb.lds_load(v_read, v_addr, 0);
        let s_base = kb.sreg();
        kb.salu(SAluOp::Mul, s_base, s_wiw, 256i64);
        let v_off = kb.vreg();
        kb.valu(
            VAluOp::Add,
            v_off,
            VectorSrc::Sreg(s_base),
            VectorSrc::Reg(v_addr),
        );
        kb.global_store(v_read, s_out, v_off, 0, MemWidth::B32);
        let k = Kernel::new(kb.finish().unwrap());
        let launch = KernelLaunch::new(k, 1, 4, vec![out]).with_lds(256);
        gpu.run_kernel(&launch).unwrap();
        // consumer warp 3 lane 9 sees producer's value
        assert_eq!(gpu.mem().read_u32(out + 4 * (3 * 64 + 9)), 7 + 9);
    }

    #[test]
    fn more_cus_is_not_slower() {
        let mut small = GpuSimulator::new(GpuConfig::tiny());
        let launch_s = vadd_launch(&mut small, 64, 4);
        let t_small = small.run_kernel(&launch_s).unwrap().cycles;

        let mut cfg = GpuConfig::tiny();
        cfg.num_cus = 16;
        cfg.mem.num_cus = 16;
        let mut big = GpuSimulator::new(cfg);
        let launch_b = vadd_launch(&mut big, 64, 4);
        let t_big = big.run_kernel(&launch_b).unwrap().cycles;
        assert!(
            t_big <= t_small,
            "16 CUs ({t_big}) should not be slower than 4 ({t_small})"
        );
    }

    #[test]
    fn ipc_timeline_accounts_all_instructions() {
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        let launch = vadd_launch(&mut gpu, 16, 4);
        let result = gpu.run_kernel(&launch).unwrap();
        let total: u64 = result.ipc_timeline.iter().sum();
        assert_eq!(total, result.detailed_insts);
    }

    /// Controller that forces every workgroup into warp-sampled mode
    /// with a fixed predicted duration.
    struct FixedPrediction(u64);
    impl SamplingController for FixedPrediction {
        fn dispatch_mode(&mut self) -> WgMode {
            WgMode::WarpSampled
        }
        fn predict_warp_avg(&mut self) -> Cycle {
            self.0
        }
    }

    #[test]
    fn warp_sampled_mode_skips_execution() {
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        let launch = vadd_launch(&mut gpu, 8, 4);
        let mut ctrl = FixedPrediction(500);
        let result = gpu.run_kernel_sampled(&launch, &mut ctrl).unwrap();
        assert_eq!(result.detailed_insts, 0);
        assert_eq!(result.predicted_warps, 32);
        // All WGs fit at once on 4 CUs (8 WGs of 4 warps), so the kernel
        // time is dispatch + 500.
        assert!(
            result.cycles >= 500 && result.cycles < 600,
            "{}",
            result.cycles
        );
        // no functional execution in warp-sampling
        assert_eq!(result.functional_insts, 0);
    }

    /// Controller that bb-samples everything with a per-trace prediction
    /// proportional to instruction count.
    struct BbEverything;
    impl SamplingController for BbEverything {
        fn dispatch_mode(&mut self) -> WgMode {
            WgMode::BbSampled
        }
        fn predict_warp_bb(&mut self, trace: &WarpTrace) -> Cycle {
            trace.insts * 10
        }
    }

    #[test]
    fn bb_sampled_mode_executes_functionally() {
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        let launch = vadd_launch(&mut gpu, 8, 4);
        let mut ctrl = BbEverything;
        let result = gpu.run_kernel_sampled(&launch, &mut ctrl).unwrap();
        assert_eq!(result.detailed_insts, 0);
        assert!(result.functional_insts > 0);
        // memory effects are committed
        let c = launch.args[2];
        assert_eq!(gpu.mem().read_f32(c + 4 * 99), 3.0 * 99.0);
    }

    /// Controller recording every IPC-window callback and abort poll.
    struct WindowRecorder {
        windows: Vec<(Cycle, u64, Cycle)>,
        aborts_checked: u32,
    }
    impl SamplingController for WindowRecorder {
        fn on_ipc_window(&mut self, start: Cycle, insts: u64, window: Cycle) {
            self.windows.push((start, insts, window));
        }
        fn check_abort(&mut self) -> Option<f64> {
            self.aborts_checked += 1;
            None
        }
    }

    #[test]
    fn short_kernel_flushes_final_ipc_window() {
        // A kernel shorter than one ipc_window used to end without the
        // controller ever seeing a window (or an abort poll). The engine
        // now flushes one final window spanning the actual elapsed span.
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        // Pure-ALU kernel: a handful of scalar ops, no memory latency.
        let mut kb = KernelBuilder::new("short");
        let s = kb.sreg();
        kb.smov(s, 1i64);
        kb.salu(SAluOp::Add, s, s, 2i64);
        kb.salu(SAluOp::Mul, s, s, 3i64);
        let launch = KernelLaunch::new(Kernel::new(kb.finish().unwrap()), 1, 1, vec![]);
        let mut ctrl = WindowRecorder {
            windows: Vec::new(),
            aborts_checked: 0,
        };
        let result = gpu.run_kernel_sampled(&launch, &mut ctrl).unwrap();
        assert!(
            result.cycles < gpu.config().ipc_window,
            "test premise: kernel ({} cycles) shorter than one window",
            result.cycles
        );
        assert_eq!(ctrl.windows.len(), 1);
        let (start, insts, width) = ctrl.windows[0];
        assert_eq!(start, result.start_cycle);
        assert_eq!(insts, result.detailed_insts);
        assert_eq!(width, result.cycles, "width is the elapsed span");
        assert!(ctrl.aborts_checked >= 1, "abort poll still happens");
    }

    #[test]
    fn long_kernel_windows_are_not_flushed() {
        // When regular windows fired, the final-window flush must stay
        // out of the way: the controller sees only full-width windows.
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        let launch = vadd_launch(&mut gpu, 64, 4);
        let mut ctrl = WindowRecorder {
            windows: Vec::new(),
            aborts_checked: 0,
        };
        let result = gpu.run_kernel_sampled(&launch, &mut ctrl).unwrap();
        let w = gpu.config().ipc_window;
        assert!(result.cycles >= w, "test premise: at least one window");
        assert!(!ctrl.windows.is_empty());
        assert!(ctrl.windows.iter().all(|&(_, _, width)| width == w));
    }

    /// Controller that skips the kernel outright (kernel-sampling).
    struct SkipAll;
    impl SamplingController for SkipAll {
        fn on_kernel_start(&mut self, _ctx: &mut dyn KernelStartAccess) -> KernelDirective {
            KernelDirective::Skip {
                predicted_cycles: 1234,
                functional_replay: true,
            }
        }
    }

    #[test]
    fn kernel_skip_charges_predicted_time_and_replays() {
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        let launch = vadd_launch(&mut gpu, 4, 4);
        let mut ctrl = SkipAll;
        let result = gpu.run_kernel_sampled(&launch, &mut ctrl).unwrap();
        assert!(result.skipped);
        assert_eq!(result.cycles, 1234);
        assert_eq!(gpu.clock(), 1234);
        assert!(result.functional_insts > 0);
        let c = launch.args[2];
        assert_eq!(gpu.mem().read_f32(c + 4 * 7), 21.0);
    }

    /// Controller that aborts after the first IPC window (PKA mechanism).
    struct AbortAfterFirstWindow {
        windows: u32,
        ipc_seen: f64,
    }
    impl SamplingController for AbortAfterFirstWindow {
        fn on_ipc_window(&mut self, _start: Cycle, insts: u64, window: Cycle) {
            self.windows += 1;
            self.ipc_seen = insts as f64 / window as f64;
        }
        fn check_abort(&mut self) -> Option<f64> {
            (self.windows >= 1 && self.ipc_seen > 0.0).then_some(self.ipc_seen)
        }
    }

    #[test]
    fn ipc_abort_extrapolates() {
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        // Big enough that one window elapses well before the end.
        let launch = vadd_launch(&mut gpu, 256, 4);
        let full = gpu.run_kernel(&launch).unwrap();

        let mut gpu2 = GpuSimulator::new(GpuConfig::tiny());
        let launch2 = vadd_launch(&mut gpu2, 256, 4);
        let mut ctrl = AbortAfterFirstWindow {
            windows: 0,
            ipc_seen: 0.0,
        };
        let sampled = gpu2.run_kernel_sampled(&launch2, &mut ctrl).unwrap();
        assert!(sampled.detailed_insts < full.detailed_insts);
        assert!(sampled.functional_insts > 0);
        // extrapolation is the right order of magnitude
        let ratio = sampled.cycles as f64 / full.cycles as f64;
        assert!(ratio > 0.2 && ratio < 5.0, "ratio {ratio}");
        // functional completion still commits memory
        let c = launch2.args[2];
        assert_eq!(gpu2.mem().read_f32(c + 4 * 12345), 3.0 * 12345.0);
    }

    /// An abort that lands while warps are parked at a barrier must
    /// resume them *as parked*: the producer still has to arrive before
    /// the consumers read LDS.
    #[test]
    fn abort_with_warps_parked_at_a_barrier_matches_a_functional_pass() {
        const SPIN: i64 = 20_000;
        let (wgs, warps_per_wg) = (4u32, 4u32);
        let words = (wgs * warps_per_wg * 64) as u64;
        // The last warp of each workgroup spins, then publishes
        // lane + SPIN to LDS; its siblings go straight to the barrier and
        // wait there. (The last, so that siblings wrongly resumed past
        // the barrier would run — and read LDS — before it.)
        let launch_on = |gpu: &mut GpuSimulator| {
            let out = gpu.alloc_buffer(words * 4).unwrap();
            let mut kb = KernelBuilder::new("late_producer");
            let s_out = kb.sreg();
            kb.load_arg(s_out, 0);
            let s_wiw = kb.sreg();
            kb.special(s_wiw, gpu_isa::SpecialReg::WarpInWg);
            let v_addr = kb.vreg();
            kb.valu(VAluOp::Shl, v_addr, VectorSrc::LaneId, VectorSrc::Imm(2));
            kb.scmp(CmpOp::Eq, s_wiw, i64::from(warps_per_wg - 1));
            kb.if_scc(|kb| {
                let (i, acc) = (kb.sreg(), kb.sreg());
                kb.smov(acc, 0i64);
                kb.for_uniform(i, 0i64, SPIN, |kb| {
                    kb.salu(SAluOp::Add, acc, acc, 1i64);
                });
                let v = kb.vreg();
                kb.valu(VAluOp::Add, v, VectorSrc::LaneId, VectorSrc::Sreg(acc));
                kb.lds_store(v, v_addr, 0);
            });
            kb.barrier();
            let v_read = kb.vreg();
            kb.lds_load(v_read, v_addr, 0);
            let v_off = kb.vreg();
            kb.global_thread_id(v_off);
            kb.valu(VAluOp::Shl, v_off, VectorSrc::Reg(v_off), VectorSrc::Imm(2));
            kb.global_store(v_read, s_out, v_off, 0, MemWidth::B32);
            let k = Kernel::new(kb.finish().unwrap());
            KernelLaunch::new(k, wgs, warps_per_wg, vec![out]).with_lds(256)
        };

        let mut aborted = GpuSimulator::new(GpuConfig::tiny());
        let launch = launch_on(&mut aborted);
        let mut ctrl = AbortAfterFirstWindow {
            windows: 0,
            ipc_seen: 0.0,
        };
        let r = aborted.run_kernel_sampled(&launch, &mut ctrl).unwrap();
        // The abort came before any producer finished spinning, so no
        // barrier had released: every sibling that started was parked.
        assert!(r.detailed_insts > 0 && r.detailed_insts < SPIN as u64);
        assert!(r.functional_insts > SPIN as u64);

        let mut pure = GpuSimulator::new(GpuConfig::tiny());
        let reference = launch_on(&mut pure);
        for wg in 0..wgs {
            run_wg_functional(&reference, pure.mem_mut(), wg, u64::MAX).unwrap();
        }
        let (out, ref_out) = (launch.args[0], reference.args[0]);
        for w in 0..words {
            let got = aborted.mem().read_u32(out + 4 * w);
            assert_eq!(got, pure.mem().read_u32(ref_out + 4 * w), "word {w}");
            assert_eq!(got, (w % 64) as u32 + SPIN as u32, "word {w}");
        }
    }

    #[test]
    fn telemetry_counters_accumulate() {
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        let launch = vadd_launch(&mut gpu, 2, 2);
        let r = gpu.run_kernel(&launch).unwrap();
        let snap = gpu.telemetry().snapshot();
        assert_eq!(snap.counter("sim.kernels"), Some(1));
        assert_eq!(snap.counter("sim.kernels.skipped"), Some(0));
        assert_eq!(snap.counter("sim.insts.detailed"), Some(r.detailed_insts));
        assert_eq!(snap.counter("sim.cycles"), Some(r.cycles));
        assert_eq!(snap.counter("sim.warps.detailed"), Some(4));
        // Every detailed instruction schedules at least one event.
        assert!(snap.counter("sim.events").unwrap() >= r.detailed_insts);
        // The memory hierarchy shares the same registry.
        let l1v =
            snap.counter("mem.l1v.hits").unwrap_or(0) + snap.counter("mem.l1v.misses").unwrap_or(0);
        assert!(l1v > 0, "vadd must touch the vector L1");
        // The warp-duration histogram saw every detailed warp.
        let hist = snap
            .histograms
            .iter()
            .find(|h| h.name == "sim.warp.duration")
            .expect("warp duration histogram registered");
        assert_eq!(hist.count, 4);
        assert!(hist.min > 0);
    }

    #[test]
    fn serial_run_reports_spanning_shard_busy() {
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        let launch = vadd_launch(&mut gpu, 2, 2);
        let r = gpu.run_kernel(&launch).unwrap();
        let snap = gpu.telemetry().snapshot();
        assert_eq!(snap.counter("engine.shard.0.busy_cycles"), Some(r.cycles));
        // Serial runs never execute epoch barriers.
        assert_eq!(snap.counter("engine.epochs"), None);
        let acct = r.accounting.expect("accounting present");
        assert_eq!(acct.shards.len(), 1, "one spanning shard");
        acct.check().expect("balance invariant");
    }

    #[test]
    fn run_app_accumulates() {
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        let launch = vadd_launch(&mut gpu, 2, 2);
        let app = gpu
            .run_app(&[launch.clone(), launch.clone()], &mut NullController)
            .unwrap();
        assert_eq!(app.kernels.len(), 2);
        assert_eq!(app.total_cycles(), gpu.clock());
    }
}
