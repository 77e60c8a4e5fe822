//! Per-CU-shard event domains for the sharded timing engine.
//!
//! A [`Shard`] owns a contiguous set of compute units together with
//! everything whose timing is decided locally: the resident warps and
//! workgroups, the shard's [`CalendarQueue`] of ready events, the SIMD
//! issue ports, and per-shard cycle accounting. Everything a shard
//! cannot decide locally crosses an explicit boundary:
//!
//! * memory accesses leave through the shard's typed
//!   [`gpu_mem::MemPort`] request queue and come back as
//!   [`gpu_mem::MemResponse`]s — the shard never touches the shared
//!   [`gpu_mem::MemoryHierarchy`] directly;
//! * workgroup completions are queued for the coordinator, which owns
//!   the dispatcher (resource pools are a global resource);
//! * controller callbacks are either delivered live (serial engine) or
//!   buffered into a [`CtrlBuf`] and replayed by the coordinator in
//!   canonical order at the next epoch barrier.
//!
//! The serial engine is the degenerate case: one shard spanning every
//! CU, with a [`Backend::Direct`] that services each port request
//! immediately — which reproduces the pre-shard engine's event sequence
//! bit for bit. The epoch-parallel engine (see [`crate::epoch`]) runs
//! one shard per CU with [`Backend::Deferred`], draining the ports at
//! lock-step epoch barriers.

use crate::calendar::CalendarQueue;
use crate::config::LatencyConfig;
use crate::controller::{BbRecord, SamplingController, WarpRecord, WgMode};
use crate::error::SimError;
use crate::exec::{execute, fetch, LaunchEnv, StepEffect};
use crate::overlay::DataMem;
use crate::warp::WarpState;
use gpu_isa::{BasicBlockId, InstClass, KernelLaunch};
use gpu_mem::{Cycle, MemPort, MemResponse, MemoryHierarchy};
use gpu_telemetry::{
    Counter, CycleAccounting, Histogram, ShardAccounting, StallClass, StallWindow, Trace,
    TraceEvent, STALL_CLASSES,
};
use gpu_telemetry::{CuAccounting, EventKind};

/// Timing events: a warp becomes schedulable, or a predicted
/// (sampled-mode) warp reaches its predicted retire cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EvKind {
    Ready(u32),
    PredRetire(u32),
}

/// Telemetry handles threaded into every shard: the trace emitter plus
/// the duration histograms fed at warp/block granularity. All handles
/// are clones over shared thread-safe sinks, so shards on worker
/// threads can emit without coordination.
#[derive(Debug, Clone)]
pub(crate) struct SimHooks {
    pub(crate) trace: Trace,
    pub(crate) warp_duration: Histogram,
    pub(crate) bb_duration: Histogram,
    pub(crate) watchdog_aborts: Counter,
    /// Controller abort verdicts refused because the reported IPC was
    /// non-finite or non-positive (the run stays detailed instead of
    /// extrapolating nonsense).
    pub(crate) ipc_abort_refused: Counter,
}

pub(crate) struct WarpRt {
    pub(crate) global_id: u64,
    /// Position within the workgroup ([`LaunchEnv::warp_in_wg`]).
    pub(crate) warp_in_wg: u32,
    /// Shard-local workgroup index.
    pub(crate) wg: u32,
    pub(crate) cu: u32,
    pub(crate) simd: u32,
    pub(crate) state: Option<Box<WarpState>>,
    pub(crate) issue_cycle: Cycle,
    pub(crate) insts: u64,
    pub(crate) bb_open: bool,
    pub(crate) bb_id: BasicBlockId,
    pub(crate) bb_start: Cycle,
    pub(crate) bb_insts: u32,
    pub(crate) done: bool,
    /// Cycle up to which this warp's residency has been attributed to a
    /// stall class (cycle accounting; always ≤ the current cycle).
    pub(crate) acct_from: Cycle,
    /// Cycle the warp's pending wait completes: until then the wait is
    /// charged to `pending`, after it to `NoWarpReady` (issue-port
    /// contention). `Cycle::MAX` while parked at a barrier or on an
    /// in-flight port request.
    pub(crate) ready_at: Cycle,
    /// [`StallClass`] index the warp is currently waiting in.
    pub(crate) pending: u8,
    /// Portion of the pending memory wait that was queueing behind busy
    /// cache/DRAM resources (charged to `MemQueueFull`).
    pub(crate) pending_queue: Cycle,
    /// Deferred-mode only: the instruction class and issue cycle of an
    /// in-flight port request, so `on_inst_retire` can be replayed with
    /// the real latency once the response arrives at the barrier.
    pub(crate) pending_inst: Option<(InstClass, Cycle)>,
    /// Cycle at which this warp's currently pending ready event was
    /// *scheduled* (the push moment). The serial engine's calendar is
    /// FIFO within a cycle on global push order, and processing is
    /// monotone in time — so the push cycle is the leading component of
    /// the serial tie-break between same-cycle events on different CUs.
    /// The epoch barrier sorts cross-shard memory requests by it (see
    /// [`crate::epoch`]).
    pub(crate) event_from: Cycle,
}

pub(crate) struct WgRt {
    /// Global workgroup id.
    pub(crate) id: u32,
    pub(crate) cu: u32,
    pub(crate) live: u32,
    pub(crate) barrier_arrived: u32,
    pub(crate) barrier_waiting: Vec<u32>,
    pub(crate) lds: Vec<u8>,
    /// Shard-local index of the workgroup's first warp.
    pub(crate) first_warp_rt: u32,
    /// Mode the workgroup was dispatched in (kept for diagnostics).
    #[allow(dead_code)]
    pub(crate) mode: WgMode,
    pub(crate) done: bool,
    /// Dispatch cycle (start of this workgroup's residency window).
    pub(crate) t0: Cycle,
}

/// Flat cycle-accounting accumulators for one shard of a kernel run:
/// per-CU and per-window stall-class counts plus per-basic-block
/// measurements. Storage is sized once at kernel start (over the full
/// CU count — a shard only ever touches its own rows) and updated with
/// plain array adds, so the zero-allocation hot path stays
/// allocation-free.
pub(crate) struct RunAccounting {
    pub(crate) start: Cycle,
    /// Timeline window width (the engine's IPC window, min 1).
    pub(crate) window: Cycle,
    /// `num_cus × STALL_CLASSES` warp-cycle counts.
    cu_stalls: Vec<u64>,
    /// Per-CU resident warp-cycles: `warps × (completion − dispatch)`
    /// summed over workgroups, credited when each workgroup completes.
    pub(crate) cu_resident: Vec<u64>,
    /// Stall mix per timeline window, CU-aggregated.
    pub(crate) win_stalls: Vec<[u64; STALL_CLASSES]>,
    /// Index into `win_stalls` and cycle span of the window the last
    /// attributed cycle fell in (empty before the first one).
    win_idx: usize,
    win_span: std::ops::Range<Cycle>,
    /// `num_bbs × STALL_CLASSES` warp-cycle counts for detailed warps.
    bb_stall: Vec<u64>,
    bb_instances: Vec<u64>,
    bb_insts: Vec<u64>,
    bb_cycles: Vec<u64>,
}

impl RunAccounting {
    pub(crate) fn new(n_cu: usize, n_bbs: usize, start: Cycle, window: Cycle) -> Self {
        RunAccounting {
            start,
            window: window.max(1),
            cu_stalls: vec![0; n_cu * STALL_CLASSES],
            cu_resident: vec![0; n_cu],
            win_stalls: Vec::new(),
            win_idx: 0,
            win_span: start..start,
            bb_stall: vec![0; n_bbs * STALL_CLASSES],
            bb_instances: vec![0; n_bbs],
            bb_insts: vec![0; n_bbs],
            bb_cycles: vec![0; n_bbs],
        }
    }

    /// Attributes the warp-cycles `[from, to)` on `cu` to `class`,
    /// optionally also to basic block `bb`, splitting across timeline
    /// windows. The window index is recomputed (a division) only when a
    /// span starts outside the window the previous one ended in.
    fn span(&mut self, cu: usize, bb: Option<u32>, class: StallClass, from: Cycle, to: Cycle) {
        if to <= from {
            return;
        }
        let n = to - from;
        self.cu_stalls[cu * STALL_CLASSES + class.index()] += n;
        if let Some(b) = bb {
            let i = b as usize * STALL_CLASSES + class.index();
            if i < self.bb_stall.len() {
                self.bb_stall[i] += n;
            }
        }
        let mut a = from;
        while a < to {
            if !self.win_span.contains(&a) {
                self.win_idx = (a.saturating_sub(self.start) / self.window) as usize;
                let lo = self.start + self.win_idx as Cycle * self.window;
                self.win_span = lo..lo + self.window;
                if self.win_stalls.len() <= self.win_idx {
                    self.win_stalls.resize(self.win_idx + 1, [0; STALL_CLASSES]);
                }
            }
            let b = to.min(self.win_span.end);
            self.win_stalls[self.win_idx][class.index()] += b - a;
            a = b;
        }
    }

    /// Folds one closed basic-block instance into the per-BB totals.
    fn record_bb(&mut self, rec: &BbRecord) {
        let i = rec.bb.0 as usize;
        if i < self.bb_instances.len() {
            self.bb_instances[i] += 1;
            self.bb_insts[i] += rec.insts as u64;
            self.bb_cycles[i] += rec.duration();
        }
    }

    /// Element-wise accumulation of another shard's accounting into
    /// this one. Shards attribute only to their own CU rows, so the
    /// merged arrays are a disjoint union, not a double count.
    pub(crate) fn merge_from(&mut self, other: &RunAccounting) {
        for (a, b) in self.cu_stalls.iter_mut().zip(&other.cu_stalls) {
            *a += b;
        }
        for (a, b) in self.cu_resident.iter_mut().zip(&other.cu_resident) {
            *a += b;
        }
        if self.win_stalls.len() < other.win_stalls.len() {
            self.win_stalls
                .resize(other.win_stalls.len(), [0; STALL_CLASSES]);
        }
        for (a, b) in self.win_stalls.iter_mut().zip(&other.win_stalls) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        for (a, b) in self.bb_stall.iter_mut().zip(&other.bb_stall) {
            *a += b;
        }
        for (a, b) in self.bb_instances.iter_mut().zip(&other.bb_instances) {
            *a += b;
        }
        for (a, b) in self.bb_insts.iter_mut().zip(&other.bb_insts) {
            *a += b;
        }
        for (a, b) in self.bb_cycles.iter_mut().zip(&other.bb_cycles) {
            *a += b;
        }
    }

    /// The per-shard accounting row: this shard's stall classes and
    /// resident warp-cycles summed over the CUs it owns (its rows for
    /// every other CU are zero by construction).
    pub(crate) fn shard_entry(&self, shard: u32) -> ShardAccounting {
        let mut classes = [0u64; STALL_CLASSES];
        for cu in 0..self.cu_resident.len() {
            for (c, slot) in classes.iter_mut().enumerate() {
                *slot += self.cu_stalls[cu * STALL_CLASSES + c];
            }
        }
        ShardAccounting {
            shard,
            classes,
            resident_warp_cycles: self.cu_resident.iter().sum(),
        }
    }

    /// Builds the serializable snapshot attached to the kernel result.
    pub(crate) fn finish(&self, cycles: Cycle) -> CycleAccounting {
        let cus = self
            .cu_resident
            .iter()
            .enumerate()
            .map(|(cu, &resident)| {
                let mut classes = [0u64; STALL_CLASSES];
                classes
                    .copy_from_slice(&self.cu_stalls[cu * STALL_CLASSES..(cu + 1) * STALL_CLASSES]);
                CuAccounting {
                    classes,
                    resident_warp_cycles: resident,
                }
            })
            .collect();
        let timeline = self
            .win_stalls
            .iter()
            .enumerate()
            .map(|(i, classes)| StallWindow {
                start: self.start + i as Cycle * self.window,
                classes: *classes,
            })
            .collect();
        CycleAccounting {
            cycles,
            window: self.window,
            cus,
            timeline,
            shards: Vec::new(),
        }
    }

    /// Per-BB rows for blocks that saw any detailed activity.
    pub(crate) fn bb_stats(&self) -> Vec<crate::result::BbAccounting> {
        (0..self.bb_instances.len())
            .filter_map(|i| {
                let mut stall = [0u64; STALL_CLASSES];
                stall.copy_from_slice(&self.bb_stall[i * STALL_CLASSES..(i + 1) * STALL_CLASSES]);
                if self.bb_instances[i] == 0 && stall.iter().all(|&s| s == 0) {
                    return None;
                }
                Some(crate::result::BbAccounting {
                    bb: i as u32,
                    instances: self.bb_instances[i],
                    insts: self.bb_insts[i],
                    cycles: self.bb_cycles[i],
                    stall,
                    predicted_mean: None,
                })
            })
            .collect()
    }
}

/// Closes the open wait span of `warp` at `now` (its next issue, retire,
/// or an accounting cutoff): the queued portion goes to `MemQueueFull`,
/// the wait itself to the warp's `pending` class until `ready_at`, and
/// any remainder (ready but not selected) to `NoWarpReady`. A free
/// function over disjoint fields so callers can hold `&mut` warp and
/// accounting borrows side by side.
pub(crate) fn close_wait(acct: &mut RunAccounting, warp: &mut WarpRt, now: Cycle) {
    let from = warp.acct_from;
    if now <= from {
        return;
    }
    let mid = warp.ready_at.min(now).max(from);
    let bb = if warp.bb_open {
        Some(warp.bb_id.0)
    } else {
        None
    };
    let cls = StallClass::from_index(warp.pending as usize);
    let cu = warp.cu as usize;
    let q = warp.pending_queue.min(mid - from);
    acct.span(cu, bb, StallClass::MemQueueFull, from, from + q);
    acct.span(cu, bb, cls, from + q, mid);
    acct.span(cu, bb, StallClass::NoWarpReady, mid, now);
    warp.acct_from = now;
    warp.pending_queue = 0;
}

/// A buffered controller callback, replayed at the epoch barrier.
pub(crate) enum CtrlEv {
    Bb(BbRecord),
    Warp(WarpRecord),
    Inst(InstClass, Cycle),
}

/// Controller callbacks buffered during an epoch, tagged for canonical
/// `(cycle, warp_gid, seq)` replay ordering across shards.
#[derive(Default)]
pub(crate) struct CtrlBuf {
    pub(crate) evs: Vec<(Cycle, u64, u32, CtrlEv)>,
    seq: u32,
}

impl CtrlBuf {
    fn push(&mut self, cycle: Cycle, gid: u64, ev: CtrlEv) {
        let s = self.seq;
        self.seq += 1;
        self.evs.push((cycle, gid, s, ev));
    }
}

/// Where controller callbacks go: straight into the controller (serial
/// engine) or into the shard's [`CtrlBuf`] for barrier-time replay.
pub(crate) enum CtrlSink<'r> {
    Live(&'r mut dyn SamplingController),
    Buffered,
}

fn sink_bb(ctrl: &mut CtrlSink, buf: &mut CtrlBuf, rec: &BbRecord) {
    match ctrl {
        CtrlSink::Live(c) => c.on_bb_record(rec),
        CtrlSink::Buffered => buf.push(rec.end, rec.warp, CtrlEv::Bb(*rec)),
    }
}

fn sink_warp(ctrl: &mut CtrlSink, buf: &mut CtrlBuf, rec: &WarpRecord) {
    match ctrl {
        CtrlSink::Live(c) => c.on_warp_retire(rec),
        CtrlSink::Buffered => buf.push(rec.retire, rec.warp, CtrlEv::Warp(*rec)),
    }
}

fn sink_inst(
    ctrl: &mut CtrlSink,
    buf: &mut CtrlBuf,
    now: Cycle,
    gid: u64,
    class: InstClass,
    latency: Cycle,
) {
    match ctrl {
        CtrlSink::Live(c) => c.on_inst_retire(class, latency),
        CtrlSink::Buffered => buf.push(now, gid, CtrlEv::Inst(class, latency)),
    }
}

/// How the shard's memory port is serviced.
pub(crate) enum Backend<'r> {
    /// Serial engine: each request is serviced against the hierarchy
    /// the moment it is submitted, inside the issuing handler — the
    /// exact pre-shard behavior.
    Direct(&'r mut MemoryHierarchy),
    /// Epoch engine: requests accumulate in the port and are serviced
    /// by the coordinator at the next epoch barrier; reading warps park
    /// until their response arrives.
    Deferred,
}

/// Why a shard stopped early. Deadlocks carry only the cycle — the
/// coordinator owns the global warp view needed for the watchdog
/// snapshot.
pub(crate) enum ShardStop {
    Error(SimError),
    DeadlockAt(Cycle),
}

impl From<SimError> for ShardStop {
    fn from(e: SimError) -> Self {
        ShardStop::Error(e)
    }
}

/// Per-warp seeding for an admitted workgroup: detailed warps get live
/// architectural state; sampled warps get predicted durations.
pub(crate) enum WarpSeed {
    Detailed,
    Predicted(Vec<Cycle>),
}

/// One CU shard of a kernel run: an isolated event domain with its own
/// calendar, warps, accounting, and memory port.
pub(crate) struct Shard {
    pub(crate) id: u32,
    pub(crate) events: CalendarQueue<EvKind>,
    pub(crate) warps: Vec<WarpRt>,
    pub(crate) wgs: Vec<WgRt>,
    /// SIMD issue-port busy cycles, indexed `cu * simds_per_cu + simd`
    /// over the *global* CU space (a shard only touches its own rows).
    simd_free: Vec<Cycle>,
    pub(crate) acct: RunAccounting,
    pub(crate) port: MemPort,
    /// Push-moment tag (`WarpRt::event_from` of the issuing event) for
    /// each queued port request, parallel to `port.requests()`. The
    /// epoch barrier's canonical service order sorts on it between the
    /// request cycle and the CU index, recovering the serial engine's
    /// same-cycle cross-CU tie order.
    pub(crate) req_tags: Vec<Cycle>,
    pub(crate) ctrl_buf: CtrlBuf,
    /// Workgroup completions `(cycle, local wg index)` awaiting the
    /// coordinator's resource release + dispatch.
    pub(crate) completions: Vec<(Cycle, u32)>,
    /// Functional byte writes from the current epoch's copy-on-write
    /// overlay, merged into the base address space at the barrier.
    pub(crate) pending_writes: Vec<(u64, u8)>,
    pub(crate) detailed_insts: u64,
    pub(crate) ipc_counts: Vec<u64>,
    /// Index into `ipc_counts` and cycle span of the window the last
    /// counted instruction fell in (empty before the first one).
    ipc_idx: usize,
    ipc_span: std::ops::Range<Cycle>,
    pub(crate) last_retire: Cycle,
    pub(crate) last_progress: Cycle,
    /// Cycles of epochs in which this shard processed at least one
    /// event (the imbalance metric's numerator).
    pub(crate) busy_cycles: u64,
    lines_scratch: Vec<u64>,
    resp_scratch: Vec<MemResponse>,
    pub(crate) hooks: SimHooks,
    // Config copied out once per kernel so the hot loop never chases
    // the config reference.
    lat: LatencyConfig,
    alu_lat: [Cycle; N_CLASSES],
    slow_lat: [Cycle; N_CLASSES],
    simds_per_cu: u32,
    ipc_window: Cycle,
    start: Cycle,
    max_insts_per_warp: u64,
    /// The retry lane's oracle: push a busy-port `Ready` again at the
    /// cycle the port frees, as the engine did before the lane.
    #[cfg(test)]
    pub(crate) repush: bool,
    /// Every issue of this shard, in order, while a test records them.
    #[cfg(test)]
    pub(crate) issues: Option<Vec<crate::repush_oracle::Issue>>,
}

pub(crate) const N_CLASSES: usize = InstClass::ALL.len();

/// Precomputed ALU latency tables: `(normal, slow)` per instruction
/// class. Scalar/branch/vector classes get their configured latencies;
/// every other class issued as [`StepEffect::Alu`] costs `salu`. `slow`
/// only differs for the vector classes (`valu_slow`), matching the old
/// per-instruction match.
pub(crate) fn alu_latency_tables(lat: &LatencyConfig) -> ([Cycle; N_CLASSES], [Cycle; N_CLASSES]) {
    let mut normal = [lat.salu; N_CLASSES];
    normal[InstClass::VectorInt.index()] = lat.valu;
    normal[InstClass::VectorFloat.index()] = lat.valu;
    normal[InstClass::Branch.index()] = lat.branch;
    let mut slow = normal;
    slow[InstClass::VectorInt.index()] = lat.valu_slow;
    slow[InstClass::VectorFloat.index()] = lat.valu_slow;
    (normal, slow)
}

/// Base address of the kernel-argument buffer (for scalar-cache timing).
pub(crate) const ARG_BASE: u64 = 0x100;

impl Shard {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: u32,
        n_cu_total: usize,
        n_bbs: usize,
        start: Cycle,
        cfg_lat: LatencyConfig,
        simds_per_cu: u32,
        ipc_window: Cycle,
        max_insts_per_warp: u64,
        hooks: SimHooks,
    ) -> Self {
        let (alu_lat, slow_lat) = alu_latency_tables(&cfg_lat);
        Shard {
            id,
            events: CalendarQueue::new(start),
            warps: Vec::new(),
            wgs: Vec::new(),
            simd_free: vec![0; n_cu_total * simds_per_cu as usize],
            acct: RunAccounting::new(n_cu_total, n_bbs, start, ipc_window),
            port: MemPort::new(),
            req_tags: Vec::new(),
            ctrl_buf: CtrlBuf::default(),
            completions: Vec::new(),
            pending_writes: Vec::new(),
            detailed_insts: 0,
            ipc_counts: Vec::new(),
            ipc_idx: 0,
            ipc_span: start..start,
            last_retire: start,
            last_progress: start,
            busy_cycles: 0,
            lines_scratch: Vec::new(),
            resp_scratch: Vec::new(),
            hooks,
            lat: cfg_lat,
            alu_lat,
            slow_lat,
            simds_per_cu,
            ipc_window,
            start,
            max_insts_per_warp,
            #[cfg(test)]
            repush: crate::repush_oracle::selected(),
            #[cfg(test)]
            issues: crate::repush_oracle::recording().then(Vec::new),
        }
    }

    /// Pops the shard's next event before `limit`. A warp that comes
    /// back from the retry lane gets the push moment its last re-push
    /// would have recorded: the cycle before it issues.
    pub(crate) fn next_event(&mut self, limit: Cycle) -> Option<(Cycle, EvKind)> {
        let (now, ev, retried) = self.events.pop_ready(&self.simd_free, limit)?;
        if let (true, EvKind::Ready(w)) = (retried, ev) {
            self.warps[w as usize].event_from = now - 1;
        }
        Some((now, ev))
    }

    /// Admits a dispatched workgroup into this shard: allocates the
    /// local warp/wg records and schedules the initial events (per-warp
    /// `Ready` at `t0` for detailed workgroups, `PredRetire` at
    /// `t0 + dur` for sampled ones), in warp order — the same push
    /// sequence the pre-shard engine produced.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn admit_wg(
        &mut self,
        wg_id: u32,
        cu: u32,
        mode: WgMode,
        t0: Cycle,
        pushed_at: Cycle,
        seed: WarpSeed,
        launch: &KernelLaunch,
    ) {
        let first_rt = self.warps.len() as u32;
        self.wgs.push(WgRt {
            id: wg_id,
            cu,
            live: launch.warps_per_wg,
            barrier_arrived: 0,
            barrier_waiting: Vec::new(),
            // Allocated lazily on first detailed step (handle_ready) —
            // sampled WGs never pay for it.
            lds: Vec::new(),
            first_warp_rt: first_rt,
            mode,
            done: false,
            t0,
        });
        let wg_rt = (self.wgs.len() - 1) as u32;
        for i in 0..launch.warps_per_wg {
            let w = self.warps.len() as u32;
            let (state, dur, pending) = match &seed {
                WarpSeed::Detailed => (
                    Some(Box::new(WarpState::new())),
                    None,
                    StallClass::NoWarpReady,
                ),
                // The whole predicted span counts as Issued: a
                // predicted warp models useful execution, not a stall.
                WarpSeed::Predicted(durs) => (None, Some(durs[i as usize]), StallClass::Issued),
            };
            self.warps.push(WarpRt {
                global_id: wg_id as u64 * launch.warps_per_wg as u64 + i as u64,
                warp_in_wg: i,
                wg: wg_rt,
                cu,
                simd: i % self.simds_per_cu,
                state,
                issue_cycle: t0,
                insts: 0,
                bb_open: false,
                bb_id: BasicBlockId(0),
                bb_start: t0,
                bb_insts: 0,
                done: false,
                acct_from: t0,
                ready_at: t0 + dur.unwrap_or(0),
                pending: pending.index() as u8,
                pending_queue: 0,
                pending_inst: None,
                event_from: pushed_at,
            });
            match dur {
                None => self.events.push(t0, EvKind::Ready(w)),
                Some(d) => self.events.push(t0 + d, EvKind::PredRetire(w)),
            }
        }
    }

    fn env_for<'l>(&self, w: u32, launch: &'l KernelLaunch) -> LaunchEnv<'l> {
        let warp = &self.warps[w as usize];
        let wg = &self.wgs[warp.wg as usize];
        LaunchEnv {
            args: &launch.args,
            wg_id: wg.id,
            warp_in_wg: warp.warp_in_wg,
            warps_per_wg: launch.warps_per_wg,
            num_wgs: launch.num_wgs,
        }
    }

    /// Counts one instruction issued at `now` into its IPC window. The
    /// window index is recomputed (a division) only when `now` leaves
    /// the window the previous instruction fell in.
    fn count_ipc(&mut self, now: Cycle) {
        if !self.ipc_span.contains(&now) {
            self.ipc_idx = ((now - self.start) / self.ipc_window) as usize;
            let from = self.start + self.ipc_idx as Cycle * self.ipc_window;
            self.ipc_span = from..from + self.ipc_window;
            if self.ipc_counts.len() <= self.ipc_idx {
                self.ipc_counts.resize(self.ipc_idx + 1, 0);
            }
        }
        self.ipc_counts[self.ipc_idx] += 1;
    }

    /// Executes one instruction of warp `w` at `now` and schedules its
    /// wake-up. Memory goes out through the shard's port: serviced
    /// inline under [`Backend::Direct`], parked until the barrier under
    /// [`Backend::Deferred`].
    pub(crate) fn handle_ready<M: DataMem>(
        &mut self,
        w: u32,
        now: Cycle,
        launch: &KernelLaunch,
        mem: &mut M,
        backend: &mut Backend,
        ctrl: &mut CtrlSink,
    ) -> Result<(), ShardStop> {
        let (cu, simd) = {
            let warp = &self.warps[w as usize];
            debug_assert!(!warp.done);
            (warp.cu as usize, warp.simd as usize)
        };
        let ev_from = self.warps[w as usize].event_from;
        let port_idx = cu * self.simds_per_cu as usize + simd;
        if self.simd_free[port_idx] > now {
            // The port is taken this cycle: retry when it frees, in the
            // calendar's lane (`next_event` brings the warp back).
            let at = self.simd_free[port_idx];
            #[cfg(test)]
            if self.repush {
                self.warps[w as usize].event_from = now;
                self.events.push(at, EvKind::Ready(w));
                return Ok(());
            }
            self.events.push_lane(at, port_idx as u32, EvKind::Ready(w));
            return Ok(());
        }
        self.simd_free[port_idx] = now + 1;
        // The warp issues this cycle: attribute everything since its
        // last issue (the wait it just finished) to a stall class.
        close_wait(&mut self.acct, &mut self.warps[w as usize], now);

        // Execute one instruction with split field borrows.
        let ops = launch.kernel.program().decoded();
        let env = self.env_for(w, launch);
        let warp = &mut self.warps[w as usize];
        let wg = &mut self.wgs[warp.wg as usize];
        let Some(state) = warp.state.as_deref_mut() else {
            // A predicted warp received a Ready event: an engine bug,
            // but one we surface as a typed error rather than a panic.
            return Err(ShardStop::Error(SimError::MissingWarpState {
                warp_id: warp.global_id,
            }));
        };
        let op = fetch(state, ops, &env)?;

        // Basic-block boundary: issuing the first instruction of a block
        // closes the previous instance (paper's interval definition).
        if let Some(id) = op.block_start() {
            if warp.bb_open {
                let rec = BbRecord {
                    warp: warp.global_id,
                    bb: warp.bb_id,
                    start: warp.bb_start,
                    end: now,
                    insts: warp.bb_insts,
                };
                sink_bb(ctrl, &mut self.ctrl_buf, &rec);
                self.acct.record_bb(&rec);
                self.hooks.bb_duration.record(rec.duration());
                self.hooks.trace.emit_with(|| TraceEvent {
                    ts: rec.start,
                    dur: rec.duration(),
                    kind: EventKind::BbInterval {
                        warp: rec.warp,
                        bb: rec.bb.0,
                        insts: rec.insts,
                    },
                });
            }
            warp.bb_open = true;
            warp.bb_id = id;
            warp.bb_start = now;
            warp.bb_insts = 0;
        }
        warp.bb_insts += 1;
        warp.insts += 1;
        if warp.insts > self.max_insts_per_warp {
            return Err(ShardStop::Error(SimError::InstLimitExceeded {
                warp: warp.global_id,
                limit: self.max_insts_per_warp,
            }));
        }
        // The issue cycle itself (attributed to the block whose interval
        // starts at this issue).
        self.acct
            .span(cu, Some(warp.bb_id.0), StallClass::Issued, now, now + 1);
        warp.acct_from = now + 1;

        // Lazy LDS: sampled workgroups never execute, so the backing
        // store is only materialized when a detailed warp first steps
        // (minimum 4 bytes so zero-LDS kernels keep byte-accurate
        // out-of-bounds faults).
        if wg.lds.is_empty() {
            wg.lds = vec![0u8; launch.lds_bytes.max(4) as usize];
        }

        let info = execute(state, op, mem, &mut wg.lds, &env, &mut self.lines_scratch)?;
        let warp_gid = self.warps[w as usize].global_id;
        #[cfg(test)]
        if let Some(log) = &mut self.issues {
            log.push((now, warp_gid, info.class, ev_from));
        }
        self.detailed_insts += 1;
        self.last_progress = self.last_progress.max(now);
        self.count_ipc(now);

        let lat = self.lat;
        // Queued warp-cycles of a memory wait (diffed around the
        // hierarchy's queue-delay accumulator), charged to MemQueueFull
        // instead of MemPending when the wait closes. Known immediately
        // under Direct service; filled in from the port response at the
        // barrier under Deferred.
        let mut queued = 0u64;
        // `None` = the warp parks on an in-flight port request and is
        // woken by the barrier's response application.
        let latency: Option<Cycle> = match info.effect {
            StepEffect::Alu => Some(if info.slow {
                self.slow_lat[info.class.index()]
            } else {
                self.alu_lat[info.class.index()]
            }),
            StepEffect::Mem { write } => {
                let issue_at = now + lat.mem_issue;
                self.port
                    .submit_vector(cu as u32, w, now, issue_at, write, &self.lines_scratch);
                self.req_tags.push(ev_from);
                match backend {
                    Backend::Direct(hier) => {
                        hier.service_port(&mut self.port);
                        self.req_tags.clear();
                        self.resp_scratch.clear();
                        self.port.take_responses(&mut self.resp_scratch);
                        let resp = self.resp_scratch[0];
                        queued = resp.queued;
                        Some(if write {
                            lat.store_issue // fire-and-forget
                        } else {
                            resp.done - now
                        })
                    }
                    Backend::Deferred => {
                        if write {
                            // Fire-and-forget: the store's cache/queue
                            // effects land at the barrier; the warp
                            // itself only pays the issue cost.
                            Some(lat.store_issue)
                        } else {
                            None
                        }
                    }
                }
            }
            StepEffect::ArgLoad { index } => {
                let addr = ARG_BASE + 8 * index as u64;
                self.port.submit_scalar(cu as u32, w, now, addr);
                self.req_tags.push(ev_from);
                match backend {
                    Backend::Direct(hier) => {
                        hier.service_port(&mut self.port);
                        self.req_tags.clear();
                        self.resp_scratch.clear();
                        self.port.take_responses(&mut self.resp_scratch);
                        let resp = self.resp_scratch[0];
                        queued = resp.queued;
                        Some(resp.done - now)
                    }
                    Backend::Deferred => None,
                }
            }
            StepEffect::Lds => Some(lat.lds),
            StepEffect::Barrier => Some(lat.salu),
            StepEffect::End => Some(1),
        };
        match latency {
            Some(l) => sink_inst(ctrl, &mut self.ctrl_buf, now, warp_gid, info.class, l),
            None => self.warps[w as usize].pending_inst = Some((info.class, now)),
        }

        // Classify what the warp waits on until its next event; the
        // wait is attributed when it closes (next issue or retire).
        {
            let warp = &mut self.warps[w as usize];
            warp.pending = match info.effect {
                StepEffect::Mem { write: false } | StepEffect::ArgLoad { .. } => {
                    StallClass::MemPending
                }
                StepEffect::Lds => StallClass::LdsConflict,
                StepEffect::Barrier => StallClass::Barrier,
                StepEffect::End => StallClass::Drained,
                // ALU results and fire-and-forget store issue both wait
                // on the scoreboard.
                _ => StallClass::DepScoreboard,
            }
            .index() as u8;
            warp.pending_queue = queued;
            warp.ready_at = match (info.effect, latency) {
                (StepEffect::Barrier, _) => Cycle::MAX,
                // Parked on a port request: the response sets the real
                // ready cycle at the barrier.
                (_, None) => Cycle::MAX,
                (_, Some(l)) => now + l.max(1),
            };
        }

        match info.effect {
            StepEffect::End => {
                self.retire_warp(w, now + 1, ctrl)?;
            }
            StepEffect::Barrier => {
                let warps_per_wg = launch.warps_per_wg;
                let warp = &mut self.warps[w as usize];
                let warp_gid = warp.global_id;
                let wg = &mut self.wgs[warp.wg as usize];
                let wg_id = wg.id;
                wg.barrier_arrived += 1;
                wg.barrier_waiting.push(w);
                let arrived = wg.barrier_arrived;
                self.hooks.trace.emit_with(|| TraceEvent {
                    ts: now,
                    dur: 0,
                    kind: EventKind::BarrierWait {
                        wg: wg_id,
                        warp: warp_gid,
                        arrived,
                        expected: warps_per_wg,
                    },
                });
                // Strict CUDA-like semantics: the barrier releases only
                // when every warp of the workgroup arrives. A warp that
                // exits early can therefore never satisfy it — that is
                // detected as a deadlock in retire_warp / the drain
                // check, not silently forgiven.
                if wg.barrier_arrived == warps_per_wg {
                    let release = now + lat.barrier_release;
                    let waiting = std::mem::take(&mut wg.barrier_waiting);
                    wg.barrier_arrived = 0;
                    for ww in waiting {
                        // Barrier time ends at release; anything past it
                        // until the next issue is port contention.
                        self.warps[ww as usize].ready_at = release;
                        self.warps[ww as usize].event_from = now;
                        self.events.push(release, EvKind::Ready(ww));
                    }
                    self.hooks.trace.emit_with(|| TraceEvent {
                        ts: release,
                        dur: 0,
                        kind: EventKind::BarrierRelease {
                            wg: wg_id,
                            released: warps_per_wg,
                        },
                    });
                }
            }
            _ => {
                if let Some(l) = latency {
                    self.warps[w as usize].event_from = now;
                    self.events.push(now + l.max(1), EvKind::Ready(w));
                }
            }
        }
        Ok(())
    }

    /// Retires warp `w` at `now`. Workgroup completions are queued for
    /// the coordinator (which owns the resource pools and dispatcher)
    /// rather than dispatched inline.
    pub(crate) fn retire_warp(
        &mut self,
        w: u32,
        now: Cycle,
        ctrl: &mut CtrlSink,
    ) -> Result<(), ShardStop> {
        // Attribute the tail of the warp's residency (its final wait or
        // predicted span) before retiring it.
        close_wait(&mut self.acct, &mut self.warps[w as usize], now);
        let wg_idx = {
            let warp = &mut self.warps[w as usize];
            debug_assert!(!warp.done);
            warp.done = true;
            warp.pending = StallClass::Drained.index() as u8;
            warp.ready_at = Cycle::MAX;
            warp.wg
        };
        if self.warps[w as usize].state.is_some() {
            let (bb_rec, warp_rec, cu) = {
                let warp = &mut self.warps[w as usize];
                let bb_rec = warp.bb_open.then_some(BbRecord {
                    warp: warp.global_id,
                    bb: warp.bb_id,
                    start: warp.bb_start,
                    end: now,
                    insts: warp.bb_insts,
                });
                warp.bb_open = false;
                let warp_rec = WarpRecord {
                    warp: warp.global_id,
                    issue: warp.issue_cycle,
                    retire: now,
                    insts: warp.insts,
                };
                warp.state = None;
                (bb_rec, warp_rec, warp.cu)
            };
            if let Some(rec) = bb_rec {
                sink_bb(ctrl, &mut self.ctrl_buf, &rec);
                self.acct.record_bb(&rec);
                self.hooks.bb_duration.record(rec.duration());
                self.hooks.trace.emit_with(|| TraceEvent {
                    ts: rec.start,
                    dur: rec.duration(),
                    kind: EventKind::BbInterval {
                        warp: rec.warp,
                        bb: rec.bb.0,
                        insts: rec.insts,
                    },
                });
            }
            sink_warp(ctrl, &mut self.ctrl_buf, &warp_rec);
            self.hooks.warp_duration.record(warp_rec.duration());
            self.hooks.trace.emit_with(|| TraceEvent {
                ts: warp_rec.issue,
                dur: warp_rec.duration(),
                kind: EventKind::WarpRetire {
                    warp: warp_rec.warp,
                    cu,
                    insts: warp_rec.insts,
                },
            });
        }
        self.last_retire = self.last_retire.max(now);
        self.last_progress = self.last_progress.max(now);

        let (wg_done, bypassed_barrier) = {
            let wg = &mut self.wgs[wg_idx as usize];
            wg.live -= 1;
            if wg.live == 0 {
                wg.done = true;
                wg.lds = Vec::new();
                (true, false)
            } else {
                // Under strict barrier semantics a retired warp can
                // never arrive, so siblings already parked at a barrier
                // are stuck forever.
                (false, !wg.barrier_waiting.is_empty())
            }
        };
        if bypassed_barrier {
            return Err(ShardStop::DeadlockAt(now));
        }

        if wg_done {
            let (cu, t0, first) = {
                let wg = &self.wgs[wg_idx as usize];
                (wg.cu as usize, wg.t0, wg.first_warp_rt as usize)
            };
            // The workgroup's residency window closes: charge each
            // member's retire-to-completion gap as Drained and credit
            // the CU's resident warp-cycles.
            let n = self.wg_size(wg_idx);
            for i in first..first + n {
                let from = self.warps[i].acct_from;
                self.acct.span(cu, None, StallClass::Drained, from, now);
                self.warps[i].acct_from = now;
            }
            self.acct.cu_resident[cu] += n as u64 * now.saturating_sub(t0);
            self.completions.push((now, wg_idx));
        }
        Ok(())
    }

    /// Number of warps in the workgroup at local index `wg_idx`
    /// (uniform per launch; derived from the warp layout so the shard
    /// does not need the launch handle).
    fn wg_size(&self, wg_idx: u32) -> usize {
        let wg = &self.wgs[wg_idx as usize];
        let first = wg.first_warp_rt as usize;
        let end = self
            .wgs
            .get(wg_idx as usize + 1)
            .map_or(self.warps.len(), |next| next.first_warp_rt as usize);
        end - first
    }

    /// Runs this shard's events in `[win_start, t_end)` against a
    /// copy-on-write view of `base`, buffering controller callbacks and
    /// port requests for the barrier. Called from worker threads in the
    /// epoch engine.
    pub(crate) fn run_epoch(
        &mut self,
        win_start: Cycle,
        t_end: Cycle,
        base: &gpu_mem::AddressSpace,
        launch: &KernelLaunch,
    ) -> Result<(), ShardStop> {
        let mut overlay = crate::overlay::OverlayMem::new(base);
        let mut any = false;
        while let Some((now, kind)) = self.next_event(t_end) {
            any = true;
            let r = match kind {
                EvKind::Ready(w) => self.handle_ready(
                    w,
                    now,
                    launch,
                    &mut overlay,
                    &mut Backend::Deferred,
                    &mut CtrlSink::Buffered,
                ),
                EvKind::PredRetire(w) => self.retire_warp(w, now, &mut CtrlSink::Buffered),
            };
            if let Err(stop) = r {
                self.pending_writes = overlay.take_writes();
                return Err(stop);
            }
        }
        if any {
            self.busy_cycles += t_end - win_start;
        }
        self.pending_writes = overlay.take_writes();
        Ok(())
    }

    /// Applies a barrier-time memory response: wakes the parked warp at
    /// the serviced completion cycle and replays the deferred
    /// `on_inst_retire` with the real latency. `epoch_end` is the
    /// barrier's epoch boundary: the quantum is sized below every
    /// cross-shard latency, so no response may complete before it.
    pub(crate) fn apply_response(&mut self, resp: &MemResponse, epoch_end: Cycle) {
        let w = resp.warp as usize;
        let gid = self.warps[w].global_id;
        assert!(
            resp.done >= epoch_end,
            "deterministic epoch engine: response for warp {gid} completed at {} before the \
             barrier at {epoch_end} — quantum exceeds a cross-shard latency",
            resp.done,
        );
        self.warps[w].ready_at = resp.done;
        self.warps[w].pending_queue = resp.queued;
        // The serial engine pushed this wake while handling the issue
        // event, so the serial-faithful push moment is the request
        // cycle, not the barrier time.
        self.warps[w].event_from = resp.req_cycle;
        if let Some((class, issued)) = self.warps[w].pending_inst.take() {
            self.ctrl_buf
                .push(resp.req_cycle, gid, CtrlEv::Inst(class, resp.done - issued));
        }
        self.events.push(resp.done, EvKind::Ready(w as u32));
    }
}

// The epoch engine moves `&mut Shard` chunks to scoped worker threads
// and shares the base address space read-only across them.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<Shard>();
    assert_sync::<gpu_mem::AddressSpace>();
    assert_send::<ShardStop>();
};
