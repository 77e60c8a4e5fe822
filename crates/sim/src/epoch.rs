//! The epoch-parallel execution mode of the sharded timing engine.
//!
//! One shard per CU (always — the partition never depends on the
//! worker-thread count), advanced in lock-step quanta:
//!
//! 1. **Find the next epoch.** `next` is the minimum pending event
//!    cycle across all shard calendars; the epoch spans
//!    `[next, next + quantum)`. Idle gaps are skipped entirely, so the
//!    engine stays event-driven even with a tiny quantum.
//! 2. **Run shards.** Each shard drains its calendar inside the window
//!    against a copy-on-write overlay of device memory
//!    ([`crate::overlay::OverlayMem`]), queueing memory requests into
//!    its port, controller callbacks into its [`CtrlBuf`], and
//!    workgroup completions for the coordinator. With one thread the
//!    shards run inline. With `threads > 1` they are cut into chunks of
//!    `shards.len().div_ceil(threads)`, and a pool that lives for the
//!    whole kernel runs them: one `std::thread::scope` around the epoch
//!    loop spawns a thread per chunk but the first, which the
//!    coordinator runs itself. Each epoch a pool thread receives its
//!    chunk by value — moved out of the shard vector, appended back in
//!    chunk order afterwards — together with an `Arc` holding device
//!    memory, which the coordinator moves out of the simulator for the
//!    run phase and takes back, unshared, before the barrier; the
//!    barrier and dispatch keep `&mut` access to it. When shards stop
//!    with an error the lowest shard index wins, whichever thread ran
//!    it; a pool thread's panic is re-raised in the caller with its own
//!    payload. The barrier protocol below is identical either way,
//!    which is what makes the deterministic mode's results
//!    thread-count-invariant.
//! 3. **Barrier.** The coordinator merges overlay writes into device
//!    memory (shard order), services every port request against the
//!    shared hierarchy in canonical `(req_cycle, cu, submission)`
//!    order — an order that is invariant to how shards were chunked —
//!    replays buffered controller callbacks in `(cycle, warp, push
//!    order)` order, and dispatches freed workgroup slots in
//!    `(cycle, wg)` order.
//!
//! The quantum is sized at or below every cross-shard latency (see
//! [`GpuConfig::resolved_quantum`](crate::GpuConfig::resolved_quantum)),
//! so no response or dispatch can land inside the epoch that caused
//! it: results are bit-identical across thread counts and to the
//! serial engine up to same-cycle cross-CU tie order.
//!
//! Cross-CU memory visibility is epoch-granular: a store becomes
//! visible to other CUs at the next barrier. Same-epoch cross-CU
//! read-after-write is not modeled (data-racy kernels would need
//! cross-CU synchronization — a barrier — which crosses an epoch
//! anyway).

use crate::config::WatchdogConfig;
use crate::controller::SamplingController;
use crate::engine::KernelRun;
use crate::error::SimError;
use crate::shard::{CtrlEv, Shard, ShardStop};
use gpu_isa::KernelLaunch;
use gpu_mem::{AddressSpace, Cycle};
use gpu_telemetry::faults::{self, FaultSite};
use gpu_telemetry::span::{self, SpanKind};
use gpu_telemetry::{EventKind, TraceEvent};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Duration;

/// One epoch's run phase: its index and its window `[start, end)`.
#[derive(Clone, Copy)]
struct Epoch {
    idx: u64,
    start: Cycle,
    end: Cycle,
}

/// Runs a chunk of shards over the epoch's window, in shard order, and
/// returns the first stop. Chunk 0 (every shard, without a pool) runs
/// on the coordinator, the others on pool threads.
fn run_chunk(
    shards: &mut [Shard],
    chunk: usize,
    ep: Epoch,
    mem: &AddressSpace,
    launch: &KernelLaunch,
) -> Option<ShardStop> {
    if faults::active() {
        // Chaos hook: a slow or descheduled worker. Keyed by
        // `(epoch, chunk)`, so the decision never depends on scheduling.
        faults::maybe_stall(
            FaultSite::EngineEpochStall,
            ep.idx << 32 | chunk as u64,
            Duration::from_millis(50),
        );
    }
    shards
        .iter_mut()
        .find_map(|s| s.run_epoch(ep.start, ep.end, mem, launch).err())
}

/// A chunk's run phase, sent to its pool thread.
struct Job {
    shards: Vec<Shard>,
    ep: Epoch,
    mem: Arc<AddressSpace>,
}

/// A pool thread's answer: the chunk, in the order it came, and the
/// first stop in it.
struct Done {
    shards: Vec<Shard>,
    stop: Option<ShardStop>,
}

/// One pool thread, parked on its job channel between epochs.
struct Worker<'scope> {
    chunk: usize,
    /// Global index of the chunk's first shard.
    first: usize,
    jobs: SyncSender<Job>,
    done: Receiver<Done>,
    handle: ScopedJoinHandle<'scope, ()>,
    /// The chunk's vector between epochs, kept for its capacity.
    spare: Vec<Shard>,
}

impl<'scope> Worker<'scope> {
    fn spawn<'env>(
        scope: &'scope Scope<'scope, 'env>,
        chunk: usize,
        first: usize,
        launch: &'env KernelLaunch,
    ) -> Self {
        let (jobs, job_rx) = sync_channel::<Job>(1);
        let (done_tx, done) = sync_channel(1);
        #[cfg(test)]
        let panic_at = PANIC_AT.get();
        #[cfg(test)]
        SPAWNED.set(SPAWNED.get() + 1);
        let handle = scope.spawn(move || {
            // Ends when the coordinator drops `jobs`.
            for Job {
                mut shards,
                ep,
                mem,
            } in job_rx
            {
                #[cfg(test)]
                if panic_at == Some((ep.idx, chunk)) {
                    panic!(
                        "injected pool-thread panic: epoch {}, chunk {chunk}",
                        ep.idx
                    );
                }
                let stop = run_chunk(&mut shards, chunk, ep, &mem, launch);
                // Let go of device memory before answering: the
                // coordinator takes it back once every chunk is in.
                drop(mem);
                if done_tx.send(Done { shards, stop }).is_err() {
                    break;
                }
            }
        });
        Worker {
            chunk,
            first,
            jobs,
            done,
            handle,
            spare: Vec::new(),
        }
    }

    /// Re-raises the panic that ended this pool thread, with its own
    /// payload.
    fn rethrow(self) -> ! {
        match self.handle.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("pool thread {} quit with its job channel open", self.chunk),
        }
    }
}

/// The barrier's controller-callback replay, in canonical
/// `(cycle, warp, push order)` order. A warp lives in exactly one shard,
/// so its callbacks' push order settles every tie; the key is a pure
/// function of simulation state, never of the thread count.
#[derive(Default)]
struct Replay {
    /// One key per callback, packed so that one integer compare sorts:
    /// `cycle − base` (high 32 bits), warp id (64), index into `evs`
    /// (low 32). Shards are gathered in order and each buffer in push
    /// order, so the index breaks ties in push order.
    keys: Vec<u128>,
    evs: Vec<CtrlEv>,
}

impl Replay {
    fn run(&mut self, shards: &mut [Shard], ctrl: &mut dyn SamplingController) {
        let (mut base, mut top, mut n) = (Cycle::MAX, 0, 0usize);
        for &(cycle, ..) in shards.iter().flat_map(|s| &s.ctrl_buf.evs) {
            (base, top, n) = (base.min(cycle), top.max(cycle), n + 1);
        }
        if n == 0 {
            return;
        }
        assert!(
            top - base <= u64::from(u32::MAX) && n <= u32::MAX as usize,
            "epoch barrier: {n} callbacks over cycles {base}..={top} overflow the replay key"
        );
        #[cfg(test)]
        let want = tests::replay_oracle(shards);
        for shard in shards.iter_mut() {
            for (cycle, gid, ev) in shard.ctrl_buf.evs.drain(..) {
                let key = u128::from(cycle - base) << 96 | u128::from(gid) << 32;
                self.keys.push(key | self.evs.len() as u128);
                self.evs.push(ev);
            }
        }
        self.keys.sort_unstable();
        #[cfg(test)]
        assert!(
            self.keys.iter().map(|&k| k as u32).eq(want),
            "callback replay order differs from the sort it replaced"
        );
        for &key in &self.keys {
            match &self.evs[key as u32 as usize] {
                CtrlEv::Bb(rec) => ctrl.on_bb_record(rec),
                CtrlEv::Warp(rec) => ctrl.on_warp_retire(rec),
                &CtrlEv::Inst(class, latency) => ctrl.on_inst_retire(class, latency),
            }
        }
        self.keys.clear();
        self.evs.clear();
    }
}

impl KernelRun<'_> {
    /// The epoch loop (deterministic mode). Returns the cycle of the
    /// last epoch's start, mirroring the serial loop's final `now`.
    #[inline(never)] // DESIGN.md "Engine hot path": keeps the serial loop's codegen apart
    pub(crate) fn run_epochs(
        &mut self,
        wd: WatchdogConfig,
        ctrl: &mut dyn SamplingController,
    ) -> Result<Cycle, SimError> {
        let threads = self.cfg.resolved_threads() as usize;
        let chunk = self.shards.len().div_ceil(threads).max(1);
        let chunks = self.shards.len().div_ceil(chunk);
        if chunks <= 1 {
            return self.epoch_loop(wd, ctrl, &mut Vec::new());
        }
        let launch = self.launch;
        std::thread::scope(|scope| {
            let mut pool = (1..chunks)
                .map(|ci| Worker::spawn(scope, ci, ci * chunk, launch))
                .collect();
            // Returning drops the pool's job channels, which ends its
            // threads before the scope joins them.
            self.epoch_loop(wd, ctrl, &mut pool)
        })
    }

    fn epoch_loop(
        &mut self,
        wd: WatchdogConfig,
        ctrl: &mut dyn SamplingController,
        pool: &mut Vec<Worker<'_>>,
    ) -> Result<Cycle, SimError> {
        let quantum = self.cfg.resolved_quantum().max(1);
        // Job-trace hook: when this kernel runs inside a traced job
        // (serve/executor), accumulate host time for the barrier and
        // the memory-service section and emit one aggregate span each
        // at the end. Untraced runs pay only this one `current()` call
        // and an `is_some()` check per epoch — and since only host
        // wall-time is observed, simulated cycles stay bit-identical.
        let traced = span::current();
        let mut barrier_host_us: u64 = 0;
        let mut mem_host_us: u64 = 0;
        let mut now = self.start;
        let mut epoch_idx: u64 = 0;
        let mut busy_before: Vec<u64> = Vec::with_capacity(self.shards.len());
        let mut lines_buf: Vec<u64> = Vec::new();
        let mut req_order: Vec<((Cycle, Cycle, u32), usize, usize)> = Vec::new();
        let mut replay = Replay::default();
        let mut completions: Vec<(Cycle, u32, usize, u32)> = Vec::new();

        // Event-driven epoch placement: jump straight to the next
        // pending event anywhere in the machine.
        while let Some(next) = self
            .shards
            .iter()
            .filter_map(|s| s.events.next_cycle())
            .min()
        {
            now = next;
            self.watchdog(now, &wd)?;
            self.fire_windows(now, ctrl);
            if self.abort_ipc.is_some() {
                break;
            }
            let t_end = next + quantum;

            busy_before.clear();
            busy_before.extend(self.shards.iter().map(|s| s.busy_cycles));

            // --- Run every shard over [next, t_end). -----------------
            let ep = Epoch {
                idx: epoch_idx,
                start: next,
                end: t_end,
            };
            if let Some(stop) = self.run_phase(pool, ep) {
                return Err(self.stop_to_err(stop));
            }

            // --- Barrier. --------------------------------------------
            let bar_t0 = traced.map(|_| span::now_us());
            // 1. Commit overlay writes to device memory, shard order.
            //    (Within a shard the overlay already resolved ordering;
            //    cross-shard same-epoch write conflicts are unmodeled,
            //    like cross-CU same-epoch RAW.)
            for shard in &mut self.shards {
                for (addr, byte) in shard.pending_writes.drain(..) {
                    self.mem.write_u8(addr, byte);
                }
            }

            // 2. Service the ports in canonical order: request cycle,
            //    then the issuing event's push moment (the serial
            //    calendar is FIFO on push order within a cycle, and
            //    pushes happen in cycle order — so the push cycle is the
            //    serial tie-break between CUs), then CU, then per-shard
            //    submission sequence. The key is independent of thread
            //    chunking, so contention-induced queueing in the
            //    hierarchy resolves identically at any thread count.
            let mem_t0 = traced.map(|_| span::now_us());
            req_order.clear();
            for (si, shard) in self.shards.iter().enumerate() {
                for (ri, req) in shard.port.requests().iter().enumerate() {
                    req_order.push(((req.req_cycle, shard.req_tags[ri], req.cu), ri, si));
                }
            }
            req_order.sort_unstable_by_key(|&(key, ri, _)| (key, ri));
            let requests = req_order.len() as u32;
            for &(_, ri, si) in &req_order {
                let req = self.shards[si].port.requests()[ri];
                lines_buf.clear();
                lines_buf.extend_from_slice(self.shards[si].port.request_lines(&req));
                let resp = self.hier.service(&req, &lines_buf);
                // Stores are fire-and-forget: the issuing warp already
                // paid the issue latency and moved on; only loads have
                // a parked warp waiting on the response.
                if !req.write {
                    self.shards[si].apply_response(&resp, t_end);
                }
            }
            for shard in &mut self.shards {
                shard.port.clear_requests();
                shard.req_tags.clear();
            }
            if let Some(t0) = mem_t0 {
                mem_host_us += span::now_us().saturating_sub(t0);
            }

            // 3. Replay buffered controller callbacks.
            replay.run(&mut self.shards, ctrl);

            // 4. Free completed workgroups and refill CUs, in canonical
            //    (cycle, wg) order so the round-robin dispatcher state
            //    advances identically at any thread count.
            completions.clear();
            for (si, shard) in self.shards.iter_mut().enumerate() {
                for (cycle, wg_local) in shard.completions.drain(..) {
                    let wg_id = shard.wgs[wg_local as usize].id;
                    completions.push((cycle, wg_id, si, wg_local));
                }
            }
            completions.sort_unstable_by_key(|&(cycle, wg_id, _, _)| (cycle, wg_id));
            for &(cycle, _, si, wg_local) in &completions {
                self.free_wg_resources(si, wg_local);
                // The dispatch latency is >= the quantum, so the new
                // workgroup's t0 lands at or past the boundary by
                // construction.
                self.dispatch(cycle, ctrl)?;
            }

            let busy_shards = self
                .shards
                .iter()
                .zip(busy_before.iter())
                .filter(|(s, &b)| s.busy_cycles > b)
                .count() as u32;
            self.hooks.trace.emit_with(|| TraceEvent {
                ts: next,
                dur: quantum,
                kind: EventKind::EpochBarrier {
                    epoch: epoch_idx,
                    busy_shards,
                    requests,
                },
            });
            if let Some(t0) = bar_t0 {
                barrier_host_us += span::now_us().saturating_sub(t0);
            }
            self.epochs += 1;
            epoch_idx += 1;
        }
        if let Some(ctx) = traced {
            // One aggregate span per section per kernel, not one per
            // epoch: the trail stays small and the ring holds the whole
            // job. `barrier_host_us` includes the mem-service section;
            // subtract it so the two spans partition the barrier time.
            let end = span::now_us();
            let bar = barrier_host_us.saturating_sub(mem_host_us);
            let label = format!("{epoch_idx} epochs");
            span::emit_timed(
                ctx,
                SpanKind::EpochBarrier,
                &label,
                end.saturating_sub(bar),
                bar,
            );
            span::emit_timed(
                ctx,
                SpanKind::MemService,
                &label,
                end.saturating_sub(mem_host_us),
                mem_host_us,
            );
        }
        Ok(now)
    }

    /// Runs every shard over the epoch's window: inline without a pool,
    /// else chunk 0 here and the others on the pool. Returns the stop
    /// of the lowest-indexed shard that stopped.
    fn run_phase(&mut self, pool: &mut Vec<Worker<'_>>, ep: Epoch) -> Option<ShardStop> {
        if pool.is_empty() {
            return run_chunk(&mut self.shards, 0, ep, self.mem, self.launch);
        }
        let mem = Arc::new(std::mem::take(&mut *self.mem));
        // Hand the chunks out last first, so each is the vector's tail.
        for i in (0..pool.len()).rev() {
            let w = &mut pool[i];
            let mut shards = std::mem::take(&mut w.spare);
            shards.extend(self.shards.drain(w.first..));
            let mem = Arc::clone(&mem);
            if w.jobs.send(Job { shards, ep, mem }).is_err() {
                pool.swap_remove(i).rethrow();
            }
        }
        let mut stop = run_chunk(&mut self.shards, 0, ep, &mem, self.launch);
        for i in 0..pool.len() {
            let Ok(Done {
                mut shards,
                stop: s,
            }) = pool[i].done.recv()
            else {
                pool.swap_remove(i).rethrow();
            };
            self.shards.append(&mut shards);
            pool[i].spare = shards;
            // Chunks come back in shard order, so the first stop is the
            // lowest-indexed shard's.
            stop = stop.or(s);
        }
        let Some(mem) = Arc::into_inner(mem) else {
            unreachable!("every pool thread let go of device memory before answering")
        };
        *self.mem = mem;
        stop
    }
}

#[cfg(test)]
thread_local! {
    /// Pool threads spawned by kernels run on this thread.
    static SPAWNED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// The `(epoch, chunk)` whose pool job panics, for kernels started
    /// on this thread.
    static PANIC_AT: std::cell::Cell<Option<(u64, usize)>> = const { std::cell::Cell::new(None) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineMode, GpuConfig};
    use crate::controller::NullController;
    use crate::corpus::Script;
    use crate::engine::GpuSimulator;
    use crate::error::ExecFaultKind;
    use gpu_isa::{CmpOp, Kernel, KernelBuilder, SAluOp, SpecialReg, VAluOp, VectorSrc};
    use gpu_workloads::App;

    /// The replay order the barrier used before the packed keys, kept
    /// as their oracle: every buffered callback tagged
    /// `(cycle, warp, seq)` — `seq` its place in its shard's buffer,
    /// which orders a shard's callbacks as the per-kernel push counter
    /// it replaced did — and sorted by that tag. Returns indices into
    /// the shard-order concatenation of the buffers, in replay order.
    pub(super) fn replay_oracle(shards: &[Shard]) -> Vec<u32> {
        let mut evs: Vec<(Cycle, u64, u32, u32)> = Vec::new();
        for shard in shards {
            for (seq, &(cycle, gid, _)) in shard.ctrl_buf.evs.iter().enumerate() {
                evs.push((cycle, gid, seq as u32, evs.len() as u32));
            }
        }
        evs.sort_unstable_by_key(|&(cycle, gid, seq, _)| (cycle, gid, seq));
        evs.into_iter().map(|(.., idx)| idx).collect()
    }

    fn det(cfg: GpuConfig, threads: u32) -> GpuConfig {
        let mut cfg = cfg.with_engine_mode(EngineMode::Deterministic);
        cfg.engine.threads = threads;
        cfg
    }

    /// The 16-CU machine the thread sweeps run on: chunks of 6/6/4 at
    /// three threads, 4/4/4/4 at five, one shard each at 64 (clamped).
    fn sixteen_cus() -> GpuConfig {
        GpuConfig::r9_nano().with_num_cus(16)
    }

    /// FIR and MM as launches plus their device memory image (built on
    /// the library's simulator type, which only the builders can name).
    fn apps() -> Vec<(&'static str, Vec<gpu_isa::KernelLaunch>, AddressSpace)> {
        let mut out = Vec::new();
        let mut gpu = Default::default();
        let app: App = gpu_workloads::fir::build(&mut gpu, 256, 7);
        out.push(("FIR", app, gpu.mem().clone()));
        let mut gpu = Default::default();
        let app: App = gpu_workloads::mm::build_warps(&mut gpu, 128, 7);
        out.push(("MM", app, gpu.mem().clone()));
        out.into_iter()
            .map(|(name, app, image)| {
                let launches = app.launches().iter().map(|l| l.launch.clone()).collect();
                (name, launches, image)
            })
            .collect()
    }

    /// Thread-count invariance where chunks are uneven and sampled
    /// workgroups' callbacks flow through the barrier: every run
    /// replays each epoch's callbacks against [`replay_oracle`] too.
    #[test]
    fn uneven_chunks_with_a_sampling_controller_are_thread_invariant() {
        for (name, launches, image) in apps() {
            let run = |threads: u32| {
                let mut gpu = GpuSimulator::new(det(sixteen_cus(), threads));
                *gpu.mem_mut() = image.clone();
                let mut ctrl = Script::new(3, None);
                let kernels: Vec<_> = launches
                    .iter()
                    .map(|l| gpu.run_kernel_sampled(l, &mut ctrl).expect("runs"))
                    .collect();
                (kernels, ctrl.calls, gpu.telemetry().snapshot())
            };
            let (want_kernels, want_calls, want_snap) = run(1);
            let sampled: u64 = want_kernels.iter().map(|k| k.predicted_warps).sum();
            assert!(sampled > 0, "{name}: test premise: sampled workgroups");
            assert!(want_snap.counter("engine.epochs").unwrap_or(0) > 100);
            for threads in [2, 3, 5, 64] {
                let (kernels, calls, snap) = run(threads);
                // Kernel results carry their cycle accounting.
                assert_eq!(want_kernels, kernels, "{name}/{threads}: kernel results");
                assert!(want_calls == calls, "{name}/{threads}: callback stream");
                assert_eq!(want_snap, snap, "{name}/{threads}: metrics snapshot");
            }
        }
    }

    /// The pool is spawned once per kernel: `chunks − 1` threads
    /// however many epochs run (the coordinator runs chunk 0).
    #[test]
    fn the_pool_spawns_one_thread_per_chunk_but_the_first_per_kernel() {
        let (_, launches, image) = apps().swap_remove(1);
        for (cfg, threads, chunks) in [
            (GpuConfig::tiny(), 1, 1),
            (GpuConfig::tiny(), 2, 2),
            (GpuConfig::tiny(), 4, 4),
            (sixteen_cus(), 3, 3),
            (sixteen_cus(), 5, 4),
            (sixteen_cus(), 64, 16),
        ] {
            let mut gpu = GpuSimulator::new(det(cfg, threads));
            *gpu.mem_mut() = image.clone();
            let before = SPAWNED.get();
            gpu.run_kernel(&launches[0]).expect("runs");
            let epochs = gpu.telemetry().snapshot().counter("engine.epochs");
            assert!(epochs > Some(100), "test premise: many epochs");
            assert_eq!(SPAWNED.get() - before, chunks - 1, "threads {threads}");
        }
    }

    /// Every warp of workgroups 2 and 3 reads LDS far out of bounds; on
    /// the 4-CU machine they land on CUs 2 and 3, which pool threads own
    /// at two and four threads.
    fn faulting_launch() -> gpu_isa::KernelLaunch {
        let mut kb = KernelBuilder::new("lds_oob_in_worker_chunk");
        let (wg, i, acc) = (kb.sreg(), kb.sreg(), kb.sreg());
        kb.special(wg, SpecialReg::WgId);
        kb.smov(acc, 0i64);
        kb.for_uniform(i, 0i64, 40i64, |kb| {
            kb.salu(SAluOp::Add, acc, acc, 1i64);
        });
        let (addr, v) = (kb.vreg(), kb.vreg());
        kb.valu(VAluOp::Shl, addr, VectorSrc::LaneId, VectorSrc::Imm(2));
        kb.scmp(CmpOp::Ge, wg, 2i64);
        kb.if_scc(|kb| {
            kb.valu(
                VAluOp::Add,
                addr,
                VectorSrc::Reg(addr),
                VectorSrc::Imm(1 << 20),
            );
        });
        kb.lds_load(v, addr, 0);
        let kernel = Kernel::new(kb.finish().expect("valid kernel"));
        gpu_isa::KernelLaunch::new(kernel, 8, 2, vec![]).with_lds(256)
    }

    #[test]
    fn a_fault_on_a_pool_thread_is_the_same_error_at_every_thread_count() {
        let launch = faulting_launch();
        let errs: Vec<SimError> = [1, 2, 4]
            .into_iter()
            .map(|threads| {
                let mut gpu = GpuSimulator::new(det(GpuConfig::tiny(), threads));
                gpu.run_kernel(&launch).expect_err("faults")
            })
            .collect();
        let SimError::ExecFault { warp, fault, .. } = errs[0] else {
            panic!("want an execution fault, got {:?}", errs[0]);
        };
        assert!(matches!(fault, ExecFaultKind::LdsOutOfBounds { .. }));
        assert!((4..6).contains(&warp), "shard 2's warps (wg 2) win: {warp}");
        assert_eq!(errs[0], errs[1], "two threads");
        assert_eq!(errs[0], errs[2], "four threads");
    }

    #[test]
    fn a_pool_thread_panic_reaches_the_caller_with_its_payload() {
        let (_, launches, image) = apps().swap_remove(1);
        let mut gpu = GpuSimulator::new(det(GpuConfig::tiny(), 4));
        *gpu.mem_mut() = image;
        PANIC_AT.set(Some((7, 2)));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gpu.run_kernel_sampled(&launches[0], &mut NullController)
        }));
        PANIC_AT.set(None);
        let payload = caught.expect_err("the injected panic propagates");
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted payload");
        assert_eq!(msg, "injected pool-thread panic: epoch 7, chunk 2");
    }
}
