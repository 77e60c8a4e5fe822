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
//!    workgroup completions for the coordinator. With `threads > 1`
//!    the shards are chunked across scoped worker threads; with one
//!    thread they run inline — the barrier protocol below is identical
//!    either way, which is what makes the deterministic mode's results
//!    thread-count-invariant.
//! 3. **Barrier.** The coordinator merges overlay writes into device
//!    memory (shard order), services every port request against the
//!    shared hierarchy in canonical `(req_cycle, cu, submission)`
//!    order — an order that is invariant to how shards were chunked —
//!    replays buffered controller callbacks sorted by
//!    `(cycle, warp, seq)`, and dispatches freed workgroup slots in
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
use crate::shard::{CtrlEv, ShardStop};
use gpu_mem::{AddressSpace, Cycle};
use gpu_telemetry::faults::{self, FaultSite};
use gpu_telemetry::span::{self, SpanKind};
use gpu_telemetry::{EventKind, TraceEvent};
use std::time::Duration;

impl KernelRun<'_> {
    /// The epoch loop (deterministic mode). Returns the cycle of the
    /// last epoch's start, mirroring the serial loop's final `now`.
    #[inline(never)] // DESIGN.md "Engine hot path": keeps the serial loop's codegen apart
    pub(crate) fn run_epochs(
        &mut self,
        wd: WatchdogConfig,
        ctrl: &mut dyn SamplingController,
    ) -> Result<Cycle, SimError> {
        let quantum = self.cfg.resolved_quantum().max(1);
        let threads = self.cfg.resolved_threads() as usize;
        let faults_on = faults::active();
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
        let mut ctrl_evs: Vec<(Cycle, u64, u32, CtrlEv)> = Vec::new();
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
            if faults_on {
                // Chaos hook: delay the barrier round-trip, exercising
                // the engine's tolerance of slow worker scheduling.
                faults::maybe_stall(
                    FaultSite::EngineEpochStall,
                    epoch_idx,
                    Duration::from_millis(50),
                );
            }
            let t_end = next + quantum;

            busy_before.clear();
            busy_before.extend(self.shards.iter().map(|s| s.busy_cycles));

            // --- Run every shard over [next, t_end). -----------------
            let mut stops: Vec<(usize, ShardStop)> = Vec::new();
            if threads <= 1 || self.shards.len() <= 1 {
                for (i, shard) in self.shards.iter_mut().enumerate() {
                    if let Err(stop) = shard.run_epoch(next, t_end, self.mem, self.launch) {
                        stops.push((i, stop));
                        break;
                    }
                }
            } else {
                let mem: &AddressSpace = &*self.mem;
                let launch = self.launch;
                let chunk = self.shards.len().div_ceil(threads);
                std::thread::scope(|scope| {
                    let mut handles = Vec::new();
                    for (ci, shards) in self.shards.chunks_mut(chunk).enumerate() {
                        let base_idx = ci * chunk;
                        handles.push(scope.spawn(move || {
                            let mut local: Vec<(usize, ShardStop)> = Vec::new();
                            for (i, shard) in shards.iter_mut().enumerate() {
                                if let Err(stop) = shard.run_epoch(next, t_end, mem, launch) {
                                    local.push((base_idx + i, stop));
                                }
                            }
                            local
                        }));
                    }
                    for h in handles {
                        match h.join() {
                            Ok(mut local) => stops.append(&mut local),
                            Err(payload) => std::panic::resume_unwind(payload),
                        }
                    }
                });
            }
            if !stops.is_empty() {
                // Deterministic error reporting: the lowest shard index
                // wins regardless of which worker noticed first.
                stops.sort_by_key(|&(i, _)| i);
                let (_, stop) = stops.swap_remove(0);
                return Err(self.stop_to_err(stop));
            }

            // --- Barrier. --------------------------------------------
            let bar_t0 = traced.map(|_| span::now_us());
            // 1. Commit overlay writes to device memory, shard order.
            //    (Within a shard the overlay already resolved ordering;
            //    cross-shard same-epoch write conflicts are unmodeled,
            //    like cross-CU same-epoch RAW.)
            for si in 0..self.shards.len() {
                let writes = std::mem::take(&mut self.shards[si].pending_writes);
                for (addr, byte) in writes {
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

            // 3. Replay buffered controller callbacks in canonical
            //    (cycle, warp, seq) order. A warp lives in exactly one
            //    shard, so the per-shard seq resolves all residual ties.
            ctrl_evs.clear();
            for shard in &mut self.shards {
                ctrl_evs.append(&mut shard.ctrl_buf.evs);
            }
            ctrl_evs.sort_unstable_by_key(|&(cycle, gid, seq, _)| (cycle, gid, seq));
            for (_, _, _, ev) in ctrl_evs.drain(..) {
                match ev {
                    CtrlEv::Bb(rec) => ctrl.on_bb_record(&rec),
                    CtrlEv::Warp(rec) => ctrl.on_warp_retire(&rec),
                    CtrlEv::Inst(class, latency) => ctrl.on_inst_retire(class, latency),
                }
            }

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
}
