//! The busy-port re-push, kept as the oracle of the calendar's retry
//! lane.
//!
//! Before the lane, a `Ready` event that found its SIMD port taken was
//! pushed again at the cycle the port frees, and lost again there if
//! another warp took the port first. Shards built on a thread that
//! selects the oracle still do exactly that (`Shard::repush`);
//! everything else is the engine as it runs. The tests replay every
//! registry kernel at smoke size and seeded contention kernels both
//! ways — serial and deterministic on 1, 2 and 4 threads — and require
//! the same cycles, accounting, per-BB rows, memory counters,
//! controller callbacks and issue stream, while `sim.events` falls to
//! one per instruction plus one per predicted warp.

use crate::shard::Shard;
use gpu_isa::InstClass;
use gpu_mem::Cycle;
use std::cell::{Cell, RefCell};

/// One issue as a shard logs it: `(cycle, warp, class, push moment)`.
pub(crate) type Issue = (Cycle, u64, InstClass, Cycle);

thread_local! {
    static REPUSH: Cell<bool> = const { Cell::new(false) };
    static RECORDED: RefCell<Option<Vec<Issue>>> = const { RefCell::new(None) };
}

/// Whether shards built on this thread re-push instead of using the lane.
pub(crate) fn selected() -> bool {
    REPUSH.with(Cell::get)
}

/// Whether shards built on this thread log their issues.
pub(crate) fn recording() -> bool {
    RECORDED.with_borrow(Option::is_some)
}

/// Moves the issue logs of a finished kernel run to this thread's
/// record, in shard order, while a test is recording.
pub(crate) fn collect(shards: &mut [Shard]) {
    RECORDED.with_borrow_mut(|log| {
        if let Some(log) = log {
            for issues in shards.iter_mut().filter_map(|s| s.issues.as_mut()) {
                log.append(issues);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, EngineMode, GpuConfig};
    use crate::controller::{BbRecord, SamplingController, WarpRecord, WgMode};
    use crate::engine::GpuSimulator;
    use crate::error::SimError;
    use crate::result::KernelResult;
    use crate::warp::WarpTrace;
    use gpu_isa::{CmpOp, Kernel, KernelBuilder, KernelLaunch, MemWidth, SAluOp};
    use gpu_isa::{SpecialReg, VAluOp, VectorSrc};
    use gpu_mem::{AddressSpace, MemStats};
    use gpu_workloads::dnn::DnnScale;
    use gpu_workloads::registry::{Benchmark, RealWorldApp};
    use gpu_workloads::App;

    /// One controller callback, in the order the engine made it.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Call {
        Dispatch(WgMode),
        Bb(BbRecord),
        Warp(WarpRecord),
        Inst(InstClass, Cycle),
        Window(Cycle, u64, Cycle),
        Abort(bool),
    }

    /// Records every callback; optionally samples every `sample_every`-th
    /// workgroup with short predictions (warps that retire early, under
    /// the detailed ones' contention) and aborts after `abort_after`
    /// windows.
    struct Script {
        calls: Vec<Call>,
        dispatched: u64,
        windows: usize,
        sample_every: u64,
        abort_after: Option<usize>,
    }

    impl SamplingController for Script {
        fn dispatch_mode(&mut self) -> WgMode {
            self.dispatched += 1;
            let n = self.sample_every;
            let mode = if n == 0 {
                WgMode::Detailed
            } else if self.dispatched.is_multiple_of(n) {
                WgMode::WarpSampled
            } else if self.dispatched % n == 1 && n > 2 {
                WgMode::BbSampled
            } else {
                WgMode::Detailed
            };
            self.calls.push(Call::Dispatch(mode));
            mode
        }
        fn on_bb_record(&mut self, rec: &BbRecord) {
            self.calls.push(Call::Bb(*rec));
        }
        fn on_warp_retire(&mut self, rec: &WarpRecord) {
            self.calls.push(Call::Warp(*rec));
        }
        fn on_inst_retire(&mut self, class: InstClass, latency: Cycle) {
            self.calls.push(Call::Inst(class, latency));
        }
        fn on_ipc_window(&mut self, start: Cycle, insts: u64, window: Cycle) {
            self.windows += 1;
            self.calls.push(Call::Window(start, insts, window));
        }
        fn check_abort(&mut self) -> Option<f64> {
            let abort = self.abort_after.is_some_and(|n| self.windows >= n);
            self.calls.push(Call::Abort(abort));
            abort.then_some(0.75)
        }
        fn predict_warp_bb(&mut self, trace: &WarpTrace) -> Cycle {
            1 + trace.insts % 23
        }
        fn predict_warp_avg(&mut self) -> Cycle {
            1 + self.dispatched * 7 % 29
        }
    }

    struct Case {
        name: String,
        cfg: GpuConfig,
        image: AddressSpace,
        launches: Vec<KernelLaunch>,
        sample_every: u64,
        abort_after: Option<usize>,
        /// `(mode, threads)` pairs to compare under.
        modes: Vec<(EngineMode, u32)>,
    }

    const ALL_MODES: [(EngineMode, u32); 4] = [
        (EngineMode::Serial, 0),
        (EngineMode::Deterministic, 1),
        (EngineMode::Deterministic, 2),
        (EngineMode::Deterministic, 4),
    ];

    #[derive(Debug, PartialEq)]
    struct Outcome {
        kernels: Vec<Result<KernelResult, SimError>>,
        mem: MemStats,
        calls: Vec<Call>,
        issues: Vec<Issue>,
    }

    /// Runs the case once; returns what it did and `sim.events`.
    fn run(case: &Case, mode: EngineMode, threads: u32, repush: bool) -> (Outcome, u64) {
        REPUSH.set(repush);
        RECORDED.set(Some(Vec::new()));
        let mut cfg = case.cfg.clone();
        cfg.engine = EngineConfig {
            mode,
            threads,
            quantum: 0,
        };
        let mut gpu = GpuSimulator::new(cfg);
        *gpu.mem_mut() = case.image.clone();
        let mut ctrl = Script {
            calls: Vec::new(),
            dispatched: 0,
            windows: 0,
            sample_every: case.sample_every,
            abort_after: case.abort_after,
        };
        let kernels = case
            .launches
            .iter()
            .map(|l| gpu.run_kernel_sampled(l, &mut ctrl))
            .collect();
        REPUSH.set(false);
        let issues = RECORDED.take().expect("recording");
        let events = gpu
            .telemetry()
            .snapshot()
            .counter("sim.events")
            .unwrap_or(0);
        let outcome = Outcome {
            kernels,
            mem: gpu.mem_stats(),
            calls: ctrl.calls,
            issues,
        };
        (outcome, events)
    }

    /// The first difference between two equally long-or-not sequences.
    fn first_diff<T: PartialEq + std::fmt::Debug>(want: &[T], got: &[T]) -> String {
        match want.iter().zip(got).position(|(w, g)| w != g) {
            Some(i) => format!("at {i}: want {:?}, got {:?}", want[i], got[i]),
            None => format!("lengths {} vs {}", want.len(), got.len()),
        }
    }

    /// Lane against re-push under every mode of the case. Returns the
    /// busy-port retries the lane saved (oracle events − lane events).
    fn check(case: &Case) -> u64 {
        let mut saved = 0;
        for &(mode, threads) in &case.modes {
            let at = format!("{} {mode:?}/{threads}", case.name);
            let (want, want_events) = run(case, mode, threads, true);
            let (got, got_events) = run(case, mode, threads, false);
            assert!(
                want.issues == got.issues,
                "{at}: issue stream {}",
                first_diff(&want.issues, &got.issues)
            );
            assert!(
                want.calls == got.calls,
                "{at}: controller calls {}",
                first_diff(&want.calls, &got.calls)
            );
            assert_eq!(want.kernels, got.kernels, "{at}: kernel results");
            assert_eq!(want.mem, got.mem, "{at}: memory counters");
            let (mut insts, mut moved) = (0, 0);
            for k in got.kernels.iter() {
                let k = k.as_ref().unwrap_or_else(|e| panic!("{at}: {e}"));
                let acct = k.accounting.as_ref().expect("accounting");
                acct.check()
                    .unwrap_or_else(|e| panic!("{at}: accounting: {e}"));
                insts += k.detailed_insts;
                moved += k.detailed_insts + k.predicted_warps;
            }
            assert_eq!(got.issues.len() as u64, insts, "{at}: every issue logged");
            if case.abort_after.is_none() {
                assert_eq!(got_events, moved, "{at}: one event per instruction");
            }
            assert!(got_events <= want_events, "{at}");
            saved += want_events - got_events;
        }
        saved
    }

    /// Builds a `gpu-workloads` app and its device memory image. Its
    /// builders take this crate's *library* `GpuSimulator`, a different
    /// type from the one under test that this module cannot name: the
    /// builder's signature infers it, `Default` constructs it, and only
    /// the launches and the memory image (both shared types) cross over.
    macro_rules! built {
        (|$gpu:ident| $build:expr) => {{
            let mut $gpu = Default::default();
            let app: App = $build;
            let image: AddressSpace = $gpu.mem().clone();
            (app, image)
        }};
    }

    fn registry_case((app, image): (App, AddressSpace)) -> Case {
        Case {
            name: app.name().to_string(),
            cfg: GpuConfig::tiny(),
            image,
            launches: app.launches().iter().map(|l| l.launch.clone()).collect(),
            sample_every: 0,
            abort_after: None,
            modes: ALL_MODES.to_vec(),
        }
    }

    /// Table 2's six single-kernel benchmarks at 32 warps.
    #[test]
    fn lane_matches_repush_on_the_registry_benchmarks() {
        let mut saved = 0;
        for b in Benchmark::ALL {
            saved += check(&registry_case(built!(|gpu| b.build(&mut gpu, 32, 1))));
        }
        assert!(saved > 0, "no benchmark contended for a SIMD port");
    }

    /// PageRank, and ResNet-18 for every DNN layer kernel (pad, conv,
    /// pool, residual add, global average pool, dense; VGG adds none).
    #[test]
    fn lane_matches_repush_on_the_registry_applications() {
        let scale = DnnScale {
            input_hw: 32,
            channel_div: 32,
        };
        let mut saved = 0;
        for a in [RealWorldApp::PageRank(128), RealWorldApp::ResNet18] {
            saved += check(&registry_case(built!(|gpu| a.build(&mut gpu, scale, 1))));
        }
        assert!(saved > 0, "no application contended for a SIMD port");
    }

    /// xorshift64: the seeded source of the contention corpus.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
        fn coin(&mut self) -> bool {
            self.below(2) == 0
        }
    }

    /// A kernel shaped to make warps fight for SIMD ports: 1–16 warps
    /// per SIMD, dependent ALU chains (latency 1 half the time), LDS
    /// round trips, global loads, barriers released after 1 cycle or
    /// the default, warps that retire early, a grid larger than the
    /// machine holds (dispatch after every completion — with no
    /// dispatch latency, into the current cycle) and, on some seeds,
    /// sampled workgroups and a PKA-style abort.
    fn contention_case(seed: u64) -> Case {
        let mut r = Rng(0x9e37_79b9_7f4a_7c15 ^ seed.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        let mut cfg = GpuConfig::tiny();
        cfg.slots_per_simd = 16;
        let warps_per_wg = [1u32, 2, 3, 4, 8, 16][r.below(6) as usize];
        cfg.max_wgs_per_cu = (1 + r.below(16) as u32).min(64 / warps_per_wg);
        if r.coin() {
            cfg.lat.valu = 1;
            cfg.lat.salu = 1;
            cfg.lat.branch = 1;
        }
        if r.coin() {
            cfg.lat.barrier_release = 1;
        }
        let no_dispatch_latency = r.coin();
        if no_dispatch_latency {
            cfg.lat.dispatch = 0;
            cfg.lat.dispatch_interval = r.below(2);
        }
        let resident = cfg.num_cus * cfg.max_wgs_per_cu;
        let num_wgs = resident + 1 + r.below(u64::from(resident) / 2 + 1) as u32;

        let (lds, global, barrier, early) = (r.coin(), r.coin(), r.coin(), r.coin());
        let chain = 1 + r.below(3);
        let iters = 1 + r.below(3) as i64;
        let mut kb = KernelBuilder::new(format!("contend{seed}"));
        let (s_out, s_in, wiw) = (kb.sreg(), kb.sreg(), kb.sreg());
        kb.load_arg(s_out, 0);
        kb.load_arg(s_in, 1);
        kb.special(wiw, SpecialReg::WarpInWg);
        let off = kb.vreg();
        kb.global_thread_id(off);
        kb.valu(VAluOp::Shl, off, VectorSrc::Reg(off), VectorSrc::Imm(2));
        let acc = kb.vreg();
        kb.vmov(acc, VectorSrc::LaneId);
        let lds_addr = kb.vreg();
        let s_base = kb.sreg();
        kb.valu(VAluOp::Shl, lds_addr, VectorSrc::LaneId, VectorSrc::Imm(2));
        kb.salu(SAluOp::Mul, s_base, wiw, 256i64);
        kb.valu(
            VAluOp::Add,
            lds_addr,
            VectorSrc::Sreg(s_base),
            VectorSrc::Reg(lds_addr),
        );
        let i = kb.sreg();
        kb.for_uniform(i, 0i64, iters, |kb| {
            for _ in 0..chain {
                kb.valu(VAluOp::Add, acc, VectorSrc::Reg(acc), VectorSrc::Imm(3));
            }
            if lds {
                kb.lds_store(acc, lds_addr, 0);
                kb.lds_load(acc, lds_addr, 0);
            }
            if global {
                let v = kb.vreg();
                kb.global_load(v, s_in, off, 0, MemWidth::B32);
                kb.valu(VAluOp::Xor, acc, VectorSrc::Reg(acc), VectorSrc::Reg(v));
            }
            if barrier {
                kb.barrier();
            }
        });
        if early {
            // Only the upper half of each workgroup keeps working.
            let half = i64::from(warps_per_wg / 2);
            kb.scmp(CmpOp::Ge, wiw, half);
            kb.if_scc(|kb| {
                let j = kb.sreg();
                kb.for_uniform(j, 0i64, 2 + iters, |kb| {
                    kb.valu(VAluOp::Add, acc, VectorSrc::Reg(acc), VectorSrc::Imm(1));
                });
            });
        }
        kb.global_store(acc, s_out, off, 0, MemWidth::B32);
        let kernel = Kernel::new(kb.finish().expect("valid kernel"));

        let mut gpu = GpuSimulator::new(cfg.clone());
        let words = u64::from(num_wgs) * u64::from(warps_per_wg) * 64;
        let input = gpu.alloc_buffer(4 * words).expect("fits");
        let output = gpu.alloc_buffer(4 * words).expect("fits");
        for w in 0..words {
            gpu.mem_mut()
                .write_u32(input + 4 * w, (w * 2_654_435_761) as u32);
        }
        let launch = KernelLaunch::new(kernel, num_wgs, warps_per_wg, vec![output, input])
            .with_lds(256 * warps_per_wg);
        let sample_every = [0, 0, 3, 5][r.below(4) as usize];
        let abort_after = (r.below(6) == 0).then_some(1 + r.below(3) as usize);
        // With no dispatch latency a predicted warp's completion would
        // dispatch inside the epoch that finished it: serial only.
        let modes = if no_dispatch_latency && sample_every > 0 {
            vec![(EngineMode::Serial, 0)]
        } else {
            ALL_MODES.to_vec()
        };
        Case {
            name: format!("contend seed {seed}"),
            cfg,
            image: gpu.mem().clone(),
            launches: vec![launch.clone(), launch],
            sample_every,
            abort_after,
            modes,
        }
    }

    fn check_corpus(seeds: std::ops::Range<u64>) {
        let saved: u64 = seeds.map(|s| check(&contention_case(s))).sum();
        assert!(saved > 0, "the corpus never contended for a SIMD port");
    }

    #[test]
    fn lane_matches_repush_on_seeded_contention_kernels_0() {
        check_corpus(0..10);
    }

    #[test]
    fn lane_matches_repush_on_seeded_contention_kernels_1() {
        check_corpus(10..20);
    }
}
