//! The seeded corpus the engine's `#[cfg(test)]` oracles replay: every
//! registry kernel at smoke size, seeded contention kernels, and the
//! scripted controller that samples and aborts some of them.
//!
//! Each oracle runs a [`Case`] once on the mechanism it keeps and once
//! on the one that replaced it, and compares what the two runs did.

use crate::config::{EngineMode, GpuConfig};
use crate::controller::{BbRecord, SamplingController, WarpRecord, WgMode};
use crate::engine::GpuSimulator;
use crate::warp::WarpTrace;
use gpu_isa::{CmpOp, InstClass, Kernel, KernelBuilder, KernelLaunch, MemWidth, SAluOp};
use gpu_isa::{SpecialReg, VAluOp, VectorSrc};
use gpu_mem::{AddressSpace, Cycle};
use gpu_workloads::dnn::DnnScale;
use gpu_workloads::registry::{Benchmark, RealWorldApp};
use gpu_workloads::App;

/// One controller callback, in the order the engine made it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Call {
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
pub(crate) struct Script {
    pub(crate) calls: Vec<Call>,
    dispatched: u64,
    windows: usize,
    sample_every: u64,
    abort_after: Option<usize>,
}

impl Script {
    pub(crate) fn new(sample_every: u64, abort_after: Option<usize>) -> Self {
        Script {
            calls: Vec::new(),
            dispatched: 0,
            windows: 0,
            sample_every,
            abort_after,
        }
    }
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

/// A workload to replay: a device image, the launches to run on it in
/// order, and how the [`Script`] drives them.
pub(crate) struct Case {
    pub(crate) name: String,
    pub(crate) cfg: GpuConfig,
    pub(crate) image: AddressSpace,
    /// One past the last byte the image allocated: kernels write only
    /// below it.
    pub(crate) heap_end: u64,
    pub(crate) launches: Vec<KernelLaunch>,
    pub(crate) sample_every: u64,
    pub(crate) abort_after: Option<usize>,
    /// `(mode, threads)` pairs to compare under.
    pub(crate) modes: Vec<(EngineMode, u32)>,
}

pub(crate) const ALL_MODES: [(EngineMode, u32); 4] = [
    (EngineMode::Serial, 0),
    (EngineMode::Deterministic, 1),
    (EngineMode::Deterministic, 2),
    (EngineMode::Deterministic, 4),
];

/// A digest of device memory up to `heap_end`, where every buffer the
/// simulator allocates lives.
pub(crate) fn digest(mem: &AddressSpace, heap_end: u64) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let mut addr = 0;
    while addr < heap_end {
        let words = ((heap_end - addr) / 4).clamp(1, 1 << 14);
        mem.read_u32_vec(addr, words as usize).hash(&mut h);
        addr += 4 * words;
    }
    h.finish()
}

/// Builds a `gpu-workloads` app into a [`Case`]. Its builders take this
/// crate's *library* `GpuSimulator`, a different type from the one
/// under test that this module cannot name: the builder's signature
/// infers it, `Default` constructs it, and only the launches and the
/// memory image (both shared types) cross over. The library's next
/// allocation marks the end of what the app allocated.
macro_rules! registry_case {
    (|$gpu:ident| $build:expr) => {{
        let mut $gpu = Default::default();
        let app: App = $build;
        Case {
            name: app.name().to_string(),
            cfg: GpuConfig::tiny(),
            image: $gpu.mem().clone(),
            heap_end: $gpu.alloc_buffer(1).expect("fits"),
            launches: app.launches().iter().map(|l| l.launch.clone()).collect(),
            sample_every: 0,
            abort_after: None,
            modes: ALL_MODES.to_vec(),
        }
    }};
}

/// Table 2's six single-kernel benchmarks at 32 warps.
pub(crate) fn registry_benchmarks() -> Vec<Case> {
    Benchmark::ALL
        .iter()
        .map(|b| registry_case!(|gpu| b.build(&mut gpu, 32, 1)))
        .collect()
}

/// PageRank, and ResNet-18 for every DNN layer kernel (pad, conv, pool,
/// residual add, global average pool, dense; VGG adds none).
pub(crate) fn registry_applications() -> Vec<Case> {
    let scale = DnnScale {
        input_hw: 32,
        channel_div: 32,
    };
    [RealWorldApp::PageRank(128), RealWorldApp::ResNet18]
        .iter()
        .map(|a| registry_case!(|gpu| a.build(&mut gpu, scale, 1)))
        .collect()
}

/// ResNet-50 at input 64, channels / 8: the network of the benchmark's
/// `resnet50_kernels` workload.
pub(crate) fn resnet50_kernels() -> Case {
    let scale = DnnScale {
        input_hw: 64,
        channel_div: 8,
    };
    registry_case!(|gpu| RealWorldApp::ResNet50.build(&mut gpu, scale, 1))
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

/// A kernel shaped to make warps fight for SIMD ports: 1–16 warps per
/// SIMD, dependent ALU chains (latency 1 half the time), LDS round
/// trips, global loads, barriers released after 1 cycle or the default,
/// warps that retire early, a grid larger than the machine holds
/// (dispatch after every completion — with no dispatch latency, into
/// the current cycle) and, on some seeds, sampled workgroups and a
/// PKA-style abort.
pub(crate) fn contention_case(seed: u64) -> Case {
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
        heap_end: gpu.alloc_buffer(1).expect("fits"),
        launches: vec![launch.clone(), launch],
        sample_every,
        abort_after,
        modes,
    }
}
