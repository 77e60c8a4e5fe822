//! The one place experiment grids are declared: machine configurations,
//! scaling rules, methods under comparison, and the [`RunSpec`] job
//! descriptions the executor consumes.
//!
//! Before this module each figure binary re-declared its own
//! `r9_nano()`/`mi100()` scaling and method lists by hand; now a figure
//! is a [`RunSpec`] grid built here plus presentation code, and two
//! figures that need the same full-detailed reference automatically
//! produce *identical* specs — which is what lets the executor's
//! reference cache deduplicate them.

use gpu_isa::{fnv1a, fnv1a_extend, isa_fingerprint};
use gpu_sim::{GpuConfig, GpuSimulator};
use gpu_workloads::dnn::DnnScale;
use gpu_workloads::registry::{Benchmark, RealWorldApp};
use gpu_workloads::App;
use photon::{Levels, PhotonConfig};
use serde::{Deserialize, Serialize};

/// Whether the full-size (64/120 CU, paper-sized sweeps) mode is on.
pub fn full_size() -> bool {
    std::env::var("PHOTON_BENCH_FULL").is_ok_and(|v| v == "1")
}

/// CU divisor for the scaled experiment configurations.
fn cu_div() -> u32 {
    if full_size() {
        1
    } else {
        4
    }
}

/// Problem-size divisor matching the CU divisor.
pub fn size_scale() -> u64 {
    cu_div() as u64
}

/// The R9 Nano experiment configuration (possibly CU-scaled).
pub fn r9_nano() -> GpuConfig {
    let full = GpuConfig::r9_nano();
    let n = full.num_cus / cu_div();
    full.with_num_cus(n)
}

/// The MI100 experiment configuration (possibly CU-scaled).
pub fn mi100() -> GpuConfig {
    let full = GpuConfig::mi100();
    let n = full.num_cus / cu_div();
    full.with_num_cus(n)
}

/// The Photon configuration used across the experiments: paper
/// thresholds with the warp window scaled alongside the problem sizes
/// (the paper's 1024 assumes full-size problems).
pub fn scaled_photon_config(levels: Levels) -> PhotonConfig {
    let mut cfg = PhotonConfig::with_levels(levels);
    if !full_size() {
        cfg.warp_window = 512;
    }
    cfg
}

/// The DNN scaling used by the real-world experiments (see DESIGN.md's
/// substitution table): kernels must be large enough that detailed
/// simulation dominates the online-analysis overhead, as in the paper.
pub fn dnn_scale() -> DnnScale {
    if full_size() {
        DnnScale {
            input_hw: 224,
            channel_div: 1,
        }
    } else {
        DnnScale {
            input_hw: 64,
            channel_div: 4,
        }
    }
}

/// A simulation methodology under comparison.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Method {
    /// Full detailed simulation (the accuracy baseline).
    Full,
    /// Photon with the given level mask.
    Photon(Levels),
    /// The PKA baseline.
    Pka,
    /// The TBPoint baseline (sampled thread blocks, no stability gate).
    TbPoint,
    /// The Sieve baseline (inter-kernel stratified sampling only).
    Sieve,
}

impl Method {
    /// Display name for table columns.
    pub fn name(&self) -> String {
        match self {
            Method::Full => "Full".to_string(),
            Method::Photon(l) if *l == Levels::all() => "Photon".to_string(),
            Method::Photon(l) if *l == Levels::bb_only() => "BB-sampling".to_string(),
            Method::Photon(l) if *l == Levels::warp_only() => "Warp-sampling".to_string(),
            Method::Photon(l) if *l == Levels::kernel_only() => "Kernel-sampling".to_string(),
            Method::Photon(l) if *l == Levels::kernel_warp() => "Kernel+Warp".to_string(),
            Method::Photon(_) => "Photon(custom)".to_string(),
            Method::Pka => "PKA".to_string(),
            Method::TbPoint => "TBPoint".to_string(),
            Method::Sieve => "Sieve".to_string(),
        }
    }
}

/// Figure 13's method list: PKA and full Photon against the reference.
pub fn fig13_methods() -> Vec<Method> {
    vec![Method::Pka, Method::Photon(Levels::all())]
}

/// Figure 14's method list: full Photon on the MI100.
pub fn fig14_methods() -> Vec<Method> {
    vec![Method::Photon(Levels::all())]
}

/// Figure 15's ablation list: BB-only, warp-only, full Photon.
pub fn fig15_methods() -> Vec<Method> {
    vec![
        Method::Photon(Levels::bb_only()),
        Method::Photon(Levels::warp_only()),
        Method::Photon(Levels::all()),
    ]
}

/// Figure 17's per-layer method list: kernel-sampling, kernel+warp,
/// full Photon.
pub fn fig17_methods() -> Vec<Method> {
    vec![
        Method::Photon(Levels::kernel_only()),
        Method::Photon(Levels::kernel_warp()),
        Method::Photon(Levels::all()),
    ]
}

/// What to simulate: a Table 2 micro-benchmark at a problem size, or a
/// real-world application at a DNN scale. Serializes canonically — the
/// reference cache hashes this rendering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// A single-kernel benchmark at a given warp count.
    Bench {
        /// Which benchmark.
        bench: Benchmark,
        /// Problem size in warps.
        warps: u64,
    },
    /// A multi-kernel real-world application.
    RealWorld {
        /// Which application.
        app: RealWorldApp,
        /// DNN scaling knobs (ignored by PageRank).
        scale: DnnScale,
    },
}

impl WorkloadSpec {
    /// Display / report name of the workload.
    pub fn name(&self) -> String {
        match self {
            WorkloadSpec::Bench { bench, .. } => bench.abbr().to_string(),
            WorkloadSpec::RealWorld { app, .. } => app.name(),
        }
    }

    /// Problem size in warps when statically known (0 for multi-kernel
    /// apps, matching [`crate::harness::Measurement::warps`]).
    pub fn warps(&self) -> u64 {
        match self {
            WorkloadSpec::Bench { warps, .. } => *warps,
            WorkloadSpec::RealWorld { .. } => 0,
        }
    }

    /// Builds the application on a fresh simulator.
    pub fn build(&self, gpu: &mut GpuSimulator, seed: u64) -> App {
        match self {
            WorkloadSpec::Bench { bench, warps } => bench.build(gpu, *warps, seed),
            WorkloadSpec::RealWorld { app, scale } => app.build(gpu, *scale, seed),
        }
    }
}

/// A self-contained, serializable description of one simulation run:
/// everything a worker thread needs to reproduce the run from scratch.
/// Two equal specs produce bit-identical measurements (modulo wall
/// time), which is the contract the executor's deduplication and the
/// reference cache rely on. Deserializes too: `photon-serve` accepts a
/// spec's JSON rendering verbatim over the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    /// What to simulate.
    pub workload: WorkloadSpec,
    /// The methodology driving the run.
    pub method: Method,
    /// The simulated machine.
    pub gpu: GpuConfig,
    /// Photon thresholds (used by `Method::Photon` runs; kept in every
    /// spec so a grid is self-describing).
    pub photon: PhotonConfig,
    /// Workload-construction seed.
    pub seed: u64,
}

impl RunSpec {
    /// A spec for a Table 2 benchmark.
    pub fn bench(gpu: GpuConfig, bench: Benchmark, warps: u64, method: Method) -> RunSpec {
        RunSpec {
            workload: WorkloadSpec::Bench { bench, warps },
            method,
            gpu,
            photon: scaled_photon_config(Levels::all()),
            seed: DEFAULT_SEED,
        }
    }

    /// A spec for a real-world application.
    pub fn real_world(
        gpu: GpuConfig,
        app: RealWorldApp,
        scale: DnnScale,
        method: Method,
    ) -> RunSpec {
        RunSpec {
            workload: WorkloadSpec::RealWorld { app, scale },
            method,
            gpu,
            photon: scaled_photon_config(Levels::all()),
            seed: DEFAULT_SEED,
        }
    }

    /// Short `workload/method` label for logs and thread names.
    pub fn label(&self) -> String {
        format!("{}/{}", self.workload.name(), self.method.name())
    }
}

/// The seed every figure uses (the paper's sweeps are single-seed).
pub const DEFAULT_SEED: u64 = 7;

/// The fold behind every key derived from a spec
/// ([`crate::journal_key`], [`crate::reference_key`]): FNV-1a over a
/// schema version, the ISA fingerprint, then `parts` in order. Cache
/// file names, journal keys and `photon-serve` job ids are these
/// values, so the fold must not change.
pub(crate) fn spec_key(schema_version: u32, parts: &[&[u8]]) -> u64 {
    let h = fnv1a_extend(
        fnv1a(&schema_version.to_le_bytes()),
        &isa_fingerprint().to_le_bytes(),
    );
    parts.iter().fold(h, |h, part| fnv1a_extend(h, part))
}

/// The grid behind the comparison figures (13/14/15): for every
/// (benchmark, sweep size), one `Full` reference spec followed by one
/// spec per method. `Full` in `methods` is ignored (it is always the
/// reference, emitted exactly once).
pub fn comparison_grid(
    gpu_cfg: &GpuConfig,
    methods: &[Method],
    benches: &[Benchmark],
) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for &bench in benches {
        for warps in bench.sweep(size_scale()) {
            specs.push(RunSpec::bench(gpu_cfg.clone(), bench, warps, Method::Full));
            for method in methods {
                if *method == Method::Full {
                    continue;
                }
                specs.push(RunSpec::bench(
                    gpu_cfg.clone(),
                    bench,
                    warps,
                    method.clone(),
                ));
            }
        }
    }
    specs
}

/// The Figure 16 grid: every real-world application, Full then Photon.
pub fn figure16_grid(gpu_cfg: &GpuConfig, scale: DnnScale) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for app in RealWorldApp::figure16() {
        specs.push(RunSpec::real_world(
            gpu_cfg.clone(),
            app,
            scale,
            Method::Full,
        ));
        specs.push(RunSpec::real_world(
            gpu_cfg.clone(),
            app,
            scale,
            Method::Photon(Levels::all()),
        ));
    }
    specs
}

/// The Figure 17 grid: VGG-16 under Full plus the per-layer ablation
/// methods. The Full spec is identical to Figure 16's VGG-16 reference,
/// so a suite run simulates it once.
pub fn figure17_grid(gpu_cfg: &GpuConfig, scale: DnnScale) -> Vec<RunSpec> {
    let mut specs = vec![RunSpec::real_world(
        gpu_cfg.clone(),
        RealWorldApp::Vgg16,
        scale,
        Method::Full,
    )];
    for method in fig17_methods() {
        specs.push(RunSpec::real_world(
            gpu_cfg.clone(),
            RealWorldApp::Vgg16,
            scale,
            method,
        ));
    }
    specs
}

/// The fixed smoke grid (`report smoke` and CI): a small FIR under Full
/// and Photon. Large enough that warp-sampling actually triggers, small
/// enough to finish in seconds.
pub fn smoke_grid() -> Vec<RunSpec> {
    let gpu = GpuConfig::r9_nano().with_num_cus(4);
    vec![
        RunSpec::bench(gpu.clone(), Benchmark::Fir, 2048, Method::Full),
        RunSpec::bench(gpu, Benchmark::Fir, 2048, Method::Photon(Levels::all())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_configs() {
        // default (non-full) mode quarters the machine
        if !full_size() {
            assert_eq!(r9_nano().num_cus, 16);
            assert_eq!(mi100().num_cus, 30);
        }
    }

    #[test]
    fn method_names() {
        assert_eq!(Method::Full.name(), "Full");
        assert_eq!(Method::Photon(Levels::all()).name(), "Photon");
        assert_eq!(Method::Photon(Levels::bb_only()).name(), "BB-sampling");
        assert_eq!(Method::Pka.name(), "PKA");
    }

    #[test]
    fn comparison_grid_emits_full_once_per_size() {
        let grid = comparison_grid(
            &GpuConfig::tiny(),
            &[Method::Full, Method::Pka, Method::Photon(Levels::all())],
            &[Benchmark::Fir],
        );
        let sizes = Benchmark::Fir.sweep(size_scale()).len();
        assert_eq!(grid.len(), 3 * sizes);
        let fulls = grid.iter().filter(|s| s.method == Method::Full).count();
        assert_eq!(fulls, sizes);
    }

    #[test]
    fn shared_references_are_equal_specs() {
        // Figures 16 and 17 must agree on the VGG-16 reference spec so
        // the executor deduplicates it.
        let gpu = r9_nano();
        let scale = dnn_scale();
        let f16 = figure16_grid(&gpu, scale);
        let f17 = figure17_grid(&gpu, scale);
        let vgg_full_16 = f16
            .iter()
            .find(|s| s.method == Method::Full && s.workload.name() == "VGG-16")
            .unwrap();
        assert!(f17.contains(vgg_full_16));
    }

    /// The journal key is a `photon-serve` job id and the reference key
    /// names a `results/cache/` file: both must hold their values
    /// across refactors (they move only with the ISA revision or a
    /// schema version).
    #[test]
    fn spec_keys_are_pinned() {
        let spec = RunSpec::bench(GpuConfig::tiny(), Benchmark::Fir, 64, Method::Full);
        assert_eq!(
            format!("{:016x}", crate::journal_key(&spec)),
            "1692085a60975f39"
        );
        assert_eq!(
            format!("{:016x}", crate::reference_key(&spec)),
            "a989de7708136fde"
        );
    }

    #[test]
    fn specs_serialize_canonically() {
        let a = RunSpec::bench(GpuConfig::tiny(), Benchmark::Fir, 64, Method::Full);
        let b = a.clone();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        let c = RunSpec::bench(GpuConfig::tiny(), Benchmark::Fir, 128, Method::Full);
        assert_ne!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&c).unwrap()
        );
    }
}
