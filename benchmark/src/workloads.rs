//! The six workloads: names, sizes and the `RunSpec`s they expand to.
//!
//! Sizes are pinned here (and in README.md). They are the issue's
//! sizes scaled down by at most 2x so that one run of one workload,
//! set-up and checks included, stays near 15 s on the reference host:
//! the driver makes 136 runs inside 3420 s.

use crate::stats::SplitMix;
use gpu_sim::{EngineConfig, EngineMode, GpuConfig};
use gpu_workloads::dnn::DnnScale;
use gpu_workloads::registry::{Benchmark, RealWorldApp};
use photon::{Levels, PhotonConfig};
use photon_bench::specs::{Method, RunSpec, WorkloadSpec};

/// Workload names, in the order they run. Later issues refer to these
/// names: add new ones at the end, never rename.
pub const NAMES: [&str; 6] = [
    "mm_compute",
    "spmv_irregular",
    "fir_stream",
    "resnet50_kernels",
    "mm_det2",
    "serve_closed2",
];

/// The Photon thresholds every spec carries: the paper's defaults with
/// the warp window the scaled experiment grids use. Built explicitly,
/// never through `specs::scaled_photon_config`, which reads
/// `PHOTON_BENCH_FULL`.
pub fn photon_config() -> PhotonConfig {
    let mut cfg = PhotonConfig::with_levels(Levels::all());
    cfg.warp_window = 512;
    cfg
}

fn spec(workload: WorkloadSpec, method: Method, gpu: GpuConfig, seed: u64) -> RunSpec {
    RunSpec {
        workload,
        method,
        gpu,
        photon: photon_config(),
        seed,
    }
}

/// A simulation workload: what is simulated and on which machine.
#[derive(Debug, Clone)]
pub struct SimWorkload {
    pub workload: WorkloadSpec,
    pub gpu: GpuConfig,
    pub seed: u64,
    /// `mm_det2` only: its spec also runs on the serial engine as the
    /// in-workload reference.
    pub serial_reference: bool,
}

impl SimWorkload {
    pub fn with_method(&self, method: Method) -> RunSpec {
        spec(self.workload.clone(), method, self.gpu.clone(), self.seed)
    }

    pub fn full(&self) -> RunSpec {
        self.with_method(Method::Full)
    }

    pub fn photon(&self) -> RunSpec {
        self.with_method(Method::Photon(Levels::all()))
    }

    /// The same spec on the serial engine.
    pub fn serial(&self) -> RunSpec {
        let mut s = self.full();
        s.gpu.engine = EngineConfig::default();
        s
    }
}

fn r9_nano_16() -> GpuConfig {
    GpuConfig::r9_nano().with_num_cus(16)
}

fn bench(b: Benchmark, warps: u64, quick: bool) -> WorkloadSpec {
    WorkloadSpec::Bench {
        bench: b,
        warps: if quick { warps / 4 } else { warps },
    }
}

/// The simulation workload called `name`, or `None` for
/// `serve_closed2` and unknown names. `quick` quarters the sizes.
pub fn sim_workload(name: &str, seed: u64, quick: bool) -> Option<SimWorkload> {
    let (workload, gpu, serial_reference) = match name {
        "mm_compute" => (bench(Benchmark::Mm, 1024, quick), r9_nano_16(), false),
        "spmv_irregular" => (bench(Benchmark::Spmv, 128, quick), r9_nano_16(), false),
        "fir_stream" => (bench(Benchmark::Fir, 16384, quick), r9_nano_16(), false),
        "resnet50_kernels" => (
            WorkloadSpec::RealWorld {
                app: RealWorldApp::ResNet50,
                scale: DnnScale {
                    input_hw: if quick { 32 } else { 64 },
                    channel_div: 8,
                },
            },
            GpuConfig::r9_nano(),
            false,
        ),
        "mm_det2" => {
            let mut gpu = r9_nano_16();
            // Threads are fixed, not read from the host.
            gpu.engine = EngineConfig {
                mode: EngineMode::Deterministic,
                threads: 2,
                quantum: 0,
            };
            (bench(Benchmark::Mm, 512, quick), gpu, true)
        }
        _ => return None,
    };
    Some(SimWorkload {
        workload,
        gpu,
        seed,
        serial_reference,
    })
}

/// The serve mix: distinct FIR sizes on the tiny machine, each under
/// Full and Photon. The sizes are the same for every seed, so the
/// total work is too; the seed decides which client gets which size,
/// in which order, and the input data of every spec.
pub struct ServeMix {
    /// One closed-loop job list per client, Full and Photon alternating.
    pub per_client: Vec<Vec<RunSpec>>,
    /// Warm rounds every client makes at least.
    pub min_warm_rounds: usize,
}

pub const SERVE_CLIENTS: usize = 2;

pub fn serve_mix(seed: u64, quick: bool) -> ServeMix {
    let (sizes, min_warm_rounds): (Vec<u64>, usize) = if quick {
        ((0..8).map(|k| 256 + 96 * k).collect(), 2)
    } else {
        ((0..40).map(|k| 1024 + 78 * k).collect(), 10)
    };
    let mut rng = SplitMix(seed);
    let mut order = sizes;
    rng.shuffle(&mut order);
    let share = order.len() / SERVE_CLIENTS;
    let per_client = order
        .chunks(share)
        .take(SERVE_CLIENTS)
        .map(|mine| {
            mine.iter()
                .flat_map(|&warps| {
                    let data_seed = rng.next();
                    [Method::Full, Method::Photon(Levels::all())].map(|m| {
                        spec(
                            WorkloadSpec::Bench {
                                bench: Benchmark::Fir,
                                warps,
                            },
                            m,
                            GpuConfig::tiny(),
                            data_seed,
                        )
                    })
                })
                .collect()
        })
        .collect();
    ServeMix {
        per_client,
        min_warm_rounds,
    }
}

/// The spec the layer probes replay on `serve_closed2`: its first job.
pub fn serve_probe(mix: &ServeMix) -> SimWorkload {
    let s = &mix.per_client[0][0];
    SimWorkload {
        workload: s.workload.clone(),
        gpu: s.gpu.clone(),
        seed: s.seed,
        serial_reference: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_bench::journal_key;

    #[test]
    fn every_sim_workload_resolves_and_serve_does_not() {
        for name in &NAMES[..5] {
            let w = sim_workload(name, 1, false).expect(name);
            assert_eq!(w.full().method, Method::Full);
            assert_eq!(w.photon().photon.warp_window, 512);
        }
        assert!(sim_workload("serve_closed2", 1, false).is_none());
        let det = sim_workload("mm_det2", 1, false).unwrap();
        assert_eq!(det.full().gpu.engine.threads, 2);
        assert_eq!(det.serial().gpu.engine.mode, EngineMode::Serial);
    }

    #[test]
    fn serve_mix_is_eighty_distinct_specs_with_seed_independent_sizes() {
        let sizes = |seed| {
            let mix = serve_mix(seed, false);
            assert_eq!(mix.per_client.len(), 2);
            let all: Vec<RunSpec> = mix.per_client.concat();
            assert_eq!(all.len(), 80);
            let mut keys: Vec<u64> = all.iter().map(journal_key).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), 80, "jobs must not coalesce");
            for client in &mix.per_client {
                for pair in client.chunks(2) {
                    assert_eq!(pair[0].method, Method::Full);
                    assert_eq!(pair[0].workload, pair[1].workload);
                }
            }
            let mut w: Vec<u64> = all.iter().map(|s| s.workload.warps()).collect();
            w.sort_unstable();
            (w, all[0].workload.warps())
        };
        let (a, first_a) = sizes(1);
        let (b, first_b) = sizes(2);
        assert_eq!(a, b);
        assert_eq!((a[0], a[79]), (1024, 4066));
        assert_ne!(first_a, first_b, "the seed orders the mix");
    }
}
