//! GPU configurations (Table 1 of the paper).

use gpu_mem::MemHierarchyConfig;
use serde::{Deserialize, Serialize};

/// Fixed instruction latencies (cycles) of the execution pipelines.
///
/// `Copy` on purpose: the timing engine keeps a copy per kernel run so
/// the per-instruction path never clones or chases the config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyConfig {
    /// Scalar ALU op.
    pub salu: u64,
    /// Vector ALU op (full-rate).
    pub valu: u64,
    /// Slow vector ops (integer divide/remainder, `f32` divide).
    pub valu_slow: u64,
    /// LDS access.
    pub lds: u64,
    /// Branch resolution.
    pub branch: u64,
    /// Cycles between a memory instruction's issue and the request
    /// entering the hierarchy.
    pub mem_issue: u64,
    /// Store issue occupancy (stores are fire-and-forget).
    pub store_issue: u64,
    /// Cycles to release warps once the last one reaches a barrier.
    pub barrier_release: u64,
    /// Cycles to dispatch a workgroup to a CU.
    pub dispatch: u64,
    /// Minimum cycles between two workgroup dispatches (the command
    /// processor issues workgroups sequentially, staggering their start
    /// times).
    pub dispatch_interval: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            salu: 4,
            valu: 4,
            valu_slow: 16,
            lds: 8,
            branch: 4,
            mem_issue: 4,
            store_issue: 4,
            barrier_release: 4,
            dispatch: 10,
            dispatch_interval: 4,
        }
    }
}

/// Watchdog guardrails bounding a single kernel launch.
///
/// The timing engine aborts a launch with a typed error (instead of
/// spinning forever) when either bound trips:
///
/// * [`SimError::FuelExhausted`](crate::SimError::FuelExhausted) once
///   the launch consumes `cycle_fuel` simulated cycles, and
/// * [`SimError::Deadlock`](crate::SimError::Deadlock) once
///   `stall_cycles` elapse with warps resident but no instruction
///   issued or warp retired (the event queue has work that makes no
///   progress).
///
/// Both errors carry a [`WatchdogSnapshot`](crate::WatchdogSnapshot)
/// of the stuck warps. Structural deadlocks (a warp exits while
/// siblings wait at a barrier) are detected immediately, without
/// waiting for either bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchdogConfig {
    /// Hard ceiling on simulated cycles one kernel launch may consume.
    pub cycle_fuel: u64,
    /// Cycles without any issue or retirement (while warps are
    /// resident) before the launch is declared stalled.
    pub stall_cycles: u64,
}

impl Default for WatchdogConfig {
    /// Generous production bounds: 2 G cycles of fuel (seconds of
    /// simulated GPU time at 1 GHz), 5 M idle cycles before a stall
    /// verdict — far above anything a legal kernel in this model does.
    fn default() -> Self {
        WatchdogConfig {
            cycle_fuel: 2_000_000_000,
            stall_cycles: 5_000_000,
        }
    }
}

/// How the timing engine executes one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineMode {
    /// The single event domain of PRs 1–7: one calendar queue over all
    /// CUs, memory serviced inline. The reference for golden cycles.
    Serial,
    /// One event domain per CU, advanced in lock-step epochs whose
    /// quantum never exceeds the shortest cross-domain latency, so
    /// results are bit-identical at any thread count.
    Deterministic,
}

/// Execution-mode selection for the sharded timing engine.
///
/// `threads == 0` means "resolve at run time" — to the machine's
/// available parallelism. Keeping the serialized form thread-agnostic
/// matters:
/// run results must not depend on worker count (the deterministic mode
/// guarantees it), so cache keys and wire specs stay valid across
/// machines.
///
/// `quantum == 0` picks the largest provably-safe
/// [`EngineMode::Deterministic`] quantum; a non-zero value asks for a
/// smaller one and is min'd with that bound (see
/// [`GpuConfig::resolved_quantum`]). Serial mode ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    pub mode: EngineMode,
    pub threads: u32,
    pub quantum: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mode: EngineMode::Serial,
            threads: 0,
            quantum: 0,
        }
    }
}

/// Full configuration of one simulated GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Human-readable name ("R9 Nano", "MI100").
    pub name: String,
    /// Number of compute units.
    pub num_cus: u32,
    /// SIMD units per CU (GCN: 4).
    pub simds_per_cu: u32,
    /// Wavefront slots per SIMD (GCN: 10).
    pub slots_per_simd: u32,
    /// Maximum workgroups resident per CU.
    pub max_wgs_per_cu: u32,
    /// LDS bytes per CU.
    pub lds_per_cu: u32,
    /// Memory hierarchy.
    pub mem: MemHierarchyConfig,
    /// Pipeline latencies.
    pub lat: LatencyConfig,
    /// IPC sampling window in cycles (for timelines and PKA).
    pub ipc_window: u64,
    /// Hard cap on instructions one warp may execute (runaway guard).
    pub max_insts_per_warp: u64,
    /// Launch-level watchdog bounds (cycle fuel, stall detection).
    pub watchdog: WatchdogConfig,
    /// Timing-engine execution mode (serial / deterministic epochs).
    pub engine: EngineConfig,
}

impl GpuConfig {
    /// The R9 Nano configuration of Table 1 (64 CUs @ 1 GHz).
    pub fn r9_nano() -> Self {
        GpuConfig {
            name: "R9 Nano".to_string(),
            num_cus: 64,
            simds_per_cu: 4,
            slots_per_simd: 10,
            max_wgs_per_cu: 16,
            lds_per_cu: 64 * 1024,
            mem: MemHierarchyConfig::r9_nano(),
            lat: LatencyConfig::default(),
            ipc_window: 2048,
            max_insts_per_warp: 100_000_000,
            watchdog: WatchdogConfig::default(),
            engine: EngineConfig::default(),
        }
    }

    /// The MI100 configuration of Table 1 (120 CUs @ 1 GHz).
    pub fn mi100() -> Self {
        GpuConfig {
            name: "MI100".to_string(),
            num_cus: 120,
            simds_per_cu: 4,
            slots_per_simd: 10,
            max_wgs_per_cu: 16,
            lds_per_cu: 64 * 1024,
            mem: MemHierarchyConfig::mi100(),
            lat: LatencyConfig::default(),
            ipc_window: 2048,
            max_insts_per_warp: 100_000_000,
            watchdog: WatchdogConfig::default(),
            engine: EngineConfig::default(),
        }
    }

    /// A small 4-CU configuration for fast unit tests.
    pub fn tiny() -> Self {
        let mut mem = MemHierarchyConfig::r9_nano();
        mem.num_cus = 4;
        GpuConfig {
            name: "Tiny".to_string(),
            num_cus: 4,
            simds_per_cu: 4,
            slots_per_simd: 10,
            max_wgs_per_cu: 16,
            lds_per_cu: 64 * 1024,
            mem,
            lat: LatencyConfig::default(),
            ipc_window: 512,
            max_insts_per_warp: 10_000_000,
            watchdog: WatchdogConfig {
                cycle_fuel: 100_000_000,
                stall_cycles: 1_000_000,
            },
            engine: EngineConfig::default(),
        }
    }

    /// Total wavefront slots per CU.
    pub fn warps_per_cu(&self) -> u32 {
        self.simds_per_cu * self.slots_per_simd
    }

    /// Returns the configuration scaled to `n` compute units (keeping
    /// all per-CU parameters), used to run paper-shaped experiments at
    /// reduced problem sizes with the same residency ratios.
    pub fn with_num_cus(mut self, n: u32) -> Self {
        self.num_cus = n;
        self.mem.num_cus = n as u64;
        self
    }

    /// Returns the configuration with the given engine mode, leaving
    /// threads and quantum on automatic.
    pub fn with_engine_mode(mut self, mode: EngineMode) -> Self {
        self.engine = EngineConfig {
            mode,
            ..EngineConfig::default()
        };
        self
    }

    /// The epoch quantum this configuration actually runs with.
    ///
    /// Deterministic mode must never let a cross-shard effect land
    /// inside the epoch that produced it. The three cross-shard paths
    /// and their minimum distances are:
    ///
    /// * workgroup dispatch after a retirement: `lat.dispatch` cycles,
    /// * a scalar-load response: `mem.l1s.hit_latency` cycles,
    /// * a vector-load response: `lat.mem_issue + mem.l1v.hit_latency`.
    ///
    /// The safe quantum is the minimum of the three; an explicit
    /// `engine.quantum` is clamped to it.
    pub fn resolved_quantum(&self) -> u64 {
        let safe = self
            .lat
            .dispatch
            .min(self.mem.l1s.hit_latency)
            .min(self.lat.mem_issue + self.mem.l1v.hit_latency)
            .max(1);
        match self.engine.mode {
            EngineMode::Serial => 0,
            EngineMode::Deterministic => {
                if self.engine.quantum == 0 {
                    safe
                } else {
                    self.engine.quantum.min(safe)
                }
            }
        }
    }

    /// The worker-thread count this configuration actually runs with:
    /// the configured value, else the machine's available parallelism —
    /// always capped by the shard count (one shard per CU, so extra
    /// threads would only spin).
    pub fn resolved_threads(&self) -> u32 {
        let n = if self.engine.threads != 0 {
            self.engine.threads
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get() as u32)
                .unwrap_or(1)
        };
        n.clamp(1, self.num_cus.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let r9 = GpuConfig::r9_nano();
        assert_eq!(r9.num_cus, 64);
        assert_eq!(r9.mem.num_cus, 64);
        assert_eq!(r9.warps_per_cu(), 40);
        let mi = GpuConfig::mi100();
        assert_eq!(mi.num_cus, 120);
        assert_eq!(mi.mem.num_cus, 120);
    }

    #[test]
    fn default_latencies_sane() {
        let l = LatencyConfig::default();
        assert!(l.valu_slow > l.valu);
        assert!(l.salu > 0 && l.branch > 0);
    }

    #[test]
    fn engine_defaults_to_serial_with_auto_everything() {
        let c = GpuConfig::r9_nano();
        assert_eq!(c.engine, EngineConfig::default());
        assert_eq!(c.engine.mode, EngineMode::Serial);
        assert_eq!(c.resolved_quantum(), 0);
    }

    #[test]
    fn deterministic_quantum_is_bounded_by_cross_shard_latencies() {
        let mut c = GpuConfig::tiny().with_engine_mode(EngineMode::Deterministic);
        // Defaults: dispatch 10, l1s hit 24, mem_issue 4 + l1v hit 28.
        assert_eq!(c.resolved_quantum(), 10);
        c.engine.quantum = 4;
        assert_eq!(c.resolved_quantum(), 4);
        c.engine.quantum = 1_000; // clamped to the safe bound
        assert_eq!(c.resolved_quantum(), 10);
    }

    #[test]
    fn threads_are_capped_by_shard_count() {
        let mut c = GpuConfig::tiny();
        c.engine.threads = 64;
        assert_eq!(c.resolved_threads(), 4); // one shard per CU
        c.engine.threads = 2;
        assert_eq!(c.resolved_threads(), 2);
    }

    #[test]
    fn engine_config_round_trips_through_serde() {
        let c = GpuConfig::tiny().with_engine_mode(EngineMode::Deterministic);
        let json = serde_json::to_string(&c).unwrap();
        let back: GpuConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.engine.mode, EngineMode::Deterministic);
        assert_eq!(back, c);
    }

    #[test]
    fn watchdog_bounds_are_generous_but_finite() {
        let w = WatchdogConfig::default();
        assert!(w.cycle_fuel >= 1_000_000_000);
        assert!(w.stall_cycles >= 1_000_000);
        let tiny = GpuConfig::tiny().watchdog;
        assert!(tiny.cycle_fuel < w.cycle_fuel);
    }
}
