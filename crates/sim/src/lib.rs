//! # gpu-sim
//!
//! A cycle-level GPU timing simulator plus warp-level functional
//! emulator — the MGPUSim-like substrate the Photon reproduction runs
//! on. See [`GpuSimulator`] for the main entry point and
//! [`SamplingController`] for the hook surface sampling methodologies
//! (Photon, PKA) plug into.
//!
//! # Example: full detailed simulation
//!
//! ```
//! use gpu_isa::{Kernel, KernelBuilder, KernelLaunch, MemWidth, VAluOp, VectorSrc};
//! use gpu_sim::{GpuConfig, GpuSimulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut gpu = GpuSimulator::new(GpuConfig::tiny());
//! let out = gpu.alloc_buffer(4 * 64)?;
//!
//! let mut kb = KernelBuilder::new("iota");
//! let s = kb.sreg();
//! kb.load_arg(s, 0);
//! let off = kb.vreg();
//! kb.valu(VAluOp::Shl, off, VectorSrc::LaneId, VectorSrc::Imm(2));
//! let v = kb.vreg();
//! kb.vmov(v, VectorSrc::LaneId);
//! kb.global_store(v, s, off, 0, MemWidth::B32);
//!
//! let launch = KernelLaunch::new(Kernel::new(kb.finish()?), 1, 1, vec![out]);
//! let result = gpu.run_kernel(&launch)?;
//! assert!(result.cycles > 0);
//! assert_eq!(gpu.mem().read_u32(out + 4 * 63), 63);
//! # Ok(())
//! # }
//! ```

// Production code must surface failures as typed errors, not panics;
// tests are free to unwrap.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod calendar;
mod config;
mod controller;
#[cfg(test)]
mod corpus;
mod engine;
mod epoch;
mod error;
mod exec;
mod functional;
mod overlay;
#[cfg(test)]
mod repush_oracle;
mod result;
mod shard;
mod warp;

pub use calendar::CalendarQueue;
pub use config::{EngineConfig, EngineMode, GpuConfig, LatencyConfig};
pub use controller::{
    BbRecord, KernelDirective, KernelStartAccess, NullController, Recorder, SamplingController,
    WarpRecord, WgMode,
};
pub use engine::GpuSimulator;
pub use error::SimError;
pub use exec::{step, LaunchEnv, StepEffect, StepInfo};
pub use functional::{run_wg_functional, trace_warp_isolated};
pub use overlay::{DataMem, OverlayMem};
pub use result::{AppResult, BbAccounting, KernelResult};
pub use warp::{WarpState, WarpTrace};
// Accounting types surfaced through `KernelResult` — re-exported so
// downstream users can name them without depending on gpu-telemetry.
pub use gpu_telemetry::{CuAccounting, CycleAccounting, StallClass, StallWindow, STALL_CLASSES};

/// A simulation cycle count (re-exported from [`gpu_mem`]).
pub type Cycle = gpu_mem::Cycle;

// Compile-time guarantee that a complete simulator (engine, memory
// hierarchy, telemetry handle) and the built-in controllers can move to
// a worker thread of the parallel experiment executor.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<GpuSimulator>();
    assert_send::<NullController>();
    assert_send::<Recorder>();
    assert_send::<Box<dyn SamplingController>>();
};
