//! # gpu-mem
//!
//! The GPU memory substrate: a sparse functional address space with a
//! bump allocator, set-associative cache tag arrays, and a queueing
//! timing model for the cache/DRAM hierarchy (per-CU vector L1, shared
//! scalar/instruction L1s, banked L2, DRAM channels).
//!
//! Timing follows a service-queue model: every bank at every level has a
//! `next_free` cycle and a service interval, so bursts of transactions
//! queue up and memory latency becomes load-dependent. This contention
//! is what produces the workload phenomena the Photon paper's
//! observations build on (fluctuating IPC under warp interaction,
//! stabilizing basic-block latencies once competition stabilizes).
//!
//! # Example
//!
//! ```
//! use gpu_mem::{AddressSpace, BumpAllocator};
//!
//! let mut mem = AddressSpace::new();
//! let mut alloc = BumpAllocator::new(0x1000, 1 << 30);
//! let buf = alloc.alloc(1024, 64).unwrap();
//! mem.write_u32(buf, 42);
//! assert_eq!(mem.read_u32(buf), 42);
//! ```

// Production code must surface failures as typed errors, not panics;
// tests are free to unwrap.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod addr;
mod alloc;
mod cache;
mod config;
mod hierarchy;
mod mshr;
mod stats;

pub use addr::{set_bits, AddressSpace, U64HashBuilder, U64Hasher};
pub use alloc::{AllocError, BumpAllocator};
pub use cache::{AccessKind, Cache, CacheAccess};
pub use config::{
    CacheConfig, DramBankConfig, DramConfig, MemFidelityConfig, MemFidelityMode,
    MemHierarchyConfig, MshrConfig, NocConfig,
};
pub use hierarchy::{
    coalesce_lanes_into, coalesce_lines, MemPort, MemRequest, MemResponse, MemoryHierarchy,
    LINE_BYTES,
};
pub use stats::{MemStats, QueueDelayHist, QueueDelays, QDELAY_BUCKETS};

/// A simulation cycle count.
pub type Cycle = u64;

// Compile-time guarantee that the memory stack can move to a worker
// thread of the parallel experiment executor.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<AddressSpace>();
    assert_send::<BumpAllocator>();
    assert_send::<MemoryHierarchy>();
};
