//! # photon-serve
//!
//! Simulation-as-a-service: a long-running job server over the
//! photon-bench parallel executor, so a thundering herd of identical
//! submissions costs one simulation.
//!
//! The server ([`server::Server`]) listens on a `std::net::TcpListener`
//! and speaks the line-delimited JSON protocol of [`protocol`]:
//! `submit` / `status` / `wait` / `fetch` / `cancel` / `stats` /
//! `trace` / `metrics` / `shutdown`. Behind it, the
//! [`scheduler::Scheduler`] runs a bounded
//! two-lane admission queue (interactive sampled methods dequeue before
//! batch `Full` runs) over a pool of worker threads, deduplicates
//! identical jobs at submit time, single-flights result computation
//! through the [`photon_bench::RefCache`] / result store, and
//! drains gracefully on SIGTERM/ctrl-c — in-flight jobs finish, queued
//! jobs are journaled so a restarted server resumes them.
//!
//! Every job carries a trace context minted at submit
//! ([`protocol::mint_trace`]): typed spans (queued, coalesced,
//! cache-probe, sim, epoch-barrier, mem-service, persist) land in
//! `gpu_telemetry::span`'s always-on rings, the `trace` op returns the
//! reassembled span tree, the `metrics` op exports the registry in
//! Prometheus text format, and a job that fails, absorbs a failed span,
//! or lands past the live p99 dumps a flight record
//! ([`photon_bench::flightrec`]) for post-hoc diagnosis.
//!
//! [`client::Client`] is the blocking client used by `photon-loadgen`,
//! `photon-top` (the live operational view), the integration tests, and
//! the CI serve gate.
//!
//! See DESIGN.md § "photon-serve" for the protocol grammar, the
//! lane/admission semantics, the single-flight state machine, and the
//! drain/resume contract.

pub mod client;
pub mod protocol;
pub mod scheduler;
pub mod server;

pub use client::Client;
pub use protocol::{job_id, parse_job_id, Request};
pub use scheduler::{Scheduler, ServeOptions};
pub use server::Server;
