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
//! identical jobs at submit time, answers a replayable finished job
//! from its byte-budgeted result store ([`store::LruStore`]), reads and
//! writes `Full` references in the [`photon_bench::RefCache`]
//! directory, and drains gracefully on SIGTERM/ctrl-c — in-flight jobs
//! finish, queued jobs are journaled so a restarted server resumes
//! them.
//!
//! Every job carries a trace context minted at submit
//! ([`gpu_telemetry::span::start_job`]): typed spans (queued, coalesced,
//! cache-probe, sim, epoch-barrier, mem-service, persist) land in
//! `gpu_telemetry::span`'s always-on rings, the `trace` op returns the
//! reassembled span tree, the `metrics` op exports the registry in
//! Prometheus text format, and a job that fails, absorbs a failed span,
//! or lands past the live p99 dumps a flight record
//! ([`photon_bench::flightrec`]) for post-hoc diagnosis.
//!
//! [`client::Client`] is the blocking client the integration tests and
//! the benchmark drive the server with. `tests/gate.rs` is the serve
//! gate: it spawns the `photon-serve` binary, drives a duplicate-heavy
//! mix with `Client` threads and asserts only deterministic counts.
//! The live view is the `stats` and `metrics` ops themselves.
//!
//! See DESIGN.md § "photon-serve" for the protocol grammar, the
//! lane/admission semantics, the single-flight state machine, and the
//! drain/resume contract.

pub mod client;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod store;

pub use client::Client;
pub use protocol::Request;
pub use scheduler::{Scheduler, ServeOptions};
pub use server::Server;
