//! # photon-bench
//!
//! The experiment harness that regenerates every table and figure of
//! the Photon paper's evaluation (see DESIGN.md for the per-experiment
//! index). Each `figures` subcommand prints the same rows/series the
//! paper plots; `EXPERIMENTS.md` records paper-vs-measured values.
//!
//! Experiments run on Table 1 configurations scaled to a quarter of the
//! CU count by default (same per-CU parameters, same residency ratios,
//! quarter-sized problems) so a full sweep finishes in minutes; set
//! `PHOTON_BENCH_FULL=1` for the full 64-/120-CU machines with
//! paper-sized problems.

pub mod cli;
pub mod executor;
pub mod figures;
pub mod flightrec;
pub mod harness;
pub mod journal;
pub mod persist;
pub mod profile;
pub mod refcache;
pub mod report;
pub mod specs;

pub use executor::{
    parallel_map, resolve_spec, run_spec_observed, run_specs, ExecOptions, ExecReport, ExecStats,
    Resolution, RunResult,
};
pub use flightrec::{FlightRecord, FLIGHTREC_SCHEMA_VERSION};
pub use harness::{
    results_dir, try_run_app_method, AppBuilder, FailureKind, Measurement, RunOutcome, Table,
};
pub use journal::{journal_key, load_journal, Journal, JournalEntry, JOURNAL_SCHEMA_VERSION};
pub use persist::{atomic_write, atomic_write_framed, quarantine, read_framed};
pub use refcache::{reference_key, CacheStats, RefCache, CACHE_SCHEMA_VERSION};
pub use report::{build_report, load_report, summary_table, write_report};
pub use specs::{mi100, r9_nano, scaled_photon_config, Method, RunSpec, WorkloadSpec};
