//! Shared command-line surface of the experiment binaries: every
//! binary that runs a simulation grid accepts the executor flags parsed
//! here.
//!
//! ```console
//! $ figures fig13 --jobs 8              # fan the grid over 8 workers
//! $ figures fig13 --jobs 1 --no-cache   # sequential, cold reference runs
//! $ figures fig13 --resume              # replay completed specs from the journal
//! $ figures fig13 --faults exec.panic:0.3:42   # deterministic chaos
//! ```

use crate::executor::ExecOptions;
use gpu_sim::EngineMode;
use gpu_telemetry::faults::{self, FaultPlan};
use std::time::Duration;

/// Renders the common usage block for a binary's `--help`.
pub fn usage(bin: &str, extra: &str) -> String {
    format!(
        "usage: {bin} [--jobs N] [--timeout SECS] [--retries N] [--no-cache]\n\
         \x20              [--resume] [--no-journal] [--faults SPEC]{extra}\n\
         \x20 --jobs N        worker threads (default: available parallelism)\n\
         \x20 --timeout SECS  per-run wall-clock budget before a run is skipped\n\
         \x20 --retries N     extra attempts for transient failures (default: 2)\n\
         \x20 --no-cache      bypass the persistent results/cache/ reference cache\n\
         \x20 --resume        replay specs already completed in results/journal.jsonl\n\
         \x20                 instead of re-simulating them\n\
         \x20 --no-journal    do not write the run journal\n\
         \x20 --faults SPEC   deterministic fault injection: site:rate:seed[,...]\n\
         \x20                 (PHOTON_FAULTS=SPEC does the same; see --faults help)\n\
         \x20 --engine MODE   timing-engine override for every run in the grid:\n\
         \x20                 serial | deterministic\n\
         \x20 --engine-threads N  worker threads per simulation for the epoch\n\
         \x20                 engine (default: available parallelism, capped at\n\
         \x20                 the CU count)\n\
         \x20 --mem-fidelity M  memory-model override for every run in the grid:\n\
         \x20                 legacy | detailed (MSHRs, NoC bank queues, DRAM banks)"
    )
}

/// Renders the fault-site catalog for `--faults help`.
fn fault_sites_help() -> String {
    let mut out =
        String::from("fault-injection sites (--faults site:rate:seed[,site:rate:seed...]):\n");
    for site in faults::FaultSite::ALL {
        out.push_str(&format!("  {}\n", site.name()));
    }
    out.push_str("rate is a probability in [0,1]; decisions are a pure hash of\n(site, seed, run key), so the same spec always sees the same faults.");
    out
}

/// Parses the executor flags out of `args`, leaving unrecognized
/// arguments untouched (in order) for the binary's own parsing.
///
/// `--faults` installs the parsed plan globally as a side effect (the
/// injection sites live below the executor's plumbing); `--no-journal`
/// and `--resume` steer the run journal, which defaults to ON at
/// `results/journal.jsonl` for CLI binaries.
///
/// # Errors
/// Returns a rendered message for malformed values (non-numeric
/// `--jobs` / `--timeout` / `--retries`, a bad `--faults` spec, or a
/// flag missing its value).
pub fn parse_exec_options(args: &mut Vec<String>) -> Result<ExecOptions, String> {
    let mut opts = ExecOptions {
        journal: Some(crate::harness::results_dir().join("journal.jsonl")),
        ..ExecOptions::default()
    };
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.drain(..);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                opts.jobs = v
                    .parse::<usize>()
                    .map_err(|_| format!("--jobs: not a number: {v}"))?
                    .max(1);
            }
            "--timeout" => {
                let v = it.next().ok_or("--timeout needs a value")?;
                let secs = v
                    .parse::<u64>()
                    .map_err(|_| format!("--timeout: not a number: {v}"))?;
                opts.timeout = Duration::from_secs(secs.max(1));
            }
            "--retries" => {
                let v = it.next().ok_or("--retries needs a value")?;
                opts.retries = v
                    .parse::<u32>()
                    .map_err(|_| format!("--retries: not a number: {v}"))?;
            }
            "--no-cache" => opts.cache = false,
            "--resume" => opts.resume = true,
            "--no-journal" => opts.journal = None,
            "--faults" => {
                let v = it.next().ok_or("--faults needs a value")?;
                if v == "help" {
                    return Err(fault_sites_help());
                }
                let plan = FaultPlan::parse(&v).map_err(|e| format!("--faults: {e}"))?;
                faults::install(Some(plan));
            }
            "--engine" => {
                let v = it.next().ok_or("--engine needs a value")?;
                opts.engine_mode = Some(match v.as_str() {
                    "serial" => EngineMode::Serial,
                    "deterministic" | "det" => EngineMode::Deterministic,
                    _ => {
                        return Err(format!(
                            "--engine: unknown mode {v} (serial | deterministic)"
                        ))
                    }
                });
            }
            "--engine-threads" => {
                let v = it.next().ok_or("--engine-threads needs a value")?;
                opts.engine_threads = Some(
                    v.parse::<u32>()
                        .map_err(|_| format!("--engine-threads: not a number: {v}"))?,
                );
            }
            "--mem-fidelity" => {
                let v = it.next().ok_or("--mem-fidelity needs a value")?;
                opts.mem_fidelity = Some(match v.as_str() {
                    "legacy" => gpu_mem::MemFidelityMode::Legacy,
                    "detailed" => gpu_mem::MemFidelityMode::Detailed,
                    _ => {
                        return Err(format!(
                            "--mem-fidelity: unknown mode {v} (legacy | detailed)"
                        ))
                    }
                });
            }
            _ => rest.push(a),
        }
    }
    drop(it);
    *args = rest;
    if opts.resume && opts.journal.is_none() {
        return Err("--resume needs the journal (drop --no-journal)".to_string());
    }
    Ok(opts)
}

/// Turns `opts` into a traced invocation (`photon_sim --trace`): attaches
/// a 1 Mi-event ring to every run and makes every spec simulate. A
/// reference-cache hit or a `--resume` replay answers without running,
/// so it has no events to export. The rule lives here, not in the
/// executor, because `report smoke --require-cached` also attaches a
/// ring and must keep hitting the cache.
pub fn force_traced_run(opts: &mut ExecOptions) {
    opts.trace_capacity = 1 << 20;
    opts.cache = false;
    if opts.resume {
        // A non-resuming run truncates its journal; leave the one the
        // caller meant to resume from intact.
        opts.resume = false;
        opts.journal = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_strips_exec_flags() {
        let mut args: Vec<String> = ["--jobs", "3", "--keep", "--timeout", "9", "--no-cache"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = parse_exec_options(&mut args).unwrap();
        assert_eq!(opts.jobs, 3);
        assert_eq!(opts.timeout, Duration::from_secs(9));
        assert!(!opts.cache);
        assert_eq!(args, vec!["--keep".to_string()]);
    }

    #[test]
    fn rejects_malformed_values() {
        let mut args = vec!["--jobs".to_string(), "many".to_string()];
        assert!(parse_exec_options(&mut args).is_err());
        let mut args = vec!["--timeout".to_string()];
        assert!(parse_exec_options(&mut args).is_err());
        let mut args = vec!["--retries".to_string(), "lots".to_string()];
        assert!(parse_exec_options(&mut args).is_err());
        let mut args = vec!["--faults".to_string(), "no.such.site:1:1".to_string()];
        assert!(parse_exec_options(&mut args).is_err());
        // The message lists exactly the accepted modes.
        let mut args = vec!["--engine".to_string(), "relaxed".to_string()];
        let err = parse_exec_options(&mut args).unwrap_err();
        assert_eq!(
            err,
            "--engine: unknown mode relaxed (serial | deterministic)"
        );
    }

    #[test]
    fn jobs_clamped_to_one() {
        let mut args = vec!["--jobs".to_string(), "0".to_string()];
        let opts = parse_exec_options(&mut args).unwrap();
        assert_eq!(opts.jobs, 1);
    }

    #[test]
    fn journal_defaults_on_and_flags_steer_it() {
        let mut args: Vec<String> = vec![];
        let opts = parse_exec_options(&mut args).unwrap();
        assert!(opts.journal.is_some());
        assert!(!opts.resume);
        assert_eq!(opts.retries, 2);

        let mut args = vec!["--resume".to_string(), "--retries".to_string(), "5".into()];
        let opts = parse_exec_options(&mut args).unwrap();
        assert!(opts.resume);
        assert_eq!(opts.retries, 5);

        let mut args = vec!["--no-journal".to_string()];
        let opts = parse_exec_options(&mut args).unwrap();
        assert!(opts.journal.is_none());

        // --resume without a journal is contradictory.
        let mut args = vec!["--no-journal".to_string(), "--resume".to_string()];
        assert!(parse_exec_options(&mut args).is_err());
    }
}
