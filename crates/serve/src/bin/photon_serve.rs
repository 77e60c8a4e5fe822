//! `photon-serve` — the simulation job server.
//!
//! ```console
//! $ photon-serve --port 0 --workers 4
//! photon-serve listening on 127.0.0.1:41723
//! ```
//!
//! Speaks the line-delimited JSON protocol of `photon_serve::protocol`.
//! SIGTERM / ctrl-c drains gracefully: in-flight simulations finish,
//! queued jobs are journaled to the pending file and resumed by the
//! next server started with the same `--pending` path.

use photon_bench::cli;
use photon_serve::{ServeOptions, Server};
use std::io::Write;
use std::path::PathBuf;

fn usage() -> String {
    "usage: photon-serve [--port N] [--workers N] [--queue N] [--pending PATH]\n\
     \x20                    [--flightrec DIR | --no-flightrec] [--timeout SECS]\n\
     \x20                    [--retries N] [--no-cache] [--engine-threads N] [--faults SPEC]\n\
     \x20 --port N       TCP port on 127.0.0.1 (default 7847; 0 = ephemeral)\n\
     \x20 --workers N    simulation worker threads (default 2)\n\
     \x20 --queue N      admission bound on queued jobs (default 64)\n\
     \x20 --pending PATH drain/resume journal (default results/serve_pending.jsonl)\n\
     \x20 --flightrec DIR   flight-recorder dump directory (default results/flightrec)\n\
     \x20 --no-flightrec    disable flight-recorder dumps\n\
     \x20 --timeout SECS per-simulation wall-clock budget before a job fails\n\
     \x20 --retries N    extra attempts for transient failures (default: 2)\n\
     \x20 --no-cache     bypass the persistent results/cache/ reference cache\n\
     \x20 --engine-threads N  worker threads per simulation for the epoch engine\n\
     \x20 --faults SPEC  deterministic fault injection: site:rate:seed[,...]\n\
     \x20                (PHOTON_FAULTS=SPEC does the same; see --faults help)"
        .to_string()
}

/// Executor flags that steer a whole grid run. A server cannot honour
/// them, so it refuses them instead of accepting and dropping them.
const GRID_ONLY_FLAGS: [(&str, &str); 5] = [
    ("--engine", "a job runs the engine mode its spec names"),
    (
        "--mem-fidelity",
        "a job runs the memory model its spec names",
    ),
    ("--resume", "the server resumes queued jobs from --pending"),
    ("--no-journal", "the server writes no run journal"),
    ("--jobs", "the server's parallelism is --workers"),
];

/// The one-line refusal for the first grid-only flag in `args`, if any.
fn grid_only_refusal(args: &[String]) -> Option<String> {
    GRID_ONLY_FLAGS.iter().find_map(|(flag, why)| {
        args.iter()
            .any(|a| a == flag)
            .then(|| format!("photon-serve does not take {flag}: {why}"))
    })
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(refusal) = grid_only_refusal(&args) {
        eprintln!("{refusal}");
        std::process::exit(2);
    }
    let exec = match cli::parse_exec_options(&mut args) {
        Ok(mut opts) => {
            // The run journal is the grid executor's; the server has
            // its own pending-jobs journal (--pending).
            opts.journal = None;
            opts
        }
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };

    let mut port: u16 = 7847;
    let mut opts = ServeOptions {
        exec,
        flightrec: Some(photon_bench::flightrec::default_dir()),
        ..ServeOptions::default()
    };
    let mut pending = photon_bench::results_dir().join("serve_pending.jsonl");
    let mut it = args.into_iter();
    let parse_fail = |flag: &str, v: &str| -> ! {
        eprintln!("{flag}: bad value {v:?}\n{}", usage());
        std::process::exit(2);
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--port" => {
                let v = it.next().unwrap_or_default();
                port = v.parse().unwrap_or_else(|_| parse_fail("--port", &v));
            }
            "--workers" => {
                let v = it.next().unwrap_or_default();
                opts.workers = v
                    .parse::<usize>()
                    .unwrap_or_else(|_| parse_fail("--workers", &v))
                    .max(1);
            }
            "--queue" => {
                let v = it.next().unwrap_or_default();
                opts.queue_capacity = v
                    .parse::<usize>()
                    .unwrap_or_else(|_| parse_fail("--queue", &v))
                    .max(1);
            }
            "--pending" => {
                let v = it.next().unwrap_or_default();
                if v.is_empty() {
                    parse_fail("--pending", &v);
                }
                pending = PathBuf::from(v);
            }
            "--flightrec" => {
                let v = it.next().unwrap_or_default();
                if v.is_empty() {
                    parse_fail("--flightrec", &v);
                }
                opts.flightrec = Some(PathBuf::from(v));
            }
            "--no-flightrec" => {
                opts.flightrec = None;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}\n{}", usage());
                std::process::exit(2);
            }
        }
    }

    let server = match Server::bind(&format!("127.0.0.1:{port}"), opts, Some(pending.clone())) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("photon-serve: could not bind 127.0.0.1:{port}: {e}");
            std::process::exit(1);
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("photon-serve: no local address: {e}");
            std::process::exit(1);
        }
    };
    server.install_signal_handlers();
    let workers = server.spawn_workers();
    // Scripts scrape this exact line for the ephemeral port.
    println!("photon-serve listening on {addr}");
    let _ = std::io::stdout().flush();

    match server.run() {
        Ok(drained) => {
            for w in workers {
                let _ = w.join();
            }
            if drained > 0 {
                eprintln!(
                    "photon-serve: drained {drained} queued job(s) to {}",
                    pending.display()
                );
            }
            eprintln!("photon-serve: clean exit");
        }
        Err(e) => {
            eprintln!("photon-serve: acceptor failed: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn grid_only_flags_are_refused_by_name() {
        for (flag, _) in GRID_ONLY_FLAGS {
            let refusal = grid_only_refusal(&args(&format!("--workers 2 {flag} x")))
                .unwrap_or_else(|| panic!("{flag} was accepted"));
            assert!(refusal.contains(flag), "{refusal}");
            assert_eq!(refusal.lines().count(), 1, "{refusal}");
            let listed = usage().contains(&format!("{flag} "));
            assert!(!listed, "--help still lists {flag}");
        }
    }

    #[test]
    fn flags_the_server_honours_pass() {
        let honoured = "--port 0 --timeout 9 --retries 1 --no-cache --engine-threads 2";
        assert_eq!(grid_only_refusal(&args(honoured)), None);
    }
}
