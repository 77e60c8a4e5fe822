//! The serve gate: the `photon-serve` binary itself on an ephemeral
//! port, driven over TCP by `Client` threads with a duplicate-heavy mix
//! (every client cycles the same three FIR specs, so identical
//! submissions collide constantly), then stopped with SIGTERM.
//!
//! It asserts only what host speed and thread interleaving cannot
//! move. `submit` coalesces under the scheduler's state lock and a
//! sampled method runs no Full reference, so three distinct specs cost
//! exactly three simulations however the twelve submissions race.

#![cfg(unix)]

use gpu_sim::GpuConfig;
use gpu_telemetry::faults::{FaultPlan, FaultSite};
use gpu_telemetry::MetricsSnapshot;
use gpu_workloads::registry::Benchmark;
use photon::Levels;
use photon_bench::{flightrec, journal_key, Method, RunSpec};
use photon_serve::client::{response_job, response_ok, Client};
use serde::Deserialize;
use serde_json::Value;
use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};

const CLIENTS: usize = 4;
const JOBS_PER_CLIENT: usize = 3;

/// The chaos server's fault plan, pinned: decisions are a pure hash of
/// seed and spec, and at this seed the first attempt of the Photon and
/// Full specs panics while their first retry succeeds.
const FAULTS: &str = "exec.panic:0.3:1207";

/// FIR under Photon, Full and PKA, at the sizes the other serve tests use.
fn mix() -> [RunSpec; 3] {
    let gpu = GpuConfig::tiny();
    [
        RunSpec::bench(
            gpu.clone(),
            Benchmark::Fir,
            256,
            Method::Photon(Levels::all()),
        ),
        RunSpec::bench(gpu.clone(), Benchmark::Fir, 256, Method::Full),
        RunSpec::bench(gpu, Benchmark::Fir, 512, Method::Pka),
    ]
}

/// A `photon-serve` child process and its state directory.
struct Served {
    child: Child,
    /// Held open: the server's stdout must outlive its first line.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    dir: PathBuf,
}

impl Served {
    fn start(name: &str, extra: &[&str]) -> Served {
        let dir =
            std::env::temp_dir().join(format!("photon_serve_gate_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut child = Command::new(env!("CARGO_BIN_EXE_photon-serve"))
            .args(["--port", "0", "--workers", "2", "--no-cache", "--pending"])
            .arg(dir.join("pending.jsonl"))
            .arg("--flightrec")
            .arg(dir.join("flightrec"))
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn photon-serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("stdout line");
        let addr = line
            .trim()
            .strip_prefix("photon-serve listening on ")
            .unwrap_or_else(|| panic!("no listening line: {line:?}"))
            .to_string();
        Served {
            child,
            _stdout: stdout,
            addr,
            dir,
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr).expect("connect")
    }

    /// Sends SIGTERM, waits for the exit and returns stderr.
    fn stop(&mut self) -> String {
        let pid = self.child.id().to_string();
        let killed = Command::new("kill").args(["-TERM", &pid]).status();
        assert!(killed.expect("kill").success());
        let mut stderr = String::new();
        let mut pipe = self.child.stderr.take().expect("stderr");
        pipe.read_to_string(&mut stderr).expect("read stderr");
        let status = self.child.wait().expect("wait");
        assert!(status.success(), "{status}: {stderr}");
        stderr
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One closed-loop pass: every client submits the mix's specs in turn,
/// waits for each and fetches it. Returns `(submit, wait, fetch)`
/// responses for all `CLIENTS * JOBS_PER_CLIENT` submissions.
fn drive(addr: &str) -> Vec<[Value; 3]> {
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|ci| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    let tenant = format!("client-{ci}");
                    let specs = mix();
                    let jobs = specs.iter().cycle().take(JOBS_PER_CLIENT);
                    jobs.map(|spec| {
                        let sub = c.submit(spec, &tenant).expect("submit");
                        assert!(response_ok(&sub), "submit refused: {sub:?}");
                        let job = response_job(&sub).expect("job id");
                        let fin = c.wait(&job).expect("wait");
                        let fetched = c.fetch(&job).expect("fetch");
                        [sub, fin, fetched]
                    })
                    .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<_> = clients
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        assert_eq!(all.len(), CLIENTS * JOBS_PER_CLIENT);
        all
    })
}

fn counter(c: &mut Client, name: &str) -> u64 {
    let stats = c.stats().expect("stats");
    let metrics = stats.get("metrics").expect("stats carries metrics");
    let snap = MetricsSnapshot::deserialize(metrics).expect("metrics snapshot");
    snap.counter(name).unwrap_or(0)
}

fn field<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, name| v.get(name))
}

#[test]
fn duplicate_heavy_mix_simulates_each_spec_once_and_warm_adds_none() {
    let mut srv = Served::start("mix", &[]);
    let distinct = mix().len() as u64;
    let completed = |run: &[Value; 3]| {
        let [_, _, fetched] = run;
        response_ok(fetched) && field(fetched, &["report", "completed"]) == Some(&Value::Bool(true))
    };

    let cold = drive(&srv.addr);
    assert!(cold.iter().all(completed), "a cold fetch failed: {cold:?}");
    let mut c = srv.client();
    assert_eq!(counter(&mut c, "serve.sim_runs"), distinct);
    let shared = counter(&mut c, "serve.coalesced") + counter(&mut c, "serve.cache_hits");
    assert_eq!(shared, cold.len() as u64 - distinct);

    let warm = drive(&srv.addr);
    assert!(warm.iter().all(completed), "a warm fetch failed: {warm:?}");
    for [sub, ..] in &warm {
        assert_eq!(sub.get("cached"), Some(&Value::Bool(true)), "{sub:?}");
    }
    assert_eq!(counter(&mut c, "serve.sim_runs"), distinct);
    // Every job was waited for, so both lanes are empty and no worker runs.
    let stats = c.stats().expect("stats");
    assert_eq!(
        (field(&stats, &["queued"]), field(&stats, &["running"])),
        (
            Some(&serde_json::json!({ "interactive": 0u64, "batch": 0u64 })),
            Some(&Value::U64(0))
        )
    );
    drop(c);

    let stderr = srv.stop();
    assert!(stderr.contains("photon-serve: clean exit"), "{stderr}");
    assert!(!srv.dir.join("pending.jsonl").exists());
}

#[test]
fn fault_seeded_server_answers_every_submission_and_records_the_fault() {
    let plan = FaultPlan::parse(FAULTS).expect("fault spec");
    let fires = |spec: &RunSpec| plan.would_inject(FaultSite::ExecPanic, journal_key(spec));
    assert!(mix().iter().any(fires), "{FAULTS} injects nothing");
    let mut srv = Served::start("faults", &["--faults", FAULTS]);

    for [_, fin, _] in drive(&srv.addr) {
        assert_eq!(fin.get("state"), Some(&Value::String("done".into())));
    }
    let stats = srv.client().stats().expect("stats");
    let injected = field(&stats, &["faults_injected", "exec.panic"]);
    assert!(
        matches!(injected, Some(Value::U64(n)) if *n > 0),
        "no exec.panic injected: {stats:?}"
    );

    let stderr = srv.stop();
    assert!(stderr.contains("photon-serve: clean exit"), "{stderr}");
    let dumps = std::fs::read_dir(srv.dir.join("flightrec"));
    let records: Vec<_> = (dumps.into_iter().flatten())
        .map(|e| flightrec::load(&e.expect("dir entry").path()).expect("flight record loads"))
        .collect();
    assert!(
        records
            .iter()
            .flat_map(|rec| &rec.spans)
            .any(|s| !s.ok && s.detail.contains("exec.panic")),
        "no flight record names exec.panic: {stderr}"
    );
}
