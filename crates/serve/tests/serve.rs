//! End-to-end tests for photon-serve: a real server on an ephemeral
//! port, driven over TCP by the library client — submit/wait/fetch,
//! single-flight coalescing, cancellation, admission control, lane
//! priority, and drain/resume.

use gpu_telemetry::span::job_hex;
use photon_bench::journal::{self, Journal};
use photon_bench::{journal_key, ExecOptions, Method, RunSpec};
use photon_serve::client::{response_job, response_ok, Client};
use photon_serve::scheduler::Phase;
use photon_serve::server::ShutdownHandle;
use photon_serve::{ServeOptions, Server};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gpu_sim::GpuConfig;
use gpu_workloads::registry::Benchmark;

/// A server running in-process: acceptor + workers on threads, stopped
/// via the shutdown handle.
struct TestServer {
    addr: String,
    server: Arc<Server>,
    handle: ShutdownHandle,
    acceptor: Option<JoinHandle<usize>>,
    workers: Vec<JoinHandle<()>>,
}

impl TestServer {
    /// A server with no reference-cache directory.
    fn start(workers: usize, queue_capacity: usize, pending: Option<PathBuf>) -> TestServer {
        let exec = ExecOptions {
            cache: false,
            journal: None,
            ..ExecOptions::default()
        };
        TestServer::start_with(workers, queue_capacity, pending, exec)
    }

    fn start_with(
        workers: usize,
        queue_capacity: usize,
        pending: Option<PathBuf>,
        exec: ExecOptions,
    ) -> TestServer {
        let opts = ServeOptions {
            workers,
            queue_capacity,
            exec,
            ..ServeOptions::default()
        };
        let server = Arc::new(Server::bind("127.0.0.1:0", opts, pending).expect("bind"));
        let addr = server.local_addr().expect("local addr").to_string();
        let handle = server.shutdown_handle();
        let workers = server.spawn_workers();
        let srv = Arc::clone(&server);
        let acceptor = std::thread::spawn(move || srv.run().expect("acceptor"));
        TestServer {
            addr,
            server,
            handle,
            acceptor: Some(acceptor),
            workers,
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr).expect("connect")
    }

    fn counter(&self, name: &str) -> u64 {
        self.server.scheduler().telemetry().counter(name).get()
    }

    /// Drains and joins everything; returns the number of jobs
    /// journaled to the pending file.
    fn stop(mut self) -> usize {
        self.handle.shutdown();
        let drained = self
            .acceptor
            .take()
            .expect("acceptor")
            .join()
            .expect("join");
        for w in self.workers.drain(..) {
            w.join().expect("worker join");
        }
        drained
    }
}

fn fir(warps: u64, method: Method) -> RunSpec {
    RunSpec::bench(GpuConfig::tiny(), Benchmark::Fir, warps, method)
}

/// Rewrites the serial engine mode in a serialized spec (or anything
/// embedding one) to a variant `EngineMode` does not have — otherwise
/// well-formed, so only the serde boundary can refuse it.
fn with_unknown_engine_mode(json: &str) -> String {
    let relaxed = json.replace("\"mode\":\"Serial\"", "\"mode\":\"Relaxed\"");
    assert_ne!(json, relaxed, "the JSON carries the engine mode");
    relaxed
}

fn state_of(client: &mut Client, job: &str) -> String {
    let v = client.trace(job).expect("trace");
    match v.get("state") {
        Some(Value::String(s)) => s.clone(),
        _ => String::new(),
    }
}

/// A `trace` response's `progress` counters, in the order it lists them.
fn progress_of(trace: &Value) -> Vec<(String, u64)> {
    match trace.get("progress") {
        Some(Value::Object(fields)) => fields
            .iter()
            .map(|(k, v)| match v {
                Value::U64(n) => (k.clone(), *n),
                other => panic!("counter {k} is {other:?}"),
            })
            .collect(),
        other => panic!("no progress object: {other:?}"),
    }
}

/// Polls until `job` reports `want`, for up to ~5 s.
fn await_state(client: &mut Client, job: &str, want: &str) {
    for _ in 0..500 {
        if state_of(client, job) == want {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("job {job} never reached state {want:?}");
}

#[test]
fn submit_wait_fetch_round_trip() {
    let srv = TestServer::start(1, 16, None);
    let mut c = srv.client();

    let sub = c.submit(&fir(256, Method::Pka), "t0").expect("submit");
    assert!(response_ok(&sub), "submit failed: {sub:?}");
    let job = response_job(&sub).expect("job id");

    let fin = c.wait(&job).expect("wait");
    assert!(response_ok(&fin), "wait failed: {fin:?}");
    let fetched = c.fetch(&job).expect("fetch");
    assert!(response_ok(&fetched), "fetch failed: {fetched:?}");
    assert!(
        matches!(
            fetched.get("report").and_then(|r| r.get("completed")),
            Some(Value::Bool(true))
        ),
        "report not completed: {fetched:?}"
    );
    // A tenant is a label, not a counter: resubmissions under new
    // tenants leave the registry's set of names as it was.
    let names = || srv.server.scheduler().telemetry().snapshot().counters.len();
    let mut seen = Vec::new();
    for tenant in ["t1", "t2", "t3"] {
        let sub = c.submit(&fir(256, Method::Pka), tenant).expect("resubmit");
        assert!(response_ok(&sub), "resubmit failed: {sub:?}");
        seen.push(names());
    }
    assert!(seen.windows(2).all(|w| w[0] == w[1]), "{seen:?}");

    // Protocol errors surface as coded responses, not hangups.
    let missing = c.fetch("00000000000000ff").expect("fetch missing");
    assert!(!response_ok(&missing));
    assert_eq!(missing.get("code"), Some(&Value::U64(404)));
    // `stats` is the one view of the server and `trace` the one view
    // of a job: there is no `metrics` op and no `status` op.
    for op in ["frobnicate", "metrics", "status"] {
        let bad = c
            .request(&json!({ "op": op, "job": job }))
            .expect("bad request");
        assert_eq!(bad.get("code"), Some(&Value::U64(400)), "{op}: {bad:?}");
    }
    // A tenant outside the label charset is refused before a job exists.
    let submitted = srv.counter("serve.submitted");
    let spec = serde_json::to_value(&fir(64, Method::Full));
    let bad = c
        .request(&json!({ "op": "submit", "spec": spec, "tenant": "a.b" }))
        .expect("bad tenant");
    assert_eq!(bad.get("code"), Some(&Value::U64(400)), "{bad:?}");
    assert_eq!(srv.counter("serve.submitted"), submitted);
    // An unknown engine mode is a bad spec, refused before a job exists.
    let submitted = srv.counter("serve.submitted");
    let spec = serde_json::to_string(&fir(64, Method::Full)).expect("serialize");
    let spec: Value = serde_json::from_str(&with_unknown_engine_mode(&spec)).expect("json");
    let bad = c
        .request(&json!({ "op": "submit", "spec": spec }))
        .expect("relaxed submit");
    assert_eq!(bad.get("code"), Some(&Value::U64(400)));
    match bad.get("error") {
        Some(Value::String(e)) => assert!(e.starts_with("submit: bad spec"), "error: {e}"),
        other => panic!("no error string: {other:?}"),
    }
    assert_eq!(srv.counter("serve.submitted"), submitted);

    assert!(srv.counter("serve.completed") >= 1);
    srv.stop();
}

#[test]
fn wait_answers_with_a_status_and_fetch_with_the_body() {
    use gpu_workloads::registry::RealWorldApp;
    use photon_bench::Measurement;
    use serde::Deserialize;
    use std::io::{BufRead, BufReader, Write};

    let srv = TestServer::start(1, 16, None);
    // Twenty kernels under Full: accounting, a stall timeline and
    // per-block rows make the report tens of kilobytes.
    let spec = RunSpec::real_world(
        GpuConfig::tiny(),
        RealWorldApp::PageRank(256),
        Default::default(),
        Method::Full,
    );
    let mut c = srv.client();
    let job = response_job(&c.submit(&spec, "t0").expect("submit")).expect("job id");

    // The one `wait` line, as it crosses the wire: the next line on
    // the connection already answers the next request.
    let mut stream = std::net::TcpStream::connect(&srv.addr).expect("connect");
    stream
        .write_all(format!("{{\"op\":\"wait\",\"job\":\"{job}\"}}\n").as_bytes())
        .expect("wait request");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut fin = String::new();
    assert!(reader.read_line(&mut fin).expect("wait line") > 0);
    stream
        .write_all(format!("{{\"op\":\"trace\",\"job\":\"{job}\"}}\n").as_bytes())
        .expect("trace request");
    let mut next = String::new();
    assert!(reader.read_line(&mut next).expect("trace line") > 0);
    let next: Value = serde_json::from_str(next.trim()).expect("json");
    assert!(
        next.get("spans").is_some(),
        "not the trace answer: {next:?}"
    );
    assert!(fin.len() < 512, "wait shipped {} bytes: {fin}", fin.len());
    let keys = |v: &Value| -> Vec<String> {
        match v {
            Value::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    };
    let status: Value = serde_json::from_str(fin.trim()).expect("json");
    assert_eq!(keys(&status), ["ok", "job", "state", "origin", "wall_secs"]);
    assert_eq!(status.get("state"), Some(&Value::String("done".into())));
    assert_eq!(
        status.get("origin"),
        Some(&Value::String("executed".into()))
    );

    // The body comes from `fetch`, laid out as it always was.
    let fetched = c.fetch(&job).expect("fetch");
    assert_eq!(
        keys(&fetched),
        ["ok", "job", "origin", "wall_secs", "report", "metrics"]
    );
    let m = fetched.get("report").and_then(|r| r.get("measurement"));
    let m = Measurement::deserialize(m.expect("a measurement")).expect("deserializes");
    assert_eq!(m.kernel_cycles.len(), 20);
    assert!(serde_json::to_string(&fetched).unwrap().len() > 10 * fin.len());
    srv.stop();
}

/// `trace` on a finished job: no phase open, nothing failed, and each
/// phase's count and total are its spans' count and summed duration,
/// in lifecycle order.
#[test]
fn trace_of_a_finished_job_rolls_its_spans_up_by_phase() {
    use gpu_telemetry::span::{PhaseDuration, SpanKind, SpanRecord};
    use serde::Deserialize;

    let srv = TestServer::start(1, 8, None);
    let mut c = srv.client();
    let sub = c.submit(&fir(96, Method::Pka), "t0").expect("submit");
    let job = response_job(&sub).expect("job id");
    let fin = c.wait(&job).expect("wait");
    assert_eq!(fin.get("state"), Some(&Value::String("done".into())));
    // The root span closes before the job leaves the live map, so the
    // trail is final as soon as `wait` answers.
    let trace = c.trace(&job).expect("trace");
    assert!(response_ok(&trace), "{trace:?}");
    assert_eq!(trace.get("job"), Some(&Value::String(job.clone())));
    assert_eq!(trace.get("state"), Some(&Value::String("done".into())));
    assert_eq!(trace.get("phase"), Some(&Value::Null), "{trace:?}");
    assert_eq!(trace.get("failed"), Some(&Value::Array(Vec::new())));

    let spans = Vec::<SpanRecord>::deserialize(trace.get("spans").expect("spans")).expect("spans");
    let phases =
        Vec::<PhaseDuration>::deserialize(trace.get("phases").expect("phases")).expect("phases");
    assert!(spans.iter().all(|s| s.ok && !s.open), "{spans:?}");
    let want: Vec<(String, u64, u64)> = SpanKind::ALL
        .iter()
        .map(|kind| {
            let of_kind = spans.iter().filter(|s| s.kind == *kind);
            let total = of_kind.clone().map(|s| s.dur_us).sum();
            (kind.name().to_string(), of_kind.count() as u64, total)
        })
        .filter(|(_, count, _)| *count > 0)
        .collect();
    let got: Vec<(String, u64, u64)> = phases
        .iter()
        .map(|p| (p.phase.clone(), p.count, p.total_us))
        .collect();
    assert_eq!(got, want);
    let count = |name: &str| phases.iter().find(|p| p.phase == name).map(|p| p.count);
    assert_eq!(
        (count("job"), count("queued"), count("sim")),
        (Some(1), Some(1), Some(1))
    );
    assert_eq!(
        spans.len() as u64,
        phases.iter().map(|p| p.count).sum::<u64>()
    );
    srv.stop();
}

/// `stats` shows a job no worker has taken yet at phase `queued`, and
/// counts it in its lane.
#[test]
fn stats_shows_a_queued_job_at_phase_queued() {
    use photon_serve::Scheduler;

    let sched = Scheduler::new(ServeOptions {
        queue_capacity: 8,
        exec: ExecOptions {
            cache: false,
            journal: None,
            ..ExecOptions::default()
        },
        ..ServeOptions::default()
    });
    let spec = fir(4096, Method::Full);
    let id = journal_key(&spec);
    sched.submit(spec, "t0");
    let stats = sched.stats();
    let Some(Value::Array(jobs)) = stats.get("jobs") else {
        panic!("no jobs list: {stats:?}");
    };
    assert_eq!(jobs.len(), 1, "{jobs:?}");
    assert_eq!(jobs[0].get("job"), Some(&Value::String(job_hex(id))));
    assert_eq!(jobs[0].get("state"), Some(&Value::String("queued".into())));
    assert_eq!(jobs[0].get("phase"), Some(&Value::String("queued".into())));
    assert_eq!(
        (stats.get("queued"), stats.get("running")),
        (
            Some(&json!({ "interactive": 0u64, "batch": 1u64 })),
            Some(&json!(0u64))
        )
    );
    assert_eq!(sched.cancel(id), Some(true));
}

#[test]
fn identical_concurrent_submissions_run_one_simulation() {
    const CLIENTS: usize = 8;
    let srv = TestServer::start(2, 32, None);
    let spec = fir(512, Method::Full);
    let expected_job = job_hex(journal_key(&spec));

    let barrier = std::sync::Barrier::new(CLIENTS);
    let reports: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (addr, spec, barrier) = (&srv.addr, &spec, &barrier);
                scope.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    barrier.wait();
                    let sub = c.submit(spec, "flood").expect("submit");
                    assert!(response_ok(&sub), "submit failed: {sub:?}");
                    let job = response_job(&sub).expect("job id");
                    let fin = c.wait(&job).expect("wait");
                    assert!(response_ok(&fin), "wait failed: {fin:?}");
                    let fetched = c.fetch(&job).expect("fetch");
                    assert!(response_ok(&fetched), "fetch failed: {fetched:?}");
                    (
                        job,
                        serde_json::to_string(
                            fetched
                                .get("report")
                                .and_then(|r| r.get("measurement"))
                                .expect("measurement"),
                        )
                        .expect("render"),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (job, report) = h.join().expect("client");
                assert_eq!(job, expected_job, "identical specs must share a job id");
                report
            })
            .collect()
    });

    // Exactly one simulation ran; every client got the identical report.
    assert_eq!(srv.counter("serve.sim_runs"), 1);
    assert!(reports.windows(2).all(|w| w[0] == w[1]));
    // N-1 submissions either coalesced onto the live job or hit the
    // result store after it finished.
    assert_eq!(
        srv.counter("serve.coalesced") + srv.counter("serve.cache_hits"),
        (CLIENTS - 1) as u64
    );
    srv.stop();
}

#[test]
fn cancel_removes_queued_job_before_dequeue() {
    let srv = TestServer::start(1, 16, None);
    let mut c = srv.client();

    // Occupy the only worker.
    let blocker = fir(2048, Method::Full);
    let sub = c.submit(&blocker, "t0").expect("submit blocker");
    let blocker_job = response_job(&sub).expect("job id");
    await_state(&mut c, &blocker_job, "running");

    // Queue a victim behind it, then cancel before it can dequeue.
    let victim = fir(512, Method::Full);
    let sub = c.submit(&victim, "t0").expect("submit victim");
    let victim_job = response_job(&sub).expect("job id");
    assert_eq!(sub.get("state"), Some(&Value::String("queued".into())));
    let cancelled = c.cancel(&victim_job).expect("cancel");
    assert!(response_ok(&cancelled));
    assert_eq!(cancelled.get("cancelled"), Some(&Value::Bool(true)));
    assert_eq!(srv.counter("serve.cancelled"), 1);

    // The blocker still finishes; the victim never simulates.
    let fin = c.wait(&blocker_job).expect("wait blocker");
    assert!(response_ok(&fin));
    assert_eq!(srv.counter("serve.sim_runs"), 1);
    assert_eq!(state_of(&mut c, &victim_job), "cancelled");
    srv.stop();
}

#[test]
fn full_queue_rejects_with_retry_hint() {
    let srv = TestServer::start(1, 1, None);
    let mut c = srv.client();

    let sub = c.submit(&fir(2048, Method::Full), "t0").expect("blocker");
    let blocker_job = response_job(&sub).expect("job id");
    await_state(&mut c, &blocker_job, "running");

    // One queued job fills the admission bound...
    let sub = c.submit(&fir(512, Method::Full), "t0").expect("queued");
    assert_eq!(sub.get("state"), Some(&Value::String("queued".into())));
    // ...so a third distinct spec bounces with 429 + a retry hint.
    let rejected = c.submit(&fir(640, Method::Full), "t0").expect("rejected");
    assert!(!response_ok(&rejected));
    assert_eq!(rejected.get("code"), Some(&Value::U64(429)));
    let retry = match rejected.get("retry_after_ms") {
        Some(Value::U64(ms)) => *ms,
        other => panic!("missing retry_after_ms: {other:?}"),
    };
    assert!(retry >= 10, "retry hint too small: {retry}");
    assert_eq!(srv.counter("serve.rejected"), 1);
    srv.stop();
}

#[test]
fn interactive_lane_preempts_queued_batch_work() {
    let srv = TestServer::start(1, 16, None);
    let mut c = srv.client();

    let sub = c.submit(&fir(2048, Method::Full), "t0").expect("blocker");
    let blocker_job = response_job(&sub).expect("job id");
    await_state(&mut c, &blocker_job, "running");

    // Batch first, interactive second: dequeue order must invert.
    let sub = c.submit(&fir(1024, Method::Full), "t0").expect("batch");
    let batch_job = response_job(&sub).expect("job id");
    assert_eq!(sub.get("lane"), Some(&Value::String("batch".into())));
    let sub = c.submit(&fir(512, Method::Pka), "t0").expect("interactive");
    let interactive_job = response_job(&sub).expect("job id");
    assert_eq!(sub.get("lane"), Some(&Value::String("interactive".into())));

    let fin = c.wait(&interactive_job).expect("wait interactive");
    assert!(response_ok(&fin));
    // The moment the interactive job finished, the batch job had not:
    // it was dequeued after (or is only just starting).
    let batch_state = state_of(&mut c, &batch_job);
    assert_ne!(
        batch_state, "done",
        "batch job finished before the interactive one"
    );
    let fin = c.wait(&batch_job).expect("wait batch");
    assert!(response_ok(&fin));
    srv.stop();
}

#[test]
fn fragmented_request_line_survives_read_timeouts() {
    use std::io::{BufRead, BufReader, Write};

    let srv = TestServer::start(1, 16, None);
    let mut stream = std::net::TcpStream::connect(&srv.addr).expect("connect");
    let request = "{\"op\":\"stats\"}\n";
    let (head, tail) = request.split_at(6);
    stream.write_all(head.as_bytes()).expect("head");
    stream.flush().expect("flush");
    // Longer than the server's 200 ms read timeout: the prefix must
    // survive the timed-out read, not be discarded.
    std::thread::sleep(Duration::from_millis(500));
    stream.write_all(tail.as_bytes()).expect("tail");
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("response");
    let v: Value = serde_json::from_str(line.trim()).expect("json");
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "got: {v:?}");
    srv.stop();
}

#[test]
fn finished_jobs_leave_the_live_map_for_the_store() {
    use photon_serve::Scheduler;

    // No workers: submit+cancel walks each distinct spec to a terminal
    // phase without simulating anything.
    let opts = ServeOptions {
        queue_capacity: 8,
        exec: ExecOptions {
            cache: false,
            journal: None,
            ..ExecOptions::default()
        },
        ..ServeOptions::default()
    };
    let sched = Scheduler::new(opts);
    for i in 1..=400u64 {
        let spec = fir(i, Method::Full);
        let id = journal_key(&spec);
        sched.submit(spec, "t0");
        assert_eq!(sched.cancel(id), Some(true));
    }
    // No terminal job stays live; the store holds every one of them.
    let stats = sched.stats();
    assert_eq!(stats.get("jobs"), Some(&Value::Array(Vec::new())));
    let entries = stats
        .get("results_store")
        .and_then(|store| store.get("entries"));
    assert_eq!(entries, Some(&Value::U64(400)));
    let first = journal_key(&fir(1, Method::Full));
    assert_eq!(
        sched.wait_step(first, Duration::ZERO),
        Some(Phase::Cancelled),
        "the first job is still known"
    );
}

#[test]
fn an_executed_job_answers_from_the_store_once_it_leaves_the_live_map() {
    let srv = TestServer::start(1, 16, None);
    let mut c = srv.client();

    let blocker = fir(2048, Method::Full);
    let sub = c.submit(&blocker, "t0").expect("submit blocker");
    let blocker_job = response_job(&sub).expect("job id");
    await_state(&mut c, &blocker_job, "running");

    // A cancelled job has no result and never gets one.
    let sub = c.submit(&fir(512, Method::Full), "t0").expect("victim");
    let victim_job = response_job(&sub).expect("job id");
    assert!(response_ok(&c.cancel(&victim_job).expect("cancel")));
    let fetched = c.fetch(&victim_job).expect("fetch cancelled");
    assert_eq!(fetched.get("code"), Some(&Value::U64(409)));
    assert_eq!(
        fetched.get("error"),
        Some(&Value::String(
            "job was cancelled — resubmit it to run it".into()
        ))
    );

    assert!(response_ok(&c.wait(&blocker_job).expect("wait")));
    let sched = srv.server.scheduler();
    assert_eq!(sched.stats().get("jobs"), Some(&Value::Array(Vec::new())));
    let id = journal_key(&blocker);
    assert_eq!(sched.wait_step(id, Duration::ZERO), Some(Phase::Done));
    // A finished job's progress is its result's final `sim.*` counters.
    let progress = progress_of(&c.trace(&blocker_job).expect("trace"));
    assert!(!progress.is_empty(), "a finished job shows its counters");
    let result = sched.fetch(id).expect("fetch");
    assert_eq!(progress, result.metrics.counters_with_prefix("sim."));
    srv.stop();
}

/// A running job's `trace` carries its live `sim.*` counters, and a
/// second read never shows one lower than the first.
#[test]
fn a_running_jobs_trace_progress_never_decreases() {
    let srv = TestServer::start(1, 8, None);
    let mut c = srv.client();
    let sub = c.submit(&fir(3072, Method::Full), "t0").expect("submit");
    let job = response_job(&sub).expect("job id");
    let first = loop {
        let trace = c.trace(&job).expect("trace");
        let state = trace.get("state").cloned();
        assert_ne!(
            state,
            Some(Value::String("done".into())),
            "never seen running"
        );
        let progress = progress_of(&trace);
        if state == Some(Value::String("running".into())) && !progress.is_empty() {
            break progress;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let second = progress_of(&c.trace(&job).expect("trace"));
    for (name, before) in &first {
        let after = second.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert!(after >= Some(*before), "{name}: {before} then {after:?}");
    }
    assert!(response_ok(&c.wait(&job).expect("wait")));
    srv.stop();
}

/// A `Full` job a previous server finished is answered from the
/// reference cache's directory after a restart, as the same simulated
/// result; a sampled job still simulates.
#[test]
fn a_restarted_server_answers_a_full_job_from_the_cache_directory() {
    use photon::Levels;
    use photon_bench::Measurement;
    use serde::Deserialize;

    let dir = std::env::temp_dir().join(format!("photon_serve_refcache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let exec = ExecOptions {
        cache: true,
        cache_dir: Some(dir.clone()),
        journal: None,
        ..ExecOptions::default()
    };
    let run = |srv: &TestServer, spec: &RunSpec| -> Value {
        let mut c = srv.client();
        let job = response_job(&c.submit(spec, "t0").expect("submit")).expect("job id");
        assert!(response_ok(&c.wait(&job).expect("wait")));
        c.fetch(&job).expect("fetch")
    };
    let origin = |fetched: &Value| fetched.get("origin").cloned();
    let measurement = |fetched: &Value| {
        let m = fetched.get("report").and_then(|r| r.get("measurement"));
        Measurement::deserialize(m.expect("a measurement")).expect("deserializes")
    };
    let full = fir(64, Method::Full);

    let srv = TestServer::start_with(1, 16, None, exec.clone());
    let cold = run(&srv, &full);
    assert_eq!(origin(&cold), Some(Value::String("executed".into())));
    assert_eq!(srv.counter("serve.sim_runs"), 1);
    srv.stop();

    // A restart: the result store is empty, the directory is not.
    let srv = TestServer::start_with(1, 16, None, exec);
    let warm = run(&srv, &full);
    assert_eq!(origin(&warm), Some(Value::String("refcache".into())));
    assert_eq!(srv.counter("serve.sim_runs"), 0);
    assert_eq!(
        measurement(&cold).differences(&measurement(&warm)),
        Vec::<String>::new()
    );
    let sampled = run(&srv, &fir(64, Method::Photon(Levels::all())));
    assert_eq!(origin(&sampled), Some(Value::String("executed".into())));
    assert_eq!(srv.counter("serve.sim_runs"), 1);
    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_journals_queued_jobs_and_restart_resumes_them() {
    let dir = std::env::temp_dir().join(format!("photon_serve_drain_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let pending = dir.join("pending.jsonl");

    let srv = TestServer::start(1, 16, Some(pending.clone()));
    let mut c = srv.client();
    let sub = c.submit(&fir(2048, Method::Full), "t0").expect("blocker");
    let blocker_job = response_job(&sub).expect("job id");
    await_state(&mut c, &blocker_job, "running");

    let q1 = fir(512, Method::Full);
    let q2 = fir(512, Method::Pka);
    assert!(response_ok(&c.submit(&q1, "t0").expect("q1")));
    assert!(response_ok(&c.submit(&q2, "t0").expect("q2")));
    drop(c);

    // Drain: the in-flight blocker finishes, the queued pair is
    // journaled.
    let drained = srv.stop();
    assert_eq!(drained, 2);
    assert!(pending.exists(), "drain must write the pending journal");

    // The pending journal is outside input: a crc-valid line whose spec
    // names an unknown engine mode is skipped and counted, not fatal to
    // the good line beside it.
    let text = std::fs::read_to_string(&pending).expect("pending journal");
    let good = text.lines().next().expect("a drained line");
    let (entries, corrupt) = journal::load::<Value>(&pending);
    assert_eq!((entries.len(), corrupt), (2, 0));
    let bad = with_unknown_engine_mode(&serde_json::to_string(&entries[0]).expect("serialize"));
    let bad: Value = serde_json::from_str(&bad).expect("json");
    let mixed = dir.join("mixed.jsonl");
    std::fs::write(&mixed, format!("{good}\n")).expect("write mixed");
    let appended = Journal::open(&mixed, false).expect("open mixed");
    appended.record(0, &bad).expect("record the bad line");
    let sched = photon_serve::Scheduler::new(ServeOptions {
        exec: ExecOptions {
            cache: false,
            ..ExecOptions::default()
        },
        ..ServeOptions::default()
    });
    assert_eq!(sched.resume_pending_from(&mixed), (1, 1));

    // A fresh server on the same pending path resumes both jobs.
    let srv = TestServer::start(1, 16, Some(pending.clone()));
    assert_eq!(srv.counter("serve.resumed_jobs"), 2);
    assert!(!pending.exists(), "resume must consume the pending journal");
    let mut c = srv.client();
    for spec in [&q1, &q2] {
        let job = job_hex(journal_key(spec));
        let fin = c.wait(&job).expect("wait resumed");
        assert!(response_ok(&fin), "resumed job failed: {fin:?}");
    }
    drop(c);
    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pending_journal_fixture_resumes() {
    // `tests/fixtures/pending.jsonl`: two queued jobs drained by the
    // scheduler of commit efc1183 (crates/bench/tests/fixtures/README.md).
    // Resume consumes the journal, so hand it a copy. Resumed jobs were
    // admitted once: a queue bound below the journal's length drops none.
    let dir = std::env::temp_dir().join(format!("photon_serve_fixture_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let pending = dir.join("pending.jsonl");
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pending.jsonl");
    for queue_capacity in [ServeOptions::default().queue_capacity, 1] {
        std::fs::copy(&fixture, &pending).expect("copy fixture");
        let sched = photon_serve::Scheduler::new(ServeOptions {
            queue_capacity,
            exec: ExecOptions {
                cache: false,
                ..ExecOptions::default()
            },
            ..ServeOptions::default()
        });
        assert_eq!(sched.resume_pending_from(&pending), (2, 0));
        for method in [Method::Full, Method::Pka] {
            let phase = sched.wait_step(journal_key(&fir(64, method)), Duration::ZERO);
            assert_eq!(phase, Some(Phase::Queued), "queue {queue_capacity}");
        }
        assert!(!pending.exists(), "resume must consume the journal");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
