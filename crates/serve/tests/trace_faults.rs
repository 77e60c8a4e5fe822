//! End-to-end trace + flight-recorder tests under fault injection.
//!
//! Live in their own integration-test binary: the fault plan is
//! process-global, and an `exec.panic` plan armed here would leak into
//! the regular serve tests if they shared a process. For the same
//! reason the tests here take [`faults_lock`] and run one at a time.

use gpu_telemetry::faults::{self, FaultPlan};
use gpu_telemetry::span::{self, job_hex, PhaseDuration, SpanRecord};
use gpu_telemetry::MetricsSnapshot;
use photon_bench::flightrec;
use photon_bench::{journal_key, ExecOptions, Method, RunSpec};
use photon_serve::client::{response_job, response_ok, Client};
use photon_serve::scheduler::Phase;
use photon_serve::{Scheduler, ServeOptions, Server};
use serde::Deserialize;
use serde_json::Value;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use gpu_sim::GpuConfig;
use gpu_workloads::registry::Benchmark;

/// Serialises the tests that arm the process-wide fault plan.
fn faults_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn as_str<'a>(v: &'a Value, name: &str) -> Option<&'a str> {
    match v.get(name) {
        Some(Value::String(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// A job submitted under a 100% `exec.panic` plan fails; its `trace`
/// op then lists a failing `sim` span that names the injected fault
/// site, and the on-disk flight record carries the same evidence
/// (checksummed, loadable, `job-failed` trigger).
#[test]
fn faulted_job_trace_names_the_fault_site_and_flight_record_matches() {
    let _faults = faults_lock();
    let dir = std::env::temp_dir().join(format!("photon_trace_faults_{}", std::process::id()));
    let flightrec_dir = dir.join("flightrec");
    std::fs::create_dir_all(&dir).expect("mkdir");

    faults::install(Some(
        FaultPlan::parse("exec.panic:1.0:7").expect("valid fault spec"),
    ));

    let opts = ServeOptions {
        workers: 1,
        queue_capacity: 8,
        exec: ExecOptions {
            cache: false,
            journal: None,
            retries: 0,
            ..ExecOptions::default()
        },
        flightrec: Some(flightrec_dir.clone()),
    };
    let server = Arc::new(Server::bind("127.0.0.1:0", opts, None).expect("bind"));
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.shutdown_handle();
    let workers = server.spawn_workers();
    let srv = Arc::clone(&server);
    let acceptor = std::thread::spawn(move || srv.run().expect("acceptor"));

    let spec = RunSpec::bench(GpuConfig::tiny(), Benchmark::Fir, 256, Method::Pka);
    let expected_job = job_hex(journal_key(&spec));
    let mut c = Client::connect(&addr).expect("connect");
    let sub = c.submit(&spec, "chaos").expect("submit");
    assert!(response_ok(&sub), "submit failed: {sub:?}");
    let job = response_job(&sub).expect("job id");
    assert_eq!(job, expected_job);

    // The job reaches Done with a failed outcome (no retries, 100%
    // panic rate). Its trail is final and its record cut before `wait`
    // answers.
    let fin = c.wait(&job).expect("wait");
    assert!(response_ok(&fin), "wait failed: {fin:?}");
    assert_eq!(as_str(&fin, "state"), Some("done"), "{fin:?}");
    let trace = c.trace(&job).expect("trace");
    assert_eq!(trace.get("phase"), Some(&Value::Null), "{trace:?}");
    // `stats` counts the failure and the dump.
    let stats = c.stats().expect("stats");
    let metrics = MetricsSnapshot::deserialize(stats.get("metrics").expect("metrics"))
        .expect("metrics snapshot");
    assert_eq!(metrics.counter("serve.failed"), Some(1), "{metrics:?}");
    assert_eq!(metrics.counter("serve.flightrec_dumps"), Some(1));
    let fetched = c.fetch(&job).expect("fetch");
    assert!(
        matches!(
            fetched.get("report").and_then(|r| r.get("completed")),
            Some(Value::Bool(false))
        ),
        "job must fail under exec.panic: {fetched:?}"
    );

    // `trace` lists the failing sim span, which names the injected
    // fault site.
    let trace = c.trace(&job).expect("trace");
    assert!(response_ok(&trace), "trace failed: {trace:?}");
    assert_eq!(as_str(&trace, "job"), Some(job.as_str()));
    let failed = match trace.get("failed") {
        Some(Value::Array(f)) => f.clone(),
        other => panic!("trace has no failed list: {other:?}"),
    };
    assert!(
        failed.iter().any(|f| {
            as_str(f, "kind") == Some("sim")
                && as_str(f, "detail").is_some_and(|d| d.contains("exec.panic"))
        }),
        "no failing sim span naming exec.panic: {failed:?}"
    );
    let spans = match trace.get("spans") {
        Some(Value::Array(s)) => s.len(),
        other => panic!("trace has no spans: {other:?}"),
    };
    assert!(spans >= 3, "expected job+queued+sim spans, got {spans}");

    // The flight recorder dumped the same job: the record loads clean
    // (checksum verified) and its failed spans carry the fault site.
    let dump_path = flightrec::record_path(&flightrec_dir, &job);
    let rec = flightrec::load(&dump_path).expect("flight record must load");
    assert_eq!(rec.job, job);
    assert_eq!(rec.trigger, "job-failed");
    assert!(
        rec.spans
            .iter()
            .any(|s| !s.ok && s.detail.contains("exec.panic")),
        "flight record must name the fault site"
    );

    // The final trace: the root and the sim attempt failed, and each
    // phase rolls up its spans.
    let trace = c.trace(&job).expect("trace");
    assert_eq!(as_str(&trace, "state"), Some("done"));
    let spans = Vec::<SpanRecord>::deserialize(trace.get("spans").expect("spans")).expect("spans");
    let phases =
        Vec::<PhaseDuration>::deserialize(trace.get("phases").expect("phases")).expect("phases");
    let failed_kinds: Vec<&str> = match trace.get("failed") {
        Some(Value::Array(f)) => f.iter().filter_map(|f| as_str(f, "kind")).collect(),
        other => panic!("trace has no failed list: {other:?}"),
    };
    assert_eq!(failed_kinds, ["job", "sim"], "{trace:?}");
    let failed_spans: Vec<&str> = spans
        .iter()
        .filter(|s| !s.ok)
        .map(|s| s.kind.name())
        .collect();
    assert_eq!(failed_spans, failed_kinds);
    for p in &phases {
        let of_kind = spans.iter().filter(|s| s.kind.name() == p.phase);
        let total: u64 = of_kind.clone().map(|s| s.dur_us).sum();
        assert_eq!(
            (p.count, p.total_us),
            (of_kind.count() as u64, total),
            "{p:?}"
        );
    }
    let names: Vec<&str> = phases.iter().map(|p| p.phase.as_str()).collect();
    assert_eq!(names, ["job", "queued", "sim"], "{phases:?}");
    assert_eq!(spans.len(), 3, "{spans:?}");

    // A transient failure is never stored, so resubmitting the spec
    // queues a new simulation instead of answering from the failed job.
    let again = c.submit(&spec, "chaos").expect("resubmit");
    assert!(response_ok(&again), "resubmit failed: {again:?}");
    assert_eq!(as_str(&again, "state"), Some("queued"), "{again:?}");

    drop(c);
    handle.shutdown();
    acceptor.join().expect("acceptor join");
    for w in workers {
        w.join().expect("worker join");
    }
    faults::install(None);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spec resubmitted after a transient failure reuses its job id. The
/// re-run starts a fresh trail: its success is not charged with the
/// failed run's spans, so it cuts no `span-failed` record over the
/// failed run's `job-failed` one.
#[test]
fn a_rerun_of_a_failed_job_starts_a_fresh_trail() {
    let _faults = faults_lock();
    let dir = std::env::temp_dir().join(format!("photon_trace_rerun_{}", std::process::id()));
    let flightrec_dir = dir.join("flightrec");
    let sched = Arc::new(Scheduler::new(ServeOptions {
        workers: 1,
        queue_capacity: 8,
        exec: ExecOptions {
            cache: false,
            journal: None,
            retries: 0,
            ..ExecOptions::default()
        },
        flightrec: Some(flightrec_dir.clone()),
    }));
    let worker = {
        let sched = Arc::clone(&sched);
        std::thread::spawn(move || sched.worker_loop())
    };
    let dumps = || sched.telemetry().counter("serve.flightrec_dumps").get();
    let spec = RunSpec::bench(GpuConfig::tiny(), Benchmark::Fir, 64, Method::Pka);
    let id = journal_key(&spec);
    let run = || {
        sched.submit(spec.clone(), "t0");
        while !sched
            .wait_step(id, Duration::from_millis(50))
            .is_some_and(Phase::terminal)
        {}
        sched.fetch(id).expect("a finished job has a result")
    };

    faults::install(Some(
        FaultPlan::parse("exec.panic:1.0:1").expect("fault spec"),
    ));
    let first = run();
    faults::install(None);
    assert!(first.outcome.measurement().is_none(), "the first run fails");
    // The failed run's trail closed and its record was cut before the
    // job left the live map.
    assert_eq!(dumps(), 1);
    let trace = sched.trace(id).expect("trace");
    assert_eq!(trace.get("phase"), Some(&Value::Null), "{trace:?}");
    let second = run();
    assert!(
        second.outcome.measurement().is_some(),
        "the re-run completes"
    );
    // The worker finishes the re-run's trail before it sees the drain.
    sched.begin_drain();
    worker.join().expect("worker");

    let records: Vec<_> = std::fs::read_dir(&flightrec_dir)
        .expect("flight-record directory")
        .map(|e| flightrec::load(&e.expect("dir entry").path()).expect("flight record loads"))
        .collect();
    let triggers: Vec<&str> = records.iter().map(|r| r.trigger.as_str()).collect();
    assert_eq!(triggers, ["job-failed"]);
    assert!(records[0]
        .spans
        .iter()
        .any(|s| s.detail.contains("exec.panic")));
    let trace = sched.trace(id).expect("trace");
    assert_eq!(
        trace.get("failed"),
        Some(&Value::Array(Vec::new())),
        "{trace:?}"
    );
    assert_eq!(dumps(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The p99 flight-record trigger: once 20 latencies are in, a job
/// slower than their p99 cuts a `p99-latency` record, and the 20 jobs
/// before it cut none.
#[test]
fn a_job_past_the_live_p99_cuts_one_latency_record() {
    let _faults = faults_lock();
    let dir = std::env::temp_dir().join(format!("photon_trace_p99_{}", std::process::id()));
    let flightrec_dir = dir.join("flightrec");
    let sched = Arc::new(Scheduler::new(ServeOptions {
        workers: 1,
        queue_capacity: 8,
        exec: ExecOptions {
            cache: false,
            journal: None,
            ..ExecOptions::default()
        },
        flightrec: Some(flightrec_dir.clone()),
    }));
    let worker = {
        let sched = Arc::clone(&sched);
        std::thread::spawn(move || sched.worker_loop())
    };
    let run = |spec: RunSpec| {
        let id = journal_key(&spec);
        sched.submit(spec, "t0");
        while !sched
            .wait_step(id, Duration::from_millis(50))
            .is_some_and(Phase::terminal)
        {}
        let result = sched.fetch(id).expect("a finished job has a result");
        assert!(
            result.outcome.measurement().is_some(),
            "job {id:016x} failed"
        );
        id
    };
    // Seeds no other test here uses: span trails are process-wide.
    for seed in 100..120 {
        let mut small = RunSpec::bench(GpuConfig::tiny(), Benchmark::Fir, 64, Method::Pka);
        small.seed = seed;
        run(small);
    }
    let large = run(RunSpec::bench(
        GpuConfig::tiny(),
        Benchmark::Fir,
        4096,
        Method::Full,
    ));
    sched.begin_drain();
    worker.join().expect("worker");

    let records: Vec<_> = std::fs::read_dir(&flightrec_dir)
        .expect("flight-record directory")
        .map(|e| flightrec::load(&e.expect("dir entry").path()).expect("flight record loads"))
        .collect();
    let cut: Vec<(&str, &str)> = records
        .iter()
        .map(|r| (r.job.as_str(), r.trigger.as_str()))
        .collect();
    assert_eq!(cut, [(job_hex(large).as_str(), "p99-latency")]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The pending journal shares the run journal's `journal.torn` fault
/// site: a drain whose every line lands torn resumes nothing, counts
/// both lines corrupt, and does not keep the next server from starting.
#[test]
fn a_drain_torn_line_by_line_resumes_nothing_and_the_server_still_starts() {
    let _faults = faults_lock();
    let dir = std::env::temp_dir().join(format!("photon_trace_torn_{}", std::process::id()));
    let pending = dir.join("pending.jsonl");
    let opts = || ServeOptions {
        exec: ExecOptions {
            cache: false,
            journal: None,
            ..ExecOptions::default()
        },
        ..ServeOptions::default()
    };
    // No workers: both jobs stay queued until the drain. (A size no
    // other test here submits: span trails are process-wide.)
    let sched = Scheduler::new(opts());
    for method in [Method::Full, Method::Pka] {
        sched.submit(
            RunSpec::bench(GpuConfig::tiny(), Benchmark::Fir, 128, method),
            "t0",
        );
    }
    faults::install(Some(
        FaultPlan::parse("journal.torn:1.0:3").expect("fault spec"),
    ));
    let drained = sched.drain_pending_to(&pending);
    faults::install(None);
    assert_eq!(drained.expect("drain"), 2);
    let copy = dir.join("pending-copy.jsonl");
    std::fs::copy(&pending, &copy).expect("copy the pending journal");

    let resumed = Scheduler::new(opts()).resume_pending_from(&pending);
    assert_eq!(resumed, (0, 2));
    assert!(!pending.exists(), "resume consumes even a torn journal");
    let server = Server::bind("127.0.0.1:0", opts(), Some(copy.clone())).expect("bind");
    let queued = server.scheduler().stats().get("queued").cloned();
    assert_eq!(
        queued,
        Some(serde_json::json!({"interactive": 0u64, "batch": 0u64}))
    );
    assert!(!copy.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job that leaves without running closes its trail: drained by a
/// scheduler with no workers, resumed into a second one in the same
/// process and run there, its `trace` shows no open phase and exactly
/// one `job` span. (Before, the drained `job` and `queued` spans stayed
/// open and the resumed run reported phase `queued` once done.) Since
/// a drain, a cancel and a dropped scheduler all close their jobs'
/// trails, serve tests may share specs again; this one runs the spec of
/// `a_rerun_of_a_failed_job_starts_a_fresh_trail` on purpose.
#[test]
fn a_drained_job_resumed_in_the_same_process_has_one_trail() {
    let _faults = faults_lock();
    let dir = std::env::temp_dir().join(format!("photon_trace_drained_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let pending = dir.join("pending.jsonl");
    let opts = || ServeOptions {
        workers: 1,
        exec: ExecOptions {
            cache: false,
            journal: None,
            ..ExecOptions::default()
        },
        ..ServeOptions::default()
    };
    let spec = RunSpec::bench(GpuConfig::tiny(), Benchmark::Fir, 64, Method::Pka);
    let id = journal_key(&spec);
    let drained = Scheduler::new(opts());
    drained.submit(spec.clone(), "t0");
    assert_eq!(drained.drain_pending_to(&pending).expect("drain"), 1);

    let sched = Arc::new(Scheduler::new(opts()));
    assert_eq!(sched.resume_pending_from(&pending), (1, 0));
    let worker = {
        let sched = Arc::clone(&sched);
        std::thread::spawn(move || sched.worker_loop())
    };
    while !sched
        .wait_step(id, Duration::from_millis(50))
        .is_some_and(Phase::terminal)
    {}
    sched.begin_drain();
    worker.join().expect("worker");
    let trace = sched.trace(id).expect("trace");
    assert_eq!(trace.get("phase"), Some(&Value::Null), "{trace:?}");
    let phases =
        Vec::<PhaseDuration>::deserialize(trace.get("phases").expect("phases")).expect("phases");
    let roots = phases.iter().find(|p| p.phase == "job").map(|p| p.count);
    assert_eq!(roots, Some(1), "{phases:?}");
    drop(drained);

    // A scheduler dropped with the job still queued closes it too.
    let dropped = Scheduler::new(opts());
    dropped.submit(spec, "t0");
    drop(dropped);
    let open: Vec<SpanRecord> = span::job_records(id)
        .into_iter()
        .filter(|s| s.open)
        .collect();
    assert_eq!(open, Vec::new());
    let _ = std::fs::remove_dir_all(&dir);
}
