//! End-to-end trace + flight-recorder test under fault injection.
//!
//! Lives in its own integration-test binary: the fault plan is
//! process-global, and an `exec.panic` plan armed here would leak into
//! the regular serve tests if they shared a process.

use gpu_telemetry::faults::{self, FaultPlan};
use gpu_telemetry::span::job_hex;
use photon_bench::flightrec;
use photon_bench::{journal_key, ExecOptions, Method, RunSpec};
use photon_serve::client::{response_job, response_ok, Client};
use photon_serve::{ServeOptions, Server};
use serde_json::Value;
use std::sync::Arc;
use std::time::Duration;

use gpu_sim::GpuConfig;
use gpu_workloads::registry::Benchmark;

fn as_str<'a>(v: &'a Value, name: &str) -> Option<&'a str> {
    match v.get(name) {
        Some(Value::String(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// A job submitted under a 100% `exec.panic` plan fails; its `trace`
/// op then returns a span tree whose failing `sim` span names the
/// injected fault site, and the on-disk flight record carries the same
/// evidence (checksummed, loadable, `job-failed` trigger).
#[test]
fn faulted_job_trace_names_the_fault_site_and_flight_record_matches() {
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
    // panic rate).
    let fin = c.wait(&job).expect("wait");
    assert!(response_ok(&fin), "wait failed: {fin:?}");
    let fetched = c.fetch(&job).expect("fetch");
    assert!(
        matches!(
            fetched.get("report").and_then(|r| r.get("completed")),
            Some(Value::Bool(false))
        ),
        "job must fail under exec.panic: {fetched:?}"
    );

    // `trace` returns the span tree; the failing sim span names the
    // injected fault site.
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
    for _ in 0..100 {
        if dump_path.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let rec = flightrec::load(&dump_path).expect("flight record must load");
    assert_eq!(rec.job, job);
    assert_eq!(rec.trigger, "job-failed");
    assert!(
        rec.tree
            .failed_spans()
            .iter()
            .any(|s| s.detail.contains("exec.panic")),
        "flight record must name the fault site"
    );

    // The metrics op counts the failure and the dump.
    let text = c.metrics().expect("metrics op");
    for line in ["photon_serve_failed 1", "photon_serve_flightrec_dumps 1"] {
        assert!(text.lines().any(|l| l == line), "no {line:?} in:\n{text}");
    }

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
