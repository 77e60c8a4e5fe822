//! Torn-write property tests: a file truncated at *every* byte
//! boundary — the on-disk state a crash mid-write can leave behind when
//! the atomic-rename path is bypassed — must never panic a loader and
//! must never yield partial data. A load either fails (and the caller
//! recomputes) or returns exactly what was written.

use photon_bench::journal::{load_journal, Journal};
use photon_bench::{atomic_write_framed, load_report, read_framed};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

fn temp_dir() -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "photon-bench-persist-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn framed_payload_truncated_at_every_boundary_is_never_partially_verified() {
    let dir = temp_dir();
    let full = dir.join("full.json");
    let payload = "{\"alpha\": 1, \"beta\": [2, 3, 4], \"gamma\": \"delta epsilon\"}";
    atomic_write_framed(&full, payload).unwrap();
    let bytes = std::fs::read(&full).unwrap();

    let torn = dir.join("torn.json");
    for cut in 0..=bytes.len() {
        std::fs::write(&torn, &bytes[..cut]).unwrap();
        match read_framed(&torn) {
            // A verified load must be the complete payload — a torn
            // prefix passing the checksum would be a broken checksum.
            Ok(f) if f.verified => assert_eq!(f.payload, payload, "cut at byte {cut}"),
            // Unverified (legacy-shaped) or failed loads are fine: the
            // caller's parse/validate stage rejects partial JSON.
            Ok(_) | Err(_) => {}
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_report_truncated_at_every_boundary_loads_fully_or_not_at_all() {
    use gpu_telemetry::{MethodRun, RunReport, SkippedRun};

    let dir = temp_dir();
    let full = dir.join("BENCH_fir.json");
    let mut report = RunReport::new("fir");
    report.runs.push(MethodRun {
        method: "Full".into(),
        warps: 2048,
        wall_secs: 1.5,
        sim_cycles: 55_978,
        ipc: 2.2,
        detailed_insts: 123_456,
        functional_insts: 0,
        detailed_warps: 2048,
        predicted_warps: 0,
        sample_coverage: 1.0,
        skipped_kernels: 0,
        speedup_vs_detailed: 1.0,
        error_vs_detailed: 0.0,
        accounting: None,
        bb_errors: Vec::new(),
    });
    report.skipped.push(SkippedRun {
        method: "PKA".into(),
        reason: "timed out".into(),
        error: String::new(),
    });
    // Pretty-printed, as `write_report` lays it out: many lines, so a
    // torn prefix can end on a line boundary and look unframed.
    let text = serde_json::to_string_pretty(&report).unwrap();
    atomic_write_framed(&full, &text).unwrap();
    let bytes = std::fs::read(&full).unwrap();

    let torn = dir.join("torn.json");
    for cut in 0..=bytes.len() {
        std::fs::write(&torn, &bytes[..cut]).unwrap();
        match load_report(&torn) {
            // Success implies complete data, bit for bit.
            Ok(loaded) => assert_eq!(loaded, report, "cut at byte {cut}"),
            Err(e) => assert!(!e.is_empty()),
        }
        // A read never moves the file, whatever state it is in.
        assert!(torn.exists(), "cut at byte {cut}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_truncated_at_every_boundary_yields_only_complete_entries() {
    use gpu_sim::GpuConfig;
    use gpu_workloads::registry::Benchmark;
    use photon_bench::harness::{Method, RunOutcome};
    use photon_bench::{journal_key, RunSpec};

    let dir = temp_dir();
    let path = dir.join("journal.jsonl");
    let j = Journal::create(&path).unwrap();
    // Three entries with distinct cycle counts so partial data would be
    // distinguishable from complete data.
    let mut keys = Vec::new();
    for (i, warps) in [64u64, 128, 256].iter().enumerate() {
        let spec = RunSpec::bench(GpuConfig::tiny(), Benchmark::Fir, *warps, Method::Full);
        let key = journal_key(&spec);
        keys.push((key, 1000 + i as u64));
        let outcome = RunOutcome::Skipped {
            workload: format!("fir-{warps}"),
            method: "Full".into(),
            reason: format!("probe {i}"),
            error: Some(format!("cycles-{}", 1000 + i)),
            failure: photon_bench::harness::FailureKind::Permanent,
        };
        j.record(key, "fir/Full", &outcome, &Default::default());
    }
    drop(j);
    let bytes = std::fs::read(&path).unwrap();
    let baseline = load_journal(&path);
    assert_eq!(baseline.entries.len(), 3);
    assert_eq!(baseline.corrupt_lines, 0);

    let torn = dir.join("torn.jsonl");
    for cut in 0..=bytes.len() {
        std::fs::write(&torn, &bytes[..cut]).unwrap();
        let load = load_journal(&torn);
        // Never more entries than were written; every surviving entry
        // is byte-identical to the original (crc guarantees it).
        assert!(load.entries.len() <= 3, "cut at byte {cut}");
        for (key, entry) in &load.entries {
            let original = &baseline.entries[key];
            assert_eq!(
                serde_json::to_string(entry).unwrap(),
                serde_json::to_string(original).unwrap(),
                "cut at byte {cut}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
