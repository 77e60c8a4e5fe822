//! Torn-write property tests: a file truncated at *every* byte
//! boundary — the on-disk state a crash mid-write can leave behind when
//! the atomic-rename path is bypassed — must never panic a loader and
//! must never yield partial data. A load either fails (and the caller
//! recomputes) or returns exactly what was written. Plus the line codec
//! held to one real journal line byte by byte, one of every stored
//! artifact as the writers of commit efc1183 left it (`tests/fixtures/`),
//! and the report rows stored before rows were measurements.

use photon_bench::journal::{decode_line, load_journal, Journal, JournalEntry};
use photon_bench::{atomic_write_framed, load_report, read_framed, Measurement};
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
    use photon_bench::report::{RunReport, SkippedRun};

    let dir = temp_dir();
    let full = dir.join("BENCH_fir.json");
    let mut report = RunReport::new("fir");
    report.runs.push(measurement());
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

/// A completed Full run with every field set.
fn measurement() -> Measurement {
    Measurement {
        workload: "fir".into(),
        warps: 2048,
        method: "Full".into(),
        sim_cycles: 55_978,
        wall_secs: 1.5,
        detailed_insts: 123_456,
        functional_insts: 0,
        detailed_warps: 2048,
        predicted_warps: 0,
        skipped_kernels: 0,
        kernel_cycles: vec![30_000, 25_978],
        accounting: None,
        bb_errors: Vec::new(),
    }
}

#[test]
fn serde_default_reaches_only_the_fields_marked_with_it() {
    use serde_json::Value;

    let m = measurement();
    // `m` as JSON text with the named fields removed.
    let without = |names: &[&str]| -> String {
        let Value::Object(fields) = serde_json::to_value(&m) else {
            panic!("a measurement serializes to an object");
        };
        let kept: Vec<(String, Value)> = fields
            .into_iter()
            .filter(|(k, _)| !names.contains(&k.as_str()))
            .collect();
        serde_json::to_string(&Value::Object(kept)).unwrap()
    };

    let legacy: Measurement = serde_json::from_str(&without(&["workload", "kernel_cycles"]))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        legacy,
        Measurement {
            workload: String::new(),
            kernel_cycles: Vec::new(),
            ..m.clone()
        }
    );
    let err = serde_json::from_str::<Measurement>(&without(&["sim_cycles"]))
        .expect_err("sim_cycles is not defaulted");
    assert!(
        err.to_string().contains("missing field `sim_cycles`"),
        "{err}"
    );
}

#[test]
fn journal_truncated_at_every_boundary_yields_only_complete_entries() {
    use gpu_sim::GpuConfig;
    use gpu_workloads::registry::Benchmark;
    use photon_bench::harness::RunOutcome;
    use photon_bench::{journal_key, Method, RunSpec};

    let dir = temp_dir();
    let path = dir.join("journal.jsonl");
    let j = Journal::open(&path, true).unwrap();
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
        let entry = JournalEntry::new(key, "fir/Full", &outcome, &Default::default());
        j.record(key, &entry).unwrap();
    }
    drop(j);
    let bytes = std::fs::read(&path).unwrap();
    let (baseline, corrupt) = load_journal(&path);
    assert_eq!((baseline.len(), corrupt), (3, 0));

    let torn = dir.join("torn.jsonl");
    for cut in 0..=bytes.len() {
        std::fs::write(&torn, &bytes[..cut]).unwrap();
        let (entries, _) = load_journal(&torn);
        // Never more entries than were written; every surviving entry
        // is byte-identical to the original (crc guarantees it).
        assert!(entries.len() <= 3, "cut at byte {cut}");
        for (key, entry) in &entries {
            let original = &baseline[key];
            assert_eq!(
                serde_json::to_string(entry).unwrap(),
                serde_json::to_string(original).unwrap(),
                "cut at byte {cut}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The fixture journal's second line: a skip whose label and reason
/// carry escapes and multi-byte scalars.
fn real_journal_line() -> String {
    let text = std::fs::read_to_string(fixture("journal.jsonl")).unwrap();
    text.lines().nth(1).expect("two lines").to_string()
}

#[test]
fn line_codec_rejects_every_prefix_substitution_and_suffix_of_a_real_line() {
    use serde_json::Value;

    let line = real_journal_line();
    let entry: Value = decode_line(&line).expect("the line as written verifies");
    assert_eq!(
        entry.get("key"),
        Some(&Value::String("aaaabbbbccccdddd".into()))
    );

    // Every proper prefix (a torn append), cut on a scalar boundary.
    for cut in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
        assert!(
            decode_line::<Value>(&line[..cut]).is_none(),
            "prefix of {cut} bytes verified"
        );
    }
    // Every ASCII byte — frame, crc digits and entry alike — replaced
    // by every other ASCII byte. (A line is text; bytes that are not
    // UTF-8 never get past `persist::read_text`.)
    let mut bytes = line.clone().into_bytes();
    for i in 0..bytes.len() {
        let original = bytes[i];
        if !original.is_ascii() {
            continue;
        }
        for sub in (0..128u8).filter(|&b| b != original) {
            bytes[i] = sub;
            let tampered = std::str::from_utf8(&bytes).expect("ASCII for ASCII");
            assert!(
                decode_line::<Value>(tampered).is_none(),
                "byte {i}: {:?} -> {:?} verified",
                original as char,
                sub as char
            );
        }
        bytes[i] = original;
    }
    // The crc spelled in uppercase: the same number, not the same bytes.
    let (head, rest) = line.split_at(r#"{"crc":""#.len());
    let (crc, rest) = rest.split_at(16);
    assert!(crc.bytes().any(|b| b.is_ascii_lowercase()), "{crc}");
    let shouted = format!("{head}{}{rest}", crc.to_ascii_uppercase());
    assert!(decode_line::<Value>(&shouted).is_none());
    // Trailing bytes after the closing brace, crc untouched.
    for tail in ["}", " ", "x", ",{}", "\n{}"] {
        assert!(
            decode_line::<Value>(&format!("{line}{tail}")).is_none(),
            "trailing {tail:?} verified"
        );
    }
}

#[test]
fn stored_fixtures_still_load_entry_for_entry() {
    use photon_bench::harness::RunOutcome;
    use photon_bench::{flightrec, RefCache};

    // The run journal, entry for entry.
    let (journal, corrupt) = load_journal(&fixture("journal.jsonl"));
    assert_eq!((journal.len(), corrupt), (2, 0));
    let full = &journal[&0x1111_2222_3333_4444];
    assert_eq!(full.label, "fir/Full");
    let m = full.outcome.measurement().expect("completed");
    assert_eq!((m.sim_cycles, m.wall_secs), (1234, 0.1 + 0.2));
    assert_eq!(m.bb_errors[0].kernel, "fir \"tap\" loop\n— é");
    assert_eq!(m.bb_errors[0].predicted_mean, 1e-7);
    assert_eq!(full.metrics.counter("sim.insts"), Some(4242));
    let skipped = &journal[&0xaaaa_bbbb_cccc_dddd];
    assert_eq!(skipped.label, "fir/PKA — \"quoted\"");
    match &skipped.outcome {
        RunOutcome::Skipped { reason, error, .. } => {
            assert_eq!(reason, "simulation error: deadlock at \"wg 3\"\n\ttab — é");
            assert_eq!(error.as_deref(), Some("Deadlock { cycle: 10 }"));
        }
        RunOutcome::Completed(_) => panic!("the skip loaded as a measurement"),
    }

    // The owners' loaders may quarantine what they reject: hand them
    // copies, never the committed files.
    let dir = temp_dir();

    // The reference-cache entry, resolved by the key it was stored under.
    let key = 0x0123_4567_89ab_cdef_u64;
    std::fs::copy(
        fixture("cache_entry.json"),
        dir.join(format!("{key:016x}.json")),
    )
    .unwrap();
    let cache = RefCache::persistent(dir.clone());
    let cached = cache.lookup(key).expect("the stored entry is a hit");
    assert_eq!(&cached, m);
    assert_eq!(cache.stats().quarantined, 0);

    // The run report (framed, verified).
    let report = load_report(&fixture("BENCH_fixture.json")).expect("report loads");
    assert_eq!(report.workload, "fixture");
    assert_eq!(report.runs.len(), 2);
    assert_eq!(report.run("Photon").unwrap().sim_cycles, 1200);

    // The flight record.
    let dump = dir.join("flightrec.json");
    std::fs::copy(fixture("flightrec.json"), &dump).unwrap();
    let rec = flightrec::load(&dump).expect("flight record loads");
    assert_eq!(
        (rec.job.as_str(), rec.trigger.as_str()),
        ("000000000000abcd", "span-failed")
    );
    assert_eq!(rec.spans.len(), 3);
    let failed: Vec<u64> = rec.spans.iter().filter(|s| !s.ok).map(|s| s.id).collect();
    assert_eq!(failed, vec![2]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn committed_baselines_still_load_framed_or_not() {
    let baselines = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/baselines");
    // The legacy baseline predates the framing and is committed bare:
    // accepted on the strength of its parse. The detailed one is framed.
    for (name, framed) in [
        ("BENCH_smoke.json", false),
        ("BENCH_smoke_detailed.json", true),
    ] {
        let path = baselines.join(name);
        let report = load_report(&path).unwrap_or_else(|e| panic!("{e}"));
        assert!(!report.runs.is_empty(), "{name}");
        assert_eq!(read_framed(&path).unwrap().verified, framed, "{name}");
    }
}

#[test]
fn render_time_derivation_reproduces_what_committed_reports_stored() {
    /// The four values a report row stored before rows were
    /// measurements, read from the raw JSON.
    #[derive(serde::Deserialize)]
    struct StoredRow {
        method: String,
        ipc: f64,
        sample_coverage: f64,
        speedup_vs_detailed: f64,
        error_vs_detailed: f64,
    }
    #[derive(serde::Deserialize)]
    struct StoredReport {
        runs: Vec<StoredRow>,
    }

    let baselines = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/baselines");
    for path in [
        baselines.join("BENCH_smoke.json"),
        baselines.join("BENCH_smoke_detailed.json"),
        fixture("BENCH_fixture.json"),
    ] {
        let name = path.display();
        let stored: StoredReport = photon_bench::persist::load(&path)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .payload;
        let report = load_report(&path).unwrap_or_else(|e| panic!("{e}"));
        let full = report.reference();
        assert!(full.is_some(), "{name}: no Full reference");
        assert_eq!(stored.runs.len(), report.runs.len(), "{name}");
        for (old, run) in stored.runs.iter().zip(&report.runs) {
            assert_eq!(old.method, run.method, "{name}");
            // Legacy rows carry neither field; both load empty.
            assert!(run.workload.is_empty(), "{name}");
            assert!(run.kernel_cycles.is_empty(), "{name}");
            // Bit for bit, not approximately.
            assert_eq!(old.ipc, run.ipc(), "{name} {}", run.method);
            assert_eq!(old.sample_coverage, run.sample_coverage(), "{name}");
            assert_eq!(
                old.speedup_vs_detailed,
                full.map_or(0.0, |f| run.speedup_vs(f)),
                "{name} {}",
                run.method
            );
            assert_eq!(
                old.error_vs_detailed,
                full.map_or(0.0, |f| run.error_vs(f)),
                "{name} {}",
                run.method
            );
        }
    }
}
