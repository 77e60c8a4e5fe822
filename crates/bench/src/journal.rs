//! The run journal: crash-safe, append-only record of completed
//! [`RunSpec`]s that makes interrupted grid runs resumable.
//!
//! ## Format
//!
//! `results/journal.jsonl` holds one line per completed spec:
//!
//! ```text
//! {"crc":"<16 hex fnv1a>","entry":{...JournalEntry...}}
//! ```
//!
//! The line framing is [`crate::persist::frame_line`]'s: the `crc`
//! covers the bytes of the serialized `entry` object, so a line torn by
//! a crash mid-append (or corrupted on disk) fails validation and is
//! skipped — the loader never propagates partial data, and a journal
//! with a torn trailing line simply resumes one spec earlier. Every
//! line is flushed and fsync'd before the executor reports the spec
//! complete.
//!
//! ## Keying
//!
//! Entries are keyed by [`journal_key`]: FNV-1a over the journal schema
//! version, the ISA fingerprint, and the spec's canonical JSON. Unlike
//! the reference-cache key, the **method is part of the key** — the
//! journal records what ran, not what is derivable.
//!
//! ## Resume semantics
//!
//! Only outcomes worth replaying are journaled: completed measurements
//! and *permanent* skips (a deterministic `SimError` will fail the same
//! way again). Transient skips — panics, timeouts, exhausted retry
//! budgets — are never journaled, so `--resume` retries them.

use crate::harness::RunOutcome;
use crate::specs::{spec_key, RunSpec};
use gpu_telemetry::faults::{self, FaultSite};
use gpu_telemetry::span::parse_job_hex;
use gpu_telemetry::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Bumped whenever the entry layout or key derivation changes; old
/// journal lines are then ignored (and re-simulated) instead of
/// misread.
pub const JOURNAL_SCHEMA_VERSION: u32 = 1;

/// The journal identity of a spec: unlike [`crate::reference_key`],
/// every field that selects *what ran* participates — including the
/// method.
pub fn journal_key(spec: &RunSpec) -> u64 {
    let spec_json = serde_json::to_string(spec).unwrap_or_default();
    spec_key(JOURNAL_SCHEMA_VERSION, &[spec_json.as_bytes()])
}

/// One journal line: the completed spec's outcome plus the run's
/// private metrics snapshot, so a resumed grid reproduces the original
/// report byte-for-byte (metrics merge included).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JournalEntry {
    /// Must equal [`JOURNAL_SCHEMA_VERSION`] to be replayed.
    pub schema_version: u32,
    /// The [`journal_key`] this entry answers, hex-rendered.
    pub key: String,
    /// Human-readable `workload/method` label (diagnostics only).
    pub label: String,
    /// The recorded outcome.
    pub outcome: RunOutcome,
    /// The run's metrics snapshot at completion (empty for cache hits,
    /// exactly as in an uninterrupted run).
    pub metrics: MetricsSnapshot,
}

/// Everything a journal file yielded on load.
#[derive(Debug, Default)]
pub struct JournalLoad {
    /// Replayable entries by key (last line wins on duplicates).
    pub entries: HashMap<u64, JournalEntry>,
    /// Lines that failed crc/parse/schema validation and were skipped.
    pub corrupt_lines: usize,
}

/// Loads a journal, tolerating a missing file (empty journal) and any
/// number of torn or corrupt lines (each counted, never propagated).
/// [`crate::persist::load_lines`] verifies and parses; what is checked
/// here is the journal's own: the schema version and the key.
pub fn load_journal(path: &Path) -> JournalLoad {
    let mut out = JournalLoad::default();
    let Ok((entries, corrupt)) = crate::persist::load_lines::<JournalEntry>(path) else {
        return out;
    };
    out.corrupt_lines = corrupt;
    for entry in entries {
        match parse_job_hex(&entry.key) {
            Some(key) if entry.schema_version == JOURNAL_SCHEMA_VERSION => {
                out.entries.insert(key, entry);
            }
            _ => out.corrupt_lines += 1,
        }
    }
    out
}

/// Whether an outcome is worth journaling: replaying it on resume must
/// be indistinguishable from re-running the spec. Transient failures
/// (panics, stalls, exhausted retries) must re-run instead.
pub fn journalable(outcome: &RunOutcome) -> bool {
    match outcome {
        RunOutcome::Completed(_) => true,
        RunOutcome::Skipped { failure, .. } => *failure == crate::harness::FailureKind::Permanent,
    }
}

/// An open journal file: append-only, one fsync'd line per record.
/// Worker threads share it behind `&self`.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

impl Journal {
    /// Opens a journal for a fresh grid run (truncates any previous
    /// journal — the file describes *this* run).
    ///
    /// # Errors
    /// Returns the underlying I/O error.
    pub fn create(path: &Path) -> std::io::Result<Journal> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = std::fs::File::create(path)?;
        Ok(Journal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        })
    }

    /// Opens a journal for appending (resume: completed specs stay
    /// recorded).
    ///
    /// # Errors
    /// Returns the underlying I/O error.
    pub fn append(path: &Path) -> std::io::Result<Journal> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Journal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        })
    }

    /// Appends one record and fsyncs it. Failures warn (the journal is
    /// an accelerator for resume, never a correctness dependency).
    pub fn record(&self, key: u64, label: &str, outcome: &RunOutcome, metrics: &MetricsSnapshot) {
        let entry = JournalEntry {
            schema_version: JOURNAL_SCHEMA_VERSION,
            key: format!("{key:016x}"),
            label: label.to_string(),
            outcome: outcome.clone(),
            metrics: metrics.clone(),
        };
        let entry_json = match serde_json::to_string(&entry) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("warning: could not serialize journal entry for {label}: {e}");
                return;
            }
        };
        let mut line = crate::persist::frame_line(&entry_json);
        if faults::active() && faults::should_inject(FaultSite::JournalTorn, key) {
            // Simulate a crash mid-append: only a prefix of the line
            // lands on disk. The loader must skip it cleanly.
            line.truncate(line.len() / 2);
        }
        let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let write = f
            .write_all(line.as_bytes())
            .and_then(|()| f.flush())
            .and_then(|()| f.sync_data());
        if let Err(e) = write {
            eprintln!(
                "warning: could not append to journal {}: {e}",
                self.path.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{FailureKind, Measurement};
    use crate::specs::Method;
    use gpu_sim::GpuConfig;
    use gpu_workloads::registry::Benchmark;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_journal() -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "photon-journal-{}-{}.jsonl",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn meas() -> Measurement {
        Measurement {
            workload: "fir".into(),
            warps: 64,
            method: "Full".into(),
            sim_cycles: 1234,
            wall_secs: 0.25,
            detailed_insts: 10,
            functional_insts: 0,
            detailed_warps: 64,
            predicted_warps: 0,
            skipped_kernels: 0,
            kernel_cycles: vec![1234],
            accounting: None,
            bb_errors: vec![],
        }
    }

    #[test]
    fn key_includes_the_method() {
        let full = RunSpec::bench(GpuConfig::tiny(), Benchmark::Fir, 64, Method::Full);
        let mut pka = full.clone();
        pka.method = Method::Pka;
        assert_ne!(journal_key(&full), journal_key(&pka));
        assert_eq!(journal_key(&full), journal_key(&full.clone()));
    }

    #[test]
    fn record_and_load_roundtrip() {
        let path = temp_journal();
        let j = Journal::create(&path).unwrap();
        let outcome = RunOutcome::Completed(meas());
        j.record(0xabc, "fir/Full", &outcome, &MetricsSnapshot::default());
        j.record(
            0xdef,
            "fir/PKA",
            &RunOutcome::Skipped {
                workload: "fir".into(),
                method: "PKA".into(),
                reason: "simulation error: deadlock".into(),
                error: Some("Deadlock".into()),
                failure: FailureKind::Permanent,
            },
            &MetricsSnapshot::default(),
        );
        let load = load_journal(&path);
        assert_eq!(load.corrupt_lines, 0);
        assert_eq!(load.entries.len(), 2);
        let e = &load.entries[&0xabc];
        assert_eq!(e.label, "fir/Full");
        assert_eq!(e.outcome.measurement().unwrap().sim_cycles, 1234);
        // Skips serialize too, keeping the diagnosis.
        match &load.entries[&0xdef].outcome {
            RunOutcome::Skipped { reason, error, .. } => {
                assert_eq!(reason, "simulation error: deadlock");
                assert_eq!(error.as_deref(), Some("Deadlock"));
            }
            RunOutcome::Completed(_) => panic!("the skip loaded as a measurement"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_and_corrupt_lines_are_skipped_not_fatal() {
        let path = temp_journal();
        let j = Journal::create(&path).unwrap();
        j.record(
            1,
            "a/Full",
            &RunOutcome::Completed(meas()),
            &MetricsSnapshot::default(),
        );
        drop(j);
        // A crash mid-append: a torn trailing line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"crc\":\"0000000000000001\",\"entry\":{\"schema_ver");
        std::fs::write(&path, &text).unwrap();
        let load = load_journal(&path);
        assert_eq!(load.entries.len(), 1);
        assert_eq!(load.corrupt_lines, 1);
        // Bit corruption in a committed line: crc catches it.
        let tampered = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"sim_cycles\":1234", "\"sim_cycles\":9999");
        std::fs::write(&path, &tampered).unwrap();
        let load = load_journal(&path);
        assert_eq!(load.entries.len(), 0);
        assert_eq!(load.corrupt_lines, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_crc_valid_line_with_a_short_or_signed_key_is_corrupt() {
        let path = temp_journal();
        let mut text = String::new();
        for key in ["abc", "+00000000000abcd", "0000000000000007"] {
            let entry = JournalEntry {
                schema_version: JOURNAL_SCHEMA_VERSION,
                key: key.to_string(),
                label: "fir/Full".into(),
                outcome: RunOutcome::Completed(meas()),
                metrics: MetricsSnapshot::default(),
            };
            let json = serde_json::to_string(&entry).unwrap();
            text.push_str(&crate::persist::frame_line(&json));
        }
        std::fs::write(&path, text).unwrap();
        let load = load_journal(&path);
        assert_eq!(load.corrupt_lines, 2);
        assert_eq!(load.entries.keys().collect::<Vec<_>>(), [&7]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_journal_is_empty() {
        let load = load_journal(Path::new("/nonexistent/journal.jsonl"));
        assert!(load.entries.is_empty());
        assert_eq!(load.corrupt_lines, 0);
    }

    #[test]
    fn only_replayable_outcomes_are_journalable() {
        assert!(journalable(&RunOutcome::Completed(meas())));
        let skip = |failure| RunOutcome::Skipped {
            workload: "x".into(),
            method: "Full".into(),
            reason: "r".into(),
            error: None,
            failure,
        };
        assert!(journalable(&skip(FailureKind::Permanent)));
        assert!(!journalable(&skip(FailureKind::Transient)));
    }
}
