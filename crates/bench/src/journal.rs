//! The crc-line journal: an append-only file of one checksummed JSON
//! entry per line, each line fsync'd as it is written. Two files are
//! journals: the run journal (`results/journal.jsonl`, one
//! [`JournalEntry`] per completed [`RunSpec`], which makes interrupted
//! grid runs resumable) and photon-serve's pending-jobs file (the specs
//! still queued when a server drains).
//!
//! ## Format
//!
//! ```text
//! {"crc":"<16 hex fnv1a>","entry":{...}}
//! ```
//!
//! The `crc` covers the bytes of the serialized `entry` as written, so
//! a line torn by a crash mid-append (or corrupted on disk) fails
//! validation and is skipped — [`load`] never propagates partial data,
//! and a run journal with a torn trailing line simply resumes one spec
//! earlier. [`Journal::record`] returns only once its line is flushed
//! and fsync'd.
//!
//! ## Keying
//!
//! Run-journal entries are keyed by [`journal_key`]: FNV-1a over the
//! journal schema version, the ISA fingerprint, and the spec's
//! canonical JSON. Unlike the reference-cache key, the **method is part
//! of the key** — the journal records what ran, not what is derivable.
//!
//! ## Resume semantics
//!
//! Only outcomes worth replaying are journaled: completed measurements
//! and *permanent* skips (a deterministic `SimError` will fail the same
//! way again). Transient skips — panics, timeouts, exhausted retry
//! budgets — are never journaled, so `--resume` retries them.

use crate::harness::RunOutcome;
use crate::specs::{spec_key, RunSpec};
use gpu_isa::fnv1a;
use gpu_telemetry::faults::{self, FaultSite};
use gpu_telemetry::span::{job_hex, parse_job_hex};
use gpu_telemetry::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;

/// What a journal line opens with, up to its 16 hex digits.
const LINE_HEAD: &str = "{\"crc\":\"";
/// What stands between the hex digits and the entry.
const LINE_MID: &str = "\",\"entry\":";

/// Wraps an already-serialized JSON object into one journal line
/// (trailing newline included), with the FNV-1a of the entry text.
fn encode_line(entry_json: &str) -> String {
    format!(
        "{LINE_HEAD}{:016x}{LINE_MID}{entry_json}}}\n",
        fnv1a(entry_json.as_bytes())
    )
}

/// Validates one journal line and parses its entry; `None` for
/// anything torn or corrupt. The line must be exactly what
/// [`Journal::record`] writes (less the newline): the crc is compared
/// with the bytes between the fixed prefix and the closing brace, so
/// nothing depends on how a parsed value would render back.
pub fn decode_line<T: Deserialize>(line: &str) -> Option<T> {
    let rest = line.strip_prefix(LINE_HEAD)?;
    let (crc, rest) = (rest.get(..16)?, rest.get(16..)?);
    let entry = rest.strip_prefix(LINE_MID)?.strip_suffix('}')?;
    if crc != format!("{:016x}", fnv1a(entry.as_bytes())) {
        return None;
    }
    serde_json::from_str(entry).ok()
}

/// Loads a journal: the entries that verified and parsed, in file
/// order, plus the count of non-empty lines that did not. A missing or
/// unreadable file is an empty journal.
pub fn load<T: Deserialize>(path: &Path) -> (Vec<T>, usize) {
    let Ok(text) = crate::persist::read_text(path) else {
        return (Vec::new(), 0);
    };
    let mut entries = Vec::new();
    let mut corrupt = 0;
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        match decode_line(line) {
            Some(entry) => entries.push(entry),
            None => corrupt += 1,
        }
    }
    (entries, corrupt)
}

/// An open journal file: append-only, one fsync'd line per record.
/// Worker threads share it behind `&self`.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<std::fs::File>,
}

impl Journal {
    /// Opens the journal at `path`, creating it and its directory.
    /// `fresh` truncates it (the file describes *this* grid run or
    /// drain); otherwise records append after what is there (resume).
    ///
    /// # Errors
    /// Returns the underlying I/O error.
    pub fn open(path: &Path, fresh: bool) -> std::io::Result<Journal> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(fresh)
            .append(!fresh)
            .open(path)?;
        // A crash mid-append leaves a last line without its newline: end
        // it, or the first record appended after it is lost with it.
        let mut last = [b'\n'];
        if file.metadata()?.len() > 0 {
            file.seek(SeekFrom::End(-1))?;
            file.read_exact(&mut last)?;
        }
        if last != [b'\n'] {
            file.write_all(b"\n")?;
        }
        Ok(Journal {
            file: Mutex::new(file),
        })
    }

    /// Appends `entry` as one line and fsyncs it. `key` names the entry
    /// to the `journal.torn` fault site, which lands only a prefix of
    /// the line, as a crash mid-append would, and then ends the line,
    /// as [`Journal::open`] does for the next writer after a crash.
    ///
    /// # Errors
    /// Returns the serialization or I/O error.
    pub fn record<E: Serialize>(&self, key: u64, entry: &E) -> std::io::Result<()> {
        let json =
            serde_json::to_string(entry).map_err(|e| std::io::Error::other(e.to_string()))?;
        let mut line = encode_line(&json).into_bytes();
        if faults::active() && faults::should_inject(FaultSite::JournalTorn, key) {
            line.truncate(line.len() / 2);
            line.push(b'\n');
        }
        let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
        f.write_all(&line)
            .and_then(|()| f.flush())
            .and_then(|()| f.sync_data())
    }
}

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

/// One run-journal line: the completed spec's outcome plus the run's
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

impl JournalEntry {
    /// The entry recording `outcome` and the run's `metrics` under `key`.
    pub fn new(key: u64, label: &str, outcome: &RunOutcome, metrics: &MetricsSnapshot) -> Self {
        JournalEntry {
            schema_version: JOURNAL_SCHEMA_VERSION,
            key: job_hex(key),
            label: label.to_string(),
            outcome: outcome.clone(),
            metrics: metrics.clone(),
        }
    }
}

/// Loads a run journal: [`load`] plus the run journal's own checks,
/// the schema version and a key that parses. Returns the replayable
/// entries by key (last line wins on duplicates) and the count of
/// lines skipped.
pub fn load_journal(path: &Path) -> (HashMap<u64, JournalEntry>, usize) {
    let (lines, mut corrupt) = load::<JournalEntry>(path);
    let mut entries = HashMap::new();
    for entry in lines {
        match parse_job_hex(&entry.key) {
            Some(key) if entry.schema_version == JOURNAL_SCHEMA_VERSION => {
                entries.insert(key, entry);
            }
            _ => corrupt += 1,
        }
    }
    (entries, corrupt)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{FailureKind, Measurement};
    use crate::specs::Method;
    use gpu_sim::GpuConfig;
    use gpu_workloads::registry::Benchmark;
    use std::path::PathBuf;
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

    /// Records `outcome` under `key` with an empty metrics snapshot.
    fn record(j: &Journal, key: u64, label: &str, outcome: &RunOutcome) {
        let entry = JournalEntry::new(key, label, outcome, &MetricsSnapshot::default());
        j.record(key, &entry).unwrap();
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
        let j = Journal::open(&path, true).unwrap();
        let outcome = RunOutcome::Completed(meas());
        record(&j, 0xabc, "fir/Full", &outcome);
        let skip = RunOutcome::Skipped {
            workload: "fir".into(),
            method: "PKA".into(),
            reason: "simulation error: deadlock".into(),
            error: Some("Deadlock".into()),
            failure: FailureKind::Permanent,
        };
        record(&j, 0xdef, "fir/PKA", &skip);
        let (entries, corrupt) = load_journal(&path);
        assert_eq!(corrupt, 0);
        assert_eq!(entries.len(), 2);
        let e = &entries[&0xabc];
        assert_eq!(e.label, "fir/Full");
        assert_eq!(e.outcome.measurement().unwrap().sim_cycles, 1234);
        // Skips serialize too, keeping the diagnosis.
        match &entries[&0xdef].outcome {
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
        let j = Journal::open(&path, true).unwrap();
        record(&j, 1, "a/Full", &RunOutcome::Completed(meas()));
        drop(j);
        // A crash mid-append: a torn trailing line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"crc\":\"0000000000000001\",\"entry\":{\"schema_ver");
        std::fs::write(&path, &text).unwrap();
        let (entries, corrupt) = load_journal(&path);
        assert_eq!(entries.len(), 1);
        assert_eq!(corrupt, 1);
        // Bit corruption in a committed line: crc catches it.
        let tampered = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"sim_cycles\":1234", "\"sim_cycles\":9999");
        std::fs::write(&path, &tampered).unwrap();
        let (entries, corrupt) = load_journal(&path);
        assert_eq!(entries.len(), 0);
        assert_eq!(corrupt, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_crc_valid_line_with_a_short_or_signed_key_is_corrupt() {
        let path = temp_journal();
        let j = Journal::open(&path, true).unwrap();
        for key in ["abc", "+00000000000abcd", "0000000000000007"] {
            let outcome = RunOutcome::Completed(meas());
            let mut entry = JournalEntry::new(0, "fir/Full", &outcome, &MetricsSnapshot::default());
            entry.key = key.to_string();
            j.record(0, &entry).unwrap();
        }
        let (entries, corrupt) = load_journal(&path);
        assert_eq!(corrupt, 2);
        assert_eq!(entries.keys().collect::<Vec<_>>(), [&7]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn framed_lines_roundtrip_and_the_loader_counts_what_it_skips() {
        let path = temp_journal();
        assert_eq!(load::<Vec<u64>>(&path), (vec![], 0));
        let line = encode_line("[1,2]");
        assert_eq!(decode_line::<Vec<u64>>(line.trim_end()), Some(vec![1, 2]));
        // The crc is of the bytes as written: an entry that parses to
        // the same value but is spelled differently does not verify.
        let respelled = line.replace("[1,2]", "[1, 2]");
        assert_eq!(decode_line::<Vec<u64>>(respelled.trim_end()), None);

        // A good line, a blank, a tampered line, a second good line, a
        // torn tail.
        let torn = &encode_line("[9]")[..20];
        let text = format!("{line}\n{respelled}{}{torn}", encode_line("[3]"));
        std::fs::write(&path, text).unwrap();
        assert_eq!(load::<Vec<u64>>(&path), (vec![vec![1, 2], vec![3]], 2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_truncates_a_fresh_journal_and_appends_to_an_old_one() {
        let path = temp_journal();
        for (fresh, lines) in [(true, 1), (false, 2), (true, 1)] {
            Journal::open(&path, fresh)
                .unwrap()
                .record(0, &[lines])
                .unwrap();
            assert_eq!(load::<Vec<u64>>(&path).0.len(), lines, "fresh {fresh}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_record_appended_after_a_torn_tail_starts_its_own_line() {
        let path = temp_journal();
        let first = encode_line("[1]");
        std::fs::write(&path, format!("{first}{}", &encode_line("[2]")[..9])).unwrap();
        Journal::open(&path, false)
            .unwrap()
            .record(0, &[3])
            .unwrap();
        assert_eq!(load::<Vec<u64>>(&path), (vec![vec![1], vec![3]], 1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_journal_is_empty() {
        let (entries, corrupt) = load_journal(Path::new("/nonexistent/journal.jsonl"));
        assert!(entries.is_empty());
        assert_eq!(corrupt, 0);
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
