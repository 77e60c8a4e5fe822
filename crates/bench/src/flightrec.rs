//! The flight recorder: when a job ends badly — watchdog fire, injected
//! fault, outright failure, or a latency past the p99 — its span trail
//! and a metrics snapshot are dumped to
//! `results/flightrec/<job_id>.json` so the incident can be diagnosed
//! after the fact, without having had tracing "switched on" in advance.
//!
//! Dumps go through the persist layer: checksum-framed atomic writes,
//! and quarantine (with rotation) when a dump is found corrupt at load
//! time. A dump carries the job's span list as the collector holds it
//! (`gpu_telemetry::span::job_records`): the collector's per-job bound
//! is the only one, so every span it kept reaches the dump.

use crate::persist::{self, LoadError};
use gpu_telemetry::span::{job_hex, SpanRecord};
use gpu_telemetry::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Bumped when the dump layout changes. v2 dropped the span tree that
/// v1 carried beside the list; a v1 dump still loads (its `tree` is
/// ignored).
pub const FLIGHTREC_SCHEMA_VERSION: u32 = 2;

/// Why a flight record was cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// The job's outcome was a failure (includes watchdog aborts and
    /// timeouts — they surface as failed outcomes).
    JobFailed,
    /// The job completed but a span inside it failed (e.g. an injected
    /// fault absorbed by a retry).
    SpanFailed,
    /// The job's latency exceeded the live p99.
    P99Latency,
}

impl Trigger {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Trigger::JobFailed => "job-failed",
            Trigger::SpanFailed => "span-failed",
            Trigger::P99Latency => "p99-latency",
        }
    }
}

/// One flight-recorder dump: everything known about a job at the moment
/// it tripped a trigger.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlightRecord {
    /// [`FLIGHTREC_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// The job id, 16 hex (the serve/journal key).
    pub job: String,
    /// Human label (spec label / tenant).
    pub label: String,
    /// [`Trigger::name`] of what cut the record.
    pub trigger: String,
    /// Free-form trigger detail (failure reason, latency vs p99, ...).
    pub detail: String,
    /// Job wall-clock, seconds.
    pub wall_secs: f64,
    /// The job's span trail, sorted by id; each span names its parent.
    pub spans: Vec<SpanRecord>,
    /// Metrics snapshot at dump time.
    pub metrics: MetricsSnapshot,
}

/// The default dump directory, under the bench results root.
pub fn default_dir() -> PathBuf {
    crate::harness::results_dir().join("flightrec")
}

/// Assembles a record for `job` around its span trail.
pub fn assemble(
    job: u64,
    label: &str,
    trigger: Trigger,
    detail: &str,
    wall_secs: f64,
    spans: &[SpanRecord],
    metrics: MetricsSnapshot,
) -> FlightRecord {
    FlightRecord {
        schema_version: FLIGHTREC_SCHEMA_VERSION,
        job: job_hex(job),
        label: label.to_string(),
        trigger: trigger.name().to_string(),
        detail: detail.to_string(),
        wall_secs,
        spans: spans.to_vec(),
        metrics,
    }
}

/// Dump path for a record inside `dir`.
pub fn record_path(dir: &Path, job: &str) -> PathBuf {
    dir.join(format!("{job}.json"))
}

/// Writes `rec` to `<dir>/<job>.json` (checksum-framed, atomic).
///
/// # Errors
/// Returns a rendered serialization or I/O error.
pub fn dump(dir: &Path, rec: &FlightRecord) -> Result<PathBuf, String> {
    let path = record_path(dir, &rec.job);
    let payload =
        serde_json::to_string_pretty(rec).map_err(|e| format!("render flight record: {e}"))?;
    persist::atomic_write_framed(&path, &payload)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Loads and verifies a dump. A checksum mismatch or unparseable
/// payload quarantines the file (rotating older corpses) and errors; an
/// unframed file is rejected too — every dump this module writes is
/// framed, so a bare one is itself evidence of tampering or truncation.
/// A path with no file, or one the host refused to read, errors and is
/// left alone: nothing was read, so nothing was proven corrupt.
///
/// # Errors
/// Returns a rendered I/O, checksum, or parse error.
pub fn load(path: &Path) -> Result<FlightRecord, String> {
    let why = match persist::load::<FlightRecord>(path) {
        Ok(rec) if rec.verified => return Ok(rec.payload),
        Ok(_) => "flight record has no valid checksum frame".to_string(),
        Err(LoadError::Corrupt(why)) => why,
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    persist::quarantine(path);
    Err(format!("{}: {why}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_telemetry::span::SpanKind;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "photon-flightrec-{}-{}-{tag}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn rec(id: u64, parent: u64, kind: SpanKind, ok: bool, detail: &str) -> SpanRecord {
        SpanRecord {
            job: 0xabcd,
            id,
            parent,
            kind,
            label: format!("s{id}"),
            start_us: id,
            dur_us: 1,
            open: false,
            ok,
            detail: detail.to_string(),
        }
    }

    #[test]
    fn dump_load_round_trips_and_names_the_fault() {
        let dir = temp_dir("rt");
        let spans = vec![
            rec(1, 0, SpanKind::Job, false, "panicked"),
            rec(
                2,
                1,
                SpanKind::Sim,
                false,
                "fault-injection: exec.panic (key 0x1)",
            ),
        ];
        let record = assemble(
            0xabcd,
            "fir/64",
            Trigger::JobFailed,
            "panicked",
            0.25,
            &spans,
            MetricsSnapshot::default(),
        );
        let path = dump(&dir, &record).unwrap();
        assert_eq!(path, record_path(&dir, "000000000000abcd"));
        let back = load(&path).unwrap();
        assert_eq!(back.trigger, "job-failed");
        assert_eq!(back.spans.len(), 2);
        assert!(back
            .spans
            .iter()
            .any(|s| !s.ok && s.detail.contains("exec.panic")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_dump_is_quarantined_on_load() {
        let dir = temp_dir("corrupt");
        let record = assemble(
            0xabcd,
            "fir/64",
            Trigger::SpanFailed,
            "",
            0.1,
            &[rec(1, 0, SpanKind::Job, true, "")],
            MetricsSnapshot::default(),
        );
        let path = dump(&dir, &record).unwrap();
        // Flip payload bytes without touching the footer.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("fir/64", "fir/99")).unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        assert!(!path.exists(), "corrupt dump must be moved aside");
        assert!(path.with_extension("json.corrupt").exists());
        // What could not be read was not proven corrupt: a directory
        // where a dump should be stays put, and so does nothing at all.
        let unreadable = dir.join("0000000000000001.json");
        std::fs::create_dir(&unreadable).unwrap();
        assert!(load(&unreadable).is_err());
        assert!(unreadable.is_dir(), "an unreadable path must be left alone");
        assert!(load(&dir.join("0000000000000002.json")).is_err());
        let corpses = std::fs::read_dir(&dir).unwrap().flatten();
        assert_eq!(
            corpses
                .filter(|e| e.file_name().to_string_lossy().contains(".corrupt"))
                .count(),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_dump_holds_every_span_the_collector_holds_for_the_job() {
        use gpu_telemetry::span;
        // More spans than the collector keeps for one job: its bound
        // is the only one a dump sees.
        let job = 0xf11e_0000_0000_0001;
        let root = span::start_job(job, "big");
        for _ in 0..1000 {
            span::emit(root, SpanKind::CacheProbe, "probe", true, "");
        }
        span::close(root.span, true, "");
        let held = span::job_records(job);
        assert!(
            (300..1001).contains(&held.len()),
            "the collector bounds a job's trail: {}",
            held.len()
        );
        let record = assemble(
            job,
            "big",
            Trigger::P99Latency,
            "",
            1.0,
            &held,
            MetricsSnapshot::default(),
        );
        assert_eq!(record.spans, held);
    }
}
