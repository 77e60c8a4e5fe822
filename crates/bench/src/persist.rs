//! Crash-safe artifact persistence: atomic writes, the checksum
//! footer, the one typed loader, and quarantine of corrupt files.
//!
//! Every whole-file artifact the bench stack persists (reference-cache
//! entries, `results/BENCH_*.json` reports, flight records) is framed,
//! verified and loaded here; append-only files of one checksummed line
//! per record are [`crate::journal`]'s:
//!
//! * **Atomic writes** ([`atomic_write`]) — content lands in a unique
//!   temporary file in the same directory, is fsync'd, and is renamed
//!   over the destination, with a best-effort directory fsync. A crash
//!   at any point leaves either the old file or the new file, never a
//!   torn mixture.
//! * **File framing** ([`frame`] / [`load`]) — a trailing footer line
//!   `{"photon_checksum":"<16 hex>"}` carries the FNV-1a hash of the
//!   payload bytes, so silent on-disk corruption is detected at load
//!   time. Unframed files (artifacts from before this scheme, e.g.
//!   committed baselines) still load, flagged as unverified.
//! * **One loader** — [`load`] reads, verifies and parses once. Every
//!   comparison of a stored footer with content is made here, over the
//!   bytes as read (never over a re-rendering of the parsed value);
//!   callers keep only their own schema/key check and their own
//!   quarantine policy.
//! * **Quarantine** ([`quarantine`]) — a corrupt artifact is renamed to
//!   `<name>.corrupt` instead of being deleted (evidence survives) or
//!   left in place (which would re-warn on every warm run). Only the
//!   owner of a generated artifact quarantines it; committed inputs
//!   (`results/baselines/`) and files of another tool's schema are
//!   never renamed.

use gpu_isa::fnv1a;
use gpu_telemetry::span::parse_job_hex;
use serde::Deserialize;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Marker key of the checksum footer line.
const FOOTER_KEY: &str = "photon_checksum";

/// Wraps a payload with its checksum footer line. The checksum (64-bit
/// FNV-1a, 16 hex characters) covers exactly the payload bytes, not the
/// separating newline.
pub fn frame(payload: &str) -> String {
    format!(
        "{payload}\n{{\"{FOOTER_KEY}\":\"{:016x}\"}}\n",
        fnv1a(payload.as_bytes())
    )
}

/// What a file frame carried: the payload — as text from
/// [`read_framed`], parsed from [`load`] — and whether a footer vouched
/// for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Framed<T> {
    /// The payload, footer stripped.
    pub payload: T,
    /// True when a checksum footer was present and matched; false for
    /// legacy unframed text accepted as-is (on the strength of its
    /// parse alone, when it was parsed).
    pub verified: bool,
}

/// Splits a checksum footer off `text`, verifying it when present:
/// the payload slice and whether a footer vouched for it.
///
/// Text without a recognizable footer is returned whole and unverified
/// (legacy artifacts predate the framing). A footer whose checksum does
/// not match the payload is a hard error — the file is corrupt and must
/// not be parsed.
fn split_frame(text: &str) -> Result<(&str, bool), String> {
    let trimmed = text.trim_end_matches(['\n', '\r']);
    let Some(footer_start) = trimmed.rfind('\n') else {
        return Ok((text, false));
    };
    let Some(stored) = parse_footer(trimmed[footer_start + 1..].trim()) else {
        // Last line is not a checksum footer: unframed legacy file.
        return Ok((text, false));
    };
    let payload = &trimmed[..footer_start];
    let actual = fnv1a(payload.as_bytes());
    if actual != stored {
        return Err(format!(
            "checksum mismatch: footer says {stored:016x}, content hashes to {actual:016x}"
        ));
    }
    Ok((payload, true))
}

/// Parses a footer line `{"photon_checksum":"<16 hex>"}`, tolerating
/// whitespace variations but nothing else: the checksum is exactly 16
/// ASCII hex digits, no sign (the job-id codec).
fn parse_footer(line: &str) -> Option<u64> {
    let inner = line.strip_prefix('{')?.strip_suffix('}')?.trim();
    let rest = inner
        .strip_prefix(&format!("\"{FOOTER_KEY}\""))?
        .trim_start()
        .strip_prefix(':')?
        .trim();
    parse_job_hex(rest.strip_prefix('"')?.strip_suffix('"')?)
}

/// Why a stored record did not load. The three cases call for three
/// different reactions, which is why they are a type and not a message:
/// nothing is there (recompute quietly), the host refused the read
/// (nothing can be said about the file — leave it), or bytes were read
/// and are not the record (the owner quarantines them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// No file at the path.
    Missing,
    /// The file exists but the read failed (rendered I/O error).
    Unreadable(String),
    /// Bytes were read but are not the record: invalid UTF-8, a
    /// checksum that does not match them, or a payload that does not
    /// parse as the requested type.
    Corrupt(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Missing => f.write_str("no such file"),
            LoadError::Unreadable(e) | LoadError::Corrupt(e) => f.write_str(e),
        }
    }
}

/// Reads a file as text, classifying the failure.
///
/// # Errors
/// [`LoadError::Missing`], [`LoadError::Unreadable`], or
/// [`LoadError::Corrupt`] when the bytes are not UTF-8.
pub fn read_text(path: &Path) -> Result<String, LoadError> {
    let bytes = std::fs::read(path).map_err(|e| match e.kind() {
        std::io::ErrorKind::NotFound => LoadError::Missing,
        _ => LoadError::Unreadable(e.to_string()),
    })?;
    String::from_utf8(bytes).map_err(|e| LoadError::Corrupt(e.to_string()))
}

/// Verifies `text`'s checksum footer (when it has one) and parses the
/// payload, once, as a `T`.
///
/// # Errors
/// Returns the checksum mismatch or the parse error, rendered.
pub fn decode<T: Deserialize>(text: &str) -> Result<Framed<T>, String> {
    let (payload, verified) = split_frame(text)?;
    let payload = serde_json::from_str(payload).map_err(|e| format!("unparseable ({e})"))?;
    Ok(Framed { payload, verified })
}

/// Loads a framed record: read, verify, parse once.
///
/// # Errors
/// See [`LoadError`]; nothing is moved or deleted whatever the outcome.
pub fn load<T: Deserialize>(path: &Path) -> Result<Framed<T>, LoadError> {
    decode(&read_text(path)?).map_err(LoadError::Corrupt)
}

/// Reads a file and splits/verifies its checksum frame, leaving the
/// payload unparsed.
///
/// # Errors
/// Returns a rendered I/O error or checksum mismatch (prefixed with the
/// path either way).
pub fn read_framed(path: &Path) -> Result<Framed<String>, String> {
    let in_path = |e: String| format!("{}: {e}", path.display());
    let text = read_text(path).map_err(|e| in_path(e.to_string()))?;
    let (payload, verified) = split_frame(&text).map_err(in_path)?;
    Ok(Framed {
        payload: payload.to_string(),
        verified,
    })
}

/// Distinguishes concurrent writers to the same destination: each gets
/// its own temporary file, and the last rename wins atomically.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `contents` to `path` atomically: unique temp file in the same
/// directory, fsync, rename over the destination, best-effort directory
/// fsync. Creates parent directories as needed.
///
/// # Errors
/// Returns the first I/O error (the temp file is cleaned up).
pub fn atomic_write(path: &Path, contents: &str) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    std::fs::create_dir_all(&parent)?;
    let base = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    let tmp = parent.join(format!(
        ".{base}.tmp-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let write = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return write;
    }
    // Durability of the rename itself: fsync the directory. Best-effort
    // (not all platforms/filesystems allow opening directories).
    if let Ok(dir) = std::fs::File::open(&parent) {
        let _ = dir.sync_all();
    }
    Ok(())
}

/// [`atomic_write`] of a checksum-framed payload. When the writing
/// thread is inside a traced job ([`gpu_telemetry::span::enter`]), the
/// write is wrapped in a `persist` span carrying the destination path
/// and any I/O failure.
///
/// # Errors
/// Returns the first I/O error.
pub fn atomic_write_framed(path: &Path, payload: &str) -> std::io::Result<()> {
    use gpu_telemetry::span::{self, SpanKind};
    let guard =
        span::current().map(|ctx| span::guard(ctx, SpanKind::Persist, &path.display().to_string()));
    let result = atomic_write(path, &frame(payload));
    if let Some(g) = guard {
        match &result {
            Ok(()) => g.finish(true, ""),
            Err(e) => g.finish(false, &e.to_string()),
        }
    }
    result
}

/// How many `.corrupt` corpses [`quarantine`] keeps per basename: the
/// newest at `<name>.corrupt`, the previous one at `<name>.corrupt.1`,
/// anything older deleted.
pub const QUARANTINE_KEEP: usize = 2;

/// Quarantines a corrupt artifact by renaming it to `<name>.corrupt`.
/// An existing quarantine is rotated to `<name>.corrupt.1` (replacing
/// any older corpse there), so repeated corruption of one artifact
/// keeps the newest [`QUARANTINE_KEEP`] corpses instead of either
/// replacing the only one or accumulating without bound. Returns the
/// quarantine path on success; warns and returns `None` when the rename
/// itself fails.
pub fn quarantine(path: &Path) -> Option<PathBuf> {
    let mut name = path.file_name()?.to_os_string();
    name.push(".corrupt");
    let dest = path.with_file_name(name);
    if dest.exists() {
        let mut aged = dest.file_name()?.to_os_string();
        aged.push(".1");
        let aged = dest.with_file_name(aged);
        // Replacing `.corrupt.1` drops the oldest corpse; a failed
        // rotation falls through to the plain replace below.
        let _ = std::fs::rename(&dest, &aged);
    }
    match std::fs::rename(path, &dest) {
        Ok(()) => Some(dest),
        Err(e) => {
            eprintln!(
                "warning: could not quarantine {} to {}: {e}",
                path.display(),
                dest.display()
            );
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "photon-persist-{}-{}-{tag}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn frame_roundtrips_and_verifies() {
        let payload = "{\n  \"x\": 1\n}";
        let framed = frame(payload);
        assert_eq!(split_frame(&framed), Ok((payload, true)));
    }

    #[test]
    fn unframed_text_loads_unverified() {
        assert_eq!(
            split_frame("{\n  \"x\": 1\n}"),
            Ok(("{\n  \"x\": 1\n}", false))
        );
        // Single-line unframed too.
        assert_eq!(split_frame("{\"x\":1}"), Ok(("{\"x\":1}", false)));
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let framed = frame("{\"x\": 1}");
        let tampered = framed.replace("\"x\": 1", "\"x\": 2");
        let err = split_frame(&tampered).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn footer_parsing_is_strict() {
        assert!(parse_footer("{\"photon_checksum\":\"0123456789abcdef\"}").is_some());
        assert!(parse_footer("{\"photon_checksum\": \"0123456789abcdef\"}").is_some());
        assert!(parse_footer("{\"photon_checksum\":\"123\"}").is_none());
        assert!(parse_footer("{\"other\":\"0123456789abcdef\"}").is_none());
        assert!(parse_footer("not json").is_none());
    }

    #[test]
    fn a_signed_footer_vouches_for_nothing() {
        // A payload whose checksum's top hex digit is 0, so that `+`
        // and its other 15 digits spell the checksum in 16 characters.
        let (payload, sum) = (0u32..)
            .map(|i| format!("{{\"v\": {i}}}"))
            .map(|p| {
                let sum = fnv1a(p.as_bytes());
                (p, sum)
            })
            .find(|(_, sum)| sum >> 60 == 0)
            .expect("one in sixteen payloads qualifies");
        let signed = format!("{payload}\n{{\"{FOOTER_KEY}\":\"+{sum:015x}\"}}\n");
        assert_eq!(split_frame(&signed), Ok((signed.as_str(), false)));
        // The same checksum unsigned verifies.
        let framed = frame(&payload);
        assert!(framed.contains(&format!("0{sum:015x}")));
        assert_eq!(split_frame(&framed), Ok((payload.as_str(), true)));
    }

    #[test]
    fn atomic_write_lands_content_and_framed_roundtrip() {
        let path = temp_path("aw").join("sub").join("f.json");
        atomic_write_framed(&path, "{\"v\": 7}").unwrap();
        let back = read_framed(&path).unwrap();
        assert!(back.verified);
        assert_eq!(back.payload, "{\"v\": 7}");
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(path.parent().unwrap().parent().unwrap()).ok();
    }

    #[test]
    fn load_distinguishes_missing_unreadable_and_corrupt() {
        let dir = temp_path("load");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v.json");
        assert_eq!(load::<Vec<u64>>(&path), Err(LoadError::Missing));
        // A directory is there but cannot be read as a file.
        assert!(matches!(
            load::<Vec<u64>>(&dir),
            Err(LoadError::Unreadable(_))
        ));

        atomic_write_framed(&path, "[1, 2, 3]").unwrap();
        assert_eq!(
            load::<Vec<u64>>(&path),
            Ok(Framed {
                payload: vec![1, 2, 3],
                verified: true,
            })
        );
        // Unframed text is accepted on the strength of its parse.
        std::fs::write(&path, "[4]").unwrap();
        let legacy = load::<Vec<u64>>(&path).unwrap();
        assert_eq!((legacy.payload, legacy.verified), (vec![4], false));

        // Corrupt, three ways: bytes that fail their checksum, bytes
        // that are not text, and intact text that is not the record.
        std::fs::write(&path, frame("[1, 2, 3]").replace('2', "7")).unwrap();
        match load::<Vec<u64>>(&path) {
            Err(LoadError::Corrupt(why)) => assert!(why.contains("checksum mismatch"), "{why}"),
            other => panic!("{other:?}"),
        }
        std::fs::write(&path, [b'[', 0xff, b']']).unwrap();
        assert!(matches!(
            load::<Vec<u64>>(&path),
            Err(LoadError::Corrupt(_))
        ));
        atomic_write_framed(&path, "{\"not\": \"a list\"}").unwrap();
        match load::<Vec<u64>>(&path) {
            Err(LoadError::Corrupt(why)) => assert!(why.contains("unparseable"), "{why}"),
            other => panic!("{other:?}"),
        }
        // Whatever the verdict, a load moves nothing.
        assert!(path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_renames_to_corrupt() {
        let dir = temp_path("q");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.json");
        std::fs::write(&path, "garbage").unwrap();
        let dest = quarantine(&path).unwrap();
        assert!(!path.exists());
        assert!(dest.exists());
        assert_eq!(
            dest.file_name().unwrap().to_string_lossy(),
            "entry.json.corrupt"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repeated_quarantines_keep_only_the_newest_two_corpses() {
        let dir = temp_path("qrot");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.json");
        for gen in 0..4 {
            std::fs::write(&path, format!("garbage-{gen}")).unwrap();
            quarantine(&path).unwrap();
        }
        // Newest corpse at .corrupt, previous at .corrupt.1, older gone.
        let newest = std::fs::read_to_string(dir.join("entry.json.corrupt")).unwrap();
        let aged = std::fs::read_to_string(dir.join("entry.json.corrupt.1")).unwrap();
        assert_eq!(newest, "garbage-3");
        assert_eq!(aged, "garbage-2");
        let corpses = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".corrupt"))
            .count();
        assert_eq!(corpses, QUARANTINE_KEEP);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn framed_write_emits_a_persist_span_inside_a_traced_job() {
        use gpu_telemetry::span::{self, SpanKind};
        let dir = temp_path("pspan");
        let job = 0xbeef_0000_0000_0001;
        let root = span::start_job(job, "persist-span");
        let scope = span::enter(root);
        atomic_write_framed(&dir.join("a.json"), "{\"v\":1}").unwrap();
        drop(scope);
        span::close(root.span, true, "");
        let records = span::job_records(job);
        let persist = records
            .iter()
            .find(|r| r.kind == SpanKind::Persist)
            .expect("persist span recorded");
        assert!(persist.ok);
        assert!(persist.label.ends_with("a.json"), "{}", persist.label);
        std::fs::remove_dir_all(&dir).ok();
    }
}
