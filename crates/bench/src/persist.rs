//! Crash-safe artifact persistence: atomic writes, content checksums,
//! and quarantine of corrupt files.
//!
//! Every artifact the bench stack persists (reference-cache entries,
//! `results/BENCH_*.json` reports, journal lines) goes through this
//! module:
//!
//! * **Atomic writes** ([`atomic_write`]) — content lands in a unique
//!   temporary file in the same directory, is fsync'd, and is renamed
//!   over the destination, with a best-effort directory fsync. A crash
//!   at any point leaves either the old file or the new file, never a
//!   torn mixture.
//! * **Checksum framing** ([`frame`] / [`read_framed`]) — a trailing
//!   footer line `{"photon_checksum":"<16 hex>"}` carries the FNV-1a
//!   hash of the payload bytes, so silent on-disk corruption is
//!   detected at load time. Unframed files (artifacts from before this
//!   scheme, e.g. committed baselines) still load, flagged as
//!   unverified.
//! * **Quarantine** ([`quarantine`]) — a corrupt artifact is renamed to
//!   `<name>.corrupt` instead of being deleted (evidence survives) or
//!   left in place (which would re-warn on every warm run). Only the
//!   owner of a generated artifact quarantines it; committed inputs
//!   (`results/baselines/`) and files of another tool's schema are
//!   never renamed.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Marker key of the checksum footer line.
const FOOTER_KEY: &str = "photon_checksum";

/// Content checksum used by the framing: 64-bit FNV-1a, hex-rendered to
/// 16 characters in the footer.
pub fn checksum(bytes: &[u8]) -> u64 {
    gpu_isa::fnv1a(bytes)
}

/// Wraps a payload with its checksum footer line. The checksum covers
/// exactly the payload bytes (not the separating newline).
pub fn frame(payload: &str) -> String {
    format!(
        "{payload}\n{{\"{FOOTER_KEY}\":\"{:016x}\"}}\n",
        checksum(payload.as_bytes())
    )
}

/// A payload read back through [`read_framed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FramedPayload {
    /// The payload text with the footer stripped.
    pub payload: String,
    /// True when a checksum footer was present and matched; false for
    /// legacy unframed files accepted as-is.
    pub verified: bool,
}

/// Splits a checksum footer off `text`, verifying it when present.
///
/// Files without a recognizable footer are returned whole and
/// unverified (legacy artifacts predate the framing). A footer whose
/// checksum does not match the payload is a hard error — the file is
/// corrupt and must not be parsed.
///
/// # Errors
/// Returns a rendered message on checksum mismatch.
pub fn split_frame(text: &str) -> Result<FramedPayload, String> {
    let trimmed = text.trim_end_matches(['\n', '\r']);
    let footer_start = match trimmed.rfind('\n') {
        Some(i) => i,
        None => {
            return Ok(FramedPayload {
                payload: text.to_string(),
                verified: false,
            })
        }
    };
    let footer = trimmed[footer_start + 1..].trim();
    let Some(stored) = parse_footer(footer) else {
        // Last line is not a checksum footer: unframed legacy file.
        return Ok(FramedPayload {
            payload: text.to_string(),
            verified: false,
        });
    };
    let payload = &trimmed[..footer_start];
    let actual = checksum(payload.as_bytes());
    if actual != stored {
        return Err(format!(
            "checksum mismatch: footer says {stored:016x}, content hashes to {actual:016x}"
        ));
    }
    Ok(FramedPayload {
        payload: payload.to_string(),
        verified: true,
    })
}

/// Parses a footer line `{"photon_checksum":"<16 hex>"}`, tolerating
/// whitespace variations but nothing else.
fn parse_footer(line: &str) -> Option<u64> {
    let inner = line.strip_prefix('{')?.strip_suffix('}')?.trim();
    let rest = inner
        .strip_prefix(&format!("\"{FOOTER_KEY}\""))?
        .trim_start()
        .strip_prefix(':')?
        .trim();
    let hex = rest.strip_prefix('"')?.strip_suffix('"')?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Reads a file and splits/verifies its checksum frame.
///
/// # Errors
/// Returns a rendered I/O error or checksum mismatch (prefixed with the
/// path either way).
pub fn read_framed(path: &Path) -> Result<FramedPayload, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    split_frame(&text).map_err(|e| format!("{}: {e}", path.display()))
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
        let back = split_frame(&framed).unwrap();
        assert!(back.verified);
        assert_eq!(back.payload, payload);
    }

    #[test]
    fn unframed_text_loads_unverified() {
        let back = split_frame("{\n  \"x\": 1\n}").unwrap();
        assert!(!back.verified);
        assert_eq!(back.payload, "{\n  \"x\": 1\n}");
        // Single-line unframed too.
        let back = split_frame("{\"x\":1}").unwrap();
        assert!(!back.verified);
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
