//! The wire protocol: line-delimited JSON, one request object per line,
//! one response object per line.
//!
//! ## Grammar
//!
//! ```text
//! request  = submit | wait | fetch | cancel | stats | trace | shutdown
//! submit   = {"op":"submit", "spec": <RunSpec JSON>, "tenant": <string>?}
//! wait     = {"op":"wait",   "job": <job id>}
//! fetch    = {"op":"fetch",  "job": <job id>}
//! cancel   = {"op":"cancel", "job": <job id>}
//! stats    = {"op":"stats"}
//! trace    = {"op":"trace",  "job": <job id>}
//! shutdown = {"op":"shutdown"}
//! ```
//!
//! `trace` (protocol v2) is the one view of a job: its state, its
//! `sim.*` progress counters and its flat span list — the trace minted
//! at submit ([`span::start_job`]) and threaded through the scheduler,
//! executor, and engine — with phase and failure rollups. `wait` blocks
//! until the job is terminal and answers once. `stats` is the server's
//! one view of itself: lane depths, the running count, the live jobs
//! and the registry of what accumulates across jobs. An op the grammar
//! does not name, `status` and `metrics` included, is a 400.
//!
//! A `tenant` is a label the server echoes in the `stats` jobs view and
//! keeps in the pending journal; it names no counter. It is input from
//! outside, so it is bounded: at most [`MAX_TENANT_BYTES`] bytes of
//! `[A-Za-z0-9_-]`.
//!
//! A job id is the spec's [`photon_bench::journal_key`] rendered as
//! exactly 16 hex digits ([`span::job_hex`]; [`span::parse_job_hex`]
//! refuses anything else). Identical submissions share one id by
//! construction, which is what makes coalescing visible to clients.
//!
//! Responses carry `"ok": true` plus op-specific fields, or
//! `"ok": false` with `"code"` (HTTP-flavored: 400 bad request, 404
//! unknown job, 409 not cancellable, 429 queue full, 503 draining) and
//! `"error"`. A 429 includes `"retry_after_ms"`, the server's estimate
//! of when the queue will have room.
//!
//! `spec` accepts a [`RunSpec`]'s serde JSON rendering verbatim — the
//! same text `serde_json::to_string(&spec)` produces.

use gpu_telemetry::span;
use photon_bench::RunSpec;
use serde::Deserialize;
use serde_json::Value;

/// Version stamped into `stats` responses and the pending-jobs journal;
/// bumped when the wire format changes incompatibly. v2 added the
/// `trace` op.
pub const PROTOCOL_VERSION: u32 = 2;

/// The longest tenant name `submit` accepts.
pub const MAX_TENANT_BYTES: usize = 64;

/// One parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Enqueue (or join) a job.
    Submit {
        /// What to simulate (boxed: specs dwarf every other variant).
        spec: Box<RunSpec>,
        /// Who submitted it, a label in `stats` (default `"anon"`).
        tenant: String,
    },
    /// Block until the job reaches a terminal state; one status line.
    Wait {
        /// Job id from a `submit` response.
        job: u64,
    },
    /// The completed job's report.
    Fetch {
        /// Job id from a `submit` response.
        job: u64,
    },
    /// Remove a queued job (or detach one subscriber from it).
    Cancel {
        /// Job id from a `submit` response.
        job: u64,
    },
    /// Lane depths, running count, live jobs and server counters.
    Stats,
    /// The job's state, progress counters and correlated span list.
    Trace {
        /// Job id from a `submit` response.
        job: u64,
    },
    /// Graceful drain: finish in-flight jobs, journal queued ones, exit.
    Shutdown,
}

fn str_field(v: &Value, name: &str) -> Option<String> {
    match v.get(name) {
        Some(Value::String(s)) => Some(s.clone()),
        _ => None,
    }
}

fn job_field(v: &Value) -> Result<u64, String> {
    let s = str_field(v, "job").ok_or("missing string field \"job\"")?;
    span::parse_job_hex(&s).ok_or_else(|| format!("bad job id {s:?} (expected 16 hex digits)"))
}

/// Parses one request line.
///
/// # Errors
/// Returns a human-readable description of what is malformed — the
/// server sends it back as a 400 response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("bad JSON: {e}"))?;
    let op = str_field(&v, "op").ok_or("missing string field \"op\"")?;
    match op.as_str() {
        "submit" => {
            let spec_value = v.get("spec").ok_or("submit: missing field \"spec\"")?;
            let spec =
                RunSpec::deserialize(spec_value).map_err(|e| format!("submit: bad spec: {e}"))?;
            let tenant = str_field(&v, "tenant").unwrap_or_else(|| "anon".to_string());
            let charset = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
            if tenant.is_empty() || tenant.len() > MAX_TENANT_BYTES || !tenant.chars().all(charset)
            {
                return Err(format!(
                    "submit: bad tenant {tenant:?} (1-{MAX_TENANT_BYTES} bytes of [A-Za-z0-9_-])"
                ));
            }
            Ok(Request::Submit {
                spec: Box::new(spec),
                tenant,
            })
        }
        "wait" => Ok(Request::Wait {
            job: job_field(&v)?,
        }),
        "fetch" => Ok(Request::Fetch {
            job: job_field(&v)?,
        }),
        "cancel" => Ok(Request::Cancel {
            job: job_field(&v)?,
        }),
        "stats" => Ok(Request::Stats),
        "trace" => Ok(Request::Trace {
            job: job_field(&v)?,
        }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Builds an error response value.
pub fn error_response(code: u32, error: &str) -> Value {
    serde_json::json!({
        "ok": false,
        "code": code,
        "error": error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuConfig;
    use gpu_telemetry::span::job_hex;
    use gpu_workloads::registry::Benchmark;
    use photon_bench::Method;

    #[test]
    fn submit_round_trips_a_spec() {
        let spec = RunSpec::bench(GpuConfig::tiny(), Benchmark::Fir, 64, Method::Full);
        let line = format!(
            "{{\"op\":\"submit\",\"spec\":{},\"tenant\":\"t1\"}}",
            serde_json::to_string(&spec).unwrap()
        );
        match parse_request(&line).unwrap() {
            Request::Submit {
                spec: parsed,
                tenant,
            } => {
                assert_eq!(*parsed, spec);
                assert_eq!(tenant, "t1");
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn job_ops_parse_hex_ids() {
        let line = format!("{{\"op\":\"fetch\",\"job\":\"{}\"}}", job_hex(0xabcdef));
        match parse_request(&line).unwrap() {
            Request::Fetch { job } => assert_eq!(job, 0xabcdef),
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn v2_ops_parse() {
        let line = format!("{{\"op\":\"trace\",\"job\":\"{}\"}}", job_hex(0x1234));
        match parse_request(&line).unwrap() {
            Request::Trace { job } => assert_eq!(job, 0x1234),
            other => panic!("parsed {other:?}"),
        }
        assert!(parse_request("{\"op\":\"trace\"}").is_err());
    }

    #[test]
    fn tenant_names_are_bounded_to_a_counter_safe_charset() {
        let spec = RunSpec::bench(GpuConfig::tiny(), Benchmark::Fir, 64, Method::Full);
        let submit = |tenant: &str| {
            let line = serde_json::json!({"op": "submit", "spec": spec, "tenant": tenant});
            parse_request(&serde_json::to_string(&line).unwrap())
        };
        for ok in [
            "client-7",
            "t0",
            "chaos",
            "exemplar",
            "fixture-tenant",
            "A_z-9",
        ] {
            assert!(submit(ok).is_ok(), "{ok:?} refused");
        }
        assert!(submit(&"a".repeat(MAX_TENANT_BYTES)).is_ok());
        assert!(submit(&"a".repeat(MAX_TENANT_BYTES + 1)).is_err());
        for bad in ["", "a.b", "a b", "x}", "t\n", "é"] {
            let err = submit(bad).expect_err(bad);
            assert!(err.contains("bad tenant"), "{err}");
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"op\":\"teleport\"}").is_err());
        assert!(parse_request("{\"op\":\"metrics\"}").is_err());
        assert!(parse_request("{\"op\":\"status\",\"job\":\"00000000000000ff\"}").is_err());
        assert!(parse_request("{\"op\":\"fetch\"}").is_err());
        assert!(parse_request("{\"op\":\"fetch\",\"job\":\"zz\"}").is_err());
        assert!(parse_request("{\"op\":\"fetch\",\"job\":\"abc\"}").is_err());
        assert!(parse_request("{\"op\":\"fetch\",\"job\":\"+00000000000abcd\"}").is_err());
        assert!(parse_request("{\"op\":\"submit\"}").is_err());
        assert!(parse_request("{\"op\":\"submit\",\"spec\":{\"bogus\":1}}").is_err());
    }
}
