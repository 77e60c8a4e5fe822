//! A small blocking client for the photon-serve protocol — what the
//! integration tests (the serve gate among them) and the benchmark
//! drive the server with.

use photon_bench::RunSpec;
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// One connection to a photon-serve server.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

fn bool_field(v: &Value, name: &str) -> bool {
    matches!(v.get(name), Some(Value::Bool(true)))
}

fn str_of(v: &Value, name: &str) -> Option<String> {
    match v.get(name) {
        Some(Value::String(s)) => Some(s.clone()),
        _ => None,
    }
}

impl Client {
    /// Connects to `addr` (`host:port`).
    ///
    /// # Errors
    /// Returns the connect error.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Requests and responses are single short lines; Nagle only
        // adds latency here.
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request object and reads one response line.
    ///
    /// # Errors
    /// Returns I/O errors or a rendered parse error.
    pub fn request(&mut self, req: &Value) -> std::io::Result<Value> {
        let mut text =
            serde_json::to_string(req).map_err(|e| std::io::Error::other(e.to_string()))?;
        text.push('\n');
        self.writer.write_all(text.as_bytes())?;
        self.read_line()
    }

    fn read_line(&mut self) -> std::io::Result<Value> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            if !line.trim().is_empty() {
                break;
            }
        }
        serde_json::from_str(line.trim())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Submits a spec; returns the raw response (`job`, `state`, and
    /// possibly `coalesced`/`cached` or a 429/503 rejection).
    ///
    /// # Errors
    /// Returns I/O errors.
    pub fn submit(&mut self, spec: &RunSpec, tenant: &str) -> std::io::Result<Value> {
        self.request(&serde_json::json!({
            "op": "submit",
            "spec": spec,
            "tenant": tenant,
        }))
    }

    /// Blocks until `job` finishes, discarding streamed progress
    /// events; returns the final response — a status line (`ok`, `job`,
    /// `state`, `origin`, `wall_secs`; the last two null for a cancelled
    /// job). The report itself comes from [`Client::fetch`].
    ///
    /// # Errors
    /// Returns I/O errors.
    pub fn wait(&mut self, job: &str) -> std::io::Result<Value> {
        let mut text = format!("{{\"op\":\"wait\",\"job\":\"{job}\"}}");
        text.push('\n');
        self.writer.write_all(text.as_bytes())?;
        loop {
            let v = self.read_line()?;
            // Progress events carry "event":"progress"; the final line
            // carries "ok".
            if str_of(&v, "event").as_deref() == Some("progress") {
                continue;
            }
            return Ok(v);
        }
    }

    /// Fetches a finished job's report.
    ///
    /// # Errors
    /// Returns I/O errors.
    pub fn fetch(&mut self, job: &str) -> std::io::Result<Value> {
        self.request(&serde_json::json!({ "op": "fetch", "job": job }))
    }

    /// Cancels (or detaches from) a job.
    ///
    /// # Errors
    /// Returns I/O errors.
    pub fn cancel(&mut self, job: &str) -> std::io::Result<Value> {
        self.request(&serde_json::json!({ "op": "cancel", "job": job }))
    }

    /// Server-wide stats.
    ///
    /// # Errors
    /// Returns I/O errors.
    pub fn stats(&mut self) -> std::io::Result<Value> {
        self.request(&serde_json::json!({ "op": "stats" }))
    }

    /// A job's correlated span tree (protocol v2 `trace` op).
    ///
    /// # Errors
    /// Returns I/O errors.
    pub fn trace(&mut self, job: &str) -> std::io::Result<Value> {
        self.request(&serde_json::json!({ "op": "trace", "job": job }))
    }

    /// The server's metrics in Prometheus text exposition format
    /// (protocol v2 `metrics` op): the multi-line exposition text is
    /// unwrapped from the response's `"body"` field.
    ///
    /// # Errors
    /// Returns I/O errors, or `InvalidData` when the response carries
    /// no body.
    pub fn metrics(&mut self) -> std::io::Result<String> {
        let v = self.request(&serde_json::json!({ "op": "metrics" }))?;
        match v.get("body") {
            Some(Value::String(s)) => Ok(s.clone()),
            _ => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "metrics response has no body",
            )),
        }
    }

    /// Requests graceful drain.
    ///
    /// # Errors
    /// Returns I/O errors.
    pub fn shutdown(&mut self) -> std::io::Result<Value> {
        self.request(&serde_json::json!({ "op": "shutdown" }))
    }
}

/// Whether a response is a success (`"ok": true`).
pub fn response_ok(v: &Value) -> bool {
    bool_field(v, "ok")
}

/// The `job` field of a response, if present.
pub fn response_job(v: &Value) -> Option<String> {
    str_of(v, "job")
}
