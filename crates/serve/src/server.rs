//! The TCP front end: a nonblocking acceptor loop, one lightweight
//! thread per connection, worker threads running
//! [`Scheduler::worker_loop`], and graceful drain on SIGTERM / ctrl-c
//! (or the `shutdown` op).
//!
//! There is deliberately no async runtime: the build environment has no
//! network access for dependencies, and a hand-rolled acceptor over
//! `std::net::TcpListener` with short poll intervals is entirely
//! adequate for a job server whose unit of work is a simulation taking
//! milliseconds to minutes.

use crate::protocol::{self, error_response, Request};
use crate::scheduler::{Phase, Scheduler, ServeOptions, Submitted};
use gpu_telemetry::span::job_hex;
use photon_bench::harness::RunOutcome;
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often a `wait` handler re-checks for a drain while its job is
/// live.
const WAIT_POLL: Duration = Duration::from_millis(100);

/// How often the acceptor re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(50);

#[cfg(unix)]
mod sig {
    //! SIGTERM / SIGINT handling without a `libc` dependency: `signal`
    //! is declared directly (std already links libc on unix) and the
    //! handler only stores to an atomic — the only async-signal-safe
    //! thing it could do anyway.

    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by the signal handler; polled by the acceptor loop.
    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    /// Installs the handler for SIGINT (2) and SIGTERM (15).
    pub fn install() {
        unsafe {
            signal(2, on_signal as *const () as usize);
            signal(15, on_signal as *const () as usize);
        }
    }
}

/// A running server: listener + scheduler + shutdown plumbing.
pub struct Server {
    listener: TcpListener,
    scheduler: Arc<Scheduler>,
    shutdown: Arc<AtomicBool>,
    workers: usize,
    /// Pending-jobs journal path (drain writes it, startup resumes it).
    pending: Option<PathBuf>,
}

/// A handle that trips a running server's shutdown flag from another
/// thread (tests and the `shutdown` op use it; signals use the same
/// flag).
#[derive(Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Requests graceful drain.
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

impl Server {
    /// Binds `addr` (port 0 picks an ephemeral port) and prepares a
    /// scheduler with `opts`. If `pending` names a journal written by a
    /// previous drain, its jobs are re-enqueued before any connection
    /// is accepted.
    ///
    /// # Errors
    /// Returns the bind error.
    pub fn bind(
        addr: &str,
        opts: ServeOptions,
        pending: Option<PathBuf>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let workers = opts.workers.max(1);
        let scheduler = Arc::new(Scheduler::new(opts));
        if let Some(p) = &pending {
            let (resumed, corrupt) = scheduler.resume_pending_from(p);
            if resumed + corrupt > 0 {
                eprintln!(
                    "photon-serve: resumed {resumed} drained job(s) from {} ({corrupt} corrupt line(s) skipped)",
                    p.display()
                );
            }
        }
        Ok(Server {
            listener,
            scheduler,
            shutdown: Arc::new(AtomicBool::new(false)),
            workers,
            pending,
        })
    }

    /// The bound address (read the ephemeral port from here).
    ///
    /// # Errors
    /// Returns the underlying socket error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The scheduler (tests inspect its telemetry directly).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// A handle that makes [`run`](Self::run) return gracefully.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shutdown))
    }

    /// Installs SIGTERM/SIGINT handlers that trigger graceful drain of
    /// this (and any) server whose `run` loop is active. Call once from
    /// the binary, not from tests.
    pub fn install_signal_handlers(&self) {
        #[cfg(unix)]
        {
            sig::install();
        }
    }

    /// Serves until shutdown is requested (signal, handle, or
    /// `shutdown` op), then drains: stop accepting, finish in-flight
    /// jobs, journal still-queued ones. Returns the number of jobs
    /// drained to the pending journal.
    ///
    /// # Errors
    /// Returns acceptor I/O errors other than `WouldBlock`.
    pub fn run(&self) -> std::io::Result<usize> {
        let mut conn_threads = Vec::new();
        loop {
            let stop = self.shutdown.load(Ordering::SeqCst) || {
                #[cfg(unix)]
                {
                    sig::SHUTDOWN.load(Ordering::SeqCst)
                }
                #[cfg(not(unix))]
                {
                    false
                }
            };
            if stop {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    let scheduler = Arc::clone(&self.scheduler);
                    let shutdown = Arc::clone(&self.shutdown);
                    conn_threads.push(
                        std::thread::Builder::new()
                            .name("serve-conn".to_string())
                            .spawn(move || handle_connection(stream, &scheduler, &shutdown))?,
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) => return Err(e),
            }
        }

        // The accept loop may have stopped on the process-wide signal
        // flag; mirror it into this server's own flag so connection
        // handlers (which poll only the Arc) and `wait`ers on queued
        // jobs observe the drain instead of spinning forever.
        self.shutdown.store(true, Ordering::SeqCst);

        // Graceful drain: no new work, finish in-flight, journal the
        // rest so a restarted server resumes them.
        self.scheduler.begin_drain();
        self.scheduler.await_idle();
        let drained = match &self.pending {
            Some(p) => self.scheduler.drain_pending_to(p)?,
            None => 0,
        };
        for t in conn_threads {
            let _ = t.join();
        }
        Ok(drained)
    }

    /// Spawns the scheduler's worker threads (call once, before or
    /// after `run` — submissions queue either way). The threads exit
    /// when drain begins; the returned handles join them.
    pub fn spawn_workers(&self) -> Vec<std::thread::JoinHandle<()>> {
        (0..self.workers)
            .map(|i| {
                let scheduler = Arc::clone(&self.scheduler);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || scheduler.worker_loop())
                    .expect("spawning a worker thread")
            })
            .collect()
    }
}

fn write_line(stream: &mut TcpStream, v: &Value) -> std::io::Result<()> {
    let mut text = serde_json::to_string(v).map_err(|e| std::io::Error::other(e.to_string()))?;
    text.push('\n');
    stream.write_all(text.as_bytes())
}

fn submit_response(submitted: &Submitted) -> Value {
    match submitted {
        Submitted::Queued { id, lane } => serde_json::json!({
            "ok": true,
            "job": job_hex(*id),
            "state": "queued",
            "lane": *lane,
        }),
        Submitted::Coalesced { id, phase } => serde_json::json!({
            "ok": true,
            "job": job_hex(*id),
            "state": phase.name(),
            "coalesced": true,
        }),
        Submitted::Cached { id } => serde_json::json!({
            "ok": true,
            "job": job_hex(*id),
            "state": "done",
            "cached": true,
        }),
        Submitted::Rejected { retry_after_ms } => serde_json::json!({
            "ok": false,
            "code": 429u32,
            "error": "queue full",
            "retry_after_ms": *retry_after_ms,
        }),
        Submitted::Draining => error_response(503, "server is draining"),
    }
}

fn outcome_response(id: u64, result: &crate::scheduler::JobResult) -> Value {
    let report = match &result.outcome {
        RunOutcome::Completed(m) => serde_json::json!({
            "completed": true,
            "measurement": m,
        }),
        RunOutcome::Skipped {
            workload,
            method,
            reason,
            ..
        } => serde_json::json!({
            "completed": false,
            "workload": workload,
            "method": method,
            "reason": reason,
        }),
    };
    serde_json::json!({
        "ok": true,
        "job": job_hex(id),
        "origin": result.origin,
        "wall_secs": result.wall_secs,
        "report": report,
        "metrics": result.metrics,
    })
}

/// `v` with `"ok": true` as its first field.
fn ok_first(mut v: Value) -> Value {
    if let Value::Object(fields) = &mut v {
        fields.insert(0, ("ok".to_string(), Value::Bool(true)));
    }
    v
}

/// Serves one connection: read request lines, write response lines,
/// until the peer hangs up or shutdown is requested: one line in, one
/// line out.
fn handle_connection(stream: TcpStream, scheduler: &Scheduler, shutdown: &AtomicBool) {
    // A read timeout lets idle connections notice shutdown.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut writer = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match reader.read_line(&mut line) {
            Ok(0) => return, // peer closed
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // A timed-out read may have appended a request prefix to
                // `line` (read_line keeps bytes read so far); leave it
                // in place so the next read resumes the same line.
                continue;
            }
            Err(_) => return,
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            line.clear();
            continue;
        }
        let response = match protocol::parse_request(trimmed) {
            Err(why) => error_response(400, &why),
            Ok(Request::Submit { spec, tenant }) => {
                submit_response(&scheduler.submit(*spec, &tenant))
            }
            Ok(Request::Wait { job }) => loop {
                match scheduler.wait_step(job, WAIT_POLL) {
                    None => break error_response(404, "unknown job"),
                    Some(phase) if phase.terminal() => {
                        // A status, not the body: `fetch` ships the
                        // report, once, to whoever asks for it. A
                        // cancelled job has no result: nulls.
                        let done = scheduler.fetch(job);
                        break serde_json::json!({
                            "ok": true,
                            "job": job_hex(job),
                            "state": phase.name(),
                            "origin": done.as_ref().map(|r| r.origin),
                            "wall_secs": done.as_ref().map(|r| r.wall_secs),
                        });
                    }
                    Some(Phase::Queued) if shutdown.load(Ordering::SeqCst) => {
                        // The server is draining: this job will not run
                        // now; it is journaled for the next server.
                        // Unblock the waiter.
                        break serde_json::json!({
                            "ok": false,
                            "code": 503u32,
                            "error": "server draining; job journaled for resume",
                            "job": job_hex(job),
                            "state": Phase::Queued.name(),
                        });
                    }
                    Some(_) => {}
                }
            },
            Ok(Request::Fetch { job }) => match scheduler.fetch(job) {
                Some(result) => outcome_response(job, &result),
                None => match scheduler.wait_step(job, Duration::ZERO) {
                    Some(Phase::Cancelled) => {
                        error_response(409, "job was cancelled — resubmit it to run it")
                    }
                    Some(phase) => {
                        error_response(409, &format!("job is {} — not fetchable yet", phase.name()))
                    }
                    None => error_response(404, "unknown job"),
                },
            },
            Ok(Request::Cancel { job }) => match scheduler.cancel(job) {
                Some(removed) => serde_json::json!({
                    "ok": true,
                    "job": job_hex(job),
                    "cancelled": removed,
                }),
                None => error_response(404, "unknown job"),
            },
            Ok(Request::Stats) => ok_first(scheduler.stats()),
            Ok(Request::Trace { job }) => match scheduler.trace(job) {
                Some(v) => ok_first(v),
                None => error_response(404, "unknown job (no spans recorded)"),
            },
            Ok(Request::Shutdown) => {
                shutdown.store(true, Ordering::SeqCst);
                serde_json::json!({ "ok": true, "draining": true })
            }
        };
        line.clear();
        if write_line(&mut writer, &response).is_err() {
            return;
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Regression: a SIGTERM-style shutdown (the process-global signal
    /// flag, not this server's handle) must propagate to connection
    /// handlers — `run` must return even with a client still connected,
    /// instead of blocking forever on its join.
    #[test]
    fn signal_flag_shutdown_drains_with_connected_client() {
        let server =
            Arc::new(Server::bind("127.0.0.1:0", ServeOptions::default(), None).expect("bind"));
        let addr = server.local_addr().expect("addr");
        let srv = Arc::clone(&server);
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(srv.run());
        });
        // An idle connected client whose handler polls only the Arc flag.
        let _client = TcpStream::connect(addr).expect("connect");
        std::thread::sleep(Duration::from_millis(100));
        sig::SHUTDOWN.store(true, Ordering::SeqCst);
        let drained = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("run() must return after the signal flag trips")
            .expect("run");
        assert_eq!(drained, 0);
        sig::SHUTDOWN.store(false, Ordering::SeqCst);
    }
}
