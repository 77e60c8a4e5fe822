//! Always-on correlated job spans: the observability layer the serve
//! stack reads its evidence from.
//!
//! Every job admitted to the stack gets a [`TraceCtx`] — the 16-hex job
//! id plus a monotonically increasing span id — minted at submission and
//! threaded through the scheduler, the executor, and the engine's epoch
//! loop. Code along the path opens typed spans ([`SpanKind`]) against
//! the context. Unlike the deep kernel tracer in [`crate::trace`] (per
//! simulated event, recording only once a ring is attached), this layer
//! is **always recording**: spans are coarse (one per phase, not per
//! simulated event) so the cost is a few dozen records per job.
//!
//! There is one collector behind one mutex: the list of **open** spans
//! and the **closed** ones, kept per job — every read is of one job's
//! trail — as a bounded ring each: the newest 512 of a job, 4 096 over
//! all jobs, the job published to least recently going first, whole.
//! Opening a span is one lock, closing it another — the record moves
//! from the list to its job's ring under that lock, so a span is always
//! in exactly one of the two and a reader never has to reconcile them.
//! Because open spans are in no ring, overflow can never drop a
//! still-open root span — an in-flight job is always visible to
//! `photon-top` no matter how many closed spans have wrapped past it;
//! because a ring belongs to a job and not to a thread, a job's spans
//! outlive the (short-lived) run thread that emitted them; and because
//! a job wraps only its own ring, a flood of spans on one job leaves
//! every other job's trail as it was. Snapshot readers
//! ([`job_records`]) clone that one job's records, sorted by id.

use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// How many closed spans the collector keeps per job (the newest win) …
const JOB_CAPACITY: usize = 512;
/// … and over all jobs.
const CLOSED_CAPACITY: usize = 8 * JOB_CAPACITY;

/// Recovers a poisoned lock: span state is plain data, always valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The span vocabulary. One variant per phase of a job's life; the
/// wire/report name is [`SpanKind::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpanKind {
    /// Root span: submit to terminal state.
    Job,
    /// Sitting in a scheduler lane waiting for a worker.
    Queued,
    /// Instantaneous: a duplicate submission attached to this job.
    Coalesced,
    /// Result-store / reference-cache lookup.
    CacheProbe,
    /// One simulation attempt (the executor's run thread).
    Sim,
    /// Aggregate host time spent in epoch-barrier serial sections.
    EpochBarrier,
    /// Aggregate host time spent servicing memory-port traffic.
    MemService,
    /// Writing an artifact through the persist layer.
    Persist,
}

impl SpanKind {
    /// Every kind, in lifecycle order.
    pub const ALL: [SpanKind; 8] = [
        SpanKind::Job,
        SpanKind::Queued,
        SpanKind::Coalesced,
        SpanKind::CacheProbe,
        SpanKind::Sim,
        SpanKind::EpochBarrier,
        SpanKind::MemService,
        SpanKind::Persist,
    ];

    /// The stable kebab-case name used in reports and dumps.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Job => "job",
            SpanKind::Queued => "queued",
            SpanKind::Coalesced => "coalesced",
            SpanKind::CacheProbe => "cache-probe",
            SpanKind::Sim => "sim",
            SpanKind::EpochBarrier => "epoch-barrier",
            SpanKind::MemService => "mem-service",
            SpanKind::Persist => "persist",
        }
    }
}

/// One span: a named, timed phase of one job. `start_us`/`dur_us` are
/// host-monotonic microseconds since process start — wall-clock
/// observation only, never fed back into simulation state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Owning job (the 16-hex journal key, as a u64).
    pub job: u64,
    /// Unique, process-monotonic span id.
    pub id: u64,
    /// Parent span id; 0 for a root span.
    pub parent: u64,
    /// Phase type.
    pub kind: SpanKind,
    /// Human label (benchmark name, artifact path, lane, ...).
    pub label: String,
    /// Microseconds since process start at open.
    pub start_us: u64,
    /// Duration in microseconds (elapsed-so-far for open spans).
    pub dur_us: u64,
    /// Still in flight (snapshot of an unclosed span).
    pub open: bool,
    /// False when the phase failed (panic, fault, timeout, corruption).
    pub ok: bool,
    /// Failure reason or phase-specific note ("hit", "miss", ...).
    pub detail: String,
}

/// The correlation handle threaded through the request path: the job id
/// plus the span the caller is currently inside (new child spans attach
/// to it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Owning job id.
    pub job: u64,
    /// Span id new children should parent to.
    pub span: u64,
}

// ---------------------------------------------------------------------
// The collector. Const-constructible (same discipline as `faults`): no
// lazy allocation on the hot path beyond the records and their rings.
// ---------------------------------------------------------------------

/// Process-monotonic span id allocator (0 is reserved for "no parent").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

struct Collector {
    /// Spans opened but not yet closed. In no ring, so overflow can
    /// never drop an open span.
    open: Vec<SpanRecord>,
    /// Closed spans by job: when the job was last published to, and
    /// its newest `JOB_CAPACITY` records, oldest first.
    closed: BTreeMap<u64, (u64, VecDeque<SpanRecord>)>,
    /// Records published so far: the recency clock.
    published: u64,
    /// Records held in `closed` now, at most `CLOSED_CAPACITY`.
    held: usize,
}

impl Collector {
    const fn new() -> Collector {
        Collector {
            open: Vec::new(),
            closed: BTreeMap::new(),
            published: 0,
            held: 0,
        }
    }

    /// Appends a closed span to its job's ring, wrapping that ring at
    /// `JOB_CAPACITY`; over `CLOSED_CAPACITY` in all, the job published
    /// to least recently goes, whole — a trail is its job's newest
    /// spans or nothing, never what a stranger's flood left of it.
    fn publish(&mut self, rec: SpanRecord) {
        let job = rec.job;
        self.published += 1;
        let (stamp, ring) = self.closed.entry(job).or_default();
        *stamp = self.published;
        if ring.len() == JOB_CAPACITY {
            ring.pop_front();
        } else {
            self.held += 1;
        }
        ring.push_back(rec);
        while self.held > CLOSED_CAPACITY {
            // A job holds at most JOB_CAPACITY < CLOSED_CAPACITY, so
            // some other job is there to go.
            let stalest = self.closed.iter().filter(|(j, _)| **j != job);
            let Some(victim) = stalest.min_by_key(|(_, (at, _))| *at).map(|(j, _)| *j) else {
                break;
            };
            self.held -= self
                .closed
                .remove(&victim)
                .map_or(0, |(_, ring)| ring.len());
        }
    }

    /// Moves span `id` from the open list into its job's ring, stamped
    /// with its duration and outcome; a span that is not open is left
    /// alone.
    fn close(&mut self, id: u64, now: u64, ok: bool, detail: &str) {
        let Some(i) = self.open.iter().position(|r| r.id == id) else {
            return;
        };
        let mut rec = self.open.swap_remove(i);
        rec.dur_us = now.saturating_sub(rec.start_us);
        rec.open = false;
        rec.ok = ok;
        if !detail.is_empty() {
            rec.detail = detail.to_string();
        }
        self.publish(rec);
    }

    /// `job`'s closed spans still held plus its open ones (`dur_us` =
    /// elapsed so far), cloning only that job's records.
    fn job_records(&self, job: u64, now: u64) -> Vec<SpanRecord> {
        let closed = self.closed.get(&job).into_iter();
        let closed = closed.flat_map(|(_, ring)| ring.iter().cloned());
        let open = self.open.iter().filter(|r| r.job == job).map(|r| {
            let mut r = r.clone();
            r.dur_us = now.saturating_sub(r.start_us);
            r
        });
        closed.chain(open).collect()
    }
}

static COLLECTOR: Mutex<Collector> = Mutex::new(Collector::new());

fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Microseconds of host-monotonic time since process start.
pub fn now_us() -> u64 {
    process_start().elapsed().as_micros() as u64
}

thread_local! {
    /// The context deep layers (engine, persist) emit against without
    /// explicit API threading.
    static CURRENT: Cell<Option<TraceCtx>> = const { Cell::new(None) };
}

fn next_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Span lifecycle.
// ---------------------------------------------------------------------

/// Mints the root [`SpanKind::Job`] span for `job` and returns its
/// context. Pair with [`close`] (or hold a [`SpanGuard`]).
pub fn start_job(job: u64, label: &str) -> TraceCtx {
    open(TraceCtx { job, span: 0 }, SpanKind::Job, label)
}

/// A fresh closed, successful, zero-length span under `ctx`: what
/// [`open`], [`emit`] and [`emit_timed`] each amend before handing it
/// to the collector.
fn record(ctx: TraceCtx, kind: SpanKind, label: &str, start_us: u64) -> SpanRecord {
    SpanRecord {
        job: ctx.job,
        id: next_id(),
        parent: ctx.span,
        kind,
        label: label.to_string(),
        start_us,
        dur_us: 0,
        open: false,
        ok: true,
        detail: String::new(),
    }
}

/// Opens a child span under `ctx` and returns the child's context.
pub fn open(ctx: TraceCtx, kind: SpanKind, label: &str) -> TraceCtx {
    let mut rec = record(ctx, kind, label, now_us());
    rec.open = true;
    let child = TraceCtx {
        job: rec.job,
        span: rec.id,
    };
    lock(&COLLECTOR).open.push(rec);
    child
}

/// Closes span `id`: stamps the duration and outcome and moves it from
/// the open list into its job's ring. Double closes are no-ops.
pub fn close(id: u64, ok: bool, detail: &str) {
    let now = now_us();
    lock(&COLLECTOR).close(id, now, ok, detail);
}

/// Publishes an already-finished (instantaneous) span — e.g. a
/// coalesced duplicate submission — without the open/close round trip.
pub fn emit(ctx: TraceCtx, kind: SpanKind, label: &str, ok: bool, detail: &str) {
    let mut rec = record(ctx, kind, label, now_us());
    rec.ok = ok;
    rec.detail = detail.to_string();
    lock(&COLLECTOR).publish(rec);
}

/// Publishes a pre-timed closed span (aggregate engine sections measure
/// themselves and report once per kernel).
pub fn emit_timed(ctx: TraceCtx, kind: SpanKind, label: &str, start_us: u64, dur_us: u64) {
    let mut rec = record(ctx, kind, label, start_us);
    rec.dur_us = dur_us;
    lock(&COLLECTOR).publish(rec);
}

/// RAII close: drops close the span with `ok = !panicking()`, so a
/// `catch_unwind`'d job still closes its spans instead of leaking an
/// "in-flight forever" entry.
#[derive(Debug)]
pub struct SpanGuard {
    ctx: TraceCtx,
    done: bool,
}

impl SpanGuard {
    /// The guarded span's context (for parenting children).
    pub fn ctx(&self) -> TraceCtx {
        self.ctx
    }

    /// Closes with an explicit outcome and detail.
    pub fn finish(mut self, ok: bool, detail: &str) {
        self.done = true;
        close(self.ctx.span, ok, detail);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.done {
            close(self.ctx.span, !std::thread::panicking(), "");
        }
    }
}

/// Opens a guarded child span under `ctx`.
pub fn guard(ctx: TraceCtx, kind: SpanKind, label: &str) -> SpanGuard {
    SpanGuard {
        ctx: open(ctx, kind, label),
        done: false,
    }
}

// ---------------------------------------------------------------------
// Thread-local current context.
// ---------------------------------------------------------------------

/// Scope token from [`enter`]; restores the previous context on drop.
#[derive(Debug)]
pub struct CtxScope {
    prev: Option<TraceCtx>,
}

impl Drop for CtxScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Installs `ctx` as this thread's current context for the scope of the
/// returned token. Deep layers fetch it with [`current`].
pub fn enter(ctx: TraceCtx) -> CtxScope {
    CURRENT.with(|c| {
        let prev = c.replace(Some(ctx));
        CtxScope { prev }
    })
}

/// The installing thread's current context, if inside an [`enter`].
pub fn current() -> Option<TraceCtx> {
    CURRENT.with(|c| c.get())
}

// ---------------------------------------------------------------------
// Snapshots and tree reconstruction.
// ---------------------------------------------------------------------

/// Every recorded span for `job`, sorted by id: its closed spans still
/// held plus its open spans (flagged `open`, `dur_us` = elapsed-so-far).
/// Only that job's records are cloned.
pub fn job_records(job: u64) -> Vec<SpanRecord> {
    let now = now_us();
    let mut out = lock(&COLLECTOR).job_records(job, now);
    out.sort_by_key(|r| r.id);
    out
}

/// Per-kind duration rollup over one job's spans.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseDuration {
    /// [`SpanKind::name`] of the phase.
    pub phase: String,
    /// Number of spans of this kind.
    pub count: u64,
    /// Sum of their durations, microseconds.
    pub total_us: u64,
}

/// One node of the reconstructed span tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanNode {
    /// The span itself.
    pub span: SpanRecord,
    /// Child spans, in id (open) order.
    pub children: Vec<SpanNode>,
}

/// A job's spans as a tree with per-phase rollups — the `trace` op's
/// payload and the flight recorder's core section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanTree {
    /// Owning job id.
    pub job: u64,
    /// Root spans (parent 0 or parent not in the record set).
    pub roots: Vec<SpanNode>,
    /// Per-kind duration totals, lifecycle order.
    pub phases: Vec<PhaseDuration>,
    /// Ids of failed (`ok == false`) spans, ascending.
    pub failed: Vec<u64>,
}

/// Builds the span tree for `job` from any record ordering: records are
/// id-sorted first, so reconstruction is independent of the order spans
/// were published or snapshotted in.
pub fn build_tree(job: u64, records: &[SpanRecord]) -> SpanTree {
    let mut records: Vec<SpanRecord> = records.iter().filter(|r| r.job == job).cloned().collect();
    records.sort_by_key(|r| r.id);

    let mut phases: Vec<PhaseDuration> = Vec::new();
    for kind in SpanKind::ALL {
        let (mut count, mut total) = (0u64, 0u64);
        for r in records.iter().filter(|r| r.kind == kind) {
            count += 1;
            total += r.dur_us;
        }
        if count > 0 {
            phases.push(PhaseDuration {
                phase: kind.name().to_string(),
                count,
                total_us: total,
            });
        }
    }
    let failed: Vec<u64> = records.iter().filter(|r| !r.ok).map(|r| r.id).collect();

    let mut nodes: std::collections::HashMap<u64, SpanNode> = records
        .iter()
        .map(|r| {
            (
                r.id,
                SpanNode {
                    span: r.clone(),
                    children: Vec::new(),
                },
            )
        })
        .collect();
    // Attach children to parents from the highest id down: a node's
    // children are complete before it is itself attached. A child whose
    // parent is absent (wrapped out of its ring) surfaces as a root
    // rather than vanishing.
    let mut roots: Vec<SpanNode> = Vec::new();
    for r in records.iter().rev() {
        let Some(node) = nodes.remove(&r.id) else {
            continue;
        };
        match nodes.get_mut(&r.parent) {
            Some(parent) => parent.children.push(node),
            None => roots.push(node),
        }
    }
    roots.sort_by_key(|n| n.span.id);
    let mut tree = SpanTree {
        job,
        roots,
        phases,
        failed,
    };
    sort_children(&mut tree.roots);
    tree
}

fn sort_children(nodes: &mut [SpanNode]) {
    for n in nodes {
        n.children.sort_by_key(|c| c.span.id);
        sort_children(&mut n.children);
    }
}

impl SpanTree {
    /// Depth-first iteration over every node.
    pub fn walk(&self) -> Vec<&SpanNode> {
        let mut out = Vec::new();
        fn rec<'a>(n: &'a SpanNode, out: &mut Vec<&'a SpanNode>) {
            out.push(n);
            for c in &n.children {
                rec(c, out);
            }
        }
        for r in &self.roots {
            rec(r, &mut out);
        }
        out
    }

    /// The innermost open span (highest id) — a live job's "current
    /// phase".
    pub fn current_phase(&self) -> Option<&SpanRecord> {
        self.walk()
            .into_iter()
            .map(|n| &n.span)
            .filter(|s| s.open)
            .max_by_key(|s| s.id)
    }

    /// The failed spans themselves, ascending by id.
    pub fn failed_spans(&self) -> Vec<&SpanRecord> {
        let mut out: Vec<&SpanRecord> = self
            .walk()
            .into_iter()
            .map(|n| &n.span)
            .filter(|s| !s.ok)
            .collect();
        out.sort_by_key(|s| s.id);
        out
    }
}

/// Renders a job id the way the serve protocol spells it (16 hex).
pub fn job_hex(job: u64) -> String {
    format!("{job:016x}")
}

/// Parses a 16-hex job id.
pub fn parse_job_hex(s: &str) -> Option<u64> {
    (s.len() == 16)
        .then(|| u64::from_str_radix(s, 16).ok())
        .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job_ids() -> u64 {
        static NEXT: AtomicU64 = AtomicU64::new(0xfee1_0000_0000_0000);
        NEXT.fetch_add(1, Ordering::Relaxed)
    }

    /// A closed (or, with `open`, still open) span `id` of `job`.
    fn rec(job: u64, id: u64, kind: SpanKind, open: bool) -> SpanRecord {
        SpanRecord {
            job,
            id,
            parent: 0,
            kind,
            label: format!("s{id}"),
            start_us: id,
            dur_us: 0,
            open,
            ok: true,
            detail: String::new(),
        }
    }

    #[test]
    fn ring_overflow_wraps_without_dropping_the_open_root_span() {
        // A collector of its own, so the wrap evicts no other test's
        // spans from the process-wide one.
        let mut collector = Collector::new();
        // A bystander's short trail, as `mm_det2`'s run thread leaves
        // its epoch-barrier / mem-service pair before the benchmark's
        // telemetry probe closes 100 000 spans on a job of its own.
        collector.publish(rec(3, 1, SpanKind::EpochBarrier, false));
        collector.publish(rec(3, 2, SpanKind::MemService, false));
        collector.open.push(rec(7, 3, SpanKind::Job, true));
        // Far past every capacity: job 7's ring wraps many times over.
        let last = 4 + 3 * CLOSED_CAPACITY as u64;
        for id in 4..=last {
            collector.publish(rec(7, id, SpanKind::CacheProbe, false));
        }
        let records = collector.job_records(7, last);
        let root = records
            .iter()
            .find(|r| r.kind == SpanKind::Job)
            .expect("open root span must survive any amount of ring wrap");
        assert!(root.open);
        // The ring kept the job's newest closed spans, dropping its oldest …
        assert_eq!(records.len(), 1 + JOB_CAPACITY, "ring must stay bounded");
        assert!(records.iter().any(|r| r.id == last));
        assert!(!records.iter().any(|r| r.id == 4));
        // … and nobody else's.
        let bystander: Vec<u64> = collector
            .job_records(3, last)
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(bystander, [1, 2]);
        // Closing the root moves it into the ring: still exactly once.
        collector.close(3, last, true, "");
        let records = collector.job_records(7, last);
        assert_eq!(records.iter().filter(|r| r.id == 3).count(), 1);
        assert!(records.iter().all(|r| !r.open));
    }

    #[test]
    fn over_the_whole_bound_the_job_published_to_least_recently_goes_whole() {
        let mut collector = Collector::new();
        // Jobs 100.. publish four spans each, in turn, until the
        // collector is exactly full.
        let jobs = 100..100 + CLOSED_CAPACITY as u64 / 4;
        let mut id = 0;
        let mut publish = |collector: &mut Collector, job: u64| {
            id += 1;
            collector.publish(rec(job, id, SpanKind::Sim, false));
        };
        for job in jobs.clone() {
            for _ in 0..4 {
                publish(&mut collector, job);
            }
        }
        assert_eq!(collector.held, CLOSED_CAPACITY);
        // One span more, on the job that published first: it is now the
        // freshest, so 101 goes — all four of its spans, and nothing of
        // anyone else.
        publish(&mut collector, 100);
        assert!(collector.job_records(101, 0).is_empty());
        assert_eq!(collector.held, CLOSED_CAPACITY + 1 - 4);
        for job in jobs.filter(|j| *j != 101) {
            let want = if job == 100 { 5 } else { 4 };
            assert_eq!(collector.job_records(job, 0).len(), want, "job {job}");
        }
    }

    #[test]
    fn tree_reconstruction_is_order_independent() {
        let job = 0x1234;
        let mk = |id: u64, parent: u64, kind: SpanKind| SpanRecord {
            job,
            id,
            parent,
            kind,
            label: format!("s{id}"),
            start_us: id * 10,
            dur_us: 5,
            open: false,
            ok: id != 4,
            detail: String::new(),
        };
        let records = vec![
            mk(1, 0, SpanKind::Job),
            mk(2, 1, SpanKind::Queued),
            mk(3, 1, SpanKind::Sim),
            mk(4, 3, SpanKind::EpochBarrier),
            mk(5, 3, SpanKind::MemService),
        ];
        let forward = build_tree(job, &records);
        let mut shuffled = records.clone();
        shuffled.reverse();
        shuffled.swap(0, 2);
        let backward = build_tree(job, &shuffled);
        assert_eq!(forward, backward);
        assert_eq!(forward.roots.len(), 1);
        assert_eq!(forward.roots[0].children.len(), 2);
        assert_eq!(forward.roots[0].children[1].children.len(), 2);
        assert_eq!(forward.failed, vec![4]);
        let sim = forward
            .phases
            .iter()
            .find(|p| p.phase == "sim")
            .expect("sim phase");
        assert_eq!((sim.count, sim.total_us), (1, 5));
    }

    #[test]
    fn a_caught_panic_still_closes_its_spans() {
        let job = job_ids();
        let root = start_job(job, "panicky");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _sim = guard(root, SpanKind::Sim, "attempt-0");
            panic!("injected");
        }));
        assert!(caught.is_err());
        close(root.span, false, "panicked");
        let records = job_records(job);
        assert!(
            records.iter().all(|r| !r.open),
            "no span may leak open after catch_unwind: {records:?}"
        );
        let sim = records
            .iter()
            .find(|r| r.kind == SpanKind::Sim)
            .expect("sim span recorded");
        assert!(!sim.ok, "a panicked span must close as failed");
    }

    #[test]
    fn guard_finish_carries_outcome_and_detail() {
        let job = job_ids();
        let root = start_job(job, "g");
        let g = guard(root, SpanKind::CacheProbe, "probe");
        g.finish(false, "miss");
        close(root.span, true, "");
        let records = job_records(job);
        let probe = records
            .iter()
            .find(|r| r.kind == SpanKind::CacheProbe)
            .unwrap();
        assert!(!probe.ok);
        assert_eq!(probe.detail, "miss");
        assert_eq!(probe.parent, root.span);
    }

    #[test]
    fn current_ctx_nests_and_restores() {
        assert!(current().is_none());
        let a = TraceCtx { job: 1, span: 10 };
        let b = TraceCtx { job: 1, span: 11 };
        let outer = enter(a);
        assert_eq!(current(), Some(a));
        {
            let _inner = enter(b);
            assert_eq!(current(), Some(b));
        }
        assert_eq!(current(), Some(a));
        drop(outer);
        assert!(current().is_none());
    }

    #[test]
    fn spans_closed_by_an_exited_thread_are_still_returned() {
        let job = job_ids();
        std::thread::spawn(move || {
            let root = start_job(job, "short-lived");
            emit(root, SpanKind::Persist, "artifact", true, "");
            close(root.span, true, "done");
        })
        .join()
        .expect("thread");
        // The publishing thread is gone; its spans belong to the
        // collector, not to it.
        let records = job_records(job);
        assert_eq!(records.len(), 2, "{records:?}");
        assert!(records.iter().all(|r| !r.open));
    }

    #[test]
    fn a_snapshot_sees_each_span_once_and_only_its_own_job() {
        let (mine, other) = (job_ids(), job_ids());
        let root = start_job(mine, "mine");
        let noise = start_job(other, "other");
        let child = open(root, SpanKind::Sim, "attempt");
        // Open, the child is in the open list; closed, in the ring —
        // never both, never neither.
        for closed in [false, true] {
            if closed {
                close(child.span, true, "");
            }
            let records = job_records(mine);
            let ids: Vec<u64> = records.iter().map(|r| r.id).collect();
            assert_eq!(ids, vec![root.span, child.span], "{records:?}");
            assert_eq!(records[1].open, !closed);
            assert!(records.iter().all(|r| r.job == mine));
        }
        close(root.span, true, "");
        close(noise.span, true, "");
    }

    #[test]
    fn job_hex_round_trips() {
        assert_eq!(job_hex(0xdead), "000000000000dead");
        assert_eq!(parse_job_hex("000000000000dead"), Some(0xdead));
        assert_eq!(parse_job_hex("xyz"), None);
    }
}
