//! Always-on correlated job spans: the observability layer the serve
//! stack reads its evidence from.
//!
//! Every job admitted to the stack gets a [`TraceCtx`] — the 16-hex job
//! id plus a monotonically increasing span id — minted at submission and
//! threaded through the scheduler, the executor, and the engine's epoch
//! loop. Code along the path opens typed spans ([`SpanKind`]) against
//! the context; closed spans are published into a bounded per-thread
//! ring. Unlike the deep kernel tracer in [`crate::trace`] (per
//! simulated event, recording only once a ring is attached), this layer
//! is **always recording**: spans are coarse (one per phase, not per
//! simulated event) so the cost is a few dozen records per job.
//!
//! Publish discipline: each thread owns its ring and is its only
//! writer, so publishing never contends with another publisher — the
//! per-ring mutex is uncontended except against an occasional snapshot
//! reader. When a thread exits, its ring is flushed into a bounded
//! global archive so a job's spans survive the (short-lived) run thread
//! that emitted them. **Open** spans live in a separate side list, not
//! the ring, so ring overflow can never drop a still-open root span —
//! an in-flight job is always visible to `photon-top` no matter how
//! many closed spans have wrapped past it.
//!
//! The ring holds [`ring_capacity`] records per thread (override:
//! [`set_ring_capacity`]); the archive holds 8× that. Snapshot readers
//! ([`job_records`]) merge rings + archive + open list, dedup by span
//! id, and sort by id, so reconstruction is independent of publication
//! order.

use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Default closed-span ring capacity per thread.
const DEFAULT_RING_CAPACITY: usize = 512;

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
// Global collector state. Everything is const-constructible (same
// discipline as `faults`): no lazy allocation on the hot path beyond
// the per-thread ring itself.
// ---------------------------------------------------------------------

/// Process-monotonic span id allocator (0 is reserved for "no parent").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);

/// All live per-thread rings plus the archive are reachable from here.
static RINGS: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());

/// Closed spans flushed from exited threads (bounded, 8× ring size).
static ARCHIVE: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static ARCHIVE_HEAD: AtomicUsize = AtomicUsize::new(0);

/// Spans opened but not yet closed. Separate from the rings so overflow
/// can never drop an open span.
static OPEN: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Microseconds of host-monotonic time since process start.
pub fn now_us() -> u64 {
    process_start().elapsed().as_micros() as u64
}

/// Closed-span ring capacity per thread (512 unless overridden by
/// [`set_ring_capacity`]).
pub fn ring_capacity() -> usize {
    RING_CAPACITY.load(Ordering::Relaxed)
}

/// Overrides the ring capacity for rings created after the call (test
/// hook; existing rings keep their size).
pub fn set_ring_capacity(n: usize) {
    RING_CAPACITY.store(n.max(1), Ordering::Relaxed);
}

/// A bounded ring of closed spans owned by one publishing thread.
#[derive(Debug)]
struct ThreadRing {
    slots: Mutex<RingSlots>,
}

#[derive(Debug)]
struct RingSlots {
    buf: Vec<SpanRecord>,
    head: usize,
    cap: usize,
}

impl ThreadRing {
    fn with_capacity(cap: usize) -> ThreadRing {
        ThreadRing {
            slots: Mutex::new(RingSlots {
                buf: Vec::new(),
                head: 0,
                cap: cap.max(1),
            }),
        }
    }

    fn push(&self, rec: SpanRecord) {
        let mut s = lock(&self.slots);
        if s.buf.len() < s.cap {
            s.buf.push(rec);
        } else {
            let head = s.head;
            s.buf[head] = rec;
            s.head = (head + 1) % s.cap;
        }
    }

    fn snapshot_into(&self, out: &mut Vec<SpanRecord>) {
        out.extend(lock(&self.slots).buf.iter().cloned());
    }

    fn drain(&self) -> Vec<SpanRecord> {
        let mut s = lock(&self.slots);
        s.head = 0;
        std::mem::take(&mut s.buf)
    }
}

/// Thread-local publisher handle; flushes to the archive on thread
/// exit so short-lived run threads don't take their evidence with them.
struct LocalRing(Arc<ThreadRing>);

impl Drop for LocalRing {
    fn drop(&mut self) {
        let records = self.0.drain();
        lock(&RINGS).retain(|r| !Arc::ptr_eq(r, &self.0));
        if records.is_empty() {
            return;
        }
        let cap = ring_capacity().saturating_mul(8).max(1);
        let mut archive = lock(&ARCHIVE);
        for rec in records {
            if archive.len() < cap {
                archive.push(rec);
            } else {
                let head = ARCHIVE_HEAD.load(Ordering::Relaxed) % cap;
                archive[head] = rec;
                ARCHIVE_HEAD.store(head + 1, Ordering::Relaxed);
            }
        }
    }
}

thread_local! {
    static LOCAL_RING: LocalRing = {
        let ring = Arc::new(ThreadRing::with_capacity(ring_capacity()));
        lock(&RINGS).push(Arc::clone(&ring));
        ring.ref_into_local()
    };
    /// The context deep layers (engine, persist) emit against without
    /// explicit API threading.
    static CURRENT: Cell<Option<TraceCtx>> = const { Cell::new(None) };
}

impl ThreadRing {
    fn ref_into_local(self: Arc<Self>) -> LocalRing {
        LocalRing(self)
    }
}

fn publish_closed(rec: SpanRecord) {
    LOCAL_RING.with(|r| r.0.push(rec));
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

/// Opens a child span under `ctx` and returns the child's context.
pub fn open(ctx: TraceCtx, kind: SpanKind, label: &str) -> TraceCtx {
    let id = next_id();
    lock(&OPEN).push(SpanRecord {
        job: ctx.job,
        id,
        parent: ctx.span,
        kind,
        label: label.to_string(),
        start_us: now_us(),
        dur_us: 0,
        open: true,
        ok: true,
        detail: String::new(),
    });
    TraceCtx {
        job: ctx.job,
        span: id,
    }
}

/// Closes span `id`: stamps the duration and outcome and publishes it
/// into the closing thread's ring. Double closes are no-ops.
pub fn close(id: u64, ok: bool, detail: &str) {
    let rec = {
        let mut open_spans = lock(&OPEN);
        match open_spans.iter().position(|r| r.id == id) {
            Some(i) => open_spans.swap_remove(i),
            None => return,
        }
    };
    let mut rec = rec;
    rec.dur_us = now_us().saturating_sub(rec.start_us);
    rec.open = false;
    rec.ok = ok;
    if !detail.is_empty() {
        rec.detail = detail.to_string();
    }
    publish_closed(rec);
}

/// Publishes an already-finished (instantaneous) span — e.g. a
/// coalesced duplicate submission — without the open/close round trip.
pub fn emit(ctx: TraceCtx, kind: SpanKind, label: &str, ok: bool, detail: &str) {
    publish_closed(SpanRecord {
        job: ctx.job,
        id: next_id(),
        parent: ctx.span,
        kind,
        label: label.to_string(),
        start_us: now_us(),
        dur_us: 0,
        open: false,
        ok,
        detail: detail.to_string(),
    });
}

/// Publishes a pre-timed closed span (aggregate engine sections measure
/// themselves and report once per kernel).
pub fn emit_timed(ctx: TraceCtx, kind: SpanKind, label: &str, start_us: u64, dur_us: u64) {
    publish_closed(SpanRecord {
        job: ctx.job,
        id: next_id(),
        parent: ctx.span,
        kind,
        label: label.to_string(),
        start_us,
        dur_us,
        open: false,
        ok: true,
        detail: String::new(),
    });
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

/// Every recorded span for `job`: closed spans from all thread rings
/// and the archive, plus open spans (flagged `open`, `dur_us` =
/// elapsed-so-far). Deduped by id (closed wins) and sorted by id.
pub fn job_records(job: u64) -> Vec<SpanRecord> {
    let mut out = all_closed();
    out.retain(|r| r.job == job);
    let now = now_us();
    {
        let open_spans = lock(&OPEN);
        for r in open_spans.iter().filter(|r| r.job == job) {
            let mut r = r.clone();
            r.dur_us = now.saturating_sub(r.start_us);
            out.push(r);
        }
    }
    dedup_by_id(&mut out);
    out
}

/// Snapshot of every currently open span (photon-top's in-flight view).
pub fn open_records() -> Vec<SpanRecord> {
    let now = now_us();
    lock(&OPEN)
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.dur_us = now.saturating_sub(r.start_us);
            r
        })
        .collect()
}

fn all_closed() -> Vec<SpanRecord> {
    let mut out = Vec::new();
    let rings: Vec<Arc<ThreadRing>> = lock(&RINGS).clone();
    for ring in rings {
        ring.snapshot_into(&mut out);
    }
    out.extend(lock(&ARCHIVE).iter().cloned());
    out
}

/// Sorts by id; on duplicates (a span caught mid-hand-off between the
/// open list and a ring) the closed record wins.
fn dedup_by_id(records: &mut Vec<SpanRecord>) {
    records.sort_by_key(|r| (r.id, r.open));
    records.dedup_by_key(|r| r.id);
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
/// id-sorted and deduped first, so reconstruction is independent of the
/// order spans were published or snapshotted in.
pub fn build_tree(job: u64, records: &[SpanRecord]) -> SpanTree {
    let mut records: Vec<SpanRecord> = records.iter().filter(|r| r.job == job).cloned().collect();
    dedup_by_id(&mut records);

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

    // Ids present in this set: children of absent parents (wrapped out
    // of the ring) surface as roots rather than vanishing.
    let present: std::collections::HashSet<u64> = records.iter().map(|r| r.id).collect();
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
    // children are complete before it is itself attached.
    let mut ids: Vec<u64> = records.iter().map(|r| r.id).collect();
    ids.sort_unstable_by(|a, b| b.cmp(a));
    let mut roots: Vec<SpanNode> = Vec::new();
    for id in ids {
        let Some(node) = nodes.remove(&id) else {
            continue;
        };
        let parent = node.span.parent;
        if parent != 0 && present.contains(&parent) {
            if let Some(p) = nodes.get_mut(&parent) {
                p.children.push(node);
            } else {
                roots.push(node);
            }
        } else {
            roots.push(node);
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

    #[test]
    fn ring_overflow_wraps_without_dropping_the_open_root_span() {
        set_ring_capacity(8);
        let job = job_ids();
        let done = std::thread::spawn(move || {
            let root = start_job(job, "overflow");
            // Far past capacity: the ring wraps many times over.
            for i in 0..100 {
                emit(root, SpanKind::CacheProbe, &format!("probe-{i}"), true, "");
            }
            // Snapshot while the root is still open, from the
            // publishing thread (its ring is live).
            let records = job_records(job);
            close(root.span, true, "");
            records
        })
        .join()
        .expect("publisher thread");
        let root = done
            .iter()
            .find(|r| r.kind == SpanKind::Job)
            .expect("open root span must survive any amount of ring wrap");
        assert!(root.open);
        // The ring kept the newest closed spans, dropping the oldest.
        let probes: Vec<&SpanRecord> = done
            .iter()
            .filter(|r| r.kind == SpanKind::CacheProbe)
            .collect();
        assert!(
            probes.len() <= 8,
            "ring must stay bounded: {}",
            probes.len()
        );
        assert!(probes.iter().any(|r| r.label == "probe-99"));
        assert!(!probes.iter().any(|r| r.label == "probe-0"));
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
    fn exited_threads_flush_to_the_archive() {
        let job = job_ids();
        std::thread::spawn(move || {
            let root = start_job(job, "short-lived");
            emit(root, SpanKind::Persist, "artifact", true, "");
            close(root.span, true, "done");
        })
        .join()
        .expect("thread");
        // The publishing thread is gone; its spans must still be
        // readable through the archive.
        let records = job_records(job);
        assert_eq!(records.len(), 2, "{records:?}");
        assert!(records.iter().all(|r| !r.open));
    }

    #[test]
    fn job_hex_round_trips() {
        assert_eq!(job_hex(0xdead), "000000000000dead");
        assert_eq!(parse_job_hex("000000000000dead"), Some(0xdead));
        assert_eq!(parse_job_hex("xyz"), None);
    }
}
