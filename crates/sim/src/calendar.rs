//! An indexed, bucketed calendar queue for the timing engine's events.
//!
//! The engine's event stream has two properties a general-purpose
//! binary heap cannot exploit: almost every event is scheduled a small,
//! bounded number of cycles into the future (instruction latencies,
//! barrier releases), and events never schedule into the past.
//! [`CalendarQueue`] turns both into O(1) operations: a wheel of
//! [`WHEEL`] one-cycle buckets absorbs near-future events (push =
//! `Vec::push` + a bitmap bit, pop = a `trailing_zeros` scan), and a
//! small overflow heap holds the rare far-future events (deep memory
//! queueing, predicted warp durations) until their cycle rotates into
//! the wheel.
//!
//! ## Ordering contract (must match the old `BinaryHeap<Reverse<Event>>`)
//!
//! Events pop in `(cycle, push order)` order — minimum cycle first,
//! FIFO within a cycle. The old heap ordered by `(cycle, seq)` with a
//! unique monotone `seq` per push, which is exactly FIFO per cycle, so
//! any engine on top of this queue is cycle-bit-identical to the heap
//! engine (the golden-cycles suite pins this).
//!
//! FIFO within a bucket holds because of the *eager refill invariant*:
//! whenever `base` advances, every overflow event whose cycle entered
//! the window `[base, base + WHEEL)` is moved into its bucket **before**
//! control returns to the caller. A cycle is out-of-window first and
//! in-window second (both bounds only grow), so all overflow pushes for
//! a cycle happen strictly before all direct pushes for it; refilling
//! eagerly therefore appends them first, and the overflow heap itself
//! yields them in push order.
//!
//! ## The retry lane
//!
//! A warp whose SIMD port is taken used to be pushed again at the cycle
//! the port frees, and lose again there if another warp took the port
//! first: *n* warps ready on one SIMD cost O(n²) trips through the
//! engine's event loop. [`CalendarQueue::push_lane`] parks such an
//! event in a FIFO lane beside the wheel instead, tagged with its port
//! and its *slot* — the length of the target bucket at that moment, i.e.
//! the index a `push` would have given it. [`CalendarQueue::pop_ready`]
//! merges lane and buckets on `(cycle, slot ≤ head)`, so a lane entry
//! comes out exactly where the re-pushed event would have; an entry
//! whose port is still taken is re-slotted into the next cycle inside
//! the pop, with one compare, and never reaches the caller. Busy-port
//! retries are therefore not events: [`CalendarQueue::pushes`] counts
//! real pushes only.
//!
//! A FIFO per port that parks a warp once would be cheaper still, but
//! not exact: where a retried warp sits among *other* ports' events of
//! its cycle is the moment it lost, and that order decides which
//! request reaches a shared cache or DRAM channel first. Only the slot
//! keeps it. Two invariants make the slot valid:
//!
//! * a slot indexes a bucket the lane entry's cycle has not reached yet,
//!   or the current one — so a drained bucket is cleared only when the
//!   window *leaves* its cycle (a later same-cycle push must land after
//!   the slots already taken, not at index 0);
//! * a pop bounded by `limit` stops at a lane entry re-slotted to
//!   `limit`, instead of popping past it.

use gpu_mem::Cycle;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Wheel width in cycles (one bucket per cycle). Power of two so the
/// bucket index is a mask; 1024 comfortably covers every fixed latency
/// plus typical memory queueing.
pub const WHEEL: usize = 1024;
const WORDS: usize = WHEEL / 64;

/// One wheel bucket: events for a single in-window cycle, drained FIFO
/// through `head` so a partially popped bucket keeps accepting pushes
/// for later same-cycle events without shifting.
#[derive(Debug)]
struct Bucket<T> {
    evs: Vec<T>,
    head: usize,
}

/// An event parked in the retry lane: it pops at `cycle` just before
/// the bucket event at index `slot`, once `port` is free.
#[derive(Debug, Clone, Copy)]
struct LaneEntry<T> {
    cycle: Cycle,
    slot: u32,
    port: u32,
    ev: T,
}

/// A monotone event queue ordered by `(cycle, push order)`.
///
/// The one structural requirement is monotonicity: events may only be
/// pushed at a cycle at or after the most recently popped cycle
/// (debug-asserted). The timing engine satisfies this by construction —
/// every event it schedules is strictly in the future.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// Lowest cycle that may live in the wheel; advances monotonically
    /// to the cycle of the last popped event.
    base: Cycle,
    len: usize,
    wheel_len: usize,
    buckets: Vec<Bucket<T>>,
    occupied: [u64; WORDS],
    /// Far-future events (`cycle >= base + WHEEL`), ordered by
    /// `(cycle, seq)`; `seq` preserves push order across the refill.
    overflow: BinaryHeap<Reverse<(Cycle, u64, T)>>,
    seq: u64,
    /// Busy-port retries in `(cycle, slot)` order (see the module docs).
    lane: VecDeque<LaneEntry<T>>,
}

/// The wheel bucket holding `cycle`.
fn bucket_of(cycle: Cycle) -> usize {
    (cycle as usize) & (WHEEL - 1)
}

impl<T: Copy + Ord> CalendarQueue<T> {
    /// Creates an empty queue whose window starts at `start`.
    pub fn new(start: Cycle) -> Self {
        CalendarQueue {
            base: start,
            len: 0,
            wheel_len: 0,
            buckets: (0..WHEEL)
                .map(|_| Bucket {
                    evs: Vec::new(),
                    head: 0,
                })
                .collect(),
            occupied: [0; WORDS],
            overflow: BinaryHeap::new(),
            seq: 0,
            lane: VecDeque::new(),
        }
    }

    /// Number of queued events, lane entries included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events ever pushed with [`push`](Self::push) (the engine's
    /// bulk `sim.events` count). Lane entries and their retries are not
    /// pushes.
    pub fn pushes(&self) -> u64 {
        self.seq
    }

    /// The cycle of the earliest queued event without popping it, or
    /// `None` when empty. A lane entry counts at its cycle whether or
    /// not its port will be free there.
    pub fn next_cycle(&self) -> Option<Cycle> {
        let bucket = self.next_bucket_cycle();
        match self.lane.front() {
            Some(l) => Some(bucket.map_or(l.cycle, |c| c.min(l.cycle))),
            None => bucket,
        }
    }

    /// The earliest bucket cycle. Wheel events always precede overflow
    /// events (overflow holds only cycles `>= base + WHEEL`), so the
    /// wheel scan wins whenever it finds anything.
    fn next_bucket_cycle(&self) -> Option<Cycle> {
        self.next_wheel_cycle()
            .or_else(|| self.overflow.peek().map(|&Reverse((c, _, _))| c))
    }

    /// Enqueues `ev` at `cycle`. Must not be in the past of the last
    /// popped event.
    ///
    /// # Panics
    /// Panics when `cycle < base`: a queue warm-started at cycle C (a
    /// shard created mid-simulation) or already advanced past `cycle`
    /// would otherwise silently alias the event into a *future* bucket
    /// (`cycle & (WHEEL-1)` collides with some in-window cycle) and
    /// corrupt event order. This was a debug-only assert before the
    /// engine grew sharded domains; warm starts make it a real
    /// boundary condition, so it is now checked in release builds too.
    pub fn push(&mut self, cycle: Cycle, ev: T) {
        assert!(
            cycle >= self.base,
            "event pushed into the past: {cycle} < base {}",
            self.base
        );
        self.seq += 1;
        self.len += 1;
        if cycle < self.base + WHEEL as Cycle {
            self.push_wheel(cycle, ev);
        } else {
            self.overflow.push(Reverse((cycle, self.seq, ev)));
        }
    }

    fn push_wheel(&mut self, cycle: Cycle, ev: T) {
        let b = bucket_of(cycle);
        self.buckets[b].evs.push(ev);
        self.occupied[b / 64] |= 1u64 << (b % 64);
        self.wheel_len += 1;
    }

    /// Parks `ev` in the retry lane at `cycle`, where it pops exactly
    /// where a [`push`](Self::push) made now would — unless `port` is
    /// still taken then, in which case [`pop_ready`](Self::pop_ready)
    /// moves it on a cycle. `cycle` must lie in the window and lane
    /// entries must arrive in cycle order, which a retry at "the cycle
    /// the port frees" always does.
    pub(crate) fn push_lane(&mut self, cycle: Cycle, port: u32, ev: T) {
        debug_assert!(cycle >= self.base && cycle < self.base + WHEEL as Cycle);
        debug_assert!(self.lane.back().is_none_or(|l| l.cycle <= cycle));
        self.len += 1;
        self.park(cycle, port, ev);
    }

    /// Appends a lane entry holding the slot a push at `cycle` would
    /// take now.
    fn park(&mut self, cycle: Cycle, port: u32, ev: T) {
        let slot = self.buckets[bucket_of(cycle)].evs.len() as u32;
        self.lane.push_back(LaneEntry {
            cycle,
            slot,
            port,
            ev,
        });
    }

    /// Pops the earliest event as `(cycle, event)`; FIFO within a cycle.
    /// For a queue whose retry lane is unused (the lane needs
    /// `pop_ready`).
    pub fn pop(&mut self) -> Option<(Cycle, T)> {
        debug_assert!(self.lane.is_empty());
        let cycle = self.next_bucket_cycle()?;
        Some((cycle, self.take(cycle)))
    }

    /// Pops the earliest event before `limit` as `(cycle, event,
    /// retried)`, merging the retry lane in (see the module docs).
    /// `ports[p]` is the first cycle port `p` is free; a lane entry
    /// whose port is taken at its cycle is re-slotted into the next one
    /// here and never returned at that cycle. `retried` marks an event
    /// that comes from the lane.
    pub(crate) fn pop_ready(&mut self, ports: &[Cycle], limit: Cycle) -> Option<(Cycle, T, bool)> {
        // The earliest bucket event; lane pops and re-slots below never
        // change it (a window advance only moves overflow into the wheel).
        let next = self.next_bucket_cycle();
        while let Some(&l) = self.lane.front() {
            let bucket_first = next.is_some_and(|c| {
                c < l.cycle || (c == l.cycle && self.buckets[bucket_of(c)].head < l.slot as usize)
            });
            if bucket_first {
                break;
            }
            if l.cycle >= limit {
                return None;
            }
            self.lane.pop_front();
            if l.cycle != self.base {
                self.advance_to(l.cycle);
            }
            if ports[l.port as usize] > l.cycle {
                self.park(l.cycle + 1, l.port, l.ev);
                continue;
            }
            self.len -= 1;
            return Some((l.cycle, l.ev, true));
        }
        let cycle = next.filter(|&c| c < limit)?;
        Some((cycle, self.take(cycle), false))
    }

    /// Takes the head event of bucket `cycle`, the earliest bucket
    /// cycle. A drained bucket keeps its events (only its occupancy bit
    /// goes) until the window leaves its cycle: lane slots index into
    /// it, and a later same-cycle push must land behind them.
    fn take(&mut self, cycle: Cycle) -> T {
        if cycle != self.base {
            self.advance_to(cycle);
        }
        let b = bucket_of(cycle);
        let bucket = &mut self.buckets[b];
        let ev = bucket.evs[bucket.head];
        bucket.head += 1;
        self.wheel_len -= 1;
        self.len -= 1;
        if bucket.head == bucket.evs.len() {
            self.occupied[b / 64] &= !(1u64 << (b % 64));
        }
        ev
    }

    /// Advances the window to `cycle` — clearing the drained bucket of
    /// the cycle it leaves — and eagerly refills every overflow event
    /// that just came into range (see the module-level ordering
    /// contract).
    fn advance_to(&mut self, cycle: Cycle) {
        debug_assert!(cycle > self.base);
        let left = &mut self.buckets[bucket_of(self.base)];
        debug_assert_eq!(left.head, left.evs.len(), "the window left a live bucket");
        left.evs.clear();
        left.head = 0;
        self.base = cycle;
        let limit = self.base + WHEEL as Cycle;
        while self
            .overflow
            .peek()
            .is_some_and(|&Reverse((c, _, _))| c < limit)
        {
            if let Some(Reverse((c, _, ev))) = self.overflow.pop() {
                self.push_wheel(c, ev);
            }
        }
    }

    /// The earliest occupied wheel cycle at or after `base`, via a
    /// wrapping bitmap scan (at most `WORDS + 1` word reads).
    fn next_wheel_cycle(&self) -> Option<Cycle> {
        if self.wheel_len == 0 {
            return None;
        }
        let s = (self.base as usize) & (WHEEL - 1);
        let (sw, sb) = (s / 64, s % 64);
        // Word containing the start bit, high bits only.
        let w = self.occupied[sw] & (!0u64 << sb);
        if w != 0 {
            let bit = sw * 64 + w.trailing_zeros() as usize;
            return Some(self.base + (bit - s) as Cycle);
        }
        // Remaining words, wrapping; the start word is revisited last
        // for its low bits (cycles that wrapped past the window start).
        for i in 1..=WORDS {
            let wi = (sw + i) % WORDS;
            let mut w = self.occupied[wi];
            if wi == sw {
                w &= !(!0u64 << sb);
            }
            if w != 0 {
                let bit = wi * 64 + w.trailing_zeros() as usize;
                let dist = (bit + WHEEL - s) % WHEEL;
                return Some(self.base + dist as Cycle);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: the old heap, ordered by `(cycle, seq)`.
    #[derive(Default)]
    struct HeapModel {
        heap: BinaryHeap<Reverse<(Cycle, u64, u32)>>,
        seq: u64,
    }

    impl HeapModel {
        fn push(&mut self, cycle: Cycle, ev: u32) {
            self.seq += 1;
            self.heap.push(Reverse((cycle, self.seq, ev)));
        }

        fn pop(&mut self) -> Option<(Cycle, u32)> {
            self.heap.pop().map(|Reverse((c, _, e))| (c, e))
        }
    }

    #[test]
    fn fifo_within_a_cycle() {
        let mut q = CalendarQueue::new(100);
        q.push(105, 1u32);
        q.push(103, 2);
        q.push(105, 3);
        q.push(103, 4);
        assert_eq!(q.pop(), Some((103, 2)));
        assert_eq!(q.pop(), Some((103, 4)));
        assert_eq!(q.pop(), Some((105, 1)));
        assert_eq!(q.pop(), Some((105, 3)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pushes(), 4);
    }

    #[test]
    fn overflow_refill_preserves_push_order() {
        let mut q = CalendarQueue::new(0);
        let far = WHEEL as Cycle + 500; // overflow at push time
        q.push(far, 1u32);
        q.push(far, 2);
        q.push(10, 3);
        assert_eq!(q.pop(), Some((10, 3)));
        // `far` is now in-window (base = 10): direct pushes must land
        // after the refilled overflow events.
        q.push(far, 4);
        assert_eq!(q.pop(), Some((far, 1)));
        assert_eq!(q.pop(), Some((far, 2)));
        assert_eq!(q.pop(), Some((far, 4)));
        assert!(q.is_empty());
    }

    #[test]
    fn empty_wheel_jumps_to_overflow() {
        let mut q = CalendarQueue::new(0);
        q.push(1_000_000, 7u32);
        q.push(5_000_000, 8);
        assert_eq!(q.pop(), Some((1_000_000, 7)));
        assert_eq!(q.pop(), Some((5_000_000, 8)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wrapping_bucket_scan_finds_low_indices() {
        // base near the top of the wheel so in-window cycles wrap to
        // low bucket indices.
        let start = WHEEL as Cycle - 3;
        let mut q = CalendarQueue::new(start);
        q.push(start + 5, 1u32); // bucket 2 after wrap
        q.push(start, 2); // bucket WHEEL-3
        assert_eq!(q.pop(), Some((start, 2)));
        assert_eq!(q.pop(), Some((start + 5, 1)));
    }

    #[test]
    fn warm_start_at_nonzero_cycle_keeps_order_under_drain() {
        // A shard created mid-simulation starts its wheel at cycle C.
        // In-window pushes, far-future overflow pushes, and the
        // overflow refill during drain must all behave exactly as they
        // do from cycle 0 — no bucket aliasing from the non-zero base.
        let c: Cycle = 123_457; // deliberately not a multiple of WHEEL
        let mut q = CalendarQueue::new(c);
        let mut model = HeapModel::default();
        let far = c + WHEEL as Cycle + 9; // overflow at push time
        for (cycle, ev) in [
            (far, 1u32),
            (c, 2),
            (c + WHEEL as Cycle - 1, 3), // last in-window bucket
            (far, 4),
            (c + 7, 5),
        ] {
            q.push(cycle, ev);
            model.push(cycle, ev);
        }
        assert_eq!(q.next_cycle(), Some(c));
        assert_eq!(q.base, c);
        // Drain two, which advances base past c; refill of `far` events
        // must preserve push order relative to a late direct push.
        assert_eq!(q.pop(), model.pop());
        assert_eq!(q.pop(), model.pop());
        q.push(far, 6);
        model.push(far, 6);
        loop {
            let got = q.pop();
            assert_eq!(got, model.pop());
            if got.is_none() {
                break;
            }
        }
        assert_eq!(q.base, far);
    }

    #[test]
    #[should_panic(expected = "pushed into the past")]
    fn warm_start_rejects_pushes_before_the_window() {
        // Without the hard assert this would alias bucket (C-1) & 1023
        // with a *future* in-window cycle and pop out of order.
        let mut q = CalendarQueue::new(50_000);
        q.push(49_999, 1u32);
    }

    #[test]
    fn next_cycle_peeks_wheel_then_overflow() {
        let mut q = CalendarQueue::new(10);
        assert_eq!(q.next_cycle(), None);
        q.push(10 + WHEEL as Cycle + 100, 1u32); // overflow only
        assert_eq!(q.next_cycle(), Some(10 + WHEEL as Cycle + 100));
        q.push(15, 2); // wheel event now wins
        assert_eq!(q.next_cycle(), Some(15));
        assert_eq!(q.pop(), Some((15, 2)));
        assert_eq!(q.next_cycle(), Some(10 + WHEEL as Cycle + 100));
    }

    /// A queue as the engine drives it: pop the next event before a
    /// limit, push follow-ups, and retry an event whose port is taken.
    trait Engine {
        fn pop(&mut self, ports: &[Cycle], limit: Cycle) -> Option<(Cycle, u32, bool)>;
        fn push(&mut self, cycle: Cycle, ev: u32);
        /// `ev` found its port taken at `cycle`.
        fn retry(&mut self, cycle: Cycle, port: u32, ev: u32);
        fn next_cycle(&self) -> Option<Cycle>;
    }

    impl Engine for CalendarQueue<u32> {
        fn pop(&mut self, ports: &[Cycle], limit: Cycle) -> Option<(Cycle, u32, bool)> {
            self.pop_ready(ports, limit)
        }
        fn push(&mut self, cycle: Cycle, ev: u32) {
            CalendarQueue::push(self, cycle, ev);
        }
        fn retry(&mut self, cycle: Cycle, port: u32, ev: u32) {
            self.push_lane(cycle + 1, port, ev);
        }
        fn next_cycle(&self) -> Option<Cycle> {
            CalendarQueue::next_cycle(self)
        }
    }

    /// The oracle: the old heap, where a retry is an ordinary push at
    /// the next cycle (the engine's re-push before the lane).
    #[derive(Default)]
    struct RepushModel {
        heap: HeapModel,
        retried: std::collections::HashSet<u32>,
        retries: u64,
    }

    impl Engine for RepushModel {
        fn pop(&mut self, _: &[Cycle], limit: Cycle) -> Option<(Cycle, u32, bool)> {
            let &Reverse((c, _, _)) = self.heap.heap.peek()?;
            if c >= limit {
                return None;
            }
            let (c, ev) = self.heap.pop()?;
            Some((c, ev, self.retried.remove(&ev)))
        }
        fn push(&mut self, cycle: Cycle, ev: u32) {
            self.heap.push(cycle, ev);
        }
        fn retry(&mut self, cycle: Cycle, _: u32, ev: u32) {
            self.retried.insert(ev);
            self.retries += 1;
            self.heap.push(cycle + 1, ev);
        }
        fn next_cycle(&self) -> Option<Cycle> {
            self.heap.heap.peek().map(|&Reverse((c, _, _))| c)
        }
    }

    /// Drives `q` through `epochs` bounded drains from seed `seed`:
    /// every event but each seventh needs one of three ports for its
    /// cycle; a winner takes its port and pushes 0–2 follow-ups into
    /// the current cycle, the next, the near future or the overflow;
    /// between drains, events land at or after the bound (an epoch
    /// barrier). Returns every winner `(cycle, event, retried)` and
    /// the queue's next cycle after each drain.
    fn drive(q: &mut impl Engine, seed: u64, epochs: usize) -> Vec<(Cycle, u32, bool)> {
        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let start: Cycle = 5_000 + next() % 3_000;
        let mut ports = [start; 3];
        let mut ev = 0u32;
        let mut out = Vec::new();
        for _ in 0..8 {
            ev += 1;
            q.push(start + next() % 4, ev);
        }
        let mut now = start;
        for _ in 0..epochs {
            let limit = match next() % 8 {
                0 => Cycle::MAX,
                n => q.next_cycle().unwrap_or(now) + n,
            };
            while let Some((c, e, retried)) = q.pop(&ports, limit) {
                assert!(c < limit, "popped {c} past the bound {limit}");
                now = c;
                if e % 7 != 0 {
                    let p = e % 3;
                    if ports[p as usize] > c {
                        q.retry(c, p, e);
                        continue;
                    }
                    ports[p as usize] = c + 1;
                }
                out.push((c, e, retried));
                // Fewer than one follow-up per winner on average, so
                // an unbounded drain ends.
                for _ in 0..(next() % 4).saturating_sub(1) {
                    let lat = match next() % 16 {
                        0..=3 => 0,
                        4..=9 => 1,
                        10..=13 => 2 + next() % 6,
                        14 => WHEEL as Cycle - 2 + next() % 4,
                        _ => next() % (3 * WHEEL as Cycle),
                    };
                    ev += 1;
                    q.push(c + lat, ev);
                }
            }
            out.push((q.next_cycle().unwrap_or(0), u32::MAX, false));
            let at = if limit == Cycle::MAX { now } else { limit };
            for _ in 0..next() % 4 {
                ev += 1;
                q.push(at + next() % 12, ev);
            }
        }
        out
    }

    /// Lane retries pop exactly where the old engine's re-pushes did —
    /// same winners, same order, same "came back from a retry" marks —
    /// under bounded and unbounded drains, same-cycle pushes after a
    /// bucket drained, and overflow refills.
    #[test]
    fn lane_pushes_behave_exactly_as_pushes() {
        let mut retries = 0;
        for seed in 0..60u64 {
            let seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut model = RepushModel::default();
            let want = drive(&mut model, seed, 150);
            let mut q = CalendarQueue::new(0);
            let got = drive(&mut q, seed, 150);
            match want.iter().zip(&got).position(|(w, g)| w != g) {
                Some(i) => panic!(
                    "seed {seed:#x} at {i}: want {:?}, got {:?}",
                    want[i], got[i]
                ),
                None => assert_eq!(want.len(), got.len(), "seed {seed:#x}"),
            }
            retries += want.iter().filter(|w| w.2).count();
            // Retries are not pushes.
            assert_eq!(q.pushes(), model.heap.seq - model.retries, "seed {seed:#x}");
        }
        assert!(retries > 1_000, "the drive barely contended: {retries}");
    }

    /// Randomized equivalence against the old heap: monotone pushes
    /// (never into the past), interleaved pops, latencies spanning the
    /// wheel and the overflow. A deterministic LCG keeps the test
    /// reproducible.
    #[test]
    fn matches_binary_heap_order() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..20 {
            let mut q = CalendarQueue::new(0);
            let mut model = HeapModel::default();
            let mut now: Cycle = 0;
            let mut ev = 0u32;
            for _ in 0..2000 {
                let op = next() % 3;
                if op < 2 {
                    // Latency mix: mostly small, sometimes beyond the
                    // wheel, occasionally zero (same-cycle, future ev).
                    let lat = match next() % 10 {
                        0 => next() % (4 * WHEEL as u64),
                        1..=2 => WHEEL as u64 + next() % 64,
                        _ => next() % 32,
                    };
                    ev += 1;
                    q.push(now + lat, ev);
                    model.push(now + lat, ev);
                } else {
                    let got = q.pop();
                    let want = model.pop();
                    assert_eq!(got, want);
                    if let Some((c, _)) = got {
                        now = c;
                    }
                }
            }
            // Drain both completely.
            loop {
                let got = q.pop();
                let want = model.pop();
                assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
