//! Queueing timing model of the cache/DRAM hierarchy.

use crate::addr::set_bits;
use crate::cache::{AccessKind, CacheAccess};
use crate::config::{MemHierarchyConfig, MshrConfig};
use crate::stats::{MemStats, QueueDelayHist, QueueDelays};
use crate::Cycle;
use gpu_telemetry::{
    CacheLevel, Counter, EventKind, Gauge, Histogram, Telemetry, Trace, TraceEvent,
};
use std::collections::VecDeque;

// The tag arrays and MSHR files the hierarchy is built from. Test builds
// swap in wrappers that can also run the linear-scan bookkeeping these
// replaced, as the oracle of the differential tests.
#[cfg(test)]
mod oracle;
#[cfg(not(test))]
use crate::{cache::Cache, mshr::MshrFile};
#[cfg(test)]
use oracle::{Cache, MshrFile};

/// Cache line size used throughout the hierarchy.
pub const LINE_BYTES: u64 = 64;

/// How many CUs share one scalar cache (Table 1: 16 scalar caches for 64
/// CUs on the R9 Nano).
const CUS_PER_SCALAR_CACHE: usize = 4;

/// Coalesces per-lane byte addresses into unique cache-line addresses,
/// the transaction unit of the hierarchy.
///
/// # Example
/// ```
/// use gpu_mem::coalesce_lines;
/// // 16 consecutive words live on one 64-byte line
/// let lines = coalesce_lines((0..16).map(|i| i * 4), 4);
/// assert_eq!(lines, vec![0]);
/// // strided accesses touch many lines
/// let lines = coalesce_lines((0..4).map(|i| i * 256), 4);
/// assert_eq!(lines.len(), 4);
/// ```
pub fn coalesce_lines(addrs: impl IntoIterator<Item = u64>, width_bytes: u64) -> Vec<u64> {
    let mut lines = Vec::new();
    for a in addrs {
        lines.extend(lines_of(a, width_bytes));
    }
    sort_dedup(&mut lines);
    lines
}

/// The lines touched by one `width_bytes` access at `a`.
#[inline]
fn lines_of(a: u64, width_bytes: u64) -> std::ops::RangeInclusive<u64> {
    // Saturate instead of wrapping: an access whose last byte would
    // pass the top of the address space clamps to the final line rather
    // than spanning the whole 2^64 range (or underflowing on width 0).
    a / LINE_BYTES..=a.saturating_add(width_bytes.saturating_sub(1)) / LINE_BYTES
}

/// Sorts and dedups a line buffer in place, completing a coalesce.
fn sort_dedup(out: &mut Vec<u64>) {
    out.sort_unstable();
    out.dedup();
}

/// The interpreter's allocation-free form of [`coalesce_lines`]: leaves
/// in `out` (cleared first) the sorted, unique lines touched by the
/// `width_bytes` accesses at `addrs[lane]` for every lane set in `mask`.
///
/// A line is appended only if it differs from the one before it, and
/// the buffer is sorted and deduplicated only if some lane stepped
/// backwards — warps mostly walk memory in ascending lane order, which
/// makes the common case a single pass.
pub fn coalesce_lanes_into(out: &mut Vec<u64>, addrs: &[u64], mask: u64, width_bytes: u64) {
    out.clear();
    let mut ascending = true;
    for lane in set_bits(mask) {
        for line in lines_of(addrs[lane], width_bytes) {
            match out.last() {
                Some(&last) if last == line => continue,
                Some(&last) => ascending &= last < line,
                None => {}
            }
            out.push(line);
        }
    }
    if !ascending {
        sort_dedup(out);
    }
}

/// Plain tallies for one cache level, bumped on the per-line path and
/// published into the registry (`mem.<level>.{hits,misses,evictions,
/// mshr_merges}`) by [`MemoryHierarchy::publish_queue_delays`].
#[derive(Debug, Default, Clone, Copy)]
struct LevelTally {
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Misses coalesced into an outstanding same-line fill; the level's
    /// downstream traffic is `misses - merges`.
    merges: u64,
}

impl LevelTally {
    /// Records a miss that coalesced into an in-flight fill: a miss in
    /// the hit/miss accounting, but no downstream transaction.
    fn record_merge(&mut self) {
        self.misses += 1;
        self.merges += 1;
    }
}

/// Fibonacci multiplicative mix for bank/channel selection: power-of-two
/// strides (the common GPU access pattern) would alias onto a single
/// bank or channel under plain modulo. Multiplying by the golden-ratio
/// constant spreads every stride class into the *high* bits of the
/// product (an odd multiplier preserves trailing zeros, so the low bits
/// of the product alone would still alias); the final fold xors them
/// back down so every bit window of the result is usable with `%`.
#[inline]
fn fib_mix(x: u64) -> u64 {
    let m = (x ^ (x >> 31)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    m ^ (m >> 32)
}

/// Bounded request queue in front of one L2 bank. A request occupies a
/// slot from admission until the bank *starts* servicing it; service
/// starts are monotone (the bank's `next_free` only grows), so the
/// queue drains FIFO and admission is O(1) amortized.
#[derive(Debug, Default)]
struct BankQueue {
    /// Service-start cycles of admitted requests, oldest first.
    starts: VecDeque<Cycle>,
    /// Highest occupancy observed (per-bank telemetry).
    peak: u64,
}

impl BankQueue {
    /// Admits a request arriving at `arrive` into a queue bounded at
    /// `depth`: returns the cycle the request actually gets a slot
    /// (later than `arrive` when the queue is full).
    fn admit(&mut self, arrive: Cycle, depth: usize) -> Cycle {
        while self.starts.front().is_some_and(|&s| s <= arrive) {
            self.starts.pop_front();
        }
        if self.starts.len() >= depth {
            // The slot frees when the oldest of the last `depth`
            // occupants reaches the bank.
            self.starts[self.starts.len() - depth].max(arrive)
        } else {
            arrive
        }
    }

    /// Records an admitted request's service start and tracks peak
    /// occupancy.
    fn push(&mut self, start: Cycle) {
        self.starts.push_back(start);
        self.peak = self.peak.max(self.starts.len() as u64);
    }
}

/// One DRAM bank: its open row (if any) and when it can accept the next
/// command.
#[derive(Debug, Clone, Copy, Default)]
struct DramBank {
    open_row: Option<u64>,
    free: Cycle,
}

/// What the tag/MSHR stage of one cache level decided.
enum StageOut {
    /// The access completes at this cycle with no downstream traffic.
    Done(Cycle),
    /// Fresh miss: the caller sends it downstream entering at this cycle
    /// and allocates an MSHR entry with the eventual completion.
    Downstream(Cycle),
}

/// Runs the tag + outstanding-miss stage of one cache level for an
/// access the level accepted at `t`.
///
/// Legacy mode preserves the original fill-at-lookup timing bit-for-bit
/// and only fixes the counting: an access that "hits" a line whose fill
/// is still in flight is recorded as a merged miss, not a hit. Detailed
/// mode separates lookup from fill — tags install when the fill returns,
/// same-line misses merge into the outstanding entry (completing at fill
/// time, never earlier than a hit), and exhausted merge slots or MSHR
/// entries back-pressure, recording the wait as a queue delay the engine
/// charges to `mem_queue_full`.
#[allow(clippy::too_many_arguments)]
fn tag_stage(
    cache: &mut Cache,
    mshr: &mut MshrFile,
    delays: &mut QueueDelayHist,
    tally: &mut LevelTally,
    trace: &Trace,
    level: CacheLevel,
    detailed: bool,
    addr: u64,
    kind: AccessKind,
    hit_latency: u64,
    t: Cycle,
) -> StageOut {
    let line = addr / LINE_BYTES;
    let emit = |hit: bool, evicted: bool| {
        trace.emit_with(|| TraceEvent {
            ts: t,
            dur: 0,
            kind: EventKind::CacheAccess {
                level,
                hit,
                evicted,
            },
        });
    };
    if !detailed {
        mshr.advance(t);
        return match cache.access(addr, kind, t) {
            CacheAccess::Hit => {
                if mshr.in_flight(line) {
                    // The line's fill is still in flight: the legacy tag
                    // array made this look like a hit, but it is a
                    // coalesced miss. Timing is unchanged (that is what
                    // keeps golden_cycles bit-identical); only the
                    // accounting flips.
                    tally.record_merge();
                    emit(false, false);
                } else {
                    tally.hits += 1;
                    emit(true, false);
                }
                StageOut::Done(t + hit_latency)
            }
            CacheAccess::Miss { evicted } => {
                tally.misses += 1;
                tally.evictions += u64::from(evicted);
                emit(false, evicted);
                StageOut::Downstream(t + hit_latency)
            }
        };
    }
    mshr.expire(t, |l, at| {
        tally.evictions += u64::from(cache.fill(l * LINE_BYTES, at))
    });
    if cache.lookup(addr, t) {
        tally.hits += 1;
        emit(true, false);
        return StageOut::Done(t + hit_latency);
    }
    let merge_slots = mshr.merge_slots();
    if let Some(e) = mshr.find_mut(line) {
        tally.record_merge();
        emit(false, false);
        // Completing no earlier than a hit keeps responses out of their
        // own engine epoch (the deterministic-mode quantum bound).
        let done = e.fill_at.max(t + hit_latency);
        if e.merges < merge_slots {
            e.merges += 1;
        } else {
            // Merge slots exhausted: the access stalls at the level until
            // the fill drains the entry.
            delays.record(e.fill_at.saturating_sub(t));
        }
        return StageOut::Done(done);
    }
    let mut enter = t;
    if mshr.is_full() {
        // No free entry: back-pressure until the earliest fill returns,
        // then retire it so the allocation below has a slot. The file
        // knows that cycle as a lower bound; a pass that frees nothing
        // leaves the bound exact for the next one.
        while mshr.is_full() {
            enter = mshr.earliest_fill().max(enter);
            mshr.expire(enter, |l, at| {
                tally.evictions += u64::from(cache.fill(l * LINE_BYTES, at))
            });
        }
        delays.record(enter - t);
    }
    // Evictions happen at fill time in detailed mode, so the miss itself
    // never displaces a line.
    tally.misses += 1;
    emit(false, false);
    StageOut::Downstream(enter + hit_latency)
}

/// The timing model of one GPU's memory system.
///
/// Every resource (per-CU L1V, shared scalar caches, L2 banks, DRAM
/// channels) has a `next_free` cycle; transactions serialize on busy
/// resources, so latency grows with load. Tag arrays give true
/// hit/miss behavior, which is what makes irregular workloads (SpMV)
/// behave irregularly.
///
/// Hit/miss/DRAM counts are plain tallies on the hierarchy — the
/// per-line path does no atomic operation — and
/// [`MemoryHierarchy::stats`] reads them, exact at any moment. The
/// `mem.*` counters of the [`Telemetry`] registry the hierarchy was
/// built with catch up on [`MemoryHierarchy::publish_queue_delays`].
#[derive(Debug)]
pub struct MemoryHierarchy {
    config: MemHierarchyConfig,
    /// Cached `config.is_detailed()` for the hot path.
    detailed: bool,
    l1v: Vec<Cache>,
    l1v_free: Vec<Cycle>,
    l1s: Vec<Cache>,
    l1s_free: Vec<Cycle>,
    l2: Vec<Cache>,
    l2_free: Vec<Cycle>,
    dram_free: Vec<Cycle>,
    // Outstanding-miss state. In detailed mode these are real MSHR
    // files (merging, fill-time tag install, exhaustion back-pressure);
    // in legacy mode they are unbounded counting shadows that only fix
    // the double-hit accounting of fill-at-lookup tags.
    l1v_mshr: Vec<MshrFile>,
    l1s_mshr: Vec<MshrFile>,
    l2_mshr: Vec<MshrFile>,
    /// Bounded per-bank L2 request queues (detailed mode).
    l2_queues: Vec<BankQueue>,
    /// Per-(channel, bank) DRAM state (detailed mode), indexed
    /// `channel * banks_per_channel + bank`.
    dram_banks: Vec<DramBank>,
    l1v_tally: LevelTally,
    l1s_tally: LevelTally,
    l2_tally: LevelTally,
    dram_accesses: u64,
    row_hits: u64,
    row_misses: u64,
    row_conflicts: u64,
    /// The registry counters mirroring [`MemStats::counters`], and the
    /// statistics last published into them.
    counters: [Counter; 16],
    published_stats: MemStats,
    /// `mem.dram.row_hit_rate`, refreshed on publish (registered in
    /// detailed mode only so legacy health tables stay noise-free).
    row_hit_rate: Option<Gauge>,
    /// `mem.l2.bank.<i>.peak_queue`, refreshed on publish (detailed
    /// mode; empty in legacy so health tables stay noise-free).
    bank_peak_gauges: Vec<Gauge>,
    // Queueing-delay accounting: flat per-level histograms updated on
    // the hot path (no locks, no allocation), plus the state last
    // published into the registry histograms so `publish_queue_delays`
    // only records deltas.
    delays: QueueDelays,
    published: QueueDelays,
    qdelay_hists: [Histogram; 4],
    trace: Trace,
}

impl MemoryHierarchy {
    /// Builds the hierarchy for a configuration with its own private
    /// telemetry (convenient for tests and standalone use).
    pub fn new(config: MemHierarchyConfig) -> Self {
        Self::with_telemetry(config, &Telemetry::default())
    }

    /// Builds the hierarchy wired to a shared [`Telemetry`] handle, so
    /// its counters and trace events land in the simulator's registry.
    pub fn with_telemetry(config: MemHierarchyConfig, tel: &Telemetry) -> Self {
        let n_cu = config.num_cus as usize;
        let n_scalar = n_cu.div_ceil(CUS_PER_SCALAR_CACHE);
        let n_l2 = config.l2_banks as usize;
        let n_ch = config.dram.channels as usize;
        let detailed = config.is_detailed();
        let mshr = |cfg: &MshrConfig, n: usize| -> Vec<MshrFile> {
            (0..n)
                .map(|_| {
                    if detailed {
                        MshrFile::new(cfg)
                    } else {
                        MshrFile::unbounded()
                    }
                })
                .collect()
        };
        let n_dram_banks = if detailed {
            n_ch * config.fidelity.dram_banks.banks_per_channel.max(1) as usize
        } else {
            0
        };
        MemoryHierarchy {
            detailed,
            l1v: (0..n_cu).map(|_| Cache::new(&config.l1v)).collect(),
            l1v_free: vec![0; n_cu],
            l1s: (0..n_scalar).map(|_| Cache::new(&config.l1s)).collect(),
            l1s_free: vec![0; n_scalar],
            l2: (0..n_l2).map(|_| Cache::new(&config.l2)).collect(),
            l2_free: vec![0; n_l2],
            dram_free: vec![0; n_ch],
            l1v_mshr: mshr(&config.fidelity.l1v_mshr, n_cu),
            l1s_mshr: mshr(&config.fidelity.l1s_mshr, n_scalar),
            l2_mshr: mshr(&config.fidelity.l2_mshr, n_l2),
            l2_queues: (0..if detailed { n_l2 } else { 0 })
                .map(|_| BankQueue::default())
                .collect(),
            dram_banks: vec![DramBank::default(); n_dram_banks],
            l1v_tally: LevelTally::default(),
            l1s_tally: LevelTally::default(),
            l2_tally: LevelTally::default(),
            dram_accesses: 0,
            row_hits: 0,
            row_misses: 0,
            row_conflicts: 0,
            counters: MemStats::default()
                .counters()
                .map(|(name, _)| tel.counter(name)),
            published_stats: MemStats::default(),
            row_hit_rate: detailed.then(|| tel.gauge("mem.dram.row_hit_rate")),
            bank_peak_gauges: (0..if detailed { n_l2 } else { 0 })
                .map(|i| tel.gauge(&format!("mem.l2.bank.{i}.peak_queue")))
                .collect(),
            delays: QueueDelays::default(),
            published: QueueDelays::default(),
            qdelay_hists: [
                tel.histogram("mem.l1v.queue_delay"),
                tel.histogram("mem.l1s.queue_delay"),
                tel.histogram("mem.l2.queue_delay"),
                tel.histogram("mem.dram.queue_delay"),
            ],
            trace: tel.trace().clone(),
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &MemHierarchyConfig {
        &self.config
    }

    /// The L2-and-below stage. Legacy mode keeps the original scalar
    /// per-bank reservation and flat DRAM channel timing bit-for-bit;
    /// detailed mode routes through the NoC/bank queues and the DRAM
    /// bank model.
    fn l2_and_beyond(&mut self, line_addr: u64, kind: AccessKind, ready: Cycle) -> Cycle {
        if self.detailed {
            return self.l2_and_beyond_detailed(line_addr, kind, ready);
        }
        let bank = (line_addr % self.config.l2_banks) as usize;
        let t = ready.max(self.l2_free[bank]);
        self.delays.l2.record(t - ready);
        self.l2_free[bank] = t + self.config.l2.service_interval;
        let hit_latency = self.config.l2.hit_latency;
        match tag_stage(
            &mut self.l2[bank],
            &mut self.l2_mshr[bank],
            &mut self.delays.l2,
            &mut self.l2_tally,
            &self.trace,
            CacheLevel::L2,
            false,
            line_addr * LINE_BYTES,
            kind,
            hit_latency,
            t,
        ) {
            StageOut::Done(done) => done,
            StageOut::Downstream(enter) => {
                let ch = ((line_addr / self.config.l2_banks) % self.config.dram.channels) as usize;
                let td = enter.max(self.dram_free[ch]);
                self.delays.dram.record(td - enter);
                self.dram_free[ch] = td + self.config.dram.service_interval;
                self.dram_accesses += 1;
                self.trace.emit_with(|| TraceEvent {
                    ts: td,
                    dur: 0,
                    kind: EventKind::DramAccess { channel: ch as u32 },
                });
                let done = td + self.config.dram.latency;
                self.l2_mshr[bank].alloc(line_addr, done);
                done
            }
        }
    }

    /// Detailed L2 stage: Fibonacci-mixed bank selection, crossbar
    /// latency, a bounded per-bank queue, then the tag/MSHR stage and
    /// (on a fresh miss) the DRAM bank model.
    fn l2_and_beyond_detailed(&mut self, line_addr: u64, kind: AccessKind, ready: Cycle) -> Cycle {
        let bank = (fib_mix(line_addr) % self.config.l2_banks.max(1)) as usize;
        let arrive = ready + self.config.fidelity.noc.latency;
        let depth = self.config.fidelity.noc.queue_depth.max(1) as usize;
        let admit = self.l2_queues[bank].admit(arrive, depth);
        let start = admit.max(self.l2_free[bank]);
        // Queue-full wait plus bank busy wait, in one delay the engine
        // charges to `mem_queue_full`.
        self.delays.l2.record(start - arrive);
        self.l2_free[bank] = start + self.config.l2.service_interval;
        self.l2_queues[bank].push(start);
        let hit_latency = self.config.l2.hit_latency;
        match tag_stage(
            &mut self.l2[bank],
            &mut self.l2_mshr[bank],
            &mut self.delays.l2,
            &mut self.l2_tally,
            &self.trace,
            CacheLevel::L2,
            true,
            line_addr * LINE_BYTES,
            kind,
            hit_latency,
            start,
        ) {
            StageOut::Done(done) => done,
            StageOut::Downstream(enter) => {
                let done = self.dram_detailed(line_addr, enter);
                self.l2_mshr[bank].alloc(line_addr, done);
                done
            }
        }
    }

    /// Detailed DRAM stage: channel and bank picked from disjoint
    /// windows of the Fibonacci mix of the 256 B *chunk* (so
    /// power-of-two strides spread across channels, while consecutive
    /// lines in a chunk still share a bank and keep its row open),
    /// per-bank open-row tracking with hit/empty/conflict latencies,
    /// and a per-channel data bus serializing one line per service
    /// interval.
    fn dram_detailed(&mut self, line_addr: u64, ready: Cycle) -> Cycle {
        let channels = self.config.dram.channels.max(1);
        let banks = self.config.fidelity.dram_banks.banks_per_channel.max(1);
        // HBM-style pseudo-channel interleave granularity: 4 lines.
        let m = fib_mix(line_addr >> 2);
        let ch = ((m >> 20) % channels) as usize;
        let bank = ((m >> 40) % banks) as usize;
        let lines_per_row = (self.config.fidelity.dram_banks.row_bytes / LINE_BYTES).max(1);
        let row = line_addr / lines_per_row;
        let idx = ch * banks as usize + bank;
        let DramBank { open_row, free } = self.dram_banks[idx];
        let t = ready.max(free);
        let lat = match open_row {
            Some(r) if r == row => {
                self.row_hits += 1;
                self.config.fidelity.dram_banks.row_hit_latency
            }
            Some(_) => {
                self.row_conflicts += 1;
                self.config.fidelity.dram_banks.row_conflict_latency
            }
            None => {
                self.row_misses += 1;
                self.config.fidelity.dram_banks.row_empty_latency
            }
        };
        // Banks overlap; the channel's data bus serializes transfers.
        let done = (t + lat).max(self.dram_free[ch]);
        self.delays.dram.record(done - ready - lat);
        self.dram_free[ch] = done + self.config.dram.service_interval;
        self.dram_banks[idx] = DramBank {
            open_row: Some(row),
            free: done,
        };
        self.dram_accesses += 1;
        self.trace.emit_with(|| TraceEvent {
            ts: done,
            dur: 0,
            kind: EventKind::DramAccess { channel: ch as u32 },
        });
        done
    }

    /// Issues one line transaction from CU `cu`'s vector path at cycle
    /// `now`; returns the completion cycle.
    ///
    /// # Panics
    /// Panics if `cu` is out of range for the configuration.
    pub fn access_line(
        &mut self,
        cu: usize,
        line_addr: u64,
        kind: AccessKind,
        now: Cycle,
    ) -> Cycle {
        let t = now.max(self.l1v_free[cu]);
        self.delays.l1v.record(t - now);
        self.l1v_free[cu] = t + self.config.l1v.service_interval;
        let hit_latency = self.config.l1v.hit_latency;
        let detailed = self.detailed;
        match tag_stage(
            &mut self.l1v[cu],
            &mut self.l1v_mshr[cu],
            &mut self.delays.l1v,
            &mut self.l1v_tally,
            &self.trace,
            CacheLevel::L1V,
            detailed,
            line_addr * LINE_BYTES,
            kind,
            hit_latency,
            t,
        ) {
            StageOut::Done(done) => done,
            StageOut::Downstream(enter) => {
                let done = self.l2_and_beyond(line_addr, kind, enter);
                self.l1v_mshr[cu].alloc(line_addr, done);
                done
            }
        }
    }

    /// Issues a scalar (constant/argument) load from CU `cu` at `now`;
    /// returns the completion cycle.
    pub fn scalar_access(&mut self, cu: usize, addr: u64, now: Cycle) -> Cycle {
        let group = cu / CUS_PER_SCALAR_CACHE;
        let t = now.max(self.l1s_free[group]);
        self.delays.l1s.record(t - now);
        self.l1s_free[group] = t + self.config.l1s.service_interval;
        let hit_latency = self.config.l1s.hit_latency;
        let detailed = self.detailed;
        match tag_stage(
            &mut self.l1s[group],
            &mut self.l1s_mshr[group],
            &mut self.delays.l1s,
            &mut self.l1s_tally,
            &self.trace,
            CacheLevel::L1S,
            detailed,
            addr,
            AccessKind::Read,
            hit_latency,
            t,
        ) {
            StageOut::Done(done) => done,
            StageOut::Downstream(enter) => {
                let line = addr / LINE_BYTES;
                let done = self.l2_and_beyond(line, AccessKind::Read, enter);
                self.l1s_mshr[group].alloc(line, done);
                done
            }
        }
    }

    /// Invalidates all cache tags (kernel boundary), keeping the clock
    /// monotonic. Outstanding-miss state is dropped with the tags (a
    /// drained kernel has no warp waiting on those fills); DRAM row
    /// buffers keep their open rows — row state is physical, not
    /// per-kernel.
    pub fn flush_caches(&mut self) {
        for c in self
            .l1v
            .iter_mut()
            .chain(self.l1s.iter_mut())
            .chain(self.l2.iter_mut())
        {
            c.flush();
        }
        for m in self
            .l1v_mshr
            .iter_mut()
            .chain(self.l1s_mshr.iter_mut())
            .chain(self.l2_mshr.iter_mut())
        {
            m.clear();
        }
    }

    /// Snapshot of the per-level queueing-delay histograms (grow-only;
    /// diff two snapshots with [`QueueDelays::since`] for per-kernel
    /// deltas).
    pub fn queue_delays(&self) -> QueueDelays {
        self.delays
    }

    /// Total queue cycles accumulated across all levels — cheap enough
    /// to read around a single access, which is how the timing engine
    /// splits a memory wait into its queued and in-flight portions.
    #[inline]
    pub fn queue_cycles(&self) -> u64 {
        self.delays.queue_cycles()
    }

    /// Publishes queue delays accumulated since the last publish into
    /// the registry histograms (`mem.<level>.queue_delay`), using each
    /// bucket's midpoint as the representative value (the floor would
    /// systematically underestimate percentiles). Called when a kernel
    /// ends, in a result or in an error (cold path), so the hot path
    /// never touches a locked histogram or an atomic counter: the
    /// hit/miss/DRAM tallies are published as deltas here too, and the
    /// detailed-fidelity health gauges (per-bank peak queue occupancy,
    /// DRAM row-buffer hit rate) refresh.
    pub fn publish_queue_delays(&mut self) {
        let stats = self.stats();
        let unpublished = stats.since(&self.published_stats).counters();
        for ((_, n), counter) in unpublished.iter().zip(&self.counters) {
            counter.add(*n);
        }
        self.published_stats = stats;
        let delta = self.delays.since(&self.published);
        for ((_, hist), handle) in delta.levels().iter().zip(self.qdelay_hists.iter()) {
            for (i, n) in hist.buckets.iter().enumerate() {
                if *n > 0 {
                    handle.record_n(QueueDelayHist::bucket_mid(i), *n);
                }
            }
        }
        self.published = self.delays;
        for (q, g) in self.l2_queues.iter().zip(self.bank_peak_gauges.iter()) {
            g.set(q.peak as f64);
        }
        if let Some(g) = &self.row_hit_rate {
            g.set(stats.dram_row_hit_rate());
        }
    }

    /// Services one vector transaction — the line set of a coalesced
    /// warp access — entering the hierarchy at `issue_at`. Returns the
    /// completion cycle (max over lines) and the queue cycles the
    /// transaction accumulated across all levels.
    ///
    /// This is the typed front door the timing engine uses; it is the
    /// single-request form of [`MemoryHierarchy::service`].
    pub fn service_vector(
        &mut self,
        cu: usize,
        lines: &[u64],
        write: bool,
        issue_at: Cycle,
    ) -> MemResponse {
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let q0 = self.queue_cycles();
        let mut done = issue_at;
        for &line in lines {
            done = done.max(self.access_line(cu, line, kind, issue_at));
        }
        MemResponse {
            warp: 0,
            req_cycle: issue_at,
            done,
            queued: self.queue_cycles() - q0,
        }
    }

    /// Services one scalar (constant/argument) load issued at `now`.
    pub fn service_scalar(&mut self, cu: usize, addr: u64, now: Cycle) -> MemResponse {
        let q0 = self.queue_cycles();
        let done = self.scalar_access(cu, addr, now);
        MemResponse {
            warp: 0,
            req_cycle: now,
            done,
            queued: self.queue_cycles() - q0,
        }
    }

    /// Services one queued [`MemRequest`]. `lines` must be the slice the
    /// owning [`MemPort`] stored for the request (empty for scalars).
    pub fn service(&mut self, req: &MemRequest, lines: &[u64]) -> MemResponse {
        let mut resp = if req.scalar {
            self.service_scalar(req.cu as usize, req.addr, req.issue_at)
        } else {
            self.service_vector(req.cu as usize, lines, req.write, req.issue_at)
        };
        resp.warp = req.warp;
        resp.req_cycle = req.req_cycle;
        resp
    }

    /// Drains one port in submission order: every queued request is
    /// serviced and its response appended to the port's response queue.
    /// This is the serial-engine path; the epoch coordinator instead
    /// interleaves requests from many ports in canonical cycle order via
    /// [`MemoryHierarchy::service`].
    pub fn service_port(&mut self, port: &mut MemPort) {
        for i in 0..port.requests.len() {
            let resp = {
                let req = &port.requests[i];
                let (a, b) = req.lines;
                let lines = &port.lines[a as usize..b as usize];
                self.service(req, lines)
            };
            port.responses.push(resp);
        }
        port.requests.clear();
        port.lines.clear();
    }

    /// Snapshot of the accumulated statistics: the hierarchy's own
    /// tallies, exact whether or not they have been published.
    pub fn stats(&self) -> MemStats {
        MemStats {
            l1v_hits: self.l1v_tally.hits,
            l1v_misses: self.l1v_tally.misses,
            l1v_evictions: self.l1v_tally.evictions,
            l1s_hits: self.l1s_tally.hits,
            l1s_misses: self.l1s_tally.misses,
            l1s_evictions: self.l1s_tally.evictions,
            l2_hits: self.l2_tally.hits,
            l2_misses: self.l2_tally.misses,
            l2_evictions: self.l2_tally.evictions,
            dram_accesses: self.dram_accesses,
            l1v_mshr_merges: self.l1v_tally.merges,
            l1s_mshr_merges: self.l1s_tally.merges,
            l2_mshr_merges: self.l2_tally.merges,
            dram_row_hits: self.row_hits,
            dram_row_misses: self.row_misses,
            dram_row_conflicts: self.row_conflicts,
        }
    }
}

/// One typed request crossing the engine↔memory boundary.
///
/// `req_cycle` is the engine cycle of the handler that produced the
/// request (the canonical service-order key); `issue_at` is when the
/// transaction actually enters the hierarchy (after the engine's issue
/// latency). `warp` is an engine-defined tag echoed back on the
/// response so the producer can route completions without keeping its
/// own map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    pub cu: u32,
    pub warp: u32,
    pub req_cycle: Cycle,
    pub issue_at: Cycle,
    pub write: bool,
    pub scalar: bool,
    /// Scalar address (scalar requests only).
    pub addr: u64,
    /// Range into the owning port's line arena (vector requests only).
    lines: (u32, u32),
}

/// Completion of one [`MemRequest`]: the cycle the data is back plus
/// the queue cycles the transaction spent waiting on busy resources
/// (the engine charges those to `MemQueueFull`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    pub warp: u32,
    pub req_cycle: Cycle,
    pub done: Cycle,
    pub queued: u64,
}

/// A typed request/response queue pair between one event domain (CU
/// shard) and the shared L2/DRAM model.
///
/// Producers `submit_*` requests during an epoch; the hierarchy owner
/// drains them (in submission order via
/// [`MemoryHierarchy::service_port`], or interleaved across ports in
/// canonical `(req_cycle, warp)` order by the epoch coordinator) and
/// pushes [`MemResponse`]s back. Line addresses live in a per-port
/// arena so a request is `Copy` and submission never allocates per
/// lane. The queue is deliberately dumb — MSHR merging and NoC
/// contention (ROADMAP item 4) slot in behind this interface without
/// touching the engine.
#[derive(Debug, Default)]
pub struct MemPort {
    lines: Vec<u64>,
    requests: Vec<MemRequest>,
    responses: Vec<MemResponse>,
}

impl MemPort {
    pub fn new() -> Self {
        MemPort::default()
    }

    /// Queues a coalesced vector access. Returns the request index
    /// (responses produced by in-order draining preserve indices).
    pub fn submit_vector(
        &mut self,
        cu: u32,
        warp: u32,
        req_cycle: Cycle,
        issue_at: Cycle,
        write: bool,
        lines: &[u64],
    ) -> usize {
        let a = self.lines.len() as u32;
        self.lines.extend_from_slice(lines);
        let b = self.lines.len() as u32;
        self.requests.push(MemRequest {
            cu,
            warp,
            req_cycle,
            issue_at,
            write,
            scalar: false,
            addr: 0,
            lines: (a, b),
        });
        self.requests.len() - 1
    }

    /// Queues a scalar load issued at `req_cycle`.
    pub fn submit_scalar(&mut self, cu: u32, warp: u32, req_cycle: Cycle, addr: u64) -> usize {
        self.requests.push(MemRequest {
            cu,
            warp,
            req_cycle,
            issue_at: req_cycle,
            write: false,
            scalar: true,
            addr,
            lines: (0, 0),
        });
        self.requests.len() - 1
    }

    /// Pending (unserviced) requests, in submission order.
    pub fn requests(&self) -> &[MemRequest] {
        &self.requests
    }

    /// The line slice backing a vector request.
    pub fn request_lines(&self, req: &MemRequest) -> &[u64] {
        let (a, b) = req.lines;
        &self.lines[a as usize..b as usize]
    }

    /// Appends a response produced by an out-of-band drain (the epoch
    /// coordinator services requests across many ports in canonical
    /// order, then pushes each response back to its origin port).
    pub fn push_response(&mut self, resp: MemResponse) {
        self.responses.push(resp);
    }

    /// Marks all pending requests as consumed (the coordinator has
    /// serviced them via [`MemoryHierarchy::service`]).
    pub fn clear_requests(&mut self) {
        self.requests.clear();
        self.lines.clear();
    }

    /// Drains accumulated responses, in the order they were pushed.
    pub fn take_responses(&mut self, out: &mut Vec<MemResponse>) {
        out.append(&mut self.responses);
    }

    pub fn is_empty(&self) -> bool {
        self.requests.is_empty() && self.responses.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> MemHierarchyConfig {
        let mut c = MemHierarchyConfig::r9_nano();
        c.num_cus = 4;
        c
    }

    #[test]
    fn hit_is_faster_than_miss() {
        let mut h = MemoryHierarchy::new(small_config());
        let miss_done = h.access_line(0, 100, AccessKind::Read, 0);
        let hit_done = h.access_line(0, 100, AccessKind::Read, miss_done) - miss_done;
        assert!(hit_done < miss_done, "{hit_done} !< {miss_done}");
    }

    #[test]
    fn l2_shared_across_cus() {
        let mut h = MemoryHierarchy::new(small_config());
        let t1 = h.access_line(0, 7, AccessKind::Read, 0);
        // Different CU: misses its own L1 but hits shared L2.
        let t2 = h.access_line(1, 7, AccessKind::Read, t1) - t1;
        let cold = h.access_line(2, 9999, AccessKind::Read, 0);
        assert!(t2 < cold, "L2 hit {t2} should beat DRAM {cold}");
    }

    #[test]
    fn contention_delays_bursts() {
        let mut h = MemoryHierarchy::new(small_config());
        // Warm one line, then fire a burst of hits at the same cycle: the
        // L1 service interval must serialize them.
        let warm = h.access_line(0, 5, AccessKind::Read, 0);
        let a = h.access_line(0, 5, AccessKind::Read, warm);
        let b = h.access_line(0, 5, AccessKind::Read, warm);
        assert!(b > a);
    }

    #[test]
    fn flush_restores_cold_misses() {
        let mut h = MemoryHierarchy::new(small_config());
        let cold = h.access_line(0, 1, AccessKind::Read, 0);
        let now = cold;
        h.flush_caches();
        let again = h.access_line(0, 1, AccessKind::Read, now) - now;
        assert!(again >= cold, "flush should make it a miss again");
        assert_eq!(h.stats().l1v_hits, 0);
        assert_eq!(h.stats().l1v_misses, 2);
    }

    #[test]
    fn scalar_path_counts_separately() {
        let mut h = MemoryHierarchy::new(small_config());
        h.scalar_access(0, 0x40, 0);
        h.scalar_access(1, 0x40, 100_000); // same group (cu 0..4) -> hit
        assert_eq!(h.stats().l1s_misses, 1);
        assert_eq!(h.stats().l1s_hits, 1);
    }

    #[test]
    fn counters_land_in_the_shared_registry() {
        let tel = Telemetry::default();
        let mut h = MemoryHierarchy::with_telemetry(small_config(), &tel);
        h.access_line(0, 1, AccessKind::Read, 0);
        h.access_line(0, 1, AccessKind::Read, 1000);
        // `stats()` reads the hierarchy's own tallies: exact before any
        // publish, while the registry has seen nothing yet.
        let stats = h.stats();
        assert_eq!(stats.l1v_hits, 1);
        assert_eq!(stats.l1v_misses, 1);
        assert_eq!(stats.dram_accesses, 1);
        assert_eq!(tel.snapshot().counter("mem.l1v.hits"), Some(0));
        // Publishing brings every registry counter level with `stats()`,
        // and a second publish with no new traffic adds nothing.
        for _ in 0..2 {
            h.publish_queue_delays();
            let snap = tel.snapshot();
            for (name, value) in stats.counters() {
                assert_eq!(snap.counter(name), Some(value), "{name}");
            }
        }
        assert_eq!(h.stats(), stats);
    }

    #[test]
    fn evictions_are_counted_per_level() {
        let mut cfg = small_config();
        // Shrink L1V to 2 lines so a 3-line stream must evict.
        cfg.l1v.size_bytes = 128;
        cfg.l1v.assoc = 2;
        let mut h = MemoryHierarchy::new(cfg);
        for (t, line) in [0u64, 1, 2, 0].iter().enumerate() {
            h.access_line(0, *line, AccessKind::Read, t as u64 * 1000);
        }
        let s = h.stats();
        assert_eq!(s.l1v_misses, 4);
        assert!(s.l1v_evictions >= 2, "evictions {}", s.l1v_evictions);
        assert_eq!(s.l2_evictions, 0);
    }

    #[test]
    fn queue_delays_capture_contention_and_publish_deltas() {
        let tel = Telemetry::default();
        let mut h = MemoryHierarchy::with_telemetry(small_config(), &tel);
        // Warm a line, then fire same-cycle hits: the second must queue
        // on the L1V service interval.
        let warm = h.access_line(0, 5, AccessKind::Read, 0);
        h.access_line(0, 5, AccessKind::Read, warm);
        h.access_line(0, 5, AccessKind::Read, warm);
        let q = h.queue_delays();
        assert!(q.l1v.sum > 0, "same-cycle burst must queue: {q:?}");
        assert_eq!(q.l1v.count, 3);
        assert_eq!(h.queue_cycles(), q.queue_cycles());

        // Publishing lands the delta in the registry histograms, and a
        // second publish with no new traffic records nothing.
        h.publish_queue_delays();
        let snap = tel.snapshot();
        let hist = snap
            .histograms
            .iter()
            .find(|s| s.name == "mem.l1v.queue_delay")
            .expect("published histogram");
        assert_eq!(hist.count, q.l1v.count);
        assert!(hist.sum > 0);
        h.publish_queue_delays();
        let again = tel.snapshot();
        let hist2 = again
            .histograms
            .iter()
            .find(|s| s.name == "mem.l1v.queue_delay")
            .expect("published histogram");
        assert_eq!(hist2.count, q.l1v.count);
    }

    #[test]
    fn port_drain_matches_direct_access() {
        // The same request stream through a MemPort must produce the
        // same completion cycles and bank state as direct calls.
        let mut direct = MemoryHierarchy::new(small_config());
        let mut ported = MemoryHierarchy::new(small_config());
        let mut port = MemPort::new();

        let d1 = direct.service_vector(0, &[1, 2], false, 10);
        let d2 = direct.service_vector(1, &[2], true, 12);
        let d3 = direct.service_scalar(0, 0x80, 14);

        port.submit_vector(0, 7, 10, 10, false, &[1, 2]);
        port.submit_vector(1, 8, 12, 12, true, &[2]);
        port.submit_scalar(0, 9, 14, 0x80);
        ported.service_port(&mut port);

        let mut resps = Vec::new();
        port.take_responses(&mut resps);
        assert_eq!(resps.len(), 3);
        assert_eq!(resps[0].done, d1.done);
        assert_eq!(resps[0].queued, d1.queued);
        assert_eq!(resps[0].warp, 7);
        assert_eq!(resps[1].done, d2.done);
        assert_eq!(resps[2].done, d3.done);
        assert_eq!(resps[2].warp, 9);
        assert!(port.is_empty());
        assert_eq!(direct.stats().l1v_misses, ported.stats().l1v_misses);
        assert_eq!(direct.stats().dram_accesses, ported.stats().dram_accesses);
    }

    #[test]
    fn out_of_band_service_preserves_request_tags() {
        let mut h = MemoryHierarchy::new(small_config());
        let mut port = MemPort::new();
        port.submit_vector(2, 41, 5, 9, false, &[100, 101]);
        let reqs: Vec<MemRequest> = port.requests().to_vec();
        assert_eq!(reqs.len(), 1);
        assert_eq!(port.request_lines(&reqs[0]), &[100, 101]);
        let resp = {
            let lines: Vec<u64> = port.request_lines(&reqs[0]).to_vec();
            h.service(&reqs[0], &lines)
        };
        assert_eq!(resp.warp, 41);
        assert_eq!(resp.req_cycle, 5);
        assert!(resp.done > 9);
        port.clear_requests();
        port.push_response(resp);
        assert!(!port.is_empty());
    }

    #[test]
    fn coalesce_merges_and_splits() {
        assert_eq!(coalesce_lines([0u64, 4, 8, 60], 4), vec![0]);
        assert_eq!(coalesce_lines([62u64], 4), vec![0, 1]); // straddles into line 1
        assert_eq!(coalesce_lines([60u64], 4), vec![0]); // last byte is 63
        assert_eq!(coalesce_lines([60u64], 8), vec![0, 1]);
        assert_eq!(coalesce_lines([0u64, 64, 128], 4), vec![0, 1, 2]);
    }

    #[test]
    fn coalesce_lanes_equals_coalesce_lines_over_the_active_lanes() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut out = vec![1, 2, 3]; // stale contents are discarded
        for round in 0..300u64 {
            let addrs: Vec<u64> = (0..64)
                .map(|l| match round % 5 {
                    0 => 0x1000 + 4 * l,             // ascending: the single-pass case
                    1 => 0x1000 + 4 * (63 - l),      // descending
                    2 => 0x1000 + 62 + 64 * (l % 7), // straddling, repeating
                    3 => u64::MAX - 4 * l,           // clamps at the top line
                    _ => rng.gen_range(0..0x4000),
                })
                .collect();
            let mask: u64 = if round % 3 == 0 { u64::MAX } else { rng.gen() };
            let width = [0, 1, 4, 8][(round % 4) as usize];
            coalesce_lanes_into(&mut out, &addrs, mask, width);
            let want = coalesce_lines(set_bits(mask).map(|l| addrs[l]), width);
            assert_eq!(out, want, "round {round} width {width} mask {mask:#x}");
        }
        coalesce_lanes_into(&mut out, &[0; 64], 0, 4);
        assert!(out.is_empty());
    }

    #[test]
    fn lines_of_handles_straddle_wrap_and_width_edge_cases() {
        let lines = |a, w| lines_of(a, w).collect::<Vec<u64>>();
        // Straddling a line boundary touches both lines.
        assert_eq!(lines(62, 4), vec![0, 1]);
        // An access whose last byte would pass the top of the address
        // space saturates to the final line instead of wrapping to 0
        // (which would enumerate the entire 2^64 range).
        let top_line = u64::MAX / LINE_BYTES;
        assert_eq!(lines(u64::MAX - 10, 100), vec![top_line]);
        assert_eq!(lines(u64::MAX, 8), vec![top_line]);
        // Width 0 must not underflow; it touches the line of `a`.
        assert_eq!(lines(130, 0), vec![2]);
        // Dedup is order-insensitive: unsorted duplicates coalesce to a
        // sorted unique set.
        assert_eq!(coalesce_lines([128u64, 0, 64, 0, 128], 4), vec![0, 1, 2]);
    }

    #[test]
    fn legacy_same_line_burst_counts_merged_misses_not_hits() {
        // Two warps miss the same line in one burst. The legacy tag array
        // fills at lookup, so the second access used to be *counted* as a
        // hit while the fill was still in flight. Timing is unchanged
        // (second completes at hit latency — the known legacy skew) but
        // the accounting must say: 2 misses, 0 hits, 1 merge, 1 DRAM
        // access.
        let mut h = MemoryHierarchy::new(small_config());
        let d1 = h.access_line(0, 42, AccessKind::Read, 0);
        let d2 = h.access_line(0, 42, AccessKind::Read, 0);
        let s = h.stats();
        assert_eq!(s.l1v_misses, 2);
        assert_eq!(s.l1v_hits, 0);
        assert_eq!(s.l1v_mshr_merges, 1);
        assert_eq!(s.dram_accesses, 1);
        // Legacy timing skew preserved: the merged access completes at
        // hit latency, long before the real fill.
        assert!(d2 < d1, "legacy merged access keeps fill-at-lookup timing");
        // Once the fill lands, the next access is a true hit.
        let d3 = h.access_line(0, 42, AccessKind::Read, d1);
        assert_eq!(h.stats().l1v_hits, 1);
        assert_eq!(d3, d1 + h.config().l1v.hit_latency);
    }

    fn detailed_config() -> MemHierarchyConfig {
        small_config().with_detailed_fidelity()
    }

    #[test]
    fn detailed_same_line_misses_issue_one_dram_access() {
        // N same-line misses from one CU: the first allocates an L1V MSHR
        // entry, the rest merge and complete at fill time. Exactly one
        // DRAM access.
        let mut h = MemoryHierarchy::new(detailed_config());
        let hit_lat = h.config().l1v.hit_latency;
        let first = h.access_line(0, 42, AccessKind::Read, 0);
        let mut merged = Vec::new();
        for _ in 0..4 {
            merged.push(h.access_line(0, 42, AccessKind::Read, 0));
        }
        let s = h.stats();
        assert_eq!(s.l1v_misses, 5);
        assert_eq!(s.l1v_mshr_merges, 4);
        assert_eq!(s.dram_accesses, 1, "merged misses must not re-fetch");
        for (i, d) in merged.iter().enumerate() {
            assert!(
                *d >= first,
                "merged miss {i} completed at {d}, before the fill at {first}"
            );
            assert!(*d >= hit_lat, "never faster than a hit");
        }
    }

    #[test]
    fn detailed_cross_cu_same_line_misses_merge_at_l2() {
        // Same line from two CUs in one burst: both miss their private
        // L1V, but the second merges into the L2 MSHR entry — one DRAM
        // access total.
        let mut h = MemoryHierarchy::new(detailed_config());
        let d0 = h.access_line(0, 42, AccessKind::Read, 0);
        let d1 = h.access_line(1, 42, AccessKind::Read, 0);
        let s = h.stats();
        assert_eq!(s.l1v_misses, 2);
        assert_eq!(s.l1v_mshr_merges, 0, "different CUs, different L1 MSHRs");
        assert_eq!(s.l2_misses, 2);
        assert_eq!(s.l2_mshr_merges, 1);
        assert_eq!(s.dram_accesses, 1);
        assert!(d1 >= d0.min(d1), "{d0} {d1}");
    }

    #[test]
    fn detailed_fill_lands_tag_at_fill_time() {
        // Between miss and fill the line is NOT in the tag array: a
        // same-line access merges (miss) rather than hitting. After the
        // fill it is a genuine hit.
        let mut h = MemoryHierarchy::new(detailed_config());
        let fill = h.access_line(0, 7, AccessKind::Read, 0);
        h.access_line(0, 7, AccessKind::Read, fill / 2);
        assert_eq!(h.stats().l1v_hits, 0);
        assert_eq!(h.stats().l1v_mshr_merges, 1);
        let d = h.access_line(0, 7, AccessKind::Read, fill);
        assert_eq!(h.stats().l1v_hits, 1);
        assert_eq!(d, fill + h.config().l1v.hit_latency);
    }

    #[test]
    fn detailed_mshr_exhaustion_back_pressures() {
        let mut cfg = detailed_config();
        cfg.fidelity.l1v_mshr = MshrConfig::new(1, 0);
        let mut h = MemoryHierarchy::new(cfg);
        let q0 = h.queue_cycles();
        // Two distinct-line misses in one cycle: the single MSHR entry
        // forces the second to wait for the first fill.
        let d1 = h.access_line(0, 10, AccessKind::Read, 0);
        let d2 = h.access_line(0, 2_000_000, AccessKind::Read, 0);
        assert!(
            d2 > d1,
            "second miss must stall behind the lone MSHR entry: {d2} !> {d1}"
        );
        assert!(
            h.queue_cycles() > q0,
            "MSHR-full wait must be visible as queue delay"
        );
        // Zero merge slots: a same-line miss still merges for counting
        // but records the stall as queue delay.
        let q1 = h.queue_cycles();
        h.access_line(0, 2_000_000, AccessKind::Read, d1);
        assert!(h.queue_cycles() > q1);
        assert_eq!(h.stats().l1v_mshr_merges, 1);
    }

    #[test]
    fn detailed_spreads_strided_traffic_over_all_channels() {
        // Stride-`l2_banks` lines alias onto one channel under the old
        // `(line / l2_banks) % channels` mapping; the Fibonacci mix must
        // spread them across every DRAM channel.
        let mut h = MemoryHierarchy::new(detailed_config());
        let banks = h.config().l2_banks;
        let channels = h.config().dram.channels as usize;
        for i in 0..256u64 {
            h.access_line(0, i * banks, AccessKind::Read, i * 4000);
        }
        let busy = h.dram_free.iter().filter(|&&f| f > 0).count();
        assert_eq!(
            busy, channels,
            "stride-{banks} traffic reached {busy}/{channels} channels"
        );
        // L2 banks spread too.
        let l2_busy = h.l2_free.iter().filter(|&&f| f > 0).count();
        assert!(
            l2_busy > 1,
            "stride-{banks} traffic stuck on {l2_busy} L2 bank(s)"
        );
    }

    #[test]
    fn detailed_row_buffer_hits_are_cheaper_and_counted() {
        let mut h = MemoryHierarchy::new(detailed_config());
        // Line 0 opens its row; line 1 lives on the same 2 KB row but
        // must reach DRAM (flush L1/L2 tags in between, keeping the open
        // row — row state is physical).
        let d0 = h.access_line(0, 0, AccessKind::Read, 0);
        h.flush_caches();
        let t1 = d0 + 1000;
        let d1 = h.access_line(0, 0, AccessKind::Read, t1) - t1;
        let s = h.stats();
        assert_eq!(s.dram_accesses, 2);
        assert_eq!(s.dram_row_misses, 1, "first access finds the bank idle");
        assert_eq!(s.dram_row_hits, 1, "re-access finds the row open");
        assert!(
            d1 < d0,
            "open-row access ({d1}) must beat the cold one ({d0})"
        );
    }

    #[test]
    fn detailed_never_degrades_counters_registered_in_legacy() {
        // Legacy mode must not register detailed-only gauges (health
        // tables stay noise-free); detailed mode must.
        let tel = Telemetry::default();
        let mut h = MemoryHierarchy::with_telemetry(small_config(), &tel);
        h.access_line(0, 1, AccessKind::Read, 0);
        h.publish_queue_delays();
        let snap = tel.snapshot();
        assert!(!snap
            .gauges
            .iter()
            .any(|g| g.name == "mem.dram.row_hit_rate"));
        assert!(!snap
            .gauges
            .iter()
            .any(|g| g.name.starts_with("mem.l2.bank.")));

        let tel2 = Telemetry::default();
        let mut hd = MemoryHierarchy::with_telemetry(detailed_config(), &tel2);
        for i in 0..64u64 {
            hd.access_line(0, i * 7, AccessKind::Read, i);
        }
        hd.publish_queue_delays();
        let snap2 = tel2.snapshot();
        assert!(snap2
            .gauges
            .iter()
            .any(|g| g.name == "mem.dram.row_hit_rate"));
        assert!(snap2
            .gauges
            .iter()
            .any(|g| g.name.starts_with("mem.l2.bank.") && g.value > 0.0));
    }

    #[test]
    fn bank_queue_bounds_admission_depth() {
        let mut q = BankQueue::default();
        // Fill a depth-2 queue with service starts in the future.
        assert_eq!(q.admit(0, 2), 0);
        q.push(10);
        assert_eq!(q.admit(0, 2), 0);
        q.push(20);
        // Queue full: the next arrival waits until the oldest of the
        // last 2 occupants starts service (cycle 10).
        assert_eq!(q.admit(0, 2), 10);
        q.push(30);
        assert_eq!(q.peak, 3);
        // Arrivals after starts drain see a free queue again.
        assert_eq!(q.admit(35, 2), 35);
    }
}
