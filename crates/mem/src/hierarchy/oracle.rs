//! The differential oracle of the hierarchy's bookkeeping.
//!
//! [`LinearMshrFile`] and [`NestedCache`] are the linear-scan MSHR file
//! and the `Vec<Vec<Way>>` tag array that [`crate::mshr::MshrFile`] and
//! [`crate::cache::Cache`] replaced. A `LinearMshrFile` also stands in
//! for the legacy path's in-flight fills, as the eagerly expired,
//! unbounded counting shadow each legacy tag array used to be paired
//! with, where the tag array now keeps fill cycles and ghosts itself. In
//! test builds the hierarchy is compiled against the [`Cache`] /
//! [`MshrFile`] wrappers below, which run either implementation, so the
//! very same timing code can be replayed on both and every response
//! compared.

use super::{MemResponse, MemoryHierarchy, LINE_BYTES};
use crate::cache::{AccessKind, CacheAccess, LegacyAccess};
use crate::config::{CacheConfig, MemHierarchyConfig, MshrConfig};
use crate::mshr::MshrEntry;
use crate::Cycle;

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    last_use: Cycle,
}

/// The nested-`Vec` tag array: one separately allocated `Vec<Way>` per
/// set, validity in its own flag.
#[derive(Debug)]
pub(super) struct NestedCache {
    sets: Vec<Vec<Way>>,
    line_shift: u32,
    set_mask: u64,
}

impl NestedCache {
    fn new(config: &CacheConfig) -> Self {
        let num_sets = config.size_bytes / config.line_bytes / config.assoc;
        NestedCache {
            sets: vec![
                vec![
                    Way {
                        tag: 0,
                        valid: false,
                        last_use: 0
                    };
                    config.assoc as usize
                ];
                num_sets as usize
            ],
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: num_sets - 1,
        }
    }

    fn access(&mut self, addr: u64, _kind: AccessKind, now: Cycle) -> CacheAccess {
        if self.lookup(addr, now) {
            CacheAccess::Hit
        } else {
            CacheAccess::Miss {
                evicted: self.fill(addr, now),
            }
        }
    }

    fn lookup(&mut self, addr: u64, now: Cycle) -> bool {
        let line = addr >> self.line_shift;
        let set_idx = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        if let Some(way) = self.sets[set_idx]
            .iter_mut()
            .find(|w| w.valid && w.tag == tag)
        {
            way.last_use = now;
            return true;
        }
        false
    }

    fn fill(&mut self, addr: u64, now: Cycle) -> bool {
        let line = addr >> self.line_shift;
        let set_idx = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.last_use = now;
            return false;
        }
        let mut victim: Option<&mut Way> = None;
        let mut victim_key = u64::MAX;
        for w in set.iter_mut() {
            let key = if w.valid { w.last_use + 1 } else { 0 };
            if key < victim_key {
                victim_key = key;
                victim = Some(w);
            }
        }
        let mut evicted = false;
        if let Some(victim) = victim {
            evicted = victim.valid;
            victim.tag = tag;
            victim.valid = true;
            victim.last_use = now;
        }
        evicted
    }

    fn flush(&mut self) {
        for set in &mut self.sets {
            for way in set {
                way.valid = false;
            }
        }
    }
}

/// The linear-scan MSHR file: `expire`, `find_mut` and `alloc` each walk
/// the whole `Vec`. `refreshes` counts allocations that found their line
/// still tracked (for the legacy shadow: re-misses of a line in flight).
#[derive(Debug)]
pub(super) struct LinearMshrFile {
    entries: Vec<MshrEntry>,
    capacity: usize,
    merge_slots: u64,
    refreshes: u64,
}

impl LinearMshrFile {
    fn new(capacity: usize, merge_slots: u64) -> Self {
        LinearMshrFile {
            entries: Vec::new(),
            capacity,
            merge_slots,
            refreshes: 0,
        }
    }

    fn expire(&mut self, now: Cycle, mut install: impl FnMut(u64, Cycle)) {
        let mut i = 0;
        while i < self.entries.len() {
            if self.entries[i].fill_at <= now {
                let e = self.entries.swap_remove(i);
                install(e.line, e.fill_at);
            } else {
                i += 1;
            }
        }
    }

    fn find_mut(&mut self, line: u64) -> Option<&mut MshrEntry> {
        self.entries.iter_mut().find(|e| e.line == line)
    }

    fn alloc(&mut self, line: u64, fill_at: Cycle) {
        if let Some(e) = self.find_mut(line) {
            e.fill_at = e.fill_at.max(fill_at);
            self.refreshes += 1;
        } else {
            self.entries.push(MshrEntry {
                line,
                fill_at,
                merges: 0,
            });
        }
    }
}

/// The tag array the test-build hierarchy is made of.
#[derive(Debug)]
pub(super) enum Cache {
    /// This tree's tag array, and the latest cycle its legacy path was
    /// accessed at.
    Flat(crate::cache::Cache, Cycle),
    /// The nested tag array with the legacy shadow it was paired with,
    /// and the line its latest legacy miss installed.
    Nested {
        cache: NestedCache,
        shadow: LinearMshrFile,
        missed: u64,
    },
}

impl Cache {
    pub(super) fn new(config: &CacheConfig) -> Self {
        Cache::Flat(crate::cache::Cache::new(config), 0)
    }

    /// The flat array asserts that its legacy clock never runs
    /// backwards — what keeps a ghost whose fill has passed dead for
    /// good. The shadow expires eagerly, so a line is in flight iff it
    /// holds an entry for it.
    pub(super) fn access_in_flight(&mut self, addr: u64, now: Cycle) -> LegacyAccess {
        match self {
            Cache::Flat(c, clock) => {
                assert!(
                    now >= *clock,
                    "tag array clock ran backwards: {now} after {clock}"
                );
                *clock = now;
                c.access_in_flight(addr, now)
            }
            Cache::Nested {
                cache,
                shadow,
                missed,
            } => {
                shadow.expire(now, |_, _| {});
                let line = addr / LINE_BYTES;
                match cache.access(addr, AccessKind::Read, now) {
                    CacheAccess::Hit => LegacyAccess::Hit {
                        in_flight: shadow.find_mut(line).is_some(),
                    },
                    CacheAccess::Miss { evicted } => {
                        *missed = line;
                        LegacyAccess::Miss { evicted, way: 0 }
                    }
                }
            }
        }
    }

    pub(super) fn raise_fill(&mut self, way: usize, done: Cycle) {
        match self {
            Cache::Flat(c, _) => c.raise_fill(way, done),
            Cache::Nested { shadow, missed, .. } => shadow.alloc(*missed, done),
        }
    }

    pub(super) fn lookup(&mut self, addr: u64, now: Cycle) -> bool {
        match self {
            Cache::Flat(c, _) => c.lookup(addr, now),
            Cache::Nested { cache, .. } => cache.lookup(addr, now),
        }
    }

    pub(super) fn fill(&mut self, addr: u64, now: Cycle) -> bool {
        match self {
            Cache::Flat(c, _) => c.fill(addr, now),
            Cache::Nested { cache, .. } => cache.fill(addr, now),
        }
    }

    pub(super) fn flush(&mut self) {
        match self {
            Cache::Flat(c, _) => c.flush(),
            Cache::Nested { cache, shadow, .. } => {
                cache.flush();
                shadow.entries.clear();
            }
        }
    }

    /// Legacy misses on a line whose earlier fill was still in flight:
    /// ghosts taken, or shadow entries refreshed.
    fn ghost_hits(&self) -> u64 {
        match self {
            Cache::Flat(c, _) => c.tally.slot_hits + c.tally.spill_hits,
            Cache::Nested { shadow, .. } => shadow.refreshes,
        }
    }

    /// This tree's tag array behind the wrapper, and its legacy clock
    /// (invariant tests).
    fn flat(&self) -> (&crate::cache::Cache, Cycle) {
        match self {
            Cache::Flat(c, clock) => (c, *clock),
            Cache::Nested { .. } => panic!("the oracle tag array keeps no ghosts"),
        }
    }
}

/// The MSHR file the test-build hierarchy is made of.
#[derive(Debug)]
pub(super) enum MshrFile {
    Indexed(crate::mshr::MshrFile),
    Linear(LinearMshrFile),
}

impl MshrFile {
    pub(super) fn new(cfg: &MshrConfig) -> Self {
        MshrFile::Indexed(crate::mshr::MshrFile::new(cfg))
    }

    /// The linear-scan file as the parent tree built it.
    fn linear(cfg: &MshrConfig) -> Self {
        MshrFile::Linear(LinearMshrFile::new(
            (cfg.entries as usize).max(1),
            cfg.merge_slots,
        ))
    }

    pub(super) fn expire(&mut self, now: Cycle, install: impl FnMut(u64, Cycle)) {
        match self {
            MshrFile::Indexed(m) => m.expire(now, install),
            MshrFile::Linear(m) => m.expire(now, install),
        }
    }

    pub(super) fn find_mut(&mut self, line: u64) -> Option<&mut MshrEntry> {
        match self {
            MshrFile::Indexed(m) => m.find_mut(line),
            MshrFile::Linear(m) => m.find_mut(line),
        }
    }

    pub(super) fn merge_slots(&self) -> u64 {
        match self {
            MshrFile::Indexed(m) => m.merge_slots(),
            MshrFile::Linear(m) => m.merge_slots,
        }
    }

    pub(super) fn is_full(&self) -> bool {
        match self {
            MshrFile::Indexed(m) => m.is_full(),
            MshrFile::Linear(m) => m.entries.len() >= m.capacity,
        }
    }

    pub(super) fn earliest_fill(&self) -> Cycle {
        match self {
            MshrFile::Indexed(m) => m.earliest_fill(),
            MshrFile::Linear(m) => m.entries.iter().map(|e| e.fill_at).min().unwrap_or(0),
        }
    }

    pub(super) fn alloc(&mut self, line: u64, fill_at: Cycle) {
        match self {
            MshrFile::Indexed(m) => m.alloc(line, fill_at),
            MshrFile::Linear(m) => m.alloc(line, fill_at),
        }
    }

    pub(super) fn clear(&mut self) {
        match self {
            MshrFile::Indexed(m) => m.clear(),
            MshrFile::Linear(m) => m.entries.clear(),
        }
    }
}

impl MemoryHierarchy {
    /// The same hierarchy on the bookkeeping this tree replaced.
    fn on_oracle(config: MemHierarchyConfig) -> Self {
        let mut h = MemoryHierarchy::new(config.clone());
        for (caches, cfg) in [
            (&mut h.l1v, &config.l1v),
            (&mut h.l1s, &config.l1s),
            (&mut h.l2, &config.l2),
        ] {
            for c in caches {
                *c = Cache::Nested {
                    cache: NestedCache::new(cfg),
                    shadow: LinearMshrFile::new(usize::MAX, u64::MAX),
                    missed: 0,
                };
            }
        }
        for (files, cfg) in [
            (&mut h.l1v_mshr, &config.fidelity.l1v_mshr),
            (&mut h.l1s_mshr, &config.fidelity.l1s_mshr),
            (&mut h.l2_mshr, &config.fidelity.l2_mshr),
        ] {
            for m in files {
                *m = MshrFile::linear(cfg);
            }
        }
        h
    }

    fn tag_arrays(&self) -> impl Iterator<Item = &Cache> {
        self.l1v.iter().chain(&self.l1s).chain(&self.l2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{GhostTally, GHOST_SLOTS};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// A hierarchy on the new bookkeeping and its twin on the oracle,
    /// fed the same requests: every response must agree as it is made,
    /// and every statistic at the end.
    struct Twins {
        new: MemoryHierarchy,
        old: MemoryHierarchy,
        requests: u64,
    }

    impl Twins {
        fn new(config: MemHierarchyConfig) -> Self {
            Twins {
                new: MemoryHierarchy::new(config.clone()),
                old: MemoryHierarchy::on_oracle(config),
                requests: 0,
            }
        }

        fn check(&mut self, what: &str, got: MemResponse, want: MemResponse) {
            assert_eq!(
                (got.done, got.queued),
                (want.done, want.queued),
                "request #{} ({what}) diverged from the oracle",
                self.requests
            );
            self.requests += 1;
        }

        fn vector(&mut self, cu: usize, lines: &[u64], write: bool, now: Cycle) {
            let got = self.new.service_vector(cu, lines, write, now);
            let want = self.old.service_vector(cu, lines, write, now);
            self.check("vector", got, want);
        }

        fn scalar(&mut self, cu: usize, addr: u64, now: Cycle) {
            let got = self.new.service_scalar(cu, addr, now);
            let want = self.old.service_scalar(cu, addr, now);
            self.check("scalar", got, want);
        }

        fn flush(&mut self) {
            self.new.flush_caches();
            self.old.flush_caches();
        }

        /// Compares everything the twins counted, per tag array the
        /// re-misses of lines in flight too; returns the new hierarchy.
        fn finish(self) -> MemoryHierarchy {
            assert!(self.requests > 0);
            assert_eq!(self.new.stats(), self.old.stats());
            assert_eq!(self.new.queue_delays(), self.old.queue_delays());
            let peaks =
                |h: &MemoryHierarchy| h.l2_queues.iter().map(|q| q.peak).collect::<Vec<_>>();
            assert_eq!(peaks(&self.new), peaks(&self.old));
            assert_eq!(self.new.l1v_free, self.old.l1v_free);
            assert_eq!(self.new.l2_free, self.old.l2_free);
            assert_eq!(self.new.dram_free, self.old.dram_free);
            let ghost_hits =
                |h: &MemoryHierarchy| h.tag_arrays().map(Cache::ghost_hits).collect::<Vec<_>>();
            assert_eq!(ghost_hits(&self.new), ghost_hits(&self.old));
            self.new
        }
    }

    /// The ghost bookkeeping of every tag array of `h`, summed.
    fn ghost_tally(h: &MemoryHierarchy) -> GhostTally {
        h.tag_arrays()
            .map(|c| c.flat().0.tally)
            .fold(GhostTally::default(), |a, b| GhostTally {
                slot_hits: a.slot_hits + b.slot_hits,
                spill_hits: a.spill_hits + b.spill_hits,
                map_inserts: a.map_inserts + b.map_inserts,
                map_removes: a.map_removes + b.map_removes,
                map_sweeps: a.map_sweeps + b.map_sweeps,
                visits: a.visits + b.visits,
            })
    }

    /// Live ghosts over every tag array of `h`, each at its own clock.
    fn live_ghosts(h: &MemoryHierarchy) -> usize {
        h.tag_arrays()
            .map(|c| {
                let (c, clock) = c.flat();
                let (slots, spilled, _) = c.ghosts(clock);
                slots + spilled
            })
            .sum()
    }

    fn base_config() -> MemHierarchyConfig {
        let mut c = MemHierarchyConfig::r9_nano();
        c.num_cus = 16;
        c
    }

    /// Two CUs with 4-set, `assoc`-way L1Vs, in front of a 16-line,
    /// 2-way L2 bank per bank and one slow DRAM channel: lines are
    /// evicted long before their fills return, many to a set at once.
    fn tiny_config(assoc: u64) -> MemHierarchyConfig {
        let mut c = MemHierarchyConfig::r9_nano();
        c.num_cus = 2;
        c.l1v.size_bytes = 4 * assoc * LINE_BYTES;
        c.l1v.assoc = assoc;
        c.l1s.size_bytes = 2 * LINE_BYTES;
        c.l1s.assoc = 1;
        c.l2.size_bytes = 16 * LINE_BYTES;
        c.l2.assoc = 2;
        c.dram.channels = 1;
        c.dram.service_interval = 8;
        c
    }

    /// Runs `stream` once per fidelity on `config`; returns the legacy
    /// run's new hierarchy.
    fn in_both_fidelities(
        config: MemHierarchyConfig,
        stream: impl Fn(&mut Twins),
    ) -> MemoryHierarchy {
        let mut detailed = Twins::new(config.clone().with_detailed_fidelity());
        stream(&mut detailed);
        detailed.finish();
        let mut legacy = Twins::new(config);
        stream(&mut legacy);
        legacy.finish()
    }

    /// SpMV-shaped bursts: 20 random lines per request from each of 16
    /// CUs, with `now` *decreasing* from one CU to the next (the epoch
    /// coordinator's order), creeping forward round by round so hundreds
    /// of fills stay in flight.
    fn spmv_bursts(t: &mut Twins, seed: u64, rounds: u64, footprint: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for round in 0..rounds {
            for cu in 0..16usize {
                let mut lines: Vec<u64> = (0..20).map(|_| rng.gen_range(0..footprint)).collect();
                lines.sort_unstable();
                lines.dedup();
                let now = round * 40 + (16 - cu as u64) * 3;
                t.vector(cu, &lines, round % 7 == 3, now);
            }
        }
    }

    #[test]
    fn spmv_shaped_bursts_match_the_oracle() {
        let h = in_both_fidelities(base_config(), |t| {
            spmv_bursts(t, 1, 150, 40_000);
            // A working set small enough to hit, merge and re-miss.
            spmv_bursts(t, 2, 150, 600);
        });
        // The legacy path found lines in flight by their ghosts, and its
        // only map operations were the fallback map's inserts and removes
        // (probes, and sweeps of dead ghosts): fewer than one per four
        // misses, where the shadow made two or more hash operations per
        // miss.
        let tally = ghost_tally(&h);
        let s = h.stats();
        let misses = s.l1v_misses + s.l1s_misses + s.l2_misses;
        assert!(tally.slot_hits > 0 && tally.spill_hits > 0, "{tally:?}");
        assert!(
            (tally.map_inserts + tally.map_removes + tally.map_sweeps) * 4 < misses,
            "{tally:?} for {misses} misses"
        );
    }

    #[test]
    fn fir_shaped_streaming_with_same_line_bursts_matches_the_oracle() {
        in_both_fidelities(base_config(), |t| {
            let mut rng = StdRng::seed_from_u64(3);
            for step in 0..1500u64 {
                let cu = (step % 16) as usize;
                let first = 1_000_000 * cu as u64 + step / 16 * 4;
                let lines: Vec<u64> = (first..first + 4).collect();
                let now = step * 6;
                t.vector(cu, &lines, false, now);
                // Same-line burst: other warps of the CU want the lines
                // just requested, at the same cycle and a little later.
                for _ in 0..rng.gen_range(0..4) {
                    t.vector(cu, &lines[..2], false, now + rng.gen_range(0..30u64));
                }
                if step % 5 == 0 {
                    // The taps: one hot line shared by every CU.
                    t.vector(cu, &[77], false, now);
                }
            }
        });
    }

    #[test]
    fn scalar_loads_match_the_oracle() {
        in_both_fidelities(base_config(), |t| {
            let mut rng = StdRng::seed_from_u64(4);
            for step in 0..3000u64 {
                let cu = rng.gen_range(0..16);
                let addr = rng.gen_range(0..200u64) * 48;
                t.scalar(cu, addr, step * 9 + rng.gen_range(0..40u64));
                if step % 11 == 0 {
                    t.vector(cu, &[addr / LINE_BYTES], false, step * 9);
                }
            }
        });
    }

    #[test]
    fn lines_evicted_in_flight_and_re_missed_match_the_oracle() {
        // A 2-line L1V evicts lines while their fill is still in flight;
        // the re-miss refreshes the tracked entry to `max(old, new)`.
        let mut config = base_config();
        config.l1v.size_bytes = 128;
        config.l1v.assoc = 2;
        in_both_fidelities(config, |t| {
            let mut rng = StdRng::seed_from_u64(5);
            for step in 0..6000u64 {
                let cu = rng.gen_range(0..2);
                let line = rng.gen_range(0..5u64) + 1000 * cu as u64;
                t.vector(cu, &[line], false, step * 25 + rng.gen_range(0..200u64));
            }
        });
    }

    /// Hot lines re-missed under a long DRAM queue, mixed with scalar
    /// loads: a line's ghost often fills later than its re-miss (an L2
    /// hit), and a set turns over more lines in flight than it has ghost
    /// slots.
    fn slow_dram_stream(t: &mut Twins, seed: u64, steps: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for step in 0..steps {
            let cu = rng.gen_range(0..2);
            let line = rng.gen_range(0..64u64);
            let now = step * 4 + rng.gen_range(0..50u64);
            if step % 13 == 0 {
                t.scalar(cu, line * LINE_BYTES, now);
            } else {
                t.vector(cu, &[line], step % 5 == 0, now);
            }
        }
    }

    #[test]
    fn more_in_flight_evictions_than_ghost_slots_match_the_oracle() {
        for assoc in [1, 2] {
            let h = in_both_fidelities(tiny_config(assoc), |t| slow_dram_stream(t, 11, 4000));
            let tally = ghost_tally(&h);
            assert!(
                tally.slot_hits > 0 && tally.spill_hits > 0,
                "{assoc}-way: {tally:?}"
            );
        }
    }

    #[test]
    fn flush_with_live_ghosts_matches_the_oracle() {
        in_both_fidelities(tiny_config(1), |t| {
            for kernel in 0..6 {
                slow_dram_stream(t, 20 + kernel, 300);
                // Only the legacy tag arrays keep ghosts.
                if !t.new.detailed {
                    assert!(live_ghosts(&t.new) > 0, "kernel {kernel}");
                }
                t.flush();
                if !t.new.detailed {
                    assert_eq!(live_ghosts(&t.new), 0);
                }
            }
        });
    }

    #[test]
    fn one_entry_zero_merge_slot_mshr_matches_the_oracle() {
        // Back-pressure on every second miss (the second `expire(enter)`
        // of the tag stage) and a stall on every merge.
        let mut config = base_config().with_detailed_fidelity();
        for m in [
            &mut config.fidelity.l1v_mshr,
            &mut config.fidelity.l1s_mshr,
            &mut config.fidelity.l2_mshr,
        ] {
            *m = MshrConfig::new(1, 0);
        }
        let mut twins = Twins::new(config);
        let mut rng = StdRng::seed_from_u64(6);
        for step in 0..4000u64 {
            let cu = rng.gen_range(0..16);
            let line = rng.gen_range(0..300u64);
            let now = step * 15 + rng.gen_range(0..60u64);
            if step % 9 == 0 {
                twins.scalar(cu, line * LINE_BYTES, now);
            } else {
                twins.vector(cu, &[line, line + 1], false, now);
            }
        }
        assert!(twins.new.stats().l1v_mshr_merges > 0);
        twins.finish();
    }

    #[test]
    fn fills_landing_in_one_expire_call_install_in_walk_order() {
        // One 2-way set per L1V and up to 64 fills in flight: whenever
        // the CU comes back after a pause, several fills complete inside
        // one `expire` call and race for the two ways. Which lines
        // survive depends on the order they install in.
        let mut config = base_config().with_detailed_fidelity();
        config.l1v.size_bytes = 128;
        config.l1v.assoc = 2;
        let mut twins = Twins::new(config);
        let mut rng = StdRng::seed_from_u64(7);
        let mut now = 0;
        for burst in 0..400u64 {
            let cu = (burst % 2) as usize;
            let lines: Vec<u64> = (0..rng.gen_range(3..12))
                .map(|_| rng.gen_range(0..24u64))
                .collect();
            for (i, line) in lines.iter().enumerate() {
                twins.vector(cu, &[*line], false, now + i as u64);
            }
            // Long enough for every fill of the burst to come back.
            now += if burst % 3 == 0 { 5_000 } else { 150 };
            twins.vector(cu, &[lines[0]], false, now);
        }
        assert!(twins.new.stats().l1v_evictions > 100);
        twins.finish();
    }

    #[test]
    fn flush_in_mid_stream_matches_the_oracle() {
        in_both_fidelities(base_config(), |t| {
            for kernel in 0..4 {
                spmv_bursts(t, 10 + kernel, 40, 3_000);
                t.flush();
            }
        });
    }

    #[test]
    fn flat_tag_array_matches_the_nested_one_op_for_op() {
        // Stamps drawn from a small range, so LRU ties (first way wins)
        // and re-fills of present lines are common.
        let config = CacheConfig::new(1024, 4, 64, 8, 1);
        let mut flat = crate::cache::Cache::new(&config);
        let mut nested = NestedCache::new(&config);
        let mut rng = StdRng::seed_from_u64(9);
        for op in 0..20_000u32 {
            let addr = rng.gen_range(0..64u64) * 64 + rng.gen_range(0..64u64);
            let now = rng.gen_range(0..12u64) + u64::from(op / 500);
            match rng.gen_range(0..10) {
                0..=3 => assert_eq!(
                    flat.access(addr, AccessKind::Read, now),
                    nested.access(addr, AccessKind::Read, now),
                    "op {op}"
                ),
                4..=6 => assert_eq!(flat.lookup(addr, now), nested.lookup(addr, now), "op {op}"),
                7..=8 => assert_eq!(flat.fill(addr, now), nested.fill(addr, now), "op {op}"),
                _ if op % 97 == 0 => {
                    flat.flush();
                    nested.flush();
                }
                _ => {}
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Whatever `now` the engine passes — decreasing ones included —
        /// each legacy tag array is accessed at a clock that never runs
        /// backwards: the assert in the wrapper's `access_in_flight`,
        /// which is what keeps a dead ghost dead, never fires, and the
        /// oracle agrees on every response.
        #[test]
        fn legacy_file_clocks_never_run_backwards(
            reqs in prop::collection::vec((0usize..16, 0u64..400, 0u64..5_000, any::<bool>()), 1..300)
        ) {
            let mut twins = Twins::new(base_config());
            for (cu, line, now, scalar) in reqs {
                if scalar {
                    twins.scalar(cu, line * LINE_BYTES, now);
                } else {
                    twins.vector(cu, &[line, line + 16, line + 64], false, now);
                }
            }
            twins.finish();
        }

        /// Random `now` on 1- and 2-way tiny caches in front of a slow
        /// DRAM channel, flushes included, in both fidelities.
        #[test]
        fn tiny_caches_under_random_now_match_the_oracle(
            assoc in 1u64..3,
            reqs in prop::collection::vec((0usize..2, 0u64..40, 0u64..3_000, 0u8..16), 1..300)
        ) {
            in_both_fidelities(tiny_config(assoc), |t| {
                for &(cu, line, now, op) in &reqs {
                    match op {
                        0 => t.flush(),
                        1..=2 => t.scalar(cu, line * LINE_BYTES, now),
                        _ => t.vector(cu, &[line, line + 4], op % 4 == 0, now),
                    }
                }
            });
        }
    }

    #[test]
    fn a_long_stream_leaves_legacy_files_bounded_and_flush_empties_them() {
        // A million distinct lines on 1-way L1Vs, each CU's all in one
        // set, eight cycles apart per CU: every L1V set turns over about
        // thirty lines in flight at a time, one in its ghost slot and
        // the rest in the fallback map, which must drop its dead ghosts.
        let mut config = base_config();
        config.num_cus = 4;
        config.l1v.assoc = 1;
        let sets = config.l1v.size_bytes / LINE_BYTES;
        let mut h = MemoryHierarchy::new(config);
        for i in 0..1_000_000u64 {
            let cu = i % 4;
            h.access_line(cu as usize, (i / 4) * sets + cu, AccessKind::Read, i * 2);
        }
        assert_eq!(h.stats().dram_accesses, 1_000_000);
        let mut sweeps = 0;
        for c in h.tag_arrays() {
            let (c, clock) = c.flat();
            let (_, live, held) = c.ghosts(clock);
            assert!(
                held <= 2 * live + 64,
                "{held} spilled ghosts for {live} live"
            );
            sweeps += c.tally.map_sweeps;
        }
        assert!(sweeps > 100, "{sweeps} sweeps");
        h.flush_caches();
        for c in h.tag_arrays() {
            let (c, clock) = c.flat();
            assert_eq!(c.ghosts(clock), (0, 0, 0));
            assert_eq!(c.lines_in_flight(clock), 0);
        }
    }

    #[test]
    fn servicing_a_line_visits_a_constant_number_of_entries() {
        // A miss-heavy stream that keeps hundreds of fills in flight per
        // L1V. The legacy shadow probed a hash index twice per line and
        // level and swept itself; the tag array scans a set's ghost
        // slots at most twice per miss, and the fallback map's sweeps
        // cost O(1) amortised per ghost spilled.
        let mut h = MemoryHierarchy::new(base_config());
        let mut rng = StdRng::seed_from_u64(8);
        let mut peak_live = 0;
        let mut lines = 0u64;
        while lines < 100_000 {
            let round = lines / 320;
            for cu in 0..16usize {
                for _ in 0..20 {
                    let line = rng.gen_range(0..4_000_000u64);
                    h.access_line(cu, line, AccessKind::Read, round * 4);
                    lines += 1;
                }
            }
            let live = h.l1v.iter().map(|c| {
                let (c, clock) = c.flat();
                let (slots, spilled, _) = c.ghosts(clock);
                c.lines_in_flight(clock) + slots + spilled
            });
            peak_live = peak_live.max(live.max().unwrap_or(0));
        }
        assert!(peak_live >= 200, "only {peak_live} fills in flight");
        let s = h.stats();
        assert!(s.l1v_misses * 10 > lines * 9, "stream must be miss-heavy");
        let visits =
            |caches: &[Cache]| caches.iter().map(|c| c.flat().0.tally.visits).sum::<u64>() as f64;
        let l1v = visits(&h.l1v) / lines as f64;
        let l2 = visits(&h.l2) / (s.l2_hits + s.l2_misses) as f64;
        let bound = 2.0 * GHOST_SLOTS as f64 + 2.0;
        assert!(l1v <= bound, "{l1v} L1V entries visited per line");
        assert!(l2 <= bound, "{l2} L2 entries visited per line");
    }
}
