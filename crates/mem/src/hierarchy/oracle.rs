//! The differential oracle of the hierarchy's bookkeeping.
//!
//! [`LinearMshrFile`] and [`NestedCache`] are the linear-scan MSHR file
//! and the `Vec<Vec<Way>>` tag array that [`crate::mshr::MshrFile`] and
//! [`crate::cache::Cache`] replaced, kept verbatim. In test builds the
//! hierarchy is compiled against the [`Cache`] / [`MshrFile`] wrappers
//! below, which run either implementation, so the very same timing code
//! can be replayed on both and every response compared.

use super::{MemResponse, MemoryHierarchy, LINE_BYTES};
use crate::cache::{AccessKind, CacheAccess};
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
/// the whole `Vec`, and the legacy shadow expires eagerly.
#[derive(Debug)]
pub(super) struct LinearMshrFile {
    entries: Vec<MshrEntry>,
    capacity: usize,
    merge_slots: u64,
}

impl LinearMshrFile {
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
    Flat(crate::cache::Cache),
    Nested(NestedCache),
}

impl Cache {
    pub(super) fn new(config: &CacheConfig) -> Self {
        Cache::Flat(crate::cache::Cache::new(config))
    }

    pub(super) fn access(&mut self, addr: u64, kind: AccessKind, now: Cycle) -> CacheAccess {
        match self {
            Cache::Flat(c) => c.access(addr, kind, now),
            Cache::Nested(c) => c.access(addr, kind, now),
        }
    }

    pub(super) fn lookup(&mut self, addr: u64, now: Cycle) -> bool {
        match self {
            Cache::Flat(c) => c.lookup(addr, now),
            Cache::Nested(c) => c.lookup(addr, now),
        }
    }

    pub(super) fn fill(&mut self, addr: u64, now: Cycle) -> bool {
        match self {
            Cache::Flat(c) => c.fill(addr, now),
            Cache::Nested(c) => c.fill(addr, now),
        }
    }

    pub(super) fn flush(&mut self) {
        match self {
            Cache::Flat(c) => c.flush(),
            Cache::Nested(c) => c.flush(),
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

    pub(super) fn unbounded() -> Self {
        MshrFile::Indexed(crate::mshr::MshrFile::unbounded())
    }

    /// The linear-scan file as the parent tree built it: bounded by
    /// `cfg` in detailed fidelity, the unbounded shadow in legacy.
    fn linear(cfg: &MshrConfig, detailed: bool) -> Self {
        let (capacity, merge_slots) = if detailed {
            ((cfg.entries as usize).max(1), cfg.merge_slots)
        } else {
            (usize::MAX, u64::MAX)
        };
        MshrFile::Linear(LinearMshrFile {
            entries: Vec::new(),
            capacity,
            merge_slots,
        })
    }

    pub(super) fn expire(&mut self, now: Cycle, install: impl FnMut(u64, Cycle)) {
        match self {
            MshrFile::Indexed(m) => m.expire(now, install),
            MshrFile::Linear(m) => m.expire(now, install),
        }
    }

    /// The linear shadow expired eagerly where the indexed one only
    /// moves its clock.
    pub(super) fn advance(&mut self, now: Cycle) {
        match self {
            MshrFile::Indexed(m) => m.advance(now),
            MshrFile::Linear(m) => m.expire(now, |_, _| {}),
        }
    }

    pub(super) fn in_flight(&mut self, line: u64) -> bool {
        match self {
            MshrFile::Indexed(m) => m.in_flight(line),
            MshrFile::Linear(m) => m.find_mut(line).is_some(),
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

    /// The indexed file behind the wrapper (invariant tests).
    fn indexed(&self) -> &crate::mshr::MshrFile {
        match self {
            MshrFile::Indexed(m) => m,
            MshrFile::Linear(_) => panic!("the oracle file has no index"),
        }
    }
}

impl MemoryHierarchy {
    /// The same hierarchy on the bookkeeping this tree replaced.
    fn on_oracle(config: MemHierarchyConfig) -> Self {
        let mut h = MemoryHierarchy::new(config.clone());
        let detailed = h.detailed;
        for (caches, cfg) in [
            (&mut h.l1v, &config.l1v),
            (&mut h.l1s, &config.l1s),
            (&mut h.l2, &config.l2),
        ] {
            for c in caches {
                *c = Cache::Nested(NestedCache::new(cfg));
            }
        }
        for (files, cfg) in [
            (&mut h.l1v_mshr, &config.fidelity.l1v_mshr),
            (&mut h.l1s_mshr, &config.fidelity.l1s_mshr),
            (&mut h.l2_mshr, &config.fidelity.l2_mshr),
        ] {
            for m in files {
                *m = MshrFile::linear(cfg, detailed);
            }
        }
        h
    }

    fn mshr_files(&self) -> impl Iterator<Item = &crate::mshr::MshrFile> {
        self.l1v_mshr
            .iter()
            .chain(&self.l1s_mshr)
            .chain(&self.l2_mshr)
            .map(MshrFile::indexed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

        fn finish(self) {
            assert!(self.requests > 0);
            assert_eq!(self.new.stats(), self.old.stats());
            assert_eq!(self.new.queue_delays(), self.old.queue_delays());
            let peaks =
                |h: &MemoryHierarchy| h.l2_queues.iter().map(|q| q.peak).collect::<Vec<_>>();
            assert_eq!(peaks(&self.new), peaks(&self.old));
            assert_eq!(self.new.l1v_free, self.old.l1v_free);
            assert_eq!(self.new.l2_free, self.old.l2_free);
            assert_eq!(self.new.dram_free, self.old.dram_free);
        }
    }

    fn base_config() -> MemHierarchyConfig {
        let mut c = MemHierarchyConfig::r9_nano();
        c.num_cus = 16;
        c
    }

    /// Runs `stream` once per fidelity on `config`.
    fn in_both_fidelities(config: MemHierarchyConfig, stream: impl Fn(&mut Twins)) {
        for config in [config.clone(), config.with_detailed_fidelity()] {
            let mut twins = Twins::new(config);
            stream(&mut twins);
            twins.finish();
        }
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
        in_both_fidelities(base_config(), |t| {
            spmv_bursts(t, 1, 150, 40_000);
            // A working set small enough to hit, merge and re-miss.
            spmv_bursts(t, 2, 150, 600);
        });
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
        /// each legacy file services at a clock that never runs
        /// backwards: the `debug_assert!` in `MshrFile::advance`, which
        /// is what makes the lazy sweep exact, never fires, and the
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
    }

    #[test]
    fn a_long_stream_leaves_legacy_files_bounded_and_flush_empties_them() {
        // A million distinct lines, each requested long after the fill
        // before it completed: a file that only ever appended would hold
        // them all.
        let mut config = base_config();
        config.num_cus = 4;
        let mut h = MemoryHierarchy::new(config);
        for i in 0..1_000_000u64 {
            h.access_line((i % 4) as usize, i, AccessKind::Read, i * 2_000);
        }
        assert_eq!(h.stats().dram_accesses, 1_000_000);
        for m in h.mshr_files() {
            let (held, live, indexed) = m.occupancy();
            assert!(
                held <= 2 * live + 128,
                "{held} entries for {live} in flight"
            );
            assert_eq!(held, indexed);
        }
        h.flush_caches();
        for m in h.mshr_files() {
            assert_eq!(m.occupancy(), (0, 0, 0));
        }
    }

    #[test]
    fn servicing_a_line_visits_a_constant_number_of_entries() {
        // A miss-heavy stream that keeps hundreds of fills in flight per
        // file. The linear file visited about three times its length per
        // line and level; the indexed one probes once or twice and
        // sweeps in amortised O(1).
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
            let live = h.mshr_files().map(|m| m.occupancy().1).max();
            peak_live = peak_live.max(live.unwrap_or(0));
        }
        assert!(peak_live >= 200, "only {peak_live} fills in flight");
        let s = h.stats();
        assert!(s.l1v_misses * 10 > lines * 9, "stream must be miss-heavy");
        let visits = |files: &[MshrFile]| files.iter().map(|m| m.indexed().visits).sum::<u64>();
        let l1v = visits(&h.l1v_mshr) as f64 / lines as f64;
        let l2 = visits(&h.l2_mshr) as f64 / (s.l2_hits + s.l2_misses) as f64;
        assert!(l1v <= 4.0, "{l1v} L1V entries visited per line");
        assert!(l2 <= 4.0, "{l2} L2 entries visited per line");
    }
}
