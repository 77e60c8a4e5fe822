//! Set-associative cache tag array with true LRU replacement.
//!
//! The tag array only decides hits, misses, and evictions; counting
//! lives in the tallies of [`crate::MemoryHierarchy`], so there is one
//! source of truth for memory statistics.

use crate::config::CacheConfig;
use crate::Cycle;
use std::collections::BTreeMap;

/// Entries the fallback ghost map may hold beyond twice what its last
/// sweep left in flight.
const SPILL_SLACK: usize = 64;

/// Whether an access read or wrote the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Read access.
    Read,
    /// Write access (write-allocate).
    Write,
}

/// Result of a tag-array lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAccess {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled.
    Miss {
        /// Whether a valid line was displaced by the fill.
        evicted: bool,
    },
}

impl CacheAccess {
    /// Whether the lookup hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheAccess::Hit)
    }

    /// Whether the lookup displaced a valid line.
    pub fn evicted(&self) -> bool {
        matches!(self, CacheAccess::Miss { evicted: true })
    }
}

/// What [`Cache::access_in_flight`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LegacyAccess {
    /// The line was present; `in_flight` if its fill completes after the
    /// access.
    Hit { in_flight: bool },
    /// The line was absent and is now installed in `way`, whose fill
    /// [`Cache::raise_fill`] sets.
    Miss { evicted: bool, way: usize },
}

/// Ghost slots per set; a set with more lines evicted in flight at once
/// spills the rest to the fallback map.
pub(crate) const GHOST_SLOTS: usize = 2;

/// One way of a set. Validity is folded into the LRU stamp: `stamp` is
/// the last-use cycle plus one, and zero marks an invalid way — so the
/// LRU victim (smallest stamp, first on ties) is an invalid way whenever
/// the set has one, with no separate flag to test.
#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    stamp: Cycle,
}

/// A line evicted while its fill was in flight, and when that fill
/// completes. The slot is free once `fill` has passed.
#[derive(Debug, Clone, Copy, Default)]
struct Ghost {
    tag: u64,
    fill: Cycle,
}

/// A set's ghost slots, and the latest fill ever given to one of them
/// and to one of the set's spilled ghosts: a miss looks for a ghost only
/// while one of these is ahead of it.
#[derive(Debug, Clone, Copy, Default)]
struct SetGhosts {
    slots: [Ghost; GHOST_SLOTS],
    slots_until: Cycle,
    spilled_until: Cycle,
}

/// The ghost bookkeeping one tag array did, counted in test builds.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct GhostTally {
    /// Misses that took their fill from a ghost slot.
    pub(crate) slot_hits: u64,
    /// Misses that took their fill from the fallback map.
    pub(crate) spill_hits: u64,
    /// The fallback map's inserts, removes and sweeps — every map
    /// operation the tag array makes.
    pub(crate) map_inserts: u64,
    pub(crate) map_removes: u64,
    pub(crate) map_sweeps: u64,
    /// Ghost slots scanned plus map entries swept.
    pub(crate) visits: u64,
}

/// A set-associative cache tag array with LRU replacement.
///
/// Only tags are tracked (data correctness lives in
/// [`crate::AddressSpace`]); the tag array decides hits and misses for
/// the timing model.
///
/// The fill-at-lookup path also tells hits on a line whose fill is
/// still in flight from true hits. Each way keeps its line's fill
/// cycle. A line evicted before its fill completes leaves a *ghost* —
/// its tag and fill cycle — in one of its set's ghost slots, or in a
/// fallback map while every slot of the set holds a live ghost; when
/// the line is installed again its fill starts from the ghost's. So a
/// way's fill is the latest fill requested for its line whenever that
/// fill is still ahead, provided the cycles a tag array is accessed at
/// never decrease (a dead ghost then stays dead).
///
/// # Example
/// ```
/// use gpu_mem::{AccessKind, Cache, CacheConfig};
/// let mut c = Cache::new(&CacheConfig::new(1024, 4, 64, 8, 1));
/// assert!(!c.access(0, AccessKind::Read, 0).is_hit());
/// assert!(c.access(0, AccessKind::Read, 1).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    /// Every way of every set in one allocation: set `i` is
    /// `ways[i * assoc..][..assoc]`.
    ways: Vec<Way>,
    /// When each way's fill completes, laid out as `ways`; allocated at
    /// the first fill-at-lookup miss (zero for other installs).
    fills: Vec<Cycle>,
    /// One per set, allocated at the first ghost.
    ghosts: Vec<SetGhosts>,
    /// Ghosts of sets whose slots were all live, by line. A B-tree, not
    /// a hash map: with a second `U64HashBuilder` map in this crate the
    /// optimiser stopped inlining the page table's hashing into
    /// `AddressSpace::write_u32` (30 % slower workload set-up).
    spilled: BTreeMap<u64, Cycle>,
    /// Length at which `spilled` drops its dead ghosts: twice what the
    /// last sweep left, plus [`SPILL_SLACK`].
    spill_sweep_at: usize,
    assoc: usize,
    line_shift: u32,
    set_shift: u32,
    set_mask: u64,
    #[cfg(test)]
    pub(crate) tally: GhostTally,
}

impl Cache {
    /// Builds a cache from a configuration.
    ///
    /// # Panics
    /// Panics if the configuration does not describe at least one set of
    /// at least one way, or if sizes are not powers of two.
    pub fn new(config: &CacheConfig) -> Self {
        let num_lines = config.size_bytes / config.line_bytes;
        assert!(config.assoc > 0, "cache must have at least one way");
        assert!(
            num_lines >= config.assoc,
            "cache must have at least one set"
        );
        let num_sets = num_lines / config.assoc;
        assert!(
            num_sets.is_power_of_two() && config.line_bytes.is_power_of_two(),
            "cache geometry must be a power of two"
        );
        let num_ways = (num_sets * config.assoc) as usize;
        Cache {
            ways: vec![Way { tag: 0, stamp: 0 }; num_ways],
            fills: Vec::new(),
            ghosts: Vec::new(),
            spilled: BTreeMap::new(),
            spill_sweep_at: SPILL_SLACK,
            assoc: config.assoc as usize,
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: num_sets.trailing_zeros(),
            set_mask: num_sets - 1,
            #[cfg(test)]
            tally: GhostTally::default(),
        }
    }

    /// The set the line containing `addr` maps to, and the line's tag.
    #[inline]
    fn set_of(&mut self, addr: u64) -> (&mut [Way], u64) {
        let line = addr >> self.line_shift;
        let base = (line & self.set_mask) as usize * self.assoc;
        (
            &mut self.ways[base..base + self.assoc],
            line >> self.set_shift,
        )
    }

    /// Refreshes the LRU stamp of `tag` if the set holds it, returning
    /// its way's index in the set.
    #[inline]
    fn touch(set: &mut [Way], tag: u64, now: Cycle) -> Option<usize> {
        let i = set.iter().position(|w| w.tag == tag && w.stamp != 0)?;
        set[i].stamp = now + 1;
        Some(i)
    }

    /// Installs `tag` over the set's LRU victim, returning whether a
    /// valid line was displaced. `min_by_key` keeps the first of equal
    /// stamps, and an (impossible) empty set is a no-op, not a panic.
    #[inline]
    fn install(set: &mut [Way], tag: u64, now: Cycle) -> bool {
        let Some(victim) = set.iter_mut().min_by_key(|w| w.stamp) else {
            return false;
        };
        let evicted = victim.stamp != 0;
        *victim = Way {
            tag,
            stamp: now + 1,
        };
        evicted
    }

    /// Looks up (and on miss, fills) the line containing `addr`.
    ///
    /// This is the legacy-fidelity composition of [`Cache::lookup`] and
    /// [`Cache::fill`]: the line is installed at lookup time even though
    /// the real fill is still in flight. The detailed miss path keeps
    /// the two halves apart and fills when the data actually arrives.
    pub fn access(&mut self, addr: u64, _kind: AccessKind, now: Cycle) -> CacheAccess {
        match self.access_in_flight(addr, now) {
            LegacyAccess::Hit { .. } => CacheAccess::Hit,
            LegacyAccess::Miss { evicted, .. } => CacheAccess::Miss { evicted },
        }
    }

    /// [`Cache::access`], telling a hit on a line whose fill is still in
    /// flight at `now` from a true hit. A miss names the way the line
    /// took; its fill is the one a live ghost of the line left, if any,
    /// until [`Cache::raise_fill`] moves it out. The victim leaves a
    /// ghost if its own fill is still in flight.
    pub(crate) fn access_in_flight(&mut self, addr: u64, now: Cycle) -> LegacyAccess {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        let base = set * self.assoc;
        let ways = &mut self.ways[base..base + self.assoc];
        if let Some(i) = Self::touch(ways, tag, now) {
            return LegacyAccess::Hit {
                in_flight: self.fills.get(base + i).is_some_and(|&f| f > now),
            };
        }
        let Some((i, &old)) = ways.iter().enumerate().min_by_key(|(_, w)| w.stamp) else {
            return LegacyAccess::Miss {
                evicted: false,
                way: base,
            };
        };
        ways[i] = Way {
            tag,
            stamp: now + 1,
        };
        let way = base + i;
        if self.fills.is_empty() {
            self.fills = vec![0; self.ways.len()];
        }
        let old_fill = self.fills[way];
        self.fills[way] = match self.ghosts.get(set) {
            Some(g) if g.slots_until.max(g.spilled_until) > now => self.unbury(set, tag, line, now),
            _ => 0,
        };
        let evicted = old.stamp != 0;
        if evicted && old_fill > now {
            self.bury(set, old.tag, old_fill, now);
        }
        LegacyAccess::Miss { evicted, way }
    }

    /// Moves the fill of `way` (named by a [`LegacyAccess::Miss`]) out to
    /// `done`, if that is later.
    pub(crate) fn raise_fill(&mut self, way: usize, done: Cycle) {
        if let Some(fill) = self.fills.get_mut(way) {
            *fill = (*fill).max(done);
        }
    }

    /// Consumes the ghost `tag` left in `set`, returning its fill if that
    /// is still ahead of `now` (zero otherwise).
    fn unbury(&mut self, set: usize, tag: u64, line: u64, now: Cycle) -> Cycle {
        let g = &mut self.ghosts[set];
        if g.slots_until > now {
            #[cfg(test)]
            {
                self.tally.visits += GHOST_SLOTS as u64;
            }
            if let Some(slot) = g.slots.iter_mut().find(|s| s.tag == tag && s.fill > now) {
                #[cfg(test)]
                {
                    self.tally.slot_hits += 1;
                }
                return std::mem::take(&mut slot.fill);
            }
        }
        if g.spilled_until > now {
            #[cfg(test)]
            {
                self.tally.map_removes += 1;
            }
            if let Some(fill) = self.spilled.remove(&line).filter(|&f| f > now) {
                #[cfg(test)]
                {
                    self.tally.spill_hits += 1;
                }
                return fill;
            }
        }
        0
    }

    /// Leaves a ghost of the line `tag` of `set`, whose fill completes at
    /// `fill` (after `now`): in a slot whose ghost is dead, or else in the
    /// fallback map, which first drops its own dead ghosts once it has
    /// doubled.
    fn bury(&mut self, set: usize, tag: u64, fill: Cycle, now: Cycle) {
        if self.ghosts.is_empty() {
            let sets = self.set_mask as usize + 1;
            self.ghosts.resize(sets, SetGhosts::default());
        }
        let g = &mut self.ghosts[set];
        #[cfg(test)]
        {
            self.tally.visits += GHOST_SLOTS as u64;
        }
        if let Some(slot) = g.slots.iter_mut().find(|s| s.fill <= now) {
            *slot = Ghost { tag, fill };
            g.slots_until = g.slots_until.max(fill);
            return;
        }
        g.spilled_until = g.spilled_until.max(fill);
        if self.spilled.len() >= self.spill_sweep_at {
            #[cfg(test)]
            {
                self.tally.map_sweeps += 1;
                self.tally.visits += self.spilled.len() as u64;
            }
            self.spilled.retain(|_, f| *f > now);
            self.spill_sweep_at = 2 * self.spilled.len() + SPILL_SLACK;
        }
        #[cfg(test)]
        {
            self.tally.map_inserts += 1;
        }
        self.spilled
            .insert(tag << self.set_shift | set as u64, fill);
    }

    /// Probes the tag array for the line containing `addr` without
    /// modifying it on a miss. A hit refreshes the line's LRU stamp.
    pub fn lookup(&mut self, addr: u64, now: Cycle) -> bool {
        let (set, tag) = self.set_of(addr);
        Self::touch(set, tag, now).is_some()
    }

    /// Installs the line containing `addr` (a fill completing at `now`),
    /// returning whether a valid line was displaced. Refreshes the LRU
    /// stamp instead if the line is already present.
    pub fn fill(&mut self, addr: u64, now: Cycle) -> bool {
        let (set, tag) = self.set_of(addr);
        Self::touch(set, tag, now).is_none() && Self::install(set, tag, now)
    }

    /// Invalidates every line and forgets every ghost (e.g. at kernel
    /// boundaries, matching the MGPUSim behavior of flushing caches
    /// between kernels).
    pub fn flush(&mut self) {
        for way in &mut self.ways {
            way.stamp = 0;
        }
        self.ghosts.clear();
        self.spilled.clear();
        self.spill_sweep_at = SPILL_SLACK;
    }

    /// `(ghosts in slots, ghosts in the fallback map)` whose fill is
    /// after `now`, and the map's length.
    #[cfg(test)]
    pub(crate) fn ghosts(&self, now: Cycle) -> (usize, usize, usize) {
        let slots = self.ghosts.iter().flat_map(|g| &g.slots);
        let spilled = self.spilled.values().filter(|&&f| f > now).count();
        (
            slots.filter(|s| s.fill > now).count(),
            spilled,
            self.spilled.len(),
        )
    }

    /// Valid lines whose fill is after `now`.
    #[cfg(test)]
    pub(crate) fn lines_in_flight(&self, now: Cycle) -> usize {
        let ways = self.ways.iter().zip(&self.fills);
        ways.filter(|(w, &f)| w.stamp != 0 && f > now).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B
        Cache::new(&CacheConfig::new(512, 2, 64, 8, 1))
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = small();
        assert!(!c.access(0x100, AccessKind::Read, 0).is_hit());
        assert!(c.access(0x100, AccessKind::Read, 1).is_hit());
        assert!(c.access(0x13f, AccessKind::Read, 2).is_hit()); // same line
        assert!(!c.access(0x140, AccessKind::Read, 3).is_hit()); // next line
    }

    #[test]
    fn lru_evicts_oldest_and_reports_eviction() {
        let mut c = small();
        // Three lines mapping to the same set (set stride = 4 sets * 64B = 256B)
        let a = 0u64;
        let b = 256u64;
        let d = 512u64;
        // Cold fills land in invalid ways: no eviction.
        assert!(!c.access(a, AccessKind::Read, 0).evicted());
        assert!(!c.access(b, AccessKind::Read, 1).evicted());
        c.access(a, AccessKind::Read, 2); // a is now MRU
        assert!(c.access(d, AccessKind::Read, 3).evicted()); // displaces b
        assert!(c.access(a, AccessKind::Read, 4).is_hit());
        assert!(!c.access(b, AccessKind::Read, 5).is_hit());
    }

    #[test]
    fn flush_invalidates_without_later_evictions() {
        let mut c = small();
        c.access(0, AccessKind::Write, 0);
        c.flush();
        // Refill after flush lands in an invalidated way: a miss, but
        // not an eviction.
        assert_eq!(
            c.access(0, AccessKind::Read, 1),
            CacheAccess::Miss { evicted: false }
        );
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn degenerate_geometry_panics() {
        let _ = Cache::new(&CacheConfig::new(64, 2, 64, 8, 1));
    }

    #[test]
    fn lookup_does_not_fill() {
        let mut c = small();
        assert!(!c.lookup(0x100, 0));
        // A second probe still misses: lookup never installed the line.
        assert!(!c.lookup(0x100, 1));
        assert!(!c.fill(0x100, 2));
        assert!(c.lookup(0x100, 3));
    }

    #[test]
    fn fill_refreshes_lru_for_present_lines() {
        let mut c = small();
        // Two lines in one set (stride 256), then a racing re-fill of
        // the older one: it must refresh, so the third line evicts b.
        c.fill(0, 0);
        c.fill(256, 1);
        assert!(!c.fill(0, 2), "re-fill of a present line displaces nothing");
        assert!(c.fill(512, 3), "third line must evict");
        assert!(c.lookup(0, 4), "refreshed line survived");
        assert!(!c.lookup(256, 5), "stale line was the victim");
    }

    /// Installs `addr` at `now` with its fill completing at `done`.
    fn miss(c: &mut Cache, addr: u64, now: Cycle, done: Cycle) {
        match c.access_in_flight(addr, now) {
            LegacyAccess::Miss { way, .. } => c.raise_fill(way, done),
            hit => panic!("{addr:#x} at {now}: {hit:?}"),
        }
    }

    fn in_flight(c: &mut Cache, addr: u64, now: Cycle) -> bool {
        match c.access_in_flight(addr, now) {
            LegacyAccess::Hit { in_flight } => in_flight,
            miss => panic!("{addr:#x} at {now}: {miss:?}"),
        }
    }

    #[test]
    fn a_line_evicted_in_flight_comes_back_with_the_later_fill() {
        let mut c = small();
        // a's fill is in flight until 500; b and d (same set) push it
        // out at 10 and 11, so it leaves a ghost.
        miss(&mut c, 0, 0, 500);
        miss(&mut c, 256, 10, 20);
        miss(&mut c, 512, 11, 21);
        assert_eq!(c.ghosts(11), (1, 0, 0));
        // Re-missed with an earlier fill: the ghost's is the later one.
        miss(&mut c, 0, 30, 100);
        assert_eq!(c.ghosts(30), (0, 0, 0), "the ghost was consumed");
        assert!(in_flight(&mut c, 0, 499));
        assert!(!in_flight(&mut c, 0, 500));
        assert_eq!(c.tally.slot_hits, 1);
    }

    #[test]
    fn a_ghost_whose_fill_has_passed_is_not_taken() {
        let mut c = small();
        // Set 0: line 0 leaves a ghost filling at 100, tag 3 one filling
        // at 900, which keeps the set's ghost scan open past 100.
        miss(&mut c, 0, 0, 100);
        miss(&mut c, 256, 1, 2);
        miss(&mut c, 512, 2, 3);
        miss(&mut c, 768, 3, 900);
        miss(&mut c, 1024, 4, 5);
        miss(&mut c, 1280, 5, 6);
        assert_eq!(c.ghosts(5), (2, 0, 0));
        miss(&mut c, 0, 200, 210);
        assert_eq!(c.tally.slot_hits, 0);
        assert_eq!(c.ghosts(200), (1, 0, 0));
    }

    #[test]
    fn ghosts_spill_to_the_map_when_every_slot_is_live_and_flush_drops_them() {
        let mut c = small();
        // Set 0 turns over six in-flight lines in a row: two ways, two
        // ghost slots, so the last two evictions spill.
        for i in 0..6u64 {
            miss(&mut c, i * 256, i, 1_000 + i);
        }
        assert_eq!(c.ghosts(5), (2, 2, 2));
        assert_eq!(c.tally.map_inserts, 2);
        // The first spilled line (line 8) comes back from the map.
        miss(&mut c, 512, 6, 50);
        assert_eq!(c.tally.spill_hits, 1);
        assert!(in_flight(&mut c, 512, 1_001));
        c.flush();
        assert_eq!(c.ghosts(0), (0, 0, 0));
        miss(&mut c, 768, 7, 8);
        assert!(!in_flight(&mut c, 768, 9), "flushed ghosts stay gone");
    }
}
