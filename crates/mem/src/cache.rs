//! Set-associative cache tag array with true LRU replacement.
//!
//! The tag array only decides hits, misses, and evictions; counting
//! lives in the tallies of [`crate::MemoryHierarchy`], so there is one
//! source of truth for memory statistics.

use crate::config::CacheConfig;
use crate::Cycle;

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

/// One way of a set. Validity is folded into the LRU stamp: `stamp` is
/// the last-use cycle plus one, and zero marks an invalid way — so the
/// LRU victim (smallest stamp, first on ties) is an invalid way whenever
/// the set has one, with no separate flag to test.
#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    stamp: Cycle,
}

/// A set-associative cache tag array with LRU replacement.
///
/// Only tags are tracked (data correctness lives in
/// [`crate::AddressSpace`]); the tag array decides hits and misses for
/// the timing model.
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
    assoc: usize,
    line_shift: u32,
    set_shift: u32,
    set_mask: u64,
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
        Cache {
            ways: vec![Way { tag: 0, stamp: 0 }; (num_sets * config.assoc) as usize],
            assoc: config.assoc as usize,
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: num_sets.trailing_zeros(),
            set_mask: num_sets - 1,
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

    /// Refreshes the LRU stamp of `tag` if the set holds it.
    #[inline]
    fn touch(set: &mut [Way], tag: u64, now: Cycle) -> bool {
        match set.iter_mut().find(|w| w.tag == tag && w.stamp != 0) {
            Some(way) => {
                way.stamp = now + 1;
                true
            }
            None => false,
        }
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
        let (set, tag) = self.set_of(addr);
        if Self::touch(set, tag, now) {
            CacheAccess::Hit
        } else {
            CacheAccess::Miss {
                evicted: Self::install(set, tag, now),
            }
        }
    }

    /// Probes the tag array for the line containing `addr` without
    /// modifying it on a miss. A hit refreshes the line's LRU stamp.
    pub fn lookup(&mut self, addr: u64, now: Cycle) -> bool {
        let (set, tag) = self.set_of(addr);
        Self::touch(set, tag, now)
    }

    /// Installs the line containing `addr` (a fill completing at `now`),
    /// returning whether a valid line was displaced. Refreshes the LRU
    /// stamp instead if the line is already present.
    pub fn fill(&mut self, addr: u64, now: Cycle) -> bool {
        let (set, tag) = self.set_of(addr);
        !Self::touch(set, tag, now) && Self::install(set, tag, now)
    }

    /// Invalidates every line (e.g. at kernel boundaries, matching the
    /// MGPUSim behavior of flushing caches between kernels).
    pub fn flush(&mut self) {
        for way in &mut self.ways {
            way.stamp = 0;
        }
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
}
