//! Outstanding-miss bookkeeping for one cache.

use crate::addr::U64HashBuilder;
use crate::config::MshrConfig;
use crate::Cycle;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Entries a lazily swept file may hold beyond twice its live set.
const SWEEP_SLACK: usize = 128;

/// One outstanding miss: the line in flight, when its fill returns, and
/// how many extra same-line misses merged into it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MshrEntry {
    pub(crate) line: u64,
    pub(crate) fill_at: Cycle,
    pub(crate) merges: u64,
}

/// A miss-status-holding-register file for one cache: tracks lines with
/// fills in flight so same-line misses merge instead of re-fetching, and
/// so tags are installed when the data arrives, not when the miss is
/// discovered.
///
/// Servicing one line costs O(1) in the number of outstanding misses:
/// `index` finds a line's entry without a scan, and `next_fill` lets
/// [`MshrFile::expire`] return at once while no fill can have completed.
/// `entries` keeps allocation order perturbed by `swap_remove`, and
/// `expire` walks it front to back, because that order is model state:
/// fills that complete inside one `expire` call install in walk order
/// and race for the same LRU victims.
///
/// A bounded file (detailed fidelity) expires eagerly on every access.
/// The unbounded legacy shadow never installs anything, so it expires
/// lazily: an entry is in flight iff `fill_at > clock`, and dead entries
/// are swept in bulk once the file has doubled. That is exact because
/// the file's clock never runs backwards — every level services at
/// `t = max(ready, free); free = t + service_interval`.
#[derive(Debug)]
pub(crate) struct MshrFile {
    entries: Vec<MshrEntry>,
    /// Position in `entries` of every tracked line.
    index: HashMap<u64, usize, U64HashBuilder>,
    /// Lower bound on the earliest `fill_at` in `entries`.
    next_fill: Cycle,
    capacity: usize,
    merge_slots: u64,
    /// Length at which the lazy shadow sweeps its dead entries: twice
    /// what the last sweep left in flight, plus [`SWEEP_SLACK`]
    /// (`usize::MAX` for a bounded file, which never sweeps).
    sweep_at: usize,
    /// The latest service cycle the lazy shadow has seen.
    clock: Cycle,
    /// Entries visited by sweeps plus index probes (complexity tests).
    #[cfg(test)]
    pub(crate) visits: u64,
}

impl MshrFile {
    pub(crate) fn new(cfg: &MshrConfig) -> Self {
        Self::with((cfg.entries as usize).max(1), cfg.merge_slots, usize::MAX)
    }

    /// A file that never back-pressures — the legacy model's
    /// counting-only shadow of outstanding fills (tags are still filled
    /// at lookup time there, so the file has no timing effect).
    pub(crate) fn unbounded() -> Self {
        Self::with(usize::MAX, u64::MAX, SWEEP_SLACK)
    }

    fn with(capacity: usize, merge_slots: u64, sweep_at: usize) -> Self {
        MshrFile {
            entries: Vec::new(),
            index: HashMap::default(),
            next_fill: Cycle::MAX,
            capacity,
            merge_slots,
            sweep_at,
            clock: 0,
            #[cfg(test)]
            visits: 0,
        }
    }

    #[inline]
    fn visit(&mut self) {
        #[cfg(test)]
        {
            self.visits += 1;
        }
    }

    /// Removes every entry whose fill has completed by `now`, handing
    /// each `(line, fill_at)` to `install` in walk order (the detailed
    /// path installs the tag at fill time).
    pub(crate) fn expire(&mut self, now: Cycle, mut install: impl FnMut(u64, Cycle)) {
        if now < self.next_fill {
            return;
        }
        let mut next_fill = Cycle::MAX;
        let mut i = 0;
        while i < self.entries.len() {
            self.visit();
            let e = self.entries[i];
            if e.fill_at <= now {
                self.entries.swap_remove(i);
                self.index.remove(&e.line);
                if let Some(moved) = self.entries.get(i) {
                    self.index.insert(moved.line, i);
                }
                install(e.line, e.fill_at);
            } else {
                next_fill = next_fill.min(e.fill_at);
                i += 1;
            }
        }
        self.next_fill = next_fill;
    }

    /// Moves the lazy shadow's clock to the cycle of the access being
    /// serviced; nothing is removed.
    pub(crate) fn advance(&mut self, now: Cycle) {
        debug_assert!(
            now >= self.clock,
            "MSHR clock ran backwards: {now} after {}",
            self.clock
        );
        self.clock = now;
    }

    /// Whether the lazy shadow holds a fill of `line` that has not
    /// completed by its clock.
    pub(crate) fn in_flight(&mut self, line: u64) -> bool {
        let clock = self.clock;
        self.find_mut(line).is_some_and(|e| e.fill_at > clock)
    }

    pub(crate) fn find_mut(&mut self, line: u64) -> Option<&mut MshrEntry> {
        self.visit();
        let i = *self.index.get(&line)?;
        Some(&mut self.entries[i])
    }

    /// Same-line misses one entry absorbs before further ones stall.
    pub(crate) fn merge_slots(&self) -> u64 {
        self.merge_slots
    }

    pub(crate) fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// A lower bound on the earliest cycle at which an entry frees
    /// (MSHR-full back-pressure waits for this): exact after every
    /// [`MshrFile::expire`] that walked the file, and until an
    /// [`MshrFile::alloc`] refreshes the earliest entry.
    pub(crate) fn earliest_fill(&self) -> Cycle {
        self.next_fill
    }

    /// Allocates an entry (or refreshes the fill time of an existing
    /// one — the legacy shadow can re-miss a line it already tracks when
    /// the tag was evicted under the in-flight window).
    pub(crate) fn alloc(&mut self, line: u64, fill_at: Cycle) {
        if self.entries.len() >= self.sweep_at {
            self.expire(self.clock, |_, _| {});
            self.sweep_at = 2 * self.entries.len() + SWEEP_SLACK;
        }
        self.visit();
        self.next_fill = self.next_fill.min(fill_at);
        match self.index.entry(line) {
            Entry::Occupied(at) => {
                let e = &mut self.entries[*at.get()];
                e.fill_at = e.fill_at.max(fill_at);
            }
            Entry::Vacant(at) => {
                at.insert(self.entries.len());
                self.entries.push(MshrEntry {
                    line,
                    fill_at,
                    merges: 0,
                });
            }
        }
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
        self.next_fill = Cycle::MAX;
    }

    /// `(entries held, entries still in flight at the file's clock,
    /// index size)`.
    #[cfg(test)]
    pub(crate) fn occupancy(&self) -> (usize, usize, usize) {
        let live = self
            .entries
            .iter()
            .filter(|e| e.fill_at > self.clock)
            .count();
        (self.entries.len(), live, self.index.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refreshing_the_earliest_entry_leaves_a_bound_the_next_walk_makes_exact() {
        let mut m = MshrFile::new(&MshrConfig::new(2, 0));
        m.alloc(7, 100);
        m.alloc(9, 200);
        assert!(m.is_full());
        assert_eq!(m.earliest_fill(), 100);
        // The line is re-missed while tracked: its fill moves out, and
        // the watermark is now only a lower bound.
        m.alloc(7, 300);
        assert_eq!(m.earliest_fill(), 100);
        let mut installed = Vec::new();
        m.expire(100, |line, at| installed.push((line, at)));
        assert!(installed.is_empty() && m.is_full());
        assert_eq!(m.earliest_fill(), 200);
        m.expire(200, |line, at| installed.push((line, at)));
        assert_eq!(installed, [(9, 200)]);
        assert_eq!(m.find_mut(7).map(|e| e.fill_at), Some(300));
        assert_eq!(m.occupancy(), (1, 1, 1));
    }
}
