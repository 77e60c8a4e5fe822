//! Outstanding-miss bookkeeping for one cache.

use crate::addr::U64HashBuilder;
use crate::config::MshrConfig;
use crate::Cycle;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// One outstanding miss: the line in flight, when its fill returns, and
/// how many extra same-line misses merged into it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MshrEntry {
    pub(crate) line: u64,
    pub(crate) fill_at: Cycle,
    pub(crate) merges: u64,
}

/// A miss-status-holding-register file for one cache (detailed
/// fidelity): tracks lines with fills in flight so same-line misses
/// merge instead of re-fetching, and so tags are installed when the data
/// arrives, not when the miss is discovered.
///
/// Servicing one line costs O(1) in the number of outstanding misses:
/// `index` finds a line's entry without a scan, and `next_fill` lets
/// [`MshrFile::expire`] return at once while no fill can have completed.
/// `entries` keeps allocation order perturbed by `swap_remove`, and
/// `expire` walks it front to back, because that order is model state:
/// fills that complete inside one `expire` call install in walk order
/// and race for the same LRU victims.
#[derive(Debug)]
pub(crate) struct MshrFile {
    entries: Vec<MshrEntry>,
    /// Position in `entries` of every tracked line.
    index: HashMap<u64, usize, U64HashBuilder>,
    /// Lower bound on the earliest `fill_at` in `entries`.
    next_fill: Cycle,
    capacity: usize,
    merge_slots: u64,
}

impl MshrFile {
    pub(crate) fn new(cfg: &MshrConfig) -> Self {
        MshrFile {
            entries: Vec::new(),
            index: HashMap::default(),
            next_fill: Cycle::MAX,
            capacity: (cfg.entries as usize).max(1),
            merge_slots: cfg.merge_slots,
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

    pub(crate) fn find_mut(&mut self, line: u64) -> Option<&mut MshrEntry> {
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

    /// Allocates an entry, or moves the fill of the line's existing one
    /// out to `fill_at` if that is later.
    pub(crate) fn alloc(&mut self, line: u64, fill_at: Cycle) {
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

    /// `(entries held, index size)`.
    #[cfg(test)]
    pub(crate) fn occupancy(&self) -> (usize, usize) {
        (self.entries.len(), self.index.len())
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
        assert_eq!(m.occupancy(), (1, 1));
    }
}
