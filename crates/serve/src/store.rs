//! The scheduler's store of finished jobs: one mutex around one map
//! keyed by job id, enforcing a byte budget over the whole store with
//! least-recently-used eviction.
//!
//! Sized to its traffic: the busiest serve workload completes a few
//! thousand warm jobs a second, each a couple of store operations, each
//! of those a map probe and an `Arc` clone under a lock held for well
//! under a microsecond — so there are no shards and nothing to tune.

use serde::Serialize;
use std::collections::HashMap;
use std::sync::Mutex;

/// Counters describing what a store has done so far. All monotonic
/// except `entries`/`bytes`, which are the current residency.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct StoreStats {
    /// Lookups answered.
    pub hits: u64,
    /// Lookups missed.
    pub misses: u64,
    /// Entries evicted by the LRU byte budget.
    pub evicted: u64,
    /// Entries refused because they alone exceed the whole budget.
    pub rejected: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Bytes currently resident (as sized at insert).
    pub bytes: u64,
}

struct Entry<V> {
    value: V,
    bytes: u64,
    stamp: u64,
}

/// Everything the store's one lock guards.
struct Inner<V> {
    map: HashMap<u64, Entry<V>>,
    /// Recency clock: every get and insert takes the next stamp.
    clock: u64,
    /// Counters and residency; `entries` is filled in at read time.
    stats: StoreStats,
}

/// The LRU-bounded in-memory store.
///
/// Values are cloned out on every hit, so `V` should be an `Arc`. The
/// byte budget is enforced over the whole store: the residency never
/// exceeds it, the eviction victim is always the least recently used
/// entry of the store, and an entry is refused only when it alone
/// exceeds the budget.
pub struct LruStore<V> {
    inner: Mutex<Inner<V>>,
    budget: u64,
}

impl<V> std::fmt::Debug for LruStore<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruStore")
            .field("budget", &self.budget)
            .finish()
    }
}

impl<V: Clone> LruStore<V> {
    /// A store under a total byte `budget` (at least 1).
    pub fn new(budget: u64) -> LruStore<V> {
        LruStore {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
                stats: StoreStats::default(),
            }),
            budget: budget.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<V>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: u64) -> Option<V> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.clock += 1;
        match inner.map.get_mut(&key) {
            Some(e) => {
                e.stamp = inner.clock;
                inner.stats.hits += 1;
                Some(e.value.clone())
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts `value` under `key` at an accounted size of `bytes`,
    /// evicting least-recently-used entries until the store is back
    /// under budget. A value that alone exceeds the budget is not
    /// stored (counted in `rejected`).
    pub fn insert(&self, key: u64, value: V, bytes: u64) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        if bytes > self.budget {
            inner.stats.rejected += 1;
            return;
        }
        inner.clock += 1;
        let entry = Entry {
            value,
            bytes,
            stamp: inner.clock,
        };
        if let Some(old) = inner.map.insert(key, entry) {
            inner.stats.bytes -= old.bytes;
        }
        inner.stats.bytes += bytes;
        while inner.stats.bytes > self.budget {
            // The just-inserted entry carries the freshest stamp and
            // fits the budget alone, so the victim is some other entry.
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
            else {
                break;
            };
            if let Some(e) = inner.map.remove(&victim) {
                inner.stats.bytes -= e.bytes;
            }
            inner.stats.evicted += 1;
        }
    }

    /// Current counters and residency.
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        StoreStats {
            entries: inner.map.len() as u64,
            ..inner.stats.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_lru_eviction_respects_budget_and_recency() {
        let store: LruStore<u64> = LruStore::new(100);
        store.insert(1, 10, 40);
        store.insert(2, 20, 40);
        // Touch 1 so 2 becomes the LRU entry.
        assert_eq!(store.get(1), Some(10));
        store.insert(3, 30, 40); // 120 > 100: evict key 2
        assert_eq!(store.get(2), None);
        assert_eq!(store.get(1), Some(10));
        assert_eq!(store.get(3), Some(30));
        let s = store.stats();
        assert_eq!(s.evicted, 1);
        assert!(s.bytes <= 100, "bytes {} over budget", s.bytes);
        // An entry bigger than the whole budget is refused, not stored.
        store.insert(4, 40, 101);
        assert_eq!(store.get(4), None);
        assert_eq!(store.stats().rejected, 1);
    }
}
