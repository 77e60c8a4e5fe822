//! The scheduler's result store on its own: `LruStore` under
//! arbitrary get/insert sequences.

mod store_properties {
    //! LRU-eviction properties of the store of finished jobs: the byte
    //! budget is a hard invariant over the whole store, the victim is
    //! always its least recently used entry, and the hottest (most
    //! recently touched) entry is never the victim.

    use photon_serve::store::LruStore;
    use proptest::prelude::*;

    const BUDGET: u64 = 100;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Entries capped at a quarter of the budget: the store never
        /// holds more than its budget, and the entry touched by the
        /// previous operation always survives the next insert's
        /// eviction pass.
        #[test]
        fn budget_never_exceeded_and_hottest_never_evicted(
            ops in prop::collection::vec((0u64..24, 1u64..26), 2..250)
        ) {
            let store: LruStore<u64> = LruStore::new(BUDGET);
            let mut prev: Option<u64> = None;
            for (key, bytes) in ops {
                if store.get(key).is_none() {
                    store.insert(key, key, bytes);
                }
                if let Some(p) = prev {
                    if p != key {
                        prop_assert!(
                            store.get(p).is_some(),
                            "hottest entry {} was evicted",
                            p
                        );
                    }
                }
                let stats = store.stats();
                prop_assert!(
                    stats.bytes <= BUDGET,
                    "store holds {} bytes, budget is {}",
                    stats.bytes,
                    BUDGET
                );
                prev = Some(key);
            }
        }

        /// Arbitrary get/insert sequences against a model that keeps
        /// every resident `(key, bytes)` in recency order: each get
        /// hits exactly when the model holds the key, and after every
        /// operation the store's residency, byte total and eviction
        /// count are the model's — which they can only be if every
        /// victim was the least recently used key of the whole store
        /// and never the key just touched.
        #[test]
        fn victim_is_always_the_least_recently_used_key_of_the_whole_store(
            ops in prop::collection::vec((any::<bool>(), 0u64..24, 1u64..40), 1..300)
        ) {
            let store: LruStore<u64> = LruStore::new(BUDGET);
            let mut model: Vec<(u64, u64)> = Vec::new(); // least recent first
            let mut evicted = 0;
            let resident = |model: &[(u64, u64)]| model.iter().map(|(_, b)| b).sum::<u64>();
            for (is_get, key, bytes) in ops {
                let at = model.iter().position(|(k, _)| *k == key);
                if is_get {
                    prop_assert_eq!(store.get(key).is_some(), at.is_some(), "get {}", key);
                    if let Some(i) = at {
                        let touched = model.remove(i);
                        model.push(touched);
                    }
                } else {
                    store.insert(key, key, bytes);
                    if let Some(i) = at {
                        model.remove(i);
                    }
                    model.push((key, bytes));
                    while resident(&model) > BUDGET {
                        model.remove(0);
                        evicted += 1;
                    }
                    prop_assert_eq!(model.last(), Some(&(key, bytes)));
                }
                let stats = store.stats();
                prop_assert!(stats.bytes <= BUDGET);
                prop_assert_eq!(
                    (stats.entries, stats.bytes, stats.evicted),
                    (model.len() as u64, resident(&model), evicted)
                );
            }
            for key in 0..24 {
                let held = model.iter().any(|(k, _)| *k == key);
                prop_assert_eq!(store.get(key).is_some(), held, "key {}", key);
            }
        }
    }

    #[test]
    fn an_entry_of_exactly_the_budget_is_admitted_and_one_byte_more_is_refused() {
        let store: LruStore<u64> = LruStore::new(BUDGET);
        store.insert(1, 10, 30);
        // Exactly the budget: admitted, at the price of everything else.
        store.insert(2, 20, BUDGET);
        assert_eq!(store.get(2), Some(20));
        assert_eq!(store.get(1), None);
        let stats = store.stats();
        assert_eq!((stats.bytes, stats.evicted, stats.rejected), (BUDGET, 1, 0));
        // One byte more: refused, and nothing is evicted to make room.
        store.insert(3, 30, BUDGET + 1);
        assert_eq!(store.get(3), None);
        assert_eq!(store.get(2), Some(20));
        let stats = store.stats();
        assert_eq!((stats.bytes, stats.evicted, stats.rejected), (BUDGET, 1, 1));
    }
}
