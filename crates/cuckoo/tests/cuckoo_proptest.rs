//! Property tests: [`CuckooMap`] behaves exactly like a model `HashMap`
//! under arbitrary operation sequences.

use jiffy_cuckoo::CuckooMap;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u32),
    Remove(u16),
    Get(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        any::<u16>().prop_map(Op::Remove),
        any::<u16>().prop_map(Op::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matches_hashmap_model(ops in proptest::collection::vec(op_strategy(), 0..2000)) {
        let mut cuckoo = CuckooMap::new();
        let mut model: HashMap<u16, u32> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(cuckoo.insert(k, v), model.insert(k, v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(cuckoo.remove(&k), model.remove(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(cuckoo.get(&k), model.get(&k));
                }
            }
            prop_assert_eq!(cuckoo.len(), model.len());
        }
        // Final full-state comparison.
        let mut got: Vec<(u16, u32)> = cuckoo.iter().map(|(k, v)| (*k, *v)).collect();
        let mut want: Vec<(u16, u32)> = model.into_iter().collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn dense_keyspace_forces_evictions(keys in proptest::collection::hash_set(0u16..256, 64..256)) {
        // Small keyspace + small initial capacity = heavy eviction and
        // growth activity.
        let mut cuckoo = CuckooMap::with_capacity(4);
        for &k in &keys {
            cuckoo.insert(k, u32::from(k) * 3);
        }
        prop_assert_eq!(cuckoo.len(), keys.len());
        for &k in &keys {
            prop_assert_eq!(cuckoo.get(&k), Some(&(u32::from(k) * 3)));
        }
    }

    #[test]
    fn drain_returns_exact_contents(pairs in proptest::collection::hash_map(any::<u16>(), any::<u32>(), 0..300)) {
        let mut cuckoo = CuckooMap::new();
        for (&k, &v) in &pairs {
            cuckoo.insert(k, v);
        }
        let mut drained = cuckoo.drain();
        drained.sort_unstable();
        let mut want: Vec<(u16, u32)> = pairs.into_iter().collect();
        want.sort_unstable();
        prop_assert_eq!(drained, want);
        prop_assert!(cuckoo.is_empty());
    }
}
