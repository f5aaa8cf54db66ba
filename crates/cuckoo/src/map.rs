//! The core cuckoo hash table.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash};

/// Slots per bucket (4-way set associative, like libcuckoo's default).
const SLOTS: usize = 4;

/// Maximum bucket-chain length explored by the BFS eviction search before
/// the table gives up and grows.
const MAX_BFS_DEPTH: usize = 5;

/// Upper bound on BFS queue size; derived from `SLOTS^MAX_BFS_DEPTH` but
/// capped to keep worst-case insert latency bounded.
const MAX_BFS_NODES: usize = 2048;

/// Highest share of slots, in percent, an insert may fill before the
/// table doubles. Near 95 % load almost every new key needs a long BFS
/// eviction search; at 90 % the search is short or absent, so an insert
/// costs about what a `std::HashMap` insert does.
const MAX_LOAD_PERCENT: usize = 90;

#[derive(Debug, Clone)]
struct Entry<K, V> {
    /// The key's hash, kept so that a rehash or a displacement never
    /// hashes the key again and a lookup compares keys only on a hash
    /// match.
    hash: u64,
    key: K,
    value: V,
}

type Bucket<K, V> = [Option<Entry<K, V>>; SLOTS];

fn empty_bucket<K, V>() -> Bucket<K, V> {
    [None, None, None, None]
}

/// The fewest buckets (a power of two, at least 2) that hold `entries`
/// under the load cap.
fn buckets_for(entries: usize) -> usize {
    (entries * 100)
        .div_ceil(SLOTS * MAX_LOAD_PERCENT)
        .next_power_of_two()
        .max(2)
}

/// A cuckoo hash map with two candidate buckets per key and 4-way
/// buckets.
///
/// One 64-bit hash of the key picks both candidates: its low half
/// indexes the first bucket and its high half the second. Each entry
/// keeps its hash, so a call hashes its key once and a rehash or a
/// displacement hashes nothing.
/// Every key lives in one of exactly two candidate buckets, so `get`,
/// `remove` and `contains` probe at most eight slots. `insert` doubles
/// the table before a new key would fill more than 90 % of the slots,
/// and below that cap may relocate existing entries along a
/// BFS-discovered path; if no path of length ≤ 5 exists the table
/// doubles anyway. [`reserve`](Self::reserve) sizes the table once for
/// a known number of new keys.
///
/// # Examples
///
/// ```
/// use jiffy_cuckoo::CuckooMap;
///
/// let mut m = CuckooMap::new();
/// assert_eq!(m.insert("k", 1), None);
/// assert_eq!(m.insert("k", 2), Some(1));
/// assert_eq!(m.get(&"k"), Some(&2));
/// assert_eq!(m.remove(&"k"), Some(2));
/// assert!(m.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct CuckooMap<K, V, S = RandomState> {
    buckets: Vec<Bucket<K, V>>,
    len: usize,
    hasher: S,
}

impl<K: Hash + Eq, V> CuckooMap<K, V, RandomState> {
    /// Creates an empty map with a small initial capacity.
    pub fn new() -> Self {
        Self::with_capacity(16)
    }

    /// Creates an empty map sized for at least `cap` entries without
    /// growing.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buckets: (0..buckets_for(cap)).map(|_| empty_bucket()).collect(),
            len: 0,
            hasher: RandomState::new(),
        }
    }
}

impl<K: Hash + Eq, V> Default for CuckooMap<K, V, RandomState> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq, V, S: BuildHasher + Clone> CuckooMap<K, V, S> {
    /// Creates an empty map using the provided hasher factory.
    pub fn with_hasher(hasher: S) -> Self {
        Self {
            buckets: (0..2).map(|_| empty_bucket()).collect(),
            len: 0,
            hasher,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slot capacity (buckets × 4).
    pub fn capacity(&self) -> usize {
        self.buckets.len() * SLOTS
    }

    /// Current load factor in `[0, 0.9]` (see `MAX_LOAD_PERCENT`).
    pub fn load_factor(&self) -> f64 {
        self.len as f64 / self.capacity() as f64
    }

    /// The two candidate buckets of a key with this hash: the low and
    /// the high 32 bits are independent, so the buckets are too.
    fn indices(&self, hash: u64) -> [usize; 2] {
        let mask = self.buckets.len() - 1;
        [hash as usize & mask, (hash >> 32) as usize & mask]
    }

    /// The `(bucket, slot)` holding `key`, whose hash is `hash`.
    fn find(&self, hash: u64, key: &K) -> Option<(usize, usize)> {
        self.indices(hash).into_iter().find_map(|idx| {
            let slot = self.buckets[idx]
                .iter()
                .position(|e| e.as_ref().is_some_and(|e| e.hash == hash && &e.key == key))?;
            Some((idx, slot))
        })
    }

    /// Looks up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        let (idx, slot) = self.find(self.hasher.hash_one(key), key)?;
        self.buckets[idx][slot].as_ref().map(|e| &e.value)
    }

    /// Looks up a key, returning a mutable value reference.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let (idx, slot) = self.find(self.hasher.hash_one(key), key)?;
        self.buckets[idx][slot].as_mut().map(|e| &mut e.value)
    }

    /// Whether the key is present.
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Inserts a key-value pair, returning the previous value if the key
    /// was present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let hash = self.hasher.hash_one(&key);
        // Update in place if present.
        if let Some((idx, slot)) = self.find(hash, &key) {
            #[allow(clippy::expect_used)] // invariant documented in the message
            let entry = self.buckets[idx][slot]
                .as_mut()
                .expect("invariant: find returned an occupied slot");
            return Some(std::mem::replace(&mut entry.value, value));
        }
        self.reserve(1);
        self.place_or_grow(Entry { hash, key, value });
        self.len += 1;
        None
    }

    /// Makes room for `additional` more entries under the load cap,
    /// rehashing at most once, so that many inserts of new keys place
    /// each entry once instead of doubling the table step by step.
    pub fn reserve(&mut self, additional: usize) {
        let buckets = buckets_for(self.len + additional);
        if buckets > self.buckets.len() {
            self.resize(buckets);
        }
    }

    /// Removes a key, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (idx, slot) = self.find(self.hasher.hash_one(key), key)?;
        #[allow(clippy::expect_used)] // invariant documented in the message
        let entry = self.buckets[idx][slot]
            .take()
            .expect("invariant: find returned an occupied slot");
        self.len -= 1;
        Some(entry.value)
    }

    /// Iterates over all entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.buckets
            .iter()
            .flatten()
            .filter_map(|e| e.as_ref().map(|e| (&e.key, &e.value)))
    }

    /// Removes and returns all entries, leaving the map empty but with
    /// its capacity intact.
    pub fn drain(&mut self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            for slot in bucket.iter_mut() {
                if let Some(e) = slot.take() {
                    out.push((e.key, e.value));
                }
            }
        }
        self.len = 0;
        out
    }

    /// Removes entries for which `pred` returns `true`, returning them.
    pub fn extract_if(&mut self, mut pred: impl FnMut(&K, &V) -> bool) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for bucket in &mut self.buckets {
            for slot in bucket.iter_mut() {
                if slot.as_ref().is_some_and(|e| pred(&e.key, &e.value)) {
                    #[allow(clippy::expect_used)] // invariant documented in the message
                    let e = slot.take().expect("invariant: is_some_and guard above");
                    out.push((e.key, e.value));
                }
            }
        }
        self.len -= out.len();
        out
    }

    /// The bucket `entry`, stored in `bucket`, moves to when displaced.
    fn alt_index(&self, entry: &Entry<K, V>, bucket: usize) -> usize {
        let [a, b] = self.indices(entry.hash);
        if a == bucket {
            b
        } else {
            a
        }
    }

    /// Attempts to place `entry` without growing. On failure returns the
    /// entry back so the caller can grow and retry.
    fn place(&mut self, entry: Entry<K, V>) -> Result<(), Entry<K, V>> {
        let [a, b] = self.indices(entry.hash);
        // The emptier candidate: keeping buckets even keeps both of a
        // key's buckets from filling, which is when the BFS runs.
        let free = |idx: usize| self.buckets[idx].iter().filter(|s| s.is_none()).count();
        let idx = if free(b) > free(a) { b } else { a };
        if let Some(slot) = self.buckets[idx].iter().position(Option::is_none) {
            self.buckets[idx][slot] = Some(entry);
            return Ok(());
        }
        // Both candidate buckets full: BFS for a chain of relocations
        // ending in a free slot.
        match self.find_eviction_path(a, b) {
            Some(path) => {
                self.apply_eviction_path(&path);
                // The first bucket on the path now has a free slot.
                let (bucket, _) = path[0];
                #[allow(clippy::expect_used)] // invariant documented in the message
                let slot = self.buckets[bucket]
                    .iter()
                    .position(Option::is_none)
                    .expect("invariant: apply_eviction_path vacated a slot in path[0]");
                self.buckets[bucket][slot] = Some(entry);
                Ok(())
            }
            None => Err(entry),
        }
    }

    /// BFS over (bucket, slot) displacement chains starting from the two
    /// candidate buckets. Returns a path of `(bucket, slot)` hops where
    /// moving each hop's entry to its alternate bucket frees the chain.
    fn find_eviction_path(&self, a: usize, b: usize) -> Option<Vec<(usize, usize)>> {
        struct Node {
            bucket: usize,
            slot: usize,
            depth: usize,
            parent: Option<usize>,
        }
        // `nodes` is the BFS queue too: nodes are appended in visit order
        // and `next` walks them. Most searches end within two levels,
        // which fit the first allocation.
        let mut nodes: Vec<Node> = Vec::with_capacity(16 * SLOTS);
        for start in [a, b] {
            for slot in 0..SLOTS {
                nodes.push(Node {
                    bucket: start,
                    slot,
                    depth: 1,
                    parent: None,
                });
            }
        }
        let mut next = 0;
        while let Some(&Node {
            bucket,
            slot,
            depth,
            ..
        }) = nodes.get(next)
        {
            let node_idx = next;
            next += 1;
            let entry = match &self.buckets[bucket][slot] {
                Some(e) => e,
                // Shouldn't happen (we only enqueue occupied slots from
                // full buckets), but harmless.
                None => continue,
            };
            // Where would this entry go if displaced?
            let alt = self.alt_index(entry, bucket);
            if let Some(_free) = self.buckets[alt].iter().position(Option::is_none) {
                // Found a terminating bucket with space: reconstruct path.
                let mut path = Vec::new();
                let mut cur = Some(node_idx);
                while let Some(i) = cur {
                    path.push((nodes[i].bucket, nodes[i].slot));
                    cur = nodes[i].parent;
                }
                path.reverse();
                return Some(path);
            }
            if depth < MAX_BFS_DEPTH && nodes.len() < MAX_BFS_NODES {
                for next_slot in 0..SLOTS {
                    nodes.push(Node {
                        bucket: alt,
                        slot: next_slot,
                        depth: depth + 1,
                        parent: Some(node_idx),
                    });
                }
            }
        }
        None
    }

    /// Executes the displacement chain from the end backwards so each
    /// move lands in a free slot.
    fn apply_eviction_path(&mut self, path: &[(usize, usize)]) {
        for &(bucket, slot) in path.iter().rev() {
            #[allow(clippy::expect_used)] // invariant documented in the message
            let entry = self.buckets[bucket][slot]
                .take()
                .expect("invariant: the BFS only records occupied slots");
            let alt = self.alt_index(&entry, bucket);
            #[allow(clippy::expect_used)] // invariant documented in the message
            let free = self.buckets[alt]
                .iter()
                .position(Option::is_none)
                .expect("invariant: later hops already vacated the alternate bucket");
            self.buckets[alt][free] = Some(entry);
        }
    }

    /// Places `entry`, doubling the table until a path for it exists.
    fn place_or_grow(&mut self, mut entry: Entry<K, V>) {
        while let Err(e) = self.place(entry) {
            self.resize(self.buckets.len() * 2);
            entry = e;
        }
    }

    /// Re-places every entry into `buckets` buckets (a power of two).
    fn resize(&mut self, buckets: usize) {
        let old = std::mem::replace(
            &mut self.buckets,
            (0..buckets).map(|_| empty_bucket()).collect(),
        );
        let mut spill = Vec::new();
        for entry in old.into_iter().flatten().flatten() {
            if let Err(e) = self.place(entry) {
                spill.push(e);
            }
        }
        // Extremely unlikely: an entry found no path even in the new
        // table, so it grows again.
        for entry in spill {
            self.place_or_grow(entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_basics() {
        let mut m = CuckooMap::new();
        assert_eq!(m.insert(1u64, "one"), None);
        assert_eq!(m.insert(2, "two"), None);
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.get(&3), None);
        assert_eq!(m.insert(1, "uno"), Some("one"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(&1), Some("uno"));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn survives_many_inserts_with_growth() {
        let mut m = CuckooMap::with_capacity(4);
        for i in 0..10_000u64 {
            assert_eq!(m.insert(i, i * 2), None);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(&i), Some(&(i * 2)));
        }
        // Load factor should be sane after growth, and under the cap.
        assert!(m.load_factor() > 0.1 && m.load_factor() <= max_load());
    }

    fn max_load() -> f64 {
        MAX_LOAD_PERCENT as f64 / 100.0
    }

    #[test]
    fn inserts_and_removes_never_pass_the_load_cap() {
        let mut m = CuckooMap::new();
        let mut state = 0x9E37_79B9u64;
        for _ in 0..2_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 33) % 256;
            if state.is_multiple_of(4) {
                m.remove(&key);
            } else {
                m.insert(key, state);
            }
            assert!(m.load_factor() <= max_load(), "{}", m.load_factor());
        }
    }

    #[test]
    fn reserve_sizes_the_table_once() {
        for (start, n) in [(0u64, 1usize), (0, 7), (5, 120), (40, 300)] {
            let mut m = CuckooMap::new();
            for i in 0..start {
                m.insert(i, ());
            }
            m.reserve(n);
            let cap = m.capacity();
            assert!((m.len() + n) as f64 <= cap as f64 * max_load());
            for i in start..start + n as u64 {
                m.insert(i, ());
            }
            assert_eq!(m.capacity(), cap, "start {start}, n {n}");
        }
        // Room already there: no rehash, no change.
        let mut m: CuckooMap<u64, ()> = CuckooMap::with_capacity(100);
        let cap = m.capacity();
        m.reserve(100);
        assert_eq!(m.capacity(), cap);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut m = CuckooMap::new();
        m.insert("k".to_string(), vec![1, 2]);
        m.get_mut(&"k".to_string()).unwrap().push(3);
        assert_eq!(m.get(&"k".to_string()), Some(&vec![1, 2, 3]));
    }

    #[test]
    fn drain_empties_but_keeps_capacity() {
        let mut m = CuckooMap::with_capacity(128);
        for i in 0..100u32 {
            m.insert(i, i);
        }
        let cap = m.capacity();
        let mut drained = m.drain();
        drained.sort_unstable();
        assert_eq!(drained.len(), 100);
        assert_eq!(drained[0], (0, 0));
        assert!(m.is_empty());
        assert_eq!(m.capacity(), cap);
    }

    #[test]
    fn extract_if_partitions_entries() {
        let mut m = CuckooMap::new();
        for i in 0..100u32 {
            m.insert(i, ());
        }
        let evens = m.extract_if(|k, _| k % 2 == 0);
        assert_eq!(evens.len(), 50);
        assert_eq!(m.len(), 50);
        assert!(m.iter().all(|(k, _)| k % 2 == 1));
    }

    #[test]
    fn iter_sees_every_entry_once() {
        let mut m = CuckooMap::new();
        for i in 0..500u32 {
            m.insert(i, i + 1);
        }
        let collected: HashMap<u32, u32> = m.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(collected.len(), 500);
        for i in 0..500 {
            assert_eq!(collected[&i], i + 1);
        }
    }

    #[test]
    fn interleaved_insert_remove_matches_model() {
        let mut m = CuckooMap::new();
        let mut model = HashMap::new();
        // Deterministic pseudo-random op sequence.
        let mut state = 0x12345678u64;
        for _ in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 33) % 512;
            match state % 3 {
                0 | 1 => {
                    assert_eq!(m.insert(key, state), model.insert(key, state));
                }
                _ => {
                    assert_eq!(m.remove(&key), model.remove(&key));
                }
            }
            assert_eq!(m.len(), model.len());
        }
        for (k, v) in &model {
            assert_eq!(m.get(k), Some(v));
        }
    }

    #[test]
    fn string_keys_work() {
        let mut m = CuckooMap::new();
        for i in 0..1000 {
            m.insert(format!("key-{i}"), i);
        }
        assert_eq!(m.get(&"key-437".to_string()), Some(&437));
        assert_eq!(m.len(), 1000);
    }
}
