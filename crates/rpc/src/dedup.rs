//! Server-side request deduplication: the replay window.
//!
//! Under lossy transports a client cannot tell a lost *request* from a
//! lost *reply*: both surface as a timeout. Retrying is only safe if the
//! server suppresses re-execution of requests it already handled. Both
//! planes use one mechanism, [`ReplayWindow`]: a bounded `(request id →
//! answer)` map kept inside the state it protects — one per block (it
//! replicates and migrates with the block), one per controller shard (it
//! is journaled with the shard's metadata) — and keyed by request id
//! alone, so a retry is answered on whichever connection it arrives.
//! Only client-stamped mutations that succeeded are recorded.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use jiffy_common::{JiffyError, Result};
use serde::de::DeserializeOwned;
use serde::Serialize;

/// Identity hasher for request-id keys. Rids are client-assigned
/// sequential counters (and the transport's auto-ids likewise), so
/// their low bits are already uniformly distributed for bucketing —
/// SipHash would only add per-op latency on the replicated write path.
#[derive(Default)]
pub struct RidHasher(u64);

impl Hasher for RidHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// A bounded `(request id → value)` replay window with LRU eviction.
///
/// The window remembers the result of each recently executed request so
/// a retry carrying the same id can be answered without re-executing.
/// Entries carry an explicit byte weight; eviction (least-recently-used
/// first) keeps the window within both an entry count and a byte budget.
/// Lookups *touch* their entry, so an id that is actively being retried
/// stays resident while idle entries age out.
///
/// The window is not itself synchronized — callers keep it under the
/// lock that already guards the state it shadows (the block mutex, the
/// controller shard's state lock), which is what makes "execute +
/// record" atomic with respect to a concurrent retry.
pub struct ReplayWindow<V> {
    /// id → (recency seq, byte weight, value).
    entries: HashMap<u64, (u64, u64, V), BuildHasherDefault<RidHasher>>,
    /// Recency index: seq → id, oldest first.
    by_seq: BTreeMap<u64, u64>,
    /// Next recency seq to assign (monotone; touched entries move here).
    next_seq: u64,
    /// Sum of entry byte weights.
    bytes: u64,
    max_entries: usize,
    max_bytes: u64,
    /// Highest recency seq ever evicted. A miss only proves
    /// non-execution while the op's era is above the watermark; windows
    /// are sized far above the in-flight op count so live retries always
    /// land inside it.
    watermark: u64,
}

/// Serialized form of a window, as a plain tuple (the vendored
/// serde_derive does not support generic structs): `(next_seq,
/// watermark, entries)` with entries `(id, seq, bytes, value)` in
/// ascending seq order — the counters make an import into an empty
/// window an exact restore.
type WindowImage<V> = (u64, u64, Vec<(u64, u64, u64, V)>);

impl<V> ReplayWindow<V> {
    /// Creates an empty window bounded to `max_entries` entries and
    /// `max_bytes` total byte weight (each clamped to at least 1).
    pub fn new(max_entries: usize, max_bytes: u64) -> Self {
        Self {
            entries: HashMap::default(),
            by_seq: BTreeMap::new(),
            next_seq: 1,
            bytes: 0,
            max_entries: max_entries.max(1),
            max_bytes: max_bytes.max(1),
            watermark: 0,
        }
    }

    /// Looks up a cached value, refreshing its recency.
    pub fn lookup(&mut self, id: u64) -> Option<&V> {
        let entry = self.entries.get_mut(&id)?;
        self.by_seq.remove(&entry.0);
        entry.0 = self.next_seq;
        self.by_seq.insert(self.next_seq, id);
        self.next_seq += 1;
        self.entries.get(&id).map(|(_, _, v)| v)
    }

    /// Records a value under `id` with the given byte weight, evicting
    /// least-recently-used entries until the window fits its bounds
    /// again (the entry just inserted is never evicted, so a single
    /// oversized value may transiently exceed the byte budget alone).
    /// A repeated id keeps the first value: the first execution's result
    /// is the canonical one.
    pub fn insert(&mut self, id: u64, value: V, bytes: u64) {
        if self.entries.contains_key(&id) {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(id, (seq, bytes, value));
        self.by_seq.insert(seq, id);
        self.bytes += bytes;
        while self.entries.len() > self.max_entries
            || (self.bytes > self.max_bytes && self.entries.len() > 1)
        {
            let Some((&old_seq, &old_id)) = self.by_seq.iter().next() else {
                break;
            };
            if old_id == id {
                break;
            }
            self.by_seq.remove(&old_seq);
            if let Some((_, b, _)) = self.entries.remove(&old_id) {
                self.bytes -= b;
            }
            self.watermark = self.watermark.max(old_seq);
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the window holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of resident entries' byte weights.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Highest recency seq ever evicted (0 when nothing was evicted).
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Drops every entry, releases the table and resets the counters (a
    /// freed block must not pin its last owner's window capacity).
    pub fn clear(&mut self) {
        self.entries = HashMap::default();
        self.by_seq.clear();
        self.next_seq = 1;
        self.bytes = 0;
        self.watermark = 0;
    }
}

impl<V: Serialize + Clone> ReplayWindow<V> {
    /// Resident `(id, value)` pairs, least recently used first.
    pub fn entries(&self) -> Vec<(u64, V)> {
        self.by_seq
            .values()
            .map(|id| (*id, self.entries[id].2.clone()))
            .collect()
    }

    /// Serializes the window (entries in recency order plus counters).
    /// Importing the bytes into an *empty* window restores it exactly,
    /// so export → import → export round-trips byte-for-byte.
    ///
    /// # Errors
    ///
    /// Serialization failures.
    pub fn export_bytes(&self) -> Result<Vec<u8>> {
        let entries = self
            .by_seq
            .iter()
            .map(|(&seq, &id)| {
                let (_, bytes, v) = &self.entries[&id];
                (id, seq, *bytes, v.clone())
            })
            .collect();
        let image: WindowImage<V> = (self.next_seq, self.watermark, entries);
        jiffy_proto::to_bytes(&image)
            .map_err(|e| JiffyError::Internal(format!("replay window export: {e}")))
    }
}

impl<V: DeserializeOwned> ReplayWindow<V> {
    /// Absorbs an exported window. Into an empty window this is an exact
    /// restore (seqs and watermark preserved); into a non-empty one the
    /// imported entries are re-sequenced behind the resident ones in
    /// their original recency order (merge semantics — a repartition
    /// target keeps its own entries and gains the source's). Repeated
    /// ids keep the resident value. Empty input is a no-op.
    ///
    /// # Errors
    ///
    /// Malformed bytes.
    pub fn import_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        let (next_seq, watermark, entries): WindowImage<V> = jiffy_proto::from_bytes(bytes)
            .map_err(|e| JiffyError::Internal(format!("replay window import: {e}")))?;
        if self.entries.is_empty() && self.watermark == 0 {
            self.next_seq = next_seq;
            self.watermark = watermark;
            for (id, seq, bytes, value) in entries {
                if self.entries.insert(id, (seq, bytes, value)).is_none() {
                    self.by_seq.insert(seq, id);
                    self.bytes += bytes;
                }
            }
        } else {
            self.watermark = self.watermark.max(watermark);
            for (id, _, bytes, value) in entries {
                self.insert(id, value, bytes);
            }
        }
        Ok(())
    }
}

impl<V> std::fmt::Debug for ReplayWindow<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ReplayWindow({} entries, {} bytes, watermark {})",
            self.entries.len(),
            self.bytes,
            self.watermark
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn repeated_id_replays_cached_response() {
        let mut w: ReplayWindow<u64> = ReplayWindow::new(8, 1 << 10);
        w.insert(7, 70, 8);
        assert_eq!(w.lookup(7), Some(&70));
        assert_eq!(w.lookup(7), Some(&70));
        assert_eq!(w.lookup(8), None);
    }

    #[test]
    fn cache_is_bounded_lru() {
        let mut w: ReplayWindow<u64> = ReplayWindow::new(128, u64::MAX);
        w.insert(1, 1, 0);
        // Enough distinct ids to evict id 1.
        for id in 2..130u64 {
            w.insert(id, id, 0);
        }
        assert_eq!(w.lookup(1), None);
        assert_eq!(w.lookup(129), Some(&129));
        assert_eq!(w.len(), 128);
    }

    #[test]
    fn actively_retried_ids_stay_resident() {
        // A lookup refreshes recency: an id that keeps being retried is
        // not evicted by newer traffic, unlike under FIFO.
        let mut w: ReplayWindow<u64> = ReplayWindow::new(128, u64::MAX);
        w.insert(1, 1, 0);
        for id in 2..128u64 {
            w.insert(id, id, 0);
            assert_eq!(w.lookup(1), Some(&1)); // touch
        }
        // Two more distinct ids would evict the FIFO-oldest (1) but must
        // evict an idle id instead.
        w.insert(10_001, 0, 0);
        w.insert(10_002, 0, 0);
        assert_eq!(w.lookup(1), Some(&1));
        assert_eq!(w.entries().last().map(|(id, _)| *id), Some(1));
    }

    #[test]
    fn window_evicts_lru_within_entry_and_byte_bounds() {
        let mut w: ReplayWindow<u64> = ReplayWindow::new(3, 100);
        w.insert(1, 10, 40);
        w.insert(2, 20, 40);
        assert_eq!(w.lookup(1), Some(&10)); // touch 1: 2 is now LRU
        w.insert(3, 30, 40); // 120 bytes > 100: evict 2
        assert_eq!(w.len(), 2);
        assert_eq!(w.bytes(), 80);
        assert_eq!(w.lookup(2), None);
        assert_eq!(w.lookup(1), Some(&10));
        assert!(w.watermark() > 0);
        // Entry-count bound.
        w.insert(4, 40, 1);
        w.insert(5, 50, 1);
        assert_eq!(w.len(), 3);
        // First insert wins on a repeated id.
        w.insert(5, 99, 1);
        assert_eq!(w.lookup(5), Some(&50));
    }

    /// A block is reset when it is freed and recorded into when it is
    /// reused: the table grown for its last owner must not stay behind.
    #[test]
    fn clear_releases_the_table() {
        let mut w: ReplayWindow<u64> = ReplayWindow::new(512, 1 << 20);
        for id in 0..512u64 {
            w.insert(id, id, 8);
        }
        assert!(w.entries.capacity() >= 512);
        w.clear();
        assert_eq!(w.entries.capacity(), 0);
        assert_eq!((w.len(), w.bytes(), w.watermark()), (0, 0, 0));
        w.insert(7, 70, 8);
        assert_eq!(w.lookup(7), Some(&70));
    }

    #[test]
    fn window_export_import_round_trips() {
        let mut w: ReplayWindow<u64> = ReplayWindow::new(4, 1000);
        for id in 1..=6u64 {
            w.insert(id, id * 100, 8);
        }
        w.lookup(3);
        let bytes = w.export_bytes().unwrap();
        let mut restored: ReplayWindow<u64> = ReplayWindow::new(4, 1000);
        restored.import_bytes(&bytes).unwrap();
        assert_eq!(restored.len(), w.len());
        assert_eq!(restored.bytes(), w.bytes());
        assert_eq!(restored.watermark(), w.watermark());
        assert_eq!(restored.export_bytes().unwrap(), bytes);
        // Merge into a non-empty window keeps resident entries.
        let mut target: ReplayWindow<u64> = ReplayWindow::new(8, 1000);
        target.insert(3, 7, 8);
        target.import_bytes(&bytes).unwrap();
        assert_eq!(target.lookup(3), Some(&7)); // resident wins
        assert_eq!(target.lookup(6), Some(&600));
    }
}
