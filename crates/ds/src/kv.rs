//! Key-value store data structure (paper §5.3).
//!
//! Keys hash to one of `H` hash slots (1024 by default); each block owns
//! one or more contiguous slot ranges, with every slot contained entirely
//! in a single block. Within a block, pairs live in a cuckoo hash table.
//! Splitting moves half of a block's slots (and the resident pairs) to a
//! newly allocated block; merging moves everything into a sibling.

use jiffy_block::Partition;
use jiffy_common::{JiffyError, Result};
use jiffy_cuckoo::CuckooMap;
use jiffy_proto::{Blob, DsOp, DsResult, DsType, SplitSpec};

use crate::params::{KvParams, KvPayload};
use crate::PER_ITEM_OVERHEAD;

/// Tagged transfer format so a split-range payload can never be confused
/// with a full-state export.
#[derive(serde::Serialize, serde::Deserialize)]
enum KvTransfer {
    /// Full partition state (flush/load, replica bootstrap).
    Full {
        num_slots: u32,
        ranges: Vec<(u32, u32)>,
        pairs: Vec<(Blob, Blob)>,
    },
    /// A slot range changing hands (split/merge).
    Range(KvPayload),
    /// Several ranges changing hands atomically (merge of a block that
    /// owns multiple ranges). Absorption is all-or-nothing.
    Multi(Vec<KvPayload>),
}

/// Stable (cross-process, cross-version) FNV-1a hash used for slot
/// routing. The client and every memory server must agree on this
/// function, so it is deliberately not `std::hash` (whose output is
/// randomized per process).
pub fn kv_slot(key: &[u8], num_slots: u32) -> u32 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = OFFSET;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    (h % u64::from(num_slots)) as u32
}

/// One block's partition of a Jiffy KV-store.
pub struct KvPartition {
    capacity: usize,
    num_slots: u32,
    /// Inclusive slot ranges owned by this block, kept sorted.
    ranges: Vec<(u32, u32)>,
    map: CuckooMap<Blob, Blob>,
    used: usize,
}

impl KvPartition {
    /// Creates an empty partition owning the slot ranges in `params`.
    ///
    /// # Errors
    ///
    /// Rejects empty/invalid slot ranges.
    pub fn new(capacity: usize, params: KvParams) -> Result<Self> {
        if params.num_slots == 0 {
            return Err(JiffyError::Internal("num_slots must be > 0".into()));
        }
        for &(lo, hi) in &params.ranges {
            if lo > hi || hi >= params.num_slots {
                return Err(JiffyError::Internal(format!(
                    "invalid slot range ({lo}, {hi}) for {} slots",
                    params.num_slots
                )));
            }
        }
        let mut ranges = params.ranges;
        ranges.sort_unstable();
        Ok(Self {
            capacity,
            num_slots: params.num_slots,
            ranges,
            map: CuckooMap::new(),
            used: 0,
        })
    }

    /// The slot ranges this block currently owns.
    pub fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges
    }

    /// Number of resident pairs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no pairs are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Slot capacity of the pair table, to check how absorb sized it.
    #[cfg(test)]
    fn table_capacity(&self) -> usize {
        self.map.capacity()
    }

    fn owns(&self, slot: u32) -> bool {
        self.ranges.iter().any(|&(lo, hi)| lo <= slot && slot <= hi)
    }

    fn check_routing(&self, key: &[u8]) -> Result<u32> {
        let slot = kv_slot(key, self.num_slots);
        if self.owns(slot) {
            Ok(slot)
        } else {
            // The client's cached slot map is out of date (a split moved
            // this slot elsewhere).
            Err(JiffyError::StaleMetadata)
        }
    }

    fn pair_cost(key: &Blob, value: &Blob) -> usize {
        key.len() + value.len() + PER_ITEM_OVERHEAD
    }

    fn put(&mut self, key: &Blob, value: &Blob) -> Result<DsResult> {
        self.check_routing(key)?;
        let new_cost = Self::pair_cost(key, value);
        let old_cost = self
            .map
            .get(key)
            .map(|old| Self::pair_cost(key, old))
            .unwrap_or(0);
        if self.used - old_cost + new_cost > self.capacity {
            return Err(JiffyError::BlockFull {
                capacity: self.capacity,
                requested: new_cost - old_cost,
            });
        }
        let prev = self.map.insert(key.clone(), value.clone());
        self.used = self.used - old_cost + new_cost;
        Ok(DsResult::Replaced(prev))
    }

    fn get(&self, key: &Blob) -> Result<DsResult> {
        self.check_routing(key)?;
        Ok(DsResult::MaybeData(self.map.get(key).cloned()))
    }

    fn delete(&mut self, key: &Blob) -> Result<DsResult> {
        self.check_routing(key)?;
        match self.map.remove(key) {
            Some(old) => {
                self.used -= Self::pair_cost(key, &old);
                Ok(DsResult::MaybeData(Some(old)))
            }
            None => Ok(DsResult::MaybeData(None)),
        }
    }

    /// Removes a slot range from ownership, extracting its pairs.
    fn extract_range(&mut self, lo: u32, hi: u32) -> Result<Vec<(Blob, Blob)>> {
        // The range must be covered by owned ranges.
        if !(lo..=hi).all(|s| self.owns(s)) {
            return Err(JiffyError::Internal(format!(
                "cannot split: slots ({lo}, {hi}) not fully owned"
            )));
        }
        let num_slots = self.num_slots;
        let pairs = self
            .map
            .extract_if(|k, _| (lo..=hi).contains(&kv_slot(k, num_slots)));
        for (k, v) in &pairs {
            self.used -= Self::pair_cost(k, v);
        }
        // Shrink ownership: remove [lo, hi] from each overlapping range.
        let mut new_ranges = Vec::with_capacity(self.ranges.len() + 1);
        for &(a, b) in &self.ranges {
            if b < lo || a > hi {
                new_ranges.push((a, b));
                continue;
            }
            if a < lo {
                new_ranges.push((a, lo - 1));
            }
            if b > hi {
                new_ranges.push((hi + 1, b));
            }
        }
        self.ranges = new_ranges;
        Ok(pairs)
    }
}

impl Partition for KvPartition {
    fn ds_type(&self) -> DsType {
        DsType::KvStore
    }

    fn execute(&mut self, op: &DsOp) -> Result<DsResult> {
        match op {
            DsOp::Put { key, value } => self.put(key, value),
            DsOp::Get { key } => self.get(key),
            DsOp::Delete { key } => self.delete(key),
            DsOp::Exists { key } => {
                self.check_routing(key)?;
                Ok(DsResult::Bool(self.map.contains(key)))
            }
            DsOp::KvCount => Ok(DsResult::Size(self.map.len() as u64)),
            other => Err(JiffyError::WrongDataStructure {
                expected: "kv_store".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    fn used_bytes(&self) -> usize {
        self.used
    }

    fn export(&self) -> Result<Vec<u8>> {
        let pairs: Vec<(Blob, Blob)> = self
            .map
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        jiffy_proto::to_bytes(&KvTransfer::Full {
            num_slots: self.num_slots,
            ranges: self.ranges.clone(),
            pairs,
        })
    }

    fn absorb(&mut self, payload: &[u8]) -> Result<()> {
        match jiffy_proto::from_bytes::<KvTransfer>(payload)? {
            KvTransfer::Multi(parts) => {
                let total: usize = parts
                    .iter()
                    .flat_map(|p| p.pairs.iter())
                    .map(|(k, v)| Self::pair_cost(k, v))
                    .sum();
                if self.used + total > self.capacity {
                    return Err(JiffyError::BlockFull {
                        capacity: self.capacity,
                        requested: total,
                    });
                }
                self.map.reserve(parts.iter().map(|p| p.pairs.len()).sum());
                for p in parts {
                    self.ranges.push((p.lo, p.hi));
                    for (k, v) in p.pairs {
                        self.used += Self::pair_cost(&k, &v);
                        self.map.insert(k, v);
                    }
                }
                self.ranges.sort_unstable();
                Ok(())
            }
            KvTransfer::Range(p) => {
                let total: usize = p.pairs.iter().map(|(k, v)| Self::pair_cost(k, v)).sum();
                if self.used + total > self.capacity {
                    return Err(JiffyError::BlockFull {
                        capacity: self.capacity,
                        requested: total,
                    });
                }
                self.ranges.push((p.lo, p.hi));
                self.ranges.sort_unstable();
                self.map.reserve(p.pairs.len());
                for (k, v) in p.pairs {
                    self.used += Self::pair_cost(&k, &v);
                    self.map.insert(k, v);
                }
                Ok(())
            }
            KvTransfer::Full {
                num_slots,
                ranges,
                pairs,
            } => {
                let total: usize = pairs.iter().map(|(k, v)| Self::pair_cost(k, v)).sum();
                if total > self.capacity {
                    return Err(JiffyError::BlockFull {
                        capacity: self.capacity,
                        requested: total,
                    });
                }
                self.num_slots = num_slots;
                self.ranges = ranges;
                self.map = CuckooMap::with_capacity(pairs.len());
                self.used = 0;
                for (k, v) in pairs {
                    self.used += Self::pair_cost(&k, &v);
                    self.map.insert(k, v);
                }
                Ok(())
            }
        }
    }

    fn split_out(&mut self, spec: &SplitSpec) -> Result<Vec<u8>> {
        match spec {
            SplitSpec::KvSlots { lo, hi } => {
                let pairs = self.extract_range(*lo, *hi)?;
                jiffy_proto::to_bytes(&KvTransfer::Range(KvPayload {
                    lo: *lo,
                    hi: *hi,
                    pairs,
                }))
            }
            other => Err(JiffyError::Internal(format!(
                "kv partition cannot split with {other:?}"
            ))),
        }
    }

    fn merge_out(&mut self) -> Result<Vec<Vec<u8>>> {
        let ranges = self.ranges.clone();
        let mut parts = Vec::with_capacity(ranges.len());
        for (lo, hi) in ranges {
            let pairs = self.extract_range(lo, hi)?;
            parts.push(KvPayload { lo, hi, pairs });
        }
        debug_assert!(self.map.is_empty());
        debug_assert!(self.ranges.is_empty());
        // One atomic payload: the receiving block absorbs everything or
        // nothing, so an aborted merge can roll back losslessly.
        Ok(vec![jiffy_proto::to_bytes(&KvTransfer::Multi(parts))?])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_partition() -> KvPartition {
        KvPartition::new(
            1 << 20,
            KvParams {
                ranges: vec![(0, 1023)],
                num_slots: 1024,
            },
        )
        .unwrap()
    }

    fn put(k: &str, v: &str) -> DsOp {
        DsOp::Put {
            key: k.into(),
            value: v.into(),
        }
    }

    #[test]
    fn kv_slot_is_stable_and_in_range() {
        // Regression-pinned values: routing must never change across
        // releases or the cluster would mis-route after an upgrade.
        assert_eq!(kv_slot(b"hello", 1024), kv_slot(b"hello", 1024));
        for key in [b"a".as_slice(), b"hello", b"", &[0xFF; 32]] {
            assert!(kv_slot(key, 1024) < 1024);
            assert!(kv_slot(key, 7) < 7);
        }
        assert_ne!(kv_slot(b"key-1", 1024), kv_slot(b"key-2", 1024));
    }

    #[test]
    fn put_get_delete_round_trip() {
        let mut kv = full_partition();
        assert_eq!(
            kv.execute(&put("k1", "v1")).unwrap(),
            DsResult::Replaced(None)
        );
        assert_eq!(
            kv.execute(&put("k1", "v2")).unwrap(),
            DsResult::Replaced(Some("v1".into()))
        );
        assert_eq!(
            kv.execute(&DsOp::Get { key: "k1".into() }).unwrap(),
            DsResult::MaybeData(Some("v2".into()))
        );
        assert_eq!(
            kv.execute(&DsOp::Exists { key: "k1".into() }).unwrap(),
            DsResult::Bool(true)
        );
        assert_eq!(
            kv.execute(&DsOp::Delete { key: "k1".into() }).unwrap(),
            DsResult::MaybeData(Some("v2".into()))
        );
        assert_eq!(
            kv.execute(&DsOp::Get { key: "k1".into() }).unwrap(),
            DsResult::MaybeData(None)
        );
    }

    #[test]
    fn usage_tracks_replacements_and_deletes() {
        let mut kv = full_partition();
        kv.execute(&put("key", "0123456789")).unwrap();
        let one = 3 + 10 + PER_ITEM_OVERHEAD;
        assert_eq!(kv.used_bytes(), one);
        kv.execute(&put("key", "01")).unwrap();
        assert_eq!(kv.used_bytes(), 3 + 2 + PER_ITEM_OVERHEAD);
        kv.execute(&DsOp::Delete { key: "key".into() }).unwrap();
        assert_eq!(kv.used_bytes(), 0);
    }

    #[test]
    fn routing_outside_owned_slots_is_stale() {
        let slot = kv_slot(b"wanderer", 1024);
        // Build a partition that owns everything except that slot.
        let mut ranges = Vec::new();
        if slot > 0 {
            ranges.push((0, slot - 1));
        }
        if slot < 1023 {
            ranges.push((slot + 1, 1023));
        }
        let mut kv = KvPartition::new(
            1 << 20,
            KvParams {
                ranges,
                num_slots: 1024,
            },
        )
        .unwrap();
        assert_eq!(
            kv.execute(&put("wanderer", "v")).unwrap_err(),
            JiffyError::StaleMetadata
        );
        assert_eq!(
            kv.execute(&DsOp::Get {
                key: "wanderer".into()
            })
            .unwrap_err(),
            JiffyError::StaleMetadata
        );
    }

    #[test]
    fn split_moves_exactly_the_range_pairs() {
        let mut kv = full_partition();
        for i in 0..500 {
            kv.execute(&put(&format!("key-{i}"), &format!("val-{i}")))
                .unwrap();
        }
        let before_used = kv.used_bytes();
        let payload = kv
            .split_out(&SplitSpec::KvSlots { lo: 512, hi: 1023 })
            .unwrap();
        // Source no longer owns the upper half.
        assert_eq!(kv.ranges(), &[(0, 511)]);
        // Install the payload in a fresh block.
        let mut dest = KvPartition::new(
            1 << 20,
            KvParams {
                ranges: vec![],
                num_slots: 1024,
            },
        )
        .unwrap();
        dest.absorb(&payload).unwrap();
        assert_eq!(dest.ranges(), &[(512, 1023)]);
        // Conservation: every pair is in exactly one block.
        assert_eq!(kv.len() + dest.len(), 500);
        assert_eq!(kv.used_bytes() + dest.used_bytes(), before_used);
        for i in 0..500 {
            let key: Blob = format!("key-{i}").as_str().into();
            let slot = kv_slot(&key, 1024);
            let holder = if slot < 512 { &mut kv } else { &mut dest };
            assert_eq!(
                holder.execute(&DsOp::Get { key: key.clone() }).unwrap(),
                DsResult::MaybeData(Some(format!("val-{i}").as_str().into())),
                "key {i} (slot {slot}) must be in the owning block"
            );
        }
    }

    #[test]
    fn split_of_unowned_slots_fails() {
        let mut kv = KvPartition::new(
            1 << 20,
            KvParams {
                ranges: vec![(0, 511)],
                num_slots: 1024,
            },
        )
        .unwrap();
        assert!(kv
            .split_out(&SplitSpec::KvSlots { lo: 500, hi: 600 })
            .is_err());
    }

    #[test]
    fn export_absorb_full_state() {
        let mut kv = full_partition();
        for i in 0..100 {
            kv.execute(&put(&format!("k{i}"), &format!("v{i}")))
                .unwrap();
        }
        let payload = kv.export().unwrap();
        let mut restored = KvPartition::new(
            1 << 20,
            KvParams {
                ranges: vec![],
                num_slots: 1024,
            },
        )
        .unwrap();
        restored.absorb(&payload).unwrap();
        assert_eq!(restored.len(), 100);
        assert_eq!(restored.used_bytes(), kv.used_bytes());
        assert_eq!(restored.ranges(), kv.ranges());
        assert_eq!(
            restored.execute(&DsOp::Get { key: "k42".into() }).unwrap(),
            DsResult::MaybeData(Some("v42".into()))
        );
    }

    fn sorted_pairs(kv: &KvPartition) -> Vec<(Blob, Blob)> {
        let mut pairs: Vec<(Blob, Blob)> =
            kv.map.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        pairs.sort_unstable_by(|(a, _), (b, _)| a[..].cmp(&b[..]));
        pairs
    }

    #[test]
    fn absorb_sizes_the_table_once_for_a_full_block() {
        // One block of the grow-and-spill workload: 256 KB, 1 KB values,
        // filled to the 95 % split threshold (~237 pairs).
        let capacity = 256 << 10;
        let mut kv = KvPartition::new(
            capacity,
            KvParams {
                ranges: vec![(0, 1023)],
                num_slots: 1024,
            },
        )
        .unwrap();
        let value = "v".repeat(1024);
        for i in 0.. {
            let key = format!("k{i:08}");
            if kv.used_bytes() + key.len() + value.len() + PER_ITEM_OVERHEAD > capacity * 95 / 100 {
                break;
            }
            kv.execute(&put(&key, &value)).unwrap();
        }
        let all = sorted_pairs(&kv);
        let empty = || {
            KvPartition::new(
                capacity,
                KvParams {
                    ranges: vec![],
                    num_slots: 1024,
                },
            )
            .unwrap()
        };

        // Flush/load: the whole image into an empty block.
        let mut loaded = empty();
        loaded.absorb(&kv.export().unwrap()).unwrap();
        assert_eq!(sorted_pairs(&loaded), all);
        assert_eq!(loaded.used_bytes(), kv.used_bytes());
        // Sized once from the pair count: no doubling while inserting.
        assert_eq!(
            loaded.table_capacity(),
            CuckooMap::<Blob, Blob>::with_capacity(all.len()).capacity(),
            "a loaded image grew its table while absorbing"
        );

        // Split: half the slots into an empty target.
        let mut target = empty();
        target
            .absorb(
                &kv.split_out(&SplitSpec::KvSlots { lo: 512, hi: 1023 })
                    .unwrap(),
            )
            .unwrap();
        let mut both = sorted_pairs(&kv);
        both.extend(sorted_pairs(&target));
        both.sort_unstable_by(|(a, _), (b, _)| a[..].cmp(&b[..]));
        assert_eq!(both, all);
        assert!(sorted_pairs(&target)
            .iter()
            .all(|(k, _)| kv_slot(k, 1024) >= 512));
        assert_eq!(
            target.table_capacity(),
            CuckooMap::<Blob, Blob>::with_capacity(target.len()).capacity(),
            "a split target grew its table while absorbing"
        );
    }

    #[test]
    fn capacity_enforced_on_put_and_absorb() {
        let mut kv = KvPartition::new(
            64,
            KvParams {
                ranges: vec![(0, 1023)],
                num_slots: 1024,
            },
        )
        .unwrap();
        // 3 + 40 + 16 = 59 fits; next put overflows.
        kv.execute(&put("big", &"x".repeat(40))).unwrap();
        assert!(matches!(
            kv.execute(&put("two", "y")).unwrap_err(),
            JiffyError::BlockFull { .. }
        ));
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(KvPartition::new(
            1024,
            KvParams {
                ranges: vec![(10, 5)],
                num_slots: 1024
            }
        )
        .is_err());
        assert!(KvPartition::new(
            1024,
            KvParams {
                ranges: vec![(0, 2000)],
                num_slots: 1024
            }
        )
        .is_err());
        assert!(KvPartition::new(
            1024,
            KvParams {
                ranges: vec![],
                num_slots: 0
            }
        )
        .is_err());
    }

    #[test]
    fn wrong_ops_rejected() {
        let mut kv = full_partition();
        assert!(matches!(
            kv.execute(&DsOp::Enqueue { item: "x".into() }).unwrap_err(),
            JiffyError::WrongDataStructure { .. }
        ));
    }
}
