//! Strongly-typed identifiers used across the control and data planes.
//!
//! Jiffy's controller tracks three kinds of entities: jobs (which own
//! address hierarchies), memory blocks (the allocation unit), and memory
//! servers (which host blocks). Using newtypes rather than bare integers
//! prevents an entire class of cross-plane mix-ups at compile time.

use jiffy_sync::atomic::{AtomicU64, Ordering};
use std::fmt;

use serde::{Deserialize, Serialize};

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub u64);

        impl $name {
            /// Returns the raw numeric value of this identifier.
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                Self(v)
            }
        }
    };
}

define_id!(
    /// Uniquely identifies a registered job (and therefore one address
    /// hierarchy at the controller).
    JobId,
    "job-"
);

define_id!(
    /// Uniquely identifies a fixed-size memory block across the whole
    /// cluster. Block IDs are allocated by the controller and never reused
    /// within a controller's lifetime.
    BlockId,
    "blk-"
);

define_id!(
    /// Uniquely identifies a memory server at the data plane.
    ServerId,
    "srv-"
);

define_id!(
    /// Identifies the tenant on whose behalf a request is issued. Flows
    /// inside every RPC envelope so both planes can meter, quota and
    /// throttle per tenant (DESIGN.md §14).
    TenantId,
    "tenant-"
);

impl TenantId {
    /// The default tenant for unattributed traffic (internal RPCs,
    /// legacy clients). The anonymous tenant is exempt from admission
    /// control: chain replication and repartition transfers must never
    /// be throttled mid-flight.
    pub const ANONYMOUS: TenantId = TenantId(0);

    /// Whether this is the anonymous (unattributed) tenant.
    pub const fn is_anonymous(self) -> bool {
        self.0 == Self::ANONYMOUS.0
    }
}

impl Default for TenantId {
    fn default() -> Self {
        Self::ANONYMOUS
    }
}

/// A monotonically increasing generator for any of the ID newtypes.
///
/// The controller owns one generator per ID kind; IDs therefore never
/// collide within a controller's lifetime. A *strided* generator (see
/// [`IdGen::strided`]) issues only values in one residue class, so N
/// controller shards minting from disjoint classes never collide with
/// each other either — and `id % N` recovers the owning shard.
#[derive(Debug, Default)]
pub struct IdGen {
    next: AtomicU64,
    /// Increment per issued id. Zero (the `Default`) behaves as one, so
    /// the derived default matches [`IdGen::new`].
    step: AtomicU64,
}

impl IdGen {
    /// Creates a generator whose first issued value is `0`.
    pub const fn new() -> Self {
        Self {
            next: AtomicU64::new(0),
            step: AtomicU64::new(1),
        }
    }

    /// Creates a generator whose first issued value is `start`.
    pub const fn starting_at(start: u64) -> Self {
        Self {
            next: AtomicU64::new(start),
            step: AtomicU64::new(1),
        }
    }

    /// Creates a generator issuing `start, start + step, start + 2·step,
    /// ...` — ids stay in the residue class `start mod step`, which is
    /// how controller shards partition one id space without
    /// coordination.
    pub const fn strided(start: u64, step: u64) -> Self {
        Self {
            next: AtomicU64::new(start),
            step: AtomicU64::new(step),
        }
    }

    /// Issues the next raw ID value.
    pub fn next_raw(&self) -> u64 {
        let step = self.step.load(Ordering::Relaxed).max(1);
        self.next.fetch_add(step, Ordering::Relaxed)
    }

    /// Issues the next ID converted into the requested newtype.
    pub fn next_id<T: From<u64>>(&self) -> T {
        T::from(self.next_raw())
    }

    /// The value the next call to [`next_raw`](Self::next_raw) would
    /// issue. Used to checkpoint a generator into a snapshot.
    pub fn current(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// The next `n` values [`next_raw`](Self::next_raw) would issue,
    /// without issuing them.
    pub fn peek(&self, n: u64) -> impl Iterator<Item = u64> {
        let step = self.step.load(Ordering::Relaxed).max(1);
        let start = self.current();
        (0..n).map(move |i| start + i * step)
    }

    /// Advances the generator so it never issues a value below `floor`,
    /// in whole steps, so a strided generator stays in its residue class.
    /// No-op if the generator is already past it.
    pub fn bump_to(&self, floor: u64) {
        let step = self.step.load(Ordering::Relaxed).max(1);
        let _ = self
            .next
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                (floor > cur).then(|| cur + (floor - cur).div_ceil(step) * step)
            });
    }

    /// Converts this generator into a strided one issuing ids ≡ `index`
    /// (mod `count`), advancing the frontier to the smallest value of
    /// that class not below the current frontier. Installing the same
    /// stride on a generator recovered from a checkpoint is a no-op on
    /// the frontier (checkpointed frontiers are already in class).
    pub fn set_stride(&self, index: u64, count: u64) {
        let count = count.max(1);
        let cur = self.next.load(Ordering::Relaxed);
        let aligned = if cur % count <= index {
            cur - (cur % count) + index
        } else {
            cur - (cur % count) + index + count
        };
        self.next.fetch_max(aligned, Ordering::Relaxed);
        self.step.store(count, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn display_uses_prefixes() {
        assert_eq!(JobId(7).to_string(), "job-7");
        assert_eq!(BlockId(0).to_string(), "blk-0");
        assert_eq!(ServerId(42).to_string(), "srv-42");
        assert_eq!(TenantId(3).to_string(), "tenant-3");
    }

    #[test]
    fn anonymous_tenant_is_the_default() {
        assert_eq!(TenantId::default(), TenantId::ANONYMOUS);
        assert!(TenantId::ANONYMOUS.is_anonymous());
        assert!(!TenantId(1).is_anonymous());
    }

    #[test]
    fn raw_round_trips() {
        let id = BlockId::from(123);
        assert_eq!(id.raw(), 123);
    }

    #[test]
    fn idgen_is_monotonic_and_unique() {
        let g = IdGen::new();
        let ids: Vec<u64> = (0..1000).map(|_| g.next_raw()).collect();
        let set: HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(set.len(), ids.len());
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn idgen_starting_at_offsets_first_value() {
        let g = IdGen::starting_at(10);
        assert_eq!(g.next_raw(), 10);
        assert_eq!(g.next_raw(), 11);
    }

    #[test]
    fn idgen_is_thread_safe() {
        let g = jiffy_sync::Arc::new(IdGen::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let g = g.clone();
            handles.push(std::thread::spawn(move || {
                (0..250).map(|_| g.next_raw()).collect::<Vec<_>>()
            }));
        }
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        let set: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(set.len(), 1000);
    }

    #[test]
    fn strided_idgen_stays_in_residue_class() {
        let g = IdGen::strided(2, 4);
        let ids: Vec<u64> = (0..16).map(|_| g.next_raw()).collect();
        assert_eq!(ids[0], 2);
        assert!(ids.iter().all(|v| v % 4 == 2));
        assert!(ids.windows(2).all(|w| w[1] == w[0] + 4));
    }

    #[test]
    fn set_stride_aligns_frontier_up_into_class() {
        // Frontier 6, class 1 mod 4 → next aligned value is 9.
        let g = IdGen::starting_at(6);
        g.set_stride(1, 4);
        assert_eq!(g.next_raw(), 9);
        assert_eq!(g.next_raw(), 13);
        // Frontier 4, class 1 mod 4 → rounds up within the block to 5.
        let g = IdGen::starting_at(4);
        g.set_stride(1, 4);
        assert_eq!(g.next_raw(), 5);
        // A frontier already in class is untouched (checkpoint resume).
        let g = IdGen::starting_at(13);
        g.set_stride(1, 4);
        assert_eq!(g.next_raw(), 13);
    }

    #[test]
    fn peek_issues_nothing_and_bump_keeps_the_class() {
        let g = IdGen::strided(1, 3);
        assert_eq!(g.peek(3).collect::<Vec<_>>(), vec![1, 4, 7]);
        assert_eq!(g.current(), 1, "peek issues nothing");
        // Past a recorded id 7: the next value is 10, not 8.
        g.bump_to(8);
        assert_eq!(g.next_raw(), 10);
        g.bump_to(2);
        assert_eq!(g.next_raw(), 13, "a floor behind the frontier is a no-op");
        let plain = IdGen::new();
        plain.bump_to(5);
        assert_eq!(plain.next_raw(), 5);
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(BlockId(1) < BlockId(2));
        assert!(JobId(0) < JobId(u64::MAX));
    }
}
