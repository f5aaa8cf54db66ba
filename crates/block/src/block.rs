//! A fixed-capacity block with usage-threshold detection.

use jiffy_common::{BlockId, JiffyError, Result};
use jiffy_proto::{DsOp, DsResult, Notification, OpKind, Replica};
use jiffy_rpc::ReplayWindow;

use crate::partition::Partition;

/// Entries one block's replay window retains. Sized far above the
/// number of in-flight client requests a single block sees, so a live
/// retry always lands inside the window.
pub const REPLAY_WINDOW_ENTRIES: usize = 512;

/// Byte budget for cached results in one block's replay window (weights
/// are result payload bytes plus [`REPLAY_ENTRY_OVERHEAD`]).
pub const REPLAY_WINDOW_BYTES: u64 = 1 << 20;

/// Fixed per-entry weight charged on top of a result's payload bytes,
/// approximating the map/index bookkeeping an entry costs.
const REPLAY_ENTRY_OVERHEAD: u64 = 48;

/// Emitted by [`Block::execute`] when the block's usage crosses a
/// repartition threshold (paper §3.3). The memory server forwards these
/// to the controller as `ReportOverload`/`ReportUnderload`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdEvent {
    /// Usage rose above the high watermark.
    Overloaded {
        /// Bytes in use at the crossing.
        used: u64,
    },
    /// Usage fell below the low watermark.
    Underloaded {
        /// Bytes in use at the crossing.
        used: u64,
    },
}

/// One memory block: identity, capacity, thresholds, an optional
/// partition (present once the block is allocated to a data structure),
/// and a per-block operation sequence number used for notifications and
/// the paper's atomic-operator guarantee.
pub struct Block {
    id: BlockId,
    capacity: usize,
    high_watermark: usize,
    low_watermark: usize,
    partition: Option<Box<dyn Partition>>,
    seq: u64,
    /// Hysteresis latches so a block signals each crossing once rather
    /// than on every op while above/below the watermark.
    high_signaled: bool,
    low_signaled: bool,
    /// While a repartition is in flight the block suppresses further
    /// threshold events for itself.
    repartition_in_flight: bool,
    /// Sealed for live migration: the image is frozen — mutations bounce
    /// with `StaleMetadata` while reads keep serving (paper §3.3).
    sealed: bool,
    /// Redirect tombstone left behind after a migration: every op gets
    /// `BlockMoved` pointing at the new home until the block is reused.
    moved_to: Option<Replica>,
    /// Recently executed `(request id → result)` entries, consulted
    /// before execution so a retried mutation —
    /// including one retried against a freshly promoted replica — is
    /// answered instead of re-executed. Guarded by the same mutex as the
    /// partition (the per-block lock in `BlockStore`), which is what
    /// makes execute + record atomic with respect to a concurrent retry.
    replay: ReplayWindow<DsResult>,
}

impl Block {
    /// Creates an unallocated (free) block.
    pub fn new(id: BlockId, capacity: usize, low_watermark: usize, high_watermark: usize) -> Self {
        Self {
            id,
            capacity,
            high_watermark,
            low_watermark,
            partition: None,
            seq: 0,
            high_signaled: false,
            low_signaled: false,
            repartition_in_flight: false,
            sealed: false,
            moved_to: None,
            replay: ReplayWindow::new(REPLAY_WINDOW_ENTRIES, REPLAY_WINDOW_BYTES),
        }
    }

    /// The block's cluster-unique ID.
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes in use (0 when unallocated).
    pub fn used_bytes(&self) -> usize {
        self.partition.as_ref().map_or(0, |p| p.used_bytes())
    }

    /// Whether a partition is installed.
    pub fn is_allocated(&self) -> bool {
        self.partition.is_some()
    }

    /// Installs a partition, making the block serve a data structure.
    ///
    /// # Errors
    ///
    /// [`JiffyError::Internal`] if the block is already allocated.
    pub fn install(&mut self, partition: Box<dyn Partition>) -> Result<()> {
        if self.partition.is_some() {
            return Err(JiffyError::Internal(format!(
                "block {} already allocated",
                self.id
            )));
        }
        self.partition = Some(partition);
        self.high_signaled = false;
        self.low_signaled = false;
        self.repartition_in_flight = false;
        self.sealed = false;
        self.moved_to = None;
        self.replay.clear();
        Ok(())
    }

    /// Clears the block back to the free state, dropping all data.
    pub fn reset(&mut self) {
        self.partition = None;
        self.seq = 0;
        self.high_signaled = false;
        self.low_signaled = false;
        self.repartition_in_flight = false;
        self.sealed = false;
        self.moved_to = None;
        self.replay.clear();
    }

    /// Seals (or unseals) the block for live migration. Sealed blocks
    /// reject mutations with [`JiffyError::StaleMetadata`] — the client
    /// refreshes its view and retries at the new home — while reads keep
    /// serving the frozen image.
    pub fn set_sealed(&mut self, sealed: bool) {
        self.sealed = sealed;
    }

    /// Whether the block is currently sealed.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Retires the block after its contents migrated to `moved_to`:
    /// drops the partition (freeing the memory) but leaves a redirect
    /// tombstone so every subsequent op gets [`JiffyError::BlockMoved`]
    /// until the block is reused via [`Block::install`] or
    /// [`Block::reset`].
    pub fn retire(&mut self, moved_to: Replica) {
        self.partition = None;
        self.seq = 0;
        self.high_signaled = false;
        self.low_signaled = false;
        self.repartition_in_flight = false;
        self.sealed = false;
        self.moved_to = Some(moved_to);
        // The window travelled with the migration payload (export under
        // the same lock); a retry bouncing off the tombstone re-resolves
        // to the new home, whose imported window answers it.
        self.replay.clear();
    }

    /// The redirect tombstone, if the block was retired.
    pub fn moved_to(&self) -> Option<&Replica> {
        self.moved_to.as_ref()
    }

    /// Direct access to the partition (repartitioning, export).
    ///
    /// # Errors
    ///
    /// [`JiffyError::UnknownBlock`] if the block is unallocated.
    pub fn partition_mut(&mut self) -> Result<&mut (dyn Partition + 'static)> {
        self.partition
            .as_deref_mut()
            .ok_or(JiffyError::UnknownBlock(self.id.raw()))
    }

    /// Immutable access to the partition.
    ///
    /// # Errors
    ///
    /// [`JiffyError::UnknownBlock`] if the block is unallocated.
    pub fn partition_ref(&self) -> Result<&(dyn Partition + 'static)> {
        self.partition
            .as_deref()
            .ok_or(JiffyError::UnknownBlock(self.id.raw()))
    }

    /// Marks a repartition as started (threshold events suppressed).
    pub fn set_repartition_in_flight(&mut self, in_flight: bool) {
        self.repartition_in_flight = in_flight;
        if !in_flight {
            // Allow a fresh signal if the block is still outside its
            // comfort band after the repartition.
            self.high_signaled = false;
            self.low_signaled = false;
        }
    }

    /// Finishes a repartition. When `data_moved` is false (file-append
    /// and queue-link splits move no bytes), the high latch stays set:
    /// this block is full *by design* and signalling again would spawn
    /// an endless chain of empty siblings. Data-moving repartitions
    /// clear both latches so a still-hot block can split again.
    pub fn finish_repartition(&mut self, data_moved: bool) {
        self.repartition_in_flight = false;
        self.high_signaled = !data_moved;
        self.low_signaled = false;
    }

    /// Whether a repartition is currently in flight for this block.
    pub fn repartition_in_flight(&self) -> bool {
        self.repartition_in_flight
    }

    /// Executes one operator, returning the result, an optional
    /// notification to fan out to subscribers, and an optional threshold
    /// event for the controller.
    ///
    /// # Errors
    ///
    /// Propagates partition errors (wrong structure, capacity, range).
    pub fn execute(
        &mut self,
        op: &DsOp,
    ) -> Result<(DsResult, Option<Notification>, Option<ThresholdEvent>)> {
        if let Some(new_home) = &self.moved_to {
            return Err(JiffyError::BlockMoved {
                block: new_home.block.raw(),
                server: new_home.server.raw(),
                addr: new_home.addr.clone(),
            });
        }
        if self.sealed && op.kind().is_some() {
            return Err(JiffyError::StaleMetadata);
        }
        let partition = self
            .partition
            .as_deref_mut()
            .ok_or(JiffyError::UnknownBlock(self.id.raw()))?;
        let result = partition.execute(op)?;
        let notification = op.kind().map(|kind| {
            self.seq += 1;
            Notification {
                block: self.id,
                op: kind,
                size: op_payload_size(op),
                seq: self.seq,
            }
        });
        let event = self.check_thresholds();
        Ok((result, notification, event))
    }

    /// Re-evaluates thresholds after out-of-band mutations (absorb,
    /// split_out) and returns a crossing event if one fired.
    pub fn check_thresholds(&mut self) -> Option<ThresholdEvent> {
        if self.repartition_in_flight {
            return None;
        }
        let used = self.used_bytes();
        if used >= self.high_watermark {
            if !self.high_signaled {
                self.high_signaled = true;
                return Some(ThresholdEvent::Overloaded { used: used as u64 });
            }
        } else {
            self.high_signaled = false;
        }
        if used <= self.low_watermark {
            if !self.low_signaled {
                self.low_signaled = true;
                return Some(ThresholdEvent::Underloaded { used: used as u64 });
            }
        } else {
            self.low_signaled = false;
        }
        None
    }

    /// Current per-block operation sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Consults the replay window for a previously executed request.
    /// Checked *before* [`Block::execute`]'s tombstone and seal gates: a
    /// cached result reflects an execution that already took effect (and
    /// whose data is part of any frozen/migrated image), so it is valid
    /// to replay even while the block is sealed.
    pub fn replay_lookup(&mut self, rid: u64) -> Option<DsResult> {
        self.replay.lookup(rid).cloned()
    }

    /// Records an executed request's result in the replay window,
    /// weighted by its egress payload size.
    pub fn replay_record(&mut self, rid: u64, result: &DsResult) {
        self.replay.insert(
            rid,
            result.clone(),
            result.egress_bytes() + REPLAY_ENTRY_OVERHEAD,
        );
    }

    /// Serializes the replay window (shipped with every exported or
    /// repartitioned payload so the destination keeps answering retries).
    ///
    /// # Errors
    ///
    /// Serialization failures.
    pub fn export_replay(&self) -> Result<Vec<u8>> {
        self.replay.export_bytes()
    }

    /// Absorbs a shipped replay window: exact restore into an untouched
    /// window, merge otherwise. Empty input (e.g. a payload reloaded
    /// from the persistent tier, whose images predate any retry window)
    /// is a no-op.
    ///
    /// # Errors
    ///
    /// Malformed bytes.
    pub fn import_replay(&mut self, bytes: &[u8]) -> Result<()> {
        self.replay.import_bytes(bytes)
    }

    /// Number of resident replay-window entries.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }
}

impl std::fmt::Debug for Block {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Block({}, {}/{} bytes, allocated={})",
            self.id,
            self.used_bytes(),
            self.capacity,
            self.is_allocated()
        )
    }
}

/// Size of the mutation payload, reported in notifications.
fn op_payload_size(op: &DsOp) -> u64 {
    match op {
        DsOp::FileWrite { data, .. } | DsOp::FileAppend { data } => data.len() as u64,
        DsOp::Enqueue { item } => item.len() as u64,
        DsOp::Put { key, value } => (key.len() + value.len()) as u64,
        DsOp::Delete { key } => key.len() as u64,
        _ => 0,
    }
}

/// Convenience: classify a notification-worthy op kind (re-exported for
/// the server's subscription map).
pub fn op_kind(op: &DsOp) -> Option<OpKind> {
    op.kind()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::testutil::BytePile;

    fn pile_block(capacity: usize, low: usize, high: usize) -> Block {
        let mut b = Block::new(BlockId(1), capacity, low, high);
        b.install(Box::new(BytePile {
            capacity,
            data: Vec::new(),
        }))
        .unwrap();
        b
    }

    fn write(n: usize) -> DsOp {
        DsOp::FileWrite {
            offset: 0,
            data: vec![0u8; n].into(),
        }
    }

    #[test]
    fn unallocated_block_rejects_ops() {
        let mut b = Block::new(BlockId(1), 100, 5, 95);
        assert!(b.execute(&write(1)).is_err());
        assert!(!b.is_allocated());
        assert_eq!(b.used_bytes(), 0);
    }

    #[test]
    fn double_install_is_an_error() {
        let mut b = pile_block(100, 5, 95);
        assert!(b
            .install(Box::new(BytePile {
                capacity: 100,
                data: Vec::new()
            }))
            .is_err());
    }

    #[test]
    fn mutations_produce_notifications_with_increasing_seq() {
        let mut b = pile_block(100, 0, 95);
        let (_, n1, _) = b.execute(&write(10)).unwrap();
        let (_, n2, _) = b.execute(&write(10)).unwrap();
        let n1 = n1.unwrap();
        let n2 = n2.unwrap();
        assert_eq!(n1.seq, 1);
        assert_eq!(n2.seq, 2);
        assert_eq!(n1.op, OpKind::Write);
        assert_eq!(n1.size, 10);
        // Reads produce no notification.
        let (_, n3, _) = b.execute(&DsOp::FileRead { offset: 0, len: 1 }).unwrap();
        assert!(n3.is_none());
    }

    #[test]
    fn overload_fires_once_at_high_watermark() {
        let mut b = pile_block(100, 0, 50);
        let (_, _, e1) = b.execute(&write(40)).unwrap();
        assert_eq!(e1, None);
        let (_, _, e2) = b.execute(&write(20)).unwrap();
        assert_eq!(e2, Some(ThresholdEvent::Overloaded { used: 60 }));
        // Still above: no repeat signal.
        let (_, _, e3) = b.execute(&write(10)).unwrap();
        assert_eq!(e3, None);
    }

    #[test]
    fn underload_fires_after_draining() {
        let mut b = pile_block(100, 10, 90);
        // Note: a fresh block starts at 0 bytes which is below the low
        // watermark; the first check latches it without an event only if
        // the first op keeps it below. Write above low first.
        let (_, _, e0) = b.execute(&write(30)).unwrap();
        assert_eq!(e0, None);
        // Truncate (the pile treats Delete as truncate).
        let (_, _, _e) = b.execute(&DsOp::Delete { key: "x".into() }).unwrap();
        let ev = b.check_thresholds();
        // Either the execute or the explicit check reported it, exactly
        // one of them.
        let fired = matches!(_e, Some(ThresholdEvent::Underloaded { .. }))
            ^ matches!(ev, Some(ThresholdEvent::Underloaded { .. }));
        assert!(fired, "exactly one underload event expected");
    }

    #[test]
    fn repartition_in_flight_suppresses_events() {
        let mut b = pile_block(100, 0, 50);
        b.set_repartition_in_flight(true);
        let (_, _, e) = b.execute(&write(80)).unwrap();
        assert_eq!(e, None);
        // Finishing the repartition re-arms the latch.
        b.set_repartition_in_flight(false);
        assert_eq!(
            b.check_thresholds(),
            Some(ThresholdEvent::Overloaded { used: 80 })
        );
    }

    #[test]
    fn reset_returns_block_to_free_state() {
        let mut b = pile_block(100, 0, 50);
        b.execute(&write(30)).unwrap();
        b.reset();
        assert!(!b.is_allocated());
        assert_eq!(b.used_bytes(), 0);
        assert_eq!(b.seq(), 0);
        // Can be reallocated afterwards.
        b.install(Box::new(BytePile {
            capacity: 100,
            data: Vec::new(),
        }))
        .unwrap();
        assert!(b.is_allocated());
    }

    #[test]
    fn sealed_block_rejects_mutations_but_serves_reads() {
        let mut b = pile_block(100, 0, 95);
        b.execute(&write(10)).unwrap();
        b.set_sealed(true);
        assert!(matches!(
            b.execute(&write(1)),
            Err(JiffyError::StaleMetadata)
        ));
        // Reads still serve the frozen image.
        assert!(b.execute(&DsOp::FileRead { offset: 0, len: 5 }).is_ok());
        // Unsealing restores writes.
        b.set_sealed(false);
        assert!(b.execute(&write(1)).is_ok());
    }

    #[test]
    fn retired_block_redirects_every_op_until_reuse() {
        let mut b = pile_block(100, 0, 95);
        b.execute(&write(10)).unwrap();
        let new_home = Replica {
            block: BlockId(42),
            server: jiffy_common::ServerId(7),
            addr: "inproc:7".into(),
        };
        b.retire(new_home.clone());
        assert!(!b.is_allocated());
        match b.execute(&DsOp::FileRead { offset: 0, len: 1 }) {
            Err(JiffyError::BlockMoved {
                block,
                server,
                addr,
            }) => {
                assert_eq!(block, 42);
                assert_eq!(server, 7);
                assert_eq!(addr, "inproc:7");
            }
            other => panic!("expected BlockMoved, got {other:?}"),
        }
        assert!(matches!(
            b.execute(&write(1)),
            Err(JiffyError::BlockMoved { .. })
        ));
        // Reuse clears the tombstone.
        b.install(Box::new(BytePile {
            capacity: 100,
            data: Vec::new(),
        }))
        .unwrap();
        assert!(b.moved_to().is_none());
        assert!(b.execute(&write(1)).is_ok());
    }

    #[test]
    fn hysteresis_rearms_after_dropping_below_high() {
        let mut b = pile_block(100, 0, 50);
        let (_, _, e) = b.execute(&write(60)).unwrap();
        assert!(matches!(e, Some(ThresholdEvent::Overloaded { .. })));
        // Drain below the watermark.
        b.execute(&DsOp::Delete { key: "x".into() }).unwrap();
        // Cross again: should fire again.
        let (_, _, e2) = b.execute(&write(55)).unwrap();
        assert!(matches!(e2, Some(ThresholdEvent::Overloaded { .. })));
    }
}
