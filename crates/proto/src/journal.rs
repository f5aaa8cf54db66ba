//! Controller metadata-journal record types.
//!
//! The controller makes itself crash-recoverable by appending a typed
//! record for every mutating control-plane operation to a write-ahead
//! journal in the persistent tier *before* acknowledging the operation,
//! and periodically checkpointing its full metadata state into a
//! snapshot that truncates the journal (DESIGN.md §11).
//!
//! The record types live here — next to the other wire messages — so the
//! journal's on-disk format is part of the protocol surface rather than
//! a controller implementation detail. Records are outcome-carrying:
//! they capture the *results* of non-deterministic choices (allocated
//! block locations, chosen merge targets) so replay is deterministic and
//! never touches the data plane.
//!
//! Controller-internal state (the `DsMeta` skeleton, the full-state
//! mirror) travels as opaque pre-encoded byte payloads; the controller
//! crate owns those types and this crate must not depend on it.

use serde::{Deserialize, Serialize};

use jiffy_common::{BlockId, JobId, ServerId, TenantId};

use crate::messages::{BlockLocation, ControlResponse, MergeSpec, SplitSpec};

/// One journal object: the batch of records appended by a single
/// control-plane dispatch. Object puts are atomic (temp file + rename),
/// so a batch is applied all-or-nothing — the observable crash points
/// are exactly the batch boundaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalBatch {
    /// Records in append order; sequence numbers are contiguous within a
    /// batch and across consecutive batches.
    pub records: Vec<JournalRecord>,
}

/// A single journal record: a monotonically increasing sequence number
/// plus the operation it logs. Replay dedupes on `seq`, making journal
/// application idempotent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Strictly increasing, starting at 0 for a fresh controller.
    pub seq: u64,
    /// The logged state transition.
    pub op: JournalOp,
}

/// The journal's record taxonomy: one variant per mutating control-plane
/// state transition. Every variant carries the operation *outcome* (not
/// the request), so replaying it against [`super::messages`]-level state
/// needs no allocator, no data-plane calls, and no clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalOp {
    /// A job registered and was assigned `job`.
    JobRegistered {
        /// The id the controller issued.
        job: JobId,
        /// Client-supplied job name.
        name: String,
        /// Tenant that registered the job; its memory accounting absorbs
        /// every block the job allocates. Appended last within the
        /// variant so the preceding positional layout is unchanged.
        tenant: TenantId,
    },
    /// A job deregistered; all its blocks returned to the freelist.
    JobDeregistered {
        /// The removed job.
        job: JobId,
    },
    /// A prefix node was created, with the block chains the allocator
    /// chose for it.
    PrefixCreated {
        /// Owning job.
        job: JobId,
        /// Hierarchy path of the new node.
        name: String,
        /// Parent prefixes (empty = hangs off the job root).
        parents: Vec<String>,
        /// Allocated chains in partition order (empty for a bare
        /// directory node with no data structure).
        locs: Vec<BlockLocation>,
        /// Wire-encoded `DsSkeleton` of the created data structure;
        /// `None` for a bare directory node.
        skeleton: Option<Vec<u8>>,
        /// Lease clock at creation (microseconds).
        now_micros: u64,
    },
    /// An extra parent edge was added to an existing node.
    ParentAdded {
        /// Owning job.
        job: JobId,
        /// The child node.
        name: String,
        /// The new parent.
        parent: String,
    },
    /// A prefix was removed and its blocks released.
    PrefixRemoved {
        /// Owning job.
        job: JobId,
        /// The removed node.
        name: String,
    },
    /// A lease renewal touched `name` and its renewal closure.
    LeaseRenewed {
        /// Owning job.
        job: JobId,
        /// The renewed path.
        name: String,
        /// Lease clock at renewal (microseconds).
        now_micros: u64,
    },
    /// A prefix was flushed to the persistent tier (and, if `reclaimed`,
    /// its blocks were released afterwards).
    PrefixFlushed {
        /// Owning job.
        job: JobId,
        /// The flushed node.
        name: String,
        /// Persistent-tier object path of the flush record.
        path: String,
        /// Whether the in-memory copy was reclaimed after the flush.
        reclaimed: bool,
        /// Whether this was a lease-expiry flush (drives the
        /// `leases_expired` counter on replay).
        expired: bool,
    },
    /// A prefix was loaded back from the persistent tier into freshly
    /// allocated blocks.
    PrefixLoaded {
        /// Owning job.
        job: JobId,
        /// The loaded node.
        name: String,
        /// Persistent-tier object path it was loaded from.
        path: String,
        /// The chains the allocator chose, in partition order.
        locs: Vec<BlockLocation>,
        /// Wire-encoded `DsSkeleton` captured at load time (the flush
        /// object itself may be overwritten later, so replay must not
        /// re-read it).
        skeleton: Vec<u8>,
    },
    /// A memory server joined (or re-joined) the pool.
    ServerJoined {
        /// The id the controller issued.
        server: ServerId,
        /// Transport address of the server.
        addr: String,
        /// The exact block ids it contributed, in registration order.
        blocks: Vec<BlockId>,
        /// Liveness clock at join (microseconds), used to seed the
        /// failure detector on replay.
        now_micros: u64,
    },
    /// An overloaded block was split; `new_loc` took over part of its
    /// keyspace.
    SplitCommitted {
        /// Owning job.
        job: JobId,
        /// Owning node.
        name: String,
        /// The block that split.
        source: BlockId,
        /// The committed split plan.
        spec: SplitSpec,
        /// The freshly allocated chain.
        new_loc: BlockLocation,
    },
    /// An underloaded block was merged away and released.
    MergeCommitted {
        /// Owning job.
        job: JobId,
        /// Owning node.
        name: String,
        /// The block that was merged away.
        source: BlockId,
        /// The committed merge plan.
        spec: MergeSpec,
        /// The absorbing chain (`None` when the plan needs no target).
        target: Option<BlockLocation>,
        /// Exactly the block ids released back to the freelist.
        released: Vec<BlockId>,
    },
    /// The autoscaler provisioned (`up`) or decommissioned (`!up`) a
    /// server; logged for the scale counters only (membership changes
    /// journal separately: `ServerJoined`, `ServerDraining`,
    /// `ServerRemoved`).
    ScaleEvent {
        /// Scale-up vs. scale-down.
        up: bool,
    },
    /// Decoder only: builds before drain, migration and failure handling
    /// journaled their outcomes record by record checkpointed the whole
    /// controller state here, as a wire-encoded controller `StateMirror`
    /// that replay swaps in wholesale. Nothing writes it any more; old
    /// journals still replay it.
    StateRewritten {
        /// Wire-encoded controller state mirror.
        mirror: Vec<u8>,
    },
    /// A tenant's QoS parameters were configured (`SetTenantShare`).
    /// Appended last to keep wire variant indices stable.
    TenantConfigured {
        /// The configured tenant.
        tenant: TenantId,
        /// Weighted-fair share (≥ 1).
        share: u32,
        /// Hard memory quota in bytes (0 = unlimited).
        quota_bytes: u64,
        /// Data-plane op rate limit per second (0 = unlimited).
        ops_per_sec: u64,
        /// Data-plane byte rate limit per second (0 = unlimited).
        bytes_per_sec: u64,
    },
    /// The answer acked to client request `rid`, in the same batch as
    /// the mutation it answers; replay rebuilds the shard's replay window
    /// from these. Appended last to keep wire variant indices stable.
    Answered {
        /// The client-stamped request id.
        rid: u64,
        /// The response acked to it.
        resp: ControlResponse,
    },
    /// A server started draining (`LeaveServer`): its free blocks are
    /// parked and it takes no new allocations. Appended last to keep
    /// wire variant indices stable, like the three records after it.
    ServerDraining {
        /// The leaving server.
        server: ServerId,
    },
    /// The failure detector (or an explicit kill) declared a server dead:
    /// its free blocks are parked. Chains that lose a replica are
    /// repaired by the `ChainRewired` records of the same batch; wholly
    /// lost chains keep their blocks until their prefix is reloaded,
    /// removed or its job deregistered.
    ServerFailed {
        /// The dead server.
        server: ServerId,
    },
    /// One chain of a prefix moved to another set of blocks: a drain's
    /// live migration (`new` is freshly allocated) or a failure's
    /// promotion (`new` is the surviving replicas of `old`).
    ChainRewired {
        /// Owning job.
        job: JobId,
        /// Owning node.
        name: String,
        /// The chain as the layout held it.
        old: BlockLocation,
        /// The chain that replaces it.
        new: BlockLocation,
        /// Exactly the block ids of `old` released back to the freelist.
        released: Vec<BlockId>,
    },
    /// A fully drained server left the membership table; its id is
    /// tombstoned and its block ids disappear.
    ServerRemoved {
        /// The departed server.
        server: ServerId,
    },
}

/// A snapshot object: the controller's full metadata state as of
/// `last_seq`. Recovery starts from the newest snapshot and replays only
/// journal batches whose first sequence number is greater than
/// `last_seq`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalSnapshot {
    /// Sequence number of the last record folded into this snapshot.
    pub last_seq: u64,
    /// Wire-encoded controller `StateMirror`.
    pub mirror: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Replica;
    use crate::{from_bytes, to_bytes};

    fn chain(block: u64) -> BlockLocation {
        BlockLocation {
            chain: vec![Replica {
                block: BlockId(block),
                server: ServerId(0),
                addr: "inproc:0".into(),
            }],
        }
    }

    #[test]
    fn records_round_trip_through_wire_format() {
        let batch = JournalBatch {
            records: vec![
                JournalRecord {
                    seq: 0,
                    op: JournalOp::JobRegistered {
                        job: JobId(3),
                        name: "wordcount".into(),
                        tenant: TenantId(2),
                    },
                },
                JournalRecord {
                    seq: 1,
                    op: JournalOp::PrefixCreated {
                        job: JobId(3),
                        name: "shuffle".into(),
                        parents: vec![],
                        locs: vec![chain(7)],
                        skeleton: Some(vec![1, 2, 3]),
                        now_micros: 42,
                    },
                },
                JournalRecord {
                    seq: 2,
                    op: JournalOp::MergeCommitted {
                        job: JobId(3),
                        name: "shuffle".into(),
                        source: BlockId(9),
                        spec: MergeSpec::KvAbsorb,
                        target: None,
                        released: vec![BlockId(9)],
                    },
                },
                JournalRecord {
                    seq: 3,
                    op: JournalOp::TenantConfigured {
                        tenant: TenantId(2),
                        share: 4,
                        quota_bytes: 1 << 20,
                        ops_per_sec: 1_000,
                        bytes_per_sec: 0,
                    },
                },
                JournalRecord {
                    seq: 4,
                    op: JournalOp::Answered {
                        rid: 1 << 32,
                        resp: ControlResponse::JobRegistered { job: JobId(3) },
                    },
                },
                JournalRecord {
                    seq: 5,
                    op: JournalOp::ChainRewired {
                        job: JobId(3),
                        name: "shuffle".into(),
                        old: chain(7),
                        new: chain(11),
                        released: vec![BlockId(7)],
                    },
                },
                JournalRecord {
                    seq: 6,
                    op: JournalOp::ServerRemoved {
                        server: ServerId(0),
                    },
                },
            ],
        };
        let bytes = to_bytes(&batch).unwrap();
        let back: JournalBatch = from_bytes(&bytes).unwrap();
        assert_eq!(back, batch);
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = JournalSnapshot {
            last_seq: 99,
            mirror: vec![4, 5, 6],
        };
        let bytes = to_bytes(&snap).unwrap();
        let back: JournalSnapshot = from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
    }
}
