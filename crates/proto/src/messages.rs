//! Request/response messages exchanged between Jiffy planes.
//!
//! Three conversations exist in a Jiffy cluster (paper Fig. 2/7/8):
//!
//! 1. **client ↔ controller** ([`ControlRequest`]/[`ControlResponse`]):
//!    job registration, address-hierarchy manipulation, lease renewal,
//!    prefix resolution (address translation), flush/load.
//! 2. **client ↔ memory server** ([`DataRequest`]/[`DataResponse`]):
//!    data-structure operators on blocks, subscriptions, notifications.
//! 3. **memory server ↔ controller / memory server ↔ memory server**:
//!    overload/underload signalling, repartition payload transfer, chain
//!    replication — carried on the same two enums.
//!
//! All types serialize with the [`crate::wire`] codec.

use serde::{Deserialize, Serialize};

use jiffy_common::{BlockId, JiffyError, JobId, ServerId, TenantId};

/// Correlation id stamped on internal envelopes — server→server
/// replication fan-down, repartition payload shipping, controller→server
/// data-plane orders and client subscriptions. The transport assigns
/// such envelopes a per-connection auto-id, and the per-block replay
/// window ignores them: only client-stamped ids participate in
/// exactly-once replay.
pub const INTERNAL_RID: u64 = 0;

/// Lowest client-stamped request id. Client-side allocation
/// (`jiffy-client::rid`) counts up from here so stamped ids can never
/// collide with the per-connection auto-ids the transport assigns to
/// [`INTERNAL_RID`] envelopes (those count up from 1). Servers use this
/// bound to tell a client-originated, replay-window-eligible request
/// from internal traffic.
pub const CLIENT_RID_BASE: u64 = 1 << 32;

/// A byte payload that encodes via `serialize_bytes` (bulk copy) instead
/// of element-wise `Vec<u8>` encoding — important for block-sized
/// payloads.
#[derive(Clone, PartialEq, Eq, Default, Hash)]
pub struct Blob(pub Vec<u8>);

impl Blob {
    /// Wraps a byte vector.
    pub fn new(v: Vec<u8>) -> Self {
        Self(v)
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Consumes the blob, returning the inner vector.
    pub fn into_inner(self) -> Vec<u8> {
        self.0
    }
}

impl std::fmt::Debug for Blob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Blob({} bytes)", self.0.len())
    }
}

impl From<Vec<u8>> for Blob {
    fn from(v: Vec<u8>) -> Self {
        Self(v)
    }
}

impl From<&[u8]> for Blob {
    fn from(v: &[u8]) -> Self {
        Self(v.to_vec())
    }
}

impl From<&str> for Blob {
    fn from(v: &str) -> Self {
        Self(v.as_bytes().to_vec())
    }
}

impl std::ops::Deref for Blob {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl Serialize for Blob {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_bytes(&self.0)
    }
}

impl<'de> Deserialize<'de> for Blob {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V;
        impl serde::de::Visitor<'_> for V {
            type Value = Blob;

            fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("a byte buffer")
            }

            fn visit_bytes<E: serde::de::Error>(self, v: &[u8]) -> Result<Blob, E> {
                Ok(Blob(v.to_vec()))
            }

            fn visit_byte_buf<E: serde::de::Error>(self, v: Vec<u8>) -> Result<Blob, E> {
                Ok(Blob(v))
            }
        }
        d.deserialize_byte_buf(V)
    }
}

/// The built-in data-structure types (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DsType {
    /// Append-only file of fixed-size chunks (§5.1).
    File,
    /// FIFO queue as a growing linked list of blocks (§5.2).
    Queue,
    /// Hash-slotted key-value store with cuckoo-hashed blocks (§5.3).
    KvStore,
}

impl std::fmt::Display for DsType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::File => f.write_str("file"),
            Self::Queue => f.write_str("queue"),
            Self::KvStore => f.write_str("kv_store"),
        }
    }
}

/// One endpoint in the cluster (a memory server's identity + address).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Endpoint {
    /// Memory-server identity.
    pub server: ServerId,
    /// Transport address understood by `jiffy-rpc` (e.g. `inproc:3` or
    /// `tcp:127.0.0.1:9090`).
    pub addr: String,
}

/// One replica in a block's replication chain: the physical block on one
/// server.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Replica {
    /// Physical block ID on that server.
    pub block: BlockId,
    /// Hosting server.
    pub server: ServerId,
    /// Server transport address.
    pub addr: String,
}

/// Where a logical block lives: its replication chain (head first, tail
/// last; length 1 without replication). Writes enter at the head and are
/// forwarded down the chain; reads are served at the tail (chain
/// replication, van Renesse & Schneider).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockLocation {
    /// The replica chain.
    pub chain: Vec<Replica>,
}

impl BlockLocation {
    /// An unreplicated location.
    pub fn single(block: BlockId, server: ServerId, addr: impl Into<String>) -> Self {
        Self {
            chain: vec![Replica {
                block,
                server,
                addr: addr.into(),
            }],
        }
    }

    /// The logical block identity (the head replica's block ID), used as
    /// the key in controller metadata.
    ///
    /// # Panics
    ///
    /// Panics if the chain is empty, which the controller never produces.
    pub fn id(&self) -> BlockId {
        self.head().block
    }

    /// The chain head (write entry point).
    ///
    /// # Panics
    ///
    /// Panics if the chain is empty, which the controller never produces.
    pub fn head(&self) -> &Replica {
        self.chain.first().expect("block chain must not be empty")
    }

    /// The chain tail (read endpoint).
    ///
    /// # Panics
    ///
    /// Panics if the chain is empty, which the controller never produces.
    pub fn tail(&self) -> &Replica {
        self.chain.last().expect("block chain must not be empty")
    }
}

/// A contiguous range of KV hash slots owned by one block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotRange {
    /// First slot (inclusive).
    pub lo: u32,
    /// Last slot (inclusive).
    pub hi: u32,
    /// The block owning these slots.
    pub location: BlockLocation,
}

impl SlotRange {
    /// Whether `slot` falls in this range.
    pub fn contains(&self, slot: u32) -> bool {
        self.lo <= slot && slot <= self.hi
    }
}

/// Client-cached view of how a data structure is partitioned across
/// blocks. Stored at the controller's metadata manager; refreshed by
/// clients on [`JiffyError::StaleMetadata`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PartitionView {
    /// File: ordered chunk list; chunk `i` covers file offsets
    /// `[i * chunk_size, (i + 1) * chunk_size)`.
    File {
        /// Capacity of each chunk in bytes (= block size).
        chunk_size: u64,
        /// Chunk blocks in offset order.
        blocks: Vec<BlockLocation>,
    },
    /// Queue: the live segment list in FIFO order. Dequeues start at
    /// `head_index` and advance locally as segments drain (a sealed,
    /// empty segment answers `StaleMetadata`); enqueues go to the last
    /// segment.
    Queue {
        /// Live segments, oldest first.
        segments: Vec<BlockLocation>,
        /// Index of the current head segment within `segments`.
        head_index: u32,
    },
    /// KV-store: hash-slot ranges to blocks.
    Kv {
        /// Total number of hash slots (paper default 1024).
        num_slots: u32,
        /// Disjoint slot ranges covering `[0, num_slots)`.
        slots: Vec<SlotRange>,
    },
}

impl PartitionView {
    /// All distinct block locations referenced by this view (a KV block
    /// owning several slot ranges appears once).
    pub fn blocks(&self) -> Vec<&BlockLocation> {
        let all: Vec<&BlockLocation> = match self {
            Self::File { blocks, .. } => blocks.iter().collect(),
            Self::Queue { segments, .. } => segments.iter().collect(),
            Self::Kv { slots, .. } => slots.iter().map(|s| &s.location).collect(),
        };
        let mut out: Vec<&BlockLocation> = Vec::with_capacity(all.len());
        for loc in all {
            if !out.iter().any(|l| l.id() == loc.id()) {
                out.push(loc);
            }
        }
        out
    }
}

/// Everything a client learns when resolving an address prefix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrefixView {
    /// Node name within the job's hierarchy.
    pub name: String,
    /// Data structure bound to this prefix, if any.
    pub ds: Option<DsType>,
    /// Partition layout, present iff a data structure is bound.
    pub partition: Option<PartitionView>,
    /// Lease duration in microseconds.
    pub lease_duration_micros: u64,
    /// Parent node names (a node may have several — the DAG).
    pub parents: Vec<String>,
    /// Child node names.
    pub children: Vec<String>,
    /// Metadata version; bumps on every repartition so clients can detect
    /// staleness.
    pub version: u64,
}

/// Specification of one node when creating a whole hierarchy from a DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagNodeSpec {
    /// Node name (unique within the job).
    pub name: String,
    /// Parent node names; empty means the node hangs off the job root.
    pub parents: Vec<String>,
    /// Data structure to bind, if any.
    pub ds: Option<DsType>,
    /// Blocks to pre-allocate (0 = allocate lazily on first write).
    pub initial_blocks: u32,
}

/// Operation kinds that can be subscribed to for notifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// File append/write.
    Write,
    /// Queue enqueue.
    Enqueue,
    /// Queue dequeue.
    Dequeue,
    /// KV put.
    Put,
    /// KV delete.
    Delete,
}

/// Asynchronous notification pushed to subscribers (paper §4.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Notification {
    /// Block on which the operation happened.
    pub block: BlockId,
    /// What happened.
    pub op: OpKind,
    /// Size of the payload involved, in bytes.
    pub size: u64,
    /// Server-assigned sequence number (per block, monotonically
    /// increasing).
    pub seq: u64,
}

/// How an overloaded block should split its contents into a newly
/// allocated block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SplitSpec {
    /// File: the new block becomes chunk `chunk_index`; no data moves
    /// (files are append-only, §5.1).
    FileAppend {
        /// Index of the new chunk in the file's block list.
        chunk_index: u64,
    },
    /// Queue: the new block is linked as the new tail; no data moves.
    QueueLink,
    /// KV: move hash slots `[lo, hi]` (inclusive) to the new block.
    KvSlots {
        /// First slot to move.
        lo: u32,
        /// Last slot to move.
        hi: u32,
    },
}

/// How an underloaded block merges into a sibling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MergeSpec {
    /// Queue: the drained head block unlinks itself.
    QueueUnlink,
    /// KV: move all resident pairs into the target block, which absorbs
    /// the source's slot range.
    KvAbsorb,
}

/// Requests handled by the controller (control plane, paper §4.2.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControlRequest {
    /// Register a job; returns a fresh [`JobId`] and creates its hierarchy
    /// root.
    RegisterJob {
        /// Human-readable job name (for observability only).
        name: String,
    },
    /// Deregister a job, releasing all its blocks immediately.
    DeregisterJob {
        /// Job to remove.
        job: JobId,
    },
    /// Create one address prefix (paper `createAddrPrefix`).
    CreatePrefix {
        /// Owning job.
        job: JobId,
        /// New node name.
        name: String,
        /// Parent node names (empty = child of the job root).
        parents: Vec<String>,
        /// Data structure to bind, if any.
        ds: Option<DsType>,
        /// Blocks to pre-allocate.
        initial_blocks: u32,
    },
    /// Add an extra parent edge to an existing node (blocks gain an extra
    /// address, like a hard link).
    AddParent {
        /// Owning job.
        job: JobId,
        /// Existing node.
        name: String,
        /// Additional parent node.
        parent: String,
    },
    /// Create a whole hierarchy from a DAG (paper `createHierarchy`).
    CreateHierarchy {
        /// Owning job.
        job: JobId,
        /// Topologically-ordered node specs.
        nodes: Vec<DagNodeSpec>,
    },
    /// Remove a prefix and reclaim its blocks (explicit reclamation).
    RemovePrefix {
        /// Owning job.
        job: JobId,
        /// Node to remove.
        name: String,
    },
    /// Address translation: resolve a prefix to its partition metadata.
    ResolvePrefix {
        /// Owning job.
        job: JobId,
        /// Node to resolve.
        name: String,
    },
    /// Renew the lease on a prefix; propagates through the DAG (§3.2).
    RenewLease {
        /// Owning job.
        job: JobId,
        /// Node whose lease is renewed.
        name: String,
    },
    /// Query the configured lease duration for a prefix.
    GetLeaseDuration {
        /// Owning job.
        job: JobId,
        /// Node to query.
        name: String,
    },
    /// Synchronously flush a prefix's data to the persistent tier.
    FlushPrefix {
        /// Owning job.
        job: JobId,
        /// Node to flush.
        name: String,
        /// External object path (e.g. `s3://bucket/key`).
        external_path: String,
    },
    /// Load a prefix's data back from the persistent tier.
    LoadPrefix {
        /// Owning job.
        job: JobId,
        /// Node to load into.
        name: String,
        /// External object path.
        external_path: String,
    },
    /// A memory server joins the cluster, contributing blocks.
    JoinServer {
        /// Transport address clients should use.
        addr: String,
        /// Number of blocks the server hosts.
        capacity_blocks: u32,
    },
    /// A memory server leaves the cluster: the controller drains every
    /// live block off it (migrating them to the remaining servers) and
    /// then removes it from the membership table. Its `ServerId` is
    /// never re-issued.
    LeaveServer {
        /// Departing server.
        server: ServerId,
    },
    /// Periodic server → controller liveness beacon carrying the
    /// server's block occupancy. The controller's failure detector marks
    /// a server dead once `heartbeat_timeout` passes without one.
    Heartbeat {
        /// Reporting server.
        server: ServerId,
        /// Blocks currently allocated to a data structure.
        used_blocks: u32,
        /// Blocks currently free.
        free_blocks: u32,
        /// Per-tenant admission-control load observed by this server
        /// since start (DESIGN.md §14). Empty when QoS is disabled.
        tenant_loads: Vec<TenantLoad>,
    },
    /// List the membership table (observability, benchmarks, tests).
    ListServers,
    /// Data plane → controller: a block crossed the high threshold
    /// (paper Fig. 8, step 1).
    ReportOverload {
        /// The overloaded block.
        block: BlockId,
        /// Bytes currently used in the block.
        used: u64,
    },
    /// Data plane → controller: a block fell below the low threshold.
    ReportUnderload {
        /// The underloaded block.
        block: BlockId,
        /// Bytes currently used in the block.
        used: u64,
    },
    /// Data plane → controller: a repartition finished; commit the new
    /// partition map version.
    CommitRepartition {
        /// Source block of the split/merge.
        block: BlockId,
        /// Whether the new layout should be committed (false aborts, e.g.
        /// if the split raced with a delete).
        commit: bool,
    },
    /// Controller statistics snapshot (free blocks, jobs, ops served).
    GetStats,
    /// List all prefixes of a job (debugging/tests).
    ListPrefixes {
        /// Job to list.
        job: JobId,
    },
    /// Read-only per-tenant QoS counters (shares, quotas, allocated
    /// memory, admission stats aggregated across servers). Appended last
    /// to keep wire variant indices stable.
    TenantStats,
    /// Configure a tenant's QoS parameters at runtime: weighted-fair
    /// share, memory quota and data-plane rate limits. Journaled before
    /// ack so the configuration survives controller crashes.
    SetTenantShare {
        /// Tenant being configured.
        tenant: TenantId,
        /// Weighted-fair share (≥ 1) used for max-min arbitration of
        /// contested block allocations under memory pressure.
        share: u32,
        /// Hard memory quota in bytes (0 = unlimited).
        quota_bytes: u64,
        /// Data-plane op rate limit per second (0 = unlimited).
        ops_per_sec: u64,
        /// Data-plane byte rate limit per second (0 = unlimited).
        bytes_per_sec: u64,
    },
    /// Shard router → controller shard: adopt a job that was registered
    /// (and id-minted) on another shard, so every shard can own prefixes
    /// of the job. Journaled before ack like `RegisterJob`. Idempotent:
    /// adopting an already-known job with the same name is a no-op.
    /// (Appended last to keep wire variant indices stable.)
    AdoptJob {
        /// The job id minted by the registering shard.
        job: JobId,
        /// Client-supplied job name.
        name: String,
    },
}

/// The static shard map of a sharded control plane: how many controller
/// shards exist, and (via [`ShardMap::shard_of_path`]) which shard owns
/// a given `(job, path)`. Routing hashes the *root component* of a
/// dotted path with FNV-1a, so every path below one hierarchy root —
/// the lease root and all the blocks hanging off it — lands on the same
/// shard, and routing is a pure function of the map: deterministic
/// across process restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMap {
    /// Number of controller shards (≥ 1).
    pub num_shards: u32,
}

impl ShardMap {
    /// The first (root) component of a dotted hierarchy path.
    pub fn root_component(path: &str) -> &str {
        path.split('.').next().unwrap_or(path)
    }

    /// The shard owning hierarchy root `root` of `job`. FNV-1a over the
    /// job id (little-endian) and the root name — stable across
    /// processes and restarts, unlike `RandomState` hashing.
    pub fn shard_of_root(&self, job: JobId, root: &str) -> u32 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for b in job.raw().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        for b in root.as_bytes() {
            h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
        }
        (h % u64::from(self.num_shards.max(1))) as u32
    }

    /// The shard owning `path` of `job`, assuming the path's root
    /// component is itself a hierarchy root. Bare node names below a
    /// root are routed by the shard router's root table instead (the
    /// node co-locates with its root by construction).
    pub fn shard_of_path(&self, job: JobId, path: &str) -> u32 {
        self.shard_of_root(job, Self::root_component(path))
    }

    /// The shard owning a server id (shards mint strided server ids:
    /// shard `i` issues ids ≡ `i` mod `num_shards`).
    pub fn shard_of_server(&self, server: ServerId) -> u32 {
        (server.raw() % u64::from(self.num_shards.max(1))) as u32
    }

    /// The shard owning a block id (same striding as server ids).
    pub fn shard_of_block(&self, block: BlockId) -> u32 {
        (block.raw() % u64::from(self.num_shards.max(1))) as u32
    }
}

/// Controller statistics snapshot.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ControllerStats {
    /// Blocks not currently allocated to any prefix.
    pub free_blocks: u64,
    /// Total blocks registered across all memory servers.
    pub total_blocks: u64,
    /// Registered jobs.
    pub jobs: u64,
    /// Total address-hierarchy nodes across jobs.
    pub prefixes: u64,
    /// Control operations served since start.
    pub ops_served: u64,
    /// Leases expired (prefixes reclaimed) since start.
    pub leases_expired: u64,
    /// Splits initiated since start.
    pub splits: u64,
    /// Merges initiated since start.
    pub merges: u64,
    /// Approximate metadata bytes held by the controller.
    pub metadata_bytes: u64,
    /// Alive (non-draining, non-dead) memory servers in the pool.
    pub servers: u64,
    /// Servers the failure detector has declared dead since start.
    pub servers_failed: u64,
    /// Live blocks migrated between servers since start (drain + rebuild).
    pub blocks_migrated: u64,
    /// Autoscaler scale-up events since start.
    pub scale_ups: u64,
    /// Autoscaler scale-down events since start.
    pub scale_downs: u64,
}

/// One row of the controller's membership table (`ListServers`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerInfo {
    /// Server ID (never re-issued, even after the server departs).
    pub server: ServerId,
    /// Transport address.
    pub addr: String,
    /// Membership state: `"alive"`, `"draining"` or `"dead"`.
    pub state: String,
    /// Total blocks the server contributed.
    pub total_blocks: u32,
    /// Blocks currently allocated to a data structure.
    pub used_blocks: u32,
    /// Blocks currently free.
    pub free_blocks: u32,
}

/// A tenant's configured QoS parameters, pushed from the controller to
/// the memory servers in heartbeat acknowledgements so the data-plane
/// admission controller enforces the current limits (DESIGN.md §14).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantLimit {
    /// The tenant.
    pub tenant: TenantId,
    /// Weighted-fair share (≥ 1).
    pub share: u32,
    /// Hard memory quota in bytes (0 = unlimited).
    pub quota_bytes: u64,
    /// Data-plane op rate limit per second (0 = unlimited).
    pub ops_per_sec: u64,
    /// Data-plane byte rate limit per second (0 = unlimited).
    pub bytes_per_sec: u64,
}

/// Per-tenant data-plane load counters, reported by each memory server
/// in its heartbeat. Counters are cumulative since server start; the
/// controller sums them across servers for `TenantStats`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantLoad {
    /// The tenant.
    pub tenant: TenantId,
    /// Data-plane requests admitted.
    pub ops_admitted: u64,
    /// Data-plane requests rejected with `Throttled`.
    pub ops_throttled: u64,
    /// Request payload bytes admitted (ingress).
    pub bytes_in: u64,
    /// Response payload bytes charged (egress).
    pub bytes_out: u64,
    /// Exponentially-weighted moving average of the tenant's op rate,
    /// in ops per second (τ ≈ 1 s).
    pub op_rate_ewma: f64,
}

/// One row of the controller's per-tenant accounting view
/// (`TenantStats`): configuration joined with memory usage and the
/// data-plane load summed across all reporting servers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantStatsEntry {
    /// The tenant.
    pub tenant: TenantId,
    /// Weighted-fair share (≥ 1).
    pub share: u32,
    /// Hard memory quota in bytes (0 = unlimited).
    pub quota_bytes: u64,
    /// Blocks currently allocated to this tenant's jobs.
    pub allocated_blocks: u64,
    /// Bytes of block capacity currently allocated to this tenant.
    pub allocated_bytes: u64,
    /// Data-plane requests admitted (summed across servers).
    pub ops_admitted: u64,
    /// Data-plane requests throttled (summed across servers).
    pub ops_throttled: u64,
    /// Ingress payload bytes (summed across servers).
    pub bytes_in: u64,
    /// Egress payload bytes (summed across servers).
    pub bytes_out: u64,
    /// Op-rate EWMA summed across servers (ops/s).
    pub op_rate_ewma: f64,
}

/// Responses from the controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControlResponse {
    /// Generic success.
    Ack,
    /// Job registered.
    JobRegistered {
        /// The new job's ID.
        job: JobId,
    },
    /// Prefix created (also returned per-node by `CreateHierarchy`).
    PrefixCreated {
        /// Name of the created node.
        name: String,
    },
    /// Result of `ResolvePrefix`.
    Resolved(PrefixView),
    /// Result of `RenewLease`: which prefixes were renewed (the requested
    /// one, its ancestors and its descendants).
    LeaseRenewed {
        /// All node names whose lease timestamps were refreshed.
        renewed: Vec<String>,
        /// Lease duration in microseconds.
        lease_duration_micros: u64,
    },
    /// Result of `GetLeaseDuration`.
    LeaseDuration {
        /// Lease duration in microseconds.
        micros: u64,
    },
    /// Result of `JoinServer`.
    ServerJoined {
        /// Assigned server ID.
        server: ServerId,
        /// Block IDs the server will host.
        blocks: Vec<BlockId>,
    },
    /// Result of `ReportOverload`: where to split to (paper Fig. 8,
    /// steps 2–3). `None` when no free block is available — the block
    /// must keep serving and spill will be handled by the tier above.
    SplitTarget {
        /// Newly allocated block, if any.
        target: Option<BlockLocation>,
        /// How to split, if a target was allocated.
        spec: Option<SplitSpec>,
    },
    /// Result of `ReportUnderload`. `None` when no merge is advisable.
    MergeTarget {
        /// Sibling block to merge into, if any.
        target: Option<BlockLocation>,
        /// How to merge, if a target was chosen.
        spec: Option<MergeSpec>,
    },
    /// Result of `FlushPrefix`/`LoadPrefix`.
    Persisted {
        /// Bytes moved.
        bytes: u64,
    },
    /// Result of `GetStats`.
    Stats(ControllerStats),
    /// Result of `ListPrefixes`.
    Prefixes(Vec<String>),
    /// Result of `LeaveServer`: the drain finished and the server was
    /// removed from the membership table.
    Drained {
        /// The departed server.
        server: ServerId,
        /// Live blocks migrated off it during the drain.
        blocks_migrated: u32,
    },
    /// Result of `ListServers`.
    Servers(Vec<ServerInfo>),
    /// Result of `TenantStats`: one entry per known tenant, sorted by
    /// tenant id. (Appended last to keep wire variant indices stable.)
    TenantStatsReport(Vec<TenantStatsEntry>),
    /// Result of `Heartbeat`: carries the current tenant limit table so
    /// servers converge on configuration changes within one heartbeat
    /// interval. Empty when QoS is disabled.
    HeartbeatAck {
        /// The controller's current per-tenant limits.
        limits: Vec<TenantLimit>,
    },
    /// The request spans controller shards and must be orchestrated by
    /// the client (e.g. a `CreateHierarchy` whose roots hash to
    /// different shards: the client re-issues one shard-local request
    /// per root group). (Appended last to keep wire variant indices
    /// stable.)
    CrossShard {
        /// Shard owning the first node of the request, for diagnostics.
        owner_shard: u32,
        /// The router's static shard map, so the client can group the
        /// request's nodes by owning shard itself.
        map: ShardMap,
    },
}

/// Data-structure operations executed on a block (paper Fig. 6: the
/// internal block API — `writeOp`, `readOp`, `deleteOp` per structure).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DsOp {
    /// File write at an absolute offset (append-only semantics are
    /// enforced at the file level; the block validates its chunk range).
    FileWrite {
        /// Offset *within this chunk*.
        offset: u64,
        /// Data to write.
        data: Blob,
    },
    /// File append at the current end of this chunk (serialized by the
    /// block, so concurrent appenders from different tasks interleave
    /// whole items — the shuffle-file write mode of §5.1). Fails with
    /// `BlockFull` without partial effect when the chunk cannot hold the
    /// payload.
    FileAppend {
        /// Data to append.
        data: Blob,
    },
    /// File read of `len` bytes at a chunk-relative offset.
    FileRead {
        /// Offset within this chunk.
        offset: u64,
        /// Bytes to read.
        len: u64,
    },
    /// Current size of the chunk in bytes.
    FileSize,
    /// Queue enqueue at the tail block.
    Enqueue {
        /// Item payload.
        item: Blob,
    },
    /// Queue dequeue at the head block.
    Dequeue,
    /// Read the head item without removing it.
    Peek,
    /// Number of items resident in this queue segment.
    QueueLen,
    /// KV put.
    Put {
        /// Key bytes.
        key: Blob,
        /// Value bytes.
        value: Blob,
    },
    /// KV get.
    Get {
        /// Key bytes.
        key: Blob,
    },
    /// KV delete.
    Delete {
        /// Key bytes.
        key: Blob,
    },
    /// KV existence check.
    Exists {
        /// Key bytes.
        key: Blob,
    },
    /// Number of pairs resident in this KV partition block.
    KvCount,
    /// Escape hatch for custom data structures registered on the server.
    Custom {
        /// Registered structure name.
        ds: String,
        /// Operator name.
        op: String,
        /// Opaque operator payload.
        payload: Blob,
    },
}

impl DsOp {
    /// The subscription kind this op triggers, if it is a mutation.
    pub fn kind(&self) -> Option<OpKind> {
        match self {
            Self::FileWrite { .. } | Self::FileAppend { .. } => Some(OpKind::Write),
            Self::Enqueue { .. } => Some(OpKind::Enqueue),
            Self::Dequeue => Some(OpKind::Dequeue),
            Self::Put { .. } => Some(OpKind::Put),
            Self::Delete { .. } => Some(OpKind::Delete),
            _ => None,
        }
    }

    /// Payload bytes this op carries *into* the server — what per-tenant
    /// admission control charges against the ingress byte budget.
    pub fn ingress_bytes(&self) -> u64 {
        match self {
            Self::FileWrite { data, .. } | Self::FileAppend { data } => data.len() as u64,
            Self::Enqueue { item } => item.len() as u64,
            Self::Put { key, value } => (key.len() + value.len()) as u64,
            Self::Get { key } | Self::Delete { key } | Self::Exists { key } => key.len() as u64,
            Self::Custom { payload, .. } => payload.len() as u64,
            Self::FileRead { .. }
            | Self::FileSize
            | Self::Dequeue
            | Self::Peek
            | Self::QueueLen
            | Self::KvCount => 0,
        }
    }
}

/// Result of a [`DsOp`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DsResult {
    /// Operation succeeded with nothing to return.
    Ok,
    /// Bytes read / peeked / got.
    Data(Blob),
    /// Optional payload (dequeue/get on empty/missing returns `None`).
    MaybeData(Option<Blob>),
    /// A size or count.
    Size(u64),
    /// A boolean (e.g. `Exists`).
    Bool(bool),
    /// Previous value replaced by a `Put`, if any.
    Replaced(Option<Blob>),
}

impl DsResult {
    /// Payload bytes this result carries back *out of* the server — what
    /// per-tenant egress accounting charges after execution.
    pub fn egress_bytes(&self) -> u64 {
        match self {
            Self::Data(b) => b.len() as u64,
            Self::MaybeData(b) | Self::Replaced(b) => b.as_ref().map_or(0, |b| b.len() as u64),
            Self::Ok | Self::Size(_) | Self::Bool(_) => 0,
        }
    }
}

/// Requests handled by a memory server (data plane, paper §4.2.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DataRequest {
    /// Execute a data-structure operator on a block: [`Self::Replicate`]
    /// with no downstream and the envelope id as `rid`. What clients
    /// send for reads.
    Op {
        /// Target block.
        block: BlockId,
        /// The operator.
        op: DsOp,
    },
    /// Subscribe the requesting session to notifications on a block.
    Subscribe {
        /// Target block.
        block: BlockId,
        /// Operation kinds of interest.
        ops: Vec<OpKind>,
    },
    /// Remove subscriptions for the requesting session.
    Unsubscribe {
        /// Target block.
        block: BlockId,
        /// Operation kinds to remove.
        ops: Vec<OpKind>,
    },
    /// Usage query (bytes used / capacity).
    Usage {
        /// Target block.
        block: BlockId,
    },
    /// Server→server: install a repartition payload into a block
    /// (paper Fig. 8, step 4).
    ImportPayload {
        /// Receiving block.
        block: BlockId,
        /// Serialized partition content (data-structure specific).
        payload: Blob,
        /// Serialized replay window of the source block (empty when the
        /// payload comes from the persistent tier, whose images predate
        /// any retry window). Shipped alongside the data so a block that
        /// migrates or splits keeps answering retries of ops it already
        /// executed. (Appended last for positional-serde compat.)
        replay: Blob,
    },
    /// Server→server (and client→head): chain replication — apply `op`
    /// to this replica's block and forward down the remaining chain.
    /// The op is acknowledged only once the tail has applied it. Every
    /// client write travels this way; an unreplicated block is a chain
    /// of length 1 (`downstream` empty).
    Replicate {
        /// Target block on this replica.
        block: BlockId,
        /// The mutation to apply.
        op: DsOp,
        /// The remaining downstream replicas, in chain order.
        downstream: Vec<Replica>,
        /// Originating client request id, fanned down unchanged so every
        /// replica records the same `(rid → result)` replay-window entry
        /// and any of them — including a freshly promoted head — can
        /// answer a retry without re-executing. [`INTERNAL_RID`] opts
        /// out of replay tracking. (Appended last for positional-serde
        /// compat.)
        rid: u64,
    },
    /// Controller→server: split part of `block`'s contents out according
    /// to `spec`, delivering the extracted payload to `target` (paper
    /// Fig. 8, step 4). `target` is `None` for metadata-only splits
    /// (file-append, queue-link) where no data moves.
    SplitBlock {
        /// Source (overloaded) block.
        block: BlockId,
        /// What to extract.
        spec: SplitSpec,
        /// Where to send the extracted payload.
        target: Option<BlockLocation>,
    },
    /// Controller→server: move all of `block`'s contents into `target`
    /// (scale-down merge). `target` is `None` for queue-segment unlinks,
    /// which require the segment to already be drained.
    MergeBlock {
        /// Source (underloaded) block.
        block: BlockId,
        /// How to merge.
        spec: MergeSpec,
        /// Receiving sibling block.
        target: Option<BlockLocation>,
    },
    /// Controller→server: initialize a block as a partition of the
    /// named data structure (a built-in `DsType` display name, or a
    /// custom structure registered on the server).
    InitBlock {
        /// Target block.
        block: BlockId,
        /// Registered structure name (`file`, `queue`, `kv_store`, or a
        /// custom name).
        ds: String,
        /// Structure-specific parameters (e.g. KV slot range), wire-coded.
        params: Blob,
    },
    /// Controller→server: reset a block to the free state, dropping data.
    ResetBlock {
        /// Target block.
        block: BlockId,
    },
    /// Controller→server: serialize the block's contents for flushing to
    /// the persistent tier.
    ExportBlock {
        /// Target block.
        block: BlockId,
    },
    /// Controller→server: seal or unseal a block for live migration.
    /// Sealed blocks reject mutating ops with `StaleMetadata` (reads
    /// still serve) so the migration ships a frozen image while clients
    /// keep reading — the §3.3 ops-during-repartition discipline applied
    /// to whole-block moves.
    SealBlock {
        /// Target block.
        block: BlockId,
        /// True to seal, false to unseal.
        sealed: bool,
    },
    /// Controller→source server, final step of a live migration: drop
    /// the block's data and leave a redirect tombstone pointing at the
    /// block's new home. Ops hitting the tombstone get `BlockMoved`
    /// (with the new location) until the block is reused.
    RetireBlock {
        /// The migrated-away block.
        block: BlockId,
        /// Head replica of the block's new home.
        moved_to: Replica,
    },
    /// Health check / round-trip measurement.
    Ping,
    /// Several data-structure operators executed against one block as a
    /// single request: one envelope and one block lock acquisition for
    /// the whole run (fast-path batching, paper §4.2.2). Ops run in
    /// order and execution stops at the first failing op;
    /// [`DataResponse::Batch`] carries one entry per *attempted* op so
    /// partial failure stays visible and ops after the failure are known
    /// to be unexecuted.
    ///
    /// New variant appended last: the wire format encodes enums by
    /// variant index, so earlier indices must stay stable.
    Batch {
        /// Target block — a batch addresses exactly one block; clients
        /// group ops by resolved block.
        block: BlockId,
        /// The operators, executed in order.
        ops: Vec<DsOp>,
        /// Per-op originating request ids (empty for read-only batches,
        /// which skip replay tracking; otherwise one id per op). Ids are
        /// per *op*, not per batch, because retries may regroup pending
        /// ops into different batches after a split or re-route — each
        /// op's replay-window entry must survive regrouping. (Appended
        /// last for positional-serde compat.)
        rids: Vec<u64>,
    },
    /// Server→server (and client→head): chain-replicated batch — the
    /// multi-op analogue of [`DataRequest::Replicate`]. Ops run in order
    /// under one block-lock acquisition with stop-at-first-error prefix
    /// semantics; the successfully executed prefix is fanned down the
    /// remaining chain together with its per-op rids so every replica
    /// records the same replay-window entries. (New variant appended
    /// last: the wire format encodes enums by variant index.)
    ReplicateBatch {
        /// Target block on this replica.
        block: BlockId,
        /// The mutations to apply, in order.
        ops: Vec<DsOp>,
        /// The remaining downstream replicas, in chain order.
        downstream: Vec<Replica>,
        /// Per-op originating request ids (one per op).
        rids: Vec<u64>,
    },
}

/// Responses from a memory server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DataResponse {
    /// Result of `Op` (and of `Replicate` at the chain head).
    OpResult(DsResult),
    /// Generic success.
    Ack,
    /// Result of `Usage`.
    Usage {
        /// Bytes used.
        used: u64,
        /// Block capacity in bytes.
        capacity: u64,
    },
    /// Result of `ExportBlock`.
    Exported {
        /// Serialized block contents.
        payload: Blob,
        /// Serialized replay window of the block, captured under the
        /// same lock as the payload so the pair is a consistent
        /// snapshot. Migrations re-import it at the destination; flushes
        /// to the persistent tier drop it (a reloaded block predates any
        /// retry window). (Appended last for positional-serde compat.)
        replay: Blob,
    },
    /// Reply to `Ping`.
    Pong,
    /// Result of [`DataRequest::Batch`]: one entry per attempted op, in
    /// request order. The server stops at the first failing op, so the
    /// vector is a prefix of the request's ops — every entry before the
    /// last is `Ok`, and ops past the vector's length were never
    /// attempted. (Appended last to keep wire variant indices stable.)
    Batch(Vec<Result<DsResult, JiffyError>>),
}

/// Top-level envelope multiplexing concurrent requests on one connection.
///
/// `id` correlates a response with its request; server pushes
/// (notifications) use the reserved id 0 and the `Push` variant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Envelope {
    /// A control-plane request.
    ControlReq {
        /// Correlation id (client-assigned, non-zero).
        id: u64,
        /// The request.
        req: ControlRequest,
        /// Tenant on whose behalf the request is issued
        /// ([`TenantId::ANONYMOUS`] for internal/unattributed traffic).
        /// Appended last within the variant so the positional wire
        /// layout of the preceding fields is unchanged.
        tenant: TenantId,
    },
    /// A control-plane response.
    ControlResp {
        /// Correlation id echoed from the request.
        id: u64,
        /// The outcome.
        resp: Result<ControlResponse, JiffyError>,
        /// The control plane's metadata view epoch at response time.
        /// Bumped whenever block placement changes (splits, merges,
        /// drains, failure re-routing, reclaims, recovery); clients
        /// invalidate cached resolve views whose fill epoch is older.
        /// Appended last within the variant so the positional wire
        /// layout of the preceding fields is unchanged.
        epoch: u64,
    },
    /// A data-plane request.
    DataReq {
        /// Correlation id (client-assigned, non-zero).
        id: u64,
        /// The request.
        req: DataRequest,
        /// Tenant on whose behalf the request is issued
        /// ([`TenantId::ANONYMOUS`] for internal/unattributed traffic).
        tenant: TenantId,
    },
    /// A data-plane response.
    DataResp {
        /// Correlation id echoed from the request.
        id: u64,
        /// The outcome.
        resp: Result<DataResponse, JiffyError>,
    },
    /// Server-initiated notification push.
    Push(Notification),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{from_bytes, to_bytes};

    fn rt(e: Envelope) {
        let bytes = to_bytes(&e).unwrap();
        let back: Envelope = from_bytes(&bytes).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn control_messages_round_trip() {
        rt(Envelope::ControlReq {
            id: 1,
            req: ControlRequest::RegisterJob {
                name: "wordcount".into(),
            },
            tenant: TenantId(4),
        });
        rt(Envelope::ControlResp {
            id: 1,
            resp: Ok(ControlResponse::JobRegistered { job: JobId(7) }),
            epoch: 3,
        });
        rt(Envelope::ControlReq {
            id: 2,
            tenant: TenantId::ANONYMOUS,
            req: ControlRequest::CreateHierarchy {
                job: JobId(7),
                nodes: vec![DagNodeSpec {
                    name: "t1".into(),
                    parents: vec![],
                    ds: Some(DsType::KvStore),
                    initial_blocks: 2,
                }],
            },
        });
        rt(Envelope::ControlResp {
            id: 3,
            resp: Err(JiffyError::PathNotFound("t9".into())),
            epoch: 0,
        });
    }

    #[test]
    fn data_messages_round_trip() {
        rt(Envelope::DataReq {
            id: 4,
            tenant: TenantId(2),
            req: DataRequest::Op {
                block: BlockId(3),
                op: DsOp::Put {
                    key: "k".into(),
                    value: vec![0u8; 1024].into(),
                },
            },
        });
        rt(Envelope::DataResp {
            id: 4,
            resp: Ok(DataResponse::OpResult(DsResult::MaybeData(Some(
                "v".into(),
            )))),
        });
        rt(Envelope::Push(Notification {
            block: BlockId(3),
            op: OpKind::Put,
            size: 1024,
            seq: 99,
        }));
    }

    #[test]
    fn batch_messages_round_trip() {
        rt(Envelope::DataReq {
            id: 5,
            tenant: TenantId(1),
            req: DataRequest::Batch {
                block: BlockId(3),
                ops: vec![
                    DsOp::Put {
                        key: "a".into(),
                        value: "1".into(),
                    },
                    DsOp::Get { key: "a".into() },
                    DsOp::Enqueue {
                        item: vec![0u8; 256].into(),
                    },
                ],
                rids: vec![CLIENT_RID_BASE + 1, 0, CLIENT_RID_BASE + 2],
            },
        });
        rt(Envelope::DataResp {
            id: 5,
            resp: Ok(DataResponse::Batch(vec![
                Ok(DsResult::Replaced(None)),
                Ok(DsResult::MaybeData(Some("1".into()))),
                Err(JiffyError::BlockFull {
                    capacity: 64,
                    requested: 256,
                }),
            ])),
        });
        rt(Envelope::DataReq {
            id: 6,
            tenant: TenantId::ANONYMOUS,
            req: DataRequest::Batch {
                block: BlockId(0),
                ops: vec![],
                rids: vec![],
            },
        });
        rt(Envelope::DataReq {
            id: 7,
            tenant: TenantId(1),
            req: DataRequest::ReplicateBatch {
                block: BlockId(2),
                ops: vec![DsOp::Enqueue { item: "x".into() }],
                downstream: vec![Replica {
                    block: BlockId(5),
                    server: ServerId(1),
                    addr: "inproc:1".into(),
                }],
                rids: vec![CLIENT_RID_BASE + 3],
            },
        });
    }

    #[test]
    fn batch_variants_are_appended_last_on_the_wire() {
        // The wire format encodes enums as a u32 variant index, so the
        // new Batch variants must sit after every pre-existing variant:
        // Ping is index 13 (14th variant) and Pong index 4 (5th), which
        // pins Batch to 14 and 5 respectively.
        assert_eq!(to_bytes(&DataRequest::Ping).unwrap(), 13u32.to_le_bytes());
        let req = to_bytes(&DataRequest::Batch {
            block: BlockId(1),
            ops: vec![],
            rids: vec![],
        })
        .unwrap();
        assert_eq!(&req[..4], 14u32.to_le_bytes());
        assert_eq!(to_bytes(&DataResponse::Pong).unwrap(), 4u32.to_le_bytes());
        let resp = to_bytes(&DataResponse::Batch(vec![])).unwrap();
        assert_eq!(&resp[..4], 5u32.to_le_bytes());
    }

    #[test]
    fn replay_window_fields_are_appended_last_on_the_wire() {
        // ReplicateBatch is new in PR 10 and must sit after every
        // pre-existing variant: Batch is index 14, pinning
        // ReplicateBatch to 15.
        let req = to_bytes(&DataRequest::ReplicateBatch {
            block: BlockId(1),
            ops: vec![],
            downstream: vec![],
            rids: vec![],
        })
        .unwrap();
        assert_eq!(&req[..4], 15u32.to_le_bytes());
        // The rid rides at the END of Replicate, after the pre-existing
        // block/op/downstream fields, so their positional layout is
        // unchanged.
        let rep = to_bytes(&DataRequest::Replicate {
            block: BlockId(1),
            op: DsOp::Dequeue,
            downstream: vec![],
            rid: 0xAB,
        })
        .unwrap();
        assert_eq!(&rep[rep.len() - 8..], 0xABu64.to_le_bytes());
        // Batch rids and the Exported/ImportPayload replay blobs are
        // likewise appended last.
        let batch = to_bytes(&DataRequest::Batch {
            block: BlockId(1),
            ops: vec![],
            rids: vec![7],
        })
        .unwrap();
        assert_eq!(&batch[batch.len() - 8..], 7u64.to_le_bytes());
        let exported = to_bytes(&DataResponse::Exported {
            payload: Blob::new(vec![1, 2]),
            replay: Blob::new(vec![9]),
        })
        .unwrap();
        // Trailing blob: 4-byte length prefix + the single replay byte.
        assert_eq!(&exported[exported.len() - 5..], &[1, 0, 0, 0, 9]);
        let import = to_bytes(&DataRequest::ImportPayload {
            block: BlockId(1),
            payload: Blob::new(vec![1, 2]),
            replay: Blob::new(vec![9]),
        })
        .unwrap();
        assert_eq!(&import[import.len() - 5..], &[1, 0, 0, 0, 9]);
    }

    #[test]
    fn sharding_variants_are_appended_last_on_the_wire() {
        // The wire format encodes enums as a u32 variant index, so the
        // PR-9 sharding additions must sit after every pre-existing
        // variant: SetTenantShare is index 21 (22nd variant), pinning
        // AdoptJob to 22; HeartbeatAck is index 15, pinning CrossShard
        // to 16.
        let adopt = to_bytes(&ControlRequest::AdoptJob {
            job: JobId(4),
            name: "j".into(),
        })
        .unwrap();
        assert_eq!(&adopt[..4], 22u32.to_le_bytes());
        assert_eq!(
            to_bytes(&ControlRequest::TenantStats).unwrap(),
            20u32.to_le_bytes()
        );
        let hb = to_bytes(&ControlResponse::HeartbeatAck { limits: vec![] }).unwrap();
        assert_eq!(&hb[..4], 15u32.to_le_bytes());
        let cross = to_bytes(&ControlResponse::CrossShard {
            owner_shard: 2,
            map: ShardMap { num_shards: 4 },
        })
        .unwrap();
        assert_eq!(&cross[..4], 16u32.to_le_bytes());
        // The epoch rides at the END of ControlResp, after the resp
        // payload, so the positional layout of id + resp is unchanged.
        let env = to_bytes(&Envelope::ControlResp {
            id: 1,
            resp: Ok(ControlResponse::Ack),
            epoch: 7,
        })
        .unwrap();
        assert_eq!(&env[env.len() - 8..], 7u64.to_le_bytes());
    }

    #[test]
    fn shard_map_routing_is_stable_and_in_range() {
        let map = ShardMap { num_shards: 4 };
        for raw_job in 0..8u64 {
            for root in ["t0", "t1", "alpha", "beta.gamma"] {
                let a = map.shard_of_path(JobId(raw_job), root);
                let b = map.shard_of_path(JobId(raw_job), root);
                assert_eq!(a, b);
                assert!(a < 4);
            }
        }
        // Paths under one root co-locate with the root.
        assert_eq!(
            map.shard_of_path(JobId(3), "t0"),
            map.shard_of_path(JobId(3), "t0.t1.t2")
        );
        // A one-shard map routes everything to shard 0.
        let one = ShardMap { num_shards: 1 };
        assert_eq!(one.shard_of_path(JobId(9), "anything"), 0);
    }

    #[test]
    fn resolved_view_round_trips() {
        let view = PrefixView {
            name: "t4.t6".into(),
            ds: Some(DsType::KvStore),
            partition: Some(PartitionView::Kv {
                num_slots: 1024,
                slots: vec![SlotRange {
                    lo: 0,
                    hi: 1023,
                    location: BlockLocation::single(BlockId(0), ServerId(0), "inproc:0"),
                }],
            }),
            lease_duration_micros: 1_000_000,
            parents: vec!["t4".into()],
            children: vec!["t7".into()],
            version: 3,
        };
        rt(Envelope::ControlResp {
            id: 9,
            resp: Ok(ControlResponse::Resolved(view)),
            epoch: 1,
        });
    }

    #[test]
    fn blob_encodes_compactly() {
        let blob = Blob(vec![7u8; 100]);
        let bytes = to_bytes(&blob).unwrap();
        // 4-byte length prefix + raw payload.
        assert_eq!(bytes.len(), 104);
    }

    #[test]
    fn partition_view_lists_queue_segments() {
        let loc = BlockLocation::single(BlockId(1), ServerId(0), "inproc:0");
        let v = PartitionView::Queue {
            segments: vec![loc.clone()],
            head_index: 0,
        };
        assert_eq!(v.blocks().len(), 1);
        let v2 = PartitionView::Queue {
            segments: vec![
                loc.clone(),
                BlockLocation::single(BlockId(2), ServerId(0), "inproc:0"),
            ],
            head_index: 1,
        };
        assert_eq!(v2.blocks().len(), 2);
        rt(Envelope::ControlResp {
            id: 11,
            epoch: 0,
            resp: Ok(ControlResponse::Resolved(PrefixView {
                name: "q".into(),
                ds: Some(DsType::Queue),
                partition: Some(v2),
                lease_duration_micros: 1_000_000,
                parents: vec![],
                children: vec![],
                version: 1,
            })),
        });
    }

    #[test]
    fn slot_range_contains_is_inclusive() {
        let loc = BlockLocation::single(BlockId(1), ServerId(0), "x");
        let r = SlotRange {
            lo: 10,
            hi: 20,
            location: loc,
        };
        assert!(r.contains(10));
        assert!(r.contains(20));
        assert!(!r.contains(9));
        assert!(!r.contains(21));
    }

    #[test]
    fn ds_op_kinds_classify_mutations() {
        assert_eq!(
            DsOp::FileWrite {
                offset: 0,
                data: "x".into()
            }
            .kind(),
            Some(OpKind::Write)
        );
        assert_eq!(DsOp::Dequeue.kind(), Some(OpKind::Dequeue));
        assert_eq!(DsOp::FileRead { offset: 0, len: 1 }.kind(), None);
        assert_eq!(DsOp::Get { key: "k".into() }.kind(), None);
    }
}
