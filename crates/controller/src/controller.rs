//! The Jiffy controller service (paper Fig. 7).

use jiffy_sync::Arc;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use jiffy_common::clock::SharedClock;
use jiffy_common::id::IdGen;
use jiffy_common::{BlockId, JiffyConfig, JiffyError, JobId, Result, ServerId, TenantId};
use jiffy_elastic::{
    AutoscalerPolicy, FailureDetector, ScaleDecision, ServerProvider, ServerState,
};
use jiffy_persistent::ObjectStore;
use jiffy_proto::{
    Blob, BlockLocation, ControlRequest, ControlResponse, ControllerStats, DagNodeSpec,
    DataRequest, DataResponse, DsType, Envelope, JournalOp, MergeSpec, PrefixView, Replica,
    SplitSpec, TenantLoad, TenantStatsEntry, INTERNAL_RID,
};
use jiffy_qos::{weighted_max_min, TenantDirectory};
use jiffy_rpc::Fabric;
use jiffy_sync::atomic::{AtomicU64, Ordering};
use jiffy_sync::{Mutex, StopSignal};
use serde::{Deserialize, Serialize};

use crate::freelist::FreeList;
use crate::hierarchy::AddressHierarchy;
use crate::journal::{self, Journal, StateMirror};
use crate::meta::{DsMeta, DsSkeleton};

/// Controller-side view of the data plane, so the same control logic
/// runs against real memory servers (RPC), or against nothing at all
/// (controller micro-benchmarks and the discrete-event simulator, which
/// model data movement separately).
pub trait DataPlane: Send + Sync {
    /// Initializes a block (all chain replicas) as a partition.
    ///
    /// # Errors
    ///
    /// Transport or partition-construction failures.
    fn init_block(&self, loc: &BlockLocation, ds: DsType, params: &[u8]) -> Result<()>;

    /// Resets a block (all chain replicas) to the free state.
    ///
    /// # Errors
    ///
    /// Transport failures.
    fn reset_block(&self, loc: &BlockLocation) -> Result<()>;

    /// Exports a block's full contents (tail replica) as
    /// `(payload, replay)`: the partition image plus the block's replay
    /// window, snapshotted under one lock. Migration re-imports both so
    /// a retry that lands at the new home after the move still replays
    /// its cached result; flush discards the replay half (persisted
    /// images predate any retry they could answer).
    ///
    /// # Errors
    ///
    /// Transport failures.
    fn export_block(&self, loc: &BlockLocation) -> Result<(Vec<u8>, Vec<u8>)>;

    /// Imports a payload (and replay-window image, possibly empty) into
    /// a block (every chain replica absorbs).
    ///
    /// # Errors
    ///
    /// Transport failures.
    fn import_payload(&self, loc: &BlockLocation, payload: &[u8], replay: &[u8]) -> Result<()>;

    /// Orders a source block to split per `spec`, shipping extracted data
    /// to `target` (paper Fig. 8 step 4).
    ///
    /// # Errors
    ///
    /// Transport or partition failures.
    fn split_block(
        &self,
        loc: &BlockLocation,
        spec: &SplitSpec,
        target: Option<&BlockLocation>,
    ) -> Result<()>;

    /// Orders a source block to merge all its contents into `target`.
    ///
    /// # Errors
    ///
    /// Transport or partition failures.
    fn merge_block(
        &self,
        loc: &BlockLocation,
        spec: &MergeSpec,
        target: Option<&BlockLocation>,
    ) -> Result<()>;

    /// Reports a block's `(used, capacity)` bytes — consulted when
    /// choosing a merge target with enough headroom.
    ///
    /// # Errors
    ///
    /// Transport failures.
    fn block_usage(&self, loc: &BlockLocation) -> Result<(u64, u64)>;

    /// Seals (or unseals) the blocks of a chain for live migration:
    /// sealed blocks reject mutations with `StaleMetadata` while reads
    /// keep serving, freezing the image the migration copies.
    ///
    /// # Errors
    ///
    /// Transport failures.
    fn seal_block(&self, loc: &BlockLocation, sealed: bool) -> Result<()>;

    /// Retires every replica of a migrated-away chain: each source block
    /// drops its data and keeps a redirect tombstone pointing at
    /// `moved_to` (the new home's head) until the block is reused.
    ///
    /// # Errors
    ///
    /// Transport failures.
    fn retire_block(&self, loc: &BlockLocation, moved_to: &Replica) -> Result<()>;
}

/// A no-op data plane: every operation succeeds and exports are empty.
/// Used by controller micro-benchmarks (Fig. 12) and unit tests where
/// only control-plane state matters.
#[derive(Debug, Default)]
pub struct NoopDataPlane;

impl DataPlane for NoopDataPlane {
    fn init_block(&self, _loc: &BlockLocation, _ds: DsType, _params: &[u8]) -> Result<()> {
        Ok(())
    }

    fn reset_block(&self, _loc: &BlockLocation) -> Result<()> {
        Ok(())
    }

    fn export_block(&self, _loc: &BlockLocation) -> Result<(Vec<u8>, Vec<u8>)> {
        Ok((Vec::new(), Vec::new()))
    }

    fn import_payload(&self, _loc: &BlockLocation, _payload: &[u8], _replay: &[u8]) -> Result<()> {
        Ok(())
    }

    fn split_block(
        &self,
        _loc: &BlockLocation,
        _spec: &SplitSpec,
        _target: Option<&BlockLocation>,
    ) -> Result<()> {
        Ok(())
    }

    fn merge_block(
        &self,
        _loc: &BlockLocation,
        _spec: &MergeSpec,
        _target: Option<&BlockLocation>,
    ) -> Result<()> {
        Ok(())
    }

    fn block_usage(&self, _loc: &BlockLocation) -> Result<(u64, u64)> {
        Ok((0, u64::MAX))
    }

    fn seal_block(&self, _loc: &BlockLocation, _sealed: bool) -> Result<()> {
        Ok(())
    }

    fn retire_block(&self, _loc: &BlockLocation, _moved_to: &Replica) -> Result<()> {
        Ok(())
    }
}

/// RPC-backed data plane talking to real memory servers over a
/// [`Fabric`].
pub struct RpcDataPlane {
    fabric: Fabric,
}

impl RpcDataPlane {
    /// Creates a data-plane handle over the given fabric.
    pub fn new(fabric: Fabric) -> Self {
        Self { fabric }
    }

    fn call(&self, addr: &str, req: DataRequest) -> Result<DataResponse> {
        let conn = self.fabric.connect(addr)?;
        match conn.call(Envelope::DataReq {
            id: INTERNAL_RID,
            req,
            tenant: TenantId::ANONYMOUS,
        })? {
            Envelope::DataResp { resp, .. } => resp,
            other => Err(JiffyError::Rpc(format!(
                "unexpected envelope from data plane: {other:?}"
            ))),
        }
    }
}

impl DataPlane for RpcDataPlane {
    fn init_block(&self, loc: &BlockLocation, ds: DsType, params: &[u8]) -> Result<()> {
        for replica in &loc.chain {
            self.call(
                &replica.addr,
                DataRequest::InitBlock {
                    block: replica.block,
                    ds: ds.to_string(),
                    params: params.into(),
                },
            )?;
        }
        Ok(())
    }

    fn reset_block(&self, loc: &BlockLocation) -> Result<()> {
        for replica in &loc.chain {
            self.call(
                &replica.addr,
                DataRequest::ResetBlock {
                    block: replica.block,
                },
            )?;
        }
        Ok(())
    }

    fn export_block(&self, loc: &BlockLocation) -> Result<(Vec<u8>, Vec<u8>)> {
        let tail = loc.tail();
        match self.call(&tail.addr, DataRequest::ExportBlock { block: tail.block })? {
            DataResponse::Exported { payload, replay } => {
                Ok((payload.into_inner(), replay.into_inner()))
            }
            other => Err(JiffyError::Rpc(format!(
                "unexpected export reply: {other:?}"
            ))),
        }
    }

    fn import_payload(&self, loc: &BlockLocation, payload: &[u8], replay: &[u8]) -> Result<()> {
        // Every replica absorbs: reads are served by the tail, and any
        // replica may later be promoted, so a head-only import would
        // lose the payload (or the replay window) on the first failover.
        for replica in &loc.chain {
            self.call(
                &replica.addr,
                DataRequest::ImportPayload {
                    block: replica.block,
                    payload: payload.into(),
                    replay: replay.into(),
                },
            )?;
        }
        Ok(())
    }

    fn split_block(
        &self,
        loc: &BlockLocation,
        spec: &SplitSpec,
        target: Option<&BlockLocation>,
    ) -> Result<()> {
        let head = loc.head();
        self.call(
            &head.addr,
            DataRequest::SplitBlock {
                block: head.block,
                spec: spec.clone(),
                target: target.cloned(),
            },
        )?;
        Ok(())
    }

    fn merge_block(
        &self,
        loc: &BlockLocation,
        spec: &MergeSpec,
        target: Option<&BlockLocation>,
    ) -> Result<()> {
        let head = loc.head();
        self.call(
            &head.addr,
            DataRequest::MergeBlock {
                block: head.block,
                spec: spec.clone(),
                target: target.cloned(),
            },
        )?;
        Ok(())
    }

    fn block_usage(&self, loc: &BlockLocation) -> Result<(u64, u64)> {
        let head = loc.head();
        match self.call(&head.addr, DataRequest::Usage { block: head.block })? {
            DataResponse::Usage { used, capacity } => Ok((used, capacity)),
            other => Err(JiffyError::Rpc(format!(
                "unexpected usage reply: {other:?}"
            ))),
        }
    }

    fn seal_block(&self, loc: &BlockLocation, sealed: bool) -> Result<()> {
        for replica in &loc.chain {
            self.call(
                &replica.addr,
                DataRequest::SealBlock {
                    block: replica.block,
                    sealed,
                },
            )?;
        }
        Ok(())
    }

    fn retire_block(&self, loc: &BlockLocation, moved_to: &Replica) -> Result<()> {
        for replica in &loc.chain {
            self.call(
                &replica.addr,
                DataRequest::RetireBlock {
                    block: replica.block,
                    moved_to: moved_to.clone(),
                },
            )?;
        }
        Ok(())
    }
}

/// A flushed prefix as stored in the persistent tier.
#[derive(Serialize, Deserialize)]
struct FlushRecord {
    ds: DsType,
    skeleton: DsSkeleton,
    payloads: Vec<Blob>,
}

#[derive(Debug)]
pub(crate) struct JobEntry {
    pub(crate) name: String,
    pub(crate) hierarchy: AddressHierarchy,
    /// Tenant that registered the job; every block the job allocates is
    /// accounted against this tenant's quota (DESIGN.md §14).
    pub(crate) tenant: TenantId,
}

/// Monotonic stats counters. Serializable so snapshots and
/// `StateRewritten` journal records carry them across a controller
/// restart (DESIGN.md §11).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Counters {
    /// Control requests dispatched.
    pub ops_served: u64,
    /// Lease expirations (flush + reclaim cycles).
    pub leases_expired: u64,
    /// Committed block splits.
    pub splits: u64,
    /// Committed block merges.
    pub merges: u64,
    /// Servers declared dead by the failure detector.
    pub servers_failed: u64,
    /// Chain replicas migrated off draining servers.
    pub blocks_migrated: u64,
    /// Autoscaler scale-up actions.
    pub scale_ups: u64,
    /// Autoscaler scale-down actions.
    pub scale_downs: u64,
}

/// What [`Controller::handle_underload`] hands back to the dispatch
/// arm: the surviving block to notify of the merge, the merge spec for
/// the data plane, the journal ops to append, and the drained source
/// block whose reset must wait until the append is durable.
type UnderloadOutcome = (
    Option<BlockLocation>,
    Option<MergeSpec>,
    Vec<JournalOp>,
    Option<BlockLocation>,
);

/// One row per registered job: `(job, job name, [(node, parents)])`.
/// What the shard router consumes to rebuild its root-component table.
pub(crate) type HierarchyEdges = Vec<(JobId, String, Vec<(String, Vec<String>)>)>;

pub(crate) struct CtrlState {
    pub(crate) jobs: HashMap<JobId, JobEntry>,
    pub(crate) freelist: FreeList,
    /// Reverse map: logical block → (job, node) for overload routing.
    pub(crate) block_owner: HashMap<BlockId, (JobId, String)>,
    pub(crate) counters: Counters,
    /// Heartbeat bookkeeping for the failure detector.
    pub(crate) detector: FailureDetector,
    /// Write-ahead metadata journal; appends happen under this same
    /// state lock, after the mutation and before the ack.
    pub(crate) journal: Journal,
    /// Per-tenant QoS configuration (shares, quotas, rate limits);
    /// journaled and mirrored into snapshots.
    pub(crate) tenants: TenantDirectory,
    /// Latest per-tenant data-plane load reported by each server's
    /// heartbeat. Soft state: rebuilt from heartbeats after recovery.
    pub(crate) server_loads: HashMap<ServerId, Vec<TenantLoad>>,
    /// Set by [`Controller::halt`]: this instance is dead to the world.
    pub(crate) halted: bool,
}

/// Autoscaler wiring: the policy plus the provider that actually
/// provisions/decommissions servers. Kept outside [`CtrlState`] because
/// provider calls must run WITHOUT the state lock held (an in-process
/// provider calls straight back into [`Controller::dispatch`]).
#[derive(Default)]
struct ElasticHooks {
    policy: Option<AutoscalerPolicy>,
    provider: Option<Arc<dyn ServerProvider>>,
}

/// A controller's place in a (possibly single-shard) sharded control
/// plane: which shard it is, how many shards exist, and the metadata
/// *view epoch* shared by every shard of one control plane.
///
/// The epoch is bumped whenever any shard commits an operation that can
/// move or retire blocks (splits, merges, failure rewrites, removals,
/// reclaiming flushes, loads, job teardown) and is stamped on every
/// control-plane response envelope; clients use it to invalidate their
/// lease-guarded metadata caches without extra RPCs (DESIGN.md §15).
#[derive(Clone)]
pub struct ShardIdentity {
    /// This shard's index in `[0, count)`.
    pub index: u32,
    /// Total shards in the control plane.
    pub count: u32,
    /// View epoch shared across all shards of one control plane.
    pub epoch: Arc<AtomicU64>,
}

impl ShardIdentity {
    /// The identity of a standalone controller: the only shard of a
    /// control plane of its own (unit tests and micro-benches drive one
    /// directly; a served control plane gets its identities from
    /// [`crate::ShardedController::build`]).
    pub fn solo() -> Self {
        Self {
            index: 0,
            count: 1,
            epoch: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Shard `index` of `count`, sharing `epoch` with its siblings.
    pub fn member(index: u32, count: u32, epoch: Arc<AtomicU64>) -> Self {
        Self {
            index,
            count: count.max(1),
            epoch,
        }
    }

    /// The persistent-tier prefix under which this shard keeps its
    /// journal and snapshots. A one-shard control plane uses the plain
    /// `jiffy-meta/` layout, so stores written before sharding existed
    /// recover unchanged; N > 1 shards use disjoint
    /// `jiffy-meta/shard-{i}/` subtrees.
    pub fn meta_prefix(&self) -> String {
        if self.count <= 1 {
            journal::META_PREFIX.to_string()
        } else {
            format!("{}shard-{}/", journal::META_PREFIX, self.index)
        }
    }
}

/// Whether a journaled operation can change block placement as seen by
/// clients (and must therefore bump the shared view epoch so cached
/// metadata is re-resolved).
fn invalidates_placement(op: &JournalOp) -> bool {
    matches!(
        op,
        JournalOp::SplitCommitted { .. }
            | JournalOp::MergeCommitted { .. }
            | JournalOp::StateRewritten { .. }
            | JournalOp::PrefixRemoved { .. }
            | JournalOp::PrefixFlushed {
                reclaimed: true,
                ..
            }
            | JournalOp::PrefixLoaded { .. }
            | JournalOp::JobDeregistered { .. }
    )
}

/// The unified control plane: block allocator + metadata manager + lease
/// manager in one service (paper §4.2).
pub struct Controller {
    cfg: JiffyConfig,
    clock: SharedClock,
    state: Mutex<CtrlState>,
    dataplane: Arc<dyn DataPlane>,
    persistent: Arc<dyn ObjectStore>,
    job_ids: IdGen,
    elastic: Mutex<ElasticHooks>,
    shard: ShardIdentity,
}

impl Controller {
    /// Creates a controller.
    ///
    /// # Errors
    ///
    /// Propagates [`JiffyConfig::validate`] failures.
    pub fn new(
        cfg: JiffyConfig,
        clock: SharedClock,
        dataplane: Arc<dyn DataPlane>,
        persistent: Arc<dyn ObjectStore>,
    ) -> Result<Arc<Self>> {
        Self::new_sharded(cfg, clock, dataplane, persistent, ShardIdentity::solo())
    }

    /// Creates one shard of a sharded control plane. With
    /// [`ShardIdentity::solo`] this is exactly [`Controller::new`].
    ///
    /// Each shard journals under its own persistent-tier prefix and
    /// mints server/block ids in its own residue class (`id ≡ index mod
    /// count`) so shards never collide and block/server ids route back
    /// to their owning shard by `raw % count`. Job ids are minted only
    /// by shard 0 and adopted by the rest (see
    /// [`ControlRequest::AdoptJob`]).
    ///
    /// # Errors
    ///
    /// Propagates [`JiffyConfig::validate`] failures.
    pub fn new_sharded(
        cfg: JiffyConfig,
        clock: SharedClock,
        dataplane: Arc<dyn DataPlane>,
        persistent: Arc<dyn ObjectStore>,
        shard: ShardIdentity,
    ) -> Result<Arc<Self>> {
        cfg.validate()?;
        // A brand-new controller is a brand-new cluster: wipe any stale
        // journal left by a previous incarnation of this shard.
        let journal = Journal::fresh(
            persistent.clone(),
            cfg.meta_snapshot_every,
            &shard.meta_prefix(),
        );
        let tenants = TenantDirectory::new(cfg.qos.clone());
        let freelist = FreeList::new();
        freelist.set_id_stride(u64::from(shard.index), u64::from(shard.count));
        Ok(Arc::new(Self {
            cfg,
            clock,
            state: Mutex::new(CtrlState {
                jobs: HashMap::new(),
                freelist,
                block_owner: HashMap::new(),
                counters: Counters::default(),
                detector: FailureDetector::new(),
                journal,
                tenants,
                server_loads: HashMap::new(),
                halted: false,
            }),
            dataplane,
            persistent,
            job_ids: IdGen::new(),
            elastic: Mutex::new(ElasticHooks::default()),
            shard,
        }))
    }

    /// Rebuilds a controller from the metadata journal and snapshots a
    /// previous incarnation left in `persistent` (DESIGN.md §11).
    ///
    /// The journal is authoritative for metadata: jobs, hierarchies,
    /// leases, the freelist/membership table, shard routing and block
    /// placement all come from snapshot + replay. Liveness does not:
    /// every lease is re-armed to the recovery instant (a restart must
    /// never expire data it could not watch), and the failure detector
    /// is seeded at the recovery instant for every non-dead member, so
    /// heartbeats re-establish liveness organically.
    ///
    /// # Errors
    ///
    /// Propagates [`JiffyConfig::validate`] failures, object-store
    /// read failures, and journal decode/replay failures.
    pub fn recover(
        cfg: JiffyConfig,
        clock: SharedClock,
        dataplane: Arc<dyn DataPlane>,
        persistent: Arc<dyn ObjectStore>,
    ) -> Result<Arc<Self>> {
        Self::recover_sharded(cfg, clock, dataplane, persistent, ShardIdentity::solo())
    }

    /// Rebuilds one shard of a sharded control plane from its own
    /// journal prefix. With [`ShardIdentity::solo`] this is exactly
    /// [`Controller::recover`]. Bumps the shared view epoch once: any
    /// placement the restarted shard changed mid-crash is re-resolved
    /// by clients rather than trusted from stale caches.
    ///
    /// # Errors
    ///
    /// Propagates [`JiffyConfig::validate`] failures, object-store
    /// read failures, and journal decode/replay failures.
    pub fn recover_sharded(
        cfg: JiffyConfig,
        clock: SharedClock,
        dataplane: Arc<dyn DataPlane>,
        persistent: Arc<dyn ObjectStore>,
        shard: ShardIdentity,
    ) -> Result<Arc<Self>> {
        cfg.validate()?;
        let rec = journal::recover_from(persistent.as_ref(), &shard.meta_prefix())?;
        let now = clock.now();
        let mut jobs = rec.jobs;
        for entry in jobs.values_mut() {
            for name in entry.hierarchy.names() {
                if let Some(node) = entry.hierarchy.get_mut(&name) {
                    node.last_renewal = now;
                }
            }
        }
        let mut detector = FailureDetector::new();
        for load in rec.freelist.server_loads() {
            if load.state != ServerState::Dead {
                detector.record(load.server, now);
            }
        }
        let journal = Journal::resuming(
            persistent.clone(),
            cfg.meta_snapshot_every,
            rec.next_seq,
            &shard.meta_prefix(),
        );
        let mut tenants = TenantDirectory::new(cfg.qos.clone());
        tenants.install(rec.tenants);
        // Checkpointed id frontiers resume in this shard's residue class
        // (a frontier written by this shard is already in class; the
        // stride re-aligns defensively either way).
        rec.freelist
            .set_id_stride(u64::from(shard.index), u64::from(shard.count));
        // Clients may hold cache entries from before the crash; one bump
        // forces them back through resolve on their next access.
        shard.epoch.fetch_add(1, Ordering::SeqCst);
        Ok(Arc::new(Self {
            cfg,
            clock,
            state: Mutex::new(CtrlState {
                jobs,
                freelist: rec.freelist,
                block_owner: rec.block_owner,
                counters: rec.counters,
                detector,
                journal,
                tenants,
                // Soft state: rebuilt from the next round of heartbeats.
                server_loads: HashMap::new(),
                halted: false,
            }),
            dataplane,
            persistent,
            job_ids: IdGen::starting_at(rec.next_job_id),
            elastic: Mutex::new(ElasticHooks::default()),
            shard,
        }))
    }

    /// Enumerates `(job, job name, [(node, parents)])` for every
    /// registered job. The shard router rebuilds its root-component
    /// table from this after constructing or restarting shards.
    pub(crate) fn hierarchy_edges(&self) -> HierarchyEdges {
        let st = self.state.lock();
        st.jobs
            .iter()
            .map(|(job, entry)| {
                let nodes = entry
                    .hierarchy
                    .names()
                    .into_iter()
                    .filter_map(|name| {
                        entry
                            .hierarchy
                            .get(&name)
                            .map(|node| (name.clone(), node.parents.clone()))
                    })
                    .collect();
                (*job, entry.name.clone(), nodes)
            })
            .collect()
    }

    /// The configuration this controller runs with.
    pub fn config(&self) -> &JiffyConfig {
        &self.cfg
    }

    /// Appends `ops` to the write-ahead journal as one atomic batch,
    /// then snapshots/truncates if the record budget is used up. Called
    /// under the state lock, after the in-memory mutation and before
    /// the ack; an empty batch is a no-op (the operation turned out not
    /// to mutate anything).
    fn journal_append(&self, st: &mut CtrlState, ops: Vec<JournalOp>) -> Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        let bumps_epoch = ops.iter().any(invalidates_placement);
        st.journal.append(ops)?;
        if bumps_epoch {
            // Placement changed durably: advance the shared view epoch
            // so every shard's next response invalidates client caches.
            self.shard.epoch.fetch_add(1, Ordering::SeqCst);
        }
        if st.journal.snapshot_due() {
            let mirror = journal::mirror_of(st, self.job_ids.current());
            st.journal.write_snapshot(&mirror)?;
        }
        Ok(())
    }

    /// A `StateRewritten` journal record capturing the full current
    /// state; used by multi-step transitions (drains, failure handling)
    /// whose outcomes are impractical to log record-by-record.
    fn rewrite_op(&self, st: &CtrlState) -> Result<JournalOp> {
        let mirror = journal::mirror_of(st, self.job_ids.current());
        Ok(JournalOp::StateRewritten {
            mirror: jiffy_proto::to_bytes(&mirror)?,
        })
    }

    /// A deterministic serialization of the controller's entire
    /// metadata state (tests compare live vs. recovered controllers).
    pub fn state_mirror(&self) -> StateMirror {
        let st = self.state.lock();
        journal::mirror_of(&st, self.job_ids.current())
    }

    /// The current tenant limit table (what heartbeat acks piggyback to
    /// the memory servers).
    pub fn tenant_limits(&self) -> Vec<jiffy_proto::TenantLimit> {
        self.state.lock().tenants.snapshot()
    }

    /// Forces a snapshot + journal truncation right now, regardless of
    /// the `meta_snapshot_every` budget.
    ///
    /// # Errors
    ///
    /// Object-store write failures.
    pub fn snapshot_now(&self) -> Result<()> {
        let mut st = self.state.lock();
        let mirror = journal::mirror_of(&st, self.job_ids.current());
        // The snapshot write and journal truncation must be atomic
        // w.r.t. concurrent appends, which serialize on this lock.
        // xtask-allow(no-guard-across-rpc): snapshot+truncate is atomic with appends (DESIGN.md §11)
        st.journal.write_snapshot(&mirror)
    }

    /// Cross-table consistency checks, returning one human-readable
    /// string per violation (empty = consistent). Used by the
    /// crash-point sweep tests after every recovery.
    pub fn check_invariants(&self) -> Vec<String> {
        let st = self.state.lock();
        let mut out = Vec::new();
        let mut seen_heads: HashSet<BlockId> = HashSet::new();
        for (job, entry) in &st.jobs {
            for name in entry.hierarchy.names() {
                let Some(node) = entry.hierarchy.get(&name) else {
                    continue;
                };
                // Parent/child edges must be bidirectional.
                for parent in &node.parents {
                    match entry.hierarchy.get(parent) {
                        Some(p) if p.children.contains(&node.name) => {}
                        Some(_) => out.push(format!("{name}: parent {parent} lacks the back-edge")),
                        None => out.push(format!("{name}: dangling parent {parent}")),
                    }
                }
                let Some(meta) = &node.ds else { continue };
                for loc in meta.locations() {
                    seen_heads.insert(loc.id());
                    match st.block_owner.get(&loc.id()) {
                        Some((j, n)) if *j == *job && *n == name => {}
                        Some((j, n)) => out.push(format!(
                            "block {} of {name} owned by ({}, {n}) instead",
                            loc.id().raw(),
                            j.raw()
                        )),
                        None => out.push(format!(
                            "block {} of {name} missing from block_owner",
                            loc.id().raw()
                        )),
                    }
                    for replica in &loc.chain {
                        if st.freelist.is_free(replica.block) {
                            out.push(format!(
                                "replica block {} of {name} is on the freelist",
                                replica.block.raw()
                            ));
                        }
                    }
                }
            }
        }
        for block in st.block_owner.keys() {
            if !seen_heads.contains(block) {
                out.push(format!(
                    "block_owner entry {} points at no live prefix block",
                    block.raw()
                ));
            }
        }
        out
    }

    /// Fences this instance the way a process death would: waits for
    /// the request in flight (requests serialize on the state lock) and
    /// fails every later one with the retryable error of a dark shard. An
    /// in-process "crash" only unplugs the endpoint; without the fence
    /// a request the old instance already accepted — a merge a server
    /// reported just before — keeps running and journals after its
    /// successor replayed the journal.
    pub fn halt(&self) {
        self.state.lock().halted = true;
    }

    /// Handles one control request on behalf of the anonymous tenant
    /// (over the wire it arrives through the shard router's `Service`
    /// impl; exposed directly for in-process callers like the
    /// simulator).
    pub fn dispatch(&self, req: ControlRequest) -> Result<ControlResponse> {
        self.dispatch_as(req, TenantId::ANONYMOUS)
    }

    /// Handles one control request on behalf of `tenant`. Jobs
    /// registered through this entry point are accounted against the
    /// tenant's memory quota and weighted-fair share (DESIGN.md §14).
    pub fn dispatch_as(&self, req: ControlRequest, tenant: TenantId) -> Result<ControlResponse> {
        let mut deferred_resets: Vec<BlockLocation> = Vec::new();
        let resp = {
            let mut st = self.state.lock();
            if st.halted {
                return Err(JiffyError::shard_unavailable(self.shard.index));
            }
            st.counters.ops_served += 1;
            // Journal appends must run under the state lock so journal
            // order equals mutation order; flush/load object-store
            // copies ride the same serialization.
            // xtask-allow(no-guard-across-rpc): journal order equals mutation order (DESIGN.md §11)
            self.dispatch_locked(&mut st, req, tenant, &mut deferred_resets)
        };
        // Best-effort data-plane resets run after the guard drops: they
        // are transport calls, and a slow server must not stall every
        // other control op. The journal record is already durable, so a
        // crash here only leaves stale block contents, which
        // re-initialization clears on reallocation.
        for loc in &deferred_resets {
            let _ = self.dataplane.reset_block(loc);
        }
        resp
    }

    /// The lock-held half of [`Controller::dispatch`]. Destructive
    /// data-plane resets are *deferred* via `deferred_resets` so no
    /// transport call runs while the state guard is live.
    fn dispatch_locked(
        &self,
        st: &mut CtrlState,
        req: ControlRequest,
        tenant: TenantId,
        deferred_resets: &mut Vec<BlockLocation>,
    ) -> Result<ControlResponse> {
        match req {
            ControlRequest::RegisterJob { name } => {
                let job: JobId = self.job_ids.next_id();
                st.jobs.insert(
                    job,
                    JobEntry {
                        name: name.clone(),
                        hierarchy: AddressHierarchy::new(),
                        tenant,
                    },
                );
                self.journal_append(st, vec![JournalOp::JobRegistered { job, name, tenant }])?;
                Ok(ControlResponse::JobRegistered { job })
            }
            ControlRequest::DeregisterJob { job } => {
                let entry = st
                    .jobs
                    .remove(&job)
                    .ok_or(JiffyError::UnknownJob(job.raw()))?;
                let mut locs = Vec::new();
                for name in entry.hierarchy.names() {
                    if let Some(node) = entry.hierarchy.get(&name) {
                        if let Some(meta) = &node.ds {
                            for loc in meta.locations() {
                                for replica in &loc.chain {
                                    st.block_owner.remove(&replica.block);
                                    let _ = st.freelist.release(replica.block);
                                }
                                locs.push(loc);
                            }
                        }
                    }
                }
                // Journal before the destructive data-plane resets
                // (which the caller performs after unlocking).
                self.journal_append(st, vec![JournalOp::JobDeregistered { job }])?;
                deferred_resets.extend(locs);
                Ok(ControlResponse::Ack)
            }
            ControlRequest::CreatePrefix {
                job,
                name,
                parents,
                ds,
                initial_blocks,
            } => {
                let ops = self.create_prefix(st, job, &name, &parents, ds, initial_blocks)?;
                self.journal_append(st, ops)?;
                Ok(ControlResponse::PrefixCreated { name })
            }
            ControlRequest::AddParent { job, name, parent } => {
                let entry = st
                    .jobs
                    .get_mut(&job)
                    .ok_or(JiffyError::UnknownJob(job.raw()))?;
                entry.hierarchy.add_parent(&name, &parent)?;
                self.journal_append(st, vec![JournalOp::ParentAdded { job, name, parent }])?;
                Ok(ControlResponse::Ack)
            }
            ControlRequest::CreateHierarchy { job, nodes } => {
                let mut ops = Vec::new();
                for spec in &nodes {
                    let DagNodeSpec {
                        name,
                        parents,
                        ds,
                        initial_blocks,
                    } = spec;
                    ops.extend(self.create_prefix(st, job, name, parents, *ds, *initial_blocks)?);
                }
                self.journal_append(st, ops)?;
                Ok(ControlResponse::Ack)
            }
            ControlRequest::RemovePrefix { job, name } => {
                let locs = self.reclaim_prefix(st, job, &name, false, None)?;
                let entry = st
                    .jobs
                    .get_mut(&job)
                    .ok_or(JiffyError::UnknownJob(job.raw()))?;
                entry.hierarchy.remove_node(&name)?;
                self.journal_append(st, vec![JournalOp::PrefixRemoved { job, name }])?;
                deferred_resets.extend(locs);
                Ok(ControlResponse::Ack)
            }
            ControlRequest::ResolvePrefix { job, name } => {
                let entry = st.jobs.get(&job).ok_or(JiffyError::UnknownJob(job.raw()))?;
                let node = entry.hierarchy.resolve(&name)?;
                Ok(ControlResponse::Resolved(PrefixView {
                    name: node.name.clone(),
                    ds: node.ds.as_ref().map(DsMeta::ds_type),
                    partition: node.ds.as_ref().map(DsMeta::view),
                    lease_duration_micros: self.cfg.lease_duration.as_micros() as u64,
                    parents: node.parents.clone(),
                    children: node.children.clone(),
                    version: node.version,
                }))
            }
            ControlRequest::RenewLease { job, name } => {
                let now = self.clock.now();
                let entry = st
                    .jobs
                    .get_mut(&job)
                    .ok_or(JiffyError::UnknownJob(job.raw()))?;
                let renewed = entry.hierarchy.renew(&name, now)?;
                self.journal_append(
                    st,
                    vec![JournalOp::LeaseRenewed {
                        job,
                        name,
                        now_micros: u64::try_from(now.as_micros()).unwrap_or(u64::MAX),
                    }],
                )?;
                Ok(ControlResponse::LeaseRenewed {
                    renewed,
                    lease_duration_micros: self.cfg.lease_duration.as_micros() as u64,
                })
            }
            ControlRequest::GetLeaseDuration { job, name } => {
                let entry = st.jobs.get(&job).ok_or(JiffyError::UnknownJob(job.raw()))?;
                entry.hierarchy.resolve(&name)?;
                Ok(ControlResponse::LeaseDuration {
                    micros: self.cfg.lease_duration.as_micros() as u64,
                })
            }
            ControlRequest::FlushPrefix {
                job,
                name,
                external_path,
            } => {
                let (bytes, ops) =
                    self.flush_prefix(st, job, &name, &external_path, false, false)?;
                self.journal_append(st, ops)?;
                Ok(ControlResponse::Persisted { bytes })
            }
            ControlRequest::LoadPrefix {
                job,
                name,
                external_path,
            } => {
                let (bytes, ops) = self.load_prefix(st, job, &name, &external_path)?;
                self.journal_append(st, ops)?;
                Ok(ControlResponse::Persisted { bytes })
            }
            ControlRequest::JoinServer {
                addr,
                capacity_blocks,
            } => {
                let now = self.clock.now();
                let (server, blocks) = st.freelist.register_server(addr.clone(), capacity_blocks);
                st.detector.record(server, now);
                self.journal_append(
                    st,
                    vec![JournalOp::ServerJoined {
                        server,
                        addr,
                        blocks: blocks.clone(),
                        now_micros: u64::try_from(now.as_micros()).unwrap_or(u64::MAX),
                    }],
                )?;
                Ok(ControlResponse::ServerJoined { server, blocks })
            }
            ControlRequest::LeaveServer { server } => {
                let blocks_migrated = self.drain_server_locked(st, server)?;
                st.freelist.deregister_server(server)?;
                st.detector.forget(server);
                // Drained state is a multi-step outcome; checkpoint it
                // wholesale rather than record-by-record.
                let op = self.rewrite_op(st)?;
                self.journal_append(st, vec![op])?;
                Ok(ControlResponse::Drained {
                    server,
                    blocks_migrated,
                })
            }
            ControlRequest::Heartbeat {
                server,
                tenant_loads,
                ..
            } => {
                // Only live members may heartbeat; a departed or dead
                // server gets UnknownServer and must re-join.
                match st.freelist.state_of(server)? {
                    ServerState::Alive | ServerState::Draining => {
                        st.detector.record(server, self.clock.now());
                        // Piggyback the QoS control loop on the existing
                        // heartbeat: absorb the server's per-tenant load
                        // report (soft state) and push back the current
                        // limits so rate changes propagate within one
                        // heartbeat interval.
                        st.server_loads.insert(server, tenant_loads);
                        Ok(ControlResponse::HeartbeatAck {
                            limits: st.tenants.snapshot(),
                        })
                    }
                    ServerState::Dead => Err(JiffyError::UnknownServer(server.raw())),
                }
            }
            ControlRequest::ListServers => Ok(ControlResponse::Servers(st.freelist.server_infos())),
            ControlRequest::ReportOverload { block, .. } => {
                let (target, spec, ops) = self.handle_overload(st, block)?;
                self.journal_append(st, ops)?;
                Ok(ControlResponse::SplitTarget { target, spec })
            }
            ControlRequest::ReportUnderload { block, .. } => {
                let (target, spec, ops, reclaim) = self.handle_underload(st, block)?;
                // Journal the merge before the data-plane reset of the
                // source (deferred to after unlock): once the record is
                // durable, replay routes the merged keyspace to the
                // target, so clearing the source's stale copy can never
                // orphan acked data.
                self.journal_append(st, ops)?;
                deferred_resets.extend(reclaim);
                Ok(ControlResponse::MergeTarget { target, spec })
            }
            ControlRequest::CommitRepartition { .. } => {
                // Repartitions are controller-orchestrated and commit
                // inline; this message is accepted for compatibility.
                Ok(ControlResponse::Ack)
            }
            ControlRequest::GetStats => Ok(ControlResponse::Stats(self.stats_locked(st))),
            ControlRequest::ListPrefixes { job } => {
                let entry = st.jobs.get(&job).ok_or(JiffyError::UnknownJob(job.raw()))?;
                Ok(ControlResponse::Prefixes(entry.hierarchy.names()))
            }
            ControlRequest::TenantStats => Ok(ControlResponse::TenantStatsReport(
                self.tenant_stats_locked(st),
            )),
            ControlRequest::SetTenantShare {
                tenant: target,
                share,
                quota_bytes,
                ops_per_sec,
                bytes_per_sec,
            } => {
                st.tenants
                    .set(target, share, quota_bytes, ops_per_sec, bytes_per_sec);
                self.journal_append(
                    st,
                    vec![JournalOp::TenantConfigured {
                        tenant: target,
                        share: share.max(1),
                        quota_bytes,
                        ops_per_sec,
                        bytes_per_sec,
                    }],
                )?;
                Ok(ControlResponse::Ack)
            }
            ControlRequest::AdoptJob { job, name } => {
                // A sibling shard (shard 0) minted this job id; record
                // it here so path operations routed to this shard
                // resolve the job. Idempotent: re-adoption of a job we
                // already know is an ack without a journal record.
                match st.jobs.get(&job) {
                    Some(existing) if existing.name == name => {}
                    Some(existing) => {
                        return Err(JiffyError::Internal(format!(
                            "adopt {job}: registered as {:?}, not {name:?}",
                            existing.name
                        )));
                    }
                    None => {
                        st.jobs.insert(
                            job,
                            JobEntry {
                                name: name.clone(),
                                hierarchy: AddressHierarchy::new(),
                                tenant,
                            },
                        );
                        // Never mint below an adopted id, even on the
                        // (job-minting) shard 0 after a replayed adopt.
                        self.job_ids.bump_to(job.raw() + 1);
                        self.journal_append(
                            st,
                            vec![JournalOp::JobRegistered { job, name, tenant }],
                        )?;
                    }
                }
                Ok(ControlResponse::Ack)
            }
        }
    }

    /// Blocks currently allocated to `tenant`, counting every replica in
    /// every chain of every prefix of the tenant's jobs.
    fn tenant_usage_blocks(st: &CtrlState, tenant: TenantId) -> u64 {
        let mut blocks = 0u64;
        for entry in st.jobs.values() {
            if entry.tenant != tenant {
                continue;
            }
            for name in entry.hierarchy.names() {
                let Some(node) = entry.hierarchy.get(&name) else {
                    continue;
                };
                let Some(meta) = &node.ds else { continue };
                for loc in meta.locations() {
                    blocks += loc.chain.len() as u64;
                }
            }
        }
        blocks
    }

    /// Admission check for allocating `new_blocks` more blocks on behalf
    /// of `tenant` (DESIGN.md §14). Two gates, both skipped when QoS is
    /// disabled or the caller is anonymous:
    ///
    /// 1. **Hard quota** — current usage plus the request must fit in
    ///    the tenant's `quota_bytes` (fatal [`JiffyError::QuotaExceeded`]).
    /// 2. **Weighted-fair arbitration under pressure** — once the free
    ///    pool drops below `pressure_free_fraction` of capacity, block
    ///    grants follow a weighted max-min division of total capacity by
    ///    tenant share; a tenant already at or beyond its fair share is
    ///    deferred with a retryable [`JiffyError::Throttled`] instead of
    ///    draining the pool first-come-first-served.
    fn check_allocation(&self, st: &CtrlState, tenant: TenantId, new_blocks: u64) -> Result<()> {
        if !self.cfg.qos.enabled || tenant.is_anonymous() || new_blocks == 0 {
            return Ok(());
        }
        let usage = Self::tenant_usage_blocks(st, tenant);
        let limit = st.tenants.effective(tenant);
        if limit.quota_bytes > 0 {
            let want_bytes = (usage + new_blocks).saturating_mul(self.cfg.block_size as u64);
            if want_bytes > limit.quota_bytes {
                return Err(JiffyError::QuotaExceeded {
                    tenant: tenant.raw(),
                    quota_bytes: limit.quota_bytes,
                    requested_bytes: want_bytes,
                });
            }
        }
        let total = st.freelist.total_count() as u64;
        let free = st.freelist.free_count() as u64;
        if total == 0 {
            return Ok(());
        }
        let free_fraction = free as f64 / total as f64;
        if free_fraction >= self.cfg.qos.pressure_free_fraction {
            return Ok(());
        }
        // Pressure: divide the whole capacity (minus the anonymous
        // tenant's untracked usage) across the active tenants by share,
        // and hold this tenant to its fair slice.
        let mut demands: BTreeMap<TenantId, (u32, u64)> = BTreeMap::new();
        let anonymous_usage = Self::tenant_usage_blocks(st, TenantId::ANONYMOUS);
        for entry in st.jobs.values() {
            if entry.tenant.is_anonymous() || demands.contains_key(&entry.tenant) {
                continue;
            }
            let share = st.tenants.effective(entry.tenant).share;
            demands.insert(
                entry.tenant,
                (share, Self::tenant_usage_blocks(st, entry.tenant)),
            );
        }
        let slot = demands.entry(tenant).or_insert((limit.share, usage));
        slot.1 = usage + new_blocks;
        let capacity = total.saturating_sub(anonymous_usage);
        let flat: Vec<(u32, u64)> = demands.values().copied().collect();
        let grants = weighted_max_min(capacity, &flat);
        #[allow(clippy::expect_used)] // invariant documented in the message
        let idx = demands
            .keys()
            .position(|t| *t == tenant)
            .expect("invariant: requesting tenant inserted into demands above");
        if grants[idx] < usage + new_blocks {
            // Over fair share while the pool is under pressure: defer.
            // Retryable — blocks free up as peers deallocate or the
            // cluster scales out.
            return Err(JiffyError::Throttled { retry_after_ms: 50 });
        }
        Ok(())
    }

    /// One [`TenantStatsEntry`] per tenant known to the control plane:
    /// explicitly configured tenants, tenants owning jobs, and tenants
    /// appearing in server load reports.
    fn tenant_stats_locked(&self, st: &CtrlState) -> Vec<TenantStatsEntry> {
        let mut ids: BTreeSet<TenantId> = BTreeSet::new();
        ids.extend(st.tenants.configured().map(|l| l.tenant));
        ids.extend(
            st.jobs
                .values()
                .map(|e| e.tenant)
                .filter(|t| !t.is_anonymous()),
        );
        for loads in st.server_loads.values() {
            ids.extend(loads.iter().map(|l| l.tenant));
        }
        ids.into_iter()
            .map(|tenant| {
                let limit = st.tenants.effective(tenant);
                let blocks = Self::tenant_usage_blocks(st, tenant);
                let mut entry = TenantStatsEntry {
                    tenant,
                    share: limit.share,
                    quota_bytes: limit.quota_bytes,
                    allocated_blocks: blocks,
                    allocated_bytes: blocks.saturating_mul(self.cfg.block_size as u64),
                    ops_admitted: 0,
                    ops_throttled: 0,
                    bytes_in: 0,
                    bytes_out: 0,
                    op_rate_ewma: 0.0,
                };
                for loads in st.server_loads.values() {
                    for load in loads.iter().filter(|l| l.tenant == tenant) {
                        entry.ops_admitted += load.ops_admitted;
                        entry.ops_throttled += load.ops_throttled;
                        entry.bytes_in += load.bytes_in;
                        entry.bytes_out += load.bytes_out;
                        entry.op_rate_ewma += load.op_rate_ewma;
                    }
                }
                entry
            })
            .collect()
    }

    fn create_prefix(
        &self,
        st: &mut CtrlState,
        job: JobId,
        name: &str,
        parents: &[String],
        ds: Option<DsType>,
        initial_blocks: u32,
    ) -> Result<Vec<JournalOp>> {
        let now = self.clock.now();
        let owner = st
            .jobs
            .get(&job)
            .map(|e| e.tenant)
            .ok_or(JiffyError::UnknownJob(job.raw()))?;
        // Quota/fair-share gate runs before any mutation so a denied
        // request leaves no half-created node to roll back.
        if ds.is_some() {
            let chains = u64::from(initial_blocks.max(1));
            self.check_allocation(st, owner, chains * self.cfg.chain_length as u64)?;
        }
        let entry = st
            .jobs
            .get_mut(&job)
            .ok_or(JiffyError::UnknownJob(job.raw()))?;
        entry.hierarchy.add_node(name, parents, now)?;
        if let Some(ds) = ds {
            let total = initial_blocks.max(1);
            let mut meta = DsMeta::new(ds, self.cfg.block_size, self.cfg.kv_hash_slots);
            let mut locs = Vec::with_capacity(total as usize);
            for i in 0..total {
                let params = meta.initial_params(i, total)?;
                let loc = match st.freelist.allocate_chain(self.cfg.chain_length) {
                    Ok(l) => l,
                    Err(e) => {
                        // Roll back: free what we grabbed and drop the node.
                        for loc in &locs {
                            let l: &BlockLocation = loc;
                            for r in &l.chain {
                                let _ = st.freelist.release(r.block);
                            }
                        }
                        let _ = entry.hierarchy.remove_node(name);
                        return Err(e);
                    }
                };
                self.dataplane.init_block(&loc, ds, &params)?;
                st.block_owner.insert(loc.id(), (job, name.to_string()));
                locs.push(loc);
            }
            let recorded_locs = locs.clone();
            meta.install_initial(locs);
            let skeleton = jiffy_proto::to_bytes(&meta.skeleton())?;
            #[allow(clippy::expect_used)] // invariant documented in the message
            let entry = st
                .jobs
                .get_mut(&job)
                .expect("invariant: job presence verified above under the same state lock");
            #[allow(clippy::expect_used)] // invariant documented in the message
            let node = entry
                .hierarchy
                .get_mut(name)
                .expect("invariant: node inserted above under the same state lock");
            node.ds = Some(meta);
            return Ok(vec![JournalOp::PrefixCreated {
                job,
                name: name.to_string(),
                parents: parents.to_vec(),
                locs: recorded_locs,
                skeleton: Some(skeleton),
                now_micros: u64::try_from(now.as_micros()).unwrap_or(u64::MAX),
            }]);
        }
        Ok(vec![JournalOp::PrefixCreated {
            job,
            name: name.to_string(),
            parents: parents.to_vec(),
            locs: Vec::new(),
            skeleton: None,
            now_micros: u64::try_from(now.as_micros()).unwrap_or(u64::MAX),
        }])
    }

    /// Flushes a prefix's blocks to the persistent tier, returning bytes
    /// written plus the journal ops for the caller to append. With
    /// `reclaim` (lease-expiry path), also frees the blocks — in that
    /// case the journal record is appended *here*, after the flush
    /// object is durable and before the data-plane resets, so a crash
    /// anywhere in between never loses the only copy; the returned op
    /// list is then empty.
    fn flush_prefix(
        &self,
        st: &mut CtrlState,
        job: JobId,
        name: &str,
        external_path: &str,
        reclaim: bool,
        expired: bool,
    ) -> Result<(u64, Vec<JournalOp>)> {
        let entry = st
            .jobs
            .get_mut(&job)
            .ok_or(JiffyError::UnknownJob(job.raw()))?;
        let node = entry.hierarchy.resolve_mut(name)?;
        let Some(meta) = &node.ds else {
            return Ok((0, Vec::new()));
        };
        let ds = meta.ds_type();
        let skeleton = meta.skeleton();
        let locations = meta.locations();
        let mut payloads = Vec::with_capacity(locations.len());
        let mut bytes = 0u64;
        for loc in &locations {
            // Flush persists the partition image only: the replay
            // window guards in-flight retries, which cannot outlive the
            // data structure's eviction to external storage.
            let (payload, _replay) = self.dataplane.export_block(loc)?;
            bytes += payload.len() as u64;
            payloads.push(Blob::new(payload));
        }
        let record = FlushRecord {
            ds,
            skeleton,
            payloads,
        };
        self.persistent
            .put(external_path, &jiffy_proto::to_bytes(&record)?)?;
        #[allow(clippy::expect_used)] // invariant documented in the message
        let node = st
            .jobs
            .get_mut(&job)
            .expect("invariant: job resolved above under the same state lock")
            .hierarchy
            .resolve_mut(name)
            .expect("invariant: prefix resolved above under the same state lock");
        node.flushed_to = Some(external_path.to_string());
        let op = JournalOp::PrefixFlushed {
            job,
            name: name.to_string(),
            path: external_path.to_string(),
            reclaimed: reclaim,
            expired,
        };
        if !reclaim {
            return Ok((bytes, vec![op]));
        }
        node.ds = None;
        node.version += 1;
        for loc in &locations {
            for r in &loc.chain {
                st.block_owner.remove(&r.block);
                let _ = st.freelist.release(r.block);
            }
        }
        if expired {
            st.counters.leases_expired += 1;
        }
        // The flush object is durable and the metadata reflects the
        // reclaim; journal now, then clear the blocks. A crash before
        // the append replays to the pre-reclaim state, whose blocks
        // still hold the data; a crash after it only leaves stale block
        // contents for re-initialization to clear.
        self.journal_append(st, vec![op])?;
        for loc in &locations {
            let _ = self.dataplane.reset_block(loc);
        }
        Ok((bytes, Vec::new()))
    }

    /// Loads a previously flushed prefix back into fresh blocks,
    /// returning bytes read plus the journal ops for the caller to
    /// append.
    fn load_prefix(
        &self,
        st: &mut CtrlState,
        job: JobId,
        name: &str,
        external_path: &str,
    ) -> Result<(u64, Vec<JournalOp>)> {
        let record_bytes = self.persistent.get(external_path)?;
        let record: FlushRecord = jiffy_proto::from_bytes(&record_bytes)?;
        {
            let entry = st
                .jobs
                .get_mut(&job)
                .ok_or(JiffyError::UnknownJob(job.raw()))?;
            let node = entry.hierarchy.resolve_mut(name)?;
            if node.ds.is_some() {
                return Err(JiffyError::Internal(format!(
                    "prefix {name} already has a live data structure; cannot load over it"
                )));
            }
        }
        let n = record.payloads.len();
        let owner = st.jobs.get(&job).map(|e| e.tenant).unwrap_or_default();
        self.check_allocation(st, owner, (n as u64) * self.cfg.chain_length as u64)?;
        let mut locs = Vec::with_capacity(n);
        for _ in 0..n {
            locs.push(st.freelist.allocate_chain(self.cfg.chain_length)?);
        }
        let meta = DsMeta::from_skeleton(&record.skeleton, locs.clone())?;
        let mut bytes = 0u64;
        for (loc, payload) in locs.iter().zip(&record.payloads) {
            // Initialize empty, then absorb the flushed contents.
            let params = match &record.skeleton {
                DsSkeleton::Kv { num_slots, .. } => jiffy_proto::to_bytes(&InitKvMirror {
                    ranges: vec![],
                    num_slots: *num_slots,
                })?,
                _ => Vec::new(),
            };
            self.dataplane.init_block(loc, record.ds, &params)?;
            self.dataplane.import_payload(loc, payload, &[])?;
            bytes += payload.len() as u64;
            st.block_owner.insert(loc.id(), (job, name.to_string()));
        }
        #[allow(clippy::expect_used)] // invariant documented in the message
        let entry = st
            .jobs
            .get_mut(&job)
            .expect("invariant: job resolved above under the same state lock");
        #[allow(clippy::expect_used)] // invariant documented in the message
        let node = entry
            .hierarchy
            .resolve_mut(name)
            .expect("invariant: prefix resolved above under the same state lock");
        node.ds = Some(meta);
        node.version += 1;
        node.flushed_to = Some(external_path.to_string());
        // The record captures the skeleton as loaded: the flush object
        // may be overwritten later, so replay must not re-read it.
        let op = JournalOp::PrefixLoaded {
            job,
            name: name.to_string(),
            path: external_path.to_string(),
            locs,
            skeleton: jiffy_proto::to_bytes(&record.skeleton)?,
        };
        Ok((bytes, vec![op]))
    }

    /// Reclaims a prefix's blocks (optionally flushing first). Used by
    /// `RemovePrefix` and lease expiry. Returns the reclaimed locations
    /// whose data-plane resets the caller must issue *after* journaling
    /// the removal (the flush-first path journals internally and
    /// returns an empty list).
    fn reclaim_prefix(
        &self,
        st: &mut CtrlState,
        job: JobId,
        name: &str,
        flush_first: bool,
        flush_path: Option<String>,
    ) -> Result<Vec<BlockLocation>> {
        if flush_first {
            let path =
                flush_path.unwrap_or_else(|| format!("jiffy-expired/{}/{}", job.raw(), name));
            self.flush_prefix(st, job, name, &path, true, true)?;
            return Ok(Vec::new());
        }
        let entry = st
            .jobs
            .get_mut(&job)
            .ok_or(JiffyError::UnknownJob(job.raw()))?;
        let Ok(node) = entry.hierarchy.resolve_mut(name) else {
            return Ok(Vec::new());
        };
        let locations = node.ds.as_ref().map(DsMeta::locations).unwrap_or_default();
        node.ds = None;
        node.version += 1;
        for loc in &locations {
            for r in &loc.chain {
                st.block_owner.remove(&r.block);
                let _ = st.freelist.release(r.block);
            }
        }
        Ok(locations)
    }

    /// Handles an overload signal: allocate, initialize, order the split,
    /// commit the new layout (paper Fig. 8). Also returns the journal
    /// ops for the caller to append.
    fn handle_overload(
        &self,
        st: &mut CtrlState,
        block: BlockId,
    ) -> Result<(Option<BlockLocation>, Option<SplitSpec>, Vec<JournalOp>)> {
        let Some((job, name)) = st.block_owner.get(&block).cloned() else {
            return Err(JiffyError::UnknownBlock(block.raw()));
        };
        let entry = st.jobs.get(&job).ok_or(JiffyError::UnknownJob(job.raw()))?;
        let node = entry.hierarchy.resolve(&name)?;
        let Some(meta) = &node.ds else {
            return Err(JiffyError::UnknownBlock(block.raw()));
        };
        let plan = match meta.plan_split(block) {
            Ok(p) => p,
            // Unsplittable (single hot slot / stale signal): no target.
            Err(_) => return Ok((None, None, Vec::new())),
        };
        let ds = meta.ds_type();
        // A split grows the owning tenant's footprint by one chain; a
        // quota- or share-bound tenant keeps serving from the hot block
        // instead of splitting (same graceful no-split as OutOfBlocks).
        let owner = entry.tenant;
        if self
            .check_allocation(st, owner, self.cfg.chain_length as u64)
            .is_err()
        {
            return Ok((None, None, Vec::new()));
        }
        let source_loc = st.freelist.location_of(block)?;
        let new_loc = match st.freelist.allocate_chain(self.cfg.chain_length) {
            Ok(l) => l,
            // Capacity exhausted: the block keeps serving; writes beyond
            // its capacity will fail and spill at the tier above.
            Err(JiffyError::OutOfBlocks) => return Ok((None, None, Vec::new())),
            Err(e) => return Err(e),
        };
        self.dataplane
            .init_block(&new_loc, ds, &plan.target_params)?;
        self.dataplane
            .split_block(&source_loc, &plan.spec, plan.moves_data.then_some(&new_loc))?;
        // Commit the layout.
        #[allow(clippy::expect_used)] // invariant documented in the message
        let entry = st
            .jobs
            .get_mut(&job)
            .expect("invariant: job resolved above under the same state lock");
        #[allow(clippy::expect_used)] // invariant documented in the message
        let node = entry
            .hierarchy
            .resolve_mut(&name)
            .expect("invariant: prefix resolved above under the same state lock");
        #[allow(clippy::expect_used)] // invariant documented in the message
        let meta = node
            .ds
            .as_mut()
            .expect("invariant: ds presence verified when planning the split");
        meta.commit_split(block, &plan.spec, new_loc.clone())?;
        node.version += 1;
        st.block_owner.insert(new_loc.id(), (job, name.clone()));
        st.counters.splits += 1;
        let op = JournalOp::SplitCommitted {
            job,
            name,
            source: block,
            spec: plan.spec.clone(),
            new_loc: new_loc.clone(),
        };
        Ok((Some(new_loc), Some(plan.spec), vec![op]))
    }

    /// Handles an underload signal: order the merge, commit, reclaim the
    /// drained block's metadata. Also returns the journal ops for the
    /// caller to append, plus the source location whose *data-plane*
    /// reset the caller must defer until after the append (resetting
    /// before the merge record is durable could orphan acked data).
    fn handle_underload(&self, st: &mut CtrlState, block: BlockId) -> Result<UnderloadOutcome> {
        let Some((job, name)) = st.block_owner.get(&block).cloned() else {
            return Err(JiffyError::UnknownBlock(block.raw()));
        };
        let entry = st.jobs.get(&job).ok_or(JiffyError::UnknownJob(job.raw()))?;
        let node = entry.hierarchy.resolve(&name)?;
        let Some(meta) = &node.ds else {
            return Err(JiffyError::UnknownBlock(block.raw()));
        };
        let Some(plan) = meta.plan_merge(block)? else {
            return Ok((None, None, Vec::new(), None));
        };
        let source_loc = st.freelist.location_of(block)?;
        // Pick the first candidate with room for the source's contents
        // without immediately re-crossing the high threshold.
        let target = if plan.candidates.is_empty() {
            None
        } else {
            let (src_used, _) = self.dataplane.block_usage(&source_loc)?;
            let mut chosen = None;
            for cand in &plan.candidates {
                let (used, capacity) = self.dataplane.block_usage(cand)?;
                let limit = (capacity as f64 * self.cfg.high_threshold) as u64;
                if used.saturating_add(src_used) < limit {
                    chosen = Some(cand.clone());
                    break;
                }
            }
            match chosen {
                Some(c) => Some(c),
                // No sibling has headroom: skip the merge.
                None => return Ok((None, None, Vec::new(), None)),
            }
        };
        // The merge can fail benignly (e.g. queue head not yet drained,
        // or the target filled concurrently): abort without touching
        // metadata — the server rolls the source back losslessly.
        if let Err(e) = self
            .dataplane
            .merge_block(&source_loc, &plan.spec, target.as_ref())
        {
            return match e {
                JiffyError::Internal(_) | JiffyError::BlockFull { .. } => {
                    Ok((None, None, Vec::new(), None))
                }
                other => Err(other),
            };
        }
        #[allow(clippy::expect_used)] // invariant documented in the message
        let entry = st
            .jobs
            .get_mut(&job)
            .expect("invariant: job resolved above under the same state lock");
        #[allow(clippy::expect_used)] // invariant documented in the message
        let node = entry
            .hierarchy
            .resolve_mut(&name)
            .expect("invariant: prefix resolved above under the same state lock");
        #[allow(clippy::expect_used)] // invariant documented in the message
        let meta = node
            .ds
            .as_mut()
            .expect("invariant: ds presence verified when planning the merge");
        meta.commit_merge(block, &plan.spec, target.as_ref())?;
        node.version += 1;
        let mut released = Vec::with_capacity(source_loc.chain.len());
        for r in &source_loc.chain {
            st.block_owner.remove(&r.block);
            let _ = st.freelist.release(r.block);
            released.push(r.block);
        }
        st.counters.merges += 1;
        let op = JournalOp::MergeCommitted {
            job,
            name,
            source: block,
            spec: plan.spec.clone(),
            target: target.clone(),
            released,
        };
        Ok((target, Some(plan.spec), vec![op], Some(source_loc)))
    }

    /// Finds the logical chain a physical block belongs to, along with
    /// its owning job and prefix. Linear in the number of live chains;
    /// only walked on the (rare) drain and failure paths.
    fn find_chain_of(st: &CtrlState, block: BlockId) -> Option<(JobId, String, BlockLocation)> {
        for (job, entry) in &st.jobs {
            for name in entry.hierarchy.names() {
                let Some(node) = entry.hierarchy.get(&name) else {
                    continue;
                };
                let Some(meta) = &node.ds else {
                    continue;
                };
                for loc in meta.locations() {
                    if loc.chain.iter().any(|r| r.block == block) {
                        return Some((*job, name, loc));
                    }
                }
            }
        }
        None
    }

    /// Live-migrates one logical chain to freshly allocated blocks
    /// (paper §3.3 discipline): seal the source so its image freezes
    /// while reads keep serving, copy it out, stand the copy up
    /// elsewhere, atomically swap the metadata entry under the state
    /// lock, then retire the source behind a `BlockMoved` redirect. A
    /// client op racing the move lands exactly once — at the old home
    /// before the seal, or at the new home after a retryable error
    /// (`StaleMetadata` / `BlockMoved`) and a refresh.
    fn migrate_logical(
        &self,
        st: &mut CtrlState,
        job: JobId,
        name: &str,
        old_loc: &BlockLocation,
    ) -> Result<BlockLocation> {
        // Target init params mirror the load path: initialize empty and
        // absorb the frozen image (the export carries all chunk / range
        // state, so KV mirrors start with no owned ranges).
        let (ds, params) = {
            let entry = st.jobs.get(&job).ok_or(JiffyError::UnknownJob(job.raw()))?;
            let node = entry.hierarchy.resolve(name)?;
            let meta = node
                .ds
                .as_ref()
                .ok_or(JiffyError::UnknownBlock(old_loc.id().raw()))?;
            let params = match meta.skeleton() {
                DsSkeleton::Kv { num_slots, .. } => jiffy_proto::to_bytes(&InitKvMirror {
                    ranges: vec![],
                    num_slots,
                })?,
                _ => Vec::new(),
            };
            (meta.ds_type(), params)
        };
        // 1. Seal: mutations bounce with StaleMetadata (clients refresh
        //    and retry); reads keep serving from the old tail.
        self.dataplane.seal_block(old_loc, true)?;
        // 2. Copy the now-frozen image out of the old tail, replay
        //    window included: a write retried across the migration
        //    re-resolves to the new home and must still be answered
        //    from the window rather than re-executed.
        let (payload, replay) = match self.dataplane.export_block(old_loc) {
            Ok(p) => p,
            Err(e) => {
                let _ = self.dataplane.seal_block(old_loc, false);
                return Err(e);
            }
        };
        // 3. Stand up the replacement chain and absorb the image.
        let new_loc = match st.freelist.allocate_chain(old_loc.chain.len()) {
            Ok(l) => l,
            Err(e) => {
                let _ = self.dataplane.seal_block(old_loc, false);
                return Err(e);
            }
        };
        let staged = self
            .dataplane
            .init_block(&new_loc, ds, &params)
            .and_then(|()| {
                self.dataplane
                    .import_payload(&new_loc, &Blob::new(payload), &replay)
            });
        if let Err(e) = staged {
            let _ = self.dataplane.reset_block(&new_loc);
            for r in &new_loc.chain {
                let _ = st.freelist.release(r.block);
            }
            let _ = self.dataplane.seal_block(old_loc, false);
            return Err(e);
        }
        // 4. Swap the metadata entry. The state lock is already held, so
        //    clients observe either the old or the new location, never a
        //    gap; the version bump invalidates cached views.
        let swap = (|| -> Result<()> {
            let entry = st
                .jobs
                .get_mut(&job)
                .ok_or(JiffyError::UnknownJob(job.raw()))?;
            let node = entry.hierarchy.resolve_mut(name)?;
            let meta = node
                .ds
                .as_mut()
                .ok_or(JiffyError::UnknownBlock(old_loc.id().raw()))?;
            meta.replace_location(old_loc.id(), new_loc.clone())?;
            node.version += 1;
            Ok(())
        })();
        if let Err(e) = swap {
            let _ = self.dataplane.reset_block(&new_loc);
            for r in &new_loc.chain {
                let _ = st.freelist.release(r.block);
            }
            let _ = self.dataplane.seal_block(old_loc, false);
            return Err(e);
        }
        st.block_owner.remove(&old_loc.id());
        st.block_owner.insert(new_loc.id(), (job, name.to_string()));
        // 4b. Journal the new placement before the sources are retired:
        //     past this append the image's only copy may live on the
        //     new chain, so replay must already route there. (The old
        //     chain is still allocated in this record; the caller's
        //     closing rewrite covers its release.)
        let op = self.rewrite_op(st)?;
        self.journal_append(st, vec![op])?;
        // 5. Retire the sources: each keeps a redirect tombstone, so an
        //    op that raced the swap gets BlockMoved (retryable) rather
        //    than a stale answer. Best-effort — a dead source just means
        //    the client refreshes via Unavailable instead.
        let _ = self.dataplane.retire_block(old_loc, new_loc.head());
        // 6. Give the sources back (parked when their home is leaving).
        for r in &old_loc.chain {
            st.block_owner.remove(&r.block);
            let _ = st.freelist.release(r.block);
        }
        st.counters.blocks_migrated += old_loc.chain.len() as u64;
        Ok(new_loc)
    }

    /// Migrates every live chain off `server` (marked Draining first so
    /// nothing new lands there), returning how many of its physical
    /// blocks were moved. The server still holds no data afterwards and
    /// can be deregistered.
    fn drain_server_locked(&self, st: &mut CtrlState, server: ServerId) -> Result<u32> {
        st.freelist.mark_draining(server)?;
        let mut migrated = 0u32;
        loop {
            let used = st.freelist.used_blocks_on(server)?;
            let Some(block) = used.first().copied() else {
                break;
            };
            let Some((job, name, loc)) = Self::find_chain_of(st, block) else {
                return Err(JiffyError::Internal(format!(
                    "block blk-{} on draining srv-{} has no owning prefix",
                    block.raw(),
                    server.raw()
                )));
            };
            self.migrate_logical(st, job, &name, &loc)?;
            migrated += loc.chain.iter().filter(|r| r.server == server).count() as u32;
        }
        Ok(migrated)
    }

    /// Re-routes everything homed on a failed server (heartbeat timeout
    /// or explicit kill). Chains with surviving replicas are promoted in
    /// place; wholly-lost chains reload the whole prefix from the
    /// persistent tier when it was flushed and nothing else of it
    /// survives, and otherwise keep their stale location so clients see
    /// a clean, bounded `Unavailable` instead of a hang.
    pub fn handle_server_failure(&self, server: ServerId) -> Result<()> {
        let mut st = self.state.lock();
        // Failure handling journals its re-routing under the state lock.
        // xtask-allow(no-guard-across-rpc): journal order equals mutation order (DESIGN.md §11)
        self.handle_server_failure_locked(&mut st, server)
    }

    fn handle_server_failure_locked(&self, st: &mut CtrlState, server: ServerId) -> Result<()> {
        let lost = st.freelist.mark_dead(server)?;
        st.detector.forget(server);
        st.counters.servers_failed += 1;
        let mut seen: HashSet<BlockId> = HashSet::new();
        let mut promotions: Vec<(JobId, String, BlockLocation, BlockLocation)> = Vec::new();
        let mut wholly_dead: Vec<(JobId, String, BlockLocation)> = Vec::new();
        for block in &lost {
            let Some((job, name, loc)) = Self::find_chain_of(st, *block) else {
                continue;
            };
            if !seen.insert(loc.id()) {
                continue;
            }
            let survivors: Vec<Replica> = loc
                .chain
                .iter()
                .filter(|r| {
                    st.freelist
                        .state_of(r.server)
                        .is_ok_and(|s| s != ServerState::Dead)
                })
                .cloned()
                .collect();
            if survivors.is_empty() {
                wholly_dead.push((job, name, loc));
            } else if survivors.len() < loc.chain.len() {
                promotions.push((job, name, loc.clone(), BlockLocation { chain: survivors }));
            }
        }
        for (job, name, old, new) in promotions {
            let swapped = {
                let Some(entry) = st.jobs.get_mut(&job) else {
                    continue;
                };
                let Ok(node) = entry.hierarchy.resolve_mut(&name) else {
                    continue;
                };
                let Some(meta) = node.ds.as_mut() else {
                    continue;
                };
                let ok = meta.replace_location(old.id(), new.clone()).is_ok();
                if ok {
                    node.version += 1;
                }
                ok
            };
            if swapped && old.id() != new.id() {
                st.block_owner.remove(&old.id());
                st.block_owner.insert(new.id(), (job, name.clone()));
            }
            for r in old.chain.iter().filter(|r| r.server == server) {
                st.block_owner.remove(&r.block);
                let _ = st.freelist.release(r.block);
            }
        }
        let mut reload_candidates: HashSet<(JobId, String)> = HashSet::new();
        for (job, name, old) in &wholly_dead {
            for r in &old.chain {
                st.block_owner.remove(&r.block);
                let _ = st.freelist.release(r.block);
            }
            reload_candidates.insert((*job, name.clone()));
        }
        for (job, name) in reload_candidates {
            let (reloadable, path) = {
                let Some(entry) = st.jobs.get(&job) else {
                    continue;
                };
                let Ok(node) = entry.hierarchy.resolve(&name) else {
                    continue;
                };
                let Some(meta) = &node.ds else {
                    continue;
                };
                let all_dead = meta.locations().iter().all(|loc| {
                    loc.chain.iter().all(|r| {
                        !st.freelist
                            .state_of(r.server)
                            .is_ok_and(|s| s != ServerState::Dead)
                    })
                });
                (
                    all_dead && node.flushed_to.is_some(),
                    node.flushed_to.clone(),
                )
            };
            let (true, Some(path)) = (reloadable, path) else {
                continue;
            };
            // Drop the dead incarnation, then restore the flushed image
            // into fresh blocks on live servers.
            let locations = {
                let Some(entry) = st.jobs.get(&job) else {
                    continue;
                };
                let Ok(node) = entry.hierarchy.resolve(&name) else {
                    continue;
                };
                node.ds.as_ref().map(DsMeta::locations).unwrap_or_default()
            };
            for loc in &locations {
                for r in &loc.chain {
                    st.block_owner.remove(&r.block);
                    let _ = st.freelist.release(r.block);
                }
            }
            {
                let Some(entry) = st.jobs.get_mut(&job) else {
                    continue;
                };
                let Ok(node) = entry.hierarchy.resolve_mut(&name) else {
                    continue;
                };
                node.ds = None;
                node.version += 1;
            }
            let _ = self.load_prefix(st, job, &name, &path);
        }
        // Failure handling is a multi-step transition (promotions,
        // releases, reloads); checkpoint the outcome wholesale.
        let op = self.rewrite_op(st)?;
        self.journal_append(st, vec![op])?;
        Ok(())
    }

    /// One failure-detector sweep: servers whose last heartbeat is older
    /// than `cfg.heartbeat_timeout` are declared dead and their blocks
    /// re-routed. Returns the servers that expired this pass.
    pub fn run_failure_detector_once(&self) -> Vec<ServerId> {
        let now = self.clock.now();
        let mut st = self.state.lock();
        let expired = st.detector.expired(now, self.cfg.heartbeat_timeout);
        for server in &expired {
            // xtask-allow(no-guard-across-rpc): journal order equals mutation order (DESIGN.md §11)
            let _ = self.handle_server_failure_locked(&mut st, *server);
        }
        expired
    }

    /// Installs (or replaces) the autoscaler policy and the provider it
    /// acts through. Until this is called, [`Controller::run_autoscaler_once`]
    /// always holds.
    pub fn set_autoscaler(&self, policy: AutoscalerPolicy, provider: Arc<dyn ServerProvider>) {
        let mut hooks = self.elastic.lock();
        hooks.policy = Some(policy);
        hooks.provider = Some(provider);
    }

    /// One pass of the demand-driven autoscaler: the decision is
    /// computed under the state lock from per-server free-block
    /// watermarks, but the provider acts WITHOUT it held — an
    /// in-process provider calls straight back into
    /// [`Controller::dispatch`] and would deadlock otherwise.
    pub fn run_autoscaler_once(&self) -> ScaleDecision {
        let (policy, provider) = {
            let hooks = self.elastic.lock();
            match (hooks.policy, hooks.provider.clone()) {
                (Some(p), Some(pr)) => (p, pr),
                _ => return ScaleDecision::Hold,
            }
        };
        let decision = {
            let st = self.state.lock();
            policy.decide(&st.freelist.server_loads())
        };
        match decision {
            ScaleDecision::Hold => {}
            ScaleDecision::ScaleUp => {
                if provider.provision().is_ok() {
                    let mut st = self.state.lock();
                    st.counters.scale_ups += 1;
                    // xtask-allow(no-guard-across-rpc): journal order equals mutation order (DESIGN.md §11)
                    let _ = self.journal_append(&mut st, vec![JournalOp::ScaleEvent { up: true }]);
                }
            }
            ScaleDecision::ScaleDown { victim } => {
                // Drain first (LeaveServer migrates every live chain off
                // the victim), then hand the empty server back.
                if self
                    .dispatch(ControlRequest::LeaveServer { server: victim })
                    .is_ok()
                {
                    let _ = provider.decommission(victim);
                    let mut st = self.state.lock();
                    st.counters.scale_downs += 1;
                    // xtask-allow(no-guard-across-rpc): journal order equals mutation order (DESIGN.md §11)
                    let _ = self.journal_append(&mut st, vec![JournalOp::ScaleEvent { up: false }]);
                }
            }
        }
        decision
    }

    /// Spawns the elasticity worker: every `cfg.elasticity_interval` it
    /// sweeps the failure detector and runs one autoscaler pass. Stops
    /// when the returned handle drops. Only meaningful with a real-time
    /// clock.
    pub fn start_elasticity_worker(self: &Arc<Self>) -> ControllerHandle {
        let (ctrl, interval) = (Arc::clone(self), self.cfg.elasticity_interval);
        ControllerHandle::spawn("jiffy-elasticity", interval, move || {
            ctrl.run_failure_detector_once();
            ctrl.run_autoscaler_once();
        })
    }

    /// One pass of the lease-expiry worker: flush and reclaim every
    /// prefix whose lease lapsed. Returns the reclaimed prefix names.
    pub fn run_expiry_once(&self) -> Vec<(JobId, String)> {
        let now = self.clock.now();
        let mut st = self.state.lock();
        let mut expired: Vec<(JobId, String)> = Vec::new();
        for (job, entry) in &st.jobs {
            for name in entry.hierarchy.expired(now, self.cfg.lease_duration) {
                // Only prefixes that still hold memory need reclamation.
                if entry.hierarchy.get(&name).is_some_and(|n| n.ds.is_some()) {
                    expired.push((*job, name));
                }
            }
        }
        for (job, name) in &expired {
            let _ = self.reclaim_prefix(&mut st, *job, name, true, None);
        }
        expired
    }

    /// Spawns a background thread running [`Controller::run_expiry_once`]
    /// every `cfg.lease_scan_interval` until the returned handle is
    /// dropped. Only meaningful with a real-time clock.
    pub fn start_expiry_worker(self: &Arc<Self>) -> ControllerHandle {
        let (ctrl, interval) = (Arc::clone(self), self.cfg.lease_scan_interval);
        ControllerHandle::spawn("jiffy-lease-expiry", interval, move || {
            ctrl.run_expiry_once();
        })
    }

    fn stats_locked(&self, st: &CtrlState) -> ControllerStats {
        let prefixes: u64 = st.jobs.values().map(|j| j.hierarchy.len() as u64).sum();
        let metadata_bytes: u64 = st.jobs.values().map(|j| j.hierarchy.metadata_bytes()).sum();
        let servers = st
            .freelist
            .server_loads()
            .iter()
            .filter(|l| l.state == ServerState::Alive)
            .count() as u64;
        ControllerStats {
            free_blocks: st.freelist.free_count() as u64,
            total_blocks: st.freelist.total_count() as u64,
            jobs: st.jobs.len() as u64,
            prefixes,
            ops_served: st.counters.ops_served,
            leases_expired: st.counters.leases_expired,
            splits: st.counters.splits,
            merges: st.counters.merges,
            metadata_bytes,
            servers,
            servers_failed: st.counters.servers_failed,
            blocks_migrated: st.counters.blocks_migrated,
            scale_ups: st.counters.scale_ups,
            scale_downs: st.counters.scale_downs,
        }
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> ControllerStats {
        let st = self.state.lock();
        self.stats_locked(&st)
    }
}

/// Mirror of `jiffy-ds`'s KV init params for the load path (same wire
/// layout; see `crate::meta` for the rationale).
#[derive(Serialize, Deserialize)]
struct InitKvMirror {
    ranges: Vec<(u32, u32)>,
    num_slots: u32,
}

/// Handle keeping an expiry or elasticity worker alive; stops it on drop.
pub struct ControllerHandle {
    stop: Arc<StopSignal>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ControllerHandle {
    /// Spawns a worker that waits `interval`, runs `tick`, and repeats
    /// until the handle stops it.
    fn spawn(
        name: &str,
        interval: std::time::Duration,
        mut tick: impl FnMut() + Send + 'static,
    ) -> Self {
        let stop = Arc::new(StopSignal::new());
        let stop2 = stop.clone();
        #[allow(clippy::expect_used)] // invariant documented in the message
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                while !stop2.wait(interval) {
                    tick();
                }
            })
            .expect("invariant: thread spawn fails only on OS resource exhaustion");
        Self {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the worker and waits for it (and its tick in flight) to exit.
    pub fn stop(&mut self) {
        self.stop.stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ControllerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jiffy_common::clock::ManualClock;
    use jiffy_persistent::MemObjectStore;
    use std::time::Duration;

    fn controller() -> (Arc<Controller>, Arc<ManualClock>, Arc<MemObjectStore>) {
        controller_with(JiffyConfig::for_testing())
    }

    fn controller_with(
        cfg: JiffyConfig,
    ) -> (Arc<Controller>, Arc<ManualClock>, Arc<MemObjectStore>) {
        let (clock, shared) = ManualClock::shared();
        let store = Arc::new(MemObjectStore::new());
        let ctrl = Controller::new(cfg, shared, Arc::new(NoopDataPlane), store.clone()).unwrap();
        (ctrl, clock, store)
    }

    fn register(ctrl: &Controller) -> JobId {
        match ctrl
            .dispatch(ControlRequest::RegisterJob {
                name: "test".into(),
            })
            .unwrap()
        {
            ControlResponse::JobRegistered { job } => job,
            other => panic!("{other:?}"),
        }
    }

    fn add_server(ctrl: &Controller, blocks: u32) {
        ctrl.dispatch(ControlRequest::JoinServer {
            addr: "inproc:0".into(),
            capacity_blocks: blocks,
        })
        .unwrap();
    }

    #[test]
    fn job_lifecycle_and_stats() {
        let (ctrl, _clock, _) = controller();
        add_server(&ctrl, 8);
        let job = register(&ctrl);
        ctrl.dispatch(ControlRequest::CreatePrefix {
            job,
            name: "t1".into(),
            parents: vec![],
            ds: Some(DsType::KvStore),
            initial_blocks: 2,
        })
        .unwrap();
        let stats = ctrl.stats();
        assert_eq!(stats.jobs, 1);
        assert_eq!(stats.prefixes, 1);
        assert_eq!(stats.total_blocks, 8);
        assert_eq!(stats.free_blocks, 6);
        ctrl.dispatch(ControlRequest::DeregisterJob { job })
            .unwrap();
        let stats = ctrl.stats();
        assert_eq!(stats.jobs, 0);
        assert_eq!(stats.free_blocks, 8);
    }

    #[test]
    fn resolve_returns_partition_views() {
        let (ctrl, _clock, _) = controller();
        add_server(&ctrl, 8);
        let job = register(&ctrl);
        ctrl.dispatch(ControlRequest::CreatePrefix {
            job,
            name: "kv".into(),
            parents: vec![],
            ds: Some(DsType::KvStore),
            initial_blocks: 2,
        })
        .unwrap();
        match ctrl
            .dispatch(ControlRequest::ResolvePrefix {
                job,
                name: "kv".into(),
            })
            .unwrap()
        {
            ControlResponse::Resolved(view) => {
                assert_eq!(view.ds, Some(DsType::KvStore));
                match view.partition.unwrap() {
                    jiffy_proto::PartitionView::Kv { num_slots, slots } => {
                        assert_eq!(num_slots, 1024);
                        assert_eq!(slots.len(), 2);
                        assert_eq!(slots[0].lo, 0);
                        assert_eq!(slots[1].hi, 1023);
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_job_and_prefix_errors() {
        let (ctrl, _clock, _) = controller();
        assert!(matches!(
            ctrl.dispatch(ControlRequest::ResolvePrefix {
                job: JobId(9),
                name: "x".into()
            }),
            Err(JiffyError::UnknownJob(9))
        ));
        let job = register(&ctrl);
        assert!(matches!(
            ctrl.dispatch(ControlRequest::ResolvePrefix {
                job,
                name: "ghost".into()
            }),
            Err(JiffyError::PathNotFound(_))
        ));
    }

    #[test]
    fn create_hierarchy_builds_the_dag() {
        let (ctrl, _clock, _) = controller();
        add_server(&ctrl, 16);
        let job = register(&ctrl);
        let nodes = vec![
            DagNodeSpec {
                name: "map".into(),
                parents: vec![],
                ds: Some(DsType::File),
                initial_blocks: 1,
            },
            DagNodeSpec {
                name: "reduce".into(),
                parents: vec!["map".into()],
                ds: Some(DsType::File),
                initial_blocks: 1,
            },
        ];
        ctrl.dispatch(ControlRequest::CreateHierarchy { job, nodes })
            .unwrap();
        match ctrl.dispatch(ControlRequest::ListPrefixes { job }).unwrap() {
            ControlResponse::Prefixes(p) => assert_eq!(p, vec!["map", "reduce"]),
            other => panic!("{other:?}"),
        }
        // Dotted path resolution works.
        assert!(matches!(
            ctrl.dispatch(ControlRequest::ResolvePrefix {
                job,
                name: "map.reduce".into()
            }),
            Ok(ControlResponse::Resolved(_))
        ));
    }

    #[test]
    fn lease_renewal_propagates_and_expiry_reclaims() {
        let (ctrl, clock, store) = controller();
        add_server(&ctrl, 8);
        let job = register(&ctrl);
        for (name, parents) in [("a", vec![]), ("b", vec!["a".to_string()])] {
            ctrl.dispatch(ControlRequest::CreatePrefix {
                job,
                name: name.into(),
                parents,
                ds: Some(DsType::File),
                initial_blocks: 1,
            })
            .unwrap();
        }
        // Renew "a": renews a and its descendant b.
        clock.advance(Duration::from_millis(500));
        match ctrl
            .dispatch(ControlRequest::RenewLease {
                job,
                name: "a".into(),
            })
            .unwrap()
        {
            ControlResponse::LeaseRenewed { renewed, .. } => {
                assert_eq!(renewed.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        // Advance past the lease (1 s for the test config).
        clock.advance(Duration::from_secs(2));
        let expired = ctrl.run_expiry_once();
        assert_eq!(expired.len(), 2);
        let stats = ctrl.stats();
        assert_eq!(stats.leases_expired, 2);
        assert_eq!(stats.free_blocks, 8, "blocks reclaimed");
        // Data was flushed to the auto path before reclamation.
        assert!(store.exists(&format!("jiffy-expired/{}/a", job.raw())));
        assert!(store.exists(&format!("jiffy-expired/{}/b", job.raw())));
        // A second pass reclaims nothing further.
        assert!(ctrl.run_expiry_once().is_empty());
    }

    #[test]
    fn renewals_prevent_expiry() {
        let (ctrl, clock, _) = controller();
        add_server(&ctrl, 4);
        let job = register(&ctrl);
        ctrl.dispatch(ControlRequest::CreatePrefix {
            job,
            name: "live".into(),
            parents: vec![],
            ds: Some(DsType::Queue),
            initial_blocks: 1,
        })
        .unwrap();
        for _ in 0..5 {
            clock.advance(Duration::from_millis(800));
            ctrl.dispatch(ControlRequest::RenewLease {
                job,
                name: "live".into(),
            })
            .unwrap();
            assert!(ctrl.run_expiry_once().is_empty());
        }
    }

    #[test]
    fn flush_and_load_round_trip_via_persistent_tier() {
        let (ctrl, _clock, store) = controller();
        add_server(&ctrl, 8);
        let job = register(&ctrl);
        ctrl.dispatch(ControlRequest::CreatePrefix {
            job,
            name: "t".into(),
            parents: vec![],
            ds: Some(DsType::KvStore),
            initial_blocks: 1,
        })
        .unwrap();
        match ctrl
            .dispatch(ControlRequest::FlushPrefix {
                job,
                name: "t".into(),
                external_path: "s3/ckpt".into(),
            })
            .unwrap()
        {
            ControlResponse::Persisted { .. } => {}
            other => panic!("{other:?}"),
        }
        assert!(store.exists("s3/ckpt"));
        // Remove and reload.
        ctrl.dispatch(ControlRequest::RemovePrefix {
            job,
            name: "t".into(),
        })
        .unwrap();
        ctrl.dispatch(ControlRequest::CreatePrefix {
            job,
            name: "t".into(),
            parents: vec![],
            ds: None,
            initial_blocks: 0,
        })
        .unwrap();
        ctrl.dispatch(ControlRequest::LoadPrefix {
            job,
            name: "t".into(),
            external_path: "s3/ckpt".into(),
        })
        .unwrap();
        match ctrl
            .dispatch(ControlRequest::ResolvePrefix {
                job,
                name: "t".into(),
            })
            .unwrap()
        {
            ControlResponse::Resolved(view) => {
                assert_eq!(view.ds, Some(DsType::KvStore));
                assert!(view.partition.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn overload_allocates_and_commits_split() {
        let (ctrl, _clock, _) = controller();
        add_server(&ctrl, 4);
        let job = register(&ctrl);
        ctrl.dispatch(ControlRequest::CreatePrefix {
            job,
            name: "kv".into(),
            parents: vec![],
            ds: Some(DsType::KvStore),
            initial_blocks: 1,
        })
        .unwrap();
        let block = match ctrl
            .dispatch(ControlRequest::ResolvePrefix {
                job,
                name: "kv".into(),
            })
            .unwrap()
        {
            ControlResponse::Resolved(v) => v.partition.unwrap().blocks()[0].id(),
            other => panic!("{other:?}"),
        };
        match ctrl
            .dispatch(ControlRequest::ReportOverload { block, used: 999 })
            .unwrap()
        {
            ControlResponse::SplitTarget { target, spec } => {
                assert!(target.is_some());
                assert_eq!(spec, Some(SplitSpec::KvSlots { lo: 512, hi: 1023 }));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(ctrl.stats().splits, 1);
        // The view now shows two blocks and a bumped version.
        match ctrl
            .dispatch(ControlRequest::ResolvePrefix {
                job,
                name: "kv".into(),
            })
            .unwrap()
        {
            ControlResponse::Resolved(v) => {
                assert_eq!(v.partition.unwrap().blocks().len(), 2);
                assert_eq!(v.version, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn overload_without_free_blocks_returns_no_target() {
        let (ctrl, _clock, _) = controller();
        add_server(&ctrl, 1);
        let job = register(&ctrl);
        ctrl.dispatch(ControlRequest::CreatePrefix {
            job,
            name: "kv".into(),
            parents: vec![],
            ds: Some(DsType::KvStore),
            initial_blocks: 1,
        })
        .unwrap();
        let block = BlockId(0);
        match ctrl
            .dispatch(ControlRequest::ReportOverload { block, used: 999 })
            .unwrap()
        {
            ControlResponse::SplitTarget { target, spec } => {
                assert!(target.is_none());
                assert!(spec.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn underload_merges_kv_blocks() {
        let (ctrl, _clock, _) = controller();
        add_server(&ctrl, 4);
        let job = register(&ctrl);
        ctrl.dispatch(ControlRequest::CreatePrefix {
            job,
            name: "kv".into(),
            parents: vec![],
            ds: Some(DsType::KvStore),
            initial_blocks: 2,
        })
        .unwrap();
        let blocks = match ctrl
            .dispatch(ControlRequest::ResolvePrefix {
                job,
                name: "kv".into(),
            })
            .unwrap()
        {
            ControlResponse::Resolved(v) => v
                .partition
                .unwrap()
                .blocks()
                .iter()
                .map(|l| l.id())
                .collect::<Vec<_>>(),
            other => panic!("{other:?}"),
        };
        match ctrl
            .dispatch(ControlRequest::ReportUnderload {
                block: blocks[1],
                used: 1,
            })
            .unwrap()
        {
            ControlResponse::MergeTarget { target, spec } => {
                assert_eq!(target.unwrap().id(), blocks[0]);
                assert_eq!(spec, Some(MergeSpec::KvAbsorb));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(ctrl.stats().merges, 1);
        assert_eq!(ctrl.stats().free_blocks, 3, "merged block reclaimed");
    }

    #[test]
    fn metadata_overhead_matches_the_paper() {
        // §6.4: 64 B per task + 8 B per block. For 128 MB blocks this is
        // < 0.0001 % of stored data.
        let (ctrl, _clock, _) = controller();
        add_server(&ctrl, 8);
        let job = register(&ctrl);
        ctrl.dispatch(ControlRequest::CreatePrefix {
            job,
            name: "t1".into(),
            parents: vec![],
            ds: Some(DsType::File),
            initial_blocks: 4,
        })
        .unwrap();
        let stats = ctrl.stats();
        assert_eq!(stats.metadata_bytes, 64 + 4 * 8);
        let data_bytes = 4u64 * 128 * 1024 * 1024;
        let overhead = stats.metadata_bytes as f64 / data_bytes as f64;
        assert!(overhead < 0.000_001, "{overhead}");
    }

    #[test]
    fn out_of_blocks_on_create_rolls_back() {
        let (ctrl, _clock, _) = controller();
        add_server(&ctrl, 2);
        let job = register(&ctrl);
        let err = ctrl
            .dispatch(ControlRequest::CreatePrefix {
                job,
                name: "big".into(),
                parents: vec![],
                ds: Some(DsType::KvStore),
                initial_blocks: 5,
            })
            .unwrap_err();
        assert!(matches!(err, JiffyError::OutOfBlocks));
        // Nothing leaked: blocks free, node gone.
        assert_eq!(ctrl.stats().free_blocks, 2);
        assert!(ctrl
            .dispatch(ControlRequest::ResolvePrefix {
                job,
                name: "big".into()
            })
            .is_err());
    }

    // ----- crash recovery (DESIGN.md §11) -------------------------------

    /// Recovers a controller from whatever `store` holds, sharing the
    /// original manual clock.
    fn recover(clock: &Arc<ManualClock>, store: &Arc<MemObjectStore>) -> Arc<Controller> {
        let shared: SharedClock = clock.clone();
        Controller::recover(
            JiffyConfig::for_testing(),
            shared,
            Arc::new(NoopDataPlane),
            store.clone(),
        )
        .unwrap()
    }

    fn assert_recovered_matches(live: &Controller, recovered: &Controller) {
        let violations = recovered.check_invariants();
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(
            live.state_mirror().normalized(),
            recovered.state_mirror().normalized()
        );
    }

    #[test]
    fn recovery_rebuilds_the_exact_state_mirror() {
        let (ctrl, _clock, store) = controller();
        add_server(&ctrl, 8);
        add_server(&ctrl, 4);
        let job = register(&ctrl);
        for (name, ds) in [
            ("kv", Some(DsType::KvStore)),
            ("file", Some(DsType::File)),
            ("bare", None),
        ] {
            ctrl.dispatch(ControlRequest::CreatePrefix {
                job,
                name: name.into(),
                parents: vec![],
                ds,
                initial_blocks: u32::from(ds.is_some()) * 2,
            })
            .unwrap();
        }
        ctrl.dispatch(ControlRequest::AddParent {
            job,
            name: "kv".into(),
            parent: "bare".into(),
        })
        .unwrap();
        ctrl.dispatch(ControlRequest::FlushPrefix {
            job,
            name: "file".into(),
            external_path: "ext/file".into(),
        })
        .unwrap();
        ctrl.dispatch(ControlRequest::RemovePrefix {
            job,
            name: "file".into(),
        })
        .unwrap();

        let recovered = recover(&_clock, &store);
        assert_recovered_matches(&ctrl, &recovered);
        // Structural stats agree too (ops_served is liveness, not state).
        let (a, b) = (ctrl.stats(), recovered.stats());
        assert_eq!(a.free_blocks, b.free_blocks);
        assert_eq!(a.total_blocks, b.total_blocks);
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.prefixes, b.prefixes);
        // And the recovered controller keeps working: fresh ids don't
        // collide, allocation proceeds from the recovered freelist.
        let job2 = register(&recovered);
        assert!(job2.raw() > job.raw());
        recovered
            .dispatch(ControlRequest::CreatePrefix {
                job: job2,
                name: "more".into(),
                parents: vec![],
                ds: Some(DsType::KvStore),
                initial_blocks: 2,
            })
            .unwrap();
        assert!(recovered.check_invariants().is_empty());
    }

    #[test]
    fn recovery_resumes_from_a_snapshot_plus_journal_suffix() {
        let (ctrl, _clock, store) = controller();
        add_server(&ctrl, 8);
        let job = register(&ctrl);
        ctrl.dispatch(ControlRequest::CreatePrefix {
            job,
            name: "kv".into(),
            parents: vec![],
            ds: Some(DsType::KvStore),
            initial_blocks: 2,
        })
        .unwrap();
        ctrl.snapshot_now().unwrap();
        // Mutations after the snapshot land in the journal suffix.
        ctrl.dispatch(ControlRequest::CreatePrefix {
            job,
            name: "post".into(),
            parents: vec![],
            ds: Some(DsType::File),
            initial_blocks: 1,
        })
        .unwrap();
        let recovered = recover(&_clock, &store);
        assert_recovered_matches(&ctrl, &recovered);
    }

    #[test]
    fn recovery_rearms_leases_instead_of_inheriting_stale_ones() {
        let (ctrl, clock, store) = controller();
        add_server(&ctrl, 8);
        let job = register(&ctrl);
        ctrl.dispatch(ControlRequest::CreatePrefix {
            job,
            name: "kv".into(),
            parents: vec![],
            ds: Some(DsType::KvStore),
            initial_blocks: 2,
        })
        .unwrap();
        // Let the lease lapse *on the wire*: the journal still records
        // the creation-time renewal, but a restart must not trust it.
        clock.advance(Duration::from_millis(1500));
        let recovered = recover(&clock, &store);
        assert!(
            recovered.run_expiry_once().is_empty(),
            "a recovered lease must get a fresh full TTL"
        );
        // From the recovery instant the normal TTL applies again.
        clock.advance(Duration::from_millis(1100));
        let expired = recovered.run_expiry_once();
        assert_eq!(expired, vec![(job, "kv".to_string())]);
        assert_eq!(recovered.stats().leases_expired, 1);
    }

    #[test]
    fn expiry_flush_and_reclaim_happen_exactly_once_across_restart() {
        let (ctrl, clock, store) = controller();
        add_server(&ctrl, 8);
        let job = register(&ctrl);
        ctrl.dispatch(ControlRequest::CreatePrefix {
            job,
            name: "kv".into(),
            parents: vec![],
            ds: Some(DsType::KvStore),
            initial_blocks: 2,
        })
        .unwrap();
        clock.advance(Duration::from_millis(1100));
        assert_eq!(ctrl.run_expiry_once().len(), 1);
        assert_eq!(ctrl.stats().leases_expired, 1);
        assert_eq!(ctrl.stats().free_blocks, 8);

        // Crash after the expiry was journaled: the new incarnation
        // must see the prefix as already flushed+reclaimed, not expire
        // it a second time (double release would corrupt the freelist).
        let recovered = recover(&clock, &store);
        assert_recovered_matches(&ctrl, &recovered);
        clock.advance(Duration::from_millis(1100));
        assert!(recovered.run_expiry_once().is_empty());
        assert_eq!(recovered.stats().leases_expired, 1);
        assert_eq!(recovered.stats().free_blocks, 8);
    }

    #[test]
    fn replay_is_idempotent_when_truncation_failed_mid_snapshot() {
        // A crash can leave a snapshot *and* the journal records it
        // covers (truncation is best-effort). Replay must dedupe by
        // sequence number, not double-apply.
        let (clock, shared) = ManualClock::shared();
        let store = Arc::new(MemObjectStore::new());
        let cfg = JiffyConfig::for_testing().with_meta_snapshot_every(0);
        let ctrl = Controller::new(cfg, shared, Arc::new(NoopDataPlane), store.clone()).unwrap();
        add_server(&ctrl, 8);
        let job = register(&ctrl);
        ctrl.dispatch(ControlRequest::CreatePrefix {
            job,
            name: "kv".into(),
            parents: vec![],
            ds: Some(DsType::KvStore),
            initial_blocks: 2,
        })
        .unwrap();
        // Save the pre-snapshot journal, snapshot (which truncates it),
        // then resurrect the stale records.
        let saved: Vec<(String, Vec<u8>)> = store
            .list("jiffy-meta/journal/")
            .into_iter()
            .map(|p| (p.clone(), store.get(&p).unwrap()))
            .collect();
        assert!(!saved.is_empty());
        ctrl.snapshot_now().unwrap();
        for (path, data) in &saved {
            store.put(path, data).unwrap();
        }
        let recovered = recover(&clock, &store);
        assert_recovered_matches(&ctrl, &recovered);
    }

    #[test]
    fn recovery_ignores_orphaned_non_record_objects() {
        let (ctrl, _clock, store) = controller();
        add_server(&ctrl, 4);
        register(&ctrl);
        // A hard kill can strand a half-written temp file in the
        // journal directory (DirObjectStore's crash-safe put); recovery
        // must skip anything whose name is not a sequence number.
        store
            .put("jiffy-meta/journal/.tmp-1234", b"garbage")
            .unwrap();
        store.put("jiffy-meta/snapshot/.tmp-99", b"junk").unwrap();
        let recovered = recover(&_clock, &store);
        assert_recovered_matches(&ctrl, &recovered);
    }

    #[test]
    fn stopping_a_worker_does_not_wait_out_its_interval() {
        let long = Duration::from_secs(30);
        let mut cfg = JiffyConfig::for_testing();
        cfg.lease_scan_interval = long;
        cfg.elasticity_interval = long;
        let (ctrl, _clock, _) = controller_with(cfg);
        for mut handle in [ctrl.start_expiry_worker(), ctrl.start_elasticity_worker()] {
            // Let the worker reach its wait: that is where it spends 30 s.
            std::thread::sleep(Duration::from_millis(20));
            let begun = std::time::Instant::now();
            handle.stop();
            assert!(
                begun.elapsed() < Duration::from_secs(1),
                "stop waited {:?} of a 30 s interval",
                begun.elapsed()
            );
        }
    }

    #[test]
    fn expiry_worker_reclaims_a_lapsed_prefix_within_two_scans() {
        let scan = Duration::from_millis(50);
        let mut cfg = JiffyConfig::for_testing();
        cfg.lease_scan_interval = scan;
        let (ctrl, clock, _) = controller_with(cfg);
        add_server(&ctrl, 4);
        let job = register(&ctrl);
        ctrl.dispatch(ControlRequest::CreatePrefix {
            job,
            name: "lapsing".into(),
            parents: vec![],
            ds: Some(DsType::File),
            initial_blocks: 1,
        })
        .unwrap();
        let _worker = ctrl.start_expiry_worker();
        // The worker waits first: nothing is scanned before one interval.
        assert_eq!(ctrl.stats().leases_expired, 0);
        clock.advance(Duration::from_secs(2));
        // Two scan intervals, plus slack for a loaded host.
        let deadline = std::time::Instant::now() + 2 * scan + Duration::from_secs(2);
        while ctrl.stats().leases_expired == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "the expiry worker stopped ticking"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(ctrl.stats().free_blocks, 4, "blocks reclaimed");
    }
}
