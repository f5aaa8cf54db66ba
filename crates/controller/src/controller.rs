//! The Jiffy controller service (paper Fig. 7).

use jiffy_sync::Arc;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use jiffy_common::clock::SharedClock;
use jiffy_common::{BlockId, JiffyConfig, JiffyError, JobId, Result, ServerId, TenantId};
use jiffy_elastic::{
    AutoscalerPolicy, FailureDetector, ScaleDecision, ServerProvider, ServerState,
};
use jiffy_persistent::ObjectStore;
use jiffy_proto::{
    Blob, BlockLocation, ControlRequest, ControlResponse, ControllerStats, DagNodeSpec,
    DataRequest, DataResponse, DsType, Envelope, JournalOp, MergeSpec, PrefixView, Replica,
    SplitSpec, TenantLoad, TenantStatsEntry, CLIENT_RID_BASE, INTERNAL_RID,
};
use jiffy_qos::weighted_max_min;
use jiffy_rpc::Fabric;
use jiffy_sync::atomic::{AtomicU64, Ordering};
use jiffy_sync::{Mutex, StopSignal};
use serde::{Deserialize, Serialize};

use crate::hierarchy::AddressHierarchy;
use crate::journal::{self, Journal, StateMirror, Tables};
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

impl JobEntry {
    /// Every chain of every node, nodes in name order.
    pub(crate) fn locations(&self) -> Vec<BlockLocation> {
        let names = self.hierarchy.names();
        let metas = names
            .iter()
            .filter_map(|n| self.hierarchy.get(n)?.ds.as_ref());
        metas.flat_map(DsMeta::locations).collect()
    }
}

/// Monotonic stats counters. Serializable so snapshots carry them
/// across a controller restart (DESIGN.md §11).
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
/// the data plane, the journal ops to commit, and the drained source
/// block whose reset must wait until the commit is durable.
type UnderloadOutcome = (
    Option<BlockLocation>,
    Option<MergeSpec>,
    Vec<JournalOp>,
    Option<BlockLocation>,
);

struct CtrlState {
    /// The journaled tables; changed only by applying journal records.
    tables: Tables,
    /// Heartbeat bookkeeping for the failure detector.
    detector: FailureDetector,
    /// Write-ahead metadata journal; appends happen under this same
    /// state lock, after the records apply and before the ack.
    journal: Journal,
    /// Latest per-tenant data-plane load reported by each server's
    /// heartbeat. Soft state: rebuilt from heartbeats after recovery.
    server_loads: HashMap<ServerId, Vec<TenantLoad>>,
    /// Set by [`Controller::halt`]: this instance is dead to the world.
    halted: bool,
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

    /// Empty journaled tables minting ids in this shard's residue class.
    fn empty_tables(&self, cfg: &JiffyConfig) -> Tables {
        let (index, count) = (u64::from(self.index), u64::from(self.count));
        Tables::new(cfg.qos.clone(), index, count)
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

/// Whether `rid` is client-stamped, i.e. tracked (the data plane's rule).
pub(crate) fn is_client_rid(rid: u64) -> bool {
    rid >= CLIENT_RID_BASE
}

/// Whether a journaled operation can change block placement as seen by
/// clients (and must therefore bump the shared view epoch so cached
/// metadata is re-resolved).
fn invalidates_placement(op: &JournalOp) -> bool {
    matches!(
        op,
        JournalOp::SplitCommitted { .. }
            | JournalOp::MergeCommitted { .. }
            | JournalOp::ChainRewired { .. }
            | JournalOp::ServerFailed { .. }
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
    /// mints job, server and block ids in its own residue class (`id ≡
    /// index mod count`), so shards never collide and every id routes
    /// back to its owning shard by `raw % count`.
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
        Ok(Arc::new(Self {
            state: Mutex::new(CtrlState {
                tables: shard.empty_tables(&cfg),
                detector: FailureDetector::new(),
                journal,
                server_loads: HashMap::new(),
                halted: false,
            }),
            cfg,
            clock,
            dataplane,
            persistent,
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
        let (mut tables, next_seq) = journal::recover_from(
            persistent.as_ref(),
            &shard.meta_prefix(),
            shard.empty_tables(&cfg),
        )?;
        let now = clock.now();
        for entry in tables.jobs.values_mut() {
            entry.hierarchy.rearm_leases(now);
        }
        let mut detector = FailureDetector::new();
        for load in tables.freelist.server_loads() {
            if load.state != ServerState::Dead {
                detector.record(load.server, now);
            }
        }
        let journal = Journal::resuming(
            persistent.clone(),
            cfg.meta_snapshot_every,
            next_seq,
            &shard.meta_prefix(),
        );
        // Clients may hold cache entries from before the crash; one bump
        // forces them back through resolve on their next access.
        shard.epoch.fetch_add(1, Ordering::SeqCst);
        Ok(Arc::new(Self {
            cfg,
            clock,
            state: Mutex::new(CtrlState {
                tables,
                detector,
                journal,
                // Soft state: rebuilt from the next round of heartbeats.
                server_loads: HashMap::new(),
                halted: false,
            }),
            dataplane,
            persistent,
            elastic: Mutex::new(ElasticHooks::default()),
            shard,
        }))
    }

    /// The configuration this controller runs with.
    pub fn config(&self) -> &JiffyConfig {
        &self.cfg
    }

    /// Applies `ops` to the tables with the same [`Tables::apply_op`]
    /// replay uses, then appends them to the write-ahead journal as one
    /// atomic batch and snapshots/truncates if the record budget is used
    /// up. An empty batch is a no-op.
    fn apply_and_journal(&self, st: &mut CtrlState, ops: Vec<JournalOp>) -> Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        for op in &ops {
            st.tables.apply_op(op)?;
        }
        let bumps_epoch = ops.iter().any(invalidates_placement);
        st.journal.append(ops)?;
        if bumps_epoch {
            // Placement changed durably: advance the shared view epoch
            // so every shard's next response invalidates client caches.
            self.shard.epoch.fetch_add(1, Ordering::SeqCst);
        }
        if st.journal.snapshot_due() {
            let mirror = st.tables.mirror();
            st.journal.write_snapshot(&mirror)?;
        }
        Ok(())
    }

    /// Applies and journals a decided mutation, then acks it with `resp`.
    /// For a client-stamped `rid` the answer rides in the same batch
    /// (`Answered`), so a retry is answered from the replay window.
    /// No-op mutations record nothing.
    fn commit(
        &self,
        st: &mut CtrlState,
        rid: u64,
        mut ops: Vec<JournalOp>,
        resp: ControlResponse,
    ) -> Result<ControlResponse> {
        if is_client_rid(rid) && !ops.is_empty() {
            ops.push(JournalOp::Answered {
                rid,
                resp: resp.clone(),
            });
        }
        self.apply_and_journal(st, ops)?;
        Ok(resp)
    }

    /// A deterministic serialization of the controller's entire
    /// metadata state (tests compare live vs. recovered controllers).
    pub fn state_mirror(&self) -> StateMirror {
        self.state.lock().tables.mirror()
    }

    /// The current tenant limit table (what heartbeat acks piggyback to
    /// the memory servers).
    pub fn tenant_limits(&self) -> Vec<jiffy_proto::TenantLimit> {
        self.state.lock().tables.tenants.snapshot()
    }

    /// Forces a snapshot + journal truncation right now, regardless of
    /// the `meta_snapshot_every` budget.
    ///
    /// # Errors
    ///
    /// Object-store write failures.
    pub fn snapshot_now(&self) -> Result<()> {
        let mut st = self.state.lock();
        let mirror = st.tables.mirror();
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
        let tables = &st.tables;
        let mut out = Vec::new();
        let mut seen_heads: HashSet<BlockId> = HashSet::new();
        // How many chains each replica block appears in.
        let mut chains_of: HashMap<BlockId, usize> = HashMap::new();
        let count = u64::from(self.shard.count);
        for (job, entry) in &tables.jobs {
            // The router sends a job to shard `job % count` only.
            if job.raw() % count != u64::from(self.shard.index) {
                out.push(format!(
                    "{job} held by shard {} of {count}, outside its residue class",
                    self.shard.index
                ));
            }
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
                    match tables.block_owner.get(&loc.id()) {
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
                        *chains_of.entry(replica.block).or_default() += 1;
                        if tables.freelist.is_free(replica.block) {
                            out.push(format!(
                                "replica block {} of {name} is on the freelist",
                                replica.block.raw()
                            ));
                        }
                    }
                }
            }
        }
        for block in tables.block_owner.keys() {
            if !seen_heads.contains(block) {
                out.push(format!(
                    "block_owner entry {} points at no live prefix block",
                    block.raw()
                ));
            }
        }
        // Every allocated block belongs to exactly one chain: one in none
        // leaked, one in two is shared.
        for load in tables.freelist.server_loads() {
            for block in tables
                .freelist
                .used_blocks_on(load.server)
                .unwrap_or_default()
            {
                let n = chains_of.get(&block).copied().unwrap_or(0);
                if n != 1 {
                    out.push(format!("allocated block {} is in {n} chains", block.raw()));
                }
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
    /// Untracked by the replay window.
    pub fn dispatch_as(&self, req: ControlRequest, tenant: TenantId) -> Result<ControlResponse> {
        self.dispatch_for(req, tenant, INTERNAL_RID)
    }

    /// [`Self::dispatch_as`] for request `rid`: a recorded answer is
    /// replayed, else the request runs (see `commit`). One hold of the
    /// state lock covers both, so concurrent duplicates run once.
    pub(crate) fn dispatch_for(
        &self,
        req: ControlRequest,
        tenant: TenantId,
        rid: u64,
    ) -> Result<ControlResponse> {
        let mut deferred_resets: Vec<BlockLocation> = Vec::new();
        let resp = {
            let mut st = self.state.lock();
            if st.halted {
                return Err(JiffyError::shard_unavailable(self.shard.index));
            }
            // Only client rids are ever recorded, so others always miss.
            if let Some(answer) = st.tables.answered.lookup(rid) {
                return jiffy_proto::from_bytes(answer);
            }
            st.tables.counters.ops_served += 1;
            // Journal appends must run under the state lock so journal
            // order equals mutation order; flush/load object-store
            // copies ride the same serialization.
            // xtask-allow(no-guard-across-rpc): journal order equals mutation order (DESIGN.md §11)
            self.dispatch_locked(&mut st, req, tenant, rid, &mut deferred_resets)
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

    /// The lock-held half of [`Controller::dispatch`]. Each mutating arm
    /// *decides* against `&st` — validates the whole request, mints ids,
    /// picks blocks, builds its reply — then runs its data-plane effects,
    /// then hands its records to `commit`, which applies and journals
    /// them. A request that fails before `commit` leaves no trace.
    /// Destructive data-plane resets are *deferred* via
    /// `deferred_resets` so no transport call runs while the state guard
    /// is live.
    fn dispatch_locked(
        &self,
        st: &mut CtrlState,
        req: ControlRequest,
        tenant: TenantId,
        rid: u64,
        deferred_resets: &mut Vec<BlockLocation>,
    ) -> Result<ControlResponse> {
        match req {
            ControlRequest::RegisterJob { name } => {
                let job = JobId(st.tables.job_ids.current());
                let ops = vec![JournalOp::JobRegistered { job, name, tenant }];
                self.commit(st, rid, ops, ControlResponse::JobRegistered { job })
            }
            ControlRequest::DeregisterJob { job } => {
                let locs = st.tables.job(job)?.locations();
                // Journal before the destructive data-plane resets
                // (which the caller performs after unlocking).
                let ops = vec![JournalOp::JobDeregistered { job }];
                let resp = self.commit(st, rid, ops, ControlResponse::Ack)?;
                deferred_resets.extend(locs);
                Ok(resp)
            }
            ControlRequest::CreatePrefix {
                job,
                name,
                parents,
                ds,
                initial_blocks,
            } => {
                let node = DagNodeSpec {
                    name,
                    parents,
                    ds,
                    initial_blocks,
                };
                let ops = self.create_nodes(st, job, std::slice::from_ref(&node))?;
                self.commit(
                    st,
                    rid,
                    ops,
                    ControlResponse::PrefixCreated { name: node.name },
                )
            }
            ControlRequest::AddParent { job, name, parent } => {
                let ops = vec![JournalOp::ParentAdded { job, name, parent }];
                self.commit(st, rid, ops, ControlResponse::Ack)
            }
            ControlRequest::CreateHierarchy { job, nodes } => {
                let ops = self.create_nodes(st, job, &nodes)?;
                self.commit(st, rid, ops, ControlResponse::Ack)
            }
            ControlRequest::RemovePrefix { job, name } => {
                let hierarchy = &st.tables.job(job)?.hierarchy;
                let name = hierarchy.resolve_name(&name)?;
                let locs = hierarchy.resolve(&name)?.ds.as_ref().map(DsMeta::locations);
                let ops = vec![JournalOp::PrefixRemoved { job, name }];
                let resp = self.commit(st, rid, ops, ControlResponse::Ack)?;
                deferred_resets.extend(locs.unwrap_or_default());
                Ok(resp)
            }
            ControlRequest::ResolvePrefix { job, name } => {
                let node = st.tables.job(job)?.hierarchy.resolve(&name)?;
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
                let hierarchy = &st.tables.job(job)?.hierarchy;
                let name = hierarchy.resolve_name(&name)?;
                let resp = ControlResponse::LeaseRenewed {
                    renewed: hierarchy.renewal_closure(&name)?,
                    lease_duration_micros: self.cfg.lease_duration.as_micros() as u64,
                };
                let ops = vec![JournalOp::LeaseRenewed {
                    job,
                    name,
                    now_micros: journal::micros(self.clock.now()),
                }];
                self.commit(st, rid, ops, resp)
            }
            ControlRequest::GetLeaseDuration { job, name } => {
                st.tables.job(job)?.hierarchy.resolve(&name)?;
                Ok(ControlResponse::LeaseDuration {
                    micros: self.cfg.lease_duration.as_micros() as u64,
                })
            }
            ControlRequest::FlushPrefix {
                job,
                name,
                external_path,
            } => {
                let (bytes, ops, _) = self.flush_prefix(st, job, &name, &external_path, false)?;
                self.commit(st, rid, ops, ControlResponse::Persisted { bytes })
            }
            ControlRequest::LoadPrefix {
                job,
                name,
                external_path,
            } => {
                let (bytes, ops) = self.load_prefix(st, job, &name, &external_path)?;
                self.commit(st, rid, ops, ControlResponse::Persisted { bytes })
            }
            ControlRequest::JoinServer {
                addr,
                capacity_blocks,
            } => {
                let now = self.clock.now();
                let (server, blocks) = st.tables.freelist.mint_server(capacity_blocks);
                let ops = vec![JournalOp::ServerJoined {
                    server,
                    addr,
                    blocks: blocks.clone(),
                    now_micros: journal::micros(now),
                }];
                let resp = ControlResponse::ServerJoined { server, blocks };
                let resp = self.commit(st, rid, ops, resp)?;
                st.detector.record(server, now);
                Ok(resp)
            }
            ControlRequest::LeaveServer { server } => {
                let (ops, blocks_migrated) = self.drain_server(st, server)?;
                let resp = ControlResponse::Drained {
                    server,
                    blocks_migrated,
                };
                let resp = self.commit(st, rid, ops, resp)?;
                st.detector.forget(server);
                Ok(resp)
            }
            ControlRequest::Heartbeat {
                server,
                tenant_loads,
                ..
            } => {
                // Only live members may heartbeat; a departed or dead
                // server gets UnknownServer and must re-join.
                match st.tables.freelist.state_of(server)? {
                    ServerState::Alive | ServerState::Draining => {
                        st.detector.record(server, self.clock.now());
                        // Piggyback the QoS control loop on the existing
                        // heartbeat: absorb the server's per-tenant load
                        // report (soft state) and push back the current
                        // limits so rate changes propagate within one
                        // heartbeat interval.
                        st.server_loads.insert(server, tenant_loads);
                        Ok(ControlResponse::HeartbeatAck {
                            limits: st.tables.tenants.snapshot(),
                        })
                    }
                    ServerState::Dead => Err(JiffyError::UnknownServer(server.raw())),
                }
            }
            ControlRequest::ListServers => {
                Ok(ControlResponse::Servers(st.tables.freelist.server_infos()))
            }
            ControlRequest::ReportOverload { block, .. } => {
                let (target, spec, ops) = self.handle_overload(st, block)?;
                self.commit(st, rid, ops, ControlResponse::SplitTarget { target, spec })
            }
            ControlRequest::ReportUnderload { block, .. } => {
                let (target, spec, ops, reclaim) = self.handle_underload(st, block)?;
                // Journal the merge before the data-plane reset of the
                // source (deferred to after unlock): once the record is
                // durable, replay routes the merged keyspace to the
                // target, so clearing the source's stale copy can never
                // orphan acked data.
                let resp =
                    self.commit(st, rid, ops, ControlResponse::MergeTarget { target, spec })?;
                deferred_resets.extend(reclaim);
                Ok(resp)
            }
            ControlRequest::CommitRepartition { .. } => {
                // Repartitions are controller-orchestrated and commit
                // inline; this message is accepted for compatibility.
                Ok(ControlResponse::Ack)
            }
            ControlRequest::GetStats => Ok(ControlResponse::Stats(self.stats_locked(st))),
            ControlRequest::ListPrefixes { job } => Ok(ControlResponse::Prefixes(
                st.tables.job(job)?.hierarchy.names(),
            )),
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
                let ops = vec![JournalOp::TenantConfigured {
                    tenant: target,
                    share: share.max(1),
                    quota_bytes,
                    ops_per_sec,
                    bytes_per_sec,
                }];
                self.commit(st, rid, ops, ControlResponse::Ack)
            }
        }
    }

    /// Blocks currently allocated to `tenant`, counting every replica in
    /// every chain of every prefix of the tenant's jobs.
    fn tenant_usage_blocks(st: &CtrlState, tenant: TenantId) -> u64 {
        let jobs = st.tables.jobs.values().filter(|e| e.tenant == tenant);
        let locs = jobs.flat_map(JobEntry::locations);
        locs.map(|loc| loc.chain.len() as u64).sum()
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
    ///
    /// `pending` blocks the same request already picked count as the
    /// tenant's and as no longer free.
    fn check_allocation(
        &self,
        st: &CtrlState,
        tenant: TenantId,
        new_blocks: u64,
        pending: u64,
    ) -> Result<()> {
        if !self.cfg.qos.enabled || tenant.is_anonymous() || new_blocks == 0 {
            return Ok(());
        }
        let usage = Self::tenant_usage_blocks(st, tenant) + pending;
        let limit = st.tables.tenants.effective(tenant);
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
        let total = st.tables.freelist.total_count() as u64;
        let free = (st.tables.freelist.free_count() as u64).saturating_sub(pending);
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
        for entry in st.tables.jobs.values() {
            if entry.tenant.is_anonymous() || demands.contains_key(&entry.tenant) {
                continue;
            }
            let share = st.tables.tenants.effective(entry.tenant).share;
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
        ids.extend(st.tables.tenants.configured().map(|l| l.tenant));
        ids.extend(
            st.tables
                .jobs
                .values()
                .map(|e| e.tenant)
                .filter(|t| !t.is_anonymous()),
        );
        for loads in st.server_loads.values() {
            ids.extend(loads.iter().map(|l| l.tenant));
        }
        ids.into_iter()
            .map(|tenant| {
                let limit = st.tables.tenants.effective(tenant);
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

    /// Decides the creation of `nodes` in `job` (a `CreatePrefix` is a
    /// one-node hierarchy) and runs its effects: validates every node
    /// against the hierarchy — each name new, each parent existing or
    /// earlier in the list — gates and picks every chain, initializes the
    /// blocks, and returns one `PrefixCreated` per node.
    fn create_nodes(
        &self,
        st: &CtrlState,
        job: JobId,
        nodes: &[DagNodeSpec],
    ) -> Result<Vec<JournalOp>> {
        let now_micros = journal::micros(self.clock.now());
        let entry = st.tables.job(job)?;
        let chain = self.cfg.chain_length;
        let mut pending: Vec<&str> = Vec::with_capacity(nodes.len());
        let mut picked: Vec<BlockId> = Vec::new();
        // A data-structure node's layout and `(chain, init params)` pairs.
        type Layout = (DsMeta, Vec<(BlockLocation, Vec<u8>)>);
        let mut layouts: Vec<Option<Layout>> = Vec::new();
        for node in nodes {
            entry
                .hierarchy
                .check_new_node(&node.name, &node.parents, &pending)?;
            pending.push(&node.name);
            let Some(ds) = node.ds else {
                layouts.push(None);
                continue;
            };
            // Quota/fair-share gate before any effect.
            let total = node.initial_blocks.max(1);
            let want = u64::from(total) * chain as u64;
            self.check_allocation(st, entry.tenant, want, picked.len() as u64)?;
            let meta = DsMeta::new(ds, self.cfg.block_size, self.cfg.kv_hash_slots);
            let mut chains = Vec::with_capacity(total as usize);
            for i in 0..total {
                let loc = st.tables.freelist.pick_chain(chain, &picked)?;
                picked.extend(loc.chain.iter().map(|r| r.block));
                chains.push((loc, meta.initial_params(i, total)?));
            }
            layouts.push(Some((meta, chains)));
        }
        let mut ops = Vec::with_capacity(nodes.len());
        for (node, layout) in nodes.iter().zip(layouts) {
            let (locs, skeleton) = match layout {
                Some((mut meta, chains)) => {
                    for (loc, params) in &chains {
                        self.dataplane.init_block(loc, meta.ds_type(), params)?;
                    }
                    let locs: Vec<BlockLocation> = chains.into_iter().map(|(l, _)| l).collect();
                    meta.install_initial(locs.clone());
                    (locs, Some(jiffy_proto::to_bytes(&meta.skeleton())?))
                }
                None => (Vec::new(), None),
            };
            ops.push(JournalOp::PrefixCreated {
                job,
                name: node.name.clone(),
                parents: node.parents.clone(),
                locs,
                skeleton,
                now_micros,
            });
        }
        Ok(ops)
    }

    /// Flushes prefix `path` of `job` to `external_path` in the persistent
    /// tier (the effect), and decides its record: bytes written, the
    /// `PrefixFlushed` record (none for a prefix without data) and the
    /// flushed chains. With `reclaim` (the lease-expiry path) the record
    /// also frees the blocks; the caller commits it only once the flush
    /// object is durable — here — and resets the chains after the commit,
    /// so a crash anywhere in between never loses the only copy.
    fn flush_prefix(
        &self,
        st: &CtrlState,
        job: JobId,
        path: &str,
        external_path: &str,
        reclaim: bool,
    ) -> Result<(u64, Vec<JournalOp>, Vec<BlockLocation>)> {
        let node = st.tables.job(job)?.hierarchy.resolve(path)?;
        let Some(meta) = &node.ds else {
            return Ok((0, Vec::new(), Vec::new()));
        };
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
            ds: meta.ds_type(),
            skeleton: meta.skeleton(),
            payloads,
        };
        self.persistent
            .put(external_path, &jiffy_proto::to_bytes(&record)?)?;
        let op = JournalOp::PrefixFlushed {
            job,
            name: node.name.clone(),
            path: external_path.to_string(),
            reclaimed: reclaim,
            expired: reclaim,
        };
        Ok((bytes, vec![op], locations))
    }

    /// Loads a previously flushed prefix back into fresh blocks (the
    /// effects), returning bytes read plus the `PrefixLoaded` record.
    fn load_prefix(
        &self,
        st: &CtrlState,
        job: JobId,
        path: &str,
        external_path: &str,
    ) -> Result<(u64, Vec<JournalOp>)> {
        let record: FlushRecord = jiffy_proto::from_bytes(&self.persistent.get(external_path)?)?;
        let entry = st.tables.job(job)?;
        let node = entry.hierarchy.resolve(path)?;
        if node.ds.is_some() {
            return Err(JiffyError::Internal(format!(
                "prefix {path} already has a live data structure; cannot load over it"
            )));
        }
        let n = record.payloads.len();
        let chain = self.cfg.chain_length;
        self.check_allocation(st, entry.tenant, (n * chain) as u64, 0)?;
        let mut locs = Vec::with_capacity(n);
        for _ in 0..n {
            let taken = journal::blocks_of(&locs);
            locs.push(st.tables.freelist.pick_chain(chain, &taken)?);
        }
        DsMeta::from_skeleton(&record.skeleton, locs.clone())?;
        // Initialize empty, then absorb the flushed contents.
        let params = empty_params(&record.skeleton)?;
        let mut bytes = 0u64;
        for (loc, payload) in locs.iter().zip(&record.payloads) {
            self.dataplane.init_block(loc, record.ds, &params)?;
            self.dataplane.import_payload(loc, payload, &[])?;
            bytes += payload.len() as u64;
        }
        // The record captures the skeleton as loaded: the flush object
        // may be overwritten later, so replay must not re-read it.
        let op = JournalOp::PrefixLoaded {
            job,
            name: node.name.clone(),
            path: external_path.to_string(),
            locs,
            skeleton: jiffy_proto::to_bytes(&record.skeleton)?,
        };
        Ok((bytes, vec![op]))
    }

    /// Handles an overload signal: pick a chain, initialize it, order the
    /// split (paper Fig. 8), and return the `SplitCommitted` record that
    /// commits the new layout.
    fn handle_overload(
        &self,
        st: &CtrlState,
        block: BlockId,
    ) -> Result<(Option<BlockLocation>, Option<SplitSpec>, Vec<JournalOp>)> {
        let Some((job, name)) = st.tables.block_owner.get(&block).cloned() else {
            return Err(JiffyError::UnknownBlock(block.raw()));
        };
        let entry = st.tables.job(job)?;
        let node = entry.hierarchy.resolve(&name)?;
        let Some(meta) = &node.ds else {
            return Err(JiffyError::UnknownBlock(block.raw()));
        };
        let Ok(plan) = meta.plan_split(block) else {
            // Unsplittable (single hot slot / stale signal): no target.
            return Ok((None, None, Vec::new()));
        };
        // A split grows the owning tenant's footprint by one chain; a
        // quota- or share-bound tenant keeps serving from the hot block
        // instead of splitting (same graceful no-split as OutOfBlocks).
        let chain = self.cfg.chain_length;
        if self
            .check_allocation(st, entry.tenant, chain as u64, 0)
            .is_err()
        {
            return Ok((None, None, Vec::new()));
        }
        let source_loc = Self::chain_of(meta, block)?;
        let new_loc = match st.tables.freelist.pick_chain(chain, &[]) {
            Ok(l) => l,
            // Capacity exhausted: the block keeps serving; writes beyond
            // its capacity will fail and spill at the tier above.
            Err(JiffyError::OutOfBlocks) => return Ok((None, None, Vec::new())),
            Err(e) => return Err(e),
        };
        self.dataplane
            .init_block(&new_loc, meta.ds_type(), &plan.target_params)?;
        self.dataplane
            .split_block(&source_loc, &plan.spec, plan.moves_data.then_some(&new_loc))?;
        let op = JournalOp::SplitCommitted {
            job,
            name,
            source: block,
            spec: plan.spec.clone(),
            new_loc: new_loc.clone(),
        };
        Ok((Some(new_loc), Some(plan.spec), vec![op]))
    }

    /// Handles an underload signal: order the merge and return the
    /// `MergeCommitted` record that commits it and reclaims the drained
    /// block's metadata, plus the source location whose *data-plane*
    /// reset the caller must defer until after the commit (resetting
    /// before the merge record is durable could orphan acked data).
    fn handle_underload(&self, st: &CtrlState, block: BlockId) -> Result<UnderloadOutcome> {
        let Some((job, name)) = st.tables.block_owner.get(&block).cloned() else {
            return Err(JiffyError::UnknownBlock(block.raw()));
        };
        let node = st.tables.job(job)?.hierarchy.resolve(&name)?;
        let Some(meta) = &node.ds else {
            return Err(JiffyError::UnknownBlock(block.raw()));
        };
        let Some(plan) = meta.plan_merge(block)? else {
            return Ok((None, None, Vec::new(), None));
        };
        let source_loc = Self::chain_of(meta, block)?;
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
        let op = JournalOp::MergeCommitted {
            job,
            name,
            source: block,
            spec: plan.spec.clone(),
            target: target.clone(),
            released: journal::blocks_of(std::slice::from_ref(&source_loc)),
        };
        Ok((target, Some(plan.spec), vec![op], Some(source_loc)))
    }

    /// The chain of `meta` whose head is `block`, every replica included.
    fn chain_of(meta: &DsMeta, block: BlockId) -> Result<BlockLocation> {
        let mut locs = meta.locations().into_iter();
        locs.find(|loc| loc.id() == block)
            .ok_or(JiffyError::UnknownBlock(block.raw()))
    }

    /// Every chain with a replica on `server`, with its job and prefix,
    /// in (job, name, layout) order: drain and failure handling decide in
    /// this order, so one history journals one sequence of records.
    fn chains_on(st: &CtrlState, server: ServerId) -> Vec<(JobId, String, BlockLocation)> {
        let mut jobs: Vec<_> = st.tables.jobs.iter().collect();
        jobs.sort_unstable_by_key(|(job, _)| **job);
        let mut out = Vec::new();
        for (job, entry) in jobs {
            for name in entry.hierarchy.names() {
                let meta = entry.hierarchy.get(&name).and_then(|n| n.ds.as_ref());
                for loc in meta.map(DsMeta::locations).unwrap_or_default() {
                    if loc.chain.iter().any(|r| r.server == server) {
                        out.push((*job, name.clone(), loc));
                    }
                }
            }
        }
        out
    }

    /// Drains `server` for `LeaveServer`. Decides every move against the
    /// unchanged tables — each chain with a replica on the server gets a
    /// replacement picked off the server's blocks — so a drain without
    /// room fails without a trace. Then migrates the chains one by one,
    /// each journaled as it lands (the first batch also marks the server
    /// draining), and returns the closing records plus how many of the
    /// server's blocks moved. An effect that fails keeps exactly the
    /// migrations already journaled.
    fn drain_server(&self, st: &mut CtrlState, server: ServerId) -> Result<(Vec<JournalOp>, u32)> {
        if st.tables.freelist.state_of(server)? == ServerState::Dead {
            return Err(JiffyError::Internal(format!(
                "cannot drain dead server {server}"
            )));
        }
        let mut taken = st.tables.freelist.blocks_on(server)?;
        let mut moves = Vec::new();
        for (job, name, old) in Self::chains_on(st, server) {
            let new = st.tables.freelist.pick_chain(old.chain.len(), &taken)?;
            taken.extend(new.chain.iter().map(|r| r.block));
            moves.push((job, name, old, new));
        }
        let mut ops = vec![JournalOp::ServerDraining { server }];
        let mut migrated = 0u32;
        for (job, name, old, new) in moves {
            let opening = std::mem::take(&mut ops);
            self.migrate_chain(st, opening, job, name, &old, new)?;
            migrated += old.chain.iter().filter(|r| r.server == server).count() as u32;
        }
        ops.push(JournalOp::ServerRemoved { server });
        Ok((ops, migrated))
    }

    /// Live-migrates one chain of prefix `name` to the picked chain `new`
    /// (paper §3.3 discipline): seal the source so its image freezes
    /// while reads keep serving, copy it out, stand the copy up on `new`,
    /// journal `ops` plus the `ChainRewired` record, then retire the
    /// source behind a `BlockMoved` redirect. A client op racing the move
    /// lands exactly once — at the old home before the seal, or at the
    /// new home after a retryable error (`StaleMetadata` / `BlockMoved`)
    /// and a refresh. A failure before the record unseals the source.
    fn migrate_chain(
        &self,
        st: &mut CtrlState,
        mut ops: Vec<JournalOp>,
        job: JobId,
        name: String,
        old: &BlockLocation,
        new: BlockLocation,
    ) -> Result<()> {
        // Initialize empty and absorb the frozen image, as a load does.
        let node = st.tables.job(job)?.hierarchy.resolve(&name)?;
        let meta = node
            .ds
            .as_ref()
            .ok_or(JiffyError::UnknownBlock(old.id().raw()))?;
        let (ds, params) = (meta.ds_type(), empty_params(&meta.skeleton())?);
        self.dataplane.seal_block(old, true)?;
        // The image carries the replay window: a write retried across
        // the move re-resolves to the new home and must still be
        // answered from the window rather than re-executed.
        let moved = self
            .dataplane
            .export_block(old)
            .and_then(|(payload, replay)| {
                self.dataplane.init_block(&new, ds, &params)?;
                self.dataplane.import_payload(&new, &payload, &replay)?;
                // Journal the new placement before the source is retired:
                // past the retire the image's only copy is on `new`.
                ops.push(JournalOp::ChainRewired {
                    job,
                    name,
                    old: old.clone(),
                    new: new.clone(),
                    released: journal::blocks_of(std::slice::from_ref(old)),
                });
                self.apply_and_journal(st, ops)
            });
        if let Err(e) = moved {
            let _ = self.dataplane.seal_block(old, false);
            return Err(e);
        }
        // Best-effort: a dead source just means the client refreshes
        // via `Unavailable` instead of `BlockMoved`.
        let _ = self.dataplane.retire_block(old, new.head());
        Ok(())
    }

    /// Re-routes everything homed on a failed server (heartbeat timeout
    /// or explicit kill). Chains with surviving replicas are promoted to
    /// them; a prefix with no surviving chain reloads from the persistent
    /// tier when it was flushed, and otherwise keeps its stale chains and
    /// their blocks, so clients see a clean, bounded `Unavailable`
    /// instead of a hang.
    pub fn handle_server_failure(&self, server: ServerId) -> Result<()> {
        let mut st = self.state.lock();
        // Failure handling journals its re-routing under the state lock.
        // xtask-allow(no-guard-across-rpc): journal order equals mutation order (DESIGN.md §11)
        self.handle_server_failure_locked(&mut st, server)
    }

    /// Decides the failure of `server` in (job, name, layout) order and
    /// commits it as one batch — `ServerFailed`, a `ChainRewired` per
    /// promotion, a reclaiming `PrefixFlushed` per prefix to reload — then
    /// reloads those prefixes, each committed as a `PrefixLoaded` of its
    /// own (a reload that fails leaves its prefix flushed).
    fn handle_server_failure_locked(&self, st: &mut CtrlState, server: ServerId) -> Result<()> {
        let freelist = &st.tables.freelist;
        freelist.state_of(server)?; // an unknown server changes nothing
        let alive = |r: &Replica| {
            r.server != server
                && freelist
                    .state_of(r.server)
                    .is_ok_and(|s| s != ServerState::Dead)
        };
        let mut ops = vec![JournalOp::ServerFailed { server }];
        let mut lost_prefixes = BTreeSet::new();
        for (job, name, old) in Self::chains_on(st, server) {
            let (kept, lost): (Vec<Replica>, Vec<Replica>) =
                old.chain.iter().cloned().partition(|r| alive(r));
            if kept.is_empty() {
                lost_prefixes.insert((job, name));
                continue;
            }
            ops.push(JournalOp::ChainRewired {
                job,
                name,
                old,
                new: BlockLocation { chain: kept },
                released: lost.iter().map(|r| r.block).collect(),
            });
        }
        let mut reloads = Vec::new();
        for (job, name) in lost_prefixes {
            let node = st.tables.job(job)?.hierarchy.resolve(&name)?;
            let locs = node.ds.as_ref().map(DsMeta::locations).unwrap_or_default();
            let wholly_lost = !locs.iter().any(|loc| loc.chain.iter().any(alive));
            if let (true, Some(path)) = (wholly_lost, node.flushed_to.clone()) {
                ops.push(JournalOp::PrefixFlushed {
                    job,
                    name: name.clone(),
                    path: path.clone(),
                    reclaimed: true,
                    expired: false,
                });
                reloads.push((job, name, path));
            }
        }
        self.apply_and_journal(st, ops)?;
        st.detector.forget(server);
        for (job, name, path) in reloads {
            if let Ok((_, ops)) = self.load_prefix(st, job, &name, &path) {
                self.apply_and_journal(st, ops)?;
            }
        }
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
            policy.decide(&st.tables.freelist.server_loads())
        };
        match decision {
            ScaleDecision::Hold => {}
            ScaleDecision::ScaleUp => {
                if provider.provision().is_ok() {
                    let mut st = self.state.lock();
                    let op = JournalOp::ScaleEvent { up: true };
                    // xtask-allow(no-guard-across-rpc): journal order equals mutation order (DESIGN.md §11)
                    let _ = self.apply_and_journal(&mut st, vec![op]);
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
                    let op = JournalOp::ScaleEvent { up: false };
                    // xtask-allow(no-guard-across-rpc): journal order equals mutation order (DESIGN.md §11)
                    let _ = self.apply_and_journal(&mut st, vec![op]);
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
        for (job, entry) in &st.tables.jobs {
            for name in entry.hierarchy.expired(now, self.cfg.lease_duration) {
                // Only prefixes that still hold memory need reclamation.
                if entry.hierarchy.get(&name).is_some_and(|n| n.ds.is_some()) {
                    expired.push((*job, name));
                }
            }
        }
        // (job, name) order, so one history journals one record order.
        expired.sort_unstable();
        for (job, name) in &expired {
            let path = format!("jiffy-expired/{}/{name}", job.raw());
            // The flush object is durable before the reclaim is
            // journaled, and the blocks are cleared only after: a crash
            // before the commit replays to the pre-reclaim state, whose
            // blocks still hold the data; one after it only leaves stale
            // block contents for re-initialization to clear. The resets
            // run before the guard drops, so no request can take a
            // block before it is cleared.
            // xtask-allow(no-guard-across-rpc): the flush object is durable before its record, in journal order (DESIGN.md §11)
            let flushed = self.flush_prefix(&st, *job, name, &path, true);
            let Ok((_, ops, locs)) = flushed else {
                continue;
            };
            // xtask-allow(no-guard-across-rpc): journal order equals mutation order (DESIGN.md §11)
            if self.apply_and_journal(&mut st, ops).is_ok() {
                for loc in &locs {
                    // xtask-allow(no-guard-across-rpc): a freed block is cleared before the next request can take it
                    let _ = self.dataplane.reset_block(loc);
                }
            }
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
        let prefixes: u64 = st
            .tables
            .jobs
            .values()
            .map(|j| j.hierarchy.len() as u64)
            .sum();
        let metadata_bytes: u64 = st
            .tables
            .jobs
            .values()
            .map(|j| j.hierarchy.metadata_bytes())
            .sum();
        let servers = st
            .tables
            .freelist
            .server_loads()
            .iter()
            .filter(|l| l.state == ServerState::Alive)
            .count() as u64;
        ControllerStats {
            free_blocks: st.tables.freelist.free_count() as u64,
            total_blocks: st.tables.freelist.total_count() as u64,
            jobs: st.tables.jobs.len() as u64,
            prefixes,
            ops_served: st.tables.counters.ops_served,
            leases_expired: st.tables.counters.leases_expired,
            splits: st.tables.counters.splits,
            merges: st.tables.counters.merges,
            metadata_bytes,
            servers,
            servers_failed: st.tables.counters.servers_failed,
            blocks_migrated: st.tables.counters.blocks_migrated,
            scale_ups: st.tables.counters.scale_ups,
            scale_downs: st.tables.counters.scale_downs,
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

/// Init params for a block that absorbs an exported image (load and
/// migration): the image carries all chunk / range state, so KV mirrors
/// start with no owned ranges.
fn empty_params(skeleton: &DsSkeleton) -> Result<Vec<u8>> {
    match skeleton {
        DsSkeleton::Kv { num_slots, .. } => jiffy_proto::to_bytes(&InitKvMirror {
            ranges: vec![],
            num_slots: *num_slots,
        }),
        _ => Ok(Vec::new()),
    }
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

    // ----- a request that fails leaves no trace ---------------------------

    fn create(ctrl: &Controller, job: JobId, name: &str, parents: &[&str]) -> Result<()> {
        ctrl.dispatch(ControlRequest::CreatePrefix {
            job,
            name: name.into(),
            parents: parents.iter().map(|p| (*p).to_string()).collect(),
            ds: Some(DsType::File),
            initial_blocks: 1,
        })
        .map(|_| ())
    }

    #[test]
    fn a_dotted_remove_removes_the_node_it_reaches() {
        let (ctrl, clock, store) = controller();
        add_server(&ctrl, 16);
        let job = register(&ctrl);
        create(&ctrl, job, "a", &[]).unwrap();
        create(&ctrl, job, "b", &["a"]).unwrap();
        ctrl.dispatch(ControlRequest::RemovePrefix {
            job,
            name: "a.b".into(),
        })
        .unwrap();
        match ctrl.dispatch(ControlRequest::ListPrefixes { job }).unwrap() {
            ControlResponse::Prefixes(p) => assert_eq!(p, vec!["a"]),
            other => panic!("{other:?}"),
        }
        assert_eq!(ctrl.stats().free_blocks, 15);
        // The block `b` held is free again, in the live tables and in
        // the journal alike: the next allocation may take it.
        create(&ctrl, job, "c", &[]).unwrap();
        assert_recovered_matches(&ctrl, &recover(&clock, &store));
    }

    #[test]
    fn a_hierarchy_with_a_missing_parent_creates_nothing() {
        let (ctrl, clock, store) = controller();
        add_server(&ctrl, 16);
        let job = register(&ctrl);
        let before = ctrl.state_mirror().normalized();
        let node = |name: &str, parents: &[&str]| DagNodeSpec {
            name: name.into(),
            parents: parents.iter().map(|p| (*p).to_string()).collect(),
            ds: Some(DsType::File),
            initial_blocks: 1,
        };
        for nodes in [
            vec![node("a", &[]), node("b", &["a"]), node("c", &["missing"])],
            vec![node("a", &[]), node("a", &[])],
            vec![node("a", &["b"]), node("b", &[])],
        ] {
            assert!(ctrl
                .dispatch(ControlRequest::CreateHierarchy { job, nodes })
                .is_err());
            assert_eq!(ctrl.state_mirror().normalized(), before);
        }
        assert_eq!(ctrl.stats().free_blocks, 16);
        assert_recovered_matches(&ctrl, &recover(&clock, &store));
    }

    #[test]
    fn a_load_that_runs_out_of_blocks_takes_none() {
        let (ctrl, clock, store) = controller();
        add_server(&ctrl, 3);
        let job = register(&ctrl);
        ctrl.dispatch(ControlRequest::CreatePrefix {
            job,
            name: "big".into(),
            parents: vec![],
            ds: Some(DsType::File),
            initial_blocks: 3,
        })
        .unwrap();
        ctrl.dispatch(ControlRequest::FlushPrefix {
            job,
            name: "big".into(),
            external_path: "ext/big".into(),
        })
        .unwrap();
        ctrl.dispatch(ControlRequest::RemovePrefix {
            job,
            name: "big".into(),
        })
        .unwrap();
        // Two blocks stay free; the flushed image needs three.
        create(&ctrl, job, "hog", &[]).unwrap();
        ctrl.dispatch(ControlRequest::CreatePrefix {
            job,
            name: "into".into(),
            parents: vec![],
            ds: None,
            initial_blocks: 0,
        })
        .unwrap();
        assert_eq!(ctrl.stats().free_blocks, 2);
        let before = ctrl.state_mirror().normalized();
        let load = ctrl.dispatch(ControlRequest::LoadPrefix {
            job,
            name: "into".into(),
            external_path: "ext/big".into(),
        });
        assert!(matches!(load, Err(JiffyError::OutOfBlocks)), "{load:?}");
        assert_eq!(ctrl.stats().free_blocks, 2);
        assert_eq!(ctrl.state_mirror().normalized(), before);
        assert_recovered_matches(&ctrl, &recover(&clock, &store));
    }

    /// A data plane whose `init_block` or `split_block` always fails.
    struct FailingPlane {
        init: bool,
        split: bool,
    }

    impl DataPlane for FailingPlane {
        fn init_block(&self, loc: &BlockLocation, ds: DsType, params: &[u8]) -> Result<()> {
            if self.init {
                return Err(JiffyError::Rpc("init refused".into()));
            }
            NoopDataPlane.init_block(loc, ds, params)
        }

        fn reset_block(&self, loc: &BlockLocation) -> Result<()> {
            NoopDataPlane.reset_block(loc)
        }

        fn export_block(&self, loc: &BlockLocation) -> Result<(Vec<u8>, Vec<u8>)> {
            NoopDataPlane.export_block(loc)
        }

        fn import_payload(&self, loc: &BlockLocation, payload: &[u8], replay: &[u8]) -> Result<()> {
            NoopDataPlane.import_payload(loc, payload, replay)
        }

        fn split_block(
            &self,
            loc: &BlockLocation,
            spec: &SplitSpec,
            target: Option<&BlockLocation>,
        ) -> Result<()> {
            if self.split {
                return Err(JiffyError::Rpc("split refused".into()));
            }
            NoopDataPlane.split_block(loc, spec, target)
        }

        fn merge_block(
            &self,
            loc: &BlockLocation,
            spec: &MergeSpec,
            target: Option<&BlockLocation>,
        ) -> Result<()> {
            NoopDataPlane.merge_block(loc, spec, target)
        }

        fn block_usage(&self, loc: &BlockLocation) -> Result<(u64, u64)> {
            NoopDataPlane.block_usage(loc)
        }

        fn seal_block(&self, loc: &BlockLocation, sealed: bool) -> Result<()> {
            NoopDataPlane.seal_block(loc, sealed)
        }

        fn retire_block(&self, loc: &BlockLocation, moved_to: &Replica) -> Result<()> {
            NoopDataPlane.retire_block(loc, moved_to)
        }
    }

    #[test]
    fn failed_data_plane_effects_leave_no_trace() {
        for (init, split) in [(true, false), (false, true)] {
            let (_clock, shared) = ManualClock::shared();
            let store = Arc::new(MemObjectStore::new());
            let plane = Arc::new(FailingPlane { init, split });
            let ctrl = Controller::new(JiffyConfig::for_testing(), shared, plane, store).unwrap();
            add_server(&ctrl, 8);
            let job = register(&ctrl);
            let before = ctrl.state_mirror().normalized();
            let created = ctrl.dispatch(ControlRequest::CreatePrefix {
                job,
                name: "kv".into(),
                parents: vec![],
                ds: Some(DsType::KvStore),
                initial_blocks: 2,
            });
            if init {
                assert!(created.is_err());
                assert_eq!(ctrl.state_mirror().normalized(), before);
                continue;
            }
            created.unwrap();
            let before = ctrl.state_mirror().normalized();
            let block = ctrl.state_mirror().block_owner[0].0;
            let split = ctrl.dispatch(ControlRequest::ReportOverload {
                block: BlockId(block),
                used: 999,
            });
            assert!(split.is_err(), "{split:?}");
            assert_eq!(ctrl.state_mirror().normalized(), before);
        }
    }

    // ----- drain, merge and failure records --------------------------------

    fn create_kv(ctrl: &Controller, job: JobId, chains: u32) {
        ctrl.dispatch(ControlRequest::CreatePrefix {
            job,
            name: "kv".into(),
            parents: vec![],
            ds: Some(DsType::KvStore),
            initial_blocks: chains,
        })
        .unwrap();
    }

    #[test]
    fn a_merge_of_a_replicated_chain_releases_every_replica() {
        let (ctrl, clock, store) = controller_with(JiffyConfig::for_testing().with_chain_length(2));
        add_server(&ctrl, 4);
        add_server(&ctrl, 4);
        let job = register(&ctrl);
        create_kv(&ctrl, job, 2);
        assert_eq!(ctrl.stats().free_blocks, 4);
        let second = ctrl.state_mirror().block_owner[1].0;
        let merged = ctrl.dispatch(ControlRequest::ReportUnderload {
            block: BlockId(second),
            used: 1,
        });
        assert!(matches!(
            merged,
            Ok(ControlResponse::MergeTarget {
                target: Some(_),
                ..
            })
        ));
        assert_eq!(
            ctrl.stats().free_blocks,
            6,
            "both replicas of the source freed"
        );
        assert_eq!(ctrl.check_invariants(), Vec::<String>::new());
        assert_recovered_matches(&ctrl, &recover(&clock, &store));
    }

    #[test]
    fn a_drain_without_room_leaves_no_trace() {
        let (ctrl, clock, store) = controller();
        add_server(&ctrl, 4);
        let job = register(&ctrl);
        create_kv(&ctrl, job, 1);
        let before = ctrl.state_mirror().normalized();
        let drained = ctrl.dispatch(ControlRequest::LeaveServer {
            server: ServerId(0),
        });
        assert!(
            matches!(drained, Err(JiffyError::OutOfBlocks)),
            "{drained:?}"
        );
        assert_eq!(ctrl.state_mirror().normalized(), before);
        assert_recovered_matches(&ctrl, &recover(&clock, &store));
    }

    #[test]
    fn a_failure_promotes_survivors_and_keeps_lost_chains_whole() {
        let (ctrl, clock, store) = controller_with(JiffyConfig::for_testing().with_chain_length(2));
        add_server(&ctrl, 4);
        add_server(&ctrl, 4);
        let job = register(&ctrl);
        create_kv(&ctrl, job, 2);
        let chains = |ctrl: &Controller| {
            let node = &ctrl.state_mirror().jobs[0].nodes[0];
            let locs = node.ds.as_ref().map(DsMeta::locations).unwrap();
            let servers = |l: &BlockLocation| l.chain.iter().map(|r| r.server.raw()).collect();
            (
                node.version,
                locs.iter().map(servers).collect::<Vec<Vec<u64>>>(),
            )
        };
        assert_eq!(chains(&ctrl), (0, vec![vec![0, 1], vec![0, 1]]));
        ctrl.handle_server_failure(ServerId(0)).unwrap();
        assert_eq!(chains(&ctrl), (2, vec![vec![1], vec![1]]));
        assert_recovered_matches(&ctrl, &recover(&clock, &store));
        // Nothing survives the second death and nothing was flushed: the
        // chains stay, their blocks still theirs.
        ctrl.handle_server_failure(ServerId(1)).unwrap();
        assert_eq!(chains(&ctrl), (2, vec![vec![1], vec![1]]));
        assert_eq!(ctrl.stats().servers_failed, 2);
        assert_eq!(ctrl.stats().free_blocks, 0);
        assert_recovered_matches(&ctrl, &recover(&clock, &store));
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

    // ----- replay window (DESIGN.md §16) ---------------------------------

    fn register_as(ctrl: &Controller, rid: u64) -> Result<ControlResponse> {
        ctrl.dispatch_for(
            ControlRequest::RegisterJob { name: "r".into() },
            TenantId::ANONYMOUS,
            rid,
        )
    }

    #[test]
    fn a_repeated_client_rid_replays_the_recorded_answer() {
        let (ctrl, clock, store) = controller();
        let rid = CLIENT_RID_BASE + 7;
        let first = register_as(&ctrl, rid).unwrap();
        assert_eq!(register_as(&ctrl, rid).unwrap(), first);
        assert_eq!(ctrl.stats().jobs, 1, "the retry must not mint a job");
        // The answer is journaled with the mutation and carried by
        // snapshots: a recovered shard answers both retries identically,
        // one from the snapshot, one from the journal tail.
        ctrl.snapshot_now().unwrap();
        let second = register_as(&ctrl, rid + 1).unwrap();
        let rec = recover(&clock, &store);
        assert_recovered_matches(&ctrl, &rec);
        assert_eq!(register_as(&rec, rid).unwrap(), first);
        assert_eq!(register_as(&rec, rid + 1).unwrap(), second);
        assert_eq!(rec.stats().jobs, 2);
        // A fresh rid is a fresh request.
        assert_ne!(register_as(&rec, rid + 2).unwrap(), first);
        assert_eq!(rec.stats().jobs, 3);
    }

    #[test]
    fn shards_mint_job_ids_in_their_class_and_flag_foreign_ones() {
        let (_clock, shared) = ManualClock::shared();
        let store = Arc::new(MemObjectStore::new());
        let shard = |index, count| ShardIdentity::member(index, count, Arc::new(AtomicU64::new(0)));
        // Shard 1 of 3 mints 1, 4, ... and holds only its own class.
        let ctrl = Controller::new_sharded(
            JiffyConfig::for_testing(),
            shared.clone(),
            Arc::new(NoopDataPlane),
            store.clone(),
            shard(1, 3),
        )
        .unwrap();
        let jobs = [register(&ctrl), register(&ctrl)];
        assert_eq!(jobs, [JobId(1), JobId(4)]);
        assert!(ctrl.check_invariants().is_empty());
        // Recovered as shard 1 of 2 (same journal prefix, another
        // layout): job 4 belongs to shard 0 now and is flagged, and new
        // ids resume in the new class.
        let rec = Controller::recover_sharded(
            JiffyConfig::for_testing(),
            shared,
            Arc::new(NoopDataPlane),
            store,
            shard(1, 2),
        )
        .unwrap();
        let violations = rec.check_invariants();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("job-4"), "{violations:?}");
        assert_eq!(register(&rec), JobId(5));
    }

    #[test]
    fn untracked_rids_always_execute() {
        let (ctrl, _clock, _) = controller();
        // 0 is internal traffic; small ids are per-connection auto-ids.
        for rid in [INTERNAL_RID, INTERNAL_RID, 5, 5] {
            register_as(&ctrl, rid).unwrap();
        }
        assert_eq!(ctrl.stats().jobs, 4);
        assert!(ctrl.state_mirror().answered.is_empty());
    }

    #[test]
    fn error_answers_are_not_recorded() {
        // An error means "did not take effect": a retry of the same rid
        // must execute again rather than replay a healed rejection.
        let (ctrl, _clock, _) = controller();
        let job = register(&ctrl);
        let rid = CLIENT_RID_BASE + 21;
        let remove = || {
            ctrl.dispatch_for(
                ControlRequest::RemovePrefix {
                    job,
                    name: "late".into(),
                },
                TenantId::ANONYMOUS,
                rid,
            )
        };
        assert!(matches!(remove(), Err(JiffyError::PathNotFound(_))));
        ctrl.dispatch(ControlRequest::CreatePrefix {
            job,
            name: "late".into(),
            parents: vec![],
            ds: None,
            initial_blocks: 0,
        })
        .unwrap();
        assert_eq!(remove().unwrap(), ControlResponse::Ack);
        assert_eq!(remove().unwrap(), ControlResponse::Ack, "now replayed");
        assert_eq!(ctrl.state_mirror().answered.len(), 1);
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
