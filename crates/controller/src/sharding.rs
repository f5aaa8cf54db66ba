//! Controller sharding (paper §4.2.1, Fig. 12b; DESIGN.md §15).
//!
//! Jiffy scales its control plane by partitioning independent address
//! hierarchies across shards — the same scheme scales across cores of
//! one server and across servers. Each shard is a full [`Controller`]
//! with its own free list, journal prefix and snapshot stream; shards
//! share nothing but the view epoch, which is exactly why the paper
//! observes near-linear throughput scaling.
//!
//! Partitioning is by *job*: shard `i` mints job, server and block ids
//! ≡ `i` mod N, and every request routes by `id % N`. A job's whole
//! hierarchy — any DAG shape, every lease and block of it — lives on
//! the job's shard, so the router keeps no table and N = 1 runs the
//! same code path as N > 1.

use std::collections::HashMap;

use jiffy_sync::atomic::{AtomicU64, Ordering};
use jiffy_sync::{Arc, RwLock};

use jiffy_common::clock::SharedClock;
use jiffy_common::{JiffyConfig, JiffyError, JobId, Result, TenantId};
use jiffy_persistent::ObjectStore;
use jiffy_proto::{
    ControlRequest, ControlResponse, Envelope, ShardMap, TenantStatsEntry, INTERNAL_RID,
};
use jiffy_rpc::{Service, SessionHandle};

use crate::controller::{is_client_rid, Controller, DataPlane, ShardIdentity};

/// Everything needed to re-create a shard after a crash.
struct RebuildCtx {
    cfg: JiffyConfig,
    clock: SharedClock,
    dataplane: Arc<dyn DataPlane>,
    persistent: Arc<dyn ObjectStore>,
}

/// Routes control requests across independent [`Controller`] shards by
/// job, server or block id. A crashed shard's slot goes dark (requests
/// routed to it fail with [`JiffyError::Unavailable`], which clients
/// retry) until [`ShardedController::restart_shard`] recovers it from
/// its journal prefix.
pub struct ShardedController {
    /// One slot per shard; `None` while the shard is crashed.
    slots: Vec<RwLock<Option<Arc<Controller>>>>,
    map: ShardMap,
    /// The control plane's one view epoch: shared by every shard,
    /// stamped on response envelopes, and — living here rather than in
    /// any shard — never regressed by a restart.
    epoch: Arc<AtomicU64>,
    /// Round-robin cursor for untracked job and server placement: each
    /// new job or server is owned by exactly one shard, and round-robin
    /// keeps shards balanced (an address hash could starve a shard of
    /// servers entirely). The owning shard mints the id from its
    /// strided range, so all later by-id routing lands back on it
    /// without consulting this cursor. Soft state: a restart resumes it
    /// at the recovered servers and jobs.
    placements: AtomicU64,
    rebuild: RebuildCtx,
}

impl ShardedController {
    /// Builds a control plane of `num_shards` shards over one persistent
    /// tier, each journaling under `jiffy-meta/shard-{i}/` (plain
    /// `jiffy-meta/` when `num_shards == 1`) and all sharing one view
    /// epoch. Keeps the construction inputs so individual shards can be
    /// crashed and re-recovered.
    ///
    /// # Errors
    ///
    /// Propagates [`JiffyConfig::validate`] failures.
    pub fn build(
        cfg: JiffyConfig,
        clock: SharedClock,
        dataplane: Arc<dyn DataPlane>,
        persistent: Arc<dyn ObjectStore>,
        num_shards: u32,
    ) -> Result<Self> {
        let num_shards = num_shards.max(1);
        let epoch = Arc::new(AtomicU64::new(0));
        let mut slots = Vec::with_capacity(num_shards as usize);
        for i in 0..num_shards {
            let shard = Controller::new_sharded(
                cfg.clone(),
                clock.clone(),
                dataplane.clone(),
                persistent.clone(),
                ShardIdentity::member(i, num_shards, epoch.clone()),
            )?;
            slots.push(RwLock::new_named(Some(shard), "slots"));
        }
        Ok(Self {
            slots,
            map: ShardMap { num_shards },
            epoch,
            placements: AtomicU64::new(0),
            rebuild: RebuildCtx {
                cfg,
                clock,
                dataplane,
                persistent,
            },
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.slots.len()
    }

    /// The static shard map requests are routed by.
    pub fn shard_map(&self) -> ShardMap {
        self.map
    }

    /// The control plane's current view epoch.
    pub fn view_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Direct access to a shard by index (benchmarks drive shards
    /// independently to measure shared-nothing scaling).
    ///
    /// # Panics
    ///
    /// If the shard is currently crashed.
    pub fn shard(&self, idx: usize) -> Arc<Controller> {
        #[allow(clippy::expect_used)] // invariant documented in the message
        self.slots[idx]
            .read()
            .as_ref()
            .expect("invariant: direct shard access requires a live shard (request routing uses dispatch_as, which maps a dark slot to a retryable error)")
            .clone()
    }

    /// Drops shard `i`'s in-memory state, simulating a crash. Its
    /// journal and snapshots stay in the persistent tier; requests
    /// routed to it fail retryably until [`Self::restart_shard`].
    pub fn crash_shard(&self, idx: usize) {
        let old = self.slots[idx].write().take();
        // Requests clone the shard out of its slot before dispatching;
        // fence it so none of them commits after the slot went dark.
        if let Some(shard) = old {
            shard.halt();
        }
    }

    /// Whether shard `i` is currently up.
    pub fn shard_is_up(&self, idx: usize) -> bool {
        self.slots[idx].read().is_some()
    }

    /// Forgets the router's soft state (the placement cursor), as a crash
    /// of the whole control plane does; [`Self::restart_shard`]
    /// re-derives it from what the shards recover.
    pub fn forget_soft_state(&self) {
        self.placements.store(0, Ordering::Relaxed);
    }

    /// Recovers shard `i` from its journal prefix and brings its slot
    /// back up.
    ///
    /// # Errors
    ///
    /// Journal recovery failures.
    pub fn restart_shard(&self, idx: usize) -> Result<Arc<Controller>> {
        let ctx = &self.rebuild;
        let shard = Controller::recover_sharded(
            ctx.cfg.clone(),
            ctx.clock.clone(),
            ctx.dataplane.clone(),
            ctx.persistent.clone(),
            ShardIdentity::member(idx as u32, self.map.num_shards, self.epoch.clone()),
        )?;
        *self.slots[idx].write() = Some(shard.clone());
        // Round-robin stood at one past the last placement: resume it
        // at the live servers and jobs across the shards that are up.
        let live: Vec<Arc<Controller>> = self
            .slots
            .iter()
            .filter_map(|slot| slot.read().clone())
            .collect();
        let placed: u64 = live
            .iter()
            .map(|s| {
                let st = s.stats();
                st.servers + st.jobs
            })
            .sum();
        self.placements.store(placed, Ordering::Relaxed);
        Ok(shard)
    }

    /// Forwards request `rid` to shard `idx`, failing retryably if the
    /// shard is dark. The shard itself journals mutations before
    /// acking, so forwarding through here preserves journal-before-ack
    /// (xtask lint rule 5 recognizes this helper by name).
    fn dispatch_journaled(
        &self,
        idx: u32,
        req: ControlRequest,
        tenant: TenantId,
        rid: u64,
    ) -> Result<ControlResponse> {
        let slot = self.slots[idx as usize].read();
        let shard = slot
            .as_ref()
            .ok_or_else(|| JiffyError::shard_unavailable(idx))?
            .clone();
        drop(slot);
        shard.dispatch_for(req, tenant, rid)
    }

    /// Routes one request. See [`Self::dispatch_as`].
    pub fn dispatch(&self, req: ControlRequest) -> Result<ControlResponse> {
        self.dispatch_as(req, TenantId::ANONYMOUS)
    }

    /// Routes one request on behalf of `tenant` (QoS accounting flows
    /// through to the owning shard). Untracked by the replay windows.
    ///
    /// # Errors
    ///
    /// [`JiffyError::Unavailable`] when the owning shard is crashed
    /// (retryable); whatever the owning shard returns.
    pub fn dispatch_as(&self, req: ControlRequest, tenant: TenantId) -> Result<ControlResponse> {
        self.route(req, tenant, INTERNAL_RID)
    }

    /// Routes request `rid`, passing it to every shard reached (fan-outs
    /// too): a retry after a partial fan-out runs only where it did not.
    fn route(&self, req: ControlRequest, tenant: TenantId, rid: u64) -> Result<ControlResponse> {
        let n = self.map.num_shards;
        match req {
            // A new job or server has no id yet: place it, and its
            // strided id pins it to that shard from then on.
            ControlRequest::RegisterJob { .. } | ControlRequest::JoinServer { .. } => {
                self.dispatch_journaled(self.placement(rid), req, tenant, rid)
            }
            ControlRequest::SetTenantShare { .. } => {
                let mut resp = ControlResponse::Ack;
                for i in 0..n {
                    resp = self.dispatch_journaled(i, req.clone(), tenant, rid)?;
                }
                Ok(resp)
            }
            // Membership and data-plane reports route by id residue
            // class (shards mint strided server/block ids).
            ControlRequest::LeaveServer { server } | ControlRequest::Heartbeat { server, .. } => {
                self.dispatch_journaled(self.map.shard_of_server(server), req, tenant, rid)
            }
            ControlRequest::ReportOverload { block, .. }
            | ControlRequest::ReportUnderload { block, .. }
            | ControlRequest::CommitRepartition { block, .. } => {
                self.dispatch_journaled(self.map.shard_of_block(block), req, tenant, rid)
            }
            // Observability fans out and aggregates.
            ControlRequest::GetStats => {
                let mut agg = jiffy_proto::ControllerStats::default();
                for i in 0..n {
                    let st =
                        match self.dispatch_journaled(i, ControlRequest::GetStats, tenant, rid)? {
                            ControlResponse::Stats(st) => st,
                            other => {
                                return Err(JiffyError::Internal(format!(
                                    "shard {i} returned {other:?} for GetStats"
                                )))
                            }
                        };
                    agg.free_blocks += st.free_blocks;
                    agg.total_blocks += st.total_blocks;
                    agg.jobs += st.jobs;
                    agg.prefixes += st.prefixes;
                    agg.ops_served += st.ops_served;
                    agg.leases_expired += st.leases_expired;
                    agg.splits += st.splits;
                    agg.merges += st.merges;
                    agg.metadata_bytes += st.metadata_bytes;
                    agg.servers += st.servers;
                    agg.servers_failed += st.servers_failed;
                    agg.blocks_migrated += st.blocks_migrated;
                    agg.scale_ups += st.scale_ups;
                    agg.scale_downs += st.scale_downs;
                }
                Ok(ControlResponse::Stats(agg))
            }
            ControlRequest::ListServers => {
                let mut servers = Vec::new();
                for i in 0..n {
                    match self.dispatch_journaled(i, ControlRequest::ListServers, tenant, rid)? {
                        ControlResponse::Servers(mut s) => servers.append(&mut s),
                        other => {
                            return Err(JiffyError::Internal(format!(
                                "shard {i} returned {other:?} for ListServers"
                            )))
                        }
                    }
                }
                servers.sort_by_key(|s| s.server.raw());
                Ok(ControlResponse::Servers(servers))
            }
            ControlRequest::TenantStats => {
                let mut by_tenant: HashMap<u64, TenantStatsEntry> = HashMap::new();
                for i in 0..n {
                    match self.dispatch_journaled(i, ControlRequest::TenantStats, tenant, rid)? {
                        ControlResponse::TenantStatsReport(entries) => {
                            for e in entries {
                                let agg = by_tenant.entry(e.tenant.raw()).or_insert_with(|| {
                                    TenantStatsEntry {
                                        tenant: e.tenant,
                                        share: e.share,
                                        quota_bytes: e.quota_bytes,
                                        allocated_blocks: 0,
                                        allocated_bytes: 0,
                                        ops_admitted: 0,
                                        ops_throttled: 0,
                                        bytes_in: 0,
                                        bytes_out: 0,
                                        op_rate_ewma: 0.0,
                                    }
                                });
                                agg.allocated_blocks += e.allocated_blocks;
                                agg.allocated_bytes += e.allocated_bytes;
                                agg.ops_admitted += e.ops_admitted;
                                agg.ops_throttled += e.ops_throttled;
                                agg.bytes_in += e.bytes_in;
                                agg.bytes_out += e.bytes_out;
                                agg.op_rate_ewma += e.op_rate_ewma;
                            }
                        }
                        other => {
                            return Err(JiffyError::Internal(format!(
                                "shard {i} returned {other:?} for TenantStats"
                            )))
                        }
                    }
                }
                let mut entries: Vec<TenantStatsEntry> = by_tenant.into_values().collect();
                entries.sort_by_key(|e| e.tenant.raw());
                Ok(ControlResponse::TenantStatsReport(entries))
            }
            // Everything else is job-scoped: the job's shard holds its
            // whole hierarchy and journals its own mutations.
            other => {
                let job = job_scope(&other).ok_or_else(|| {
                    JiffyError::Internal(format!("request has no shard scope: {other:?}"))
                })?;
                self.dispatch_journaled(self.map.shard_of_job(job), other, tenant, rid)
            }
        }
    }

    /// The shard a new job or server goes to. A client-stamped request
    /// goes by `rid`, so its retry reaches the replay window holding the
    /// first answer; untracked ones go round-robin over the live shards.
    fn placement(&self, rid: u64) -> u32 {
        let n = self.map.num_shards;
        if is_client_rid(rid) {
            return (rid % u64::from(n)) as u32;
        }
        let start = (self.placements.fetch_add(1, Ordering::Relaxed) % u64::from(n)) as u32;
        (0..n)
            .map(|off| (start + off) % n)
            .find(|&s| self.slots[s as usize].read().is_some())
            .unwrap_or(start)
    }
}

/// The job a job-scoped request belongs to.
fn job_scope(req: &ControlRequest) -> Option<JobId> {
    use ControlRequest::*;
    match req {
        DeregisterJob { job }
        | CreatePrefix { job, .. }
        | AddParent { job, .. }
        | CreateHierarchy { job, .. }
        | RemovePrefix { job, .. }
        | ResolvePrefix { job, .. }
        | RenewLease { job, .. }
        | GetLeaseDuration { job, .. }
        | FlushPrefix { job, .. }
        | LoadPrefix { job, .. }
        | ListPrefixes { job } => Some(*job),
        _ => None,
    }
}

impl Service for ShardedController {
    fn handle(&self, req: Envelope, _session: &SessionHandle) -> Envelope {
        match req {
            Envelope::ControlReq { id, req, tenant } => {
                let resp = self.route(req, tenant, id);
                // Epoch loaded after dispatch: a response to the very op
                // that changed placement already carries the bump.
                Envelope::ControlResp {
                    id,
                    resp,
                    epoch: self.view_epoch(),
                }
            }
            other => Envelope::ControlResp {
                id: 0,
                resp: Err(JiffyError::Rpc(format!("unexpected envelope {other:?}"))),
                epoch: self.view_epoch(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::NoopDataPlane;
    use jiffy_common::clock::SystemClock;
    use jiffy_persistent::MemObjectStore;
    use jiffy_proto::DagNodeSpec;

    fn build(n: u32) -> ShardedController {
        ShardedController::build(
            JiffyConfig::for_testing(),
            SystemClock::shared(),
            Arc::new(NoopDataPlane),
            Arc::new(MemObjectStore::new()),
            n,
        )
        .unwrap()
    }

    fn join_servers(sc: &ShardedController, count: usize, capacity: u32) {
        for i in 0..count {
            sc.dispatch(ControlRequest::JoinServer {
                addr: format!("inproc:{i}"),
                capacity_blocks: capacity,
            })
            .unwrap();
        }
    }

    fn register(sc: &ShardedController, name: &str) -> JobId {
        match sc
            .dispatch(ControlRequest::RegisterJob { name: name.into() })
            .unwrap()
        {
            ControlResponse::JobRegistered { job } => job,
            other => panic!("{other:?}"),
        }
    }

    fn create(sc: &ShardedController, job: JobId, name: &str, parents: &[&str]) -> Result<()> {
        sc.dispatch(ControlRequest::CreatePrefix {
            job,
            name: name.into(),
            parents: parents.iter().map(ToString::to_string).collect(),
            ds: None,
            initial_blocks: 0,
        })
        .map(|_| ())
    }

    #[test]
    fn job_routing_sends_a_whole_hierarchy_to_the_jobs_shard() {
        let sc = build(4);
        // Untracked registrations go round-robin: one job per shard.
        let jobs: Vec<JobId> = (0..4).map(|i| register(&sc, &format!("j{i}"))).collect();
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(sc.shard_map().shard_of_job(*job), i as u32);
            for k in 0..8 {
                create(&sc, *job, &format!("t{k}"), &[]).unwrap();
            }
            create(&sc, *job, "child", &["t3"]).unwrap();
            // A dotted path resolves on the job's shard.
            match sc
                .dispatch(ControlRequest::ResolvePrefix {
                    job: *job,
                    name: "t3.child".into(),
                })
                .unwrap()
            {
                ControlResponse::Resolved(_) => {}
                other => panic!("{other:?}"),
            }
        }
        for i in 0..4 {
            assert_eq!(sc.shard(i).stats().prefixes, 9, "shard {i}");
            assert!(sc.shard(i).check_invariants().is_empty());
        }
    }

    #[test]
    fn a_job_lives_on_exactly_one_shard() {
        let sc = build(3);
        let job = register(&sc, "one-home");
        let owner = sc.shard_map().shard_of_job(job) as usize;
        for i in 0..3 {
            let holds = sc
                .shard(i)
                .state_mirror()
                .jobs
                .iter()
                .any(|j| j.job == job.raw() && j.name == "one-home");
            assert_eq!(holds, i == owner, "shard {i} (owner {owner})");
        }
        // Stats report the job once.
        match sc.dispatch(ControlRequest::GetStats).unwrap() {
            ControlResponse::Stats(s) => assert_eq!(s.jobs, 1),
            other => panic!("{other:?}"),
        }
        // Deregistration touches the owner only, and leaves no trace.
        sc.dispatch(ControlRequest::DeregisterJob { job }).unwrap();
        match sc.dispatch(ControlRequest::GetStats).unwrap() {
            ControlResponse::Stats(s) => assert_eq!(s.jobs, 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let sc = build(2);
        sc.shard(0)
            .dispatch(ControlRequest::JoinServer {
                addr: "inproc:0".into(),
                capacity_blocks: 3,
            })
            .unwrap();
        sc.shard(1)
            .dispatch(ControlRequest::JoinServer {
                addr: "inproc:1".into(),
                capacity_blocks: 5,
            })
            .unwrap();
        match sc.dispatch(ControlRequest::GetStats).unwrap() {
            ControlResponse::Stats(s) => assert_eq!(s.total_blocks, 8),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multi_root_hierarchy_is_created_atomically_on_the_jobs_shard() {
        let sc = build(4);
        let job = register(&sc, "dag");
        // Two roots and a fan-in, in one atomic request.
        let spec = |name: &str, parents: &[&str]| DagNodeSpec {
            name: name.into(),
            parents: parents.iter().map(ToString::to_string).collect(),
            ds: None,
            initial_blocks: 0,
        };
        let nodes = vec![
            spec("r0", &[]),
            spec("r1", &[]),
            spec("join", &["r0", "r1"]),
        ];
        match sc
            .dispatch(ControlRequest::CreateHierarchy { job, nodes })
            .unwrap()
        {
            ControlResponse::Ack => {}
            other => panic!("{other:?}"),
        }
        let owner = sc.shard_map().shard_of_job(job) as usize;
        assert_eq!(sc.shard(owner).stats().prefixes, 3);
        match sc.dispatch(ControlRequest::RenewLease {
            job,
            name: "r0".into(),
        }) {
            Ok(ControlResponse::LeaseRenewed { renewed, .. }) => {
                assert!(renewed.contains(&"join".to_string()), "{renewed:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cross_root_parent_edges_stay_on_the_jobs_shard() {
        let sc = build(4);
        let job = register(&sc, "dag");
        // Per-node creates and extra edges across roots land on the
        // job's shard.
        create(&sc, job, "r0", &[]).unwrap();
        create(&sc, job, "a", &[]).unwrap();
        create(&sc, job, "b", &[]).unwrap();
        create(&sc, job, "kid", &["a", "b"]).unwrap();
        sc.dispatch(ControlRequest::AddParent {
            job,
            name: "kid".into(),
            parent: "r0".into(),
        })
        .unwrap();
        let owner = sc.shard_map().shard_of_job(job) as usize;
        assert_eq!(sc.shard(owner).stats().prefixes, 4);
        match sc.dispatch(ControlRequest::RenewLease {
            job,
            name: "r0".into(),
        }) {
            Ok(ControlResponse::LeaseRenewed { renewed, .. }) => {
                assert!(renewed.contains(&"kid".to_string()), "{renewed:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn crashed_shard_is_unavailable_until_restarted() {
        let sc = build(2);
        join_servers(&sc, 4, 4);
        // One job per shard; dark the second one's.
        let _on_0 = register(&sc, "j0");
        let job = register(&sc, "j1");
        assert_eq!(sc.shard_map().shard_of_job(job), 1);
        let name = "t".to_string();
        sc.dispatch(ControlRequest::CreatePrefix {
            job,
            name: name.clone(),
            parents: vec![],
            ds: None,
            initial_blocks: 1,
        })
        .unwrap();
        sc.crash_shard(1);
        let err = sc
            .dispatch(ControlRequest::ResolvePrefix {
                job,
                name: name.clone(),
            })
            .unwrap_err();
        assert!(err.is_retryable(), "{err:?}");
        sc.restart_shard(1).unwrap();
        match sc
            .dispatch(ControlRequest::ResolvePrefix {
                job,
                name: name.clone(),
            })
            .unwrap()
        {
            ControlResponse::Resolved(v) => assert_eq!(v.name, name),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn restart_recovers_routing_and_epoch_moves_forward() {
        let sc = build(2);
        join_servers(&sc, 4, 4);
        let _on_0 = register(&sc, "j0");
        let job = register(&sc, "j1");
        assert_eq!(sc.shard_map().shard_of_job(job), 1);
        create(&sc, job, "root", &[]).unwrap();
        create(&sc, job, "leaf", &["root"]).unwrap();
        let before = sc.view_epoch();
        sc.crash_shard(1);
        // Wipe the router's soft state to prove restart re-derives it.
        sc.forget_soft_state();
        sc.restart_shard(1).unwrap();
        assert!(sc.view_epoch() > before, "recovery must bump the epoch");
        assert_eq!(
            sc.placements.load(Ordering::Relaxed),
            6,
            "cursor resumes past 4 servers and 2 jobs"
        );
        assert!(sc.shard(1).check_invariants().is_empty());
        match sc
            .dispatch(ControlRequest::RenewLease {
                job,
                name: "leaf".into(),
            })
            .unwrap()
        {
            ControlResponse::LeaseRenewed { renewed, .. } => {
                assert!(renewed.contains(&"leaf".to_string()));
            }
            other => panic!("{other:?}"),
        }
        // The recovered shard keeps minting job ids in its own class.
        let _next_on_0 = register(&sc, "j2");
        let next = register(&sc, "j3");
        assert_eq!(sc.shard_map().shard_of_job(next), 1);
        assert!(next.raw() > job.raw());
    }

    #[test]
    fn shards_operate_independently() {
        let sc = build(2);
        for i in 0..2 {
            sc.shard(i)
                .dispatch(ControlRequest::JoinServer {
                    addr: format!("inproc:{i}"),
                    capacity_blocks: 4,
                })
                .unwrap();
        }
        // Drive each shard with its own job; no cross-shard interference.
        let mut jobs = Vec::new();
        for i in 0..2 {
            match sc
                .shard(i)
                .dispatch(ControlRequest::RegisterJob {
                    name: format!("job{i}"),
                })
                .unwrap()
            {
                ControlResponse::JobRegistered { job } => jobs.push(job),
                other => panic!("{other:?}"),
            }
        }
        for (i, job) in jobs.iter().enumerate() {
            // Each shard mints its jobs in its own residue class, so the
            // router finds them without being told.
            assert_eq!(sc.shard_map().shard_of_job(*job), i as u32);
            create(&sc, *job, "t", &[]).unwrap();
        }
        assert_eq!(sc.shard(0).stats().prefixes, 1);
        assert_eq!(sc.shard(1).stats().prefixes, 1);
    }
}
