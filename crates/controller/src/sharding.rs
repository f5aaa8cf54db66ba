//! Controller sharding (paper §4.2.1, Fig. 12b; DESIGN.md §15).
//!
//! Jiffy scales its control plane by hash-partitioning the hierarchy
//! namespace across shards — the same scheme scales across cores of one
//! server and across servers. Each shard is a full [`Controller`] with
//! its own free list, journal prefix and snapshot stream; shards share
//! nothing but the view epoch, which is exactly why the paper observes
//! near-linear throughput scaling.
//!
//! Partitioning is by *hierarchy root*: a path's first component (and
//! therefore every node reachable from it — parents and children must
//! co-hash, enforced at create time) lives on
//! `fnv(job, root) % num_shards`. Bare node names below a root are
//! routed through a router-maintained root table, rebuilt from shard
//! state after a restart. Server and block ids are minted strided
//! (shard `i` issues ids ≡ `i` mod N), so data-plane reports route by
//! `id % N` with no table at all.

use std::collections::HashMap;

use jiffy_sync::atomic::{AtomicU64, Ordering};
use jiffy_sync::{Arc, RwLock};

use jiffy_common::clock::SharedClock;
use jiffy_common::{JiffyConfig, JiffyError, JobId, Result, TenantId};
use jiffy_persistent::ObjectStore;
use jiffy_proto::{
    ControlRequest, ControlResponse, DagNodeSpec, Envelope, ShardMap, TenantStatsEntry,
    INTERNAL_RID,
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
/// hierarchy-root hash. A crashed shard's slot goes dark (requests
/// routed to it fail with [`JiffyError::Unavailable`], which clients
/// retry) until [`ShardedController::restart_shard`] recovers it from
/// its journal prefix.
pub struct ShardedController {
    /// One slot per shard; `None` while the shard is crashed.
    slots: Vec<RwLock<Option<Arc<Controller>>>>,
    map: ShardMap,
    /// `(job, node name) → root component name`, so bare-name requests
    /// (renewals, resolves) route to the shard owning the node's root.
    /// Soft state: updated on successful creates/removes, re-derived
    /// from shard state on restart.
    roots: RwLock<HashMap<(u64, String), String>>,
    /// The control plane's one view epoch: shared by every shard,
    /// stamped on response envelopes, and — living here rather than in
    /// any shard — never regressed by a restart.
    epoch: Arc<AtomicU64>,
    /// Round-robin cursor for server placement: each joining server is
    /// owned by exactly one shard, and round-robin keeps per-shard
    /// capacity balanced (an address hash could starve a shard of
    /// servers entirely). The owning shard mints the server's id from
    /// its strided range, so all later by-id routing lands back on it
    /// without consulting this cursor. Soft state: a restart resumes it
    /// at the recovered member count.
    joins: AtomicU64,
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
            roots: RwLock::new(HashMap::new()),
            epoch,
            joins: AtomicU64::new(0),
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

    /// The static shard map clients use for cross-shard orchestration.
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

    /// Forgets the router's soft state (learned roots, join cursor), as
    /// a crash of the whole control plane does; [`Self::restart_shard`]
    /// re-derives both from what the shards recover.
    pub fn forget_soft_state(&self) {
        self.roots.write().clear();
        self.joins.store(0, Ordering::Relaxed);
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
        self.absorb_roots_of(&shard);
        *self.slots[idx].write() = Some(shard.clone());
        // Round-robin stood at one past the last join: resume it at the
        // live member count across the shards that are up.
        let live: Vec<Arc<Controller>> = self
            .slots
            .iter()
            .filter_map(|slot| slot.read().clone())
            .collect();
        let members: u64 = live.iter().map(|s| s.stats().servers).sum();
        self.joins.store(members, Ordering::Relaxed);
        Ok(shard)
    }

    /// Merges `(job, node) → root` entries recovered from one shard's
    /// hierarchy state into the routing table. Roots are computed by
    /// chasing parent edges to a parentless node (iterated to a fixed
    /// point because the node list is unordered).
    fn absorb_roots_of(&self, ctrl: &Controller) {
        let mut table = self.roots.write();
        for (job, _name, nodes) in ctrl.hierarchy_edges() {
            let mut local: HashMap<String, String> = HashMap::new();
            for (node, parents) in &nodes {
                if parents.is_empty() {
                    local.insert(node.clone(), node.clone());
                }
            }
            let mut changed = true;
            while changed {
                changed = false;
                for (node, parents) in &nodes {
                    if local.contains_key(node) {
                        continue;
                    }
                    if let Some(first) = parents.first() {
                        if let Some(root) = local.get(first).cloned() {
                            local.insert(node.clone(), root);
                            changed = true;
                        }
                    }
                }
            }
            for (node, root) in local {
                table.insert((job.raw(), node), root);
            }
        }
    }

    /// The shard owning the node (or dotted path) `name` of `job`.
    pub fn route_path(&self, job: JobId, name: &str) -> u32 {
        let first = ShardMap::root_component(name);
        let roots = self.roots.read();
        let root = roots
            .get(&(job.raw(), first.to_string()))
            .map_or(first, String::as_str);
        self.map.shard_of_root(job, root)
    }

    /// The root recorded for `node` of `job`, defaulting to the node
    /// itself (a parentless node is its own root).
    fn root_of(&self, job: JobId, node: &str) -> String {
        self.roots
            .read()
            .get(&(job.raw(), node.to_string()))
            .cloned()
            .unwrap_or_else(|| node.to_string())
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
    /// (retryable); cross-shard structural errors; whatever the owning
    /// shard returns.
    pub fn dispatch_as(&self, req: ControlRequest, tenant: TenantId) -> Result<ControlResponse> {
        self.route(req, tenant, INTERNAL_RID)
    }

    /// Routes request `rid`, passing it to every shard reached (fan-outs
    /// too): a retry after a partial fan-out runs only where it did not.
    fn route(&self, req: ControlRequest, tenant: TenantId, rid: u64) -> Result<ControlResponse> {
        let n = self.map.num_shards;
        match req {
            // Jobs are minted by shard 0 (the only shard whose job-id
            // generator advances) and adopted everywhere else so any
            // shard can own hierarchy roots of any job.
            ControlRequest::RegisterJob { ref name } => {
                let job_name = name.clone();
                let resp = self.dispatch_journaled(0, req, tenant, rid)?;
                if let ControlResponse::JobRegistered { job } = resp {
                    for i in 1..n {
                        self.dispatch_journaled(
                            i,
                            ControlRequest::AdoptJob {
                                job,
                                name: job_name.clone(),
                            },
                            tenant,
                            rid,
                        )?;
                    }
                }
                Ok(resp)
            }
            ControlRequest::AdoptJob { .. } => {
                for i in 0..n {
                    self.dispatch_journaled(i, req.clone(), tenant, rid)?;
                }
                Ok(ControlResponse::Ack)
            }
            ControlRequest::DeregisterJob { job } => {
                for i in 0..n {
                    self.dispatch_journaled(i, req.clone(), tenant, rid)?;
                }
                self.roots.write().retain(|(j, _), _| *j != job.raw());
                Ok(ControlResponse::Ack)
            }
            ControlRequest::SetTenantShare { .. } => {
                let mut resp = ControlResponse::Ack;
                for i in 0..n {
                    resp = self.dispatch_journaled(i, req.clone(), tenant, rid)?;
                }
                Ok(resp)
            }
            ControlRequest::CreatePrefix {
                job,
                ref name,
                ref parents,
                ..
            } => {
                let (shard, root) = self.placement_of(job, name, parents)?;
                let node = name.clone();
                let resp = self.dispatch_journaled(shard, req, tenant, rid)?;
                self.roots.write().insert((job.raw(), node), root);
                Ok(resp)
            }
            ControlRequest::AddParent {
                job,
                ref name,
                ref parent,
            } => {
                // An extra edge may only join nodes whose roots co-hash;
                // otherwise descendants of `name` would route ambiguously.
                let child_shard = self.route_path(job, name);
                let parent_shard = self.route_path(job, parent);
                if child_shard != parent_shard {
                    return Err(JiffyError::Internal(format!(
                        "cross-shard parent edge {parent} -> {name}: shards \
                         {parent_shard} vs {child_shard} (roots must co-hash)"
                    )));
                }
                self.dispatch_journaled(child_shard, req, tenant, rid)
            }
            ControlRequest::CreateHierarchy { job, ref nodes } => {
                match self.hierarchy_placement(job, nodes)? {
                    Ok(shard) => {
                        let placed: Vec<(String, String)> = self.hierarchy_roots(job, nodes);
                        let resp = self.dispatch_journaled(shard, req, tenant, rid)?;
                        let mut table = self.roots.write();
                        for (node, root) in placed {
                            table.insert((job.raw(), node), root);
                        }
                        Ok(resp)
                    }
                    // The DAG spans shards: hand the static map back and
                    // let the client re-issue per-node creates in order
                    // (non-atomic, like the paper's client-driven
                    // repartitioning).
                    Err(owner_shard) => Ok(ControlResponse::CrossShard {
                        owner_shard,
                        map: self.map,
                    }),
                }
            }
            // The root entry outlives the node, so a retry routes back.
            ControlRequest::RemovePrefix { job, ref name } => {
                let shard = self.route_path(job, name);
                self.dispatch_journaled(shard, req, tenant, rid)
            }
            // Membership and data-plane reports route by id residue
            // class (shards mint strided server/block ids); a joining
            // server has no id yet, so placement is round-robin over
            // the live shards — its strided id then pins it there. A
            // client-stamped join goes by rid, so its retry does too.
            ControlRequest::JoinServer { .. } => {
                let shard = if is_client_rid(rid) {
                    (rid % u64::from(n)) as u32
                } else {
                    let start = (self.joins.fetch_add(1, Ordering::Relaxed) % u64::from(n)) as u32;
                    (0..n)
                        .map(|off| (start + off) % n)
                        .find(|&s| self.slots[s as usize].read().is_some())
                        .unwrap_or(start)
                };
                self.dispatch_journaled(shard, req, tenant, rid)
            }
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
                // Every shard counts each job (shard 0 mints, the rest
                // adopt); report the cluster-wide count once.
                agg.jobs /= u64::from(n);
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
            ControlRequest::ListPrefixes { .. } => {
                let mut names = Vec::new();
                for i in 0..n {
                    match self.dispatch_journaled(i, req.clone(), tenant, rid)? {
                        ControlResponse::Prefixes(mut p) => names.append(&mut p),
                        other => {
                            return Err(JiffyError::Internal(format!(
                                "shard {i} returned {other:?} for ListPrefixes"
                            )))
                        }
                    }
                }
                names.sort();
                Ok(ControlResponse::Prefixes(names))
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
            // Remaining requests (resolve, renew, lease queries, flush,
            // load) are node-scoped: forward to the root's shard, which
            // journals its own mutations before acking.
            other => {
                let (job, name) = path_scope(&other).ok_or_else(|| {
                    JiffyError::Internal(format!("request has no shard scope: {other:?}"))
                })?;
                let shard = self.route_path(job, &name);
                self.dispatch_journaled(shard, other, tenant, rid)
            }
        }
    }

    /// Where a new node must live: with its parents (all of whose roots
    /// must co-hash), or — parentless — on its own hash. Returns the
    /// `(shard, root)` to record.
    fn placement_of(&self, job: JobId, name: &str, parents: &[String]) -> Result<(u32, String)> {
        let Some(first) = parents.first() else {
            return Ok((self.map.shard_of_root(job, name), name.to_string()));
        };
        let root = self.root_of(job, first);
        let shard = self.map.shard_of_root(job, &root);
        for p in &parents[1..] {
            let p_shard = self.map.shard_of_root(job, &self.root_of(job, p));
            if p_shard != shard {
                return Err(JiffyError::Internal(format!(
                    "parents of {name} live on different shards ({first} on \
                     {shard}, {p} on {p_shard}); re-root the DAG or co-hash"
                )));
            }
        }
        Ok((shard, root))
    }

    /// Which shard owns an entire DAG spec, or `Err(owner_of_first)` if
    /// it spans shards (the outer `Result` carries structural errors).
    fn hierarchy_placement(
        &self,
        job: JobId,
        nodes: &[DagNodeSpec],
    ) -> Result<std::result::Result<u32, u32>> {
        let mut first_shard = None;
        for (_node, root) in self.hierarchy_roots(job, nodes) {
            let shard = self.map.shard_of_root(job, &root);
            match first_shard {
                None => first_shard = Some(shard),
                Some(s) if s != shard => return Ok(Err(s)),
                Some(_) => {}
            }
        }
        Ok(Ok(first_shard.unwrap_or(0)))
    }

    /// `(node, root)` for every spec in a DAG, resolving parents through
    /// earlier specs (the list is topologically ordered) and, for
    /// parents created earlier, through the routing table.
    fn hierarchy_roots(&self, job: JobId, nodes: &[DagNodeSpec]) -> Vec<(String, String)> {
        let mut local: HashMap<String, String> = HashMap::new();
        let mut out = Vec::with_capacity(nodes.len());
        for spec in nodes {
            let root = match spec.parents.first() {
                None => spec.name.clone(),
                Some(p) => local
                    .get(p)
                    .cloned()
                    .unwrap_or_else(|| self.root_of(job, p)),
            };
            local.insert(spec.name.clone(), root.clone());
            out.push((spec.name.clone(), root));
        }
        out
    }
}

/// Extracts the `(job, node-or-path)` scope of a node-scoped request.
fn path_scope(req: &ControlRequest) -> Option<(JobId, String)> {
    use ControlRequest::*;
    match req {
        ResolvePrefix { job, name }
        | RenewLease { job, name }
        | GetLeaseDuration { job, name }
        | FlushPrefix { job, name, .. }
        | LoadPrefix { job, name, .. } => Some((*job, name.clone())),
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

    #[test]
    fn root_routing_is_deterministic_and_renames_follow_roots() {
        let sc = build(4);
        let job = register(&sc, "j");
        for i in 0..8 {
            sc.dispatch(ControlRequest::CreatePrefix {
                job,
                name: format!("t{i}"),
                parents: vec![],
                ds: None,
                initial_blocks: 0,
            })
            .unwrap();
        }
        // A child routes to its parent's shard even though its own name
        // would hash elsewhere.
        sc.dispatch(ControlRequest::CreatePrefix {
            job,
            name: "child".into(),
            parents: vec!["t3".into()],
            ds: None,
            initial_blocks: 0,
        })
        .unwrap();
        assert_eq!(sc.route_path(job, "child"), sc.route_path(job, "t3"));
        // Bare-name resolve of the child succeeds (lands on t3's shard).
        match sc
            .dispatch(ControlRequest::ResolvePrefix {
                job,
                name: "t3.child".into(),
            })
            .unwrap()
        {
            ControlResponse::Resolved(_) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn jobs_are_adopted_by_every_shard() {
        let sc = build(3);
        let job = register(&sc, "everywhere");
        for i in 0..3 {
            let edges = sc.shard(i).hierarchy_edges();
            assert!(
                edges
                    .iter()
                    .any(|(j, name, _)| *j == job && name == "everywhere"),
                "shard {i} did not adopt the job"
            );
        }
        // Stats report the job once, not once per shard.
        match sc.dispatch(ControlRequest::GetStats).unwrap() {
            ControlResponse::Stats(s) => assert_eq!(s.jobs, 1),
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
    fn cross_shard_hierarchy_returns_the_shard_map() {
        let sc = build(4);
        let job = register(&sc, "dag");
        // Find two parentless roots that hash to different shards.
        let mut names = (0..32).map(|i| format!("r{i}"));
        let a = names.next().unwrap();
        let b = names
            .find(|n| sc.map.shard_of_root(job, n) != sc.map.shard_of_root(job, &a))
            .expect("32 names must span 4 shards");
        let nodes = vec![
            DagNodeSpec {
                name: a,
                parents: vec![],
                ds: None,
                initial_blocks: 0,
            },
            DagNodeSpec {
                name: b,
                parents: vec![],
                ds: None,
                initial_blocks: 0,
            },
        ];
        match sc
            .dispatch(ControlRequest::CreateHierarchy { job, nodes })
            .unwrap()
        {
            ControlResponse::CrossShard { map, .. } => {
                assert_eq!(map.num_shards, 4);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cross_shard_parent_edge_is_rejected() {
        let sc = build(4);
        let job = register(&sc, "j");
        let mut names = (0..32).map(|i| format!("r{i}"));
        let a = names.next().unwrap();
        let b = names
            .find(|n| sc.map.shard_of_root(job, n) != sc.map.shard_of_root(job, &a))
            .unwrap();
        for name in [&a, &b] {
            sc.dispatch(ControlRequest::CreatePrefix {
                job,
                name: name.clone(),
                parents: vec![],
                ds: None,
                initial_blocks: 0,
            })
            .unwrap();
        }
        let err = sc
            .dispatch(ControlRequest::CreatePrefix {
                job,
                name: "kid".into(),
                parents: vec![a, b],
                ds: None,
                initial_blocks: 0,
            })
            .unwrap_err();
        assert!(matches!(err, JiffyError::Internal(_)), "{err:?}");
    }

    #[test]
    fn crashed_shard_is_unavailable_until_restarted() {
        let sc = build(2);
        join_servers(&sc, 4, 4);
        let job = register(&sc, "j");
        // Find a root on shard 1 so we can dark it.
        let name = (0..16)
            .map(|i| format!("t{i}"))
            .find(|n| sc.map.shard_of_root(job, n) == 1)
            .unwrap();
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
    fn restart_recovers_roots_and_epoch_moves_forward() {
        let sc = build(2);
        join_servers(&sc, 4, 4);
        let job = register(&sc, "j");
        let root = (0..16)
            .map(|i| format!("t{i}"))
            .find(|n| sc.map.shard_of_root(job, n) == 1)
            .unwrap();
        sc.dispatch(ControlRequest::CreatePrefix {
            job,
            name: root.clone(),
            parents: vec![],
            ds: None,
            initial_blocks: 0,
        })
        .unwrap();
        sc.dispatch(ControlRequest::CreatePrefix {
            job,
            name: "leaf".into(),
            parents: vec![root.clone()],
            ds: None,
            initial_blocks: 0,
        })
        .unwrap();
        let before = sc.view_epoch();
        sc.crash_shard(1);
        // Wipe the router's soft state to prove restart re-derives it.
        sc.forget_soft_state();
        sc.restart_shard(1).unwrap();
        assert!(sc.view_epoch() > before, "recovery must bump the epoch");
        assert_eq!(sc.root_of(job, "leaf"), root);
        assert_eq!(sc.joins.load(Ordering::Relaxed), 4, "cursor resumes");
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
            sc.shard(i)
                .dispatch(ControlRequest::CreatePrefix {
                    job: *job,
                    name: "t".into(),
                    parents: vec![],
                    ds: None,
                    initial_blocks: 0,
                })
                .unwrap();
        }
        assert_eq!(sc.shard(0).stats().prefixes, 1);
        assert_eq!(sc.shard(1).stats().prefixes, 1);
    }
}
