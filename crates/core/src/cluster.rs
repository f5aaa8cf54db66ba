//! Cluster bootstrap: wire a controller, memory servers, persistent
//! tier and client fabric together, in-process or over TCP — plus the
//! elastic server pool: add, drain, and kill servers at runtime, and
//! run the demand-driven autoscaler against the live pool.

use jiffy_sync::{Arc, Mutex, RwLock};

use jiffy_client::JiffyClient;
use jiffy_common::clock::{SharedClock, SystemClock};
use jiffy_common::{JiffyConfig, JiffyError, Result, ServerId, TenantId};
use jiffy_controller::{Controller, ControllerHandle, RpcDataPlane, ShardedController};
use jiffy_elastic::{AutoscalerPolicy, ServerProvider};
use jiffy_persistent::{MemObjectStore, ObjectStore};
use jiffy_proto::{ControlRequest, ControlResponse};
use jiffy_rpc::tcp::{serve_tcp, TcpServerHandle};
use jiffy_rpc::{Deduplicated, Fabric, Service};
use jiffy_server::MemoryServer;

/// The mutable part of the cluster, shared with the [`ServerProvider`]
/// the autoscaler acts through: the live server pool plus everything
/// needed to stand up (or tear down) one more server.
struct ClusterInner {
    fabric: Fabric,
    cfg: JiffyConfig,
    controller_addr: String,
    servers: RwLock<Vec<Arc<MemoryServer>>>,
    tcp: bool,
    tcp_handles: Mutex<Vec<TcpServerHandle>>,
    blocks_per_server: u32,
}

impl ClusterInner {
    /// Boots one more memory server (with `blocks` blocks), registers it
    /// with the controller, and starts its heartbeat.
    fn spawn_server(&self, blocks: u32) -> Result<ServerId> {
        let server = MemoryServer::new(
            self.cfg.clone(),
            self.fabric.clone(),
            self.controller_addr.clone(),
        );
        let addr = if self.tcp {
            let handle = serve_tcp("127.0.0.1:0", server.clone())?;
            let addr = handle.addr().to_string();
            self.tcp_handles.lock().push(handle);
            addr
        } else {
            self.fabric.hub().register(server.clone())
        };
        let id = server.register(&addr, blocks)?;
        server.start_heartbeats();
        self.servers.write().push(server);
        Ok(id)
    }

    /// Removes a server from the pool and tears down its transport
    /// endpoint, so late requests fail with `Unavailable` rather than
    /// reaching a ghost.
    fn remove_server(&self, id: ServerId) -> Option<Arc<MemoryServer>> {
        let server = {
            let mut servers = self.servers.write();
            let pos = servers
                .iter()
                .position(|s| s.identity().map(|(sid, _)| sid) == Some(id))?;
            servers.remove(pos)
        };
        if let Some((_, addr)) = server.identity() {
            if self.tcp {
                self.tcp_handles.lock().retain(|h| h.addr() != addr);
            } else {
                self.fabric.hub().deregister(&addr);
            }
        }
        Some(server)
    }
}

/// [`ServerProvider`] backed by the cluster itself: scale-up boots an
/// in-process (or TCP) memory server with the cluster's default block
/// count; scale-down tears the drained server's endpoint down.
struct ClusterProvider {
    inner: Arc<ClusterInner>,
}

impl ServerProvider for ClusterProvider {
    fn provision(&self) -> Result<ServerId> {
        self.inner.spawn_server(self.inner.blocks_per_server)
    }

    fn decommission(&self, server: ServerId) -> Result<()> {
        self.inner.remove_server(server);
        Ok(())
    }
}

/// A running Jiffy cluster (controller + memory servers) plus the fabric
/// to reach it. Dropping the cluster stops its background workers.
///
/// The controller slot is swappable: [`JiffyCluster::crash_controller`]
/// tears the current instance's transport and workers down (its memory
/// state is lost, exactly like a process crash), and
/// [`JiffyCluster::restart_controller`] recovers a fresh instance from
/// the metadata journal in the persistent tier at the same address.
pub struct JiffyCluster {
    controller: RwLock<Arc<Controller>>,
    /// `Some` when the control plane is partitioned into shards; control
    /// traffic then flows through the router and individual shards can
    /// be crashed/recovered via [`JiffyCluster::crash_controller_shard`].
    sharded: Option<Arc<ShardedController>>,
    persistent: Arc<dyn ObjectStore>,
    inner: Arc<ClusterInner>,
    clock: SharedClock,
    run_expiry: bool,
    /// Per-shard expiry workers (one slot when unsharded).
    expiry: Mutex<Vec<Option<ControllerHandle>>>,
    elastic: Mutex<Option<ControllerHandle>>,
    autoscaler_policy: Mutex<Option<AutoscalerPolicy>>,
    controller_tcp: Mutex<Option<TcpServerHandle>>,
}

impl JiffyCluster {
    /// Boots an in-process cluster: `num_servers` memory servers with
    /// `blocks_per_server` blocks each, a fresh in-memory persistent
    /// tier, a system clock, and a running lease-expiry worker.
    ///
    /// # Errors
    ///
    /// Registration failures.
    pub fn in_process(
        cfg: JiffyConfig,
        num_servers: usize,
        blocks_per_server: u32,
    ) -> Result<Self> {
        Self::build(
            cfg,
            num_servers,
            blocks_per_server,
            SystemClock::shared(),
            Arc::new(MemObjectStore::new()),
            true,
            false,
        )
    }

    /// Boots a cluster whose controller and memory servers listen on
    /// real TCP sockets (ephemeral ports on localhost).
    ///
    /// # Errors
    ///
    /// Bind or registration failures.
    pub fn over_tcp(cfg: JiffyConfig, num_servers: usize, blocks_per_server: u32) -> Result<Self> {
        Self::build(
            cfg,
            num_servers,
            blocks_per_server,
            SystemClock::shared(),
            Arc::new(MemObjectStore::new()),
            true,
            true,
        )
    }

    /// Fully parameterized bootstrap (custom clock, custom persistent
    /// tier, optional expiry worker, in-proc or TCP transport).
    ///
    /// # Errors
    ///
    /// Bind or registration failures.
    pub fn build(
        cfg: JiffyConfig,
        num_servers: usize,
        blocks_per_server: u32,
        clock: SharedClock,
        persistent: Arc<dyn ObjectStore>,
        run_expiry_worker: bool,
        tcp: bool,
    ) -> Result<Self> {
        Self::build_with_shards(
            cfg,
            num_servers,
            blocks_per_server,
            clock,
            persistent,
            run_expiry_worker,
            tcp,
            1,
        )
    }

    /// Boots an in-process cluster whose control plane is partitioned
    /// into `shards` controller shards behind one routing endpoint
    /// (DESIGN.md §15). `shards == 1` is exactly [`Self::in_process`].
    ///
    /// # Errors
    ///
    /// Registration failures.
    pub fn in_process_sharded(
        cfg: JiffyConfig,
        num_servers: usize,
        blocks_per_server: u32,
        shards: usize,
    ) -> Result<Self> {
        Self::build_with_shards(
            cfg,
            num_servers,
            blocks_per_server,
            SystemClock::shared(),
            Arc::new(MemObjectStore::new()),
            true,
            false,
            shards,
        )
    }

    /// [`Self::build`] with a sharded control plane: `shards` in-process
    /// controller shards, each journaling under its own
    /// `jiffy-meta/shard-{i}/` prefix in the persistent tier, fronted by
    /// a [`ShardedController`] router at one transport address. With
    /// `shards <= 1` this is the unsharded path, byte-for-byte (single
    /// `Controller`, plain `jiffy-meta/` journal prefix).
    ///
    /// # Errors
    ///
    /// Bind or registration failures.
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_shards(
        cfg: JiffyConfig,
        num_servers: usize,
        blocks_per_server: u32,
        clock: SharedClock,
        persistent: Arc<dyn ObjectStore>,
        run_expiry_worker: bool,
        tcp: bool,
        shards: usize,
    ) -> Result<Self> {
        let fabric = Fabric::new();
        let dataplane = Arc::new(RpcDataPlane::new(fabric.clone()));
        let (controller, sharded) = if shards <= 1 {
            let controller =
                Controller::new(cfg.clone(), clock.clone(), dataplane, persistent.clone())?;
            (controller, None)
        } else {
            let sc = Arc::new(ShardedController::build(
                cfg.clone(),
                clock.clone(),
                dataplane,
                persistent.clone(),
                shards as u32,
            )?);
            (sc.shard(0), Some(sc))
        };
        // The control plane's one dedup mechanism: a per-session replay
        // cache, so a client retrying a timed-out request (same request
        // id) never runs a non-idempotent handler twice. Memory servers
        // are served bare — their dedup is the per-block replay window.
        let controller_svc: Arc<dyn Service> = match &sharded {
            Some(sc) => Deduplicated::shared(sc.clone()),
            None => Deduplicated::shared(controller.clone()),
        };
        let mut controller_tcp = None;
        let controller_addr = if tcp {
            let handle = serve_tcp("127.0.0.1:0", controller_svc)?;
            let addr = handle.addr().to_string();
            controller_tcp = Some(handle);
            addr
        } else {
            fabric.hub().register(controller_svc)
        };
        let inner = Arc::new(ClusterInner {
            fabric,
            cfg,
            controller_addr,
            servers: RwLock::new(Vec::new()),
            tcp,
            tcp_handles: Mutex::new(Vec::new()),
            blocks_per_server,
        });
        for _ in 0..num_servers {
            inner.spawn_server(blocks_per_server)?;
        }
        let expiry = match &sharded {
            Some(sc) => (0..sc.num_shards())
                .map(|i| run_expiry_worker.then(|| sc.shard(i).start_expiry_worker()))
                .collect(),
            None => vec![run_expiry_worker.then(|| controller.start_expiry_worker())],
        };
        Ok(Self {
            controller: RwLock::new(controller),
            sharded,
            persistent,
            inner,
            clock,
            run_expiry: run_expiry_worker,
            expiry: Mutex::new(expiry),
            elastic: Mutex::new(None),
            autoscaler_policy: Mutex::new(None),
            controller_tcp: Mutex::new(controller_tcp),
        })
    }

    /// A client connected to this cluster's controller.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn client(&self) -> Result<JiffyClient> {
        JiffyClient::connect(self.inner.fabric.clone(), &self.inner.controller_addr)
    }

    /// A client whose requests are accounted to (and admission-controlled
    /// as) `tenant`.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn tenant_client(&self, tenant: TenantId) -> Result<JiffyClient> {
        Ok(self.client()?.with_tenant(tenant))
    }

    /// Like [`Self::tenant_client`], but on a private transport fabric
    /// with its own connections — how real tenants (separate processes)
    /// reach the cluster, so one tenant's traffic never queues behind
    /// another's on a shared session. Only available on TCP clusters:
    /// in-process service names live in the shared fabric's hub.
    ///
    /// # Errors
    ///
    /// Transport failures, or the cluster is in-process.
    pub fn isolated_tenant_client(&self, tenant: TenantId) -> Result<JiffyClient> {
        if !self.inner.tcp {
            return Err(JiffyError::Rpc(
                "isolated_tenant_client requires a TCP cluster".into(),
            ));
        }
        let client = JiffyClient::connect(Fabric::new(), &self.inner.controller_addr)?;
        Ok(client.with_tenant(tenant))
    }

    /// Sets a tenant's fair-share weight, memory quota, and data-plane
    /// rate limits (0 = unlimited / config default for each limit). The
    /// change is journaled on the controller and pushed to every live
    /// memory server immediately (heartbeats keep refreshing it
    /// afterwards, covering servers that join later).
    ///
    /// # Errors
    ///
    /// Controller dispatch failures.
    pub fn set_tenant_share(
        &self,
        tenant: TenantId,
        share: u32,
        quota_bytes: u64,
        ops_per_sec: u64,
        bytes_per_sec: u64,
    ) -> Result<()> {
        self.dispatch_control(ControlRequest::SetTenantShare {
            tenant,
            share,
            quota_bytes,
            ops_per_sec,
            bytes_per_sec,
        })?;
        // Sharded mode fans SetTenantShare out to every shard, so any
        // shard's limits table is authoritative.
        let limits = self.controller().tenant_limits();
        for server in self.inner.servers.read().iter() {
            server.install_tenant_limits(&limits);
        }
        Ok(())
    }

    /// Per-tenant usage and load accounting, aggregated across the
    /// controller's allocation metadata and the servers' heartbeat
    /// reports.
    ///
    /// # Errors
    ///
    /// Controller dispatch failures.
    pub fn tenant_stats(&self) -> Result<Vec<jiffy_proto::TenantStatsEntry>> {
        match self.dispatch_control(ControlRequest::TenantStats)? {
            ControlResponse::TenantStatsReport(entries) => Ok(entries),
            other => Err(JiffyError::Rpc(format!(
                "unexpected tenant-stats reply: {other:?}"
            ))),
        }
    }

    /// The shared connection fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.inner.fabric
    }

    /// The current controller instance (for stats and direct dispatch
    /// in tests/benches). Owned, because a crash/restart cycle swaps
    /// the instance out from under the cluster. On a sharded cluster
    /// this is shard 0.
    ///
    /// # Panics
    ///
    /// On a sharded cluster whose shard 0 is currently crashed.
    pub fn controller(&self) -> Arc<Controller> {
        match &self.sharded {
            Some(sc) => sc.shard(0),
            None => self.controller.read().clone(),
        }
    }

    /// The control-plane router, when this cluster was built with
    /// [`Self::build_with_shards`] and more than one shard.
    pub fn sharded_controller(&self) -> Option<&Arc<ShardedController>> {
        self.sharded.as_ref()
    }

    /// Number of controller shards (1 for an unsharded cluster).
    pub fn controller_shards(&self) -> usize {
        self.sharded.as_ref().map_or(1, |sc| sc.num_shards())
    }

    /// Routes a control request the way client traffic is routed: via
    /// the shard router when sharded, directly otherwise.
    fn dispatch_control(&self, req: ControlRequest) -> Result<ControlResponse> {
        match &self.sharded {
            Some(sc) => sc.dispatch(req),
            None => self.controller().dispatch(req),
        }
    }

    /// The controller's transport address.
    pub fn controller_addr(&self) -> &str {
        &self.inner.controller_addr
    }

    /// A snapshot of the live memory servers (usage sampling).
    pub fn servers(&self) -> Vec<Arc<MemoryServer>> {
        self.inner.servers.read().clone()
    }

    /// The persistent tier backing flush/load and expiry.
    pub fn persistent(&self) -> &Arc<dyn ObjectStore> {
        &self.persistent
    }

    /// Total bytes of intermediate data resident in DRAM right now
    /// (the quantity Fig. 11a / Fig. 14 sample over time).
    pub fn used_bytes(&self) -> u64 {
        self.inner
            .servers
            .read()
            .iter()
            .map(|s| s.used_bytes())
            .sum()
    }

    /// Blocks currently allocated to data structures, across servers.
    pub fn allocated_blocks(&self) -> usize {
        self.inner
            .servers
            .read()
            .iter()
            .map(|s| s.allocated_blocks())
            .sum()
    }

    /// Adds one memory server (with `blocks` blocks) to the running
    /// cluster: it registers with the controller, starts heartbeating,
    /// and its blocks join the free pool immediately.
    ///
    /// # Errors
    ///
    /// Transport or registration failures.
    pub fn add_server(&self, blocks: u32) -> Result<ServerId> {
        self.inner.spawn_server(blocks)
    }

    /// Gracefully decommissions a server: the controller marks it
    /// draining, live-migrates every chain it hosts (client ops keep
    /// flowing — at worst they see retryable errors during a move),
    /// deregisters it, and this side tears the endpoint down. Returns
    /// how many physical blocks were migrated off it.
    ///
    /// # Errors
    ///
    /// Unknown server, or a migration failure (e.g. no capacity left on
    /// the remaining servers).
    pub fn drain_server(&self, server: ServerId) -> Result<u32> {
        match self.dispatch_control(ControlRequest::LeaveServer { server })? {
            ControlResponse::Drained {
                blocks_migrated, ..
            } => {
                self.inner.remove_server(server);
                Ok(blocks_migrated)
            }
            other => Err(JiffyError::Rpc(format!(
                "unexpected drain reply: {other:?}"
            ))),
        }
    }

    /// Kills a server abruptly (crash injection): its endpoint vanishes
    /// first — in-flight requests fail with `Unavailable` — and the
    /// controller then re-routes its blocks (replica promotion where a
    /// chain survives, persistent-tier reload where one was flushed).
    ///
    /// # Errors
    ///
    /// Unknown server.
    pub fn kill_server(&self, server: ServerId) -> Result<()> {
        self.inner.remove_server(server);
        match &self.sharded {
            // The failure is owned by the shard the server registered
            // with — same routing the router uses for its heartbeats.
            Some(sc) => {
                let idx = sc.shard_map().shard_of_server(server) as usize;
                sc.shard(idx).handle_server_failure(server)
            }
            None => self.controller().handle_server_failure(server),
        }
    }

    /// Installs the autoscaler (policy + cluster-backed provider) and
    /// starts the elasticity worker: every `cfg.elasticity_interval` it
    /// sweeps the failure detector and takes one scaling decision.
    pub fn start_elasticity(&mut self, policy: AutoscalerPolicy) {
        let provider = Arc::new(ClusterProvider {
            inner: self.inner.clone(),
        });
        let controller = self.controller();
        controller.set_autoscaler(policy, provider);
        *self.autoscaler_policy.lock() = Some(policy);
        *self.elastic.lock() = Some(controller.start_elasticity_worker());
    }

    /// Stops the elasticity worker (the autoscaler hooks stay installed;
    /// `Controller::run_autoscaler_once` still works manually).
    pub fn stop_elasticity(&mut self) {
        *self.elastic.lock() = None;
        *self.autoscaler_policy.lock() = None;
    }

    /// Crashes the controller: its transport endpoint vanishes (in-flight
    /// and subsequent requests fail with transport errors until a
    /// restart), its background workers stop, and its in-memory state is
    /// abandoned — exactly what a process crash loses. The metadata
    /// journal in the persistent tier is untouched; pair with
    /// [`JiffyCluster::restart_controller`].
    pub fn crash_controller(&self) {
        // Stop the workers first so nothing dispatches mid-teardown.
        for slot in self.expiry.lock().iter_mut() {
            *slot = None;
        }
        *self.elastic.lock() = None;
        if self.inner.tcp {
            // Dropping the handle closes the listener; session threads
            // die as clients evict their broken connections. Take it
            // out first and drop it after the guard: the handle's Drop
            // joins reactor threads, and that teardown must not run
            // while controller_tcp is held.
            let old = self.controller_tcp.lock().take();
            drop(old);
        } else {
            self.inner
                .fabric
                .hub()
                .deregister(&self.inner.controller_addr);
        }
        // A dead process finishes nothing: fence the unplugged instance
        // so a request it had already accepted cannot commit behind the
        // back of its successor.
        if self.sharded.is_none() {
            self.controller.read().halt();
        }
    }

    /// Restarts the controller at the same address, recovering all
    /// metadata (jobs, hierarchies, leases, freelist, placement) from
    /// the journal + snapshots the crashed instance wrote. Leases are
    /// re-armed and the failure detector is re-seeded at the restart
    /// instant; servers keep heartbeating into the new instance and
    /// clients retry through the restart window transparently.
    ///
    /// # Errors
    ///
    /// Journal decode/replay failures, or (TCP mode) failure to re-bind
    /// the controller's port.
    pub fn restart_controller(&self) -> Result<()> {
        if self.sharded.is_some() {
            return Err(JiffyError::Internal(
                "sharded control plane: restart shards individually via restart_controller_shard"
                    .into(),
            ));
        }
        let controller = Controller::recover(
            self.inner.cfg.clone(),
            self.clock.clone(),
            Arc::new(RpcDataPlane::new(self.inner.fabric.clone())),
            self.persistent.clone(),
        )?;
        // Same replay-cache wrapping as the original registration —
        // though the cache itself restarts empty, so exactly-once across
        // the crash leans on idempotent handlers (DESIGN.md §11).
        let controller_svc = Deduplicated::shared(controller.clone());
        if self.inner.tcp {
            let hostport = self
                .inner
                .controller_addr
                .strip_prefix("tcp:")
                .unwrap_or(&self.inner.controller_addr)
                .to_string();
            // The old listener's sockets may linger briefly; retry the
            // bind for a bounded window.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            let handle = loop {
                match serve_tcp(&hostport, controller_svc.clone()) {
                    Ok(h) => break h,
                    Err(e) => {
                        if std::time::Instant::now() >= deadline {
                            return Err(e);
                        }
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                }
            };
            // Swap under the lock, drop any stale handle after: its
            // Drop joins reactor threads (see crash_controller).
            let old = (*self.controller_tcp.lock()).replace(handle);
            drop(old);
        } else {
            self.inner
                .fabric
                .hub()
                .register_at(&self.inner.controller_addr, controller_svc)?;
        }
        if let Some(policy) = *self.autoscaler_policy.lock() {
            let provider = Arc::new(ClusterProvider {
                inner: self.inner.clone(),
            });
            controller.set_autoscaler(policy, provider);
            *self.elastic.lock() = Some(controller.start_elasticity_worker());
        }
        if self.run_expiry {
            if let Some(slot) = self.expiry.lock().first_mut() {
                *slot = Some(controller.start_expiry_worker());
            }
        }
        *self.controller.write() = controller;
        Ok(())
    }

    /// Crashes one controller shard: its in-memory state is abandoned
    /// (journal and snapshots in the persistent tier survive) and its
    /// expiry worker stops. Requests routed to it fail with a retryable
    /// `Unavailable` until [`Self::restart_controller_shard`]; the other
    /// shards — and clients' cached metadata for every shard — keep
    /// serving. On an unsharded cluster this falls back to
    /// [`Self::crash_controller`].
    pub fn crash_controller_shard(&self, idx: usize) {
        match &self.sharded {
            Some(sc) => {
                if let Some(slot) = self.expiry.lock().get_mut(idx) {
                    *slot = None;
                }
                sc.crash_shard(idx);
            }
            None => self.crash_controller(),
        }
    }

    /// Recovers shard `idx` from its own `jiffy-meta/shard-{idx}/`
    /// journal stream and brings its routing slot back up (bumping the
    /// shared view epoch, so clients drop cached metadata that might
    /// predate the crash). On an unsharded cluster this falls back to
    /// [`Self::restart_controller`].
    ///
    /// # Errors
    ///
    /// Journal decode/replay failures.
    pub fn restart_controller_shard(&self, idx: usize) -> Result<()> {
        match &self.sharded {
            Some(sc) => {
                let shard = sc.restart_shard(idx)?;
                if self.run_expiry {
                    if let Some(slot) = self.expiry.lock().get_mut(idx) {
                        *slot = Some(shard.start_expiry_worker());
                    }
                }
                Ok(())
            }
            None => self.restart_controller(),
        }
    }

    /// Whether controller shard `idx` is currently up (always true for
    /// an unsharded cluster's only controller unless it was crashed via
    /// [`Self::crash_controller`]).
    pub fn controller_shard_is_up(&self, idx: usize) -> bool {
        match &self.sharded {
            Some(sc) => sc.shard_is_up(idx),
            None => self.controller_tcp.lock().is_some() || !self.inner.tcp,
        }
    }
}

impl std::fmt::Debug for JiffyCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JiffyCluster({} servers, controller at {})",
            self.inner.servers.read().len(),
            self.inner.controller_addr
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_process_cluster_serves_kv_traffic() {
        let cluster = JiffyCluster::in_process(JiffyConfig::for_testing(), 2, 4).unwrap();
        let job = cluster.client().unwrap().register_job("t").unwrap();
        let kv = job.open_kv("s", &[], 2).unwrap();
        for i in 0..100 {
            kv.put(format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        for i in 0..100 {
            assert_eq!(
                kv.get(format!("k{i}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes())
            );
        }
        assert_eq!(kv.count().unwrap(), 100);
    }

    #[test]
    fn tcp_cluster_serves_traffic() {
        let cluster = JiffyCluster::over_tcp(JiffyConfig::for_testing(), 1, 4).unwrap();
        assert!(cluster.controller_addr().starts_with("tcp:"));
        let job = cluster.client().unwrap().register_job("t").unwrap();
        let q = job.open_queue("q", &[]).unwrap();
        q.enqueue(b"over tcp").unwrap();
        assert_eq!(q.dequeue().unwrap(), Some(b"over tcp".to_vec()));
    }

    /// With fewer live servers than `chain_length` the allocator
    /// co-locates replicas, so the head's next hop is its own address.
    /// Over TCP the fabric's pooled connection to that address is the
    /// very session the write arrived on, and a session serves one
    /// request at a time: a fan-down by RPC waits on itself until the
    /// 10 s call timeout. The chain must continue locally instead.
    #[test]
    fn co_located_chain_over_tcp_does_not_wait_on_itself() {
        use jiffy_proto::{
            DataRequest, DataResponse, DsOp, DsResult, Envelope, Replica, INTERNAL_RID,
        };
        let cfg = JiffyConfig::for_testing().with_chain_length(2);
        let cluster = JiffyCluster::over_tcp(cfg, 1, 4).unwrap();
        let job = cluster.client().unwrap().register_job("t").unwrap();
        let kv = job.open_kv("kv", &[], 1).unwrap();
        let q = job.open_queue("q", &[]).unwrap();
        let start = std::time::Instant::now();
        kv.put(b"k", b"v").unwrap();
        kv.multi_put(&[(b"a", b"1"), (b"b", b"2")]).unwrap();
        q.enqueue(b"x").unwrap();
        q.enqueue(b"y").unwrap();
        assert_eq!(q.dequeue().unwrap(), Some(b"x".to_vec()));
        let took = start.elapsed();
        assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
        // Both replicas of each chain applied every write.
        let read = |replica: &Replica, op| {
            let conn = cluster.fabric().connect(&replica.addr).unwrap();
            match conn.call(Envelope::DataReq {
                id: INTERNAL_RID,
                req: DataRequest::Op {
                    block: replica.block,
                    op,
                },
                tenant: TenantId::ANONYMOUS,
            }) {
                Ok(Envelope::DataResp { resp: Ok(r), .. }) => r,
                other => panic!("{other:?}"),
            }
        };
        let chain_of = |name| {
            let view = job.resolve(name).unwrap().partition.unwrap();
            let chain = view.blocks()[0].chain.clone();
            assert_eq!(chain.len(), 2);
            assert_eq!(chain[0].addr, chain[1].addr);
            chain
        };
        for replica in &chain_of("kv") {
            assert_eq!(
                read(replica, DsOp::KvCount),
                DataResponse::OpResult(DsResult::Size(3))
            );
        }
        for replica in &chain_of("q") {
            assert_eq!(
                read(replica, DsOp::QueueLen),
                DataResponse::OpResult(DsResult::Size(1))
            );
        }
        assert_eq!(cluster.servers()[0].stats().window_replays, 0);
    }

    #[test]
    fn tenant_quota_denies_over_quota_allocation() {
        let mut cfg = JiffyConfig::for_testing();
        cfg.qos.enabled = true;
        let cluster = JiffyCluster::in_process(cfg, 2, 8).unwrap();
        let tenant = TenantId(7);
        // Quota of exactly two 64 KiB test blocks.
        cluster
            .set_tenant_share(tenant, 1, 2 * 64 * 1024, 0, 0)
            .unwrap();
        let job = cluster
            .tenant_client(tenant)
            .unwrap()
            .register_job("quota")
            .unwrap();
        job.open_kv("small", &[], 2).unwrap();
        // A third block would exceed the cap.
        let err = job.open_kv("big", &[], 1).unwrap_err();
        assert!(matches!(err, JiffyError::QuotaExceeded { .. }), "{err:?}");
        // Untenanted traffic is exempt and unaffected.
        let other = cluster.client().unwrap().register_job("free").unwrap();
        other.open_kv("s", &[], 4).unwrap();
        // The denial is visible in the stats report.
        let stats = cluster.tenant_stats().unwrap();
        let entry = stats
            .iter()
            .find(|e| e.tenant == tenant)
            .expect("configured tenant missing from stats");
        assert_eq!(entry.allocated_blocks, 2);
        assert_eq!(entry.quota_bytes, 2 * 64 * 1024);
    }

    #[test]
    fn tenant_rate_limit_throttles_but_ops_still_succeed() {
        let mut cfg = JiffyConfig::for_testing();
        // 100 ops/s with a 2x burst: 250 back-to-back puts must hit the
        // limiter, and the client's backoff retry must absorb it.
        cfg.qos = jiffy_common::QosConfig::enabled_with_rates(100, 0);
        let cluster = JiffyCluster::in_process(cfg, 1, 8).unwrap();
        let tenant = TenantId(9);
        let job = cluster
            .tenant_client(tenant)
            .unwrap()
            .register_job("rl")
            .unwrap();
        let kv = job.open_kv("s", &[], 2).unwrap();
        // Throttle backoff stretches the put loop past the 1 s test
        // lease, so keep the lease alive the way a real app would.
        let _renewer =
            job.start_lease_renewer(vec!["s".into()], std::time::Duration::from_millis(200));
        for i in 0..250u32 {
            kv.put(format!("k{i}").as_bytes(), b"v".as_slice()).unwrap();
        }
        // Every acked put is durable despite the throttling. (Read back
        // before polling stats: the job lease lapses once we stop
        // touching the data structure.)
        for i in 0..250u32 {
            assert_eq!(
                kv.get(format!("k{i}").as_bytes()).unwrap(),
                Some(b"v".to_vec())
            );
        }
        // Tenant loads travel controller-ward on the next heartbeat.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let stats = cluster.tenant_stats().unwrap();
            let throttled = stats
                .iter()
                .find(|e| e.tenant == tenant)
                .map_or(0, |e| e.ops_throttled);
            if throttled > 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "no throttle ever reported: {stats:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    #[test]
    fn sharded_cluster_serves_traffic_across_shards() {
        let cluster =
            JiffyCluster::in_process_sharded(JiffyConfig::for_testing(), 4, 8, 4).unwrap();
        assert_eq!(cluster.controller_shards(), 4);
        let job = cluster.client().unwrap().register_job("t").unwrap();
        // Enough distinct roots to land on several shards; every one
        // must get blocks (round-robin server placement guarantees
        // each shard owns capacity).
        let kvs: Vec<_> = (0..8)
            .map(|i| job.open_kv(&format!("s{i}"), &[], 1).unwrap())
            .collect();
        for (i, kv) in kvs.iter().enumerate() {
            kv.put(b"k", format!("v{i}").as_bytes()).unwrap();
        }
        for (i, kv) in kvs.iter().enumerate() {
            assert_eq!(kv.get(b"k").unwrap(), Some(format!("v{i}").into_bytes()));
        }
        let sc = cluster.sharded_controller().expect("sharded cluster");
        let spread: Vec<usize> = (0..4)
            .map(|i| sc.shard(i).stats().servers as usize)
            .collect();
        assert_eq!(spread, vec![1, 1, 1, 1], "round-robin server placement");
    }

    #[test]
    fn shard_crash_and_restart_recovers_its_slice() {
        let cluster =
            JiffyCluster::in_process_sharded(JiffyConfig::for_testing(), 4, 8, 2).unwrap();
        let job = cluster.client().unwrap().register_job("t").unwrap();
        let sc = cluster.sharded_controller().unwrap().clone();
        // One prefix per shard.
        let mut names = (0..16).map(|i| format!("p{i}"));
        let a = names.next().unwrap();
        let b = names
            .find(|n| sc.route_path(job.id(), n) != sc.route_path(job.id(), &a))
            .expect("16 names must span 2 shards");
        let kv_a = job.open_kv(&a, &[], 1).unwrap();
        let kv_b = job.open_kv(&b, &[], 1).unwrap();
        kv_a.put(b"k", b"a").unwrap();
        kv_b.put(b"k", b"b").unwrap();

        let dark = sc.route_path(job.id(), &a) as usize;
        cluster.crash_controller_shard(dark);
        assert!(!cluster.controller_shard_is_up(dark));
        // The other shard's control plane still answers.
        job.resolve(&b).unwrap();
        // Data ops to BOTH prefixes keep working: the data path never
        // touches the controller.
        assert_eq!(kv_a.get(b"k").unwrap(), Some(b"a".to_vec()));
        assert_eq!(kv_b.get(b"k").unwrap(), Some(b"b".to_vec()));

        cluster.restart_controller_shard(dark).unwrap();
        assert!(cluster.controller_shard_is_up(dark));
        // The recovered shard serves its slice of the namespace again.
        let v = job.resolve_fresh(&a).unwrap();
        assert_eq!(v.name, a);
    }

    #[test]
    fn add_and_drain_server_round_trip() {
        let cluster = JiffyCluster::in_process(JiffyConfig::for_testing(), 2, 4).unwrap();
        assert_eq!(cluster.controller().stats().servers, 2);

        let added = cluster.add_server(4).unwrap();
        assert_eq!(cluster.controller().stats().servers, 3);
        assert_eq!(cluster.controller().stats().total_blocks, 12);

        // Data written before the drain survives it.
        let job = cluster.client().unwrap().register_job("t").unwrap();
        let kv = job.open_kv("s", &[], 4).unwrap();
        for i in 0..50 {
            kv.put(format!("k{i}").as_bytes(), b"v".as_slice()).unwrap();
        }

        cluster.drain_server(added).unwrap();
        assert_eq!(cluster.controller().stats().servers, 2);
        assert_eq!(cluster.servers().len(), 2);
        for i in 0..50 {
            assert_eq!(
                kv.get(format!("k{i}").as_bytes()).unwrap(),
                Some(b"v".to_vec()),
                "key k{i} lost by the drain"
            );
        }
    }
}
