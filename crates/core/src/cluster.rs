//! Cluster bootstrap: wire a control plane, memory servers, persistent
//! tier and client fabric together, in-process or over TCP — plus the
//! elastic server pool: add, drain, and kill servers at runtime, and
//! run the demand-driven autoscaler against the live pool.
//!
//! Three constructors, one wiring: [`JiffyCluster::build_with_shards`]
//! takes everything explicitly (clock, persistent tier, expiry workers,
//! transport, controller shards); [`JiffyCluster::in_process`] and
//! [`JiffyCluster::over_tcp`] are its one-shard conveniences. Every
//! cluster's control plane is a `ShardedController` of N ≥ 1 shards
//! behind one endpoint (DESIGN.md §15).

use jiffy_sync::{Arc, Mutex, RwLock};

use jiffy_client::JiffyClient;
use jiffy_common::clock::{SharedClock, SystemClock};
use jiffy_common::{JiffyConfig, JiffyError, Result, ServerId, TenantId};
use jiffy_controller::{Controller, ControllerHandle, RpcDataPlane, ShardedController};
use jiffy_elastic::{AutoscalerPolicy, ServerProvider};
use jiffy_persistent::{MemObjectStore, ObjectStore};
use jiffy_proto::{ControlRequest, ControlResponse};
use jiffy_rpc::tcp::{serve_tcp, TcpServerHandle};
use jiffy_rpc::{Fabric, Service};
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

/// The [`ServerProvider`] the autoscaler acts through is the cluster
/// itself: scale-up boots an in-process (or TCP) memory server with the
/// cluster's default block count; scale-down tears the drained server's
/// endpoint down.
impl ServerProvider for ClusterInner {
    fn provision(&self) -> Result<ServerId> {
        self.spawn_server(self.blocks_per_server)
    }

    fn decommission(&self, server: ServerId) -> Result<()> {
        self.remove_server(server);
        Ok(())
    }
}

/// Puts the control plane on the wire, bare: each shard answers retried
/// requests from its own journal-backed replay window, just as each
/// block does on the data plane, so nothing needs to sit in front of
/// the router. `at` is `None` at boot (a fresh hub name / ephemeral
/// port) and the address clients already hold at a restart.
fn serve_control(
    fabric: &Fabric,
    control: &Arc<ShardedController>,
    tcp: bool,
    at: Option<&str>,
) -> Result<(String, Option<TcpServerHandle>)> {
    let svc: Arc<dyn Service> = control.clone();
    if !tcp {
        let Some(addr) = at else {
            return Ok((fabric.hub().register(svc), None));
        };
        fabric.hub().register_at(addr, svc)?;
        return Ok((addr.to_string(), None));
    }
    let hostport = at.map_or("127.0.0.1:0", |a| a.strip_prefix("tcp:").unwrap_or(a));
    // A crashed listener's sockets may linger briefly; retry the bind
    // for a bounded window.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        match serve_tcp(hostport, svc.clone()) {
            Ok(handle) => return Ok((handle.addr().to_string(), Some(handle))),
            Err(e) if std::time::Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
}

/// A running Jiffy cluster (control plane + memory servers) plus the
/// fabric to reach it. Dropping the cluster stops its background workers.
///
/// The control plane is always a [`ShardedController`] of N ≥ 1 shards
/// behind one endpoint (DESIGN.md §15). A crash abandons in-memory
/// state exactly like a process crash — one shard
/// ([`JiffyCluster::crash_controller_shard`]) or the whole plane with
/// its endpoint ([`JiffyCluster::crash_controller`]) — and the matching
/// restart recovers it from the metadata journal in the persistent tier
/// at the same address.
pub struct JiffyCluster {
    control: Arc<ShardedController>,
    persistent: Arc<dyn ObjectStore>,
    inner: Arc<ClusterInner>,
    run_expiry: bool,
    /// Per-shard background workers (lease expiry, elasticity); empty
    /// while the shard is crashed.
    workers: Mutex<Vec<Vec<ControllerHandle>>>,
    autoscaler_policy: Mutex<Option<AutoscalerPolicy>>,
    controller_tcp: Mutex<Option<TcpServerHandle>>,
}

impl JiffyCluster {
    /// Boots an in-process cluster: `num_servers` memory servers with
    /// `blocks_per_server` blocks each, one controller shard, a fresh
    /// in-memory persistent tier, a system clock, and a running
    /// lease-expiry worker.
    ///
    /// # Errors
    ///
    /// Registration failures.
    pub fn in_process(
        cfg: JiffyConfig,
        num_servers: usize,
        blocks_per_server: u32,
    ) -> Result<Self> {
        Self::build_with_shards(
            cfg,
            num_servers,
            blocks_per_server,
            SystemClock::shared(),
            Arc::new(MemObjectStore::new()),
            true,
            false,
            1,
        )
    }

    /// [`Self::in_process`], but the control plane and the memory
    /// servers listen on real TCP sockets (ephemeral ports on localhost).
    ///
    /// # Errors
    ///
    /// Bind or registration failures.
    pub fn over_tcp(cfg: JiffyConfig, num_servers: usize, blocks_per_server: u32) -> Result<Self> {
        Self::build_with_shards(
            cfg,
            num_servers,
            blocks_per_server,
            SystemClock::shared(),
            Arc::new(MemObjectStore::new()),
            true,
            true,
            1,
        )
    }

    /// The one real constructor: custom clock, custom persistent tier,
    /// optional expiry workers, in-proc or TCP transport, and a control
    /// plane of `shards` (at least one) controller shards fronted by a
    /// [`ShardedController`] router at one transport address. One shard
    /// journals under plain `jiffy-meta/`, N > 1 under
    /// `jiffy-meta/shard-{i}/` each (DESIGN.md §15).
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
        let control = Arc::new(ShardedController::build(
            cfg.clone(),
            clock,
            Arc::new(RpcDataPlane::new(fabric.clone())),
            persistent.clone(),
            shards as u32,
        )?);
        let (controller_addr, controller_tcp) = serve_control(&fabric, &control, tcp, None)?;
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
        let cluster = Self {
            workers: Mutex::new((0..control.num_shards()).map(|_| Vec::new()).collect()),
            control,
            persistent,
            inner,
            run_expiry: run_expiry_worker,
            autoscaler_policy: Mutex::new(None),
            controller_tcp: Mutex::new(controller_tcp),
        };
        for idx in 0..cluster.controller_shards() {
            cluster.arm_shard(idx);
        }
        Ok(cluster)
    }

    /// Starts (or replaces) shard `idx`'s background workers — the one
    /// routine boot, every restart and [`Self::start_elasticity`] go
    /// through: its lease-expiry worker and, when elasticity is on, its
    /// elasticity worker (a failure-detector sweep over the servers that
    /// shard owns, plus the autoscaler on the shard holding the hooks:
    /// shard 0). Does nothing while the shard is crashed; its restart
    /// arms it.
    fn arm_shard(&self, idx: usize) {
        let mut handles = Vec::new();
        let policy = *self.autoscaler_policy.lock();
        if self.control.shard_is_up(idx) {
            let shard = self.control.shard(idx);
            if self.run_expiry {
                handles.push(shard.start_expiry_worker());
            }
            if let Some(policy) = policy {
                if idx == 0 {
                    shard.set_autoscaler(policy, self.inner.clone());
                }
                handles.push(shard.start_elasticity_worker());
            }
        }
        // Swap under the lock, drop the old handles after it: a handle's
        // Drop joins its worker thread.
        let old = std::mem::replace(&mut self.workers.lock()[idx], handles);
        drop(old);
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
        self.control.dispatch(ControlRequest::SetTenantShare {
            tenant,
            share,
            quota_bytes,
            ops_per_sec,
            bytes_per_sec,
        })?;
        // SetTenantShare fans out to every shard, so any shard's limits
        // table is authoritative.
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
        match self.control.dispatch(ControlRequest::TenantStats)? {
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

    /// Controller shard 0 (for stats and direct dispatch in tests and
    /// benches; the only shard of a one-shard cluster). Owned, because a
    /// crash/restart cycle swaps the instance out from under the cluster.
    ///
    /// # Panics
    ///
    /// While shard 0 is crashed.
    pub fn controller(&self) -> Arc<Controller> {
        self.control.shard(0)
    }

    /// The control-plane router every control request passes through.
    pub fn sharded_controller(&self) -> &Arc<ShardedController> {
        &self.control
    }

    /// Number of controller shards (at least 1).
    pub fn controller_shards(&self) -> usize {
        self.control.num_shards()
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
        match self
            .control
            .dispatch(ControlRequest::LeaveServer { server })?
        {
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
        // The failure is owned by the shard the server registered with —
        // same routing the router uses for its heartbeats.
        let idx = self.control.shard_map().shard_of_server(server) as usize;
        self.control.shard(idx).handle_server_failure(server)
    }

    /// Installs the autoscaler (policy + cluster-backed provider, on
    /// shard 0) and starts every shard's elasticity worker: every
    /// `cfg.elasticity_interval` it sweeps the failure detector over the
    /// servers that shard owns, and shard 0's takes one scaling decision.
    pub fn start_elasticity(&mut self, policy: AutoscalerPolicy) {
        self.set_elasticity(Some(policy));
    }

    /// Stops the elasticity workers (the autoscaler hooks stay installed;
    /// `Controller::run_autoscaler_once` still works manually).
    pub fn stop_elasticity(&mut self) {
        self.set_elasticity(None);
    }

    fn set_elasticity(&self, policy: Option<AutoscalerPolicy>) {
        *self.autoscaler_policy.lock() = policy;
        for idx in 0..self.controller_shards() {
            self.arm_shard(idx);
        }
    }

    /// Crashes the whole control plane: its transport endpoint vanishes
    /// (in-flight and subsequent requests fail with transport errors
    /// until a restart), then every shard crashes as in
    /// [`Self::crash_controller_shard`], and the router forgets its soft
    /// state (the placement cursor) — exactly what a process crash
    /// loses. The metadata journals in the persistent tier are
    /// untouched; pair with [`Self::restart_controller`].
    pub fn crash_controller(&self) {
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
        for idx in 0..self.controller_shards() {
            self.crash_controller_shard(idx);
        }
        self.control.forget_soft_state();
    }

    /// Restarts the whole control plane at the same address: every shard
    /// recovers as in [`Self::restart_controller_shard`] — replay
    /// window included, so a retry of a request the crashed plane
    /// answered gets the same answer (DESIGN.md §11) — then the endpoint
    /// comes back. Servers keep heartbeating into the new instances and
    /// clients retry through the restart window transparently.
    ///
    /// # Errors
    ///
    /// Journal decode/replay failures, or (TCP mode) failure to re-bind
    /// the controller's port.
    pub fn restart_controller(&self) -> Result<()> {
        for idx in 0..self.controller_shards() {
            self.restart_controller_shard(idx)?;
        }
        let inner = &self.inner;
        let (_, handle) = serve_control(
            &inner.fabric,
            &self.control,
            inner.tcp,
            Some(&inner.controller_addr),
        )?;
        // Swap under the lock, drop any stale handle after: its Drop
        // joins reactor threads (see crash_controller).
        let old = std::mem::replace(&mut *self.controller_tcp.lock(), handle);
        drop(old);
        Ok(())
    }

    /// Crashes one controller shard: its background workers stop, its
    /// in-memory state is abandoned (journal and snapshots in the
    /// persistent tier survive) and the instance is fenced, so a request
    /// it had already accepted cannot commit behind the back of its
    /// successor. Requests routed to it fail with a retryable
    /// `Unavailable` until [`Self::restart_controller_shard`]; the other
    /// shards — and clients' cached metadata for every shard — keep
    /// serving.
    pub fn crash_controller_shard(&self, idx: usize) {
        // Stop the workers first so nothing dispatches mid-teardown.
        let old = std::mem::take(&mut self.workers.lock()[idx]);
        drop(old);
        self.control.crash_shard(idx);
    }

    /// Recovers shard `idx` — jobs, hierarchies, leases, freelist,
    /// placement — from its own journal stream, brings its routing slot
    /// back up (bumping the shared view epoch, so clients drop cached
    /// metadata that might predate the crash) and re-arms its workers.
    /// Leases are re-armed and the failure detector is re-seeded at the
    /// restart instant.
    ///
    /// # Errors
    ///
    /// Journal decode/replay failures.
    pub fn restart_controller_shard(&self, idx: usize) -> Result<()> {
        self.control.restart_shard(idx)?;
        self.arm_shard(idx);
        Ok(())
    }

    /// Whether controller shard `idx` is currently up.
    pub fn controller_shard_is_up(&self, idx: usize) -> bool {
        self.control.shard_is_up(idx)
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

    /// Four in-process servers of eight blocks behind `shards` shards.
    fn sharded(shards: usize) -> JiffyCluster {
        JiffyCluster::build_with_shards(
            JiffyConfig::for_testing(),
            4,
            8,
            SystemClock::shared(),
            Arc::new(MemObjectStore::new()),
            true,
            false,
            shards,
        )
        .unwrap()
    }

    #[test]
    fn sharded_cluster_serves_traffic_across_shards() {
        let cluster = sharded(4);
        assert_eq!(cluster.controller_shards(), 4);
        let client = cluster.client().unwrap();
        let map = cluster.sharded_controller().shard_map();
        // Register jobs until every shard owns one; every job must get
        // blocks (round-robin server placement guarantees each shard
        // owns capacity).
        let mut jobs: Vec<Option<jiffy_client::JobClient>> = (0..4).map(|_| None).collect();
        for i in 0..64 {
            if jobs.iter().all(Option::is_some) {
                break;
            }
            let job = client.register_job(&format!("t{i}")).unwrap();
            let slot = &mut jobs[map.shard_of_job(job.id()) as usize];
            if slot.is_none() {
                *slot = Some(job);
            }
        }
        let kvs: Vec<_> = jobs
            .iter()
            .map(|job| {
                let job = job.as_ref().expect("64 jobs span 4 shards");
                job.open_kv("s", &[], 1).unwrap()
            })
            .collect();
        for (i, kv) in kvs.iter().enumerate() {
            kv.put(b"k", format!("v{i}").as_bytes()).unwrap();
        }
        for (i, kv) in kvs.iter().enumerate() {
            assert_eq!(kv.get(b"k").unwrap(), Some(format!("v{i}").into_bytes()));
        }
        let sc = cluster.sharded_controller();
        let spread: Vec<usize> = (0..4)
            .map(|i| sc.shard(i).stats().servers as usize)
            .collect();
        assert_eq!(spread, vec![1, 1, 1, 1], "round-robin server placement");
    }

    #[test]
    fn shard_crash_and_restart_recovers_its_slice() {
        let cluster = sharded(2);
        let client = cluster.client().unwrap();
        let map = cluster.sharded_controller().shard_map();
        // One job per shard.
        let job = client.register_job("t").unwrap();
        let other = (0..16)
            .map(|i| client.register_job(&format!("u{i}")).unwrap())
            .find(|j| map.shard_of_job(j.id()) != map.shard_of_job(job.id()))
            .expect("16 jobs must span 2 shards");
        let a = "a".to_string();
        let b = "b".to_string();
        let kv_a = job.open_kv(&a, &[], 1).unwrap();
        let kv_b = other.open_kv(&b, &[], 1).unwrap();
        kv_a.put(b"k", b"a").unwrap();
        kv_b.put(b"k", b"b").unwrap();

        let dark = map.shard_of_job(job.id()) as usize;
        cluster.crash_controller_shard(dark);
        assert!(!cluster.controller_shard_is_up(dark));
        // The other shard's control plane still answers.
        other.resolve(&b).unwrap();
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
