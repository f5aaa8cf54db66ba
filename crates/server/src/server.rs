//! The memory server service.

use jiffy_sync::atomic::{AtomicU64, Ordering};
use jiffy_sync::{Arc, Mutex, StopSignal};

use crossbeam::channel::{unbounded, Sender};
use jiffy_block::{Block, BlockStore, PartitionRegistry, ThresholdEvent};
use jiffy_common::clock::SystemClock;
use jiffy_common::{BlockId, JiffyConfig, JiffyError, Result, ServerId, TenantId};
use jiffy_proto::{
    ControlRequest, ControlResponse, DataRequest, DataResponse, DsOp, DsResult, Envelope,
    MergeSpec, SplitSpec, CLIENT_RID_BASE, INTERNAL_RID,
};
use jiffy_qos::AdmissionControl;
use jiffy_rpc::{Fabric, Service, SessionHandle};

use crate::subs::SubscriptionMap;

/// Operational counters for one memory server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Data-structure operations executed.
    pub ops: u64,
    /// Notifications fanned out.
    pub notifications: u64,
    /// Split legs executed (as the source block).
    pub splits: u64,
    /// Merge legs executed (as the source block).
    pub merges: u64,
    /// Repartition payloads imported (as the target block).
    pub imports: u64,
    /// Retried requests answered from a block's replicated replay window
    /// instead of re-executing (exactly-once across head failover).
    pub window_replays: u64,
}

#[derive(Default)]
struct StatCells {
    ops: AtomicU64,
    notifications: AtomicU64,
    splits: AtomicU64,
    merges: AtomicU64,
    imports: AtomicU64,
    window_replays: AtomicU64,
}

/// One Jiffy memory server.
///
/// Constructed detached; [`MemoryServer::register`] introduces it to the
/// controller (which assigns its server ID and block IDs) once a
/// transport address is known.
pub struct MemoryServer {
    cfg: JiffyConfig,
    store: BlockStore,
    registry: jiffy_sync::RwLock<PartitionRegistry>,
    subs: SubscriptionMap,
    fabric: Fabric,
    controller_addr: String,
    identity: Mutex<Option<(ServerId, String)>>,
    event_tx: Sender<(BlockId, ThresholdEvent)>,
    stats: StatCells,
    /// Per-tenant data-plane admission control (token buckets + load
    /// accounting); limits refresh from heartbeat acks.
    qos: AdmissionControl,
    /// Ends the heartbeat worker's interval wait when the server goes.
    heartbeat_stop: Arc<StopSignal>,
}

impl MemoryServer {
    /// Creates a memory server and starts its threshold-report worker.
    pub fn new(cfg: JiffyConfig, fabric: Fabric, controller_addr: impl Into<String>) -> Arc<Self> {
        let mut registry = PartitionRegistry::new();
        jiffy_ds::register_builtins(&mut registry);
        let (event_tx, event_rx) = unbounded::<(BlockId, ThresholdEvent)>();
        let qos = AdmissionControl::new(cfg.qos.clone(), SystemClock::shared());
        let server = Arc::new(Self {
            cfg,
            store: BlockStore::new(),
            registry: jiffy_sync::RwLock::new(registry),
            subs: SubscriptionMap::new(),
            fabric,
            controller_addr: controller_addr.into(),
            identity: Mutex::new(None),
            event_tx,
            stats: StatCells::default(),
            qos,
            heartbeat_stop: Arc::new(StopSignal::new()),
        });
        // Asynchronous threshold reporting: ops never block on the
        // controller (paper §3.3 — repartitioning is asynchronous).
        let worker = Arc::downgrade(&server);
        #[allow(clippy::expect_used)] // invariant documented in the message
        std::thread::Builder::new()
            .name("jiffy-threshold-report".into())
            .spawn(move || {
                while let Ok((block, event)) = event_rx.recv() {
                    let Some(server) = worker.upgrade() else {
                        break;
                    };
                    server.report_threshold(block, event);
                }
            })
            .expect("invariant: thread spawn fails only on OS resource exhaustion");
        server
    }

    /// Registers a custom data structure factory (paper Table 2's
    /// "custom data structures" row). Call before blocks of that type
    /// are initialized; applications register the same factory on every
    /// server.
    pub fn register_custom_ds(&self, name: &str, factory: jiffy_block::PartitionFactory) {
        self.registry.write().register(name, factory);
    }

    /// Registers this server with the controller under the given
    /// transport address, creating `capacity_blocks` blocks.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected controller reply.
    pub fn register(&self, addr: &str, capacity_blocks: u32) -> Result<ServerId> {
        let conn = self.fabric.connect(&self.controller_addr)?;
        let resp = conn.call(Envelope::ControlReq {
            id: 0,
            req: ControlRequest::JoinServer {
                addr: addr.to_string(),
                capacity_blocks,
            },
            tenant: TenantId::ANONYMOUS,
        })?;
        let (server_id, blocks) = match resp {
            Envelope::ControlResp {
                resp: Ok(ControlResponse::ServerJoined { server, blocks }),
                ..
            } => (server, blocks),
            Envelope::ControlResp { resp: Err(e), .. } => return Err(e),
            other => {
                return Err(JiffyError::Rpc(format!(
                    "unexpected register reply: {other:?}"
                )))
            }
        };
        for id in blocks {
            self.store.add(Block::new(
                id,
                self.cfg.block_size,
                self.cfg.low_watermark(),
                self.cfg.high_watermark(),
            ))?;
        }
        *self.identity.lock() = Some((server_id, addr.to_string()));
        Ok(server_id)
    }

    /// The controller-assigned identity, if registered.
    pub fn identity(&self) -> Option<(ServerId, String)> {
        self.identity.lock().clone()
    }

    /// Bytes used across all hosted blocks (Fig. 11a sampling).
    pub fn used_bytes(&self) -> u64 {
        self.store.total_used_bytes()
    }

    /// Number of blocks currently allocated to data structures.
    pub fn allocated_blocks(&self) -> usize {
        self.store.allocated_count()
    }

    /// Operational counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            ops: self.stats.ops.load(Ordering::Relaxed),
            notifications: self.stats.notifications.load(Ordering::Relaxed),
            splits: self.stats.splits.load(Ordering::Relaxed),
            merges: self.stats.merges.load(Ordering::Relaxed),
            imports: self.stats.imports.load(Ordering::Relaxed),
            window_replays: self.stats.window_replays.load(Ordering::Relaxed),
        }
    }

    /// Installs a tenant limit table into admission control right now.
    /// The heartbeat loop refreshes the table each interval; this lets a
    /// share change take effect without waiting for the next beat.
    pub fn install_tenant_limits(&self, limits: &[jiffy_proto::TenantLimit]) {
        self.qos.install_limits(limits);
    }

    /// Per-tenant load counters observed by this server's admission
    /// control (what the heartbeat reports to the controller).
    pub fn tenant_loads(&self) -> Vec<jiffy_proto::TenantLoad> {
        self.qos.loads()
    }

    fn report_threshold(&self, block: BlockId, event: ThresholdEvent) {
        let req = match event {
            ThresholdEvent::Overloaded { used } => ControlRequest::ReportOverload { block, used },
            ThresholdEvent::Underloaded { used } => ControlRequest::ReportUnderload { block, used },
        };
        if let Ok(conn) = self.fabric.connect(&self.controller_addr) {
            let _ = conn.call(Envelope::ControlReq {
                id: 0,
                req,
                tenant: TenantId::ANONYMOUS,
            });
        }
    }

    /// Whether `rid` identifies a client-stamped mutation whose result
    /// belongs in the block's replay window. Pure reads are idempotent
    /// (re-executing one is harmless) and never touch the window;
    /// `Custom` ops are tracked because the server cannot see whether
    /// they mutate. Internal/auto-assigned ids (fan-down of untracked
    /// requests, legacy callers) stay below [`CLIENT_RID_BASE`], so only
    /// client-originated writes are tracked.
    fn replay_tracked(rid: u64, op: &DsOp) -> bool {
        rid >= CLIENT_RID_BASE && (op.kind().is_some() || matches!(op, DsOp::Custom { .. }))
    }

    /// Publishes what a run of executed ops produced, after the block
    /// lock has dropped.
    fn publish(
        &self,
        block_id: BlockId,
        notifications: impl IntoIterator<Item = jiffy_proto::Notification>,
        event: Option<ThresholdEvent>,
    ) {
        for n in notifications {
            let fanned = self.subs.publish(&n);
            self.stats
                .notifications
                .fetch_add(fanned as u64, Ordering::Relaxed);
        }
        if let Some(e) = event {
            let _ = self.event_tx.send((block_id, e));
        }
    }

    /// Hands a server-internal request to the next replica of a chain.
    /// The chain head already charged the op against the tenant;
    /// forwarding anonymously keeps replication from multiplying the
    /// charge (and from being throttled mid-chain, which would leave
    /// replicas diverged). The envelope id is re-stamped by the
    /// transport, so originating request ids ride in the request body.
    ///
    /// A replica co-located on this server is served by a local call:
    /// the fabric's pooled connection to our own address is the session
    /// the request being served arrived on, which runs one request at a
    /// time — an RPC to ourselves would wait on itself until the call
    /// timeout.
    fn forward(&self, next: &jiffy_proto::Replica, req: DataRequest) -> Result<DataResponse> {
        let own = matches!(&*self.identity.lock(), Some((_, own)) if *own == next.addr);
        if own {
            let no_session = SessionHandle::new(Arc::new(|_| {}));
            return self.dispatch_inner(req, &no_session, INTERNAL_RID);
        }
        match self.fabric.connect(&next.addr)?.call(Envelope::DataReq {
            id: INTERNAL_RID,
            req,
            tenant: TenantId::ANONYMOUS,
        })? {
            Envelope::DataResp { resp, .. } => resp,
            other => Err(JiffyError::Rpc(format!("unexpected reply: {other:?}"))),
        }
    }

    /// The single-op path, for reads and writes alike: an unreplicated
    /// block is a chain of length 1 (`downstream` empty).
    ///
    /// Execute-or-replay under the block lock: a tracked mutation whose
    /// `rid` already sits in the block's replay window (a retry after a
    /// lost ack, on any session, or at a promoted or migrated-to replica)
    /// is answered from the window; a first execution is recorded there
    /// so ANY replica can answer the retry without re-executing. The op
    /// is then forwarded down the chain before it is acknowledged (chain
    /// replication: a write is durable once the tail has it). A window
    /// hit forwards too: the first attempt may have died mid-chain, so
    /// the retry must finish propagating the write (downstream replicas
    /// dedupe via their own windows).
    fn execute_op(
        &self,
        block_id: BlockId,
        op: &DsOp,
        downstream: &[jiffy_proto::Replica],
        rid: u64,
    ) -> Result<DsResult> {
        let block = self.store.get(block_id)?;
        let tracked = Self::replay_tracked(rid, op);
        let (result, executed) = {
            let mut guard = block.lock();
            match tracked.then(|| guard.replay_lookup(rid)).flatten() {
                Some(hit) => (hit, None),
                None => {
                    let (result, notification, event) = guard.execute(op)?;
                    if tracked {
                        guard.replay_record(rid, &result);
                    }
                    (result, Some((notification, event)))
                }
            }
        };
        match executed {
            Some((notification, event)) => {
                self.stats.ops.fetch_add(1, Ordering::Relaxed);
                self.publish(block_id, notification, event);
            }
            None => {
                self.stats.window_replays.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some((next, rest)) = downstream.split_first() {
            self.forward(
                next,
                DataRequest::Replicate {
                    block: next.block,
                    op: op.clone(),
                    downstream: rest.to_vec(),
                    rid,
                },
            )?;
        }
        Ok(result)
    }

    /// The batch path: a run of ops against one block under a *single*
    /// lock acquisition, then — like [`Self::execute_op`] — forwarded
    /// down `downstream`. Ops run in order; execution stops at the first
    /// failure, so the returned vector is a prefix of the request —
    /// every entry before the last is `Ok` and ops past its length were
    /// never attempted. Stopping (rather than skipping ahead) keeps
    /// order-sensitive structures correct: a queue must not apply op N+1
    /// when op N failed and will be retried. Only the `Ok` prefix
    /// propagates down the chain: the ops after a failure never executed
    /// here, so forwarding them would diverge the replicas.
    ///
    /// Notifications and threshold events are collected inside the lock
    /// but published after it drops, like the single-op path.
    ///
    /// `rids` carries one client request id per op (or is empty for
    /// read-only batches): retries may regroup pending ops into
    /// different batches after a split re-routes some of them, so the
    /// replay window tracks individual ops, never batch identities. An
    /// op whose rid already sits in the window replays its cached
    /// result instead of executing.
    fn execute_batch(
        &self,
        block_id: BlockId,
        ops: &[DsOp],
        downstream: &[jiffy_proto::Replica],
        rids: &[u64],
    ) -> Result<Vec<Result<DsResult>>> {
        if !rids.is_empty() && rids.len() != ops.len() {
            return Err(JiffyError::Rpc(format!(
                "batch rids/ops length mismatch: {} rids for {} ops",
                rids.len(),
                ops.len()
            )));
        }
        let block = self.store.get(block_id)?;
        let mut results = Vec::with_capacity(ops.len());
        let mut notifications = Vec::new();
        let mut last_event = None;
        let mut executed = 0u64;
        let mut replayed = 0u64;
        {
            let mut guard = block.lock();
            for (i, op) in ops.iter().enumerate() {
                let rid = rids.get(i).copied().unwrap_or(INTERNAL_RID);
                let tracked = Self::replay_tracked(rid, op);
                if let Some(hit) = tracked.then(|| guard.replay_lookup(rid)).flatten() {
                    // Already executed here (the ack was lost, or a
                    // promoted replica is answering the retry):
                    // notifications were published the first time.
                    replayed += 1;
                    results.push(Ok(hit));
                    continue;
                }
                match guard.execute(op) {
                    Ok((result, notification, event)) => {
                        executed += 1;
                        if tracked {
                            guard.replay_record(rid, &result);
                        }
                        notifications.extend(notification);
                        // Threshold events are monotone within one run;
                        // only the latest state matters.
                        last_event = event.or(last_event);
                        results.push(Ok(result));
                    }
                    Err(e) => {
                        results.push(Err(e));
                        break;
                    }
                }
            }
        }
        self.stats.ops.fetch_add(executed, Ordering::Relaxed);
        self.stats
            .window_replays
            .fetch_add(replayed, Ordering::Relaxed);
        self.publish(block_id, notifications, last_event);
        let ok_prefix = results.iter().take_while(|r| r.is_ok()).count();
        if let Some((next, rest)) = downstream.split_first().filter(|_| ok_prefix > 0) {
            let down = match self.forward(
                next,
                DataRequest::ReplicateBatch {
                    block: next.block,
                    ops: ops[..ok_prefix].to_vec(),
                    downstream: rest.to_vec(),
                    rids: rids[..ok_prefix.min(rids.len())].to_vec(),
                },
            )? {
                DataResponse::Batch(down) => down,
                other => return Err(JiffyError::Rpc(format!("unexpected reply: {other:?}"))),
            };
            // The downstream replica saw exactly the ops we executed;
            // anything but an all-`Ok` echo of that prefix means the
            // chain diverged.
            if down.len() != ok_prefix || down.iter().any(Result::is_err) {
                return Err(JiffyError::Rpc(format!(
                    "replicated batch diverged downstream: \
                     {ok_prefix} ops forwarded, reply {down:?}"
                )));
            }
        }
        Ok(results)
    }

    fn init_block(&self, block_id: BlockId, ds: &str, params: &[u8]) -> Result<()> {
        let partition = self
            .registry
            .read()
            .create(ds, self.cfg.block_size, params)?;
        let block = self.store.get(block_id)?;
        let mut guard = block.lock();
        if guard.is_allocated() {
            // Idempotent re-init: the controller resets before reuse, but
            // a crash between reset and init must not wedge the block.
            guard.reset();
        }
        guard.install(partition)
    }

    fn split_block(
        &self,
        block_id: BlockId,
        spec: &SplitSpec,
        target: Option<&jiffy_proto::BlockLocation>,
    ) -> Result<()> {
        let block = self.store.get(block_id)?;
        let (payload, replay) = {
            let mut guard = block.lock();
            guard.set_repartition_in_flight(true);
            // The replay window travels with repartitioned data: a
            // retry for a key that moved re-routes to the target block
            // and must still find its cached result there. The snapshot
            // is taken under the same lock as the extraction, so it
            // covers every op the shipped payload reflects.
            let replay = match guard.export_replay() {
                Ok(r) => r,
                Err(e) => {
                    guard.set_repartition_in_flight(false);
                    return Err(e);
                }
            };
            let r = guard.partition_mut()?.split_out(spec);
            match r {
                Ok(p) => (p, replay),
                Err(e) => {
                    guard.set_repartition_in_flight(false);
                    return Err(e);
                }
            }
        };
        // Ship the payload while the block keeps serving ops (async
        // repartitioning: the block lock is NOT held during the
        // transfer).
        let data_moved = !payload.is_empty();
        let result = match (target, data_moved) {
            (Some(t), true) => self.ship_payload(t, &payload, &replay),
            _ => Ok(()),
        };
        let mut guard = block.lock();
        guard.finish_repartition(data_moved);
        if data_moved {
            if let Some(e) = guard.check_thresholds() {
                let _ = self.event_tx.send((block_id, e));
            }
        }
        self.stats.splits.fetch_add(1, Ordering::Relaxed);
        result
    }

    fn merge_block(
        &self,
        block_id: BlockId,
        spec: &MergeSpec,
        target: Option<&jiffy_proto::BlockLocation>,
    ) -> Result<()> {
        let block = self.store.get(block_id)?;
        let (payloads, replay) = {
            let mut guard = block.lock();
            guard.set_repartition_in_flight(true);
            // As with split: the merged-away block's replay window moves
            // to the target, where retries for its keys will re-route.
            let replay = match guard.export_replay() {
                Ok(r) => r,
                Err(e) => {
                    guard.set_repartition_in_flight(false);
                    return Err(e);
                }
            };
            let r = guard.partition_mut()?.merge_out();
            match r {
                Ok(p) => (p, replay),
                Err(e) => {
                    guard.set_repartition_in_flight(false);
                    return Err(e);
                }
            }
        };
        let mut result = Ok(());
        let mut shipped = 0;
        if let Some(t) = target {
            for p in &payloads {
                match self.ship_payload(t, p, &replay) {
                    Ok(()) => shipped += 1,
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
        } else if !payloads.is_empty() && payloads.iter().any(|p| !p.is_empty()) {
            result = Err(JiffyError::Internal(format!(
                "merge of {block_id} produced payloads but no target (spec {spec:?})"
            )));
        }
        if result.is_err() {
            // Transactional abort: merge payloads are atomic (a KV merge
            // produces exactly one all-ranges payload, and absorption is
            // all-or-nothing), so on failure nothing reached the target
            // and re-absorbing restores the source losslessly.
            let mut guard = block.lock();
            if let Ok(partition) = guard.partition_mut() {
                for p in payloads.iter().skip(shipped) {
                    let _ = partition.absorb(p);
                }
            }
        }
        let mut guard = block.lock();
        guard.set_repartition_in_flight(false);
        self.stats.merges.fetch_add(1, Ordering::Relaxed);
        result
    }

    fn ship_payload(
        &self,
        target: &jiffy_proto::BlockLocation,
        payload: &[u8],
        replay: &[u8],
    ) -> Result<()> {
        // Every replica of the target chain absorbs the payload: reads
        // route to the tail, so a transfer that stopped at the head
        // would leave replicas answering `StaleMetadata` for the moved
        // ranges forever (and a later promotion would lose them). The
        // replay window ships alongside for the same reason: any
        // replica may be asked to answer a retry after a promotion.
        for replica in &target.chain {
            self.forward(
                replica,
                DataRequest::ImportPayload {
                    block: replica.block,
                    payload: payload.into(),
                    replay: replay.into(),
                },
            )?;
        }
        Ok(())
    }

    fn import_payload(&self, block_id: BlockId, payload: &[u8], replay: &[u8]) -> Result<()> {
        let block = self.store.get(block_id)?;
        let event = {
            let mut guard = block.lock();
            guard.partition_mut()?.absorb(payload)?;
            guard.import_replay(replay)?;
            guard.check_thresholds()
        };
        if let Some(e) = event {
            let _ = self.event_tx.send((block_id, e));
        }
        self.stats.imports.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The `(ops, ingress bytes)` cost admission control charges for a
    /// request, or `None` for requests exempt from throttling (reads of
    /// metadata, subscriptions, and controller/server-internal traffic).
    fn admission_cost(req: &DataRequest) -> Option<(u64, u64)> {
        match req {
            DataRequest::Op { op, .. } | DataRequest::Replicate { op, .. } => {
                Some((1, op.ingress_bytes()))
            }
            DataRequest::Batch { ops, .. } | DataRequest::ReplicateBatch { ops, .. } => {
                Some((ops.len() as u64, ops.iter().map(DsOp::ingress_bytes).sum()))
            }
            // Exempt: metadata reads, subscriptions, liveness, and the
            // block-lifecycle RPCs the controller/servers drive
            // (migration, split/merge, seal) — internal traffic must
            // never throttle, or repair stalls behind a hot tenant.
            DataRequest::Subscribe { .. }
            | DataRequest::Unsubscribe { .. }
            | DataRequest::Usage { .. }
            | DataRequest::ImportPayload { .. }
            | DataRequest::SplitBlock { .. }
            | DataRequest::MergeBlock { .. }
            | DataRequest::InitBlock { .. }
            | DataRequest::ResetBlock { .. }
            | DataRequest::ExportBlock { .. }
            | DataRequest::SealBlock { .. }
            | DataRequest::RetireBlock { .. }
            | DataRequest::Ping => None,
        }
    }

    /// Response payload bytes charged against the tenant's egress lane
    /// after execution (post-paid: a large dequeue drains the budget for
    /// subsequent ops rather than being rejected mid-flight).
    fn egress_cost(resp: &DataResponse) -> u64 {
        match resp {
            DataResponse::OpResult(r) => r.egress_bytes(),
            DataResponse::Batch(results) => results
                .iter()
                .map(|r| r.as_ref().map_or(0, DsResult::egress_bytes))
                .sum(),
            _ => 0,
        }
    }

    fn dispatch(
        &self,
        req: DataRequest,
        tenant: TenantId,
        session: &SessionHandle,
        rid: u64,
    ) -> Result<DataResponse> {
        // Admission control runs BEFORE any execution or replay-window
        // lookup: a `Throttled` answer is a server-definitive "did not
        // execute", so clients may freely re-send (a retry of an op
        // that did execute is charged once more, then replayed). Ops
        // that pass are charged immediately (ingress); their response
        // bytes are charged after execution (egress).
        if let Some((ops, bytes)) = Self::admission_cost(&req) {
            self.qos.admit(tenant, ops, bytes)?;
        }
        let resp = self.dispatch_inner(req, session, rid)?;
        let egress = Self::egress_cost(&resp);
        if egress > 0 {
            self.qos.charge_egress(tenant, egress);
        }
        Ok(resp)
    }

    fn dispatch_inner(
        &self,
        req: DataRequest,
        session: &SessionHandle,
        rid: u64,
    ) -> Result<DataResponse> {
        match req {
            // `Op`/`Batch` are the empty-downstream spelling of
            // `Replicate`/`ReplicateBatch` (what clients send for reads
            // and raw callers for anything); the envelope id stands in
            // for the request id, which clients stamp from one counter.
            DataRequest::Op { block, op } => Ok(DataResponse::OpResult(self.execute_op(
                block,
                &op,
                &[],
                rid,
            )?)),
            DataRequest::Subscribe { block, ops } => {
                // Validate the block exists so clients learn of typos.
                self.store.get(block)?;
                self.subs.subscribe(block, &ops, session);
                Ok(DataResponse::Ack)
            }
            DataRequest::Unsubscribe { block, ops } => {
                self.subs.unsubscribe(block, &ops, session);
                Ok(DataResponse::Ack)
            }
            DataRequest::Usage { block } => {
                let block = self.store.get(block)?;
                let guard = block.lock();
                Ok(DataResponse::Usage {
                    used: guard.used_bytes() as u64,
                    capacity: guard.capacity() as u64,
                })
            }
            DataRequest::ImportPayload {
                block,
                payload,
                replay,
            } => {
                self.import_payload(block, &payload, &replay)?;
                Ok(DataResponse::Ack)
            }
            DataRequest::Replicate {
                block,
                op,
                downstream,
                rid,
            } => Ok(DataResponse::OpResult(self.execute_op(
                block,
                &op,
                &downstream,
                rid,
            )?)),
            DataRequest::ReplicateBatch {
                block,
                ops,
                downstream,
                rids,
            } => Ok(DataResponse::Batch(self.execute_batch(
                block,
                &ops,
                &downstream,
                &rids,
            )?)),
            DataRequest::SplitBlock {
                block,
                spec,
                target,
            } => {
                self.split_block(block, &spec, target.as_ref())?;
                Ok(DataResponse::Ack)
            }
            DataRequest::MergeBlock {
                block,
                spec,
                target,
            } => {
                self.merge_block(block, &spec, target.as_ref())?;
                Ok(DataResponse::Ack)
            }
            DataRequest::InitBlock { block, ds, params } => {
                self.init_block(block, &ds, &params)?;
                Ok(DataResponse::Ack)
            }
            DataRequest::ResetBlock { block } => {
                let block = self.store.get(block)?;
                block.lock().reset();
                Ok(DataResponse::Ack)
            }
            DataRequest::ExportBlock { block } => {
                let block = self.store.get(block)?;
                let guard = block.lock();
                // Payload and replay window snapshot under ONE lock, so
                // the window is exactly as of the exported image (a
                // migration re-imports both at every destination
                // replica; flush drops the window — persisted images
                // predate any retry they could answer).
                let payload = guard.partition_ref()?.export()?;
                let replay = guard.export_replay()?;
                Ok(DataResponse::Exported {
                    payload: payload.into(),
                    replay: replay.into(),
                })
            }
            DataRequest::SealBlock { block, sealed } => {
                let block = self.store.get(block)?;
                block.lock().set_sealed(sealed);
                Ok(DataResponse::Ack)
            }
            DataRequest::RetireBlock { block, moved_to } => {
                let block = self.store.get(block)?;
                block.lock().retire(moved_to);
                Ok(DataResponse::Ack)
            }
            DataRequest::Ping => Ok(DataResponse::Pong),
            DataRequest::Batch { block, ops, rids } => Ok(DataResponse::Batch(
                self.execute_batch(block, &ops, &[], &rids)?,
            )),
        }
    }

    /// Starts the periodic membership heartbeat to the controller
    /// (every `cfg.heartbeat_interval`). The worker holds only a weak
    /// reference and is woken to exit when the server is dropped; it also stops
    /// once the controller rejects the heartbeat with `UnknownServer`
    /// (this server was declared dead or deregistered — it would have
    /// to re-join, not heartbeat).
    pub fn start_heartbeats(self: &Arc<Self>) {
        let worker = Arc::downgrade(self);
        let stop = self.heartbeat_stop.clone();
        let interval = self.cfg.heartbeat_interval;
        #[allow(clippy::expect_used)] // invariant documented in the message
        std::thread::Builder::new()
            .name("jiffy-heartbeat".into())
            .spawn(move || {
                while !stop.wait(interval) {
                    if !worker.upgrade().is_some_and(|s| s.send_heartbeat()) {
                        break;
                    }
                }
            })
            .expect("invariant: thread spawn fails only on OS resource exhaustion");
    }

    /// Sends one heartbeat. Returns false only when heartbeating should
    /// stop for good (the controller no longer knows this server);
    /// transient transport failures and a not-yet-registered identity
    /// just wait for the next tick.
    fn send_heartbeat(&self) -> bool {
        let Some((server_id, _)) = self.identity() else {
            return true;
        };
        let used = self.store.allocated_count() as u32;
        let total = self.store.len() as u32;
        let req = ControlRequest::Heartbeat {
            server: server_id,
            used_blocks: used,
            free_blocks: total.saturating_sub(used),
            tenant_loads: self.qos.loads(),
        };
        let Ok(conn) = self.fabric.connect(&self.controller_addr) else {
            return true;
        };
        match conn.call(Envelope::ControlReq {
            id: 0,
            req,
            tenant: TenantId::ANONYMOUS,
        }) {
            Ok(Envelope::ControlResp {
                resp: Err(JiffyError::UnknownServer(_)),
                ..
            }) => false,
            Ok(Envelope::ControlResp {
                resp: Ok(ControlResponse::HeartbeatAck { limits }),
                ..
            }) => {
                // The heartbeat doubles as the QoS control loop: the
                // controller piggybacks the current tenant limit table
                // on the ack and we swap it into admission control.
                self.qos.install_limits(&limits);
                true
            }
            Ok(_) => true,
            Err(_) => {
                // The pooled connection may point at a crashed controller;
                // evict it so the next tick dials the restarted one.
                self.fabric.evict(&self.controller_addr);
                true
            }
        }
    }
}

impl Drop for MemoryServer {
    fn drop(&mut self) {
        self.heartbeat_stop.stop();
    }
}

impl Service for MemoryServer {
    fn handle(&self, req: Envelope, session: &SessionHandle) -> Envelope {
        match req {
            Envelope::DataReq { id, req, tenant } => Envelope::DataResp {
                id,
                resp: self.dispatch(req, tenant, session, id),
            },
            Envelope::ControlReq { id, .. } => Envelope::ControlResp {
                id,
                resp: Err(JiffyError::Rpc(
                    "control request sent to a memory server".into(),
                )),
                epoch: 0,
            },
            other => Envelope::DataResp {
                id: 0,
                resp: Err(JiffyError::Rpc(format!("unexpected envelope {other:?}"))),
            },
        }
    }

    fn on_disconnect(&self, session: &SessionHandle) {
        self.subs.drop_session(session);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jiffy_common::clock::SystemClock;
    use jiffy_controller::{RpcDataPlane, ShardedController};
    use jiffy_persistent::MemObjectStore;
    use jiffy_proto::DsType;

    /// Boots a single-process cluster: controller + `n` memory servers,
    /// all on the in-proc transport.
    fn cluster(n: usize, blocks_each: u32) -> (Fabric, String, Vec<Arc<MemoryServer>>) {
        let fabric = Fabric::new();
        let cfg = JiffyConfig::for_testing();
        let controller = ShardedController::build(
            cfg.clone(),
            SystemClock::shared(),
            Arc::new(RpcDataPlane::new(fabric.clone())),
            Arc::new(MemObjectStore::new()),
            1,
        )
        .unwrap();
        let controller_addr = fabric.hub().register(Arc::new(controller));
        let mut servers = Vec::new();
        for _ in 0..n {
            let server = MemoryServer::new(cfg.clone(), fabric.clone(), controller_addr.clone());
            let addr = fabric.hub().register(server.clone());
            server.register(&addr, blocks_each).unwrap();
            servers.push(server);
        }
        (fabric, controller_addr, servers)
    }

    fn control(fabric: &Fabric, addr: &str, req: ControlRequest) -> ControlResponse {
        let conn = fabric.connect(addr).unwrap();
        let env = Envelope::ControlReq {
            id: 0,
            req,
            tenant: TenantId::ANONYMOUS,
        };
        match conn.call(env).unwrap() {
            Envelope::ControlResp { resp, .. } => resp.unwrap(),
            other => panic!("{other:?}"),
        }
    }

    fn data(fabric: &Fabric, addr: &str, req: DataRequest) -> Result<DataResponse> {
        let conn = fabric.connect(addr).unwrap();
        let env = Envelope::DataReq {
            id: 0,
            req,
            tenant: TenantId::ANONYMOUS,
        };
        match conn.call(env).unwrap() {
            Envelope::DataResp { resp, .. } => resp,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn end_to_end_kv_put_get_through_real_planes() {
        let (fabric, ctrl_addr, _servers) = cluster(2, 4);
        let job = match control(
            &fabric,
            &ctrl_addr,
            ControlRequest::RegisterJob { name: "e2e".into() },
        ) {
            ControlResponse::JobRegistered { job } => job,
            other => panic!("{other:?}"),
        };
        control(
            &fabric,
            &ctrl_addr,
            ControlRequest::CreatePrefix {
                job,
                name: "kv".into(),
                parents: vec![],
                ds: Some(DsType::KvStore),
                initial_blocks: 1,
            },
        );
        let view = match control(
            &fabric,
            &ctrl_addr,
            ControlRequest::ResolvePrefix {
                job,
                name: "kv".into(),
            },
        ) {
            ControlResponse::Resolved(v) => v,
            other => panic!("{other:?}"),
        };
        let loc = view.partition.unwrap().blocks()[0].clone();
        let put = data(
            &fabric,
            &loc.head().addr,
            DataRequest::Op {
                block: loc.id(),
                op: DsOp::Put {
                    key: "k".into(),
                    value: "v".into(),
                },
            },
        )
        .unwrap();
        assert_eq!(put, DataResponse::OpResult(DsResult::Replaced(None)));
        let get = data(
            &fabric,
            &loc.head().addr,
            DataRequest::Op {
                block: loc.id(),
                op: DsOp::Get { key: "k".into() },
            },
        )
        .unwrap();
        assert_eq!(
            get,
            DataResponse::OpResult(DsResult::MaybeData(Some("v".into())))
        );
    }

    #[test]
    fn batch_executes_in_order_and_stops_at_first_error() {
        let (fabric, ctrl_addr, servers) = cluster(1, 4);
        let job = match control(
            &fabric,
            &ctrl_addr,
            ControlRequest::RegisterJob {
                name: "batch".into(),
            },
        ) {
            ControlResponse::JobRegistered { job } => job,
            other => panic!("{other:?}"),
        };
        control(
            &fabric,
            &ctrl_addr,
            ControlRequest::CreatePrefix {
                job,
                name: "kv".into(),
                parents: vec![],
                ds: Some(DsType::KvStore),
                initial_blocks: 1,
            },
        );
        let view = match control(
            &fabric,
            &ctrl_addr,
            ControlRequest::ResolvePrefix {
                job,
                name: "kv".into(),
            },
        ) {
            ControlResponse::Resolved(v) => v,
            other => panic!("{other:?}"),
        };
        let loc = view.partition.unwrap().blocks()[0].clone();
        let ops_before = servers[0].stats().ops;
        let resp = data(
            &fabric,
            &loc.head().addr,
            DataRequest::Batch {
                block: loc.id(),
                rids: vec![],
                ops: vec![
                    DsOp::Put {
                        key: "a".into(),
                        value: "1".into(),
                    },
                    DsOp::Put {
                        key: "b".into(),
                        value: "2".into(),
                    },
                    DsOp::Get { key: "a".into() },
                    // Wrong data structure: fails, and execution stops.
                    DsOp::Dequeue,
                    DsOp::Put {
                        key: "c".into(),
                        value: "3".into(),
                    },
                ],
            },
        )
        .unwrap();
        let results = match resp {
            DataResponse::Batch(r) => r,
            other => panic!("{other:?}"),
        };
        // A prefix of the request: three successes, then the failure;
        // the Put after the failure was never attempted.
        assert_eq!(results.len(), 4);
        assert_eq!(results[0], Ok(DsResult::Replaced(None)));
        assert_eq!(results[1], Ok(DsResult::Replaced(None)));
        assert_eq!(results[2], Ok(DsResult::MaybeData(Some("1".into()))));
        assert!(results[3].is_err(), "got {:?}", results[3]);
        assert_eq!(servers[0].stats().ops, ops_before + 3);
        let get_c = data(
            &fabric,
            &loc.head().addr,
            DataRequest::Op {
                block: loc.id(),
                op: DsOp::Get { key: "c".into() },
            },
        )
        .unwrap();
        assert_eq!(get_c, DataResponse::OpResult(DsResult::MaybeData(None)));
        // A batch against an unknown block fails as a whole.
        assert!(data(
            &fabric,
            &loc.head().addr,
            DataRequest::Batch {
                block: BlockId(9999),
                ops: vec![DsOp::KvCount],
                rids: vec![],
            },
        )
        .is_err());
    }

    #[test]
    fn overload_triggers_split_and_data_remains_reachable() {
        let (fabric, ctrl_addr, servers) = cluster(1, 4);
        let job = match control(
            &fabric,
            &ctrl_addr,
            ControlRequest::RegisterJob {
                name: "split".into(),
            },
        ) {
            ControlResponse::JobRegistered { job } => job,
            other => panic!("{other:?}"),
        };
        control(
            &fabric,
            &ctrl_addr,
            ControlRequest::CreatePrefix {
                job,
                name: "kv".into(),
                parents: vec![],
                ds: Some(DsType::KvStore),
                initial_blocks: 1,
            },
        );
        let view = match control(
            &fabric,
            &ctrl_addr,
            ControlRequest::ResolvePrefix {
                job,
                name: "kv".into(),
            },
        ) {
            ControlResponse::Resolved(v) => v,
            other => panic!("{other:?}"),
        };
        assert!(view.partition.is_some());
        // Fill past the high watermark (64 KB test blocks, 95 %): write
        // ~62 KB of values. The threshold report is asynchronous, so a
        // split can land mid-loop; route every put by slot from a fresh
        // resolve and retry on StaleMetadata, exactly as a real client
        // would.
        for i in 0..62 {
            let key = format!("key-{i}");
            let slot = jiffy_ds::kv_slot(key.as_bytes(), 1024);
            let mut done = false;
            for _ in 0..20 {
                let view = match control(
                    &fabric,
                    &ctrl_addr,
                    ControlRequest::ResolvePrefix {
                        job,
                        name: "kv".into(),
                    },
                ) {
                    ControlResponse::Resolved(v) => v,
                    other => panic!("{other:?}"),
                };
                let location = match &view.partition.unwrap() {
                    jiffy_proto::PartitionView::Kv { slots, .. } => slots
                        .iter()
                        .find(|s| s.contains(slot))
                        .unwrap_or_else(|| panic!("slot {slot} unowned"))
                        .location
                        .clone(),
                    other => panic!("{other:?}"),
                };
                match data(
                    &fabric,
                    &location.head().addr,
                    DataRequest::Op {
                        block: location.id(),
                        op: DsOp::Put {
                            key: key.as_str().into(),
                            value: vec![0u8; 1000].into(),
                        },
                    },
                ) {
                    Ok(_) => {
                        done = true;
                        break;
                    }
                    Err(JiffyError::StaleMetadata) => {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    Err(other) => panic!("put {key}: {other:?}"),
                }
            }
            assert!(done, "put {key} kept hitting stale metadata");
        }
        // The threshold report is asynchronous; wait for the split.
        for _ in 0..200 {
            if servers[0].stats().splits > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(servers[0].stats().splits > 0, "split should have fired");
        // The view now has 2 blocks; every key must be readable from the
        // block its slot maps to.
        let view = match control(
            &fabric,
            &ctrl_addr,
            ControlRequest::ResolvePrefix {
                job,
                name: "kv".into(),
            },
        ) {
            ControlResponse::Resolved(v) => v,
            other => panic!("{other:?}"),
        };
        let partition = view.partition.unwrap();
        let slots = match &partition {
            jiffy_proto::PartitionView::Kv { slots, .. } => slots.clone(),
            other => panic!("{other:?}"),
        };
        assert!(slots.len() >= 2);
        for i in 0..62 {
            let key = format!("key-{i}");
            let slot = jiffy_ds::kv_slot(key.as_bytes(), 1024);
            let owner = slots
                .iter()
                .find(|s| s.contains(slot))
                .unwrap_or_else(|| panic!("slot {slot} unowned"));
            let got = data(
                &fabric,
                &owner.location.head().addr,
                DataRequest::Op {
                    block: owner.location.id(),
                    op: DsOp::Get {
                        key: key.as_str().into(),
                    },
                },
            )
            .unwrap();
            match got {
                DataResponse::OpResult(DsResult::MaybeData(Some(v))) => {
                    assert_eq!(v.len(), 1000);
                }
                other => panic!("key-{i}: {other:?}"),
            }
        }
    }

    #[test]
    fn notifications_fan_out_to_subscribers() {
        let (fabric, ctrl_addr, _servers) = cluster(1, 2);
        let job = match control(
            &fabric,
            &ctrl_addr,
            ControlRequest::RegisterJob {
                name: "notif".into(),
            },
        ) {
            ControlResponse::JobRegistered { job } => job,
            other => panic!("{other:?}"),
        };
        control(
            &fabric,
            &ctrl_addr,
            ControlRequest::CreatePrefix {
                job,
                name: "q".into(),
                parents: vec![],
                ds: Some(DsType::Queue),
                initial_blocks: 1,
            },
        );
        let view = match control(
            &fabric,
            &ctrl_addr,
            ControlRequest::ResolvePrefix {
                job,
                name: "q".into(),
            },
        ) {
            ControlResponse::Resolved(v) => v,
            other => panic!("{other:?}"),
        };
        let loc = view.partition.unwrap().blocks()[0].clone();
        // Dedicated (unpooled) connection for the subscriber.
        let sub_conn = fabric.dial(&loc.head().addr).unwrap();
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = seen.clone();
        sub_conn.set_push_callback(Arc::new(move |n| {
            assert_eq!(n.op, jiffy_proto::OpKind::Enqueue);
            seen2.fetch_add(1, Ordering::SeqCst);
        }));
        sub_conn
            .call(Envelope::DataReq {
                id: 0,
                req: DataRequest::Subscribe {
                    block: loc.id(),
                    ops: vec![jiffy_proto::OpKind::Enqueue],
                },
                tenant: TenantId::ANONYMOUS,
            })
            .unwrap();
        for _ in 0..3 {
            data(
                &fabric,
                &loc.head().addr,
                DataRequest::Op {
                    block: loc.id(),
                    op: DsOp::Enqueue { item: "x".into() },
                },
            )
            .unwrap();
        }
        assert_eq!(seen.load(Ordering::SeqCst), 3);
        // Disconnect clears the subscription.
        sub_conn.close();
        data(
            &fabric,
            &loc.head().addr,
            DataRequest::Op {
                block: loc.id(),
                op: DsOp::Enqueue { item: "y".into() },
            },
        )
        .unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn replication_chain_forwards_writes() {
        // Two servers; write through a manual 2-replica chain.
        let (fabric, ctrl_addr, _servers) = cluster(2, 2);
        // Build the chain by hand: allocate two blocks via two prefixes
        // is awkward; instead drive InitBlock directly on both servers.
        let job = match control(
            &fabric,
            &ctrl_addr,
            ControlRequest::RegisterJob {
                name: "chain".into(),
            },
        ) {
            ControlResponse::JobRegistered { job } => job,
            other => panic!("{other:?}"),
        };
        let _ = job;
        // Server addresses from registration order: inproc ids are
        // opaque, so fetch via stats path — simpler: init block 0 on
        // server 0 and block 2 on server 1 (2 blocks per server).
        let servers = match control(&fabric, &ctrl_addr, ControlRequest::GetStats) {
            ControlResponse::Stats(s) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(servers.total_blocks, 4);
        let params = jiffy_proto::to_bytes(&jiffy_ds::KvParams {
            ranges: vec![(0, 1023)],
            num_slots: 1024,
        })
        .unwrap();
        // The first two block IDs live on the first server, the next two
        // on the second (registration order).
        let addr0 = "inproc:1"; // controller is inproc:0
        let addr1 = "inproc:2";
        for (addr, block) in [(addr0, BlockId(0)), (addr1, BlockId(2))] {
            data(
                &fabric,
                addr,
                DataRequest::InitBlock {
                    block,
                    ds: DsType::KvStore.to_string(),
                    params: params.clone().into(),
                },
            )
            .unwrap();
        }
        // Replicated write: head = server0/block0, tail = server1/block2.
        data(
            &fabric,
            addr0,
            DataRequest::Replicate {
                block: BlockId(0),
                op: DsOp::Put {
                    key: "k".into(),
                    value: "v".into(),
                },
                downstream: vec![jiffy_proto::Replica {
                    block: BlockId(2),
                    server: ServerId(1),
                    addr: addr1.to_string(),
                }],
                rid: CLIENT_RID_BASE + 1,
            },
        )
        .unwrap();
        // Read at the tail.
        let got = data(
            &fabric,
            addr1,
            DataRequest::Op {
                block: BlockId(2),
                op: DsOp::Get { key: "k".into() },
            },
        )
        .unwrap();
        assert_eq!(
            got,
            DataResponse::OpResult(DsResult::MaybeData(Some("v".into())))
        );
    }

    /// The tentpole invariant, driven deterministically: a replicated
    /// write executes on head and tail; the head then "dies" (we simply
    /// stop talking to it) and the client retries the same request id
    /// against the promoted tail. The retry is answered from the tail's
    /// replay window — byte-identical result, zero re-executions.
    #[test]
    fn promoted_replica_answers_retry_from_replay_window() {
        let (fabric, _ctrl_addr, servers) = cluster(2, 2);
        let params = jiffy_proto::to_bytes(&jiffy_ds::KvParams {
            ranges: vec![(0, 1023)],
            num_slots: 1024,
        })
        .unwrap();
        let addr0 = "inproc:1";
        let addr1 = "inproc:2";
        for (addr, block) in [(addr0, BlockId(0)), (addr1, BlockId(2))] {
            data(
                &fabric,
                addr,
                DataRequest::InitBlock {
                    block,
                    ds: DsType::KvStore.to_string(),
                    params: params.clone().into(),
                },
            )
            .unwrap();
        }
        let rid = CLIENT_RID_BASE + 42;
        let put = DsOp::Put {
            key: "k".into(),
            value: "v1".into(),
        };
        // First attempt: executes on both replicas. Put over an absent
        // key answers `Replaced(None)` — re-executing it would answer
        // `Replaced(Some("v1"))`, so the reply itself proves whether
        // the retry replayed or re-ran.
        let first = data(
            &fabric,
            addr0,
            DataRequest::Replicate {
                block: BlockId(0),
                op: put.clone(),
                downstream: vec![jiffy_proto::Replica {
                    block: BlockId(2),
                    server: ServerId(1),
                    addr: addr1.to_string(),
                }],
                rid,
            },
        )
        .unwrap();
        assert_eq!(first, DataResponse::OpResult(DsResult::Replaced(None)));
        let (ops0, ops1) = (servers[0].stats().ops, servers[1].stats().ops);
        // Head failover: the promoted tail serves the block alone, so
        // the retry arrives as a plain Op whose envelope id carries the
        // original request id.
        let conn = fabric.connect(addr1).unwrap();
        let retried = match conn
            .call(Envelope::DataReq {
                id: rid,
                req: DataRequest::Op {
                    block: BlockId(2),
                    op: put,
                },
                tenant: TenantId::ANONYMOUS,
            })
            .unwrap()
        {
            Envelope::DataResp { resp, .. } => resp.unwrap(),
            other => panic!("{other:?}"),
        };
        assert_eq!(
            retried,
            DataResponse::OpResult(DsResult::Replaced(None)),
            "retry must replay the original result, not re-execute"
        );
        assert_eq!(servers[0].stats().ops, ops0, "head saw no retry");
        assert_eq!(servers[1].stats().ops, ops1, "tail must not re-execute");
        assert_eq!(servers[1].stats().window_replays, 1);
        // A *different* rid for the same op is a new request and does
        // execute (second Put over the now-present key).
        let fresh = match conn
            .call(Envelope::DataReq {
                id: rid + 1,
                req: DataRequest::Op {
                    block: BlockId(2),
                    op: DsOp::Put {
                        key: "k".into(),
                        value: "v2".into(),
                    },
                },
                tenant: TenantId::ANONYMOUS,
            })
            .unwrap()
        {
            Envelope::DataResp { resp, .. } => resp.unwrap(),
            other => panic!("{other:?}"),
        };
        assert_eq!(
            fresh,
            DataResponse::OpResult(DsResult::Replaced(Some("v1".into())))
        );
    }

    /// Batched replication fans per-op request ids down the chain and
    /// replays per-op on retry, even when the retry regroups the ops.
    #[test]
    fn replicated_batch_retries_replay_per_op() {
        let (fabric, _ctrl_addr, servers) = cluster(2, 2);
        let addr0 = "inproc:1";
        let addr1 = "inproc:2";
        for (addr, block) in [(addr0, BlockId(0)), (addr1, BlockId(2))] {
            data(
                &fabric,
                addr,
                DataRequest::InitBlock {
                    block,
                    ds: DsType::Queue.to_string(),
                    params: vec![].into(),
                },
            )
            .unwrap();
        }
        let base = CLIENT_RID_BASE + 100;
        let ops: Vec<DsOp> = (0..4)
            .map(|i| DsOp::Enqueue {
                item: format!("item-{i}").into_bytes().into(),
            })
            .collect();
        let rids: Vec<u64> = (0..4).map(|i| base + i).collect();
        let downstream = vec![jiffy_proto::Replica {
            block: BlockId(2),
            server: ServerId(1),
            addr: addr1.to_string(),
        }];
        let resp = data(
            &fabric,
            addr0,
            DataRequest::ReplicateBatch {
                block: BlockId(0),
                ops: ops.clone(),
                downstream: downstream.clone(),
                rids: rids.clone(),
            },
        )
        .unwrap();
        match resp {
            DataResponse::Batch(r) => {
                assert_eq!(r.len(), 4);
                assert!(r.iter().all(Result::is_ok));
            }
            other => panic!("{other:?}"),
        }
        let (ops0, ops1) = (servers[0].stats().ops, servers[1].stats().ops);
        // Retry the SAME rids regrouped: the first two ops as one batch,
        // the last two as singles — all must replay, none re-execute.
        let resp = data(
            &fabric,
            addr0,
            DataRequest::ReplicateBatch {
                block: BlockId(0),
                ops: ops[..2].to_vec(),
                downstream: downstream.clone(),
                rids: rids[..2].to_vec(),
            },
        )
        .unwrap();
        match resp {
            DataResponse::Batch(r) => assert_eq!(r.len(), 2),
            other => panic!("{other:?}"),
        }
        for i in 2..4 {
            data(
                &fabric,
                addr0,
                DataRequest::Replicate {
                    block: BlockId(0),
                    op: ops[i].clone(),
                    downstream: downstream.clone(),
                    rid: rids[i],
                },
            )
            .unwrap();
        }
        assert_eq!(servers[0].stats().ops, ops0, "head re-executed a retry");
        assert_eq!(servers[1].stats().ops, ops1, "tail re-executed a retry");
        assert!(servers[0].stats().window_replays >= 4);
        assert!(servers[1].stats().window_replays >= 4);
        // Exactly-once proof: the queue on each replica holds exactly
        // the four items, in order.
        for (addr, block) in [(addr0, BlockId(0)), (addr1, BlockId(2))] {
            for i in 0..4 {
                let got = data(
                    &fabric,
                    addr,
                    DataRequest::Op {
                        block,
                        op: DsOp::Dequeue,
                    },
                )
                .unwrap();
                assert_eq!(
                    got,
                    DataResponse::OpResult(DsResult::MaybeData(Some(
                        format!("item-{i}").into_bytes().into()
                    )))
                );
            }
            let empty = data(
                &fabric,
                addr,
                DataRequest::Op {
                    block,
                    op: DsOp::Dequeue,
                },
            )
            .unwrap();
            assert_eq!(empty, DataResponse::OpResult(DsResult::MaybeData(None)));
        }
    }
}
