//! Drives seeded workloads against an in-process cluster under chaos.
//!
//! One run: boot a cluster, wrap a *client* fabric in a seeded
//! [`FaultInjector`], execute generated operations (single worker =
//! deterministic interleaving; several workers = threaded stress mode),
//! then disable injection, read back the final state over the now-clean
//! transport and check every invariant in [`crate::history`].
//!
//! The server-side fabric (replication, split orchestration) is left
//! un-injected so the fault schedule is a pure function of the client's
//! call sequence — which is what makes a single-worker run replayable
//! from its seed alone.

use jiffy_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use jiffy_sync::Arc;
use std::time::Instant;

use jiffy::{JiffyClient, JiffyCluster};
use jiffy_client::{FileClient, JobClient, KvClient, QueueClient};
use jiffy_common::clock::SystemClock;
use jiffy_common::{JiffyConfig, QosConfig, Result, TenantId};
use jiffy_persistent::MemObjectStore;
use jiffy_rpc::{FaultInjector, FaultRule, FaultStats};

use crate::gen::{generate_ops, WorkloadMix};
use crate::history::{Event, History, Outcome, WorkOp};

/// A membership change injected mid-workload (cluster elasticity under
/// chaos). The target server is always the *oldest* live one — a
/// deterministic choice, so single-worker runs stay replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElasticAction {
    /// Crash a server abruptly: endpoint gone, controller re-routes.
    KillServer,
    /// Boot and register one more server.
    JoinServer,
    /// Gracefully drain and deregister a server (live migration).
    DrainServer,
    /// Crash the whole control plane — endpoint and every shard — and
    /// immediately restart it from its metadata journals. Client
    /// control-plane retries carry requests through the restart window;
    /// acked writes must survive.
    CrashController,
    /// Crash controller shard `i` (modulo [`HarnessConfig::shards`]) and
    /// immediately recover it from its own journal stream. The endpoint
    /// and the other shards keep serving throughout; requests routed to
    /// the dark shard ride client retries into the recovered instance.
    CrashControllerShard(usize),
}

/// Parameters of one chaos run.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Seed for both the operation generator and the fault injector.
    pub seed: u64,
    /// Concurrent workers. `1` = deterministic interleaving; more =
    /// threaded stress mode (still checkable, not bit-replayable).
    pub workers: usize,
    /// Operations issued per worker.
    pub ops_per_worker: usize,
    /// Size of each worker's private KV key space.
    pub keys_per_worker: usize,
    /// Fault rule applied to every address during the workload phase.
    pub rule: FaultRule,
    /// Which data structures to exercise.
    pub mix: WorkloadMix,
    /// Memory servers in the cluster.
    pub num_servers: usize,
    /// Blocks per memory server.
    pub blocks_per_server: u32,
    /// Replication chain length (1 = unreplicated). `KillServer`
    /// schedules only make sense with `chain_length >= 2`: acked writes
    /// survive a crash through the promoted replica; without
    /// replication a kill loses data by design and the history checker
    /// would (correctly) flag it.
    pub chain_length: usize,
    /// Membership changes, each fired once the total completed-op count
    /// reaches its threshold: `(after_ops, action)`.
    pub elastic: Vec<(usize, ElasticAction)>,
    /// Maximum multi-op batch size. `1` (the default) issues every
    /// operation as its own RPC; larger values group *consecutive runs*
    /// of batchable same-kind ops (`KvPut` → `multi_put`, `KvGet` →
    /// `multi_get`, `Enqueue` → `enqueue_batch`) into one batched call,
    /// exercising the PR 4 fast path under chaos. Per-op events are
    /// still recorded (a whole-batch transport failure marks every op
    /// in the batch `Maybe`, since a prefix may have applied).
    pub batch: usize,
    /// Distinct tenants sharing the cluster. `1` (the default) runs
    /// everything as the anonymous tenant — the pre-QoS behavior. With
    /// `N > 1`, worker `w` issues its ops as tenant `w % N + 1` against
    /// that tenant's own job, and the runner adds per-tenant isolation
    /// checks (no cross-tenant visibility; quotas honored post-hoc).
    pub tenants: usize,
    /// Cluster QoS configuration; `None` leaves QoS disabled.
    pub qos: Option<QosConfig>,
    /// Per-tenant limit overrides installed before the workload starts
    /// (`tenant_index` counts from 0, matching `w % tenants`).
    pub tenant_limits: Vec<TenantQos>,
    /// Controller shards (default `1`): the namespace is partitioned
    /// across that many in-process shards behind one routing endpoint.
    pub shards: usize,
}

/// A per-tenant QoS override installed at run start.
#[derive(Debug, Clone, Copy)]
pub struct TenantQos {
    /// Which tenant (0-based index into `HarnessConfig::tenants`).
    pub tenant_index: usize,
    /// Weighted-fair share (≥ 1).
    pub share: u32,
    /// Hard memory quota in bytes (0 = unlimited).
    pub quota_bytes: u64,
    /// Op-rate limit per second (0 = unlimited).
    pub ops_per_sec: u64,
    /// Byte-rate limit per second (0 = unlimited).
    pub bytes_per_sec: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            seed: 0x1a55,
            workers: 1,
            ops_per_worker: 200,
            keys_per_worker: 4,
            rule: FaultRule::none()
                .with_drop(0.03)
                .with_delay(
                    0.05,
                    std::time::Duration::ZERO,
                    std::time::Duration::from_micros(500),
                )
                .with_duplicate(0.03)
                .with_error(0.03),
            mix: WorkloadMix::all(),
            num_servers: 2,
            blocks_per_server: 32,
            chain_length: 1,
            elastic: Vec::new(),
            batch: 1,
            tenants: 1,
            qos: None,
            tenant_limits: Vec::new(),
            shards: 1,
        }
    }
}

/// Everything a run produced: the history, the injector's counters and
/// any invariant violations.
#[derive(Debug)]
pub struct RunReport {
    /// The seed that reproduces this run (single-worker mode).
    pub seed: u64,
    /// The recorded history including final-state reads.
    pub history: History,
    /// Fault counters from the injector.
    pub fault_stats: FaultStats,
    /// Invariant violations, empty when the run was correct.
    pub violations: Vec<String>,
    /// Retried requests answered from a block replay window instead of
    /// re-executed, summed across all servers still alive at the end of
    /// the run (killed servers' counters are lost with them).
    pub window_replays: u64,
}

impl RunReport {
    /// Panics with the seed and every violation if any invariant failed.
    pub fn assert_ok(&self) {
        assert!(
            self.violations.is_empty(),
            "chaos invariants violated (reproduce with seed {:#x}):\n{}",
            self.seed,
            self.violations.join("\n")
        );
    }
}

struct Handles {
    kv: Option<Arc<KvClient>>,
    file: Option<Arc<FileClient>>,
    queues: Vec<Arc<QueueClient>>,
}

/// Executes one chaos run.
///
/// # Errors
///
/// Cluster bootstrap or setup failures (the workload phase itself never
/// errors: every op outcome is recorded in the history instead).
pub fn run(cfg: &HarnessConfig) -> Result<RunReport> {
    // Long leases + no expiry worker + splits disabled by thresholds:
    // background reclamation would make the injector's draw sequence
    // depend on wall-clock timing and break seed replay.
    let mut cluster_cfg = JiffyConfig::for_testing()
        .with_lease_duration(std::time::Duration::from_secs(600))
        .with_chain_length(cfg.chain_length)
        .with_thresholds(0.0, 1.0);
    if let Some(qos) = &cfg.qos {
        cluster_cfg.qos = qos.clone();
    }
    let cluster = Arc::new(JiffyCluster::build_with_shards(
        cluster_cfg,
        cfg.num_servers,
        cfg.blocks_per_server,
        SystemClock::shared(),
        Arc::new(MemObjectStore::new()),
        false,
        false,
        cfg.shards,
    )?);
    let injector = Arc::new(FaultInjector::new(cfg.seed));
    injector.set_default_rule(cfg.rule.clone());
    // Setup runs clean; only the workload phase sees faults.
    injector.set_enabled(false);
    let chaos_fabric = cluster
        .fabric()
        .clone()
        .with_fault_injection(injector.clone());

    // One job (and one set of data structures) per tenant; a lone
    // tenant keeps the historical anonymous single-job shape.
    let tenants = cfg.tenants.max(1);
    for tq in &cfg.tenant_limits {
        cluster.set_tenant_share(
            tenant_id(tq.tenant_index, tenants),
            tq.share,
            tq.quota_bytes,
            tq.ops_per_sec,
            tq.bytes_per_sec,
        )?;
    }
    let mut jobs: Vec<JobClient> = Vec::with_capacity(tenants);
    for t in 0..tenants {
        let client = JiffyClient::connect(chaos_fabric.clone(), cluster.controller_addr())?
            .with_tenant(tenant_id(t, tenants));
        jobs.push(client.register_job(&format!("chaos-t{t}"))?);
    }

    let mut tenant_handles: Vec<Handles> = Vec::with_capacity(tenants);
    for job in &jobs {
        tenant_handles.push(Handles {
            kv: if cfg.mix.kv {
                Some(Arc::new(job.open_kv("kv", &[], 2)?))
            } else {
                None
            },
            file: if cfg.mix.file {
                Some(Arc::new(job.open_file("shuffle", &[])?))
            } else {
                None
            },
            queues: Vec::new(),
        });
    }
    // Each worker keeps a private queue inside its tenant's job.
    if cfg.mix.queue {
        for w in 0..cfg.workers {
            let q = Arc::new(jobs[w % tenants].open_queue(&format!("q{w}"), &[])?);
            tenant_handles[w % tenants].queues.push(q.clone());
        }
    }
    let worker_handles: Vec<Handles> = (0..cfg.workers)
        .map(|w| {
            let t = &tenant_handles[w % tenants];
            Handles {
                kv: t.kv.clone(),
                file: t.file.clone(),
                queues: t.queues.get(w / tenants).cloned().into_iter().collect(),
            }
        })
        .collect();

    injector.set_enabled(true);
    let epoch = Instant::now();
    let mut events: Vec<Event> = Vec::new();
    let mut schedule: Vec<(usize, ElasticAction)> = cfg.elastic.clone();
    schedule.sort_by_key(|(at, _)| *at);
    if cfg.workers <= 1 {
        // Deterministic mode: membership changes fire inline at exact op
        // boundaries, so the whole run replays from the seed.
        let mut next = 0usize;
        events.extend(run_worker(0, cfg, &worker_handles[0], epoch, |done| {
            while next < schedule.len() && done as usize >= schedule[next].0 {
                apply_elastic(&cluster, schedule[next].1, cfg.blocks_per_server);
                next += 1;
            }
        }));
    } else {
        // Stress mode: a driver thread watches the shared op counter and
        // fires membership changes as thresholds pass.
        let ops_done = Arc::new(AtomicU64::new(0));
        let workload_over = Arc::new(AtomicBool::new(false));
        let driver = if schedule.is_empty() {
            None
        } else {
            let cluster = cluster.clone();
            let ops_done = ops_done.clone();
            let workload_over = workload_over.clone();
            let blocks = cfg.blocks_per_server;
            Some(std::thread::spawn(move || {
                let mut next = 0usize;
                while next < schedule.len() && !workload_over.load(Ordering::SeqCst) {
                    if ops_done.load(Ordering::SeqCst) as usize >= schedule[next].0 {
                        apply_elastic(&cluster, schedule[next].1, blocks);
                        next += 1;
                    } else {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
            }))
        };
        let mut joins = Vec::new();
        for (w, wh) in worker_handles.iter().enumerate() {
            let cfg = cfg.clone();
            let handles = Handles {
                kv: wh.kv.clone(),
                file: wh.file.clone(),
                queues: wh.queues.clone(),
            };
            let ops_done = ops_done.clone();
            joins.push(std::thread::spawn(move || {
                run_worker(w, &cfg, &handles, epoch, |_| {
                    ops_done.fetch_add(1, Ordering::SeqCst);
                })
            }));
        }
        for j in joins {
            events.extend(j.join().expect("worker thread panicked"));
        }
        workload_over.store(true, Ordering::SeqCst);
        if let Some(d) = driver {
            let _ = d.join();
        }
    }
    injector.set_enabled(false);

    // Final-state reads over the clean transport, each worker through
    // its own tenant's handles.
    let mut history = History {
        events,
        ..History::default()
    };
    if cfg.mix.kv {
        for (w, wh) in worker_handles.iter().enumerate() {
            let kv = wh.kv.as_ref().expect("kv enabled but handle missing");
            for k in 0..cfg.keys_per_worker {
                let key = format!("w{w}-k{k}");
                let value = kv.get(key.as_bytes())?.map(lossy);
                history.final_kv.insert(key, value);
            }
        }
    }
    if cfg.mix.file {
        // Concatenating the per-tenant files preserves both exactly-once
        // and per-worker order: a worker only ever appends to one file.
        for th in &tenant_handles {
            let file = th.file.as_ref().expect("file enabled but handle missing");
            history.final_file.extend(file.read_all()?);
        }
    }
    for (w, wh) in worker_handles.iter().enumerate() {
        if let Some(queue) = wh.queues.first() {
            let mut drained = Vec::new();
            while let Some(item) = queue.dequeue()? {
                drained.push(lossy(item));
            }
            history.final_queues.insert(w, drained);
        }
    }

    let mut violations = history.check();
    violations.extend(check_tenant_isolation(&cluster, cfg, &tenant_handles)?);
    let window_replays = cluster
        .servers()
        .iter()
        .map(|s| s.stats().window_replays)
        .sum();
    Ok(RunReport {
        seed: cfg.seed,
        history,
        fault_stats: injector.stats(),
        violations,
        window_replays,
    })
}

/// The wire-level tenant id for tenant index `t`: a single-tenant run
/// stays anonymous (the pre-QoS shape), multi-tenant runs use ids 1..=N.
fn tenant_id(t: usize, tenants: usize) -> TenantId {
    if tenants <= 1 {
        TenantId::ANONYMOUS
    } else {
        TenantId(t as u64 % tenants as u64 + 1)
    }
}

/// Multi-tenant invariants, checked after the workload with injection
/// off: no tenant can see another tenant's keys through its own job's
/// namespace, and no tenant with a hard quota ended the run above it.
fn check_tenant_isolation(
    cluster: &JiffyCluster,
    cfg: &HarnessConfig,
    tenant_handles: &[Handles],
) -> Result<Vec<String>> {
    let tenants = cfg.tenants.max(1);
    let mut violations = Vec::new();
    if tenants <= 1 {
        return Ok(violations);
    }
    if cfg.mix.kv {
        for (t, th) in tenant_handles.iter().enumerate() {
            let kv = th.kv.as_ref().expect("kv enabled but handle missing");
            for w in 0..cfg.workers {
                if w % tenants == t {
                    continue; // own keys, visibility expected
                }
                for k in 0..cfg.keys_per_worker {
                    let key = format!("w{w}-k{k}");
                    if let Some(v) = kv.get(key.as_bytes())? {
                        violations.push(format!(
                            "tenant isolation: tenant {t} sees key {key} (worker {w}, \
                             tenant {}) with value {:?}",
                            w % tenants,
                            lossy(v)
                        ));
                    }
                }
            }
        }
    }
    let block_size = cluster.controller().config().block_size as u64;
    for entry in cluster.tenant_stats()? {
        if entry.quota_bytes > 0 && entry.allocated_bytes > entry.quota_bytes {
            violations.push(format!(
                "tenant quota: tenant {:?} holds {} bytes ({} blocks of {block_size}) \
                 over its {}-byte quota",
                entry.tenant, entry.allocated_bytes, entry.allocated_blocks, entry.quota_bytes
            ));
        }
    }
    Ok(violations)
}

/// Applies one membership change against the live cluster. Failures are
/// swallowed: under chaos a drain can legitimately fail (no capacity
/// left), and the history checker judges the run by its observable
/// outcomes, not by whether every membership change landed.
fn apply_elastic(cluster: &JiffyCluster, action: ElasticAction, blocks_per_server: u32) {
    match action {
        ElasticAction::JoinServer => {
            let _ = cluster.add_server(blocks_per_server);
        }
        ElasticAction::KillServer => {
            if let Some(id) = oldest_server(cluster) {
                let _ = cluster.kill_server(id);
            }
        }
        ElasticAction::DrainServer => {
            if let Some(id) = oldest_server(cluster) {
                let _ = cluster.drain_server(id);
            }
        }
        ElasticAction::CrashController => {
            cluster.crash_controller();
            // A failed recovery leaves the endpoint dark and every
            // subsequent control call failing — the history checker
            // reports that loudly, so swallowing the error here is safe.
            let _ = cluster.restart_controller();
        }
        ElasticAction::CrashControllerShard(i) => {
            let i = i % cluster.controller_shards();
            cluster.crash_controller_shard(i);
            // Same reasoning as CrashController: an unrecoverable shard
            // shows up as persistent routing failures in the history.
            let _ = cluster.restart_controller_shard(i);
        }
    }
}

/// The lowest live server ID — a deterministic victim choice.
fn oldest_server(cluster: &JiffyCluster) -> Option<jiffy_common::ServerId> {
    cluster
        .servers()
        .iter()
        .filter_map(|s| s.identity().map(|(id, _)| id))
        .min_by_key(|id| id.raw())
}

fn run_worker(
    worker: usize,
    cfg: &HarnessConfig,
    handles: &Handles,
    epoch: Instant,
    mut after_op: impl FnMut(u64),
) -> Vec<Event> {
    let mix = WorkloadMix {
        // A worker without a queue handle (stress-mode partitioning
        // failure) simply skips queue ops; generation stays aligned.
        queue: cfg.mix.queue && !handles.queues.is_empty(),
        ..cfg.mix
    };
    let ops = generate_ops(
        cfg.seed,
        worker,
        cfg.ops_per_worker,
        cfg.keys_per_worker,
        mix,
    );
    let queue = handles.queues.first();
    let batch = cfg.batch.max(1);
    let mut events = Vec::with_capacity(ops.len());
    let mut i = 0usize;
    while i < ops.len() {
        // Batched fast path: a run of >= 2 consecutive same-kind
        // batchable ops becomes one multi-op RPC.
        let run_len = if batch > 1 {
            batchable_run_len(&ops[i..], batch)
        } else {
            1
        };
        if run_len > 1 {
            let start_us = epoch.elapsed().as_micros() as u64;
            let outcomes = exec_batch(&ops[i..i + run_len], handles, queue);
            let end_us = epoch.elapsed().as_micros() as u64;
            for (j, outcome) in outcomes.into_iter().enumerate() {
                events.push(Event {
                    worker,
                    seq: (i + j) as u64,
                    op: ops[i + j].clone(),
                    outcome,
                    start_us,
                    end_us,
                });
                after_op((i + j + 1) as u64);
            }
            i += run_len;
            continue;
        }
        let op = ops[i].clone();
        let seq = i as u64;
        let start_us = epoch.elapsed().as_micros() as u64;
        let outcome = match &op {
            WorkOp::KvPut { key, value } => outcome_of(
                handles
                    .kv
                    .as_ref()
                    .expect("kv op without kv handle")
                    .put(key.as_bytes(), value.as_bytes()),
                |prev| prev.map(lossy),
            ),
            WorkOp::KvGet { key } => outcome_of(
                handles.kv.as_ref().expect("kv handle").get(key.as_bytes()),
                |v| v.map(lossy),
            ),
            WorkOp::KvDelete { key } => outcome_of(
                handles
                    .kv
                    .as_ref()
                    .expect("kv handle")
                    .delete(key.as_bytes()),
                |prev| prev.map(lossy),
            ),
            WorkOp::FileAppend { record } => outcome_of(
                handles
                    .file
                    .as_ref()
                    .expect("file handle")
                    .append(record.as_bytes()),
                |()| None,
            ),
            WorkOp::Enqueue { item } => outcome_of(
                queue.expect("queue handle").enqueue(item.as_bytes()),
                |()| None,
            ),
            WorkOp::Dequeue => outcome_of(queue.expect("queue handle").dequeue(), |item| {
                item.map(lossy)
            }),
        };
        events.push(Event {
            worker,
            seq,
            op,
            outcome,
            start_us,
            end_us: epoch.elapsed().as_micros() as u64,
        });
        after_op(seq + 1);
        i += 1;
    }
    events
}

/// Which batched client call (if any) a generated op can ride on.
#[derive(PartialEq, Eq, Clone, Copy)]
enum BatchKind {
    Put,
    Get,
    Enqueue,
}

fn batch_kind(op: &WorkOp) -> Option<BatchKind> {
    match op {
        WorkOp::KvPut { .. } => Some(BatchKind::Put),
        WorkOp::KvGet { .. } => Some(BatchKind::Get),
        WorkOp::Enqueue { .. } => Some(BatchKind::Enqueue),
        _ => None,
    }
}

/// Length of the leading run of same-kind batchable ops, capped at
/// `max`. Returns 1 for a non-batchable head.
fn batchable_run_len(ops: &[WorkOp], max: usize) -> usize {
    let Some(kind) = ops.first().and_then(batch_kind) else {
        return 1;
    };
    ops.iter()
        .take(max)
        .take_while(|op| batch_kind(op) == Some(kind))
        .count()
}

/// Executes a run of same-kind ops as one batched client call,
/// returning one outcome per op. A whole-batch error maps every op to
/// `Maybe`: batched calls are split per block and retried internally,
/// so on failure an arbitrary prefix may already have been applied.
fn exec_batch(ops: &[WorkOp], handles: &Handles, queue: Option<&Arc<QueueClient>>) -> Vec<Outcome> {
    let kind = batch_kind(&ops[0]).expect("exec_batch called on non-batchable run");
    match kind {
        BatchKind::Put => {
            let pairs: Vec<(&[u8], &[u8])> = ops
                .iter()
                .map(|op| match op {
                    WorkOp::KvPut { key, value } => (key.as_bytes(), value.as_bytes()),
                    _ => unreachable!("mixed-kind batch run"),
                })
                .collect();
            let kv = handles.kv.as_ref().expect("kv op without kv handle");
            match kv.multi_put(&pairs) {
                Ok(prevs) => prevs
                    .into_iter()
                    .map(|prev| Outcome::Acked(prev.map(lossy)))
                    .collect(),
                Err(e) => vec![Outcome::Maybe(e.to_string()); ops.len()],
            }
        }
        BatchKind::Get => {
            let keys: Vec<&[u8]> = ops
                .iter()
                .map(|op| match op {
                    WorkOp::KvGet { key } => key.as_bytes(),
                    _ => unreachable!("mixed-kind batch run"),
                })
                .collect();
            let kv = handles.kv.as_ref().expect("kv handle");
            match kv.multi_get(&keys) {
                Ok(values) => values
                    .into_iter()
                    .map(|v| Outcome::Acked(v.map(lossy)))
                    .collect(),
                Err(e) => vec![Outcome::Maybe(e.to_string()); ops.len()],
            }
        }
        BatchKind::Enqueue => {
            let items: Vec<&[u8]> = ops
                .iter()
                .map(|op| match op {
                    WorkOp::Enqueue { item } => item.as_bytes(),
                    _ => unreachable!("mixed-kind batch run"),
                })
                .collect();
            let q = queue.expect("queue handle");
            match q.enqueue_batch(&items) {
                Ok(()) => vec![Outcome::Acked(None); ops.len()],
                Err(e) => vec![Outcome::Maybe(e.to_string()); ops.len()],
            }
        }
    }
}

fn outcome_of<T>(res: Result<T>, observation: impl FnOnce(T) -> Option<String>) -> Outcome {
    match res {
        Ok(v) => Outcome::Acked(observation(v)),
        Err(e) if e.is_transport() => Outcome::Maybe(e.to_string()),
        Err(e) => Outcome::Rejected(e.to_string()),
    }
}

fn lossy(bytes: Vec<u8>) -> String {
    String::from_utf8_lossy(&bytes).into_owned()
}
