//! Controller crash recovery (DESIGN.md §11): the metadata journal +
//! snapshots must let a restarted controller rebuild *exactly* the
//! state its predecessor acked — for every crash point, over both
//! transports, and under a full chaos workload.
//!
//! Three layers of coverage:
//!
//! 1. **Crash-point sweep** against a bare [`Controller`]: a scripted
//!    history touching every journal record type, recovered from every
//!    journal prefix (kill-after-every-record) and from every
//!    full-store crash image with mid-stream snapshots enabled.
//! 2. **Cluster crash/restart** over in-process and TCP transports:
//!    acked data survives, clients retry through the dark window, and
//!    the restarted controller keeps serving.
//! 3. **Chaos**: the harness's `CrashController` action mid-workload,
//!    checked for zero acked-write loss by the history checker.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use jiffy::cluster::JiffyCluster;
use jiffy::JiffyConfig;
use jiffy_common::clock::{ManualClock, SharedClock};
use jiffy_common::{JobId, ServerId};
use jiffy_controller::{Controller, NoopDataPlane, StateMirror};
use jiffy_harness::{run, ElasticAction, HarnessConfig, WorkloadMix};
use jiffy_persistent::{MemObjectStore, ObjectStore};
use jiffy_proto::{ControlRequest, ControlResponse, DsType};
use jiffy_sync::atomic::{AtomicBool, Ordering};
use jiffy_sync::Arc;

const JOURNAL_PREFIX: &str = "jiffy-meta/journal/";

// ---------------------------------------------------------------------
// Crash-point sweep
// ---------------------------------------------------------------------

/// Ids discovered while the script runs (deterministic, but read back
/// from responses rather than hardcoded).
#[derive(Default)]
struct ScriptIds {
    job: Cell<u64>,
    server_a: Cell<u64>,
    server_b: Cell<u64>,
}

type Step = Box<dyn Fn(&Controller, &ManualClock)>;

/// A scripted history exercising every journal record type: job
/// registration, prefix creation (bound and bare), extra parents, lease
/// renewal, split, merge, flush, remove, lease expiry (flush+reclaim),
/// load-back, drain, server failure, deregistration, and post-churn
/// reuse of the recovered freelist.
fn script() -> Vec<(&'static str, Step)> {
    let ids = Rc::new(ScriptIds::default());
    let job = {
        let ids = ids.clone();
        move || JobId(ids.job.get())
    };
    let kv_blocks = |ctrl: &Controller, job: JobId| -> Vec<jiffy_common::BlockId> {
        match ctrl
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
                .collect(),
            other => panic!("{other:?}"),
        }
    };
    let join = |ctrl: &Controller, tag: &str, blocks: u32| -> u64 {
        match ctrl
            .dispatch(ControlRequest::JoinServer {
                addr: format!("inproc:{tag}"),
                capacity_blocks: blocks,
            })
            .unwrap()
        {
            ControlResponse::ServerJoined { server, .. } => server.raw(),
            other => panic!("{other:?}"),
        }
    };

    let mut steps: Vec<(&'static str, Step)> = Vec::new();
    let mut step = |name: &'static str, f: Step| steps.push((name, f));

    {
        let ids = ids.clone();
        step(
            "join-a",
            Box::new(move |c, _| ids.server_a.set(join(c, "a", 8))),
        );
    }
    {
        let ids = ids.clone();
        step(
            "join-b",
            Box::new(move |c, _| ids.server_b.set(join(c, "b", 8))),
        );
    }
    {
        let ids = ids.clone();
        step(
            "register",
            Box::new(move |c, _| {
                match c
                    .dispatch(ControlRequest::RegisterJob {
                        name: "sweep".into(),
                    })
                    .unwrap()
                {
                    ControlResponse::JobRegistered { job } => ids.job.set(job.raw()),
                    other => panic!("{other:?}"),
                }
            }),
        );
    }
    for (label, name, ds, blocks) in [
        ("create-kv", "kv", Some(DsType::KvStore), 2),
        ("create-file", "file", Some(DsType::File), 2),
        ("create-bare", "bare", None, 0),
    ] {
        let job = job.clone();
        step(
            label,
            Box::new(move |c, _| {
                c.dispatch(ControlRequest::CreatePrefix {
                    job: job(),
                    name: name.into(),
                    parents: vec![],
                    ds,
                    initial_blocks: blocks,
                })
                .unwrap();
            }),
        );
    }
    {
        let job = job.clone();
        step(
            "add-parent",
            Box::new(move |c, _| {
                c.dispatch(ControlRequest::AddParent {
                    job: job(),
                    name: "kv".into(),
                    parent: "bare".into(),
                })
                .unwrap();
            }),
        );
    }
    {
        let job = job.clone();
        step(
            "renew",
            Box::new(move |c, clock| {
                clock.advance(Duration::from_millis(100));
                c.dispatch(ControlRequest::RenewLease {
                    job: job(),
                    name: "kv".into(),
                })
                .unwrap();
            }),
        );
    }
    {
        let job = job.clone();
        step(
            "split",
            Box::new(move |c, _| {
                let blocks = kv_blocks(c, job());
                c.dispatch(ControlRequest::ReportOverload {
                    block: blocks[0],
                    used: u64::MAX / 2,
                })
                .unwrap();
            }),
        );
    }
    {
        let job = job.clone();
        step(
            "merge",
            Box::new(move |c, _| {
                let blocks = kv_blocks(c, job());
                assert_eq!(blocks.len(), 3, "split added a block");
                c.dispatch(ControlRequest::ReportUnderload {
                    block: *blocks.last().unwrap(),
                    used: 0,
                })
                .unwrap();
            }),
        );
    }
    {
        let job = job.clone();
        step(
            "flush-file",
            Box::new(move |c, _| {
                c.dispatch(ControlRequest::FlushPrefix {
                    job: job(),
                    name: "file".into(),
                    external_path: "ext/file".into(),
                })
                .unwrap();
            }),
        );
    }
    {
        let job = job.clone();
        step(
            "remove-file",
            Box::new(move |c, _| {
                c.dispatch(ControlRequest::RemovePrefix {
                    job: job(),
                    name: "file".into(),
                })
                .unwrap();
            }),
        );
    }
    {
        step(
            "expire-kv",
            Box::new(move |c, clock| {
                clock.advance(Duration::from_millis(1100));
                let expired = c.run_expiry_once();
                assert!(!expired.is_empty(), "lease lapse reclaims kv");
            }),
        );
    }
    {
        let job = job.clone();
        step(
            "load-kv",
            Box::new(move |c, _| {
                let path = format!("jiffy-expired/{}/kv", job().raw());
                c.dispatch(ControlRequest::LoadPrefix {
                    job: job(),
                    name: "kv".into(),
                    external_path: path,
                })
                .unwrap();
            }),
        );
    }
    {
        let ids = ids.clone();
        step(
            "drain-b",
            Box::new(move |c, _| {
                c.dispatch(ControlRequest::LeaveServer {
                    server: ServerId(ids.server_b.get()),
                })
                .unwrap();
            }),
        );
    }
    {
        let ids = ids.clone();
        step(
            "fail-a",
            Box::new(move |c, _| {
                c.handle_server_failure(ServerId(ids.server_a.get()))
                    .unwrap();
            }),
        );
    }
    {
        let job = job.clone();
        step(
            "deregister",
            Box::new(move |c, _| {
                c.dispatch(ControlRequest::DeregisterJob { job: job() })
                    .unwrap();
            }),
        );
    }
    step(
        "join-c",
        Box::new(move |c, _| {
            join(c, "c", 4);
        }),
    );
    {
        step(
            "reuse",
            Box::new(move |c, _| {
                let job = match c
                    .dispatch(ControlRequest::RegisterJob {
                        name: "after".into(),
                    })
                    .unwrap()
                {
                    ControlResponse::JobRegistered { job } => job,
                    other => panic!("{other:?}"),
                };
                c.dispatch(ControlRequest::CreatePrefix {
                    job,
                    name: "fresh".into(),
                    parents: vec![],
                    ds: Some(DsType::Queue),
                    initial_blocks: 1,
                })
                .unwrap();
            }),
        );
    }
    steps
}

fn fresh_controller(cfg: &JiffyConfig) -> (Arc<Controller>, Arc<ManualClock>, Arc<MemObjectStore>) {
    let (clock, shared) = ManualClock::shared();
    let store = Arc::new(MemObjectStore::new());
    let ctrl = Controller::new(cfg.clone(), shared, Arc::new(NoopDataPlane), store.clone())
        .expect("fresh controller");
    (ctrl, clock, store)
}

fn recover(
    cfg: &JiffyConfig,
    clock: &Arc<ManualClock>,
    store: &Arc<MemObjectStore>,
) -> Arc<Controller> {
    let shared: SharedClock = clock.clone();
    Controller::recover(cfg.clone(), shared, Arc::new(NoopDataPlane), store.clone())
        .expect("recovery")
}

fn assert_matches(step: &str, expected: &StateMirror, rec: &Controller) {
    let violations = rec.check_invariants();
    assert!(violations.is_empty(), "after {step}: {violations:?}");
    assert_eq!(
        *expected,
        rec.state_mirror().normalized(),
        "recovered state diverges after {step}"
    );
}

/// Kill-after-every-record: with snapshots disabled the journal holds
/// one object per acked batch; recovering from every prefix of those
/// objects must land on the state the live controller had at that
/// point, with all cross-table invariants intact.
#[test]
fn crash_point_sweep_over_every_journal_prefix() {
    let cfg = JiffyConfig::for_testing().with_meta_snapshot_every(0);
    let (ctrl, clock, store) = fresh_controller(&cfg);
    // (step name, #journal objects at that point, normalized mirror).
    let mut checkpoints: Vec<(&'static str, usize, StateMirror)> = Vec::new();
    for (name, step) in script() {
        step(&ctrl, &clock);
        checkpoints.push((
            name,
            store.list(JOURNAL_PREFIX).len(),
            ctrl.state_mirror().normalized(),
        ));
    }
    let objects = store.list(JOURNAL_PREFIX);
    assert!(objects.len() >= checkpoints.len() - 1, "most steps journal");
    for (name, count, expected) in &checkpoints {
        let partial = Arc::new(MemObjectStore::new());
        for path in objects.iter().take(*count) {
            partial
                .put(path, &store.get(path).expect("journal object"))
                .expect("copy");
        }
        let rec = recover(&cfg, &clock, &partial);
        assert_matches(name, expected, &rec);
    }
}

/// The same script with aggressive snapshotting (every 2 records): a
/// full crash image taken after every step now lands in all phases of
/// the snapshot/truncate cycle, and recovery must be exact in each.
#[test]
fn crash_point_sweep_with_mid_stream_snapshots() {
    let cfg = JiffyConfig::for_testing().with_meta_snapshot_every(2);
    let (ctrl, clock, store) = fresh_controller(&cfg);
    for (name, step) in script() {
        step(&ctrl, &clock);
        let image = Arc::new(MemObjectStore::new());
        for path in store.list("") {
            image
                .put(&path, &store.get(&path).expect("object"))
                .expect("copy");
        }
        let rec = recover(&cfg, &clock, &image);
        assert_matches(name, &ctrl.state_mirror().normalized(), &rec);
    }
}

// ---------------------------------------------------------------------
// Cluster crash/restart
// ---------------------------------------------------------------------

/// Config for the cluster crash/restart tests: lease expiry is not
/// under test here, and the cluster runs the real-clock expiry worker,
/// so a long lease keeps a slow (loaded) machine from reclaiming the
/// test's prefixes mid-exercise.
fn long_lease_cfg() -> JiffyConfig {
    JiffyConfig::for_testing().with_lease_duration(Duration::from_secs(120))
}

fn exercise_crash_restart(cluster: &JiffyCluster) {
    let client = cluster.client().expect("client");
    let job = client.register_job("recov").expect("job");
    let kv = job.open_kv("state", &[], 2).expect("kv");
    for i in 0..50u32 {
        kv.put(format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
            .expect("acked put");
    }

    cluster.crash_controller();
    cluster.restart_controller().expect("restart");

    // Every acked write survives the controller crash (data blocks were
    // never touched; the recovered metadata still routes to them).
    for i in 0..50u32 {
        assert_eq!(
            kv.get(format!("k{i}").as_bytes()).expect("get"),
            Some(format!("v{i}").into_bytes()),
            "k{i} lost across controller restart"
        );
    }
    // The recovered control plane keeps serving: existing handles renew,
    // new structures allocate from the recovered freelist.
    job.renew_lease("state").expect("renew after restart");
    let kv2 = job.open_kv("post-restart", &[], 1).expect("new prefix");
    kv2.put(b"x", b"y").expect("put");
    assert_eq!(kv2.get(b"x").expect("get"), Some(b"y".to_vec()));
    let stats = cluster.controller().stats();
    assert_eq!(stats.jobs, 1);
    assert!(cluster.controller().check_invariants().is_empty());

    // A second crash/restart cycle works too (the first recovery's own
    // journal writes are replayable).
    cluster.crash_controller();
    cluster.restart_controller().expect("second restart");
    assert_eq!(kv.get(b"k0").expect("get"), Some(b"v0".to_vec()));
}

#[test]
fn in_process_cluster_survives_controller_crash() {
    let cluster = JiffyCluster::in_process(long_lease_cfg(), 2, 16).expect("cluster");
    exercise_crash_restart(&cluster);
}

#[test]
fn tcp_cluster_survives_controller_crash_and_rebinds_its_port() {
    let cluster = JiffyCluster::over_tcp(long_lease_cfg(), 2, 16).expect("cluster");
    let addr_before = cluster.controller_addr().to_string();
    exercise_crash_restart(&cluster);
    assert_eq!(
        cluster.controller_addr(),
        addr_before,
        "restart must rebind the same endpoint clients hold"
    );
}

/// A control request issued while the controller is dark rides through
/// on the client's transport retry and lands on the recovered instance.
#[test]
fn control_ops_ride_through_the_restart_window() {
    let cluster = JiffyCluster::in_process(long_lease_cfg(), 2, 16).expect("cluster");
    let client = cluster.client().expect("client");
    let job = client.register_job("window").expect("job");
    job.open_kv("state", &[], 1).expect("kv");

    // Connected before the crash: `connect` dials eagerly, and a server
    // heartbeat that fails in the dark window evicts the pooled
    // connection it would otherwise reuse.
    let client2 = cluster.client().expect("client");
    cluster.crash_controller();
    let concurrent = {
        let job_id = job.id();
        std::thread::spawn(move || {
            jiffy_client::JobClient::attach(client2, job_id).renew_lease("state")
        })
    };
    std::thread::sleep(Duration::from_millis(5));
    cluster.restart_controller().expect("restart");
    let renewed = concurrent
        .join()
        .expect("no panic")
        .expect("request retried into the recovered controller");
    assert!(renewed.contains(&"state".to_string()));
}

/// Servers keep heartbeating into the recovered controller: liveness is
/// re-learned from the wire, not from the journal.
#[test]
fn heartbeats_reestablish_liveness_after_restart() {
    let cfg = JiffyConfig::for_testing();
    let cluster = JiffyCluster::in_process(cfg.clone(), 2, 8).expect("cluster");
    cluster.crash_controller();
    cluster.restart_controller().expect("restart");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if cluster.controller().stats().servers == 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "servers never re-registered as alive with the recovered controller"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// An object store whose process can die: once dead, every write fails
/// (reads keep working for the successor's recovery).
struct DyingStore {
    inner: MemObjectStore,
    dead: AtomicBool,
}

impl ObjectStore for DyingStore {
    fn put(&self, path: &str, data: &[u8]) -> jiffy_common::Result<()> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(jiffy_common::JiffyError::Internal("store died".into()));
        }
        self.inner.put(path, data)
    }
    fn get(&self, path: &str) -> jiffy_common::Result<Vec<u8>> {
        self.inner.get(path)
    }
    fn delete(&self, path: &str) -> jiffy_common::Result<()> {
        self.inner.delete(path)
    }
    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }
    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }
}

/// KNOWN GAP (ROADMAP open items): `handle_underload` runs the
/// data-plane merge *before* `MergeCommitted` is journaled, so a
/// controller that dies between the two leaves the source block's data
/// on the target while the recovered metadata still routes its keys to
/// the (emptied) source. The crash is placed exactly there: the journal
/// append after the merge fails, as it would for a dead process.
#[test]
#[ignore = "known gap: merge runs on the data plane before MergeCommitted is journaled"]
fn a_crash_between_merge_and_its_journal_record_loses_no_acked_write() {
    // Thresholds off: the merge is ordered by hand, at a known instant.
    let cfg = long_lease_cfg().with_thresholds(0.0, 1.0);
    let store = Arc::new(DyingStore {
        inner: MemObjectStore::new(),
        dead: AtomicBool::new(false),
    });
    let cluster = JiffyCluster::build_with_shards(
        cfg,
        2,
        16,
        jiffy_common::clock::SystemClock::shared(),
        store.clone(),
        false,
        false,
        1,
    )
    .expect("cluster");
    let job = cluster
        .client()
        .expect("client")
        .register_job("gap")
        .expect("job");
    let kv = job.open_kv("state", &[], 2).expect("kv");
    for i in 0..50u32 {
        kv.put(format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
            .expect("acked put");
    }
    let source = job
        .resolve("state")
        .expect("resolve")
        .partition
        .expect("ds")
        .blocks()[1]
        .id();

    store.dead.store(true, Ordering::SeqCst);
    cluster
        .controller()
        .dispatch(ControlRequest::ReportUnderload {
            block: source,
            used: 0,
        })
        .expect_err("the merge's journal append hits the dead store");
    cluster.crash_controller();
    store.dead.store(false, Ordering::SeqCst);
    cluster.restart_controller().expect("restart");

    for i in 0..50u32 {
        assert_eq!(
            kv.get(format!("k{i}").as_bytes()).expect("get"),
            Some(format!("v{i}").into_bytes()),
            "k{i} stranded by the unjournaled merge"
        );
    }
}

// ---------------------------------------------------------------------
// Chaos
// ---------------------------------------------------------------------

/// Full chaos workload with the controller crashing (and recovering)
/// twice mid-run, on top of the usual transport faults: the history
/// checker proves no acked write was lost and no stale read served.
#[test]
fn chaos_with_controller_crashes_loses_no_acked_writes() {
    let cfg = HarnessConfig {
        seed: 0x0C0_FFEE,
        ops_per_worker: 150,
        mix: WorkloadMix::all(),
        elastic: vec![
            (40, ElasticAction::CrashController),
            (90, ElasticAction::CrashController),
        ],
        ..HarnessConfig::default()
    };
    run(&cfg).expect("harness run").assert_ok();
}

/// Controller crashes interleaved with server membership churn: the
/// journal's drain/failure rewrites and the recovery path compose.
#[test]
fn chaos_with_controller_crash_and_membership_churn() {
    let cfg = HarnessConfig {
        seed: 0x0C0_FFE2,
        ops_per_worker: 150,
        chain_length: 2,
        num_servers: 3,
        mix: WorkloadMix::kv_only(),
        elastic: vec![
            (30, ElasticAction::JoinServer),
            (60, ElasticAction::CrashController),
            (90, ElasticAction::DrainServer),
            (120, ElasticAction::CrashController),
        ],
        ..HarnessConfig::default()
    };
    run(&cfg).expect("harness run").assert_ok();
}

// ---------------------------------------------------------------------
// One wiring: N >= 1 shards behind one endpoint
// ---------------------------------------------------------------------

fn sharded_cluster(store: Arc<dyn ObjectStore>, shards: usize) -> JiffyCluster {
    JiffyCluster::build_with_shards(
        long_lease_cfg(),
        2,
        16,
        jiffy_common::clock::SystemClock::shared(),
        store,
        true,
        false,
        shards,
    )
    .expect("cluster")
}

/// Crashing and restarting the whole control plane is one procedure
/// applied to every shard, so it works for any shard count — and the
/// recovered plane takes new jobs.
#[test]
fn whole_plane_crash_and_restart_works_for_any_shard_count() {
    for shards in [1, 2] {
        let cluster = sharded_cluster(Arc::new(MemObjectStore::new()), shards);
        exercise_crash_restart(&cluster);
        cluster
            .client()
            .expect("client")
            .register_job("after")
            .unwrap_or_else(|e| panic!("{shards} shards: register_job after restart: {e:?}"));
    }
}

/// The persisted layout is the one format the single wiring must not
/// move: one shard journals under plain `jiffy-meta/`, N > 1 under
/// `jiffy-meta/shard-{i}/` each — and a one-shard store recovers through
/// the same `restart_controller()` every other shard count uses.
#[test]
fn metadata_keys_stay_where_each_shard_count_always_wrote_them() {
    for shards in [1usize, 2] {
        let store = Arc::new(MemObjectStore::new());
        let cluster = sharded_cluster(store.clone(), shards);
        let job = cluster
            .client()
            .expect("client")
            .register_job("layout")
            .expect("job");
        for i in 0..4 {
            let kv = job.open_kv(&format!("kv{i}"), &[], 1).expect("kv");
            kv.put(b"k", b"v").expect("put");
        }
        // Every metadata key sits under its shard's prefix, and every
        // shard wrote a `dir` ("journal/", then "snapshot/") of its own.
        let check = |dir: &str| {
            let keys = store.list("jiffy-meta/");
            let prefixes: Vec<String> = match shards {
                1 => vec!["jiffy-meta/".into()],
                n => (0..n).map(|i| format!("jiffy-meta/shard-{i}/")).collect(),
            };
            for key in &keys {
                let rest = prefixes.iter().find_map(|p| key.strip_prefix(p.as_str()));
                assert!(
                    rest.is_some_and(|r| r.starts_with("journal/") || r.starts_with("snapshot/")),
                    "{shards} shards: metadata key {key} outside {prefixes:?}"
                );
            }
            for prefix in &prefixes {
                assert!(
                    keys.iter()
                        .any(|k| k.starts_with(&format!("{prefix}{dir}"))),
                    "{shards} shards: nothing under {prefix}{dir} in {keys:?}"
                );
            }
        };
        check("journal/");
        for i in 0..shards {
            let shard = cluster.sharded_controller().shard(i);
            shard.snapshot_now().expect("snapshot");
        }
        job.create_addr_prefix("after-snapshot", &[])
            .expect("prefix");
        check("snapshot/");

        cluster.crash_controller();
        cluster.restart_controller().expect("restart");
        let kv = job.open_kv("kv0", &[], 1).expect("reopen");
        assert_eq!(kv.get(b"k").expect("get"), Some(b"v".to_vec()));
        job.resolve("after-snapshot")
            .expect("journal tail replayed");
    }
}
