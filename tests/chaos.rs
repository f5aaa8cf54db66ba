//! Tier-1 chaos smoke tests: every data structure holds its invariants
//! under light transport faults, and a partitioned memory server degrades
//! into lease-driven reclamation instead of a hang.
//!
//! The heavy property-based campaigns live in `crates/harness`; these
//! tests pin the end-to-end behaviour into the main suite with small,
//! fast configurations.

use jiffy_sync::Arc;
use std::time::{Duration, Instant};

use jiffy::cluster::JiffyCluster;
use jiffy::{JiffyClient, JiffyConfig};
use jiffy_common::clock::ManualClock;
use jiffy_harness::{run, ElasticAction, HarnessConfig, TenantQos, WorkloadMix};
use jiffy_persistent::MemObjectStore;
use jiffy_rpc::{FaultInjector, FaultRule};

/// 1% drop plus up-to-5ms delay jitter on every client call.
fn light_chaos() -> FaultRule {
    FaultRule::none()
        .with_drop(0.01)
        .with_delay(0.20, Duration::ZERO, Duration::from_millis(5))
}

/// Chaos tests run against local in-process/loopback transports where
/// 10 s of silence means "dead", not "slow" — lower the RPC call
/// timeout so injected hangs fail fast instead of stalling the suite.
fn lower_call_timeout() {
    jiffy_common::set_call_timeout(Duration::from_secs(2));
}

fn smoke(seed: u64, mix: WorkloadMix) {
    lower_call_timeout();
    let cfg = HarnessConfig {
        seed,
        ops_per_worker: 100,
        rule: light_chaos(),
        mix,
        ..HarnessConfig::default()
    };
    run(&cfg).unwrap().assert_ok();
}

#[test]
fn kv_survives_light_chaos() {
    smoke(0xC4A0_5001, WorkloadMix::kv_only());
}

#[test]
fn file_survives_light_chaos() {
    smoke(0xC4A0_5002, WorkloadMix::file_only());
}

#[test]
fn queue_survives_light_chaos() {
    smoke(0xC4A0_5003, WorkloadMix::queue_only());
}

#[test]
fn all_structures_survive_light_chaos_together() {
    smoke(0xC4A0_5004, WorkloadMix::all());
}

#[test]
fn batched_ops_survive_chaos_with_duplicates() {
    // The PR 4 fast path: runs of same-kind ops ride multi-op Batch
    // RPCs. Drops force transport retries and duplicates replay whole
    // batch envelopes — the dedup cache must treat each batch as one
    // unit so no sub-op applies twice (the history checker would flag
    // a double-applied enqueue or a lost acked put).
    lower_call_timeout();
    let cfg = HarnessConfig {
        seed: 0xBA7C_0001,
        ops_per_worker: 200,
        rule: FaultRule::none()
            .with_drop(0.03)
            .with_delay(0.10, Duration::ZERO, Duration::from_millis(2))
            .with_duplicate(0.05)
            .with_error(0.03),
        mix: WorkloadMix::all(),
        batch: 8,
        ..HarnessConfig::default()
    };
    run(&cfg).unwrap().assert_ok();
}

#[test]
fn batched_ops_survive_elastic_kill_and_join() {
    // Batched writes racing membership changes: a replica chain's home
    // is killed and a fresh server joins mid-workload. Sub-batches that
    // straddle a re-route must be retried per block without re-applying
    // the already-acked prefix.
    lower_call_timeout();
    let cfg = HarnessConfig {
        seed: 0xBA7C_0002,
        ops_per_worker: 200,
        rule: light_chaos().with_duplicate(0.03),
        mix: WorkloadMix::kv_only(),
        num_servers: 3,
        chain_length: 2,
        elastic: vec![
            (60, ElasticAction::JoinServer),
            (120, ElasticAction::KillServer),
        ],
        batch: 8,
        ..HarnessConfig::default()
    };
    run(&cfg).unwrap().assert_ok();
}

#[test]
fn batched_queue_fifo_survives_drain() {
    // enqueue_batch under a live drain: segments migrate while batches
    // land. FIFO order within and across batches is checked by the
    // queue invariant in the history checker.
    lower_call_timeout();
    let cfg = HarnessConfig {
        seed: 0xBA7C_0003,
        ops_per_worker: 150,
        rule: light_chaos().with_duplicate(0.03),
        mix: WorkloadMix::queue_only(),
        num_servers: 3,
        elastic: vec![(50, ElasticAction::DrainServer)],
        batch: 6,
        ..HarnessConfig::default()
    };
    run(&cfg).unwrap().assert_ok();
}

#[test]
fn partitioned_server_causes_lease_reclaim_not_hang() {
    // A task's memory server becomes unreachable. The client must fail
    // fast (bounded retries, not an infinite hang), and once the job's
    // lease lapses the controller must reclaim the unreachable prefix's
    // blocks through its *own* (healthy) fabric.
    let (clock, shared) = ManualClock::shared();
    let store = Arc::new(MemObjectStore::new());
    let cluster = JiffyCluster::build_with_shards(
        JiffyConfig::for_testing(),
        2,
        8,
        shared,
        store,
        false,
        false,
        1,
    )
    .unwrap();

    // Chaos fabric for the client only; the controller keeps the clean
    // cluster fabric for flush/reclaim traffic.
    let injector = Arc::new(FaultInjector::new(0xDEAD));
    let chaos_fabric = cluster
        .fabric()
        .clone()
        .with_fault_injection(injector.clone());
    let client = JiffyClient::connect(chaos_fabric, cluster.controller_addr()).unwrap();
    let job = client.register_job("partitioned").unwrap();
    let kv = job.open_kv("state", &[], 2).unwrap();
    kv.put(b"k", b"v").unwrap();
    let free_before = client.stats().unwrap().free_blocks;

    // Partition every server that holds a block of the structure.
    let view = job.resolve("state").unwrap();
    let mut partitioned = Vec::new();
    for loc in view.partition.unwrap().blocks() {
        for replica in &loc.chain {
            if !partitioned.contains(&replica.addr) {
                partitioned.push(replica.addr.clone());
            }
        }
    }
    for addr in &partitioned {
        injector.partition(addr);
    }

    // Data ops fail within bounded time instead of hanging.
    let started = Instant::now();
    let err = kv.get(b"k").unwrap_err();
    assert!(err.is_transport(), "expected transport error, got {err:?}");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "retries must be bounded"
    );

    // The job stops renewing; expiry reclaims the blocks over the
    // controller's healthy fabric.
    clock.advance(Duration::from_secs(5));
    cluster.controller().run_expiry_once();
    let free_after = client.stats().unwrap().free_blocks;
    assert!(
        free_after > free_before,
        "partitioned prefix must be reclaimed ({free_before} -> {free_after})"
    );

    // The injector saw the partition (ops were actually rejected there).
    assert!(injector.stats().partition_rejections > 0);

    // Healing the partition restores service for a fresh structure.
    for addr in &partitioned {
        injector.heal(addr);
    }
    let kv2 = job.open_kv("state2", &[], 1).unwrap();
    kv2.put(b"x", b"y").unwrap();
    assert_eq!(kv2.get(b"x").unwrap(), Some(b"y".to_vec()));
}

#[test]
fn server_killed_mid_workload_replicated_data_survives() {
    // Chain-replicated KV, three servers, one crashed a third of the way
    // in. The controller promotes surviving replicas, clients re-route,
    // and the history checker proves no acked write was lost.
    let cfg = HarnessConfig {
        seed: 0xE1A5_0001,
        ops_per_worker: 150,
        rule: light_chaos(),
        mix: WorkloadMix::kv_only(),
        num_servers: 3,
        chain_length: 2,
        elastic: vec![(50, ElasticAction::KillServer)],
        ..HarnessConfig::default()
    };
    run(&cfg).unwrap().assert_ok();
}

#[test]
fn server_joins_mid_workload() {
    let cfg = HarnessConfig {
        seed: 0xE1A5_0002,
        ops_per_worker: 150,
        rule: light_chaos(),
        mix: WorkloadMix::all(),
        elastic: vec![(50, ElasticAction::JoinServer)],
        ..HarnessConfig::default()
    };
    run(&cfg).unwrap().assert_ok();
}

#[test]
fn server_drained_mid_workload_migrates_live_blocks() {
    // A graceful drain live-migrates every block off the oldest server
    // while the workload keeps running. Ops racing a migration may see
    // retryable errors (the client re-routes); none may lose data.
    let cfg = HarnessConfig {
        seed: 0xE1A5_0003,
        ops_per_worker: 150,
        rule: light_chaos(),
        mix: WorkloadMix::all(),
        num_servers: 3,
        elastic: vec![(50, ElasticAction::DrainServer)],
        ..HarnessConfig::default()
    };
    run(&cfg).unwrap().assert_ok();
}

#[test]
fn kill_then_join_then_drain_stacked_chaos() {
    let cfg = HarnessConfig {
        seed: 0xE1A5_0004,
        ops_per_worker: 200,
        rule: light_chaos(),
        mix: WorkloadMix::kv_only(),
        num_servers: 3,
        chain_length: 2,
        elastic: vec![
            (40, ElasticAction::JoinServer),
            (80, ElasticAction::KillServer),
            (120, ElasticAction::DrainServer),
        ],
        ..HarnessConfig::default()
    };
    run(&cfg).unwrap().assert_ok();
}

#[test]
fn throttled_aggressor_under_membership_churn_never_hurts_the_victim() {
    // Two tenants share the cluster: tenant 1 (workers 0 and 2) runs a
    // normal workload, tenant 2 (worker 1) is an aggressor pinned to a
    // tight op-rate limit, and a server joins then another drains away
    // mid-run. The history checker proves every acked write of *both*
    // tenants landed exactly once — throttling is retryable and never
    // double-executes — and the isolation checker proves neither tenant
    // can read the other's keys. The churn is an abrupt head kill: the
    // replicated replay window makes retries across the promotion
    // exactly-once even with throttling stretching the run so the kill
    // lands amid more in-flight ops.
    lower_call_timeout();
    let cfg = HarnessConfig {
        seed: 0x0A05_0001,
        workers: 3,
        tenants: 2,
        ops_per_worker: 120,
        rule: light_chaos().with_duplicate(0.03),
        mix: WorkloadMix::kv_only(),
        num_servers: 3,
        chain_length: 2,
        qos: Some(jiffy_common::QosConfig::enabled_with_rates(0, 0)),
        tenant_limits: vec![TenantQos {
            tenant_index: 1,
            share: 1,
            quota_bytes: 0,
            ops_per_sec: 300,
            bytes_per_sec: 0,
        }],
        elastic: vec![
            (60, ElasticAction::JoinServer),
            (150, ElasticAction::KillServer),
        ],
        ..HarnessConfig::default()
    };
    run(&cfg).unwrap().assert_ok();
}

#[test]
fn controller_shard_crashes_mid_workload_lose_no_acked_writes() {
    // Sharded control plane (2 shards), each crashed and recovered from
    // its own journal stream mid-run. Data ops never touch the
    // controller, control ops ride client retries through the recovery
    // window, and the history checker proves zero acked-write loss and
    // no exactly-once violations.
    lower_call_timeout();
    let cfg = HarnessConfig {
        seed: 0x5A4D_0001,
        ops_per_worker: 150,
        rule: light_chaos(),
        mix: WorkloadMix::all(),
        num_servers: 2,
        shards: 2,
        elastic: vec![
            (40, ElasticAction::CrashControllerShard(0)),
            (90, ElasticAction::CrashControllerShard(1)),
        ],
        ..HarnessConfig::default()
    };
    run(&cfg).unwrap().assert_ok();
}

#[test]
fn whole_plane_crashes_on_a_sharded_cluster_lose_no_acked_writes() {
    // Both crash scopes on one 2-shard run: the whole plane (endpoint
    // down, every shard recovered, router soft state re-derived) and a
    // single shard in between. Same bar as above: zero acked-write loss,
    // no exactly-once violation.
    lower_call_timeout();
    let cfg = HarnessConfig {
        seed: 0x5A4D_0002,
        ops_per_worker: 150,
        rule: light_chaos(),
        mix: WorkloadMix::all(),
        num_servers: 2,
        shards: 2,
        elastic: vec![
            (30, ElasticAction::CrashController),
            (70, ElasticAction::CrashControllerShard(1)),
            (110, ElasticAction::CrashController),
        ],
        ..HarnessConfig::default()
    };
    run(&cfg).unwrap().assert_ok();
}

#[test]
fn dark_controller_shard_serves_cache_hits_and_retried_misses() {
    // One shard goes dark. Cached metadata for its slice keeps serving
    // (resolves are cache hits, data ops flow), and a forced cache miss
    // rides the client's transport retries into the recovered shard.
    let cluster = JiffyCluster::build_with_shards(
        JiffyConfig::for_testing(),
        4,
        8,
        jiffy_common::clock::SystemClock::shared(),
        Arc::new(MemObjectStore::new()),
        true,
        false,
        2,
    )
    .unwrap();
    let client = cluster
        .client()
        .unwrap()
        .with_retry_policy(jiffy_rpc::RetryPolicy {
            max_attempts: 40,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(50),
            multiplier: 2.0,
        });
    let map = cluster.sharded_controller().shard_map();
    // One job per shard.
    let job = client.register_job("shard-dark-a").unwrap();
    let other = (0..16)
        .map(|i| client.register_job(&format!("shard-dark-b{i}")).unwrap())
        .find(|j| map.shard_of_job(j.id()) != map.shard_of_job(job.id()))
        .expect("16 jobs span 2 shards");
    let a = "a".to_string();
    let b = "b".to_string();
    let kv_a = job.open_kv(&a, &[], 1).unwrap();
    let kv_b = other.open_kv(&b, &[], 1).unwrap();
    kv_a.put(b"k", b"a").unwrap();
    kv_b.put(b"k", b"b").unwrap();
    let cache = client.metadata_cache();
    job.resolve(&a).unwrap(); // warm

    let dark = map.shard_of_job(job.id()) as usize;
    cluster.crash_controller_shard(dark);

    // Cached metadata for the dark shard's slice still serves resolves
    // without a controller round-trip...
    let hits = cache.stats().hits();
    let resolves = cache.stats().resolves();
    job.resolve(&a).unwrap();
    assert!(
        cache.stats().hits() > hits,
        "dark-shard resolve must hit cache"
    );
    assert_eq!(cache.stats().resolves(), resolves);
    // ...and acked data is reachable on both slices (the data path
    // never touches the controller).
    assert_eq!(kv_a.get(b"k").unwrap(), Some(b"a".to_vec()));
    assert_eq!(kv_b.get(b"k").unwrap(), Some(b"b".to_vec()));
    // The live shard's control plane is unaffected.
    other.resolve_fresh(&b).unwrap();

    // A cache miss for the dark slice rides retries into the shard once
    // it recovers.
    let restarter = {
        let name = a.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            cluster.restart_controller_shard(dark).unwrap();
            (cluster, name)
        })
    };
    let view = job.resolve_fresh(&a).unwrap();
    assert_eq!(view.name, a);
    let (cluster, _) = restarter.join().unwrap();
    assert!(cluster.controller_shard_is_up(dark));
    // Nothing acked was lost across the shard's crash/recovery.
    assert_eq!(kv_a.get(b"k").unwrap(), Some(b"a".to_vec()));
}

#[test]
fn unreplicated_loss_is_clean_unavailable_not_a_hang() {
    // Killing the only home of unreplicated, unflushed data loses it by
    // design. The contract is a *fast, clean* `Unavailable` — the client
    // must not spin on routing retries when the layout hasn't changed.
    let cluster = JiffyCluster::build_with_shards(
        JiffyConfig::for_testing(),
        2,
        8,
        jiffy_common::clock::SystemClock::shared(),
        Arc::new(MemObjectStore::new()),
        false,
        false,
        1,
    )
    .unwrap();
    let client = JiffyClient::connect(cluster.fabric().clone(), cluster.controller_addr()).unwrap();
    let job = client.register_job("unreplicated-loss").unwrap();
    let kv = job.open_kv("state", &[], 1).unwrap();
    kv.put(b"k", b"v").unwrap();

    // Every block of the structure lives on some server; kill them all.
    let view = job.resolve("state").unwrap();
    let mut homes = Vec::new();
    for loc in view.partition.unwrap().blocks() {
        for replica in &loc.chain {
            if !homes.contains(&replica.server) {
                homes.push(replica.server);
            }
        }
    }
    for id in homes {
        cluster.kill_server(id).unwrap();
    }

    let started = Instant::now();
    let err = kv.get(b"k").unwrap_err();
    assert!(
        matches!(err, jiffy_common::JiffyError::Unavailable(_)),
        "expected clean Unavailable, got {err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "loss must fail fast, took {:?}",
        started.elapsed()
    );

    // The surviving server still serves fresh structures.
    let kv2 = job.open_kv("state2", &[], 1).unwrap();
    kv2.put(b"x", b"y").unwrap();
    assert_eq!(kv2.get(b"x").unwrap(), Some(b"y".to_vec()));
}
