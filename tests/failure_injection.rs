//! Failure injection: dead tasks, dead servers, replication, and the
//! decoupled fault domains of §3.2.

use jiffy_sync::Arc;
use std::time::Duration;

use jiffy::cluster::JiffyCluster;
use jiffy::{JiffyConfig, JiffyError};
use jiffy_common::clock::ManualClock;
use jiffy_persistent::MemObjectStore;

#[test]
fn task_death_orphans_no_state() {
    // A "task" writes intermediate data and dies (stops renewing). Jiffy
    // must not leak the memory: the lease lapses, data is flushed, the
    // blocks return to the pool for other jobs.
    let (clock, shared) = ManualClock::shared();
    let store = Arc::new(MemObjectStore::new());
    let cluster = JiffyCluster::build_with_shards(
        JiffyConfig::for_testing().with_block_size(16 * 1024),
        1,
        8,
        shared,
        store.clone(),
        false,
        false,
        1,
    )
    .unwrap();
    let client = cluster.client().unwrap();

    // Job A's task writes and dies.
    let job_a = client.register_job("victim").unwrap();
    let kv = job_a.open_kv("dead-task", &[], 2).unwrap();
    for i in 0..100 {
        kv.put(format!("k{i}").as_bytes(), vec![1u8; 200].as_slice())
            .unwrap();
    }
    let free_before = client.stats().unwrap().free_blocks;

    clock.advance(Duration::from_secs(5));
    cluster.controller().run_expiry_once();

    let free_after = client.stats().unwrap().free_blocks;
    assert!(free_after > free_before, "orphaned blocks reclaimed");

    // Job B can now use the reclaimed capacity.
    let job_b = client.register_job("beneficiary").unwrap();
    let kv_b = job_b.open_kv("fresh", &[], 2).unwrap();
    kv_b.put(b"x", b"y").unwrap();
    assert_eq!(kv_b.get(b"x").unwrap(), Some(b"y".to_vec()));

    // And job A's data is recoverable from the persistent tier.
    use jiffy_persistent::ObjectStore;
    let auto = format!("jiffy-expired/{}/dead-task", job_a.id().raw());
    assert!(store.exists(&auto));
    // A successor task (new lease) loads it.
    clock.advance(Duration::from_millis(10));
    job_a.renew_lease("dead-task").unwrap();
    job_a.load("dead-task", &auto).unwrap();
    let kv = job_a.open_kv("dead-task", &[], 1).unwrap();
    assert_eq!(kv.get(b"k42").unwrap(), Some(vec![1u8; 200]));
}

#[test]
fn server_departure_surfaces_clean_errors() {
    let cluster = JiffyCluster::in_process(JiffyConfig::for_testing(), 2, 4).unwrap();
    let job = cluster.client().unwrap().register_job("doomed").unwrap();
    let kv = job.open_kv("s", &[], 2).unwrap();
    kv.put(b"k", b"v").unwrap();

    // Kill both memory servers (deregister from the in-proc hub).
    let view = job.resolve("s").unwrap();
    let mut addrs: Vec<String> = Vec::new();
    for loc in view.partition.unwrap().blocks() {
        for r in &loc.chain {
            if !addrs.contains(&r.addr) {
                addrs.push(r.addr.clone());
            }
        }
    }
    for addr in &addrs {
        cluster.fabric().hub().deregister(addr);
        cluster.fabric().evict(addr);
    }

    // Data ops now fail with a clean Unavailable, not a hang or panic.
    let err = kv.get(b"k").unwrap_err();
    assert!(matches!(err, JiffyError::Unavailable(_)), "{err:?}");
    // Control plane still works.
    assert!(job.resolve("s").is_ok());
}

#[test]
fn chain_replication_survives_head_loss_for_reads() {
    // chain_length = 2: each logical block has replicas on two servers.
    let cfg = JiffyConfig::for_testing().with_chain_length(2);
    let cluster = JiffyCluster::in_process(cfg, 2, 4).unwrap();
    let job = cluster
        .client()
        .unwrap()
        .register_job("replicated")
        .unwrap();
    let kv = job.open_kv("s", &[], 1).unwrap();
    for i in 0..50 {
        kv.put(format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }

    // Verify both replicas hold the data: read directly at the tail.
    let view = job.resolve("s").unwrap();
    let loc = view.partition.unwrap().blocks()[0].clone();
    assert_eq!(loc.chain.len(), 2);
    assert_ne!(loc.chain[0].server, loc.chain[1].server);

    // Kill the head server; reads (served at the tail) keep working.
    let head_addr = loc.head().addr.clone();
    cluster.fabric().hub().deregister(&head_addr);
    cluster.fabric().evict(&head_addr);
    for i in 0..50 {
        assert_eq!(
            kv.get(format!("k{i}").as_bytes()).unwrap(),
            Some(format!("v{i}").into_bytes()),
            "k{i} must be readable from the tail replica"
        );
    }
    // Writes (entering at the dead head) fail cleanly.
    assert!(matches!(
        kv.put(b"new", b"w").unwrap_err(),
        JiffyError::Unavailable(_)
    ));
}

#[test]
fn load_over_live_structure_is_refused() {
    let cluster = JiffyCluster::in_process(JiffyConfig::for_testing(), 1, 8).unwrap();
    let job = cluster.client().unwrap().register_job("guard").unwrap();
    let kv = job.open_kv("live", &[], 1).unwrap();
    kv.put(b"current", b"state").unwrap();
    job.flush("live", "ckpt/1").unwrap();
    // Loading over the live structure would clobber it: refused.
    let err = job.load("live", "ckpt/1").unwrap_err();
    assert!(matches!(err, JiffyError::Internal(_)), "{err:?}");
    assert_eq!(kv.get(b"current").unwrap(), Some(b"state".to_vec()));
}

#[test]
fn missing_checkpoint_load_fails_cleanly() {
    let cluster = JiffyCluster::in_process(JiffyConfig::for_testing(), 1, 8).unwrap();
    let job = cluster.client().unwrap().register_job("nock").unwrap();
    job.create_addr_prefix("empty", &[]).unwrap();
    let err = job.load("empty", "ckpt/never-existed").unwrap_err();
    assert!(
        matches!(err, JiffyError::PersistentObjectMissing(_)),
        "{err:?}"
    );
}

#[test]
fn operations_on_removed_prefixes_fail_cleanly() {
    let cluster = JiffyCluster::in_process(JiffyConfig::for_testing(), 1, 8).unwrap();
    let job = cluster.client().unwrap().register_job("gone").unwrap();
    let kv = job.open_kv("t", &[], 1).unwrap();
    kv.put(b"k", b"v").unwrap();
    job.remove_addr_prefix("t").unwrap();
    // The handle's next op fails on resolve during its refresh.
    let err = kv.get(b"k").unwrap_err();
    assert!(
        matches!(
            err,
            JiffyError::PathNotFound(_) | JiffyError::UnknownBlock(_) | JiffyError::StaleMetadata
        ),
        "{err:?}"
    );
    // Renewing the lease of a removed prefix fails too.
    assert!(job.renew_lease("t").is_err());
}
