//! Lease lifetime management (§3.2) under a manual clock: renewal
//! propagation, expiry-flush-reclaim, and recovery of a failed task's
//! data by its dependents.

use jiffy_sync::Arc;
use std::time::Duration;

use jiffy::cluster::JiffyCluster;
use jiffy::JiffyConfig;
use jiffy_common::clock::ManualClock;
use jiffy_persistent::{MemObjectStore, ObjectStore};

fn manual_cluster() -> (JiffyCluster, Arc<ManualClock>, Arc<MemObjectStore>) {
    let (clock, shared) = ManualClock::shared();
    let store = Arc::new(MemObjectStore::new());
    let cluster = JiffyCluster::build_with_shards(
        JiffyConfig::for_testing().with_block_size(16 * 1024),
        1,
        16,
        shared,
        store.clone(),
        false, // expiry driven manually
        false,
        1,
    )
    .unwrap();
    (cluster, clock, store)
}

#[test]
fn expired_prefix_is_flushed_then_reclaimed() {
    let (cluster, clock, store) = manual_cluster();
    let client = cluster.client().unwrap();
    let job = client.register_job("expiring").unwrap();
    let kv = job.open_kv("task1", &[], 1).unwrap();
    for i in 0..50 {
        kv.put(format!("k{i}").as_bytes(), b"v").unwrap();
    }
    let live_bytes = cluster.used_bytes();
    assert!(live_bytes > 0);

    // Let the lease (1 s) lapse without renewal.
    clock.advance(Duration::from_secs(3));
    let expired = cluster.controller().run_expiry_once();
    assert_eq!(expired.len(), 1);
    assert_eq!(cluster.used_bytes(), 0, "memory reclaimed");
    // Data survived in the persistent tier under the auto path.
    let auto_path = format!("jiffy-expired/{}/task1", job.id().raw());
    assert!(store.exists(&auto_path));

    // The dependent task reloads it explicitly.
    job.load("task1", &auto_path).unwrap();
    let kv = job.open_kv("task1", &[], 1).unwrap();
    assert_eq!(kv.get(b"k7").unwrap(), Some(b"v".to_vec()));
}

#[test]
fn renewal_of_a_child_keeps_the_parents_data_alive() {
    // Paper Fig. 5: while T7 renews, its parents' data stays in memory
    // even if the parent task died.
    let (cluster, clock, _) = manual_cluster();
    let job = cluster.client().unwrap().register_job("dag").unwrap();
    let parent_kv = job.open_kv("producer", &[], 1).unwrap();
    parent_kv.put(b"output", b"precious").unwrap();
    let _child = job.open_kv("consumer", &["producer"], 1).unwrap();

    // The producer task is dead; only the consumer renews, repeatedly.
    for _ in 0..5 {
        clock.advance(Duration::from_millis(800));
        job.renew_lease("consumer").unwrap();
        assert!(cluster.controller().run_expiry_once().is_empty());
    }
    // Parent data still readable from memory.
    assert_eq!(
        parent_kv.get(b"output").unwrap(),
        Some(b"precious".to_vec())
    );

    // Once the consumer also stops renewing, both expire.
    clock.advance(Duration::from_secs(3));
    let expired = cluster.controller().run_expiry_once();
    assert_eq!(expired.len(), 2);
}

#[test]
fn renewal_does_not_keep_siblings_alive() {
    let (cluster, clock, _) = manual_cluster();
    let job = cluster.client().unwrap().register_job("sib").unwrap();
    let _a = job.open_kv("task-a", &[], 1).unwrap();
    let _b = job.open_kv("task-b", &[], 1).unwrap();
    clock.advance(Duration::from_millis(900));
    job.renew_lease("task-a").unwrap();
    clock.advance(Duration::from_millis(500));
    // task-b's lease (stamped at creation) has lapsed; task-a's has not.
    let expired = cluster.controller().run_expiry_once();
    assert_eq!(expired.len(), 1);
    assert_eq!(expired[0].1, "task-b");
}

#[test]
fn lease_duration_is_queryable() {
    let (cluster, _clock, _) = manual_cluster();
    let job = cluster.client().unwrap().register_job("q").unwrap();
    job.create_addr_prefix("t", &[]).unwrap();
    assert_eq!(job.lease_duration("t").unwrap(), Duration::from_secs(1));
}

#[test]
fn background_renewer_keeps_prefixes_alive_under_system_clock() {
    // Real clock + real expiry worker: the renewer must win the race.
    let cfg = JiffyConfig::for_testing().with_lease_duration(Duration::from_millis(300));
    let cluster = JiffyCluster::in_process(cfg, 1, 8).unwrap();
    let job = cluster.client().unwrap().register_job("live").unwrap();
    let kv = job.open_kv("hot", &[], 1).unwrap();
    kv.put(b"k", b"v").unwrap();
    let mut renewer = job.start_lease_renewer(vec!["hot".to_string()], Duration::from_millis(50));
    std::thread::sleep(Duration::from_millis(900));
    // Still alive despite 3 lease periods elapsing.
    assert_eq!(kv.get(b"k").unwrap(), Some(b"v".to_vec()));
    assert!(renewer.renewals() >= 10);
    renewer.stop();
    // Without renewal it expires shortly.
    std::thread::sleep(Duration::from_millis(900));
    assert_eq!(cluster.used_bytes(), 0);
}

#[test]
fn stopping_a_renewer_does_not_wait_out_its_interval() {
    let cluster = JiffyCluster::in_process(JiffyConfig::for_testing(), 1, 8).unwrap();
    let job = cluster.client().unwrap().register_job("prompt").unwrap();
    job.open_kv("hot", &[], 1).unwrap();
    let long = Duration::from_secs(30);
    for explicit_stop in [true, false] {
        let mut renewer = job.start_lease_renewer(vec!["hot".to_string()], long);
        // The first renewal is immediate, not one interval away.
        let begun = std::time::Instant::now();
        while renewer.renewals() == 0 {
            assert!(begun.elapsed() < Duration::from_secs(5), "no first renewal");
            std::thread::sleep(Duration::from_millis(1));
        }
        // The renewer is now inside its 30 s wait.
        let begun = std::time::Instant::now();
        if explicit_stop {
            renewer.stop();
            assert_eq!(renewer.renewals(), 1);
        }
        drop(renewer);
        assert!(
            begun.elapsed() < Duration::from_secs(1),
            "stop waited {:?} of a 30 s interval",
            begun.elapsed()
        );
    }
}

#[test]
fn renewer_ticks_once_per_interval_and_follows_track_untrack() {
    let cluster = JiffyCluster::in_process(JiffyConfig::for_testing(), 1, 8).unwrap();
    let job = cluster.client().unwrap().register_job("ticking").unwrap();
    job.open_kv("a", &[], 1).unwrap();
    job.open_kv("b", &[], 1).unwrap();
    let interval = Duration::from_millis(50);
    let renewer = job.start_lease_renewer(vec!["a".to_string()], interval);
    std::thread::sleep(5 * interval);
    // One renewal at start plus one per elapsed interval: 6 on an idle
    // host, fewer if ticks ran late, never a burst.
    let ticks = renewer.renewals();
    assert!((4..=8).contains(&ticks), "{ticks} renewals in 5 intervals");

    // A tracked prefix is renewed from the next tick on: two per tick.
    renewer.track("b");
    let before = renewer.renewals();
    std::thread::sleep(3 * interval);
    let both = renewer.renewals() - before;
    assert!(
        (4..=8).contains(&both),
        "{both} renewals of 2 prefixes in 3 intervals"
    );

    // With nothing tracked the loop keeps ticking but renews nothing.
    renewer.untrack("a");
    renewer.untrack("b");
    std::thread::sleep(2 * interval);
    let before = renewer.renewals();
    std::thread::sleep(3 * interval);
    assert_eq!(renewer.renewals(), before);
}
