//! Tier-1 tests for the lease-guarded client metadata cache
//! (DESIGN.md §15): steady-state resolves never touch the controller,
//! a migration-staled entry costs exactly one refresh-retry, the view
//! epoch piggybacked on control responses invalidates lazily, and a
//! thundering herd of concurrent misses coalesces onto a single
//! resolve RPC.

use jiffy_sync::Arc;

use jiffy::cluster::JiffyCluster;
use jiffy::JiffyConfig;

fn cluster(servers: usize) -> JiffyCluster {
    JiffyCluster::in_process(JiffyConfig::for_testing(), servers, 8).unwrap()
}

#[test]
fn steady_state_resolves_are_cache_hits() {
    let cluster = cluster(2);
    let client = cluster.client().unwrap();
    let job = client.register_job("steady").unwrap();
    let kv = job.open_kv("state", &[], 2).unwrap();
    kv.put(b"k", b"v").unwrap();

    let cache = client.metadata_cache();
    job.resolve("state").unwrap(); // fill (or hit the open_kv fill)
    let resolves = cache.stats().resolves();
    let hits = cache.stats().hits();
    for _ in 0..50 {
        job.resolve("state").unwrap();
    }
    assert_eq!(
        cache.stats().resolves(),
        resolves,
        "steady-state resolves must not reach the controller"
    );
    assert_eq!(cache.stats().hits(), hits + 50);
    assert!(cache.stats().hit_ratio() > 0.9, "{:?}", cache.stats());
}

#[test]
fn migrated_block_costs_exactly_one_refresh_retry() {
    // Drain the server holding every block of the structure: the
    // client's cached chain is stale, the first op fails against the
    // gone endpoint, and the routing-retry loop must issue exactly one
    // fresh resolve (bypassing the cache), then succeed.
    let cluster = cluster(1);
    let client = cluster.client().unwrap();
    let job = client.register_job("migrate").unwrap();
    let kv = job.open_kv("state", &[], 2).unwrap();
    kv.put(b"k", b"v").unwrap();

    cluster.add_server(8).unwrap();
    let first = cluster
        .servers()
        .iter()
        .filter_map(|s| s.identity().map(|(id, _)| id))
        .min_by_key(|id| id.raw())
        .unwrap();
    cluster.drain_server(first).unwrap();

    let cache = client.metadata_cache();
    let resolves = cache.stats().resolves();
    assert_eq!(kv.get(b"k").unwrap(), Some(b"v".to_vec()));
    assert_eq!(
        cache.stats().resolves(),
        resolves + 1,
        "one migration = one refresh RPC"
    );
    // The refreshed view is cached again: further ops stay off the
    // controller.
    assert_eq!(kv.get(b"k").unwrap(), Some(b"v".to_vec()));
    assert_eq!(cache.stats().resolves(), resolves + 1);
}

#[test]
fn epoch_bump_on_control_response_invalidates_cached_views() {
    let cluster = cluster(2);
    let client = cluster.client().unwrap();
    let job = client.register_job("epoch").unwrap();
    job.create_addr_prefix("keep", &[]).unwrap();
    job.create_addr_prefix("doomed", &[]).unwrap();

    let cache = client.metadata_cache();
    job.resolve("keep").unwrap();
    let resolves = cache.stats().resolves();
    job.resolve("keep").unwrap(); // cached
    assert_eq!(cache.stats().resolves(), resolves);

    // Removing a prefix changes placement: the controller bumps its
    // view epoch and stamps it on the removal's own response, which
    // this client observes — no extra invalidation RPC exists.
    let epoch_before = cache.current_epoch();
    job.remove_addr_prefix("doomed").unwrap();
    assert!(cache.current_epoch() > epoch_before, "epoch must advance");

    // The cached "keep" entry predates the new epoch: next resolve
    // misses and refills.
    job.resolve("keep").unwrap();
    assert_eq!(cache.stats().resolves(), resolves + 1);
    job.resolve("keep").unwrap();
    assert_eq!(
        cache.stats().resolves(),
        resolves + 1,
        "refilled and cached"
    );
}

#[test]
fn concurrent_misses_coalesce_into_one_resolve_rpc() {
    let cluster = cluster(2);
    let client = Arc::new(cluster.client().unwrap());
    let job = client.register_job("herd").unwrap();
    job.create_addr_prefix("hot", &[]).unwrap();

    let cache = client.metadata_cache();
    let resolves = cache.stats().resolves();
    let barrier = Arc::new(jiffy_sync::Barrier::new(32));
    std::thread::scope(|s| {
        for _ in 0..32 {
            let job = job.clone();
            let barrier = barrier.clone();
            s.spawn(move || {
                barrier.wait();
                job.resolve("hot").unwrap();
            });
        }
    });
    assert_eq!(
        cache.stats().resolves(),
        resolves + 1,
        "32 concurrent misses must coalesce into a single resolve RPC"
    );
    // Every thread got an answer; only the leader paid the round-trip.
    assert!(cache.stats().misses() >= 1);
    let hits = cache.stats().hits();
    job.resolve("hot").unwrap();
    assert_eq!(cache.stats().hits(), hits + 1);
}

/// A crash + restart of the whole control plane must move the view
/// epoch forward, for any shard count: a client whose cache already saw
/// epoch E treats every entry stamped below E as stale, so an epoch that
/// restarted from zero would silently turn the cache off for good.
#[test]
fn whole_plane_restart_moves_the_epoch_forward_and_the_cache_still_hits() {
    for shards in [1, 2] {
        let cluster = JiffyCluster::build_with_shards(
            JiffyConfig::for_testing().with_lease_duration(std::time::Duration::from_secs(120)),
            2,
            8,
            jiffy_common::clock::SystemClock::shared(),
            Arc::new(jiffy_persistent::MemObjectStore::new()),
            true,
            false,
            shards,
        )
        .unwrap();
        let client = cluster.client().unwrap();
        let job = client.register_job("restart").unwrap();
        job.create_addr_prefix("keep", &[]).unwrap();
        for i in 0..4 {
            let doomed = format!("doomed{i}");
            job.create_addr_prefix(&doomed, &[]).unwrap();
            job.remove_addr_prefix(&doomed).unwrap();
        }
        let before = cluster.sharded_controller().view_epoch();
        assert!(
            before >= 4,
            "{shards} shards: every removal bumps the epoch"
        );
        let cache = client.metadata_cache();
        assert_eq!(cache.current_epoch(), before);

        cluster.crash_controller();
        cluster.restart_controller().unwrap();
        assert!(
            cluster.sharded_controller().view_epoch() > before,
            "{shards} shards: the epoch regressed across the restart"
        );

        job.resolve("keep").unwrap(); // refill under the new epoch
        let (hits, resolves) = (cache.stats().hits(), cache.stats().resolves());
        job.resolve("keep").unwrap();
        assert_eq!(
            (cache.stats().hits(), cache.stats().resolves()),
            (hits + 1, resolves),
            "{shards} shards: the second resolve after a restart must be a cache hit"
        );
    }
}
