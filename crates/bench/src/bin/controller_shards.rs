//! Sharded control plane + client metadata cache (DESIGN.md §15):
//! control-plane ops/s at 1/2/4/8 controller shards, resolve latency
//! with a cold vs warm client cache, and the steady-state cache hit
//! ratio.
//!
//! Shard scaling follows the Fig. 12(b) methodology: this host has one
//! core, so each shard's throughput is measured in isolation (driving
//! real routed requests through the `ShardedController`) and the
//! aggregate is the sum — valid exactly because shards share no state.
//!
//! Results go to `BENCH_controller.json` at the repo root (or
//! `target/BENCH_controller.quick.json` when `JIFFY_BENCH_QUICK=1`, so
//! smoke runs never overwrite checked-in measurements).
//!
//! Run: `cargo run --release -p jiffy-bench --bin controller_shards`

use std::time::{Duration, Instant};

use jiffy::cluster::JiffyCluster;
use jiffy_bench::{fmt_dur, percentile};
use jiffy_common::clock::SystemClock;
use jiffy_common::{JiffyConfig, JobId};
use jiffy_controller::{NoopDataPlane, ShardedController};
use jiffy_persistent::MemObjectStore;
use jiffy_proto::{ControlRequest, ControlResponse};
use jiffy_sync::Arc;

fn quick() -> bool {
    std::env::var("JIFFY_BENCH_QUICK").is_ok_and(|v| v != "0")
}

fn router(shards: u32) -> ShardedController {
    ShardedController::build(
        JiffyConfig::default(),
        SystemClock::shared(),
        Arc::new(NoopDataPlane),
        Arc::new(MemObjectStore::new()),
        shards,
    )
    .unwrap()
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

/// Registers one job through the router and gives it `prefixes` lease
/// roots. Untracked registrations go round-robin over the shards, so
/// `n` calls on an `n`-shard router seed one job per shard.
fn seed_job(sc: &ShardedController, prefixes: usize) -> (JobId, Vec<String>) {
    let job = register(sc, "load");
    let names: Vec<String> = (0..prefixes).map(|k| format!("r{k}")).collect();
    for name in &names {
        sc.dispatch(ControlRequest::CreatePrefix {
            job,
            name: name.clone(),
            parents: vec![],
            ds: None,
            initial_blocks: 0,
        })
        .unwrap();
    }
    (job, names)
}

/// The paper's control-plane mix (Fig. 12): mostly lease renewals plus
/// address resolution, issued through the shard router.
fn one_op(sc: &ShardedController, job: JobId, names: &[String], i: u64) {
    let name = names[(i as usize) % names.len()].clone();
    let req = match i % 4 {
        0 => ControlRequest::ResolvePrefix { job, name },
        _ => ControlRequest::RenewLease { job, name },
    };
    sc.dispatch(req).unwrap();
}

struct ScalePoint {
    shards: usize,
    per_shard: Vec<f64>,
    aggregate: f64,
}

fn measure_scaling(window: Duration) -> Vec<ScalePoint> {
    println!("=== control-plane ops/s vs shard count (routed requests) ===");
    println!(
        "{:<8} {:>16} {:>18}",
        "shards", "min per-shard", "aggregate op/s"
    );
    let mut points = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let sc = router(shards as u32);
        let slices: Vec<(JobId, Vec<String>)> = (0..shards).map(|_| seed_job(&sc, 4)).collect();
        let mut per_shard = Vec::with_capacity(shards);
        for (job, names) in &slices {
            assert_eq!(
                sc.shard_map().shard_of_job(*job) as usize,
                per_shard.len(),
                "one job per shard"
            );
            let mut ops = 0u64;
            let t0 = Instant::now();
            while t0.elapsed() < window {
                one_op(&sc, *job, names, ops);
                ops += 1;
            }
            per_shard.push(ops as f64 / t0.elapsed().as_secs_f64());
        }
        let min = per_shard.iter().copied().fold(f64::INFINITY, f64::min);
        let aggregate: f64 = per_shard.iter().sum();
        println!("{shards:<8} {min:>13.0} op/s {aggregate:>15.0}");
        points.push(ScalePoint {
            shards,
            per_shard,
            aggregate,
        });
    }
    points
}

struct CacheNumbers {
    uncached: Vec<Duration>,
    cached: Vec<Duration>,
    hit_ratio: f64,
}

fn measure_cache(samples: usize) -> CacheNumbers {
    // A real sharded cluster: 4 controller shards behind the routing
    // endpoint, clients resolving through the lease-guarded cache. The
    // long lease keeps TTL expiry out of the steady-state measurement.
    let cluster = JiffyCluster::build_with_shards(
        JiffyConfig::for_testing().with_lease_duration(Duration::from_secs(600)),
        4,
        8,
        SystemClock::shared(),
        Arc::new(MemObjectStore::new()),
        false,
        false,
        4,
    )
    .unwrap();
    let client = cluster.client().unwrap();
    let job = client.register_job("cachebench").unwrap();
    const PREFIXES: usize = 8;
    for i in 0..PREFIXES {
        job.create_addr_prefix(&format!("t{i}"), &[]).unwrap();
    }
    let cache = client.metadata_cache();

    // Cold path: every resolve bypasses and refills the cache — the
    // pre-cache behavior, one controller round-trip per lookup.
    let mut uncached = Vec::with_capacity(samples);
    for i in 0..samples {
        let t0 = Instant::now();
        job.resolve_fresh(&format!("t{}", i % PREFIXES)).unwrap();
        uncached.push(t0.elapsed());
    }

    // Warm path: steady-state resolves served from the cache.
    for i in 0..PREFIXES {
        job.resolve(&format!("t{i}")).unwrap();
    }
    let hits0 = cache.stats().hits();
    let misses0 = cache.stats().misses();
    let mut cached = Vec::with_capacity(samples);
    for i in 0..samples {
        let t0 = Instant::now();
        job.resolve(&format!("t{}", i % PREFIXES)).unwrap();
        cached.push(t0.elapsed());
    }
    let hits = cache.stats().hits() - hits0;
    let misses = cache.stats().misses() - misses0;
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    CacheNumbers {
        uncached,
        cached,
        hit_ratio,
    }
}

fn main() {
    let window = if quick() {
        Duration::from_millis(50)
    } else {
        Duration::from_millis(300)
    };
    let samples = if quick() { 300 } else { 3000 };

    let points = measure_scaling(window);
    let agg1 = points
        .iter()
        .find(|p| p.shards == 1)
        .map_or(1.0, |p| p.aggregate);
    let agg4 = points
        .iter()
        .find(|p| p.shards == 4)
        .map_or(0.0, |p| p.aggregate);
    let scaling_1_to_4 = agg4 / agg1;
    println!("1 -> 4 shard scaling: {scaling_1_to_4:.2}x (target >= 2.5x)");

    println!("\n=== client resolve latency: cold vs lease-guarded cache ===");
    let mut cache = measure_cache(samples);
    let un_p50 = percentile(&mut cache.uncached, 50.0);
    let un_p99 = percentile(&mut cache.uncached, 99.0);
    let ca_p50 = percentile(&mut cache.cached, 50.0);
    let ca_p99 = percentile(&mut cache.cached, 99.0);
    println!(
        "uncached (every resolve -> controller): p50={} p99={}",
        fmt_dur(un_p50),
        fmt_dur(un_p99)
    );
    println!(
        "cached   (steady state, {} lookups):    p50={} p99={}",
        samples,
        fmt_dur(ca_p50),
        fmt_dur(ca_p99)
    );
    println!(
        "steady-state cache hit ratio: {:.4} (target >= 0.90)",
        cache.hit_ratio
    );

    // --- Machine-readable output ---
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"controller_shards\",\n");
    json.push_str(&format!("  \"quick\": {},\n", quick()));
    json.push_str("  \"shard_scaling\": [\n");
    for (i, p) in points.iter().enumerate() {
        let per: Vec<String> = p.per_shard.iter().map(|o| format!("{o:.0}")).collect();
        json.push_str(&format!(
            "    {{\"shards\": {}, \"per_shard_ops_per_s\": [{}], \"aggregate_ops_per_s\": {:.0}}}{}\n",
            p.shards,
            per.join(", "),
            p.aggregate,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"scaling_1_to_4\": {scaling_1_to_4:.2},\n"));
    json.push_str(&format!(
        "  \"resolve\": {{\"uncached_p50_us\": {:.1}, \"uncached_p99_us\": {:.1}, \"cached_p50_us\": {:.1}, \"cached_p99_us\": {:.1}, \"samples\": {samples}}},\n",
        un_p50.as_secs_f64() * 1e6,
        un_p99.as_secs_f64() * 1e6,
        ca_p50.as_secs_f64() * 1e6,
        ca_p99.as_secs_f64() * 1e6,
    ));
    json.push_str(&format!(
        "  \"cache_hit_ratio\": {:.4}\n}}\n",
        cache.hit_ratio
    ));

    // Quick (smoke-gate) runs produce throwaway numbers; keep them out
    // of the checked-in measurement file.
    let path = if quick() {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_controller.quick.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_controller.json")
    };
    std::fs::write(path, json).unwrap();
    println!("\nwrote {path}");
}
