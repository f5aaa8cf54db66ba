//! Fig. 11(b) — efficient elastic scaling via flexible data
//! repartitioning: (left) CDF of per-block repartition latency for the
//! three structures, measured from overload detection to repartition
//! completion; (right) latency of 100 KB KV gets before vs during
//! repartitioning (repartitioning must not block the data path).
//!
//! Run: `cargo run --release -p jiffy-bench --bin fig11b_repartition`

use jiffy_sync::atomic::{AtomicBool, Ordering};
use jiffy_sync::Arc;
use std::time::{Duration, Instant};

use jiffy::cluster::JiffyCluster;
use jiffy::JiffyConfig;
use jiffy_bench::print_cdf;
use jiffy_common::clock::SystemClock;
use jiffy_persistent::MemObjectStore;
use jiffy_proto::{ControlRequest, PartitionView};

/// Block size for the repartition measurement: splits move half a
/// block, mirroring the paper's "repartitioning a single block moves
/// ~half the block capacity".
const BLOCK: usize = 4 << 20;

fn main() {
    // High threshold at 99 % so the harness controls when splits fire.
    let cfg = JiffyConfig::default()
        .with_block_size(BLOCK)
        .with_thresholds(0.01, 0.99);
    // No expiry worker: this harness measures repartitioning, not
    // lifetime management, and must not race lease reclamation.
    let cluster = JiffyCluster::build_with_shards(
        cfg,
        2,
        32,
        SystemClock::shared(),
        Arc::new(MemObjectStore::new()),
        false,
        false,
        1,
    )
    .unwrap();
    let client = cluster.client().unwrap();
    let job = client.register_job("fig11b").unwrap();

    println!("=== Fig. 11(b) left: repartition latency per block ===");
    // KV: fill one block to ~70 %, then trigger the overload path and
    // time detection->completion (the controller orchestrates the
    // split synchronously, so the control call spans exactly that).
    let mut kv_lat = Vec::new();
    for round in 0..30 {
        let name = format!("kv-{round}");
        let kv = job.open_kv(&name, &[], 1).unwrap();
        let value = vec![0x7Fu8; 64 * 1024];
        for i in 0..44 {
            // ~2.8 MB of 64 KB values.
            kv.put(format!("k{i}").as_bytes(), &value).unwrap();
        }
        let view = job.resolve(&name).unwrap();
        let block = view.partition.unwrap().blocks()[0].id();
        let t0 = Instant::now();
        client
            .control(ControlRequest::ReportOverload { block, used: 0 })
            .unwrap();
        kv_lat.push(t0.elapsed());
        job.remove_addr_prefix(&name).unwrap();
    }
    // File and queue: metadata-only splits (no data moves).
    let mut file_lat = Vec::new();
    for round in 0..30 {
        let name = format!("f-{round}");
        let f = job.open_file(&name, &[]).unwrap();
        f.append(&vec![1u8; 1 << 20]).unwrap();
        let view = job.resolve(&name).unwrap();
        let block = view.partition.unwrap().blocks()[0].id();
        let t0 = Instant::now();
        client
            .control(ControlRequest::ReportOverload { block, used: 0 })
            .unwrap();
        file_lat.push(t0.elapsed());
        job.remove_addr_prefix(&name).unwrap();
    }
    let mut queue_lat = Vec::new();
    for round in 0..30 {
        let name = format!("q-{round}");
        let q = job.open_queue(&name, &[]).unwrap();
        q.enqueue(&vec![1u8; 1 << 20]).unwrap();
        let view = job.resolve(&name).unwrap();
        let tail = view.partition.unwrap().blocks().last().unwrap().id();
        let t0 = Instant::now();
        client
            .control(ControlRequest::ReportOverload {
                block: tail,
                used: 0,
            })
            .unwrap();
        queue_lat.push(t0.elapsed());
        job.remove_addr_prefix(&name).unwrap();
    }
    print_cdf("FIFO Queue (link tail)", &mut queue_lat);
    print_cdf("File (append chunk)", &mut file_lat);
    print_cdf("KV-Store (move 1/2 slots)", &mut kv_lat);

    println!("\n=== Fig. 11(b) right: 100 KB gets before vs during repartitioning ===");
    let kv = Arc::new(job.open_kv("live", &[], 1).unwrap());
    let value = vec![0x11u8; 100 * 1024];
    for i in 0..20 {
        kv.put(format!("hot{i}").as_bytes(), &value).unwrap();
    }
    // Baseline: gets with no repartitioning.
    let mut before = Vec::new();
    for i in 0..2000 {
        let key = format!("hot{}", i % 20);
        let t0 = Instant::now();
        kv.get(key.as_bytes()).unwrap().unwrap();
        before.push(t0.elapsed());
    }
    // During: a background thread keeps splitting/merging the store's
    // blocks while the foreground measures gets.
    let busy = Arc::new(AtomicBool::new(true));
    let splitting = Arc::new(AtomicBool::new(false));
    let b2 = busy.clone();
    let s2 = splitting.clone();
    let job2 = job.clone();
    let client2 = cluster.client().unwrap();
    let churn = std::thread::spawn(move || {
        while b2.load(Ordering::SeqCst) {
            let view = job2.resolve("live").unwrap();
            let Some(PartitionView::Kv { slots, .. }) = view.partition else {
                break;
            };
            // Split the fullest-range block, then let the underload
            // path merge things back; loop.
            let target = slots
                .iter()
                .max_by_key(|s| s.hi - s.lo)
                .map(|s| s.location.id());
            if let Some(block) = target {
                s2.store(true, Ordering::SeqCst);
                let _ = client2.control(ControlRequest::ReportOverload { block, used: 0 });
                s2.store(false, Ordering::SeqCst);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    });
    let mut during = Vec::new();
    let t_end = Instant::now() + Duration::from_secs(2);
    let mut i = 0u64;
    while Instant::now() < t_end {
        let key = format!("hot{}", i % 20);
        i += 1;
        let t0 = Instant::now();
        kv.get(key.as_bytes()).unwrap().unwrap();
        during.push(t0.elapsed());
    }
    busy.store(false, Ordering::SeqCst);
    churn.join().unwrap();
    print_cdf("get 100KB (before)", &mut before);
    print_cdf("get 100KB (during)", &mut during);
    println!(
        "\nsplits executed during measurement: {}",
        cluster.controller().stats().splits
    );
}
