//! Liveness of two replication chains that run in opposite directions.
//!
//! A chain head forwards each write to its successor with a synchronous
//! call made from one of the server's RPC pool workers. With two
//! 2-replica stores whose heads sit on opposite servers (A→B and B→A)
//! and a two-worker pool, every worker on both servers can end up
//! parked in such a forward, each waiting for a worker on the other
//! server — until the call deadline frees them. This test drives
//! exactly that shape over TCP and requires every write to finish in
//! well under a second.

use std::time::{Duration, Instant};

use jiffy::cluster::JiffyCluster;
use jiffy::JiffyConfig;
use jiffy_common::clock::SystemClock;
use jiffy_persistent::MemObjectStore;
use jiffy_sync::Arc;

/// How long each writer keeps writing.
const RUN: Duration = Duration::from_secs(2);
/// Writers per store.
const WRITERS: usize = 2;
/// The slowest write any writer may see.
const BOUND: Duration = Duration::from_secs(1);

#[test]
#[ignore = "opposed-chain stall, ROADMAP transport (c)"]
fn writes_on_opposed_chains_never_stall() {
    jiffy_common::set_rpc_workers(2);
    let cfg = JiffyConfig::for_testing().with_chain_length(2);
    // Server A contributes two blocks, server B eight, so the free list
    // can be steered: the first store takes A's first block as head and
    // B's first as tail; a scratch store takes the next pair and gives
    // it back (head first, to the back of the list); the second store
    // then starts from B's free blocks and picks A's returned block as
    // the other replica.
    let cluster = JiffyCluster::build_with_shards(
        cfg,
        1,
        2,
        SystemClock::shared(),
        Arc::new(MemObjectStore::new()),
        false,
        true,
        1,
    )
    .expect("cluster");
    cluster.add_server(8).expect("second server");
    let job = cluster
        .client()
        .expect("client")
        .register_job("opposed")
        .expect("job");
    let forward = job.open_kv("forward", &[], 1).expect("forward store");
    job.open_kv("scratch", &[], 1).expect("scratch store");
    job.remove_addr_prefix("scratch")
        .expect("give the pair back");
    let backward = job.open_kv("backward", &[], 1).expect("backward store");

    let head_and_tail = |name: &str| {
        let view = job.resolve(name).expect("resolve");
        let loc = view.partition.expect("kv").blocks()[0].clone();
        (loc.head().server, loc.tail().server)
    };
    let (f_head, f_tail) = head_and_tail("forward");
    let (b_head, b_tail) = head_and_tail("backward");
    assert_ne!(f_head, f_tail, "forward chain spans both servers");
    assert_eq!((b_head, b_tail), (f_tail, f_head), "chains run opposite");

    let stores = [&forward, &backward];
    let worst = std::thread::scope(|s| {
        let writers: Vec<_> = (0..2 * WRITERS)
            .map(|w| {
                let kv = stores[w % 2];
                s.spawn(move || {
                    let value = vec![w as u8; 256];
                    let (begun, mut worst, mut i) = (Instant::now(), Duration::ZERO, 0u32);
                    while begun.elapsed() < RUN {
                        let key = format!("w{w}-k{}", i % 16);
                        let at = Instant::now();
                        let put = kv.put(key.as_bytes(), &value);
                        worst = worst.max(at.elapsed());
                        if let Err(e) = put {
                            // A write that gave up is as stalled as it
                            // gets; its time already counts.
                            eprintln!("writer {w}: put failed after {:?}: {e}", at.elapsed());
                            break;
                        }
                        i += 1;
                    }
                    worst
                })
            })
            .collect();
        writers
            .into_iter()
            .map(|w| w.join().expect("writer"))
            .max()
            .unwrap_or_default()
    });
    assert!(worst < BOUND, "slowest write took {worst:?}");
}
