//! End-to-end integration: full clusters (control plane + data plane +
//! client library) over both transports, exercising all three data
//! structures the way analytics jobs do.

use jiffy::cluster::JiffyCluster;
use jiffy::JiffyConfig;

fn small_blocks() -> JiffyConfig {
    // 16 KB blocks so splits happen with modest data volumes.
    JiffyConfig::for_testing().with_block_size(16 * 1024)
}

#[test]
fn shuffle_files_support_many_writers_one_reader() {
    // The MR shuffle pattern of §5.1: several "map tasks" append records
    // to the same shuffle file; a "reduce task" scans it.
    let cluster = JiffyCluster::in_process(small_blocks(), 2, 32).unwrap();
    let job = cluster.client().unwrap().register_job("shuffle").unwrap();
    let file = jiffy_sync::Arc::new(job.open_file("shuffle-0", &[]).unwrap());

    let mut writers = Vec::new();
    for w in 0..4 {
        let f = file.clone();
        writers.push(std::thread::spawn(move || {
            for i in 0..50 {
                let record = format!("writer{w}:record{i};");
                f.append(record.as_bytes()).unwrap();
            }
        }));
    }
    for t in writers {
        t.join().unwrap();
    }

    let contents = String::from_utf8(file.read_all().unwrap()).unwrap();
    let records: Vec<&str> = contents.split(';').filter(|s| !s.is_empty()).collect();
    assert_eq!(records.len(), 200);
    // Every record arrived exactly once and intact.
    for w in 0..4 {
        for i in 0..50 {
            let needle = format!("writer{w}:record{i}");
            assert_eq!(
                records.iter().filter(|r| **r == needle).count(),
                1,
                "{needle}"
            );
        }
    }
    // The file outgrew one block (200 records x ~17 B > 16 KB high
    // watermark is not guaranteed, so check size only).
    assert_eq!(file.size().unwrap() as usize, contents.len());
}

#[test]
fn queue_pipeline_preserves_fifo_across_segments() {
    let cluster = JiffyCluster::in_process(small_blocks(), 2, 32).unwrap();
    let job = cluster.client().unwrap().register_job("pipeline").unwrap();
    let q = job.open_queue("channel", &[]).unwrap();

    // Enough items to force several tail links (16 KB segments, ~116 B
    // per item incl. overhead).
    let n = 1000;
    for i in 0..n {
        let item = format!("{i:06}-{}", "x".repeat(100));
        q.enqueue(item.as_bytes()).unwrap();
    }
    assert_eq!(q.len().unwrap(), n);
    for i in 0..n {
        let item = q.dequeue().unwrap().expect("item present");
        let got: u64 = std::str::from_utf8(item.split_at(6).0)
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(got, i, "FIFO order violated");
    }
    assert_eq!(q.dequeue().unwrap(), None);
    // The structure grew beyond one segment while full.
    assert!(cluster.controller().stats().splits >= 1);
}

#[test]
fn kv_store_survives_heavy_split_activity() {
    let cluster = JiffyCluster::in_process(small_blocks(), 2, 64).unwrap();
    let job = cluster.client().unwrap().register_job("kv-heavy").unwrap();
    let kv = job.open_kv("state", &[], 1).unwrap();

    // ~300 KB of pairs into 16 KB blocks: forces a cascade of splits.
    let n = 1000;
    for i in 0..n {
        kv.put(
            format!("key-{i}").as_bytes(),
            format!("value-{}", "y".repeat(250 + i % 7)).as_bytes(),
        )
        .unwrap();
    }
    let stats = cluster.controller().stats();
    assert!(
        stats.splits >= 5,
        "expected many splits, got {}",
        stats.splits
    );
    // Every key readable, every value intact.
    for i in 0..n {
        let v = kv.get(format!("key-{i}").as_bytes()).unwrap().unwrap();
        assert_eq!(v.len(), 6 + 250 + i % 7);
    }
    assert_eq!(kv.count().unwrap(), n as u64);
    // Overwrites and deletes still route correctly after the splits.
    kv.put(b"key-0", b"fresh").unwrap();
    assert_eq!(kv.get(b"key-0").unwrap(), Some(b"fresh".to_vec()));
    assert_eq!(kv.delete(b"key-1").unwrap().map(|v| v.len()), Some(257));
    assert_eq!(kv.get(b"key-1").unwrap(), None);
}

#[test]
fn tcp_cluster_runs_the_same_workload() {
    let cluster = JiffyCluster::over_tcp(small_blocks(), 2, 16).unwrap();
    let job = cluster.client().unwrap().register_job("tcp").unwrap();
    let kv = job.open_kv("state", &[], 1).unwrap();
    for i in 0..200 {
        kv.put(format!("k{i}").as_bytes(), vec![7u8; 200].as_slice())
            .unwrap();
    }
    for i in 0..200 {
        assert_eq!(
            kv.get(format!("k{i}").as_bytes()).unwrap(),
            Some(vec![7u8; 200])
        );
    }
    let q = job.open_queue("q", &[]).unwrap();
    q.enqueue(b"tcp works").unwrap();
    assert_eq!(q.dequeue().unwrap(), Some(b"tcp works".to_vec()));
}

#[test]
fn multi_put_and_multi_get_round_trip_across_splits() {
    // Batched KV ops against a store that splits under the load: the
    // client must regroup sub-batches per block as the layout changes,
    // splice results back in input order, and report previous values
    // exactly as the single-op path would.
    let cluster = JiffyCluster::in_process(small_blocks(), 2, 64).unwrap();
    let job = cluster
        .client()
        .unwrap()
        .register_job("kv-batched")
        .unwrap();
    let kv = job.open_kv("state", &[], 1).unwrap();

    let n = 600;
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..n)
        .map(|i| {
            (
                format!("key-{i}").into_bytes(),
                format!("value-{}", "y".repeat(250 + i % 7)).into_bytes(),
            )
        })
        .collect();
    let prevs = kv.multi_put(&pairs).unwrap();
    assert_eq!(prevs.len(), n);
    assert!(prevs.iter().all(Option::is_none), "keys were fresh");
    assert!(
        cluster.controller().stats().splits >= 1,
        "workload must exercise splits mid-batch"
    );

    // Overwrites report the replaced values, in input order.
    let overwrite: Vec<(Vec<u8>, Vec<u8>)> = (0..n)
        .map(|i| (format!("key-{i}").into_bytes(), b"fresh".to_vec()))
        .collect();
    let prevs = kv.multi_put(&overwrite).unwrap();
    for (i, prev) in prevs.iter().enumerate() {
        assert_eq!(
            prev.as_ref().map(Vec::len),
            Some(6 + 250 + i % 7),
            "key-{i}"
        );
    }

    // Batched reads see the overwrites; missing keys come back None.
    let mut keys: Vec<Vec<u8>> = (0..n).map(|i| format!("key-{i}").into_bytes()).collect();
    keys.push(b"no-such-key".to_vec());
    let values = kv.multi_get(&keys).unwrap();
    assert_eq!(values.len(), n + 1);
    assert!(values[..n]
        .iter()
        .all(|v| v.as_deref() == Some(&b"fresh"[..])));
    assert_eq!(values[n], None);
}

#[test]
fn enqueue_batch_preserves_fifo_across_segments() {
    let cluster = JiffyCluster::in_process(small_blocks(), 2, 32).unwrap();
    let job = cluster.client().unwrap().register_job("q-batched").unwrap();
    let q = job.open_queue("channel", &[]).unwrap();

    // Batches big enough that several land mid-segment-link.
    let n = 1000usize;
    let items: Vec<Vec<u8>> = (0..n)
        .map(|i| format!("{i:06}-{}", "x".repeat(100)).into_bytes())
        .collect();
    for chunk in items.chunks(25) {
        q.enqueue_batch(chunk).unwrap();
    }
    assert_eq!(q.len().unwrap(), n as u64);
    for i in 0..n {
        let item = q.dequeue().unwrap().expect("item present");
        assert_eq!(&item[..6], format!("{i:06}").as_bytes(), "FIFO violated");
    }
    assert_eq!(q.dequeue().unwrap(), None);
    assert!(cluster.controller().stats().splits >= 1);
}

#[test]
fn write_vectored_assembles_contiguous_files() {
    let cluster = JiffyCluster::in_process(small_blocks(), 2, 32).unwrap();
    let job = cluster
        .client()
        .unwrap()
        .register_job("file-batched")
        .unwrap();
    let file = job.open_file("out", &[]).unwrap();

    // Gathered buffers spanning several 16 KB chunks in one call.
    let bufs: Vec<Vec<u8>> = (0..5u8).map(|i| vec![b'a' + i; 10 * 1024]).collect();
    let refs: Vec<&[u8]> = bufs.iter().map(Vec::as_slice).collect();
    file.write_vectored(0, &refs).unwrap();

    let expected: Vec<u8> = bufs.concat();
    assert_eq!(file.size().unwrap() as usize, expected.len());
    assert_eq!(file.read_all().unwrap(), expected);

    // A second gathered write overlapping the tail extends the file.
    let tail = expected.len() as u64 - 1024;
    file.write_vectored(tail, &[&[b'z'; 2048]]).unwrap();
    let contents = file.read_all().unwrap();
    assert_eq!(contents.len(), expected.len() + 1024);
    assert!(contents[tail as usize..].iter().all(|&b| b == b'z'));
}

#[test]
fn batched_ops_work_over_tcp() {
    // The corked writer + waiter table under real sockets: batched calls
    // from several threads multiplex over the pooled connections.
    let cluster = JiffyCluster::over_tcp(small_blocks(), 2, 16).unwrap();
    let job = cluster
        .client()
        .unwrap()
        .register_job("tcp-batched")
        .unwrap();
    let kv = jiffy_sync::Arc::new(job.open_kv("state", &[], 1).unwrap());

    let mut threads = Vec::new();
    for t in 0..4 {
        let kv = kv.clone();
        threads.push(std::thread::spawn(move || {
            let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..100)
                .map(|i| {
                    (
                        format!("t{t}-k{i}").into_bytes(),
                        format!("t{t}-v{i}").into_bytes(),
                    )
                })
                .collect();
            kv.multi_put(&pairs).unwrap();
        }));
    }
    for th in threads {
        th.join().unwrap();
    }
    for t in 0..4 {
        let keys: Vec<Vec<u8>> = (0..100)
            .map(|i| format!("t{t}-k{i}").into_bytes())
            .collect();
        let values = kv.multi_get(&keys).unwrap();
        for (i, v) in values.into_iter().enumerate() {
            assert_eq!(v, Some(format!("t{t}-v{i}").into_bytes()));
        }
    }
}

#[test]
fn flush_and_load_round_trip_preserves_kv_contents() {
    let cluster = JiffyCluster::in_process(small_blocks(), 1, 16).unwrap();
    let job = cluster.client().unwrap().register_job("ckpt").unwrap();
    let kv = job.open_kv("model", &[], 1).unwrap();
    for i in 0..100 {
        kv.put(format!("w{i}").as_bytes(), format!("{}", i * i).as_bytes())
            .unwrap();
    }
    let bytes = job.flush("model", "s3://bucket/model-ckpt").unwrap();
    assert!(bytes > 0);

    // Drop the prefix entirely, recreate it bare, load the checkpoint.
    job.remove_addr_prefix("model").unwrap();
    job.create_addr_prefix("model", &[]).unwrap();
    job.load("model", "s3://bucket/model-ckpt").unwrap();

    let kv = job.open_kv("model", &[], 1).unwrap();
    for i in 0..100 {
        assert_eq!(
            kv.get(format!("w{i}").as_bytes()).unwrap(),
            Some(format!("{}", i * i).into_bytes()),
            "w{i}"
        );
    }
}

#[test]
fn hierarchy_addresses_resolve_via_multiple_paths() {
    let cluster = JiffyCluster::in_process(small_blocks(), 1, 16).unwrap();
    let job = cluster.client().unwrap().register_job("dag").unwrap();
    // Fig. 3's diamond: t1, t2 -> t5 -> t7; t3 -> t7.
    job.create_addr_prefix("t1", &[]).unwrap();
    job.create_addr_prefix("t2", &[]).unwrap();
    job.create_addr_prefix("t3", &[]).unwrap();
    job.create_addr_prefix("t5", &["t1", "t2"]).unwrap();
    let _kv = job.open_kv("t7", &["t5"], 1).unwrap();
    job.add_parent("t7", "t3").unwrap();

    for path in ["t7", "t5.t7", "t1.t5.t7", "t2.t5.t7", "t3.t7"] {
        let view = job.resolve(path).unwrap();
        assert_eq!(view.name, "t7", "path {path}");
        assert!(view.partition.is_some());
    }
    assert!(job.resolve("t1.t7").is_err(), "no such edge");

    let renewed = job.renew_lease("t5.t7").unwrap();
    // t7 + direct parents (t5, t3) + no descendants.
    let mut renewed_sorted = renewed.clone();
    renewed_sorted.sort();
    assert_eq!(renewed_sorted, vec!["t3", "t5", "t7"]);
}

#[test]
fn deregister_releases_all_capacity() {
    let cluster = JiffyCluster::in_process(small_blocks(), 1, 16).unwrap();
    let client = cluster.client().unwrap();
    let job = client.register_job("ephemeral").unwrap();
    let kv = job.open_kv("s", &[], 2).unwrap();
    for i in 0..200 {
        kv.put(format!("k{i}").as_bytes(), vec![1u8; 300].as_slice())
            .unwrap();
    }
    let before = client.stats().unwrap();
    assert!(before.free_blocks < 16);
    job.deregister().unwrap();
    let after = client.stats().unwrap();
    assert_eq!(after.free_blocks, 16);
    assert_eq!(cluster.used_bytes(), 0);
}

/// The shard per-root hashing would give hierarchy root `root` of
/// `job` on `n` shards (FNV-1a over the job id and the root name): the
/// routing rule before hierarchies were partitioned by job, under which
/// a DAG whose roots hash apart spanned shards.
fn per_root_shard(job: jiffy_common::JobId, root: &str, n: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in job.raw().to_le_bytes().iter().chain(root.as_bytes()) {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h % n as u64
}

#[test]
fn multi_parent_dag_works_at_every_shard_count() {
    use jiffy_proto::DagNodeSpec;
    // The diamond {r0, r1} -> join, once as one `create_hierarchy` and
    // once node by node, with roots that per-root hashing would have
    // put on different shards.
    for shards in [1, 2, 4] {
        let cluster = JiffyCluster::build_with_shards(
            JiffyConfig::for_testing(),
            4,
            8,
            jiffy_common::clock::SystemClock::shared(),
            jiffy_sync::Arc::new(jiffy_persistent::MemObjectStore::new()),
            false,
            false,
            shards,
        )
        .unwrap();
        let client = cluster.client().unwrap();
        for atomic in [true, false] {
            let job = client.register_job(&format!("diamond-{atomic}")).unwrap();
            let r0 = "r0".to_string();
            let r1 = (1..64)
                .map(|i| format!("r{i}"))
                .find(|r| {
                    shards == 1
                        || per_root_shard(job.id(), r, shards)
                            != per_root_shard(job.id(), &r0, shards)
                })
                .expect("63 names span the shards");
            if atomic {
                let node = |name: &str, parents: &[&str]| DagNodeSpec {
                    name: name.into(),
                    parents: parents.iter().map(ToString::to_string).collect(),
                    ds: None,
                    initial_blocks: 0,
                };
                job.create_hierarchy(vec![
                    node(&r0, &[]),
                    node(&r1, &[]),
                    node("join", &[&r0, &r1]),
                ])
                .unwrap();
            } else {
                job.create_addr_prefix(&r0, &[]).unwrap();
                job.create_addr_prefix(&r1, &[]).unwrap();
                job.create_addr_prefix("join", &[&r0]).unwrap();
                job.add_parent("join", &r1).unwrap();
            }
            for name in [&r0, &r1, &"join".to_string()] {
                let view = job.resolve_fresh(name);
                assert!(
                    view.is_ok(),
                    "{shards} shards, atomic {atomic}: {name}: {view:?}"
                );
            }
            for root in [&r0, &r1] {
                let renewed = job.renew_lease(root).unwrap();
                assert!(
                    renewed.contains(&"join".to_string()),
                    "{shards} shards, atomic {atomic}: renewing {root} reached {renewed:?}"
                );
            }
        }
    }
}
