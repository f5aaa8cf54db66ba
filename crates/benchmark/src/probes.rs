//! Outside-in layer probes: what each layer costs, measured by calling
//! its public functions directly with the workload's own ops.
//!
//! An op loop against the whole cluster cannot say how a `get` splits
//! between codec, transport, server and block. Tracing *inside* the
//! program is a later change (ROADMAP `jiffy-metrics`), so the layers
//! are peeled from outside instead, Netherite-style (queue / log / store):
//!
//! | layer | how it is called |
//! |---|---|
//! | `proto` | `to_bytes_into` + `encode_frame`, `FrameAssembler` + `from_bytes` on the op mix's request/response envelopes |
//! | `rpc` | a no-op [`Service`] behind `serve_tcp` and `InprocHub`, called through `Fabric::connect(..).call(..)` |
//! | `server` | `Service::handle` on a `cluster.servers()` entry, unreplicated and on a 2-replica chain head |
//! | `block`, `cuckoo`, `ds` | `Block::execute` / `replay_record` on a harness-built partition, `CuckooMap` at the workload's sizes |
//! | `client` | the same ops through client handles on a `tcp = false` cluster; what is left of the end-to-end p50 |
//! | `controller` | the control sequence one job issues, call by call, over TCP and in-process, with the journal counted by the store decorator |
//!
//! Pure functions are timed for a fixed duration; anything that mutates a
//! block is timed for a fixed count, so blocks never fill.

use std::time::{Duration, Instant};

use jiffy_block::{Block, PartitionRegistry};
use jiffy_client::{FileClient, JobClient, KvClient};
use jiffy_common::{BlockId, JiffyError, Result, TenantId};
use jiffy_cuckoo::CuckooMap;
use jiffy_ds::KvParams;
use jiffy_proto::{
    encode_frame, from_bytes, to_bytes_into, Blob, BlockLocation, DataRequest, DataResponse, DsOp,
    Envelope, FrameAssembler, CLIENT_RID_BASE,
};
use jiffy_rpc::tcp::serve_tcp;
use jiffy_rpc::{ClientConn, Fabric, InprocHub, Service, SessionHandle};
use jiffy_sync::Arc;

use crate::host::Epoch;
use crate::load::{boot, Bench, Shape};
use crate::stats::percentile;
use crate::workloads::{OpMix, Workload, NO_EXPIRY};

/// A probe's result: metric name, value, samples under it.
pub type Reading = (&'static str, f64, usize);

/// Per-call µs samples of the control probe, by metric name.
type CallTimes = Vec<(&'static str, Vec<f64>)>;

/// End-to-end p50s of the same run, for `client.unattributed_*`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// p50 of the read-side client calls of the untraced window, where
    /// the workload times single calls.
    pub read_p50_us: Option<f64>,
    /// p50 of its write-side client calls.
    pub write_p50_us: Option<f64>,
}

/// Request ids the probes stamp: in the client range (never the bare
/// `0` of internal traffic), far above anything a client handle mints.
const PROBE_RID_BASE: u64 = CLIENT_RID_BASE + (1 << 40);

/// How long and how many.
#[derive(Debug, Clone, Copy)]
struct Budget {
    /// Duration of each time-bounded probe.
    slice: Duration,
    /// Iterations of each count-bounded probe on a live server.
    server_ops: u64,
    /// Iterations of each count-bounded probe on a harness-built block.
    block_ops: u64,
    /// Control sequences (jobs) issued.
    jobs: usize,
}

impl Budget {
    fn of(smoke: bool) -> Self {
        if smoke {
            Self {
                slice: Duration::from_millis(20),
                server_ops: 64,
                block_ops: 256,
                jobs: 3,
            }
        } else {
            Self {
                slice: Duration::from_millis(300),
                server_ops: 4_000,
                block_ops: 20_000,
                jobs: 40,
            }
        }
    }
}

fn data_req(rid: u64, req: DataRequest) -> Envelope {
    Envelope::DataReq {
        id: rid,
        req,
        tenant: TenantId::ANONYMOUS,
    }
}

fn op_req(rid: u64, block: BlockId, op: DsOp) -> Envelope {
    data_req(rid, DataRequest::Op { block, op })
}

fn payload_bytes(op: &DsOp) -> usize {
    op.ingress_bytes() as usize
}

/// Runs `f` repeatedly for `slice`; returns mean ns per call and calls.
fn time_bounded(slice: Duration, mut f: impl FnMut()) -> (f64, usize) {
    let t0 = Instant::now();
    let mut calls = 0usize;
    while t0.elapsed() < slice {
        for _ in 0..16 {
            f();
        }
        calls += 16;
    }
    (t0.elapsed().as_nanos() as f64 / calls as f64, calls)
}

/// A harness-built block holding one partition of the workload's
/// structure, primed with the op mix's first `span` writes.
fn harness_block(mix: &OpMix) -> Result<Block> {
    let mut registry = PartitionRegistry::new();
    jiffy_ds::register_builtins(&mut registry);
    let params = if mix.ds == "kv_store" {
        jiffy_ds::params::encode_params(&KvParams {
            ranges: vec![(0, 1023)],
            num_slots: 1024,
        })?
    } else {
        Vec::new()
    };
    // Capacity is a limit, not an allocation: large enough that no
    // count-bounded probe reaches a threshold.
    let capacity = 1 << 30;
    let mut block = Block::new(BlockId(1), capacity, 0, capacity);
    block.install(registry.create(mix.ds, capacity, &params)?)?;
    for i in 0..mix.span {
        block.execute(&(mix.write)(i))?;
    }
    Ok(block)
}

/// The four envelopes one read and one write put on the wire, with the
/// responses a real block gives.
fn envelopes(mix: &OpMix, block: &mut Block) -> Result<[Envelope; 4]> {
    let (read, write) = ((mix.read)(0), (mix.write)(0));
    let read_resp = block.execute(&read)?.0;
    let write_resp = block.execute(&write)?.0;
    let resp = |rid, r| Envelope::DataResp {
        id: rid,
        resp: Ok(DataResponse::OpResult(r)),
    };
    Ok([
        op_req(PROBE_RID_BASE, BlockId(1), read),
        resp(PROBE_RID_BASE, read_resp),
        op_req(PROBE_RID_BASE + 1, BlockId(1), write),
        resp(PROBE_RID_BASE + 1, write_resp),
    ])
}

fn frame_of(env: &Envelope) -> Result<Vec<u8>> {
    let (mut body, mut frame) = (Vec::new(), Vec::new());
    to_bytes_into(env, &mut body)?;
    encode_frame(&body, &mut frame)?;
    Ok(frame)
}

fn proto_probes(envs: &[Envelope; 4], b: &Budget, out: &mut Vec<Reading>) -> Result<()> {
    let (mut body, mut frame) = (Vec::new(), Vec::new());
    let mut i = 0;
    let (encode_ns, n) = time_bounded(b.slice, || {
        body.clear();
        frame.clear();
        to_bytes_into(&envs[i % 4], &mut body).expect("encode envelope");
        encode_frame(&body, &mut frame).expect("frame envelope");
        std::hint::black_box(&frame);
        i += 1;
    });
    out.push(("proto.encode_ns_per_msg", encode_ns, n));

    let frames: Vec<Vec<u8>> = envs.iter().map(frame_of).collect::<Result<_>>()?;
    let mut assembler = FrameAssembler::new();
    let mut scratch = Vec::new();
    let mut i = 0;
    let (decode_ns, n) = time_bounded(b.slice, || {
        assembler.push(&frames[i % 4]);
        let len = assembler
            .next_frame_into(&mut scratch)
            .expect("reassemble frame")
            .expect("one whole frame was pushed");
        let env: Envelope = from_bytes(&scratch[..len]).expect("decode envelope");
        std::hint::black_box(env);
        i += 1;
    });
    out.push(("proto.decode_ns_per_msg", decode_ns, n));
    let wire: usize = frames.iter().map(Vec::len).sum();
    out.push(("proto.wire_bytes_per_op", wire as f64 / 2.0, 4));

    // The same round trip on a 64 KB payload: cost per KB moved.
    let bulk = bulk_request(0);
    let bulk_frame = frame_of(&bulk)?;
    let (ns, n) = time_bounded(b.slice, || {
        body.clear();
        frame.clear();
        to_bytes_into(&bulk, &mut body).expect("encode envelope");
        encode_frame(&body, &mut frame).expect("frame envelope");
        assembler.push(&bulk_frame);
        let len = assembler
            .next_frame_into(&mut scratch)
            .expect("reassemble frame")
            .expect("one whole frame was pushed");
        let env: Envelope = from_bytes(&scratch[..len]).expect("decode envelope");
        std::hint::black_box(env);
    });
    out.push(("proto.codec_ns_per_kb", ns / 64.0, n));
    Ok(())
}

/// A 64 KB `FileWrite` request, the bulk shape of `file_bulk`.
fn bulk_request(i: u64) -> Envelope {
    op_req(
        PROBE_RID_BASE + i,
        BlockId(1),
        DsOp::FileWrite {
            offset: 0,
            data: Blob::new(vec![0xA5; 64 << 10]),
        },
    )
}

/// A service that executes nothing: it answers a read with the canned
/// read response and anything else with the canned write response, so
/// what a call costs is the transport alone.
struct Null {
    read: Envelope,
    write: Envelope,
}

impl Service for Null {
    fn handle(&self, req: Envelope, _session: &SessionHandle) -> Envelope {
        let (rid, is_read) = match &req {
            Envelope::DataReq {
                id,
                req: DataRequest::Op { op, .. },
                ..
            } => (*id, op.kind().is_none()),
            Envelope::DataReq { id, .. } | Envelope::ControlReq { id, .. } => (*id, false),
            _ => (0, false),
        };
        match if is_read { &self.read } else { &self.write } {
            Envelope::DataResp { resp, .. } => Envelope::DataResp {
                id: rid,
                resp: resp.clone(),
            },
            other => other.clone(),
        }
    }
}

/// Closed-loop calls on one connection for `slice`; RTTs in µs.
fn call_loop(conn: &ClientConn, reqs: &[Envelope], slice: Duration) -> Result<Vec<f64>> {
    let mut rtts = Vec::new();
    let t0 = Instant::now();
    let mut i = 0u64;
    while t0.elapsed() < slice {
        let mut req = reqs[(i % reqs.len() as u64) as usize].clone();
        if let Envelope::DataReq { id, .. } = &mut req {
            *id = PROBE_RID_BASE + i;
        }
        let sent = Instant::now();
        match conn.call(req)? {
            Envelope::DataResp { resp: Ok(_), .. } => {}
            other => return Err(JiffyError::Rpc(format!("null service replied {other:?}"))),
        }
        rtts.push(sent.elapsed().as_nanos() as f64 / 1e3);
        i += 1;
    }
    Ok(rtts)
}

fn rpc_probes(envs: &[Envelope; 4], b: &Budget, out: &mut Vec<Reading>) -> Result<()> {
    let null: Arc<dyn Service> = Arc::new(Null {
        read: envs[1].clone(),
        write: envs[3].clone(),
    });
    let reqs = [envs[0].clone(), envs[2].clone()];
    let server = serve_tcp("127.0.0.1:0", null.clone())?;
    let fabric = Fabric::new();

    let mut rtts = call_loop(&fabric.connect(server.addr())?, &reqs, b.slice)?;
    let n = rtts.len();
    out.push((
        "rpc.null_rtt_p50_us",
        percentile(&mut rtts, 50.0).unwrap_or(0.0),
        n,
    ));
    out.push((
        "rpc.null_rtt_p99_us",
        percentile(&mut rtts, 99.0).unwrap_or(0.0),
        n,
    ));

    // Two callers, a connection each: the transport's throughput with
    // more than one request in flight.
    let conns = [fabric.dial(server.addr())?, fabric.dial(server.addr())?];
    let t0 = Instant::now();
    let calls: usize = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter()
            .map(|c| s.spawn(|| call_loop(c, &reqs, b.slice).map(|r| r.len())))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rpc probe thread panicked"))
            .sum::<Result<usize>>()
    })?;
    out.push((
        "rpc.null_calls_per_s",
        calls as f64 / t0.elapsed().as_secs_f64(),
        calls,
    ));
    for c in &conns {
        c.close();
    }

    let bulk = [bulk_request(0)];
    let rtts = call_loop(&fabric.connect(server.addr())?, &bulk, b.slice)?;
    let secs: f64 = rtts.iter().sum::<f64>() / 1e6;
    out.push((
        "rpc.bulk_mb_per_s",
        rtts.len() as f64 * (64 << 10) as f64 / 1e6 / secs,
        rtts.len(),
    ));
    fabric.close_all();
    drop(server);

    let hub = InprocHub::new();
    let addr = hub.register(null);
    let mut rtts = call_loop(&hub.connect(&addr)?, &reqs, b.slice)?;
    let n = rtts.len();
    out.push((
        "rpc.inproc_rtt_p50_us",
        percentile(&mut rtts, 50.0).unwrap_or(0.0),
        n,
    ));
    Ok(())
}

fn block_probes(mix: &OpMix, block: &mut Block, b: &Budget, out: &mut Vec<Reading>) -> Result<()> {
    let n = b.block_ops;
    let reads: Vec<DsOp> = (0..256).map(|i| (mix.read)(i % mix.span)).collect();
    let t0 = Instant::now();
    for i in 0..n {
        std::hint::black_box(block.execute(&reads[(i % 256) as usize])?);
    }
    out.push((
        "block.execute_get_ns",
        t0.elapsed().as_nanos() as f64 / n as f64,
        n as usize,
    ));

    // Large payloads cost a buffer per op; build them in batches outside
    // the timed part.
    let batch = if payload_bytes(&(mix.write)(0)) > 4096 {
        64
    } else {
        1024
    };
    let (mut spent, mut done) = (Duration::ZERO, 0u64);
    let mut result = None;
    while done < n {
        let writes: Vec<DsOp> = (done..done + batch)
            .map(|i| (mix.write)(i % mix.span))
            .collect();
        let t0 = Instant::now();
        for op in &writes {
            result = Some(block.execute(op)?.0);
        }
        spent += t0.elapsed();
        done += batch;
    }
    let put_ns = spent.as_nanos() as f64 / done as f64;
    out.push(("block.execute_put_ns", put_ns, done as usize));
    if mix.ds == "file" {
        let kb = payload_bytes(&(mix.write)(0)) as f64 / 1024.0;
        out.push((
            "ds.file_write_ns_per_kb",
            put_ns / kb.max(1e-9),
            done as usize,
        ));
    }

    let result = result.expect("at least one write ran");
    let t0 = Instant::now();
    for i in 0..n {
        block.replay_record(PROBE_RID_BASE + i, &result);
    }
    out.push((
        "block.replay_record_ns",
        t0.elapsed().as_nanos() as f64 / n as f64,
        n as usize,
    ));

    // The cuckoo map under a KV partition, at the workload's key and
    // value sizes. Not on a file workload's path.
    if let DsOp::Put { .. } = (mix.write)(0) {
        let pairs: Vec<(Blob, Blob)> = (0..mix.span)
            .filter_map(|i| match (mix.write)(i) {
                DsOp::Put { key, value } => Some((key, value)),
                _ => None,
            })
            .collect();
        let mut map: CuckooMap<Blob, Blob> = CuckooMap::new();
        for (k, v) in &pairs {
            map.insert(k.clone(), v.clone());
        }
        let t0 = Instant::now();
        for i in 0..n as usize {
            std::hint::black_box(map.get(&pairs[i % pairs.len()].0));
        }
        out.push((
            "cuckoo.get_ns",
            t0.elapsed().as_nanos() as f64 / n as f64,
            n as usize,
        ));
        let (mut spent, mut done) = (Duration::ZERO, 0usize);
        while done < n as usize {
            let fresh: Vec<(Blob, Blob)> = (0..1024)
                .map(|j| pairs[(done + j) % pairs.len()].clone())
                .collect();
            let t0 = Instant::now();
            for (k, v) in fresh {
                std::hint::black_box(map.insert(k, v));
            }
            spent += t0.elapsed();
            done += 1024;
        }
        out.push((
            "cuckoo.insert_ns",
            spent.as_nanos() as f64 / done as f64,
            done,
        ));
    }
    Ok(())
}

/// A booted probe cluster with one structure of the workload's kind
/// under prefix `p`.
struct ProbeCluster {
    bench: Bench,
    job: JobClient,
}

/// The client handle of the probed structure.
enum Handle {
    Kv(KvClient),
    File(FileClient),
}

impl Handle {
    /// Issues `op` the way a client would.
    fn apply(&self, op: &DsOp) -> Result<()> {
        match (self, op) {
            (Handle::Kv(kv), DsOp::Get { key }) => kv.get(key).map(|_| ()),
            (Handle::Kv(kv), DsOp::Put { key, value }) => kv.put(key, value).map(|_| ()),
            (Handle::File(f), DsOp::FileRead { offset, len }) => {
                f.read_at(*offset, *len).map(|_| ())
            }
            (Handle::File(f), DsOp::FileWrite { offset, data }) => f.write_at(*offset, data),
            (Handle::File(f), DsOp::FileAppend { data }) => f.append(data),
            (_, other) => Err(JiffyError::Internal(format!(
                "probe cannot issue {other:?} through a client handle"
            ))),
        }
    }
}

impl ProbeCluster {
    fn boot(shape: &Shape, chain: usize, tcp: bool, epoch: Epoch) -> Result<Self> {
        let shape = Shape {
            chain_length: chain,
            blocks_per_server: shape.blocks_per_server.min(16),
            lease: NO_EXPIRY,
            // Two shards over two servers leave each shard one server,
            // where a chain of two cannot be placed: replicated writes
            // then time out (README.md, findings). The chain probe
            // runs on one shard.
            shards: if chain > 1 { 1 } else { shape.shards },
            ..*shape
        };
        let bench = boot(&shape, tcp, epoch)?;
        let job = bench.cluster.client()?.register_job("probe")?;
        Ok(Self { bench, job })
    }

    fn open(&self, mix: &OpMix) -> Result<Handle> {
        Ok(if mix.ds == "kv_store" {
            Handle::Kv(self.job.open_kv("p", &[], 1)?)
        } else {
            Handle::File(self.job.open_file("p", &[])?)
        })
    }

    /// Where the probed structure's (only) block lives.
    fn location(&self) -> Result<BlockLocation> {
        let view = self.job.resolve_fresh("p")?;
        view.partition
            .as_ref()
            .and_then(|p| p.blocks().first().map(|l| (*l).clone()))
            .ok_or_else(|| JiffyError::Internal("probe prefix has no block".into()))
    }

    /// Primes the block, then times `Service::handle` called directly on
    /// the server that hosts the chain head: reads as plain ops; writes
    /// as plain ops on an unreplicated block, as `Replicate` (fan-down to
    /// the tail over TCP) on a chain. Returns (read ns, write ns).
    fn handle_probe(&self, mix: &OpMix, b: &Budget) -> Result<(f64, f64)> {
        let handle = self.open(mix)?;
        for i in 0..mix.span {
            handle.apply(&(mix.write)(i))?;
        }
        let loc = self.location()?;
        let head = loc.head().clone();
        let server = self
            .bench
            .cluster
            .servers()
            .into_iter()
            .find(|s| s.identity().map(|(id, _)| id) == Some(head.server))
            .ok_or_else(|| JiffyError::Internal("chain head's server not in the cluster".into()))?;
        let session = SessionHandle::new(Arc::new(|_| {}));
        let mut rid = PROBE_RID_BASE;
        let mut run = |make: &dyn Fn(u64, u64) -> Envelope| -> Result<f64> {
            let batch = 64u64;
            let (mut spent, mut done) = (Duration::ZERO, 0u64);
            while done < b.server_ops {
                let reqs: Vec<Envelope> = (0..batch)
                    .map(|j| {
                        rid += 1;
                        make(rid, (done + j) % mix.span)
                    })
                    .collect();
                let t0 = Instant::now();
                for req in reqs {
                    match server.handle(req, &session) {
                        Envelope::DataResp { resp: Ok(_), .. } => {}
                        other => {
                            return Err(JiffyError::Internal(format!("server probe got {other:?}")))
                        }
                    }
                }
                spent += t0.elapsed();
                done += batch;
            }
            Ok(spent.as_nanos() as f64 / done as f64)
        };
        let tail_block = loc.tail().block;
        let read_ns = if loc.chain.len() == 1 {
            run(&|rid, i| op_req(rid, tail_block, (mix.read)(i)))?
        } else {
            0.0 // reads go to the tail; the unreplicated probe covers them
        };
        let downstream = loc.chain[1..].to_vec();
        let write_ns = run(&|rid, i| {
            if downstream.is_empty() {
                op_req(rid, head.block, (mix.write)(i))
            } else {
                data_req(
                    rid,
                    DataRequest::Replicate {
                        block: head.block,
                        op: (mix.write)(i),
                        downstream: downstream.clone(),
                        rid,
                    },
                )
            }
        })?;
        Ok((read_ns, write_ns))
    }

    /// p50 µs of the op mix's read and write through client handles.
    fn client_probe(&self, mix: &OpMix, b: &Budget) -> Result<(f64, f64, usize)> {
        let handle = self.open(mix)?;
        for i in 0..mix.span {
            handle.apply(&(mix.write)(i))?;
        }
        let n = b.server_ops;
        let time = |make: fn(u64) -> DsOp| -> Result<f64> {
            let mut us = Vec::with_capacity(n as usize);
            for i in 0..n {
                let op = make(i % mix.span);
                let t0 = Instant::now();
                handle.apply(&op)?;
                us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            }
            Ok(percentile(&mut us, 50.0).unwrap_or(0.0))
        };
        Ok((time(mix.read)?, time(mix.write)?, n as usize))
    }

    /// The control calls one MapReduce job issues, each timed; returns
    /// per-call µs samples and whole-sequence ms samples.
    fn control_probe(&self, jobs: usize) -> Result<(CallTimes, Vec<f64>)> {
        let client = self.bench.cluster.client()?;
        let mut calls: CallTimes = Vec::new();
        let mut whole = Vec::new();
        for j in 0..jobs {
            let t_job = Instant::now();
            let mut timed = |name: &'static str, f: &mut dyn FnMut() -> Result<()>| -> Result<()> {
                let t0 = Instant::now();
                f()?;
                let us = t0.elapsed().as_nanos() as f64 / 1e3;
                match calls.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, v)) => v.push(us),
                    None => calls.push((name, vec![us])),
                }
                Ok(())
            };
            let mut job = None;
            timed("controller.register_job_us", &mut || {
                job = Some(client.register_job(&format!("ctl-{j}"))?);
                Ok(())
            })?;
            let job = job.expect("register_job succeeded");
            timed("controller.create_prefix_us", &mut || {
                job.create_addr_prefix("map-stage", &[])
            })?;
            for shuffle in ["shuffle-0", "shuffle-1"] {
                timed("controller.create_ds_us", &mut || {
                    job.open_file(shuffle, &["map-stage"]).map(|_| ())
                })?;
            }
            timed("controller.resolve_us", &mut || {
                job.resolve_fresh("shuffle-0").map(|_| ())
            })?;
            timed("controller.renew_lease_us", &mut || {
                job.renew_lease("map-stage").map(|_| ())
            })?;
            for prefix in ["shuffle-0", "shuffle-1", "map-stage"] {
                timed("controller.remove_prefix_us", &mut || {
                    job.remove_addr_prefix(prefix)
                })?;
            }
            timed("controller.deregister_us", &mut || job.deregister())?;
            whole.push(t_job.elapsed().as_nanos() as f64 / 1e6);
        }
        Ok((calls, whole))
    }
}

/// Runs every probe for `wl` and returns the per-layer readings.
///
/// # Errors
///
/// Any Jiffy failure inside a probe: a probe that cannot run is a broken
/// benchmark, not a zero.
pub fn run_all(
    wl: &dyn Workload,
    shape: &Shape,
    epoch: Epoch,
    smoke: bool,
    e2e: &EndToEnd,
) -> Result<Vec<Reading>> {
    let b = Budget::of(smoke);
    let mix = wl.mix();
    let mut out: Vec<Reading> = Vec::new();

    let mut block = harness_block(&mix)?;
    let envs = envelopes(&mix, &mut block)?;
    proto_probes(&envs, &b, &mut out)?;
    rpc_probes(&envs, &b, &mut out)?;
    block_probes(&mix, &mut block, &b, &mut out)?;
    drop(block);

    // server: unreplicated, then on a 2-replica chain head.
    let single = ProbeCluster::boot(shape, 1, true, epoch)?;
    let (get_ns, put_ns) = single.handle_probe(&mix, &b)?;
    let n = b.server_ops as usize;
    out.push(("server.handle_get_ns", get_ns, n));
    out.push(("server.handle_put_ns", put_ns, n));
    let chained = ProbeCluster::boot(shape, 2, true, epoch)?;
    let (_, chain_ns) = chained.handle_probe(&mix, &b)?;
    out.push(("server.handle_put_chain_us", chain_ns / 1e3, n));
    out.push(("server.chain_hop_us", (chain_ns - put_ns) / 1e3, n));
    drop(chained);

    // client: open of an existing structure over TCP; the ops with no
    // sockets under them; what no other layer owns.
    let mut opens = Vec::new();
    for _ in 0..b.jobs * 4 {
        let t0 = Instant::now();
        single.open(&mix)?;
        opens.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    let n_opens = opens.len();
    out.push((
        "client.open_ds_p50_us",
        percentile(&mut opens, 50.0).unwrap_or(0.0),
        n_opens,
    ));
    let inproc = ProbeCluster::boot(shape, shape.chain_length, false, epoch)?;
    let (get_us, put_us, n_client) = inproc.client_probe(&mix, &b)?;
    out.push(("client.inproc_get_p50_us", get_us, n_client));
    out.push(("client.inproc_put_p50_us", put_us, n_client));
    let rtt = out
        .iter()
        .find(|r| r.0 == "rpc.null_rtt_p50_us")
        .map_or(0.0, |r| r.1);
    let server_put_us = if shape.chain_length > 1 {
        chain_ns
    } else {
        put_ns
    } / 1e3;
    if let Some(us) = e2e.read_p50_us {
        out.push(("client.unattributed_get_us", us - rtt - get_ns / 1e3, n));
    }
    if let Some(us) = e2e.write_p50_us {
        out.push(("client.unattributed_put_us", us - rtt - server_put_us, n));
    }

    // controller: one job's control sequence over TCP (journal counted
    // by the decorator) and with no sockets under it.
    let before = single.bench.store.counts();
    let (calls, mut whole) = single.control_probe(b.jobs)?;
    let journal = single.bench.store.counts().since(&before);
    for (name, mut us) in calls {
        let n = us.len();
        out.push((name, percentile(&mut us, 50.0).unwrap_or(0.0), n));
    }
    out.push((
        "controller.tcp_job_ctl_ms",
        percentile(&mut whole, 50.0).unwrap_or(0.0),
        b.jobs,
    ));
    out.push((
        "controller.journal_puts_per_job",
        journal.meta_puts as f64 / b.jobs as f64,
        b.jobs,
    ));
    out.push((
        "controller.journal_bytes_per_job",
        journal.meta_put_bytes as f64 / b.jobs as f64,
        b.jobs,
    ));
    let (_, mut whole) = inproc.control_probe(b.jobs)?;
    out.push((
        "controller.inproc_job_ctl_ms",
        percentile(&mut whole, 50.0).unwrap_or(0.0),
        b.jobs,
    ));
    Ok(out)
}
