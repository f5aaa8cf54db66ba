//! `kv_small_repl` — the paper's Fig. 10 small-object regime on a
//! replicated chain.
//!
//! 2 servers x 16 blocks of 64 MB, `chain_length = 2`, one controller
//! shard. 65 536 keys x 256 B are preloaded with `multi_put` (they fit
//! the 4 initial blocks; nothing ever splits). Two threads, each with its
//! own client handle and its own half of the key space, alternate
//! `KvClient::get` and `KvClient::put` on Zipf(0.99) keys, one op per
//! RPC. Per-op cost of proto + rpc + server + block dominates; bytes and
//! the controller do nothing (the metadata cache always hits). Reads go
//! to the chain tail; writes enter at the head, fan down and are recorded
//! in the replay window — the same layers used differently, so a gain on
//! one path that taxes the other shows as `read_p50_us` against
//! `write_p50_us`.
//!
//! read = `get`, write = `put`, op = either, cycle = a task slice of
//! 2 048 ops (what a short-lived serverless task would issue).

use std::time::Duration;

use jiffy_client::{JobClient, KvClient};
use jiffy_common::{JobId, Result};
use jiffy_proto::{Blob, DsOp};
use jiffy_workloads::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{fill, Ctx, OpMix, RunCfg, Session, Workload, NO_EXPIRY};
use crate::load::{drive, Bench, BulkFrom, OpKind, Recording, Shape, SummarySpec, Window};
use crate::trace::Tracer;

const VALUE_LEN: usize = 256;
const KEYS: usize = 65_536;
const SMOKE_KEYS: usize = 4_096;
const SLICE_OPS: u64 = 2_048;
const SMOKE_SLICE_OPS: u64 = 128;
const THREADS: usize = 2;
const INITIAL_BLOCKS: u32 = 4;
const PRELOAD_BATCH: usize = 512;

/// See the module docs.
pub struct KvSmallRepl;

/// Key of index `i` (fixed width, so every request has the same size).
pub fn key(i: u64) -> Vec<u8> {
    format!("key-{i:012}").into_bytes()
}

/// Value of key `i` at `version`.
fn value(i: u64, version: u32) -> [u8; VALUE_LEN] {
    let mut v = [0u8; VALUE_LEN];
    fill(&mut v, (i << 32) | u64::from(version));
    v
}

impl Workload for KvSmallRepl {
    fn name(&self) -> &'static str {
        "kv_small_repl"
    }

    fn why(&self) -> &'static str {
        "256 B get/put on a 2-replica chain: per-op cost of proto+rpc+server+block dominates, \
         bytes and controller idle; reads (tail) vs writes (head, fan-down, replay window)"
    }

    fn shape(&self, _smoke: bool) -> Shape {
        Shape {
            servers: 2,
            blocks_per_server: 16,
            block_size: 64 << 20,
            chain_length: 2,
            shards: 1,
            lease: NO_EXPIRY,
        }
    }

    fn spec(&self) -> SummarySpec {
        SummarySpec {
            write_bulk: BulkFrom::Ops(OpKind::Write),
            read_bulk: BulkFrom::Ops(OpKind::Read),
        }
    }

    fn mix(&self) -> OpMix {
        OpMix {
            ds: "kv_store",
            read: |i| DsOp::Get {
                key: Blob::new(key(i)),
            },
            write: |i| DsOp::Put {
                key: Blob::new(key(i)),
                value: Blob::new(value(i, 1).to_vec()),
            },
            span: 4096,
        }
    }

    fn threads(&self) -> usize {
        THREADS
    }

    fn prepare<'a>(&self, bench: &'a Bench, cfg: RunCfg) -> Result<Box<dyn Session + 'a>> {
        let keys = if cfg.smoke { SMOKE_KEYS } else { KEYS };
        let job = bench.cluster.client()?.register_job("kv_small_repl")?;
        let kv = job.open_kv("kv", &[], INITIAL_BLOCKS)?;
        let mut i = 0u64;
        while (i as usize) < keys {
            let n = PRELOAD_BATCH.min(keys - i as usize) as u64;
            let pairs: Vec<(Vec<u8>, [u8; VALUE_LEN])> =
                (i..i + n).map(|k| (key(k), value(k, 0))).collect();
            kv.multi_put(&pairs)?;
            i += n;
        }
        let per_thread = keys / THREADS;
        Ok(Box::new(KvSession {
            bench,
            cfg,
            job: job.id(),
            zipf: Zipf::new(per_thread, 0.99),
            slice_ops: if cfg.smoke {
                SMOKE_SLICE_OPS
            } else {
                SLICE_OPS
            },
            threads: (0..THREADS)
                .map(|t| ThreadState {
                    index: t as u64,
                    versions: vec![0; per_thread],
                    rng: StdRng::seed_from_u64(
                        cfg.seed.wrapping_mul(0x9E37).wrapping_add(t as u64),
                    ),
                    // Request ids are unique across threads.
                    next_req: (t as u64) << 40,
                })
                .collect(),
        }))
    }
}

/// What one load thread carries from window to window: the version it
/// last wrote to each of its keys (so every `get` has an expected value)
/// and its position in its random stream.
struct ThreadState {
    index: u64,
    versions: Vec<u32>,
    rng: StdRng,
    next_req: u64,
}

struct KvSession<'a> {
    bench: &'a Bench,
    cfg: RunCfg,
    job: JobId,
    zipf: Zipf,
    slice_ops: u64,
    threads: Vec<ThreadState>,
}

impl KvSession<'_> {
    fn open(&self) -> Result<KvClient> {
        // Each thread gets its own client handle (own metadata cache and
        // partition view), like a separate task attaching to the job.
        JobClient::attach(self.bench.cluster.client()?, self.job).open_kv("kv", &[], INITIAL_BLOCKS)
    }
}

fn load_thread(
    st: &mut ThreadState,
    kv: &KvClient,
    zipf: &Zipf,
    slice_ops: u64,
    w: &Window,
    tracer: &Tracer,
) -> crate::load::ThreadLog {
    let mut cx = Ctx::new(w, tracer);
    while !w.done() {
        let slice = cx.trace.root("task_slice", st.next_req);
        let slice_start = w.epoch.now_ns();
        for _ in 0..slice_ops / 2 {
            // Thread t owns the keys congruent to t: rank r is key 2r + t.
            let r = zipf.sample(&mut st.rng);
            let k = r as u64 * THREADS as u64 + st.index;
            let want = value(k, st.versions[r]);
            let got = cx.data_op(
                "kv.get",
                OpKind::Read,
                VALUE_LEN as u64,
                st.next_req,
                slice.id,
                || kv.get(&key(k)),
            );
            if let Some(got) = got {
                cx.check(got.as_deref() == Some(&want[..]), || {
                    format!(
                        "get(key {k}) returned a value other than version {}",
                        st.versions[r]
                    )
                });
            }

            let r = zipf.sample(&mut st.rng);
            let k = r as u64 * THREADS as u64 + st.index;
            let old = value(k, st.versions[r]);
            let new = value(k, st.versions[r] + 1);
            let prev = cx.data_op(
                "kv.put",
                OpKind::Write,
                VALUE_LEN as u64,
                st.next_req,
                slice.id,
                || kv.put(&key(k), &new),
            );
            if let Some(prev) = prev {
                st.versions[r] += 1;
                cx.check(prev.as_deref() == Some(&old[..]), || {
                    format!(
                        "put(key {k}) replaced a value other than version {}",
                        st.versions[r] - 1
                    )
                });
            }
        }
        cx.log.cycle(w, slice_start, slice.recorded());
        cx.trace.close(slice);
        st.next_req += 1;
    }
    cx.log
}

impl Session for KvSession<'_> {
    fn run(&mut self, warmup: Duration, window: Duration, tracer: &Tracer) -> Recording {
        let handles: Vec<KvClient> = (0..THREADS)
            .map(|_| self.open().expect("open kv handle"))
            .collect();
        let (zipf, slice_ops) = (&self.zipf, self.slice_ops);
        let bodies: Vec<_> = self
            .threads
            .iter_mut()
            .zip(&handles)
            .map(|(st, kv)| move |w: &Window| load_thread(st, kv, zipf, slice_ops, w, tracer))
            .collect();
        drive(self.cfg.epoch, warmup, window, bodies)
    }
}
