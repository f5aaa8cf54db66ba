//! `mr_job_churn` — many short analytics jobs, back to back.
//!
//! 2 servers x 256 blocks of 1 MB, `chain_length = 1`, **two controller
//! shards**, 2 s leases with the expiry worker running. One driver
//! thread: `register_job` → `MapReduceJob::new(tokenize, count, 2).run`
//! over 2 map partitions x 8 generated sentences (about 150 shuffle
//! records into 2 shuffle files, with a live lease renewer) →
//! `deregister`; the word counts are checked against a local count. "End
//! to end means a whole analytics job": the only workload where the
//! controller, its journal on the persistent tier, leases, the shard
//! router and `jiffy-models` do most of the work and the data plane
//! little — the many-short-DAGs regime of "In Search of a Fast and
//! Efficient Serverless DAG Engine".
//!
//! A client of this workload waits on one thing, the job, so the job is
//! the op: read = write = op = cycle = one whole job, `register_job` →
//! `deregister`, and both MB/s figures are the shuffle bytes a job moves
//! over the time it takes. Timings *inside* a job are not end-to-end
//! metrics: each job sleeps ~190 ms in `LeaseRenewer::stop`, so its 150
//! appends always run on a CPU that has just been idle, and their
//! latency swings ±30 % from run to run with the host. They are in the
//! trace (`emit`, `map_fn`, `reduce_fn` spans) and in `models.*`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use jiffy_client::JiffyClient;
use jiffy_common::{JiffyError, Result};
use jiffy_ds::kv_slot;
use jiffy_models::{MapReduceJob, Mapper, Reducer};
use jiffy_proto::{Blob, DsOp};
use jiffy_sync::atomic::{AtomicU64, Ordering};
use jiffy_sync::Arc;
use jiffy_workloads::SentenceGen;

use super::{Ctx, OpMix, RunCfg, Session, Workload};
use crate::load::{drive, Bench, BulkFrom, OpKind, Recording, Shape, SummarySpec, Window};
use crate::stats::median;
use crate::trace::{Layer, Tracer};

const MAP_PARTITIONS: usize = 2;
const SENTENCES_PER_PARTITION: usize = 8;
const REDUCERS: usize = 2;
const VOCABULARY: usize = 512;

/// See the module docs.
pub struct MrJobChurn;

impl Workload for MrJobChurn {
    fn name(&self) -> &'static str {
        "mr_job_churn"
    }

    fn why(&self) -> &'static str {
        "back-to-back small MapReduce jobs on 2 controller shards: controller, journal, leases, \
         shard router and models do the work, the data plane little; whole-job latency"
    }

    fn shape(&self, _smoke: bool) -> Shape {
        Shape {
            servers: 2,
            blocks_per_server: 256,
            block_size: 1 << 20,
            chain_length: 1,
            shards: 2,
            lease: Duration::from_secs(2),
        }
    }

    fn spec(&self) -> SummarySpec {
        SummarySpec {
            write_bulk: BulkFrom::Ops(OpKind::Job),
            read_bulk: BulkFrom::Ops(OpKind::Job),
        }
    }

    fn mix(&self) -> OpMix {
        OpMix {
            ds: "file",
            // A reducer reads its whole shuffle partition in one call.
            read: |_| DsOp::FileRead {
                offset: 0,
                len: 2048,
            },
            write: |i| DsOp::FileAppend {
                data: Blob::new(shuffle_record(format!("w{:06}", i % 1_000_000).as_bytes())),
            },
            span: 64,
        }
    }

    fn threads(&self) -> usize {
        1
    }

    fn prepare<'a>(&self, bench: &'a Bench, cfg: RunCfg) -> Result<Box<dyn Session + 'a>> {
        Ok(Box::new(MrSession {
            cfg,
            client: bench.cluster.client()?,
            sentences: SentenceGen::new(VOCABULARY, 1.0, cfg.seed),
            next_job: 0,
        }))
    }
}

/// One shuffle record as `jiffy_models::RecordWriter` frames it:
/// `[u32 length][wire-coded (word, "1")]`.
fn shuffle_record(word: &[u8]) -> Vec<u8> {
    let body = jiffy_proto::to_bytes(&(Blob::new(word.to_vec()), Blob::new(b"1".to_vec())))
        .expect("encode a pair of blobs");
    let mut framed = (body.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&body);
    framed
}

struct MrSession {
    cfg: RunCfg,
    client: JiffyClient,
    sentences: SentenceGen,
    next_job: u64,
}

/// What the map and reduce callbacks of one job report back. They run on
/// threads the engine spawns, so everything here is shared.
struct JobProbe {
    tracer: Tracer,
    req: u64,
    /// Key and value bytes handed to `emit`: what the job shuffles.
    shuffled_bytes: AtomicU64,
}

struct Tokenize(Arc<JobProbe>);

impl Mapper for Tokenize {
    fn map(&self, _key: &[u8], value: &[u8], emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
        let p = &self.0;
        let span = p.tracer.open("map_fn", Layer::UserFn, p.req, 0);
        let mut bytes = 0;
        for word in value
            .split(u8::is_ascii_whitespace)
            .filter(|w| !w.is_empty())
        {
            let call = p.tracer.open("emit", Layer::Client, p.req, span.id);
            emit(word.to_vec(), b"1".to_vec());
            p.tracer.close(call);
            bytes += word.len() as u64 + 1;
        }
        p.tracer.close(span);
        p.shuffled_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

struct Count(Arc<JobProbe>);

impl Reducer for Count {
    fn reduce(&self, _key: &[u8], values: &[Vec<u8>]) -> Vec<u8> {
        let p = &self.0;
        let span = p.tracer.open("reduce_fn", Layer::UserFn, p.req, 0);
        let out = values.len().to_string().into_bytes();
        p.tracer.close(span);
        out
    }
}

type Partitions = Vec<Vec<(Vec<u8>, Vec<u8>)>>;

impl MrSession {
    /// The next job's pre-partitioned input and the word counts a correct
    /// run must produce.
    fn next_input(&mut self) -> (Partitions, BTreeMap<Vec<u8>, usize>) {
        let mut expected: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
        let inputs = (0..MAP_PARTITIONS)
            .map(|m| {
                self.sentences
                    .batch(SENTENCES_PER_PARTITION)
                    .into_iter()
                    .enumerate()
                    .map(|(i, s)| {
                        for w in s.split_ascii_whitespace() {
                            *expected.entry(w.as_bytes().to_vec()).or_default() += 1;
                        }
                        (format!("{m}-{i}").into_bytes(), s.into_bytes())
                    })
                    .collect()
            })
            .collect();
        (inputs, expected)
    }

    fn one_job(&mut self, cx: &mut Ctx<'_>) {
        let (inputs, expected) = self.next_input();
        let req = self.next_job;
        self.next_job += 1;
        let w = cx.w;
        let root = cx.trace.root("job", req);
        let start = w.epoch.now_ns();
        let name = format!("mr-{req}");
        let Some(job) = cx.call("register_job", Layer::Controller, req, root.id, || {
            self.client.register_job(&name)
        }) else {
            return;
        };
        let probe = Arc::new(JobProbe {
            tracer: cx.trace.handle(),
            req,
            shuffled_bytes: AtomicU64::new(0),
        });
        let output = cx.call("MapReduceJob::run", Layer::Models, req, root.id, || {
            MapReduceJob::new(Tokenize(probe.clone()), Count(probe.clone()), REDUCERS)
                .run(&job, inputs)
        });
        let done = cx.call("deregister", Layer::Controller, req, root.id, || {
            job.deregister()
        });
        cx.log.cycle(w, start, root.recorded());
        cx.trace.close(root);
        // The job as one op: a job with a failed step carries no latency.
        let ok = output.is_some() && done.is_some();
        let shuffled = probe.shuffled_bytes.load(Ordering::Relaxed);
        cx.log.op(w, OpKind::Job, shuffled, start, ok);
        if let Some(output) = output {
            let got: BTreeMap<Vec<u8>, usize> = output
                .iter()
                .map(|(k, v)| {
                    let n = std::str::from_utf8(v).ok().and_then(|s| s.parse().ok());
                    (k.clone(), n.unwrap_or(usize::MAX))
                })
                .collect();
            cx.check(got == expected, || {
                format!(
                    "job {req}: {} distinct words counted, {} expected, or counts differ",
                    got.len(),
                    expected.len()
                )
            });
        }
    }
}

/// Jobs issued by hand for `models.equiv_client_ms`.
const EQUIV_JOBS: usize = 12;
const SMOKE_EQUIV_JOBS: usize = 2;

impl MrSession {
    /// What `MapReduceJob::run` asks of Jiffy, issued directly: the same
    /// hierarchy, one append per word from one thread per map partition,
    /// one `read_all` per shuffle file from one thread per reducer, the
    /// same removes — and no engine (no lease renewer, no grouping, no
    /// callbacks). Returns the milliseconds between `register_job`
    /// returning and `deregister` being called, the part `run` covers.
    fn equivalent_job(&mut self) -> Result<f64> {
        let (inputs, expected) = self.next_input();
        let req = self.next_job;
        self.next_job += 1;
        let job = self.client.register_job(&format!("mr-equiv-{req}"))?;
        let t0 = Instant::now();
        job.create_addr_prefix("map-stage", &[])?;
        let shuffles: Vec<String> = (0..REDUCERS).map(|r| format!("shuffle-{r}")).collect();
        for name in &shuffles {
            job.open_file(name, &["map-stage"])?;
        }
        std::thread::scope(|s| {
            let tasks: Vec<_> = inputs
                .iter()
                .map(|input| {
                    s.spawn(|| -> Result<()> {
                        let files = shuffles
                            .iter()
                            .map(|name| job.open_file(name, &["map-stage"]))
                            .collect::<Result<Vec<_>>>()?;
                        for word in input
                            .iter()
                            .flat_map(|(_, v)| v.split(u8::is_ascii_whitespace))
                        {
                            if !word.is_empty() {
                                let part = kv_slot(word, REDUCERS as u32) as usize;
                                files[part].append(&shuffle_record(word))?;
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            tasks
                .into_iter()
                .try_for_each(|t| t.join().expect("map-side thread panicked"))
        })?;
        let fetched: usize = std::thread::scope(|s| {
            let tasks: Vec<_> = shuffles
                .iter()
                .map(|name| s.spawn(|| Ok(job.open_file(name, &["map-stage"])?.read_all()?.len())))
                .collect();
            tasks
                .into_iter()
                .map(|t| t.join().expect("reduce-side thread panicked"))
                .sum::<Result<usize>>()
        })?;
        for name in &shuffles {
            job.remove_addr_prefix(name)?;
        }
        job.remove_addr_prefix("map-stage")?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        job.deregister()?;
        let words: usize = expected.values().sum();
        if fetched < words * 8 {
            return Err(JiffyError::Internal(format!(
                "hand-issued job fetched {fetched} B for {words} shuffle records"
            )));
        }
        Ok(ms)
    }
}

impl Session for MrSession {
    fn extra_layer_metrics(&mut self) -> Vec<(&'static str, f64)> {
        let jobs = if self.cfg.smoke {
            SMOKE_EQUIV_JOBS
        } else {
            EQUIV_JOBS
        };
        let ms: Result<Vec<f64>> = (0..jobs).map(|_| self.equivalent_job()).collect();
        match ms.map(|v| median(&v)) {
            Ok(Some(ms)) => vec![("models.equiv_client_ms", ms)],
            _ => Vec::new(),
        }
    }

    fn run(&mut self, warmup: Duration, window: Duration, tracer: &Tracer) -> Recording {
        let epoch = self.cfg.epoch;
        let body = |w: &Window| {
            let mut cx = Ctx::new(w, tracer);
            while !w.done() {
                self.one_job(&mut cx);
            }
            cx.log
        };
        drive(epoch, warmup, window, vec![body])
    }
}
