//! `file_bulk` — the paper's 64 KB shuffle-chunk regime.
//!
//! 2 servers x 32 blocks of 4 MB, `chain_length = 1`, one shard. Two
//! threads; each cycle a thread creates a file of its own, writes
//! 256 x 64 KB with `FileClient::write_at` at sequential offsets (16 MB,
//! four chunk allocations), meets the other thread, reads the 256 chunks
//! back with `read_at` verifying a checksum per chunk, and removes the
//! file. Time goes to payload copies between frame buffer, `Blob` and the
//! chunk, not to wake-ups: a per-op-overhead optimisation should move
//! `kv_small_repl` and leave this flat, a copy elimination the opposite.
//!
//! read = `read_at` of 64 KB, write = `write_at` of 64 KB, op = either,
//! cycle = create + write + read + remove of one 16 MB file.

use std::time::Duration;

use jiffy_client::JobClient;
use jiffy_common::{JobId, Result};
use jiffy_proto::{Blob, DsOp};
use jiffy_sync::{Condvar, Mutex};

use super::{checksum, fill, Ctx, OpMix, RunCfg, Session, Workload, NO_EXPIRY};
use crate::load::{
    drive, Bench, BulkFrom, OpKind, Recording, Shape, SummarySpec, ThreadLog, Window,
};
use crate::trace::{Layer, Tracer};

const CHUNK: usize = 64 << 10;
const CHUNKS_PER_CYCLE: u64 = 256;
const SMOKE_CHUNKS_PER_CYCLE: u64 = 32;
const THREADS: usize = 2;

/// See the module docs.
pub struct FileBulk;

impl Workload for FileBulk {
    fn name(&self) -> &'static str {
        "file_bulk"
    }

    fn why(&self) -> &'static str {
        "64 KB write_at/read_at on unreplicated files: time goes to payload copies between \
         frame buffer, Blob and chunk, not wake-ups; flat under per-op-overhead changes"
    }

    fn shape(&self, _smoke: bool) -> Shape {
        Shape {
            servers: 2,
            blocks_per_server: 32,
            block_size: 4 << 20,
            chain_length: 1,
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
            ds: "file",
            read: |i| DsOp::FileRead {
                offset: (i % 32) * CHUNK as u64,
                len: CHUNK as u64,
            },
            // The first 32 writes extend the probed chunk to 2 MB; every
            // later one overwrites in place, so it never fills.
            write: |i| {
                let mut data = vec![0u8; CHUNK];
                fill(&mut data[..64], i);
                DsOp::FileWrite {
                    offset: (i % 32) * CHUNK as u64,
                    data: Blob::new(data),
                }
            },
            span: 32,
        }
    }

    fn threads(&self) -> usize {
        THREADS
    }

    fn prepare<'a>(&self, bench: &'a Bench, cfg: RunCfg) -> Result<Box<dyn Session + 'a>> {
        let job = bench.cluster.client()?.register_job("file_bulk")?;
        Ok(Box::new(FileSession {
            bench,
            cfg,
            job: job.id(),
            chunks: if cfg.smoke {
                SMOKE_CHUNKS_PER_CYCLE
            } else {
                CHUNKS_PER_CYCLE
            },
            next_cycle: [0; THREADS],
        }))
    }
}

struct FileSession<'a> {
    bench: &'a Bench,
    cfg: RunCfg,
    job: JobId,
    chunks: u64,
    /// Cycles each thread has started, across windows (file names and
    /// chunk contents derive from it).
    next_cycle: [u64; THREADS],
}

/// One thread's buffers: a 64 KB body derived from the seed once, whose
/// first 16 bytes are restamped per chunk so every chunk of every cycle
/// is distinct and its checksum known before it is written.
struct Chunks {
    buf: Vec<u8>,
    sums: Vec<u64>,
}

impl Chunks {
    fn stamp(&mut self, thread: u64, cycle: u64, chunk: u64) -> u64 {
        self.buf[..8].copy_from_slice(&((thread << 56) | cycle).to_le_bytes());
        self.buf[8..16].copy_from_slice(&chunk.to_le_bytes());
        checksum(&self.buf)
    }
}

#[allow(clippy::too_many_arguments)]
fn load_thread(
    thread: u64,
    next_cycle: &mut u64,
    job: &JobClient,
    chunks: u64,
    seed: u64,
    meet: &Rendezvous,
    w: &Window,
    tracer: &Tracer,
) -> ThreadLog {
    let mut cx = Ctx::new(w, tracer);
    let mut data = Chunks {
        buf: vec![0u8; CHUNK],
        sums: vec![0; chunks as usize],
    };
    fill(&mut data.buf, seed ^ (thread << 32));
    while !w.done() {
        let cycle = *next_cycle;
        *next_cycle += 1;
        let req = (thread << 40) | cycle;
        let root = cx.trace.root("file_cycle", req);
        let cycle_start = w.epoch.now_ns();
        let name = format!("f{thread}-{cycle}");
        let Some(file) = cx.call("open_file", Layer::Controller, req, root.id, || {
            job.open_file(&name, &[])
        }) else {
            break;
        };
        for c in 0..chunks {
            data.sums[c as usize] = data.stamp(thread, cycle, c);
            cx.data_op(
                "file.write_at",
                OpKind::Write,
                CHUNK as u64,
                req,
                root.id,
                || file.write_at(c * CHUNK as u64, &data.buf),
            );
        }
        // Both threads finish writing before either reads, so write
        // timings never overlap the other thread's reads. The meeting is
        // called off when either thread sees the window close.
        if !meet.wait() {
            let _ = job.remove_addr_prefix(&name);
            break;
        }
        for c in 0..chunks {
            let got = cx.data_op(
                "file.read_at",
                OpKind::Read,
                CHUNK as u64,
                req,
                root.id,
                || file.read_at(c * CHUNK as u64, CHUNK as u64),
            );
            if let Some(got) = got {
                cx.check(checksum(&got) == data.sums[c as usize], || {
                    format!("{name}: chunk {c} read back with a different checksum")
                });
            }
        }
        cx.call(
            "remove_addr_prefix",
            Layer::Controller,
            req,
            root.id,
            || job.remove_addr_prefix(&name),
        );
        cx.log.cycle(w, cycle_start, root.recorded());
        cx.trace.close(root);
    }
    meet.call_off();
    cx.log
}

impl Session for FileSession<'_> {
    fn run(&mut self, warmup: Duration, window: Duration, tracer: &Tracer) -> Recording {
        let jobs: Vec<JobClient> = (0..THREADS)
            .map(|_| JobClient::attach(self.bench.cluster.client().expect("client"), self.job))
            .collect();
        let meet = Rendezvous::new(THREADS);
        let (chunks, seed, meet) = (self.chunks, self.cfg.seed, &meet);
        let bodies: Vec<_> = self
            .next_cycle
            .iter_mut()
            .zip(&jobs)
            .enumerate()
            .map(|(t, (next, job))| {
                move |w: &Window| load_thread(t as u64, next, job, chunks, seed, meet, w, tracer)
            })
            .collect();
        drive(self.cfg.epoch, warmup, window, bodies)
    }
}

/// A two-party meeting point that can be called off: the barrier between
/// `file_bulk`'s write and read phases. A plain barrier would hang the
/// thread that arrives after its partner saw the window close.
struct Rendezvous {
    state: Mutex<(usize, u64, bool)>,
    arrived: Condvar,
    parties: usize,
}

impl Rendezvous {
    /// A meeting point for `parties` threads.
    fn new(parties: usize) -> Self {
        Self {
            state: Mutex::new((0, 0, false)),
            arrived: Condvar::new(),
            parties,
        }
    }

    /// Waits for every party; `false` when the meeting was called off.
    fn wait(&self) -> bool {
        let mut st = self.state.lock();
        if st.2 {
            return false;
        }
        st.0 += 1;
        if st.0 == self.parties {
            st.0 = 0;
            st.1 += 1;
            self.arrived.notify_all();
            return true;
        }
        let generation = st.1;
        while st.1 == generation && !st.2 {
            self.arrived.wait(&mut st);
        }
        st.1 != generation
    }

    /// Calls the meeting off: current and future waiters return `false`.
    fn call_off(&self) {
        self.state.lock().2 = true;
        self.arrived.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jiffy_sync::Arc;

    #[test]
    fn rendezvous_meets_then_releases_when_called_off() {
        let r = Arc::new(Rendezvous::new(2));
        let r2 = r.clone();
        let t = std::thread::spawn(move || (r2.wait(), r2.wait()));
        assert!(r.wait());
        r.call_off();
        assert_eq!(t.join().unwrap(), (true, false));
        assert!(!r.wait());
    }
}
