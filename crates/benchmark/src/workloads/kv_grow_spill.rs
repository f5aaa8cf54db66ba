//! `kv_grow_spill` — repartitioning under writes, then the spill path.
//!
//! 2 servers x 256 blocks of 256 KB, `chain_length = 1`, one shard. One
//! driver thread, in cycles: `open_kv(name, 1 block)` → 4 096 x 1 KB
//! `put` (4 MB into 256 KB blocks: the store splits thirty times
//! while the puts proceed) → `JobClient::flush` → `remove_addr_prefix` +
//! `create_addr_prefix` → `JobClient::load` → `get` 256 sampled keys and
//! compare → `remove_addr_prefix`; then `allocated_blocks()` must be back
//! to 0 and flushed bytes must equal loaded bytes. The paper's §3.3 claim
//! (repartition without stalling ops) and its §3.2/§4 spill path on the
//! live system: the same unreplicated `put` path as `kv_small_repl` used
//! differently, split export/import in `block`/`ds`, block allocation in
//! `controller`, and the persistent tier carrying data rather than
//! journal records. One thread, so every count repeats exactly.
//!
//! write = `put` while the store grows, read = `get` after the reload,
//! op = either, `write_mb_per_s` = `flush`, `read_mb_per_s` = `load`,
//! cycle = the whole grow → flush → load → verify → remove sequence.
//!
//! The issue sized a cycle at 16 384 puts for a 24 s window. The driver's
//! time budget allows a 16 s window, which would hold 28 such cycles; at
//! a quarter of that it holds about 150 and every per-cycle figure
//! (flush and load MB/s, cycle p90) has its samples.

use std::time::Duration;

use jiffy_client::JobClient;
use jiffy_common::Result;
use jiffy_proto::{Blob, DsOp};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::{fill, Ctx, OpMix, RunCfg, Session, Workload, NO_EXPIRY};
use crate::load::{drive, Bench, BulkFrom, OpKind, Recording, Shape, SummarySpec, Window};
use crate::stats::percentile;
use crate::trace::{Layer, Tracer};

const VALUE_LEN: usize = 1024;
const PUTS_PER_CYCLE: u64 = 4_096;
const SMOKE_PUTS_PER_CYCLE: u64 = 512;
const SAMPLED_GETS: u64 = 256;
const SMOKE_SAMPLED_GETS: u64 = 32;

/// See the module docs.
pub struct KvGrowSpill;

fn key(i: u64) -> Vec<u8> {
    format!("k{i:08}").into_bytes()
}

fn value(cycle: u64, i: u64, version: u64) -> [u8; VALUE_LEN] {
    let mut v = [0u8; VALUE_LEN];
    fill(&mut v, (cycle << 40) ^ (i << 8) ^ version);
    v
}

impl Workload for KvGrowSpill {
    fn name(&self) -> &'static str {
        "kv_grow_spill"
    }

    fn why(&self) -> &'static str {
        "1 KB puts into a store that splits 30x per cycle, then flush/load through the persistent \
         tier: repartition without stalling ops, block allocation, spill path with real data"
    }

    fn shape(&self, _smoke: bool) -> Shape {
        Shape {
            servers: 2,
            blocks_per_server: 256,
            block_size: 256 << 10,
            chain_length: 1,
            shards: 1,
            lease: NO_EXPIRY,
        }
    }

    fn spec(&self) -> SummarySpec {
        SummarySpec {
            write_bulk: BulkFrom::Calls(OpKind::SpillOut),
            read_bulk: BulkFrom::Calls(OpKind::SpillIn),
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
                value: Blob::new(value(0, i, 0).to_vec()),
            },
            // 128 KB of values: half a block, below the split threshold.
            span: 128,
        }
    }

    fn threads(&self) -> usize {
        1
    }

    fn prepare<'a>(&self, bench: &'a Bench, cfg: RunCfg) -> Result<Box<dyn Session + 'a>> {
        Ok(Box::new(GrowSession {
            bench,
            cfg,
            job: bench.cluster.client()?.register_job("kv_grow_spill")?,
            puts: if cfg.smoke {
                SMOKE_PUTS_PER_CYCLE
            } else {
                PUTS_PER_CYCLE
            },
            gets: if cfg.smoke {
                SMOKE_SAMPLED_GETS
            } else {
                SAMPLED_GETS
            },
            rng: StdRng::seed_from_u64(cfg.seed),
            next_cycle: 0,
        }))
    }
}

struct GrowSession<'a> {
    bench: &'a Bench,
    cfg: RunCfg,
    job: JobClient,
    puts: u64,
    gets: u64,
    rng: StdRng,
    next_cycle: u64,
}

/// Exact counts and the growth comparison of one cycle.
struct CycleFacts {
    splits: f64,
    /// p50 of the puts that grew the store ÷ p50 of the same puts issued
    /// again once it had stopped growing; only with `reput`.
    slowdown: Option<f64>,
}

impl GrowSession<'_> {
    /// One grow → flush → load → verify → remove cycle. With `reput`, the
    /// keys are put a second time before the flush, at steady size (the
    /// comparison `ds.grow_put_slowdown` reports; never inside a window).
    fn cycle(&mut self, cx: &mut Ctx<'_>, reput: bool) -> Option<CycleFacts> {
        let cycle = self.next_cycle;
        self.next_cycle += 1;
        let (w, job, req) = (cx.w, self.job.clone(), cycle);
        let root = cx.trace.root("grow_spill_cycle", req);
        let start = w.epoch.now_ns();
        let name = format!("g{cycle}");
        let spill = format!("spill/g{cycle}");

        let kv = cx.call("open_kv", Layer::Controller, req, root.id, || {
            job.open_kv(&name, &[], 1)
        })?;
        let mut grow_us = Vec::new();
        for i in 0..self.puts {
            let v = value(cycle, i, 0);
            let t0 = w.epoch.now_ns();
            cx.data_op(
                "kv.put",
                OpKind::Write,
                VALUE_LEN as u64,
                req,
                root.id,
                || kv.put(&key(i), &v),
            )?;
            grow_us.push((w.epoch.now_ns() - t0) as f64 / 1e3);
        }
        let splits = self.bench.cluster.allocated_blocks().saturating_sub(1) as f64;
        let mut version = 0;
        let mut slowdown = None;
        if reput {
            version = 1;
            let mut steady_us = Vec::new();
            for i in 0..self.puts {
                let v = value(cycle, i, version);
                let t0 = w.epoch.now_ns();
                kv.put(&key(i), &v).ok()?;
                steady_us.push((w.epoch.now_ns() - t0) as f64 / 1e3);
            }
            slowdown = Some(percentile(&mut grow_us, 50.0)? / percentile(&mut steady_us, 50.0)?);
        }

        let t0 = w.epoch.now_ns();
        let span = cx.trace.open("flush", Layer::Controller, req, root.id);
        let flushed = job.flush(&name, &spill);
        cx.trace.close(span);
        cx.log.op(
            w,
            OpKind::SpillOut,
            *flushed.as_ref().unwrap_or(&0),
            t0,
            flushed.is_ok(),
        );
        let flushed = flushed.ok()?;
        // The prefix must hold no live structure when it is loaded into.
        cx.call(
            "remove_addr_prefix",
            Layer::Controller,
            req,
            root.id,
            || job.remove_addr_prefix(&name),
        )?;
        cx.call(
            "create_addr_prefix",
            Layer::Controller,
            req,
            root.id,
            || job.create_addr_prefix(&name, &[]),
        )?;
        let t0 = w.epoch.now_ns();
        let span = cx.trace.open("load", Layer::Controller, req, root.id);
        let loaded = job.load(&name, &spill);
        cx.trace.close(span);
        cx.log.op(
            w,
            OpKind::SpillIn,
            *loaded.as_ref().unwrap_or(&0),
            t0,
            loaded.is_ok(),
        );
        let loaded = loaded.ok()?;
        cx.check(
            flushed == loaded && flushed >= self.puts * VALUE_LEN as u64,
            || format!("{name}: flushed {flushed} B but loaded {loaded} B"),
        );

        let kv = cx.call("open_kv", Layer::Controller, req, root.id, || {
            job.open_kv(&name, &[], 1)
        })?;
        for _ in 0..self.gets {
            let i = self.rng.random_range(0..self.puts);
            let want = value(cycle, i, version);
            let got = cx.data_op(
                "kv.get",
                OpKind::Read,
                VALUE_LEN as u64,
                req,
                root.id,
                || kv.get(&key(i)),
            )?;
            cx.check(got.as_deref() == Some(&want[..]), || {
                format!("{name}: key {i} came back from the persistent tier changed or missing")
            });
        }
        cx.call(
            "remove_addr_prefix",
            Layer::Controller,
            req,
            root.id,
            || job.remove_addr_prefix(&name),
        )?;
        let left = self.bench.cluster.allocated_blocks();
        cx.check(left == 0, || {
            format!("{name}: {left} blocks still allocated after the remove")
        });
        cx.log.cycle(w, start, root.recorded());
        cx.trace.close(root);
        // Housekeeping outside the cycle: drop the spilled object so the
        // in-memory store does not grow with the number of cycles.
        let _ = jiffy_persistent::ObjectStore::delete(&*self.bench.store, &spill);
        Some(CycleFacts { splits, slowdown })
    }
}

impl Session for GrowSession<'_> {
    fn run(&mut self, warmup: Duration, window: Duration, tracer: &Tracer) -> Recording {
        let epoch = self.cfg.epoch;
        let body = |w: &Window| {
            let mut cx = Ctx::new(w, tracer);
            // A cycle that fails ends the run; the error is already counted.
            while !w.done() && self.cycle(&mut cx, false).is_some() {}
            cx.log
        };
        drive(epoch, warmup, window, vec![body])
    }

    fn extra_layer_metrics(&mut self) -> Vec<(&'static str, f64)> {
        let epoch = self.cfg.epoch;
        let w = Window {
            epoch,
            start_ns: epoch.now_ns(),
            end_ns: u64::MAX,
        };
        let mut cx = Ctx::new(&w, &Tracer::off());
        match self.cycle(&mut cx, true) {
            Some(facts) if cx.log.failed == 0 => vec![
                ("ds.splits_per_cycle", facts.splits),
                ("ds.grow_put_slowdown", facts.slowdown.unwrap_or(0.0)),
            ],
            _ => Vec::new(),
        }
    }
}
