//! Virtual-time lifetime experiments on the real system (Fig. 11a,
//! Fig. 14).
//!
//! An in-process Jiffy cluster runs under a [`ManualClock`]. The driver
//! replays a single tenant's slice of the Snowflake-calibrated trace —
//! every job-stage output becomes an address prefix holding one data
//! structure; its bytes are written through the real client, its lease
//! is renewed while a consumer exists, and reclamation happens through
//! the real lease-expiry path. Sampling `used` vs `allocated` bytes per
//! tick reproduces the green/red areas of Fig. 11(a) and Fig. 14.
//!
//! [`ManualClock`]: jiffy_common::clock::ManualClock

use jiffy_sync::Arc;
use std::collections::HashMap;
use std::time::Duration;

use jiffy::cluster::JiffyCluster;
use jiffy::{DsType, JiffyConfig, JobClient};
use jiffy_common::clock::ManualClock;
use jiffy_persistent::MemObjectStore;
use jiffy_workloads::{SnowflakeConfig, Trace, Zipf};
use rand::SeedableRng;

/// Configuration for one lifetime run.
#[derive(Debug, Clone)]
pub struct LifetimeConfig {
    /// Data structure under test.
    pub ds: DsType,
    /// System parameters (block size, lease duration, thresholds —
    /// exactly the Fig. 14 sweep knobs).
    pub jiffy: JiffyConfig,
    /// Cluster capacity in blocks.
    pub blocks: u32,
    /// Virtual-time ticks to run.
    pub ticks: usize,
    /// Virtual time per tick.
    pub tick: Duration,
    /// Peak live bytes the scaled trace should reach.
    pub target_peak_bytes: u64,
    /// Trace seed.
    pub seed: u64,
}

impl Default for LifetimeConfig {
    fn default() -> Self {
        Self {
            ds: DsType::File,
            jiffy: JiffyConfig::for_testing().with_block_size(16 * 1024),
            blocks: 1024,
            ticks: 60,
            tick: Duration::from_secs(60),
            target_peak_bytes: 2 << 20,
            seed: 0x000F_1611,
        }
    }
}

/// One sampled point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifetimeSample {
    /// Tick index.
    pub tick: usize,
    /// Intermediate-data bytes resident (used).
    pub used: u64,
    /// Block bytes allocated (held).
    pub allocated: u64,
}

/// Result of a lifetime run.
#[derive(Debug, Clone)]
pub struct LifetimeOutcome {
    /// The per-tick samples.
    pub samples: Vec<LifetimeSample>,
    /// Controller split count at the end.
    pub splits: u64,
    /// Controller merge count at the end.
    pub merges: u64,
    /// Leases expired (prefixes reclaimed).
    pub leases_expired: u64,
}

impl LifetimeOutcome {
    /// Time-averaged utilization: used / allocated over ticks where
    /// anything was allocated.
    pub fn avg_utilization(&self) -> f64 {
        let (mut used, mut alloc) = (0.0, 0.0);
        for s in &self.samples {
            used += s.used as f64;
            alloc += s.allocated as f64;
        }
        if alloc == 0.0 {
            0.0
        } else {
            used / alloc
        }
    }

    /// Peak allocated bytes.
    pub fn peak_allocated(&self) -> u64 {
        self.samples.iter().map(|s| s.allocated).max().unwrap_or(0)
    }

    /// Peak used bytes.
    pub fn peak_used(&self) -> u64 {
        self.samples.iter().map(|s| s.used).max().unwrap_or(0)
    }
}

/// A prefix-lifetime op scheduled at a tick.
#[derive(Debug, Clone)]
enum Op {
    /// Create the prefix and write `bytes` into it.
    Write { prefix: String, bytes: u64 },
    /// The consumer finished: stop renewing (lease expiry reclaims).
    Consume { prefix: String },
}

/// Runs the experiment, returning the sampled timeline.
///
/// # Errors
///
/// Cluster failures.
pub fn run(cfg: &LifetimeConfig) -> jiffy::Result<LifetimeOutcome> {
    let (clock, shared) = ManualClock::shared();
    let cluster = JiffyCluster::build_with_shards(
        cfg.jiffy.clone(),
        2,
        cfg.blocks / 2,
        shared,
        Arc::new(MemObjectStore::new()),
        false,
        false,
        1,
    )?;
    let job = cluster.client()?.register_job("lifetime")?;
    let schedule = build_schedule(cfg);

    let mut writer = DsWriter::new(cfg, &job);
    let mut live: Vec<String> = Vec::new();
    let mut samples = Vec::with_capacity(cfg.ticks);
    for (tick, ops) in schedule.iter().enumerate().take(cfg.ticks) {
        for op in ops {
            match op {
                Op::Write { prefix, bytes } => {
                    if let Err(e) = writer.write(prefix, *bytes) {
                        let stats = cluster.controller().stats();
                        eprintln!("write {prefix} ({bytes} B) at tick {tick} failed: {e}; stats {stats:?}");
                        return Err(e);
                    }
                    live.push(prefix.clone());
                }
                Op::Consume { prefix } => {
                    writer.consume(prefix)?;
                    live.retain(|p| p != prefix);
                }
            }
        }
        // Virtual time passes...
        clock.advance(cfg.tick);
        // ...the running tasks renew their leases (their renewal loops
        // fire many times per tick in real time; once after the advance
        // is equivalent under the manual clock)...
        for p in &live {
            let _ = job.renew_lease(p);
        }
        // ...and the expiry worker reclaims what nobody renewed.
        cluster.controller().run_expiry_once();
        if std::env::var("JIFFY_LIFETIME_DEBUG").is_ok() {
            let st = cluster.controller().stats();
            eprintln!(
                "tick {tick}: live={} used={} alloc_blocks={} free={} splits={} expired={}",
                live.len(),
                cluster.used_bytes(),
                cluster.allocated_blocks(),
                st.free_blocks,
                st.splits,
                st.leases_expired
            );
        }
        samples.push(LifetimeSample {
            tick,
            used: cluster.used_bytes(),
            allocated: cluster.allocated_blocks() as u64 * cfg.jiffy.block_size as u64,
        });
    }
    let stats = cluster.controller().stats();
    Ok(LifetimeOutcome {
        samples,
        splits: stats.splits,
        merges: stats.merges,
        leases_expired: stats.leases_expired,
    })
}

/// Derives a per-tick op schedule from one tenant of a small
/// Snowflake-calibrated trace, scaled to `target_peak_bytes`.
fn build_schedule(cfg: &LifetimeConfig) -> Vec<Vec<Op>> {
    // One tenant running minutes-long queries (the Fig. 11a view):
    // longer per-stage times than the Fig. 9 aggregate calibration so
    // each stage output lives across several sampling ticks.
    let trace = Trace::generate(&SnowflakeConfig {
        tenants: 1,
        window: Duration::from_secs(3600),
        jobs_per_tenant_hour: 30.0,
        stage_base_secs: 90.0,
        compute_bps: 2.0e6,
        seed: cfg.seed,
        ..SnowflakeConfig::default()
    });
    // A stage output lives from its stage end to the next stage's end.
    struct Span {
        start: f64,
        end: f64,
        bytes: u64,
    }
    let mut spans = Vec::new();
    for job in &trace.jobs {
        let mut t = job.arrival.as_secs_f64();
        let mut prev: Option<(f64, u64)> = None;
        for s in &job.stages {
            t += s.compute.as_secs_f64() + 1.0;
            if let Some((start, bytes)) = prev.take() {
                spans.push(Span {
                    start,
                    end: t,
                    bytes,
                });
            }
            prev = Some((t, s.write_bytes));
        }
        if let Some((start, bytes)) = prev {
            spans.push(Span {
                start,
                end: t + 1.0,
                bytes,
            });
        }
    }
    // Scale bytes so the peak concurrent footprint hits the target.
    let window = trace.window.as_secs_f64();
    let mut peak = 0u64;
    {
        let mut events: Vec<(f64, i64)> = Vec::new();
        for s in &spans {
            events.push((s.start, s.bytes as i64));
            events.push((s.end, -(s.bytes as i64)));
        }
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN"));
        let mut live = 0i64;
        for (_, d) in events {
            live += d;
            peak = peak.max(live.max(0) as u64);
        }
    }
    let scale = cfg.target_peak_bytes as f64 / peak.max(1) as f64;

    let mut schedule: Vec<Vec<Op>> = (0..cfg.ticks).map(|_| Vec::new()).collect();
    for (i, s) in spans.iter().enumerate() {
        let start_frac = s.start / window;
        // Drop spans that would start at the very end of the run (their
        // consumption would fall outside the sampled window).
        if start_frac >= 0.9 {
            continue;
        }
        let start_tick = (start_frac * cfg.ticks as f64) as usize;
        let end_tick = (((s.end / window) * cfg.ticks as f64).ceil() as usize)
            .clamp(start_tick + 1, cfg.ticks - 1);
        let bytes = ((s.bytes as f64 * scale) as u64).max(2048);
        let prefix = format!("out-{i}");
        schedule[start_tick].push(Op::Write {
            prefix: prefix.clone(),
            bytes,
        });
        schedule[end_tick].push(Op::Consume { prefix });
    }
    schedule
}

/// Writes bytes into prefixes using the configured data structure.
struct DsWriter<'a> {
    ds: DsType,
    job: &'a JobClient,
    kv_keys: Zipf,
    rng: rand::rngs::StdRng,
    /// Items written per prefix (so consume can clean up queues).
    written: HashMap<String, u64>,
}

impl<'a> DsWriter<'a> {
    fn new(cfg: &LifetimeConfig, job: &'a JobClient) -> Self {
        Self {
            ds: cfg.ds,
            job,
            kv_keys: Zipf::new(100_000, 1.0),
            rng: rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0x5EED),
            written: HashMap::new(),
        }
    }

    fn write(&mut self, prefix: &str, bytes: u64) -> jiffy::Result<()> {
        const ITEM: u64 = 1024;
        let items = bytes.div_ceil(ITEM);
        match self.ds {
            DsType::File => {
                let f = self.job.open_file(prefix, &[])?;
                let payload = vec![0x5Au8; ITEM as usize];
                for _ in 0..items {
                    f.append(&payload)?;
                }
            }
            DsType::Queue => {
                let q = self.job.open_queue(prefix, &[])?;
                let payload = vec![0x5Au8; ITEM as usize];
                for _ in 0..items {
                    q.enqueue(&payload)?;
                }
            }
            DsType::KvStore => {
                let kv = self.job.open_kv(prefix, &[], 1)?;
                // Zipf-sampled keys (paper §6.3): repeated hot keys
                // overwrite, skewing block load — the KV worst case.
                for _ in 0..items {
                    let key = self.kv_keys.sample(&mut self.rng);
                    kv.put(
                        format!("k{key}").as_bytes(),
                        vec![0x5Au8; ITEM as usize].as_slice(),
                    )?;
                }
            }
        }
        self.written.insert(prefix.to_string(), items);
        Ok(())
    }

    fn consume(&mut self, prefix: &str) -> jiffy::Result<()> {
        // Consumers read the data before abandoning the lease; queue
        // consumers additionally drain it (their read IS destructive).
        if self.ds == DsType::Queue {
            if let Ok(q) = self.job.open_queue(prefix, &[]) {
                while q.dequeue()?.is_some() {}
            }
        }
        self.written.remove(prefix);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(ds: DsType) -> LifetimeConfig {
        LifetimeConfig {
            ds,
            ticks: 24,
            blocks: 1024,
            // Large enough that typical spans span several blocks;
            // with a smaller peak most spans collapse to the 2 KiB
            // write floor and block rounding (16 KiB blocks) dominates
            // utilization, which is not what this test measures.
            target_peak_bytes: 4 * 1024 * 1024,
            ..LifetimeConfig::default()
        }
    }

    #[test]
    fn file_lifetime_tracks_demand() {
        let out = run(&quick_cfg(DsType::File)).unwrap();
        assert_eq!(out.samples.len(), 24);
        // Memory was allocated and later reclaimed.
        assert!(out.peak_allocated() > 0);
        assert!(out.leases_expired > 0, "expiry reclaimed prefixes");
        // Allocation always covers usage and never exceeds it by more
        // than the block-rounding + lease-lag envelope.
        for s in &out.samples {
            assert!(s.allocated >= s.used, "{s:?}");
        }
        // Utilization is high for files (no repartition slack).
        assert!(out.avg_utilization() > 0.35, "{}", out.avg_utilization());
    }

    #[test]
    fn queue_lifetime_tracks_demand() {
        let out = run(&quick_cfg(DsType::Queue)).unwrap();
        assert!(out.peak_used() > 0);
        assert!(out.leases_expired > 0);
        assert!(out.avg_utilization() > 0.3, "{}", out.avg_utilization());
    }

    #[test]
    fn kv_allocates_more_than_it_uses() {
        // The paper's KV worst case: Zipf keys → skewed blocks →
        // allocated exceeds used noticeably more than file/queue.
        let kv = run(&quick_cfg(DsType::KvStore)).unwrap();
        let file = run(&quick_cfg(DsType::File)).unwrap();
        assert!(
            kv.avg_utilization() <= file.avg_utilization() + 0.05,
            "kv {} vs file {}",
            kv.avg_utilization(),
            file.avg_utilization()
        );
        assert!(kv.splits > 0);
    }

    #[test]
    fn memory_returns_to_zero_after_the_trace_drains() {
        let mut cfg = quick_cfg(DsType::File);
        cfg.ticks = 30;
        let out = run(&cfg).unwrap();
        // The tail of the run (after all consumes + lease expiry)
        // should hold little or nothing.
        let tail = out.samples.last().unwrap();
        assert!(
            tail.allocated <= out.peak_allocated() / 2,
            "tail {tail:?} vs peak {}",
            out.peak_allocated()
        );
    }
}
