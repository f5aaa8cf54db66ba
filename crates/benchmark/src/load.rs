//! Cluster boot, the closed-loop load runner and the summary that turns
//! samples into the end-to-end metrics.
//!
//! Load is closed-loop — a Jiffy client is a task that waits for each
//! reply — from at most two threads of this one process, all on one CPU
//! ([`crate::host::pin_to_one_cpu`]).
//! Threads run from before the warm-up to the end of the window without
//! a pause; only samples that complete inside the window are kept, and
//! every timing is reduced per round first, then to the median over
//! rounds ([`crate::stats::round_estimate`]).

use std::time::Duration;

use jiffy::cluster::JiffyCluster;
use jiffy_common::clock::SystemClock;
use jiffy_common::{JiffyConfig, Result};
use jiffy_persistent::MemObjectStore;
use jiffy_sync::Arc;

use crate::host::{cpu_time_us, Epoch};
use crate::metrics::Measured;
use crate::stats::{percentile, round_estimate, Estimate};
use crate::store::CountingStore;

/// Size and policy of one benchmark cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Memory servers.
    pub servers: usize,
    /// Blocks each server offers.
    pub blocks_per_server: u32,
    /// Bytes per block.
    pub block_size: usize,
    /// Replication chain length.
    pub chain_length: usize,
    /// Controller shards.
    pub shards: usize,
    /// Lease duration. Workloads that renew nothing use an hour: the
    /// expiry worker is always running.
    pub lease: Duration,
}

/// A booted cluster with the store decorator it journals and spills to.
pub struct Bench {
    /// The cluster under test.
    pub cluster: JiffyCluster,
    /// Its persistent tier, observed from outside.
    pub store: Arc<CountingStore>,
}

/// Boots a cluster. Every cluster the benchmark uses — the four under
/// load and the probes', TCP or in-process — comes from this one call to
/// `JiffyCluster::build_with_shards`: system clock, counting store over
/// a `MemObjectStore`, expiry worker running, QoS at its default
/// (disabled), autoscaler not started.
///
/// # Errors
///
/// Bind or registration failures.
pub fn boot(shape: &Shape, tcp: bool, epoch: Epoch) -> Result<Bench> {
    let cfg = JiffyConfig::default()
        .with_block_size(shape.block_size)
        .with_chain_length(shape.chain_length)
        .with_lease_duration(shape.lease);
    let store = CountingStore::new(Arc::new(MemObjectStore::new()), epoch);
    let cluster = JiffyCluster::build_with_shards(
        cfg,
        shape.servers,
        shape.blocks_per_server,
        SystemClock::shared(),
        store.clone(),
        true,
        tcp,
        shape.shards,
    )?;
    Ok(Bench { cluster, store })
}

/// What a timed call did, for the summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A read-like client call (`get`, `read_at`).
    Read,
    /// A write-like client call (`put`, `write_at`).
    Write,
    /// One whole analytics job, the only thing a `mr_job_churn` client
    /// waits on: counts once as an op and fills both the read and the
    /// write side.
    Job,
    /// One `JobClient::flush` to the persistent tier.
    SpillOut,
    /// One `JobClient::load` from the persistent tier.
    SpillIn,
}

impl OpKind {
    fn is_op(self) -> bool {
        matches!(self, Self::Read | Self::Write | Self::Job)
    }

    fn is_read(self) -> bool {
        matches!(self, Self::Read | Self::Job)
    }

    fn is_write(self) -> bool {
        matches!(self, Self::Write | Self::Job)
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Completion time on the benchmark's epoch.
    pub end_ns: u64,
    /// Latency.
    pub dur_ns: u64,
    /// User payload bytes moved.
    pub bytes: u64,
    /// What kind of call.
    pub kind: OpKind,
}

/// One completed unit of work (task slice, file cycle, job, grow-spill
/// cycle).
#[derive(Debug, Clone, Copy)]
pub struct CycleSample {
    /// Completion time on the benchmark's epoch.
    pub end_ns: u64,
    /// Duration.
    pub dur_ns: u64,
    /// Whether spans were recorded for it (a traced window records
    /// every other half second; see [`crate::trace`]).
    pub traced: bool,
}

/// The measurement window as the load threads see it.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// The shared time base.
    pub epoch: Epoch,
    /// Warm-up ends, measurement starts.
    pub start_ns: u64,
    /// Measurement ends; threads stop at their next cycle boundary.
    pub end_ns: u64,
}

impl Window {
    /// Whether the window has closed.
    pub fn done(&self) -> bool {
        self.epoch.now_ns() >= self.end_ns
    }
}

/// What one load thread hands back.
#[derive(Debug, Default)]
pub struct ThreadLog {
    /// Calls that completed inside the window.
    pub ops: Vec<OpSample>,
    /// Cycles that completed inside the window.
    pub cycles: Vec<CycleSample>,
    /// Every cycle completed, warm-up and the one that ran past the end
    /// of the window included: what counts taken around the whole run
    /// (the store decorator's) are divided by.
    pub cycles_run: u64,
    /// Every operation issued, warm-up included.
    pub attempted: u64,
    /// Operations that errored or returned a wrong value.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl ThreadLog {
    /// Records a call that started at `start_ns` and just returned.
    /// `ok == false` counts it as failed; it then carries no latency.
    pub fn op(&mut self, w: &Window, kind: OpKind, bytes: u64, start_ns: u64, ok: bool) {
        let end_ns = w.epoch.now_ns();
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        } else if end_ns >= w.start_ns && end_ns < w.end_ns {
            self.ops.push(OpSample {
                end_ns,
                dur_ns: end_ns - start_ns,
                bytes,
                kind,
            });
        }
    }

    /// Records a cycle that started at `start_ns` and just completed.
    pub fn cycle(&mut self, w: &Window, start_ns: u64, traced: bool) {
        let end_ns = w.epoch.now_ns();
        self.cycles_run += 1;
        if end_ns >= w.start_ns && end_ns < w.end_ns {
            self.cycles.push(CycleSample {
                end_ns,
                dur_ns: end_ns - start_ns,
                traced,
            });
        }
    }

    /// Counts a failed check and keeps its message.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what());
        }
    }
}

/// Everything one run of a workload produced.
#[derive(Debug, Default)]
pub struct Recording {
    /// All threads' logs merged.
    pub log: ThreadLog,
    /// Window length.
    pub window_ns: u64,
    /// Window start on the epoch.
    pub start_ns: u64,
    /// Process CPU time consumed inside the window, µs.
    pub cpu_us: f64,
    /// Load-generating threads.
    pub threads: usize,
}

/// Runs `threads` closed-loop load threads through a warm-up and a
/// window, reading the process's CPU time at both edges of the window.
pub fn drive<F>(epoch: Epoch, warmup: Duration, window: Duration, threads: Vec<F>) -> Recording
where
    F: FnOnce(&Window) -> ThreadLog + Send,
{
    let begin = epoch.now_ns();
    let w = Window {
        epoch,
        start_ns: begin + warmup.as_nanos() as u64,
        end_ns: begin + (warmup + window).as_nanos() as u64,
    };
    let sleep_until = |t_ns: u64| {
        let now = epoch.now_ns();
        if t_ns > now {
            std::thread::sleep(Duration::from_nanos(t_ns - now));
        }
    };
    let n = threads.len();
    let mut rec = Recording {
        window_ns: window.as_nanos() as u64,
        start_ns: w.start_ns,
        threads: n,
        ..Recording::default()
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = threads
            .into_iter()
            .map(|f| {
                let w = &w;
                s.spawn(move || f(w))
            })
            .collect();
        sleep_until(w.start_ns);
        let cpu0 = cpu_time_us();
        sleep_until(w.end_ns);
        rec.cpu_us = cpu_time_us() - cpu0;
        for h in handles {
            let mut log = h.join().expect("load thread panicked");
            rec.log.ops.append(&mut log.ops);
            rec.log.cycles.append(&mut log.cycles);
            rec.log.cycles_run += log.cycles_run;
            rec.log.attempted += log.attempted;
            rec.log.failed += log.failed;
            rec.log.errors.append(&mut log.errors);
        }
    });
    rec
}

/// Where a workload's MB/s figures come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BulkFrom {
    /// Many small calls: payload bytes over time spent in calls of this
    /// kind, per round, then the median over rounds.
    Ops(OpKind),
    /// A few large calls (one flush per cycle): MB/s of each call, then
    /// the median over calls.
    Calls(OpKind),
}

/// How the summary reads one workload's samples.
#[derive(Debug, Clone, Copy)]
pub struct SummarySpec {
    /// Source of `write_mb_per_s`.
    pub write_bulk: BulkFrom,
    /// Source of `read_mb_per_s`.
    pub read_bulk: BulkFrom,
}

/// Smallest round a percentile is taken over; emptier rounds are left
/// out of the median.
const MIN_ROUND_SAMPLES: usize = 20;

/// Cycles a round of the cycle percentiles should hold.
const CYCLES_PER_ROUND: usize = 20;

fn rel(samples: &[OpSample], start_ns: u64, pick: impl Fn(&OpSample) -> bool) -> Vec<(u64, f64)> {
    samples
        .iter()
        .filter(|s| pick(s))
        .map(|s| (s.end_ns - start_ns, s.dur_ns as f64 / 1e3))
        .collect()
}

/// Median over rounds of a per-round percentile; when no round has
/// enough samples (a 1 s smoke run), the percentile of the whole window.
fn pct_estimate(samples: &[(u64, f64)], window_ns: u64, rounds: usize, p: f64) -> Option<Estimate> {
    round_estimate(samples, window_ns, rounds, MIN_ROUND_SAMPLES, |b| {
        percentile(b, p)
    })
    .or_else(|| round_estimate(samples, window_ns, 1, 1, |b| percentile(b, p)))
}

fn bulk_estimate(rec: &Recording, rounds: usize, from: BulkFrom) -> Option<Estimate> {
    match from {
        BulkFrom::Calls(kind) => {
            let per_call: Vec<f64> = rec
                .log
                .ops
                .iter()
                .filter(|s| s.kind == kind && s.dur_ns > 0)
                .map(|s| s.bytes as f64 / 1e6 / (s.dur_ns as f64 / 1e9))
                .collect();
            Estimate::of_rounds(&per_call, per_call.len())
        }
        BulkFrom::Ops(kind) => {
            let width = (rec.window_ns / rounds as u64).max(1);
            let mut sums = vec![(0u64, 0u64, 0usize); rounds];
            for s in rec.log.ops.iter().filter(|s| s.kind == kind) {
                let r = (((s.end_ns - rec.start_ns) / width) as usize).min(rounds - 1);
                sums[r].0 += s.bytes;
                sums[r].1 += s.dur_ns;
                sums[r].2 += 1;
            }
            let n: usize = sums.iter().map(|s| s.2).sum();
            let per_round: Vec<f64> = sums
                .iter()
                .filter(|s| s.1 > 0)
                .map(|s| s.0 as f64 / 1e6 / (s.1 as f64 / 1e9))
                .collect();
            Estimate::of_rounds(&per_round, n)
        }
    }
}

/// Completions per second, round by round, from ascending completion
/// times relative to the window start. Rounds are cut at completion
/// instants, not at fixed edges: a round's ops are divided by the time
/// from the last completion before the round to the last one inside it,
/// so five 200 ms jobs in a round read 4.97/s, not "4 or 5". A round in
/// which nothing completed is a round at 0 ops/s, not a round to leave
/// out.
fn rates_per_round(ends_ns: &[u64], window_ns: u64, rounds: usize) -> Vec<f64> {
    let width = (window_ns / rounds as u64).max(1);
    let (mut next, mut since_ns) = (0, 0);
    (1..=rounds as u64)
        .map(|round| {
            let first = next;
            while next < ends_ns.len() && (ends_ns[next] < round * width || round == rounds as u64)
            {
                next += 1;
            }
            if next == first || ends_ns[next - 1] <= since_ns {
                return 0.0;
            }
            let rate = (next - first) as f64 * 1e9 / (ends_ns[next - 1] - since_ns) as f64;
            since_ns = ends_ns[next - 1];
            rate
        })
        .collect()
}

/// Process CPU time per op of the window, in µs (`host.cpu_us_per_op`).
/// With every thread on one CPU and a closed loop that keeps it busy
/// this is `1e6 / ops_per_s`; it says something of its own only where
/// the workload leaves the CPU idle (`mr_job_churn`).
pub fn cpu_us_per_op(rec: &Recording) -> Option<f64> {
    let ops = rec.log.ops.iter().filter(|s| s.kind.is_op()).count();
    (ops > 0).then(|| rec.cpu_us / ops as f64)
}

/// Reduces a recording to the window-derived end-to-end metrics
/// (everything but `setup_s` and `peak_rss_mb`, which the caller adds).
/// A metric with no samples under it is left out; the caller treats a
/// missing metric as a failed run.
pub fn summarize(rec: &Recording, spec: &SummarySpec, rounds: usize) -> Vec<Measured> {
    let rounds = rounds.max(1);
    let mut out = Vec::new();
    let mut push = |name: &str, e: Option<Estimate>| {
        if let Some(e) = e {
            out.push(Measured::new(name, e.value, e.samples, e.spread));
        }
    };

    let ops = rel(&rec.log.ops, rec.start_ns, |s| s.kind.is_op());
    let mut ends: Vec<u64> = ops.iter().map(|&(end, _)| end).collect();
    ends.sort_unstable();
    push(
        "ops_per_s",
        Estimate::of_rounds(&rates_per_round(&ends, rec.window_ns, rounds), ops.len()),
    );
    let reads = rel(&rec.log.ops, rec.start_ns, |s| s.kind.is_read());
    let writes = rel(&rec.log.ops, rec.start_ns, |s| s.kind.is_write());
    push(
        "read_p50_us",
        pct_estimate(&reads, rec.window_ns, rounds, 50.0),
    );
    push(
        "write_p50_us",
        pct_estimate(&writes, rec.window_ns, rounds, 50.0),
    );
    push("op_p99_us", pct_estimate(&ops, rec.window_ns, rounds, 99.0));
    push(
        "write_mb_per_s",
        bulk_estimate(rec, rounds, spec.write_bulk),
    );
    push("read_mb_per_s", bulk_estimate(rec, rounds, spec.read_bulk));

    // Cycles are few (80 jobs in a 16 s window), so their rounds are
    // longer: as many as leave each about CYCLES_PER_ROUND cycles, a p90
    // with two samples beyond it. Still a median over rounds, so that a
    // burst of host noise moves one round's value and not the result.
    let cycles: Vec<(u64, f64)> = rec
        .log
        .cycles
        .iter()
        .map(|c| (c.end_ns - rec.start_ns, c.dur_ns as f64 / 1e6))
        .collect();
    let cycle_rounds = (cycles.len() / CYCLES_PER_ROUND).clamp(1, rounds);
    for (name, p) in [("cycle_p50_ms", 50.0), ("cycle_p90_ms", 90.0)] {
        push(
            name,
            round_estimate(&cycles, rec.window_ns, cycle_rounds, 1, |b| {
                percentile(b, p)
            }),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(end_ns: u64, dur_ns: u64, bytes: u64, kind: OpKind) -> OpSample {
        OpSample {
            end_ns,
            dur_ns,
            bytes,
            kind,
        }
    }

    #[test]
    fn summary_reduces_rounds_to_medians() {
        // Two rounds of 1 s starting at t = 1 s. 100 reads of 10 µs and
        // 100 writes of 30 µs per round, 1000 B each; one flush.
        let mut rec = Recording {
            window_ns: 2_000_000_000,
            start_ns: 1_000_000_000,
            cpu_us: 8000.0,
            threads: 1,
            ..Recording::default()
        };
        for round in 0..2u64 {
            for i in 0..100u64 {
                let t = 1_000_000_000 + round * 1_000_000_000 + i * 10_000_000;
                rec.log.ops.push(sample(t, 10_000, 1000, OpKind::Read));
                rec.log.ops.push(sample(t + 1, 30_000, 1000, OpKind::Write));
            }
        }
        rec.log.ops.push(sample(
            1_500_000_000,
            1_000_000,
            4_000_000,
            OpKind::SpillOut,
        ));
        for i in 0..10u64 {
            rec.log.cycles.push(CycleSample {
                end_ns: 1_000_000_000 + i,
                dur_ns: (i + 1) * 1_000_000,
                traced: false,
            });
        }
        let spec = SummarySpec {
            write_bulk: BulkFrom::Calls(OpKind::SpillOut),
            read_bulk: BulkFrom::Ops(OpKind::Read),
        };
        let m = summarize(&rec, &spec, 2);
        let get = |n: &str| m.iter().find(|x| x.def.name == n).unwrap().value;
        // 200 ops per round; the first round's interval starts at the
        // window's edge, not at a completion, hence not exactly 200.
        assert!((get("ops_per_s") - 200.0).abs() < 2.0);
        assert_eq!(get("read_p50_us"), 10.0);
        assert_eq!(get("write_p50_us"), 30.0);
        assert_eq!(get("op_p99_us"), 30.0);
        assert_eq!(cpu_us_per_op(&rec), Some(20.0));
        assert_eq!(get("write_mb_per_s"), 4000.0);
        assert_eq!(get("read_mb_per_s"), 100.0);
        assert_eq!(get("cycle_p50_ms"), 5.0);
        assert_eq!(get("cycle_p90_ms"), 9.0);
        // The spill call is not an op: it is in neither ops_per_s nor p99.
        assert_eq!(
            m.iter()
                .find(|x| x.def.name == "ops_per_s")
                .unwrap()
                .samples,
            400
        );
    }

    #[test]
    fn rates_are_cut_at_completion_instants() {
        // One op every 300 ms: rounds of 1 s hold 3 or 4 completions,
        // yet every round reads 3.33/s.
        let ends: Vec<u64> = (1..=13).map(|i| i * 300_000_000).collect();
        let rates = rates_per_round(&ends, 4_000_000_000, 4);
        assert_eq!(rates.len(), 4);
        for r in &rates[1..] {
            assert!((r - 1e9 / 300e6).abs() < 1e-9, "{rates:?}");
        }
        // The first round has no completion before it: it starts at 0.
        assert!((rates[0] - 3.0 / 0.9).abs() < 1e-9);
        // A silent round is a round at zero, and the silence also
        // stretches the interval of the round after it.
        let rates = rates_per_round(&[100, 200, 2_500_000_000], 3_000_000_000, 3);
        assert_eq!(rates[1], 0.0);
        assert!((rates[2] - 1e9 / (2_500_000_000.0 - 200.0)).abs() < 1e-9);
        assert_eq!(rates_per_round(&[], 1_000, 2), vec![0.0, 0.0]);
    }

    #[test]
    fn thread_log_keeps_only_window_samples_and_counts_failures() {
        let epoch = Epoch::start();
        let w = Window {
            epoch,
            start_ns: 0,
            end_ns: u64::MAX,
        };
        let mut log = ThreadLog::default();
        log.op(&w, OpKind::Read, 1, epoch.now_ns(), true);
        log.op(&w, OpKind::Read, 1, epoch.now_ns(), false);
        let closed = Window {
            epoch,
            start_ns: 0,
            end_ns: 0,
        };
        log.op(&closed, OpKind::Write, 1, 0, true);
        log.fail(|| "bad".into());
        assert_eq!((log.attempted, log.failed, log.ops.len()), (3, 2, 1));
        assert!(closed.done() && !w.done());
    }

    #[test]
    fn drive_runs_threads_through_the_window() {
        let epoch = Epoch::start();
        let body = |w: &Window| {
            let mut log = ThreadLog::default();
            while !w.done() {
                let t0 = w.epoch.now_ns();
                std::thread::sleep(Duration::from_millis(1));
                log.op(w, OpKind::Read, 8, t0, true);
                log.cycle(w, t0, false);
            }
            log
        };
        let rec = drive(
            epoch,
            Duration::from_millis(10),
            Duration::from_millis(40),
            vec![body, body],
        );
        assert_eq!(rec.threads, 2);
        assert!(rec.log.attempted > rec.log.ops.len() as u64); // warm-up ops not kept
        assert!(!rec.log.ops.is_empty() && !rec.log.cycles.is_empty());
        assert!(rec
            .log
            .ops
            .iter()
            .all(|s| s.end_ns >= rec.start_ns && s.end_ns < rec.start_ns + rec.window_ns));
    }
}
