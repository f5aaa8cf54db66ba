//! One run of one workload: the protocol every number is measured under.
//!
//! 0. **One CPU.** `main` pins the process before any thread exists
//!    ([`host::pin_to_one_cpu`]).
//! 1. **Steady host.** Before anything is timed — set-up included — the
//!    host canary runs until four consecutive half-second slices are
//!    within 5 % of each other (2 s at least, 6 s at most).
//! 2. **Set-up**: cluster boot + structure creation + preload, timed.
//! 3. **Warm-up**: 2 s of the workload's own load, discarded.
//! 4. **Window**: `--seconds` of load in rounds of 1 s; every timing is
//!    the median over rounds of the per-round statistic.
//! 5. **Canary again**: `host.drift_frac` outside [0.87, 1.15] has the
//!    window measured once more; still outside, the run is marked
//!    `host_unstable`.
//! 6. **Set-up again**, several times on fresh clusters; `setup_s` is the
//!    median of all of them.
//!
//! With `--trace 1` the window is split: a third untraced, a third with
//! spans recorded (their ratio is `trace.overhead_frac`), then the layer
//! probes; the result line then carries the per-layer metrics instead.
//!
//! The durations are what fits the driver's budget of 92 runs and two
//! builds in 3420 s; README.md lists where they fall short of ISSUE 11.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use jiffy_common::Result;

use crate::host::{self, Canary, Epoch};
use crate::json::Json;
use crate::load::{boot, cpu_us_per_op, summarize, OpKind, Recording};
use crate::metrics::{Measured, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{median, percentile};
use crate::store::{StoreCall, StoreCounts};
use crate::trace::{self, Layer, Span, Tracer};
use crate::workloads::{RunCfg, Workload};

/// Span `req` of a store call before it is matched to the request that
/// contains it in time.
const REQ_UNKNOWN: u64 = u64::MAX;

/// Drift band outside which the host is deemed to have moved.
const DRIFT_BAND: (f64, f64) = (0.87, 1.15);

/// Command-line settings of a run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// 1 s-scale run with shrunken inputs and no burn-in: keeps the
    /// benchmark compiling and correct under `cargo test`, times nothing
    /// worth reading.
    pub smoke: bool,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// The fixed durations of the protocol.
#[derive(Debug, Clone, Copy)]
struct Protocol {
    burn_slice: Duration,
    burn_min: Duration,
    burn_max: Duration,
    burn_tolerance: f64,
    /// After the window the set-up is repeated until three have run and
    /// this much wall time has gone into the repeats, tear-down
    /// included, or `setups_max` have run.
    setup_budget: Duration,
    setups_max: usize,
    warmup: Duration,
    window: Duration,
    rounds: usize,
}

impl Protocol {
    fn of(opts: &Options) -> Self {
        let window = Duration::from_secs(opts.seconds.max(1));
        if opts.smoke {
            return Self {
                burn_slice: Duration::from_millis(20),
                burn_min: Duration::ZERO,
                burn_max: Duration::from_millis(40),
                burn_tolerance: 10.0,
                setup_budget: Duration::ZERO,
                setups_max: 1,
                warmup: Duration::from_millis(200),
                window,
                rounds: 4,
            };
        }
        Self {
            burn_slice: Duration::from_millis(500),
            burn_min: Duration::from_secs(2),
            burn_max: Duration::from_secs(6),
            burn_tolerance: 0.05,
            setup_budget: Duration::from_millis(1800),
            setups_max: 15,
            warmup: Duration::from_secs(2),
            window,
            rounds: (opts.seconds as usize).max(4),
        }
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Seed used.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Every output checked out, every metric has samples, nothing failed.
    pub correct: bool,
    /// Operations issued (warm-up included).
    pub attempted: u64,
    /// Operations that errored or returned a wrong value.
    pub failed: u64,
    /// Load-generating threads.
    pub threads: usize,
    /// The one CPU every thread of the process runs on
    /// ([`host::pin_to_one_cpu`]); `None` when pinning was refused.
    pub pinned_cpu: Option<usize>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Measured>,
    /// Canary before the run, µs per token round trip.
    pub host_before_us: f64,
    /// Canary after the window.
    pub host_after_us: f64,
    /// Canary rate after ÷ before.
    pub drift: f64,
    /// The canary left the drift band (after one re-run).
    pub host_unstable: bool,
    /// How long the steady-state gate ran, and whether it saw a steady
    /// rate.
    pub burn_in: (f64, bool),
    /// First failure messages.
    pub errors: Vec<String>,
    /// Text blocks for the human-readable report (trace tables).
    pub notes: Vec<String>,
}

impl RunResult {
    /// The result line the driver reads.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.def.name,
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.def.unit.into())),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Everything about the run, for `--out` and `compare`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload.into())),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("threads", Json::Num(self.threads as f64)),
            (
                "pinned_cpu",
                self.pinned_cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
            ),
            ("host_pingpong_before_us", Json::Num(self.host_before_us)),
            ("host_pingpong_after_us", Json::Num(self.host_after_us)),
            ("host_drift_frac", Json::Num(self.drift)),
            ("host_unstable", Json::Bool(self.host_unstable)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.def.name,
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.def.unit.into())),
                            ("samples", Json::Num(m.samples as f64)),
                            ("spread", Json::Num(m.spread)),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// The human-readable report: every metric by name with unit, sample
    /// count, spread over rounds and regression bound.
    pub fn report(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, {}, {} load thread{}, closed loop) ==\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.threads,
            if self.threads == 1 { "" } else { "s" },
        );
        out += &format!(
            "host: {}, burn-in {:.1} s ({}), pingpong {:.2} us before, {:.2} us after, drift {:.3}{}\n",
            self.pinned_cpu
                .map_or("NOT pinned".to_string(), |c| format!("pinned to CPU {c}")),
            self.burn_in.0,
            if self.burn_in.1 { "steady" } else { "NOT steady" },
            self.host_before_us,
            self.host_after_us,
            self.drift,
            if self.host_unstable {
                "  ** host_unstable **"
            } else {
                ""
            },
        );
        out += &format!(
            "ops: {} attempted, {} failed, outputs {}\n",
            self.attempted,
            self.failed,
            if self.correct {
                "correct"
            } else {
                "NOT correct"
            }
        );
        for e in &self.errors {
            out += &format!("  error: {e}\n");
        }
        out += &format!(
            "{:<42}{:>16} {:<7}{:>9}{:>9}{:>8}\n",
            "metric", "value", "unit", "samples", "spread", "bound"
        );
        for m in &self.metrics {
            out += &format!(
                "{:<42}{:>16.4} {:<7}{:>9}{:>8.1}%{:>8}\n",
                m.def.name,
                m.value,
                m.def.unit,
                m.samples,
                m.spread * 100.0,
                m.def
                    .bound
                    .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            );
        }
        for n in &self.notes {
            out += n;
        }
        out
    }
}

fn after_canary(canary: &Canary, p: &Protocol) -> f64 {
    let slices = [
        canary.slice(p.burn_slice),
        canary.slice(p.burn_slice),
        canary.slice(p.burn_slice),
    ];
    median(&slices).unwrap_or(0.0)
}

fn in_band(drift: f64) -> bool {
    (DRIFT_BAND.0..=DRIFT_BAND.1).contains(&drift)
}

/// Runs `wl` once under the protocol.
///
/// # Errors
///
/// Set-up failures (boot, structure creation, preload). Failures inside
/// the window are counted in the result instead.
pub fn run_workload(
    wl: &dyn Workload,
    opts: &Options,
    canary: &Canary,
    pinned_cpu: Option<usize>,
) -> Result<RunResult> {
    let p = Protocol::of(opts);
    let epoch = Epoch::start();
    let cfg = RunCfg {
        seed: opts.seed,
        smoke: opts.smoke,
        epoch,
    };
    let gate = canary.burn_in(p.burn_slice, 4, p.burn_tolerance, p.burn_min, p.burn_max);

    // The set-up the window runs on. The repetitions `setup_s` is the
    // median of come after the window: done before it, their freed but
    // still resident memory made `peak_rss_mb` swing by 25 % from run to
    // run.
    let shape = wl.shape(opts.smoke);
    let repeat_set_up = || -> Result<f64> {
        let t0 = Instant::now();
        let bench = boot(&shape, true, epoch)?;
        drop(wl.prepare(&bench, cfg)?);
        // Read before `bench` goes out of scope: tear-down is not set-up.
        Ok(t0.elapsed().as_secs_f64())
    };
    let t0 = Instant::now();
    let bench = boot(&shape, true, epoch)?;
    let mut session = wl.prepare(&bench, cfg)?;
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];

    let mut result = RunResult {
        workload: wl.name(),
        seed: opts.seed,
        traced: opts.trace,
        correct: false,
        attempted: 0,
        failed: 0,
        threads: wl.threads(),
        pinned_cpu,
        metrics: Vec::new(),
        host_before_us: gate.pingpong_us,
        host_after_us: 0.0,
        drift: 0.0,
        host_unstable: false,
        burn_in: (gate.burn_in_s, gate.steady),
        errors: Vec::new(),
        notes: Vec::new(),
    };
    let absorb = |result: &mut RunResult, rec: &mut Recording| {
        result.attempted += rec.log.attempted;
        result.failed += rec.log.failed;
        result.errors.append(&mut rec.log.errors);
    };

    if !opts.trace {
        let mut rec = session.run(p.warmup, p.window, &Tracer::off());
        result.host_after_us = after_canary(canary, &p);
        result.drift = result.host_before_us / result.host_after_us;
        if !in_band(result.drift) && !opts.smoke {
            // The machine moved under the window: wait for it to settle
            // and measure the window once more.
            absorb(&mut result, &mut rec);
            let again = canary.burn_in(
                p.burn_slice,
                4,
                p.burn_tolerance,
                Duration::ZERO,
                p.burn_max,
            );
            result.host_before_us = again.pingpong_us;
            rec = session.run(p.warmup, p.window, &Tracer::off());
            result.host_after_us = after_canary(canary, &p);
            result.drift = result.host_before_us / result.host_after_us;
            result.host_unstable = !in_band(result.drift);
        }
        absorb(&mut result, &mut rec);
        let peak_rss_mb = host::peak_rss_mb();
        drop(session);
        drop(bench);
        let repeats_began = Instant::now();
        while setup_s.len() < p.setups_max
            && (setup_s.len() < 3 || repeats_began.elapsed() < p.setup_budget)
        {
            setup_s.push(repeat_set_up()?);
        }
        let mut metrics = vec![
            Measured::new(
                "setup_s",
                median(&setup_s).unwrap_or(0.0),
                setup_s.len(),
                crate::stats::iqr_frac(&setup_s).unwrap_or(0.0),
            ),
            Measured::new("peak_rss_mb", peak_rss_mb, 1, 0.0),
        ];
        metrics.extend(summarize(&rec, &wl.spec(), p.rounds));
        // Table order, and every metric present.
        for def in END_TO_END {
            match metrics.iter().position(|m| m.def.name == def.name) {
                Some(i) => result.metrics.push(metrics.swap_remove(i)),
                None => result
                    .errors
                    .push(format!("metric {} has no samples", def.name)),
            }
        }
        result.correct = result.failed == 0
            && result.metrics.len() == END_TO_END.len()
            && result
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0);
        return Ok(result);
    }

    // Traced run: a third of the window untraced (the end-to-end figures
    // the probes are held against), a third recording spans every other
    // half second, then the probes.
    let part = p.window / 3;
    let rounds = (p.rounds / 3).max(2);
    let mut plain = session.run(p.warmup, part, &Tracer::off());
    let tracer = Tracer::on(epoch);
    bench.store.set_recording(true);
    let counts0 = bench.store.counts();
    let mut traced = session.run(p.warmup / 6, part, &tracer);
    let counts = bench.store.counts().since(&counts0);
    bench.store.set_recording(false);
    let calls = bench.store.take_calls();
    result.host_after_us = after_canary(canary, &p);
    result.drift = result.host_before_us / result.host_after_us;
    result.host_unstable = !in_band(result.drift);

    let e2e_plain = summarize(&plain, &wl.spec(), rounds);
    let mut spans = tracer.take();
    spans.extend(store_spans(&calls, &tracer));
    trace::adopt_orphans(&mut spans);
    adopt_unknown_requests(&mut spans);
    // A store call outside every recorded request — an off-phase
    // request's, or background work such as a snapshot — is not a span;
    // the decorator's counters still count it.
    spans.retain(|s| s.req != REQ_UNKNOWN);

    let mut layer: HashMap<&'static str, (f64, usize)> = HashMap::new();
    let mut put = |name: &'static str, value: f64, samples: usize| {
        layer.insert(name, (value, samples));
    };
    if let Some((overhead, cycles)) = trace_overhead(&traced) {
        put("trace.overhead_frac", overhead, cycles);
    }
    put("trace.spans", spans.len() as f64, spans.len());
    put("host.pingpong_us", result.host_before_us, 1);
    put("host.drift_frac", result.drift, 1);
    if let Some(cpu_us) = cpu_us_per_op(&plain) {
        put("host.cpu_us_per_op", cpu_us, plain.log.ops.len());
    }
    let copy_bytes = if opts.smoke { 1 << 20 } else { 32 << 20 };
    put(
        "host.memcpy_gb_per_s",
        host::memcpy_gb_per_s(copy_bytes, 4),
        4,
    );
    for (name, value, samples) in persistent_metrics(&counts, &calls, &traced) {
        put(name, value, samples);
    }
    for (name, value, samples) in span_metrics(&spans) {
        put(name, value, samples);
    }
    for (name, value) in session.extra_layer_metrics() {
        put(name, value, 1);
    }
    // Only where an op is one client call: on `mr_job_churn` the op is
    // the job, and nothing is left unattributed by subtraction.
    let p50_us = |kind: OpKind| {
        let mut us: Vec<f64> = plain
            .log
            .ops
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect();
        percentile(&mut us, 50.0)
    };
    let e2e = probes::EndToEnd {
        read_p50_us: p50_us(OpKind::Read),
        write_p50_us: p50_us(OpKind::Write),
    };
    for (name, value, samples) in probes::run_all(wl, &shape, epoch, opts.smoke, &e2e)? {
        put(name, value, samples);
    }
    if let (Some(&(run, n)), Some(&(equiv, _))) = (
        layer.get("models.run_p50_ms"),
        layer.get("models.equiv_client_ms"),
    ) {
        if run > 0.0 && equiv > 0.0 {
            layer.insert("models.engine_overhead_ms", (run - equiv, n));
        }
    }

    absorb(&mut result, &mut plain);
    absorb(&mut result, &mut traced);
    // Every per-layer name is printed; 0 = not on this workload's path.
    for def in PER_LAYER {
        let (value, samples) = layer.get(def.name).copied().unwrap_or((0.0, 0));
        result.metrics.push(Measured {
            def,
            value,
            samples,
            spread: 0.0,
        });
    }
    result.correct = result.failed == 0 && result.metrics.iter().all(|m| m.value.is_finite());

    let mut note = String::from("untraced third of the window (indicative, not gated):\n");
    for m in &e2e_plain {
        note += &format!("  {:<40}{:>16.4} {}\n", m.def.name, m.value, m.def.unit);
    }
    result.notes.push(note);
    result.notes.push(self_time_table(wl.name(), &spans));
    if let Some(path) = &opts.trace_out {
        match trace::write_jsonl(path, &spans) {
            Ok(()) => result.notes.push(format!(
                "{} spans written to {}\n",
                spans.len(),
                path.display()
            )),
            Err(e) => {
                result.correct = false;
                result
                    .errors
                    .push(format!("writing {}: {e}", path.display()));
            }
        }
    }
    Ok(result)
}

/// What recording spans costs: median duration of the recorded cycles of
/// a traced window over that of the cycles in between, minus one. Also
/// returns how many cycles the two medians stand on.
fn trace_overhead(traced: &Recording) -> Option<(f64, usize)> {
    let ms = |on: bool| -> Vec<f64> {
        let of_kind = traced.log.cycles.iter().filter(|c| c.traced == on);
        of_kind.map(|c| c.dur_ns as f64 / 1e6).collect()
    };
    let (on, off) = (ms(true), ms(false));
    Some((median(&on)? / median(&off)? - 1.0, on.len() + off.len()))
}

/// Store calls as spans of layer `persistent`. They happen on the
/// program's threads, so which request caused them is found afterwards
/// by time ([`adopt_unknown_requests`]).
fn store_spans(calls: &[StoreCall], tracer: &Tracer) -> Vec<Span> {
    calls
        .iter()
        .map(|c| Span {
            id: tracer.fresh_id(),
            parent: 0,
            req: REQ_UNKNOWN,
            name: if c.is_put { "store.put" } else { "store.get" },
            layer: Layer::Persistent,
            start_ns: c.start_ns,
            end_ns: c.end_ns,
        })
        .collect()
}

/// Gives each span of unknown request the request and parent of the
/// tightest harness-side span that contains it in time: the single
/// control call in flight on the one-driver workloads; with two load
/// threads, whichever call fits tightest.
fn adopt_unknown_requests(spans: &mut [Span]) {
    let known: Vec<Span> = spans
        .iter()
        .filter(|s| s.req != REQ_UNKNOWN)
        .copied()
        .collect();
    for s in spans.iter_mut().filter(|s| s.req == REQ_UNKNOWN) {
        let host = known
            .iter()
            .filter(|p| p.start_ns <= s.start_ns && p.end_ns >= s.end_ns)
            .min_by_key(|p| p.dur_ns());
        if let Some(p) = host {
            s.req = p.req;
            s.parent = p.id;
        }
    }
}

/// `persistent.*` from the decorator's counts and call log over the
/// traced part of the run, warm-up included. Counts are per cycle
/// completed in that time, so they repeat exactly however many cycles
/// fit.
fn persistent_metrics(
    counts: &StoreCounts,
    calls: &[StoreCall],
    rec: &Recording,
) -> Vec<(&'static str, f64, usize)> {
    let cycles = rec.log.cycles_run.max(1) as f64;
    // The counts cover warm-up, window and the cycle that ran past its
    // end; the op samples and the window length only the window. The
    // share of the counted cycles that fell inside the window scales one
    // onto the other.
    let in_window = rec.log.cycles.len() as f64 / cycles;
    let n = calls.len();
    let user_bytes: u64 = rec
        .log
        .ops
        .iter()
        .filter(|s| s.kind == OpKind::Write)
        .map(|s| s.bytes)
        .sum();
    let mut put_us: Vec<f64> = calls
        .iter()
        .filter(|c| c.is_put)
        .map(|c| (c.end_ns - c.start_ns) as f64 / 1e3)
        .collect();
    let mut out = vec![
        ("persistent.put_count", counts.puts as f64 / cycles, n),
        ("persistent.put_bytes", counts.put_bytes as f64 / cycles, n),
        ("persistent.get_count", counts.gets as f64 / cycles, n),
        ("persistent.get_bytes", counts.get_bytes as f64 / cycles, n),
        (
            "persistent.busy_frac",
            counts.busy_ns as f64 * in_window / rec.window_ns.max(1) as f64,
            n,
        ),
    ];
    if let Some(p50) = percentile(&mut put_us, 50.0) {
        out.push(("persistent.put_p50_us", p50, put_us.len()));
    }
    if user_bytes > 0 {
        out.push((
            "persistent.bytes_written_per_user_byte",
            counts.put_bytes as f64 * in_window / user_bytes as f64,
            n,
        ));
    }
    out
}

/// Per-layer metrics read off the spans of the traced window.
fn span_metrics(spans: &[Span]) -> Vec<(&'static str, f64, usize)> {
    let mut out = Vec::new();
    let mut runs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "MapReduceJob::run")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    if let Some(p50) = percentile(&mut runs, 50.0) {
        out.push(("models.run_p50_ms", p50, runs.len()));
        let selfs = trace::self_times(spans);
        let user_ns: u64 = spans
            .iter()
            .filter(|s| s.layer == Layer::UserFn)
            .map(|s| selfs[&s.id])
            .sum();
        out.push((
            "models.user_fn_ms",
            user_ns as f64 / 1e6 / runs.len() as f64,
            runs.len(),
        ));
    }
    out
}

/// The self-time table of one traced window, with the end-to-end p50 of
/// a request next to the sum of its layers so the unattributed remainder
/// is explicit.
fn self_time_table(workload: &str, spans: &[Span]) -> String {
    let selfs = trace::self_times(spans);
    let by_layer = trace::layer_self_ns(spans);
    let total: u64 = by_layer.values().sum();
    let mut out = format!(
        "self time by layer, {workload}, {} spans (a layer's span minus what its children cover):\n",
        spans.len()
    );
    for l in Layer::ALL {
        let ns = by_layer.get(&l).copied().unwrap_or(0);
        let count = spans.iter().filter(|s| s.layer == l).count();
        out += &format!(
            "  {:<12}{:>12.3} ms{:>7.1}%{:>9} spans\n",
            l.name(),
            ns as f64 / 1e6,
            if total > 0 {
                ns as f64 * 100.0 / total as f64
            } else {
                0.0
            },
            count
        );
    }
    // Per request: the root's duration against the self time of
    // everything under it that is not the harness.
    let mut per_req: HashMap<u64, (u64, u64)> = HashMap::new();
    for s in spans {
        let e = per_req.entry(s.req).or_default();
        if s.parent == 0 && s.layer == Layer::Harness {
            e.0 = s.dur_ns();
        } else if s.layer != Layer::Harness {
            e.1 += selfs[&s.id];
        }
    }
    let mut e2e: Vec<f64> = Vec::new();
    let mut layers: Vec<f64> = Vec::new();
    for (root, sum) in per_req.values().filter(|v| v.0 > 0) {
        e2e.push(*root as f64 / 1e6);
        layers.push(*sum as f64 / 1e6);
    }
    if let (Some(a), Some(b)) = (percentile(&mut e2e, 50.0), percentile(&mut layers, 50.0)) {
        out += &format!(
            "  per request ({} requests): e2e p50 {a:.3} ms, sum of layers p50 {b:.3} ms, \
             unattributed {:.3} ms (parallel children can make the sum exceed e2e)\n",
            e2e.len(),
            a - b
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_calls_find_their_request_by_time() {
        let span = |id, parent, req, layer, start_ns, end_ns| Span {
            id,
            parent,
            req,
            name: "t",
            layer,
            start_ns,
            end_ns,
        };
        let mut spans = vec![
            span(1, 0, 5, Layer::Harness, 0, 1000),
            span(2, 1, 5, Layer::Controller, 100, 300),
            span(3, 0, 6, Layer::Harness, 1000, 2000),
            span(10, 0, REQ_UNKNOWN, Layer::Persistent, 150, 200),
            span(11, 0, REQ_UNKNOWN, Layer::Persistent, 1500, 1600),
            span(12, 0, REQ_UNKNOWN, Layer::Persistent, 5000, 5100),
        ];
        adopt_unknown_requests(&mut spans);
        assert_eq!((spans[3].req, spans[3].parent), (5, 2));
        assert_eq!((spans[4].req, spans[4].parent), (6, 3));
        assert_eq!((spans[5].req, spans[5].parent), (REQ_UNKNOWN, 0));
        let table = self_time_table("t", &spans);
        assert!(table.contains("persistent") && table.contains("per request"));
    }

    #[test]
    fn drift_band_is_the_issues() {
        assert!(in_band(1.0) && in_band(0.87) && in_band(1.15));
        assert!(!in_band(0.86) && !in_band(1.16));
    }
}
