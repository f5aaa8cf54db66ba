//! The four workloads. Names are fixed; later issues cite them.
//!
//! | name | stresses | leaves alone |
//! |---|---|---|
//! | `kv_small_repl` | per-op cost of proto + rpc + server + block, chain fan-down | bytes, controller |
//! | `file_bulk` | payload copies at 64 KB | wake-ups per byte, controller |
//! | `mr_job_churn` | controller, journal, leases, shard router, models | data plane |
//! | `kv_grow_spill` | repartitioning under writes, block allocation, spill path | replication |
//!
//! Each workload defines what `read`, `write`, `op` and `cycle` mean for
//! it (README.md has the table); the summary in [`crate::load`] is the
//! same for all four.

pub mod file_bulk;
pub mod kv_grow_spill;
pub mod kv_small_repl;
pub mod mr_job_churn;

use std::time::Duration;

use jiffy_common::Result;
use jiffy_proto::DsOp;

use crate::host::Epoch;
use crate::load::{Bench, OpKind, Recording, Shape, SummarySpec, ThreadLog, Window};
use crate::trace::{Layer, LocalTrace, Tracer};

/// Lease for workloads that renew nothing while the expiry worker runs.
pub const NO_EXPIRY: Duration = Duration::from_secs(3600);

/// Per-run settings every workload receives.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Seed of every generated input.
    pub seed: u64,
    /// Shrinks preloads and cycles so a 1 s run completes several
    /// cycles (`--smoke`, the integration test).
    pub smoke: bool,
    /// The shared time base.
    pub epoch: Epoch,
}

/// The data ops a workload's clients send, for the layer probes: the
/// probes time `proto`, `rpc`, `server` and `block` on these ops at
/// these sizes rather than on ops of their own choosing.
pub struct OpMix {
    /// Structure the ops address (`"kv_store"` or `"file"`).
    pub ds: &'static str,
    /// Builds the i-th read-like op.
    pub read: fn(u64) -> DsOp,
    /// Builds the i-th write-like op.
    pub write: fn(u64) -> DsOp,
    /// Distinct keys/offsets the probes cycle over.
    pub span: u64,
}

/// One of the four workloads.
pub trait Workload: Sync {
    /// Fixed name.
    fn name(&self) -> &'static str;
    /// One line: why this workload exists.
    fn why(&self) -> &'static str;
    /// Its cluster.
    fn shape(&self, smoke: bool) -> Shape;
    /// How the summary reads its samples.
    fn spec(&self) -> SummarySpec;
    /// Its data ops, for the probes.
    fn mix(&self) -> OpMix;
    /// Load-generating threads it runs.
    fn threads(&self) -> usize;
    /// Creates its structures and preloads them on a freshly booted
    /// cluster (the part of set-up after boot).
    ///
    /// # Errors
    ///
    /// Any Jiffy failure; set-up failures abort the run.
    fn prepare<'a>(&self, bench: &'a Bench, cfg: RunCfg) -> Result<Box<dyn Session + 'a>>;
}

/// A prepared workload: can run any number of windows back to back.
pub trait Session {
    /// Runs the load through `warmup` and `window`.
    fn run(&mut self, warmup: Duration, window: Duration, tracer: &Tracer) -> Recording;

    /// Runs once, outside any window, whatever exact-count measurement
    /// only this workload can make (`kv_grow_spill`'s split count and
    /// growth slowdown). Names are per-layer metric names.
    fn extra_layer_metrics(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// All four, in report order.
pub fn all() -> [&'static dyn Workload; 4] {
    [
        &kv_small_repl::KvSmallRepl,
        &file_bulk::FileBulk,
        &mr_job_churn::MrJobChurn,
        &kv_grow_spill::KvGrowSpill,
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static dyn Workload> {
    all().into_iter().find(|w| w.name() == name)
}

/// One load thread's log and span buffer, with the helpers that time a
/// call into a layer, record it and count its failure.
pub struct Ctx<'w> {
    /// The window this thread runs under.
    pub w: &'w Window,
    /// Samples and counts.
    pub log: ThreadLog,
    /// Spans (a no-op when tracing is off).
    pub trace: LocalTrace,
}

impl<'w> Ctx<'w> {
    /// A fresh context for one thread.
    pub fn new(w: &'w Window, tracer: &Tracer) -> Self {
        Self {
            w,
            log: ThreadLog::default(),
            trace: tracer.local(),
        }
    }

    /// Times one client data call: a span in layer `client`, an op
    /// sample of `kind`, a failure when it errors.
    pub fn data_op<T>(
        &mut self,
        name: &'static str,
        kind: OpKind,
        bytes: u64,
        req: u64,
        parent: u64,
        f: impl FnOnce() -> Result<T>,
    ) -> Option<T> {
        let span = self.trace.open(name, Layer::Client, req, parent);
        let start = self.w.epoch.now_ns();
        let r = f();
        self.log.op(self.w, kind, bytes, start, r.is_ok());
        self.trace.close(span);
        self.keep(name, r)
    }

    /// Times one call of another layer (a control call, an engine call):
    /// a span, an attempted operation, a failure when it errors — but no
    /// op sample.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        req: u64,
        parent: u64,
        f: impl FnOnce() -> Result<T>,
    ) -> Option<T> {
        let span = self.trace.open(name, layer, req, parent);
        let r = f();
        self.trace.close(span);
        self.log.attempted += 1;
        if r.is_err() {
            self.log.failed += 1;
        }
        self.keep(name, r)
    }

    fn keep<T>(&mut self, name: &'static str, r: Result<T>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                if self.log.errors.len() < 8 {
                    self.log.errors.push(format!("{name}: {e}"));
                }
                None
            }
        }
    }

    /// A correctness check on a result already received: a mismatch is a
    /// failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.log.fail(what);
        }
    }
}

/// 64-bit mix (SplitMix64's finalizer): the generator behind every
/// derived value, so expected contents can be recomputed anywhere.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Fills `buf` with the value derived from `tag`.
pub fn fill(buf: &mut [u8], tag: u64) {
    let mut x = tag;
    for word in buf.chunks_mut(8) {
        x = mix64(x);
        word.copy_from_slice(&x.to_le_bytes()[..word.len()]);
    }
}

/// Word-wise checksum of a buffer (order-sensitive).
pub fn checksum(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ data.len() as u64;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(23);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_values_repeat_and_differ() {
        let (mut a, mut b, mut c) = ([0u8; 100], [0u8; 100], [0u8; 100]);
        fill(&mut a, 7);
        fill(&mut b, 7);
        fill(&mut c, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(checksum(&a), checksum(&b));
        assert_ne!(checksum(&a), checksum(&c));
        let mut swapped = a;
        swapped.swap(0, 8);
        assert_ne!(checksum(&a), checksum(&swapped));
    }

    #[test]
    fn four_workloads_with_fixed_names() {
        let names: Vec<_> = all().iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            [
                "kv_small_repl",
                "file_bulk",
                "mr_job_churn",
                "kv_grow_spill"
            ]
        );
        assert!(by_name("file_bulk").is_some() && by_name("nope").is_none());
        assert!(all()
            .iter()
            .all(|w| w.why().len() <= 200 && (1..=2).contains(&w.threads())));
    }
}
