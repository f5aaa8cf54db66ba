//! Spans recorded from the benchmark's own files, around its calls into
//! each layer's public functions.
//!
//! A span is `{id, parent, req, name, layer, start_ns, end_ns}`. Load
//! threads keep their spans in a buffer of their own ([`LocalTrace`]);
//! code that runs on threads the program spawns (the map and reduce
//! callbacks) pushes to a shared buffer. Everything is merged after the
//! window closes and written out once, as JSON lines.
//!
//! Parent = the harness span open on the calling thread; a span recorded
//! with no parent (`0`) is adopted afterwards by the tightest span of the
//! same request that contains it in time ([`adopt_orphans`]). A layer's
//! self time is its span minus the part its children cover
//! ([`self_times`]).
//!
//! A traced window records every other half second: a request (cycle,
//! job, op slice) whose root opens in an *on* phase is recorded with
//! everything under it, one whose root opens in an *off* phase leaves no
//! span at all ([`LocalTrace::root`]). Traced and untraced requests then
//! alternate inside one window, on one host state, and the ratio of their
//! median durations is `trace.overhead_frac` — two consecutive windows,
//! one traced and one not, differ by ±10 % on this host for reasons that
//! have nothing to do with tracing.

use std::collections::HashMap;
use std::io::Write;

use jiffy_sync::atomic::{AtomicU64, Ordering};
use jiffy_sync::{Arc, Mutex};

use crate::host::Epoch;

/// The crate a span's callee belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark itself: cycle and request roots, verification.
    Harness,
    /// `jiffy-client` data-structure handles (`get`, `put`, `write_at`, …).
    Client,
    /// Control calls (`register_job`, `create_addr_prefix`, `flush`, …):
    /// one controller round trip each.
    Controller,
    /// The store decorator, inside the running cluster.
    Persistent,
    /// `jiffy-models` engine calls.
    Models,
    /// The benchmark's own map/reduce callbacks, run by the engine.
    UserFn,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 6] = [
        Layer::Client,
        Layer::Controller,
        Layer::Persistent,
        Layer::Models,
        Layer::UserFn,
        Layer::Harness,
    ];

    /// Name used in the span file and the report.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Client => "client",
            Layer::Controller => "controller",
            Layer::Persistent => "persistent",
            Layer::Models => "models",
            Layer::UserFn => "user_fn",
        }
    }
}

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within a run; never 0.
    pub id: u64,
    /// Id of the span that caused this one; 0 for none.
    pub parent: u64,
    /// The op/job/cycle index this span belongs to.
    pub req: u64,
    /// What was called.
    pub name: &'static str,
    /// Whose code ran.
    pub layer: Layer,
    /// Start on the benchmark's [`Epoch`].
    pub start_ns: u64,
    /// End on the benchmark's [`Epoch`].
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Length of the alternating on/off phases of a traced window.
const PHASE_NS: u64 = 500_000_000;

/// A span that has started but not ended.
#[derive(Debug, Clone, Copy)]
pub struct OpenSpan {
    /// The id the closed span will carry (0 when tracing is off).
    pub id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    layer: Layer,
    start_ns: u64,
}

impl OpenSpan {
    /// Whether closing this span records anything: `false` with tracing
    /// off and for requests that fall in an off phase.
    pub fn recorded(&self) -> bool {
        self.id != 0
    }
}

struct Shared {
    epoch: Epoch,
    /// When recording began: phases count from here, the first one on.
    origin_ns: u64,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Handle to one traced window; cheap to clone. A disabled tracer makes
/// `open`/`close` a branch and nothing else, so the same workload code
/// runs traced and untraced.
#[derive(Clone)]
pub struct Tracer(Option<Arc<Shared>>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self(None)
    }

    /// A recording tracer stamping spans on `epoch`.
    pub fn on(epoch: Epoch) -> Self {
        Self(Some(Arc::new(Shared {
            epoch,
            origin_ns: epoch.now_ns(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })))
    }

    /// Starts a span under `parent` (0 for none).
    pub fn open(&self, name: &'static str, layer: Layer, req: u64, parent: u64) -> OpenSpan {
        let (id, start_ns) = match &self.0 {
            Some(s) => (s.next_id.fetch_add(1, Ordering::Relaxed), s.epoch.now_ns()),
            None => (0, 0),
        };
        OpenSpan {
            id,
            parent,
            req,
            name,
            layer,
            start_ns,
        }
    }

    fn finish(&self, open: OpenSpan) -> Option<Span> {
        let s = self.0.as_ref().filter(|_| open.recorded())?;
        Some(Span {
            id: open.id,
            parent: open.parent,
            req: open.req,
            name: open.name,
            layer: open.layer,
            start_ns: open.start_ns,
            end_ns: s.epoch.now_ns(),
        })
    }

    /// Ends a span into the shared buffer (for callbacks on threads the
    /// program owns).
    pub fn close(&self, open: OpenSpan) {
        if let (Some(span), Some(s)) = (self.finish(open), &self.0) {
            s.spans.lock().push(span);
        }
    }

    /// Adds already-closed spans (a thread's local buffer, or spans
    /// rebuilt from the store decorator's call log).
    pub fn extend(&self, spans: impl IntoIterator<Item = Span>) {
        if let Some(s) = &self.0 {
            s.spans.lock().extend(spans);
        }
    }

    /// A fresh id for a span built outside `open`/`close`.
    pub fn fresh_id(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |s| s.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// A per-thread buffer feeding this tracer.
    pub fn local(&self) -> LocalTrace {
        LocalTrace {
            tracer: self.clone(),
            spans: Vec::new(),
            paused: false,
        }
    }

    /// Takes everything recorded so far, ordered by start time.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = match &self.0 {
            Some(s) => std::mem::take(&mut *s.spans.lock()),
            None => Vec::new(),
        };
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// One load thread's span buffer: closing a span is a `Vec::push`, with
/// no lock on the measured path. Dropped into the tracer when the thread
/// is done.
pub struct LocalTrace {
    tracer: Tracer,
    spans: Vec<Span>,
    /// The request this thread is working on opened in an off phase.
    paused: bool,
}

impl LocalTrace {
    /// Starts the root span of request `req` (layer `harness`) and, by
    /// the phase the clock is in, decides whether this request is
    /// recorded: until the next `root`, every span this thread opens
    /// follows that decision.
    pub fn root(&mut self, name: &'static str, req: u64) -> OpenSpan {
        let since_ns = match &self.tracer.0 {
            Some(s) => s.epoch.now_ns().saturating_sub(s.origin_ns),
            None => 0,
        };
        self.root_at(name, req, since_ns)
    }

    fn root_at(&mut self, name: &'static str, req: u64, since_origin_ns: u64) -> OpenSpan {
        self.paused = (since_origin_ns / PHASE_NS) % 2 == 1;
        self.open(name, Layer::Harness, req, 0)
    }

    /// The tracer for code of the current request that runs on other
    /// threads (the engine's map and reduce tasks): off when the request
    /// is not recorded.
    pub fn handle(&self) -> Tracer {
        if self.paused {
            Tracer::off()
        } else {
            self.tracer.clone()
        }
    }

    /// Starts a span; see [`Tracer::open`].
    pub fn open(&self, name: &'static str, layer: Layer, req: u64, parent: u64) -> OpenSpan {
        if self.paused {
            Tracer::off().open(name, layer, req, parent)
        } else {
            self.tracer.open(name, layer, req, parent)
        }
    }

    /// Ends a span into this thread's buffer.
    pub fn close(&mut self, open: OpenSpan) {
        if let Some(span) = self.tracer.finish(open) {
            self.spans.push(span);
        }
    }
}

/// A thread that is done hands its buffered spans to the tracer.
impl Drop for LocalTrace {
    fn drop(&mut self) {
        self.tracer.extend(self.spans.drain(..));
    }
}

/// Gives every parentless span (other than the roots themselves) the
/// tightest span of the same request that contains it in time; a span
/// nothing contains stays a root.
pub fn adopt_orphans(spans: &mut [Span]) {
    let snapshot: Vec<Span> = spans.to_vec();
    for s in spans.iter_mut().filter(|s| s.parent == 0) {
        let adopter = snapshot
            .iter()
            .filter(|p| {
                p.id != s.id
                    && p.req == s.req
                    && p.start_ns <= s.start_ns
                    && p.end_ns >= s.end_ns
                    // Equal intervals: the older span is the parent.
                    && (p.dur_ns() > s.dur_ns() || p.id < s.id)
            })
            .min_by_key(|p| (p.dur_ns(), std::cmp::Reverse(p.id)));
        if let Some(p) = adopter {
            s.parent = p.id;
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children overlapping each other, as two map
/// tasks do, are counted once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.dur_ns() - covered.min(s.dur_ns()))
        })
        .collect()
}

/// Total self time per layer, in nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> HashMap<Layer, u64> {
    let selfs = self_times(spans);
    let mut out: HashMap<Layer, u64> = HashMap::new();
    for s in spans {
        *out.entry(s.layer).or_default() += selfs[&s.id];
    }
    out
}

/// Writes spans as JSON lines.
///
/// # Errors
///
/// IO failures.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            s.parent,
            s.req,
            s.name,
            s.layer.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: "t",
            layer,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, Layer::Harness, 0, 100),
            // Two overlapping children cover [10, 60) once, not twice.
            span(2, 1, Layer::Client, 10, 50),
            span(3, 1, Layer::Client, 30, 60),
            // A grandchild only reduces its own parent.
            span(4, 2, Layer::Persistent, 20, 30),
            // A child sticking out past its parent is clipped.
            span(5, 1, Layer::Controller, 90, 120),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 50 - 10);
        assert_eq!(st[&2], 40 - 10);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&4], 10);
        assert_eq!(st[&5], 30);
        let by_layer = layer_self_ns(&spans);
        assert_eq!(by_layer[&Layer::Client], 60);
        assert_eq!(by_layer[&Layer::Harness], 40);
        // Self times of a tree whose children stay inside their parents
        // add up to the root's duration.
        let inside = &spans[..4];
        let total: u64 = self_times(inside).values().sum();
        assert_eq!(total, 100 + 20); // the 20 ns overlap of 2 and 3 ran in parallel
    }

    #[test]
    fn orphans_are_adopted_by_the_tightest_container() {
        let mut spans = vec![
            span(1, 0, Layer::Harness, 0, 1000),
            span(2, 1, Layer::Controller, 100, 400),
            span(3, 0, Layer::Persistent, 150, 200), // inside 2
            span(4, 0, Layer::Persistent, 500, 600), // only inside 1
            Span {
                req: 2,
                ..span(5, 0, Layer::Persistent, 150, 200) // another request
            },
        ];
        adopt_orphans(&mut spans);
        assert_eq!(spans[2].parent, 2);
        assert_eq!(spans[3].parent, 1);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[4].parent, 0);
    }

    #[test]
    fn requests_are_recorded_every_other_phase() {
        let t = Tracer::on(Epoch::start());
        let mut local = t.local();
        for (req, at_ns) in [
            (0, 0),
            (1, PHASE_NS),
            (2, 2 * PHASE_NS + 5),
            (3, 4 * PHASE_NS - 1),
        ] {
            let root = local.root_at("cycle", req, at_ns);
            let child = local.open("op", Layer::Client, req, root.id);
            let on_engine_thread = local.handle().open("cb", Layer::UserFn, req, 0);
            // Whole requests are recorded or not: roots in phases 0 and 2.
            let on = req % 2 == 0;
            assert_eq!(
                (
                    root.recorded(),
                    child.recorded(),
                    on_engine_thread.recorded()
                ),
                (on, on, on),
                "request {req}"
            );
            local.handle().close(on_engine_thread);
            local.close(child);
            local.close(root);
        }
        drop(local);
        let spans = t.take();
        assert_eq!(spans.len(), 6);
        assert!(spans.iter().all(|s| s.req % 2 == 0 && s.id != 0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        let mut local = t.local();
        let o = local.open("x", Layer::Client, 0, 0);
        assert_eq!(o.id, 0);
        local.close(o);
        t.close(t.open("y", Layer::Models, 0, 0));
        drop(local);
        assert!(t.take().is_empty());
    }

    #[test]
    fn local_and_shared_spans_merge_in_start_order() {
        let t = Tracer::on(Epoch::start());
        let mut local = t.local();
        let root = local.root_at("cycle", 7, 0);
        let child = t.open("cb", Layer::UserFn, 7, 0);
        t.close(child);
        let op = local.open("op", Layer::Client, 7, root.id);
        local.close(op);
        local.close(root);
        drop(local);
        let mut spans = t.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "cycle");
        adopt_orphans(&mut spans);
        let cb = spans.iter().find(|s| s.name == "cb").unwrap();
        assert_eq!(cb.parent, spans[0].id);
        assert!(spans.iter().all(|s| s.id != 0 && s.req == 7));
    }
}
