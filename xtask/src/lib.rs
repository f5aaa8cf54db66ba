//! Static invariant checks for the Jiffy workspace, run as
//! `cargo xtask lint` (aliased in `.cargo/config.toml`, gated in CI).
//!
//! The checks are deliberately line-based — this build environment has no
//! crates.io access, so a full `syn` parse is off the table — but they are
//! written to be conservative: comment text is stripped before matching,
//! `#[cfg(test)]` regions are tracked by brace counting, and the
//! `JiffyError` rule distinguishes construction from pattern matching.
//!
//! Rules (see DESIGN.md §8 for the rationale):
//!
//! 1. **sync-facade** — no `std::sync` / `parking_lot` imports or paths
//!    anywhere outside `crates/sync` (which wraps them) and `xtask`
//!    itself. Everything goes through `jiffy_sync` so the loom and
//!    lock-order backends see every acquisition.
//! 2. **no-unwrap** — no `.unwrap()` / `.expect(...)` in the data-path
//!    crates (`rpc`, `server`, `block`, `cuckoo`, `controller`) outside
//!    test code. The only escape hatch is `.expect("invariant: ...")`,
//!    which documents why the failure is truly unreachable.
//! 3. **error-taxonomy** — the transport-fault variants
//!    `JiffyError::Timeout` / `JiffyError::Unavailable` are constructed
//!    only inside `crates/rpc` and `crates/common` (and test code).
//!    They drive `is_transport()` retry semantics; minting them elsewhere
//!    would let non-transport code masquerade as safely-retryable.
//! 4. **exhaustive-dispatch** — in `crates/controller` and
//!    `crates/server`, a `match` whose arms dispatch on `ControlRequest::`
//!    or `DataRequest::` variants may not contain a bare `_` arm. New RPC
//!    variants (JoinServer, Heartbeat, ...) must fail compilation at every
//!    dispatch site rather than silently fall into a catch-all. Named
//!    catch-alls (`other =>`) are allowed — they show intent — and matches
//!    that bring variants in via `use ControlRequest::*` are out of scope
//!    for the literal-prefix heuristic by design.
//! 5. **journal-before-ack** — in a `ControlRequest` dispatch match, an
//!    arm for a metadata-mutating variant that constructs its own
//!    `Ok(ControlResponse::...)` ack must journal first — `journal_append`,
//!    or `commit`, which journals the mutation together with its answer
//!    (DESIGN.md §11): a crash after the ack must never lose the
//!    mutation. Read-only arms (`ResolvePrefix`, `GetStats`, ...) and
//!    the liveness-only `Heartbeat` are exempt, as are pure routers
//!    (sharding) that forward the request without minting a response.
//! 6. **internal-rid** — an `Envelope::DataReq` construction may not
//!    carry a bare `id: 0` literal outside `crates/proto` and test code.
//!    Request id 0 is the "untracked internal traffic" sentinel that
//!    bypasses the block replay window (DESIGN.md §16); spelling it
//!    `INTERNAL_RID` keeps that bypass greppable and keeps a refactor
//!    from silently turning a client path into untracked traffic.
//! 7. **stoppable-sleep** — outside test code and the measurement crates
//!    (`bench`, `benchmark`, `harness`, `sim`), no `thread::sleep`
//!    lexically inside a `spawn(..)` closure. A spawned loop that sleeps
//!    cannot be stopped before the sleep ends, and whoever joins it pays
//!    the remainder (a 200 ms lease-renewal interval per MapReduce job
//!    before ISSUE 20); periodic workers wait on
//!    `jiffy_sync::StopSignal::wait` instead. A vetted sleep carries
//!    `// xtask-allow(stoppable-sleep): <reason>` on its line or the
//!    line above.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

pub mod analysis;
pub mod lex;
pub mod loc;
pub mod parse;

pub use analysis::analyze;

/// Which xtask subcommand a rule belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RulePhase {
    /// Line-based checks (`cargo xtask lint`).
    Lint,
    /// Parser-based concurrency checks (`cargo xtask analyze`).
    Analyze,
}

/// One registered rule. The registry is the single source of truth for
/// rule names and counts — `main.rs` derives its "ok (N rules clean)"
/// summary and `--rule` validation from here, and `analysis.rs` uses it
/// to reject `xtask-allow(..)` comments naming unknown rules.
pub struct RuleMeta {
    pub name: &'static str,
    pub phase: RulePhase,
    pub summary: &'static str,
}

/// Every rule xtask knows, lint and analyze alike.
pub const RULES: &[RuleMeta] = &[
    RuleMeta {
        name: "sync-facade",
        phase: RulePhase::Lint,
        summary: "all sync primitives come from jiffy_sync",
    },
    RuleMeta {
        name: "no-unwrap",
        phase: RulePhase::Lint,
        summary: "no unwrap/undocumented expect in data-path crates",
    },
    RuleMeta {
        name: "error-taxonomy",
        phase: RulePhase::Lint,
        summary: "transport faults are minted only by the transport layer",
    },
    RuleMeta {
        name: "exhaustive-dispatch",
        phase: RulePhase::Lint,
        summary: "no bare `_` arms in RPC dispatch matches",
    },
    RuleMeta {
        name: "journal-before-ack",
        phase: RulePhase::Lint,
        summary: "mutating control arms journal before acking",
    },
    RuleMeta {
        name: "internal-rid",
        phase: RulePhase::Lint,
        summary: "internal data envelopes spell out INTERNAL_RID",
    },
    RuleMeta {
        name: "stoppable-sleep",
        phase: RulePhase::Lint,
        summary: "spawned loops wait on a StopSignal, never thread::sleep",
    },
    RuleMeta {
        name: "no-guard-across-rpc",
        phase: RulePhase::Analyze,
        summary: "no jiffy-sync guard live across a transport call",
    },
    RuleMeta {
        name: "no-blocking-in-reactor",
        phase: RulePhase::Analyze,
        summary: "EventHandler callbacks never block",
    },
    RuleMeta {
        name: "static-lock-order",
        phase: RulePhase::Analyze,
        summary: "static acquisition graph is acyclic and covers runtime edges",
    },
    RuleMeta {
        name: "xtask-allow",
        phase: RulePhase::Analyze,
        summary: "allow-comments name real rules and carry a reason",
    },
];

/// Number of rules in a phase (drives the CLI summary lines).
pub fn rule_count(phase: RulePhase) -> usize {
    RULES.iter().filter(|r| r.phase == phase).count()
}

/// Whether `name` is a registered rule (either phase).
pub fn is_known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// A single lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired: `"sync-facade"`, `"no-unwrap"`,
    /// `"error-taxonomy"`, `"exhaustive-dispatch"`,
    /// `"journal-before-ack"`, `"internal-rid"`, `"stoppable-sleep"`.
    pub rule: &'static str,
    /// Path relative to the lint root.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Crates whose `src/` is data-path code for the no-unwrap rule.
const DATA_PATH_CRATES: &[&str] = &["rpc", "server", "block", "cuckoo", "controller"];

/// Runs every lint rule over the workspace rooted at `root`.
///
/// `root` is normally the repo root; tests point it at a fixture tree
/// with the same `crates/<name>/src` shape.
pub fn lint(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    for file in rust_files(root) {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        let Ok(text) = fs::read_to_string(&file) else {
            continue;
        };
        lint_file(&rel, &text, &mut violations);
    }
    violations.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    violations
}

/// Lints one file's contents. Exposed for the fixture tests.
pub fn lint_file(rel: &Path, text: &str, out: &mut Vec<Violation>) {
    let scope = Scope::of(rel);
    if scope.skip {
        return;
    }
    if scope.dispatch && !scope.test_only {
        check_exhaustive_dispatch(rel, text, out);
        check_journal_before_ack(rel, text, out);
    }
    if !scope.rid_exempt && !scope.test_only {
        check_internal_rid(rel, text, out);
    }
    if !scope.measurement && !scope.test_only {
        check_stoppable_sleep(rel, text, out);
    }
    let mut tests = TestRegionTracker::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let code = strip_comments(raw);
        let in_test = tests.observe(&code) || scope.test_only;

        if !scope.facade_exempt {
            check_sync_facade(rel, line_no, &code, out);
        }
        if !in_test {
            if scope.data_path {
                check_no_unwrap(rel, line_no, &code, out);
            }
            if !scope.taxonomy_exempt {
                check_error_taxonomy(rel, line_no, &code, out);
            }
        }
    }
}

/// Which rules apply to a file, derived from its path.
#[derive(Debug, Clone, Copy, Default)]
struct Scope {
    /// Not linted at all (vendor, target, fixtures, xtask itself).
    skip: bool,
    /// `crates/sync` IS the facade: exempt from the sync-facade rule.
    facade_exempt: bool,
    /// `src/` of a data-path crate: the no-unwrap rule applies.
    data_path: bool,
    /// `crates/rpc` + `crates/common`: legitimate transport-error mints.
    taxonomy_exempt: bool,
    /// `crates/controller` + `crates/server`: the exhaustive-dispatch
    /// rule applies (these hold the RPC dispatch `match`es).
    dispatch: bool,
    /// `crates/proto` defines `INTERNAL_RID` (and pins its wire value in
    /// examples): exempt from the internal-rid rule.
    rid_exempt: bool,
    /// `crates/{bench,benchmark,harness,sim}` pace load and simulate
    /// latency with sleeps on purpose: exempt from stoppable-sleep.
    measurement: bool,
    /// Dedicated test trees (`tests/`, `benches/`, `examples/`): only the
    /// sync-facade rule applies.
    test_only: bool,
}

impl Scope {
    fn of(rel: &Path) -> Self {
        let parts: Vec<&str> = rel.iter().map(|c| c.to_str().unwrap_or_default()).collect();
        let mut scope = Scope::default();
        if matches!(
            parts.first().copied(),
            Some("vendor") | Some("target") | Some("xtask") | Some(".git")
        ) {
            scope.skip = true;
            return scope;
        }
        // Dedicated test/bench trees never run in production.
        if parts
            .iter()
            .any(|p| *p == "tests" || *p == "benches" || *p == "examples")
        {
            scope.test_only = true;
            return scope;
        }
        if parts.first() == Some(&"crates") {
            match parts.get(1).copied() {
                Some("sync") => scope.facade_exempt = true,
                Some("common") => scope.taxonomy_exempt = true,
                Some("proto") => scope.rid_exempt = true,
                Some("bench" | "benchmark" | "harness" | "sim") => scope.measurement = true,
                Some(name) if DATA_PATH_CRATES.contains(&name) => {
                    scope.data_path = true;
                    // rpc is both data-path (no-unwrap applies) and a
                    // legitimate minting site for transport errors.
                    scope.taxonomy_exempt = name == "rpc";
                    scope.dispatch = matches!(name, "controller" | "server");
                }
                _ => {}
            }
        }
        scope
    }
}

/// Rule 1: no direct `std::sync` / `parking_lot` use.
fn check_sync_facade(rel: &Path, line: usize, code: &str, out: &mut Vec<Violation>) {
    for needle in ["std::sync", "parking_lot"] {
        if code.contains(needle) {
            out.push(Violation {
                rule: "sync-facade",
                path: rel.to_path_buf(),
                line,
                message: format!(
                    "direct `{needle}` use — import from `jiffy_sync` instead so the loom \
                     and lock-order backends see this primitive"
                ),
            });
        }
    }
}

/// Rule 2: no `.unwrap()` / undocumented `.expect(` in data-path code.
fn check_no_unwrap(rel: &Path, line: usize, code: &str, out: &mut Vec<Violation>) {
    if code.contains(".unwrap()") {
        out.push(Violation {
            rule: "no-unwrap",
            path: rel.to_path_buf(),
            line,
            message: "`.unwrap()` in data-path code — return a `JiffyError` or use \
                      `.expect(\"invariant: ...\")` with a proof sketch"
                .into(),
        });
    }
    let mut rest = code;
    while let Some(pos) = rest.find(".expect(") {
        let after = &rest[pos + ".expect(".len()..];
        if !after.trim_start().starts_with("\"invariant: ") {
            out.push(Violation {
                rule: "no-unwrap",
                path: rel.to_path_buf(),
                line,
                message: "`.expect()` in data-path code without an `\"invariant: ...\"` \
                          justification — return a `JiffyError` instead"
                    .into(),
            });
        }
        rest = after;
    }
}

/// Rule 3: `JiffyError::Timeout` / `::Unavailable` constructed outside
/// the transport layer.
fn check_error_taxonomy(rel: &Path, line: usize, code: &str, out: &mut Vec<Violation>) {
    for variant in ["JiffyError::Timeout", "JiffyError::Unavailable"] {
        let mut search = code;
        let mut offset = 0usize;
        while let Some(pos) = search.find(variant) {
            let abs = offset + pos;
            let after = &search[pos + variant.len()..];
            if is_construction(code, abs, after) {
                out.push(Violation {
                    rule: "error-taxonomy",
                    path: rel.to_path_buf(),
                    line,
                    message: format!(
                        "`{variant}` constructed outside crates/rpc + crates/common — \
                         transport faults drive `is_transport()` retry semantics and may \
                         only be minted by the transport layer"
                    ),
                });
            }
            offset = abs + variant.len();
            search = &code[offset..];
        }
    }
}

/// Rule 4: no bare `_` catch-all arms in `ControlRequest` /
/// `DataRequest` dispatch matches.
///
/// Works on the whole file because the verdict for a `_ =>` arm depends
/// on sibling arms seen later: a `match` region is "dispatch" once any
/// arm at its level literally starts with `ControlRequest::` or
/// `DataRequest::`. Nested matches get their own region, so a wildcard
/// inside an arm's inner `match other_enum { ... }` is never attributed
/// to the outer dispatch.
fn check_exhaustive_dispatch(rel: &Path, text: &str, out: &mut Vec<Violation>) {
    struct Region {
        /// Brace depth at which this match's arms sit.
        arm_depth: i32,
        /// Saw an arm literally starting with `ControlRequest::` /
        /// `DataRequest::`.
        dispatch: bool,
        /// Line numbers of bare `_` arms, flagged if `dispatch` ends up true.
        wildcards: Vec<usize>,
    }
    let mut depth = 0i32;
    let mut stack: Vec<Region> = Vec::new();
    let mut tests = TestRegionTracker::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let code = strip_comments(raw);
        // Test regions are brace-balanced, so skipping them whole keeps
        // the outer depth consistent.
        if tests.observe(&code) {
            continue;
        }
        let trimmed = code.trim();
        if let Some(region) = stack.last_mut() {
            if depth == region.arm_depth {
                if trimmed.starts_with("ControlRequest::") || trimmed.starts_with("DataRequest::") {
                    region.dispatch = true;
                }
                if trimmed.starts_with("_ =>") || trimmed.starts_with("_ |") {
                    region.wildcards.push(line_no);
                }
            }
        }
        let delta = brace_delta(&code);
        if delta > 0 && has_match_keyword(&code) {
            depth += delta;
            stack.push(Region {
                arm_depth: depth,
                dispatch: false,
                wildcards: Vec::new(),
            });
            continue;
        }
        depth += delta;
        while stack.last().is_some_and(|r| depth < r.arm_depth) {
            let region = stack.pop().expect("invariant: checked non-empty above");
            if region.dispatch {
                for line in region.wildcards {
                    out.push(Violation {
                        rule: "exhaustive-dispatch",
                        path: rel.to_path_buf(),
                        line,
                        message: "bare `_` arm in a ControlRequest/DataRequest dispatch match — \
                                  new RPC variants must fail compilation here, not fall into a \
                                  catch-all; name the arm (`other =>`) if a catch-all is truly \
                                  intended"
                            .into(),
                    });
                }
            }
        }
    }
}

/// `ControlRequest` variants that mutate controller metadata and must
/// therefore journal before acking (rule 5). Deliberately absent:
/// `ResolvePrefix`, `GetLeaseDuration`, `ListServers`, `GetStats`,
/// `ListPrefixes` and `CommitRepartition` are read-only, and `Heartbeat`
/// is liveness-only — liveness is re-learned from the wire after a
/// restart, never replayed from the journal (DESIGN.md §11).
const MUTATING_CONTROL_ARMS: &[&str] = &[
    "RegisterJob",
    "DeregisterJob",
    "CreatePrefix",
    "AddParent",
    "CreateHierarchy",
    "RemovePrefix",
    "RenewLease",
    "FlushPrefix",
    "LoadPrefix",
    "JoinServer",
    "LeaveServer",
    "ReportOverload",
    "ReportUnderload",
    "SetTenantShare",
];

/// Rule 5: a mutating `ControlRequest::` arm that mints its own
/// `Ok(ControlResponse::...)` ack must journal first: `journal_append`,
/// or `.commit(..)` (journal the mutation and its answer, then ack).
///
/// Same region machinery as rule 4: a `match` region tracks the brace
/// depth its arms sit at; an arm opens on a `ControlRequest::<Variant>`
/// pattern line and closes at the next same-depth arm (or when the
/// region does). Lines inside nested regions are still scanned into
/// every enclosing open arm, so a `journal_append` or an ack inside an
/// arm's inner `match` is attributed correctly. Routers that forward
/// the request (`shard.dispatch(req)`) never mint a response literal
/// and so are never flagged; a router arm that *does* mint a literal
/// (a fan-out) satisfies the rule by forwarding
/// through `dispatch_journaled`, which reaches a journaling shard and
/// counts the same as a direct `journal_append`.
fn check_journal_before_ack(rel: &Path, text: &str, out: &mut Vec<Violation>) {
    struct Arm {
        /// Line of the `ControlRequest::<Variant>` pattern.
        start_line: usize,
        /// Any pattern in the (possibly `|`-joined) arm is mutating.
        mutating: bool,
        /// Saw a journaling call already.
        journaled: bool,
        /// First `Ok(ControlResponse::` seen before any journaling call.
        unjournaled_ack: Option<usize>,
    }
    struct Region {
        arm_depth: i32,
        arm: Option<Arm>,
    }

    fn names_mutating_variant(code: &str) -> bool {
        let mut rest = code;
        while let Some(pos) = rest.find("ControlRequest::") {
            let after = &rest[pos + "ControlRequest::".len()..];
            let ident: String = after
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if MUTATING_CONTROL_ARMS.contains(&ident.as_str()) {
                return true;
            }
            rest = after;
        }
        false
    }

    fn scan_into(arm: &mut Arm, line_no: usize, code: &str) {
        // `commit` journals the mutation with its answer; per-shard
        // routers journal by forwarding: `dispatch_journaled` lands on a
        // shard whose own dispatch journals before acking.
        let journal = ["journal_append", ".commit(", "dispatch_journaled"]
            .iter()
            .filter_map(|token| code.find(token))
            .min();
        if !arm.journaled && arm.unjournaled_ack.is_none() {
            if let Some(ack) = code.find("Ok(ControlResponse::") {
                if journal.is_none_or(|j| j > ack) {
                    arm.unjournaled_ack = Some(line_no);
                }
            }
        }
        if journal.is_some() {
            arm.journaled = true;
        }
    }

    fn finish(rel: &Path, arm: Option<Arm>, out: &mut Vec<Violation>) {
        let Some(arm) = arm else { return };
        if !arm.mutating {
            return;
        }
        if let Some(line) = arm.unjournaled_ack {
            out.push(Violation {
                rule: "journal-before-ack",
                path: rel.to_path_buf(),
                line,
                message: format!(
                    "mutating ControlRequest arm (line {}) acks without a prior \
                     `journal_append` / `commit` — a controller crash after this ack would \
                     lose the mutation; append the journal record first (DESIGN.md §11)",
                    arm.start_line
                ),
            });
        }
    }

    let mut depth = 0i32;
    let mut stack: Vec<Region> = Vec::new();
    let mut tests = TestRegionTracker::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let code = strip_comments(raw);
        if tests.observe(&code) {
            continue;
        }
        let trimmed = code.trim();
        if let Some(region) = stack.last_mut() {
            if depth == region.arm_depth {
                if trimmed.starts_with("ControlRequest::") {
                    finish(rel, region.arm.take(), out);
                    region.arm = Some(Arm {
                        start_line: line_no,
                        mutating: names_mutating_variant(trimmed),
                        journaled: false,
                        unjournaled_ack: None,
                    });
                } else if trimmed.starts_with('|') {
                    // Continuation of a multi-pattern arm.
                    if let Some(arm) = region.arm.as_mut() {
                        arm.mutating |= names_mutating_variant(trimmed);
                    }
                } else if trimmed.contains("=>") {
                    // Some other arm (named catch-all, other enum, `_`).
                    finish(rel, region.arm.take(), out);
                }
            }
        }
        for region in &mut stack {
            if let Some(arm) = region.arm.as_mut() {
                scan_into(arm, line_no, &code);
            }
        }
        let delta = brace_delta(&code);
        if delta > 0 && has_match_keyword(&code) {
            depth += delta;
            stack.push(Region {
                arm_depth: depth,
                arm: None,
            });
            continue;
        }
        depth += delta;
        while stack.last().is_some_and(|r| depth < r.arm_depth) {
            let region = stack.pop().expect("invariant: checked non-empty above");
            finish(rel, region.arm, out);
        }
    }
    while let Some(region) = stack.pop() {
        finish(rel, region.arm, out);
    }
}

/// Rule 6: a bare `id: 0` literal inside an `Envelope::DataReq`
/// construction (spell it `INTERNAL_RID`).
///
/// Same shape as rule 4's region machinery: a construction opens on a
/// line where `Envelope::DataReq` appears in construction position (per
/// [`is_construction`] — pattern matches and `..` wildcards are not
/// flagged) and stays open until its brace closes, so the `id:` field
/// is caught wherever rustfmt put it. `DataResp` / `ControlReq`
/// envelopes are out of scope: only data *requests* carry a request id
/// the replay window interprets.
fn check_internal_rid(rel: &Path, text: &str, out: &mut Vec<Violation>) {
    let mut depth = 0i32;
    // Body depths of open `Envelope::DataReq { ... }` literals.
    let mut regions: Vec<i32> = Vec::new();
    let mut tests = TestRegionTracker::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let code = strip_comments(raw);
        if tests.observe(&code) {
            continue;
        }
        let mut opened = false;
        if let Some(pos) = code.find("Envelope::DataReq") {
            let after = &code[pos + "Envelope::DataReq".len()..];
            opened = is_construction(&code, pos, after);
        }
        if (opened || !regions.is_empty()) && has_bare_zero_id(&code) {
            out.push(Violation {
                rule: "internal-rid",
                path: rel.to_path_buf(),
                line: line_no,
                message: "bare `id: 0` on a data envelope — write \
                          `jiffy_proto::INTERNAL_RID` so the replay-window bypass for \
                          internal traffic stays greppable (DESIGN.md §16)"
                    .into(),
            });
        }
        let delta = brace_delta(&code);
        if opened && delta > 0 {
            regions.push(depth + delta);
        }
        depth += delta;
        while regions.last().is_some_and(|&d| depth < d) {
            regions.pop();
        }
    }
}

/// Rule 7: a `thread::sleep` lexically inside a `spawn(..)` call's
/// arguments — the closure a new thread runs.
///
/// Token-based (the sleep is usually several lines and a `loop` away
/// from its `spawn(`): every non-test function body is scanned for
/// `spawn (` groups, `Builder::spawn` and `thread::spawn` alike, and
/// each group for `thread :: sleep`. Sleeps in functions the closure
/// merely *calls* are out of scope by design — the rule keeps the loop
/// shape itself from coming back, it is not a reachability analysis.
fn check_stoppable_sleep(rel: &Path, text: &str, out: &mut Vec<Violation>) {
    use lex::TokKind::{Ident, Punct};
    let lexed = lex::lex(text);
    let toks = &lexed.toks;
    let is = |i: usize, kind: lex::TokKind, text: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == kind && t.text == text)
    };
    let mut lines: Vec<usize> = Vec::new();
    for item in parse::parse_items(&lexed).iter().filter(|f| !f.is_test) {
        let mut i = item.body.start;
        while i < item.body.end {
            if !(is(i, Ident, "spawn") && is(i + 1, Punct('('), "(")) {
                i += 1;
                continue;
            }
            // The call's argument group: from its `(` to the matching `)`.
            let mut depth = 0usize;
            let mut j = i + 1;
            while j < item.body.end {
                match toks[j].kind {
                    Punct('(') => depth += 1,
                    Punct(')') => depth -= 1,
                    _ => {}
                }
                if depth == 0 {
                    break;
                }
                let sleeps = is(j, Ident, "thread")
                    && is(j + 1, Punct(':'), ":")
                    && is(j + 2, Punct(':'), ":")
                    && is(j + 3, Ident, "sleep");
                let line = toks[j].line;
                let allowed = |ln: usize| {
                    lexed
                        .allow_on("stoppable-sleep", ln)
                        .is_some_and(|a| !a.reason.is_empty())
                };
                if sleeps && !allowed(line) && !allowed(line.saturating_sub(1)) {
                    lines.push(line);
                }
                j += 1;
            }
            i = j;
        }
    }
    // Nested fn items are scanned once per enclosing body.
    lines.sort_unstable();
    lines.dedup();
    for line in lines {
        out.push(Violation {
            rule: "stoppable-sleep",
            path: rel.to_path_buf(),
            line,
            message: "`thread::sleep` inside a `spawn(..)` closure — the thread cannot be \
                      stopped before the sleep ends and its joiner pays the remainder; wait on \
                      `jiffy_sync::StopSignal::wait(interval)` instead (DESIGN.md §8)"
                .into(),
        });
    }
}

/// Does the line contain `id: 0` as a whole field init (not `rid: 0`,
/// `id: 0x...`, an identifier suffix, ...)?
fn has_bare_zero_id(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find("id: 0") {
        let abs = start + pos;
        let before_ok = abs == 0 || {
            let b = bytes[abs - 1];
            !b.is_ascii_alphanumeric() && b != b'_'
        };
        let after_ok = !bytes
            .get(abs + "id: 0".len())
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_' || *b == b'.');
        if before_ok && after_ok {
            return true;
        }
        start = abs + "id: 0".len();
    }
    false
}

/// Is the `match` keyword (not `matches!`, `.match_indices`, an
/// identifier suffix, ...) present on this comment-stripped line?
fn has_match_keyword(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find("match") {
        let abs = start + pos;
        let before_ok = abs == 0 || {
            let b = bytes[abs - 1];
            !b.is_ascii_alphanumeric() && b != b'_' && b != b'.'
        };
        let after_ok = matches!(bytes.get(abs + 5), Some(b' ') | Some(b'\t') | Some(b'('));
        if before_ok && after_ok {
            return true;
        }
        start = abs + 5;
    }
    false
}

/// Heuristic: does this occurrence build the variant (vs. match on it)?
///
/// * `Variant(_...)` / `Variant { .. }` — wildcard pattern, not flagged.
/// * occurrence left of a `=>` on the same line — match-arm pattern.
/// * bare `Variant` with no `(`/`{` — path mention (docs, `use`), skipped.
fn is_construction(full_line: &str, abs_pos: usize, after: &str) -> bool {
    if let Some(arrow) = full_line.find("=>") {
        if abs_pos < arrow {
            return false;
        }
    }
    let trimmed = after.trim_start();
    if let Some(inner) = trimmed.strip_prefix('(') {
        let inner = inner.trim_start();
        return !inner.starts_with('_') && !inner.starts_with("..");
    }
    if let Some(inner) = trimmed.strip_prefix('{') {
        let close = inner.find('}').unwrap_or(inner.len());
        return !inner[..close].contains("..");
    }
    false
}

/// Tracks whether the current line is inside a `#[cfg(test)]` item, by
/// counting braces from the attribute's item to its closing brace.
struct TestRegionTracker {
    /// Saw `#[cfg(test)]`; waiting for the item body to open.
    pending: bool,
    /// Brace depth inside an open test region (0 = not in a region).
    depth: i32,
    in_region: bool,
}

impl TestRegionTracker {
    fn new() -> Self {
        Self {
            pending: false,
            depth: 0,
            in_region: false,
        }
    }

    /// Feeds one comment-stripped line; returns whether that line is test
    /// code (the attribute line itself counts as test code).
    fn observe(&mut self, code: &str) -> bool {
        if self.in_region {
            self.depth += brace_delta(code);
            if self.depth <= 0 {
                self.in_region = false;
                self.depth = 0;
            }
            return true;
        }
        if code.contains("cfg(test") || code.contains("cfg(all(test") {
            self.pending = true;
            return true;
        }
        if self.pending {
            let delta = brace_delta(code);
            if delta > 0 {
                self.in_region = true;
                self.depth = delta;
                self.pending = false;
            } else if code.trim_end().ends_with(';') {
                // Attribute applied to a braceless item (`use`, `static`).
                self.pending = false;
            }
            return true;
        }
        false
    }
}

/// Net `{`/`}` count, ignoring braces inside string literals well enough
/// for rustfmt-formatted code.
fn brace_delta(code: &str) -> i32 {
    let mut delta = 0i32;
    let mut in_str = false;
    let mut prev = '\0';
    for c in code.chars() {
        match c {
            '"' if prev != '\\' => in_str = !in_str,
            '{' if !in_str && prev != '\'' => delta += 1,
            '}' if !in_str && prev != '\'' => delta -= 1,
            _ => {}
        }
        prev = if prev == '\\' && c == '\\' { '\0' } else { c };
    }
    delta
}

/// Strips `//` line comments (incl. doc comments), preserving `//`
/// inside string literals.
fn strip_comments(raw: &str) -> String {
    let mut in_str = false;
    let mut prev = '\0';
    let chars: Vec<char> = raw.chars().collect();
    for i in 0..chars.len() {
        let c = chars[i];
        if c == '"' && prev != '\\' && chars.get(i.wrapping_sub(1)) != Some(&'\'') {
            in_str = !in_str;
        }
        if !in_str && c == '/' && chars.get(i + 1) == Some(&'/') {
            return chars[..i].iter().collect();
        }
        prev = if prev == '\\' && c == '\\' { '\0' } else { c };
    }
    raw.to_string()
}

/// All `.rs` files under `root`, skipping vendor/target/fixture trees.
fn rust_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_str().unwrap_or_default();
            if path.is_dir() {
                if matches!(name, "vendor" | "target" | ".git" | "fixtures" | "xtask") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(rel: &str, text: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        lint_file(Path::new(rel), text, &mut out);
        out
    }

    #[test]
    fn flags_std_sync_outside_facade() {
        let v = lint_str("crates/server/src/lib.rs", "use std::sync::Mutex;\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "sync-facade");
    }

    #[test]
    fn sync_crate_is_exempt_from_facade_rule() {
        assert!(lint_str("crates/sync/src/plain.rs", "use std::sync::Mutex;\n").is_empty());
    }

    #[test]
    fn comments_do_not_trip_rules() {
        assert!(lint_str(
            "crates/server/src/lib.rs",
            "// std::sync is banned; so is x.unwrap()\n"
        )
        .is_empty());
    }

    #[test]
    fn flags_unwrap_in_data_path_only() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(lint_str("crates/rpc/src/tcp.rs", src).len(), 1);
        assert!(lint_str("crates/client/src/lib.rs", src).is_empty());
    }

    #[test]
    fn invariant_expect_is_allowed() {
        assert!(lint_str(
            "crates/block/src/store.rs",
            "let v = map.get(&k).expect(\"invariant: inserted above\");\n"
        )
        .is_empty());
        assert_eq!(
            lint_str(
                "crates/block/src/store.rs",
                "let v = map.get(&k).expect(\"present\");\n"
            )
            .len(),
            1
        );
    }

    #[test]
    fn cfg_test_region_is_exempt() {
        let src = "\
fn real() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
fn real2() { z.unwrap(); }
";
        let v = lint_str("crates/cuckoo/src/map.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 6);
    }

    #[test]
    fn taxonomy_flags_construction_not_patterns() {
        // Construction outside rpc/common: flagged.
        let v = lint_str(
            "crates/client/src/lib.rs",
            "return Err(JiffyError::Unavailable(format!(\"srv-{id}\")));\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "error-taxonomy");
        // Patterns: exempt.
        for pat in [
            "if matches!(e, JiffyError::Timeout { .. }) {\n",
            "if let JiffyError::Unavailable(_) = e {\n",
            "Err(JiffyError::Unavailable(msg)) => retry(),\n",
        ] {
            assert!(
                lint_str("crates/client/src/lib.rs", pat).is_empty(),
                "{pat}"
            );
        }
        // Construction on the right of a match arm: flagged.
        let v = lint_str(
            "crates/client/src/lib.rs",
            "Fault::Drop => Err(JiffyError::Timeout { after_ms: 5 }),\n",
        );
        assert_eq!(v.len(), 1);
        // rpc/common may construct freely.
        assert!(lint_str(
            "crates/rpc/src/fault.rs",
            "Err(JiffyError::Timeout { after_ms: 5 })\n"
        )
        .is_empty());
    }

    #[test]
    fn internal_rid_flags_bare_zero_in_datareq_construction() {
        // Multi-line construction (the rustfmt shape).
        let src = "\
fn probe(conn: &Conn) -> Result<Envelope> {
    conn.call(Envelope::DataReq {
        id: 0,
        req: DataRequest::Ping,
        tenant: TenantId::ANONYMOUS,
    })
}
";
        let v = lint_str("crates/client/src/lib.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "internal-rid");
        assert_eq!(v[0].line, 3);
        // The sanctioned spelling, patterns, other envelopes, other
        // zero-valued fields, and the proto crate itself: all exempt.
        for (rel, ok) in [
            (
                "crates/client/src/lib.rs",
                "Envelope::DataReq { id: INTERNAL_RID, req, tenant }\n",
            ),
            (
                "crates/client/src/lib.rs",
                "Envelope::DataReq { id: 0, .. } => replay(),\n",
            ),
            (
                "crates/client/src/lib.rs",
                "Envelope::DataResp { id: 0, resp }\n",
            ),
            (
                "crates/server/src/lib.rs",
                "Envelope::DataReq { id: rid, req, tenant }\n",
            ),
            (
                "crates/server/src/lib.rs",
                "let x = Thing { rid: 0, id: 7 };\n",
            ),
            (
                "crates/proto/src/messages.rs",
                "Envelope::DataReq { id: 0, req, tenant }\n",
            ),
        ] {
            assert!(lint_str(rel, ok).is_empty(), "{rel}: {ok}");
        }
    }

    #[test]
    fn stoppable_sleep_flags_sleeps_inside_spawn_closures_only() {
        let looping = "\
fn start(interval: Duration) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(\"worker\".into())
        .spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(interval);
                tick();
            }
        })
        .expect(\"invariant: spawn\")
}
";
        let v = lint_str("crates/client/src/lease.rs", looping);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "stoppable-sleep");
        assert_eq!(v[0].line, 6);
        // `thread::spawn(..)` is the same shape without the builder.
        let bare = "fn f() { thread::spawn(|| loop { thread::sleep(D); }); }\n";
        assert_eq!(lint_str("crates/models/src/x.rs", bare).len(), 1);
        // Measurement crates and test trees pace themselves with sleeps.
        for exempt in [
            "crates/bench/src/bin/x.rs",
            "crates/benchmark/src/load.rs",
            "crates/harness/src/runner.rs",
            "crates/sim/src/lib.rs",
            "tests/chaos.rs",
        ] {
            assert!(lint_str(exempt, looping).is_empty(), "{exempt}");
        }
        // Not in a spawn closure, the stop-aware wait, a vetted sleep
        // and test code: all clean.
        for ok in [
            "fn backoff() { std::thread::sleep(RETRY_BACKOFF); }\n",
            "fn f() { thread::spawn(move || while !stop.wait(interval) { tick(); }); }\n",
            "fn f() {\n    thread::spawn(|| {\n        // xtask-allow(stoppable-sleep): one-shot delay, never joined\n        thread::sleep(D);\n    });\n}\n",
            "#[cfg(test)]\nmod tests {\n    fn t() { thread::spawn(|| thread::sleep(D)); }\n}\n",
        ] {
            assert!(lint_str("crates/client/src/x.rs", ok).is_empty(), "{ok}");
        }
        // An allow without a reason does not suppress.
        let unreasoned = "fn f() {\n    thread::spawn(|| {\n        // xtask-allow(stoppable-sleep):\n        thread::sleep(D);\n    });\n}\n";
        assert_eq!(lint_str("crates/client/src/x.rs", unreasoned).len(), 1);
    }

    #[test]
    fn dispatch_catch_all_is_flagged() {
        let src = "\
fn dispatch(req: ControlRequest) -> u32 {
    match req {
        ControlRequest::RegisterJob { .. } => 1,
        _ => 0,
    }
}
";
        let v = lint_str("crates/controller/src/controller.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "exhaustive-dispatch");
        assert_eq!(v[0].line, 4);
        // Same source in a crate outside controller/server: out of scope.
        assert!(lint_str("crates/client/src/lib.rs", src).is_empty());
    }

    #[test]
    fn named_catch_all_and_non_dispatch_matches_are_exempt() {
        // `other =>` shows intent (sharding fan-out does this): allowed.
        let named = "\
fn route(req: ControlRequest) -> u32 {
    match req {
        ControlRequest::RegisterJob { .. } => 1,
        other => job_of(&other),
    }
}
";
        assert!(lint_str("crates/controller/src/sharding.rs", named).is_empty());
        // `use ControlRequest::*` arms don't carry the literal prefix, so
        // helper matches like `job_of` stay out of the rule's scope.
        let glob = "\
fn job_of(req: &ControlRequest) -> Option<JobId> {
    use ControlRequest::*;
    match req {
        DeregisterJob { job } => Some(*job),
        _ => None,
    }
}
";
        assert!(lint_str("crates/controller/src/sharding.rs", glob).is_empty());
        // A match over some other enum is never a dispatch match.
        let other_enum = "\
fn f(s: &DsSkeleton) -> u32 {
    match s {
        DsSkeleton::Kv { .. } => 1,
        _ => 0,
    }
}
";
        assert!(lint_str("crates/server/src/server.rs", other_enum).is_empty());
    }

    #[test]
    fn nested_match_wildcard_not_attributed_to_dispatch() {
        let src = "\
fn dispatch(req: DataRequest) -> u32 {
    match req {
        DataRequest::Op { block, op } => {
            match op {
                DsOp::KvGet { .. } => 1,
                _ => 2,
            }
        }
        DataRequest::Subscribe { .. } => 3,
    }
}
";
        assert!(lint_str("crates/server/src/server.rs", src).is_empty());
        // And the inverse: a dispatch wildcard is still caught even when
        // a clean nested match sits inside one of its arms.
        let src = "\
fn dispatch(req: DataRequest) -> u32 {
    match req {
        DataRequest::Op { block, op } => {
            match op {
                DsOp::KvGet { .. } => 1,
                other => cost(other),
            }
        }
        _ => 3,
    }
}
";
        let v = lint_str("crates/server/src/server.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 9);
    }

    #[test]
    fn journal_before_ack_flags_unjournaled_mutating_arms() {
        let src = "\
fn dispatch(req: ControlRequest) -> Result<ControlResponse> {
    match req {
        ControlRequest::RegisterJob { name } => {
            st.jobs.insert(job, entry);
            Ok(ControlResponse::JobRegistered { job })
        }
        ControlRequest::GetStats => Ok(ControlResponse::Stats(stats)),
    }
}
";
        let v = lint_str("crates/controller/src/controller.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "journal-before-ack");
        assert_eq!(v[0].line, 5, "the ack line is reported");
        // Same shape outside the dispatch crates: out of scope.
        assert!(lint_str("crates/client/src/lib.rs", src).is_empty());
    }

    #[test]
    fn journal_before_ack_accepts_journaled_arms_and_routers() {
        // The canonical shapes: mutate, then commit (journal + answer +
        // ack) or journal and ack.
        let good = "\
fn dispatch(req: ControlRequest) -> Result<ControlResponse> {
    match req {
        ControlRequest::RegisterJob { name } => {
            let ops = vec![JournalOp::JobRegistered { job, name, tenant }];
            self.commit(st, rid, ops, ControlResponse::JobRegistered { job })
        }
        ControlRequest::DeregisterJob { job } => {
            let resp = self.commit(st, rid, ops, ControlResponse::Ack)?;
            deferred_resets.extend(locs);
            Ok(resp)
        }
        ControlRequest::LeaveServer { server } => {
            self.commit(st, rid, ops, ControlResponse::Ack)?;
            Ok(ControlResponse::Drained { server })
        }
        ControlRequest::CreatePrefix { job, name } => {
            let ops = self.create_prefix(&mut st, job, &name)?;
            self.journal_append(&mut st, ops)?;
            Ok(ControlResponse::Created)
        }
        ControlRequest::Heartbeat { server, .. } => {
            st.detector.record(server, now);
            Ok(ControlResponse::Ack)
        }
    }
}
";
        assert!(lint_str("crates/controller/src/controller.rs", good).is_empty());
        // Journaling only *after* the ack was minted is still a bug.
        let late = "\
fn dispatch(req: ControlRequest) -> Result<ControlResponse> {
    match req {
        ControlRequest::RenewLease { job, name } => {
            let resp = Ok(ControlResponse::Renewed(renewed));
            self.journal_append(&mut st, ops)?;
            resp
        }
    }
}
";
        let v = lint_str("crates/controller/src/controller.rs", late);
        assert_eq!(v.len(), 1, "{v:?}");
        // Routers forward without minting a response: exempt, including
        // multi-pattern arms.
        let router = "\
fn dispatch(&self, req: ControlRequest) -> Result<ControlResponse> {
    match &req {
        ControlRequest::RegisterJob { .. } => self.shards[0].dispatch(req),
        ControlRequest::JoinServer { .. }
        | ControlRequest::LeaveServer { .. }
        | ControlRequest::ListServers => self.shards[0].dispatch(req),
        other => self.route(other).dispatch(req),
    }
}
";
        assert!(lint_str("crates/controller/src/sharding.rs", router).is_empty());
    }

    #[test]
    fn journal_before_ack_sees_through_nested_matches() {
        // A journal call or ack inside an arm's nested match still
        // belongs to the arm.
        let src = "\
fn dispatch(req: ControlRequest) -> Result<ControlResponse> {
    match req {
        ControlRequest::FlushPrefix { job, name, path } => {
            match self.flush(&mut st, job, &name, &path) {
                Ok(ops) => self.journal_append(&mut st, ops)?,
                Err(e) => return Err(e),
            }
            Ok(ControlResponse::Flushed)
        }
    }
}
";
        assert!(lint_str("crates/controller/src/controller.rs", src).is_empty());
    }

    #[test]
    fn journal_before_ack_recognizes_shard_forwarding() {
        // A shard router that mints its own response literal (a fan-out)
        // satisfies the rule by forwarding through
        // dispatch_journaled — the shard journals before acking.
        let good = "\
fn dispatch_as(&self, req: ControlRequest) -> Result<ControlResponse> {
    match req {
        ControlRequest::SetTenantShare { .. } => {
            for i in 0..n {
                self.dispatch_journaled(i, req.clone(), tenant)?;
            }
            Ok(ControlResponse::Ack)
        }
    }
}
";
        assert!(lint_str("crates/controller/src/sharding.rs", good).is_empty());
        // Acking before any forwarding is still a lost mutation.
        let bad = "\
fn dispatch_as(&self, req: ControlRequest) -> Result<ControlResponse> {
    match req {
        ControlRequest::SetTenantShare { .. } => {
            if self.known(&req) {
                return Ok(ControlResponse::Ack);
            }
            self.dispatch_journaled(0, req, tenant)
        }
    }
}
";
        let v = lint_str("crates/controller/src/sharding.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "journal-before-ack");
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn dispatch_rule_skips_test_regions_and_matches_macro() {
        let src = "\
fn f(e: &JiffyError) -> bool {
    matches!(e, JiffyError::Timeout { .. })
}
#[cfg(test)]
mod tests {
    fn t(req: ControlRequest) -> u32 {
        match req {
            ControlRequest::RegisterJob { .. } => 1,
            _ => 0,
        }
    }
}
";
        assert!(lint_str("crates/controller/src/controller.rs", src).is_empty());
    }
}
