//! `cargo xtask <command>` — workspace automation.
//!
//! Commands:
//!   lint [ROOT] [--rule NAME] [--json]
//!                 run the repo-invariant line-based checks (default
//!                 command; ROOT defaults to the workspace root via
//!                 CARGO_MANIFEST_DIR). Exits 1 if any rule fires.
//!   analyze [ROOT] [--rule NAME] [--json] [--lock-order-dump PATH]
//!                 run the parser-based concurrency checks
//!                 (guard-liveness, reactor blocking, static lock
//!                 order). With --lock-order-dump, also cross-check the
//!                 static acquisition graph against a
//!                 JIFFY_LOCK_ORDER_DUMP capture from the debug test
//!                 suite. Exits 1 if any rule fires.
//!   loc BASE-REF  per crate, lines added / removed since BASE-REF, split
//!                 into non-test code and test code (`tests/` trees and
//!                 `#[cfg(test)]` regions) — the LOC delta CHANGES.md
//!                 reports.
//!   bench-diff A.json B.json
//!                 run `benchmark compare A.json B.json` through the
//!                 command BENCHMARK.json declares and pass its exit code
//!                 through: 0 when no metric of B is worse than A's
//!                 beyond its bound.
//!   bench-smoke   run every criterion bench in quick mode
//!                 (JIFFY_BENCH_QUICK=1: fixed low sample count) plus the
//!                 dataplane throughput and noisy neighbor bins — a
//!                 compile-and-run gate, not a measurement. Exits 1 if
//!                 any bench fails to run.
//!
//! `--json` prints one object per violation on stdout
//! (`{"file":..,"line":..,"rule":..,"message":..}` inside a top-level
//! array) so CI annotations and editor integrations don't parse the
//! human text.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use xtask::{RulePhase, Violation};

struct Opts {
    root: PathBuf,
    rule: Option<String>,
    json: bool,
    lock_order_dump: Option<PathBuf>,
}

fn parse_opts(args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts {
        root: default_root(),
        rule: None,
        json: false,
        lock_order_dump: None,
    };
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--rule" => {
                let name = args.next().ok_or("--rule requires a rule name")?;
                if !xtask::is_known_rule(&name) {
                    let known: Vec<&str> = xtask::RULES.iter().map(|r| r.name).collect();
                    return Err(format!(
                        "unknown rule `{name}` (known: {})",
                        known.join(", ")
                    ));
                }
                opts.rule = Some(name);
            }
            "--lock-order-dump" => {
                let p = args.next().ok_or("--lock-order-dump requires a path")?;
                opts.lock_order_dump = Some(PathBuf::from(p));
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            root => opts.root = PathBuf::from(root),
        }
    }
    Ok(opts)
}

fn default_root() -> PathBuf {
    // xtask/ lives directly under the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| "lint".to_string());
    match cmd.as_str() {
        "lint" | "analyze" => {
            let opts = match parse_opts(args) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("xtask {cmd}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let (phase, mut violations) = if cmd == "lint" {
                (RulePhase::Lint, xtask::lint(&opts.root))
            } else {
                (
                    RulePhase::Analyze,
                    xtask::analyze(&opts.root, opts.lock_order_dump.as_deref()),
                )
            };
            if let Some(rule) = &opts.rule {
                violations.retain(|v| v.rule == rule.as_str());
            }
            report(&cmd, phase, &violations, &opts)
        }
        "loc" => match args.next() {
            Some(base) => loc(&base),
            None => {
                eprintln!("xtask loc: expected a base ref (e.g. `cargo xtask loc HEAD~1`)");
                ExitCode::FAILURE
            }
        },
        "bench-diff" => bench_diff(&args.collect::<Vec<_>>()),
        "bench-smoke" => bench_smoke(),
        other => {
            eprintln!(
                "unknown xtask command `{other}` \
                 (expected: lint, analyze, loc, bench-diff, bench-smoke)"
            );
            ExitCode::FAILURE
        }
    }
}

fn report(cmd: &str, phase: RulePhase, violations: &[Violation], opts: &Opts) -> ExitCode {
    if opts.json {
        println!("{}", to_json(violations));
    } else {
        for v in violations {
            eprintln!("{v}");
        }
    }
    if violations.is_empty() {
        let scope = match &opts.rule {
            Some(rule) => format!("rule `{rule}` clean"),
            None => format!("{} rules clean", xtask::rule_count(phase)),
        };
        eprintln!("xtask {cmd}: ok ({scope})");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask {cmd}: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// Manual JSON serialization — xtask is dependency-free by design.
fn to_json(violations: &[Violation]) -> String {
    let mut out = String::from("[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&v.path.display().to_string()),
            v.line,
            json_escape(v.rule),
            json_escape(&v.message)
        ));
    }
    if !violations.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Prints the per-crate LOC delta of the working tree against `base`.
fn loc(base: &str) -> ExitCode {
    let root = default_root();
    let git = |args: &[&str]| -> Option<String> {
        let out = Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(args)
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let Some(diff) = git(&[
        "diff",
        "-U0",
        "--no-renames",
        "--no-color",
        base,
        "--",
        "*.rs",
    ]) else {
        eprintln!("xtask loc: `git diff {base}` failed");
        return ExitCode::FAILURE;
    };
    let tally = xtask::loc::tally(
        &diff,
        |path| git(&["show", &format!("{base}:{path}")]).unwrap_or_default(),
        |path| std::fs::read_to_string(root.join(path)).unwrap_or_default(),
    );
    print!("{}", xtask::loc::render(&tally));
    ExitCode::SUCCESS
}

/// Runs `benchmark compare` on two result files; its exit code is ours.
fn bench_diff(args: &[String]) -> ExitCode {
    let root = default_root();
    let argv = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|manifest| {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            xtask::bench_diff::compare_argv(&manifest, args, &cwd)
        });
    let argv = match argv {
        Ok(argv) => argv,
        Err(e) => {
            eprintln!("xtask bench-diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    match Command::new(&argv[0])
        .args(&argv[1..])
        .current_dir(&root)
        .status()
    {
        Ok(status) => match status.code() {
            Some(code) => ExitCode::from(code as u8),
            None => ExitCode::FAILURE,
        },
        Err(e) => {
            eprintln!("xtask bench-diff: failed to spawn {}: {e}", argv[0]);
            ExitCode::FAILURE
        }
    }
}

/// Runs the criterion suite and the dataplane throughput bin in quick
/// mode. Proves the benches compile and complete; discards the numbers.
fn bench_smoke() -> ExitCode {
    let steps: [(&str, &[&str]); 4] = [
        ("criterion benches", &["bench", "-p", "jiffy-bench"]),
        (
            "dataplane throughput bin",
            &[
                "run",
                "--release",
                "-p",
                "jiffy-bench",
                "--bin",
                "dataplane_throughput",
            ],
        ),
        (
            "noisy neighbor bin",
            &[
                "run",
                "--release",
                "-p",
                "jiffy-bench",
                "--bin",
                "noisy_neighbor",
            ],
        ),
        (
            "controller shards bin",
            &[
                "run",
                "--release",
                "-p",
                "jiffy-bench",
                "--bin",
                "controller_shards",
            ],
        ),
    ];
    for (what, cargo_args) in steps {
        eprintln!("xtask bench-smoke: running {what}");
        let status = Command::new(env!("CARGO"))
            .args(cargo_args)
            .env("JIFFY_BENCH_QUICK", "1")
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("xtask bench-smoke: {what} failed with {s}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("xtask bench-smoke: failed to spawn cargo: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!("xtask bench-smoke: ok");
    ExitCode::SUCCESS
}
