//! `benchmark` — see README.md in this crate.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
//!           [--repeat N] [--out FILE] [--trace-out FILE] [--smoke]
//! benchmark compare A.json B.json
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits 0
//! only when every output checked out and no operation failed. It writes
//! nowhere but standard output, `--out` and `--trace-out`.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use jiffy_benchmark::compare;
use jiffy_benchmark::host::{self, Canary};
use jiffy_benchmark::json::Json;
use jiffy_benchmark::run::{run_workload, Options, RunResult};
use jiffy_benchmark::stats::median;
use jiffy_benchmark::workloads::{self, Workload};

const USAGE: &str = "usage:
  benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
            [--repeat N] [--out FILE] [--trace-out FILE] [--smoke]
  benchmark compare A.json B.json

  --workload NAME   kv_small_repl | file_bulk | mr_job_churn | kv_grow_spill
                    (default: all four, one after another)
  --seed N          seed of every generated input (default 1)
  --seconds N       measurement window (default 16)
  --trace 0|1       1: traced run + layer probes, prints per-layer metrics
  --repeat N        run each selected workload N times, seeds N, N+1, ...
  --out FILE        write every run (all metrics, samples, spreads) as JSON
  --trace-out FILE  where --trace 1 writes its spans (JSON lines);
                    default bench_trace/<workload>.jsonl
  --smoke           tiny inputs, no burn-in: correctness only, for tests
";

struct Cli {
    workload: Option<String>,
    repeat: u64,
    out: Option<PathBuf>,
    opts: Options,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        repeat: 1,
        out: None,
        opts: Options {
            seed: 1,
            seconds: 16,
            trace: false,
            smoke: false,
            trace_out: None,
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cli.opts.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value.to_string()),
            "--seed" => cli.opts.seed = number()?,
            "--seconds" => cli.opts.seconds = number()?.clamp(1, 60),
            "--repeat" => cli.repeat = number()?.max(1),
            "--trace" => {
                cli.opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value)),
            "--trace-out" => cli.opts.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(cli)
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let rows = compare::compare(&load(a)?, &load(b)?);
    if rows.is_empty() {
        return Err("the two files share no workload with end-to-end metrics".into());
    }
    print!("{}", compare::render(&rows));
    Ok(rows.iter().all(|r| r.verdict != compare::Verdict::Worse))
}

/// The result line of several runs: counts added up, each metric the
/// median over the runs of its workload, named `workload/metric`.
fn combined_line(results: &[RunResult]) -> Json {
    let mut metrics: Vec<(String, Json)> = Vec::new();
    for wl in workloads::all() {
        let runs: Vec<&RunResult> = results.iter().filter(|r| r.workload == wl.name()).collect();
        let Some(first) = runs.first() else { continue };
        for m in &first.metrics {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|x| x.def.name == m.def.name))
                .map(|x| x.value)
                .collect();
            metrics.push((
                format!("{}/{}", wl.name(), m.def.name),
                Json::obj([
                    ("value", Json::Num(median(&values).unwrap_or(0.0))),
                    ("unit", Json::Str(m.def.unit.into())),
                ]),
            ));
        }
    }
    Json::obj([
        ("correct", Json::Bool(results.iter().all(|r| r.correct))),
        (
            "attempted",
            Json::Num(results.iter().map(|r| r.attempted).sum::<u64>().max(1) as f64),
        ),
        (
            "failed",
            Json::Num(results.iter().map(|r| r.failed).sum::<u64>() as f64),
        ),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn run_benchmark(cli: Cli) -> Result<bool, String> {
    let selected: Vec<&'static dyn Workload> = match &cli.workload {
        Some(name) => vec![workloads::by_name(name)
            .ok_or_else(|| format!("unknown workload {name}; see --help for the four names"))?],
        None => workloads::all().to_vec(),
    };
    // Before the first thread exists, so that every thread inherits it.
    let pinned_cpu = host::pin_to_one_cpu();
    let canary = Canary::start();
    let mut results = Vec::new();
    for wl in &selected {
        for i in 0..cli.repeat {
            let mut opts = cli.opts.clone();
            opts.seed = cli.opts.seed + i;
            if opts.trace && opts.trace_out.is_none() {
                opts.trace_out = Some(PathBuf::from(format!("bench_trace/{}.jsonl", wl.name())));
            }
            let result = run_workload(*wl, &opts, &canary, pinned_cpu)
                .map_err(|e| format!("{}: set-up failed: {e}", wl.name()))?;
            println!("{}", result.report());
            results.push(result);
        }
    }
    if let Some(path) = &cli.out {
        let doc = Json::obj([(
            "runs",
            Json::Arr(results.iter().map(RunResult::to_json).collect()),
        )]);
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let line = match results.as_slice() {
        [one] => one.result_line(),
        many => combined_line(many),
    };
    println!("{line}");
    Ok(results.iter().all(|r| r.correct))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("--help" | "-h") => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("compare") => match &args[1..] {
            [a, b] => run_compare(a, b),
            _ => Err("compare takes exactly two files".into()),
        },
        _ => parse(&args).and_then(run_benchmark),
    };
    let code = match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("benchmark: {e}");
            2
        }
    };
    let _ = std::io::stdout().flush();
    // Tearing TCP listeners down thread by thread takes seconds and
    // proves nothing once the result is printed; exiting ends every
    // thread this process started.
    std::process::exit(code);
}
