//! Keeps the benchmark compiling and correct as APIs move: every
//! workload for one second on shrunken inputs, untraced and traced, with
//! no assertion on any timing. Also holds `BENCHMARK.json` to the tables
//! in `src/metrics.rs` and to the limits the driver refuses a file over.

use std::path::PathBuf;
use std::process::Command;

use jiffy_benchmark::json::Json;
use jiffy_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use jiffy_benchmark::workloads;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 << 10, "BENCHMARK.json is over 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn members<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no array {key}"))
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{entry} has no string {key}"))
}

fn keys(entry: &Json) -> Vec<&str> {
    entry
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn well_formed_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The metrics of one table as `BENCHMARK.json` lists them must be the
/// table in `src/metrics.rs`, entry for entry.
fn assert_table(doc: &Json, key: &str, table: &[MetricDef]) {
    let listed = members(doc, key);
    assert_eq!(listed.len(), table.len(), "{key}: entry count");
    for (entry, def) in listed.iter().zip(table) {
        assert_eq!(text(entry, "name"), def.name, "{key}: order or name");
        assert_eq!(text(entry, "unit"), def.unit, "{}: unit", def.name);
        assert_eq!(
            text(entry, "better"),
            def.better.word(),
            "{}: direction",
            def.name
        );
        assert!(well_formed_name(def.name), "{}: name", def.name);
        match def.bound {
            Some(bound) => {
                assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
                assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(bound));
            }
            None => assert_eq!(keys(entry), ["name", "unit", "better"]),
        }
    }
}

#[test]
fn benchmark_json_repeats_the_tables_within_the_drivers_limits() {
    let doc = manifest();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_table(&doc, "end_to_end", END_TO_END);
    assert_table(&doc, "per_layer", PER_LAYER);
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));

    let listed = members(&doc, "workloads");
    let all = workloads::all();
    assert_eq!(listed.len(), all.len());
    for (entry, wl) in listed.iter().zip(all) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(text(entry, "name"), wl.name());
        assert_eq!(text(entry, "why"), wl.why());
        assert!(wl.why().len() <= 200 && !wl.why().contains('\n'));
    }

    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    let command = members(&doc, "command");
    assert!((1..=32).contains(&command.len()));
    let paths: Vec<&str> = members(&doc, "paths")
        .iter()
        .map(|p| p.as_str().expect("a path"))
        .collect();
    assert_eq!(paths, ["crates/benchmark"]);
    for word in command.iter().map(|w| w.as_str().expect("a string")) {
        assert!(word.len() <= 200 && !word.starts_with('/') && !word.contains(".."));
        // The only repository file the command names is inside `paths`.
        assert!(
            !word.contains('/') || word.starts_with("crates/benchmark/"),
            "{word}"
        );
    }
}

/// Runs the built binary on one workload and returns its result line.
fn run(workload: &str, trace: bool) -> Json {
    let spans = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}.jsonl"));
    let _ = std::fs::remove_file(&spans);
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--smoke",
            "--seconds",
            "1",
            "--seed",
            "7",
            "--workload",
            workload,
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--trace-out")
        .arg(&spans)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) exited {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    if trace {
        let written = std::fs::read_to_string(&spans).expect("the span file was written");
        let first = written.lines().next().expect("at least one span");
        let span = Json::parse(first).expect("a span is one JSON object per line");
        assert_eq!(
            keys(&span),
            ["id", "parent", "req", "name", "layer", "start_ns", "end_ns"]
        );
    } else {
        assert!(!spans.exists(), "an untraced run wrote spans");
    }
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("result line of {workload}: {e}\n{last}"))
}

/// The result line carries exactly the contract's keys, no failed
/// operation, and every metric of `table` exactly once, with its unit.
fn assert_result(line: &Json, table: &[MetricDef], what: &str) {
    assert_eq!(
        keys(line),
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(
        line.get("correct"),
        Some(&Json::Bool(true)),
        "{what}: {line}"
    );
    assert_eq!(
        line.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{what}"
    );
    assert!(
        line.get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
    let mut emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let mut wanted: Vec<&str> = table.iter().map(|m| m.name).collect();
    emitted.sort_unstable();
    wanted.sort_unstable();
    assert_eq!(emitted, wanted, "{what}: metrics emitted against the table");
    for (name, m) in metrics {
        let def = table
            .iter()
            .find(|d| d.name == name)
            .expect("checked above");
        assert_eq!(keys(m), ["value", "unit"], "{what}: {name}");
        assert_eq!(text(m, "unit"), def.unit, "{what}: {name}");
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} = {value:?}"
        );
        if def.bound.is_some() {
            assert!(
                value > Some(0.0),
                "{what}: end-to-end metric {name} is {value:?}"
            );
        }
    }
}

#[test]
fn every_workload_emits_every_metric_once_and_fails_no_operation() {
    // One after another: each run boots TCP clusters, spawns its own
    // load threads and pins them to one CPU.
    for wl in workloads::all() {
        assert_result(&run(wl.name(), false), END_TO_END, wl.name());
        assert_result(&run(wl.name(), true), PER_LAYER, wl.name());
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result_line() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .arg("--smoke")
            .args(args)
            .output()
            .expect("run the benchmark binary");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
