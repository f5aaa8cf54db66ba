//! `cargo xtask bench-diff A.json B.json` — "is any metric worse" as one
//! command. It runs `benchmark compare A.json B.json` through the launch
//! command `BENCHMARK.json` declares, so the verdict is the benchmark's
//! own: exit 0 when no metric of B is worse than A's beyond its bound.

use std::path::Path;

const USAGE: &str = "usage: cargo xtask bench-diff A.json B.json \
                     (two `benchmark --out` files: A the baseline, B the change)";

/// The argv that compares `args` (exactly two result files): the
/// `command` array of the `BENCHMARK.json` text `manifest`, then
/// `compare A B`. Relative result paths are taken against `cwd`, since
/// the command runs from the workspace root.
pub fn compare_argv(manifest: &str, args: &[String], cwd: &Path) -> Result<Vec<String>, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    if let Some(flag) = [a, b].into_iter().find(|x| x.starts_with('-')) {
        return Err(format!("unknown flag `{flag}`; {USAGE}"));
    }
    let mut argv = command(manifest)?;
    argv.push("compare".to_string());
    for path in [a, b] {
        argv.push(cwd.join(path).display().to_string());
    }
    Ok(argv)
}

/// The strings of the top-level `"command": [..]` array. xtask has no
/// JSON dependency; the array holds plain strings, so a scan suffices.
fn command(manifest: &str) -> Result<Vec<String>, String> {
    let missing = || "BENCHMARK.json has no `command` array".to_string();
    let rest = manifest
        .split_once("\"command\"")
        .and_then(|(_, rest)| rest.trim_start().strip_prefix(':'))
        .and_then(|rest| rest.trim_start().strip_prefix('['))
        .ok_or_else(missing)?;
    let body = rest.split_once(']').ok_or_else(missing)?.0;
    let argv: Vec<String> = body
        .split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect();
    if argv.is_empty() {
        return Err(missing());
    }
    Ok(argv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn argv_is_the_manifest_command_then_compare() {
        let manifest = r#"{
  "command": ["cargo", "run", "--bin", "benchmark", "--"],
  "paths": ["crates/benchmark"]
}"#;
        let cwd = Path::new("/work");
        assert_eq!(
            compare_argv(manifest, &args(&["a.json", "/abs/b.json"]), cwd).unwrap(),
            args(&[
                "cargo",
                "run",
                "--bin",
                "benchmark",
                "--",
                "compare",
                "/work/a.json",
                "/abs/b.json"
            ])
        );
        for wrong in [&[][..], &["a.json"], &["a.json", "b.json", "c.json"]] {
            let err = compare_argv(manifest, &args(wrong), cwd).unwrap_err();
            assert!(err.starts_with("usage:"), "{wrong:?}: {err}");
        }
        assert!(compare_argv(manifest, &args(&["--json", "b.json"]), cwd)
            .unwrap_err()
            .contains("unknown flag `--json`"));
        assert!(compare_argv("{}", &args(&["a.json", "b.json"]), cwd)
            .unwrap_err()
            .contains("no `command` array"));
        // The workspace's own manifest parses.
        let real = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .unwrap();
        assert_eq!(command(&real).unwrap()[0], "cargo");
    }
}
