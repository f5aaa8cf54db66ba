//! `cargo xtask loc <base-ref>` — lines added and removed since a git
//! ref, per crate, split into non-test code and test code, so "net
//! negative non-test LOC per crate" (ROADMAP aim 2) is a command.
//!
//! Scope and classification are the lint scanner's: `vendor/`, `target/`
//! and xtask itself are not counted; test code is the files in `tests/`
//! / `benches/` / `examples/` trees and the `#[cfg(test)]` regions of
//! everything else. A file's changed line numbers come from the hunk
//! headers of a zero-context `git diff`; removed lines are classified
//! against the file at the base ref, added lines against the file on
//! disk.

use std::collections::BTreeMap;
use std::path::Path;

use crate::{strip_comments, Scope, TestRegionTracker};

/// Lines added and removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Delta {
    pub added: usize,
    pub removed: usize,
}

impl Delta {
    fn net(self) -> i64 {
        self.added as i64 - self.removed as i64
    }
}

/// One crate's (or top-level tree's) change, by kind of code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrateLoc {
    pub non_test: Delta,
    pub test: Delta,
}

/// For each line of `text` (index 0 = line 1): is it test code?
fn test_lines(rel: &Path, text: &str) -> Vec<bool> {
    let whole_file = Scope::of(rel).test_only;
    let mut tracker = TestRegionTracker::new();
    text.lines()
        .map(|raw| tracker.observe(&strip_comments(raw)) || whole_file)
        .collect()
}

/// `crates/<name>/..` → `<name>`; anything else → its first component
/// (the top-level `tests` and `examples` trees).
fn crate_of(path: &str) -> &str {
    let mut parts = path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name,
        (Some(first), _) => first,
        (None, _) => path,
    }
}

/// `-a,b` / `+c,d` of a hunk header → `(start, len)`; a missing length
/// is 1.
fn hunk_range(field: &str) -> Option<(usize, usize)> {
    let (start, len) = field[1..].split_once(',').unwrap_or((&field[1..], "1"));
    Some((start.parse().ok()?, len.parse().ok()?))
}

/// Tallies a `git diff -U0` per crate. `old` and `new` return a path's
/// contents at the base ref and now (empty for a file that does not
/// exist on that side). Only `.rs` files the lint scanner would read
/// count.
pub fn tally(
    diff: &str,
    old: impl Fn(&str) -> String,
    new: impl Fn(&str) -> String,
) -> BTreeMap<String, CrateLoc> {
    let mut out: BTreeMap<String, CrateLoc> = BTreeMap::new();
    // (path, test map at base, test map now) of the file being read.
    let mut file: Option<(String, Vec<bool>, Vec<bool>)> = None;
    for line in diff.lines() {
        if let Some(rest) = line.strip_prefix("diff --git a/") {
            // `a/<path> b/<path>`: the two differ only for renames,
            // which `--no-renames` keeps out of the input.
            let path = rest.split(" b/").next().unwrap_or(rest);
            let rel = Path::new(path);
            let counted = path.ends_with(".rs") && !Scope::of(rel).skip;
            file = counted.then(|| {
                (
                    path.to_string(),
                    test_lines(rel, &old(path)),
                    test_lines(rel, &new(path)),
                )
            });
            continue;
        }
        let (Some((path, old_map, new_map)), Some(header)) = (&file, line.strip_prefix("@@ "))
        else {
            continue;
        };
        let mut fields = header.split(' ');
        let (Some(removed), Some(added)) = (
            fields.next().and_then(hunk_range),
            fields.next().and_then(hunk_range),
        ) else {
            continue;
        };
        let entry = out.entry(crate_of(path).to_string()).or_default();
        for (map, (start, len), is_added) in [(old_map, removed, false), (new_map, added, true)] {
            for line_no in start..start + len {
                let side = match map.get(line_no - 1) {
                    Some(true) => &mut entry.test,
                    _ => &mut entry.non_test,
                };
                if is_added {
                    side.added += 1;
                } else {
                    side.removed += 1;
                }
            }
        }
    }
    out
}

/// The report `cargo xtask loc` prints: one row per crate, then a total.
pub fn render(tally: &BTreeMap<String, CrateLoc>) -> String {
    let mut out = format!(
        "{:<12} {:>28} {:>28}\n",
        "crate", "non-test  +added -removed net", "test  +added -removed net"
    );
    let cell = |d: Delta| format!("+{} -{} {:+}", d.added, d.removed, d.net());
    let mut total = CrateLoc::default();
    for (name, loc) in tally {
        out.push_str(&format!(
            "{name:<12} {:>28} {:>28}\n",
            cell(loc.non_test),
            cell(loc.test)
        ));
        for (sum, part) in [
            (&mut total.non_test, loc.non_test),
            (&mut total.test, loc.test),
        ] {
            sum.added += part.added;
            sum.removed += part.removed;
        }
    }
    out.push_str(&format!(
        "{:<12} {:>28} {:>28}\n",
        "workspace",
        cell(total.non_test),
        cell(total.test)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD_LIB: &str = "\
fn a() {}
fn b() {}
fn c() {}

#[cfg(test)]
mod tests {
    #[test]
    fn old_test() {}
}
";
    const NEW_LIB: &str = "\
fn a() {}
fn c2() {}

#[cfg(test)]
mod tests {
    #[test]
    fn old_test() {}
    #[test]
    fn new_test() {}
}
";
    /// Two non-test lines of `crates/core/src/lib.rs` become one, its
    /// test module grows by two, a tests/ file is new, and neither the
    /// vendored file nor the markdown counts.
    const DIFF: &str = "\
diff --git a/crates/core/src/lib.rs b/crates/core/src/lib.rs
index 1111111..2222222 100644
--- a/crates/core/src/lib.rs
+++ b/crates/core/src/lib.rs
@@ -2,2 +2 @@ fn a() {}
-fn b() {}
-fn c() {}
+fn c2() {}
@@ -8,0 +8,2 @@ mod tests {
+    #[test]
+    fn new_test() {}
diff --git a/tests/pin.rs b/tests/pin.rs
new file mode 100644
--- /dev/null
+++ b/tests/pin.rs
@@ -0,0 +1,3 @@
+#[test]
+fn pin() {
+}
diff --git a/vendor/rand/src/lib.rs b/vendor/rand/src/lib.rs
--- a/vendor/rand/src/lib.rs
+++ b/vendor/rand/src/lib.rs
@@ -1 +1,5 @@
diff --git a/README.md b/README.md
--- a/README.md
+++ b/README.md
@@ -1 +1,9 @@
";

    #[test]
    fn a_fixture_diff_splits_into_non_test_and_test_lines_per_crate() {
        let old = |p: &str| match p {
            "crates/core/src/lib.rs" => OLD_LIB.to_string(),
            _ => String::new(),
        };
        let new = |p: &str| match p {
            "crates/core/src/lib.rs" => NEW_LIB.to_string(),
            "tests/pin.rs" => "#[test]\nfn pin() {\n}\n".to_string(),
            _ => String::new(),
        };
        let tally = tally(DIFF, old, new);
        let delta = |added, removed| Delta { added, removed };
        assert_eq!(
            tally.get("core"),
            Some(&CrateLoc {
                non_test: delta(1, 2),
                test: delta(2, 0),
            })
        );
        assert_eq!(
            tally.get("tests"),
            Some(&CrateLoc {
                non_test: delta(0, 0),
                test: delta(3, 0),
            })
        );
        assert_eq!(tally.len(), 2, "vendor/ and non-Rust files do not count");
        let report = render(&tally);
        assert!(report.contains("+1 -2 -1"), "{report}");
        assert!(
            report.lines().last().unwrap().contains("+5 -0 +5"),
            "{report}"
        );
    }
}
