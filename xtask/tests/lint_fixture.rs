//! The lint gate must (a) pass on the real repo and (b) fail on the
//! seeded negative fixture, catching every rule.

use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits under the workspace root")
        .to_path_buf()
}

#[test]
fn real_repo_is_clean() {
    let violations = xtask::lint(&repo_root());
    assert!(
        violations.is_empty(),
        "repo must pass its own lint:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn negative_fixture_trips_every_rule() {
    let fixture = repo_root().join("xtask/fixtures/lint-negative");
    let violations = xtask::lint(&fixture);
    let rules: std::collections::BTreeSet<&str> = violations.iter().map(|v| v.rule).collect();
    assert!(
        rules.contains("sync-facade")
            && rules.contains("no-unwrap")
            && rules.contains("error-taxonomy")
            && rules.contains("exhaustive-dispatch")
            && rules.contains("journal-before-ack")
            && rules.contains("internal-rid")
            && rules.contains("stoppable-sleep"),
        "fixture must trip all seven rules, got {rules:?}: {violations:?}"
    );
    // The #[cfg(test)] block in the fixture must stay exempt.
    assert!(
        violations.iter().all(|v| v.line < 58),
        "no violations from the fixture's test module: {violations:?}"
    );
    // Exactly the nine seeded non-test violations.
    assert_eq!(violations.len(), 9, "{violations:?}");
}
