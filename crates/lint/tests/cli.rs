//! End-to-end tests of the `qaoa-lint` binary against the seeded-violation
//! fixture tree (`tests/fixtures/` mirrors a miniature workspace so the
//! path-scoped rules fire on realistic crate paths).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn qaoa_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qaoa-lint"))
        .args(args)
        .output()
        .expect("spawn qaoa-lint")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

#[test]
fn fixture_workspace_fails_with_every_rule_firing() {
    let root = fixture_root();
    let out = qaoa_lint(&["--workspace", "--root", root.to_str().unwrap()]);
    assert_eq!(code(&out), 1, "seeded violations must fail the run");
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "no-unordered-iter",
        "bit-exact-floats",
        "no-lossy-as",
        "no-panic-lib",
        "safety-comment",
        "no-wallclock",
    ] {
        assert!(text.contains(rule), "rule {rule} must fire:\n{text}");
    }
    // file:line diagnostics, workspace-relative.
    assert!(
        text.contains("crates/core/src/unordered.rs:"),
        "diagnostics carry file:line:\n{text}"
    );
    // Marker hygiene from the bare_marker fixture.
    assert!(
        text.contains("lint-allow"),
        "marker errors reported:\n{text}"
    );
    // Test-side HashMap in the fixture is exempt.
    assert!(
        !text.contains("unordered.rs:22"),
        "test code must be exempt:\n{text}"
    );
}

#[test]
fn suppressed_fixture_is_clean() {
    let root = fixture_root();
    let file = root.join("crates/engine/src/suppressed.rs");
    let out = qaoa_lint(&["--root", root.to_str().unwrap(), file.to_str().unwrap()]);
    assert_eq!(
        code(&out),
        0,
        "justified markers silence everything: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("suppressed"),
        "suppression count shown:\n{text}"
    );
}

#[test]
fn json_format_is_machine_readable() {
    let root = fixture_root();
    let file = root.join("crates/engine/src/casts.rs");
    let out = qaoa_lint(&[
        "--root",
        root.to_str().unwrap(),
        "--format",
        "json",
        file.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 1);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"rule\":\"no-lossy-as\""), "{text}");
    assert!(
        text.contains("\"file\":\"crates/engine/src/casts.rs\""),
        "{text}"
    );
    assert!(text.contains("\"line\":"), "{text}");
    assert!(
        text.trim_start().starts_with('{'),
        "one JSON object:\n{text}"
    );
}

#[test]
fn rule_filters_narrow_the_run() {
    let root = fixture_root();
    let file = root.join("crates/engine/src/casts.rs");
    // Only the safety rule: the casts and unwraps in the same file are not
    // reported.
    let out = qaoa_lint(&[
        "--root",
        root.to_str().unwrap(),
        "--only",
        "safety-comment",
        file.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 1);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("safety-comment"), "{text}");
    assert!(!text.contains("no-lossy-as"), "{text}");

    let out = qaoa_lint(&["--only", "no-such-rule", file.to_str().unwrap()]);
    assert_eq!(code(&out), 2, "unknown rule name is a usage error");
}

#[test]
fn repo_workspace_scan_is_clean() {
    // With no baseline to fall back on, the real workspace has zero
    // findings: every exception is a justified in-tree lint:allow. This is
    // the same invocation CI runs.
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let out = qaoa_lint(&["--workspace", "--root", repo_root.to_str().unwrap()]);
    assert_eq!(
        code(&out),
        0,
        "workspace must have no findings:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn help_and_list_rules_exit_zero() {
    let help = qaoa_lint(&["--help"]);
    assert_eq!(code(&help), 0);
    assert!(String::from_utf8_lossy(&help.stdout).contains("USAGE"));
    let rules = qaoa_lint(&["--list-rules"]);
    assert_eq!(code(&rules), 0);
    let text = String::from_utf8_lossy(&rules.stdout);
    assert!(text.contains("no-unordered-iter") && text.contains("no-wallclock"));
}

#[test]
fn baseline_flags_are_unknown() {
    // Any finding fails the run, so there is no baseline to name, skip or
    // rewrite.
    for flag in ["--baseline", "--no-baseline", "--update-baseline"] {
        let out = qaoa_lint(&["--workspace", flag]);
        assert_eq!(code(&out), 2, "{flag} must be a usage error");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown flag"),
            "{flag}"
        );
    }
}
