//! `qaoa-lint`: a dependency-free static-analysis pass encoding this
//! workspace's determinism and robustness invariants.
//!
//! The scaling layers shipped since the engine landed — worker pool,
//! depth-1 cache, `QW1` wire codec, persisted caches, sharded corpus — all
//! rest on invariants the compiler cannot see: N-thread ≡ 1-thread
//! bit-parity, bit-exact float round-trips, seed-scoped cache purity, and
//! ERR-not-crash server loops. One stray `HashMap` iteration, `{}`-formatted
//! f64, lossy `as` cast, or `unwrap()` in a request loop silently erodes
//! them. This crate machine-checks those rules (see [`rules::RULES`]) over
//! the workspace's `.rs` files using a small hand-written lexer
//! ([`lexer`]). Any finding fails the run; a justified per-site
//! suppression marker ([`source`]) is the only way to silence one, so every
//! exception is written down next to the code it excuses.
//!
//! Entry points: [`scan_workspace`] / [`scan_files`] produce a
//! [`LintOutcome`]; the `qaoa-lint` binary layers the CLI and exit codes on
//! top.

pub mod lexer;
pub mod rules;
pub mod source;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use rules::{RuleDef, Violation, RULES};
use source::SourceFile;

/// Which rules a run checks.
#[derive(Debug, Clone, Default)]
pub struct RuleFilter {
    /// When non-empty, only these rules run.
    pub only: Vec<String>,
    /// These rules are skipped (applied after `only`).
    pub skip: Vec<String>,
}

impl RuleFilter {
    /// Validates rule names and returns the active rule set.
    ///
    /// # Errors
    ///
    /// Returns the first unknown rule name.
    pub fn resolve(&self) -> Result<Vec<&'static RuleDef>, String> {
        for name in self.only.iter().chain(&self.skip) {
            if rules::rule_by_name(name).is_none() {
                return Err(format!(
                    "unknown rule `{name}` (rules: {})",
                    RULES.iter().map(|r| r.name).collect::<Vec<_>>().join(", ")
                ));
            }
        }
        Ok(RULES
            .iter()
            .filter(|r| self.only.is_empty() || self.only.iter().any(|n| n == r.name))
            .filter(|r| !self.skip.iter().any(|n| n == r.name))
            .collect())
    }
}

/// The result of linting a set of files.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Violations not silenced by a justified `lint:allow` marker, in
    /// (path, line) order.
    pub violations: Vec<Violation>,
    /// Sites silenced by a justified marker.
    pub suppressed: usize,
    /// Marker problems: bare (justification-less) markers and markers
    /// naming unknown rules. Never suppressible.
    pub marker_errors: Vec<Violation>,
    /// Files scanned.
    pub files: usize,
}

/// Lints in-memory sources (path, text). The workhorse behind
/// [`scan_files`] and the fixture tests.
#[must_use]
pub fn lint_sources(sources: &[(String, String)], rules: &[&'static RuleDef]) -> LintOutcome {
    let mut outcome = LintOutcome {
        files: sources.len(),
        ..LintOutcome::default()
    };
    for (path, text) in sources {
        let file = SourceFile::new(path, text);
        // Marker hygiene: bare markers and unknown rule names are findings
        // in their own right — an unjustified allow is indistinguishable
        // from a silenced true positive.
        for allow in file.all_allows() {
            if rules::rule_by_name(&allow.rule).is_none() {
                outcome.marker_errors.push(Violation {
                    rule: "lint-allow",
                    path: file.path.clone(),
                    line: allow.marker_line,
                    message: format!("lint:allow names unknown rule `{}`", allow.rule),
                });
            } else if allow.justification.is_empty() {
                outcome.marker_errors.push(Violation {
                    rule: "lint-allow",
                    path: file.path.clone(),
                    line: allow.marker_line,
                    message: format!(
                        "lint:allow({}) needs a justification after the closing paren",
                        allow.rule
                    ),
                });
            }
        }
        for rule in rules {
            for v in (rule.check)(&file) {
                match file.allow_for(v.rule, v.line) {
                    Some(allow) if !allow.justification.is_empty() => outcome.suppressed += 1,
                    // A bare marker already produced a marker error; the
                    // underlying violation stands too.
                    _ => outcome.violations.push(v),
                }
            }
        }
    }
    outcome
        .violations
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    outcome
}

/// Lints files on disk. Paths are reported relative to `root`.
///
/// # Errors
///
/// Fails on unreadable files.
pub fn scan_files(
    root: &Path,
    paths: &[PathBuf],
    rules: &[&'static RuleDef],
) -> Result<LintOutcome, String> {
    let mut sources = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, text));
    }
    sources.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(lint_sources(&sources, rules))
}

/// Collects the workspace scan set: every `crates/*/src/**/*.rs` under
/// `root`, sorted. Fixtures, vendored stand-ins (`vendor/`), the
/// integration-test crate (`tests/`), and bench `benches/` directories are
/// deliberately out of scope: the rules guard *shipping* library code.
///
/// # Errors
///
/// Fails when `root` has no `crates/` directory.
pub fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!(
            "{} has no crates/ directory (run from the workspace root or pass --root)",
            root.display()
        ));
    }
    let mut files = Vec::new();
    let crates = read_dir_sorted(&crates_dir)?;
    for krate in crates {
        let src = krate.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Lints the whole workspace under `root`.
///
/// # Errors
///
/// Propagates walk/read failures.
pub fn scan_workspace(root: &Path, rules: &[&'static RuleDef]) -> Result<LintOutcome, String> {
    let files = workspace_files(root)?;
    scan_files(root, &files, rules)
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut paths = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    Ok(paths)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Finds the workspace root by walking up from `start` until a directory
/// holding both `Cargo.toml` and `crates/` appears.
#[must_use]
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

// --- rendering -------------------------------------------------------------

/// Renders human-readable diagnostics: marker errors, then every
/// violation, then a summary line.
#[must_use]
pub fn render_text(outcome: &LintOutcome) -> String {
    let mut out = String::new();
    for v in outcome.marker_errors.iter().chain(&outcome.violations) {
        let _ = writeln!(out, "{}:{}: [{}] {}", v.path, v.line, v.rule, v.message);
    }
    let _ = writeln!(
        out,
        "qaoa-lint: {} files, {} violations ({} suppressed by lint:allow), {} marker errors",
        outcome.files,
        outcome.violations.len(),
        outcome.suppressed,
        outcome.marker_errors.len(),
    );
    out
}

/// Renders the machine-readable report: every marker error and violation,
/// plus the summary, as one JSON object.
#[must_use]
pub fn render_json(outcome: &LintOutcome) -> String {
    let items: Vec<String> = outcome
        .marker_errors
        .iter()
        .map(|v| json_violation(v, "marker-error"))
        .chain(
            outcome
                .violations
                .iter()
                .map(|v| json_violation(v, "violation")),
        )
        .collect();
    format!(
        "{{\"findings\":[{}],\"summary\":{{\"files\":{},\"violations\":{},\
         \"suppressed\":{},\"marker_errors\":{}}}}}\n",
        items.join(","),
        outcome.files,
        outcome.violations.len(),
        outcome.suppressed,
        outcome.marker_errors.len(),
    )
}

fn json_violation(v: &Violation, kind: &str) -> String {
    format!(
        "{{\"kind\":{},\"rule\":{},\"file\":{},\"line\":{},\"message\":{}}}",
        json_str(kind),
        json_str(v.rule),
        json_str(&v.path),
        v.line,
        json_str(&v.message)
    )
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // lint:allow(no-lossy-as) char -> u32 is the identity on the scalar value (char is a subset of u32)
            c if (c as u32) < 0x20 => {
                // lint:allow(no-lossy-as) same identity widening as the guard above
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(path: &str, text: &str) -> (String, String) {
        (path.to_string(), text.to_string())
    }

    fn all_rules() -> Vec<&'static RuleDef> {
        RULES.iter().collect()
    }

    #[test]
    fn suppression_needs_justification() {
        let justified = src(
            "crates/engine/src/x.rs",
            "fn f() { x.unwrap(); // lint:allow(no-panic-lib) held invariant\n}\n",
        );
        let outcome = lint_sources(&[justified], &all_rules());
        assert!(outcome.violations.is_empty());
        assert_eq!(outcome.suppressed, 1);
        assert!(outcome.marker_errors.is_empty());

        let bare = src(
            "crates/engine/src/x.rs",
            "fn f() { x.unwrap(); // lint:allow(no-panic-lib)\n}\n",
        );
        let outcome = lint_sources(&[bare], &all_rules());
        assert_eq!(outcome.violations.len(), 1, "bare marker does not silence");
        assert_eq!(outcome.marker_errors.len(), 1);

        let unknown = src(
            "crates/engine/src/x.rs",
            "// lint:allow(no-such-rule) because\nfn f() {}\n",
        );
        let outcome = lint_sources(&[unknown], &all_rules());
        assert_eq!(outcome.marker_errors.len(), 1);
    }

    #[test]
    fn rule_filter_resolution() {
        let all = RuleFilter::default().resolve().expect("all rules");
        assert_eq!(all.len(), RULES.len());
        let only = RuleFilter {
            only: vec!["no-panic-lib".into()],
            skip: vec![],
        }
        .resolve()
        .expect("one rule");
        assert_eq!(only.len(), 1);
        let skipped = RuleFilter {
            only: vec![],
            skip: vec!["no-lossy-as".into()],
        }
        .resolve()
        .expect("skip");
        assert_eq!(skipped.len(), RULES.len() - 1);
        assert!(RuleFilter {
            only: vec!["bogus".into()],
            skip: vec![],
        }
        .resolve()
        .is_err());
    }

    #[test]
    fn json_output_is_escaped_and_structured() {
        let outcome = lint_sources(
            &[src("crates/engine/src/x.rs", "fn f() { a.unwrap(); }\n")],
            &all_rules(),
        );
        let json = render_json(&outcome);
        assert!(json.contains("\"kind\":\"violation\""));
        assert!(json.contains("\"rule\":\"no-panic-lib\""));
        assert!(json.contains("\"violations\":1"));
        // Every quote inside messages is escaped: the JSON stays one object.
        assert_eq!(json.matches("{\"findings\"").count(), 1);
    }
}
