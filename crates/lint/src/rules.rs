//! The lint rules: each encodes one repo-specific invariant that the
//! scaling layers (pool, cache, wire, persist, shard) rely on but the
//! compiler cannot check. Rules work on the lexed token stream of a
//! [`SourceFile`] — never on raw text — so nothing fires inside comments,
//! strings, or char literals.
//!
//! Every rule is individually toggleable from the CLI (`--only` / `--skip`).
//! Any finding of an active rule fails the run; the only way to silence a
//! site is a justified marker:
//!
//! ```text
//! // lint:allow(<rule>) <why this site is sound>
//! ```
//!
//! A marker without a justification is itself a violation (rule
//! `lint-allow`), so allowances stay auditable.

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;

/// One finding at a site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule that fired.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

/// A rule's static definition.
pub struct RuleDef {
    /// Stable rule name, used in CLI toggles and markers.
    pub name: &'static str,
    /// One-line rationale shown by `--list-rules`.
    pub summary: &'static str,
    /// Checker over one lexed file.
    pub check: fn(&SourceFile) -> Vec<Violation>,
}

/// Every rule, in the order diagnostics are grouped.
pub const RULES: &[RuleDef] = &[
    RuleDef {
        name: "no-unordered-iter",
        summary: "HashMap/HashSet in deterministic crates (core, engine, qsim, graphs): \
                  iteration order varies per process, eroding bit-parity; use BTreeMap/BTreeSet",
        check: no_unordered_iter,
    },
    RuleDef {
        name: "bit-exact-floats",
        summary: "floats in engine::wire / engine::persist must travel through the bit-hex \
                  codec (fmt_f64/fmt_floats/to_bits), never `{}`/`{:?}`/to_string",
        check: bit_exact_floats,
    },
    RuleDef {
        name: "no-lossy-as",
        summary: "`as` casts between numeric types truncate or round silently; \
                  use try_from/From or justify the site",
        check: no_lossy_as,
    },
    RuleDef {
        name: "no-panic-lib",
        summary: "unwrap/expect/panic!/unreachable!/todo!/unimplemented! in non-test library \
                  code can kill a server loop; return errors instead",
        check: no_panic_lib,
    },
    RuleDef {
        name: "safety-comment",
        summary: "every `unsafe` must be preceded by a `// SAFETY:` comment stating the \
                  invariant that makes it sound",
        check: safety_comment,
    },
    RuleDef {
        name: "no-wallclock",
        summary: "SystemTime/Instant outside designated accounting modules: wall-clock reads \
                  in compute paths break run-to-run reproducibility",
        check: no_wallclock,
    },
];

/// Looks a rule up by name.
#[must_use]
pub fn rule_by_name(name: &str) -> Option<&'static RuleDef> {
    RULES.iter().find(|r| r.name == name)
}

/// The crates whose output must be a pure function of their inputs: the
/// engine's bit-parity guarantees (serial == parallel, sharded ==
/// unsharded, warm == cold) hold only while nothing in these crates
/// iterates a randomized-order container.
const DETERMINISTIC_CRATES: &[&str] = &[
    "crates/core/src/",
    "crates/engine/src/",
    "crates/qsim/src/",
    "crates/graphs/src/",
];

/// Files whose whole purpose is wall/latency accounting and are therefore
/// allowed to read the clock. Everything else gets flagged.
const WALLCLOCK_ALLOWED: &[&str] = &[
    // Batch/corpus/shard wall accounting (JobStats.wall, ShardStats.wall).
    "crates/engine/src/batch.rs",
    "crates/engine/src/corpus.rs",
    "crates/engine/src/shard.rs",
    // Per-tier latency accounting for the prediction service (stderr only;
    // the wire protocol itself stays clock-free).
    "crates/engine/src/server.rs",
];

/// The bit-exact float paths: everything that writes or parses `QW1` lines
/// or `QCACHE3`/`QMODEL2` files.
const BIT_EXACT_PATHS: &[&str] = &[
    "crates/engine/src/wire.rs",
    "crates/engine/src/persist.rs",
    "crates/engine/src/model.rs",
];

const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Fields/locals that carry floats in the wire/persist payload structs.
/// The rule is a lexical heuristic: an argument that mentions one of these
/// without routing through a sanctioned codec call is treated as formatting
/// a float.
const FLOAT_MARKERS: &[&str] = &[
    "expectation",
    "approximation_ratio",
    "weight",
    "gammas",
    "betas",
    "params",
    "edge_probability",
    "trend_preference_margin",
];

/// Calls that make a float bit-exact before formatting.
const FLOAT_SANCTIONED: &[&str] = &["fmt_f64", "fmt_floats", "fmt_edges", "to_bits"];

const FORMAT_MACROS: &[&str] = &[
    "format", "write", "writeln", "print", "println", "eprint", "eprintln",
];

/// Binaries may panic on unrecoverable startup errors; the `no-panic-lib`
/// rule is about *library* code reachable from long-lived loops.
fn is_binary_path(path: &str) -> bool {
    path.contains("/src/bin/") || path.ends_with("/src/main.rs")
}

fn code_toks(file: &SourceFile) -> Vec<&Tok> {
    file.toks
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect()
}

fn violation(rule: &'static str, file: &SourceFile, line: usize, message: String) -> Violation {
    Violation {
        rule,
        path: file.path.clone(),
        line,
        message,
    }
}

// --- no-unordered-iter -----------------------------------------------------

fn no_unordered_iter(file: &SourceFile) -> Vec<Violation> {
    if !DETERMINISTIC_CRATES
        .iter()
        .any(|p| file.path.starts_with(p))
    {
        return Vec::new();
    }
    let mut out = Vec::new();
    for tok in &file.toks {
        if tok.kind == TokKind::Ident
            && (tok.text == "HashMap" || tok.text == "HashSet")
            && !file.is_test_line(tok.line)
        {
            out.push(violation(
                "no-unordered-iter",
                file,
                tok.line,
                format!(
                    "`{}` in a deterministic crate: iteration order varies per process; \
                     use BTreeMap/BTreeSet (or justify with lint:allow)",
                    tok.text
                ),
            ));
        }
    }
    out
}

// --- bit-exact-floats ------------------------------------------------------

fn bit_exact_floats(file: &SourceFile) -> Vec<Violation> {
    if !BIT_EXACT_PATHS.contains(&file.path.as_str()) {
        return Vec::new();
    }
    let toks = code_toks(file);
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = toks[i];
        if file.is_test_line(t.line) {
            i += 1;
            continue;
        }
        // format-like macro invocation: ident ! ( ...args... )
        if t.kind == TokKind::Ident
            && FORMAT_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct('('))
        {
            let (args, end) = macro_args(&toks, i + 2);
            for arg in &args {
                check_format_arg(file, arg, &mut out);
            }
            i = end;
            continue;
        }
        // `<float marker> ... .to_string()` within a short window.
        if t.kind == TokKind::Ident
            && t.text == "to_string"
            && i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            let lo = i.saturating_sub(5);
            if toks[lo..i]
                .iter()
                .any(|p| p.kind == TokKind::Ident && FLOAT_MARKERS.contains(&p.text.as_str()))
            {
                out.push(violation(
                    "bit-exact-floats",
                    file,
                    t.line,
                    "float formatted via to_string() in a bit-exact path; round-trips lose \
                     bits — use fmt_f64 (IEEE-754 bit hex)"
                        .to_string(),
                ));
            }
        }
        i += 1;
    }
    out
}

/// Collects a macro invocation's top-level comma-separated argument token
/// lists, starting from the opening paren's index. Returns the args and the
/// index just past the closing paren.
fn macro_args<'a>(toks: &[&'a Tok], open: usize) -> (Vec<Vec<&'a Tok>>, usize) {
    let mut args: Vec<Vec<&'a Tok>> = vec![Vec::new()];
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        let t = toks[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
            if depth > 1 {
                if let Some(a) = args.last_mut() {
                    a.push(t);
                }
            }
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return (args, i + 1);
            }
            if let Some(a) = args.last_mut() {
                a.push(t);
            }
        } else if depth == 1 && t.is_punct(',') {
            args.push(Vec::new());
        } else if depth >= 1 {
            if let Some(a) = args.last_mut() {
                a.push(t);
            }
        }
        i += 1;
    }
    (args, i)
}

fn check_format_arg(file: &SourceFile, arg: &[&Tok], out: &mut Vec<Violation>) {
    if arg.is_empty() {
        return;
    }
    // The format string itself: flag float format specs (`{:.3}`, `{:e}`)
    // and inline captures of float-marker names (`{expectation}`).
    if arg.len() == 1 && arg[0].kind == TokKind::Str {
        let text = &arg[0].text;
        if text.contains("{:.") || text.contains("{:e}") || text.contains("{:E}") {
            out.push(violation(
                "bit-exact-floats",
                file,
                arg[0].line,
                "float format spec in a bit-exact path: decimal formatting loses bits — \
                 use fmt_f64 (IEEE-754 bit hex)"
                    .to_string(),
            ));
        }
        for marker in FLOAT_MARKERS {
            if text.contains(&format!("{{{marker}}}")) || text.contains(&format!("{{{marker}:")) {
                out.push(violation(
                    "bit-exact-floats",
                    file,
                    arg[0].line,
                    format!(
                        "float `{marker}` captured directly in a format string in a bit-exact \
                         path — use fmt_f64 (IEEE-754 bit hex)"
                    ),
                ));
            }
        }
        return;
    }
    // An expression argument: mentions a float marker without routing it
    // through the bit-hex codec.
    let mentions = arg
        .iter()
        .find(|t| t.kind == TokKind::Ident && FLOAT_MARKERS.contains(&t.text.as_str()));
    let sanctioned = arg
        .iter()
        .any(|t| t.kind == TokKind::Ident && FLOAT_SANCTIONED.contains(&t.text.as_str()));
    if let Some(m) = mentions {
        if !sanctioned {
            out.push(violation(
                "bit-exact-floats",
                file,
                m.line,
                format!(
                    "float `{}` formatted without the bit-hex codec in a bit-exact path — \
                     wrap in fmt_f64/fmt_floats (IEEE-754 bit hex)",
                    m.text
                ),
            ));
        }
    }
}

// --- no-lossy-as -----------------------------------------------------------

fn no_lossy_as(file: &SourceFile) -> Vec<Violation> {
    let toks = code_toks(file);
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = toks[i];
        if t.is_ident("as") && !file.is_test_line(t.line) {
            if let Some(next) = toks.get(i + 1) {
                if next.kind == TokKind::Ident && NUMERIC_TYPES.contains(&next.text.as_str()) {
                    let from = if i > 0 && toks[i - 1].kind != TokKind::Punct {
                        format!("`{}` ", toks[i - 1].text)
                    } else {
                        String::new()
                    };
                    out.push(violation(
                        "no-lossy-as",
                        file,
                        t.line,
                        format!(
                            "{from}cast via `as {}` can truncate/round silently — use \
                             try_from/From, or lint:allow with a justification for a \
                             provably value-preserving widening",
                            next.text
                        ),
                    ));
                }
            }
        }
    }
    out
}

// --- no-panic-lib ----------------------------------------------------------

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn no_panic_lib(file: &SourceFile) -> Vec<Violation> {
    if is_binary_path(&file.path) {
        return Vec::new();
    }
    let toks = code_toks(file);
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = toks[i];
        if file.is_test_line(t.line) || t.kind != TokKind::Ident {
            continue;
        }
        let is_method_call = |name: &str| {
            t.text == name
                && i >= 1
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        };
        if is_method_call("unwrap") || is_method_call("expect") {
            out.push(violation(
                "no-panic-lib",
                file,
                t.line,
                format!(
                    ".{}() in library code: a panic here kills the worker/server loop — \
                     return an error (or lint:allow with an invariant justification)",
                    t.text
                ),
            ));
        } else if PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            out.push(violation(
                "no-panic-lib",
                file,
                t.line,
                format!(
                    "{}! in library code: prefer a typed error so callers (and the job \
                     server's failure policy) can recover",
                    t.text
                ),
            ));
        }
    }
    out
}

// --- safety-comment --------------------------------------------------------

fn safety_comment(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, tok) in file.toks.iter().enumerate() {
        if !(tok.kind == TokKind::Ident && tok.text == "unsafe") {
            continue;
        }
        // A `// SAFETY: ...` comment ending at most two lines above (blank
        // lines and attributes may intervene) satisfies the rule.
        let documented = file.toks[..idx].iter().rev().take(8).any(|p| {
            p.kind == TokKind::Comment
                && p.text.contains("SAFETY:")
                && p.end_line + 2 >= tok.line
                && p.end_line <= tok.line
        });
        if !documented {
            out.push(violation(
                "safety-comment",
                file,
                tok.line,
                "`unsafe` without a preceding `// SAFETY:` comment — state the invariant \
                 that makes this sound, or remove the block"
                    .to_string(),
            ));
        }
    }
    out
}

// --- no-wallclock ----------------------------------------------------------

fn no_wallclock(file: &SourceFile) -> Vec<Violation> {
    if WALLCLOCK_ALLOWED.contains(&file.path.as_str()) || file.path.starts_with("crates/bench/") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for tok in &file.toks {
        if tok.kind == TokKind::Ident
            && (tok.text == "Instant" || tok.text == "SystemTime")
            && !file.is_test_line(tok.line)
        {
            out.push(violation(
                "no-wallclock",
                file,
                tok.line,
                format!(
                    "`{}` outside the designated accounting modules: wall-clock reads in \
                     compute paths make runs irreproducible — thread timing through the \
                     caller's report structs instead",
                    tok.text
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(rule: &str, path: &str, src: &str) -> Vec<Violation> {
        let file = SourceFile::new(path, src);
        let def = rule_by_name(rule).expect("rule exists");
        (def.check)(&file)
    }

    #[test]
    fn unordered_iter_scopes_to_deterministic_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            check("no-unordered-iter", "crates/engine/src/x.rs", src).len(),
            1
        );
        assert_eq!(
            check("no-unordered-iter", "crates/ml/src/x.rs", src).len(),
            0
        );
        // Mention in a comment or string never fires.
        let quiet = "// HashMap\nlet s = \"HashSet\";\n";
        assert_eq!(
            check("no-unordered-iter", "crates/core/src/x.rs", quiet).len(),
            0
        );
    }

    #[test]
    fn lossy_as_flags_numeric_casts_only() {
        let src = "let a = x as u32;\nuse foo as bar;\nlet b = y as f64;\nlet p = q as Box;\n";
        let v = check("no-lossy-as", "crates/engine/src/x.rs", src);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 3);
    }

    #[test]
    fn panic_lib_matches_calls_not_idents() {
        let src = "\
fn f() {\n\
    let a = b.unwrap();\n\
    let c = d.expect(\"reason\");\n\
    let e = expect_fields(x);\n\
    let f = m.unwrap_or(3);\n\
    std::panic::catch_unwind(g);\n\
    panic!(\"boom\");\n\
}\n";
        let v = check("no-panic-lib", "crates/engine/src/x.rs", src);
        let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![2, 3, 7]);
    }

    #[test]
    fn panic_lib_skips_tests_and_bins() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(check("no-panic-lib", "crates/engine/src/x.rs", src).is_empty());
        let lib = "fn f() { x.unwrap(); }\n";
        assert!(check("no-panic-lib", "crates/bench/src/bin/table1.rs", lib).is_empty());
        assert_eq!(
            check("no-panic-lib", "crates/bench/src/cli.rs", lib).len(),
            1
        );
    }

    #[test]
    fn safety_comment_requires_nearby_marker() {
        let bad = "fn f() {\n    unsafe { std::hint::unreachable_unchecked() }\n}\n";
        assert_eq!(
            check("safety-comment", "crates/qsim/src/x.rs", bad).len(),
            1
        );
        let good =
            "fn f() {\n    // SAFETY: the index is bounds-checked above.\n    unsafe { q() }\n}\n";
        assert!(check("safety-comment", "crates/qsim/src/x.rs", good).is_empty());
        let far = "fn f() {\n    // SAFETY: too far away.\n\n\n\n    unsafe { q() }\n}\n";
        assert_eq!(
            check("safety-comment", "crates/qsim/src/x.rs", far).len(),
            1
        );
    }

    #[test]
    fn wallclock_respects_allowlist() {
        let src = "use std::time::Instant;\nlet t = Instant::now();\n";
        assert_eq!(
            check("no-wallclock", "crates/engine/src/pool.rs", src).len(),
            2
        );
        assert!(check("no-wallclock", "crates/engine/src/batch.rs", src).is_empty());
        assert!(check("no-wallclock", "crates/bench/src/cli.rs", src).is_empty());
    }

    #[test]
    fn bit_exact_floats_heuristics() {
        let path = "crates/engine/src/wire.rs";
        // Unsanctioned float field in a format arg.
        let bad = "fn e(r: &R) -> String { format!(\"{} {}\", r.graph_id, r.expectation) }\n";
        assert_eq!(check("bit-exact-floats", path, bad).len(), 1);
        // Routed through the codec: clean.
        let good =
            "fn e(r: &R) -> String { format!(\"{} {}\", r.graph_id, fmt_f64(r.expectation)) }\n";
        assert!(check("bit-exact-floats", path, good).is_empty());
        // Inline capture and precision specs.
        let capture = "fn e() -> String { format!(\"{expectation}\") }\n";
        assert_eq!(check("bit-exact-floats", path, capture).len(), 1);
        let precision = "fn e(x: f64) -> String { format!(\"{:.17}\", x.to_bits()) }\n";
        assert_eq!(check("bit-exact-floats", path, precision).len(), 1);
        // to_string on a float marker.
        let tostr = "fn e(r: &R) -> String { r.expectation.to_string() }\n";
        assert_eq!(check("bit-exact-floats", path, tostr).len(), 1);
        // Other files are out of scope.
        assert!(check("bit-exact-floats", "crates/engine/src/batch.rs", bad).is_empty());
    }
}
