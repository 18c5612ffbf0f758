//! A lexed source file plus the two layers of context every rule needs:
//! which lines are test code, and which lines carry `lint:allow`
//! suppressions.

use std::collections::BTreeMap;

use crate::lexer::{lex, Tok, TokKind};

/// A source file ready for rule checks.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated (stable across platforms so
    /// diagnostics read the same everywhere).
    pub path: String,
    /// The lexed token stream, comments included.
    pub toks: Vec<Tok>,
    /// `is_test[line - 1]` is `true` when 1-based `line` sits inside a
    /// `#[cfg(test)]` module or `#[test]` function body.
    is_test: Vec<bool>,
    /// Per-line suppressions: line → rules allowed on that line, each with
    /// a (possibly empty) justification.
    allows: BTreeMap<usize, Vec<Allow>>,
    /// Each parsed marker exactly once (a marker can cover two lines in
    /// `allows`, so that map over-counts for hygiene checks).
    markers: Vec<Allow>,
    n_lines: usize,
}

/// One parsed `lint:allow(rule, ...)` marker.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule name inside the parens.
    pub rule: String,
    /// Trailing free text after the closing paren.
    pub justification: String,
    /// Line the marker comment sits on (diagnostics for bare markers).
    pub marker_line: usize,
}

impl SourceFile {
    /// Lexes `source` and precomputes test regions and suppressions.
    #[must_use]
    pub fn new(path: &str, source: &str) -> Self {
        let toks = lex(source);
        let n_lines = source.lines().count().max(1);
        let is_test = test_lines(&toks, n_lines);
        let (allows, markers) = collect_allows(&toks);
        Self {
            path: path.replace('\\', "/"),
            toks,
            is_test,
            allows,
            markers,
            n_lines,
        }
    }

    /// `true` when 1-based `line` is inside test-only code.
    #[must_use]
    pub fn is_test_line(&self, line: usize) -> bool {
        line >= 1 && line <= self.n_lines && self.is_test[line - 1]
    }

    /// The suppression for `rule` effective on `line`, if any.
    #[must_use]
    pub fn allow_for(&self, rule: &str, line: usize) -> Option<&Allow> {
        self.allows
            .get(&line)
            .and_then(|v| v.iter().find(|a| a.rule == rule))
    }

    /// Every parsed marker, each exactly once (the driver flags
    /// justification-less and unknown-rule ones).
    pub fn all_allows(&self) -> impl Iterator<Item = &Allow> {
        self.markers.iter()
    }
}

/// Marks lines inside `#[test]` / `#[cfg(test)]` items. The heuristic:
/// whenever an attribute's token list contains the ident `test` but not
/// `not` (so `#[cfg(not(test))]` stays non-test), the next `{ ... }` block
/// is a test region. Nested attributes between the marker and the brace
/// (e.g. `#[test] #[should_panic] fn ...`) are handled by simply scanning
/// forward to the first `{`.
fn test_lines(toks: &[Tok], n_lines: usize) -> Vec<bool> {
    let mut flags = vec![false; n_lines];
    let code: Vec<&Tok> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
    let mut i = 0;
    while i < code.len() {
        if code[i].is_punct('#') && code.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Collect the attribute body up to its matching `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut saw_test = false;
            let mut saw_not = false;
            while j < code.len() && depth > 0 {
                if code[j].is_punct('[') {
                    depth += 1;
                } else if code[j].is_punct(']') {
                    depth -= 1;
                } else if code[j].is_ident("test") {
                    saw_test = true;
                } else if code[j].is_ident("not") {
                    saw_not = true;
                }
                j += 1;
            }
            if saw_test && !saw_not {
                // Find the item's opening brace, then match to its close.
                let mut k = j;
                while k < code.len() && !code[k].is_punct('{') {
                    k += 1;
                }
                if k < code.len() {
                    let open_line = code[i].line;
                    let mut braces = 1usize;
                    let mut m = k + 1;
                    while m < code.len() && braces > 0 {
                        if code[m].is_punct('{') {
                            braces += 1;
                        } else if code[m].is_punct('}') {
                            braces -= 1;
                        }
                        m += 1;
                    }
                    let close_line = code.get(m - 1).map_or(n_lines, |t| t.end_line);
                    for line in open_line..=close_line.min(n_lines) {
                        flags[line - 1] = true;
                    }
                    i = m;
                    continue;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    flags
}

/// Parses `lint:allow(rule, rule2) justification` markers out of comment
/// tokens. A comment that *opens* its line (no code tokens before it)
/// suppresses the next line holding code; a trailing comment suppresses its
/// own line. Both also cover the marker's own line, so a marker above a
/// multi-line statement anchors to where the statement starts.
fn collect_allows(toks: &[Tok]) -> (BTreeMap<usize, Vec<Allow>>, Vec<Allow>) {
    // First code line at-or-after each comment, and code presence per line.
    let mut allows: BTreeMap<usize, Vec<Allow>> = BTreeMap::new();
    let mut markers: Vec<Allow> = Vec::new();
    for (idx, tok) in toks.iter().enumerate() {
        if tok.kind != TokKind::Comment || is_doc_comment(&tok.text) {
            // Doc comments *describe* the marker syntax (this crate's own
            // docs do); only plain comments *act* as markers.
            continue;
        }
        let Some(parsed) = parse_allow(&tok.text, tok.line) else {
            continue;
        };
        markers.extend(parsed.iter().cloned());
        let leading = !toks[..idx]
            .iter()
            .any(|t| t.kind != TokKind::Comment && t.end_line == tok.line);
        let target = if leading {
            // Next non-comment token's line.
            toks[idx + 1..]
                .iter()
                .find(|t| t.kind != TokKind::Comment)
                .map_or(tok.line, |t| t.line)
        } else {
            tok.line
        };
        for line in [tok.line, target] {
            let slot = allows.entry(line).or_default();
            for a in &parsed {
                if !slot.iter().any(|e| e.rule == a.rule) {
                    slot.push(a.clone());
                }
            }
        }
    }
    (allows, markers)
}

/// `///`, `//!`, `/**`, `/*!` — rustdoc, not suppression. (`////` and
/// `/***` are plain comments per the reference, but treating them as doc
/// here only makes the hygiene check stricter about where markers live.)
fn is_doc_comment(text: &str) -> bool {
    text.starts_with("///")
        || text.starts_with("//!")
        || text.starts_with("/**")
        || text.starts_with("/*!")
}

/// Extracts the marker from one comment's text, if present.
fn parse_allow(comment: &str, marker_line: usize) -> Option<Vec<Allow>> {
    let at = comment.find("lint:allow(")?;
    let rest = &comment[at + "lint:allow(".len()..];
    let close = rest.find(')')?;
    let rules = &rest[..close];
    let justification = rest[close + 1..]
        .trim()
        .trim_end_matches("*/")
        .trim()
        .to_string();
    Some(
        rules
            .split(',')
            .map(|r| Allow {
                rule: r.trim().to_string(),
                justification: justification.clone(),
                marker_line,
            })
            .filter(|a| !a.rule.is_empty())
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_lines_are_test() {
        let src = "\
fn lib() {}\n\
#[cfg(test)]\n\
mod tests {\n\
    #[test]\n\
    fn t() { assert!(true); }\n\
}\n\
fn lib2() {}\n";
        let f = SourceFile::new("x.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(5));
        assert!(f.is_test_line(6));
        assert!(!f.is_test_line(7));
    }

    #[test]
    fn cfg_not_test_is_not_test() {
        let src = "#[cfg(not(test))]\nmod real {\n    fn f() {}\n}\n";
        let f = SourceFile::new("x.rs", src);
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn standalone_test_fn_is_test() {
        let src = "#[test]\n#[should_panic]\nfn t() {\n    boom();\n}\nfn lib() {}\n";
        let f = SourceFile::new("x.rs", src);
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn trailing_allow_covers_its_line() {
        let src = "let x = m.unwrap(); // lint:allow(no-panic-lib) startup only\n";
        let f = SourceFile::new("x.rs", src);
        let a = f.allow_for("no-panic-lib", 1).expect("allow");
        assert_eq!(a.justification, "startup only");
        assert!(f.allow_for("no-lossy-as", 1).is_none());
    }

    #[test]
    fn leading_allow_covers_next_code_line() {
        let src = "\
// lint:allow(no-lossy-as, no-panic-lib) both fine here\n\
// another comment between\n\
let x = y as u32;\n\
let z = 1;\n";
        let f = SourceFile::new("x.rs", src);
        assert!(f.allow_for("no-lossy-as", 3).is_some());
        assert!(f.allow_for("no-panic-lib", 3).is_some());
        assert!(f.allow_for("no-lossy-as", 4).is_none());
    }

    #[test]
    fn doc_comments_do_not_act_as_markers() {
        let src = "\
/// Write `// lint:allow(no-panic-lib) why` above the call.\n\
let x = m.unwrap();\n";
        let f = SourceFile::new("x.rs", src);
        assert!(f.allow_for("no-panic-lib", 2).is_none());
        assert_eq!(f.all_allows().count(), 0);
    }

    #[test]
    fn bare_marker_has_empty_justification() {
        let f = SourceFile::new("x.rs", "// lint:allow(no-panic-lib)\nlet x = 1;\n");
        let a = f.allow_for("no-panic-lib", 2).expect("allow");
        assert!(a.justification.is_empty());
    }
}
