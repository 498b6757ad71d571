//! The lexical rule and the test mask every rule shares.
//!
//! `no-float-eq` is a pure pass over the token stream of one file (see
//! [`crate::lexer`]): no `==`/`!=` against a floating-point literal; use the
//! epsilon helpers in `hdx_stats::approx`. Every rule, this one and the
//! semantic ones, skips the tokens of the precomputed *test mask*: those
//! that belong to `#[cfg(test)]` items (or `#[test]` functions).

use crate::lexer::{Tok, TokKind};

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule identifier (e.g. `no-float-eq`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// Rule identifiers, in reporting order: the lexical rule, then the
/// semantic rules (see [`crate::semantic`]).
pub const RULES: &[&str] = &[
    "no-float-eq",
    "unsafe-audit",
    "atomics-ordering",
    "no-alloc-hot-path",
    "no-panic-path",
];

/// Computes a mask marking tokens inside `#[cfg(test)]` / `#[test]` items.
///
/// When a test attribute is found, the attribute itself, any further
/// attributes/doc comments, and the following item (up to its closing brace
/// or terminating semicolon) are all masked. An *inner* test attribute
/// (`#![cfg(test)]`) masks the rest of its enclosing brace block — or the
/// rest of the file when it appears at the top level.
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct("{") {
            depth += 1;
        } else if toks[i].is_punct("}") {
            depth = depth.saturating_sub(1);
        }
        // Inner attribute `#![...]`: applies to the enclosing block/file.
        if toks[i].is_punct("#")
            && matches!(toks.get(i + 1), Some(t) if t.is_punct("!"))
            && matches!(toks.get(i + 2), Some(t) if t.is_punct("["))
        {
            let (attr_end, is_test) = scan_attribute(toks, i + 2);
            if is_test {
                // Mask from the attribute to the end of the enclosing block
                // (the token closing `depth`), or to EOF at the top level.
                let mut d = depth;
                let mut j = attr_end + 1;
                while j < toks.len() {
                    if toks[j].is_punct("{") {
                        d += 1;
                    } else if toks[j].is_punct("}") {
                        if d == depth && depth > 0 {
                            break;
                        }
                        d = d.saturating_sub(1);
                    }
                    j += 1;
                }
                for m in mask.iter_mut().take((j + 1).min(toks.len())).skip(i) {
                    *m = true;
                }
            }
            i = attr_end + 1;
            continue;
        }
        if !toks[i].is_punct("#") || !matches!(toks.get(i + 1), Some(t) if t.is_punct("[")) {
            i += 1;
            continue;
        }
        let attr_start = i;
        let (attr_end, is_test) = scan_attribute(toks, i + 1);
        if !is_test {
            i = attr_end + 1;
            continue;
        }
        // Mask this attribute, any trailing attributes / doc comments, and
        // then the item body.
        let mut j = attr_end + 1;
        loop {
            if matches!(toks.get(j), Some(t) if t.kind == TokKind::Doc) {
                j += 1;
            } else if matches!(toks.get(j), Some(t) if t.is_punct("#"))
                && matches!(toks.get(j + 1), Some(t) if t.is_punct("["))
            {
                let (end, _) = scan_attribute(toks, j + 1);
                j = end + 1;
            } else {
                break;
            }
        }
        // Item body: first balanced `{...}` block, or a `;` before any brace.
        let mut depth = 0usize;
        let mut seen_brace = false;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct("{") {
                depth += 1;
                seen_brace = true;
            } else if t.is_punct("}") {
                depth = depth.saturating_sub(1);
                if seen_brace && depth == 0 {
                    break;
                }
            } else if t.is_punct(";") && !seen_brace {
                break;
            }
            j += 1;
        }
        for m in mask
            .iter_mut()
            .take((j + 1).min(toks.len()))
            .skip(attr_start)
        {
            *m = true;
        }
        i = j + 1;
    }
    mask
}

/// Scans an attribute whose `[` is at `open`. Returns the index of the
/// matching `]` and whether the attribute marks test-only code
/// (`#[cfg(test)]`, `#[cfg(all(test, ...))]`, `#[test]`, ...).
///
/// A `test` predicate under a `not(...)` group does **not** count:
/// `#[cfg(not(test))]` is production-only code and must stay lintable.
fn scan_attribute(toks: &[Tok], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut has_test = false;
    let mut first_ident: Option<&str> = None;
    // Parenthesis groups entered so far, each tagged with whether it is (or
    // sits inside) a `not(...)` group.
    let mut group_negated: Vec<bool> = Vec::new();
    let mut prev_ident_is_not = false;
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.is_punct("(") {
            let inherited = group_negated.last().copied().unwrap_or(false);
            group_negated.push(inherited || prev_ident_is_not);
            prev_ident_is_not = false;
        } else if t.is_punct(")") {
            group_negated.pop();
            prev_ident_is_not = false;
        } else if t.kind == TokKind::Ident {
            if first_ident.is_none() {
                first_ident = Some(&t.text);
            }
            if t.text == "test" && !group_negated.last().copied().unwrap_or(false) {
                has_test = true;
            }
            prev_ident_is_not = t.text == "not";
        } else {
            prev_ident_is_not = false;
        }
        j += 1;
    }
    let is_test = match first_ident {
        Some("cfg") => has_test,
        Some("test") => true,
        _ => false,
    };
    (j.min(toks.len().saturating_sub(1)), is_test)
}

/// `no-float-eq`: flags `==`/`!=` whose left or right operand is a
/// floating-point literal. `f64::INFINITY`-style constant comparisons are
/// intentionally not matched (exact unboundedness checks are sound).
pub fn rule_no_float_eq(toks: &[Tok], mask: &[bool], file: &str, out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let lhs_float = i > 0 && toks[i - 1].kind == TokKind::Float;
        let rhs_float = match toks.get(i + 1) {
            Some(n) if n.kind == TokKind::Float => true,
            Some(n) if n.is_punct("-") => {
                matches!(toks.get(i + 2), Some(m) if m.kind == TokKind::Float)
            }
            _ => false,
        };
        if lhs_float || rhs_float {
            out.push(Violation {
                rule: "no-float-eq",
                file: file.to_string(),
                line: t.line,
                message: format!(
                    "`{}` against a float literal (use `hdx_stats::approx`)",
                    t.text
                ),
            });
        }
    }
}
