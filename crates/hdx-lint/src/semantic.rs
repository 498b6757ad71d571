//! The semantic rules (tier 2 of the analyzer — see DESIGN.md §13).
//!
//! These rules consume the item tree ([`crate::ast`]) and the comment
//! side-channel ([`crate::lexer::lex_with_comments`]) on top of the token
//! stream, and are configured by the checked-in manifests
//! ([`crate::manifest`]):
//!
//! * `unsafe-audit` — every `unsafe` needs a `// SAFETY:` justification
//!   comment *and* a row in `UNSAFE_LEDGER.md` for its file.
//! * `atomics-ordering` — every `Ordering::Relaxed` needs an
//!   `// ORDERING:` justification comment.
//! * `no-alloc-hot-path` — functions listed in `hotpaths.toml` may not
//!   allocate (`.push`/`.collect`/`format!`/`vec!`/`Box::new`/...) unless
//!   the site carries an `// ALLOC:` justification; a pin naming a missing
//!   file or function is itself a violation, since it checks nothing.
//! * `no-panic-path` — files marked `panic_free` may not use unchecked
//!   indexing/slicing, `.unwrap`/`.expect`, or panicking macros; a
//!   pre-verified bound can be justified with `// BOUND:`.
//!
//! Justification comments are *plain* comments (`// SAFETY: ...`), never doc
//! comments: they address the maintainer reading the code, not the API user.
//! A marker justifies the tokens on its own line(s) and on the lines of the
//! contiguous comment block's immediate successor — i.e. write the comment
//! directly above (or at the end of) the line it justifies.

use crate::ast::{self, FnItem, ItemTree};
use crate::lexer::{Comment, Tok, TokKind};
use crate::manifest::{Hotpath, Hotpaths, UnsafeLedger};
use crate::rules::Violation;

/// Per-line index of the plain comments of one file, answering "is the token
/// at line L justified by marker M?".
#[derive(Debug, Default)]
pub struct CommentIndex {
    /// Line → comment text (joined when multiple comments share a line; a
    /// block comment contributes its text to every line it spans).
    lines: std::collections::BTreeMap<u32, String>,
}

impl CommentIndex {
    /// Builds the index from the lexer's comment side-channel.
    pub fn new(comments: &[Comment]) -> Self {
        let mut lines = std::collections::BTreeMap::new();
        for c in comments {
            for line in c.first_line..=c.last_line {
                let slot: &mut String = lines.entry(line).or_default();
                slot.push_str(&c.text);
                slot.push('\n');
            }
        }
        Self { lines }
    }

    /// Whether a token at `line` is justified by a comment containing
    /// `marker`: on the same line, or in the contiguous comment block ending
    /// on the line directly above.
    pub fn justified(&self, line: u32, marker: &str) -> bool {
        if self.contains(line, marker) {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l > 0 && self.lines.contains_key(&l) {
            if self.contains(l, marker) {
                return true;
            }
            l -= 1;
        }
        false
    }

    fn contains(&self, line: u32, marker: &str) -> bool {
        self.lines.get(&line).is_some_and(|t| t.contains(marker))
    }
}

/// `unsafe-audit`: every `unsafe` (block/fn/impl/trait) outside tests needs
/// a `// SAFETY:` comment and a ledger row for its file.
pub fn rule_unsafe_audit(
    tree: &ItemTree,
    mask: &[bool],
    comments: &CommentIndex,
    ledger: &UnsafeLedger,
    file: &str,
    out: &mut Vec<Violation>,
) {
    for site in &tree.unsafes {
        if mask.get(site.tok).copied().unwrap_or(false) {
            continue;
        }
        let what = match site.kind {
            ast::UnsafeKind::Block => "`unsafe` block",
            ast::UnsafeKind::Fn => "`unsafe fn`",
            ast::UnsafeKind::Impl => "`unsafe impl`",
            ast::UnsafeKind::Trait => "`unsafe trait`",
            ast::UnsafeKind::Other => "`unsafe`",
        };
        if !comments.justified(site.line, "SAFETY:") {
            out.push(Violation {
                rule: "unsafe-audit",
                file: file.to_string(),
                line: site.line,
                message: format!("{what} without a `// SAFETY:` justification comment"),
            });
        }
        if !ledger.covers(file) {
            out.push(Violation {
                rule: "unsafe-audit",
                file: file.to_string(),
                line: site.line,
                message: format!("{what} in a file with no UNSAFE_LEDGER.md entry"),
            });
        }
    }
}

/// `atomics-ordering`: every `Ordering::Relaxed` token triple outside tests
/// needs an `// ORDERING:` justification comment.
///
/// `std::cmp::Ordering` has no `Relaxed` variant, so the triple match cannot
/// confuse comparison code; fully-qualified `atomic::Ordering::Relaxed`
/// paths contain the same triple and are matched too.
pub fn rule_atomics_ordering(
    toks: &[Tok],
    mask: &[bool],
    comments: &CommentIndex,
    file: &str,
    out: &mut Vec<Violation>,
) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || !t.is_ident("Relaxed") {
            continue;
        }
        let is_ordering = i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].is_ident("Ordering");
        if !is_ordering {
            continue;
        }
        if !comments.justified(t.line, "ORDERING:") {
            out.push(Violation {
                rule: "atomics-ordering",
                file: file.to_string(),
                line: t.line,
                message: "`Ordering::Relaxed` without an `// ORDERING:` justification \
                          (why is relaxed memory ordering sufficient here?)"
                    .to_string(),
            });
        }
    }
}

/// Allocating constructs flagged inside hot-path functions: `(needle kind,
/// message)`. Method calls are matched as `.name(`; macros as `name!`;
/// `Box::new` / `String::from` as qualified-path calls.
const ALLOC_METHODS: &[&str] = &["push", "collect", "to_vec", "to_string", "to_owned"];
const ALLOC_MACROS: &[&str] = &["format", "vec"];
const ALLOC_PATHS: &[(&str, &str)] = &[("Box", "new"), ("String", "from"), ("Vec", "new")];

/// `no-alloc-hot-path`: functions listed in `hotpaths.toml` must not
/// allocate. Scratch-pool operations with pre-reserved capacity can be
/// justified with an `// ALLOC:` comment.
pub fn rule_no_alloc_hot_path(
    toks: &[Tok],
    tree: &ItemTree,
    mask: &[bool],
    comments: &CommentIndex,
    hotpath: &Hotpath,
    file: &str,
    out: &mut Vec<Violation>,
) {
    for func in &tree.functions {
        if !hotpath.functions.iter().any(|pin| pins(pin, func)) {
            continue;
        }
        let Some((lo, hi)) = func.body else { continue };
        for i in lo..=hi.min(toks.len().saturating_sub(1)) {
            if mask[i] {
                continue;
            }
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let next_is = |p: &str| matches!(toks.get(i + 1), Some(n) if n.is_punct(p));
            let prev_is = |p: &str| i > lo && toks[i - 1].is_punct(p);
            let hit = if ALLOC_METHODS.contains(&t.text.as_str()) {
                prev_is(".") && (next_is("(") || next_is("::"))
            } else if ALLOC_MACROS.contains(&t.text.as_str()) {
                next_is("!")
            } else {
                ALLOC_PATHS.iter().any(|(ty, m)| {
                    t.is_ident(ty)
                        && next_is("::")
                        && matches!(toks.get(i + 2), Some(n) if n.is_ident(m))
                })
            };
            if hit && !comments.justified(t.line, "ALLOC:") {
                out.push(Violation {
                    rule: "no-alloc-hot-path",
                    file: file.to_string(),
                    line: t.line,
                    message: format!(
                        "allocation (`{}`) in hot-path fn `{}` (use the per-depth scratch \
                         pool, or justify with `// ALLOC:`)",
                        t.text, func.path
                    ),
                });
            }
        }
    }
}

/// Whether the `hotpaths.toml` function entry `pin` (bare, or a
/// `::`-qualified path suffix) names `func`.
fn pins(pin: &str, func: &FnItem) -> bool {
    pin == func.name || pin == func.path || func.path.ends_with(&format!("::{pin}"))
}

/// `no-alloc-hot-path`, pin side: every function a `hotpaths.toml` entry
/// lists must exist in its file. A pin that names nothing — the function
/// was renamed or deleted — would silently drop its zero-allocation
/// check, so it is reported at the entry's manifest line.
pub fn rule_hot_path_pins_resolve(
    tree: &ItemTree,
    hotpath: &Hotpath,
    manifest_file: &str,
    out: &mut Vec<Violation>,
) {
    for pin in &hotpath.functions {
        if !tree.functions.iter().any(|func| pins(pin, func)) {
            out.push(Violation {
                rule: "no-alloc-hot-path",
                file: manifest_file.to_string(),
                line: hotpath.line,
                message: format!(
                    "stale hot-path pin `{}::{pin}`: no such function in the file, so \
                     nothing is checked (update or remove the pin)",
                    hotpath.file
                ),
            });
        }
    }
}

/// `no-alloc-hot-path`, file side: every `hotpaths.toml` entry must name a
/// scanned source file (`scanned` holds their workspace-relative paths). A
/// pin on a deleted or moved file checks nothing, so it is reported at the
/// entry's manifest line.
pub fn rule_hot_path_files_exist(
    hotpaths: &Hotpaths,
    scanned: &[String],
    manifest_file: &str,
    out: &mut Vec<Violation>,
) {
    for entry in &hotpaths.entries {
        if !scanned.contains(&entry.file) {
            out.push(Violation {
                rule: "no-alloc-hot-path",
                file: manifest_file.to_string(),
                line: entry.line,
                message: format!(
                    "stale hot-path pin: `{}` is not a scanned source file, so nothing \
                     is checked (update or remove the entry)",
                    entry.file
                ),
            });
        }
    }
}

/// Panicking macros flagged by `no-panic-path`.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// `no-panic-path`: in files marked `panic_free` in `hotpaths.toml`, the
/// non-test body may not use `.unwrap()`/`.expect()`, panicking macros, or
/// unchecked indexing/slicing (`xs[i]`, `&xs[a..b]`). `assert!`-family
/// guards are allowed — they *are* the pre-verification mechanism. An index
/// whose bound is established elsewhere can be justified with `// BOUND:`.
pub fn rule_no_panic_path(
    toks: &[Tok],
    mask: &[bool],
    comments: &CommentIndex,
    file: &str,
    out: &mut Vec<Violation>,
) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let (line, what): (u32, String) = match t.kind {
            TokKind::Ident => {
                let next_is = |p: &str| matches!(toks.get(i + 1), Some(n) if n.is_punct(p));
                let prev_is = |p: &str| i > 0 && toks[i - 1].is_punct(p);
                match t.text.as_str() {
                    "unwrap" | "expect" if prev_is(".") && next_is("(") => {
                        (t.line, format!("`.{}(...)`", t.text))
                    }
                    m if PANIC_MACROS.contains(&m) && next_is("!") => (t.line, format!("`{m}!`")),
                    _ => continue,
                }
            }
            TokKind::Punct if t.text == "[" => {
                // Indexing/slicing: `[` directly after an expression tail
                // (identifier, `)`, `]`). Type positions, array literals and
                // attributes are preceded by other punctuation — or by a
                // keyword (`&mut [u64]`, `for x in [..]`, `return [..]`),
                // which tokenizes as an identifier but cannot be indexed.
                const KEYWORDS: &[&str] = &[
                    "let", "mut", "ref", "dyn", "in", "return", "break", "else", "match", "move",
                ];
                let is_index = i > 0
                    && (toks[i - 1].kind == TokKind::Ident
                        && !KEYWORDS.contains(&toks[i - 1].text.as_str())
                        || toks[i - 1].is_punct(")")
                        || toks[i - 1].is_punct("]"));
                if !is_index {
                    continue;
                }
                (t.line, "unchecked indexing/slicing `[...]`".to_string())
            }
            _ => continue,
        };
        if comments.justified(line, "BOUND:") {
            continue;
        }
        out.push(Violation {
            rule: "no-panic-path",
            file: file.to_string(),
            line,
            message: format!(
                "{what} in a panic-free kernel module (pre-verify the bound and use \
                 `get`/iterators/`split_at`, or justify with `// BOUND:`)"
            ),
        });
    }
}
