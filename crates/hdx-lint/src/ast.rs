//! A lightweight item-tree parser over the token stream.
//!
//! The semantic rules need more structure than a flat token stream — "which
//! function does this token belong to", "what is the module path of this
//! `fn`" — but far less than a full grammar. This pass recovers exactly that
//! middle layer: a list of function items with their fully-qualified paths
//! (`module::Type::method`) and body token ranges, plus every `unsafe`
//! occurrence classified by construct. It deliberately does not build an
//! expression tree; the rules that need expression-level facts (indexing,
//! method calls) pattern-match tokens *within* a function's body range.
//!
//! The parser is a single forward pass with a scope stack. A `{` is
//! classified by the pending item declaration preceding it (`mod m {`,
//! `impl T {`, `fn f( ... ) {`); all other braces (match arms, struct
//! literals, closures, plain blocks) become anonymous scopes that only
//! matter for brace balancing.

use crate::lexer::{Tok, TokKind};

/// One function item recovered from the token stream.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name (`accum`).
    pub name: String,
    /// Fully-qualified path within the file: enclosing modules and impl
    /// types joined with `::` (`plane::OutcomePlanes::accum`). The crate
    /// segment is *not* included — the file path provides it.
    pub path: String,
    /// Token-index range of the body, **inclusive of both braces**.
    /// `None` for bodyless functions (trait method declarations).
    pub body: Option<(usize, usize)>,
}

/// What kind of construct an `unsafe` keyword introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeKind {
    /// `unsafe { ... }` block.
    Block,
    /// `unsafe fn ...`.
    Fn,
    /// `unsafe impl ...`.
    Impl,
    /// `unsafe trait ...`.
    Trait,
    /// Anything else (`unsafe extern`, attribute grammar, ...).
    Other,
}

/// One `unsafe` occurrence.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// 1-based line of the `unsafe` keyword.
    pub line: u32,
    /// Token index of the `unsafe` keyword.
    pub tok: usize,
    /// Construct kind.
    pub kind: UnsafeKind,
}

/// The recovered item tree of one file.
#[derive(Debug, Default)]
pub struct ItemTree {
    /// All function items, in source order.
    pub functions: Vec<FnItem>,
    /// All `unsafe` occurrences, in source order.
    pub unsafes: Vec<UnsafeSite>,
}

/// A scope on the parse stack: what the enclosing `{` belongs to.
#[derive(Debug)]
enum Scope {
    /// `mod name {` or `impl Type {` — pushed a path segment to pop on `}`.
    Named,
    /// `fn name(...) { ... }` — body; closing brace finishes the item.
    Fn { index: usize },
    /// Any other brace (expression block, match arm, struct literal, ...).
    Anon,
}

/// A declaration seen but whose `{` has not arrived yet.
#[derive(Debug)]
enum Pending {
    Mod(String),
    Impl { toks: Vec<String> },
    Fn { index: usize },
}

/// Parses the token stream of one file into its [`ItemTree`].
pub fn parse(toks: &[Tok]) -> ItemTree {
    let mut tree = ItemTree::default();
    let mut stack: Vec<Scope> = Vec::new();
    let mut pending: Option<Pending> = None;
    let mut path: Vec<String> = Vec::new();

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Ident => match t.text.as_str() {
                "mod" => {
                    if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                        pending = Some(Pending::Mod(name.text.clone()));
                        i += 2;
                        continue;
                    }
                }
                "impl" => {
                    pending = Some(Pending::Impl { toks: Vec::new() });
                }
                "fn" => {
                    if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                        let mut fn_path = path.clone();
                        fn_path.push(name.text.clone());
                        tree.functions.push(FnItem {
                            name: name.text.clone(),
                            path: fn_path.join("::"),
                            body: None,
                        });
                        pending = Some(Pending::Fn {
                            index: tree.functions.len() - 1,
                        });
                        i += 2;
                        continue;
                    }
                }
                "unsafe" => {
                    let kind = match toks.get(i + 1) {
                        Some(n) if n.is_punct("{") => UnsafeKind::Block,
                        Some(n) if n.is_ident("fn") => UnsafeKind::Fn,
                        Some(n) if n.is_ident("impl") => UnsafeKind::Impl,
                        Some(n) if n.is_ident("trait") => UnsafeKind::Trait,
                        _ => UnsafeKind::Other,
                    };
                    tree.unsafes.push(UnsafeSite {
                        line: t.line,
                        tok: i,
                        kind,
                    });
                }
                _ => {
                    if let Some(Pending::Impl { toks: acc }) = &mut pending {
                        acc.push(t.text.clone());
                    }
                }
            },
            TokKind::Punct => match t.text.as_str() {
                "{" => {
                    let scope = match pending.take() {
                        Some(Pending::Mod(name)) => {
                            path.push(name);
                            Scope::Named
                        }
                        Some(Pending::Impl { toks: acc }) => {
                            path.push(impl_type_name(&acc));
                            Scope::Named
                        }
                        Some(Pending::Fn { index }) => {
                            tree.functions[index].body = Some((i, i));
                            Scope::Fn { index }
                        }
                        None => Scope::Anon,
                    };
                    stack.push(scope);
                }
                "}" => match stack.pop() {
                    Some(Scope::Named) => {
                        path.pop();
                    }
                    Some(Scope::Fn { index }) => {
                        if let Some((lo, _)) = tree.functions[index].body {
                            tree.functions[index].body = Some((lo, i));
                        }
                    }
                    _ => {}
                },
                ";" => {
                    // `mod m;`, trait method declarations, `impl Trait for T;`
                    // (negative impls) — the pending declaration has no body.
                    pending = None;
                }
                // Angle brackets of an `impl` header delimit generics, which
                // `impl_type_name` skips.
                "<" | ">" | ">>" => {
                    if let Some(Pending::Impl { toks: acc }) = &mut pending {
                        acc.push(t.text.clone());
                    }
                }
                _ => {}
            },
            _ => {}
        }
        i += 1;
    }
    tree
}

/// Extracts the self-type name from the identifiers and angle brackets of
/// an `impl` header: `impl Foo` → `Foo`; `impl Trait for Foo` → `Foo`;
/// `impl<const K: usize> Foo<K>` → `Foo`; modifiers, generics and path
/// qualifiers are skipped. Falls back to `"impl"` when no identifier is
/// found (e.g. `impl (A, B)`).
fn impl_type_name(toks: &[String]) -> String {
    let mut depth = 0usize;
    let mut outside = Vec::new();
    for t in toks {
        match t.as_str() {
            "<" => depth += 1,
            ">" => depth = depth.saturating_sub(1),
            ">>" => depth = depth.saturating_sub(2),
            _ if depth == 0 => outside.push(t),
            _ => {}
        }
    }
    let after_for = match outside.iter().position(|s| *s == "for") {
        Some(p) => &outside[p + 1..],
        None => &outside[..],
    };
    after_for
        .iter()
        .find(|s| {
            !matches!(
                s.as_str(),
                "const" | "unsafe" | "dyn" | "mut" | "where" | "r#" | "crate" | "super" | "self"
            )
        })
        .map(|s| s.to_string())
        .unwrap_or_else(|| "impl".to_string())
}
