//! `hdx-lint`: workspace static-analysis pass for the H-DivExplorer repo.
//!
//! Checks what neither rustc nor clippy can, the same way in every
//! workspace crate (see `crates/hdx-lint/README.md` and `DESIGN.md` §8.1
//! and §13). rustc's `missing_docs` and clippy's `unwrap_used`,
//! `expect_used`, `panic` and `exit` lints cover the rest. Three tiers:
//!
//! **Lexical rule** (token stream, [`rules`]):
//!
//! 1. `no-float-eq` — no `==` / `!=` against float literals; comparisons go
//!    through `hdx_stats::approx`.
//!
//! **Semantic rules** (item tree + comment side-channel + manifests,
//! [`semantic`]):
//!
//! 2. `unsafe-audit`      — `// SAFETY:` comment + `UNSAFE_LEDGER.md` row
//!    for every `unsafe`.
//! 3. `atomics-ordering`  — `// ORDERING:` justification for every
//!    `Ordering::Relaxed`.
//! 4. `no-alloc-hot-path` — functions in `crates/hdx-lint/hotpaths.toml`
//!    do not allocate, and every pin names an existing file and function.
//! 5. `no-panic-path`     — `panic_free` files avoid unchecked indexing
//!    and panicking calls.
//!
//! **Dynamic harness** (`cargo xtask sanitize`, [`sanitize`]): loom
//! interleaving models, Miri, ThreadSanitizer.
//!
//! Any violation fails the run (exit code 1). `--format json|sarif` /
//! `--output <path>` emit machine-readable reports for CI and editors.
//!
//! Usage: `cargo lint` / `cargo xtask lint` / `cargo xtask sanitize` /
//! `cargo run -p hdx-lint --` with optional flags
//! `[--format text|json|sarif] [--output <path>] [--root <dir>] [--strict]
//! [--self-test]`.

mod ast;
mod lexer;
mod manifest;
mod rules;
mod sanitize;
mod sarif;
mod selftest;
mod semantic;

use rules::Violation;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Workspace-relative path of the hot-path manifest; stale pins are
/// reported against it.
pub(crate) const HOTPATHS_TOML: &str = "crates/hdx-lint/hotpaths.toml";

/// Output format for the violation report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

#[derive(Debug)]
struct Options {
    format: Format,
    output: Option<PathBuf>,
    root: Option<PathBuf>,
    self_test: bool,
    sanitize: bool,
    strict: bool,
}

/// The loaded manifests driving the semantic rules.
pub(crate) struct Manifests {
    pub(crate) hotpaths: manifest::Hotpaths,
    pub(crate) ledger: manifest::UnsafeLedger,
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("hdx-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    if opts.self_test {
        return selftest::run();
    }

    let root = match workspace_root(opts.root.as_deref()) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("hdx-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    if opts.sanitize {
        return ExitCode::from(sanitize::run(&root, opts.strict) as u8);
    }

    let manifests = match load_manifests(&root) {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("hdx-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    let files = collect_sources(&root);
    let mut violations = Vec::new();
    let mut scanned = Vec::with_capacity(files.len());
    for file in &files {
        let Ok(src) = fs::read_to_string(file) else {
            eprintln!("hdx-lint: warning: cannot read {}", file.display());
            continue;
        };
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        check_file(&rel, &src, &manifests, &mut violations);
        scanned.push(rel);
    }
    semantic::rule_hot_path_files_exist(
        &manifests.hotpaths,
        &scanned,
        HOTPATHS_TOML,
        &mut violations,
    );
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    let report = match opts.format {
        Format::Sarif => sarif::render(&violations),
        _ => render_report(&violations, files.len()),
    };
    if let Some(path) = &opts.output {
        if let Err(e) = fs::write(path, &report) {
            eprintln!("hdx-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    match opts.format {
        Format::Json | Format::Sarif => println!("{report}"),
        Format::Text => print_text(&violations, files.len()),
    }

    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        format: Format::Text,
        output: None,
        root: None,
        self_test: false,
        sanitize: false,
        strict: false,
    };
    let mut args = std::env::args().skip(1).peekable();
    // Accept a leading subcommand: `lint` (the default, so `cargo xtask
    // lint` works) or `sanitize` (the dynamic harness, `cargo xtask
    // sanitize`).
    match args.peek().map(String::as_str) {
        Some("lint") => {
            args.next();
        }
        Some("sanitize") => {
            opts.sanitize = true;
            args.next();
        }
        _ => {}
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => {
                let v = args.next().ok_or("--format requires a value")?;
                opts.format = match v.as_str() {
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    "text" => Format::Text,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--output" => {
                opts.output = Some(PathBuf::from(
                    args.next().ok_or("--output requires a path")?,
                ));
            }
            "--root" => {
                opts.root = Some(PathBuf::from(args.next().ok_or("--root requires a path")?));
            }
            "--strict" => opts.strict = true,
            "--self-test" => opts.self_test = true,
            "--help" | "-h" => {
                return Err(
                    "usage: hdx-lint [lint|sanitize] [--format text|json|sarif] \
                     [--output <path>] [--root <dir>] [--strict] [--self-test]"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Loads the two semantic-rule manifests relative to the workspace root.
fn load_manifests(root: &Path) -> Result<Manifests, String> {
    Ok(Manifests {
        hotpaths: manifest::load_hotpaths(&root.join(HOTPATHS_TOML))?,
        ledger: manifest::load_unsafe_ledger(&root.join("UNSAFE_LEDGER.md"))?,
    })
}

/// Locates the workspace root: an explicit `--root`, else the grandparent of
/// this crate's manifest dir (compiled in), else the current directory —
/// whichever contains a `Cargo.toml` with a `[workspace]` table.
fn workspace_root(explicit: Option<&Path>) -> Result<PathBuf, String> {
    let mut candidates: Vec<PathBuf> = Vec::new();
    if let Some(p) = explicit {
        candidates.push(p.to_path_buf());
    }
    let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    if let Some(p) = manifest_dir.parent().and_then(Path::parent) {
        candidates.push(p.to_path_buf());
    }
    if let Ok(cwd) = std::env::current_dir() {
        let mut dir = Some(cwd);
        while let Some(d) = dir {
            candidates.push(d.clone());
            dir = d.parent().map(Path::to_path_buf);
        }
    }
    for c in candidates {
        let manifest = c.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(c);
            }
        }
    }
    Err("cannot locate workspace root (pass --root)".to_string())
}

/// All `.rs` files under `crates/*/src` and the facade `src/`, sorted.
fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            if src.is_dir() {
                walk_rs(&src, &mut files);
            }
        }
    }
    let facade = root.join("src");
    if facade.is_dir() {
        walk_rs(&facade, &mut files);
    }
    files.sort();
    files
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Runs every rule over one file.
pub(crate) fn check_file(rel: &str, src: &str, manifests: &Manifests, out: &mut Vec<Violation>) {
    let (toks, comments) = lexer::lex_with_comments(src);
    let mask = rules::test_mask(&toks);

    rules::rule_no_float_eq(&toks, &mask, rel, out);

    let comment_index = semantic::CommentIndex::new(&comments);
    let tree = ast::parse(&toks);
    semantic::rule_unsafe_audit(&tree, &mask, &comment_index, &manifests.ledger, rel, out);
    semantic::rule_atomics_ordering(&toks, &mask, &comment_index, rel, out);
    if let Some(hotpath) = manifests.hotpaths.for_file(rel) {
        semantic::rule_no_alloc_hot_path(&toks, &tree, &mask, &comment_index, hotpath, rel, out);
        semantic::rule_hot_path_pins_resolve(&tree, hotpath, HOTPATHS_TOML, out);
        if hotpath.panic_free {
            semantic::rule_no_panic_path(&toks, &mask, &comment_index, rel, out);
        }
    }
}

/// Renders the machine-readable JSON report (hand-rolled: the linter is
/// deliberately dependency-free so it builds before the workspace does).
pub(crate) fn render_report(reported: &[Violation], files_scanned: usize) -> String {
    let mut out = String::from("{\n  \"tool\": \"hdx-lint\",\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!("  \"ok\": {},\n", reported.is_empty()));
    out.push_str("  \"violations\": [");
    for (i, v) in reported.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            sarif::escape(v.rule),
            sarif::escape(&v.file),
            v.line,
            sarif::escape(&v.message)
        ));
    }
    if !reported.is_empty() {
        out.push('\n');
        out.push_str("  ");
    }
    out.push_str("]\n}\n");
    out
}

fn print_text(reported: &[Violation], files_scanned: usize) {
    for v in reported {
        println!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
    }
    println!(
        "hdx-lint: {} file(s) scanned, {} violation(s)",
        files_scanned,
        reported.len()
    );
}
