//! `hdx-lint`: workspace static-analysis pass for the H-DivExplorer repo.
//!
//! Enforces the project's reliability rules over every workspace crate
//! (see `crates/hdx-lint/README.md` and the "Static analysis" section of
//! `DESIGN.md` §13). Three tiers:
//!
//! **Lexical rules** (token stream, [`rules`]):
//!
//! 1. `no-unwrap`   — no `.unwrap()` / `.expect()` / `panic!` in library
//!    crates outside `#[cfg(test)]`.
//! 2. `no-float-eq` — no `==` / `!=` against float literals; comparisons go
//!    through `hdx_stats::approx`.
//! 3. `missing-docs` — all `pub` items in library crates are documented.
//! 4. `no-exit`     — no `std::process::exit` outside `hdx-cli`.
//!
//! **Semantic rules** (item tree + comment side-channel + manifests,
//! [`semantic`]):
//!
//! 5. `unsafe-audit`      — `// SAFETY:` comment + `UNSAFE_LEDGER.md` row
//!    for every `unsafe`.
//! 6. `atomics-ordering`  — `// ORDERING:` justification for every
//!    `Ordering::Relaxed`.
//! 7. `no-alloc-hot-path` — functions in `crates/hdx-lint/hotpaths.toml`
//!    do not allocate.
//! 8. `no-panic-path`     — `panic_free` files avoid unchecked indexing
//!    and panicking calls.
//! 9. `doc-coverage`      — per-crate coverage floors from
//!    `crates/hdx-lint/doc_ratchet.toml`.
//!
//! **Dynamic harness** (`cargo xtask sanitize`, [`sanitize`]): loom
//! interleaving models, Miri, ThreadSanitizer.
//!
//! Violations not covered by `crates/hdx-lint/allowlist.txt` fail the run
//! (exit code 1). `--format json|sarif` / `--output <path>` emit
//! machine-readable reports for CI and editors.
//!
//! Usage: `cargo lint` / `cargo xtask lint` / `cargo xtask sanitize` /
//! `cargo run -p hdx-lint --` with optional flags
//! `[--format text|json|sarif] [--output <path>] [--allowlist <path>]
//! [--root <dir>] [--strict] [--self-test]`.

mod ast;
mod lexer;
mod manifest;
mod rules;
mod sanitize;
mod sarif;
mod selftest;
mod semantic;

use rules::Violation;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Library crates subject to rules 1–3. Binary/tooling crates (`hdx-cli`,
/// `hdx-bench`, `hdx-lint` itself) and the facade crate are exempt from
/// those but still checked for rule 4 and all semantic rules.
const LIB_CRATES: &[&str] = &[
    "hdx-core",
    "hdx-checkpoint",
    "hdx-obs",
    "hdx-governor",
    "hdx-mining",
    "hdx-items",
    "hdx-stats",
    "hdx-discretize",
    "hdx-data",
    "hdx-serve",
    "hdx-ingest",
];

/// One allowlist entry: `rule path [max=N]`.
#[derive(Debug)]
struct AllowEntry {
    rule: String,
    path: String,
    /// `None` allows any count in the file; `Some(n)` caps it (a ratchet:
    /// lower the cap as violations are burned down).
    max: Option<usize>,
    used: bool,
}

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
    allowlist: Option<PathBuf>,
    root: Option<PathBuf>,
    self_test: bool,
    sanitize: bool,
    strict: bool,
}

/// The loaded manifests driving the semantic rules.
pub(crate) struct Manifests {
    pub(crate) hotpaths: manifest::Hotpaths,
    pub(crate) ledger: manifest::UnsafeLedger,
    pub(crate) ratchet: manifest::DocRatchet,
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

    let allowlist_path = opts
        .allowlist
        .clone()
        .unwrap_or_else(|| root.join("crates/hdx-lint/allowlist.txt"));
    let mut allowlist = match load_allowlist(&allowlist_path) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("hdx-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    let manifests = match load_manifests(&root) {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("hdx-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    let files = collect_sources(&root);
    let mut violations = Vec::new();
    let mut doc_counts: BTreeMap<String, semantic::DocCounts> = BTreeMap::new();
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
        check_file(&rel, &src, &manifests, &mut doc_counts, &mut violations);
    }
    semantic::rule_doc_coverage(
        &doc_counts,
        &manifests.ratchet,
        "crates/hdx-lint/doc_ratchet.toml",
        &mut violations,
    );

    let (reported, allowlisted) = apply_allowlist(violations, &mut allowlist);

    let report = match opts.format {
        Format::Sarif => sarif::render(&reported),
        _ => render_report(&reported, allowlisted, files.len(), allowlist.len()),
    };
    if let Some(path) = &opts.output {
        if let Err(e) = fs::write(path, &report) {
            eprintln!("hdx-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    match opts.format {
        Format::Json | Format::Sarif => println!("{report}"),
        Format::Text => print_text(&reported, allowlisted, files.len(), &allowlist),
    }

    if reported.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        format: Format::Text,
        output: None,
        allowlist: None,
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
            "--allowlist" => {
                opts.allowlist = Some(PathBuf::from(
                    args.next().ok_or("--allowlist requires a path")?,
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
                     [--output <path>] [--allowlist <path>] [--root <dir>] \
                     [--strict] [--self-test]"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Loads the three semantic-rule manifests relative to the workspace root.
fn load_manifests(root: &Path) -> Result<Manifests, String> {
    Ok(Manifests {
        hotpaths: manifest::load_hotpaths(&root.join("crates/hdx-lint/hotpaths.toml"))?,
        ledger: manifest::load_unsafe_ledger(&root.join("UNSAFE_LEDGER.md"))?,
        ratchet: manifest::load_doc_ratchet(&root.join("crates/hdx-lint/doc_ratchet.toml"))?,
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

/// The crate a workspace-relative path belongs to (`crates/<name>/...`),
/// or `"."` for the facade crate.
fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or(".")
}

/// Runs every applicable rule over one file. Doc-coverage is only tallied
/// here (per crate); the ratchet comparison happens once after all files.
pub(crate) fn check_file(
    rel: &str,
    src: &str,
    manifests: &Manifests,
    doc_counts: &mut BTreeMap<String, semantic::DocCounts>,
    out: &mut Vec<Violation>,
) {
    let krate = crate_of(rel);
    let is_lib = LIB_CRATES.contains(&krate);
    let exit_exempt = krate == "hdx-cli";

    let (toks, comments) = lexer::lex_with_comments(src);
    let mask = rules::test_mask(&toks);

    // Lexical rules.
    if is_lib {
        rules::rule_no_unwrap(&toks, &mask, rel, out);
        rules::rule_no_float_eq(&toks, &mask, rel, out);
        rules::rule_missing_docs(&toks, &mask, rel, out);
    }
    if !exit_exempt {
        rules::rule_no_exit(&toks, &mask, rel, out);
    }

    // Semantic rules (all crates, tooling included).
    let comment_index = semantic::CommentIndex::new(&comments);
    let tree = ast::parse(&toks);
    semantic::rule_unsafe_audit(&tree, &mask, &comment_index, &manifests.ledger, rel, out);
    semantic::rule_atomics_ordering(&toks, &mask, &comment_index, rel, out);
    if let Some(hotpath) = manifests.hotpaths.for_file(rel) {
        semantic::rule_no_alloc_hot_path(&toks, &tree, &mask, &comment_index, hotpath, rel, out);
        if hotpath.panic_free {
            semantic::rule_no_panic_path(&toks, &mask, &comment_index, rel, out);
        }
    }
    semantic::tally_doc_coverage(
        &toks,
        &mask,
        doc_counts.entry(krate.to_string()).or_default(),
    );
}

fn load_allowlist(path: &Path) -> Result<Vec<AllowEntry>, String> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let mut entries = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(rule), Some(path)) = (parts.next(), parts.next()) else {
            return Err(format!(
                "allowlist line {}: expected `rule path [max=N]`",
                lineno + 1
            ));
        };
        if !rules::RULES.contains(&rule) {
            return Err(format!(
                "allowlist line {}: unknown rule `{rule}`",
                lineno + 1
            ));
        }
        let mut max = None;
        if let Some(extra) = parts.next() {
            let Some(n) = extra.strip_prefix("max=").and_then(|v| v.parse().ok()) else {
                return Err(format!(
                    "allowlist line {}: expected `max=N`, got `{extra}`",
                    lineno + 1
                ));
            };
            max = Some(n);
        }
        entries.push(AllowEntry {
            rule: rule.to_string(),
            path: path.to_string(),
            max,
            used: false,
        });
    }
    Ok(entries)
}

/// Splits violations into (reported, allowlisted-count). A `max=N` entry
/// suppresses up to `N` violations of its rule in its file; beyond the cap
/// *all* of them are reported (the ratchet tripped).
fn apply_allowlist(
    violations: Vec<Violation>,
    allowlist: &mut [AllowEntry],
) -> (Vec<Violation>, usize) {
    let mut grouped: BTreeMap<(String, String), Vec<Violation>> = BTreeMap::new();
    for v in violations {
        grouped
            .entry((v.rule.to_string(), v.file.clone()))
            .or_default()
            .push(v);
    }
    let mut reported = Vec::new();
    let mut allowed = 0usize;
    for ((rule, file), group) in grouped {
        let entry = allowlist
            .iter_mut()
            .find(|e| e.rule == rule && e.path == file);
        match entry {
            Some(e) => {
                e.used = true;
                match e.max {
                    Some(cap) if group.len() > cap => {
                        let found = group.len();
                        for mut v in group {
                            v.message = format!(
                                "{} [allowlist cap max={cap} exceeded: {found} in file]",
                                v.message
                            );
                            reported.push(v);
                        }
                    }
                    _ => allowed += group.len(),
                }
            }
            None => reported.extend(group),
        }
    }
    reported.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    (reported, allowed)
}

/// Renders the machine-readable JSON report (hand-rolled: the linter is
/// deliberately dependency-free so it builds before the workspace does).
pub(crate) fn render_report(
    reported: &[Violation],
    allowlisted: usize,
    files_scanned: usize,
    allowlist_entries: usize,
) -> String {
    let mut out = String::from("{\n  \"tool\": \"hdx-lint\",\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!("  \"allowlisted\": {allowlisted},\n"));
    out.push_str(&format!("  \"allowlist_entries\": {allowlist_entries},\n"));
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

fn print_text(
    reported: &[Violation],
    allowlisted: usize,
    files_scanned: usize,
    allowlist: &[AllowEntry],
) {
    for v in reported {
        println!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
    }
    for e in allowlist.iter().filter(|e| !e.used) {
        println!(
            "note: unused allowlist entry `{} {}` (can be removed)",
            e.rule, e.path
        );
    }
    println!(
        "hdx-lint: {} file(s) scanned, {} violation(s), {} allowlisted",
        files_scanned,
        reported.len(),
        allowlisted
    );
}
