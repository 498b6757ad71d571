//! Checked-in manifests driving the semantic rules.
//!
//! Two small files configure where the strictest rules apply:
//!
//! * `crates/hdx-lint/hotpaths.toml` — the functions locked to the
//!   zero-allocation invariant (`no-alloc-hot-path`) and the files whose
//!   whole non-test body must be panic-free (`no-panic-path`).
//! * `UNSAFE_LEDGER.md` (workspace root) — the audit ledger every `unsafe`
//!   site must be registered in (`unsafe-audit`).
//!
//! The parsers are hand-rolled over a TOML/markdown subset, consistent with
//! the linter's no-dependency rule (it must build even when the workspace is
//! broken). Unknown keys are errors, not ignored — a typo in a manifest must
//! not silently disable a rule.

use std::fs;
use std::path::Path;

/// One `[[hotpath]]` entry.
#[derive(Debug, Clone, Default)]
pub struct Hotpath {
    /// Workspace-relative source file.
    pub file: String,
    /// Function names (bare, or `::`-qualified path suffixes) locked to the
    /// zero-allocation invariant.
    pub functions: Vec<String>,
    /// When true, the file's whole non-test body is checked by
    /// `no-panic-path` (unchecked indexing / `expect` / `panic!`).
    pub panic_free: bool,
    /// Manifest line of the entry's `[[hotpath]]` header, where a stale
    /// pin is reported.
    pub line: u32,
}

/// The parsed `hotpaths.toml`.
#[derive(Debug, Clone, Default)]
pub struct Hotpaths {
    /// All entries, in file order.
    pub entries: Vec<Hotpath>,
}

impl Hotpaths {
    /// The entry covering `file`, if any.
    pub fn for_file(&self, file: &str) -> Option<&Hotpath> {
        self.entries.iter().find(|e| e.file == file)
    }
}

/// Parses `hotpaths.toml` text. Accepts the subset:
/// `[[hotpath]]` headers, `key = "string"`, `key = true|false`, and
/// `key = [ "a", "b" ]` arrays (single- or multi-line).
pub fn parse_hotpaths(text: &str) -> Result<Hotpaths, String> {
    let mut entries: Vec<Hotpath> = Vec::new();
    for (key, value, lineno) in toml_subset_items(text, "hotpath")? {
        if key.is_empty() {
            entries.push(Hotpath {
                line: lineno,
                ..Hotpath::default()
            });
            continue;
        }
        let Some(entry) = entries.last_mut() else {
            return Err(format!(
                "hotpaths.toml line {lineno}: key `{key}` before any [[hotpath]] header"
            ));
        };
        match (key.as_str(), value) {
            ("file", TomlValue::Str(s)) => entry.file = s,
            ("functions", TomlValue::Array(a)) => entry.functions = a,
            ("panic_free", TomlValue::Bool(b)) => entry.panic_free = b,
            (k, v) => {
                return Err(format!(
                    "hotpaths.toml line {lineno}: unexpected `{k}` = {v:?}"
                ))
            }
        }
    }
    for (i, e) in entries.iter().enumerate() {
        if e.file.is_empty() {
            return Err("hotpaths.toml: [[hotpath]] entry without `file`".to_string());
        }
        // `Hotpaths::for_file` returns the first entry for a file, so a
        // second one would never be checked.
        if let Some(first) = entries.iter().take(i).find(|f| f.file == e.file) {
            return Err(format!(
                "hotpaths.toml line {}: duplicate entry for `{}` (first at line {})",
                e.line, e.file, first.line
            ));
        }
    }
    Ok(Hotpaths { entries })
}

/// Loads and parses `hotpaths.toml`; a missing file is an empty manifest.
pub fn load_hotpaths(path: &Path) -> Result<Hotpaths, String> {
    match fs::read_to_string(path) {
        Ok(t) => parse_hotpaths(&t),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Hotpaths::default()),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

/// The parsed `UNSAFE_LEDGER.md`: the set of files with at least one
/// registered `unsafe` site.
#[derive(Debug, Clone, Default)]
pub struct UnsafeLedger {
    /// Workspace-relative file paths appearing in ledger rows.
    pub files: Vec<String>,
}

impl UnsafeLedger {
    /// Whether `file` has a ledger entry.
    pub fn covers(&self, file: &str) -> bool {
        self.files.iter().any(|f| f == file)
    }
}

/// Parses the ledger: markdown-table rows whose first cell is a source path
/// (`| crates/x/src/y.rs | ... |`). Header/separator rows are skipped.
pub fn parse_unsafe_ledger(text: &str) -> UnsafeLedger {
    let mut files = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix('|') else {
            continue;
        };
        let first_cell = rest.split('|').next().unwrap_or("").trim();
        if first_cell.ends_with(".rs") {
            files.push(first_cell.to_string());
        }
    }
    UnsafeLedger { files }
}

/// Loads and parses `UNSAFE_LEDGER.md`; a missing ledger is empty.
pub fn load_unsafe_ledger(path: &Path) -> Result<UnsafeLedger, String> {
    match fs::read_to_string(path) {
        Ok(t) => Ok(parse_unsafe_ledger(&t)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(UnsafeLedger::default()),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

/// A value in the TOML subset.
#[derive(Debug)]
enum TomlValue {
    Str(String),
    Bool(bool),
    Array(Vec<String>),
    /// Marker yielded for an `[[array-of-tables]]` header (key is empty).
    Header,
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Streams `(key, value, lineno)` items from a TOML subset with
/// `[[header]]` array-of-table markers (yielded as empty-key
/// [`TomlValue::Header`] items). Multi-line arrays are joined.
fn toml_subset_items(text: &str, header: &str) -> Result<Vec<(String, TomlValue, u32)>, String> {
    let mut items = Vec::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let lineno = (idx + 1) as u32;
        let line = strip_toml_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line == format!("[[{header}]]") {
            items.push((String::new(), TomlValue::Header, lineno));
            continue;
        }
        if line.starts_with('[') {
            return Err(format!("line {lineno}: unexpected table header `{line}`"));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {lineno}: expected `key = value`"));
        };
        let key = key.trim().to_string();
        let mut value = value.trim().to_string();
        // Join multi-line arrays until brackets balance.
        while value.starts_with('[') && !value.ends_with(']') {
            let Some((_, cont)) = lines.next() else {
                return Err(format!("line {lineno}: unterminated array"));
            };
            value.push(' ');
            value.push_str(strip_toml_comment(cont).trim());
        }
        let parsed = if value == "true" {
            TomlValue::Bool(true)
        } else if value == "false" {
            TomlValue::Bool(false)
        } else if let Some(inner) = value.strip_prefix('[') {
            let inner = inner
                .strip_suffix(']')
                .ok_or_else(|| format!("line {lineno}: unterminated array"))?;
            let mut elems = Vec::new();
            for piece in inner.split(',') {
                let piece = piece.trim();
                if piece.is_empty() {
                    continue;
                }
                let s = piece
                    .strip_prefix('"')
                    .and_then(|p| p.strip_suffix('"'))
                    .ok_or_else(|| {
                        format!("line {lineno}: array element `{piece}` is not a string")
                    })?;
                elems.push(s.to_string());
            }
            TomlValue::Array(elems)
        } else if let Some(s) = value.strip_prefix('"').and_then(|p| p.strip_suffix('"')) {
            TomlValue::Str(s.to_string())
        } else {
            return Err(format!("line {lineno}: unsupported value `{value}`"));
        };
        items.push((key, parsed, lineno));
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_second_entry_for_a_file_is_rejected_at_its_line() {
        let manifest = "\
[[hotpath]]
file = \"crates/a/src/x.rs\"
functions = [\"f\"]

[[hotpath]]
file = \"crates/a/src/y.rs\"

[[hotpath]]
file = \"crates/a/src/x.rs\"
panic_free = true
";
        let err = parse_hotpaths(manifest).unwrap_err();
        assert_eq!(
            err,
            "hotpaths.toml line 8: duplicate entry for `crates/a/src/x.rs` (first at line 1)"
        );
        // Without the duplicate the same entries parse.
        let distinct = manifest.replacen("x.rs\"\npanic_free", "z.rs\"\npanic_free", 1);
        let hotpaths = parse_hotpaths(&distinct).unwrap();
        assert_eq!(hotpaths.entries.len(), 3);
        assert!(hotpaths.for_file("crates/a/src/z.rs").unwrap().panic_free);
    }
}
