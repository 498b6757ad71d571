//! SARIF 2.1.0 output.
//!
//! Renders the violation list as a minimal-but-valid SARIF log so editors
//! and code-scanning services can ingest `cargo lint` results directly
//! (`cargo lint --format sarif`). Only the fields consumers actually read
//! are emitted: one run, the tool driver with its rule table, and one
//! result per violation with a physical location.
//!
//! The module also carries the crate's JSON string escaper ([`escape`],
//! shared with the `--format json` report) and a tiny JSON reader
//! ([`parse`]) used by the self-test to round-trip the SARIF output and
//! check it agrees 1:1 with the JSON report — hand-rolled, like everything
//! in this crate, because the linter must build with zero dependencies
//! (the workspace's shared codec lives in `hdx-obs`, which it cannot use).

use crate::rules::{Violation, RULES};

/// Short rule descriptions for the SARIF rule table, indexed as [`RULES`].
const RULE_DESCRIPTIONS: &[&str] = &[
    "No `.unwrap()`/`.expect()`/`panic!` in library crates outside tests",
    "No `==`/`!=` against floating-point literals",
    "Every public item in a library crate has a doc comment",
    "No `std::process::exit` outside hdx-cli",
    "Every `unsafe` has a `// SAFETY:` comment and an UNSAFE_LEDGER.md row",
    "Every `Ordering::Relaxed` has an `// ORDERING:` justification",
    "Hot-path functions (hotpaths.toml) do not allocate",
    "Panic-free kernel modules avoid unchecked indexing and panics",
    "Per-crate doc coverage stays at or above the doc_ratchet.toml floor",
];

/// Renders violations as a SARIF 2.1.0 log.
pub fn render(violations: &[Violation]) -> String {
    assert_eq!(RULES.len(), RULE_DESCRIPTIONS.len());
    let mut s = String::with_capacity(4096);
    s.push_str("{\n  \"version\": \"2.1.0\",\n");
    s.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    s.push_str("  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n");
    s.push_str("          \"name\": \"hdx-lint\",\n");
    s.push_str("          \"informationUri\": \"https://github.com/h-divexplorer\",\n");
    s.push_str("          \"rules\": [\n");
    for (k, (rule, desc)) in RULES.iter().zip(RULE_DESCRIPTIONS).enumerate() {
        s.push_str("            {\"id\": \"");
        s.push_str(rule);
        s.push_str("\", \"shortDescription\": {\"text\": \"");
        s.push_str(&escape(desc));
        s.push_str("\"}}");
        if k + 1 < RULES.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("          ]\n        }\n      },\n      \"results\": [\n");
    for (k, v) in violations.iter().enumerate() {
        s.push_str("        {\"ruleId\": \"");
        s.push_str(v.rule);
        s.push_str("\", \"level\": \"error\", \"message\": {\"text\": \"");
        s.push_str(&escape(&v.message));
        s.push_str("\"}, \"locations\": [{\"physicalLocation\": ");
        s.push_str("{\"artifactLocation\": {\"uri\": \"");
        s.push_str(&escape(&v.file));
        s.push_str("\"}, \"region\": {\"startLine\": ");
        s.push_str(&v.line.to_string());
        s.push_str("}}}]}");
        if k + 1 < violations.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("      ]\n    }\n  ]\n}\n");
    s
}

/// Escapes `s` as the contents of a JSON string literal, for both the SARIF
/// log and the `--format json` report.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value (self-test only).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses a JSON document. Errors carry a byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let chars: Vec<char> = text.chars().collect();
    let mut pos = 0usize;
    let value = parse_value(&chars, &mut pos)?;
    skip_ws(&chars, &mut pos);
    if pos != chars.len() {
        return Err(format!("trailing content at {pos}"));
    }
    Ok(value)
}

fn skip_ws(chars: &[char], pos: &mut usize) {
    while *pos < chars.len() && chars[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn parse_value(chars: &[char], pos: &mut usize) -> Result<Json, String> {
    skip_ws(chars, pos);
    match chars.get(*pos) {
        Some('{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(chars, pos);
            if chars.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(Json::Object(members));
            }
            loop {
                skip_ws(chars, pos);
                let key = parse_string(chars, pos)?;
                skip_ws(chars, pos);
                if chars.get(*pos) != Some(&':') {
                    return Err(format!("expected `:` at {pos}"));
                }
                *pos += 1;
                let value = parse_value(chars, pos)?;
                members.push((key, value));
                skip_ws(chars, pos);
                match chars.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Ok(Json::Object(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at {pos}")),
                }
            }
        }
        Some('[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(chars, pos);
            if chars.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(chars, pos)?);
                skip_ws(chars, pos);
                match chars.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at {pos}")),
                }
            }
        }
        Some('"') => Ok(Json::Str(parse_string(chars, pos)?)),
        Some('t') => keyword(chars, pos, "true", Json::Bool(true)),
        Some('f') => keyword(chars, pos, "false", Json::Bool(false)),
        Some('n') => keyword(chars, pos, "null", Json::Null),
        Some(c) if *c == '-' || c.is_ascii_digit() => {
            let start = *pos;
            *pos += 1;
            while *pos < chars.len()
                && matches!(chars[*pos], '0'..='9' | '.' | 'e' | 'E' | '+' | '-')
            {
                *pos += 1;
            }
            let text: String = chars[start..*pos].iter().collect();
            text.parse()
                .map(Json::Num)
                .map_err(|_| format!("bad number `{text}` at {start}"))
        }
        _ => Err(format!("unexpected character at {pos}")),
    }
}

fn keyword(chars: &[char], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    let end = *pos + word.len();
    if end <= chars.len() && chars[*pos..end].iter().collect::<String>() == word {
        *pos = end;
        Ok(value)
    } else {
        Err(format!("bad keyword at {pos}"))
    }
}

fn parse_string(chars: &[char], pos: &mut usize) -> Result<String, String> {
    if chars.get(*pos) != Some(&'"') {
        return Err(format!("expected string at {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = chars.get(*pos) {
        *pos += 1;
        match c {
            '"' => return Ok(out),
            '\\' => {
                let esc = chars.get(*pos).copied().ok_or("eof in escape")?;
                *pos += 1;
                match esc {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let hex: String = chars
                            .get(*pos..*pos + 4)
                            .ok_or("eof in \\u escape")?
                            .iter()
                            .collect();
                        *pos += 4;
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape `\\{other}`")),
                }
            }
            c => out.push(c),
        }
    }
    Err("eof in string".to_string())
}
