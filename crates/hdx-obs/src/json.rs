//! The workspace's one dependency-free JSON codec: [`escape_into`] for every
//! writer (the telemetry artifact, hdx-core's report export, hdx-serve's
//! responses and event journal), directly or through its [`escape`]
//! wrapper; beside it [`number_into`], the shortest round-trip `f64` writer
//! of hdx-core's report and tree export, which writes exactly std's
//! `Display` text (halfway cuts rounded up, never an exponent); and
//! [`parse`] for every reader (telemetry
//! round trips and the CI `validate-telemetry` gate, hdx-serve's job
//! submissions through its flat-object rule, the tests). Only hdx-lint keeps
//! a reader of its own, because it must build while the rest of the
//! workspace is broken (DESIGN.md §8.1).
//!
//! The parser takes untrusted request bodies, so it is linear-time (string
//! contents are copied a run at a time, up to the next quote or escape) and
//! depth-capped: nesting deeper than 128 arrays and objects is an error, not
//! a recursion that could overflow the stack. It is strict where strictness
//! costs nothing: an escaped surrogate pair decodes to one scalar and a lone
//! surrogate is an error, and a number must start with `-` or a digit.
//!
//! Numbers are kept as their raw source text ([`Json::Num`]) so integer
//! telemetry values survive the round trip exactly, without float
//! conversion.
//!
//! [`escape_into`]: crate::json::escape_into
//! [`number_into`]: crate::json::number_into
//! [`escape`]: crate::json::escape
//! [`parse`]: crate::json::parse
//! [`Json::Num`]: crate::json::Json::Num

mod number;

pub use number::number_into;

/// A parsed JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as raw text for lossless integer round trips.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, when it is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `f64`, when it is a number with a finite `f64` value
    /// (`1e999` overflows to infinity and yields `None`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok().filter(|x: &f64| x.is_finite()),
            _ => None,
        }
    }

    /// The value as `bool`, when it is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, when it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object members, when it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Escapes `s` as the *contents* of a JSON string literal (RFC 8259).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// The escape of each control character U+0000–U+001F: `\n`, `\r` and `\t`
/// by name, every other one as `\u00XX`.
#[rustfmt::skip]
const CONTROL_ESCAPES: [&str; 0x20] = [
    "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
    "\\u0008", "\\t",     "\\n",     "\\u000b", "\\u000c", "\\r",     "\\u000e", "\\u000f",
    "\\u0010", "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017",
    "\\u0018", "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
];

/// Appends `s` to `out`, escaped as the *contents* of a JSON string literal
/// (RFC 8259): the text between escapes is copied a run at a time.
pub fn escape_into(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(at) = rest
        .bytes()
        .position(|b| b < 0x20 || b == b'"' || b == b'\\')
    {
        // Every byte that needs an escape is ASCII, so `at` and `at + 1`
        // are char boundaries.
        let (run, tail) = rest.split_at(at);
        out.push_str(run);
        let byte = tail.as_bytes().first().copied().unwrap_or_default();
        out.push_str(match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            control => CONTROL_ESCAPES
                .get(usize::from(control))
                .copied()
                .unwrap_or_default(),
        });
        rest = tail.get(1..).unwrap_or_default();
    }
    out.push_str(rest);
}

/// The deepest array/object nesting [`parse`] accepts. Every document the
/// workspace writes or reads is single-digit deep; the cap keeps a body of
/// a million `[` an error instead of a stack overflow.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (surrounding whitespace allowed).
///
/// # Errors
/// A message naming the first problem and its byte offset, including
/// nesting deeper than 128 arrays and objects.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Open arrays and objects around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn require(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    /// Runs `container` one nesting level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, literal: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        // Only ASCII was consumed, so both ends are char boundaries.
        let raw = &self.text[start..self.pos];
        // Validate by parsing as f64; keep the raw text for exactness.
        raw.parse::<f64>()
            .map_err(|_| format!("invalid number `{raw}` at byte {start}"))?;
        Ok(Json::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.require(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one step.
            // Both are ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let escape = self.peek().ok_or("unterminated string")?;
            self.pos += 1;
            match escape {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => out.push(self.unicode_escape()?),
                _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
            }
        }
    }

    /// The scalar of a `\u` escape whose `\u` was just consumed: one BMP
    /// code unit, or a high surrogate followed by an escaped low surrogate.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let unit = self.hex4()?;
        let code = match unit {
            0xd800..=0xdbff => {
                if !self.bytes[self.pos..].starts_with(b"\\u") {
                    return Err(format!("lone high surrogate at byte {at}"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xdc00..=0xdfff).contains(&low) {
                    return Err(format!("invalid low surrogate at byte {at}"));
                }
                0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
            }
            0xdc00..=0xdfff => return Err(format!("lone low surrogate at byte {at}")),
            unit => unit,
        };
        char::from_u32(code).ok_or_else(|| format!("bad \\u escape at byte {at}"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.require(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.require(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.require(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Num("42".into()));
        assert_eq!(parse("-1.5e3").unwrap(), Json::Num("-1.5e3".into()));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"a": [1, {"b": null}], "c": "x", "d": {}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b"), Some(&Json::Null));
        assert_eq!(v.get("d").and_then(Json::as_obj), Some(&[][..]));
    }

    #[test]
    fn u64_values_round_trip_exactly() {
        let big = u64::MAX;
        let v = parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
    }

    #[test]
    fn typed_accessors_reject_other_kinds() {
        assert_eq!(parse("0.1").unwrap().as_f64(), Some(0.1));
        assert_eq!(parse("-3").unwrap().as_f64(), Some(-3.0));
        assert_eq!(parse("1e999").unwrap().as_f64(), None, "not finite");
        assert_eq!(parse("\"1\"").unwrap().as_f64(), None);
        assert_eq!(parse("true").unwrap().as_bool(), Some(true));
        assert_eq!(parse("null").unwrap().as_bool(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "[1,]",
            "tru",
            "{\"a\":nul}",
            "1 2",
            "{\"a\":1} extra",
            "\"\\q\"",
            "\"\\u12g4\"",
            "\"\\u+123\"",
            "\"open",
            "{1:2}",
            "+1",
            ".5",
            "1e",
            "-",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        assert!(parse("1 2").unwrap_err().contains("trailing"));
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_fail() {
        assert_eq!(
            parse(r#""q\"\\\n\t\u00e9\ud83d\ude00""#).unwrap(),
            Json::Str("q\"\\\n\té😀".into())
        );
        assert_eq!(
            parse(r#""\uD83D\uDE00""#).unwrap(),
            Json::Str("\u{1F600}".into())
        );
        for bad in [
            r#""\ud800x""#,
            r#""\ud800""#,
            r#""\ud800\u0041""#,
            r#""\ude00""#,
            r#""\ud83d\ud83d""#,
        ] {
            assert!(parse(bad).unwrap_err().contains("surrogate"), "{bad}");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).unwrap_err().contains("nesting"));
        // A quarter of hdx-serve's default body cap: an error, not an abort.
        assert!(parse(&"[".repeat(1 << 20)).unwrap_err().contains("nesting"));
    }

    #[test]
    fn a_4_mib_string_parses_in_linear_time() {
        // 4 MiB of CSV text with an escaped newline every fifth byte.
        let value = "a,b\\n1,2\\n".repeat((4 << 20) / 10);
        let doc = format!("{{\"csv\":\"{value}\"}}");
        let start = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        let elapsed = start.elapsed();
        let csv = parsed.get("csv").and_then(Json::as_str).unwrap();
        assert_eq!(csv.len(), value.len() - value.matches("\\n").count());
        assert!(elapsed.as_secs() < 5, "4 MiB string took {elapsed:?}");
    }

    #[test]
    fn escape_handles_specials_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\r"), "\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
        // And the parser inverts it.
        let original = "quote\" back\\ nl\n tab\t ctl\u{2} done";
        let doc = format!("\"{}\"", escape(original));
        assert_eq!(parse(&doc).unwrap(), Json::Str(original.into()));
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(obj[0].0, "z");
        assert_eq!(obj[1].0, "a");
    }

    /// Characters weighted toward the ones the codec treats specially.
    fn any_char() -> impl Strategy<Value = char> {
        prop_oneof![
            Just('"'),
            Just('\\'),
            Just('/'),
            (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
            (0x20u32..0x80).prop_map(|c| char::from_u32(c).unwrap()),
            (0x80u32..0xd800).prop_map(|c| char::from_u32(c).unwrap()),
            (0xe000u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap()),
        ]
    }

    /// Fragments that steer random input toward the parser's edge cases.
    fn fragment() -> impl Strategy<Value = String> {
        prop_oneof![
            any_char().prop_map(String::from),
            prop_oneof![
                Just("{"),
                Just("}"),
                Just("["),
                Just("]"),
                Just(":"),
                Just(","),
                Just("\""),
                Just("\\u"),
                Just("\\ud83d"),
                Just("\\ude00"),
                Just("d800"),
                Just("-1.5e3"),
                Just("null"),
                Just("tru"),
                Just(" "),
            ]
            .prop_map(String::from),
        ]
    }

    /// The char-by-char escaper `escape_into` replaced, kept as its oracle.
    fn escape_by_char(s: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    }

    #[test]
    fn escape_into_matches_the_char_by_char_escaper_on_every_control() {
        let all: String = (0u32..0x80).filter_map(char::from_u32).collect();
        let mut out = String::from("kept ");
        escape_into(&mut out, &all);
        assert_eq!(out, format!("kept {}", escape_by_char(&all)));
    }

    proptest! {
        #[test]
        fn escape_into_appends_what_the_char_by_char_escaper_writes(
            prefix in proptest::collection::vec(any_char(), 0..8),
            chars in proptest::collection::vec(any_char(), 0..48),
        ) {
            let prefix: String = prefix.into_iter().collect();
            let s: String = chars.into_iter().collect();
            let mut out = prefix.clone();
            escape_into(&mut out, &s);
            prop_assert_eq!(out, format!("{prefix}{}", escape_by_char(&s)));
            prop_assert_eq!(escape(&s), escape_by_char(&s));
        }

        #[test]
        fn escape_then_parse_is_the_identity(chars in proptest::collection::vec(any_char(), 0..48)) {
            let s: String = chars.into_iter().collect();
            prop_assert_eq!(parse(&format!("\"{}\"", escape(&s))), Ok(Json::Str(s)));
        }

        #[test]
        fn arbitrary_input_never_panics(parts in proptest::collection::vec(fragment(), 0..64)) {
            let input: String = parts.concat();
            let _ = parse(&input);
        }
    }
}
