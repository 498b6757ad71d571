//! Prometheus text-format 0.0.4 exposition for the typed registry.
//!
//! Like [`crate::telemetry`], this is artifact-layer code: always compiled,
//! no features required, consumable by a scraper whether or not the process
//! recorded anything. [`Exposition`] is a small builder that renders one
//! scrape page; [`render_registry`] maps a [`RunTelemetry`] onto it
//! (counters as `<name>_total`, gauges verbatim, histograms as cumulative
//! `_bucket`/`_sum`/`_count` families with exact `le` edges for the log₂
//! buckets); and [`check_grammar`] is a hand-rolled validator for the
//! exposition grammar, used both as this module's self-test (the same
//! pattern as hdx-lint's SARIF round-trip) and by the CI serve-smoke job
//! via `hdx validate-metrics`.
//!
//! Metric names translate from the registry's dotted convention by
//! replacing every non-alphanumeric byte with `_`:
//! `hdx.mining.itemsets.emitted` → `hdx_mining_itemsets_emitted_total`.
//!
//! [`Exposition`]: crate::expo::Exposition
//! [`render_registry`]: crate::expo::render_registry
//! [`check_grammar`]: crate::expo::check_grammar

use crate::metrics::{CounterId, GaugeId, HistId, HistStat};
use crate::telemetry::RunTelemetry;
use std::collections::HashMap;
use std::fmt::Write as _;

/// The `Content-Type` a 0.0.4 exposition endpoint must answer with.
pub const EXPOSITION_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Translates a dotted registry name into a Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): non-alphanumeric bytes become `_`, and a
/// leading digit is prefixed with `_`.
pub fn metric_name(dotted: &str) -> String {
    let mut out = String::with_capacity(dotted.len() + 1);
    for (i, c) in dotted.chars().enumerate() {
        if c.is_ascii_alphanumeric() {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a `# HELP` text: backslashes and line feeds only (0.0.4 rules).
fn escape_help(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value: backslash, double quote, and line feed.
fn escape_label(text: &str) -> String {
    text.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Builder for one scrape page. Families render in call order; each call
/// emits the family's `# HELP`/`# TYPE` header followed by its samples, so
/// the output is grouped the way the grammar requires by construction.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

impl Exposition {
    /// An empty page.
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.out, "# HELP {name} {}", escape_help(help));
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// One counter family (`<name>` should already carry the `_total`
    /// suffix per Prometheus convention).
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, "counter", help);
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// One unlabeled gauge. Values render via `f64`'s shortest form, so
    /// integral gauges stay integral (`2`, not `2.0`).
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, "gauge", help);
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// One gauge family with a single label dimension, one sample per
    /// `(label value, sample value)` pair.
    pub fn labeled_gauge(
        &mut self,
        name: &str,
        help: &str,
        label: &str,
        samples: &[(String, f64)],
    ) {
        self.header(name, "gauge", help);
        for (value, sample) in samples {
            let _ = writeln!(
                self.out,
                "{name}{{{label}=\"{}\"}} {sample}",
                escape_label(value)
            );
        }
    }

    /// One histogram family from an aggregated [`HistStat`]. Log₂ bucket
    /// `i` holds values with `bit_length == i`, i.e. `value <= 2^i - 1`
    /// cumulatively, so the `le` edges are exact for the integer samples
    /// the registry records.
    pub fn histogram(&mut self, name: &str, help: &str, h: &HistStat) {
        self.header(name, "histogram", help);
        let mut cumulative = 0u64;
        let last = h
            .buckets
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |i| i.min(62));
        for (i, &n) in h.buckets.iter().enumerate().take(last + 1) {
            cumulative += n;
            let le = (1u64 << i) - 1;
            let _ = writeln!(self.out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(self.out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(self.out, "{name}_sum {}", h.sum);
        let _ = writeln!(self.out, "{name}_count {}", h.count);
    }

    /// The finished page (always newline-terminated).
    pub fn finish(self) -> String {
        self.out
    }
}

/// Renders every registered metric of a [`RunTelemetry`] onto `page`:
/// counters (suffixed `_total`), gauges, and histograms, in registry order.
/// Spans and snapshots have no exposition mapping and are skipped.
pub fn render_registry(page: &mut Exposition, telemetry: &RunTelemetry) {
    for id in CounterId::ALL {
        let name = format!("{}_total", metric_name(id.name()));
        page.counter(&name, id.help(), telemetry.counter(id));
    }
    for id in GaugeId::ALL {
        page.gauge(
            &metric_name(id.name()),
            id.help(),
            telemetry.gauge(id) as f64,
        );
    }
    for id in HistId::ALL {
        let empty = HistStat::new();
        let h = telemetry.histogram(id).unwrap_or(&empty);
        page.histogram(&metric_name(id.name()), id.help(), h);
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Per-family state accumulated by [`check_grammar`].
#[derive(Debug, Default)]
struct FamilyCheck {
    kind: Option<String>,
    samples: u64,
    /// `(le, cumulative count)` pairs in appearance order (histograms).
    buckets: Vec<(f64, f64)>,
    sum: bool,
    count_value: Option<f64>,
}

/// The metric family a sample name belongs to: histogram series suffixes
/// fold onto their declared base family.
fn family_of<'a>(name: &'a str, families: &HashMap<String, FamilyCheck>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if families
                .get(base)
                .is_some_and(|f| f.kind.as_deref() == Some("histogram"))
            {
                return base;
            }
        }
    }
    name
}

/// One parsed sample line: metric name, `(label, value)` pairs, value.
type Sample<'a> = (&'a str, Vec<(String, String)>, f64);

/// Splits a sample line into `(name, labels, value)`; the optional
/// trailing timestamp is validated and discarded.
fn parse_sample(line: &str) -> Result<Sample<'_>, String> {
    let (name_part, rest) = match line.find(['{', ' ', '\t']) {
        Some(i) => (&line[..i], &line[i..]),
        None => return Err("sample line has no value".into()),
    };
    if !valid_metric_name(name_part) {
        return Err(format!("invalid metric name `{name_part}`"));
    }
    let mut labels = Vec::new();
    let rest = if let Some(body) = rest.strip_prefix('{') {
        let close = body.find('}').ok_or("unterminated label set")?;
        let (label_text, tail) = (&body[..close], &body[close + 1..]);
        let mut cursor = label_text;
        while !cursor.is_empty() {
            let eq = cursor.find('=').ok_or("label without `=`")?;
            let label = &cursor[..eq];
            if !valid_label_name(label) {
                return Err(format!("invalid label name `{label}`"));
            }
            let after = cursor[eq + 1..]
                .strip_prefix('"')
                .ok_or("label value is not quoted")?;
            // Scan the escaped value for its closing quote.
            let mut value = String::new();
            let mut chars = after.char_indices();
            let mut end = None;
            while let Some((i, c)) = chars.next() {
                match c {
                    '\\' => match chars.next().map(|(_, e)| e) {
                        Some('\\') => value.push('\\'),
                        Some('"') => value.push('"'),
                        Some('n') => value.push('\n'),
                        _ => return Err("bad escape in label value".into()),
                    },
                    '"' => {
                        end = Some(i);
                        break;
                    }
                    c => value.push(c),
                }
            }
            let end = end.ok_or("unterminated label value")?;
            labels.push((label.to_string(), value));
            cursor = after[end + 1..].trim_start_matches(',');
        }
        tail
    } else {
        rest
    };
    let mut parts = rest.split_ascii_whitespace();
    let value: f64 = parts
        .next()
        .ok_or("sample line has no value")?
        .parse()
        .map_err(|_| "sample value is not a float".to_string())?;
    if let Some(ts) = parts.next() {
        ts.parse::<i64>()
            .map_err(|_| "sample timestamp is not an integer".to_string())?;
    }
    if parts.next().is_some() {
        return Err("trailing garbage after sample".into());
    }
    Ok((name_part, labels, value))
}

/// Validates a page against the text-format 0.0.4 grammar plus the
/// structural rules scrapers rely on: valid metric/label names, quoted and
/// escaped label values, float-parseable sample values, `# TYPE` declared
/// at most once per family and before its samples, one family's lines kept
/// contiguous, and histogram families carrying monotone cumulative
/// buckets, a `+Inf` bucket equal to `_count`, and a `_sum` series.
///
/// # Errors
/// A `line N: <problem>` description of the first violation.
pub fn check_grammar(text: &str) -> Result<(), String> {
    if text.is_empty() || !text.ends_with('\n') {
        return Err("exposition must be non-empty and newline-terminated".into());
    }
    let mut families: HashMap<String, FamilyCheck> = HashMap::new();
    let mut closed: Vec<String> = Vec::new();
    let mut current: Option<String> = None;
    for (i, line) in text.lines().enumerate() {
        let ln = i + 1;
        let fail = |msg: String| format!("line {ln}: {msg}");
        if line.is_empty() {
            return Err(fail("empty line".into()));
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            let keyword = comment.split_ascii_whitespace().next().unwrap_or("");
            if keyword != "HELP" && keyword != "TYPE" {
                continue; // plain comment
            }
            let mut parts = comment.split_ascii_whitespace();
            let _ = parts.next();
            let name = parts
                .next()
                .ok_or_else(|| fail("missing metric name".into()))?;
            if !valid_metric_name(name) {
                return Err(fail(format!("invalid metric name `{name}`")));
            }
            if keyword == "TYPE" {
                let kind = parts.next().ok_or_else(|| fail("missing type".into()))?;
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(fail(format!("unknown type `{kind}`")));
                }
                let family = families.entry(name.to_string()).or_default();
                if family.kind.is_some() {
                    return Err(fail(format!("duplicate TYPE for `{name}`")));
                }
                if family.samples > 0 {
                    return Err(fail(format!("TYPE for `{name}` after its samples")));
                }
                family.kind = Some(kind.to_string());
            }
            continue;
        }
        let (name, labels, value) = parse_sample(line).map_err(&fail)?;
        let family = family_of(name, &families).to_string();
        if current.as_deref() != Some(&family) {
            if closed.contains(&family) {
                return Err(fail(format!("family `{family}` is interleaved")));
            }
            if let Some(prev) = current.replace(family.clone()) {
                closed.push(prev);
            }
        }
        let entry = families.entry(family).or_default();
        entry.samples += 1;
        if entry.kind.as_deref() == Some("histogram") {
            if name.ends_with("_bucket") {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .ok_or_else(|| fail("histogram bucket without `le`".into()))?;
                let edge: f64 =
                    le.1.parse()
                        .map_err(|_| fail(format!("bad `le` value `{}`", le.1)))?;
                entry.buckets.push((edge, value));
            } else if name.ends_with("_sum") {
                entry.sum = true;
            } else if name.ends_with("_count") {
                entry.count_value = Some(value);
            } else {
                return Err(fail(format!("unexpected histogram series `{name}`")));
            }
        }
    }
    for (name, family) in &families {
        if family.kind.as_deref() != Some("histogram") {
            continue;
        }
        let buckets = &family.buckets;
        if !buckets
            .windows(2)
            .all(|w| w[0].1 <= w[1].1 && w[0].0 < w[1].0)
        {
            return Err(format!(
                "histogram `{name}`: buckets are not cumulative in increasing `le` order"
            ));
        }
        let Some((last_le, last_n)) = buckets.last() else {
            return Err(format!("histogram `{name}` has no buckets"));
        };
        if !last_le.is_infinite() {
            return Err(format!("histogram `{name}` is missing its `+Inf` bucket"));
        }
        if !family.sum {
            return Err(format!("histogram `{name}` is missing `_sum`"));
        }
        match family.count_value {
            // Float equality is exact here: both sides are the same u64
            // count rendered through f64.
            Some(count) if (count - last_n).abs() < f64::EPSILON => {}
            Some(_) => {
                return Err(format!(
                    "histogram `{name}`: `_count` disagrees with the `+Inf` bucket"
                ))
            }
            None => return Err(format!("histogram `{name}` is missing `_count`")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated_page() -> String {
        let mut t = RunTelemetry::empty();
        t.counters[0].1 = 42;
        t.gauges[0].1 = 4096;
        let mut h = HistStat::new();
        for v in [0u64, 1, 3, 900, 900] {
            h.record(v);
        }
        t.histograms[0].1 = h;
        let mut page = Exposition::new();
        render_registry(&mut page, &t);
        page.labeled_gauge(
            "hdx_serve_tenant_inflight",
            "In-flight jobs per tenant.",
            "tenant",
            &[
                ("acme \"quoted\"\\".to_string(), 2.0),
                ("zen".to_string(), 1.0),
            ],
        );
        page.gauge("hdx_serve_workers_busy", "Workers mining right now.", 0.5);
        page.finish()
    }

    #[test]
    fn registry_page_passes_the_grammar_self_test() {
        let page = populated_page();
        check_grammar(&page).expect("grammar");
        assert!(page.contains("# TYPE hdx_mining_candidates_generated_total counter"));
        assert!(page.contains("hdx_mining_candidates_generated_total 42"));
        assert!(page.contains("hdx_mining_scratch_pool_bytes 4096"));
        assert!(page.contains("hdx_serve_tenant_inflight{tenant=\"acme \\\"quoted\\\"\\\\\"} 2"));
    }

    #[test]
    fn empty_registry_page_is_valid_exposition() {
        let mut page = Exposition::new();
        render_registry(&mut page, &RunTelemetry::empty());
        check_grammar(&page.finish()).expect("all-zero page still parses");
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_exact_edges() {
        let mut h = HistStat::new();
        for v in [0u64, 1, 3, 900, 900] {
            h.record(v);
        }
        let mut page = Exposition::new();
        page.histogram("lat", "help", &h);
        let text = page.finish();
        check_grammar(&text).expect("grammar");
        assert!(text.contains("lat_bucket{le=\"0\"} 1"), "{text}");
        assert!(text.contains("lat_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("lat_bucket{le=\"3\"} 3"), "{text}");
        assert!(text.contains("lat_bucket{le=\"1023\"} 5"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 5"), "{text}");
        assert!(text.contains("lat_count 5"), "{text}");
    }

    #[test]
    fn metric_names_sanitize_to_the_prometheus_alphabet() {
        assert_eq!(
            metric_name("hdx.mining.sched.steals"),
            "hdx_mining_sched_steals"
        );
        assert_eq!(
            metric_name("weird-name with spaces"),
            "weird_name_with_spaces"
        );
        assert_eq!(metric_name("9lives"), "_9lives");
        assert!(valid_metric_name(&metric_name("9lives")));
    }

    #[test]
    fn grammar_rejects_structural_violations() {
        let cases: &[(&str, &str)] = &[
            ("no trailing newline", "m 1"),
            ("empty line", "m 1\n\nn 2\n"),
            ("bad name", "2m 1\n"),
            ("bad value", "m one\n"),
            ("bad label name", "m{0x=\"v\"} 1\n"),
            ("unquoted label", "m{l=v} 1\n"),
            ("unterminated label value", "m{l=\"v} 1\n"),
            ("unknown type", "# TYPE m ticker\nm 1\n"),
            ("type after samples", "m 1\n# TYPE m counter\n"),
            ("duplicate type", "# TYPE m counter\n# TYPE m gauge\nm 1\n"),
            ("interleaved family", "a 1\nb 1\na 2\n"),
            (
                "non-cumulative buckets",
                "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
            ),
            (
                "missing +Inf",
                "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
            ),
            (
                "count disagrees",
                "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
            ),
        ];
        for (what, text) in cases {
            assert!(check_grammar(text).is_err(), "{what} must be rejected");
        }
    }

    #[test]
    fn plain_comments_and_timestamps_are_accepted() {
        let text = "# scraped by test\nm{l=\"a\",n=\"b\"} 1.5 1700000000\nnan_metric NaN\n";
        check_grammar(text).expect("grammar");
    }
}
