//! The machine-readable run artifact: [`RunTelemetry`], its versioned JSON
//! schema (writer *and* parser, so artifacts round-trip), structural
//! validation for CI gates, and the human-readable per-stage summary table
//! behind the CLI's `--trace-summary`.
//!
//! Schema policy (DESIGN.md §11): the schema string is
//! `hdx-obs/telemetry/v<N>`; field *renames or removals* bump `N`, additive
//! fields do not. Consumers must ignore unknown fields.

use crate::json::{self, Json};
use crate::metrics::{CounterId, GaugeId, HistId, HistStat};
use std::fmt::Write as _;

/// Version tag written into every artifact.
pub const TELEMETRY_SCHEMA: &str = "hdx-obs/telemetry/v1";

/// One aggregated span path, e.g. `explore > polarity:+ > mine > level:2`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Hierarchical path, segments joined with ` > `.
    pub path: String,
    /// How many times the span was entered (instant events count too).
    pub count: u64,
    /// Total nanoseconds spent inside the span (0 for instant events).
    pub total_ns: u64,
}

/// A governor budget sample taken mid-run (see
/// `hdx_governor::GovernorSnapshot`), stamped with the sampling context.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotSample {
    /// Mining level (or 0 for end-of-stage samples).
    pub level: u64,
    /// Nanoseconds since the governed run started.
    pub elapsed_ns: u64,
    /// Nanoseconds until the deadline (`None` for unbounded runs).
    pub deadline_remaining_ns: Option<u64>,
    /// Itemsets charged so far.
    pub itemsets: u64,
    /// Candidate-cover bytes charged so far.
    pub candidate_bytes: u64,
    /// Tree nodes charged so far.
    pub tree_nodes: u64,
}

/// Everything one run recorded, ready to serialize. Counters, gauges, and
/// histograms always carry **every** registered metric (zeros included) so
/// downstream gates can tell "not recorded" from "dropped from the schema".
#[derive(Debug, Clone, PartialEq)]
pub struct RunTelemetry {
    /// Schema version tag ([`TELEMETRY_SCHEMA`]).
    pub schema: String,
    /// Aggregated spans in first-seen order.
    pub spans: Vec<SpanStat>,
    /// Counter name → value, in registry order.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → high-water mark, in registry order.
    pub gauges: Vec<(String, u64)>,
    /// Histogram name → aggregated distribution, in registry order.
    pub histograms: Vec<(String, HistStat)>,
    /// Governor budget samples in elapsed order.
    pub snapshots: Vec<SnapshotSample>,
}

impl Default for RunTelemetry {
    fn default() -> Self {
        Self::empty()
    }
}

impl RunTelemetry {
    /// An artifact with every registered metric present at zero — what a
    /// disabled-obs build collects.
    pub fn empty() -> Self {
        Self {
            schema: TELEMETRY_SCHEMA.to_string(),
            spans: Vec::new(),
            counters: CounterId::ALL
                .iter()
                .map(|c| (c.name().to_string(), 0))
                .collect(),
            gauges: GaugeId::ALL
                .iter()
                .map(|g| (g.name().to_string(), 0))
                .collect(),
            histograms: HistId::ALL
                .iter()
                .map(|h| (h.name().to_string(), HistStat::new()))
                .collect(),
            snapshots: Vec::new(),
        }
    }

    /// The value of a counter by registry id (0 when absent).
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counter_named(id.name())
    }

    /// The value of a counter by telemetry name (0 when absent).
    pub fn counter_named(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The high-water mark of a gauge (0 when absent).
    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == id.name())
            .map_or(0, |(_, v)| *v)
    }

    /// The aggregated histogram for `id`, when recorded.
    pub fn histogram(&self, id: HistId) -> Option<&HistStat> {
        self.histograms
            .iter()
            .find(|(n, _)| n == id.name())
            .map(|(_, h)| h)
    }

    /// Folds another artifact into this one, the cross-*collection* analogue
    /// of the per-thread sink merge: counters add and gauges take the
    /// maximum (by name — names absent here are appended), histograms merge
    /// losslessly, spans add count/total by path, and snapshots concatenate
    /// in elapsed order. Used by long-lived processes (hdx-serve) that
    /// aggregate periodic [`crate::collect`] drains into one fleet view.
    pub fn merge_from(&mut self, other: &RunTelemetry) {
        for s in &other.spans {
            if let Some(mine) = self.spans.iter_mut().find(|m| m.path == s.path) {
                mine.count += s.count;
                mine.total_ns += s.total_ns;
            } else {
                self.spans.push(s.clone());
            }
        }
        for (name, v) in &other.counters {
            if let Some((_, mine)) = self.counters.iter_mut().find(|(n, _)| n == name) {
                *mine += v;
            } else {
                self.counters.push((name.clone(), *v));
            }
        }
        for (name, v) in &other.gauges {
            if let Some((_, mine)) = self.gauges.iter_mut().find(|(n, _)| n == name) {
                *mine = (*mine).max(*v);
            } else {
                self.gauges.push((name.clone(), *v));
            }
        }
        for (name, h) in &other.histograms {
            if let Some((_, mine)) = self.histograms.iter_mut().find(|(n, _)| n == name) {
                mine.merge(h);
            } else {
                self.histograms.push((name.clone(), h.clone()));
            }
        }
        self.snapshots.extend(other.snapshots.iter().cloned());
        self.snapshots.sort_by_key(|s| s.elapsed_ns);
    }

    /// Total nanoseconds of the spans whose *last* path segment is `stage`
    /// (children are separate paths, so nothing is double-counted). A query
    /// without an argument matches any argument: `mine` covers both a bare
    /// `mine` segment and `mine:vertical`, while `mine:vertical` matches
    /// only that exact segment.
    pub fn stage_total_ns(&self, stage: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| {
                let last = s.path.rsplit(" > ").next().unwrap_or("");
                last == stage || (!stage.contains(':') && last.split(':').next() == Some(stage))
            })
            .map(|s| s.total_ns)
            .sum()
    }

    /// Structural validation: schema version matches and every registered
    /// counter/gauge/histogram name is present. This is the CI `obs-smoke`
    /// gate — a partial (exit-code-3) run must still pass it.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != TELEMETRY_SCHEMA {
            return Err(format!(
                "schema mismatch: got `{}`, want `{TELEMETRY_SCHEMA}`",
                self.schema
            ));
        }
        let mut missing = Vec::new();
        for c in CounterId::ALL {
            if !self.counters.iter().any(|(n, _)| n == c.name()) {
                missing.push(c.name());
            }
        }
        for g in GaugeId::ALL {
            if !self.gauges.iter().any(|(n, _)| n == g.name()) {
                missing.push(g.name());
            }
        }
        for h in HistId::ALL {
            if !self.histograms.iter().any(|(n, _)| n == h.name()) {
                missing.push(h.name());
            }
        }
        if missing.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "missing registered metrics: {}",
                missing.join(", ")
            ))
        }
    }

    /// Validates that each named stage has a span with non-zero time — the
    /// stronger gate for *complete* runs (`discretize`, `mine`, `explore`).
    pub fn validate_stages(&self, stages: &[&str]) -> Result<(), String> {
        let dead: Vec<&str> = stages
            .iter()
            .copied()
            .filter(|stage| self.stage_total_ns(stage) == 0)
            .collect();
        if dead.is_empty() {
            Ok(())
        } else {
            Err(format!("stages with no recorded time: {}", dead.join(", ")))
        }
    }

    /// Serializes to the versioned JSON artifact (stable field names,
    /// 2-space indent, deterministic order).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{}\",", json::escape(&self.schema));
        out.push_str("  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = write!(
                out,
                "\n    {{\"path\": \"{}\", \"count\": {}, \"total_ns\": {}}}{comma}",
                json::escape(&s.path),
                s.count,
                s.total_ns
            );
        }
        out.push_str(if self.spans.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            let _ = write!(out, "\n    \"{}\": {value}{comma}", json::escape(name));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            let comma = if i + 1 < self.gauges.len() { "," } else { "" };
            let _ = write!(out, "\n    \"{}\": {value}{comma}", json::escape(name));
        }
        out.push_str(if self.gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let comma = if i + 1 < self.histograms.len() {
                ","
            } else {
                ""
            };
            let mut buckets = String::new();
            for (b, &n) in h.buckets.iter().enumerate().filter(|(_, &n)| n > 0) {
                if !buckets.is_empty() {
                    buckets.push_str(", ");
                }
                let _ = write!(buckets, "[{b}, {n}]");
            }
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"buckets\": [{buckets}]}}{comma}",
                json::escape(name),
                h.count,
                h.sum,
                h.min,
                h.max
            );
        }
        out.push_str(if self.histograms.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"snapshots\": [");
        for (i, s) in self.snapshots.iter().enumerate() {
            let comma = if i + 1 < self.snapshots.len() {
                ","
            } else {
                ""
            };
            let deadline = s
                .deadline_remaining_ns
                .map_or("null".to_string(), |d| d.to_string());
            let _ = write!(
                out,
                "\n    {{\"level\": {}, \"elapsed_ns\": {}, \"deadline_remaining_ns\": {deadline}, \
                 \"itemsets\": {}, \"candidate_bytes\": {}, \"tree_nodes\": {}}}{comma}",
                s.level, s.elapsed_ns, s.itemsets, s.candidate_bytes, s.tree_nodes
            );
        }
        out.push_str(if self.snapshots.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }

    /// Parses an artifact back from JSON. Unknown fields are ignored
    /// (schema policy); missing sections default to empty.
    pub fn from_json(input: &str) -> Result<Self, String> {
        let doc = json::parse(input)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing `schema` field")?
            .to_string();
        let mut spans = Vec::new();
        for s in doc.get("spans").and_then(Json::as_arr).unwrap_or(&[]) {
            spans.push(SpanStat {
                path: s
                    .get("path")
                    .and_then(Json::as_str)
                    .ok_or("span without `path`")?
                    .to_string(),
                count: u64_field(s, "count")?,
                total_ns: u64_field(s, "total_ns")?,
            });
        }
        let counters = u64_map(&doc, "counters")?;
        let gauges = u64_map(&doc, "gauges")?;
        let mut histograms = Vec::new();
        for (name, h) in doc.get("histograms").and_then(Json::as_obj).unwrap_or(&[]) {
            let mut stat = HistStat::new();
            stat.count = u64_field(h, "count")?;
            stat.sum = u64_field(h, "sum")?;
            stat.min = u64_field(h, "min")?;
            stat.max = u64_field(h, "max")?;
            for pair in h.get("buckets").and_then(Json::as_arr).unwrap_or(&[]) {
                let Some([b, n]) = pair
                    .as_arr()
                    .and_then(|p| p.get(..2))
                    .map(|p| [&p[0], &p[1]])
                else {
                    return Err(format!("histogram `{name}`: malformed bucket pair"));
                };
                let idx = b
                    .as_u64()
                    .ok_or_else(|| format!("histogram `{name}`: non-integer bucket index"))?
                    as usize;
                if idx >= stat.buckets.len() {
                    return Err(format!(
                        "histogram `{name}`: bucket index {idx} out of range"
                    ));
                }
                stat.buckets[idx] = n
                    .as_u64()
                    .ok_or_else(|| format!("histogram `{name}`: non-integer bucket count"))?;
            }
            histograms.push((name.clone(), stat));
        }
        let mut snapshots = Vec::new();
        for s in doc.get("snapshots").and_then(Json::as_arr).unwrap_or(&[]) {
            let deadline = match s.get("deadline_remaining_ns") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or("snapshot with non-integer `deadline_remaining_ns`")?,
                ),
            };
            snapshots.push(SnapshotSample {
                level: u64_field(s, "level")?,
                elapsed_ns: u64_field(s, "elapsed_ns")?,
                deadline_remaining_ns: deadline,
                itemsets: u64_field(s, "itemsets")?,
                candidate_bytes: u64_field(s, "candidate_bytes")?,
                tree_nodes: u64_field(s, "tree_nodes")?,
            });
        }
        Ok(Self {
            schema,
            spans,
            counters,
            gauges,
            histograms,
            snapshots,
        })
    }

    /// Renders the per-stage summary table (`--trace-summary`): spans in
    /// first-seen order with counts and total milliseconds, followed by the
    /// non-zero counters and gauges.
    pub fn summary_table(&self) -> String {
        let mut rows: Vec<[String; 3]> = vec![[
            "stage".to_string(),
            "count".to_string(),
            "total_ms".to_string(),
        ]];
        for s in &self.spans {
            rows.push([
                s.path.clone(),
                s.count.to_string(),
                format!("{:.3}", s.total_ns as f64 / 1e6),
            ]);
        }
        if self.spans.is_empty() {
            rows.push([
                "(no spans recorded)".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]);
        }
        let mut out = render_rows(&rows);
        let nonzero: Vec<[String; 2]> = self
            .counters
            .iter()
            .map(|(n, v)| (n, *v))
            .chain(self.gauges.iter().map(|(n, v)| (n, *v)))
            .filter(|(_, v)| *v > 0)
            .map(|(n, v)| [n.clone(), v.to_string()])
            .collect();
        if !nonzero.is_empty() {
            let mut rows: Vec<[String; 2]> =
                vec![["counter/gauge".to_string(), "value".to_string()]];
            rows.extend(nonzero);
            out.push('\n');
            out.push_str(&render_rows(&rows));
        }
        out
    }
}

/// Aligns rows into a plain-text table (first row = header).
fn render_rows<const N: usize>(rows: &[[String; N]]) -> String {
    let widths: [usize; N] =
        std::array::from_fn(|c| rows.iter().map(|r| r[c].chars().count()).max().unwrap_or(0));
    let mut out = String::new();
    for row in rows {
        for (c, cell) in row.iter().enumerate() {
            if c > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            if c + 1 < N {
                out.push_str(&" ".repeat(widths[c].saturating_sub(cell.chars().count())));
            }
        }
        out.push('\n');
    }
    out
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer `{key}` field"))
}

fn u64_map(doc: &Json, key: &str) -> Result<Vec<(String, u64)>, String> {
    let mut out = Vec::new();
    for (name, value) in doc.get(key).and_then(Json::as_obj).unwrap_or(&[]) {
        let v = value
            .as_u64()
            .ok_or_else(|| format!("`{key}` entry `{name}` is not a non-negative integer"))?;
        out.push((name.clone(), v));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> RunTelemetry {
        let mut t = RunTelemetry::empty();
        t.spans = vec![
            SpanStat {
                path: "discretize".into(),
                count: 1,
                total_ns: 1_500_000,
            },
            SpanStat {
                path: "discretize > attr:age > split".into(),
                count: 7,
                total_ns: 900_000,
            },
            SpanStat {
                path: "explore > mine > level:2".into(),
                count: 1,
                total_ns: 2_000,
            },
            SpanStat {
                path: "explore > mine:vertical".into(),
                count: 1,
                total_ns: 3_000,
            },
        ];
        t.counters[0].1 = 42;
        t.gauges[0].1 = 4096;
        let mut h = HistStat::new();
        h.record(100);
        h.record(900);
        t.histograms[0].1 = h;
        t.snapshots = vec![
            SnapshotSample {
                level: 1,
                elapsed_ns: 10,
                deadline_remaining_ns: None,
                itemsets: 3,
                candidate_bytes: 64,
                tree_nodes: 0,
            },
            SnapshotSample {
                level: 2,
                elapsed_ns: 20,
                deadline_remaining_ns: Some(5_000),
                itemsets: 9,
                candidate_bytes: 128,
                tree_nodes: 0,
            },
        ];
        t
    }

    #[test]
    fn json_round_trip_is_identity() {
        for t in [RunTelemetry::empty(), populated()] {
            let parsed = RunTelemetry::from_json(&t.to_json()).unwrap();
            assert_eq!(parsed, t);
        }
    }

    #[test]
    fn validate_accepts_empty_and_rejects_missing_counters() {
        assert!(RunTelemetry::empty().validate().is_ok());
        let mut t = populated();
        t.counters.remove(0);
        let err = t.validate().unwrap_err();
        assert!(err.contains("hdx.mining.candidates.generated"), "{err}");
        let mut t = populated();
        t.schema = "hdx-obs/telemetry/v0".into();
        assert!(t.validate().unwrap_err().contains("schema mismatch"));
    }

    #[test]
    fn stage_totals_match_last_segment_only() {
        let t = populated();
        assert_eq!(t.stage_total_ns("discretize"), 1_500_000);
        assert_eq!(t.stage_total_ns("split"), 900_000);
        assert_eq!(t.stage_total_ns("level:2"), 2_000);
        // A bare query matches any argument; an argumented query is exact.
        assert_eq!(t.stage_total_ns("mine"), 3_000, "matches mine:vertical");
        assert_eq!(t.stage_total_ns("mine:vertical"), 3_000);
        assert_eq!(t.stage_total_ns("mine:apriori"), 0);
        assert_eq!(t.stage_total_ns("attr"), 0, "attr is never a last segment");
        assert!(t.validate_stages(&["discretize", "mine"]).is_ok());
        assert!(t.validate_stages(&["mine:apriori"]).is_err());
    }

    #[test]
    fn parser_ignores_unknown_fields_and_defaults_missing_sections() {
        let t = RunTelemetry::from_json("{\"schema\": \"hdx-obs/telemetry/v1\", \"extra\": [1]}")
            .unwrap();
        assert_eq!(t.schema, TELEMETRY_SCHEMA);
        assert!(t.spans.is_empty());
        assert!(t.counters.is_empty());
        // ... which validate() then correctly rejects.
        assert!(t.validate().is_err());
    }

    #[test]
    fn parser_reports_malformed_artifacts() {
        assert!(RunTelemetry::from_json("{}").is_err());
        assert!(RunTelemetry::from_json("not json").is_err());
        let bad_counter = "{\"schema\": \"s\", \"counters\": {\"a\": -1}}";
        assert!(RunTelemetry::from_json(bad_counter).is_err());
        let bad_bucket = "{\"schema\": \"s\", \"histograms\": {\"h\": {\"count\": 1, \"sum\": 1, \
             \"min\": 1, \"max\": 1, \"buckets\": [[99999, 1]]}}}";
        assert!(RunTelemetry::from_json(bad_bucket).is_err());
    }

    #[test]
    fn summary_table_lists_spans_and_nonzero_metrics() {
        let table = populated().summary_table();
        assert!(table.contains("discretize > attr:age > split"));
        assert!(table.contains("hdx.mining.candidates.generated"));
        assert!(table.contains("1.500"));
        assert!(
            !table.contains("hdx.governor.trip.cancelled"),
            "zeros omitted"
        );
        let empty = RunTelemetry::empty().summary_table();
        assert!(empty.contains("(no spans recorded)"));
    }

    #[test]
    fn merge_from_adds_counters_maxes_gauges_and_merges_hists() {
        let mut a = populated();
        let mut b = populated();
        b.counters[0].1 = 8;
        b.gauges[0].1 = 100; // below a's 4096 high-water
        b.spans.push(SpanStat {
            path: "serve > job".into(),
            count: 2,
            total_ns: 50,
        });
        b.counters.push(("custom.counter.name.x".into(), 7));
        a.merge_from(&b);
        assert_eq!(a.counter_named("hdx.mining.candidates.generated"), 50);
        assert_eq!(a.gauges[0].1, 4096);
        assert_eq!(a.counter_named("custom.counter.name.x"), 7);
        assert_eq!(a.histograms[0].1.count, 4, "2 + 2 recorded values");
        let span = a.spans.iter().find(|s| s.path == "discretize").unwrap();
        assert_eq!(span.count, 2);
        assert_eq!(span.total_ns, 3_000_000);
        assert_eq!(a.snapshots.len(), 4);
        assert!(a
            .snapshots
            .windows(2)
            .all(|w| w[0].elapsed_ns <= w[1].elapsed_ns));
        assert!(a.validate().is_ok());
    }

    #[test]
    fn snapshots_round_trip_with_and_without_deadline() {
        let t = populated();
        let parsed = RunTelemetry::from_json(&t.to_json()).unwrap();
        assert_eq!(parsed.snapshots[0].deadline_remaining_ns, None);
        assert_eq!(parsed.snapshots[1].deadline_remaining_ns, Some(5_000));
    }
}
