//! Job specifications and their durable encodings.
//!
//! A submitted job is split into two artifacts inside its state directory:
//! the dataset (`data.csv`, plain bytes so the CSV reader and a human can
//! both open it) and the sealed manifest (`manifest.hdx`, the [`JobSpec`]
//! through the checkpoint envelope codec). The manifest is written *last*
//! at admission — it is the commit point: a directory without one is an
//! aborted admission and is ignored by recovery. Finished jobs additionally
//! seal a [`DoneRecord`] (`done.hdx`); its presence is the completion
//! marker that recovery uses to tell finished work from orphans.

use std::collections::BTreeMap;

use hdx_checkpoint::codec::{ByteReader, ByteWriter};
use hdx_checkpoint::CheckpointError;
use hdx_core::{ExplorationMode, RunSpec, SpecError, Statistic};
use hdx_discretize::GainCriterion;

use hdx_obs::json::Json;

/// Manifest codec version (bump on layout change). Version 2 wrote the
/// separator as one byte, which is the [`RunSpec`] layout of an ASCII one.
const SPEC_VERSION: u8 = 2;
/// Done-record codec version. Version 1 records (no retries, no resumed
/// flag) still decode.
const DONE_VERSION: u8 = 2;

/// Parses a statistic's wire name.
fn parse_stat(name: &str) -> Option<Statistic> {
    Some(match name {
        "fpr" => Statistic::Fpr,
        "fnr" => Statistic::Fnr,
        "tpr" => Statistic::Tpr,
        "tnr" => Statistic::Tnr,
        "error" => Statistic::Error,
        "accuracy" => Statistic::Accuracy,
        "positive_rate" => Statistic::PositiveRate,
        "target" => Statistic::Target,
        _ => return None,
    })
}

/// Everything needed to run (or re-run, byte-identically) one mining job:
/// its tenant, its [`RunSpec`] and its budgets. A job always checkpoints
/// after every completed search root and mines serially, so neither is a
/// field.
///
/// Budgets are resolved *at admission* — the tenant's fair share, further
/// tightened by whatever the request asked for — and persisted here, so a
/// crash-recovered resume runs under exactly the budget the original run
/// tripped or would have tripped on.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Owning tenant (admission accounting key and span label).
    pub tenant: String,
    /// The run: statistic, columns, separator, supports, criterion, mode
    /// and length cap.
    pub run: RunSpec,
    /// Wall-clock deadline in milliseconds (`None` = unbounded).
    pub deadline_ms: Option<u64>,
    /// Itemset work cap (`None` = unbounded).
    pub max_itemsets: Option<u64>,
}

impl JobSpec {
    /// Encodes the spec as a sealed-manifest payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(SPEC_VERSION);
        w.put_str(&self.tenant);
        self.run.encode(&mut w);
        for cap in [self.deadline_ms, self.max_itemsets] {
            w.put_bool(cap.is_some());
            w.put_u64(cap.unwrap_or(0));
        }
        // The slots of the deleted `checkpoint_every` cadence and `threads`
        // count, written with their old defaults (1, unset), so the layout
        // stays version 2 and a default submission's manifest keeps its
        // bytes.
        w.put_u64(1);
        w.put_opt_u32(None);
        w.into_bytes()
    }

    /// Decodes a sealed-manifest payload.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Corrupt`] on version or layout mismatch.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        let version = r.u8()?;
        if version != SPEC_VERSION {
            return Err(CheckpointError::Corrupt {
                message: format!("unsupported job manifest version {version}"),
            });
        }
        let cap = |r: &mut ByteReader<'_>| -> Result<Option<u64>, CheckpointError> {
            let set = r.bool()?;
            let value = r.u64()?;
            Ok(set.then_some(value))
        };
        let spec = JobSpec {
            tenant: r.str()?,
            run: RunSpec::decode(&mut r)?,
            deadline_ms: cap(&mut r)?,
            max_itemsets: cap(&mut r)?,
        };
        // The cadence and thread-count slots (see `encode`): read and
        // ignored, so a manifest sealed with any value still loads.
        r.u64()?;
        r.opt_u32()?;
        r.finish()?;
        Ok(spec)
    }
}

/// Words a [`RunSpec`] field error with the submission's field names.
pub(crate) fn spec_message(err: SpecError) -> String {
    match err {
        SpecError::NoTargetColumn => "`stat: target` requires `target_col`",
        SpecError::Separator => "`separator` cannot be a quote or a line break",
        SpecError::Support => "`support` must be in (0, 1]",
        SpecError::TreeSupport => "`tree_support` must be in (0, 1)",
        SpecError::MaxLen => "`max_len` must be at least 1",
    }
    .into()
}

/// Pulls a required/defaulted field out of a submission object.
fn str_field(
    map: &BTreeMap<String, Json>,
    key: &str,
    default: Option<&str>,
) -> Result<Option<String>, String> {
    match map.get(key) {
        None | Some(Json::Null) => Ok(default.map(str::to_string)),
        Some(v) => Ok(Some(
            v.as_str()
                .ok_or_else(|| format!("`{key}` must be a string"))?
                .to_string(),
        )),
    }
}

fn num_field(map: &BTreeMap<String, Json>, key: &str) -> Result<Option<f64>, String> {
    match map.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => Ok(Some(
            v.as_f64()
                .ok_or_else(|| format!("`{key}` must be a number"))?,
        )),
    }
}

fn bool_field(map: &BTreeMap<String, Json>, key: &str, default: bool) -> Result<bool, String> {
    match map.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("`{key}` must be a boolean")),
    }
}

fn uint_field(map: &BTreeMap<String, Json>, key: &str, max: u64) -> Result<Option<u64>, String> {
    match num_field(map, key)? {
        None => Ok(None),
        Some(n) => {
            if n != n.trunc() || n < 0.0 || n > max as f64 {
                return Err(format!("`{key}` must be an integer in 0..={max}"));
            }
            Ok(Some(n as u64))
        }
    }
}

/// Parses and validates a submission body into `(spec, csv_text)`.
///
/// Unknown keys are rejected so a typo'd budget field cannot silently run
/// unbounded.
///
/// # Errors
/// Returns a client-facing message (the service answers 400 with it).
pub fn parse_submission(map: &BTreeMap<String, Json>) -> Result<(JobSpec, String), String> {
    const KNOWN: [&str; 14] = [
        "tenant",
        "csv",
        "stat",
        "label_col",
        "pred_col",
        "target_col",
        "separator",
        "support",
        "tree_support",
        "entropy",
        "base_mode",
        "max_len",
        "deadline_ms",
        "max_itemsets",
    ];
    for key in map.keys() {
        if !KNOWN.contains(&key.as_str()) {
            return Err(format!("unknown field `{key}`"));
        }
    }
    let tenant = str_field(map, "tenant", Some("default"))?.unwrap_or_default();
    if tenant.is_empty()
        || tenant.len() > 64
        || !tenant
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return Err("`tenant` must be 1..=64 chars of [A-Za-z0-9_-]".into());
    }
    let csv = str_field(map, "csv", None)?.ok_or("`csv` is required")?;
    if csv.trim().is_empty() {
        return Err("`csv` must not be empty".into());
    }
    let stat_name = str_field(map, "stat", Some("fpr"))?.unwrap_or_default();
    let stat = parse_stat(&stat_name).ok_or_else(|| format!("unknown `stat` `{stat_name}`"))?;
    let separator = str_field(map, "separator", Some(","))?.unwrap_or_default();
    let separator =
        hdx_data::separator_char(&separator).ok_or("`separator` must be a single character")?;
    let label_col = str_field(map, "label_col", Some("class"))?.unwrap_or_default();
    let pred_col = str_field(map, "pred_col", Some("pred"))?.unwrap_or_default();
    let defaults = RunSpec::new(stat, &label_col, &pred_col);
    let run = RunSpec {
        target_col: str_field(map, "target_col", None)?,
        separator,
        support: num_field(map, "support")?.unwrap_or(defaults.support),
        tree_support: num_field(map, "tree_support")?.unwrap_or(defaults.tree_support),
        criterion: if bool_field(map, "entropy", false)? {
            GainCriterion::Entropy
        } else {
            GainCriterion::Divergence
        },
        mode: if bool_field(map, "base_mode", false)? {
            ExplorationMode::Base
        } else {
            ExplorationMode::Generalized
        },
        max_len: uint_field(map, "max_len", u32::MAX.into())?.map(|v| v as u32),
        ..defaults
    };
    run.validate().map_err(spec_message)?;
    let spec = JobSpec {
        tenant,
        run,
        deadline_ms: uint_field(map, "deadline_ms", u64::MAX / 2)?,
        max_itemsets: uint_field(map, "max_itemsets", u64::MAX / 2)?,
    };
    Ok((spec, csv))
}

/// The terminal outcome of a job, sealed as the completion marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoneRecord {
    /// `true` when the job produced results (possibly partial); `false`
    /// when it failed permanently.
    pub ok: bool,
    /// Machine label for how the run ended ([`hdx_governor::Termination::as_str`])
    /// or `"failed"` for permanent failures.
    pub termination: String,
    /// Execution attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Ranked-results JSON on success; the error message on failure.
    pub body: String,
    /// The transient-failure messages of the attempts before, in order.
    pub retries: Vec<String>,
    /// Whether the run was an orphan a server start resumed.
    pub resumed: bool,
}

impl DoneRecord {
    /// Encodes the record as a sealed completion-marker payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(DONE_VERSION);
        w.put_bool(self.ok);
        w.put_str(&self.termination);
        w.put_u32(self.attempts);
        w.put_str(&self.body);
        w.put_bool(self.resumed);
        // A retry per attempt: `attempts` is a `u32`.
        w.put_u32(self.retries.len() as u32);
        for retry in &self.retries {
            w.put_str(retry);
        }
        w.into_bytes()
    }

    /// Decodes a sealed completion-marker payload.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Corrupt`] on version or layout mismatch.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        let version = r.u8()?;
        if !(1..=DONE_VERSION).contains(&version) {
            return Err(CheckpointError::Corrupt {
                message: format!("unsupported done-record version {version}"),
            });
        }
        let mut record = DoneRecord {
            ok: r.bool()?,
            termination: r.str()?,
            attempts: r.u32()?,
            body: r.str()?,
            retries: Vec::new(),
            resumed: false,
        };
        if version >= 2 {
            record.resumed = r.bool()?;
            for _ in 0..r.u32()? {
                record.retries.push(r.str()?);
            }
        }
        r.finish()?;
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_object;

    fn submission(extra: &str) -> BTreeMap<String, Json> {
        parse_object(&format!(
            r#"{{"csv":"class,pred,a\n1,0,x\n0,0,y\n"{}{extra}}}"#,
            if extra.is_empty() { "" } else { "," }
        ))
        .expect("valid json")
    }

    #[test]
    fn submission_defaults_mirror_the_cli() {
        let (spec, csv) = parse_submission(&submission("")).expect("valid");
        assert_eq!(spec.tenant, "default");
        assert_eq!(spec.run.stat, Statistic::Fpr);
        assert_eq!(spec.run.label_col, "class");
        assert_eq!(spec.run.pred_col, "pred");
        assert_eq!(spec.run.separator, ',');
        assert!((spec.run.support - 0.05).abs() < 1e-12);
        assert!((spec.run.tree_support - 0.1).abs() < 1e-12);
        assert!(csv.starts_with("class,pred"));
    }

    #[test]
    fn submission_validation_rejects_bad_fields() {
        let cases = [
            (r#""stat":"nope""#, "unknown `stat`"),
            (r#""support":0.0"#, "`support`"),
            (r#""support":1.5"#, "`support`"),
            (r#""tenant":"b@d""#, "`tenant`"),
            (r#""separator":"ab""#, "`separator`"),
            (
                r#""separator":"\"""#,
                "`separator` cannot be a quote or a line break",
            ),
            (
                r#""separator":"\n""#,
                "`separator` cannot be a quote or a line break",
            ),
            (
                r#""separator":"\r""#,
                "`separator` cannot be a quote or a line break",
            ),
            (r#""stat":"target""#, "requires `target_col`"),
            (r#""max_len":2.5"#, "`max_len`"),
            (r#""max_len":0"#, "`max_len` must be at least 1"),
            (r#""tree_support":1.0"#, "`tree_support`"),
            (r#""deadline_ms":-1"#, "`deadline_ms`"),
            (r#""bogus_knob":1"#, "unknown field"),
            // Deleted fields: a job checkpoints after every root and mines
            // serially, whatever a submission asks.
            (
                r#""checkpoint_every":1"#,
                "unknown field `checkpoint_every`",
            ),
            (r#""threads":2"#, "unknown field `threads`"),
        ];
        for (extra, want) in cases {
            let err = parse_submission(&submission(extra)).expect_err(extra);
            assert!(err.contains(want), "{extra}: {err}");
        }
        assert!(
            parse_submission(&parse_object(r#"{"stat":"fpr"}"#).expect("json"))
                .expect_err("no csv")
                .contains("`csv`")
        );
    }

    #[test]
    fn spec_codec_round_trips() {
        let (mut spec, _) = parse_submission(&submission(
            r#""tenant":"acme","stat":"target","target_col":"score","max_len":3,
               "deadline_ms":1500,"max_itemsets":4096,
               "entropy":true,"base_mode":true,"separator":";""#,
        ))
        .expect("valid");
        spec.run.support = 0.125;
        let decoded = JobSpec::decode(&spec.encode()).expect("round trip");
        assert_eq!(decoded, spec);
        // Every wire name reaches the statistic stored under its code.
        let names = [
            "fpr",
            "fnr",
            "tpr",
            "tnr",
            "error",
            "accuracy",
            "positive_rate",
            "target",
        ];
        for (code, name) in (0u8..).zip(names) {
            let extra = format!(r#""stat":"{name}","target_col":"a""#);
            let (spec, _) = parse_submission(&submission(&extra)).expect(name);
            assert_eq!(spec.run.stat.code(), code, "{name}");
            assert_eq!(JobSpec::decode(&spec.encode()).expect(name), spec);
        }
    }

    /// The manifest sealed for the golden served job (`tests/sealed_golden.rs`)
    /// decodes to the spec its submission parses to, and re-encodes to the
    /// same bytes: a version 2 manifest already on disk still loads.
    #[test]
    fn the_golden_job_manifest_decodes_to_its_submission() {
        let sealed = include_bytes!("../../../tests/golden/sealed/job/manifest.hdx");
        let payload = hdx_checkpoint::envelope::open(sealed).expect("sealed manifest");
        let body = r#"{"csv":"-","tenant":"golden","stat":"fpr","support":0.05}"#;
        let (submitted, _) = parse_submission(&parse_object(body).expect("json")).expect("valid");
        assert_eq!(JobSpec::decode(&payload).expect("decodes"), submitted);
        assert_eq!(submitted.encode(), payload);
    }

    /// A version 2 manifest sealed with another checkpoint cadence and a
    /// thread count decodes to the spec of the same submission without
    /// them: both slots are read and ignored.
    #[test]
    fn a_manifest_with_a_cadence_and_threads_decodes_without_them() {
        let (spec, _) =
            parse_submission(&submission(r#""tenant":"acme","max_itemsets":9"#)).expect("valid");
        let mut w = ByteWriter::new();
        w.put_u8(2);
        w.put_str(&spec.tenant);
        spec.run.encode(&mut w);
        for cap in [spec.deadline_ms, spec.max_itemsets] {
            w.put_bool(cap.is_some());
            w.put_u64(cap.unwrap_or(0));
        }
        w.put_u64(3);
        w.put_opt_u32(Some(2));
        let manifest = w.into_bytes();
        assert_ne!(manifest, spec.encode());
        assert_eq!(JobSpec::decode(&manifest).expect("decodes"), spec);
    }

    #[test]
    fn spec_decode_rejects_bad_versions_and_truncation() {
        let (spec, _) = parse_submission(&submission("")).expect("valid");
        let mut bytes = spec.encode();
        bytes[0] = 99;
        assert!(JobSpec::decode(&bytes).is_err());
        let bytes = spec.encode();
        assert!(JobSpec::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn done_record_codec_round_trips() {
        let mut record = DoneRecord {
            ok: true,
            termination: "complete".into(),
            attempts: 3,
            body: "{\"records\":[]}".into(),
            retries: vec!["blip".into(), "disk full".into()],
            resumed: true,
        };
        assert_eq!(
            DoneRecord::decode(&record.encode()).expect("round trip"),
            record
        );
        let mut bytes = record.encode();
        bytes[0] = 0;
        assert!(DoneRecord::decode(&bytes).is_err());
        bytes[0] = DONE_VERSION + 1;
        assert!(DoneRecord::decode(&bytes).is_err());
        let bytes = record.encode();
        assert!(DoneRecord::decode(&bytes[..bytes.len() - 1]).is_err());
        record.retries.clear();
        record.resumed = false;
        assert_eq!(
            DoneRecord::decode(&record.encode()).expect("round trip"),
            record
        );
    }

    /// A version 1 record (written before retries and the resumed flag
    /// were sealed) decodes with neither.
    #[test]
    fn a_version_1_done_record_decodes_without_retries() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_bool(false);
        w.put_str("failed");
        w.put_u32(4);
        w.put_str("retries exhausted: blip");
        let record = DoneRecord::decode(&w.into_bytes()).expect("v1 decodes");
        assert_eq!(
            record,
            DoneRecord {
                ok: false,
                termination: "failed".into(),
                attempts: 4,
                body: "retries exhausted: blip".into(),
                retries: Vec::new(),
                resumed: false,
            }
        );
    }
}
