//! What fixes a run and what it mines: the [`RunSpec`] and the one loader
//! behind `hdx` and hdx-serve. Each front end keeps its own CSV reading, its
//! own defaults and its own names for the statistics and the options
//! (`--stat positive-rate`, `"stat":"positive_rate"`).

use std::time::Duration;

use hdx_checkpoint::codec::{ByteReader, ByteWriter};
use hdx_checkpoint::CheckpointError;
use hdx_data::{is_csv_syntax, AttributeKind, DataError, DataFrame};
use hdx_discretize::GainCriterion;
use hdx_governor::RunBudget;
use hdx_stats::Outcome;

use crate::hdivexplorer::{ExplorationMode, HDivExplorerConfig};
use crate::outcome_fn::{real_outcomes, OutcomeFn};

/// The statistic whose divergence a job analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Statistic {
    /// False-positive rate.
    Fpr,
    /// False-negative rate.
    Fnr,
    /// True-positive rate.
    Tpr,
    /// True-negative rate.
    Tnr,
    /// Classification error rate.
    Error,
    /// Accuracy.
    Accuracy,
    /// Predicted-positive rate.
    PositiveRate,
    /// The mean of a real-valued target column.
    Target,
}

impl Statistic {
    /// Every statistic, in code order.
    const ALL: [Statistic; 8] = [
        Statistic::Fpr,
        Statistic::Fnr,
        Statistic::Tpr,
        Statistic::Tnr,
        Statistic::Error,
        Statistic::Accuracy,
        Statistic::PositiveRate,
        Statistic::Target,
    ];

    /// The stable one-byte code stored by the sealed manifests of `hdx
    /// explore --checkpoint-dir` and of served jobs.
    pub fn code(self) -> u8 {
        match self {
            Statistic::Fpr => 0,
            Statistic::Fnr => 1,
            Statistic::Tpr => 2,
            Statistic::Tnr => 3,
            Statistic::Error => 4,
            Statistic::Accuracy => 5,
            Statistic::PositiveRate => 6,
            Statistic::Target => 7,
        }
    }

    /// Inverse of [`code`](Self::code); `None` for an unknown code.
    pub fn from_code(code: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.code() == code)
    }

    /// The outcome function of a classification statistic; `None` for
    /// [`Target`](Self::Target), whose outcomes are the column's values.
    pub(crate) fn outcome_fn(self) -> Option<OutcomeFn> {
        Some(match self {
            Statistic::Fpr => OutcomeFn::Fpr,
            Statistic::Fnr => OutcomeFn::Fnr,
            Statistic::Tpr => OutcomeFn::Tpr,
            Statistic::Tnr => OutcomeFn::Tnr,
            Statistic::Error => OutcomeFn::ErrorRate,
            Statistic::Accuracy => OutcomeFn::Accuracy,
            Statistic::PositiveRate => OutcomeFn::PositiveRate,
            Statistic::Target => return None,
        })
    }
}

/// The values that fix one run's result (paper §V): the statistic and the
/// columns it reads, the CSV separator, the exploration and tree supports,
/// the split criterion, base or generalized exploration and the
/// pattern-length cap. The sealed manifests of `hdx explore
/// --checkpoint-dir` and of served jobs hold it in one layout
/// ([`encode`](Self::encode)).
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// The statistic whose divergence is analysed.
    pub stat: Statistic,
    /// Ground-truth column of a classification statistic.
    pub label_col: String,
    /// Prediction column of a classification statistic.
    pub pred_col: String,
    /// Numeric column of [`Statistic::Target`].
    pub target_col: Option<String>,
    /// CSV field separator.
    pub separator: char,
    /// Minimum subgroup support `s`, in (0, 1].
    pub support: f64,
    /// Minimum tree-node support `st`, in (0, 1).
    pub tree_support: f64,
    /// Split gain criterion of the discretization trees.
    pub criterion: GainCriterion,
    /// Leaf items only, or every hierarchy level.
    pub mode: ExplorationMode,
    /// Pattern-length cap, at least 1 (`None` = unbounded).
    pub max_len: Option<u32>,
}

/// The [`RunSpec`] field [`RunSpec::validate`] refused. Each front end words
/// it with its own option names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// [`Statistic::Target`] without a target column.
    NoTargetColumn,
    /// A separator that is CSV syntax ([`is_csv_syntax`]).
    Separator,
    /// A support outside (0, 1].
    Support,
    /// A tree support outside (0, 1).
    TreeSupport,
    /// A pattern-length cap of 0.
    MaxLen,
}

/// Whether `support` is a subgroup support: in (0, 1].
pub(crate) fn is_support(support: f64) -> bool {
    support > 0.0 && support <= 1.0
}

/// Whether `support` is a tree-node support: in (0, 1).
pub(crate) fn is_tree_support(support: f64) -> bool {
    support > 0.0 && support < 1.0
}

impl RunSpec {
    /// A comma-separated run of `stat` over `label_col` and `pred_col`, with
    /// no target column, no length cap, and the supports, criterion and
    /// mode of [`HDivExplorerConfig::default`].
    pub fn new(stat: Statistic, label_col: &str, pred_col: &str) -> Self {
        let defaults = HDivExplorerConfig::default();
        Self {
            stat,
            label_col: label_col.into(),
            pred_col: pred_col.into(),
            target_col: None,
            separator: ',',
            support: defaults.min_support,
            tree_support: defaults.tree_min_support,
            criterion: defaults.criterion,
            mode: ExplorationMode::default(),
            max_len: None,
        }
    }

    /// Checks each field's range.
    ///
    /// # Errors
    /// The first field out of range, in [`SpecError`]'s order.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.stat == Statistic::Target {
            self.target()?;
        }
        if is_csv_syntax(self.separator) {
            Err(SpecError::Separator)
        } else if !is_support(self.support) {
            Err(SpecError::Support)
        } else if !is_tree_support(self.tree_support) {
            Err(SpecError::TreeSupport)
        } else if self.max_len == Some(0) {
            Err(SpecError::MaxLen)
        } else {
            Ok(())
        }
    }

    /// The target column, which [`Statistic::Target`] reads.
    fn target(&self) -> Result<&str, SpecError> {
        self.target_col.as_deref().ok_or(SpecError::NoTargetColumn)
    }

    /// The pipeline configuration of this run, with every field the spec
    /// does not fix (budget, threads, polarity pruning, adaptive support) at
    /// its default.
    pub fn config(&self) -> HDivExplorerConfig {
        HDivExplorerConfig {
            min_support: self.support,
            tree_min_support: self.tree_support,
            criterion: self.criterion,
            max_len: self.max_len.map(|n| n as usize),
            ..HDivExplorerConfig::default()
        }
    }

    /// Appends the spec to a manifest payload: the statistic's code, the
    /// column names, the separator's UTF-8 bytes, the supports, an entropy
    /// flag, a base-mode flag and the optional cap.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(self.stat.code());
        w.put_str(&self.label_col);
        w.put_str(&self.pred_col);
        w.put_bool(self.target_col.is_some());
        if let Some(target) = &self.target_col {
            w.put_str(target);
        }
        w.put_char(self.separator);
        w.put_f64(self.support);
        w.put_f64(self.tree_support);
        w.put_bool(self.criterion == GainCriterion::Entropy);
        w.put_bool(self.mode == ExplorationMode::Base);
        w.put_opt_u32(self.max_len);
    }

    /// Reads a spec written by [`encode`](Self::encode).
    ///
    /// # Errors
    /// [`CheckpointError::Corrupt`] on an unknown statistic code or a
    /// separator that is not UTF-8, and the codec's error on a short or
    /// malformed payload.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError> {
        let code = r.u8()?;
        let stat = Statistic::from_code(code).ok_or_else(|| CheckpointError::Corrupt {
            message: format!("unknown stat code {code}"),
        })?;
        Ok(Self {
            stat,
            label_col: r.str()?,
            pred_col: r.str()?,
            target_col: if r.bool()? { Some(r.str()?) } else { None },
            separator: r.char()?,
            support: r.f64()?,
            tree_support: r.f64()?,
            criterion: if r.bool()? {
                GainCriterion::Entropy
            } else {
                GainCriterion::Divergence
            },
            mode: if r.bool()? {
                ExplorationMode::Base
            } else {
                ExplorationMode::Generalized
            },
            max_len: r.opt_u32()?,
        })
    }
}

/// Why a table cannot feed the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputError {
    /// A spec field out of range, which each front end words itself.
    Spec(SpecError),
    /// Any other problem, as the message to show.
    Invalid(String),
}

impl From<DataError> for InputError {
    fn from(err: DataError) -> Self {
        InputError::Invalid(err.to_string())
    }
}

/// Splits a parsed table into the frame the pipeline mines and the per-row
/// outcomes of `spec`'s statistic.
///
/// A classification statistic reads the boolean columns `label_col` (the
/// ground truth) and `pred_col` (the prediction); [`Statistic::Target`]
/// reads the numeric column `target_col`. The columns read are dropped from
/// the returned frame.
///
/// # Errors
/// [`SpecError::NoTargetColumn`] when the statistic is `Target` and
/// `target_col` is `None`; [`InputError::Invalid`] when a column is missing,
/// not boolean or not numeric, or when no attribute is left to mine.
pub fn mining_input(
    df: &DataFrame,
    spec: &RunSpec,
) -> Result<(DataFrame, Vec<Outcome>), InputError> {
    let (outcomes, read) = match spec.stat.outcome_fn() {
        Some(f) => {
            let y_true = df.bool_column(&spec.label_col)?;
            let y_pred = df.bool_column(&spec.pred_col)?;
            let read = vec![spec.label_col.as_str(), spec.pred_col.as_str()];
            (f.compute(&y_true, &y_pred), read)
        }
        None => {
            let name = spec.target().map_err(InputError::Spec)?;
            let attr = df.schema().require(name)?;
            if df.schema().kind(attr) != AttributeKind::Continuous {
                return Err(InputError::Invalid(format!(
                    "target column `{name}` is not numeric"
                )));
            }
            (real_outcomes(df.continuous(attr).values()), vec![name])
        }
    };
    let frame = df.drop_columns(&read)?;
    if frame.n_attributes() == 0 {
        return Err(InputError::Invalid("no attributes left to mine".into()));
    }
    Ok((frame, outcomes))
}

/// A job's budget: an optional wall-clock deadline and an optional cap on
/// mined itemsets, every other limit unbounded.
pub fn job_budget(deadline: Option<Duration>, max_itemsets: Option<u64>) -> RunBudget {
    let mut budget = RunBudget::unbounded();
    if let Some(deadline) = deadline {
        budget = budget.with_deadline(deadline);
    }
    if let Some(max) = max_itemsets {
        budget = budget.with_max_itemsets(max);
    }
    budget
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_data::{read_csv_str, CsvOptions};

    #[test]
    fn statistic_codes_are_pinned() {
        use Statistic::*;
        let in_code_order = [Fpr, Fnr, Tpr, Tnr, Error, Accuracy, PositiveRate, Target];
        for (code, stat) in (0u8..).zip(in_code_order) {
            assert_eq!(stat.code(), code, "{stat:?}");
            assert_eq!(Statistic::from_code(code), Some(stat));
        }
        assert_eq!(Statistic::from_code(8), None);
    }

    /// A spec of `stat` over `truth`/`pred`, with `target` as its target.
    fn spec(stat: Statistic, target: Option<&str>) -> RunSpec {
        RunSpec {
            target_col: target.map(str::to_string),
            ..RunSpec::new(stat, "truth", "pred")
        }
    }

    #[test]
    fn columns_become_outcomes_and_leave_the_frame() {
        let csv = "x,g,truth,pred,score\n1,a,1,0,0.5\n2,b,0,0,1.5\n3,a,0,1,2.5\n";
        let df = read_csv_str(csv, &CsvOptions::default()).unwrap();
        let load = |stat, target| mining_input(&df, &spec(stat, target));
        let (frame, outcomes) = load(Statistic::Fpr, None).unwrap();
        assert_eq!(frame.n_attributes(), 3);
        let fpr = OutcomeFn::Fpr.compute(&[true, false, false], &[false, false, true]);
        assert_eq!(outcomes, fpr);
        let (frame, outcomes) = load(Statistic::Target, Some("score")).unwrap();
        assert_eq!(frame.n_attributes(), 4);
        assert_eq!(outcomes, real_outcomes(&[0.5, 1.5, 2.5]));
        assert_eq!(
            load(Statistic::Target, None),
            Err(InputError::Spec(SpecError::NoTargetColumn))
        );
        let not_numeric = InputError::Invalid("target column `g` is not numeric".into());
        assert_eq!(load(Statistic::Target, Some("g")), Err(not_numeric));
        let wrong_label = RunSpec::new(Statistic::Error, "g", "pred");
        assert!(mining_input(&df, &wrong_label).is_err());
        let only = read_csv_str("score\n1\n2\n", &CsvOptions::default()).unwrap();
        let empty = InputError::Invalid("no attributes left to mine".into());
        assert_eq!(
            mining_input(&only, &spec(Statistic::Target, Some("score"))).unwrap_err(),
            empty
        );
    }

    #[test]
    fn validate_names_the_first_field_out_of_range() {
        let ok = spec(Statistic::Fpr, None);
        assert_eq!(ok.validate(), Ok(()));
        let cases = [
            (spec(Statistic::Target, None), SpecError::NoTargetColumn),
            (
                RunSpec {
                    separator: '"',
                    ..ok.clone()
                },
                SpecError::Separator,
            ),
            (
                RunSpec {
                    separator: '\r',
                    ..ok.clone()
                },
                SpecError::Separator,
            ),
            (
                RunSpec {
                    support: 0.0,
                    ..ok.clone()
                },
                SpecError::Support,
            ),
            (
                RunSpec {
                    support: f64::NAN,
                    ..ok.clone()
                },
                SpecError::Support,
            ),
            (
                RunSpec {
                    tree_support: 1.0,
                    ..ok.clone()
                },
                SpecError::TreeSupport,
            ),
            (
                RunSpec {
                    max_len: Some(0),
                    ..ok.clone()
                },
                SpecError::MaxLen,
            ),
        ];
        for (spec, want) in cases {
            assert_eq!(spec.validate(), Err(want), "{spec:?}");
        }
        for edge in [
            RunSpec {
                support: 1.0,
                ..ok.clone()
            },
            RunSpec {
                separator: '€',
                max_len: Some(1),
                ..ok.clone()
            },
            spec(Statistic::Target, Some("score")),
        ] {
            assert_eq!(edge.validate(), Ok(()), "{edge:?}");
        }
    }

    #[test]
    fn config_carries_the_result_determining_fields() {
        let run = RunSpec {
            support: 0.2,
            tree_support: 0.3,
            criterion: GainCriterion::Entropy,
            max_len: Some(3),
            ..spec(Statistic::Fpr, None)
        };
        let config = run.config();
        assert_eq!(config.min_support, 0.2);
        assert_eq!(config.tree_min_support, 0.3);
        assert_eq!(config.criterion, GainCriterion::Entropy);
        assert_eq!(config.max_len, Some(3));
        assert!(!config.polarity_pruning && !config.adaptive_support);
        assert_eq!(config.threads, 1);
    }

    #[test]
    fn the_codec_round_trips_every_field() {
        for separator in [';', '\t', '€', '𝄞'] {
            let run = RunSpec {
                separator,
                support: 0.125,
                criterion: GainCriterion::Entropy,
                mode: ExplorationMode::Base,
                max_len: Some(u32::MAX),
                ..spec(Statistic::Target, Some("score"))
            };
            let mut w = ByteWriter::new();
            run.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(RunSpec::decode(&mut r).unwrap(), run);
            r.finish().unwrap();
        }
        let mut w = ByteWriter::new();
        RunSpec::new(Statistic::Fpr, "class", "pred").encode(&mut w);
        let mut bytes = w.into_bytes();
        // The separator's one byte follows the code, two strings and the
        // target flag.
        assert_eq!(bytes[1 + 8 + 5 + 8 + 4 + 1], b',');
        bytes[0] = 8;
        let err = RunSpec::decode(&mut ByteReader::new(&bytes)).unwrap_err();
        assert!(err.to_string().contains("unknown stat code 8"), "{err}");
    }
}
