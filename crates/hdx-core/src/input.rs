//! From a parsed table to what the pipeline mines: the one loader behind
//! `hdx` and hdx-serve. Each front end keeps its own CSV reading and its own
//! names for the statistics (`--stat positive-rate`, `"stat":"positive_rate"`).

use std::time::Duration;

use hdx_data::{AttributeKind, DataError, DataFrame};
use hdx_governor::RunBudget;
use hdx_stats::Outcome;

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

/// Why a table cannot feed the pipeline. Each front end words
/// [`NoTargetColumn`](Self::NoTargetColumn) with its own option names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputError {
    /// [`Statistic::Target`] without a target column.
    NoTargetColumn,
    /// Any other problem, as the message to show.
    Invalid(String),
}

impl From<DataError> for InputError {
    fn from(err: DataError) -> Self {
        InputError::Invalid(err.to_string())
    }
}

/// Splits a parsed table into the frame the pipeline mines and the per-row
/// outcomes of `stat`.
///
/// A classification statistic reads the boolean columns `label_col` (the
/// ground truth) and `pred_col` (the prediction); [`Statistic::Target`]
/// reads the numeric column `target_col`. The columns read are dropped from
/// the returned frame.
///
/// # Errors
/// [`InputError::NoTargetColumn`] when `stat` is `Target` and `target_col`
/// is `None`; [`InputError::Invalid`] when a column is missing, not boolean
/// or not numeric, or when no attribute is left to mine.
pub fn mining_input(
    df: &DataFrame,
    stat: Statistic,
    label_col: &str,
    pred_col: &str,
    target_col: Option<&str>,
) -> Result<(DataFrame, Vec<Outcome>), InputError> {
    let (outcomes, read) = match stat.outcome_fn() {
        Some(f) => {
            let y_true = df.bool_column(label_col)?;
            let y_pred = df.bool_column(pred_col)?;
            (f.compute(&y_true, &y_pred), vec![label_col, pred_col])
        }
        None => {
            let name = target_col.ok_or(InputError::NoTargetColumn)?;
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

    #[test]
    fn columns_become_outcomes_and_leave_the_frame() {
        let csv = "x,g,truth,pred,score\n1,a,1,0,0.5\n2,b,0,0,1.5\n3,a,0,1,2.5\n";
        let df = read_csv_str(csv, &CsvOptions::default()).unwrap();
        let load = |stat, target| mining_input(&df, stat, "truth", "pred", target);
        let (frame, outcomes) = load(Statistic::Fpr, None).unwrap();
        assert_eq!(frame.n_attributes(), 3);
        let fpr = OutcomeFn::Fpr.compute(&[true, false, false], &[false, false, true]);
        assert_eq!(outcomes, fpr);
        let (frame, outcomes) = load(Statistic::Target, Some("score")).unwrap();
        assert_eq!(frame.n_attributes(), 4);
        assert_eq!(outcomes, real_outcomes(&[0.5, 1.5, 2.5]));
        assert_eq!(
            load(Statistic::Target, None),
            Err(InputError::NoTargetColumn)
        );
        let not_numeric = InputError::Invalid("target column `g` is not numeric".into());
        assert_eq!(load(Statistic::Target, Some("g")), Err(not_numeric));
        assert!(mining_input(&df, Statistic::Error, "g", "pred", None).is_err());
        let only = read_csv_str("score\n1\n2\n", &CsvOptions::default()).unwrap();
        let empty = InputError::Invalid("no attributes left to mine".into());
        assert_eq!(
            mining_input(&only, Statistic::Target, "", "", Some("score")).unwrap_err(),
            empty
        );
    }
}
