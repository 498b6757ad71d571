//! Mining results: frequent itemsets with their accumulated statistics.

use hdx_governor::{Governor, RunCounters, Termination};
use hdx_items::Itemset;
use hdx_stats::StatAccum;

/// One frequent itemset together with the statistics accumulated over its
/// support set during mining.
#[derive(Debug, Clone)]
pub struct FrequentItemset {
    /// The itemset.
    pub itemset: Itemset,
    /// Accumulated statistics (count, valid count, Σ, Σ²) over `D_I`.
    pub accum: StatAccum,
}

/// A non-fatal error absorbed during mining. The run degrades instead of
/// dying: the result still carries every itemset mined by the surviving
/// workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MiningError {
    /// A pool worker of a multi-threaded mine
    /// ([`MiningConfig::threads`](crate::MiningConfig::threads) > 1)
    /// panicked; its share of the search space is missing from the result.
    WorkerPanicked {
        /// Index of the panicked worker.
        worker: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl std::fmt::Display for MiningError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WorkerPanicked { worker, message } => {
                write!(f, "mining worker {worker} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for MiningError {}

/// The output of one mining run.
#[derive(Debug, Clone)]
pub struct MiningResult {
    /// All frequent itemsets of length ≥ 1 (unordered).
    pub itemsets: Vec<FrequentItemset>,
    /// Number of transactions mined.
    pub n_rows: usize,
    /// Statistics of the whole database (the empty itemset / `f(D)`).
    pub global: StatAccum,
    /// How the run ended. Anything but [`Termination::Complete`] means
    /// `itemsets` is a (still exact) subset of the unbounded result.
    pub termination: Termination,
    /// Work charged against the run's budget.
    pub counters: RunCounters,
    /// Non-fatal errors absorbed during the run (e.g. worker panics).
    pub errors: Vec<MiningError>,
}

impl MiningResult {
    /// A result from an ungoverned (complete) run: `termination` is
    /// [`Termination::Complete`], counters zero, no errors.
    pub fn complete(itemsets: Vec<FrequentItemset>, n_rows: usize, global: StatAccum) -> Self {
        Self {
            itemsets,
            n_rows,
            global,
            termination: Termination::Complete,
            counters: RunCounters::default(),
            errors: Vec::new(),
        }
    }

    /// Stamps the governor's termination and counter snapshot onto `self`.
    #[must_use]
    pub fn governed_by(mut self, governor: &Governor) -> Self {
        self.termination = governor.termination();
        self.counters = governor.counters();
        self
    }

    /// `true` when the run was cut short (by budget, deadline, or
    /// cancellation) or absorbed a worker error.
    pub fn is_partial(&self) -> bool {
        self.termination.is_partial() || !self.errors.is_empty()
    }
    /// The support fraction of a frequent itemset.
    pub fn support(&self, fi: &FrequentItemset) -> f64 {
        fi.accum.count() as f64 / self.n_rows.max(1) as f64
    }

    /// The divergence of a frequent itemset from the global statistic.
    pub fn divergence(&self, fi: &FrequentItemset) -> Option<f64> {
        fi.accum.divergence(&self.global)
    }

    /// The Welch t-value of a frequent itemset's divergence.
    pub fn t_value(&self, fi: &FrequentItemset) -> f64 {
        fi.accum.t_value(&self.global)
    }

    /// Looks up a mined itemset.
    pub fn find(&self, itemset: &Itemset) -> Option<&FrequentItemset> {
        self.itemsets.iter().find(|fi| &fi.itemset == itemset)
    }

    /// The maximum divergence over all itemsets (`None` when none has a
    /// defined divergence).
    pub fn max_divergence(&self) -> Option<f64> {
        let mut best: Option<f64> = None;
        for d in self.itemsets.iter().filter_map(|fi| self.divergence(fi)) {
            if best.is_none_or(|b| d > b) {
                best = Some(d);
            }
        }
        best
    }

    /// The maximum |divergence| over all itemsets.
    pub fn max_abs_divergence(&self) -> Option<f64> {
        self.itemsets
            .iter()
            .filter_map(|fi| self.divergence(fi))
            .map(f64::abs)
            .fold(None, |acc: Option<f64>, d| {
                Some(acc.map_or(d, |a| a.max(d)))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_items::ItemId;
    use hdx_stats::Outcome;

    fn fi(items: &[u32], outcomes: &[Outcome]) -> FrequentItemset {
        FrequentItemset {
            itemset: Itemset::from_sorted_unchecked(items.iter().map(|&i| ItemId(i)).collect()),
            accum: StatAccum::from_outcomes(outcomes),
        }
    }

    fn result() -> MiningResult {
        let global = StatAccum::from_outcomes(&[
            Outcome::Bool(true),
            Outcome::Bool(false),
            Outcome::Bool(false),
            Outcome::Bool(false),
        ]); // f(D) = 0.25
        MiningResult::complete(
            vec![
                fi(&[0], &[Outcome::Bool(true), Outcome::Bool(true)]), // f=1, div=.75
                fi(&[1], &[Outcome::Bool(false), Outcome::Bool(false)]), // f=0, div=-.25
                fi(&[0, 1], &[Outcome::Bool(true)]),                   // f=1, div=.75
                fi(&[2], &[Outcome::Undefined]),                       // undefined
            ],
            4,
            global,
        )
    }

    #[test]
    fn support_and_divergence() {
        let r = result();
        assert_eq!(r.support(&r.itemsets[0]), 0.5);
        assert_eq!(r.divergence(&r.itemsets[0]), Some(0.75));
        assert_eq!(r.divergence(&r.itemsets[1]), Some(-0.25));
        assert_eq!(r.divergence(&r.itemsets[3]), None);
    }

    #[test]
    fn max_divergence_variants() {
        let r = result();
        assert_eq!(r.max_divergence(), Some(0.75));
        assert_eq!(r.max_abs_divergence(), Some(0.75));
        // Undefined divergences are skipped, not treated as the maximum.
        let undefined_only =
            MiningResult::complete(vec![fi(&[2], &[Outcome::Undefined])], 4, r.global);
        assert_eq!(undefined_only.max_divergence(), None);
    }

    #[test]
    fn find_by_itemset() {
        let r = result();
        let target = Itemset::from_sorted_unchecked(vec![ItemId(0), ItemId(1)]);
        assert!(r.find(&target).is_some());
        let missing = Itemset::from_sorted_unchecked(vec![ItemId(9)]);
        assert!(r.find(&missing).is_none());
    }
}
