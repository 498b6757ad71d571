//! Runtime validators for mining-lattice invariants.
//!
//! Three properties must hold for *any* [`MiningResult`], whichever miner
//! produced it:
//!
//! 1. **Itemset validity** — every mined itemset is canonical and holds at
//!    most one item per attribute ([`validate_itemsets`]);
//! 2. **Minimum support** — every mined itemset's count reaches the
//!    absolute threshold `⌈s·n⌉` ([`validate_min_support`]);
//! 3. **Support anti-monotonicity** — every `(k−1)`-subset of a mined
//!    `k`-itemset is itself mined, with a count at least as large
//!    ([`validate_anti_monotone`]). This is the property Apriori's prune
//!    step and FP-Growth's conditional trees rely on; a miner bug that
//!    breaks it silently yields wrong divergences downstream.
//!
//! The validators are always compiled and return typed violations. Under
//! the `debug-invariants` cargo feature, [`mine`](crate::mine) additionally
//! runs all three on every result it returns (an O(Σ k·|result|) pass with
//! a hash index — fine for debugging, too slow to leave on in release
//! serving builds, hence the feature gate).
//!
//! [`validate_itemsets`]: crate::invariants::validate_itemsets
//! [`validate_min_support`]: crate::invariants::validate_min_support
//! [`validate_anti_monotone`]: crate::invariants::validate_anti_monotone

use std::collections::HashMap;

use hdx_items::{invariants as item_invariants, ItemCatalog, Itemset};

use crate::result::MiningResult;

/// A violated mining invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum MiningViolation {
    /// A mined itemset is malformed (see
    /// [`item_invariants::InvariantViolation`]).
    Itemset(item_invariants::InvariantViolation),
    /// A mined itemset's count is below the minimum-support threshold.
    BelowMinSupport {
        /// The offending itemset.
        itemset: Itemset,
        /// Its accumulated count.
        count: u64,
        /// The absolute threshold `⌈s·n⌉` it had to reach.
        min_count: u64,
    },
    /// A subset of a mined itemset is missing from the result, or has a
    /// smaller count than its superset.
    AntiMonotonicityBroken {
        /// The mined `k`-itemset.
        itemset: Itemset,
        /// Its count.
        count: u64,
        /// The `(k−1)`-subset that is missing or under-counted.
        subset: Itemset,
        /// The subset's count in the result (`None` when missing entirely).
        subset_count: Option<u64>,
    },
}

impl std::fmt::Display for MiningViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MiningViolation::Itemset(v) => write!(f, "mined {v}"),
            MiningViolation::BelowMinSupport {
                itemset,
                count,
                min_count,
            } => write!(
                f,
                "mined itemset {itemset:?} has count {count} < min_count {min_count}"
            ),
            MiningViolation::AntiMonotonicityBroken {
                itemset,
                count,
                subset,
                subset_count,
            } => match subset_count {
                Some(sc) => write!(
                    f,
                    "anti-monotonicity broken: {subset:?} has count {sc} < {count} of its \
                     superset {itemset:?}"
                ),
                None => write!(
                    f,
                    "anti-monotonicity broken: subset {subset:?} of mined {itemset:?} \
                     (count {count}) is missing from the result"
                ),
            },
        }
    }
}

impl std::error::Error for MiningViolation {}

impl From<item_invariants::InvariantViolation> for MiningViolation {
    fn from(v: item_invariants::InvariantViolation) -> Self {
        MiningViolation::Itemset(v)
    }
}

/// Validates rule 1: every mined itemset is canonical with at most one item
/// per attribute.
pub fn validate_itemsets(
    result: &MiningResult,
    catalog: &ItemCatalog,
) -> Result<(), MiningViolation> {
    for fi in &result.itemsets {
        item_invariants::validate_itemset(&fi.itemset, catalog)?;
    }
    Ok(())
}

/// Validates rule 2: every mined itemset's count reaches `min_count`.
pub fn validate_min_support(result: &MiningResult, min_count: u64) -> Result<(), MiningViolation> {
    for fi in &result.itemsets {
        if fi.accum.count() < min_count {
            return Err(MiningViolation::BelowMinSupport {
                itemset: fi.itemset.clone(),
                count: fi.accum.count(),
                min_count,
            });
        }
    }
    Ok(())
}

/// Validates rule 3: for every mined `k`-itemset (`k ≥ 2`), each of its
/// `(k−1)`-subsets is mined with a count at least as large.
pub fn validate_anti_monotone(result: &MiningResult) -> Result<(), MiningViolation> {
    let counts: HashMap<&Itemset, u64> = result
        .itemsets
        .iter()
        .map(|fi| (&fi.itemset, fi.accum.count()))
        .collect();
    for fi in &result.itemsets {
        if fi.itemset.len() < 2 {
            continue;
        }
        let count = fi.accum.count();
        for subset in fi.itemset.sub_itemsets() {
            match counts.get(&subset) {
                Some(&sc) if sc >= count => {}
                other => {
                    return Err(MiningViolation::AntiMonotonicityBroken {
                        itemset: fi.itemset.clone(),
                        count,
                        subset,
                        subset_count: other.copied(),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Validates all three mining invariants (rules 1–3) at once.
pub fn validate_result(
    result: &MiningResult,
    catalog: &ItemCatalog,
    min_count: u64,
) -> Result<(), MiningViolation> {
    validate_itemsets(result, catalog)?;
    validate_min_support(result, min_count)?;
    validate_anti_monotone(result)
}

/// Panicking form of [`validate_result`], run by [`mine`](crate::mine) on
/// every result under the `debug-invariants` feature.
#[cfg(feature = "debug-invariants")]
#[expect(
    clippy::panic,
    reason = "an invariant violation is an internal bug: the assert helpers panic by design"
)]
pub(crate) fn assert_result(result: &MiningResult, catalog: &ItemCatalog, min_count: u64) {
    if let Err(v) = validate_result(result, catalog, min_count) {
        // An invariant violation is a miner bug, never a user error.
        panic!("hdx invariant violated: {v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::FrequentItemset;
    use hdx_data::AttrId;
    use hdx_items::{Item, ItemId};
    use hdx_stats::{Outcome, StatAccum};

    fn catalog() -> (ItemCatalog, Vec<ItemId>) {
        let mut c = ItemCatalog::new();
        let ids = vec![
            c.intern(Item::cat_eq(AttrId(0), 0, "a", "x")),
            c.intern(Item::cat_eq(AttrId(0), 1, "a", "y")),
            c.intern(Item::cat_eq(AttrId(1), 0, "b", "z")),
        ];
        (c, ids)
    }

    fn fi(items: Vec<ItemId>, n: usize) -> FrequentItemset {
        FrequentItemset {
            itemset: Itemset::from_sorted_unchecked(items),
            accum: StatAccum::from_outcomes(&vec![Outcome::Bool(true); n]),
        }
    }

    fn result(itemsets: Vec<FrequentItemset>) -> MiningResult {
        MiningResult::complete(
            itemsets,
            10,
            StatAccum::from_outcomes(&[Outcome::Bool(false); 10]),
        )
    }

    #[test]
    fn valid_result_passes_all_rules() {
        let (c, ids) = catalog();
        let r = result(vec![
            fi(vec![ids[0]], 5),
            fi(vec![ids[2]], 4),
            fi(vec![ids[0], ids[2]], 3),
        ]);
        assert!(validate_result(&r, &c, 3).is_ok());
    }

    #[test]
    fn same_attribute_pair_rejected() {
        let (c, ids) = catalog();
        let r = result(vec![fi(vec![ids[0], ids[1]], 5)]);
        assert!(matches!(
            validate_itemsets(&r, &c),
            Err(MiningViolation::Itemset(_))
        ));
    }

    #[test]
    fn under_supported_itemset_rejected() {
        let (_, ids) = catalog();
        let r = result(vec![fi(vec![ids[0]], 2)]);
        assert!(matches!(
            validate_min_support(&r, 3),
            Err(MiningViolation::BelowMinSupport { .. })
        ));
    }

    #[test]
    fn missing_subset_rejected() {
        let (_, ids) = catalog();
        // {a, b} mined without {b}.
        let r = result(vec![fi(vec![ids[0]], 5), fi(vec![ids[0], ids[2]], 3)]);
        let err = validate_anti_monotone(&r).unwrap_err();
        assert!(matches!(
            err,
            MiningViolation::AntiMonotonicityBroken {
                subset_count: None,
                ..
            }
        ));
    }

    #[test]
    fn under_counted_subset_rejected() {
        let (_, ids) = catalog();
        // {b} has count 2 < 3 of its superset {a, b}.
        let r = result(vec![
            fi(vec![ids[0]], 5),
            fi(vec![ids[2]], 2),
            fi(vec![ids[0], ids[2]], 3),
        ]);
        let err = validate_anti_monotone(&r).unwrap_err();
        assert!(matches!(
            err,
            MiningViolation::AntiMonotonicityBroken {
                subset_count: Some(2),
                ..
            }
        ));
    }
}
