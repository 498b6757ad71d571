//! The incremental lattice fold: mined itemsets with mergeable,
//! subtractable statistics.
//!
//! A full mining pass is the source of truth; [`LatticeView`] keeps its
//! result *live* between passes. An appended row only re-touches the
//! itemsets its items cover (subset test over sorted item lists), updating
//! each one's [`StatAccum`] with the exactness contract of the kernels:
//! counts and integer-valued sums bitwise-identical to from-scratch
//! accumulation, real sums ULP-bounded. A sliding window retires old rows
//! by subtracting their contribution ([`LatticeView::retract_batch`] /
//! [`StatAccum::unmerge`]).

use hdx_governor::fail_point;
use hdx_items::{ItemId, Itemset};
use hdx_mining::MiningResult;
use hdx_stats::{Outcome, StatAccum};

/// One row ready to fold: its (sorted) item list and its outcome.
pub type FoldRow = (Vec<ItemId>, Outcome);

/// A live view of the mined lattice: every frequent itemset of the last
/// full pass, with statistics that can be advanced (or rewound) row by row
/// without re-mining. The view re-ranks divergence *between* governed
/// re-mines; it never discovers new itemsets — that is the re-mine's job.
#[derive(Debug, Clone)]
pub struct LatticeView {
    itemsets: Vec<(Itemset, StatAccum)>,
    global: StatAccum,
    n_rows: u64,
}

impl LatticeView {
    /// Builds a view from a full mining pass.
    pub fn from_result(result: &MiningResult) -> Self {
        Self {
            itemsets: result
                .itemsets
                .iter()
                .map(|f| (f.itemset.clone(), f.accum.clone()))
                .collect(),
            global: result.global.clone(),
            n_rows: result.n_rows as u64,
        }
    }

    /// The tracked itemsets with their current statistics.
    pub fn itemsets(&self) -> &[(Itemset, StatAccum)] {
        &self.itemsets
    }

    /// The whole-dataset accumulator (`f(D)`).
    pub fn global(&self) -> &StatAccum {
        &self.global
    }

    /// Rows currently folded in.
    pub fn n_rows(&self) -> u64 {
        self.n_rows
    }

    /// Folds one row in: the global accumulator and every tracked itemset
    /// the row covers (its sorted `items` are a superset of the itemset)
    /// advance by this row's outcome.
    ///
    /// `items` must be sorted ascending (checked under debug assertions).
    pub fn apply(&mut self, items: &[ItemId], outcome: Outcome) {
        debug_assert!(
            items.windows(2).all(|w| w.first() < w.last()),
            "row items must be sorted"
        );
        fail_point!("ingest::fold");
        let mut touched = 0u64;
        for (itemset, accum) in &mut self.itemsets {
            if is_subset_sorted(itemset.items(), items) {
                // ALLOC: StatAccum::push is inline scalar arithmetic.
                accum.push(outcome);
                touched += 1;
            }
        }
        // ALLOC: StatAccum::push is inline scalar arithmetic.
        self.global.push(outcome);
        self.n_rows += 1;
        hdx_obs::counter_add!(IngestFoldRowsApplied, 1);
        hdx_obs::counter_add!(IngestFoldItemsetsTouched, touched);
        let _ = touched;
    }

    /// Rewinds one row ([`StatAccum::unmerge`] of a single-row
    /// accumulator): the exact inverse of [`LatticeView::apply`] for
    /// counts and integer-valued sums, ULP-bounded for real sums.
    pub fn retract(&mut self, items: &[ItemId], outcome: Outcome) {
        debug_assert!(
            items.windows(2).all(|w| w.first() < w.last()),
            "row items must be sorted"
        );
        fail_point!("ingest::fold");
        let one = StatAccum::from_outcomes(&[outcome]);
        for (itemset, accum) in &mut self.itemsets {
            if is_subset_sorted(itemset.items(), items) {
                accum.unmerge(&one);
            }
        }
        self.global.unmerge(&one);
        self.n_rows = self.n_rows.saturating_sub(1);
    }

    /// Folds a batch of rows, touching each tracked itemset once: the
    /// batch's delta is accumulated per itemset, then merged in one
    /// [`StatAccum::merge`]. Equivalent to applying every row in order.
    pub fn apply_batch(&mut self, rows: &[FoldRow]) {
        fail_point!("ingest::fold");
        for (itemset, accum) in &mut self.itemsets {
            let mut delta = StatAccum::new();
            let mut any = false;
            for (items, outcome) in rows {
                if is_subset_sorted(itemset.items(), items) {
                    // ALLOC: StatAccum::push is inline scalar arithmetic.
                    delta.push(*outcome);
                    any = true;
                }
            }
            if any {
                accum.merge(&delta);
            }
        }
        let mut global_delta = StatAccum::new();
        for (_, outcome) in rows {
            // ALLOC: StatAccum::push is inline scalar arithmetic.
            global_delta.push(*outcome);
        }
        self.global.merge(&global_delta);
        self.n_rows += rows.len() as u64;
        hdx_obs::counter_add!(IngestFoldRowsApplied, rows.len() as u64);
    }

    /// Rewinds a batch of rows (sliding-window retirement of a sealed WAL
    /// segment): each itemset's batch delta is subtracted in one
    /// [`StatAccum::unmerge`].
    pub fn retract_batch(&mut self, rows: &[FoldRow]) {
        fail_point!("ingest::fold");
        for (itemset, accum) in &mut self.itemsets {
            let mut delta = StatAccum::new();
            let mut any = false;
            for (items, outcome) in rows {
                if is_subset_sorted(itemset.items(), items) {
                    // ALLOC: StatAccum::push is inline scalar arithmetic.
                    delta.push(*outcome);
                    any = true;
                }
            }
            if any {
                accum.unmerge(&delta);
            }
        }
        let mut global_delta = StatAccum::new();
        for (_, outcome) in rows {
            // ALLOC: StatAccum::push is inline scalar arithmetic.
            global_delta.push(*outcome);
        }
        self.global.unmerge(&global_delta);
        self.n_rows = self.n_rows.saturating_sub(rows.len() as u64);
    }
}

/// `true` when sorted `sub` ⊆ sorted `sup` (two-pointer sorted merge).
fn is_subset_sorted(sub: &[ItemId], sup: &[ItemId]) -> bool {
    let mut sup_iter = sup.iter();
    'outer: for needle in sub {
        for cand in sup_iter.by_ref() {
            if cand == needle {
                continue 'outer;
            }
            if cand > needle {
                return false;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_mining::FrequentItemset;

    fn ids(raw: &[u32]) -> Vec<ItemId> {
        raw.iter().map(|&i| ItemId(i)).collect()
    }

    /// Deterministic pseudo-random rows: item lists over 6 items (at most
    /// one of {0,1}, {2,3}, {4,5} — one per "attribute") plus a boolean
    /// outcome.
    fn synth_rows(n: u64, seed: u64) -> Vec<FoldRow> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|_| {
                let r = next();
                let mut items = Vec::new();
                for attr in 0..3u32 {
                    match (r >> (attr * 2)) & 0b11 {
                        0 => items.push(ItemId(attr * 2)),
                        1 => items.push(ItemId(attr * 2 + 1)),
                        _ => {}
                    }
                }
                (items, Outcome::Bool(r & (1 << 40) != 0))
            })
            .collect()
    }

    fn tracked() -> Vec<Itemset> {
        vec![
            Itemset::from_sorted_unchecked(ids(&[0])),
            Itemset::from_sorted_unchecked(ids(&[2])),
            Itemset::from_sorted_unchecked(ids(&[0, 2])),
            Itemset::from_sorted_unchecked(ids(&[1, 4])),
            Itemset::from_sorted_unchecked(ids(&[0, 3, 5])),
        ]
    }

    /// From-scratch accumulation over `rows` for each tracked itemset.
    fn scratch(itemsets: &[Itemset], rows: &[FoldRow]) -> Vec<StatAccum> {
        itemsets
            .iter()
            .map(|itemset| {
                let outcomes: Vec<Outcome> = rows
                    .iter()
                    .filter(|(items, _)| is_subset_sorted(itemset.items(), items))
                    .map(|&(_, o)| o)
                    .collect();
                StatAccum::from_outcomes(&outcomes)
            })
            .collect()
    }

    fn empty_view() -> LatticeView {
        let frequent = tracked()
            .into_iter()
            .map(|itemset| FrequentItemset {
                itemset,
                accum: StatAccum::new(),
            })
            .collect();
        LatticeView::from_result(&MiningResult::complete(frequent, 0, StatAccum::new()))
    }

    fn assert_bitwise_eq(got: &StatAccum, want: &StatAccum, ctx: &str) {
        let (gn, gv, gs, gq) = got.raw_parts();
        let (wn, wv, ws, wq) = want.raw_parts();
        assert_eq!((gn, gv), (wn, wv), "{ctx}: counts");
        assert_eq!(gs.to_bits(), ws.to_bits(), "{ctx}: sum bitwise");
        assert_eq!(gq.to_bits(), wq.to_bits(), "{ctx}: sum_sq bitwise");
    }

    #[test]
    fn row_by_row_fold_is_bitwise_identical_to_from_scratch() {
        let rows = synth_rows(500, 0xFEED);
        let mut view = empty_view();
        for (items, outcome) in &rows {
            view.apply(items, *outcome);
        }
        assert_eq!(view.n_rows(), 500);
        let want = scratch(&tracked(), &rows);
        for ((itemset, got), want) in view.itemsets().iter().zip(&want) {
            assert_bitwise_eq(got, want, &format!("{:?}", itemset.items()));
        }
        assert_bitwise_eq(
            view.global(),
            &StatAccum::from_outcomes(&rows.iter().map(|&(_, o)| o).collect::<Vec<_>>()),
            "global",
        );
    }

    #[test]
    fn batch_fold_matches_row_by_row_on_booleans() {
        let rows = synth_rows(300, 0xBEEF);
        let mut one_by_one = empty_view();
        for (items, outcome) in &rows {
            one_by_one.apply(items, *outcome);
        }
        let mut batched = empty_view();
        batched.apply_batch(&rows);
        for ((_, a), (_, b)) in one_by_one.itemsets().iter().zip(batched.itemsets()) {
            assert_bitwise_eq(a, b, "batch vs row-by-row");
        }
        assert_eq!(one_by_one.n_rows(), batched.n_rows());
    }

    #[test]
    fn sliding_window_retract_restores_the_prefix_view() {
        let window_a = synth_rows(200, 1);
        let window_b = synth_rows(150, 2);
        let mut view = empty_view();
        view.apply_batch(&window_a);
        let snapshot: Vec<StatAccum> = view.itemsets().iter().map(|(_, a)| a.clone()).collect();
        view.apply_batch(&window_b);
        view.retract_batch(&window_b);
        assert_eq!(view.n_rows(), 200);
        for ((itemset, got), want) in view.itemsets().iter().zip(&snapshot) {
            assert_bitwise_eq(got, want, &format!("retract {:?}", itemset.items()));
        }
    }

    #[test]
    fn retract_single_inverts_apply_single() {
        let mut view = empty_view();
        let rows = synth_rows(50, 7);
        view.apply_batch(&rows);
        let snapshot: Vec<StatAccum> = view.itemsets().iter().map(|(_, a)| a.clone()).collect();
        let extra = (ids(&[0, 2, 4]), Outcome::Bool(true));
        view.apply(&extra.0, extra.1);
        view.retract(&extra.0, extra.1);
        for ((_, got), want) in view.itemsets().iter().zip(&snapshot) {
            assert_bitwise_eq(got, want, "single retract");
        }
    }

    #[test]
    fn real_outcomes_fold_within_ulp_bounds() {
        let rows: Vec<FoldRow> = (0..100)
            .map(|i| (ids(&[0, 2]), Outcome::Real(0.1 * (i as f64) - 3.7)))
            .collect();
        let mut view = empty_view();
        view.apply_batch(&rows);
        let want = scratch(&tracked(), &rows);
        for ((_, got), want) in view.itemsets().iter().zip(&want) {
            let (_, _, gs, gq) = got.raw_parts();
            let (_, _, ws, wq) = want.raw_parts();
            assert!(
                (gs - ws).abs() <= 1e-9 * ws.abs().max(1.0),
                "sum {gs} vs {ws}"
            );
            assert!(
                (gq - wq).abs() <= 1e-9 * wq.abs().max(1.0),
                "sum_sq {gq} vs {wq}"
            );
        }
    }

    #[test]
    fn undefined_outcomes_count_rows_but_not_valids() {
        let mut view = empty_view();
        view.apply(&ids(&[0, 2]), Outcome::Undefined);
        view.apply(&ids(&[0, 2]), Outcome::Bool(true));
        let (n, n_valid, _, _) = view.global().raw_parts();
        assert_eq!((n, n_valid), (2, 1));
    }

    #[test]
    fn subset_test_agrees_with_itemset_superset() {
        let sub = ids(&[1, 4]);
        assert!(is_subset_sorted(&sub, &ids(&[1, 2, 4])));
        assert!(is_subset_sorted(&sub, &ids(&[1, 4])));
        assert!(!is_subset_sorted(&sub, &ids(&[1, 5])));
        assert!(!is_subset_sorted(&sub, &ids(&[4])));
        assert!(is_subset_sorted(&[], &ids(&[3])));
        assert!(!is_subset_sorted(&sub, &[]));
    }
}
