//! Checkpoint/resume integration: conversions between mining types and the
//! plain-data snapshots of [`hdx_checkpoint`], plus the checkpointed mining
//! entry point.
//!
//! The miner checkpoints at **work boundaries** — after each fully-explored
//! first-level subtree — because those are the only points where "emitted
//! so far" plus a small cursor reproduces the interrupted traversal
//! exactly. The serial search is deterministic, so a resumed run emits the
//! same itemsets in the same order as an uninterrupted one. A worker pool
//! has no stable boundary order across thread interleavings, so
//! checkpointed mining always runs serially, whatever
//! [`MiningConfig::threads`] says.

use hdx_checkpoint::{
    AccumSnapshot, CheckpointError, Checkpointer, CounterSnapshot, ItemsetSnapshot, MiningProgress,
};
use hdx_governor::Governor;
use hdx_items::{ItemCatalog, ItemId, Itemset};
use hdx_stats::StatAccum;

use crate::result::{FrequentItemset, MiningResult};
use crate::transactions::Transactions;
use crate::MiningConfig;

/// Snapshots one emitted itemset into plain data (exact: raw accumulator
/// sums, not derived statistics).
pub fn snapshot_itemset(fi: &FrequentItemset) -> ItemsetSnapshot {
    let (n, n_valid, sum, sum_sq) = fi.accum.raw_parts();
    ItemsetSnapshot {
        items: fi.itemset.items().iter().map(|i| i.0).collect(),
        accum: AccumSnapshot {
            n,
            n_valid,
            sum,
            sum_sq,
        },
    }
}

/// Rebuilds an emitted itemset from its snapshot, bit for bit.
pub fn restore_itemset(snap: &ItemsetSnapshot) -> FrequentItemset {
    FrequentItemset {
        itemset: Itemset::from_sorted_unchecked(snap.items.iter().map(|&i| ItemId(i)).collect()),
        accum: StatAccum::from_sums(
            snap.accum.n,
            snap.accum.n_valid,
            snap.accum.sum,
            snap.accum.sum_sq,
        ),
    }
}

/// Builds the boundary progress snapshot the miner hands to the
/// [`Checkpointer`].
pub(crate) fn progress_snapshot(
    cursor: u64,
    n_rows: usize,
    out: &[FrequentItemset],
    governor: &Governor,
) -> MiningProgress {
    let c = governor.counters();
    MiningProgress {
        cursor,
        n_rows: n_rows as u64,
        emitted: out.iter().map(snapshot_itemset).collect(),
        counters: CounterSnapshot {
            itemsets: c.itemsets,
            candidate_bytes: c.candidate_bytes,
            tree_nodes: c.tree_nodes,
        },
    }
}

/// Checks that a loaded [`MiningProgress`] belongs to this run before it is
/// resumed: it must cover the same transaction count.
///
/// # Errors
/// [`CheckpointError::Corrupt`] naming the disagreeing count.
pub fn validate_resume(
    progress: &MiningProgress,
    transactions: &Transactions,
) -> Result<(), CheckpointError> {
    if progress.n_rows != transactions.n_rows() as u64 {
        return Err(CheckpointError::Corrupt {
            message: format!(
                "checkpoint covers {} rows, this dataset has {}",
                progress.n_rows,
                transactions.n_rows()
            ),
        });
    }
    Ok(())
}

/// [`mine_governed`](crate::mine_governed) with crash-safe checkpointing:
/// the miner records a boundary into `ckpt` after every completed subtree
/// and flushes a final checkpoint when it stops — normal completion and
/// governor trips alike. The search runs serially whatever
/// [`MiningConfig::threads`] says (see the module docs).
///
/// `resume` restarts the traversal from a boundary previously captured by
/// this function (validate it with [`validate_resume`] first). The serial
/// search is deterministic, so resuming reproduces exactly the itemsets an
/// uninterrupted run would have produced.
///
/// # Panics
/// Panics when `config.min_support` is outside `(0, 1]` (and, under
/// `debug-invariants`, when a complete non-resumed result violates a
/// lattice invariant).
pub fn mine_governed_ckpt(
    transactions: &Transactions,
    catalog: &ItemCatalog,
    config: &MiningConfig,
    governor: &Governor,
    ckpt: &mut Checkpointer,
    resume: Option<&MiningProgress>,
) -> MiningResult {
    assert!(
        config.min_support > 0.0 && config.min_support <= 1.0,
        "min_support must be in (0, 1]"
    );
    debug_assert!(
        resume.is_none_or(|p| validate_resume(p, transactions).is_ok()),
        "resume progress must be validated against this run"
    );
    hdx_obs::span!("mine_ckpt");
    // Guarantee the run leaves a checkpoint even if it trips inside its
    // first work unit: stash the incoming progress (resume) or a
    // zero-progress snapshot (fresh run) for `finalize` to flush. A
    // cursor-0 checkpoint means "mining not yet started", so it resumes as
    // a fresh traversal — the governor counters were preloaded upstream.
    ckpt.seed(
        resume
            .cloned()
            .unwrap_or_else(|| progress_snapshot(0, transactions.n_rows(), &[], governor)),
    );
    let resume = resume.filter(|p| p.cursor > 0);
    let result =
        crate::vertical::vertical_run(transactions, catalog, config, governor, Some(ckpt), resume);
    ckpt.finalize();
    #[cfg(feature = "obs")]
    governor.record_obs_snapshot(0);
    hdx_obs::counter_add!(MineItemsetsEmitted, result.itemsets.len() as u64);
    #[cfg(feature = "debug-invariants")]
    if resume.is_none() && result.termination.is_complete() && result.errors.is_empty() {
        crate::invariants::assert_result(&result, catalog, config.min_count(transactions.n_rows()));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_data::AttrId;
    use hdx_items::Item;
    use hdx_stats::Outcome;

    fn snapshot_round_trip_case(items: Vec<u32>, outcomes: &[Outcome]) {
        let mut accum = StatAccum::new();
        for &o in outcomes {
            accum.push(o);
        }
        let fi = FrequentItemset {
            itemset: Itemset::from_sorted_unchecked(items.iter().map(|&i| ItemId(i)).collect()),
            accum,
        };
        let restored = restore_itemset(&snapshot_itemset(&fi));
        assert_eq!(restored.itemset, fi.itemset);
        assert_eq!(restored.accum, fi.accum);
    }

    #[test]
    fn itemset_snapshots_are_exact() {
        snapshot_round_trip_case(vec![3], &[Outcome::Bool(true), Outcome::Undefined]);
        snapshot_round_trip_case(
            vec![0, 7, 19],
            &[Outcome::Real(0.1), Outcome::Real(-2.5), Outcome::Real(1e-9)],
        );
        snapshot_round_trip_case(vec![2, 5], &[]);
    }

    #[test]
    fn resume_validation_rejects_mismatches() {
        let mut catalog = ItemCatalog::new();
        let a = catalog.intern(Item::cat_eq(AttrId(0), 0, "a", "0"));
        let t = Transactions::from_rows(vec![vec![a]; 4], vec![Outcome::Bool(true); 4]);
        let ok = MiningProgress {
            cursor: 0,
            n_rows: 4,
            emitted: vec![],
            counters: CounterSnapshot::default(),
        };
        assert!(validate_resume(&ok, &t).is_ok());
        let wrong_rows = MiningProgress {
            n_rows: 5,
            ..ok.clone()
        };
        assert!(validate_resume(&wrong_rows, &t).is_err());
    }
}
