//! Integration tests for the run governor: deadlines, budgets, cooperative
//! cancellation, and the graceful-degradation guarantee — a truncated run's
//! itemsets are an *exact subset* of the unbounded run's, for the serial
//! search, the worker pool and the full H-DivExplorer pipeline.

use h_divexplorer::core::{ExplorationMode, HDivExplorerConfig, OutcomeFn, Termination};
use h_divexplorer::datasets::{compas, synthetic_peak};
use h_divexplorer::governor::{CancelReason, CancelToken, Governor, RunBudget};
use h_divexplorer::items::{Item, ItemCatalog, ItemId, Itemset};
use h_divexplorer::mining::{mine, mine_governed, MiningConfig, Transactions};
use h_divexplorer::stats::Outcome;
use hdx_bench::experiments::{outcomes_for, pipeline_for};
use std::collections::BTreeMap;
use std::time::Duration;

/// Thread counts covering both ways the search runs its root loop: on the
/// calling thread alone and in the worker pool.
const THREADS: [usize; 2] = [1, 4];

/// A small deterministic transaction database with enough co-occurrence
/// structure to produce a few dozen frequent itemsets at s = 0.1.
fn fixture() -> (Transactions, ItemCatalog) {
    let mut catalog = ItemCatalog::new();
    let ids: Vec<ItemId> = (0..6)
        .map(|i| {
            catalog.intern(Item::cat_eq(
                h_divexplorer::data::AttrId(i as u16),
                0,
                &format!("a{i}"),
                "v",
            ))
        })
        .collect();
    let mut rows = Vec::new();
    let mut outcomes = Vec::new();
    for r in 0..200usize {
        // Item k appears in rows where r has bit k of a mixed pattern set;
        // the mix keeps every pair/triple frequency distinct but stable.
        let row: Vec<ItemId> = (0..6)
            .filter(|k| (r * (k + 3) / 7 + r / (k + 1)) % (k + 2) == 0)
            .map(|k| ids[k])
            .collect();
        rows.push(row);
        outcomes.push(if r % 3 == 0 {
            Outcome::Bool(r % 2 == 0)
        } else {
            Outcome::Real((r % 10) as f64)
        });
    }
    (Transactions::from_rows(rows, outcomes), catalog)
}

/// (itemset → count) map for subset comparison.
fn counts(itemsets: &[h_divexplorer::mining::FrequentItemset]) -> BTreeMap<Itemset, u64> {
    itemsets
        .iter()
        .map(|fi| (fi.itemset.clone(), fi.accum.count()))
        .collect()
}

/// For the serial search and the worker pool, a budget-truncated run
/// returns an exact subset of the unbounded run — same itemsets, same
/// counts.
#[test]
fn truncated_results_are_exact_subsets_for_every_miner() {
    let (transactions, catalog) = fixture();
    for threads in THREADS {
        let config = MiningConfig {
            min_support: 0.1,
            max_len: None,
            threads,
        };
        let full = mine(&transactions, &catalog, &config);
        assert_eq!(full.termination, Termination::Complete, "threads={threads}");
        let full_counts = counts(&full.itemsets);
        assert!(
            full_counts.len() > 8,
            "threads={threads}: fixture too sparse"
        );

        for cap in [1u64, 3, 7, full_counts.len() as u64 - 1] {
            let governor = Governor::new(RunBudget::unbounded().with_max_itemsets(cap));
            let truncated = mine_governed(&transactions, &catalog, &config, &governor);
            assert_eq!(
                truncated.termination,
                Termination::BudgetExhausted,
                "threads={threads} cap={cap}"
            );
            assert!(
                truncated.itemsets.len() as u64 <= cap,
                "threads={threads} cap={cap}: {} itemsets",
                truncated.itemsets.len()
            );
            for (itemset, count) in counts(&truncated.itemsets) {
                assert_eq!(
                    full_counts.get(&itemset),
                    Some(&count),
                    "threads={threads} cap={cap}: {itemset:?} not an exact subset entry"
                );
            }
        }
    }
}

/// A pre-cancelled token stops the search before it emits anything, at
/// every thread count.
#[test]
fn cancellation_stops_every_miner() {
    let (transactions, catalog) = fixture();
    let token = CancelToken::new();
    token.cancel();
    for threads in THREADS {
        let config = MiningConfig {
            min_support: 0.1,
            max_len: None,
            threads,
        };
        let governor = Governor::with_token(RunBudget::unbounded(), token.clone());
        let result = mine_governed(&transactions, &catalog, &config, &governor);
        assert_eq!(
            result.termination,
            Termination::Cancelled(CancelReason::User),
            "threads={threads}"
        );
        assert!(result.itemsets.is_empty(), "threads={threads}");
    }
}

/// An already-expired deadline degrades to an empty-but-valid result.
#[test]
fn expired_deadline_degrades_every_miner() {
    let (transactions, catalog) = fixture();
    for threads in THREADS {
        let config = MiningConfig {
            min_support: 0.1,
            max_len: None,
            threads,
        };
        let governor = Governor::new(RunBudget::unbounded().with_deadline(Duration::ZERO));
        let result = mine_governed(&transactions, &catalog, &config, &governor);
        assert_eq!(
            result.termination,
            Termination::DeadlineExceeded,
            "threads={threads}"
        );
    }
}

/// Tier-1 fixtures under a generous budget terminate `Complete` and match
/// the ungoverned run exactly — the governor never perturbs a full run.
#[test]
fn generous_budget_is_invisible_on_tier1_fixtures() {
    for dataset in [compas(400, 7), synthetic_peak(400, 7)] {
        let outcomes = outcomes_for(&dataset);
        let config = HDivExplorerConfig {
            min_support: 0.05,
            ..HDivExplorerConfig::default()
        };
        let free = pipeline_for(&dataset, config).fit_mode(
            &dataset.frame,
            &outcomes,
            ExplorationMode::Generalized,
        );
        let governed_config = HDivExplorerConfig {
            budget: RunBudget::unbounded()
                .with_deadline(Duration::from_secs(600))
                .with_max_itemsets(1_000_000),
            ..config
        };
        let governed = pipeline_for(&dataset, governed_config).fit_mode(
            &dataset.frame,
            &outcomes,
            ExplorationMode::Generalized,
        );
        assert_eq!(
            governed.termination(),
            Termination::Complete,
            "{}",
            dataset.name
        );
        assert!(!governed.is_partial(), "{}", dataset.name);
        assert_eq!(
            governed.report.records.len(),
            free.report.records.len(),
            "{}",
            dataset.name
        );
    }
}

/// The pathological acceptance scenario end to end: a tight itemset budget
/// plus a wall-clock deadline on a low-support run still yields non-empty
/// partial results and a truthful termination reason.
#[test]
fn pathological_pipeline_run_degrades_instead_of_dying() {
    let dataset = compas(1500, 3);
    let outcomes = dataset.classification_outcomes(OutcomeFn::Fpr);
    let config = HDivExplorerConfig {
        min_support: 0.01,
        budget: RunBudget::unbounded()
            .with_max_itemsets(8)
            .with_deadline(Duration::from_secs(30)),
        ..HDivExplorerConfig::default()
    };
    let result = pipeline_for(&dataset, config).fit_mode(
        &dataset.frame,
        &outcomes,
        ExplorationMode::Generalized,
    );
    assert_eq!(result.termination(), Termination::BudgetExhausted);
    assert!(result.is_partial());
    assert!(!result.report.records.is_empty());
    assert!(result.report.records.len() <= 8);
    assert_eq!(result.counters().itemsets, 8);
}

/// With `adaptive_support`, the same budget produces a *complete* (coarser)
/// run instead of a truncated one.
#[test]
fn adaptive_support_completes_within_budget() {
    let dataset = compas(800, 3);
    let outcomes = dataset.classification_outcomes(OutcomeFn::Fpr);
    // Measure how many subgroups a coarse support yields, then demand that
    // count as the budget of a run starting at 0.025: the doubling retry
    // ladder (0.05 → 0.1 → 0.2) lands exactly on the measured support, where
    // the count fits the budget and the run completes.
    let coarse = HDivExplorerConfig {
        min_support: 0.2,
        ..HDivExplorerConfig::default()
    };
    let cap = pipeline_for(&dataset, coarse)
        .fit_mode(&dataset.frame, &outcomes, ExplorationMode::Base)
        .report
        .records
        .len() as u64;
    let config = HDivExplorerConfig {
        min_support: 0.025,
        budget: RunBudget::unbounded().with_max_itemsets(cap),
        adaptive_support: true,
        ..HDivExplorerConfig::default()
    };
    let result =
        pipeline_for(&dataset, config).fit_mode(&dataset.frame, &outcomes, ExplorationMode::Base);
    assert_eq!(result.termination(), Termination::Complete);
    assert!(result.adaptive_retries > 0);
    assert!(result.effective_min_support > 0.025);
}

/// §ISSUE (observability): [`Governor::snapshot`] observed at arbitrary
/// points of a charged run is monotone — elapsed time and every charge
/// counter never decrease, the remaining deadline never increases, and a
/// snapshot taken after a trip still reports the accumulated charges.
#[test]
fn governor_snapshots_are_monotone_across_a_charged_run() {
    let governor = Governor::new(
        RunBudget::unbounded()
            .with_deadline(Duration::from_secs(600))
            .with_max_itemsets(75),
    );
    let mut prev = governor.snapshot();
    for step in 0..50u64 {
        // Interleave every charge path the miners use.
        governor.record_itemsets(2);
        governor.record_candidate_bytes(64 * (step + 1));
        if step % 3 == 0 {
            governor.record_tree_nodes(1);
        }
        let _ = governor.keep_going();
        let snap = governor.snapshot();
        assert!(
            snap.elapsed >= prev.elapsed,
            "step {step}: elapsed went back"
        );
        assert!(
            snap.itemsets >= prev.itemsets,
            "step {step}: itemsets shrank"
        );
        assert!(
            snap.candidate_bytes >= prev.candidate_bytes,
            "step {step}: candidate_bytes shrank"
        );
        assert!(
            snap.tree_nodes >= prev.tree_nodes,
            "step {step}: tree_nodes shrank"
        );
        assert!(snap.checks >= prev.checks, "step {step}: checks shrank");
        let (now, before) = (
            snap.deadline_remaining.expect("deadline set"),
            prev.deadline_remaining.expect("deadline set"),
        );
        assert!(now <= before, "step {step}: deadline remaining grew");
        prev = snap;
    }
    // 50 steps × 2 itemsets blew the 75-itemset budget mid-run: the final
    // snapshot reports the trip, and the overflowing charge was rolled back
    // (74 charged, never more than the cap).
    assert_eq!(prev.termination, Termination::BudgetExhausted);
    assert_eq!(prev.itemsets, 74);
    assert!(prev.checks > 0);
}

/// Cancelling from another thread mid-run stops the pipeline cooperatively.
#[test]
fn cross_thread_cancellation_is_cooperative() {
    let dataset = compas(1500, 3);
    let outcomes = dataset.classification_outcomes(OutcomeFn::Fpr);
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            token.cancel();
        })
    };
    let config = HDivExplorerConfig {
        min_support: 0.005,
        ..HDivExplorerConfig::default()
    };
    let result = pipeline_for(&dataset, config)
        .with_cancel_token(token)
        .fit_mode(&dataset.frame, &outcomes, ExplorationMode::Generalized);
    canceller.join().expect("canceller thread");
    // Either the run was fast enough to finish, or it reports Cancelled;
    // it must never panic or return a corrupt report.
    assert!(matches!(
        result.termination(),
        Termination::Complete | Termination::Cancelled(_)
    ));
}
