//! Crash-safe checkpoint/resume for the full pipeline (DESIGN.md §12).
//!
//! A checkpointed run is a fit: [`HDivExplorer::fit_checkpointed`] and
//! [`HDivExplorer::resume_checkpointed`] run the stage sequence of
//! [`HDivExplorer::fit_mode`] (discretize, encode, the adaptive-support
//! ladder, the stage-governor merge), and only the mining call of each rung
//! differs. This module holds the checkpoint work around that call. Only
//! the mining traversal is persisted; a resume re-runs the cheap
//! deterministic stages from the caller's data frame. Before any persisted
//! state is trusted, three identities must match the checkpoint:
//!
//! 1. the **dataset fingerprint** (schema, every cell, every outcome);
//! 2. the **configuration fingerprint** (effective support thresholds,
//!    criterion, exploration mode — *not* the budget, since resuming with a
//!    different budget is the whole point);
//! 3. the **trees fingerprint** of the regrown discretization trees,
//!    proving the recomputation reproduced the item catalog the checkpoint
//!    was built on.
//!
//! The first two are checked before the fit, so a refused resume costs no
//! discretization; the third after it. Checkpointed mining always runs the
//! serial search, which is deterministic, so a resumed run returns
//! bit-for-bit the report an uninterrupted run would have produced.

use hdx_checkpoint::{
    verify_identity, CheckpointError, CheckpointStore, Checkpointer, Fingerprint, LoadedCheckpoint,
    MiningProgress,
};
use hdx_data::{AttributeKind, DataFrame};
use hdx_discretize::{DiscretizationTree, GainCriterion};
use hdx_governor::{CancelToken, Governor, RunBudget, RunCounters};
use hdx_items::ItemCatalog;
use hdx_mining::{mine_governed_ckpt, validate_resume, MiningConfig, MiningResult, Transactions};
use hdx_stats::Outcome;

use crate::error::CoreError;
use crate::hdivexplorer::{ExplorationMode, HDivExplorer, HDivExplorerConfig, HDivResult};

/// Content fingerprint of a dataset + outcome vector: schema (names and
/// kinds), every cell (NaN-canonicalised), every outcome. A single edited
/// cell moves the fingerprint, so a checkpoint can never be resumed against
/// the wrong data.
pub fn fingerprint_dataset(df: &DataFrame, outcomes: &[Outcome]) -> u64 {
    let mut f = Fingerprint::new();
    f.write_u64(df.n_rows() as u64);
    for (attr, attribute) in df.schema().iter() {
        f.write_str(attribute.name());
        match attribute.kind() {
            AttributeKind::Continuous => {
                f.write_u8(0);
                for &v in df.continuous(attr).values() {
                    f.write_f64(v);
                }
            }
            AttributeKind::Categorical => {
                f.write_u8(1);
                let column = df.categorical(attr);
                f.write_u64(column.n_levels() as u64);
                for level in column.levels() {
                    f.write_str(level);
                }
                for &code in column.codes() {
                    f.write_u64(code as u64);
                }
            }
        }
    }
    f.write_u64(outcomes.len() as u64);
    for outcome in outcomes {
        f.write_opt_f64(outcome.value());
    }
    f.finish()
}

/// Content fingerprint of the discretization trees: each tree's attribute
/// and every field of every node, in creation order. A resume regrows the
/// trees and compares this against the checkpoint's, so the item ids its
/// emitted itemsets name are the ids this run interned.
pub fn fingerprint_trees(trees: &[DiscretizationTree]) -> u64 {
    let mut f = Fingerprint::new();
    f.write_u64(trees.len() as u64);
    for tree in trees {
        f.write_u64(u64::from(tree.attr.0));
        f.write_u64(tree.nodes.len() as u64);
        for node in &tree.nodes {
            f.write_f64(node.interval.lo).write_f64(node.interval.hi);
            // Item ids are `u32`, so `u64::MAX` is no item's id.
            f.write_u64(node.item.map_or(u64::MAX, |i| u64::from(i.0)));
            f.write_f64(node.support);
            f.write_opt_f64(node.statistic)
                .write_opt_f64(node.divergence);
            f.write_u64(node.children.len() as u64);
            for &child in &node.children {
                f.write_u64(child as u64);
            }
            f.write_u64(node.depth as u64);
        }
    }
    f.finish()
}

/// Fingerprint of the result-determining configuration at an effective
/// minimum support.
///
/// Deliberately excluded: the budget and the cancel token (resuming under a
/// *different* budget is the point of checkpointing), `adaptive_support`
/// (its effect is entirely captured by the effective `min_support` passed
/// here) and `threads` (checkpointed runs always mine serially).
/// `polarity_pruning` is excluded because the checkpointed entry points
/// refuse it.
pub fn fingerprint_config(
    config: &HDivExplorerConfig,
    mode: ExplorationMode,
    min_support: f64,
) -> u64 {
    let mut f = Fingerprint::new();
    f.write_f64(min_support);
    f.write_f64(config.tree_min_support);
    f.write_u8(match config.criterion {
        GainCriterion::Entropy => 0,
        GainCriterion::Divergence => 1,
    });
    // The slot of the tree-depth cap, which was always unset: kept, so
    // that config fingerprints (and checkpoint headers) stay the same.
    f.write_u64(u64::MAX);
    f.write_u64(config.max_len.map_or(u64::MAX, |l| l as u64));
    f.write_u8(match mode {
        ExplorationMode::Base => 0,
        ExplorationMode::Generalized => 1,
    });
    f.finish()
}

/// The outcome of a checkpointed (or resumed) pipeline run.
#[derive(Debug, Clone)]
pub struct CheckpointedRun {
    /// The pipeline result — identical to what an uninterrupted
    /// [`HDivExplorer::fit_mode`] run would return.
    pub result: HDivResult,
    /// Checkpoints durably written during this process's lifetime.
    pub checkpoint_writes: u64,
    /// The last non-fatal checkpoint write failure, if any (the run keeps
    /// mining when a checkpoint cannot be written; durability degrades,
    /// results don't).
    pub checkpoint_error: Option<String>,
    /// Sequence number of the checkpoint this run resumed from
    /// (`None` for fresh runs).
    pub resumed_seq: Option<u64>,
    /// Corrupt or truncated newer checkpoint files that were skipped before
    /// a valid one loaded during resume.
    pub rejected_checkpoints: u64,
}

impl HDivExplorer {
    /// Runs the full pipeline with crash-safe checkpointing: mining state is
    /// persisted into `store` after every completed search root (the only
    /// cadence), and once more when mining stops with progress not yet
    /// durable (a stop before the first root, or a failed last write). A
    /// killed process continues from its last root via
    /// [`resume_checkpointed`](Self::resume_checkpointed) instead of
    /// restarting from zero.
    ///
    /// # Errors
    /// [`CoreError::OutcomeLengthMismatch`] / [`CoreError::InvalidParameter`]
    /// on malformed input; `polarity_pruning` is refused (the polarity
    /// search's per-polarity passes have no single replayable emission
    /// order).
    pub fn fit_checkpointed(
        &self,
        df: &DataFrame,
        outcomes: &[Outcome],
        mode: ExplorationMode,
        store: CheckpointStore,
    ) -> Result<CheckpointedRun, CoreError> {
        self.run_checkpointed(df, outcomes, mode, store, false)
    }

    /// Resumes a run persisted by [`fit_checkpointed`](Self::fit_checkpointed)
    /// from the newest valid checkpoint in `store`, writing a checkpoint
    /// after every root it completes.
    ///
    /// The checkpoint's dataset and configuration fingerprints are checked
    /// first; the cheap stages (discretization, transaction encoding) are
    /// then recomputed from `df`/`outcomes`, and the regrown trees checked,
    /// before any mining state is trusted. Budget work counters continue
    /// from the checkpoint; the deadline clock restarts (a dead process's
    /// wall time is not billed to its successor).
    ///
    /// # Errors
    /// Everything [`fit_checkpointed`](Self::fit_checkpointed) returns, plus
    /// [`CoreError::Checkpoint`] when no valid checkpoint exists or an
    /// identity fingerprint disagrees.
    pub fn resume_checkpointed(
        &self,
        df: &DataFrame,
        outcomes: &[Outcome],
        mode: ExplorationMode,
        store: CheckpointStore,
    ) -> Result<CheckpointedRun, CoreError> {
        self.run_checkpointed(df, outcomes, mode, store, true)
    }

    fn run_checkpointed(
        &self,
        df: &DataFrame,
        outcomes: &[Outcome],
        mode: ExplorationMode,
        store: CheckpointStore,
        resume: bool,
    ) -> Result<CheckpointedRun, CoreError> {
        self.validate_inputs(df, outcomes)?;
        if self.config.polarity_pruning {
            return Err(CoreError::InvalidParameter {
                name: "polarity_pruning",
                message: "polarity-pruned mining cannot be checkpointed (no single \
                          replayable emission order); disable one of the two"
                    .into(),
            });
        }
        let dataset_fingerprint = fingerprint_dataset(df, outcomes);
        let config_fingerprints: Vec<u64> = self
            .config
            .support_ladder()
            .iter()
            .map(|&s| fingerprint_config(&self.config, mode, s))
            .collect();
        let mut first_rung = 0;
        let loaded = if resume {
            let loaded = store.load_latest()?;
            let state = &loaded.state;
            // A checkpoint written mid-retry names its rung through the
            // config fingerprint.
            first_rung = config_fingerprints
                .iter()
                .position(|&fp| fp == state.config_fingerprint)
                .ok_or(CheckpointError::FingerprintMismatch {
                    field: "config",
                    expected: state.config_fingerprint,
                    found: config_fingerprints[0],
                })?;
            // Refuse other data before the fit; the trees it regrows are
            // checked after it.
            let (config, trees) = (state.config_fingerprint, state.trees_fingerprint);
            verify_identity(state, dataset_fingerprint, config, trees)?;
            Some(loaded)
        } else {
            None
        };
        let fit = self.discretize_and_encode(df, outcomes, mode);
        let trees_fingerprint = fingerprint_trees(&fit.trees);
        if let Some(LoadedCheckpoint { state, .. }) = &loaded {
            let config = state.config_fingerprint;
            verify_identity(state, dataset_fingerprint, config, trees_fingerprint)?;
            validate_resume(&state.progress, &fit.transactions)?;
        }
        let (resumed_seq, rejected_checkpoints) = loaded
            .as_ref()
            .map_or((None, 0), |l| (Some(l.seq), l.rejected));
        let mut checkpointing = Checkpointing {
            ckpt: Checkpointer::new(store, dataset_fingerprint, trees_fingerprint),
            config_fingerprints,
            progress: loaded.map(|l| l.state.progress),
        };
        let result = self.mine_ladder(fit, first_rung, Some(&mut checkpointing));
        let ckpt = checkpointing.ckpt;
        Ok(CheckpointedRun {
            result,
            checkpoint_writes: ckpt.writes(),
            checkpoint_error: ckpt.last_error().map(ToString::to_string),
            resumed_seq,
            rejected_checkpoints,
        })
    }
}

/// The checkpoint side of one checkpointed fit: its one checkpointer, the
/// config fingerprint of each rung of the support ladder, and the progress
/// a resume continues from.
pub(crate) struct Checkpointing {
    ckpt: Checkpointer,
    config_fingerprints: Vec<u64>,
    /// The loaded progress of a resume, taken by the first rung mined.
    progress: Option<MiningProgress>,
}

impl Checkpointing {
    /// Mines one rung serially, checkpointing under the rung's config
    /// fingerprint. The first rung of a resume continues from the loaded
    /// progress, with the governor preloaded with its charged counters;
    /// adaptive retries restart mining from scratch at the coarser support.
    pub(crate) fn mine_rung(
        &mut self,
        rung: usize,
        transactions: &Transactions,
        catalog: &ItemCatalog,
        mining: &MiningConfig,
        budget: RunBudget,
        cancel: &CancelToken,
    ) -> (MiningResult, Governor) {
        self.ckpt.arm(self.config_fingerprints[rung]);
        let progress = self.progress.take();
        let governor = match &progress {
            Some(p) => Governor::resumed_with_token(
                budget,
                cancel.clone(),
                RunCounters {
                    itemsets: p.counters.itemsets,
                    candidate_bytes: p.counters.candidate_bytes,
                    tree_nodes: p.counters.tree_nodes,
                    ..RunCounters::default()
                },
            ),
            None => Governor::with_token(budget, cancel.clone()),
        };
        let mined = mine_governed_ckpt(
            transactions,
            catalog,
            mining,
            &governor,
            &mut self.ckpt,
            progress.as_ref(),
        );
        (mined, governor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome_fn::OutcomeFn;
    use hdx_checkpoint::codec::ByteWriter;
    use hdx_checkpoint::{envelope, CheckpointState};
    use hdx_data::{DataFrameBuilder, Value};
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};
    use std::fs;
    use std::path::PathBuf;
    use std::time::Duration;

    fn setup(n: usize) -> (DataFrame, Vec<Outcome>) {
        let mut rng = StdRng::seed_from_u64(29);
        let mut b = DataFrameBuilder::new();
        b.add_continuous("x").unwrap();
        b.add_categorical("g").unwrap();
        let mut y_true = Vec::new();
        let mut y_pred = Vec::new();
        for _ in 0..n {
            let x: f64 = rng.random_range(0.0..100.0);
            let g = ["a", "b", "c"][rng.random_range(0..3usize)];
            b.push_row(vec![Value::Num(x), Value::Cat(g.into())])
                .unwrap();
            let truth = rng.random::<f64>() < 0.5;
            let err = x > 55.0 && g == "b" && rng.random::<f64>() < 0.85;
            y_true.push(truth);
            y_pred.push(truth != err);
        }
        (b.finish(), OutcomeFn::ErrorRate.compute(&y_true, &y_pred))
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hdx-core-resume-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The report as JSON, with the wall-clock time pinned to zero.
    fn json_bytes(result: &HDivResult) -> String {
        let mut report = result.report.clone();
        report.elapsed = Duration::ZERO;
        crate::report_to_json(&report, &result.catalog)
    }

    #[test]
    fn fresh_checkpointed_run_matches_plain_fit() {
        let (df, outcomes) = setup(600);
        let dir = tmp_dir("fresh");
        let config = HDivExplorerConfig {
            min_support: 0.05,
            ..HDivExplorerConfig::default()
        };
        let pipeline = HDivExplorer::new(config);
        let plain = pipeline.fit_mode(&df, &outcomes, ExplorationMode::Generalized);
        let run = pipeline
            .fit_checkpointed(
                &df,
                &outcomes,
                ExplorationMode::Generalized,
                CheckpointStore::create(&dir).unwrap(),
            )
            .unwrap();
        assert_eq!(json_bytes(&run.result), json_bytes(&plain));
        assert!(run.checkpoint_writes > 0, "boundaries were persisted");
        assert!(run.checkpoint_error.is_none());
        assert_eq!(run.resumed_seq, None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_a_changed_configuration() {
        let (df, outcomes) = setup(400);
        let dir = tmp_dir("editedcfg");
        HDivExplorer::new(HDivExplorerConfig::default())
            .fit_checkpointed(
                &df,
                &outcomes,
                ExplorationMode::Generalized,
                CheckpointStore::create(&dir).unwrap(),
            )
            .unwrap();
        let err = HDivExplorer::new(HDivExplorerConfig {
            min_support: 0.2,
            ..HDivExplorerConfig::default()
        })
        .resume_checkpointed(
            &df,
            &outcomes,
            ExplorationMode::Generalized,
            CheckpointStore::open(&dir).unwrap(),
        )
        .unwrap_err();
        match err {
            CoreError::Checkpoint(CheckpointError::FingerprintMismatch { field, .. }) => {
                assert_eq!(field, "config");
            }
            other => panic!("expected config fingerprint mismatch, got {other}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn polarity_pruning_is_refused() {
        let (df, outcomes) = setup(200);
        let dir = tmp_dir("polarity");
        let err = HDivExplorer::new(HDivExplorerConfig {
            polarity_pruning: true,
            ..HDivExplorerConfig::default()
        })
        .fit_checkpointed(
            &df,
            &outcomes,
            ExplorationMode::Generalized,
            CheckpointStore::create(&dir).unwrap(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidParameter {
                name: "polarity_pruning",
                ..
            }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn adaptive_retries_climb_the_ladder_under_checkpointing() {
        let (df, outcomes) = setup(700);
        let dir = tmp_dir("adaptive");
        let coarse = HDivExplorer::new(HDivExplorerConfig {
            min_support: 0.2,
            ..HDivExplorerConfig::default()
        })
        .fit(&df, &outcomes);
        let cap = coarse.report.records.len() as u64;
        assert!(cap > 0);
        let pipeline = HDivExplorer::new(HDivExplorerConfig {
            min_support: 0.025,
            budget: RunBudget::unbounded().with_max_itemsets(cap),
            adaptive_support: true,
            ..HDivExplorerConfig::default()
        });
        let run = pipeline
            .fit_checkpointed(
                &df,
                &outcomes,
                ExplorationMode::Generalized,
                CheckpointStore::create(&dir).unwrap(),
            )
            .unwrap();
        assert!(run.result.termination().is_complete());
        assert!(run.result.adaptive_retries > 0);
        assert!(run.result.effective_min_support > 0.025);
        assert_eq!(run.result.report.records.len() as u64, cap);
        // The plain fit climbs the same rungs to the same bytes.
        let plain = pipeline.fit(&df, &outcomes);
        assert_eq!(plain.adaptive_retries, run.result.adaptive_retries);
        assert_eq!(json_bytes(&run.result), json_bytes(&plain));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dataset_fingerprint_is_cell_sensitive() {
        let (df, outcomes) = setup(100);
        let base = fingerprint_dataset(&df, &outcomes);
        assert_eq!(base, fingerprint_dataset(&df, &outcomes));
        let mut edited = outcomes.clone();
        edited[7] = Outcome::Undefined;
        assert_ne!(base, fingerprint_dataset(&df, &edited));
    }

    #[test]
    fn config_fingerprint_tracks_result_determining_fields() {
        let config = HDivExplorerConfig::default();
        let base = fingerprint_config(&config, ExplorationMode::Generalized, 0.05);
        // Budget changes do NOT move the fingerprint (resume may lift it).
        let budgeted = HDivExplorerConfig {
            budget: RunBudget::unbounded().with_max_itemsets(3),
            ..config
        };
        assert_eq!(
            base,
            fingerprint_config(&budgeted, ExplorationMode::Generalized, 0.05)
        );
        // Neither does the thread count: checkpointed runs mine serially.
        let threaded = HDivExplorerConfig {
            threads: 4,
            ..config
        };
        assert_eq!(
            base,
            fingerprint_config(&threaded, ExplorationMode::Generalized, 0.05)
        );
        // Support and mode do.
        assert_ne!(
            base,
            fingerprint_config(&config, ExplorationMode::Generalized, 0.1)
        );
        assert_ne!(
            base,
            fingerprint_config(&config, ExplorationMode::Base, 0.05)
        );
    }

    /// Encodes `state` in an older payload layout: the discretization
    /// trees in full where the trees fingerprint now sits and, when
    /// `labelled` is given, the layout from before the miner label was
    /// dropped (a label string ahead of the cursor and an Apriori frontier,
    /// a list of itemsets, ahead of the counters).
    fn legacy_payload(
        state: &CheckpointState,
        trees: &[DiscretizationTree],
        labelled: Option<(&str, &[Vec<u32>])>,
    ) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(state.dataset_fingerprint);
        w.put_u64(state.config_fingerprint);
        w.put_u64(trees.len() as u64);
        for tree in trees {
            w.put_u32(u32::from(tree.attr.0));
            w.put_u64(tree.nodes.len() as u64);
            for node in &tree.nodes {
                w.put_f64(node.interval.lo);
                w.put_f64(node.interval.hi);
                w.put_opt_u32(node.item.map(|i| i.0));
                w.put_f64(node.support);
                w.put_opt_f64(node.statistic);
                w.put_opt_f64(node.divergence);
                let children: Vec<u32> = node.children.iter().map(|&c| c as u32).collect();
                w.put_u32_list(&children);
                w.put_u32(node.depth as u32);
            }
        }
        let p = &state.progress;
        if let Some((label, _)) = labelled {
            w.put_str(label);
        }
        w.put_u64(p.cursor);
        w.put_u64(p.n_rows);
        w.put_u64(p.emitted.len() as u64);
        for fi in &p.emitted {
            w.put_u32_list(&fi.items);
            w.put_u64(fi.accum.n);
            w.put_u64(fi.accum.n_valid);
            w.put_f64(fi.accum.sum);
            w.put_f64(fi.accum.sum_sq);
        }
        if let Some((_, frontier)) = labelled {
            w.put_u64(frontier.len() as u64);
            for itemset in frontier {
                w.put_u32_list(itemset);
            }
        }
        w.put_u64(p.counters.itemsets);
        w.put_u64(p.counters.candidate_bytes);
        w.put_u64(p.counters.tree_nodes);
        w.into_bytes()
    }

    /// A real mid-run checkpoint state of a `setup(600)` fit, whose
    /// fingerprints all match that fit, and the fit's trees.
    fn mid_run_state(tag: &str) -> (CheckpointState, Vec<DiscretizationTree>) {
        let (df, outcomes) = setup(600);
        let config = HDivExplorerConfig::default();
        let full = HDivExplorer::new(config).fit_mode(&df, &outcomes, ExplorationMode::Generalized);
        let total = full.report.records.len() as u64;
        let dir = tmp_dir(tag);
        HDivExplorer::new(HDivExplorerConfig {
            budget: RunBudget::unbounded().with_max_itemsets(total - 2),
            ..config
        })
        .fit_checkpointed(
            &df,
            &outcomes,
            ExplorationMode::Generalized,
            CheckpointStore::create(&dir).unwrap(),
        )
        .unwrap();
        let state = CheckpointStore::open(&dir)
            .unwrap()
            .load_latest()
            .unwrap()
            .state;
        let _ = fs::remove_dir_all(&dir);
        (state, full.trees)
    }

    /// Resumes a `setup(600)` fit from a store holding only `payload`.
    fn resume_from(tag: &str, payload: &[u8]) -> Result<CheckpointedRun, CoreError> {
        let (df, outcomes) = setup(600);
        let dir = tmp_dir(tag);
        let store = CheckpointStore::create(&dir).unwrap();
        fs::write(store.path_of(1), envelope::seal(payload)).unwrap();
        let run = HDivExplorer::new(HDivExplorerConfig::default()).resume_checkpointed(
            &df,
            &outcomes,
            ExplorationMode::Generalized,
            store,
        );
        let _ = fs::remove_dir_all(&dir);
        run
    }

    #[test]
    fn resume_refuses_a_checkpoint_in_the_labelled_layout() {
        let (state, trees) = mid_run_state("labelled");
        let pair = state.progress.emitted[0].items.clone();
        // Written in the old layout with this run's own fingerprints, so
        // only the layout can refuse it. (The old config fingerprint also
        // hashed the label, which alone refuses a real old checkpoint.)
        for (label, frontier) in [("vertical", vec![]), ("apriori", vec![pair])] {
            let payload = legacy_payload(&state, &trees, Some((label, &frontier)));
            let err = resume_from(&format!("labelled-{label}"), &payload).unwrap_err();
            assert!(
                matches!(err, CoreError::Checkpoint(_)),
                "{label}: expected a checkpoint refusal, got {err}"
            );
        }
    }

    #[test]
    fn resume_refuses_a_checkpoint_that_carries_full_trees() {
        // This run's own fingerprints and trees, in the layout that stored
        // the trees in full: only the layout can refuse it.
        let (state, trees) = mid_run_state("full-trees");
        let err = resume_from("full-trees", &legacy_payload(&state, &trees, None)).unwrap_err();
        assert!(
            matches!(err, CoreError::Checkpoint(_)),
            "expected a checkpoint refusal, got {err}"
        );

        // Without continuous attributes the old payload decodes: its tree
        // count, 0, lands in the trees fingerprint slot, and no set of
        // trees fingerprints to 0.
        let mut b = DataFrameBuilder::new();
        b.add_categorical("g").unwrap();
        let groups = ["a", "b", "c"];
        let rows = (0..300).map(|i| groups[i % 3]);
        for g in rows.clone() {
            b.push_row(vec![Value::Cat(g.into())]).unwrap();
        }
        let df = b.finish();
        let outcomes: Vec<Outcome> = rows.map(|g| Outcome::Bool(g == "b")).collect();
        let dir = tmp_dir("no-trees");
        let pipeline = HDivExplorer::new(HDivExplorerConfig::default());
        let mode = ExplorationMode::Generalized;
        let store = CheckpointStore::create(&dir).unwrap();
        let run = pipeline.fit_checkpointed(&df, &outcomes, mode, store.clone());
        assert!(run.unwrap().result.trees.is_empty());
        let state = store.load_latest().unwrap().state;
        let newest = store.sequences().unwrap().last().copied().unwrap();
        let payload = legacy_payload(&state, &[], None);
        fs::write(store.path_of(newest + 1), envelope::seal(&payload)).unwrap();
        match pipeline.resume_checkpointed(&df, &outcomes, mode, store) {
            Err(CoreError::Checkpoint(CheckpointError::FingerprintMismatch {
                field,
                expected,
                ..
            })) => assert_eq!((field, expected), ("trees", 0)),
            other => panic!("expected a trees mismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn trees_fingerprint_moves_with_the_attribute_and_every_node_field() {
        let (df, outcomes) = setup(400);
        let trees = HDivExplorer::new(HDivExplorerConfig::default())
            .fit(&df, &outcomes)
            .trees;
        let node = &trees[0].nodes[1];
        assert!(node.item.is_some() && node.statistic.is_some() && node.divergence.is_some());
        let base = fingerprint_trees(&trees);
        assert_eq!(base, fingerprint_trees(&trees.clone()));
        assert_ne!(base, fingerprint_trees(&[]));
        let moves = |edit: fn(&mut DiscretizationTree)| {
            let mut edited = trees.clone();
            edit(&mut edited[0]);
            fingerprint_trees(&edited) != base
        };
        assert!(moves(|t| t.attr.0 += 1), "attr");
        assert!(moves(|t| t.nodes[1].interval.lo = -1234.5), "lo");
        assert!(moves(|t| t.nodes[1].interval.hi = 1234.5), "hi");
        assert!(moves(|t| t.nodes[1].item = None), "item");
        assert!(moves(|t| t.nodes[1].support += 0.125), "support");
        assert!(moves(|t| t.nodes[1].statistic = None), "statistic");
        assert!(
            moves(|t| t.nodes[1].divergence = t.nodes[1].divergence.map(|d| d + 0.125)),
            "divergence"
        );
        assert!(moves(|t| t.nodes[0].children.push(0)), "children");
        assert!(moves(|t| t.nodes[1].depth += 1), "depth");
    }

    #[test]
    fn resume_on_a_higher_rung_matches_the_plain_adaptive_fit() {
        let (df, outcomes) = setup(700);
        let coarse = HDivExplorer::new(HDivExplorerConfig {
            min_support: 0.2,
            ..HDivExplorerConfig::default()
        })
        .fit(&df, &outcomes);
        let config = HDivExplorerConfig {
            min_support: 0.025,
            budget: RunBudget::unbounded().with_max_itemsets(coarse.report.records.len() as u64),
            adaptive_support: true,
            ..HDivExplorerConfig::default()
        };
        let mode = ExplorationMode::Generalized;
        let plain = HDivExplorer::new(config).fit_mode(&df, &outcomes, mode);
        assert!(plain.termination().is_complete());
        assert!(plain.adaptive_retries > 0, "the first rung trips the cap");

        let dir = tmp_dir("higher-rung");
        let store = CheckpointStore::create(&dir).unwrap();
        HDivExplorer::new(config)
            .fit_checkpointed(&df, &outcomes, mode, store.clone())
            .unwrap();
        // Drop the final checkpoint: the newest left is one the last rung
        // wrote before its last root was explored.
        let last_rung = fingerprint_config(&config, mode, plain.effective_min_support);
        let done = store.load_latest().unwrap();
        assert_eq!(done.state.config_fingerprint, last_rung);
        fs::remove_file(store.path_of(done.seq)).unwrap();
        let mid = store.load_latest().unwrap();
        assert_eq!(mid.state.config_fingerprint, last_rung);
        assert!(mid.state.progress.cursor > 0);
        assert!(mid.state.progress.cursor < done.state.progress.cursor);

        let resumed = HDivExplorer::new(config)
            .resume_checkpointed(&df, &outcomes, mode, store)
            .unwrap();
        assert_eq!(resumed.resumed_seq, Some(mid.seq));
        assert_eq!(resumed.result.adaptive_retries, plain.adaptive_retries);
        assert_eq!(json_bytes(&resumed.result), json_bytes(&plain));
        let _ = fs::remove_dir_all(&dir);
    }
}
