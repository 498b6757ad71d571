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
//! 3. a content hash of the **re-derived discretization trees**, proving the
//!    recomputation reproduced the item catalog the checkpoint was built on.
//!
//! Checkpointed mining always runs the serial search, which is
//! deterministic, so a resumed run returns bit-for-bit the report an
//! uninterrupted run would have produced.

use hdx_checkpoint::{
    verify_identity, CheckpointError, CheckpointStore, Checkpointer, Fingerprint, MiningProgress,
    TreeNodeSnapshot, TreeSnapshot,
};
use hdx_data::{AttributeKind, DataFrame};
use hdx_discretize::{DiscretizationTree, GainCriterion};
use hdx_governor::{CancelToken, Governor, RunBudget, RunCounters};
use hdx_items::ItemCatalog;
use hdx_mining::{mine_governed_ckpt, validate_resume, MiningConfig, MiningResult, Transactions};
use hdx_stats::Outcome;

use crate::error::CoreError;
use crate::hdivexplorer::{ExplorationMode, HDivExplorer, HDivExplorerConfig, HDivResult};

/// Snapshots a discretization tree into the plain persisted form.
pub fn snapshot_tree(tree: &DiscretizationTree) -> TreeSnapshot {
    TreeSnapshot {
        attr: tree.attr.0,
        nodes: tree
            .nodes
            .iter()
            .map(|n| TreeNodeSnapshot {
                lo: n.interval.lo,
                hi: n.interval.hi,
                item: n.item.map(|i| i.0),
                support: n.support,
                statistic: n.statistic,
                divergence: n.divergence,
                children: n.children.iter().map(|&c| c as u32).collect(),
                depth: n.depth as u32,
            })
            .collect(),
    }
}

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
        match outcome.value() {
            Some(v) => {
                f.write_u8(1);
                f.write_f64(v);
            }
            None => {
                f.write_u8(0);
            }
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
    f.write_u64(config.max_tree_depth.map_or(u64::MAX, |d| d as u64));
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
    /// persisted into `store` at every `every`-th work boundary (and once
    /// more when mining stops — normal completion and governor trips alike),
    /// so a killed process continues from its last boundary via
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
        every: u64,
    ) -> Result<CheckpointedRun, CoreError> {
        self.run_checkpointed(df, outcomes, mode, store, every, false)
    }

    /// Resumes a run persisted by [`fit_checkpointed`](Self::fit_checkpointed)
    /// from the newest valid checkpoint in `store`.
    ///
    /// The cheap stages (discretization, transaction encoding) are recomputed
    /// from `df`/`outcomes`; the checkpoint's dataset and configuration
    /// fingerprints and the re-derived trees are verified before any mining
    /// state is trusted. Budget work counters continue from the checkpoint;
    /// the deadline clock restarts (a dead process's wall time is not billed
    /// to its successor).
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
        every: u64,
    ) -> Result<CheckpointedRun, CoreError> {
        self.run_checkpointed(df, outcomes, mode, store, every, true)
    }

    fn run_checkpointed(
        &self,
        df: &DataFrame,
        outcomes: &[Outcome],
        mode: ExplorationMode,
        store: CheckpointStore,
        every: u64,
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
        let fit = self.discretize_and_encode(df, outcomes, mode);
        let mut checkpointing = Checkpointing {
            store,
            every,
            dataset_fingerprint: fingerprint_dataset(df, outcomes),
            config_fingerprints: fit
                .ladder
                .iter()
                .map(|&s| fingerprint_config(&self.config, mode, s))
                .collect(),
            trees: fit.trees.iter().map(snapshot_tree).collect(),
            progress: None,
            writes: 0,
            last_error: None,
        };
        let (mut first_rung, mut resumed_seq, mut rejected_checkpoints) = (0, None, 0);
        if resume {
            let loaded = checkpointing.store.load_latest()?;
            // A checkpoint written mid-retry names its rung through the
            // config fingerprint.
            let fingerprints = &checkpointing.config_fingerprints;
            first_rung = fingerprints
                .iter()
                .position(|&fp| fp == loaded.state.config_fingerprint)
                .ok_or(CheckpointError::FingerprintMismatch {
                    field: "config",
                    expected: loaded.state.config_fingerprint,
                    found: fingerprints[0],
                })?;
            verify_identity(
                &loaded.state,
                checkpointing.dataset_fingerprint,
                fingerprints[first_rung],
                &checkpointing.trees,
            )?;
            validate_resume(&loaded.state.progress, &fit.transactions)?;
            checkpointing.progress = Some(loaded.state.progress);
            resumed_seq = Some(loaded.seq);
            rejected_checkpoints = loaded.rejected;
        }
        let result = self.mine_ladder(fit, first_rung, Some(&mut checkpointing));
        Ok(CheckpointedRun {
            result,
            checkpoint_writes: checkpointing.writes,
            checkpoint_error: checkpointing.last_error,
            resumed_seq,
            rejected_checkpoints,
        })
    }
}

/// The checkpoint side of one checkpointed fit: the run's identity, the
/// progress a resume continues from, and the write bookkeeping.
pub(crate) struct Checkpointing {
    store: CheckpointStore,
    every: u64,
    dataset_fingerprint: u64,
    /// The config fingerprint of each rung of the support ladder.
    config_fingerprints: Vec<u64>,
    trees: Vec<TreeSnapshot>,
    /// The loaded progress of a resume, taken by the first rung mined.
    progress: Option<MiningProgress>,
    writes: u64,
    last_error: Option<String>,
}

impl Checkpointing {
    /// Mines one rung serially, checkpointing into the store. The first
    /// rung of a resume continues from the loaded progress, with the
    /// governor preloaded with its charged counters; adaptive retries
    /// restart mining from scratch at the coarser support.
    pub(crate) fn mine_rung(
        &mut self,
        rung: usize,
        transactions: &Transactions,
        catalog: &ItemCatalog,
        mining: &MiningConfig,
        budget: RunBudget,
        cancel: &CancelToken,
    ) -> (MiningResult, Governor) {
        let mut ckpt = Checkpointer::new(
            self.store.clone(),
            self.every,
            self.dataset_fingerprint,
            self.config_fingerprints[rung],
            self.trees.clone(),
        );
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
            &mut ckpt,
            progress.as_ref(),
        );
        self.writes += ckpt.writes();
        if let Some(err) = ckpt.last_error() {
            self.last_error = Some(err.to_string());
        }
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
                1,
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
                1,
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
            1,
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
            1,
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
                1,
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

    /// Encodes `state` in the payload layout of checkpoints written before
    /// the miner label was dropped: a label string ahead of the cursor and
    /// an Apriori frontier (a list of itemsets) ahead of the counters.
    fn labelled_payload(state: &CheckpointState, label: &str, frontier: &[Vec<u32>]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(state.dataset_fingerprint);
        w.put_u64(state.config_fingerprint);
        w.put_u64(state.trees.len() as u64);
        for tree in &state.trees {
            w.put_u32(u32::from(tree.attr));
            w.put_u64(tree.nodes.len() as u64);
            for node in &tree.nodes {
                w.put_f64(node.lo);
                w.put_f64(node.hi);
                w.put_opt_u32(node.item);
                w.put_f64(node.support);
                w.put_opt_f64(node.statistic);
                w.put_opt_f64(node.divergence);
                w.put_u32_list(&node.children);
                w.put_u32(node.depth);
            }
        }
        let p = &state.progress;
        w.put_str(label);
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
        w.put_u64(frontier.len() as u64);
        for itemset in frontier {
            w.put_u32_list(itemset);
        }
        w.put_u64(p.counters.itemsets);
        w.put_u64(p.counters.candidate_bytes);
        w.put_u64(p.counters.tree_nodes);
        w.into_bytes()
    }

    #[test]
    fn resume_refuses_a_checkpoint_in_the_labelled_layout() {
        let (df, outcomes) = setup(600);
        let config = HDivExplorerConfig::default();
        let full = HDivExplorer::new(config).fit_mode(&df, &outcomes, ExplorationMode::Generalized);
        let total = full.report.records.len() as u64;
        // A real mid-run state, whose fingerprints all match this run.
        let dir = tmp_dir("labelled");
        HDivExplorer::new(HDivExplorerConfig {
            budget: RunBudget::unbounded().with_max_itemsets(total - 2),
            ..config
        })
        .fit_checkpointed(
            &df,
            &outcomes,
            ExplorationMode::Generalized,
            CheckpointStore::create(&dir).unwrap(),
            1,
        )
        .unwrap();
        let state = CheckpointStore::open(&dir)
            .unwrap()
            .load_latest()
            .unwrap()
            .state;
        let pair = state.progress.emitted[0].items.clone();
        // Written in the old layout with this run's own fingerprints, so
        // only the layout can refuse it. (The old config fingerprint also
        // hashed the label, which alone refuses a real old checkpoint.)
        for (label, frontier) in [("vertical", vec![]), ("apriori", vec![pair])] {
            let dir = tmp_dir(&format!("labelled-{label}"));
            let store = CheckpointStore::create(&dir).unwrap();
            let sealed = envelope::seal(&labelled_payload(&state, label, &frontier));
            fs::write(store.path_of(1), sealed).unwrap();
            let err = HDivExplorer::new(config)
                .resume_checkpointed(&df, &outcomes, ExplorationMode::Generalized, store, 1)
                .unwrap_err();
            assert!(
                matches!(err, CoreError::Checkpoint(_)),
                "{label}: expected a checkpoint refusal, got {err}"
            );
            let _ = fs::remove_dir_all(&dir);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
