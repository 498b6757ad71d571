//! Facade-level checkpoint/resume integration: interrupt a mining run with a
//! budget trip, resume it from the persisted state, and require the final
//! report to be byte-identical to an uninterrupted run — in both
//! exploration modes, whatever thread count the resume asks for — plus
//! corruption fallback on the way.

use std::time::Duration;

use h_divexplorer::checkpoint::CheckpointStore;
use h_divexplorer::core::{
    report_to_json, ExplorationMode, HDivExplorer, HDivExplorerConfig, HDivResult,
};
use h_divexplorer::data::{DataFrame, DataFrameBuilder, Value};
use h_divexplorer::governor::{RunBudget, Termination};
use h_divexplorer::stats::Outcome;

/// Deterministic fixture: errors cluster at x > 55 & g = b.
fn setup() -> (DataFrame, Vec<Outcome>) {
    let mut b = DataFrameBuilder::new();
    b.add_continuous("x").unwrap();
    b.add_categorical("g").unwrap();
    let mut outcomes = Vec::new();
    for i in 0..400usize {
        let x = (i % 100) as f64;
        let g = if i % 2 == 0 { "a" } else { "b" };
        b.push_row(vec![Value::Num(x), Value::Cat(g.to_string())])
            .unwrap();
        outcomes.push(Outcome::Bool(x > 55.0 && g == "b" && i % 5 != 0));
    }
    (b.finish(), outcomes)
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hdx-facade-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(budget: RunBudget) -> HDivExplorerConfig {
    HDivExplorerConfig {
        min_support: 0.05,
        budget,
        ..HDivExplorerConfig::default()
    }
}

/// The report as JSON, with the wall-clock time (the one field that differs
/// between runs) pinned to zero, as the service pins it.
fn json_bytes(result: &HDivResult) -> String {
    let mut report = result.report.clone();
    report.elapsed = Duration::ZERO;
    report_to_json(&report, &result.catalog)
}

/// Budget-trips a checkpointed run two itemsets short of completion, then
/// resumes it unbounded with `resume_threads` worker threads. The tripped
/// run must equal a plain fit under the same cap, and the resumed run an
/// uninterrupted plain fit, byte for byte.
fn interrupted_resume_roundtrip(mode: ExplorationMode, resume_threads: usize, tag: &str) {
    let (df, outcomes) = setup();
    let plain = HDivExplorer::new(config(RunBudget::unbounded())).fit_mode(&df, &outcomes, mode);
    assert!(!plain.is_partial());
    let total = plain.report.records.len() as u64;
    assert!(total > 4, "fixture must mine enough itemsets to interrupt");

    let cap = RunBudget::unbounded().with_max_itemsets(total - 2);
    let capped_plain = HDivExplorer::new(config(cap)).fit_mode(&df, &outcomes, mode);
    let dir = tmp_dir(&format!("{tag}-{mode:?}"));
    let store = CheckpointStore::create(&dir).unwrap();
    let capped = HDivExplorer::new(config(cap))
        .fit_checkpointed(&df, &outcomes, mode, store)
        .unwrap();
    assert_eq!(
        capped.result.termination(),
        Termination::BudgetExhausted,
        "cap must trip mid-mining"
    );
    assert!(capped.checkpoint_writes > 0, "boundaries must persist");
    assert!(capped.checkpoint_error.is_none());
    assert_eq!(json_bytes(&capped.result), json_bytes(&capped_plain));

    let store = CheckpointStore::open(&dir).unwrap();
    let resumed = HDivExplorer::new(HDivExplorerConfig {
        threads: resume_threads,
        ..config(RunBudget::unbounded())
    })
    .resume_checkpointed(&df, &outcomes, mode, store)
    .unwrap();
    assert!(!resumed.result.is_partial());
    assert!(resumed.resumed_seq.is_some());
    assert_eq!(resumed.rejected_checkpoints, 0);
    assert_eq!(json_bytes(&resumed.result), json_bytes(&plain));
    // The resume continued the interrupted traversal instead of mining
    // again from scratch: every itemset was charged exactly once.
    assert_eq!(
        resumed.result.counters().itemsets,
        plain.counters().itemsets
    );
}

const MODES: [ExplorationMode; 2] = [ExplorationMode::Base, ExplorationMode::Generalized];

#[test]
fn vertical_interrupt_and_resume_match_uninterrupted() {
    for mode in MODES {
        interrupted_resume_roundtrip(mode, 1, "vertical");
    }
}

/// Checkpointed mining is serial whatever the thread count, so a resume
/// that asks for four workers continues the interrupted traversal exactly.
#[test]
fn resume_with_threads_matches_uninterrupted() {
    for mode in MODES {
        interrupted_resume_roundtrip(mode, 4, "threads");
    }
}

/// Resuming from the checkpoint of a finished run mines nothing and writes
/// nothing: the loaded file is already durable, so the store keeps exactly
/// the sequences it had, and the result is the uninterrupted run's.
#[test]
fn resume_of_a_finished_run_writes_no_checkpoint() {
    let (df, outcomes) = setup();
    for mode in MODES {
        let plain =
            HDivExplorer::new(config(RunBudget::unbounded())).fit_mode(&df, &outcomes, mode);
        let dir = tmp_dir(&format!("finished-{mode:?}"));
        let store = CheckpointStore::create(&dir).unwrap();
        let finished = HDivExplorer::new(config(RunBudget::unbounded()))
            .fit_checkpointed(&df, &outcomes, mode, store)
            .unwrap();
        assert!(!finished.result.is_partial());
        assert_eq!(json_bytes(&finished.result), json_bytes(&plain));

        let store = CheckpointStore::open(&dir).unwrap();
        let before = store.sequences().unwrap();
        let resumed = HDivExplorer::new(config(RunBudget::unbounded()))
            .resume_checkpointed(&df, &outcomes, mode, store.clone())
            .unwrap();
        assert_eq!(resumed.resumed_seq, before.last().copied());
        assert_eq!(resumed.checkpoint_writes, 0, "{mode:?}");
        assert_eq!(store.sequences().unwrap(), before, "{mode:?}");
        assert!(!resumed.result.is_partial());
        assert_eq!(json_bytes(&resumed.result), json_bytes(&plain));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Flipping one byte in the newest checkpoint must not break resume: the
/// loader detects the damage and falls back to the previous valid file.
#[test]
fn corrupt_newest_checkpoint_falls_back_to_older_one() {
    let (df, outcomes) = setup();
    let plain = HDivExplorer::new(config(RunBudget::unbounded())).fit_mode(
        &df,
        &outcomes,
        ExplorationMode::Generalized,
    );
    let total = plain.report.records.len() as u64;

    let dir = tmp_dir("corrupt");
    let store = CheckpointStore::create(&dir).unwrap();
    let capped = HDivExplorer::new(config(RunBudget::unbounded().with_max_itemsets(total - 2)))
        .fit_checkpointed(&df, &outcomes, ExplorationMode::Generalized, store)
        .unwrap();
    assert!(
        capped.checkpoint_writes >= 2,
        "need an older file to fall back to"
    );

    // Damage the newest checkpoint mid-payload.
    let store = CheckpointStore::open(&dir).unwrap();
    let newest = *store.sequences().unwrap().last().unwrap();
    let path = store.path_of(newest);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, bytes).unwrap();

    let resumed = HDivExplorer::new(config(RunBudget::unbounded()))
        .resume_checkpointed(&df, &outcomes, ExplorationMode::Generalized, store)
        .unwrap();
    assert_eq!(
        resumed.rejected_checkpoints, 1,
        "the flipped byte was detected"
    );
    assert!(!resumed.result.is_partial());
    assert_eq!(json_bytes(&resumed.result), json_bytes(&plain));
}

/// Resuming against a dataset whose cells changed is refused outright — the
/// persisted statistics would silently describe the wrong data.
#[test]
fn resume_is_refused_for_a_different_dataset() {
    let (df, mut outcomes) = setup();
    let plain = HDivExplorer::new(config(RunBudget::unbounded())).fit_mode(
        &df,
        &outcomes,
        ExplorationMode::Generalized,
    );
    let total = plain.report.records.len() as u64;

    let dir = tmp_dir("identity");
    let store = CheckpointStore::create(&dir).unwrap();
    HDivExplorer::new(config(RunBudget::unbounded().with_max_itemsets(total - 2)))
        .fit_checkpointed(&df, &outcomes, ExplorationMode::Generalized, store)
        .unwrap();

    outcomes[0] = Outcome::Bool(true);
    let store = CheckpointStore::open(&dir).unwrap();
    let err = HDivExplorer::new(config(RunBudget::unbounded()))
        .resume_checkpointed(&df, &outcomes, ExplorationMode::Generalized, store)
        .unwrap_err();
    assert!(
        err.to_string().contains("dataset fingerprint mismatch"),
        "{err}"
    );
}
