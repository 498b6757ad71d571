//! Facade-level checkpoint/resume integration: interrupt a mining run with a
//! budget trip, resume it from the persisted state, and require the final
//! report to be identical to an uninterrupted run — whatever thread count
//! the resume asks for — plus corruption fallback on the way.

use h_divexplorer::checkpoint::CheckpointStore;
use h_divexplorer::core::{ExplorationMode, HDivExplorer, HDivExplorerConfig};
use h_divexplorer::data::{DataFrame, DataFrameBuilder, Value};
use h_divexplorer::governor::RunBudget;
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

/// Asserts two reports describe the same subgroups with the same statistics.
fn assert_same_report(
    a: &h_divexplorer::core::DivergenceReport,
    b: &h_divexplorer::core::DivergenceReport,
) {
    assert_eq!(a.records.len(), b.records.len());
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.label, rb.label);
        assert!((ra.support - rb.support).abs() < 1e-12, "{}", ra.label);
        match (ra.divergence, rb.divergence) {
            (Some(da), Some(db)) => {
                assert!((da - db).abs() < 1e-12, "{}: {da} vs {db}", ra.label);
            }
            (da, db) => assert_eq!(da, db, "{}", ra.label),
        }
    }
}

/// Budget-trips a checkpointed run two itemsets short of completion, then
/// resumes it unbounded with `resume_threads` worker threads: the resumed
/// report must equal the uninterrupted one.
fn interrupted_resume_roundtrip(resume_threads: usize, tag: &str) {
    let (df, outcomes) = setup();
    let plain = HDivExplorer::new(config(RunBudget::unbounded())).fit_mode(
        &df,
        &outcomes,
        ExplorationMode::Generalized,
    );
    assert!(!plain.is_partial());
    let total = plain.report.records.len() as u64;
    assert!(total > 4, "fixture must mine enough itemsets to interrupt");

    let dir = tmp_dir(tag);
    let store = CheckpointStore::create(&dir).unwrap();
    let capped = HDivExplorer::new(config(RunBudget::unbounded().with_max_itemsets(total - 2)))
        .fit_checkpointed(&df, &outcomes, ExplorationMode::Generalized, store, 1)
        .unwrap();
    assert!(capped.result.is_partial(), "cap must trip mid-mining");
    assert!(capped.checkpoint_writes > 0, "boundaries must persist");
    assert!(capped.checkpoint_error.is_none());

    let store = CheckpointStore::open(&dir).unwrap();
    let resumed = HDivExplorer::new(HDivExplorerConfig {
        threads: resume_threads,
        ..config(RunBudget::unbounded())
    })
    .resume_checkpointed(&df, &outcomes, ExplorationMode::Generalized, store, 1)
    .unwrap();
    assert!(!resumed.result.is_partial());
    assert!(resumed.resumed_seq.is_some());
    assert_eq!(resumed.rejected_checkpoints, 0);
    assert_same_report(&plain.report, &resumed.result.report);
    // The resume continued the interrupted traversal instead of mining
    // again from scratch: every itemset was charged exactly once.
    assert_eq!(
        resumed.result.counters().itemsets,
        plain.counters().itemsets
    );
}

#[test]
fn vertical_interrupt_and_resume_match_uninterrupted() {
    interrupted_resume_roundtrip(1, "vertical");
}

/// Checkpointed mining is serial whatever the thread count, so a resume
/// that asks for four workers continues the interrupted traversal exactly.
#[test]
fn resume_with_threads_matches_uninterrupted() {
    interrupted_resume_roundtrip(4, "threads");
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
        .fit_checkpointed(&df, &outcomes, ExplorationMode::Generalized, store, 1)
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
        .resume_checkpointed(&df, &outcomes, ExplorationMode::Generalized, store, 1)
        .unwrap();
    assert_eq!(
        resumed.rejected_checkpoints, 1,
        "the flipped byte was detected"
    );
    assert!(!resumed.result.is_partial());
    assert_same_report(&plain.report, &resumed.result.report);
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
        .fit_checkpointed(&df, &outcomes, ExplorationMode::Generalized, store, 1)
        .unwrap();

    outcomes[0] = Outcome::Bool(true);
    let store = CheckpointStore::open(&dir).unwrap();
    let err = HDivExplorer::new(config(RunBudget::unbounded()))
        .resume_checkpointed(&df, &outcomes, ExplorationMode::Generalized, store, 1)
        .unwrap_err();
    assert!(
        err.to_string().contains("dataset fingerprint mismatch"),
        "{err}"
    );
}
