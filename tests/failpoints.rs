//! Fault-injection integration tests (compiled only with
//! `--features hdx-fail`): arm named fail points in the miners, the tree
//! discretizer, the CSV loader, the ingest WAL and the durable-write
//! routine, and assert that every layer degrades instead of dying.
//!
//! The fail-point registry is process-global, and the armed points sit on
//! paths that many tests pass through: each fit hits `discretize::split`
//! and `mining::vertical`, every sealed file passes `durable::write`, and
//! every WAL append passes `ingest::wal::append`. A point armed by one
//! test would fire inside another test running concurrently, so every test
//! here holds [`FAILPOINT_LOCK`] for its whole body.

#![cfg(feature = "hdx-fail")]

use h_divexplorer::checkpoint::durable::tmp_path;
use h_divexplorer::checkpoint::{
    envelope, write_sealed, CheckpointError, CheckpointState, CheckpointStore, CounterSnapshot,
    MiningProgress,
};
use h_divexplorer::core::{
    CoreError, ExplorationMode, HDivExplorer, HDivExplorerConfig, OutcomeFn, Termination,
};
use h_divexplorer::data::{read_csv_str, write_csv_string, CsvOptions, DataError};
use h_divexplorer::datasets::compas;
use h_divexplorer::governor::failpoint::{self, FailAction, IoFault};
use h_divexplorer::governor::{Governor, RunBudget};
use h_divexplorer::ingest::{IngestCursor, Wal, WalConfig, CURSOR_FILE, OPEN_FILE};
use h_divexplorer::items::{Item, ItemCatalog, ItemId};
use h_divexplorer::mining::{
    mine, mine_governed, MiningConfig, MiningError, MiningResult, Transactions,
};
use h_divexplorer::serve::journal::Journal;
use h_divexplorer::serve::EVENTS_FILE;
use h_divexplorer::stats::Outcome;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Serialises the tests of this binary (see the module docs).
static FAILPOINT_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`FAILPOINT_LOCK`]. A poisoned lock only records that an earlier
/// test failed; the remaining tests still run and report.
fn serial() -> MutexGuard<'static, ()> {
    FAILPOINT_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Same deterministic fixture as `tests/governor.rs`.
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
        let row: Vec<ItemId> = (0..6)
            .filter(|k| (r * (k + 3) / 7 + r / (k + 1)) % (k + 2) == 0)
            .map(|k| ids[k])
            .collect();
        rows.push(row);
        outcomes.push(Outcome::Bool(r % 3 == 0));
    }
    (Transactions::from_rows(rows, outcomes), catalog)
}

/// A fresh scratch directory for one test.
fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hdx-fp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The payload of WAL row `i`.
fn row(i: u64) -> Vec<u8> {
    format!("row-{i},a,{}", i % 7).into_bytes()
}

/// The itemsets of `result` with their accumulators, in itemset order.
fn sorted(result: &MiningResult) -> Vec<(Vec<ItemId>, h_divexplorer::stats::StatAccum)> {
    let mut v: Vec<_> = result
        .itemsets
        .iter()
        .map(|fi| (fi.itemset.items().to_vec(), fi.accum))
        .collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

/// Killing one pool worker degrades the run instead of killing it: the
/// panic is caught and reported as a typed [`MiningError::WorkerPanicked`].
/// The point fires before the worker claims a subtree root, so the
/// survivor drains every root and the result is the full answer.
#[test]
fn killed_worker_degrades_instead_of_dying() {
    let _guard = serial();
    let (transactions, catalog) = fixture();
    let config = MiningConfig {
        min_support: 0.1,
        max_len: None,
        threads: 2,
    };
    let full = mine(&transactions, &catalog, &config);

    failpoint::arm_once("mining::vertical-worker", FailAction::Panic, 1);
    // Quiet the default panic hook for the injected panic: it is caught by
    // the worker's catch_unwind, but the hook would still print a backtrace.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let degraded = mine(&transactions, &catalog, &config);
    std::panic::set_hook(hook);
    failpoint::disarm("mining::vertical-worker");

    assert_eq!(degraded.errors.len(), 1, "exactly one worker died");
    assert!(matches!(
        degraded.errors[0],
        MiningError::WorkerPanicked { .. }
    ));
    assert_eq!(degraded.termination, Termination::Complete);
    assert!(!full.itemsets.is_empty());
    assert!(
        sorted(&degraded) == sorted(&full),
        "the survivor must mine every subtree"
    );
}

/// `HDivExplorerConfig::threads` reaches the miner: a two-thread fit starts
/// two pool workers, a one-thread fit none.
#[test]
fn pipeline_threads_reach_the_worker_pool() {
    let _guard = serial();
    let dataset = compas(400, 7);
    let outcomes = dataset.classification_outcomes(OutcomeFn::Fpr);
    let worker_hits = |threads| {
        // Armed to fire on a hit that never comes: the point only counts.
        failpoint::arm(
            "mining::vertical-worker",
            FailAction::Stall(Duration::ZERO),
            u64::MAX,
        );
        let result = HDivExplorer::new(HDivExplorerConfig {
            min_support: 0.05,
            threads,
            ..HDivExplorerConfig::default()
        })
        .fit(&dataset.frame, &outcomes);
        let hits = failpoint::hit_count("mining::vertical-worker");
        failpoint::disarm("mining::vertical-worker");
        assert_eq!(result.termination(), Termination::Complete);
        hits
    };
    assert_eq!(worker_hits(2), 2);
    assert_eq!(worker_hits(1), 0);
}

/// An injected CSV-layer fault surfaces as a typed `DataError::Csv`, not a
/// panic.
#[test]
fn csv_read_fault_is_a_typed_error() {
    let _guard = serial();
    failpoint::arm(
        "data::csv-read",
        FailAction::Error("injected I/O fault".into()),
        1,
    );
    let result = read_csv_str("a,b\n1,2\n", &CsvOptions::default());
    failpoint::disarm("data::csv-read");
    match result {
        Err(DataError::Csv { line: 0, message }) => {
            assert!(message.contains("injected"));
        }
        other => panic!("expected injected DataError::Csv, got {other:?}"),
    }
}

/// A stalling split search (slow dependency simulation) trips the
/// wall-clock deadline: the pipeline returns a partial result rather than
/// hanging.
#[test]
fn stalled_discretizer_split_trips_the_deadline() {
    let _guard = serial();
    let dataset = compas(400, 7);
    let outcomes = dataset.classification_outcomes(OutcomeFn::Fpr);
    failpoint::arm(
        "discretize::split",
        FailAction::Stall(Duration::from_millis(40)),
        1,
    );
    let config = HDivExplorerConfig {
        min_support: 0.05,
        budget: RunBudget::unbounded().with_deadline(Duration::from_millis(10)),
        ..HDivExplorerConfig::default()
    };
    let result =
        HDivExplorer::new(config).fit_mode(&dataset.frame, &outcomes, ExplorationMode::Base);
    failpoint::disarm("discretize::split");
    assert_eq!(result.termination(), Termination::DeadlineExceeded);
    assert!(result.is_partial());
}

/// An injected panic inside the tree discretizer's split search propagates
/// as a clean unwind — no poisoned global state, and the very next run (same
/// process, fail point disarmed) succeeds from scratch.
#[test]
fn discretizer_split_panic_is_a_clean_unwind() {
    let _guard = serial();
    let dataset = compas(300, 11);
    let outcomes = dataset.classification_outcomes(OutcomeFn::Fpr);
    let config = || HDivExplorerConfig {
        min_support: 0.05,
        ..HDivExplorerConfig::default()
    };

    failpoint::arm("discretize::split", FailAction::Panic, 1);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = std::panic::catch_unwind(|| {
        HDivExplorer::new(config()).fit_mode(&dataset.frame, &outcomes, ExplorationMode::Base)
    });
    std::panic::set_hook(hook);
    failpoint::disarm("discretize::split");
    assert!(outcome.is_err(), "injected panic must propagate");

    // The unwind left nothing behind: an immediate retry completes.
    let retry =
        HDivExplorer::new(config()).fit_mode(&dataset.frame, &outcomes, ExplorationMode::Base);
    assert_eq!(retry.termination(), Termination::Complete);
    assert!(!retry.report.records.is_empty());
}

/// A resume against an edited dataset is refused before the fit runs: with
/// the discretizer's split search armed to panic, the refusal still comes
/// back as a typed dataset mismatch.
#[test]
fn a_refused_resume_stops_before_the_fit() {
    let _guard = serial();
    let dataset = compas(300, 11);
    let outcomes = dataset.classification_outcomes(OutcomeFn::Fpr);
    let csv = write_csv_string(&dataset.frame, ',');
    let frame = read_csv_str(&csv, &CsvOptions::default()).expect("parse");
    // Same schema and row count; the last row becomes a copy of the first.
    let lines: Vec<&str> = csv.lines().collect();
    let edited = format!("{}\n{}\n", lines[..lines.len() - 1].join("\n"), lines[1]);
    let edited = read_csv_str(&edited, &CsvOptions::default()).expect("parse edited");
    assert_eq!(edited.n_rows(), frame.n_rows());

    let config = HDivExplorerConfig {
        min_support: 0.05,
        ..HDivExplorerConfig::default()
    };
    let mode = ExplorationMode::Generalized;
    let dir = tmp_dir("refused-resume");
    let store = CheckpointStore::create(&dir).unwrap();
    HDivExplorer::new(config)
        .fit_checkpointed(&frame, &outcomes, mode, store, 1)
        .unwrap();

    failpoint::arm("discretize::split", FailAction::Panic, 1);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let resumed = std::panic::catch_unwind(|| {
        let store = CheckpointStore::open(&dir).unwrap();
        HDivExplorer::new(config).resume_checkpointed(&edited, &outcomes, mode, store, 1)
    });
    std::panic::set_hook(hook);
    failpoint::disarm("discretize::split");
    match resumed {
        Ok(Err(CoreError::Checkpoint(CheckpointError::FingerprintMismatch { field, .. }))) => {
            assert_eq!(field, "dataset");
        }
        Ok(other) => panic!("expected a dataset mismatch, got {other:?}"),
        Err(_) => panic!("the refused resume ran the discretizer"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoint-write faults (disk full, permission loss) degrade persistence
/// only: the mining run itself completes with full results, reporting the
/// write failure out-of-band.
#[test]
fn checkpoint_write_faults_do_not_lose_the_run() {
    use h_divexplorer::data::{DataFrameBuilder, Value};
    let _guard = serial();

    let mut b = DataFrameBuilder::new();
    b.add_continuous("x").unwrap();
    b.add_categorical("g").unwrap();
    let mut outcomes = Vec::new();
    for i in 0..200usize {
        let x = (i % 50) as f64;
        let g = if i % 2 == 0 { "a" } else { "b" };
        b.push_row(vec![Value::Num(x), Value::Cat(g.to_string())])
            .unwrap();
        outcomes.push(Outcome::Bool(x > 30.0 && g == "b"));
    }
    let df = b.finish();
    let config = HDivExplorerConfig {
        min_support: 0.1,
        ..HDivExplorerConfig::default()
    };

    let plain = HDivExplorer::new(config).fit_mode(&df, &outcomes, ExplorationMode::Generalized);

    let dir = std::env::temp_dir().join(format!("hdx-fp-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::create(&dir).unwrap();
    failpoint::arm(
        "checkpoint::write",
        FailAction::Error("injected disk full".into()),
        1,
    );
    let run = HDivExplorer::new(config)
        .fit_checkpointed(&df, &outcomes, ExplorationMode::Generalized, store, 1)
        .unwrap();
    failpoint::disarm("checkpoint::write");

    assert_eq!(run.checkpoint_writes, 0, "every write was injected to fail");
    let err = run.checkpoint_error.expect("failure must be surfaced");
    assert!(err.contains("injected disk full"), "{err}");
    // The run itself is complete and identical to the unpersisted one.
    assert_eq!(run.result.termination(), Termination::Complete);
    assert_eq!(run.result.report.records.len(), plain.report.records.len());
}

/// Injected *I/O* faults at the durable-write fail point under a
/// checkpoint write — ENOSPC and a torn (short) write, not just clean typed
/// errors — degrade persistence only: the previous checkpoint stays
/// loadable, the torn scratch file is ignored by recovery, and a retry
/// after the "device recovers" advances the sequence normally.
#[test]
fn checkpoint_io_faults_preserve_the_previous_checkpoint() {
    use h_divexplorer::data::{DataFrameBuilder, Value};
    let _guard = serial();

    let mut b = DataFrameBuilder::new();
    b.add_continuous("x").unwrap();
    b.add_categorical("g").unwrap();
    let mut outcomes = Vec::new();
    for i in 0..200usize {
        let x = (i % 50) as f64;
        let g = if i % 2 == 0 { "a" } else { "b" };
        b.push_row(vec![Value::Num(x), Value::Cat(g.to_string())])
            .unwrap();
        outcomes.push(Outcome::Bool(x > 30.0 && g == "b"));
    }
    let df = b.finish();
    let config = HDivExplorerConfig {
        min_support: 0.1,
        ..HDivExplorerConfig::default()
    };

    // A clean checkpointed run seeds the store with real state.
    let dir = std::env::temp_dir().join(format!("hdx-fp-ckpt-io-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::create(&dir).unwrap();
    HDivExplorer::new(config)
        .fit_checkpointed(&df, &outcomes, ExplorationMode::Generalized, store, 1)
        .unwrap();

    let store = CheckpointStore::open(&dir).unwrap();
    let seqs = store.sequences().unwrap();
    assert!(!seqs.is_empty(), "the clean run must have checkpointed");
    let loaded = store.load_latest().unwrap();
    let state = loaded.state;

    // ENOSPC: fails before a byte lands; nothing on disk changes.
    failpoint::arm("durable::write", FailAction::Io(IoFault::Enospc), 1);
    let err = store.write(&state).expect_err("injected ENOSPC");
    failpoint::disarm("durable::write");
    assert!(err.to_string().contains("no space left"), "{err}");
    assert_eq!(store.sequences().unwrap(), seqs);

    // Short write: half the sealed bytes land in the scratch file — the
    // crash-mid-write artifact — and recovery must skip it.
    failpoint::arm("durable::write", FailAction::Io(IoFault::ShortWrite), 1);
    let err = store.write(&state).expect_err("injected short write");
    failpoint::disarm("durable::write");
    assert!(err.to_string().contains("short write"), "{err}");
    let tmp = tmp_path(&store.path_of(seqs.last().unwrap() + 1));
    assert!(tmp.exists(), "the torn scratch file must really exist");
    let torn = std::fs::read(&tmp).unwrap();
    let sealed = envelope::seal(&state.encode());
    assert!(
        !torn.is_empty() && torn.len() < sealed.len() && sealed.starts_with(&torn),
        "the scratch file holds a strict prefix of the sealed bytes"
    );
    assert_eq!(store.sequences().unwrap(), seqs, "no sequence consumed");
    let reloaded = store.load_latest().unwrap();
    assert_eq!(
        reloaded.state, state,
        "the previous checkpoint survives both faults"
    );

    // Device "recovers": the next write advances the sequence normally.
    let next = store.write(&state).unwrap();
    assert_eq!(next, seqs.last().unwrap() + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected panic in a single-threaded miner *does* propagate (there is
/// no worker boundary to absorb it) — but the governor's budget machinery
/// still prevents the partial state from leaking: the caller sees a clean
/// unwind, not a corrupt result.
#[test]
fn single_thread_miner_panics_are_clean_unwinds() {
    let _guard = serial();
    let (transactions, catalog) = fixture();
    failpoint::arm("mining::vertical", FailAction::Panic, 1);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = std::panic::catch_unwind(|| {
        let config = MiningConfig {
            min_support: 0.1,
            ..MiningConfig::default()
        };
        mine_governed(
            &transactions,
            &catalog,
            &config,
            &Governor::new(RunBudget::unbounded()),
        )
    });
    std::panic::set_hook(hook);
    failpoint::disarm("mining::vertical");
    assert!(outcome.is_err(), "injected panic must propagate");
}

/// An injected ENOSPC at the fsync boundary surfaces as a typed error
/// and costs nothing: the rows were never acknowledged, and the next
/// commit (device "freed") lands them all.
#[test]
fn enospc_on_commit_is_a_typed_retryable_error() {
    let _guard = serial();
    let dir = tmp_dir("wal-enospc");
    let (mut wal, _) = Wal::open(&dir, WalConfig::default()).unwrap();
    wal.append_row(&row(0)).unwrap();
    wal.append_row(&row(1)).unwrap();
    failpoint::arm("ingest::wal::fsync", FailAction::Io(IoFault::Enospc), 1);
    let err = wal.commit().expect_err("injected ENOSPC must surface");
    failpoint::disarm("ingest::wal::fsync");
    assert!(err.to_string().contains("no space left"), "{err}");
    // Retry without the fault: both rows become durable.
    assert_eq!(wal.commit().unwrap(), 2);
    let (wal2, report) = Wal::open(&dir, WalConfig::default()).unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(wal2.total_rows(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected short write really tears the open segment: half a frame
/// lands on disk, the handle refuses further work, and the next open
/// quarantines exactly the torn bytes while every committed row
/// survives.
#[test]
fn short_write_tears_the_tail_and_recovery_quarantines_it() {
    let _guard = serial();
    let dir = tmp_dir("wal-shortwrite");
    let (mut wal, _) = Wal::open(&dir, WalConfig::default()).unwrap();
    wal.append_row(&row(0)).unwrap();
    wal.append_row(&row(1)).unwrap();
    wal.commit().unwrap();

    failpoint::arm(
        "ingest::wal::append",
        FailAction::Io(IoFault::ShortWrite),
        1,
    );
    let err = wal.append_row(&row(2)).expect_err("short write must fail");
    failpoint::disarm("ingest::wal::append");
    assert!(err.to_string().contains("short write"), "{err}");
    // The torn handle refuses appends and commits until reopened.
    assert!(wal.append_row(&row(3)).is_err());
    assert!(wal.commit().is_err());
    drop(wal);

    let (wal2, report) = Wal::open(&dir, WalConfig::default()).unwrap();
    assert!(!report.is_clean(), "the torn tail must be quarantined");
    assert!(report.quarantined_bytes > 0, "{report:?}");
    assert_eq!(wal2.total_rows(), 2, "committed rows survive");
    assert_eq!(wal2.rows().unwrap(), vec![row(0), row(1)]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Any failed frame write poisons the handle, not only a short one: ENOSPC
/// can strike after part of a frame landed, and rows appended behind those
/// bytes would be acknowledged only to be quarantined by the next open. So
/// the handle refuses appends and commits until a reopen heals the tail.
#[test]
fn any_failed_append_refuses_work_until_reopen() {
    let _guard = serial();
    let dir = tmp_dir("wal-append-enospc");
    let (mut wal, _) = Wal::open(&dir, WalConfig::default()).unwrap();
    wal.append_row(&row(0)).unwrap();
    wal.commit().unwrap();

    failpoint::arm("ingest::wal::append", FailAction::Io(IoFault::Enospc), 1);
    let err = wal
        .append_row(&row(1))
        .expect_err("injected ENOSPC must surface");
    failpoint::disarm("ingest::wal::append");
    assert!(err.to_string().contains("no space left"), "{err}");
    assert!(
        wal.append_row(&row(2)).is_err(),
        "append after a failed write"
    );
    assert!(wal.commit().is_err(), "commit after a failed write");
    drop(wal);

    let (wal2, _) = Wal::open(&dir, WalConfig::default()).unwrap();
    assert_eq!(wal2.rows().unwrap(), vec![row(0)]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected seal failure (ENOSPC while writing the envelope) leaves the
/// open segment fully intact: nothing is lost, and a retry seals the same
/// rows.
#[test]
fn failed_seal_loses_no_rows() {
    let _guard = serial();
    let dir = tmp_dir("wal-sealfail");
    let (mut wal, _) = Wal::open(&dir, WalConfig::default()).unwrap();
    for i in 0..5 {
        wal.append_row(&row(i)).unwrap();
    }
    wal.commit().unwrap();
    failpoint::arm("durable::write", FailAction::Io(IoFault::Enospc), 1);
    assert!(wal.seal().is_err(), "injected seal fault must surface");
    failpoint::disarm("durable::write");
    assert_eq!(wal.open_rows(), 5, "open segment untouched");
    wal.seal().expect("retry seals cleanly");
    assert_eq!(wal.sealed_segments().len(), 1);
    assert_eq!(wal.total_rows(), 5);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drives one durable writer through an injected `Error`, ENOSPC and short
/// write at `durable::write`, then a clean retry. `attempt` performs the
/// write; on success it must land exactly `new_bytes` at `dest`.
fn assert_faults_then_retry(
    writer: &str,
    dest: &Path,
    new_bytes: &[u8],
    mut attempt: impl FnMut() -> Result<(), String>,
) {
    let tmp = tmp_path(dest);
    for action in [
        FailAction::Error("injected".into()),
        FailAction::Io(IoFault::Enospc),
        FailAction::Io(IoFault::ShortWrite),
    ] {
        let before = std::fs::read(dest).ok();
        let _ = std::fs::remove_file(&tmp);
        let torn = matches!(action, FailAction::Io(IoFault::ShortWrite));
        failpoint::arm("durable::write", action.clone(), 1);
        let result = attempt();
        failpoint::disarm("durable::write");
        assert!(result.is_err(), "{writer}: {action:?} must surface");
        assert_eq!(
            std::fs::read(dest).ok(),
            before,
            "{writer}: {action:?} must leave the destination as it was"
        );
        if torn {
            let prefix = std::fs::read(&tmp).expect("the torn scratch file exists");
            assert!(
                prefix.len() < new_bytes.len() && new_bytes.starts_with(&prefix),
                "{writer}: the scratch file holds a strict prefix of the new bytes"
            );
        } else {
            assert!(!tmp.exists(), "{writer}: {action:?} writes no byte");
        }
    }
    attempt().unwrap_or_else(|e| panic!("{writer}: retry after disarm: {e}"));
    assert_eq!(
        std::fs::read(dest).expect("destination written"),
        new_bytes,
        "{writer}: the retry lands the new bytes"
    );
    assert!(
        !tmp.exists(),
        "{writer}: the retry renames its scratch away"
    );
}

/// Every whole-file writer goes through `durable::write`, so one armed
/// point faults each of them the same way: the call fails, the destination
/// keeps its old bytes (or stays absent), a short write leaves only a torn
/// `<dest>.tmp`, and a retry lands the new bytes.
#[test]
fn durable_write_faults_every_sealed_file_writer() {
    let _guard = serial();
    let dir = tmp_dir("durable");

    let store = CheckpointStore::create(dir.join("ckpt")).unwrap();
    let state = CheckpointState {
        dataset_fingerprint: 1,
        config_fingerprint: 2,
        trees_fingerprint: 0,
        progress: MiningProgress {
            cursor: 3,
            n_rows: 4,
            emitted: vec![],
            counters: CounterSnapshot::default(),
        },
    };
    store.write(&state).unwrap();
    assert_faults_then_retry(
        "CheckpointStore::write",
        &store.path_of(1),
        &envelope::seal(&state.encode()),
        || store.write(&state).map(drop).map_err(|e| e.to_string()),
    );
    assert_eq!(store.sequences().unwrap(), vec![0, 1]);

    let sealed = dir.join("manifest.hdx");
    write_sealed(&sealed, b"old manifest").unwrap();
    assert_faults_then_retry(
        "write_sealed",
        &sealed,
        &envelope::seal(b"new manifest"),
        || write_sealed(&sealed, b"new manifest").map_err(|e| e.to_string()),
    );

    let wal_dir = dir.join("wal");
    let (mut wal, _) = Wal::open(&wal_dir, WalConfig::default()).unwrap();
    for i in 0..3 {
        wal.append_row(&row(i)).unwrap();
    }
    wal.commit().unwrap();
    let frames = std::fs::read(wal_dir.join(OPEN_FILE)).unwrap();
    assert_faults_then_retry(
        "Wal::seal",
        &wal_dir.join("seg-0000000000.hdx"),
        &envelope::seal(&frames),
        || {
            let result = wal.seal().map_err(|e| e.to_string());
            if result.is_err() {
                assert_eq!(wal.open_rows(), 3, "a failed seal keeps the open segment");
            }
            result
        },
    );
    assert_eq!(wal.open_rows(), 0);
    assert_eq!(wal.rows().unwrap(), vec![row(0), row(1), row(2)]);

    let mut journal = Journal::open(&dir).unwrap();
    journal.append("{\"seq\":0}\n").unwrap();
    assert_faults_then_retry(
        "Journal::append",
        &dir.join(EVENTS_FILE),
        b"{\"seq\":0}\n{\"seq\":1}\n",
        || {
            let result = journal.append("{\"seq\":1}\n").map_err(|e| e.to_string());
            if result.is_err() {
                assert_eq!(journal.next_seq(), 1, "a failed append takes no seq");
            }
            result
        },
    );
    assert_eq!(journal.next_seq(), 2);

    let cursor_path = dir.join(CURSOR_FILE);
    IngestCursor::default().save(&cursor_path).unwrap();
    let cursor = IngestCursor {
        rows_folded: 3,
        ..IngestCursor::default()
    };
    assert_faults_then_retry(
        "IngestCursor::save",
        &cursor_path,
        &envelope::seal(&cursor.encode()),
        || cursor.save(&cursor_path).map_err(|e| e.to_string()),
    );
    let _ = std::fs::remove_dir_all(&dir);
}
