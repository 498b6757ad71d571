//! Executes one job end to end: dataset → outcomes → governed, checkpointed
//! exploration → sealed completion marker.
//!
//! The runner is deliberately pure with respect to the service: it takes a
//! spec, a state directory, and a cancel token, and reports one of four
//! outcomes. Classification matters — the supervisor retries
//! [`JobRunOutcome::Transient`] with backoff, records
//! [`JobRunOutcome::Permanent`] as failed (re-running bad input cannot
//! help), and leaves [`JobRunOutcome::Drained`] jobs *incomplete on disk*
//! so the next start resumes them to their byte-identical result.

use std::path::Path;
use std::time::Duration;

use hdx_checkpoint::{write_sealed, CheckpointStore, COMPLETE_FILE};
use hdx_core::{
    job_budget, mining_input, report_to_json, HDivExplorer, HDivExplorerConfig, InputError,
};
use hdx_data::{read_csv_str, CsvOptions};
use hdx_governor::{fail_point, CancelReason, CancelToken, Termination};

use crate::job::{spec_message, DoneRecord, JobSpec};

/// How one execution attempt ended.
#[derive(Debug)]
pub enum JobRunOutcome {
    /// The job reached a terminal state and its marker is sealed.
    Done(DoneRecord),
    /// The run was cancelled by shutdown drain; the checkpoint on disk is
    /// the resume point for the next start. No marker is written.
    Drained,
    /// Infrastructure trouble (marker write failed, injected fault): the
    /// work may succeed if retried.
    Transient(String),
    /// The input or configuration is bad: retrying cannot help.
    Permanent(String),
}

/// A `serve::job` / `serve::ingest::fold` fail-point error (tests only).
struct Injected(String);

/// The supervisor's account of one attempt, sealed into the completion
/// marker with its result so a restart serves the same status.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Attempt {
    /// This attempt's number (1 = the first).
    pub number: u32,
    /// The transient-failure messages of the attempts before, in order.
    pub retries: Vec<String>,
    /// Whether the job is an orphan a server start resumed.
    pub resumed: bool,
}

/// Runs attempt number `attempt` of `spec` inside `job_dir`, with no
/// retries before it: [`execute_attempt`] with that [`Attempt`].
pub fn execute(spec: &JobSpec, job_dir: &Path, cancel: CancelToken, attempt: u32) -> JobRunOutcome {
    let attempt = Attempt {
        number: attempt,
        ..Attempt::default()
    };
    execute_attempt(spec, job_dir, cancel, attempt)
}

/// Runs one attempt of `spec` inside `job_dir`.
///
/// The directory must already hold `data.csv`; checkpoints accumulate next
/// to it. Fresh directories run [`HDivExplorer::fit_checkpointed`]; a
/// directory with checkpoints resumes instead, which the resume layer
/// guarantees reaches the same bytes an uninterrupted run would have.
pub fn execute_attempt(
    spec: &JobSpec,
    job_dir: &Path,
    cancel: CancelToken,
    attempt: Attempt,
) -> JobRunOutcome {
    match execute_inner(spec, job_dir, cancel, attempt) {
        Ok(outcome) => outcome,
        Err(Injected(msg)) => JobRunOutcome::Transient(format!("injected job failure: {msg}")),
    }
}

fn execute_inner(
    spec: &JobSpec,
    job_dir: &Path,
    cancel: CancelToken,
    attempt: Attempt,
) -> Result<JobRunOutcome, Injected> {
    fail_point!("serve::job", Injected);
    let mut csv = match std::fs::read_to_string(job_dir.join(crate::DATA_FILE)) {
        Ok(csv) => csv,
        // The dataset was persisted at admission; failure to read it back is
        // an infrastructure problem, not a bad job.
        Err(e) => {
            return Ok(JobRunOutcome::Transient(format!(
                "cannot read dataset: {e}"
            )))
        }
    };
    // Streamed appends: the effective dataset is base ⧺ the WAL's durable
    // prefix, read without healing (the append path owns recovery). Mining
    // is a pure function of that concatenation, so replaying it after any
    // crash — mid-append, mid-fold, mid-seal — reproduces the exact bytes a
    // cold run on the same rows produces, and re-running never double-counts.
    let wal_rows = match hdx_ingest::replay_dir(&job_dir.join(crate::WAL_DIR)) {
        Ok((rows, _report)) => rows,
        Err(e) => {
            return Ok(JobRunOutcome::Transient(format!(
                "cannot replay ingest WAL: {e}"
            )))
        }
    };
    let n_wal_rows = wal_rows.len() as u64;
    if !wal_rows.is_empty() {
        fail_point!("serve::ingest::fold", Injected);
        if !csv.ends_with('\n') {
            csv.push('\n');
        }
        for row in &wal_rows {
            csv.push_str(&String::from_utf8_lossy(row));
            csv.push('\n');
        }
        hdx_obs::counter_add!(ServeIngestRemines, 1);
    }
    let options = CsvOptions {
        separator: spec.run.separator,
        ..CsvOptions::default()
    };
    let input = read_csv_str(&csv, &options)
        .map_err(|e| format!("cannot read dataset: {e}"))
        .and_then(|df| {
            mining_input(&df, &spec.run).map_err(|e| match e {
                InputError::Spec(err) => spec_message(err),
                InputError::Invalid(message) => message,
            })
        });
    let (frame, outcomes) = match input {
        Ok(v) => v,
        Err(msg) => return Ok(JobRunOutcome::Permanent(msg)),
    };
    let pipeline = HDivExplorer::new(HDivExplorerConfig {
        budget: job_budget(
            spec.deadline_ms.map(Duration::from_millis),
            spec.max_itemsets,
        ),
        ..spec.run.config()
    })
    .with_cancel_token(cancel);
    let mode = spec.run.mode;
    let store = match CheckpointStore::open(job_dir) {
        Ok(store) => store,
        Err(e) => {
            return Ok(JobRunOutcome::Transient(format!(
                "cannot open job dir: {e}"
            )))
        }
    };
    let sequences = match store.sequences() {
        Ok(s) => s,
        Err(e) => {
            return Ok(JobRunOutcome::Transient(format!(
                "cannot scan job dir: {e}"
            )))
        }
    };
    let run = if sequences.is_empty() {
        pipeline.fit_checkpointed(&frame, &outcomes, mode, store, spec.checkpoint_every)
    } else {
        match pipeline.resume_checkpointed(
            &frame,
            &outcomes,
            mode,
            store.clone(),
            spec.checkpoint_every,
        ) {
            Ok(run) => Ok(run),
            // A resume refusal (fingerprint mismatch, unreadable file)
            // means the checkpoints cannot continue this run: appended
            // rows moved the dataset fingerprint (refused before any
            // discretization), a drain that interrupted discretization
            // sealed the fingerprint of truncated trees, or a file is in
            // an older layout. Recovery must never brick a job on a stale
            // checkpoint: delete them and redo the work from scratch.
            Err(_) => {
                for seq in &sequences {
                    let _ = std::fs::remove_file(store.path_of(*seq));
                }
                pipeline.fit_checkpointed(&frame, &outcomes, mode, store, spec.checkpoint_every)
            }
        }
    };
    let mut run = match run {
        Ok(run) => run,
        Err(e) => return Ok(JobRunOutcome::Permanent(e.to_string())),
    };
    let termination = run.result.termination();
    if termination == Termination::Cancelled(CancelReason::Shutdown) {
        // Drain: the freshly finalized checkpoint is the handoff to the
        // next process; deliberately no completion marker.
        return Ok(JobRunOutcome::Drained);
    }
    // The sealed body is the `/jobs/<id>/result` byte-identity surface: a
    // resumed run must serve the same bytes an uninterrupted run would
    // have. Every report field is deterministic except wall-clock elapsed
    // time, so pin it before serialising.
    run.result.report.elapsed = std::time::Duration::ZERO;
    let record = DoneRecord {
        ok: true,
        termination: termination.as_str().to_string(),
        attempts: attempt.number,
        body: report_to_json(&run.result.report, &run.result.catalog),
        retries: attempt.retries,
        resumed: attempt.resumed,
    };
    match write_sealed(&job_dir.join(COMPLETE_FILE), &record.encode()) {
        Ok(()) => {
            // Advance the ingest cursor only after the result is durable:
            // the cursor is scheduling metadata (how many WAL rows the
            // sealed result covers). Best-effort — losing it degrades to
            // one redundant re-mine, never to wrong results.
            let prior = hdx_ingest::IngestCursor::load(&job_dir.join(hdx_ingest::CURSOR_FILE))
                .ok()
                .flatten()
                .unwrap_or_default();
            let _ = hdx_ingest::IngestCursor {
                rows_folded: n_wal_rows,
                ..prior
            }
            .save(&job_dir.join(hdx_ingest::CURSOR_FILE));
            Ok(JobRunOutcome::Done(record))
        }
        Err(e) => Ok(JobRunOutcome::Transient(format!(
            "cannot seal completion marker: {e}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::parse_submission;
    use crate::json::parse_object;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hdx-serve-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    fn sample_csv() -> String {
        let mut csv = String::from("class,pred,age,grp\n");
        for r in 0..120usize {
            csv.push_str(&format!(
                "{},{},{},{}\n",
                u8::from(r % 3 == 0),
                u8::from(r % 4 == 0),
                r % 17,
                ["a", "b", "c"][r % 3],
            ));
        }
        csv
    }

    fn spec_and_csv() -> (JobSpec, String) {
        let body = format!(
            r#"{{"csv":"{}","stat":"fpr","support":0.05,"checkpoint_every":1}}"#,
            crate::json::escape(&sample_csv())
        );
        parse_submission(&parse_object(&body).expect("json")).expect("spec")
    }

    #[test]
    fn a_fresh_job_completes_and_seals_its_marker() {
        let dir = tmp_dir("fresh");
        let (spec, csv) = spec_and_csv();
        std::fs::write(dir.join(crate::DATA_FILE), csv).expect("persist csv");
        let outcome = execute(&spec, &dir, CancelToken::new(), 1);
        let JobRunOutcome::Done(record) = outcome else {
            panic!("expected Done, got {outcome:?}");
        };
        assert!(record.ok);
        assert_eq!(record.termination, "complete");
        assert!(record.body.contains("\"subgroups\""));
        assert!(
            record.body.contains("\"elapsed_seconds\":0"),
            "wall-clock time must be pinned out of the sealed body"
        );
        let sealed =
            hdx_checkpoint::read_sealed(&dir.join(COMPLETE_FILE)).expect("marker readable");
        assert_eq!(DoneRecord::decode(&sealed).expect("decodes"), record);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_input_is_a_permanent_failure() {
        let dir = tmp_dir("permanent");
        let (mut spec, csv) = spec_and_csv();
        spec.run.label_col = "missing".into();
        std::fs::write(dir.join(crate::DATA_FILE), csv).expect("persist csv");
        let outcome = execute(&spec, &dir, CancelToken::new(), 1);
        assert!(
            matches!(outcome, JobRunOutcome::Permanent(_)),
            "{outcome:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_missing_dataset_is_transient() {
        let dir = tmp_dir("transient");
        let (spec, _) = spec_and_csv();
        let outcome = execute(&spec, &dir, CancelToken::new(), 1);
        assert!(
            matches!(outcome, JobRunOutcome::Transient(_)),
            "{outcome:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_cancel_leaves_the_job_resumable_to_identical_bytes() {
        let dir = tmp_dir("drain");
        let (spec, csv) = spec_and_csv();
        std::fs::write(dir.join(crate::DATA_FILE), &csv).expect("persist csv");
        // Pre-cancelled token: the governor trips at the first poll, after
        // the first checkpoint boundary seals.
        let cancel = CancelToken::new();
        cancel.cancel_for_shutdown();
        let outcome = execute(&spec, &dir, cancel, 1);
        assert!(matches!(outcome, JobRunOutcome::Drained), "{outcome:?}");
        assert!(
            !dir.join(COMPLETE_FILE).exists(),
            "a drained job must not look finished"
        );
        // "Next start": the resumed run completes to the same bytes an
        // uninterrupted run produces.
        let resumed = execute(&spec, &dir, CancelToken::new(), 2);
        let JobRunOutcome::Done(resumed) = resumed else {
            panic!("expected Done after resume, got {resumed:?}");
        };
        let fresh_dir = tmp_dir("drain-fresh");
        std::fs::write(fresh_dir.join(crate::DATA_FILE), &csv).expect("persist csv");
        let JobRunOutcome::Done(fresh) = execute(&spec, &fresh_dir, CancelToken::new(), 1) else {
            panic!("fresh run failed");
        };
        assert_eq!(resumed.body, fresh.body, "resume must be byte-identical");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&fresh_dir);
    }
}
