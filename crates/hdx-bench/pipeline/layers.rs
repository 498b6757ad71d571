//! The traced run: the workload's job split into timed public calls, one
//! group per layer (crate), measured in isolation on the workload's input.
//!
//! * hdx-data, hdx-core, hdx-discretize, hdx-mining — the staged fit
//!   ([`fit_staged`]), alternated with the untraced `HDivExplorer::fit` so
//!   the tracing overhead is measured on the same input;
//! * hdx-serve — `runner::execute` on a prepared job dir, and single
//!   requests against a loopback server (idle `GET /healthz`, and the
//!   job's first [`Sizes::compas`] rows: submit, status, result);
//! * hdx-checkpoint — the sealed files a run leaves, and `write_sealed` of
//!   a result-sized payload;
//! * hdx-ingest — `Wal::append_row` / `commit` in 100-row batches of the
//!   workload's rows, then `Wal::open` and `replay_dir` of that WAL.

use std::path::Path;
use std::time::Instant;

use hdx_checkpoint::{read_sealed, write_sealed, CheckpointStore};
use hdx_core::CancelToken;
use hdx_ingest::{replay_dir, Wal, WalConfig};
use hdx_serve::job::{parse_submission, JobSpec};
use hdx_serve::runner::{self, JobRunOutcome};

use crate::inputs::{fit_json, fit_staged, Job, Stages};
use crate::service::{self, Service};
use crate::stats::{median, ms, percentile};
use crate::workloads::{replays, same, Checks, Ctx, Sizes};
use crate::Metric;

/// Rows per WAL commit, as one append request carries.
const BATCH_ROWS: usize = 100;
/// Repetitions of the cheap single calls.
const REPS: usize = 20;
/// Repetitions of the costlier ones (reopening a WAL, a job through HTTP).
const FEW_REPS: usize = 5;

/// What a traced run times: the job, and the rows its WAL probe appends.
pub struct LayerInput {
    pub job: Job,
    pub wal_rows: Vec<String>,
}

/// Runs every layer's calls on `input` and returns the per-layer metrics.
pub fn pass(
    input: &LayerInput,
    ctx: &Ctx,
    sizes: &Sizes,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let mut metrics = Vec::new();
    let reference = fit_json(&input.job)?;
    pipeline(input, ctx, &reference, checks, &mut metrics)?;
    sealed_write(ctx, &reference, checks, &mut metrics)?;
    wal(input, ctx, sizes, checks, &mut metrics)?;
    http(input, ctx, sizes, checks, &mut metrics)?;
    Ok(metrics)
}

/// The service's spec for `job` (parsed by the service's own parser). The
/// runner reads the dataset from the job dir, so the body carries none.
fn runner_spec(job: &Job) -> Result<JobSpec, String> {
    let placeholder = Job {
        csv: "-".into(),
        stat: job.stat,
    };
    let body = placeholder.submission("layers");
    let object = hdx_serve::json::parse_object(&body)?;
    Ok(parse_submission(&object)?.0)
}

/// Staged fit, untraced fit and `runner::execute`, in turn, for the
/// measurement window (at least once each).
fn pipeline(
    input: &LayerInput,
    ctx: &Ctx,
    reference: &str,
    checks: &mut Checks,
    metrics: &mut Vec<Metric>,
) -> Result<(), String> {
    let spec = runner_spec(&input.job)?;
    let mut stages: Vec<Stages> = Vec::new();
    let (mut staged_ms, mut fit_ms, mut run_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut files = 0;
    let start = Instant::now();
    while run_ms.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        let t = Instant::now();
        let staged = fit_staged(&input.job);
        staged_ms.push(ms(t.elapsed()));
        let (json, stage) = staged?;
        checks.record(same("staged JSON", Ok(json), reference));
        stages.push(stage);

        let t = Instant::now();
        let json = fit_json(&input.job);
        fit_ms.push(ms(t.elapsed()));
        checks.record(same("fit JSON", json, reference));

        let dir = ctx.scratch.join("run");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create job dir: {e}"))?;
        std::fs::write(dir.join(hdx_serve::DATA_FILE), &input.job.csv)
            .map_err(|e| format!("cannot write dataset: {e}"))?;
        let t = Instant::now();
        let outcome = runner::execute(&spec, &dir, CancelToken::new(), 1);
        run_ms.push(ms(t.elapsed()));
        checks.record(match outcome {
            JobRunOutcome::Done(record) if record.ok => {
                same("runner result", Ok(record.body), reference)
            }
            other => Err(format!("runner: {other:?}")),
        });
        files = CheckpointStore::open(&dir)
            .and_then(|store| store.sequences())
            .map_err(|e| format!("cannot list checkpoints: {e}"))?
            .len();
    }
    let last = stages.last().expect("at least one staged fit");
    let mut stage_sum = 0.0;
    for (i, (name, _)) in last.named().into_iter().enumerate() {
        let times: Vec<f64> = stages.iter().map(|s| ms(s.named()[i].1)).collect();
        let p50 = median(&times);
        stage_sum += p50;
        metrics.push(Metric::new(name, p50, "ms"));
    }
    let untraced = median(&fit_ms);
    let run = median(&run_ms);
    metrics.extend([
        Metric::new("discretize.items", last.items as f64, "count"),
        Metric::new("mining.itemsets", last.itemsets as f64, "count"),
        Metric::new(
            "mining.candidate_bytes",
            last.candidate_bytes as f64,
            "bytes",
        ),
        Metric::new("core.json_bytes", last.json_bytes as f64, "bytes"),
        Metric::new("fit.stage_sum_ms", stage_sum, "ms"),
        Metric::new("fit.untraced_ms", untraced, "ms"),
        Metric::new(
            "trace_overhead_pct",
            (median(&staged_ms) / untraced - 1.0) * 100.0,
            "%",
        ),
        Metric::new("serve.run_ms", run, "ms"),
        Metric::new("serve.runner_overhead_ms", run - stage_sum, "ms"),
        Metric::new("checkpoint.files_per_job", files as f64, "count"),
    ]);
    Ok(())
}

/// `write_sealed` of a result-sized payload.
fn sealed_write(
    ctx: &Ctx,
    reference: &str,
    checks: &mut Checks,
    metrics: &mut Vec<Metric>,
) -> Result<(), String> {
    let path = ctx.scratch.join("sealed.hdx");
    let mut write_ms = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        write_sealed(&path, reference.as_bytes()).map_err(|e| format!("write_sealed: {e}"))?;
        write_ms.push(ms(t.elapsed()));
    }
    checks.record(match read_sealed(&path) {
        Ok(payload) if payload == reference.as_bytes() => Ok(()),
        Ok(_) => Err("sealed payload differs".into()),
        Err(e) => Err(format!("read_sealed: {e}")),
    });
    metrics.push(Metric::new(
        "checkpoint.write_sealed_ms",
        median(&write_ms),
        "ms",
    ));
    Ok(())
}

/// Appends the workload's rows (repeated up to the probe size) to a fresh
/// WAL in 100-row commits, then reopens and replays it.
fn wal(
    input: &LayerInput,
    ctx: &Ctx,
    sizes: &Sizes,
    checks: &mut Checks,
    metrics: &mut Vec<Metric>,
) -> Result<(), String> {
    let dir = ctx.scratch.join("wal");
    let fail = |what: &'static str| move |e: hdx_ingest::IngestError| format!("{what}: {e}");
    let n = sizes.wal_probe_rows.max(input.wal_rows.len());
    let rows: Vec<String> = input.wal_rows.iter().cycle().take(n).cloned().collect();
    let (mut wal, _) = Wal::open(&dir, WalConfig::default()).map_err(fail("open WAL"))?;
    let (mut append_us, mut commit_ms) = (Vec::new(), Vec::new());
    for batch in rows.chunks(BATCH_ROWS) {
        let t = Instant::now();
        for row in batch {
            wal.append_row(row.as_bytes()).map_err(fail("append"))?;
        }
        append_us.push(t.elapsed().as_secs_f64() * 1e6 / batch.len() as f64);
        let t = Instant::now();
        wal.commit().map_err(fail("commit"))?;
        commit_ms.push(ms(t.elapsed()));
    }
    drop(wal);
    let (mut open_ms, mut replay_ms) = (Vec::new(), Vec::new());
    for _ in 0..FEW_REPS {
        let t = Instant::now();
        let (reopened, report) =
            Wal::open(&dir, WalConfig::default()).map_err(fail("reopen WAL"))?;
        open_ms.push(ms(t.elapsed()));
        checks.record(if report.is_clean() && reopened.total_rows() == n as u64 {
            Ok(())
        } else {
            Err(format!("reopened WAL holds {} rows", reopened.total_rows()))
        });
        let t = Instant::now();
        replay_dir(&dir).map_err(fail("replay"))?;
        replay_ms.push(ms(t.elapsed()));
    }
    checks.record(replays(&dir, &rows));
    metrics.extend([
        Metric::new("ingest.append_row_us", median(&append_us), "us"),
        Metric::new("ingest.commit_ms_p50", median(&commit_ms), "ms"),
        Metric::new("ingest.commit_ms_p95", percentile(&commit_ms, 95.0), "ms"),
        Metric::new("ingest.wal_open_ms", median(&open_ms), "ms"),
        Metric::new("ingest.replay_ms", median(&replay_ms), "ms"),
        Metric::new("ingest.wal_rows", n as f64, "count"),
        Metric::new("ingest.wal_bytes", dir_bytes(&dir)? as f64, "bytes"),
    ]);
    Ok(())
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("cannot list WAL: {e}"))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("cannot stat WAL file: {e}"))?;
        total += meta.len();
    }
    Ok(total)
}

/// Single requests against a loopback server, one at a time.
fn http(
    input: &LayerInput,
    ctx: &Ctx,
    sizes: &Sizes,
    checks: &mut Checks,
    metrics: &mut Vec<Metric>,
) -> Result<(), String> {
    let job = input.job.head(sizes.compas);
    let expected = fit_json(&job)?;
    let submission = job.submission("layers");
    let mut service = Service::start(service::config(&ctx.scratch.join("http")))?;
    let addr = service.addr;
    let mut idle_ms = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        checks.record(service::healthz(addr));
        idle_ms.push(ms(t.elapsed()));
    }
    let (mut submit_ms, mut status_ms, mut result_ms, mut polls) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..FEW_REPS {
        let t = Instant::now();
        let id = service::submit(addr, &submission)?;
        submit_ms.push(ms(t.elapsed()));
        polls.push(service::wait_done(addr, &id, 0, Some(&mut status_ms))? as f64);
        let t = Instant::now();
        let body = service::result(addr, &id);
        result_ms.push(ms(t.elapsed()));
        checks.record(same("served result", body, &expected));
    }
    service.stop()?;
    metrics.extend([
        Metric::new("serve.idle_request_ms", median(&idle_ms), "ms"),
        Metric::new("serve.submit_ms", median(&submit_ms), "ms"),
        Metric::new("serve.status_ms", median(&status_ms), "ms"),
        Metric::new("serve.result_ms", median(&result_ms), "ms"),
        Metric::new("serve.polls_per_job", median(&polls), "count"),
    ]);
    Ok(())
}
