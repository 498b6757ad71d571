//! The workloads. Each one sets up, runs untimed warm-up operations, reads
//! the memory high-water mark, drives its operation in a closed loop for the
//! measurement window while checking every output, then sets up again
//! until it has [`MIN_SETUPS`] set-ups (`setup_s` is their median). Every
//! time is scaled to the reference host speed (see [`crate::host`]).
//!
//! | workload         | operation timed                                    |
//! |------------------|----------------------------------------------------|
//! | `fit-compas`     | library fit, CSV text → ranked JSON, 6,172 rows    |
//! | `fit-folktables` | the same, 195,556 rows, numeric target             |
//! | `fit-peak-500k`  | the same, 500,000 rows of synthetic-peak           |
//! | `ingest-append`  | `POST /jobs/<id>/append` of 100 rows → `202`       |
//! | `ingest-recover` | `Server::bind` over a state dir with a 60k-row WAL |

use std::path::{Path, PathBuf};

use hdx_datasets::{compas, folktables, synthetic_peak, Dataset};
use hdx_serve::{ServeConfig, Server};

use crate::host::{Meter, Reference, Task, Timed};
use crate::inputs::{concat, data_rows, fit_json, Job, Stat};
use crate::layers::{self, LayerInput};
use crate::service::{self, Service};
use crate::stats::{median, percentile, tail_percentile};
use crate::Metric;

/// Every workload, in run order.
pub const WORKLOADS: [&str; 5] = [
    "fit-compas",
    "fit-folktables",
    "fit-peak-500k",
    "ingest-append",
    "ingest-recover",
];

/// A run sets up at least `MIN_SETUPS` times, and until its set-ups took
/// `SETUP_SHARE` of the measurement window; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const SETUP_SHARE: f64 = 0.2;

/// Datasets per run for the compas-sized workloads, used in turn. A
/// run's median then spans several datasets, so it moves less with the
/// seed than one dataset's would.
const VARIANTS: usize = 8;

/// Each workload's reference task and its speed on the reference host: a
/// scaled time is the time the operation takes on a host that runs the
/// task at this speed. Each speed is a round figure within the range runs
/// saw on the shared 2-vCPU Xeon VM the benchmark was written on; the
/// inputs differ in size and content, and so in speed.
const REFERENCES: [(&str, Task, f64); 5] = [
    ("fit-compas", Task::Scan, 6.0),
    ("fit-folktables", Task::Scan, 4.5),
    ("fit-peak-500k", Task::Scan, 4.0),
    ("ingest-append", Task::Scan, 8.0),
    ("ingest-recover", Task::Crc, 3.3),
];

/// Where and how long one run works.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// Scratch directory for state dirs and WALs, inside the checkout.
    pub scratch: PathBuf,
}

/// Input sizes; `--quick` shrinks every one of them.
pub struct Sizes {
    pub compas: usize,
    pub folktables: usize,
    pub peak: usize,
    /// Rows of the base job the ingest workloads append to.
    pub ingest_base: usize,
    /// Rows per append request.
    pub batch_rows: usize,
    /// Appends per `ingest-append` round.
    pub append_round: usize,
    /// `ingest-append` waits for the re-mine after every this many appends.
    pub fresh_every: usize,
    /// Appends that build the `ingest-recover` WAL, and rows per append.
    pub recover_batches: usize,
    pub recover_batch_rows: usize,
    /// Rows of the WAL probe in the traced run (at least).
    pub wal_probe_rows: usize,
}

impl Sizes {
    pub fn of(quick: bool) -> Self {
        if quick {
            Self {
                compas: 1_000,
                folktables: 5_000,
                peak: 20_000,
                ingest_base: 500,
                batch_rows: 100,
                append_round: 6,
                fresh_every: 3,
                recover_batches: 4,
                recover_batch_rows: 250,
                wal_probe_rows: 2_000,
            }
        } else {
            Self {
                compas: 6_172,
                folktables: 195_556,
                peak: 500_000,
                ingest_base: 2_000,
                batch_rows: 100,
                append_round: 60,
                fresh_every: 20,
                recover_batches: 60,
                recover_batch_rows: 1_000,
                wal_probe_rows: 20_000,
            }
        }
    }
}

/// Output checks: every one attempted, and those that failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("bench_pipeline: check failed: {e}");
            }
        }
    }
}

/// `Ok` when `got` is exactly `want`.
pub fn same(what: &str, got: Result<String, String>, want: &str) -> Result<(), String> {
    match got {
        Ok(got) if got == want => Ok(()),
        Ok(got) => Err(format!(
            "{what} differs from the reference ({} vs {} bytes)",
            got.len(),
            want.len()
        )),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

/// `Ok` when the WAL at `dir` replays exactly `rows`.
pub fn replays(dir: &Path, rows: &[String]) -> Result<(), String> {
    let (replayed, _) = hdx_ingest::replay_dir(dir).map_err(|e| format!("replay: {e}"))?;
    if replayed.len() == rows.len() && replayed.iter().zip(rows).all(|(a, b)| a == b.as_bytes()) {
        Ok(())
    } else {
        Err(format!(
            "WAL replays {} rows, {} were acknowledged",
            replayed.len(),
            rows.len()
        ))
    }
}

/// What one run produced: its metrics and its output checks.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub checks: Checks,
}

/// Runs `workload` untraced (end-to-end metrics) or traced (per-layer).
pub fn run(workload: &str, ctx: &Ctx, trace: bool) -> Result<Report, String> {
    let sizes = Sizes::of(ctx.quick);
    if trace {
        let input = layer_input(workload, ctx, &sizes)?;
        let mut checks = Checks::default();
        let metrics = layers::pass(&input, ctx, &sizes, &mut checks)?;
        return Ok(Report { metrics, checks });
    }
    let r = REFERENCES
        .iter()
        .find(|(name, _, _)| *name == workload)
        .map(|&(_, task, ns_per_byte)| Reference { task, ns_per_byte })
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let measured = match workload {
        "fit-compas" => fit(ctx, r, compas, sizes.compas, Stat::Fpr, VARIANTS)?,
        "fit-folktables" => fit(ctx, r, folktables, sizes.folktables, Stat::Target, 1)?,
        "fit-peak-500k" => fit(ctx, r, synthetic_peak, sizes.peak, Stat::Error, 1)?,
        "ingest-append" => ingest(ctx, r, &sizes)?,
        "ingest-recover" => recover(ctx, r, &sizes)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    Ok(measured.report())
}

/// The raw measurements of an untraced run.
struct Measured {
    setups: Vec<Timed>,
    ops: Vec<Timed>,
    peak_rss_mb: f64,
    checks: Checks,
}

impl Measured {
    fn report(self) -> Report {
        let scaled = |t: &[Timed]| t.iter().map(|t| t.scaled_ms).collect::<Vec<_>>();
        let wall = |t: &[Timed]| t.iter().map(|t| t.wall_ms).collect::<Vec<_>>();
        let (ops, wall_ops) = (scaled(&self.ops), wall(&self.ops));
        let n = ops.len();
        let per_s = |ms: &[f64]| n as f64 / (ms.iter().sum::<f64>() / 1e3);
        let speeds: Vec<f64> = self.ops.iter().map(|t| t.speed).collect();
        let mut metrics = vec![
            Metric::new("setup_s", median(&scaled(&self.setups)) / 1e3, "s"),
            Metric::new("op_ms_p50", median(&ops), "ms"),
            Metric::new("ops_per_s", per_s(&ops), "1/s"),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MB"),
            Metric::new("op_samples", n as f64, "count"),
            Metric::new("setup_samples", self.setups.len() as f64, "count"),
            Metric::new(
                "error_rate",
                self.checks.failed as f64 / self.checks.attempted.max(1) as f64,
                "ratio",
            ),
            Metric::new("wall_setup_s", median(&wall(&self.setups)) / 1e3, "s"),
            Metric::new("wall_op_ms_p50", median(&wall_ops), "ms"),
            Metric::new("wall_ops_per_s", per_s(&wall_ops), "1/s"),
            Metric::new("host_speed", median(&speeds), "ratio"),
        ];
        if let Some(p) = tail_percentile(n) {
            metrics.push(Metric::new(
                &format!("op_ms_p{p}"),
                percentile(&ops, p),
                "ms",
            ));
        }
        Report {
            metrics,
            checks: self.checks,
        }
    }
}

/// One measurement window's results.
struct Window {
    ops: Vec<Timed>,
    checks: Checks,
}

/// Sets up (`make(0)`), runs the untimed `warm_up`, reads the memory
/// high-water mark, runs `measure` on that state, then sets up again (see
/// [`MIN_SETUPS`]), dropping each extra state at once. Each set-up is
/// followed by a run of the workload's `reference` task on its `input`.
/// Reading the high-water
/// mark after the first set-up and its warm-up keeps later set-ups'
/// allocator leftovers out of it, and keeps it independent of how many
/// operations the window completes.
fn measured<T>(
    ctx: &Ctx,
    reference: Reference,
    mut make: impl FnMut(usize) -> Result<T, String>,
    input: impl Fn(&T) -> &str,
    warm_up: impl FnOnce(&mut T) -> Result<(), String>,
    measure: impl FnOnce(T, Meter) -> Result<Window, String>,
) -> Result<Measured, String> {
    let mut first = Meter::new(reference);
    let mut state = first.time(|| make(0))?;
    first.calibrate(input(&state));
    warm_up(&mut state)?;
    let peak_rss_mb = peak_rss_mb()?;
    let window = measure(state, Meter::new(reference))?;
    // A meter of their own, so no reading from before the window counts
    // as the speed around the extra set-ups.
    let mut setups = first.finish("");
    let mut extra = Meter::new(reference);
    loop {
        let done = || setups.iter().chain(extra.timed());
        let (n, spent_ms) = (done().count(), done().map(|t| t.wall_ms).sum::<f64>());
        if n >= MIN_SETUPS && spent_ms / 1e3 >= SETUP_SHARE * ctx.seconds {
            break;
        }
        let state = extra.time(|| make(n))?;
        extra.calibrate(input(&state));
    }
    setups.extend(extra.finish(""));
    Ok(Measured {
        setups,
        ops: window.ops,
        peak_rss_mb,
        checks: window.checks,
    })
}

/// Calls `step(i)` for `i = 0, 1, …` until `seconds` have passed (at
/// least once).
fn closed_loop(
    seconds: f64,
    mut step: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let start = std::time::Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < seconds {
        step(i)?;
        i += 1;
    }
    Ok(())
}

/// The process's resident-set high-water mark (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The generator seed of a run's `i`-th dataset; runs with different
/// seeds use disjoint datasets.
fn dataset_seed(ctx: &Ctx, i: usize) -> u64 {
    ctx.seed * VARIANTS as u64 + i as u64
}

/// The fit workloads. Set-up generates and renders the datasets; the
/// warm-up fits each once, and those outputs are the references every
/// later fit of the same dataset must equal byte for byte.
fn fit(
    ctx: &Ctx,
    reference: Reference,
    generate: fn(usize, u64) -> Dataset,
    rows: usize,
    stat: Stat,
    variants: usize,
) -> Result<Measured, String> {
    measured(
        ctx,
        reference,
        |_| -> Result<(Vec<Job>, Vec<String>), String> {
            let jobs = (0..variants)
                .map(|i| Job::from_dataset(&generate(rows, dataset_seed(ctx, i)), stat))
                .collect();
            Ok((jobs, Vec::new()))
        },
        |(jobs, _)| &jobs[0].csv,
        |(jobs, references)| {
            *references = jobs.iter().map(fit_json).collect::<Result<_, _>>()?;
            Ok(())
        },
        |(jobs, references), mut meter| {
            let mut checks = Checks::default();
            closed_loop(ctx.seconds, |i| {
                let job = &jobs[i % jobs.len()];
                let json = meter.time(|| fit_json(job));
                checks.record(same("job JSON", json, &references[i % jobs.len()]));
                meter.calibrate_if_due(&job.csv);
                Ok(())
            })?;
            Ok(Window {
                ops: meter.finish(&jobs[0].csv),
                checks,
            })
        },
    )
}

/// A base job plus rows to append to it, with the result a cold run over
/// their concatenation gives.
struct IngestData {
    /// Base ⧺ appended rows, as CSV text.
    csv: String,
    base_submission: String,
    rows: Vec<String>,
    /// `rows` as append request bodies.
    batches: Vec<String>,
    expected: String,
}

fn ingest_data(
    seed: u64,
    sizes: &Sizes,
    batches: usize,
    batch_rows: usize,
) -> Result<IngestData, String> {
    let all = Job::from_dataset(
        &compas(sizes.ingest_base + batches * batch_rows, seed),
        Stat::Fpr,
    );
    let base = all.head(sizes.ingest_base);
    let rows = data_rows(&all.csv).split_off(sizes.ingest_base);
    debug_assert_eq!(concat(&base.csv, &rows), all.csv);
    Ok(IngestData {
        base_submission: base.submission("ingest"),
        batches: rows.chunks(batch_rows).map(|c| concat("", c)).collect(),
        expected: fit_json(&all)?,
        rows,
        csv: all.csv,
    })
}

/// Submits the base job and waits for its result; returns its id.
fn base_job(service: &Service, data: &IngestData) -> Result<String, String> {
    let id = service::submit(service.addr, &data.base_submission)?;
    service::wait_done(service.addr, &id, 0, None)?;
    Ok(id)
}

/// One round: a fresh base job, then every batch appended (each ack timed
/// in `meter`), waiting for the re-mine to cover the WAL after every
/// `fresh_every` appends, then the round's output checks and a reference
/// reading. The reading waits for the round's end because hdx-serve's accept
/// loop sleeps 10 ms between polls for connections: anything the client
/// did between two appends would shorten the next one's wait.
fn ingest_round(
    service: &Service,
    data: &IngestData,
    fresh_every: usize,
    meter: &mut Meter,
    checks: &mut Checks,
) {
    let addr = service.addr;
    let id = match base_job(service, data) {
        Ok(id) => id,
        Err(e) => {
            checks.record(Err(e));
            return;
        }
    };
    let mut rows = 0;
    for (i, batch) in data.batches.iter().enumerate() {
        checks.record(meter.time(|| service::append(addr, &id, batch)));
        rows += batch.lines().count() as u64;
        if (i + 1) % fresh_every == 0 || i + 1 == data.batches.len() {
            checks.record(service::wait_done(addr, &id, rows, None).map(drop));
        }
    }
    checks.record(same(
        "re-mined result",
        service::result(addr, &id),
        &data.expected,
    ));
    checks.record(replays(&service.wal_dir(&id), &data.rows));
    meter.calibrate(&data.csv);
}

/// Rounds over the run's datasets in turn until the window is full. A
/// round starts a new job, so the WAL an append opens never grows past one
/// round's rows however fast the code runs. Only the appends are timed:
/// the base jobs and re-mine waits between them wait on fsyncs of the
/// disk, whose speed on a shared host no reference task measures.
fn ingest(ctx: &Ctx, reference: Reference, sizes: &Sizes) -> Result<Measured, String> {
    measured(
        ctx,
        reference,
        |rep| {
            let data = (0..VARIANTS)
                .map(|i| {
                    ingest_data(
                        dataset_seed(ctx, i),
                        sizes,
                        sizes.append_round,
                        sizes.batch_rows,
                    )
                })
                .collect::<Result<Vec<_>, String>>()?;
            let state_dir = ctx.scratch.join(format!("ingest-{rep}"));
            Ok((data, Service::start(service::config(&state_dir))?))
        },
        |(data, _)| &data[0].csv,
        |(data, service)| base_job(service, &data[0]).map(drop),
        |(data, mut service), mut meter| {
            let mut checks = Checks::default();
            closed_loop(ctx.seconds, |round| {
                let round_data = &data[round % data.len()];
                ingest_round(
                    &service,
                    round_data,
                    sizes.fresh_every,
                    &mut meter,
                    &mut checks,
                );
                Ok(())
            })?;
            service.stop()?;
            let ops = meter.finish(&data[0].csv);
            if ops.is_empty() {
                return Err("no base job completed, so nothing was appended".into());
            }
            Ok(Window { ops, checks })
        },
    )
}

/// Restart recovery: the operation is `Server::bind` over the state dir a
/// stopped server left behind (one job whose WAL holds every appended row).
fn recover(ctx: &Ctx, reference: Reference, sizes: &Sizes) -> Result<Measured, String> {
    measured(
        ctx,
        reference,
        |rep| {
            let seed = dataset_seed(ctx, 0);
            let data = ingest_data(seed, sizes, sizes.recover_batches, sizes.recover_batch_rows)?;
            let dir = ctx.scratch.join(format!("recover-{rep}"));
            // One worker runs the re-mines the appends trigger one after
            // another on one thread, so the memory they leave behind is
            // the same from run to run.
            let mut service = Service::start(ServeConfig {
                workers: 1,
                ..service::config(&dir)
            })?;
            let id = base_job(&service, &data)?;
            for batch in &data.batches {
                service::append(service.addr, &id, batch)?;
            }
            service::wait_done(service.addr, &id, data.rows.len() as u64, None)?;
            service.stop()?;
            Ok((data, dir, id))
        },
        |(data, _, _)| &data.csv,
        |(_, dir, _)| {
            Server::bind(service::config(dir))
                .map(drop)
                .map_err(|e| format!("cannot recover: {e}"))
        },
        |(data, dir, id), mut meter| {
            let mut checks = Checks::default();
            closed_loop(ctx.seconds, |_| {
                let server = meter.time(|| Server::bind(service::config(&dir)));
                checks.record(match server {
                    Ok(server) if server.recovery_notes.is_empty() => Ok(()),
                    Ok(server) => Err(format!("recovery notes: {:?}", server.recovery_notes)),
                    Err(e) => Err(format!("cannot recover: {e}")),
                });
                meter.calibrate_if_due(&data.csv);
                Ok(())
            })?;
            // The recovered server serves the sealed result over every row.
            let mut service = Service::start(service::config(&dir))?;
            let rows = data.rows.len() as u64;
            checks.record(service::wait_done(service.addr, &id, rows, None).map(drop));
            checks.record(same(
                "recovered result",
                service::result(service.addr, &id),
                &data.expected,
            ));
            checks.record(replays(&service.wal_dir(&id), &data.rows));
            service.stop()?;
            Ok(Window {
                ops: meter.finish(&data.csv),
                checks,
            })
        },
    )
}

/// The traced run's input: the job whose layers are timed (the workload's
/// first dataset; for ingest workloads, the base with the rows one round
/// appends) and the rows the WAL probe appends.
fn layer_input(workload: &str, ctx: &Ctx, sizes: &Sizes) -> Result<LayerInput, String> {
    let seed = dataset_seed(ctx, 0);
    let dataset_job = |dataset: Dataset, stat| {
        let job = Job::from_dataset(&dataset, stat);
        let wal_rows = data_rows(&job.head(sizes.wal_probe_rows).csv);
        LayerInput { job, wal_rows }
    };
    let ingest_job = |batches, batch_rows| {
        let all = Job::from_dataset(
            &compas(sizes.ingest_base + batches * batch_rows, seed),
            Stat::Fpr,
        );
        let wal_rows = data_rows(&all.csv).split_off(sizes.ingest_base);
        LayerInput { job: all, wal_rows }
    };
    Ok(match workload {
        "fit-compas" => dataset_job(compas(sizes.compas, seed), Stat::Fpr),
        "fit-folktables" => dataset_job(folktables(sizes.folktables, seed), Stat::Target),
        "fit-peak-500k" => dataset_job(synthetic_peak(sizes.peak, seed), Stat::Error),
        "ingest-append" => ingest_job(sizes.append_round, sizes.batch_rows),
        "ingest-recover" => ingest_job(sizes.recover_batches, sizes.recover_batch_rows),
        other => return Err(format!("unknown workload `{other}`")),
    })
}
