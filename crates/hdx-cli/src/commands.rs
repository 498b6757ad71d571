//! Command implementations, returning the text to print.

use hdx_baselines::{
    CombinedTreeConfig, CombinedTreeExplorer, SliceFinder, SliceFinderConfig, SliceLine,
    SliceLineConfig,
};
use hdx_core::checkpoint::{codec, read_sealed, write_sealed, CheckpointStore, MANIFEST_FILE};
use hdx_core::{
    job_budget, mining_input, report_to_json, CheckpointedRun, DivergenceReport, HDivExplorer,
    HDivExplorerConfig, HDivResult, InputError, RunSpec,
};
use hdx_data::{read_csv, CsvOptions, DataFrame};
use hdx_stats::Outcome;

use crate::args::{
    spec_error, AppendOpts, BaselinesOpts, CliError, Command, DiscretizeOpts, ExploreOpts,
    GenerateOpts, ResumeOpts, ValidateTelemetryOpts,
};
use crate::USAGE;

/// The output of a successful command.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Text to print on stdout.
    pub text: String,
    /// `Some(reason)` when the run degraded (deadline, budget, cancellation
    /// or a lost worker) and the results are a partial-but-valid subset; the
    /// binary reports the reason on stderr and exits with code 3.
    pub partial: Option<String>,
    /// Human-readable span/metric table for stderr (`--trace-summary`).
    pub trace_summary: Option<String>,
    /// Informational lines for stderr (checkpoint/resume progress). Kept off
    /// stdout so a resumed run's report diffs clean against an uninterrupted
    /// one.
    pub notes: Vec<String>,
}

impl RunOutput {
    fn complete(text: String) -> Self {
        Self {
            text,
            partial: None,
            trace_summary: None,
            notes: Vec::new(),
        }
    }
}

/// Runs a parsed command, returning its output.
///
/// # Errors
/// Returns a [`CliError`] with a user-facing message on any failure.
pub fn run(command: Command) -> Result<RunOutput, CliError> {
    match command {
        Command::Help => Ok(RunOutput::complete(USAGE.to_string())),
        Command::Describe { path, separator } => {
            let df = read_csv(
                &path,
                &CsvOptions {
                    separator,
                    ..CsvOptions::default()
                },
            )
            .map_err(|e| CliError(format!("cannot read `{path}`: {e}")))?;
            Ok(RunOutput::complete(hdx_data::describe(&df).to_string()))
        }
        Command::Explore(opts) => explore(&opts),
        Command::Resume(opts) => resume(&opts),
        Command::Append(opts) => append(&opts),
        Command::Discretize(opts) => discretize(&opts).map(RunOutput::complete),
        Command::Baselines(opts) => baselines(&opts).map(RunOutput::complete),
        Command::Generate(opts) => generate(&opts).map(RunOutput::complete),
        Command::ValidateTelemetry(opts) => validate_telemetry(&opts).map(RunOutput::complete),
        Command::ValidateMetrics { path } => validate_metrics(&path).map(RunOutput::complete),
        Command::Serve(config) => serve(config),
    }
}

/// Runs the job server until a graceful drain (`POST /shutdown`) completes.
///
/// The listening line goes straight to stdout *before* the blocking accept
/// loop so callers (and the CI smoke test) can discover the bound port; the
/// returned [`RunOutput`] only carries the post-drain summary.
fn serve(config: hdx_serve::ServeConfig) -> Result<RunOutput, CliError> {
    use std::io::Write as _;
    let server = hdx_serve::Server::bind(config)
        .map_err(|e| CliError(format!("cannot start server: {e}")))?;
    for note in &server.recovery_notes {
        eprintln!("hdx: {note}");
    }
    println!("hdx: serving on http://{}", server.local_addr());
    let _ = std::io::stdout().flush();
    server
        .run()
        .map_err(|e| CliError(format!("server failed: {e}")))?;
    Ok(RunOutput::complete("hdx: drain complete\n".to_string()))
}

/// `hdx append`: durable local ingestion into a row WAL.
///
/// Every row is CRC-framed and the batch is fsynced before the command
/// reports success, so an acknowledged append survives `kill -9`. Opening
/// the WAL heals crash damage from earlier runs: torn tails and corrupt
/// segments are quarantined (the bytes set aside, the valid prefix kept)
/// and reported as a *partial* outcome — exit code 3, stderr notes — while
/// the new rows still land.
fn append(opts: &AppendOpts) -> Result<RunOutput, CliError> {
    use hdx_ingest::{Wal, WalConfig};
    let raw = std::fs::read_to_string(&opts.rows_path)
        .map_err(|e| CliError(format!("cannot read `{}`: {e}", opts.rows_path)))?;
    let rows: Vec<&str> = raw.lines().filter(|l| !l.trim().is_empty()).collect();
    if rows.is_empty() {
        return Err(CliError(format!("`{}` contains no rows", opts.rows_path)));
    }
    let (mut wal, report) = Wal::open(&opts.wal_dir, WalConfig::default())
        .map_err(|e| CliError(format!("cannot open WAL `{}`: {e}", opts.wal_dir)))?;
    for row in &rows {
        wal.append_row(row.as_bytes())
            .map_err(|e| CliError(format!("append failed: {e}")))?;
    }
    wal.commit()
        .map_err(|e| CliError(format!("commit failed: {e}")))?;
    if opts.seal {
        wal.seal()
            .map_err(|e| CliError(format!("seal failed: {e}")))?;
    }
    let mut notes = Vec::new();
    let partial = if report.is_clean() {
        None
    } else {
        for line in &report.notes {
            notes.push(format!("ingest quarantine: {line}"));
        }
        report.summary()
    };
    let text = format!(
        "appended {} row(s); {} durable ({} sealed segment(s), {} open row(s))\n",
        rows.len(),
        wal.total_rows(),
        wal.sealed_segments().len(),
        wal.open_rows(),
    );
    Ok(RunOutput {
        text,
        partial,
        trace_summary: None,
        notes,
    })
}

/// Reads the CSV at `path` and hands it to the shared loader: (mining
/// frame, outcomes, stderr notes on quarantined cells).
fn read_input(
    path: &str,
    spec: &RunSpec,
) -> Result<(DataFrame, Vec<Outcome>, Vec<String>), CliError> {
    let options = CsvOptions {
        separator: spec.separator,
        ..CsvOptions::default()
    };
    let (df, quality) = hdx_data::read_csv_with_quality(path, &options)
        .map_err(|e| CliError(format!("cannot read `{path}`: {e}")))?;
    let (frame, outcomes) = mining_input(&df, spec).map_err(|e| match e {
        InputError::Spec(err) => spec_error(err),
        InputError::Invalid(message) => CliError(message),
    })?;
    let notes = quality
        .summary()
        .map(|s| format!("ingestion quarantine: {s}"));
    Ok((frame, outcomes, notes.into_iter().collect()))
}

/// The divergence a record must add over each of its sub-itemsets to be
/// listed under `--non-redundant`.
const NON_REDUNDANT_EPSILON: f64 = 1e-9;

/// `report` narrowed to its non-redundant records, in rank order: what
/// `--non-redundant` lists. The counters still count the whole run's work.
fn non_redundant_report(report: &DivergenceReport) -> DivergenceReport {
    DivergenceReport {
        records: report
            .non_redundant(NON_REDUNDANT_EPSILON)
            .into_iter()
            .cloned()
            .collect(),
        errors: report.errors.clone(),
        ..*report
    }
}

/// Renders a result as (stdout text, partial-run reason). Shared by `explore`
/// and `resume` so a resumed run's report is byte-identical to the report an
/// uninterrupted run would have printed.
fn render_result(
    result: &HDivResult,
    frame: &DataFrame,
    support: f64,
    top: usize,
    json: bool,
    non_redundant: bool,
) -> (String, Option<String>) {
    let partial = result.is_partial().then(|| {
        // Human phrasing ("timed out", "cancelled by user", ...) so the
        // banner tells a user cancel apart from a deadline trip; the JSON
        // report keeps the stable machine labels from `Termination::as_str`.
        let mut reason = result.termination().describe().to_string();
        for e in &result.report.errors {
            reason.push_str(&format!("; {e}"));
        }
        reason
    });
    if json {
        // `--non-redundant` narrows the JSON as it narrows the table.
        let text = if non_redundant {
            report_to_json(&non_redundant_report(&result.report), &result.catalog)
        } else {
            report_to_json(&result.report, &result.catalog)
        };
        return (text, partial);
    }
    let mut out = format!(
        "{} rows, {} attributes; global statistic {}\n{} subgroups above support {}\n\n",
        frame.n_rows(),
        frame.n_attributes(),
        result
            .report
            .global_statistic
            .map_or("undefined".to_string(), |g| format!("{g:.4}")),
        result.report.records.len(),
        support,
    );
    if let Some(reason) = &partial {
        out.push_str(&format!("PARTIAL RESULTS ({reason})"));
        if result.adaptive_retries > 0 {
            out.push_str(&format!(
                "; adaptive support raised to {}",
                result.effective_min_support
            ));
        }
        out.push('\n');
    } else if result.adaptive_retries > 0 {
        out.push_str(&format!(
            "adaptive support: completed at s={} after {} retries\n",
            result.effective_min_support, result.adaptive_retries
        ));
    }
    if non_redundant {
        let filtered = result.report.non_redundant(NON_REDUNDANT_EPSILON);
        out.push_str("itemset | sup | f | Δf | t  (non-redundant)\n");
        for r in filtered.iter().take(top) {
            out.push_str(&format!(
                "{}  sup={:.3} f={} Δ={} t={:.1}\n",
                r.label,
                r.support,
                r.statistic.map_or("-".into(), |s| format!("{s:.3}")),
                r.divergence.map_or("-".into(), |d| format!("{d:+.3}")),
                r.t_value,
            ));
        }
    } else {
        out.push_str(&result.report.table(top));
    }
    (out, partial)
}

/// Collects and (when requested) writes/renders telemetry. Flushes however
/// the run ended: a partial (exit-code-3) run still writes its artifact.
fn flush_telemetry(
    metrics_out: Option<&String>,
    trace_summary: bool,
) -> Result<Option<String>, CliError> {
    let telemetry = (metrics_out.is_some() || trace_summary).then(hdx_core::obs::collect);
    if let (Some(t), Some(path)) = (&telemetry, metrics_out) {
        std::fs::write(path, t.to_json())
            .map_err(|e| CliError(format!("cannot write `{path}`: {e}")))?;
    }
    Ok(telemetry
        .filter(|_| trace_summary)
        .map(|t| t.summary_table()))
}

/// Turns a [`CheckpointedRun`]'s bookkeeping into stderr notes.
fn checkpoint_notes(run: &CheckpointedRun, dir: &str, notes: &mut Vec<String>) {
    notes.push(format!(
        "{} checkpoint(s) written to {dir}",
        run.checkpoint_writes
    ));
    if run.rejected_checkpoints > 0 {
        notes.push(format!(
            "{} corrupt checkpoint(s) detected and skipped",
            run.rejected_checkpoints
        ));
    }
    if let Some(err) = &run.checkpoint_error {
        notes.push(format!(
            "checkpoint persistence degraded (run unaffected): {err}"
        ));
    }
}

fn explore(opts: &ExploreOpts) -> Result<RunOutput, CliError> {
    // Fresh telemetry per run, so `--metrics-out` describes this exploration
    // only (a no-op unless the `obs` feature is enabled).
    hdx_core::obs::reset();
    let (frame, outcomes, mut notes) = read_input(&opts.path, &opts.spec)?;
    let mut pipeline = HDivExplorer::new(HDivExplorerConfig {
        budget: job_budget(opts.timeout, opts.max_itemsets),
        adaptive_support: opts.adaptive_support,
        threads: opts.threads,
        polarity_pruning: opts.polarity,
        ..opts.spec.config()
    });
    if let Some(tolerance) = opts.fd_tolerance {
        pipeline = pipeline.with_discovered_taxonomies(&frame, tolerance);
    }
    let mode = opts.spec.mode;
    let result = match &opts.checkpoint_dir {
        None => pipeline.fit_mode(&frame, &outcomes, mode),
        Some(dir) => {
            let store = CheckpointStore::create(dir)
                .map_err(|e| CliError(format!("cannot create checkpoint dir `{dir}`: {e}")))?;
            Manifest {
                path: opts.path.clone(),
                spec: opts.spec.clone(),
                adaptive_support: opts.adaptive_support,
                fd_tolerance: opts.fd_tolerance,
                checkpoint_every: opts.checkpoint_every,
            }
            .write(dir)?;
            let run = pipeline
                .fit_checkpointed(&frame, &outcomes, mode, store, opts.checkpoint_every)
                .map_err(|e| CliError(e.to_string()))?;
            checkpoint_notes(&run, dir, &mut notes);
            run.result
        }
    };
    let (text, partial) = render_result(
        &result,
        &frame,
        opts.spec.support,
        opts.top,
        opts.json,
        opts.non_redundant,
    );
    let trace_summary = flush_telemetry(opts.metrics_out.as_ref(), opts.trace_summary)?;
    Ok(RunOutput {
        text,
        partial,
        trace_summary,
        notes,
    })
}

fn resume(opts: &ResumeOpts) -> Result<RunOutput, CliError> {
    hdx_core::obs::reset();
    let manifest = Manifest::load(&opts.dir)?;
    let (frame, outcomes, mut notes) = read_input(&manifest.path, &manifest.spec)?;
    // Budgets are per-invocation: the interrupted run's budget is exactly
    // what it tripped on, so only flags given to `resume` itself apply.
    let mut pipeline = HDivExplorer::new(HDivExplorerConfig {
        budget: job_budget(opts.timeout, opts.max_itemsets),
        adaptive_support: manifest.adaptive_support,
        ..manifest.spec.config()
    });
    if let Some(tolerance) = manifest.fd_tolerance {
        pipeline = pipeline.with_discovered_taxonomies(&frame, tolerance);
    }
    let store = CheckpointStore::open(&opts.dir)
        .map_err(|e| CliError(format!("cannot open checkpoint dir `{}`: {e}", opts.dir)))?;
    let run = pipeline
        .resume_checkpointed(
            &frame,
            &outcomes,
            manifest.spec.mode,
            store,
            manifest.checkpoint_every,
        )
        .map_err(|e| CliError(format!("cannot resume from `{}`: {e}", opts.dir)))?;
    if let Some(seq) = run.resumed_seq {
        notes.push(format!("resumed from checkpoint #{seq} in {}", opts.dir));
    }
    checkpoint_notes(&run, &opts.dir, &mut notes);
    let (text, partial) = render_result(
        &run.result,
        &frame,
        manifest.spec.support,
        opts.top,
        opts.json,
        opts.non_redundant,
    );
    let trace_summary = flush_telemetry(opts.metrics_out.as_ref(), opts.trace_summary)?;
    Ok(RunOutput {
        text,
        partial,
        trace_summary,
        notes,
    })
}

/// The manifest sealed into a checkpoint directory: everything `hdx resume`
/// needs to reconstruct the run without repeating the original flags.
struct Manifest {
    path: String,
    spec: RunSpec,
    adaptive_support: bool,
    fd_tolerance: Option<f64>,
    checkpoint_every: u64,
}

/// Version 1 sealed the separator as a `u32` code point; version 2 seals
/// the [`RunSpec`] layout, where it is UTF-8. Version 1 is refused.
const MANIFEST_VERSION: u8 = 2;

impl Manifest {
    fn write(&self, dir: &str) -> Result<(), CliError> {
        let mut w = codec::ByteWriter::new();
        w.put_u8(MANIFEST_VERSION);
        w.put_str(&self.path);
        self.spec.encode(&mut w);
        w.put_bool(self.adaptive_support);
        w.put_opt_f64(self.fd_tolerance);
        w.put_u64(self.checkpoint_every);
        let path = std::path::Path::new(dir).join(MANIFEST_FILE);
        write_sealed(&path, &w.into_bytes())
            .map_err(|e| CliError(format!("cannot write `{}`: {e}", path.display())))
    }

    fn load(dir: &str) -> Result<Self, CliError> {
        let path = std::path::Path::new(dir).join(MANIFEST_FILE);
        let err = |e: hdx_core::checkpoint::CheckpointError| {
            CliError(format!("`{}`: {e}", path.display()))
        };
        let payload = read_sealed(&path).map_err(err)?;
        let mut r = codec::ByteReader::new(&payload);
        let version = r.u8().map_err(err)?;
        if version != MANIFEST_VERSION {
            return Err(CliError(format!(
                "`{}`: unsupported manifest version {version}",
                path.display()
            )));
        }
        let manifest = Self {
            path: r.str().map_err(err)?,
            spec: RunSpec::decode(&mut r).map_err(err)?,
            adaptive_support: r.bool().map_err(err)?,
            fd_tolerance: r.opt_f64().map_err(err)?,
            checkpoint_every: r.u64().map_err(err)?,
        };
        r.finish().map_err(err)?;
        Ok(manifest)
    }
}

/// Validates a telemetry artifact: schema + registered metrics always; the
/// given stages/counters when requested (the CI `obs-smoke` gate).
fn validate_telemetry(opts: &ValidateTelemetryOpts) -> Result<String, CliError> {
    let raw = std::fs::read_to_string(&opts.path)
        .map_err(|e| CliError(format!("cannot read `{}`: {e}", opts.path)))?;
    let telemetry = hdx_core::obs::RunTelemetry::from_json(&raw)
        .map_err(|e| CliError(format!("`{}`: {e}", opts.path)))?;
    telemetry
        .validate()
        .map_err(|e| CliError(format!("`{}`: {e}", opts.path)))?;
    let stages: Vec<&str> = opts.require_stages.iter().map(String::as_str).collect();
    telemetry
        .validate_stages(&stages)
        .map_err(|e| CliError(format!("`{}`: {e}", opts.path)))?;
    for name in &opts.require_counters {
        if telemetry.counter_named(name) == 0 {
            return Err(CliError(format!(
                "`{}`: counter `{name}` is zero or missing",
                opts.path
            )));
        }
    }
    Ok(format!(
        "{}: valid ({} spans, {} counters)\n",
        opts.path,
        telemetry.spans.len(),
        telemetry.counters.len(),
    ))
}

/// Validates a saved `GET /metrics` scrape against the text-format 0.0.4
/// grammar (the CI `serve-smoke` gate for the exposition endpoint).
fn validate_metrics(path: &str) -> Result<String, CliError> {
    let page = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read `{path}`: {e}")))?;
    hdx_core::obs::expo::check_grammar(&page).map_err(|e| CliError(format!("`{path}`: {e}")))?;
    let families = page.lines().filter(|l| l.starts_with("# TYPE ")).count();
    Ok(format!("{path}: valid exposition ({families} families)\n"))
}

fn discretize(opts: &DiscretizeOpts) -> Result<String, CliError> {
    let (frame, outcomes, _) = read_input(&opts.path, &opts.spec)?;
    let pipeline = HDivExplorer::new(opts.spec.config());
    let (catalog, _, trees) = pipeline.discretize(&frame, &outcomes);
    let mut out = String::new();
    for tree in &trees {
        let name = frame.schema().name(tree.attr);
        if opts.attr.as_deref().is_some_and(|a| a != name) {
            continue;
        }
        out.push_str(&format!("== {name} ==\n{}\n", tree.render(&catalog)));
    }
    if out.is_empty() {
        return Err(CliError(match &opts.attr {
            Some(a) => format!("no continuous attribute named `{a}`"),
            None => "no continuous attributes to discretize".into(),
        }));
    }
    Ok(out)
}

fn baselines(opts: &BaselinesOpts) -> Result<String, CliError> {
    let (frame, outcomes, _) = read_input(&opts.path, &opts.spec)?;
    let losses: Vec<f64> = outcomes.iter().map(|o| o.value().unwrap_or(0.0)).collect();
    let pipeline = HDivExplorer::new(opts.spec.config());
    let (catalog, hierarchies, _) = pipeline.discretize(&frame, &outcomes);
    let leaf_items = hierarchies.leaf_items();

    let mut out = String::new();
    out.push_str("== Slice Finder ==\n");
    let sf = SliceFinder::new(SliceFinderConfig {
        effect_size_threshold: opts.sf_threshold,
        ..SliceFinderConfig::default()
    });
    match sf.find(&frame, &catalog, &leaf_items, &losses).first() {
        Some(s) => out.push_str(&format!(
            "{}  size={} effect={:.2} mean-loss={:.3}\n",
            s.label, s.size, s.effect_size, s.mean_loss
        )),
        None => out.push_str("no problematic slice found\n"),
    }

    out.push_str("\n== SliceLine ==\n");
    if losses.iter().sum::<f64>() > 0.0 {
        let sl = SliceLine::new(SliceLineConfig {
            alpha: opts.sl_alpha,
            min_size: opts.min_size,
            ..SliceLineConfig::default()
        });
        for s in sl.find(&frame, &catalog, &leaf_items, &losses) {
            out.push_str(&format!(
                "{}  size={} mean-error={:.3} score={:.3}\n",
                s.label, s.size, s.mean_error, s.score
            ));
        }
    } else {
        out.push_str("average loss is zero; nothing to find\n");
    }

    out.push_str("\n== Combined tree ==\n");
    let leaves = CombinedTreeExplorer::new(CombinedTreeConfig {
        min_support: opts.spec.tree_support,
        max_depth: None,
    })
    .explore(&frame, &outcomes);
    for leaf in leaves.iter().take(5) {
        out.push_str(&format!(
            "{}  sup={:.3} Δ={} t={:.1}\n",
            leaf.label,
            leaf.support,
            leaf.divergence.map_or("-".into(), |d| format!("{d:+.3}")),
            leaf.t_value,
        ));
    }
    Ok(out)
}

fn generate(opts: &GenerateOpts) -> Result<String, CliError> {
    use hdx_datasets as ds;
    let rows = |full: usize| opts.rows.unwrap_or(full);
    let dataset = match opts.dataset.as_str() {
        "adult" => ds::adult(rows(ds::default_rows::ADULT), opts.seed),
        "bank" => ds::bank(rows(ds::default_rows::BANK), opts.seed),
        "compas" => ds::compas(rows(ds::default_rows::COMPAS), opts.seed),
        "folktables" => ds::folktables(rows(ds::default_rows::FOLKTABLES), opts.seed),
        "german" => ds::german(rows(ds::default_rows::GERMAN), opts.seed),
        "intentions" => ds::intentions(rows(ds::default_rows::INTENTIONS), opts.seed),
        "synthetic-peak" => ds::synthetic_peak(rows(ds::default_rows::SYNTHETIC_PEAK), opts.seed),
        "wine" => ds::wine(rows(ds::default_rows::WINE), opts.seed),
        other => return Err(CliError(format!("unknown dataset `{other}`"))),
    };

    // Append label/prediction/target columns to the frame for export.
    let mut builder = hdx_data::DataFrameBuilder::new();
    for (_, attr) in dataset.frame.schema().iter() {
        builder
            .add_attribute(attr.clone())
            .map_err(|e| CliError(e.to_string()))?;
    }
    let labels = dataset.y_true.as_ref().zip(dataset.y_pred.as_ref());
    let target = dataset.target.as_ref();
    if labels.is_some() {
        builder
            .add_categorical("y_true")
            .map_err(|e| CliError(e.to_string()))?;
        builder
            .add_categorical("y_pred")
            .map_err(|e| CliError(e.to_string()))?;
    }
    if target.is_some() {
        builder
            .add_continuous("target")
            .map_err(|e| CliError(e.to_string()))?;
    }
    for row in 0..dataset.n_rows() {
        let mut cells: Vec<hdx_data::Value> = dataset
            .frame
            .schema()
            .iter()
            .map(|(id, _)| dataset.frame.column(id).value(row))
            .collect();
        if let Some((y_true, y_pred)) = labels {
            cells.push(hdx_data::Value::Cat(y_true[row].to_string()));
            cells.push(hdx_data::Value::Cat(y_pred[row].to_string()));
        }
        if let Some(values) = target {
            cells.push(hdx_data::Value::Num(values[row]));
        }
        builder
            .push_row(cells)
            .map_err(|e| CliError(e.to_string()))?;
    }
    let export = builder.finish();
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("{}.csv", opts.dataset));
    hdx_data::write_csv(&export, &path).map_err(|e| CliError(e.to_string()))?;
    Ok(format!(
        "wrote {} rows × {} columns to {path}\n",
        export.n_rows(),
        export.n_attributes(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("hdx-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn run_args(args: &[&str]) -> Result<String, CliError> {
        run(parse(v(args))?).map(|o| o.text)
    }

    fn run_full(args: &[&str]) -> Result<RunOutput, CliError> {
        run(parse(v(args))?)
    }

    #[test]
    fn describe_refuses_more_columns_than_attribute_ids() {
        let width = hdx_data::Schema::MAX_ATTRIBUTES + 1;
        let header: Vec<String> = (0..width).map(|i| format!("c{i}")).collect();
        let path = tmp("too-wide.csv");
        let text = format!("{}\n{}\n", header.join(","), vec!["1"; width].join(","));
        std::fs::write(&path, text).unwrap();
        let err = run_args(&["describe", &path]).unwrap_err();
        assert!(err.to_string().contains("65536 attributes"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_lands_rows_and_seals_segments() {
        let rows = tmp("append-rows.csv");
        std::fs::write(&rows, "1,0,61,b\n0,0,30,a\n\n1,1,70,b\n").unwrap();
        let wal = tmp("append-wal");
        let _ = std::fs::remove_dir_all(&wal);

        let out = run_full(&["append", &rows, "--wal", &wal]).expect("append");
        assert!(out.partial.is_none(), "{:?}", out.notes);
        assert!(out.text.contains("appended 3 row(s)"), "{}", out.text);
        assert!(out.text.contains("3 durable"), "{}", out.text);

        // Each sealed append seals the open segment into one more segment.
        for _ in 0..3 {
            run_full(&["append", &rows, "--wal", &wal, "--seal"]).expect("sealed append");
        }
        let out = run_full(&["append", &rows, "--wal", &wal, "--seal"]).expect("sealed append");
        assert!(out.text.contains("15 durable"), "{}", out.text);
        assert!(out.text.contains("4 sealed segment(s)"), "{}", out.text);
        assert!(out.text.contains("0 open row(s)"), "{}", out.text);

        assert!(run_full(&["append", &tmp("no-such-rows.csv"), "--wal", &wal]).is_err());
        let empty = tmp("append-empty.csv");
        std::fs::write(&empty, "\n\n").unwrap();
        assert!(run_full(&["append", &empty, "--wal", &wal])
            .unwrap_err()
            .0
            .contains("no rows"));
        let _ = std::fs::remove_dir_all(&wal);
    }

    #[test]
    fn append_quarantines_a_torn_tail_as_partial() {
        use std::io::Write as _;
        let rows = tmp("torn-rows.csv");
        std::fs::write(&rows, "1,0,61,b\n").unwrap();
        let wal = tmp("torn-wal");
        let _ = std::fs::remove_dir_all(&wal);
        run_full(&["append", &rows, "--wal", &wal]).expect("first append");

        // A frame header promising more bytes than the file holds — what an
        // interrupted append leaves behind.
        let open_log = std::path::Path::new(&wal).join(hdx_ingest::OPEN_FILE);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&open_log)
            .unwrap();
        f.write_all(&[0xFF, 0, 0, 0, 0xAA]).unwrap();
        drop(f);

        let out = run_full(&["append", &rows, "--wal", &wal]).expect("healing append");
        let reason = out.partial.as_deref().expect("torn tail is partial");
        assert!(reason.contains("quarantine"), "{reason}");
        assert!(
            out.notes.iter().any(|n| n.contains("ingest quarantine")),
            "{:?}",
            out.notes
        );
        // Degrade, not die: both acknowledged rows survive the quarantine.
        assert!(out.text.contains("2 durable"), "{}", out.text);
        let _ = std::fs::remove_dir_all(&wal);
    }

    /// Writes a CSV with an obvious anomaly: errors cluster at x>60 & g=b.
    fn write_fixture() -> String {
        write_fixture_at("fixture.csv")
    }

    /// [`write_fixture`] under a caller-owned name, for tests that mutate it.
    fn write_fixture_at(name: &str) -> String {
        let path = tmp(name);
        let mut csv = String::from("x,g,y_true,y_pred\n");
        for i in 0..400 {
            let x = i % 100;
            let g = if i % 2 == 0 { "a" } else { "b" };
            let t = true;
            let err = x > 60 && g == "b" && i % 8 != 0;
            csv.push_str(&format!("{x},{g},{t},{}\n", t != err));
        }
        // Tests run in parallel and share `fixture.csv`: write a private
        // copy and rename it into place, so a reader never sees the file
        // truncated by another test's rewrite.
        let staged = format!("{path}.{:?}", std::thread::current().id());
        std::fs::write(&staged, csv).unwrap();
        std::fs::rename(&staged, &path).unwrap();
        path
    }

    #[test]
    fn explore_finds_the_cluster() {
        let path = write_fixture();
        let out = run_args(&["explore", &path, "--stat", "error", "-s", "0.05"]).unwrap();
        assert!(out.contains("global statistic"));
        assert!(out.contains("g=b"), "output:\n{out}");
        assert!(out.contains("x>"), "output:\n{out}");
    }

    #[test]
    fn explore_json_mode() {
        let path = write_fixture();
        let out = run_args(&["explore", &path, "--json"]).unwrap();
        assert!(out.starts_with('{'));
        assert!(out.contains("\"subgroups\":["));
    }

    #[test]
    fn non_redundant_json_lists_the_rows_the_table_lists() {
        let path = tmp("compas-nonredundant.csv");
        run_args(&["generate", "compas", "--rows", "1500", "--out", &path]).unwrap();
        let explore = |extra: &[&str]| {
            let mut args = vec!["explore", &path, "--stat", "fpr", "--top", "100000"];
            args.extend_from_slice(extra);
            run_args(&args).unwrap()
        };
        let subgroups = |json: &str| {
            let doc = hdx_core::obs::json::parse(json).unwrap();
            let list = doc.get("subgroups").and_then(|s| s.as_arr()).unwrap();
            list.iter()
                .map(|r| r.get("label").and_then(|l| l.as_str()).unwrap().to_string())
                .collect::<Vec<_>>()
        };
        let table = explore(&["--non-redundant"]);
        let rows: Vec<&str> = table
            .lines()
            .skip_while(|l| !l.ends_with("(non-redundant)"))
            .skip(1)
            .collect();
        let narrowed = subgroups(&explore(&["--non-redundant", "--json"]));
        let all = subgroups(&explore(&["--json"]));
        assert!(narrowed.len() < all.len(), "the filter drops records");
        assert_eq!(narrowed.len(), rows.len());
        // The same records, in rank order.
        for (label, row) in narrowed.iter().zip(&rows) {
            assert!(
                row.starts_with(&format!("{label}  sup=")),
                "{label} vs {row}"
            );
        }
        let ranks: Vec<usize> = narrowed
            .iter()
            .map(|label| all.iter().position(|l| l == label).unwrap())
            .collect();
        assert!(ranks.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn explore_base_vs_hier() {
        let path = write_fixture();
        let base = run_args(&["explore", &path, "--mode", "base", "--top", "1"]).unwrap();
        let hier = run_args(&["explore", &path, "--mode", "hierarchical", "--top", "1"]).unwrap();
        // Both run; the hierarchical report mines at least as many subgroups.
        let count = |s: &str| {
            s.lines()
                .find(|l| l.contains("subgroups above support"))
                .and_then(|l| l.split_whitespace().next()?.parse::<usize>().ok())
                .unwrap()
        };
        assert!(count(&hier) >= count(&base));
    }

    #[test]
    fn discretize_prints_trees() {
        let path = write_fixture();
        let out = run_args(&["discretize", &path]).unwrap();
        assert!(out.contains("== x =="));
        assert!(out.contains("root"));
        // Restricting to a categorical/unknown attr errors.
        assert!(run_args(&["discretize", &path, "--attr", "nope"]).is_err());
    }

    #[test]
    fn baselines_all_three_sections() {
        let path = write_fixture();
        let out = run_args(&["baselines", &path]).unwrap();
        assert!(out.contains("== Slice Finder =="));
        assert!(out.contains("== SliceLine =="));
        assert!(out.contains("== Combined tree =="));
    }

    #[test]
    fn generate_then_explore_roundtrip() {
        let path = tmp("compas.csv");
        let out = run_args(&["generate", "compas", "--rows", "800", "--out", &path]).unwrap();
        assert!(out.contains("800 rows"));
        let report = run_args(&["explore", &path, "--stat", "fpr", "-s", "0.05"]).unwrap();
        assert!(report.contains("#prior"), "report:\n{report}");
    }

    #[test]
    fn generate_target_dataset() {
        let path = tmp("folk.csv");
        run_args(&["generate", "folktables", "--rows", "500", "--out", &path]).unwrap();
        let report = run_args(&[
            "explore",
            &path,
            "--stat",
            "target",
            "--target-col",
            "target",
            "-s",
            "0.1",
        ])
        .unwrap();
        assert!(report.contains("global statistic"));
    }

    #[test]
    fn label_errors_are_clear() {
        let path = tmp("bad.csv");
        std::fs::write(&path, "x,y_true,y_pred\n1,true,maybe\n").unwrap();
        let err = run_args(&["explore", &path]).unwrap_err();
        assert!(err.0.contains("not boolean"), "{err}");
        let err2 = run_args(&["explore", "/nonexistent/file.csv"]).unwrap_err();
        assert!(err2.0.contains("cannot read"));
        let err3 = run_args(&["explore", &path, "--stat", "target"]).unwrap_err();
        assert!(err3.0.contains("--target-col"));
    }

    /// Parses the `N subgroups above support` line of a report.
    fn count_subgroups(text: &str) -> u64 {
        text.lines()
            .find(|l| l.contains("subgroups above support"))
            .and_then(|l| l.split_whitespace().next()?.parse().ok())
            .unwrap()
    }

    #[test]
    fn checkpointed_explore_then_resume_matches_uninterrupted() {
        let path = write_fixture();
        let ckpt = tmp("ckpt-resume");
        let _ = std::fs::remove_dir_all(&ckpt);
        let full = run_full(&["explore", &path, "-s", "0.05"]).unwrap();
        assert!(full.partial.is_none());
        // Trip the budget two itemsets short of completion, mid-mining.
        let cap = (count_subgroups(&full.text) - 2).to_string();
        let capped = run_full(&[
            "explore",
            &path,
            "-s",
            "0.05",
            "--checkpoint-dir",
            &ckpt,
            "--max-itemsets",
            &cap,
        ])
        .unwrap();
        assert!(capped.partial.is_some(), "capped run is partial");
        assert!(std::path::Path::new(&ckpt).join("manifest.hdx").exists());
        assert!(
            capped
                .notes
                .iter()
                .any(|n| n.contains("checkpoint(s) written")),
            "notes: {:?}",
            capped.notes
        );
        // The resumed run (no budget of its own) completes and its report is
        // byte-identical to the uninterrupted one.
        let resumed = run_full(&["resume", &ckpt]).unwrap();
        assert!(resumed.partial.is_none(), "notes: {:?}", resumed.notes);
        assert!(
            resumed
                .notes
                .iter()
                .any(|n| n.contains("resumed from checkpoint")),
            "notes: {:?}",
            resumed.notes
        );
        assert_eq!(resumed.text, full.text);
    }

    #[test]
    fn resume_rejects_an_edited_dataset() {
        let path = write_fixture_at("fixture-edit.csv");
        let ckpt = tmp("ckpt-edit");
        let _ = std::fs::remove_dir_all(&ckpt);
        let full = run_full(&["explore", &path, "-s", "0.05"]).unwrap();
        let cap = (count_subgroups(&full.text) - 2).to_string();
        run_full(&[
            "explore",
            &path,
            "-s",
            "0.05",
            "--checkpoint-dir",
            &ckpt,
            "--max-itemsets",
            &cap,
        ])
        .unwrap();
        // Grow the dataset by one row: the fingerprint no longer matches.
        let mut csv = std::fs::read_to_string(&path).unwrap();
        csv.push_str("99,a,true,true\n");
        std::fs::write(&path, csv).unwrap();
        let err = run_full(&["resume", &ckpt]).unwrap_err();
        assert!(err.0.contains("dataset fingerprint mismatch"), "{err}");
    }

    /// A version 1 manifest (its separator a `u32` code point) is refused,
    /// naming its version, rather than misread as version 2.
    #[test]
    fn resume_refuses_a_version_1_manifest() {
        let path = write_fixture();
        let dir = tmp("ckpt-v1");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = codec::ByteWriter::new();
        w.put_u8(1);
        w.put_str(&path);
        w.put_u8(hdx_core::Statistic::Error.code());
        w.put_str("y_true");
        w.put_str("y_pred");
        w.put_bool(false);
        w.put_u32(u32::from(','));
        w.put_f64(0.05);
        w.put_f64(0.1);
        w.put_bool(false);
        w.put_bool(false);
        w.put_opt_u32(None);
        w.put_bool(false);
        w.put_opt_f64(None);
        w.put_u64(1);
        let manifest = std::path::Path::new(&dir).join(MANIFEST_FILE);
        write_sealed(&manifest, &w.into_bytes()).unwrap();
        let err = run_full(&["resume", &dir]).unwrap_err();
        assert!(
            err.0
                .ends_with("manifest.hdx`: unsupported manifest version 1"),
            "{err}"
        );
    }

    #[test]
    fn dirty_csv_cells_are_quarantined_with_a_note() {
        let src = write_fixture();
        let path = tmp("dirty.csv");
        let mut csv = std::fs::read_to_string(&src).unwrap();
        csv.push_str("NaN,b,true,true\ninf,a,true,true\n");
        std::fs::write(&path, csv).unwrap();
        let out = run_full(&["explore", &path, "-s", "0.05"]).unwrap();
        assert!(out.partial.is_none());
        assert!(
            out.notes
                .iter()
                .any(|n| n.contains("ingestion quarantine") && n.contains("2×x")),
            "notes: {:?}",
            out.notes
        );
        assert!(out.text.contains("402 rows"), "text:\n{}", out.text);
    }

    #[test]
    fn resume_without_a_manifest_errors() {
        let dir = tmp("ckpt-empty");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let err = run_full(&["resume", &dir]).unwrap_err();
        assert!(err.0.contains("manifest.hdx"), "{err}");
        // A damaged manifest is rejected by the envelope, not mis-decoded.
        std::fs::write(std::path::Path::new(&dir).join("manifest.hdx"), b"junk").unwrap();
        let err = run_full(&["resume", &dir]).unwrap_err();
        assert!(err.0.contains("checkpoint"), "{err}");
    }

    #[test]
    fn budgeted_explore_reports_partial() {
        let path = write_fixture();
        // A complete run is not partial.
        let full = run_full(&["explore", &path]).unwrap();
        assert!(full.partial.is_none());
        // An itemset cap produces partial results, flagged for exit code 3.
        let capped = run_full(&["explore", &path, "-s", "0.01", "--max-itemsets", "3"]).unwrap();
        let reason = capped.partial.as_deref().expect("capped run is partial");
        assert!(reason.contains("budget exhausted"), "reason: {reason}");
        assert!(capped.text.contains("PARTIAL RESULTS"));
        assert!(
            capped.text.contains("3 subgroups"),
            "text:\n{}",
            capped.text
        );
        // JSON mode carries the verdict in-band.
        let json = run_full(&[
            "explore",
            &path,
            "-s",
            "0.01",
            "--max-itemsets",
            "3",
            "--json",
        ])
        .unwrap();
        assert!(json.partial.is_some());
        assert!(json.text.contains("\"termination\":\"budget_exhausted\""));
        assert!(json.text.contains("\"partial\":true"));
    }

    #[test]
    fn zero_timeout_still_produces_a_report() {
        let path = write_fixture();
        let out = run_full(&["explore", &path, "--timeout", "0ms"]).unwrap();
        let reason = out.partial.as_deref().expect("zero timeout is partial");
        assert!(reason.contains("timed out"), "reason: {reason}");
        assert!(out.text.contains("0 subgroups"), "text:\n{}", out.text);
    }

    #[test]
    fn adaptive_support_coarsens_instead_of_truncating() {
        let path = write_fixture();
        let out = run_full(&[
            "explore",
            &path,
            "-s",
            "0.01",
            "--max-itemsets",
            "6",
            "--adaptive-support",
        ])
        .unwrap();
        // Either the coarser retry completes (no partial flag) or the budget
        // still trips at the support ceiling — both must mention adaptation.
        match &out.partial {
            None => assert!(out.text.contains("adaptive support"), "{}", out.text),
            Some(reason) => assert!(reason.contains("budget exhausted"), "{reason}"),
        }
    }

    #[test]
    fn metrics_out_writes_validatable_telemetry() {
        let path = write_fixture();
        let metrics = tmp("metrics.json");
        let out = run_full(&[
            "explore",
            &path,
            "--metrics-out",
            &metrics,
            "--trace-summary",
        ])
        .unwrap();
        let summary = out.trace_summary.as_deref().expect("summary requested");
        assert!(!summary.is_empty());
        let raw = std::fs::read_to_string(&metrics).unwrap();
        let t = hdx_core::obs::RunTelemetry::from_json(&raw).unwrap();
        t.validate().unwrap();
        // The subcommand agrees.
        let verdict = run_args(&["validate-telemetry", &metrics]).unwrap();
        assert!(verdict.contains("valid"), "{verdict}");
        #[cfg(feature = "obs")]
        {
            t.validate_stages(&["discretize", "mine", "explore"])
                .unwrap();
            assert!(t.counter_named("hdx.mining.candidates.generated") > 0);
            assert!(t.counter_named("hdx.mining.itemsets.emitted") > 0);
            assert!(t.counter_named("hdx.discretize.split.accepted") > 0);
        }
        #[cfg(not(feature = "obs"))]
        assert!(t.spans.is_empty(), "disabled builds record nothing");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn pruning_counters_reach_the_artifact() {
        let path = write_fixture();
        let metrics = tmp("metrics-pruning.json");
        // s = 0.2 prunes the 0.1-support tree leaves at level 1; polarity
        // pruning drops the sign-mismatched items from each polarity run.
        run_full(&[
            "explore",
            &path,
            "-s",
            "0.2",
            "--polarity",
            "--metrics-out",
            &metrics,
        ])
        .unwrap();
        let verdict = run_args(&[
            "validate-telemetry",
            &metrics,
            "--require-stage",
            "discretize",
            "--require-stage",
            "mine",
            "--require-stage",
            "explore",
            "--require-counter",
            "hdx.mining.candidates.pruned_support",
            "--require-counter",
            "hdx.core.polarity.pruned_items",
        ])
        .unwrap();
        assert!(verdict.contains("valid"), "{verdict}");
        // A check the artifact cannot satisfy fails.
        assert!(run_args(&[
            "validate-telemetry",
            &metrics,
            "--require-counter",
            "hdx.governor.trip.cancelled",
        ])
        .is_err());
    }

    #[test]
    fn partial_run_still_flushes_telemetry() {
        let path = write_fixture();
        let metrics = tmp("metrics-partial.json");
        let out = run_full(&[
            "explore",
            &path,
            "-s",
            "0.01",
            "--max-itemsets",
            "3",
            "--metrics-out",
            &metrics,
        ])
        .unwrap();
        assert!(out.partial.is_some(), "capped run is partial");
        let raw = std::fs::read_to_string(&metrics).unwrap();
        let t = hdx_core::obs::RunTelemetry::from_json(&raw).unwrap();
        t.validate().unwrap();
        #[cfg(feature = "obs")]
        assert!(t.counter_named("hdx.governor.trip.budget_exhausted") > 0);
    }

    #[test]
    fn validate_telemetry_rejects_garbage() {
        let path = tmp("garbage.json");
        std::fs::write(&path, "{\"schema\": \"bogus\"}").unwrap();
        assert!(run_args(&["validate-telemetry", &path]).is_err());
        assert!(run_args(&["validate-telemetry", "/nonexistent.json"]).is_err());
    }

    #[test]
    fn validate_telemetry_rejects_deep_nesting_without_overflowing() {
        let path = tmp("deep.json");
        std::fs::write(&path, "[".repeat(1_000_000)).unwrap();
        let err = run_args(&["validate-telemetry", &path]).unwrap_err();
        assert!(err.0.contains("nesting"), "{err}");
    }

    #[test]
    fn validate_metrics_accepts_expositions_and_rejects_garbage() {
        // A page rendered the same way `GET /metrics` renders one.
        let mut page = hdx_core::obs::expo::Exposition::new();
        hdx_core::obs::expo::render_registry(&mut page, &hdx_core::obs::RunTelemetry::empty());
        let good = tmp("scrape.prom");
        std::fs::write(&good, page.finish()).unwrap();
        let verdict = run_args(&["validate-metrics", &good]).unwrap();
        assert!(verdict.contains("valid exposition"), "{verdict}");

        let bad = tmp("scrape-bad.prom");
        std::fs::write(&bad, "# TYPE x counter\nx{oops 1\n").unwrap();
        assert!(run_args(&["validate-metrics", &bad]).is_err());
        assert!(run_args(&["validate-metrics", "/nonexistent.prom"]).is_err());
    }

    #[test]
    fn describe_summarises() {
        let path = write_fixture();
        let out = run_args(&["describe", &path]).unwrap();
        assert!(out.contains("400 rows"));
        assert!(out.contains("categorical"));
        assert!(out.contains("continuous"));
    }

    #[test]
    fn help_prints_usage() {
        let out = run_args(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
    }
}
