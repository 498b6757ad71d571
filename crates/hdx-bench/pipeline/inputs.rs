//! Workload inputs and the library fit path.
//!
//! Every dataset comes from `hdx-datasets` with the run's seed and is
//! rendered to CSV text the way `hdx generate` exports it (label and
//! prediction columns, or the numeric target, appended). The program under
//! test only ever receives that text.

use std::time::{Duration, Instant};

use hdx_core::{
    real_outcomes, report_to_json, DivergenceReport, Governor, HDivExplorer, HDivExplorerConfig,
    OutcomeFn,
};
use hdx_data::{read_csv_str, Column, CsvOptions, DataFrame, DataFrameBuilder, Value};
use hdx_datasets::Dataset;
use hdx_mining::{mine_governed, MiningConfig, Transactions};
use hdx_stats::Outcome;

/// Minimum subgroup support of every job.
pub const SUPPORT: f64 = 0.05;

/// The statistic a job mines.
#[derive(Clone, Copy)]
pub enum Stat {
    /// False-positive rate of `y_pred` against `y_true`.
    Fpr,
    /// Error rate of `y_pred` against `y_true`.
    Error,
    /// Mean of the numeric `target` column.
    Target,
}

/// One mining job: CSV text plus the statistic to mine.
pub struct Job {
    pub csv: String,
    pub stat: Stat,
}

impl Job {
    /// Renders a generated dataset into a job.
    pub fn from_dataset(dataset: &Dataset, stat: Stat) -> Self {
        Self {
            csv: render_csv(dataset),
            stat,
        }
    }

    /// The same job over the header and the first `rows` data rows.
    pub fn head(&self, rows: usize) -> Self {
        let end = self
            .csv
            .match_indices('\n')
            .nth(rows)
            .map_or(self.csv.len(), |(i, _)| i + 1);
        Self {
            csv: self.csv[..end].to_string(),
            stat: self.stat,
        }
    }

    /// The `POST /jobs` body for this job.
    pub fn submission(&self, tenant: &str) -> String {
        let columns = match self.stat {
            Stat::Fpr => r#""stat":"fpr","label_col":"y_true","pred_col":"y_pred""#,
            Stat::Error => r#""stat":"error","label_col":"y_true","pred_col":"y_pred""#,
            Stat::Target => r#""stat":"target","target_col":"target""#,
        };
        format!(
            r#"{{"tenant":"{tenant}","csv":"{}",{columns},"support":{SUPPORT}}}"#,
            hdx_serve::json::escape(&self.csv)
        )
    }
}

/// The data rows (no header) of CSV text.
pub fn data_rows(csv: &str) -> Vec<String> {
    csv.lines().skip(1).map(str::to_string).collect()
}

/// CSV text of `base` followed by `rows`, as the service concatenates a
/// job's dataset with its ingest WAL.
pub fn concat(base: &str, rows: &[String]) -> String {
    let mut csv = base.to_string();
    for row in rows {
        csv.push_str(row);
        csv.push('\n');
    }
    csv
}

/// Exports the attributes plus the label/prediction or target columns.
fn render_csv(dataset: &Dataset) -> String {
    let mut builder = DataFrameBuilder::new();
    for (_, attr) in dataset.frame.schema().iter() {
        builder
            .add_attribute(attr.clone())
            .expect("generated attribute names are unique");
    }
    let labels = dataset.y_true.as_ref().zip(dataset.y_pred.as_ref());
    if labels.is_some() {
        builder.add_categorical("y_true").expect("fresh column");
        builder.add_categorical("y_pred").expect("fresh column");
    }
    if dataset.target.is_some() {
        builder.add_continuous("target").expect("fresh column");
    }
    for row in 0..dataset.n_rows() {
        let mut cells: Vec<Value> = dataset
            .frame
            .schema()
            .iter()
            .map(|(id, _)| dataset.frame.column(id).value(row))
            .collect();
        if let Some((y_true, y_pred)) = labels {
            cells.push(Value::Cat(y_true[row].to_string()));
            cells.push(Value::Cat(y_pred[row].to_string()));
        }
        if let Some(target) = &dataset.target {
            cells.push(Value::Num(target[row]));
        }
        builder.push_row(cells).expect("row matches the schema");
    }
    hdx_data::write_csv_string(&builder.finish(), ',')
}

/// The pipeline configuration every job runs with (the service's defaults
/// at support [`SUPPORT`]).
fn config() -> HDivExplorerConfig {
    HDivExplorerConfig {
        min_support: SUPPORT,
        ..HDivExplorerConfig::default()
    }
}

fn parse(csv: &str) -> Result<DataFrame, String> {
    read_csv_str(csv, &CsvOptions::default()).map_err(|e| format!("cannot parse CSV: {e}"))
}

fn labels(df: &DataFrame, name: &str) -> Result<Vec<bool>, String> {
    match df.column_by_name(name).map_err(|e| e.to_string())? {
        Column::Categorical(c) => Ok((0..df.n_rows())
            .map(|row| c.level(c.code(row)) == "true")
            .collect()),
        Column::Continuous(_) => Err(format!("label column `{name}` is numeric")),
    }
}

/// The mining frame (label, prediction and target columns dropped) and
/// the per-row outcomes.
fn outcomes(df: &DataFrame, stat: Stat) -> Result<(DataFrame, Vec<Outcome>), String> {
    let (outcomes, drop) = match stat {
        Stat::Target => {
            let attr = df.schema().require("target").map_err(|e| e.to_string())?;
            (real_outcomes(df.continuous(attr).values()), vec!["target"])
        }
        Stat::Fpr | Stat::Error => {
            let f = if matches!(stat, Stat::Fpr) {
                OutcomeFn::Fpr
            } else {
                OutcomeFn::ErrorRate
            };
            let computed = f.compute(&labels(df, "y_true")?, &labels(df, "y_pred")?);
            (computed, vec!["y_true", "y_pred"])
        }
    };
    let frame = df.drop_columns(&drop).map_err(|e| e.to_string())?;
    Ok((frame, outcomes))
}

/// CSV text in, ranked JSON out, through `HDivExplorer::fit`. The elapsed
/// time is pinned to zero, as the service pins it, so outputs compare
/// byte for byte.
pub fn fit_json(job: &Job) -> Result<String, String> {
    let df = parse(&job.csv)?;
    let (frame, outcomes) = outcomes(&df, job.stat)?;
    let mut result = HDivExplorer::new(config()).fit(&frame, &outcomes);
    result.report.elapsed = Duration::ZERO;
    Ok(report_to_json(&result.report, &result.catalog))
}

/// Per-layer times and counts of one staged fit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub parse: Duration,
    pub outcomes: Duration,
    pub discretize: Duration,
    pub encode: Duration,
    pub mine: Duration,
    pub rank: Duration,
    pub json: Duration,
    pub items: usize,
    pub itemsets: usize,
    pub candidate_bytes: u64,
    pub json_bytes: usize,
}

impl Stages {
    /// The stage durations in pipeline order, with their metric names.
    pub fn named(&self) -> [(&'static str, Duration); 7] {
        [
            ("data.csv_parse_ms", self.parse),
            ("core.outcomes_ms", self.outcomes),
            ("discretize.ms", self.discretize),
            ("mining.encode_ms", self.encode),
            ("mining.mine_ms", self.mine),
            ("core.rank_ms", self.rank),
            ("core.json_ms", self.json),
        ]
    }
}

/// [`fit_json`] split into one timed public call per layer. It makes the
/// calls `HDivExplorer::fit` makes, so its JSON must equal `fit_json`'s.
pub fn fit_staged(job: &Job) -> Result<(String, Stages), String> {
    let mut stages = Stages::default();
    let t = Instant::now();
    let df = parse(&job.csv)?;
    stages.parse = t.elapsed();

    let t = Instant::now();
    let (frame, outcomes) = outcomes(&df, job.stat)?;
    stages.outcomes = t.elapsed();

    let t = Instant::now();
    let disc_governor = Governor::unbounded();
    let (catalog, hierarchies, _trees) =
        HDivExplorer::new(config()).discretize_governed(&frame, &outcomes, &disc_governor);
    stages.discretize = t.elapsed();
    stages.items = catalog.len();

    let t = Instant::now();
    let transactions = Transactions::encode_generalized(&frame, &catalog, &hierarchies, &outcomes);
    stages.encode = t.elapsed();

    let t = Instant::now();
    let mine_governor = Governor::unbounded();
    let mining = MiningConfig {
        min_support: SUPPORT,
        ..MiningConfig::default()
    };
    let mined = mine_governed(&transactions, &catalog, &mining, &mine_governor);
    stages.mine = t.elapsed();
    stages.itemsets = mined.itemsets.len();

    let t = Instant::now();
    let mut report = DivergenceReport::from_mining(&mined, &catalog, Duration::ZERO);
    report.termination = report.termination.worst(disc_governor.termination());
    report.counters = mine_governor.counters().merged(disc_governor.counters());
    stages.rank = t.elapsed();
    stages.candidate_bytes = report.counters.candidate_bytes;

    let t = Instant::now();
    let json = report_to_json(&report, &catalog);
    stages.json = t.elapsed();
    stages.json_bytes = json.len();
    Ok((json, stages))
}
