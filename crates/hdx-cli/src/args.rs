//! Command-line parsing (hand-rolled; no dependencies).

use std::fmt;
use std::time::Duration;

use hdx_core::Statistic;
use hdx_serve::ServeConfig;

/// CLI failure: a message shown to the user (exit code 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl CliError {
    fn new(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

/// Parses a `--stat` value.
fn parse_stat(s: &str) -> Result<Statistic, CliError> {
    Ok(match s {
        "fpr" => Statistic::Fpr,
        "fnr" => Statistic::Fnr,
        "tpr" => Statistic::Tpr,
        "tnr" => Statistic::Tnr,
        "error" => Statistic::Error,
        "accuracy" => Statistic::Accuracy,
        "positive-rate" => Statistic::PositiveRate,
        "target" => Statistic::Target,
        other => return Err(CliError::new(format!("unknown --stat `{other}`"))),
    })
}

/// Options shared by the CSV-consuming commands.
#[derive(Debug, Clone)]
pub struct InputOpts {
    /// CSV path.
    pub path: String,
    /// Statistic.
    pub stat: Statistic,
    /// Ground-truth column name.
    pub label_col: String,
    /// Prediction column name.
    pub pred_col: String,
    /// Target column (for [`Statistic::Target`]).
    pub target_col: Option<String>,
    /// CSV separator.
    pub separator: char,
}

impl InputOpts {
    fn new(path: String) -> Self {
        Self {
            path,
            stat: Statistic::Error,
            label_col: "y_true".into(),
            pred_col: "y_pred".into(),
            target_col: None,
            separator: ',',
        }
    }
}

/// `hdx explore` options.
#[derive(Debug, Clone)]
pub struct ExploreOpts {
    /// Input options.
    pub input: InputOpts,
    /// Exploration support `s`.
    pub support: f64,
    /// Tree support `st`.
    pub tree_support: f64,
    /// `true` = entropy criterion.
    pub entropy: bool,
    /// `true` = base (leaf-only) exploration.
    pub base_mode: bool,
    /// Polarity pruning.
    pub polarity: bool,
    /// Pattern length cap.
    pub max_len: Option<usize>,
    /// Mining worker threads (checkpointed runs mine serially).
    pub threads: usize,
    /// Rows to print.
    pub top: usize,
    /// Redundancy filter.
    pub non_redundant: bool,
    /// FD-taxonomy discovery tolerance.
    pub fd_tolerance: Option<f64>,
    /// JSON output.
    pub json: bool,
    /// Wall-clock budget for the run (partial results + exit code 3 when
    /// exceeded).
    pub timeout: Option<Duration>,
    /// Cap on mined itemsets (partial results + exit code 3 when hit).
    pub max_itemsets: Option<u64>,
    /// Retry with doubled support when the itemset budget trips.
    pub adaptive_support: bool,
    /// Write the machine-readable run telemetry (JSON) to this path.
    /// Partial (exit-code-3) runs still flush it.
    pub metrics_out: Option<String>,
    /// Print a human-readable span/metric table on stderr after the run.
    pub trace_summary: bool,
    /// Directory for crash-safe mining checkpoints (enables `hdx resume`).
    pub checkpoint_dir: Option<String>,
    /// Write a checkpoint every N mining boundaries (default 1).
    pub checkpoint_every: u64,
}

/// `hdx resume` options. The run-determining configuration comes from the
/// manifest sealed inside the checkpoint directory; only output and budget
/// flags can be given afresh (budgets are per-invocation — the interrupted
/// run's budget is exactly what it needs to escape).
#[derive(Debug, Clone)]
pub struct ResumeOpts {
    /// Checkpoint directory written by `hdx explore --checkpoint-dir`.
    pub dir: String,
    /// Rows to print.
    pub top: usize,
    /// Redundancy filter.
    pub non_redundant: bool,
    /// JSON output.
    pub json: bool,
    /// Wall-clock budget for the resumed run.
    pub timeout: Option<Duration>,
    /// Cap on mined itemsets for the resumed run.
    pub max_itemsets: Option<u64>,
    /// Write the machine-readable run telemetry (JSON) to this path.
    pub metrics_out: Option<String>,
    /// Print a human-readable span/metric table on stderr after the run.
    pub trace_summary: bool,
}

/// `hdx append` options: durable local ingestion into a row WAL.
#[derive(Debug, Clone)]
pub struct AppendOpts {
    /// CSV file of rows to append (no header; blank lines skipped).
    pub rows_path: String,
    /// WAL directory (created on first append).
    pub wal_dir: String,
    /// Seal the open segment after the append.
    pub seal: bool,
}

/// `hdx validate-telemetry` options.
#[derive(Debug, Clone)]
pub struct ValidateTelemetryOpts {
    /// Telemetry JSON path.
    pub path: String,
    /// Stage names that must carry non-zero recorded time.
    pub require_stages: Vec<String>,
    /// Counter names that must be present with a non-zero value.
    pub require_counters: Vec<String>,
}

/// `hdx discretize` options.
#[derive(Debug, Clone)]
pub struct DiscretizeOpts {
    /// Input options.
    pub input: InputOpts,
    /// Tree support `st`.
    pub tree_support: f64,
    /// `true` = entropy criterion.
    pub entropy: bool,
    /// Restrict to one attribute.
    pub attr: Option<String>,
}

/// `hdx baselines` options.
#[derive(Debug, Clone)]
pub struct BaselinesOpts {
    /// Input options.
    pub input: InputOpts,
    /// Leaf discretization support.
    pub tree_support: f64,
    /// Slice Finder effect-size threshold.
    pub sf_threshold: f64,
    /// SliceLine α.
    pub sl_alpha: f64,
    /// SliceLine minimum slice size.
    pub min_size: usize,
}

/// `hdx generate` options.
#[derive(Debug, Clone)]
pub struct GenerateOpts {
    /// Dataset name.
    pub dataset: String,
    /// Row count (`None` = paper size).
    pub rows: Option<usize>,
    /// Seed.
    pub seed: u64,
    /// Output path.
    pub out: Option<String>,
}

/// A parsed CLI invocation.
#[derive(Debug, Clone)]
pub enum Command {
    /// Summarise a CSV's attributes.
    Describe {
        /// CSV path.
        path: String,
        /// Field separator.
        separator: char,
    },
    /// Find divergent subgroups.
    Explore(ExploreOpts),
    /// Print discretization trees.
    Discretize(DiscretizeOpts),
    /// Run the prior-work baselines.
    Baselines(BaselinesOpts),
    /// Resume an interrupted `explore --checkpoint-dir` run.
    Resume(ResumeOpts),
    /// Append rows durably to an ingest WAL.
    Append(AppendOpts),
    /// Generate a synthetic dataset.
    Generate(GenerateOpts),
    /// Validate a run-telemetry artifact (CI `obs-smoke` gate).
    ValidateTelemetry(ValidateTelemetryOpts),
    /// Validate a scraped `/metrics` page against the Prometheus
    /// text-format 0.0.4 grammar (CI `serve-smoke` gate).
    ValidateMetrics {
        /// Path to a saved scrape page.
        path: String,
    },
    /// Run the fault-tolerant mining job server.
    Serve(ServeConfig),
    /// Print usage.
    Help,
}

/// Argument cursor with typed takes.
struct Cursor {
    args: std::vec::IntoIter<String>,
}

impl Cursor {
    fn value(&mut self, flag: &str) -> Result<String, CliError> {
        self.args
            .next()
            .ok_or_else(|| CliError::new(format!("{flag} requires a value")))
    }

    fn parse_value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, CliError> {
        let raw = self.value(flag)?;
        raw.parse()
            .map_err(|_| CliError::new(format!("invalid value `{raw}` for {flag}")))
    }
}

/// Applies a shared input flag; returns `false` when the flag is not an
/// input option.
fn apply_input_flag(input: &mut InputOpts, flag: &str, cur: &mut Cursor) -> Result<bool, CliError> {
    match flag {
        "--stat" => input.stat = parse_stat(&cur.value(flag)?)?,
        "--label-col" => input.label_col = cur.value(flag)?,
        "--pred-col" => input.pred_col = cur.value(flag)?,
        "--target-col" => input.target_col = Some(cur.value(flag)?),
        "--separator" => {
            let raw = cur.value(flag)?;
            let mut chars = raw.chars();
            match (chars.next(), chars.next()) {
                (Some(c), None) => input.separator = c,
                _ => return Err(CliError::new("--separator takes a single character")),
            }
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn require_path(cur: &mut Cursor, command: &str) -> Result<String, CliError> {
    match cur.args.next() {
        Some(p) if !p.starts_with("--") => Ok(p),
        _ => Err(CliError::new(format!("hdx {command} requires a CSV path"))),
    }
}

fn check_tree_support(st: f64) -> Result<(), CliError> {
    if st > 0.0 && st < 1.0 {
        Ok(())
    } else {
        Err(CliError::new("--st must be in (0, 1)"))
    }
}

/// Parses a duration flag value: a number with an `ms`, `s` or `m` suffix
/// (`500ms`, `30s`, `5m`); a bare number means seconds.
fn parse_duration(raw: &str) -> Result<Duration, CliError> {
    let (digits, scale_ms) = if let Some(d) = raw.strip_suffix("ms") {
        (d, 1.0)
    } else if let Some(d) = raw.strip_suffix('s') {
        (d, 1000.0)
    } else if let Some(d) = raw.strip_suffix('m') {
        (d, 60_000.0)
    } else {
        (raw, 1000.0)
    };
    match digits.parse::<f64>() {
        Ok(v) if v >= 0.0 && v.is_finite() => Ok(Duration::from_secs_f64(v * scale_ms / 1000.0)),
        _ => Err(CliError::new(format!(
            "invalid --timeout `{raw}` (use e.g. 500ms, 30s, 5m)"
        ))),
    }
}

fn parse_criterion(cur: &mut Cursor) -> Result<bool, CliError> {
    match cur.value("--criterion")?.as_str() {
        "divergence" => Ok(false),
        "entropy" => Ok(true),
        other => Err(CliError::new(format!("unknown --criterion `{other}`"))),
    }
}

/// Parses an invocation (without `argv[0]`).
pub fn parse(args: Vec<String>) -> Result<Command, CliError> {
    let mut cur = Cursor {
        args: args.into_iter(),
    };
    let Some(command) = cur.args.next() else {
        return Ok(Command::Help);
    };
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "describe" => {
            let path = require_path(&mut cur, "describe")?;
            let mut separator = ',';
            while let Some(flag) = cur.args.next() {
                match flag.as_str() {
                    "--separator" => {
                        let raw = cur.value(&flag)?;
                        let mut chars = raw.chars();
                        match (chars.next(), chars.next()) {
                            (Some(c), None) => separator = c,
                            _ => return Err(CliError::new("--separator takes a single character")),
                        }
                    }
                    other => return Err(CliError::new(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Describe { path, separator })
        }
        "explore" => {
            let mut opts = ExploreOpts {
                input: InputOpts::new(require_path(&mut cur, "explore")?),
                support: 0.05,
                tree_support: 0.1,
                entropy: false,
                base_mode: false,
                polarity: false,
                max_len: None,
                threads: 1,
                top: 10,
                non_redundant: false,
                fd_tolerance: None,
                json: false,
                timeout: None,
                max_itemsets: None,
                adaptive_support: false,
                metrics_out: None,
                trace_summary: false,
                checkpoint_dir: None,
                checkpoint_every: 1,
            };
            while let Some(flag) = cur.args.next() {
                if apply_input_flag(&mut opts.input, &flag, &mut cur)? {
                    continue;
                }
                match flag.as_str() {
                    "-s" | "--support" => opts.support = cur.parse_value(&flag)?,
                    "--st" => opts.tree_support = cur.parse_value(&flag)?,
                    "--criterion" => opts.entropy = parse_criterion(&mut cur)?,
                    "--mode" => match cur.value(&flag)?.as_str() {
                        "base" => opts.base_mode = true,
                        "hierarchical" | "hier" => opts.base_mode = false,
                        other => return Err(CliError::new(format!("unknown --mode `{other}`"))),
                    },
                    "--polarity" => opts.polarity = true,
                    "--max-len" => {
                        let n: usize = cur.parse_value(&flag)?;
                        if n == 0 {
                            return Err(CliError::new("--max-len must be at least 1"));
                        }
                        opts.max_len = Some(n);
                    }
                    "--threads" => {
                        let n: usize = cur.parse_value(&flag)?;
                        if n == 0 {
                            return Err(CliError::new("--threads must be at least 1"));
                        }
                        opts.threads = n;
                    }
                    "--top" => opts.top = cur.parse_value(&flag)?,
                    "--non-redundant" => opts.non_redundant = true,
                    "--fd" => {
                        let tolerance: f64 = cur.parse_value(&flag)?;
                        if !(0.0..1.0).contains(&tolerance) {
                            return Err(CliError::new("--fd must be in [0, 1)"));
                        }
                        opts.fd_tolerance = Some(tolerance);
                    }
                    "--json" => opts.json = true,
                    "--timeout" => opts.timeout = Some(parse_duration(&cur.value(&flag)?)?),
                    "--max-itemsets" => opts.max_itemsets = Some(cur.parse_value(&flag)?),
                    "--adaptive-support" => opts.adaptive_support = true,
                    "--metrics-out" => opts.metrics_out = Some(cur.value(&flag)?),
                    "--trace-summary" => opts.trace_summary = true,
                    "--checkpoint-dir" => opts.checkpoint_dir = Some(cur.value(&flag)?),
                    "--checkpoint-every" => {
                        opts.checkpoint_every = cur.parse_value(&flag)?;
                        if opts.checkpoint_every == 0 {
                            return Err(CliError::new("--checkpoint-every must be at least 1"));
                        }
                    }
                    other => return Err(CliError::new(format!("unknown flag `{other}`"))),
                }
            }
            if !(0.0..=1.0).contains(&opts.support) || opts.support == 0.0 {
                return Err(CliError::new("--support must be in (0, 1]"));
            }
            check_tree_support(opts.tree_support)?;
            if opts.polarity && opts.checkpoint_dir.is_some() {
                // Polarity pruning re-mines per polarity class with no single
                // replayable emission order, so no checkpoint cursor exists.
                return Err(CliError::new(
                    "--polarity cannot be combined with --checkpoint-dir",
                ));
            }
            Ok(Command::Explore(opts))
        }
        "resume" => {
            let dir = match cur.args.next() {
                Some(p) if !p.starts_with("--") => p,
                _ => return Err(CliError::new("hdx resume requires a checkpoint directory")),
            };
            let mut opts = ResumeOpts {
                dir,
                top: 10,
                non_redundant: false,
                json: false,
                timeout: None,
                max_itemsets: None,
                metrics_out: None,
                trace_summary: false,
            };
            while let Some(flag) = cur.args.next() {
                match flag.as_str() {
                    "--top" => opts.top = cur.parse_value(&flag)?,
                    "--non-redundant" => opts.non_redundant = true,
                    "--json" => opts.json = true,
                    "--timeout" => opts.timeout = Some(parse_duration(&cur.value(&flag)?)?),
                    "--max-itemsets" => opts.max_itemsets = Some(cur.parse_value(&flag)?),
                    "--metrics-out" => opts.metrics_out = Some(cur.value(&flag)?),
                    "--trace-summary" => opts.trace_summary = true,
                    other => return Err(CliError::new(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Resume(opts))
        }
        "append" => {
            let rows_path = require_path(&mut cur, "append")?;
            let mut opts = AppendOpts {
                rows_path,
                wal_dir: String::new(),
                seal: false,
            };
            while let Some(flag) = cur.args.next() {
                match flag.as_str() {
                    "--wal" => opts.wal_dir = cur.value(&flag)?,
                    "--seal" => opts.seal = true,
                    other => return Err(CliError::new(format!("unknown flag `{other}`"))),
                }
            }
            if opts.wal_dir.is_empty() {
                return Err(CliError::new("hdx append requires --wal <dir>"));
            }
            Ok(Command::Append(opts))
        }
        "discretize" => {
            let mut opts = DiscretizeOpts {
                input: InputOpts::new(require_path(&mut cur, "discretize")?),
                tree_support: 0.1,
                entropy: false,
                attr: None,
            };
            while let Some(flag) = cur.args.next() {
                if apply_input_flag(&mut opts.input, &flag, &mut cur)? {
                    continue;
                }
                match flag.as_str() {
                    "--st" => opts.tree_support = cur.parse_value(&flag)?,
                    "--criterion" => opts.entropy = parse_criterion(&mut cur)?,
                    "--attr" => opts.attr = Some(cur.value(&flag)?),
                    other => return Err(CliError::new(format!("unknown flag `{other}`"))),
                }
            }
            check_tree_support(opts.tree_support)?;
            Ok(Command::Discretize(opts))
        }
        "baselines" => {
            let mut opts = BaselinesOpts {
                input: InputOpts::new(require_path(&mut cur, "baselines")?),
                tree_support: 0.1,
                sf_threshold: 0.4,
                sl_alpha: 0.95,
                min_size: 32,
            };
            while let Some(flag) = cur.args.next() {
                if apply_input_flag(&mut opts.input, &flag, &mut cur)? {
                    continue;
                }
                match flag.as_str() {
                    "--st" => opts.tree_support = cur.parse_value(&flag)?,
                    "--sf-threshold" => opts.sf_threshold = cur.parse_value(&flag)?,
                    "--sl-alpha" => opts.sl_alpha = cur.parse_value(&flag)?,
                    "--min-size" => opts.min_size = cur.parse_value(&flag)?,
                    other => return Err(CliError::new(format!("unknown flag `{other}`"))),
                }
            }
            check_tree_support(opts.tree_support)?;
            if !(opts.sf_threshold.is_finite() && opts.sf_threshold >= 0.0) {
                return Err(CliError::new("--sf-threshold must be a finite number >= 0"));
            }
            if !(opts.sl_alpha > 0.0 && opts.sl_alpha <= 1.0) {
                return Err(CliError::new("--sl-alpha must be in (0, 1]"));
            }
            Ok(Command::Baselines(opts))
        }
        "generate" => {
            let dataset = require_path(&mut cur, "generate")?;
            let mut opts = GenerateOpts {
                dataset,
                rows: None,
                seed: 42,
                out: None,
            };
            while let Some(flag) = cur.args.next() {
                match flag.as_str() {
                    "--rows" => opts.rows = Some(cur.parse_value(&flag)?),
                    "--seed" => opts.seed = cur.parse_value(&flag)?,
                    "--out" => opts.out = Some(cur.value(&flag)?),
                    other => return Err(CliError::new(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Generate(opts))
        }
        "serve" => {
            // The service's defaults, except the listen address, which is
            // pinned so the printed URL is stable.
            let mut config = ServeConfig {
                addr: "127.0.0.1:8373".into(),
                ..ServeConfig::default()
            };
            while let Some(flag) = cur.args.next() {
                match flag.as_str() {
                    "--addr" => config.addr = cur.value(&flag)?,
                    "--state-dir" => config.state_dir = cur.value(&flag)?.into(),
                    "--workers" => config.workers = cur.parse_value(&flag)?,
                    "--queue-depth" => config.queue_depth = cur.parse_value(&flag)?,
                    "--tenant-max-jobs" => config.tenant_max_jobs = cur.parse_value(&flag)?,
                    "--max-body-bytes" => config.max_body_bytes = cur.parse_value(&flag)?,
                    "--max-connections" => config.max_connections = cur.parse_value(&flag)?,
                    "--retry-max" => config.retry_max = cur.parse_value(&flag)?,
                    "--timeout" => {
                        let timeout = parse_duration(&cur.value(&flag)?)?;
                        config.tenant_deadline_ms = Some(timeout.as_millis() as u64);
                    }
                    "--max-itemsets" => config.tenant_max_itemsets = Some(cur.parse_value(&flag)?),
                    other => return Err(CliError::new(format!("unknown flag `{other}`"))),
                }
            }
            if config.workers == 0 {
                return Err(CliError::new("--workers must be at least 1"));
            }
            Ok(Command::Serve(config))
        }
        "validate-metrics" => {
            let path = require_path(&mut cur, "validate-metrics")?;
            if let Some(flag) = cur.args.next() {
                return Err(CliError::new(format!("unknown flag `{flag}`")));
            }
            Ok(Command::ValidateMetrics { path })
        }
        "validate-telemetry" => {
            let path = require_path(&mut cur, "validate-telemetry")?;
            let mut opts = ValidateTelemetryOpts {
                path,
                require_stages: Vec::new(),
                require_counters: Vec::new(),
            };
            while let Some(flag) = cur.args.next() {
                match flag.as_str() {
                    "--require-stage" => opts.require_stages.push(cur.value(&flag)?),
                    "--require-counter" => opts.require_counters.push(cur.value(&flag)?),
                    other => return Err(CliError::new(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::ValidateTelemetry(opts))
        }
        other => Err(CliError::new(format!(
            "unknown command `{other}` (try `hdx help`)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_and_help() {
        assert!(matches!(parse(v(&[])).unwrap(), Command::Help));
        assert!(matches!(parse(v(&["help"])).unwrap(), Command::Help));
        assert!(matches!(parse(v(&["--help"])).unwrap(), Command::Help));
    }

    #[test]
    fn explore_defaults_and_flags() {
        let Command::Explore(o) = parse(v(&["explore", "d.csv"])).unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(o.input.path, "d.csv");
        assert_eq!(o.support, 0.05);
        assert_eq!(o.input.stat, Statistic::Error);
        assert!(!o.base_mode && !o.polarity && !o.json);

        let Command::Explore(o) = parse(v(&[
            "explore",
            "d.csv",
            "--stat",
            "fpr",
            "-s",
            "0.02",
            "--st",
            "0.2",
            "--mode",
            "base",
            "--polarity",
            "--max-len",
            "3",
            "--threads",
            "4",
            "--top",
            "5",
            "--json",
            "--criterion",
            "entropy",
            "--fd",
            "0.01",
            "--non-redundant",
        ]))
        .unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(o.input.stat, Statistic::Fpr);
        assert_eq!(o.support, 0.02);
        assert_eq!(o.tree_support, 0.2);
        assert!(o.base_mode && o.polarity && o.json && o.entropy && o.non_redundant);
        assert_eq!(o.max_len, Some(3));
        assert_eq!(o.threads, 4);
        assert_eq!(o.top, 5);
        assert_eq!(o.fd_tolerance, Some(0.01));
    }

    #[test]
    fn errors_are_informative() {
        assert!(parse(v(&["explore"])).unwrap_err().0.contains("CSV path"));
        assert!(parse(v(&["explore", "d.csv", "--bogus"]))
            .unwrap_err()
            .0
            .contains("unknown flag"));
        assert!(parse(v(&["explore", "d.csv", "-s"]))
            .unwrap_err()
            .0
            .contains("requires a value"));
        assert!(parse(v(&["explore", "d.csv", "-s", "abc"]))
            .unwrap_err()
            .0
            .contains("invalid value"));
        assert!(parse(v(&["frobnicate"]))
            .unwrap_err()
            .0
            .contains("unknown command"));
        assert!(parse(v(&["explore", "d.csv", "--threads", "0"]))
            .unwrap_err()
            .0
            .contains("at least 1"));
        assert!(parse(v(&["explore", "d.csv", "--stat", "woo"]))
            .unwrap_err()
            .0
            .contains("unknown --stat"));
        assert!(parse(v(&["explore", "d.csv", "--separator", "ab"]))
            .unwrap_err()
            .0
            .contains("single character"));
    }

    #[test]
    fn out_of_range_supports_rejected() {
        assert!(parse(v(&["explore", "d.csv", "-s", "1.5"]))
            .unwrap_err()
            .0
            .contains("(0, 1]"));
        assert!(parse(v(&["explore", "d.csv", "-s", "0"])).is_err());
        assert!(parse(v(&["explore", "d.csv", "--st", "1.0"]))
            .unwrap_err()
            .0
            .contains("(0, 1)"));
        assert!(parse(v(&["discretize", "d.csv", "--st", "-0.1"])).is_err());
        assert!(parse(v(&["baselines", "d.csv", "--st", "2"])).is_err());
        // s = 1.0 is legal (everything is one subgroup).
        assert!(parse(v(&["explore", "d.csv", "-s", "1.0"])).is_ok());
        // The FD tolerance lies in [0, 1), SliceLine's alpha in (0, 1].
        for fd in ["1", "2", "-0.1", "NaN"] {
            assert!(parse(v(&["explore", "d.csv", "--fd", fd]))
                .unwrap_err()
                .0
                .contains("--fd must be in [0, 1)"));
        }
        assert!(parse(v(&["explore", "d.csv", "--fd", "0"])).is_ok());
        for alpha in ["0", "1.5", "-0.5", "NaN"] {
            assert!(parse(v(&["baselines", "d.csv", "--sl-alpha", alpha]))
                .unwrap_err()
                .0
                .contains("--sl-alpha must be in (0, 1]"));
        }
        assert!(parse(v(&["baselines", "d.csv", "--sl-alpha", "1"])).is_ok());
        // A pattern holds at least one item.
        assert!(parse(v(&["explore", "d.csv", "--max-len", "0"]))
            .unwrap_err()
            .0
            .contains("--max-len must be at least 1"));
        // Slice Finder's effect-size threshold is a finite T >= 0.
        for threshold in ["NaN", "inf", "-1"] {
            assert!(
                parse(v(&["baselines", "d.csv", "--sf-threshold", threshold]))
                    .unwrap_err()
                    .0
                    .contains("--sf-threshold must be a finite number >= 0")
            );
        }
        for threshold in ["0", "2"] {
            assert!(parse(v(&["baselines", "d.csv", "--sf-threshold", threshold])).is_ok());
        }
    }

    #[test]
    fn governor_flags() {
        let Command::Explore(o) = parse(v(&[
            "explore",
            "d.csv",
            "--timeout",
            "500ms",
            "--max-itemsets",
            "1000",
            "--adaptive-support",
        ]))
        .unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(o.timeout, Some(Duration::from_millis(500)));
        assert_eq!(o.max_itemsets, Some(1000));
        assert!(o.adaptive_support);
        // Defaults: unbounded.
        let Command::Explore(o) = parse(v(&["explore", "d.csv"])).unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(o.timeout, None);
        assert_eq!(o.max_itemsets, None);
        assert!(!o.adaptive_support);
    }

    #[test]
    fn timeout_suffixes() {
        assert_eq!(parse_duration("250ms").unwrap(), Duration::from_millis(250));
        assert_eq!(parse_duration("30s").unwrap(), Duration::from_secs(30));
        assert_eq!(parse_duration("5m").unwrap(), Duration::from_secs(300));
        assert_eq!(parse_duration("2").unwrap(), Duration::from_secs(2));
        assert_eq!(parse_duration("1.5s").unwrap(), Duration::from_millis(1500));
        for bad in ["", "ms", "-1s", "abc", "1h"] {
            assert!(parse_duration(bad).is_err(), "`{bad}` should be rejected");
        }
        assert!(parse(v(&["explore", "d.csv", "--timeout", "soon"]))
            .unwrap_err()
            .0
            .contains("invalid --timeout"));
    }

    #[test]
    fn checkpoint_flags() {
        let Command::Explore(o) = parse(v(&[
            "explore",
            "d.csv",
            "--checkpoint-dir",
            "ckpt",
            "--checkpoint-every",
            "4",
        ]))
        .unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(o.checkpoint_dir.as_deref(), Some("ckpt"));
        assert_eq!(o.checkpoint_every, 4);
        // Defaults: off, every boundary.
        let Command::Explore(o) = parse(v(&["explore", "d.csv"])).unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(o.checkpoint_dir, None);
        assert_eq!(o.checkpoint_every, 1);
        // A zero cadence never writes anything.
        assert!(parse(v(&[
            "explore",
            "d.csv",
            "--checkpoint-dir",
            "c",
            "--checkpoint-every",
            "0"
        ]))
        .unwrap_err()
        .0
        .contains("at least 1"));
        // Polarity pruning has no replayable cursor.
        assert!(parse(v(&[
            "explore",
            "d.csv",
            "--polarity",
            "--checkpoint-dir",
            "c"
        ]))
        .unwrap_err()
        .0
        .contains("--polarity"));
    }

    #[test]
    fn resume_flags() {
        let Command::Resume(o) = parse(v(&[
            "resume",
            "ckpt",
            "--top",
            "3",
            "--json",
            "--non-redundant",
            "--timeout",
            "30s",
            "--max-itemsets",
            "500",
            "--metrics-out",
            "m.json",
            "--trace-summary",
        ]))
        .unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(o.dir, "ckpt");
        assert_eq!(o.top, 3);
        assert!(o.json && o.non_redundant && o.trace_summary);
        assert_eq!(o.timeout, Some(Duration::from_secs(30)));
        assert_eq!(o.max_itemsets, Some(500));
        assert_eq!(o.metrics_out.as_deref(), Some("m.json"));
        assert!(parse(v(&["resume"]))
            .unwrap_err()
            .0
            .contains("checkpoint directory"));
        assert!(parse(v(&["resume", "ckpt", "--support", "0.1"])).is_err());
    }

    #[test]
    fn append_options() {
        let Command::Append(o) = parse(v(&["append", "rows.csv", "--wal", "w", "--seal"])).unwrap()
        else {
            panic!("wrong command");
        };
        assert_eq!(o.rows_path, "rows.csv");
        assert_eq!(o.wal_dir, "w");
        assert!(o.seal);
        // Defaults.
        let Command::Append(o) = parse(v(&["append", "rows.csv", "--wal", "w"])).unwrap() else {
            panic!("wrong command");
        };
        assert!(!o.seal);
        assert!(parse(v(&["append", "rows.csv"]))
            .unwrap_err()
            .0
            .contains("--wal"));
        assert!(parse(v(&["append"])).unwrap_err().0.contains("CSV path"));
        assert!(parse(v(&["append", "r.csv", "--wal", "w", "--bogus"])).is_err());
    }

    #[test]
    fn stat_codes_round_trip() {
        // Every `--stat` name reaches the statistic stored under its code.
        let names = [
            "fpr",
            "fnr",
            "tpr",
            "tnr",
            "error",
            "accuracy",
            "positive-rate",
            "target",
        ];
        for (code, name) in (0u8..).zip(names) {
            let stat = parse_stat(name).unwrap();
            assert_eq!(stat.code(), code, "{name}");
            assert_eq!(Statistic::from_code(code), Some(stat));
        }
        assert!(parse_stat("positive_rate").is_err());
    }

    #[test]
    fn telemetry_flags() {
        let Command::Explore(o) = parse(v(&[
            "explore",
            "d.csv",
            "--metrics-out",
            "m.json",
            "--trace-summary",
        ]))
        .unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(o.metrics_out.as_deref(), Some("m.json"));
        assert!(o.trace_summary);
        // Defaults: off.
        let Command::Explore(o) = parse(v(&["explore", "d.csv"])).unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(o.metrics_out, None);
        assert!(!o.trace_summary);

        let Command::ValidateTelemetry(o) = parse(v(&[
            "validate-telemetry",
            "m.json",
            "--require-stage",
            "mine",
            "--require-stage",
            "explore",
            "--require-counter",
            "hdx.mining.candidates.generated",
        ]))
        .unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(o.path, "m.json");
        assert_eq!(o.require_stages, vec!["mine", "explore"]);
        assert_eq!(o.require_counters, vec!["hdx.mining.candidates.generated"]);
        assert!(parse(v(&["validate-telemetry"])).is_err());
    }

    #[test]
    fn serve_options() {
        let Command::Serve(o) = parse(v(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--state-dir",
            "st",
            "--workers",
            "4",
            "--queue-depth",
            "5",
            "--tenant-max-jobs",
            "1",
            "--max-body-bytes",
            "1024",
            "--max-connections",
            "7",
            "--retry-max",
            "3",
            "--timeout",
            "30s",
            "--max-itemsets",
            "1000",
        ]))
        .unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(o.addr, "127.0.0.1:0");
        assert_eq!(o.state_dir, std::path::PathBuf::from("st"));
        assert_eq!(o.workers, 4);
        assert_eq!(o.queue_depth, 5);
        assert_eq!(o.tenant_max_jobs, 1);
        assert_eq!(o.max_body_bytes, 1024);
        assert_eq!(o.max_connections, 7);
        assert_eq!(o.retry_max, 3);
        assert_eq!(o.tenant_deadline_ms, Some(30_000));
        assert_eq!(o.tenant_max_itemsets, Some(1000));
        // Defaults.
        let Command::Serve(o) = parse(v(&["serve"])).unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(o.addr, "127.0.0.1:8373");
        assert_eq!(o.workers, 2);
        assert_eq!(o.tenant_deadline_ms, None);
        assert!(parse(v(&["serve", "--workers", "0"]))
            .unwrap_err()
            .0
            .contains("at least 1"));
        assert!(parse(v(&["serve", "--events-ring-cap", "32"]))
            .unwrap_err()
            .0
            .contains("unknown flag"));
        assert!(parse(v(&["serve", "--bogus"])).is_err());
    }

    #[test]
    fn validate_metrics_options() {
        let Command::ValidateMetrics { path } =
            parse(v(&["validate-metrics", "page.prom"])).unwrap()
        else {
            panic!("wrong command");
        };
        assert_eq!(path, "page.prom");
        assert!(parse(v(&["validate-metrics"])).is_err());
        assert!(parse(v(&["validate-metrics", "p", "--bogus"])).is_err());
    }

    #[test]
    fn generate_options() {
        let Command::Generate(o) = parse(v(&[
            "generate", "compas", "--rows", "100", "--seed", "7", "--out", "x.csv",
        ]))
        .unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(o.dataset, "compas");
        assert_eq!(o.rows, Some(100));
        assert_eq!(o.seed, 7);
        assert_eq!(o.out.as_deref(), Some("x.csv"));
    }

    #[test]
    fn baselines_options() {
        let Command::Baselines(o) = parse(v(&[
            "baselines",
            "d.csv",
            "--sf-threshold",
            "1.0",
            "--sl-alpha",
            "0.9",
            "--min-size",
            "64",
        ]))
        .unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(o.sf_threshold, 1.0);
        assert_eq!(o.sl_alpha, 0.9);
        assert_eq!(o.min_size, 64);
    }
}
