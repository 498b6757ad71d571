//! # hdx-cli
//!
//! The `hdx` command-line tool: hierarchical anomalous subgroup discovery
//! over CSV files, without writing any Rust.
//!
//! ```text
//! hdx explore data.csv --stat fpr --label-col y_true --pred-col y_pred -s 0.05
//! hdx discretize data.csv --stat error --st 0.1
//! hdx baselines data.csv --stat error
//! hdx generate compas --rows 6172 --out compas.csv
//! hdx help
//! ```
//!
//! The library surface ([`parse`] + [`run`]) is what the binary calls, so
//! the whole tool is unit-testable without spawning processes.

mod args;
mod commands;

pub use args::{
    parse, AppendOpts, BaselinesOpts, CliError, Command, DiscretizeOpts, ExploreOpts, GenerateOpts,
    ResumeOpts, ValidateTelemetryOpts,
};
pub use commands::{run, RunOutput};

/// Usage text for `hdx help` and errors.
pub const USAGE: &str = "\
hdx — hierarchical anomalous subgroup discovery (H-DivExplorer)

USAGE:
  hdx explore <data.csv> [options]     find divergent subgroups
  hdx discretize <data.csv> [options]  print the per-attribute interval trees
  hdx baselines <data.csv> [options]   run Slice Finder / SliceLine / combined tree
  hdx generate <dataset> [options]     write a synthetic benchmark dataset as CSV
  hdx describe <data.csv>              summarise the dataset's attributes
  hdx resume <ckpt-dir> [options]      resume an interrupted checkpointed explore
  hdx append <rows.csv> --wal <dir>    append rows durably to an ingest WAL
  hdx serve [options]                  run the fault-tolerant mining job server
  hdx validate-telemetry <file> [options]  check a --metrics-out artifact
  hdx validate-metrics <file>          check a saved /metrics scrape page
  hdx help                             show this text

INPUT OPTIONS (explore / discretize / baselines):
  --stat <fpr|fnr|tpr|tnr|error|accuracy|positive-rate|target>
                         statistic whose divergence is analysed [error]
  --label-col <name>     ground-truth column (true/false, 0/1, yes/no) [y_true]
  --pred-col <name>      prediction column [y_pred]
  --target-col <name>    numeric column for --stat target
  --separator <char>     CSV field separator [,]

EXPLORE OPTIONS:
  -s, --support <f>      minimum subgroup support [0.05]
  --st <f>               discretization tree support [0.1]
  --criterion <divergence|entropy>  split gain criterion [divergence]
  --mode <base|hierarchical>        exploration mode [hierarchical]
  --polarity             enable polarity pruning
  --max-len <n>          cap pattern length, at least 1
  --threads <n>          mining worker threads [1]; --checkpoint-dir runs
                         stay serial
  --top <k>              rows to print [10]
  --non-redundant        drop subgroups explained by a sub-pattern
  --fd <tolerance>       discover taxonomies from functional dependencies
                         violated by at most this share of rows, in [0, 1)
  --json                 emit the full report as JSON
  --timeout <dur>        wall-clock budget (500ms, 30s, 5m; bare = seconds);
                         on expiry the partial results print and exit code is 3
  --max-itemsets <n>     cap on mined subgroups; exceeding it exits 3 likewise
  --adaptive-support     when --max-itemsets trips, retry with doubled support
                         (coarser but complete results)
  --metrics-out <file>   write machine-readable run telemetry (JSON); partial
                         (exit-code-3) runs still flush it
  --trace-summary        print a per-stage span/metric table on stderr
  --checkpoint-dir <dir> write a crash-safe mining checkpoint after every
                         completed search root (plus a sealed run manifest)
                         so `hdx resume <dir>` can pick up an interrupted
                         run; incompatible with --polarity

RESUME OPTIONS (configuration comes from the sealed manifest; budgets are
per-invocation and output flags may be chosen afresh):
  --top <k>, --non-redundant, --json, --metrics-out <file>, --trace-summary,
  --timeout <dur>, --max-itemsets <n>   as for explore

APPEND OPTIONS (rows are CRC-framed and fsynced before the command reports
success; torn or corrupt bytes found from an earlier crash are quarantined
with a stderr note and exit code 3 — the valid rows still land):
  --wal <dir>            WAL directory (created on first append; required)
  --seal                 seal the open segment into an immutable envelope

DISCRETIZE OPTIONS:
  --st <f>, --criterion <...> as above
  --attr <name>          only this attribute (default: all continuous)

BASELINES OPTIONS:
  --st <f>               leaf discretization support [0.1]
  --sf-threshold <f>     Slice Finder effect-size threshold, a finite number
                         >= 0 [0.4]
  --sl-alpha <f>         SliceLine α, in (0, 1] [0.95]
  --min-size <n>         SliceLine minimum slice size [32]

GENERATE OPTIONS:
  <dataset>              one of: adult bank compas folktables german
                         intentions synthetic-peak wine
  --rows <n>             row count [paper size]
  --seed <n>             generator seed [42]
  --out <file>           output path [<dataset>.csv]

SERVE OPTIONS (submit jobs with POST /jobs; stop with POST /shutdown):
  --addr <host:port>     listen address; port 0 picks one [127.0.0.1:8373]
  --state-dir <dir>      job persistence root; orphaned jobs found here at
                         startup are resumed to their byte-identical result
                         [hdx-serve-state]
  --workers <n>          mining worker threads [2]
  --queue-depth <n>      queued-job cap; beyond it submissions get 429 [16]
  --tenant-max-jobs <n>  per-tenant in-flight job cap [2]
  --max-body-bytes <n>   request-body byte cap (413 beyond it) [4194304]
  --max-connections <n>  concurrent connection cap (503 beyond it) [32]
  --retry-max <n>        retries before a transient job failure is final [2]
  --timeout <dur>        per-tenant wall-clock budget, split across the
                         tenant's job slots at admission [unbounded]
  --max-itemsets <n>     per-tenant itemset budget, split likewise [unbounded]

VALIDATE-TELEMETRY OPTIONS:
  --require-stage <name>    fail unless the stage recorded non-zero time
                            (repeatable; e.g. discretize, mine, explore)
  --require-counter <name>  fail unless the counter is present and non-zero
                            (repeatable; e.g. hdx.mining.candidates.generated)

VALIDATE-METRICS: no options — the file must parse as a Prometheus
text-format 0.0.4 exposition (what GET /metrics serves).
";
