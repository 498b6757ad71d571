//! `bench_pipeline` — the benchmark of record: the library fit path and
//! the hdx-ingest write path through hdx-serve, end to end and layer by
//! layer (the hdx-serve request path layer by layer only). See README.md
//! for the workloads and metrics.
//!
//! ```text
//! bench_pipeline --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! bench_pipeline [--seed N] [--seconds S] [--trace 0|1] [--quick] [--runs K]
//!                [--out FILE] [--compare FILE]
//! ```
//!
//! With `--workload` the program runs that one workload and prints each
//! metric as `workload metric value unit`, then one JSON line:
//! `{"correct","attempted","failed","metrics"}` holding the end-to-end
//! metrics of `BENCHMARK.json` (`--trace 0`) or its per-layer metrics
//! (`--trace 1`). It exits non-zero when an output check fails.
//!
//! Without `--workload` it runs every workload `--runs` times (seeds
//! `N, N+1, …`), each run in a fresh child process of this binary so
//! memory and allocator state are per run, plus one traced run per
//! workload with `--trace 1`. It prints each metric's median and
//! quartiles and the ranked per-layer table, writes everything to
//! `--out`, and with `--compare` checks each end-to-end metric against a
//! previous `--out` file and the bound `BENCHMARK.json` fixes for it,
//! exiting non-zero on a regression or on more failed checks.

mod host;
mod inputs;
mod layers;
mod service;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use hdx_obs::json::{escape, parse, Json};

use crate::stats::{quartiles, spread};
use crate::workloads::{Checks, Ctx, WORKLOADS};

/// The benchmark's declared workloads and metrics, with their bounds.
const BENCHMARK: &str = include_str!("../../../BENCHMARK.json");

const USAGE: &str = "usage: bench_pipeline [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--quick] [--runs K] [--out FILE] [--compare FILE]";

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// A metric `BENCHMARK.json` declares.
struct Declared {
    name: String,
    unit: String,
    /// End-to-end metrics only: whether lower is better.
    lower_is_better: bool,
    /// End-to-end metrics only: the share by which it may worsen.
    bound: f64,
}

/// `BENCHMARK.json`'s window and metric lists.
struct Spec {
    run_seconds: f64,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

fn spec() -> Spec {
    let json = parse(BENCHMARK).expect("BENCHMARK.json is valid JSON");
    let list = |key: &str| -> Vec<Json> {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .to_vec()
    };
    let text = |j: &Json, key: &str| {
        j.get(key)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    let declared = |j: &Json| Declared {
        name: text(j, "name"),
        unit: text(j, "unit"),
        lower_is_better: text(j, "better") == "lower",
        bound: j.get("bound").map_or(f64::NAN, number),
    };
    Spec {
        run_seconds: json.get("run_seconds").map_or(f64::NAN, number),
        end_to_end: list("end_to_end").iter().map(declared).collect(),
        per_layer: list("per_layer").iter().map(declared).collect(),
    }
}

fn number(j: &Json) -> f64 {
    match j {
        Json::Num(raw) => raw.parse().unwrap_or(f64::NAN),
        _ => f64::NAN,
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: usize,
    out: Option<PathBuf>,
    compare: Option<PathBuf>,
}

impl Args {
    /// The measurement window: `run_seconds` of `BENCHMARK.json`, or 1 s
    /// with `--quick`.
    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.quick { 1.0 } else { spec().run_seconds })
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        runs: 1,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => args.quick = true,
            "--runs" => {
                args.runs = value()?.parse().map_err(|_| "bad --runs")?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--compare" => args.compare = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}`; one of {}",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_pipeline: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(workload) => child(&args, workload),
        None => parent(&args),
    }
}

/// A per-run scratch directory under `.bench_scratch/` in the working
/// directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Result<Self, String> {
        let dir = Path::new(".bench_scratch").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Fails while another run still uses it, which is fine.
        let _ = std::fs::remove_dir(".bench_scratch");
    }
}

/// One run's metrics: those `BENCHMARK.json` declares for the mode (in
/// its order), then the rest.
struct RunMetrics {
    declared: Vec<Metric>,
    detail: Vec<Metric>,
    checks: Checks,
}

/// Runs one workload in this process.
fn run_one(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<RunMetrics, String> {
    let scratch = Scratch::new(workload)?;
    let ctx = Ctx {
        seed,
        seconds,
        quick,
        scratch: scratch.0.clone(),
    };
    let report = workloads::run(workload, &ctx, trace)?;
    let spec = spec();
    let mut detail = report.metrics;
    let mut declared = Vec::new();
    for d in if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    } {
        let i = detail
            .iter()
            .position(|m| m.name == d.name)
            .ok_or_else(|| {
                format!(
                    "`{}` is declared in BENCHMARK.json but not measured",
                    d.name
                )
            })?;
        let metric = detail.remove(i);
        if metric.unit != d.unit || !metric.value.is_finite() {
            return Err(format!(
                "`{}` measured as {} {}, declared in {}",
                d.name, metric.value, metric.unit, d.unit
            ));
        }
        declared.push(metric);
    }
    Ok(RunMetrics {
        declared,
        detail,
        checks: report.checks,
    })
}

fn child(args: &Args, workload: &str) -> ExitCode {
    let run = match run_one(workload, args.seed, args.seconds(), args.trace, args.quick) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("bench_pipeline: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in run.detail.iter().chain(&run.declared) {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = run
        .declared
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.checks.failed == 0,
        run.checks.attempted,
        run.checks.failed,
        metrics.join(",")
    );
    if run.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a child run printed.
#[derive(Default)]
struct ChildRun {
    metrics: BTreeMap<String, (f64, String)>,
    attempted: u64,
    failed: u64,
}

/// Runs one workload in a fresh child process and reads its output.
fn spawn(
    exe: &Path,
    args: &Args,
    workload: &str,
    seed: u64,
    trace: bool,
) -> Result<ChildRun, String> {
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut run = ChildRun::default();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [w, name, value, unit] = fields[..] {
            if w == workload {
                let value = value
                    .parse()
                    .map_err(|_| format!("bad value in `{line}`"))?;
                run.metrics
                    .insert(name.to_string(), (value, unit.to_string()));
            }
        }
    }
    let result = stdout
        .lines()
        .last()
        .and_then(|line| parse(line).ok())
        .ok_or_else(|| format!("{workload}: the run printed no result ({})", output.status))?;
    let count = |key| result.get(key).and_then(Json::as_u64).unwrap_or(0);
    run.attempted = count("attempted");
    run.failed = count("failed");
    Ok(run)
}

/// Every run of one workload.
#[derive(Default)]
struct Collected {
    runs: Vec<ChildRun>,
    traced: Option<ChildRun>,
}

impl Collected {
    /// The metric's values across the untraced runs, with its unit.
    fn values(&self, name: &str) -> Option<(Vec<f64>, String)> {
        let mut unit = String::new();
        let values: Vec<f64> = self
            .runs
            .iter()
            .filter_map(|r| r.metrics.get(name))
            .map(|(v, u)| {
                unit.clone_from(u);
                *v
            })
            .collect();
        (!values.is_empty()).then_some((values, unit))
    }

    fn failed(&self) -> u64 {
        self.runs.iter().chain(&self.traced).map(|r| r.failed).sum()
    }

    fn attempted(&self) -> u64 {
        self.runs
            .iter()
            .chain(&self.traced)
            .map(|r| r.attempted)
            .sum()
    }
}

fn parent(args: &Args) -> ExitCode {
    let spec = spec();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("bench_pipeline: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let loadavg_before = loadavg();
    let mut all: BTreeMap<&str, Collected> = BTreeMap::new();
    let mut ok = true;
    for workload in WORKLOADS {
        let collected = all.entry(workload).or_default();
        let mut record = |trace: bool, seed: u64| match spawn(&exe, args, workload, seed, trace) {
            Ok(run) => Some(run),
            Err(e) => {
                eprintln!("bench_pipeline: {e}");
                ok = false;
                None
            }
        };
        for r in 0..args.runs {
            eprintln!("bench_pipeline: {workload} run {}/{}", r + 1, args.runs);
            collected.runs.extend(record(false, args.seed + r as u64));
        }
        if args.trace {
            eprintln!("bench_pipeline: {workload} traced run");
            collected.traced = record(true, args.seed);
        }
        ok &= collected.failed() == 0;
    }
    let loadavg_after = loadavg();
    print_summary(&spec, &all);
    if args.trace {
        print_time_table(&all, args.quick);
    }
    if let Some(path) = &args.out {
        let json = render_out(args, &spec, &all, &loadavg_before, &loadavg_after);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("bench_pipeline: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if let Some(path) = &args.compare {
        match compare(&spec, path, &all) {
            Ok(held) => ok &= held,
            Err(e) => {
                eprintln!("bench_pipeline: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_default()
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Every metric's median over the untraced runs, with quartiles and
/// spread, then the traced run's per-layer values.
fn print_summary(spec: &Spec, all: &BTreeMap<&str, Collected>) {
    println!("== end to end: median over runs [q1 q3] spread ==");
    for (workload, collected) in all {
        let names: Vec<&String> = collected
            .runs
            .first()
            .map(|r| r.metrics.keys().collect())
            .unwrap_or_default();
        for name in names {
            let Some((values, unit)) = collected.values(name) else {
                continue;
            };
            let (q1, q2, q3) = quartiles(&values);
            let bound = spec
                .end_to_end
                .iter()
                .find(|d| d.name == **name)
                .map_or(String::new(), |d| format!(" bound {:.0}%", d.bound * 100.0));
            println!(
                "{workload} {name} {q2} {unit}  [{q1:.4} {q3:.4}] spread {:.1}% n={}{bound}",
                spread(&values) * 100.0,
                values.len()
            );
        }
        println!(
            "{workload} checks {} attempted, {} failed",
            collected.attempted(),
            collected.failed()
        );
    }
    for (workload, collected) in all {
        if let Some(traced) = &collected.traced {
            println!("== per layer: {workload} (traced run) ==");
            for (name, (value, unit)) in &traced.metrics {
                println!("{workload} {name} {value} {unit}");
            }
        }
    }
}

/// The per-layer times on each workload's operation path, in ms per
/// operation: each metric with the factor that scales it to one operation.
fn op_path(workload: &str, traced: &ChildRun, quick: bool) -> Vec<(&'static str, f64)> {
    const STAGES: [&str; 7] = [
        "data.csv_parse_ms",
        "core.outcomes_ms",
        "discretize.ms",
        "mining.encode_ms",
        "mining.mine_ms",
        "core.rank_ms",
        "core.json_ms",
    ];
    match workload {
        // One append: request framing, a healing open of the WAL, 100 row
        // appends (µs each) and the fsync'd commit. Opening reads every
        // row, so the probe WAL's open time is scaled to the rows an
        // append finds on average: half a round's.
        "ingest-append" => {
            let sizes = workloads::Sizes::of(quick);
            let mean_rows = (sizes.append_round * sizes.batch_rows) as f64 / 2.0;
            let probe_rows = traced
                .metrics
                .get("ingest.wal_rows")
                .map_or(f64::NAN, |m| m.0);
            vec![
                ("serve.idle_request_ms", 1.0),
                ("ingest.wal_open_ms", mean_rows / probe_rows),
                ("ingest.append_row_us", sizes.batch_rows as f64 / 1e3),
                ("ingest.commit_ms_p50", 1.0),
            ]
        }
        "ingest-recover" => vec![("ingest.wal_open_ms", 1.0)],
        _ => STAGES.iter().map(|s| (*s, 1.0)).collect(),
    }
}

/// Where each workload's operation time goes: the traced layer times on
/// its path, ranked, as shares of the whole operation; the rest is waiting
/// (queueing, polling, contention) and code outside the timed calls. A
/// fit's whole is the untraced `HDivExplorer::fit` the traced run times
/// beside its stages, so the shares do not move with the host's speed
/// between runs; other workloads' whole is the untraced runs' wall-clock
/// `wall_op_ms_p50`, since the layer times are wall-clock too.
fn print_time_table(all: &BTreeMap<&str, Collected>, quick: bool) {
    println!("== where the time goes: traced layer time per operation ==");
    for (workload, collected) in all {
        let Some(traced) = &collected.traced else {
            continue;
        };
        let (whole, op) = if workload.starts_with("fit-") {
            (
                "fit.untraced_ms",
                traced.metrics.get("fit.untraced_ms").map(|m| m.0),
            )
        } else {
            let op = collected
                .values("wall_op_ms_p50")
                .map(|(v, _)| stats::median(&v));
            ("wall_op_ms_p50", op)
        };
        let Some(op) = op else {
            continue;
        };
        let mut rows: Vec<(&str, f64)> = op_path(workload, traced, quick)
            .into_iter()
            .filter_map(|(name, scale)| traced.metrics.get(name).map(|(v, _)| (name, v * scale)))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        let attributed: f64 = rows.iter().map(|r| r.1).sum();
        println!("{workload}: {whole} {op:.3} ms");
        for (name, ms) in rows
            .iter()
            .chain([&("other (waiting, untimed code)", op - attributed)])
        {
            println!("  {name:<32} {ms:>10.3} ms {:>6.1}%", ms / op * 100.0);
        }
    }
}

/// The `--out` document.
fn render_out(
    args: &Args,
    spec: &Spec,
    all: &BTreeMap<&str, Collected>,
    before: &str,
    after: &str,
) -> String {
    let mut out = String::from("{\n  \"schema\": \"hdx-bench/pipeline/v1\",\n");
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let _ = writeln!(
        out,
        "  \"seed\": {}, \"runs\": {}, \"seconds\": {}, \"quick\": {},\n  \
         \"host_cpus\": {host_cpus}, \"kernel_path\": \"{}\", \"git_rev\": \"{}\",\n  \
         \"obs\": false, \"loadavg_before\": \"{before}\", \"loadavg_after\": \"{after}\",",
        args.seed,
        args.runs,
        args.seconds(),
        args.quick,
        hdx_stats::active_kernel().as_str(),
        escape(&git_rev()),
    );
    out.push_str("  \"workloads\": {");
    for (i, (workload, collected)) in all.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{workload}\": {{\n      \"attempted\": {}, \"failed\": {},\n      \"end_to_end\": {{",
            collected.attempted(),
            collected.failed()
        );
        let names: Vec<&String> = collected
            .runs
            .first()
            .map(|r| r.metrics.keys().collect())
            .unwrap_or_default();
        let (declared, detail): (Vec<&String>, Vec<&String>) = names
            .into_iter()
            .partition(|n| spec.end_to_end.iter().any(|d| d.name == **n));
        for (j, name) in declared.iter().enumerate() {
            let Some((values, unit)) = collected.values(name) else {
                continue;
            };
            let (q1, q2, q3) = quartiles(&values);
            let listed: Vec<String> = values.iter().map(f64::to_string).collect();
            let _ = write!(
                out,
                "{}\n        \"{name}\": {{\"unit\": \"{unit}\", \"median\": {q2}, \"q1\": {q1}, \"q3\": {q3}, \
                 \"spread\": {}, \"values\": [{}]}}",
                if j == 0 { "" } else { "," },
                spread(&values),
                listed.join(", ")
            );
        }
        out.push_str("\n      },\n      \"detail\": {");
        for (j, name) in detail.iter().enumerate() {
            let Some((values, unit)) = collected.values(name) else {
                continue;
            };
            let _ = write!(
                out,
                "{}\n        \"{name}\": {{\"unit\": \"{unit}\", \"median\": {}}}",
                if j == 0 { "" } else { "," },
                stats::median(&values)
            );
        }
        out.push_str("\n      },\n      \"per_layer\": {");
        if let Some(traced) = &collected.traced {
            for (j, (name, (value, unit))) in traced.metrics.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}\n        \"{name}\": {{\"unit\": \"{unit}\", \"value\": {value}}}",
                    if j == 0 { "" } else { "," }
                );
            }
        }
        out.push_str("\n      }\n    }");
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Compares each end-to-end median with a previous `--out` file. Returns
/// whether every metric stayed within its bound and no more checks failed.
fn compare(spec: &Spec, path: &Path, all: &BTreeMap<&str, Collected>) -> Result<bool, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let previous = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("== compare with {} ==", path.display());
    let mut held = true;
    for (workload, collected) in all {
        let Some(before) = previous.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload}: not in the previous output");
            continue;
        };
        for d in &spec.end_to_end {
            let (Some((values, unit)), Some(old)) = (
                collected.values(&d.name),
                before
                    .get("end_to_end")
                    .and_then(|e| e.get(&d.name))
                    .and_then(|m| m.get("median"))
                    .map(number),
            ) else {
                continue;
            };
            let (q1, q2, q3) = quartiles(&values);
            let delta = q2 / old - 1.0;
            let worse_by = if d.lower_is_better { delta } else { -delta };
            let verdict = if worse_by > d.bound {
                held = false;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "{workload} {} {old} -> {q2} {unit} [q1 {q1:.4} q3 {q3:.4}] {:+.1}% (bound {:.0}%) {verdict}",
                d.name,
                delta * 100.0,
                d.bound * 100.0
            );
        }
        let old_failed = before.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if collected.failed() > old_failed {
            held = false;
            println!(
                "{workload} failed checks {old_failed} -> {} REGRESSED",
                collected.failed()
            );
        }
    }
    Ok(held)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_the_workloads_in_run_order() {
        let json = parse(BENCHMARK).expect("valid JSON");
        let names: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("a workload list")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    /// Every workload, untraced and traced, at reduced size for a short
    /// window: each declared metric is emitted, finite, with its declared
    /// unit, and every output check passes.
    #[test]
    fn quick_runs_emit_every_declared_metric() {
        let spec = spec();
        for workload in WORKLOADS {
            for trace in [false, true] {
                let run = run_one(workload, 7, 0.3, trace, true)
                    .unwrap_or_else(|e| panic!("{workload} (trace {trace}): {e}"));
                let declared = if trace {
                    &spec.per_layer
                } else {
                    &spec.end_to_end
                };
                let names: Vec<&str> = run.declared.iter().map(|m| m.name.as_str()).collect();
                let want: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
                assert_eq!(names, want, "{workload} (trace {trace})");
                assert!(run.checks.attempted > 0, "{workload} checked nothing");
                assert_eq!(
                    run.checks.failed, 0,
                    "{workload} (trace {trace}) failed checks"
                );
            }
        }
    }
}
