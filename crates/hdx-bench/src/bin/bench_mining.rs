//! Mining-performance harness: times the word-level outcome kernels against
//! the scalar reference path (micro), the production miner and the two
//! oracle miners end to end (synthetic-peak and compas; the paper's miner
//! ablation), and the multi-threaded search's rows × threads scaling curve,
//! then writes machine-readable results to `BENCH_mining.json`
//! (`hdx-bench/mining/v5`), with the scheduler steal/park counters
//! summarised as derived utilization rates under `"sched"` and the run's
//! hdx-obs telemetry — per-stage spans, pruning counters, the
//! `hdx.bench.iter.latency_ns` histogram — embedded under `"telemetry"`.
//!
//! Unlike the criterion benches this binary needs no bench runner, finishes
//! in seconds, and has a CI mode:
//!
//! ```text
//! bench_mining [--quick] [--enforce] [--out PATH]
//! ```
//!
//! `--quick` shrinks iteration, row and thread counts for smoke runs;
//! `--enforce` exits non-zero when a performance floor is missed (the
//! regression gate CI runs): the boolean dense kernel must beat the scalar
//! path, the numeric dense kernel must clear
//! [`NUMERIC_FLOOR_FULL`]/[`NUMERIC_FLOOR_QUICK`], and — only when the
//! 4-thread cell on the largest scaling input was timed, which needs a host
//! with ≥ 4 CPUs — the 4-thread parallel efficiency there must clear
//! [`EFFICIENCY_FLOOR`]. `--out` overrides the output path (default
//! `BENCH_mining.json` in the current directory).
//!
//! Schema history: v3 added `"kernel_path"`, `"host_cpus"` and the
//! `"scaling"` section, and re-sized the quick micro geometry (16 Ki → 32 Ki
//! rows) so per-call setup no longer dominates the quick kernel timings.
//! v4 added the `"sched"` section: the work-stealing scheduler's raw
//! steal/park counters and their per-thousand-emitted-itemsets rates
//! derived from the embedded telemetry. v5 names end-to-end rows by
//! `"miner"` (`apriori`, `fpgrowth`, `vertical`), drops the parallel
//! end-to-end row and the serial `threads: 0` scaling row (one thread is
//! the serial search), and writes `"skipped": "threads > host_cpus"` in
//! place of the timing of a scaling cell with more threads than the host
//! has CPUs, since such a cell measures time-slicing, not scaling.

use hdx_bench::experiments::{outcomes_for, pipeline_for};
use hdx_bench::{apriori, fpgrowth, splitmix64};
use hdx_core::HDivExplorerConfig;
use hdx_data::AttrId;
use hdx_datasets::{compas, synthetic_peak};
use hdx_items::{Bitset, Item, ItemCatalog};
use hdx_mining::{accum_scalar, mine, MiningConfig, MiningResult, Transactions};
use hdx_obs::timing::median_ns;
use hdx_stats::{active_kernel, Outcome, OutcomePlanes};
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;

/// `--enforce` floor for the numeric dense micro speedup in full mode (the
/// paper-repro acceptance bar; assumes a host with AVX-512 or comparable).
const NUMERIC_FLOOR_FULL: f64 = 8.0;
/// `--enforce` floor for the numeric dense micro speedup in quick (smoke)
/// mode — conservative enough for AVX2-only or portable-kernel CI runners.
const NUMERIC_FLOOR_QUICK: f64 = 2.5;
/// `--enforce` floor for 4-thread parallel efficiency on the largest
/// scaling input (checked only on hosts with ≥ 4 CPUs).
const EFFICIENCY_FLOOR: f64 = 0.6;

struct Opts {
    quick: bool,
    enforce: bool,
    out: String,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        quick: false,
        enforce: false,
        out: "BENCH_mining.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => opts.quick = true,
            "--enforce" => opts.enforce = true,
            "--out" => {
                opts.out = it.next().unwrap_or_else(|| panic!("usage: --out <path>"));
            }
            other => panic!("unknown flag `{other}`; supported: --quick --enforce --out <path>"),
        }
    }
    opts
}

fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1)
}

/// One timed micro-comparison: ns per (cover, outcome-vector) accumulation
/// for the kernel and the scalar path, plus their ratio.
struct MicroResult {
    name: &'static str,
    rows: usize,
    covers: usize,
    kernel_ns: f64,
    scalar_ns: f64,
}

impl MicroResult {
    fn speedup(&self) -> f64 {
        self.scalar_ns / self.kernel_ns
    }
}

fn make_covers(n_rows: usize, n_covers: usize, seed: u64) -> Vec<Bitset> {
    let mut state = seed;
    (0..n_covers)
        .map(|_| {
            let mut cover = Bitset::new(n_rows);
            for row in 0..n_rows {
                if splitmix64(&mut state) & 1 == 1 {
                    cover.set(row);
                }
            }
            cover
        })
        .collect()
}

fn make_outcomes(kind: &str, n_rows: usize) -> Vec<Outcome> {
    let mut state = 0x5eed_0123_4567_89ab;
    (0..n_rows)
        .map(|_| {
            let bits = splitmix64(&mut state);
            match kind {
                "boolean_dense" => Outcome::Bool(bits & 1 == 1),
                "numeric_dense" => Outcome::Real((bits >> 11) as f64 * 1e-6),
                _ => match bits % 10 {
                    0 => Outcome::Undefined,
                    1..=5 => Outcome::Bool(bits & 2 == 2),
                    _ => Outcome::Real((bits >> 11) as f64 * 1e-6),
                },
            }
        })
        .collect()
}

fn micro(kind: &'static str, quick: bool) -> MicroResult {
    let (n_rows, n_covers, iters) = if quick {
        (32_768, 16, 7)
    } else {
        (131_072, 32, 15)
    };
    let covers = make_covers(n_rows, n_covers, 7);
    let counts: Vec<u64> = covers.iter().map(|c| c.count() as u64).collect();
    let outcomes = make_outcomes(kind, n_rows);
    let planes = OutcomePlanes::from_outcomes(&outcomes);

    hdx_obs::span!("bench", str kind);
    let kernel_total = median_ns(iters, || {
        for (cover, &n) in covers.iter().zip(&counts) {
            black_box(planes.accum(cover.words(), n));
        }
    });
    let scalar_total = median_ns(iters, || {
        for cover in &covers {
            black_box(accum_scalar(cover, &outcomes));
        }
    });
    MicroResult {
        name: kind,
        rows: n_rows,
        covers: n_covers,
        kernel_ns: kernel_total / n_covers as f64,
        scalar_ns: scalar_total / n_covers as f64,
    }
}

/// A miner under the end-to-end ablation.
type Miner = fn(&Transactions, &ItemCatalog, &MiningConfig) -> MiningResult;

/// The end-to-end ablation: the two oracles and the production search (one
/// thread).
const MINERS: [(&str, Miner); 3] = [
    ("apriori", apriori),
    ("fpgrowth", fpgrowth),
    ("vertical", mine),
];

struct EndToEnd {
    dataset: String,
    miner: &'static str,
    itemsets: usize,
    ms: f64,
}

fn end_to_end(quick: bool) -> Vec<EndToEnd> {
    let (rows_peak, rows_compas, iters) = if quick {
        (800, 600, 2)
    } else {
        (2_500, 1_543, 5)
    };
    let config = MiningConfig {
        min_support: 0.05,
        ..MiningConfig::default()
    };
    let mut out = Vec::new();
    for dataset in [synthetic_peak(rows_peak, 1), compas(rows_compas, 1)] {
        hdx_obs::span!("bench", owned dataset.name.clone());
        let outcomes = outcomes_for(&dataset);
        let pipeline = pipeline_for(&dataset, HDivExplorerConfig::default());
        let (catalog, hierarchies, _) = pipeline.discretize(&dataset.frame, &outcomes);
        let transactions =
            Transactions::encode_generalized(&dataset.frame, &catalog, &hierarchies, &outcomes);
        for (miner, run) in MINERS {
            let itemsets = run(&transactions, &catalog, &config).itemsets.len();
            let ns = median_ns(iters, || {
                black_box(run(&transactions, &catalog, &config).itemsets.len());
            });
            out.push(EndToEnd {
                dataset: dataset.name.clone(),
                miner,
                itemsets,
                ms: ns / 1e6,
            });
        }
    }
    out
}

/// One cell of the rows × threads scaling matrix.
struct ScalingCell {
    rows: usize,
    threads: usize,
    itemsets: usize,
    /// Median ms and the efficiency `T(1 thread) / (threads · T(threads))`
    /// within the same row count; `None` when the cell has more threads
    /// than the host has CPUs and was not timed.
    timing: Option<(f64, f64)>,
}

/// Synthetic scaling input: `n_attrs` categorical attributes of
/// `values_per_attr` levels each (one item per attribute per row, uniform)
/// with a numeric outcome, so the parallel scaling run exercises the
/// masked-sum kernels and a `n_attrs · values_per_attr`-root DFS.
fn scaling_input(n_rows: usize) -> (Transactions, ItemCatalog) {
    const N_ATTRS: usize = 6;
    const VALUES_PER_ATTR: u32 = 3;
    static NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
    static LEVELS: [&str; 3] = ["0", "1", "2"];
    let mut catalog = ItemCatalog::new();
    let ids: Vec<Vec<_>> = (0..N_ATTRS)
        .map(|a| {
            (0..VALUES_PER_ATTR)
                // BOUND: `a < N_ATTRS = NAMES.len()`; `v < 3 = LEVELS.len()`.
                .map(|v| {
                    catalog.intern(Item::cat_eq(
                        AttrId(a as u16),
                        v,
                        NAMES[a],
                        LEVELS[v as usize],
                    ))
                })
                .collect()
        })
        .collect();
    let mut state = 0x5ca1_ab1e_0000_0001;
    let mut rows = Vec::with_capacity(n_rows);
    let mut outcomes = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let row: Vec<_> = ids
            .iter()
            .map(|attr| {
                let bits = splitmix64(&mut state);
                // BOUND: index taken modulo the per-attribute item count.
                attr[(bits % VALUES_PER_ATTR as u64) as usize]
            })
            .collect();
        rows.push(row);
        outcomes.push(Outcome::Real((splitmix64(&mut state) >> 11) as f64 * 1e-6));
    }
    (Transactions::from_rows(rows, outcomes), catalog)
}

/// Times the search over a rows × threads matrix on the synthetic scaling
/// input, skipping cells with more threads than the host has CPUs.
fn scaling(quick: bool) -> Vec<ScalingCell> {
    let (row_sizes, thread_counts, iters): (&[usize], &[usize], usize) = if quick {
        (&[16_384, 65_536], &[1, 2, 4], 2)
    } else {
        (&[65_536, 1_048_576], &[1, 2, 4, 8], 3)
    };
    let mut out = Vec::new();
    for &n_rows in row_sizes {
        hdx_obs::span!("scaling", int n_rows as i64);
        let (transactions, catalog) = scaling_input(n_rows);
        let serial = MiningConfig {
            min_support: 0.01,
            ..MiningConfig::default()
        };
        let itemsets = mine(&transactions, &catalog, &serial).itemsets.len();
        let mut one_thread_ms = 0.0f64;
        for &k in thread_counts {
            let timing = (k <= host_cpus()).then(|| {
                let config = MiningConfig {
                    threads: k,
                    ..serial
                };
                let ns = median_ns(iters, || {
                    black_box(mine(&transactions, &catalog, &config).itemsets.len());
                });
                let ms = ns / 1e6;
                if k == 1 {
                    one_thread_ms = ms;
                }
                (ms, one_thread_ms / (k as f64 * ms))
            });
            out.push(ScalingCell {
                rows: n_rows,
                threads: k,
                itemsets,
                timing,
            });
        }
    }
    out
}

fn render_json(
    mode: &str,
    micros: &[MicroResult],
    e2e: &[EndToEnd],
    cells: &[ScalingCell],
    telemetry: &hdx_obs::RunTelemetry,
) -> String {
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"hdx-bench/mining/v5\",");
    let _ = writeln!(json, "  \"mode\": \"{mode}\",");
    let _ = writeln!(json, "  \"kernel_path\": \"{}\",", active_kernel().as_str());
    let _ = writeln!(json, "  \"host_cpus\": {},", host_cpus());
    let _ = writeln!(json, "  \"micro\": [");
    for (i, m) in micros.iter().enumerate() {
        let comma = if i + 1 < micros.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"rows\": {}, \"covers\": {}, \
             \"kernel_ns_per_cover\": {:.1}, \"scalar_ns_per_cover\": {:.1}, \
             \"speedup\": {:.2}}}{comma}",
            m.name,
            m.rows,
            m.covers,
            m.kernel_ns,
            m.scalar_ns,
            m.speedup(),
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"end_to_end\": [");
    for (i, e) in e2e.iter().enumerate() {
        let comma = if i + 1 < e2e.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"dataset\": \"{}\", \"miner\": \"{}\", \
             \"itemsets\": {}, \"ms\": {:.3}}}{comma}",
            e.dataset, e.miner, e.itemsets, e.ms,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"scaling\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let measured = match c.timing {
            Some((ms, efficiency)) => format!("\"ms\": {ms:.3}, \"efficiency\": {efficiency:.3}"),
            None => "\"skipped\": \"threads > host_cpus\"".to_string(),
        };
        let _ = writeln!(
            json,
            "    {{\"rows\": {}, \"threads\": {}, \"itemsets\": {}, {measured}}}{comma}",
            c.rows, c.threads, c.itemsets,
        );
    }
    let _ = writeln!(json, "  ],");
    // The work-stealing scheduler's health at a glance: raw steal/park
    // counts plus utilization rates normalized per thousand emitted
    // itemsets, so runs of different sizes compare directly.
    let sched = telemetry.sched_rates();
    let _ = writeln!(
        json,
        "  \"sched\": {{\"steals\": {}, \"parks\": {}, \
         \"steals_per_1k_itemsets\": {:.3}, \"parks_per_1k_itemsets\": {:.3}}},",
        sched.steals, sched.parks, sched.steals_per_1k_itemsets, sched.parks_per_1k_itemsets,
    );
    // Embed the run telemetry verbatim (re-indented) so one artifact carries
    // both the headline numbers and the per-stage breakdown behind them.
    let nested = telemetry.to_json();
    let _ = write!(
        json,
        "  \"telemetry\": {}",
        nested.trim_end().replace('\n', "\n  ")
    );
    let _ = writeln!(json, "\n}}");
    json
}

/// The `--enforce` gates; returns an error message for the first missed
/// floor. The parallel-efficiency floor only applies when its cell was
/// timed, i.e. on hosts with enough CPUs to run the measured threads truly
/// in parallel — a 1-core runner timesharing 4 workers measures
/// scheduling, not scaling.
fn enforce(quick: bool, micros: &[MicroResult], cells: &[ScalingCell]) -> Result<(), String> {
    let micro_of = |name: &str| {
        micros
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} micro always runs"))
    };
    let boolean = micro_of("boolean_dense");
    if boolean.speedup() < 1.0 {
        return Err(format!(
            "boolean dense kernel is {:.2}x scalar (must be >= 1.0x)",
            boolean.speedup()
        ));
    }
    let numeric = micro_of("numeric_dense");
    let floor = if quick {
        NUMERIC_FLOOR_QUICK
    } else {
        NUMERIC_FLOOR_FULL
    };
    if numeric.speedup() < floor {
        return Err(format!(
            "numeric dense kernel is {:.2}x scalar (must be >= {floor:.1}x; \
             kernel path {})",
            numeric.speedup(),
            active_kernel().as_str()
        ));
    }
    println!(
        "enforce OK: boolean {:.2}x, numeric {:.2}x (floor {floor:.1}x, kernel {})",
        boolean.speedup(),
        numeric.speedup(),
        active_kernel().as_str()
    );
    const GATED_THREADS: usize = 4;
    let largest = cells.iter().map(|c| c.rows).max().unwrap_or(0);
    let gated = cells
        .iter()
        .find(|c| c.rows == largest && c.threads == GATED_THREADS);
    match gated.and_then(|c| c.timing) {
        Some((_, eff)) if eff < EFFICIENCY_FLOOR => Err(format!(
            "parallel efficiency at {GATED_THREADS} threads on {largest} rows is {eff:.3} \
             (must be >= {EFFICIENCY_FLOOR})"
        )),
        Some((_, eff)) => {
            println!(
                "enforce OK: parallel efficiency {eff:.3} at {GATED_THREADS} threads on \
                 {largest} rows"
            );
            Ok(())
        }
        None => {
            println!(
                "enforce: skipping parallel-efficiency floor (no timed {GATED_THREADS}-thread \
                 cell; host has {} CPU(s))",
                host_cpus()
            );
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let opts = parse_opts();
    let mode = if opts.quick { "quick" } else { "full" };
    hdx_obs::reset();

    let micros: Vec<MicroResult> = ["boolean_dense", "numeric_dense", "mixed"]
        .into_iter()
        .map(|kind| micro(kind, opts.quick))
        .collect();
    for m in &micros {
        println!(
            "micro {:>14}: kernel {:>12.1} ns/cover  scalar {:>12.1} ns/cover  speedup {:>6.2}x",
            m.name,
            m.kernel_ns,
            m.scalar_ns,
            m.speedup(),
        );
    }
    let e2e = end_to_end(opts.quick);
    for e in &e2e {
        println!(
            "e2e {:>16}/{:<16} {:>6} itemsets  {:>9.3} ms",
            e.dataset, e.miner, e.itemsets, e.ms,
        );
    }
    let cells = scaling(opts.quick);
    for c in &cells {
        let measured = c.timing.map_or_else(
            || "skipped (threads > host_cpus)".to_string(),
            |(ms, eff)| format!("{ms:>9.3} ms eff {eff:.3}"),
        );
        println!(
            "scaling {:>9} rows  {:>2} thread(s)  {:>6} itemsets  {measured}",
            c.rows, c.threads, c.itemsets,
        );
    }

    let json = render_json(mode, &micros, &e2e, &cells, &hdx_obs::collect());
    if let Err(err) = std::fs::write(&opts.out, &json) {
        eprintln!("cannot write {}: {err}", opts.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", opts.out);

    if opts.enforce {
        if let Err(msg) = enforce(opts.quick, &micros, &cells) {
            eprintln!("REGRESSION: {msg}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
