//! Metamorphic tests of the whole fit, fed through CSV text the way every
//! front end feeds it: generated compas and synthetic-peak frames (boolean
//! outcomes) are written to CSV, transformed as text, and fitted through
//! `read_csv_str` → `mining_input` → `HDivExplorer::fit`.
//!
//! - Permuting the data rows leaves every record bit-identical.
//! - Renaming every categorical level bijectively to other text leaves
//!   every record's numbers bit-identical under the renamed label.
//! - Duplicating every row doubles each count and leaves every support,
//!   statistic, divergence and tree node bit-identical (Welch's t and p
//!   move with n).
//! - Two constant columns in front (one categorical level, one number)
//!   shift every item id and leave every record bit-identical; each record
//!   that uses a constant item equals its twin without it, and the twins'
//!   tied divergences rank by label.
//!
//! Item ids follow first appearance, so records are compared as a map
//! keyed by their set of item labels. Together these pin the reader's
//! first-appearance order, its level interning and its row handling.

use std::collections::{BTreeMap, BTreeSet};

use h_divexplorer::core::{
    mining_input, HDivExplorer, HDivExplorerConfig, HDivResult, RunSpec, Statistic,
};
use h_divexplorer::data::{
    read_csv_str, write_csv_string, Column, CsvOptions, DataFrameBuilder, Value,
};
use h_divexplorer::datasets::{compas, synthetic_peak, Dataset};

/// A dataset as CSV text: its attributes, then `y_true` and `y_pred`.
fn to_csv(dataset: &Dataset) -> String {
    let y_true = dataset.y_true.as_ref().expect("boolean labels");
    let y_pred = dataset.y_pred.as_ref().expect("boolean predictions");
    let mut builder = DataFrameBuilder::new();
    for (_, attr) in dataset.frame.schema().iter() {
        builder.add_attribute(attr.clone()).expect("unique names");
    }
    builder.add_categorical("y_true").expect("fresh column");
    builder.add_categorical("y_pred").expect("fresh column");
    for row in 0..dataset.n_rows() {
        let mut cells: Vec<Value> = dataset
            .frame
            .schema()
            .iter()
            .map(|(id, _)| dataset.frame.column(id).value(row))
            .collect();
        cells.push(Value::Cat(y_true[row].to_string()));
        cells.push(Value::Cat(y_pred[row].to_string()));
        builder.push_row(cells).expect("row matches the schema");
    }
    write_csv_string(&builder.finish(), ',')
}

/// Fits CSV text the way the CLI and the service do.
fn fit(csv: &str, stat: Statistic) -> HDivResult {
    let df = read_csv_str(csv, &CsvOptions::default()).expect("the CSV reads");
    let spec = RunSpec::new(stat, "y_true", "y_pred");
    let (frame, outcomes) = mining_input(&df, &spec).expect("boolean outcomes");
    HDivExplorer::new(HDivExplorerConfig {
        min_support: 0.05,
        ..HDivExplorerConfig::default()
    })
    .fit(&frame, &outcomes)
}

/// One record's numbers, as bits: support, statistic, divergence, t, p,
/// and the accumulator's count, valid count, sum and sum of squares.
type Numbers = [u64; 9];

/// Every record of a fit, keyed by its set of item labels.
fn records(result: &HDivResult) -> BTreeMap<BTreeSet<String>, Numbers> {
    let bits = |x: Option<f64>| x.map_or(u64::MAX, f64::to_bits);
    let map: BTreeMap<BTreeSet<String>, Numbers> = result
        .report
        .records
        .iter()
        .map(|record| {
            let labels = record
                .itemset
                .items()
                .iter()
                .map(|&item| result.catalog.label(item).to_string())
                .collect();
            let (n, n_valid, sum, sum_sq) = record.accum.raw_parts();
            let numbers = [
                record.support.to_bits(),
                bits(record.statistic),
                bits(record.divergence),
                record.t_value.to_bits(),
                record.p_value.to_bits(),
                n,
                n_valid,
                sum.to_bits(),
                sum_sq.to_bits(),
            ];
            (labels, numbers)
        })
        .collect();
    assert_eq!(map.len(), result.report.records.len(), "labels are unique");
    assert!(!map.is_empty(), "the fit finds subgroups");
    map
}

/// Every discretization tree, node for node (`Debug` prints each `f64`
/// so that it reads back to the same bits).
fn trees(result: &HDivResult) -> Vec<String> {
    result
        .trees
        .iter()
        .map(|tree| format!("{:?} {:?}", tree.attr, tree.nodes))
        .collect()
}

/// The header and the data lines of CSV text.
fn split(csv: &str) -> (&str, Vec<&str>) {
    let mut lines = csv.lines();
    let header = lines.next().expect("a header");
    (header, lines.collect())
}

fn join(header: &str, rows: &[&str]) -> String {
    let mut csv = format!("{header}\n");
    for row in rows {
        csv.push_str(row);
        csv.push('\n');
    }
    csv
}

/// The cases: each dataset at two seeds with the statistic it is mined for.
fn cases() -> Vec<(Dataset, Statistic)> {
    let mut cases = Vec::new();
    for seed in [3, 17] {
        cases.push((compas(2_000, seed), Statistic::Fpr));
        cases.push((synthetic_peak(2_000, seed), Statistic::Error));
    }
    cases
}

#[test]
fn permuting_rows_leaves_every_record_bit_identical() {
    for (dataset, stat) in cases() {
        let csv = to_csv(&dataset);
        let base = fit(&csv, stat);
        let (header, rows) = split(&csv);
        // A seeded Fisher–Yates shuffle (splitmix64).
        let mut state = 0x5EED_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut shuffled = rows.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        assert_ne!(shuffled, rows);
        let permuted = fit(&join(header, &shuffled), stat);
        assert_eq!(records(&permuted), records(&base), "{}", dataset.name);
        assert_eq!(trees(&permuted), trees(&base), "{}", dataset.name);
    }
}

#[test]
fn renaming_levels_leaves_every_record_bit_identical_under_its_new_label() {
    for (dataset, stat) in cases() {
        let base = fit(&to_csv(&dataset), stat);
        // Every level of every categorical attribute gets a new, non-numeric
        // name; `attr=level` item labels map to `attr=new name`.
        let mut renamed_frame = DataFrameBuilder::new();
        let mut label_map = BTreeMap::new();
        for (id, attr) in dataset.frame.schema().iter() {
            renamed_frame
                .add_attribute(attr.clone())
                .expect("unique names");
            if let Column::Categorical(column) = dataset.frame.column(id) {
                for (code, level) in column.levels().iter().enumerate() {
                    label_map.insert(
                        format!("{}={level}", attr.name()),
                        format!("{}=renamed level {code} of {}", attr.name(), attr.name()),
                    );
                }
            }
        }
        for row in 0..dataset.n_rows() {
            let cells = dataset
                .frame
                .schema()
                .iter()
                .map(|(id, attr)| match dataset.frame.column(id).value(row) {
                    Value::Cat(level) => {
                        let new = &label_map[&format!("{}={level}", attr.name())];
                        Value::Cat(new[attr.name().len() + 1..].to_string())
                    }
                    other => other,
                })
                .collect();
            renamed_frame
                .push_row(cells)
                .expect("row matches the schema");
        }
        let renamed = Dataset {
            frame: renamed_frame.finish(),
            ..dataset.clone()
        };
        let after = fit(&to_csv(&renamed), stat);
        let mapped: BTreeMap<BTreeSet<String>, Numbers> = records(&base)
            .into_iter()
            .map(|(labels, numbers)| {
                let labels = labels
                    .into_iter()
                    .map(|l| label_map.get(&l).cloned().unwrap_or(l))
                    .collect();
                (labels, numbers)
            })
            .collect();
        assert_eq!(records(&after), mapped, "{}", dataset.name);
        assert_eq!(trees(&after), trees(&base), "{}", dataset.name);
    }
}

#[test]
fn duplicating_rows_doubles_counts_and_keeps_every_rate_and_tree() {
    for (dataset, stat) in cases() {
        let csv = to_csv(&dataset);
        let base = fit(&csv, stat);
        let (header, rows) = split(&csv);
        let doubled: Vec<&str> = rows.iter().flat_map(|row| [*row, *row]).collect();
        let twice = fit(&join(header, &doubled), stat);
        assert_eq!(twice.report.n_rows, 2 * base.report.n_rows);
        let (base_records, twice_records) = (records(&base), records(&twice));
        assert_eq!(
            twice_records.keys().collect::<Vec<_>>(),
            base_records.keys().collect::<Vec<_>>(),
            "{}",
            dataset.name
        );
        for (labels, numbers) in &base_records {
            let doubled = twice_records[labels];
            // Support, statistic and divergence are rates: bit-identical.
            assert_eq!(doubled[..3], numbers[..3], "{labels:?}");
            // Counts and boolean sums double exactly.
            assert_eq!(doubled[5], 2 * numbers[5], "{labels:?}");
            assert_eq!(doubled[6], 2 * numbers[6], "{labels:?}");
            for k in [7, 8] {
                let (base_sum, twice_sum) =
                    (f64::from_bits(numbers[k]), f64::from_bits(doubled[k]));
                assert_eq!(
                    twice_sum.to_bits(),
                    (2.0 * base_sum).to_bits(),
                    "{labels:?}"
                );
            }
        }
        assert_eq!(trees(&twice), trees(&base), "{}", dataset.name);
    }
}

#[test]
fn constant_columns_in_front_add_twins_that_rank_by_label() {
    const CONSTANTS: [&str; 2] = ["const_level", "const_number"];
    for (dataset, stat) in cases() {
        let csv = to_csv(&dataset);
        let base = fit(&csv, stat);
        let (header, rows) = split(&csv);
        let widened: Vec<String> = rows.iter().map(|row| format!("k,7.5,{row}")).collect();
        let widened: Vec<&str> = widened.iter().map(String::as_str).collect();
        let header = format!("{},{},{header}", CONSTANTS[0], CONSTANTS[1]);
        let after = fit(&join(&header, &widened), stat);

        let is_constant = |label: &str| CONSTANTS.iter().any(|name| label.starts_with(name));
        let (base_records, after_records) = (records(&base), records(&after));
        let mut twins = 0;
        for (labels, numbers) in &after_records {
            let twin: BTreeSet<String> = labels
                .iter()
                .filter(|label| !is_constant(label))
                .cloned()
                .collect();
            if twin.len() == labels.len() {
                // No constant item: the record is the base fit's, bit for bit.
                assert_eq!(base_records.get(labels), Some(numbers), "{labels:?}");
            } else if twin.is_empty() {
                // Constant items alone cover every row: no divergence.
                assert_eq!(f64::from_bits(numbers[0]), 1.0, "{labels:?}");
                assert_eq!(f64::from_bits(numbers[2]), 0.0, "{labels:?}");
            } else {
                // Support, statistic, divergence, t and p of the twin.
                let want = base_records.get(&twin).expect("the twin is mined");
                assert_eq!(numbers[..5], want[..5], "{labels:?} vs {twin:?}");
                twins += 1;
            }
        }
        assert!(
            twins > 0,
            "{}: some record uses a constant item",
            dataset.name
        );
        // Every base record is still there.
        assert!(base_records.keys().all(|k| after_records.contains_key(k)));
        // Equal divergences rank by label.
        let ties = after.report.records.windows(2).filter(|pair| {
            let bits = |r: &h_divexplorer::core::SubgroupRecord| r.divergence.map(f64::to_bits);
            bits(&pair[0]) == bits(&pair[1])
        });
        let mut tied = 0;
        for pair in ties {
            assert!(
                pair[0].label < pair[1].label,
                "{} before {}",
                pair[0].label,
                pair[1].label
            );
            tied += 1;
        }
        assert!(tied >= twins, "{}: every twin ties", dataset.name);
    }
}
