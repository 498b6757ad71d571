//! Data-layer integration tests: CSV round-trips preserve mining results,
//! and frames behave across the crate boundary.

use h_divexplorer::core::{HDivExplorer, HDivExplorerConfig, OutcomeFn};
use h_divexplorer::data::{read_csv_str, write_csv_string, CsvOptions};
use h_divexplorer::datasets::compas;
use proptest::prelude::*;

/// A dataset serialised to CSV and re-parsed yields the same subgroup
/// discovery report.
#[test]
fn csv_roundtrip_preserves_mining() {
    let dataset = compas(1_000, 9);
    let outcomes = dataset.classification_outcomes(OutcomeFn::Fpr);
    let pipeline = HDivExplorer::new(HDivExplorerConfig {
        min_support: 0.05,
        ..HDivExplorerConfig::default()
    });

    let direct = pipeline.fit(&dataset.frame, &outcomes);

    let csv = write_csv_string(&dataset.frame, ',');
    let reloaded = read_csv_str(&csv, &CsvOptions::default()).unwrap();
    assert_eq!(reloaded.n_rows(), dataset.frame.n_rows());
    let via_csv = pipeline.fit(&reloaded, &outcomes);

    assert_eq!(direct.report.records.len(), via_csv.report.records.len());
    assert_eq!(
        direct.report.max_divergence(),
        via_csv.report.max_divergence()
    );
    let a: Vec<&str> = direct
        .report
        .records
        .iter()
        .map(|r| r.label.as_str())
        .collect();
    let b: Vec<&str> = via_csv
        .report
        .records
        .iter()
        .map(|r| r.label.as_str())
        .collect();
    assert_eq!(a, b);
}

/// A null cell of a one-column frame used to be written as an empty line,
/// which the reader skips: `x\n1\n\n2\n` read back as two rows, not three.
#[test]
fn single_column_null_rows_survive_a_roundtrip() {
    use h_divexplorer::data::{DataFrameBuilder, Value};
    let mut b = DataFrameBuilder::new();
    b.add_continuous("x").unwrap();
    for v in [Value::Num(1.0), Value::Null, Value::Num(2.0)] {
        b.push_row(vec![v]).unwrap();
    }
    let df = b.finish();
    let text = write_csv_string(&df, ',');
    assert_eq!(text, "x\n1\n\"\"\n2\n");
    let back = read_csv_str(&text, &CsvOptions::default()).unwrap();
    assert_eq!(back.n_rows(), 3);
    assert_eq!(back, df);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One-column frames survive a CSV round-trip with every row, null
    /// cells included (a bare null cell would be a blank line).
    #[test]
    fn csv_roundtrip_arbitrary_single_column_frames(
        rows in proptest::collection::vec(
            (
                proptest::option::of(-1e6f64..1e6),
                proptest::option::of("[a-z,\"\\- ]{0,8}"),
            ),
            1..40,
        )
    ) {
        use h_divexplorer::data::{DataFrameBuilder, Value};
        let mut nums = DataFrameBuilder::new();
        nums.add_continuous("x").unwrap();
        let mut cats = DataFrameBuilder::new();
        cats.add_categorical("s").unwrap();
        for (num, cat) in &rows {
            // Blank strings parse back as nulls, so normalise them here.
            let cat = cat.clone().filter(|c| !c.trim().is_empty());
            nums.push_row(vec![num.map_or(Value::Null, Value::Num)]).unwrap();
            cats.push_row(vec![cat.map_or(Value::Null, Value::Cat)]).unwrap();
        }
        let nums = nums.finish();
        let back = read_csv_str(&write_csv_string(&nums, ','), &CsvOptions::default()).unwrap();
        prop_assert_eq!(back.n_rows(), nums.n_rows());
        let x = nums.schema().id("x").unwrap();
        for row in 0..nums.n_rows() {
            let (orig, got) = (nums.continuous(x).get(row), back.continuous(x).get(row));
            match (orig, got) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    prop_assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()), "{} vs {}", a, b)
                }
                other => prop_assert!(false, "null mismatch {:?}", other),
            }
        }
        let cats = cats.finish();
        let back = read_csv_str(&write_csv_string(&cats, ','), &CsvOptions {
            force_categorical: vec!["s".to_string()],
            ..CsvOptions::default()
        }).unwrap();
        prop_assert_eq!(back.n_rows(), cats.n_rows());
        let s = cats.schema().id("s").unwrap();
        for row in 0..cats.n_rows() {
            let cat_orig = cats.categorical(s).get(row).map(str::trim);
            prop_assert_eq!(cat_orig, back.categorical(s).get(row));
        }
    }

    /// Arbitrary frames (mixed kinds, nulls, quoting hazards) survive a CSV
    /// round-trip exactly.
    #[test]
    fn csv_roundtrip_arbitrary_frames(
        rows in proptest::collection::vec(
            (
                proptest::option::of(-1e6f64..1e6),
                proptest::option::of("[a-z,\"\\- ]{0,8}"),
            ),
            1..40,
        )
    ) {
        use h_divexplorer::data::{DataFrameBuilder, Value};
        let mut b = DataFrameBuilder::new();
        b.add_continuous("x").unwrap();
        b.add_categorical("s").unwrap();
        for (num, cat) in &rows {
            // Empty strings parse back as nulls, so normalise them here.
            let cat = cat.clone().filter(|c| !c.trim().is_empty());
            b.push_row(vec![
                num.map_or(Value::Null, Value::Num),
                cat.map_or(Value::Null, Value::Cat),
            ])
            .unwrap();
        }
        let df = b.finish();
        let text = write_csv_string(&df, ',');
        let back = read_csv_str(&text, &CsvOptions {
            force_categorical: vec!["s".to_string()],
            ..CsvOptions::default()
        }).unwrap();
        prop_assert_eq!(back.n_rows(), df.n_rows());
        let x = df.schema().id("x").unwrap();
        let s = df.schema().id("s").unwrap();
        for row in 0..df.n_rows() {
            let orig = df.continuous(x).get(row);
            let got = back.continuous(back.schema().id("x").unwrap()).get(row);
            match (orig, got) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    prop_assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()), "{} vs {}", a, b)
                }
                other => prop_assert!(false, "null mismatch {:?}", other),
            }
            let cat_orig = df.categorical(s).get(row).map(str::trim);
            let cat_got = back.categorical(back.schema().id("s").unwrap()).get(row);
            prop_assert_eq!(cat_orig, cat_got);
        }
    }
}
