//! Differential tests of the streaming CSV reader against the two-pass
//! reader it replaced, kept below as a test-only oracle.
//!
//! Generated CSV text covers quoting (`""` escapes, quoted separators, text
//! after a closing quote, stray and unterminated quotes), blank and
//! whitespace-only lines, CRLF endings, padded cells, `NaN`/`±inf` cells
//! (also in columns that later turn categorical), late numeric→text flips,
//! ragged rows under both quarantine policies, `force_categorical`,
//! duplicate header names and non-comma separators. The generated datasets
//! the pipeline runs on are covered at reduced row counts. Both readers
//! must return bit-identical frames and equal quality reports, or equal
//! errors (line and message). Many-level columns (20–40 levels, most
//! sharing their length and first eight bytes) pass the 16 levels the
//! slot table holds mid-file, cells carry Unicode whitespace padding, and
//! records run from under 8 to over 64 bytes. The record splitter is also
//! checked on its own against the oracle's, with separators and quotes at
//! every offset of a line, and the reader with separators, quotes and line
//! breaks at every offset of the first three 64-byte blocks it scans.

use h_divexplorer::data::{
    read_csv_str_with_quality, split_record, write_csv_string, AttributeKind, Column, CsvOptions,
    DataError, DataFrame, DataFrameBuilder, Value,
};
use h_divexplorer::datasets::{compas, folktables, inject_nulls, synthetic_peak};
use proptest::prelude::*;

/// The reader as it was before the streaming rewrite: it materialises every
/// record as owned strings, infers the column kinds, then builds the frame
/// row by row. Kept verbatim except that the fail point and the telemetry
/// counters are gone, and the report's crate-private counting helpers are
/// inlined below.
mod oracle {
    use h_divexplorer::data::{
        ColumnQuality, CsvOptions, DataError, DataFrame, DataFrameBuilder, DataQualityReport,
        Value, MAX_RECORDED_LINES,
    };

    /// `DataQualityReport::count_cell`.
    fn count_cell(quality: &mut DataQualityReport, column: &str, malformed: bool) {
        let idx = match quality.columns.iter().position(|c| c.name == column) {
            Some(idx) => idx,
            None => {
                quality.columns.push(ColumnQuality {
                    name: column.to_string(),
                    non_finite: 0,
                    malformed: 0,
                });
                quality.columns.len() - 1
            }
        };
        let entry = &mut quality.columns[idx];
        if malformed {
            entry.malformed += 1;
        } else {
            entry.non_finite += 1;
        }
    }

    /// `DataQualityReport::count_row`.
    fn count_row(quality: &mut DataQualityReport, line: usize) {
        quality.rows_quarantined += 1;
        if quality.quarantined_lines.len() < MAX_RECORDED_LINES {
            quality.quarantined_lines.push(line);
        }
    }

    /// Splits one CSV record honouring quotes. Returns the fields.
    pub fn split_record(line: &str, sep: char) -> Result<Vec<String>, String> {
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut chars = line.chars().peekable();
        let mut in_quotes = false;
        while let Some(c) = chars.next() {
            if in_quotes {
                if c == '"' {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cur.push('"');
                    } else {
                        in_quotes = false;
                    }
                } else {
                    cur.push(c);
                }
            } else if c == '"' {
                if !cur.is_empty() {
                    return Err("quote in the middle of an unquoted field".to_string());
                }
                in_quotes = true;
            } else if c == sep {
                fields.push(std::mem::take(&mut cur));
            } else {
                cur.push(c);
            }
        }
        if in_quotes {
            return Err("unterminated quoted field".to_string());
        }
        fields.push(cur);
        Ok(fields)
    }

    pub fn read_csv_str_with_quality(
        text: &str,
        options: &CsvOptions,
    ) -> Result<(DataFrame, DataQualityReport), DataError> {
        let mut quality = DataQualityReport::default();
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, header) = lines.next().ok_or(DataError::Csv {
            line: 1,
            message: "missing header row".to_string(),
        })?;
        let names = split_record(header, options.separator)
            .map_err(|message| DataError::Csv { line: 1, message })?;
        let n_cols = names.len();

        let mut records: Vec<Vec<String>> = Vec::new();
        for (idx, line) in lines {
            let parsed = split_record(line, options.separator).and_then(|fields| {
                if fields.len() == n_cols {
                    Ok(fields)
                } else {
                    Err(format!("expected {n_cols} fields, found {}", fields.len()))
                }
            });
            match parsed {
                Ok(fields) => records.push(fields),
                Err(message) => {
                    if options.quarantine_malformed_rows {
                        count_row(&mut quality, idx + 1);
                    } else {
                        return Err(DataError::Csv {
                            line: idx + 1,
                            message,
                        });
                    }
                }
            }
        }

        // Infer kinds: continuous iff all non-empty cells parse as f64. Note
        // `NaN`/`inf` *do* parse, so a dirty numeric column stays numeric and
        // its bad cells are quarantined below rather than silently flipping the
        // whole column categorical.
        let mut builder = DataFrameBuilder::new();
        let mut numeric = vec![true; n_cols];
        for record in &records {
            for (j, field) in record.iter().enumerate() {
                let f = field.trim();
                if !f.is_empty() && f.parse::<f64>().is_err() {
                    numeric[j] = false;
                }
            }
        }
        for (j, name) in names.iter().enumerate() {
            let forced = options.force_categorical.iter().any(|n| n == name);
            if numeric[j] && !forced {
                builder.add_continuous(name.clone())?;
            } else {
                builder.add_categorical(name.clone())?;
            }
        }
        for (i, record) in records.into_iter().enumerate() {
            let row: Vec<Value> = record
                .into_iter()
                .enumerate()
                .map(|(j, field)| {
                    let f = field.trim();
                    if f.is_empty() {
                        Value::Null
                    } else if numeric[j]
                        && !options.force_categorical.iter().any(|n| *n == names[j])
                    {
                        match f.parse::<f64>() {
                            Ok(v) if v.is_finite() => Value::Num(v),
                            Ok(_) => {
                                count_cell(&mut quality, &names[j], false);
                                Value::Null
                            }
                            Err(_) => {
                                count_cell(&mut quality, &names[j], true);
                                Value::Null
                            }
                        }
                    } else {
                        Value::Cat(f.to_string())
                    }
                })
                .collect();
            builder.push_row(row).map_err(|e| DataError::Csv {
                line: i + 2,
                message: e.to_string(),
            })?;
        }
        Ok((builder.finish(), quality))
    }
}

/// Frames equal down to the bits: same schema, same level tables and codes,
/// and the same `f64` bit patterns (nulls included).
fn frames_identical(a: &DataFrame, b: &DataFrame) -> Result<(), String> {
    if a.schema() != b.schema() {
        return Err(format!(
            "schemas differ: {:?} vs {:?}",
            a.schema(),
            b.schema()
        ));
    }
    if a.n_rows() != b.n_rows() {
        return Err(format!(
            "row counts differ: {} vs {}",
            a.n_rows(),
            b.n_rows()
        ));
    }
    for (id, attr) in a.schema().iter() {
        match (a.column(id), b.column(id)) {
            (Column::Continuous(x), Column::Continuous(y)) => {
                let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                if bits(x.values()) != bits(y.values()) {
                    return Err(format!(
                        "column `{}` differs: {:?} vs {:?}",
                        attr.name(),
                        x.values(),
                        y.values()
                    ));
                }
            }
            (Column::Categorical(x), Column::Categorical(y)) => {
                if x != y {
                    return Err(format!(
                        "column `{}` differs: {:?}/{:?} vs {:?}/{:?}",
                        attr.name(),
                        x.levels(),
                        x.codes(),
                        y.levels(),
                        y.codes()
                    ));
                }
            }
            _ => return Err(format!("column `{}` kinds differ", attr.name())),
        }
    }
    Ok(())
}

/// Runs both readers on `text` and compares what they return.
fn agree(text: &str, options: &CsvOptions) -> Result<(), String> {
    let ours = read_csv_str_with_quality(text, options);
    let theirs = oracle::read_csv_str_with_quality(text, options);
    match (ours, theirs) {
        (Ok((df, quality)), Ok((want_df, want_quality))) => {
            frames_identical(&df, &want_df)?;
            if quality != want_quality {
                return Err(format!(
                    "quality reports differ: {quality:?} vs {want_quality:?}"
                ));
            }
            Ok(())
        }
        (Err(e), Err(want)) => {
            let same = match (&e, &want) {
                (
                    DataError::Csv { line, message },
                    DataError::Csv {
                        line: want_line,
                        message: want_message,
                    },
                ) => line == want_line && message == want_message,
                (DataError::DuplicateAttribute(a), DataError::DuplicateAttribute(b)) => a == b,
                _ => false,
            };
            if same {
                Ok(())
            } else {
                Err(format!("errors differ: {e:?} vs {want:?}"))
            }
        }
        (Ok(_), Err(want)) => Err(format!("only the oracle failed: {want:?}")),
        (Err(e), Ok(_)) => Err(format!("only the streaming reader failed: {e:?}")),
    }
}

/// A splitmix64 stream: the generator below draws everything from one seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `percent`/100.
    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

const NUMBERS: &[&str] = &[
    "0",
    "1",
    "-2",
    "3.5",
    "-0.25",
    "1e3",
    "2.5E-2",
    "+4",
    ".5",
    "6.",
    "007",
    "12345678901234567890",
    "-0",
    "0.1",
    "1.7976931348623157e308",
    "4.9e-324",
];
const NON_FINITE: &[&str] = &["NaN", "nan", "inf", "-inf", "+inf", "infinity", "-Infinity"];
const TEXT: &[&str] = &[
    "a", "b", "x y", "Yes", "M", "F", "0x10", "1,5", "--", "é", "…", "-",
];
/// ASCII and Unicode whitespace (no-break space, next line, ideographic
/// space): the reader trims a cell only when its first or last byte can be
/// whitespace, and must agree with `str::trim`.
const PADDING: &[&str] = &[
    "",
    "",
    "",
    " ",
    "  ",
    "\t",
    "\u{a0}",
    "\u{85}",
    "\u{3000}",
    " \u{3000}",
];
/// Text that makes a record longer than a 64-byte scan block.
const LONG: &str = "long-abcdefghijklmnopqrstuvwxyz-0123456789-ABCDEFGHIJKLMNOPQRSTUVWXYZ-tail";

/// A cell that parses (when kept) into a numeric column.
fn numeric_cell(g: &mut Gen, non_finite_percent: usize) -> String {
    if g.chance(15) {
        return g.pick(&["", " ", "\t"]).to_string();
    }
    if g.chance(non_finite_percent) {
        return g.pick(NON_FINITE).to_string();
    }
    g.pick(NUMBERS).to_string()
}

/// A cell that does not parse as a number; now and then one long enough
/// to carry its record past a 64-byte scan block.
fn text_cell(g: &mut Gen) -> String {
    if g.chance(6) {
        return LONG[..5 + g.below(LONG.len() - 4)].to_string();
    }
    g.pick(TEXT).to_string()
}

/// Level `i` of a many-levels column. Most levels are 11 bytes that share
/// their first eight (`level-00`), so they share the key the column's slot
/// table finds its first 16 levels by; every fifth is short.
fn many_level(i: usize) -> String {
    if i.is_multiple_of(5) {
        format!("v{i}")
    } else {
        format!("level-{:04}{}", i / 4, char::from(b'a' + (i % 4) as u8))
    }
}

/// Wraps a cell in quotes, padding or quote hazards the writer never
/// produces but the reader accepts (or rejects) all the same.
fn dress(g: &mut Gen, cell: String, sep: char, bad_rows: bool) -> String {
    let roll = g.below(100);
    let pad = |g: &mut Gen, c: String| format!("{}{c}{}", g.pick(PADDING), g.pick(PADDING));
    match roll {
        0..=59 => cell,
        60..=69 => pad(g, cell),
        70..=77 => format!("\"{}\"", cell.replace('"', "\"\"")),
        78..=81 => format!("\"{cell}{sep}{cell}\""),
        82..=85 => format!("\"say \"\"{cell}\"\"\""),
        86..=88 => format!("\"{cell}\"tail"),
        89..=90 => "\"\"".to_string(),
        91..=92 => format!("\"{}\"", g.pick(PADDING)),
        93..=96 if bad_rows => match g.below(4) {
            0 => format!("{cell}\"x"),
            1 => format!("\"{cell}"),
            2 => format!(" \"{cell}\""),
            _ => format!("\"{cell}\"x\"y"),
        },
        _ => cell,
    }
}

/// How a generated column's cells are drawn.
#[derive(Clone, Copy)]
enum Profile {
    /// Numbers and blanks, rarely non-finite.
    Numeric,
    /// Numbers with frequent `NaN`/`±inf`.
    Dirty,
    /// Text cells.
    Text,
    /// Numeric (with non-finite cells) until `at`, text from there on.
    LateFlip { at: usize },
    /// One of `levels` levels (20–40) per cell: the column passes 16
    /// levels mid-file when the file is long enough.
    ManyLevels { levels: usize },
    /// Any mix.
    Mixed,
}

/// One generated case: CSV text plus the options it is read with.
fn generate(seed: u64) -> (String, CsvOptions) {
    let mut g = Gen(seed);
    let sep = match g.below(10) {
        0..=5 => ',',
        6 | 7 => ';',
        8 => '\t',
        _ => '€',
    };
    let n_cols = 1 + g.below(5);
    let n_rows = if g.chance(20) {
        24 + g.below(60)
    } else {
        g.below(24)
    };
    let bad_rows = g.chance(35);
    let names: Vec<String> = (0..n_cols)
        .map(|j| {
            if j > 0 && g.chance(6) {
                // A duplicate header name.
                format!("c{}", g.below(j))
            } else if g.chance(10) {
                format!("\"c{j}{sep}q\"")
            } else if g.chance(5) {
                format!(" c{j} ")
            } else {
                format!("c{j}")
            }
        })
        .collect();
    let profiles: Vec<Profile> = (0..n_cols)
        .map(|_| match g.below(6) {
            0 => Profile::Numeric,
            1 => Profile::Dirty,
            2 => Profile::Text,
            3 => Profile::LateFlip {
                at: g.below(n_rows + 1),
            },
            4 => Profile::ManyLevels {
                levels: 20 + g.below(21),
            },
            _ => Profile::Mixed,
        })
        .collect();
    let mut force_categorical: Vec<String> = (0..n_cols)
        .filter(|_| g.chance(20))
        .map(|j| format!("c{j}"))
        .collect();
    if g.chance(10) {
        force_categorical.push("absent".to_string());
    }

    let mut lines: Vec<String> = Vec::new();
    for _ in 0..g.below(3) {
        if g.chance(30) {
            lines.push(g.pick(&["", " ", "\t", "  \t "]).to_string());
        }
    }
    lines.push(names.join(&sep.to_string()));
    for row in 0..n_rows {
        if g.chance(8) {
            lines.push(
                g.pick(&["", " ", "\t", "  ", "\u{3000}", "\u{a0} "])
                    .to_string(),
            );
        }
        let mut width = n_cols;
        if bad_rows && g.chance(8) {
            width = if g.chance(50) {
                n_cols + 1
            } else {
                n_cols.saturating_sub(1)
            };
        }
        let cells: Vec<String> = (0..width)
            .map(|j| {
                let profile = profiles.get(j).copied().unwrap_or(Profile::Mixed);
                let cell = match profile {
                    Profile::Numeric => numeric_cell(&mut g, 2),
                    Profile::Dirty => numeric_cell(&mut g, 30),
                    Profile::Text => text_cell(&mut g),
                    Profile::LateFlip { at } if row < at => numeric_cell(&mut g, 15),
                    Profile::LateFlip { .. } => text_cell(&mut g),
                    Profile::ManyLevels { levels } => many_level(g.below(levels)),
                    Profile::Mixed => match g.below(3) {
                        0 => text_cell(&mut g),
                        _ => numeric_cell(&mut g, 10),
                    },
                };
                dress(&mut g, cell, sep, bad_rows)
            })
            .collect();
        lines.push(cells.join(&sep.to_string()));
    }
    let mut text = String::new();
    for line in &lines {
        text.push_str(line);
        text.push_str(if g.chance(20) { "\r\n" } else { "\n" });
    }
    if g.chance(20) {
        text.pop();
    }
    let options = CsvOptions {
        separator: sep,
        force_categorical,
        quarantine_malformed_rows: g.chance(50),
    };
    (text, options)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Generated CSV text reads the same through both readers, under both
    /// quarantine policies.
    #[test]
    fn streaming_reader_matches_the_oracle(seed in any::<u64>()) {
        let (text, mut options) = generate(seed);
        for quarantine in [options.quarantine_malformed_rows, !options.quarantine_malformed_rows] {
            options.quarantine_malformed_rows = quarantine;
            if let Err(why) = agree(&text, &options) {
                prop_assert!(false, "{why}\n  options: {options:?}\n  text: {text:?}");
            }
        }
    }

    /// Frames the writer renders (any mix of nulls, quoting hazards and
    /// separators) read back the same through both readers.
    #[test]
    fn written_frames_match_the_oracle(
        rows in proptest::collection::vec(
            (
                proptest::option::of(-1e6f64..1e6),
                proptest::option::of("[a-z,;\"\\- ]{0,6}"),
            ),
            0..30,
        ),
        sep in prop_oneof![Just(','), Just(';'), Just('-')],
    ) {
        let mut b = DataFrameBuilder::new();
        b.add_continuous("x").unwrap();
        b.add_categorical("s").unwrap();
        for (num, cat) in &rows {
            b.push_row(vec![
                num.map_or(Value::Null, Value::Num),
                cat.clone().map_or(Value::Null, Value::Cat),
            ])
            .unwrap();
        }
        let text = write_csv_string(&b.finish(), sep);
        let options = CsvOptions { separator: sep, ..CsvOptions::default() };
        if let Err(why) = agree(&text, &options) {
            prop_assert!(false, "{why}\n  text: {text:?}");
        }
    }
}

/// The text of every categorical cell the reader keeps, as the oracle's
/// splitter cuts it: both readers intern through `CategoricalColumn`, so
/// this is the check that does not trust its level lookup. `None` when the
/// text does not read.
fn categorical_cells_as_text(text: &str, options: &CsvOptions) -> Option<Vec<Vec<Option<String>>>> {
    let (df, _) = read_csv_str_with_quality(text, options).ok()?;
    let mut cells = vec![Vec::new(); df.n_attributes()];
    for (id, _) in df.schema().iter() {
        if let Column::Categorical(column) = df.column(id) {
            cells[id.index()] = (0..df.n_rows())
                .map(|r| column.get(r).map(str::to_string))
                .collect();
        }
    }
    Some(cells)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every categorical cell reads back as its trimmed, unquoted text,
    /// however many levels its column has and however they collide in the
    /// slot table's key.
    #[test]
    fn categorical_cells_read_back_as_their_text(seed in any::<u64>()) {
        let (text, mut options) = generate(seed);
        options.quarantine_malformed_rows = true;
        let Some(ours) = categorical_cells_as_text(&text, &options) else {
            return Ok(());
        };
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().unwrap_or_default();
        let n_cols = oracle::split_record(header, options.separator).map_or(0, |f| f.len());
        let records: Vec<Vec<String>> = lines
            .filter_map(|line| oracle::split_record(line, options.separator).ok())
            .filter(|fields| fields.len() == n_cols)
            .collect();
        for (j, column) in ours.iter().enumerate() {
            if column.is_empty() {
                continue;
            }
            let want: Vec<Option<String>> = records
                .iter()
                .map(|record| {
                    let cell = record[j].trim();
                    (!cell.is_empty()).then(|| cell.to_string())
                })
                .collect();
            prop_assert_eq!(column, &want, "column {}, text {:?}", j, text);
        }
    }
}

/// The generated datasets, as exported and with nulls injected.
#[test]
fn generated_datasets_match_the_oracle() {
    for dataset in [
        compas(2_000, 3),
        folktables(3_000, 3),
        synthetic_peak(3_000, 3),
    ] {
        let with_nulls = inject_nulls(&dataset.frame, 0.05, 3).unwrap();
        for frame in [&dataset.frame, &with_nulls] {
            let text = write_csv_string(frame, ',');
            for options in [
                CsvOptions::default(),
                CsvOptions {
                    force_categorical: vec!["age".to_string()],
                    quarantine_malformed_rows: true,
                    ..CsvOptions::default()
                },
            ] {
                if let Err(why) = agree(&text, &options) {
                    panic!("{}: {why}", dataset.name);
                }
            }
        }
    }
}

/// The cases the reader's semantics hinge on, spelled out.
#[test]
fn edge_cases_match_the_oracle() {
    let cases = [
        "",
        "\n \n\t\n",
        "a,b\n",
        "\n\na,b\n1,2\n",
        "a,a\n1,2\n",
        "a,a\n1\n",
        "a,a\n\"x\n",
        "x\n1\n\"\"\n2\n",
        "x,y\r\n1, 2 \r\n\r\n 3 ,\"4\"\r\n",
        "x,y\n1,NaN\n2,inf\n3,-inf\n4,oops\n",
        "x,y\nNaN,1\n-inf,2\nz,3\n",
        "x,y\ninf,1\n1,NaN\n",
        "n\n\"a,b\"\n\"say \"\"hi\"\"\"\n\"ab\"cd\n",
        "n\na\"b\n",
        "n\n\"open\n",
        "n\n\"a\"b\"c\n",
        "n\n \"a\"\n",
        "\"a,b\",c\n1,2\n",
        "\"a\nb\"\n1\n",
        "a,b\n1,2\n3\n4,5,6\n7,8\n",
        "a;b\n1;x\n\"2;3\";y\n",
        "a€b\n1€2\n…€3€\n",
    ];
    for text in cases {
        for quarantine_malformed_rows in [false, true] {
            let options = CsvOptions {
                quarantine_malformed_rows,
                separator: if text.contains('€') {
                    '€'
                } else if text.contains(';') {
                    ';'
                } else {
                    ','
                },
                ..CsvOptions::default()
            };
            if let Err(why) = agree(text, &options) {
                panic!("{text:?} (quarantine {quarantine_malformed_rows}): {why}");
            }
        }
    }
}

/// The text of a raw field from [`split_record`], which leaves the quotes
/// in: a quoted field without its quotes, `""` read as `"`, followed by any
/// text after the closing quote. The oracle's splitter returns fields in
/// this form.
fn unquote(raw: &str) -> String {
    let Some(body) = raw.strip_prefix('"') else {
        return raw.to_string();
    };
    let mut text = String::new();
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '"' {
            text.push(c);
        } else if chars.clone().next() == Some('"') {
            chars.next();
            text.push('"');
        } else {
            text.extend(chars);
            break;
        }
    }
    text
}

/// Separators, quotes and doubled quotes at every byte offset 0..=17 of a
/// line, so inside and across each of the 8-byte words the splitter scans
/// at once, split exactly as the oracle splits them: field for field, and
/// error for error. Every pair of offsets is tried, so quoted fields open
/// and close in every word position. The `…` filler shares its lead byte
/// with the `€` separator.
#[test]
fn splitter_matches_the_oracle_at_every_word_offset() {
    const FILLERS: [&str; 2] = ["abcdefghijklmnopqrstuvwxyz", "a…b…c…d…e…f…g…h…i…"];
    let mut lines = 0;
    for sep in [',', ';', '\t', '€'] {
        let tokens = [
            sep.to_string(),
            "\"".to_string(),
            "\"\"".to_string(),
            format!("{sep}\""),
            format!("\"{sep}"),
        ];
        for filler in FILLERS {
            for first in 0..=17 {
                for second in first..=17 {
                    if !filler.is_char_boundary(first) || !filler.is_char_boundary(second) {
                        continue;
                    }
                    for a in &tokens {
                        for b in &tokens {
                            // `a` starts at byte `first`, `b` at byte
                            // `second` plus the length of `a`.
                            let line = format!(
                                "{}{a}{}{b}{}",
                                &filler[..first],
                                &filler[first..second],
                                &filler[second..]
                            );
                            let mut fields = [""; 16];
                            let ours = split_record(&line, sep, &mut fields)
                                .map(|n| fields[..n].iter().map(|f| unquote(f)).collect())
                                .map_err(str::to_string);
                            let theirs: Result<Vec<String>, String> =
                                oracle::split_record(&line, sep);
                            assert_eq!(ours, theirs, "separator {sep:?}, line {line:?}");
                            lines += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(lines > 10_000, "only {lines} lines were split");
}

/// Separators, quotes, line feeds and carriage returns at every byte offset
/// 0..=140 of a whole file, so at every position of the first three
/// 64-byte blocks the reader scans (the header included), alone and in
/// pairs 1 and 8 bytes apart: both readers agree on every file, under both
/// quarantine policies. The `€` separator takes the reader's multi-byte
/// path.
#[test]
fn reader_matches_the_oracle_at_every_block_offset() {
    let mut files = 0;
    for sep in [',', '€'] {
        let base = format!("x{sep}y\n{}", format!("7{sep}ab\n").repeat(30));
        let tokens = [
            sep.to_string(),
            "\"".to_string(),
            "\"\"".to_string(),
            "\n".to_string(),
            "\r\n".to_string(),
            "\r".to_string(),
        ];
        for at in (0..=140).filter(|&at| base.is_char_boundary(at)) {
            for a in &tokens {
                let mut one = base.clone();
                one.insert_str(at, a);
                let mut texts = vec![one.clone()];
                for gap in [1, 8] {
                    let to = at + a.len() + gap;
                    if !one.is_char_boundary(to) {
                        continue;
                    }
                    for b in &tokens {
                        let mut two = one.clone();
                        two.insert_str(to, b);
                        texts.push(two);
                    }
                }
                for text in &texts {
                    for quarantine_malformed_rows in [true, false] {
                        let options = CsvOptions {
                            separator: sep,
                            quarantine_malformed_rows,
                            ..CsvOptions::default()
                        };
                        if let Err(why) = agree(text, &options) {
                            panic!("{text:?} (quarantine {quarantine_malformed_rows}): {why}");
                        }
                    }
                    files += 1;
                }
            }
        }
    }
    assert!(files > 10_000, "only {files} files were read");
}

/// A numeric column that turns categorical re-reads its earlier cells from
/// the text. That re-read must skip what the reader skipped: blank and
/// whitespace-only lines, and the ragged or badly quoted lines it
/// quarantined. The first text cell is tried at every position.
#[test]
fn a_late_flip_rereads_past_blank_and_quarantined_lines() {
    let rows = [
        "1,a", "", " 2 ,b", "  \t ", "3", "\"4,c", "\"5\",d", "6,7,8", "\t", "\"\",e", "9,f",
    ];
    for at in 0..=rows.len() {
        let mut lines = rows.to_vec();
        lines.insert(at, "six,g");
        let text = format!("x,y\n{}\n", lines.join("\n"));
        for quarantine_malformed_rows in [true, false] {
            let options = CsvOptions {
                quarantine_malformed_rows,
                ..CsvOptions::default()
            };
            if let Err(why) = agree(&text, &options) {
                panic!("{text:?} (quarantine {quarantine_malformed_rows}): {why}");
            }
        }
    }
    // Spelled out for the flip on the last row.
    let text = format!("x,y\n{}\nsix,g\n", rows.join("\n"));
    let options = CsvOptions {
        quarantine_malformed_rows: true,
        ..CsvOptions::default()
    };
    let (df, quality) = read_csv_str_with_quality(&text, &options).unwrap();
    let x = df.schema().id("x").unwrap();
    assert_eq!(df.schema().kind(x), AttributeKind::Categorical);
    let column = df.categorical(x);
    let cells: Vec<Option<&str>> = (0..df.n_rows()).map(|r| column.get(r)).collect();
    assert_eq!(
        cells,
        [
            Some("1"),
            Some("2"),
            Some("5"),
            None,
            Some("9"),
            Some("six")
        ]
    );
    assert_eq!(quality.rows_quarantined, 3);
    assert_eq!(quality.quarantined_lines, [6, 7, 9]);
}
