//! Minimal CSV reader/writer with type inference.
//!
//! Supports the subset of RFC 4180 the experiment harness needs: a header
//! row, comma (or custom) separators, double-quote quoting with `""` escapes,
//! and empty cells as nulls. Columns where every non-empty cell parses as a
//! number are inferred continuous; everything else is categorical.
//!
//! The reader makes one streaming pass over the text (DESIGN.md §12.6):
//! each record is split into borrowed fields ([`split_record`]) and every
//! cell goes straight into its typed column. A column starts numeric and
//! turns categorical at its first non-numeric cell, when its earlier cells
//! are re-read from the text.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use hdx_governor::fail_point;

use crate::column::{CategoricalColumn, Column, ContinuousColumn};
use crate::error::DataError;
use crate::frame::DataFrame;
use crate::quality::DataQualityReport;
use crate::schema::{Attribute, AttributeKind, Schema};

/// Options controlling CSV parsing.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field separator (default `,`).
    pub separator: char,
    /// Attribute names to force categorical even when numeric-looking
    /// (e.g. zip codes).
    pub force_categorical: Vec<String>,
    /// Drop malformed rows (ragged, bad quoting) into the quality report
    /// instead of failing the whole load (default `false`: reject the file).
    pub quarantine_malformed_rows: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        Self {
            separator: ',',
            force_categorical: Vec::new(),
            quarantine_malformed_rows: false,
        }
    }
}

/// Splits one CSV record (a line without its terminator) into raw fields,
/// honouring double quotes.
///
/// Stores the first `fields.len()` raw fields in `fields` and returns how
/// many fields the record holds, which may be more or fewer than
/// `fields.len()`; pass an empty slice to count and validate only. A raw
/// field borrows `line` as written, quotes included.
///
/// A field that starts with `"` is quoted: it runs to the next `"` not
/// doubled, and may hold the separator. A quote anywhere else is an error,
/// as is a quoted field left open at the end of the line (quoted line
/// breaks are not supported).
///
/// # Errors
/// `"quote in the middle of an unquoted field"` or
/// `"unterminated quoted field"`.
pub fn split_record<'a>(
    line: &'a str,
    separator: char,
    fields: &mut [&'a str],
) -> Result<usize, &'static str> {
    let mut sep_buf = [0u8; 4];
    let sep = separator.encode_utf8(&mut sep_buf).as_bytes();
    let lead = sep.first().copied().unwrap_or_default();
    let bytes = line.as_bytes();
    let mut count = 0;
    let mut start = 0;
    loop {
        let mut at = start;
        if bytes.get(at) == Some(&b'"') {
            at = closing_quote(bytes, at + 1).ok_or("unterminated quoted field")? + 1;
        }
        // Up to the separator the field holds no quote: a `"` here follows
        // unquoted text or the closing quote plus more text.
        let end = loop {
            let Some(k) = bytes
                .get(at..)
                .and_then(|rest| find_either(rest, b'"', lead))
            else {
                break None;
            };
            let k = at + k;
            if bytes.get(k) == Some(&b'"') {
                return Err("quote in the middle of an unquoted field");
            }
            // A one-byte separator is its lead byte; a longer one must
            // match in full (its lead byte also starts other characters).
            if sep.len() == 1 || bytes.get(k..).is_some_and(|rest| rest.starts_with(sep)) {
                break Some(k);
            }
            at = k + 1;
        };
        if let Some(slot) = fields.get_mut(count) {
            *slot = line
                .get(start..end.unwrap_or(bytes.len()))
                .unwrap_or_default();
        }
        count += 1;
        match end {
            Some(k) => start = k + sep.len(),
            None => return Ok(count),
        }
    }
}

/// Index of the quote closing a quoted field whose text starts at `from`:
/// the first `"` not doubled. `None` when the field never closes.
fn closing_quote(bytes: &[u8], mut from: usize) -> Option<usize> {
    loop {
        let q = from + find_either(bytes.get(from..)?, b'"', b'"')?;
        if bytes.get(q + 1) != Some(&b'"') {
            return Some(q);
        }
        from = q + 2;
    }
}

/// Index of the first byte of `bytes` that is `a` or `b`, found eight bytes
/// at a time.
///
/// Each word is read as a little-endian `u64` and XORed with `a` (and `b`)
/// broadcast to every byte, which zeroes exactly the matching bytes; then
/// `(x - 0x01…01) & !x & 0x80…80` flags the zero bytes of `x`. A flag can
/// be spurious only above a real zero byte (a borrow runs upwards), so the
/// lowest flag of either comparison marks the first match. The last,
/// partial word is zero-padded, and a match in the padding is no match.
fn find_either(bytes: &[u8], a: u8, b: u8) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    let (fill_a, fill_b) = (ONES * u64::from(a), ONES * u64::from(b));
    let first_match = |word: [u8; 8]| {
        let word = u64::from_le_bytes(word);
        let (x, y) = (word ^ fill_a, word ^ fill_b);
        let flags = (x.wrapping_sub(ONES) & !x | y.wrapping_sub(ONES) & !y) & HIGHS;
        (flags != 0).then_some(flags.trailing_zeros() as usize / 8)
    };
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for chunk in &mut words {
        let mut word = [0; 8];
        word.copy_from_slice(chunk);
        if let Some(k) = first_match(word) {
            return Some(at + k);
        }
        at += 8;
    }
    let tail = words.remainder();
    let mut word = [0; 8];
    for (byte, &t) in word.iter_mut().zip(tail) {
        *byte = t;
    }
    first_match(word)
        .filter(|&k| k < tail.len())
        .map(|k| at + k)
}

/// The text of a raw field from [`split_record`]: an unquoted field as it
/// is; a quoted one without its quotes, `""` read as `"`, followed by any
/// text after the closing quote.
///
/// Borrows `raw` unless the field holds a doubled quote or text after its
/// closing quote; only then is it copied, into `scratch`.
pub(crate) fn unquote_field<'f>(raw: &'f str, scratch: &'f mut String) -> &'f str {
    let Some(body) = raw.strip_prefix('"') else {
        return raw;
    };
    if let Some(inner) = body.strip_suffix('"') {
        if !inner.contains('"') {
            return inner;
        }
    }
    scratch.clear();
    let mut rest = body;
    while let Some(q) = rest.find('"') {
        let (text, quote) = rest.split_at(q);
        scratch.push_str(text);
        rest = quote.get(1..).unwrap_or_default();
        match rest.strip_prefix('"') {
            Some(after) => {
                // ALLOC: the quoted-field copy — an unescaped `""` needs a
                // buffer of its own (`scratch`, reused across fields).
                scratch.push('"');
                rest = after;
            }
            None => break,
        }
    }
    scratch.push_str(rest);
    scratch
}

/// Writes `field` to `out`, quoted when it holds the separator, a quote or
/// a line break.
fn push_field(out: &mut String, field: &str, sep: char) {
    if field.contains(sep) || field.contains('"') || field.contains('\n') {
        out.push('"');
        out.push_str(&field.replace('"', "\"\""));
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Ends the record that starts at byte `start` of `out`. A record whose
/// line would be blank (say one empty field) gets a leading `""`: the
/// reader skips blank lines, so the record would be lost.
fn end_record(out: &mut String, start: usize) {
    if out.get(start..).is_some_and(|line| line.trim().is_empty()) {
        out.insert_str(start, "\"\"");
    }
    out.push('\n');
}

/// Parses CSV text into a [`DataFrame`] with type inference.
///
/// Convenience wrapper over [`read_csv_str_with_quality`] that discards the
/// quality report.
///
/// # Errors
/// Returns [`DataError::Csv`] on malformed input (ragged rows, bad quoting,
/// missing header).
pub fn read_csv_str(text: &str, options: &CsvOptions) -> Result<DataFrame, DataError> {
    read_csv_str_with_quality(text, options).map(|(df, _)| df)
}

/// Parses CSV text into a [`DataFrame`] plus the [`DataQualityReport`] of
/// what ingestion quarantined.
///
/// Hardening semantics:
/// * numeric cells that parse to `NaN`/`±inf` are stored as null and counted
///   per column — a single `inf` would otherwise make every downstream mean
///   infinite;
/// * with [`CsvOptions::quarantine_malformed_rows`] set, ragged or badly
///   quoted rows are dropped and counted instead of failing the load.
///
/// # Errors
/// Returns [`DataError::Csv`] on malformed input the options do not allow
/// quarantining (and always on a missing/unparseable header).
pub fn read_csv_str_with_quality(
    text: &str,
    options: &CsvOptions,
) -> Result<(DataFrame, DataQualityReport), DataError> {
    fail_point!("data::csv-read", |message: String| DataError::Csv {
        line: 0,
        message,
    });
    let sep = options.separator;
    let mut quality = DataQualityReport::default();
    // A UTF-8 byte-order mark is not part of the first column's name.
    let text = text.strip_prefix('\u{feff}').unwrap_or(text);
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines.next().ok_or(DataError::Csv {
        line: 1,
        message: "missing header row".to_string(),
    })?;
    let header_error = |message: &str| DataError::Csv {
        line: 1,
        message: message.to_string(),
    };
    let n_cols = split_record(header, sep, &mut []).map_err(header_error)?;
    let mut fields = vec![""; n_cols];
    split_record(header, sep, &mut fields).map_err(header_error)?;
    let mut scratch = String::new();
    let names: Vec<String> = fields
        .iter()
        .map(|f| unquote_field(f, &mut scratch).to_string())
        .collect();

    // Every column starts numeric unless forced categorical. Note
    // `NaN`/`inf` *do* parse, so a dirty numeric column stays numeric and
    // its bad cells are quarantined rather than silently flipping the
    // whole column categorical.
    let mut columns: Vec<Column> = names
        .iter()
        .map(|name| {
            if options.force_categorical.contains(name) {
                Column::Categorical(CategoricalColumn::new())
            } else {
                Column::Continuous(ContinuousColumn::new())
            }
        })
        .collect();
    // `lines` stays at the first data line: a column that turns
    // categorical re-reads its earlier cells from there.
    for (idx, line) in lines.clone() {
        let malformed = match split_record(line, sep, &mut fields) {
            Ok(n) if n == n_cols => None,
            Ok(n) => Some(format!("expected {n_cols} fields, found {n}")),
            Err(message) => Some(message.to_string()),
        };
        if let Some(message) = malformed {
            if options.quarantine_malformed_rows {
                quality.count_row(idx + 1);
                continue;
            }
            return Err(DataError::Csv {
                line: idx + 1,
                message,
            });
        }
        for (j, (field, column)) in fields.iter().zip(&mut columns).enumerate() {
            let cell = unquote_field(field, &mut scratch).trim();
            match column {
                Column::Continuous(values) if cell.is_empty() => values.push_null(),
                Column::Continuous(values) => match cell.parse::<f64>() {
                    Ok(v) if v.is_finite() => values.push(v),
                    Ok(_) => {
                        values.push_null();
                        quality.count_cell(&names[j], false);
                    }
                    Err(_) => {
                        let earlier = lines.clone().take_while(|&(i, _)| i < idx);
                        let earlier = earlier.map(|(_, line)| line);
                        let mut levels = reread_categorical(earlier, sep, n_cols, j);
                        levels.push(cell);
                        quality.columns.retain(|c| c.name != names[j]);
                        *column = Column::Categorical(levels);
                    }
                },
                Column::Categorical(levels) if cell.is_empty() => levels.push_null(),
                Column::Categorical(levels) => levels.push(cell),
            }
        }
    }

    let mut schema = Schema::new();
    for (name, column) in names.into_iter().zip(&columns) {
        let kind = match column {
            Column::Categorical(_) => AttributeKind::Categorical,
            Column::Continuous(_) => AttributeKind::Continuous,
        };
        schema.push(Attribute::new(name, kind))?;
    }
    let frame = DataFrame::from_columns(schema, columns)?;
    hdx_obs::counter_add!(DataCellsQuarantined, quality.cells_quarantined());
    hdx_obs::counter_add!(DataRowsQuarantined, quality.rows_quarantined);
    Ok((frame, quality))
}

/// Field `j` of the rows of `lines`, as a categorical column: the cells of
/// a numeric column that has just met its first non-numeric cell.
///
/// `lines` are the non-blank data lines read so far. A line that does not
/// split into `n_cols` fields is one the reader quarantined, and is skipped
/// as the reader skipped it.
fn reread_categorical<'a>(
    lines: impl Iterator<Item = &'a str>,
    sep: char,
    n_cols: usize,
    j: usize,
) -> CategoricalColumn {
    let mut fields = vec![""; j + 1];
    let mut scratch = String::new();
    let mut levels = CategoricalColumn::new();
    for line in lines {
        if split_record(line, sep, &mut fields) != Ok(n_cols) {
            continue;
        }
        let cell = unquote_field(fields[j], &mut scratch).trim();
        if cell.is_empty() {
            levels.push_null();
        } else {
            levels.push(cell);
        }
    }
    levels
}

/// Reads a CSV file into a [`DataFrame`].
///
/// # Errors
/// I/O failures and parse errors.
pub fn read_csv(path: impl AsRef<Path>, options: &CsvOptions) -> Result<DataFrame, DataError> {
    read_csv_with_quality(path, options).map(|(df, _)| df)
}

/// Reads a CSV file into a [`DataFrame`] plus its [`DataQualityReport`]
/// (see [`read_csv_str_with_quality`]).
///
/// # Errors
/// I/O failures and parse errors.
pub fn read_csv_with_quality(
    path: impl AsRef<Path>,
    options: &CsvOptions,
) -> Result<(DataFrame, DataQualityReport), DataError> {
    let mut text = String::new();
    BufReader::new(File::open(path)?).read_to_string(&mut text)?;
    read_csv_str_with_quality(&text, options)
}

/// Serialises a [`DataFrame`] to CSV text.
pub fn write_csv_string(df: &DataFrame, separator: char) -> String {
    use std::fmt::Write as _;
    if df.n_attributes() == 0 {
        // No fields, hence no rows: an empty header line.
        return "\n".to_string();
    }
    let mut out = String::new();
    for (id, attr) in df.schema().iter() {
        if id.index() > 0 {
            out.push(separator);
        }
        push_field(&mut out, attr.name(), separator);
    }
    end_record(&mut out, 0);
    let mut number = String::new();
    for row in 0..df.n_rows() {
        let start = out.len();
        for (id, _) in df.schema().iter() {
            if id.index() > 0 {
                out.push(separator);
            }
            match df.column(id) {
                Column::Categorical(c) => push_field(&mut out, c.get(row).unwrap_or(""), separator),
                Column::Continuous(c) => {
                    if let Some(x) = c.get(row) {
                        number.clear();
                        // Writing to a `String` cannot fail.
                        let _ = write!(number, "{x}");
                        push_field(&mut out, &number, separator);
                    }
                }
            }
        }
        end_record(&mut out, start);
    }
    out
}

/// Writes a [`DataFrame`] as CSV to `path`.
///
/// # Errors
/// I/O failures.
pub fn write_csv(df: &DataFrame, path: impl AsRef<Path>) -> Result<(), DataError> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(write_csv_string(df, ',').as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttributeKind;

    #[test]
    fn infers_kinds() {
        let df = read_csv_str(
            "age,sex,score\n31,M,0.5\n47,F,0.9\n",
            &CsvOptions::default(),
        )
        .unwrap();
        let s = df.schema();
        assert_eq!(s.kind(s.id("age").unwrap()), AttributeKind::Continuous);
        assert_eq!(s.kind(s.id("sex").unwrap()), AttributeKind::Categorical);
        assert_eq!(s.kind(s.id("score").unwrap()), AttributeKind::Continuous);
        assert_eq!(df.n_rows(), 2);
    }

    #[test]
    fn empty_cells_become_null() {
        let df = read_csv_str("a,b\n1,\n,x\n", &CsvOptions::default()).unwrap();
        let a = df.schema().id("a").unwrap();
        let b = df.schema().id("b").unwrap();
        assert_eq!(df.continuous(a).get(1), None);
        assert_eq!(df.categorical(b).get(0), None);
    }

    #[test]
    fn force_categorical_overrides_inference() {
        let opts = CsvOptions {
            force_categorical: vec!["zip".to_string()],
            ..CsvOptions::default()
        };
        let df = read_csv_str("zip,x\n90210,1\n10001,2\n", &opts).unwrap();
        let zip = df.schema().id("zip").unwrap();
        assert_eq!(df.schema().kind(zip), AttributeKind::Categorical);
        assert_eq!(df.categorical(zip).get(0), Some("90210"));
    }

    #[test]
    fn quoted_fields_roundtrip() {
        let df = read_csv_str(
            "name,v\n\"a,b\",1\n\"say \"\"hi\"\"\",2\n",
            &CsvOptions::default(),
        )
        .unwrap();
        let name = df.schema().id("name").unwrap();
        assert_eq!(df.categorical(name).get(0), Some("a,b"));
        assert_eq!(df.categorical(name).get(1), Some("say \"hi\""));

        let text = write_csv_string(&df, ',');
        let df2 = read_csv_str(&text, &CsvOptions::default()).unwrap();
        assert_eq!(df2.categorical(name).get(0), Some("a,b"));
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = read_csv_str("a,b\n1\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::Csv { line: 2, .. }));
    }

    #[test]
    fn non_finite_cells_are_quarantined_to_null() {
        // NaN and ±inf parse as f64, so `x` stays continuous — but the dirty
        // cells must become nulls, not poison every downstream mean.
        let dirty = "x,g\n1.0,a\nNaN,b\ninf,a\n-inf,b\n2.0,a\n";
        let (df, quality) = read_csv_str_with_quality(dirty, &CsvOptions::default()).unwrap();
        let x = df.schema().id("x").unwrap();
        assert_eq!(df.schema().kind(x), AttributeKind::Continuous);
        assert_eq!(df.n_rows(), 5);
        assert_eq!(df.continuous(x).get(0), Some(1.0));
        assert_eq!(df.continuous(x).get(1), None);
        assert_eq!(df.continuous(x).get(2), None);
        assert_eq!(df.continuous(x).get(3), None);
        assert_eq!(df.continuous(x).get(4), Some(2.0));
        assert!(df.continuous(x).values().iter().all(|v| !v.is_infinite()));
        assert_eq!(quality.cells_quarantined(), 3);
        assert_eq!(quality.columns.len(), 1);
        assert_eq!(quality.columns[0].name, "x");
        assert_eq!(quality.columns[0].non_finite, 3);
        assert_eq!(quality.rows_quarantined, 0);
        assert!(quality.summary().unwrap().contains("3×x"));
    }

    #[test]
    fn clean_input_yields_a_clean_report() {
        let (_, quality) =
            read_csv_str_with_quality("a,b\n1,x\n2,y\n", &CsvOptions::default()).unwrap();
        assert!(quality.is_clean());
    }

    #[test]
    fn malformed_rows_quarantined_when_opted_in() {
        let opts = CsvOptions {
            quarantine_malformed_rows: true,
            ..CsvOptions::default()
        };
        // Line 3 is ragged, line 5 has a stray quote; both drop.
        let dirty = "a,b\n1,x\n2\n3,y\nbad\"quote,z\n4,w\n";
        let (df, quality) = read_csv_str_with_quality(dirty, &opts).unwrap();
        assert_eq!(df.n_rows(), 3);
        assert_eq!(quality.rows_quarantined, 2);
        assert_eq!(quality.quarantined_lines, vec![3, 5]);
        // The same file still fails hard under the default policy.
        assert!(read_csv_str(dirty, &CsvOptions::default()).is_err());
    }

    #[test]
    fn quarantined_rows_do_not_skew_inference() {
        let opts = CsvOptions {
            quarantine_malformed_rows: true,
            ..CsvOptions::default()
        };
        // The ragged row's lone field `oops` must not flip `a` categorical.
        let (df, quality) = read_csv_str_with_quality("a,b\n1,x\noops\n2,y\n", &opts).unwrap();
        let a = df.schema().id("a").unwrap();
        assert_eq!(df.schema().kind(a), AttributeKind::Continuous);
        assert_eq!(quality.rows_quarantined, 1);
    }

    #[test]
    fn bad_quote_rejected() {
        assert!(read_csv_str("a\nx\"y\n", &CsvOptions::default()).is_err());
        assert!(read_csv_str("a\n\"unterminated\n", &CsvOptions::default()).is_err());
    }

    #[test]
    fn missing_header_rejected() {
        assert!(read_csv_str("", &CsvOptions::default()).is_err());
        assert!(read_csv_str("\n\n", &CsvOptions::default()).is_err());
    }

    #[test]
    fn roundtrip_preserves_values() {
        let src = "age,sex\n31,M\n47,F\n,\n";
        let df = read_csv_str(src, &CsvOptions::default()).unwrap();
        let text = write_csv_string(&df, ',');
        let df2 = read_csv_str(&text, &CsvOptions::default()).unwrap();
        assert_eq!(df, df2);
    }

    #[test]
    fn split_record_borrows_fields_and_counts_past_the_slots() {
        let line = r#"a,"b,c",,"say ""hi""","x"y"#;
        let mut fields = [""; 3];
        assert_eq!(split_record(line, ',', &mut fields), Ok(5));
        assert_eq!(fields, ["a", "\"b,c\"", ""]);
        assert_eq!(split_record(line, ',', &mut []), Ok(5));
        let mut scratch = String::new();
        assert_eq!(unquote_field("\"b,c\"", &mut scratch), "b,c");
        assert_eq!(
            unquote_field(r#""say ""hi""""#, &mut scratch),
            r#"say "hi""#
        );
        assert_eq!(unquote_field(r#""x"y"#, &mut scratch), "xy");
        assert_eq!(unquote_field("\"\"", &mut scratch), "");
        assert_eq!(split_record("", ',', &mut []), Ok(1));
        assert_eq!(split_record("a€b€", '€', &mut []), Ok(3));
    }

    #[test]
    fn split_record_rejects_bad_quoting() {
        for line in ["a\"b", " \"a\"", "\"a\"b\"c"] {
            assert_eq!(
                split_record(line, ',', &mut []),
                Err("quote in the middle of an unquoted field"),
                "{line}"
            );
        }
        for line in ["\"open", "\"a\"\"", "x,\"a,b"] {
            assert_eq!(
                split_record(line, ',', &mut []),
                Err("unterminated quoted field"),
                "{line}"
            );
        }
    }

    #[test]
    fn late_text_cell_turns_a_column_categorical() {
        let text = "x,y\n1,NaN\n,1\n 2.50 ,inf\nabc,2\n1,3\n";
        let (df, quality) = read_csv_str_with_quality(text, &CsvOptions::default()).unwrap();
        let x = df.schema().id("x").unwrap();
        assert_eq!(df.schema().kind(x), AttributeKind::Categorical);
        let col = df.categorical(x);
        assert_eq!(col.levels(), ["1", "2.50", "abc"]);
        assert_eq!(
            (0..5).map(|r| col.get(r)).collect::<Vec<_>>(),
            [Some("1"), None, Some("2.50"), Some("abc"), Some("1")]
        );
        // `y` stays numeric with its two non-finite cells counted.
        assert_eq!(quality.columns.len(), 1);
        assert_eq!(quality.columns[0].name, "y");
        assert_eq!(quality.columns[0].non_finite, 2);
    }

    #[test]
    fn a_byte_order_mark_is_not_part_of_the_header() {
        let (df, quality) =
            read_csv_str_with_quality("\u{feff}age,sex\n31,M\n", &CsvOptions::default()).unwrap();
        let age = df.schema().id("age").expect("the first column is `age`");
        assert_eq!(df.schema().kind(age), AttributeKind::Continuous);
        assert_eq!(df.continuous(age).get(0), Some(31.0));
        assert!(quality.is_clean());
        // Only a leading mark is stripped: one inside a cell is text.
        let df = read_csv_str("a\n\u{feff}1\n", &CsvOptions::default()).unwrap();
        let a = df.schema().id("a").unwrap();
        assert_eq!(df.categorical(a).get(0), Some("\u{feff}1"));
    }

    #[test]
    fn find_either_agrees_with_a_byte_scan() {
        let text = "ab\"cd,ef€gh\"\"ij;kl\tmn…op,qr\"\0";
        for start in 0..text.len() {
            for end in start..=text.len() {
                let bytes = &text.as_bytes()[start..end];
                for (a, b) in [(b'"', b','), (b'"', b'"'), (b'"', 0xe2), (b';', 0)] {
                    assert_eq!(
                        find_either(bytes, a, b),
                        bytes.iter().position(|&x| x == a || x == b),
                        "{start}..{end} {a} {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn custom_separator() {
        let opts = CsvOptions {
            separator: ';',
            ..CsvOptions::default()
        };
        let df = read_csv_str("a;b\n1;x\n", &opts).unwrap();
        assert_eq!(df.n_rows(), 1);
        assert_eq!(df.n_attributes(), 2);
    }
}
