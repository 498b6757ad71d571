//! Minimal CSV reader/writer with type inference.
//!
//! Supports the subset of RFC 4180 the experiment harness needs: a header
//! row, comma (or custom) separators, double-quote quoting with `""` escapes,
//! and empty cells as nulls. Columns where every non-empty cell parses as a
//! number are inferred continuous; everything else is categorical.
//!
//! The reader makes one streaming pass over the text (DESIGN.md §12.6):
//! one scan finds line feeds, quotes and separators together, a quote-free
//! record is cut into borrowed fields as they come (a quoted one goes
//! through [`split_record`]), and every cell goes straight into its typed
//! column. A column starts numeric and turns categorical at its first
//! non-numeric cell, when its earlier cells are re-read from the text.

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
    /// Field separator (default `,`). A quote or a line break is refused.
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

/// Whether `c` is CSV syntax, a quote or a line break, and so cannot be the
/// field separator.
pub fn is_csv_syntax(c: char) -> bool {
    matches!(c, '"' | '\n' | '\r')
}

/// The separator a text option names: its one character, or `None` when it
/// holds none or several.
pub fn separator_char(raw: &str) -> Option<char> {
    let mut chars = raw.chars();
    chars.next().filter(|_| chars.next().is_none())
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
    // Every `"` and separator lead byte of the line, in order.
    let mut scan = Scan::new(bytes, [b'"', lead, lead]);
    let mut count = 0;
    let mut start = 0;
    loop {
        if bytes.get(start) == Some(&b'"') {
            closing_quote(&mut scan, bytes).ok_or("unterminated quoted field")?;
        }
        // Up to the separator the field holds no quote: a `"` here follows
        // unquoted text or the closing quote plus more text.
        let end = loop {
            let Some(k) = scan.next() else {
                break None;
            };
            if bytes.get(k) == Some(&b'"') {
                return Err("quote in the middle of an unquoted field");
            }
            // A one-byte separator is its lead byte; a longer one must
            // match in full (its lead byte also starts other characters).
            if sep.len() == 1 || bytes.get(k..).is_some_and(|rest| rest.starts_with(sep)) {
                break Some(k);
            }
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

/// Moves `scan` past the quote that closes a quoted field, whose opening
/// quote is the next position `scan` yields: the first `"` after it not
/// doubled. Separators inside the field are passed over. `None` when the
/// field never closes.
fn closing_quote(scan: &mut Scan<'_>, bytes: &[u8]) -> Option<()> {
    scan.next()?;
    loop {
        let q = scan.next()?;
        if bytes.get(q) != Some(&b'"') {
            continue;
        }
        if bytes.get(q + 1) != Some(&b'"') {
            return Some(());
        }
        // The doubled quote's second half is the next position.
        scan.next();
    }
}

/// Bit `i` of the result is set when byte `base + i` of `bytes` is one of
/// `needles`: the structural bytes of one 64-byte block, found eight bytes
/// at a time in safe Rust.
///
/// Each word is read as a little-endian `u64` and XORed with each needle
/// broadcast to every byte, which zeroes exactly the matching bytes. A
/// byte `x` is zero exactly when `(x & 0x7f) + 0x7f` and `x` both leave
/// its high bit clear; no carry crosses bytes, so the flags are exact. A
/// multiply gathers a word's eight flags into eight adjacent bits. The
/// block past the end of `bytes` reads as no match.
fn block_mask(bytes: &[u8], base: usize, needles: [u8; 3]) -> u64 {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const LOW7: u64 = u64::from_le_bytes([0x7f; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    /// Moves bit `8k` (byte `k`'s flag, shifted down) to bit `56 + k`.
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let [a, b, c] = needles.map(|n| ONES * u64::from(n));
    let zero = |x: u64| !(((x & LOW7) + LOW7) | x) & HIGHS;
    let rest = bytes.get(base..).unwrap_or_default();
    let mut padded = [0; 64];
    let (block, valid) = match rest.first_chunk::<64>() {
        Some(block) => (block, u64::MAX),
        None => {
            for (p, &r) in padded.iter_mut().zip(rest) {
                *p = r;
            }
            // Fewer than 64 bytes are left.
            (&padded, (1u64 << rest.len()) - 1)
        }
    };
    let mut mask = 0;
    for (k, word) in block.as_chunks::<8>().0.iter().enumerate() {
        let word = u64::from_le_bytes(*word);
        let flags = zero(word ^ a) | zero(word ^ b) | zero(word ^ c);
        mask |= ((flags >> 7).wrapping_mul(GATHER) >> 56) << (8 * k);
    }
    mask & valid
}

/// The positions of the bytes of a text that are one of three needles, in
/// ascending order, found a 64-byte block at a time ([`block_mask`]).
#[derive(Clone)]
struct Scan<'a> {
    bytes: &'a [u8],
    needles: [u8; 3],
    /// Start of the block `mask` covers.
    base: usize,
    /// The block's needle positions not yet returned: bit `i` is byte
    /// `base + i`.
    mask: u64,
}

impl<'a> Scan<'a> {
    fn new(bytes: &'a [u8], needles: [u8; 3]) -> Self {
        Self {
            bytes,
            needles,
            base: 0,
            mask: block_mask(bytes, 0, needles),
        }
    }
}

impl Iterator for Scan<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.mask == 0 {
            self.base += 64;
            if self.base >= self.bytes.len() {
                return None;
            }
            self.mask = block_mask(self.bytes, self.base, self.needles);
        }
        let k = self.mask.trailing_zeros() as usize;
        self.mask &= self.mask - 1;
        Some(self.base + k)
    }
}

/// One non-blank line of a CSV text, as [`Records`] yields it.
struct Record<'a> {
    /// 1-based physical line number.
    line: usize,
    /// The line without its terminator.
    text: &'a str,
    /// How many fields the line holds, or why it does not split.
    split: Result<usize, &'static str>,
    /// Whether the fields are raw [`split_record`] fields, which may be
    /// quoted; the fields of a quote-free line are their text as is.
    raw: bool,
}

/// The records of a CSV text, cut into fields in one scan of the text.
///
/// Lines are those of [`str::lines`]: every `\n` ends one, and a `\r`
/// right before it is dropped. Blank and whitespace-only lines are
/// skipped but counted. One [`Scan`] finds line feeds, quotes and a
/// one-byte separator together, and a quote-free line is cut into fields
/// at its separators as they come; a line with a quote, or every line
/// under a multi-byte separator, goes to [`split_record`].
#[derive(Clone)]
struct Records<'a> {
    text: &'a str,
    separator: char,
    /// Whether the separator is one byte, which the scan then finds.
    cut: bool,
    scan: Scan<'a>,
    /// Start of the next line.
    pos: usize,
    /// Lines read so far, blank ones included.
    line: usize,
}

impl<'a> Records<'a> {
    fn new(text: &'a str, separator: char) -> Self {
        let one_byte = u8::try_from(separator).ok().filter(u8::is_ascii);
        // A multi-byte separator leaves the third needle to the line feed.
        let needles = [b'\n', b'"', one_byte.unwrap_or(b'\n')];
        Self {
            text,
            separator,
            cut: one_byte.is_some(),
            scan: Scan::new(text.as_bytes(), needles),
            pos: 0,
            line: 0,
        }
    }

    /// The next non-blank record, its first `fields.len()` fields stored
    /// in `fields` as [`split_record`] stores them.
    fn next(&mut self, fields: &mut [&'a str]) -> Option<Record<'a>> {
        let bytes = self.text.as_bytes();
        loop {
            if self.pos >= bytes.len() {
                return None;
            }
            let start = self.pos;
            self.line += 1;
            let mut quoted = false;
            let mut count = 0;
            let mut field = start;
            let end = loop {
                let Some(k) = self.scan.next() else {
                    break bytes.len();
                };
                match bytes.get(k) {
                    Some(b'\n') => break k,
                    Some(b'"') => quoted = true,
                    _ if quoted => {}
                    _ => {
                        if let Some(slot) = fields.get_mut(count) {
                            *slot = self.text.get(field..k).unwrap_or_default();
                        }
                        count += 1;
                        field = k + 1;
                    }
                }
            };
            self.pos = end + 1;
            // `\r\n` ends a line as `\n` does; a final `\r` with no `\n`
            // after it is text.
            let crlf = end < bytes.len() && end > start && bytes.get(end - 1) == Some(&b'\r');
            let stop = if crlf { end - 1 } else { end };
            let text = self.text.get(start..stop).unwrap_or_default();
            if is_blank(text) {
                continue;
            }
            let (split, raw) = if quoted || !self.cut {
                (split_record(text, self.separator, fields), true)
            } else {
                if let Some(slot) = fields.get_mut(count) {
                    *slot = self.text.get(field..stop).unwrap_or_default();
                }
                (Ok(count + 1), false)
            };
            return Some(Record {
                line: self.line,
                text,
                split,
                raw,
            });
        }
    }
}

/// Whether a line trims to nothing, checking its first byte before
/// trimming: a printable ASCII byte cannot start whitespace.
#[inline]
fn is_blank(line: &str) -> bool {
    match line.as_bytes().first() {
        Some(&b) if !may_be_space(b) => false,
        _ => line.trim().is_empty(),
    }
}

/// Whether a byte can be part of a whitespace character: ASCII spaces and
/// controls, and every byte of a multi-byte character.
#[inline]
fn may_be_space(byte: u8) -> bool {
    byte <= b' ' || byte >= 0x80
}

/// The trimmed text of a field: a raw [`split_record`] field is unquoted
/// first. `trim` runs only when the text's first or last byte can be
/// whitespace.
#[inline]
fn cell_text<'f>(field: &'f str, raw: bool, scratch: &'f mut String) -> &'f str {
    let text = if raw {
        unquote_field(field, scratch)
    } else {
        field
    };
    match (text.as_bytes().first(), text.as_bytes().last()) {
        (Some(&first), Some(&last)) if !may_be_space(first) && !may_be_space(last) => text,
        _ => text.trim(),
    }
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
    if is_csv_syntax(sep) {
        return Err(DataError::Csv {
            line: 1,
            message: format!("separator {sep:?} cannot be a quote or a line break"),
        });
    }
    let mut quality = DataQualityReport::default();
    // A UTF-8 byte-order mark is not part of the first column's name.
    let text = text.strip_prefix('\u{feff}').unwrap_or(text);
    let mut records = Records::new(text, sep);
    let header = records.next(&mut []).ok_or(DataError::Csv {
        line: 1,
        message: "missing header row".to_string(),
    })?;
    let header_error = |message: &str| DataError::Csv {
        line: 1,
        message: message.to_string(),
    };
    let n_cols = split_record(header.text, sep, &mut []).map_err(header_error)?;
    let mut fields = vec![""; n_cols];
    split_record(header.text, sep, &mut fields).map_err(header_error)?;
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
    // `data` stays at the first data record: a column that turns
    // categorical re-reads its earlier cells from there.
    let data = records.clone();
    while let Some(record) = records.next(&mut fields) {
        let malformed = match record.split {
            Ok(n) if n == n_cols => None,
            Ok(n) => Some(format!("expected {n_cols} fields, found {n}")),
            Err(message) => Some(message.to_string()),
        };
        if let Some(message) = malformed {
            if options.quarantine_malformed_rows {
                quality.count_row(record.line);
                continue;
            }
            return Err(DataError::Csv {
                line: record.line,
                message,
            });
        }
        for (j, (field, column)) in fields.iter().zip(&mut columns).enumerate() {
            let cell = cell_text(field, record.raw, &mut scratch);
            match column {
                Column::Continuous(values) if cell.is_empty() => values.push_null(),
                Column::Continuous(values) => match cell.parse::<f64>() {
                    Ok(v) if v.is_finite() => values.push(v),
                    Ok(_) => {
                        values.push_null();
                        quality.count_cell(&names[j], false);
                    }
                    Err(_) => {
                        let mut levels = reread_categorical(data.clone(), record.line, n_cols, j);
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

/// Field `j` of the records of `records` before line `line`, as a
/// categorical column: the cells of a numeric column that has just met its
/// first non-numeric cell.
///
/// `records` starts at the first data record, so it walks the records the
/// reader walked. A record that does not split into `n_cols` fields is one
/// the reader quarantined, and is skipped as the reader skipped it.
fn reread_categorical(
    mut records: Records<'_>,
    line: usize,
    n_cols: usize,
    j: usize,
) -> CategoricalColumn {
    let mut fields = vec![""; j + 1];
    let mut scratch = String::new();
    let mut levels = CategoricalColumn::new();
    while let Some(record) = records.next(&mut fields) {
        if record.line >= line {
            break;
        }
        if record.split != Ok(n_cols) {
            continue;
        }
        let cell = cell_text(fields[j], record.raw, &mut scratch);
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
    fn scan_agrees_with_a_byte_scan() {
        let text = "ab\"cd,ef€gh\"\"ij;kl\tmn…op,qr\"\0".repeat(5);
        for start in 0..text.len() {
            for end in (start..=text.len()).step_by(7).chain([text.len()]) {
                let bytes = &text.as_bytes()[start..end];
                for needles in [*b"\",\n", *b"\"\"\"", [b'"', 0xe2, 0xe2], [b';', 0, b'\t']] {
                    let want: Vec<usize> = (0..bytes.len())
                        .filter(|&k| needles.contains(&bytes[k]))
                        .collect();
                    assert_eq!(
                        Scan::new(bytes, needles).collect::<Vec<_>>(),
                        want,
                        "{start}..{end} {needles:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn records_follow_str_lines() {
        let texts = [
            "",
            "a",
            "a\n",
            "a\n\n",
            "a\r\nb\r\n",
            "a\rb\n\r\n\r",
            "\n\n x \n\t\n\u{a0}\ny\r",
            "a,b\n\"c\r\n\",d\r",
        ];
        for text in texts {
            for separator in [',', '€'] {
                let want: Vec<(usize, &str)> = text
                    .lines()
                    .enumerate()
                    .filter(|(_, l)| !l.trim().is_empty())
                    .map(|(i, l)| (i + 1, l))
                    .collect();
                let mut records = Records::new(text, separator);
                let mut got = Vec::new();
                let mut fields = [""; 4];
                while let Some(record) = records.next(&mut fields) {
                    assert_eq!(
                        record.split,
                        split_record(record.text, separator, &mut []),
                        "{text:?}"
                    );
                    got.push((record.line, record.text));
                }
                assert_eq!(got, want, "{text:?} {separator:?}");
            }
        }
    }

    #[test]
    fn separators_that_are_csv_syntax_are_refused() {
        for separator in ['"', '\n', '\r'] {
            let options = CsvOptions {
                separator,
                ..CsvOptions::default()
            };
            let err = read_csv_str("a\nb\n1\n2\n3\nx\n", &options).unwrap_err();
            let DataError::Csv { line, message } = err else {
                panic!("{separator:?}: {err:?}");
            };
            assert_eq!(line, 1);
            assert_eq!(
                message,
                format!("separator {separator:?} cannot be a quote or a line break")
            );
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
