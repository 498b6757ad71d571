//! Harness utilities: CLI arguments, text tables and wall-clock timing.

use std::time::Instant;

/// Common experiment arguments, parsed from `--scale <f>` / `--seed <u>`.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Dataset scale relative to the paper's row counts (default 0.25 —
    /// full-size folktables mining at s=0.01 is minutes of work; 0.25 keeps
    /// every binary comfortably interactive while preserving every
    /// comparison).
    pub scale: f64,
    /// Generator seed (default 42).
    pub seed: u64,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            scale: 0.25,
            seed: 42,
        }
    }
}

impl Args {
    /// Parses from an iterator of CLI arguments (excluding `argv[0]`).
    ///
    /// # Panics
    /// Panics on malformed flags, with a usage message.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut raw = |name: &str| -> String {
                it.next()
                    .unwrap_or_else(|| panic!("usage: --{name} <value>"))
            };
            match flag.as_str() {
                "--scale" => {
                    let v = raw("scale");
                    out.scale = v
                        .parse()
                        .unwrap_or_else(|_| panic!("invalid --scale `{v}`"));
                }
                "--seed" => {
                    let v = raw("seed");
                    out.seed = v
                        .parse()
                        .unwrap_or_else(|_| panic!("invalid --seed `{v}` (expected an integer)"));
                }
                other => panic!("unknown flag `{other}`; supported: --scale <f64>, --seed <u64>"),
            }
        }
        assert!(out.scale > 0.0, "scale must be positive");
        out
    }

    /// Parses from the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Scales a paper-size row count (floor 200).
    pub fn rows(&self, full: usize) -> usize {
        ((full as f64 * self.scale) as usize).max(200)
    }
}

/// Formats an aligned text table.
pub fn fmt_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let n_cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        assert_eq!(row.len(), n_cols, "row arity mismatch");
        for (c, cell) in row.iter().enumerate() {
            widths[c] = widths[c].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], out: &mut String| {
        for (c, cell) in cells.iter().enumerate() {
            if c > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            out.push_str(&" ".repeat(widths[c].saturating_sub(cell.chars().count())));
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    fmt_row(&headers, &mut out);
    let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    fmt_row(&sep, &mut out);
    for row in rows {
        fmt_row(row, &mut out);
    }
    out
}

/// SplitMix64 step — the deterministic bit source `bench_mining` uses to
/// build covers and outcome vectors without depending on `rand`'s stream
/// stability across versions.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs `f` once, returning its result and the wall nanoseconds it took.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults_and_flags() {
        let d = Args::parse(Vec::<String>::new());
        assert_eq!(d.scale, 0.25);
        assert_eq!(d.seed, 42);
        let a = Args::parse(
            ["--scale", "0.5", "--seed", "7"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.seed, 7);
        // Large seeds survive exactly (no float round-trip).
        let big = Args::parse(
            ["--seed", "18446744073709551615"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(big.seed, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "invalid --seed")]
    fn fractional_seed_rejected() {
        let _ = Args::parse(["--seed", "3.9"].iter().map(|s| s.to_string()));
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        let _ = Args::parse(["--bogus".to_string()]);
    }

    #[test]
    fn rows_scale_with_floor() {
        let a = Args {
            scale: 0.1,
            seed: 0,
        };
        assert_eq!(a.rows(10_000), 1_000);
        assert_eq!(a.rows(500), 200, "floor applies");
    }

    #[test]
    fn splitmix_is_deterministic_and_advances() {
        let (mut a, mut b) = (42u64, 42u64);
        let first = splitmix64(&mut a);
        assert_eq!(first, splitmix64(&mut b));
        assert_eq!(a, b, "state advances identically");
        assert_ne!(first, splitmix64(&mut a), "stream advances");
    }

    #[test]
    fn measure_returns_value_and_duration() {
        let (value, _) = measure(|| 6 * 7);
        assert_eq!(value, 42);
        // Monotonic clocks can report 0 ns for trivial closures; a real
        // sleep must register.
        let (_, slept) = measure(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!(slept >= 1_000_000, "{slept}");
    }

    #[test]
    fn table_alignment() {
        let t = fmt_table(
            &["name", "v"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["longer".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a "));
        assert!(lines[3].starts_with("longer"));
    }
}
