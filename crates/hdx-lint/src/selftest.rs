//! Built-in self-test (`hdx-lint --self-test`).
//!
//! Runs the *real* rule dispatch ([`crate::check_file`]) over embedded
//! fixture snippets with deliberately planted violations, plus negative
//! fixtures that must stay clean. Every rule has at least one
//! true-positive and one true-negative fixture, so the self-test guards
//! the analyzer itself: a lexer or masking regression that silently stops
//! reporting would otherwise look like a green run. The fixtures also pin
//! the manifest semantics — deleting a `// SAFETY:` comment, a ledger row
//! or a justification marker from real code fails lint exactly like the
//! corresponding TP fixtures here fail.
//!
//! Beyond the per-file fixtures, three cross-cutting checks run: stale
//! hot-path files, duplicate hot-path entries, and a SARIF round-trip
//! proving `--format sarif` agrees 1:1 with the JSON report.

use crate::rules::Violation;
use crate::{manifest, sarif, semantic, Manifests};
use std::process::ExitCode;

struct Fixture {
    name: &'static str,
    /// Pretend workspace-relative path (selects the manifest entries that
    /// apply).
    path: &'static str,
    src: &'static str,
    /// Expected `(rule, line)` pairs, in any order.
    expect: &'static [(&'static str, u32)],
}

/// Hotpath manifest used by the fixtures (also exercises the TOML parser).
/// The `stale.rs` entry, at line [`STALE_PIN_LINE`], pins a function its
/// fixture does not define.
const FIXTURE_HOTPATHS: &str = "\
# fixture manifest\n\
[[hotpath]]\n\
file = \"crates/hdx-bench/src/hot.rs\"\n\
functions = [\"dfs\"]\n\
panic_free = false\n\
\n\
[[hotpath]]\n\
file = \"crates/hdx-bench/src/hot_impl.rs\"\n\
functions = [\"Planes::accum\"]\n\
panic_free = false\n\
\n\
[[hotpath]]\n\
file = \"crates/hdx-bench/src/kernel.rs\"\n\
functions = []\n\
panic_free = true\n\
\n\
[[hotpath]]\n\
file = \"crates/hdx-bench/src/stale.rs\"\n\
functions = [\"present\", \"renamed_away\"]\n\
panic_free = false\n";

/// Manifest line of the `stale.rs` entry in [`FIXTURE_HOTPATHS`].
const STALE_PIN_LINE: u32 = 17;

/// Unsafe ledger used by the fixtures.
const FIXTURE_LEDGER: &str = "\
| File | Construct | Justification |\n\
|------|-----------|---------------|\n\
| crates/hdx-bench/src/unsafe_ok.rs | unsafe fn | fixture |\n\
| crates/hdx-bench/src/unsafe_no_safety.rs | unsafe fn | fixture |\n";

const FIXTURES: &[Fixture] = &[
    // ---- no-float-eq (tier 1) ------------------------------------------
    Fixture {
        name: "planted float == in hdx-stats",
        path: "crates/hdx-stats/src/planted.rs",
        src: "/// Docs.\n\
              pub fn g(t: f64) -> bool {\n\
              \x20   if t == 0.0 { return true; }\n\
              \x20   t != 1.5e-3\n\
              }\n",
        expect: &[("no-float-eq", 3), ("no-float-eq", 4)],
    },
    Fixture {
        name: "planted float == in a binary crate",
        path: "crates/hdx-cli/src/planted.rs",
        src: "fn is_zero(t: f64) -> bool { t == 0.0 }\n",
        expect: &[("no-float-eq", 1)],
    },
    Fixture {
        name: "test code, doc examples and ordered float comparisons are exempt",
        path: "crates/hdx-items/src/clean.rs",
        src: "//! Module docs with `x == 0.0` in prose.\n\
              /// ```\n\
              /// assert!(0.5 == 0.5);\n\
              /// ```\n\
              pub fn k(x: f64) -> bool {\n\
              \x20   x <= 0.0 || x >= 1.0\n\
              }\n\
              #[cfg(test)]\n\
              mod tests {\n\
              \x20   #[test]\n\
              \x20   fn t() {\n\
              \x20       let v: f64 = 0.0;\n\
              \x20       assert!(v == 0.0);\n\
              \x20   }\n\
              }\n",
        expect: &[],
    },
    Fixture {
        name: "infinity comparisons and non-literal float == are not flagged",
        path: "crates/hdx-items/src/clean2.rs",
        src: "/// Docs.\n\
              pub fn unbounded(lo: f64, hi: f64) -> bool {\n\
              \x20   lo == f64::NEG_INFINITY && hi == f64::INFINITY\n\
              }\n",
        expect: &[],
    },
    Fixture {
        name: "cfg(test) fn followed by more code keeps masking scoped",
        path: "crates/hdx-items/src/clean3.rs",
        src: "#[cfg(test)]\n\
              fn helper() -> bool { 0.5 == 0.5 }\n\
              /// Docs.\n\
              pub fn live(x: f64) -> bool { x == 0.5 }\n",
        expect: &[("no-float-eq", 4)],
    },
    // ---- lexer / mask regressions --------------------------------------
    Fixture {
        name: "cfg(not(test)) is production code and stays lintable",
        path: "crates/hdx-items/src/not_test.rs",
        src: "/// Docs.\n\
              #[cfg(not(test))]\n\
              pub fn live(x: f64) -> bool { x == 0.5 }\n",
        expect: &[("no-float-eq", 3)],
    },
    Fixture {
        name: "inner #![cfg(test)] masks the whole file",
        path: "crates/hdx-items/src/inner_test.rs",
        src: "#![cfg(test)]\n\
              fn helper(x: f64) -> bool { x == 0.5 }\n\
              fn more(x: f64) -> bool { x != 1.0 }\n",
        expect: &[],
    },
    Fixture {
        name: "nested test module with a brace-unbalanced raw string",
        path: "crates/hdx-items/src/nested_raw.rs",
        src: "/// Docs.\n\
              pub fn live(x: f64) -> bool { x == 0.5 }\n\
              #[cfg(test)]\n\
              mod tests {\n\
              \x20   mod inner {\n\
              \x20       #[test]\n\
              \x20       fn t() {\n\
              \x20           let s = r#\"unbalanced { brace\"#;\n\
              \x20           let _ = (s, 1.0 == 1.0);\n\
              \x20       }\n\
              \x20   }\n\
              }\n",
        expect: &[("no-float-eq", 2)],
    },
    // ---- unsafe-audit ---------------------------------------------------
    Fixture {
        name: "unsafe without SAFETY comment or ledger row: two violations",
        path: "crates/hdx-bench/src/unsafe_tp.rs",
        src: "pub fn f(p: *const u64) -> u64 {\n\
              \x20   unsafe { *p }\n\
              }\n",
        expect: &[("unsafe-audit", 2), ("unsafe-audit", 2)],
    },
    Fixture {
        name: "ledger row present but SAFETY comment deleted still fails",
        path: "crates/hdx-bench/src/unsafe_no_safety.rs",
        src: "pub unsafe fn raw(p: *const u64) -> u64 { *p }\n",
        expect: &[("unsafe-audit", 1)],
    },
    Fixture {
        name: "SAFETY comment present but ledger row deleted still fails",
        path: "crates/hdx-bench/src/unsafe_no_ledger.rs",
        src: "// SAFETY: fixture — caller guarantees `p` is valid.\n\
              pub unsafe fn raw(p: *const u64) -> u64 { *p }\n",
        expect: &[("unsafe-audit", 2)],
    },
    Fixture {
        name: "unsafe with SAFETY comment and ledger row is clean",
        path: "crates/hdx-bench/src/unsafe_ok.rs",
        src: "// SAFETY: fixture — caller guarantees `p` is valid\n\
              // for the duration of the call.\n\
              pub unsafe fn raw(p: *const u64) -> u64 { *p }\n",
        expect: &[],
    },
    Fixture {
        name: "unsafe inside #[cfg(test)] is exempt from the audit",
        path: "crates/hdx-bench/src/unsafe_test_only.rs",
        src: "pub fn normal() {}\n\
              #[cfg(test)]\n\
              mod tests {\n\
              \x20   fn t(p: *const u64) -> u64 { unsafe { *p } }\n\
              }\n",
        expect: &[],
    },
    // ---- atomics-ordering ----------------------------------------------
    Fixture {
        name: "bare Ordering::Relaxed needs an ORDERING justification",
        path: "crates/hdx-bench/src/relaxed_tp.rs",
        src: "use std::sync::atomic::{AtomicU64, Ordering};\n\
              pub fn load(a: &AtomicU64) -> u64 {\n\
              \x20   a.load(Ordering::Relaxed)\n\
              }\n",
        expect: &[("atomics-ordering", 3)],
    },
    Fixture {
        name: "justified Relaxed, SeqCst and cmp::Ordering are clean",
        path: "crates/hdx-bench/src/relaxed_tn.rs",
        src: "use std::sync::atomic::{AtomicU64, Ordering};\n\
              pub fn load(a: &AtomicU64) -> u64 {\n\
              \x20   // ORDERING: monotone counter, no cross-thread invariant.\n\
              \x20   a.load(Ordering::Relaxed)\n\
              }\n\
              pub fn strict(a: &AtomicU64) -> u64 { a.load(Ordering::SeqCst) }\n\
              pub fn cmp(x: u32, y: u32) -> std::cmp::Ordering { x.cmp(&y) }\n",
        expect: &[],
    },
    // ---- no-alloc-hot-path ---------------------------------------------
    Fixture {
        name: "allocation in a manifest-listed hot function",
        path: "crates/hdx-bench/src/hot.rs",
        src: "pub fn dfs(out: &mut Vec<u32>) {\n\
              \x20   out.push(1);\n\
              \x20   let s = format!(\"x{}\", 1);\n\
              \x20   let b = Box::new(s);\n\
              \x20   drop(b);\n\
              }\n\
              pub fn cold() -> Vec<u32> {\n\
              \x20   (0..4).collect()\n\
              }\n",
        expect: &[
            ("no-alloc-hot-path", 2),
            ("no-alloc-hot-path", 3),
            ("no-alloc-hot-path", 4),
        ],
    },
    Fixture {
        name: "impl-qualified hot function of a generic impl; ALLOC justification is honored",
        path: "crates/hdx-bench/src/hot_impl.rs",
        src: "pub struct Planes<const K: usize>;\n\
              impl<const K: usize> Planes<K> {\n\
              \x20   pub fn accum(&self, out: &mut Vec<u32>) {\n\
              \x20       // ALLOC: scratch pool, capacity reserved at setup.\n\
              \x20       out.push(1);\n\
              \x20       out.iter().for_each(|_| {});\n\
              \x20   }\n\
              }\n",
        expect: &[],
    },
    Fixture {
        name: "a pin naming a function the file no longer has is stale",
        path: "crates/hdx-bench/src/stale.rs",
        src: "pub fn present(xs: &[u32]) -> u32 {\n\
              \x20   xs.iter().sum()\n\
              }\n\
              pub fn renamed(xs: &[u32]) -> u32 {\n\
              \x20   xs.len() as u32\n\
              }\n",
        expect: &[("no-alloc-hot-path", STALE_PIN_LINE)],
    },
    // ---- no-panic-path --------------------------------------------------
    Fixture {
        name: "unchecked indexing and unwrap in a panic-free kernel file",
        path: "crates/hdx-bench/src/kernel.rs",
        src: "pub fn k(xs: &[u64], i: usize) -> u64 {\n\
              \x20   let a = xs[i];\n\
              \x20   let b = xs.first().unwrap();\n\
              \x20   if a > *b { unreachable!(); }\n\
              \x20   a\n\
              }\n",
        expect: &[
            ("no-panic-path", 2),
            ("no-panic-path", 3),
            ("no-panic-path", 4),
        ],
    },
    Fixture {
        name: "get/iterators, asserts, BOUND-justified index and tests are clean",
        path: "crates/hdx-bench/src/kernel.rs",
        src: "pub fn k(xs: &[u64], i: usize) -> u64 {\n\
              \x20   assert!(i < xs.len());\n\
              \x20   let a = xs.get(i).copied().unwrap_or(0);\n\
              \x20   // BOUND: i < xs.len() asserted above.\n\
              \x20   let b = xs[i];\n\
              \x20   let ty: [u64; 2] = [a, b];\n\
              \x20   ty.iter().sum()\n\
              }\n\
              #[cfg(test)]\n\
              mod tests {\n\
              \x20   #[test]\n\
              \x20   fn t() { let xs = [1u64]; assert_eq!(xs[0], 1); }\n\
              }\n",
        expect: &[],
    },
];

/// Runs all fixtures and cross-cutting checks; prints a PASS/FAIL line per
/// check.
pub fn run() -> ExitCode {
    let manifests = match fixture_manifests() {
        Ok(m) => m,
        Err(e) => {
            println!("FAIL fixture manifests: {e}");
            return ExitCode::from(1);
        }
    };
    let mut failures = 0usize;
    for fx in FIXTURES {
        let mut got: Vec<Violation> = Vec::new();
        crate::check_file(fx.path, fx.src, &manifests, &mut got);
        let mut got_pairs: Vec<(&str, u32)> = got.iter().map(|v| (v.rule, v.line)).collect();
        let mut want: Vec<(&str, u32)> = fx.expect.to_vec();
        got_pairs.sort_unstable();
        want.sort_unstable();
        if got_pairs == want {
            println!("PASS {}", fx.name);
        } else {
            failures += 1;
            println!("FAIL {}", fx.name);
            println!("  expected: {want:?}");
            println!("  got:      {got_pairs:?}");
            for v in &got {
                println!("    {}:{} [{}] {}", v.file, v.line, v.rule, v.message);
            }
        }
    }
    type ExtraCheck = fn() -> Result<(), String>;
    let extra: &[(&str, ExtraCheck)] = &[
        (
            "a pin on a file that is not scanned is stale",
            check_stale_pin_files,
        ),
        (
            "a second [[hotpath]] entry for a file is rejected",
            check_duplicate_hotpath,
        ),
        (
            "SARIF output round-trips and agrees with JSON",
            check_sarif_roundtrip,
        ),
    ];
    for (name, check) in extra {
        match check() {
            Ok(()) => println!("PASS {name}"),
            Err(e) => {
                failures += 1;
                println!("FAIL {name}");
                println!("  {e}");
            }
        }
    }
    let total = FIXTURES.len() + extra.len();
    if failures == 0 {
        println!("hdx-lint self-test: {total} check(s) passed");
        ExitCode::SUCCESS
    } else {
        println!("hdx-lint self-test: {failures} of {total} check(s) FAILED");
        ExitCode::from(1)
    }
}

/// Parses the embedded fixture manifests (this is itself a parser test).
fn fixture_manifests() -> Result<Manifests, String> {
    let hotpaths = manifest::parse_hotpaths(FIXTURE_HOTPATHS)?;
    if hotpaths.entries.len() != 4 {
        return Err(format!(
            "expected 4 hotpath entries, parsed {}",
            hotpaths.entries.len()
        ));
    }
    let ledger = manifest::parse_unsafe_ledger(FIXTURE_LEDGER);
    if ledger.files.len() != 2 {
        return Err(format!(
            "expected 2 ledger files, parsed {:?}",
            ledger.files
        ));
    }
    Ok(Manifests { hotpaths, ledger })
}

/// The file side of the stale-pin check: with every pinned file scanned
/// nothing is reported; drop one and exactly its entry is flagged, at the
/// entry's manifest line, naming the file.
fn check_stale_pin_files() -> Result<(), String> {
    let hotpaths = manifest::parse_hotpaths(FIXTURE_HOTPATHS)?;
    let mut scanned: Vec<String> = hotpaths.entries.iter().map(|e| e.file.clone()).collect();
    let mut out = Vec::new();
    semantic::rule_hot_path_files_exist(&hotpaths, &scanned, crate::HOTPATHS_TOML, &mut out);
    if !out.is_empty() {
        return Err(format!("every pinned file is scanned, yet got {out:?}"));
    }
    scanned.retain(|f| !f.ends_with("/stale.rs"));
    semantic::rule_hot_path_files_exist(&hotpaths, &scanned, crate::HOTPATHS_TOML, &mut out);
    let got: Vec<(&str, &str, u32)> = out
        .iter()
        .map(|v| (v.rule, v.file.as_str(), v.line))
        .collect();
    if got != [("no-alloc-hot-path", crate::HOTPATHS_TOML, STALE_PIN_LINE)] {
        return Err(format!(
            "expected [(no-alloc-hot-path, {}, {STALE_PIN_LINE})], got {got:?}",
            crate::HOTPATHS_TOML
        ));
    }
    if !out[0].message.contains("crates/hdx-bench/src/stale.rs") {
        return Err(format!("message does not name the pin: {}", out[0].message));
    }
    Ok(())
}

/// A manifest naming one file in two `[[hotpath]]` entries does not load,
/// and the error names the second entry's line: only the first entry for a
/// file would ever be checked.
fn check_duplicate_hotpath() -> Result<(), String> {
    let duplicate = format!(
        "{FIXTURE_HOTPATHS}\n[[hotpath]]\nfile = \"crates/hdx-bench/src/hot.rs\"\n\
         functions = [\"other\"]\n"
    );
    let line = FIXTURE_HOTPATHS.lines().count() + 2;
    match manifest::parse_hotpaths(&duplicate) {
        Ok(_) => Err("a duplicate entry for hot.rs parsed".to_string()),
        Err(e) if e.contains(&format!("line {line}:")) && e.contains("hot.rs") => Ok(()),
        Err(e) => Err(format!(
            "the error does not name line {line} and hot.rs: {e}"
        )),
    }
}

/// Renders a violation list as both JSON and SARIF, parses both back with
/// the same reader, and checks the SARIF log is structurally valid 2.1.0
/// and agrees with the JSON report result-for-result.
fn check_sarif_roundtrip() -> Result<(), String> {
    let violations = vec![
        Violation {
            rule: "no-float-eq",
            file: "crates/hdx-mining/src/x.rs".to_string(),
            line: 42,
            message: "`==` with \"quotes\" and\nnewline".to_string(),
        },
        Violation {
            rule: "atomics-ordering",
            file: "crates/hdx-governor/src/lib.rs".to_string(),
            line: 7,
            message: "`Ordering::Relaxed` without an `// ORDERING:` justification".to_string(),
        },
    ];

    let sarif_doc = sarif::parse(&sarif::render(&violations))
        .map_err(|e| format!("SARIF does not parse: {e}"))?;
    let json_doc = sarif::parse(&crate::render_report(&violations, 2))
        .map_err(|e| format!("JSON report does not parse: {e}"))?;

    // Structural SARIF 2.1.0 checks.
    if sarif_doc.get("version").and_then(|v| v.as_str()) != Some("2.1.0") {
        return Err("missing/wrong SARIF version".to_string());
    }
    if sarif_doc
        .get("$schema")
        .and_then(|v| v.as_str())
        .is_none_or(|s| !s.contains("sarif-2.1.0"))
    {
        return Err("missing $schema".to_string());
    }
    let runs = sarif_doc
        .get("runs")
        .and_then(|v| v.as_array())
        .ok_or("missing runs")?;
    let run = runs.first().ok_or("empty runs")?;
    let driver = run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .ok_or("missing tool.driver")?;
    if driver.get("name").and_then(|v| v.as_str()) != Some("hdx-lint") {
        return Err("missing driver name".to_string());
    }
    let rule_table = driver
        .get("rules")
        .and_then(|v| v.as_array())
        .ok_or("missing driver.rules")?;
    if rule_table.len() != crate::rules::RULES.len() {
        return Err(format!(
            "rule table has {} entries, expected {}",
            rule_table.len(),
            crate::rules::RULES.len()
        ));
    }
    let results = run
        .get("results")
        .and_then(|v| v.as_array())
        .ok_or("missing results")?;

    // 1:1 agreement with the JSON report.
    let json_violations = json_doc
        .get("violations")
        .and_then(|v| v.as_array())
        .ok_or("missing violations in JSON report")?;
    if results.len() != json_violations.len() {
        return Err(format!(
            "{} SARIF results vs {} JSON violations",
            results.len(),
            json_violations.len()
        ));
    }
    for (r, j) in results.iter().zip(json_violations) {
        let rule = r.get("ruleId").and_then(|v| v.as_str());
        let message = r
            .get("message")
            .and_then(|m| m.get("text"))
            .and_then(|v| v.as_str());
        let loc = r
            .get("locations")
            .and_then(|v| v.as_array())
            .and_then(|a| a.first())
            .and_then(|l| l.get("physicalLocation"))
            .ok_or("missing physicalLocation")?;
        let uri = loc
            .get("artifactLocation")
            .and_then(|a| a.get("uri"))
            .and_then(|v| v.as_str());
        let line = loc
            .get("region")
            .and_then(|reg| reg.get("startLine"))
            .and_then(|v| v.as_num());
        if rule != j.get("rule").and_then(|v| v.as_str()) {
            return Err(format!("ruleId mismatch: {rule:?}"));
        }
        if uri != j.get("file").and_then(|v| v.as_str()) {
            return Err(format!("uri mismatch: {uri:?}"));
        }
        if line != j.get("line").and_then(|v| v.as_num()) {
            return Err(format!("startLine mismatch: {line:?}"));
        }
        if message != j.get("message").and_then(|v| v.as_str()) {
            return Err(format!("message mismatch: {message:?}"));
        }
    }
    Ok(())
}
