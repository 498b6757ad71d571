//! The dynamic-analysis harness: `cargo xtask sanitize`.
//!
//! Tier 3 of the analyzer (see DESIGN.md §13). Where the lexical and
//! semantic rules prove properties of the *source*, this harness runs the
//! concurrency- and UB-sensitive test subsets under dynamic checkers:
//!
//! * **loom** — the `hdx-loom` exhaustive-interleaving models for
//!   `CancelToken`, governor counter merging and the `hdx-obs` buffer
//!   hand-off, compiled with `--cfg hdx_loom`, then the checker's own
//!   self-checks (`cargo test -p hdx-loom`). Needs only stable Rust, so
//!   it always runs.
//! * **miri** — the kernel property tests under Miri's UB checker. Needs
//!   the nightly `miri` component; skipped (with a note) when absent.
//! * **tsan** — governor/obs concurrency tests under ThreadSanitizer.
//!   Needs nightly + `rust-src` (for `-Zbuild-std`); skipped when absent.
//!
//! Skips are ordinary on dev machines without the nightly components;
//! `--strict` turns any skip into a failure, so a run that must cover
//! every tier cannot pass with one missing. CI does not call this harness:
//! its `loom`, `miri-smoke` and `tsan-smoke` jobs run the same commands,
//! one job per tool, on a pinned nightly.

use std::path::Path;
use std::process::Command;

/// Outcome of one harness step.
enum Outcome {
    Pass,
    Fail,
    Skip(String),
}

/// One harness step and its result.
struct Step {
    name: &'static str,
    outcome: Outcome,
}

/// Runs the sanitize harness rooted at `root`. Returns the process exit
/// code: 0 when every step passed (or was skipped, unless `strict`).
pub fn run(root: &Path, strict: bool) -> i32 {
    let mut steps: Vec<Step> = Vec::new();

    // -- loom: always available (stable Rust + first-party hdx-loom). -----
    // The obs models drive the real recorder, which only exists under the
    // crate's `obs` feature (the test target declares required-features).
    let loom_steps: [(&str, &'static str, &[&str]); 2] = [
        ("hdx-governor", "loom (hdx-governor models)", &[]),
        ("hdx-obs", "loom (hdx-obs models)", &["--features", "obs"]),
    ];
    for (pkg, name, extra) in loom_steps {
        eprintln!("sanitize: running {name} ...");
        let mut args = vec!["test", "-p", pkg];
        args.extend_from_slice(extra);
        args.extend_from_slice(&["--test", "loom_models", "--quiet"]);
        let ok = run_cargo(
            root,
            &args,
            &[
                ("RUSTFLAGS", "--cfg hdx_loom"),
                ("CARGO_TARGET_DIR", "target/sanitize-loom"),
            ],
        );
        steps.push(Step {
            name,
            outcome: if ok { Outcome::Pass } else { Outcome::Fail },
        });
    }
    // The checker's self-checks build without the cfg, like any other test.
    eprintln!("sanitize: running loom (hdx-loom self-checks) ...");
    let ok = run_cargo(root, &["test", "-p", "hdx-loom", "--quiet"], &[]);
    steps.push(Step {
        name: "loom (hdx-loom self-checks)",
        outcome: if ok { Outcome::Pass } else { Outcome::Fail },
    });

    // -- miri: kernel property tests under the UB checker. ----------------
    if probe(root, "cargo", &["+nightly", "miri", "--version"]) {
        eprintln!("sanitize: running miri (kernel tests) ...");
        let ok = run_cargo(
            root,
            &[
                "+nightly",
                "miri",
                "test",
                "-p",
                "hdx-stats",
                "--lib",
                "--quiet",
            ],
            &[
                ("PROPTEST_CASES", "8"),
                ("MIRIFLAGS", "-Zmiri-strict-provenance"),
            ],
        ) && run_cargo(
            root,
            &[
                "+nightly",
                "miri",
                "test",
                "--test",
                "property_kernel",
                "--quiet",
            ],
            &[
                ("PROPTEST_CASES", "8"),
                ("MIRIFLAGS", "-Zmiri-strict-provenance"),
            ],
        );
        steps.push(Step {
            name: "miri (kernel tests)",
            outcome: if ok { Outcome::Pass } else { Outcome::Fail },
        });
    } else {
        steps.push(Step {
            name: "miri (kernel tests)",
            outcome: Outcome::Skip(
                "nightly `miri` component not installed \
                 (rustup component add --toolchain nightly miri)"
                    .to_string(),
            ),
        });
    }

    // -- tsan: concurrency tests under ThreadSanitizer. -------------------
    match tsan_target(root) {
        Ok(triple) => {
            eprintln!("sanitize: running tsan (governor/obs tests) ...");
            let ok = run_cargo(
                root,
                &[
                    "+nightly",
                    "test",
                    "-Zbuild-std",
                    "--target",
                    &triple,
                    "-p",
                    "hdx-obs",
                    "--lib",
                    "--quiet",
                ],
                &[
                    ("RUSTFLAGS", "-Zsanitizer=thread"),
                    ("CARGO_TARGET_DIR", "target/sanitize-tsan"),
                    ("PROPTEST_CASES", "8"),
                ],
            ) && run_cargo(
                root,
                &[
                    "+nightly",
                    "test",
                    "-Zbuild-std",
                    "--target",
                    &triple,
                    "--test",
                    "governor",
                    "--quiet",
                ],
                &[
                    ("RUSTFLAGS", "-Zsanitizer=thread"),
                    ("CARGO_TARGET_DIR", "target/sanitize-tsan"),
                    ("PROPTEST_CASES", "8"),
                ],
            );
            steps.push(Step {
                name: "tsan (governor/obs tests)",
                outcome: if ok { Outcome::Pass } else { Outcome::Fail },
            });
        }
        Err(why) => {
            steps.push(Step {
                name: "tsan (governor/obs tests)",
                outcome: Outcome::Skip(why),
            });
        }
    }

    // -- summary. ----------------------------------------------------------
    let mut failed = 0usize;
    let mut skipped = 0usize;
    eprintln!("\nsanitize summary:");
    for s in &steps {
        match &s.outcome {
            Outcome::Pass => eprintln!("  PASS  {}", s.name),
            Outcome::Fail => {
                failed += 1;
                eprintln!("  FAIL  {}", s.name);
            }
            Outcome::Skip(why) => {
                skipped += 1;
                eprintln!("  SKIP  {} — {}", s.name, why);
            }
        }
    }
    if failed > 0 {
        eprintln!("sanitize: {failed} step(s) failed");
        return 1;
    }
    if skipped > 0 && strict {
        eprintln!("sanitize: {skipped} step(s) skipped under --strict");
        return 1;
    }
    eprintln!(
        "sanitize: ok ({} passed, {} skipped)",
        steps.len() - skipped,
        skipped
    );
    0
}

/// Runs `cargo <args>` in `root` with extra environment, streaming output.
fn run_cargo(root: &Path, args: &[&str], env: &[(&str, &str)]) -> bool {
    let mut cmd = Command::new("cargo");
    cmd.args(args).current_dir(root);
    for (k, v) in env {
        cmd.env(k, v);
    }
    match cmd.status() {
        Ok(status) => status.success(),
        Err(e) => {
            eprintln!("sanitize: failed to spawn cargo: {e}");
            false
        }
    }
}

/// Whether `prog args` runs successfully (detection probe; output dropped).
fn probe(root: &Path, prog: &str, args: &[&str]) -> bool {
    Command::new(prog)
        .args(args)
        .current_dir(root)
        .output()
        .map(|o| o.status.success())
        .is_ok_and(|ok| ok)
}

/// Resolves the TSan prerequisites: nightly toolchain with the `rust-src`
/// component (for `-Zbuild-std`) and the host target triple. Returns the
/// triple on success, a skip reason otherwise.
fn tsan_target(root: &Path) -> Result<String, String> {
    let components = Command::new("rustup")
        .args(["component", "list", "--toolchain", "nightly"])
        .current_dir(root)
        .output()
        .map_err(|e| format!("rustup unavailable: {e}"))?;
    if !components.status.success() {
        return Err("nightly toolchain not installed".to_string());
    }
    let listing = String::from_utf8_lossy(&components.stdout).into_owned();
    let has_src = listing
        .lines()
        .any(|l| l.starts_with("rust-src") && l.contains("(installed)"));
    if !has_src {
        return Err("nightly `rust-src` component not installed \
             (rustup component add --toolchain nightly rust-src)"
            .to_string());
    }
    let rustc = Command::new("rustc")
        .args(["-vV"])
        .current_dir(root)
        .output()
        .map_err(|e| format!("rustc unavailable: {e}"))?;
    String::from_utf8_lossy(&rustc.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("host: ").map(str::to_string))
        .ok_or_else(|| "cannot determine host triple".to_string())
}
