//! Regenerates every paper table and figure in one go, writing each
//! artifact to `results/<name>.txt` (and echoing progress to stdout).
//!
//! ```text
//! cargo run --release -p hdx-bench --bin runall -- --scale 0.25
//! ```

use hdx_bench::{experiments, measure, Args};

fn main() -> std::io::Result<()> {
    let args = Args::from_env();
    let out_dir = std::path::Path::new("results");
    std::fs::create_dir_all(out_dir)?;

    type Runner = fn(Args) -> String;
    let runners: Vec<(&str, Runner)> = vec![
        ("table1", experiments::table1::run),
        ("table2", experiments::table2::run),
        ("table3", experiments::table3::run),
        ("table4", experiments::table4::run),
        ("fig1", experiments::fig1::run),
        ("fig2", experiments::fig2::run),
        ("fig3", experiments::fig3::run),
        ("fig4", experiments::fig4::run),
        ("fig5", experiments::fig5::run),
        ("fig6", experiments::fig6::run),
        ("fig7", experiments::fig7::run),
        ("fig8", experiments::fig8::run),
        ("ablation_combined_tree", experiments::ablation::run),
    ];
    let mut total_ns = 0u64;
    for (name, run) in runners {
        let (output, ns) = measure(|| run(args));
        let path = out_dir.join(format!("{name}.txt"));
        std::fs::write(&path, &output)?;
        total_ns += ns;
        println!(
            "{name:>24}  {:>8.2}s  -> {}",
            ns as f64 / 1e9,
            path.display()
        );
    }
    println!(
        "\nall artifacts regenerated in {:.1}s (scale {}, seed {})",
        total_ns as f64 / 1e9,
        args.scale,
        args.seed
    );
    Ok(())
}
