//! Fig. 2: (a) the highest divergence and (b) the execution time of base
//! (dashed in the paper) vs hierarchical exploration, across the seven
//! classification datasets, sweeping the exploration support `s`
//! (`st = 0.1`, divergence gain criterion). The table also shows the
//! hierarchical run's discretization time, which §VI-F calls "always
//! negligible compared to exploration".

use hdx_core::{ExplorationMode, HDivExplorerConfig};
use hdx_datasets::classification_suite;

use crate::experiments::common::run_exploration;
use crate::plot::line_chart;
use crate::util::{fmt_table, Args};

/// The support sweep of Figs. 2–4.
pub const SUPPORTS: [f64; 4] = [0.05, 0.1, 0.15, 0.2];

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Dataset name.
    pub dataset: String,
    /// Exploration support.
    pub s: f64,
    /// Base (leaf-only) max divergence.
    pub base_div: f64,
    /// Hierarchical max divergence.
    pub hier_div: f64,
    /// Base mining seconds.
    pub base_secs: f64,
    /// Hierarchical mining seconds.
    pub hier_secs: f64,
    /// Hierarchical discretization seconds.
    pub hier_disc_secs: f64,
}

/// Computes the sweep.
pub fn points(args: Args) -> Vec<Point> {
    let mut out = Vec::new();
    for dataset in classification_suite(args.scale, args.seed) {
        for s in SUPPORTS {
            let config = HDivExplorerConfig {
                min_support: s,
                tree_min_support: 0.1,
                ..HDivExplorerConfig::default()
            };
            let (_, base) = run_exploration(&dataset, config, ExplorationMode::Base);
            let (_, hier) = run_exploration(&dataset, config, ExplorationMode::Generalized);
            out.push(Point {
                dataset: dataset.name.clone(),
                s,
                base_div: base.max_divergence,
                hier_div: hier.max_divergence,
                base_secs: base.elapsed_secs,
                hier_secs: hier.elapsed_secs,
                hier_disc_secs: hier.discretization_secs,
            });
        }
    }
    out
}

/// Renders Fig. 2 as two series tables.
pub fn run(args: Args) -> String {
    let pts = points(args);
    let body: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.dataset.clone(),
                format!("{}", p.s),
                format!("{:.3}", p.base_div),
                format!("{:.3}", p.hier_div),
                format!("{:.4}", p.base_secs),
                format!("{:.4}", p.hier_secs),
                format!("{:.4}", p.hier_disc_secs),
            ]
        })
        .collect();
    let mut out = format!(
        "Fig. 2 — max divergence (a) and execution time (b), base vs hierarchical\n\
         paper reference: hierarchical (solid) dominates base (dashed) on every dataset\n\
         and every support; hierarchical costs more time because it mines more items;\n\
         discretization time is always negligible compared to exploration (§VI-F)\n\n{}",
        fmt_table(
            &[
                "dataset",
                "s",
                "maxΔ base",
                "maxΔ hier",
                "t base (s)",
                "t hier (s)",
                "t disc (s)"
            ],
            &body
        ),
    );
    // Fig. 2a rendered per dataset.
    let x_labels: Vec<String> = SUPPORTS.iter().map(|s| format!("{s}")).collect();
    let mut datasets: Vec<String> = pts.iter().map(|p| p.dataset.clone()).collect();
    datasets.dedup();
    for name in datasets {
        let of = |f: &dyn Fn(&Point) -> f64| -> Vec<f64> {
            pts.iter().filter(|p| p.dataset == name).map(f).collect()
        };
        out.push_str(&format!("\n{name}: max divergence vs s\n"));
        out.push_str(&line_chart(
            &x_labels,
            &[
                ("base", of(&|p| p.base_div)),
                ("hierarchical", of(&|p| p.hier_div)),
            ],
            9,
        ));
    }
    out
}
