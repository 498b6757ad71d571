//! Fig. 3: (a) folktables highest income divergence, base vs hierarchical;
//! (b) divergence-based vs entropy-based split criteria on the
//! boolean-outcome datasets, with each criterion's discretization time.

use hdx_core::{ExplorationMode, HDivExplorerConfig};
use hdx_datasets::{classification_suite, default_rows, folktables};
use hdx_discretize::GainCriterion;

use crate::experiments::common::run_exploration;
use crate::experiments::fig2::SUPPORTS;
use crate::util::{fmt_table, Args};

/// Fig. 3a point: folktables base vs hierarchical.
#[derive(Debug, Clone)]
pub struct FolkPoint {
    /// Exploration support.
    pub s: f64,
    /// Base max income divergence.
    pub base_div: f64,
    /// Hierarchical max income divergence.
    pub hier_div: f64,
}

/// Fig. 3b point: divergence vs entropy split criterion (hierarchical).
#[derive(Debug, Clone)]
pub struct CriterionPoint {
    /// Dataset name.
    pub dataset: String,
    /// Exploration support.
    pub s: f64,
    /// Max divergence with the divergence criterion.
    pub divergence_criterion: f64,
    /// Max divergence with the entropy criterion.
    pub entropy_criterion: f64,
    /// Discretization seconds with the divergence criterion.
    pub divergence_disc_secs: f64,
    /// Discretization seconds with the entropy criterion.
    pub entropy_disc_secs: f64,
}

/// Computes Fig. 3a.
pub fn folk_points(args: Args) -> Vec<FolkPoint> {
    let d = folktables(args.rows(default_rows::FOLKTABLES), args.seed);
    SUPPORTS
        .iter()
        .map(|&s| {
            let config = HDivExplorerConfig {
                min_support: s,
                max_len: Some(4),
                ..HDivExplorerConfig::default()
            };
            let (_, base) = run_exploration(&d, config, ExplorationMode::Base);
            let (_, hier) = run_exploration(&d, config, ExplorationMode::Generalized);
            FolkPoint {
                s,
                base_div: base.max_divergence,
                hier_div: hier.max_divergence,
            }
        })
        .collect()
}

/// Computes Fig. 3b.
pub fn criterion_points(args: Args) -> Vec<CriterionPoint> {
    let mut out = Vec::new();
    for dataset in classification_suite(args.scale, args.seed) {
        for s in SUPPORTS {
            let mk = |criterion| HDivExplorerConfig {
                min_support: s,
                criterion,
                ..HDivExplorerConfig::default()
            };
            let (_, div) = run_exploration(
                &dataset,
                mk(GainCriterion::Divergence),
                ExplorationMode::Generalized,
            );
            let (_, ent) = run_exploration(
                &dataset,
                mk(GainCriterion::Entropy),
                ExplorationMode::Generalized,
            );
            out.push(CriterionPoint {
                dataset: dataset.name.clone(),
                s,
                divergence_criterion: div.max_divergence,
                entropy_criterion: ent.max_divergence,
                divergence_disc_secs: div.discretization_secs,
                entropy_disc_secs: ent.discretization_secs,
            });
        }
    }
    out
}

/// Renders Fig. 3.
pub fn run(args: Args) -> String {
    let folk: Vec<Vec<String>> = folk_points(args)
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.s),
                format!("{:.1}k", p.base_div / 1_000.0),
                format!("{:.1}k", p.hier_div / 1_000.0),
            ]
        })
        .collect();
    let crit: Vec<Vec<String>> = criterion_points(args)
        .iter()
        .map(|p| {
            vec![
                p.dataset.clone(),
                format!("{}", p.s),
                format!("{:.3}", p.divergence_criterion),
                format!("{:.3}", p.entropy_criterion),
                format!("{:.4}", p.divergence_disc_secs),
                format!("{:.4}", p.entropy_disc_secs),
            ]
        })
        .collect();
    format!(
        "Fig. 3a — folktables highest Δincome, base vs hierarchical\n\
         paper reference: hierarchical above base across the sweep (~119k vs ~105k at s=0.025)\n\n{}\n\
         Fig. 3b — divergence vs entropy split criteria (hierarchical exploration)\n\
         paper reference: the two criteria have similar effectiveness; divergence also\n\
         applies to non-probability outcomes\n\n{}",
        fmt_table(&["s", "maxΔ base", "maxΔ hier"], &folk),
        fmt_table(
            &[
                "dataset",
                "s",
                "maxΔ divergence-crit",
                "maxΔ entropy-crit",
                "t disc divergence (s)",
                "t disc entropy (s)"
            ],
            &crit
        ),
    )
}
