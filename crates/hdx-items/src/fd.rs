//! Functional-dependency-derived taxonomies (§IV-B of the paper, following
//! the TANE line of work it cites).
//!
//! When a categorical attribute `A` functionally determines another
//! categorical attribute `B` (every `A`-level always co-occurs with the same
//! `B`-level — a city determines its state), `B`'s levels act as
//! generalizations of `A`'s: the taxonomy groups each `A`-level under its
//! `B`-level. [`fd_taxonomy`] derives that taxonomy from data, tolerating a
//! configurable fraction of violating rows (approximate FDs), and
//! [`discover_fd_taxonomies`] scans a whole frame for usable dependencies.

use std::collections::HashMap;

use hdx_data::{CategoricalColumn, DataFrame, NULL_CODE};

use crate::taxonomy::Taxonomy;

/// Derives a taxonomy for the `child` attribute from the (approximate)
/// functional dependency `child → parent`.
///
/// Each child level is grouped under the parent level it most frequently
/// co-occurs with. Returns `None` when:
///
/// * the violation rate (rows whose parent level differs from their child
///   level's majority parent) exceeds `tolerance`;
/// * the dependency is trivial — fewer than two distinct groups, or no
///   group merging at all (as many groups as child levels).
///
/// # Panics
/// Panics when the columns differ in length or `tolerance` is outside
/// `[0, 1)`.
pub fn fd_taxonomy(
    child: &CategoricalColumn,
    parent: &CategoricalColumn,
    tolerance: f64,
) -> Option<Taxonomy> {
    assert_eq!(child.len(), parent.len(), "columns must be parallel");
    assert!(
        (0.0..1.0).contains(&tolerance),
        "tolerance must be in [0, 1)"
    );
    // Co-occurrence counts child code → (parent code → rows).
    let mut cooc: HashMap<u32, HashMap<u32, usize>> = HashMap::new();
    let mut total = 0usize;
    for row in 0..child.len() {
        let c = child.code(row);
        let p = parent.code(row);
        if c == NULL_CODE || p == NULL_CODE {
            continue;
        }
        *cooc.entry(c).or_default().entry(p).or_insert(0) += 1;
        total += 1;
    }
    if total == 0 {
        return None;
    }

    let mut taxonomy = Taxonomy::new();
    let mut violations = 0usize;
    let mut groups: std::collections::HashSet<u32> = std::collections::HashSet::new();
    let mut n_children = 0usize;
    for (c, parents) in &cooc {
        #[expect(
            clippy::expect_used,
            reason = "every co-occurrence entry holds a parent"
        )]
        let (&majority, &count) = parents
            .iter()
            .max_by_key(|&(_, &n)| n)
            .expect("non-empty co-occurrence");
        violations += parents.values().sum::<usize>() - count;
        groups.insert(majority);
        n_children += 1;
        taxonomy.set_group(child.level(*c), parent.level(majority));
    }
    let error = violations as f64 / total as f64;
    if error > tolerance {
        return None;
    }
    // Trivial taxonomies carry no generalization power.
    if groups.len() < 2 || groups.len() >= n_children {
        return None;
    }
    Some(taxonomy)
}

/// Scans every ordered pair of categorical attributes of `df` for usable
/// functional dependencies and returns, per child attribute, the taxonomy of
/// its *most compressing* parent (fewest groups).
///
/// Returns `(child attribute name, taxonomy)` pairs.
pub fn discover_fd_taxonomies(df: &DataFrame, tolerance: f64) -> Vec<(String, Taxonomy)> {
    let cats = df.schema().categorical_ids();
    let mut out = Vec::new();
    for &child_attr in &cats {
        let child = df.categorical(child_attr);
        let mut best: Option<(usize, Taxonomy)> = None;
        for &parent_attr in &cats {
            if parent_attr == child_attr {
                continue;
            }
            let parent = df.categorical(parent_attr);
            if parent.n_levels() >= child.n_levels() {
                continue; // cannot compress
            }
            if let Some(tax) = fd_taxonomy(child, parent, tolerance) {
                let n_groups = parent.n_levels();
                if best.as_ref().is_none_or(|(g, _)| n_groups < *g) {
                    best = Some((n_groups, tax));
                }
            }
        }
        if let Some((_, tax)) = best {
            out.push((df.schema().name(child_attr).to_string(), tax));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_data::{DataFrameBuilder, Value};

    fn columns(pairs: &[(&str, &str)]) -> (CategoricalColumn, CategoricalColumn) {
        let child = CategoricalColumn::from_values(pairs.iter().map(|p| p.0));
        let parent = CategoricalColumn::from_values(pairs.iter().map(|p| p.1));
        (child, parent)
    }

    #[test]
    fn exact_fd_yields_taxonomy() {
        let (city, state) = columns(&[
            ("sf", "CA"),
            ("la", "CA"),
            ("nyc", "NY"),
            ("sf", "CA"),
            ("buffalo", "NY"),
        ]);
        let tax = fd_taxonomy(&city, &state, 0.0).expect("exact FD");
        assert_eq!(tax.path("sf"), &["CA".to_string()]);
        assert_eq!(tax.path("la"), &["CA".to_string()]);
        assert_eq!(tax.path("nyc"), &["NY".to_string()]);
    }

    #[test]
    fn violations_respect_tolerance() {
        // One dirty row: sf → NY.
        let (city, state) = columns(&[
            ("sf", "CA"),
            ("sf", "CA"),
            ("sf", "CA"),
            ("sf", "NY"),
            ("la", "CA"),
            ("nyc", "NY"),
            ("buffalo", "NY"),
            ("nyc", "NY"),
        ]);
        assert!(fd_taxonomy(&city, &state, 0.0).is_none(), "strict fails");
        let tax = fd_taxonomy(&city, &state, 0.2).expect("approximate FD holds");
        assert_eq!(tax.path("sf"), &["CA".to_string()], "majority wins");
    }

    #[test]
    fn trivial_dependencies_rejected() {
        // Single parent level: no generalization power.
        let (child, constant) = columns(&[("a", "x"), ("b", "x"), ("c", "x")]);
        assert!(fd_taxonomy(&child, &constant, 0.0).is_none());
        // Bijection: as many groups as levels.
        let (child2, mirror) = columns(&[("a", "1"), ("b", "2"), ("c", "3")]);
        assert!(fd_taxonomy(&child2, &mirror, 0.0).is_none());
    }

    #[test]
    fn nulls_are_ignored() {
        let mut city = CategoricalColumn::new();
        let mut state = CategoricalColumn::new();
        for (c, s) in [
            ("sf", Some("CA")),
            ("la", Some("CA")),
            ("nyc", Some("NY")),
            ("reno", Some("NV")),
        ] {
            city.push(c);
            match s {
                Some(s) => state.push(s),
                None => state.push_null(),
            }
        }
        city.push_null();
        state.push("CA");
        let tax = fd_taxonomy(&city, &state, 0.0).expect("FD over non-null rows");
        assert_eq!(tax.path("sf"), &["CA".to_string()]);
    }

    #[test]
    fn discovery_picks_most_compressing_parent() {
        let mut b = DataFrameBuilder::new();
        b.add_categorical("city").unwrap();
        b.add_categorical("state").unwrap();
        b.add_categorical("coast").unwrap();
        for (city, state, coast) in [
            ("sf", "CA", "west"),
            ("la", "CA", "west"),
            ("seattle", "WA", "west"),
            ("nyc", "NY", "east"),
            ("boston", "MA", "east"),
            ("buffalo", "NY", "east"),
        ] {
            b.push_row(vec![
                Value::Cat(city.into()),
                Value::Cat(state.into()),
                Value::Cat(coast.into()),
            ])
            .unwrap();
        }
        let df = b.finish();
        let found = discover_fd_taxonomies(&df, 0.0);
        // city → coast (2 groups) beats city → state (4 groups);
        // state → coast also discovered.
        let city_tax = found
            .iter()
            .find(|(name, _)| name == "city")
            .map(|(_, t)| t)
            .expect("city taxonomy discovered");
        assert_eq!(city_tax.path("sf"), &["west".to_string()]);
        let state_tax = found
            .iter()
            .find(|(name, _)| name == "state")
            .map(|(_, t)| t)
            .expect("state taxonomy discovered");
        assert_eq!(state_tax.path("NY"), &["east".to_string()]);
        // coast has no valid parent.
        assert!(!found.iter().any(|(name, _)| name == "coast"));
    }

    #[test]
    fn all_null_columns_yield_none() {
        let mut a = CategoricalColumn::new();
        let mut b = CategoricalColumn::new();
        for _ in 0..4 {
            a.push_null();
            b.push_null();
        }
        assert!(fd_taxonomy(&a, &b, 0.5).is_none());
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn length_mismatch_panics() {
        let a = CategoricalColumn::from_values(["x"]);
        let b = CategoricalColumn::from_values(["y", "z"]);
        let _ = fd_taxonomy(&a, &b, 0.0);
    }
}
