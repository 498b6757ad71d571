//! Runtime validators for discretization-tree invariants (paper §V-A).
//!
//! An admissible split keeps support ≥ `st` on **both** children; the tree
//! builder enforces this through `best_split`'s admissibility window, and
//! these validators re-check the finished tree:
//!
//! 1. every non-root node has support ≥ `st` (within float slack);
//! 2. every internal node has exactly two children (binary splits);
//! 3. children partition their parent: supports sum to the parent's.
//!
//! Always compiled; under the `debug-invariants` feature,
//! `TreeDiscretizer::discretize_attribute` validates every tree it returns.

use crate::tree::DiscretizationTree;

/// Slack for comparing supports that were derived from integer row counts
/// divided by `n`.
const SUPPORT_SLACK: f64 = 1e-9;

/// A violated discretization-tree invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeViolation {
    /// A non-root node's support fell below the threshold `st`.
    SupportBelowThreshold {
        /// Node index in [`DiscretizationTree::nodes`].
        node: usize,
        /// The node's support.
        support: f64,
        /// The threshold it had to reach.
        min_support: f64,
    },
    /// An internal node does not have exactly two children.
    NonBinarySplit {
        /// Node index.
        node: usize,
        /// Number of children found.
        n_children: usize,
    },
    /// A node's children supports do not sum to the node's own support.
    ChildrenDoNotPartition {
        /// Node index.
        node: usize,
        /// The node's support.
        support: f64,
        /// Sum of the children's supports.
        children_sum: f64,
    },
}

impl std::fmt::Display for TreeViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeViolation::SupportBelowThreshold {
                node,
                support,
                min_support,
            } => write!(
                f,
                "tree node {node} has support {support} < st = {min_support}"
            ),
            TreeViolation::NonBinarySplit { node, n_children } => {
                write!(f, "tree node {node} has {n_children} children, expected 2")
            }
            TreeViolation::ChildrenDoNotPartition {
                node,
                support,
                children_sum,
            } => write!(
                f,
                "children of tree node {node} sum to support {children_sum}, \
                 expected {support}"
            ),
        }
    }
}

impl std::error::Error for TreeViolation {}

/// Validates the three tree invariants against threshold `min_support`
/// (the discretizer's `st`).
pub fn validate_tree(tree: &DiscretizationTree, min_support: f64) -> Result<(), TreeViolation> {
    for (idx, node) in tree.nodes.iter().enumerate() {
        if idx != DiscretizationTree::ROOT && node.support < min_support - SUPPORT_SLACK {
            return Err(TreeViolation::SupportBelowThreshold {
                node: idx,
                support: node.support,
                min_support,
            });
        }
        if !node.children.is_empty() {
            if node.children.len() != 2 {
                return Err(TreeViolation::NonBinarySplit {
                    node: idx,
                    n_children: node.children.len(),
                });
            }
            let children_sum: f64 = node.children.iter().map(|&c| tree.nodes[c].support).sum();
            if (children_sum - node.support).abs() > SUPPORT_SLACK {
                return Err(TreeViolation::ChildrenDoNotPartition {
                    node: idx,
                    support: node.support,
                    children_sum,
                });
            }
        }
    }
    Ok(())
}

/// Panicking form of [`validate_tree`], run on every tree produced by the
/// discretizer under the `debug-invariants` feature.
#[cfg(feature = "debug-invariants")]
#[expect(
    clippy::panic,
    reason = "an invariant violation is an internal bug: the assert helpers panic by design"
)]
pub(crate) fn assert_tree(tree: &DiscretizationTree, min_support: f64) {
    if let Err(v) = validate_tree(tree, min_support) {
        // An invariant violation is a discretizer bug, never a user error.
        panic!("hdx invariant violated: {v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeNode;
    use hdx_data::AttrId;
    use hdx_items::Interval;

    fn node(support: f64, children: Vec<usize>, depth: usize) -> TreeNode {
        TreeNode {
            interval: Interval::all(),
            item: None,
            support,
            statistic: None,
            divergence: None,
            children,
            depth,
        }
    }

    fn tree(nodes: Vec<TreeNode>) -> DiscretizationTree {
        DiscretizationTree {
            attr: AttrId(0),
            nodes,
        }
    }

    #[test]
    fn valid_tree_passes() {
        let t = tree(vec![
            node(1.0, vec![1, 2], 0),
            node(0.4, vec![], 1),
            node(0.6, vec![], 1),
        ]);
        assert!(validate_tree(&t, 0.3).is_ok());
    }

    #[test]
    fn under_supported_child_rejected() {
        let t = tree(vec![
            node(1.0, vec![1, 2], 0),
            node(0.1, vec![], 1),
            node(0.9, vec![], 1),
        ]);
        assert!(matches!(
            validate_tree(&t, 0.3),
            Err(TreeViolation::SupportBelowThreshold { node: 1, .. })
        ));
    }

    #[test]
    fn non_binary_split_rejected() {
        let t = tree(vec![node(1.0, vec![1], 0), node(0.5, vec![], 1)]);
        assert!(matches!(
            validate_tree(&t, 0.3),
            Err(TreeViolation::NonBinarySplit { node: 0, .. })
        ));
    }

    #[test]
    fn non_partitioning_children_rejected() {
        let t = tree(vec![
            node(1.0, vec![1, 2], 0),
            node(0.4, vec![], 1),
            node(0.4, vec![], 1),
        ]);
        assert!(matches!(
            validate_tree(&t, 0.3),
            Err(TreeViolation::ChildrenDoNotPartition { node: 0, .. })
        ));
    }

    #[test]
    fn root_support_not_thresholded() {
        // A root below st is fine (e.g. many NaN rows); only split products
        // are constrained.
        let t = tree(vec![node(0.2, vec![], 0)]);
        assert!(validate_tree(&t, 0.3).is_ok());
    }
}
