//! FP-Growth (Han–Pei–Yin) with per-node statistic accumulation, extended to
//! generalized transactions in the style of FP-tax.
//!
//! Each FP-tree node accumulates the [`StatAccum`] of every transaction
//! routed through it, so conditional pattern bases propagate full statistics
//! exactly like counts — FP-Growth's accumulators are additive tree merges
//! and never iterate rows, which is why this miner needs no cover-bitset
//! kernel. Its hot structures are dense instead: item frequencies and ranks
//! are `ItemId`-indexed arrays (not hash maps), and the per-attribute filter
//! applied when extracting conditional bases uses a precomputed attribute
//! table plus an [`AttrSet`] mask rather than catalog lookups. Generalized
//! transactions put an item *and its ancestors* on the same path; that
//! filter keeps ancestor/descendant (and any same-attribute) pairs out of
//! mined itemsets.
//!
//! A differential-test oracle for the production search and the paper's
//! miner ablation: ungoverned and never checkpointed.

use hdx_items::{ItemCatalog, ItemId, Itemset};
use hdx_stats::StatAccum;

use crate::attrs::AttrSet;
use crate::result::{FrequentItemset, MiningResult};
use crate::transactions::Transactions;
use crate::MiningConfig;

/// Rank sentinel for items below the frequency threshold.
const NO_RANK: u32 = u32::MAX;

struct FpNode {
    item: ItemId,
    parent: usize,
    accum: StatAccum,
    children: Vec<(ItemId, usize)>,
}

struct FpTree {
    /// Arena; index 0 is the root (dummy item).
    nodes: Vec<FpNode>,
    /// Frequent items in descending (count, then ascending id) order, each
    /// with the indices of its nodes.
    header: Vec<(ItemId, Vec<usize>)>,
}

impl FpTree {
    /// Builds a tree from weighted paths, keeping only items whose summed
    /// count reaches `min_count`. `n_items` bounds every item id in `paths`
    /// and sizes the dense frequency/rank tables.
    fn build(paths: &[(Vec<ItemId>, StatAccum)], min_count: u64, n_items: usize) -> FpTree {
        // Pass 1: item frequencies into a dense id-indexed table.
        let mut freq: Vec<u64> = vec![0; n_items];
        for (items, accum) in paths {
            for &item in items {
                freq[item.index()] += accum.count();
            }
        }
        let mut order: Vec<(ItemId, u64)> = freq
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= min_count)
            .map(|(i, &c)| (ItemId(i as u32), c))
            .collect();
        order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut rank: Vec<u32> = vec![NO_RANK; n_items];
        for (r, &(item, _)) in order.iter().enumerate() {
            rank[item.index()] = r as u32;
        }

        let mut tree = FpTree {
            nodes: vec![FpNode {
                item: ItemId(u32::MAX),
                parent: 0,
                accum: StatAccum::new(),
                children: Vec::new(),
            }],
            header: order.iter().map(|&(item, _)| (item, Vec::new())).collect(),
        };

        // Pass 2: insert paths.
        let mut sorted_items: Vec<ItemId> = Vec::new();
        for (items, accum) in paths {
            sorted_items.clear();
            sorted_items.extend(items.iter().copied().filter(|i| rank[i.index()] != NO_RANK));
            sorted_items.sort_by_key(|i| rank[i.index()]);
            let mut cur = 0usize;
            for &item in &sorted_items {
                let next = match tree.nodes[cur].children.iter().find(|&&(ci, _)| ci == item) {
                    Some(&(_, idx)) => idx,
                    None => {
                        let idx = tree.nodes.len();
                        tree.nodes.push(FpNode {
                            item,
                            parent: cur,
                            accum: StatAccum::new(),
                            children: Vec::new(),
                        });
                        tree.nodes[cur].children.push((item, idx));
                        tree.header[rank[item.index()] as usize].1.push(idx);
                        idx
                    }
                };
                tree.nodes[next].accum.merge(accum);
                cur = next;
            }
        }
        tree
    }

    fn is_empty(&self) -> bool {
        self.header.is_empty()
    }

    /// The path of items from `node`'s parent up to (excluding) the root.
    fn prefix_path(&self, node: usize) -> Vec<ItemId> {
        let mut path = Vec::new();
        let mut cur = self.nodes[node].parent;
        while cur != 0 {
            path.push(self.nodes[cur].item);
            cur = self.nodes[cur].parent;
        }
        path
    }
}

/// Mines all frequent itemsets via FP-Growth.
pub fn fpgrowth(
    transactions: &Transactions,
    catalog: &ItemCatalog,
    config: &MiningConfig,
) -> MiningResult {
    let n = transactions.n_rows();
    let min_count = config.min_count(n);

    let n_items = transactions
        .max_item_id()
        .map_or(0, |i| i.index() + 1)
        .max(catalog.len());
    let attr_table: Vec<u16> = catalog.attr_table().iter().map(|a| a.0).collect();

    let paths: Vec<(Vec<ItemId>, StatAccum)> = (0..n)
        .map(|row| {
            let mut acc = StatAccum::new();
            acc.push(transactions.outcome(row));
            (transactions.items(row).to_vec(), acc)
        })
        .collect();
    let tree = FpTree::build(&paths, min_count, n_items);

    let ctx = MineCtx {
        attr_table: &attr_table,
        min_count,
        max_len: config.max_len,
        n_items,
    };
    let mut out = Vec::new();
    mine_tree(&ctx, &tree, &mut Vec::new(), &mut AttrSet::new(), &mut out);

    MiningResult::complete(out, n, transactions.global_accum())
}

/// Read-only recursion context for [`mine_tree`].
struct MineCtx<'a> {
    /// Raw attribute id per item id (dense, from the catalog).
    attr_table: &'a [u16],
    min_count: u64,
    max_len: Option<usize>,
    /// Dense table size for conditional-tree builds.
    n_items: usize,
}

/// Mines `tree` bottom-up: each header entry is emitted (with `suffix`)
/// and its conditional tree recursed into.
fn mine_tree(
    ctx: &MineCtx<'_>,
    tree: &FpTree,
    suffix: &mut Vec<ItemId>,
    suffix_attrs: &mut AttrSet,
    out: &mut Vec<FrequentItemset>,
) {
    // Least-frequent first (classic bottom-up header traversal).
    for (item, node_indices) in tree.header.iter().rev() {
        let attr = ctx.attr_table[item.index()];
        debug_assert!(
            !suffix_attrs.contains(attr),
            "conditional base filtering must exclude suffix attributes"
        );
        let mut accum = StatAccum::new();
        for &idx in node_indices {
            accum.merge(&tree.nodes[idx].accum);
        }
        hdx_obs::counter_add!(MineCandidatesGenerated, 1);
        if accum.count() < ctx.min_count {
            hdx_obs::counter_add!(MineCandidatesPrunedSupport, 1);
            continue;
        }
        let mut itemset_items: Vec<ItemId> = suffix.clone();
        itemset_items.push(*item);
        itemset_items.sort_unstable();
        out.push(FrequentItemset {
            itemset: Itemset::from_sorted_unchecked(itemset_items),
            accum,
        });

        if ctx.max_len.is_some_and(|m| suffix.len() + 1 >= m) {
            continue;
        }

        // Conditional pattern base, filtered by attribute.
        let mut paths: Vec<(Vec<ItemId>, StatAccum)> = Vec::new();
        for &idx in node_indices {
            let mut path = tree.prefix_path(idx);
            path.retain(|&p| {
                let pa = ctx.attr_table[p.index()];
                let keep = pa != attr && !suffix_attrs.contains(pa);
                if !keep {
                    hdx_obs::counter_add!(MineCandidatesPrunedAttr, 1);
                }
                keep
            });
            if !path.is_empty() {
                paths.push((path, tree.nodes[idx].accum));
            }
        }
        if paths.is_empty() {
            continue;
        }
        let cond = FpTree::build(&paths, ctx.min_count, ctx.n_items);
        if cond.is_empty() {
            continue;
        }
        suffix.push(*item);
        suffix_attrs.insert(attr);
        mine_tree(ctx, &cond, suffix, suffix_attrs, out);
        suffix.pop();
        suffix_attrs.remove(attr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_data::AttrId;
    use hdx_stats::Outcome;
    use std::collections::HashSet;

    use hdx_items::Item;

    fn catalog3() -> (ItemCatalog, Vec<ItemId>) {
        let mut c = ItemCatalog::new();
        let ids = vec![
            c.intern(Item::cat_eq(AttrId(0), 0, "a", "0")),
            c.intern(Item::cat_eq(AttrId(1), 0, "b", "0")),
            c.intern(Item::cat_eq(AttrId(2), 0, "c", "0")),
        ];
        (c, ids)
    }

    #[test]
    fn matches_hand_computed_counts() {
        let (catalog, ids) = catalog3();
        let rows = vec![
            vec![ids[0], ids[1], ids[2]],
            vec![ids[0], ids[1]],
            vec![ids[0], ids[2]],
            vec![ids[1], ids[2]],
            vec![ids[0]],
        ];
        let t = Transactions::from_rows(rows, vec![Outcome::Bool(true); 5]);
        let r = fpgrowth(
            &t,
            &catalog,
            &MiningConfig {
                min_support: 0.4,
                ..MiningConfig::default()
            },
        );
        // min_count = 2. Counts: a=4, b=3, c=3, ab=2, ac=2, bc=2, abc=1.
        let count = |items: &[ItemId]| {
            r.find(&Itemset::from_sorted_unchecked(items.to_vec()))
                .map(|fi| fi.accum.count())
        };
        assert_eq!(count(&[ids[0]]), Some(4));
        assert_eq!(count(&[ids[1]]), Some(3));
        assert_eq!(count(&[ids[0], ids[1]]), Some(2));
        assert_eq!(count(&[ids[1], ids[2]]), Some(2));
        assert_eq!(count(&ids), None, "abc has support 1 < 2");
        assert_eq!(r.itemsets.len(), 6);
    }

    #[test]
    fn statistics_propagate_through_conditional_trees() {
        let (catalog, ids) = catalog3();
        let rows = vec![
            vec![ids[0], ids[1]],
            vec![ids[0], ids[1]],
            vec![ids[0]],
            vec![ids[1]],
        ];
        let outcomes = vec![
            Outcome::Real(1.0),
            Outcome::Real(3.0),
            Outcome::Real(100.0),
            Outcome::Undefined,
        ];
        let t = Transactions::from_rows(rows, outcomes);
        let r = fpgrowth(
            &t,
            &catalog,
            &MiningConfig {
                min_support: 0.25,
                ..MiningConfig::default()
            },
        );
        let ab = r
            .find(&Itemset::from_sorted_unchecked(vec![ids[0], ids[1]]))
            .unwrap();
        assert_eq!(ab.accum.count(), 2);
        assert_eq!(ab.accum.statistic(), Some(2.0));
        let b = r.find(&Itemset::singleton(ids[1])).unwrap();
        assert_eq!(b.accum.count(), 3);
        assert_eq!(b.accum.valid_count(), 2);
    }

    #[test]
    fn ancestor_descendant_pairs_excluded() {
        // Same-attribute items on one path (generalized transactions).
        let mut c = ItemCatalog::new();
        let parent = c.intern(Item::cat_eq(AttrId(0), 0, "x", "coarse"));
        let child = c.intern(Item::cat_eq(AttrId(0), 1, "x", "fine"));
        let other = c.intern(Item::cat_eq(AttrId(1), 0, "y", "v"));
        let rows = vec![vec![parent, child, other]; 3];
        let t = Transactions::from_rows(rows, vec![Outcome::Bool(false); 3]);
        let r = fpgrowth(
            &t,
            &c,
            &MiningConfig {
                min_support: 0.5,
                ..MiningConfig::default()
            },
        );
        assert!(r
            .find(&Itemset::from_sorted_unchecked(vec![parent, child]))
            .is_none());
        assert!(r
            .find(&Itemset::from_sorted_unchecked(vec![parent, other]))
            .is_some());
        assert!(r
            .find(&Itemset::from_sorted_unchecked(vec![child, other]))
            .is_some());
        // Each frequent itemset has distinct attributes.
        for fi in &r.itemsets {
            let attrs: HashSet<AttrId> = fi.itemset.items().iter().map(|&i| c.attr_of(i)).collect();
            assert_eq!(attrs.len(), fi.itemset.len());
        }
    }

    #[test]
    fn empty_database_yields_nothing() {
        let (catalog, _) = catalog3();
        let t = Transactions::from_rows(vec![], vec![]);
        let r = fpgrowth(&t, &catalog, &MiningConfig::default());
        assert!(r.itemsets.is_empty());
        assert_eq!(r.termination, hdx_governor::Termination::Complete);
    }
}
