//! The two-phase vertical search against the one it replaced, kept here
//! verbatim as the oracle: `dfs` and `explore_root` as they ran before each
//! prefix counted its candidate list once, with the `AttrSet` prefix mask
//! they kept the one-item-per-attribute rule with, and the serial root loop
//! of `explore_roots`. The only edit is `Bitset::and_count`, which the
//! library no longer has: the `AndCount` trait below restores it with its
//! old body.
//!
//! At one thread both searches must emit the same itemsets in the same
//! order, with accumulators equal bit for bit, and charge the governor the
//! same `itemsets` and `candidate_bytes`: complete runs at every `max_len`,
//! runs cut by an itemset cap or a candidate-byte cap mid-search, in base
//! and generalized mode, on compas (fpr), folktables (numeric target),
//! synthetic-peak (error rate), compas with 20% nulls and random
//! transaction databases. At four threads the production search must find
//! the same set.

use h_divexplorer::datasets::{compas, folktables, inject_nulls, synthetic_peak, Dataset};
use h_divexplorer::governor::{Governor, RunBudget};
use h_divexplorer::items::{Bitset, Item, ItemCatalog, ItemId, Itemset};
use h_divexplorer::mining::{mine_governed, FrequentItemset, MiningConfig, Transactions};
use h_divexplorer::stats::{Outcome, OutcomePlanes};
use hdx_bench::experiments::{outcomes_for, pipeline_for};
use proptest::prelude::*;

// ---- The search the two-phase DFS replaced, verbatim ----

/// A set of raw attribute ids (`AttrId.0`) with O(1) membership for ids
/// below 128 and a linear-scan spill vector beyond.
#[derive(Debug, Default)]
pub(crate) struct AttrSet {
    /// Membership mask for attribute ids `0..128`.
    mask: u128,
    /// Attribute ids `>= 128`, unordered, no duplicates.
    spill: Vec<u16>,
}

impl AttrSet {
    /// An empty set.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Whether `attr` is a member.
    #[inline]
    pub(crate) fn contains(&self, attr: u16) -> bool {
        if attr < 128 {
            self.mask & (1u128 << attr) != 0
        } else {
            self.spill.contains(&attr)
        }
    }

    /// Inserts `attr` (idempotent).
    #[inline]
    pub(crate) fn insert(&mut self, attr: u16) {
        if attr < 128 {
            self.mask |= 1u128 << attr;
        } else if !self.spill.contains(&attr) {
            self.spill.push(attr);
        }
    }

    /// Removes `attr` (no-op when absent).
    #[inline]
    pub(crate) fn remove(&mut self, attr: u16) {
        if attr < 128 {
            self.mask &= !(1u128 << attr);
        } else {
            self.spill.retain(|&a| a != attr);
        }
    }
}

/// The deleted `Bitset::and_count`, with its old body.
trait AndCount {
    /// `|self ∩ other|` without materialising the intersection.
    fn and_count(&self, other: &Bitset) -> usize;
}

impl AndCount for Bitset {
    fn and_count(&self, other: &Bitset) -> usize {
        assert_eq!(self.len(), other.len(), "bitset capacity mismatch");
        self.words()
            .iter()
            .zip(other.words())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }
}

/// Approximate heap bytes of one cover bitset, charged per *materialised*
/// candidate intersection against the governor's candidate-byte budget.
fn cover_bytes(n_rows: usize) -> u64 {
    (n_rows.div_ceil(8) as u64).max(8)
}

/// A frequent single item: its id, raw attribute, support and (borrowed)
/// cover.
struct FreqItem<'a> {
    item: ItemId,
    attr: u16,
    count: u64,
    cover: &'a Bitset,
}

/// The frequent single items of `transactions`, ascending by id, with their
/// attribute and support precomputed for the DFS inner loop.
fn frequent_items<'a>(
    transactions: &'a Transactions,
    catalog: &ItemCatalog,
    min_count: u64,
) -> Vec<FreqItem<'a>> {
    transactions
        .covers()
        .iter()
        .filter_map(|(item, cover)| {
            let count = cover.count() as u64;
            (count >= min_count).then(|| FreqItem {
                item: *item,
                attr: catalog.attr_of(*item).0,
                count,
                cover,
            })
        })
        .collect()
}

/// One reusable cover buffer per attainable recursion depth: prefixes can
/// grow to `min(max_len, #distinct frequent attributes)` items, and a joint
/// cover is only materialised for prefixes that can still be extended, so
/// this pool is never exhausted.
fn scratch_pool(n_rows: usize, frequent: &[FreqItem], max_len: Option<usize>) -> Vec<Bitset> {
    let mut attrs: Vec<u16> = frequent.iter().map(|f| f.attr).collect();
    attrs.sort_unstable();
    attrs.dedup();
    let depth = max_len.unwrap_or(usize::MAX).min(attrs.len());
    (0..depth).map(|_| Bitset::new(n_rows)).collect()
}

/// Read-only search context shared by every [`explore_roots`] call of a
/// run.
struct DfsCtx<'a> {
    frequent: &'a [FreqItem<'a>],
    planes: &'a OutcomePlanes,
    min_count: u64,
    max_len: Option<usize>,
    governor: &'a Governor,
    n_rows: usize,
    cover_bytes: u64,
}

impl DfsCtx<'_> {
    /// A fresh [`scratch_pool`] for one searching thread.
    fn scratch(&self) -> Vec<Bitset> {
        let scratch = scratch_pool(self.n_rows, self.frequent, self.max_len);
        hdx_obs::gauge_max!(
            MineScratchPoolBytes,
            scratch.len() as u64 * self.cover_bytes
        );
        scratch
    }
}

/// Depth-first extension of `prefix_items` (whose rows are `prefix_cover`
/// and whose attributes are `prefix_attrs`) with items from `start` onward.
///
/// `scratch` holds one joint-cover buffer per remaining depth; the frequent
/// path writes into `scratch[0]` and recurses with the rest, so the whole
/// search allocates nothing beyond the cloned item lists of emitted
/// itemsets. Returns early (with whatever was emitted so far) once the
/// governor trips.
fn dfs(
    ctx: &DfsCtx<'_>,
    prefix_items: &mut Vec<ItemId>,
    prefix_attrs: &mut AttrSet,
    prefix_cover: &Bitset,
    start: usize,
    scratch: &mut [Bitset],
    out: &mut Vec<FrequentItemset>,
) {
    for (idx, cand) in ctx.frequent.iter().enumerate().skip(start) {
        if !ctx.governor.keep_going() {
            return;
        }
        hdx_obs::counter_add!(MineCandidatesGenerated, 1);
        if prefix_attrs.contains(cand.attr) {
            hdx_obs::counter_add!(MineCandidatesPrunedAttr, 1);
            continue;
        }
        // Count-first pruning: infrequent candidates cost one fused
        // AND+popcount and nothing else.
        let count = prefix_cover.and_count(cand.cover) as u64;
        if count < ctx.min_count {
            hdx_obs::counter_add!(MineCandidatesPrunedSupport, 1);
            continue;
        }
        // Charge the emission *before* pushing: on a refused charge nothing
        // is emitted, so emitted itemsets always have exact accumulators and
        // the itemset counter always equals the number of emissions.
        if !ctx.governor.record_itemsets(1) {
            return;
        }
        // ALLOC: reusable prefix buffer — grows at most once per depth and
        // is popped on unwind, so the steady state allocates nothing.
        prefix_items.push(cand.item);
        let deeper =
            ctx.max_len.is_none_or(|m| prefix_items.len() < m) && idx + 1 < ctx.frequent.len();
        if deeper {
            if let Some((joint, rest)) = scratch.split_first_mut() {
                // Materialising the joint cover is the only per-candidate
                // byte cost; charge it now. On refusal, emit the
                // already-charged itemset through the fused pair kernel
                // (no materialisation) and unwind.
                if !ctx.governor.record_candidate_bytes(ctx.cover_bytes) {
                    // ALLOC: emission — the cloned item list is the
                    // documented per-result cost, charged to the governor.
                    out.push(FrequentItemset {
                        itemset: Itemset::from_sorted_unchecked(prefix_items.clone()),
                        accum: ctx.planes.accum_pair(
                            prefix_cover.words(),
                            cand.cover.words(),
                            count,
                        ),
                    });
                    prefix_items.pop();
                    return;
                }
                // Fused intersect-assign-accumulate: the joint cover is
                // written and folded into the accumulator in one blocked
                // pass, so each row block is consumed while cache-hot.
                let accum = ctx.planes.accum_assign_pair(
                    prefix_cover.words(),
                    cand.cover.words(),
                    joint.words_mut(),
                    count,
                );
                // ALLOC: emission — see above; the joint cover itself goes
                // into the pre-sized scratch pool, not a fresh allocation.
                out.push(FrequentItemset {
                    itemset: Itemset::from_sorted_unchecked(prefix_items.clone()),
                    accum,
                });
                prefix_attrs.insert(cand.attr);
                dfs(ctx, prefix_items, prefix_attrs, joint, idx + 1, rest, out);
                prefix_attrs.remove(cand.attr);
            } else {
                // Unreachable: the pool depth covers every attainable prefix
                // length. Degrade to a leaf emission rather than crash.
                debug_assert!(false, "scratch pool exhausted");
                // ALLOC: emission — degraded leaf path, same per-result cost.
                out.push(FrequentItemset {
                    itemset: Itemset::from_sorted_unchecked(prefix_items.clone()),
                    accum: ctx
                        .planes
                        .accum_pair(prefix_cover.words(), cand.cover.words(), count),
                });
            }
        } else {
            // Leaf candidate: fused pair kernel straight off the two parent
            // covers — no materialisation, no byte charge.
            // ALLOC: emission — the cloned item list is the documented
            // per-result cost, charged to the governor.
            out.push(FrequentItemset {
                itemset: Itemset::from_sorted_unchecked(prefix_items.clone()),
                accum: ctx
                    .planes
                    .accum_pair(prefix_cover.words(), cand.cover.words(), count),
            });
        }
        prefix_items.pop();
    }
}

/// Emits the frequent singleton at `idx` and explores its subtree: one turn
/// of [`explore_roots`]. Returns `false` once the governor refuses further
/// emissions.
fn explore_root(
    ctx: &DfsCtx<'_>,
    idx: usize,
    prefix_items: &mut Vec<ItemId>,
    prefix_attrs: &mut AttrSet,
    scratch: &mut [Bitset],
    out: &mut Vec<FrequentItemset>,
) -> bool {
    let Some(root) = ctx.frequent.get(idx) else {
        debug_assert!(false, "explore_root index beyond frequent items");
        return true;
    };
    if !ctx.governor.record_itemsets(1) {
        return false;
    }
    // ALLOC: emission of the singleton result, charged to the governor.
    out.push(FrequentItemset {
        itemset: Itemset::singleton(root.item),
        accum: ctx.planes.accum(root.cover.words(), root.count),
    });
    if ctx.max_len.is_none_or(|m| m > 1) && idx + 1 < ctx.frequent.len() {
        // ALLOC: reusable prefix buffer — grows at most once per depth.
        prefix_items.push(root.item);
        prefix_attrs.insert(root.attr);
        dfs(
            ctx,
            prefix_items,
            prefix_attrs,
            root.cover,
            idx + 1,
            scratch,
            out,
        );
        prefix_attrs.remove(root.attr);
        prefix_items.pop();
    }
    true
}

/// The serial search the oracle ran: the frequent items, the planes and
/// the context `vertical_run` built, then the root loop of `explore_roots`
/// on one thread with no checkpointer.
fn explore_roots(
    transactions: &Transactions,
    catalog: &ItemCatalog,
    config: &MiningConfig,
    governor: &Governor,
) -> Vec<FrequentItemset> {
    let n = transactions.n_rows();
    let min_count = config.min_count(n);
    let frequent = frequent_items(transactions, catalog, min_count);
    let planes = OutcomePlanes::from_outcomes(transactions.outcomes());
    let ctx = DfsCtx {
        frequent: &frequent,
        planes: &planes,
        min_count,
        max_len: config.max_len,
        governor,
        n_rows: n,
        cover_bytes: cover_bytes(n),
    };
    let mut out = Vec::new();
    let mut scratch = ctx.scratch();
    let mut prefix_items: Vec<ItemId> = Vec::new();
    let mut prefix_attrs = AttrSet::new();
    for idx in 0..ctx.frequent.len() {
        if !ctx.governor.keep_going()
            || !explore_root(
                &ctx,
                idx,
                &mut prefix_items,
                &mut prefix_attrs,
                &mut scratch,
                &mut out,
            )
            || ctx.governor.is_tripped()
        {
            break;
        }
    }
    out
}

// ---- The comparison ----

/// One emission: its item ids and its accumulator's bits.
type Emission = (Vec<u32>, [u64; 4]);

fn emissions(itemsets: &[FrequentItemset]) -> Vec<Emission> {
    itemsets
        .iter()
        .map(|fi| {
            let (n, n_valid, sum, sum_sq) = fi.accum.raw_parts();
            (
                fi.itemset.items().iter().map(|i| i.0).collect(),
                [n, n_valid, sum.to_bits(), sum_sq.to_bits()],
            )
        })
        .collect()
}

/// What the two searches must agree on under one budget: the emission
/// sequence, the charged `itemsets` and `candidate_bytes`, and how the run
/// ended.
#[derive(Debug, PartialEq)]
struct Run {
    emitted: Vec<Emission>,
    itemsets: u64,
    candidate_bytes: u64,
    complete: bool,
}

fn oracle_run(t: &Transactions, catalog: &ItemCatalog, config: &MiningConfig, b: RunBudget) -> Run {
    let governor = Governor::new(b);
    let emitted = emissions(&explore_roots(t, catalog, config, &governor));
    let counters = governor.counters();
    Run {
        emitted,
        itemsets: counters.itemsets,
        candidate_bytes: counters.candidate_bytes,
        complete: governor.termination().is_complete(),
    }
}

fn production_run(
    t: &Transactions,
    catalog: &ItemCatalog,
    config: &MiningConfig,
    b: RunBudget,
) -> Run {
    let result = mine_governed(t, catalog, config, &Governor::new(b));
    Run {
        emitted: emissions(&result.itemsets),
        itemsets: result.counters.itemsets,
        candidate_bytes: result.counters.candidate_bytes,
        complete: result.termination.is_complete(),
    }
}

/// Both searches at one thread under `budget`; returns the oracle's run.
fn check(
    name: &str,
    t: &Transactions,
    catalog: &ItemCatalog,
    config: &MiningConfig,
    b: RunBudget,
) -> Run {
    let config = MiningConfig {
        threads: 1,
        ..*config
    };
    let want = oracle_run(t, catalog, &config, b);
    let got = production_run(t, catalog, &config, b);
    if got != want {
        let at = got
            .emitted
            .iter()
            .zip(&want.emitted)
            .position(|(g, w)| g != w)
            .unwrap_or(got.emitted.len().min(want.emitted.len()));
        panic!(
            "{name}, {config:?}, {b:?}: emission {at} differs (production {:?}, oracle {:?}); \
             lengths {} vs {}, itemsets {} vs {}, candidate bytes {} vs {}",
            got.emitted.get(at),
            want.emitted.get(at),
            got.emitted.len(),
            want.emitted.len(),
            got.itemsets,
            want.itemsets,
            got.candidate_bytes,
            want.candidate_bytes,
        );
    }
    want
}

/// Every comparison on one transaction database: complete runs at each
/// `max_len`, itemset and candidate-byte caps that trip mid-search, and the
/// same set at four threads.
fn check_all(name: &str, t: &Transactions, catalog: &ItemCatalog, min_support: f64) {
    let config = MiningConfig {
        min_support,
        max_len: None,
        threads: 1,
    };
    let full = check(name, t, catalog, &config, RunBudget::unbounded());
    assert!(full.complete, "{name}: an unbounded run completes");
    for max_len in 1..=3 {
        let capped = MiningConfig {
            max_len: Some(max_len),
            ..config
        };
        check(name, t, catalog, &capped, RunBudget::unbounded());
    }
    let n = full.itemsets;
    for cap in [1, 2, n / 3, n / 2, n.saturating_sub(1)] {
        if (1..n).contains(&cap) {
            let run = check(
                name,
                t,
                catalog,
                &config,
                RunBudget::unbounded().with_max_itemsets(cap),
            );
            assert!(!run.complete, "{name}: an itemset cap of {cap} trips");
        }
    }
    let bytes = full.candidate_bytes;
    for cap in [bytes / 5, bytes / 2, bytes.saturating_sub(1)] {
        if (1..bytes).contains(&cap) {
            let budget = RunBudget::unbounded().with_max_candidate_bytes(cap);
            let run = check(name, t, catalog, &config, budget);
            assert!(!run.complete, "{name}: a byte cap of {cap} trips");
        }
    }
    let mut serial = full.emitted;
    serial.sort();
    let mut parallel = production_run(
        t,
        catalog,
        &MiningConfig {
            threads: 4,
            ..config
        },
        RunBudget::unbounded(),
    )
    .emitted;
    parallel.sort();
    assert_eq!(parallel, serial, "{name}: four threads find the same set");
}

/// A dataset discretized and encoded the way the experiments do it.
fn encode(
    dataset: &Dataset,
    frame: &h_divexplorer::data::DataFrame,
    generalized: bool,
) -> (Transactions, ItemCatalog) {
    let outcomes = outcomes_for(dataset);
    let pipeline = pipeline_for(dataset, Default::default());
    let (catalog, hierarchies, _) = pipeline.discretize(frame, &outcomes);
    let encode = if generalized {
        Transactions::encode_generalized
    } else {
        Transactions::encode_base
    };
    (encode(frame, &catalog, &hierarchies, &outcomes), catalog)
}

#[test]
fn compas_fpr_in_both_modes() {
    let dataset = compas(6_172, 1);
    for generalized in [true, false] {
        let (t, catalog) = encode(&dataset, &dataset.frame, generalized);
        check_all(
            &format!("compas generalized={generalized}"),
            &t,
            &catalog,
            0.05,
        );
    }
}

#[test]
fn compas_with_nulls() {
    let dataset = compas(6_172, 2);
    let frame = inject_nulls(&dataset.frame, 0.2, 3).expect("a valid rate");
    let (t, catalog) = encode(&dataset, &frame, true);
    check_all("compas 20% nulls", &t, &catalog, 0.05);
}

#[test]
fn folktables_target() {
    let dataset = folktables(20_000, 1);
    let (t, catalog) = encode(&dataset, &dataset.frame, true);
    check_all("folktables", &t, &catalog, 0.1);
}

#[test]
fn synthetic_peak_error() {
    let dataset = synthetic_peak(5_000, 1);
    let (t, catalog) = encode(&dataset, &dataset.frame, true);
    check_all("synthetic-peak", &t, &catalog, 0.05);
}

/// A splitmix64 stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random transaction database over 2–5 attributes of 1–4 items each:
/// a row may hold several items of one attribute (as generalized rows do),
/// and the outcomes are boolean or missing, or mix in reals.
fn random_db(seed: u64) -> (Transactions, ItemCatalog) {
    let mut mix = Mix(seed);
    let n_attrs = 2 + mix.below(4) as usize;
    let n_levels = 1 + mix.below(4) as usize;
    let n_rows = mix.below(200) as usize;
    let kinds = if mix.below(2) == 0 { 3 } else { 4 };
    let density = 1 + mix.below(8);
    let mut catalog = ItemCatalog::new();
    let ids: Vec<ItemId> = (0..n_attrs * n_levels)
        .map(|i| {
            catalog.intern(Item::cat_eq(
                h_divexplorer::data::AttrId((i / n_levels) as u16),
                (i % n_levels) as u32,
                &format!("a{}", i / n_levels),
                &format!("v{}", i % n_levels),
            ))
        })
        .collect();
    let (rows, outcomes): (Vec<Vec<ItemId>>, Vec<Outcome>) = (0..n_rows)
        .map(|_| {
            let row = ids
                .iter()
                .copied()
                .filter(|_| mix.below(10) < density)
                .collect();
            let outcome = match mix.below(kinds) {
                0 => Outcome::Undefined,
                1 => Outcome::Bool(true),
                2 => Outcome::Bool(false),
                _ => Outcome::Real((mix.below(2001) as f64 - 1000.0) / 7.0),
            };
            (row, outcome)
        })
        .unzip();
    (Transactions::from_rows(rows, outcomes), catalog)
}

proptest! {
    /// Random databases at random supports.
    #[test]
    fn random_transactions(seed in any::<u64>(), s in 0.02f64..0.6) {
        let (t, catalog) = random_db(seed);
        check_all(&format!("random seed {seed}"), &t, &catalog, s);
    }
}
