//! Depth-first vertical miner (Eclat-style) with bitset tidsets and
//! word-level statistic kernels: the one production miner behind
//! [`crate::mine_governed`] and [`crate::mine_governed_ckpt`].
//!
//! Enumerates frequent itemsets by extending a prefix with items of strictly
//! larger id and distinct attribute. The inner loop is engineered to be
//! allocation-free and word-parallel:
//!
//! * **count-first pruning** — each prefix counts its candidate list once,
//!   with a fused AND+popcount against the prefix cover
//!   ([`simd::and_count`], on the CPU's best popcount path), and keeps the
//!   frequent ones with their supports before it emits or explores any;
//! * **extension lists** (Eclat's equivalence classes) — an extension's
//!   candidates are its parent's frequent later siblings of another
//!   attribute: a sibling infrequent with the parent is infrequent with
//!   every extension of it (anti-monotonicity), and dropping the siblings
//!   that share the extension's attribute enforces the
//!   one-item-per-attribute constraint, so no prefix attribute set is kept;
//! * **kernel accumulators** — frequent candidates fold their
//!   [`StatAccum`] through [`OutcomePlanes`] (fused popcounts / masked
//!   sums over the cover words) instead of iterating rows; on numeric
//!   outcomes one pass over the values folds up to four sibling candidates
//!   ([`OutcomePlanes::accum_siblings`]);
//! * **scratch pool** — one reusable cover buffer and a pair of pre-sized
//!   lists per recursion depth, so even frequent candidates allocate
//!   nothing after setup; candidates with nothing left to extend them skip
//!   materialisation entirely via the fused pair kernel.
//!
//! The search polls a [`Governor`] for deadlines, budgets and cancellation.
//! A tripped governor stops it at emission granularity: every itemset
//! already emitted carries its exact accumulator, so a truncated result is
//! always a subset of the unbounded one. Candidate bytes are charged for
//! each emitted extension that could still grow (`max_len` not reached and
//! a later frequent item exists), whether or not a sibling is left to
//! extend it — pruned and leaf candidates are free. With more than one
//! worker thread a panicking worker is caught and reported as
//! [`MiningError::WorkerPanicked`](crate::MiningError) while the remaining
//! workers claim the roots it never reached.

use hdx_checkpoint::{Checkpointer, MiningProgress};
use hdx_governor::{fail_point, Governor};
use hdx_items::{Bitset, ItemCatalog, ItemId, Itemset};
use hdx_stats::simd::{self, MAX_COVERS};
use hdx_stats::{Outcome, OutcomePlanes, StatAccum};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::checkpoint::{progress_snapshot, restore_itemset};
use crate::result::{FrequentItemset, MiningError, MiningResult};
use crate::transactions::Transactions;
use crate::MiningConfig;

/// Folds the outcomes of the rows in `cover` into a [`StatAccum`] one row at
/// a time.
///
/// This is the scalar *reference* path: the word-level kernels
/// ([`OutcomePlanes`]) are required to reproduce it bit for bit, which the
/// property tests in `tests/property_kernel.rs` and the bench harness's
/// scalar baseline both rely on. The miners themselves use the kernels;
/// [`Transactions::item_stats`], polarity pruning's once-per-fit
/// single-item pass, folds through this path.
pub fn accum_scalar(cover: &Bitset, outcomes: &[Outcome]) -> StatAccum {
    let mut acc = StatAccum::new();
    for row in cover.iter_ones() {
        acc.push(outcomes[row]);
    }
    acc
}

/// Approximate heap bytes of one cover bitset, charged against the
/// governor's candidate-byte budget for each emitted extension that could
/// still grow (the `deeper` rule of [`dfs`]).
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

/// One DFS depth's reusable buffers. A prefix of `k` items reads its
/// candidate list from depth `k − 1`, counts it into `frequent`, and writes
/// the joint covers of its extensions into `cover`; each extension's own
/// candidate list goes into depth `k`.
struct Depth {
    /// The joint cover of the extension being explored from this depth.
    cover: Bitset,
    /// The candidates of this depth's prefix: indices into
    /// [`DfsCtx::frequent`], ascending.
    cands: Vec<usize>,
    /// The frequent candidates with their supports, in `cands` order.
    frequent: Vec<(usize, u64)>,
}

/// One [`Depth`] per attainable recursion depth: prefixes can grow to
/// `min(max_len, #distinct frequent attributes)` items, and a prefix reads
/// and writes only its own depth and the next, so this pool is never
/// exhausted. Each list is sized for every frequent item, so the search
/// never reallocates one.
fn scratch_pool(n_rows: usize, frequent: &[FreqItem], max_len: Option<usize>) -> Vec<Depth> {
    let mut attrs: Vec<u16> = frequent.iter().map(|f| f.attr).collect();
    attrs.sort_unstable();
    attrs.dedup();
    let depth = max_len.unwrap_or(usize::MAX).min(attrs.len());
    (0..depth)
        .map(|_| Depth {
            cover: Bitset::new(n_rows),
            cands: Vec::with_capacity(frequent.len()),
            frequent: Vec::with_capacity(frequent.len()),
        })
        .collect()
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
    fn scratch(&self) -> Vec<Depth> {
        let scratch = scratch_pool(self.n_rows, self.frequent, self.max_len);
        hdx_obs::gauge_max!(
            MineScratchPoolBytes,
            scratch.len() as u64 * self.cover_bytes
        );
        scratch
    }
}

/// Depth-first extension of `prefix_items`, whose rows are `prefix_cover`
/// and whose candidate list is `pool[0].cands`.
///
/// Two phases. First every candidate is counted once against the prefix
/// cover and the frequent ones are kept with their supports. Then those
/// are emitted and explored in order: each one's children are its frequent
/// later siblings of another attribute, since by anti-monotonicity a
/// sibling that failed with the prefix fails with every extension of it.
/// The joint cover of an explored extension goes into `pool[0].cover` and
/// its list into `pool[1].cands`, so the search allocates nothing beyond
/// the cloned item lists of emitted itemsets. Returns early (with whatever
/// was emitted so far) once the governor trips.
fn dfs(
    ctx: &DfsCtx<'_>,
    prefix_items: &mut Vec<ItemId>,
    prefix_cover: &Bitset,
    pool: &mut [Depth],
    out: &mut Vec<FrequentItemset>,
) {
    let Some((
        Depth {
            cover: joint,
            cands,
            frequent,
        },
        deeper_pool,
    )) = pool.split_first_mut()
    else {
        debug_assert!(false, "scratch pool exhausted");
        return;
    };
    frequent.clear();
    for &idx in cands.iter() {
        if !ctx.governor.keep_going() {
            return;
        }
        hdx_obs::counter_add!(MineCandidatesGenerated, 1);
        // Count-first pruning: an infrequent candidate costs one fused
        // AND+popcount and nothing else.
        let count = simd::and_count(prefix_cover.words(), ctx.frequent[idx].cover.words());
        if count < ctx.min_count {
            hdx_obs::counter_add!(MineCandidatesPrunedSupport, 1);
            continue;
        }
        // ALLOC: pre-sized to every frequent item by `scratch_pool`, so
        // this never reallocates.
        frequent.push((idx, count));
    }
    // On numeric planes the accumulators of each group of `MAX_COVERS`
    // frequent candidates come from one pass over the outcome values, taken
    // when the loop reaches the group's first candidate. A trip inside the
    // group discards the ones computed ahead of their own poll.
    let numeric = !ctx.planes.is_boolean();
    let mut group = [StatAccum::new(); MAX_COVERS];
    for (pos, &(idx, count)) in frequent.iter().enumerate() {
        if !ctx.governor.keep_going() {
            return;
        }
        if numeric && pos % MAX_COVERS == 0 {
            let members = &frequent[pos..frequent.len().min(pos + MAX_COVERS)];
            let mut siblings: [(&[u64], u64); MAX_COVERS] = [(&[], 0); MAX_COVERS];
            for (sibling, &(member, n)) in siblings.iter_mut().zip(members) {
                *sibling = (ctx.frequent[member].cover.words(), n);
            }
            hdx_obs::counter_add!(MineNumericPasses, 1);
            hdx_obs::counter_add!(MineNumericCovers, members.len() as u64);
            group = ctx
                .planes
                .accum_siblings(prefix_cover.words(), &siblings[..members.len()]);
        }
        let cand = &ctx.frequent[idx];
        // The accumulator of an emission that materialises no cover.
        let leaf_accum = || {
            if numeric {
                group[pos % MAX_COVERS]
            } else {
                ctx.planes
                    .accum_pair(prefix_cover.words(), cand.cover.words(), count)
            }
        };
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
        // An extension that could still grow is charged one joint cover,
        // whether or not any sibling is left to extend it with.
        if deeper && !ctx.governor.record_candidate_bytes(ctx.cover_bytes) {
            // On refusal, emit the already-charged itemset without
            // materialising its cover and unwind.
            // ALLOC: emission — the cloned item list is the documented
            // per-result cost, charged to the governor.
            out.push(FrequentItemset {
                itemset: Itemset::from_sorted_unchecked(prefix_items.clone()),
                accum: leaf_accum(),
            });
            prefix_items.pop();
            return;
        }
        let children = deeper
            && match deeper_pool.first_mut() {
                Some(next) => {
                    let siblings = frequent[pos + 1..].iter().map(|&(sibling, _)| sibling);
                    extension_list(ctx, cand.attr, siblings, &mut next.cands);
                    !next.cands.is_empty()
                }
                None => {
                    // Unreachable: the pool depth covers every attainable
                    // prefix length. Degrade to a leaf emission.
                    debug_assert!(false, "scratch pool exhausted");
                    false
                }
            };
        if children {
            let accum = if numeric {
                joint.assign_and(prefix_cover, cand.cover);
                group[pos % MAX_COVERS]
            } else {
                // Fused intersect-assign-accumulate: the joint cover is
                // written and folded into the accumulator in one pass.
                ctx.planes.accum_assign_pair(
                    prefix_cover.words(),
                    cand.cover.words(),
                    joint.words_mut(),
                    count,
                )
            };
            // ALLOC: emission — see above; the joint cover itself goes into
            // the pre-sized scratch pool, not a fresh allocation.
            out.push(FrequentItemset {
                itemset: Itemset::from_sorted_unchecked(prefix_items.clone()),
                accum,
            });
            dfs(ctx, prefix_items, joint, deeper_pool, out);
        } else {
            // Nothing to extend it with: no materialisation.
            // ALLOC: emission — the cloned item list is the documented
            // per-result cost, charged to the governor.
            out.push(FrequentItemset {
                itemset: Itemset::from_sorted_unchecked(prefix_items.clone()),
                accum: leaf_accum(),
            });
        }
        prefix_items.pop();
    }
}

/// Fills `list` with the `candidates` (indices into [`DfsCtx::frequent`])
/// whose attribute is not `attr`: the candidate list of an itemset whose
/// newest item has attribute `attr`.
fn extension_list(
    ctx: &DfsCtx<'_>,
    attr: u16,
    candidates: impl Iterator<Item = usize>,
    list: &mut Vec<usize>,
) {
    list.clear();
    for idx in candidates {
        if ctx.frequent[idx].attr == attr {
            hdx_obs::counter_add!(MineCandidatesPrunedAttr, 1);
        } else {
            // ALLOC: pre-sized to every frequent item by `scratch_pool`, so
            // this never reallocates.
            list.push(idx);
        }
    }
}

/// Emits the frequent singleton at `idx` and explores its subtree, whose
/// candidates are the later frequent items of another attribute: one turn
/// of [`explore_roots`]. Returns `false` once the governor refuses further
/// emissions.
fn explore_root(
    ctx: &DfsCtx<'_>,
    idx: usize,
    prefix_items: &mut Vec<ItemId>,
    pool: &mut [Depth],
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
        let Some(first) = pool.first_mut() else {
            debug_assert!(false, "scratch pool exhausted");
            return true;
        };
        extension_list(
            ctx,
            root.attr,
            idx + 1..ctx.frequent.len(),
            &mut first.cands,
        );
        // ALLOC: reusable prefix buffer — grows at most once per depth.
        prefix_items.push(root.item);
        dfs(ctx, prefix_items, root.cover, pool, out);
        prefix_items.pop();
    }
    true
}

/// Mines every frequent itemset by depth-first vertical search: the driver
/// behind [`crate::mine_governed`] and [`crate::mine_governed_ckpt`].
///
/// The subtrees rooted at each frequent single item are independent, and
/// one shared cursor hands them out lowest root first ([`explore_roots`]).
/// With one worker ([`MiningConfig::n_workers`]) or a checkpointer attached
/// the calling thread runs the loop alone: the subtrees are explored in
/// item order, and `ckpt` records a boundary after each fully explored one
/// (cursor = roots completed); `resume` restarts from such a boundary. The
/// frequent-item order is a deterministic function of the transactions, so
/// a resumed run continues the exact traversal the interrupted one was on.
/// Otherwise a pool of workers runs the same loop over the same cursor
/// ([`explore_pool`]): the same itemsets, in an order that depends on the
/// thread interleaving — which is why checkpointed runs stay serial.
pub(crate) fn vertical_run(
    transactions: &Transactions,
    catalog: &ItemCatalog,
    config: &MiningConfig,
    governor: &Governor,
    ckpt: Option<&mut Checkpointer>,
    resume: Option<&MiningProgress>,
) -> MiningResult {
    let n = transactions.n_rows();
    let min_count = config.min_count(n);

    fail_point!("mining::vertical");

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

    let mut out: Vec<FrequentItemset> = match resume {
        Some(progress) => progress.emitted.iter().map(restore_itemset).collect(),
        None => Vec::new(),
    };
    let next = AtomicUsize::new(resume.map_or(0, |p| (p.cursor as usize).min(frequent.len())));
    let n_workers = config.n_workers(frequent.len());
    let errors = match ckpt {
        None if n_workers > 1 => explore_pool(&ctx, &next, n_workers, &mut out),
        ckpt => {
            explore_roots(&ctx, &next, ckpt, &mut out);
            Vec::new()
        }
    };
    let mut result =
        MiningResult::complete(out, n, transactions.global_accum()).governed_by(governor);
    result.errors = errors;
    result
}

/// The root loop every search runs: claims the lowest unexplored subtree
/// root from `next` and explores it, until the roots run out or the
/// governor trips. With `ckpt` attached (a serial run) it records a
/// boundary after each root that completes.
fn explore_roots(
    ctx: &DfsCtx<'_>,
    next: &AtomicUsize,
    mut ckpt: Option<&mut Checkpointer>,
    out: &mut Vec<FrequentItemset>,
) {
    let mut scratch = ctx.scratch();
    // ALLOC: per-call setup, not per root — the prefix buffer grows at most
    // once per depth and is reused for every root this call claims.
    let mut prefix_items: Vec<ItemId> = Vec::new();
    loop {
        // ORDERING: the cursor only has to hand each index out once, which
        // the read-modify-write guarantees in any ordering; the roots it
        // indexes are read-only and were built before the loop started.
        let idx = next.fetch_add(1, Ordering::Relaxed);
        // `explore_root` returns true even when the DFS below it unwound on
        // a trip, so a tripped governor means this subtree may be partial —
        // only a clean completion is a boundary.
        if idx >= ctx.frequent.len()
            || !ctx.governor.keep_going()
            || !explore_root(ctx, idx, &mut prefix_items, &mut scratch, out)
            || ctx.governor.is_tripped()
        {
            break;
        }
        if let Some(ck) = ckpt.as_deref_mut() {
            ck.at_boundary(progress_snapshot(
                (idx + 1) as u64,
                ctx.n_rows,
                out,
                ctx.governor,
            ));
        }
    }
}

/// The worker pool: `n_workers` scoped threads run [`explore_roots`] over
/// the shared cursor `next`, and their itemsets are appended to `out` in
/// worker order. All workers share the governor, so a tripped budget stops
/// every subtree cooperatively. A worker that panics is caught and
/// reported as [`MiningError::WorkerPanicked`]; the other workers finish
/// the remaining roots and their itemsets are kept.
fn explore_pool(
    ctx: &DfsCtx<'_>,
    next: &AtomicUsize,
    n_workers: usize,
    out: &mut Vec<FrequentItemset>,
) -> Vec<MiningError> {
    let mut errors: Vec<MiningError> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_workers)
            .map(|worker| {
                // Only the `obs` span below reads the worker index.
                #[cfg(not(feature = "obs"))]
                let _ = worker;
                scope.spawn(move || {
                    // Catch panics inside the worker so one crashing subtree
                    // degrades the run instead of killing it. The closure
                    // only reads shared state and writes a thread-local vec,
                    // so unwinding cannot leave broken invariants behind.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        fail_point!("mining::vertical-worker");
                        hdx_obs::span!("worker", int worker);
                        let mut local: Vec<FrequentItemset> = Vec::new();
                        explore_roots(ctx, next, None, &mut local);
                        local
                    }));
                    // Make this worker's recordings visible to the spawning
                    // thread's collect() — scoped threads count as finished
                    // before their TLS destructors run.
                    hdx_obs::flush_thread!();
                    result
                })
            })
            .collect();
        for (worker, handle) in handles.into_iter().enumerate() {
            // `join` cannot fail (the worker catches its own panics), but
            // fold a hypothetical failure into the same degraded path.
            match handle.join().unwrap_or_else(Err) {
                Ok(local) => out.extend(local),
                Err(payload) => errors.push(MiningError::WorkerPanicked {
                    worker,
                    message: panic_message(payload.as_ref()),
                }),
            }
        }
    });
    errors
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mine, mine_governed, mine_governed_ckpt};
    use hdx_checkpoint::CheckpointStore;
    use hdx_data::AttrId;
    use hdx_governor::{CancelReason, RunBudget, Termination};
    use hdx_items::Item;

    /// Catalog with items a0, a1 on attr 0 and b0, b1 on attr 1.
    fn catalog() -> (ItemCatalog, Vec<ItemId>) {
        let mut c = ItemCatalog::new();
        let ids = vec![
            c.intern(Item::cat_eq(AttrId(0), 0, "a", "0")),
            c.intern(Item::cat_eq(AttrId(0), 1, "a", "1")),
            c.intern(Item::cat_eq(AttrId(1), 0, "b", "0")),
            c.intern(Item::cat_eq(AttrId(1), 1, "b", "1")),
        ];
        (c, ids)
    }

    #[test]
    fn known_small_database() {
        let (catalog, ids) = catalog();
        // 4 rows: {a0,b0}, {a0,b0}, {a0,b1}, {a1,b0}
        let rows = vec![
            vec![ids[0], ids[2]],
            vec![ids[0], ids[2]],
            vec![ids[0], ids[3]],
            vec![ids[1], ids[2]],
        ];
        let outcomes = vec![
            Outcome::Bool(true),
            Outcome::Bool(true),
            Outcome::Bool(false),
            Outcome::Bool(false),
        ];
        let t = Transactions::from_rows(rows, outcomes);
        let r = mine(
            &t,
            &catalog,
            &MiningConfig {
                min_support: 0.5,
                ..MiningConfig::default()
            },
        );
        // min_count = 2: frequent = {a0}(3), {b0}(3), {a0,b0}(2).
        assert_eq!(r.itemsets.len(), 3);
        let joint = Itemset::from_sorted_unchecked(vec![ids[0], ids[2]]);
        let fi = r.find(&joint).unwrap();
        assert_eq!(fi.accum.count(), 2);
        assert_eq!(fi.accum.statistic(), Some(1.0), "both joint rows are T");
        assert_eq!(r.global.statistic(), Some(0.5));
        assert_eq!(r.divergence(fi), Some(0.5));
        assert_eq!(r.termination, Termination::Complete);
        assert!(!r.is_partial());
    }

    #[test]
    fn same_attribute_items_never_combine() {
        let (catalog, ids) = catalog();
        // a0 and a1 co-occur in generalized-style rows.
        let rows = vec![vec![ids[0], ids[1], ids[2]]; 4];
        let t = Transactions::from_rows(rows, vec![Outcome::Bool(true); 4]);
        let r = mine(
            &t,
            &catalog,
            &MiningConfig {
                min_support: 0.1,
                ..MiningConfig::default()
            },
        );
        for fi in &r.itemsets {
            let attrs: Vec<_> = fi
                .itemset
                .items()
                .iter()
                .map(|&i| catalog.attr_of(i))
                .collect();
            let mut dedup = attrs.clone();
            dedup.dedup();
            assert_eq!(attrs.len(), dedup.len(), "duplicate attribute in {fi:?}");
        }
        // {a0,a1} absent, {a0,b0} and {a1,b0} present.
        assert!(r
            .find(&Itemset::from_sorted_unchecked(vec![ids[0], ids[1]]))
            .is_none());
        assert!(r
            .find(&Itemset::from_sorted_unchecked(vec![ids[0], ids[2]]))
            .is_some());
    }

    #[test]
    fn empty_database() {
        let (catalog, _) = catalog();
        let t = Transactions::from_rows(vec![], vec![]);
        let r = mine(&t, &catalog, &MiningConfig::default());
        assert!(r.itemsets.is_empty());
        assert_eq!(r.n_rows, 0);
        assert_eq!(r.termination, Termination::Complete);
    }

    #[test]
    fn support_threshold_is_inclusive() {
        let (catalog, ids) = catalog();
        let rows = vec![vec![ids[0]], vec![ids[0]], vec![ids[1]], vec![ids[1]]];
        let t = Transactions::from_rows(rows, vec![Outcome::Bool(false); 4]);
        // s = 0.5 → min_count = 2; both items have exactly 2.
        let r = mine(
            &t,
            &catalog,
            &MiningConfig {
                min_support: 0.5,
                ..MiningConfig::default()
            },
        );
        assert_eq!(r.itemsets.len(), 2);
        // s = 0.51 → min_count = 3; nothing qualifies.
        let r2 = mine(
            &t,
            &catalog,
            &MiningConfig {
                min_support: 0.51,
                ..MiningConfig::default()
            },
        );
        assert!(r2.itemsets.is_empty());
    }

    #[test]
    fn kernel_accumulators_match_scalar_reference() {
        let (catalog, ids) = catalog();
        let rows = vec![
            vec![ids[0], ids[2]],
            vec![ids[0], ids[2]],
            vec![ids[0], ids[3]],
            vec![ids[1], ids[2]],
            vec![ids[0], ids[2]],
        ];
        // Mixed outcome kinds exercise the numeric kernel path end to end.
        let outcomes = vec![
            Outcome::Bool(true),
            Outcome::Real(2.5),
            Outcome::Undefined,
            Outcome::Bool(false),
            Outcome::Real(-1.0),
        ];
        let t = Transactions::from_rows(rows, outcomes.clone());
        let r = mine(
            &t,
            &catalog,
            &MiningConfig {
                min_support: 0.2,
                ..MiningConfig::default()
            },
        );
        assert!(!r.itemsets.is_empty());
        for fi in &r.itemsets {
            let mut joint = Bitset::all_set(t.n_rows());
            for &item in fi.itemset.items() {
                let (_, cover) = t
                    .covers()
                    .iter()
                    .find(|(i, _)| *i == item)
                    .expect("mined item has a cover");
                joint.and_assign(cover);
            }
            assert_eq!(fi.accum, accum_scalar(&joint, &outcomes), "{fi:?}");
        }
    }

    #[test]
    fn itemset_budget_truncates_to_exact_subset() {
        let (catalog, ids) = catalog();
        let rows = vec![
            vec![ids[0], ids[2]],
            vec![ids[0], ids[2]],
            vec![ids[0], ids[3]],
            vec![ids[1], ids[2]],
        ];
        let t = Transactions::from_rows(rows, vec![Outcome::Bool(true); 4]);
        let config = MiningConfig {
            min_support: 0.25,
            ..MiningConfig::default()
        };
        let full = mine(&t, &catalog, &config);
        assert!(full.itemsets.len() > 2);

        let governor = Governor::new(RunBudget::unbounded().with_max_itemsets(2));
        let partial = mine_governed(&t, &catalog, &config, &governor);
        assert_eq!(partial.termination, Termination::BudgetExhausted);
        assert!(partial.is_partial());
        assert_eq!(partial.itemsets.len(), 2);
        assert_eq!(partial.counters.itemsets, 2);
        for fi in &partial.itemsets {
            let reference = full.find(&fi.itemset).expect("subset of unbounded run");
            assert_eq!(reference.accum.count(), fi.accum.count());
        }
    }

    #[test]
    fn byte_budget_only_charges_materialised_covers() {
        let (catalog, ids) = catalog();
        let rows = vec![
            vec![ids[0], ids[2]],
            vec![ids[0], ids[2]],
            vec![ids[0], ids[3]],
            vec![ids[1], ids[2]],
        ];
        let t = Transactions::from_rows(rows, vec![Outcome::Bool(true); 4]);
        let config = MiningConfig {
            min_support: 0.25,
            ..MiningConfig::default()
        };
        // Unbounded run on 4 rows: singletons and leaves are free; only
        // extendable joint covers (8 bytes each) hit the byte counter.
        let governor = Governor::unbounded();
        let full = mine_governed(&t, &catalog, &config, &governor);
        assert_eq!(full.termination, Termination::Complete);
        let bytes = governor.counters().candidate_bytes;
        assert!(
            bytes < full.itemsets.len() as u64 * cover_bytes(4),
            "leaf/singleton candidates must not be charged: {bytes}"
        );

        // A byte budget still truncates to an exact subset.
        let tight = Governor::new(RunBudget::unbounded().with_max_candidate_bytes(8));
        let partial = mine_governed(&t, &catalog, &config, &tight);
        assert_eq!(partial.termination, Termination::BudgetExhausted);
        assert!(partial.itemsets.len() < full.itemsets.len());
        assert_eq!(
            partial.counters.itemsets,
            partial.itemsets.len() as u64,
            "itemset counter equals emissions even when the byte budget trips"
        );
        for fi in &partial.itemsets {
            let reference = full.find(&fi.itemset).expect("subset of unbounded run");
            assert_eq!(reference.accum, fi.accum);
        }
    }

    #[test]
    fn parallel_budget_truncates_without_panicking() {
        let (catalog, ids) = catalog();
        let rows = vec![
            vec![ids[0], ids[2]],
            vec![ids[0], ids[2]],
            vec![ids[0], ids[3]],
            vec![ids[1], ids[2]],
        ];
        let t = Transactions::from_rows(rows, vec![Outcome::Bool(true); 4]);
        let config = MiningConfig {
            min_support: 0.25,
            ..MiningConfig::default()
        };
        let full = mine(&t, &catalog, &config);
        let governor = Governor::new(RunBudget::unbounded().with_max_itemsets(1));
        let partial = mine_governed(
            &t,
            &catalog,
            &MiningConfig {
                threads: 2,
                ..config
            },
            &governor,
        );
        assert_eq!(partial.termination, Termination::BudgetExhausted);
        assert!(partial.itemsets.len() <= full.itemsets.len());
        assert!(partial.errors.is_empty());
        for fi in &partial.itemsets {
            assert!(full.find(&fi.itemset).is_some());
        }
    }

    /// `n` single-level attributes whose one item is in every row, so each
    /// item is a frequent root and, at `max_len` 1, its own only itemset.
    fn singleton_roots(n: u16) -> (ItemCatalog, Vec<ItemId>, Transactions) {
        let mut catalog = ItemCatalog::new();
        let ids: Vec<ItemId> = (0..n)
            .map(|a| catalog.intern(Item::cat_eq(AttrId(a), 0, &format!("a{a}"), "x")))
            .collect();
        let t = Transactions::from_rows(vec![ids.clone(); 4], vec![Outcome::Bool(true); 4]);
        (catalog, ids, t)
    }

    #[test]
    fn pool_explores_every_root_exactly_once() {
        let (catalog, ids, t) = singleton_roots(200);
        for threads in [1, 2, 4] {
            let config = MiningConfig {
                min_support: 0.5,
                max_len: Some(1),
                threads,
            };
            let r = mine(&t, &catalog, &config);
            let mut roots: Vec<ItemId> =
                r.itemsets.iter().map(|fi| fi.itemset.items()[0]).collect();
            roots.sort_unstable();
            assert_eq!(roots, ids, "threads={threads}: each root exactly once");
        }
    }

    #[test]
    fn root_loop_claims_the_lowest_root_first() {
        let (catalog, ids, t) = singleton_roots(20);
        let config = MiningConfig {
            min_support: 0.5,
            max_len: Some(1),
            threads: 1,
        };
        let governor = Governor::new(RunBudget::unbounded().with_max_itemsets(7));
        let r = mine_governed(&t, &catalog, &config, &governor);
        assert_eq!(r.termination, Termination::BudgetExhausted);
        let roots: Vec<ItemId> = r.itemsets.iter().map(|fi| fi.itemset.items()[0]).collect();
        assert_eq!(roots, ids[..7], "the first seven roots, in order");
    }

    #[test]
    fn a_checkpointed_run_writes_one_checkpoint_per_root() {
        let (catalog, _, t) = singleton_roots(20);
        let config = MiningConfig {
            min_support: 0.5,
            max_len: Some(1),
            threads: 1,
        };
        let dir = std::env::temp_dir().join(format!("hdx-mining-per-root-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::create(&dir).expect("checkpoint store");
        let mut ckpt = Checkpointer::new(store.clone(), 0, 0);
        let r = mine_governed_ckpt(
            &t,
            &catalog,
            &config,
            &Governor::unbounded(),
            &mut ckpt,
            None,
        );
        assert_eq!(r.itemsets.len(), 20);
        assert_eq!(ckpt.writes(), 20, "one checkpoint per root, none after");
        let latest = store.load_latest().expect("a checkpoint");
        assert_eq!((latest.seq, latest.state.progress.cursor), (19, 20));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_trip_inside_a_subtree_records_no_boundary_for_it() {
        let (catalog, ids) = catalog();
        let rows = vec![
            vec![ids[0], ids[2]],
            vec![ids[0], ids[2]],
            vec![ids[0], ids[3]],
            vec![ids[1], ids[2]],
        ];
        let t = Transactions::from_rows(rows, vec![Outcome::Bool(true); 4]);
        let config = MiningConfig {
            min_support: 0.25,
            ..MiningConfig::default()
        };
        let dir = std::env::temp_dir().join(format!("hdx-mining-trip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::create(&dir).expect("checkpoint store");
        // {a0} and {a0,b0} fit the budget; {a0,b1}, still inside a0's
        // subtree, trips it.
        let governor = Governor::new(RunBudget::unbounded().with_max_itemsets(2));
        let mut ckpt = Checkpointer::new(store.clone(), 0, 0);
        let partial = mine_governed_ckpt(&t, &catalog, &config, &governor, &mut ckpt, None);
        assert_eq!(partial.termination, Termination::BudgetExhausted);
        let progress = store.load_latest().expect("a checkpoint").state.progress;
        assert_eq!(progress.cursor, 0, "the tripped root is not a boundary");

        let mut ckpt = Checkpointer::new(store, 0, 0);
        let resumed = mine_governed_ckpt(
            &t,
            &catalog,
            &config,
            &Governor::unbounded(),
            &mut ckpt,
            Some(&progress),
        );
        let items = |r: &MiningResult| {
            let mut v: Vec<(Vec<ItemId>, u64)> = r
                .itemsets
                .iter()
                .map(|fi| (fi.itemset.items().to_vec(), fi.accum.count()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(items(&resumed), items(&mine(&t, &catalog, &config)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_token_stops_run_before_work() {
        let (catalog, ids) = catalog();
        let rows = vec![vec![ids[0], ids[2]]; 8];
        let t = Transactions::from_rows(rows, vec![Outcome::Bool(true); 8]);
        let governor = Governor::unbounded();
        governor.cancel_token().cancel();
        let r = mine_governed(&t, &catalog, &MiningConfig::default(), &governor);
        assert_eq!(r.termination, Termination::Cancelled(CancelReason::User));
    }
}
