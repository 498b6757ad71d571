//! The checkpointed run state: what is persisted, in plain-data form.
//!
//! Everything here is deliberately *untyped* with respect to the rest of the
//! workspace — item ids are `u32`, accumulators raw sums, the discretization
//! trees a 64-bit fingerprint — so the checkpoint crate sits below the
//! mining/discretize crates in the dependency graph. The conversion to and
//! from the real `Itemset` / `StatAccum` types lives next to those types.

use crate::codec::{ByteReader, ByteWriter};
use crate::error::CheckpointError;

/// Raw `StatAccum` sums of one itemset: enough to rebuild the accumulator
/// exactly (`StatAccum::from_sums`).
#[derive(Debug, Clone, PartialEq)]
pub struct AccumSnapshot {
    /// Number of covered rows.
    pub n: u64,
    /// Covered rows with a defined outcome.
    pub n_valid: u64,
    /// Sum of defined outcome values.
    pub sum: f64,
    /// Sum of squared defined outcome values.
    pub sum_sq: f64,
}

/// One emitted frequent itemset: sorted item ids plus its accumulator.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemsetSnapshot {
    /// Item ids, ascending.
    pub items: Vec<u32>,
    /// The itemset's outcome statistics.
    pub accum: AccumSnapshot,
}

/// Governor counters at checkpoint time, so a resumed run keeps charging the
/// same budget instead of resetting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Itemsets charged against `max_itemsets`.
    pub itemsets: u64,
    /// Bytes charged against `max_candidate_bytes`.
    pub candidate_bytes: u64,
    /// Nodes charged against `max_tree_nodes`.
    pub tree_nodes: u64,
}

/// Where the miner is in its traversal, plus everything it has emitted.
///
/// The `cursor` counts the work units fully completed: the first-level
/// subtrees (root items) of the depth-first search fully explored. The
/// search is deterministic, so `emitted[..]` + `cursor` reproduce the
/// uninterrupted run exactly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MiningProgress {
    /// Completed-work cursor (see type docs).
    pub cursor: u64,
    /// Transaction count, re-checked on resume.
    pub n_rows: u64,
    /// Every frequent itemset emitted so far, in emission order.
    pub emitted: Vec<ItemsetSnapshot>,
    /// Governor counters at the boundary.
    pub counters: CounterSnapshot,
}

/// The complete persisted state of a run: three identity fingerprints and
/// the mining progress.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// Fingerprint of the dataset + outcome vector the run was started on.
    pub dataset_fingerprint: u64,
    /// Fingerprint of the effective configuration (support thresholds,
    /// exploration mode, …).
    pub config_fingerprint: u64,
    /// Fingerprint of the discretization trees the item catalog was built
    /// from. The trees are a deterministic function of the data and the
    /// configuration, so a resume grows them again and only checks this.
    pub trees_fingerprint: u64,
    /// Mining traversal state.
    pub progress: MiningProgress,
}

impl CheckpointState {
    /// Encodes the state into a codec payload (not yet enveloped).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.dataset_fingerprint);
        w.put_u64(self.config_fingerprint);
        w.put_u64(self.trees_fingerprint);
        encode_progress(&mut w, &self.progress);
        w.into_bytes()
    }

    /// Decodes a payload produced by [`encode`](Self::encode).
    ///
    /// # Errors
    /// [`CheckpointError::Truncated`] / [`CheckpointError::Corrupt`] on any
    /// structural mismatch; decoding never panics.
    pub fn decode(payload: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = ByteReader::new(payload);
        let dataset_fingerprint = r.u64()?;
        let config_fingerprint = r.u64()?;
        let trees_fingerprint = r.u64()?;
        let progress = decode_progress(&mut r)?;
        r.finish()?;
        Ok(Self {
            dataset_fingerprint,
            config_fingerprint,
            trees_fingerprint,
            progress,
        })
    }
}

fn encode_progress(w: &mut ByteWriter, p: &MiningProgress) {
    w.put_u64(p.cursor);
    w.put_u64(p.n_rows);
    w.put_u64(p.emitted.len() as u64);
    for fi in &p.emitted {
        w.put_u32_list(&fi.items);
        w.put_u64(fi.accum.n);
        w.put_u64(fi.accum.n_valid);
        w.put_f64(fi.accum.sum);
        w.put_f64(fi.accum.sum_sq);
    }
    w.put_u64(p.counters.itemsets);
    w.put_u64(p.counters.candidate_bytes);
    w.put_u64(p.counters.tree_nodes);
}

fn decode_progress(r: &mut ByteReader<'_>) -> Result<MiningProgress, CheckpointError> {
    let cursor = r.u64()?;
    let n_rows = r.u64()?;
    let n_emitted = r.len_prefix()?;
    let mut emitted = Vec::with_capacity(n_emitted.min(1 << 20));
    for _ in 0..n_emitted {
        emitted.push(ItemsetSnapshot {
            items: r.u32_list()?,
            accum: AccumSnapshot {
                n: r.u64()?,
                n_valid: r.u64()?,
                sum: r.f64()?,
                sum_sq: r.f64()?,
            },
        });
    }
    let counters = CounterSnapshot {
        itemsets: r.u64()?,
        candidate_bytes: r.u64()?,
        tree_nodes: r.u64()?,
    };
    Ok(MiningProgress {
        cursor,
        n_rows,
        emitted,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_state() -> CheckpointState {
        CheckpointState {
            dataset_fingerprint: 0x1122_3344_5566_7788,
            config_fingerprint: 0x99aa_bbcc_ddee_ff00,
            trees_fingerprint: 0x0f1e_2d3c_4b5a_6978,
            progress: MiningProgress {
                cursor: 2,
                n_rows: 1000,
                emitted: vec![ItemsetSnapshot {
                    items: vec![7, 12],
                    accum: AccumSnapshot {
                        n: 312,
                        n_valid: 300,
                        sum: 45.5,
                        sum_sq: 91.25,
                    },
                }],
                counters: CounterSnapshot {
                    itemsets: 41,
                    candidate_bytes: 8192,
                    tree_nodes: 4,
                },
            },
        }
    }

    #[test]
    fn state_round_trips() {
        let state = demo_state();
        let decoded = CheckpointState::decode(&state.encode()).unwrap();
        assert_eq!(decoded, state);
    }

    #[test]
    fn empty_state_round_trips() {
        let state = CheckpointState {
            dataset_fingerprint: 0,
            config_fingerprint: 0,
            trees_fingerprint: 0,
            progress: MiningProgress::default(),
        };
        assert_eq!(CheckpointState::decode(&state.encode()).unwrap(), state);
    }

    #[test]
    fn truncated_payload_rejected_at_every_cut() {
        let payload = demo_state().encode();
        for cut in 0..payload.len() {
            assert!(
                CheckpointState::decode(&payload[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }
}
