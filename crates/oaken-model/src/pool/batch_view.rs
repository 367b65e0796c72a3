//! The engine's adapter: one iteration's slot → sequence mapping over the
//! pool, as a [`BatchKvCache`].

use super::{PagedKvPool, SeqId, ShardReads};
use crate::cache::BatchKvCache;

/// Borrowed view pairing the engine's [`PagedKvPool`] with the batch's
/// slot → sequence mapping for one engine iteration, implementing
/// [`BatchKvCache`] for [`crate::Model::forward_batch_sharded`]: rows go
/// in through [`PagedKvPool::append_run`], one run per slot and layer,
/// reads come out one shard per rank.
///
/// Appends cannot fail: the caller proved the pass's worst-case pages fit
/// every rank ([`pages_possibly_needed_n`](super::RankPages::pages_possibly_needed_n))
/// and took each slot's fault poll ([`PagedKvPool::reserve`]) before it,
/// so a failed append is a bug and panics.
pub struct PoolBatchView<'p> {
    pool: &'p mut PagedKvPool,
    seqs: &'p [SeqId],
}

impl<'p> PoolBatchView<'p> {
    /// Creates a view where batch slot `i` maps to `seqs[i]`.
    pub fn new(pool: &'p mut PagedKvPool, seqs: &'p [SeqId]) -> Self {
        Self { pool, seqs }
    }
}

impl BatchKvCache for PoolBatchView<'_> {
    fn append(&mut self, slot: usize, layer: usize, ks: &[Vec<f32>], vs: &[Vec<f32>]) {
        let seq = self.seqs[slot];
        if let Err(e) = self.pool.append_run(seq, layer, ks, vs) {
            panic!("slot {slot} ({seq:?}): an append of a planned pass failed: {e}");
        }
    }

    fn seq_len(&self, slot: usize, layer: usize) -> usize {
        self.pool.seq_len(self.seqs[slot], layer)
    }

    fn read_runs(&mut self, layer: usize, runs: &[(usize, usize)]) -> Vec<ShardReads<'_>> {
        self.pool.read_runs(self.seqs, layer, runs)
    }

    fn append_only_views(&self) -> bool {
        self.pool.append_only_views()
    }

    fn syncs_row_scales(&self) -> bool {
        self.pool.quantized()
    }
}
