//! The engine's adapter: one iteration's slot → sequence mapping over the
//! pool, as a [`BatchKvCache`].

use super::{PagedKvPool, PoolError, SeqId, ShardReads};
use crate::cache::BatchKvCache;

/// Borrowed view pairing the engine's [`PagedKvPool`] with the batch's
/// slot → sequence mapping for one engine iteration, implementing
/// [`BatchKvCache`] for [`crate::Model::forward_batch_sharded`]: rows go
/// in through [`PagedKvPool::append_run`], one run per slot and layer,
/// reads come out one shard per rank.
///
/// Appends never panic: a failing append — an injected
/// [`PoolError::Fault`], or pool exhaustion despite the scheduler's
/// [`pages_possibly_needed_n`](super::RankPages::pages_possibly_needed_n)
/// reservation — **poisons** its batch slot instead. A failed append
/// changed nothing on any rank; the poisoned slot's later appends are
/// skipped (its cached state stays exactly as of the failure, so reads
/// remain self-consistent) while every other slot proceeds untouched; the
/// engine drains [`take_poisoned`](Self::take_poisoned) after the forward
/// pass and quarantines the offending sequences. The poison list is an
/// empty `Vec` on the fault-free path, so the steady state stays
/// allocation-free.
pub struct PoolBatchView<'p> {
    pool: &'p mut PagedKvPool,
    seqs: &'p [SeqId],
    /// `(slot, error)` per poisoned slot, in failure order.
    poisoned: Vec<(usize, PoolError)>,
}

impl<'p> PoolBatchView<'p> {
    /// Creates a view where batch slot `i` maps to `seqs[i]`.
    pub fn new(pool: &'p mut PagedKvPool, seqs: &'p [SeqId]) -> Self {
        Self {
            pool,
            seqs,
            poisoned: Vec::new(),
        }
    }

    /// Whether `slot` failed an append this iteration.
    fn slot_poisoned(&self, slot: usize) -> bool {
        self.poisoned.iter().any(|&(s, _)| s == slot)
    }

    /// Drains the `(slot, error)` pairs of every slot whose append failed
    /// this iteration (empty on the fault-free path). The caller owns the
    /// containment: each poisoned slot's sequence holds a partially
    /// appended token (never sealed into the trie — sealing requires all
    /// layers complete) and must be torn down or restarted.
    pub fn take_poisoned(&mut self) -> Vec<(usize, PoolError)> {
        std::mem::take(&mut self.poisoned)
    }
}

impl BatchKvCache for PoolBatchView<'_> {
    fn append(&mut self, slot: usize, layer: usize, ks: &[Vec<f32>], vs: &[Vec<f32>]) {
        if self.slot_poisoned(slot) {
            return;
        }
        if let Err(e) = self.pool.append_run(self.seqs[slot], layer, ks, vs) {
            self.poisoned.push((slot, e));
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
