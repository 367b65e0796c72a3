//! The engine's adapter: one iteration's slot → sequence mapping over the
//! rank shards, as a [`BatchKvCache`].

use super::{PoolError, SeqId, SeqRowAppend};
use crate::attention::KvRead;
use crate::cache::{BatchAppend, BatchKvCache};
use crate::ranks::RankedPools;
use oaken_runtime::Runtime;

/// Borrowed view pairing the engine's [`RankedPools`] (one private shard
/// per tensor-parallel rank; a lone pool wrapped by
/// [`RankedPools::single`] is the one-shard case) with the batch's slot →
/// sequence mapping for one engine iteration, implementing
/// [`BatchKvCache`] for [`crate::Model::forward_batch_sharded`].
///
/// Every shard appends the same full-width rows, **lead shard first**: the
/// lead alone carries the fault injectors, so its verdict on a row arrives
/// before any follower stores it and a fault plan fires once per logical
/// append.
///
/// Appends never panic: a failing append — an injected
/// [`PoolError::Fault`], or pool exhaustion despite the scheduler's
/// [`pages_possibly_needed_n`](super::PagedKvPool::pages_possibly_needed_n)
/// reservation — **poisons** its
/// batch slot instead. A poisoned slot's later appends are skipped on
/// every shard (its cached state stays exactly as of the failure, so reads
/// remain self-consistent) while every other slot proceeds untouched; the
/// engine drains [`take_poisoned`](Self::take_poisoned) after the forward
/// pass and quarantines the offending sequences — the only cross-shard
/// divergence that can exist, removed everywhere by the teardown. The
/// poison list is an empty `Vec` on the fault-free path, so the steady
/// state stays allocation-free.
pub struct PoolBatchView<'p> {
    pools: &'p mut RankedPools,
    seqs: &'p [SeqId],
    /// `(slot, error)` per poisoned slot, in failure order.
    poisoned: Vec<(usize, PoolError)>,
}

impl<'p> PoolBatchView<'p> {
    /// Creates a view where batch slot `i` maps to `seqs[i]`.
    pub fn new(pools: &'p mut RankedPools, seqs: &'p [SeqId]) -> Self {
        Self {
            pools,
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
    fn append(&mut self, slot: usize, layer: usize, k: &[f32], v: &[f32]) {
        if self.slot_poisoned(slot) {
            return;
        }
        for pool in self.pools.ranks_mut() {
            if let Err(e) = pool.append(self.seqs[slot], layer, k, v) {
                self.poisoned.push((slot, e));
                return;
            }
        }
    }

    fn seq_len(&self, slot: usize, layer: usize) -> usize {
        self.pools.lead().seq_len(self.seqs[slot], layer)
    }

    fn read_runs(&mut self, layer: usize, runs: &[(usize, usize)]) -> Vec<Vec<KvRead<'_>>> {
        for pool in self.pools.ranks_mut() {
            for &(slot, _) in runs {
                pool.sync_views(self.seqs[slot], layer);
            }
        }
        let seqs = self.seqs;
        self.pools
            .ranks()
            .iter()
            .map(|pool| {
                runs.iter()
                    .map(|&(slot, queries)| pool.read_kv(seqs[slot], layer, queries))
                    .collect()
            })
            .collect()
    }

    fn append_only_views(&self) -> bool {
        self.pools.lead().append_only_views()
    }

    fn syncs_row_scales(&self) -> bool {
        self.pools.quantized()
    }

    fn append_batch(&mut self, rt: &Runtime, layer: usize, items: &[BatchAppend<'_>]) {
        if self.pools.num_ranks() > 1
            || self.pools.lead().faults_active()
            || !self.poisoned.is_empty()
        {
            // Per-item appends: no follower stores a row ahead of the
            // lead's verdict on it, each item polls the fault schedule in
            // item order (thread-count-independent injection), and a
            // failure poisons exactly its own slot.
            for it in items {
                self.append(it.slot, layer, it.k, it.v);
            }
            return;
        }
        // Accessor form: translate slot → sequence on the fly instead of
        // materializing a mapped item list (this adapter sits on the
        // steady-state allocation-free append path).
        let seqs = self.seqs;
        let lead = self.pools.lead_mut();
        if let Err((i, e)) = lead.append_batch_with(rt, layer, items.len(), &|i| {
            let it = &items[i];
            SeqRowAppend {
                seq: seqs[it.slot],
                k: it.k,
                v: it.v,
            }
        }) {
            // Items before `i` were applied, item `i` failed atomically:
            // poison its slot and finish the rest one by one so the
            // failure stays contained to a single sequence.
            self.poisoned.push((items[i].slot, e));
            for it in &items[i + 1..] {
                self.append(it.slot, layer, it.k, it.v);
            }
        }
    }
}
