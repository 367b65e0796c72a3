//! Read views: what attention reads of a sequence — dequantized views or
//! encoded tensors, each rank its own channels — and the traffic counters
//! over those reads.

use super::blocks::SeqBlock;
use super::seq::SeqShard;
use super::{PagedKvPool, SeqId};
use crate::attention::{tile_pieces, KvRead, QUERY_TILE};
use crate::cache::{slot_index, KernelMode};
use oaken_core::kernel::KEY_GROUP;
use oaken_core::{EncodedStore, KvKind};
use std::sync::atomic::{AtomicU64, Ordering};

/// What one rank's KV shard serves attention for one layer's runs
/// ([`BatchKvCache::read_runs`](crate::BatchKvCache::read_runs)): per run
/// its read, and the runs grouped by the prefix-trie blocks they share.
pub struct ShardReads<'a> {
    /// Per `(slot, queries)` run, in the order asked.
    pub reads: Vec<KvRead<'a>>,
    /// Run indices, group after group, ascending within a group.
    order: Vec<usize>,
    /// Per group, where its runs end in `order`, and its shared rows.
    groups: Vec<(usize, usize)>,
}

impl ShardReads<'_> {
    /// Every run exactly once, per group: its runs, ascending, and its
    /// shared rows — the leading rows every one of their stores holds
    /// bit-identically. Runs whose sequences hold the same first trie
    /// block group together, sharing the rows of the blocks all their
    /// chains agree on (floored to a key group, and to the rows each
    /// holds). Any other run — no shared block, no fused read, no sharer
    /// this layer — is a group of one with no shared rows.
    pub fn groups(&self) -> impl Iterator<Item = (&[usize], usize)> + '_ {
        let starts = std::iter::once(0).chain(self.groups.iter().map(|g| g.0));
        (starts.zip(&self.groups)).map(|(from, &(to, shared))| (&self.order[from..to], shared))
    }
}

/// Cumulative KV read-path traffic of a pool, split by kernel family —
/// the measurement behind the fused kernel's bandwidth claim: in fused
/// mode the bytes column counts **encoded payload bytes**, in exact mode
/// it counts the dequantized f32 view bytes the kernels actually stream.
///
/// Rows and bytes are *logical*: every query token that attends is
/// charged the K and V rows cached when it does (before any sliding
/// window), whether or not it shared a sweep with its neighbours or with
/// other sequences — a step the forward pass ends at its K/V append (a
/// dead step's last layer) reads nothing and is charged nothing.
/// `fused_rows_swept` is the physical side: rows the fused kernel
/// actually walked and decoded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvReadStats {
    /// Encoded rows attended, summed over query tokens.
    pub fused_rows: u64,
    /// Encoded payload bytes those rows occupy.
    pub fused_bytes: u64,
    /// Encoded rows walked by sweeps of the fused kernel. A sweep serves a
    /// tile of up to [`QUERY_TILE`] query tokens: it walks the rows of the
    /// prefix-trie blocks the tile's sequences share once, then each
    /// sequence's own rows up to its last query's. So this equals
    /// `fused_rows` on pure decode without sharers, falls below it on a
    /// chunked prefill, and falls further when sequences that adopted the
    /// same prompt blocks decode together.
    pub fused_rows_swept: u64,
    /// Dequantized f32 rows attended, summed over query tokens.
    pub exact_rows: u64,
    /// f32 bytes those rows occupy.
    pub exact_bytes: u64,
}

impl std::ops::AddAssign for KvReadStats {
    fn add_assign(&mut self, s: Self) {
        self.fused_rows += s.fused_rows;
        self.fused_bytes += s.fused_bytes;
        self.fused_rows_swept += s.fused_rows_swept;
        self.exact_rows += s.exact_rows;
        self.exact_bytes += s.exact_bytes;
    }
}

/// Interior-mutable [`KvReadStats`] accumulator: the fused read path
/// borrows the pool shared (`&self` — K and V must coexist), so the
/// counters are relaxed atomics rather than plain fields.
#[derive(Default)]
pub(super) struct ReadCounters {
    fused_rows: AtomicU64,
    fused_bytes: AtomicU64,
    fused_rows_swept: AtomicU64,
    exact_rows: AtomicU64,
    exact_bytes: AtomicU64,
}

impl ReadCounters {
    pub(super) fn snapshot(&self) -> KvReadStats {
        KvReadStats {
            fused_rows: self.fused_rows.load(Ordering::Relaxed),
            fused_bytes: self.fused_bytes.load(Ordering::Relaxed),
            fused_rows_swept: self.fused_rows_swept.load(Ordering::Relaxed),
            exact_rows: self.exact_rows.load(Ordering::Relaxed),
            exact_bytes: self.exact_bytes.load(Ordering::Relaxed),
        }
    }

    /// Charges `rows` dequantized rows of `kv_dim` f32 channels.
    fn charge_exact(&self, rows: u64, kv_dim: usize) {
        self.exact_rows.fetch_add(rows, Ordering::Relaxed);
        self.exact_bytes
            .fetch_add(rows * (kv_dim * 4) as u64, Ordering::Relaxed);
    }
}

impl PagedKvPool {
    /// Number of cached tokens for `(seq, layer)`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown sequence.
    pub fn seq_len(&self, seq: SeqId, layer: usize) -> usize {
        self.seqs.get(&seq.0).expect("unknown sequence").rows(layer)
    }

    /// Dequantized `[seq_len × width]` view of the cached keys on rank 0 —
    /// a one-rank pool's whole rows (see [`PagedKvPool::rank_view`]). For
    /// encoded rows the view is decoded lazily, only the rows it does not
    /// hold yet (fused attention goes through
    /// [`PagedKvPool::encoded_kv`] and never pays this).
    ///
    /// # Panics
    ///
    /// Panics on an unknown sequence.
    pub fn keys(&mut self, seq: SeqId, layer: usize) -> &[f32] {
        self.rank_view(0, seq, layer, KvKind::Key)
    }

    /// Dequantized view of the cached values on rank 0 (see
    /// [`PagedKvPool::keys`]).
    ///
    /// # Panics
    ///
    /// Panics on an unknown sequence.
    pub fn values(&mut self, seq: SeqId, layer: usize) -> &[f32] {
        self.rank_view(0, seq, layer, KvKind::Value)
    }

    /// Rank `rank`'s dequantized view of one `(seq, layer, kind)` tensor:
    /// its channels of every cached row, synced and charged as one full
    /// read of its rows.
    ///
    /// # Panics
    ///
    /// Panics on an unknown sequence.
    pub fn rank_view(&mut self, rank: usize, seq: SeqId, layer: usize, kind: KvKind) -> &[f32] {
        let width = self.width(rank);
        let state = self.seqs.get_mut(&seq.0).expect("unknown sequence");
        let slot = &mut state.shards[rank].slots[layer][slot_index(kind)];
        slot.sync(self.quantizer.as_deref(), width, layer, kind);
        self.reads.charge_exact(slot.rows as u64, width);
        &slot.view
    }

    /// The `(seq, layer)` K and V tensors of rank 0 in their encoded form
    /// — the fused kernel's read path — accounted as one query token's
    /// read. `None` unless the pool runs [`KernelMode::Fused`] (or for an
    /// unknown sequence). Takes `&self` so the key and value tensors can be
    /// borrowed together; read accounting therefore goes through relaxed
    /// atomic counters.
    pub fn encoded_kv(&self, seq: SeqId, layer: usize) -> Option<(&EncodedStore, &EncodedStore)> {
        let shard = &self.seqs.get(&seq.0)?.shards[0];
        shard.fused(layer, self.kernel)?;
        let KvRead::Fused { keys, values } = self.read_run(shard, self.width(0), layer, 1) else {
            unreachable!("probed fused above");
        };
        let rows = shard.slots[layer][0].rows;
        self.charge_swept(1, |_| (rows, 1), 0);
        Some((keys, values))
    }

    /// Brings the dequantized views of `(seq, layer)` up to date on every
    /// rank for attention's reads — a no-op for slots the fused kernel
    /// reads and for views that appends maintain; an encoding stream's
    /// exact reads decode their missing rows and the recompute fallback
    /// re-materializes here.
    ///
    /// # Panics
    ///
    /// Panics on an unknown sequence.
    pub fn sync_views(&mut self, seq: SeqId, layer: usize) {
        let state = self.seqs.get_mut(&seq.0).expect("unknown sequence");
        for (r, shard) in state.shards.iter_mut().enumerate() {
            if shard.fused(layer, self.kernel).is_some() {
                continue;
            }
            let width = self.plan.kv_channels(r).len();
            for kind in KvKind::ALL {
                let slot = &mut shard.slots[layer][slot_index(kind)];
                slot.sync(self.quantizer.as_deref(), width, layer, kind);
            }
        }
    }

    /// What attention reads of `layer` for the `(slot, queries)` runs,
    /// slot `i` being `seqs[i]`: the runs' views brought up to date, then
    /// per rank and run its read (see
    /// [`BatchKvCache::read_runs`](crate::BatchKvCache::read_runs)).
    pub(crate) fn read_runs(
        &mut self,
        seqs: &[SeqId],
        layer: usize,
        runs: &[(usize, usize)],
    ) -> Vec<ShardReads<'_>> {
        for &(slot, _) in runs {
            self.sync_views(seqs[slot], layer);
        }
        (0..self.ranks.len())
            .map(|r| self.read_layer(r, seqs, layer, runs))
            .collect()
    }

    /// What attention reads of `layer` on `rank` for the `(slot, queries)`
    /// runs, slot `i` being `seqs[i]`, and how the fused kernel sweeps
    /// them: runs whose sequences share prefix-trie blocks form a group
    /// (see [`ShardReads::groups`]). Each run is accounted as its queries'
    /// reads (see [`KvReadStats`]), and each group's sweeps with its shared
    /// rows swept once per tile.
    fn read_layer(
        &self,
        rank: usize,
        seqs: &[SeqId],
        layer: usize,
        runs: &[(usize, usize)],
    ) -> ShardReads<'_> {
        let width = self.width(rank);
        // Per run: its read, and the trie blocks its sequence holds from
        // position 0 on the fused read path and its rows.
        let mut reads = Vec::with_capacity(runs.len());
        let mut chains: Vec<(&[SeqBlock], usize)> = Vec::with_capacity(runs.len());
        for &(slot, queries) in runs {
            let state = self.seqs.get(&seqs[slot].0).expect("unknown sequence");
            let read = self.read_run(&state.shards[rank], width, layer, queries);
            let chain = match (read, &state.plan) {
                (KvRead::Fused { .. }, Some(plan)) => plan.shared_chain(),
                _ => &[],
            };
            reads.push(read);
            chains.push((chain, state.rows(layer)));
        }
        let chain = |r: usize| chains[r].0;
        let root = |r: usize| match chain(r).first() {
            Some(&SeqBlock::Shared(id)) => Some(id),
            _ => None,
        };
        let mut order: Vec<usize> = (0..runs.len()).collect();
        order.sort_unstable_by_key(|&r| (root(r).is_none(), root(r), r));
        let mut groups = Vec::new();
        let mut at = 0;
        for group in order.chunk_by(|&a, &b| root(a).is_some() && root(a) == root(b)) {
            // The chains agree up to the deepest block they all hold alike.
            let first = chain(group[0]);
            let mut depth = group.iter().map(|&r| chain(r).len()).min().unwrap_or(0);
            while depth > 0
                && group
                    .iter()
                    .any(|&r| chain(r)[depth - 1] != first[depth - 1])
            {
                depth -= 1;
            }
            let held = group.iter().map(|&r| chains[r].1).min();
            let rows = (depth * self.block_tokens).min(held.unwrap_or(0));
            let shared = if group.len() > 1 {
                rows / KEY_GROUP * KEY_GROUP
            } else {
                0
            };
            if shared == 0 {
                groups.extend((1..=group.len()).map(|i| (at + i, 0)));
            } else {
                groups.push((at + group.len(), shared));
            }
            at += group.len();
        }
        let shard = ShardReads {
            reads,
            order,
            groups,
        };
        for (group, shared) in shard.groups() {
            // A group of several runs is fused; a lone exact run sweeps
            // nothing.
            if let KvRead::Fused { .. } = shard.reads[group[0]] {
                let run = |j: usize| (chains[group[j]].1, runs[group[j]].1);
                self.charge_swept(group.len(), run, shared);
            }
        }
        shard
    }

    /// Charges the sweeps over one group of `count` fused runs —
    /// `run(j)` is run `j`'s `(rows held, queries)` — whose first `shared`
    /// rows are alike: per tile of up to [`QUERY_TILE`] of their queries,
    /// the shared rows any of its queries sees once, then each run's rows
    /// above them up to its last query's in the tile; K and V each.
    fn charge_swept(&self, count: usize, run: impl Fn(usize) -> (usize, usize), shared: usize) {
        let queries = |j: usize| {
            let (rows, queries) = run(j);
            queries.min(rows)
        };
        let total: usize = (0..count).map(queries).sum();
        let mut swept = 0;
        for t in (0..total).step_by(QUERY_TILE) {
            let tile = t..(t + QUERY_TILE).min(total);
            let mut top = 0;
            for (j, piece) in tile_pieces((0..count).map(queries), tile) {
                let hi = run(j).0 - queries(j) + piece.end;
                top = top.max(hi);
                swept += hi - shared.min(hi);
            }
            swept += shared.min(top);
        }
        (self.reads.fused_rows_swept).fetch_add(2 * swept as u64, Ordering::Relaxed);
    }

    /// What attention reads of one rank's share of a sequence at `layer`,
    /// charged as its logical rows and bytes (the sweep is the caller's to
    /// charge): the encoded tensors in fused mode, else the dequantized
    /// views as of the last [`sync_views`](PagedKvPool::sync_views).
    /// `queries` is the run of consecutive query tokens that attend
    /// through this borrow — the tokens whose rows are the newest `queries`
    /// cached, i.e. the live suffix of the run just appended, not its
    /// appended length.
    ///
    /// # Panics
    ///
    /// Panics if an exact slot's view is stale.
    fn read_run<'a>(
        &'a self,
        shard: &'a SeqShard,
        width: usize,
        layer: usize,
        queries: usize,
    ) -> KvRead<'a> {
        let [key_slot, value_slot] = &shard.slots[layer];
        let rows = key_slot.rows;
        let n = queries.min(rows);
        // Query `i` of the run attends `rows - n + 1 + i` K/V row pairs.
        let attended = (n * (2 * rows + 1 - n)) as u64;
        let Some((keys, values)) = shard.fused(layer, self.kernel) else {
            for slot in [key_slot, value_slot] {
                assert!(
                    slot.view.len() == slot.rows * width,
                    "exact view read without sync_views"
                );
            }
            self.reads.charge_exact(attended, width);
            return KvRead::Exact {
                keys: &key_slot.view,
                values: &value_slot.view,
            };
        };
        // Payload of the first `m` rows of both streams, summed over the
        // run's `m`, off the stores' cumulative COO ends.
        let mut bytes = 0u64;
        for slot in [key_slot, value_slot] {
            let stored = slot.encoded_rows().expect("encoded slots keep rows");
            bytes += (rows - n + 1..=rows)
                .map(|m| stored.payload_bytes(m) as u64)
                .sum::<u64>();
        }
        let reads = &self.reads;
        reads.fused_rows.fetch_add(attended, Ordering::Relaxed);
        reads.fused_bytes.fetch_add(bytes, Ordering::Relaxed);
        KvRead::Fused { keys, values }
    }
}

impl SeqShard {
    /// `layer`'s encoded K and V tensors when `kernel` is
    /// [`KernelMode::Fused`] and both slots keep them — the branch probe,
    /// free of read accounting.
    fn fused(&self, layer: usize, kernel: KernelMode) -> Option<(&EncodedStore, &EncodedStore)> {
        let [key_slot, value_slot] = &self.slots[layer];
        match kernel {
            KernelMode::Fused => Some((key_slot.encoded()?, value_slot.encoded()?)),
            KernelMode::Exact => None,
        }
    }
}

#[cfg(test)]
impl PagedKvPool {
    /// A live sequence's slots on `rank`, for tests that inspect what is
    /// resident.
    pub(crate) fn slots(&self, rank: usize, seq: SeqId) -> &[[crate::cache::KindSlot; 2]] {
        &self.seqs[&seq.0].shards[rank].slots
    }
}
