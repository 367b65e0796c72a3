//! Sequence lifecycle: admission, growth (the one guarded append),
//! retirement, and the slot storage they move through.
//!
//! * **Guarded appends** — [`PagedKvPool::append`] checks a conservative
//!   worst-case page bound *before* touching any state and fails cleanly
//!   with [`PoolError::OutOfPages`]; a successful call is atomic for the
//!   `(layer, K, V)` triple. Schedulers should gate whole-token appends
//!   with [`PagedKvPool::pages_possibly_needed_n`] so a multi-layer
//!   forward pass never stalls mid-token.
//! * **Slot recycling** — retiring a sequence frees its private pages
//!   immediately, releases its shared blocks, and recycles its
//!   stream/view buffers (via
//!   [`KvRowStream::reset`](oaken_core::KvRowStream::reset), which retains
//!   frozen calibration) for the next admitted sequence. An Oaken stream's
//!   reset lets go of its sealed store segments — a trie block or another
//!   sequence sharing one keeps it alive, else it is freed — and keeps its
//!   open segment's buffers warm. That retention is
//!   the one deliberate exception to per-sequence bit-exactness:
//!   *calibrate-then-freeze* baselines (Atom/QServe/Tender) keep their
//!   frozen calibration when a slot is recycled — calibration is per-model
//!   state shared across requests in real serving, so a later sequence
//!   reusing a slot decodes with the already-frozen channel order/scales
//!   instead of re-warming on its own first rows.
//! * **One teardown** — wherever a sequence is when it is released (active,
//!   suspended to host, or being exported), its pages go back through
//!   [`PagedKvPool::release_pages`] on every rank: tail first, then its
//!   prompt plan leaf-first.

use super::blocks::{SeqBlock, SeqPlan};
use super::{PagedKvPool, PoolError, SeqId};
use crate::cache::{KindSlot, SlotRows};
use oaken_core::{KvKind, KvQuantizer, KvRowStream, PackedRows};
use oaken_mmu::FaultOp;
use std::ops::Range;

/// Per-sequence storage: each rank's share, plus the prompt plan they
/// share.
pub(super) struct SeqSlots {
    /// Per rank, its channel slice of the sequence. Every rank holds the
    /// same rows: an append lands on all of them or on none.
    pub(super) shards: Vec<SeqShard>,
    /// Prompt-block plan, present when the sequence was admitted through
    /// [`PagedKvPool::alloc_seq_with_prefix`] with sharing enabled.
    pub(super) plan: Option<SeqPlan>,
}

/// One rank's share of a sequence: one [`KindSlot`] per `(layer, kind)`
/// at the rank's width, plus a running private page count so admission
/// accounting never scans the MMU's global stream map.
pub(super) struct SeqShard {
    pub(super) slots: Vec<[KindSlot; 2]>,
    /// Pages owned exclusively by this sequence on the rank: tail streams
    /// plus pending (unsealed) blocks — on device while the sequence is
    /// live, on host while it is suspended. Adopted shared pages are *not*
    /// counted here.
    pub(super) pages: u32,
}

impl SeqSlots {
    /// Rows cached for `layer`, the same on every rank and kind.
    pub(super) fn rows(&self, layer: usize) -> usize {
        self.shards[0].slots[layer][0].rows
    }

    /// The owner the row at `pos` is written under: the pending prompt
    /// block covering it, else the sequence's own tail (`seq_id`).
    fn owner_for_pos(&self, seq_id: u32, block_tokens: usize, pos: usize) -> u32 {
        match self
            .plan
            .as_ref()
            .and_then(|p| p.blocks.get(pos / block_tokens))
        {
            Some(SeqBlock::Pending { mmu }) => *mmu,
            Some(SeqBlock::Shared(_)) => panic!("position {pos} lies in an adopted shared block"),
            None => seq_id,
        }
    }

    /// Walks positions `rows` as `(owner, positions)` runs, in order and
    /// without allocating: each pending prompt block owns its own token
    /// range, everything past the planned blocks lands in the tail.
    fn owner_runs(
        &self,
        seq_id: u32,
        block_tokens: usize,
        rows: Range<usize>,
        mut run: impl FnMut(u32, Range<usize>),
    ) {
        let planned = self.plan.as_ref().map_or(0, |p| p.blocks.len()) * block_tokens;
        let mut pos = rows.start;
        while pos < rows.end {
            let end = if pos < planned {
                rows.end.min((pos / block_tokens + 1) * block_tokens)
            } else {
                rows.end
            };
            run(self.owner_for_pos(seq_id, block_tokens, pos), pos..end);
            pos = end;
        }
    }

    /// The owners whose pages this sequence holds *exclusively* on every
    /// rank: its own tail, then its pending (unsealed) prompt blocks — the
    /// pages that move tiers on suspend. Adopted shared blocks are
    /// excluded.
    pub(super) fn private_owners(&self, seq_id: u32) -> Vec<u32> {
        let blocks = self.plan.iter().flat_map(|plan| &plan.blocks);
        std::iter::once(seq_id)
            .chain(blocks.filter_map(|block| match block {
                SeqBlock::Pending { mmu } => Some(*mmu),
                SeqBlock::Shared(_) => None,
            }))
            .collect()
    }
}

impl PagedKvPool {
    fn fresh_slots(&mut self) -> SeqSlots {
        if let Some(s) = self.recycled.pop() {
            return s;
        }
        let q = self.quantizer.as_deref();
        let shard = |width: usize| SeqShard {
            slots: (0..self.model.num_layers)
                .map(|layer| KvKind::ALL.map(|kind| KindSlot::new(q, width, layer, kind)))
                .collect(),
            pages: 0,
        };
        SeqSlots {
            shards: (0..self.ranks.len())
                .map(|r| shard(self.width(r)))
                .collect(),
            plan: None,
        }
    }

    /// Admits a new sequence with no prompt plan (no prefix sharing),
    /// reusing a retired sequence's buffers when available. No pages are
    /// allocated until the first append.
    pub fn alloc_seq(&mut self) -> SeqId {
        let id = self.fresh_seq_owner();
        let slots = self.fresh_slots();
        self.seqs.insert(id, slots);
        SeqId(id)
    }

    /// Retires a sequence: frees its private pages (tail + pending
    /// blocks), releases its shared blocks leaf-first (freeing each only
    /// when the last sharer departs), and recycles its buffers. Returns
    /// the number of physically freed pages, every rank.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::UnknownSequence`] for a double-free.
    pub fn free_seq(&mut self, seq: SeqId) -> Result<u32, PoolError> {
        let mut state = self
            .seqs
            .remove(&seq.0)
            .ok_or(PoolError::UnknownSequence { seq })?;
        let freed = self.release_pages(seq.0, &mut state, false);
        self.recycle_slots(state);
        Ok(freed)
    }

    /// The one teardown of a sequence's page holdings, for a sequence
    /// already taken out of its map: its tail and pending blocks are given
    /// up on every rank (freed when live, discarded from host when
    /// `frozen`) and its shared blocks released, leaf-first. Returns the
    /// device pages physically freed.
    pub(super) fn release_pages(&mut self, seq_id: u32, state: &mut SeqSlots, frozen: bool) -> u32 {
        let drop_owner = |pool: &mut Self, owner: u32| -> u32 {
            let ledgers = pool.ranks.iter_mut();
            ledgers.map(|ledger| ledger.drop_owner(owner, frozen)).sum()
        };
        let mut freed = drop_owner(self, seq_id);
        let plan = state.plan.take();
        for block in plan.into_iter().flat_map(|p| p.blocks).rev() {
            freed += match block {
                SeqBlock::Pending { mmu } => drop_owner(self, mmu),
                SeqBlock::Shared(id) => self.release_shared_block(id),
            };
        }
        for shard in &mut state.shards {
            shard.pages = 0;
        }
        freed
    }

    /// Clears a retired sequence's buffers and keeps them for reuse.
    pub(super) fn recycle_slots(&mut self, mut state: SeqSlots) {
        for shard in &mut state.shards {
            for slot in shard.slots.iter_mut().flatten() {
                slot.reset_for_reuse();
            }
        }
        self.recycled.push(state);
    }

    /// Worst-case pages appending the next `n` tokens to `seq` could
    /// allocate, every rank — the chunked-prefill reservation bound.
    /// Positions are attributed to the streams they will actually target
    /// (pending prompt blocks, then the private tail). Schedulers weigh
    /// each rank's share ([`RankPages::pages_possibly_needed_n`](super::RankPages::pages_possibly_needed_n))
    /// against that rank's free pages before an iteration and preempt
    /// until every rank fits. Performs no heap allocation (the engine asks
    /// up to twice per active sequence per step; enforced by
    /// `tests/pool_alloc_free.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::UnknownSequence`] for a freed handle.
    pub fn pages_possibly_needed_n(&self, seq: SeqId, n: usize) -> Result<u32, PoolError> {
        self.ranks()
            .map(|r| r.pages_possibly_needed_n(seq, n))
            .sum()
    }

    /// The one page bound: worst-case new pages the next `n` rows of each
    /// of `layers` (both kinds) could allocate on `rank`, walking the
    /// owner runs the rows will land in. Every `(layer, kind)` row of one
    /// owner lands in the same two streams, so each owner is charged once,
    /// for all of them.
    pub(super) fn rows_pages_needed(
        &self,
        state: &SeqSlots,
        seq_id: u32,
        rank: usize,
        layers: Range<usize>,
        n: usize,
    ) -> u32 {
        let starts = || {
            let slots = state.shards[rank].slots[layers.clone()].iter().flatten();
            slots.map(|slot| slot.rows)
        };
        let (Some(first), Some(last)) = (starts().min(), starts().max()) else {
            return 0;
        };
        let ledger = &self.ranks[rank];
        let mut needed = 0u32;
        state.owner_runs(seq_id, self.block_tokens, first..last + n, |owner, run| {
            let rows = starts()
                .map(|s| (s + n).min(run.end).saturating_sub(s.max(run.start)))
                .sum();
            needed += ledger.pages_needed(owner, rows);
        });
        needed
    }

    /// Appends one token's K/V rows for `(seq, layer)`, quantizing them
    /// incrementally and laying the encoded payload into pages — pending
    /// prompt-block streams while inside the planned prompt, the private
    /// tail stream afterwards. Each rank stores its channels of the rows:
    /// a quantized pool split over ranks encodes each row **once**, at
    /// full width, and every rank adopts its slice of the encoding
    /// ([`PackedRows::push_channels`]) — each a pure function of its own
    /// code, outlier entry and the shared scales. (A real rank group would
    /// min/max all-reduce partial scales, an exact reduction with the same
    /// result; the forward pass accounts those syncs to
    /// [`CommStats`](oaken_runtime::CommStats).) Atomic: on `Err` nothing
    /// was modified on any rank. Completing the last row of a pending
    /// block **seals** it into the prefix trie (the `blocks` module).
    ///
    /// This is the one way a row enters the pool: page bound, fault poll,
    /// quantize, page commit, seal — on the calling thread, so each MMU
    /// has a single writer (§5.2) and page assignment follows call order.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownSequence`] for a freed handle,
    /// [`PoolError::OutOfPages`] when a rank's worst-case page bound
    /// exceeds its free pages (the lowest such rank's), and
    /// [`PoolError::Fault`] when the installed fault schedule fails an
    /// append that allocates on rank 0.
    ///
    /// # Panics
    ///
    /// Panics if the vector widths disagree with the model's `kv_dim`.
    pub fn append(
        &mut self,
        seq: SeqId,
        layer: usize,
        k: &[f32],
        v: &[f32],
    ) -> Result<(), PoolError> {
        let kv_dim = self.model.kv_dim();
        assert_eq!(k.len(), kv_dim, "key width mismatch");
        assert_eq!(v.len(), kv_dim, "value width mismatch");
        let plan = self.plan.clone();
        let Some([key_encoder, value_encoder]) = self.encoders.get_mut(layer) else {
            return self.commit(seq, layer, |r, slot, kind| {
                slot.append(&[k, v][kind][plan.kv_channels(r)]);
            });
        };
        let rows = [
            encode(&mut **key_encoder, k),
            encode(&mut **value_encoder, v),
        ];
        let slice = |full: &PackedRows, r: usize| {
            let channels = plan.kv_channels(r);
            let mut one = PackedRows::new(channels.len());
            one.push_channels(full.row(0), channels);
            one
        };
        let shares: Vec<[PackedRows; 2]> = (0..plan.ranks())
            .map(|r| rows.each_ref().map(|full| slice(full, r)))
            .collect();
        self.commit(seq, layer, |r, slot, kind| slot.adopt(&shares[r][kind]))
    }

    /// The commit body behind every row: every rank's page bound, the
    /// fault poll, then `step` stores rank `r`'s row in each of its
    /// `(layer, kind)` slots (keys first), page commit, seal.
    fn commit(
        &mut self,
        seq: SeqId,
        layer: usize,
        mut step: impl FnMut(usize, &mut KindSlot, usize),
    ) -> Result<(), PoolError> {
        let Some(state) = self.seqs.get(&seq.0) else {
            return Err(PoolError::UnknownSequence { seq });
        };
        let layers = layer..layer + 1;
        let lead = self.rows_pages_needed(state, seq.0, 0, layers.clone(), 1);
        if lead > 0 {
            // The append would allocate on rank 0: poll the fault schedule
            // before anything mutates (appends that fit its page tails are
            // not allocation events and never fault).
            self.poll_fault(FaultOp::DeviceAlloc)?;
        }
        let state = &self.seqs[&seq.0];
        for r in 0..self.ranks.len() {
            let needed = match r {
                0 => lead,
                _ => self.rows_pages_needed(state, seq.0, r, layers.clone(), 1),
            };
            let free = self.ranks[r].mmu().allocator().free_pages();
            if needed > free {
                return Err(PoolError::OutOfPages { needed, free });
            }
        }
        let state = self.seqs.get_mut(&seq.0).expect("checked above");
        // The row's bytes go to whoever owns its position; new pages are
        // charged to the sequence's private count (pending blocks stay
        // private until sealed).
        let owner = state.owner_for_pos(seq.0, self.block_tokens, state.rows(layer));
        let q = self.quantizer.as_deref();
        for (r, (shard, ledger)) in state.shards.iter_mut().zip(&mut self.ranks).enumerate() {
            let width = self.plan.kv_channels(r).len();
            for (kind, slot) in shard.slots[layer].iter_mut().enumerate() {
                step(r, slot, kind);
                shard.pages += ledger.write_row(owner, encoded_row_payload(slot, q, width));
            }
        }
        self.seal_ready_blocks(seq);
        Ok(())
    }

    /// Whether appends only *extend* this pool's dequantized views (see
    /// [`BatchKvCache::append_only_views`](crate::BatchKvCache::append_only_views)):
    /// true for exact-f32 pools and for every quantizer with an
    /// incremental row stream, false for the recompute-on-read fallback.
    pub fn append_only_views(&self) -> bool {
        self.streaming
    }
}

/// `row` encoded by `encoder` as the one row it holds, packed: a reset
/// stream is bit-exact with a fresh one (the quantizer is
/// prefix-deterministic), so the encoding depends on the row alone.
fn encode(encoder: &mut dyn KvRowStream, row: &[f32]) -> PackedRows {
    encoder.reset();
    assert!(
        encoder.append_row_encoded(row),
        "rank encoders keep encoded rows"
    );
    let mut one = PackedRows::new(row.len());
    (encoder.encoded_rows().expect("checked when split")).export(0..1, &mut one);
    one
}

/// `(dense, sparse)` stored byte sizes of a slot's most recently appended
/// row: its encoded payload when the stream keeps encoded rows, the
/// quantizer's nominal estimate otherwise, raw f32 bytes for exact
/// storage.
fn encoded_row_payload(
    slot: &KindSlot,
    quantizer: Option<&dyn KvQuantizer>,
    kv_dim: usize,
) -> (usize, usize) {
    let nominal = || {
        let q = quantizer.expect("quantized slots exist only with a quantizer");
        let bits = q.effective_bits(slot.rows, kv_dim);
        (((bits * kv_dim as f64) / 8.0).ceil() as usize, 0)
    };
    match &slot.storage {
        SlotRows::F32 => (kv_dim * 4, 0),
        SlotRows::Stream(stream) => {
            (stream.encoded_rows()).map_or_else(nominal, |rows| rows.row_payload(rows.len() - 1))
        }
        SlotRows::Recompute(_) => nominal(),
    }
}
