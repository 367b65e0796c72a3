//! Sequence lifecycle: admission, growth (the one guarded append),
//! retirement, and the slot storage they move through.
//!
//! * **Guarded appends** — [`PagedKvPool::append`] checks a conservative
//!   worst-case page bound *before* touching any state and fails cleanly
//!   with [`PoolError::OutOfPages`]; a successful call is atomic for the
//!   `(layer, K, V)` triple. Schedulers should gate whole-token appends
//!   with [`PagedKvPool::pages_possibly_needed`] (or the chunk-sized
//!   [`PagedKvPool::pages_possibly_needed_n`]) so a multi-layer forward
//!   pass never stalls mid-token.
//! * **Slot recycling** — retiring a sequence frees its private pages
//!   immediately, releases its shared blocks, and recycles its
//!   stream/view buffers (via
//!   [`KvRowStream::reset`](oaken_core::KvRowStream::reset), which retains
//!   frozen calibration) for the next admitted sequence. That retention is
//!   the one deliberate exception to per-sequence bit-exactness:
//!   *calibrate-then-freeze* baselines (Atom/QServe/Tender) keep their
//!   frozen calibration when a slot is recycled — calibration is per-model
//!   state shared across requests in real serving, so a later sequence
//!   reusing a slot decodes with the already-frozen channel order/scales
//!   instead of re-warming on its own first rows.
//! * **One teardown** — wherever a sequence is when it is released (active,
//!   suspended to host, or being exported), its pages go back through
//!   [`PagedKvPool::release_pages`]: tail first, then its prompt plan
//!   leaf-first.

use super::blocks::{SeqBlock, SeqPlan};
use super::{PagedKvPool, PoolError, SeqId};
use crate::cache::{KindSlot, SlotRows};
use oaken_core::{FusedVector, KvKind, KvQuantizer};
use oaken_mmu::FaultOp;
use std::ops::Range;

/// Per-sequence storage: one [`KindSlot`] per `(layer, kind)`, plus a
/// running private page count so admission accounting never scans the
/// MMU's global stream map.
pub(super) struct SeqSlots {
    pub(super) slots: Vec<[KindSlot; 2]>,
    /// Pages owned exclusively by this sequence: tail streams plus pending
    /// (unsealed) blocks. Adopted shared pages are *not* counted here.
    pub(super) pages: u32,
    /// Prompt-block plan, present when the sequence was admitted through
    /// [`PagedKvPool::alloc_seq_with_prefix`] with sharing enabled.
    pub(super) plan: Option<SeqPlan>,
}

impl SeqSlots {
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

    /// The owners whose pages this sequence holds *exclusively*: its own
    /// tail, then its pending (unsealed) prompt blocks — the pages that
    /// move tiers on suspend. Adopted shared blocks are excluded.
    pub(super) fn private_owners(&self, seq_id: u32) -> impl Iterator<Item = u32> + '_ {
        let blocks = self.plan.iter().flat_map(|plan| &plan.blocks);
        std::iter::once(seq_id).chain(blocks.filter_map(|block| match block {
            SeqBlock::Pending { mmu } => Some(*mmu),
            SeqBlock::Shared(_) => None,
        }))
    }
}

impl PagedKvPool {
    fn fresh_slots(&mut self) -> SeqSlots {
        match self.recycled.pop() {
            Some(s) => s,
            None => SeqSlots {
                slots: (0..self.num_layers)
                    .map(|layer| {
                        // The pool's mode is capability-checked at
                        // install, so every slot takes it.
                        KvKind::ALL.map(|kind| {
                            let q = self.quantizer.as_deref();
                            KindSlot::new(q, self.kv_dim, layer, kind, self.kernel)
                        })
                    })
                    .collect(),
                pages: 0,
                plan: None,
            },
        }
    }

    /// Admits a new sequence with no prompt plan (no prefix sharing),
    /// reusing a retired sequence's buffers when available. No pages are
    /// allocated until the first append.
    pub fn alloc_seq(&mut self) -> SeqId {
        let id = self.pages.fresh_seq_owner();
        let slots = self.fresh_slots();
        self.seqs.insert(id, slots);
        SeqId(id)
    }

    /// Retires a sequence: frees its private pages (tail + pending
    /// blocks), releases its shared blocks leaf-first (freeing each only
    /// when the last sharer departs), and recycles its buffers. Returns
    /// the number of physically freed pages.
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
    /// up (freed when live, discarded from host when `frozen`) and its
    /// shared blocks released, leaf-first. Returns the device pages
    /// physically freed.
    pub(super) fn release_pages(&mut self, seq_id: u32, state: &mut SeqSlots, frozen: bool) -> u32 {
        let mut freed = self.pages.drop_owner(seq_id, frozen);
        let plan = state.plan.take();
        for block in plan.into_iter().flat_map(|p| p.blocks).rev() {
            freed += match block {
                SeqBlock::Pending { mmu } => self.pages.drop_owner(mmu, frozen),
                SeqBlock::Shared(id) => self.release_shared_block(id),
            };
        }
        state.pages = 0;
        freed
    }

    /// Clears a retired sequence's buffers and keeps them for reuse.
    pub(super) fn recycle_slots(&mut self, mut state: SeqSlots) {
        for slot in state.slots.iter_mut().flatten() {
            slot.reset_for_reuse();
        }
        self.recycled.push(state);
    }

    /// Worst-case pages appending **one token** to `seq` could allocate:
    /// the pages its every-layer K/V rows overflow the owner's dense slab
    /// and sparse log tails by (the slab exactly, the log at worst-case
    /// rows). Schedulers sum this over the batch before an iteration and
    /// preempt until it fits in [`PagedKvPool::free_pages`].
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::UnknownSequence`] for a freed handle.
    pub fn pages_possibly_needed(&self, seq: SeqId) -> Result<u32, PoolError> {
        self.pages_possibly_needed_n(seq, 1)
    }

    /// Worst-case pages appending the next `n` tokens to `seq` could
    /// allocate — the chunked-prefill reservation bound. Positions are
    /// attributed to the streams they will actually target (pending
    /// prompt blocks, then the private tail). Performs no heap
    /// allocation (the engine asks up to twice per active sequence per
    /// step; enforced by `tests/pool_alloc_free.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::UnknownSequence`] for a freed handle.
    pub fn pages_possibly_needed_n(&self, seq: SeqId, n: usize) -> Result<u32, PoolError> {
        let state = self
            .seqs
            .get(&seq.0)
            .ok_or(PoolError::UnknownSequence { seq })?;
        Ok(self.rows_pages_needed(state, seq.0, 0..self.num_layers, n))
    }

    /// The one page bound: worst-case new pages the next `n` rows of each
    /// of `layers` (both kinds) could allocate, walking the owner runs the
    /// rows will land in. Every `(layer, kind)` row of one owner lands in
    /// the same two streams, so each owner is charged once, for all of
    /// them.
    fn rows_pages_needed(
        &self,
        state: &SeqSlots,
        seq_id: u32,
        layers: Range<usize>,
        n: usize,
    ) -> u32 {
        let starts = || {
            let slots = state.slots[layers.clone()].iter().flatten();
            slots.map(|slot| slot.rows)
        };
        let (Some(first), Some(last)) = (starts().min(), starts().max()) else {
            return 0;
        };
        let mut needed = 0u32;
        state.owner_runs(seq_id, self.block_tokens, first..last + n, |owner, run| {
            let rows = starts()
                .map(|s| (s + n).min(run.end).saturating_sub(s.max(run.start)))
                .sum();
            needed += self.pages.pages_needed(owner, rows);
        });
        needed
    }

    /// Appends one token's K/V rows for `(seq, layer)`, quantizing them
    /// incrementally and laying the encoded payload into pages — pending
    /// prompt-block streams while inside the planned prompt, the private
    /// tail stream afterwards. Atomic: on `Err` nothing was modified.
    /// Completing the last row of a pending block **seals** it into the
    /// prefix trie (the `blocks` module).
    ///
    /// This is the one way a row enters the pool: page bound, fault poll,
    /// quantize, page commit, seal — on the calling thread, so the MMU has
    /// a single writer (§5.2) and page assignment follows call order. A
    /// quantized rank shard takes the same path with the quantize step
    /// replaced by adopting its slice of a row encoded once at full width
    /// (`adopt_encoded`).
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownSequence`] for a freed handle,
    /// [`PoolError::OutOfPages`] when the worst-case page bound exceeds
    /// the free pages, [`PoolError::Fault`] when the installed fault
    /// schedule fails an allocating append.
    ///
    /// # Panics
    ///
    /// Panics if the vector widths disagree with the pool's `kv_dim`, or
    /// if the pool is a quantized rank shard (see
    /// [`PagedKvPool::for_model_shard`]).
    pub fn append(
        &mut self,
        seq: SeqId,
        layer: usize,
        k: &[f32],
        v: &[f32],
    ) -> Result<(), PoolError> {
        assert_eq!(k.len(), self.kv_dim, "key width mismatch");
        assert_eq!(v.len(), self.kv_dim, "value width mismatch");
        assert!(
            !self.adopts_only,
            "a quantized rank shard adopts rows encoded at full width"
        );
        self.commit(seq, layer, |slot, kind| slot.append([k, v][kind]))
    }

    /// [`append`](Self::append) for a quantized rank shard: `k` and `v` are
    /// its channels of one token's rows, encoded at full width.
    pub(crate) fn adopt_encoded(
        &mut self,
        seq: SeqId,
        layer: usize,
        k: &FusedVector,
        v: &FusedVector,
    ) -> Result<(), PoolError> {
        assert!(
            k.dim() == self.kv_dim && v.dim() == self.kv_dim,
            "encoded slice width mismatch"
        );
        self.commit(seq, layer, |slot, kind| slot.adopt([k, v][kind]))
    }

    /// The commit body behind every row: page bound, fault poll, then
    /// `step` stores the row in each `(layer, kind)` slot (keys first),
    /// page commit, seal.
    fn commit(
        &mut self,
        seq: SeqId,
        layer: usize,
        mut step: impl FnMut(&mut KindSlot, usize),
    ) -> Result<(), PoolError> {
        let Some(state) = self.seqs.get(&seq.0) else {
            return Err(PoolError::UnknownSequence { seq });
        };
        let needed = self.rows_pages_needed(state, seq.0, layer..layer + 1, 1);
        if needed > 0 {
            // The append would allocate: poll the fault schedule before
            // anything mutates (appends that fit the page tails are not
            // allocation events and never fault).
            self.pages.poll_fault(FaultOp::DeviceAlloc)?;
        }
        let free = self.free_pages();
        if needed > free {
            return Err(PoolError::OutOfPages { needed, free });
        }
        let state = self.seqs.get_mut(&seq.0).expect("checked above");
        // The row's bytes go to whoever owns its position; new pages are
        // charged to the sequence's private count (pending blocks stay
        // private until sealed).
        let owner = state.owner_for_pos(seq.0, self.block_tokens, state.slots[layer][0].rows);
        for (kind, slot) in state.slots[layer].iter_mut().enumerate() {
            step(slot, kind);
            let bytes = encoded_row_payload(slot, self.quantizer.as_deref(), self.kv_dim);
            state.pages += self.pages.write_row(owner, bytes);
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

/// `(dense, sparse)` stored byte sizes of a slot's most recently appended
/// row: the stream's actual payload when tracked, the quantizer's nominal
/// estimate otherwise, raw f32 bytes for exact storage.
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
        SlotRows::Stream(stream) => stream.last_row_payload().unwrap_or_else(nominal),
        SlotRows::Recompute(_) => nominal(),
    }
}
