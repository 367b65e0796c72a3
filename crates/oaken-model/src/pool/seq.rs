//! Sequence lifecycle: admission, growth (the one guarded append),
//! retirement, and the slot storage they move through.
//!
//! * **Reserve, then write** — a scheduler proves a step fits with
//!   [`PagedKvPool::pages_possibly_needed_n`] on every rank and polls the
//!   device-allocation fault once per sequence with
//!   [`PagedKvPool::reserve`], before the forward pass; the pass's
//!   appends then cannot fail. [`PagedKvPool::append_run`] still checks a
//!   conservative worst-case page bound *before* touching any state —
//!   once for a run that fits, else per row — and fails cleanly with
//!   [`PoolError::OutOfPages`]; each row is atomic for its `(layer, K, V)`
//!   triple, and a run ends as its rows appended one by one would.
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
use crate::ranks::RankPlan;
use oaken_core::kernel::KEY_GROUP;
use oaken_core::{FusedReadParams, KvKind, KvQuantizer, OakenScratch, PackedRows};
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
/// at the rank's width. Its pages are counted by the rank's page ledger,
/// under the sequence's [private owners](SeqSlots::private_owners).
pub(super) struct SeqShard {
    pub(super) slots: Vec<[KindSlot; 2]>,
}

impl SeqSlots {
    /// Rows cached for `layer`, the same on every rank and kind.
    pub(super) fn rows(&self, layer: usize) -> usize {
        self.shards[0].slots[layer][0].rows
    }

    /// The owner the rows from `pos` are written under, and where its run
    /// ends within `pos..end`: the pending prompt block covering `pos`
    /// owns up to the block's last token, the sequence's own tail
    /// (`seq_id`) everything past the planned blocks.
    fn owner_run(&self, seq_id: u32, block_tokens: usize, pos: usize, end: usize) -> (u32, usize) {
        let blocks = self.plan.as_ref().map_or(&[][..], |p| &p.blocks[..]);
        match blocks.get(pos / block_tokens) {
            Some(SeqBlock::Pending { mmu }) => {
                (*mmu, end.min((pos / block_tokens + 1) * block_tokens))
            }
            Some(SeqBlock::Shared(_)) => panic!("position {pos} lies in an adopted shared block"),
            None => (seq_id, end),
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
        let mut pos = rows.start;
        while pos < rows.end {
            let (owner, end) = self.owner_run(seq_id, block_tokens, pos, rows.end);
            run(owner, pos..end);
            pos = end;
        }
    }

    /// The owners whose pages this sequence holds *exclusively* on every
    /// rank: its own tail, then its pending (unsealed) prompt blocks — the
    /// pages that move tiers on suspend. Adopted shared blocks are
    /// excluded.
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
        if let Some(s) = self.recycled.pop() {
            return s;
        }
        let q = self.quantizer.as_deref();
        let shard = |width: usize| SeqShard {
            slots: (0..self.model.num_layers)
                .map(|layer| KvKind::ALL.map(|kind| KindSlot::new(q, width, layer, kind)))
                .collect(),
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

    /// The fault check of `seq`'s next `n` tokens, before a forward pass
    /// appends them: one [`FaultOp::DeviceAlloc`] poll when they could
    /// allocate on rank 0 (a step that fits its page tails is not an
    /// allocation event and never faults). The page bound itself is the
    /// caller's: nothing allocates between its check and the pass, so no
    /// hold is kept. Mutates nothing but the fault schedule, and returns
    /// at once with no schedule installed.
    ///
    /// # Errors
    ///
    /// [`PoolError::Fault`] when the installed fault schedule fails the
    /// step, and [`PoolError::UnknownSequence`] for a freed handle under
    /// a schedule.
    pub fn reserve(&mut self, seq: SeqId, n: usize) -> Result<(), PoolError> {
        if self.faults.is_some() && self.rank(0).pages_possibly_needed_n(seq, n)? > 0 {
            self.poll_fault(FaultOp::DeviceAlloc)?;
        }
        Ok(())
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

    /// Appends one token's K/V rows for `(seq, layer)`: the one-row case
    /// of [`append_run`](Self::append_run).
    ///
    /// # Errors
    ///
    /// As [`append_run`](Self::append_run).
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
        self.append_run(seq, layer, &[k], &[v])
    }

    /// Appends a run of consecutive tokens' K/V rows for `(seq, layer)` —
    /// `ks[i]` and `vs[i]` the `i`-th token's — quantizing them and laying
    /// the encoded payload into pages: pending prompt-block streams while
    /// inside the planned prompt, the private tail stream afterwards. Each
    /// rank stores its channels of the rows: a quantized pool split over
    /// ranks encodes each row **once**, at full width, in page form, and
    /// every rank adopts its slice of the encoding
    /// ([`PackedRows::push_channels`]) — each a pure function of its own
    /// code, outlier entry and the shared scales. (A real rank group would
    /// min/max all-reduce partial scales, an exact reduction with the same
    /// result; the forward pass accounts those syncs to
    /// [`CommStats`](oaken_runtime::CommStats).) Completing the last row
    /// of a pending block **seals** it into the prefix trie (the `blocks`
    /// module).
    ///
    /// This is the one way rows enter the pool, on the calling thread, so
    /// each MMU has a single writer (§5.2) and page assignment follows
    /// call order. A run whose worst-case page bound fits every rank pays
    /// that bound once and stores its rows a pending block (or the tail)
    /// at a time — the pool's encoder quantizes them and every slot
    /// adopts its channels up to each 16-row group edge at once — then
    /// commits their pages in row order, sealing at block ends.
    /// When the whole run does not fit (or the rows' stored size is the
    /// quantizer's nominal estimate, which the bound cannot pin down
    /// ahead of them), rows go one at a time, each with its own bound.
    /// Either way the pool ends exactly as appending the rows one by one
    /// leaves it: the same pages, owners, seals and stores, and on `Err`
    /// the rows before the failing one appended and nothing of it or
    /// after it on any rank. Appends never poll the fault schedule: the
    /// device-allocation fault is [`reserve`](Self::reserve)'s.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownSequence`] for a freed handle, and
    /// [`PoolError::OutOfPages`] when a row's worst-case page bound
    /// exceeds a rank's free pages (the lowest such rank's).
    ///
    /// # Panics
    ///
    /// Panics if the numbers of key and value rows differ, or a row's
    /// width disagrees with the model's `kv_dim`.
    pub fn append_run<R: AsRef<[f32]>>(
        &mut self,
        seq: SeqId,
        layer: usize,
        ks: &[R],
        vs: &[R],
    ) -> Result<(), PoolError> {
        let kv_dim = self.model.kv_dim();
        assert_eq!(ks.len(), vs.len(), "one value row per key row");
        for (k, v) in ks.iter().zip(vs) {
            assert_eq!(k.as_ref().len(), kv_dim, "key width mismatch");
            assert_eq!(v.as_ref().len(), kv_dim, "value width mismatch");
        }
        if !self.seqs.contains_key(&seq.0) {
            return Err(PoolError::UnknownSequence { seq });
        }
        // Exact rows and encoded ones are sized by the row alone.
        let sized = self.quantizer.is_none() || self.encodes();
        if sized && self.check_rows(seq, layer, ks.len()).is_ok() {
            self.store_rows(seq, layer, ks, vs);
            return Ok(());
        }
        for t in 0..ks.len() {
            self.check_rows(seq, layer, 1)?;
            self.store_rows(seq, layer, &ks[t..t + 1], &vs[t..t + 1]);
        }
        Ok(())
    }

    /// The pre-check of the next `n` rows of `(seq, layer)`: every rank's
    /// page bound against its free pages. Mutates nothing.
    fn check_rows(&self, seq: SeqId, layer: usize, n: usize) -> Result<(), PoolError> {
        let state = &self.seqs[&seq.0];
        for r in 0..self.ranks.len() {
            let needed = self.rows_pages_needed(state, seq.0, r, layer..layer + 1, n);
            let free = self.ranks[r].mmu().allocator().free_pages();
            if needed > free {
                return Err(PoolError::OutOfPages { needed, free });
            }
        }
        Ok(())
    }

    /// Stores rows `ks`/`vs` a page owner at a time: every rank's slots
    /// take the owner's rows, their pages are committed row by row in the
    /// order single appends write them — per row, on each rank, the key's
    /// bytes then the value's — and the blocks the rows complete seal.
    /// The caller checked the page bound.
    fn store_rows<R: AsRef<[f32]>>(&mut self, seq: SeqId, layer: usize, ks: &[R], vs: &[R]) {
        let mut done = 0;
        while done < ks.len() {
            let state = self.seqs.get_mut(&seq.0).expect("checked by the caller");
            let start = state.rows(layer);
            let (owner, end) =
                state.owner_run(seq.0, self.block_tokens, start, start + ks.len() - done);
            let rows = done..done + end - start;
            let kinds = [&ks[rows.clone()], &vs[rows.clone()]];
            match &mut self.encoder {
                Some(encoder) => {
                    // Up to each 16-row group edge of the slots' stores.
                    let mut at = start;
                    while at < end {
                        let to = end.min((at / KEY_GROUP + 1) * KEY_GROUP);
                        let part = at - start..to - start;
                        encoder.encode(layer, kinds.map(|rows| &rows[part.clone()]), &self.plan);
                        for (r, shard) in state.shards.iter_mut().enumerate() {
                            for (slot, share) in shard.slots[layer].iter_mut().zip(encoder.share(r))
                            {
                                slot.adopt(share);
                            }
                        }
                        at = to;
                    }
                }
                None => {
                    for (r, shard) in state.shards.iter_mut().enumerate() {
                        let channels = self.plan.kv_channels(r);
                        for (slot, rows) in shard.slots[layer].iter_mut().zip(kinds) {
                            rows.iter()
                                .for_each(|row| slot.append(&row.as_ref()[channels.clone()]));
                        }
                    }
                }
            }
            // The rows' bytes go to their owner (pending blocks stay
            // private until sealed).
            let q = self.quantizer.as_deref();
            for (r, (shard, ledger)) in state.shards.iter().zip(&mut self.ranks).enumerate() {
                let width = self.plan.kv_channels(r).len();
                for t in start..end {
                    for slot in &shard.slots[layer] {
                        ledger.write_row(owner, row_payload(slot, q, width, t));
                    }
                }
            }
            self.seal_ready_blocks(seq);
            done = rows.end;
        }
    }

    /// Whether appends only *extend* this pool's dequantized views (see
    /// [`BatchKvCache::append_only_views`](crate::BatchKvCache::append_only_views)):
    /// true for exact-f32 pools and for every quantizer with an
    /// incremental row stream, false for the recompute-on-read fallback.
    pub fn append_only_views(&self) -> bool {
        self.streaming
    }
}

/// A quantized pool's encoder: each row is quantized once, at full
/// width, into page form, for every rank's slots to adopt — split over
/// ranks, sliced to each rank's channels ([`PackedRows::push_channels`])
/// — up to the slots' next 16-row group edge at a time: the room its
/// buffers are sized for up front, so what it holds does not depend on
/// how rows arrived.
pub(super) struct RankEncoder {
    /// Per layer, the key and value tensors' quantization parameters —
    /// their streams' stores'.
    params: Vec<[FusedReadParams; 2]>,
    scratch: OakenScratch,
    /// The rows being encoded at full width, keys and values: what one
    /// rank adopts.
    full: [PackedRows; 2],
    /// Split over ranks, each rank's channels of them (none at one rank).
    shares: Vec<[PackedRows; 2]>,
    /// Rows quantized, keys and values.
    #[cfg(test)]
    pub(super) quantized: usize,
}

impl RankEncoder {
    /// An encoder over `quantizer`'s streams of `kv_dim`-wide rows of
    /// `layers` layers, for ranks whose channels `plan` gives.
    pub(super) fn new(
        quantizer: &dyn KvQuantizer,
        layers: usize,
        kv_dim: usize,
        plan: &RankPlan,
    ) -> Self {
        let params = |layer, kind| {
            let stream = quantizer
                .row_stream(kv_dim, layer, kind)
                .expect("checked by the caller");
            *stream
                .encoded_rows()
                .expect("checked by the caller")
                .params()
        };
        let split = plan.ranks() > 1;
        Self {
            params: (0..layers)
                .map(|l| KvKind::ALL.map(|kind| params(l, kind)))
                .collect(),
            scratch: OakenScratch::new(),
            full: [(); 2].map(|()| PackedRows::with_capacity(kv_dim, KEY_GROUP)),
            shares: (0..plan.ranks())
                .filter(|_| split)
                .map(|r| {
                    let width = plan.kv_channels(r).len();
                    [(); 2].map(|()| PackedRows::with_capacity(width, KEY_GROUP))
                })
                .collect(),
            #[cfg(test)]
            quantized: 0,
        }
    }

    /// Encodes `rows` — `layer`'s key rows, then its value rows — for
    /// every rank's [`share`](Self::share).
    fn encode<R: AsRef<[f32]>>(&mut self, layer: usize, rows: [&[R]; 2], plan: &RankPlan) {
        for (kind, rows) in rows.into_iter().enumerate() {
            let full = &mut self.full[kind];
            full.clear();
            for row in rows {
                (self.scratch).quantize_into(row.as_ref(), &self.params[layer][kind], full);
            }
            #[cfg(test)]
            {
                self.quantized += rows.len();
            }
            for (r, shares) in self.shares.iter_mut().enumerate() {
                let share = &mut shares[kind];
                share.clear();
                full.iter()
                    .for_each(|row| share.push_channels(row, plan.kv_channels(r)));
            }
        }
    }

    /// Rank `r`'s key and value rows of the last [`encode`](Self::encode):
    /// all of them at one rank, its channels when split.
    fn share(&self, r: usize) -> &[PackedRows; 2] {
        if self.shares.is_empty() {
            &self.full
        } else {
            &self.shares[r]
        }
    }
}

/// `(dense, sparse)` stored byte sizes of a slot's row `t`: its encoded
/// payload when the stream keeps encoded rows, the quantizer's nominal
/// estimate at `t + 1` rows otherwise, raw f32 bytes for exact storage.
fn row_payload(
    slot: &KindSlot,
    quantizer: Option<&dyn KvQuantizer>,
    kv_dim: usize,
    t: usize,
) -> (usize, usize) {
    let nominal = || {
        let q = quantizer.expect("quantized slots exist only with a quantizer");
        let bits = q.effective_bits(t + 1, kv_dim);
        (((bits * kv_dim as f64) / 8.0).ceil() as usize, 0)
    };
    match &slot.storage {
        SlotRows::F32 => (kv_dim * 4, 0),
        SlotRows::Stream(stream) => {
            (stream.encoded_rows()).map_or_else(nominal, |rows| rows.row_payload(t))
        }
        SlotRows::Recompute(_) => nominal(),
    }
}
