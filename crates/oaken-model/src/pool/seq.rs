//! Sequence lifecycle: admission, growth (the guarded single and batched
//! appends), retirement, and the slot storage they move through.
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
use super::{PagedKvPool, PoolError, PoolShard, SeqId};
use crate::cache::{slot_index, KindSlot};
use oaken_core::{KvKind, KvQuantizer};
use oaken_mmu::FaultOp;
use oaken_runtime::{Runtime, UnsafeSlice};
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

    /// Walks positions `rows` as `(owner, row count)` runs, in order and
    /// without allocating: each pending prompt block owns its own token
    /// range, everything past the planned blocks lands in the tail.
    fn owner_runs(
        &self,
        seq_id: u32,
        block_tokens: usize,
        rows: Range<usize>,
        mut run: impl FnMut(u32, usize),
    ) {
        let planned = self.plan.as_ref().map_or(0, |p| p.blocks.len()) * block_tokens;
        let mut pos = rows.start;
        while pos < rows.end {
            let end = if pos < planned {
                rows.end.min((pos / block_tokens + 1) * block_tokens)
            } else {
                rows.end
            };
            run(self.owner_for_pos(seq_id, block_tokens, pos), end - pos);
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

/// One sequence's K/V rows within a batched pool append
/// ([`PagedKvPool::append_batch`]).
#[derive(Debug, Clone, Copy)]
pub struct SeqRowAppend<'a> {
    /// The sequence the rows belong to.
    pub seq: SeqId,
    /// The token's key vector.
    pub k: &'a [f32],
    /// The token's value vector.
    pub v: &'a [f32],
}

/// What ingesting one token's K/V rows hands to its page commit.
#[derive(Debug, Clone, Copy, Default)]
struct RowRecord {
    /// Rows held by the `(seq, layer)` slots *before* this token
    /// (identical for both kinds) — the position the page commit routes by.
    pos: usize,
    /// `(dense, sparse)` encoded byte sizes of the key row.
    key_bytes: (usize, usize),
    /// `(dense, sparse)` encoded byte sizes of the value row.
    value_bytes: (usize, usize),
}

/// The one row ingest, and what it needs of the pool — borrowed apart
/// from the sequences so the parallel batch phase can hold both.
struct Ingest<'a> {
    quantizer: Option<&'a dyn KvQuantizer>,
    /// Set on an exact-f32 rank shard, which slices the full-width row
    /// itself; quantized shards pass the full row through (the stream
    /// slices after whole-row quantization).
    exact_shard: Option<PoolShard>,
    kv_dim: usize,
}

impl<'a> Ingest<'a> {
    fn new(
        quantizer: &'a Option<std::sync::Arc<dyn KvQuantizer>>,
        shard: Option<PoolShard>,
        kv_dim: usize,
    ) -> Self {
        Self {
            quantizer: quantizer.as_deref(),
            exact_shard: shard.filter(|_| quantizer.is_none()),
            kv_dim,
        }
    }

    /// Quantizes one token's K and V rows into the sequence's own
    /// `(layer)` slots — touching nothing else — and reports where they
    /// landed and how many bytes each stored.
    fn token(&self, state: &mut SeqSlots, layer: usize, k: &[f32], v: &[f32]) -> RowRecord {
        let [key_slot, value_slot] = &mut state.slots[layer];
        RowRecord {
            pos: key_slot.rows,
            key_bytes: self.row(key_slot, k),
            value_bytes: self.row(value_slot, v),
        }
    }

    fn row(&self, slot: &mut KindSlot, row: &[f32]) -> (usize, usize) {
        let row = match self.exact_shard {
            Some(s) => &row[s.start..s.start + self.kv_dim],
            None => row,
        };
        slot.append(row);
        encoded_row_payload(slot, self.quantizer, self.kv_dim)
    }
}

/// Raw pointers to the distinct sequences' slot storage for one batched
/// append — collected serially, dereferenced by exactly one task each.
#[derive(Default)]
struct SlotPtrs(Vec<*mut SeqSlots>);

// SAFETY: the pointers are only alive (and only dereferenced) inside one
// `append_batch` call, each by a single task over a distinct sequence, and
// the pointees (`SeqSlots`) own only `Send` data (`Box<dyn KvRowStream>`
// is `Send` by trait bound), so handing one to a worker thread is sound.
unsafe impl Send for SlotPtrs {}
// SAFETY: tasks share `&SlotPtrs` only to copy out their own run's
// pointer; no two tasks dereference the same one (see `Send` above).
unsafe impl Sync for SlotPtrs {}

/// Reusable buffers for [`PagedKvPool::append_batch`] — held by the pool
/// so the steady-state batched append path performs no heap allocations
/// (enforced by `tests/pool_alloc_free.rs`).
#[derive(Default)]
pub(super) struct BatchScratch {
    /// Consecutive same-sequence runs of the item list:
    /// `(seq id, first item index, item count)`.
    runs: Vec<(u32, usize, usize)>,
    /// One record per item.
    recs: Vec<RowRecord>,
    /// One slot pointer per run.
    ptrs: SlotPtrs,
}

impl PagedKvPool {
    fn fresh_slots(&mut self) -> SeqSlots {
        match self.recycled.pop() {
            Some(s) => s,
            None => SeqSlots {
                slots: (0..self.num_layers)
                    .map(|layer| {
                        let mk = |kind: KvKind| {
                            let stream = self
                                .quantizer
                                .as_ref()
                                .and_then(|q| q.row_stream(self.kv_dim, layer, kind));
                            // The pool's mode is capability-checked at
                            // install, so every slot takes it.
                            KindSlot::new(stream, self.kernel)
                        };
                        [mk(KvKind::Key), mk(KvKind::Value)]
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
    /// one page for every per-head stream whose tail cannot absorb a
    /// worst-case row. Schedulers sum this over the batch before an
    /// iteration and preempt until it fits in [`PagedKvPool::free_pages`].
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
    /// rows will land in.
    fn rows_pages_needed(
        &self,
        state: &SeqSlots,
        seq_id: u32,
        layers: Range<usize>,
        n: usize,
    ) -> u32 {
        let mut needed = 0u32;
        for layer in layers {
            for kind in KvKind::ALL {
                let start = state.slots[layer][slot_index(kind)].rows;
                let bt = self.block_tokens;
                state.owner_runs(seq_id, bt, start..start + n, |owner, rows| {
                    needed += self.pages.run_pages_needed(owner, layer, kind, rows);
                });
            }
        }
        needed
    }

    /// Appends one token's K/V rows for `(seq, layer)`, quantizing them
    /// incrementally and laying the encoded payload into pages — pending
    /// prompt-block streams while inside the planned prompt, the private
    /// tail stream afterwards. Atomic: on `Err` nothing was modified.
    /// Completing the last row of a pending block **seals** it into the
    /// prefix trie (the `blocks` module).
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
    /// Panics if the vector widths disagree with the model's `kv_dim`.
    pub fn append(
        &mut self,
        seq: SeqId,
        layer: usize,
        k: &[f32],
        v: &[f32],
    ) -> Result<(), PoolError> {
        assert_eq!(k.len(), self.append_width(), "key width mismatch");
        assert_eq!(v.len(), self.append_width(), "value width mismatch");
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
        let ingest = Ingest::new(&self.quantizer, self.shard, self.kv_dim);
        let state = self.seqs.get_mut(&seq.0).expect("checked above");
        let rec = ingest.token(state, layer, k, v);
        self.commit_row(seq, layer, rec);
        Ok(())
    }

    /// Whether appends only *extend* this pool's dequantized views (see
    /// [`BatchKvCache::append_only_views`](crate::BatchKvCache::append_only_views)):
    /// true for exact-f32 pools and for every quantizer with an
    /// incremental row stream, false for the recompute-on-read fallback.
    pub fn append_only_views(&self) -> bool {
        self.streaming
    }

    /// Appends one token's K/V rows for `layer` across a whole batch of
    /// sequences — semantically identical to calling
    /// [`PagedKvPool::append`] for each item in order (same state, same
    /// page assignment, same errors), with the quantization work sharded
    /// across `rt`.
    ///
    /// Execution follows the paper's engine/MMU split (§5.2): the many
    /// quantization engines work on independent shards — here, each
    /// sequence's own row streams, the software unit that preserves
    /// bit-exactness — while the MMU stays a **single writer**: a
    /// conservative page bound is checked up front (the pre-reservation),
    /// the parallel phase only quantizes into per-sequence buffers, and
    /// all page allocation happens afterwards on the calling thread in
    /// item order, so physical page assignment is identical to the serial
    /// schedule.
    ///
    /// Items of one sequence must be consecutive (chunked-prefill order);
    /// otherwise, and for a serial `rt` or a batch of one, the call
    /// degrades to the serial loop. After warm-up the batched path
    /// performs no heap allocations (scratch is pool-owned and reused;
    /// enforced by `tests/pool_alloc_free.rs`).
    ///
    /// # Errors
    ///
    /// As [`PagedKvPool::append`]; like the serial loop, items before a
    /// failing item remain applied.
    ///
    /// # Panics
    ///
    /// Panics if any vector width disagrees with the model's `kv_dim`.
    pub fn append_batch(
        &mut self,
        rt: &Runtime,
        layer: usize,
        items: &[SeqRowAppend<'_>],
    ) -> Result<(), PoolError> {
        self.append_batch_with(rt, layer, items.len(), &|i| items[i])
            .map_err(|(_, e)| e)
    }

    /// [`PagedKvPool::append_batch`] over an item *accessor* instead of a
    /// materialized slice, so adapters that only hold a slot→sequence
    /// mapping (the engine's `PoolBatchView`) can feed the batched path
    /// without building a translated item list per call — keeping the
    /// whole engine append path allocation-free in steady state.
    ///
    /// `get(i)` must be pure (it is called more than once per item).
    ///
    /// # Errors
    ///
    /// As [`PagedKvPool::append`], tagged with the index of the failing
    /// item so adapters can contain the failure to one batch slot; like
    /// the serial loop, items before the failing one remain applied and
    /// items after it were not attempted.
    pub fn append_batch_with<'a>(
        &mut self,
        rt: &Runtime,
        layer: usize,
        n_items: usize,
        get: &(dyn Fn(usize) -> SeqRowAppend<'a> + Sync),
    ) -> Result<(), (usize, PoolError)> {
        for i in 0..n_items {
            let it = get(i);
            assert_eq!(it.k.len(), self.append_width(), "key width mismatch");
            assert_eq!(it.v.len(), self.append_width(), "value width mismatch");
        }
        let serial = |pool: &mut Self| -> Result<(), (usize, PoolError)> {
            for i in 0..n_items {
                let it = get(i);
                pool.append(it.seq, layer, it.k, it.v).map_err(|e| (i, e))?;
            }
            Ok(())
        };
        if rt.is_serial() || n_items < 2 || self.faults_active() {
            // Faults force the serial loop: every item polls the
            // schedule individually in item order, so the injection
            // sequence is identical at every thread count.
            return serial(self);
        }
        // Consecutive same-sequence runs; any irregularity (unknown
        // sequence, a sequence split across non-adjacent runs) falls back
        // to the serial loop, which surfaces errors at the right item.
        self.batch.runs.clear();
        for idx in 0..n_items {
            let it = get(idx);
            match self.batch.runs.last_mut() {
                Some((s, _, len)) if *s == it.seq.0 => *len += 1,
                _ => self.batch.runs.push((it.seq.0, idx, 1)),
            }
        }
        let runs_ok = self
            .batch
            .runs
            .iter()
            .enumerate()
            .all(|(i, &(s, _, _))| self.batch.runs[..i].iter().all(|&(p, _, _)| p != s))
            && self
                .batch
                .runs
                .iter()
                .all(|&(s, _, _)| self.seqs.contains_key(&s));
        if !runs_ok {
            return serial(self);
        }
        // Conservative pre-reservation: worst-case pages for the whole
        // batch at this layer. When it does not fit, the serial loop
        // reproduces the exact per-item failure semantics (its per-item
        // bound is weaker, so it may still make progress).
        let mut needed = 0u32;
        for &(seq_id, _, len) in &self.batch.runs {
            needed += self.rows_pages_needed(&self.seqs[&seq_id], seq_id, layer..layer + 1, len);
        }
        if needed > self.free_pages() {
            return serial(self);
        }

        // Phase 1 (parallel): quantize every row into its sequence's own
        // streams — one task per run, rows in item order within a run, so
        // each stream sees exactly the serial append order. Only
        // per-sequence state is touched; sizes land in disjoint records.
        self.batch.recs.clear();
        self.batch.recs.resize(n_items, RowRecord::default());
        self.batch.ptrs.0.clear();
        for &(seq_id, _, _) in &self.batch.runs {
            let state = self.seqs.get_mut(&seq_id).expect("validated above");
            self.batch.ptrs.0.push(state as *mut SeqSlots);
        }
        {
            let runs = &self.batch.runs;
            let ptrs = &self.batch.ptrs;
            let recs = UnsafeSlice::new(&mut self.batch.recs);
            let ingest = Ingest::new(&self.quantizer, self.shard, self.kv_dim);
            rt.run(runs.len(), |r| {
                let (_, start, len) = runs[r];
                let state_ptr: *mut SeqSlots = ptrs.0[r];
                // SAFETY: each run names a distinct live sequence (checked
                // above), so this is the only task touching these slots,
                // and `self.seqs` is not otherwise accessed until the
                // phase completes.
                let state = unsafe { &mut *state_ptr };
                for idx in start..start + len {
                    let it = get(idx);
                    // SAFETY: `idx` ranges are disjoint across runs.
                    *unsafe { recs.get_mut(idx) } = ingest.token(state, layer, it.k, it.v);
                }
            });
        }

        // Phase 2 (serial, item order): lay the encoded bytes into pages
        // and seal any block whose rows are now fully committed — the
        // exact write/seal schedule of the serial loop, so page ids and
        // trie state are bit-identical to it.
        for idx in 0..n_items {
            self.commit_row(get(idx).seq, layer, self.batch.recs[idx]);
        }
        Ok(())
    }

    /// Page commit of one ingested token: its K then V bytes are laid into
    /// the streams of whoever owns position `rec.pos` (new pages charged
    /// to the sequence's private count — pending blocks stay private until
    /// sealed), then every block whose rows are now all committed seals.
    fn commit_row(&mut self, seq: SeqId, layer: usize, rec: RowRecord) {
        let state = self.seqs.get_mut(&seq.0).expect("caller validated");
        let owner = state.owner_for_pos(seq.0, self.block_tokens, rec.pos);
        for (kind, bytes) in [
            (KvKind::Key, rec.key_bytes),
            (KvKind::Value, rec.value_bytes),
        ] {
            state.pages += self.pages.write_row(owner, layer, kind, bytes);
        }
        self.seal_ready_blocks(seq, layer, rec.pos + 1);
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
    let nominal = |q: &dyn KvQuantizer| {
        let bits = q.effective_bits(slot.rows, kv_dim);
        (((bits * kv_dim as f64) / 8.0).ceil() as usize, 0)
    };
    match (&slot.stream, quantizer) {
        (Some(stream), _) => stream
            .last_row_payload()
            .unwrap_or_else(|| nominal(quantizer.expect("streams only exist with a quantizer"))),
        // Recompute-fallback methods: nominal stored size.
        (None, Some(q)) => nominal(q),
        // Exact f32 storage.
        (None, None) => (kv_dim * 4, 0),
    }
}
