//! Tiers: moving a whole sequence off the device — to this pool's host
//! tier (suspend / resume) or to another pool's (export / import).
//!
//! # Two-tier memory: suspend and resume
//!
//! The device pool is backed by a host swap tier
//! ([`oaken_mmu::SwapPool`], sized via [`PagedKvPool::set_host_pages`]),
//! which turns preemption from evict-and-recompute into
//! suspend-and-resume:
//!
//! * [`PagedKvPool::suspend_seq`] moves a sequence's **private** pages
//!   (tail streams + pending prompt blocks) to host and freezes its
//!   quantizer stream state, views, and prompt plan verbatim; **shared**
//!   trie blocks stay resident with their page references held, so no
//!   sharer — including the suspended sequence itself — can lose sealed
//!   prefix bytes;
//! * [`PagedKvPool::resume_seq`] thaws the private streams onto fresh
//!   device pages (identical per-token sizes and tail headroom) and the
//!   sequence continues **bit-exactly** where it left off — the hard
//!   contract the swap-resume property tests enforce against
//!   uninterrupted `Session` runs;
//! * transfer pages/bytes are accounted per move, by the returned
//!   [`SwapReceipt`] alone (the engine sums them into its swap counts),
//!   and because Oaken's pages hold 4-bit
//!   dense + sparse payloads, the moved bytes are 3-4× smaller than an
//!   FP16 cache would transfer — the reason swap beats recompute even
//!   more clearly under quantization.
//!
//! An imported sequence lands in the host tier as if it had been
//! suspended here, so one resume path serves both. Every move spans every
//! rank: each checks its headroom (and a thaw its frozen entries' checksums)
//! before any rank's pages move, and the fault schedule is polled once.

use super::blocks::SeqBlock;
use super::seq::SeqSlots;
use super::{PagedKvPool, PoolError, SeqId};
use oaken_mmu::{FaultOp, StreamClass, SwapReceipt, TransferPayload};
use std::fmt;

/// One sequence's KV state packaged for shipment to another pool — the
/// prefill→decode handoff object of a disaggregated cluster
/// ([`PagedKvPool::export_seq`] / [`PagedKvPool::import_seq`]).
///
/// Two halves travel together, mirroring the repo's functional split:
/// the **payload** (quantizer stream state, dequantized views, row
/// counts — the sequence's internal slots, every rank's slice, flattened
/// to fully private form) and the **accounting** (per rank, an
/// [`oaken_mmu::TransferPayload`]: the self-describing per-token size
/// tables covering *every* token, adopted prefix rows included, so the
/// importer rebuilds bit-compatible page tables with no shared state).
/// The wire cost the cluster's transfer clock charges is
/// [`KvTransfer::wire_bytes`].
pub struct KvTransfer {
    slots: SeqSlots,
    pub(super) payloads: Vec<TransferPayload>,
}

impl fmt::Debug for KvTransfer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KvTransfer")
            .field("ranks", &self.payloads.len())
            .field("tokens", &self.tokens())
            .field("wire_bytes", &self.wire_bytes())
            .finish()
    }
}

impl KvTransfer {
    /// The self-describing MMU half, one per rank in rank order: per-stream
    /// size tables, byte totals, and the integrity checksum asserted on
    /// import.
    pub fn payloads(&self) -> &[TransferPayload] {
        &self.payloads
    }

    /// Modeled wire bytes of this transfer: every rank's encoded KV
    /// payload plus its self-describing size-table header.
    pub fn wire_bytes(&self) -> u64 {
        self.payloads.iter().map(|p| p.wire_bytes()).sum()
    }

    /// Tokens cached per `(layer, kind)` slot — the rows the importer's
    /// decode resumes from.
    pub fn tokens(&self) -> usize {
        self.slots.rows(0)
    }
}

impl PagedKvPool {
    /// Suspends an active sequence to the host tier: its private pages
    /// (tail streams plus pending prompt blocks) swap out through every
    /// rank's MMU — device pages free, host pages charge, transfer bytes
    /// are accounted — while its quantizer stream state, dequantized
    /// views, and prompt-block plan are retained verbatim, which is what
    /// makes a later [`resume_seq`](Self::resume_seq) **bit-exact** by
    /// construction. Shared trie blocks stay resident: the suspended
    /// sequence keeps its page references, so a sealed prefix another
    /// sequence is using (or that only this sequence still needs) cannot
    /// be destroyed while it sits on host — releasing them instead would
    /// break the zero-recompute guarantee whenever this sequence was the
    /// last sharer.
    ///
    /// Returns the pages/bytes moved to host, every rank. On `Err` nothing
    /// changed on any rank and the sequence stays active.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownSequence`] for a freed handle,
    /// [`PoolError::OutOfHostPages`] when a rank's host tier cannot hold
    /// its share of the sequence's private pages (the lowest such rank's;
    /// callers fall back to evict-and-recompute), [`PoolError::Fault`] when
    /// the installed fault schedule fails the host charge or the transfer.
    pub fn suspend_seq(&mut self, seq: SeqId) -> Result<SwapReceipt, PoolError> {
        let Some(state) = self.seqs.get(&seq.0) else {
            return Err(PoolError::UnknownSequence { seq });
        };
        let short = |r: usize| {
            let needed = self.ranks[r].device_pages(state.private_owners(seq.0));
            let free = self.rank(r).host_free_pages();
            (needed > free).then_some(PoolError::OutOfHostPages { needed, free })
        };
        // The schedule is polled after the other ranks' host room is
        // checked and before rank 0's: a suspend some rank past the first
        // cannot hold consumes no poll.
        let (lead_short, follower_short) = (short(0), (1..self.ranks.len()).find_map(short));
        if let Some(e) = follower_short {
            return Err(e);
        }
        // Suspension charges the host tier and runs a device → host
        // transfer: both are injectable, polled before anything mutates.
        self.poll_fault(FaultOp::HostAlloc)?;
        self.poll_fault(FaultOp::SwapOut)?;
        if let Some(e) = lead_short {
            return Err(e);
        }
        let state = self.seqs.remove(&seq.0).expect("checked above");
        let owners: Vec<u32> = state.private_owners(seq.0).collect();
        let mut total = SwapReceipt::default();
        for ledger in &mut self.ranks {
            total.merge(ledger.freeze(&owners));
        }
        self.suspended.insert(seq.0, state);
        Ok(total)
    }

    /// Resumes a suspended sequence: its private page streams thaw back
    /// into device memory (fresh pages, identical per-token sizes and
    /// tail headroom) and the sequence becomes active again, bit-exactly
    /// where it left off — views, stream calibration, prompt plan, and
    /// adopted shared blocks all untouched by the round trip. Returns the
    /// pages/bytes moved back.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownSequence`] when the handle is not suspended,
    /// [`PoolError::OutOfPages`] when the device lacks the frozen page
    /// count — the sequence then stays on host and the caller retries
    /// after pages free — [`PoolError::Fault`] when the installed
    /// fault schedule fails the transfer (the sequence also stays on
    /// host; callers retry with backoff, then degrade to a restart), and
    /// [`PoolError::CorruptTransfer`] when a frozen entry's size tables
    /// fail their checksum: nothing thaws, the sequence stays suspended,
    /// and no retry can help — drop it or restart the request.
    pub fn resume_seq(&mut self, seq: SeqId) -> Result<SwapReceipt, PoolError> {
        if !self.suspended.contains_key(&seq.0) {
            return Err(PoolError::UnknownSequence { seq });
        }
        // The resume runs a host → device transfer: injectable, polled
        // before anything mutates (the sequence stays frozen on `Err`).
        self.poll_fault(FaultOp::SwapIn)?;
        let owners: Vec<u32> = self.suspended[&seq.0].private_owners(seq.0).collect();
        // Every rank's headroom and frozen entries are checked before any
        // rank thaws.
        for ledger in &self.ranks {
            let needed = ledger.host_pages(owners.iter().copied());
            let free = ledger.mmu().allocator().free_pages();
            if needed > free {
                return Err(PoolError::OutOfPages { needed, free });
            }
            ledger.can_thaw(&owners)?;
        }
        let state = self.suspended.remove(&seq.0).expect("checked above");
        let mut total = SwapReceipt::default();
        for ledger in &mut self.ranks {
            total.merge(ledger.thaw(&owners));
        }
        self.seqs.insert(seq.0, state);
        Ok(total)
    }

    /// Retires a *suspended* sequence without resuming it: its frozen
    /// entries are discarded (host pages free, no transfer back) and its
    /// shared trie blocks are released leaf-first exactly as
    /// [`free_seq`](Self::free_seq) would. Returns the *device* pages
    /// physically freed (shared blocks whose last sharer this was).
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownSequence`] when the handle is not suspended.
    pub fn drop_suspended_seq(&mut self, seq: SeqId) -> Result<u32, PoolError> {
        let mut state = self
            .suspended
            .remove(&seq.0)
            .ok_or(PoolError::UnknownSequence { seq })?;
        let freed = self.release_pages(seq.0, &mut state, true);
        self.recycle_slots(state);
        Ok(freed)
    }

    /// Exports an active sequence as a [`KvTransfer`] and retires it from
    /// this pool — the send side of a prefill→decode handoff.
    ///
    /// The sequence is **flattened to fully private form**: on every rank,
    /// its per-token size tables are collected across every owner in token
    /// order (adopted shared trie blocks, pending prompt blocks, then the
    /// private tail) and sealed into a self-describing
    /// [`oaken_mmu::TransferPayload`], and its slots (quantizer stream
    /// state, views, row counts) ship verbatim with the prompt plan
    /// stripped. Flattening is what makes the transfer self-contained:
    /// the importer owes nothing to this pool's trie, and the slots
    /// already hold every adopted row's bytes (adoption gives the streams
    /// a block's store segments by reference — they outlive the block for
    /// as long as a stream holds them — and its other rows, or copies its
    /// views into an exact-f32 or FP16 slot's view).
    /// The source side then tears down exactly like
    /// [`free_seq`](Self::free_seq): private pages free, shared blocks
    /// release leaf-first.
    ///
    /// Bit-exactness argument: the slots are the same state
    /// [`suspend_seq`](Self::suspend_seq) retains verbatim — no byte is
    /// re-encoded anywhere on the path — so a decode continued from the
    /// imported sequence reproduces the monolithic engine's tokens
    /// exactly.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownSequence`] for a freed or suspended handle (a
    /// failed export changes nothing).
    pub fn export_seq(&mut self, seq: SeqId) -> Result<KvTransfer, PoolError> {
        let mut slots = self
            .seqs
            .remove(&seq.0)
            .ok_or(PoolError::UnknownSequence { seq })?;
        // Owners in token order: plan blocks root-to-leaf, then the tail.
        let blocks = slots.plan.iter().flat_map(|plan| &plan.blocks);
        let owners: Vec<u32> = blocks
            .map(|block| match block {
                SeqBlock::Shared(id) => self.trie.get(*id).mmu,
                SeqBlock::Pending { mmu } => *mmu,
            })
            .chain([seq.0])
            .collect();
        let payloads = self.ranks.iter().map(|l| l.flatten(&owners)).collect();
        self.release_pages(seq.0, &mut slots, false);
        Ok(KvTransfer { slots, payloads })
    }

    /// Whether [`import_seq`](Self::import_seq) would accept `transfer`
    /// right now — the capacity pre-flight a cluster's transfer clock
    /// polls before committing a handoff (so a full host tier delays the
    /// transfer instead of dropping it).
    ///
    /// # Errors
    ///
    /// [`PoolError::CorruptTransfer`] when the transfer's two halves
    /// disagree with each other or with this pool's geometry: another rank
    /// count, another layer count, or a slot whose rows differ from what
    /// its payload's size tables count. Otherwise the lowest failing
    /// rank's: [`PoolError::OutOfHostPages`] when its host tier lacks room
    /// for its payload's page charge; [`PoolError::CorruptTransfer`] when
    /// the payload fails its checksum and
    /// [`PoolError::TransferExceedsPage`] when it carries a token larger
    /// than this pool's page — no later call can accept any of these but
    /// the first.
    pub fn can_import(&self, transfer: &KvTransfer) -> Result<(), PoolError> {
        if !self.halves_agree(transfer) {
            return Err(PoolError::CorruptTransfer);
        }
        (self.ranks.iter().zip(&transfer.payloads)).try_for_each(|(l, p)| l.can_import(p))
    }

    /// Whether `transfer`'s slots and payloads fit this pool and each
    /// other: one slot shard and one payload per rank of this pool, one
    /// `[K, V]` slot pair per layer of its model, and every slot holding
    /// as many rows as its rank's payload counts per `(layer, kind)` — an
    /// appended row writes one dense size entry for each.
    fn halves_agree(&self, transfer: &KvTransfer) -> bool {
        let (shards, payloads) = (&transfer.slots.shards, &transfer.payloads);
        let layers = self.model.num_layers;
        payloads.len() == self.ranks.len()
            && shards.len() == payloads.len()
            && shards.iter().zip(payloads).all(|(shard, payload)| {
                let dense = (payload.streams.iter())
                    .filter(|s| s.class == StreamClass::Dense)
                    .map(|s| s.sizes.len())
                    .sum::<usize>();
                shard.slots.len() == layers
                    && (shard.slots.iter().flatten()).all(|slot| 2 * layers * slot.rows == dense)
            })
    }

    /// Imports a [`KvTransfer`] from another pool: each rank's payload
    /// lands as a frozen entry of that rank's **host tier** under a fresh
    /// local sequence id (returned), and the slots park in the suspended
    /// map — the imported sequence is indistinguishable from one
    /// [`suspend_seq`](Self::suspend_seq) froze locally, so the normal
    /// [`resume_seq`](Self::resume_seq) machinery (and the serving
    /// engine's resume queue, with its priority, backoff, and demotion
    /// rules) activates it. Every rank's payload is checked before any
    /// lands (see [`oaken_mmu::MmuSim::import_frozen`]).
    ///
    /// # Errors
    ///
    /// Returns the transfer back untouched with
    /// [`PoolError::OutOfHostPages`] when a host tier lacks room (the
    /// caller retries later), [`PoolError::Fault`] when the installed
    /// fault schedule fails the host charge,
    /// [`PoolError::CorruptTransfer`] when a payload fails its checksum or
    /// the transfer's geometry disagrees with its payloads or with this
    /// pool (rank count, layer count, or a slot's rows against its
    /// payload's — cluster engines must share a model), or
    /// [`PoolError::TransferExceedsPage`] when it was written for larger
    /// pages than this pool's. The kernel modes may differ: rows are
    /// stored alike in both.
    #[allow(clippy::result_large_err)]
    pub fn import_seq(
        &mut self,
        transfer: KvTransfer,
    ) -> Result<(SeqId, SwapReceipt), (KvTransfer, PoolError)> {
        // The landing charges the host tier: injectable, polled before
        // anything mutates (the transfer is handed back for a retry).
        let checked =
            (self.can_import(&transfer)).and_then(|()| self.poll_fault(FaultOp::HostAlloc));
        if let Err(e) = checked {
            return Err((transfer, e));
        }
        debug_assert!(transfer.slots.plan.is_none(), "exports are flattened");
        let KvTransfer {
            slots: state,
            payloads,
        } = transfer;
        let id = self.fresh_seq_owner();
        let mut total = SwapReceipt::default();
        for (ledger, payload) in self.ranks.iter_mut().zip(&payloads) {
            total.merge(ledger.import(id, payload));
        }
        self.suspended.insert(id, state);
        Ok((SeqId(id), total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;

    /// An exact-f32 pool of `layers` layers over four 16-wide KV heads,
    /// split over `ranks`, holding one sequence of three tokens.
    fn fed(layers: usize, ranks: usize) -> (PagedKvPool, SeqId) {
        let mut cfg = ModelConfig::llama2_7b().proxy(layers, 64);
        (cfg.num_heads, cfg.num_kv_heads) = (4, 4);
        let mut pool = PagedKvPool::for_model(&cfg, None, 256, 1024);
        assert_eq!(pool.set_ranks(ranks), ranks);
        let seq = pool.alloc_seq();
        let row = |t: usize| (0..64).map(|i| (i + t) as f32).collect::<Vec<f32>>();
        for t in 0..3 {
            for layer in 0..layers {
                pool.append(seq, layer, &row(t), &row(t + 1)).unwrap();
            }
        }
        (pool, seq)
    }

    /// A transfer whose halves disagree — another rank count, another
    /// layer count, or a slot's rows against its payload's size tables —
    /// fails typed, from the pre-flight and from the import, and comes
    /// back whole; the agreeing transfer then lands.
    #[test]
    fn a_transfer_whose_halves_disagree_fails_typed() {
        let export = |layers, ranks| {
            let (mut pool, seq) = fed(layers, ranks);
            pool.export_seq(seq).unwrap()
        };
        let mut rows_off = export(2, 1);
        rows_off.slots.shards[0].slots[1][0].rows += 1;
        let cases = [
            ("ranks", export(2, 2)),
            ("layers", export(1, 1)),
            ("rows", rows_off),
        ];
        for (case, transfer) in cases {
            let (mut dst, _) = fed(2, 1);
            assert_eq!(
                dst.can_import(&transfer),
                Err(PoolError::CorruptTransfer),
                "{case}"
            );
            let (back, e) = dst.import_seq(transfer).expect_err(case);
            assert_eq!(e, PoolError::CorruptTransfer, "{case}");
            assert_eq!(back.tokens(), 3, "{case}: the transfer comes back");
            assert_eq!(dst.suspended.len(), 0, "{case}: nothing landed");
        }
        let (mut dst, _) = fed(2, 1);
        let (seq, _) = dst.import_seq(export(2, 1)).unwrap();
        dst.resume_seq(seq).unwrap();
        assert_eq!(dst.seq_len(seq, 1), 3);
    }
}
