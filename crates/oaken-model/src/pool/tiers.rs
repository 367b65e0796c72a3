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
//!   trie blocks stay resident with their refcounts held, so no sharer —
//!   including the suspended sequence itself — can lose sealed prefix
//!   bytes;
//! * [`PagedKvPool::resume_seq`] thaws the private streams onto fresh
//!   device pages (identical per-token sizes and tail headroom) and the
//!   sequence continues **bit-exactly** where it left off — the hard
//!   contract the swap-resume property tests enforce against
//!   uninterrupted `Session` runs;
//! * transfer pages/bytes are accounted per move
//!   ([`PagedKvPool::swap_stats`]), and because Oaken's pages hold 4-bit
//!   dense + sparse payloads, the moved bytes are 3-4× smaller than an
//!   FP16 cache would transfer — the reason swap beats recompute even
//!   more clearly under quantization.
//!
//! An imported sequence lands in the host tier as if it had been
//! suspended here, so one resume path serves both.

use super::blocks::SeqBlock;
use super::seq::SeqSlots;
use super::{PagedKvPool, PoolError, SeqId};
use crate::cache::KernelMode;
use oaken_mmu::{FaultOp, SwapReceipt, TransferPayload};
use std::fmt;

/// A sequence frozen to the host tier: suspended locally or imported.
pub(super) struct SuspendedSeq {
    /// The sequence's slots, retained verbatim: quantizer stream state,
    /// dequantized views, row counts, and the prompt-block plan.
    pub(super) slots: SeqSlots,
    /// Host pages its private streams occupy (the device pages a resume
    /// needs, as an upper bound).
    pub(super) frozen_pages: u32,
}

/// One sequence's KV state packaged for shipment to another pool — the
/// prefill→decode handoff object of a disaggregated cluster
/// ([`PagedKvPool::export_seq`] / [`PagedKvPool::import_seq`]).
///
/// Two halves travel together, mirroring the repo's functional split:
/// the **payload** (quantizer stream state, dequantized views, row
/// counts — the sequence's internal slots, flattened to fully private
/// form) and the **accounting** (an [`oaken_mmu::TransferPayload`]: the
/// self-describing per-token size tables covering *every* token,
/// adopted prefix rows included, so the importer rebuilds bit-compatible
/// page tables with no shared state). The wire cost the cluster's
/// transfer clock charges is [`KvTransfer::wire_bytes`].
pub struct KvTransfer {
    slots: SeqSlots,
    pub(super) payload: TransferPayload,
}

impl fmt::Debug for KvTransfer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KvTransfer")
            .field("layers", &self.slots.slots.len())
            .field("bytes", &self.payload.bytes)
            .field("checksum", &self.payload.checksum)
            .finish()
    }
}

impl KvTransfer {
    /// The self-describing MMU half: per-stream size tables, byte totals,
    /// and the integrity checksum asserted on import.
    pub fn payload(&self) -> &TransferPayload {
        &self.payload
    }

    /// Modeled wire bytes of this transfer: the encoded KV payload plus
    /// the self-describing size-table header.
    pub fn wire_bytes(&self) -> u64 {
        self.payload.wire_bytes()
    }

    /// Tokens cached per `(layer, kind)` slot — the rows the importer's
    /// decode resumes from.
    pub fn tokens(&self) -> usize {
        self.slots.slots.first().map_or(0, |pair| pair[0].rows)
    }
}

impl PagedKvPool {
    /// Suspends an active sequence to the host tier: its private pages
    /// (tail streams plus pending prompt blocks) swap out through the MMU
    /// — device pages free, host pages charge, transfer bytes are
    /// accounted — while its quantizer stream state, dequantized views,
    /// and prompt-block plan are retained verbatim, which is what makes a
    /// later [`resume_seq`](Self::resume_seq) **bit-exact** by
    /// construction. Shared trie blocks stay resident: the suspended
    /// sequence keeps its refcounts, so a sealed prefix another sequence
    /// is using (or that only this sequence still needs) cannot be
    /// destroyed while it sits on host — releasing them instead would
    /// break the zero-recompute guarantee whenever this sequence was the
    /// last sharer.
    ///
    /// Returns the pages/bytes moved to host. On `Err` nothing changed
    /// and the sequence stays active.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownSequence`] for a freed handle,
    /// [`PoolError::OutOfHostPages`] when the host tier cannot hold the
    /// sequence's private pages (callers fall back to
    /// evict-and-recompute), [`PoolError::Fault`] when the installed
    /// fault schedule fails the host charge or the transfer.
    pub fn suspend_seq(&mut self, seq: SeqId) -> Result<SwapReceipt, PoolError> {
        let Some(state) = self.seqs.get(&seq.0) else {
            return Err(PoolError::UnknownSequence { seq });
        };
        let needed = state.pages;
        // Suspension charges the host tier and runs a device → host
        // transfer: both are injectable, polled before anything mutates.
        self.pages.poll_fault(FaultOp::HostAlloc)?;
        self.pages.poll_fault(FaultOp::SwapOut)?;
        let free = self.host_free_pages();
        if needed > free {
            return Err(PoolError::OutOfHostPages { needed, free });
        }
        let mut slots = self.seqs.remove(&seq.0).expect("checked above");
        let receipt = self.pages.freeze(slots.private_owners(seq.0));
        debug_assert_eq!(receipt.pages, slots.pages, "private page accounting");
        slots.pages = 0;
        let frozen_pages = receipt.pages;
        self.suspended.insert(
            seq.0,
            SuspendedSeq {
                slots,
                frozen_pages,
            },
        );
        Ok(receipt)
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
        let Some(entry) = self.suspended.get(&seq.0) else {
            return Err(PoolError::UnknownSequence { seq });
        };
        let needed = entry.frozen_pages;
        // The resume runs a host → device transfer: injectable, polled
        // before anything mutates (the sequence stays frozen on `Err`).
        self.pages.poll_fault(FaultOp::SwapIn)?;
        let free = self.free_pages();
        if needed > free {
            return Err(PoolError::OutOfPages { needed, free });
        }
        let receipt = self.pages.thaw(entry.slots.private_owners(seq.0))?;
        let mut slots = self.suspended.remove(&seq.0).expect("checked above").slots;
        slots.pages = receipt.pages;
        self.seqs.insert(seq.0, slots);
        Ok(receipt)
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
        let mut entry = self
            .suspended
            .remove(&seq.0)
            .ok_or(PoolError::UnknownSequence { seq })?;
        let freed = self.release_pages(seq.0, &mut entry.slots, true);
        self.recycle_slots(entry.slots);
        Ok(freed)
    }

    /// Exports an active sequence as a [`KvTransfer`] and retires it from
    /// this pool — the send side of a prefill→decode handoff.
    ///
    /// The sequence is **flattened to fully private form**: its per-token
    /// size tables are collected across every owner in token order
    /// (adopted shared trie blocks, pending prompt blocks, then the
    /// private tail), sealed into a self-describing
    /// [`oaken_mmu::TransferPayload`], and its slots (quantizer stream
    /// state, views, row counts) ship verbatim with the prompt plan
    /// stripped. Flattening is what makes the transfer self-contained:
    /// the importer owes nothing to this pool's trie, and the slots
    /// already hold every adopted row's bytes (exact mode copies views at
    /// adoption; fused mode adopts encoded rows into the stream itself).
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
        let payload = self.pages.flatten(&owners);
        self.release_pages(seq.0, &mut slots, false);
        Ok(KvTransfer { slots, payload })
    }

    /// Whether [`import_seq`](Self::import_seq) would accept `transfer`
    /// right now — the capacity pre-flight a cluster's transfer clock
    /// polls before committing a handoff (so a full host tier delays the
    /// transfer instead of dropping it).
    ///
    /// # Errors
    ///
    /// [`PoolError::OutOfHostPages`] when the host tier lacks room for
    /// the payload's page charge; [`PoolError::CorruptTransfer`] when the
    /// payload fails its checksum and [`PoolError::TransferExceedsPage`]
    /// when it carries a token larger than this pool's page — no later
    /// call can accept either.
    pub fn can_import(&self, transfer: &KvTransfer) -> Result<(), PoolError> {
        self.pages.can_import(&transfer.payload)
    }

    /// Imports a [`KvTransfer`] from another pool: the payload lands as a
    /// frozen entry of this pool's **host tier** under a fresh local
    /// sequence id (returned), and the slots park in the suspended map —
    /// the imported sequence is indistinguishable from one
    /// [`suspend_seq`](Self::suspend_seq) froze locally, so the normal
    /// [`resume_seq`](Self::resume_seq) machinery (and the serving
    /// engine's resume queue, with its priority, backoff, and demotion
    /// rules) activates it. The transfer's checksum and sizes are checked
    /// before any state lands (see [`oaken_mmu::MmuSim::import_frozen`]).
    ///
    /// # Errors
    ///
    /// Returns the transfer back untouched with
    /// [`PoolError::OutOfHostPages`] when the host tier lacks room (the
    /// caller retries later), [`PoolError::Fault`] when the installed
    /// fault schedule fails the host charge,
    /// [`PoolError::CorruptTransfer`] when the payload fails its checksum,
    /// or [`PoolError::TransferExceedsPage`] when it was written for
    /// larger pages than this pool's.
    ///
    /// # Panics
    ///
    /// Panics when the transfer's geometry disagrees with this pool
    /// (layer count or kernel mode) — cluster engines must share a model
    /// and kernel configuration.
    #[allow(clippy::result_large_err)]
    pub fn import_seq(
        &mut self,
        transfer: KvTransfer,
    ) -> Result<(SeqId, SwapReceipt), (KvTransfer, PoolError)> {
        assert_eq!(
            transfer.slots.slots.len(),
            self.num_layers,
            "imported sequence's layer count disagrees with this pool"
        );
        for slot in transfer.slots.slots.iter().flatten() {
            assert_eq!(
                slot.fused,
                self.kernel == KernelMode::Fused,
                "imported sequence's kernel mode disagrees with this pool"
            );
        }
        // The landing charges the host tier: injectable, polled before
        // anything mutates (the transfer is handed back for a retry).
        let landed = (self.pages.poll_fault(FaultOp::HostAlloc))
            .and_then(|()| self.pages.can_import(&transfer.payload))
            .and_then(|()| self.pages.import(&transfer.payload));
        let (id, receipt) = match landed {
            Ok(landed) => landed,
            Err(e) => return Err((transfer, e)),
        };
        debug_assert!(transfer.slots.plan.is_none(), "exports are flattened");
        self.suspended.insert(
            id,
            SuspendedSeq {
                slots: transfer.slots,
                frozen_pages: receipt.pages,
            },
        );
        Ok((SeqId(id), receipt))
    }
}
