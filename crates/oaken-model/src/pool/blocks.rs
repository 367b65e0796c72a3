//! Trie blocks: how a sequence's prompt is planned against the
//! [prefix trie](crate::trie), adopted from it, and sealed into it.
//!
//! # Prefix sharing
//!
//! Because Oaken quantizes each row against *offline*-profiled thresholds,
//! a row's encoded bytes are a pure function of the row itself
//! ([`KvQuantizer::prefix_deterministic`]) — identical prompt prefixes
//! produce bit-identical page payloads, and the pool deduplicates them
//! through a trie of immutable, refcounted, `block_tokens`-sized blocks:
//!
//! * [`PagedKvPool::alloc_seq_with_prefix`] walks the trie with the new
//!   sequence's prompt, **adopts** every matched full block (refcount up,
//!   pages retained, rows copied — no quantization, and the caller skips
//!   the model forward pass for those tokens too), and plans private
//!   *pending* blocks for the unmatched remainder — the copy-on-write
//!   tail of the prompt;
//! * an append **seals** a pending block the moment its last row is
//!   page-committed (all layers, both kinds): the block's page streams
//!   become immutable and enter the trie, or — when a concurrent sequence
//!   sealed the identical block first — are freed and the existing block
//!   adopted (late dedup, with a debug-mode bit-exactness check between
//!   the two independently quantized copies);
//! * retiring a sequence *releases* its shared blocks leaf-first instead
//!   of freeing them, so a preempted or retired sharer never invalidates
//!   the others.
//!
//! Sharing is gated on the quantizer reporting itself prefix-deterministic:
//! Oaken, FP16 and exact-f32 pools share; calibrate-then-freeze baselines
//! (Atom/QServe/Tender) and per-channel methods (KIVI/KVQuant) opt out and
//! keep fully private page streams. It preserves per-sequence
//! bit-exactness: adopted blocks hold exactly the bytes a private run
//! would have produced, which is what `prefix_deterministic` asserts.
//!
//! [`KvQuantizer::prefix_deterministic`]: oaken_core::KvQuantizer::prefix_deterministic

use super::{PagedKvPool, PrefixAlloc, SeqId};
use crate::trie::{BlockRows, TrieBlock};

/// One slot of a sequence's prompt-block plan.
#[derive(Debug, Clone, Copy)]
pub(super) enum SeqBlock {
    /// Adopted from (or sealed into) the trie; the sequence holds one
    /// refcount on it.
    Shared(usize),
    /// Still being written privately by this sequence under its own MMU
    /// request id.
    Pending {
        /// MMU request id owning the pending pages.
        mmu: u32,
    },
}

/// The prompt-sharing plan of one sequence.
pub(super) struct SeqPlan {
    /// The prompt tokens announced at allocation (trie keys).
    prompt: Vec<u32>,
    /// One entry per full prompt block, root-to-leaf. Entries `[..sealed]`
    /// are `Shared`; the rest are `Pending`.
    pub(super) blocks: Vec<SeqBlock>,
    /// Blocks sealed (or adopted) so far.
    sealed: usize,
}

impl PagedKvPool {
    /// Leading prompt tokens an [`alloc_seq_with_prefix`] call would
    /// satisfy from the trie right now — the read-only admission probe
    /// (always a multiple of [`PagedKvPool::block_tokens`], and 0 with
    /// sharing disabled). Schedulers subtract this from a request's
    /// footprint so cache-hot requests admit under page pressure that
    /// would stall a cold one.
    ///
    /// [`alloc_seq_with_prefix`]: PagedKvPool::alloc_seq_with_prefix
    pub fn probe_prefix(&self, tokens: &[u32]) -> usize {
        self.walk_prefix(tokens).len() * self.block_tokens
    }

    /// Full prompt blocks `tokens` can plan: at least the final token is
    /// always fed live so the caller gets next-token logits.
    fn planned_blocks(&self, tokens: &[u32]) -> usize {
        if self.sharing {
            tokens.len().saturating_sub(1) / self.block_tokens
        } else {
            0
        }
    }

    /// Trie ids of the longest matched block chain for `tokens`.
    fn walk_prefix(&self, tokens: &[u32]) -> Vec<usize> {
        let planned = self.planned_blocks(tokens);
        let bt = self.block_tokens;
        let mut ids = Vec::new();
        let mut parent = None;
        while ids.len() < planned {
            let b = ids.len();
            match self.trie.child(parent, &tokens[b * bt..(b + 1) * bt]) {
                Some(id) => {
                    ids.push(id);
                    parent = Some(id);
                }
                None => break,
            }
        }
        ids
    }

    /// Admits a new sequence for a known prompt, walking the prefix trie:
    /// every matched full block is **adopted** (refcount bumped, pages
    /// retained, its rows handed to the sequence's cache — no
    /// re-quantization), and the unmatched remainder of the prompt is
    /// planned as private pending blocks that will seal as they fill. The
    /// caller must feed tokens starting at `matched_tokens` (the adopted
    /// rows are already cached) and must feed exactly `tokens` for the
    /// prompt span — the trie keys sealed blocks by this announced
    /// content.
    ///
    /// With sharing disabled (or a non-prefix-deterministic quantizer)
    /// this is exactly [`PagedKvPool::alloc_seq`].
    pub fn alloc_seq_with_prefix(&mut self, tokens: &[u32]) -> PrefixAlloc {
        let seq = self.alloc_seq();
        let planned = self.planned_blocks(tokens);
        if planned == 0 {
            return PrefixAlloc {
                seq,
                matched_tokens: 0,
            };
        }
        let matched_ids = self.walk_prefix(tokens);
        let matched = matched_ids.len();
        let bt = self.block_tokens;
        let state = self.seqs.get_mut(&seq.0).expect("just allocated");
        let mut adopted_bytes = 0u64;
        for &id in &matched_ids {
            adopted_bytes += self.trie.get(id).bytes;
            self.trie.retain(id);
            let block = self.trie.get(id);
            self.pages.retain_owner(block.mmu);
            block.rows.adopt_into(&mut state.slots, bt);
        }
        let mut blocks: Vec<SeqBlock> = matched_ids.into_iter().map(SeqBlock::Shared).collect();
        for _ in matched..planned {
            blocks.push(SeqBlock::Pending {
                mmu: self.pages.fresh_block_owner(),
            });
        }
        state.plan = Some(SeqPlan {
            prompt: tokens.to_vec(),
            blocks,
            sealed: matched,
        });
        self.stats.trie_hits += matched as u64;
        self.stats.tokens_reused += (matched * bt) as u64;
        self.stats.quant_rows_skipped += (matched * bt * self.num_layers * 2) as u64;
        self.stats.bytes_deduplicated += adopted_bytes;
        PrefixAlloc {
            seq,
            matched_tokens: matched * bt,
        }
    }

    /// Drops one sequence's reference on a sealed trie block, freeing its
    /// pages when the last sharer departs. Returns the pages physically
    /// freed.
    pub(super) fn release_shared_block(&mut self, id: usize) -> u32 {
        let released = self.pages.release_owner(self.trie.get(id).mmu);
        match self.trie.release(id) {
            Some(b) => {
                debug_assert_eq!(released, b.pages, "block page accounting");
                released
            }
            None => {
                debug_assert_eq!(released, 0, "block still shared");
                0
            }
        }
    }

    /// Seals every pending block of `seq` whose rows are page-committed
    /// across all layers and kinds, counting `layer` only up to its
    /// `committed` rows.
    ///
    /// The batched append quantizes a whole iteration's rows before any
    /// page is laid, so during its serial commit phase a layer's
    /// `slot.rows` can run ahead of the rows whose pages exist; sealing a
    /// block then would move a partially-written page range into the
    /// trie. The cap keeps the serial invariant (where it is a no-op): a
    /// block seals only once every one of its rows is page-committed.
    pub(super) fn seal_ready_blocks(&mut self, seq: SeqId, layer: usize, committed: usize) {
        loop {
            let state = self.seqs.get(&seq.0).expect("caller validated");
            let Some(plan) = &state.plan else {
                return;
            };
            if plan.sealed >= plan.blocks.len() {
                return;
            }
            let boundary = (plan.sealed + 1) * self.block_tokens;
            let complete = state.slots.iter().enumerate().all(|(l, pair)| {
                let cap = if l == layer { committed } else { usize::MAX };
                pair.iter().all(|s| s.rows.min(cap) >= boundary)
            });
            if !complete {
                return;
            }
            self.seal_block(seq);
        }
    }

    /// Seals the next pending block of `seq`: it either enters the trie as
    /// a new node (its pages move from private to shared accounting) or —
    /// when a concurrent sequence already sealed the identical block — is
    /// freed and the existing node adopted instead (late dedup).
    fn seal_block(&mut self, seq: SeqId) {
        let bt = self.block_tokens;
        let state = self.seqs.get_mut(&seq.0).expect("caller validated");
        let plan = state.plan.as_mut().expect("caller checked");
        let b = plan.sealed;
        let SeqBlock::Pending { mmu: pending } = plan.blocks[b] else {
            unreachable!("sealed blocks are skipped")
        };
        let parent = b.checked_sub(1).map(|prev| match plan.blocks[prev] {
            SeqBlock::Shared(id) => id,
            SeqBlock::Pending { .. } => unreachable!("blocks seal in order"),
        });
        let chunk: Box<[u32]> = plan.prompt[b * bt..(b + 1) * bt].into();
        let ours = || BlockRows::capture(&state.slots, self.kv_dim, b * bt..(b + 1) * bt);
        // Either way the pending pages leave this sequence's private
        // count: freed, or moved to the trie's shared count.
        let (sealed_id, left) = match self.trie.child(parent, &chunk) {
            Some(existing) => {
                // Late dedup: another sequence sealed the identical block
                // first. Prefix determinism says both copies are
                // bit-identical, so drop ours and adopt theirs.
                debug_assert!(
                    self.trie.get(existing).rows.same_bits(&ours()),
                    "trie hit is not bit-exact: quantizer wrongly claims prefix determinism"
                );
                let freed = self.pages.drop_owner(pending, false);
                self.trie.retain(existing);
                let block = self.trie.get(existing);
                self.pages.retain_owner(block.mmu);
                self.stats.seal_dedups += 1;
                self.stats.bytes_deduplicated += block.bytes;
                (existing, freed)
            }
            None => {
                let pages = self.pages.mmu().request_pages(pending);
                let bytes = self.pages.mmu().request_bytes(pending);
                let block = TrieBlock::new(chunk, pending, pages, bytes, ours());
                (self.trie.insert(parent, block), pages)
            }
        };
        state.pages -= left;
        plan.blocks[b] = SeqBlock::Shared(sealed_id);
        plan.sealed += 1;
    }
}
