//! Trie blocks: how a sequence's prompt is planned against the
//! [prefix trie](crate::trie), adopted from it, and sealed into it.
//!
//! # Prefix sharing
//!
//! Because Oaken quantizes each row against *offline*-profiled thresholds,
//! a row's encoded bytes are a pure function of the row itself
//! ([`KvQuantizer::prefix_deterministic`]) — identical prompt prefixes
//! produce bit-identical page payloads, and the pool deduplicates them
//! through a trie of immutable, `block_tokens`-sized blocks whose pages
//! each sequence built on them holds a reference on:
//!
//! * [`PagedKvPool::alloc_seq_with_prefix`] walks the trie with the new
//!   sequence's prompt, **adopts** every matched full block (its pages
//!   retained, the chain's store segments taken by reference and
//!   only its rows past the last 16-row edge copied — no quantization,
//!   and the caller skips the model forward pass for those tokens too),
//!   and plans private *pending* blocks for the unmatched remainder — the
//!   copy-on-write tail of the prompt;
//! * an append **seals** a pending block the moment its last row is
//!   page-committed (all layers, both kinds): the block's page streams
//!   become immutable and enter the trie, holding the sealer's completed
//!   segments by reference, or — when a concurrent sequence sealed the
//!   identical block first — are freed and the existing block adopted
//!   (late dedup, with a debug-mode bit-exactness check between the two
//!   independently quantized copies), the sealer's own segments swapped
//!   for the block's;
//! * retiring a sequence *releases* its shared blocks leaf-first instead
//!   of freeing them, so a preempted or retired sharer never invalidates
//!   the others; the release that frees a block's pages unlinks it from
//!   the trie.
//!
//! Sharing is gated on the quantizer reporting itself prefix-deterministic:
//! Oaken, FP16 and exact-f32 pools share; calibrate-then-freeze baselines
//! (Atom/QServe/Tender) and per-channel methods (KIVI/KVQuant) opt out and
//! keep fully private page streams. It preserves per-sequence
//! bit-exactness: adopted blocks hold exactly the bytes a private run
//! would have produced, which is what `prefix_deterministic` asserts.
//!
//! [`KvQuantizer::prefix_deterministic`]: oaken_core::KvQuantizer::prefix_deterministic

use super::pages::PageLedger;
use super::seq::SeqShard;
use super::{PagedKvPool, PrefixAlloc, SeqId};
use crate::trie::{BlockRows, TrieBlock};

/// One slot of a sequence's prompt-block plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SeqBlock {
    /// Adopted from (or sealed into) the trie; the sequence holds one
    /// reference on its pages.
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

impl SeqPlan {
    /// The blocks the sequence holds as [`SeqBlock::Shared`] from position
    /// 0, root first. A trie node has one path to the root, so two chains
    /// that agree on their `b`-th block agree on every block before it, and
    /// hold bit-identical rows `0 .. b · block_tokens` in every layer and
    /// kind.
    pub(super) fn shared_chain(&self) -> &[SeqBlock] {
        &self.blocks[..self.sealed]
    }
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
    /// every matched full block is **adopted** (its pages retained, its
    /// rows handed to the sequence's cache — no re-quantization), and the
    /// unmatched remainder of the prompt is planned as private pending
    /// blocks that will seal as they fill. The caller must feed tokens
    /// starting at `matched_tokens` (the adopted rows are already cached)
    /// and must feed exactly `tokens` for the prompt span — the trie keys
    /// sealed blocks by this announced content.
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
        let mut adopted_bytes = 0u64;
        for &id in &matched_ids {
            let mmu = self.trie.get(id).mmu;
            adopted_bytes += block_bytes(&self.ranks, mmu);
            self.ranks.iter_mut().for_each(|l| l.retain_block(mmu));
        }
        let state = self.seqs.get_mut(&seq.0).expect("just allocated");
        for (r, shard) in state.shards.iter_mut().enumerate() {
            let chain: Vec<&BlockRows> = (matched_ids.iter())
                .map(|&id| &self.trie.get(id).shards[r])
                .collect();
            BlockRows::adopt_chain(&chain, &mut shard.slots, bt);
        }
        let mut blocks: Vec<SeqBlock> = matched_ids.into_iter().map(SeqBlock::Shared).collect();
        for _ in matched..planned {
            blocks.push(SeqBlock::Pending {
                mmu: self.fresh_block_owner(),
            });
        }
        let state = self.seqs.get_mut(&seq.0).expect("just allocated");
        state.plan = Some(SeqPlan {
            prompt: tokens.to_vec(),
            blocks,
            sealed: matched,
        });
        self.stats.trie_hits += matched as u64;
        self.stats.tokens_reused += (matched * bt) as u64;
        self.stats.quant_rows_skipped += (matched * bt * self.model.num_layers * 2) as u64;
        self.stats.bytes_deduplicated += adopted_bytes;
        PrefixAlloc {
            seq,
            matched_tokens: matched * bt,
        }
    }

    /// Drops one sequence's reference on a sealed trie block, freeing its
    /// pages on every rank when the last sharer departs — which unlinks
    /// the block from the trie. Returns the pages physically freed.
    pub(super) fn release_shared_block(&mut self, id: usize) -> u32 {
        let mmu = self.trie.get(id).mmu;
        let freed = (self.ranks.iter_mut()).map(|l| l.release_block(mmu)).sum();
        if self.ranks.iter().all(|l| l.device_pages([mmu]) == 0) {
            self.trie.remove(id);
        }
        freed
    }

    /// Seals every pending block of `seq` whose rows are appended across
    /// all layers and kinds (an append lays its pages on every rank before
    /// it returns, so those rows are page-committed too).
    pub(super) fn seal_ready_blocks(&mut self, seq: SeqId) {
        loop {
            let state = self.seqs.get(&seq.0).expect("caller validated");
            let Some(plan) = &state.plan else {
                return;
            };
            if plan.sealed >= plan.blocks.len() {
                return;
            }
            let boundary = (plan.sealed + 1) * self.block_tokens;
            let slots = state.shards.iter().flat_map(|s| s.slots.iter().flatten());
            if !slots.clone().all(|s| s.rows >= boundary) {
                return;
            }
            self.seal_block(seq);
        }
    }

    /// Seals the next pending block of `seq`: it either enters the trie as
    /// a new node (its pages join each rank's shared count) or — when a
    /// concurrent sequence already sealed the identical block — is freed
    /// and the existing node adopted instead (late dedup).
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
        let ours = |r: usize, shard: &SeqShard| {
            let width = self.plan.kv_channels(r).len();
            BlockRows::capture(&shard.slots, width, b * bt..(b + 1) * bt)
        };
        let sealed_id = match self.trie.child(parent, &chunk) {
            Some(existing) => {
                // Late dedup: another sequence sealed the identical block
                // first. Prefix determinism says both copies are
                // bit-identical, so drop ours and adopt theirs.
                let block = self.trie.get(existing);
                debug_assert!(
                    (block.shards.iter().zip(&state.shards).enumerate())
                        .all(|(r, (theirs, shard))| theirs.same_bits(&ours(r, shard))),
                    "trie hit is not bit-exact: quantizer wrongly claims prefix determinism"
                );
                for ledger in &mut self.ranks {
                    ledger.retain_block(block.mmu);
                    ledger.drop_owner(pending, false);
                }
                for (shard, theirs) in state.shards.iter_mut().zip(&block.shards) {
                    theirs.share_into(&mut shard.slots, b * bt);
                }
                self.stats.seal_dedups += 1;
                self.stats.bytes_deduplicated += block_bytes(&self.ranks, block.mmu);
                existing
            }
            None => {
                let shards = state.shards.iter().enumerate();
                let block =
                    TrieBlock::new(chunk, pending, shards.map(|(r, s)| ours(r, s)).collect());
                self.ranks.iter_mut().for_each(|l| l.seal(pending));
                self.trie.insert(parent, block)
            }
        };
        let plan = state.plan.as_mut().expect("caller checked");
        plan.blocks[b] = SeqBlock::Shared(sealed_id);
        plan.sealed += 1;
    }
}

/// Encoded payload bytes the sealed block owned by `mmu` stores, every
/// rank.
fn block_bytes(ranks: &[PageLedger], mmu: u32) -> u64 {
    ranks.iter().map(|l| l.mmu().request_bytes(mmu)).sum()
}
