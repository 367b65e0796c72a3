//! The prefix trie behind [`crate::PagedKvPool`]'s cross-sequence KV
//! sharing.
//!
//! Oaken quantizes every KV row against *offline*-profiled thresholds, so a
//! row's encoded bytes are a pure function of the row itself
//! ([`KvQuantizer::prefix_deterministic`](oaken_core::KvQuantizer::prefix_deterministic)).
//! Identical prompt prefixes therefore produce bit-identical dense+COO page
//! payloads, and the pool can store each distinct prefix **once** and let
//! every sequence that starts with it reference the same pages — the
//! vLLM-style prefix-cache lever, but over quantized page streams.
//!
//! The unit of sharing is a **block**: `block_tokens` consecutive prompt
//! tokens whose K/V rows (all layers, both kinds) have been fully written
//! and *sealed* into immutable page streams. Blocks form a trie keyed by
//! token content: a node's children are the distinct next-blocks observed
//! after it. The trie counts neither pages nor sharers: each sequence built
//! on a block holds one reference on the block's MMU pages, and the block
//! leaves the trie on the release that frees them, so its storage
//! survives exactly as long as some sequence needs it.
//!
//! The heap agrees with the ledger. An Oaken stream keeps its rows in
//! immutable 16-row store segments ([`oaken_core::StoreSegment`]), and a
//! block holds the segments it completes by reference (`Arc`), the very
//! segments its sealer's stream holds; an adopter takes them by reference
//! too, so a block N sequences share is held once. Only a block that
//! does not end on a 16-row edge also keeps its rows past the last edge
//! in page form, which adopters copy into their streams' open segments.
//!
//! Sequences always hold *paths* (a block is adopted only together with all
//! its ancestors) and always release leaf-first, which keeps the structural
//! invariant simple: a node whose last holder departs has no children
//! left, and is unlinked at once.

use crate::cache::KindSlot;
use oaken_core::kernel::KEY_GROUP;
use oaken_core::{PackedRows, StoreSegment};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Cumulative prefix-cache counters of one [`crate::PagedKvPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixStats {
    /// Blocks adopted from the trie at allocation time (alloc-time hits:
    /// both the quantization *and* the model forward pass for those tokens
    /// are skipped).
    pub trie_hits: u64,
    /// Pending blocks merged into an existing identical block at seal time
    /// (late dedup between sequences prefilling the same prompt
    /// concurrently: storage is deduplicated, compute was not).
    pub seal_dedups: u64,
    /// Prompt tokens satisfied from the trie at allocation (cumulative).
    pub tokens_reused: u64,
    /// Per-row quantizations skipped thanks to alloc-time hits
    /// (`tokens_reused × layers × 2` kinds).
    pub quant_rows_skipped: u64,
    /// Encoded payload bytes that were *not* re-stored because an
    /// identical block already existed (alloc-time hits + seal dedups),
    /// summed over every rank's slice of the block. Adopters and a
    /// late-dedup sealer hold the block's store segments by reference, so
    /// this is memory that really is not duplicated — but for a block's
    /// rows past its last 16-row edge, which are copied (none at the
    /// default 16-token blocks).
    pub bytes_deduplicated: u64,
}

/// The rows a sealed block stores, in the one form its sequences' slots
/// keep them: what an adopting sequence receives instead of quantizing
/// the tokens itself. Per layer, `[keys, values]`.
#[derive(Debug)]
pub(crate) enum BlockRows {
    /// f32 rows, each `[block_tokens × kv_dim]` — copied into the
    /// adopter's views (exact-f32 and FP16 pools, whose views are their
    /// rows).
    Views(Vec<[Vec<f32>; 2]>),
    /// Encoded rows — shared with, or fed into, the adopter's streams
    /// (Oaken pools, whichever kernel reads them), so no f32 image of a
    /// shared prefix is materialized.
    Encoded(Vec<[EncodedBlock; 2]>),
}

/// A sealed block's encoded rows of one `(layer, kind)`: the store
/// segments it completes, held by reference — the same segments its
/// sealer's stream and every adopter's hold — and, when the block does
/// not end on a 16-row segment edge, its rows past the last edge in page
/// form (the sealer's open segment held them). At 16-token blocks that
/// is exactly one segment and no page-form rows.
#[derive(Debug, PartialEq)]
pub(crate) struct EncodedBlock {
    segments: Vec<Arc<StoreSegment>>,
    tail: PackedRows,
}

impl BlockRows {
    /// Takes rows `range` of every slot of one sequence, in the form the
    /// slots keep them: an encoding stream's segments the range completes
    /// by reference, and a copy of the rest.
    pub fn capture(slots: &[[KindSlot; 2]], kv_dim: usize, range: Range<usize>) -> Self {
        if slots.iter().flatten().all(|s| s.encoded_rows().is_some()) {
            // An encoding stream's state covers absolute positions:
            // adoption feeds the stream, never a side view.
            let edge = range.end / KEY_GROUP;
            let rows = |slot: &KindSlot| {
                let stored = slot.encoded_rows().expect("checked above");
                let mut tail = PackedRows::new(kv_dim);
                stored.export(range.start.max(edge * KEY_GROUP)..range.end, &mut tail);
                EncodedBlock {
                    segments: stored.segments()[range.start / KEY_GROUP..edge].to_vec(),
                    tail,
                }
            };
            Self::Encoded(slots.iter().map(|[k, v]| [rows(k), rows(v)]).collect())
        } else {
            // Slots of a sharing pool without an encoded form store f32 or
            // stream into their views, and their appends keep `view`
            // current.
            let rows =
                |slot: &KindSlot| slot.view[range.start * kv_dim..range.end * kv_dim].to_vec();
            Self::Views(slots.iter().map(|[k, v]| [rows(k), rows(v)]).collect())
        }
    }

    /// Appends the rows of `chain` — trie blocks of `tokens` rows each,
    /// root first, from position 0 — to every slot of an adopting
    /// sequence. An encoding stream takes every segment of the chain by
    /// reference, then the page-form rows past the chain's last segment
    /// edge: those are exactly the tails of the blocks ending past it.
    pub fn adopt_chain(chain: &[&Self], slots: &mut [[KindSlot; 2]], tokens: usize) {
        for (layer, pair) in slots.iter_mut().enumerate() {
            for (ki, slot) in pair.iter_mut().enumerate() {
                let mut shared = 0;
                for block in chain {
                    match block {
                        Self::Encoded(rows) => {
                            let segments = &rows[layer][ki].segments;
                            if !segments.is_empty() {
                                slot.share(shared, segments);
                                shared += segments.len();
                            }
                        }
                        Self::Views(rows) => {
                            slot.view.extend_from_slice(&rows[layer][ki]);
                            slot.rows += tokens;
                        }
                    }
                }
                for (b, block) in chain.iter().enumerate() {
                    if let Self::Encoded(rows) = block {
                        if (b + 1) * tokens > shared * KEY_GROUP {
                            slot.adopt(&rows[layer][ki].tail);
                        }
                    }
                }
            }
        }
    }

    /// Swaps the segments of a sequence that sealed this block's rows
    /// itself (a late dedup) for the block's: the sequence's own copies
    /// are let go, so the rows are held once. The block starts at row
    /// `start`.
    pub fn share_into(&self, slots: &mut [[KindSlot; 2]], start: usize) {
        if let Self::Encoded(rows) = self {
            for (pair, blocks) in slots.iter_mut().zip(rows) {
                for (slot, block) in pair.iter_mut().zip(blocks) {
                    if !block.segments.is_empty() {
                        slot.share(start / KEY_GROUP, &block.segments);
                    }
                }
            }
        }
    }

    /// Heap bytes only the block holds: its views, or its page-form rows.
    /// Its segments are held by reference, and counted once per pool
    /// ([`crate::PagedKvPool::held_kv_bytes`]).
    pub fn held_bytes(&self) -> usize {
        match self {
            Self::Views(rows) => {
                let f32s = rows.iter().flatten().map(Vec::capacity).sum::<usize>();
                f32s * std::mem::size_of::<f32>()
            }
            Self::Encoded(rows) => rows.iter().flatten().map(|b| b.tail.held_bytes()).sum(),
        }
    }

    /// The segments the block holds by reference.
    pub fn segments(&self) -> impl Iterator<Item = &Arc<StoreSegment>> {
        let encoded = match self {
            Self::Encoded(rows) => rows.as_slice(),
            Self::Views(_) => &[],
        };
        encoded.iter().flatten().flat_map(|b| &b.segments)
    }

    /// Whether two independently produced copies of a block agree bit for
    /// bit — what prefix determinism promises of a late-dedup trie hit.
    pub fn same_bits(&self, other: &Self) -> bool {
        fn bits(rows: &[[Vec<f32>; 2]]) -> impl Iterator<Item = u32> + '_ {
            rows.iter().flatten().flatten().map(|x| x.to_bits())
        }
        match (self, other) {
            (Self::Encoded(a), Self::Encoded(b)) => a == b,
            (Self::Views(a), Self::Views(b)) => bits(a).eq(bits(b)),
            _ => false,
        }
    }
}

/// One sealed, immutable block of `block_tokens` prompt tokens: the trie
/// node.
pub(crate) struct TrieBlock {
    /// The block's token content (the trie edge label leading to it).
    pub tokens: Box<[u32]>,
    /// Parent node, `None` for first-block roots.
    parent: Option<usize>,
    /// Children keyed by their token content.
    children: HashMap<Box<[u32]>, usize>,
    /// MMU request id owning the block's page streams, on every rank.
    pub mmu: u32,
    /// Per rank, its channel slice of the block's K/V rows, all layers.
    pub shards: Vec<BlockRows>,
}

impl TrieBlock {
    /// A freshly sealed block.
    pub fn new(tokens: Box<[u32]>, mmu: u32, shards: Vec<BlockRows>) -> Self {
        Self {
            tokens,
            parent: None,
            children: HashMap::new(),
            mmu,
            shards,
        }
    }
}

/// The trie of sealed blocks. Node ids are slab indices, stable for a
/// block's lifetime.
#[derive(Default)]
pub(crate) struct PrefixTrie {
    nodes: Vec<Option<TrieBlock>>,
    free: Vec<usize>,
    roots: HashMap<Box<[u32]>, usize>,
    /// Live block count.
    len: usize,
}

impl PrefixTrie {
    /// The child of `parent` (or root for `None`) whose content is
    /// exactly `chunk`.
    pub fn child(&self, parent: Option<usize>, chunk: &[u32]) -> Option<usize> {
        match parent {
            None => self.roots.get(chunk).copied(),
            Some(p) => self.get(p).children.get(chunk).copied(),
        }
    }

    /// Borrow a live block.
    ///
    /// # Panics
    ///
    /// Panics on a stale id.
    pub fn get(&self, id: usize) -> &TrieBlock {
        self.nodes[id].as_ref().expect("live trie block")
    }

    /// Inserts a sealed block under `parent`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if an identical child already exists (callers must check
    /// [`child`](Self::child) first and adopt instead).
    pub fn insert(&mut self, parent: Option<usize>, mut block: TrieBlock) -> usize {
        block.parent = parent;
        let tokens = block.tokens.clone();
        let id = match self.free.pop() {
            Some(id) => {
                self.nodes[id] = Some(block);
                id
            }
            None => {
                self.nodes.push(Some(block));
                self.nodes.len() - 1
            }
        };
        let displaced = match parent {
            None => self.roots.insert(tokens, id),
            Some(p) => self.nodes[p]
                .as_mut()
                .expect("live parent")
                .children
                .insert(tokens, id),
        };
        assert!(displaced.is_none(), "duplicate block sealed into the trie");
        self.len += 1;
        id
    }

    /// Unlinks `id`, whose last holder has departed, and frees its slot.
    ///
    /// # Panics
    ///
    /// Panics on a stale id, or if the block still has children:
    /// sequences release their blocks leaf-first, so the last holder of a
    /// node has let go of every node below it.
    pub fn remove(&mut self, id: usize) {
        let block = self.nodes[id].take().expect("live trie block");
        assert!(
            block.children.is_empty(),
            "released block still has children — blocks must be released leaf-first"
        );
        match block.parent {
            None => self.roots.remove(&block.tokens),
            Some(p) => self.nodes[p]
                .as_mut()
                .expect("parent outlives child")
                .children
                .remove(&block.tokens),
        };
        self.free.push(id);
        self.len -= 1;
    }

    /// Live blocks in the trie.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Heap bytes only the live blocks hold, every rank: their views or
    /// page-form rows, not the segments they share.
    pub fn held_bytes(&self) -> usize {
        self.shards().map(BlockRows::held_bytes).sum()
    }

    /// Every rank's share of every live block.
    pub fn shards(&self) -> impl Iterator<Item = &BlockRows> {
        self.nodes.iter().flatten().flat_map(|b| &b.shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(tokens: &[u32], mmu: u32) -> TrieBlock {
        TrieBlock::new(tokens.into(), mmu, vec![BlockRows::Views(Vec::new())])
    }

    /// Two paths share a root; unlinking a leaf leaves its sibling and its
    /// parent found, and its freed slot comes back under another parent.
    #[test]
    fn paths_share_and_release_leaf_first() {
        let mut t = PrefixTrie::default();
        let a = t.insert(None, block(&[1, 2], 100));
        let b = t.insert(Some(a), block(&[3, 4], 101));
        let c = t.insert(Some(a), block(&[5, 6], 102));
        assert_eq!(t.child(None, &[1, 2]), Some(a));
        assert_eq!(t.child(Some(a), &[3, 4]), Some(b));
        assert_eq!(t.child(Some(a), &[9, 9]), None);
        assert_eq!(t.len(), 3);

        t.remove(b);
        assert_eq!(t.child(Some(a), &[3, 4]), None);
        assert_eq!(t.child(Some(a), &[5, 6]), Some(c));
        assert_eq!(t.len(), 2);

        // The leaf's slot is reused, under the other path.
        let d = t.insert(Some(c), block(&[7, 8], 103));
        assert_eq!(d, b, "freed slot is reused");
        assert_eq!(t.get(d).mmu, 103);
        assert_eq!(t.child(Some(c), &[7, 8]), Some(d));
        for id in [d, c, a] {
            t.remove(id);
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.child(None, &[1, 2]), None);
    }

    /// A late-dedup check must see a block that differs from its twin in
    /// one nibble of one row, in a shared segment or in its page-form
    /// rows: segments and packed runs compare every dense byte.
    #[test]
    fn same_bits_rejects_a_block_one_nibble_off() {
        use oaken_core::{
            CooEntry, EncodedStore, FusedReadParams, GroupKind, KvKind, ScaleSet, Thresholds,
        };
        let dim = 97;
        let params = FusedReadParams {
            thresholds: Thresholds::new(-2.0, -0.1, 0.1, 2.0).unwrap(),
            middle_bits: 4,
            outlier_bits: 4,
        };
        let codes: Vec<u8> = (0..dim).map(|i| (i * 5 % 16) as u8).collect();
        let outliers = [3, 64, 96].map(|index| CooEntry {
            index,
            group: GroupKind::Outer,
            high_side: index % 2 == 0,
        });
        // 16 rows in one segment, then 8 in page form.
        let block = |flip: Option<(usize, usize)>| {
            let rows = |ki: usize, kind: KvKind| {
                let mut store = EncodedStore::new(kind, dim, params);
                let mut tail = PackedRows::new(dim);
                for r in 0..KEY_GROUP + 8 {
                    let mut codes = codes.clone();
                    if flip == Some((ki, r)) {
                        codes[dim - 1 - r] ^= 0x8;
                    }
                    let fv = PackedRows::from_parts(dim, &codes, &outliers, ScaleSet::default());
                    let fv = fv.unwrap();
                    match r < KEY_GROUP {
                        true => store.push_row(fv.row(0)),
                        false => tail.push(fv.row(0)),
                    }
                }
                let segments = store.segments().to_vec();
                EncodedBlock { segments, tail }
            };
            BlockRows::Encoded(vec![[rows(0, KvKind::Key), rows(1, KvKind::Value)]])
        };
        let ours = block(None);
        assert!(ours.same_bits(&block(None)));
        for kind in 0..2 {
            for r in [0, 7, 15, 16, 23] {
                assert!(
                    !ours.same_bits(&block(Some((kind, r)))),
                    "kind {kind} row {r}"
                );
            }
        }
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut t = PrefixTrie::default();
        let a = t.insert(None, block(&[1], 1));
        t.remove(a);
        let b = t.insert(None, block(&[2], 2));
        assert_eq!(a, b, "freed slot is reused");
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate block")]
    fn duplicate_children_are_rejected() {
        let mut t = PrefixTrie::default();
        t.insert(None, block(&[7], 1));
        t.insert(None, block(&[7], 2));
    }
}
