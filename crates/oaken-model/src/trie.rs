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
//! after it. Each block is reference-counted — one count per sequence
//! currently built on it — and its MMU pages carry matching per-page
//! references, so a block's storage survives exactly as long as some
//! sequence needs it and the pool's page accounting stays exact.
//!
//! Sequences always hold *paths* (a block is adopted only together with all
//! its ancestors) and always release leaf-first, which keeps the structural
//! invariant simple: a node with zero references has no children and is
//! removed immediately.

use crate::cache::KindSlot;
use oaken_core::FusedVector;
use std::collections::HashMap;
use std::ops::Range;

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
    /// identical block already existed (alloc-time hits + seal dedups).
    pub bytes_deduplicated: u64,
}

/// The rows a sealed block stores, in the one form its pool reads: what
/// an adopting sequence receives instead of quantizing the tokens itself.
/// Per layer, `[keys, values]`.
#[derive(Debug)]
pub(crate) enum BlockRows {
    /// Dequantized rows, each `[block_tokens × kv_dim]` — copied into the
    /// adopter's attention views ([`crate::KernelMode::Exact`] pools).
    Views(Vec<[Vec<f32>; 2]>),
    /// Encoded rows, `block_tokens` fused vectors each — fed into the
    /// adopter's streams, so a [`crate::KernelMode::Fused`] pool never
    /// materializes an f32 image of a shared prefix.
    Encoded(Vec<[Vec<FusedVector>; 2]>),
}

impl BlockRows {
    /// Copies rows `range` of every slot of one sequence, in the form the
    /// slots keep them.
    pub fn capture(slots: &[[KindSlot; 2]], kv_dim: usize, range: Range<usize>) -> Self {
        if slots.iter().flatten().all(|s| s.fused) {
            // A fused stream's encoded state covers absolute positions:
            // adoption feeds the stream, never a side view.
            let rows = |slot: &KindSlot| {
                let stream = slot.stream.as_ref().expect("fused slots are streaming");
                let rows = stream.encoded_rows().expect("fused slots keep rows");
                rows[range.clone()].to_vec()
            };
            Self::Encoded(slots.iter().map(|[k, v]| [rows(k), rows(v)]).collect())
        } else {
            // Streaming slots keep `view` current on every append;
            // exact-f32 slots hold the authoritative copy in `exact`.
            let rows = |slot: &KindSlot| {
                let src = if slot.stream.is_some() {
                    &slot.view
                } else {
                    &slot.exact
                };
                src[range.start * kv_dim..range.end * kv_dim].to_vec()
            };
            Self::Views(slots.iter().map(|[k, v]| [rows(k), rows(v)]).collect())
        }
    }

    /// Appends the block's `tokens` rows to every slot of an adopting
    /// sequence.
    pub fn adopt_into(&self, slots: &mut [[KindSlot; 2]], tokens: usize) {
        for (layer, pair) in slots.iter_mut().enumerate() {
            for (ki, slot) in pair.iter_mut().enumerate() {
                match self {
                    Self::Encoded(rows) => {
                        let stream = slot.stream.as_mut().expect("fused slots are streaming");
                        let ok = stream.adopt_encoded_rows(&rows[layer][ki]);
                        assert!(ok, "fused slot's stream refused adoption");
                    }
                    Self::Views(rows) => {
                        slot.view.extend_from_slice(&rows[layer][ki]);
                        if slot.stream.is_none() {
                            // Exact-f32 slots re-materialize views from
                            // `exact` on read; keep it in sync.
                            slot.exact.extend_from_slice(&rows[layer][ki]);
                        }
                    }
                }
                slot.rows += tokens;
            }
        }
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

/// One sealed, immutable, reference-counted block of `block_tokens` prompt
/// tokens: the trie node.
pub(crate) struct TrieBlock {
    /// The block's token content (the trie edge label leading to it).
    pub tokens: Box<[u32]>,
    /// Parent node, `None` for first-block roots.
    parent: Option<usize>,
    /// Children keyed by their token content.
    children: HashMap<Box<[u32]>, usize>,
    /// Sequences currently built on this block.
    pub refcount: u32,
    /// MMU request id owning the block's page streams.
    pub mmu: u32,
    /// Physical pages the block's streams occupy.
    pub pages: u32,
    /// Encoded payload bytes stored in those pages (dedup accounting).
    pub bytes: u64,
    /// The block's K/V rows, all layers.
    pub rows: BlockRows,
}

impl TrieBlock {
    /// A freshly sealed block with a single reference (the sealer).
    pub fn new(tokens: Box<[u32]>, mmu: u32, pages: u32, bytes: u64, rows: BlockRows) -> Self {
        Self {
            tokens,
            parent: None,
            children: HashMap::new(),
            refcount: 1,
            mmu,
            pages,
            bytes,
            rows,
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
    /// Total pages held by live blocks.
    pages: u32,
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
        self.pages += self.get(id).pages;
        self.len += 1;
        id
    }

    /// One more sequence built on `id`.
    pub fn retain(&mut self, id: usize) {
        self.nodes[id].as_mut().expect("live trie block").refcount += 1;
    }

    /// One sequence done with `id`. When the last reference goes the node
    /// is unlinked and returned so the caller can free its MMU pages.
    ///
    /// Sequences release their blocks leaf-first, so a node reaching zero
    /// references never has live children.
    pub fn release(&mut self, id: usize) -> Option<TrieBlock> {
        let node = self.nodes[id].as_mut().expect("live trie block");
        node.refcount -= 1;
        if node.refcount > 0 {
            return None;
        }
        let block = self.nodes[id].take().expect("checked live above");
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
        self.pages -= block.pages;
        self.len -= 1;
        Some(block)
    }

    /// Total pages held by live blocks — the "shared" side of the pool's
    /// page accounting.
    pub fn total_pages(&self) -> u32 {
        self.pages
    }

    /// Live blocks in the trie.
    pub fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(tokens: &[u32], mmu: u32, pages: u32) -> TrieBlock {
        TrieBlock::new(tokens.into(), mmu, pages, 64, BlockRows::Views(Vec::new()))
    }

    #[test]
    fn paths_share_and_release_leaf_first() {
        let mut t = PrefixTrie::default();
        let a = t.insert(None, block(&[1, 2], 100, 3));
        let b = t.insert(Some(a), block(&[3, 4], 101, 2));
        assert_eq!(t.child(None, &[1, 2]), Some(a));
        assert_eq!(t.child(Some(a), &[3, 4]), Some(b));
        assert_eq!(t.child(Some(a), &[9, 9]), None);
        assert_eq!(t.total_pages(), 5);
        assert_eq!(t.len(), 2);

        // A second sequence adopts the whole path.
        t.retain(a);
        t.retain(b);
        // First sequence departs leaf-first: nothing freed.
        assert!(t.release(b).is_none());
        assert!(t.release(a).is_none());
        assert_eq!(t.len(), 2);
        // Last sequence departs: leaf then root free.
        let freed_b = t.release(b).expect("leaf freed");
        assert_eq!(freed_b.mmu, 101);
        let freed_a = t.release(a).expect("root freed");
        assert_eq!(freed_a.mmu, 100);
        assert_eq!(t.total_pages(), 0);
        assert_eq!(t.len(), 0);
        assert_eq!(t.child(None, &[1, 2]), None);
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut t = PrefixTrie::default();
        let a = t.insert(None, block(&[1], 1, 1));
        t.release(a).expect("freed");
        let b = t.insert(None, block(&[2], 2, 1));
        assert_eq!(a, b, "freed slot is reused");
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate block")]
    fn duplicate_children_are_rejected() {
        let mut t = PrefixTrie::default();
        t.insert(None, block(&[7], 1, 1));
        t.insert(None, block(&[7], 2, 1));
    }
}
