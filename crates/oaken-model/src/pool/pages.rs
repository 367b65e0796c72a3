//! Page accounting: the pool's physical layout, and the one file that
//! knows it. **ROADMAP item 1(a) — pack the pages — is a rewrite of this
//! file**; nothing else in `oaken-model` names a page stream.
//!
//! The layout decision, today: every *owner* (an MMU request id — a
//! sequence's private tail, one pending prompt block, or one sealed trie
//! block) holds one page stream per `(layer, K/V, head, dense/sparse)`,
//! exactly the two management tables of Figure 10. A row's encoded bytes
//! are split evenly over the heads (remainder to the lowest), a row never
//! spans pages, sequence owners count up from 0 (a sequence's id *is* its
//! tail's owner) while block owners count down from `u32::MAX`, and a
//! row is bounded by `4·head_dim + 16` dense and `head_dim + 16` sparse
//! bytes per head. The rest of the pool sees owners, rows and page
//! counts.
//!
//! # Capacity accounting
//!
//! Admission estimates route through the same bytes-per-token helper as
//! the analytic capacity model
//! ([`ModelConfig::kv_bytes_per_token`](crate::ModelConfig::kv_bytes_per_token),
//! also used by `oaken-accel`'s `SystemModel::max_concurrent_batch`), so
//! the analytic and executed paths cannot drift; [`PageLedger::pages_for_tokens`]
//! then adds the page-rounding the analytic model ignores. Every physical
//! page is owned by exactly one sequence (tail + pending blocks) or one
//! trie block, and [`PagedKvPool::page_accounting`](super::PagedKvPool::page_accounting)
//! exposes the three-way split — free, private, shared — whose sum is
//! always the device capacity. Because capacity is real, running out of
//! pages is an allocator-level OOM, not an analytic estimate.

use super::PoolError;
use crate::cache::slot_index;
use oaken_core::KvKind;
use oaken_mmu::{
    FaultOp, FaultPlan, MmuSim, StreamClass, StreamKey, StreamPayload, SwapError, SwapReceipt,
    TransferPayload,
};
use std::collections::BTreeMap;

/// Owns the [`MmuSim`] and every decision about where a row's bytes go.
pub(super) struct PageLedger {
    mmu: MmuSim,
    num_layers: usize,
    kv_heads: usize,
    head_dim: usize,
    /// Whether rows carry a variable sparse (COO outlier) part: methods
    /// going through a quantizer may, exact f32 storage never does.
    sparse: bool,
    next_seq_owner: u32,
    next_block_owner: u32,
}

impl PageLedger {
    /// A ledger over `num_pages` device pages of `page_size` bytes, with a
    /// host tier mirroring the device capacity (host KV memory is at
    /// least as large as device memory on real serving nodes).
    ///
    /// # Panics
    ///
    /// Panics if `page_size` cannot hold one worst-case per-head row.
    pub(super) fn new(
        num_pages: u32,
        page_size: usize,
        num_layers: usize,
        kv_heads: usize,
        head_dim: usize,
        sparse: bool,
    ) -> Self {
        let mut mmu = MmuSim::new(num_pages, page_size);
        mmu.attach_host_tier(num_pages);
        let ledger = Self {
            mmu,
            num_layers,
            kv_heads,
            head_dim,
            sparse,
            next_seq_owner: 0,
            next_block_owner: u32::MAX,
        };
        assert!(
            ledger.dense_row_bound() <= page_size,
            "page size {page_size} cannot hold one per-head row (bound {})",
            ledger.dense_row_bound()
        );
        ledger
    }

    /// The backing MMU simulator, read-only.
    pub(super) fn mmu(&self) -> &MmuSim {
        &self.mmu
    }

    /// Resizes the host tier (it must be empty).
    pub(super) fn set_host_pages(&mut self, pages: u32) {
        self.mmu.attach_host_tier(pages);
    }

    /// Installs a deterministic fault schedule on the MMU.
    pub(super) fn install_faults(&mut self, plan: FaultPlan) {
        self.mmu.install_faults(plan);
    }

    /// Polls the fault schedule at an operation's pre-check boundary.
    pub(super) fn poll_fault(&mut self, op: FaultOp) -> Result<(), PoolError> {
        match self.mmu.poll_fault(op) {
            Some(kind) => Err(PoolError::Fault { op, kind }),
            None => Ok(()),
        }
    }

    /// The owner of a new sequence's tail — also the sequence's id.
    pub(super) fn fresh_seq_owner(&mut self) -> u32 {
        let owner = self.next_seq_owner;
        self.next_seq_owner += 1;
        owner
    }

    /// The owner of a new pending prompt block.
    pub(super) fn fresh_block_owner(&mut self) -> u32 {
        let owner = self.next_block_owner;
        self.next_block_owner -= 1;
        assert!(
            self.next_block_owner > self.next_seq_owner,
            "block and sequence id spaces collided"
        );
        owner
    }

    /// Worst-case dense bytes one row can add to a single head's stream
    /// (f32 storage plus scale/metadata slack) — the guard that lets a
    /// pre-checked append never fail inside the MMU.
    fn dense_row_bound(&self) -> usize {
        4 * self.head_dim + 16
    }

    /// Worst-case sparse bytes per head per row: one byte per element
    /// plus metadata slack.
    fn sparse_row_bound(&self) -> usize {
        self.head_dim + 16
    }

    fn stream_key(
        &self,
        owner: u32,
        layer: usize,
        kind: KvKind,
        head: usize,
        class: StreamClass,
    ) -> StreamKey {
        // Key and value streams of one layer are distinct `layer` rows in
        // the management tables: even layers = keys, odd = values.
        StreamKey {
            request: owner,
            layer: (2 * layer + slot_index(kind)) as u16,
            head: head as u16,
            class,
        }
    }

    /// Nominal pages a sequence of `tokens` tokens occupies at
    /// `bytes_per_token`, including the per-stream page rounding.
    pub(super) fn pages_for_tokens(&self, tokens: usize, bytes_per_token: u64) -> u64 {
        if tokens == 0 {
            return 0;
        }
        let dense_streams = (2 * self.num_layers * self.kv_heads) as u64;
        let page = self.mmu.allocator().page_size() as u64;
        // Nominal per-head bytes for the whole sequence, rounded to pages
        // per stream (each head's dense data lives in its own page
        // stream). The nominal bytes-per-token already folds the sparse
        // payload in, which slightly over-counts the dense pages...
        let stream_bytes = (tokens as u64 * bytes_per_token).div_ceil(dense_streams);
        let mut pages = dense_streams * stream_bytes.div_ceil(page);
        // ...while each *sparse* stream still pins at least one page of
        // its own once the first outlier lands (the dominant sparse cost:
        // COO bytes per head per token are single digits).
        if self.sparse {
            pages += dense_streams;
        }
        pages
    }

    /// Worst-case new pages the next `rows` rows of `(layer, kind)` need
    /// across `owner`'s streams: per stream, the tail absorbs whole
    /// worst-case rows first, then fresh pages are charged at worst-case
    /// rows-per-page packing.
    pub(super) fn run_pages_needed(
        &self,
        owner: u32,
        layer: usize,
        kind: KvKind,
        rows: usize,
    ) -> u32 {
        let page = self.mmu.allocator().page_size();
        let classes = [
            (StreamClass::Dense, self.dense_row_bound()),
            (StreamClass::Sparse, self.sparse_row_bound()),
        ];
        let mut needed = 0u32;
        for head in 0..self.kv_heads {
            for &(class, bound) in &classes[..1 + usize::from(self.sparse)] {
                let key = self.stream_key(owner, layer, kind, head, class);
                needed += rows_to_pages(self.mmu.tail_free(&key), rows, bound, page);
            }
        }
        needed
    }

    /// Lays one encoded row's bytes into `owner`'s per-head dense/sparse
    /// streams (the burst-order write layout of §5.2) and returns the
    /// pages it opened. Must be covered by a
    /// [`run_pages_needed`](Self::run_pages_needed) pre-check.
    pub(super) fn write_row(
        &mut self,
        owner: u32,
        layer: usize,
        kind: KvKind,
        (dense, sparse): (usize, usize),
    ) -> u32 {
        let mut new_pages = 0u32;
        for (class, total) in [(StreamClass::Dense, dense), (StreamClass::Sparse, sparse)] {
            let (base, extra) = (total / self.kv_heads, total % self.kv_heads);
            for head in 0..self.kv_heads {
                let bytes = base + usize::from(head < extra);
                if bytes == 0 {
                    continue;
                }
                let key = self.stream_key(owner, layer, kind, head, class);
                let receipt = self
                    .mmu
                    .write_token(key, bytes as u32)
                    .expect("append pre-checked the worst-case page bound");
                new_pages += u32::from(receipt.new_page);
            }
        }
        new_pages
    }

    /// One more sharer of everything `owner` holds (a trie-block adoption).
    pub(super) fn retain_owner(&mut self, owner: u32) {
        self.mmu.retain_request(owner);
    }

    /// One sharer fewer; returns the pages freed (all of them when this
    /// was the last sharer, else none).
    pub(super) fn release_owner(&mut self, owner: u32) -> u32 {
        self.mmu.release_request(owner)
    }

    /// Gives up an exclusively held owner, wherever it lives: a live one
    /// frees its device pages (returned); a `frozen` one is discarded from
    /// the host tier without a transfer back, freeing no device page.
    pub(super) fn drop_owner(&mut self, owner: u32, frozen: bool) -> u32 {
        if frozen {
            self.mmu
                .discard_frozen(owner)
                .expect("a suspended sequence's private owners are frozen");
            0
        } else {
            self.mmu
                .free_request(owner)
                .expect("pool-owned pages cannot double-free")
        }
    }

    /// Moves exclusively held owners out to the host tier. The caller
    /// pre-checks headroom.
    pub(super) fn freeze(&mut self, owners: impl Iterator<Item = u32>) -> SwapReceipt {
        let mut receipt = SwapReceipt::default();
        for owner in owners {
            let moved = self.mmu.swap_out_request(owner);
            receipt.merge(moved.expect("headroom pre-checked; private pages are refcount-1"));
        }
        receipt
    }

    /// Moves frozen owners back onto fresh device pages, all or none. The
    /// caller pre-checks headroom; what is left to fail is an entry whose
    /// size tables no longer fold to their checksum.
    pub(super) fn thaw(
        &mut self,
        owners: impl Iterator<Item = u32>,
    ) -> Result<SwapReceipt, PoolError> {
        let owners: Vec<u32> = owners.collect();
        self.mmu.swap_in_requests(&owners).map_err(|e| match e {
            SwapError::ChecksumMismatch { .. } => PoolError::CorruptTransfer,
            e => panic!("headroom pre-checked; a suspended sequence's owners are frozen: {e}"),
        })
    }

    /// Flattens the size tables of `owners` — given in token order — into
    /// one self-describing payload: per `(layer, head, class)` stream, the
    /// owners' tables concatenated, as if one owner had written every row.
    pub(super) fn flatten(&self, owners: &[u32]) -> TransferPayload {
        let mut tables: BTreeMap<(u16, u16, StreamClass), Vec<u32>> = BTreeMap::new();
        for &owner in owners {
            for (key, sizes) in self.mmu.request_stream_sizes(owner) {
                tables
                    .entry((key.layer, key.head, key.class))
                    .or_default()
                    .extend(sizes);
            }
        }
        let stream = |((layer, head, class), sizes)| StreamPayload {
            layer,
            head,
            class,
            sizes,
        };
        let mut payload = TransferPayload {
            streams: tables.into_iter().map(stream).collect(),
            ..TransferPayload::default()
        };
        payload.seal();
        payload
    }

    /// Whether `payload` is intact, writable at this page size, and the
    /// host pages landing it would charge fit.
    pub(super) fn can_import(&self, payload: &TransferPayload) -> Result<(), PoolError> {
        let needed = match payload.pages_needed(self.mmu.allocator().page_size()) {
            Ok(needed) => needed,
            Err(SwapError::TokenExceedsPage { bytes, page_size }) => {
                return Err(PoolError::TransferExceedsPage { bytes, page_size });
            }
            Err(_) => return Err(PoolError::CorruptTransfer),
        };
        let free = self.mmu.host_tier().map_or(0, |h| h.free_pages());
        if needed > free {
            return Err(PoolError::OutOfHostPages { needed, free });
        }
        Ok(())
    }

    /// Lands `payload` in the host tier under a fresh sequence owner
    /// (consumed only on success).
    pub(super) fn import(
        &mut self,
        payload: &TransferPayload,
    ) -> Result<(u32, SwapReceipt), PoolError> {
        match self.mmu.import_frozen(self.next_seq_owner, payload) {
            Ok(receipt) => Ok((self.fresh_seq_owner(), receipt)),
            Err(SwapError::OutOfHostPages { needed, free }) => {
                Err(PoolError::OutOfHostPages { needed, free })
            }
            Err(e) => panic!("import pre-flight missed {e}"),
        }
    }
}

/// Worst-case pages `rows` rows of at most `bound` bytes each need on a
/// stream whose tail page has `tail_free` bytes left: the tail absorbs
/// whole worst-case rows first, fresh pages are charged at worst-case
/// packing (rows never span pages).
pub(super) fn rows_to_pages(tail_free: usize, rows: usize, bound: usize, page: usize) -> u32 {
    let absorbed = tail_free / bound;
    if absorbed >= rows {
        return 0;
    }
    let per_page = page / bound;
    ((rows - absorbed).div_ceil(per_page)) as u32
}
