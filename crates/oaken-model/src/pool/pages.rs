//! Page accounting: the pool's physical layout, and the one file that
//! knows it; nothing else in `oaken-model` names a page stream.
//!
//! The layout decision: every *owner* (an MMU request id — a sequence's
//! private tail, one pending prompt block, or one sealed trie block) holds
//! **one dense and one sparse stream**, the two management tables of
//! Figure 10. The dense stream is a fixed-stride slab: every `(layer, K/V)`
//! row's dense part has one size (the
//! [`EncodedStore::row_payload`](oaken_core::EncodedStore::row_payload)
//! contract), so the owner's rows pack back to back and may straddle page
//! edges. The sparse stream is a log of COO outlier entries that never
//! span pages. The pool hands out owner ids once for every rank's ledger
//! (a sequence's id *is* its tail's owner), so one tail or block has one
//! owner on every rank. The rest of the pool sees owners, rows and page
//! counts.
//!
//! # The page bound
//!
//! [`PageLedger::pages_needed`] is per owner, over every row the next
//! appends put there (the `(layer, K/V)` rows of one owner share its two
//! streams, so their tails are credited once). The dense part is exact
//! arithmetic — the stride times the rows against the slab's tail — with
//! the widest dense row written so far as the stride (before the first, an
//! f32 row plus slack). The sparse part is a worst case: one COO byte per
//! channel per row, packed at worst-case rows per page.
//!
//! # Capacity accounting
//!
//! Admission estimates route through the same bytes-per-token helper as
//! the analytic capacity model
//! ([`ModelConfig::kv_bytes_per_token`](crate::ModelConfig::kv_bytes_per_token),
//! also used by `oaken-accel`'s `SystemModel::max_concurrent_batch`), so
//! the analytic and executed paths cannot drift; [`PageLedger::pages_for_tokens`]
//! then adds the page floors the analytic model ignores. Because capacity
//! is real, running out of pages is an allocator-level OOM, not an
//! analytic estimate.
//!
//! The ledger is the one place pages and sharers are counted: the rest of
//! the pool keeps none. A sequence's pages are what its private owners —
//! its tail and its pending blocks — hold here, on device or frozen on
//! host; a sealed block's sharers are its pages' references, one per
//! sequence built on it, and the block is gone when the last release
//! frees them. The one running total is the pages sealed blocks hold
//! (kept at seal and at a block's last release), so
//! [`PagedKvPool::shared_block_pages`](super::PagedKvPool::shared_block_pages)
//! costs nothing per block.
//! [`PagedKvPool::page_accounting`](super::PagedKvPool::page_accounting)'s
//! free, private and shared split sums to the device capacity only while
//! every allocated page belongs to a live sequence's private owner or to
//! a sealed block: a leaked owner shows up as a shortfall.

use super::PoolError;
use oaken_mmu::{
    MmuSim, StreamClass, StreamKey, StreamPayload, SwapError, SwapReceipt, TransferPayload,
};

/// One rank's data plane: its [`MmuSim`] and every decision about where
/// the bytes of its channel slice of a row go.
pub(super) struct PageLedger {
    mmu: MmuSim,
    /// Width of the rank's slice of a K/V row.
    kv_dim: usize,
    /// Whether rows carry a variable sparse (COO outlier) part: methods
    /// going through a quantizer may, exact f32 storage never does.
    sparse: bool,
    /// Nominal bytes per token of the rank's slice, every layer and kind.
    bytes_per_token: u64,
    /// The widest dense row written so far: the slab stride the page
    /// bound charges.
    dense_stride: Option<usize>,
    /// Device pages sealed blocks hold, each block once.
    shared: u32,
}

impl PageLedger {
    /// A ledger over `num_pages` device pages of `page_size` bytes for
    /// `kv_dim`-wide rows of `bytes_per_token` nominal bytes a token, with
    /// a host tier mirroring the device capacity (host KV memory is at
    /// least as large as device memory on real serving nodes).
    ///
    /// # Panics
    ///
    /// Panics if rows carry a sparse part and `page_size` cannot hold one
    /// worst-case sparse row (`kv_dim` bytes). Dense rows straddle pages,
    /// so any page size holds them.
    pub(super) fn new(
        num_pages: u32,
        page_size: usize,
        kv_dim: usize,
        sparse: bool,
        bytes_per_token: u64,
    ) -> Self {
        assert!(
            !sparse || kv_dim <= page_size,
            "page size {page_size} cannot hold one worst-case sparse row ({kv_dim} bytes)"
        );
        let mut mmu = MmuSim::new(num_pages, page_size);
        mmu.attach_host_tier(num_pages);
        Self {
            mmu,
            kv_dim,
            sparse,
            bytes_per_token,
            dense_stride: None,
            shared: 0,
        }
    }

    /// The backing MMU simulator, read-only.
    pub(super) fn mmu(&self) -> &MmuSim {
        &self.mmu
    }

    /// Resizes the host tier (it must be empty).
    pub(super) fn set_host_pages(&mut self, pages: u32) {
        self.mmu.attach_host_tier(pages);
    }

    fn key(owner: u32, class: StreamClass) -> StreamKey {
        StreamKey {
            request: owner,
            layer: 0,
            head: 0,
            class,
        }
    }

    fn page_size(&self) -> usize {
        self.mmu.allocator().page_size()
    }

    /// Nominal pages a sequence of `tokens` tokens occupies: its bytes
    /// packed into pages, plus one page floor per stream class.
    pub(super) fn pages_for_tokens(&self, tokens: usize) -> u64 {
        if tokens == 0 {
            return 0;
        }
        let packed = (tokens as u64 * self.bytes_per_token).div_ceil(self.page_size() as u64);
        packed + 1 + u64::from(self.sparse)
    }

    /// Worst-case new pages `rows` more rows on `owner`'s streams need:
    /// exact for the dense slab, worst-case packing for the sparse log.
    pub(super) fn pages_needed(&self, owner: u32, rows: usize) -> u32 {
        let page = self.page_size();
        let stride = self.dense_stride.unwrap_or(4 * self.kv_dim + 16);
        let dense_tail = self.mmu.tail_free(&Self::key(owner, StreamClass::Dense));
        let mut needed = (rows * stride).saturating_sub(dense_tail).div_ceil(page) as u32;
        if self.sparse {
            let sparse_tail = self.mmu.tail_free(&Self::key(owner, StreamClass::Sparse));
            needed += rows_to_pages(sparse_tail, rows, self.kv_dim, page);
        }
        needed
    }

    /// Lays one encoded row's `(dense, sparse)` bytes into `owner`'s slab
    /// and log (the burst-order write layout of §5.2). Must be covered by
    /// a [`pages_needed`](Self::pages_needed) pre-check.
    pub(super) fn write_row(&mut self, owner: u32, (dense, sparse): (usize, usize)) {
        for (class, bytes) in [(StreamClass::Dense, dense), (StreamClass::Sparse, sparse)] {
            if bytes > 0 {
                (self.mmu.write_token(Self::key(owner, class), bytes as u32))
                    .expect("append pre-checked the page bound");
            }
        }
        self.dense_stride = Some(self.dense_stride.map_or(dense, |s| s.max(dense)));
    }

    /// Device pages `owners` hold (none while frozen).
    pub(super) fn device_pages(&self, owners: impl IntoIterator<Item = u32>) -> u32 {
        owners.into_iter().map(|o| self.mmu.request_pages(o)).sum()
    }

    /// Host pages frozen `owners` hold.
    pub(super) fn host_pages(&self, owners: impl IntoIterator<Item = u32>) -> u32 {
        let host = self.mmu.host_tier();
        owners
            .into_iter()
            .map(|o| host.map_or(0, |h| h.frozen_pages(o)))
            .sum()
    }

    /// Device pages sealed blocks hold.
    pub(super) fn shared_pages(&self) -> u32 {
        self.shared
    }

    /// Seals `owner`, a pending block its sequence holds alone, into a
    /// trie block: its pages join the shared count.
    pub(super) fn seal(&mut self, owner: u32) {
        self.shared += self.mmu.request_pages(owner);
    }

    /// One more sharer of a sealed block (an adoption).
    pub(super) fn retain_block(&mut self, owner: u32) {
        self.mmu.retain_request(owner);
    }

    /// One sharer fewer of a sealed block; returns the pages freed (all of
    /// them when this was the last sharer, else none).
    pub(super) fn release_block(&mut self, owner: u32) -> u32 {
        let freed = self.mmu.release_request(owner);
        self.shared -= freed;
        freed
    }

    /// Gives up an exclusively held owner, wherever it lives: a live one
    /// releases its device pages (returned), which it holds alone; a
    /// `frozen` one is discarded from the host tier without a transfer
    /// back, freeing no device page.
    pub(super) fn drop_owner(&mut self, owner: u32, frozen: bool) -> u32 {
        if frozen {
            self.mmu
                .discard_frozen(owner)
                .expect("a suspended sequence's private owners are frozen");
            0
        } else {
            self.mmu.release_request(owner)
        }
    }

    /// Moves exclusively held owners out to the host tier. The caller
    /// pre-checks headroom.
    pub(super) fn freeze(&mut self, owners: &[u32]) -> SwapReceipt {
        let mut receipt = SwapReceipt::default();
        for &owner in owners {
            let moved = self.mmu.swap_out_request(owner);
            receipt.merge(moved.expect("headroom pre-checked; private pages are refcount-1"));
        }
        receipt
    }

    /// Whether frozen `owners` can thaw: each entry's size tables still
    /// fold to their checksum. The caller checked the device headroom.
    pub(super) fn can_thaw(&self, owners: &[u32]) -> Result<(), PoolError> {
        match self.mmu.can_swap_in(owners) {
            Ok(_) => Ok(()),
            Err(SwapError::ChecksumMismatch { .. }) => Err(PoolError::CorruptTransfer),
            Err(e) => panic!("headroom checked; a suspended sequence's owners are frozen: {e}"),
        }
    }

    /// Moves frozen owners back onto fresh device pages, all of them. The
    /// caller checked [`can_thaw`](Self::can_thaw).
    pub(super) fn thaw(&mut self, owners: &[u32]) -> SwapReceipt {
        (self.mmu.swap_in_requests(owners)).expect("the caller checked the thaw")
    }

    /// Flattens the size logs of `owners` — given in token order — into
    /// one self-describing payload: per class, the owners' logs
    /// concatenated, as if one owner had written every row.
    pub(super) fn flatten(&self, owners: &[u32]) -> TransferPayload {
        let mut payload = TransferPayload::default();
        for class in [StreamClass::Dense, StreamClass::Sparse] {
            let sizes: Vec<u32> = owners
                .iter()
                .filter_map(|&o| self.mmu.stream(&Self::key(o, class)))
                .flat_map(|(_, sizes)| sizes.iter().copied())
                .collect();
            if !sizes.is_empty() {
                payload.streams.push(StreamPayload {
                    layer: 0,
                    head: 0,
                    class,
                    sizes,
                });
            }
        }
        payload.seal();
        payload
    }

    /// Whether `payload` is intact, writable at this page size, and the
    /// host pages landing it would charge fit.
    pub(super) fn can_import(&self, payload: &TransferPayload) -> Result<(), PoolError> {
        let needed = match payload.pages_needed(self.page_size()) {
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

    /// Lands `payload` in the host tier under `owner`. The caller checked
    /// [`can_import`](Self::can_import).
    pub(super) fn import(&mut self, owner: u32, payload: &TransferPayload) -> SwapReceipt {
        (self.mmu.import_frozen(owner, payload)).expect("the caller checked the import")
    }
}

/// Worst-case pages `rows` rows of at most `bound` bytes each need on a
/// log whose tail page has `tail_free` bytes left: the tail absorbs whole
/// worst-case rows first, fresh pages are charged at worst-case packing
/// (log entries never span pages).
pub(super) fn rows_to_pages(tail_free: usize, rows: usize, bound: usize, page: usize) -> u32 {
    let absorbed = tail_free / bound;
    if absorbed >= rows {
        return 0;
    }
    let per_page = page / bound;
    ((rows - absorbed).div_ceil(per_page)) as u32
}
