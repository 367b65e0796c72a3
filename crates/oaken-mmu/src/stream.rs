//! The MMU simulator: per-(request, layer, head, class) streams, each its
//! pages and its per-token payload sizes.
//!
//! Write layout (§5.2): each stream owns its pages and appends "written
//! sequentially, immediately following the previous tokens' KV cache", so
//! reads burst. A dense stream is a fixed-stride slab — its rows are one
//! size, so row *i* sits at `i · stride` and may straddle a page edge — and
//! a sparse stream is a log of variable entries that never span pages
//! (`PageTail` states both rules once).

use crate::alloc::{AllocError, PageAllocator, PageId};
use crate::swap::{
    FrozenRequest, StreamPayload, SwapError, SwapPool, SwapReceipt, TransferPayload,
};
use std::collections::BTreeMap;
use std::ops::RangeInclusive;

/// Whether a stream carries dense (packed inlier) or sparse (COO outlier)
/// data — the two management tables of Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StreamClass {
    /// Fixed-size packed dense data: a slab, rows may straddle pages.
    Dense,
    /// Variable-size COO outlier data: a log, entries never span pages.
    Sparse,
}

/// Identifies one KV stream.
///
/// `Ord` sorts by request first, so a request's streams are one contiguous
/// key range of the MMU's stream map, visited in a deterministic order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamKey {
    /// Serving request id (the paged KV pool's page owner).
    pub request: u32,
    /// First coordinate within the request (a decoder layer, say); the
    /// paged KV pool keeps one stream per class and leaves it 0.
    pub layer: u16,
    /// Second coordinate within the request (an attention head, say); 0
    /// in the paged KV pool.
    pub head: u16,
    /// Dense or sparse payload.
    pub class: StreamClass,
}

impl StreamKey {
    /// Every key of `request`, as one range of the `Ord` order.
    fn of_request(request: u32) -> RangeInclusive<StreamKey> {
        let key = |coord, class| StreamKey {
            request,
            layer: coord,
            head: coord,
            class,
        };
        key(0, StreamClass::Dense)..=key(u16::MAX, StreamClass::Sparse)
    }
}

/// The packing rule, stated once, per class. A stream's pages form one
/// virtual run; a token payload lands right after its predecessor, except
/// that a sparse entry never spans pages — when the tail page cannot hold
/// it whole it starts a fresh page. A dense (fixed-stride) row may
/// straddle into the next page, so a slab of `n` rows of `stride` bytes
/// occupies `ceil(n · stride / page)` pages. [`MmuSim::write_token`] lays
/// pages by this rule and [`TransferPayload::pages_needed`] counts them by
/// it.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PageTail {
    /// Bytes of the virtual page run consumed so far, padding included.
    end: usize,
}

impl PageTail {
    /// Places one token payload; returns the pages the run then spans (at
    /// least one: a first write opens a page even when empty).
    ///
    /// # Panics
    ///
    /// Panics if a sparse entry exceeds the page size.
    pub(crate) fn place(&mut self, class: StreamClass, bytes: u32, page: usize) -> usize {
        let bytes = bytes as usize;
        if class == StreamClass::Sparse {
            assert!(
                bytes <= page,
                "sparse entry {bytes} exceeds page size {page}"
            );
            if self.end % page + bytes > page {
                self.end = self.end.next_multiple_of(page);
            }
        }
        self.end += bytes;
        self.end.div_ceil(page).max(1)
    }
}

#[derive(Debug, Default)]
struct Stream {
    /// Pages owned, in write order.
    pages: Vec<PageId>,
    tail: PageTail,
    /// Payload bytes per token, in token order: the size log a thaw or an
    /// import replays.
    sizes: Vec<u32>,
}

impl Stream {
    /// Payload bytes stored.
    fn bytes(&self) -> u64 {
        self.sizes.iter().map(|&b| u64::from(b)).sum()
    }
}

/// The MMU simulator: a page allocator plus dense/sparse streams,
/// optionally backed by a host swap tier ([`SwapPool`]).
#[derive(Debug)]
pub struct MmuSim {
    allocator: PageAllocator,
    streams: BTreeMap<StreamKey, Stream>,
    /// The host tier; `None` until [`MmuSim::attach_host_tier`].
    host: Option<SwapPool>,
}

impl MmuSim {
    /// Creates an MMU over `num_pages` pages of `page_size` bytes, with no
    /// host tier (swaps fail with [`SwapError::NoHostTier`]).
    pub fn new(num_pages: u32, page_size: usize) -> Self {
        Self {
            allocator: PageAllocator::new(num_pages, page_size),
            streams: BTreeMap::new(),
            host: None,
        }
    }

    /// The backing allocator (read-only view).
    pub fn allocator(&self) -> &PageAllocator {
        &self.allocator
    }

    /// Attaches (or resizes) a host tier of `host_pages` pages, enabling
    /// [`swap_out_request`](Self::swap_out_request) /
    /// [`swap_in_request`](Self::swap_in_request).
    ///
    /// # Panics
    ///
    /// Panics if requests are currently frozen, a zero-page one included
    /// (the tier can only be resized while empty).
    pub fn attach_host_tier(&mut self, host_pages: u32) {
        assert!(
            self.host.as_ref().is_none_or(|h| h.frozen.is_empty()),
            "host tier can only be resized while no request is frozen"
        );
        self.host = Some(SwapPool::new(host_pages));
    }

    /// The host tier, when attached (read-only: occupancy and frozen
    /// requests).
    pub fn host_tier(&self) -> Option<&SwapPool> {
        self.host.as_ref()
    }

    /// Whether `request` has any live stream.
    fn has_streams(&self, request: u32) -> bool {
        self.request_streams(request).next().is_some()
    }

    /// `request`'s live streams, in key order.
    fn request_streams(&self, request: u32) -> impl Iterator<Item = (&StreamKey, &Stream)> {
        self.streams.range(StreamKey::of_request(request))
    }

    /// Removes and returns `request`'s live streams, in key order.
    fn take_streams(&mut self, request: u32) -> Vec<(StreamKey, Stream)> {
        let range = StreamKey::of_request(request);
        self.streams.extract_if(range, |_, _| true).collect()
    }

    /// Freezes every stream of `request` to the host tier: the per-token
    /// payload sizes move to host, the device pages are released (each
    /// checked to be its last reference), and the host tier charges the
    /// same page count. The request's streams become unknown to the device
    /// until [`swap_in_request`](Self::swap_in_request) thaws them.
    ///
    /// A request with *no* streams freezes successfully as an empty entry
    /// (0 pages, 0 bytes) — a planned-but-unwritten prompt block suspends
    /// uniformly with its written siblings.
    ///
    /// # Errors
    ///
    /// [`SwapError::NoHostTier`] without an attached tier,
    /// [`SwapError::AlreadyFrozen`] on a double freeze,
    /// [`SwapError::SharedPages`] when any page has refcount ≥ 2 (shared
    /// pages must stay resident for their other owners), and
    /// [`SwapError::OutOfHostPages`] when the tier is full — all checked
    /// before any state changes, so a failed call is a no-op.
    pub fn swap_out_request(&mut self, request: u32) -> Result<SwapReceipt, SwapError> {
        let host = self.host.as_ref().ok_or(SwapError::NoHostTier)?;
        if host.is_frozen(request) {
            return Err(SwapError::AlreadyFrozen { request });
        }
        let mut pages = 0u32;
        for (_, s) in self.request_streams(request) {
            for &p in &s.pages {
                if self.allocator.refcount(p) != 1 {
                    return Err(SwapError::SharedPages { request });
                }
            }
            pages += s.pages.len() as u32;
        }
        if pages > host.free_pages() {
            return Err(SwapError::OutOfHostPages {
                needed: pages,
                free: host.free_pages(),
            });
        }
        // All checks passed: the move itself cannot fail.
        let mut payload = TransferPayload::default();
        for (k, stream) in self.take_streams(request) {
            for p in stream.pages {
                let freed = self.allocator.release(p);
                assert_eq!(freed, Ok(true), "checked refcount-1 pages free on release");
            }
            payload.streams.push(StreamPayload {
                layer: k.layer,
                head: k.head,
                class: k.class,
                sizes: stream.sizes,
            });
        }
        payload.seal();
        Ok(self.freeze(request, payload, pages))
    }

    /// Parks sealed size tables in the host tier as `request`, charging
    /// `pages` host pages.
    fn freeze(&mut self, request: u32, payload: TransferPayload, pages: u32) -> SwapReceipt {
        let receipt = SwapReceipt {
            pages,
            bytes: payload.bytes,
        };
        let entry = FrozenRequest { payload, pages };
        self.host
            .as_mut()
            .expect("callers checked the tier")
            .freeze(request, entry);
        receipt
    }

    /// Thaws a frozen request back into device memory: fresh pages are
    /// allocated and each stream is rebuilt by replaying its recorded
    /// per-token sizes in deterministic key order. Physical page *ids* may
    /// differ from before the freeze — the contract is `PageId`
    /// *semantics*: every stream's pages are live and exclusively owned,
    /// per-token sizes and tail headroom are identical, and the page count
    /// never exceeds the frozen count.
    ///
    /// # Errors
    ///
    /// As [`swap_in_requests`](Self::swap_in_requests), of which this is
    /// the one-request case.
    pub fn swap_in_request(&mut self, request: u32) -> Result<SwapReceipt, SwapError> {
        self.swap_in_requests(&[request])
    }

    /// Thaws `requests` as one unit, in the order given — all of them or,
    /// on any error, none (a sequence's tail and its pending prompt blocks
    /// are separate requests that must never be half-resident).
    ///
    /// # Errors
    ///
    /// [`SwapError::NoHostTier`], [`SwapError::NotFrozen`],
    /// [`SwapError::ChecksumMismatch`] when a frozen entry's size tables
    /// no longer fold to the checksum they were sealed with (a corrupted
    /// page layout is never rebuilt; retrying cannot help), or
    /// [`SwapError::OutOfDevicePages`] when the device cannot hold the
    /// frozen page count — all checked before any state changes, so a
    /// failed call is a no-op and every request stays frozen.
    pub fn swap_in_requests(&mut self, requests: &[u32]) -> Result<SwapReceipt, SwapError> {
        let frozen_pages = self.can_swap_in(requests)?;
        let mut receipt = SwapReceipt::default();
        for &request in requests {
            receipt.merge(self.thaw(request));
        }
        debug_assert!(
            receipt.pages <= frozen_pages,
            "replay packed into more pages than it froze from"
        );
        Ok(receipt)
    }

    /// The checks of [`swap_in_requests`](Self::swap_in_requests), without
    /// the thaw: every entry frozen and intact, and the device holding
    /// their pages. Returns the frozen page count.
    ///
    /// # Errors
    ///
    /// As [`swap_in_requests`](Self::swap_in_requests).
    pub fn can_swap_in(&self, requests: &[u32]) -> Result<u32, SwapError> {
        let host = self.host.as_ref().ok_or(SwapError::NoHostTier)?;
        let mut frozen_pages = 0u32;
        for &request in requests {
            let entry = host
                .frozen
                .get(&request)
                .ok_or(SwapError::NotFrozen { request })?;
            entry.payload.verify()?;
            frozen_pages += entry.pages;
        }
        let free = self.allocator.free_pages();
        if frozen_pages > free {
            return Err(SwapError::OutOfDevicePages {
                needed: frozen_pages,
                free,
            });
        }
        Ok(frozen_pages)
    }

    /// Replays one verified frozen entry onto fresh device pages.
    fn thaw(&mut self, request: u32) -> SwapReceipt {
        let FrozenRequest { payload, .. } = self
            .host
            .as_mut()
            .and_then(|host| host.thaw(request))
            .expect("the caller verified the entry");
        let free = self.allocator.free_pages();
        for s in payload.streams {
            let key = StreamKey {
                request,
                layer: s.layer,
                head: s.head,
                class: s.class,
            };
            debug_assert!(!self.streams.contains_key(&key), "thaw into live key");
            for size in s.sizes {
                self.write_token(key, size)
                    .expect("pre-checked: replay never exceeds the frozen page count");
            }
        }
        SwapReceipt {
            pages: free - self.allocator.free_pages(),
            bytes: payload.bytes,
        }
    }

    /// Drops a frozen request without thawing it (a suspended sequence
    /// retired while on host): the host pages free and the entry's bytes
    /// are discarded. Returns the host pages released, or an error when
    /// the request is not frozen.
    ///
    /// # Errors
    ///
    /// [`SwapError::NoHostTier`] or [`SwapError::NotFrozen`].
    pub fn discard_frozen(&mut self, request: u32) -> Result<u32, SwapError> {
        let host = self.host.as_mut().ok_or(SwapError::NoHostTier)?;
        let entry = host.thaw(request).ok_or(SwapError::NotFrozen { request })?;
        Ok(entry.pages)
    }

    /// Lands a [`crate::swap::TransferPayload`] from another MMU as a frozen entry of
    /// this MMU's host tier under local id `request` — the receive side of
    /// a prefill→decode KV handoff. The imported request behaves exactly
    /// like a locally frozen one: [`swap_in_request`](Self::swap_in_request)
    /// thaws it onto fresh device pages (replaying the carried size tables
    /// through the normal write path), and the page count charged to host
    /// is recomputed here with the same packing rule `write_token` uses,
    /// so accounting never depends on the exporter's page geometry.
    ///
    /// # Errors
    ///
    /// [`SwapError::NoHostTier`], [`SwapError::AlreadyFrozen`] (the local
    /// id is taken), [`SwapError::ChecksumMismatch`] or
    /// [`SwapError::TokenExceedsPage`] (the payload is outside input: a
    /// corrupted or truncated transfer, or one written for larger pages,
    /// never rebuilds garbage tables), or [`SwapError::OutOfHostPages`] —
    /// all checked before any state changes, so a failed import is a
    /// no-op; only the last is worth retrying later (the cluster's
    /// transfer clock does exactly that).
    pub fn import_frozen(
        &mut self,
        request: u32,
        payload: &crate::swap::TransferPayload,
    ) -> Result<SwapReceipt, SwapError> {
        let host = self.host.as_ref().ok_or(SwapError::NoHostTier)?;
        if host.is_frozen(request) || self.has_streams(request) {
            return Err(SwapError::AlreadyFrozen { request });
        }
        let pages = payload.pages_needed(self.allocator.page_size())?;
        if pages > host.free_pages() {
            return Err(SwapError::OutOfHostPages {
                needed: pages,
                free: host.free_pages(),
            });
        }
        // A thaw replays streams in listed order: keep the tier's entries
        // in key order whatever order the wire delivered.
        let mut stored = payload.clone();
        stored.streams.sort_by_key(|s| (s.layer, s.head, s.class));
        stored.seal();
        Ok(self.freeze(request, stored, pages))
    }

    /// Appends one token's payload to a stream by its class's packing rule
    /// (`PageTail`), allocating pages on demand: a dense row continues
    /// into as many fresh pages as it needs, a sparse entry that the tail
    /// page cannot hold whole starts a fresh one. Returns the pages it
    /// opened.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::OutOfPages`] when device memory cannot hold
    /// the payload — the OOM signal the serving layer uses for admission
    /// control. Nothing is written then.
    ///
    /// # Panics
    ///
    /// Panics if a sparse entry exceeds the page size.
    pub fn write_token(&mut self, key: StreamKey, bytes: u32) -> Result<u32, AllocError> {
        let page_size = self.allocator.page_size();
        debug_assert!(
            !self.host.as_ref().is_some_and(|h| h.is_frozen(key.request)),
            "write to request {} while it is frozen to host",
            key.request
        );
        let stream = self.streams.entry(key).or_default();
        let mut tail = stream.tail;
        let opened = tail.place(key.class, bytes, page_size) - stream.pages.len();
        if opened > self.allocator.free_pages() as usize {
            return Err(AllocError::OutOfPages {
                capacity: self.allocator.capacity(),
            });
        }
        for _ in 0..opened {
            stream.pages.push(self.allocator.alloc()?);
        }
        stream.tail = tail;
        stream.sizes.push(bytes);
        Ok(opened as u32)
    }

    /// A stream's pages, in write order, and its per-token payload sizes,
    /// in token order; `None` for unknown streams.
    pub fn stream(&self, key: &StreamKey) -> Option<(&[PageId], &[u32])> {
        self.streams
            .get(key)
            .map(|s| (s.pages.as_slice(), s.sizes.as_slice()))
    }

    /// Free bytes remaining in a stream's tail page: the headroom the next
    /// `write_token` can use before a fresh page must be allocated. `0` for
    /// unknown streams (the first write always opens a page).
    pub fn tail_free(&self, key: &StreamKey) -> usize {
        self.streams.get(key).map_or(0, |s| {
            s.pages.len() * self.allocator.page_size() - s.tail.end
        })
    }

    /// Pages currently owned by `request` across all of its streams.
    pub fn request_pages(&self, request: u32) -> u32 {
        self.request_streams(request)
            .map(|(_, s)| s.pages.len() as u32)
            .sum()
    }

    /// Bytes actually stored for `request` (sum of its per-token sizes).
    pub fn request_bytes(&self, request: u32) -> u64 {
        self.request_streams(request).map(|(_, s)| s.bytes()).sum()
    }

    /// Adds one reference to every page owned by `request`'s streams — a
    /// new sharer adopting the request's payload (a prefix-cache hit).
    /// Returns the number of pages retained (0 for an unknown request).
    pub fn retain_request(&mut self, request: u32) -> u32 {
        let mut retained = 0u32;
        for (_, s) in self.streams.range(StreamKey::of_request(request)) {
            for &p in &s.pages {
                self.allocator
                    .retain(p)
                    .expect("stream-owned pages are allocated");
                retained += 1;
            }
        }
        retained
    }

    /// Drops one reference from every page owned by `request`'s streams —
    /// the one way a request's device pages go, whether it was never
    /// shared (its retirement) or a sharer departs. When the last
    /// reference goes, the pages free and the streams are removed; while
    /// other sharers remain, the streams stay readable. Returns the pages
    /// actually freed.
    ///
    /// Contract: every page of the request is at the same refcount, which
    /// [`retain_request`](Self::retain_request) preserves and appends
    /// break. A request written to after it was shared mixes shared and
    /// private pages; releasing it would free its private tail while its
    /// streams stay live, so that misuse is rejected loudly.
    ///
    /// # Panics
    ///
    /// Panics if the request's pages do not share one refcount.
    pub fn release_request(&mut self, request: u32) -> u32 {
        let pages: Vec<PageId> = self
            .request_streams(request)
            .flat_map(|(_, s)| s.pages.iter().copied())
            .collect();
        // Reject mixed-refcount requests before touching any state: a
        // partial release would free a private tail page while the
        // request's streams stay live.
        let uniform = pages
            .windows(2)
            .all(|w| self.allocator.refcount(w[0]) == self.allocator.refcount(w[1]));
        assert!(
            uniform,
            "release_request on mixed-refcount request {request}: \
             a request written after it was shared cannot be released"
        );
        let mut freed = 0u32;
        let mut fully_freed = true;
        for &p in &pages {
            let went = self
                .allocator
                .release(p)
                .expect("stream-owned pages are allocated");
            freed += u32::from(went);
            fully_freed &= went;
        }
        // Uniform refcounts mean either every page freed (last sharer:
        // drop the streams) or none did (they stay for the remaining
        // sharers).
        if fully_freed {
            self.take_streams(request);
        }
        freed
    }

    /// Internal fragmentation: allocated-but-unused bytes over allocated
    /// bytes (0.0 when nothing is allocated).
    pub fn internal_fragmentation(&self) -> f64 {
        let page_size = self.allocator.page_size() as u64;
        let mut allocated = 0u64;
        let mut used = 0u64;
        for s in self.streams.values() {
            allocated += s.pages.len() as u64 * page_size;
            used += s.bytes();
        }
        if allocated == 0 {
            return 0.0;
        }
        1.0 - used as f64 / allocated as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(request: u32, head: u16, class: StreamClass) -> StreamKey {
        StreamKey {
            request,
            layer: 0,
            head,
            class,
        }
    }

    /// Rows land back to back: ten 64-byte rows fill the first 640 bytes
    /// of one page.
    #[test]
    fn sequential_writes_are_contiguous() {
        let mut mmu = MmuSim::new(16, 4096);
        let k = key(1, 0, StreamClass::Dense);
        let opened: u32 = (0..10).map(|_| mmu.write_token(k, 64).unwrap()).sum();
        assert_eq!(opened, 1, "one page holds the whole run");
        assert_eq!(mmu.stream(&k), Some((&[PageId(0)][..], &[64; 10][..])));
        assert_eq!(mmu.tail_free(&k), 4096 - 640);
    }

    #[test]
    fn streams_get_distinct_pages() {
        let mut mmu = MmuSim::new(16, 4096);
        let ka = key(1, 0, StreamClass::Dense);
        let kb = key(1, 1, StreamClass::Dense);
        assert_eq!(mmu.write_token(ka, 64), Ok(1));
        assert_eq!(mmu.write_token(kb, 64), Ok(1));
        let (pa, pb) = (mmu.stream(&ka).unwrap().0, mmu.stream(&kb).unwrap().0);
        assert_eq!((pa, pb), (&[PageId(0)][..], &[PageId(1)][..]));
        assert_eq!(mmu.request_pages(1), 2, "heads go to distinct pages");
    }

    #[test]
    fn variable_sparse_sizes_tracked_in_table() {
        let mut mmu = MmuSim::new(16, 4096);
        let k = key(2, 0, StreamClass::Sparse);
        for size in [7u32, 13, 2, 29] {
            mmu.write_token(k, size).unwrap();
        }
        assert_eq!(mmu.stream(&k).unwrap().1, [7, 13, 2, 29]);
        assert_eq!(mmu.request_bytes(2), 51);
    }

    #[test]
    fn page_overflow_opens_new_page() {
        let mut mmu = MmuSim::new(16, 128);
        let k = key(1, 0, StreamClass::Sparse);
        assert_eq!(mmu.write_token(k, 100), Ok(1));
        assert_eq!(mmu.tail_free(&k), 28);
        // The 28 bytes left on page 0 cannot hold the next entry whole,
        // so it starts page 1 and the gap stays padding.
        assert_eq!(mmu.write_token(k, 100), Ok(1), "second write opens a page");
        assert_eq!(mmu.stream(&k).unwrap().0, [PageId(0), PageId(1)]);
        assert_eq!(mmu.tail_free(&k), 28);
    }

    /// A dense slab packs rows back to back: row *i* starts at `i · stride`
    /// of the stream's page run, so a row straddles into the next page, a
    /// row wider than a page opens several, and the stream costs
    /// `ceil(bytes / page)` pages.
    #[test]
    fn dense_rows_straddle_pages_into_a_packed_slab() {
        let mut mmu = MmuSim::new(16, 128);
        let k = key(1, 0, StreamClass::Dense);
        assert_eq!(mmu.write_token(k, 100), Ok(1));
        assert_eq!(mmu.tail_free(&k), 128 - 100, "row 1 starts at 1 · stride");
        mmu.write_token(key(9, 0, StreamClass::Sparse), 8).unwrap();
        assert_eq!(mmu.write_token(k, 100), Ok(1), "row 1 straddles");
        assert_eq!((mmu.request_pages(1), mmu.tail_free(&k)), (2, 56));
        // Page 1 went to request 9, so the straddle continues on page 2.
        assert_eq!(mmu.stream(&k).unwrap().0, [PageId(0), PageId(2)]);
        assert_eq!(mmu.write_token(k, 300), Ok(2));
        assert_eq!(mmu.request_pages(1), 500usize.div_ceil(128) as u32);
        assert_eq!(mmu.tail_free(&k), 4 * 128 - 500);
        assert_eq!(mmu.request_bytes(1), 500);
    }

    #[test]
    fn oom_surfaces_as_error() {
        let mut mmu = MmuSim::new(1, 128);
        let k = key(1, 0, StreamClass::Dense);
        mmu.write_token(k, 128).unwrap();
        assert!(matches!(
            mmu.write_token(k, 1),
            Err(AllocError::OutOfPages { .. })
        ));
    }

    #[test]
    fn free_request_releases_everything() {
        let mut mmu = MmuSim::new(4, 128);
        for head in 0..4 {
            mmu.write_token(key(7, head, StreamClass::Dense), 64)
                .unwrap();
        }
        assert_eq!(mmu.allocator().free_pages(), 0);
        assert_eq!(mmu.release_request(7), 4);
        assert_eq!(mmu.allocator().free_pages(), 4);
        assert!(mmu.stream(&key(7, 0, StreamClass::Dense)).is_none());
    }

    #[test]
    fn fragmentation_reflects_partial_pages() {
        let mut mmu = MmuSim::new(4, 100);
        mmu.write_token(key(1, 0, StreamClass::Dense), 25).unwrap();
        // 25 of 100 bytes used → 75% internal fragmentation.
        assert!((mmu.internal_fragmentation() - 0.75).abs() < 1e-9);
        assert_eq!(MmuSim::new(4, 100).internal_fragmentation(), 0.0);
    }

    #[test]
    #[should_panic(expected = "exceeds page size")]
    fn oversized_payload_rejected() {
        let mut mmu = MmuSim::new(4, 64);
        let _ = mmu.write_token(key(1, 0, StreamClass::Sparse), 65);
    }

    #[test]
    fn stream_returns_pages_and_per_token_sizes() {
        let mut mmu = MmuSim::new(16, 128);
        let k = key(3, 0, StreamClass::Sparse);
        let opened: Vec<u32> = [9u32, 17, 5]
            .iter()
            .map(|&b| mmu.write_token(k, b).unwrap())
            .collect();
        assert_eq!(opened, [1, 0, 0], "only the first write opens a page");
        assert_eq!(mmu.stream(&k), Some((&[PageId(0)][..], &[9, 17, 5][..])));
        assert!(mmu.stream(&key(4, 0, StreamClass::Dense)).is_none());
    }

    #[test]
    fn tail_free_tracks_page_headroom() {
        let mut mmu = MmuSim::new(16, 100);
        let k = key(1, 0, StreamClass::Sparse);
        assert_eq!(mmu.tail_free(&k), 0, "no page before the first write");
        mmu.write_token(k, 30).unwrap();
        assert_eq!(mmu.tail_free(&k), 70);
        mmu.write_token(k, 80).unwrap(); // overflows into a new page
        assert_eq!(mmu.tail_free(&k), 20);
    }

    #[test]
    fn retain_release_request_shares_pages_until_last_owner() {
        let mut mmu = MmuSim::new(8, 128);
        let k = key(10, 0, StreamClass::Dense);
        for _ in 0..4 {
            mmu.write_token(k, 100).unwrap(); // 4 pages
        }
        assert_eq!(mmu.request_pages(10), 4);
        let refs = |mmu: &MmuSim| -> Vec<u32> {
            let pages = mmu.stream(&k).unwrap().0;
            pages.iter().map(|&p| mmu.allocator().refcount(p)).collect()
        };
        assert_eq!(refs(&mmu), [1; 4]);
        // Two additional sharers adopt the request's payload.
        assert_eq!(mmu.retain_request(10), 4);
        assert_eq!(mmu.retain_request(10), 4);
        assert_eq!(refs(&mmu), [3; 4]);
        // Departing sharers free nothing while others remain; the stream
        // stays readable.
        assert_eq!(mmu.release_request(10), 0);
        assert!(mmu.stream(&k).is_some());
        assert_eq!(mmu.release_request(10), 0);
        assert_eq!(refs(&mmu), [1; 4]);
        // The last owner frees everything and drops the stream.
        assert_eq!(mmu.release_request(10), 4);
        assert!(mmu.stream(&k).is_none());
        assert_eq!(mmu.allocator().free_pages(), 8);
    }

    #[test]
    #[should_panic(expected = "mixed-refcount")]
    fn release_request_rejects_forked_then_written_requests() {
        let mut mmu = MmuSim::new(8, 128);
        let k = key(1, 0, StreamClass::Dense);
        mmu.write_token(k, 100).unwrap();
        mmu.retain_request(1);
        // Written after sharing, the request mixes a shared history page
        // (rc 2) with a private tail page (rc 1): releasing it would free
        // the tail while the stream stays live.
        mmu.write_token(k, 100).unwrap();
        mmu.release_request(1);
    }

    #[test]
    fn swap_roundtrip_preserves_table_semantics() {
        let mut mmu = MmuSim::new(8, 128);
        mmu.attach_host_tier(8);
        let kd = key(5, 0, StreamClass::Dense);
        let ks = key(5, 1, StreamClass::Sparse);
        for size in [100u32, 60, 60] {
            mmu.write_token(kd, size).unwrap(); // a 220-byte slab: 2 pages
        }
        mmu.write_token(ks, 17).unwrap();
        let before_pages = mmu.request_pages(5);
        let before_bytes = mmu.request_bytes(5);
        let tail_before = mmu.tail_free(&kd);

        let out = mmu.swap_out_request(5).unwrap();
        assert_eq!(out.pages, before_pages);
        assert_eq!(out.bytes, before_bytes);
        assert!(mmu.host_tier().unwrap().is_frozen(5));
        assert!(mmu.stream(&kd).is_none(), "device side forgot the streams");
        assert_eq!(mmu.request_pages(5), 0);
        assert_eq!(mmu.allocator().free_pages(), 8);
        let host = mmu.host_tier().expect("attached");
        assert_eq!(host.used_pages(), before_pages);
        assert_eq!(host.frozen_pages(5), before_pages);

        // Another request takes device pages meanwhile.
        mmu.write_token(key(6, 0, StreamClass::Dense), 50).unwrap();

        let back = mmu.swap_in_request(5).unwrap();
        assert_eq!(back.pages, before_pages, "no-CoW streams replay exactly");
        assert_eq!(back.bytes, before_bytes);
        assert!(!mmu.host_tier().unwrap().is_frozen(5));
        assert_eq!(mmu.request_pages(5), before_pages);
        assert_eq!(mmu.request_bytes(5), before_bytes);
        assert_eq!(mmu.tail_free(&kd), tail_before);
        assert_eq!(mmu.stream(&kd).unwrap().1, [100, 60, 60]);
        assert_eq!(mmu.stream(&ks).unwrap().1, [17]);
        assert_eq!(mmu.host_tier().unwrap().used_pages(), 0);
        assert_eq!(
            back, out,
            "the round trip moves the same pages and bytes back"
        );

        // The thawed stream keeps appending normally.
        mmu.write_token(kd, 8).unwrap();
        assert_eq!(mmu.stream(&kd).unwrap().1.len(), 4);
    }

    #[test]
    fn swap_errors_are_checked_before_any_state_change() {
        let mut mmu = MmuSim::new(4, 128);
        let k = key(1, 0, StreamClass::Dense);
        mmu.write_token(k, 100).unwrap();
        // No tier attached.
        assert_eq!(mmu.swap_out_request(1), Err(SwapError::NoHostTier));
        // Tier too small.
        mmu.attach_host_tier(0);
        assert!(matches!(
            mmu.swap_out_request(1),
            Err(SwapError::OutOfHostPages { needed: 1, free: 0 })
        ));
        assert_eq!(mmu.request_pages(1), 1, "failed swap changed nothing");
        mmu.attach_host_tier(4);
        // Shared pages cannot move tiers.
        mmu.retain_request(1);
        assert_eq!(
            mmu.swap_out_request(1),
            Err(SwapError::SharedPages { request: 1 })
        );
        mmu.release_request(1);
        // Double freeze / thaw of the unknown.
        mmu.swap_out_request(1).unwrap();
        assert_eq!(
            mmu.swap_out_request(1),
            Err(SwapError::AlreadyFrozen { request: 1 })
        );
        assert_eq!(
            mmu.swap_in_request(9),
            Err(SwapError::NotFrozen { request: 9 })
        );
        // Device full on thaw: the request stays frozen.
        for _ in 0..4 {
            mmu.write_token(key(2, 0, StreamClass::Dense), 128).unwrap();
        }
        assert!(matches!(
            mmu.swap_in_request(1),
            Err(SwapError::OutOfDevicePages { needed: 1, free: 0 })
        ));
        assert!(mmu.host_tier().unwrap().is_frozen(1));
        mmu.release_request(2);
        assert_eq!(mmu.swap_in_request(1).unwrap().pages, 1);
    }

    /// A zero-page frozen entry occupies no host page but is still frozen:
    /// a resize would drop it, and its thaw would then fail `NotFrozen`.
    #[test]
    #[should_panic(expected = "no request is frozen")]
    fn host_tier_resize_rejects_a_frozen_empty_request() {
        let mut mmu = MmuSim::new(4, 128);
        mmu.attach_host_tier(4);
        assert_eq!(mmu.swap_out_request(7).unwrap().pages, 0);
        mmu.attach_host_tier(8);
    }

    #[test]
    fn empty_requests_freeze_and_discard_cleanly() {
        let mut mmu = MmuSim::new(4, 128);
        mmu.attach_host_tier(2);
        // A request with no streams freezes as a 0-page entry.
        let r = mmu.swap_out_request(7).unwrap();
        assert_eq!(r, SwapReceipt { pages: 0, bytes: 0 });
        assert!(mmu.host_tier().unwrap().is_frozen(7));
        assert_eq!(mmu.swap_in_request(7).unwrap().pages, 0);
        assert!(!mmu.host_tier().unwrap().is_frozen(7));
        assert_eq!(mmu.request_pages(7), 0, "an empty entry thaws to no stream");
        // Discard releases host pages without a swap-in.
        mmu.write_token(key(3, 0, StreamClass::Dense), 40).unwrap();
        mmu.swap_out_request(3).unwrap();
        assert_eq!(mmu.discard_frozen(3).unwrap(), 1);
        assert_eq!(mmu.host_tier().unwrap().used_pages(), 0);
        // The discard thawed nothing back onto the device.
        assert_eq!(mmu.request_pages(3), 0);
        assert!(matches!(
            mmu.discard_frozen(3),
            Err(SwapError::NotFrozen { request: 3 })
        ));
    }

    #[test]
    fn export_import_roundtrip_rebuilds_tables() {
        use crate::swap::{size_checksum, StreamPayload, TransferPayload};
        // Source MMU: one dense + one sparse stream with uneven sizes.
        let mut src = MmuSim::new(8, 128);
        let kd = key(5, 0, StreamClass::Dense);
        let ks = key(5, 0, StreamClass::Sparse);
        for size in [100u32, 60, 60] {
            src.write_token(kd, size).unwrap();
        }
        for size in [7u32, 0, 29] {
            src.write_token(ks, size).unwrap();
        }
        let mut payload = TransferPayload {
            streams: [kd, ks]
                .iter()
                .map(|k| StreamPayload {
                    layer: k.layer,
                    head: k.head,
                    class: k.class,
                    sizes: src.stream(k).unwrap().1.to_vec(),
                })
                .collect(),
            bytes: 0,
            checksum: 0,
        };
        payload.seal();
        assert_eq!(payload.bytes, src.request_bytes(5));

        // Destination MMU under a different local id.
        let mut dst = MmuSim::new(8, 128);
        dst.attach_host_tier(8);
        let receipt = dst.import_frozen(9, &payload).unwrap();
        assert_eq!(receipt.bytes, payload.bytes);
        let host = dst.host_tier().unwrap();
        assert_eq!(host.frozen[&9].payload.checksum, payload.checksum);
        assert!(host.is_frozen(9));
        assert_eq!(host.used_pages(), receipt.pages);

        let thawed = dst.swap_in_request(9).unwrap();
        assert_eq!(thawed.bytes, payload.bytes);
        let sizes = |class| dst.stream(&key(9, 0, class)).unwrap().1;
        assert_eq!(sizes(StreamClass::Dense), [100, 60, 60]);
        assert_eq!(sizes(StreamClass::Sparse), [7, 0, 29]);
        // Same packing rule ⇒ same tail headroom as the source stream.
        assert_eq!(
            dst.tail_free(&key(9, 0, StreamClass::Dense)),
            src.tail_free(&kd)
        );
        // A swap-out seals its frozen entry with the same fold the
        // transfer carries.
        let out = src.swap_out_request(5);
        src.attach_host_tier(8);
        assert!(out.is_err(), "no host tier on src yet");
        src.swap_out_request(5).unwrap();
        let frozen = &src.host_tier().unwrap().frozen[&5].payload;
        assert_eq!(frozen.checksum, size_checksum([100u32, 60, 60, 7, 0, 29]));
    }

    #[test]
    fn corrupted_frozen_entry_fails_typed_on_thaw_and_stays_frozen() {
        let mut mmu = MmuSim::new(8, 128);
        mmu.attach_host_tier(8);
        for size in [100u32, 60, 60] {
            mmu.write_token(key(3, 0, StreamClass::Dense), size)
                .unwrap();
        }
        mmu.write_token(key(4, 0, StreamClass::Dense), 50).unwrap();
        let out = mmu.swap_out_request(3).unwrap();
        mmu.swap_out_request(4).unwrap();
        let observed = |mmu: &MmuSim| {
            let host = mmu.host_tier().unwrap();
            (
                mmu.allocator().free_pages(),
                host.used_pages(),
                host.is_frozen(3),
                host.is_frozen(4),
                mmu.streams.len(),
            )
        };
        let frozen = observed(&mmu);

        // One flipped bit in a frozen size table, after sealing.
        let flip = |mmu: &mut MmuSim| {
            let host = mmu.host.as_mut().unwrap();
            host.frozen.get_mut(&3).unwrap().payload.streams[0].sizes[1] ^= 4;
        };
        flip(&mut mmu);
        // Alone, or behind an intact request of the same unit: typed, and
        // nothing moved — both still frozen, no device page taken, no
        // stream rebuilt.
        for unit in [&[3u32][..], &[4, 3]] {
            assert!(matches!(
                mmu.swap_in_requests(unit),
                Err(SwapError::ChecksumMismatch { .. })
            ));
            assert_eq!(observed(&mmu), frozen);
        }

        // Repaired, the same entries thaw to what was frozen.
        flip(&mut mmu);
        let back = mmu.swap_in_requests(&[4, 3]).unwrap();
        assert_eq!(back.bytes, out.bytes + 50);
        assert!(!mmu.host_tier().unwrap().is_frozen(3));
        assert_eq!(mmu.request_bytes(3), out.bytes);
    }

    #[test]
    fn corrupted_transfer_fails_typed_on_import() {
        use crate::swap::{StreamPayload, TransferPayload};
        let mut payload = TransferPayload {
            streams: vec![StreamPayload {
                layer: 0,
                head: 0,
                class: StreamClass::Sparse,
                sizes: vec![16, 16, 16],
            }],
            bytes: 0,
            checksum: 0,
        };
        payload.seal();
        let mut dst = MmuSim::new(4, 128);
        dst.attach_host_tier(4);

        // Truncated after sealing: the wire lost a token.
        let mut truncated = payload.clone();
        truncated.streams[0].sizes.pop();
        assert!(matches!(
            dst.import_frozen(1, &truncated),
            Err(SwapError::ChecksumMismatch { .. })
        ));
        // One flipped bit in the size table.
        let mut flipped = payload.clone();
        flipped.streams[0].sizes[1] ^= 4;
        assert!(matches!(
            dst.import_frozen(1, &flipped),
            Err(SwapError::ChecksumMismatch { .. })
        ));
        // Sealed by an exporter with larger pages than this importer's.
        let mut oversize = payload.clone();
        oversize.streams[0].sizes[2] = 129;
        oversize.seal();
        assert_eq!(
            dst.import_frozen(1, &oversize),
            Err(SwapError::TokenExceedsPage {
                bytes: 129,
                page_size: 128
            })
        );
        // Every rejection was a no-op: the intact payload still lands.
        assert_eq!(dst.host_tier().unwrap().used_pages(), 0);
        dst.import_frozen(1, &payload).unwrap();
    }

    #[test]
    fn import_checks_capacity_and_id_collisions_first() {
        use crate::swap::{StreamPayload, TransferPayload};
        let mut payload = TransferPayload {
            streams: vec![StreamPayload {
                layer: 0,
                head: 0,
                class: StreamClass::Dense,
                sizes: vec![100, 100],
            }],
            bytes: 0,
            checksum: 0,
        };
        payload.seal();
        let mut dst = MmuSim::new(4, 128);
        assert_eq!(dst.import_frozen(1, &payload), Err(SwapError::NoHostTier));
        dst.attach_host_tier(1);
        assert_eq!(
            dst.import_frozen(1, &payload),
            Err(SwapError::OutOfHostPages { needed: 2, free: 1 }),
            "two 100-byte tokens cannot share a 128-byte page"
        );
        dst.attach_host_tier(4);
        // A live local stream under the id blocks the import.
        dst.write_token(key(1, 0, StreamClass::Dense), 10).unwrap();
        assert_eq!(
            dst.import_frozen(1, &payload),
            Err(SwapError::AlreadyFrozen { request: 1 })
        );
        dst.release_request(1);
        dst.import_frozen(1, &payload).unwrap();
        assert_eq!(
            dst.import_frozen(1, &payload),
            Err(SwapError::AlreadyFrozen { request: 1 })
        );
    }

    #[test]
    fn request_accounting_sums_streams() {
        let mut mmu = MmuSim::new(16, 128);
        for head in 0..3 {
            mmu.write_token(key(9, head, StreamClass::Dense), 40)
                .unwrap();
        }
        mmu.write_token(key(8, 0, StreamClass::Dense), 40).unwrap();
        assert_eq!(mmu.request_pages(9), 3);
        assert_eq!(mmu.request_bytes(9), 120);
        assert_eq!(mmu.request_pages(7), 0);
        assert_eq!(mmu.request_bytes(7), 0);
    }
}
