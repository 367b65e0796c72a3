//! The MMU simulator: per-(request, layer, head, class) streams appended to
//! physical pages with dense and sparse management tables.
//!
//! Write layout (§5.2): "Key-value vectors generated in the current layer
//! are divided by attention head and written to distinct pages ... when the
//! KV cache for the next token is generated, it is divided similarly and
//! written sequentially, immediately following the previous tokens' KV
//! cache" — each stream owns its pages and appends, so reads burst.

use crate::alloc::{AllocError, PageAllocator, PageId};
use crate::burst::{plan_bursts, BurstPlan};
use crate::fault::{FaultInjector, FaultKind, FaultOp, FaultPlan, FaultStats};
use crate::swap::{
    FrozenRequest, Residency, StreamPayload, SwapError, SwapPool, SwapReceipt, TransferPayload,
};
use crate::table::{StreamTable, TableEntry};
use crate::PhysAddr;
use std::collections::HashMap;

/// Whether a stream carries dense (packed inlier) or sparse (COO outlier)
/// data — the two management tables of Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StreamClass {
    /// Fixed-size packed dense data.
    Dense,
    /// Variable-size COO outlier data.
    Sparse,
}

/// Identifies one KV stream.
///
/// `Ord` exists so tier moves ([`MmuSim::swap_out_request`]) can process a
/// request's streams in a deterministic order independent of hash-map
/// iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamKey {
    /// Serving request id.
    pub request: u32,
    /// Decoder layer.
    pub layer: u16,
    /// Attention (KV) head.
    pub head: u16,
    /// Dense or sparse payload.
    pub class: StreamClass,
}

/// The packing rule, stated once: a token payload never spans pages, so
/// it lands right after its predecessor in the tail page, or — when no
/// page is open yet or the tail cannot hold it whole — at the start of a
/// fresh one. [`MmuSim::write_token`] lays pages by this rule and
/// [`TransferPayload::pages_needed`] counts them by it.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PageTail {
    /// Bytes used in the open tail page.
    used: usize,
    /// Whether a tail page is open at all.
    open: bool,
}

impl PageTail {
    /// Places one token payload; returns its byte offset within its page
    /// and whether that page is a fresh one.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the page size.
    pub(crate) fn place(&mut self, bytes: u32, page_size: usize) -> (usize, bool) {
        assert!(
            bytes as usize <= page_size,
            "token payload {bytes} exceeds page size {page_size}"
        );
        let fresh = !self.open || self.used + bytes as usize > page_size;
        let offset = if fresh { 0 } else { self.used };
        *self = PageTail {
            used: offset + bytes as usize,
            open: true,
        };
        (offset, fresh)
    }
}

#[derive(Debug, Default)]
struct Stream {
    table: StreamTable,
    pages: Vec<PageId>,
    tail: PageTail,
    /// Copy-on-write marker: the tail page is shared with another stream
    /// (this stream was forked), so the next write must open a fresh page
    /// instead of appending into the shared one.
    cow_tail: bool,
}

/// Result of one token write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteReceipt {
    /// Where the token's payload starts.
    pub addr: PhysAddr,
    /// Bytes written.
    pub bytes: u32,
    /// Whether a fresh page had to be allocated.
    pub new_page: bool,
}

/// The MMU simulator: a page allocator plus dense/sparse stream tables,
/// optionally backed by a host swap tier ([`SwapPool`]).
#[derive(Debug)]
pub struct MmuSim {
    allocator: PageAllocator,
    streams: HashMap<StreamKey, Stream>,
    /// The host tier; `None` until [`MmuSim::attach_host_tier`].
    host: Option<SwapPool>,
    /// Installed fault schedule; `None` (the default) disables injection
    /// entirely — [`poll_fault`](Self::poll_fault) is then a single
    /// discriminant check.
    faults: Option<FaultInjector>,
}

impl MmuSim {
    /// Creates an MMU over `num_pages` pages of `page_size` bytes, with no
    /// host tier (swaps fail with [`SwapError::NoHostTier`]).
    pub fn new(num_pages: u32, page_size: usize) -> Self {
        Self {
            allocator: PageAllocator::new(num_pages, page_size),
            streams: HashMap::new(),
            host: None,
            faults: None,
        }
    }

    /// The backing allocator (read-only view).
    pub fn allocator(&self) -> &PageAllocator {
        &self.allocator
    }

    /// Installs a deterministic fault schedule (see [`crate::fault`]).
    /// Replaces any previous schedule, resetting its attempt counters.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultInjector::new(plan));
    }

    /// Removes the fault schedule; subsequent polls always pass.
    pub fn clear_faults(&mut self) {
        self.faults = None;
    }

    /// Whether a fault schedule is installed.
    pub fn faults_active(&self) -> bool {
        self.faults.is_some()
    }

    /// Counters over the faults injected so far (zero when no schedule
    /// was ever installed).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats()).unwrap_or_default()
    }

    /// Polls the installed schedule for one attempt of `op` — `None`
    /// (always, when no schedule is installed) means proceed; `Some`
    /// means the caller must fail the operation without mutating state.
    /// Callers sit at pre-check boundaries, so a faulted operation is a
    /// no-op by construction.
    pub fn poll_fault(&mut self, op: FaultOp) -> Option<FaultKind> {
        self.faults.as_mut()?.poll(op)
    }

    /// Attaches (or resizes) a host tier of `host_pages` pages, enabling
    /// [`swap_out_request`](Self::swap_out_request) /
    /// [`swap_in_request`](Self::swap_in_request). Resizing an existing
    /// tier keeps its cumulative [`SwapStats`](crate::swap::SwapStats)
    /// counters.
    ///
    /// # Panics
    ///
    /// Panics if requests are currently frozen (the tier can only be
    /// resized while empty).
    pub fn attach_host_tier(&mut self, host_pages: u32) {
        let prev_stats = match &self.host {
            Some(host) => {
                assert_eq!(
                    host.used_pages(),
                    0,
                    "host tier can only be resized while empty"
                );
                host.stats()
            }
            None => Default::default(),
        };
        let mut tier = SwapPool::new(host_pages);
        tier.restore_stats(prev_stats);
        self.host = Some(tier);
    }

    /// The host tier, when attached (read-only: occupancy, residency,
    /// transfer stats).
    pub fn host_tier(&self) -> Option<&SwapPool> {
        self.host.as_ref()
    }

    /// Residency of `request`'s pages: [`Residency::Host`] (or
    /// [`Residency::InFlight`]) when frozen, [`Residency::Device`] when it
    /// has live streams, `None` when the MMU knows nothing about it.
    pub fn residency(&self, request: u32) -> Option<Residency> {
        if let Some(r) = self.host.as_ref().and_then(|h| h.residency(request)) {
            return Some(r);
        }
        self.streams
            .keys()
            .any(|k| k.request == request)
            .then_some(Residency::Device)
    }

    /// Freezes every stream of `request` to the host tier: the per-token
    /// payload sizes (the management tables) move to host, the device
    /// pages free, and the host tier charges the same page count. The
    /// request's streams become unknown to the device until
    /// [`swap_in_request`](Self::swap_in_request) thaws them.
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
        let mut keys: Vec<StreamKey> = self
            .streams
            .keys()
            .filter(|k| k.request == request)
            .copied()
            .collect();
        keys.sort_unstable();
        let mut pages = 0u32;
        for k in &keys {
            let s = &self.streams[k];
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
        let mut payload = TransferPayload {
            streams: Vec::with_capacity(keys.len()),
            ..TransferPayload::default()
        };
        for k in keys {
            let stream = self.streams.remove(&k).expect("key listed above");
            for p in stream.pages {
                self.allocator
                    .free(p)
                    .expect("refcount-1 pages hard-free cleanly");
            }
            payload.streams.push(StreamPayload {
                layer: k.layer,
                head: k.head,
                class: k.class,
                sizes: stream.table.iter().map(|e| e.size).collect(),
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
            checksum: payload.checksum,
        };
        let entry = FrozenRequest {
            payload,
            pages,
            state: Residency::Host,
        };
        self.host
            .as_mut()
            .expect("callers checked the tier")
            .freeze(request, entry);
        receipt
    }

    /// Thaws a frozen request back into device memory: fresh pages are
    /// allocated and each stream's management table is rebuilt by
    /// replaying its recorded per-token sizes in deterministic key order.
    /// Physical page *ids* may differ from before the freeze — the
    /// contract is `PageId` *semantics*: every table entry translates to a
    /// live exclusively-owned page, per-token sizes and tail headroom are
    /// identical, and the page count never exceeds the frozen count.
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
        if frozen_pages > self.allocator.free_pages() {
            return Err(SwapError::OutOfDevicePages {
                needed: frozen_pages,
                free: self.allocator.free_pages(),
            });
        }
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

    /// Replays one verified frozen entry onto fresh device pages.
    fn thaw(&mut self, request: u32) -> SwapReceipt {
        let FrozenRequest { payload, .. } = self
            .host
            .as_mut()
            .and_then(|host| host.thaw(request, true))
            .expect("the caller verified the entry");
        let mut allocated = 0u32;
        for s in payload.streams {
            let key = StreamKey {
                request,
                layer: s.layer,
                head: s.head,
                class: s.class,
            };
            debug_assert!(!self.streams.contains_key(&key), "thaw into live key");
            for size in s.sizes {
                let receipt = self
                    .write_token(key, size)
                    .expect("pre-checked: replay never exceeds the frozen page count");
                allocated += u32::from(receipt.new_page);
            }
        }
        SwapReceipt {
            pages: allocated,
            bytes: payload.bytes,
            checksum: payload.checksum,
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
        let entry = host
            .thaw(request, false)
            .ok_or(SwapError::NotFrozen { request })?;
        Ok(entry.pages)
    }

    /// The per-token size tables of `request`'s *live* streams, in
    /// deterministic key order — the raw material a pool-level exporter
    /// flattens into a [`crate::swap::TransferPayload`]. Empty for unknown requests.
    pub fn request_stream_sizes(&self, request: u32) -> Vec<(StreamKey, Vec<u32>)> {
        let mut out: Vec<(StreamKey, Vec<u32>)> = self
            .streams
            .iter()
            .filter(|(k, _)| k.request == request)
            .map(|(k, s)| (*k, s.table.iter().map(|e| e.size).collect()))
            .collect();
        out.sort_unstable_by_key(|(k, _)| *k);
        out
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
        if host.is_frozen(request) || self.streams.keys().any(|k| k.request == request) {
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

    /// Appends one token's payload to a stream, allocating pages on demand.
    ///
    /// A payload never spans pages in this model (it is split by the caller
    /// per head, and head payloads are far smaller than a page); if the
    /// current page cannot hold it, a new page is opened.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::OutOfPages`] when device memory is exhausted —
    /// the OOM signal the serving layer uses for admission control.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the page size.
    pub fn write_token(&mut self, key: StreamKey, bytes: u32) -> Result<WriteReceipt, AllocError> {
        let page_size = self.allocator.page_size();
        debug_assert!(
            !self.host.as_ref().is_some_and(|h| h.is_frozen(key.request)),
            "write to request {} while it is frozen to host",
            key.request
        );
        let stream = self.streams.entry(key).or_default();
        // A forked tail is shared: the fork's first write opens a page.
        let mut tail = if stream.cow_tail {
            PageTail::default()
        } else {
            stream.tail
        };
        let (offset, new_page) = tail.place(bytes, page_size);
        if new_page {
            stream.pages.push(self.allocator.alloc()?);
            stream.cow_tail = false;
        }
        stream.tail = tail;
        let page = *stream.pages.last().expect("page just ensured");
        let addr = self.allocator.base_addr(page).offset(offset as u64);
        stream.table.push(TableEntry { addr, size: bytes });
        Ok(WriteReceipt {
            addr,
            bytes,
            new_page,
        })
    }

    /// The management table of a stream, if it exists.
    pub fn table(&self, key: &StreamKey) -> Option<&StreamTable> {
        self.streams.get(key).map(|s| &s.table)
    }

    /// Translates `(stream, token)` to the physical transfer that fetches
    /// that token's payload — the per-token address lookup the serving
    /// layer's attention reads go through. `None` for unknown streams or
    /// tokens beyond the stream's history.
    pub fn translate(&self, key: &StreamKey, token: usize) -> Option<TableEntry> {
        self.streams
            .get(key)
            .and_then(|s| s.table.get(token))
            .copied()
    }

    /// Free bytes remaining in a stream's tail page: the headroom the next
    /// `write_token` can use before a fresh page must be allocated. `0` for
    /// unknown streams (the first write always opens a page).
    pub fn tail_free(&self, key: &StreamKey) -> usize {
        match self.streams.get(key) {
            Some(s) if !s.pages.is_empty() => self.allocator.page_size() - s.tail.used,
            _ => 0,
        }
    }

    /// Pages currently owned by `request` across all of its streams.
    pub fn request_pages(&self, request: u32) -> u32 {
        self.streams
            .iter()
            .filter(|(k, _)| k.request == request)
            .map(|(_, s)| s.pages.len() as u32)
            .sum()
    }

    /// Bytes actually stored for `request` (sum of its table entries).
    pub fn request_bytes(&self, request: u32) -> u64 {
        self.streams
            .iter()
            .filter(|(k, _)| k.request == request)
            .map(|(_, s)| s.table.total_bytes())
            .sum()
    }

    /// Plans the full-history burst read of a stream (the generation-phase
    /// attention fetch). Returns an empty plan for unknown streams.
    pub fn read_plan(&self, key: &StreamKey, granularity: u64) -> BurstPlan {
        match self.streams.get(key) {
            Some(s) => plan_bursts(s.table.iter(), granularity),
            None => plan_bursts([].iter(), granularity),
        }
    }

    /// Frees every page belonging to `request` (request retirement). The
    /// request's stream tables are removed unconditionally; each page drops
    /// one reference and physically frees only when no other owner (a fork
    /// or a retained sharer) still holds it. Returns the pages actually
    /// freed.
    ///
    /// # Errors
    ///
    /// Propagates over-release errors, which indicate internal corruption.
    pub fn free_request(&mut self, request: u32) -> Result<u32, AllocError> {
        let keys: Vec<StreamKey> = self
            .streams
            .keys()
            .filter(|k| k.request == request)
            .copied()
            .collect();
        let mut freed = 0u32;
        for k in keys {
            let stream = self.streams.remove(&k).expect("key listed above");
            for p in stream.pages {
                freed += u32::from(self.allocator.release(p)?);
            }
        }
        Ok(freed)
    }

    /// Adds one reference to every page owned by `request`'s streams — a
    /// new sharer adopting the request's payload (a prefix-cache hit).
    /// Returns the number of pages retained (0 for an unknown request).
    pub fn retain_request(&mut self, request: u32) -> u32 {
        let mut retained = 0u32;
        for (k, s) in &self.streams {
            if k.request != request {
                continue;
            }
            for &p in &s.pages {
                self.allocator
                    .retain(p)
                    .expect("stream-owned pages are allocated");
                retained += 1;
            }
        }
        retained
    }

    /// Drops one reference from every page owned by `request`'s streams (a
    /// sharer departing). When the last reference goes, the pages free and
    /// the stream tables are removed; while other sharers remain, the
    /// tables stay readable. Returns the pages actually freed.
    ///
    /// Contract: the request must be **whole-request shared** — every page
    /// at the same refcount, which [`retain_request`](Self::retain_request)
    /// preserves and appends break. A request that was written to after a
    /// [`fork_stream`](Self::fork_stream) mixes shared and private pages
    /// and must be retired with [`free_request`](Self::free_request)
    /// instead; releasing it would free its private tail while its tables
    /// stay live, so that misuse is rejected loudly.
    ///
    /// # Panics
    ///
    /// Panics if the request's pages do not share one refcount.
    pub fn release_request(&mut self, request: u32) -> u32 {
        let keys: Vec<StreamKey> = self
            .streams
            .keys()
            .filter(|k| k.request == request)
            .copied()
            .collect();
        let pages: Vec<PageId> = keys
            .iter()
            .flat_map(|k| self.streams[k].pages.iter().copied())
            .collect();
        // Reject mixed-refcount requests before touching any state: a
        // partial release would free a private tail page while the
        // request's tables stay live.
        let uniform = pages
            .windows(2)
            .all(|w| self.allocator.refcount(w[0]) == self.allocator.refcount(w[1]));
        assert!(
            uniform,
            "release_request on mixed-refcount request {request}: \
             forked-then-written requests must use free_request"
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
        // drop the tables) or none did (tables stay for the remaining
        // sharers).
        if fully_freed {
            for k in keys {
                self.streams.remove(&k);
            }
        }
        freed
    }

    /// Copy-on-write fork: `dst` becomes a new stream sharing every page
    /// (and table entry) `src` has written so far. The shared pages gain
    /// one reference each; `dst`'s tail is marked copy-on-write, so its
    /// next [`write_token`](Self::write_token) opens a fresh private page
    /// while `src` keeps appending into its own tail. Returns the number
    /// of pages now shared, or `None` when `src` is unknown or `dst`
    /// already exists.
    pub fn fork_stream(&mut self, src: &StreamKey, dst: StreamKey) -> Option<u32> {
        if self.streams.contains_key(&dst) {
            return None;
        }
        let (table, pages, tail) = {
            let s = self.streams.get(src)?;
            (s.table.clone(), s.pages.clone(), s.tail)
        };
        for &p in &pages {
            self.allocator
                .retain(p)
                .expect("stream-owned pages are allocated");
        }
        let shared = pages.len() as u32;
        self.streams.insert(
            dst,
            Stream {
                table,
                pages,
                tail,
                cow_tail: true,
            },
        );
        Some(shared)
    }

    /// Physical pages currently referenced by more than one owner.
    pub fn shared_pages(&self) -> u32 {
        self.allocator.shared_pages()
    }

    /// Physical pages with exactly one owner.
    pub fn private_pages(&self) -> u32 {
        self.allocator.private_pages()
    }

    /// Internal fragmentation: allocated-but-unused bytes over allocated
    /// bytes (0.0 when nothing is allocated).
    pub fn internal_fragmentation(&self) -> f64 {
        let page_size = self.allocator.page_size() as u64;
        let mut allocated = 0u64;
        let mut used = 0u64;
        for s in self.streams.values() {
            allocated += s.pages.len() as u64 * page_size;
            used += s.table.total_bytes();
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

    #[test]
    fn sequential_writes_are_contiguous() {
        let mut mmu = MmuSim::new(16, 4096);
        let k = key(1, 0, StreamClass::Dense);
        for _ in 0..10 {
            mmu.write_token(k, 64).unwrap();
        }
        let plan = mmu.read_plan(&k, 64);
        assert_eq!(plan.bursts.len(), 1, "one page, one burst: {plan:?}");
        assert_eq!(plan.total_bytes, 640);
        assert_eq!(plan.efficiency(64), 1.0);
    }

    #[test]
    fn streams_get_distinct_pages() {
        let mut mmu = MmuSim::new(16, 4096);
        let ka = key(1, 0, StreamClass::Dense);
        let kb = key(1, 1, StreamClass::Dense);
        let ra = mmu.write_token(ka, 64).unwrap();
        let rb = mmu.write_token(kb, 64).unwrap();
        assert_ne!(ra.addr, rb.addr, "heads go to distinct pages");
        assert!(ra.new_page && rb.new_page);
    }

    #[test]
    fn variable_sparse_sizes_tracked_in_table() {
        let mut mmu = MmuSim::new(16, 4096);
        let k = key(2, 0, StreamClass::Sparse);
        for size in [7u32, 13, 2, 29] {
            mmu.write_token(k, size).unwrap();
        }
        let table = mmu.table(&k).unwrap();
        let sizes: Vec<u32> = table.iter().map(|e| e.size).collect();
        assert_eq!(sizes, vec![7, 13, 2, 29]);
        assert_eq!(table.total_bytes(), 51);
    }

    #[test]
    fn page_overflow_opens_new_page() {
        let mut mmu = MmuSim::new(16, 128);
        let k = key(1, 0, StreamClass::Dense);
        let r1 = mmu.write_token(k, 100).unwrap();
        let r2 = mmu.write_token(k, 100).unwrap();
        assert!(r1.new_page);
        assert!(r2.new_page, "second write cannot fit in first page");
        // The read plan now has two bursts (pages 0 and 1 are adjacent in
        // this allocator, but the 28-byte gap at the end of page 0 splits
        // the stream).
        let plan = mmu.read_plan(&k, 64);
        assert_eq!(plan.bursts.len(), 2);
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
        let freed = mmu.free_request(7).unwrap();
        assert_eq!(freed, 4);
        assert_eq!(mmu.allocator().free_pages(), 4);
        assert!(mmu.table(&key(7, 0, StreamClass::Dense)).is_none());
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
        let _ = mmu.write_token(key(1, 0, StreamClass::Dense), 65);
    }

    #[test]
    fn translate_returns_per_token_transfers() {
        let mut mmu = MmuSim::new(16, 128);
        let k = key(3, 0, StreamClass::Sparse);
        let receipts: Vec<WriteReceipt> = [9u32, 17, 5]
            .iter()
            .map(|&b| mmu.write_token(k, b).unwrap())
            .collect();
        for (t, r) in receipts.iter().enumerate() {
            let e = mmu.translate(&k, t).expect("token written");
            assert_eq!(e.addr, r.addr);
            assert_eq!(e.size, r.bytes);
        }
        assert!(mmu.translate(&k, 3).is_none());
        assert!(mmu.translate(&key(4, 0, StreamClass::Dense), 0).is_none());
    }

    #[test]
    fn tail_free_tracks_page_headroom() {
        let mut mmu = MmuSim::new(16, 100);
        let k = key(1, 0, StreamClass::Dense);
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
        assert_eq!(mmu.shared_pages(), 0);
        // Two additional sharers adopt the request's payload.
        assert_eq!(mmu.retain_request(10), 4);
        assert_eq!(mmu.retain_request(10), 4);
        assert_eq!(mmu.shared_pages(), 4);
        // Departing sharers free nothing while others remain; the tables
        // stay readable.
        assert_eq!(mmu.release_request(10), 0);
        assert!(mmu.table(&k).is_some());
        assert_eq!(mmu.release_request(10), 0);
        assert_eq!(mmu.shared_pages(), 0);
        // The last owner frees everything and drops the tables.
        assert_eq!(mmu.release_request(10), 4);
        assert!(mmu.table(&k).is_none());
        assert_eq!(mmu.allocator().free_pages(), 8);
    }

    #[test]
    fn free_request_releases_shared_pages_without_freeing_them() {
        let mut mmu = MmuSim::new(8, 128);
        let k = key(3, 0, StreamClass::Dense);
        mmu.write_token(k, 64).unwrap();
        mmu.retain_request(3);
        // Hard retirement removes the tables but the page survives for the
        // remaining owner.
        assert_eq!(mmu.free_request(3).unwrap(), 0);
        assert!(mmu.table(&k).is_none());
        assert_eq!(mmu.allocator().free_pages(), 7);
    }

    #[test]
    fn fork_stream_shares_history_and_diverges_on_write() {
        let mut mmu = MmuSim::new(8, 128);
        let src = key(1, 0, StreamClass::Dense);
        for _ in 0..3 {
            mmu.write_token(src, 60).unwrap(); // 2 pages, tail half full
        }
        let dst = key(2, 0, StreamClass::Dense);
        assert_eq!(mmu.fork_stream(&src, dst).unwrap(), 2);
        assert_eq!(mmu.shared_pages(), 2);
        // The fork reads the same history...
        for t in 0..3 {
            assert_eq!(mmu.translate(&src, t), mmu.translate(&dst, t));
        }
        // ...but the next write is copy-on-write: dst opens a private page
        // even though the shared tail has room, while src keeps appending
        // in place.
        let before = mmu.allocator().allocated_pages();
        let rd = mmu.write_token(dst, 10).unwrap();
        assert!(rd.new_page, "forked tail must not be written in place");
        assert_eq!(mmu.allocator().allocated_pages(), before + 1);
        let rs = mmu.write_token(src, 10).unwrap();
        assert!(!rs.new_page, "src still owns its tail");
        assert_ne!(rs.addr, rd.addr);
        // Freeing src releases its references; dst keeps the shared pages.
        mmu.free_request(1).unwrap();
        assert_eq!(mmu.shared_pages(), 0);
        assert!(mmu.translate(&dst, 0).is_some());
    }

    #[test]
    #[should_panic(expected = "mixed-refcount")]
    fn release_request_rejects_forked_then_written_requests() {
        let mut mmu = MmuSim::new(8, 128);
        let src = key(1, 0, StreamClass::Dense);
        mmu.write_token(src, 60).unwrap();
        let dst = key(2, 0, StreamClass::Dense);
        mmu.fork_stream(&src, dst).unwrap();
        // dst now mixes a shared history page (rc 2) with a private tail
        // page (rc 1): releasing it whole-request would corrupt; it must
        // be retired with free_request instead.
        mmu.write_token(dst, 10).unwrap();
        mmu.release_request(2);
    }

    #[test]
    fn fork_stream_rejects_unknown_src_and_existing_dst() {
        let mut mmu = MmuSim::new(4, 128);
        let a = key(1, 0, StreamClass::Dense);
        let b = key(2, 0, StreamClass::Dense);
        assert!(mmu.fork_stream(&a, b).is_none(), "unknown src");
        mmu.write_token(a, 10).unwrap();
        mmu.write_token(b, 10).unwrap();
        assert!(mmu.fork_stream(&a, b).is_none(), "dst exists");
    }

    #[test]
    fn swap_roundtrip_preserves_table_semantics() {
        let mut mmu = MmuSim::new(8, 128);
        mmu.attach_host_tier(8);
        let kd = key(5, 0, StreamClass::Dense);
        let ks = key(5, 1, StreamClass::Sparse);
        for size in [100u32, 60, 60] {
            mmu.write_token(kd, size).unwrap(); // 2 pages, tail 8 free
        }
        mmu.write_token(ks, 17).unwrap();
        let before_pages = mmu.request_pages(5);
        let before_bytes = mmu.request_bytes(5);
        let tail_before = mmu.tail_free(&kd);
        assert_eq!(mmu.residency(5), Some(crate::swap::Residency::Device));

        let out = mmu.swap_out_request(5).unwrap();
        assert_eq!(out.pages, before_pages);
        assert_eq!(out.bytes, before_bytes);
        assert_eq!(mmu.residency(5), Some(crate::swap::Residency::Host));
        assert_eq!(mmu.request_pages(5), 0, "device side forgot the streams");
        assert_eq!(mmu.allocator().free_pages(), 8);
        let host = mmu.host_tier().expect("attached");
        assert_eq!(host.used_pages(), before_pages);
        assert_eq!(host.frozen_bytes(5), before_bytes);

        // Another request takes device pages meanwhile.
        mmu.write_token(key(6, 0, StreamClass::Dense), 50).unwrap();

        let back = mmu.swap_in_request(5).unwrap();
        assert_eq!(back.pages, before_pages, "no-CoW streams replay exactly");
        assert_eq!(back.bytes, before_bytes);
        assert_eq!(mmu.residency(5), Some(crate::swap::Residency::Device));
        assert_eq!(mmu.request_pages(5), before_pages);
        assert_eq!(mmu.request_bytes(5), before_bytes);
        assert_eq!(mmu.tail_free(&kd), tail_before);
        let sizes: Vec<u32> = mmu.table(&kd).unwrap().iter().map(|e| e.size).collect();
        assert_eq!(sizes, vec![100, 60, 60]);
        assert_eq!(mmu.table(&ks).unwrap().len(), 1);
        assert_eq!(mmu.host_tier().unwrap().used_pages(), 0);

        let stats = mmu.host_tier().unwrap().stats();
        assert_eq!(stats.swap_outs, 1);
        assert_eq!(stats.swap_ins, 1);
        assert_eq!(stats.bytes_to_host, before_bytes);
        assert_eq!(stats.bytes_to_device, before_bytes);

        // The thawed stream keeps appending normally.
        mmu.write_token(kd, 8).unwrap();
        assert_eq!(mmu.table(&kd).unwrap().len(), 4);
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
        assert_eq!(mmu.residency(1), Some(crate::swap::Residency::Host));
        mmu.free_request(2).unwrap();
        assert_eq!(mmu.swap_in_request(1).unwrap().pages, 1);
    }

    #[test]
    fn host_tier_resize_keeps_cumulative_stats() {
        let mut mmu = MmuSim::new(4, 128);
        mmu.attach_host_tier(4);
        mmu.write_token(key(1, 0, StreamClass::Dense), 40).unwrap();
        mmu.swap_out_request(1).unwrap();
        mmu.swap_in_request(1).unwrap();
        let before = mmu.host_tier().unwrap().stats();
        assert_eq!(before.swap_outs, 1);
        mmu.attach_host_tier(16);
        assert_eq!(mmu.host_tier().unwrap().capacity(), 16);
        assert_eq!(
            mmu.host_tier().unwrap().stats(),
            before,
            "resize must not zero cumulative counters"
        );
    }

    #[test]
    fn empty_requests_freeze_and_discard_cleanly() {
        let mut mmu = MmuSim::new(4, 128);
        mmu.attach_host_tier(2);
        // A request with no streams freezes as a 0-page entry.
        let r = mmu.swap_out_request(7).unwrap();
        assert_eq!(
            r,
            SwapReceipt {
                pages: 0,
                bytes: 0,
                checksum: 0
            }
        );
        assert_eq!(mmu.residency(7), Some(crate::swap::Residency::Host));
        assert_eq!(mmu.swap_in_request(7).unwrap().pages, 0);
        assert_eq!(mmu.residency(7), None);
        // Discard releases host pages without a swap-in.
        mmu.write_token(key(3, 0, StreamClass::Dense), 40).unwrap();
        mmu.swap_out_request(3).unwrap();
        assert_eq!(mmu.discard_frozen(3).unwrap(), 1);
        assert_eq!(mmu.host_tier().unwrap().used_pages(), 0);
        // Only request 7's thaw counted as a swap-in; the discard did not.
        assert_eq!(mmu.host_tier().unwrap().stats().swap_ins, 1);
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
        let sizes = src.request_stream_sizes(5);
        assert_eq!(sizes.len(), 2);
        assert_eq!(sizes[0].0, kd, "dense sorts before sparse");
        let mut payload = TransferPayload {
            streams: sizes
                .iter()
                .map(|(k, sz)| StreamPayload {
                    layer: k.layer,
                    head: k.head,
                    class: k.class,
                    sizes: sz.clone(),
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
        assert_eq!(receipt.checksum, payload.checksum);
        assert_eq!(dst.residency(9), Some(crate::swap::Residency::Host));
        assert_eq!(dst.host_tier().unwrap().used_pages(), receipt.pages);

        let thawed = dst.swap_in_request(9).unwrap();
        assert_eq!(thawed.bytes, payload.bytes);
        let got: Vec<u32> = dst
            .table(&key(9, 0, StreamClass::Dense))
            .unwrap()
            .iter()
            .map(|e| e.size)
            .collect();
        assert_eq!(got, vec![100, 60, 60]);
        let got: Vec<u32> = dst
            .table(&key(9, 0, StreamClass::Sparse))
            .unwrap()
            .iter()
            .map(|e| e.size)
            .collect();
        assert_eq!(got, vec![7, 0, 29]);
        // Same packing rule ⇒ same tail headroom as the source stream.
        assert_eq!(
            dst.tail_free(&key(9, 0, StreamClass::Dense)),
            src.tail_free(&kd)
        );
        // The swap-out receipt's checksum is the same fold the transfer
        // carries.
        let out = src.swap_out_request(5);
        src.attach_host_tier(8);
        assert!(out.is_err(), "no host tier on src yet");
        let out = src.swap_out_request(5).unwrap();
        assert_eq!(out.checksum, size_checksum([100u32, 60, 60, 7, 0, 29]));
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
                host.stats(),
                mmu.residency(3),
                mmu.residency(4),
                mmu.request_stream_sizes(3).len() + mmu.request_stream_sizes(4).len(),
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
        // stream rebuilt, no transfer counted.
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
        assert_eq!(mmu.residency(3), Some(Residency::Device));
        assert_eq!(mmu.request_bytes(3), out.bytes);
    }

    #[test]
    fn corrupted_transfer_fails_typed_on_import() {
        use crate::swap::{StreamPayload, TransferPayload};
        let mut payload = TransferPayload {
            streams: vec![StreamPayload {
                layer: 0,
                head: 0,
                class: StreamClass::Dense,
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
        dst.free_request(1).unwrap();
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
