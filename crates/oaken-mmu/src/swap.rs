//! The host tier of the two-level KV memory hierarchy: a swap pool that
//! device pages can be *frozen* into and *thawed* back from.
//!
//! Oaken's quantized KV pages are 3-4× smaller than their FP16
//! equivalents, which is exactly what makes swap-based preemption cheap
//! enough to beat evict-and-recompute: moving a sequence's cache to host
//! memory transfers a fraction of the bytes a restart would re-derive
//! through the whole model. The KV-management literature (the tensor-
//! buffer-to-memory-hierarchy and system-aware KV-optimization surveys)
//! identifies this device/host tiering as the production alternative to
//! vLLM's recompute preemption; the two techniques compose, and the
//! serving engine exposes both as [`PreemptPolicy`] choices.
//!
//! The model here is functional, like the rest of the MMU: the host tier
//! tracks page occupancy, and each move returns a [`SwapReceipt`] of the
//! pages and bytes it transferred (what the serving stats and the
//! preemption benchmark report), while the payload itself is
//! carried by the pool's quantizer streams, which are retained verbatim
//! across a suspend — so a thawed sequence is bit-identical by
//! construction, and the swap machinery only has to keep the *accounting*
//! exact.
//!
//! # Device or host
//!
//! A request's pages live in one of two places: on the **device** while
//! it has live streams, or on the **host** while the tier holds its frozen
//! entry. `swap_out_request` moves it device → host and `swap_in_request`
//! host → device; both are synchronous, so no request is ever between the
//! two.
//!
//! [`PreemptPolicy`]: ../../oaken_serving/engine/enum.PreemptPolicy.html

use crate::stream::{PageTail, StreamClass};
use std::collections::HashMap;
use std::fmt;

/// Swap failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapError {
    /// The MMU has no host tier attached (capacity 0 still counts as a
    /// tier; this means [`MmuSim::attach_host_tier`] was never called).
    ///
    /// [`MmuSim::attach_host_tier`]: crate::MmuSim::attach_host_tier
    NoHostTier,
    /// The host tier cannot hold the request's pages.
    OutOfHostPages {
        /// Pages the swap-out needs.
        needed: u32,
        /// Host pages currently free.
        free: u32,
    },
    /// Device memory cannot hold the thawed request.
    OutOfDevicePages {
        /// Pages the swap-in needs.
        needed: u32,
        /// Device pages currently free.
        free: u32,
    },
    /// The request is already frozen to host.
    AlreadyFrozen {
        /// The offending request.
        request: u32,
    },
    /// The request has no frozen entry to thaw.
    NotFrozen {
        /// The offending request.
        request: u32,
    },
    /// The request owns pages shared with another owner (refcount ≥ 2);
    /// only exclusively owned pages can move tiers.
    SharedPages {
        /// The offending request.
        request: u32,
    },
    /// A transfer payload's — or a frozen entry's — size tables disagree
    /// with the checksum they carry: bit-flipped, truncated or reordered
    /// on the wire, or tampered with while on host.
    ChecksumMismatch {
        /// The checksum the payload carries.
        carried: u64,
        /// The checksum its size tables fold to.
        derived: u64,
    },
    /// A transfer payload carries a token larger than the importer's
    /// page, so the importer could never write it.
    TokenExceedsPage {
        /// The offending token payload size.
        bytes: u32,
        /// The importer's page size.
        page_size: usize,
    },
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapError::NoHostTier => write!(f, "no host tier attached"),
            SwapError::OutOfHostPages { needed, free } => {
                write!(f, "host tier full: need {needed} pages, {free} free")
            }
            SwapError::OutOfDevicePages { needed, free } => {
                write!(
                    f,
                    "device full on swap-in: need {needed} pages, {free} free"
                )
            }
            SwapError::AlreadyFrozen { request } => {
                write!(f, "request {request} is already frozen to host")
            }
            SwapError::NotFrozen { request } => {
                write!(f, "request {request} has no frozen entry")
            }
            SwapError::SharedPages { request } => {
                write!(
                    f,
                    "request {request} owns shared pages; only private pages can swap"
                )
            }
            SwapError::ChecksumMismatch { carried, derived } => {
                write!(
                    f,
                    "transfer payload fails its checksum: carries {carried:#x}, \
                     size tables fold to {derived:#x}"
                )
            }
            SwapError::TokenExceedsPage { bytes, page_size } => {
                write!(
                    f,
                    "transfer payload carries a {bytes}-byte token, larger than \
                     the {page_size}-byte page"
                )
            }
        }
    }
}

impl std::error::Error for SwapError {}

/// Result of one tier move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwapReceipt {
    /// Pages moved.
    pub pages: u32,
    /// Payload bytes moved (the modeled transfer size — encoded dense +
    /// sparse bytes, not page-rounded).
    pub bytes: u64,
}

impl SwapReceipt {
    /// Component-wise sum (a whole sequence swaps several MMU requests:
    /// its tail plus its pending prompt blocks).
    pub fn merge(&mut self, other: SwapReceipt) {
        self.pages += other.pages;
        self.bytes += other.bytes;
    }
}

/// Order-sensitive checksum over a per-token size table: each size is
/// folded with its 1-based position (`Σ (i+1)·(sizeᵢ+1)`, wrapping), so a
/// truncated, reordered, or resized table disagrees even when the plain
/// byte sum happens to match. The `+1` on the size keeps zero-byte tokens
/// (empty sparse rows) from being invisible to the fold.
pub fn size_checksum<I: IntoIterator<Item = u32>>(sizes: I) -> u64 {
    let mut sum = 0u64;
    for (i, size) in sizes.into_iter().enumerate() {
        sum = sum.wrapping_add((i as u64 + 1).wrapping_mul(u64::from(size) + 1));
    }
    sum
}

/// A request frozen to host: its per-token size tables — a
/// [`TransferPayload`], streams in `(layer, head, class)` order, whose
/// checksum is asserted on thaw before any page is rebuilt — plus the
/// host pages it occupies. A locally frozen request and one imported from
/// another MMU are the same thing.
#[derive(Debug)]
pub(crate) struct FrozenRequest {
    pub(crate) payload: TransferPayload,
    pub(crate) pages: u32,
}

/// One stream inside a [`TransferPayload`]: the coordinates within the
/// request (the request id itself is deliberately absent — the importer
/// assigns its own) plus the full per-token size table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamPayload {
    /// Decoder layer (the exporter's `StreamKey::layer` encoding).
    pub layer: u16,
    /// Attention (KV) head.
    pub head: u16,
    /// Dense or sparse table.
    pub class: StreamClass,
    /// Per-token payload sizes, token order.
    pub sizes: Vec<u32>,
}

/// A self-describing KV transfer: one request's page tables flattened for
/// shipment to another MMU (the prefill→decode handoff of a disaggregated
/// cluster). "Self-describing" means the payload alone — no shared state
/// with the exporter — lets the importer rebuild bit-compatible management
/// tables: stream coordinates, per-token sizes, byte totals, and an
/// integrity checksum all travel together.
///
/// The *payload bytes themselves* are not here for the same reason the
/// host tier never stores them: in this functional model encoded bytes
/// live in the pool's quantizer streams, which the pool-level exporter
/// carries alongside this table. The MMU half is exactly the accounting
/// a real transfer engine would prepend as a header.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransferPayload {
    /// Streams in deterministic `(layer, head, class)` order.
    pub streams: Vec<StreamPayload>,
    /// Total payload bytes (Σ sizes) — the wire cost of the KV itself.
    pub bytes: u64,
    /// [`size_checksum`] over all size tables in listed order (one running
    /// position counter), re-derived and checked by the importer.
    pub checksum: u64,
}

impl TransferPayload {
    /// Seals the payload: recomputes `bytes` and `checksum` from the size
    /// tables currently in `streams`. Call after assembling the streams.
    pub fn seal(&mut self) {
        self.bytes = self
            .streams
            .iter()
            .flat_map(|s| s.sizes.iter())
            .map(|&s| u64::from(s))
            .sum();
        self.checksum = self.derived_checksum();
    }

    /// [`size_checksum`] over the size tables as they are now — equal to
    /// `checksum` unless the payload changed after it was sealed.
    pub(crate) fn derived_checksum(&self) -> u64 {
        size_checksum(self.streams.iter().flat_map(|s| s.sizes.iter().copied()))
    }

    /// Checks the size tables against the carried checksum — on a payload
    /// from the wire, and again on a frozen entry before a thaw rebuilds
    /// page tables from it.
    ///
    /// # Errors
    ///
    /// [`SwapError::ChecksumMismatch`].
    pub(crate) fn verify(&self) -> Result<(), SwapError> {
        let derived = self.derived_checksum();
        if derived != self.checksum {
            return Err(SwapError::ChecksumMismatch {
                carried: self.checksum,
                derived,
            });
        }
        Ok(())
    }

    /// Bytes this transfer occupies on the modeled wire: the KV payload
    /// plus the self-describing header (4 bytes per size-table entry and
    /// an 8-byte descriptor per stream).
    pub fn wire_bytes(&self) -> u64 {
        let header: u64 = self
            .streams
            .iter()
            .map(|s| 8 + 4 * s.sizes.len() as u64)
            .sum();
        self.bytes + header
    }

    /// Validates the payload against an importer with `page_size`-byte
    /// pages and returns the pages it occupies when packed with the MMU's
    /// write rule (`stream::PageTail`, the rule `write_token` itself
    /// applies) — the host charge an import needs, computed from the
    /// payload alone so capacity checks never consume it.
    ///
    /// # Errors
    ///
    /// A payload arrives from outside this MMU, so both checks are typed:
    /// [`SwapError::ChecksumMismatch`] when the size tables no longer fold
    /// to the carried checksum, [`SwapError::TokenExceedsPage`] when a
    /// carried sparse entry could never be written into a `page_size`-byte
    /// page (a dense row may straddle pages, so any size lands).
    pub fn pages_needed(&self, page_size: usize) -> Result<u32, SwapError> {
        self.verify()?;
        let mut pages = 0usize;
        for s in &self.streams {
            let (mut tail, mut spans) = (PageTail::default(), 0);
            for &bytes in &s.sizes {
                if s.class == StreamClass::Sparse && bytes as usize > page_size {
                    return Err(SwapError::TokenExceedsPage { bytes, page_size });
                }
                spans = tail.place(s.class, bytes, page_size);
            }
            pages += spans;
        }
        Ok(pages as u32)
    }
}

/// The host tier: page-granular capacity accounting over frozen requests.
///
/// The pool never stores payload bytes here — the functional model keeps
/// those in the quantizer streams — so the swap pool's job is exact
/// occupancy; what each move transferred is its [`SwapReceipt`].
#[derive(Debug)]
pub struct SwapPool {
    capacity: u32,
    used: u32,
    pub(crate) frozen: HashMap<u32, FrozenRequest>,
}

impl SwapPool {
    /// Creates a host tier of `capacity` pages (page size is inherited
    /// from the device allocator it is attached to).
    pub fn new(capacity: u32) -> Self {
        Self {
            capacity,
            used: 0,
            frozen: HashMap::new(),
        }
    }

    /// Total host pages.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Host pages currently occupied by frozen requests.
    pub fn used_pages(&self) -> u32 {
        self.used
    }

    /// Host pages currently free.
    pub fn free_pages(&self) -> u32 {
        self.capacity - self.used
    }

    /// Whether `request` is frozen.
    pub fn is_frozen(&self, request: u32) -> bool {
        self.frozen.contains_key(&request)
    }

    /// Host pages a frozen request occupies (0 for unknown requests).
    pub fn frozen_pages(&self, request: u32) -> u32 {
        self.frozen.get(&request).map_or(0, |f| f.pages)
    }

    /// Admits a frozen request into the host tier (swap-out completion).
    pub(crate) fn freeze(&mut self, request: u32, entry: FrozenRequest) {
        self.used += entry.pages;
        let prev = self.frozen.insert(request, entry);
        debug_assert!(prev.is_none(), "freeze checked AlreadyFrozen");
    }

    /// Removes a frozen request (swap-in completion or discard).
    pub(crate) fn thaw(&mut self, request: u32) -> Option<FrozenRequest> {
        let entry = self.frozen.remove(&request)?;
        self.used -= entry.pages;
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(pages: u32, bytes: u64) -> FrozenRequest {
        let mut payload = TransferPayload {
            streams: vec![StreamPayload {
                layer: 0,
                head: 0,
                class: StreamClass::Dense,
                sizes: vec![bytes as u32],
            }],
            bytes: 0,
            checksum: 0,
        };
        payload.seal();
        FrozenRequest { payload, pages }
    }

    #[test]
    fn occupancy_and_stats_track_freeze_thaw() {
        let mut pool = SwapPool::new(8);
        assert_eq!(pool.free_pages(), 8);
        pool.freeze(1, entry(3, 100));
        pool.freeze(2, entry(2, 50));
        assert_eq!(pool.used_pages(), 5);
        assert_eq!(pool.frozen_pages(1), 3);
        assert!(pool.is_frozen(1));

        let thawed = pool.thaw(1).expect("frozen");
        assert_eq!((thawed.pages, thawed.payload.bytes), (3, 100));
        assert_eq!(pool.used_pages(), 2);
        assert!(pool.thaw(1).is_none(), "double thaw");
        assert!(!pool.is_frozen(1));
        pool.thaw(2).expect("frozen");
        assert_eq!(pool.used_pages(), 0);
    }

    /// A discard frees the host pages and rebuilds nothing on the device:
    /// the bytes are dropped, not moved back.
    #[test]
    fn discard_drops_bytes_without_counting_a_swap_in() {
        let mut mmu = crate::MmuSim::new(4, 128);
        mmu.attach_host_tier(4);
        let key = crate::StreamKey {
            request: 2,
            layer: 0,
            head: 0,
            class: StreamClass::Dense,
        };
        mmu.write_token(key, 200).unwrap();
        assert_eq!(mmu.swap_out_request(2).unwrap().pages, 2);
        assert_eq!(mmu.discard_frozen(2), Ok(2));
        let host = mmu.host_tier().unwrap();
        assert_eq!((host.used_pages(), host.is_frozen(2)), (0, false));
        assert_eq!(mmu.allocator().free_pages(), 4);
        assert_eq!(mmu.stream(&key), None, "nothing thawed");
    }

    #[test]
    fn receipts_merge_componentwise() {
        let mut r = SwapReceipt {
            pages: 1,
            bytes: 10,
        };
        r.merge(SwapReceipt { pages: 2, bytes: 5 });
        assert_eq!(
            r,
            SwapReceipt {
                pages: 3,
                bytes: 15
            }
        );
    }

    #[test]
    fn size_checksum_detects_truncation_and_reordering() {
        let full = size_checksum([3u32, 5, 7]);
        assert_ne!(full, size_checksum([3u32, 5]), "truncation must move it");
        assert_ne!(full, size_checksum([7u32, 5, 3]), "reorder must move it");
        // Plain byte sums cannot see a reorder; the weighted fold can.
        assert_ne!(size_checksum([1u32, 2]), size_checksum([2u32, 1]));
        // Zero-size tokens still contribute (empty sparse rows are real).
        assert_ne!(size_checksum([0u32]), size_checksum([] as [u32; 0]));
    }

    #[test]
    fn transfer_payload_seals_and_prices_itself() {
        let mut p = TransferPayload {
            streams: vec![
                StreamPayload {
                    layer: 0,
                    head: 0,
                    class: StreamClass::Dense,
                    sizes: vec![16, 16],
                },
                StreamPayload {
                    layer: 0,
                    head: 0,
                    class: StreamClass::Sparse,
                    sizes: vec![3, 0],
                },
            ],
            bytes: 0,
            checksum: 0,
        };
        p.seal();
        assert_eq!(p.bytes, 35);
        assert_eq!(p.checksum, size_checksum([16u32, 16, 3, 0]));
        // Wire = payload + 2 stream descriptors + 4 size entries.
        assert_eq!(p.wire_bytes(), 35 + 2 * 8 + 4 * 4);
    }
}
