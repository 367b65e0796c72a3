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
//! tracks page occupancy and transfer bytes (the quantities the serving
//! stats and the preemption benchmark report), while the payload itself is
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
    /// Position-weighted checksum over the moved per-token sizes
    /// ([`size_checksum`]): the integrity tag the transfer path re-derives
    /// and asserts on thaw, so a truncated or reordered size table fails
    /// loudly instead of rebuilding a garbage page layout.
    pub checksum: u64,
}

impl SwapReceipt {
    /// Component-wise sum (a whole sequence swaps several MMU requests:
    /// its tail plus its pending prompt blocks).
    pub fn merge(&mut self, other: SwapReceipt) {
        self.pages += other.pages;
        self.bytes += other.bytes;
        self.checksum = self.checksum.wrapping_add(other.checksum);
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

/// Cumulative transfer counters of one host tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwapStats {
    /// Completed swap-outs (requests frozen).
    pub swap_outs: u64,
    /// Completed swap-ins (requests thawed).
    pub swap_ins: u64,
    /// Pages moved device → host.
    pub pages_to_host: u64,
    /// Pages moved host → device.
    pub pages_to_device: u64,
    /// Payload bytes moved device → host.
    pub bytes_to_host: u64,
    /// Payload bytes moved host → device.
    pub bytes_to_device: u64,
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
/// occupancy and transfer accounting.
#[derive(Debug)]
pub struct SwapPool {
    capacity: u32,
    used: u32,
    pub(crate) frozen: HashMap<u32, FrozenRequest>,
    stats: SwapStats,
}

impl SwapPool {
    /// Creates a host tier of `capacity` pages (page size is inherited
    /// from the device allocator it is attached to).
    pub fn new(capacity: u32) -> Self {
        Self {
            capacity,
            used: 0,
            frozen: HashMap::new(),
            stats: SwapStats::default(),
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

    /// Requests currently frozen.
    pub fn frozen_requests(&self) -> usize {
        self.frozen.len()
    }

    /// Whether `request` is frozen.
    pub fn is_frozen(&self, request: u32) -> bool {
        self.frozen.contains_key(&request)
    }

    /// Host pages a frozen request occupies (0 for unknown requests).
    pub fn frozen_pages(&self, request: u32) -> u32 {
        self.frozen.get(&request).map_or(0, |f| f.pages)
    }

    /// Payload bytes a frozen request holds (0 for unknown requests).
    pub fn frozen_bytes(&self, request: u32) -> u64 {
        self.frozen.get(&request).map_or(0, |f| f.payload.bytes)
    }

    /// Cumulative transfer counters.
    pub fn stats(&self) -> SwapStats {
        self.stats
    }

    /// Carries cumulative counters over from a replaced tier (a resize
    /// must not silently zero "cumulative" statistics).
    pub(crate) fn restore_stats(&mut self, stats: SwapStats) {
        self.stats = stats;
    }

    /// Admits a frozen request into the host tier (swap-out completion).
    pub(crate) fn freeze(&mut self, request: u32, entry: FrozenRequest) {
        self.used += entry.pages;
        self.stats.swap_outs += 1;
        self.stats.pages_to_host += u64::from(entry.pages);
        self.stats.bytes_to_host += entry.payload.bytes;
        let prev = self.frozen.insert(request, entry);
        debug_assert!(prev.is_none(), "freeze checked AlreadyFrozen");
    }

    /// Removes a frozen request (swap-in completion or discard). `moved`
    /// says whether the removal transfers bytes back to the device (a
    /// thaw) or drops them (a retired suspended request).
    pub(crate) fn thaw(&mut self, request: u32, moved: bool) -> Option<FrozenRequest> {
        let entry = self.frozen.remove(&request)?;
        self.used -= entry.pages;
        if moved {
            self.stats.swap_ins += 1;
            self.stats.pages_to_device += u64::from(entry.pages);
            self.stats.bytes_to_device += entry.payload.bytes;
        }
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
        assert_eq!(pool.used_pages(), 3);
        assert_eq!(pool.frozen_pages(1), 3);
        assert_eq!(pool.frozen_bytes(1), 100);
        assert!(pool.is_frozen(1));
        assert_eq!(pool.frozen_requests(), 1);

        let thawed = pool.thaw(1, true).expect("frozen");
        assert_eq!(thawed.pages, 3);
        assert_eq!(pool.used_pages(), 0);
        assert!(pool.thaw(1, true).is_none(), "double thaw");

        let s = pool.stats();
        assert_eq!(s.swap_outs, 1);
        assert_eq!(s.swap_ins, 1);
        assert_eq!(s.pages_to_host, 3);
        assert_eq!(s.pages_to_device, 3);
        assert_eq!(s.bytes_to_host, 100);
        assert_eq!(s.bytes_to_device, 100);
    }

    #[test]
    fn discard_drops_bytes_without_counting_a_swap_in() {
        let mut pool = SwapPool::new(4);
        pool.freeze(2, entry(2, 50));
        pool.thaw(2, false).expect("frozen");
        let s = pool.stats();
        assert_eq!(s.swap_outs, 1);
        assert_eq!(s.swap_ins, 0);
        assert_eq!(s.bytes_to_device, 0);
        assert_eq!(pool.used_pages(), 0);
    }

    #[test]
    fn receipts_merge_componentwise() {
        let mut r = SwapReceipt {
            pages: 1,
            bytes: 10,
            checksum: 7,
        };
        r.merge(SwapReceipt {
            pages: 2,
            bytes: 5,
            checksum: 3,
        });
        assert_eq!(
            r,
            SwapReceipt {
                pages: 3,
                bytes: 15,
                checksum: 10,
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
