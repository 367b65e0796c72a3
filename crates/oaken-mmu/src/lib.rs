//! Functional model of Oaken's memory management unit (paper §5.2,
//! Figure 10).
//!
//! The MMU manages the quantized KV cache in device memory at *page*
//! granularity. Each stream keeps the pages it owns, in write order, and
//! the payload size of every token it holds — Figure 10's two management
//! tables, one per stream class:
//!
//! * a **dense** stream holds fixed-size rows (the packed 4-bit dense
//!   matrix has a predictable per-token size);
//! * a **sparse** stream holds variable-size entries (the COO outlier
//!   stream length changes token to token), which is why sizes are
//!   recorded per token.
//!
//! Rows are appended *sequentially* to their stream's pages, the paper's
//! burst-order write rule. A dense stream is a fixed-stride slab whose rows
//! may straddle page edges (so it packs its pages full); a sparse stream
//! is a log whose entries never span pages.
//!
//! The model is a page and residency ledger, not an address space: the KV
//! bytes live in the serving pool's quantizer streams, which read through
//! their own plans. What the MMU keeps is what capacity and swap are
//! accounted on, each once — pages per stream, per-token sizes (the
//! packing rule and the swap replay), one refcount per page, and the host
//! tier's frozen entries. Everything else is derived from those (free,
//! allocated and per-request pages, fragmentation) or kept by the layer
//! that acts on it: a tier move returns a [`SwapReceipt`], which the
//! serving engine sums into its swap statistics, and the fault injector
//! keeps one count of the faults it injected.
//!
//! Pages are **refcounted** ([`PageAllocator::retain`]/[`release`]), which
//! is what makes cross-sequence prefix sharing real at the physical level:
//! a prefix-cache hit retains a whole request's pages
//! ([`MmuSim::retain_request`]), and [`MmuSim::release_request`] drops one
//! reference from each — the one way a request's pages go, freeing them
//! only when it held the last. Those references are the paged KV pool's
//! one count of a shared block's sharers, and the pool reads every page
//! figure off this ledger through owners: free + private (each live
//! sequence's private owners) + shared (the sealed blocks) = capacity
//! holds only while no owner leaks, and the serving property tests
//! re-check it after every engine step.
//!
//! The device tier is optionally backed by a **host swap tier**
//! ([`swap::SwapPool`], attached via [`MmuSim::attach_host_tier`]): a
//! request's streams can be frozen to host
//! ([`MmuSim::swap_out_request`]) — device pages free, host pages charge,
//! the receipt states the pages and bytes moved — and later rehydrated
//! ([`MmuSim::swap_in_request`]) onto fresh pages with identical
//! per-token sizes and tail headroom. This is what turns the serving
//! engine's preemption from evict-and-recompute into suspend-and-resume;
//! quantization makes the moved bytes 3-4× cheaper than FP16 pages.
//!
//! Under the parallel runtime the MMU is deliberately a **single writer**:
//! the weight sweeps and attention fan out across worker threads, but every
//! row is quantized and every [`MmuSim::write_token`] happens on the
//! calling thread in append order, so physical page assignment is
//! bit-reproducible for any thread count.
//!
//! [`release`]: PageAllocator::release

pub mod alloc;
pub mod fault;
pub mod stream;
pub mod swap;

pub use alloc::{AllocError, PageAllocator, PageId};
pub use fault::{FaultInjector, FaultKind, FaultOp, FaultPlan};
pub use stream::{MmuSim, StreamClass, StreamKey};
pub use swap::{size_checksum, StreamPayload, SwapError, SwapPool, SwapReceipt, TransferPayload};
