//! Functional model of Oaken's memory management unit (paper §5.2,
//! Figure 10).
//!
//! The MMU manages the quantized KV cache in device memory at *page*
//! granularity, with two management tables per stream:
//!
//! * the **dense table** holds fixed-size transfer entries (the packed
//!   4-bit dense matrix has a predictable per-token size);
//! * the **sparse table** holds variable-size entries (the COO outlier
//!   stream length changes token to token), which is why transfer sizes are
//!   recorded per token.
//!
//! Both map a single virtual address space onto physical pages, and the
//! write layout implements the paper's burst-order rule: rows are appended
//! *sequentially* to their stream's pages, so reading a stream's whole
//! history during generation is a stream of long contiguous bursts. A
//! dense stream is a fixed-stride slab whose rows may straddle page edges
//! (so it packs its pages full); a sparse stream is a log whose entries
//! never span pages.
//!
//! The model is functional rather than cycle-accurate: it tracks page
//! allocation, address translation, per-token transfer sizes, burst
//! coalescing, and fragmentation — the quantities the performance simulator
//! and the Figure 11/13 capacity arguments consume.
//!
//! Pages are **refcounted** ([`PageAllocator::retain`]/[`release`]), which
//! is what makes cross-sequence prefix sharing real at the physical level:
//! a prefix-cache hit retains a whole request's pages
//! ([`MmuSim::retain_request`]), and a departing sharer
//! ([`MmuSim::release_request`]) frees pages only when it was the last
//! owner. The serving property tests
//! re-check the resulting ownership balance (free + private + shared =
//! capacity) after every engine step.
//!
//! The device tier is optionally backed by a **host swap tier**
//! ([`swap::SwapPool`], attached via [`MmuSim::attach_host_tier`]): a
//! request's page table can be frozen to host
//! ([`MmuSim::swap_out_request`]) — device pages free, host pages charge,
//! transfer bytes are accounted — and later rehydrated
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
pub mod burst;
pub mod fault;
pub mod stream;
pub mod swap;
pub mod table;

pub use alloc::{AllocError, PageAllocator, PageId};
pub use burst::{plan_bursts, BurstPlan};
pub use fault::{FaultInjector, FaultKind, FaultOp, FaultPlan, FaultStats};
pub use stream::{MmuSim, StreamClass, StreamKey, WriteReceipt};
pub use swap::{
    size_checksum, Residency, StreamPayload, SwapError, SwapPool, SwapReceipt, SwapStats,
    TransferPayload,
};
pub use table::{StreamTable, TableEntry};

/// Physical byte address in the device memory's single address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// Byte offset addition.
    pub fn offset(self, bytes: u64) -> PhysAddr {
        PhysAddr(self.0 + bytes)
    }
}

impl std::fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}
