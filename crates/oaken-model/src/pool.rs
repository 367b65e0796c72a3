//! A shared, paged, quantized KV pool serving many concurrent sequences —
//! the software model of Oaken's MMU-managed device memory (§5.2) under a
//! continuous-batching engine.
//!
//! Where [`crate::QuantizedCache`] owns one sequence's KV history,
//! [`PagedKvPool`] multiplexes *all* active sequences over one
//! [`oaken_mmu::PageAllocator`]: every appended token row is quantized
//! incrementally through the per-`(sequence, layer, kind)`
//! [`KvRowStream`](oaken_core::KvRowStream)s, and its encoded payload is
//! laid into fixed-size physical pages — split per attention head into a
//! *dense* stream (packed codes + scales, fixed size per token) and a
//! *sparse* stream (variable COO outlier bytes), exactly the two
//! management tables of Figure 10. The pool therefore makes capacity,
//! fragmentation, and admission **real**: running out of pages is an
//! allocator-level OOM, not an analytic estimate.
//!
//! # Prefix sharing
//!
//! Because Oaken quantizes each row against *offline*-profiled thresholds,
//! a row's encoded bytes are a pure function of the row itself
//! ([`KvQuantizer::prefix_deterministic`]) — identical prompt prefixes
//! produce bit-identical page payloads, and the pool deduplicates them
//! through a [prefix trie](crate::trie) of immutable, refcounted,
//! `block_tokens`-sized blocks:
//!
//! * [`PagedKvPool::alloc_seq_with_prefix`] walks the trie with the new
//!   sequence's prompt, **adopts** every matched full block (refcount up,
//!   pages retained, dequantized views copied — no quantization, and the
//!   caller skips the model forward pass for those tokens too), and plans
//!   private *pending* blocks for the unmatched remainder — the
//!   copy-on-write tail of the prompt;
//! * [`PagedKvPool::append`] **seals** a pending block the moment its last
//!   row lands (all layers, both kinds): the block's page streams become
//!   immutable and enter the trie, or — when a concurrent sequence sealed
//!   the identical block first — are freed and the existing block adopted
//!   (late dedup, with a debug-mode bit-exactness check between the two
//!   independently quantized copies);
//! * [`PagedKvPool::free_seq`] *releases* shared blocks leaf-first instead
//!   of freeing them, so a preempted or retired sharer never invalidates
//!   the others.
//!
//! Sharing is gated on the quantizer reporting itself prefix-deterministic:
//! Oaken, FP16 and exact-f32 pools share; calibrate-then-freeze baselines
//! (Atom/QServe/Tender) and per-channel methods (KIVI/KVQuant) opt out and
//! keep fully private page streams.
//!
//! # Two-tier memory: suspend and resume
//!
//! The device pool is backed by a host swap tier
//! ([`oaken_mmu::SwapPool`], sized via [`PagedKvPool::set_host_pages`]),
//! which turns preemption from evict-and-recompute into
//! suspend-and-resume:
//!
//! * [`PagedKvPool::suspend_seq`] moves a sequence's **private** pages
//!   (tail streams + pending prompt blocks) to host and freezes its
//!   quantizer stream state, views, and prompt plan verbatim; **shared**
//!   trie blocks stay resident with their refcounts held, so no sharer —
//!   including the suspended sequence itself — can lose sealed prefix
//!   bytes;
//! * [`PagedKvPool::resume_seq`] thaws the private streams onto fresh
//!   device pages (identical per-token sizes and tail headroom) and the
//!   sequence continues **bit-exactly** where it left off — the hard
//!   contract the swap-resume property tests enforce against
//!   uninterrupted `Session` runs;
//! * transfer pages/bytes are accounted per move
//!   ([`PagedKvPool::swap_stats`]), and because Oaken's pages hold 4-bit
//!   dense + sparse payloads, the moved bytes are 3-4× smaller than an
//!   FP16 cache would transfer — the reason swap beats recompute even
//!   more clearly under quantization.
//!
//! # Consistency contract
//!
//! * **Bit-exactness** — for methods whose per-row state is offline or
//!   per-token (Oaken, FP16, exact f32, the recompute fallbacks), a
//!   sequence's dequantized views depend only on its own append history:
//!   the pool drives the same `KvRowStream`s as `QuantizedCache`, so any
//!   interleaving of sequences is bit-identical to independent
//!   single-sequence runs (enforced by `oaken-serving`'s engine property
//!   tests). Prefix sharing preserves this: adopted blocks hold exactly
//!   the bytes a private run would have produced, which is what
//!   `prefix_deterministic` asserts. The one deliberate exception:
//!   *calibrate-then-freeze* baselines (Atom/QServe/Tender) keep their
//!   frozen calibration when a slot is recycled — calibration is per-model
//!   state shared across requests in real serving, so a later sequence
//!   reusing a slot decodes with the already-frozen channel order/scales
//!   instead of re-warming on its own first rows.
//! * **Guarded appends** — [`PagedKvPool::append`] checks a conservative
//!   worst-case page bound *before* touching any state and fails cleanly
//!   with [`PoolError::OutOfPages`]; a successful call is atomic for the
//!   `(layer, K, V)` triple. Schedulers should gate whole-token appends
//!   with [`PagedKvPool::pages_possibly_needed`] (or the chunk-sized
//!   [`PagedKvPool::pages_possibly_needed_n`]) so a multi-layer forward
//!   pass never stalls mid-token.
//! * **Slot recycling** — retiring a sequence frees its private pages
//!   immediately, releases its shared blocks, and recycles its
//!   stream/view buffers (via
//!   [`KvRowStream::reset`](oaken_core::KvRowStream::reset), which retains
//!   frozen calibration) for the next admitted sequence.
//!
//! # Capacity accounting
//!
//! Admission estimates route through the same bytes-per-token helper as
//! the analytic capacity model ([`ModelConfig::kv_bytes_per_token`], also
//! used by `oaken-accel`'s `SystemModel::max_concurrent_batch`), so the
//! analytic and executed paths cannot drift; the pool then adds the
//! page-rounding the analytic model ignores. Every physical page is owned
//! by exactly one sequence (tail + pending blocks) or one trie block, and
//! [`PagedKvPool::page_accounting`] exposes the three-way split — free,
//! private, shared — whose sum is always the device capacity.
//!
//! [`KvQuantizer::prefix_deterministic`]: oaken_core::KvQuantizer::prefix_deterministic

use crate::attention::{EncodedKv, KvRead, QUERY_TILE};
use crate::cache::{BatchAppend, BatchKvCache, KernelMode, KindSlot};
use crate::config::ModelConfig;
use crate::ranks::RankedPools;
use crate::trie::{PrefixStats, PrefixTrie, TrieBlock};
use oaken_core::{FusedVector, KvKind, KvQuantizer};
use oaken_mmu::{
    FaultKind, FaultOp, FaultPlan, FaultStats, MmuSim, StreamClass, StreamKey, SwapReceipt,
    SwapStats,
};
use oaken_runtime::{Runtime, UnsafeSlice};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Handle to one sequence's KV state inside a [`PagedKvPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeqId(pub u32);

/// Errors surfaced by the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// Appending could require more pages than the device has free — the
    /// admission/preemption signal.
    OutOfPages {
        /// Worst-case pages the append might need.
        needed: u32,
        /// Pages currently free.
        free: u32,
    },
    /// The sequence handle is unknown (already freed or never allocated).
    UnknownSequence {
        /// The offending handle.
        seq: SeqId,
    },
    /// The host tier cannot hold the sequence's private pages — the
    /// swap-based preemption must fall back to evict-and-recompute.
    OutOfHostPages {
        /// Host pages the suspend needs.
        needed: u32,
        /// Host pages currently free.
        free: u32,
    },
    /// The installed [`FaultPlan`] injected a fault at this operation's
    /// pre-check boundary: nothing was mutated. Transient faults are
    /// retry-able; persistent ones keep failing for the plan's burst
    /// length and callers should degrade instead.
    Fault {
        /// The faulted operation class.
        op: FaultOp,
        /// Transient (retry-able) or persistent (degrade).
        kind: FaultKind,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::OutOfPages { needed, free } => {
                write!(f, "append may need {needed} pages but only {free} are free")
            }
            PoolError::UnknownSequence { seq } => {
                write!(f, "sequence {seq:?} is not active in the pool")
            }
            PoolError::OutOfHostPages { needed, free } => {
                write!(
                    f,
                    "suspend needs {needed} host pages but only {free} are free"
                )
            }
            PoolError::Fault { op, kind } => {
                write!(f, "injected {kind} fault on {op}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Result of [`PagedKvPool::alloc_seq_with_prefix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixAlloc {
    /// The admitted sequence.
    pub seq: SeqId,
    /// Leading prompt tokens satisfied from the prefix trie: their K/V
    /// rows are already cached (views pre-filled, pages shared), so the
    /// caller starts feeding the model at this position.
    pub matched_tokens: usize,
}

/// Three-way physical page ownership split of a pool; the components
/// always sum to the device capacity (the refcount invariant the serving
/// property tests re-check after every engine step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageAccounting {
    /// Pages on the free list.
    pub free: u32,
    /// Pages owned exclusively by one active sequence (its private tail
    /// plus its not-yet-sealed pending blocks).
    pub private: u32,
    /// Pages owned by sealed trie blocks (each stored once, regardless of
    /// how many sequences reference it).
    pub shared_blocks: u32,
}

impl PageAccounting {
    /// Sum of the three components — must equal the pool capacity.
    pub fn total(&self) -> u32 {
        self.free + self.private + self.shared_blocks
    }
}

/// One slot of a sequence's prompt-block plan.
#[derive(Debug, Clone, Copy)]
enum SeqBlock {
    /// Adopted from (or sealed into) the trie; the sequence holds one
    /// refcount on it.
    Shared(usize),
    /// Still being written privately by this sequence under its own MMU
    /// request id.
    Pending {
        /// MMU request id owning the pending pages.
        mmu: u32,
    },
}

/// The prompt-sharing plan of one sequence.
struct SeqPlan {
    /// The prompt tokens announced at allocation (trie keys).
    prompt: Vec<u32>,
    /// One entry per full prompt block, root-to-leaf. Entries `[..sealed]`
    /// are `Shared`; the rest are `Pending`.
    blocks: Vec<SeqBlock>,
    /// Blocks sealed (or adopted) so far.
    sealed: usize,
}

/// A sequence frozen to the host tier by [`PagedKvPool::suspend_seq`].
struct SuspendedSeq {
    /// The sequence's slots, retained verbatim: quantizer stream state,
    /// dequantized views, row counts, and the prompt-block plan.
    slots: SeqSlots,
    /// Host pages its private streams occupy (the device pages a resume
    /// needs, as an upper bound).
    frozen_pages: u32,
}

/// One sequence's KV state packaged for shipment to another pool — the
/// prefill→decode handoff object of a disaggregated cluster
/// ([`PagedKvPool::export_seq`] / [`PagedKvPool::import_seq`]).
///
/// Two halves travel together, mirroring the repo's functional split:
/// the **payload** (quantizer stream state, dequantized views, row
/// counts — the sequence's internal `SeqSlots`, flattened to fully private
/// form) and the **accounting** (an [`oaken_mmu::TransferPayload`]: the
/// self-describing per-token size tables covering *every* token,
/// adopted prefix rows included, so the importer rebuilds bit-compatible
/// page tables with no shared state). The wire cost the cluster's
/// transfer clock charges is [`KvTransfer::wire_bytes`].
pub struct KvTransfer {
    slots: SeqSlots,
    payload: oaken_mmu::TransferPayload,
}

impl fmt::Debug for KvTransfer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KvTransfer")
            .field("layers", &self.slots.slots.len())
            .field("bytes", &self.payload.bytes)
            .field("checksum", &self.payload.checksum)
            .finish()
    }
}

impl KvTransfer {
    /// The self-describing MMU half: per-stream size tables, byte totals,
    /// and the integrity checksum asserted on import.
    pub fn payload(&self) -> &oaken_mmu::TransferPayload {
        &self.payload
    }

    /// Modeled wire bytes of this transfer: the encoded KV payload plus
    /// the self-describing size-table header.
    pub fn wire_bytes(&self) -> u64 {
        self.payload.wire_bytes()
    }

    /// Tokens cached per `(layer, kind)` slot — the rows the importer's
    /// decode resumes from.
    pub fn tokens(&self) -> usize {
        self.slots.slots.first().map_or(0, |pair| pair[0].rows)
    }
}

/// Per-sequence storage: one [`KindSlot`] per `(layer, kind)`, plus a
/// running private page count so admission accounting never scans the
/// MMU's global stream map.
struct SeqSlots {
    slots: Vec<[KindSlot; 2]>,
    /// Pages owned exclusively by this sequence: tail streams plus pending
    /// (unsealed) blocks. Adopted shared pages are *not* counted here.
    pages: u32,
    /// Prompt-block plan, present when the sequence was admitted through
    /// [`PagedKvPool::alloc_seq_with_prefix`] with sharing enabled.
    plan: Option<SeqPlan>,
}

fn kind_index(kind: KvKind) -> usize {
    match kind {
        KvKind::Key => 0,
        KvKind::Value => 1,
    }
}

/// One sequence's K/V rows within a batched pool append
/// ([`PagedKvPool::append_batch`]).
#[derive(Debug, Clone, Copy)]
pub struct SeqRowAppend<'a> {
    /// The sequence the rows belong to.
    pub seq: SeqId,
    /// The token's key vector.
    pub k: &'a [f32],
    /// The token's value vector.
    pub v: &'a [f32],
}

/// Per-item bookkeeping the parallel quantize phase hands to the serial
/// page-commit phase.
#[derive(Debug, Clone, Copy, Default)]
struct RowRecord {
    /// Rows held by the `(seq, layer)` slots *before* this item appended
    /// (identical for both kinds) — the position the page commit routes by.
    pos: usize,
    /// `(dense, sparse)` encoded byte sizes of the key row.
    key_bytes: (usize, usize),
    /// `(dense, sparse)` encoded byte sizes of the value row.
    value_bytes: (usize, usize),
}

/// Raw pointers to the distinct sequences' slot storage for one batched
/// append — collected serially, dereferenced by exactly one task each.
#[derive(Default)]
struct SlotPtrs(Vec<*mut SeqSlots>);

// SAFETY: the pointers are only alive (and only dereferenced) inside one
// `append_batch` call, each by a single task over a distinct sequence, and
// the pointees (`SeqSlots`) own only `Send` data (`Box<dyn KvRowStream>`
// is `Send` by trait bound).
unsafe impl Send for SlotPtrs {}
unsafe impl Sync for SlotPtrs {}

/// Reusable buffers for [`PagedKvPool::append_batch`] — held by the pool
/// so the steady-state batched append path performs no heap allocations
/// (enforced by `tests/pool_alloc_free.rs`).
#[derive(Default)]
struct BatchScratch {
    /// Consecutive same-sequence runs of the item list:
    /// `(seq id, first item index, item count)`.
    runs: Vec<(u32, usize, usize)>,
    /// One record per item.
    recs: Vec<RowRecord>,
    /// One slot pointer per run.
    ptrs: SlotPtrs,
}

/// Cumulative KV read-path traffic of a pool, split by kernel family —
/// the measurement behind the fused kernel's bandwidth claim: in fused
/// mode the bytes column counts **encoded payload bytes**, in exact mode
/// it counts the dequantized f32 view bytes the kernels actually stream.
///
/// Rows and bytes are *logical*: every query token is charged the K and V
/// rows cached when it attends (before any sliding window), whether or
/// not it shared a sweep with its neighbours. `fused_rows_swept` is the
/// physical side: rows the fused kernel actually walked and decoded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvReadStats {
    /// Encoded rows attended, summed over query tokens.
    pub fused_rows: u64,
    /// Encoded payload bytes those rows occupy.
    pub fused_bytes: u64,
    /// Encoded rows walked by sweeps of the fused kernel: one pass over a
    /// sequence's rows per tile of up to [`QUERY_TILE`] query tokens, so
    /// equal to `fused_rows` on pure decode and far below it on a chunked
    /// prefill.
    pub fused_rows_swept: u64,
    /// Dequantized f32 rows attended, summed over query tokens.
    pub exact_rows: u64,
    /// f32 bytes those rows occupy.
    pub exact_bytes: u64,
}

/// Interior-mutable [`KvReadStats`] accumulator: the fused read path
/// borrows the pool shared (`&self` — K and V must coexist), so the
/// counters are relaxed atomics rather than plain fields.
#[derive(Default)]
struct ReadCounters {
    fused_rows: AtomicU64,
    fused_bytes: AtomicU64,
    fused_rows_swept: AtomicU64,
    exact_rows: AtomicU64,
    exact_bytes: AtomicU64,
}

impl ReadCounters {
    fn snapshot(&self) -> KvReadStats {
        KvReadStats {
            fused_rows: self.fused_rows.load(Ordering::Relaxed),
            fused_bytes: self.fused_bytes.load(Ordering::Relaxed),
            fused_rows_swept: self.fused_rows_swept.load(Ordering::Relaxed),
            exact_rows: self.exact_rows.load(Ordering::Relaxed),
            exact_bytes: self.exact_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Default tokens per shareable prefix block.
pub const DEFAULT_BLOCK_TOKENS: usize = 16;

/// The channel slice a rank-shard pool stores out of the full KV row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PoolShard {
    /// First full-row channel this shard owns.
    pub(crate) start: usize,
    /// Full KV row width appends must supply.
    pub(crate) full_dim: usize,
}

/// The shared paged KV pool. See the module docs for the design.
pub struct PagedKvPool {
    quantizer: Option<Arc<dyn KvQuantizer>>,
    /// When this pool is one tensor-parallel rank's private shard: the
    /// channel slice of the full KV row it stores. Append entry points
    /// then take *full-width* rows (every rank quantizes the full row so
    /// whole-row scales match the 1-rank cache bit-for-bit; see
    /// `crate::sharding`) while all storage, accounting, and reads cover
    /// only the shard's channels.
    shard: Option<PoolShard>,
    num_layers: usize,
    kv_dim: usize,
    kv_heads: usize,
    head_dim: usize,
    /// Nominal KV bytes per token for the whole model — computed through
    /// the shared [`ModelConfig::kv_bytes_per_token`] helper.
    bytes_per_token: u64,
    mmu: MmuSim,
    seqs: HashMap<u32, SeqSlots>,
    /// Sequences suspended to the host tier: their stream/view state is
    /// retained verbatim (which is what makes resume bit-exact), their
    /// private pages live in the MMU's swap pool, and their shared trie
    /// blocks stay adopted (refcounts held) so the payload a resume needs
    /// can never be destroyed underneath them.
    suspended: HashMap<u32, SuspendedSeq>,
    recycled: Vec<SeqSlots>,
    next_id: u32,
    /// Tokens per shareable prefix block.
    block_tokens: usize,
    /// Whether the quantizer permits sharing at all.
    sharing_supported: bool,
    /// Whether sharing is currently enabled (supported and not disabled).
    sharing: bool,
    trie: PrefixTrie,
    /// MMU request ids for blocks count down from the top so they never
    /// collide with sequence ids counting up.
    next_block_mmu: u32,
    stats: PrefixStats,
    /// Whether the quantizer provides incremental row streams (probed once
    /// at construction): streams keep views append-only, the gate for the
    /// parallel forward pass. Exact-f32 pools (no quantizer) also qualify.
    streaming: bool,
    /// Which attention read path sequences admitted to this pool feed
    /// (installed by [`PagedKvPool::set_kernel_mode`] while idle).
    kernel: KernelMode,
    /// Cumulative read-path traffic, split by kernel family.
    reads: ReadCounters,
    /// Reusable scratch for [`PagedKvPool::append_batch`].
    batch: BatchScratch,
}

impl fmt::Debug for PagedKvPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagedKvPool")
            .field(
                "quantizer",
                &self.quantizer.as_ref().map_or("exact-f32", |q| q.name()),
            )
            .field("num_layers", &self.num_layers)
            .field("kv_dim", &self.kv_dim)
            .field("active_seqs", &self.seqs.len())
            .field("suspended_seqs", &self.suspended.len())
            .field("free_pages", &self.free_pages())
            .field("prefix_sharing", &self.sharing)
            .field("trie_blocks", &self.trie.len())
            .finish()
    }
}

impl PagedKvPool {
    /// Creates a pool for `model`'s KV geometry over `num_pages` pages of
    /// `page_size` bytes. `quantizer = None` stores exact f32 rows (the
    /// FP32 reference configuration). Prefix sharing is enabled whenever
    /// the quantizer is prefix-deterministic (always, for exact f32), with
    /// [`DEFAULT_BLOCK_TOKENS`]-token blocks.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` cannot hold one worst-case per-head row
    /// payload (pages must be at least `4 × head_dim + 16` bytes).
    pub fn for_model(
        model: &ModelConfig,
        quantizer: Option<Arc<dyn KvQuantizer>>,
        num_pages: u32,
        page_size: usize,
    ) -> Self {
        let kv_dim = model.kv_dim();
        let kv_heads = model.num_kv_heads;
        let head_dim = kv_dim / kv_heads;
        let bits = quantizer
            .as_ref()
            .map_or(32.0, |q| q.effective_bits(1, kv_dim));
        let sharing_supported = quantizer.as_ref().is_none_or(|q| q.prefix_deterministic());
        // Append-only views require a stream for *every* (layer, kind)
        // slot — `row_stream` is a per-tensor decision, so probe them all
        // rather than assuming layer 0's answer generalizes.
        let streaming = quantizer.as_ref().is_none_or(|q| {
            (0..model.num_layers).all(|l| {
                KvKind::ALL
                    .iter()
                    .all(|&k| q.row_stream(kv_dim, l, k).is_some())
            })
        });
        // Host tier defaults to mirroring the device capacity (host KV
        // memory is at least as large as device memory on real serving
        // nodes); `set_host_pages` resizes or disables it.
        let mut mmu = MmuSim::new(num_pages, page_size);
        mmu.attach_host_tier(num_pages);
        let pool = Self {
            quantizer,
            shard: None,
            num_layers: model.num_layers,
            kv_dim,
            kv_heads,
            head_dim,
            bytes_per_token: model.kv_bytes_per_token(bits),
            mmu,
            seqs: HashMap::new(),
            suspended: HashMap::new(),
            recycled: Vec::new(),
            next_id: 0,
            block_tokens: DEFAULT_BLOCK_TOKENS,
            sharing_supported,
            sharing: sharing_supported,
            trie: PrefixTrie::default(),
            next_block_mmu: u32::MAX,
            stats: PrefixStats::default(),
            streaming,
            kernel: KernelMode::Exact,
            reads: ReadCounters::default(),
            batch: BatchScratch::default(),
        };
        assert!(
            pool.dense_row_bound() <= page_size,
            "page size {page_size} cannot hold one per-head row (bound {})",
            pool.dense_row_bound()
        );
        pool
    }

    /// Creates one tensor-parallel rank's private pool shard: the same
    /// geometry as [`PagedKvPool::for_model`] restricted to the contiguous
    /// KV heads `kv_heads`, over this rank's own `num_pages`.
    ///
    /// The shard's append entry points take **full-width** rows — the rank
    /// quantizes the whole row (Oaken's scales are whole-row min/max, so
    /// this is what keeps shard bits identical to the 1-rank cache) and
    /// stores only its heads' channels. With `quantizer = None` the rows
    /// are sliced directly. Reads ([`PagedKvPool::keys`],
    /// [`PagedKvPool::encoded_kv`]) return shard-width data laid out for a
    /// rank-local attention shape.
    ///
    /// # Panics
    ///
    /// Panics if the head range is empty or out of range, or if a
    /// quantizer is supplied that cannot stream encoded rows (sharding
    /// slices the encoded form; methods without it cannot shard).
    pub fn for_model_shard(
        model: &ModelConfig,
        quantizer: Option<Arc<dyn KvQuantizer>>,
        num_pages: u32,
        page_size: usize,
        kv_heads: std::ops::Range<usize>,
    ) -> Self {
        assert!(
            !kv_heads.is_empty() && kv_heads.end <= model.num_kv_heads,
            "shard heads {kv_heads:?} invalid for {} KV heads",
            model.num_kv_heads
        );
        let head_dim = model.head_dim();
        let group = model.num_heads / model.num_kv_heads;
        let full_dim = model.kv_dim();
        let start = kv_heads.start * head_dim;
        let dim = kv_heads.len() * head_dim;
        // The shard's geometry is the model's, restricted to its heads;
        // `head_dim` is preserved so row bounds and page math carry over.
        let shard_cfg = ModelConfig {
            num_kv_heads: kv_heads.len(),
            num_heads: kv_heads.len() * group,
            d_model: kv_heads.len() * group * head_dim,
            ..model.clone()
        };
        let wrapped = quantizer.map(|q| {
            Arc::new(crate::sharding::ShardedQuantizer::new(
                q, start, dim, full_dim,
            )) as Arc<dyn KvQuantizer>
        });
        let had_quantizer = wrapped.is_some();
        let mut pool = Self::for_model(&shard_cfg, wrapped, num_pages, page_size);
        assert!(
            !had_quantizer || pool.streaming,
            "sharding requires a quantizer with encoded row streams"
        );
        pool.shard = Some(PoolShard { start, full_dim });
        pool
    }

    /// The row width append entry points expect: the full KV row for a
    /// rank-shard pool, this pool's own `kv_dim` otherwise.
    pub fn append_width(&self) -> usize {
        self.shard.map_or(self.kv_dim, |s| s.full_dim)
    }

    /// The full-row channel range this pool stores (`0..kv_dim` for an
    /// unsharded pool).
    pub fn channel_range(&self) -> std::ops::Range<usize> {
        match self.shard {
            Some(s) => s.start..s.start + self.kv_dim,
            None => 0..self.kv_dim,
        }
    }

    /// The wrapped quantizer handle, for building further shards of the
    /// same method.
    pub(crate) fn quantizer_handle(&self) -> Option<Arc<dyn KvQuantizer>> {
        self.quantizer.clone()
    }

    /// Worst-case dense bytes one appended row can add to a single head's
    /// page stream (f32 storage plus scale/metadata slack) — the guard the
    /// capacity pre-checks use so a checked append can never fail inside
    /// the MMU.
    fn dense_row_bound(&self) -> usize {
        4 * self.head_dim + 16
    }

    /// Worst-case sparse (COO outlier) bytes per head per row: one byte
    /// per element plus metadata slack.
    fn sparse_row_bound(&self) -> usize {
        self.head_dim + 16
    }

    /// Whether the pool's quantizer produces a variable sparse stream
    /// (methods going through the incremental row streams may emit COO
    /// outliers; exact f32 storage never does).
    fn has_sparse(&self) -> bool {
        self.quantizer.is_some()
    }

    /// The backing MMU simulator (read-only): translation tables, burst
    /// plans, and fragmentation statistics over the actual stored sizes.
    pub fn mmu(&self) -> &MmuSim {
        &self.mmu
    }

    /// Total pages in the device.
    pub fn capacity_pages(&self) -> u32 {
        self.mmu.allocator().capacity()
    }

    /// Currently free pages.
    pub fn free_pages(&self) -> u32 {
        self.mmu.allocator().free_pages()
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.mmu.allocator().page_size()
    }

    /// Number of active sequences.
    pub fn active_seqs(&self) -> usize {
        self.seqs.len()
    }

    /// Pages owned *exclusively* by a sequence — its private tail streams
    /// plus its unsealed pending blocks (O(1): tracked per sequence, not
    /// recounted from the MMU's stream map). Adopted shared pages are not
    /// included; they are accounted once, under
    /// [`PagedKvPool::shared_block_pages`].
    pub fn seq_pages(&self, seq: SeqId) -> u32 {
        self.seqs.get(&seq.0).map_or(0, |s| s.pages)
    }

    /// Nominal KV bytes per token (the shared bytes-per-token figure the
    /// analytic capacity model also uses).
    pub fn bytes_per_token(&self) -> u64 {
        self.bytes_per_token
    }

    /// Whether prefix sharing is active.
    pub fn prefix_sharing(&self) -> bool {
        self.sharing
    }

    /// Enables or disables prefix sharing. Disabling (the PR-2 baseline
    /// behaviour, kept for A/B sweeps) always works; enabling is a no-op
    /// when the quantizer is not prefix-deterministic.
    ///
    /// # Panics
    ///
    /// Panics if sequences are active or the trie is non-empty — the
    /// switch is a construction-time choice.
    pub fn set_prefix_sharing(&mut self, enabled: bool) {
        assert!(
            self.seqs.is_empty() && self.trie.len() == 0,
            "prefix sharing can only be toggled on an idle pool"
        );
        self.sharing = enabled && self.sharing_supported;
    }

    /// Selects the attention read path for sequences admitted from now
    /// on, returning the mode actually installed: [`KernelMode::Fused`]
    /// silently downgrades to [`KernelMode::Exact`] when the pool cannot
    /// support it — no quantizer (exact-f32 pools), no streaming path, or
    /// any `(layer, kind)` stream lacking the encoded read path (every
    /// non-Oaken baseline). Under `Fused`, appended rows live **only** in
    /// their encoded form (no dequantized views are materialized), sealed
    /// trie blocks store encoded rows, and attention reads go through
    /// [`PagedKvPool::encoded_kv`].
    ///
    /// # Panics
    ///
    /// Panics if sequences are active or suspended, or the trie is
    /// non-empty — the switch is a construction-time choice.
    pub fn set_kernel_mode(&mut self, kernel: KernelMode) -> KernelMode {
        assert!(
            self.seqs.is_empty() && self.suspended.is_empty() && self.trie.len() == 0,
            "kernel mode can only be installed on an idle pool"
        );
        let capable = self.streaming
            && self.quantizer.as_ref().is_some_and(|q| {
                (0..self.num_layers).all(|l| {
                    KvKind::ALL.iter().all(|&k| {
                        q.row_stream(self.kv_dim, l, k)
                            .is_some_and(|s| s.fused_read_params().is_some())
                    })
                })
            });
        self.kernel = if kernel == KernelMode::Fused && capable {
            KernelMode::Fused
        } else {
            KernelMode::Exact
        };
        // Recycled slots carry the previous mode's flags; drop them so
        // every future sequence starts from a correctly-flagged slot set.
        self.recycled.clear();
        self.kernel
    }

    /// The installed attention read path.
    pub fn kernel_mode(&self) -> KernelMode {
        self.kernel
    }

    /// Cumulative KV read-path traffic, split by kernel family.
    pub fn kv_read_stats(&self) -> KvReadStats {
        self.reads.snapshot()
    }

    /// Tokens per shareable prefix block.
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// Sets the prefix-block granularity. Smaller blocks share more of a
    /// partially common prompt but cost more page-rounding per block.
    ///
    /// # Panics
    ///
    /// Panics on zero, or if sequences are active or the trie is
    /// non-empty.
    pub fn set_block_tokens(&mut self, block_tokens: usize) {
        assert!(block_tokens > 0, "blocks must hold at least one token");
        assert!(
            self.seqs.is_empty() && self.trie.len() == 0,
            "block granularity can only change on an idle pool"
        );
        self.block_tokens = block_tokens;
    }

    /// Cumulative prefix-cache counters.
    pub fn prefix_stats(&self) -> PrefixStats {
        self.stats
    }

    /// Pages currently held by sealed trie blocks (each counted once,
    /// however many sequences share it).
    pub fn shared_block_pages(&self) -> u32 {
        self.trie.total_pages()
    }

    /// Sealed blocks currently live in the trie.
    pub fn trie_blocks(&self) -> usize {
        self.trie.len()
    }

    /// Host-tier capacity in pages (same page size as the device tier).
    pub fn host_capacity_pages(&self) -> u32 {
        self.mmu.host_tier().map_or(0, |h| h.capacity())
    }

    /// Host pages currently occupied by suspended sequences.
    pub fn host_pages_used(&self) -> u32 {
        self.mmu.host_tier().map_or(0, |h| h.used_pages())
    }

    /// Host pages currently free — the headroom swap-based preemption
    /// (and the engine's optimistic admission under it) can still use.
    pub fn host_free_pages(&self) -> u32 {
        self.mmu.host_tier().map_or(0, |h| h.free_pages())
    }

    /// Resizes the host tier (0 disables swap-based suspension; suspends
    /// then fail with [`PoolError::OutOfHostPages`] for any sequence that
    /// owns pages). Defaults to the device capacity at construction.
    ///
    /// # Panics
    ///
    /// Panics while sequences are suspended (the tier can only be resized
    /// while empty).
    pub fn set_host_pages(&mut self, pages: u32) {
        assert!(
            self.suspended.is_empty(),
            "host tier can only be resized with no suspended sequences"
        );
        self.mmu.attach_host_tier(pages);
    }

    /// Cumulative device↔host transfer counters.
    pub fn swap_stats(&self) -> SwapStats {
        self.mmu
            .host_tier()
            .map_or_else(SwapStats::default, |h| h.stats())
    }

    /// Installs a deterministic fault schedule on the underlying MMU (see
    /// [`oaken_mmu::fault`]): appends, suspends, and resumes then poll it
    /// at their pre-check boundaries and surface [`PoolError::Fault`]
    /// without mutating any state. No schedule is installed by default
    /// and the hook is a single `Option` check when disabled.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.mmu.install_faults(plan);
    }

    /// Whether a fault schedule is installed. The batched append path
    /// degrades to the serial per-item loop while faults are active, so
    /// the injection schedule is independent of the thread count.
    pub fn faults_active(&self) -> bool {
        self.mmu.faults_active()
    }

    /// Counters over the faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.mmu.fault_stats()
    }

    /// Sequences currently suspended to host.
    pub fn suspended_seqs(&self) -> usize {
        self.suspended.len()
    }

    /// Whether `seq` is currently suspended.
    pub fn is_suspended(&self, seq: SeqId) -> bool {
        self.suspended.contains_key(&seq.0)
    }

    /// Whether `seq` is live on the device tier (allocated, not
    /// suspended, not freed).
    pub fn is_live(&self, seq: SeqId) -> bool {
        self.seqs.contains_key(&seq.0)
    }

    /// Host pages a suspended sequence occupies — also the upper bound on
    /// the device pages [`resume_seq`](Self::resume_seq) will need (0 for
    /// handles that are not suspended).
    pub fn suspended_seq_pages(&self, seq: SeqId) -> u32 {
        self.suspended.get(&seq.0).map_or(0, |s| s.frozen_pages)
    }

    /// The free/private/shared page-ownership split; `total()` always
    /// equals [`PagedKvPool::capacity_pages`].
    pub fn page_accounting(&self) -> PageAccounting {
        PageAccounting {
            free: self.free_pages(),
            private: self.seqs.values().map(|s| s.pages).sum(),
            shared_blocks: self.trie.total_pages(),
        }
    }

    /// Admission estimate: pages a sequence of `tokens` total tokens will
    /// occupy, including the per-stream page rounding the analytic model
    /// ignores. Uses the *nominal* bytes-per-token; the executed footprint
    /// of variable-rate methods can differ slightly, which preemption
    /// absorbs. Callers admitting a prompt with a known trie prefix should
    /// pass only the *non-shared* tokens (`tokens −`
    /// [`PagedKvPool::probe_prefix`]).
    pub fn pages_for_tokens(&self, tokens: usize) -> u64 {
        if tokens == 0 {
            return 0;
        }
        let dense_streams = (2 * self.num_layers * self.kv_heads) as u64;
        let page = self.page_size() as u64;
        // Nominal per-head bytes for the whole sequence, rounded to pages
        // per stream (each head's dense data lives in its own page
        // stream). The nominal bytes-per-token already folds the sparse
        // payload in, which slightly over-counts the dense pages...
        let stream_bytes = (tokens as u64 * self.bytes_per_token).div_ceil(dense_streams);
        let mut pages = dense_streams * stream_bytes.div_ceil(page);
        // ...while each *sparse* stream still pins at least one page of
        // its own once the first outlier lands (the dominant sparse cost:
        // COO bytes per head per token are single digits).
        if self.has_sparse() {
            pages += dense_streams;
        }
        pages
    }

    /// Worst-case pages appending **one token** to `seq` could allocate:
    /// one page for every per-head stream whose tail cannot absorb a
    /// worst-case row. Schedulers sum this over the batch before an
    /// iteration and preempt until it fits in [`PagedKvPool::free_pages`].
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::UnknownSequence`] for a freed handle.
    pub fn pages_possibly_needed(&self, seq: SeqId) -> Result<u32, PoolError> {
        self.pages_possibly_needed_n(seq, 1)
    }

    /// Worst-case pages appending the next `n` tokens to `seq` could
    /// allocate — the chunked-prefill reservation bound: per stream, the
    /// current tail absorbs whole worst-case rows first, then fresh pages
    /// are charged at worst-case rows-per-page packing. Positions are
    /// attributed to the streams they will actually target (pending
    /// prompt blocks, then the private tail).
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::UnknownSequence`] for a freed handle.
    pub fn pages_possibly_needed_n(&self, seq: SeqId, n: usize) -> Result<u32, PoolError> {
        let state = self
            .seqs
            .get(&seq.0)
            .ok_or(PoolError::UnknownSequence { seq })?;
        if n == 0 {
            return Ok(0);
        }
        let mut needed = 0u32;
        for (layer, pair) in state.slots.iter().enumerate() {
            for kind in KvKind::ALL {
                let start = pair[kind_index(kind)].rows;
                for (owner, count) in self.owner_segments(state, seq.0, start, n) {
                    needed += self.stream_set_pages_needed(owner, layer, kind, count);
                }
            }
        }
        Ok(needed)
    }

    /// Worst-case new pages `count` rows of `(layer, kind)` need across
    /// the per-head dense (and sparse) streams of `owner`.
    fn stream_set_pages_needed(&self, owner: u32, layer: usize, kind: KvKind, count: usize) -> u32 {
        let page = self.page_size();
        let mut needed = 0u32;
        for head in 0..self.kv_heads {
            let mut key = self.stream_key(owner, layer, kind, head, StreamClass::Dense);
            needed += rows_to_pages(
                self.mmu.tail_free(&key),
                count,
                self.dense_row_bound(),
                page,
            );
            if self.has_sparse() {
                key.class = StreamClass::Sparse;
                needed += rows_to_pages(
                    self.mmu.tail_free(&key),
                    count,
                    self.sparse_row_bound(),
                    page,
                );
            }
        }
        needed
    }

    /// Splits positions `start .. start + n` into `(mmu_owner, count)`
    /// runs: pending prompt blocks own their token ranges, everything past
    /// the planned blocks lands in the sequence's private tail.
    fn owner_segments(
        &self,
        state: &SeqSlots,
        seq_id: u32,
        start: usize,
        n: usize,
    ) -> Vec<(u32, usize)> {
        let mut segs: Vec<(u32, usize)> = Vec::new();
        for pos in start..start + n {
            let owner = self.owner_for_pos(state, seq_id, pos);
            match segs.last_mut() {
                Some((o, c)) if *o == owner => *c += 1,
                _ => segs.push((owner, 1)),
            }
        }
        segs
    }

    /// The MMU request id the row at `pos` belongs to.
    fn owner_for_pos(&self, state: &SeqSlots, seq_id: u32, pos: usize) -> u32 {
        if let Some(plan) = &state.plan {
            let b = pos / self.block_tokens;
            if b < plan.blocks.len() {
                return match plan.blocks[b] {
                    SeqBlock::Pending { mmu } => mmu,
                    SeqBlock::Shared(_) => {
                        panic!("position {pos} lies in an adopted shared block")
                    }
                };
            }
        }
        seq_id
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
            layer: (2 * layer + kind_index(kind)) as u16,
            head: head as u16,
            class,
        }
    }

    fn fresh_slots(&mut self) -> SeqSlots {
        match self.recycled.pop() {
            Some(s) => s,
            None => SeqSlots {
                slots: (0..self.num_layers)
                    .map(|layer| {
                        let mk = |kind: KvKind| {
                            let stream = self
                                .quantizer
                                .as_ref()
                                .and_then(|q| q.row_stream(self.kv_dim, layer, kind));
                            let mut slot = KindSlot::new(stream);
                            // Capability was verified for every (layer,
                            // kind) when the mode was installed.
                            slot.fused = self.kernel == KernelMode::Fused;
                            slot
                        };
                        [mk(KvKind::Key), mk(KvKind::Value)]
                    })
                    .collect(),
                pages: 0,
                plan: None,
            },
        }
    }

    /// Admits a new sequence with no prompt plan (no prefix sharing),
    /// reusing a retired sequence's buffers when available. No pages are
    /// allocated until the first append.
    pub fn alloc_seq(&mut self) -> SeqId {
        let id = self.next_id;
        self.next_id += 1;
        let slots = self.fresh_slots();
        self.seqs.insert(id, slots);
        SeqId(id)
    }

    /// Leading prompt tokens an [`alloc_seq_with_prefix`] call would
    /// satisfy from the trie right now — the read-only admission probe
    /// (always a multiple of [`PagedKvPool::block_tokens`], and 0 with
    /// sharing disabled). Schedulers subtract this from a request's
    /// footprint so cache-hot requests admit under page pressure that
    /// would stall a cold one.
    ///
    /// [`alloc_seq_with_prefix`]: PagedKvPool::alloc_seq_with_prefix
    pub fn probe_prefix(&self, tokens: &[u32]) -> usize {
        self.walk_prefix(tokens).len() * self.block_tokens
    }

    /// Full prompt blocks `tokens` can plan: at least the final token is
    /// always fed live so the caller gets next-token logits.
    fn planned_blocks(&self, tokens: &[u32]) -> usize {
        if self.sharing {
            tokens.len().saturating_sub(1) / self.block_tokens
        } else {
            0
        }
    }

    /// Trie ids of the longest matched block chain for `tokens`.
    fn walk_prefix(&self, tokens: &[u32]) -> Vec<usize> {
        let planned = self.planned_blocks(tokens);
        let bt = self.block_tokens;
        let mut ids = Vec::new();
        let mut parent = None;
        while ids.len() < planned {
            let b = ids.len();
            match self.trie.child(parent, &tokens[b * bt..(b + 1) * bt]) {
                Some(id) => {
                    ids.push(id);
                    parent = Some(id);
                }
                None => break,
            }
        }
        ids
    }

    /// Admits a new sequence for a known prompt, walking the prefix trie:
    /// every matched full block is **adopted** (refcount bumped, pages
    /// retained, dequantized views copied into the sequence's cache — no
    /// re-quantization), and the unmatched remainder of the prompt is
    /// planned as private pending blocks that will seal as they fill. The
    /// caller must feed tokens starting at `matched_tokens` (the adopted
    /// rows are already cached) and must feed exactly `tokens` for the
    /// prompt span — the trie keys sealed blocks by this announced
    /// content.
    ///
    /// With sharing disabled (or a non-prefix-deterministic quantizer)
    /// this is exactly [`PagedKvPool::alloc_seq`].
    pub fn alloc_seq_with_prefix(&mut self, tokens: &[u32]) -> PrefixAlloc {
        let seq = self.alloc_seq();
        let planned = self.planned_blocks(tokens);
        if planned == 0 {
            return PrefixAlloc {
                seq,
                matched_tokens: 0,
            };
        }
        let matched_ids = self.walk_prefix(tokens);
        let matched = matched_ids.len();
        let bt = self.block_tokens;
        // Adopt every matched block: refcount + page references + views.
        let mut adopted_bytes = 0u64;
        for &id in &matched_ids {
            self.trie.retain(id);
            let block_mmu = self.trie.get(id).mmu;
            self.mmu.retain_request(block_mmu);
            adopted_bytes += self.trie.get(id).bytes;
            let state = self.seqs.get_mut(&seq.0).expect("just allocated");
            let block = self.trie.get(id);
            for (layer, pair) in state.slots.iter_mut().enumerate() {
                for (ki, slot) in pair.iter_mut().enumerate() {
                    if slot.fused {
                        // Fused pools adopt the block's *encoded* rows
                        // into the stream itself, so the stream's encoded
                        // state always covers absolute positions 0..rows
                        // and no f32 image is ever materialized.
                        let rows = &block.encoded[layer][ki];
                        let ok = slot
                            .stream
                            .as_mut()
                            .expect("fused slots are streaming")
                            .adopt_encoded_rows(rows);
                        assert!(ok, "fused slot's stream refused adoption");
                    } else {
                        let rows = &block.views[layer][ki];
                        slot.view.extend_from_slice(rows);
                        if slot.stream.is_none() {
                            // Exact-f32 pools re-materialize views from
                            // `exact` on read; keep it in sync.
                            slot.exact.extend_from_slice(rows);
                        }
                    }
                    slot.rows += bt;
                }
            }
        }
        let mut blocks: Vec<SeqBlock> = matched_ids.into_iter().map(SeqBlock::Shared).collect();
        for _ in matched..planned {
            blocks.push(SeqBlock::Pending {
                mmu: self.fresh_block_mmu(),
            });
        }
        let state = self.seqs.get_mut(&seq.0).expect("just allocated");
        state.plan = Some(SeqPlan {
            prompt: tokens.to_vec(),
            blocks,
            sealed: matched,
        });
        self.stats.trie_hits += matched as u64;
        self.stats.tokens_reused += (matched * bt) as u64;
        self.stats.quant_rows_skipped += (matched * bt * self.num_layers * 2) as u64;
        self.stats.bytes_deduplicated += adopted_bytes;
        PrefixAlloc {
            seq,
            matched_tokens: matched * bt,
        }
    }

    fn fresh_block_mmu(&mut self) -> u32 {
        let id = self.next_block_mmu;
        self.next_block_mmu -= 1;
        assert!(
            self.next_block_mmu > self.next_id,
            "block and sequence id spaces collided"
        );
        id
    }

    /// Retires a sequence: frees its private pages (tail + pending
    /// blocks), releases its shared blocks leaf-first (freeing each only
    /// when the last sharer departs), and recycles its buffers. Returns
    /// the number of physically freed pages.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::UnknownSequence`] for a double-free.
    pub fn free_seq(&mut self, seq: SeqId) -> Result<u32, PoolError> {
        let mut state = self
            .seqs
            .remove(&seq.0)
            .ok_or(PoolError::UnknownSequence { seq })?;
        let mut freed = self
            .mmu
            .free_request(seq.0)
            .expect("pool-owned pages cannot double-free");
        if let Some(plan) = state.plan.take() {
            for block in plan.blocks.into_iter().rev() {
                match block {
                    SeqBlock::Pending { mmu } => {
                        freed += self
                            .mmu
                            .free_request(mmu)
                            .expect("pending pages are exclusively owned");
                    }
                    SeqBlock::Shared(id) => freed += self.release_shared_block(id),
                }
            }
        }
        self.recycle_slots(state);
        Ok(freed)
    }

    /// Drops one sequence's reference on a sealed trie block, freeing its
    /// pages when the last sharer departs. Returns the pages physically
    /// freed.
    fn release_shared_block(&mut self, id: usize) -> u32 {
        let block_mmu = self.trie.get(id).mmu;
        let released = self.mmu.release_request(block_mmu);
        match self.trie.release(id) {
            Some(b) => {
                debug_assert_eq!(released, b.pages, "block page accounting");
                released
            }
            None => {
                debug_assert_eq!(released, 0, "block still shared");
                0
            }
        }
    }

    /// Clears a retired sequence's buffers and keeps them for reuse.
    fn recycle_slots(&mut self, mut state: SeqSlots) {
        for pair in &mut state.slots {
            for slot in pair {
                slot.reset_for_reuse();
            }
        }
        state.pages = 0;
        self.recycled.push(state);
    }

    /// MMU request ids whose pages a sequence owns *exclusively*: its own
    /// tail streams plus its pending (unsealed) prompt blocks — the pages
    /// that move tiers on suspend. Adopted shared blocks are excluded.
    fn private_mmu_ids(state: &SeqSlots, seq_id: u32) -> Vec<u32> {
        let mut ids = vec![seq_id];
        if let Some(plan) = &state.plan {
            for block in &plan.blocks {
                if let SeqBlock::Pending { mmu } = block {
                    ids.push(*mmu);
                }
            }
        }
        ids
    }

    /// Suspends an active sequence to the host tier: its private pages
    /// (tail streams plus pending prompt blocks) swap out through the MMU
    /// — device pages free, host pages charge, transfer bytes are
    /// accounted — while its quantizer stream state, dequantized views,
    /// and prompt-block plan are retained verbatim, which is what makes a
    /// later [`resume_seq`](Self::resume_seq) **bit-exact** by
    /// construction. Shared trie blocks stay resident: the suspended
    /// sequence keeps its refcounts, so a sealed prefix another sequence
    /// is using (or that only this sequence still needs) cannot be
    /// destroyed while it sits on host — releasing them instead would
    /// break the zero-recompute guarantee whenever this sequence was the
    /// last sharer.
    ///
    /// Returns the pages/bytes moved to host. On `Err` nothing changed
    /// and the sequence stays active.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownSequence`] for a freed handle,
    /// [`PoolError::OutOfHostPages`] when the host tier cannot hold the
    /// sequence's private pages (callers fall back to
    /// evict-and-recompute), [`PoolError::Fault`] when the installed
    /// fault schedule fails the host charge or the transfer.
    pub fn suspend_seq(&mut self, seq: SeqId) -> Result<SwapReceipt, PoolError> {
        if !self.seqs.contains_key(&seq.0) {
            return Err(PoolError::UnknownSequence { seq });
        }
        // Suspension charges the host tier and runs a device → host
        // transfer: both are injectable, polled before anything mutates.
        for op in [FaultOp::HostAlloc, FaultOp::SwapOut] {
            if let Some(kind) = self.mmu.poll_fault(op) {
                return Err(PoolError::Fault { op, kind });
            }
        }
        let state = self.seqs.get(&seq.0).expect("checked above");
        let host_free = self.host_free_pages();
        if state.pages > host_free {
            return Err(PoolError::OutOfHostPages {
                needed: state.pages,
                free: host_free,
            });
        }
        let mut state = self.seqs.remove(&seq.0).expect("checked above");
        let mut receipt = SwapReceipt::default();
        for id in Self::private_mmu_ids(&state, seq.0) {
            receipt.merge(
                self.mmu
                    .swap_out_request(id)
                    .expect("host headroom pre-checked; private pages are refcount-1"),
            );
        }
        debug_assert_eq!(receipt.pages, state.pages, "private page accounting");
        state.pages = 0;
        self.suspended.insert(
            seq.0,
            SuspendedSeq {
                slots: state,
                frozen_pages: receipt.pages,
            },
        );
        Ok(receipt)
    }

    /// Resumes a suspended sequence: its private page streams thaw back
    /// into device memory (fresh pages, identical per-token sizes and
    /// tail headroom) and the sequence becomes active again, bit-exactly
    /// where it left off — views, stream calibration, prompt plan, and
    /// adopted shared blocks all untouched by the round trip. Returns the
    /// pages/bytes moved back.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownSequence`] when the handle is not suspended,
    /// [`PoolError::OutOfPages`] when the device lacks the frozen page
    /// count — the sequence then stays on host and the caller retries
    /// after pages free — and [`PoolError::Fault`] when the installed
    /// fault schedule fails the transfer (the sequence also stays on
    /// host; callers retry with backoff, then degrade to a restart).
    pub fn resume_seq(&mut self, seq: SeqId) -> Result<SwapReceipt, PoolError> {
        if !self.suspended.contains_key(&seq.0) {
            return Err(PoolError::UnknownSequence { seq });
        }
        // The resume runs a host → device transfer: injectable, polled
        // before anything mutates (the sequence stays frozen on `Err`).
        if let Some(kind) = self.mmu.poll_fault(FaultOp::SwapIn) {
            return Err(PoolError::Fault {
                op: FaultOp::SwapIn,
                kind,
            });
        }
        let entry = self.suspended.get(&seq.0).expect("checked above");
        let needed = entry.frozen_pages;
        let free = self.free_pages();
        if needed > free {
            return Err(PoolError::OutOfPages { needed, free });
        }
        let mut entry = self.suspended.remove(&seq.0).expect("checked above");
        let mut receipt = SwapReceipt::default();
        for id in Self::private_mmu_ids(&entry.slots, seq.0) {
            receipt.merge(
                self.mmu
                    .swap_in_request(id)
                    .expect("device headroom pre-checked against the frozen page count"),
            );
        }
        entry.slots.pages = receipt.pages;
        self.seqs.insert(seq.0, entry.slots);
        Ok(receipt)
    }

    /// Retires a *suspended* sequence without resuming it: its frozen
    /// entries are discarded (host pages free, no transfer back) and its
    /// shared trie blocks are released leaf-first exactly as
    /// [`free_seq`](Self::free_seq) would. Returns the *device* pages
    /// physically freed (shared blocks whose last sharer this was).
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownSequence`] when the handle is not suspended.
    pub fn drop_suspended_seq(&mut self, seq: SeqId) -> Result<u32, PoolError> {
        let mut entry = self
            .suspended
            .remove(&seq.0)
            .ok_or(PoolError::UnknownSequence { seq })?;
        for id in Self::private_mmu_ids(&entry.slots, seq.0) {
            self.mmu
                .discard_frozen(id)
                .expect("suspended sequences' private ids are frozen");
        }
        let mut freed = 0u32;
        if let Some(plan) = entry.slots.plan.take() {
            for block in plan.blocks.into_iter().rev() {
                match block {
                    // Pending pages were frozen and just discarded.
                    SeqBlock::Pending { .. } => {}
                    SeqBlock::Shared(id) => freed += self.release_shared_block(id),
                }
            }
        }
        self.recycle_slots(entry.slots);
        Ok(freed)
    }

    /// Exports an active sequence as a [`KvTransfer`] and retires it from
    /// this pool — the send side of a prefill→decode handoff.
    ///
    /// The sequence is **flattened to fully private form**: its per-token
    /// size tables are collected across every owner in token order
    /// (adopted shared trie blocks, pending prompt blocks, then the
    /// private tail — per `(layer, kind, head, class)` stream), sealed
    /// into a self-describing [`oaken_mmu::TransferPayload`], and its
    /// slots (quantizer stream state, views, row counts) ship verbatim
    /// with the prompt plan stripped. Flattening is what makes the
    /// transfer self-contained: the importer owes nothing to this pool's
    /// trie, and the slots already hold every adopted row's bytes (exact
    /// mode copies views at adoption; fused mode adopts encoded rows into
    /// the stream itself). The source side then tears down exactly like
    /// [`free_seq`](Self::free_seq): private pages free, shared blocks
    /// release leaf-first.
    ///
    /// Bit-exactness argument: the slots are the same state
    /// [`suspend_seq`](Self::suspend_seq) retains verbatim — no byte is
    /// re-encoded anywhere on the path — so a decode continued from the
    /// imported sequence reproduces the monolithic engine's tokens
    /// exactly.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownSequence`] for a freed or suspended handle (a
    /// failed export changes nothing).
    pub fn export_seq(&mut self, seq: SeqId) -> Result<KvTransfer, PoolError> {
        use std::collections::BTreeMap;
        let state = self
            .seqs
            .get(&seq.0)
            .ok_or(PoolError::UnknownSequence { seq })?;
        // Owners in token order: plan blocks root-to-leaf, then the tail.
        let mut owners: Vec<u32> = Vec::new();
        if let Some(plan) = &state.plan {
            for block in &plan.blocks {
                owners.push(match block {
                    SeqBlock::Shared(id) => self.trie.get(*id).mmu,
                    SeqBlock::Pending { mmu } => *mmu,
                });
            }
        }
        owners.push(seq.0);
        let mut tables: BTreeMap<(u16, u16, StreamClass), Vec<u32>> = BTreeMap::new();
        for owner in owners {
            for (key, sizes) in self.mmu.request_stream_sizes(owner) {
                tables
                    .entry((key.layer, key.head, key.class))
                    .or_default()
                    .extend(sizes);
            }
        }
        let mut payload = oaken_mmu::TransferPayload {
            streams: tables
                .into_iter()
                .map(|((layer, head, class), sizes)| oaken_mmu::StreamPayload {
                    layer,
                    head,
                    class,
                    sizes,
                })
                .collect(),
            bytes: 0,
            checksum: 0,
        };
        payload.seal();
        // Source-side teardown, exactly as free_seq.
        let mut slots = self.seqs.remove(&seq.0).expect("checked above");
        self.mmu
            .free_request(seq.0)
            .expect("pool-owned pages cannot double-free");
        if let Some(plan) = slots.plan.take() {
            for block in plan.blocks.into_iter().rev() {
                match block {
                    SeqBlock::Pending { mmu } => {
                        self.mmu
                            .free_request(mmu)
                            .expect("pending pages are exclusively owned");
                    }
                    SeqBlock::Shared(id) => {
                        self.release_shared_block(id);
                    }
                }
            }
        }
        slots.pages = 0;
        Ok(KvTransfer { slots, payload })
    }

    /// Whether [`import_seq`](Self::import_seq) would accept `transfer`
    /// right now — the capacity pre-flight a cluster's transfer clock
    /// polls before committing a handoff (so a full host tier delays the
    /// transfer instead of dropping it).
    ///
    /// # Errors
    ///
    /// [`PoolError::OutOfHostPages`] when the host tier lacks room for
    /// the payload's page charge.
    pub fn can_import(&self, transfer: &KvTransfer) -> Result<(), PoolError> {
        let needed = transfer.payload.pages_needed(self.page_size());
        let free = self.host_free_pages();
        if needed > free {
            return Err(PoolError::OutOfHostPages { needed, free });
        }
        Ok(())
    }

    /// Imports a [`KvTransfer`] from another pool: the payload lands as a
    /// frozen entry of this pool's **host tier** under a fresh local
    /// sequence id (returned), and the slots park in the suspended map —
    /// the imported sequence is indistinguishable from one
    /// [`suspend_seq`](Self::suspend_seq) froze locally, so the normal
    /// [`resume_seq`](Self::resume_seq) machinery (and the serving
    /// engine's resume queue, with its priority, backoff, and demotion
    /// rules) activates it. The transfer's checksum is asserted before
    /// any state lands (see [`MmuSim::import_frozen`]).
    ///
    /// # Errors
    ///
    /// Returns the transfer back untouched with
    /// [`PoolError::OutOfHostPages`] when the host tier lacks room (the
    /// caller retries later) or [`PoolError::Fault`] when the installed
    /// fault schedule fails the host charge.
    ///
    /// # Panics
    ///
    /// Panics when the transfer's geometry disagrees with this pool
    /// (layer count or kernel mode) — cluster engines must share a model
    /// and kernel configuration — or when the payload fails its checksum.
    #[allow(clippy::result_large_err)]
    pub fn import_seq(
        &mut self,
        transfer: KvTransfer,
    ) -> Result<(SeqId, SwapReceipt), (KvTransfer, PoolError)> {
        assert_eq!(
            transfer.slots.slots.len(),
            self.num_layers,
            "imported sequence's layer count disagrees with this pool"
        );
        for pair in &transfer.slots.slots {
            for slot in pair {
                assert_eq!(
                    slot.fused,
                    self.kernel == KernelMode::Fused,
                    "imported sequence's kernel mode disagrees with this pool"
                );
            }
        }
        // The landing charges the host tier: injectable, polled before
        // anything mutates (the transfer is handed back for a retry).
        if let Some(kind) = self.mmu.poll_fault(FaultOp::HostAlloc) {
            return Err((
                transfer,
                PoolError::Fault {
                    op: FaultOp::HostAlloc,
                    kind,
                },
            ));
        }
        if let Err(e) = self.can_import(&transfer) {
            return Err((transfer, e));
        }
        let id = self.next_id;
        let receipt = match self.mmu.import_frozen(id, &transfer.payload) {
            Ok(r) => r,
            Err(oaken_mmu::SwapError::OutOfHostPages { needed, free }) => {
                return Err((transfer, PoolError::OutOfHostPages { needed, free }))
            }
            Err(e) => panic!("import pre-flight missed {e}"),
        };
        self.next_id += 1;
        let mut slots = transfer.slots;
        slots.pages = 0;
        debug_assert!(slots.plan.is_none(), "exports are flattened");
        self.suspended.insert(
            id,
            SuspendedSeq {
                slots,
                frozen_pages: receipt.pages,
            },
        );
        Ok((SeqId(id), receipt))
    }

    /// Appends one token's K/V rows for `(seq, layer)`, quantizing them
    /// incrementally and laying the encoded payload into pages — pending
    /// prompt-block streams while inside the planned prompt, the private
    /// tail stream afterwards. Atomic: on `Err` nothing was modified.
    /// Completing the last row of a pending block **seals** it into the
    /// prefix trie (see the module docs).
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownSequence`] for a freed handle,
    /// [`PoolError::OutOfPages`] when the worst-case page bound exceeds
    /// the free pages, [`PoolError::Fault`] when the installed fault
    /// schedule fails an allocating append.
    ///
    /// # Panics
    ///
    /// Panics if the vector widths disagree with the model's `kv_dim`.
    pub fn append(
        &mut self,
        seq: SeqId,
        layer: usize,
        k: &[f32],
        v: &[f32],
    ) -> Result<(), PoolError> {
        assert_eq!(k.len(), self.append_width(), "key width mismatch");
        assert_eq!(v.len(), self.append_width(), "value width mismatch");
        let Some(state) = self.seqs.get(&seq.0) else {
            return Err(PoolError::UnknownSequence { seq });
        };
        let mut needed = 0u32;
        for kind in KvKind::ALL {
            let pos = state.slots[layer][kind_index(kind)].rows;
            let owner = self.owner_for_pos(state, seq.0, pos);
            needed += self.stream_set_pages_needed(owner, layer, kind, 1);
        }
        if needed > 0 {
            // The append would allocate: poll the fault schedule before
            // anything mutates (appends that fit the page tails are not
            // allocation events and never fault).
            if let Some(kind) = self.mmu.poll_fault(FaultOp::DeviceAlloc) {
                return Err(PoolError::Fault {
                    op: FaultOp::DeviceAlloc,
                    kind,
                });
            }
        }
        let free = self.free_pages();
        if needed > free {
            return Err(PoolError::OutOfPages { needed, free });
        }
        for (kind, row) in [(KvKind::Key, k), (KvKind::Value, v)] {
            let state = self.seqs.get(&seq.0).expect("checked above");
            let pos = state.slots[layer][kind_index(kind)].rows;
            let owner = self.owner_for_pos(state, seq.0, pos);
            let (dense, sparse) = self.append_row(seq, layer, kind, row);
            self.write_pages(seq, owner, layer, kind, dense, sparse);
        }
        self.seal_completed_blocks(seq);
        Ok(())
    }

    /// Whether appends only *extend* this pool's dequantized views (see
    /// [`BatchKvCache::append_only_views`]): true for exact-f32 pools and
    /// for every quantizer with an incremental row stream, false for the
    /// recompute-on-read fallback.
    pub fn append_only_views(&self) -> bool {
        self.streaming
    }

    /// Worst-case new pages `n` consecutive appends to `(seq, layer)`
    /// could allocate, without heap allocation (the batched-append
    /// pre-check; [`PagedKvPool::pages_possibly_needed_n`] is the
    /// all-layers variant schedulers use).
    fn layer_pages_needed(&self, state: &SeqSlots, seq_id: u32, layer: usize, n: usize) -> u32 {
        let mut needed = 0u32;
        for kind in KvKind::ALL {
            let start = state.slots[layer][kind_index(kind)].rows;
            // Stream owner runs of `start .. start + n`, accumulated
            // without the `owner_segments` scratch vector.
            let mut run: Option<(u32, usize)> = None;
            for pos in start..start + n {
                let owner = self.owner_for_pos(state, seq_id, pos);
                match &mut run {
                    Some((o, c)) if *o == owner => *c += 1,
                    _ => {
                        if let Some((o, c)) = run.take() {
                            needed += self.stream_set_pages_needed(o, layer, kind, c);
                        }
                        run = Some((owner, 1));
                    }
                }
            }
            if let Some((o, c)) = run {
                needed += self.stream_set_pages_needed(o, layer, kind, c);
            }
        }
        needed
    }

    /// Appends one token's K/V rows for `layer` across a whole batch of
    /// sequences — semantically identical to calling
    /// [`PagedKvPool::append`] for each item in order (same state, same
    /// page assignment, same errors), with the quantization work sharded
    /// across `rt`.
    ///
    /// Execution follows the paper's engine/MMU split (§5.2): the many
    /// quantization engines work on independent shards — here, each
    /// sequence's own row streams, the software unit that preserves
    /// bit-exactness — while the MMU stays a **single writer**: a
    /// conservative page bound is checked up front (the pre-reservation),
    /// the parallel phase only quantizes into per-sequence buffers, and
    /// all page allocation happens afterwards on the calling thread in
    /// item order, so physical page assignment is identical to the serial
    /// schedule.
    ///
    /// Items of one sequence must be consecutive (chunked-prefill order);
    /// otherwise, and for a serial `rt` or a batch of one, the call
    /// degrades to the serial loop. After warm-up the batched path
    /// performs no heap allocations (scratch is pool-owned and reused;
    /// enforced by `tests/pool_alloc_free.rs`).
    ///
    /// # Errors
    ///
    /// As [`PagedKvPool::append`]; like the serial loop, items before a
    /// failing item remain applied.
    ///
    /// # Panics
    ///
    /// Panics if any vector width disagrees with the model's `kv_dim`.
    pub fn append_batch(
        &mut self,
        rt: &Runtime,
        layer: usize,
        items: &[SeqRowAppend<'_>],
    ) -> Result<(), PoolError> {
        self.append_batch_with(rt, layer, items.len(), &|i| items[i])
            .map_err(|(_, e)| e)
    }

    /// [`PagedKvPool::append_batch`] over an item *accessor* instead of a
    /// materialized slice, so adapters that only hold a slot→sequence
    /// mapping (the engine's `PoolBatchView`) can feed the batched path
    /// without building a translated item list per call — keeping the
    /// whole engine append path allocation-free in steady state.
    ///
    /// `get(i)` must be pure (it is called more than once per item).
    ///
    /// # Errors
    ///
    /// As [`PagedKvPool::append`], tagged with the index of the failing
    /// item so adapters can contain the failure to one batch slot; like
    /// the serial loop, items before the failing one remain applied and
    /// items after it were not attempted.
    pub fn append_batch_with<'a>(
        &mut self,
        rt: &Runtime,
        layer: usize,
        n_items: usize,
        get: &(dyn Fn(usize) -> SeqRowAppend<'a> + Sync),
    ) -> Result<(), (usize, PoolError)> {
        for i in 0..n_items {
            let it = get(i);
            assert_eq!(it.k.len(), self.append_width(), "key width mismatch");
            assert_eq!(it.v.len(), self.append_width(), "value width mismatch");
        }
        let serial = |pool: &mut Self| -> Result<(), (usize, PoolError)> {
            for i in 0..n_items {
                let it = get(i);
                pool.append(it.seq, layer, it.k, it.v).map_err(|e| (i, e))?;
            }
            Ok(())
        };
        if rt.is_serial() || n_items < 2 || self.mmu.faults_active() {
            // Faults force the serial loop: every item polls the
            // schedule individually in item order, so the injection
            // sequence is identical at every thread count.
            return serial(self);
        }
        // Consecutive same-sequence runs; any irregularity (unknown
        // sequence, a sequence split across non-adjacent runs) falls back
        // to the serial loop, which surfaces errors at the right item.
        self.batch.runs.clear();
        for idx in 0..n_items {
            let it = get(idx);
            match self.batch.runs.last_mut() {
                Some((s, _, len)) if *s == it.seq.0 => *len += 1,
                _ => self.batch.runs.push((it.seq.0, idx, 1)),
            }
        }
        let runs_ok = self
            .batch
            .runs
            .iter()
            .enumerate()
            .all(|(i, &(s, _, _))| self.batch.runs[..i].iter().all(|&(p, _, _)| p != s))
            && self
                .batch
                .runs
                .iter()
                .all(|&(s, _, _)| self.seqs.contains_key(&s));
        if !runs_ok {
            return serial(self);
        }
        // Conservative pre-reservation: worst-case pages for the whole
        // batch at this layer. When it does not fit, the serial loop
        // reproduces the exact per-item failure semantics (its per-item
        // bound is weaker, so it may still make progress).
        let mut needed = 0u32;
        for &(seq_id, _, len) in &self.batch.runs {
            let state = &self.seqs[&seq_id];
            needed += self.layer_pages_needed(state, seq_id, layer, len);
        }
        if needed > self.free_pages() {
            return serial(self);
        }

        // Phase 1 (parallel): quantize every row into its sequence's own
        // streams — one task per run, rows in item order within a run, so
        // each stream sees exactly the serial append order. Only
        // per-sequence state is touched; sizes land in disjoint records.
        self.batch.recs.clear();
        self.batch.recs.resize(n_items, RowRecord::default());
        self.batch.ptrs.0.clear();
        for &(seq_id, _, _) in &self.batch.runs {
            let state = self.seqs.get_mut(&seq_id).expect("validated above");
            self.batch.ptrs.0.push(state as *mut SeqSlots);
        }
        {
            let runs = &self.batch.runs;
            let ptrs = &self.batch.ptrs;
            let recs = UnsafeSlice::new(&mut self.batch.recs);
            let exact_shard = if self.quantizer.is_none() {
                self.shard
            } else {
                None
            };
            let quantizer = self.quantizer.as_deref();
            let kv_dim = self.kv_dim;
            rt.run(runs.len(), |r| {
                let (_, start, len) = runs[r];
                // SAFETY: each run names a distinct live sequence (checked
                // above), so this is the only task touching these slots,
                // and `self.seqs` is not otherwise accessed until the
                // phase completes.
                let state_ptr: *mut SeqSlots = ptrs.0[r];
                let state = unsafe { &mut *state_ptr };
                for idx in start..start + len {
                    let it = get(idx);
                    // SAFETY: `idx` ranges are disjoint across runs.
                    let rec = unsafe { recs.get_mut(idx) };
                    rec.pos = state.slots[layer][0].rows;
                    for (ki, row) in [(0usize, it.k), (1usize, it.v)] {
                        let slot = &mut state.slots[layer][ki];
                        let row = match exact_shard {
                            Some(s) => &row[s.start..s.start + kv_dim],
                            None => row,
                        };
                        slot.append(row);
                        let bytes = encoded_row_payload(slot, quantizer, kv_dim);
                        if ki == 0 {
                            rec.key_bytes = bytes;
                        } else {
                            rec.value_bytes = bytes;
                        }
                    }
                }
            });
        }

        // Phase 2 (serial, item order): lay the encoded bytes into pages
        // and seal any block whose rows are now fully committed — the
        // exact write/seal schedule of the serial loop, so page ids and
        // trie state are bit-identical to it.
        for idx in 0..n_items {
            let it = get(idx);
            let rec = self.batch.recs[idx];
            for (kind, (dense, sparse)) in [
                (KvKind::Key, rec.key_bytes),
                (KvKind::Value, rec.value_bytes),
            ] {
                let state = self.seqs.get(&it.seq.0).expect("validated above");
                let owner = self.owner_for_pos(state, it.seq.0, rec.pos);
                self.write_pages(it.seq, owner, layer, kind, dense, sparse);
            }
            self.seal_ready_blocks(it.seq, Some((layer, rec.pos + 1)));
        }
        Ok(())
    }

    /// Appends one row to the `(seq, layer, kind)` slot and returns the
    /// `(dense, sparse)` stored byte sizes of the encoded row.
    fn append_row(
        &mut self,
        seq: SeqId,
        layer: usize,
        kind: KvKind,
        row: &[f32],
    ) -> (usize, usize) {
        let kv_dim = self.kv_dim;
        // Quantized shards pass the full row through (the stream slices
        // after whole-row quantization); exact shards slice here.
        let exact_shard = if self.quantizer.is_none() {
            self.shard
        } else {
            None
        };
        let quantizer = self.quantizer.as_deref();
        let slot = &mut self.seqs.get_mut(&seq.0).expect("checked by caller").slots[layer]
            [kind_index(kind)];
        let row = match exact_shard {
            Some(s) => &row[s.start..s.start + kv_dim],
            None => row,
        };
        slot.append(row);
        encoded_row_payload(slot, quantizer, kv_dim)
    }

    /// Lays one encoded row's bytes into `owner`'s per-head dense/sparse
    /// page streams (the burst-order write layout of §5.2). Byte totals
    /// are split evenly across heads, remainder to the lowest heads. New
    /// pages are charged to the sequence's private count (pending blocks
    /// stay private until sealed).
    fn write_pages(
        &mut self,
        seq: SeqId,
        owner: u32,
        layer: usize,
        kind: KvKind,
        dense: usize,
        sparse: usize,
    ) {
        let mut new_pages = 0u32;
        for (class, total) in [(StreamClass::Dense, dense), (StreamClass::Sparse, sparse)] {
            if total == 0 {
                continue;
            }
            let base = total / self.kv_heads;
            let extra = total % self.kv_heads;
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
        if new_pages > 0 {
            self.seqs
                .get_mut(&seq.0)
                .expect("caller validated the sequence")
                .pages += new_pages;
        }
    }

    /// Seals every pending block whose rows are complete across all
    /// layers and kinds: the block either enters the trie as a new node
    /// (its pages move from private to shared accounting) or — when a
    /// concurrent sequence already sealed the identical block — is freed
    /// and the existing node adopted instead (late dedup).
    fn seal_completed_blocks(&mut self, seq: SeqId) {
        self.seal_ready_blocks(seq, None);
    }

    /// [`seal_completed_blocks`](Self::seal_completed_blocks) with an
    /// optional `(layer, rows)` cap on one layer's committed row count.
    ///
    /// The batched append quantizes a whole iteration's rows before any
    /// page is laid, so during its serial commit phase a layer's
    /// `slot.rows` can run ahead of the rows whose pages exist; sealing a
    /// block then would move a partially-written page range into the
    /// trie. The cap restores the serial invariant: a block seals only
    /// once every one of its rows is page-committed.
    fn seal_ready_blocks(&mut self, seq: SeqId, committed: Option<(usize, usize)>) {
        loop {
            let state = self.seqs.get(&seq.0).expect("caller validated");
            let Some(plan) = &state.plan else {
                return;
            };
            if plan.sealed >= plan.blocks.len() {
                return;
            }
            let boundary = (plan.sealed + 1) * self.block_tokens;
            let complete = state.slots.iter().enumerate().all(|(l, pair)| {
                pair.iter().all(|s| {
                    let rows = match committed {
                        Some((cl, limit)) if cl == l => s.rows.min(limit),
                        _ => s.rows,
                    };
                    rows >= boundary
                })
            });
            if !complete {
                return;
            }
            self.seal_block(seq);
        }
    }

    /// Materialized dequantized rows `[start, end)` of one slot. Streaming
    /// slots keep `view` current on every append; exact-f32 slots hold the
    /// authoritative copy in `exact` (the view is lazily re-cloned).
    fn block_rows(slot: &KindSlot, kv_dim: usize, start: usize, end: usize) -> Vec<f32> {
        let src = if slot.stream.is_some() {
            &slot.view
        } else {
            &slot.exact
        };
        src[start * kv_dim..end * kv_dim].to_vec()
    }

    /// Encoded rows `[start, end)` of one fused slot. Valid because in
    /// fused mode the stream's encoded state covers absolute positions —
    /// prefix adoption feeds the stream rather than a side view.
    fn block_encoded_rows(slot: &KindSlot, start: usize, end: usize) -> Vec<FusedVector> {
        let rows = slot
            .stream
            .as_ref()
            .and_then(|s| s.encoded_rows())
            .expect("fused slots expose encoded rows");
        rows[start..end].to_vec()
    }

    /// Seals the next pending block of `seq` (see
    /// [`seal_completed_blocks`](Self::seal_completed_blocks)).
    fn seal_block(&mut self, seq: SeqId) {
        let bt = self.block_tokens;
        let kv_dim = self.kv_dim;
        let (b, pending_mmu, chunk, parent) = {
            let state = self.seqs.get(&seq.0).expect("caller validated");
            let plan = state.plan.as_ref().expect("caller checked");
            let b = plan.sealed;
            let mmu = match plan.blocks[b] {
                SeqBlock::Pending { mmu } => mmu,
                SeqBlock::Shared(_) => unreachable!("sealed blocks are skipped"),
            };
            let chunk: Box<[u32]> = plan.prompt[b * bt..(b + 1) * bt].into();
            let parent = match b.checked_sub(1) {
                None => None,
                Some(prev) => match plan.blocks[prev] {
                    SeqBlock::Shared(id) => Some(id),
                    SeqBlock::Pending { .. } => unreachable!("blocks seal in order"),
                },
            };
            (b, mmu, chunk, parent)
        };
        let sealed_id = match self.trie.child(parent, &chunk) {
            Some(existing) => {
                // Late dedup: another sequence sealed the identical block
                // first. Prefix determinism says both copies are
                // bit-identical — check it in debug builds — so drop ours
                // and adopt theirs.
                #[cfg(debug_assertions)]
                {
                    let state = self.seqs.get(&seq.0).expect("caller validated");
                    let block = self.trie.get(existing);
                    for (layer, pair) in state.slots.iter().enumerate() {
                        for (ki, slot) in pair.iter().enumerate() {
                            if slot.fused {
                                let ours = Self::block_encoded_rows(slot, b * bt, (b + 1) * bt);
                                debug_assert!(
                                    ours == block.encoded[layer][ki],
                                    "trie hit is not encoding-exact (layer {layer}, kind \
                                     {ki}): quantizer wrongly claims prefix determinism"
                                );
                            } else {
                                let ours = Self::block_rows(slot, kv_dim, b * bt, (b + 1) * bt);
                                let theirs = &block.views[layer][ki];
                                debug_assert!(
                                    ours.iter()
                                        .map(|x| x.to_bits())
                                        .eq(theirs.iter().map(|x| x.to_bits())),
                                    "trie hit is not bit-exact (layer {layer}, kind {ki}): \
                                     quantizer wrongly claims prefix determinism"
                                );
                            }
                        }
                    }
                }
                let freed = self
                    .mmu
                    .free_request(pending_mmu)
                    .expect("pending pages are exclusively owned");
                self.seqs.get_mut(&seq.0).expect("caller validated").pages -= freed;
                self.trie.retain(existing);
                let block_mmu = self.trie.get(existing).mmu;
                self.mmu.retain_request(block_mmu);
                self.stats.seal_dedups += 1;
                self.stats.bytes_deduplicated += self.trie.get(existing).bytes;
                existing
            }
            None => {
                let pages = self.mmu.request_pages(pending_mmu);
                let bytes = self.mmu.request_bytes(pending_mmu);
                let state = self.seqs.get(&seq.0).expect("caller validated");
                // Fused pools seal the encoded rows and never materialize
                // an f32 image; exact pools seal the dequantized views.
                let fused = self.kernel == KernelMode::Fused;
                let views: Vec<[Vec<f32>; 2]> = if fused {
                    state
                        .slots
                        .iter()
                        .map(|_| [Vec::new(), Vec::new()])
                        .collect()
                } else {
                    state
                        .slots
                        .iter()
                        .map(|pair| {
                            [
                                Self::block_rows(&pair[0], kv_dim, b * bt, (b + 1) * bt),
                                Self::block_rows(&pair[1], kv_dim, b * bt, (b + 1) * bt),
                            ]
                        })
                        .collect()
                };
                let mut block = TrieBlock::new(chunk, pending_mmu, pages, bytes, views);
                if fused {
                    block.encoded = state
                        .slots
                        .iter()
                        .map(|pair| {
                            [
                                Self::block_encoded_rows(&pair[0], b * bt, (b + 1) * bt),
                                Self::block_encoded_rows(&pair[1], b * bt, (b + 1) * bt),
                            ]
                        })
                        .collect();
                }
                let id = self.trie.insert(parent, block);
                // The pages move from this sequence's private count to the
                // trie's shared count.
                self.seqs.get_mut(&seq.0).expect("caller validated").pages -= pages;
                id
            }
        };
        let plan = self
            .seqs
            .get_mut(&seq.0)
            .expect("caller validated")
            .plan
            .as_mut()
            .expect("caller checked");
        plan.blocks[b] = SeqBlock::Shared(sealed_id);
        plan.sealed += 1;
    }

    fn refresh(&mut self, seq: SeqId, layer: usize, kind: KvKind) {
        let kv_dim = self.kv_dim;
        let slot = &mut self
            .seqs
            .get_mut(&seq.0)
            .expect("caller validated the sequence")
            .slots[layer][kind_index(kind)];
        if slot.stream.is_none() && slot.dirty {
            let rows = slot.exact.len() / kv_dim.max(1);
            slot.view = match &self.quantizer {
                Some(q) => q.roundtrip_matrix(&slot.exact, rows, kv_dim, layer, kind),
                None => slot.exact.clone(),
            };
            slot.dirty = false;
        }
    }

    /// Number of cached tokens for `(seq, layer)`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown sequence.
    pub fn seq_len(&self, seq: SeqId, layer: usize) -> usize {
        self.seqs.get(&seq.0).expect("unknown sequence").slots[layer][0].rows
    }

    /// Dequantized `[seq_len × kv_dim]` view of the cached keys. In fused
    /// mode this is the exact-path escape hatch: the view is rebuilt
    /// lazily from the encoded rows (attention itself goes through
    /// [`PagedKvPool::encoded_kv`] and never pays this).
    ///
    /// # Panics
    ///
    /// Panics on an unknown sequence.
    pub fn keys(&mut self, seq: SeqId, layer: usize) -> &[f32] {
        self.synced_view(seq, layer, KvKind::Key)
    }

    /// Dequantized view of the cached values (see [`PagedKvPool::keys`]).
    ///
    /// # Panics
    ///
    /// Panics on an unknown sequence.
    pub fn values(&mut self, seq: SeqId, layer: usize) -> &[f32] {
        self.synced_view(seq, layer, KvKind::Value)
    }

    /// The `(seq, layer)` K and V tensors in their encoded form — the
    /// fused kernel's read path — accounted as one query token's read.
    /// `None` unless the pool runs [`KernelMode::Fused`] (or for an
    /// unknown sequence). Takes `&self` so the key and value tensors can
    /// be borrowed together; read accounting therefore goes through
    /// relaxed atomic counters.
    pub fn encoded_kv(&self, seq: SeqId, layer: usize) -> Option<(EncodedKv<'_>, EncodedKv<'_>)> {
        if !self.has_encoded_kv(seq, layer) {
            return None;
        }
        match self.read_kv(seq, layer, 1) {
            KvRead::Fused { keys, values } => Some((keys, values)),
            KvRead::Exact { .. } => unreachable!("probed fused above"),
        }
    }

    /// Brings the dequantized views of `(seq, layer)` up to date for
    /// [`read_kv`](PagedKvPool::read_kv) — a no-op for slots on the fused
    /// read path and for views that appends maintain; the recompute
    /// fallback re-materializes here.
    ///
    /// # Panics
    ///
    /// Panics on an unknown sequence.
    pub fn sync_views(&mut self, seq: SeqId, layer: usize) {
        if !self.has_encoded_kv(seq, layer) {
            for kind in KvKind::ALL {
                self.sync_view(seq, layer, kind);
            }
        }
    }

    /// Brings one tensor's dequantized view up to date: the recompute
    /// fallback re-materialized, a fused slot's missing rows decoded.
    fn sync_view(&mut self, seq: SeqId, layer: usize, kind: KvKind) {
        assert!(self.seqs.contains_key(&seq.0), "unknown sequence");
        self.refresh(seq, layer, kind);
        let kv_dim = self.kv_dim;
        let state = self.seqs.get_mut(&seq.0).expect("checked above");
        state.slots[layer][kind_index(kind)].ensure_view(kv_dim);
    }

    /// One tensor's view, synced and charged as one full read of its rows.
    fn synced_view(&mut self, seq: SeqId, layer: usize, kind: KvKind) -> &[f32] {
        self.sync_view(seq, layer, kind);
        let slot = &self.seqs[&seq.0].slots[layer][kind_index(kind)];
        self.reads
            .exact_rows
            .fetch_add(slot.rows as u64, Ordering::Relaxed);
        self.reads
            .exact_bytes
            .fetch_add((slot.rows * self.kv_dim * 4) as u64, Ordering::Relaxed);
        &slot.view
    }

    /// What attention reads for `(seq, layer)`: the encoded tensors in
    /// fused mode, else the dequantized views as of the last
    /// [`sync_views`](PagedKvPool::sync_views). `queries` is the run of
    /// consecutive query tokens served from this borrow — the tokens whose
    /// rows are the newest `queries` cached — and sizes the read
    /// accounting (see [`KvReadStats`]). Takes `&self` so any number of
    /// sequences can be read together.
    ///
    /// # Panics
    ///
    /// Panics on an unknown sequence, or if an exact slot's view is stale.
    pub fn read_kv(&self, seq: SeqId, layer: usize, queries: usize) -> KvRead<'_> {
        let [key_slot, value_slot] = &self.seqs.get(&seq.0).expect("unknown sequence").slots[layer];
        let rows = key_slot.rows;
        let n = queries.min(rows);
        // Query `i` of the run attends `rows - n + 1 + i` K/V row pairs.
        let attended = (n * (2 * rows + 1 - n)) as u64;
        let (Some(keys), Some(values)) = (key_slot.encoded(), value_slot.encoded()) else {
            for slot in [key_slot, value_slot] {
                assert!(
                    !slot.dirty && slot.view.len() == slot.rows * self.kv_dim,
                    "exact view read without sync_views"
                );
            }
            self.reads.exact_rows.fetch_add(attended, Ordering::Relaxed);
            self.reads
                .exact_bytes
                .fetch_add(attended * (self.kv_dim * 4) as u64, Ordering::Relaxed);
            return KvRead::Exact {
                keys: &key_slot.view,
                values: &value_slot.view,
            };
        };
        // Payload of the first `m` rows of both streams, summed over the
        // run's `m`: walk back from the full payload one row at a time.
        let mut bytes = 0u64;
        for slot in [key_slot, value_slot] {
            let stream = slot.stream.as_ref().expect("encoded slots stream");
            let tail = stream.encoded_rows().expect("encoded slots keep rows");
            let mut prefix = stream.payload_bytes().unwrap_or(0);
            for fv in tail[rows - n..].iter().rev() {
                bytes += prefix as u64;
                prefix -= fv.payload_bytes();
            }
        }
        // One sweep per tile, up to the rows its last query sees.
        let swept: usize = (0..n)
            .step_by(QUERY_TILE)
            .map(|a| 2 * (rows - n + (a + QUERY_TILE).min(n)))
            .sum();
        self.reads.fused_rows.fetch_add(attended, Ordering::Relaxed);
        self.reads.fused_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.reads
            .fused_rows_swept
            .fetch_add(swept as u64, Ordering::Relaxed);
        KvRead::Fused { keys, values }
    }

    /// Whether `(seq, layer)` is served in encoded form — the branch
    /// probe, free of read accounting.
    pub fn has_encoded_kv(&self, seq: SeqId, layer: usize) -> bool {
        let Some(state) = self.seqs.get(&seq.0) else {
            return false;
        };
        let [key_slot, value_slot] = &state.slots[layer];
        key_slot.encoded().is_some() && value_slot.encoded().is_some()
    }
}

/// `(dense, sparse)` stored byte sizes of a slot's most recently appended
/// row: the stream's actual payload when tracked, the quantizer's nominal
/// estimate otherwise, raw f32 bytes for exact storage.
///
/// A free function (not a `PagedKvPool` method) so the parallel batch
/// append can call it on independently-borrowed slots.
fn encoded_row_payload(
    slot: &KindSlot,
    quantizer: Option<&dyn KvQuantizer>,
    kv_dim: usize,
) -> (usize, usize) {
    match &slot.stream {
        Some(stream) => stream.last_row_payload().unwrap_or_else(|| {
            let bits = quantizer
                .expect("streams only exist with a quantizer")
                .effective_bits(slot.rows, kv_dim);
            (((bits * kv_dim as f64) / 8.0).ceil() as usize, 0)
        }),
        None => match quantizer {
            // Recompute-fallback methods: nominal stored size.
            Some(q) => {
                let bits = q.effective_bits(slot.rows, kv_dim);
                (((bits * kv_dim as f64) / 8.0).ceil() as usize, 0)
            }
            // Exact f32 storage.
            None => (kv_dim * 4, 0),
        },
    }
}

/// Worst-case pages `rows` rows of at most `bound` bytes each need on a
/// stream whose tail page has `tail_free` bytes left: the tail absorbs
/// whole worst-case rows first, fresh pages are charged at worst-case
/// packing (rows never span pages).
fn rows_to_pages(tail_free: usize, rows: usize, bound: usize, page: usize) -> u32 {
    let absorbed = tail_free / bound;
    if absorbed >= rows {
        return 0;
    }
    let per_page = page / bound;
    ((rows - absorbed).div_ceil(per_page)) as u32
}

/// Borrowed view pairing the engine's [`RankedPools`] (one private shard
/// per tensor-parallel rank; a lone pool wrapped by
/// [`RankedPools::single`] is the one-shard case) with the batch's slot →
/// sequence mapping for one engine iteration, implementing
/// [`BatchKvCache`] for [`crate::Model::forward_batch_sharded`].
///
/// Every shard appends the same full-width rows, **lead shard first**: the
/// lead alone carries the fault injectors, so its verdict on a row arrives
/// before any follower stores it and a fault plan fires once per logical
/// append.
///
/// Appends never panic: a failing append — an injected
/// [`PoolError::Fault`], or pool exhaustion despite the scheduler's
/// [`PagedKvPool::pages_possibly_needed_n`] reservation — **poisons** its
/// batch slot instead. A poisoned slot's later appends are skipped on
/// every shard (its cached state stays exactly as of the failure, so reads
/// remain self-consistent) while every other slot proceeds untouched; the
/// engine drains [`take_poisoned`](Self::take_poisoned) after the forward
/// pass and quarantines the offending sequences — the only cross-shard
/// divergence that can exist, removed everywhere by the teardown. The
/// poison list is an empty `Vec` on the fault-free path, so the steady
/// state stays allocation-free.
pub struct PoolBatchView<'p> {
    pools: &'p mut RankedPools,
    seqs: &'p [SeqId],
    /// `(slot, error)` per poisoned slot, in failure order.
    poisoned: Vec<(usize, PoolError)>,
}

impl<'p> PoolBatchView<'p> {
    /// Creates a view where batch slot `i` maps to `seqs[i]`.
    pub fn new(pools: &'p mut RankedPools, seqs: &'p [SeqId]) -> Self {
        Self {
            pools,
            seqs,
            poisoned: Vec::new(),
        }
    }

    /// Whether `slot` failed an append this iteration.
    fn slot_poisoned(&self, slot: usize) -> bool {
        self.poisoned.iter().any(|&(s, _)| s == slot)
    }

    /// Drains the `(slot, error)` pairs of every slot whose append failed
    /// this iteration (empty on the fault-free path). The caller owns the
    /// containment: each poisoned slot's sequence holds a partially
    /// appended token (never sealed into the trie — sealing requires all
    /// layers complete) and must be torn down or restarted.
    pub fn take_poisoned(&mut self) -> Vec<(usize, PoolError)> {
        std::mem::take(&mut self.poisoned)
    }
}

impl BatchKvCache for PoolBatchView<'_> {
    fn append(&mut self, slot: usize, layer: usize, k: &[f32], v: &[f32]) {
        if self.slot_poisoned(slot) {
            return;
        }
        for pool in self.pools.ranks_mut() {
            if let Err(e) = pool.append(self.seqs[slot], layer, k, v) {
                self.poisoned.push((slot, e));
                return;
            }
        }
    }

    fn seq_len(&self, slot: usize, layer: usize) -> usize {
        self.pools.lead().seq_len(self.seqs[slot], layer)
    }

    fn read_runs(&mut self, layer: usize, runs: &[(usize, usize)]) -> Vec<Vec<KvRead<'_>>> {
        for pool in self.pools.ranks_mut() {
            for &(slot, _) in runs {
                pool.sync_views(self.seqs[slot], layer);
            }
        }
        let seqs = self.seqs;
        self.pools
            .ranks()
            .iter()
            .map(|pool| {
                runs.iter()
                    .map(|&(slot, queries)| pool.read_kv(seqs[slot], layer, queries))
                    .collect()
            })
            .collect()
    }

    fn append_only_views(&self) -> bool {
        self.pools.lead().append_only_views()
    }

    fn syncs_row_scales(&self) -> bool {
        self.pools.quantized()
    }

    fn append_batch(&mut self, rt: &Runtime, layer: usize, items: &[BatchAppend<'_>]) {
        if self.pools.num_ranks() > 1
            || self.pools.lead().faults_active()
            || !self.poisoned.is_empty()
        {
            // Per-item appends: no follower stores a row ahead of the
            // lead's verdict on it, each item polls the fault schedule in
            // item order (thread-count-independent injection), and a
            // failure poisons exactly its own slot.
            for it in items {
                self.append(it.slot, layer, it.k, it.v);
            }
            return;
        }
        // Accessor form: translate slot → sequence on the fly instead of
        // materializing a mapped item list (this adapter sits on the
        // steady-state allocation-free append path).
        let seqs = self.seqs;
        let lead = self.pools.lead_mut();
        if let Err((i, e)) = lead.append_batch_with(rt, layer, items.len(), &|i| {
            let it = &items[i];
            SeqRowAppend {
                seq: seqs[it.slot],
                k: it.k,
                v: it.v,
            }
        }) {
            // Items before `i` were applied, item `i` failed atomically:
            // poison its slot and finish the rest one by one so the
            // failure stays contained to a single sequence.
            self.poisoned.push((items[i].slot, e));
            for it in &items[i + 1..] {
                self.append(it.slot, layer, it.k, it.v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{KvCacheBackend, QuantizedCache};
    use oaken_core::{OakenConfig, OakenQuantizer, OfflineProfiler};

    fn row(d: usize, seed: u64) -> Vec<f32> {
        (0..d)
            .map(|i| {
                let u = ((i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(seed * 7919)
                    >> 33) as f32
                    / (1u64 << 31) as f32;
                let base = (u - 0.5) * 6.0;
                match i % 19 {
                    0 => base * 9.0,
                    1 => base * 0.02,
                    _ => base,
                }
            })
            .collect()
    }

    fn tiny_config(layers: usize, kv_heads: usize, head_dim: usize) -> ModelConfig {
        let mut cfg = ModelConfig::llama2_7b().proxy(layers, kv_heads * head_dim);
        cfg.num_heads = kv_heads;
        cfg.num_kv_heads = kv_heads;
        cfg
    }

    fn oaken(d: usize, layers: usize) -> Arc<dyn KvQuantizer> {
        let config = OakenConfig::default();
        let mut p = OfflineProfiler::new(config.clone(), layers);
        for s in 0..24 {
            for layer in 0..layers {
                for kind in KvKind::ALL {
                    p.observe(layer, kind, &row(d.max(64), s * 3 + layer as u64));
                }
            }
        }
        Arc::new(OakenQuantizer::new(config, p.try_finish().unwrap()))
    }

    #[test]
    fn pool_views_match_quantized_cache_bit_exactly() {
        let layers = 2;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        assert_eq!(cfg.kv_dim(), d);
        let q = oaken(d, layers);
        let mut pool = PagedKvPool::for_model(&cfg, Some(q.clone()), 256, 4096);
        let mut cache = QuantizedCache::new(q);
        cache.reset(layers, d);
        let seq = pool.alloc_seq();
        for t in 0..20u64 {
            for layer in 0..layers {
                let k = row(d, 2 * t + layer as u64);
                let v = row(d, 1000 + 2 * t + layer as u64);
                pool.append(seq, layer, &k, &v).unwrap();
                cache.append(layer, &k, &v);
            }
            for layer in 0..layers {
                let a: Vec<u32> = pool.keys(seq, layer).iter().map(|x| x.to_bits()).collect();
                let b: Vec<u32> = cache.keys(layer).iter().map(|x| x.to_bits()).collect();
                assert_eq!(a, b, "keys diverged at token {t} layer {layer}");
                let a: Vec<u32> = pool
                    .values(seq, layer)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect();
                let b: Vec<u32> = cache.values(layer).iter().map(|x| x.to_bits()).collect();
                assert_eq!(a, b, "values diverged at token {t} layer {layer}");
            }
        }
        assert_eq!(pool.seq_len(seq, 0), 20);
        assert!(pool.mmu().request_bytes(seq.0) > 0);
    }

    #[test]
    fn interleaved_sequences_do_not_cross_contaminate() {
        let layers = 1;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        let q = oaken(d, layers);
        let mut pool = PagedKvPool::for_model(&cfg, Some(q.clone()), 512, 4096);
        let a = pool.alloc_seq();
        let b = pool.alloc_seq();
        // Interleave appends: a, b, b, a, ...
        let schedule = [0u8, 1, 1, 0, 1, 0, 0, 1, 1, 0];
        let mut counts = [0u64, 0];
        for &who in &schedule {
            let (seq, salt) = if who == 0 { (a, 0) } else { (b, 500) };
            let t = counts[who as usize];
            counts[who as usize] += 1;
            pool.append(seq, 0, &row(d, salt + t), &row(d, salt + 100 + t))
                .unwrap();
        }
        // Reference: each sequence alone in its own cache.
        for (seq, salt, n) in [(a, 0u64, counts[0]), (b, 500, counts[1])] {
            let mut cache = QuantizedCache::new(q.clone());
            cache.reset(layers, d);
            for t in 0..n {
                cache.append(0, &row(d, salt + t), &row(d, salt + 100 + t));
            }
            assert_eq!(pool.keys(seq, 0), cache.keys(0));
            assert_eq!(pool.values(seq, 0), cache.values(0));
        }
    }

    #[test]
    fn exhaustion_is_a_clean_error_and_freeing_recovers() {
        let layers = 1;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        // 4 pages of 256 bytes: tiny on purpose.
        let mut pool = PagedKvPool::for_model(&cfg, None, 4, 256);
        let a = pool.alloc_seq();
        let mut appended = 0usize;
        let err = loop {
            match pool.append(a, 0, &row(d, appended as u64), &row(d, appended as u64)) {
                Ok(()) => appended += 1,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, PoolError::OutOfPages { .. }));
        assert!(appended >= 1, "at least one token must fit");
        // The failed append changed nothing.
        assert_eq!(pool.seq_len(a, 0), appended);
        let freed = pool.free_seq(a).unwrap();
        assert!(freed > 0);
        assert_eq!(pool.free_pages(), pool.capacity_pages());
        assert!(matches!(
            pool.free_seq(a),
            Err(PoolError::UnknownSequence { .. })
        ));
        // A recycled slot starts clean.
        let b = pool.alloc_seq();
        assert_eq!(pool.seq_len(b, 0), 0);
        pool.append(b, 0, &row(d, 7), &row(d, 8)).unwrap();
        assert_eq!(pool.seq_len(b, 0), 1);
    }

    #[test]
    fn admission_estimate_brackets_actual_usage() {
        let layers = 2;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        let q = oaken(d, layers);
        let mut pool = PagedKvPool::for_model(&cfg, Some(q), 4096, 1024);
        let tokens = 64usize;
        let estimate = pool.pages_for_tokens(tokens);
        let seq = pool.alloc_seq();
        for t in 0..tokens {
            for layer in 0..layers {
                pool.append(seq, layer, &row(d, t as u64), &row(d, 900 + t as u64))
                    .unwrap();
            }
        }
        let used = u64::from(pool.mmu().request_pages(seq.0));
        // The nominal estimate must be the right order of magnitude: within
        // 2x of the executed footprint either way (page rounding and the
        // sparse stream split move it, the shared bytes-per-token anchors it).
        assert!(
            estimate <= used * 2 && used <= estimate * 2,
            "estimate {estimate} vs used {used}"
        );
    }

    #[test]
    fn seq_pages_counter_matches_mmu_ground_truth() {
        let layers = 2;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        let q = oaken(d, layers);
        let mut pool = PagedKvPool::for_model(&cfg, Some(q), 512, 512);
        let a = pool.alloc_seq();
        let b = pool.alloc_seq();
        for t in 0..30u64 {
            for layer in 0..layers {
                pool.append(a, layer, &row(d, t), &row(d, t + 7)).unwrap();
            }
            if t % 3 == 0 {
                pool.append(b, 0, &row(d, 400 + t), &row(d, 500 + t))
                    .unwrap();
            }
            assert_eq!(pool.seq_pages(a), pool.mmu().request_pages(a.0));
            assert_eq!(pool.seq_pages(b), pool.mmu().request_pages(b.0));
        }
        pool.free_seq(a).unwrap();
        assert_eq!(pool.seq_pages(a), 0);
        // A recycled slot starts its counter fresh.
        let c = pool.alloc_seq();
        pool.append(c, 0, &row(d, 1), &row(d, 2)).unwrap();
        assert_eq!(pool.seq_pages(c), pool.mmu().request_pages(c.0));
    }

    #[test]
    fn pages_possibly_needed_is_a_safe_upper_bound() {
        let layers = 1;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        let q = oaken(d, layers);
        let mut pool = PagedKvPool::for_model(&cfg, Some(q), 64, 512);
        let seq = pool.alloc_seq();
        for t in 0..40 {
            let before = pool.mmu().allocator().allocated_pages();
            let bound = pool.pages_possibly_needed(seq).unwrap();
            pool.append(seq, 0, &row(d, t), &row(d, t + 77)).unwrap();
            let grown = pool.mmu().allocator().allocated_pages() - before;
            assert!(grown <= bound, "token {t}: grew {grown} > bound {bound}");
        }
    }

    // ------------------------------------------------------------------
    // Prefix-sharing tests
    // ------------------------------------------------------------------

    /// Token-deterministic rows: position `pos` of a prompt always yields
    /// the same K/V vectors (the property the real model provides — K/V at
    /// a position are a function of the token prefix).
    fn kv_for_pos(d: usize, pos: usize) -> (Vec<f32>, Vec<f32>) {
        (row(d, pos as u64), row(d, 5000 + pos as u64))
    }

    fn feed_prompt(
        pool: &mut PagedKvPool,
        seq: SeqId,
        layers: usize,
        d: usize,
        from: usize,
        to: usize,
    ) {
        for pos in from..to {
            let (k, v) = kv_for_pos(d, pos);
            for layer in 0..layers {
                pool.append(seq, layer, &k, &v).unwrap();
            }
        }
    }

    fn assert_balanced(pool: &PagedKvPool) {
        let acc = pool.page_accounting();
        assert_eq!(
            acc.total(),
            pool.capacity_pages(),
            "page accounting must balance: {acc:?}"
        );
    }

    #[test]
    fn adopted_prefix_is_bit_exact_and_dedupes_pages() {
        let layers = 2;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        let q = oaken(d, layers);
        let mut pool = PagedKvPool::for_model(&cfg, Some(q.clone()), 2048, 512);
        pool.set_block_tokens(4);
        let prompt: Vec<u32> = (0..13).map(|i| 10 + i).collect(); // 3 full blocks + tail

        // First sequence: cold, everything private, blocks seal as filled.
        let a = pool.alloc_seq_with_prefix(&prompt);
        assert_eq!(a.matched_tokens, 0);
        feed_prompt(&mut pool, a.seq, layers, d, 0, prompt.len());
        assert_eq!(pool.trie_blocks(), 3);
        assert_balanced(&pool);
        let pages_after_one = pool.capacity_pages() - pool.free_pages();

        // Second sequence: trie hit on all three blocks.
        let b = pool.alloc_seq_with_prefix(&prompt);
        assert_eq!(b.matched_tokens, 12);
        assert_eq!(pool.seq_len(b.seq, 0), 12, "adopted rows are cached");
        feed_prompt(&mut pool, b.seq, layers, d, 12, prompt.len() + 4);
        assert_balanced(&pool);
        let stats = pool.prefix_stats();
        assert_eq!(stats.trie_hits, 3);
        assert_eq!(stats.tokens_reused, 12);
        assert_eq!(stats.quant_rows_skipped, 12 * layers as u64 * 2);
        assert!(stats.bytes_deduplicated > 0);

        // The sharer consumed far fewer pages than a second private copy:
        // only its tail is new.
        let pages_after_two = pool.capacity_pages() - pool.free_pages();
        assert!(
            pages_after_two - pages_after_one < pages_after_one,
            "sharing must not double the footprint ({pages_after_one} -> {pages_after_two})"
        );

        // Bit-exactness against a private single-sequence cache.
        let mut cache = QuantizedCache::new(q);
        cache.reset(layers, d);
        for pos in 0..prompt.len() + 4 {
            let (k, v) = kv_for_pos(d, pos);
            for layer in 0..layers {
                cache.append(layer, &k, &v);
            }
        }
        for layer in 0..layers {
            let pk: Vec<u32> = pool
                .keys(b.seq, layer)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let ck: Vec<u32> = cache.keys(layer).iter().map(|x| x.to_bits()).collect();
            assert_eq!(pk, ck, "keys diverged at layer {layer}");
            let pv: Vec<u32> = pool
                .values(b.seq, layer)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let cv: Vec<u32> = cache.values(layer).iter().map(|x| x.to_bits()).collect();
            assert_eq!(pv, cv, "values diverged at layer {layer}");
        }

        // Freeing the sealer keeps the blocks alive for the sharer.
        pool.free_seq(a.seq).unwrap();
        assert_eq!(pool.trie_blocks(), 3);
        assert_balanced(&pool);
        assert_eq!(pool.seq_len(b.seq, 0), prompt.len() + 4);
        // Freeing the last sharer drains everything.
        pool.free_seq(b.seq).unwrap();
        assert_eq!(pool.trie_blocks(), 0);
        assert_eq!(pool.free_pages(), pool.capacity_pages());
    }

    #[test]
    fn concurrent_prefills_dedup_at_seal() {
        let layers = 1;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        let q = oaken(d, layers);
        let mut pool = PagedKvPool::for_model(&cfg, Some(q), 2048, 512);
        pool.set_block_tokens(4);
        let prompt: Vec<u32> = (0..9).collect(); // 2 full blocks

        // Both sequences admitted before either sealed: both miss.
        let a = pool.alloc_seq_with_prefix(&prompt);
        let b = pool.alloc_seq_with_prefix(&prompt);
        assert_eq!(a.matched_tokens + b.matched_tokens, 0);
        // Interleaved prefill, token by token.
        for pos in 0..prompt.len() {
            let (k, v) = kv_for_pos(d, pos);
            pool.append(a.seq, 0, &k, &v).unwrap();
            pool.append(b.seq, 0, &k, &v).unwrap();
        }
        // Whoever sealed second merged into the first's blocks.
        assert_eq!(pool.trie_blocks(), 2);
        let stats = pool.prefix_stats();
        assert_eq!(stats.seal_dedups, 2);
        assert!(stats.bytes_deduplicated > 0);
        assert_balanced(&pool);
        pool.free_seq(a.seq).unwrap();
        pool.free_seq(b.seq).unwrap();
        assert_eq!(pool.free_pages(), pool.capacity_pages());
        assert_eq!(pool.trie_blocks(), 0);
    }

    #[test]
    fn diverging_prompts_share_only_the_common_blocks() {
        let layers = 1;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        let q = oaken(d, layers);
        let mut pool = PagedKvPool::for_model(&cfg, Some(q), 2048, 512);
        pool.set_block_tokens(4);
        let p1: Vec<u32> = (0..13).collect();
        let mut p2 = p1.clone();
        p2[9] = 99; // diverge inside the third block

        let a = pool.alloc_seq_with_prefix(&p1);
        feed_prompt(&mut pool, a.seq, layers, d, 0, p1.len());
        assert_eq!(pool.trie_blocks(), 3);

        assert_eq!(pool.probe_prefix(&p2), 8, "two common blocks");
        let b = pool.alloc_seq_with_prefix(&p2);
        assert_eq!(b.matched_tokens, 8);
        // Feed the divergent remainder (rows keyed off the divergent
        // tokens so content genuinely differs).
        for pos in 8..p2.len() {
            let (k, v) = kv_for_pos(d, p2[pos] as usize + 1000 * usize::from(pos >= 9));
            pool.append(b.seq, 0, &k, &v).unwrap();
        }
        assert_eq!(
            pool.trie_blocks(),
            4,
            "divergent third block forks the trie"
        );
        assert_balanced(&pool);
        pool.free_seq(b.seq).unwrap();
        assert_eq!(pool.trie_blocks(), 3, "fork released, common chain kept");
        pool.free_seq(a.seq).unwrap();
        assert_eq!(pool.trie_blocks(), 0);
        assert_eq!(pool.free_pages(), pool.capacity_pages());
    }

    /// The sharded batch append must leave the pool in *exactly* the
    /// state of the serial per-item loop: views bit-identical, page
    /// counts equal, blocks sealed into the trie the same way — across
    /// chunked (multi-row) runs, prefix plans, and every thread count.
    #[test]
    fn append_batch_is_bit_identical_to_serial_appends() {
        let layers = 2;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        let q = oaken(d, layers);
        let prompt: Vec<u32> = (0..11).collect();
        for threads in [2usize, 4, 8] {
            let rt = Runtime::new(threads);
            let mut par = PagedKvPool::for_model(&cfg, Some(q.clone()), 2048, 512);
            let mut ser = PagedKvPool::for_model(&cfg, Some(q.clone()), 2048, 512);
            par.set_block_tokens(4);
            ser.set_block_tokens(4);
            let pa = par.alloc_seq_with_prefix(&prompt).seq;
            let sa = ser.alloc_seq_with_prefix(&prompt).seq;
            let pb = par.alloc_seq();
            let sb = ser.alloc_seq();
            // Chunked runs: 3 rows of sequence a, then 2 of sequence b,
            // per layer, repeated — the chunked-prefill batch shape.
            let mut pos_a = 0usize;
            let mut pos_b = 0usize;
            for _round in 0..4 {
                for layer in 0..layers {
                    let rows_a: Vec<(Vec<f32>, Vec<f32>)> =
                        (0..3).map(|j| kv_for_pos(d, pos_a + j)).collect();
                    let rows_b: Vec<(Vec<f32>, Vec<f32>)> =
                        (0..2).map(|j| kv_for_pos(d, 500 + pos_b + j)).collect();
                    let mut items = Vec::new();
                    for (k, v) in &rows_a {
                        items.push(SeqRowAppend { seq: pa, k, v });
                    }
                    for (k, v) in &rows_b {
                        items.push(SeqRowAppend { seq: pb, k, v });
                    }
                    par.append_batch(&rt, layer, &items).unwrap();
                    for (k, v) in &rows_a {
                        ser.append(sa, layer, k, v).unwrap();
                    }
                    for (k, v) in &rows_b {
                        ser.append(sb, layer, k, v).unwrap();
                    }
                }
                pos_a += 3;
                pos_b += 2;
            }
            for layer in 0..layers {
                for (p, s) in [(pa, sa), (pb, sb)] {
                    assert_eq!(par.seq_len(p, layer), ser.seq_len(s, layer));
                    let a: Vec<u32> = par.keys(p, layer).iter().map(|x| x.to_bits()).collect();
                    let b: Vec<u32> = ser.keys(s, layer).iter().map(|x| x.to_bits()).collect();
                    assert_eq!(a, b, "keys diverged ({threads} threads, layer {layer})");
                    let a: Vec<u32> = par.values(p, layer).iter().map(|x| x.to_bits()).collect();
                    let b: Vec<u32> = ser.values(s, layer).iter().map(|x| x.to_bits()).collect();
                    assert_eq!(a, b, "values diverged ({threads} threads, layer {layer})");
                }
            }
            assert_eq!(par.free_pages(), ser.free_pages(), "{threads} threads");
            assert_eq!(par.trie_blocks(), ser.trie_blocks());
            assert_eq!(par.seq_pages(pa), ser.seq_pages(sa));
            assert_eq!(par.seq_pages(pb), ser.seq_pages(sb));
            assert_eq!(par.page_accounting(), ser.page_accounting());
            assert_balanced(&par);
        }
    }

    /// Exhaustion semantics of the batched path match the serial loop:
    /// a batch whose conservative bound does not fit degrades to the
    /// per-item loop and surfaces the same partial-progress error.
    #[test]
    fn append_batch_exhaustion_matches_serial() {
        let layers = 1;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        let rt = Runtime::new(4);
        let mut par = PagedKvPool::for_model(&cfg, None, 4, 256);
        let mut ser = PagedKvPool::for_model(&cfg, None, 4, 256);
        let p = par.alloc_seq();
        let s = ser.alloc_seq();
        let rows: Vec<(Vec<f32>, Vec<f32>)> = (0..16).map(|t| kv_for_pos(d, t)).collect();
        let mut par_err = None;
        for chunk in rows.chunks(2) {
            let items: Vec<SeqRowAppend<'_>> = chunk
                .iter()
                .map(|(k, v)| SeqRowAppend { seq: p, k, v })
                .collect();
            if let Err(e) = par.append_batch(&rt, 0, &items) {
                par_err = Some(e);
                break;
            }
        }
        let mut ser_err = None;
        for (k, v) in &rows {
            if let Err(e) = ser.append(s, 0, k, v) {
                ser_err = Some(e);
                break;
            }
        }
        assert!(matches!(par_err, Some(PoolError::OutOfPages { .. })));
        assert!(matches!(ser_err, Some(PoolError::OutOfPages { .. })));
        assert_eq!(par.seq_len(p, 0), ser.seq_len(s, 0), "same rows landed");
        assert_eq!(par.free_pages(), ser.free_pages());
    }

    #[test]
    fn sharing_is_gated_on_prefix_determinism() {
        use oaken_baselines_like_calib::CalibLike;
        let layers = 1;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        let pool = PagedKvPool::for_model(&cfg, Some(Arc::new(CalibLike)), 64, 512);
        assert!(
            !pool.prefix_sharing(),
            "calib-prefix methods must not share"
        );
        let q = oaken(d, layers);
        let mut pool = PagedKvPool::for_model(&cfg, Some(q), 64, 512);
        assert!(pool.prefix_sharing(), "oaken shares");
        pool.set_prefix_sharing(false);
        let a = pool.alloc_seq_with_prefix(&(0..40).collect::<Vec<u32>>());
        assert_eq!(a.matched_tokens, 0);
    }

    /// A stand-in for a calibrate-then-freeze baseline: correct row
    /// quantization but explicitly *not* prefix-deterministic.
    mod oaken_baselines_like_calib {
        use oaken_core::{KvKind, KvQuantizer, OnlineCost};

        pub struct CalibLike;

        impl KvQuantizer for CalibLike {
            fn name(&self) -> &'static str {
                "calib-like"
            }
            fn roundtrip_matrix(
                &self,
                data: &[f32],
                _rows: usize,
                _d: usize,
                _layer: usize,
                _kind: KvKind,
            ) -> Vec<f32> {
                data.to_vec()
            }
            fn effective_bits(&self, _rows: usize, _d: usize) -> f64 {
                8.0
            }
            fn online_cost(&self) -> OnlineCost {
                OnlineCost::free()
            }
        }
    }

    #[test]
    fn exact_pool_shares_prefixes_too() {
        let layers = 1;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        let mut pool = PagedKvPool::for_model(&cfg, None, 2048, 512);
        pool.set_block_tokens(4);
        assert!(
            pool.prefix_sharing(),
            "exact f32 is trivially deterministic"
        );
        let prompt: Vec<u32> = (0..9).collect();
        let a = pool.alloc_seq_with_prefix(&prompt);
        feed_prompt(&mut pool, a.seq, layers, d, 0, prompt.len());
        let b = pool.alloc_seq_with_prefix(&prompt);
        assert_eq!(b.matched_tokens, 8);
        feed_prompt(&mut pool, b.seq, layers, d, 8, prompt.len() + 2);
        // The exact path re-materializes views from `exact`; the adopted
        // prefix must survive that.
        let keys = pool.keys(b.seq, 0).to_vec();
        assert_eq!(keys.len(), (prompt.len() + 2) * d);
        let (k0, _) = kv_for_pos(d, 0);
        assert_eq!(&keys[..d], &k0[..], "adopted rows present after refresh");
        assert_balanced(&pool);
        pool.free_seq(a.seq).unwrap();
        pool.free_seq(b.seq).unwrap();
        assert_eq!(pool.free_pages(), pool.capacity_pages());
    }

    #[test]
    fn chunk_reservation_bound_is_safe() {
        let layers = 2;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        let q = oaken(d, layers);
        let mut pool = PagedKvPool::for_model(&cfg, Some(q), 4096, 512);
        pool.set_block_tokens(4);
        let prompt: Vec<u32> = (0..23).collect();
        let s = pool.alloc_seq_with_prefix(&prompt);
        let mut pos = 0usize;
        for chunk in [3usize, 5, 4, 7, 4] {
            let before = pool.mmu().allocator().allocated_pages();
            let bound = pool.pages_possibly_needed_n(s.seq, chunk).unwrap();
            feed_prompt(&mut pool, s.seq, layers, d, pos, pos + chunk);
            pos += chunk;
            let grown = pool.mmu().allocator().allocated_pages() - before;
            assert!(
                grown <= bound,
                "chunk at {pos}: grew {grown} > bound {bound}"
            );
        }
        assert_balanced(&pool);
    }

    // ------------------------------------------------------------------
    // Suspend/resume (two-tier memory) tests
    // ------------------------------------------------------------------

    #[test]
    fn suspend_resume_roundtrip_is_bit_exact_and_frees_device_pages() {
        let layers = 2;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        let q = oaken(d, layers);
        let mut pool = PagedKvPool::for_model(&cfg, Some(q.clone()), 2048, 512);
        pool.set_block_tokens(4);
        let prompt: Vec<u32> = (0..10).collect();
        let s = pool.alloc_seq_with_prefix(&prompt);
        feed_prompt(&mut pool, s.seq, layers, d, 0, 7); // mid-prefill: 1 sealed, 1 pending
        let before_free = pool.free_pages();
        let before_private = pool.seq_pages(s.seq);
        assert!(before_private > 0);
        let keys_before: Vec<u32> = pool.keys(s.seq, 0).iter().map(|x| x.to_bits()).collect();

        let out = pool.suspend_seq(s.seq).unwrap();
        assert_eq!(out.pages, before_private, "exactly the private pages move");
        assert!(out.bytes > 0);
        assert_eq!(pool.free_pages(), before_free + before_private);
        assert!(pool.is_suspended(s.seq));
        assert_eq!(pool.suspended_seq_pages(s.seq), before_private);
        assert_eq!(pool.host_pages_used(), before_private);
        assert_balanced(&pool);
        // Suspended handles are not active.
        assert!(matches!(
            pool.append(s.seq, 0, &row(d, 0), &row(d, 0)),
            Err(PoolError::UnknownSequence { .. })
        ));

        let back = pool.resume_seq(s.seq).unwrap();
        assert_eq!(back.pages, before_private, "replay repacks exactly");
        assert_eq!(back.bytes, out.bytes);
        assert_eq!(pool.host_pages_used(), 0);
        assert_eq!(pool.seq_pages(s.seq), before_private);
        assert_balanced(&pool);
        let keys_after: Vec<u32> = pool.keys(s.seq, 0).iter().map(|x| x.to_bits()).collect();
        assert_eq!(keys_after, keys_before, "views survive the round trip");

        // The resumed sequence keeps appending, seals its remaining
        // blocks, and its whole history stays bit-exact with an
        // uninterrupted cache.
        feed_prompt(&mut pool, s.seq, layers, d, 7, prompt.len() + 3);
        assert_eq!(pool.trie_blocks(), 2);
        let mut cache = QuantizedCache::new(q);
        cache.reset(layers, d);
        for pos in 0..prompt.len() + 3 {
            let (k, v) = kv_for_pos(d, pos);
            for layer in 0..layers {
                cache.append(layer, &k, &v);
            }
        }
        for layer in 0..layers {
            let a: Vec<u32> = pool
                .keys(s.seq, layer)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let b: Vec<u32> = cache.keys(layer).iter().map(|x| x.to_bits()).collect();
            assert_eq!(a, b, "keys diverged after resume (layer {layer})");
            let a: Vec<u32> = pool
                .values(s.seq, layer)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let b: Vec<u32> = cache.values(layer).iter().map(|x| x.to_bits()).collect();
            assert_eq!(a, b, "values diverged after resume (layer {layer})");
        }
        let stats = pool.swap_stats();
        assert_eq!(stats.swap_outs, 2, "tail + one pending block froze");
        assert_eq!(stats.swap_ins, 2);
        assert_eq!(stats.bytes_to_host, stats.bytes_to_device);
        pool.free_seq(s.seq).unwrap();
        assert_eq!(pool.free_pages(), pool.capacity_pages());
    }

    #[test]
    fn export_import_handoff_is_bit_exact_across_pools() {
        let layers = 2;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        let q = oaken(d, layers);
        let mut src = PagedKvPool::for_model(&cfg, Some(q.clone()), 2048, 512);
        src.set_block_tokens(4);
        let prompt: Vec<u32> = (0..13).collect();

        // Seal the prefix once, then let the exported sequence adopt it:
        // the export path must flatten shared trie blocks into a fully
        // private payload.
        let warm = src.alloc_seq_with_prefix(&prompt);
        feed_prompt(&mut src, warm.seq, layers, d, 0, prompt.len());
        let s = src.alloc_seq_with_prefix(&prompt);
        assert_eq!(s.matched_tokens, 12, "three blocks adopted");
        feed_prompt(&mut src, s.seq, layers, d, 12, prompt.len() + 2);

        let fed = prompt.len() + 2;
        let transfer = src.export_seq(s.seq).unwrap();
        assert_eq!(transfer.tokens(), fed, "every row ships, adopted included");
        assert!(transfer.wire_bytes() > transfer.payload().bytes);
        // Source side is torn down exactly like free_seq.
        assert!(!src.is_live(s.seq) && !src.is_suspended(s.seq));
        assert!(matches!(
            src.export_seq(s.seq),
            Err(PoolError::UnknownSequence { .. })
        ));
        assert_balanced(&src);
        src.free_seq(warm.seq).unwrap();
        assert_eq!(src.free_pages(), src.capacity_pages());

        // Land on a cold destination pool and resume through the normal
        // suspended-sequence machinery.
        let mut dst = PagedKvPool::for_model(&cfg, Some(q.clone()), 2048, 512);
        dst.set_block_tokens(4);
        dst.can_import(&transfer).unwrap();
        let (seq, receipt) = dst.import_seq(transfer).unwrap();
        assert!(receipt.pages > 0 && receipt.bytes > 0);
        assert!(dst.is_suspended(seq));
        assert_eq!(dst.host_pages_used(), receipt.pages);
        let back = dst.resume_seq(seq).unwrap();
        assert_eq!(back.pages, receipt.pages);
        assert_eq!(back.bytes, receipt.bytes);
        assert_balanced(&dst);

        // The imported history and its continuation are bit-exact with an
        // uninterrupted cache fed the same rows.
        feed_prompt(&mut dst, seq, layers, d, fed, fed + 3);
        let mut cache = QuantizedCache::new(q);
        cache.reset(layers, d);
        for pos in 0..fed + 3 {
            let (k, v) = kv_for_pos(d, pos);
            for layer in 0..layers {
                cache.append(layer, &k, &v);
            }
        }
        for layer in 0..layers {
            let a: Vec<u32> = dst.keys(seq, layer).iter().map(|x| x.to_bits()).collect();
            let b: Vec<u32> = cache.keys(layer).iter().map(|x| x.to_bits()).collect();
            assert_eq!(a, b, "keys diverged after handoff (layer {layer})");
            let a: Vec<u32> = dst.values(seq, layer).iter().map(|x| x.to_bits()).collect();
            let b: Vec<u32> = cache.values(layer).iter().map(|x| x.to_bits()).collect();
            assert_eq!(a, b, "values diverged after handoff (layer {layer})");
        }
        dst.free_seq(seq).unwrap();
        assert_eq!(dst.free_pages(), dst.capacity_pages());
    }

    #[test]
    fn rejected_import_hands_the_transfer_back() {
        let layers = 1;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        let q = oaken(d, layers);
        let mut src = PagedKvPool::for_model(&cfg, Some(q.clone()), 2048, 512);
        let s = src.alloc_seq();
        feed_prompt(&mut src, s, layers, d, 0, 12);
        let transfer = src.export_seq(s).unwrap();

        // A destination whose host tier is too small refuses the landing
        // and hands the transfer back for a later retry.
        let mut tiny = PagedKvPool::for_model(&cfg, Some(q.clone()), 2, 256);
        let needed = transfer.payload().pages_needed(tiny.page_size());
        assert!(needed > 2);
        assert!(matches!(
            tiny.can_import(&transfer),
            Err(PoolError::OutOfHostPages { .. })
        ));
        let (transfer, err) = tiny.import_seq(transfer).unwrap_err();
        assert!(matches!(err, PoolError::OutOfHostPages { .. }));
        assert_eq!(tiny.host_pages_used(), 0, "nothing landed");

        // The returned transfer is intact: a roomier pool accepts it.
        let mut dst = PagedKvPool::for_model(&cfg, Some(q), 2048, 512);
        let (seq, _) = dst.import_seq(transfer).unwrap();
        dst.resume_seq(seq).unwrap();
        assert_eq!(dst.seq_len(seq, 0), 12);
    }

    #[test]
    fn suspended_sharer_keeps_trie_blocks_alive() {
        let layers = 1;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        let q = oaken(d, layers);
        let mut pool = PagedKvPool::for_model(&cfg, Some(q), 2048, 512);
        pool.set_block_tokens(4);
        let prompt: Vec<u32> = (0..9).collect();
        let a = pool.alloc_seq_with_prefix(&prompt);
        feed_prompt(&mut pool, a.seq, layers, d, 0, prompt.len());
        assert_eq!(pool.trie_blocks(), 2);
        let b = pool.alloc_seq_with_prefix(&prompt);
        assert_eq!(b.matched_tokens, 8);
        feed_prompt(&mut pool, b.seq, layers, d, 8, prompt.len() + 2);

        // Suspend the sharer, retire the sealer: the blocks must survive
        // on the suspended sequence's refcounts alone.
        pool.suspend_seq(b.seq).unwrap();
        pool.free_seq(a.seq).unwrap();
        assert_eq!(pool.trie_blocks(), 2, "suspended refcounts pin the trie");
        assert_balanced(&pool);

        pool.resume_seq(b.seq).unwrap();
        assert_eq!(pool.seq_len(b.seq, 0), prompt.len() + 2);
        pool.free_seq(b.seq).unwrap();
        assert_eq!(pool.trie_blocks(), 0);
        assert_eq!(pool.free_pages(), pool.capacity_pages());
    }

    #[test]
    fn drop_suspended_seq_releases_host_and_shared_pages() {
        let layers = 1;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        let q = oaken(d, layers);
        let mut pool = PagedKvPool::for_model(&cfg, Some(q), 2048, 512);
        pool.set_block_tokens(4);
        let prompt: Vec<u32> = (0..9).collect();
        let a = pool.alloc_seq_with_prefix(&prompt);
        feed_prompt(&mut pool, a.seq, layers, d, 0, prompt.len());
        pool.suspend_seq(a.seq).unwrap();
        assert!(pool.host_pages_used() > 0);
        pool.drop_suspended_seq(a.seq).unwrap();
        assert_eq!(pool.host_pages_used(), 0);
        assert_eq!(pool.trie_blocks(), 0, "last sharer's blocks released");
        assert_eq!(pool.free_pages(), pool.capacity_pages());
        assert!(matches!(
            pool.drop_suspended_seq(a.seq),
            Err(PoolError::UnknownSequence { .. })
        ));
        // The swap-in counter must not have moved: bytes were discarded.
        assert_eq!(pool.swap_stats().swap_ins, 0);
    }

    #[test]
    fn suspend_respects_host_capacity_and_resume_respects_device() {
        let layers = 1;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        let mut pool = PagedKvPool::for_model(&cfg, None, 16, 256);
        pool.set_host_pages(2);
        let a = pool.alloc_seq();
        for t in 0..4 {
            pool.append(a, 0, &row(d, t), &row(d, 100 + t)).unwrap();
        }
        let private = pool.seq_pages(a);
        assert!(private > 2, "workload must exceed the tiny host tier");
        let err = pool.suspend_seq(a).unwrap_err();
        assert!(matches!(err, PoolError::OutOfHostPages { .. }), "{err}");
        assert_eq!(pool.seq_pages(a), private, "failed suspend is a no-op");

        pool.set_host_pages(16);
        pool.suspend_seq(a).unwrap();
        // Fill the device so the resume cannot fit.
        let b = pool.alloc_seq();
        let mut t = 0u64;
        while pool
            .append(b, 0, &row(d, 900 + t), &row(d, 990 + t))
            .is_ok()
        {
            t += 1;
        }
        let err = pool.resume_seq(a).unwrap_err();
        assert!(matches!(err, PoolError::OutOfPages { .. }), "{err}");
        assert!(pool.is_suspended(a), "failed resume keeps the seq frozen");
        pool.free_seq(b).unwrap();
        pool.resume_seq(a).unwrap();
        assert_eq!(pool.seq_len(a, 0), 4);
    }

    #[test]
    fn rows_to_pages_bounds() {
        // Tail absorbs two 100-byte rows of a 512-byte page.
        assert_eq!(rows_to_pages(250, 2, 100, 512), 0);
        // Third row opens a page that packs five.
        assert_eq!(rows_to_pages(250, 3, 100, 512), 1);
        assert_eq!(rows_to_pages(0, 11, 100, 512), 3);
        assert_eq!(rows_to_pages(0, 1, 100, 512), 1);
    }
}
