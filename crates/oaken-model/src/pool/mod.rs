//! A shared, paged, quantized KV pool serving many concurrent sequences —
//! the software model of Oaken's MMU-managed device memory (§5.2) under a
//! continuous-batching engine.
//!
//! [`PagedKvPool`] is the one KV store: it multiplexes every active
//! sequence over paged device memory — the serving engine's batch, or the
//! lone sequence of a [`crate::Session`] — and every appended token row is
//! quantized incrementally through the per-`(sequence, layer, kind)`
//! [`oaken_core::KvRowStream`]s, and its encoded payload is laid into
//! fixed-size physical pages, so capacity, fragmentation and admission are
//! **real**.
//!
//! # One control plane over per-rank data planes
//!
//! Oaken puts one quantization engine on each memory channel, each owning
//! its shard of the KV stream (§5.2). The pool mirrors that split for
//! tensor-parallel ranks ([`PagedKvPool::set_ranks`]): what a sequence
//! *is* exists once — the sequence table, the prefix trie and each
//! sequence's prompt plan, residency, owner ids and the fault schedule —
//! while each rank keeps only a data plane: its own page ledger (an
//! [`oaken_mmu::MmuSim`] over its share of device and host capacity) and
//! its channel slice of every sequence and trie block. One tail or block
//! has one owner id on every rank; page lists stay per rank, because a
//! slice's sparse log is as long as its own outliers. Every operation
//! checks every rank before it mutates any, so nothing is ever half
//! applied. A one-rank pool is one data plane holding whole rows.
//!
//! # Module map
//!
//! One `impl PagedKvPool`, split along its five seams; each module's docs
//! state the contract it owns.
//!
//! | module | seam | owns |
//! |---|---|---|
//! | `seq` | sequence lifecycle | admission, a step's fault check before its pass (`reserve`), the one guarded append of a run of rows (page bound, quantize, page commit, seal), the one teardown, slot recycling |
//! | `blocks` | trie blocks | prompt plan, adoption, sealing and late dedup into the [prefix trie](crate::trie) |
//! | `tiers` | tiers | suspend / resume to the host tier, export / import across pools ([`KvTransfer`]) |
//! | `reads` | read views | dequantized views, encoded tensors, the runs of a layer grouped by the trie blocks they share ([`ShardReads`]), [`KvReadStats`] |
//! | `pages` | page accounting | one rank's `MmuSim` and the **page layout** — one dense slab and one sparse log per owner; the only file that names a page stream, and the only count of pages and sharers |
//!
//! `batch_view` holds [`PoolBatchView`], the engine's per-iteration
//! adapter over the pool; this file holds the value types, the
//! constructors, the configuration surface and [`RankPages`], one rank's
//! accounting.
//!
//! # Bit-exactness
//!
//! For methods whose per-row state is offline or per-token (Oaken, FP16,
//! exact f32, the recompute fallbacks), a sequence's dequantized views
//! depend only on its own append history, so any interleaving of
//! sequences — and any mix of prefix adoption, suspension and handoff — is
//! bit-identical to the same sequence alone in a pool (enforced by
//! `oaken-serving`'s engine property tests against `Session`, which is
//! exactly that).

mod batch_view;
mod blocks;
mod pages;
mod reads;
mod seq;
mod tiers;

pub use batch_view::PoolBatchView;
pub use reads::{KvReadStats, ShardReads};
pub use tiers::KvTransfer;

use crate::cache::KernelMode;
use crate::config::ModelConfig;
use crate::ranks::RankPlan;
use crate::trie::{BlockRows, PrefixStats, PrefixTrie};
use oaken_core::{KvKind, KvQuantizer, KvRowStream};
use oaken_mmu::{FaultInjector, FaultKind, FaultOp, FaultPlan, MmuSim};
use oaken_runtime::chunk_range;
use pages::PageLedger;
use reads::ReadCounters;
use seq::SeqSlots;
use std::collections::HashMap;
use std::fmt;
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
    /// The size tables of an imported [`KvTransfer`] — or of a suspended
    /// sequence's frozen entry, checked again when
    /// [`resume_seq`](PagedKvPool::resume_seq) would thaw it — fail the
    /// checksum they carry (bit-flipped, truncated or reordered on the
    /// way here or while on host). Nothing was mutated, and retrying
    /// cannot help.
    CorruptTransfer,
    /// An imported [`KvTransfer`] carries a token larger than this pool's
    /// page — its exporter wrote larger pages than this pool could.
    /// Nothing was mutated, and retrying cannot help.
    TransferExceedsPage {
        /// The offending token payload size.
        bytes: u32,
        /// This pool's page size.
        page_size: usize,
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
            PoolError::CorruptTransfer => {
                write!(f, "transferred size tables fail their checksum")
            }
            PoolError::TransferExceedsPage { bytes, page_size } => {
                write!(
                    f,
                    "imported transfer carries a {bytes}-byte token, larger than \
                     the {page_size}-byte page"
                )
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
/// always sum to the device capacity (the ownership invariant the serving
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

/// Whether `q` streams every `(layer, kind)` tensor incrementally, each
/// stream passing `check` — `row_stream` is a per-tensor decision, so all
/// are probed rather than assuming layer 0's answer generalizes.
fn every_stream(
    q: &dyn KvQuantizer,
    num_layers: usize,
    kv_dim: usize,
    check: impl Fn(&dyn KvRowStream) -> bool,
) -> bool {
    (0..num_layers).all(|layer| {
        (KvKind::ALL.iter()).all(|&k| q.row_stream(kv_dim, layer, k).is_some_and(|s| check(&*s)))
    })
}

/// Default tokens per shareable prefix block.
pub const DEFAULT_BLOCK_TOKENS: usize = 16;

/// The shared paged KV pool. See the module docs for the design.
pub struct PagedKvPool {
    quantizer: Option<Arc<dyn KvQuantizer>>,
    model: ModelConfig,
    /// Which KV heads, and so which channels of every row, each rank
    /// stores.
    plan: RankPlan,
    /// One data plane per rank: the page layout and the MMU under it.
    ranks: Vec<PageLedger>,
    /// A quantized pool whose streams keep encoded rows quantizes each
    /// row here once, at full width, and every rank adopts its channels
    /// (`None` for exact rows and for other quantizers).
    encoder: Option<seq::RankEncoder>,
    /// The installed fault schedule, polled once per logical operation.
    faults: Option<FaultInjector>,
    /// The next sequence owner: sequence owners count up from 0, and a
    /// sequence's id *is* its tail's owner.
    next_seq_owner: u32,
    /// The next pending-block owner, counting down from `u32::MAX`.
    next_block_owner: u32,
    seqs: HashMap<u32, SeqSlots>,
    /// Sequences suspended to the host tier: their stream/view state is
    /// retained verbatim (which is what makes resume bit-exact), their
    /// private pages live in each rank's swap pool, and their shared trie
    /// blocks stay adopted (page references held) so the payload a resume
    /// needs can never be destroyed underneath them.
    suspended: HashMap<u32, SeqSlots>,
    recycled: Vec<SeqSlots>,
    /// Tokens per shareable prefix block.
    block_tokens: usize,
    /// Whether the quantizer permits sharing at all.
    sharing_supported: bool,
    /// Whether sharing is currently enabled (supported and not disabled).
    sharing: bool,
    trie: PrefixTrie,
    stats: PrefixStats,
    /// Whether the quantizer provides incremental row streams (probed once
    /// at construction): streams keep views append-only, the gate for the
    /// batched forward pass. Exact-f32 pools (no quantizer) also qualify.
    streaming: bool,
    /// Which attention kernel reads the pool's sequences (installed by
    /// [`PagedKvPool::set_kernel_mode`]).
    kernel: KernelMode,
    /// Cumulative read-path traffic, split by kernel family.
    reads: ReadCounters,
}

impl fmt::Debug for PagedKvPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagedKvPool")
            .field(
                "quantizer",
                &self.quantizer.as_ref().map_or("exact-f32", |q| q.name()),
            )
            .field("num_layers", &self.model.num_layers)
            .field("kv_dim", &self.model.kv_dim())
            .field("ranks", &self.ranks.len())
            .field("active_seqs", &self.seqs.len())
            .field("suspended_seqs", &self.suspended.len())
            .field("free_pages", &self.free_pages())
            .field("prefix_sharing", &self.sharing)
            .field("trie_blocks", &self.trie.len())
            .finish()
    }
}

impl PagedKvPool {
    /// Creates a one-rank pool for `model`'s KV geometry over `num_pages`
    /// pages of `page_size` bytes. `quantizer = None` stores exact f32 rows
    /// (the FP32 reference configuration). Prefix sharing is enabled
    /// whenever the quantizer streams every tensor and is
    /// prefix-deterministic (always, for exact f32; never for the
    /// recompute fallback, which re-derives a view over the whole prefix),
    /// with [`DEFAULT_BLOCK_TOKENS`]-token blocks. The host tier defaults
    /// to mirroring the device capacity;
    /// [`set_host_pages`](Self::set_host_pages) resizes or disables it.
    ///
    /// # Panics
    ///
    /// Panics if a quantized pool's `page_size` cannot hold one worst-case
    /// sparse row (one outlier byte per channel: pages must be at least
    /// `kv_dim` bytes). Dense rows straddle pages, so an exact-f32 pool
    /// takes any page size.
    pub fn for_model(
        model: &ModelConfig,
        quantizer: Option<Arc<dyn KvQuantizer>>,
        num_pages: u32,
        page_size: usize,
    ) -> Self {
        let kv_dim = model.kv_dim();
        let streaming = (quantizer.as_deref())
            .is_none_or(|q| every_stream(q, model.num_layers, kv_dim, |_| true));
        let sharing_supported =
            streaming && quantizer.as_ref().is_none_or(|q| q.prefix_deterministic());
        let encodes = |s: &dyn KvRowStream| s.encoded_rows().is_some();
        let encoder = (quantizer.as_deref())
            .filter(|q| every_stream(*q, model.num_layers, kv_dim, encodes))
            .map(|q| seq::RankEncoder::new(q, model.num_layers, kv_dim, &RankPlan::new(model, 1)));
        let mut pool = Self {
            quantizer,
            model: model.clone(),
            plan: RankPlan::new(model, 1),
            ranks: Vec::new(),
            encoder,
            faults: None,
            next_seq_owner: 0,
            next_block_owner: u32::MAX,
            seqs: HashMap::new(),
            suspended: HashMap::new(),
            recycled: Vec::new(),
            block_tokens: DEFAULT_BLOCK_TOKENS,
            sharing_supported,
            sharing: sharing_supported,
            trie: PrefixTrie::default(),
            stats: PrefixStats::default(),
            streaming,
            kernel: KernelMode::Exact,
            reads: ReadCounters::default(),
        };
        pool.ranks = vec![pool.ledger(0, num_pages, page_size)];
        pool
    }

    /// Rank `r`'s page ledger over `num_pages` device pages: its slice's
    /// width, and the nominal bytes a token of that slice takes.
    fn ledger(&self, r: usize, num_pages: u32, page_size: usize) -> PageLedger {
        let width = self.width(r);
        let bits = (self.quantizer.as_ref()).map_or(32.0, |q| q.effective_bits(1, width));
        let bytes_per_token = self.model.kv_slice_bytes_per_token(width, bits);
        let sparse = self.quantizer.is_some();
        PageLedger::new(num_pages, page_size, width, sparse, bytes_per_token)
    }

    /// Splits the idle pool into tensor-parallel data planes and returns
    /// how many it installed — what the pool can hold, like
    /// [`set_kernel_mode`](Self::set_kernel_mode): `ranks` clamped to the
    /// model's KV heads, and 1 for a quantizer without encoded row
    /// streams (ranks adopt slices of the encoded form). Rank `r` stores
    /// its [`RankPlan`] heads' channels of every K/V row on a page ledger
    /// of its own, device and host capacity divided by [`chunk_range`].
    /// Sequences, the trie and the fault schedule stay one. A quantized
    /// pool's encoder quantizes each row at full width: Oaken's scales are
    /// whole-row min/max, so a rank quantizing its own channels would
    /// compute other scales and other bits — each row is encoded once and
    /// every rank adopts its slice.
    ///
    /// # Panics
    ///
    /// Panics unless the pool is idle, if `ranks` is zero, or if the split
    /// leaves a rank without pages.
    pub fn set_ranks(&mut self, ranks: usize) -> usize {
        self.assert_idle("ranks can only be split");
        let (layers, kv_dim) = (self.model.num_layers, self.model.kv_dim());
        let ranks = if ranks > 1 && self.quantized() && !self.encodes() {
            1
        } else {
            ranks.min(self.model.num_kv_heads)
        };
        let capacity = self.capacity_pages() as usize;
        let host = self.host_capacity_pages() as usize;
        let page_size = self.page_size();
        self.plan = RankPlan::new(&self.model, ranks);
        self.ranks = (0..ranks)
            .map(|r| {
                let pages = chunk_range(r, capacity, ranks).len() as u32;
                assert!(
                    pages > 0,
                    "capacity {capacity} leaves rank {r} without pages"
                );
                let mut ledger = self.ledger(r, pages, page_size);
                ledger.set_host_pages(chunk_range(r, host, ranks).len() as u32);
                ledger
            })
            .collect();
        if self.encodes() {
            let q = self
                .quantizer
                .as_deref()
                .expect("an encoding pool is quantized");
            self.encoder = Some(seq::RankEncoder::new(q, layers, kv_dim, &self.plan));
        }
        // Recycled slots are cut at the old widths.
        self.recycled.clear();
        ranks
    }

    /// The ownership map: which channels each rank stores.
    pub fn plan(&self) -> &RankPlan {
        &self.plan
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Rank `r`'s accounting.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a rank of the pool.
    pub fn rank(&self, r: usize) -> RankPages<'_> {
        assert!(r < self.ranks.len(), "rank {r} of {}", self.ranks.len());
        RankPages { pool: self, r }
    }

    /// Every rank's accounting, rank order.
    pub fn ranks(&self) -> impl Iterator<Item = RankPages<'_>> + '_ {
        (0..self.ranks.len()).map(|r| RankPages { pool: self, r })
    }

    /// `f` of every rank, summed.
    fn sum_ranks<T: std::iter::Sum<T>>(&self, f: impl Fn(RankPages<'_>) -> T) -> T {
        self.ranks().map(f).sum()
    }

    /// Width of rank `r`'s slice of a K/V row.
    fn width(&self, r: usize) -> usize {
        self.plan.kv_channels(r).len()
    }

    /// Whether the pool stores quantized rows (the forward pass accounts a
    /// scale sync per appended row of those).
    pub(crate) fn quantized(&self) -> bool {
        self.quantizer.is_some()
    }

    /// Whether every `(layer, kind)` stream of the pool's quantizer keeps
    /// encoded rows — what rank shards adopt and the fused kernel reads.
    fn encodes(&self) -> bool {
        self.encoder.is_some()
    }

    /// Rows the pool's encoder has quantized, keys and values.
    #[cfg(test)]
    pub(crate) fn rows_encoded(&self) -> usize {
        self.encoder.as_ref().map_or(0, |e| e.quantized)
    }

    /// Rank 0's MMU simulator (read-only) — a one-rank pool's only one:
    /// each owner's pages and per-token sizes, refcounts, the host tier,
    /// and fragmentation statistics over the actual stored sizes.
    /// [`RankPages::mmu`] reaches every rank's.
    pub fn mmu(&self) -> &MmuSim {
        self.ranks[0].mmu()
    }

    /// Total device pages, every rank.
    pub fn capacity_pages(&self) -> u32 {
        self.sum_ranks(|r| r.capacity_pages())
    }

    /// Currently free pages, every rank.
    pub fn free_pages(&self) -> u32 {
        self.sum_ranks(|r| r.free_pages())
    }

    /// Pages currently allocated, every rank.
    pub fn pages_in_use(&self) -> u32 {
        self.sum_ranks(|r| r.pages_in_use())
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.mmu().allocator().page_size()
    }

    /// Number of active sequences.
    pub fn active_seqs(&self) -> usize {
        self.seqs.len()
    }

    /// Pages owned *exclusively* by a live sequence, every rank — its
    /// private tail streams plus its unsealed pending blocks, as each
    /// rank's page ledger holds them (0 for handles that are not live).
    /// Adopted shared pages are not included; they are accounted once,
    /// under [`PagedKvPool::shared_block_pages`].
    pub fn seq_pages(&self, seq: SeqId) -> u32 {
        let Some(state) = self.seqs.get(&seq.0) else {
            return 0;
        };
        let owners = || state.private_owners(seq.0);
        self.ranks.iter().map(|l| l.device_pages(owners())).sum()
    }

    /// Nominal KV bytes per token of whole rows (the shared
    /// bytes-per-token figure the analytic capacity model also uses).
    pub fn bytes_per_token(&self) -> u64 {
        let kv_dim = self.model.kv_dim();
        let bits = (self.quantizer.as_ref()).map_or(32.0, |q| q.effective_bits(1, kv_dim));
        self.model.kv_bytes_per_token(bits)
    }

    /// Whether prefix sharing is active.
    pub fn prefix_sharing(&self) -> bool {
        self.sharing
    }

    /// Enables or disables prefix sharing. Disabling always works — every
    /// sequence then keeps fully private page streams; enabling is a no-op
    /// when the quantizer is not prefix-deterministic.
    ///
    /// # Panics
    ///
    /// Panics unless the pool is idle — the switch is a construction-time
    /// choice.
    pub fn set_prefix_sharing(&mut self, enabled: bool) {
        self.assert_idle("prefix sharing can only be toggled");
        self.sharing = enabled && self.sharing_supported;
    }

    /// The one idle check behind every construction-time setter: no
    /// sequence active **or suspended**, and an empty trie. A suspended
    /// sequence keeps its prompt plan, slot widths and adopted blocks, all
    /// cut for the configuration it was admitted under.
    fn assert_idle(&self, what: &str) {
        assert!(
            self.seqs.is_empty() && self.suspended.is_empty() && self.trie.len() == 0,
            "{what} on an idle pool"
        );
    }

    /// Selects the attention kernel every read from now on runs — live
    /// sequences included — and returns the mode actually installed:
    /// [`KernelMode::Fused`] silently downgrades to [`KernelMode::Exact`]
    /// when the pool cannot support it — no quantizer (exact-f32 pools),
    /// no streaming path, or any `(layer, kind)` stream without an encoded
    /// form (every non-Oaken baseline). The mode picks the read kernel and
    /// nothing else: rows, sealed trie blocks and transfers are stored
    /// alike in both modes. Under `Fused`, attention reads go through
    /// [`PagedKvPool::encoded_kv`]; under `Exact`, through views decoded
    /// on read.
    pub fn set_kernel_mode(&mut self, kernel: KernelMode) -> KernelMode {
        self.kernel = if kernel == KernelMode::Fused && self.encodes() {
            KernelMode::Fused
        } else {
            KernelMode::Exact
        };
        self.kernel
    }

    /// The installed attention kernel.
    pub fn kernel_mode(&self) -> KernelMode {
        self.kernel
    }

    /// Cumulative KV read-path traffic, split by kernel family, every
    /// rank.
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
    /// Panics on zero, or unless the pool is idle.
    pub fn set_block_tokens(&mut self, block_tokens: usize) {
        assert!(block_tokens > 0, "blocks must hold at least one token");
        self.assert_idle("block granularity can only change");
        self.block_tokens = block_tokens;
    }

    /// Cumulative prefix-cache counters.
    pub fn prefix_stats(&self) -> PrefixStats {
        self.stats
    }

    /// Pages currently held by sealed trie blocks, every rank (each block
    /// counted once, however many sequences share it) — a running total of
    /// each rank's page ledger, with no per-block or per-sequence work.
    pub fn shared_block_pages(&self) -> u32 {
        self.ranks.iter().map(PageLedger::shared_pages).sum()
    }

    /// Sealed blocks currently live in the trie.
    pub fn trie_blocks(&self) -> usize {
        self.trie.len()
    }

    /// Host-tier capacity in pages, every rank (same page size as the
    /// device tier).
    pub fn host_capacity_pages(&self) -> u32 {
        self.sum_ranks(|r| r.host_capacity_pages())
    }

    /// Host pages currently occupied by suspended sequences, every rank.
    pub fn host_pages_used(&self) -> u32 {
        self.sum_ranks(|r| r.host_pages_used())
    }

    /// Resizes the host tier, divided over the ranks by [`chunk_range`]
    /// (0 disables swap-based suspension; suspends then fail with
    /// [`PoolError::OutOfHostPages`] for any sequence that owns pages).
    /// Defaults to the device capacity at construction.
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
        let n = self.ranks.len();
        for (r, ledger) in self.ranks.iter_mut().enumerate() {
            ledger.set_host_pages(chunk_range(r, pages as usize, n).len() as u32);
        }
    }

    /// Installs a deterministic fault schedule (see [`oaken_mmu::fault`]):
    /// reservations, suspends, resumes and imports then poll it at their
    /// pre-check boundaries — once per operation, however many ranks it
    /// spans — and surface [`PoolError::Fault`] without mutating any
    /// state. No schedule is installed by default and the hook is a single
    /// `Option` check when disabled.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultInjector::new(plan));
    }

    /// Faults injected so far (0 with no schedule installed).
    pub fn faults_injected(&self) -> u64 {
        self.faults.as_ref().map_or(0, FaultInjector::injected)
    }

    /// Polls the fault schedule at an operation's pre-check boundary.
    fn poll_fault(&mut self, op: FaultOp) -> Result<(), PoolError> {
        match self.faults.as_mut().and_then(|f| f.poll(op)) {
            Some(kind) => Err(PoolError::Fault { op, kind }),
            None => Ok(()),
        }
    }

    /// The owner of a new sequence's tail — also the sequence's id.
    fn fresh_seq_owner(&mut self) -> u32 {
        let owner = self.next_seq_owner;
        self.next_seq_owner += 1;
        owner
    }

    /// The owner of a new pending prompt block.
    fn fresh_block_owner(&mut self) -> u32 {
        let owner = self.next_block_owner;
        self.next_block_owner -= 1;
        assert!(
            self.next_block_owner > self.next_seq_owner,
            "block and sequence id spaces collided"
        );
        owner
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

    /// Host pages a suspended sequence occupies, every rank — also the
    /// upper bound on the device pages [`resume_seq`](Self::resume_seq)
    /// will need (0 for handles that are not suspended).
    pub fn suspended_seq_pages(&self, seq: SeqId) -> u32 {
        self.sum_ranks(|r| r.suspended_seq_pages(seq))
    }

    /// The free/private/shared page-ownership split, every rank;
    /// `total()` always equals [`PagedKvPool::capacity_pages`].
    pub fn page_accounting(&self) -> PageAccounting {
        let mut total = PageAccounting {
            free: 0,
            private: 0,
            shared_blocks: 0,
        };
        for rank in self.ranks() {
            let acc = rank.page_accounting();
            total.free += acc.free;
            total.private += acc.private;
            total.shared_blocks += acc.shared_blocks;
        }
        total
    }

    /// Heap bytes the pool holds for KV rows, every rank: the capacities
    /// of the buffers of every slot (live, suspended and recycled — its
    /// stream or exact rows, and its view) and of the trie blocks' rows,
    /// with each store segment counted once however many slots and blocks
    /// share it — not the pool's one encoder, whose staging every sequence
    /// reuses and which keeps no row. Set against the bytes the page
    /// ledger charges ([`page_accounting`](Self::page_accounting)), it
    /// shows how much more memory the pool really takes.
    pub fn held_kv_bytes(&self) -> u64 {
        let seqs = (self.seqs.values()).chain(self.suspended.values());
        let shards = seqs.chain(&self.recycled).flat_map(|s| &s.shards);
        let slots = shards.flat_map(|shard| shard.slots.iter().flatten());
        // Each segment's bytes, by its address.
        let mut distinct = HashMap::new();
        let mut held = 0;
        for slot in slots {
            held += slot.held_bytes();
            for segment in slot.segments() {
                held -= segment.held_bytes();
                distinct.insert(Arc::as_ptr(segment), segment.held_bytes());
            }
        }
        for segment in self.trie.shards().flat_map(BlockRows::segments) {
            distinct.insert(Arc::as_ptr(segment), segment.held_bytes());
        }
        held += distinct.values().sum::<usize>();
        (held + self.trie.held_bytes()) as u64
    }

    /// Admission estimate: pages a sequence of `tokens` total tokens will
    /// occupy, every rank — its bytes packed into pages plus one page
    /// floor per stream class, the rounding the analytic model ignores.
    /// Uses the *nominal* bytes-per-token; the executed footprint of
    /// variable-rate methods can differ slightly, which preemption
    /// absorbs. A prompt admitted through
    /// [`PagedKvPool::alloc_seq_with_prefix`] is split into trie block
    /// owners, each with its own floors, so it may exceed the estimate by
    /// up to one page per class per planned block. Callers admitting a
    /// prompt with a known trie prefix should pass only the *non-shared*
    /// tokens (`tokens −` [`PagedKvPool::probe_prefix`]).
    pub fn pages_for_tokens(&self, tokens: usize) -> u64 {
        self.sum_ranks(|r| r.pages_for_tokens(tokens))
    }
}

/// One rank's data plane, read-only: its page ledger, and its share of the
/// pool's sequences and trie blocks — what a scheduler weighs when the
/// tightest rank decides.
#[derive(Clone, Copy)]
pub struct RankPages<'a> {
    pool: &'a PagedKvPool,
    r: usize,
}

impl<'a> RankPages<'a> {
    fn ledger(&self) -> &'a PageLedger {
        &self.pool.ranks[self.r]
    }

    /// The rank's MMU simulator.
    pub fn mmu(&self) -> &'a MmuSim {
        self.ledger().mmu()
    }

    /// The rank's device pages.
    pub fn capacity_pages(&self) -> u32 {
        self.mmu().allocator().capacity()
    }

    /// The rank's free device pages.
    pub fn free_pages(&self) -> u32 {
        self.mmu().allocator().free_pages()
    }

    /// The rank's allocated device pages.
    pub fn pages_in_use(&self) -> u32 {
        self.capacity_pages() - self.free_pages()
    }

    /// The rank's host-tier capacity in pages.
    pub fn host_capacity_pages(&self) -> u32 {
        self.mmu().host_tier().map_or(0, |h| h.capacity())
    }

    /// Host pages the rank's share of suspended sequences occupies.
    pub fn host_pages_used(&self) -> u32 {
        self.mmu().host_tier().map_or(0, |h| h.used_pages())
    }

    /// The rank's free host pages.
    pub fn host_free_pages(&self) -> u32 {
        self.mmu().host_tier().map_or(0, |h| h.free_pages())
    }

    /// The rank's free/private/shared page-ownership split, read off its
    /// page ledger: the device pages of every live sequence's private
    /// owners, and those of sealed blocks. `total()` always equals its
    /// [`capacity_pages`](Self::capacity_pages); a page no live owner
    /// accounts for would show as a shortfall.
    pub fn page_accounting(&self) -> PageAccounting {
        let ledger = self.ledger();
        let seqs = self.pool.seqs.iter();
        PageAccounting {
            free: self.free_pages(),
            private: seqs
                .map(|(&id, s)| ledger.device_pages(s.private_owners(id)))
                .sum(),
            shared_blocks: ledger.shared_pages(),
        }
    }

    /// [`PagedKvPool::pages_for_tokens`] on this rank.
    pub fn pages_for_tokens(&self, tokens: usize) -> u64 {
        self.ledger().pages_for_tokens(tokens)
    }

    /// [`PagedKvPool::pages_possibly_needed_n`] on this rank.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::UnknownSequence`] for a freed handle.
    pub fn pages_possibly_needed_n(&self, seq: SeqId, n: usize) -> Result<u32, PoolError> {
        let state = (self.pool.seqs.get(&seq.0)).ok_or(PoolError::UnknownSequence { seq })?;
        let layers = 0..self.pool.model.num_layers;
        Ok(self.pool.rows_pages_needed(state, seq.0, self.r, layers, n))
    }

    /// Host pages a suspended sequence occupies on this rank — the device
    /// pages its resume needs here, at most (0 for handles that are not
    /// suspended).
    pub fn suspended_seq_pages(&self, seq: SeqId) -> u32 {
        let state = self.pool.suspended.get(&seq.0);
        state.map_or(0, |s| self.ledger().host_pages(s.private_owners(seq.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::pages::rows_to_pages;
    use super::*;
    use crate::cache::{KindSlot, SlotRows};
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
        Arc::new(oaken_quantizer(d, layers))
    }

    fn oaken_quantizer(d: usize, layers: usize) -> OakenQuantizer {
        let config = OakenConfig::default();
        let mut p = OfflineProfiler::new(config.clone(), layers);
        for s in 0..24 {
            for layer in 0..layers {
                for kind in KvKind::ALL {
                    p.observe(layer, kind, &row(d.max(64), s * 3 + layer as u64));
                }
            }
        }
        OakenQuantizer::new(config, p.try_finish().unwrap())
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// The reference a pool's sequence is held against: a fresh pool over
    /// `q` holding that sequence alone, fed `kv(pos)` on every layer for
    /// positions `0..n`.
    fn alone(
        cfg: &ModelConfig,
        q: &Arc<dyn KvQuantizer>,
        n: usize,
        kv: impl Fn(usize) -> (Vec<f32>, Vec<f32>),
    ) -> (PagedKvPool, SeqId) {
        let mut pool = PagedKvPool::for_model(cfg, Some(q.clone()), 2048, 512);
        let seq = pool.alloc_seq();
        for pos in 0..n {
            let (k, v) = kv(pos);
            for layer in 0..cfg.num_layers {
                pool.append(seq, layer, &k, &v).unwrap();
            }
        }
        (pool, seq)
    }

    /// Every layer's keys and values of `a`'s `sa` equal `b`'s `sb` bit for
    /// bit.
    fn assert_same_views(
        (a, sa): (&mut PagedKvPool, SeqId),
        (b, sb): (&mut PagedKvPool, SeqId),
        ctx: &str,
    ) {
        for layer in 0..a.model.num_layers {
            let (ka, kb) = (bits(a.keys(sa, layer)), bits(b.keys(sb, layer)));
            assert_eq!(ka, kb, "{ctx}: keys diverged at layer {layer}");
            let (va, vb) = (bits(a.values(sa, layer)), bits(b.values(sb, layer)));
            assert_eq!(va, vb, "{ctx}: values diverged at layer {layer}");
        }
    }

    /// A pool's views are exactly what the quantizer's own row streams
    /// make of the same rows.
    #[test]
    fn pool_views_match_quantized_cache_bit_exactly() {
        let layers = 2;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        assert_eq!(cfg.kv_dim(), d);
        let q = oaken(d, layers);
        let mut pool = PagedKvPool::for_model(&cfg, Some(q.clone()), 256, 4096);
        let mut streams: Vec<_> = (0..layers)
            .map(|l| KvKind::ALL.map(|kind| (q.row_stream(d, l, kind).unwrap(), Vec::new())))
            .collect();
        let seq = pool.alloc_seq();
        for t in 0..20u64 {
            for (layer, [key, value]) in streams.iter_mut().enumerate() {
                let k = row(d, 2 * t + layer as u64);
                let v = row(d, 1000 + 2 * t + layer as u64);
                pool.append(seq, layer, &k, &v).unwrap();
                key.0.append_row(&k, &mut key.1);
                value.0.append_row(&v, &mut value.1);
            }
            for (layer, [key, value]) in streams.iter().enumerate() {
                let (a, b) = (bits(pool.keys(seq, layer)), bits(&key.1));
                assert_eq!(a, b, "keys diverged at token {t} layer {layer}");
                let (a, b) = (bits(pool.values(seq, layer)), bits(&value.1));
                assert_eq!(a, b, "values diverged at token {t} layer {layer}");
            }
        }
        assert_eq!(pool.seq_len(seq, 0), 20);
        assert!(pool.mmu().request_bytes(seq.0) > 0);
    }

    /// At width 128 over 1,024 rows, in either kernel mode, the heap
    /// holds what is charged within a bound per store: a stream's read
    /// plan (its segments' plan entries and sparse logs) at most 2.5× its
    /// payload for keys and for values (the segments' coefficient lanes,
    /// outlier masks and values ride on the packed row; 2.33× each when
    /// this bound was set), no view before a read, and the page-form rows
    /// a sealed trie block holds alone — at 24-token blocks, its rows past
    /// its last 16-row segment edge; none at 16 — at most 1.25× their
    /// payload. The pool's count is the sum of its slots' and its blocks',
    /// each shared segment once. An FP16 pool is charged its nominal 2
    /// bytes per element, dense only, and holds at most the f32 view over
    /// them: 2×.
    #[test]
    fn held_bytes_stay_near_charged_bytes() {
        use oaken_core::kernel::KEY_GROUP;
        let (d, tokens) = (128, 1024);
        let cfg = tiny_config(1, 1, d);
        let q = oaken(d, 1);
        let cases = [
            (KernelMode::Exact, DEFAULT_BLOCK_TOKENS),
            (KernelMode::Fused, DEFAULT_BLOCK_TOKENS),
            (KernelMode::Fused, 24),
        ];
        for (kernel, bt) in cases {
            let mut pool = PagedKvPool::for_model(&cfg, Some(q.clone()), 1024, 4096);
            assert_eq!(pool.set_kernel_mode(kernel), kernel);
            pool.set_block_tokens(bt);
            let prompt: Vec<u32> = (0..=tokens as u32).collect();
            let seq = pool.alloc_seq_with_prefix(&prompt).seq;
            for t in 0..tokens as u64 {
                pool.append(seq, 0, &row(d, 2 * t), &row(d, 2 * t + 1))
                    .unwrap();
            }
            let ratio = |held: usize, charged: usize| held as f64 / charged as f64;
            let [keys, values] = &pool.slots(0, seq)[0];
            for (slot, bound, kind) in [(keys, 2.5, "keys"), (values, 2.5, "values")] {
                let stream = slot.stream().unwrap();
                let charged = stream.payload_bytes().unwrap();
                let r = ratio(stream.held_bytes(), charged);
                assert!(
                    r <= bound,
                    "{kernel:?} {bt}-token blocks {kind}: held ÷ charged {r:.2} over {bound}"
                );
                assert_eq!(
                    slot.held_bytes(),
                    stream.held_bytes(),
                    "{kernel:?}: no view"
                );
            }
            assert_eq!(pool.trie.len(), tokens / bt);
            let mut tails = 0;
            for id in 0..pool.trie.len() {
                let (start, end) = (id * bt, (id + 1) * bt);
                let held = pool.trie.get(id).shards[0].held_bytes();
                let tail = start.max(end / KEY_GROUP * KEY_GROUP)..end;
                let charged: usize = [keys, values]
                    .map(|slot| {
                        let rows = slot.encoded_rows().unwrap();
                        rows.payload_bytes(tail.end) - rows.payload_bytes(tail.start)
                    })
                    .iter()
                    .sum();
                tails += usize::from(!tail.is_empty());
                assert!(
                    held as f64 <= 1.25 * charged as f64,
                    "{kernel:?} {bt}-token block {id}: held {held} B for {charged} B \
                     charged past its last segment edge"
                );
            }
            assert_eq!(
                tails > 0,
                bt == 24,
                "page-form rows only off the segment edges"
            );
            let slots = keys.held_bytes() + values.held_bytes();
            assert_eq!(
                pool.held_kv_bytes(),
                (slots + pool.trie.held_bytes()) as u64
            );
        }
        let fp16: Arc<dyn KvQuantizer> = Arc::new(oaken_baselines::Fp16Reference::new());
        let mut pool = PagedKvPool::for_model(&cfg, Some(fp16), 1024, 4096);
        let seq = pool.alloc_seq();
        for t in 0..tokens as u64 {
            pool.append(seq, 0, &row(d, 2 * t), &row(d, 2 * t + 1))
                .unwrap();
        }
        let charged = pool.mmu().request_bytes(seq.0);
        assert_eq!(
            charged,
            (2 * tokens * 2 * d) as u64,
            "FP16: 2·d per K and V row"
        );
        let r = pool.held_kv_bytes() as f64 / charged as f64;
        assert!(r <= 2.0, "FP16: held ÷ charged {r:.2} over 2.0");
    }

    /// A block shared by N sequences is held once. One sequence seals a
    /// 192-token prompt in 16-token blocks, then eight more adopt it: they
    /// hold its store segments by reference, so the pool's held bytes grow
    /// by their slots' bookkeeping alone — at most 5 % — where copying
    /// the rows into each adopter grew them by about eight times the
    /// prefix's plan bytes.
    #[test]
    fn a_shared_block_is_held_once() {
        let d = 128;
        let cfg = tiny_config(1, 1, d);
        let mut pool = PagedKvPool::for_model(&cfg, Some(oaken(d, 1)), 1024, 4096);
        assert_eq!(pool.set_kernel_mode(KernelMode::Fused), KernelMode::Fused);
        let prompt: Vec<u32> = (0..=192).collect();
        let sealer = pool.alloc_seq_with_prefix(&prompt).seq;
        for t in 0..192 {
            pool.append(sealer, 0, &row(d, 2 * t), &row(d, 2 * t + 1))
                .unwrap();
        }
        assert_eq!(pool.trie.len(), 12);
        let one = pool.held_kv_bytes();
        for _ in 0..8 {
            assert_eq!(pool.alloc_seq_with_prefix(&prompt).matched_tokens, 192);
        }
        let held = pool.held_kv_bytes();
        assert!(
            held as f64 <= 1.05 * one as f64,
            "eight adopters took the pool from {one} to {held} held bytes"
        );
    }

    /// The kernel mode picks the read kernel and nothing else. The same
    /// prompt fed to an Exact and a Fused pool, with a second sequence
    /// adopting the first one's sealed blocks, leaves every slot with
    /// equal encoded stores and bit-identical views; a live
    /// pool switches mode both ways mid-decode; and an Exact pool's export
    /// resumes in a Fused pool to the same views.
    #[test]
    fn kernel_mode_picks_the_read_kernel_only() {
        use KernelMode::{Exact, Fused};
        let (layers, d) = (2, 64);
        let cfg = tiny_config(layers, 2, 32);
        let q = oaken(d, layers);
        let prompt: Vec<u32> = (0..13).collect(); // 3 full blocks + tail
        let fresh = |kernel| {
            let mut pool = PagedKvPool::for_model(&cfg, Some(q.clone()), 2048, 512);
            pool.set_block_tokens(4);
            assert_eq!(pool.set_kernel_mode(kernel), kernel);
            let a = pool.alloc_seq_with_prefix(&prompt).seq;
            feed_prompt(&mut pool, a, layers, d, 0, prompt.len());
            let b = pool.alloc_seq_with_prefix(&prompt);
            assert_eq!(b.matched_tokens, 12, "{kernel:?}: three blocks adopted");
            feed_prompt(&mut pool, b.seq, layers, d, 12, prompt.len() + 2);
            (pool, [a, b.seq])
        };
        let (mut exact, seqs) = fresh(Exact);
        let (mut fused, fused_seqs) = fresh(Fused);
        assert_eq!(seqs, fused_seqs);
        let stored = |slot: &KindSlot| {
            let rows = slot.encoded_rows().expect("Oaken slots keep encoded rows");
            let mut run = oaken_core::PackedRows::new(d);
            rows.export(0..rows.len(), &mut run);
            (run, rows.clone())
        };
        for seq in seqs {
            let slots = exact.slots(0, seq).iter().flatten();
            for (e, f) in slots.zip(fused.slots(0, seq).iter().flatten()) {
                assert_eq!(e.rows, f.rows);
                assert_eq!(stored(e), stored(f), "{seq:?}: stores differ across modes");
                assert!(
                    e.view.is_empty() && f.view.is_empty(),
                    "no view before a read"
                );
            }
            assert_same_views((&mut exact, seq), (&mut fused, seq), "across modes");
        }
        // Switch live pools both ways and keep decoding.
        let b = seqs[1];
        assert!(exact.encoded_kv(b, 0).is_none());
        assert_eq!(exact.set_kernel_mode(Fused), Fused);
        assert!(exact.encoded_kv(b, 0).is_some());
        assert_eq!(fused.set_kernel_mode(Exact), Exact);
        assert!(fused.encoded_kv(b, 0).is_none());
        let fed = prompt.len() + 4;
        for pool in [&mut exact, &mut fused] {
            feed_prompt(pool, b, layers, d, prompt.len() + 2, fed);
        }
        assert_same_views((&mut exact, b), (&mut fused, b), "after the switch");
        assert_eq!(exact.set_kernel_mode(Exact), Exact);
        // An Exact pool's export resumes in a Fused pool.
        let transfer = exact.export_seq(b).unwrap();
        let mut dst = PagedKvPool::for_model(&cfg, Some(q.clone()), 2048, 512);
        assert_eq!(dst.set_kernel_mode(Fused), Fused);
        let (seq, _) = dst.import_seq(transfer).unwrap();
        dst.resume_seq(seq).unwrap();
        feed_prompt(&mut dst, seq, layers, d, fed, fed + 2);
        assert!(dst.encoded_kv(seq, 0).is_some());
        let (mut lone, l) = alone(&cfg, &q, fed + 2, |pos| kv_for_pos(d, pos));
        assert_same_views((&mut dst, seq), (&mut lone, l), "imported across modes");
    }

    /// A fused read charges each query the payload of every row it
    /// attends, K and V: on a ragged read of several multi-query runs the
    /// fused bytes are the quantizer's per-row payloads summed over each
    /// query's rows — the `kv_read_bytes_per_token` numerator.
    #[test]
    fn fused_read_bytes_pin_on_a_ragged_multi_run_read() {
        let d = 64;
        let cfg = tiny_config(1, 2, 32);
        let q = oaken_quantizer(d, 1);
        let mut pool = PagedKvPool::for_model(&cfg, Some(Arc::new(q.clone())), 256, 4096);
        assert_eq!(pool.set_kernel_mode(KernelMode::Fused), KernelMode::Fused);
        let lens = [5u64, 19, 33];
        let mut payloads = Vec::new();
        let seqs: Vec<SeqId> = (lens.iter().enumerate())
            .map(|(i, &n)| {
                let seq = pool.alloc_seq();
                let mut rows = Vec::new();
                for t in 0..n {
                    let (k, v) = (
                        row(d, 100 * i as u64 + 2 * t),
                        row(d, 100 * i as u64 + 2 * t + 1),
                    );
                    pool.append(seq, 0, &k, &v).unwrap();
                    let payload =
                        |x: &[f32], kind| q.quantize_vector(x, 0, kind).unwrap().payload_bytes();
                    rows.push(payload(&k, KvKind::Key) + payload(&v, KvKind::Value));
                }
                payloads.push(rows);
                seq
            })
            .collect();
        let runs = [(0, 2), (1, 7), (2, 1), (1, 3)];
        let want: usize = (runs.iter())
            .map(|&(slot, queries)| {
                let rows = &payloads[slot];
                (rows.len() - queries + 1..=rows.len())
                    .map(|m| rows[..m].iter().sum::<usize>())
                    .sum::<usize>()
            })
            .sum();
        let before = pool.kv_read_stats();
        drop(pool.read_runs(&seqs, 0, &runs));
        let got = pool.kv_read_stats().fused_bytes - before.fused_bytes;
        assert_eq!(got, want as u64);
        assert_eq!(got, 19_136, "pinned total");
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
        // Reference: each sequence alone in its own pool.
        for (seq, salt, n) in [(a, 0u64, counts[0]), (b, 500, counts[1])] {
            let kv = |t: usize| (row(d, salt + t as u64), row(d, salt + 100 + t as u64));
            let (mut lone, s) = alone(&cfg, &q, n as usize, kv);
            assert_same_views((&mut pool, seq), (&mut lone, s), "interleaved");
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
        // A sequence on a recycled slot counts only its own pages.
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
            let bound = pool.pages_possibly_needed_n(seq, 1).unwrap();
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

        // Bit-exactness against the same rows fed alone.
        let (mut lone, s) = alone(&cfg, &q, prompt.len() + 4, |pos| kv_for_pos(d, pos));
        assert_same_views((&mut pool, b.seq), (&mut lone, s), "adopted");

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

    /// At 4-token blocks (page-form rows only) and 16-token ones (one
    /// store segment each, which the second sealer swaps for the first's).
    #[test]
    fn concurrent_prefills_dedup_at_seal() {
        let layers = 1;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        let q = oaken(d, layers);
        for bt in [4, DEFAULT_BLOCK_TOKENS] {
            let mut pool = PagedKvPool::for_model(&cfg, Some(q.clone()), 2048, 512);
            pool.set_block_tokens(bt);
            let prompt: Vec<u32> = (0..2 * bt as u32 + 1).collect(); // 2 full blocks

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
            // Whoever sealed second merged into the first's blocks, and
            // holds the first's segments.
            assert_eq!(pool.trie_blocks(), 2);
            let stats = pool.prefix_stats();
            assert_eq!(stats.seal_dedups, 2);
            assert!(stats.bytes_deduplicated > 0);
            let slots = |seq: SeqId| pool.slots(0, seq).iter().flatten();
            for (x, y) in slots(a.seq).zip(slots(b.seq)) {
                let (xs, ys) = (x.segments(), y.segments());
                assert_eq!(xs.len(), 2 * bt / 16, "{bt}-token blocks");
                assert!(xs.iter().zip(ys).all(|(x, y)| Arc::ptr_eq(x, y)));
            }
            assert_balanced(&pool);
            pool.free_seq(a.seq).unwrap();
            pool.free_seq(b.seq).unwrap();
            assert_eq!(pool.free_pages(), pool.capacity_pages());
            assert_eq!(pool.trie_blocks(), 0);
        }
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

    /// An exact-f32 slot keeps each row once, in its view, appended in
    /// place — through prefix adoption and a suspend/resume round trip —
    /// and reads back exactly the rows fed.
    #[test]
    fn exact_pool_keeps_one_copy_of_each_row() {
        let (layers, d) = (2, 64);
        let cfg = tiny_config(layers, 2, 32);
        let mut pool = PagedKvPool::for_model(&cfg, None, 2048, 512);
        pool.set_block_tokens(4);
        let prompt: Vec<u32> = (0..9).collect();
        let a = pool.alloc_seq_with_prefix(&prompt);
        feed_prompt(&mut pool, a.seq, layers, d, 0, prompt.len());
        let b = pool.alloc_seq_with_prefix(&prompt);
        assert_eq!(b.matched_tokens, 8);
        feed_prompt(&mut pool, b.seq, layers, d, 8, 11);
        pool.suspend_seq(b.seq).unwrap();
        pool.resume_seq(b.seq).unwrap();
        feed_prompt(&mut pool, b.seq, layers, d, 11, 14);
        for slot in pool.slots(0, b.seq).iter().flatten() {
            assert!(matches!(slot.storage, SlotRows::F32), "no second copy");
            assert_eq!(slot.view.len(), 14 * d, "each row once");
        }
        for layer in 0..layers {
            let (keys, values): (Vec<_>, Vec<_>) = (0..14).map(|pos| kv_for_pos(d, pos)).unzip();
            assert_eq!(bits(pool.keys(b.seq, layer)), bits(&keys.concat()));
            assert_eq!(bits(pool.values(b.seq, layer)), bits(&values.concat()));
        }
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
        let host = pool.mmu().host_tier().unwrap();
        let owners = (0..4).chain((0..8).map(|k| u32::MAX - k));
        let frozen = owners.filter(|&o| host.is_frozen(o)).count();
        assert_eq!(frozen, 2, "tail + one pending block froze");
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
        // blocks, and its whole history stays bit-exact with the same rows
        // fed alone and uninterrupted.
        feed_prompt(&mut pool, s.seq, layers, d, 7, prompt.len() + 3);
        assert_eq!(pool.trie_blocks(), 2);
        let (mut lone, l) = alone(&cfg, &q, prompt.len() + 3, |pos| kv_for_pos(d, pos));
        assert_same_views((&mut pool, s.seq), (&mut lone, l), "after resume");
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
        assert!(transfer.wire_bytes() > transfer.payloads()[0].bytes);
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

        // The imported history and its continuation are bit-exact with the
        // same rows fed alone and uninterrupted.
        feed_prompt(&mut dst, seq, layers, d, fed, fed + 3);
        let (mut lone, l) = alone(&cfg, &q, fed + 3, |pos| kv_for_pos(d, pos));
        assert_same_views((&mut dst, seq), (&mut lone, l), "after handoff");
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
        let needed = transfer.payloads()[0]
            .pages_needed(tiny.page_size())
            .unwrap();
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
    fn corrupt_or_oversize_transfer_is_refused_typed() {
        let layers = 1;
        let d = 64;
        let cfg = tiny_config(layers, 2, 32);
        let q = oaken(d, layers);
        let mut src = PagedKvPool::for_model(&cfg, Some(q.clone()), 2048, 512);
        let s = src.alloc_seq();
        feed_prompt(&mut src, s, layers, d, 0, 12);
        let mut transfer = src.export_seq(s).unwrap();
        let mut dst = PagedKvPool::for_model(&cfg, Some(q), 2048, 512);

        // One bit of a size table flips on the wire, after the exporter
        // sealed the payload.
        transfer.payloads[0].streams[0].sizes[3] ^= 1;
        assert_eq!(dst.can_import(&transfer), Err(PoolError::CorruptTransfer));
        let (mut transfer, err) = dst.import_seq(transfer).unwrap_err();
        assert_eq!(err, PoolError::CorruptTransfer);
        assert_eq!(dst.host_pages_used(), 0, "nothing landed");
        transfer.payloads[0].streams[0].sizes[3] ^= 1;

        // A sparse entry larger than the importer's page, sealed as if an
        // exporter with larger pages had written it (dense rows straddle
        // pages; the sparse log, listed last, never does).
        let log = transfer.payloads[0].streams.len() - 1;
        let intact = transfer.payloads[0].streams[log].sizes[3];
        transfer.payloads[0].streams[log].sizes[3] = 513;
        transfer.payloads[0].seal();
        let oversize = PoolError::TransferExceedsPage {
            bytes: 513,
            page_size: 512,
        };
        assert_eq!(dst.can_import(&transfer), Err(oversize));
        let (mut transfer, err) = dst.import_seq(transfer).unwrap_err();
        assert_eq!(err, oversize);
        assert_eq!(dst.host_pages_used(), 0, "nothing landed");
        transfer.payloads[0].streams[log].sizes[3] = intact;
        transfer.payloads[0].seal();

        // Both refusals handed the transfer back whole: restored, it lands.
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
        // The bytes were discarded, not thawed back onto the device.
        assert_eq!(pool.mmu().request_pages(a.seq.0), 0);
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

    /// A pool holding one sequence suspended before its first block
    /// sealed: nothing active, nothing in the trie, and a prompt plan cut
    /// at 4-token blocks sitting on host.
    fn pool_with_an_unsealed_suspended_seq() -> PagedKvPool {
        let (layers, d) = (1, 64);
        let cfg = tiny_config(layers, 2, 32);
        let mut pool = PagedKvPool::for_model(&cfg, Some(oaken(d, layers)), 256, 512);
        pool.set_block_tokens(4);
        let s = pool.alloc_seq_with_prefix(&(0..9).collect::<Vec<u32>>());
        feed_prompt(&mut pool, s.seq, layers, d, 0, 2);
        pool.suspend_seq(s.seq).unwrap();
        assert_eq!((pool.active_seqs(), pool.trie_blocks()), (0, 0));
        pool
    }

    /// Resuming would route rows by `pos / block_tokens` over a plan cut
    /// at the old granularity.
    #[test]
    #[should_panic(expected = "block granularity can only change on an idle pool")]
    fn block_tokens_is_fixed_while_a_sequence_is_suspended() {
        pool_with_an_unsealed_suspended_seq().set_block_tokens(8);
    }

    #[test]
    #[should_panic(expected = "prefix sharing can only be toggled on an idle pool")]
    fn prefix_sharing_is_fixed_while_a_sequence_is_suspended() {
        pool_with_an_unsealed_suspended_seq().set_prefix_sharing(false);
    }

    /// Teardown is one path: wherever a sequence is when it is released,
    /// and whichever form its blocks store rows in, the pool drains to
    /// exactly empty — device, host tier and trie.
    #[test]
    fn every_release_point_drains_the_pool() {
        #[derive(Debug, Clone, Copy)]
        enum At {
            /// Active, mid-prefill: one block sealed, one part-written,
            /// one planned but untouched.
            Pending,
            /// Active on two adopted blocks plus one it sealed itself.
            AdoptedAndSealed,
            /// Suspended to host mid-prefill.
            Suspended,
            /// Imported from another pool and never resumed.
            Imported,
        }
        use KernelMode::{Exact, Fused};
        // The two rows left out are pinned already: `Exact` ×
        // `AdoptedAndSealed` by `adopted_prefix_is_bit_exact_and_dedupes_pages`,
        // `Exact` × `Suspended` by
        // `drop_suspended_seq_releases_host_and_shared_pages`.
        let table = [
            (Exact, At::Pending),
            (Exact, At::Imported),
            (Fused, At::Pending),
            (Fused, At::AdoptedAndSealed),
            (Fused, At::Suspended),
            (Fused, At::Imported),
        ];
        let (layers, d) = (2, 64);
        let cfg = tiny_config(layers, 2, 32);
        let q = oaken(d, layers);
        let prompt: Vec<u32> = (0..13).collect(); // 3 full blocks + tail
        for (kernel, at) in table {
            let ctx = format!("{kernel:?} x {at:?}");
            let fresh = || {
                let mut pool = PagedKvPool::for_model(&cfg, Some(q.clone()), 2048, 512);
                pool.set_block_tokens(4);
                assert_eq!(pool.set_kernel_mode(kernel), kernel, "{ctx}");
                pool
            };
            let assert_drained = |pool: &PagedKvPool| {
                let all_free = PageAccounting {
                    free: pool.capacity_pages(),
                    private: 0,
                    shared_blocks: 0,
                };
                assert_eq!(pool.page_accounting(), all_free, "{ctx}");
                assert_eq!(pool.host_pages_used(), 0, "{ctx}");
                assert_eq!(pool.trie_blocks(), 0, "{ctx}");
            };
            let mut pool = fresh();
            match at {
                At::Pending => {
                    let s = pool.alloc_seq_with_prefix(&prompt).seq;
                    feed_prompt(&mut pool, s, layers, d, 0, 6);
                    assert_eq!(pool.trie_blocks(), 1, "{ctx}");
                    assert!(pool.seq_pages(s) > 0, "{ctx}");
                    pool.free_seq(s).unwrap();
                }
                At::AdoptedAndSealed => {
                    let warm = pool.alloc_seq_with_prefix(&prompt).seq;
                    feed_prompt(&mut pool, warm, layers, d, 0, 9);
                    let s = pool.alloc_seq_with_prefix(&prompt);
                    assert_eq!(s.matched_tokens, 8, "{ctx}");
                    feed_prompt(&mut pool, s.seq, layers, d, 8, prompt.len() + 2);
                    assert_eq!(pool.trie_blocks(), 3, "{ctx}: sealed its own third");
                    pool.free_seq(warm).unwrap();
                    pool.free_seq(s.seq).unwrap();
                }
                At::Suspended => {
                    let s = pool.alloc_seq_with_prefix(&prompt).seq;
                    feed_prompt(&mut pool, s, layers, d, 0, 6);
                    pool.suspend_seq(s).unwrap();
                    assert!(pool.host_pages_used() > 0, "{ctx}");
                    pool.drop_suspended_seq(s).unwrap();
                }
                At::Imported => {
                    let mut src = fresh();
                    let s = src.alloc_seq_with_prefix(&prompt).seq;
                    feed_prompt(&mut src, s, layers, d, 0, prompt.len() + 2);
                    let transfer = src.export_seq(s).unwrap();
                    assert_drained(&src);
                    let (landed, _) = pool.import_seq(transfer).unwrap();
                    assert!(pool.host_pages_used() > 0, "{ctx}");
                    pool.drop_suspended_seq(landed).unwrap();
                }
            }
            assert_drained(&pool);
        }
    }

    /// A block dies with its last holder, on every rank. A sealer, a
    /// late-dedup sealer and two adopters hold the same three blocks; one
    /// adopter is exported into a second pool and the other suspended, and
    /// they let go in an order that leaves the suspended one last. After
    /// every step, on every rank of both pools, the page split sums to the
    /// capacity and the trie holds exactly the blocks some live or
    /// suspended sequence holds; at the end both pools are empty.
    /// Exact-f32 and Oaken pools, at 1, 2 and 3 ranks.
    #[test]
    fn a_block_dies_with_its_last_holder() {
        use super::blocks::SeqBlock;
        use std::collections::HashSet;
        fn check(pools: [&PagedKvPool; 2], ctx: &str) {
            for pool in pools {
                for rank in pool.ranks() {
                    let acc = rank.page_accounting();
                    assert_eq!(acc.total(), rank.capacity_pages(), "{ctx}: {acc:?}");
                }
                let seqs = pool.seqs.values().chain(pool.suspended.values());
                let held: HashSet<usize> = (seqs.flat_map(|s| s.plan.iter()))
                    .flat_map(|plan| &plan.blocks)
                    .filter_map(|block| match block {
                        SeqBlock::Shared(id) => Some(*id),
                        SeqBlock::Pending { .. } => None,
                    })
                    .collect();
                // Every held id is live (`get` panics on a stale one).
                for &id in &held {
                    let _ = pool.trie.get(id);
                }
                assert_eq!(pool.trie.len(), held.len(), "{ctx}: trie blocks");
            }
        }
        let (layers, d) = (2, 96);
        let cfg = tiny_config(layers, 3, 32);
        let prompt: Vec<u32> = (0..13).collect(); // 3 full blocks + tail
        for q in [None, Some(oaken(d, layers))] {
            for ranks in 1..=3 {
                let fresh = || {
                    let mut pool = PagedKvPool::for_model(&cfg, q.clone(), 2048, 512);
                    assert_eq!(pool.set_ranks(ranks), ranks);
                    pool.set_block_tokens(4);
                    pool
                };
                let (mut pool, mut dst) = (fresh(), fresh());
                let kind = if q.is_some() { "Oaken" } else { "exact" };
                let ctx = |step: &str| format!("{kind} at {ranks} ranks, {step}");
                let sealer = pool.alloc_seq_with_prefix(&prompt).seq;
                let late = pool.alloc_seq_with_prefix(&prompt).seq;
                feed_prompt(&mut pool, sealer, layers, d, 0, prompt.len());
                check([&pool, &dst], &ctx("sealed"));
                feed_prompt(&mut pool, late, layers, d, 0, prompt.len());
                assert_eq!(pool.prefix_stats().seal_dedups, 3, "{}", ctx("late dedup"));
                check([&pool, &dst], &ctx("late dedup"));
                let adopters = [(); 2].map(|()| {
                    let s = pool.alloc_seq_with_prefix(&prompt);
                    assert_eq!(s.matched_tokens, 12, "{}", ctx("adopted"));
                    feed_prompt(&mut pool, s.seq, layers, d, 12, prompt.len() + 2);
                    check([&pool, &dst], &ctx("adopted"));
                    s.seq
                });
                pool.suspend_seq(adopters[0]).unwrap();
                check([&pool, &dst], &ctx("suspended"));
                let transfer = pool.export_seq(adopters[1]).unwrap();
                check([&pool, &dst], &ctx("exported"));
                let (landed, _) = dst.import_seq(transfer).unwrap();
                check([&pool, &dst], &ctx("imported"));
                dst.resume_seq(landed).unwrap();
                check([&pool, &dst], &ctx("resumed"));
                dst.free_seq(landed).unwrap();
                check([&pool, &dst], &ctx("imported one freed"));
                for (seq, step) in [(sealer, "sealer freed"), (late, "late sealer freed")] {
                    pool.free_seq(seq).unwrap();
                    assert_eq!(pool.trie_blocks(), 3, "{}", ctx(step));
                    check([&pool, &dst], &ctx(step));
                }
                pool.drop_suspended_seq(adopters[0]).unwrap();
                check([&pool, &dst], &ctx("suspended one dropped"));
                for p in [&pool, &dst] {
                    assert_eq!(p.trie_blocks(), 0, "{}", ctx("drained"));
                    for rank in p.ranks() {
                        assert_eq!(
                            rank.free_pages(),
                            rank.capacity_pages(),
                            "{}",
                            ctx("drained")
                        );
                    }
                }
            }
        }
    }

    /// A run of rows enters the pool exactly as the same rows appended one
    /// at a time. A second sequence `b` shares its prompt with a first,
    /// `a`, which has sealed its first two 8-token blocks (so `b`'s seals
    /// there are late dedups that free pages, and its later ones new trie
    /// blocks); `b` is fed `start` rows (0–17), then a run of `n` (1–70)
    /// on each of two layers, against a twin pool fed the run's rows one
    /// by one. After it: every slot's store is equal on every rank, every
    /// owner's page streams (pages and sizes) are equal, and so are
    /// `held_kv_bytes`, the trie blocks, the prefix statistics and the
    /// error returned — with ample pages, and with a filler sequence
    /// leaving a page free on a rank so the run stops at its first row
    /// that does not fit. Widths 32, 97, 128 and 256, at 1 and 2 ranks
    /// (97 is one head, so one rank).
    #[test]
    fn a_run_equals_its_rows() {
        use oaken_mmu::{StreamClass, StreamKey};
        let mut seed = 0x0A4E_2025_u64;
        let mut below = |n: u64| {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((seed >> 33) % n) as usize
        };
        let (layers, bt) = (2, 8);
        // Runs cut short, per setting: ample pages, two pages.
        let mut cut = [0; 2];
        for width in [32, 97, 128, 256] {
            let heads = if width % 2 == 0 { 2 } else { 1 };
            let cfg = tiny_config(layers, heads, width / heads);
            let q = oaken(width, layers);
            for ranks in [1, 2] {
                for case in 0..4 {
                    let (start, n) = (below(18), 1 + below(70));
                    let ctx =
                        format!("width {width}, {ranks} ranks, case {case}: {n} rows at {start}");
                    let prompt: Vec<u32> = (0..(start + n + 9) as u32).collect();
                    let kv = |pos: usize| (row(width, pos as u64), row(width, 9_000 + pos as u64));
                    let fresh = || {
                        let mut pool = PagedKvPool::for_model(&cfg, Some(q.clone()), 512, 1024);
                        pool.set_ranks(ranks);
                        pool.set_block_tokens(bt);
                        let a = pool.alloc_seq_with_prefix(&prompt).seq;
                        let b = pool.alloc_seq_with_prefix(&prompt).seq;
                        for pos in 0..2 * bt {
                            let (k, v) = kv(pos);
                            (0..layers).for_each(|l| pool.append(a, l, &k, &v).unwrap());
                        }
                        for pos in 0..start {
                            let (k, v) = kv(pos);
                            (0..layers).for_each(|l| pool.append(b, l, &k, &v).unwrap());
                        }
                        if case % 2 == 1 {
                            let filler = pool.alloc_seq();
                            let mut t = 0;
                            while pool.ranks().all(|r| r.free_pages() > 1) {
                                let (k, v) = kv(50_000 + t);
                                if pool.append(filler, 0, &k, &v).is_err() {
                                    break;
                                }
                                t += 1;
                            }
                        }
                        (pool, b)
                    };
                    let ks: Vec<Vec<f32>> = (start..start + n).map(|p| kv(p).0).collect();
                    let vs: Vec<Vec<f32>> = (start..start + n).map(|p| kv(p).1).collect();
                    let (mut run, b) = fresh();
                    let run_err = (0..layers).find_map(|l| run.append_run(b, l, &ks, &vs).err());
                    let (mut rows, b) = fresh();
                    let rows_err = (0..layers)
                        .find_map(|l| (0..n).find_map(|t| rows.append(b, l, &ks[t], &vs[t]).err()));
                    assert_eq!(run_err, rows_err, "{ctx}: error");
                    cut[case % 2] += usize::from(run_err.is_some());
                    for r in 0..run.num_ranks() {
                        for (layer, (x, y)) in
                            run.slots(r, b).iter().zip(rows.slots(r, b)).enumerate()
                        {
                            for (sx, sy) in x.iter().zip(y) {
                                assert_eq!(sx.rows, sy.rows, "{ctx}: rank {r} layer {layer} rows");
                                assert_eq!(
                                    sx.encoded_rows(),
                                    sy.encoded_rows(),
                                    "{ctx}: rank {r} layer {layer}"
                                );
                            }
                        }
                        let owners = (0..4).chain((0..8).map(|k| u32::MAX - k));
                        for owner in owners {
                            for class in [StreamClass::Dense, StreamClass::Sparse] {
                                let key = StreamKey {
                                    request: owner,
                                    layer: 0,
                                    head: 0,
                                    class,
                                };
                                assert_eq!(
                                    run.rank(r).mmu().stream(&key),
                                    rows.rank(r).mmu().stream(&key),
                                    "{ctx}: rank {r} owner {owner} {class:?}"
                                );
                            }
                        }
                        assert_eq!(
                            run.rank(r).page_accounting(),
                            rows.rank(r).page_accounting(),
                            "{ctx}"
                        );
                    }
                    assert_eq!(
                        run.held_kv_bytes(),
                        rows.held_kv_bytes(),
                        "{ctx}: held bytes"
                    );
                    assert_eq!(run.trie_blocks(), rows.trie_blocks(), "{ctx}: trie blocks");
                    assert_eq!(
                        run.prefix_stats(),
                        rows.prefix_stats(),
                        "{ctx}: prefix stats"
                    );
                }
            }
        }
        assert_eq!(cut[0], 0, "an ample pool takes every run");
        assert!(cut[1] > 0, "runs are cut short: {cut:?}");
    }
}
