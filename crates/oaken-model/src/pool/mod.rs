//! A shared, paged, quantized KV pool serving many concurrent sequences —
//! the software model of Oaken's MMU-managed device memory (§5.2) under a
//! continuous-batching engine.
//!
//! Where [`crate::QuantizedCache`] owns one sequence's KV history,
//! [`PagedKvPool`] multiplexes *all* active sequences over one
//! [`oaken_mmu::PageAllocator`]: every appended token row is quantized
//! incrementally through the per-`(sequence, layer, kind)`
//! [`oaken_core::KvRowStream`]s, and its encoded payload is
//! laid into fixed-size physical pages, so capacity, fragmentation and
//! admission are **real**.
//!
//! # Module map
//!
//! One `impl PagedKvPool`, split along its five seams; each module's docs
//! state the contract it owns.
//!
//! | module | seam | owns |
//! |---|---|---|
//! | `seq` | sequence lifecycle | admission, the guarded single / batched append (one ingest, one page commit), the one teardown, slot recycling |
//! | `blocks` | trie blocks | prompt plan, adoption, sealing and late dedup into the [prefix trie](crate::trie) |
//! | `tiers` | tiers | suspend / resume to the host tier, export / import across pools ([`KvTransfer`]) |
//! | `reads` | read views | dequantized views, encoded tensors, [`KvReadStats`] |
//! | `pages` | page accounting | the `MmuSim` and the **page layout** — the only file that names a page stream, and the one ROADMAP item 1(a) rewrites |
//!
//! `batch_view` holds [`PoolBatchView`], the engine's per-iteration
//! adapter over the rank shards; this file holds the value types, the
//! constructors and the configuration surface.
//!
//! # Bit-exactness
//!
//! For methods whose per-row state is offline or per-token (Oaken, FP16,
//! exact f32, the recompute fallbacks), a sequence's dequantized views
//! depend only on its own append history: the pool drives the same
//! `KvRowStream`s as `QuantizedCache`, so any interleaving of sequences —
//! and any mix of prefix adoption, suspension and handoff — is
//! bit-identical to independent single-sequence runs (enforced by
//! `oaken-serving`'s engine property tests).

mod batch_view;
mod blocks;
mod pages;
mod reads;
mod seq;
mod tiers;

pub use batch_view::PoolBatchView;
pub use reads::KvReadStats;
pub use seq::SeqRowAppend;
pub use tiers::KvTransfer;

use crate::cache::KernelMode;
use crate::config::ModelConfig;
use crate::trie::{PrefixStats, PrefixTrie};
use oaken_core::{KvKind, KvQuantizer, KvRowStream};
use oaken_mmu::{FaultKind, FaultOp, FaultPlan, FaultStats, MmuSim, SwapStats};
use pages::PageLedger;
use reads::ReadCounters;
use seq::{BatchScratch, SeqSlots};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use tiers::SuspendedSeq;

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
    /// Nominal KV bytes per token for the whole model — computed through
    /// the shared [`ModelConfig::kv_bytes_per_token`] helper.
    bytes_per_token: u64,
    /// The page layout and the MMU under it.
    pages: PageLedger,
    seqs: HashMap<u32, SeqSlots>,
    /// Sequences suspended to the host tier: their stream/view state is
    /// retained verbatim (which is what makes resume bit-exact), their
    /// private pages live in the MMU's swap pool, and their shared trie
    /// blocks stay adopted (refcounts held) so the payload a resume needs
    /// can never be destroyed underneath them.
    suspended: HashMap<u32, SuspendedSeq>,
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
    /// [`DEFAULT_BLOCK_TOKENS`]-token blocks. The host tier defaults to
    /// mirroring the device capacity; [`set_host_pages`](Self::set_host_pages)
    /// resizes or disables it.
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
        let bits = quantizer
            .as_ref()
            .map_or(32.0, |q| q.effective_bits(1, kv_dim));
        let sharing_supported = quantizer.as_ref().is_none_or(|q| q.prefix_deterministic());
        let streaming = (quantizer.as_deref())
            .is_none_or(|q| every_stream(q, model.num_layers, kv_dim, |_| true));
        let (layers, head_dim) = (model.num_layers, kv_dim / kv_heads);
        let sparse_rows = quantizer.is_some();
        Self {
            pages: PageLedger::new(
                num_pages,
                page_size,
                layers,
                kv_heads,
                head_dim,
                sparse_rows,
            ),
            quantizer,
            shard: None,
            num_layers: model.num_layers,
            kv_dim,
            bytes_per_token: model.kv_bytes_per_token(bits),
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
            batch: BatchScratch::default(),
        }
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

    /// The backing MMU simulator (read-only): translation tables, burst
    /// plans, and fragmentation statistics over the actual stored sizes.
    pub fn mmu(&self) -> &MmuSim {
        self.pages.mmu()
    }

    /// Total pages in the device.
    pub fn capacity_pages(&self) -> u32 {
        self.mmu().allocator().capacity()
    }

    /// Currently free pages.
    pub fn free_pages(&self) -> u32 {
        self.mmu().allocator().free_pages()
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.mmu().allocator().page_size()
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
    /// Panics unless the pool is idle — the switch is a construction-time
    /// choice.
    pub fn set_prefix_sharing(&mut self, enabled: bool) {
        self.assert_idle("prefix sharing can only be toggled");
        self.sharing = enabled && self.sharing_supported;
    }

    /// The one idle check behind every construction-time setter: no
    /// sequence active **or suspended**, and an empty trie. A suspended
    /// sequence keeps its prompt plan, slot flags and adopted blocks, all
    /// cut for the configuration it was admitted under.
    fn assert_idle(&self, what: &str) {
        assert!(
            self.seqs.is_empty() && self.suspended.is_empty() && self.trie.len() == 0,
            "{what} on an idle pool"
        );
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
    /// Panics unless the pool is idle — the switch is a construction-time
    /// choice.
    pub fn set_kernel_mode(&mut self, kernel: KernelMode) -> KernelMode {
        self.assert_idle("kernel mode can only be installed");
        let fusable = |s: &dyn KvRowStream| s.fused_read_params().is_some();
        let capable = (self.quantizer.as_deref())
            .is_some_and(|q| every_stream(q, self.num_layers, self.kv_dim, fusable));
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
        self.mmu().host_tier().map_or(0, |h| h.capacity())
    }

    /// Host pages currently occupied by suspended sequences.
    pub fn host_pages_used(&self) -> u32 {
        self.mmu().host_tier().map_or(0, |h| h.used_pages())
    }

    /// Host pages currently free — the headroom swap-based preemption
    /// (and the engine's optimistic admission under it) can still use.
    pub fn host_free_pages(&self) -> u32 {
        self.mmu().host_tier().map_or(0, |h| h.free_pages())
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
        self.pages.set_host_pages(pages);
    }

    /// Cumulative device↔host transfer counters.
    pub fn swap_stats(&self) -> SwapStats {
        self.mmu()
            .host_tier()
            .map_or_else(SwapStats::default, |h| h.stats())
    }

    /// Installs a deterministic fault schedule on the underlying MMU (see
    /// [`oaken_mmu::fault`]): appends, suspends, and resumes then poll it
    /// at their pre-check boundaries and surface [`PoolError::Fault`]
    /// without mutating any state. No schedule is installed by default
    /// and the hook is a single `Option` check when disabled.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.pages.install_faults(plan);
    }

    /// Whether a fault schedule is installed. The batched append path
    /// degrades to the serial per-item loop while faults are active, so
    /// the injection schedule is independent of the thread count.
    pub fn faults_active(&self) -> bool {
        self.mmu().faults_active()
    }

    /// Counters over the faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.mmu().fault_stats()
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
        self.pages.pages_for_tokens(tokens, self.bytes_per_token)
    }
}

#[cfg(test)]
mod tests {
    use super::pages::rows_to_pages;
    use super::*;
    use crate::cache::{KvCacheBackend, QuantizedCache};
    use oaken_core::{OakenConfig, OakenQuantizer, OfflineProfiler};
    use oaken_runtime::Runtime;

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
        let needed = transfer.payload().pages_needed(tiny.page_size()).unwrap();
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
        transfer.payload.streams[0].sizes[3] ^= 1;
        assert_eq!(dst.can_import(&transfer), Err(PoolError::CorruptTransfer));
        let (mut transfer, err) = dst.import_seq(transfer).unwrap_err();
        assert_eq!(err, PoolError::CorruptTransfer);
        assert_eq!(dst.host_pages_used(), 0, "nothing landed");
        transfer.payload.streams[0].sizes[3] ^= 1;

        // An entry larger than the importer's page, sealed as if an
        // exporter with larger pages had written it.
        let intact = transfer.payload.streams[0].sizes[3];
        transfer.payload.streams[0].sizes[3] = 513;
        transfer.payload.seal();
        let oversize = PoolError::TransferExceedsPage {
            bytes: 513,
            page_size: 512,
        };
        assert_eq!(dst.can_import(&transfer), Err(oversize));
        let (mut transfer, err) = dst.import_seq(transfer).unwrap_err();
        assert_eq!(err, oversize);
        assert_eq!(dst.host_pages_used(), 0, "nothing landed");
        transfer.payload.streams[0].sizes[3] = intact;
        transfer.payload.seal();

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
}
