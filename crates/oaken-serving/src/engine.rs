//! The continuous-batching serving engine: real token-by-token execution
//! of many concurrent requests over a shared [`PagedKvPool`].
//!
//! This is the executed counterpart of the analytic trace simulator of
//! Figure 14 (`oaken-figures`). Scheduling follows the Orca/vLLM shape the paper's
//! §5.3 token-level scheduler assumes, extended with the two levers
//! high-QPS shared-prompt traffic rewards:
//!
//! * **iteration-level scheduling with chunked prefill** — every engine
//!   step advances each decoding sequence by exactly one token, while
//!   prompt ingestion is split into chunks under a per-iteration
//!   [token budget](EngineConfig::prefill_token_budget) (Sarathi-style):
//!   a single long prompt no longer monopolizes iterations, decode and
//!   prefill interleave inside one layer-major
//!   [`Model::forward_batch_sharded`] pass over the iteration's
//!   [`StepBatch`], and every prefilling sequence is guaranteed at least
//!   one token per iteration so nothing starves;
//! * **prefix-aware admission control** — a queued request is probed
//!   against the pool's prefix trie ([`PagedKvPool::probe_prefix`]) and
//!   reserves pages only for its *non-shared* tokens, so a cache-hot
//!   request admits under page pressure that would stall a cold one;
//!   retired sequences free their pages *within the same step*, so their
//!   slots refill immediately;
//! * **preemption, by eviction or by swap** — when the pool cannot
//!   guarantee the next chunk for every active sequence, the engine first
//!   degrades to single-token steps, then preempts the newest sequences
//!   until the remaining batch is safe. What "preempt" means is the
//!   [`PreemptPolicy`] knob: [`PreemptPolicy::RestartRecompute`] evicts
//!   (pages freed, request re-queued at the front, the whole prefix
//!   recomputed on restart — vLLM's PagedAttention strategy; a restarted
//!   request re-walks the trie, so previously sealed prefix blocks are
//!   re-adopted instead of re-quantized), while
//!   [`PreemptPolicy::SwapToHost`] *suspends* the sequence to the pool's
//!   host tier ([`PagedKvPool::suspend_seq`]) and later resumes it
//!   bit-exactly — zero recomputed tokens, at the cost of the (quantized,
//!   3-4× smaller) transfer bytes. Suspended requests wait in a resume
//!   queue with **priority over fresh admissions**, so swapped work can
//!   never starve behind new arrivals.
//!
//! Per-sequence arithmetic is bit-exact with a legacy single-sequence
//! [`oaken_model::Session`] run over the same quantizer, for every
//! admission/retire interleaving and every chunk schedule — enforced by
//! `tests/engine_props.rs` and `tests/prefix_props.rs`.

use crate::scheduler::TokenScheduler;
use oaken_model::{
    sample_greedy, BatchStep, FaultKind, FaultPlan, KernelMode, KvReadStats, KvTransfer, Model,
    PagedKvPool, PoolBatchView, PoolError, PrefixStats, RankedPools, SeqId, StepBatch,
};
use oaken_runtime::{Comm, CommStats, Runtime};
use std::collections::{HashSet, VecDeque};

/// Times a swap-out is retried after an injected transient fault before
/// the victim demotes to evict-and-restart. Persistent faults demote
/// immediately (retrying inside the burst is futile by construction).
const SWAP_OUT_RETRY_LIMIT: u32 = 3;

/// Failed resume attempts a suspended sequence may accumulate before it
/// demotes to evict-and-restart. Between attempts the sequence backs off
/// for `2^attempts` iterations — deterministic scheduler time, never
/// wall-clock, so runs replay bit-exactly.
const SWAP_IN_RETRY_LIMIT: u32 = 3;

/// Times a request may be torn down and restarted after transient append
/// faults before it fails for good.
const FAULT_RESTART_LIMIT: u32 = 3;

/// One serving request with real token content: a prompt to prefill and a
/// number of tokens to greedily decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineRequest {
    /// Request id (unique per engine run).
    pub id: u64,
    /// Prompt tokens.
    pub prompt: Vec<u32>,
    /// Tokens to generate after the prompt.
    pub max_new_tokens: usize,
}

impl EngineRequest {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics on an empty prompt or zero output budget.
    pub fn new(id: u64, prompt: Vec<u32>, max_new_tokens: usize) -> Self {
        assert!(!prompt.is_empty(), "prompt must not be empty");
        assert!(max_new_tokens > 0, "must generate at least one token");
        Self {
            id,
            prompt,
            max_new_tokens,
        }
    }

    /// Synthesizes deterministic prompt content for a length-only
    /// [`crate::Request`] (trace replays carry lengths, not tokens).
    pub fn from_lengths(req: &crate::Request, vocab_size: usize, seed: u64) -> Self {
        Self::from_lengths_with_shared_prefix(req, vocab_size, seed, 0)
    }

    /// Like [`from_lengths`](Self::from_lengths), but the first
    /// `shared_prefix` prompt tokens are derived from `seed` alone — every
    /// request synthesized with the same `(seed, shared_prefix)` starts
    /// with the identical system prompt, the traffic shape prefix caching
    /// deduplicates. The remainder stays request-unique.
    pub fn from_lengths_with_shared_prefix(
        req: &crate::Request,
        vocab_size: usize,
        seed: u64,
        shared_prefix: usize,
    ) -> Self {
        fn tok(salt: u64, i: usize, vocab_size: usize) -> u32 {
            let x = salt
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64)
                .wrapping_mul(0xD134_2543_DE82_EF95);
            ((x >> 33) % vocab_size as u64) as u32
        }
        let len = req.input_len.max(1);
        let shared = shared_prefix.min(len);
        let prompt = (0..len)
            .map(|i| {
                if i < shared {
                    tok(seed ^ 0x5EED_5EED, i, vocab_size)
                } else {
                    tok(req.id ^ seed, i, vocab_size)
                }
            })
            .collect();
        Self::new(req.id, prompt, req.output_len.max(1))
    }

    /// Tokens the pool holds when the request completes (the final sampled
    /// token is returned, never fed back).
    pub fn total_tokens(&self) -> usize {
        self.prompt.len() + self.max_new_tokens - 1
    }
}

/// How much pool capacity admission reserves per request (always net of
/// the request's trie-shared prefix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Admit as soon as the *prompt* fits; decode growth is absorbed by
    /// preemption under pressure (vLLM-style optimistic admission —
    /// maximizes batch occupancy, exercises eviction).
    #[default]
    PromptOnly,
    /// Admit only when the full `prompt + output` footprint fits
    /// (conservative; preemption becomes a fragmentation-only edge case).
    FullSequence,
}

/// What happens to a preemption victim under page pressure.
///
/// Victims are always selected **newest admission first** (LIFO over the
/// active set, see [`EngineConfig::preempt`]); the policy decides what
/// preempting costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PreemptPolicy {
    /// Evict-and-restart: free the victim's pages and re-queue it at the
    /// queue front; the restart recomputes every previously cached token
    /// through the model (vLLM's recompute strategy — cheap in memory,
    /// expensive in compute).
    #[default]
    RestartRecompute,
    /// Suspend-and-resume: move the victim's private pages to the pool's
    /// host tier and park it in the resume queue; the resume transfers
    /// the (quantized) bytes back and continues bit-exactly with **zero**
    /// recomputed tokens. Falls back to [`RestartRecompute`] for a victim
    /// the host tier cannot hold.
    ///
    /// [`RestartRecompute`]: PreemptPolicy::RestartRecompute
    SwapToHost,
}

/// Engine knobs. Configuration is a value: the engine reads nothing from
/// the process environment, and [`EngineConfig::default`] is a constant
/// apart from `num_threads` (the machine's available parallelism). The
/// README's "Configuration is a value" table maps each field to its
/// `serve` flag, its default, and the points of the test matrix
/// (`tests/support/mod.rs`, `ENGINE_MATRIX`) that vary it.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Maximum concurrent sequences per iteration.
    pub max_batch: usize,
    /// Admission reservation policy.
    pub admission: AdmissionPolicy,
    /// Preemption policy under page pressure. Victim ordering is
    /// **newest-first** regardless of policy: the most recently admitted
    /// sequence is preempted first, because it has the least cached work
    /// to move (swap) or redo (restart) and the oldest sequences — closest
    /// to retiring and releasing their pages for good — keep running.
    pub preempt: PreemptPolicy,
    /// Record every decode-phase logits vector per request (for the
    /// bit-exactness tests; memory-heavy on real vocabularies).
    pub record_logits: bool,
    /// Target prompt tokens ingested per iteration across the whole batch
    /// (the Sarathi-style chunked-prefill budget). Decoding sequences
    /// consume one token each first; the remainder is handed to
    /// prefilling sequences in admission order. Soft: every prefilling
    /// sequence still receives at least one token per iteration, so the
    /// classic one-token-per-step schedule is the `1` setting.
    pub prefill_token_budget: usize,
    /// Threads executing each engine iteration (the deterministic
    /// fork-join runtime: weight sweeps, per-sequence quantize+append,
    /// and per-`(step, KV head)` attention all shard across them).
    /// Parallel execution is **bit-exact** with `1`, which reproduces the
    /// single-threaded engine exactly. Defaults to
    /// [`oaken_runtime::default_threads`] (the machine's available
    /// parallelism).
    pub num_threads: usize,
    /// Tensor-parallel engine ranks. `1` (the default) is the unsharded
    /// engine: one pool shard, a communicator that accounts nothing.
    /// `N > 1` splits the pool into `N` private per-rank shards
    /// (contiguous KV-head slices, device/host capacity divided evenly)
    /// and the same forward pass
    /// ([`Model::forward_batch_sharded`]) runs `N` ranks merged by a
    /// deterministic all-reduce —
    /// logits stay **bit-exact** with the 1-rank engine in
    /// [`KernelMode::Exact`] for every thread count. The request is
    /// capability-gated like [`EngineConfig::kernel`]: clamped to the
    /// model's KV-head count, and downgraded to `1` for a pool whose
    /// quantizer cannot stream encoded rows (sharding slices the encoded
    /// form).
    pub num_ranks: usize,
    /// Deterministic fault schedule installed into the pool's MMU at
    /// engine construction (see [`oaken_model::FaultPlan`]). `None` by
    /// default, so the hooks are inert and the engine is bit-identical to
    /// a build without them unless a plan is passed explicitly.
    pub fault_plan: Option<FaultPlan>,
    /// Per-request deadline: a request that has been in flight (active,
    /// suspended, or requeued after preemption) for this many engine
    /// iterations since its first admission is killed with
    /// [`RequestOutcome::DeadlineExceeded`], its resources torn down
    /// through the same audited path as retirement. `None` (the default)
    /// disables the sweep.
    pub max_iterations: Option<u64>,
    /// Requested attention read path, installed into the pool at engine
    /// construction ([`PagedKvPool::set_kernel_mode`]). The request is
    /// capability-gated: a pool whose quantizer has no encoded read path
    /// stays [`KernelMode::Exact`] (see [`BatchEngine::kernel_mode`] for
    /// the installed answer).
    pub kernel: KernelMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            admission: AdmissionPolicy::default(),
            preempt: PreemptPolicy::default(),
            record_logits: false,
            prefill_token_budget: 16,
            num_threads: oaken_runtime::default_threads(),
            num_ranks: 1,
            fault_plan: None,
            max_iterations: None,
            kernel: KernelMode::default(),
        }
    }
}

/// Why a request failed — the payload of [`RequestOutcome::Failed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestFailure {
    /// The request can never complete: its non-shared footprint exceeds
    /// the whole pool, its total length exceeds the model's
    /// `max_seq_len`, or even alone it cannot take one more token.
    Impossible,
    /// A pool operation failed mid-flight and the retry/demotion budget
    /// is exhausted; carries the final error.
    Pool(PoolError),
    /// Rejected at [`BatchEngine::submit`]: an empty prompt, a zero
    /// output budget, a prompt token outside the model's vocabulary, or
    /// the id of a request still in flight.
    Invalid,
}

impl std::fmt::Display for RequestFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestFailure::Impossible => write!(f, "request can never fit the pool"),
            RequestFailure::Pool(e) => write!(f, "pool operation failed: {e}"),
            RequestFailure::Invalid => write!(f, "malformed request"),
        }
    }
}

/// Terminal state of a request. Every submitted request reaches exactly
/// one of these — the containment guarantee the chaos property tests pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Every requested token was generated.
    Finished,
    /// Dropped: impossible, or a contained failure out of retries.
    Failed(RequestFailure),
    /// Cancelled via [`BatchEngine::cancel`].
    Cancelled,
    /// Killed by the [`EngineConfig::max_iterations`] deadline sweep.
    DeadlineExceeded,
}

/// One decode token produced by an engine step — the streaming handoff
/// surface a service frontend drains after each iteration (see
/// [`BatchEngine::take_token_events`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenEvent {
    /// Request id the token belongs to.
    pub id: u64,
    /// 0-based decode index of the token within its request's output. A
    /// request evicted and restarted mid-decode re-emits the indices it
    /// recomputes — with identical token values, by the determinism
    /// contract — so a consumer resuming a stream drops events whose
    /// index is below what it already delivered.
    pub index: usize,
    /// The sampled token.
    pub token: u32,
    /// Engine iteration (1-based) that produced the token.
    pub iteration: u64,
}

/// A completed (or failed) request.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishedRequest {
    /// Request id.
    pub id: u64,
    /// Prompt length.
    pub prompt_len: usize,
    /// Greedily decoded tokens (empty for requests that never decoded;
    /// partial for requests cancelled or killed mid-decode).
    pub generated: Vec<u32>,
    /// Decode-phase logits, present when `record_logits` was set.
    pub logits: Vec<Vec<f32>>,
    /// `true` exactly when `outcome` is [`RequestOutcome::Finished`]
    /// (kept alongside it for callers that only care about success).
    pub completed: bool,
    /// Times the request was evicted and restarted.
    pub preemptions: usize,
    /// Engine iteration (1-based) that produced the request's first
    /// decode token — the time-to-first-token in iterations. 0 for
    /// requests that never decoded.
    pub ttft_iteration: u64,
    /// How the request ended.
    pub outcome: RequestOutcome,
}

/// A retired request's frozen KV plus everything a peer engine needs to
/// continue decoding it — the unit a disaggregated cluster ships from a
/// prefill engine to a decode engine (one [`KvTransfer`] per rank shard).
///
/// Produced by [`BatchEngine::take_exports`] for requests previously
/// tagged with [`BatchEngine::mark_for_export`]; consumed by
/// [`BatchEngine::ingest_frozen`] on the destination. The destination
/// continues bit-exactly: the KV holds exactly `request.prompt.len()`
/// rows (the first decode token was sampled but never fed), so decoding
/// picks up at the same position a monolithic engine would.
#[derive(Debug)]
pub struct KvExport {
    /// The request as the exporting engine ran it. A disaggregating
    /// caller typically truncated `max_new_tokens` to 1 for the prefill
    /// leg and restores the original before ingesting.
    pub request: EngineRequest,
    /// Tokens decoded before export (the prefill leg's first token).
    pub generated: Vec<u32>,
    /// Decode-phase logits, present when `record_logits` was set.
    pub logits: Vec<Vec<f32>>,
    /// Exporting engine's iteration of the first decode token.
    pub ttft_iteration: u64,
    /// One flattened KV transfer per rank shard, in rank order.
    pub transfers: Vec<KvTransfer>,
}

impl KvExport {
    /// Total bytes on the modeled wire: every shard's payload plus its
    /// self-describing size tables.
    pub fn wire_bytes(&self) -> u64 {
        self.transfers.iter().map(|t| t.wire_bytes()).sum()
    }
}

/// Aggregate counters over one engine run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStats {
    /// Engine iterations executed.
    pub iterations: u64,
    /// Admissions (restarts after preemption count again).
    pub admitted: u64,
    /// Requests retired complete.
    pub retired: u64,
    /// Requests dropped as impossible (footprint exceeds the pool).
    pub failed: u64,
    /// Evictions under page pressure.
    pub preemptions: u64,
    /// Iterations where a queued request could not be admitted for lack
    /// of pages (the capacity-stall signal of Figures 4/11).
    pub admission_stalls: u64,
    /// Largest concurrent batch observed.
    pub peak_active: usize,
    /// Prompt tokens actually fed through the model (trie-reused tokens
    /// are *not* fed and not counted here).
    pub prefill_tokens: u64,
    /// Tokens generated.
    pub decode_tokens: u64,
    /// Per-sequence prompt chunks executed (a chunk is one iteration's
    /// prompt feed for one sequence, of any length ≥ 1).
    pub prefill_chunks: u64,
    /// Prefix-cache counters mirrored from the pool (trie hits, reused
    /// tokens, skipped quantizations, deduplicated bytes).
    pub prefix: PrefixStats,
    /// Peak pages held by sealed shared blocks over the run.
    pub shared_pages_peak: u32,
    /// Peak allocated pages over the run (the high-water capacity mark
    /// prefix dedup lowers).
    pub pages_in_use_peak: u32,
    /// Sequences suspended to the host tier ([`PreemptPolicy::SwapToHost`]
    /// preemptions that found host headroom).
    pub swap_outs: u64,
    /// Suspended sequences resumed from the host tier.
    pub swap_ins: u64,
    /// Payload bytes moved device → host by suspensions.
    pub swap_bytes_to_host: u64,
    /// Payload bytes moved host → device by resumes.
    pub swap_bytes_to_device: u64,
    /// Sum over resumes of the iterations each sequence spent suspended
    /// (see [`EngineStats::mean_resume_latency`]).
    pub resume_latency_iters: u64,
    /// Prompt tokens fed through the model that an earlier incarnation of
    /// the same request had already computed — the restart-recompute waste
    /// [`PreemptPolicy::SwapToHost`] eliminates (always 0 when every
    /// preemption swaps and every suspension resumes).
    pub recomputed_prefill_tokens: u64,
    /// Suspended sequences converted back to evict-and-restart because
    /// their resume could provably never fit (nothing active to free
    /// pages, newly sealed trie blocks pinning the device) — the liveness
    /// escape hatch of the resume queue. 0 on sanely provisioned pools.
    pub resume_restarts: u64,
    /// Faults injected by the configured [`FaultPlan`] (mirrored from the
    /// pool's injector; 0 with no plan).
    pub faults_injected: u64,
    /// Injected faults absorbed by the containment layer — handled by a
    /// retry, a demotion, or a request-scoped teardown instead of a
    /// panic. Equals [`faults_injected`](Self::faults_injected) at the
    /// end of a run.
    pub faults_absorbed: u64,
    /// Operations retried after a transient fault: same-iteration
    /// swap-out retries, backed-off resume attempts, and whole-request
    /// restarts after an append fault.
    pub fault_retries: u64,
    /// Victims demoted from suspend-and-resume to evict-and-restart —
    /// because the host tier was full, a swap fault exhausted its
    /// retries, or a persistent fault made retrying futile.
    pub demotions: u64,
    /// Requests retired as [`KvExport`]s instead of finishing locally
    /// (disaggregated prefill legs).
    pub exports: u64,
    /// Frozen KV handoffs accepted via [`BatchEngine::ingest_frozen`].
    pub imports: u64,
    /// Modeled wire bytes across all exports (payload + size tables).
    pub export_wire_bytes: u64,
    /// Requests cancelled via [`BatchEngine::cancel`].
    pub cancellations: u64,
    /// Requests killed by the [`EngineConfig::max_iterations`] deadline.
    pub deadline_kills: u64,
    /// Cumulative KV read-path traffic mirrored from the pool: encoded
    /// rows/bytes attended through the fused kernel (and the rows its
    /// sweeps physically walked, `fused_rows_swept`) vs dequantized f32
    /// rows/bytes attended through the exact kernels — the serving-level
    /// view of the fused read path's bandwidth saving.
    pub kv_reads: KvReadStats,
    /// Tensor-parallel ranks the engine actually ran with (after
    /// capability gating; 1 for the unsharded engine).
    pub num_ranks: usize,
    /// Cross-rank communication mirrored from the engine's [`Comm`]:
    /// all-reduce calls, scale syncs, and total bytes moved. All zero for
    /// a 1-rank engine.
    pub comm: CommStats,
    /// Peak allocated pages **per rank shard** over the run (one entry
    /// per rank; sums to at least [`pages_in_use_peak`] when page use
    /// peaked simultaneously).
    ///
    /// [`pages_in_use_peak`]: Self::pages_in_use_peak
    pub rank_page_peaks: Vec<u32>,
    /// Sum over generation iterations of the core utilization.
    utilization_sum: f64,
    /// Iterations with at least one decoding sequence — the denominator
    /// for the utilization mean. Pure-prefill and fully stalled
    /// iterations (both common under chunked prefill) are excluded
    /// instead of diluting the mean toward zero.
    utilization_iters: u64,
}

impl EngineStats {
    /// Mean generation-phase core utilization across the iterations that
    /// actually decoded (pure-prefill/stalled iterations are ignored).
    pub fn mean_core_utilization(&self) -> f64 {
        if self.utilization_iters == 0 {
            0.0
        } else {
            self.utilization_sum / self.utilization_iters as f64
        }
    }

    /// All-reduce bytes moved per model-fed token (prefill + decode) —
    /// the per-token communication cost of tensor parallelism; 0.0 for a
    /// 1-rank engine.
    pub fn comm_bytes_per_token(&self) -> f64 {
        let tokens = self.prefill_tokens + self.decode_tokens;
        if tokens == 0 {
            0.0
        } else {
            self.comm.bytes_moved as f64 / tokens as f64
        }
    }

    /// Mean iterations a swapped-out sequence waited before resuming (0.0
    /// when nothing was resumed) — the suspend/resume round-trip latency
    /// in scheduler time.
    pub fn mean_resume_latency(&self) -> f64 {
        if self.swap_ins == 0 {
            0.0
        } else {
            self.resume_latency_iters as f64 / self.swap_ins as f64
        }
    }
}

/// One request's whole engine-side record. It moves as one value between
/// `queue` (not admitted, or restarted), `active` (its KV on device) and
/// `resume` (its KV frozen on host); which of the three holds it says
/// where the request sits. A suspension retains *everything* — the
/// resume continues bit-exactly — while a [restart](BatchEngine::restart)
/// drops the pool sequence and the output and keeps only what must
/// survive an eviction.
struct Tracked {
    req: EngineRequest,
    /// The request's pool sequence while active or suspended; `None` while
    /// queued.
    seq: Option<SeqId>,
    /// Tokens cached so far (prompt cursor while < prompt.len()); set at
    /// admission to the trie-matched prefix length — adopted tokens are
    /// never fed.
    pos: usize,
    generated: Vec<u32>,
    logits: Vec<Vec<f32>>,
    /// Times the request was preempted (evicted or swapped out).
    preemptions: usize,
    /// Iteration of the request's first decode token, carried across
    /// preemption restarts (the token was already produced — and in a
    /// real deployment streamed to the user — before the eviction; the
    /// restart merely recomputes the identical suffix).
    ttft_iteration: u64,
    /// Prompt positions an earlier incarnation already computed (0 for
    /// fresh requests): model-fed prompt tokens below this mark are
    /// recomputation, the waste `recomputed_prefill_tokens` counts.
    reached: usize,
    /// Iteration of the request's *first* admission (0 until admitted),
    /// carried across restarts — the deadline clock.
    born: u64,
    /// Teardown-and-restart cycles caused by transient append faults
    /// (bounded by `FAULT_RESTART_LIMIT`).
    fault_restarts: u32,
    /// Iteration of the latest suspension (resume-latency accounting).
    suspended_at: u64,
    /// Failed resume attempts of the current suspension (injected
    /// swap-in faults).
    retries: u32,
    /// Earliest iteration the next resume attempt may run: after a
    /// failed attempt the sequence backs off `2^retries` iterations —
    /// deterministic scheduler time, so runs replay bit-exactly.
    retry_at: u64,
}

impl Tracked {
    fn new(req: EngineRequest) -> Self {
        Self {
            req,
            seq: None,
            pos: 0,
            generated: Vec::new(),
            logits: Vec::new(),
            preemptions: 0,
            ttft_iteration: 0,
            reached: 0,
            born: 0,
            fault_restarts: 0,
            suspended_at: 0,
            retries: 0,
            retry_at: 0,
        }
    }

    fn seq(&self) -> SeqId {
        self.seq
            .expect("active and suspended requests hold a sequence")
    }

    fn decoding(&self) -> bool {
        self.pos >= self.req.prompt.len()
    }

    fn finished(&self) -> bool {
        self.generated.len() >= self.req.max_new_tokens
    }
}

/// The continuous-batching engine. See the module docs.
pub struct BatchEngine<'m> {
    model: &'m Model,
    /// The KV pool, split into one private shard per tensor-parallel rank
    /// (a single unsharded pool for the 1-rank engine).
    pools: RankedPools,
    /// The deterministic all-reduce context shared by every iteration
    /// (a no-op accounting shell for the 1-rank engine).
    comm: Comm,
    scheduler: TokenScheduler,
    config: EngineConfig,
    runtime: Runtime,
    queue: VecDeque<Tracked>,
    /// Suspended sequences waiting to thaw, oldest suspension first.
    /// Strict priority over `queue`: fresh admissions wait while a resume
    /// is pending, so swapped work cannot starve.
    resume: VecDeque<Tracked>,
    active: Vec<Tracked>,
    finished: Vec<FinishedRequest>,
    /// Request ids to retire as [`KvExport`]s instead of finishing.
    export_marks: HashSet<u64>,
    /// Exports produced but not yet drained by [`take_exports`].
    ///
    /// [`take_exports`]: Self::take_exports
    exports: Vec<KvExport>,
    /// Decode tokens emitted since the last [`take_token_events`] drain
    /// (bounded by the workload's total decode tokens when never drained).
    ///
    /// [`take_token_events`]: Self::take_token_events
    emitted: Vec<TokenEvent>,
    stats: EngineStats,
}

impl<'m> BatchEngine<'m> {
    /// Creates an engine over a model, a shared pool (whose geometry must
    /// match the model), and a core scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` or `prefill_token_budget` is zero.
    pub fn new(
        model: &'m Model,
        pool: PagedKvPool,
        scheduler: TokenScheduler,
        config: EngineConfig,
    ) -> Self {
        assert!(config.max_batch > 0, "need at least one batch slot");
        assert!(
            config.prefill_token_budget > 0,
            "need at least one prefill token per iteration"
        );
        assert!(config.num_threads > 0, "need at least one thread");
        assert!(config.num_ranks > 0, "need at least one rank");
        // Capability-gate the rank request: sharding stores each rank's
        // KV-head slice as encoded row *slices*, which requires the
        // pool's quantizer to stream encoded rows (the same capability
        // the fused kernels need). A pool without it runs unsharded.
        let ranks = if config.num_ranks > 1 && pool.append_only_views() {
            config.num_ranks.min(model.config().num_kv_heads)
        } else {
            1
        };
        let mut pools = if ranks > 1 {
            RankedPools::split(model.config(), pool, ranks)
        } else {
            RankedPools::single(model.config(), pool)
        };
        if let Some(plan) = config.fault_plan {
            pools.install_faults(plan);
        }
        if config.kernel != pools.kernel_mode() {
            pools.set_kernel_mode(config.kernel);
        }
        let stats = EngineStats {
            num_ranks: ranks,
            rank_page_peaks: vec![0; ranks],
            ..EngineStats::default()
        };
        Self {
            model,
            pools,
            comm: Comm::new(ranks),
            scheduler,
            runtime: Runtime::new(config.num_threads),
            config,
            queue: VecDeque::new(),
            resume: VecDeque::new(),
            active: Vec::new(),
            finished: Vec::new(),
            export_marks: HashSet::new(),
            exports: Vec::new(),
            emitted: Vec::new(),
            stats,
        }
    }

    /// The engine's fork-join runtime (shared by every iteration).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// The attention read path actually installed in the pool —
    /// [`KernelMode::Exact`] when the configured request could not be
    /// honored (quantizer without an encoded read path).
    pub fn kernel_mode(&self) -> KernelMode {
        self.pools.kernel_mode()
    }

    /// Tensor-parallel ranks the engine actually runs with, after
    /// capability gating — 1 when the request was downgraded (see
    /// [`EngineConfig::num_ranks`]).
    pub fn num_ranks(&self) -> usize {
        self.pools.num_ranks()
    }

    /// Enqueues a request. A malformed one — empty prompt, zero output
    /// budget, an out-of-vocabulary prompt token ([`EngineRequest`]'s
    /// fields are public, so [`EngineRequest::new`]'s checks can be
    /// bypassed), or an id that is still in flight (queued, active or
    /// suspended: ids are what [`cancel`](Self::cancel) and the token
    /// stream address, so the first holder keeps it untouched) —
    /// finishes immediately as [`RequestFailure::Invalid`]: requests
    /// come from outside the process, and the forward pass's asserts are
    /// an internal guard that would take the engine thread, and every
    /// waiting client, down.
    pub fn submit(&mut self, req: EngineRequest) {
        let vocab = self.model.config().vocab_size;
        let valid = !self.tracked().any(|t| t.req.id == req.id)
            && !req.prompt.is_empty()
            && req.max_new_tokens > 0
            && req.prompt.iter().all(|&t| (t as usize) < vocab);
        let t = Tracked::new(req);
        if valid {
            self.queue.push_back(t);
        } else {
            self.finish(t, RequestOutcome::Failed(RequestFailure::Invalid));
        }
    }

    /// Cancels a request wherever it is parked — queued, active,
    /// suspended on host, or waiting in the resume queue — releasing
    /// every pool resource it owns (private pages, pending blocks, trie
    /// refcounts, host pages) through the same audited teardown path
    /// retirement uses. The request finishes with
    /// [`RequestOutcome::Cancelled`], keeping the tokens it generated so
    /// far. Returns `false` when `id` is not in flight (unknown or
    /// already finished).
    pub fn cancel(&mut self, id: u64) -> bool {
        self.end(id, RequestOutcome::Cancelled)
    }

    /// Requests in flight — queued, active, or suspended in the resume
    /// queue. Work remains exactly while this is nonzero.
    pub fn in_flight(&self) -> usize {
        self.queue.len() + self.active.len() + self.resume.len()
    }

    /// Requests finished so far.
    pub fn finished(&self) -> &[FinishedRequest] {
        &self.finished
    }

    /// Run counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The shared pool (read-only): the sole pool for a 1-rank engine,
    /// rank 0's shard otherwise.
    pub fn pool(&self) -> &PagedKvPool {
        self.pools.lead()
    }

    /// The per-rank pool shards (one entry for a 1-rank engine).
    pub fn rank_pools(&self) -> &[PagedKvPool] {
        self.pools.ranks()
    }

    /// Currently active sequences.
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Queued (not yet admitted) requests.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Suspended requests waiting in the resume queue.
    pub fn resume_len(&self) -> usize {
        self.resume.len()
    }

    /// Drains the decode tokens emitted since the last drain, in the order
    /// they were sampled. This is the per-token streaming handoff for a
    /// service frontend: drained after every [`step`](Self::step), the
    /// events reconstruct each request's output stream incrementally
    /// without waiting for retirement. Restarted requests re-emit the
    /// decode indices they recompute (identical values — see
    /// [`TokenEvent::index`]), so stream consumers dedup by index.
    pub fn take_token_events(&mut self) -> Vec<TokenEvent> {
        std::mem::take(&mut self.emitted)
    }

    /// Ids of queued (not yet admitted) requests, queue order.
    pub fn queued_ids(&self) -> Vec<u64> {
        self.queue.iter().map(|q| q.req.id).collect()
    }

    /// Ids of currently active sequences, admission (slot) order.
    pub fn active_ids(&self) -> Vec<u64> {
        self.active.iter().map(|a| a.req.id).collect()
    }

    /// Ids of sequences suspended to the host tier, oldest suspension
    /// first — index 0 is the resume-queue head.
    pub fn suspended_ids(&self) -> Vec<u64> {
        self.resume.iter().map(|s| s.req.id).collect()
    }

    /// `(tokens_cached, prompt_len)` of an *active* request: mid-chunked
    /// prefill exactly when `0 < tokens_cached < prompt_len` (the cursor
    /// starts at the trie-matched prefix, so a fully shared prompt can
    /// skip the window). `None` for requests parked anywhere else.
    pub fn active_progress(&self, id: u64) -> Option<(usize, usize)> {
        self.active
            .iter()
            .find(|a| a.req.id == id)
            .map(|a| (a.pos, a.req.prompt.len()))
    }

    /// Tags request `id` to retire as a [`KvExport`] instead of entering
    /// the finished list — the prefill leg of a disaggregated cluster
    /// marks each request at submit time and drains
    /// [`take_exports`](Self::take_exports) after each step. A mark on a
    /// request that ends any other way (failed, cancelled, deadline) is
    /// simply never consumed: those requests finish locally.
    pub fn mark_for_export(&mut self, id: u64) {
        self.export_marks.insert(id);
    }

    /// Drains the [`KvExport`]s produced by marked requests since the
    /// last call (in retirement order).
    pub fn take_exports(&mut self) -> Vec<KvExport> {
        std::mem::take(&mut self.exports)
    }

    /// Accepts a peer engine's [`KvExport`]: each rank shard lands in
    /// this engine's host tier, and the request parks in the resume
    /// queue — strict priority over fresh admissions, identical to a
    /// locally suspended sequence — to thaw and continue decoding
    /// bit-exactly where the exporter stopped. If the resume later
    /// demotes to evict-and-restart (capacity pressure, injected swap
    /// faults), the request re-prefills here and regenerates the same
    /// tokens; consumers dedupe the re-emitted indices as usual.
    ///
    /// # Errors
    ///
    /// Hands the export back untouched when a rank's host tier lacks room
    /// ([`PoolError::OutOfHostPages`] — retry after pages free), the
    /// injected fault schedule rejects the landing ([`PoolError::Fault`]),
    /// or a shard's payload fails its checksum
    /// ([`PoolError::CorruptTransfer`]) or carries a token larger than
    /// this engine's page ([`PoolError::TransferExceedsPage`]) — such a
    /// transfer can never land, and never lands silently.
    ///
    /// # Panics
    ///
    /// Panics when the export does not match this engine (rank count,
    /// layer count, kernel mode, or a row count disagreeing with the
    /// prompt).
    #[allow(clippy::result_large_err)]
    pub fn ingest_frozen(&mut self, export: KvExport) -> Result<(), (KvExport, PoolError)> {
        assert_eq!(
            export.transfers.len(),
            self.pools.num_ranks(),
            "an export carries one transfer per rank"
        );
        assert!(
            !export.generated.is_empty(),
            "an export continues decoding: the prefill leg samples at least one token"
        );
        let pos = export.request.prompt.len();
        for t in &export.transfers {
            assert_eq!(
                t.tokens(),
                pos,
                "an export's KV holds exactly the prompt rows on every shard"
            );
        }
        let KvExport {
            request,
            generated,
            logits,
            ttft_iteration,
            transfers,
        } = export;
        match self.pools.import_seq(transfers) {
            Ok((seq, _receipt)) => {
                self.stats.imports += 1;
                self.park(Tracked {
                    seq: Some(seq),
                    pos,
                    generated,
                    logits,
                    ttft_iteration,
                    reached: pos,
                    born: self.stats.iterations,
                    ..Tracked::new(request)
                });
                Ok(())
            }
            Err((transfers, e)) => Err((
                KvExport {
                    request,
                    generated,
                    logits,
                    ttft_iteration,
                    transfers,
                },
                e,
            )),
        }
    }

    /// Runs one engine iteration: admit (prefix-probed), reserve capacity
    /// for the iteration's chunk plan (possibly degrading to single-token
    /// steps, then preempting), advance every active sequence by its
    /// chunk, retire finished sequences, and refill their slots. Returns
    /// `false` once no work remains.
    pub fn step(&mut self) -> bool {
        if self.in_flight() == 0 {
            return false;
        }
        self.stats.iterations += 1;
        self.enforce_deadlines();
        let mut stalled = self.admit();
        let plan = self.reserve_capacity();
        if self.active.is_empty() {
            // Only impossible requests were queued and all got dropped,
            // or every live sequence sits suspended waiting for pages.
            if stalled {
                self.stats.admission_stalls += 1;
            }
            self.sync_prefix_stats();
            return self.in_flight() > 0;
        }

        // Advance the whole batch by its chunk plan (layer-major under
        // the hood; a chunk's steps attend causally within the same
        // forward pass). A step is live — its logits are computed, and
        // sampled below — when it is the last of a chunk that finishes
        // the prompt, or a decode step; the rest only leave K/V rows.
        let seqs: Vec<SeqId> = self.active.iter().map(Tracked::seq).collect();
        let mut steps = Vec::new();
        let mut live = Vec::new();
        for (slot, (a, &n)) in self.active.iter().zip(&plan).enumerate() {
            if a.pos + n >= a.req.prompt.len() {
                live.push(steps.len() + n - 1);
            }
            for j in 0..n {
                let pos = a.pos + j;
                let token = if pos < a.req.prompt.len() {
                    a.req.prompt[pos]
                } else {
                    *a.generated
                        .last()
                        .expect("decode phase implies a generated token")
                };
                steps.push(BatchStep { slot, pos, token });
            }
        }
        let ranks = self.pools.plan().clone();
        let mut view = PoolBatchView::new(&mut self.pools, &seqs);
        let logits = self.model.forward_batch_sharded(
            &self.runtime,
            &ranks,
            &mut self.comm,
            &mut view,
            StepBatch::new(&steps, &live),
            None,
        );
        // Slots whose append failed mid-forward (injected fault or —
        // never on the fault-free path — exhaustion despite the
        // reservation): their forward output is discarded below and
        // the sequences are quarantined after the batch bookkeeping.
        let poisoned = view.take_poisoned();
        self.pools.note_page_peaks();
        self.stats.pages_in_use_peak = self.stats.pages_in_use_peak.max(self.pools.pages_in_use());

        let iteration = self.stats.iterations;
        let mut decode_ctx: Vec<f64> = Vec::new();
        let mut sampled = live.iter().zip(&logits).peekable();
        let mut idx = 0usize;
        for (slot, (a, &n)) in self.active.iter_mut().zip(&plan).enumerate() {
            idx += n;
            let last = sampled.next_if(|&(&i, _)| i + 1 == idx).map(|(_, l)| l);
            if poisoned.iter().any(|&(s, _)| s == slot) {
                // The slot's cached state stops at the failure point; do
                // not advance its cursor or sample from garbage logits.
                continue;
            }
            let fed_prompt = a.req.prompt.len().saturating_sub(a.pos).min(n);
            if fed_prompt > 0 {
                self.stats.prefill_tokens += fed_prompt as u64;
                self.stats.prefill_chunks += 1;
                // Prompt positions below the restart mark were already
                // computed by an earlier incarnation: pure recompute.
                self.stats.recomputed_prefill_tokens +=
                    a.reached.saturating_sub(a.pos).min(fed_prompt) as u64;
            }
            a.pos += n;
            a.reached = a.reached.max(a.pos);
            let Some(last) = last else {
                continue; // still prefilling: no logits were computed
            };
            let token = sample_greedy(last);
            a.generated.push(token);
            self.emitted.push(TokenEvent {
                id: a.req.id,
                index: a.generated.len() - 1,
                token,
                iteration,
            });
            self.stats.decode_tokens += 1;
            if a.generated.len() == 1 && a.ttft_iteration == 0 {
                a.ttft_iteration = iteration;
            }
            if self.config.record_logits {
                a.logits.push(last.clone());
            }
            decode_ctx.push(a.pos as f64);
        }

        // §5.3 generation-phase core picture for this iteration: only the
        // sequences that decoded occupy generation cores; pure-prefill
        // iterations are skipped rather than diluting the mean.
        if !decode_ctx.is_empty() {
            let assignment = self.scheduler.assign_generation_least_loaded(&decode_ctx);
            self.stats.utilization_sum += assignment.core_utilization();
            self.stats.utilization_iters += 1;
        }

        self.quarantine_poisoned(&poisoned);
        self.retire();
        // Freed pages refill their slots in the same step.
        stalled |= self.admit();
        if stalled {
            self.stats.admission_stalls += 1;
        }
        self.sync_prefix_stats();
        self.in_flight() > 0
    }

    /// Runs until every submitted request is finished or dropped.
    pub fn run(&mut self) -> &[FinishedRequest] {
        while self.step() {}
        &self.finished
    }

    fn sync_prefix_stats(&mut self) {
        self.stats.prefix = self.pools.prefix_stats();
        self.stats.shared_pages_peak = self
            .stats
            .shared_pages_peak
            .max(self.pools.shared_block_pages());
        self.stats.faults_injected = self.pools.fault_stats().injected;
        self.stats.kv_reads = self.pools.kv_read_stats();
        self.stats.comm = self.comm.stats();
        self.stats.rank_page_peaks.clear();
        self.stats
            .rank_page_peaks
            .extend_from_slice(self.pools.page_peaks());
    }

    /// Tokens each active sequence feeds this iteration: decoding
    /// sequences take exactly one; the remaining prefill budget is dealt
    /// to prefilling sequences in admission order, at least one each.
    fn chunk_plan(&self) -> Vec<usize> {
        let decoding = self.active.iter().filter(|a| a.decoding()).count();
        let mut left = self.config.prefill_token_budget.saturating_sub(decoding);
        self.active
            .iter()
            .map(|a| {
                if a.decoding() {
                    1
                } else {
                    let n = (a.req.prompt.len() - a.pos).min(left.max(1));
                    left = left.saturating_sub(n);
                    n
                }
            })
            .collect()
    }

    /// Whether the pool can absorb `plan` in the worst case. With ranked
    /// shards **every** rank must have the headroom — shards grow in
    /// lockstep (one row-slice per appended token each), so the tightest
    /// shard bounds the whole batch.
    fn plan_fits(&self, plan: &[usize]) -> bool {
        self.pools.ranks().iter().all(|pool| {
            let needed: u32 = self
                .active
                .iter()
                .zip(plan)
                .map(|(a, &n)| {
                    let p = pool.pages_possibly_needed_n(a.seq(), n);
                    debug_assert!(p.is_ok(), "active sequences are live in the pool");
                    p.unwrap_or(0)
                })
                .sum();
            needed <= pool.free_pages()
        })
    }

    /// Pages the admission policy has promised to active sequences but
    /// that are not yet ingested: the analytic footprint of each
    /// sequence's remaining promised tokens (net of its trie-shared
    /// prefix, which is part of `pos` from admission). Admission must
    /// leave this headroom untouched, otherwise "reserving" would be a
    /// no-op until the pages actually allocate and `FullSequence` would
    /// over-admit.
    fn committed_pages_on(&self, pool: &PagedKvPool) -> u64 {
        self.active
            .iter()
            .map(|a| {
                let promised_tokens = match self.config.admission {
                    AdmissionPolicy::PromptOnly => a.req.prompt.len(),
                    AdmissionPolicy::FullSequence => a.req.total_tokens(),
                };
                pool.pages_for_tokens(promised_tokens.saturating_sub(a.pos))
            })
            .sum()
    }

    /// Every tracked request, in deadline-sweep order: active (slot
    /// order), then the resume queue, then the queue.
    fn tracked(&self) -> impl Iterator<Item = &Tracked> {
        self.active.iter().chain(&self.resume).chain(&self.queue)
    }

    /// The single audited teardown path: releases every pool resource a
    /// request's sequence owns (none while queued). `suspended` selects
    /// the pool-side entry point (host-tier drop vs. device free).
    /// Teardown is best-effort by design — a sequence the pool no longer
    /// knows is already torn down, which only happens on paths that raced
    /// a prior teardown; the invariant is asserted in debug builds and
    /// ignored in release so a double-free can never cascade into a panic
    /// mid-run.
    fn teardown(&mut self, t: &mut Tracked, suspended: bool) {
        let Some(seq) = t.seq.take() else {
            return;
        };
        let r = if suspended {
            self.pools.drop_suspended_seq(seq)
        } else {
            self.pools.free_seq(seq)
        };
        debug_assert!(r.is_ok(), "teardown of a tracked sequence failed: {r:?}");
    }

    /// Records a request's terminal state. Every request leaves the engine
    /// through this single path, whatever the outcome — the bookkeeping
    /// (`retired`/`failed`/`cancellations`/`deadline_kills`) can therefore
    /// never drift from the `finished` list. The caller has torn the
    /// request down already.
    fn finish(&mut self, t: Tracked, outcome: RequestOutcome) {
        debug_assert!(t.seq.is_none(), "finished requests hold no sequence");
        match outcome {
            RequestOutcome::Finished => self.stats.retired += 1,
            RequestOutcome::Failed(_) => self.stats.failed += 1,
            RequestOutcome::Cancelled => self.stats.cancellations += 1,
            RequestOutcome::DeadlineExceeded => self.stats.deadline_kills += 1,
        }
        self.finished.push(FinishedRequest {
            id: t.req.id,
            prompt_len: t.req.prompt.len(),
            generated: t.generated,
            logits: t.logits,
            completed: outcome == RequestOutcome::Finished,
            preemptions: t.preemptions,
            ttft_iteration: t.ttft_iteration,
            outcome,
        });
    }

    /// Ends request `id` wherever it is parked — active, suspended in the
    /// resume queue, or queued: tears it down and finishes it with
    /// `outcome`, keeping the tokens it generated so far. Returns `false`
    /// when `id` is not in flight.
    fn end(&mut self, id: u64, outcome: RequestOutcome) -> bool {
        let is_id = |t: &Tracked| t.req.id == id;
        let found = if let Some(i) = self.active.iter().position(is_id) {
            Some((self.active.remove(i), false))
        } else if let Some(i) = self.resume.iter().position(is_id) {
            self.resume.remove(i).map(|t| (t, true))
        } else {
            let i = self.queue.iter().position(is_id);
            i.and_then(|i| self.queue.remove(i)).map(|t| (t, false))
        };
        let Some((mut t, suspended)) = found else {
            return false;
        };
        self.teardown(&mut t, suspended);
        self.finish(t, outcome);
        true
    }

    /// Tears a request down and requeues it at the queue front to start
    /// over: its output and pool sequence go, while what must survive an
    /// eviction — preemption and fault-restart counts, TTFT, the
    /// recompute mark, the deadline clock — rides along. Greedy decode
    /// regenerates the dropped output bit-identically.
    fn restart(&mut self, mut t: Tracked, suspended: bool) {
        self.teardown(&mut t, suspended);
        t.generated.clear();
        t.logits.clear();
        self.queue.push_front(t);
    }

    /// Parks a suspended request at the back of the resume queue, its
    /// resume-retry state fresh.
    fn park(&mut self, t: Tracked) {
        self.resume.push_back(Tracked {
            suspended_at: self.stats.iterations,
            retries: 0,
            retry_at: 0,
            ..t
        });
    }

    /// Kills every in-flight request whose deadline clock
    /// ([`EngineConfig::max_iterations`] iterations since first admission)
    /// has expired — wherever it is parked. Queued requests that were
    /// never admitted (`born == 0`) are exempt: their clock has not
    /// started.
    fn enforce_deadlines(&mut self) {
        let Some(limit) = self.config.max_iterations else {
            return;
        };
        let now = self.stats.iterations;
        let expired: Vec<u64> = self
            .tracked()
            .filter(|t| t.born > 0 && now - t.born >= limit)
            .map(|t| t.req.id)
            .collect();
        for id in expired {
            self.end(id, RequestOutcome::DeadlineExceeded);
        }
    }

    /// Quarantines the sequences whose in-forward append failed: the
    /// poisoned slot is torn down and — for a transient fault within the
    /// restart budget — restarted, otherwise failed for good. Only the
    /// offending sequences are touched; the rest of the batch already
    /// advanced normally.
    fn quarantine_poisoned(&mut self, poisoned: &[(usize, PoolError)]) {
        // Highest slot first so earlier removals don't shift later ones.
        let mut order: Vec<usize> = (0..poisoned.len()).collect();
        order.sort_by(|&x, &y| poisoned[y].0.cmp(&poisoned[x].0));
        for &p in &order {
            let (slot, ref err) = poisoned[p];
            let mut a = self.active.remove(slot);
            self.stats.faults_absorbed += 1;
            let transient = matches!(
                err,
                PoolError::Fault {
                    kind: FaultKind::Transient,
                    ..
                }
            );
            if transient && a.fault_restarts < FAULT_RESTART_LIMIT {
                self.stats.fault_retries += 1;
                a.fault_restarts += 1;
                self.restart(a, false);
            } else {
                self.teardown(&mut a, false);
                self.finish(a, RequestOutcome::Failed(RequestFailure::Pool(*err)));
            }
        }
    }

    /// Resumes suspended sequences from the front of the resume queue
    /// while device pages and batch slots allow. Returns `Some(stalled)`
    /// when fresh admission must wait — either because a resume is still
    /// pending (strict priority: swapped work never starves behind new
    /// arrivals; `stalled` is true when it was pages, not slots, that
    /// blocked it) — or `None` when the resume queue drained.
    ///
    /// Liveness escape hatch: with *nothing active*, no future retirement
    /// can free device pages, so a resume head that does not fit then can
    /// never fit — other suspended sequences may have sealed new trie
    /// blocks after it froze, pinning device pages it used to occupy. The
    /// head is converted back to an evict-and-restart (suspended state
    /// discarded, request re-queued at the front; counted in
    /// [`EngineStats::resume_restarts`]), which releases its trie pins
    /// and unwedges the hierarchy at the price of recompute.
    fn resume_suspended(&mut self) -> Option<bool> {
        while self.active.len() < self.config.max_batch {
            let front = self.resume.front()?;
            if front.retry_at > self.stats.iterations {
                // Backing off after a failed resume attempt: the head
                // holds its queue position (strict priority stands) but
                // fresh admission is not page-stalled by it.
                return Some(false);
            }
            let front_seq = front.seq();
            // Resuming materializes the frozen pages on *every* rank
            // shard simultaneously; the tightest shard gates the resume.
            let fits = (0..self.pools.num_ranks()).all(|r| {
                let pool = &self.pools.ranks()[r];
                let frozen = u64::from(self.pools.suspended_seq_pages(r, front_seq));
                frozen + self.committed_pages_on(pool) <= u64::from(pool.free_pages())
            });
            if !fits && !self.active.is_empty() {
                return Some(true);
            }
            let mut s = self.resume.pop_front().expect("front exists");
            if !fits {
                self.stats.resume_restarts += 1;
                self.restart(s, true);
                continue;
            }
            let receipt = match self.pools.resume_seq(front_seq) {
                Ok(receipt) => receipt,
                Err(PoolError::Fault { .. }) => {
                    // Injected swap-in fault: the sequence stays frozen on
                    // the host. Retry after a deterministic exponential
                    // backoff (scheduler iterations, never wall-clock);
                    // out of retries, demote to evict-and-restart.
                    self.stats.faults_absorbed += 1;
                    s.retries += 1;
                    if s.retries > SWAP_IN_RETRY_LIMIT {
                        self.stats.demotions += 1;
                        self.stats.resume_restarts += 1;
                        self.restart(s, true);
                        continue;
                    }
                    self.stats.fault_retries += 1;
                    s.retry_at = self.stats.iterations + (1u64 << s.retries);
                    self.resume.push_front(s);
                    return Some(false);
                }
                Err(e) => {
                    // Resume of a headroom-checked suspended sequence can
                    // only fail via injection or a frozen entry corrupted
                    // on host (typed, and the request's failure: no retry
                    // can help); anything else is an engine bug. Contain
                    // either as a request failure rather than panicking
                    // the loop.
                    debug_assert!(
                        e == PoolError::CorruptTransfer,
                        "unexpected resume failure: {e}"
                    );
                    self.teardown(&mut s, true);
                    self.finish(s, RequestOutcome::Failed(RequestFailure::Pool(e)));
                    continue;
                }
            };
            self.stats.swap_ins += 1;
            self.stats.swap_bytes_to_device += receipt.bytes;
            self.stats.resume_latency_iters += self.stats.iterations - s.suspended_at;
            self.active.push(s);
        }
        if self.resume.is_empty() {
            None
        } else {
            // Out of batch slots, not pages: no admission stall, but
            // fresh requests still wait behind the pending resumes.
            Some(false)
        }
    }

    /// Admits requests while the pool has pages and batch slots: first
    /// the resume queue (strict priority — see
    /// [`resume_suspended`](Self::resume_suspended)), then queue-front
    /// fresh requests, probing each prompt against the prefix trie so
    /// only *non-shared* pages are reserved. Under
    /// [`PreemptPolicy::SwapToHost`] the fresh-admission headroom also
    /// counts free *host* pages: overflow is survivable by swapping, so
    /// the effective capacity is the whole hierarchy, not one tier.
    /// Requests that can never complete — non-shared footprint beyond the
    /// whole pool, or sequence length beyond the model's `max_seq_len` —
    /// are dropped as failed. Returns whether a possible request was left
    /// waiting for pages (an admission stall).
    fn admit(&mut self) -> bool {
        let mut stalled = false;
        let pending_resumes = self.resume_suspended();
        self.stats.peak_active = self.stats.peak_active.max(self.active.len());
        if let Some(resume_stalled) = pending_resumes {
            return resume_stalled;
        }
        while self.active.len() < self.config.max_batch {
            let Some(front) = self.queue.front() else {
                break;
            };
            let matched = self.pools.probe_prefix(&front.req.prompt);
            // Every rank shard must hold the request (its slice of every
            // row), so both the impossibility and the reservation checks
            // quantify over all shards — the tightest one decides.
            let impossible = front.req.total_tokens() > self.model.config().max_seq_len
                || self.pools.ranks().iter().any(|pool| {
                    pool.pages_for_tokens(front.req.total_tokens() - matched)
                        > u64::from(pool.capacity_pages())
                });
            if impossible {
                let q = self.queue.pop_front().expect("front exists");
                self.finish(q, RequestOutcome::Failed(RequestFailure::Impossible));
                continue;
            }
            let fits = self.pools.ranks().iter().all(|pool| {
                let reserve = match self.config.admission {
                    AdmissionPolicy::PromptOnly => {
                        pool.pages_for_tokens(front.req.prompt.len() - matched)
                    }
                    AdmissionPolicy::FullSequence => {
                        pool.pages_for_tokens(front.req.total_tokens() - matched)
                    }
                };
                let host_headroom = match self.config.preempt {
                    PreemptPolicy::SwapToHost => u64::from(pool.host_free_pages()),
                    PreemptPolicy::RestartRecompute => 0,
                };
                reserve + self.committed_pages_on(pool)
                    <= u64::from(pool.free_pages()) + host_headroom
            });
            if !fits {
                stalled = true;
                break;
            }
            let mut q = self.queue.pop_front().expect("front exists");
            let alloc = self.pools.alloc_seq_with_prefix(&q.req.prompt);
            debug_assert_eq!(alloc.matched_tokens, matched, "probe/alloc agree");
            self.stats.admitted += 1;
            q.seq = Some(alloc.seq);
            q.pos = alloc.matched_tokens;
            // The deadline clock starts at the *first* admission and
            // survives restarts.
            if q.born == 0 {
                q.born = self.stats.iterations;
            }
            self.active.push(q);
        }
        self.stats.peak_active = self.stats.peak_active.max(self.active.len());
        stalled
    }

    /// Index of the next preemption victim: the **newest admission**
    /// (the last slot of the active set). The newest sequence has the
    /// least cached work to move or redo, and the oldest — closest to
    /// retiring for good — keep their pages; `tests::victim_ordering`
    /// pins this choice.
    fn victim_slot(&self) -> usize {
        self.active.len() - 1
    }

    /// Guarantees the pool can absorb this iteration's chunk plan,
    /// degrading to single-token steps under pressure and then preempting
    /// the newest sequences (restart or swap, per
    /// [`EngineConfig::preempt`]) until it fits. A sequence that cannot
    /// proceed even alone is dropped. Returns the reserved plan.
    fn reserve_capacity(&mut self) -> Vec<usize> {
        loop {
            let plan = self.chunk_plan();
            if self.plan_fits(&plan) {
                return plan;
            }
            // Budgeted chunks do not fit: try the classic one-token-each
            // schedule before preempting anyone.
            let fallback = vec![1usize; self.active.len()];
            if self.plan_fits(&fallback) {
                return fallback;
            }
            let mut a = self.active.remove(self.victim_slot());
            if self.active.is_empty() {
                // Even alone, the *worst-case* bound says the sequence
                // cannot take one more token. The bound is deliberately
                // conservative (appends must never fail mid-forward), so
                // at the extreme margin this can drop a request whose
                // actual encoded rows would still have squeezed into the
                // page tails — safety over utilization.
                self.teardown(&mut a, false);
                self.finish(a, RequestOutcome::Failed(RequestFailure::Impossible));
                return Vec::new();
            }
            self.stats.preemptions += 1;
            a.preemptions += 1;
            if self.config.preempt == PreemptPolicy::SwapToHost {
                // Transient swap faults are retried in place (bounded);
                // a persistent fault, an exhausted budget, or a full host
                // tier demotes this victim to evict-and-restart.
                let mut swapped = None;
                for attempt in 0..=SWAP_OUT_RETRY_LIMIT {
                    match self.pools.suspend_seq(a.seq()) {
                        Ok(receipt) => {
                            swapped = Some(receipt);
                            break;
                        }
                        Err(PoolError::Fault { kind, .. }) => {
                            self.stats.faults_absorbed += 1;
                            if kind == FaultKind::Persistent || attempt == SWAP_OUT_RETRY_LIMIT {
                                self.stats.demotions += 1;
                                break;
                            }
                            self.stats.fault_retries += 1;
                        }
                        // Host tier full: this victim falls back to
                        // evict-and-restart (the recompute cost shows up
                        // in `recomputed_prefill_tokens`).
                        Err(PoolError::OutOfHostPages { .. }) => {
                            self.stats.demotions += 1;
                            break;
                        }
                        Err(e) => {
                            debug_assert!(false, "unexpected suspend failure: {e}");
                            break;
                        }
                    }
                }
                if let Some(receipt) = swapped {
                    self.stats.swap_outs += 1;
                    self.stats.swap_bytes_to_host += receipt.bytes;
                    self.park(a);
                    continue;
                }
            }
            self.restart(a, false);
        }
    }

    /// Retires finished sequences, freeing their private pages and
    /// releasing their shared blocks immediately.
    fn retire(&mut self) {
        let mut i = 0;
        while i < self.active.len() {
            if !self.active[i].finished() {
                i += 1;
                continue;
            }
            let mut a = self.active.remove(i);
            if self.export_marks.remove(&a.req.id) {
                // Export *is* the teardown: every rank pool flattens and
                // frees the sequence, and the request leaves through the
                // export drain instead of the finished list — a peer
                // engine finishes it.
                let transfers = self
                    .pools
                    .export_seq(a.seq())
                    .expect("retiring sequences are live in every rank pool");
                let export = KvExport {
                    request: a.req,
                    generated: a.generated,
                    logits: a.logits,
                    ttft_iteration: a.ttft_iteration,
                    transfers,
                };
                self.stats.exports += 1;
                self.stats.export_wire_bytes += export.wire_bytes();
                self.exports.push(export);
                continue;
            }
            self.teardown(&mut a, false);
            self.finish(a, RequestOutcome::Finished);
        }
    }
}

impl std::fmt::Debug for BatchEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchEngine")
            .field("active", &self.active.len())
            .field("queued", &self.queue.len())
            .field("resume_queued", &self.resume.len())
            .field("finished", &self.finished.len())
            .field("num_ranks", &self.pools.num_ranks())
            .field("free_pages", &self.pools.free_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oaken_model::{ModelConfig, PagedKvPool};

    fn tiny_model() -> Model {
        Model::synthetic(ModelConfig::llama2_7b().proxy(2, 32), 42)
    }

    fn engine_with_pages<'m>(
        model: &'m Model,
        pages: u32,
        config: EngineConfig,
    ) -> BatchEngine<'m> {
        let pool = PagedKvPool::for_model(model.config(), None, pages, 512);
        BatchEngine::new(model, pool, TokenScheduler::new(4), config)
    }

    fn req(id: u64, prompt_len: usize, out: usize) -> EngineRequest {
        EngineRequest::new(
            id,
            (0..prompt_len as u32)
                .map(|i| (i * 7 + id as u32) % 256)
                .collect(),
            out,
        )
    }

    #[test]
    fn single_request_completes() {
        let m = tiny_model();
        let mut e = engine_with_pages(&m, 512, EngineConfig::default());
        e.submit(req(0, 4, 3));
        let fin = e.run().to_vec();
        assert_eq!(fin.len(), 1);
        assert!(fin[0].completed);
        assert_eq!(fin[0].generated.len(), 3);
        assert!(fin[0].ttft_iteration >= 1);
        assert_eq!(e.stats().retired, 1);
        assert_eq!(e.stats().prefill_tokens, 4);
        assert_eq!(e.stats().decode_tokens, 3);
        // All pages returned.
        assert_eq!(e.pool().free_pages(), e.pool().capacity_pages());
    }

    #[test]
    fn chunked_prefill_compresses_prompt_iterations() {
        let m = tiny_model();
        let mut chunked = engine_with_pages(
            &m,
            2048,
            EngineConfig {
                prefill_token_budget: 16,
                ..EngineConfig::default()
            },
        );
        let mut classic = engine_with_pages(
            &m,
            2048,
            EngineConfig {
                prefill_token_budget: 1,
                ..EngineConfig::default()
            },
        );
        chunked.submit(req(0, 40, 3));
        classic.submit(req(0, 40, 3));
        chunked.run();
        classic.run();
        // Same tokens, same outputs...
        assert_eq!(
            chunked.finished()[0].generated,
            classic.finished()[0].generated
        );
        assert_eq!(chunked.stats().prefill_tokens, 40);
        // ...but the 40-token prompt takes 40 iterations classically vs
        // ceil(40/16) + decode with the budget.
        assert!(
            chunked.stats().iterations * 3 < classic.stats().iterations,
            "chunked {} vs classic {}",
            chunked.stats().iterations,
            classic.stats().iterations
        );
        assert!(chunked.stats().prefill_chunks < classic.stats().prefill_chunks);
    }

    #[test]
    fn disaggregated_handoff_matches_monolithic_tokens() {
        let m = tiny_model();
        // Monolithic reference: one engine runs the request end to end.
        let mut mono = engine_with_pages(&m, 512, EngineConfig::default());
        mono.submit(req(7, 12, 5));
        mono.run();
        let want = mono.finished()[0].generated.clone();
        assert_eq!(want.len(), 5);

        // Prefill leg: same request truncated to one decode token,
        // marked so it retires as an export instead of finishing.
        let mut prefill = engine_with_pages(&m, 512, EngineConfig::default());
        let mut r = req(7, 12, 5);
        r.max_new_tokens = 1;
        prefill.submit(r);
        prefill.mark_for_export(7);
        prefill.run();
        assert!(
            prefill.finished().is_empty(),
            "exported requests do not finish locally"
        );
        assert_eq!(prefill.stats().exports, 1);
        assert_eq!(
            prefill.pool().free_pages(),
            prefill.pool().capacity_pages(),
            "export is teardown: every source page freed"
        );
        let mut exports = prefill.take_exports();
        assert_eq!(exports.len(), 1);
        assert!(prefill.take_exports().is_empty(), "drain empties");
        let mut export = exports.pop().unwrap();
        assert_eq!(export.generated, want[..1], "first token rides along");
        assert!(export.wire_bytes() > 0);
        assert_eq!(prefill.stats().export_wire_bytes, export.wire_bytes());
        export.request.max_new_tokens = 5;

        // Decode leg: ingest the frozen KV and finish the request
        // without refeeding a single prompt token.
        let mut decode = engine_with_pages(&m, 512, EngineConfig::default());
        decode.ingest_frozen(export).unwrap();
        decode.run();
        let fin = decode.finished();
        assert_eq!(fin.len(), 1);
        assert!(fin[0].completed);
        assert_eq!(fin[0].generated, want, "handoff is bit-exact");
        assert_eq!(decode.stats().imports, 1);
        assert_eq!(
            decode.stats().swap_ins,
            1,
            "thawed through the resume queue"
        );
        assert_eq!(
            decode.stats().prefill_tokens,
            0,
            "no prompt recompute on the decode leg"
        );
        assert_eq!(decode.pool().free_pages(), decode.pool().capacity_pages());
    }

    #[test]
    fn retired_slots_refill_immediately() {
        let m = tiny_model();
        let mut e = engine_with_pages(
            &m,
            512,
            EngineConfig {
                max_batch: 2,
                ..EngineConfig::default()
            },
        );
        for id in 0..5 {
            e.submit(req(id, 2, 2));
        }
        e.run();
        assert_eq!(e.stats().retired, 5);
        assert_eq!(e.stats().peak_active, 2);
        // 5 requests × 3 steps each (2 prefill-ish + decode), two at a
        // time: the run cannot have taken 5 × 3 sequential iterations.
        assert!(e.stats().iterations < 15, "{:?}", e.stats());
    }

    #[test]
    fn impossible_request_fails_cleanly() {
        let m = tiny_model();
        // 36 pages: enough for one short sequence (this geometry's page
        // floor is 32 streams × 1 page), far too small for request 0.
        let mut e = engine_with_pages(&m, 36, EngineConfig::default());
        e.submit(req(0, 200, 100));
        e.submit(req(1, 2, 2));
        let fin = e.run().to_vec();
        assert_eq!(fin.len(), 2);
        let failed = fin.iter().find(|f| f.id == 0).unwrap();
        assert!(!failed.completed);
        assert!(failed.generated.is_empty());
        let ok = fin.iter().find(|f| f.id == 1).unwrap();
        assert!(ok.completed);
        assert_eq!(e.stats().failed, 1);
    }

    #[test]
    fn tight_pool_stalls_admission_but_completes_everything() {
        let m = tiny_model();
        // 40 pages holds exactly one 32-page sequence at a time.
        let mut e = engine_with_pages(
            &m,
            40,
            EngineConfig {
                max_batch: 4,
                admission: AdmissionPolicy::FullSequence,
                ..EngineConfig::default()
            },
        );
        for id in 0..4 {
            e.submit(req(id, 6, 4));
        }
        let fin = e.run().to_vec();
        assert_eq!(fin.len(), 4);
        assert!(fin.iter().all(|f| f.completed), "{fin:?}");
        assert!(
            e.stats().admission_stalls > 0,
            "a 16-page pool must stall admission: {:?}",
            e.stats()
        );
    }

    #[test]
    fn optimistic_admission_preempts_under_pressure() {
        let m = tiny_model();
        // 70 pages: prompt-only admission packs two sequences (32 pages
        // promised each), but their decode growth to 64 pages each must
        // overflow and evict.
        let mut e = engine_with_pages(
            &m,
            70,
            EngineConfig {
                max_batch: 4,
                admission: AdmissionPolicy::PromptOnly,
                // Pinned unsharded: the 70-page geometry is calibrated so
                // decode growth evicts exactly here; rank-sharded pools
                // round pages per shard and shift the eviction schedule.
                num_ranks: 1,
                ..EngineConfig::default()
            },
        );
        for id in 0..4 {
            e.submit(req(id, 4, 40));
        }
        let fin = e.run().to_vec();
        assert_eq!(fin.len(), 4);
        assert!(fin.iter().all(|f| f.completed), "{fin:?}");
        assert!(
            e.stats().preemptions > 0,
            "long decodes over an optimistically packed pool must evict: {:?}",
            e.stats()
        );
        assert!(fin.iter().any(|f| f.preemptions > 0));
        // TTFT survives preemption: the first-wave requests (4-token
        // prompts, 16-token budget) sample their first token in the very
        // first iterations, long before page growth evicts one of them —
        // the preserved value must not be overwritten by the restart.
        assert!(fin.iter().all(|f| f.ttft_iteration >= 1));
        assert!(
            fin.iter()
                .any(|f| f.preemptions > 0 && f.ttft_iteration <= 10),
            "a preempted first-wave request must keep its early TTFT: {:?}",
            fin.iter()
                .map(|f| (f.id, f.preemptions, f.ttft_iteration))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn over_long_request_fails_instead_of_panicking() {
        let m = tiny_model(); // proxy max_seq_len = 512
        let mut e = engine_with_pages(&m, 100_000, EngineConfig::default());
        e.submit(req(0, 200, 400)); // 599 cached tokens > 512
        e.submit(req(1, 3, 3));
        let fin = e.run().to_vec();
        assert!(!fin.iter().find(|f| f.id == 0).unwrap().completed);
        assert!(fin.iter().find(|f| f.id == 1).unwrap().completed);
    }

    #[test]
    fn utilization_is_tracked() {
        let m = tiny_model();
        let mut e = engine_with_pages(&m, 256, EngineConfig::default());
        e.submit(req(0, 3, 3));
        e.run();
        let u = e.stats().mean_core_utilization();
        assert!(u > 0.0 && u <= 1.0, "{u}");
    }

    /// Pure-prefill iterations must not drag the generation-phase
    /// utilization mean toward zero: a long prompt followed by a short
    /// decode reports the decode iterations' utilization only.
    #[test]
    fn utilization_ignores_pure_prefill_iterations() {
        let m = tiny_model();
        // Budget 1: a 30-token prompt takes 30 pure-prefill iterations
        // before 3 decode iterations on a single sequence.
        let mut e = engine_with_pages(
            &m,
            2048,
            EngineConfig {
                prefill_token_budget: 1,
                ..EngineConfig::default()
            },
        );
        e.submit(req(0, 30, 3));
        e.run();
        // One sequence on 4 cores decodes at utilization 0.25 exactly;
        // counting the 29 empty iterations would report ~0.02.
        let u = e.stats().mean_core_utilization();
        assert!((u - 0.25).abs() < 1e-9, "{u}");
    }

    /// Pins the preemption victim ordering in isolation: the victim slot
    /// is always the *newest admission* (the last active slot), so under
    /// pressure the engine sheds the sequence with the least cached work
    /// while the oldest sequences run on toward retirement.
    #[test]
    fn victim_ordering_is_newest_admission_first() {
        let m = tiny_model();
        let mut e = engine_with_pages(
            &m,
            70,
            EngineConfig {
                max_batch: 2,
                admission: AdmissionPolicy::PromptOnly,
                preempt: PreemptPolicy::RestartRecompute,
                // Pinned unsharded: fixed 70-page eviction geometry.
                num_ranks: 1,
                ..EngineConfig::default()
            },
        );
        e.submit(req(0, 4, 40));
        e.submit(req(1, 4, 40));
        // Drive until the first preemption.
        while e.stats().preemptions == 0 && e.step() {}
        assert!(e.stats().preemptions > 0, "pressure must preempt");
        // The victim slot is the last active index by definition...
        assert_eq!(e.victim_slot(), e.active.len() - 1);
        // ...and the preempted request was the newest admission (request
        // 1 was admitted second): request 0 survived in slot 0. (The
        // victim may already have been re-admitted by the end of the
        // step, so the durable evidence is who was *never* shed.)
        assert_eq!(e.active[0].req.id, 0, "oldest admission keeps running");
        e.run();
        assert!(e.finished().iter().all(|f| f.completed));
        let fin1 = e.finished().iter().find(|f| f.id == 1).unwrap();
        assert!(fin1.preemptions > 0);
        let fin0 = e.finished().iter().find(|f| f.id == 0).unwrap();
        assert_eq!(fin0.preemptions, 0, "the oldest sequence was never shed");
    }

    /// The acceptance bar of the two-tier refactor: on a pool sized to
    /// force preemption, `SwapToHost` retires the identical workload with
    /// **zero** recomputed prefill tokens, while `RestartRecompute` pays
    /// a nonzero recompute bill — and both produce the same tokens.
    #[test]
    fn swap_policy_eliminates_recompute_on_the_same_workload() {
        let m = tiny_model();
        let run = |preempt: PreemptPolicy| {
            let mut e = engine_with_pages(
                &m,
                70,
                EngineConfig {
                    max_batch: 4,
                    admission: AdmissionPolicy::PromptOnly,
                    preempt,
                    // Pinned unsharded: fixed 70-page eviction geometry.
                    num_ranks: 1,
                    ..EngineConfig::default()
                },
            );
            for id in 0..4 {
                e.submit(req(id, 4, 40));
            }
            let mut fin = e.run().to_vec();
            fin.sort_by_key(|f| f.id);
            (fin, e.stats().clone())
        };
        let (fin_restart, restart) = run(PreemptPolicy::RestartRecompute);
        let (fin_swap, swap) = run(PreemptPolicy::SwapToHost);
        assert!(restart.preemptions > 0, "pool must be tight: {restart:?}");
        assert!(swap.preemptions > 0, "swap run preempts too: {swap:?}");
        assert!(
            restart.recomputed_prefill_tokens > 0,
            "restart must pay recompute: {restart:?}"
        );
        assert_eq!(
            swap.recomputed_prefill_tokens, 0,
            "swap must never recompute: {swap:?}"
        );
        assert!(swap.swap_outs > 0 && swap.swap_ins > 0);
        assert_eq!(swap.swap_outs, swap.swap_ins, "everything resumed");
        assert!(swap.swap_bytes_to_host > 0);
        assert_eq!(swap.swap_bytes_to_host, swap.swap_bytes_to_device);
        assert!(swap.mean_resume_latency() >= 1.0, "{swap:?}");
        assert_eq!(restart.swap_outs, 0, "restart never touches the host tier");
        // Same workload, same tokens, either way.
        assert!(fin_swap.iter().all(|f| f.completed));
        for (a, b) in fin_swap.iter().zip(&fin_restart) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.generated, b.generated, "policies must agree on tokens");
        }
    }

    /// A host tier too small for a loaded victim degrades to restart
    /// instead of wedging: the workload still completes and the recompute
    /// bill is paid. (Victims with *nothing cached yet* still "suspend" —
    /// zero pages move, so a 0-page host holds them — which is strictly
    /// better than restarting them.)
    #[test]
    fn swap_policy_falls_back_to_restart_when_host_is_full() {
        let m = tiny_model();
        let mut pool = PagedKvPool::for_model(m.config(), None, 70, 512);
        pool.set_host_pages(0);
        let mut e = BatchEngine::new(
            &m,
            pool,
            TokenScheduler::new(4),
            EngineConfig {
                max_batch: 4,
                admission: AdmissionPolicy::PromptOnly,
                preempt: PreemptPolicy::SwapToHost,
                // Pinned unsharded: fixed 70-page swap geometry.
                num_ranks: 1,
                ..EngineConfig::default()
            },
        );
        for id in 0..4 {
            e.submit(req(id, 4, 40));
        }
        e.run();
        assert!(e.finished().iter().all(|f| f.completed));
        let s = e.stats();
        assert!(s.preemptions > 0);
        assert_eq!(s.swap_bytes_to_host, 0, "no host pages, no bytes move");
        assert!(s.recomputed_prefill_tokens > 0, "fallback pays recompute");
    }

    /// Every tier of the hierarchy is empty: all device pages free, no
    /// private or shared pages outstanding, nothing live or frozen, no
    /// host pages held.
    fn assert_pool_empty(e: &BatchEngine<'_>) {
        let acct = e.pool().page_accounting();
        assert_eq!(acct.free, e.pool().capacity_pages(), "device pages leak");
        assert_eq!(acct.private, 0, "private pages leak");
        assert_eq!(acct.shared_blocks, 0, "trie blocks leak");
        assert_eq!(e.pool().host_pages_used(), 0, "host pages leak");
        assert_eq!(e.pool().active_seqs(), 0, "live sequences leak");
        assert_eq!(e.pool().suspended_seqs(), 0, "suspended sequences leak");
    }

    #[test]
    fn cancel_during_prefill_chunk_leaves_no_residue() {
        let m = tiny_model();
        let mut e = engine_with_pages(
            &m,
            512,
            EngineConfig {
                prefill_token_budget: 8,
                ..EngineConfig::default()
            },
        );
        e.submit(req(0, 40, 3));
        // Two steps ingest 16 of 40 prompt tokens: mid-chunked-prefill,
        // with a partially filled pending block in the pool.
        assert!(e.step());
        assert!(e.step());
        let a = &e.active[0];
        assert!(a.pos > 0 && a.pos < a.req.prompt.len(), "mid-prefill");
        assert!(e.cancel(0));
        assert_pool_empty(&e);
        assert!(!e.step(), "no work left");
        let fin = &e.finished()[0];
        assert_eq!(fin.outcome, RequestOutcome::Cancelled);
        assert!(!fin.completed);
        assert!(fin.generated.is_empty(), "never reached decode");
        assert_eq!(e.stats().cancellations, 1);
    }

    #[test]
    fn cancel_during_decode_keeps_partial_output() {
        let m = tiny_model();
        let mut e = engine_with_pages(&m, 512, EngineConfig::default());
        e.submit(req(0, 4, 50));
        while e.finished().is_empty() {
            e.step();
            if e.active.first().is_some_and(|a| a.generated.len() >= 3) {
                break;
            }
        }
        let already = e.active[0].generated.clone();
        assert!(already.len() >= 3, "decoding");
        assert!(e.cancel(0));
        assert_pool_empty(&e);
        let fin = &e.finished()[0];
        assert_eq!(fin.outcome, RequestOutcome::Cancelled);
        assert_eq!(fin.generated, already, "partial output is kept");
    }

    #[test]
    fn cancel_while_suspended_on_host_releases_host_pages() {
        let m = tiny_model();
        let mut pool = PagedKvPool::for_model(m.config(), None, 70, 512);
        pool.set_host_pages(70);
        let mut e = BatchEngine::new(
            &m,
            pool,
            TokenScheduler::new(4),
            EngineConfig {
                max_batch: 4,
                admission: AdmissionPolicy::PromptOnly,
                preempt: PreemptPolicy::SwapToHost,
                // Pinned unsharded: fixed 70-page swap geometry.
                num_ranks: 1,
                ..EngineConfig::default()
            },
        );
        for id in 0..4 {
            e.submit(req(id, 4, 40));
        }
        while e.resume.is_empty() && e.step() {}
        let frozen = e.resume.front().expect("a sequence was swapped out");
        assert!(e.pool().host_pages_used() > 0 || e.pool().suspended_seqs() > 0);
        let id = frozen.req.id;
        assert!(e.cancel(id));
        assert_eq!(
            e.finished().iter().find(|f| f.id == id).unwrap().outcome,
            RequestOutcome::Cancelled
        );
        // The survivors run to completion and drain the pool to empty —
        // the cancelled sequence's host pages went with it.
        e.run();
        assert!(e.finished().iter().all(|f| f.completed || f.id == id));
        assert_pool_empty(&e);
    }

    #[test]
    fn cancel_while_queued_never_touches_the_pool() {
        let m = tiny_model();
        let mut e = engine_with_pages(
            &m,
            512,
            EngineConfig {
                max_batch: 1,
                ..EngineConfig::default()
            },
        );
        e.submit(req(0, 4, 20));
        e.submit(req(1, 4, 20));
        assert!(e.step());
        assert_eq!(e.queue_len(), 1, "slot pressure parks request 1");
        assert!(e.cancel(1));
        let fin = e.finished().iter().find(|f| f.id == 1).unwrap();
        assert_eq!(fin.outcome, RequestOutcome::Cancelled);
        assert!(fin.generated.is_empty());
        e.run();
        assert!(e.finished().iter().find(|f| f.id == 0).unwrap().completed);
        assert_pool_empty(&e);
    }

    #[test]
    fn cancel_unknown_or_finished_id_is_a_noop() {
        let m = tiny_model();
        let mut e = engine_with_pages(&m, 512, EngineConfig::default());
        e.submit(req(0, 4, 2));
        assert!(!e.cancel(99), "never submitted");
        e.run();
        assert!(!e.cancel(0), "already finished");
        assert_eq!(e.stats().cancellations, 0);
    }

    /// Adversarial abort points: cancel every request at a different
    /// phase of its life and require the pool to drain to *exactly*
    /// empty — the leak regression for the audited teardown path.
    #[test]
    fn drain_to_exactly_empty_after_mixed_aborts() {
        let m = tiny_model();
        let mut pool = PagedKvPool::for_model(m.config(), None, 70, 512);
        pool.set_host_pages(70);
        pool.set_block_tokens(8);
        let mut e = BatchEngine::new(
            &m,
            pool,
            TokenScheduler::new(4),
            EngineConfig {
                max_batch: 3,
                admission: AdmissionPolicy::PromptOnly,
                preempt: PreemptPolicy::SwapToHost,
                prefill_token_budget: 8,
                ..EngineConfig::default()
            },
        );
        // Shared prefixes so sealed trie blocks are in play too.
        for id in 0..6 {
            let mut prompt: Vec<u32> = (0..12).collect();
            prompt.extend((0..8).map(|i| 100 + id as u32 * 16 + i));
            e.submit(EngineRequest::new(id, prompt, 30));
        }
        // Drive until the hierarchy is fully loaded: actives, a swapped
        // victim, and a queued request all coexist.
        for _ in 0..12 {
            e.step();
        }
        // Cancel one request per parking spot, whatever is there now.
        if let Some(a) = e.active.first() {
            let id = a.req.id;
            assert!(e.cancel(id));
        }
        if let Some(s) = e.resume.front() {
            let id = s.req.id;
            assert!(e.cancel(id));
        }
        if let Some(q) = e.queue.front() {
            let id = q.req.id;
            assert!(e.cancel(id));
        }
        // Mid-flight the books must still balance...
        assert_eq!(
            e.pool().page_accounting().total(),
            e.pool().capacity_pages()
        );
        // ...then cancel everything else and require exact emptiness.
        for id in 0..6 {
            e.cancel(id);
        }
        assert_eq!(e.finished().len(), 6);
        assert!(!e.step());
        assert_pool_empty(&e);
    }

    #[test]
    fn deadline_kills_overdue_requests_only() {
        let m = tiny_model();
        let mut e = engine_with_pages(
            &m,
            512,
            EngineConfig {
                max_iterations: Some(3),
                ..EngineConfig::default()
            },
        );
        e.submit(req(0, 4, 100)); // needs ~100 iterations: doomed
        e.submit(req(1, 2, 2)); // finishes within the deadline
        e.run();
        let doomed = e.finished().iter().find(|f| f.id == 0).unwrap();
        assert_eq!(doomed.outcome, RequestOutcome::DeadlineExceeded);
        assert!(!doomed.completed);
        let ok = e.finished().iter().find(|f| f.id == 1).unwrap();
        assert_eq!(ok.outcome, RequestOutcome::Finished);
        assert_eq!(e.stats().deadline_kills, 1);
        assert_pool_empty(&e);
    }

    /// One deadline sweep reaches every parking spot: on this geometry
    /// request 2 (newest) is swapped to host, request 1 is later demoted
    /// to a restart because the host tier is full, and request 2's
    /// pending resume keeps request 1 queued behind it. All three were
    /// admitted in iteration 1, so all three expire together.
    #[test]
    fn deadline_kills_every_parking_spot_in_one_sweep() {
        let m = tiny_model();
        let mut pool = PagedKvPool::for_model(m.config(), None, 140, 512);
        pool.set_host_pages(64);
        let limit = 91;
        let mut e = BatchEngine::new(
            &m,
            pool,
            TokenScheduler::new(4),
            EngineConfig {
                max_batch: 3,
                preempt: PreemptPolicy::SwapToHost,
                max_iterations: Some(limit),
                // Pinned unsharded: fixed 140-page swap geometry.
                num_ranks: 1,
                ..EngineConfig::default()
            },
        );
        for (id, prompt_len) in [(0, 4), (1, 4), (2, 8)] {
            e.submit(req(id, prompt_len, 100));
        }
        for _ in 0..limit {
            assert!(e.step());
        }
        assert_eq!(e.active_ids(), [0]);
        assert_eq!(e.suspended_ids(), [2]);
        assert_eq!(e.queued_ids(), [1]);
        assert_eq!(e.queue[0].born, 1, "requeued by a restart, clock running");
        assert!(
            e.pool().host_pages_used() > 0,
            "request 2's KV sits on host"
        );
        let active_tokens = e.active[0].generated.clone();
        let suspended_tokens = e.resume[0].generated.clone();
        assert!(!active_tokens.is_empty() && !suspended_tokens.is_empty());

        assert!(!e.step(), "the sweep leaves nothing in flight");
        let fin = e.finished();
        assert_eq!(fin.iter().map(|f| f.id).collect::<Vec<_>>(), [0, 2, 1]);
        assert!(fin
            .iter()
            .all(|f| f.outcome == RequestOutcome::DeadlineExceeded));
        assert_eq!(fin[0].generated, active_tokens, "decoded tokens are kept");
        assert_eq!(
            fin[1].generated, suspended_tokens,
            "decoded tokens are kept"
        );
        assert!(fin[2].generated.is_empty(), "a restart dropped its output");
        assert_eq!(e.stats().deadline_kills, 3);
        e.run();
        assert_pool_empty(&e);
    }

    /// What a restart carries, pinned against fixed expectations rather
    /// than against another engine run. On this geometry requests 1–3 are
    /// each evicted twice — once mid-decode, once right after their
    /// same-step re-admission — and re-emit decode index 0 after the
    /// restart: `preemptions` counts both evictions and `ttft_iteration`
    /// keeps the *first* emission. With a deadline, request 1 dies
    /// `limit` iterations after its first admission, although its
    /// re-admission came 39 iterations later.
    #[test]
    fn restart_carries_preemptions_ttft_and_the_deadline_clock() {
        let m = tiny_model();
        let run = |max_iterations| {
            let mut e = engine_with_pages(
                &m,
                70,
                EngineConfig {
                    max_batch: 4,
                    preempt: PreemptPolicy::RestartRecompute,
                    max_iterations,
                    // Pinned unsharded: fixed 70-page eviction geometry.
                    num_ranks: 1,
                    ..EngineConfig::default()
                },
            );
            for id in 0..4 {
                e.submit(req(id, 4, 40));
            }
            // Per request: the iterations of its index-0 token events,
            // and the iteration it reached a terminal state.
            let mut index0: Vec<Vec<u64>> = vec![Vec::new(); 4];
            let mut ended = [0u64; 4];
            loop {
                let more = e.step();
                for ev in e.take_token_events() {
                    if ev.index == 0 {
                        index0[ev.id as usize].push(ev.iteration);
                    }
                }
                for f in e.finished() {
                    if ended[f.id as usize] == 0 {
                        ended[f.id as usize] = e.stats().iterations;
                    }
                }
                if !more {
                    break;
                }
            }
            let mut fin = e.finished().to_vec();
            fin.sort_by_key(|f| f.id);
            (fin, index0, ended, e.stats().preemptions)
        };

        let (fin, index0, _, preemptions) = run(None);
        assert!(fin.iter().all(|f| f.completed));
        let per_request: Vec<usize> = fin.iter().map(|f| f.preemptions).collect();
        assert_eq!(per_request, [0, 2, 2, 2]);
        assert_eq!(preemptions, 6, "engine total is the per-request sum");
        assert_eq!(index0, [vec![1], vec![1, 41], vec![41, 81], vec![81, 121]]);
        let ttft: Vec<u64> = fin.iter().map(|f| f.ttft_iteration).collect();
        assert_eq!(
            ttft,
            [1, 1, 41, 81],
            "the first index-0 event, not the re-emission"
        );

        let limit = 45;
        let (fin, _, ended, _) = run(Some(limit));
        assert_eq!(fin[0].outcome, RequestOutcome::Finished);
        assert_eq!(fin[1].outcome, RequestOutcome::DeadlineExceeded);
        assert_eq!(ended[1], 1 + limit, "clock runs from the first admission");
        assert_eq!(fin[1].preemptions, 2);
        assert_eq!(fin[1].ttft_iteration, 1);
        assert_eq!(fin[1].generated.len(), 5, "tokens 41..=45 of the restart");
    }

    /// The deadline clock starts at first admission: a request that waits
    /// in the queue forever (never admitted) is not killed by it.
    #[test]
    fn deadline_spares_never_admitted_requests() {
        let m = tiny_model();
        let mut e = engine_with_pages(
            &m,
            512,
            EngineConfig {
                max_batch: 1,
                max_iterations: Some(4),
                ..EngineConfig::default()
            },
        );
        e.submit(req(0, 4, 6));
        e.submit(req(1, 4, 3));
        e.run();
        // Request 1 waited out request 0's whole run in the queue, longer
        // than the deadline, but its clock only started on admission.
        let fin1 = e.finished().iter().find(|f| f.id == 1).unwrap();
        assert_eq!(fin1.outcome, RequestOutcome::Finished);
        assert_pool_empty(&e);
    }

    #[test]
    fn injected_device_faults_are_absorbed_not_propagated() {
        let m = tiny_model();
        let mut e = engine_with_pages(
            &m,
            512,
            EngineConfig {
                fault_plan: Some(FaultPlan::new(7).with_rate_permille(200)),
                ..EngineConfig::default()
            },
        );
        for id in 0..4 {
            e.submit(req(id, 6, 8));
        }
        e.run();
        let s = e.stats().clone();
        assert!(s.faults_injected > 0, "rate 20% over this workload");
        assert_eq!(s.faults_absorbed, s.faults_injected);
        assert_eq!(e.finished().len(), 4, "every request reached an outcome");
        assert_pool_empty(&e);
    }

    #[test]
    fn shared_prefix_synthesis_is_shared_exactly() {
        let mk = |id, shared| {
            EngineRequest::from_lengths_with_shared_prefix(
                &crate::Request {
                    id,
                    input_len: 12,
                    output_len: 2,
                },
                256,
                7,
                shared,
            )
        };
        let a = mk(0, 8);
        let b = mk(1, 8);
        assert_eq!(a.prompt[..8], b.prompt[..8], "system prompt shared");
        assert_ne!(a.prompt[8..], b.prompt[8..], "tails unique");
        let c = mk(2, 0);
        let d = mk(3, 0);
        assert_ne!(c.prompt, d.prompt);
    }

    /// Configuration is a value: the default reads nothing ambient and is
    /// a constant apart from the measured thread count.
    #[test]
    fn default_config_is_the_documented_constant() {
        let c = EngineConfig::default();
        assert_eq!(c.max_batch, 8);
        assert_eq!(c.admission, AdmissionPolicy::PromptOnly);
        assert_eq!(c.preempt, PreemptPolicy::RestartRecompute);
        assert!(!c.record_logits);
        assert_eq!(c.prefill_token_budget, 16);
        assert_eq!(c.num_threads, oaken_runtime::default_threads());
        assert_eq!(c.num_ranks, 1);
        assert_eq!((c.fault_plan, c.max_iterations), (None, None));
        assert_eq!(c.kernel, KernelMode::Exact);
    }

    /// A second submission under an id still in flight fails `Invalid` on
    /// its own record; the first holder of the id decodes exactly what it
    /// decodes undisturbed.
    #[test]
    fn duplicate_in_flight_id_fails_typed_and_spares_the_first() {
        let m = tiny_model();
        let undisturbed = {
            let mut e = engine_with_pages(&m, 512, EngineConfig::default());
            e.submit(req(7, 5, 6));
            e.run()[0].generated.clone()
        };
        let mut e = engine_with_pages(&m, 512, EngineConfig::default());
        e.submit(req(7, 5, 6));
        e.submit(req(7, 3, 2)); // first still queued
        assert!(e.step());
        e.submit(req(7, 3, 2)); // first now active
        e.run();
        let (dups, firsts): (Vec<_>, Vec<_>) = (e.finished().iter())
            .partition(|f| f.outcome == RequestOutcome::Failed(RequestFailure::Invalid));
        assert_eq!(dups.len(), 2);
        assert!(dups.iter().all(|f| f.id == 7 && f.generated.is_empty()));
        assert_eq!(firsts.len(), 1);
        assert_eq!(firsts[0].outcome, RequestOutcome::Finished);
        assert_eq!(firsts[0].generated, undisturbed);
        assert_eq!(e.stats().failed, 2);
        // Retired: the id is free again.
        e.submit(req(7, 5, 6));
        assert_eq!(e.run().last().unwrap().generated, undisturbed);
        assert_pool_empty(&e);
    }
}
