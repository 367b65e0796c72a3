//! A from-scratch decoder-only transformer inference engine — the model
//! substrate for the Oaken reproduction.
//!
//! The paper evaluates KV-cache quantization inside eight real LLMs
//! (Llama2-7/13/70B, OPT-6.7/13/30B, Mistral-7B, Mixtral-8x7B). Pretrained
//! checkpoints are not available in this environment, so this crate
//! provides:
//!
//! * [`ModelConfig`] presets with the **real architectural dimensions** of
//!   all eight models (driving the performance simulator's memory and FLOP
//!   accounting), and
//! * runnable **proxy models** ([`ModelConfig::proxy`]) with synthetic
//!   weights ([`synth`]) calibrated so the proxies' KV caches reproduce the
//!   paper's §4.1 distribution observations (per-layer range variation,
//!   channel-concentrated outliers, input-independence, and discontinuous
//!   exceptions).
//!
//! Every structural feature the paper calls out is implemented: grouped
//! -query attention, sliding-window attention, mixture-of-experts layers,
//! RMSNorm/LayerNorm, SwiGLU/ReLU FFNs, rotary and learned positions.
//!
//! The KV cache is pluggable via [`KvCacheBackend`]: [`ExactCache`] gives
//! the FP32 reference, [`QuantizedCache`] routes storage through any
//! [`KvQuantizer`] so that quantization error propagates through attention
//! into the logits — the mechanism behind every accuracy number in Table 2.
//!
//! For multi-sequence serving, [`pool::PagedKvPool`] shares one paged
//! device memory (backed by `oaken-mmu`'s refcounted allocator) across
//! concurrent sequences — deduplicating common prompt prefixes through
//! the [`trie`] of sealed, refcounted blocks whenever the quantizer is
//! prefix-deterministic — and [`Model::forward_batch`] advances a whole
//! batch of steps per call (one token per decoding sequence, multi-token
//! prompt chunks for prefilling ones), layer-major with batched weight
//! sweeps — bit-exact per sequence with [`Session`].
//! It is a thin entry point of the one batched pass,
//! [`Model::forward_batch_sharded`]: N tensor-parallel [`ranks`] (each
//! owning a head slice, the matching weight rows and a private pool shard,
//! merged by a deterministic all-reduce) on an `oaken-runtime` worker pool
//! (`(rank, row sub-chunk)` tasks for the weight sweeps, sequences for
//! quantize+append via [`pool::PagedKvPool::append_batch`], `(rank, run,
//! query tile, KV-head range)` tasks for attention) — bit-exact with the
//! serial one-rank pass for every rank and thread count. The pass takes
//! its steps with their liveness ([`StepBatch`]: whose logits are read)
//! and computes only what is read: every layer is a KV stage over all
//! steps and a tail stage over the steps still read, so an unsampled
//! prompt step ends at its last-layer K/V append.
//!
//! [`KvQuantizer`]: oaken_core::KvQuantizer
//!
//! # Example
//!
//! ```
//! use oaken_model::{ExactCache, Model, ModelConfig};
//!
//! let config = ModelConfig::llama2_7b().proxy(2, 32);
//! let model = Model::synthetic(config, 42);
//! let mut session = model.session(Box::new(ExactCache::new()));
//! let logits = session.prefill(&[1, 2, 3]);
//! assert_eq!(logits.len(), model.config().vocab_size);
//! ```

pub mod attention;
pub mod cache;
pub mod config;
pub mod ffn;
pub mod model;
pub mod pool;
pub mod ranks;
pub mod sampling;
pub(crate) mod sharding;
pub mod synth;
pub mod trie;

pub use attention::{
    attend_kv_group_fused_into, attend_kv_group_into, attend_one, attend_one_fused_into,
    attend_one_into, attend_run_fused_into, AttentionScratch, AttentionShape, EncodedKv, KvRead,
    QUERY_TILE,
};
pub use cache::{
    BatchAppend, BatchKvCache, CacheMode, ExactCache, KernelMode, KvCacheBackend, QuantizedCache,
    SingleSlot,
};
pub use config::{ModelConfig, MoeConfig, Positional};
pub use ffn::{DenseFfn, FfnWeights};
pub use model::{BatchKvObserver, BatchStep, KvObserver, LayerWeights, Model, Session, StepBatch};
pub use oaken_mmu::{FaultKind, FaultOp, FaultPlan, FaultStats, Residency, SwapReceipt, SwapStats};
pub use pool::{
    KvReadStats, KvTransfer, PageAccounting, PagedKvPool, PoolBatchView, PoolError, PrefixAlloc,
    SeqId, SeqRowAppend,
};
pub use ranks::{RankPlan, RankedPools};
pub use sampling::{sample_greedy, sample_temperature};
pub use synth::SynthParams;
pub use trie::PrefixStats;
