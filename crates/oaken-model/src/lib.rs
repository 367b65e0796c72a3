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
//! There is one KV store, [`pool::PagedKvPool`]: exact f32 rows (the FP32
//! reference) or rows stored through any [`KvQuantizer`], so quantization
//! error propagates through attention into the logits — the mechanism
//! behind every accuracy number in Table 2. A [`Session`]
//! ([`Model::session`]) is one sequence on its own pool, driven through
//! the same batch view as the serving engine, so every accuracy and figure
//! number comes from the store that serves.
//!
//! For multi-sequence serving, the pool shares one paged device memory
//! (backed by `oaken-mmu`'s refcounted allocator) across concurrent
//! sequences — deduplicating common prompt prefixes through
//! the [`trie`] of sealed blocks whenever the quantizer is
//! prefix-deterministic — and [`Model::forward_batch`] advances a whole
//! batch of steps per call (one token per decoding sequence, multi-token
//! prompt chunks for prefilling ones), layer-major with batched weight
//! sweeps — bit-exact per sequence with [`Session`].
//! It is a thin entry point of the one batched pass,
//! [`Model::forward_batch_sharded`]: N tensor-parallel [`ranks`] (each
//! owning a head slice, the matching weight rows and its channels of the
//! pool, merged by a deterministic all-reduce) on an `oaken-runtime` worker pool
//! (`(rank, row sub-chunk)` tasks for the weight sweeps, `(rank, run,
//! query tile, KV-head range)` tasks for attention) — bit-exact with the
//! serial one-rank pass for every rank and thread count. Nothing that
//! mutates the pool leaves the calling thread: every row is quantized once
//! and laid into each rank's pages by [`PagedKvPool::append`], one step at
//! a time. The pass takes
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
//! use oaken_model::{Model, ModelConfig};
//!
//! let config = ModelConfig::llama2_7b().proxy(2, 32);
//! let model = Model::synthetic(config, 42);
//! let mut session = model.session(None); // exact f32; Some(quantizer) otherwise
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
mod shim;
pub mod synth;
pub mod trie;

pub use attention::{
    attend_kv_group_fused_into, attend_kv_group_into, attend_one, attend_one_into,
    attend_segments_fused_into, AttentionScratch, AttentionShape, KvRead, Segment, QUERY_TILE,
};
pub use cache::{BatchKvCache, KernelMode};
pub use config::{ModelConfig, MoeConfig, Positional};
pub use ffn::{DenseFfn, FfnWeights};
pub use model::{BatchKvObserver, BatchStep, KvObserver, LayerWeights, Model, Session, StepBatch};
pub use oaken_mmu::{FaultKind, FaultOp, FaultPlan, SwapReceipt};
pub use pool::{
    KvReadStats, KvTransfer, PageAccounting, PagedKvPool, PoolBatchView, PoolError, PrefixAlloc,
    RankPages, SeqId, ShardReads,
};
pub use ranks::RankPlan;
pub use sampling::{sample_greedy, sample_temperature};
#[doc(hidden)]
pub use shim::{ExactCache, KvCacheBackend, QuantizedCache, SingleSlot};
pub use synth::{RowTable, SynthParams};
pub use trie::PrefixStats;
