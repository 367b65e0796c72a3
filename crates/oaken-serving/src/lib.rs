//! Batched LLM serving: request synthesis from production-trace
//! statistics, token-level batch scheduling (§5.3), trace-driven
//! throughput measurement (Figure 14), and — in [`engine`] — a
//! continuous-batching engine that *executes* the model over a shared
//! paged quantized KV pool rather than estimating throughput analytically,
//! with Sarathi-style chunked prefill and copy-on-write prefix sharing
//! (admission reserves only a request's non-trie-shared pages).
//!
//! Each engine iteration runs on a deterministic fork-join runtime
//! ([`EngineConfig::num_threads`], default the host's available
//! parallelism): weight sweeps shard across output rows,
//! quantize+append across sequences, attention across `(step, KV head)`
//! tasks — and the output is **bit-exact** with `num_threads = 1` for
//! every schedule, enforced by `tests/parallel_props.rs`.
//!
//! The paper's real-world benchmark follows the NeuPIMs methodology:
//! requests are sampled from two Azure production traces — *Conversation*
//! (chat: long prompts, short outputs) and *BurstGPT* (longer outputs) —
//! batches are synthesized from the sampled length pairs, and throughput is
//! averaged over batches. The actual traces are external downloads, so
//! [`traces`] provides statistical synthesizers matched to the published
//! length distributions; what Figure 14 exercises is precisely the
//! input/output length *ratio*, which the synthesizers preserve.

pub mod engine;
pub mod request;
pub mod scheduler;
pub mod simulate;
pub mod traces;

pub use engine::{
    AdmissionPolicy, BatchEngine, EngineConfig, EngineRequest, EngineStats, FinishedRequest,
    KvExport, PreemptPolicy, RequestFailure, RequestOutcome, TokenEvent,
};
pub use oaken_model::{FaultKind, FaultOp, FaultPlan, FaultStats, KernelMode, KvReadStats};
pub use request::Request;
pub use scheduler::{CoreAssignment, TokenScheduler};
pub use simulate::{simulate_trace, TraceResult};
pub use traces::{synthesize_requests, TraceSpec};
