//! Batched LLM serving: [`engine`] is a continuous-batching engine that
//! *executes* the model over a shared paged quantized KV pool, with
//! Sarathi-style chunked prefill and copy-on-write prefix sharing
//! (admission reserves only a request's non-trie-shared pages);
//! [`scheduler`] is the token-level core assignment of §5.3 it reports
//! utilization through, and [`traces`] synthesizes request lengths from
//! production-trace statistics.
//!
//! Each engine iteration runs on a deterministic fork-join runtime
//! ([`EngineConfig::num_threads`], default the host's available
//! parallelism): weight sweeps shard across output rows and attention
//! across `(step, KV head)` tasks, while every K/V row is quantized and
//! laid into pages on the calling thread, one append at a time — and the
//! output is **bit-exact** with `num_threads = 1` for every schedule,
//! enforced by `tests/parallel_props.rs`.
//!
//! The paper's real-world benchmark follows the NeuPIMs methodology:
//! requests are sampled from two Azure production traces — *Conversation*
//! (chat: long prompts, short outputs) and *BurstGPT* (longer outputs).
//! The actual traces are external downloads, so [`traces`] provides
//! statistical synthesizers matched to the published length
//! distributions. The analytic replay of those traces on the accelerator
//! model (Figure 14) is paper-figure code and lives in `oaken-figures`;
//! this crate does not depend on `oaken-accel`.

pub mod engine;
pub mod request;
pub mod scheduler;
pub mod traces;

pub use engine::{
    AdmissionPolicy, BatchEngine, EngineConfig, EngineRequest, EngineStats, FinishedRequest,
    KvExport, PreemptPolicy, RequestFailure, RequestOutcome, TokenEvent,
};
pub use oaken_model::{FaultKind, FaultOp, FaultPlan, KernelMode, KvReadStats};
pub use request::Request;
pub use scheduler::{CoreAssignment, TokenScheduler};
pub use traces::{synthesize_requests, TraceSpec};
