//! # Oaken
//!
//! A full reproduction of *"Oaken: Fast and Efficient LLM Serving with
//! Online-Offline Hybrid KV Cache Quantization"* (ISCA 2025) as a Rust
//! workspace. This facade crate re-exports every library subsystem — the
//! eight serving-system crates, which depend on none of the others, then
//! the evaluation crates and the paper's analytic accelerator model (the
//! figure/table binaries are the `oaken-figures` crate):
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`core`] | `oaken-core` | the paper's contribution: hybrid quantization |
//! | [`tensor`] | `oaken-tensor` | minimal f32 tensor substrate |
//! | [`runtime`] | `oaken-runtime` | deterministic fork-join worker pool (bit-exact parallelism) |
//! | [`mmu`] | `oaken-mmu` | page-based dense/sparse memory management unit |
//! | [`model`] | `oaken-model` | from-scratch transformer inference engine |
//! | [`serving`] | `oaken-serving` | the executed `BatchEngine`, token scheduling, trace-shaped request synthesis |
//! | [`service`] | `oaken-service` | streaming service frontend: batcher, sessions, open-loop workloads, tail latency |
//! | [`cluster`] | `oaken-cluster` | disaggregated prefill/decode replicas, prefix-affinity router, KV transfer link |
//! | [`eval`] | `oaken-eval` | evaluation: datasets, perplexity, zero-shot, distribution probes |
//! | [`baselines`] | `oaken-baselines` | evaluation: KVQuant/KIVI/Atom/QServe/Tender reimplementations, Oaken's ablation variants |
//! | [`accel`] | `oaken-accel` | paper figures: accelerator/GPU performance, area, power simulator |
//!
//! # Quickstart
//!
//! ```
//! use oaken::core::{KvKind, OakenConfig, OakenQuantizer, OfflineProfiler};
//!
//! let config = OakenConfig::default();
//! let mut profiler = OfflineProfiler::new(config.clone(), 1);
//! let sample: Vec<f32> = (0..256).map(|i| ((i % 31) as f32 - 15.0) / 3.0).collect();
//! profiler.observe(0, KvKind::Key, &sample);
//! profiler.observe(0, KvKind::Value, &sample);
//! let quantizer = OakenQuantizer::new(config, profiler.finish());
//! let fused = quantizer.quantize_vector(&sample, 0, KvKind::Key)?;
//! // Stored bits per element: dense nibbles, COO bytes and FP16 scales.
//! let effective_bits = fused.payload_bytes() as f64 * 8.0 / sample.len() as f64;
//! assert!(effective_bits < 16.0);
//! # Ok::<(), oaken::core::OakenError>(())
//! ```

pub use oaken_accel as accel;
pub use oaken_baselines as baselines;
pub use oaken_cluster as cluster;
pub use oaken_core as core;
pub use oaken_eval as eval;
pub use oaken_mmu as mmu;
pub use oaken_model as model;
pub use oaken_runtime as runtime;
pub use oaken_service as service;
pub use oaken_serving as serving;
pub use oaken_tensor as tensor;
