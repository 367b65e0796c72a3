//! The one harness behind the engine, service and cluster integration
//! suites (`oaken-service` and `oaken-cluster` include this file by
//! `#[path]`): the list of engine configurations the repository promises,
//! the proxy model and profiled quantizer every suite runs, and the
//! single-sequence reference decode their outputs are held against.
//!
//! Configuration is a value. Nothing in the workspace reads the process
//! environment, so what a suite covers is what it takes from
//! [`ENGINE_MATRIX`] — under plain `cargo test`, with no CI matrix around
//! it.

#![allow(dead_code)]

use oaken_core::{KvQuantizer, OakenConfig};
use oaken_eval::harness::profile_oaken;
use oaken_model::{sample_greedy, KernelMode, Model, ModelConfig, PagedKvPool};
use oaken_serving::{AdmissionPolicy, EngineConfig, EngineRequest, PreemptPolicy};
use proptest::prelude::*;
use std::sync::Arc;

const fn point(
    preempt: PreemptPolicy,
    num_threads: usize,
    num_ranks: usize,
    kernel: KernelMode,
) -> EngineConfig {
    EngineConfig {
        max_batch: 8,
        admission: AdmissionPolicy::PromptOnly,
        preempt,
        record_logits: false,
        prefill_token_budget: 16,
        num_threads,
        num_ranks,
        fault_plan: None,
        max_iterations: None,
        kernel,
    }
}

/// The serial exact engine every other point is measured against.
pub const REFERENCE: EngineConfig = point(PreemptPolicy::RestartRecompute, 1, 1, KernelMode::Exact);

/// Swap-based preemption on the parallel runtime.
pub const SWAP: EngineConfig = point(PreemptPolicy::SwapToHost, 4, 1, KernelMode::Exact);

/// The configuration every `BENCHMARK.json` number is taken under, by
/// value from `bench/src/workload.rs::engine_config` (`MAX_BATCH` = 8).
pub const BENCHMARKED: EngineConfig = EngineConfig {
    prefill_token_budget: 64,
    ..point(PreemptPolicy::SwapToHost, 1, 1, KernelMode::Fused)
};

/// Every engine configuration the repository promises bit-exact with
/// `Session`: the reference, the parallel runtime, swap preemption, the
/// fused kernels, two tensor-parallel ranks, and the benchmarked pairing.
pub const ENGINE_MATRIX: [EngineConfig; 6] = [
    REFERENCE,
    point(PreemptPolicy::RestartRecompute, 4, 1, KernelMode::Exact),
    SWAP,
    point(PreemptPolicy::RestartRecompute, 4, 1, KernelMode::Fused),
    point(PreemptPolicy::RestartRecompute, 4, 2, KernelMode::Fused),
    BENCHMARKED,
];

/// A matrix point as one more proptest input: the case budget is spent
/// across the points instead of multiplied by them.
pub fn matrix_point() -> impl Strategy<Value = EngineConfig> {
    prop::sample::select(ENGINE_MATRIX.to_vec())
}

/// Runs `check` on every distinct configuration `pin` makes of the matrix
/// points. A fixed test pins the fields its scenario dictates (`..point`
/// fills the rest); points that differ only in pinned fields collapse
/// into one run. The runs are concurrent, one scoped thread each, named
/// after its configuration so a failure says which point it is on.
pub fn for_each_point(
    pin: impl Fn(EngineConfig) -> EngineConfig,
    check: impl Fn(EngineConfig) + Sync,
) {
    let mut seen: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        for cfg in ENGINE_MATRIX.map(&pin) {
            let name = format!("{cfg:?}");
            if !seen.contains(&name) {
                seen.push(name.clone());
                let check = &check;
                std::thread::Builder::new()
                    .name(name)
                    .spawn_scoped(scope, move || check(cfg))
                    .expect("spawn a matrix-point thread");
            }
        }
    });
}

pub fn tiny_model() -> Model {
    // 8 KV heads: rank counts 2, 3, and 4 all divide or split unevenly.
    Model::synthetic(ModelConfig::llama2_7b().proxy(2, 32), 7)
}

/// Profiles an Oaken quantizer on the model's *actual* KV distribution via
/// the observer hook (the paper's offline phase, shared with the Table 2
/// harness), so the online thresholds are realistic for these weights.
pub fn profiled_oaken(model: &Model) -> Arc<dyn KvQuantizer> {
    Arc::new(profile_oaken(model, OakenConfig::default(), 6, 8, 5))
}

/// Greedy decode through the single-sequence `Session` — the
/// never-batched, never-preempted run every engine output is held
/// against — reading its cache through `kernel`: a fused engine is
/// bit-exact with a fused `Session`, not an exact one. Returns the tokens
/// and the logits each was sampled from.
pub fn reference_decode(
    model: &Model,
    quantizer: Option<Arc<dyn KvQuantizer>>,
    kernel: KernelMode,
    prompt: &[u32],
    max_new: usize,
) -> (Vec<u32>, Vec<Vec<f32>>) {
    let mut session = model.session(quantizer);
    session.set_kernel_mode(kernel);
    let mut logits = session.prefill(prompt);
    let mut tokens = Vec::new();
    let mut all_logits = Vec::new();
    loop {
        let tok = sample_greedy(&logits);
        tokens.push(tok);
        all_logits.push(logits);
        if tokens.len() == max_new {
            return (tokens, all_logits);
        }
        logits = session.advance(tok);
    }
}

/// [`reference_decode`]'s tokens alone, for the suites that hold token
/// streams (not logits) against the quantized `Session`.
pub fn reference_tokens(
    model: &Model,
    quantizer: &Arc<dyn KvQuantizer>,
    kernel: KernelMode,
    prompt: &[u32],
    max_new: usize,
) -> Vec<u32> {
    reference_decode(model, Some(quantizer.clone()), kernel, prompt, max_new).0
}

pub fn assert_bit_identical(a: &[Vec<f32>], b: &[Vec<f32>], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: logits count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let xb: Vec<u32> = x.iter().map(|v| v.to_bits()).collect();
        let yb: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
        assert_eq!(xb, yb, "{ctx}: logits diverged at decode step {i}");
    }
}

/// Pages one `tokens`-token sequence takes in a 512-byte-page pool of
/// `model` under `quantizer` (the pool's admission estimate): the unit
/// every tight pool of these suites is sized in, so the pressure a test
/// asserts survives a new page layout.
pub fn seq_pages(model: &Model, quantizer: Option<Arc<dyn KvQuantizer>>, tokens: usize) -> u32 {
    let probe = PagedKvPool::for_model(model.config(), quantizer, 1, 512);
    probe.pages_for_tokens(tokens) as u32
}

/// Counts a property's cases and how many hit a condition (a tight arm
/// that preempted, say); [`record`](Self::record) returns `false` on the
/// last case when none did. The vendored proptest runs a fixed,
/// deterministic case list once per test, so the count is exact.
pub struct CaseTally {
    run: std::sync::atomic::AtomicU32,
    hit: std::sync::atomic::AtomicU32,
}

impl CaseTally {
    pub const fn new() -> Self {
        Self {
            run: std::sync::atomic::AtomicU32::new(0),
            hit: std::sync::atomic::AtomicU32::new(0),
        }
    }

    /// Records one of `cases` cases; `false` once the last case has run
    /// and none hit.
    pub fn record(&self, hit: bool, cases: u32) -> bool {
        use std::sync::atomic::Ordering::SeqCst;
        let hits = self.hit.fetch_add(u32::from(hit), SeqCst) + u32::from(hit);
        self.run.fetch_add(1, SeqCst) + 1 < cases || hits > 0
    }
}

/// The service and cluster suites' pool: quantized, host swap tier
/// enabled, small trie blocks so prefix sharing actually triggers.
pub fn service_pool(
    model: &Model,
    quantizer: &Arc<dyn KvQuantizer>,
    pages: u32,
    host_pages: u32,
) -> PagedKvPool {
    let mut pool = PagedKvPool::for_model(model.config(), Some(quantizer.clone()), pages, 512);
    pool.set_host_pages(host_pages);
    pool.set_block_tokens(8);
    pool
}

/// The service and cluster suites' shape of a matrix point: chunked
/// prefill with a small budget and a small batch, so preemption and
/// suspension genuinely occur under the test workloads.
pub fn service_config(point: EngineConfig) -> EngineConfig {
    EngineConfig {
        max_batch: 4,
        prefill_token_budget: 8,
        ..point
    }
}

/// A deterministic prompt unique to `id` (tokens stay inside the proxy
/// vocab).
pub fn prompt_for(id: u64, len: usize) -> Vec<u32> {
    (0..len as u32)
        .map(|i| (id as u32 * 37 + i * 11) % 256)
        .collect()
}

/// A request with a deterministic prompt.
pub fn request_for(id: u64, prompt_len: usize, max_new: usize) -> EngineRequest {
    EngineRequest::new(id, prompt_for(id, prompt_len), max_new)
}

/// Requests where the first `shared` tokens are a common system prompt
/// (exercising trie adoption and seal dedup under interleaved appends).
pub fn requests_with_overlap(shapes: &[(usize, usize, u32)], shared: usize) -> Vec<EngineRequest> {
    shapes
        .iter()
        .enumerate()
        .map(|(id, &(plen, max_new, salt))| {
            let prompt = (0..plen as u32)
                .map(|i| {
                    if (i as usize) < shared.min(plen.saturating_sub(1)) {
                        (7 + i * 3) % 256
                    } else {
                        (salt + i * 13) % 256
                    }
                })
                .collect();
            EngineRequest::new(id as u64, prompt, max_new)
        })
        .collect()
}
