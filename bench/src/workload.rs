//! The four traffic mixes, the seeded schedule generator, and the offline
//! set-up (model synthesis, threshold profiling, pool construction) every
//! run starts from.

use oaken_core::{KvQuantizer, OakenConfig};
use oaken_eval::harness::profile_oaken;
use oaken_model::{KernelMode, Model, ModelConfig, PagedKvPool};
use oaken_service::{arrival_schedule, OpenLoopSpec};
use oaken_serving::{AdmissionPolicy, EngineConfig, EngineRequest, PreemptPolicy, TokenScheduler};
use std::sync::Arc;

/// Concurrent sequences per engine iteration, on every workload.
pub const MAX_BATCH: usize = 8;

/// One `(request, arrival tick)` open-loop schedule.
pub type Schedule = Vec<(EngineRequest, u64)>;

/// How the device pool is sized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PoolSizing {
    /// Far more pages than the traffic can hold at once.
    Ample,
    /// This share of the pages a full batch of mean-length sequences
    /// occupies at completion, with a host tier four times that.
    Pressure(f64),
}

/// One traffic mix.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name in `BENCHMARK.json`, which also records why it exists.
    pub name: &'static str,
    pub model: ModelConfig,
    pub page_size: usize,
    pub requests: usize,
    /// Mean inter-arrival gap in service-clock ticks.
    pub mean_gap: f64,
    /// Inclusive range of request-unique prompt tokens.
    pub prompt: (usize, usize),
    /// Inclusive range of decode tokens.
    pub output: (usize, usize),
    /// System-prompt tokens every member of a family starts with (0: none).
    pub shared_prefix: usize,
    pub families: usize,
    pub pool: PoolSizing,
    /// Leading requests the output check regenerates in full through a
    /// single-sequence cache.
    pub check_requests: usize,
    /// Sequences `token_match_fp32` compares with FP32, and the longest
    /// they get.
    pub match_requests: usize,
    pub match_tokens: usize,
    /// Leading requests the cluster baseline replays.
    pub cluster_requests: usize,
    /// Seconds one replay of the schedule takes on the reference host;
    /// fixes the repeat count from `--seconds`.
    pub repeat_seconds: f64,
}

fn chat_model() -> ModelConfig {
    ModelConfig::llama2_7b().proxy(2, 256)
}

/// The benchmark's workloads at their default sizes.
pub fn default_specs() -> Vec<Spec> {
    let mut long_model = ModelConfig::llama2_7b().proxy(2, 128);
    long_model.num_heads = 4;
    long_model.num_kv_heads = 4;
    long_model.max_seq_len = 4096;
    vec![
        Spec {
            name: "chat_short",
            model: chat_model(),
            page_size: 512,
            requests: 32,
            mean_gap: 6.5,
            prompt: (8, 40),
            output: (16, 48),
            shared_prefix: 0,
            families: 1,
            pool: PoolSizing::Ample,
            check_requests: 8,
            match_requests: 24,
            match_tokens: 128,
            cluster_requests: 24,
            repeat_seconds: 1.4,
        },
        Spec {
            name: "long_context",
            model: long_model,
            page_size: 1024,
            requests: 2,
            mean_gap: 14.0,
            prompt: (896, 1408),
            output: (64, 64),
            shared_prefix: 0,
            families: 1,
            pool: PoolSizing::Ample,
            check_requests: 1,
            match_requests: 4,
            match_tokens: 1024,
            cluster_requests: 1,
            repeat_seconds: 1.25,
        },
        Spec {
            name: "shared_prefix",
            model: chat_model(),
            page_size: 512,
            requests: 26,
            mean_gap: 3.0,
            prompt: (8, 24),
            output: (8, 24),
            shared_prefix: 192,
            families: 2,
            pool: PoolSizing::Ample,
            check_requests: 4,
            match_requests: 8,
            match_tokens: 256,
            cluster_requests: 24,
            repeat_seconds: 1.25,
        },
        Spec {
            name: "memory_pressure",
            model: chat_model(),
            page_size: 512,
            requests: 12,
            mean_gap: 12.0,
            prompt: (16, 32),
            output: (80, 112),
            shared_prefix: 0,
            families: 1,
            pool: PoolSizing::Pressure(0.56),
            check_requests: 4,
            match_requests: 8,
            match_tokens: 256,
            cluster_requests: 6,
            repeat_seconds: 1.25,
        },
    ]
}

/// The same four mixes shrunk to a `proxy(2, 32)` model and a dozen
/// requests, for `--smoke` and the smoke test.
pub fn smoke_specs() -> Vec<Spec> {
    default_specs()
        .into_iter()
        .map(|mut s| {
            let long = s.name == "long_context";
            s.model = ModelConfig::llama2_7b().proxy(2, 32);
            s.model.max_seq_len = 1024;
            s.page_size = 256;
            s.requests = if long { 4 } else { 12 };
            s.prompt = if long { (160, 224) } else { (6, 16) };
            s.output = if s.name == "memory_pressure" {
                (40, 56)
            } else {
                (6, 12)
            };
            s.shared_prefix = s.shared_prefix.min(48);
            s.check_requests = 2;
            s.match_requests = 2;
            s.cluster_requests = 4;
            // Two repeats and one traced round whatever `--seconds` says.
            s.repeat_seconds = f64::INFINITY;
            s
        })
        .collect()
}

/// Splitmix64: the benchmark's only random source, so a seed fixes every
/// input without touching the repository's vendored `rand`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// Seed of every workload's traffic shape (see [`schedule`]).
const SHAPE_SEED: u64 = 1;

/// Builds the workload's schedule from `seed`. The same seed gives the
/// same schedule.
///
/// The *shape* of the traffic — arrival ticks (the service's own
/// open-loop Poisson process), prompt and output lengths, families — is
/// one fixed draw, like a recorded production trace; `seed` draws every
/// token. Seeds therefore differ in content, not in the amount or the
/// order of work: with ~100 requests, re-drawing the shape moves
/// `ttft_ms_p90` by 20–35 % and `itl_ms_p50` by 15 % between seeds
/// (queueing episodes come and go, the median batch width flips between
/// integers), more than any regression bound this benchmark could then
/// hold.
pub fn schedule(spec: &Spec, seed: u64) -> Schedule {
    let n = spec.requests;
    let arrivals = arrival_schedule(&OpenLoopSpec::poisson(spec.mean_gap, SHAPE_SEED), n);
    let mut shape = Rng::new(SHAPE_SEED);
    let mut within = |(lo, hi): (usize, usize)| lo + shape.below((hi - lo + 1) as u64) as usize;
    let lengths: Vec<(usize, usize, usize)> = (0..n)
        .map(|_| {
            (
                within(spec.prompt),
                within(spec.output),
                within((0, spec.families - 1)),
            )
        })
        .collect();

    let mut rng = Rng::new(seed ^ 0x0A4E_5EED);
    let vocab = spec.model.vocab_size as u64;
    let families: Vec<Vec<u32>> = (0..spec.families)
        .map(|_| {
            (0..spec.shared_prefix)
                .map(|_| rng.below(vocab) as u32)
                .collect()
        })
        .collect();
    lengths
        .iter()
        .zip(arrivals)
        .enumerate()
        .map(|(i, (&(prompt_len, output_len, family), arrival))| {
            let mut prompt = families[family].clone();
            prompt.extend((0..prompt_len).map(|_| rng.below(vocab) as u32));
            (EngineRequest::new(i as u64, prompt, output_len), arrival)
        })
        .collect()
}

/// The offline half of a run: the model and its profiled quantizer.
pub struct Setup {
    pub model: Model,
    pub quantizer: Arc<dyn KvQuantizer>,
    /// Device pages of every pool built for the workload.
    pub pool_pages: u32,
    /// Host-tier pages.
    pub host_pages: u32,
    /// Device pages that hold two full batches of the longest sequence:
    /// the budget of pools that must never run out (probes, cluster).
    pub ample_pages: u32,
    pub page_size: usize,
    /// An idle pool kept for its admission arithmetic.
    probe: PagedKvPool,
}

/// Upper bound on the pages one sequence of `tokens` tokens holds: the
/// admission estimate plus a page for every per-head dense and sparse
/// stream of every prompt block (each sealed block keeps streams, and so
/// page floors, of its own).
fn seq_pages_bound(probe: &PagedKvPool, model: &ModelConfig, tokens: usize) -> u32 {
    let streams = 2 * 2 * model.num_layers * model.num_kv_heads;
    let blocks = tokens / probe.block_tokens() + 1;
    (probe.pages_for_tokens(tokens) + (blocks * streams) as u64) as u32
}

impl Setup {
    /// Synthesizes the model, profiles Oaken's offline thresholds on it,
    /// and sizes the pool.
    pub fn build(spec: &Spec) -> Self {
        let model = Model::synthetic(spec.model.clone(), 11);
        let quantizer: Arc<dyn KvQuantizer> =
            Arc::new(profile_oaken(&model, OakenConfig::default(), 4, 8, 11));
        let probe =
            PagedKvPool::for_model(model.config(), Some(quantizer.clone()), 1, spec.page_size);
        let longest = spec.shared_prefix + spec.prompt.1 + spec.output.1;
        let mean = spec.shared_prefix
            + (spec.prompt.0 + spec.prompt.1) / 2
            + (spec.output.0 + spec.output.1) / 2;
        let ample_pages = 2 * MAX_BATCH as u32 * seq_pages_bound(&probe, &spec.model, longest);
        let (pool_pages, host_pages) = match spec.pool {
            PoolSizing::Ample => (ample_pages, ample_pages),
            PoolSizing::Pressure(share) => {
                let full = MAX_BATCH as u64 * probe.pages_for_tokens(mean);
                let p = (share * full as f64).ceil() as u32;
                (p, 4 * p)
            }
        };
        Self {
            model,
            quantizer,
            pool_pages,
            host_pages,
            ample_pages,
            page_size: spec.page_size,
            probe,
        }
    }

    /// Pages that certainly hold one sequence of `tokens` tokens.
    pub fn ample_pages_for(&self, tokens: usize) -> u32 {
        seq_pages_bound(&self.probe, self.model.config(), tokens)
    }

    /// A fresh pool over the workload's page budget.
    pub fn pool(&self) -> PagedKvPool {
        self.pool_of(self.pool_pages, self.host_pages)
    }

    /// A fresh pool with an explicit page budget (layer probes).
    pub fn pool_of(&self, pages: u32, host_pages: u32) -> PagedKvPool {
        let mut pool = PagedKvPool::for_model(
            self.model.config(),
            Some(self.quantizer.clone()),
            pages,
            self.page_size,
        );
        pool.set_host_pages(host_pages);
        pool
    }
}

/// The engine configuration of every run. Each field is set explicitly
/// so no `OAKEN_*` environment variable is consulted.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        max_batch: MAX_BATCH,
        admission: AdmissionPolicy::PromptOnly,
        preempt: PreemptPolicy::SwapToHost,
        record_logits: false,
        prefill_token_budget: 64,
        num_threads: 1,
        num_ranks: 1,
        fault_plan: None,
        max_iterations: None,
        kernel: KernelMode::Fused,
    }
}

/// The token scheduler of every run.
pub fn scheduler() -> TokenScheduler {
    TokenScheduler::new(MAX_BATCH)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_change_content_and_keep_the_shape() {
        let spec = &smoke_specs()[2];
        let a = schedule(spec, 7);
        assert_eq!(a, schedule(spec, 7));
        let b = schedule(spec, 8);
        assert_ne!(a, b);
        let shape = |s: &Schedule| -> Vec<(usize, usize, u64)> {
            s.iter()
                .map(|(r, at)| (r.prompt.len(), r.max_new_tokens, *at))
                .collect()
        };
        assert_eq!(shape(&a), shape(&b));
        assert!(a.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn families_share_their_system_prompt() {
        let spec = &smoke_specs()[2];
        let s = schedule(spec, 3);
        let heads: std::collections::BTreeSet<Vec<u32>> = s
            .iter()
            .map(|(r, _)| r.prompt[..spec.shared_prefix].to_vec())
            .collect();
        assert_eq!(heads.len(), spec.families);
    }
}
