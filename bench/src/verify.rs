//! The output check — replays must agree with one another, the pool must
//! drain, and sampled requests must reproduce through the model's
//! single-sequence caches — and the quality number measured beside it.

use crate::timed::{Replay, RequestRun};
use crate::workload::{Rng, Schedule, Setup, Spec};
use oaken_model::{
    sample_greedy, BatchStep, ExactCache, KernelMode, KvCacheBackend, Model, QuantizedCache,
    SingleSlot,
};

/// Accumulates output-check failures; a run is correct when none were
/// recorded.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Every replay of one schedule must deliver the same tokens on the
    /// same ticks and stop on the same clock.
    pub fn same_replays(&mut self, what: &str, replays: &[&Replay]) {
        let Some(first) = replays.first() else {
            return;
        };
        for (i, r) in replays.iter().enumerate().skip(1) {
            self.require(r.digest() == first.digest(), || {
                format!(
                    "{what}: replay {i} digest {:016x} != {:016x}",
                    r.digest(),
                    first.digest()
                )
            });
            self.require(r.clock == first.clock, || {
                format!(
                    "{what}: replay {i} ran {} ticks, not {}",
                    r.clock, first.clock
                )
            });
            self.require(r.ticks == first.ticks, || {
                format!("{what}: replay {i} delivered on different ticks")
            });
        }
    }
}

/// Feeds `tokens` from position `from` through one forward pass over
/// `cache`, returning the greedy next-token choice after each of them.
fn choices(model: &Model, cache: &mut dyn KvCacheBackend, tokens: &[u32], from: usize) -> Vec<u32> {
    let steps: Vec<BatchStep> = tokens
        .iter()
        .enumerate()
        .map(|(i, &token)| BatchStep {
            slot: 0,
            pos: from + i,
            token,
        })
        .collect();
    model
        .forward_batch(&mut SingleSlot(cache), &steps, None)
        .iter()
        .map(|logits| sample_greedy(logits))
        .collect()
}

fn fused_cache(setup: &Setup) -> QuantizedCache {
    let cfg = setup.model.config();
    let mut cache = QuantizedCache::new(setup.quantizer.clone());
    cache.reset(cfg.num_layers, cfg.kv_dim());
    cache.set_kernel_mode(KernelMode::Fused);
    cache
}

/// Greedy choices of an FP32 cache fed `tokens` in one pass.
fn exact_choices(setup: &Setup, tokens: &[u32]) -> Vec<u32> {
    let cfg = setup.model.config();
    let mut cache = ExactCache::new();
    cache.reset(cfg.num_layers, cfg.kv_dim());
    choices(&setup.model, &mut cache, tokens, 0)
}

/// Whether the schedule's first `spec.check_requests` requests,
/// regenerated free-running through a fused `QuantizedCache`, are token
/// for token what the engine delivered for them (`runs`): the engine's
/// per-sequence arithmetic is the single-sequence cache's, so the
/// streams must be equal.
pub fn fused_identical(
    setup: &Setup,
    spec: &Spec,
    schedule: &Schedule,
    runs: &[RequestRun],
) -> bool {
    let model = &setup.model;
    let sampled = schedule.iter().zip(runs).take(spec.check_requests);
    sampled.into_iter().all(|((req, _), run)| {
        let mut cache = fused_cache(setup);
        // The prompt goes through as one chunk.
        let first = choices(model, &mut cache, &req.prompt, 0);
        let mut generated = vec![*first.last().expect("prompts are not empty")];
        while generated.len() < req.max_new_tokens {
            let pos = req.prompt.len() + generated.len() - 1;
            let last = *generated.last().expect("seeded above");
            generated.push(choices(model, &mut cache, &[last], pos)[0]);
        }
        generated == run.tokens
    })
}

/// Seed of the token sequences `token_match_fp32` is measured on.
const QUALITY_SEED: u64 = 0x0F32;

/// `(share, positions)`: the share of next-token choices on which the
/// Oaken-quantized cache and an FP32 `ExactCache` agree, both fed the
/// same tokens in one pass, at every position of `spec.match_requests`
/// sequences as long as the workload's longest context (cut to
/// `spec.match_tokens`). The sequences are one fixed draw, not the run's
/// seed: the number is exact for a build, so any movement is a change in
/// arithmetic and not in the sample. The rate varies more between
/// sequences than within one, so it wants many sequences rather than
/// long ones.
pub fn token_match_fp32(setup: &Setup, spec: &Spec) -> (f64, usize) {
    let mut rng = Rng::new(QUALITY_SEED);
    let vocab = spec.model.vocab_size as u64;
    let len = (spec.shared_prefix + spec.prompt.1 + spec.output.1).min(spec.match_tokens);
    let mut matched = 0usize;
    for _ in 0..spec.match_requests {
        let tokens: Vec<u32> = (0..len).map(|_| rng.below(vocab) as u32).collect();
        let exact = exact_choices(setup, &tokens);
        let quantized = choices(&setup.model, &mut fused_cache(setup), &tokens, 0);
        matched += exact.iter().zip(&quantized).filter(|(a, b)| a == b).count();
    }
    let positions = spec.match_requests * len;
    (matched as f64 / positions.max(1) as f64, positions)
}
