//! Bit-exactness guard for the continuous-batching engine: batched decode
//! over the shared paged pool must be indistinguishable — token for token,
//! logit bit for logit bit — from independent legacy `Session` runs, for
//! any admission/retire interleaving.

mod support;

use oaken_core::KvQuantizer;
use oaken_model::{Model, PagedKvPool};
use oaken_serving::{AdmissionPolicy, BatchEngine, EngineConfig, EngineRequest, TokenScheduler};
use proptest::prelude::*;
use std::sync::Arc;
use support::*;

/// Runs `requests` through one engine under `cfg` and holds every output
/// against the reference decode at `cfg`'s kernel. Returns the engine
/// iterations the run took.
fn run_engine_and_compare(
    model: &Model,
    quantizer: Option<Arc<dyn KvQuantizer>>,
    requests: &[(Vec<u32>, usize)],
    num_pages: u32,
    cfg: EngineConfig,
) -> u64 {
    let pool = PagedKvPool::for_model(model.config(), quantizer.clone(), num_pages, 512);
    let cfg = EngineConfig {
        record_logits: true,
        ..cfg
    };
    let mut engine = BatchEngine::new(model, pool, TokenScheduler::new(4), cfg);
    for (id, (prompt, max_new)) in requests.iter().enumerate() {
        engine.submit(EngineRequest::new(id as u64, prompt.clone(), *max_new));
    }
    engine.run();
    assert_eq!(engine.finished().len(), requests.len());
    for fin in engine.finished() {
        let (prompt, max_new) = &requests[fin.id as usize];
        assert!(
            fin.completed,
            "request {} must complete (pool {num_pages} pages)",
            fin.id
        );
        let (ref_tokens, ref_logits) =
            reference_decode(model, quantizer.clone(), cfg.kernel, prompt, *max_new);
        assert_eq!(
            fin.generated, ref_tokens,
            "request {}: generated tokens differ from the legacy Session",
            fin.id
        );
        assert_bit_identical(&fin.logits, &ref_logits, &format!("request {}", fin.id));
    }
    engine.stats().iterations
}

/// The acceptance bar: 8 concurrent sequences through one engine are
/// bit-identical, per sequence, to 8 independent legacy `Session` runs.
#[test]
fn eight_concurrent_sequences_match_eight_sessions_bitwise() {
    let model = tiny_model();
    let quantizer = profiled_oaken(&model);
    let requests: Vec<(Vec<u32>, usize)> = (0..8u32)
        .map(|r| {
            let prompt: Vec<u32> = (0..4 + r % 5).map(|i| (r * 37 + i * 11) % 256).collect();
            (prompt, 3 + (r as usize % 4))
        })
        .collect();
    for_each_point(
        |point| EngineConfig {
            admission: AdmissionPolicy::FullSequence,
            ..point
        },
        |cfg| {
            run_engine_and_compare(&model, Some(quantizer.clone()), &requests, 4096, cfg);
        },
    );

    // Batch scaling: the same eight requests at a growing batch limit.
    // Every stream still equals its `Session` (hence each other), and the
    // engine needs strictly fewer iterations each time.
    let iterations = [1usize, 2, 4, 8].map(|max_batch| {
        let cfg = EngineConfig {
            max_batch,
            admission: AdmissionPolicy::FullSequence,
            ..REFERENCE
        };
        run_engine_and_compare(&model, Some(quantizer.clone()), &requests, 4096, cfg)
    });
    assert!(
        iterations.windows(2).all(|w| w[1] < w[0]),
        "iterations must fall as max_batch grows: {iterations:?}"
    );
}

#[test]
fn exact_pool_matches_exact_cache_sessions() {
    let model = tiny_model();
    let requests: Vec<(Vec<u32>, usize)> = (0..4u32)
        .map(|r| ((0..6).map(|i| (r * 53 + i * 29) % 256).collect(), 4))
        .collect();
    for_each_point(
        |point| EngineConfig {
            max_batch: 4,
            admission: AdmissionPolicy::FullSequence,
            ..point
        },
        |cfg| {
            run_engine_and_compare(&model, None, &requests, 4096, cfg);
        },
    );
}

/// Preempted-and-restarted sequences must still match the reference: the
/// restart recomputes the prefix through the same streams.
#[test]
fn preemption_preserves_bit_exactness() {
    let model = tiny_model();
    let quantizer = profiled_oaken(&model);
    let requests: Vec<(Vec<u32>, usize)> = (0..4u32)
        .map(|r| ((0..4).map(|i| (r * 41 + i * 17) % 256).collect(), 40))
        .collect();
    // 70 pages with optimistic admission: decode growth forces eviction
    // (same shape as the engine's unit test, which asserts preemptions).
    // Pinned unsharded: uneven rank splits of the 70-page pool shift the
    // per-shard worst-case bounds enough to shed a request outright
    // (cross-rank page pressure is covered by tp_props).
    for_each_point(
        |point| EngineConfig {
            max_batch: 4,
            prefill_token_budget: 16,
            num_ranks: 1,
            ..point
        },
        |cfg| {
            run_engine_and_compare(&model, Some(quantizer.clone()), &requests, 70, cfg);
        },
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random admission/retire schedules: arbitrary request mixes, batch
    /// limits, prefill-chunk budgets, and pool sizes (large enough that
    /// every request *can* complete) never cross-contaminate sequences.
    #[test]
    fn random_schedules_never_cross_contaminate(
        shapes in prop::collection::vec((1usize..10, 1usize..6, 0u32..1000), 1..6),
        max_batch in 1usize..5,
        optimistic in any::<bool>(),
        budget in 1usize..24,
        point in matrix_point(),
    ) {
        let model = tiny_model();
        let quantizer = profiled_oaken(&model);
        let requests: Vec<(Vec<u32>, usize)> = shapes
            .iter()
            .map(|&(plen, max_new, salt)| {
                let prompt = (0..plen as u32).map(|i| (salt + i * 13) % 256).collect();
                (prompt, max_new)
            })
            .collect();
        let admission = if optimistic {
            AdmissionPolicy::PromptOnly
        } else {
            AdmissionPolicy::FullSequence
        };
        let cfg = EngineConfig {
            max_batch,
            admission,
            prefill_token_budget: budget,
            ..point
        };
        run_engine_and_compare(&model, Some(quantizer), &requests, 2048, cfg);
    }
}
