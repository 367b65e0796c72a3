//! Determinism guard for the parallel runtime: the engine's output —
//! every generated token, every recorded logit bit, every completion and
//! preemption count — must be **identical** at any `num_threads` to the
//! single-threaded run, over random chunk budgets, shared-prefix
//! overlaps, and preemption-inducing pool sizes.
//!
//! This is the repository's standing bit-exactness discipline extended to
//! threads: the fork-join runtime executes a fixed task decomposition
//! whose accumulation chains are all task-local, so scheduling (the only
//! nondeterminism threads introduce) is unobservable in the output.

mod support;

use oaken_core::KvQuantizer;
use oaken_model::{Model, PagedKvPool};
use oaken_serving::{BatchEngine, EngineConfig, EngineRequest, FinishedRequest, TokenScheduler};
use proptest::prelude::*;
use std::sync::Arc;
use support::*;

/// Runs one full engine schedule under `cfg` at a given thread count and
/// returns the finished requests sorted by id.
fn run_engine(
    model: &Model,
    quantizer: Option<Arc<dyn KvQuantizer>>,
    requests: &[EngineRequest],
    num_threads: usize,
    num_pages: u32,
    block_tokens: usize,
    cfg: EngineConfig,
) -> Vec<FinishedRequest> {
    let mut pool = PagedKvPool::for_model(model.config(), quantizer, num_pages, 512);
    pool.set_block_tokens(block_tokens);
    let cfg = EngineConfig {
        record_logits: true,
        num_threads,
        ..cfg
    };
    let mut engine = BatchEngine::new(model, pool, TokenScheduler::new(4), cfg);
    for r in requests {
        engine.submit(r.clone());
    }
    engine.run();
    let mut fin = engine.finished().to_vec();
    fin.sort_by_key(|f| f.id);
    fin
}

/// Every observable field must match bit for bit.
fn assert_runs_identical(serial: &[FinishedRequest], parallel: &[FinishedRequest], ctx: &str) {
    assert_eq!(serial.len(), parallel.len(), "{ctx}: request count");
    for (s, p) in serial.iter().zip(parallel) {
        assert_eq!(s.id, p.id, "{ctx}");
        assert_eq!(s.completed, p.completed, "{ctx}: request {}", s.id);
        assert_eq!(s.generated, p.generated, "{ctx}: request {} tokens", s.id);
        assert_eq!(s.preemptions, p.preemptions, "{ctx}: request {}", s.id);
        assert_eq!(
            s.ttft_iteration, p.ttft_iteration,
            "{ctx}: request {}",
            s.id
        );
        assert_bit_identical(&s.logits, &p.logits, &format!("{ctx}: request {}", s.id));
    }
}

/// The acceptance bar: 8 concurrent requests, chunked prefill, shared
/// prefixes — identical output at 2, 4, and 8 threads vs 1.
#[test]
fn eight_requests_bit_exact_across_thread_counts() {
    let model = tiny_model();
    let quantizer = profiled_oaken(&model);
    let shapes: Vec<(usize, usize, u32)> = (0..8u32)
        .map(|r| (6 + (r as usize % 5), 3 + (r as usize % 3), r * 37))
        .collect();
    let requests = requests_with_overlap(&shapes, 4);
    // The thread count is this suite's own axis: points collapse on it.
    for_each_point(
        |point| EngineConfig {
            num_threads: 1,
            ..point
        },
        |cfg| {
            let run = |threads| {
                let q = Some(quantizer.clone());
                run_engine(&model, q, &requests, threads, 4096, 4, cfg)
            };
            let serial = run(1);
            for threads in [2usize, 4, 8] {
                assert_runs_identical(&serial, &run(threads), &format!("{threads} threads"));
            }
        },
    );
}

/// Preemption-inducing pool: evictions and restarts must replay
/// identically under any thread count.
#[test]
fn preemption_schedule_bit_exact_across_thread_counts() {
    let model = tiny_model();
    // Exact-f32 pool (still append-only, so still the parallel path):
    // its fat rows make decode growth collide with the worst-case page
    // bound, the geometry the engine's own preemption unit test uses.
    let shapes: Vec<(usize, usize, u32)> = (0..4u32).map(|r| (4, 40, r * 41)).collect();
    let requests = requests_with_overlap(&shapes, 0);
    let pages = 70;
    // Pinned unsharded: rank-splitting the 70-page pool shifts the
    // per-shard worst-case bounds and this geometry stops preempting;
    // cross-rank preemption pressure is covered by tp_props. Pinned exact:
    // an f32 pool has no encoded read path for a fused request to use.
    for_each_point(
        |point| EngineConfig {
            max_batch: 4,
            prefill_token_budget: 16,
            num_threads: 1,
            num_ranks: 1,
            kernel: oaken_model::KernelMode::Exact,
            ..point
        },
        |cfg| {
            let run = |threads| run_engine(&model, None, &requests, threads, pages, 16, cfg);
            let serial = run(1);
            assert!(
                serial.iter().any(|f| f.preemptions > 0),
                "workload must actually preempt: {:?}",
                serial
                    .iter()
                    .map(|f| (f.id, f.completed, f.preemptions))
                    .collect::<Vec<_>>()
            );
            for threads in [2usize, 4, 8] {
                let ctx = format!("{threads} threads (preempting)");
                assert_runs_identical(&serial, &run(threads), &ctx);
            }
        },
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random request mixes, chunk budgets, prefix overlaps, block sizes,
    /// and batch limits: `num_threads ∈ {2, 4, 8}` reproduces the serial
    /// engine bit for bit, per sequence.
    #[test]
    fn random_schedules_bit_exact_across_thread_counts(
        shapes in prop::collection::vec((2usize..10, 1usize..6, 0u32..1000), 1..6),
        max_batch in 1usize..5,
        budget in 1usize..24,
        overlap in 0usize..8,
        block_tokens in 2usize..6,
        tight in any::<bool>(),
        point in matrix_point(),
    ) {
        let model = tiny_model();
        let quantizer = profiled_oaken(&model);
        let requests = requests_with_overlap(&shapes, overlap);
        // Tight pools exercise degradation to single-token steps and
        // eviction; ample pools exercise the full chunk plans. Both must
        // stay deterministic.
        let pages = if tight { 160 } else { 2048 };
        let cfg = EngineConfig {
            max_batch,
            prefill_token_budget: budget,
            ..point
        };
        let run = |threads| {
            let q = Some(quantizer.clone());
            run_engine(&model, q, &requests, threads, pages, block_tokens, cfg)
        };
        let serial = run(1);
        for threads in [2usize, 4, 8] {
            assert_runs_identical(&serial, &run(threads), &format!("{threads} threads"));
        }
    }
}
