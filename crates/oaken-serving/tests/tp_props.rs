//! Determinism guard for tensor-parallel execution: an engine running
//! `N` ranks — per-rank data planes of one KV pool, rank-sharded forward
//! passes, a deterministic all-reduce — must generate **identical token
//! streams and logit bits** to the 1-rank engine, in both kernel modes,
//! at every thread count, under both preemption policies, and with an
//! armed fault plan.
//!
//! Two tiers of equality are pinned:
//!
//! * **Ample pool** (no page pressure): *everything* matches — tokens,
//!   logits bit for bit, preemption counts (zero), and TTFT iterations.
//! * **Tight pool** (preemption-inducing): per-rank page budgets shift
//!   *when* preemption fires relative to the aggregate 1-rank pool, but
//!   restart and swap preemption are both bit-exact, so the generated
//!   tokens and logits still match bit for bit — only the scheduling
//!   counters may differ.

mod support;

use oaken_core::KvQuantizer;
use oaken_model::{FaultPlan, KernelMode, Model, PagedKvPool};
use oaken_serving::{
    BatchEngine, EngineConfig, EngineRequest, EngineStats, FinishedRequest, PreemptPolicy,
    TokenScheduler,
};
use proptest::prelude::*;
use std::sync::Arc;
use support::*;

/// The 1-rank engine every ranked run is held against: the matrix's
/// reference point, recording logits. This suite sweeps ranks, threads,
/// kernels and preemption policies around it as its own axes.
const BASE: EngineConfig = EngineConfig {
    record_logits: true,
    ..REFERENCE
};

/// Runs one full engine schedule and returns the finished requests
/// (sorted by id) plus the run stats.
fn run_engine(
    model: &Model,
    quantizer: Option<Arc<dyn KvQuantizer>>,
    requests: &[EngineRequest],
    num_pages: u32,
    block_tokens: usize,
    cfg: EngineConfig,
) -> (Vec<FinishedRequest>, EngineStats) {
    let mut pool = PagedKvPool::for_model(model.config(), quantizer, num_pages, 512);
    pool.set_block_tokens(block_tokens);
    let mut engine = BatchEngine::new(model, pool, TokenScheduler::new(4), cfg);
    assert_eq!(
        engine.num_ranks(),
        cfg.num_ranks.min(model.config().num_kv_heads),
        "Oaken streams support sharding; the rank request must be honored"
    );
    for r in requests {
        engine.submit(r.clone());
    }
    engine.run();
    let stats = engine.stats().clone();
    let mut fin = engine.finished().to_vec();
    fin.sort_by_key(|f| f.id);
    (fin, stats)
}

/// The content tier: generated tokens and logit bits must match. Holds
/// under page pressure too (preemption is bit-exact either way).
fn assert_tokens_identical(base: &[FinishedRequest], tp: &[FinishedRequest], ctx: &str) {
    assert_eq!(base.len(), tp.len(), "{ctx}: request count");
    for (s, p) in base.iter().zip(tp) {
        assert_eq!(s.id, p.id, "{ctx}");
        assert_eq!(s.completed, p.completed, "{ctx}: request {}", s.id);
        assert_eq!(s.generated, p.generated, "{ctx}: request {} tokens", s.id);
        assert_bit_identical(&s.logits, &p.logits, &format!("{ctx}: request {}", s.id));
    }
}

/// The scheduling tier on top: preemption counts and TTFT iterations
/// match too (only guaranteed without page pressure).
fn assert_schedules_identical(base: &[FinishedRequest], tp: &[FinishedRequest], ctx: &str) {
    assert_tokens_identical(base, tp, ctx);
    for (s, p) in base.iter().zip(tp) {
        assert_eq!(s.preemptions, p.preemptions, "{ctx}: request {}", s.id);
        assert_eq!(
            s.ttft_iteration, p.ttft_iteration,
            "{ctx}: request {}",
            s.id
        );
    }
}

fn acceptance_shapes() -> Vec<(usize, usize, u32)> {
    (0..8u32)
        .map(|r| (6 + (r as usize % 5), 3 + (r as usize % 3), r * 37))
        .collect()
}

/// The acceptance bar: 2-rank and 4-rank engines reproduce the 1-rank
/// engine *completely* — tokens, logit bits, zero preemptions, TTFT —
/// in both kernel modes, at 1 and 4 threads, on an ample pool.
#[test]
fn ranked_engines_bit_exact_with_single_rank() {
    let model = tiny_model();
    let quantizer = profiled_oaken(&model);
    let requests = requests_with_overlap(&acceptance_shapes(), 4);
    for kernel in [KernelMode::Exact, KernelMode::Fused] {
        let one_rank = EngineConfig { kernel, ..BASE };
        let run = |cfg| run_engine(&model, Some(quantizer.clone()), &requests, 4096, 4, cfg);
        let (base, base_stats) = run(one_rank);
        assert_eq!(base_stats.preemptions, 0, "ample pool must not preempt");
        assert_eq!(base_stats.num_ranks, 1);
        assert_eq!(base_stats.comm.bytes_moved, 0, "1 rank moves no bytes");
        for ranks in [2usize, 4] {
            for threads in [1usize, 4] {
                let ctx = format!("{ranks} ranks, {threads} threads, {kernel:?}");
                let (tp, stats) = run(EngineConfig {
                    num_ranks: ranks,
                    num_threads: threads,
                    ..one_rank
                });
                assert_schedules_identical(&base, &tp, &ctx);
                assert_eq!(stats.num_ranks, ranks, "{ctx}");
                assert!(stats.comm.allreduce_calls > 0, "{ctx}: ranks must reduce");
                assert!(stats.comm.bytes_moved > 0, "{ctx}");
                assert_eq!(stats.rank_page_peaks.len(), ranks, "{ctx}");
                assert!(
                    stats.rank_page_peaks.iter().all(|&p| p > 0),
                    "{ctx}: every rank shard must hold pages: {:?}",
                    stats.rank_page_peaks
                );
            }
        }
    }
}

/// Preemption-inducing pools: per-rank budgets may shift *when* the
/// engine preempts, but restart and swap preemption are bit-exact, so
/// the generated content still matches the 1-rank engine exactly.
#[test]
fn ranked_engines_match_content_under_page_pressure() {
    let model = tiny_model();
    // Exact-f32 pool (still sharding-capable): its fat rows make decode
    // growth collide with the worst-case page bound — the same geometry
    // the thread-determinism preemption test uses.
    let shapes: Vec<(usize, usize, u32)> = (0..4u32).map(|r| (4, 40, r * 41)).collect();
    let requests = requests_with_overlap(&shapes, 0);
    for preempt in [PreemptPolicy::RestartRecompute, PreemptPolicy::SwapToHost] {
        let tight = EngineConfig {
            max_batch: 4,
            preempt,
            ..BASE
        };
        let run = |cfg| run_engine(&model, None, &requests, 70, 16, cfg);
        let (base, base_stats) = run(tight);
        assert!(
            base_stats.preemptions > 0,
            "workload must actually preempt ({preempt:?})"
        );
        for ranks in [2usize, 4] {
            let ctx = format!("{ranks} ranks under pressure, {preempt:?}");
            let (tp, _) = run(EngineConfig {
                num_ranks: ranks,
                ..tight
            });
            assert_tokens_identical(&base, &tp, &ctx);
        }
    }
}

/// An armed fault plan on a ranked engine: every injected fault is
/// absorbed (retry, demotion, or request-scoped teardown — never a
/// panic), every request reaches a terminal state, and the fault-free
/// requests still match the 1-rank fault-free run.
#[test]
fn ranked_engine_absorbs_injected_faults() {
    let model = tiny_model();
    let quantizer = profiled_oaken(&model);
    let requests = requests_with_overlap(&acceptance_shapes(), 4);
    for seed in [3u64, 11, 29] {
        let cfg = EngineConfig {
            num_ranks: 2,
            num_threads: 4,
            preempt: PreemptPolicy::SwapToHost,
            fault_plan: Some(FaultPlan::new(seed)),
            ..BASE
        };
        let (fin, stats) = run_engine(&model, Some(quantizer.clone()), &requests, 4096, 4, cfg);
        assert_eq!(fin.len(), requests.len(), "seed {seed}: containment");
        assert_eq!(
            stats.faults_absorbed, stats.faults_injected,
            "seed {seed}: every injected fault must be absorbed"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random request mixes × rank counts (including a non-dividing 3)
    /// × thread counts × preemption policies × kernel modes: the ranked
    /// engine reproduces the 1-rank engine's content bit for bit; on
    /// ample pools the whole schedule matches.
    #[test]
    fn random_schedules_bit_exact_across_rank_counts(
        shapes in prop::collection::vec((2usize..10, 1usize..6, 0u32..1000), 1..6),
        ranks in prop::sample::select(vec![2usize, 3, 4]),
        threads in prop::sample::select(vec![1usize, 4]),
        overlap in 0usize..8,
        budget in 1usize..24,
        swap in any::<bool>(),
        fused in any::<bool>(),
        tight in any::<bool>(),
    ) {
        let model = tiny_model();
        let quantizer = profiled_oaken(&model);
        let requests = requests_with_overlap(&shapes, overlap);
        let one_rank = EngineConfig {
            prefill_token_budget: budget,
            preempt: if swap { PreemptPolicy::SwapToHost } else { PreemptPolicy::RestartRecompute },
            kernel: if fused { KernelMode::Fused } else { KernelMode::Exact },
            ..BASE
        };
        let pages = if tight { 640 } else { 4096 };
        let run = |cfg| run_engine(&model, Some(quantizer.clone()), &requests, pages, 4, cfg);
        let (base, _) = run(one_rank);
        let (tp, stats) = run(EngineConfig { num_ranks: ranks, num_threads: threads, ..one_rank });
        let ctx = format!("{ranks} ranks, {threads} threads, tight={tight}");
        if tight {
            assert_tokens_identical(&base, &tp, &ctx);
        } else {
            assert_schedules_identical(&base, &tp, &ctx);
        }
        prop_assert_eq!(stats.num_ranks, ranks);
        prop_assert_eq!(stats.rank_page_peaks.len(), ranks);
    }
}
