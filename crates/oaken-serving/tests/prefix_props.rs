//! Prefix-sharing and chunked-prefill guards for the serving engine:
//!
//! * the acceptance scenario — 8 concurrent requests sharing a 1024-token
//!   prompt store the prefix roughly once, skip its quantization on trie
//!   hits, and stay bit-exact with independent `Session` runs;
//! * preemption/eviction of a sharer never corrupts the survivors;
//! * the page-ownership invariant (free + Σ private + shared = capacity)
//!   holds after every engine step;
//! * shared-prompt traffic admits with strictly fewer stalls than the
//!   unshared baseline on a shrinking pool.

mod support;

use oaken_model::{KernelMode, Model, ModelConfig, PagedKvPool};
use oaken_serving::{
    AdmissionPolicy, BatchEngine, EngineConfig, EngineRequest, EngineStats, PreemptPolicy, Request,
    TokenScheduler,
};
use proptest::prelude::*;
use support::*;

/// A two-KV-head proxy: fewer per-head page streams, so block page
/// rounding does not swamp the payload in small-scale sharing tests.
fn narrow_model(layers: usize) -> Model {
    let mut cfg = ModelConfig::llama2_7b().proxy(layers, 32);
    cfg.num_heads = 2;
    cfg.num_kv_heads = 2;
    Model::synthetic(cfg, 7)
}

/// A proxy model whose sequence budget fits a 1024-token system prompt.
fn long_context_model() -> Model {
    let mut cfg = ModelConfig::llama2_7b().proxy(1, 32);
    cfg.num_heads = 2;
    cfg.num_kv_heads = 2;
    cfg.max_seq_len = 2048;
    Model::synthetic(cfg, 7)
}

fn assert_accounting_balanced(engine: &BatchEngine<'_>) {
    let acc = engine.pool().page_accounting();
    assert_eq!(
        acc.total(),
        engine.pool().capacity_pages(),
        "page-ownership invariant violated: {acc:?}"
    );
}

/// Runs an engine to completion, checking the page-ownership invariant
/// after every step, and returns its stats.
fn run_checked(engine: &mut BatchEngine<'_>) -> EngineStats {
    while engine.step() {
        assert_accounting_balanced(engine);
    }
    assert_accounting_balanced(engine);
    engine.stats().clone()
}

fn shared_prompt_requests(
    n: usize,
    vocab: usize,
    prompt_len: usize,
    shared: usize,
    out: usize,
) -> Vec<EngineRequest> {
    (0..n as u64)
        .map(|id| {
            EngineRequest::from_lengths_with_shared_prefix(
                &Request {
                    id,
                    input_len: prompt_len,
                    output_len: out,
                },
                vocab,
                0xC0FFEE,
                shared,
            )
        })
        .collect()
}

/// The acceptance bar: 8 concurrent requests over one 1024-token system
/// prompt (1025 prompt tokens: the 1024-token shared prefix is
/// block-aligned, the final token is always fed live).
///
/// Request 0 is submitted first; the moment its prefill completes (all
/// prefix blocks sealed, request still active and decoding) the other
/// seven arrive and hit the trie. Checks, against a sharing-disabled A/B
/// run of the identical staged workload:
///
/// * prefix pages are stored ~once instead of 8× (the unshared run's peak
///   page usage is many multiples of the single shared copy);
/// * trie hits skipped the sharers' prefix quantization entirely
///   (stats counters);
/// * every request's decoded tokens are bit-exact with an independent
///   `Session` run.
#[test]
fn eight_sharers_dedupe_the_kilotoken_prompt() {
    let model = long_context_model();
    let vocab = model.config().vocab_size;
    let quantizer = profiled_oaken(&model);
    let prompt_len = 1025usize;
    let block_tokens = 128usize;
    let out = 3usize;
    let requests = shared_prompt_requests(8, vocab, prompt_len, prompt_len, out);
    assert!(requests.iter().all(|r| r.prompt == requests[0].prompt));

    // The 8192-page pool never preempts (asserted below), so the policy is
    // unobservable here and the points collapse on it.
    let ample = |point| EngineConfig {
        preempt: PreemptPolicy::RestartRecompute,
        ..point
    };
    for_each_point(ample, |cfg| {
        // `sharing = false` also drops to a one-token prefill budget: exactly
        // the PR-2 engine's lockstep schedule, whose peak really does hold
        // every private prompt copy simultaneously.
        let run = |sharing: bool| -> (EngineStats, Vec<(u64, Vec<u32>)>) {
            let mut pool =
                PagedKvPool::for_model(model.config(), Some(quantizer.clone()), 8192, 256);
            pool.set_block_tokens(block_tokens);
            pool.set_prefix_sharing(sharing);
            let mut engine = BatchEngine::new(
                &model,
                pool,
                TokenScheduler::new(8),
                EngineConfig {
                    prefill_token_budget: if sharing { 64 } else { 1 },
                    ..cfg
                },
            );
            let mut reqs = requests.clone().into_iter();
            engine.submit(reqs.next().expect("8 requests"));
            // Run until request 0's prefill is done (its first decode token
            // sampled — at which point every prefix block is sealed but the
            // request is still active, holding the blocks alive), then let
            // the seven sharers arrive.
            while engine.stats().decode_tokens == 0 {
                assert!(engine.step(), "request 0 must make progress");
                assert_accounting_balanced(&engine);
            }
            for r in reqs {
                engine.submit(r);
            }
            let stats = run_checked(&mut engine);
            let outs = engine
                .finished()
                .iter()
                .map(|f| {
                    assert!(f.completed, "request {} must complete", f.id);
                    (f.id, f.generated.clone())
                })
                .collect();
            (stats, outs)
        };

        let (shared, mut outs) = run(true);
        assert_eq!(shared.preemptions, 0);

        // The seven sharers matched the full 1024-token prefix and skipped
        // its quantization: 7 × 1024 tokens × 1 layer × 2 kinds.
        let reusable = (prompt_len - 1) / block_tokens * block_tokens;
        assert_eq!(reusable, 1024);
        assert_eq!(
            shared.prefix.trie_hits,
            7 * (reusable / block_tokens) as u64
        );
        assert_eq!(shared.prefix.tokens_reused, 7 * reusable as u64);
        assert_eq!(
            shared.prefix.quant_rows_skipped,
            shared.prefix.tokens_reused * 2
        );
        assert!(shared.prefix.bytes_deduplicated > 0);
        assert!(shared.shared_pages_peak > 0);

        // The lockstep A/B baseline costs ten times the shared run, and a
        // thread count cannot move what it is compared on (token counts,
        // page peaks — `parallel_props` pins every counter across thread
        // counts), so the serial points stop at the shared run's checks.
        if cfg.num_threads > 1 {
            let (unshared, unshared_outs) = run(false);
            assert_eq!(unshared.preemptions, 0);
            // Reused tokens are never fed: prefill compute drops accordingly.
            assert_eq!(
                shared.prefill_tokens + shared.prefix.tokens_reused,
                unshared.prefill_tokens
            );

            // Prefix storage is deduplicated: the shared run keeps ONE copy
            // of the 1024-token prefix (shared_pages_peak) plus tiny private
            // tails, while the PR-2 baseline's lockstep prefill holds a
            // private copy per concurrent sequence (request 0 retires first,
            // so 7 copies at peak) — the prefix pages consumed collapse by
            // roughly the sharer count.
            let one_prefix_copy = u64::from(shared.shared_pages_peak);
            let unshared_peak = u64::from(unshared.pages_in_use_peak);
            let shared_peak = u64::from(shared.pages_in_use_peak);
            eprintln!(
                "prefix copy {one_prefix_copy} pages | peak shared {shared_peak} vs unshared {unshared_peak}"
            );
            assert!(
                unshared_peak >= one_prefix_copy * 5,
                "7 private copies ({unshared_peak} pages) must dwarf one shared copy ({one_prefix_copy})"
            );
            assert!(
                shared_peak * 2 <= unshared_peak,
                "dedup must collapse peak usage: shared {shared_peak} vs unshared {unshared_peak}"
            );
            outs.extend(unshared_outs);
        }

        // Bit-exactness: engine outputs (shared and unshared) match an
        // independent single-sequence Session run on the same prompt.
        let prompt = &requests[0].prompt;
        let reference = reference_tokens(&model, &quantizer, cfg.kernel, prompt, out);
        for (id, tokens) in &outs {
            assert_eq!(
                tokens, &reference,
                "request {id}: shared decode must match the private Session"
            );
        }
    });
}

/// Eviction of a sharer must not disturb the survivors, and a restarted
/// request re-walks the trie, re-adopting any still-sealed prefix blocks
/// instead of re-quantizing them.
#[test]
fn evicting_a_sharer_preserves_the_survivors() {
    let model = narrow_model(2);
    let vocab = model.config().vocab_size;
    let quantizer = profiled_oaken(&model);
    // 24-token shared prompt over 8-token blocks: 2 shareable blocks.
    let requests = shared_prompt_requests(4, vocab, 24, 24, 30);
    // A pool tight enough that optimistic admission must evict during the
    // long decode phase, but ample for any sequence alone.
    for_each_point(service_config, |cfg| {
        let mut pool = PagedKvPool::for_model(model.config(), Some(quantizer.clone()), 70, 512);
        pool.set_block_tokens(8);
        let mut engine = BatchEngine::new(&model, pool, TokenScheduler::new(4), cfg);
        for r in &requests {
            engine.submit(r.clone());
        }
        let stats = run_checked(&mut engine);
        assert!(
            stats.preemptions > 0,
            "the tight pool must evict at least one sharer: {stats:?}"
        );
        let prompt = &requests[0].prompt;
        let reference = reference_tokens(&model, &quantizer, cfg.kernel, prompt, 30);
        for f in engine.finished() {
            assert!(f.completed, "request {} must survive eviction", f.id);
            assert_eq!(
                f.generated, reference,
                "request {} diverged after preemption",
                f.id
            );
        }
        assert_eq!(
            engine.pool().free_pages(),
            engine.pool().capacity_pages(),
            "all pages return after the run"
        );
        assert_eq!(engine.pool().trie_blocks(), 0);
    });
}

/// On a shrinking pool, ≥50% prompt overlap admits with strictly fewer
/// stalls than the sharing-disabled baseline (PR 2 behaviour): cache-hot
/// requests reserve only their non-shared pages.
#[test]
fn shared_prompts_stall_strictly_less_on_a_shrinking_pool() {
    let model = narrow_model(2);
    let vocab = model.config().vocab_size;
    let quantizer = profiled_oaken(&model);
    let prompt_len = 64usize;
    // Admission stalls are page arithmetic: of a point's fields only the
    // rank count (per-shard page rounding) enters it, so the points
    // collapse on the kernel and the thread count. The policy is pinned
    // too: SwapToHost deliberately changes admission headroom (free host
    // pages count), which would distort the sharing-on vs sharing-off
    // comparison.
    let page_math = |point| EngineConfig {
        admission: AdmissionPolicy::FullSequence,
        preempt: PreemptPolicy::RestartRecompute,
        prefill_token_budget: 16,
        num_threads: 1,
        kernel: KernelMode::Exact,
        ..point
    };
    for_each_point(page_math, |cfg| {
        let run = |pages: u32, shared_tokens: usize, sharing: bool| -> EngineStats {
            let requests = shared_prompt_requests(8, vocab, prompt_len, shared_tokens, 4);
            let mut pool =
                PagedKvPool::for_model(model.config(), Some(quantizer.clone()), pages, 256);
            pool.set_block_tokens(16);
            pool.set_prefix_sharing(sharing);
            let mut engine = BatchEngine::new(&model, pool, TokenScheduler::new(4), cfg);
            // Stagger: request 0 prefills (sealing the prefix blocks) and is
            // still decoding when the other seven arrive to probe the trie.
            let mut reqs = requests.into_iter();
            engine.submit(reqs.next().expect("8 requests"));
            while engine.stats().decode_tokens == 0 && engine.step() {}
            for r in reqs {
                engine.submit(r);
            }
            let stats = run_checked(&mut engine);
            for f in engine.finished() {
                assert!(f.completed, "pool {pages}: request {} must complete", f.id);
            }
            stats
        };

        let mut strictly_fewer_somewhere = false;
        for pages in [260u32, 200, 160] {
            let cold = run(pages, 0, true); // 0% overlap: nothing to share
            let half = run(pages, prompt_len / 2, true); // 50% overlap
            let full = run(pages, prompt_len, true); // 100% overlap
                                                     // PR-2 baselines: the same traces with sharing disabled.
            let half_off = run(pages, prompt_len / 2, false);
            let full_off = run(pages, prompt_len, false);
            eprintln!(
                "pages {pages}: stalls cold {} | half {} (off {}) | full {} (off {})",
                cold.admission_stalls,
                half.admission_stalls,
                half_off.admission_stalls,
                full.admission_stalls,
                full_off.admission_stalls
            );
            assert!(
                half.admission_stalls <= half_off.admission_stalls,
                "pages {pages}: sharing must not stall more at 50% overlap"
            );
            assert!(
                full.admission_stalls <= full_off.admission_stalls,
                "pages {pages}: sharing must not stall more at 100% overlap"
            );
            assert!(
                full.admission_stalls <= cold.admission_stalls,
                "pages {pages}: overlap must not add stalls (full {} vs cold {})",
                full.admission_stalls,
                cold.admission_stalls
            );
            strictly_fewer_somewhere |= half.admission_stalls < half_off.admission_stalls
                && full.admission_stalls < full_off.admission_stalls;
        }
        assert!(
            strictly_fewer_somewhere,
            "at least one shrinking-pool point must show strictly fewer stalls at ≥50% overlap"
        );
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random shared-prefix workloads under random chunk budgets: decode
    /// with a trie-shared prefix is logit-bit-exact with fully private
    /// sequences, and the page-ownership invariant holds after every
    /// step.
    #[test]
    fn shared_prefix_decode_is_bit_exact_under_random_schedules(
        n_requests in 2usize..5,
        prompt_len in 17usize..40,
        shared_frac in 0u32..5,
        block_tokens in 4usize..10,
        budget in 1usize..32,
        out in 1usize..5,
        stagger in any::<bool>(),
        point in matrix_point(),
    ) {
        let model = tiny_model();
        let vocab = model.config().vocab_size;
        let quantizer = profiled_oaken(&model);
        let shared = prompt_len * shared_frac as usize / 4;
        let requests = shared_prompt_requests(n_requests, vocab, prompt_len, shared, out);
        let mut pool = PagedKvPool::for_model(model.config(), Some(quantizer.clone()), 4096, 512);
        pool.set_block_tokens(block_tokens);
        let cfg = EngineConfig {
            max_batch: 4,
            record_logits: true,
            prefill_token_budget: budget,
            ..point
        };
        let mut engine = BatchEngine::new(&model, pool, TokenScheduler::new(4), cfg);
        let mut reqs = requests.clone().into_iter();
        engine.submit(reqs.next().expect("at least two requests"));
        if stagger {
            while engine.stats().retired == 0 && engine.step() {
                assert_accounting_balanced(&engine);
            }
        }
        for r in reqs {
            engine.submit(r);
        }
        run_checked(&mut engine);
        prop_assert_eq!(engine.finished().len(), requests.len());
        for f in engine.finished() {
            prop_assert!(f.completed);
            let req = &requests[f.id as usize];
            let reference = reference_tokens(&model, &quantizer, cfg.kernel, &req.prompt, req.max_new_tokens);
            prop_assert_eq!(&f.generated, &reference, "request {} diverged", f.id);
        }
    }
}
