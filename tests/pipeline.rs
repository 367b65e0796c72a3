//! End-to-end integration: synthetic model → offline profiling → quantized
//! KV-cache inference → accuracy, spanning oaken-model, oaken-core,
//! oaken-baselines, and oaken-eval.

use oaken::baselines::{Fp16Reference, TenderStyle};
use oaken::core::{GroupStats, KvQuantizer, OakenConfig};
use oaken::eval::harness::EvalSpec;
use oaken::eval::{profile_oaken, EvalHarness};
use oaken::model::{Model, ModelConfig, PagedKvPool};
use oaken::serving::{BatchEngine, EngineConfig, EngineRequest, RequestOutcome, TokenScheduler};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

fn proxy_model() -> Model {
    Model::synthetic(ModelConfig::llama2_7b().proxy(3, 48), 2025)
}

#[test]
fn profiled_thresholds_hit_target_ratios_on_live_kv() {
    // The offline thresholds must deliver ~4%/90%/6% occupancy on KV
    // vectors from *unseen* inference — the core online-offline contract.
    let model = proxy_model();
    let config = OakenConfig::default();
    let quantizer = profile_oaken(&model, config, 10, 40, 1);

    let stats: Rc<RefCell<GroupStats>> = Rc::new(RefCell::new(GroupStats::default()));
    let thresholds = quantizer.thresholds().clone();
    {
        let mut session = model.session(None);
        let s = Rc::clone(&stats);
        session.set_kv_observer(Box::new(move |layer, kind, values| {
            let t = thresholds.get(layer, kind).expect("profiled layer");
            let obs = GroupStats::of(values, t);
            let mut acc = s.borrow_mut();
            *acc = acc.merge(&obs);
        }));
        for tok in [5u32, 77, 130, 9, 41, 200, 3, 99, 160, 28, 77, 12] {
            session.advance(tok);
        }
    }
    let stats = stats.borrow();
    let outlier = stats.outlier_fraction();
    assert!(
        (0.02..0.30).contains(&outlier),
        "outlier fraction {outlier} far from the 10% target"
    );
}

#[test]
fn quantized_cache_inference_stays_close_to_exact() {
    let model = proxy_model();
    let quantizer = profile_oaken(&model, OakenConfig::default(), 10, 40, 1);
    let tokens: Vec<u32> = (0..24).map(|i| (i * 37 + 11) % 256).collect();

    let mut exact = model.session(None);
    let exact_logits = exact.prefill(&tokens);

    let mut quant = model.session(Some(Arc::new(quantizer)));
    let quant_logits = quant.prefill(&tokens);

    // Logits drift but the distribution must stay strongly correlated.
    let dot: f64 = exact_logits
        .iter()
        .zip(&quant_logits)
        .map(|(&a, &b)| f64::from(a) * f64::from(b))
        .sum();
    let na: f64 = exact_logits
        .iter()
        .map(|&a| f64::from(a) * f64::from(a))
        .sum();
    let nb: f64 = quant_logits
        .iter()
        .map(|&b| f64::from(b) * f64::from(b))
        .sum();
    let cosine = dot / (na.sqrt() * nb.sqrt());
    assert!(cosine > 0.90, "logit cosine similarity {cosine}");

    // Functionally, the exact model's top token must survive near the top
    // of the quantized ranking (greedy decoding rarely diverges).
    let top_exact = oaken::tensor::argmax(&exact_logits).unwrap();
    let mut ranked: Vec<usize> = (0..quant_logits.len()).collect();
    ranked.sort_by(|&a, &b| quant_logits[b].partial_cmp(&quant_logits[a]).unwrap());
    let rank = ranked.iter().position(|&i| i == top_exact).unwrap();
    assert!(
        rank < 5,
        "exact top token fell to rank {rank} under quantization"
    );
}

#[test]
fn table2_ordering_oaken_between_fp16_and_tender() {
    // The paper's accuracy ordering: FP16 ≥ Oaken > Tender (coarse groups).
    let model = proxy_model();
    let harness = EvalHarness::new(&model, &EvalSpec::quick());

    let fp16 = harness.evaluate(Some(Arc::new(Fp16Reference::new())));
    let oaken_q = profile_oaken(&model, OakenConfig::default(), 10, 40, 1);
    let oaken = harness.evaluate(Some(Arc::new(oaken_q)));
    let tender = harness.evaluate(Some(Arc::new(TenderStyle::default())));

    assert!(
        oaken.perplexity <= fp16.perplexity * 1.30,
        "oaken ppl {} vs fp16 {}",
        oaken.perplexity,
        fp16.perplexity
    );
    assert!(
        oaken.perplexity <= tender.perplexity,
        "oaken ppl {} should not exceed tender {}",
        oaken.perplexity,
        tender.perplexity
    );
}

#[test]
fn effective_bits_ordering_holds_end_to_end() {
    let model = proxy_model();
    let d = model.config().kv_dim();
    let oaken_q = profile_oaken(&model, OakenConfig::default(), 6, 32, 3);
    let eb_oaken = oaken_q.effective_bits(1024, d);
    let eb_fp16 = Fp16Reference::new().effective_bits(1024, d);
    let eb_tender = TenderStyle::default().effective_bits(1024, d);
    assert!(eb_tender < eb_oaken, "{eb_tender} vs {eb_oaken}");
    assert!(eb_oaken < eb_fp16 / 2.5, "{eb_oaken} vs {eb_fp16}");
}

#[test]
fn gqa_and_moe_proxies_run_quantized() {
    // Every structural feature must survive the quantized cache path.
    for cfg in [
        ModelConfig::llama2_70b().proxy(2, 32),   // GQA
        ModelConfig::mistral_7b().proxy(2, 32),   // GQA + sliding window
        ModelConfig::mixtral_8x7b().proxy(2, 32), // GQA + MoE
        ModelConfig::opt_6_7b().proxy(2, 32),     // LayerNorm + learned pos
    ] {
        let name = cfg.name.clone();
        let model = Model::synthetic(cfg, 7);
        let q = profile_oaken(&model, OakenConfig::default(), 4, 16, 5);
        let mut session = model.session(Some(Arc::new(q)));
        let logits = session.prefill(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(
            logits.iter().all(|v| v.is_finite()),
            "non-finite logits for {name}"
        );
    }
}

/// An FP16 pool cannot split ranks — its rows have no encoded form for a
/// rank to adopt a slice of — so an engine asking for two runs on one and
/// produces the one-rank engine's tokens.
#[test]
fn fp16_engine_downgrades_a_rank_split() {
    let model = Model::synthetic(ModelConfig::llama2_7b().proxy(2, 32), 7);
    let run = |num_ranks| {
        let q: Arc<dyn KvQuantizer> = Arc::new(Fp16Reference::new());
        let pool = PagedKvPool::for_model(model.config(), Some(q), 256, 512);
        let config = EngineConfig {
            num_ranks,
            num_threads: 1,
            ..EngineConfig::default()
        };
        let mut engine = BatchEngine::new(&model, pool, TokenScheduler::new(4), config);
        for id in 0..3u32 {
            let prompt = (0..10).map(|i| (i * 13 + id * 5) % 256).collect();
            engine.submit(EngineRequest::new(u64::from(id), prompt, 4));
        }
        let ranks = engine.num_ranks();
        let finished = engine.run().iter();
        let tokens: Vec<_> = finished
            .map(|f| (f.id, f.outcome, f.generated.clone()))
            .collect();
        (ranks, tokens)
    };
    let (one, want) = run(1);
    let (two, got) = run(2);
    assert_eq!((one, two), (1, 1), "FP16 runs unsharded");
    assert_eq!(got, want);
    assert!(want
        .iter()
        .all(|(_, outcome, tokens)| *outcome == RequestOutcome::Finished && tokens.len() == 4));
}
