//! Figure 12(a): accuracy (Wikitext-like perplexity) vs effective bits as
//! the quantization group ratios sweep — the trade-off space whose
//! Pareto frontier contains the shipping 4%/90%/6% configuration.

use oaken_core::{GroupRatios, OakenConfig};
use oaken_eval::harness::EvalSpec;
use oaken_eval::{profile_oaken, EvalHarness};
use oaken_figures::{banner, f, row};
use oaken_model::{Model, ModelConfig};
use std::sync::Arc;

fn main() {
    banner(
        "Figure 12(a)",
        "perplexity vs effective bits across group ratios (Llama2-7B proxy)",
    );
    let model = Model::synthetic(ModelConfig::llama2_7b().proxy(4, 64), 2024);
    let harness = EvalHarness::new(&model, &EvalSpec::paper());
    let fp32 = harness.evaluate(None);
    println!("FP32 reference perplexity: {:.3}\n", fp32.perplexity);

    row(
        &[
            &"outer/middle/inner",
            &"outlier %",
            &"eff bits",
            &"perplexity",
        ],
        &[18, 10, 9, 11],
    );
    // Sweep outlier budget and its split, as in the figure.
    let sweeps: [(f64, f64); 10] = [
        (0.01, 0.01),
        (0.02, 0.02),
        (0.02, 0.06),
        (0.04, 0.04),
        (0.04, 0.06), // the shipping configuration
        (0.06, 0.04),
        (0.04, 0.10),
        (0.08, 0.06),
        (0.10, 0.08),
        (0.10, 0.10),
    ];
    for (outer, inner) in sweeps {
        let ratios =
            GroupRatios::new(outer, 1.0 - outer - inner, inner).expect("sweep ratios are valid");
        let config = OakenConfig {
            ratios,
            ..OakenConfig::default()
        };
        // Report effective bits at the full model's KV width (4096); the
        // proxy's tiny kv_dim would inflate the per-vector scale overhead.
        let eff = config.predicted_effective_bits(4096);
        let q = profile_oaken(&model, config, 8, 48, 7);
        let ppl = harness.evaluate(Some(Arc::new(q))).perplexity;
        let label = format!(
            "{:.0}/{:.0}/{:.0}",
            outer * 100.0,
            (1.0 - outer - inner) * 100.0,
            inner * 100.0
        );
        row(
            &[
                &label,
                &f((outer + inner) * 100.0, 0),
                &f(eff, 2),
                &f(ppl, 3),
            ],
            &[18, 10, 9, 11],
        );
    }
    println!();
    println!("Expected shape: perplexity falls toward the FP32 reference as");
    println!("the outlier budget (and effective bits) grows; 4/90/6 sits on");
    println!("the Pareto frontier (paper Figure 12a).");
}
