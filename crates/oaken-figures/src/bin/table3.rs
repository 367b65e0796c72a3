//! Table 3: group-count ablation — perplexity and effective bitwidth for
//! 2–5 quantization groups at a fixed 10% outlier budget, including the
//! 4-bit-outlier alignment variants.

use oaken_baselines::AblationQuantizer;
use oaken_eval::harness::EvalSpec;
use oaken_eval::EvalHarness;
use oaken_figures::{banner, f, row};
use oaken_model::{Model, ModelConfig};
use std::sync::Arc;

fn main() {
    banner(
        "Table 3",
        "group-count ablation on the Llama2-7B proxy (10% outliers)",
    );
    let model = Model::synthetic(ModelConfig::llama2_7b().proxy(4, 64), 2024);
    let harness = EvalHarness::new(&model, &EvalSpec::paper());
    let fp32 = harness.evaluate(None);
    println!("FP32 reference perplexity: {:.3}\n", fp32.perplexity);

    row(
        &[
            &"group ratios",
            &"groups",
            &"outlier bits",
            &"eff bits",
            &"ppl",
        ],
        &[16, 7, 13, 9, 9],
    );
    for config in AblationQuantizer::paper_rows() {
        let groups = config.num_groups();
        let bits = config.outlier_bits;
        let eff = config.effective_bitwidth();
        let label = config.label.clone();
        let r = harness.evaluate(Some(Arc::new(config)));
        row(
            &[&label, &groups, &bits, &f(eff, 1), &f(r.perplexity, 3)],
            &[16, 7, 13, 9, 9],
        );
    }
    println!();
    println!("Expected shape (paper Table 3): 90/10 (no outer isolation) is");
    println!("the worst row; 4-5 groups improve perplexity slightly but cost");
    println!("5.6 effective bits unless outliers drop to 4 bits, which gives");
    println!("back some accuracy — 3 groups is the cost/accuracy optimum.");
}
