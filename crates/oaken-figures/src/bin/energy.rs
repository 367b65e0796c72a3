//! Extension experiment: energy per token (§6.2's power numbers combined
//! with the performance model) — tokens/joule for the A100 baselines and
//! the Oaken accelerators.

use oaken_accel::{energy_report, AcceleratorSpec, QuantPolicy, SystemModel, Workload};
use oaken_figures::{banner, f, row};
use oaken_model::ModelConfig;

fn main() {
    banner(
        "Energy",
        "tokens per joule, Llama2-13B, 1K:1K (power: A100 TDP vs Table 4 model)",
    );
    let model = ModelConfig::llama2_13b();
    let systems = [
        SystemModel::new(AcceleratorSpec::a100(), QuantPolicy::fp16()),
        SystemModel::new(AcceleratorSpec::a100(), QuantPolicy::qserve()),
        SystemModel::new(AcceleratorSpec::lpu(), QuantPolicy::fp16()),
        SystemModel::new(AcceleratorSpec::oaken_lpddr(), QuantPolicy::oaken()),
    ];
    row(
        &[
            &"batch",
            &"system",
            &"power (W)",
            &"tokens/J",
            &"J per 1K tokens",
        ],
        &[6, 20, 10, 10, 16],
    );
    for batch in [32usize, 128, 256] {
        let w = Workload::one_k_one_k(batch);
        for sys in &systems {
            let r = energy_report(sys, &model, &w);
            let jp1k = if r.tokens_per_joule > 0.0 {
                1000.0 / r.tokens_per_joule
            } else {
                f64::INFINITY
            };
            row(
                &[
                    &batch,
                    &r.system,
                    &f(r.power_w, 0),
                    &f(r.tokens_per_joule, 2),
                    &f(jp1k, 0),
                ],
                &[6, 20, 10, 10, 16],
            );
        }
    }
    println!();
    println!("Expected shape: Oaken-LPDDR combines ~44% lower power with the");
    println!("highest large-batch throughput, multiplying into the best");
    println!("energy per token of all systems (§6.2's efficiency claim).");
}
