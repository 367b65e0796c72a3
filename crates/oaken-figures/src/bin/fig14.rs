//! Figure 14: generation throughput on the two Azure production traces
//! (Conversation, BurstGPT) for Llama2-13B and Mixtral-8x7B, batch 16–128.

use oaken_accel::{AcceleratorSpec, QuantPolicy, SystemModel};
use oaken_figures::{banner, f, row, simulate_trace, TRACE_BATCH_SWEEP};
use oaken_model::ModelConfig;
use oaken_serving::{synthesize_requests, TraceSpec};

fn main() {
    banner(
        "Figure 14",
        "trace-driven generation throughput (tokens/s), batch 16-128",
    );
    let traces = [TraceSpec::conversation(), TraceSpec::burstgpt()];
    let models = [ModelConfig::llama2_13b(), ModelConfig::mixtral_8x7b()];
    for model in &models {
        for trace in &traces {
            println!("\n--- {} / {} ---", trace.name, model.name);
            let is_moe = model.moe.is_some();
            // Llama2-13B fits one A100; Mixtral needs two (pipeline
            // parallel), per the paper's §6.1 GPU setup.
            let gpu = if is_moe {
                AcceleratorSpec::a100_x2()
            } else {
                AcceleratorSpec::a100()
            };
            let mut systems = vec![
                ("vLLM", SystemModel::new(gpu.clone(), QuantPolicy::fp16())),
                (
                    "Tender",
                    SystemModel::new(AcceleratorSpec::tender(), QuantPolicy::tender()),
                ),
                (
                    "LPU",
                    SystemModel::new(AcceleratorSpec::lpu(), QuantPolicy::fp16()),
                ),
                (
                    "Oaken-LPDDR",
                    SystemModel::new(AcceleratorSpec::oaken_lpddr(), QuantPolicy::oaken()),
                ),
            ];
            if !is_moe {
                // QServe lacks MoE support and Oaken-HBM cannot hold
                // Mixtral (§6.2) — both excluded for Mixtral.
                systems.insert(
                    1,
                    (
                        "QServe",
                        SystemModel::new(gpu.clone(), QuantPolicy::qserve()),
                    ),
                );
                systems.push((
                    "Oaken-HBM",
                    SystemModel::new(AcceleratorSpec::oaken_hbm(), QuantPolicy::oaken()),
                ));
            }
            let requests = synthesize_requests(trace, 256, 99);
            let mut header: Vec<&dyn std::fmt::Display> = vec![&"batch"];
            for (name, _) in &systems {
                header.push(name);
            }
            let widths = vec![12usize; header.len()];
            row(&header, &widths);
            for &b in &TRACE_BATCH_SWEEP {
                let cells: Vec<String> = systems
                    .iter()
                    .map(|(_, s)| {
                        let r = simulate_trace(s, model, &requests, b);
                        if r.oom_batches > 0 && r.output_tokens == 0 {
                            "OOM".to_owned()
                        } else {
                            f(r.gen_throughput, 0)
                        }
                    })
                    .collect();
                let mut r: Vec<&dyn std::fmt::Display> = vec![&b];
                for c in &cells {
                    r.push(c);
                }
                row(&r, &widths);
            }
        }
    }
    println!();
    println!("Expected shape: Conversation's short outputs mute Oaken's gain;");
    println!("BurstGPT's long outputs widen it. Mixtral's GQA shrinks the KV");
    println!("cache so quantization helps less; Tender loses to prompt-length");
    println!("padding (paper Figure 14).");
}
