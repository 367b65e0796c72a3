//! Figure 12(b): end-to-end generation latency breakdown (non-attention,
//! attention, quantization, dequantization) for LPU, Oaken's algorithm on
//! GPU, and the Oaken accelerator, Llama2-7B, batch 16/32/64.

use oaken_accel::{AcceleratorSpec, QuantPolicy, SystemModel};
use oaken_figures::{banner, f, row};
use oaken_model::ModelConfig;

fn main() {
    banner(
        "Figure 12(b)",
        "latency breakdown per generation iteration, Llama2-7B, ctx 1.5K (ms)",
    );
    let model = ModelConfig::llama2_7b();
    let systems = [
        (
            "LPU",
            SystemModel::new(AcceleratorSpec::lpu(), QuantPolicy::fp16()),
        ),
        (
            "Oaken-GPU",
            SystemModel::new(AcceleratorSpec::a100(), QuantPolicy::oaken_gpu()),
        ),
        (
            "Oaken",
            SystemModel::new(AcceleratorSpec::oaken_lpddr(), QuantPolicy::oaken()),
        ),
    ];
    row(
        &[
            &"batch",
            &"system",
            &"non-attn",
            &"attention",
            &"quant",
            &"dequant",
            &"total",
            &"q+dq %",
        ],
        &[6, 10, 10, 10, 8, 8, 8, 7],
    );
    for batch in [16usize, 32, 64] {
        for (name, sys) in &systems {
            let it = sys.generation_iteration(&model, batch, 1536);
            let total = it.total();
            let qdq_pct = 100.0 * (it.quant_exposed + it.dequant_exposed) / total;
            row(
                &[
                    &batch,
                    name,
                    &f(it.non_attention * 1e3, 2),
                    &f(it.attention * 1e3, 2),
                    &f(it.quant_exposed * 1e3, 3),
                    &f(it.dequant_exposed * 1e3, 3),
                    &f(total * 1e3, 2),
                    &f(qdq_pct, 2),
                ],
                &[6, 10, 10, 10, 8, 8, 8, 7],
            );
        }
    }
    println!();
    let oaken = &systems[2].1;
    let lpu = &systems[0].1;
    let att_oaken = oaken.generation_iteration(&model, 64, 1536).attention;
    let att_lpu = lpu.generation_iteration(&model, 64, 1536).attention;
    println!(
        "Attention time reduction vs LPU at batch 64: {:.1}% (paper: ~55%)",
        100.0 * (1.0 - att_oaken / att_lpu)
    );
    println!();
    println!("Expected shape: attention grows with batch; Oaken's exposed");
    println!("quant+dequant stays in the low single-digit % (paper: 1.29% +");
    println!("3.23% at batch 64) while Oaken-GPU pays warp divergence.");
}
