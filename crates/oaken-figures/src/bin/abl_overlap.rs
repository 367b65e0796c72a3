//! Ablation: what the §5.3 overlap of quantization/dequantization with DMA
//! and attention is worth — Oaken with engines overlapped (shipping
//! config), the same engines fully exposed, and the GPU kernel fallback.

use oaken_accel::{AcceleratorSpec, QuantPolicy, SystemModel, Workload};
use oaken_figures::{banner, f, row};
use oaken_model::ModelConfig;

fn main() {
    banner(
        "Ablation: (de)quantization overlap",
        "Llama2-7B, 1K:1K — what hiding the engines behind DMA buys",
    );
    let model = ModelConfig::llama2_7b();
    row(
        &[
            &"batch",
            &"overlapped (tok/s)",
            &"exposed (tok/s)",
            &"GPU kernels (tok/s)",
        ],
        &[6, 19, 16, 20],
    );
    let overlapped = SystemModel::new(AcceleratorSpec::oaken_lpddr(), QuantPolicy::oaken());
    // Same hardware, engines' raw time fully on the critical path: model by
    // moving the work to "compute-core kernels" with no divergence penalty.
    let mut exposed_policy = QuantPolicy::oaken();
    exposed_policy.name = "Oaken-noverlap".to_owned();
    exposed_policy.dedicated_engine = false;
    exposed_policy.cost.gpu_divergence_penalty = 1.0;
    let exposed = SystemModel::new(AcceleratorSpec::oaken_lpddr(), exposed_policy);
    let gpu = SystemModel::new(AcceleratorSpec::a100(), QuantPolicy::oaken_gpu());

    for batch in [16usize, 32, 64, 128, 256] {
        let w = Workload::one_k_one_k(batch);
        row(
            &[
                &batch,
                &f(overlapped.run(&model, &w).throughput, 0),
                &f(exposed.run(&model, &w).throughput, 0),
                &f(gpu.run(&model, &w).throughput, 0),
            ],
            &[6, 19, 16, 20],
        );
    }
    println!();
    println!("Expected shape: exposing the engine time costs a few percent of");
    println!("throughput (the engines are fast, the win is architectural");
    println!("simplicity of streaming); falling back to GPU kernels with warp");
    println!("divergence costs far more — the co-design argument of §5.");
}
