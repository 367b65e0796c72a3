//! Figure 3(c): GPU core utilization per operation during the generation
//! phase of batched Llama2-13B inference on an A100.

use oaken_accel::{generation_utilization, AcceleratorSpec};
use oaken_figures::{banner, f, row};
use oaken_model::ModelConfig;

fn main() {
    banner(
        "Figure 3(c)",
        "A100 utilization by op segment, Llama2-13B generation, batch 32",
    );
    let report = generation_utilization(
        &AcceleratorSpec::a100(),
        &ModelConfig::llama2_13b(),
        32,
        1536,
    );
    row(&[&"segment", &"utilization (%)"], &[10, 16]);
    for (seg, util) in &report.segments {
        row(&[&seg.label(), &f(*util, 1)], &[10, 16]);
    }
    println!();
    println!("Expected shape: MHA is the utilization sink (bandwidth-bound,");
    println!("un-batchable); FFN/QKVGen reach the batched-GEMM efficiency;");
    println!("LayerNorms barely register on the matrix pipelines.");
}
