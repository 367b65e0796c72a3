//! Figure 5: (a) memory usage breakdown (weights vs KV cache) of
//! Llama2-13B as batch grows; (b) throughput of no-quantization vs
//! weight-only INT4 vs KV-cache INT4 on the LPDDR-NPU.

use oaken_accel::{AcceleratorSpec, QuantPolicy, SystemModel, Workload};
use oaken_figures::{banner, f, row};
use oaken_model::ModelConfig;

fn main() {
    let model = ModelConfig::llama2_13b();
    banner(
        "Figure 5(a)",
        "Llama2-13B memory requirement by batch (2K tokens)",
    );
    row(
        &[&"batch", &"weights (GB)", &"KV cache (GB)", &"KV share (%)"],
        &[6, 13, 14, 13],
    );
    let weights_gb = model.weight_bytes(16.0) as f64 / 1e9;
    for b in [1usize, 8, 16, 32, 64, 128, 256] {
        let kv_gb = (b as u64 * 2048 * model.kv_bytes_per_token(16.0)) as f64 / 1e9;
        row(
            &[
                &b,
                &f(weights_gb, 1),
                &f(kv_gb, 1),
                &f(100.0 * kv_gb / (kv_gb + weights_gb), 1),
            ],
            &[6, 13, 14, 13],
        );
    }
    println!("\nExpected shape: KV cache grows linearly with batch and");
    println!("dominates memory (89-94%) from batch 64 up (paper: 89%/94%).\n");

    banner(
        "Figure 5(b)",
        "throughput: no quant vs weight-INT4 vs KV-INT4 (LPDDR-NPU, 1K:1K)",
    );
    row(
        &[&"batch", &"w/o quant", &"weight INT4", &"KV INT4"],
        &[6, 12, 12, 12],
    );
    let mk = |p: QuantPolicy| SystemModel::new(AcceleratorSpec::lpddr_npu(), p);
    let none = mk(QuantPolicy::fp16());
    let wq = mk(QuantPolicy::weight_only_int4());
    let kvq = mk(QuantPolicy::kv_int4_plain());
    for b in [8usize, 16, 32, 64, 128, 256] {
        let w = Workload::one_k_one_k(b);
        row(
            &[
                &b,
                &f(none.run(&model, &w).throughput, 0),
                &f(wq.run(&model, &w).throughput, 0),
                &f(kvq.run(&model, &w).throughput, 0),
            ],
            &[6, 12, 12, 12],
        );
    }
    println!();
    println!("Expected shape: weight-only quantization gains little at large");
    println!("batch (weights are read once per iteration and amortized);");
    println!("KV quantization keeps scaling throughput (paper Figure 5b).");
}
