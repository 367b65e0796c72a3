//! Figure 13: throughput vs total sequence length (1K–32K) on Llama2-13B
//! with batch 16, input:output = 1:1.

use oaken_accel::{AcceleratorSpec, CapacityPolicy, QuantPolicy, RunResult, SystemModel, Workload};
use oaken_figures::{banner, f, row};
use oaken_model::ModelConfig;

fn show(r: &RunResult) -> String {
    if r.oom {
        "OOM".to_owned()
    } else {
        f(r.throughput, 0)
    }
}

fn main() {
    banner(
        "Figure 13",
        "throughput vs total sequence length, Llama2-13B, batch 16, 1:1",
    );
    let model = ModelConfig::llama2_13b();
    // A 16-request batch must fit entirely to complete (§6.2: "HBM-based
    // systems including QServe and Oaken-HBM cannot handle sequences longer
    // than 16K, making it difficult to complete the entire batch"); only
    // vLLM's continuous batching degrades gracefully.
    let systems = [
        (
            "vLLM",
            SystemModel::new(AcceleratorSpec::a100(), QuantPolicy::fp16()),
        ),
        (
            "QServe",
            SystemModel::new(AcceleratorSpec::a100(), QuantPolicy::qserve())
                .with_capacity(CapacityPolicy::Fail),
        ),
        (
            "Tender",
            SystemModel::new(AcceleratorSpec::tender(), QuantPolicy::tender())
                .with_capacity(CapacityPolicy::Fail),
        ),
        (
            "LPU",
            SystemModel::new(AcceleratorSpec::lpu(), QuantPolicy::fp16())
                .with_capacity(CapacityPolicy::Fail),
        ),
        (
            "Oaken-LPDDR",
            SystemModel::new(AcceleratorSpec::oaken_lpddr(), QuantPolicy::oaken())
                .with_capacity(CapacityPolicy::Fail),
        ),
        (
            "Oaken-HBM",
            SystemModel::new(AcceleratorSpec::oaken_hbm(), QuantPolicy::oaken())
                .with_capacity(CapacityPolicy::Fail),
        ),
    ];
    let mut header: Vec<&dyn std::fmt::Display> = vec![&"seq len"];
    for (name, _) in &systems {
        header.push(name);
    }
    let widths = vec![11usize; header.len()];
    row(&header, &widths);
    for total_len in [1024usize, 2048, 4096, 8192, 16384, 32768] {
        let w = Workload {
            batch: 16,
            input_len: total_len / 2,
            output_len: total_len / 2,
        };
        let cells: Vec<String> = systems
            .iter()
            .map(|(_, s)| show(&s.run(&model, &w)))
            .collect();
        let label = if total_len >= 1024 {
            format!("{}K", total_len / 1024)
        } else {
            total_len.to_string()
        };
        let mut r: Vec<&dyn std::fmt::Display> = vec![&label];
        for c in &cells {
            r.push(c);
        }
        row(&r, &widths);
    }
    println!();
    println!("Expected shape: GPUs lead at short sequences (compute-rich");
    println!("prefill dominates); Oaken-HBM overtakes as attention grows but");
    println!("OOMs beyond 16K; Oaken-LPDDR alone reaches 32K (paper Fig. 13).");
}
