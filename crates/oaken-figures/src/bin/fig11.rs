//! Figure 11: end-to-end throughput of the GPU baselines (vLLM, KVQuant,
//! KIVI, QServe), LPU, Tender, and Oaken (HBM/LPDDR) across six models and
//! batch sizes 16–256 at 1K:1K.

use oaken_accel::{AcceleratorSpec, QuantPolicy, RunResult, SystemModel, Workload};
use oaken_figures::{banner, f, row, BATCH_SWEEP};
use oaken_model::ModelConfig;

fn systems(two_gpus: bool) -> Vec<(&'static str, SystemModel)> {
    let gpu = if two_gpus {
        AcceleratorSpec::a100_x2()
    } else {
        AcceleratorSpec::a100()
    };
    vec![
        ("vLLM", SystemModel::new(gpu.clone(), QuantPolicy::fp16())),
        (
            "KVQuant",
            SystemModel::new(gpu.clone(), QuantPolicy::kvquant()),
        ),
        ("KIVI", SystemModel::new(gpu.clone(), QuantPolicy::kivi())),
        ("QServe", SystemModel::new(gpu, QuantPolicy::qserve())),
        (
            "Tender",
            SystemModel::new(AcceleratorSpec::tender(), QuantPolicy::tender()),
        ),
        (
            "LPU",
            SystemModel::new(AcceleratorSpec::lpu(), QuantPolicy::fp16()),
        ),
        (
            "Oaken-HBM",
            SystemModel::new(AcceleratorSpec::oaken_hbm(), QuantPolicy::oaken()),
        ),
        (
            "Oaken-LPDDR",
            SystemModel::new(AcceleratorSpec::oaken_lpddr(), QuantPolicy::oaken()),
        ),
    ]
}

fn show(r: &RunResult) -> String {
    if r.oom {
        "OOM".to_owned()
    } else {
        f(r.throughput, 0)
    }
}

fn main() {
    banner(
        "Figure 11",
        "end-to-end throughput (tokens/s), 1K:1K, batch 16-256",
    );
    let models = [
        (ModelConfig::llama2_7b(), false),
        (ModelConfig::llama2_13b(), false),
        (ModelConfig::mistral_7b(), false),
        (ModelConfig::opt_30b(), true),
        (ModelConfig::mixtral_8x7b(), true),
        (ModelConfig::llama2_70b(), true),
    ];
    for (model, two_gpus) in models {
        println!("\n--- {} ---", model.name);
        let sys = systems(two_gpus);
        let mut header: Vec<&dyn std::fmt::Display> = vec![&"batch"];
        for (name, _) in &sys {
            header.push(name);
        }
        let widths = vec![6usize; header.len()]
            .into_iter()
            .map(|_| 11)
            .collect::<Vec<_>>();
        row(&header, &widths);
        for &b in &BATCH_SWEEP {
            let w = Workload::one_k_one_k(b);
            let cells: Vec<String> = sys.iter().map(|(_, s)| show(&s.run(&model, &w))).collect();
            let mut r: Vec<&dyn std::fmt::Display> = vec![&b];
            for c in &cells {
                r.push(c);
            }
            row(&r, &widths);
        }
    }

    // Headline numbers.
    println!("\n--- headline speedups at batch 256 (average over models) ---");
    let mut vs_vllm = Vec::new();
    let mut vs_qserve = Vec::new();
    for (model, two_gpus) in [
        (ModelConfig::llama2_7b(), false),
        (ModelConfig::llama2_13b(), false),
        (ModelConfig::mistral_7b(), false),
        (ModelConfig::opt_30b(), true),
        (ModelConfig::mixtral_8x7b(), true),
        (ModelConfig::llama2_70b(), true),
    ] {
        let w = Workload::one_k_one_k(256);
        let sys = systems(two_gpus);
        let get = |name: &str| {
            sys.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| s.run(&model, &w))
                .expect("system present")
        };
        let oaken = get("Oaken-LPDDR");
        let vllm = get("vLLM");
        let qserve = get("QServe");
        if !oaken.oom && !vllm.oom && vllm.throughput > 0.0 {
            vs_vllm.push(oaken.throughput / vllm.throughput);
        }
        if !oaken.oom && !qserve.oom && qserve.throughput > 0.0 {
            vs_qserve.push(oaken.throughput / qserve.throughput);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "Oaken-LPDDR vs vLLM:   {:.2}x (paper: 1.79x)",
        mean(&vs_vllm)
    );
    println!(
        "Oaken-LPDDR vs QServe: {:.2}x (paper: 1.58x)",
        mean(&vs_qserve)
    );
    println!();
    println!("Expected shape: GPU baselines saturate at large batch (capacity");
    println!("waves); Oaken-HBM wins small models/batches but OOMs on");
    println!("Mixtral-8x7B and Llama2-70B; Oaken-LPDDR scales to batch 256.");
}
