//! Figure 6: KV-cache value distribution observations on proxy models:
//! (a) per-layer min/max ranges, (b) cross-dataset consistency,
//! (c) channel concentration of top-magnitude keys.

use oaken_eval::{channel_concentration, kv_layer_ranges};
use oaken_figures::{banner, f, row};
use oaken_model::{Model, ModelConfig};

fn seq(n: usize, seed: u64) -> Vec<u32> {
    (0..n as u64)
        .map(|i| {
            let mixed =
                (i ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(6364136223846793005);
            ((mixed >> 33) % 256) as u32
        })
        .collect()
}

fn main() {
    banner(
        "Figure 6(a)",
        "per-layer KV ranges (Llama2-7B and OPT-6.7B proxies, Wikitext-like input)",
    );
    for (name, cfg) in [
        ("Llama2-7B-proxy", ModelConfig::llama2_7b().proxy(8, 64)),
        ("OPT-6.7B-proxy", ModelConfig::opt_6_7b().proxy(8, 64)),
    ] {
        let model = Model::synthetic(cfg, 1234);
        let ranges = kv_layer_ranges(&model, &[seq(48, 1)]);
        println!("\n--- {name} ---");
        row(
            &[&"layer", &"key min", &"key max", &"val min", &"val max"],
            &[6, 9, 9, 9, 9],
        );
        for r in &ranges {
            row(
                &[
                    &r.layer,
                    &f(r.key.min.into(), 2),
                    &f(r.key.max.into(), 2),
                    &f(r.value.min.into(), 2),
                    &f(r.value.max.into(), 2),
                ],
                &[6, 9, 9, 9, 9],
            );
        }
    }
    println!("\nExpected shape (Obs. 1): ranges differ across layers and models.\n");

    banner(
        "Figure 6(b)",
        "range consistency across datasets (Llama2-7B proxy)",
    );
    let model = Model::synthetic(ModelConfig::llama2_7b().proxy(8, 64), 1234);
    row(
        &[&"layer", &"wikitext", &"piqa-like", &"hellaswag-like"],
        &[6, 10, 10, 15],
    );
    let a = kv_layer_ranges(&model, &[seq(48, 1)]);
    let b = kv_layer_ranges(&model, &[seq(48, 777)]);
    let c = kv_layer_ranges(&model, &[seq(48, 31415)]);
    for ((ra, rb), rc) in a.iter().zip(&b).zip(&c) {
        row(
            &[
                &ra.layer,
                &f(ra.key.range().into(), 2),
                &f(rb.key.range().into(), 2),
                &f(rc.key.range().into(), 2),
            ],
            &[6, 10, 10, 15],
        );
    }
    println!("\nExpected shape (Obs. 2): per-layer key ranges are nearly");
    println!("identical across input distributions — thresholds can be");
    println!("profiled offline once per model.\n");

    banner(
        "Figure 6(c)",
        "concentration of top-4% key magnitudes in channels (layer 2)",
    );
    row(
        &[&"model", &"top-10% channels capture", &"channels hit"],
        &[18, 24, 13],
    );
    for (name, cfg) in [
        ("Llama2-7B-proxy", ModelConfig::llama2_7b().proxy(8, 64)),
        ("OPT-6.7B-proxy", ModelConfig::opt_6_7b().proxy(8, 64)),
    ] {
        let model = Model::synthetic(cfg, 1234);
        let (share, hit) = channel_concentration(&model, &seq(64, 5), 2, 0.04);
        row(
            &[&name, &format!("{:.0}%", share * 100.0), &hit],
            &[18, 24, 13],
        );
    }
    println!();
    println!("Expected shape (Obs. 3): most top-magnitude values concentrate");
    println!("in a few channels (the 'vertical lines'), but more channels are");
    println!("hit than the concentrated set — the discontinuous 'exceptions'");
    println!("that break per-channel-only schemes.");
}
