//! Quickstart: profile outlier thresholds offline, quantize a KV vector
//! online with the fused dense-and-sparse encoding, and inspect the
//! compression arithmetic.
//!
//! Run with: `cargo run --example quickstart`

use oaken::core::{KvKind, OakenConfig, OakenError, OakenQuantizer, OfflineProfiler};

fn synthetic_kv_vector(n: usize, seed: u64) -> Vec<f32> {
    // A KV-like vector: mostly moderate values, a few big channel outliers,
    // a few near-zero values.
    (0..n)
        .map(|i| {
            let u = ((i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(seed)
                >> 33) as f32
                / (1u64 << 31) as f32;
            let base = (u - 0.5) * 6.0;
            match i % 47 {
                0 => base * 12.0, // outer outlier
                1 => base * 0.01, // inner outlier
                _ => base,
            }
        })
        .collect()
}

fn main() -> Result<(), OakenError> {
    // 1. Offline: profile thresholds from ~100 sample vectors (§4.3).
    let config = OakenConfig::default(); // 4% outer / 90% middle / 6% inner
    let mut profiler = OfflineProfiler::new(config.clone(), 1);
    for s in 0..100 {
        profiler.observe(0, KvKind::Key, &synthetic_kv_vector(4096, s));
        profiler.observe(0, KvKind::Value, &synthetic_kv_vector(4096, s + 1000));
    }
    let thresholds = profiler.try_finish()?;
    let t = thresholds.get(0, KvKind::Key)?;
    println!("profiled thresholds (layer 0, keys):");
    println!(
        "  outer_lo={:+.3}  inner_lo={:+.3}  inner_hi={:+.3}  outer_hi={:+.3}",
        t.outer_lo, t.inner_lo, t.inner_hi, t.outer_hi
    );

    // 2. Online: quantize an unseen vector.
    let quantizer = OakenQuantizer::new(config, thresholds);
    let x = synthetic_kv_vector(4096, 99_999);
    let run = quantizer.quantize_vector(&x, 0, KvKind::Key)?;
    let fused = run.row(0);
    // Stored bits per element: dense nibbles, COO bytes and FP16 scales.
    let effective_bits = fused.payload_bytes() as f64 * 8.0 / x.len() as f64;
    println!("\nfused encoding of a 4096-element vector:");
    println!("  dense bytes:   {}", fused.dense_bytes().len());
    println!(
        "  sparse bytes:  {} ({} outliers)",
        fused.sparse_bytes().len(),
        fused.outliers().len()
    );
    println!(
        "  table bytes:   {} (MMU transfer sizes)",
        fused.block_counts().len()
    );
    println!("  effective bits: {effective_bits:.2} (FP16 = 16.00)");
    println!("  compression:    {:.2}x vs FP16", 16.0 / effective_bits);

    // 3. Dequantize and check the reconstruction error.
    let restored = quantizer.dequantize_vector(fused, 0, KvKind::Key)?;
    let rms: f32 = (x
        .iter()
        .zip(&restored)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f32>()
        / x.len() as f32)
        .sqrt();
    let range = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    println!(
        "\nreconstruction RMS error: {:.4} ({:.3}% of range)",
        rms,
        100.0 * rms / range
    );
    Ok(())
}
