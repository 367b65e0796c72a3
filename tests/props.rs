//! Cross-crate property tests: quantization round-trip invariants, fused
//! encoding integrity, and MMU allocation laws under randomized inputs.

use oaken::core::{
    classify, GroupKind, KvKind, OakenConfig, OakenQuantizer, OfflineProfiler, Thresholds,
};
use oaken::mmu::{MmuSim, StreamClass, StreamKey};
use proptest::prelude::*;

fn quantizer_for(samples: &[Vec<f32>]) -> OakenQuantizer {
    let config = OakenConfig::default();
    let mut p = OfflineProfiler::new(config.clone(), 1);
    for s in samples {
        p.observe(0, KvKind::Key, s);
        p.observe(0, KvKind::Value, s);
    }
    OakenQuantizer::new(config, p.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Classification is total and respects the threshold geometry.
    #[test]
    fn classification_total_and_ordered(
        x in -1_000.0f32..1_000.0,
        a in -100.0f32..0.0,
        b in 0.0f32..100.0,
    ) {
        let t = Thresholds::new(a * 2.0, a * 0.01, b * 0.01, b * 2.0).unwrap();
        let g = classify(x, &t);
        match g {
            GroupKind::Outer => prop_assert!(x < t.outer_lo || x > t.outer_hi),
            GroupKind::Inner => prop_assert!(x >= t.inner_lo && x <= t.inner_hi),
            GroupKind::Middle => prop_assert!(
                (x >= t.outer_lo && x < t.inner_lo) || (x > t.inner_hi && x <= t.outer_hi)
            ),
        }
    }

    /// Quantize→dequantize preserves length, finiteness, and a global
    /// error bound tied to the vector's dynamic range.
    #[test]
    fn oaken_roundtrip_bounded(values in prop::collection::vec(-50.0f32..50.0, 16..512)) {
        let q = quantizer_for(std::slice::from_ref(&values));
        let fv = q.quantize_vector(&values, 0, KvKind::Key).unwrap();
        let back = q.dequantize_vector(fv.row(0), 0, KvKind::Key).unwrap();
        prop_assert_eq!(back.len(), values.len());
        let range = values.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-6);
        for (a, b) in values.iter().zip(&back) {
            prop_assert!(b.is_finite());
            // 4-bit middle codes over a profiled range: allow a granule of
            // range/4 as a loose global bound (typical error ≪ this).
            prop_assert!((a - b).abs() <= range / 3.0 + 1e-3, "a={} b={}", a, b);
        }
    }

    /// The encoded form is internally consistent: outlier count matches the
    /// sparse stream, block counts sum to the outlier count, and payload
    /// accounting is exact.
    #[test]
    fn fused_encoding_consistent(values in prop::collection::vec(-20.0f32..20.0, 1..300)) {
        let q = quantizer_for(std::slice::from_ref(&values));
        let run = q.quantize_vector(&values, 0, KvKind::Value).unwrap();
        let fv = run.row(0);
        let outliers: Vec<_> = fv.outliers().collect();
        prop_assert_eq!(outliers.len(), fv.sparse_bytes().len());
        let block_sum: usize = fv.block_counts().iter().map(|&c| c as usize).sum();
        prop_assert_eq!(block_sum, fv.sparse_bytes().len());
        prop_assert_eq!(fv.payload_bytes(), fv.dense_bytes().len() + fv.sparse_bytes().len() + 8);
        // Outlier indices strictly increasing and in range.
        for w in outliers.windows(2) {
            prop_assert!(w[0].index < w[1].index);
        }
        for o in &outliers {
            prop_assert!(o.index < values.len());
        }
    }

    /// MMU: bytes written equal bytes readable, per-stream, always.
    #[test]
    fn mmu_conservation(
        writes in prop::collection::vec((0u16..4, 1u32..200), 1..100),
    ) {
        let mut mmu = MmuSim::new(1024, 256);
        let mut expected = std::collections::HashMap::new();
        for (head, bytes) in &writes {
            let key = StreamKey { request: 1, layer: 0, head: *head, class: StreamClass::Dense };
            mmu.write_token(key, *bytes).unwrap();
            *expected.entry(*head).or_insert(0u64) += u64::from(*bytes);
        }
        for (head, total) in expected {
            let key = StreamKey { request: 1, layer: 0, head, class: StreamClass::Dense };
            let written: u64 = mmu.stream(&key).unwrap().1.iter().map(|&b| u64::from(b)).sum();
            prop_assert_eq!(written, total);
        }
    }

    /// MMU: freeing a request returns the allocator to its prior state.
    #[test]
    fn mmu_free_restores_capacity(
        writes in prop::collection::vec((0u16..4, 1u32..200), 1..60),
    ) {
        let mut mmu = MmuSim::new(512, 256);
        let before = mmu.allocator().free_pages();
        for (head, bytes) in &writes {
            let key = StreamKey { request: 9, layer: 0, head: *head, class: StreamClass::Sparse };
            mmu.write_token(key, *bytes).unwrap();
        }
        mmu.release_request(9);
        prop_assert_eq!(mmu.allocator().free_pages(), before);
    }
}
