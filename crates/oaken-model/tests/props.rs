//! Property tests for the transformer substrate: attention laws, cache
//! equivalence under arbitrary inputs, and bit-exactness of the
//! incremental quantized-cache path against the batch recompute path
//! across random append/read schedules.

use oaken_baselines::{AtomStyle, Fp16Reference, QServeStyle, TenderStyle};
use oaken_core::{KvKind, KvQuantizer, OakenConfig, OakenQuantizer, OfflineProfiler};
use oaken_model::QuantizedCache;
use oaken_model::{
    attend_kv_group_fused_into, attend_one, attend_run_fused_into, AttentionScratch,
    AttentionShape, EncodedKv, ExactCache, KernelMode, KvCacheBackend, Model, ModelConfig,
    QUERY_TILE,
};
use proptest::prelude::*;
use std::sync::Arc;

/// KV-like row with occasional outer and inner outliers.
fn kv_row(d: usize, seed: u64) -> Vec<f32> {
    (0..d)
        .map(|i| {
            let u = ((i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(seed * 1_000_003)
                >> 33) as f32
                / (1u64 << 31) as f32;
            let base = (u - 0.5) * 6.0;
            match i % 23 {
                0 => base * 11.0,
                1 => base * 0.015,
                _ => base,
            }
        })
        .collect()
}

fn profiled_oaken(d: usize, layers: usize) -> OakenQuantizer {
    let config = OakenConfig::default();
    let mut p = OfflineProfiler::new(config.clone(), layers);
    for s in 0..24 {
        for layer in 0..layers {
            for kind in KvKind::ALL {
                p.observe(layer, kind, &kv_row(d.max(128), s * 5 + layer as u64));
            }
        }
    }
    OakenQuantizer::new(config, p.try_finish().unwrap())
}

/// Every method whose streaming path must match the batch path bit-for-bit.
fn token_granular_methods(d: usize, layers: usize) -> Vec<Arc<dyn KvQuantizer>> {
    vec![
        Arc::new(profiled_oaken(d, layers)),
        Arc::new(Fp16Reference::new()),
        Arc::new(AtomStyle::default()),
        Arc::new(QServeStyle::default()),
        Arc::new(TenderStyle::default()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Attention output is a convex combination of the cached values:
    /// every output coordinate lies within the min/max of that coordinate
    /// across cached positions (per KV head).
    #[test]
    fn attention_is_convex_combination(
        q in prop::collection::vec(-4.0f32..4.0, 8),
        kv in prop::collection::vec(-4.0f32..4.0, 8 * 6),
    ) {
        let shape = AttentionShape { num_heads: 2, num_kv_heads: 2, head_dim: 4, window: None };
        let seq_len = kv.len() / shape.kv_dim() / 2 * 2; // keys + values halves
        let (keys, values) = kv.split_at(kv.len() / 2);
        let seq = keys.len() / shape.kv_dim();
        prop_assume!(seq >= 1);
        let _ = seq_len;
        let out = attend_one(&q, &keys[..seq * 8], &values[..seq * 8], seq, &shape);
        for h in 0..shape.num_heads {
            for c in 0..shape.head_dim {
                let coord = h * shape.head_dim + c;
                let kvh = h; // one-to-one here
                let column: Vec<f32> = (0..seq)
                    .map(|t| values[t * shape.kv_dim() + kvh * shape.head_dim + c])
                    .collect();
                let min = column.iter().cloned().fold(f32::INFINITY, f32::min);
                let max = column.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                prop_assert!(
                    out[coord] >= min - 1e-4 && out[coord] <= max + 1e-4,
                    "coord {coord}: {} outside [{min}, {max}]",
                    out[coord]
                );
            }
        }
    }

    /// A sliding window of `seq_len` or larger equals full attention.
    #[test]
    fn window_at_least_seq_is_identity(
        q in prop::collection::vec(-2.0f32..2.0, 4),
        kv in prop::collection::vec(-2.0f32..2.0, 4 * 10),
    ) {
        let shape_full = AttentionShape { num_heads: 1, num_kv_heads: 1, head_dim: 4, window: None };
        let seq = kv.len() / 4 / 2;
        let (keys, values) = kv.split_at(seq * 4);
        let shape_win = AttentionShape { window: Some(seq + 3), ..shape_full };
        let a = attend_one(&q, keys, &values[..seq * 4], seq, &shape_full);
        let b = attend_one(&q, keys, &values[..seq * 4], seq, &shape_win);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-6);
        }
    }

    /// The exact cache is a faithful recorder: reads return exactly the
    /// appended rows in order.
    #[test]
    fn exact_cache_is_faithful(
        rows in prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 8), 1..20),
    ) {
        let mut cache = ExactCache::new();
        cache.reset(1, 8);
        for r in &rows {
            cache.append(0, r, r);
        }
        prop_assert_eq!(cache.seq_len(0), rows.len());
        let flat: Vec<f32> = rows.iter().flatten().copied().collect();
        prop_assert_eq!(cache.keys(0), &flat[..]);
        prop_assert_eq!(cache.values(0), &flat[..]);
    }

    /// The incremental streaming cache is bit-exact with the batch
    /// recompute path for Oaken and every token-granular baseline, across
    /// random append schedules with interleaved reads (reads at arbitrary
    /// prefix lengths must already agree — not just the final state).
    #[test]
    fn incremental_cache_bit_exact_with_recompute(
        seed in 0u64..1_000,
        tokens in 5usize..40,
        read_every in 1usize..7,
    ) {
        let d = 48;
        let layers = 2;
        for q in token_granular_methods(d, layers) {
            let mut inc = QuantizedCache::new(q.clone());
            let mut rec = QuantizedCache::new_recompute(q.clone());
            inc.reset(layers, d);
            rec.reset(layers, d);
            for t in 0..tokens {
                for layer in 0..layers {
                    let k = kv_row(d, seed * 31 + (t * layers + layer) as u64);
                    let v = kv_row(d, seed * 37 + (t * layers + layer) as u64 + 7_777);
                    inc.append(layer, &k, &v);
                    rec.append(layer, &k, &v);
                }
                if t % read_every == 0 || t + 1 == tokens {
                    for layer in 0..layers {
                        let ik: Vec<u32> = inc.keys(layer).iter().map(|x| x.to_bits()).collect();
                        let rk: Vec<u32> = rec.keys(layer).iter().map(|x| x.to_bits()).collect();
                        prop_assert_eq!(ik, rk, "{} keys diverged at token {}", q.name(), t);
                        let iv: Vec<u32> = inc.values(layer).iter().map(|x| x.to_bits()).collect();
                        let rv: Vec<u32> = rec.values(layer).iter().map(|x| x.to_bits()).collect();
                        prop_assert_eq!(iv, rv, "{} values diverged at token {}", q.name(), t);
                    }
                }
            }
            for layer in 0..layers {
                prop_assert_eq!(inc.seq_len(layer), tokens);
            }
        }
    }

    /// End-to-end: a full decode through the incremental cache produces the
    /// exact same attention outputs (hence logits) as the recompute cache.
    #[test]
    fn decode_logits_identical_between_cache_modes(seed in 0u64..500) {
        let cfg = ModelConfig::llama2_7b().proxy(2, 32);
        let model = Model::synthetic(cfg, 42);
        let q: Arc<dyn KvQuantizer> = Arc::new(profiled_oaken(model.config().kv_dim(), 2));
        let mut inc = model.session(Box::new(QuantizedCache::new(q.clone())));
        let mut rec = model.session(Box::new(QuantizedCache::new_recompute(q)));
        let prompt: Vec<u32> = (0..6).map(|i| ((seed + i * 97) % 64) as u32).collect();
        let a = inc.prefill(&prompt);
        let b = rec.prefill(&prompt);
        let a_bits: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
        let b_bits: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(a_bits, b_bits);
    }
}

/// Deterministic construction: the same (config, seed) always builds the
/// same model, and different seeds differ.
#[test]
fn model_construction_deterministic() {
    let cfg = ModelConfig::llama2_7b().proxy(2, 32);
    let a = Model::synthetic(cfg.clone(), 9);
    let b = Model::synthetic(cfg.clone(), 9);
    let c = Model::synthetic(cfg, 10);
    let mut sa = a.session(Box::new(ExactCache::new()));
    let mut sb = b.session(Box::new(ExactCache::new()));
    let mut sc = c.session(Box::new(ExactCache::new()));
    let la = sa.prefill(&[1, 2, 3]);
    let lb = sb.prefill(&[1, 2, 3]);
    let lc = sc.prefill(&[1, 2, 3]);
    assert_eq!(la, lb);
    assert_ne!(la, lc);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fused quantized-domain kernel's two contracts, over random
    /// shapes (GQA, odd head widths and hence odd column offsets), row
    /// contents (sparse to outlier-heavy), context lengths, sliding
    /// windows shorter than the run, and run lengths crossing the query
    /// tile:
    ///
    /// * **SQNR bound** — every query of a run tracks the exact kernels
    ///   run on the *decoded views of the same encoded rows* within a
    ///   tight accumulation-order bound, per coordinate and in aggregate.
    ///   The stored bits are identical either way; the only divergence is
    ///   f32 summation order inside the kernels.
    /// * **Width invariance** — the run served by shared sweeps over all
    ///   heads is bit-identical to each query served alone, one KV head
    ///   at a time.
    #[test]
    fn fused_kernel_is_sqnr_bounded_and_width_invariant(
        kv_heads in 1usize..4,
        group in 1usize..3,
        head_dim_sel in 0usize..5,
        context in 0usize..150,
        run in 1usize..(2 * QUERY_TILE + 6),
        window_sel in 0usize..3,
        outlier_every in 3usize..40,
        seed in 0u64..1_000,
    ) {
        let head_dim = [3, 8, 16, 17, 32][head_dim_sel];
        let window = [None, Some(7), Some(21)][window_sel];
        let shape = AttentionShape {
            num_heads: kv_heads * group,
            num_kv_heads: kv_heads,
            head_dim,
            window,
        };
        let d = shape.kv_dim();
        let seq_len = context + run;
        let quant = profiled_oaken(d, 1);
        let mut k_stream = quant.row_stream(d, 0, KvKind::Key).expect("oaken streams");
        let mut v_stream = quant.row_stream(d, 0, KvKind::Value).expect("oaken streams");
        let (mut k_view, mut v_view) = (Vec::new(), Vec::new());
        let row = |seed: u64| -> Vec<f32> {
            let mut x = kv_row(d, seed);
            for v in x.iter_mut().step_by(outlier_every) {
                *v *= 9.0;
            }
            x
        };
        for t in 0..seq_len as u64 {
            k_stream.append_row(&row(seed * 31 + 2 * t), &mut k_view);
            v_stream.append_row(&row(seed * 37 + 2 * t + 1), &mut v_view);
        }
        let ek = EncodedKv {
            plan: k_stream.read_plan().expect("oaken keeps a read plan"),
        };
        let ev = EncodedKv {
            plan: v_stream.read_plan().expect("oaken keeps a read plan"),
        };
        let queries: Vec<Vec<f32>> = (0..run as u64)
            .map(|i| kv_row(shape.q_dim(), seed ^ (0xABCD + i)))
            .collect();
        let qs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
        let limits: Vec<usize> = (1..=run).map(|i| context + i).collect();

        let mut scratch = AttentionScratch::default();
        let mut tile = vec![0.0f32; run * shape.q_dim()];
        let all = 0..kv_heads;
        attend_run_fused_into(&qs, &limits, &ek, &ev, &shape, all, &mut scratch, &mut tile);

        let gw = group * head_dim;
        for (i, fused) in tile.chunks(shape.q_dim()).enumerate() {
            let mut alone = vec![0.0f32; shape.q_dim()];
            for (kvh, out_g) in alone.chunks_mut(gw).enumerate() {
                attend_kv_group_fused_into(
                    qs[i], &ek, &ev, limits[i], &shape, kvh, out_g, &mut scratch,
                );
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            prop_assert_eq!(bits(fused), bits(&alone), "query {} depends on its sweep", i);

            let visible = limits[i] * d;
            let exact = attend_one(qs[i], &k_view[..visible], &v_view[..visible], limits[i], &shape);
            let scale = exact.iter().fold(0.0f32, |m, x| m.max(x.abs())).max(1e-6);
            let mut signal = 0.0f64;
            let mut noise = 0.0f64;
            for (c, (a, b)) in exact.iter().zip(fused).enumerate() {
                prop_assert!(b.is_finite(), "fused coordinate {} not finite", c);
                prop_assert!(
                    (a - b).abs() / scale < 5e-4,
                    "query {} coordinate {}: exact {} fused {} (scale {})", i, c, a, b, scale
                );
                signal += (*a as f64) * (*a as f64);
                noise += (*a as f64 - *b as f64) * (*a as f64 - *b as f64);
            }
            if noise > 0.0 {
                let sqnr_db = 10.0 * (signal / noise).log10();
                prop_assert!(
                    sqnr_db >= 60.0,
                    "SQNR {} dB below the fused kernel's 60 dB contract", sqnr_db
                );
            }
        }
    }

    /// End-to-end: a fused-kernel session over the Oaken cache stays
    /// within the same closeness bound of its exact-kernel twin at the
    /// logit level, for random prompts.
    #[test]
    fn fused_session_tracks_exact_session(seed in 0u64..500) {
        let cfg = ModelConfig::llama2_7b().proxy(2, 32);
        let model = Model::synthetic(cfg, 42);
        let q: Arc<dyn KvQuantizer> =
            Arc::new(profiled_oaken(model.config().kv_dim(), 2));
        let mut exact = model.session(Box::new(QuantizedCache::new(q.clone())));
        let mut fused = model.session(Box::new(QuantizedCache::new(q)));
        prop_assert_eq!(fused.set_kernel_mode(KernelMode::Fused), KernelMode::Fused);
        let prompt: Vec<u32> = (0..7).map(|i| ((seed + i * 131) % 64) as u32).collect();
        let a = exact.prefill(&prompt);
        let b = fused.prefill(&prompt);
        let scale = a.iter().fold(0.0f32, |m, x| m.max(x.abs())).max(1e-6);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            prop_assert!(
                (x - y).abs() / scale < 1e-2,
                "logit {} diverged: exact {} fused {}", i, x, y
            );
        }
    }
}
