//! Times the fused kernel's one-query sweep in the engine's form — one
//! call over every KV head of a step, one segment, one query — at the
//! benchmark's decode shapes, hot and cold. `#[ignore]`d: its numbers mean
//! something only in an optimised build, pinned to one CPU:
//!
//! ```text
//! taskset -c 1 cargo test --release --features simd -p oaken-model \
//!     --test sweep_probe -- --ignored --nocapture
//! ```
//!
//! *Hot* is the best per-call time of back-to-back calls. *Cold* is the
//! median of single calls, each after a sweep over a buffer larger than
//! the per-core L2, so the encoded rows come from the last-level cache as
//! a decode step's do after the weight sweep.

use oaken_core::{
    EncodedStore, KvKind, KvQuantizer, KvRowStream, OakenConfig, OakenQuantizer, OfflineProfiler,
};
use oaken_model::{attend_segments_fused_into, AttentionScratch, AttentionShape, Segment};
use std::hint::black_box;
use std::time::Instant;

/// KV-like row with occasional outer and inner outliers.
fn kv_row(d: usize, seed: u64) -> Vec<f32> {
    (0..d)
        .map(|i| {
            let u = ((i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(seed.wrapping_mul(0xD1B54A32D192ED03))
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

fn profiled_oaken(d: usize) -> OakenQuantizer {
    let config = OakenConfig::default();
    let mut p = OfflineProfiler::new(config.clone(), 1);
    for s in 0..24 {
        for kind in KvKind::ALL {
            p.observe(0, kind, &kv_row(d, s * 5));
        }
    }
    OakenQuantizer::new(config, p.try_finish().unwrap())
}

/// `rows` rows of one kind through the stream the pool uses.
fn stream(quant: &OakenQuantizer, kind: KvKind, rows: usize, d: usize) -> Box<dyn KvRowStream> {
    let mut stream = quant.row_stream(d, 0, kind).expect("oaken streams");
    let mut view = Vec::new();
    for t in 0..rows as u64 {
        stream.append_row(&kv_row(d, 2 * t + kind as u64), &mut view);
    }
    stream
}

/// Hot and cold ns per row of one query attending `rows` rows over all
/// `kv_heads` heads of `head_dim` (multi-head).
fn probe(kv_heads: usize, head_dim: usize, rows: usize) -> (f64, f64) {
    let shape = AttentionShape {
        num_heads: kv_heads,
        num_kv_heads: kv_heads,
        head_dim,
        window: None,
    };
    let d = shape.kv_dim();
    let quant = profiled_oaken(d);
    let (keys, values) = (
        stream(&quant, KvKind::Key, rows, d),
        stream(&quant, KvKind::Value, rows, d),
    );
    fn plan(s: &dyn KvRowStream) -> &EncodedStore {
        s.encoded_rows().expect("oaken keeps encoded rows")
    }
    let seg = Segment {
        queries: 1,
        keys: plan(&*keys),
        values: plan(&*values),
    };
    // Scores with a spread of a few units, as a served model's are: a
    // softmax this sharp would underflow most weights to subnormals.
    let q: Vec<f32> = kv_row(shape.q_dim(), 0x5EED)
        .iter()
        .map(|x| x * 0.05)
        .collect();
    let mut scratch = AttentionScratch::default();
    let mut out = vec![0.0f32; shape.q_dim()];
    let mut call = || {
        let (q, out) = (&[q.as_slice()], &mut out);
        attend_segments_fused_into(
            q,
            &[rows],
            &[seg],
            0,
            &shape,
            0..kv_heads,
            &mut scratch,
            out,
        );
        black_box(&out);
    };
    let per_row = |secs: f64| secs * 1e9 / rows as f64;

    let calls = (2_000_000 / rows).max(1);
    let hot = (0..25)
        .map(|_| {
            let start = Instant::now();
            (0..calls).for_each(|_| call());
            start.elapsed().as_secs_f64() / calls as f64
        })
        .fold(f64::INFINITY, f64::min);

    let mut flush = vec![0u64; (4 << 20) / 8];
    let mut cold: Vec<f64> = (0..301)
        .map(|i| {
            flush.iter_mut().for_each(|w| *w = w.wrapping_add(i));
            black_box(&flush);
            let start = Instant::now();
            call();
            start.elapsed().as_secs_f64()
        })
        .collect();
    cold.sort_by(f64::total_cmp);
    (per_row(hot), per_row(cold[cold.len() / 2]))
}

#[test]
#[ignore = "a timing probe: run in release, pinned to one CPU"]
fn width1_sweep_probe() {
    for (name, kv_heads, head_dim, rows) in
        [("long_context", 4, 32, 1_172), ("chat_short", 8, 32, 100)]
    {
        let (hot, cold) = probe(kv_heads, head_dim, rows);
        println!(
            "width-1 sweep, {name} shape ({kv_heads} KV heads x {head_dim}, {rows} rows): \
             hot {hot:.1} ns/row, cold {cold:.1} ns/row"
        );
    }
}
