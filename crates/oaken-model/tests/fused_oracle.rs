//! Pins the fused tile kernel's **bits** to an independent straight-line
//! oracle. Every other guard on `KernelMode::Fused` compares the kernel
//! with itself (run ≡ lone query, chunked ≡ token-by-token) or bounds it by
//! SQNR against the exact kernels; this one says what the bits *are*, the
//! way `reference_forward.rs` does for the exact forward pass.
//!
//! The oracle has no tiles, no row blocks and no lanes: per row
//! `decode_row_fused_into`, per (query, head) the documented score chain
//! `(((q₀k₀ + q₁k₁) + …))·(1/√d)`, `softmax_in_place` over
//! `window_start(limit) .. limit`, then `o[d] += p·v[d]` over the rows in
//! ascending order.

use oaken_core::kernel::decode_row_fused_into;
use oaken_core::{KvKind, KvQuantizer, KvRowStream, OakenConfig, OakenQuantizer, OfflineProfiler};
use oaken_model::{attend_run_fused_into, AttentionScratch, AttentionShape, EncodedKv};
use oaken_tensor::softmax_in_place;
use proptest::prelude::*;
use proptest::TestCaseError;
use std::ops::Range;

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
            p.observe(0, kind, &kv_row(d.max(128), s * 5));
        }
    }
    OakenQuantizer::new(config, p.try_finish().unwrap())
}

/// Quantizes `rows` through the stream the pool uses and returns it with
/// each encoded row decoded on its own by `decode_row_fused_into`.
fn encode(
    quant: &OakenQuantizer,
    kind: KvKind,
    rows: impl Iterator<Item = Vec<f32>>,
    d: usize,
) -> (Box<dyn KvRowStream>, Vec<Vec<f32>>) {
    let mut stream = quant.row_stream(d, 0, kind).expect("oaken streams");
    let mut view = Vec::new();
    for row in rows {
        stream.append_row(&row, &mut view);
    }
    let params = quant.fused_read_params(0, kind).expect("layer 0 profiled");
    let decoded = stream
        .encoded_rows()
        .expect("oaken keeps its encoded rows")
        .iter()
        .map(|fv| {
            let mut out = Vec::new();
            decode_row_fused_into(fv, &params, &mut out);
            out
        })
        .collect();
    (stream, decoded)
}

/// The oracle: `[qs × kv_heads × group × head_dim]` and how many softmax
/// weights came out exactly zero.
fn oracle(
    qs: &[Vec<f32>],
    limits: &[usize],
    keys: &[Vec<f32>],
    values: &[Vec<f32>],
    shape: &AttentionShape,
    kv_heads: Range<usize>,
) -> (Vec<f32>, usize) {
    let hd = shape.head_dim;
    let (mut out, mut zeros) = (Vec::new(), 0);
    for (q, &limit) in qs.iter().zip(limits) {
        let start = shape.window.map_or(0, |w| limit.saturating_sub(w));
        for h in kv_heads.start * shape.group_size()..kv_heads.end * shape.group_size() {
            let col = h / shape.group_size() * hd;
            let q_h = &q[h * hd..(h + 1) * hd];
            let mut p: Vec<f32> = (start..limit)
                .map(|t| {
                    let mut s = 0.0f32;
                    for (a, b) in q_h.iter().zip(&keys[t][col..col + hd]) {
                        s += a * b;
                    }
                    s * (1.0 / (hd as f32).sqrt())
                })
                .collect();
            softmax_in_place(&mut p);
            zeros += p.iter().filter(|&&p| p == 0.0).count();
            let mut o = vec![0.0f32; hd];
            for (p, t) in p.iter().zip(start..limit) {
                for (o, v) in o.iter_mut().zip(&values[t][col..col + hd]) {
                    *o += p * v;
                }
            }
            out.extend(o);
        }
    }
    (out, zeros)
}

struct Case {
    shape: AttentionShape,
    kv_heads: Range<usize>,
    /// Rows the first query of the run attends.
    first_limit: usize,
    run: usize,
    outlier_every: usize,
    /// Every third query is scaled until its softmax underflows.
    sharp: bool,
    seed: u64,
}

/// Runs the kernel and the oracle on one case; returns the oracle's count
/// of exactly-zero softmax weights.
fn check(case: &Case) -> Result<usize, TestCaseError> {
    let Case {
        shape,
        kv_heads,
        first_limit,
        run,
        outlier_every,
        sharp,
        seed,
    } = case;
    let d = shape.kv_dim();
    let seq_len = first_limit + run - 1;
    let quant = profiled_oaken(d);
    let row = |seed: u64| {
        let mut x = kv_row(d, seed);
        for v in x.iter_mut().step_by(*outlier_every) {
            *v *= 9.0;
        }
        x
    };
    let k_rows = (0..seq_len as u64).map(|t| row(seed * 31 + 2 * t));
    let v_rows = (0..seq_len as u64).map(|t| row(seed * 37 + 2 * t + 1));
    let (k_stream, keys) = encode(&quant, KvKind::Key, k_rows, d);
    let (v_stream, values) = encode(&quant, KvKind::Value, v_rows, d);
    let queries: Vec<Vec<f32>> = (0..*run as u64)
        .map(|i| {
            let mut q = kv_row(shape.q_dim(), seed ^ (0xABCD + i));
            if *sharp && i % 3 == 0 {
                q.iter_mut().for_each(|x| *x *= 64.0);
            }
            q
        })
        .collect();
    let qs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
    let limits: Vec<usize> = (0..*run).map(|i| first_limit + i).collect();

    let (want, zeros) = oracle(&queries, &limits, &keys, &values, shape, kv_heads.clone());
    let ek = EncodedKv {
        plan: k_stream.read_plan().expect("oaken keeps a read plan"),
    };
    let ev = EncodedKv {
        plan: v_stream.read_plan().expect("oaken keeps a read plan"),
    };
    // Dirty output and a scratch reused across shapes: neither may show.
    let mut got = vec![f32::NAN; want.len()];
    SCRATCH.with_borrow_mut(|scratch| {
        attend_run_fused_into(
            &qs,
            &limits,
            &ek,
            &ev,
            shape,
            kv_heads.clone(),
            scratch,
            &mut got,
        );
    });
    let row_w = want.len() / run;
    for (i, (got, want)) in got.chunks(row_w).zip(want.chunks(row_w)).enumerate() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        prop_assert_eq!(
            bits(got),
            bits(want),
            "query {} of {} (limit {}) at {:?}, heads {:?}",
            i,
            run,
            limits[i],
            shape,
            kv_heads
        );
    }
    Ok(zeros)
}

thread_local! {
    static SCRATCH: std::cell::RefCell<AttentionScratch> = std::cell::RefCell::default();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fused_kernel_matches_the_straight_line_oracle_bitwise(
        head_dim in prop::sample::select(vec![3usize, 4, 5, 16, 32, 35, 48]),
        group in prop::sample::select(vec![1usize, 2, 4]),
        num_kv_heads in 1usize..4,
        head_range in (0usize..3, 0usize..3),
        // None, shorter than a row block, shorter than the run.
        window_sel in 0usize..3,
        short_window in 1usize..64,
        run in prop::sample::select(vec![1usize, 2, 3, 4, 5, 31, 32, 33, 64, 65]),
        // The run crosses a 64-row block boundary right at its start, or
        // starts anywhere.
        boundary in prop::sample::select(vec![63usize, 64, 65, 0]),
        blocks in 0usize..3,
        anywhere in 1usize..130,
        outlier_every in 2usize..40,
        sharp in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let window = match window_sel {
            0 => None,
            1 => Some(short_window),
            _ => Some((run / 2).max(1)),
        };
        let (a, b) = (head_range.0 % num_kv_heads, head_range.1 % num_kv_heads);
        let case = Case {
            shape: AttentionShape {
                num_heads: num_kv_heads * group,
                num_kv_heads,
                head_dim,
                window,
            },
            kv_heads: a.min(b)..a.max(b) + 1,
            first_limit: if boundary == 0 { anywhere } else { boundary + 64 * blocks },
            run,
            outlier_every,
            sharp: sharp == 1,
            seed,
        };
        check(&case)?;
    }
}

/// A query whose softmax underflows some weights to exactly `0.0`: those
/// rows still take part in every output chain (`o + 0·v`), on the kernel
/// as in the oracle.
#[test]
fn underflowed_weights_are_exact_zeros_and_bits_still_match() {
    for (head_dim, run, first_limit) in [(35, 5, 64), (16, 33, 100), (4, 1, 129)] {
        let case = Case {
            shape: AttentionShape {
                num_heads: 4,
                num_kv_heads: 2,
                head_dim,
                window: None,
            },
            kv_heads: 0..2,
            first_limit,
            run,
            outlier_every: 5,
            sharp: true,
            seed: 7,
        };
        let zeros = check(&case).expect("kernel equals oracle");
        assert!(
            zeros > 0,
            "the sharp queries must underflow some weights (head_dim {head_dim})"
        );
    }
}
