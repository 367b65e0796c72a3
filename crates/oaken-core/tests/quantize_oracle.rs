//! The lane-structured online quantizer is the straight-line quantizer,
//! bit for bit: `groupshift::shift` per element, the four min/max folds,
//! `UniformQuantizer::quantize` per element, then `PackedRows::from_parts`
//! — the algorithm as §4 states it, kept here as the oracle.
//!
//! `cargo test` checks the portable lane; `cargo test --features simd`
//! checks the AVX-512F lane on a host that has it.

use oaken_core::groupshift::shift;
use oaken_core::{
    BitWidths, CooEntry, EncodedRow, GroupKind, KvKind, LayerThresholds, ModelThresholds,
    OakenConfig, OakenQuantizer, OakenScratch, PackedRows, ScaleSet, Thresholds, UniformQuantizer,
};

/// SplitMix64: a seeded, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * ((self.next() >> 40) as f32 / (1u64 << 24) as f32)
    }
}

/// The straight-line quantizer the lanes must reproduce.
fn straight_line(x: &[f32], t: &Thresholds, config: &OakenConfig) -> PackedRows {
    let bits = config.bits;
    let shifted: Vec<_> = x.iter().map(|&v| shift(v, t)).collect();
    let mut middle_min = f32::INFINITY;
    let mut middle_max = f32::NEG_INFINITY;
    let mut inner_mag_max = 0.0f32;
    let mut outer_mag_max = 0.0f32;
    let mut middles = 0;
    for s in &shifted {
        match s.group {
            GroupKind::Middle => {
                middles += 1;
                middle_min = middle_min.min(s.shifted);
                middle_max = middle_max.max(s.shifted);
            }
            GroupKind::Inner => inner_mag_max = inner_mag_max.max(s.shifted),
            GroupKind::Outer => outer_mag_max = outer_mag_max.max(s.shifted),
        }
    }
    if middles == 0 {
        (middle_min, middle_max) = (0.0, 0.0);
    }
    let q_mid = UniformQuantizer::new(middle_min, middle_max, bits.middle).unwrap();
    let q_inner = UniformQuantizer::new(0.0, inner_mag_max, bits.outlier_mag).unwrap();
    let q_outer = UniformQuantizer::new(0.0, outer_mag_max, bits.outlier_mag).unwrap();
    let mut codes = Vec::new();
    let mut outliers = Vec::new();
    for (index, s) in shifted.iter().enumerate() {
        let q = match s.group {
            GroupKind::Middle => &q_mid,
            GroupKind::Inner => &q_inner,
            GroupKind::Outer => &q_outer,
        };
        codes.push(q.quantize(s.shifted) as u8);
        if s.group.is_outlier() {
            outliers.push(CooEntry {
                index,
                group: s.group,
                high_side: s.high_side,
            });
        }
    }
    let scales = ScaleSet {
        middle_min,
        middle_max,
        inner_mag_max,
        outer_mag_max,
    };
    PackedRows::from_parts(x.len(), &codes, &outliers, scales).unwrap()
}

/// A threshold set: usually straddling zero, sometimes with the inner band
/// off zero, sometimes with thresholds that coincide.
fn thresholds(rng: &mut Rng) -> Thresholds {
    let scale = [1e-3, 0.5, 4.0, 300.0][rng.below(4) as usize];
    let mut t = [
        rng.uniform(-4.0, -1.0),
        rng.uniform(-1.0, 0.0),
        rng.uniform(0.0, 1.0),
        rng.uniform(1.0, 4.0),
    ]
    .map(|v| v * scale);
    match rng.below(6) {
        0 => t[1..3].iter_mut().for_each(|v| *v += 1.5 * scale),
        1 => (t[1], t[2]) = (0.0, 0.0),
        2 => t[1] = t[0],
        3 => t[3] = t[2],
        _ => {}
    }
    t.sort_by(f32::total_cmp);
    Thresholds::new(t[0], t[1], t[2], t[3]).unwrap()
}

/// An element: mostly spread over all three groups, sometimes a special
/// value or a threshold or one of its neighbours.
fn element(rng: &mut Rng, t: &Thresholds) -> f32 {
    let ts = [t.outer_lo, t.inner_lo, t.inner_hi, t.outer_hi];
    let span = (t.outer_hi - t.outer_lo).max(1e-6);
    match rng.below(40) {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => f32::from_bits(rng.below(0x80_0000) as u32 | (rng.below(2) as u32) << 31),
        6 => f32::MAX,
        7 => f32::MIN,
        8..=11 => ts[rng.below(4) as usize],
        12 | 13 => {
            let v = ts[rng.below(4) as usize];
            if rng.below(2) == 0 {
                v.next_up()
            } else {
                v.next_down()
            }
        }
        _ => rng.uniform(t.outer_lo - span, t.outer_hi + span),
    }
}

/// A row of `width` elements in one of the shapes the oracle must cover.
fn row(rng: &mut Rng, t: &Thresholds, width: usize) -> Vec<f32> {
    let inner = |rng: &mut Rng| rng.uniform(t.inner_lo, t.inner_hi);
    let outer = |rng: &mut Rng| {
        let span = (t.outer_hi - t.outer_lo).max(1e-6);
        if rng.below(2) == 0 {
            t.outer_hi + rng.uniform(1e-3, 1.0) * span
        } else {
            t.outer_lo - rng.uniform(1e-3, 1.0) * span
        }
    };
    let constant = element(rng, t);
    (0..width)
        .map(|_| match rng.below(8) {
            // No middle element: inner and outer only.
            0 | 1 => {
                if rng.below(2) == 0 {
                    inner(rng)
                } else {
                    outer(rng)
                }
            }
            // All inner, or all outer: one group only.
            2 => inner(rng),
            3 => outer(rng),
            // One repeated value beside a few others: degenerate (σ = 0)
            // groups.
            4 => {
                if rng.below(8) == 0 {
                    element(rng, t)
                } else {
                    constant
                }
            }
            _ => element(rng, t),
        })
        .collect()
}

fn assert_bitwise_equal(got: EncodedRow<'_>, want: EncodedRow<'_>, case: &str) {
    assert_eq!(got.dim(), want.dim(), "{case}: dim");
    assert_eq!(got.dense_bytes(), want.dense_bytes(), "{case}: dense bytes");
    assert_eq!(
        got.sparse_bytes(),
        want.sparse_bytes(),
        "{case}: sparse bytes"
    );
    assert_eq!(
        got.block_counts(),
        want.block_counts(),
        "{case}: block counts"
    );
    let bits = |s: &ScaleSet| {
        [s.middle_min, s.middle_max, s.inner_mag_max, s.outer_mag_max].map(f32::to_bits)
    };
    assert_eq!(bits(got.scales()), bits(want.scales()), "{case}: scales");
}

#[test]
fn quantize_is_the_straight_line_quantizer_bitwise() {
    let mut rng = Rng(0x0A4E_2025);
    // One scratch across every width and configuration: a warm scratch of
    // another width must not leak into the next row.
    let mut scratch = OakenScratch::new();
    for set in 0..400 {
        let t = thresholds(&mut rng);
        let config = OakenConfig {
            bits: BitWidths {
                middle: 2 + rng.below(3) as u8,
                outlier_mag: 3 + rng.below(2) as u8,
            },
            ..OakenConfig::default()
        };
        let layers = vec![LayerThresholds { key: t, value: t }];
        let q = OakenQuantizer::new(config.clone(), ModelThresholds::from_layers(layers));
        for r in 0..60 {
            // Every row shape — a shape's rows are drawn per element, so
            // a narrow row is often a single group.
            let width = 1 + rng.below(300) as usize;
            let x = row(&mut rng, &t, width);
            let want = straight_line(&x, &t, &config);
            let case = format!("set {set} row {r} width {width} {t:?}");
            let mut warm = PackedRows::new(width);
            scratch.quantize_into(&x, &q.fused_read_params(0, KvKind::Key).unwrap(), &mut warm);
            assert_bitwise_equal(warm.row(0), want.row(0), &case);
            let cold = q.quantize_vector(&x, 0, KvKind::Value).unwrap();
            assert_bitwise_equal(cold.row(0), want.row(0), &case);
        }
    }
}

/// The shapes the random rows reach only by chance, pinned: every width
/// from 1 to 48 around the 16-element chunk edges, each all-NaN,
/// all-inner, all-outer, no-middle, single-valued, and made of exact
/// rounding ties — where rounding half to even and half away from zero
/// part.
#[test]
fn degenerate_rows_match_the_straight_line_quantizer() {
    let t = Thresholds::new(-40.0, -0.5, 0.5, 40.0).unwrap();
    let config = OakenConfig::default();
    let layers = vec![LayerThresholds { key: t, value: t }];
    let q = OakenQuantizer::new(config.clone(), ModelThresholds::from_layers(layers));
    type Shape = (&'static str, fn(usize) -> f32);
    let shapes: [Shape; 7] = [
        ("nan", |_| f32::NAN),
        ("inner", |i| (i as f32 * 0.37).sin() * 0.5),
        ("outer", |i| {
            if i % 2 == 0 {
                40.0 + i as f32
            } else {
                -40.5 - i as f32
            }
        }),
        ("no middle", |i| if i % 3 == 0 { 90.0 } else { 0.25 }),
        ("constant", |_| 2.0),
        ("zeros", |i| if i % 2 == 0 { 0.0 } else { -0.0 }),
        // Middle: shifted 1 and 16 span σ = 1, so `2 + k` (shifted
        // `1.5 + k`) lands on `k + ½`. Inner: a top of 15/32 makes σ = 32,
        // so `(m + ½)/32` lands on `m + ½`.
        ("ties", |i| match i % 4 {
            0 => 1.5,
            1 => 16.5,
            2 => 2.0 + (i % 14) as f32,
            _ if i % 8 == 3 => 15.0 / 32.0,
            _ => -((i % 15) as f32 + 0.5) / 32.0,
        }),
    ];
    let mut scratch = OakenScratch::new();
    for (name, f) in shapes {
        for width in 1..=48 {
            let x: Vec<f32> = (0..width).map(f).collect();
            let want = straight_line(&x, &t, &config);
            let mut got = PackedRows::new(width);
            scratch.quantize_into(&x, &q.fused_read_params(0, KvKind::Key).unwrap(), &mut got);
            assert_bitwise_equal(got.row(0), want.row(0), &format!("{name} width {width}"));
        }
    }
}
