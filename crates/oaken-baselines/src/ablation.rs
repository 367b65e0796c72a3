//! Group-count ablation (paper Table 3): generalized N-group band
//! quantization used to evaluate 2-, 3-, 4-, and 5-group variants of
//! Oaken's scheme at a fixed 10% total outlier ratio.
//!
//! Bands are magnitude shells: the outermost band(s) hold the largest
//! tail values, the innermost band(s) the near-zero values, and the middle
//! band the inliers. Each band is min/max-uniform quantized (which is
//! equivalent to group-shift: a band's minimum *is* its shift threshold).
//!
//! Effective bitwidth follows the paper's alignment arithmetic:
//!
//! * ≤3 bands with 5-bit outliers → 8-bit COO entries (6 index + ≤1 group
//!   + 1 sign, padded to a byte for 2 bands);
//! * 4–5 bands with 5-bit outliers → two group bits push the entry to
//!   9 bits, which breaks byte alignment and pads to 16;
//! * 4–5 bands with 4-bit outliers → the magnitude loses a bit to keep
//!   8-bit entries ("slightly reduces accuracy", Table 3's last rows).

use oaken_core::{KvKind, KvQuantizer, OnlineCost, UniformQuantizer};

/// Which shell a band occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BandKind {
    /// Large-magnitude tail.
    Outer,
    /// Inliers (stored dense).
    Middle,
    /// Near-zero shell.
    Inner,
}

/// One magnitude band with its target occupancy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandSpec {
    /// Shell kind.
    pub kind: BandKind,
    /// Fraction of values in this band.
    pub ratio: f64,
}

/// A Table 3 configuration: ordered outermost→innermost bands.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationQuantizer {
    /// Row label, e.g. `"4/90/6"`.
    pub label: String,
    /// Bands ordered outermost (largest magnitudes) to innermost.
    pub bands: Vec<BandSpec>,
    /// Outlier precision: 5 (sign + 4 magnitude) or 4.
    pub outlier_bits: u8,
}

impl AblationQuantizer {
    /// Builds a configuration from `(kind, ratio)` pairs ordered
    /// outermost→innermost.
    ///
    /// # Panics
    ///
    /// Panics if ratios do not sum to ~1 or no middle band is present.
    pub fn new(label: &str, bands: Vec<BandSpec>, outlier_bits: u8) -> Self {
        let sum: f64 = bands.iter().map(|b| b.ratio).sum();
        assert!((sum - 1.0).abs() < 1e-6, "band ratios must sum to 1: {sum}");
        assert!(
            bands.iter().any(|b| b.kind == BandKind::Middle),
            "a middle band is required"
        );
        Self {
            label: label.to_owned(),
            bands,
            outlier_bits,
        }
    }

    /// The nine Table 3 rows (10% total outliers throughout).
    pub fn paper_rows() -> Vec<AblationQuantizer> {
        use BandKind::{Inner, Middle, Outer};
        let b = |kind, ratio| BandSpec { kind, ratio };
        vec![
            // 3 groups (the shipping configuration).
            Self::new(
                "4/90/6",
                vec![b(Outer, 0.04), b(Middle, 0.90), b(Inner, 0.06)],
                5,
            ),
            // 2 groups.
            Self::new("90/10", vec![b(Middle, 0.90), b(Inner, 0.10)], 5),
            Self::new("10/90", vec![b(Outer, 0.10), b(Middle, 0.90)], 5),
            // 4–5 groups, 5-bit outliers.
            Self::new(
                "4/90/3/3",
                vec![
                    b(Outer, 0.04),
                    b(Middle, 0.90),
                    b(Inner, 0.03),
                    b(Inner, 0.03),
                ],
                5,
            ),
            Self::new(
                "2/2/90/6",
                vec![
                    b(Outer, 0.02),
                    b(Outer, 0.02),
                    b(Middle, 0.90),
                    b(Inner, 0.06),
                ],
                5,
            ),
            Self::new(
                "2/2/90/3/3",
                vec![
                    b(Outer, 0.02),
                    b(Outer, 0.02),
                    b(Middle, 0.90),
                    b(Inner, 0.03),
                    b(Inner, 0.03),
                ],
                5,
            ),
            // 4–5 groups, 4-bit outliers (keeps 8-bit alignment).
            Self::new(
                "4/90/3/3 (4b)",
                vec![
                    b(Outer, 0.04),
                    b(Middle, 0.90),
                    b(Inner, 0.03),
                    b(Inner, 0.03),
                ],
                4,
            ),
            Self::new(
                "2/2/90/6 (4b)",
                vec![
                    b(Outer, 0.02),
                    b(Outer, 0.02),
                    b(Middle, 0.90),
                    b(Inner, 0.06),
                ],
                4,
            ),
            Self::new(
                "2/2/90/3/3 (4b)",
                vec![
                    b(Outer, 0.02),
                    b(Outer, 0.02),
                    b(Middle, 0.90),
                    b(Inner, 0.03),
                    b(Inner, 0.03),
                ],
                5,
            ),
        ]
    }

    /// Number of bands.
    pub fn num_groups(&self) -> usize {
        self.bands.len()
    }

    /// Total outlier (non-middle) fraction.
    pub fn outlier_fraction(&self) -> f64 {
        self.bands
            .iter()
            .filter(|b| b.kind != BandKind::Middle)
            .map(|b| b.ratio)
            .sum()
    }

    /// COO entry bits after the paper's alignment arithmetic.
    pub fn sparse_entry_bits(&self) -> u32 {
        let outlier_bands = self.bands.len() - 1; // bands minus the middle
        if self.outlier_bits <= 4 || outlier_bands <= 2 {
            // 4-bit magnitudes keep everything byte-aligned, and ≤2 outlier
            // bands fit 6 idx + ≤1 group + 1 sign in one byte.
            8
        } else {
            16 // 9-bit entries break alignment → pad to two bytes
        }
    }

    /// Effective bitwidth: 4-bit dense + per-outlier entry bits.
    pub fn effective_bitwidth(&self) -> f64 {
        4.0 + self.outlier_fraction() * f64::from(self.sparse_entry_bits())
    }

    /// Quantize-dequantizes one vector with oracle per-vector band
    /// boundaries (sorted magnitudes), isolating the *group structure*
    /// effect that Table 3 measures.
    pub fn roundtrip_vector(&self, x: &[f32]) -> Vec<f32> {
        if x.is_empty() {
            return Vec::new();
        }
        let n = x.len();
        let mut mags: Vec<f32> = x.iter().map(|v| v.abs()).collect();
        mags.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap());
        // Band boundaries by magnitude rank, outermost first.
        let mut boundaries = Vec::with_capacity(self.bands.len());
        let mut taken = 0usize;
        for band in &self.bands {
            let count = ((band.ratio * n as f64).round() as usize).min(n - taken);
            let lo_rank = (taken + count).min(n) - 1;
            boundaries.push(mags[lo_rank.min(n - 1)]);
            taken += count;
        }
        // Last band always reaches down to magnitude 0.
        if let Some(last) = boundaries.last_mut() {
            *last = 0.0;
        }

        // Assign each element to the first band whose lower bound it meets.
        let mut assignment = vec![0usize; n];
        for (i, &v) in x.iter().enumerate() {
            let m = v.abs();
            let mut chosen = self.bands.len() - 1;
            for (bi, &lo) in boundaries.iter().enumerate() {
                if m >= lo {
                    chosen = bi;
                    break;
                }
            }
            assignment[i] = chosen;
        }

        // Per band: sign-magnitude uniform quantization over the band's
        // magnitude range (min/max scaling ≡ group shift).
        let mut out = vec![0.0f32; n];
        for bi in 0..self.bands.len() {
            let members: Vec<usize> = (0..n).filter(|&i| assignment[i] == bi).collect();
            if members.is_empty() {
                continue;
            }
            let bits = if self.bands[bi].kind == BandKind::Middle {
                4
            } else {
                self.outlier_bits.max(2) - 1 // one bit spent on the sign
            };
            let band_mags: Vec<f32> = members.iter().map(|&i| x[i].abs()).collect();
            let q =
                UniformQuantizer::from_values(&band_mags, bits.max(1)).expect("bit-width in range");
            for &i in &members {
                let rec = q.dequantize(q.quantize(x[i].abs()));
                out[i] = rec.copysign(x[i]);
            }
        }
        out
    }
}

impl KvQuantizer for AblationQuantizer {
    fn name(&self) -> &'static str {
        "ablation"
    }

    fn roundtrip_matrix(
        &self,
        data: &[f32],
        rows: usize,
        d: usize,
        _layer: usize,
        _kind: KvKind,
    ) -> Vec<f32> {
        assert_eq!(data.len(), rows * d, "matrix data/shape mismatch");
        let mut out = Vec::with_capacity(data.len());
        for r in 0..rows {
            out.extend(self.roundtrip_vector(&data[r * d..(r + 1) * d]));
        }
        out
    }

    fn effective_bits(&self, _rows: usize, _d: usize) -> f64 {
        self.effective_bitwidth()
    }

    fn online_cost(&self) -> OnlineCost {
        OnlineCost {
            quant_flops_per_elem: 5.0,
            dequant_flops_per_elem: 3.0,
            sort_nlogn: false,
            channel_reorder: false,
            gpu_divergence_penalty: 4.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let base = (((i * 2654435761) % 10000) as f32 / 5000.0 - 1.0) * 3.0;
                match i % 41 {
                    0 => base * 12.0,
                    1 => base * 0.01,
                    _ => base,
                }
            })
            .collect()
    }

    #[test]
    fn paper_rows_have_expected_bitwidths() {
        let rows = AblationQuantizer::paper_rows();
        assert_eq!(rows.len(), 9);
        let by_label = |l: &str| {
            rows.iter()
                .find(|r| r.label == l)
                .unwrap_or_else(|| panic!("row {l}"))
        };
        assert!((by_label("4/90/6").effective_bitwidth() - 4.8).abs() < 1e-9);
        assert!((by_label("90/10").effective_bitwidth() - 4.8).abs() < 1e-9);
        assert!((by_label("4/90/3/3").effective_bitwidth() - 5.6).abs() < 1e-9);
        assert!((by_label("2/2/90/3/3").effective_bitwidth() - 5.6).abs() < 1e-9);
        assert!((by_label("4/90/3/3 (4b)").effective_bitwidth() - 4.8).abs() < 1e-9);
    }

    #[test]
    fn three_groups_beat_two_without_outer_isolation() {
        // "90/10" (no outer band) lets tail values stretch the middle
        // scale — the paper's worst row.
        let rows = AblationQuantizer::paper_rows();
        let three = rows.iter().find(|r| r.label == "4/90/6").unwrap();
        let two = rows.iter().find(|r| r.label == "90/10").unwrap();
        let x = sample(4096);
        let mse = |q: &AblationQuantizer| {
            let y = q.roundtrip_vector(&x);
            x.iter()
                .zip(&y)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
        };
        assert!(
            mse(three) < mse(two),
            "3-group {} vs 2-group(90/10) {}",
            mse(three),
            mse(two)
        );
    }

    #[test]
    fn more_groups_do_not_hurt() {
        let rows = AblationQuantizer::paper_rows();
        let three = rows.iter().find(|r| r.label == "4/90/6").unwrap();
        let five = rows.iter().find(|r| r.label == "2/2/90/3/3").unwrap();
        let x = sample(4096);
        let mse = |q: &AblationQuantizer| {
            let y = q.roundtrip_vector(&x);
            x.iter()
                .zip(&y)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
        };
        assert!(mse(five) <= mse(three) * 1.05);
    }

    #[test]
    fn four_bit_outliers_slightly_worse() {
        let rows = AblationQuantizer::paper_rows();
        let five_bit = rows.iter().find(|r| r.label == "4/90/3/3").unwrap();
        let four_bit = rows.iter().find(|r| r.label == "4/90/3/3 (4b)").unwrap();
        let x = sample(4096);
        let mse = |q: &AblationQuantizer| {
            let y = q.roundtrip_vector(&x);
            x.iter()
                .zip(&y)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
        };
        assert!(mse(four_bit) >= mse(five_bit));
    }

    #[test]
    fn roundtrip_preserves_shape_and_signs() {
        let q = &AblationQuantizer::paper_rows()[0];
        let x = sample(512);
        let y = q.roundtrip_vector(&x);
        assert_eq!(y.len(), x.len());
        for (a, b) in x.iter().zip(&y) {
            if a.abs() > 0.5 {
                assert_eq!(a.signum(), b.signum(), "sign flip at magnitude {a}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_ratios() {
        AblationQuantizer::new(
            "bad",
            vec![BandSpec {
                kind: BandKind::Middle,
                ratio: 0.5,
            }],
            5,
        );
    }
}
