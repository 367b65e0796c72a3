//! Quantized-domain decode coefficients for the fused attention kernels.
//!
//! The exact read path decodes a [`FusedVector`] element by element:
//! build three [`UniformQuantizer`]s from the row's [`ScaleSet`], walk the
//! dense nibbles, branch on the reconstructed shifted value's sign
//! ([`crate::groupshift::unshift_middle`]), and patch outliers from the COO
//! stream. That is three constructor calls and a data-dependent branch per
//! element — fine for materializing a view once, too slow to run inside an
//! attention inner loop.
//!
//! [`RowDecode`] precomputes, **once per row**, everything the per-element
//! decode needs, in a form a dot-product kernel (scalar or SIMD) can
//! consume branchlessly:
//!
//! * the middle-group reconstruction collapses to one fused
//!   multiply-add, `v(c) = c · mid_step + base`, where `base` selects
//!   between `middle_min + T_i_hi` and `middle_min + T_i_lo`;
//! * the sign branch of `unshift_middle` becomes a **code-threshold
//!   compare** `c >= c0`: the exact path's reconstructed shifted value
//!   `middle_min + c / σ` is monotone in `c`, so there is a smallest code
//!   `c0` whose reconstruction is non-negative. `c0` is found by
//!   evaluating the *same f32 expression the exact path uses*, so the
//!   fused path always picks the same side as the exact path — only the
//!   rounding of the final multiply-add differs;
//! * outlier magnitudes collapse to `c · step` with the group's threshold
//!   offset applied per the COO side bit.
//!
//! The resulting numeric contract is *SQNR-bounded, not bit-exact*: fused
//! and exact reconstructions of the same code agree to within a few ULP
//! (`a + c/σ` versus `c · (1/σ) + a'` rounding), and the property tests in
//! `oaken-model` bound the end-to-end attention divergence.

use crate::encoding::{FusedVector, ScaleSet};
use crate::groups::GroupKind;
use crate::quant::UniformQuantizer;
use crate::thresholds::Thresholds;

/// Everything a fused reader needs besides the per-row [`ScaleSet`]:
/// the offline-profiled thresholds of the `(layer, kind)` tensor and the
/// configured bit-widths. One value per stream, valid for every row the
/// stream will ever hold (thresholds are offline, bits are global), so it
/// can be fetched once even from a stream with zero rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedReadParams {
    /// Offline thresholds of the tensor the rows belong to.
    pub thresholds: Thresholds,
    /// Dense middle-group code width (4 in the paper).
    pub middle_bits: u8,
    /// Outlier magnitude code width (4 in the paper).
    pub outlier_bits: u8,
}

/// Per-row decode coefficients: the [`ScaleSet`] and [`FusedReadParams`]
/// folded into the minimal set of constants the quantized-domain kernels
/// read per element. Construction is O(2^middle_bits) (the `c0` scan);
/// every per-element decode after that is a compare plus one fused
/// multiply-add.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowDecode {
    /// Middle reconstruction step `1/σ_mid` (0 for a degenerate range).
    pub mid_step: f32,
    /// Smallest dense code whose exact reconstructed shifted value is
    /// `>= 0`; `max_code + 1` when no code reconstructs non-negative.
    /// `code >= c0` is *exactly* the exact path's `unshift_middle` sign
    /// branch (the reconstruction is monotone in the code).
    pub c0: u32,
    /// `middle_min + T_i_hi`: the base applied to codes `>= c0`.
    pub base_hi: f32,
    /// `middle_min + T_i_lo`: the base applied to codes `< c0`.
    pub base_lo: f32,
    /// Inner-outlier magnitude step `1/σ_inner` (0 when degenerate).
    pub inner_step: f32,
    /// Outer-outlier magnitude step `1/σ_outer` (0 when degenerate).
    pub outer_step: f32,
    /// `T_o_hi`, added to high-side outer magnitudes.
    pub outer_hi: f32,
    /// `T_o_lo`, with the low-side outer magnitude subtracted from it.
    pub outer_lo: f32,
    /// [`middle`](RowDecode::middle) evaluated for every 4-bit dense code:
    /// `middle_lut[c]` is bit-identical to `middle(c)`. SIMD dense lanes
    /// decode by table permute instead of compare + multiply-add.
    pub middle_lut: [f32; 16],
}

impl RowDecode {
    /// Folds one row's scales and the stream's parameters into decode
    /// coefficients.
    ///
    /// # Panics
    ///
    /// Panics on bit-widths outside `1..=8` (impossible for scales coming
    /// from a validated [`crate::OakenConfig`]).
    pub fn new(scales: &ScaleSet, params: &FusedReadParams) -> Self {
        let q_mid = UniformQuantizer::new(scales.middle_min, scales.middle_max, params.middle_bits)
            .expect("validated middle bit-width");
        let q_inner = UniformQuantizer::new(0.0, scales.inner_mag_max, params.outlier_bits)
            .expect("validated outlier bit-width");
        let q_outer = UniformQuantizer::new(0.0, scales.outer_mag_max, params.outlier_bits)
            .expect("validated outlier bit-width");
        let max_code = q_mid.max_code();
        // The sign branch as a code threshold: evaluate the *exact* path's
        // reconstruction (min + c/σ, the very same f32 expression) per
        // code. Monotonicity in c makes the first non-negative code a
        // threshold; a degenerate σ reconstructs `min` for every code.
        let mut c0 = max_code + 1;
        for c in 0..=max_code {
            if q_mid.dequantize(c) >= 0.0 {
                c0 = c;
                break;
            }
        }
        let t = params.thresholds;
        let inv = |q: &UniformQuantizer| {
            if q.sigma() == 0.0 {
                0.0
            } else {
                1.0 / q.sigma()
            }
        };
        let mut this = Self {
            mid_step: inv(&q_mid),
            c0,
            base_hi: scales.middle_min + t.inner_hi,
            base_lo: scales.middle_min + t.inner_lo,
            inner_step: inv(&q_inner),
            outer_step: inv(&q_outer),
            outer_hi: t.outer_hi,
            outer_lo: t.outer_lo,
            middle_lut: [0.0; 16],
        };
        for c in 0..16u32 {
            this.middle_lut[c as usize] = this.middle(c);
        }
        this
    }

    /// Coefficients for one encoded row.
    pub fn for_row(fv: &FusedVector, params: &FusedReadParams) -> Self {
        Self::new(fv.scales(), params)
    }

    /// Decodes a dense middle code: one compare + one fused multiply-add.
    #[inline]
    pub fn middle(&self, code: u32) -> f32 {
        let base = if code >= self.c0 {
            self.base_hi
        } else {
            self.base_lo
        };
        code as f32 * self.mid_step + base
    }

    /// Decodes an outlier from its COO group/side bits and the 4 magnitude
    /// bits fused into its dense slot.
    #[inline]
    pub fn outlier(&self, group: GroupKind, high_side: bool, code: u32) -> f32 {
        match group {
            GroupKind::Outer => {
                let mag = code as f32 * self.outer_step;
                if high_side {
                    self.outer_hi + mag
                } else {
                    self.outer_lo - mag
                }
            }
            GroupKind::Inner => {
                let mag = code as f32 * self.inner_step;
                if high_side {
                    mag
                } else {
                    -mag
                }
            }
            GroupKind::Middle => unreachable!("COO never stores middle"),
        }
    }
}

/// Append-maintained read-side companion of a fused-vector stream: the
/// per-row decode work the attention kernel would otherwise redo on
/// every call, hoisted to quantization time and laid out contiguously.
///
/// Per appended row this caches
///
/// * its [`RowDecode`] coefficients (`decodes[i]`),
/// * its packed dense nibbles, copied into one flat arena at a fixed
///   `dense_stride` (`dense[i·stride .. (i+1)·stride]`) so the dense walk
///   streams sequential memory instead of chasing one heap allocation per
///   token, and
/// * its COO outliers in expand-load form ([`outliers`](Self::outliers)):
///   one 16-bit mask per sixteen elements marking the outlier positions,
///   and the outliers' reconstructed values in element order — a reader
///   decodes sixteen dense nibbles through the row's
///   [`middle_lut`](RowDecode::middle_lut) and overwrites the masked
///   lanes with the next values, never re-parsing packed COO bytes.
///
/// Everything here is derived metadata — a pure function of the encoded
/// rows and the stream's [`FusedReadParams`] — and is **not** part of the
/// stored KV footprint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EncodedReadPlan {
    decodes: Vec<RowDecode>,
    dense: Vec<u8>,
    dense_stride: usize,
    outlier_masks: Vec<u16>,
    mask_stride: usize,
    outlier_values: Vec<f32>,
    outlier_offsets: Vec<u32>,
}

impl EncodedReadPlan {
    /// An empty plan; the row width is adopted from the first pushed row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rows cached so far.
    pub fn rows(&self) -> usize {
        self.decodes.len()
    }

    /// Derives and appends one row's read-side cache entries.
    pub fn push_row(&mut self, fv: &FusedVector, params: &FusedReadParams) {
        let dec = RowDecode::for_row(fv, params);
        let bytes = fv.dense_bytes();
        if self.decodes.is_empty() {
            self.dense_stride = bytes.len();
            self.mask_stride = fv.dim().div_ceil(16);
            self.outlier_offsets.clear();
            self.outlier_offsets.push(0);
        }
        assert!(
            bytes.len() == self.dense_stride && fv.dim().div_ceil(16) == self.mask_stride,
            "all rows of one stream share a width"
        );
        self.dense.extend_from_slice(bytes);
        let masks_at = self.outlier_masks.len();
        self.outlier_masks.resize(masks_at + self.mask_stride, 0);
        for e in fv.outliers() {
            let code = u32::from(fv.dense_code(e.index));
            self.outlier_masks[masks_at + e.index / 16] |= 1 << (e.index % 16);
            self.outlier_values
                .push(dec.outlier(e.group, e.high_side, code));
        }
        self.outlier_offsets.push(self.outlier_values.len() as u32);
        self.decodes.push(dec);
    }

    /// Drops all cached rows (the stream-reset companion).
    pub fn clear(&mut self) {
        self.decodes.clear();
        self.dense.clear();
        self.outlier_masks.clear();
        self.outlier_values.clear();
        self.outlier_offsets.clear();
    }

    /// The per-row decode coefficient table.
    pub fn decodes(&self) -> &[RowDecode] {
        &self.decodes
    }

    /// Row `i`'s packed dense nibbles (element `j` in nibble `j`, low
    /// nibble first — the [`FusedVector::dense_bytes`] layout).
    pub fn dense_row(&self, i: usize) -> &[u8] {
        &self.dense[i * self.dense_stride..(i + 1) * self.dense_stride]
    }

    /// Bytes per row in the dense arena.
    pub fn dense_stride(&self) -> usize {
        self.dense_stride
    }

    /// The flat dense-nibble arena.
    pub fn dense_arena(&self) -> &[u8] {
        &self.dense
    }

    /// Row `i`'s outliers as `(masks, values)`: bit `e % 16` of
    /// `masks[e / 16]` is set iff element `e` is an outlier, and `values`
    /// holds the outliers' reconstructions (`RowDecode::outlier` of their
    /// bits) in ascending element order — one per set bit.
    pub fn outliers(&self, i: usize) -> (&[u16], &[f32]) {
        let masks = &self.outlier_masks[i * self.mask_stride..(i + 1) * self.mask_stride];
        let lo = self.outlier_offsets[i] as usize;
        let hi = self.outlier_offsets[i + 1] as usize;
        (masks, &self.outlier_values[lo..hi])
    }
}

/// Decodes a whole encoded row through the fused coefficients, appending
/// `fv.dim()` values to `out`. Reference implementation for the kernel
/// property tests — the attention kernels inline this walk instead of
/// materializing it.
pub fn decode_row_fused_into(fv: &FusedVector, params: &FusedReadParams, out: &mut Vec<f32>) {
    let d = RowDecode::for_row(fv, params);
    let mut outliers = fv.outliers().peekable();
    out.reserve(fv.dim());
    for i in 0..fv.dim() {
        let code = u32::from(fv.dense_code(i));
        let v = match outliers.peek() {
            Some(e) if e.index == i => {
                let e = *e;
                outliers.next();
                d.outlier(e.group, e.high_side, code)
            }
            _ => d.middle(code),
        };
        out.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OakenConfig;
    use crate::pipeline::OakenQuantizer;
    use crate::profiler::OfflineProfiler;
    use crate::thresholds::KvKind;

    fn test_vector(n: usize, seed: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let u = ((i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(seed)
                    >> 33) as f32
                    / (1u64 << 31) as f32;
                let base = (u - 0.5) * 4.0;
                match i % 53 {
                    0 => base * 10.0,
                    1 => base * 0.01,
                    _ => base,
                }
            })
            .collect()
    }

    fn quantizer() -> OakenQuantizer {
        let config = OakenConfig::default();
        let mut p = OfflineProfiler::new(config.clone(), 2);
        for s in 0..32 {
            for layer in 0..2 {
                for kind in KvKind::ALL {
                    p.observe(layer, kind, &test_vector(1024, s * 7 + layer as u64));
                }
            }
        }
        OakenQuantizer::new(config, p.try_finish().unwrap())
    }

    #[test]
    fn code_threshold_matches_exact_sign_branch() {
        let q = quantizer();
        let params = q.fused_read_params(0, KvKind::Key).unwrap();
        for seed in 0..24 {
            let x = test_vector(256, seed * 13 + 1);
            let fv = q.quantize_vector(&x, 0, KvKind::Key).unwrap();
            let d = RowDecode::for_row(&fv, &params);
            let q_mid = UniformQuantizer::new(
                fv.scales().middle_min,
                fv.scales().middle_max,
                params.middle_bits,
            )
            .unwrap();
            for c in 0..=q_mid.max_code() {
                let exact_high = q_mid.dequantize(c) >= 0.0;
                assert_eq!(
                    c >= d.c0,
                    exact_high,
                    "code {c} picked a different side than the exact path"
                );
            }
        }
    }

    #[test]
    fn fused_decode_close_to_exact_decode() {
        let q = quantizer();
        for kind in KvKind::ALL {
            let params = q.fused_read_params(1, kind).unwrap();
            for seed in 0..16 {
                let x = test_vector(512, seed * 31 + 7);
                let fv = q.quantize_vector(&x, 1, kind).unwrap();
                let exact = q.dequantize_vector(&fv, 1, kind).unwrap();
                let mut fused = Vec::new();
                decode_row_fused_into(&fv, &params, &mut fused);
                assert_eq!(fused.len(), exact.len());
                let range = exact.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-6);
                for (i, (a, b)) in exact.iter().zip(&fused).enumerate() {
                    assert!(
                        (a - b).abs() <= range * 1e-5,
                        "element {i}: exact {a} fused {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_scales_decode_consistently() {
        // A constant row collapses every group range to a point; the fused
        // decode must still agree with the exact one.
        let q = quantizer();
        let params = q.fused_read_params(0, KvKind::Value).unwrap();
        for value in [0.0f32, 1.25, -1.25] {
            let x = vec![value; 128];
            let fv = q.quantize_vector(&x, 0, KvKind::Value).unwrap();
            let exact = q.dequantize_vector(&fv, 0, KvKind::Value).unwrap();
            let mut fused = Vec::new();
            decode_row_fused_into(&fv, &params, &mut fused);
            for (a, b) in exact.iter().zip(&fused) {
                assert!((a - b).abs() <= 1e-5, "exact {a} fused {b}");
            }
        }
    }

    #[test]
    fn sliced_rows_fused_decode_matches_full_slice() {
        // The fused read path a tensor-parallel rank runs over its
        // channel-sliced vectors must agree bitwise with the same channels
        // of the full row's fused decode: `RowDecode` coefficients depend
        // only on the (shared) scales, and each element decodes from its
        // own code and outlier entry.
        let q = quantizer();
        let params = q.fused_read_params(0, KvKind::Key).unwrap();
        for seed in 0..12 {
            let x = test_vector(384, seed * 11 + 5);
            let fv = q.quantize_vector(&x, 0, KvKind::Key).unwrap();
            let mut full = Vec::new();
            decode_row_fused_into(&fv, &params, &mut full);
            for range in [0..80, 80..208, 208..384] {
                let s = fv.slice_channels(range.clone()).unwrap();
                let mut got = Vec::new();
                decode_row_fused_into(&s, &params, &mut got);
                for (j, (a, b)) in got.iter().zip(&full[range.clone()]).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "channel {j} of slice {range:?} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn params_are_row_independent() {
        let q = quantizer();
        let a = q.fused_read_params(0, KvKind::Key).unwrap();
        let b = q.fused_read_params(0, KvKind::Key).unwrap();
        assert_eq!(a, b);
        assert!(q.fused_read_params(9, KvKind::Key).is_err());
    }
}
