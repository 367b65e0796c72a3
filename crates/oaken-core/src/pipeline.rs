//! The end-to-end [`OakenQuantizer`]: thresholds + group-shift + fused
//! encoding behind one API, mirroring the hardware quantization engine's
//! dataflow (§5.2, Figure 9).
//!
//! Quantization path (per token vector, single streaming pass + encode):
//!
//! 1. **decomposer** — classify each element against the offline thresholds
//!    and apply the group shift;
//! 2. **min/max finders + σ calculators** — per-group online statistics;
//! 3. **inlier/outlier quantizers** — 4-bit middle codes, 4+1-bit outlier
//!    codes;
//! 4. **zero-remove shifter / concatenator** — fuse outlier magnitudes into
//!    the dense matrix and emit 8-bit COO entries.

use crate::config::OakenConfig;
use crate::encoding::{CooEntry, FusedVector, ScaleSet};
use crate::error::OakenError;
use crate::groups::GroupKind;
use crate::groupshift::{shift, unshift_middle, unshift_sparse, ShiftedValue};
use crate::kernel::{EncodedReadPlan, FusedReadParams};
use crate::quant::UniformQuantizer;
use crate::thresholds::{KvKind, ModelThresholds, Thresholds};
use crate::traits::{KvQuantizer, KvRowStream, OnlineCost};

/// Reusable scratch buffers for the allocation-free quantize/dequantize
/// paths ([`OakenQuantizer::quantize_vector_with`],
/// [`OakenQuantizer::roundtrip_vector_into`]).
///
/// Holding one `OakenScratch` per decode stream removes every per-token
/// heap allocation from the online quantizer — the property §5.2's
/// hardware engine gets for free from its fixed SRAM buffers, and the one
/// the serving simulation must replicate to keep long-sequence decode
/// linear. Buffers grow to the vector width on first use and are reused
/// verbatim afterwards.
#[derive(Debug, Clone, Default)]
pub struct OakenScratch {
    /// Per-element classification + shifted values (pass 1 output).
    shifted: Vec<ShiftedValue>,
    /// 4-bit dense codes (pass 2 output), one byte per element.
    dense_codes: Vec<u8>,
    /// Absolute-indexed outlier entries in ascending index order.
    outliers: Vec<CooEntry>,
    /// Per-vector scales computed in pass 1.
    scales: ScaleSet,
}

impl OakenScratch {
    /// Creates an empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of outliers found by the last quantization pass.
    pub fn num_outliers(&self) -> usize {
        self.outliers.len()
    }
}

/// Oaken's online KV-cache quantizer, constructed from offline-profiled
/// thresholds.
///
/// # Example
///
/// ```
/// use oaken_core::{KvKind, OakenConfig, OakenQuantizer, OfflineProfiler};
///
/// let config = OakenConfig::default();
/// let mut profiler = OfflineProfiler::new(config.clone(), 1);
/// let sample: Vec<f32> = (0..512).map(|i| ((i % 61) as f32 - 30.0) / 5.0).collect();
/// profiler.observe(0, KvKind::Key, &sample);
/// profiler.observe(0, KvKind::Value, &sample);
/// let q = OakenQuantizer::new(config, profiler.finish());
///
/// let fused = q.quantize_vector(&sample, 0, KvKind::Key)?;
/// let restored = q.dequantize_vector(&fused, 0, KvKind::Key)?;
/// let mse: f32 = sample.iter().zip(&restored)
///     .map(|(a, b)| (a - b) * (a - b)).sum::<f32>() / sample.len() as f32;
/// assert!(mse < 0.05);
/// # Ok::<(), oaken_core::OakenError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OakenQuantizer {
    config: OakenConfig,
    thresholds: ModelThresholds,
}

impl OakenQuantizer {
    /// Creates a quantizer from a configuration and profiled thresholds.
    pub fn new(config: OakenConfig, thresholds: ModelThresholds) -> Self {
        Self { config, thresholds }
    }

    /// The active configuration.
    pub fn config(&self) -> &OakenConfig {
        &self.config
    }

    /// The profiled thresholds.
    pub fn thresholds(&self) -> &ModelThresholds {
        &self.thresholds
    }

    /// The row-independent parameters of the quantized-domain read path
    /// for one `(layer, kind)` tensor: offline thresholds plus configured
    /// bit-widths (everything a [`crate::kernel::RowDecode`] needs besides
    /// the per-row scales).
    ///
    /// # Errors
    ///
    /// Returns [`OakenError::LayerOutOfRange`] for an unprofiled layer.
    pub fn fused_read_params(
        &self,
        layer: usize,
        kind: KvKind,
    ) -> Result<FusedReadParams, OakenError> {
        Ok(FusedReadParams {
            thresholds: *self.thresholds.get(layer, kind)?,
            middle_bits: self.config.bits.middle,
            outlier_bits: self.config.bits.outlier_mag,
        })
    }

    /// Quantizes one per-token KV vector into the fused encoding.
    ///
    /// Convenience wrapper over [`OakenQuantizer::quantize_vector_with`]
    /// with throwaway scratch; hot paths (the streaming cache, benches)
    /// should hold an [`OakenScratch`] and use the `_with` variant.
    ///
    /// # Errors
    ///
    /// Returns [`OakenError::LayerOutOfRange`] for an unprofiled layer.
    pub fn quantize_vector(
        &self,
        x: &[f32],
        layer: usize,
        kind: KvKind,
    ) -> Result<FusedVector, OakenError> {
        self.quantize_vector_with(x, layer, kind, &mut OakenScratch::new())
    }

    /// Quantizes one per-token KV vector using caller-owned scratch
    /// buffers: the only heap allocations are the encoded
    /// [`FusedVector`]'s own storage (which *is* the cache payload), never
    /// intermediate state.
    ///
    /// # Errors
    ///
    /// Returns [`OakenError::LayerOutOfRange`] for an unprofiled layer.
    pub fn quantize_vector_with(
        &self,
        x: &[f32],
        layer: usize,
        kind: KvKind,
        scratch: &mut OakenScratch,
    ) -> Result<FusedVector, OakenError> {
        let t = *self.thresholds.get(layer, kind)?;
        self.quantize_into_scratch(x, &t, scratch)?;
        FusedVector::from_parts(
            x.len(),
            self.config.block_size,
            &scratch.dense_codes,
            &scratch.outliers,
            scratch.scales,
        )
    }

    /// The two-pass quantization engine (§5.2 Figure 9), writing into
    /// reusable scratch buffers.
    fn quantize_into_scratch(
        &self,
        x: &[f32],
        t: &Thresholds,
        scratch: &mut OakenScratch,
    ) -> Result<(), OakenError> {
        let bits = self.config.bits;

        // Pass 1: decompose + group-shift + per-group min/max.
        scratch.shifted.clear();
        scratch.shifted.reserve(x.len());
        let mut middle_min = f32::INFINITY;
        let mut middle_max = f32::NEG_INFINITY;
        let mut inner_mag_max = 0.0f32;
        let mut outer_mag_max = 0.0f32;
        let mut num_middle = 0usize;
        for &v in x {
            let s = shift(v, t);
            match s.group {
                GroupKind::Middle => {
                    num_middle += 1;
                    middle_min = middle_min.min(s.shifted);
                    middle_max = middle_max.max(s.shifted);
                }
                GroupKind::Inner => inner_mag_max = inner_mag_max.max(s.shifted),
                GroupKind::Outer => outer_mag_max = outer_mag_max.max(s.shifted),
            }
            scratch.shifted.push(s);
        }
        if num_middle == 0 {
            middle_min = 0.0;
            middle_max = 0.0;
        }
        scratch.scales = ScaleSet {
            middle_min,
            middle_max,
            inner_mag_max,
            outer_mag_max,
        };

        // σ calculators (Eq. 2).
        let q_mid = UniformQuantizer::new(middle_min, middle_max, bits.middle)?;
        let q_inner = UniformQuantizer::new(0.0, inner_mag_max, bits.outlier_mag)?;
        let q_outer = UniformQuantizer::new(0.0, outer_mag_max, bits.outlier_mag)?;

        // Pass 2: emit dense codes and COO entries.
        scratch.dense_codes.clear();
        scratch.dense_codes.reserve(x.len());
        scratch.outliers.clear();
        for (i, s) in scratch.shifted.iter().enumerate() {
            match s.group {
                GroupKind::Middle => scratch.dense_codes.push(q_mid.quantize(s.shifted) as u8),
                GroupKind::Inner => {
                    scratch.dense_codes.push(q_inner.quantize(s.shifted) as u8);
                    scratch.outliers.push(CooEntry {
                        index: i,
                        group: GroupKind::Inner,
                        high_side: s.high_side,
                    });
                }
                GroupKind::Outer => {
                    scratch.dense_codes.push(q_outer.quantize(s.shifted) as u8);
                    scratch.outliers.push(CooEntry {
                        index: i,
                        group: GroupKind::Outer,
                        high_side: s.high_side,
                    });
                }
            }
        }
        Ok(())
    }

    /// Dequantizes a fused vector back to f32.
    ///
    /// Convenience wrapper over
    /// [`OakenQuantizer::dequantize_vector_into`] allocating a fresh
    /// output vector.
    ///
    /// # Errors
    ///
    /// Returns [`OakenError::LayerOutOfRange`] for an unprofiled layer.
    pub fn dequantize_vector(
        &self,
        fv: &FusedVector,
        layer: usize,
        kind: KvKind,
    ) -> Result<Vec<f32>, OakenError> {
        let mut out = Vec::with_capacity(fv.dim());
        self.dequantize_vector_into(fv, layer, kind, &mut out)?;
        Ok(out)
    }

    /// Dequantizes a fused vector, *appending* `fv.dim()` values to `out`
    /// without any other allocation: the streaming engine's zero-insert is
    /// an in-order walk of the COO stream ([`FusedVector::outliers`])
    /// interleaved with the dense nibble scan, not a scatter into a
    /// position map.
    ///
    /// # Errors
    ///
    /// Returns [`OakenError::LayerOutOfRange`] for an unprofiled layer.
    pub fn dequantize_vector_into(
        &self,
        fv: &FusedVector,
        layer: usize,
        kind: KvKind,
        out: &mut Vec<f32>,
    ) -> Result<(), OakenError> {
        let t = *self.thresholds.get(layer, kind)?;
        let bits = self.config.bits;
        let s = *fv.scales();
        let q_mid = UniformQuantizer::new(s.middle_min, s.middle_max, bits.middle)?;
        let q_inner = UniformQuantizer::new(0.0, s.inner_mag_max, bits.outlier_mag)?;
        let q_outer = UniformQuantizer::new(0.0, s.outer_mag_max, bits.outlier_mag)?;
        decode_walk(
            &t,
            &q_mid,
            &q_inner,
            &q_outer,
            fv.dim(),
            |i| u32::from(fv.dense_code(i)),
            fv.outliers(),
            out,
        );
        Ok(())
    }

    /// Quantizes and immediately dequantizes one vector entirely through
    /// caller-owned buffers — zero heap allocations once `scratch` and
    /// `out` have warmed up. This is the per-token decode simulation path:
    /// what the dedicated quantization/dequantization engines of §5.2 do
    /// in hardware per generated token.
    ///
    /// Appends exactly `x.len()` values to `out`. Bit-identical to
    /// [`OakenQuantizer::quantize_vector`] followed by
    /// [`OakenQuantizer::dequantize_vector`].
    ///
    /// # Errors
    ///
    /// Returns [`OakenError::LayerOutOfRange`] for an unprofiled layer.
    pub fn roundtrip_vector_into(
        &self,
        x: &[f32],
        layer: usize,
        kind: KvKind,
        scratch: &mut OakenScratch,
        out: &mut Vec<f32>,
    ) -> Result<(), OakenError> {
        let t = *self.thresholds.get(layer, kind)?;
        self.quantize_into_scratch(x, &t, scratch)?;
        let bits = self.config.bits;
        let s = scratch.scales;
        let q_mid = UniformQuantizer::new(s.middle_min, s.middle_max, bits.middle)?;
        let q_inner = UniformQuantizer::new(0.0, s.inner_mag_max, bits.outlier_mag)?;
        let q_outer = UniformQuantizer::new(0.0, s.outer_mag_max, bits.outlier_mag)?;
        decode_walk(
            &t,
            &q_mid,
            &q_inner,
            &q_outer,
            x.len(),
            |i| u32::from(scratch.dense_codes[i]),
            scratch.outliers.iter().copied(),
            out,
        );
        Ok(())
    }

    /// Quantizes a `[rows × d]` matrix row-by-row and reports aggregate
    /// compression statistics.
    ///
    /// # Errors
    ///
    /// Propagates per-vector quantization errors.
    pub fn compression_report(
        &self,
        data: &[f32],
        rows: usize,
        d: usize,
        layer: usize,
        kind: KvKind,
    ) -> Result<CompressionReport, OakenError> {
        if data.len() != rows * d {
            return Err(OakenError::DimensionMismatch {
                expected: rows * d,
                actual: data.len(),
            });
        }
        let mut payload = 0usize;
        let mut tables = 0usize;
        let mut outliers = 0usize;
        for r in 0..rows {
            let fv = self.quantize_vector(&data[r * d..(r + 1) * d], layer, kind)?;
            payload += fv.payload_bytes();
            tables += fv.table_bytes();
            outliers += fv.num_outliers();
        }
        Ok(CompressionReport {
            elements: rows * d,
            payload_bytes: payload,
            table_bytes: tables,
            outliers,
        })
    }
}

/// The streaming zero-insert dequantization walk shared by the fused and
/// scratch decode paths: scan elements in order, consuming the (sorted)
/// outlier stream whenever its head matches the current index.
#[allow(clippy::too_many_arguments)]
fn decode_walk(
    t: &Thresholds,
    q_mid: &UniformQuantizer,
    q_inner: &UniformQuantizer,
    q_outer: &UniformQuantizer,
    dim: usize,
    code_at: impl Fn(usize) -> u32,
    outliers: impl Iterator<Item = CooEntry>,
    out: &mut Vec<f32>,
) {
    let mut outliers = outliers.peekable();
    out.reserve(dim);
    for i in 0..dim {
        let code = code_at(i);
        let v = match outliers.peek() {
            Some(e) if e.index == i => {
                let e = *e;
                outliers.next();
                match e.group {
                    GroupKind::Inner => {
                        unshift_sparse(GroupKind::Inner, e.high_side, q_inner.dequantize(code), t)
                    }
                    GroupKind::Outer => {
                        unshift_sparse(GroupKind::Outer, e.high_side, q_outer.dequantize(code), t)
                    }
                    GroupKind::Middle => unreachable!("COO never stores middle"),
                }
            }
            _ => unshift_middle(q_mid.dequantize(code), t),
        };
        out.push(v);
    }
}

/// Incremental append-only stream for Oaken: rows are independent (all
/// statistics are per-vector, thresholds are offline), so every append is
/// O(d) with no warm-up and the stream is bit-exact with the batch path by
/// construction. The stream owns the canonical *encoded* state — one
/// [`FusedVector`] per row, exactly what the MMU lays out in pages.
pub struct OakenRowStream {
    quantizer: OakenQuantizer,
    layer: usize,
    kind: KvKind,
    d: usize,
    scratch: OakenScratch,
    /// Per-row fused encodings: the stored cache payload.
    encoded: Vec<FusedVector>,
    /// Read-side cache of `encoded[i]` — decode coefficients, flat dense
    /// arena, and outlier masks and values — built once at append
    /// time so the fused kernels never redo per-row decode work per token
    /// (derived metadata, not counted in `payload`).
    plan: EncodedReadPlan,
    payload: usize,
}

impl OakenRowStream {
    /// Folds and caches the newest row's read-plan entries.
    fn push_decode(&mut self, fv: &FusedVector) {
        let params = self
            .quantizer
            .fused_read_params(self.layer, self.kind)
            .expect("layer must be profiled before streaming quantization");
        self.plan.push_row(fv, &params);
    }
}

impl OakenRowStream {
    /// The encoded rows held by the stream (the actual cache contents).
    pub fn encoded_rows(&self) -> &[FusedVector] {
        &self.encoded
    }
}

impl std::fmt::Debug for OakenRowStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OakenRowStream")
            .field("layer", &self.layer)
            .field("kind", &self.kind)
            .field("d", &self.d)
            .field("rows", &self.encoded.len())
            .finish()
    }
}

impl KvRowStream for OakenRowStream {
    fn append_row(&mut self, row: &[f32], view: &mut Vec<f32>) {
        assert_eq!(row.len(), self.d, "row width mismatch");
        // An unprofiled layer is a caller bug on the streaming path, as on
        // the trait-level batch path.
        let fv = self
            .quantizer
            .quantize_vector_with(row, self.layer, self.kind, &mut self.scratch)
            .expect("layer must be profiled before streaming quantization");
        self.quantizer
            .dequantize_vector_into(&fv, self.layer, self.kind, view)
            .expect("fused vector decodes with the same thresholds");
        self.payload += fv.payload_bytes();
        self.push_decode(&fv);
        self.encoded.push(fv);
    }

    fn rows(&self) -> usize {
        self.encoded.len()
    }

    fn payload_bytes(&self) -> Option<usize> {
        Some(self.payload)
    }

    fn reset(&mut self) {
        // All Oaken state beyond the appended rows (thresholds, config) is
        // offline-calibrated and shared, so a reset stream is bit-exact
        // with a freshly opened one. Scratch buffers are deliberately kept
        // warm for the next sequence.
        self.encoded.clear();
        self.plan.clear();
        self.payload = 0;
    }

    fn last_row_payload(&self) -> Option<(usize, usize)> {
        self.encoded.last().map(|fv| {
            let sparse = fv.sparse_bytes().len();
            // Scales travel with the dense transfer (fixed size per token).
            (fv.payload_bytes() - sparse, sparse)
        })
    }

    fn encoded_rows(&self) -> Option<&[FusedVector]> {
        Some(&self.encoded)
    }

    fn append_row_encoded(&mut self, row: &[f32]) -> bool {
        assert_eq!(row.len(), self.d, "row width mismatch");
        // Same quantization as `append_row`, minus the dequantize-into-view
        // step: the encoded vector *is* the cache contents, and the fused
        // attention kernels read it in place.
        let fv = self
            .quantizer
            .quantize_vector_with(row, self.layer, self.kind, &mut self.scratch)
            .expect("layer must be profiled before streaming quantization");
        self.payload += fv.payload_bytes();
        self.push_decode(&fv);
        self.encoded.push(fv);
        true
    }

    fn fused_read_params(&self) -> Option<FusedReadParams> {
        self.quantizer.fused_read_params(self.layer, self.kind).ok()
    }

    fn read_plan(&self) -> Option<&EncodedReadPlan> {
        Some(&self.plan)
    }

    fn adopt_encoded_rows(&mut self, rows: &[FusedVector]) -> bool {
        for fv in rows {
            self.payload += fv.payload_bytes();
            self.push_decode(fv);
            self.encoded.push(fv.clone());
        }
        true
    }

    fn decode_rows_into(&self, start: usize, end: usize, out: &mut Vec<f32>) -> bool {
        assert!(
            start <= end && end <= self.encoded.len(),
            "row range {start}..{end} out of bounds ({} rows)",
            self.encoded.len()
        );
        for fv in &self.encoded[start..end] {
            self.quantizer
                .dequantize_vector_into(fv, self.layer, self.kind, out)
                .expect("fused vector decodes with the same thresholds");
        }
        true
    }
}

impl KvQuantizer for OakenQuantizer {
    fn name(&self) -> &'static str {
        "oaken"
    }

    fn roundtrip_matrix(
        &self,
        data: &[f32],
        rows: usize,
        d: usize,
        layer: usize,
        kind: KvKind,
    ) -> Vec<f32> {
        assert_eq!(data.len(), rows * d, "matrix data/shape mismatch");
        let mut out = Vec::with_capacity(data.len());
        for r in 0..rows {
            let row = &data[r * d..(r + 1) * d];
            // An unprofiled layer is a caller bug for the trait-level API;
            // surface it loudly rather than silently passing data through.
            let fv = self
                .quantize_vector(row, layer, kind)
                .expect("layer must be profiled before quantization");
            let back = self
                .dequantize_vector(&fv, layer, kind)
                .expect("fused vector decodes with the same thresholds");
            out.extend_from_slice(&back);
        }
        out
    }

    fn effective_bits(&self, _rows: usize, d: usize) -> f64 {
        self.config.predicted_effective_bits(d)
    }

    fn online_cost(&self) -> OnlineCost {
        OnlineCost {
            // Classify (2 compares) + shift (1 sub) + scale (1 mul) +
            // round/clamp (1) per element; min/max folds amortized in.
            quant_flops_per_elem: 5.0,
            // Dequantize: 1 mul + 1 add + unshift add.
            dequant_flops_per_elem: 3.0,
            sort_nlogn: false,
            channel_reorder: false,
            // Executed on Oaken's dedicated engines this is 1.0; the GPU
            // implementation of §6.2 sees warp divergence from the
            // three-way group split, which `oaken-accel` models separately.
            gpu_divergence_penalty: 4.0,
        }
    }

    fn row_stream(&self, d: usize, layer: usize, kind: KvKind) -> Option<Box<dyn KvRowStream>> {
        Some(Box::new(OakenRowStream {
            quantizer: self.clone(),
            layer,
            kind,
            d,
            scratch: OakenScratch::new(),
            encoded: Vec::new(),
            plan: EncodedReadPlan::new(),
            payload: 0,
        }))
    }

    /// Every per-row decision (group classification, shift, scale) is made
    /// against the *offline*-profiled thresholds, so a row's encoding is a
    /// pure function of the row — the property that makes Oaken's pages
    /// prefix-shareable.
    fn prefix_deterministic(&self) -> bool {
        true
    }
}

/// Aggregate compression statistics for a quantized matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressionReport {
    /// Total elements quantized.
    pub elements: usize,
    /// KV payload bytes (dense + sparse + scales).
    pub payload_bytes: usize,
    /// MMU management-table bytes (per-block transfer sizes).
    pub table_bytes: usize,
    /// Total outliers stored sparsely.
    pub outliers: usize,
}

impl CompressionReport {
    /// Mean stored bits per element (payload only, like the paper's
    /// effective bitwidth).
    pub fn effective_bits(&self) -> f64 {
        self.payload_bytes as f64 * 8.0 / self.elements.max(1) as f64
    }

    /// Compression ratio versus FP16 storage.
    pub fn ratio_vs_fp16(&self) -> f64 {
        16.0 / self.effective_bits()
    }

    /// Observed outlier fraction.
    pub fn outlier_fraction(&self) -> f64 {
        self.outliers as f64 / self.elements.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GroupRatios;
    use crate::profiler::OfflineProfiler;

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
                    0 => base * 10.0, // outer outliers
                    1 => base * 0.01, // inner outliers
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
    fn roundtrip_error_is_small() {
        let q = quantizer();
        let x = test_vector(1024, 12345);
        let fv = q.quantize_vector(&x, 0, KvKind::Key).unwrap();
        let back = q.dequantize_vector(&fv, 0, KvKind::Key).unwrap();
        assert_eq!(back.len(), x.len());
        let rng = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let mse: f32 = x
            .iter()
            .zip(&back)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            / x.len() as f32;
        let rel = mse.sqrt() / rng;
        assert!(rel < 0.02, "relative RMS error too large: {rel}");
    }

    #[test]
    fn outliers_survive_quantization() {
        // The whole point of the hybrid scheme: a huge outlier must come
        // back with small *relative* error instead of being clipped.
        let q = quantizer();
        let mut x = test_vector(512, 99);
        x[7] = 40.0;
        x[100] = -35.0;
        let fv = q.quantize_vector(&x, 0, KvKind::Key).unwrap();
        let back = q.dequantize_vector(&fv, 0, KvKind::Key).unwrap();
        assert!((back[7] - 40.0).abs() / 40.0 < 0.05, "got {}", back[7]);
        assert!((back[100] + 35.0).abs() / 35.0 < 0.05, "got {}", back[100]);
    }

    #[test]
    fn near_zero_values_do_not_vanish() {
        let q = quantizer();
        let mut x = test_vector(512, 5);
        x[3] = 0.004;
        x[9] = -0.003;
        let fv = q.quantize_vector(&x, 0, KvKind::Value).unwrap();
        let back = q.dequantize_vector(&fv, 0, KvKind::Value).unwrap();
        // Inner-group isolation keeps the sign and order of magnitude.
        assert!(back[3] >= 0.0);
        assert!(back[9] <= 0.0);
        assert!(back[3].abs() < 0.05);
    }

    #[test]
    fn observed_effective_bits_near_predicted() {
        let q = quantizer();
        let rows = 16;
        let d = 1024;
        let data: Vec<f32> = (0..rows).flat_map(|r| test_vector(d, r as u64)).collect();
        let report = q
            .compression_report(&data, rows, d, 0, KvKind::Key)
            .unwrap();
        let predicted = q.effective_bits(rows, d);
        let observed = report.effective_bits();
        assert!(
            (observed - predicted).abs() < 0.5,
            "predicted {predicted}, observed {observed}"
        );
        assert!(report.ratio_vs_fp16() > 3.0);
    }

    #[test]
    fn trait_roundtrip_matches_vector_path() {
        let q = quantizer();
        let d = 256;
        let x = test_vector(d, 3);
        let via_trait = q.roundtrip_matrix(&x, 1, d, 0, KvKind::Key);
        let fv = q.quantize_vector(&x, 0, KvKind::Key).unwrap();
        let via_vec = q.dequantize_vector(&fv, 0, KvKind::Key).unwrap();
        assert_eq!(via_trait, via_vec);
    }

    #[test]
    fn layer_out_of_range_is_error() {
        let q = quantizer();
        assert!(matches!(
            q.quantize_vector(&[1.0, 2.0], 9, KvKind::Key),
            Err(OakenError::LayerOutOfRange { .. })
        ));
    }

    #[test]
    fn higher_outlier_ratio_lowers_error_but_raises_bits() {
        let mk = |outer: f64, inner: f64| {
            let ratios = GroupRatios::new(outer, 1.0 - outer - inner, inner).unwrap();
            let config = OakenConfig {
                ratios,
                ..OakenConfig::default()
            };
            let mut p = OfflineProfiler::new(config.clone(), 1);
            for s in 0..16 {
                p.observe(0, KvKind::Key, &test_vector(2048, s));
                p.observe(0, KvKind::Value, &test_vector(2048, s));
            }
            OakenQuantizer::new(config, p.try_finish().unwrap())
        };
        let small = mk(0.01, 0.01);
        let large = mk(0.10, 0.10);
        let x = test_vector(2048, 777);
        let err = |q: &OakenQuantizer| {
            let fv = q.quantize_vector(&x, 0, KvKind::Key).unwrap();
            let back = q.dequantize_vector(&fv, 0, KvKind::Key).unwrap();
            x.iter()
                .zip(&back)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
        };
        assert!(
            err(&large) <= err(&small) * 1.5,
            "more outliers should not hurt much"
        );
        assert!(large.effective_bits(1, 2048) > small.effective_bits(1, 2048));
    }

    #[test]
    fn scratch_paths_bit_exact_with_allocating_paths() {
        let q = quantizer();
        let mut scratch = OakenScratch::new();
        let mut out = Vec::new();
        for seed in 0..8 {
            let x = test_vector(512, seed * 31 + 1);
            for kind in KvKind::ALL {
                let fv_alloc = q.quantize_vector(&x, 1, kind).unwrap();
                let fv_scratch = q.quantize_vector_with(&x, 1, kind, &mut scratch).unwrap();
                assert_eq!(fv_alloc, fv_scratch);

                let back_alloc = q.dequantize_vector(&fv_alloc, 1, kind).unwrap();
                out.clear();
                q.roundtrip_vector_into(&x, 1, kind, &mut scratch, &mut out)
                    .unwrap();
                assert_eq!(
                    back_alloc.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn channel_slices_dequantize_bit_exact() {
        // Tensor-parallel ranks store `FusedVector::slice_channels` shards;
        // decoding a shard must reproduce the corresponding channels of the
        // full decode bit-for-bit (scales are whole-row, reconstruction is
        // per-element). Ranges deliberately cross the 64-element block
        // boundaries unaligned, as head slices do.
        let q = quantizer();
        for seed in 0..8 {
            let x = test_vector(512, seed * 17 + 3);
            for kind in KvKind::ALL {
                let fv = q.quantize_vector(&x, 0, kind).unwrap();
                let full = q.dequantize_vector(&fv, 0, kind).unwrap();
                for range in [0..96, 96..224, 224..512, 40..41, 0..512] {
                    let s = fv.slice_channels(range.clone()).unwrap();
                    assert_eq!(s.dim(), range.len());
                    assert_eq!(s.scales(), fv.scales());
                    let got = q.dequantize_vector(&s, 0, kind).unwrap();
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
    }

    #[test]
    fn row_stream_matches_batch_roundtrip() {
        let q = quantizer();
        let d = 256;
        let rows = 24;
        let data: Vec<f32> = (0..rows)
            .flat_map(|r| test_vector(d, r as u64 + 5))
            .collect();
        let mut stream = q.row_stream(d, 0, KvKind::Key).expect("oaken streams");
        let mut view = Vec::new();
        for r in 0..rows {
            stream.append_row(&data[r * d..(r + 1) * d], &mut view);
            assert_eq!(stream.rows(), r + 1);
            let batch = q.roundtrip_matrix(&data[..(r + 1) * d], r + 1, d, 0, KvKind::Key);
            assert_eq!(
                batch.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                view.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "divergence after {} rows",
                r + 1
            );
        }
        assert!(stream.payload_bytes().unwrap() > 0);
    }

    #[test]
    fn compression_report_checks_dims() {
        let q = quantizer();
        assert!(matches!(
            q.compression_report(&[0.0; 10], 2, 6, 0, KvKind::Key),
            Err(OakenError::DimensionMismatch { .. })
        ));
    }
}
