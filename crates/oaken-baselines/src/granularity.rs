//! Threshold-granularity extension: per-head thresholds.
//!
//! The paper profiles thresholds **per model and per decoder layer**
//! (Observation 1). Since outlier channels are head-aligned in practice
//! (each KV head owns a contiguous channel slice), a natural refinement is
//! one threshold set per *(layer, head)*. This module implements that
//! extension so the ablation bench can quantify what the extra table
//! storage buys:
//!
//! * per-layer: 4 thresholds × 2 (K/V) × layers — the paper's choice;
//! * per-head: ×`num_kv_heads` more table entries, slightly tighter
//!   grouping where heads differ in scale.
//!
//! The online datapath is unchanged: the decomposer just indexes its
//! threshold registers by head as well as layer.

use oaken_core::{
    KvKind, KvQuantizer, ModelThresholds, OakenConfig, OakenError, OakenQuantizer, OfflineProfiler,
    OnlineCost,
};

/// Per-(layer, head) thresholds: an [`OakenQuantizer`] per head slice.
#[derive(Debug, Clone)]
pub struct PerHeadQuantizer {
    config: OakenConfig,
    /// `heads[h]` holds the thresholds for head `h` across all layers.
    heads: Vec<ModelThresholds>,
    head_dim: usize,
}

/// Profiles per-head thresholds from per-(layer, head) observations.
#[derive(Debug)]
pub struct PerHeadProfiler {
    config: OakenConfig,
    profilers: Vec<OfflineProfiler>,
    head_dim: usize,
}

impl PerHeadProfiler {
    /// Creates a profiler for `num_layers` layers × `num_heads` KV heads of
    /// `head_dim` channels each.
    ///
    /// # Panics
    ///
    /// Panics if `num_heads` or `head_dim` is zero.
    pub fn new(config: OakenConfig, num_layers: usize, num_heads: usize, head_dim: usize) -> Self {
        assert!(num_heads > 0, "need at least one head");
        assert!(head_dim > 0, "head dimension must be positive");
        Self {
            profilers: (0..num_heads)
                .map(|_| OfflineProfiler::new(config.clone(), num_layers))
                .collect(),
            config,
            head_dim,
        }
    }

    /// Observes a full KV vector, splitting it into per-head slices.
    ///
    /// # Panics
    ///
    /// Panics if the vector length is not `num_heads × head_dim`.
    pub fn observe(&mut self, layer: usize, kind: KvKind, values: &[f32]) {
        assert_eq!(
            values.len(),
            self.profilers.len() * self.head_dim,
            "vector width must equal num_heads × head_dim"
        );
        for (h, chunk) in values.chunks(self.head_dim).enumerate() {
            self.profilers[h].observe(layer, kind, chunk);
        }
    }

    /// Finalises into a per-head quantizer.
    pub fn finish(self) -> PerHeadQuantizer {
        PerHeadQuantizer {
            heads: self
                .profilers
                .into_iter()
                .map(OfflineProfiler::finish)
                .collect(),
            config: self.config,
            head_dim: self.head_dim,
        }
    }
}

impl PerHeadQuantizer {
    /// Number of KV heads.
    pub fn num_heads(&self) -> usize {
        self.heads.len()
    }

    /// Per-head channel count.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Threshold-table entries this granularity stores (vs `layers × 2`
    /// sets for the per-layer baseline) — the hardware register cost of the
    /// refinement.
    pub fn table_entries(&self) -> usize {
        self.heads.len() * self.heads.first().map_or(0, ModelThresholds::num_layers) * 2
    }

    /// Quantize-dequantizes one full KV vector, each head slice through its
    /// own thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`OakenError::DimensionMismatch`] if the vector width is not
    /// `num_heads × head_dim`, or propagates per-head quantization errors.
    pub fn roundtrip_vector(
        &self,
        x: &[f32],
        layer: usize,
        kind: KvKind,
    ) -> Result<Vec<f32>, OakenError> {
        if x.len() != self.heads.len() * self.head_dim {
            return Err(OakenError::DimensionMismatch {
                expected: self.heads.len() * self.head_dim,
                actual: x.len(),
            });
        }
        let mut out = Vec::with_capacity(x.len());
        for (h, chunk) in x.chunks(self.head_dim).enumerate() {
            let q = OakenQuantizer::new(self.config.clone(), self.heads[h].clone());
            let fv = q.quantize_vector(chunk, layer, kind)?;
            out.extend(q.dequantize_vector(&fv, layer, kind)?);
        }
        Ok(out)
    }
}

impl KvQuantizer for PerHeadQuantizer {
    fn name(&self) -> &'static str {
        "oaken-per-head"
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
            out.extend(
                self.roundtrip_vector(&data[r * d..(r + 1) * d], layer, kind)
                    .expect("matrix width matches head layout"),
            );
        }
        out
    }

    fn effective_bits(&self, _rows: usize, d: usize) -> f64 {
        // Same payload as per-layer Oaken but the per-vector scale overhead
        // applies per head slice.
        let per_head = self.config.predicted_effective_bits(self.head_dim);
        let _ = d;
        per_head
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

    /// Heads with very different scales: head 0 small, head 1 large.
    fn two_scale_vector(head_dim: usize, seed: u64) -> Vec<f32> {
        let mut v = Vec::with_capacity(head_dim * 2);
        for i in 0..head_dim * 2 {
            let u = ((i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(seed)
                >> 33) as f32
                / (1u64 << 31) as f32
                - 0.5;
            let scale = if i < head_dim { 0.5 } else { 20.0 };
            v.push(u * scale);
        }
        v
    }

    fn profiled(head_dim: usize) -> PerHeadQuantizer {
        let mut p = PerHeadProfiler::new(OakenConfig::default(), 1, 2, head_dim);
        for s in 0..32 {
            p.observe(0, KvKind::Key, &two_scale_vector(head_dim, s));
            p.observe(0, KvKind::Value, &two_scale_vector(head_dim, s));
        }
        p.finish()
    }

    #[test]
    fn per_head_beats_per_layer_on_heterogeneous_heads() {
        let head_dim = 128;
        let per_head = profiled(head_dim);

        // Per-layer baseline profiled on the same data.
        let mut flat = OfflineProfiler::new(OakenConfig::default(), 1);
        for s in 0..32 {
            flat.observe(0, KvKind::Key, &two_scale_vector(head_dim, s));
            flat.observe(0, KvKind::Value, &two_scale_vector(head_dim, s));
        }
        let per_layer = OakenQuantizer::new(OakenConfig::default(), flat.finish());

        let x = two_scale_vector(head_dim, 777);
        let ph = per_head.roundtrip_vector(&x, 0, KvKind::Key).unwrap();
        let fv = per_layer.quantize_vector(&x, 0, KvKind::Key).unwrap();
        let pl = per_layer.dequantize_vector(&fv, 0, KvKind::Key).unwrap();
        let mse = |y: &[f32]| x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum::<f32>();
        assert!(
            mse(&ph) < mse(&pl),
            "per-head {} should beat per-layer {}",
            mse(&ph),
            mse(&pl)
        );
    }

    #[test]
    fn table_cost_scales_with_heads() {
        let q = profiled(16);
        assert_eq!(q.num_heads(), 2);
        assert_eq!(q.table_entries(), 2 * 2);
    }

    #[test]
    fn dimension_mismatch_is_error() {
        let q = profiled(16);
        assert!(matches!(
            q.roundtrip_vector(&[0.0; 31], 0, KvKind::Key),
            Err(OakenError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn trait_matrix_path_works() {
        let q = profiled(16);
        let x: Vec<f32> = two_scale_vector(16, 5);
        let out = q.roundtrip_matrix(&x, 1, 32, 0, KvKind::Value);
        assert_eq!(out.len(), 32);
        assert!(out.iter().all(|v| v.is_finite()));
    }
}
