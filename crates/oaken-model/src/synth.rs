//! Synthetic weight generation, calibrated to reproduce the paper's §4.1
//! KV-distribution observations on the proxy models:
//!
//! * **Observation 1** — per-layer magnitude variation: every layer gets its
//!   own deterministic scale multiplier;
//! * **Observation 3** — channel-concentrated outliers: a few K/V projection
//!   output channels are amplified, so the corresponding KV channels are
//!   consistently large across tokens (the "vertical lines" of Figure 6c);
//! * **Observation 3 (exceptions)** — a sprinkle of heavy-tailed individual
//!   weights produces the discontinuous dots that break pure per-channel
//!   schemes;
//! * **Observation 2** — input-independence falls out naturally: the channel
//!   structure lives in the weights, not the data.
//!
//! Every edit is made to the row-major draw before a swept weight is packed
//! into a [`Tensor`]; the embeddings, which are looked up and never swept,
//! stay row-major as a [`RowTable`].

use oaken_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the synthetic weight distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthParams {
    /// Base Gaussian std-dev multiplier (scaled by 1/sqrt(fan_in)).
    pub base_scale: f32,
    /// Fraction of K/V projection output channels that are amplified.
    pub outlier_channel_fraction: f64,
    /// Amplification factor range for outlier channels.
    pub outlier_gain: (f32, f32),
    /// Per-entry probability of a heavy-tail "exception" weight.
    pub exception_prob: f64,
    /// Gain applied to exception weights.
    pub exception_gain: f32,
}

impl Default for SynthParams {
    fn default() -> Self {
        Self {
            base_scale: 1.0,
            outlier_channel_fraction: 0.04,
            outlier_gain: (4.0, 10.0),
            exception_prob: 0.01,
            exception_gain: 8.0,
        }
    }
}

/// Layer-dependent scale multiplier implementing Observation 1: KV ranges
/// differ across decoder layers in a model-specific but input-independent
/// way.
pub fn layer_scale(layer: usize, num_layers: usize) -> f32 {
    let x = layer as f32 / num_layers.max(1) as f32;
    // Early layers small, a mid-stack bump, slight growth toward the end —
    // the qualitative shape of Figure 6(a).
    0.6 + 0.8 * (x * 3.1).sin().abs() + 0.5 * x
}

/// Draws an approximately standard-normal value (sum of uniforms).
fn normal(rng: &mut StdRng) -> f32 {
    let s: f32 = (0..6).map(|_| rng.gen::<f32>()).sum();
    (s - 3.0) * (2.0f32).sqrt()
}

/// A row-major `[rows × cols]` table read one row at a time: the token and
/// position embeddings, which are looked up and never swept, so they stay
/// out of [`Tensor`]'s panel layout.
#[derive(Debug, Clone, PartialEq)]
pub struct RowTable {
    data: Vec<f32>,
    cols: usize,
}

impl RowTable {
    /// Borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..][..self.cols]
    }
}

/// Draws a dense `[rows × cols]` matrix, row-major, with 1/sqrt(cols)
/// scaling.
fn dense_rows(rng: &mut StdRng, rows: usize, cols: usize, scale: f32) -> Vec<f32> {
    let std = scale / (cols as f32).sqrt();
    (0..rows * cols).map(|_| normal(rng) * std).collect()
}

/// Packs a row-major draw into a weight.
fn pack(data: Vec<f32>, rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(data, &[rows, cols]).expect("shape matches data length")
}

/// Generates a dense `[rows × cols]` weight matrix with 1/sqrt(cols)
/// scaling.
pub fn dense(rng: &mut StdRng, rows: usize, cols: usize, scale: f32) -> Tensor {
    pack(dense_rows(rng, rows, cols, scale), rows, cols)
}

/// The same draw as [`dense`], kept row-major for lookups.
pub fn table(rng: &mut StdRng, rows: usize, cols: usize, scale: f32) -> RowTable {
    RowTable {
        data: dense_rows(rng, rows, cols, scale),
        cols,
    }
}

/// Generates a K/V projection matrix `[rows × cols]` whose output channels
/// include amplified outlier channels and heavy-tail exceptions.
pub fn kv_projection(
    rng: &mut StdRng,
    rows: usize,
    cols: usize,
    scale: f32,
    params: &SynthParams,
) -> Tensor {
    let mut data = dense_rows(rng, rows, cols, scale * params.base_scale);
    let n_outlier = ((rows as f64 * params.outlier_channel_fraction).round() as usize).min(rows);
    // Deterministically spread outlier channels across the output dim.
    let stride = if n_outlier > 0 {
        rows / n_outlier.max(1)
    } else {
        rows
    };
    for i in 0..n_outlier {
        let ch = (i * stride.max(1) + i * 7) % rows;
        let gain = params.outlier_gain.0
            + rng.gen::<f32>() * (params.outlier_gain.1 - params.outlier_gain.0);
        for c in 0..cols {
            data[ch * cols + c] *= gain;
        }
    }
    for v in data.iter_mut() {
        if rng.gen::<f64>() < params.exception_prob {
            *v *= params.exception_gain;
        }
    }
    pack(data, rows, cols)
}

/// Generates an embedding table with mild token-frequency structure (lower
/// token ids get slightly larger norms, like frequent tokens in trained
/// embeddings).
pub fn embedding(rng: &mut StdRng, vocab: usize, d: usize) -> RowTable {
    let mut t = table(rng, vocab, d, 1.0);
    let data = &mut t.data;
    for tok in 0..vocab {
        let boost = 1.0 + 0.5 / (1.0 + tok as f32 / 16.0);
        for c in 0..d {
            data[tok * d + c] *= boost;
        }
    }
    t
}

/// Creates a deterministic RNG for a (seed, stream) pair so each weight
/// tensor draws from an independent stream.
pub fn stream_rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A weight's rows, read back through the sweep: its product with the
    /// unit vectors is its columns.
    fn rows_of(w: &Tensor) -> Vec<Vec<f32>> {
        let [m, k] = *w.shape();
        let units: Vec<Vec<f32>> = (0..k)
            .map(|j| (0..k).map(|i| if i == j { 1.0 } else { 0.0 }).collect())
            .collect();
        let refs: Vec<&[f32]> = units.iter().map(Vec::as_slice).collect();
        let columns = w.matvec_batch(&refs).unwrap();
        (0..m)
            .map(|r| columns.iter().map(|c| c[r]).collect())
            .collect()
    }

    #[test]
    fn dense_has_expected_scale() {
        let mut rng = stream_rng(1, 0);
        let w = dense(&mut rng, 64, 256, 1.0);
        let var: f32 = rows_of(&w).iter().flatten().map(|v| v * v).sum::<f32>() / w.len() as f32;
        // Target variance 1/cols.
        assert!(
            (var * 256.0 - 1.0).abs() < 0.3,
            "normalized var {}",
            var * 256.0
        );
    }

    #[test]
    fn kv_projection_has_outlier_channels() {
        let mut rng = stream_rng(2, 0);
        let params = SynthParams::default();
        let w = kv_projection(&mut rng, 128, 128, 1.0, &params);
        // Per-output-channel norms.
        let mut norms: Vec<f32> = rows_of(&w)
            .iter()
            .map(|row| row.iter().map(|v| v * v).sum::<f32>().sqrt())
            .collect();
        norms.sort_by(|a, b| b.partial_cmp(a).unwrap());
        // The amplified channels should dominate: top norm several times the
        // median.
        assert!(
            norms[0] > norms[64] * 3.0,
            "top {} vs median {}",
            norms[0],
            norms[64]
        );
    }

    #[test]
    fn layer_scales_vary_across_stack() {
        let scales: Vec<f32> = (0..32).map(|l| layer_scale(l, 32)).collect();
        let min = scales.iter().cloned().fold(f32::INFINITY, f32::min);
        let max = scales.iter().cloned().fold(0.0f32, f32::max);
        assert!(max / min > 1.5, "layers should differ: {min}..{max}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = dense(&mut stream_rng(7, 3), 8, 8, 1.0);
        let b = dense(&mut stream_rng(7, 3), 8, 8, 1.0);
        assert_eq!(a, b);
        let c = dense(&mut stream_rng(7, 4), 8, 8, 1.0);
        assert_ne!(a, c);
    }

    #[test]
    fn embedding_boosts_frequent_tokens() {
        let mut rng = stream_rng(3, 0);
        let e = embedding(&mut rng, 128, 32);
        let norm = |r: usize| e.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
        let early: f32 = (0..8).map(norm).sum();
        let late: f32 = (120..128).map(norm).sum();
        assert!(early > late, "early {early} late {late}");
    }
}
