//! Shared quantization building blocks for the baseline methods: per-group
//! and per-channel min/max quantization, calibrated channel ordering, and
//! the calibrate-then-freeze row-stream driver behind every token-granular
//! baseline's incremental cache path.

use oaken_core::{KvRowStream, UniformQuantizer};

/// Quantize-dequantizes one row with one min/max scale per `group`
/// consecutive channels, appending `row.len()` values to `out` — the
/// per-row kernel both the batch and the streaming paths share.
///
/// # Panics
///
/// Panics if `group == 0`.
pub fn quantize_groups_row_into(row: &[f32], group: usize, bits: u8, out: &mut Vec<f32>) {
    assert!(group > 0, "group size must be positive");
    for chunk in row.chunks(group) {
        let q = UniformQuantizer::from_values(chunk, bits).expect("bit-width validated by caller");
        out.extend(chunk.iter().map(|&x| q.dequantize(q.quantize(x))));
    }
}

/// Quantize-dequantizes a `[rows × d]` matrix with one min/max scale per
/// `group` consecutive channels within each row (the granularity of Atom /
/// QServe after reordering).
///
/// # Panics
///
/// Panics if `data.len() != rows * d` or `group == 0`.
pub fn quantize_groups_per_row(
    data: &[f32],
    rows: usize,
    d: usize,
    group: usize,
    bits: u8,
) -> Vec<f32> {
    assert_eq!(data.len(), rows * d, "matrix data/shape mismatch");
    let mut out = Vec::with_capacity(data.len());
    for r in 0..rows {
        quantize_groups_row_into(&data[r * d..(r + 1) * d], group, bits, &mut out);
    }
    out
}

/// Quantize-dequantizes a `[rows × d]` matrix with one min/max scale per
/// channel (column), the granularity KIVI and KVQuant use for keys.
///
/// # Panics
///
/// Panics if `data.len() != rows * d`.
pub fn quantize_per_channel(data: &[f32], rows: usize, d: usize, bits: u8) -> Vec<f32> {
    assert_eq!(data.len(), rows * d, "matrix data/shape mismatch");
    let mut out = vec![0.0f32; data.len()];
    let mut col = Vec::with_capacity(rows);
    for c in 0..d {
        col.clear();
        col.extend((0..rows).map(|r| data[r * d + c]));
        let q = UniformQuantizer::from_values(&col, bits).expect("valid bit-width");
        for r in 0..rows {
            out[r * d + c] = q.dequantize(q.quantize(col[r]));
        }
    }
    out
}

/// A calibrated channel permutation: channels sorted by mean magnitude so
/// that same-magnitude channels land in the same quantization group
/// (the RPTQ-style reordering used by Atom, QServe, and Tender).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChannelOrder {
    perm: Vec<usize>,
}

impl ChannelOrder {
    /// Identity ordering over `d` channels.
    pub fn identity(d: usize) -> Self {
        Self {
            perm: (0..d).collect(),
        }
    }

    /// Calibrates an ordering from a sample matrix by ascending mean
    /// absolute channel magnitude.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * d`.
    pub fn calibrate(data: &[f32], rows: usize, d: usize) -> Self {
        assert_eq!(data.len(), rows * d, "matrix data/shape mismatch");
        let mut mags = vec![0.0f64; d];
        for r in 0..rows {
            for c in 0..d {
                mags[c] += f64::from(data[r * d + c].abs());
            }
        }
        let mut perm: Vec<usize> = (0..d).collect();
        perm.sort_by(|&a, &b| mags[a].partial_cmp(&mags[b]).unwrap());
        Self { perm }
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Whether the ordering is empty.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Appends one permuted row to `out`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.len()`.
    pub fn permute_row_into(&self, row: &[f32], out: &mut Vec<f32>) {
        assert_eq!(row.len(), self.perm.len(), "channel count mismatch");
        out.extend(self.perm.iter().map(|&c| row[c]));
    }

    /// Scatters one permuted row back to channel order into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the widths disagree with `self.len()`.
    pub fn unpermute_row_into(&self, row: &[f32], out: &mut [f32]) {
        assert_eq!(row.len(), self.perm.len(), "channel count mismatch");
        assert_eq!(out.len(), self.perm.len(), "channel count mismatch");
        for (i, &c) in self.perm.iter().enumerate() {
            out[c] = row[i];
        }
    }

    /// Applies the permutation to every row of a `[rows × d]` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `d != self.len()` or the data length mismatches.
    pub fn permute(&self, data: &[f32], rows: usize, d: usize) -> Vec<f32> {
        assert_eq!(d, self.perm.len(), "channel count mismatch");
        assert_eq!(data.len(), rows * d, "matrix data/shape mismatch");
        let mut out = Vec::with_capacity(data.len());
        for r in 0..rows {
            self.permute_row_into(&data[r * d..(r + 1) * d], &mut out);
        }
        out
    }

    /// Inverts [`ChannelOrder::permute`].
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn unpermute(&self, data: &[f32], rows: usize, d: usize) -> Vec<f32> {
        assert_eq!(d, self.perm.len(), "channel count mismatch");
        assert_eq!(data.len(), rows * d, "matrix data/shape mismatch");
        let mut out = vec![0.0f32; data.len()];
        for r in 0..rows {
            self.unpermute_row_into(&data[r * d..(r + 1) * d], &mut out[r * d..(r + 1) * d]);
        }
        out
    }
}

/// A per-row quantization kernel whose calibration state (channel order,
/// smoothing scales, frozen group quantizers) is extracted once from the
/// first `calib_rows` tokens and immutable afterwards — the structure
/// shared by the Atom/QServe/Tender streaming paths.
pub(crate) trait CalibratedRowKernel: Send {
    /// Rows required before calibration freezes (≥ 1 effective).
    fn calib_rows(&self) -> usize;

    /// Batch roundtrip used while calibrating, bit-exact with the method's
    /// `roundtrip_matrix` on the same prefix.
    fn roundtrip_prefix(&self, data: &[f32], rows: usize, d: usize) -> Vec<f32>;

    /// Freezes calibration state from the `[rows × d]` calibration prefix.
    fn freeze(&mut self, calib: &[f32], rows: usize, d: usize);

    /// Processes one row with frozen calibration, appending `d` values.
    fn process_row(&mut self, row: &[f32], view: &mut Vec<f32>);
}

/// [`KvRowStream`] driver for [`CalibratedRowKernel`]s: during warm-up the
/// whole (tiny) view is recomputed through the batch path on each append;
/// once `calib_rows` tokens are seen the kernel freezes and every further
/// append is a pure O(d) extension of the view.
pub(crate) struct CalibratedStream<K> {
    kernel: K,
    d: usize,
    rows: usize,
    /// Exact rows buffered only during warm-up (dropped at freeze).
    buffered: Vec<f32>,
    frozen: bool,
}

impl<K: CalibratedRowKernel> CalibratedStream<K> {
    pub(crate) fn new(kernel: K, d: usize) -> Self {
        Self {
            kernel,
            d,
            rows: 0,
            buffered: Vec::new(),
            frozen: false,
        }
    }
}

impl<K: CalibratedRowKernel> KvRowStream for CalibratedStream<K> {
    fn append_row(&mut self, row: &[f32], view: &mut Vec<f32>) {
        assert_eq!(row.len(), self.d, "row width mismatch");
        self.rows += 1;
        if self.frozen {
            self.kernel.process_row(row, view);
            return;
        }
        self.buffered.extend_from_slice(row);
        view.clear();
        *view = self
            .kernel
            .roundtrip_prefix(&self.buffered, self.rows, self.d);
        if self.rows >= self.kernel.calib_rows().max(1) {
            let calib_rows = self.kernel.calib_rows().max(1).min(self.rows);
            let calib: Vec<f32> = self.buffered[..calib_rows * self.d].to_vec();
            self.kernel.freeze(&calib, calib_rows, self.d);
            self.buffered = Vec::new();
            self.frozen = true;
        }
    }

    /// The exact rows buffered during warm-up. The rows themselves live
    /// in the caller's f32 view, and the frozen calibration is a fixed
    /// per-stream cost, not per row.
    fn held_bytes(&self) -> usize {
        self.buffered.capacity() * std::mem::size_of::<f32>()
    }

    fn reset(&mut self) {
        // Calibration (the frozen kernel) is per-model state and survives
        // the reset — exactly how Atom/QServe/Tender share their offline
        // channel orders and smoothing scales across serving requests. A
        // stream reset *before* freezing restarts warm-up from scratch.
        self.rows = 0;
        self.buffered.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, d: usize) -> Vec<f32> {
        (0..rows * d)
            .map(|i| ((i * 2654435761) % 1000) as f32 / 100.0 - 5.0)
            .collect()
    }

    #[test]
    fn group_quant_error_shrinks_with_group_size() {
        let (rows, d) = (8, 256);
        let data = sample(rows, d);
        let err = |g: usize| {
            let q = quantize_groups_per_row(&data, rows, d, g, 4);
            data.iter()
                .zip(&q)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
        };
        assert!(err(16) <= err(256), "finer groups should not be worse");
    }

    #[test]
    fn per_channel_quant_shape_and_degenerate_column() {
        let rows = 4;
        let d = 3;
        // Column 2 is constant → degenerate range must reconstruct exactly.
        let data = vec![
            1.0, -2.0, 7.0, //
            3.0, 0.5, 7.0, //
            -1.0, 2.0, 7.0, //
            0.0, -0.5, 7.0,
        ];
        let q = quantize_per_channel(&data, rows, d, 4);
        assert_eq!(q.len(), data.len());
        for r in 0..rows {
            assert_eq!(q[r * d + 2], 7.0);
        }
    }

    #[test]
    fn channel_order_roundtrip() {
        let (rows, d) = (3, 16);
        let data = sample(rows, d);
        let order = ChannelOrder::calibrate(&data, rows, d);
        let p = order.permute(&data, rows, d);
        let back = order.unpermute(&p, rows, d);
        assert_eq!(back, data);
    }

    #[test]
    fn calibrated_order_sorts_by_magnitude() {
        let rows = 2;
        let d = 4;
        // Channel magnitudes: c0=10, c1=1, c2=5, c3=0.1
        let data = vec![10.0, 1.0, 5.0, 0.1, -10.0, -1.0, -5.0, -0.1];
        let order = ChannelOrder::calibrate(&data, rows, d);
        let p = order.permute(&data, rows, d);
        // First row after sorting ascending magnitude: 0.1, 1, 5, 10.
        assert_eq!(p[0].abs(), 0.1);
        assert_eq!(p[3].abs(), 10.0);
    }

    #[test]
    fn identity_order_is_noop() {
        let (rows, d) = (2, 8);
        let data = sample(rows, d);
        let order = ChannelOrder::identity(d);
        assert_eq!(order.permute(&data, rows, d), data);
        assert_eq!(order.len(), d);
        assert!(!order.is_empty());
    }
}
