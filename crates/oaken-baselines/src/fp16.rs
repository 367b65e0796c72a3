//! The FP16 no-quantization reference ("Original" row of Table 2, the vLLM
//! GPU baseline of Figure 11).

use crate::half_float::f16_roundtrip;
use oaken_core::{KvKind, KvQuantizer, KvRowStream, OnlineCost};

/// Stores the KV cache in FP16, the serving-system default.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fp16Reference {
    _private: (),
}

impl Fp16Reference {
    /// Creates the reference.
    pub fn new() -> Self {
        Self::default()
    }
}

impl KvQuantizer for Fp16Reference {
    fn name(&self) -> &'static str {
        "fp16"
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
        data.iter().map(|&x| f16_roundtrip(x)).collect()
    }

    fn effective_bits(&self, _rows: usize, _d: usize) -> f64 {
        16.0
    }

    fn online_cost(&self) -> OnlineCost {
        OnlineCost::free()
    }

    fn row_stream(&self, d: usize, _layer: usize, _kind: KvKind) -> Option<Box<dyn KvRowStream>> {
        Some(Box::new(Fp16RowStream { d }))
    }

    /// Each element converts to FP16 independently — trivially a pure
    /// function of the row, so FP16 pages are prefix-shareable.
    fn prefix_deterministic(&self) -> bool {
        true
    }
}

/// Streaming FP16 path: each element converts independently, so appends
/// are trivially O(d) and bit-exact with the batch path. With no encoded
/// form, a row is charged the nominal 16 bits per element: `2·d` dense
/// bytes, no sparse ones.
struct Fp16RowStream {
    d: usize,
}

impl KvRowStream for Fp16RowStream {
    fn append_row(&mut self, row: &[f32], view: &mut Vec<f32>) {
        assert_eq!(row.len(), self.d, "row width mismatch");
        view.extend(row.iter().map(|&x| f16_roundtrip(x)));
    }

    /// Nothing: the rows live only in the caller's f32 view.
    fn held_bytes(&self) -> usize {
        0
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp16_reference_is_nearly_lossless() {
        let data: Vec<f32> = (0..256).map(|i| (i as f32 * 0.173).sin() * 8.0).collect();
        let q = Fp16Reference::new();
        let out = q.roundtrip_matrix(&data, 2, 128, 0, KvKind::Key);
        for (a, b) in data.iter().zip(&out) {
            assert!((a - b).abs() <= a.abs() / 1024.0 + 1e-6);
        }
        assert_eq!(q.effective_bits(10, 10), 16.0);
        assert_eq!(q.online_cost(), OnlineCost::free());
    }
}
