//! Rotary position embeddings (RoPE), used by Llama2, Mistral, and Mixtral.
//!
//! The KV-distribution observations of the paper (§4.1) are made on keys
//! *after* RoPE for Llama-family models — the rotation mixes channel pairs
//! but per-channel magnitude structure survives, which is what Oaken's
//! offline thresholds capture.

/// Applies RoPE in place to a head vector of even length at position `pos`.
///
/// Channel pairs `(2i, 2i+1)` are rotated by `pos * theta^(-2i/d)`.
///
/// # Panics
///
/// Panics in debug builds if `head.len()` is odd.
pub fn apply_rope(head: &mut [f32], pos: usize, theta: f32) {
    debug_assert!(
        head.len().is_multiple_of(2),
        "RoPE requires an even head dimension"
    );
    let d = head.len();
    for i in 0..d / 2 {
        let freq = theta.powf(-2.0 * i as f32 / d as f32);
        let angle = pos as f32 * freq;
        let (sin, cos) = angle.sin_cos();
        let a = head[2 * i];
        let b = head[2 * i + 1];
        head[2 * i] = a * cos - b * sin;
        head[2 * i + 1] = a * sin + b * cos;
    }
}

/// The `(sin, cos)` of every channel pair's angle for heads of width `d`
/// at position `pos` — [`apply_rope`]'s own expressions, evaluated once so
/// every head of every layer at that position rotates from the same row
/// ([`rotate_by`]) instead of recomputing a `powf` and a `sin_cos` per
/// pair.
pub fn rope_row(d: usize, pos: usize, theta: f32) -> Vec<(f32, f32)> {
    (0..d / 2)
        .map(|i| {
            let freq = theta.powf(-2.0 * i as f32 / d as f32);
            (pos as f32 * freq).sin_cos()
        })
        .collect()
}

/// Rotates `head` in place by a [`rope_row`] computed for its width:
/// bit-identical to [`apply_rope`] at the row's position.
///
/// # Panics
///
/// Panics in debug builds if the row was computed for another width.
pub fn rotate_by(head: &mut [f32], row: &[(f32, f32)]) {
    debug_assert_eq!(head.len(), 2 * row.len(), "row computed for this width");
    for (pair, &(sin, cos)) in head.chunks_exact_mut(2).zip(row) {
        let (a, b) = (pair[0], pair[1]);
        pair[0] = a * cos - b * sin;
        pair[1] = a * sin + b * cos;
    }
}

/// The default RoPE base used by Llama2 and Mistral.
pub const DEFAULT_THETA: f32 = 10_000.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rope_at_position_zero_is_identity() {
        let mut h = vec![1.0, 2.0, 3.0, 4.0];
        let orig = h.clone();
        apply_rope(&mut h, 0, DEFAULT_THETA);
        for (a, b) in h.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rope_preserves_norm() {
        let mut h = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let norm_before: f32 = h.iter().map(|v| v * v).sum();
        apply_rope(&mut h, 17, DEFAULT_THETA);
        let norm_after: f32 = h.iter().map(|v| v * v).sum();
        assert!((norm_before - norm_after).abs() < 1e-3);
    }

    /// The table form is `apply_rope`, bit for bit.
    #[test]
    fn row_form_matches_apply_rope_bitwise() {
        for d in [2usize, 4, 32, 128] {
            for pos in [0usize, 1, 17, 4095] {
                let head: Vec<f32> = (0..d)
                    .map(|i| (i as f32 * 0.37 - 3.1).sin() * 5.0)
                    .collect();
                let (mut direct, mut by_row) = (head.clone(), head);
                apply_rope(&mut direct, pos, DEFAULT_THETA);
                rotate_by(&mut by_row, &rope_row(d, pos, DEFAULT_THETA));
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                assert_eq!(bits(&direct), bits(&by_row), "width {d} at position {pos}");
            }
        }
    }

    #[test]
    fn rope_distinct_positions_differ() {
        let base = vec![1.0, 0.0, 1.0, 0.0];
        let mut a = base.clone();
        let mut b = base;
        apply_rope(&mut a, 1, DEFAULT_THETA);
        apply_rope(&mut b, 2, DEFAULT_THETA);
        assert!(a.iter().zip(&b).any(|(x, y)| (x - y).abs() > 1e-4));
    }
}
