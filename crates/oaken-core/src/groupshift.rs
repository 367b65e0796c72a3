//! Group-shift quantization (paper §4.4, Eq. 4).
//!
//! Directly quantizing the outer group fails because its values span a wide
//! magnitude range. Group-shift subtracts the *offline-profiled threshold*
//! of the group's side from each value, concentrating every group into a
//! narrow band near zero so 4/5-bit uniform quantization suffices — without
//! requiring any information beyond the four thresholds already available
//! from offline profiling.
//!
//! Side conventions in this implementation:
//!
//! * **middle** values keep a *signed* shift (`x − T_i_hi` above, `x − T_i_lo`
//!   below). The side is recovered from the sign of the reconstructed shifted
//!   value, so no side bit is stored for dense inliers.
//! * **outer** and **inner** values store an explicit side/sign bit in their
//!   COO entry (§4.5) plus a non-negative *magnitude*; the shifted magnitude
//!   is `x − T_o_hi` (high side), `T_o_lo − x` (low side), or `|x|` (inner).

use crate::groups::{classify, GroupKind};
use crate::thresholds::Thresholds;

/// A value after classification and group-shift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftedValue {
    /// Which quantization group the value belongs to.
    pub group: GroupKind,
    /// For outer: `x > T_o_hi`; for inner: `x >= 0`; for middle: `x > T_i_hi`.
    pub high_side: bool,
    /// The shifted value. Signed for middle; non-negative magnitude for
    /// outer and inner.
    pub shifted: f32,
}

/// Classifies and shifts one value per Eq. 4.
///
/// The straight-line statement of the decomposer: the online quantizer
/// ([`crate::OakenQuantizer`]) runs the same arithmetic branch-free over
/// 16-element lanes, and `tests/quantize_oracle.rs` holds it bit-identical
/// to this function.
#[inline]
pub fn shift(x: f32, t: &Thresholds) -> ShiftedValue {
    let group = classify(x, t);
    match group {
        GroupKind::Outer => {
            let high_side = x > t.outer_hi;
            let shifted = if high_side {
                x - t.outer_hi
            } else {
                t.outer_lo - x
            };
            ShiftedValue {
                group,
                high_side,
                shifted,
            }
        }
        GroupKind::Middle => {
            let high_side = x > t.inner_hi;
            let shifted = if high_side {
                x - t.inner_hi
            } else {
                x - t.inner_lo
            };
            ShiftedValue {
                group,
                high_side,
                shifted,
            }
        }
        GroupKind::Inner => ShiftedValue {
            group,
            high_side: x >= 0.0,
            shifted: x.abs(),
        },
    }
}

/// Inverts [`shift`] for the sparse groups, where the side bit is stored
/// explicitly.
///
/// For the middle group use [`unshift_middle`], which infers the side from
/// the sign of the reconstructed shifted value.
#[inline]
pub fn unshift_sparse(group: GroupKind, high_side: bool, magnitude: f32, t: &Thresholds) -> f32 {
    match group {
        GroupKind::Outer => {
            if high_side {
                t.outer_hi + magnitude
            } else {
                t.outer_lo - magnitude
            }
        }
        GroupKind::Inner => {
            if high_side {
                magnitude
            } else {
                -magnitude
            }
        }
        GroupKind::Middle => {
            // The dense path never calls this; fall back to side-aware
            // middle reconstruction for robustness.
            if high_side {
                t.inner_hi + magnitude
            } else {
                t.inner_lo - magnitude
            }
        }
    }
}

/// Inverts the middle-group shift, inferring the side from the sign of the
/// reconstructed shifted value (positive ⇔ above `T_i_hi`).
#[inline]
pub fn unshift_middle(shifted: f32, t: &Thresholds) -> f32 {
    if shifted >= 0.0 {
        shifted + t.inner_hi
    } else {
        shifted + t.inner_lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thresholds::Thresholds;

    fn t() -> Thresholds {
        Thresholds::new(-4.0, -0.5, 0.5, 4.0).unwrap()
    }

    #[test]
    fn middle_shift_roundtrips_exactly() {
        let t = t();
        for &x in &[-3.9f32, -0.51, 0.51, 1.7, 3.99] {
            let s = shift(x, &t);
            assert_eq!(s.group, GroupKind::Middle);
            let back = unshift_middle(s.shifted, &t);
            assert!((back - x).abs() < 1e-6, "x={x} back={back}");
        }
    }

    #[test]
    fn outer_shift_roundtrips_exactly() {
        let t = t();
        for &x in &[-100.0f32, -4.01, 4.01, 55.0] {
            let s = shift(x, &t);
            assert_eq!(s.group, GroupKind::Outer);
            assert!(s.shifted >= 0.0, "magnitude must be non-negative");
            let back = unshift_sparse(s.group, s.high_side, s.shifted, &t);
            assert!((back - x).abs() < 1e-4, "x={x} back={back}");
        }
    }

    #[test]
    fn inner_shift_roundtrips_exactly() {
        let t = t();
        for &x in &[-0.5f32, -0.1, 0.0, 0.3, 0.5] {
            let s = shift(x, &t);
            assert_eq!(s.group, GroupKind::Inner);
            let back = unshift_sparse(s.group, s.high_side, s.shifted, &t);
            assert!((back - x).abs() < 1e-6);
        }
    }

    #[test]
    fn shift_narrows_outer_range() {
        // The whole point of group-shift: an outer value of 100 with
        // T_o_hi = 4 becomes 96, but more importantly the *range* of outer
        // magnitudes starts at 0 instead of at the threshold.
        let t = t();
        let s = shift(4.5, &t);
        assert!((s.shifted - 0.5).abs() < 1e-6);
        let s = shift(-4.5, &t);
        assert!((s.shifted - 0.5).abs() < 1e-6);
    }

    #[test]
    fn middle_sides_shift_toward_zero() {
        let t = t();
        let hi = shift(0.6, &t);
        assert!(hi.high_side && (hi.shifted - 0.1).abs() < 1e-6);
        let lo = shift(-0.6, &t);
        assert!(!lo.high_side && (lo.shifted + 0.1).abs() < 1e-6);
    }
}
