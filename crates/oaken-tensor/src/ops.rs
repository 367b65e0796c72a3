//! Free functions on slices shared by the higher-level modules: numerically
//! stable softmax and log-softmax, their `exp` through [`exp`](crate::exp()).

use crate::exp::{exp_map, ExpOf};
use std::ops::Range;

/// Numerically stable in-place softmax.
///
/// Subtracts the maximum before exponentiation so that large attention
/// logits (common with long contexts) do not overflow. Per row, in index
/// order: the maximum is a `f32::max` fold from `-inf`; each element
/// becomes `exp(v − max)` and is added to a sum starting at `+0.0`; when
/// the sum is positive, each element is multiplied by `1 / sum`.
///
/// An empty slice is left untouched.
pub fn softmax_in_place(x: &mut [f32]) {
    let n = x.len();
    softmax_rows(x, n, 0..n);
}

/// [`softmax_in_place`] over `row[range]` of every `stride`-long row of
/// `buf`, bit for bit, with up to four rows' max and sum chains
/// interleaved so each one's add latency hides behind the others'.
/// Elements outside `range` are left untouched, and so is everything if
/// `range` is empty.
///
/// # Panics
///
/// Panics if `range` is non-empty and `buf.len()` is not a multiple of
/// `stride`, or `range` does not fit in a row.
pub fn softmax_rows(buf: &mut [f32], stride: usize, range: Range<usize>) {
    if range.is_empty() {
        return;
    }
    assert!(range.end <= stride, "softmax range outside the row");
    assert!(buf.len().is_multiple_of(stride), "buffer is not whole rows");
    let mut rows = buf.chunks_exact_mut(stride);
    while rows.len() >= 4 {
        softmax_group::<4>(&mut rows, &range);
    }
    while rows.len() > 0 {
        softmax_group::<1>(&mut rows, &range);
    }
}

/// [`softmax_rows`] for the next `G` rows of `rows`, the `G` chains of
/// each pass side by side.
fn softmax_group<const G: usize>(
    rows: &mut std::slice::ChunksExactMut<'_, f32>,
    range: &Range<usize>,
) {
    let mut group: [&mut [f32]; G] =
        std::array::from_fn(|_| &mut rows.next().expect("G rows left")[range.clone()]);
    let n = range.len();
    let mut max = [f32::NEG_INFINITY; G];
    for j in 0..n {
        for (m, row) in max.iter_mut().zip(&group) {
            *m = m.max(row[j]);
        }
    }
    for (row, &m) in group.iter_mut().zip(&max) {
        exp_map(row, ExpOf::Shifted(m));
    }
    let mut sum = [0.0f32; G];
    for j in 0..n {
        for (s, row) in sum.iter_mut().zip(&group) {
            *s += row[j];
        }
    }
    for (row, s) in group.iter_mut().zip(sum) {
        if s > 0.0 {
            let inv = 1.0 / s;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
    }
}

/// Numerically stable log-softmax, returning a new vector.
///
/// Used by the perplexity harness: `log p(token) = logit - logsumexp`.
pub fn log_softmax(x: &[f32]) -> Vec<f32> {
    if x.is_empty() {
        return Vec::new();
    }
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut out = x.to_vec();
    exp_map(&mut out, ExpOf::Shifted(max));
    let lse = max + out.iter().sum::<f32>().ln();
    for (o, &v) in out.iter_mut().zip(x) {
        *o = v - lse;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let mut x = vec![1.0, 2.0, 3.0];
        softmax_in_place(&mut x);
        let s: f32 = x.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(x[2] > x[1] && x[1] > x[0]);
    }

    #[test]
    fn softmax_handles_large_logits() {
        let mut x = vec![1000.0, 1001.0];
        softmax_in_place(&mut x);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_empty_noop() {
        let mut x: Vec<f32> = vec![];
        softmax_in_place(&mut x);
        assert!(x.is_empty());
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let x = vec![0.5, -1.0, 2.0];
        let ls = log_softmax(&x);
        let mut sm = x.clone();
        softmax_in_place(&mut sm);
        for (l, s) in ls.iter().zip(&sm) {
            assert!((l.exp() - s).abs() < 1e-5);
        }
    }
}
