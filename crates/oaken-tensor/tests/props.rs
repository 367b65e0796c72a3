//! Property tests for the tensor substrate: algebraic identities that must
//! hold for arbitrary shapes and values.

use oaken_tensor::{log_softmax, quantile, softmax_in_place, top_k, MinMax, Tensor};
use proptest::prelude::*;

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1.0e3f32..1.0e3, 1..max_len)
}

/// `n` floats drawn from `seed`, one in `rarity` of them awkward: a signed
/// zero, a subnormal, an infinity or a NaN.
fn awkward_floats(seed: &mut u64, n: usize, rarity: u64) -> Vec<f32> {
    const AWKWARD: [f32; 7] = [
        0.0,
        -0.0,
        1.0e-40,
        -3.0e-42,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    (0..n)
        .map(|_| {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let draw = *seed >> 33;
            if draw.is_multiple_of(rarity) {
                AWKWARD[(draw / rarity) as usize % AWKWARD.len()]
            } else {
                (draw % 4001) as f32 / 317.0 - 6.3
            }
        })
        .collect()
}

/// Bit equality, except that any NaN equals any NaN (which payload a NaN
/// operand pair propagates is the one thing a lane may legitimately vary).
fn same_bits(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn matmul_identity(v in finite_vec(64)) {
        let n = v.len();
        let a = Tensor::from_vec(v.clone(), &[1, n]).unwrap();
        let id = Tensor::eye(n);
        let out = a.matmul(&id).unwrap();
        for (x, y) in v.iter().zip(out.as_slice()) {
            prop_assert!((x - y).abs() <= x.abs() * 1e-6 + 1e-6);
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in finite_vec(16),
        b in finite_vec(16),
    ) {
        let n = a.len().min(b.len()).max(1);
        let a = Tensor::from_vec(a[..n].to_vec(), &[1, n]).unwrap();
        let b = Tensor::from_vec(b[..n].to_vec(), &[1, n]).unwrap();
        // (a + b) · I == a·I + b·I
        let id = Tensor::eye(n);
        let lhs = a.add(&b).unwrap().matmul(&id).unwrap();
        let rhs = a.matmul(&id).unwrap().add(&b.matmul(&id).unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() <= x.abs() * 1e-5 + 1e-4);
        }
    }

    #[test]
    fn transpose_is_involution(v in finite_vec(48)) {
        let n = v.len();
        // Factor into a 2D shape.
        let rows = (1..=n).rev().find(|&r| n.is_multiple_of(r)).unwrap();
        let t = Tensor::from_vec(v, &[rows, n / rows]).unwrap();
        prop_assert_eq!(t.transpose().unwrap().transpose().unwrap(), t);
    }

    #[test]
    fn softmax_is_a_distribution(mut v in finite_vec(64)) {
        softmax_in_place(&mut v);
        let sum: f32 = v.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(v.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
    }

    #[test]
    fn softmax_invariant_to_shift(v in finite_vec(32), shift in -100.0f32..100.0) {
        let mut a = v.clone();
        let mut b: Vec<f32> = v.iter().map(|x| x + shift).collect();
        softmax_in_place(&mut a);
        softmax_in_place(&mut b);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn log_softmax_exponentiates_to_distribution(v in finite_vec(32)) {
        let ls = log_softmax(&v);
        let sum: f32 = ls.iter().map(|l| l.exp()).sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn top_k_contains_the_maximum(v in finite_vec(64), k in 1usize..8) {
        let top = top_k(&v, k);
        let max = v.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        prop_assert_eq!(top[0], max);
        // Descending order.
        for w in top.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn quantile_monotone(v in finite_vec(64), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&v, lo).unwrap();
        let b = quantile(&v, hi).unwrap();
        prop_assert!(a <= b + 1e-6);
    }

    #[test]
    fn minmax_brackets_every_element(v in finite_vec(64)) {
        let mm = MinMax::of(&v).unwrap();
        for &x in &v {
            prop_assert!(mm.min <= x && x <= mm.max);
        }
    }

    /// Width invariance of the weight sweep: whatever the step width (one
    /// lane group, exactly one, a second one), the co-batched inputs, the
    /// row range, the shard map and the thread count, every element is
    /// `Tensor::matvec`'s — including the rows a short last block pads and
    /// the `inf`/NaN weights a zero padding lane turns into NaN.
    #[test]
    fn weight_sweep_is_width_invariant(
        m in 1usize..40,
        k in prop::sample::select(vec![0usize, 1, 7, 33, 257]),
        width in 1usize..41,
        seed in any::<u64>(),
        cuts in any::<u64>(),
    ) {
        let mut seed = seed;
        let a = Tensor::from_vec(awkward_floats(&mut seed, m * k, 61), &[m, k]).unwrap();
        let xs: Vec<Vec<f32>> = (0..width).map(|_| awkward_floats(&mut seed, k, 13)).collect();
        let refs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
        let want: Vec<Vec<f32>> = xs.iter().map(|x| a.matvec(x).unwrap()).collect();

        let start = cuts as usize % (m + 1);
        let rows = start..start + (cuts >> 8) as usize % (m - start + 1);
        let got = a.matvec_batch_rows(&refs, rows.clone()).unwrap();
        prop_assert_eq!(got.len(), width);
        for (got, want) in got.iter().zip(&want) {
            prop_assert!(same_bits(got, &want[rows.clone()]), "rows {:?}", rows);
        }

        // One to four contiguous shards of uneven (possibly zero) length.
        let mut ends: Vec<usize> = (0..(cuts >> 16) % 4)
            .map(|c| (cuts >> (20 + 8 * c)) as usize % (m + 1))
            .collect();
        ends.push(m);
        ends.sort_unstable();
        let shards: Vec<_> = ends
            .iter()
            .scan(0, |from, &to| Some(std::mem::replace(from, to)..to))
            .collect();
        for threads in [1usize, 4] {
            let rt = oaken_runtime::Runtime::new(threads);
            let got = a.matvec_batch_shards(&rt, &refs, &shards).unwrap();
            prop_assert_eq!(got.len(), shards.len());
            for (rows, shard) in shards.iter().zip(&got) {
                prop_assert_eq!(shard.len(), width);
                for (got, want) in shard.iter().zip(&want) {
                    prop_assert!(
                        same_bits(got, &want[rows.clone()]),
                        "shard {:?} of {:?}, {} threads", rows, shards, threads
                    );
                }
            }
        }
    }
}
