//! `exp` for the model path: the scalar reference [`exp`] and, with the
//! `simd` feature on x86-64, an AVX-512F lane selected at runtime. Both
//! equal glibc's `expf` bit for bit on every `f32` input.
//!
//! The algorithm is Arm optimized-routines' `expf` (MIT licence), the one
//! glibc ships since 2.28. With `N = 32`, `z = x·N/ln 2` is split as
//! `k + r`, `k` an integer found by adding `1.5·2⁵²`; `2^(k/N)` is the
//! table entry `2^((k mod N)/N)` with `k/N` added to its exponent bits,
//! `2^(r/N)` a cubic in `r`, and their double-precision product rounds
//! once to `f32`.
//!
//! The reduction must be exact. glibc's build for a CPU with FMA computes
//! `r = fma(N/ln 2, x, −k)`, the exact `z − k` rounded once. Here `N/ln 2`
//! is split into a 26-bit and a 27-bit half, so each half's product with
//! the 24-bit `x` is exact, `hi − k` is exact, and `r = (hi − k) + lo`
//! rounds once: the same `r` from plain multiplies and adds. Computed from
//! a rounded `z` instead (`r = z − k`), the result differs from libm at
//! exactly two inputs, `0x4202422f` (32.56) and `0xc27c65d9` (−63.10, a
//! reachable softmax argument). That is glibc's own non-FMA build, the one
//! it picks on a CPU without FMA: there libm's bits move at those two
//! inputs and these do not.
//!
//! Rounding `hi` rather than `z` to find `k`, and evaluating the cubic
//! without FMAs, move no output (the exhaustive test walks all 2³²
//! inputs). So only IEEE multiplies and adds occur, never an FMA: no bit
//! depends on the CPU, the lane or the `simd` feature, and no build calls
//! libm's `fma`, which is what `f64::mul_add` compiles to where the target
//! has no FMA instruction.

use crate::activation::silu;

/// `N / ln 2` with `N = 32` table entries per octave.
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `N / ln 2`'s top 26 significant bits and the remaining 27: each one's
/// product with an `f32` is exact.
const INV_HI: f64 = f64::from_bits(INV_LN2_N.to_bits() & !0x7ff_ffff);
const INV_LO: f64 = INV_LN2_N - INV_HI;
/// `1.5·2⁵²`: adding it rounds to an integer `k` held in the low mantissa
/// bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// The cubic for `2^(r/N)`: `C[0]·r³ + C[1]·r² + C[2]·r + 1`.
const C: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];
/// `T[i] = bits(2^(i/N)) − (i << 47)`: adding `k << 47` puts `k / N` in
/// the exponent and cancels `k mod N`'s bits in the mantissa.
const T: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];
/// Above this (`log 2¹²⁸`), `exp` overflows to `+inf`.
const OVERFLOW: f32 = f32::from_bits(0x42b1_7217);
/// Below this (`log 2⁻¹⁵⁰`), `exp` rounds to `+0.0`; `-inf` included.
const UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);

/// `eˣ`, bit-identical to glibc's `expf` (≥ 2.28) on every `f32` input:
/// Arm optimized-routines' algorithm (a 32-entry `2^(i/32)` table and a
/// cubic, in double precision) written with IEEE multiplies and adds
/// only, so its bits depend on no CPU feature.
pub fn exp(x: f32) -> f32 {
    if x.is_nan() {
        return x + x;
    }
    if x > OVERFLOW {
        return f32::INFINITY;
    }
    if x < UNDERFLOW {
        return 0.0;
    }
    let xd = f64::from(x);
    let (hi, lo) = (xd * INV_HI, xd * INV_LO);
    let k = hi + SHIFT;
    let ki = k.to_bits();
    let r = (hi - (k - SHIFT)) + lo;
    let s = f64::from_bits(T[(ki % 32) as usize].wrapping_add(ki << 47));
    let y = (C[0] * r + C[1]) * (r * r) + (C[2] * r + 1.0);
    (y * s) as f32
}

/// What [`exp_map`] writes over each element `x`.
#[derive(Clone, Copy)]
pub(crate) enum ExpOf {
    /// `exp(x − c)`: a softmax row's numerators.
    Shifted(f32),
    /// `x / (1 + exp(−x))`: [`silu`].
    Silu,
}

impl ExpOf {
    /// The scalar reference for one element.
    fn scalar(self, x: f32) -> f32 {
        match self {
            ExpOf::Shifted(c) => exp(x - c),
            ExpOf::Silu => silu(x),
        }
    }
}

/// Applies `op` to every element of `xs`: on the AVX-512F lane where the
/// `simd` feature compiled it and the CPU has it, else element by element
/// through [`exp`]. Both give the same bits.
pub(crate) fn exp_map(xs: &mut [f32], op: ExpOf) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if is_x86_feature_detected!("avx512f") {
        // SAFETY: AVX-512F was detected just above.
        return unsafe { simd::exp_map(xs, op) };
    }
    for x in xs {
        *x = op.scalar(*x);
    }
}

/// The AVX-512F lane: [`exp`] on sixteen `f32`s as two halves of eight
/// `f64`s — the scalar reference's operations in its order, hence its
/// bits — with the table lookup two 16-entry permutes and a blend on
/// index bit 4, and the special cases a compare-and-blend.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd {
    use super::{ExpOf, C, INV_HI, INV_LO, OVERFLOW, SHIFT, T, UNDERFLOW};
    use std::arch::x86_64::*;

    /// [`super::exp`]'s main path on eight `f64` lanes, before the round
    /// to `f32`; `tab` is `T` as four registers.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn exp8(xd: __m512d, tab: &[__m512i; 4]) -> __m512d {
        let shift = _mm512_set1_pd(SHIFT);
        let hi = _mm512_mul_pd(xd, _mm512_set1_pd(INV_HI));
        let k = _mm512_add_pd(hi, shift);
        let ki = _mm512_castpd_si512(k);
        let r = _mm512_sub_pd(hi, _mm512_sub_pd(k, shift));
        let r = _mm512_add_pd(r, _mm512_mul_pd(xd, _mm512_set1_pd(INV_LO)));
        // Index bits 0–3 pick an entry of a 16-entry half, bit 4 the half.
        let low = _mm512_permutex2var_epi64(tab[0], ki, tab[1]);
        let high = _mm512_permutex2var_epi64(tab[2], ki, tab[3]);
        let upper = _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16));
        let t = _mm512_mask_blend_epi64(upper, low, high);
        let s = _mm512_castsi512_pd(_mm512_add_epi64(t, _mm512_slli_epi64::<47>(ki)));
        let z = _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(C[0]), r), _mm512_set1_pd(C[1]));
        let y = _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(C[2]), r), _mm512_set1_pd(1.0));
        _mm512_mul_pd(_mm512_add_pd(_mm512_mul_pd(z, _mm512_mul_pd(r, r)), y), s)
    }

    /// [`super::exp`] on sixteen lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn exp16(x: __m512, tab: &[__m512i; 4]) -> __m512 {
        let lo = _mm512_cvtps_pd(_mm512_castps512_ps256(x));
        let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(x)));
        let lo = _mm512_cvtpd_ps(exp8(lo, tab));
        let hi = _mm512_cvtpd_ps(exp8(_mm512_cvtps_pd(hi), tab));
        let y = _mm512_insertf64x4::<1>(
            _mm512_castpd256_pd512(_mm256_castps_pd(lo)),
            _mm256_castps_pd(hi),
        );
        let y = _mm512_castpd_ps(y);
        let over = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(x, _mm512_set1_ps(OVERFLOW));
        let y = _mm512_mask_blend_ps(over, y, _mm512_set1_ps(f32::INFINITY));
        let under = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(x, _mm512_set1_ps(UNDERFLOW));
        let y = _mm512_mask_blend_ps(under, y, _mm512_setzero_ps());
        let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(x, x);
        _mm512_mask_blend_ps(nan, y, _mm512_add_ps(x, x))
    }

    /// [`super::exp_map`] sixteen elements at a time, a short tail with a
    /// masked load and store.
    #[target_feature(enable = "avx512f")]
    pub(super) fn exp_map(xs: &mut [f32], op: ExpOf) {
        let mut tab = [_mm512_setzero_si512(); 4];
        for (v, t) in tab.iter_mut().zip(T.as_chunks::<8>().0) {
            // SAFETY: `t` is eight `u64`s, one register.
            *v = unsafe { _mm512_loadu_si512(t.as_ptr().cast()) };
        }
        let one = _mm512_set1_ps(1.0);
        let sign = _mm512_set1_epi32(i32::MIN);
        match op {
            ExpOf::Shifted(c) => {
                let c = _mm512_set1_ps(c);
                map(xs, |x| exp16(_mm512_sub_ps(x, c), &tab));
            }
            ExpOf::Silu => map(xs, |x| {
                let neg = _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(x), sign));
                _mm512_div_ps(x, _mm512_add_ps(one, exp16(neg, &tab)))
            }),
        }
    }

    /// Overwrites every element of `xs` with `f` of it.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn map(xs: &mut [f32], f: impl Fn(__m512) -> __m512) {
        let (chunks, tail) = xs.as_chunks_mut::<16>();
        for chunk in chunks {
            // SAFETY: `chunk` is sixteen floats.
            unsafe { _mm512_storeu_ps(chunk.as_mut_ptr(), f(_mm512_loadu_ps(chunk.as_ptr()))) };
        }
        if !tail.is_empty() {
            let live: __mmask16 = (1 << tail.len()) - 1;
            // SAFETY: `live` has one bit per element of `tail` (fewer than
            // sixteen), so the masked load and store touch only `tail`.
            unsafe {
                let x = _mm512_maskz_loadu_ps(live, tail.as_ptr());
                _mm512_mask_storeu_ps(tail.as_mut_ptr(), live, f(x));
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Inputs every `exp` check runs: signed zeros and infinities, NaNs
    /// (quiet, and with a payload), the extreme subnormals, ±88, each
    /// special-case threshold with its neighbours one ulp either side, and
    /// the two inputs at which reducing from a rounded `z` leaves libm.
    pub(crate) fn edge_inputs() -> Vec<f32> {
        let mut bits = vec![
            0x0000_0000,
            0x8000_0000,
            0x7f80_0000,
            0xff80_0000,
            0x7fc0_0000,
            0xffc0_0000,
            0x7fa5_5aa5,
            0xff80_0001,
            0x0000_0001,
            0x8000_0001,
            0x007f_ffff,
            0x807f_ffff,
            88.0f32.to_bits(),
            (-88.0f32).to_bits(),
            0x4202_422f,
            0xc27c_65d9,
        ];
        for threshold in [OVERFLOW.to_bits(), UNDERFLOW.to_bits()] {
            bits.extend([threshold - 1, threshold, threshold + 1]);
        }
        bits.into_iter().map(f32::from_bits).collect()
    }

    /// `to_bits` equality, except that any NaN equals any NaN.
    pub(crate) fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Checks `xs` through [`exp_map`] (the lane, where it runs) against
    /// [`exp`], and [`exp`] against libm's `expf` where glibc provides it.
    fn check_exp(xs: &[f32]) {
        let mut lane = xs.to_vec();
        exp_map(&mut lane, ExpOf::Shifted(0.0));
        for (&x, &got) in xs.iter().zip(&lane) {
            let want = exp(x);
            assert!(
                same(got, want),
                "lane {got:e} vs scalar {want:e} at {:#010x}",
                x.to_bits()
            );
            #[cfg(all(target_os = "linux", target_env = "gnu"))]
            assert!(
                same(want, x.exp()),
                "exp {want:e} vs libm {:e} at {:#010x}",
                x.exp(),
                x.to_bits()
            );
        }
    }

    #[test]
    fn table_holds_the_powers_of_two() {
        for (i, &t) in (0u64..).zip(&T) {
            let want = (i as f64 / 32.0).exp2().to_bits();
            assert_eq!(t.wrapping_add(i << 47), want, "entry {i}");
        }
    }

    /// `exp` is libm's `expf` on about one in 4,096 bit patterns and on
    /// every edge input, and the lane is `exp`. Mutation check: reducing
    /// from a rounded `z` (`z = x·N/ln 2; k = z + SHIFT; r = z − (k −
    /// SHIFT)`), as a non-FMA libm does, fails here on `0x4202422f` and,
    /// with that input removed, on `0xc27c65d9`.
    #[test]
    fn exp_matches_libm_on_sampled_and_edge_inputs() {
        check_exp(&edge_inputs());
        let sample: Vec<f32> = (0..1u64 << 20)
            .map(|i| f32::from_bits((i * 4096 + i % 4093) as u32))
            .collect();
        check_exp(&sample);
    }

    /// The same on all 2³² inputs (about half a minute in release).
    #[test]
    #[ignore = "exhaustive; run in release with `-- --ignored exp_`"]
    fn exp_matches_libm_on_every_input() {
        let mut xs = Vec::with_capacity(1 << 16);
        for hi in 0..1u32 << 16 {
            xs.clear();
            xs.extend((0..1u32 << 16).map(|lo| f32::from_bits(hi << 16 | lo)));
            check_exp(&xs);
        }
    }
}
