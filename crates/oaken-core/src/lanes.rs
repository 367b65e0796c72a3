//! The write path's one runtime-selected lane.
//!
//! Under the `simd` feature on x86-64, [`widest`] runs its body compiled
//! once more with AVX-512F enabled whenever the CPU has it, and as the
//! portable code otherwise. Both instances are the same source, so they
//! are bit-identical by construction; the portable build stays the
//! reference. The online quantizer's two passes
//! ([`crate::pipeline`]) and the key plan's append — its codes and its
//! outlier merge ([`crate::kernel`]) — go through it, behind this
//! module's single `unsafe` call.

/// Runs `body` on the widest lane this CPU offers.
///
/// `body` must be an `#[inline(always)]` closure whose work is in
/// `#[inline(always)]` functions: only code inlined into the AVX-512F
/// instance is compiled for it, and anything left behind a call runs at
/// the baseline width.
#[inline(always)]
pub(crate) fn widest<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if avx512::available() {
        // SAFETY: `available` verified the lane's CPU feature.
        return unsafe { avx512::run(body) };
    }
    body()
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx512 {
    use std::sync::OnceLock;

    /// One-time CPUID probe for the lane.
    pub(super) fn available() -> bool {
        static PROBE: OnceLock<bool> = OnceLock::new();
        *PROBE.get_or_init(|| {
            is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("popcnt")
        })
    }

    /// `body`, with AVX-512F (and `popcnt`, which the key append's merge
    /// counts with) enabled for everything inlined into it.
    #[target_feature(enable = "avx512f,popcnt")]
    pub(super) fn run<R>(body: impl FnOnce() -> R) -> R {
        body()
    }
}
