//! Minimal dense `f32` tensor library used as the numeric substrate for the
//! Oaken reproduction.
//!
//! The Oaken paper evaluates KV-cache quantization inside real transformer
//! inference. This crate provides just enough linear algebra to run a
//! from-scratch transformer ([`oaken-model`]) without any external BLAS:
//! row-major tensors, matrix multiplication, softmax, normalisation layers,
//! activations, rotary position embeddings, and the order statistics
//! (top-k, quantiles) that Oaken's offline profiler relies on.
//!
//! The serving hot path is [`Tensor::matvec_batch`] — one sweep over the
//! weights serving a whole step, the step's inputs in the lanes of a vector
//! register and each weight broadcast against them — and its row-sharded
//! parallel form [`Tensor::matvec_batch_on`], which fans the rows out
//! across an `oaken-runtime` worker pool. Every output element is one
//! serial multiply-then-add chain over its row, whichever lane, task or
//! step width computed it, so both are **bit-exact** with
//! [`Tensor::matvec`]: no lane width, thread count or schedule can
//! reassociate anything. The `simd` cargo feature adds `std::arch` AVX2 and
//! AVX-512F lanes (x86-64, chosen at runtime) beside the portable one.
//!
//! # Example
//!
//! ```
//! use oaken_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok::<(), oaken_tensor::TensorError>(())
//! ```
//!
//! [`oaken-model`]: https://docs.rs/oaken-model

mod stats;
mod tensor;

pub mod activation;
pub mod norm;
pub mod ops;
pub mod rope;

pub use ops::{log_softmax, softmax_in_place};
pub use stats::{argmax, bottom_k, quantile, top_k, MinMax};
pub use tensor::{Tensor, TensorError};

/// Whether this build compiled the `std::arch` lanes of the weight sweep
/// (the `simd` feature) — for dependants to assert that their own `simd`
/// feature reaches this crate.
#[doc(hidden)]
pub const SIMD_LANES_COMPILED: bool = cfg!(feature = "simd");
