//! Minimal dense `f32` numeric substrate for the Oaken reproduction.
//!
//! The Oaken paper evaluates KV-cache quantization inside real transformer
//! inference. This crate provides just enough linear algebra to run a
//! from-scratch transformer ([`oaken-model`]) without any external BLAS:
//! weight matrices and the matrix-vector products over them, softmax,
//! normalisation layers, activations, rotary position embeddings, and the
//! order statistics (top-k, quantiles) that Oaken's offline profiler
//! relies on.
//!
//! [`Tensor`] is a `[rows, cols]` weight matrix, stored once in 16-row
//! panels. In generation, the batchable work is sweeping such a matrix
//! over the whole batch, and the serving hot path is
//! [`Tensor::matvec_batch`] — one sweep over the weights serving a whole
//! step, each vector lane one output row of a panel and each input element
//! broadcast against a panel column — and its row-sharded parallel form
//! [`Tensor::matvec_batch_shards`], which splits each owner's rows into
//! tasks on an `oaken-runtime` worker pool. Every output element is one
//! serial multiply-then-add chain over its row, whichever lane, task or
//! step width computed it, so both are **bit-exact** with
//! [`Tensor::matvec`]: no register body, thread count or schedule can
//! reassociate anything. The `simd` cargo feature adds `std::arch` AVX2
//! and AVX-512F bodies (x86-64, chosen at runtime) beside the portable
//! one.
//!
//! Softmax, log-softmax and SiLU take their `exp` from [`exp()`], which
//! equals glibc's `expf` bit for bit; under `simd` an AVX-512F lane
//! computes it sixteen elements at a time, with the same bits.
//!
//! # Example
//!
//! ```
//! use oaken_tensor::Tensor;
//!
//! let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let (x, y) = ([1.0, 0.0], [0.5, -1.0]);
//! let outs = w.matvec_batch(&[&x, &y])?;
//! assert_eq!(outs, vec![vec![1.0, 3.0], vec![-1.5, -2.5]]);
//! assert_eq!(outs[1], w.matvec(&y)?);
//! # Ok::<(), oaken_tensor::TensorError>(())
//! ```
//!
//! [`oaken-model`]: https://docs.rs/oaken-model

mod exp;
mod stats;
mod tensor;

pub mod activation;
pub mod norm;
pub mod ops;
pub mod rope;

pub use exp::exp;
pub use ops::{log_softmax, softmax_in_place, softmax_rows};
pub use stats::{argmax, bottom_k, quantile, top_k, MinMax};
pub use tensor::{Tensor, TensorError};

/// Whether this build compiled the `std::arch` bodies of the weight sweep
/// (the `simd` feature) — for dependants to assert that their own `simd`
/// feature reaches this crate.
#[doc(hidden)]
pub const SIMD_LANES_COMPILED: bool = cfg!(feature = "simd");
