//! The [`Tensor`] type: a row-major, heap-allocated, dense `f32` tensor.

use std::fmt;

/// Error type for all fallible tensor operations.
///
/// The `Display` representation is lowercase without trailing punctuation,
/// per the Rust API guidelines (C-GOOD-ERR).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The product of the requested dimensions does not match the length of
    /// the provided data buffer.
    ShapeMismatch {
        /// Number of elements implied by the shape.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// Two tensors were combined with incompatible shapes.
    IncompatibleShapes {
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// An index was out of bounds for the tensor's shape.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// The tensor's shape.
        shape: Vec<usize>,
    },
    /// A tensor with zero elements was passed to an operation that requires
    /// at least one element (e.g. min/max reduction).
    Empty,
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, actual } => {
                write!(f, "shape expects {expected} elements but data has {actual}")
            }
            TensorError::IncompatibleShapes { lhs, rhs, op } => {
                write!(f, "incompatible shapes {lhs:?} and {rhs:?} for {op}")
            }
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
            TensorError::Empty => write!(f, "operation requires a non-empty tensor"),
        }
    }
}

impl std::error::Error for TensorError {}

/// A dense, row-major `f32` tensor of arbitrary rank.
///
/// `Tensor` deliberately stays small: it is the numeric substrate for the
/// transformer inference engine and the quantization pipeline, not a general
/// autodiff framework. All operations are implemented in safe Rust.
///
/// # Example
///
/// ```
/// use oaken_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Creates a tensor from a data buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` does not equal
    /// the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::ShapeMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Self {
            data,
            shape: shape.to_vec(),
        })
    }

    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            data: vec![0.0; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self {
            data: vec![value; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions (rank).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying buffer in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying buffer in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterprets the tensor with a new shape of the same element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::ShapeMismatch {
                expected,
                actual: self.data.len(),
            });
        }
        Ok(Self {
            data: self.data.clone(),
            shape: shape.to_vec(),
        })
    }

    /// Returns the element at a fully-specified index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index rank differs
    /// from the tensor rank or any coordinate exceeds its dimension.
    pub fn get(&self, index: &[usize]) -> Result<f32, TensorError> {
        let off = self.offset(index)?;
        Ok(self.data[off])
    }

    /// Sets the element at a fully-specified index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] on an invalid index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), TensorError> {
        let off = self.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    fn offset(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.shape.len() {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.shape.clone(),
            });
        }
        let mut off = 0usize;
        for (i, (&ix, &dim)) in index.iter().zip(&self.shape).enumerate() {
            if ix >= dim {
                return Err(TensorError::IndexOutOfBounds {
                    index: index.to_vec(),
                    shape: self.shape.clone(),
                });
            }
            off = off * dim + ix;
            debug_assert!(i < self.shape.len());
        }
        Ok(off)
    }

    /// Borrows row `r` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `r` is out of bounds; rows are a
    /// hot-path accessor so the check is an assertion rather than a `Result`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.rank(), 2, "row() requires a rank-2 tensor");
        let cols = self.shape[1];
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutably borrows row `r` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert_eq!(self.rank(), 2, "row_mut() requires a rank-2 tensor");
        let cols = self.shape[1];
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] when shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] when shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] when shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, "mul", |a, b| a * b)
    }

    fn zip_with(
        &self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::IncompatibleShapes {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
                op,
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor {
            data,
            shape: self.shape.clone(),
        })
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| x * s).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Minimum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for empty tensors.
    pub fn min(&self) -> Result<f32, TensorError> {
        if self.is_empty() {
            return Err(TensorError::Empty);
        }
        Ok(self.data.iter().copied().fold(f32::INFINITY, f32::min))
    }

    /// Maximum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for empty tensors.
    pub fn max(&self) -> Result<f32, TensorError> {
        if self.is_empty() {
            return Err(TensorError::Empty);
        }
        Ok(self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max))
    }

    /// Arithmetic mean of all elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for empty tensors.
    pub fn mean(&self) -> Result<f32, TensorError> {
        if self.is_empty() {
            return Err(TensorError::Empty);
        }
        Ok(self.data.iter().sum::<f32>() / self.data.len() as f32)
    }

    /// Matrix multiplication of two rank-2 tensors: `(m,k) × (k,n) → (m,n)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] unless both operands are
    /// rank 2 and the inner dimensions agree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 2 || other.rank() != 2 || self.shape[1] != other.shape[0] {
            return Err(TensorError::IncompatibleShapes {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
                op: "matmul",
            });
        }
        let (m, k) = (self.shape[0], self.shape[1]);
        let n = other.shape[1];
        let mut out = vec![0.0f32; m * n];
        // i-k-j loop order keeps the inner loop streaming over contiguous
        // rows of `other`, which matters for the larger model configs.
        for i in 0..m {
            let arow = &self.data[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (p, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[p * n..(p + 1) * n];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Matrix-vector product of a rank-2 tensor with a vector: `(m,k) × (k,) → (m,)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] unless `self` is rank 2
    /// and `v.len()` equals the column count.
    pub fn matvec(&self, v: &[f32]) -> Result<Vec<f32>, TensorError> {
        if self.rank() != 2 || self.shape[1] != v.len() {
            return Err(TensorError::IncompatibleShapes {
                lhs: self.shape.clone(),
                rhs: vec![v.len()],
                op: "matvec",
            });
        }
        let (m, k) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m];
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data[i * k..(i + 1) * k];
            *o = dot(row, v);
        }
        Ok(out)
    }

    /// Matrix-vector product against *several* vectors at once:
    /// `(m,k) × n·(k,) → n·(m,)` — the batched-decode primitive.
    ///
    /// Each weight row is loaded once and dotted against every input
    /// before moving on, so (a) the row stays in L1 across the batch and
    /// (b) the `n` accumulator chains are independent, letting the FP
    /// adders pipeline instead of serializing on one dot's dependency
    /// chain. This is where batched decode gets its measured throughput:
    /// one weight sweep serves the whole batch, exactly like a GEMV
    /// widened into a GEMM on real hardware.
    ///
    /// Per input, the accumulation order is identical to
    /// [`Tensor::matvec`], so `matvec_batch(&[x])[0]` is bit-exact with
    /// `matvec(x)` and results never depend on the co-batched vectors.
    /// This is [`Tensor::matvec_batch_rows`] over every row.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] unless `self` is rank 2
    /// and every vector's length equals the column count.
    pub fn matvec_batch(&self, xs: &[&[f32]]) -> Result<Vec<Vec<f32>>, TensorError> {
        self.matvec_batch_rows(xs, 0..*self.shape.first().unwrap_or(&0))
    }

    /// [`Tensor::matvec_batch`] sharded across output rows on `rt` —
    /// the parallel form of the batched-decode primitive, and the
    /// one-shard case of [`Tensor::matvec_batch_shards`]: bit-exact with
    /// the serial kernel for every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] under the same
    /// conditions as [`Tensor::matvec_batch`].
    pub fn matvec_batch_on(
        &self,
        rt: &oaken_runtime::Runtime,
        xs: &[&[f32]],
    ) -> Result<Vec<Vec<f32>>, TensorError> {
        let all = 0..*self.shape.first().unwrap_or(&0);
        let mut shards = self.matvec_batch_shards(rt, xs, &[all])?;
        Ok(shards.pop().expect("one shard in, one shard out"))
    }

    /// The batched product with its output rows partitioned into
    /// `shards` (one contiguous row range per owner — a tensor-parallel
    /// rank, or the whole matrix): `out[s][i][li]` is row
    /// `shards[s].start + li` of `self · xs[i]`.
    ///
    /// The decomposition follows the runtime's determinism discipline:
    /// tasks form a fixed `(shard, sub-chunk of that shard's rows)` grid
    /// ([`oaken_runtime::chunk_range`]), each running
    /// [`Tensor::matvec_batch_rows`] on its own rows — every accumulation
    /// chain is row-local, so no reassociation is possible and every
    /// element is **bit-exact** with the serial [`Tensor::matvec_batch`]
    /// for every shard map, thread count and scheduling order. A shard's
    /// sub-chunks are concatenated in row order.
    ///
    /// Small products (or a serial `rt`) run one task per shard; the
    /// crossover is sized so the fork-join overhead never dominates.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] under the same
    /// conditions as [`Tensor::matvec_batch_rows`], for any shard.
    pub fn matvec_batch_shards(
        &self,
        rt: &oaken_runtime::Runtime,
        xs: &[&[f32]],
        shards: &[std::ops::Range<usize>],
    ) -> Result<Vec<Vec<Vec<f32>>>, TensorError> {
        let k = *self.shape.get(1).unwrap_or(&0);
        let tasks = shard_tasks(rt.threads(), k * xs.len(), shards);
        if let [(_, rows)] = tasks.as_slice() {
            // One shard, one task: nothing to fork or merge.
            return Ok(vec![self.matvec_batch_rows(xs, rows.clone())?]);
        }
        let partials = rt.map(tasks.len(), |t| {
            self.matvec_batch_rows(xs, tasks[t].1.clone())
        });
        let mut outs: Vec<Vec<Vec<f32>>> = Vec::with_capacity(shards.len());
        for ((s, _), partial) in tasks.iter().zip(partials) {
            let partial = partial?;
            if *s == outs.len() {
                outs.push(partial); // the shard's first (often only) sub-chunk
            } else {
                for (out, sub) in outs[*s].iter_mut().zip(partial) {
                    out.reserve_exact(shards[*s].len() - out.len());
                    out.extend_from_slice(&sub);
                }
            }
        }
        Ok(outs)
    }

    /// [`Tensor::matvec_batch`] restricted to a contiguous row range:
    /// `rows.len()` outputs per input, `outs[s][li] == matvec(xs[s])[rows.start + li]`.
    ///
    /// This is the one batched kernel: the full product is the range
    /// `0..m`, a thread's or a tensor-parallel rank's share is a
    /// sub-range. Every accumulation chain is row-local — a lone vector
    /// takes the [`Tensor::matvec`] dot path, several vectors interleave
    /// `MATVEC_CHUNK` accumulators per weight row in the same per-input
    /// order — so each produced element is **bit-exact** with the
    /// corresponding element of `matvec`, and concatenating the shards of
    /// any row partition reproduces the full product bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] unless `self` is rank 2,
    /// every vector's length equals the column count, and `rows` is within
    /// the row count.
    pub fn matvec_batch_rows(
        &self,
        xs: &[&[f32]],
        rows: std::ops::Range<usize>,
    ) -> Result<Vec<Vec<f32>>, TensorError> {
        let m = *self.shape.first().unwrap_or(&0);
        if self.rank() != 2 || rows.start > rows.end || rows.end > m {
            return Err(TensorError::IncompatibleShapes {
                lhs: self.shape.clone(),
                rhs: vec![rows.start, rows.end],
                op: "matvec_batch_rows",
            });
        }
        for v in xs {
            if self.shape[1] != v.len() {
                return Err(TensorError::IncompatibleShapes {
                    lhs: self.shape.clone(),
                    rhs: vec![v.len()],
                    op: "matvec_batch_rows",
                });
            }
        }
        let k = self.shape[1];
        let rows_len = rows.len();
        let mut outs = vec![vec![0.0f32; rows_len]; xs.len()];
        let mut start = 0usize;
        while start < xs.len() {
            let n = (xs.len() - start).min(MATVEC_CHUNK);
            if n == 1 {
                // A lone vector gains nothing from interleaving; take the
                // single-sequence dot path (identical accumulation order).
                let x = &xs[start][..k];
                for (li, i) in rows.clone().enumerate() {
                    outs[start][li] = dot(&self.data[i * k..(i + 1) * k], x);
                }
                start += 1;
                continue;
            }
            // Re-slice each input to exactly `k` elements so the indexed
            // loads below are provably in bounds and check-free.
            let mut chunk = [&[] as &[f32]; MATVEC_CHUNK];
            for (c, x) in chunk[..n].iter_mut().zip(&xs[start..start + n]) {
                *c = &x[..k];
            }
            for (li, i) in rows.clone().enumerate() {
                let row = &self.data[i * k..(i + 1) * k];
                let mut acc = [0.0f32; MATVEC_CHUNK];
                for (j, &w) in row.iter().enumerate() {
                    for (a, x) in acc[..n].iter_mut().zip(&chunk[..n]) {
                        *a += w * x[j];
                    }
                }
                for (s, &a) in acc[..n].iter().enumerate() {
                    outs[start + s][li] = a;
                }
            }
            start += n;
        }
        Ok(outs)
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] for non-rank-2 tensors.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::IncompatibleShapes {
                lhs: self.shape.clone(),
                rhs: vec![],
                op: "transpose",
            });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }
}

impl Default for Tensor {
    /// The default tensor is a rank-1 empty tensor.
    fn default() -> Self {
        Tensor {
            data: Vec::new(),
            shape: vec![0],
        }
    }
}

/// Sequences interleaved per weight row by [`Tensor::matvec_batch`]:
/// enough independent FP-add chains to hide the add latency, few enough
/// that the accumulators stay in registers.
const MATVEC_CHUNK: usize = 8;

/// Minimum `rows × k × batch` product for [`Tensor::matvec_batch_shards`]
/// to split a shard's rows: below this the fork-join round trip costs more than the
/// multiply loop it would split.
const PAR_MATVEC_MIN_FLOPS: usize = 16 * 1024;

/// Row-range tasks per thread for the sharded matvec (over all shards):
/// enough slack that a thread finishing early steals remaining chunks
/// instead of idling.
const PAR_MATVEC_TASKS_PER_THREAD: usize = 4;

/// The task grid of [`Tensor::matvec_batch_shards`]: every shard's rows
/// split into equal sub-chunks, `(shard, rows)` in shard-then-row order —
/// a function of the problem shape and thread count alone. One task per
/// shard when `threads == 1` or the product (`flops_per_row` per output
/// row) is below the crossover; otherwise the per-thread task budget is
/// divided across the shards.
fn shard_tasks(
    threads: usize,
    flops_per_row: usize,
    shards: &[std::ops::Range<usize>],
) -> Vec<(usize, std::ops::Range<usize>)> {
    let rows: usize = shards.iter().map(|s| s.len()).sum();
    // The fork-join pays off only when every thread gets real work.
    let per_shard = if threads == 1 || rows * flops_per_row < PAR_MATVEC_MIN_FLOPS {
        1
    } else {
        (threads * PAR_MATVEC_TASKS_PER_THREAD).div_ceil(shards.len())
    };
    let mut tasks = Vec::new();
    for (s, shard) in shards.iter().enumerate() {
        let parts = per_shard.min(shard.len()).max(1);
        tasks.extend((0..parts).map(|p| {
            let sub = oaken_runtime::chunk_range(p, shard.len(), parts);
            (s, shard.start + sub.start..shard.start + sub.end)
        }));
    }
    tasks
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics (via `debug_assert!`) in debug builds when lengths differ; in
/// release builds the shorter length wins.
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_shape() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(&[2, 2]);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let f = Tensor::full(&[2, 2], 3.5);
        assert!(f.as_slice().iter().all(|&x| x == 3.5));
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let i3 = Tensor::eye(3);
        let c = a.matmul(&i3).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::IncompatibleShapes { op: "matmul", .. })
        ));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let v = vec![1.0, 0.5, -1.0];
        let got = a.matvec(&v).unwrap();
        let vm = Tensor::from_vec(v.clone(), &[3, 1]).unwrap();
        let want = a.matmul(&vm).unwrap();
        assert_eq!(got, want.as_slice());
    }

    #[test]
    fn matvec_batch_rows_bit_exact_with_full_product() {
        // Row shards concatenated in rank order must reproduce the full
        // batched product bit-for-bit — the tensor-parallel invariant.
        let (m, k) = (13, 29);
        let data: Vec<f32> = (0..m * k)
            .map(|i| ((i * 2654435761) % 991) as f32 / 127.0 - 3.9)
            .collect();
        let a = Tensor::from_vec(data, &[m, k]).unwrap();
        for n in [1usize, 2, 9] {
            let xs: Vec<Vec<f32>> = (0..n)
                .map(|s| {
                    (0..k)
                        .map(|j| ((s * 37 + j * 11) % 29) as f32 / 9.0 - 1.4)
                        .collect()
                })
                .collect();
            let refs: Vec<&[f32]> = xs.iter().map(|v| v.as_slice()).collect();
            let full = a.matvec_batch(&refs).unwrap();
            for ranks in [1usize, 2, 3, 5] {
                for r in 0..ranks {
                    let rows = oaken_runtime::chunk_range(r, m, ranks);
                    let shard = a.matvec_batch_rows(&refs, rows.clone()).unwrap();
                    for s in 0..n {
                        for (li, i) in rows.clone().enumerate() {
                            assert_eq!(
                                shard[s][li].to_bits(),
                                full[s][i].to_bits(),
                                "seq {s} row {i} rank {r}/{ranks}"
                            );
                        }
                    }
                }
            }
        }
        // Range validation.
        let x = vec![0.0f32; k];
        assert!(a.matvec_batch_rows(&[&x], 5..20).is_err());
    }

    #[test]
    fn matvec_batch_bit_exact_with_matvec() {
        // 3 rows × 17 cols with awkward values so any reassociation of the
        // accumulation order would change the bits.
        let k = 17;
        let data: Vec<f32> = (0..3 * k)
            .map(|i| ((i * 2654435761) % 997) as f32 / 131.0 - 3.7)
            .collect();
        let a = Tensor::from_vec(data, &[3, k]).unwrap();
        // 11 vectors crosses the interleave-chunk boundary.
        let xs: Vec<Vec<f32>> = (0..11)
            .map(|s| {
                (0..k)
                    .map(|j| ((s * 31 + j * 7) % 23) as f32 / 7.0 - 1.5)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f32]> = xs.iter().map(|v| v.as_slice()).collect();
        let batch = a.matvec_batch(&refs).unwrap();
        assert_eq!(batch.len(), 11);
        for (s, x) in xs.iter().enumerate() {
            let single = a.matvec(x).unwrap();
            let sb: Vec<u32> = single.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = batch[s].iter().map(|v| v.to_bits()).collect();
            assert_eq!(sb, bb, "sequence {s} diverged");
        }
    }

    /// The row-sharded parallel kernel must reproduce the serial kernel's
    /// bits for every thread count: all accumulation chains are row-local,
    /// so the decomposition cannot reassociate anything.
    #[test]
    fn matvec_batch_on_bit_exact_with_serial_for_any_thread_count() {
        let (m, k) = (67, 33); // awkward odd shapes, above the crossover
        let data: Vec<f32> = (0..m * k)
            .map(|i| ((i * 2654435761) % 1009) as f32 / 97.0 - 5.1)
            .collect();
        let a = Tensor::from_vec(data, &[m, k]).unwrap();
        let xs: Vec<Vec<f32>> = (0..13)
            .map(|s| {
                (0..k)
                    .map(|j| ((s * 13 + j * 5) % 37) as f32 / 9.0 - 2.0)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f32]> = xs.iter().map(|v| v.as_slice()).collect();
        let serial = a.matvec_batch(&refs).unwrap();
        for threads in [2usize, 3, 4, 8] {
            let rt = oaken_runtime::Runtime::new(threads);
            let par = a.matvec_batch_on(&rt, &refs).unwrap();
            for (s, (x, y)) in serial.iter().zip(&par).enumerate() {
                let xb: Vec<u32> = x.iter().map(|v| v.to_bits()).collect();
                let yb: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
                assert_eq!(xb, yb, "sequence {s} diverged at {threads} threads");
            }
        }
        // The serial runtime goes through the serial kernel verbatim.
        let rt1 = oaken_runtime::Runtime::serial();
        assert_eq!(a.matvec_batch_on(&rt1, &refs).unwrap(), serial);

        // Rank row ranges × thread sub-chunks: uneven shard maps (67 rows
        // over 2, 3, 5 owners), batches that cross the interleave chunk
        // (13 = 8 + 5, 9 = 8 + a lone tail) and a lone vector — every
        // element must carry `matvec`'s bits whichever task computed it.
        for n in [13usize, 9, 1] {
            let want: Vec<Vec<f32>> = xs[..n].iter().map(|x| a.matvec(x).unwrap()).collect();
            for ranks in [1usize, 2, 3, 5] {
                let shards: Vec<_> = (0..ranks)
                    .map(|r| oaken_runtime::chunk_range(r, m, ranks))
                    .collect();
                for threads in [1usize, 2, 3, 4, 8] {
                    let rt = oaken_runtime::Runtime::new(threads);
                    let got = a.matvec_batch_shards(&rt, &refs[..n], &shards).unwrap();
                    assert_eq!(got.len(), ranks);
                    for (rows, shard) in shards.iter().zip(&got) {
                        assert_eq!(shard.len(), n);
                        for (s, out) in shard.iter().enumerate() {
                            let gb: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                            let wb: Vec<u32> =
                                want[s][rows.clone()].iter().map(|v| v.to_bits()).collect();
                            assert_eq!(
                                gb, wb,
                                "input {s} rows {rows:?}: {ranks} ranks, {threads} threads, batch {n}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The `(shard, sub-chunk)` grid: one shard on 4 threads keeps the
    /// `matvec_batch_on` fan-out (4 tasks per thread), N shards divide the
    /// same budget so threads beyond the rank count are used, and small
    /// products or a serial runtime run one task per shard.
    #[test]
    fn shard_tasks_divide_the_thread_budget_across_shards() {
        let big = PAR_MATVEC_MIN_FLOPS; // per output row: always above the crossover
        let whole = 0..64;
        let one = shard_tasks(4, big, std::slice::from_ref(&whole));
        assert_eq!(one.len(), 4 * PAR_MATVEC_TASKS_PER_THREAD);
        assert_eq!(one[0], (0, 0..4));
        assert_eq!(one.last().unwrap(), &(0, 60..64));
        // Two uneven ranks on 4 threads: 8 sub-chunks each, in rank order,
        // covering exactly the rank's rows.
        let two = shard_tasks(4, big, &[0..34, 34..67]);
        assert_eq!(two.len(), 16);
        for (r, rows) in [(0usize, 0..34), (1, 34..67)] {
            let mine: Vec<_> = two.iter().filter(|t| t.0 == r).collect();
            assert_eq!(mine.len(), 8);
            assert_eq!(mine[0].1.start, rows.start);
            assert_eq!(mine[7].1.end, rows.end);
            assert!(mine.windows(2).all(|w| w[0].1.end == w[1].1.start));
        }
        // Fewer rows than the budget: one task per row, never an empty one.
        assert_eq!(shard_tasks(8, big, &[0..3, 3..5]).len(), 5);
        // Below the crossover, or serial: one task per shard.
        assert_eq!(shard_tasks(4, 1, &[0..34, 34..67]).len(), 2);
        assert_eq!(shard_tasks(1, big, &[0..34, 34..67]).len(), 2);
    }

    #[test]
    fn matvec_batch_on_checks_shapes() {
        let a = Tensor::zeros(&[64, 64]);
        let good = [0.0f32; 64];
        let bad = [0.0f32; 63];
        let rt = oaken_runtime::Runtime::new(2);
        let xs: Vec<&[f32]> = (0..7)
            .map(|i| if i == 5 { &bad[..] } else { &good[..] })
            .collect();
        assert!(a.matvec_batch_on(&rt, &xs).is_err());
        assert!(a.matvec_batch_on(&rt, &[]).unwrap().is_empty());
    }

    #[test]
    fn matvec_batch_checks_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let good = [0.0f32; 3];
        let bad = [0.0f32; 2];
        assert!(a.matvec_batch(&[&good, &bad]).is_err());
        assert!(a.matvec_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set(&[1, 2, 3], 9.0).unwrap();
        assert_eq!(t.get(&[1, 2, 3]).unwrap(), 9.0);
        assert!(t.get(&[2, 0, 0]).is_err());
        assert!(t.get(&[0, 0]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![-1.0, 4.0, 2.0], &[3]).unwrap();
        assert_eq!(t.min().unwrap(), -1.0);
        assert_eq!(t.max().unwrap(), 4.0);
        assert!((t.mean().unwrap() - 5.0 / 3.0).abs() < 1e-6);
        let e = Tensor::default();
        assert!(matches!(e.min(), Err(TensorError::Empty)));
    }

    #[test]
    fn rows_of_rank2() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(t.row(0), &[1.0, 2.0]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = t.reshape(&[4]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[3]).is_err());
    }

    #[test]
    fn error_display_is_lowercase() {
        let e = TensorError::Empty.to_string();
        assert!(e.starts_with(|c: char| c.is_lowercase()));
        assert!(!e.ends_with('.'));
    }
}
