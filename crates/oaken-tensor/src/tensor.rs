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
/// autodiff framework. All operations are implemented in safe Rust, with
/// one exception: the `std::arch` lanes of the batched weight sweep
/// ([`Tensor::matvec_batch_rows`], `simd` feature only), whose
/// `#[target_feature]` entry points and register loads and stores are
/// `unsafe`.
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
    /// One sweep over the weights serves the whole batch: the inputs sit in
    /// the lanes of a vector register, each weight is broadcast against
    /// them, and a block of rows is read from memory once however wide the
    /// step is — a GEMV widened into a GEMM, exactly as on real hardware.
    /// See [`Tensor::matvec_batch_rows`] for the kernel.
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
    /// the inputs are interleaved into lanes once, then tasks form a fixed
    /// `(shard, sub-chunk of that shard's rows)` grid
    /// ([`oaken_runtime::chunk_range`]), each running the kernel of
    /// [`Tensor::matvec_batch_rows`] on its own rows — every accumulation
    /// chain is one (row, input) pair's, so no reassociation is possible
    /// and every element is **bit-exact** with the serial
    /// [`Tensor::matvec_batch`] for every shard map, thread count and
    /// scheduling order. A shard's sub-chunks are concatenated in row
    /// order.
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
        let k = self.check_sweep(xs, shards)?;
        let inputs = LaneInputs::new(Lane::for_width(xs.len()), xs, k);
        // Multiply-adds the kernel executes per output row, padding lanes
        // included: what a task's time is proportional to.
        let (threads, flops_per_row) = (rt.threads(), inputs.xt.len());
        if let [rows] = shards {
            if parts_per_shard(threads, flops_per_row, shards).min(rows.len()) <= 1 {
                // One shard, one task: nothing to fork or merge.
                return Ok(vec![self.sweep_rows(&inputs, rows.clone())]);
            }
        }
        let tasks = shard_tasks(threads, flops_per_row, shards);
        let partials = rt.map(tasks.len(), |t| {
            self.sweep_rows(&inputs, tasks[t].1.clone())
        });
        let mut outs: Vec<Vec<Vec<f32>>> = Vec::with_capacity(shards.len());
        for ((s, _), partial) in tasks.iter().zip(partials) {
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
    /// This is the one batched kernel — the full product is the range
    /// `0..m`, a thread's or a tensor-parallel rank's share is a sub-range
    /// — and its vector lanes run across the **inputs**, never along a
    /// row. The inputs are interleaved lane-major once (`xt[j][lane]`,
    /// absent lanes zero); then, for a block of weight rows at a time, one
    /// vector accumulator per row takes `acc[r] = acc[r] + splat(w[r][j])
    /// · xt[j]` for `j` in index order. A lane is therefore one serial
    /// multiply-then-add chain over `k` (no fused multiply-add), started
    /// from `-0.0` like the sum in [`Tensor::matvec`]: each produced
    /// element is **bit-exact** with the corresponding element of `matvec`
    /// whatever the step width, the co-batched vectors, the row range or
    /// the lane width, with or without the `simd` feature, and
    /// concatenating the shards of any row partition reproduces the full
    /// product bit-for-bit. Lanes never mix, so whatever a padding lane
    /// computes (`w · 0.0` is NaN for an infinite weight) stays in it and
    /// is never stored.
    ///
    /// Rows iterate outermost and lane-width groups of inputs innermost,
    /// so a row block comes from memory once per call and every group
    /// after the first reads it from L1.
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
        let k = self.check_sweep(xs, std::slice::from_ref(&rows))?;
        let inputs = LaneInputs::new(Lane::for_width(xs.len()), xs, k);
        Ok(self.sweep_rows(&inputs, rows))
    }

    /// The column count, if the sweep is well-formed: `self` rank 2, every
    /// range of `shards` within its rows, every input as long as a row.
    fn check_sweep(
        &self,
        xs: &[&[f32]],
        shards: &[std::ops::Range<usize>],
    ) -> Result<usize, TensorError> {
        let bad = |rhs: Vec<usize>| TensorError::IncompatibleShapes {
            lhs: self.shape.clone(),
            rhs,
            op: "matvec_batch_rows",
        };
        let &[m, k] = self.shape.as_slice() else {
            return Err(bad(vec![]));
        };
        if let Some(rows) = shards.iter().find(|r| r.start > r.end || r.end > m) {
            return Err(bad(vec![rows.start, rows.end]));
        }
        match xs.iter().find(|x| x.len() != k) {
            Some(x) => Err(bad(vec![x.len()])),
            None => Ok(k),
        }
    }

    /// Runs the lane `inputs` was interleaved for over `rows` (validated
    /// by the caller): `outs[s][li]` is row `rows.start + li` of
    /// `self · xs[s]`.
    fn sweep_rows(&self, inputs: &LaneInputs, rows: std::ops::Range<usize>) -> Vec<Vec<f32>> {
        match inputs.lane {
            Lane::Portable => self.sweep(
                inputs,
                rows,
                block_portable::<PORTABLE_LANES, PORTABLE_ROWS>,
            ),
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            Lane::Avx2 => self.sweep(inputs, rows, |rows, xt, acc| {
                // SAFETY: `Lane::Avx2` only exists behind the `avx2` probe.
                unsafe { simd::block_avx2(rows, xt, acc) }
            }),
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            Lane::Avx512 => self.sweep(inputs, rows, |rows, xt, acc| {
                // SAFETY: `Lane::Avx512` only exists behind the `avx512f` probe.
                unsafe { simd::block_avx512(rows, xt, acc) }
            }),
        }
    }

    /// The lane-independent part of the kernel: walks `rows` in blocks of
    /// `R`, hands each block and each `L`-input group of `inputs` to
    /// `block` (which fills `acc[r][lane]`), and scatters the real lanes
    /// into the per-input outputs. A short last block repeats its final
    /// row so `block` always gets `R` rows; the repeats are not stored.
    fn sweep<const L: usize, const R: usize>(
        &self,
        inputs: &LaneInputs,
        rows: std::ops::Range<usize>,
        block: impl Fn(&[&[f32]; R], &[f32], &mut [[f32; L]; R]),
    ) -> Vec<Vec<f32>> {
        debug_assert_eq!(inputs.lane.width(), L);
        let k = inputs.k;
        let mut outs = vec![vec![0.0f32; rows.len()]; inputs.n];
        let mut acc = [[0.0f32; L]; R];
        for base in rows.clone().step_by(R) {
            let real = R.min(rows.end - base);
            let block_rows: [&[f32]; R] = std::array::from_fn(|r| {
                let i = base + r.min(real - 1);
                &self.data[i * k..(i + 1) * k]
            });
            for (group, outs) in outs.chunks_mut(L).enumerate() {
                block(
                    &block_rows,
                    &inputs.xt[group * k * L..(group + 1) * k * L],
                    &mut acc,
                );
                for (lane, out) in outs.iter_mut().enumerate() {
                    for (o, a) in out[base - rows.start..][..real].iter_mut().zip(&acc) {
                        *o = a[lane];
                    }
                }
            }
        }
        outs
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

/// Which instance of the input-lane kernel a sweep runs: the portable
/// `[f32; L]` body — the reference, and the only one without the `simd`
/// feature or off x86-64 — or one of the two `std::arch` bodies in
/// `mod simd`. All three produce the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Portable,
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx2,
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx512,
}

/// Inputs per group and rows per block of the portable lane, by
/// measurement on the reference host (baseline x86-64, so 128-bit
/// registers): see the feature-off table in ARCHITECTURE.md.
const PORTABLE_LANES: usize = 4;
const PORTABLE_ROWS: usize = 4;

impl Lane {
    /// The lane for a step `width` inputs wide: eight lanes cover a decode
    /// batch, sixteen halve the groups of anything wider. The CPU probe is
    /// one-time (std caches CPUID), and the only way a `std::arch` lane
    /// comes to exist outside the lane-parity test, which probes too.
    fn for_width(width: usize) -> Lane {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        match width {
            9.. if is_x86_feature_detected!("avx512f") => return Lane::Avx512,
            _ if is_x86_feature_detected!("avx2") => return Lane::Avx2,
            _ => {}
        }
        let _ = width; // the portable lane serves every width
        Lane::Portable
    }

    /// Inputs per group (`L`).
    fn width(self) -> usize {
        match self {
            Lane::Portable => PORTABLE_LANES,
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            Lane::Avx2 => 8,
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            Lane::Avx512 => 16,
        }
    }
}

/// A step's inputs interleaved for `lane`: group `g` (inputs `g·L ..`)
/// occupies `xt[g·k·L ..][.. k·L]` as `[j][lane]`, lanes past the last
/// input zero. Built once per call and shared by every task.
struct LaneInputs {
    lane: Lane,
    /// Real inputs (`xs.len()`).
    n: usize,
    k: usize,
    xt: Vec<f32>,
}

impl LaneInputs {
    /// Interleaves `xs`, each of length `k`.
    fn new(lane: Lane, xs: &[&[f32]], k: usize) -> Self {
        let l = lane.width();
        let mut xt = vec![0.0f32; xs.len().div_ceil(l) * k * l];
        for (s, x) in xs.iter().enumerate() {
            let group = &mut xt[s / l * k * l..];
            for (j, &v) in x.iter().enumerate() {
                group[j * l + s % l] = v;
            }
        }
        Self {
            lane,
            n: xs.len(),
            k,
            xt,
        }
    }
}

/// The portable lane body: `acc[r][lane]` becomes the dot product of
/// `rows[r]` with input `lane` of the group interleaved in `xt`
/// (`xt.len() == k · L`), each a serial multiply-then-add chain from
/// `-0.0` in index order.
fn block_portable<const L: usize, const R: usize>(
    rows: &[&[f32]; R],
    xt: &[f32],
    out: &mut [[f32; L]; R],
) {
    let rows = rows.map(|row| &row[..xt.len() / L]);
    let mut acc = [[-0.0f32; L]; R];
    for (j, x) in xt.as_chunks::<L>().0.iter().enumerate() {
        for (a, row) in acc.iter_mut().zip(&rows) {
            let w = row[j];
            for (a, &x) in a.iter_mut().zip(x) {
                *a += w * x;
            }
        }
    }
    *out = acc;
}

/// The `std::arch` lane bodies, enabled by the `simd` cargo feature on
/// x86-64 and selected at runtime: [`block_portable`] written with
/// explicit broadcast / multiply / add intrinsics (never a fused
/// multiply-add), eight inputs to a 256-bit register or sixteen to a
/// 512-bit one. Same chains, same bits; only the speed differs.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd {
    use std::arch::x86_64::*;

    /// Rows per block: enough independent add chains to cover the FP add
    /// latency on both ports, few enough row streams for the prefetcher
    /// (2, 6, 8 and 12 all measured slower at some width).
    pub(super) const ROWS: usize = 4;

    macro_rules! lane_block {
        ($name:ident, $feature:literal, $lanes:literal,
         $set1:ident, $loadu:ident, $mul:ident, $add:ident, $storeu:ident) => {
            /// [`super::block_portable`] for this register width.
            ///
            /// # Safety
            ///
            /// The CPU must support the lane's target feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn $name(
                rows: &[&[f32]; ROWS],
                xt: &[f32],
                out: &mut [[f32; $lanes]; ROWS],
            ) {
                // Re-sliced to exactly `k`, so `row[j]` below is check-free
                // (in a loop: an `array::map` closure does not inline into
                // a `#[target_feature]` function and the lengths are lost).
                let k = xt.len() / $lanes;
                let mut rows = *rows;
                for row in &mut rows {
                    *row = &row[..k];
                }
                let mut acc = [$set1(-0.0); ROWS];
                for (j, x) in xt.as_chunks::<$lanes>().0.iter().enumerate() {
                    // SAFETY: `x` is one register's worth of floats.
                    let x = unsafe { $loadu(x.as_ptr()) };
                    for (a, row) in acc.iter_mut().zip(&rows) {
                        *a = $add(*a, $mul($set1(row[j]), x));
                    }
                }
                for (o, a) in out.iter_mut().zip(acc) {
                    // SAFETY: `o` is one register's worth of floats.
                    unsafe { $storeu(o.as_mut_ptr(), a) };
                }
            }
        };
    }

    lane_block!(
        block_avx2,
        "avx2",
        8,
        _mm256_set1_ps,
        _mm256_loadu_ps,
        _mm256_mul_ps,
        _mm256_add_ps,
        _mm256_storeu_ps
    );
    lane_block!(
        block_avx512,
        "avx512f",
        16,
        _mm512_set1_ps,
        _mm512_loadu_ps,
        _mm512_mul_ps,
        _mm512_add_ps,
        _mm512_storeu_ps
    );
}

/// Minimum multiply-adds a [`Tensor::matvec_batch_shards`] call executes
/// (`rows × k × width`, the width rounded up to whole lane groups — what
/// the kernel's time is proportional to) for a shard's rows to be split:
/// below this, forking, allocating each task's outputs and concatenating
/// them costs more than the sweep it would split.
///
/// Measured on the reference host (2 vCPUs sharing a core, `simd` lanes,
/// 2 threads, best of 3000, always-split against serial): the split path
/// costs 1.4 µs at width 1, 3.6 µs at width 8 and 25 µs at width 64 before
/// any useful work, and the kernel retires ≈ 26 G multiply-adds/s. Split ÷
/// serial time by multiply-adds executed — widths 1 / 8: 0.25 Mi 1.12 /
/// 1.60, 0.5 Mi 0.94 / 1.25, 1.3 Mi 0.87 / 0.92; width 64: 1 Mi 1.48, 2 Mi
/// 0.98, 10.8 Mi 0.63. Splitting starts to pay between 0.5 and 2 Mi,
/// ≈ 40 µs of sweep (the scalar kernel's 16 Ki is 0.6 µs of this one).
const PAR_MATVEC_MIN_FLOPS: usize = 1 << 20;

/// Row-range tasks per thread for the sharded matvec (over all shards):
/// enough slack that a thread finishing early steals remaining chunks
/// instead of idling.
const PAR_MATVEC_TASKS_PER_THREAD: usize = 4;

/// Sub-chunks each shard's rows are split into (before the cap at one row
/// per task): one when `threads == 1` or the product (`flops_per_row` per
/// output row) is below the crossover; otherwise the per-thread task
/// budget divided across the shards.
fn parts_per_shard(
    threads: usize,
    flops_per_row: usize,
    shards: &[std::ops::Range<usize>],
) -> usize {
    let rows: usize = shards.iter().map(|s| s.len()).sum();
    // The fork-join pays off only when every thread gets real work.
    if threads == 1 || rows * flops_per_row < PAR_MATVEC_MIN_FLOPS {
        1
    } else {
        (threads * PAR_MATVEC_TASKS_PER_THREAD).div_ceil(shards.len())
    }
}

/// The task grid of [`Tensor::matvec_batch_shards`]: every shard's rows
/// split into [`parts_per_shard`] equal sub-chunks, `(shard, rows)` in
/// shard-then-row order — a function of the problem shape and thread
/// count alone. Any row range is a legal task: the kernel has no panel
/// to snap to.
fn shard_tasks(
    threads: usize,
    flops_per_row: usize,
    shards: &[std::ops::Range<usize>],
) -> Vec<(usize, std::ops::Range<usize>)> {
    let per_shard = parts_per_shard(threads, flops_per_row, shards);
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn awkward_matrix(m: usize, k: usize) -> Tensor {
        let data = (0..m * k)
            .map(|i| ((i * 2654435761) % 1013) as f32 / 113.0 - 4.3)
            .collect();
        Tensor::from_vec(data, &[m, k]).unwrap()
    }

    fn awkward_inputs(n: usize, k: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|s| {
                (0..k)
                    .map(|j| ((s * 41 + j * 13) % 31) as f32 / 11.0 - 1.3)
                    .collect()
            })
            .collect()
    }

    /// Every (row, input) chain starts from `-0.0`, the identity
    /// `matvec`'s sum starts from, so a row whose products are all `-0.0`
    /// — or an empty row — is `-0.0` alone and in any batch. The scalar
    /// kernel this lane kernel replaced started co-batched chains from
    /// `+0.0` and a lone one from `-0.0`: `matvec_batch(&[x, y])[0]`
    /// differed from `matvec(x)` in the sign bit.
    #[test]
    fn negative_zero_rows_do_not_depend_on_the_batch() {
        // An all-zero input (a ReLU hidden vector) against an all-negative
        // row: every product is `-0.0`.
        let a = Tensor::from_vec(vec![-1.0, -2.0, -3.0, 0.5, -0.25, 4.0], &[2, 3]).unwrap();
        let no_columns = Tensor::zeros(&[3, 0]);
        let zero = [0.0f32; 3];
        let other = [1.0f32, -2.0, 0.5];
        assert_eq!(bits(&a.matvec(&zero).unwrap()), bits(&[-0.0, 0.0]));
        assert_eq!(bits(&no_columns.matvec(&[]).unwrap()), bits(&[-0.0; 3]));
        for width in [1usize, 2, 9, 17] {
            let mut xs: Vec<&[f32]> = vec![&other; width];
            xs[0] = &zero;
            let batch = a.matvec_batch(&xs).unwrap();
            for (x, got) in xs.iter().zip(&batch) {
                assert_eq!(bits(got), bits(&a.matvec(x).unwrap()), "width {width}");
            }
            let empties: Vec<&[f32]> = vec![&[]; width];
            for got in no_columns.matvec_batch(&empties).unwrap() {
                assert_eq!(bits(&got), bits(&[-0.0; 3]), "k = 0, width {width}");
            }
        }
    }

    /// The lanes this build compiled and this CPU runs: the portable body
    /// always, the two `std::arch` bodies under the `simd` feature.
    fn runnable_lanes() -> Vec<Lane> {
        #[allow(unused_mut)]
        let mut lanes = vec![Lane::Portable];
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            if is_x86_feature_detected!("avx2") {
                lanes.push(Lane::Avx2);
            }
            if is_x86_feature_detected!("avx512f") {
                lanes.push(Lane::Avx512);
            }
        }
        lanes
    }

    /// Lane parity: every runnable lane, forced onto the same inputs at
    /// widths on both sides of its group size, yields `matvec`'s bits —
    /// so the lanes agree with each other and the `simd` build with the
    /// portable one. 11 rows leave a short last block for every `R`.
    #[test]
    fn every_lane_produces_matvec_bits() {
        let (m, k) = (11, 37);
        let a = awkward_matrix(m, k);
        let xs = awkward_inputs(33, k);
        let want: Vec<Vec<f32>> = xs.iter().map(|x| a.matvec(x).unwrap()).collect();
        for lane in runnable_lanes() {
            for width in [1usize, 3, 4, 5, 8, 9, 16, 17, 33] {
                let refs: Vec<&[f32]> = xs[..width].iter().map(Vec::as_slice).collect();
                let inputs = LaneInputs::new(lane, &refs, k);
                for rows in [0..m, 1..m - 2, 6..7, 4..4] {
                    let got = a.sweep_rows(&inputs, rows.clone());
                    assert_eq!(got.len(), width);
                    for (out, want) in got.iter().zip(&want) {
                        assert_eq!(
                            bits(out),
                            bits(&want[rows.clone()]),
                            "{lane:?}, width {width}, rows {rows:?}"
                        );
                    }
                }
            }
        }
    }

    /// A product big enough to cross `PAR_MATVEC_MIN_FLOPS` has each
    /// shard's rows cut into sub-chunks at arbitrary (not block-aligned)
    /// rows, and the concatenation still carries `matvec`'s bits.
    #[test]
    fn sub_chunked_rows_above_the_crossover_keep_matvec_bits() {
        let (m, k, width) = (70, 513, 33);
        let a = awkward_matrix(m, k);
        let xs = awkward_inputs(width, k);
        let refs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
        let per_row = LaneInputs::new(Lane::for_width(width), &refs, k).xt.len();
        assert!(m * per_row >= PAR_MATVEC_MIN_FLOPS);
        let shards = [0..37, 37..m];
        assert_eq!(shard_tasks(4, per_row, &shards).len(), 16);
        let rt = oaken_runtime::Runtime::new(4);
        let whole = a.matvec_batch_on(&rt, &refs).unwrap();
        let split = a.matvec_batch_shards(&rt, &refs, &shards).unwrap();
        for (s, x) in xs.iter().enumerate() {
            let want = a.matvec(x).unwrap();
            assert_eq!(bits(&whole[s]), bits(&want), "input {s}");
            for (rows, shard) in shards.iter().zip(&split) {
                assert_eq!(bits(&shard[s]), bits(&want[rows.clone()]), "input {s}");
            }
        }
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
