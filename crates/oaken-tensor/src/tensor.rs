//! The [`Tensor`] type: a dense `f32` weight matrix stored in 16-row
//! panels, and the batched weight sweep over it.

use std::fmt;
use std::ops::Range;

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
    /// A shape is not `[rows, cols]`, or an operand does not fit the
    /// matrix it is combined with.
    IncompatibleShapes {
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
        /// Name of the operation that failed.
        op: &'static str,
    },
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
        }
    }
}

impl std::error::Error for TensorError {}

/// Output rows per panel of a [`Tensor`]: the vector lanes of the weight
/// sweep, one 512-bit register of `f32`.
const PANEL: usize = 16;

/// A dense `f32` matrix of shape `[rows, cols]`: a weight the model
/// sweeps over a batch.
///
/// The matrix is stored once, in 16-row **panels**: panel `p` holds
/// `w[16p + l][j]` at `[j][l]`, so the 16 weights of one panel column are
/// one vector register, one lane per output row. The last panel is padded
/// with zero rows, which no product ever stores. [`Tensor::from_vec`]
/// takes row-major data and packs it in place; nothing row-major survives
/// it.
///
/// `Tensor` deliberately stays small: it holds a projection, FFN or LM-head
/// weight and runs the matrix-vector products over it, nothing else. All
/// operations are implemented in safe Rust, with one exception: the
/// `std::arch` bodies of the batched weight sweep
/// ([`Tensor::matvec_batch_rows`], `simd` feature only), whose register
/// loads and stores and whose dispatch are `unsafe`.
///
/// # Example
///
/// ```
/// use oaken_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// assert_eq!(t.matvec(&[0.0, 1.0, 0.0])?, vec![2.0, 5.0]);
/// # Ok::<(), oaken_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    /// `⌈rows / 16⌉` panels of `16 × cols` floats, `[j][l]` within each.
    data: Vec<f32>,
    shape: [usize; 2],
}

impl Tensor {
    /// Creates a `[rows, cols]` matrix from its row-major data, packing it
    /// into panels in place. This is the one place a shape is checked.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if `shape` is not
    /// two-dimensional, and [`TensorError::ShapeMismatch`] if `data.len()`
    /// does not equal `rows × cols`.
    pub fn from_vec(mut data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        let &[rows, cols] = shape else {
            return Err(TensorError::IncompatibleShapes {
                lhs: shape.to_vec(),
                rhs: vec![],
                op: "from_vec",
            });
        };
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        // Panel `p` spans the same elements as rows `16p .. 16p + 16`, so
        // each is transposed where it lies, through one panel of scratch.
        data.resize(rows.div_ceil(PANEL) * PANEL * cols, 0.0);
        if cols > 0 {
            let mut rows_of_panel = vec![0.0f32; PANEL * cols];
            for panel in data.chunks_exact_mut(PANEL * cols) {
                rows_of_panel.copy_from_slice(panel);
                for (l, row) in rows_of_panel.chunks_exact(cols).enumerate() {
                    for (j, &w) in row.iter().enumerate() {
                        panel[j * PANEL + l] = w;
                    }
                }
            }
        }
        Ok(Self {
            data,
            shape: [rows, cols],
        })
    }

    /// The matrix's shape, `[rows, cols]`.
    pub fn shape(&self) -> &[usize; 2] {
        &self.shape
    }

    /// Total number of elements, `rows × cols` (the padding rows of the
    /// last panel not counted).
    pub fn len(&self) -> usize {
        self.shape[0] * self.shape[1]
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Panel `p`: `16 × cols` floats, `[j][l]` = row `16p + l`, column `j`.
    fn panel(&self, p: usize) -> &[f32] {
        let size = PANEL * self.shape[1];
        &self.data[p * size..][..size]
    }

    /// Matrix-vector product: `(m,k) × (k,) → (m,)` — the reference chain.
    /// Element `i` is `Σ_j w[i][j] · v[j]` as one `Iterator::sum` over `j`
    /// in index order: a multiply, then an add, from `-0.0`. Every batched
    /// product reproduces these bits.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] unless `v.len()` equals
    /// the column count.
    pub fn matvec(&self, v: &[f32]) -> Result<Vec<f32>, TensorError> {
        let [m, k] = self.shape;
        if k != v.len() {
            return Err(TensorError::IncompatibleShapes {
                lhs: self.shape.to_vec(),
                rhs: vec![v.len()],
                op: "matvec",
            });
        }
        Ok((0..m)
            .map(|i| {
                let row = self.panel(i / PANEL).iter().skip(i % PANEL);
                row.step_by(PANEL).zip(v).map(|(&w, &x)| w * x).sum()
            })
            .collect())
    }

    /// Matrix-vector product against *several* vectors at once:
    /// `(m,k) × n·(k,) → n·(m,)` — the batched-decode primitive.
    ///
    /// One sweep over the weights serves the whole batch: each lane of a
    /// vector register is one output row of a panel, each input element
    /// is broadcast against a panel column, and a block of panels is
    /// swept once per group of inputs. See [`Tensor::matvec_batch_rows`]
    /// for the kernel.
    ///
    /// Per input, the accumulation order is identical to
    /// [`Tensor::matvec`], so `matvec_batch(&[x])[0]` is bit-exact with
    /// `matvec(x)` and results never depend on the co-batched vectors.
    /// This is [`Tensor::matvec_batch_rows`] over every row.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] unless every vector's
    /// length equals the column count.
    pub fn matvec_batch(&self, xs: &[&[f32]]) -> Result<Vec<Vec<f32>>, TensorError> {
        self.matvec_batch_rows(xs, 0..self.shape[0])
    }

    /// The batched product on `rt`, its output rows partitioned into
    /// `shards` (one contiguous row range per owner — a tensor-parallel
    /// rank, or the whole matrix):
    /// `out[s][i][li]` is row `shards[s].start + li` of `self · xs[i]`.
    ///
    /// The decomposition follows the runtime's determinism discipline:
    /// tasks form a fixed `(shard, sub-chunk of that shard's rows)` grid
    /// (sub-chunks cut on panel edges, [`oaken_runtime::chunk_range`] over
    /// the shard's panels), each running the kernel of
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
        shards: &[Range<usize>],
    ) -> Result<Vec<Vec<Vec<f32>>>, TensorError> {
        let k = self.check_sweep(xs, shards)?;
        let body = Body::widest();
        // Multiply-adds per output row: what a task's time is
        // proportional to.
        let (threads, flops_per_row) = (rt.threads(), k * xs.len());
        if let [rows] = shards {
            if parts_per_shard(threads, flops_per_row, shards).min(panels_of(rows).len()) <= 1 {
                // One shard, one task: nothing to fork or merge.
                return Ok(vec![self.sweep_rows(body, xs, rows.clone())]);
            }
        }
        let tasks = shard_tasks(threads, flops_per_row, shards);
        let partials = rt.map(tasks.len(), |t| {
            self.sweep_rows(body, xs, tasks[t].1.clone())
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
    /// — and its vector lanes run across the **output rows** of a panel.
    /// The inputs go in groups of up to eight; for each group, a block of
    /// `R` panels at a time is swept with one vector accumulator per
    /// (panel, input), `acc[r][g] = acc[r][g] + w[r][j] · splat(x[g][j])`
    /// for `j` in index order, where `w[r][j]` is column `j` of panel `r`.
    /// `R` follows the group's width so that a block always holds enough
    /// independent chains to cover the add latency, whatever the step
    /// width. A lane is therefore one serial multiply-then-add chain over
    /// `k` (no fused multiply-add), started from `-0.0` like the sum in
    /// [`Tensor::matvec`]: each produced element is **bit-exact** with the
    /// corresponding element of `matvec` whatever the step width, the
    /// co-batched vectors, the row range or the register body, with or
    /// without the `simd` feature, and concatenating the shards of any row
    /// partition reproduces the full product bit-for-bit. A range that
    /// starts or ends inside a panel computes the whole panel and stores
    /// only its own rows; lanes never mix, so whatever a padding row
    /// computes (`0.0 · x` is NaN for an infinite input) is never stored.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] unless every vector's
    /// length equals the column count and `rows` is within the row count.
    pub fn matvec_batch_rows(
        &self,
        xs: &[&[f32]],
        rows: Range<usize>,
    ) -> Result<Vec<Vec<f32>>, TensorError> {
        self.check_sweep(xs, std::slice::from_ref(&rows))?;
        Ok(self.sweep_rows(Body::widest(), xs, rows))
    }

    /// The column count, if the sweep is well-formed: every range of
    /// `shards` within the rows, every input as long as a row.
    fn check_sweep(&self, xs: &[&[f32]], shards: &[Range<usize>]) -> Result<usize, TensorError> {
        let bad = |rhs: Vec<usize>| TensorError::IncompatibleShapes {
            lhs: self.shape.to_vec(),
            rhs,
            op: "matvec_batch_rows",
        };
        let [m, k] = self.shape;
        if let Some(rows) = shards.iter().find(|r| r.start > r.end || r.end > m) {
            return Err(bad(vec![rows.start, rows.end]));
        }
        match xs.iter().find(|x| x.len() != k) {
            Some(x) => Err(bad(vec![x.len()])),
            None => Ok(k),
        }
    }

    /// The kernel on `body` over `rows` (validated by the caller):
    /// `outs[s][li]` is row `rows.start + li` of `self · xs[s]`. Input
    /// groups run outermost, each over every panel of `rows` in blocks
    /// of [`BLOCK_PANELS`] panels (fewer for the last).
    fn sweep_rows(&self, body: Body, xs: &[&[f32]], rows: Range<usize>) -> Vec<Vec<f32>> {
        let mut outs = vec![vec![0.0f32; rows.len()]; xs.len()];
        let panels = panels_of(&rows);
        for (xs, outs) in xs.chunks(GROUP).zip(outs.chunks_mut(GROUP)) {
            let mut p = panels.start;
            while p < panels.end {
                let r = BLOCK_PANELS[xs.len()].min(panels.end - p);
                // One arm per block shape the table can ask for.
                macro_rules! shapes {
                    ($($g:literal: $($r:literal)+;)+) => {
                        match (r, xs.len()) {
                            $($(($r, $g) => self.block::<$r, $g>(body, p, xs, &rows, outs),)+)+
                            _ => unreachable!("no {r} × {} block", xs.len()),
                        }
                    };
                }
                shapes! {
                    1: 1 2 3 4 5 6 7 8;
                    2: 1 2 3 4;
                    3: 1 2 3;
                    4: 1 2 3 4;
                    5: 1 2 3 4;
                    6: 1 2 3;
                    7: 1 2 3;
                    8: 1 2 3;
                }
                p += r;
            }
        }
        outs
    }

    /// One register block: panels `p .. p + R` against the `G` inputs
    /// `xs`, each panel's rows that fall in `rows` stored into `outs`.
    fn block<const R: usize, const G: usize>(
        &self,
        body: Body,
        p: usize,
        xs: &[&[f32]],
        rows: &Range<usize>,
        outs: &mut [Vec<f32>],
    ) {
        let xs: &[&[f32]; G] = xs.try_into().expect("a group of G inputs");
        let panels: [&[f32]; R] = std::array::from_fn(|r| self.panel(p + r));
        let mut acc = [[[0.0f32; PANEL]; G]; R];
        body.run(&panels, xs, &mut acc);
        for (r, acc) in acc.iter().enumerate() {
            let first = (p + r) * PANEL;
            let live = first.max(rows.start)..(first + PANEL).min(rows.end);
            for (out, lanes) in outs.iter_mut().zip(acc) {
                out[live.start - rows.start..live.end - rows.start]
                    .copy_from_slice(&lanes[live.start - first..live.end - first]);
            }
        }
    }
}

/// The panels a row range touches (none for an empty range).
fn panels_of(rows: &Range<usize>) -> Range<usize> {
    if rows.is_empty() {
        0..0
    } else {
        rows.start / PANEL..rows.end.div_ceil(PANEL)
    }
}

/// Inputs per group of the sweep: the widest register block.
const GROUP: usize = 8;

/// Panels per register block (`R`) for a group of `G` inputs, indexed by
/// `G`: `R × G` accumulators, enough independent add chains to cover the
/// latency of the add at every width, few enough to stay in the 32
/// AVX-512 registers beside the `R` panel loads. Measured on the
/// reference host: see § Weight sweep in ARCHITECTURE.md.
const BLOCK_PANELS: [usize; GROUP + 1] = [0, 8, 4, 3, 4, 4, 3, 3, 3];

/// Which instance of the panel kernel a sweep runs: the portable
/// `[f32; 16]` body — the reference, and the only one without the `simd`
/// feature or off x86-64 — or one of the two `std::arch` bodies in
/// `mod simd`. All three produce the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Body {
    Portable,
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx2,
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx512,
}

impl Body {
    /// The widest body this CPU runs. The probe is one-time (std caches
    /// CPUID), and the only way a `std::arch` body comes to exist outside
    /// the body-parity test, which probes too.
    fn widest() -> Body {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            if is_x86_feature_detected!("avx512f") {
                return Body::Avx512;
            }
            if is_x86_feature_detected!("avx2") {
                return Body::Avx2;
            }
        }
        Body::Portable
    }

    /// Fills `acc[r][g][l]` with row `l` of panel `panels[r]` · `xs[g]`.
    fn run<const R: usize, const G: usize>(
        self,
        panels: &[&[f32]; R],
        xs: &[&[f32]; G],
        acc: &mut [[[f32; PANEL]; G]; R],
    ) {
        match self {
            Body::Portable => block_portable(panels, xs, acc),
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            Body::Avx2 => {
                // SAFETY: `Body::Avx2` only exists behind the `avx2` probe.
                unsafe { simd::block_avx2(panels, xs, acc) }
            }
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            Body::Avx512 => {
                // SAFETY: `Body::Avx512` only exists behind the `avx512f` probe.
                unsafe { simd::block_avx512(panels, xs, acc) }
            }
        }
    }
}

/// The portable body: `out[r][g][l]` becomes the dot product of row `l`
/// of `panels[r]` (each `16 × k` floats) with `xs[g]` (each `k`), a
/// serial multiply-then-add chain from `-0.0` in index order. It runs one
/// (panel, input) pair at a time: sixteen lanes the auto-vectoriser keeps
/// in four 128-bit registers, where a whole `R × G` block of them spills
/// (3 GFLOP/s on the chat-proxy sweep, against 10–26 this way).
fn block_portable<const R: usize, const G: usize>(
    panels: &[&[f32]; R],
    xs: &[&[f32]; G],
    out: &mut [[[f32; PANEL]; G]; R],
) {
    let k = panels[0].len() / PANEL;
    for (out, panel) in out.iter_mut().zip(panels) {
        let columns = &panel.as_chunks::<PANEL>().0[..k];
        for (out, x) in out.iter_mut().zip(xs) {
            let mut acc = [-0.0f32; PANEL];
            for (w, &x) in columns.iter().zip(&x[..k]) {
                for (a, &w) in acc.iter_mut().zip(w) {
                    *a += w * x;
                }
            }
            *out = acc;
        }
    }
}

/// The `std::arch` bodies, enabled by the `simd` cargo feature on x86-64
/// and selected at runtime: [`block_portable`] written with explicit load
/// / broadcast / multiply / add / store intrinsics (never a fused
/// multiply-add), a panel column as two 256-bit registers or one 512-bit
/// one. Same chains, same bits; only the speed differs.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd {
    use super::PANEL;
    use std::arch::x86_64::*;

    macro_rules! panel_block {
        ($name:ident, $feature:literal, $lanes:literal,
         $set1:ident, $loadu:ident, $mul:ident, $add:ident, $storeu:ident) => {
            /// [`super::block_portable`] for this register width.
            #[target_feature(enable = $feature)]
            pub(super) fn $name<const R: usize, const G: usize>(
                panels: &[&[f32]; R],
                xs: &[&[f32]; G],
                out: &mut [[[f32; PANEL]; G]; R],
            ) {
                // Registers per panel column.
                const H: usize = PANEL / $lanes;
                // Re-sliced to exactly `k`, so the indexing below is
                // check-free (in loops: an `array::map` closure does not
                // inline into a `#[target_feature]` function and the
                // lengths are lost).
                let k = panels[0].len() / PANEL;
                let mut columns: [&[[f32; PANEL]]; R] = [&[]; R];
                for (c, p) in columns.iter_mut().zip(panels) {
                    *c = &p.as_chunks::<PANEL>().0[..k];
                }
                let mut inputs: [&[f32]; G] = [&[]; G];
                for (i, x) in inputs.iter_mut().zip(xs) {
                    *i = &x[..k];
                }
                let mut acc = [[[$set1(-0.0); H]; G]; R];
                for j in 0..k {
                    let mut x = [$set1(0.0); G];
                    for (x, input) in x.iter_mut().zip(&inputs) {
                        *x = $set1(input[j]);
                    }
                    for (acc, columns) in acc.iter_mut().zip(&columns) {
                        for (h, w) in columns[j].as_chunks::<$lanes>().0.iter().enumerate() {
                            // SAFETY: `w` is one register's worth of floats.
                            let w = unsafe { $loadu(w.as_ptr()) };
                            for (a, &x) in acc.iter_mut().zip(&x) {
                                a[h] = $add(a[h], $mul(w, x));
                            }
                        }
                    }
                }
                for (out, acc) in out.iter_mut().zip(&acc) {
                    for (out, acc) in out.iter_mut().zip(acc) {
                        for (o, &a) in out.as_chunks_mut::<$lanes>().0.iter_mut().zip(acc) {
                            // SAFETY: `o` is one register's worth of floats.
                            unsafe { $storeu(o.as_mut_ptr(), a) };
                        }
                    }
                }
            }
        };
    }

    panel_block!(
        block_avx2,
        "avx2",
        8,
        _mm256_set1_ps,
        _mm256_loadu_ps,
        _mm256_mul_ps,
        _mm256_add_ps,
        _mm256_storeu_ps
    );
    panel_block!(
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
/// (`rows × k × width`; no padding lanes, which the panel kernel no longer
/// has) for a shard's rows to be split: below this, forking, allocating
/// each task's outputs and concatenating them costs more than the sweep it
/// would split.
///
/// Measured on the reference host (2 vCPUs sharing a core, AVX-512F body,
/// 2 threads against the serial runtime, `k` = 256, best of 5 × 80 ms, two
/// runs): the panel kernel retires ≈ 24–30 G multiply-adds/s. Split ÷
/// serial time by multiply-adds executed — width 1: 0.25 Mi 1.31 / 1.41,
/// 0.5 Mi 0.67 / 1.07, 1 Mi 0.48 / 1.05; width 8: 1 Mi 1.20 / 1.10, 2 Mi
/// 0.87 / 1.03, 4 Mi 0.74 / 1.07, 8 Mi 0.63 / 0.61; width 64: 2 Mi 1.18 /
/// 1.49, 4 Mi 0.83 / 0.92, 8 Mi 0.71 / 0.65. Splitting pays reliably from
/// 4 Mi, ≈ 150 µs of sweep (the input-lane kernel this one replaced
/// crossed at 1 Mi, at half the rate).
const PAR_MATVEC_MIN_FLOPS: usize = 1 << 22;

/// Row-range tasks per thread for the sharded matvec (over all shards):
/// enough slack that a thread finishing early steals remaining chunks
/// instead of idling.
const PAR_MATVEC_TASKS_PER_THREAD: usize = 4;

/// Sub-chunks each shard's rows are split into (before the cap at one
/// panel per task): one when `threads == 1` or the product
/// (`flops_per_row` per output row) is below the crossover; otherwise the
/// per-thread task budget divided across the shards.
fn parts_per_shard(threads: usize, flops_per_row: usize, shards: &[Range<usize>]) -> usize {
    let rows: usize = shards.iter().map(|s| s.len()).sum();
    // The fork-join pays off only when every thread gets real work.
    if threads == 1 || rows * flops_per_row < PAR_MATVEC_MIN_FLOPS {
        1
    } else {
        (threads * PAR_MATVEC_TASKS_PER_THREAD).div_ceil(shards.len())
    }
}

/// The task grid of [`Tensor::matvec_batch_shards`]: the panels each
/// shard touches split into [`parts_per_shard`] equal sub-chunks, each
/// clipped to the shard's rows, `(shard, rows)` in shard-then-row order —
/// a function of the problem shape and thread count alone. Sub-chunks
/// meet on panel edges, so no two tasks of one shard sweep the same
/// panel; two shards may share one, each storing its own rows.
fn shard_tasks(
    threads: usize,
    flops_per_row: usize,
    shards: &[Range<usize>],
) -> Vec<(usize, Range<usize>)> {
    let per_shard = parts_per_shard(threads, flops_per_row, shards);
    let mut tasks = Vec::new();
    for (s, shard) in shards.iter().enumerate() {
        let panels = panels_of(shard);
        let parts = per_shard.min(panels.len()).max(1);
        tasks.extend((0..parts).map(|part| {
            let sub = oaken_runtime::chunk_range(part, panels.len(), parts);
            let edge = |p: usize| (panels.start + p) * PANEL;
            let start = if sub.start == 0 {
                shard.start
            } else {
                edge(sub.start)
            };
            let end = if sub.end == panels.len() {
                shard.end
            } else {
                edge(sub.end)
            };
            (s, start..end)
        }));
    }
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_shape() {
        assert!(matches!(
            Tensor::from_vec(vec![1.0, 2.0], &[1, 3]),
            Err(TensorError::ShapeMismatch {
                expected: 3,
                actual: 2
            })
        ));
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).is_ok());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1]).is_ok());
    }

    /// A `Tensor` is a matrix: a shape of any other rank is refused even
    /// when its element count matches the data.
    #[test]
    fn from_vec_rejects_shapes_that_are_not_two_dimensional() {
        for shape in [&[3][..], &[], &[1, 1, 3], &[1, 3, 1, 1]] {
            let want = shape.iter().product::<usize>();
            assert!(
                matches!(
                    Tensor::from_vec(vec![0.5; want], shape),
                    Err(TensorError::IncompatibleShapes { op: "from_vec", .. })
                ),
                "shape {shape:?}"
            );
        }
    }

    #[test]
    fn matvec_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(a.matvec(&[1.0, 0.5, -1.0]).unwrap(), vec![-1.0, 0.5]);
        assert!(matches!(
            a.matvec(&[1.0, 0.5]),
            Err(TensorError::IncompatibleShapes { op: "matvec", .. })
        ));
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
        // 11 vectors cross the eight-input group boundary.
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

    /// The whole matrix as one shard of [`Tensor::matvec_batch_shards`]
    /// on `rt`.
    fn one_shard(a: &Tensor, rt: &oaken_runtime::Runtime, xs: &[&[f32]]) -> Vec<Vec<f32>> {
        let whole = 0..a.shape()[0];
        let mut shards = a
            .matvec_batch_shards(rt, xs, std::slice::from_ref(&whole))
            .unwrap();
        assert_eq!(shards.len(), 1);
        shards.pop().unwrap()
    }

    /// The matrix batched on a runtime's row-sharded parallel kernel must
    /// reproduce the serial kernel's bits for every thread count: all
    /// accumulation chains are row-local, so the decomposition cannot
    /// reassociate anything.
    #[test]
    fn matvec_batch_on_bit_exact_with_serial_for_any_thread_count() {
        // Awkward odd shapes, 13 inputs: `k` is the least odd depth that
        // puts the product above the crossover, so the runs below fork.
        let (m, width) = (67, 13);
        let k = PAR_MATVEC_MIN_FLOPS.div_ceil(m * width) | 1;
        assert!(m * k * width >= PAR_MATVEC_MIN_FLOPS);
        let data: Vec<f32> = (0..m * k)
            .map(|i| ((i * 2654435761) % 1009) as f32 / 97.0 - 5.1)
            .collect();
        let a = Tensor::from_vec(data, &[m, k]).unwrap();
        let xs: Vec<Vec<f32>> = (0..width)
            .map(|s| {
                (0..k)
                    .map(|j| ((s * 13 + j * 5) % 37) as f32 / 9.0 - 2.0)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f32]> = xs.iter().map(|v| v.as_slice()).collect();
        let serial = a.matvec_batch(&refs).unwrap();
        for threads in [2usize, 3, 4, 8] {
            let grid = shard_tasks(threads, k * width, std::slice::from_ref(&(0..m)));
            assert!(grid.len() > 1, "{threads} threads: the product forks");
            let rt = oaken_runtime::Runtime::new(threads);
            let par = one_shard(&a, &rt, &refs);
            for (s, (x, y)) in serial.iter().zip(&par).enumerate() {
                let xb: Vec<u32> = x.iter().map(|v| v.to_bits()).collect();
                let yb: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
                assert_eq!(xb, yb, "sequence {s} diverged at {threads} threads");
            }
        }
        // The serial runtime goes through the serial kernel verbatim.
        let rt1 = oaken_runtime::Runtime::serial();
        assert_eq!(one_shard(&a, &rt1, &refs), serial);

        // Rank row ranges × thread sub-chunks: uneven shard maps (67 rows
        // over 2, 3, 5 owners), batches that cross the input group
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
    /// whole-matrix fan-out (4 tasks per thread), N shards divide the
    /// same budget so threads beyond the rank count are used, sub-chunks
    /// meet on panel edges, and small products or a serial runtime run
    /// one task per shard.
    #[test]
    fn shard_tasks_divide_the_thread_budget_across_shards() {
        let big = PAR_MATVEC_MIN_FLOPS; // per output row: always above the crossover
        let whole = 0..64 * PANEL;
        let one = shard_tasks(4, big, std::slice::from_ref(&whole));
        assert_eq!(one.len(), 4 * PAR_MATVEC_TASKS_PER_THREAD);
        assert_eq!(one[0], (0, 0..4 * PANEL));
        assert_eq!(one.last().unwrap(), &(0, 60 * PANEL..64 * PANEL));
        // Two uneven ranks on 4 threads: 8 sub-chunks each, in rank order,
        // covering exactly the rank's rows, cut on panel edges.
        let (half, m) = (34 * PANEL + 5, 67 * PANEL + 3);
        let two = shard_tasks(4, big, &[0..half, half..m]);
        assert_eq!(two.len(), 16);
        for (r, rows) in [(0usize, 0..half), (1, half..m)] {
            let mine: Vec<_> = two.iter().filter(|t| t.0 == r).collect();
            assert_eq!(mine.len(), 8);
            assert_eq!(mine[0].1.start, rows.start);
            assert_eq!(mine[7].1.end, rows.end);
            assert!(mine.windows(2).all(|w| w[0].1.end == w[1].1.start));
            assert!(mine[1..].iter().all(|t| t.1.start.is_multiple_of(PANEL)));
        }
        // Fewer panels than the budget: one task per panel, never an
        // empty one, and no two tasks of a shard share a panel.
        let few = shard_tasks(8, big, &[0..20, 20..50]);
        assert_eq!(
            few,
            vec![
                (0, 0..16),
                (0, 16..20),
                (1, 20..32),
                (1, 32..48),
                (1, 48..50)
            ]
        );
        assert_eq!(shard_tasks(8, big, &[0..3, 3..5]).len(), 2);
        assert_eq!(
            shard_tasks(8, big, &[0..0, 0..5]),
            vec![(0, 0..0), (1, 0..5)]
        );
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
        let no_columns = Tensor::from_vec(vec![], &[3, 0]).unwrap();
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

    /// The bodies this build compiled and this CPU runs: the portable body
    /// always, the two `std::arch` bodies under the `simd` feature.
    fn runnable_bodies() -> Vec<Body> {
        #[allow(unused_mut)]
        let mut bodies = vec![Body::Portable];
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            if is_x86_feature_detected!("avx2") {
                bodies.push(Body::Avx2);
            }
            if is_x86_feature_detected!("avx512f") {
                bodies.push(Body::Avx512);
            }
        }
        bodies
    }

    /// Body parity: every runnable body, forced onto the same inputs at
    /// widths on both sides of each register block and of a group of
    /// eight, yields `matvec`'s bits — so the bodies agree with each other
    /// and the `simd` build with the portable one. 11 rows are one
    /// part-filled panel; 150 rows are nine full panels and a part-filled
    /// tenth, which leaves a short last block for every `R`. The row
    /// ranges start and end on and off a 16-row edge.
    #[test]
    fn every_lane_produces_matvec_bits() {
        let k = 37;
        for (m, ranges) in [
            (11, vec![0..11, 1..9, 6..7, 4..4]),
            (
                150,
                vec![0..150, 5..150, 16..144, 17..143, 33..34, 149..150],
            ),
        ] {
            let a = awkward_matrix(m, k);
            let xs = awkward_inputs(33, k);
            let want: Vec<Vec<f32>> = xs.iter().map(|x| a.matvec(x).unwrap()).collect();
            for body in runnable_bodies() {
                for width in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33] {
                    let refs: Vec<&[f32]> = xs[..width].iter().map(Vec::as_slice).collect();
                    for rows in &ranges {
                        let got = a.sweep_rows(body, &refs, rows.clone());
                        assert_eq!(got.len(), width);
                        for (out, want) in got.iter().zip(&want) {
                            assert_eq!(
                                bits(out),
                                bits(&want[rows.clone()]),
                                "{body:?}, {m} rows, width {width}, rows {rows:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// A product big enough to cross `PAR_MATVEC_MIN_FLOPS` has each
    /// shard's rows cut into sub-chunks on panel edges, while the shards
    /// themselves start and end inside a panel (rows 32..48 belong to
    /// both), and the concatenation still carries `matvec`'s bits.
    #[test]
    fn sub_chunked_rows_above_the_crossover_keep_matvec_bits() {
        let (m, k, width) = (70, 2049, 33);
        let a = awkward_matrix(m, k);
        let xs = awkward_inputs(width, k);
        let refs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
        let per_row = k * width;
        assert!(m * per_row >= PAR_MATVEC_MIN_FLOPS);
        let shards = [0..37, 37..m];
        // Each shard touches three panels, so three tasks each.
        let tasks = shard_tasks(4, per_row, &shards);
        assert_eq!(tasks.len(), 6);
        assert_eq!(tasks[2], (0, 32..37));
        assert_eq!(tasks[3], (1, 37..48));
        let rt = oaken_runtime::Runtime::new(4);
        let whole = one_shard(&a, &rt, &refs);
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
        let a = Tensor::from_vec(vec![0.0; 64 * 64], &[64, 64]).unwrap();
        let good = [0.0f32; 64];
        let bad = [0.0f32; 63];
        let rt = oaken_runtime::Runtime::new(2);
        let xs: Vec<&[f32]> = (0..7)
            .map(|i| if i == 5 { &bad[..] } else { &good[..] })
            .collect();
        assert!(a.matvec_batch_shards(&rt, &xs, &[0..32, 32..64]).is_err());
        assert!(a
            .matvec_batch_shards(&rt, &[&good], &[0..32, 32..65])
            .is_err());
        assert!(one_shard(&a, &rt, &[]).is_empty());
    }

    #[test]
    fn matvec_batch_checks_shapes() {
        let a = Tensor::from_vec(vec![0.0; 6], &[2, 3]).unwrap();
        let good = [0.0f32; 3];
        let bad = [0.0f32; 2];
        assert!(a.matvec_batch(&[&good, &bad]).is_err());
        assert!(a.matvec_batch(&[]).unwrap().is_empty());
    }

    /// Packing keeps every weight where `matvec` reads it: against the
    /// unit vectors, the product's columns are the row-major input, for
    /// shapes with a part-filled panel, no columns and no rows.
    #[test]
    fn rows_survive_the_panel_layout() {
        for (m, k) in [(2, 2), (17, 3), (16, 5), (33, 1), (3, 0), (0, 4)] {
            let data: Vec<f32> = (0..m * k).map(|i| i as f32 - 7.5).collect();
            let a = Tensor::from_vec(data.clone(), &[m, k]).unwrap();
            assert_eq!(a.len(), m * k);
            assert_eq!(a.data.len(), m.div_ceil(PANEL) * PANEL * k);
            let units: Vec<Vec<f32>> = (0..k)
                .map(|j| (0..k).map(|i| if i == j { 1.0 } else { 0.0 }).collect())
                .collect();
            for (j, unit) in units.iter().enumerate() {
                let column: Vec<f32> = (0..m).map(|i| data[i * k + j]).collect();
                assert_eq!(a.matvec(unit).unwrap(), column, "{m} × {k}, column {j}");
            }
        }
    }

    #[test]
    fn error_display_is_lowercase() {
        let e = Tensor::from_vec(vec![], &[1, 1]).unwrap_err().to_string();
        assert!(e.starts_with(|c: char| c.is_lowercase()));
        assert!(!e.ends_with('.'));
    }
}
