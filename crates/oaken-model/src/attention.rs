//! Attention of query tokens over a sequence's cached keys and values —
//! the un-batchable activation-activation operation at the heart of the
//! paper's bandwidth argument (§2.2, Figure 2b) — for one token (a decode
//! step) or a run of them (a prefill chunk).
//!
//! Supports multi-head (MHA), grouped-query (GQA), and sliding-window
//! attention as used by the eight evaluation models.
//!
//! Two kernel families share the score/softmax/weighted-sum structure:
//!
//! * the **exact** kernels ([`attend_one`], [`attend_one_into`] and the
//!   per-KV-head [`attend_kv_group_into`]) read dequantized f32 KV matrices
//!   and carry the engine's bit-exactness contract;
//! * the **fused** kernel ([`attend_run_fused_into`] and its single-token
//!   wrappers) reads the encoded rows through their
//!   [`EncodedReadPlan`] — one sweep over a sequence's arena decodes each
//!   row once and serves a whole tile of query tokens (a prefill chunk)
//!   and every query head of the group — so attention never needs a
//!   materialized f32 view of the cache. Its numeric contract is
//!   SQNR-bounded against the exact kernels (see `oaken_core::kernel`)
//!   and *width-invariant*: a query's output does not depend on which
//!   other queries shared its sweep. With the `simd` cargo feature the
//!   decode runs on a `std::arch` AVX-512 lane, bit-identically.

use oaken_core::kernel::EncodedReadPlan;
use oaken_tensor::softmax_in_place;
use std::ops::Range;

/// Shape parameters for one attention call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttentionShape {
    /// Query heads.
    pub num_heads: usize,
    /// Key/value heads (divides `num_heads`).
    pub num_kv_heads: usize,
    /// Per-head dimension.
    pub head_dim: usize,
    /// Sliding-window span, if any.
    pub window: Option<usize>,
}

impl AttentionShape {
    /// Query width, `num_heads × head_dim`.
    pub fn q_dim(&self) -> usize {
        self.num_heads * self.head_dim
    }

    /// KV width, `num_kv_heads × head_dim`.
    pub fn kv_dim(&self) -> usize {
        self.num_kv_heads * self.head_dim
    }

    /// How many query heads share one KV head.
    pub fn group_size(&self) -> usize {
        self.num_heads / self.num_kv_heads.max(1)
    }
}

/// Reusable scratch buffers for the `_into` kernel variants: the score
/// rows shared by both families plus the decoded row block of the fused
/// kernel. Hold one per decode loop (or per worker) and every attention
/// call after warm-up allocates nothing.
#[derive(Debug, Default)]
pub struct AttentionScratch {
    scores: Vec<f32>,
    block: Vec<f32>,
}

/// First cached position visible to the query under the shape's sliding
/// window.
fn window_start(shape: &AttentionShape, seq_len: usize) -> usize {
    match shape.window {
        Some(w) => seq_len.saturating_sub(w),
        None => 0,
    }
}

/// Computes attention for a single query token against `seq_len` cached
/// positions, returning the `[num_heads × head_dim]` context vector
/// (the `C` rows of Figure 2b).
///
/// `keys`/`values` are row-major `[seq_len × kv_dim]`.
///
/// Internally iterates the KV heads through [`attend_kv_group_into`], so the
/// serial path and the runtime-sharded path (tasks over KV-head ranges)
/// execute identical per-head arithmetic — the bit-exactness requirement
/// of the parallel forward pass.
///
/// Allocating convenience wrapper over [`attend_one_into`].
///
/// # Panics
///
/// Panics if slice lengths disagree with the shape parameters.
pub fn attend_one(
    q: &[f32],
    keys: &[f32],
    values: &[f32],
    seq_len: usize,
    shape: &AttentionShape,
) -> Vec<f32> {
    let mut out = Vec::new();
    let mut scratch = AttentionScratch::default();
    attend_one_into(q, keys, values, seq_len, shape, &mut scratch, &mut out);
    out
}

/// [`attend_one`] writing into caller-owned buffers: `out` is cleared and
/// refilled with the `[num_heads × head_dim]` context vector. Bit-identical
/// to [`attend_one`]; with warm buffers the call allocates nothing — the
/// decode hot path reuses one scratch across every `(token, layer)` step.
///
/// # Panics
///
/// Panics if slice lengths disagree with the shape parameters.
pub fn attend_one_into(
    q: &[f32],
    keys: &[f32],
    values: &[f32],
    seq_len: usize,
    shape: &AttentionShape,
    scratch: &mut AttentionScratch,
    out: &mut Vec<f32>,
) {
    let hd = shape.head_dim;
    assert_eq!(q.len(), shape.q_dim(), "query width mismatch");
    let group = shape.group_size().max(1);
    out.clear();
    out.resize(shape.q_dim(), 0.0);
    for kvh in 0..shape.num_kv_heads {
        let out_g = &mut out[kvh * group * hd..(kvh + 1) * group * hd];
        attend_kv_group_into(
            q,
            keys,
            values,
            seq_len,
            shape,
            kvh,
            out_g,
            &mut scratch.scores,
        );
    }
}

/// Computes the context of the query heads sharing KV head `kv_head` for a
/// single token — the `[group_size × head_dim]` slice of [`attend_one`]'s
/// output covering query heads `kv_head·group .. (kv_head+1)·group` —
/// into `out_g` (fully overwritten); `scores` is reusable scratch.
///
/// This is the shard unit of the forward passes' exact path: each KV
/// head's score/softmax/weighted-sum chain is fully independent, so
/// computing groups in any order (or concurrently) reproduces
/// [`attend_one`]'s bits exactly.
///
/// # Panics
///
/// Panics if slice lengths disagree with the shape parameters.
#[allow(clippy::too_many_arguments)]
pub fn attend_kv_group_into(
    q: &[f32],
    keys: &[f32],
    values: &[f32],
    seq_len: usize,
    shape: &AttentionShape,
    kv_head: usize,
    out_g: &mut [f32],
    scores: &mut Vec<f32>,
) {
    let hd = shape.head_dim;
    let kv_dim = shape.kv_dim();
    assert_eq!(keys.len(), seq_len * kv_dim, "key matrix shape mismatch");
    assert_eq!(
        values.len(),
        seq_len * kv_dim,
        "value matrix shape mismatch"
    );

    let start = window_start(shape, seq_len);
    let span = seq_len - start;
    let inv_sqrt = 1.0 / (hd as f32).sqrt();
    let group = shape.group_size().max(1);
    out_g.fill(0.0);
    scores.clear();
    scores.resize(span, 0.0);

    for g in 0..group {
        let h = kv_head * group + g;
        let q_h = &q[h * hd..(h + 1) * hd];
        for (i, t) in (start..seq_len).enumerate() {
            let k_t = &keys[t * kv_dim + kv_head * hd..t * kv_dim + (kv_head + 1) * hd];
            scores[i] = q_h.iter().zip(k_t).map(|(&a, &b)| a * b).sum::<f32>() * inv_sqrt;
        }
        softmax_in_place(scores);
        let out_h = &mut out_g[g * hd..(g + 1) * hd];
        for (i, t) in (start..seq_len).enumerate() {
            let p = scores[i];
            if p == 0.0 {
                continue;
            }
            let v_t = &values[t * kv_dim + kv_head * hd..t * kv_dim + (kv_head + 1) * hd];
            for (o, &v) in out_h.iter_mut().zip(v_t) {
                *o += p * v;
            }
        }
    }
}

// ----------------------------------------------------------------------
// Fused quantized-domain kernel
// ----------------------------------------------------------------------

/// Borrowed encoded KV tensor for the fused kernel: the stream-maintained
/// [`EncodedReadPlan`] of one `(sequence, layer, kind)` — per-row decode
/// tables, the flat dense-nibble arena, and the COO outlier values. This
/// is what the paged pool hands out in fused mode; no dequantized f32
/// image of these rows exists anywhere.
#[derive(Debug, Clone, Copy)]
pub struct EncodedKv<'a> {
    /// Read plan covering every cached row of the tensor.
    pub plan: &'a EncodedReadPlan,
}

/// What attention reads for one `(sequence, layer)`: the encoded tensors
/// of a fused slot, or the dequantized f32 views of an exact one.
#[derive(Debug, Clone, Copy)]
pub enum KvRead<'a> {
    /// Encoded K and V tensors for [`attend_run_fused_into`].
    Fused {
        /// Encoded keys.
        keys: EncodedKv<'a>,
        /// Encoded values.
        values: EncodedKv<'a>,
    },
    /// Row-major `[rows × kv_dim]` views for [`attend_kv_group_into`].
    Exact {
        /// Dequantized keys.
        keys: &'a [f32],
        /// Dequantized values.
        values: &'a [f32],
    },
}

/// Most query tokens one sweep over a slot's encoded rows serves; longer
/// runs take one sweep per tile.
pub const QUERY_TILE: usize = 32;

/// Rows decoded per block: keys land transposed (`[column][ROW_BLOCK]`)
/// so a query head's scores against the whole block accumulate in
/// `ROW_BLOCK` independent lanes, values land row-major.
const ROW_BLOCK: usize = 64;

/// Runs `$body` over members `0 .. $members` in register blocks of the
/// listed widths, widest first — `$m` the block's first member, `$G` its
/// width as a constant. What is left of a run narrower than a block takes
/// the narrower blocks, so no lane ever computes for a member that is not
/// there.
///
/// A *member* is a (query, query head) pair reading one KV head's decoded
/// tile — a prefill tile groups queries, a GQA decode step the group's
/// heads — and a block's members keep their accumulators in registers
/// side by side, so one load of the tile serves all of them.
macro_rules! member_blocks {
    ($members:expr, [$($g:literal),+], |$m:ident, $G:ident| $body:expr) => {{
        let mut $m = 0;
        $(while $members - $m >= $g {
            const $G: usize = $g;
            $body;
            $m += $g;
        })+
    }};
}

/// Output columns of a member the weighted-sum pass holds in registers at
/// a time (one 512-bit vector).
const COLUMNS: usize = 16;

thread_local! {
    static SCRATCH: std::cell::RefCell<AttentionScratch> = std::cell::RefCell::default();
}

/// Runs `f` with this thread's long-lived scratch — what the forward
/// passes' attention tasks use, so neither the serial pass nor a runtime
/// worker allocates per `(task, layer, iteration)` after warm-up.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut AttentionScratch) -> R) -> R {
    SCRATCH.with_borrow_mut(f)
}

/// Attention of the query groups of KV heads `kv_heads` for a run of
/// query tokens of one sequence, against whatever form the cache serves:
/// `out` receives `[qs.len() × kv_heads.len() × group_size × head_dim]`,
/// query `i` attending rows `window_start(limits[i]) .. limits[i]`. Limits
/// are clamped to the rows the read holds — a slot poisoned by a failed
/// append holds fewer than the schedule predicted, and its output is
/// discarded by the caller.
pub(crate) fn attend_run_into(
    qs: &[&[f32]],
    limits: &[usize],
    read: &KvRead<'_>,
    shape: &AttentionShape,
    kv_heads: Range<usize>,
    scratch: &mut AttentionScratch,
    out: &mut [f32],
) {
    let kv_dim = shape.kv_dim();
    let held = match read {
        KvRead::Fused { keys, values } => keys.plan.rows().min(values.plan.rows()),
        KvRead::Exact { keys, values } => keys.len().min(values.len()) / kv_dim.max(1),
    };
    let limits: Vec<usize> = limits.iter().map(|&l| l.min(held)).collect();
    match read {
        KvRead::Fused { keys, values } => {
            attend_run_fused_into(qs, &limits, keys, values, shape, kv_heads, scratch, out);
        }
        KvRead::Exact { keys, values } => {
            let gw = shape.group_size().max(1) * shape.head_dim;
            let groups = qs
                .iter()
                .zip(&limits)
                .flat_map(|(q, &limit)| kv_heads.clone().map(move |kvh| (q, limit, kvh)));
            for ((q, limit, kvh), out_g) in groups.zip(out.chunks_mut(gw)) {
                let visible = limit * kv_dim;
                attend_kv_group_into(
                    q,
                    &keys[..visible],
                    &values[..visible],
                    limit,
                    shape,
                    kvh,
                    out_g,
                    &mut scratch.scores,
                );
            }
        }
    }
}

/// Fused-kernel analogue of [`attend_one_into`]: the single-token context
/// vector computed reading `keys`/`values` **in their encoded form** —
/// [`attend_run_fused_into`] at width 1 over every head. Numerically
/// SQNR-bounded against [`attend_one`] over the dequantized views (see
/// `oaken_core::kernel`), not bit-exact. With warm buffers the call
/// allocates nothing.
///
/// # Panics
///
/// Same conditions as [`attend_run_fused_into`].
pub fn attend_one_fused_into(
    q: &[f32],
    keys: &EncodedKv<'_>,
    values: &EncodedKv<'_>,
    seq_len: usize,
    shape: &AttentionShape,
    scratch: &mut AttentionScratch,
    out: &mut Vec<f32>,
) {
    out.clear();
    out.resize(shape.q_dim(), 0.0);
    let all = 0..shape.num_kv_heads;
    attend_run_fused_into(&[q], &[seq_len], keys, values, shape, all, scratch, out);
}

/// Fused-kernel analogue of [`attend_kv_group_into`]: one KV head's
/// query-group context for a single token — [`attend_run_fused_into`] at
/// width 1 over one head.
///
/// # Panics
///
/// Same conditions as [`attend_run_fused_into`].
#[allow(clippy::too_many_arguments)]
pub fn attend_kv_group_fused_into(
    q: &[f32],
    keys: &EncodedKv<'_>,
    values: &EncodedKv<'_>,
    seq_len: usize,
    shape: &AttentionShape,
    kv_head: usize,
    out_g: &mut [f32],
    scratch: &mut AttentionScratch,
) {
    let head = kv_head..kv_head + 1;
    attend_run_fused_into(&[q], &[seq_len], keys, values, shape, head, scratch, out_g);
}

/// The fused kernel: attention of the query groups of KV heads `kv_heads`
/// for a run of query tokens of one sequence, computed directly over the
/// encoded rows. Query `i` (`qs[i]`, `q_dim` wide) attends rows
/// `window_start(limits[i]) .. limits[i]`; `out` receives
/// `[qs.len() × kv_heads.len() × group_size × head_dim]`. A prefill chunk
/// is a run with consecutive limits, a decode step a run of one.
///
/// Per [`QUERY_TILE`] queries the key arena is walked **once**: each
/// block of rows is decoded a single time (table lookup per dense nibble,
/// COO outliers overwritten in place) and reused by every query of the
/// tile and every query head of the range; softmax runs per (query,
/// head); the value arena is swept the same way. The arithmetic behind
/// both decodes is register-blocked (`score_block`, `weigh_block`): the
/// queries and query heads sharing a KV head's tile keep their
/// accumulators in registers side by side, so a decoded key column or
/// value row is loaded once for all of them and an output is loaded and
/// stored once per row block, not once per multiply.
///
/// **Width invariance.** Every score is
/// `(((q₀·k₀ + q₁·k₁) + q₂·k₂) + …) / √d` — one serial chain over the
/// head's columns with separately rounded multiplies and adds — and
/// every output element accumulates `p·v` over the visible rows in
/// ascending order. Lanes run over *rows* (keys) and *columns* (values),
/// never across a chain, so each (query, row, head) score and each output
/// element is a pure function of the query and the rows: independent of
/// tile width and position, block alignment, the head range, thread and
/// rank count, and of the `simd` feature (whose AVX-512 lane only speeds
/// up the decode, bit-identically). Feeding a prompt in chunks of any size
/// therefore yields the bits of feeding it token by token.
///
/// # Panics
///
/// Panics if `qs`/`limits`/`out` disagree with each other or the shape,
/// `limits` decrease, a plan holds fewer rows than the largest limit or
/// rows of another width, or `kv_heads` exceeds `num_kv_heads`.
#[allow(clippy::too_many_arguments)]
pub fn attend_run_fused_into(
    qs: &[&[f32]],
    limits: &[usize],
    keys: &EncodedKv<'_>,
    values: &EncodedKv<'_>,
    shape: &AttentionShape,
    kv_heads: Range<usize>,
    scratch: &mut AttentionScratch,
    out: &mut [f32],
) {
    let gw = shape.group_size().max(1) * shape.head_dim;
    let row_w = kv_heads.len() * gw;
    assert_eq!(qs.len(), limits.len(), "one limit per query");
    assert_eq!(out.len(), qs.len() * row_w, "output shape mismatch");
    assert!(kv_heads.end <= shape.num_kv_heads, "kv head out of range");
    assert!(
        qs.iter().all(|q| q.len() == shape.q_dim()),
        "query width mismatch"
    );
    assert!(
        limits.windows(2).all(|w| w[0] <= w[1]),
        "limits must not decrease along a run"
    );
    let hi = limits.last().copied().unwrap_or(0);
    for (plan, what) in [(keys.plan, "key"), (values.plan, "value")] {
        assert!(plan.rows() >= hi, "{what} read plan shorter than seq_len");
        assert!(
            hi == 0 || plan.dense_stride() == shape.kv_dim().div_ceil(2),
            "encoded {what} row width mismatch"
        );
    }
    if row_w == 0 {
        return;
    }
    let tiles = qs
        .chunks(QUERY_TILE)
        .zip(limits.chunks(QUERY_TILE))
        .zip(out.chunks_mut(QUERY_TILE * row_w));
    for ((qs, limits), out) in tiles {
        let heads = kv_heads.clone();
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if simd::available() {
            // SAFETY: `available` verified the lane's CPU features.
            unsafe {
                simd::fused_sweep(
                    qs,
                    limits,
                    keys.plan,
                    values.plan,
                    shape,
                    heads,
                    scratch,
                    out,
                )
            };
            continue;
        }
        fused_sweep::<false>(
            qs,
            limits,
            keys.plan,
            values.plan,
            shape,
            heads,
            scratch,
            out,
        );
    }
}

/// One tile of [`attend_run_fused_into`] (`qs.len() <= QUERY_TILE`,
/// inputs validated there). `AVX512` selects the decode lane; every
/// arithmetic loop is the same portable code on both, compiled once per
/// lane (the AVX-512 instance inlines into a `#[target_feature]` caller
/// and vectorizes at 512 bits).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fused_sweep<const AVX512: bool>(
    qs: &[&[f32]],
    limits: &[usize],
    keys: &EncodedReadPlan,
    values: &EncodedReadPlan,
    shape: &AttentionShape,
    heads: Range<usize>,
    scratch: &mut AttentionScratch,
    out: &mut [f32],
) {
    let hd = shape.head_dim;
    let group = shape.group_size().max(1);
    let (col, width) = (heads.start * hd, heads.len() * hd);
    // Query heads served per query.
    let nh = heads.len() * group;
    let inv_sqrt = 1.0 / (hd as f32).sqrt();
    out.fill(0.0);
    // Rows any query of the tile sees; limits (hence window starts) are
    // non-decreasing, so both ends sit at the tile's ends.
    let hi = limits.last().copied().unwrap_or(0);
    let lo = limits.first().map_or(0, |&l| window_start(shape, l));
    if hi == lo {
        return;
    }
    // One score row per (query, head), `stride` apart; row `t` at `t - lo`.
    // A multiple of 256 B, exactly 4 KiB for 961–1024 visible rows, so the
    // tile's score rows share cache sets. Padding it by one cache line
    // took 7 ms per `long_context` replay off the row-outer value pass
    // this kernel used to have (85 → 78 ms); with each member's weights
    // now read sequentially it measures nothing (174–192 µs unpadded,
    // 180–181 µs padded, per 32-query × 1024-row tile), so it stays out.
    let stride = (hi - lo).next_multiple_of(ROW_BLOCK);
    // Grown, never cleared: every score and block element is written
    // before the pass that reads it.
    let AttentionScratch { scores, block } = scratch;
    if scores.len() < qs.len() * nh * stride {
        scores.resize(qs.len() * nh * stride, 0.0);
    }
    if block.len() < width * ROW_BLOCK {
        block.resize(width * ROW_BLOCK, 0.0);
    }
    let block = &mut block[..width * ROW_BLOCK];

    for b0 in (lo..hi).step_by(ROW_BLOCK) {
        let n = ROW_BLOCK.min(hi - b0);
        decode_keys::<AVX512>(keys, b0, n, col, width, block);
        let seeing = queries_seeing(shape, limits, b0, n);
        let members = seeing.len() * group;
        for (kh, kt) in block.chunks_exact(hd * ROW_BLOCK).enumerate() {
            let member = |m: usize| {
                let (i, h) = (seeing.start + m / group, kh * group + m % group);
                let q_h = &qs[i][(heads.start * group + h) * hd..][..hd];
                (q_h, (i * nh + h) * stride + (b0 - lo))
            };
            // Four members' 64 row lanes fill sixteen 512-bit registers.
            member_blocks!(members, [4, 2, 1], |m, G| score_block::<G>(
                m, &member, kt, inv_sqrt, scores
            ));
        }
    }

    for (i, &limit) in limits.iter().enumerate() {
        let start = window_start(shape, limit);
        for row in scores[i * nh * stride..(i + 1) * nh * stride].chunks_exact_mut(stride) {
            softmax_in_place(&mut row[start - lo..limit - lo]);
        }
    }

    for b0 in (lo..hi).step_by(ROW_BLOCK) {
        let n = ROW_BLOCK.min(hi - b0);
        decode_values::<AVX512>(values, b0, n, col, width, block);
        let seeing = queries_seeing(shape, limits, b0, n);
        let members = seeing.len() * group;
        for kh in 0..heads.len() {
            let member = |m: usize| {
                let (i, h) = (seeing.start + m / group, kh * group + m % group);
                let rows = window_start(shape, limits[i]).max(b0)..limits[i].min(b0 + n);
                let p = &scores[(i * nh + h) * stride + (b0 - lo)..][..n];
                (p, rows.start - b0..rows.end - b0, (i * nh + h) * hd)
            };
            let v = &block[kh * hd..n * width];
            // Eight members' add chains cover the add latency on both
            // ports (4 measured 1.2× slower, 16 columns or 32 the same).
            member_blocks!(members, [8, 4, 2, 1], |m, G| weigh_block::<G>(
                m, &member, v, width, hd, out
            ));
        }
    }
}

/// The tile's queries seeing any of rows `b0 .. b0 + n`: limits and window
/// starts are non-decreasing, so they are contiguous.
#[inline(always)]
fn queries_seeing(shape: &AttentionShape, limits: &[usize], b0: usize, n: usize) -> Range<usize> {
    let i0 = limits.partition_point(|&l| l <= b0);
    let i1 = limits.partition_point(|&l| window_start(shape, l) < b0 + n);
    i0..i1
}

/// Scores of members `m0 .. m0 + G` of one KV head against its transposed
/// key block `kt`: lane `r` of a member's accumulator takes
/// `Σ_j q[j] · kt[j][r]` in column order — the serial per-(query, row)
/// chain of the width-invariance contract, `ROW_BLOCK` rows at a time —
/// and each key column is loaded once for all `G` chains. `member` names
/// a member's query-head vector and where its block of scores goes.
#[inline(always)]
fn score_block<'a, const G: usize>(
    m0: usize,
    member: &impl Fn(usize) -> (&'a [f32], usize),
    kt: &[f32],
    inv_sqrt: f32,
    scores: &mut [f32],
) {
    let who: [_; G] = std::array::from_fn(|g| member(m0 + g));
    let mut acc = [[0.0f32; ROW_BLOCK]; G];
    for (j, k_j) in kt.as_chunks::<ROW_BLOCK>().0.iter().enumerate() {
        for (acc, (q_h, _)) in acc.iter_mut().zip(&who) {
            let qv = q_h[j];
            for (a, &kv) in acc.iter_mut().zip(k_j) {
                *a += qv * kv;
            }
        }
    }
    for (acc, &(_, at)) in acc.iter().zip(&who) {
        for (s, a) in scores[at..at + ROW_BLOCK].iter_mut().zip(acc) {
            *s = a * inv_sqrt;
        }
    }
}

/// `o += Σ_r p[r] · v[r]` for members `m0 .. m0 + G` of one KV head over a
/// decoded value block (`v[r · width ..]` the head's columns of row `r`),
/// [`COLUMNS`] output columns at a time and any remainder column by
/// column. `member` names a member's weights for the block's rows, the
/// rows of the block it sees, and where its head's output starts.
#[inline(always)]
fn weigh_block<'a, const G: usize>(
    m0: usize,
    member: &impl Fn(usize) -> (&'a [f32], Range<usize>, usize),
    v: &[f32],
    width: usize,
    hd: usize,
    out: &mut [f32],
) {
    let who: [_; G] = std::array::from_fn(|g| member(m0 + g));
    let mut c = 0;
    while c + COLUMNS <= hd {
        weigh_columns::<G, COLUMNS>(&who, &v[c..], width, c, out);
        c += COLUMNS;
    }
    while c < hd {
        weigh_columns::<G, 1>(&who, &v[c..], width, c, out);
        c += 1;
    }
}

/// Columns `c .. c + W` of [`weigh_block`]: the `G × W` outputs are loaded
/// into local accumulators once, take the block's rows in ascending order
/// — each `p · v` one multiply and one add, separately rounded, with the
/// row's `v` loaded once for all `G` members — and are stored once. Rows
/// only some members see (the causal diagonal, a sliding window's edge)
/// run for those members alone, below and above the rows all of them
/// see: a hidden row is skipped, never multiplied by zero, so `-0.0` and
/// non-finite values keep their bits.
#[inline(always)]
fn weigh_columns<const G: usize, const W: usize>(
    who: &[(&[f32], Range<usize>, usize); G],
    v: &[f32],
    width: usize,
    c: usize,
    out: &mut [f32],
) {
    let mut acc: [[f32; W]; G] = std::array::from_fn(|g| {
        let o = &out[who[g].2 + c..][..W];
        o.try_into().expect("W columns sliced")
    });
    let row = |r: usize| -> [f32; W] { v[r * width..][..W].try_into().expect("W columns sliced") };
    // Rows every member sees (empty, at the last start, if there are none).
    let from = who.iter().map(|w| w.1.start).max().unwrap_or(0);
    let common = from..who.iter().map(|w| w.1.end).min().unwrap_or(0).max(from);
    for (acc, (p, rows, _)) in acc.iter_mut().zip(who) {
        for r in rows.start..common.start.min(rows.end) {
            accumulate(acc, p[r], &row(r));
        }
    }
    // Re-sliced to the common rows, and the lengths asserted equal, so
    // `p[k]` in the loop every full block spends its time in is check-free.
    let ps: [&[f32]; G] = std::array::from_fn(|g| &who[g].0[common.clone()]);
    assert!(ps.iter().all(|p| p.len() == common.len()));
    for (k, r) in common.clone().enumerate() {
        let v_r = row(r);
        for (acc, p) in acc.iter_mut().zip(ps) {
            accumulate(acc, p[k], &v_r);
        }
    }
    for (acc, (p, rows, _)) in acc.iter_mut().zip(who) {
        for r in common.end.max(rows.start)..rows.end {
            accumulate(acc, p[r], &row(r));
        }
    }
    for (acc, (_, _, at)) in acc.iter().zip(who) {
        out[at + c..][..W].copy_from_slice(acc);
    }
}

/// `acc += p · v`: each element one multiply and one add, separately
/// rounded.
#[inline(always)]
fn accumulate<const W: usize>(acc: &mut [f32; W], p: f32, v: &[f32; W]) {
    for (a, &x) in acc.iter_mut().zip(v) {
        *a += p * x;
    }
}

/// One plan row as the decodes read it.
#[derive(Clone, Copy)]
struct Row<'a> {
    /// Packed dense nibbles (element `i` in nibble `i`, low nibble first).
    bytes: &'a [u8],
    /// Value of each dense code.
    lut: &'a [f32; 16],
    /// Outlier positions and values ([`EncodedReadPlan::outliers`]).
    masks: &'a [u16],
    values: &'a [f32],
}

impl Row<'_> {
    /// Hands `put` element `col + j` for every `j < width` outside `done`
    /// (the columns a vector lane already decoded): the dense nibble's
    /// table value, or the outlier's value where the masks mark one.
    #[inline(always)]
    fn decode(
        &self,
        col: usize,
        width: usize,
        done: &Range<usize>,
        mut put: impl FnMut(usize, f32),
    ) {
        for j in (0..done.start).chain(done.end..width) {
            let b = self.bytes[(col + j) / 2];
            let code = if (col + j).is_multiple_of(2) {
                b & 0xF
            } else {
                b >> 4
            };
            put(j, self.lut[usize::from(code)]);
        }
        let mut next = self.values.iter();
        for (c, &mask) in self.masks.iter().enumerate() {
            let mut left = mask;
            while left != 0 {
                let e = 16 * c + left.trailing_zeros() as usize;
                let &value = next.next().expect("one value per mask bit");
                if (col..col + width).contains(&e) && !done.contains(&(e - col)) {
                    put(e - col, value);
                }
                left &= left - 1;
            }
        }
    }
}

/// Rows `b0 .. b0 + n` of a plan.
#[inline(always)]
fn block_rows(plan: &EncodedReadPlan, b0: usize, n: usize) -> impl Iterator<Item = Row<'_>> {
    let stride = plan.dense_stride();
    let arena = &plan.dense_arena()[b0 * stride..(b0 + n) * stride];
    let rows = arena.chunks_exact(stride).zip(&plan.decodes()[b0..b0 + n]);
    rows.enumerate().map(move |(r, (bytes, dec))| {
        let (masks, values) = plan.outliers(b0 + r);
        Row {
            bytes,
            lut: &dec.middle_lut,
            masks,
            values,
        }
    })
}

/// Decodes columns `col .. col + width` of plan rows `b0 .. b0 + n` into
/// the transposed key block: `block[j · ROW_BLOCK + r]` is element
/// `col + j` of row `b0 + r`, bit-identical to
/// [`decode_row_fused_into`](oaken_core::kernel::decode_row_fused_into);
/// lanes `n..` are zeroed.
#[inline(always)]
fn decode_keys<const AVX512: bool>(
    plan: &EncodedReadPlan,
    b0: usize,
    n: usize,
    col: usize,
    width: usize,
    block: &mut [f32],
) {
    // The vector lane covers columns `done`; the scalar walk the rest.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    let done = if AVX512 {
        // SAFETY: `AVX512` is only instantiated behind `simd::available`.
        unsafe { simd::decode_keys(plan, b0, n, col, width, block) }
    } else {
        0..0
    };
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let done = 0..0;
    if done.len() < width {
        for (r, row) in block_rows(plan, b0, n).enumerate() {
            row.decode(col, width, &done, |j, v| block[j * ROW_BLOCK + r] = v);
        }
    }
    if n < ROW_BLOCK {
        for lanes in block.as_chunks_mut::<ROW_BLOCK>().0 {
            lanes[n..].fill(0.0);
        }
    }
}

/// Decodes columns `col .. col + width` of plan rows `b0 .. b0 + n` into
/// the row-major value block (`block[r · width + j]`), bit-identical to
/// [`decode_row_fused_into`](oaken_core::kernel::decode_row_fused_into).
#[inline(always)]
fn decode_values<const AVX512: bool>(
    plan: &EncodedReadPlan,
    b0: usize,
    n: usize,
    col: usize,
    width: usize,
    block: &mut [f32],
) {
    for (row, out) in block_rows(plan, b0, n).zip(block.chunks_exact_mut(width)) {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        let done = if AVX512 {
            // SAFETY: `AVX512` is only instantiated behind `simd::available`.
            unsafe { simd::decode_row(&row, col, out) }
        } else {
            0..0
        };
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        let done = 0..0;
        if done.len() < width {
            row.decode(col, width, &done, |j, v| out[j] = v);
        }
    }
}

/// The AVX-512 decode lane, enabled by the `simd` cargo feature on x86-64
/// and selected at runtime. Sixteen elements at a time: the dense codes
/// are unpacked from one 8-byte load and decoded by a single table
/// permute over the row's
/// [`middle_lut`](oaken_core::kernel::RowDecode::middle_lut), then one
/// masked expand-load drops the chunk's outlier values into their lanes —
/// bit-identical to the scalar walk, so the lane changes speed and
/// nothing else. Key blocks are transposed in registers, sixteen rows by
/// sixteen columns at a time.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd {
    use super::{block_rows, AttentionScratch, AttentionShape, EncodedReadPlan, Row, ROW_BLOCK};
    use std::arch::x86_64::*;
    use std::ops::Range;
    use std::sync::OnceLock;

    /// One-time CPUID probe for the 512-bit lane (and the `popcnt` its
    /// outlier-mask arithmetic compiles to).
    pub(super) fn available() -> bool {
        static PROBE: OnceLock<bool> = OnceLock::new();
        *PROBE.get_or_init(|| {
            is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("popcnt")
        })
    }

    /// [`super::fused_sweep`] compiled with the lane's features enabled.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F and `popcnt`.
    #[target_feature(enable = "avx512f,popcnt")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn fused_sweep(
        qs: &[&[f32]],
        limits: &[usize],
        keys: &EncodedReadPlan,
        values: &EncodedReadPlan,
        shape: &AttentionShape,
        heads: Range<usize>,
        scratch: &mut AttentionScratch,
        out: &mut [f32],
    ) {
        super::fused_sweep::<true>(qs, limits, keys, values, shape, heads, scratch, out);
    }

    /// The columns of a `width`-wide slice starting at `col` the vector
    /// lane decodes: whole 16-column chunks, when the slice starts on one
    /// of the plan's 16-element mask groups.
    fn vector_columns(col: usize, width: usize) -> Range<usize> {
        if col.is_multiple_of(16) {
            0..width / 16 * 16
        } else {
            0..0
        }
    }

    /// A row's outlier values from the first one at or after element
    /// `col` (`col` a multiple of 16).
    fn values_from<'a>(row: &Row<'a>, col: usize) -> &'a [f32] {
        let before: u32 = row.masks[..col / 16].iter().map(|m| m.count_ones()).sum();
        &row.values[before as usize..]
    }

    /// Decodes elements `at .. at + 16` (`at` a multiple of 16) of one
    /// row, taking its outliers off the front of `values`.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    fn decode16(row: &Row<'_>, lut: __m512, at: usize, values: &mut &[f32]) -> __m512 {
        let word: [u8; 8] = row.bytes[at / 2..at / 2 + 8]
            .try_into()
            .expect("eight bytes sliced");
        // The low 8 dwords replicate the word's low half, the high 8 its
        // high half, so the per-lane shifts `4·(k mod 8)` put nibble `k`
        // in lane `k`.
        let sel = _mm512_set_epi32(1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0);
        let shifts = _mm512_set_epi32(28, 24, 20, 16, 12, 8, 4, 0, 28, 24, 20, 16, 12, 8, 4, 0);
        let dw = _mm512_permutexvar_epi32(sel, _mm512_set1_epi64(i64::from_le_bytes(word)));
        let codes = _mm512_and_si512(_mm512_srlv_epi32(dw, shifts), _mm512_set1_epi32(15));
        let dense = _mm512_permutexvar_ps(codes, lut);
        let mask = row.masks[at / 16];
        let (mine, rest) = values.split_at(mask.count_ones() as usize);
        *values = rest;
        // SAFETY: the expand-load reads one float per set mask bit, and
        // `mine` is exactly that many.
        unsafe { _mm512_mask_expandloadu_ps(dense, mask, mine.as_ptr()) }
    }

    /// Vector part of [`super::decode_values`] for one row: fills
    /// `out[j]` for the returned column range.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F and `popcnt`.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    pub(super) unsafe fn decode_row(row: &Row<'_>, col: usize, out: &mut [f32]) -> Range<usize> {
        let done = vector_columns(col, out.len());
        if done.is_empty() {
            return done;
        }
        let mut values = values_from(row, col);
        // SAFETY: `lut` is sixteen floats.
        let lut = unsafe { _mm512_loadu_ps(row.lut.as_ptr()) };
        for (k, chunk) in out.as_chunks_mut::<16>().0.iter_mut().enumerate() {
            let v = decode16(row, lut, col + 16 * k, &mut values);
            // SAFETY: `chunk` is sixteen floats.
            unsafe { _mm512_storeu_ps(chunk.as_mut_ptr(), v) };
        }
        done
    }

    /// Vector part of [`super::decode_keys`]: fills
    /// `block[j · ROW_BLOCK + r]` for the returned column range and every
    /// lane `r` of each 16-row group holding a valid row (rows `n..` of
    /// such a group as zeros).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F and `popcnt`.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    pub(super) unsafe fn decode_keys(
        plan: &EncodedReadPlan,
        b0: usize,
        n: usize,
        col: usize,
        width: usize,
        block: &mut [f32],
    ) -> Range<usize> {
        let done = vector_columns(col, width);
        if done.is_empty() {
            return done;
        }
        for g0 in (0..n).step_by(16) {
            let empty: &[f32] = &[];
            let mut rows = [None; 16];
            let mut values = [empty; 16];
            for (r, row) in block_rows(plan, b0 + g0, 16.min(n - g0)).enumerate() {
                values[r] = values_from(&row, col);
                rows[r] = Some(row);
            }
            for j in done.clone().step_by(16) {
                let mut v = [_mm512_setzero_ps(); 16];
                for ((v, row), values) in v.iter_mut().zip(&rows).zip(&mut values) {
                    if let Some(row) = row {
                        // SAFETY: `lut` is sixteen floats.
                        let lut = unsafe { _mm512_loadu_ps(row.lut.as_ptr()) };
                        *v = decode16(row, lut, col + j, values);
                    }
                }
                transpose16(&mut v);
                let lanes = block[j * ROW_BLOCK..].as_chunks_mut::<ROW_BLOCK>().0;
                for (v, lanes) in v.iter().zip(lanes) {
                    // SAFETY: `g0 + 16 <= ROW_BLOCK` (`g0` steps by 16
                    // below `n <= ROW_BLOCK`), so the store stays inside
                    // the `ROW_BLOCK`-float chunk.
                    unsafe { _mm512_storeu_ps(lanes[g0..g0 + 16].as_mut_ptr(), *v) };
                }
            }
        }
        done
    }

    /// In-register 16×16 transpose: on return `v[c]` holds lane `c` of
    /// every input vector, in input order.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    fn transpose16(v: &mut [__m512; 16]) {
        let mut t = [_mm512_setzero_ps(); 16];
        // 32-bit interleave of row pairs.
        for i in 0..8 {
            t[2 * i] = _mm512_unpacklo_ps(v[2 * i], v[2 * i + 1]);
            t[2 * i + 1] = _mm512_unpackhi_ps(v[2 * i], v[2 * i + 1]);
        }
        // 64-bit interleave: each 128-bit lane now holds one column of
        // four consecutive rows.
        for i in 0..4 {
            let (a, b, c, d) = (t[4 * i], t[4 * i + 1], t[4 * i + 2], t[4 * i + 3]);
            v[4 * i] = _mm512_shuffle_ps::<0b01_00_01_00>(a, c);
            v[4 * i + 1] = _mm512_shuffle_ps::<0b11_10_11_10>(a, c);
            v[4 * i + 2] = _mm512_shuffle_ps::<0b01_00_01_00>(b, d);
            v[4 * i + 3] = _mm512_shuffle_ps::<0b11_10_11_10>(b, d);
        }
        // 128-bit lane shuffles gather the four row groups per column.
        for i in 0..4 {
            t[i] = _mm512_shuffle_f32x4::<0b10_00_10_00>(v[i], v[i + 4]);
            t[i + 4] = _mm512_shuffle_f32x4::<0b11_01_11_01>(v[i], v[i + 4]);
            t[i + 8] = _mm512_shuffle_f32x4::<0b10_00_10_00>(v[i + 8], v[i + 12]);
            t[i + 12] = _mm512_shuffle_f32x4::<0b11_01_11_01>(v[i + 8], v[i + 12]);
        }
        for i in 0..4 {
            v[i] = _mm512_shuffle_f32x4::<0b10_00_10_00>(t[i], t[i + 8]);
            v[i + 8] = _mm512_shuffle_f32x4::<0b11_01_11_01>(t[i], t[i + 8]);
            v[i + 4] = _mm512_shuffle_f32x4::<0b10_00_10_00>(t[i + 4], t[i + 12]);
            v[i + 12] = _mm512_shuffle_f32x4::<0b11_01_11_01>(t[i + 4], t[i + 12]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(heads: usize, kv: usize, hd: usize, window: Option<usize>) -> AttentionShape {
        AttentionShape {
            num_heads: heads,
            num_kv_heads: kv,
            head_dim: hd,
            window,
        }
    }

    #[test]
    fn single_position_returns_its_value() {
        let s = shape(2, 2, 2, None);
        let q = vec![1.0, 0.0, 0.0, 1.0];
        let keys = vec![0.5, 0.5, 0.5, 0.5];
        let values = vec![1.0, 2.0, 3.0, 4.0];
        let out = attend_one(&q, &keys, &values, 1, &s);
        // One position → softmax weight 1 → output = its value.
        assert_eq!(out, values);
    }

    #[test]
    fn attends_to_matching_key() {
        let s = shape(1, 1, 2, None);
        let q = vec![10.0, 0.0];
        // Position 0 key aligned with q, position 1 orthogonal.
        let keys = vec![1.0, 0.0, 0.0, 1.0];
        let values = vec![5.0, 5.0, -5.0, -5.0];
        let out = attend_one(&q, &keys, &values, 2, &s);
        assert!(out[0] > 4.5, "should focus on position 0: {out:?}");
    }

    #[test]
    fn gqa_shares_kv_heads() {
        // 4 query heads, 2 KV heads: heads 0-1 use kv0, heads 2-3 use kv1.
        let s = shape(4, 2, 1, None);
        let q = vec![1.0; 4];
        let keys = vec![1.0, 1.0]; // one token, kv_dim=2
        let values = vec![7.0, 9.0];
        let out = attend_one(&q, &keys, &values, 1, &s);
        assert_eq!(out, vec![7.0, 7.0, 9.0, 9.0]);
    }

    #[test]
    fn sliding_window_ignores_old_tokens() {
        let s = shape(1, 1, 1, Some(2));
        let q = vec![1.0];
        // Three tokens; the first has a huge value but falls outside the
        // window of 2.
        let keys = vec![5.0, 1.0, 1.0];
        let values = vec![1000.0, 1.0, 2.0];
        let out = attend_one(&q, &keys, &values, 3, &s);
        assert!(out[0] < 3.0, "window must exclude token 0: {out:?}");
    }

    #[test]
    fn uniform_keys_average_values() {
        let s = shape(1, 1, 1, None);
        let q = vec![0.0]; // zero query → uniform scores
        let keys = vec![1.0, 2.0, 3.0, 4.0];
        let values = vec![1.0, 2.0, 3.0, 4.0];
        let out = attend_one(&q, &keys, &values, 4, &s);
        assert!((out[0] - 2.5).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "query width mismatch")]
    fn validates_query_width() {
        let s = shape(2, 2, 4, None);
        attend_one(&[0.0; 4], &[0.0; 8], &[0.0; 8], 1, &s);
    }

    /// The per-KV-head shard must be bit-identical to the corresponding
    /// slice of the whole-token attention — the invariant that lets the
    /// parallel forward pass fan groups out across threads.
    #[test]
    fn kv_group_shards_tile_attend_one_bitwise() {
        // GQA shape with awkward values: 4 query heads over 2 KV heads.
        let s = shape(4, 2, 3, Some(5));
        let seq_len = 7;
        let q: Vec<f32> = (0..s.q_dim())
            .map(|i| ((i * 37 + 11) % 23) as f32 / 5.0 - 2.1)
            .collect();
        let keys: Vec<f32> = (0..seq_len * s.kv_dim())
            .map(|i| ((i * 53 + 3) % 31) as f32 / 7.0 - 1.9)
            .collect();
        let values: Vec<f32> = (0..seq_len * s.kv_dim())
            .map(|i| ((i * 29 + 17) % 41) as f32 / 9.0 - 2.3)
            .collect();
        let whole = attend_one(&q, &keys, &values, seq_len, &s);
        let gw = s.group_size() * s.head_dim;
        for kvh in 0..s.num_kv_heads {
            let (mut part, mut scores) = (vec![0.0f32; gw], Vec::new());
            attend_kv_group_into(&q, &keys, &values, seq_len, &s, kvh, &mut part, &mut scores);
            let wb: Vec<u32> = whole[kvh * gw..(kvh + 1) * gw]
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let pb: Vec<u32> = part.iter().map(|v| v.to_bits()).collect();
            assert_eq!(wb, pb, "kv head {kvh} diverged");
        }
    }

    /// `attend_one_into` with reused (dirty) buffers must reproduce
    /// `attend_one` bit-for-bit.
    #[test]
    fn into_variant_matches_allocating_variant_bitwise() {
        let s = shape(4, 2, 3, Some(5));
        let seq_len = 7;
        let q: Vec<f32> = (0..s.q_dim()).map(|i| (i as f32) * 0.3 - 1.7).collect();
        let keys: Vec<f32> = (0..seq_len * s.kv_dim())
            .map(|i| ((i * 53 + 3) % 31) as f32 / 7.0 - 1.9)
            .collect();
        let values: Vec<f32> = (0..seq_len * s.kv_dim())
            .map(|i| ((i * 29 + 17) % 41) as f32 / 9.0 - 2.3)
            .collect();
        let fresh = attend_one(&q, &keys, &values, seq_len, &s);
        let mut scratch = AttentionScratch::default();
        let mut out = vec![42.0; 99]; // deliberately dirty and wrong-sized
        scratch.scores.resize(33, 7.0);
        for _ in 0..2 {
            attend_one_into(&q, &keys, &values, seq_len, &s, &mut scratch, &mut out);
            let fb: Vec<u32> = fresh.iter().map(|v| v.to_bits()).collect();
            let ob: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fb, ob);
        }
    }

    // ------------------------------------------------------------------
    // Fused-kernel tests: quantize real rows through the Oaken pipeline
    // and compare quantized-domain attention against the exact kernels
    // over the dequantized views.
    // ------------------------------------------------------------------

    use oaken_core::{KvKind, OakenConfig, OakenQuantizer, OfflineProfiler};

    fn kv_row(d: usize, seed: u64) -> Vec<f32> {
        (0..d)
            .map(|i| {
                let u = ((i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(seed.wrapping_mul(0xD1B54A32D192ED03))
                    >> 33) as f32
                    / (1u64 << 31) as f32;
                let base = (u - 0.5) * 4.0;
                match i % 37 {
                    0 => base * 8.0,
                    1 => base * 0.02,
                    _ => base,
                }
            })
            .collect()
    }

    fn oaken(d: usize) -> OakenQuantizer {
        let config = OakenConfig::default();
        let mut p = OfflineProfiler::new(config.clone(), 1);
        for s in 0..48 {
            for kind in KvKind::ALL {
                p.observe(0, kind, &kv_row(d.max(256), s * 11 + 5));
            }
        }
        OakenQuantizer::new(config, p.try_finish().unwrap())
    }

    /// Quantizes `seq_len` rows of one kind: the read plan the fused kernel
    /// walks, the encoded rows behind it, and the exact dequantized view.
    fn encode_rows(
        q: &OakenQuantizer,
        kind: KvKind,
        seq_len: usize,
        kv_dim: usize,
        seed: u64,
    ) -> (EncodedReadPlan, Vec<oaken_core::FusedVector>, Vec<f32>) {
        let params = q.fused_read_params(0, kind).unwrap();
        let mut plan = EncodedReadPlan::new();
        let mut rows = Vec::new();
        let mut view = Vec::new();
        for t in 0..seq_len {
            let x = kv_row(kv_dim, seed + t as u64 * 131);
            let fv = q.quantize_vector(&x, 0, kind).unwrap();
            view.extend_from_slice(&q.dequantize_vector(&fv, 0, kind).unwrap());
            plan.push_row(&fv, &params);
            rows.push(fv);
        }
        (plan, rows, view)
    }

    fn max_rel_err(a: &[f32], b: &[f32]) -> f32 {
        let range = a.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-6);
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs() / range)
            .fold(0.0f32, f32::max)
    }

    fn attend_one_fused(
        q: &[f32],
        keys: &EncodedReadPlan,
        values: &EncodedReadPlan,
        seq_len: usize,
        s: &AttentionShape,
    ) -> Vec<f32> {
        let (keys, values) = (EncodedKv { plan: keys }, EncodedKv { plan: values });
        let (mut out, mut scratch) = (Vec::new(), AttentionScratch::default());
        attend_one_fused_into(q, &keys, &values, seq_len, s, &mut scratch, &mut out);
        out
    }

    #[test]
    fn fused_attention_close_to_exact_over_decoded_views() {
        // GQA + window + odd head_dim to exercise the unaligned column
        // paths of the decode, and a context spanning several row blocks.
        for (heads, kv, hd, window, seq_len) in [
            (4, 2, 16, None, 13),
            (6, 3, 5, Some(9), 13),
            (2, 2, 32, Some(4), 13),
            (4, 2, 32, None, 150),
        ] {
            let s = shape(heads, kv, hd, window);
            let quant = oaken(s.kv_dim());
            let (kplan, _, kview) = encode_rows(&quant, KvKind::Key, seq_len, s.kv_dim(), 1);
            let (vplan, _, vview) = encode_rows(&quant, KvKind::Value, seq_len, s.kv_dim(), 2);
            let q: Vec<f32> = kv_row(s.q_dim(), 977);
            let exact = attend_one(&q, &kview, &vview, seq_len, &s);
            let fused = attend_one_fused(&q, &kplan, &vplan, seq_len, &s);
            let err = max_rel_err(&exact, &fused);
            assert!(
                err <= 5e-4,
                "fused diverged from exact: rel err {err} at shape {s:?}"
            );
        }
    }

    #[test]
    fn fused_sliding_window_ignores_old_tokens() {
        let s = shape(1, 1, 8, Some(2));
        let quant = oaken(s.kv_dim());
        let seq_len = 6;
        let (kplan, _, kview) = encode_rows(&quant, KvKind::Key, seq_len, s.kv_dim(), 21);
        let (vplan, _, vview) = encode_rows(&quant, KvKind::Value, seq_len, s.kv_dim(), 22);
        let q: Vec<f32> = kv_row(s.q_dim(), 555);
        let exact = attend_one(&q, &kview, &vview, seq_len, &s);
        let fused = attend_one_fused(&q, &kplan, &vplan, seq_len, &s);
        assert!(max_rel_err(&exact, &fused) <= 5e-4);
    }

    /// Both block decodes — on every lane this build and CPU offer — must
    /// reproduce `decode_row_fused_into` element for element, at odd
    /// widths, odd column offsets, and partial row blocks.
    #[test]
    fn block_decodes_match_reference_decode_bitwise() {
        fn check<const AVX512: bool>(plan: &EncodedReadPlan, want: &[Vec<f32>], kv_dim: usize) {
            let rows = want.len();
            for (col, hd) in [
                (0usize, kv_dim),
                (0, 32),
                (32, 35),
                (3, 33),
                (17, 16),
                (66, 1),
            ] {
                for b0 in (0..rows).step_by(ROW_BLOCK) {
                    let n = ROW_BLOCK.min(rows - b0);
                    let mut kt = vec![7.0f32; hd * ROW_BLOCK];
                    let mut v = vec![7.0f32; hd * ROW_BLOCK];
                    decode_keys::<AVX512>(plan, b0, n, col, hd, &mut kt);
                    decode_values::<AVX512>(plan, b0, n, col, hd, &mut v);
                    for r in 0..ROW_BLOCK {
                        for j in 0..hd {
                            let reference = if r < n { want[b0 + r][col + j] } else { 0.0 };
                            assert_eq!(
                                kt[j * ROW_BLOCK + r].to_bits(),
                                reference.to_bits(),
                                "key block row {} col {} (avx512 {AVX512})",
                                b0 + r,
                                col + j
                            );
                            if r < n {
                                assert_eq!(v[r * hd + j].to_bits(), reference.to_bits());
                            }
                        }
                    }
                }
            }
        }
        let kv_dim = 67;
        let quant = oaken(kv_dim);
        let params = quant.fused_read_params(0, KvKind::Key).unwrap();
        let (plan, rows, _) = encode_rows(&quant, KvKind::Key, ROW_BLOCK + 21, kv_dim, 9);
        let want: Vec<Vec<f32>> = rows
            .iter()
            .map(|fv| {
                let mut out = Vec::new();
                oaken_core::kernel::decode_row_fused_into(fv, &params, &mut out);
                out
            })
            .collect();
        assert!(
            (0..plan.rows()).any(|t| !plan.outliers(t).1.is_empty()),
            "the rows must carry outliers"
        );
        check::<false>(&plan, &want, kv_dim);
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if simd::available() {
            check::<true>(&plan, &want, kv_dim);
        }
    }

    /// This crate's `simd` feature is the one `bench/Cargo.toml` and CI
    /// enable; it must switch on the weight sweep's lanes in oaken-tensor
    /// as well as the decode lane here.
    #[cfg(feature = "simd")]
    #[test]
    fn simd_feature_reaches_the_tensor_lanes() {
        const { assert!(oaken_tensor::SIMD_LANES_COMPILED) };
    }
}
