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
//! * the **fused** kernel ([`attend_segments_fused_into`], and its
//!   single-token, one-KV-head form [`attend_kv_group_fused_into`]) reads
//!   the encoded rows through
//!   their [`EncodedReadPlan`] — one sweep decodes each row once and
//!   serves a whole tile of query tokens (a prefill chunk, or the decode
//!   steps of sequences that share prefix-trie blocks, whose shared rows
//!   it decodes once for all of them) and every query head of the group —
//!   so attention never needs a materialized f32 view of the cache. Its
//!   numeric contract is
//!   SQNR-bounded against the exact kernels (see `oaken_core::kernel`)
//!   and *width-invariant*: a query's output does not depend on which
//!   other queries, of its sequence or another, shared its sweep. Keys
//!   decode column by column, sixteen
//!   rows at a time, straight into the transposed score tile; values row
//!   by row. With the `simd` cargo feature both decodes run on a
//!   `std::arch` AVX-512 lane, bit-identically.

use oaken_core::kernel::{EncodedReadPlan, KeyGroup, KeyPlan, ValuePlan, ValueRow, KEY_GROUP};
use oaken_tensor::{softmax_in_place, softmax_rows};
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
/// rows shared by both families plus the decoded row block and the tile
/// bookkeeping of the fused kernel. Hold one per decode loop (or per
/// worker) and every attention call after warm-up allocates nothing.
#[derive(Debug, Default)]
pub struct AttentionScratch {
    scores: Vec<f32>,
    block: Vec<f32>,
    pieces: Vec<Piece>,
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
/// [`EncodedReadPlan`] of one `(sequence, layer, kind)` — decode
/// coefficients, dense nibbles and outlier values, keys column-major in
/// 16-row groups and values row-major. This is what the paged pool hands
/// out in fused mode; no dequantized f32 image of these rows exists
/// anywhere.
#[derive(Debug, Clone, Copy)]
pub struct EncodedKv<'a> {
    /// Read plan covering every cached row of the tensor.
    pub plan: &'a EncodedReadPlan,
}

/// What attention reads for one `(sequence, layer)`: its encoded tensors
/// under [`crate::KernelMode::Fused`], else its dequantized f32 views.
#[derive(Debug, Clone, Copy)]
pub enum KvRead<'a> {
    /// Encoded K and V tensors for [`attend_segments_fused_into`].
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

impl KvRead<'_> {
    /// K/V row pairs the read holds (`kv_dim` wide).
    pub(crate) fn rows(&self, kv_dim: usize) -> usize {
        match self {
            KvRead::Fused { keys, values } => keys.plan.rows().min(values.plan.rows()),
            KvRead::Exact { keys, values } => keys.len().min(values.len()) / kv_dim.max(1),
        }
    }
}

/// One segment of a fused sweep: a run of `queries` query tokens of one
/// sequence — the next `queries` entries of the call's queries and limits,
/// the limits non-decreasing — and that sequence's encoded K and V
/// tensors. A prefill chunk is a run with consecutive limits, a decode
/// step a run of one.
#[derive(Debug, Clone, Copy)]
pub struct Segment<'a> {
    /// Query tokens in the run.
    pub queries: usize,
    /// The sequence's encoded keys.
    pub keys: EncodedKv<'a>,
    /// The sequence's encoded values.
    pub values: EncodedKv<'a>,
}

impl Segment<'_> {
    /// The key and value plans.
    #[inline(always)]
    fn plans(&self) -> (&KeyPlan, &ValuePlan) {
        match (self.keys.plan, self.values.plan) {
            (EncodedReadPlan::Keys(keys), EncodedReadPlan::Values(values)) => (keys, values),
            _ => panic!("keys are read through a key plan, values through a value plan"),
        }
    }
}

/// Most query tokens one sweep over a slot's encoded rows serves; longer
/// runs take one sweep per tile.
pub const QUERY_TILE: usize = 32;

/// Rows decoded per block: keys land transposed (`[column][ROW_BLOCK]`),
/// a whole number of key groups, so a query head's scores against the
/// whole block accumulate in `ROW_BLOCK` independent lanes; values land
/// row-major.
const ROW_BLOCK: usize = 64;
const _: () = assert!(ROW_BLOCK.is_multiple_of(KEY_GROUP));

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

/// The exact kernels over a run of query tokens of one sequence: `out`
/// receives `[qs.len() × kv_heads.len() × group_size × head_dim]`, query
/// `i` attending rows `window_start(limits[i]) .. limits[i]` of the
/// row-major `keys` / `values` views.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attend_exact_run_into(
    qs: &[&[f32]],
    limits: &[usize],
    keys: &[f32],
    values: &[f32],
    shape: &AttentionShape,
    kv_heads: Range<usize>,
    scratch: &mut AttentionScratch,
    out: &mut [f32],
) {
    let (kv_dim, gw) = (shape.kv_dim(), shape.group_size().max(1) * shape.head_dim);
    let groups = qs
        .iter()
        .zip(limits)
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

/// Fused-kernel analogue of [`attend_kv_group_into`]: one KV head's
/// query-group context for a single token — [`attend_segments_fused_into`]
/// over one segment of width 1 and one head.
///
/// # Panics
///
/// Same conditions as [`attend_segments_fused_into`].
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
    let run = Segment {
        queries: 1,
        keys: *keys,
        values: *values,
    };
    let head = kv_head..kv_head + 1;
    attend_segments_fused_into(&[q], &[seq_len], &[run], 0, shape, head, scratch, out_g);
}

/// The fused kernel: attention of the query groups of KV heads `kv_heads`
/// for query tokens of several sequences, computed directly over the
/// encoded rows. Query `i` (`qs[i]`, `q_dim` wide) attends rows
/// `window_start(limits[i]) .. limits[i]` of its segment's sequence — the
/// segments take the queries in order — and `out` receives
/// `[qs.len() × kv_heads.len() × group_size × head_dim]`. Rows
/// `0 .. shared` (a multiple of [`KEY_GROUP`]) must be the same in every
/// segment's plans — the rows of the prefix-trie blocks their sequences
/// share; a lone segment passes 0.
///
/// Per [`QUERY_TILE`] queries the key plans are walked **once**: each
/// block of rows is decoded a single time (a multiply-add per dense code,
/// sixteen rows of a column at a time, outliers overwritten in place) and
/// reused by every query of the tile that sees it and every query head of
/// the range; softmax runs per (query, head); the value plans are swept
/// the same way (a table lookup per dense code). Rows below `shared` are
/// decoded from the tile's first segment for the queries of every
/// segment; each segment's rows from `shared` up from its own plans for
/// its own queries. The arithmetic behind both decodes is register-blocked
/// (`score_block`, `weigh_block`): the queries and query heads sharing a
/// KV head's tile keep their accumulators in registers side by side, so a
/// decoded key column or value row is loaded once for all of them and an
/// output is loaded and stored once per row block, not once per multiply.
///
/// **Width invariance.** Every score is
/// `(((q₀·k₀ + q₁·k₁) + q₂·k₂) + …) / √d` — one serial chain over the
/// head's columns with separately rounded multiplies and adds — and
/// every output element accumulates `p·v` over the visible rows in
/// ascending order (the shared rows, then the segment's own). Lanes run
/// over *rows* (keys) and *columns* (values), never across a chain, so
/// each (query, row, head) score and each output element is a pure
/// function of the query and the rows: independent of tile width and
/// position, block alignment, which segments share the sweep, the head
/// range, thread and rank count, and of the `simd` feature (whose AVX-512
/// lane only speeds up the decode, bit-identically). Feeding a prompt in
/// chunks of any size therefore yields the bits of feeding it token by
/// token, and a query swept beside other sequences' the bits of its run
/// alone.
///
/// # Panics
///
/// Panics if `qs`/`limits`/`out` and the segments' query counts disagree
/// with each other or the shape, a segment's limits decrease, a plan holds
/// fewer
/// rows than its largest limit or than `shared`, or rows of another
/// width, `keys` is not a key plan or `values` not a value plan, `shared`
/// is not a multiple of [`KEY_GROUP`], or `kv_heads` exceeds
/// `num_kv_heads`.
#[allow(clippy::too_many_arguments)]
pub fn attend_segments_fused_into(
    qs: &[&[f32]],
    limits: &[usize],
    segments: &[Segment<'_>],
    shared: usize,
    shape: &AttentionShape,
    kv_heads: Range<usize>,
    scratch: &mut AttentionScratch,
    out: &mut [f32],
) {
    let row_w = kv_heads.len() * shape.group_size().max(1) * shape.head_dim;
    assert_eq!(qs.len(), limits.len(), "one limit per query");
    let queries: usize = segments.iter().map(|s| s.queries).sum();
    assert_eq!(queries, qs.len(), "the segments take every query");
    assert_eq!(out.len(), qs.len() * row_w, "output shape mismatch");
    assert!(kv_heads.end <= shape.num_kv_heads, "kv head out of range");
    assert!(
        shared.is_multiple_of(KEY_GROUP),
        "shared rows end at a key group's edge"
    );
    assert!(
        qs.iter().all(|q| q.len() == shape.q_dim()),
        "query width mismatch"
    );
    let mut at = 0;
    for seg in segments {
        let limits = &limits[at..at + seg.queries];
        at += seg.queries;
        assert!(
            limits.windows(2).all(|w| w[0] <= w[1]),
            "limits must not decrease along a run"
        );
        let hi = limits.last().copied().unwrap_or(0);
        for (plan, what) in [(seg.keys.plan, "key"), (seg.values.plan, "value")] {
            assert!(plan.rows() >= hi, "{what} read plan shorter than seq_len");
            assert!(
                plan.rows() >= shared,
                "{what} read plan shorter than the shared rows"
            );
            assert!(
                hi.max(shared) == 0 || plan.dim() == shape.kv_dim(),
                "encoded {what} row width mismatch"
            );
        }
        // Panics on a plan of the wrong kind.
        seg.plans();
    }
    if row_w == 0 {
        return;
    }
    for (t, out) in out.chunks_mut(QUERY_TILE * row_w).enumerate() {
        let tile = t * QUERY_TILE..t * QUERY_TILE + out.len() / row_w;
        let heads = kv_heads.clone();
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if simd::available() {
            let sweep = Tile {
                qs,
                limits,
                segments,
                queries: tile,
                shared,
            };
            // SAFETY: `available` verified the lane's CPU features.
            unsafe { simd::fused_sweep(sweep, shape, heads, scratch, out) };
            continue;
        }
        let sweep = Tile {
            qs,
            limits,
            segments,
            queries: tile,
            shared,
        };
        fused_sweep::<false>(sweep, shape, heads, scratch, out);
    }
}

/// The pieces of positions `tile` of the concatenation of runs `lens`
/// long, in order: per run the tile overlaps, the run's index and the
/// positions within it.
pub(crate) fn tile_pieces(
    lens: impl IntoIterator<Item = usize>,
    tile: Range<usize>,
) -> impl Iterator<Item = (usize, Range<usize>)> {
    let mut at = 0;
    lens.into_iter().enumerate().filter_map(move |(i, len)| {
        let (from, to) = (at, at + len);
        at = to;
        let piece = tile.start.clamp(from, to) - from..tile.end.clamp(from, to) - from;
        (!piece.is_empty()).then_some((i, piece))
    })
}

/// A segment's queries in the tile being swept.
#[derive(Debug, Clone)]
struct Piece {
    /// Index of the segment.
    seg: usize,
    /// Its queries' tile rows (output and score rows).
    at: Range<usize>,
    /// The rows they see, from the key group holding the first window
    /// start.
    rows: Range<usize>,
}

/// One tile of [`attend_segments_fused_into`] (at most [`QUERY_TILE`]
/// queries, inputs validated there): per walk of a plan's rows — the
/// shared rows for every piece, then each piece's own — the key blocks are
/// decoded and scored, softmax runs per (query, head), and the same walks
/// decode the value blocks and weigh them. `AVX512` selects the decode
/// lane; every arithmetic loop is the same portable code on both, compiled
/// once per lane (the AVX-512 instance inlines into a `#[target_feature]`
/// caller and vectorizes at 512 bits).
#[inline(always)]
fn fused_sweep<const AVX512: bool>(
    tile: Tile<'_, '_>,
    shape: &AttentionShape,
    heads: Range<usize>,
    scratch: &mut AttentionScratch,
    out: &mut [f32],
) {
    out.fill(0.0);
    let AttentionScratch {
        scores,
        block,
        pieces,
    } = scratch;
    // Rows a piece's queries see: limits (hence window starts) are
    // non-decreasing along a segment, so both ends sit at the piece's
    // ends. Walks start at a key group's edge; rows below a window start
    // are then scored but never read (softmax and the weighted sum take
    // each query's own rows).
    let (segments, shared) = (tile.segments, tile.shared);
    let qs = &tile.qs[tile.queries.clone()];
    let limits = &tile.limits[tile.queries.clone()];
    pieces.clear();
    let (mut row, mut lo, mut top) = (0, usize::MAX, 0);
    for (seg, queries) in tile_pieces(segments.iter().map(|s| s.queries), tile.queries) {
        let at = row..row + queries.len();
        row = at.end;
        let start = window_start(shape, limits[at.start]) / KEY_GROUP * KEY_GROUP;
        let rows = start..limits[at.end - 1];
        (lo, top) = (lo.min(rows.start), top.max(rows.end));
        pieces.push(Piece { seg, at, rows });
    }
    let pieces: &[Piece] = pieces;
    let lo = lo.min(top);
    // The shared rows any query sees, walked once for all; then a piece's
    // own rows from `shared` up, each starting at a key group's edge.
    let common = lo..shared.min(top).max(lo);
    let own = |p: &Piece| {
        let from = p.rows.start.max(shared);
        from..p.rows.end.max(from)
    };
    let end = |rows: &Range<usize>| match rows.len() {
        0 => 0,
        n => rows.start + n.next_multiple_of(ROW_BLOCK) - lo,
    };
    // One score row per (query, head), `stride` apart; row `t` at `t - lo`.
    // A multiple of 256 B for a lone segment, exactly 4 KiB for 961–1024
    // visible rows, so the tile's score rows share cache sets. Padding it
    // by one cache line took 7 ms per `long_context` replay off the
    // row-outer value pass this kernel used to have (85 → 78 ms); with
    // each member's weights now read sequentially it measures nothing
    // (174–192 µs unpadded, 180–181 µs padded, per 32-query × 1024-row
    // tile), so it stays out.
    let stride = pieces
        .iter()
        .map(|p| end(&own(p)))
        .fold(end(&common), usize::max);
    if stride == 0 {
        return;
    }
    let (hd, group) = (shape.head_dim, shape.group_size().max(1));
    let sweep = Sweep {
        qs,
        limits,
        shape,
        group,
        nh: heads.len() * group,
        col: heads.start * hd,
        width: heads.len() * hd,
        lo,
        stride,
    };
    let (nh, width) = (sweep.nh, sweep.width);
    // Grown, never cleared: every score and block element is written
    // before the pass that reads it.
    if scores.len() < qs.len() * nh * stride {
        scores.resize(qs.len() * nh * stride, 0.0);
    }
    if block.len() < width * ROW_BLOCK {
        block.resize(width * ROW_BLOCK, 0.0);
    }
    let block = &mut block[..width * ROW_BLOCK];
    // The walks, each from one segment's plans: the shared rows for every
    // piece, from the first; then each piece's own rows, from its own.
    let walks = || {
        let shared = std::iter::once((pieces[0].seg, common.clone(), pieces));
        let own = pieces
            .iter()
            .map(|p| (p.seg, own(p), std::slice::from_ref(p)));
        shared.chain(own).filter(|(_, rows, _)| !rows.is_empty())
    };

    for (seg, rows, at) in walks() {
        let keys = segments[seg].plans().0;
        sweep.score::<AVX512>(keys, rows, at, block, scores);
    }

    for (t, &limit) in limits.iter().enumerate() {
        let rows = &mut scores[t * nh * stride..(t + 1) * nh * stride];
        softmax_rows(rows, stride, window_start(shape, limit) - lo..limit - lo);
    }

    for (seg, rows, at) in walks() {
        let values = segments[seg].plans().1;
        sweep.weigh::<AVX512>(values, rows, at, block, scores, out);
    }
}

/// The queries of one tile of [`attend_segments_fused_into`]: positions
/// `queries` of the call's `qs` / `limits`, taken by `segments` in order.
struct Tile<'s, 'a> {
    qs: &'s [&'a [f32]],
    limits: &'s [usize],
    segments: &'s [Segment<'a>],
    queries: Range<usize>,
    shared: usize,
}

/// The walks of one tile of [`fused_sweep`].
struct Sweep<'s, 'a> {
    /// Per tile row, its query vector and its limit.
    qs: &'s [&'a [f32]],
    limits: &'s [usize],
    shape: &'s AttentionShape,
    /// Query heads per KV head, and per query.
    group: usize,
    nh: usize,
    /// The columns of the KV heads served.
    col: usize,
    width: usize,
    /// The row at the start of every score row.
    lo: usize,
    /// Score-row length.
    stride: usize,
}

impl<'a> Sweep<'_, 'a> {
    /// The tile rows of `pieces` whose queries see any of rows
    /// `b0 .. b0 + n`: exactly those for one piece (its limits are
    /// non-decreasing, so they are contiguous); for several — the shared
    /// walk, whose pieces' rows are contiguous — the span from the first of
    /// them to the last, where a query that sees none of the rows takes
    /// part with none visible.
    #[inline(always)]
    fn seeing(&self, pieces: &[Piece], b0: usize, n: usize) -> Range<usize> {
        if let [p] = pieces {
            let seen = queries_seeing(self.shape, &self.limits[p.at.clone()], b0, n);
            return p.at.start + seen.start..p.at.start + seen.end;
        }
        let (mut first, mut last) = (usize::MAX, 0);
        for p in pieces {
            let seen = queries_seeing(self.shape, &self.limits[p.at.clone()], b0, n);
            if !seen.is_empty() {
                first = first.min(p.at.start + seen.start);
                last = last.max(p.at.start + seen.end);
            }
        }
        first.min(last)..last
    }

    /// Decodes rows `rows` of `keys` block by block and scores them for
    /// the queries of `pieces` that see them.
    #[inline(always)]
    fn score<const AVX512: bool>(
        &self,
        keys: &KeyPlan,
        rows: Range<usize>,
        pieces: &[Piece],
        block: &mut [f32],
        scores: &mut [f32],
    ) {
        let Self {
            qs,
            group,
            nh,
            col,
            width,
            lo,
            stride,
            ..
        } = *self;
        let hd = self.shape.head_dim;
        let inv_sqrt = 1.0 / (hd as f32).sqrt();
        for b0 in rows.clone().step_by(ROW_BLOCK) {
            let n = ROW_BLOCK.min(rows.end - b0);
            decode_keys::<AVX512>(keys, b0, n, col, width, block);
            let seeing = self.seeing(pieces, b0, n);
            let members = seeing.len() * group;
            for (kh, kt) in block.chunks_exact(hd * ROW_BLOCK).enumerate() {
                let member = |m: usize| {
                    let (t, h) = (seeing.start + m / group, kh * group + m % group);
                    let q_h = &qs[t][col * group + h * hd..][..hd];
                    (q_h, (t * nh + h) * stride + (b0 - lo))
                };
                // Four members' 64 row lanes fill sixteen 512-bit registers.
                member_blocks!(members, [4, 2, 1], |m, G| score_block::<G>(
                    m, &member, kt, inv_sqrt, scores
                ));
            }
        }
    }

    /// Decodes rows `rows` of `values` block by block and adds each row's
    /// weighted value into the output of every query of `pieces` that
    /// sees it.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn weigh<const AVX512: bool>(
        &self,
        values: &ValuePlan,
        rows: Range<usize>,
        pieces: &[Piece],
        block: &mut [f32],
        scores: &[f32],
        out: &mut [f32],
    ) {
        let Self {
            limits,
            shape,
            group,
            nh,
            col,
            width,
            lo,
            stride,
            ..
        } = *self;
        let hd = shape.head_dim;
        for b0 in rows.clone().step_by(ROW_BLOCK) {
            let n = ROW_BLOCK.min(rows.end - b0);
            decode_values::<AVX512>(values, b0, n, col, width, block);
            let seeing = self.seeing(pieces, b0, n);
            let members = seeing.len() * group;
            for kh in 0..width / hd {
                let member = |m: usize| {
                    let (t, h) = (seeing.start + m / group, kh * group + m % group);
                    // Empty, inside the block, for a query that sees none
                    // of its rows.
                    let from = window_start(shape, limits[t]).max(b0).min(b0 + n);
                    let to = limits[t].min(b0 + n).max(from);
                    let p = &scores[(t * nh + h) * stride + (b0 - lo)..][..n];
                    (p, from - b0..to - b0, (t * nh + h) * hd)
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
    // Rows every member sees (empty, at the last start, if there are none).
    let from = who.iter().map(|w| w.1.start).max().unwrap_or(0);
    let common = from..who.iter().map(|w| w.1.end).min().unwrap_or(0).max(from);
    for (acc, (p, rows, _)) in acc.iter_mut().zip(who) {
        for r in rows.start..common.start.min(rows.end) {
            accumulate(acc, p[r], &row(v, width, r));
        }
    }
    // Re-sliced to the common rows, and the lengths asserted equal, so
    // `p[k]` in the loop every full block spends its time in is check-free.
    let ps: [&[f32]; G] = std::array::from_fn(|g| &who[g].0[common.clone()]);
    assert!(ps.iter().all(|p| p.len() == common.len()));
    for (k, r) in common.clone().enumerate() {
        let v_r = row(v, width, r);
        for (acc, p) in acc.iter_mut().zip(ps) {
            accumulate(acc, p[k], &v_r);
        }
    }
    for (acc, (p, rows, _)) in acc.iter_mut().zip(who) {
        for r in common.end.max(rows.start)..rows.end {
            accumulate(acc, p[r], &row(v, width, r));
        }
    }
    for (acc, (_, _, at)) in acc.iter().zip(who) {
        out[at + c..][..W].copy_from_slice(acc);
    }
}

/// Columns `0 .. W` of row `r` of `v` (rows `width` apart).
#[inline(always)]
fn row<const W: usize>(v: &[f32], width: usize, r: usize) -> [f32; W] {
    v[r * width..][..W].try_into().expect("W columns sliced")
}

/// `acc += p · v`: each element one multiply and one add, separately
/// rounded.
#[inline(always)]
fn accumulate<const W: usize>(acc: &mut [f32; W], p: f32, v: &[f32; W]) {
    for (a, &x) in acc.iter_mut().zip(v) {
        *a += p * x;
    }
}

/// Hands `put` element `col + j` of `row` for every `j < width` outside
/// `done` (the columns a vector lane already decoded): the dense nibble's
/// value in the row's table, built here from its coefficient lane, or the
/// outlier's value where the masks mark one.
#[inline(always)]
fn decode_value_row(
    row: &ValueRow<'_>,
    col: usize,
    width: usize,
    done: &Range<usize>,
    mut put: impl FnMut(usize, f32),
) {
    let table = row.coeffs.table(row.lane);
    for j in (0..done.start).chain(done.end..width) {
        let e = col + j;
        let code = (row.dense[e / 16] >> (4 * (e % 16))) & 0xF;
        put(j, table[code as usize]);
    }
    let mut next = row.values.iter();
    for (c, &mask) in row.masks.iter().enumerate() {
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

/// Decodes columns `col .. col + width` of the key groups holding rows
/// `b0 .. b0 + n` (`b0` a group edge) into the transposed key block:
/// `block[j · ROW_BLOCK + r]` is element `col + j` of row `b0 + r`,
/// bit-identical to
/// [`decode_row_fused_into`](oaken_core::kernel::decode_row_fused_into),
/// for every row of those groups the plan holds; every other lane is
/// `+0.0`. An open group reads like a sealed one.
#[inline(always)]
fn decode_keys<const AVX512: bool>(
    plan: &KeyPlan,
    b0: usize,
    n: usize,
    col: usize,
    width: usize,
    block: &mut [f32],
) {
    let groups = b0 / KEY_GROUP..(b0 + n).div_ceil(KEY_GROUP);
    for (k, g) in groups.clone().enumerate() {
        let group = plan.group(g);
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if AVX512 {
            // SAFETY: `AVX512` is only instantiated behind `simd::available`.
            unsafe { simd::decode_key_group(&group, col, width, KEY_GROUP * k, block) };
            continue;
        }
        decode_key_group(&group, col, width, KEY_GROUP * k, block);
    }
    let filled = KEY_GROUP * groups.len();
    if filled < ROW_BLOCK {
        for lanes in block.as_chunks_mut::<ROW_BLOCK>().0 {
            lanes[filled..].fill(0.0);
        }
    }
}

/// Columns `col .. col + width` of one key group into lanes
/// `at .. at + 16` of the transposed key block: per column, the rows'
/// middle decodes, with the outliers laid over them.
#[inline(always)]
fn decode_key_group(group: &KeyGroup<'_>, col: usize, width: usize, at: usize, block: &mut [f32]) {
    let mut values = group.values_from(col).iter();
    let columns = group.dense[col..col + width]
        .iter()
        .zip(&group.masks[col..col + width]);
    for ((&codes, &mask), lanes) in columns.zip(block.chunks_exact_mut(ROW_BLOCK)) {
        let lanes = &mut lanes[at..at + KEY_GROUP];
        lanes.copy_from_slice(&group.coeffs.middle(codes));
        let mut left = mask;
        while left != 0 {
            let r = left.trailing_zeros() as usize;
            lanes[r] = *values.next().expect("one value per mask bit");
            left &= left - 1;
        }
    }
}

/// Decodes columns `col .. col + width` of plan rows `b0 .. b0 + n` into
/// the row-major value block (`block[r · width + j]`), bit-identical to
/// [`decode_row_fused_into`](oaken_core::kernel::decode_row_fused_into).
#[inline(always)]
fn decode_values<const AVX512: bool>(
    plan: &ValuePlan,
    b0: usize,
    n: usize,
    col: usize,
    width: usize,
    block: &mut [f32],
) {
    let mut outs = block.chunks_exact_mut(width);
    plan.for_rows(b0..b0 + n, |row| {
        let out = outs.next().expect("one block row per plan row");
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
            decode_value_row(&row, col, width, &done, |j, v| out[j] = v);
        }
    });
}

/// The AVX-512 decode lane, enabled by the `simd` cargo feature on x86-64
/// and selected at runtime. Sixteen elements at a time, unpacked from one
/// 64-bit word of nibbles: sixteen columns of a value row, decoded by a
/// single table permute over the row's 16-entry table — built once per
/// row from its coefficient lane by the same compare, blend, multiply and
/// add, on the code-index vector — or sixteen rows of one key-group
/// column, decoded by the rows' multiply-add lanes
/// ([`GroupCoeffs`](oaken_core::kernel::GroupCoeffs)) straight into the
/// transposed key block. One masked expand-load then drops the outlier
/// values into their lanes — bit-identical to the scalar walk, so the lane
/// changes speed and nothing else.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd {
    use super::{AttentionScratch, AttentionShape, KeyGroup, Tile, ValueRow, KEY_GROUP, ROW_BLOCK};
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
    #[target_feature(enable = "avx512f,popcnt")]
    pub(super) fn fused_sweep(
        tile: Tile<'_, '_>,
        shape: &AttentionShape,
        heads: Range<usize>,
        scratch: &mut AttentionScratch,
        out: &mut [f32],
    ) {
        super::fused_sweep::<true>(tile, shape, heads, scratch, out);
    }

    /// Sixteen floats into a register.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load16(src: &[f32; 16]) -> __m512 {
        // SAFETY: `src` is sixteen floats.
        unsafe { _mm512_loadu_ps(src.as_ptr()) }
    }

    /// A register into sixteen floats.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store16(dst: &mut [f32; 16], v: __m512) {
        // SAFETY: `dst` is sixteen floats.
        unsafe { _mm512_storeu_ps(dst.as_mut_ptr(), v) }
    }

    /// Nibble `k` of `word` (low nibble first) in lane `k`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn nibbles(word: u64) -> __m512i {
        // The low 8 dwords replicate the word's low half, the high 8 its
        // high half, so the per-lane shifts `4·(k mod 8)` put nibble `k`
        // in lane `k`.
        let sel = _mm512_set_epi32(1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0);
        let shifts = _mm512_set_epi32(28, 24, 20, 16, 12, 8, 4, 0, 28, 24, 20, 16, 12, 8, 4, 0);
        let dw = _mm512_permutexvar_epi32(sel, _mm512_set1_epi64(word as i64));
        _mm512_and_si512(_mm512_srlv_epi32(dw, shifts), _mm512_set1_epi32(15))
    }

    /// `dense` with the lanes `mask` marks replaced by the next values,
    /// taken off the front of `values`.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    fn patch(dense: __m512, mask: u16, values: &mut &[f32]) -> __m512 {
        let (mine, rest) = values.split_at(mask.count_ones() as usize);
        *values = rest;
        // SAFETY: the expand-load reads one float per set mask bit, and
        // `mine` is exactly that many.
        unsafe { _mm512_mask_expandloadu_ps(dense, mask, mine.as_ptr()) }
    }

    /// The columns of a `width`-wide slice starting at `col` the vector
    /// lane decodes from a value row: whole 16-column chunks, when the
    /// slice starts on one of the row's 16-element mask groups.
    fn vector_columns(col: usize, width: usize) -> Range<usize> {
        if col.is_multiple_of(16) {
            0..width / 16 * 16
        } else {
            0..0
        }
    }

    /// A row's outlier values from the first one at or after element
    /// `col` (`col` a multiple of 16).
    fn values_from<'a>(row: &ValueRow<'a>, col: usize) -> &'a [f32] {
        let before: u32 = row.masks[..col / 16].iter().map(|m| m.count_ones()).sum();
        &row.values[before as usize..]
    }

    /// Codes `code` through middle coefficients given per lane:
    /// `code · mid_step + (code ≥ c0 ? base_hi : base_lo)`, the multiply
    /// and the add rounded separately, as
    /// [`RowDecode::middle`](oaken_core::RowDecode::middle) does.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn middle(code: __m512, [mid_step, c0, base_lo, base_hi]: [__m512; 4]) -> __m512 {
        let high = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(code, c0);
        let base = _mm512_mask_blend_ps(high, base_lo, base_hi);
        _mm512_add_ps(_mm512_mul_ps(code, mid_step), base)
    }

    /// Vector part of [`super::decode_values`] for one row: fills
    /// `out[j]` for the returned column range.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    pub(super) fn decode_row(row: &ValueRow<'_>, col: usize, out: &mut [f32]) -> Range<usize> {
        let done = vector_columns(col, out.len());
        if done.is_empty() {
            return done;
        }
        let mut values = values_from(row, col);
        let (c, r) = (row.coeffs, row.lane);
        let lane = [
            _mm512_set1_ps(c.mid_step[r]),
            _mm512_set1_ps(c.c0[r]),
            _mm512_set1_ps(c.base_lo[r]),
            _mm512_set1_ps(c.base_hi[r]),
        ];
        let codes = _mm512_setr_ps(
            0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
        );
        let table = middle(codes, lane);
        for (k, chunk) in out.as_chunks_mut::<16>().0.iter_mut().enumerate() {
            let w = col / 16 + k;
            let dense = _mm512_permutexvar_ps(nibbles(row.dense[w]), table);
            store16(chunk, patch(dense, row.masks[w], &mut values));
        }
        done
    }

    /// [`super::decode_key_group`] on the lane: per column one unpack of
    /// the sixteen rows' codes, `code · mid_step + (code ≥ c0 ? base_hi :
    /// base_lo)` with the multiply and the add rounded separately, one
    /// expand-load of the column's outliers and one store.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    pub(super) fn decode_key_group(
        group: &KeyGroup<'_>,
        col: usize,
        width: usize,
        at: usize,
        block: &mut [f32],
    ) {
        let c = group.coeffs;
        let coeffs = [
            load16(&c.mid_step),
            load16(&c.c0),
            load16(&c.base_lo),
            load16(&c.base_hi),
        ];
        let mut values = group.values_from(col);
        let columns = group.dense[col..col + width]
            .iter()
            .zip(&group.masks[col..col + width]);
        for ((&word, &mask), lanes) in columns.zip(block.chunks_exact_mut(ROW_BLOCK)) {
            let dense = middle(_mm512_cvtepi32_ps(nibbles(word)), coeffs);
            let lanes = (&mut lanes[at..at + KEY_GROUP])
                .try_into()
                .expect("sixteen lanes sliced");
            store16(lanes, patch(dense, mask, &mut values));
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
        let mut plan = EncodedReadPlan::new(kind);
        let mut rows = Vec::new();
        let mut view = Vec::new();
        for t in 0..seq_len {
            let x = kv_row(kv_dim, seed + t as u64 * 131);
            let fv = q.quantize_vector(&x, 0, kind).unwrap();
            view.extend_from_slice(&q.dequantize_vector(&fv, 0, kind).unwrap());
            plan.push_row(fv.row(), &params);
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
        let run = Segment {
            queries: 1,
            keys,
            values,
        };
        let mut out = vec![0.0; s.q_dim()];
        let all = 0..s.num_kv_heads;
        let mut scratch = AttentionScratch::default();
        attend_segments_fused_into(&[q], &[seq_len], &[run], 0, s, all, &mut scratch, &mut out);
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
    /// reproduce `decode_row_fused_into` element for element: key plans of
    /// every length 1–80 and value plans of every length 1–85 (partial
    /// groups, an open segment, a segment ending a row block), key blocks
    /// starting at every group edge, column offsets at every residue mod
    /// 16 and widths ending mid-chunk, at a width (67) that pads each value
    /// row's last nibble word.
    #[test]
    fn block_decodes_match_reference_decode_bitwise() {
        fn check_keys<const AVX512: bool>(
            plan: &KeyPlan,
            want: &[Vec<f32>],
            columns: &[(usize, usize)],
        ) {
            let rows = want.len();
            for &(col, width) in columns {
                for b0 in (0..rows).step_by(KEY_GROUP) {
                    for n in [ROW_BLOCK.min(rows - b0), 1] {
                        let mut kt = vec![7.0f32; width * ROW_BLOCK];
                        decode_keys::<AVX512>(plan, b0, n, col, width, &mut kt);
                        // Whole groups decode; lanes past them are zero.
                        let decoded = n.next_multiple_of(KEY_GROUP).min(rows - b0);
                        for r in 0..ROW_BLOCK {
                            for j in 0..width {
                                let reference = if r < decoded {
                                    want[b0 + r][col + j]
                                } else {
                                    0.0
                                };
                                assert_eq!(
                                    kt[j * ROW_BLOCK + r].to_bits(),
                                    reference.to_bits(),
                                    "key row {} col {} of {rows} rows (avx512 {AVX512})",
                                    b0 + r,
                                    col + j
                                );
                            }
                        }
                    }
                }
            }
        }
        fn check_values<const AVX512: bool>(
            plan: &ValuePlan,
            want: &[Vec<f32>],
            columns: &[(usize, usize)],
        ) {
            let rows = want.len();
            for &(col, width) in columns {
                for b0 in (0..rows).step_by(ROW_BLOCK) {
                    let n = ROW_BLOCK.min(rows - b0);
                    let mut v = vec![7.0f32; width * ROW_BLOCK];
                    decode_values::<AVX512>(plan, b0, n, col, width, &mut v);
                    for r in 0..n {
                        for j in 0..width {
                            assert_eq!(
                                v[r * width + j].to_bits(),
                                want[b0 + r][col + j].to_bits(),
                                "value row {} col {} (avx512 {AVX512})",
                                b0 + r,
                                col + j
                            );
                        }
                    }
                }
            }
        }
        let kv_dim = 67;
        let quant = oaken(kv_dim);
        // Every column offset residue mod 16, each with one column, a
        // width ending mid-chunk and the rest of the row.
        let columns: Vec<(usize, usize)> = (0..17)
            .flat_map(|col| [1, 21 - col % 16, kv_dim - col].map(|w| (col, w)))
            .collect();
        let reference = |kind: KvKind, rows: usize| {
            let params = quant.fused_read_params(0, kind).unwrap();
            let (_, encoded, _) = encode_rows(&quant, kind, rows, kv_dim, 9);
            let want: Vec<Vec<f32>> = encoded
                .iter()
                .map(|fv| {
                    let mut out = Vec::new();
                    oaken_core::kernel::decode_row_fused_into(fv, &params, &mut out);
                    out
                })
                .collect();
            (encoded, want, params)
        };

        let (encoded, want, params) = reference(KvKind::Key, 80);
        let mut plan = EncodedReadPlan::new(KvKind::Key);
        let (mut open, mut sealed) = (false, false);
        for (len, fv) in (1..).zip(&encoded) {
            plan.push_row(fv.row(), &params);
            let EncodedReadPlan::Keys(keys) = &plan else {
                unreachable!("a key stream's plan")
            };
            let open_masks = keys.group(len / KEY_GROUP).masks;
            open |= len % KEY_GROUP != 0 && open_masks.iter().any(|&m| m != 0);
            sealed |= len >= KEY_GROUP && !keys.group(0).values.is_empty();
            check_keys::<false>(keys, &want[..len], &columns);
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            if simd::available() {
                check_keys::<true>(keys, &want[..len], &columns);
            }
        }
        assert!(open && sealed, "open and sealed groups must carry outliers");

        let (encoded, want, params) = reference(KvKind::Value, ROW_BLOCK + 21);
        let mut plan = EncodedReadPlan::new(KvKind::Value);
        let (mut open, mut sealed) = (false, false);
        for (len, fv) in (1..).zip(&encoded) {
            plan.push_row(fv.row(), &params);
            let EncodedReadPlan::Values(values) = &plan else {
                unreachable!("a value stream's plan")
            };
            let edge = len / KEY_GROUP * KEY_GROUP;
            let marked = |row: ValueRow<'_>| row.masks.iter().any(|&m| m != 0);
            values.for_rows(edge..len, |row| open |= marked(row));
            values.for_rows(0..edge, |row| sealed |= marked(row));
            check_values::<false>(values, &want[..len], &columns);
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            if simd::available() {
                check_values::<true>(values, &want[..len], &columns);
            }
        }
        assert!(
            open && sealed,
            "open and sealed segments must carry outliers"
        );
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
