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
//!   the encoded rows in
//!   their [`EncodedStore`]s — one sweep decodes each row once and
//!   serves a whole tile of query tokens (a prefill chunk, or the decode
//!   steps of sequences that share prefix-trie blocks, whose shared rows
//!   it decodes once for all of them) and every query head of the group —
//!   so attention never needs a materialized f32 view of the cache. Its
//!   numeric contract is
//!   SQNR-bounded against the exact kernels (see `oaken_core::kernel`)
//!   and *width-invariant*: a query's output does not depend on which
//!   other queries, of its sequence or another, shared its sweep. Keys
//!   decode column by column, sixteen rows at a time; values row by row,
//!   sixteen columns at a time. A decode step feeds each decoded column or
//!   word straight into its arithmetic; a wider tile decodes a block of
//!   rows into scratch first. With the `simd` cargo feature the decodes run
//!   on a `std::arch` AVX-512 lane, bit-identically.

use oaken_core::kernel::{lane_code, EncodedStore, GroupCoeffs, KeyGroup, ValueRow, KEY_GROUP};
use oaken_core::KvKind;
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

/// What attention reads for one `(sequence, layer)`: its encoded tensors
/// under [`crate::KernelMode::Fused`] — the [`EncodedStore`] of each of
/// its K and V streams, decode coefficients, dense nibbles and outlier
/// values, keys column-major in 16-row groups and values row-major, with
/// no dequantized f32 image of the rows anywhere — else its dequantized
/// f32 views.
#[derive(Debug, Clone, Copy)]
pub enum KvRead<'a> {
    /// Encoded K and V tensors for [`attend_segments_fused_into`].
    Fused {
        /// Encoded keys.
        keys: &'a EncodedStore,
        /// Encoded values.
        values: &'a EncodedStore,
    },
    /// Row-major `[rows × kv_dim]` views for [`attend_kv_group_into`].
    Exact {
        /// Dequantized keys.
        keys: &'a [f32],
        /// Dequantized values.
        values: &'a [f32],
    },
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
    pub keys: &'a EncodedStore,
    /// The sequence's encoded values.
    pub values: &'a EncodedStore,
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
    keys: &EncodedStore,
    values: &EncodedStore,
    seq_len: usize,
    shape: &AttentionShape,
    kv_head: usize,
    out_g: &mut [f32],
    scratch: &mut AttentionScratch,
) {
    let run = Segment {
        queries: 1,
        keys,
        values,
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
/// segment's stores — the rows of the prefix-trie blocks their sequences
/// share; a lone segment passes 0.
///
/// Per [`QUERY_TILE`] queries the key stores are walked **once**: each
/// block of rows is decoded a single time (a multiply-add per dense code,
/// sixteen rows of a column at a time, outliers overwritten in place) and
/// reused by every query of the tile that sees it and every query head of
/// the range; softmax runs per (query, head); the value stores are swept
/// the same way (a table lookup per dense code). Rows below `shared` are
/// decoded from the tile's first segment for the queries of every
/// segment; each segment's rows from `shared` up from its own stores for
/// its own queries. The arithmetic behind both decodes is register-blocked
/// (`score_block`, `weigh_block`): the queries and query heads sharing a
/// KV head's tile keep their accumulators in registers side by side, so a
/// decoded key column or value row is loaded once for all of them and an
/// output is loaded and stored once per row block, not once per multiply.
/// Where they fit one register block — every decode step of a model with a
/// power-of-two head group of at most four — the decoded column or word
/// goes straight from its register into their chains, with no tile.
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
/// with each other or the shape, a segment's limits decrease, a store
/// holds fewer rows than its largest limit or than `shared`, or rows of
/// another width, `keys` is not a key store or `values` not a value
/// store, `shared` is not a multiple of [`KEY_GROUP`], or `kv_heads`
/// exceeds `num_kv_heads`.
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
        for (store, kind) in [(seg.keys, KvKind::Key), (seg.values, KvKind::Value)] {
            assert_eq!(
                store.kind(),
                kind,
                "{kind:?} rows are read from a {kind:?} store"
            );
            assert!(store.len() >= hi, "{kind:?} store shorter than seq_len");
            assert!(
                store.len() >= shared,
                "{kind:?} store shorter than the shared rows"
            );
            assert!(
                hi.max(shared) == 0 || store.dim() == shape.kv_dim(),
                "encoded {kind:?} row width mismatch"
            );
        }
    }
    if row_w == 0 {
        return;
    }
    for (t, out) in out.chunks_mut(QUERY_TILE * row_w).enumerate() {
        let tile = t * QUERY_TILE..t * QUERY_TILE + out.len() / row_w;
        let heads = kv_heads.clone();
        let sweep = Tile {
            qs,
            limits,
            segments,
            queries: tile,
            shared,
        };
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if simd::available() {
            // SAFETY: `available` verified the lane's CPU features.
            unsafe { simd::fused_sweep(sweep, shape, heads, scratch, out) };
            continue;
        }
        fused_sweep(sweep, shape, heads, scratch, out, Portable);
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
/// queries, inputs validated there): per walk of a store's rows — the
/// shared rows for every piece, then each piece's own — the key blocks are
/// decoded and scored, softmax runs per (query, head), and the same walks
/// decode the value blocks and weigh them. `lane` supplies the decodes;
/// every arithmetic loop is the same portable code on every lane, compiled
/// once per lane (the AVX-512 instance inlines into a `#[target_feature]`
/// caller and vectorizes at 512 bits).
#[inline(always)]
fn fused_sweep<L: Lane>(
    tile: Tile<'_, '_>,
    shape: &AttentionShape,
    heads: Range<usize>,
    scratch: &mut AttentionScratch,
    out: &mut [f32],
    lane: L,
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
    // The walks, each from one segment's stores: the shared rows for every
    // piece, from the first; then each piece's own rows, from its own.
    let walks = || {
        let shared = std::iter::once((pieces[0].seg, common.clone(), pieces));
        let own = pieces
            .iter()
            .map(|p| (p.seg, own(p), std::slice::from_ref(p)));
        shared.chain(own).filter(|(_, rows, _)| !rows.is_empty())
    };

    for (seg, rows, at) in walks() {
        sweep.score(lane, segments[seg].keys, rows, at, block, scores);
    }

    for (t, &limit) in limits.iter().enumerate() {
        let rows = &mut scores[t * nh * stride..(t + 1) * nh * stride];
        softmax_rows(rows, stride, window_start(shape, limit) - lo..limit - lo);
    }

    for (seg, rows, at) in walks() {
        sweep.weigh(lane, segments[seg].values, rows, at, block, scores, out);
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

    /// Member `m` of KV head `kh` among the queries from tile row `first`
    /// on: its query-head vector, and where its scores of rows `r0 ..` go.
    #[inline(always)]
    fn key_member(&self, first: usize, kh: usize, r0: usize, m: usize) -> (&'a [f32], usize) {
        let (hd, group) = (self.shape.head_dim, self.group);
        let (t, g) = div_rem(m, group);
        let (t, h) = (first + t, kh * group + g);
        let q_h = &self.qs[t][self.col * group + h * hd..][..hd];
        (q_h, (t * self.nh + h) * self.stride + (r0 - self.lo))
    }

    /// Decodes rows `rows` of `keys` block by block and scores them for
    /// the queries of `pieces` that see them. Where a KV head's members
    /// fill one register block (one, two or four), each key group's
    /// columns are decoded in turn and feed the members' chains straight
    /// from the register; more members share a decoded tile.
    #[inline(always)]
    fn score<L: Lane>(
        &self,
        lane: L,
        keys: &EncodedStore,
        rows: Range<usize>,
        pieces: &[Piece],
        block: &mut [f32],
        scores: &mut [f32],
    ) {
        let Self {
            group, col, width, ..
        } = *self;
        let hd = self.shape.head_dim;
        let inv_sqrt = 1.0 / (hd as f32).sqrt();
        for b0 in rows.clone().step_by(ROW_BLOCK) {
            let n = ROW_BLOCK.min(rows.end - b0);
            let seeing = self.seeing(pieces, b0, n);
            let members = seeing.len() * group;
            if matches!(members, 1 | 2 | 4) {
                for g in b0 / KEY_GROUP..(b0 + n).div_ceil(KEY_GROUP) {
                    let mut columns = KeyColumns::new(keys.group(g), col);
                    for kh in 0..width / hd {
                        member_blocks!(members, [4, 2, 1], |m, G| score_block::<G, KEY_GROUP>(
                            m,
                            #[inline(always)]
                            |m| self.key_member(seeing.start, kh, KEY_GROUP * g, m),
                            #[inline(always)]
                            |_| columns.next(lane),
                            inv_sqrt,
                            scores
                        ));
                    }
                }
            } else {
                decode_keys(lane, keys, b0, n, col, width, block);
                for (kh, kt) in block.chunks_exact(hd * ROW_BLOCK).enumerate() {
                    let kt = kt.as_chunks::<ROW_BLOCK>().0;
                    // Four members' 64 row lanes fill sixteen 512-bit
                    // registers.
                    member_blocks!(members, [4, 2, 1], |m, G| score_block::<G, ROW_BLOCK>(
                        m,
                        #[inline(always)]
                        |m| self.key_member(seeing.start, kh, b0, m),
                        #[inline(always)]
                        |j| kt[j],
                        inv_sqrt,
                        scores
                    ));
                }
            }
        }
    }

    /// Decodes rows `rows` of `values` block by block and adds each row's
    /// weighted value into the output of every query of `pieces` that
    /// sees it. A block one query sees — all its heads see the same rows —
    /// is decoded row by row, a word at a time, each word feeding every
    /// head's output chain of its columns straight from the register; a
    /// block several queries see, or whose heads' columns do not start on
    /// a word, is decoded into a tile first.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn weigh<L: Lane>(
        &self,
        lane: L,
        values: &EncodedStore,
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
            let seeing = self.seeing(pieces, b0, n);
            // The rows of the block query `t` sees: empty, inside the
            // block, for a query that sees none of them.
            let visible = |t: usize| {
                let from = window_start(shape, limits[t]).max(b0).min(b0 + n);
                from..limits[t].min(b0 + n).max(from)
            };
            // One query, one register block of its heads per KV head: they
            // see the same rows, so row by row each word is decoded once,
            // in order, and feeds every head's output chain of its columns
            // straight from the register.
            if seeing.len() == 1
                && matches!(group, 1 | 2 | 4 | 8)
                && (col.is_multiple_of(16) && hd.is_multiple_of(16))
            {
                let t = seeing.start;
                let sweep = RowSweep {
                    rows: visible(t),
                    col,
                    group,
                    heads: width / hd,
                    words: hd / 16,
                    p: &scores[t * nh * stride..][..nh * stride],
                    stride,
                    at: visible(t).start - lo,
                    out: out[t * nh * hd..][..nh * hd].as_chunks_mut::<16>().0,
                };
                lane.weigh_rows(values, sweep);
                continue;
            }
            decode_values(lane, values, b0, n, col, width, block);
            let members = seeing.len() * group;
            for kh in 0..width / hd {
                let member = |m: usize| {
                    let (t, g) = div_rem(m, group);
                    let (t, h) = (seeing.start + t, kh * group + g);
                    let p = &scores[(t * nh + h) * stride + (b0 - lo)..][..n];
                    let rows = visible(t);
                    (p, rows.start - b0..rows.end - b0, (t * nh + h) * hd)
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

/// `(m / d, m % d)`, without a divide where `d` is a power of two, as
/// query heads per KV head are in practice.
#[inline(always)]
fn div_rem(m: usize, d: usize) -> (usize, usize) {
    if d.is_power_of_two() {
        (m >> d.trailing_zeros(), m & (d - 1))
    } else {
        (m / d, m % d)
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

/// Scores of members `m0 .. m0 + G` of one KV head against `R` rows of
/// its keys, `key(j)` their column `j` (lane `r` one row): lane `r` of a
/// member's accumulator takes `Σ_j q[j] · key(j)[r]` in column order — the
/// serial per-(query, row) chain of the width-invariance contract, `R`
/// rows at a time — and each key column is taken once for all `G` chains.
/// `member` names a member's query-head vector and where its scores go.
#[inline(always)]
fn score_block<'a, const G: usize, const R: usize>(
    m0: usize,
    member: impl Fn(usize) -> (&'a [f32], usize),
    mut key: impl FnMut(usize) -> [f32; R],
    inv_sqrt: f32,
    scores: &mut [f32],
) {
    let mut who: [(&[f32], usize); G] = [(&[], 0); G];
    for (g, who) in who.iter_mut().enumerate() {
        *who = member(m0 + g);
    }
    let mut acc = [[0.0f32; R]; G];
    // Columns: a query-head vector's length.
    for j in 0..who[0].0.len() {
        let k_j = key(j);
        for (acc, (q_h, _)) in acc.iter_mut().zip(&who) {
            let qv = q_h[j];
            for (a, &kv) in acc.iter_mut().zip(&k_j) {
                *a += qv * kv;
            }
        }
    }
    for (acc, &(_, at)) in acc.iter().zip(&who) {
        for (s, a) in scores[at..at + R].iter_mut().zip(acc) {
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

/// One query's weighted sum over rows of a block that all its heads see:
/// the direct form of [`Sweep::weigh`], run by [`weigh_rows`].
struct RowSweep<'a> {
    rows: Range<usize>,
    /// The first column served, a multiple of 16.
    col: usize,
    /// Query heads per KV head, KV heads served, and words (sixteen
    /// columns) per head.
    group: usize,
    heads: usize,
    words: usize,
    /// The query's weights, one row per head `stride` apart; the first of
    /// `rows` at `at`.
    p: &'a [f32],
    stride: usize,
    at: usize,
    /// The query's output, sixteen columns a chunk, head by head.
    out: &'a mut [[f32; 16]],
}

/// Row by row, each word of `sweep`'s columns decoded once, in order, and
/// added into the output chain of every query head of its KV head: `o +=
/// p · v`, one multiply and one add, rows ascending, as the tile's
/// weighted sum does. Query heads per KV head is one register block
/// (one, two, four or eight).
#[inline(always)]
fn weigh_rows(lane: impl Lane, values: &EncodedStore, sweep: RowSweep<'_>) {
    let RowSweep {
        rows,
        col,
        group,
        heads,
        words,
        p,
        stride,
        mut at,
        out,
    } = sweep;
    member_blocks!(group, [8, 4, 2, 1], |_m, G| values.for_rows(
        rows.clone(),
        #[inline(always)]
        |row| {
            let mut row = RowWords::new(lane, &row, col);
            for kh in 0..heads {
                let (o, q) = (kh * G * words, kh * G * stride + at);
                for c in 0..words {
                    let v = row.next(lane);
                    for g in 0..G {
                        accumulate(&mut out[o + g * words + c], p[q + g * stride], &v);
                    }
                }
            }
            at += 1;
        }
    ));
}

/// What the sweep is generic over: the decodes, one implementation per
/// lane, each bit-identical to the portable one ([`Portable`]), and the
/// one loop a lane may run in a frame of its own.
trait Lane: Copy {
    /// One key-group column: lane `r` the middle decode
    /// ([`GroupCoeffs::middle`]) of row `r`'s code, lane `r` of `codes`, or
    /// where `mask` marks the row an outlier, the next value, taken off the
    /// front of `values`.
    fn key_column(
        self,
        coeffs: &GroupCoeffs,
        codes: u64,
        mask: u16,
        values: &mut &[f32],
    ) -> [f32; KEY_GROUP];

    /// Row `r`'s table ([`GroupCoeffs::table`]): entry `c` the middle
    /// decode of code `c`.
    fn value_table(self, coeffs: &GroupCoeffs, r: usize) -> [f32; 16];

    /// Sixteen columns of a value row: lane `k` the `table` entry of
    /// lane `k`'s code in `codes`, or where `mask` marks the column an outlier,
    /// the next value, taken off the front of `values`.
    fn value_word(self, table: &[f32; 16], codes: u64, mask: u16, values: &mut &[f32])
        -> [f32; 16];

    /// [`weigh_rows`] on this lane.
    fn weigh_rows(self, values: &EncodedStore, sweep: RowSweep<'_>);
}

/// The reference lane: plain Rust, on every target.
#[derive(Debug, Clone, Copy)]
struct Portable;

impl Lane for Portable {
    #[inline(always)]
    fn key_column(
        self,
        coeffs: &GroupCoeffs,
        codes: u64,
        mask: u16,
        values: &mut &[f32],
    ) -> [f32; 16] {
        patch(coeffs.middle(codes), mask, values)
    }

    #[inline(always)]
    fn value_table(self, coeffs: &GroupCoeffs, r: usize) -> [f32; 16] {
        coeffs.table(r)
    }

    #[inline(always)]
    fn value_word(
        self,
        table: &[f32; 16],
        codes: u64,
        mask: u16,
        values: &mut &[f32],
    ) -> [f32; 16] {
        let dense = std::array::from_fn(|k| table[lane_code(codes, k) as usize]);
        patch(dense, mask, values)
    }

    #[inline(always)]
    fn weigh_rows(self, values: &EncodedStore, sweep: RowSweep<'_>) {
        weigh_rows(self, values, sweep)
    }
}

/// `lanes` with the lanes `mask` marks replaced by the next values, taken
/// off the front of `values`.
#[inline(always)]
fn patch(mut lanes: [f32; 16], mask: u16, values: &mut &[f32]) -> [f32; 16] {
    let (mine, rest) = values.split_at(mask.count_ones() as usize);
    *values = rest;
    let mut left = mask;
    for &value in mine {
        lanes[left.trailing_zeros() as usize] = value;
        left &= left - 1;
    }
    lanes
}

/// One key group's columns from a given column on, decoded one at a time
/// in ascending order (each call takes the column's outliers off the
/// front of the group's values).
#[derive(Debug, Clone, Copy)]
struct KeyColumns<'a> {
    group: KeyGroup<'a>,
    col: usize,
}

impl<'a> KeyColumns<'a> {
    #[inline(always)]
    fn new(group: KeyGroup<'a>, col: usize) -> Self {
        let values = group.values_from(col);
        Self {
            group: KeyGroup { values, ..group },
            col,
        }
    }

    /// The next column's sixteen rows.
    #[inline(always)]
    fn next(&mut self, lane: impl Lane) -> [f32; KEY_GROUP] {
        let g = &mut self.group;
        let column = lane.key_column(
            g.coeffs,
            g.dense[self.col],
            g.masks[self.col],
            &mut g.values,
        );
        self.col += 1;
        column
    }
}

/// One value row's nibble words from column `col` (a multiple of 16) on,
/// with the row's table, decoded a word (sixteen columns) at a time in
/// ascending order (each call takes the word's outliers off the front of
/// the row's values).
#[derive(Debug, Clone)]
struct RowWords<'a> {
    table: [f32; 16],
    words: std::iter::Zip<std::slice::Iter<'a, u64>, std::slice::Iter<'a, u16>>,
    values: &'a [f32],
}

impl<'a> RowWords<'a> {
    #[inline(always)]
    fn new(lane: impl Lane, row: &ValueRow<'a>, col: usize) -> Self {
        let w = col / 16;
        let before: u32 = row.masks[..w].iter().map(|m| m.count_ones()).sum();
        Self {
            table: lane.value_table(row.coeffs, row.lane),
            words: row.dense[w..].iter().zip(&row.masks[w..]),
            values: &row.values[before as usize..],
        }
    }

    /// The next word's sixteen columns.
    #[inline(always)]
    fn next(&mut self, lane: impl Lane) -> [f32; 16] {
        let (&codes, &mask) = self.words.next().expect("a word per sixteen columns");
        lane.value_word(&self.table, codes, mask, &mut self.values)
    }
}

/// Hands `put` element `col + j` of `row` for every `j < width` outside
/// `done` (the columns a word decode already filled): the dense nibble's
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
        let code = lane_code(row.dense[e / 16], e % 16);
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
/// for every row of those groups the store holds; every other lane is
/// `+0.0`. An open group reads like a sealed one.
#[inline(always)]
fn decode_keys(
    lane: impl Lane,
    keys: &EncodedStore,
    b0: usize,
    n: usize,
    col: usize,
    width: usize,
    block: &mut [f32],
) {
    let groups = b0 / KEY_GROUP..(b0 + n).div_ceil(KEY_GROUP);
    let block = &mut block[..width * ROW_BLOCK];
    for (k, g) in groups.clone().enumerate() {
        let mut group = KeyColumns::new(keys.group(g), col);
        for lanes in block.chunks_exact_mut(ROW_BLOCK) {
            lanes[KEY_GROUP * k..][..KEY_GROUP].copy_from_slice(&group.next(lane));
        }
    }
    // A fixed count of whole groups per column, so each is one vector
    // store, not a call to `memset`.
    if groups.len() < ROW_BLOCK / KEY_GROUP {
        for lanes in block.as_chunks_mut::<ROW_BLOCK>().0 {
            for (k, lanes) in lanes.as_chunks_mut::<KEY_GROUP>().0.iter_mut().enumerate() {
                if k >= groups.len() {
                    *lanes = [0.0; KEY_GROUP];
                }
            }
        }
    }
}

/// Decodes columns `col .. col + width` of value rows `b0 .. b0 + n` into
/// the row-major value block (`block[r · width + j]`), bit-identical to
/// [`decode_row_fused_into`](oaken_core::kernel::decode_row_fused_into):
/// word by word where the columns start on a word, the rest element by
/// element.
#[inline(always)]
fn decode_values(
    lane: impl Lane,
    values: &EncodedStore,
    b0: usize,
    n: usize,
    col: usize,
    width: usize,
    block: &mut [f32],
) {
    let words = if col.is_multiple_of(16) {
        width / 16
    } else {
        0
    };
    let mut outs = block.chunks_exact_mut(width);
    values.for_rows(
        b0..b0 + n,
        #[inline(always)]
        |row| {
            let out = outs.next().expect("one block row per value row");
            if words > 0 {
                let mut decode = RowWords::new(lane, &row, col);
                for chunk in out.as_chunks_mut::<16>().0 {
                    *chunk = decode.next(lane);
                }
            }
            if 16 * words < width {
                decode_value_row(&row, col, width, &(0..16 * words), |j, v| out[j] = v);
            }
        },
    );
}

/// The AVX-512 decode lane, enabled by the `simd` cargo feature on x86-64
/// and selected at runtime. Sixteen elements at a time, unpacked from one
/// 64-bit word of nibbles: sixteen columns of a value row, decoded by a
/// single table permute over the row's 16-entry table — built once per
/// row from its coefficient lane by the same compare, blend, multiply and
/// add, on the code-index vector — or sixteen rows of one key-group
/// column, decoded by the rows' multiply-add lanes
/// ([`GroupCoeffs`](oaken_core::kernel::GroupCoeffs)). One masked
/// expand-load then drops the outlier values into their lanes —
/// bit-identical to the portable lane, so the lane changes speed and
/// nothing else.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd {
    use super::{
        AttentionScratch, AttentionShape, EncodedStore, GroupCoeffs, Lane, RowSweep, Tile,
    };
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

    /// [`super::fused_sweep`] on this lane, compiled with its features
    /// enabled.
    #[target_feature(enable = "avx512f,popcnt")]
    pub(super) fn fused_sweep(
        tile: Tile<'_, '_>,
        shape: &AttentionShape,
        heads: Range<usize>,
        scratch: &mut AttentionScratch,
        out: &mut [f32],
    ) {
        super::fused_sweep(tile, shape, heads, scratch, out, lane());
    }

    /// The lane's decodes as a [`Lane`]: closures, which inherit this
    /// function's features, so the generic sweep calls them safely and
    /// they inline into [`fused_sweep`]. Only code that may run the lane
    /// can call this.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    pub(super) fn lane() -> impl Lane {
        Closures::new(
            #[inline(always)]
            |coeffs, codes, mask, values| key_column(coeffs, codes, mask, values),
            #[inline(always)]
            |coeffs, r| value_table(coeffs, r),
            #[inline(always)]
            |table, codes, mask, values| value_word(table, codes, mask, values),
            #[inline(always)]
            |values, sweep| weigh_rows(values, sweep),
        )
    }

    /// [`super::weigh_rows`] on this lane, in a frame of its own: its
    /// loop keeps its cursors in registers (inlined into the sweep it took
    /// 1.6 ns more per row, 23.5 against 21.9, at 4 KV heads × 32).
    #[inline(never)]
    #[target_feature(enable = "avx512f,popcnt")]
    fn weigh_rows(values: &EncodedStore, sweep: RowSweep<'_>) {
        super::weigh_rows(lane(), values, sweep);
    }

    #[derive(Clone, Copy)]
    struct Closures<K, T, W, R> {
        key: K,
        table: T,
        word: W,
        rows: R,
    }

    impl<K, T, W, R> Closures<K, T, W, R>
    where
        K: Fn(&GroupCoeffs, u64, u16, &mut &[f32]) -> [f32; 16] + Copy,
        T: Fn(&GroupCoeffs, usize) -> [f32; 16] + Copy,
        W: Fn(&[f32; 16], u64, u16, &mut &[f32]) -> [f32; 16] + Copy,
        R: Fn(&EncodedStore, RowSweep<'_>) + Copy,
    {
        fn new(key: K, table: T, word: W, rows: R) -> Self {
            Self {
                key,
                table,
                word,
                rows,
            }
        }
    }

    impl<K, T, W, R> Lane for Closures<K, T, W, R>
    where
        K: Fn(&GroupCoeffs, u64, u16, &mut &[f32]) -> [f32; 16] + Copy,
        T: Fn(&GroupCoeffs, usize) -> [f32; 16] + Copy,
        W: Fn(&[f32; 16], u64, u16, &mut &[f32]) -> [f32; 16] + Copy,
        R: Fn(&EncodedStore, RowSweep<'_>) + Copy,
    {
        #[inline(always)]
        fn weigh_rows(self, values: &EncodedStore, sweep: RowSweep<'_>) {
            (self.rows)(values, sweep)
        }

        #[inline(always)]
        fn key_column(
            self,
            c: &GroupCoeffs,
            codes: u64,
            mask: u16,
            values: &mut &[f32],
        ) -> [f32; 16] {
            (self.key)(c, codes, mask, values)
        }

        #[inline(always)]
        fn value_table(self, coeffs: &GroupCoeffs, r: usize) -> [f32; 16] {
            (self.table)(coeffs, r)
        }

        #[inline(always)]
        fn value_word(
            self,
            t: &[f32; 16],
            codes: u64,
            mask: u16,
            values: &mut &[f32],
        ) -> [f32; 16] {
            (self.word)(t, codes, mask, values)
        }
    }

    /// Sixteen floats into a register.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load16(src: &[f32; 16]) -> __m512 {
        // SAFETY: `src` is sixteen floats.
        unsafe { _mm512_loadu_ps(src.as_ptr()) }
    }

    /// A register as sixteen floats.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn floats(v: __m512) -> [f32; 16] {
        let mut out = [0.0; 16];
        // SAFETY: `out` is sixteen floats.
        unsafe { _mm512_storeu_ps(out.as_mut_ptr(), v) };
        out
    }

    /// Lane `k`'s code of `word` ([`lane_code`](oaken_core::kernel::lane_code))
    /// in the low bits of lane `k`, higher codes above it: the word in every
    /// 64-bit lane puts its low half in the even 32-bit lanes and its high
    /// half in the odd ones, and lanes `2i` and `2i + 1` shift by `4i`. A
    /// permute reads only the low four bits.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn codes(word: u64) -> __m512i {
        let shifts = _mm512_set_epi32(28, 28, 24, 24, 20, 20, 16, 16, 12, 12, 8, 8, 4, 4, 0, 0);
        _mm512_srlv_epi32(_mm512_set1_epi64(word as i64), shifts)
    }

    /// Every code as an `f32`, entry `c` of the table being `c`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn code_values() -> __m512 {
        _mm512_setr_ps(
            0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
        )
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

    /// [`Lane::key_column`]: one unpack of the sixteen rows' codes, their
    /// middle decodes by the rows' coefficient lanes, one expand-load of
    /// the column's outliers.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    fn key_column(c: &GroupCoeffs, codes: u64, mask: u16, values: &mut &[f32]) -> [f32; 16] {
        let coeffs = [
            load16(&c.mid_step),
            load16(&c.c0),
            load16(&c.base_lo),
            load16(&c.base_hi),
        ];
        let code = _mm512_permutexvar_ps(self::codes(codes), code_values());
        floats(patch(middle(code, coeffs), mask, values))
    }

    /// [`Lane::value_table`]: the middle decode of the code-index vector
    /// through row `r`'s coefficients.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn value_table(c: &GroupCoeffs, r: usize) -> [f32; 16] {
        let lane = [
            _mm512_set1_ps(c.mid_step[r]),
            _mm512_set1_ps(c.c0[r]),
            _mm512_set1_ps(c.base_lo[r]),
            _mm512_set1_ps(c.base_hi[r]),
        ];
        floats(middle(code_values(), lane))
    }

    /// [`Lane::value_word`]: one table permute of the word's nibbles, one
    /// expand-load of its outliers.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    fn value_word(table: &[f32; 16], codes: u64, mask: u16, values: &mut &[f32]) -> [f32; 16] {
        let dense = _mm512_permutexvar_ps(self::codes(codes), load16(table));
        floats(patch(dense, mask, values))
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

    /// Quantizes `seq_len` rows of one kind: the store the fused kernel
    /// walks, the encoded rows behind it, and the exact dequantized view.
    fn encode_rows(
        q: &OakenQuantizer,
        kind: KvKind,
        seq_len: usize,
        kv_dim: usize,
        seed: u64,
    ) -> (EncodedStore, oaken_core::PackedRows, Vec<f32>) {
        let params = q.fused_read_params(0, kind).unwrap();
        let mut store = EncodedStore::new(kind, kv_dim, params);
        let mut rows = oaken_core::PackedRows::new(kv_dim);
        let mut view = Vec::new();
        for t in 0..seq_len {
            let x = kv_row(kv_dim, seed + t as u64 * 131);
            let fv = q.quantize_vector(&x, 0, kind).unwrap();
            view.extend_from_slice(&q.dequantize_vector(fv.row(0), 0, kind).unwrap());
            store.push_row(fv.row(0));
            rows.push(fv.row(0));
        }
        (store, rows, view)
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
        keys: &EncodedStore,
        values: &EncodedStore,
        seq_len: usize,
        s: &AttentionShape,
    ) -> Vec<f32> {
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

    /// The fused kernel's entry check: a segment's keys must be a key
    /// store, its values a value store, both of the shape's KV width.
    fn attend_mismatched(keys: (KvKind, usize), values: (KvKind, usize)) {
        let s = shape(4, 2, 16, None);
        let quant = oaken(s.kv_dim());
        let store = |(kind, width)| encode_rows(&quant, kind, 20, width, 7).0;
        let q = kv_row(s.q_dim(), 3);
        attend_one_fused(&q, &store(keys), &store(values), 20, &s);
    }

    #[test]
    #[should_panic(expected = "Key rows are read from a Key store")]
    fn a_value_store_read_as_keys_panics() {
        attend_mismatched((KvKind::Value, 32), (KvKind::Value, 32));
    }

    #[test]
    #[should_panic(expected = "Value rows are read from a Value store")]
    fn a_key_store_read_as_values_panics() {
        attend_mismatched((KvKind::Key, 32), (KvKind::Key, 32));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn a_store_of_another_width_panics() {
        attend_mismatched((KvKind::Key, 32), (KvKind::Value, 48));
    }

    /// Both block decodes — on every lane this build and CPU offer — must
    /// reproduce `decode_row_fused_into` element for element: key stores of
    /// every length 1–80 and value stores of every length 1–85 (partial
    /// groups, an open segment, a segment ending a row block), key blocks
    /// starting at every group edge, column offsets at every residue mod
    /// 16 and widths ending mid-chunk, at a width (67) that pads each value
    /// row's last nibble word.
    #[test]
    fn block_decodes_match_reference_decode_bitwise() {
        fn check_keys(
            lane: impl Lane,
            keys: &EncodedStore,
            want: &[Vec<f32>],
            columns: &[(usize, usize)],
        ) {
            let rows = want.len();
            for &(col, width) in columns {
                for b0 in (0..rows).step_by(KEY_GROUP) {
                    for n in [ROW_BLOCK.min(rows - b0), 1] {
                        let mut kt = vec![7.0f32; width * ROW_BLOCK];
                        decode_keys(lane, keys, b0, n, col, width, &mut kt);
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
                                    "key row {} col {} of {rows} rows",
                                    b0 + r,
                                    col + j
                                );
                            }
                        }
                    }
                }
            }
        }
        fn check_values(
            lane: impl Lane,
            values: &EncodedStore,
            want: &[Vec<f32>],
            columns: &[(usize, usize)],
        ) {
            let rows = want.len();
            for &(col, width) in columns {
                for b0 in (0..rows).step_by(ROW_BLOCK) {
                    let n = ROW_BLOCK.min(rows - b0);
                    let mut v = vec![7.0f32; width * ROW_BLOCK];
                    decode_values(lane, values, b0, n, col, width, &mut v);
                    for r in 0..n {
                        for j in 0..width {
                            assert_eq!(
                                v[r * width + j].to_bits(),
                                want[b0 + r][col + j].to_bits(),
                                "value row {} col {}",
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
        let mut keys = EncodedStore::new(KvKind::Key, kv_dim, params);
        let (mut open, mut sealed) = (false, false);
        for (len, fv) in (1..).zip(encoded.iter()) {
            keys.push_row(fv);
            let open_masks = keys.group(len / KEY_GROUP).masks;
            open |= len % KEY_GROUP != 0 && open_masks.iter().any(|&m| m != 0);
            sealed |= len >= KEY_GROUP && !keys.group(0).values.is_empty();
            check_keys(Portable, &keys, &want[..len], &columns);
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            if simd::available() {
                // SAFETY: `available` verified the lane's CPU features.
                check_keys(unsafe { simd::lane() }, &keys, &want[..len], &columns);
            }
        }
        assert!(open && sealed, "open and sealed groups must carry outliers");

        let (encoded, want, params) = reference(KvKind::Value, ROW_BLOCK + 21);
        let mut values = EncodedStore::new(KvKind::Value, kv_dim, params);
        let (mut open, mut sealed) = (false, false);
        for (len, fv) in (1..).zip(encoded.iter()) {
            values.push_row(fv);
            let edge = len / KEY_GROUP * KEY_GROUP;
            let marked = |row: ValueRow<'_>| row.masks.iter().any(|&m| m != 0);
            values.for_rows(edge..len, |row| open |= marked(row));
            values.for_rows(0..edge, |row| sealed |= marked(row));
            check_values(Portable, &values, &want[..len], &columns);
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            if simd::available() {
                // SAFETY: `available` verified the lane's CPU features.
                check_values(unsafe { simd::lane() }, &values, &want[..len], &columns);
            }
        }
        assert!(
            open && sealed,
            "open and sealed segments must carry outliers"
        );
    }

    /// A partial row block's key tile is `+0.0` in every lane past the
    /// store's groups, on every lane this build and CPU offer, however
    /// dirty the tile was: at the served widths (128 and 256 columns), for
    /// stores whose last block holds one to four groups, the last one open.
    #[test]
    fn partial_key_blocks_are_zero_past_the_plan() {
        fn check(lane: impl Lane, keys: &EncodedStore, width: usize) {
            let rows = keys.len();
            let b0 = rows / ROW_BLOCK * ROW_BLOCK;
            let filled = (rows - b0).next_multiple_of(KEY_GROUP);
            let mut kt = vec![f32::NAN; width * ROW_BLOCK];
            decode_keys(lane, keys, b0, rows - b0, 0, width, &mut kt);
            for (j, lanes) in kt.chunks(ROW_BLOCK).enumerate() {
                assert!(lanes[..rows - b0].iter().all(|v| !v.is_nan()));
                for (r, v) in lanes.iter().enumerate().skip(filled) {
                    assert_eq!(v.to_bits(), 0, "column {j}, lane {r} of {rows} rows");
                }
            }
        }
        for width in [128, 256] {
            let quant = oaken(width);
            for rows in [1, 20, 100, 115] {
                let (keys, _, _) = encode_rows(&quant, KvKind::Key, rows, width, 3);
                check(Portable, &keys, width);
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                if simd::available() {
                    // SAFETY: `available` verified the lane's CPU features.
                    check(unsafe { simd::lane() }, &keys, width);
                }
            }
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
