//! The end-to-end [`OakenQuantizer`]: thresholds + group-shift + fused
//! encoding behind one API, mirroring the hardware quantization engine's
//! dataflow (§5.2, Figure 9).
//!
//! Quantization path (per token vector, two passes over 16-element lanes,
//! then the encode):
//!
//! 1. **decomposer + min/max finders** — classify each element against
//!    the offline thresholds, apply the group shift, and fold per-lane
//!    group statistics (pass 1);
//! 2. **σ calculators** — one per group, from the lane-reduced statistics;
//! 3. **inlier/outlier quantizers** — 4-bit middle codes, 4+1-bit outlier
//!    codes (pass 2);
//! 4. **zero-remove shifter / concatenator** — fuse outlier magnitudes into
//!    the dense matrix and emit 8-bit COO entries.
//!
//! Neither pass branches on an element's value: every candidate is
//! computed and the element's group picks one by select, so the passes
//! run sixteen elements at a time (on the `simd` feature's AVX-512F lane,
//! one vector). They are bit-identical to the straight-line reference
//! ([`crate::groupshift::shift`] per element, then
//! [`UniformQuantizer::quantize`]); ARCHITECTURE.md's "The write path"
//! gives the argument, and `tests/quantize_oracle.rs` checks it.

use crate::config::{BitWidths, OakenConfig};
use crate::encoding::{capacity_bytes, EncodedRow, OutlierIter, PackedRows, ScaleSet, BLOCK_SIZE};
use crate::error::OakenError;
use crate::groups::GroupKind;
use crate::groupshift::{unshift_middle, unshift_sparse};
use crate::kernel::{EncodedStore, FusedReadParams};
use crate::lanes;
use crate::quant::UniformQuantizer;
use crate::thresholds::{KvKind, ModelThresholds, Thresholds};
use crate::traits::{KvQuantizer, KvRowStream, OnlineCost};

/// Elements per lane chunk: one 512-bit vector of `f32`.
const LANES: usize = 16;

/// Pass-1 tag bits of an element. `HIGH` and `OUTER` sit where a COO byte
/// keeps its sign and group bits ([`CooEntry::pack`]).
const HIGH: u8 = 1;
const OUTER: u8 = 2;
const INNER: u8 = 4;

/// Reusable scratch buffers for the allocation-free quantize path
/// ([`OakenScratch::quantize_into`]).
///
/// Holding one `OakenScratch` per encoder removes every per-token heap
/// allocation from the online quantizer — the property §5.2's hardware
/// engine gets for free from its fixed SRAM buffers, and the one the
/// serving simulation must replicate to keep long-sequence decode linear.
/// Buffers grow to the vector width on first use and are reused verbatim
/// afterwards.
#[derive(Debug, Clone, Default)]
pub struct OakenScratch {
    /// Pass 1's per-element shifted values, which pass 2 reads: signed
    /// for middle, magnitudes for inner and outer.
    vals: Vec<f32>,
    /// Pass 1's per-element group and side: [`HIGH`], [`OUTER`] and
    /// [`INNER`] bits; a middle element has neither group bit.
    tags: Vec<u8>,
}

impl OakenScratch {
    /// Creates an empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes the scratch holds.
    fn held_bytes(&self) -> usize {
        capacity_bytes(&self.vals) + capacity_bytes(&self.tags)
    }

    /// Quantizes `x` with `params`' thresholds and bit-widths and appends
    /// it to `out` in page form: the two passes write its packed nibbles,
    /// COO bytes and per-block counts where `out` keeps them, with no
    /// intermediate row. What a paged pool encodes each row with once,
    /// at full width, before every rank's streams adopt their channels,
    /// and what a row stream stores each row through.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `out.dim()` wide, or if `params`' bit-widths
    /// give a code wider than a nibble.
    pub fn quantize_into(&mut self, x: &[f32], params: &FusedReadParams, out: &mut PackedRows) {
        assert_eq!(x.len(), out.dim(), "row width mismatch");
        self.quantize(x, &params.thresholds, params.bits(), out)
            .expect("stored rows are quantized with valid bit-widths");
    }

    /// The two-pass quantization engine (§5.2 Figure 9), on the widest
    /// lane the CPU offers, appending the row to `out`.
    ///
    /// # Errors
    ///
    /// [`OakenError::UnsupportedBitWidth`] for bit-widths outside `1..=8`,
    /// and [`OakenError::CorruptEncoding`] when a code does not fit its
    /// nibble (a width above 4 bits); `out` then holds a row of
    /// unspecified contents.
    fn quantize(
        &mut self,
        x: &[f32],
        t: &Thresholds,
        bits: BitWidths,
        out: &mut PackedRows,
    ) -> Result<(), OakenError> {
        lanes::widest(
            #[inline(always)]
            || {
                let n = x.len();
                // Both passes overwrite every element, so a warm scratch
                // is neither cleared nor refilled.
                self.vals.resize(n, 0.0);
                self.tags.resize(n, 0);
                let s = classify_row(x, t, &mut self.vals, &mut self.tags);

                // σ calculators (Eq. 2).
                let codes = GroupCodes::new(
                    &UniformQuantizer::new(s.middle_min, s.middle_max, bits.middle)?,
                    &UniformQuantizer::new(0.0, s.inner_mag_max, bits.outlier_mag)?,
                    &UniformQuantizer::new(0.0, s.outer_mag_max, bits.outlier_mag)?,
                );
                let (vals, tags) = (&self.vals, &self.tags);
                let all = out.push_with(
                    s,
                    #[inline(always)]
                    |dense, sparse, counts| codes.encode_row(vals, tags, dense, sparse, counts),
                );
                if all > 0xF {
                    return Err(OakenError::CorruptEncoding {
                        detail: "dense code exceeds 4 bits".to_owned(),
                    });
                }
                Ok(())
            },
        )
    }
}

/// Oaken's online KV-cache quantizer, constructed from offline-profiled
/// thresholds.
///
/// # Example
///
/// ```
/// use oaken_core::{KvKind, OakenConfig, OakenQuantizer, OfflineProfiler};
///
/// let config = OakenConfig::default();
/// let mut profiler = OfflineProfiler::new(config.clone(), 1);
/// let sample: Vec<f32> = (0..512).map(|i| ((i % 61) as f32 - 30.0) / 5.0).collect();
/// profiler.observe(0, KvKind::Key, &sample);
/// profiler.observe(0, KvKind::Value, &sample);
/// let q = OakenQuantizer::new(config, profiler.finish());
///
/// let fused = q.quantize_vector(&sample, 0, KvKind::Key)?;
/// let restored = q.dequantize_vector(fused.row(0), 0, KvKind::Key)?;
/// let mse: f32 = sample.iter().zip(&restored)
///     .map(|(a, b)| (a - b) * (a - b)).sum::<f32>() / sample.len() as f32;
/// assert!(mse < 0.05);
/// # Ok::<(), oaken_core::OakenError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OakenQuantizer {
    config: OakenConfig,
    thresholds: ModelThresholds,
}

impl OakenQuantizer {
    /// Creates a quantizer from a configuration and profiled thresholds.
    pub fn new(config: OakenConfig, thresholds: ModelThresholds) -> Self {
        Self { config, thresholds }
    }

    /// The active configuration.
    pub fn config(&self) -> &OakenConfig {
        &self.config
    }

    /// The profiled thresholds.
    pub fn thresholds(&self) -> &ModelThresholds {
        &self.thresholds
    }

    /// The row-independent parameters of the quantized-domain read path
    /// for one `(layer, kind)` tensor: offline thresholds plus configured
    /// bit-widths (everything a [`crate::kernel::RowDecode`] needs besides
    /// the per-row scales).
    ///
    /// # Errors
    ///
    /// Returns [`OakenError::LayerOutOfRange`] for an unprofiled layer.
    pub fn fused_read_params(
        &self,
        layer: usize,
        kind: KvKind,
    ) -> Result<FusedReadParams, OakenError> {
        Ok(FusedReadParams {
            thresholds: *self.thresholds.get(layer, kind)?,
            middle_bits: self.config.bits.middle,
            outlier_bits: self.config.bits.outlier_mag,
        })
    }

    /// Quantizes one per-token KV vector into a one-row run in page form.
    ///
    /// Allocates its scratch and the run; hot paths (a pool's encoder, a
    /// row stream) hold an [`OakenScratch`] and use
    /// [`OakenScratch::quantize_into`].
    ///
    /// # Errors
    ///
    /// Returns [`OakenError::LayerOutOfRange`] for an unprofiled layer.
    pub fn quantize_vector(
        &self,
        x: &[f32],
        layer: usize,
        kind: KvKind,
    ) -> Result<PackedRows, OakenError> {
        let t = self.thresholds.get(layer, kind)?;
        let mut run = PackedRows::new(x.len());
        OakenScratch::new().quantize(x, t, self.config.bits, &mut run)?;
        Ok(run)
    }

    /// Dequantizes an encoded row back to f32.
    ///
    /// Convenience wrapper over
    /// [`OakenQuantizer::dequantize_vector_into`] allocating a fresh
    /// output vector.
    ///
    /// # Errors
    ///
    /// Returns [`OakenError::LayerOutOfRange`] for an unprofiled layer.
    pub fn dequantize_vector(
        &self,
        row: EncodedRow<'_>,
        layer: usize,
        kind: KvKind,
    ) -> Result<Vec<f32>, OakenError> {
        let mut out = Vec::with_capacity(row.dim());
        self.dequantize_vector_into(row, layer, kind, &mut out)?;
        Ok(out)
    }

    /// Dequantizes an encoded row, *appending* `row.dim()` values to `out`
    /// without any other allocation: the streaming engine's zero-insert is
    /// an in-order walk of the COO stream ([`EncodedRow::outliers`])
    /// interleaved with the dense nibble scan, not a scatter into a
    /// position map.
    ///
    /// # Errors
    ///
    /// Returns [`OakenError::LayerOutOfRange`] for an unprofiled layer.
    pub fn dequantize_vector_into(
        &self,
        row: EncodedRow<'_>,
        layer: usize,
        kind: KvKind,
        out: &mut Vec<f32>,
    ) -> Result<(), OakenError> {
        let params = self.fused_read_params(layer, kind)?;
        let code_at = |i| u32::from(row.dense_code(i));
        decode_row(
            &params,
            row.scales(),
            row.dim(),
            code_at,
            row.outliers(),
            out,
        )
    }
}

/// The streaming zero-insert dequantization walk of one row, from its
/// codes (`code_at`), its outliers, its scales and its tensor's read
/// parameters: scan elements in order, consuming the (sorted) outlier
/// stream whenever its head matches the current index. A row in page
/// form ([`OakenQuantizer::dequantize_vector_into`]) and a stored row
/// ([`EncodedStore::decode_into`]) both decode through it.
pub(crate) fn decode_row(
    params: &FusedReadParams,
    s: &ScaleSet,
    dim: usize,
    code_at: impl Fn(usize) -> u32,
    outliers: OutlierIter<'_>,
    out: &mut Vec<f32>,
) -> Result<(), OakenError> {
    let t = &params.thresholds;
    let q_mid = UniformQuantizer::new(s.middle_min, s.middle_max, params.middle_bits)?;
    let q_inner = UniformQuantizer::new(0.0, s.inner_mag_max, params.outlier_bits)?;
    let q_outer = UniformQuantizer::new(0.0, s.outer_mag_max, params.outlier_bits)?;
    let mut outliers = outliers.peekable();
    out.reserve(dim);
    for i in 0..dim {
        let code = code_at(i);
        let v = match outliers.peek() {
            Some(e) if e.index == i => {
                let e = *e;
                outliers.next();
                let q = match e.group {
                    GroupKind::Inner => &q_inner,
                    GroupKind::Outer => &q_outer,
                    GroupKind::Middle => unreachable!("COO never stores middle"),
                };
                unshift_sparse(e.group, e.high_side, q.dequantize(code), t)
            }
            _ => unshift_middle(q_mid.dequantize(code), t),
        };
        out.push(v);
    }
    Ok(())
}

/// Classifies and shifts one element exactly as
/// [`crate::groupshift::shift`] does, with no branch: each group's shifted
/// value and side are computed and the element's group picks one.
/// Returns the shifted value and the element's tag.
#[inline(always)]
fn classify_shift(x: f32, t: &Thresholds) -> (f32, u8) {
    let outer = (x < t.outer_lo) | (x > t.outer_hi);
    let inner = !outer & (t.inner_lo <= x) & (x <= t.inner_hi);
    let (outer_high, middle_high) = (x > t.outer_hi, x > t.inner_hi);
    let outer_mag = if outer_high {
        x - t.outer_hi
    } else {
        t.outer_lo - x
    };
    let middle = x - if middle_high { t.inner_hi } else { t.inner_lo };
    let (shifted, high) = if outer {
        (outer_mag, outer_high)
    } else if inner {
        (x.abs(), x >= 0.0)
    } else {
        (middle, middle_high)
    };
    let group = if outer {
        OUTER
    } else if inner {
        INNER
    } else {
        0
    };
    (shifted, group | u8::from(high))
}

/// Pass 1's per-lane group statistics: lane `l` folds elements `l`,
/// `l + 16`, `l + 32`, … of the row.
///
/// Every fold is a compare and a select, exact whatever the order: a
/// middle shifted value is never ±0 (`x ≠ T` implies `x − T ≠ 0`), inner
/// and outer magnitudes are `≥ +0`, and a NaN element (classified middle)
/// fails both compares, so it is skipped as `f32::min` / `f32::max` skip
/// it. The lanes therefore reduce to the straight-line fold's values.
struct LaneStats {
    middle_min: [f32; LANES],
    middle_max: [f32; LANES],
    inner_max: [f32; LANES],
    outer_max: [f32; LANES],
    middles: [u32; LANES],
}

impl LaneStats {
    fn new() -> Self {
        Self {
            middle_min: [f32::INFINITY; LANES],
            middle_max: [f32::NEG_INFINITY; LANES],
            inner_max: [0.0; LANES],
            outer_max: [0.0; LANES],
            middles: [0; LANES],
        }
    }

    /// Folds one element, of value `s` and tag `tag`, into lane `l`.
    #[inline(always)]
    fn observe(&mut self, l: usize, s: f32, tag: u8) {
        let middle = tag & (OUTER | INNER) == 0;
        let low = if middle { s } else { f32::INFINITY };
        let high = if middle { s } else { f32::NEG_INFINITY };
        let inner = if tag & INNER != 0 { s } else { 0.0 };
        let outer = if tag & OUTER != 0 { s } else { 0.0 };
        self.middle_min[l] = min(self.middle_min[l], low);
        self.middle_max[l] = max(self.middle_max[l], high);
        self.inner_max[l] = max(self.inner_max[l], inner);
        self.outer_max[l] = max(self.outer_max[l], outer);
        self.middles[l] += u32::from(middle);
    }

    /// Reduces the lanes to the row's scales; an empty middle group gets
    /// the degenerate range `[0, 0]`.
    #[inline(always)]
    fn reduce(&self) -> ScaleSet {
        let fold = |lanes: &[f32; LANES], pick: fn(f32, f32) -> f32| {
            lanes[1..].iter().fold(lanes[0], |acc, &v| pick(acc, v))
        };
        let (middle_min, middle_max) = if self.middles.iter().any(|&n| n > 0) {
            (fold(&self.middle_min, min), fold(&self.middle_max, max))
        } else {
            (0.0, 0.0)
        };
        ScaleSet {
            middle_min,
            middle_max,
            inner_mag_max: fold(&self.inner_max, max),
            outer_mag_max: fold(&self.outer_max, max),
        }
    }
}

/// `b` if it is below `a`, else `a`: a NaN `b` leaves `a`.
#[inline(always)]
fn min(a: f32, b: f32) -> f32 {
    if b < a {
        b
    } else {
        a
    }
}

/// `b` if it is above `a`, else `a`: a NaN `b` leaves `a`.
#[inline(always)]
fn max(a: f32, b: f32) -> f32 {
    if b > a {
        b
    } else {
        a
    }
}

/// Pass 1 over a whole row: writes every element's shifted value and tag,
/// and returns the row's scales.
#[inline(always)]
fn classify_row(x: &[f32], t: &Thresholds, vals: &mut [f32], tags: &mut [u8]) -> ScaleSet {
    let mut stats = LaneStats::new();
    let (x_chunks, x_tail) = x.as_chunks::<LANES>();
    let (val_chunks, val_tail) = vals.as_chunks_mut::<LANES>();
    let (tag_chunks, tag_tail) = tags.as_chunks_mut::<LANES>();
    for ((xs, vs), ts) in x_chunks.iter().zip(val_chunks).zip(tag_chunks) {
        for l in 0..LANES {
            let (s, tag) = classify_shift(xs[l], t);
            (vs[l], ts[l]) = (s, tag);
            stats.observe(l, s, tag);
        }
    }
    for (l, ((&x, v), tg)) in x_tail.iter().zip(val_tail).zip(tag_tail).enumerate() {
        let (s, tag) = classify_shift(x, t);
        (*v, *tg) = (s, tag);
        stats.observe(l, s, tag);
    }
    stats.reduce()
}

/// Pass 2's per-group quantizers (Eq. 2–3), as the values an element's
/// group selects: the middle group's `min`, each group's σ, and the
/// largest codes as `f32`. The sparse groups' `min` is 0.
struct GroupCodes {
    middle_min: f32,
    middle_sigma: f32,
    inner_sigma: f32,
    outer_sigma: f32,
    middle_top: f32,
    outlier_top: f32,
}

impl GroupCodes {
    /// Splits the three groups' quantizers into the values pass 2 selects.
    #[inline(always)]
    fn new(middle: &UniformQuantizer, inner: &UniformQuantizer, outer: &UniformQuantizer) -> Self {
        debug_assert_eq!((inner.min(), outer.min()), (0.0, 0.0));
        debug_assert_eq!(inner.max_code(), outer.max_code());
        Self {
            middle_min: middle.min(),
            middle_sigma: middle.sigma(),
            inner_sigma: inner.sigma(),
            outer_sigma: outer.sigma(),
            middle_top: middle.max_code() as f32,
            outlier_top: outer.max_code() as f32,
        }
    }

    /// [`UniformQuantizer::quantize`] of `s` with its group's quantizer,
    /// picked by select. Clamping before rounding gives the same code as
    /// rounding first: `max` sends NaN (and a degenerate σ's `±0`) to 0.
    /// On `[0, max_code]`, adding 2²³ rounds `v` to the nearest integer,
    /// ties to even, and leaves that integer in the low mantissa bits;
    /// `v − nearest` is exact, so a tie rounded down is exactly
    /// `v − nearest = ½`, and bumping it gives `f32::round`'s half away
    /// from zero — with no call to libm's `roundf` and no saturating
    /// float-to-int cast, neither of which runs in lanes.
    #[inline(always)]
    fn code(&self, s: f32, tag: u8) -> u8 {
        let (outer, inner) = (tag & OUTER != 0, tag & INNER != 0);
        let lo = if outer | inner { 0.0 } else { self.middle_min };
        let sigma = if outer {
            self.outer_sigma
        } else if inner {
            self.inner_sigma
        } else {
            self.middle_sigma
        };
        let top = if outer | inner {
            self.outlier_top
        } else {
            self.middle_top
        };
        let v = min(max(0.0, (s - lo) * sigma), top);
        const TWO_23: f32 = 8_388_608.0;
        let biased = v + TWO_23;
        let nearest = biased - TWO_23;
        let tie_down = v - nearest == 0.5;
        (biased.to_bits() - TWO_23.to_bits() + u32::from(tie_down)) as u8
    }

    /// Pass 2 over a whole row: packs every element's code into `dense`
    /// (element `i` in nibble `i`), and pushes its outliers' COO bytes in
    /// index order onto `sparse`, counted per 64-element block in
    /// `counts` — found per chunk from a mask of the tags. Returns the OR
    /// of every code, which fits a nibble iff every code does.
    #[inline(always)]
    fn encode_row(
        &self,
        vals: &[f32],
        tags: &[u8],
        dense: &mut [u8],
        sparse: &mut Vec<u8>,
        counts: &mut [u8],
    ) -> u8 {
        let (val_chunks, val_tail) = vals.as_chunks::<LANES>();
        let (tag_chunks, tag_tail) = tags.as_chunks::<LANES>();
        let (byte_chunks, _) = dense.as_chunks_mut::<{ LANES / 2 }>();
        let mut all = 0;
        for (k, ((vs, ts), bytes)) in val_chunks
            .iter()
            .zip(tag_chunks)
            .zip(byte_chunks)
            .enumerate()
        {
            let mut cs = [0; LANES];
            for l in 0..LANES {
                cs[l] = self.code(vs[l], ts[l]);
            }
            all |= pack_codes(&cs, bytes);
            push_outliers(k * LANES, ts, sparse, counts);
        }
        let base = val_chunks.len() * LANES;
        let mut cs = [0; LANES];
        for ((c, &v), &tag) in cs.iter_mut().zip(val_tail).zip(tag_tail) {
            *c = self.code(v, tag);
        }
        all |= pack_codes(&cs, &mut dense[base / 2..]);
        push_outliers(base, tag_tail, sparse, counts);
        all
    }
}

/// Packs codes in pairs into `bytes` (code `2i` in the low nibble of byte
/// `i`), as many as `bytes` holds, and returns the OR of the codes.
#[inline(always)]
fn pack_codes(cs: &[u8; LANES], bytes: &mut [u8]) -> u8 {
    for (i, b) in bytes.iter_mut().enumerate() {
        *b = cs[2 * i] | cs[2 * i + 1] << 4;
    }
    cs.iter().fold(0, |all, &c| all | c)
}

/// Pushes the COO bytes of a chunk of at most 16 tags starting at
/// element `base` (a multiple of 16, so inside one 64-element block) in
/// index order, and counts them to their block. A tag's side and group
/// bits are the byte's.
#[inline(always)]
fn push_outliers(base: usize, tags: &[u8], sparse: &mut Vec<u8>, counts: &mut [u8]) {
    let mut mask = tags.iter().enumerate().fold(0u32, |m, (l, &tag)| {
        m | u32::from(tag & (OUTER | INNER) != 0) << l
    });
    if mask == 0 {
        return;
    }
    counts[base / BLOCK_SIZE] += mask.count_ones() as u8;
    while mask != 0 {
        let l = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        let offset = ((base + l) % BLOCK_SIZE) as u8;
        sparse.push(offset << 2 | (tags[l] & (OUTER | HIGH)));
    }
}

/// Incremental append-only stream for Oaken: rows are independent (all
/// statistics are per-vector, thresholds are offline), so every append is
/// O(d) with no warm-up and the stream is bit-exact with the batch path by
/// construction. The stream keeps each row once, in the [`EncodedStore`]
/// the fused kernel reads: its dense nibbles and decode coefficients, and
/// its scales, COO bytes and per-block counts — what the segment's words
/// cannot rebuild — in the `SparseLog` of the 16-row
/// [`StoreSegment`](crate::StoreSegment) holding it. Sealed segments are
/// shared by reference with whatever else holds the same rows.
#[derive(Debug)]
pub struct OakenRowStream {
    scratch: OakenScratch,
    /// The row being stored, in page form.
    staged: PackedRows,
    /// The rows, read with the tensor's thresholds and bit-widths fetched
    /// once when the stream opens; `None` for an unprofiled layer, which
    /// fails on the first row.
    store: Option<EncodedStore>,
}

impl OakenRowStream {
    /// Quantizes one row against the stream's thresholds into the staged
    /// page-form row and stores it. An unprofiled layer is a caller bug
    /// on the streaming path, as on the trait-level batch path.
    fn push_quantized(&mut self, row: &[f32]) {
        let store =
            (self.store.as_mut()).expect("layer must be profiled before streaming quantization");
        self.staged.clear();
        (self.scratch).quantize_into(row, store.params(), &mut self.staged);
        store.push_row(self.staged.row(0));
    }
}

impl KvRowStream for OakenRowStream {
    fn append_row(&mut self, row: &[f32], view: &mut Vec<f32>) {
        self.push_quantized(row);
        let store = self.store.as_ref().expect("just appended");
        store.decode_into(store.len() - 1..store.len(), view);
    }

    fn held_bytes(&self) -> usize {
        self.store.as_ref().map_or(0, EncodedStore::held_bytes)
            + self.scratch.held_bytes()
            + self.staged.held_bytes()
    }

    fn reset(&mut self) {
        // All Oaken state beyond the appended rows (thresholds, config) is
        // offline-calibrated and shared, so a reset stream is bit-exact
        // with a freshly opened one. The open segment's buffers are
        // deliberately kept warm for the next sequence; the sealed ones
        // are let go.
        if let Some(store) = &mut self.store {
            store.clear();
        }
    }

    /// The stream's one store; `None` only for an unprofiled layer, whose
    /// rows cannot be encoded (its first append panics).
    fn encoded_rows(&self) -> Option<&EncodedStore> {
        self.store.as_ref()
    }

    fn encoded_rows_mut(&mut self) -> Option<&mut EncodedStore> {
        self.store.as_mut()
    }

    fn append_row_encoded(&mut self, row: &[f32]) -> bool {
        // Same quantization as `append_row`, minus the dequantize-into-view
        // step: the stored row *is* the cache contents, and the fused
        // attention kernels read it in place.
        self.push_quantized(row);
        true
    }
}

impl KvQuantizer for OakenQuantizer {
    fn name(&self) -> &'static str {
        "oaken"
    }

    fn roundtrip_matrix(
        &self,
        data: &[f32],
        rows: usize,
        d: usize,
        layer: usize,
        kind: KvKind,
    ) -> Vec<f32> {
        assert_eq!(data.len(), rows * d, "matrix data/shape mismatch");
        let mut out = Vec::with_capacity(data.len());
        for r in 0..rows {
            let row = &data[r * d..(r + 1) * d];
            // An unprofiled layer is a caller bug for the trait-level API;
            // surface it loudly rather than silently passing data through.
            let run = self
                .quantize_vector(row, layer, kind)
                .expect("layer must be profiled before quantization");
            self.dequantize_vector_into(run.row(0), layer, kind, &mut out)
                .expect("an encoded row decodes with the same thresholds");
        }
        out
    }

    fn effective_bits(&self, _rows: usize, d: usize) -> f64 {
        self.config.predicted_effective_bits(d)
    }

    fn online_cost(&self) -> OnlineCost {
        OnlineCost {
            // Classify (2 compares) + shift (1 sub) + scale (1 mul) +
            // round/clamp (1) per element; min/max folds amortized in.
            quant_flops_per_elem: 5.0,
            // Dequantize: 1 mul + 1 add + unshift add.
            dequant_flops_per_elem: 3.0,
            sort_nlogn: false,
            channel_reorder: false,
            // Executed on Oaken's dedicated engines this is 1.0; the GPU
            // implementation of §6.2 sees warp divergence from the
            // three-way group split, which `oaken-accel` models separately.
            gpu_divergence_penalty: 4.0,
        }
    }

    fn row_stream(&self, d: usize, layer: usize, kind: KvKind) -> Option<Box<dyn KvRowStream>> {
        let params = self.fused_read_params(layer, kind).ok();
        Some(Box::new(OakenRowStream {
            scratch: OakenScratch::new(),
            staged: PackedRows::new(d),
            store: params.map(|params| EncodedStore::new(kind, d, params)),
        }))
    }

    /// Every per-row decision (group classification, shift, scale) is made
    /// against the *offline*-profiled thresholds, so a row's encoding is a
    /// pure function of the row — the property that makes Oaken's pages
    /// prefix-shareable.
    fn prefix_deterministic(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GroupRatios;
    use crate::kernel::KEY_GROUP;
    use crate::profiler::OfflineProfiler;
    use std::sync::Arc;

    fn test_vector(n: usize, seed: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let u = ((i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(seed)
                    >> 33) as f32
                    / (1u64 << 31) as f32;
                let base = (u - 0.5) * 4.0;
                match i % 53 {
                    0 => base * 10.0, // outer outliers
                    1 => base * 0.01, // inner outliers
                    _ => base,
                }
            })
            .collect()
    }

    fn quantizer() -> OakenQuantizer {
        let config = OakenConfig::default();
        let mut p = OfflineProfiler::new(config.clone(), 2);
        for s in 0..32 {
            for layer in 0..2 {
                for kind in KvKind::ALL {
                    p.observe(layer, kind, &test_vector(1024, s * 7 + layer as u64));
                }
            }
        }
        OakenQuantizer::new(config, p.try_finish().unwrap())
    }

    #[test]
    fn roundtrip_error_is_small() {
        let q = quantizer();
        let x = test_vector(1024, 12345);
        let fv = q.quantize_vector(&x, 0, KvKind::Key).unwrap();
        let back = q.dequantize_vector(fv.row(0), 0, KvKind::Key).unwrap();
        assert_eq!(back.len(), x.len());
        let rng = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let mse: f32 = x
            .iter()
            .zip(&back)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            / x.len() as f32;
        let rel = mse.sqrt() / rng;
        assert!(rel < 0.02, "relative RMS error too large: {rel}");
    }

    #[test]
    fn outliers_survive_quantization() {
        // The whole point of the hybrid scheme: a huge outlier must come
        // back with small *relative* error instead of being clipped.
        let q = quantizer();
        let mut x = test_vector(512, 99);
        x[7] = 40.0;
        x[100] = -35.0;
        let fv = q.quantize_vector(&x, 0, KvKind::Key).unwrap();
        let back = q.dequantize_vector(fv.row(0), 0, KvKind::Key).unwrap();
        assert!((back[7] - 40.0).abs() / 40.0 < 0.05, "got {}", back[7]);
        assert!((back[100] + 35.0).abs() / 35.0 < 0.05, "got {}", back[100]);
    }

    #[test]
    fn near_zero_values_do_not_vanish() {
        let q = quantizer();
        let mut x = test_vector(512, 5);
        x[3] = 0.004;
        x[9] = -0.003;
        let fv = q.quantize_vector(&x, 0, KvKind::Value).unwrap();
        let back = q.dequantize_vector(fv.row(0), 0, KvKind::Value).unwrap();
        // Inner-group isolation keeps the sign and order of magnitude.
        assert!(back[3] >= 0.0);
        assert!(back[9] <= 0.0);
        assert!(back[3].abs() < 0.05);
    }

    #[test]
    fn observed_effective_bits_near_predicted() {
        let q = quantizer();
        let rows = 16;
        let d = 1024;
        let payload: usize = (0..rows)
            .map(|r| {
                let x = test_vector(d, r as u64);
                q.quantize_vector(&x, 0, KvKind::Key)
                    .unwrap()
                    .payload_bytes()
            })
            .sum();
        let predicted = q.effective_bits(rows, d);
        let observed = payload as f64 * 8.0 / (rows * d) as f64;
        assert!(
            (observed - predicted).abs() < 0.5,
            "predicted {predicted}, observed {observed}"
        );
        assert!(16.0 / observed > 3.0);
    }

    #[test]
    fn trait_roundtrip_matches_vector_path() {
        let q = quantizer();
        let d = 256;
        let x = test_vector(d, 3);
        let via_trait = q.roundtrip_matrix(&x, 1, d, 0, KvKind::Key);
        let fv = q.quantize_vector(&x, 0, KvKind::Key).unwrap();
        let via_vec = q.dequantize_vector(fv.row(0), 0, KvKind::Key).unwrap();
        assert_eq!(via_trait, via_vec);
    }

    #[test]
    fn layer_out_of_range_is_error() {
        let q = quantizer();
        assert!(matches!(
            q.quantize_vector(&[1.0, 2.0], 9, KvKind::Key),
            Err(OakenError::LayerOutOfRange { .. })
        ));
    }

    #[test]
    fn higher_outlier_ratio_lowers_error_but_raises_bits() {
        let mk = |outer: f64, inner: f64| {
            let ratios = GroupRatios::new(outer, 1.0 - outer - inner, inner).unwrap();
            let config = OakenConfig {
                ratios,
                ..OakenConfig::default()
            };
            let mut p = OfflineProfiler::new(config.clone(), 1);
            for s in 0..16 {
                p.observe(0, KvKind::Key, &test_vector(2048, s));
                p.observe(0, KvKind::Value, &test_vector(2048, s));
            }
            OakenQuantizer::new(config, p.try_finish().unwrap())
        };
        let small = mk(0.01, 0.01);
        let large = mk(0.10, 0.10);
        let x = test_vector(2048, 777);
        let err = |q: &OakenQuantizer| {
            let fv = q.quantize_vector(&x, 0, KvKind::Key).unwrap();
            let back = q.dequantize_vector(fv.row(0), 0, KvKind::Key).unwrap();
            x.iter()
                .zip(&back)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
        };
        assert!(
            err(&large) <= err(&small) * 1.5,
            "more outliers should not hurt much"
        );
        assert!(large.effective_bits(1, 2048) > small.effective_bits(1, 2048));
    }

    #[test]
    fn scratch_paths_bit_exact_with_allocating_paths() {
        let q = quantizer();
        let mut scratch = OakenScratch::new();
        let mut out = Vec::new();
        for seed in 0..8 {
            let x = test_vector(512, seed * 31 + 1);
            for kind in KvKind::ALL {
                let fv_alloc = q.quantize_vector(&x, 1, kind).unwrap();
                let mut fv_scratch = PackedRows::new(x.len());
                let params = q.fused_read_params(1, kind).unwrap();
                scratch.quantize_into(&x, &params, &mut fv_scratch);
                assert_eq!(fv_alloc, fv_scratch);

                let back_alloc = q.dequantize_vector(fv_alloc.row(0), 1, kind).unwrap();
                out.clear();
                q.dequantize_vector_into(fv_scratch.row(0), 1, kind, &mut out)
                    .unwrap();
                assert_eq!(
                    back_alloc.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn channel_slices_dequantize_bit_exact() {
        // Tensor-parallel ranks store channel slices of a row's encoding;
        // decoding a shard must reproduce the corresponding channels of the
        // full decode bit-for-bit (scales are whole-row, reconstruction is
        // per-element). Ranges deliberately cross the 64-element block
        // boundaries unaligned, as head slices do.
        let q = quantizer();
        for seed in 0..8 {
            let x = test_vector(512, seed * 17 + 3);
            for kind in KvKind::ALL {
                let fv = q.quantize_vector(&x, 0, kind).unwrap();
                let full = q.dequantize_vector(fv.row(0), 0, kind).unwrap();
                for range in [0..96, 96..224, 224..512, 40..41, 0..512] {
                    let mut s = PackedRows::new(range.len());
                    s.push_channels(fv.row(0), range.clone());
                    assert_eq!(s.row(0).scales(), fv.row(0).scales());
                    let got = q.dequantize_vector(s.row(0), 0, kind).unwrap();
                    for (j, (a, b)) in got.iter().zip(&full[range.clone()]).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "channel {j} of slice {range:?} diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn row_stream_matches_batch_roundtrip() {
        let q = quantizer();
        let d = 256;
        let rows = 24;
        let data: Vec<f32> = (0..rows)
            .flat_map(|r| test_vector(d, r as u64 + 5))
            .collect();
        let mut stream = q.row_stream(d, 0, KvKind::Key).expect("oaken streams");
        let mut view = Vec::new();
        for r in 0..rows {
            stream.append_row(&data[r * d..(r + 1) * d], &mut view);
            assert_eq!(stream.encoded_rows().unwrap().len(), r + 1);
            let batch = q.roundtrip_matrix(&data[..(r + 1) * d], r + 1, d, 0, KvKind::Key);
            assert_eq!(
                batch.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                view.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "divergence after {} rows",
                r + 1
            );
        }
        assert!(stream.payload_bytes().unwrap() > 0);
    }

    /// Bit patterns of `x`.
    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// `rows` packed into one run.
    fn packed<'a>(dim: usize, rows: impl IntoIterator<Item = &'a PackedRows>) -> PackedRows {
        let mut run = PackedRows::new(dim);
        rows.into_iter().for_each(|fv| run.push(fv.row(0)));
        run
    }

    /// The store of an Oaken stream, to write.
    fn store(s: &mut dyn KvRowStream) -> &mut EncodedStore {
        s.encoded_rows_mut().expect("oaken stores encoded rows")
    }

    /// Everything a stream `s` of `rows` holds, exported at once.
    fn export(s: &dyn KvRowStream, dim: usize) -> PackedRows {
        let mut run = PackedRows::new(dim);
        let stored = s.encoded_rows().expect("oaken stores encoded rows");
        stored.export(0..stored.len(), &mut run);
        run
    }

    /// The store must be a function of its rows alone however they arrive
    /// — appended, adopted in 16-row page-form runs, reset and re-adopted,
    /// taken as another stream's sealed segments by reference for the
    /// first 32 rows and appended after them (a prefix adoption), or
    /// sliced to a rank's channels — as swap, resume, prefix adoption,
    /// import and rank splits rely on: exported, it is
    /// the quantizer's rows packed, it equals the appended store, and
    /// it decodes to the bits the quantizer's own decoder gives each row,
    /// and each row's `(dense, sparse)` charge is the quantizer's row's,
    /// summing to the stream's payload. Widths 33 and 97 end mid-byte and
    /// mid-COO-block, and 40 rows leave an open key group with outliers
    /// queued in it. A sliced stream decodes to the same channels of the
    /// full rows' decode.
    #[test]
    fn stores_round_trip_however_their_rows_arrive() {
        let q = quantizer();
        let n = 40;
        for d in [1, 33, 97, 128] {
            for kind in KvKind::ALL {
                let stream = |w: usize| q.row_stream(w, 0, kind).expect("oaken streams");
                let fvs: Vec<PackedRows> = (0..n)
                    .map(|r| q.quantize_vector(&test_vector(d, r + 11), 0, kind).unwrap())
                    .collect();
                let want = packed(d, &fvs);
                let decoded = |fvs: &[PackedRows]| -> Vec<u32> {
                    let rows = fvs
                        .iter()
                        .map(|fv| q.dequantize_vector(fv.row(0), 0, kind).unwrap());
                    bits(&rows.flatten().collect::<Vec<_>>())
                };
                let mut appended = stream(d);
                for r in 0..n {
                    assert!(appended.append_row_encoded(&test_vector(d, r + 11)));
                }
                let mut adopted = stream(d);
                for block in fvs.chunks(16) {
                    store(&mut *adopted).push_rows(&packed(d, block));
                }
                let mut rebuilt = stream(d);
                store(&mut *rebuilt).push_rows(&packed(d, &fvs[..23]));
                rebuilt.reset();
                store(&mut *rebuilt).push_rows(&export(&*appended, d));
                let sealed = appended.encoded_rows().unwrap().segments();
                assert_eq!(sealed.len(), n as usize / KEY_GROUP);
                let mut shared = stream(d);
                store(&mut *shared).share_segments(0, sealed);
                for r in (KEY_GROUP * sealed.len()) as u64..n {
                    assert!(shared.append_row_encoded(&test_vector(d, r + 11)));
                }
                let held = shared.encoded_rows().unwrap().segments();
                assert!(held.iter().zip(sealed).all(|(a, b)| Arc::ptr_eq(a, b)));
                // Sealed segments swapped for equal shared ones.
                store(&mut *adopted).share_segments(0, sealed);
                let swapped = adopted.encoded_rows().unwrap().segments();
                assert!(swapped.iter().zip(sealed).all(|(a, b)| Arc::ptr_eq(a, b)));
                for (how, s) in [
                    ("appended", &appended),
                    ("adopted", &adopted),
                    ("rebuilt", &rebuilt),
                    ("shared", &shared),
                ] {
                    let case = format!("{kind:?} width {d} {how}");
                    assert_eq!(export(&**s, d), want, "{case}");
                    let stored = s.encoded_rows().unwrap();
                    assert_eq!(Some(stored), appended.encoded_rows(), "{case}");
                    let mut out = Vec::new();
                    stored.decode_into(0..n as usize, &mut out);
                    assert_eq!(bits(&out), decoded(&fvs), "{case}");
                    assert_eq!(s.payload_bytes(), Some(want.payload_bytes()), "{case}");
                    let mut sum = 0;
                    for (t, fv) in fvs.iter().enumerate() {
                        let (dense, sparse) = stored.row_payload(t);
                        // Nibbles plus four FP16 scales, then COO bytes.
                        let fv = fv.row(0);
                        let want = (fv.dense_bytes().len() + 8, fv.sparse_bytes().len());
                        assert_eq!((dense, sparse), want, "{case} row {t}");
                        sum += dense + sparse;
                    }
                    assert_eq!(Some(sum), s.payload_bytes(), "{case}");
                }
                let keys = appended.encoded_rows().unwrap();
                assert_eq!(keys.kind(), kind, "each stream keeps its own kind's store");
                if kind == KvKind::Key {
                    assert!(keys.len() % KEY_GROUP != 0, "width {d}: an open group");
                    let open = keys.group(keys.len() / KEY_GROUP);
                    assert!(
                        open.masks.iter().any(|&m| m != 0),
                        "width {d}: outliers marked in the open group"
                    );
                }
                for range in [0..d.div_ceil(2), d / 2..d] {
                    let w = range.len();
                    let slices: Vec<PackedRows> = (fvs.iter())
                        .map(|fv| {
                            let mut one = PackedRows::new(w);
                            one.push_channels(fv.row(0), range.clone());
                            one
                        })
                        .collect();
                    let mut sliced = stream(w);
                    for one in &slices {
                        store(&mut *sliced).push_rows(one);
                    }
                    let case = format!("{kind:?} width {d} channels {range:?}");
                    assert_eq!(export(&*sliced, w), packed(w, &slices), "{case}");
                    let mut out = Vec::new();
                    (sliced.encoded_rows().unwrap()).decode_into(0..n as usize, &mut out);
                    let full = decoded(&fvs);
                    let want: Vec<u32> = (0..n as usize)
                        .flat_map(|t| &full[t * d + range.start..t * d + range.end])
                        .copied()
                        .collect();
                    assert_eq!(bits(&out), want, "{case}");
                }
            }
        }
    }

    /// A decode past the rows held is a caller bug, not a short read.
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn decode_past_the_rows_held_panics() {
        let q = quantizer();
        let mut stream = q.row_stream(64, 0, KvKind::Value).expect("oaken streams");
        for r in 0..3 {
            assert!(stream.append_row_encoded(&test_vector(64, r)));
        }
        let mut out = Vec::new();
        (stream.encoded_rows().unwrap()).decode_into(2..4, &mut out);
    }
}
