//! Quantized-domain decode coefficients for the fused attention kernels.
//!
//! The exact read path decodes an [`EncodedRow`] element by element:
//! build three [`UniformQuantizer`]s from the row's [`ScaleSet`], walk the
//! dense nibbles, branch on the reconstructed shifted value's sign
//! ([`crate::groupshift::unshift_middle`]), and patch outliers from the COO
//! stream. That is three constructor calls and a data-dependent branch per
//! element — fine for materializing a view once, too slow to run inside an
//! attention inner loop.
//!
//! [`RowDecode`] folds, **once per row**, everything the per-element
//! decode needs into a form a dot-product kernel (scalar or SIMD) can
//! consume branchlessly:
//!
//! * the middle-group reconstruction collapses to one fused
//!   multiply-add, `v(c) = c · mid_step + base`, where `base` selects
//!   between `middle_min + T_i_hi` and `middle_min + T_i_lo`;
//! * the sign branch of `unshift_middle` becomes a **code-threshold
//!   compare** `c >= c0`: the exact path's reconstructed shifted value
//!   `middle_min + c / σ` is monotone in `c`, so there is a smallest code
//!   `c0` whose reconstruction is non-negative. `c0` is found by
//!   evaluating the *same f32 expression the exact path uses*, so the
//!   fused path always picks the same side as the exact path — only the
//!   rounding of the final multiply-add differs;
//! * outlier magnitudes collapse to `c · step` with the group's threshold
//!   offset applied per the COO side bit.
//!
//! The resulting numeric contract is *SQNR-bounded, not bit-exact*: fused
//! and exact reconstructions of the same code agree to within a few ULP
//! (`a + c/σ` versus `c · (1/σ) + a'` rounding), and the property tests in
//! `oaken-model` bound the end-to-end attention divergence.
//!
//! An [`EncodedStore`] keeps a stream's rows in 16-row
//! [`StoreSegment`]s of one layout for either kind, open or sealed: the
//! rows' nibbles in `u64` words, their middle-decode coefficients as
//! sixteen lanes ([`GroupCoeffs`], what is kept of each row's
//! [`RowDecode`]), an outlier mask per word and the outliers' values in
//! word order, and the rows' `SparseLog` slice. Only the words' meaning
//! depends on the kind: a key group keeps column `j` of its sixteen rows
//! in word `j` ([`EncodedStore::group`]), so a key decode writes the
//! transposed score tile directly; a value row keeps sixteen of its
//! columns per word ([`EncodedStore::for_rows`]), decoded through a
//! 16-entry table the reader builds from the row's coefficient lane. The
//! store is a stream's one store of its rows; its sealed segments are
//! shared by reference between every stream and prefix block holding the
//! same rows.

use crate::config::BitWidths;
use crate::encoding::{
    capacity_bytes, CooEntry, EncodedRow, OutlierIter, PackedRows, ScaleSet, SparseLog, SCALE_BYTES,
};
use crate::groups::GroupKind;
use crate::lanes;
use crate::pipeline::decode_row;
use crate::quant::UniformQuantizer;
use crate::thresholds::{KvKind, Thresholds};
use std::sync::Arc;

/// Everything a fused reader needs besides the per-row [`ScaleSet`]:
/// the offline-profiled thresholds of the `(layer, kind)` tensor and the
/// configured bit-widths. One value per stream, valid for every row the
/// stream will ever hold (thresholds are offline, bits are global), so it
/// can be fetched once even from a stream with zero rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedReadParams {
    /// Offline thresholds of the tensor the rows belong to.
    pub thresholds: Thresholds,
    /// Dense middle-group code width (4 in the paper).
    pub middle_bits: u8,
    /// Outlier magnitude code width (4 in the paper).
    pub outlier_bits: u8,
}

impl FusedReadParams {
    /// The bit-widths rows are quantized to.
    pub(crate) fn bits(&self) -> BitWidths {
        BitWidths {
            middle: self.middle_bits,
            outlier_mag: self.outlier_bits,
        }
    }
}

/// Per-row decode coefficients: the [`ScaleSet`] and [`FusedReadParams`]
/// folded into the minimal set of constants the quantized-domain kernels
/// read per element. Construction is O(middle_bits) (the `c0`
/// bisection); every per-element decode after that is a compare plus one
/// fused multiply-add. A store folds each row once, as it is appended,
/// and keeps its middle coefficients ([`GroupCoeffs`]) and its outliers'
/// values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowDecode {
    /// Middle reconstruction step `1/σ_mid` (0 for a degenerate range).
    pub mid_step: f32,
    /// Smallest dense code whose exact reconstructed shifted value is
    /// `>= 0`; `max_code + 1` when no code reconstructs non-negative.
    /// `code >= c0` is *exactly* the exact path's `unshift_middle` sign
    /// branch (the reconstruction is monotone in the code).
    pub c0: u32,
    /// `middle_min + T_i_hi`: the base applied to codes `>= c0`.
    pub base_hi: f32,
    /// `middle_min + T_i_lo`: the base applied to codes `< c0`.
    pub base_lo: f32,
    /// Inner-outlier magnitude step `1/σ_inner` (0 when degenerate).
    pub inner_step: f32,
    /// Outer-outlier magnitude step `1/σ_outer` (0 when degenerate).
    pub outer_step: f32,
    /// `T_o_hi`, added to high-side outer magnitudes.
    pub outer_hi: f32,
    /// `T_o_lo`, with the low-side outer magnitude subtracted from it.
    pub outer_lo: f32,
}

impl RowDecode {
    /// Folds one row's scales and the stream's parameters into decode
    /// coefficients.
    ///
    /// # Panics
    ///
    /// Panics on bit-widths outside `1..=8` (impossible for scales coming
    /// from a validated [`crate::OakenConfig`]).
    pub fn new(scales: &ScaleSet, params: &FusedReadParams) -> Self {
        let q_mid = UniformQuantizer::new(scales.middle_min, scales.middle_max, params.middle_bits)
            .expect("validated middle bit-width");
        let q_inner = UniformQuantizer::new(0.0, scales.inner_mag_max, params.outlier_bits)
            .expect("validated outlier bit-width");
        let q_outer = UniformQuantizer::new(0.0, scales.outer_mag_max, params.outlier_bits)
            .expect("validated outlier bit-width");
        let max_code = q_mid.max_code();
        // The sign branch as a code threshold: evaluate the *exact* path's
        // reconstruction (min + c/σ, the very same f32 expression) per
        // code. It is monotone in c (a degenerate σ reconstructs `min` for
        // every code), so the first non-negative code is found by
        // bisection.
        let (mut lo, mut hi) = (0, max_code + 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if q_mid.dequantize(mid) >= 0.0 {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let t = params.thresholds;
        let inv = |q: &UniformQuantizer| {
            if q.sigma() == 0.0 {
                0.0
            } else {
                1.0 / q.sigma()
            }
        };
        Self {
            mid_step: inv(&q_mid),
            c0: lo,
            base_hi: scales.middle_min + t.inner_hi,
            base_lo: scales.middle_min + t.inner_lo,
            inner_step: inv(&q_inner),
            outer_step: inv(&q_outer),
            outer_hi: t.outer_hi,
            outer_lo: t.outer_lo,
        }
    }

    /// Decodes a dense middle code: one compare + one fused multiply-add.
    #[inline]
    pub fn middle(&self, code: u32) -> f32 {
        let base = if code >= self.c0 {
            self.base_hi
        } else {
            self.base_lo
        };
        code as f32 * self.mid_step + base
    }

    /// Decodes an outlier from its COO group/side bits and the 4 magnitude
    /// bits fused into its dense slot: `T_o_hi + mag` or `T_o_lo − mag`
    /// for an outer one, `±mag` for an inner one — every candidate
    /// computed and the bits picking one, since they are as good as
    /// random from one outlier to the next (`x − m` is `x + (−m)`, bit for
    /// bit).
    #[inline]
    pub fn outlier(&self, group: GroupKind, high_side: bool, code: u32) -> f32 {
        debug_assert_ne!(group, GroupKind::Middle, "COO never stores middle");
        let outer = group == GroupKind::Outer;
        let mag = code as f32
            * if outer {
                self.outer_step
            } else {
                self.inner_step
            };
        let signed = if high_side { mag } else { -mag };
        let base = if high_side {
            self.outer_hi
        } else {
            self.outer_lo
        };
        if outer {
            base + signed
        } else {
            signed
        }
    }
}

/// A stream's one store of its encoded rows, laid out the way the fused
/// kernel reads the stream's kind: their dense nibbles, and the per-row
/// decode work the attention kernel would otherwise redo on every call,
/// hoisted to quantization time.
///
/// The rows are kept in [`StoreSegment`]s of [`KEY_GROUP`] rows: sealed
/// ones, immutable and shared by reference (`Arc`) with every other
/// stream and prefix-trie block that holds the same rows, and one open
/// segment the store owns, which takes appended rows and seals when its
/// sixteenth row lands. A segment holds its rows' dense nibbles in the
/// kind's layout and everything else in its slice of the `SparseLog`.
///
/// Everything a reader takes from a stream comes from here, read with the
/// stream's [`FusedReadParams`]: key groups ([`group`](Self::group)) and
/// value rows ([`for_rows`](Self::for_rows)) for the fused kernel, the
/// sealed segments a prefix-trie block shares
/// ([`segments`](Self::segments)), each row's charged bytes
/// ([`row_payload`](Self::row_payload)), f32 rows
/// ([`decode_into`](Self::decode_into)), and copies in page form, a range
/// at a time ([`export`](Self::export)).
///
/// The dense nibbles are the rows' own (a key store keeps them column by
/// column, a value store row by row); everything else is a pure function
/// of the encoded rows and the [`FusedReadParams`]. Rows appended one at
/// a time, adopted in page form ([`push_rows`](Self::push_rows)), taken
/// as another store's sealed segments
/// ([`share_segments`](Self::share_segments)) or re-appended after a
/// stream reset clears the store give equal stores.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedStore {
    params: FusedReadParams,
    sealed: Vec<Arc<StoreSegment>>,
    /// Rows `16 · sealed.len() ..`, fewer than [`KEY_GROUP`]; its kind and
    /// its log's width are the store's.
    open: StoreSegment,
}

impl EncodedStore {
    /// An empty store of `dim`-wide rows of `kind`, read with `params`.
    pub fn new(kind: KvKind, dim: usize, params: FusedReadParams) -> Self {
        Self {
            params,
            sealed: Vec::new(),
            open: StoreSegment {
                kind,
                dense: Vec::new(),
                coeffs: None,
                masks: Vec::new(),
                values: Vec::new(),
                log: SparseLog::new(dim),
                sparse_before: 0,
            },
        }
    }

    /// Which tensor the rows belong to: keys are kept column-major, values
    /// row-major.
    pub fn kind(&self) -> KvKind {
        self.open.kind
    }

    /// The thresholds and bit-widths the rows are quantized and read
    /// with.
    pub fn params(&self) -> &FusedReadParams {
        &self.params
    }

    /// Elements per row.
    pub fn dim(&self) -> usize {
        self.open.log.dim
    }

    /// Rows held.
    pub fn len(&self) -> usize {
        KEY_GROUP * self.sealed.len() + self.open.len()
    }

    /// Whether no row is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sealed segments: rows `0 .. 16 · segments().len()`, shared by
    /// reference; the rows past the last of them are in the open segment.
    pub fn segments(&self) -> &[Arc<StoreSegment>] {
        &self.sealed
    }

    /// The segment holding rows `16s .. 16s + 16`.
    #[inline(always)]
    fn segment(&self, s: usize) -> &StoreSegment {
        self.sealed.get(s).map_or(&self.open, |sealed| sealed)
    }

    /// The segment holding row `t`, and `t`'s row within it.
    fn locate(&self, t: usize) -> (&StoreSegment, usize) {
        (self.segment(t / KEY_GROUP), t % KEY_GROUP)
    }

    /// Derives and appends one row's read-side entries and its sparse
    /// parts to the open segment, sealing it at its sixteenth row: a copy
    /// of it, its buffers sized to its rows, joins the sealed ones, and
    /// the open segment empties, keeping its buffers for the next sixteen
    /// rows.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not [`dim`](Self::dim) wide.
    pub fn push_row(&mut self, row: EncodedRow<'_>) {
        assert_eq!(
            row.dim(),
            self.dim(),
            "all rows of one stream share a width"
        );
        self.open.push(row, &self.params);
        self.seal_if_full();
    }

    /// Seals the open segment at its sixteenth row: a copy of it, its
    /// buffers sized to its rows, joins the sealed ones, and the open
    /// segment empties, keeping its buffers.
    fn seal_if_full(&mut self) {
        if self.open.len() == KEY_GROUP {
            self.sealed.push(Arc::new(self.open.clone()));
            self.open.clear();
            self.open.sparse_before = self.sealed.last().expect("just sealed").sparse_to_end();
        }
    }

    /// Appends `rows` in order — a run the quantizer staged in page form,
    /// a sealed prefix block's rows past its last segment edge, or a
    /// rank's slice of rows encoded once at full width — equal to
    /// [`push_row`](Self::push_row) of each. Sixteen rows that start a key
    /// group fill it at once ([`StoreSegment`]'s column words by nibble
    /// transposes, its masks and outlier values column by column); rows
    /// short of a whole group are merged in one at a time.
    ///
    /// # Panics
    ///
    /// Panics if `rows` are not [`dim`](Self::dim) wide.
    pub fn push_rows(&mut self, rows: &PackedRows) {
        assert_eq!(
            rows.dim(),
            self.dim(),
            "all rows of one stream share a width"
        );
        let mut t = 0;
        while t < rows.rows() {
            if self.kind() == KvKind::Key && self.open.len() == 0 && rows.rows() - t >= KEY_GROUP {
                self.open.fill_key_group(rows, t, &self.params);
                self.seal_if_full();
                t += KEY_GROUP;
            } else {
                self.push_row(rows.row(t));
                t += 1;
            }
        }
    }

    /// Holds `segments` — sealed segments of a store of the same kind,
    /// width and parameters — as this store's segments `first ..`, by
    /// reference and without copying a row: each one this store has
    /// sealed already (it must hold the same rows, a late-deduplicated
    /// prefix block) is swapped for the shared one, and the rest are
    /// appended, which takes a store at a segment edge (an adopted
    /// prefix).
    ///
    /// # Panics
    ///
    /// Panics if `first` is past the store's sealed segments, a segment is
    /// of the other kind or another width, or one would be appended while
    /// the open segment holds rows.
    pub fn share_segments(&mut self, first: usize, segments: &[Arc<StoreSegment>]) {
        assert!(first <= self.sealed.len(), "segments are shared in order");
        for (s, shared) in (first..).zip(segments) {
            assert_eq!(
                shared.kind,
                self.kind(),
                "a store shares segments of its own kind"
            );
            assert_eq!(
                shared.log.dim,
                self.dim(),
                "all rows of one stream share a width"
            );
            if let Some(held) = self.sealed.get_mut(s) {
                debug_assert!(**held == **shared, "a swapped segment holds the same rows");
                *held = Arc::clone(shared);
                continue;
            }
            assert_eq!(
                self.open.len(),
                0,
                "segments are appended at a segment edge"
            );
            self.sealed.push(Arc::clone(shared));
            self.open.sparse_before = shared.sparse_to_end();
        }
    }

    /// Heap bytes the store holds, its sealed segments included.
    pub(crate) fn held_bytes(&self) -> usize {
        let sealed = self.sealed.iter().map(|s| s.held_bytes()).sum::<usize>();
        sealed + capacity_bytes(&self.sealed) + self.open.buffer_bytes()
    }

    /// Drops every row (the stream-reset companion): the sealed segments
    /// are let go, the open one keeps its buffers.
    pub(crate) fn clear(&mut self) {
        self.sealed.clear();
        self.open.clear();
        self.open.sparse_before = 0;
    }

    /// Key group `g` (rows `16g .. 16g + 16`; the open group is the last,
    /// `len() / 16`), as a key decode reads it: column `j` of its sixteen
    /// rows in one `u64` of codes (row `r` in lane `r`, [`lane_code`]),
    /// a 16-bit mask of the rows whose element is an outlier, and their
    /// values in (column, row) order — what one masked expand-load per
    /// column reads — open or sealed alike. One decode pass per (group,
    /// column) fills sixteen lanes of the transposed score tile: no
    /// per-row table, no transpose.
    #[inline(always)]
    pub fn group(&self, g: usize) -> KeyGroup<'_> {
        debug_assert_eq!(self.kind(), KvKind::Key, "key groups of a key store");
        let s = self.segment(g);
        KeyGroup {
            coeffs: s.coeffs(),
            dense: &s.dense,
            masks: &s.masks,
            values: &s.values,
        }
    }

    /// Hands `each` value rows `rows`, in order, walking each segment's
    /// buffers in step: per row its nibbles, sixteen columns per `u64`
    /// word, its segment's coefficient lane, and its outliers in
    /// expand-load form — a reader decodes sixteen nibbles through the
    /// row's 16-entry table ([`GroupCoeffs::table`]) and overwrites the
    /// masked lanes with the next values, never re-parsing packed COO
    /// bytes. A row's outlier values start where its COO bytes do in the
    /// segment's log: one value per COO byte.
    ///
    /// # Panics
    ///
    /// Panics if `rows` exceeds the rows held.
    #[inline(always)]
    pub fn for_rows<'a>(
        &'a self,
        rows: std::ops::Range<usize>,
        mut each: impl FnMut(ValueRow<'a>),
    ) {
        debug_assert_eq!(self.kind(), KvKind::Value, "value rows of a value store");
        assert!(rows.end <= self.len(), "value rows past the store");
        let words = self.dim().div_ceil(16);
        for s in rows.start / KEY_GROUP..rows.end.div_ceil(KEY_GROUP) {
            let seg = self.segment(s);
            let first = s * KEY_GROUP;
            let (lo, hi) = (
                rows.start.max(first) - first,
                rows.end.min(first + KEY_GROUP) - first,
            );
            let mut start = seg.log.sparse_bytes_to(lo);
            for r in lo..hi {
                let end = seg.log.sparse_bytes_to(r + 1);
                let at = r * words..(r + 1) * words;
                each(ValueRow {
                    dense: &seg.dense[at.clone()],
                    coeffs: seg.coeffs(),
                    lane: r,
                    masks: &seg.masks[at],
                    values: &seg.values[start..end],
                });
                start = end;
            }
        }
    }

    /// COO bytes of the first `rows` rows.
    fn sparse_bytes_to(&self, rows: usize) -> usize {
        let (segment, r) = self.locate(rows);
        segment.sparse_before + segment.log.sparse_bytes_to(r)
    }

    /// Payload bytes of the first `rows` rows — dense nibbles, COO bytes
    /// and FP16 scales, what the pool charges for them.
    pub fn payload_bytes(&self, rows: usize) -> usize {
        rows * (self.dim().div_ceil(2) + SCALE_BYTES) + self.sparse_bytes_to(rows)
    }

    /// `(dense, sparse)` payload bytes of row `t`, what the paged pool
    /// lays into its dense slab and sparse log: packed nibbles plus FP16
    /// scales (fixed per row), then the row's COO bytes.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a row held.
    pub fn row_payload(&self, t: usize) -> (usize, usize) {
        assert!(
            t < self.len(),
            "row {t} out of bounds ({} rows)",
            self.len()
        );
        let (segment, r) = self.locate(t);
        let sparse = segment.log.sparse_bytes_to(r + 1) - segment.log.sparse_bytes_to(r);
        (self.dim().div_ceil(2) + SCALE_BYTES, sparse)
    }

    /// Dequantizes rows `rows`, appending `rows.len() × d` values to
    /// `out` through the walk
    /// [`OakenQuantizer::dequantize_vector_into`](crate::OakenQuantizer::dequantize_vector_into)
    /// takes, so the values are bit-identical to dequantizing each row as
    /// it was written.
    ///
    /// # Panics
    ///
    /// Panics if `rows` exceeds the rows held.
    pub fn decode_into(&self, rows: std::ops::Range<usize>, out: &mut Vec<f32>) {
        self.check(&rows);
        for t in rows {
            let (segment, r) = self.locate(t);
            let (sparse, counts, scales) = segment.log.row(r);
            let code_at = |i| u32::from(segment.code(r, i));
            let outliers = OutlierIter::new(sparse, counts);
            decode_row(&self.params, &scales, self.dim(), code_at, outliers, out)
                .expect("a stored row decodes with its stream's parameters");
        }
    }

    /// Appends rows `rows` to `out` in page form, reserving exactly what
    /// they take: a key group un-transposes its 16×16 nibble blocks, value
    /// rows copy their words' bytes, the log copies its slice.
    ///
    /// # Panics
    ///
    /// Panics if `rows` exceeds the rows held or `out` is of another
    /// width.
    pub fn export(&self, rows: std::ops::Range<usize>, out: &mut PackedRows) {
        self.check(&rows);
        let sparse = self.sparse_bytes_to(rows.end) - self.sparse_bytes_to(rows.start);
        out.reserve_exact(rows.len(), sparse);
        let mut t = rows.start;
        while t < rows.end {
            let (segment, r) = self.locate(t);
            let local = r..(r + rows.end - t).min(KEY_GROUP);
            let dense = local.clone();
            t += local.len();
            out.extend(&segment.log, local, |slab| {
                segment.dense_rows_into(dense, slab)
            });
        }
    }

    /// Panics unless `rows` is a range of rows held.
    fn check(&self, rows: &std::ops::Range<usize>) {
        assert!(
            rows.start <= rows.end && rows.end <= self.len(),
            "row range {rows:?} out of bounds ({} rows)",
            self.len()
        );
    }
}

/// [`KEY_GROUP`] rows of one stream's store, or fewer while open, in one
/// layout for keys and values:
///
/// * `dense`: the rows' 4-bit codes, sixteen per `u64` word in lane order
///   ([`lane_code`]). A key group keeps column `j` in word `j`, row `r` in
///   lane `r`; value row `r` keeps its columns `16w .. 16w + 16` in word
///   `r · ⌈d/16⌉ + w`, column `16w + k` in lane `k` (the last word
///   zero-padded);
/// * `coeffs`: each row's middle decode, lane `r` for row `r` (allocated
///   at the first row, so a stream that only shares segments holds none,
///   and kept with its lanes zeroed when the segment empties);
/// * `masks[w]`: the nibbles of word `w` that hold an outlier's
///   magnitude, and `values`: those outliers' reconstructions
///   ([`RowDecode::outlier`]) in (word, nibble) order — for keys (column,
///   row), for values (row, column). Both are current after every append,
///   so an open segment reads like a sealed one;
/// * its rows' slice of the `SparseLog`.
///
/// Sealed, a segment is immutable and shared by reference: a stream and
/// every prefix-trie block and adopter holding the same rows hold the one
/// segment, so a shared prefix's bytes exist once.
#[derive(Debug, Clone)]
pub struct StoreSegment {
    kind: KvKind,
    dense: Vec<u64>,
    coeffs: Option<Box<GroupCoeffs>>,
    masks: Vec<u16>,
    values: Vec<f32>,
    log: SparseLog,
    /// COO bytes of the stream's rows before the segment's — the same in
    /// every stream holding it, whose rows before it are the same.
    sparse_before: usize,
}

impl StoreSegment {
    /// Rows held.
    fn len(&self) -> usize {
        self.log.rows()
    }

    /// The rows' coefficients: all zeros for a segment with no row.
    #[inline(always)]
    fn coeffs(&self) -> &GroupCoeffs {
        self.coeffs.as_deref().unwrap_or(&GroupCoeffs::NONE)
    }

    /// Nibble words per value row.
    fn row_words(&self) -> usize {
        self.log.dim.div_ceil(16)
    }

    /// COO bytes of the stream's rows up to the segment's end.
    fn sparse_to_end(&self) -> usize {
        self.sparse_before + self.log.sparse_bytes_to(self.len())
    }

    /// The dense code of the segment's row `r`, element `i`.
    fn code(&self, r: usize, i: usize) -> u8 {
        let (word, lane) = match self.kind {
            KvKind::Key => (self.dense[i], r),
            KvKind::Value => (self.dense[r * self.row_words() + i / 16], i % 16),
        };
        lane_code(word, lane) as u8
    }

    /// Row `r`'s decode: its coefficient lane is set, and the whole
    /// decode returned for its outliers.
    fn decode_lane(
        &mut self,
        r: usize,
        row: &EncodedRow<'_>,
        params: &FusedReadParams,
    ) -> RowDecode {
        let dec = RowDecode::new(row.scales(), params);
        let c = self.coeffs.get_or_insert_default();
        c.mid_step[r] = dec.mid_step;
        c.c0[r] = dec.c0 as f32;
        c.base_lo[r] = dec.base_lo;
        c.base_hi[r] = dec.base_hi;
        dec
    }

    /// Appends one row: its coefficient lane, codes and outliers, and its
    /// sparse parts.
    fn push(&mut self, row: EncodedRow<'_>, params: &FusedReadParams) {
        let r = self.len();
        let dec = self.decode_lane(r, &row, params);
        let value =
            |e: &CooEntry| dec.outlier(e.group, e.high_side, u32::from(row.dense_code(e.index)));
        match self.kind {
            KvKind::Key => {
                let dim = row.dim();
                if r == 0 {
                    self.dense.resize(dim, 0);
                    self.masks.resize(dim, 0);
                }
                let (columns, masks, values) =
                    (&mut self.dense[..], &mut self.masks, &mut self.values);
                lanes::widest(
                    #[inline(always)]
                    || {
                        or_codes(columns, row.dense_bytes(), 4 * nibble_of(r));
                        merge_key_outliers(masks, values, row, r, value);
                    },
                );
            }
            KvKind::Value => {
                let words = row.dense_bytes().chunks(8).map(|chunk| {
                    let mut word = [0u8; 8];
                    word[..chunk.len()].copy_from_slice(chunk);
                    to_lanes(u64::from_le_bytes(word))
                });
                self.dense.extend(words);
                let at = self.masks.len();
                self.masks.resize(at + row.dim().div_ceil(16), 0);
                for e in row.outliers() {
                    self.masks[at + e.index / 16] |= 1 << (e.index % 16);
                    self.values.push(value(&e));
                }
            }
        }
        self.log.push(row);
    }

    /// Fills the empty segment of a key store with rows `first ..
    /// first + 16` of `rows`, equal to pushing them one by one: per
    /// sixteen columns one 16×16 nibble transpose of the rows' packed
    /// bytes (row `r` as word [`nibble_of`]`(r)`, the inverse of
    /// [`dense_rows_into`](Self::dense_rows_into)) gives the column words;
    /// the masks take every row's outliers, and one pass down the columns
    /// lays the values in (column, row) order, each row's next outlier
    /// the one its mask bit stands for.
    fn fill_key_group(&mut self, rows: &PackedRows, first: usize, params: &FusedReadParams) {
        debug_assert_eq!((self.kind, self.len()), (KvKind::Key, 0));
        let group: [EncodedRow<'_>; KEY_GROUP] = std::array::from_fn(|r| rows.row(first + r));
        let decs: [RowDecode; KEY_GROUP] =
            std::array::from_fn(|r| self.decode_lane(r, &group[r], params));
        let dim = rows.dim();
        self.dense.resize(dim, 0);
        for (c, columns) in self.dense.chunks_mut(KEY_GROUP).enumerate() {
            let mut words = [0u64; KEY_GROUP];
            for (r, row) in group.iter().enumerate() {
                let bytes = &row.dense_bytes()[8 * c..];
                let mut word = [0u8; 8];
                let n = bytes.len().min(8);
                word[..n].copy_from_slice(&bytes[..n]);
                words[nibble_of(r)] = u64::from_le_bytes(word);
            }
            transpose_nibbles(&mut words);
            columns.copy_from_slice(&words[..columns.len()]);
        }
        self.masks.resize(dim, 0);
        for (r, row) in group.iter().enumerate() {
            row.outliers().for_each(|e| self.masks[e.index] |= 1 << r);
        }
        let mut next = group.map(|row| row.outliers());
        for (j, &mask) in self.masks.iter().enumerate() {
            let mut bits = mask;
            while bits != 0 {
                let r = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let e = next[r].next().expect("one outlier per mask bit");
                debug_assert_eq!(e.index, j, "outliers in column order");
                let code = u32::from(group[r].dense_code(j));
                self.values
                    .push(decs[r].outlier(e.group, e.high_side, code));
            }
        }
        self.log.extend_from(rows.log(), first..first + KEY_GROUP);
    }

    /// Writes the packed dense nibbles of the segment's rows `rows`
    /// (element `j` of a row in nibble `j`) into `out`, a zeroed slab of
    /// exactly those rows: a key group un-transposes its column words —
    /// per sixteen columns, one 16×16 nibble transpose (its own inverse)
    /// gives row `r`'s eight bytes of those columns as word
    /// [`nibble_of`]`(r)` — value rows copy their words' bytes, back in
    /// element order.
    fn dense_rows_into(&self, rows: std::ops::Range<usize>, out: &mut [u8]) {
        let stride = self.log.dim.div_ceil(2);
        match self.kind {
            KvKind::Value => {
                let words = self.row_words();
                for (k, r) in rows.enumerate() {
                    let row = &mut out[k * stride..(k + 1) * stride];
                    for (bytes, &word) in row.chunks_mut(8).zip(&self.dense[r * words..]) {
                        bytes.copy_from_slice(&from_lanes(word).to_le_bytes()[..bytes.len()]);
                    }
                }
            }
            KvKind::Key => {
                for (c, chunk) in self.dense.chunks(16).enumerate() {
                    let mut words = [0u64; KEY_GROUP];
                    words[..chunk.len()].copy_from_slice(chunk);
                    transpose_nibbles(&mut words);
                    let bytes = 8 * c..stride.min(8 * c + 8);
                    for r in rows.clone() {
                        let at = (r - rows.start) * stride;
                        let word = words[nibble_of(r)].to_le_bytes();
                        out[at + bytes.start..at + bytes.end].copy_from_slice(&word[..bytes.len()]);
                    }
                }
            }
        }
    }

    /// Heap bytes the segment's buffers hold.
    fn buffer_bytes(&self) -> usize {
        self.coeffs
            .as_ref()
            .map_or(0, |_| std::mem::size_of::<GroupCoeffs>())
            + capacity_bytes(&self.dense)
            + capacity_bytes(&self.masks)
            + capacity_bytes(&self.values)
            + self.log.held_bytes()
    }

    /// Heap bytes a sealed segment holds: its buffers and the shared
    /// allocation that holds it (two reference counts and the segment).
    pub fn held_bytes(&self) -> usize {
        2 * std::mem::size_of::<usize>() + std::mem::size_of::<Self>() + self.buffer_bytes()
    }

    /// Drops every row, keeping the buffers, the coefficient lanes zeroed.
    fn clear(&mut self) {
        self.dense.clear();
        if let Some(coeffs) = &mut self.coeffs {
            **coeffs = GroupCoeffs::NONE;
        }
        self.masks.clear();
        self.values.clear();
        self.log.clear();
    }
}

impl PartialEq for StoreSegment {
    /// Segments holding the same rows are equal: coefficient lanes kept
    /// zeroed through a clear read as none allocated.
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
            && self.dense == other.dense
            && self.coeffs() == other.coeffs()
            && self.masks == other.masks
            && self.values == other.values
            && self.log == other.log
            && self.sparse_before == other.sparse_before
    }
}

/// Rows per [`StoreSegment`]: one 512-bit vector of `f32` lanes, so a
/// key group's column decodes in one.
pub const KEY_GROUP: usize = 16;

/// The nibble of a store word that holds lane `k`'s code: lanes `2i` and
/// `2i + 1` in nibbles `i` and `8 + i`. Broadcast to every 64-bit lane of
/// a vector, the word's low half sits in each even 32-bit lane and its
/// high half in each odd one, so one per-lane shift by `4·⌊k/2⌋` brings
/// lane `k`'s code down: an unpack with no cross-lane permute.
#[inline(always)]
pub const fn nibble_of(k: usize) -> usize {
    k / 2 + 8 * (k % 2)
}

/// Lane `k`'s code in a store word of sixteen ([`nibble_of`]).
#[inline(always)]
pub const fn lane_code(word: u64, k: usize) -> u64 {
    (word >> (4 * nibble_of(k))) & 0xF
}

/// Sixteen codes in element order (code `k` in nibble `k`) in lane order
/// ([`nibble_of`]): the even codes — each byte's low nibble — packed into
/// the low half, the odd ones into the high half.
fn to_lanes(word: u64) -> u64 {
    // A code in the low nibble of each byte, packed into the low half.
    let pack = |x: u64| {
        let x = (x | x >> 4) & 0x00FF_00FF_00FF_00FF;
        let x = (x | x >> 8) & 0x0000_FFFF_0000_FFFF;
        (x | x >> 16) & 0xFFFF_FFFF
    };
    const LOW: u64 = 0x0F0F_0F0F_0F0F_0F0F;
    pack(word & LOW) | pack(word >> 4 & LOW) << 32
}

/// The inverse of [`to_lanes`].
fn from_lanes(word: u64) -> u64 {
    // Eight codes of the low half, one into the low nibble of each byte.
    let spread = |x: u64| {
        let x = (x | x << 16) & 0x0000_FFFF_0000_FFFF;
        let x = (x | x << 8) & 0x00FF_00FF_00FF_00FF;
        (x | x << 4) & 0x0F0F_0F0F_0F0F_0F0F
    };
    spread(word & 0xFFFF_FFFF) | spread(word >> 32) << 4
}

/// A segment's rows' middle-decode coefficients, lane `r` for its row `r`
/// (the [`RowDecode`] fields of the same names; `c0` as an `f32`, exact
/// for every code). A lane with no row yet is all zeros, which decodes
/// every code to `+0.0`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[repr(C, align(64))]
pub struct GroupCoeffs {
    /// [`RowDecode::mid_step`] per row.
    pub mid_step: [f32; KEY_GROUP],
    /// [`RowDecode::c0`] per row.
    pub c0: [f32; KEY_GROUP],
    /// [`RowDecode::base_lo`] per row.
    pub base_lo: [f32; KEY_GROUP],
    /// [`RowDecode::base_hi`] per row.
    pub base_hi: [f32; KEY_GROUP],
}

impl GroupCoeffs {
    /// Every lane without a row.
    const NONE: Self = Self {
        mid_step: [0.0; KEY_GROUP],
        c0: [0.0; KEY_GROUP],
        base_lo: [0.0; KEY_GROUP],
        base_hi: [0.0; KEY_GROUP],
    };

    /// Row `r`'s middle decode of `code`: bit-identical to
    /// [`RowDecode::middle`] of the row, the multiply and the add rounded
    /// separately.
    #[inline(always)]
    fn lane(&self, r: usize, code: f32) -> f32 {
        let base = if code >= self.c0[r] {
            self.base_hi[r]
        } else {
            self.base_lo[r]
        };
        code * self.mid_step[r] + base
    }

    /// A key group's middle decode of one column's codes, [`lane_code`]`(codes,
    /// r)` the code of row `r`: lane `r` is [`RowDecode::middle`] of row
    /// `r`.
    #[inline(always)]
    pub fn middle(&self, codes: u64) -> [f32; KEY_GROUP] {
        std::array::from_fn(|r| self.lane(r, lane_code(codes, r) as f32))
    }

    /// Row `r`'s middle decode of every 4-bit code: entry `c` is
    /// [`RowDecode::middle`]`(c)` of the row — the table a value row's
    /// nibbles are looked up in.
    #[inline(always)]
    pub fn table(&self, r: usize) -> [f32; 16] {
        std::array::from_fn(|c| self.lane(r, c as f32))
    }
}

/// One key group of an [`EncodedStore`], as a decode reads it
/// ([`EncodedStore::group`]).
#[derive(Debug, Clone, Copy)]
pub struct KeyGroup<'a> {
    /// The rows' coefficients.
    pub coeffs: &'a GroupCoeffs,
    /// One `u64` of codes per column, row `r` in lane `r` ([`lane_code`]).
    pub dense: &'a [u64],
    /// One outlier-row mask per column.
    pub masks: &'a [u16],
    /// The outlier values, in (column, row) order.
    pub values: &'a [f32],
}

impl<'a> KeyGroup<'a> {
    /// The outlier values of columns `col..`: those after the outliers of
    /// the columns before `col`.
    #[inline(always)]
    pub fn values_from(&self, col: usize) -> &'a [f32] {
        let before: u32 = self.masks[..col].iter().map(|m| m.count_ones()).sum();
        &self.values[before as usize..]
    }
}

/// One value row of an [`EncodedStore`], as the value decode reads it
/// ([`EncodedStore::for_rows`]).
#[derive(Debug, Clone, Copy)]
pub struct ValueRow<'a> {
    /// The row's codes, columns `16w .. 16w + 16` in `dense[w]`, column
    /// `16w + k` in lane `k` ([`lane_code`]).
    pub dense: &'a [u64],
    /// Its segment's coefficients; the row's are lane [`lane`](Self::lane).
    pub coeffs: &'a GroupCoeffs,
    /// The row's lane of [`coeffs`](Self::coeffs).
    pub lane: usize,
    /// Bit `k` of `masks[w]` is set iff column `16w + k` is an outlier.
    pub masks: &'a [u16],
    /// The outliers' reconstructions (`RowDecode::outlier` of their bits)
    /// in ascending column order — one per set bit.
    pub values: &'a [f32],
}

/// Enters key row `r`'s outliers into the group: its value last in
/// its column's run — the row is the group's newest — and bit `r` of
/// the column's mask. One pass down the columns from the last to the
/// row's first outlier, counting each column's old values once — four
/// masks to a count between the row's outliers: at each outlier the old
/// values counted since the one above move up, once, by the new values
/// still to place, and its value goes in just above its column's old
/// ones.
#[inline(always)]
fn merge_key_outliers(
    masks: &mut [u16],
    values: &mut Vec<f32>,
    row: EncodedRow<'_>,
    r: usize,
    value: impl Fn(&CooEntry) -> f32,
) {
    let mut outliers = row.outliers();
    let Some(mut next) = outliers.next_back() else {
        return;
    };
    // `src`: the end of the old values not yet moved; `dst`: where they
    // end once moved, `dst - src` being the new values left to place.
    let (mut src, mut dst) = (values.len(), values.len() + outliers.len() + 1);
    values.resize(dst, 0.0);
    // Old values of the columns from `j` up, not yet moved.
    let (mut j, mut above) = (masks.len(), 0);
    loop {
        // Down to the column above the outlier: four columns a count.
        while j >= next.index + 5 {
            let four = masks[j - 4..j]
                .iter()
                .rev()
                .fold(0u64, |w, &m| w << 16 | u64::from(m));
            above += four.count_ones() as usize;
            j -= 4;
        }
        while j > next.index + 1 {
            j -= 1;
            above += masks[j].count_ones() as usize;
        }
        j = next.index;
        values.copy_within(src - above..src, dst - above);
        (src, dst) = (src - above, dst - above - 1);
        values[dst] = value(&next);
        above = masks[j].count_ones() as usize;
        masks[j] |= 1 << r;
        match outliers.next_back() {
            Some(e) => next = e,
            None => break,
        }
    }
    debug_assert_eq!(src, dst, "every new value placed");
}

/// ORs one row's packed codes (`bytes`, element `j` in nibble `j`) into
/// bit `shift` of each column word — one read-modify-write per element,
/// which the `simd` lane runs sixteen at a time.
#[inline(always)]
fn or_codes(columns: &mut [u64], bytes: &[u8], shift: usize) {
    let (pairs, odd) = columns.as_chunks_mut::<2>();
    for (pair, &b) in pairs.iter_mut().zip(bytes) {
        pair[0] |= u64::from(b & 0xF) << shift;
        pair[1] |= u64::from(b >> 4) << shift;
    }
    if let [last] = odd {
        *last |= u64::from(bytes[pairs.len()] & 0xF) << shift;
    }
}

/// Transposes a 16×16 matrix of nibbles held one row per word (element
/// `k` of row `r` in nibble `k` of `m[r]`), so that afterwards nibble `r`
/// of `m[k]` is that element: the off-diagonal blocks swap at 8, 4, 2 and
/// 1 nibbles.
fn transpose_nibbles(m: &mut [u64; 16]) {
    for (step, low) in [
        (8, 0x0000_0000_FFFF_FFFF_u64),
        (4, 0x0000_FFFF_0000_FFFF),
        (2, 0x00FF_00FF_00FF_00FF),
        (1, 0x0F0F_0F0F_0F0F_0F0F),
    ] {
        let bits = 4 * step;
        for r in (0..16).filter(|r| r & step == 0) {
            let t = ((m[r] >> bits) ^ m[r + step]) & low;
            m[r] ^= t << bits;
            m[r + step] ^= t;
        }
    }
}

/// Decodes a whole encoded row through the fused coefficients, appending
/// `row.dim()` values to `out`. Reference implementation for the kernel
/// property tests — the attention kernels inline this walk instead of
/// materializing it.
pub fn decode_row_fused_into(row: EncodedRow<'_>, params: &FusedReadParams, out: &mut Vec<f32>) {
    let d = RowDecode::new(row.scales(), params);
    let mut outliers = row.outliers().peekable();
    out.reserve(row.dim());
    for i in 0..row.dim() {
        let code = u32::from(row.dense_code(i));
        let v = match outliers.peek() {
            Some(e) if e.index == i => {
                let e = *e;
                outliers.next();
                d.outlier(e.group, e.high_side, code)
            }
            _ => d.middle(code),
        };
        out.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OakenConfig;
    use crate::pipeline::OakenQuantizer;
    use crate::profiler::OfflineProfiler;
    use crate::thresholds::KvKind;

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
                    0 => base * 10.0,
                    1 => base * 0.01,
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
    fn code_threshold_matches_exact_sign_branch() {
        let q = quantizer();
        let params = q.fused_read_params(0, KvKind::Key).unwrap();
        for seed in 0..24 {
            let x = test_vector(256, seed * 13 + 1);
            let fv = q.quantize_vector(&x, 0, KvKind::Key).unwrap();
            let s = *fv.row(0).scales();
            let d = RowDecode::new(&s, &params);
            let q_mid =
                UniformQuantizer::new(s.middle_min, s.middle_max, params.middle_bits).unwrap();
            for c in 0..=q_mid.max_code() {
                let exact_high = q_mid.dequantize(c) >= 0.0;
                assert_eq!(
                    c >= d.c0,
                    exact_high,
                    "code {c} picked a different side than the exact path"
                );
            }
        }
    }

    #[test]
    fn fused_decode_close_to_exact_decode() {
        let q = quantizer();
        for kind in KvKind::ALL {
            let params = q.fused_read_params(1, kind).unwrap();
            for seed in 0..16 {
                let x = test_vector(512, seed * 31 + 7);
                let fv = q.quantize_vector(&x, 1, kind).unwrap();
                let exact = q.dequantize_vector(fv.row(0), 1, kind).unwrap();
                let mut fused = Vec::new();
                decode_row_fused_into(fv.row(0), &params, &mut fused);
                assert_eq!(fused.len(), exact.len());
                let range = exact.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-6);
                for (i, (a, b)) in exact.iter().zip(&fused).enumerate() {
                    assert!(
                        (a - b).abs() <= range * 1e-5,
                        "element {i}: exact {a} fused {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_scales_decode_consistently() {
        // A constant row collapses every group range to a point; the fused
        // decode must still agree with the exact one.
        let q = quantizer();
        let params = q.fused_read_params(0, KvKind::Value).unwrap();
        for value in [0.0f32, 1.25, -1.25] {
            let x = vec![value; 128];
            let fv = q.quantize_vector(&x, 0, KvKind::Value).unwrap();
            let exact = q.dequantize_vector(fv.row(0), 0, KvKind::Value).unwrap();
            let mut fused = Vec::new();
            decode_row_fused_into(fv.row(0), &params, &mut fused);
            for (a, b) in exact.iter().zip(&fused) {
                assert!((a - b).abs() <= 1e-5, "exact {a} fused {b}");
            }
        }
    }

    #[test]
    fn sliced_rows_fused_decode_matches_full_slice() {
        // The fused read path a tensor-parallel rank runs over its
        // channel-sliced vectors must agree bitwise with the same channels
        // of the full row's fused decode: `RowDecode` coefficients depend
        // only on the (shared) scales, and each element decodes from its
        // own code and outlier entry.
        let q = quantizer();
        let params = q.fused_read_params(0, KvKind::Key).unwrap();
        for seed in 0..12 {
            let x = test_vector(384, seed * 11 + 5);
            let fv = q.quantize_vector(&x, 0, KvKind::Key).unwrap();
            let mut full = Vec::new();
            decode_row_fused_into(fv.row(0), &params, &mut full);
            for range in [0..80, 80..208, 208..384] {
                let mut s = PackedRows::new(range.len());
                s.push_channels(fv.row(0), range.clone());
                let mut got = Vec::new();
                decode_row_fused_into(s.row(0), &params, &mut got);
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

    /// A key group's masks mark exactly its rows' outliers and its values
    /// stay in (column, row) order after every append, open or sealed:
    /// each marked lane holds the reference decode of its element.
    #[test]
    fn key_group_outliers_stay_in_column_order() {
        let (q, d) = (quantizer(), 96);
        let params = q.fused_read_params(0, KvKind::Key).unwrap();
        let mut keys = EncodedStore::new(KvKind::Key, d, params);
        let (mut want, mut outliers) = (Vec::new(), Vec::new());
        for t in 0..40 {
            let fv = q.quantize_vector(&test_vector(d, t * 5 + 3), 0, KvKind::Key);
            let fv = fv.unwrap();
            decode_row_fused_into(fv.row(0), &params, &mut want);
            outliers.push(fv.row(0).outliers().len());
            keys.push_row(fv.row(0));
            for g in 0..outliers.len().div_ceil(KEY_GROUP) {
                let group = keys.group(g);
                let mut values = group.values.iter();
                for (j, &mask) in group.masks.iter().enumerate() {
                    for r in (0..KEY_GROUP).filter(|r| mask >> r & 1 == 1) {
                        let v = values.next().expect("one value per mask bit");
                        let at = (KEY_GROUP * g + r) * d + j;
                        assert_eq!(v.to_bits(), want[at].to_bits(), "row {t} group {g}");
                    }
                }
                assert!(values.next().is_none(), "one mask bit per value");
                let rows = KEY_GROUP * g..outliers.len().min(KEY_GROUP * (g + 1));
                assert_eq!(group.values.len(), outliers[rows].iter().sum::<usize>());
            }
        }
        assert!(
            outliers.iter().sum::<usize>() > 40,
            "the rows carry outliers"
        );
    }

    /// A store is a function of its rows at a segment edge too: one that
    /// appended its rows, whose emptied open segment keeps its zeroed
    /// coefficient lanes, equals one that took the same segments by
    /// reference, and a cleared store equals a new one.
    #[test]
    fn stores_at_a_segment_edge_compare_by_their_rows() {
        let (q, d) = (quantizer(), 40);
        for kind in KvKind::ALL {
            let params = q.fused_read_params(0, kind).unwrap();
            let mut appended = EncodedStore::new(kind, d, params);
            for t in 0..2 * KEY_GROUP as u64 {
                let run = q.quantize_vector(&test_vector(d, t), 0, kind).unwrap();
                appended.push_row(run.row(0));
            }
            let mut shared = EncodedStore::new(kind, d, params);
            shared.share_segments(0, appended.segments());
            assert_eq!(shared, appended, "{kind:?}");
            appended.clear();
            assert_eq!(appended, EncodedStore::new(kind, d, params), "{kind:?}");
        }
    }

    /// Lane order is a permutation of the nibbles, undone on export.
    #[test]
    fn lane_order_round_trips_and_puts_each_code_in_its_lane() {
        for seed in 0..64u64 {
            let word = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (seed << 61);
            let lanes = to_lanes(word);
            assert_eq!(from_lanes(lanes), word);
            for k in 0..16 {
                assert_eq!(lane_code(lanes, k), (word >> (4 * k)) & 0xF, "lane {k}");
            }
        }
        let lanes: Vec<usize> = (0..16).map(nibble_of).collect();
        assert_eq!(
            lanes,
            [0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15]
        );
    }

    #[test]
    fn params_are_row_independent() {
        let q = quantizer();
        let a = q.fused_read_params(0, KvKind::Key).unwrap();
        let b = q.fused_read_params(0, KvKind::Key).unwrap();
        assert_eq!(a, b);
        assert!(q.fused_read_params(9, KvKind::Key).is_err());
    }
}
