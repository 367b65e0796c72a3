//! Fused dense-and-sparse encoding (paper §4.5).
//!
//! The quantized vector is stored as:
//!
//! * a **dense nibble matrix** — one 4-bit code per element, two codes per
//!   byte. Middle (inlier) elements store their 4-bit group-shift code;
//!   positions that belong to outliers hold the outlier's 4 magnitude bits
//!   ("fused" into the slot that a naive dense-and-sparse scheme would have
//!   zeroed and wasted);
//! * a **sparse COO stream** — one byte per outlier: 6 offset bits locating
//!   the outlier inside its 64-element block, 1 group bit (inner/outer), and
//!   1 sign/side bit;
//! * **per-block outlier counts** — the information the MMU's sparse
//!   management table keeps as per-page transfer sizes (§5.2); it delimits
//!   which COO bytes belong to which block;
//! * a [`ScaleSet`] of four per-vector scale values (accounted as FP16).
//!
//! Compared to the 23 bits/outlier of FP16 dense-and-sparse schemes
//! (16 value + 6 index + 1 group), fusing cuts each outlier to 8 *extra*
//! bits while keeping every structure byte-aligned.

use crate::error::OakenError;
use crate::groups::GroupKind;

/// Elements per COO block: a COO byte's 6 offset bits address exactly 64
/// (§4.5: "6 bits to indicate the location of each value").
pub(crate) const BLOCK_SIZE: usize = 64;

/// Per-vector quantization scales, computed online from group min/max.
///
/// Stored as four FP16 values in hardware; we keep f32 in memory and account
/// 64 bits in all capacity arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScaleSet {
    /// Minimum of the *shifted* middle-group values.
    pub middle_min: f32,
    /// Maximum of the *shifted* middle-group values.
    pub middle_max: f32,
    /// Maximum magnitude of the inner group (range is `[0, inner_mag_max]`).
    pub inner_mag_max: f32,
    /// Maximum shifted magnitude of the outer group.
    pub outer_mag_max: f32,
}

impl ScaleSet {
    /// Bits of storage the scale metadata occupies per vector (4 × FP16).
    pub const STORAGE_BITS: u32 = 64;
}

/// A decoded COO entry (one outlier).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CooEntry {
    /// Absolute element index within the vector.
    pub index: usize,
    /// Inner or outer group (`GroupKind::Middle` never appears here).
    pub group: GroupKind,
    /// Side/sign bit: outer → `x > T_o_hi`; inner → `x >= 0`.
    pub high_side: bool,
}

impl CooEntry {
    /// Packs the entry into its 8-bit wire format given its block-local
    /// offset: `[offset:6][group:1][sign:1]`.
    ///
    /// # Panics
    ///
    /// Panics if `offset_in_block` is not below the 64-element block: its
    /// high bits would be shifted out and the entry stored at another
    /// index.
    pub fn pack(offset_in_block: u8, group: GroupKind, high_side: bool) -> u8 {
        assert!(
            usize::from(offset_in_block) < BLOCK_SIZE,
            "COO offset past its block"
        );
        let g = match group {
            GroupKind::Outer => 1u8,
            GroupKind::Inner => 0u8,
            GroupKind::Middle => unreachable!("middle values are dense, not COO"),
        };
        (offset_in_block << 2) | (g << 1) | u8::from(high_side)
    }

    /// Unpacks the 8-bit wire format. `block` supplies the 64-element block
    /// the entry belongs to (delimited by the per-block counts).
    pub fn unpack(byte: u8, block: usize) -> CooEntry {
        let offset = usize::from(byte >> 2);
        let group = if (byte >> 1) & 1 == 1 {
            GroupKind::Outer
        } else {
            GroupKind::Inner
        };
        CooEntry {
            index: block * BLOCK_SIZE + offset,
            group,
            high_side: byte & 1 == 1,
        }
    }
}

/// One encoded row's four parts, borrowed from the [`PackedRows`] run
/// that holds them: what store segments are built from and the exact
/// decoder walks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodedRow<'a> {
    dim: usize,
    dense: &'a [u8],
    sparse: &'a [u8],
    block_counts: &'a [u8],
    scales: ScaleSet,
}

impl<'a> EncodedRow<'a> {
    /// Row dimension (element count).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The row's scales.
    pub fn scales(&self) -> &ScaleSet {
        &self.scales
    }

    /// Reads the 4-bit dense code of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim()`.
    pub fn dense_code(&self, i: usize) -> u8 {
        assert!(i < self.dim, "element {i} out of range {}", self.dim);
        nibble(self.dense, i)
    }

    /// The packed dense nibbles, element `i` in nibble `i`.
    pub fn dense_bytes(&self) -> &'a [u8] {
        self.dense
    }

    /// The packed COO bytes, one per outlier in ascending index order.
    pub fn sparse_bytes(&self) -> &'a [u8] {
        self.sparse
    }

    /// Outliers per 64-element block: the sparse management table's
    /// transfer sizes, which delimit each block's COO bytes.
    pub fn block_counts(&self) -> &'a [u8] {
        self.block_counts
    }

    /// Streams the COO entries in ascending index order without allocating,
    /// using the per-block counts to attribute bytes to blocks — exactly the
    /// zero-insert walk the dequantization engine performs (§5.2 "outlier
    /// dequantizer"). This is the decode hot path: the streaming
    /// dequantizer peeks it once per element.
    pub fn outliers(&self) -> OutlierIter<'a> {
        OutlierIter::new(self.sparse, self.block_counts)
    }

    /// Bytes of KV payload: dense nibbles + sparse COO entries + FP16 scales.
    pub fn payload_bytes(&self) -> usize {
        self.dense.len() + self.sparse.len() + SCALE_BYTES
    }
}

/// Bytes the scales are charged per row (4 × FP16).
pub(crate) const SCALE_BYTES: usize = ScaleSet::STORAGE_BITS as usize / 8;

/// Nibble `i` of packed codes, low nibble first.
#[inline(always)]
pub(crate) fn nibble(bytes: &[u8], i: usize) -> u8 {
    (bytes[i / 2] >> (4 * (i % 2))) & 0xF
}

/// Heap bytes a buffer holds: its capacity, not its length.
pub(crate) fn capacity_bytes<T>(buf: &Vec<T>) -> usize {
    buf.capacity() * std::mem::size_of::<T>()
}

/// Everything a run of encoded rows holds beside their dense nibbles: per
/// row its scales, its COO bytes (one log, with each row's end) and its
/// per-block counts — what a store segment cannot rebuild from its own
/// buffers. Rows are appended in order and never rewritten.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct SparseLog {
    /// Row width.
    pub(crate) dim: usize,
    /// Every row's COO bytes, row after row.
    sparse: Vec<u8>,
    /// Where row `i`'s COO bytes end in `sparse`.
    ends: Vec<u32>,
    /// `blocks` counts per row, row after row.
    block_counts: Vec<u8>,
    scales: Vec<ScaleSet>,
}

impl SparseLog {
    /// An empty log of `dim`-wide rows.
    pub(crate) fn new(dim: usize) -> Self {
        Self {
            dim,
            ..Self::default()
        }
    }

    /// Rows logged.
    pub(crate) fn rows(&self) -> usize {
        self.ends.len()
    }

    /// COO blocks per row.
    fn blocks(&self) -> usize {
        self.dim.div_ceil(BLOCK_SIZE)
    }

    /// Payload bytes of the first `rows` rows — dense nibbles, COO bytes
    /// and FP16 scales, what the pool charges for them — off the
    /// cumulative COO ends.
    pub(crate) fn payload_bytes_to(&self, rows: usize) -> usize {
        rows * (self.dim.div_ceil(2) + SCALE_BYTES) + self.sparse_bytes_to(rows)
    }

    /// COO bytes of the first `rows` rows.
    pub(crate) fn sparse_bytes_to(&self, rows: usize) -> usize {
        rows.checked_sub(1)
            .map_or(0, |last| self.ends[last] as usize)
    }

    /// Row `i`'s `(COO bytes, per-block counts, scales)`.
    pub(crate) fn row(&self, i: usize) -> (&[u8], &[u8], ScaleSet) {
        let sparse = self.sparse_bytes_to(i)..self.ends[i] as usize;
        let counts = i * self.blocks()..(i + 1) * self.blocks();
        (
            &self.sparse[sparse],
            &self.block_counts[counts],
            self.scales[i],
        )
    }

    /// Appends one row's sparse parts.
    pub(crate) fn push(&mut self, row: EncodedRow<'_>) {
        assert_eq!(row.dim, self.dim, "row width mismatch");
        self.sparse.extend_from_slice(row.sparse);
        self.end_row();
        self.block_counts.extend_from_slice(row.block_counts);
        self.scales.push(row.scales);
    }

    /// Closes the row whose COO bytes were just appended.
    fn end_row(&mut self) {
        let end = u32::try_from(self.sparse.len()).expect("a COO log stays under 4 GiB");
        self.ends.push(end);
    }

    /// Appends rows `rows` of `other`, a log of rows of the same width
    /// (into empty buffers, each sized to what it takes).
    pub(crate) fn extend_from(&mut self, other: &Self, rows: std::ops::Range<usize>) {
        assert_eq!(other.dim, self.dim, "row width mismatch");
        let (from, to) = (
            other.sparse_bytes_to(rows.start),
            other.sparse_bytes_to(rows.end),
        );
        let base = self.sparse.len();
        self.sparse.extend_from_slice(&other.sparse[from..to]);
        let ends = other.ends[rows.clone()]
            .iter()
            .map(|&e| e as usize - from + base);
        self.ends
            .extend(ends.map(|e| u32::try_from(e).expect("a COO log stays under 4 GiB")));
        let counts = rows.start * self.blocks()..rows.end * self.blocks();
        self.block_counts
            .extend_from_slice(&other.block_counts[counts]);
        self.scales.extend_from_slice(&other.scales[rows]);
    }

    /// Reserves room for exactly `rows` more rows holding `sparse` COO
    /// bytes between them.
    pub(crate) fn reserve_exact(&mut self, rows: usize, sparse: usize) {
        self.sparse.reserve_exact(sparse);
        self.ends.reserve_exact(rows);
        self.block_counts.reserve_exact(rows * self.blocks());
        self.scales.reserve_exact(rows);
    }

    /// Drops every row, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.sparse.clear();
        self.ends.clear();
        self.block_counts.clear();
        self.scales.clear();
    }

    /// Heap bytes the log holds.
    pub(crate) fn held_bytes(&self) -> usize {
        capacity_bytes(&self.sparse)
            + capacity_bytes(&self.ends)
            + capacity_bytes(&self.block_counts)
            + capacity_bytes(&self.scales)
    }
}

/// A run of encoded rows of one width in page form: the dense slab (each
/// row's packed nibbles at a fixed stride) and the `SparseLog` — the
/// bytes the pool charges, plus each row's COO end and f32 scales. Rows
/// leave an [`EncodedStore`](crate::EncodedStore) as copies only in this
/// form: a sealed prefix-trie block holds, per `(layer, kind)`, shared
/// store segments plus only its rows past the last 16-row edge as
/// `PackedRows`, which an adopter pushes into its store, as a
/// tensor-parallel rank does its slice of a row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedRows {
    dense: Vec<u8>,
    log: SparseLog,
}

impl PackedRows {
    /// An empty run of `dim`-wide rows.
    pub fn new(dim: usize) -> Self {
        Self {
            dense: Vec::new(),
            log: SparseLog::new(dim),
        }
    }

    /// An empty run of `dim`-wide rows with room for `rows` rows however
    /// many outliers they carry (one COO byte per element at most), so
    /// what it holds never depends on which rows passed through it.
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        let mut run = Self::new(dim);
        run.reserve_exact(rows, rows * dim);
        run
    }

    /// A one-row run of a `dim`-wide row built from its parts.
    ///
    /// `dense_codes` must contain one 4-bit code per element; `outliers`
    /// must be sorted by ascending index and within `0..dim`.
    ///
    /// # Errors
    ///
    /// Returns [`OakenError::CorruptEncoding`] if `dense_codes.len() != dim`,
    /// any code exceeds 4 bits, outliers are unsorted/duplicated, or an
    /// outlier index is out of range.
    pub fn from_parts(
        dim: usize,
        dense_codes: &[u8],
        outliers: &[CooEntry],
        scales: ScaleSet,
    ) -> Result<Self, OakenError> {
        if dense_codes.len() != dim {
            return Err(OakenError::CorruptEncoding {
                detail: format!("{} dense codes for dimension {dim}", dense_codes.len()),
            });
        }
        // One OR-fold: every code fits 4 bits iff their union does.
        if dense_codes.iter().fold(0, |all, &c| all | c) > 0xF {
            return Err(OakenError::CorruptEncoding {
                detail: "dense code exceeds 4 bits".to_owned(),
            });
        }
        let mut run = Self::new(dim);
        run.push_with(scales, |dense, sparse, block_counts| {
            for (byte, pair) in dense.iter_mut().zip(dense_codes.chunks(2)) {
                *byte = pair.iter().rev().fold(0, |b, &c| b << 4 | c);
            }
            let mut prev: Option<usize> = None;
            for entry in outliers {
                if entry.index >= dim {
                    return Err(OakenError::CorruptEncoding {
                        detail: format!("outlier index {} out of range {dim}", entry.index),
                    });
                }
                if prev.is_some_and(|p| entry.index <= p) {
                    return Err(OakenError::CorruptEncoding {
                        detail: "outlier indices must be strictly increasing".to_owned(),
                    });
                }
                prev = Some(entry.index);
                let offset = (entry.index % BLOCK_SIZE) as u8;
                sparse.push(CooEntry::pack(offset, entry.group, entry.high_side));
                block_counts[entry.index / BLOCK_SIZE] += 1;
            }
            Ok(())
        })?;
        Ok(run)
    }

    /// Drops every row, keeping the buffers.
    pub fn clear(&mut self) {
        self.dense.clear();
        self.log.clear();
    }

    /// Row width.
    pub fn dim(&self) -> usize {
        self.log.dim
    }

    /// Rows held.
    pub fn rows(&self) -> usize {
        self.log.rows()
    }

    /// Bytes per row of the dense slab.
    pub(crate) fn dense_stride(&self) -> usize {
        self.dim().div_ceil(2)
    }

    /// The rows' sparse parts.
    pub(crate) fn log(&self) -> &SparseLog {
        &self.log
    }

    /// Appends one row of `scales` written by `fill`, which is handed the
    /// row's zeroed dense bytes, the log's COO bytes to push the row's
    /// onto, and its zeroed per-block counts — the quantizer's pass 2
    /// writing page form in place. Returns what `fill` returns.
    #[inline(always)]
    pub(crate) fn push_with<R>(
        &mut self,
        scales: ScaleSet,
        fill: impl FnOnce(&mut [u8], &mut Vec<u8>, &mut [u8]) -> R,
    ) -> R {
        let (at, stride) = (self.dense.len(), self.dense_stride());
        self.dense.resize(at + stride, 0);
        let log = &mut self.log;
        let counts_at = log.block_counts.len();
        log.block_counts.resize(counts_at + log.blocks(), 0);
        let out = fill(
            &mut self.dense[at..],
            &mut log.sparse,
            &mut log.block_counts[counts_at..],
        );
        log.end_row();
        log.scales.push(scales);
        out
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`.
    pub fn row(&self, i: usize) -> EncodedRow<'_> {
        let stride = self.dense_stride();
        let (sparse, block_counts, scales) = self.log.row(i);
        EncodedRow {
            dim: self.dim(),
            dense: &self.dense[i * stride..(i + 1) * stride],
            sparse,
            block_counts,
            scales,
        }
    }

    /// The rows in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = EncodedRow<'_>> + '_ {
        (0..self.rows()).map(|i| self.row(i))
    }

    /// Appends a copy of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `dim()` wide.
    pub fn push(&mut self, row: EncodedRow<'_>) {
        assert_eq!(row.dim, self.dim(), "row width mismatch");
        self.dense.extend_from_slice(row.dense);
        self.log.push(row);
    }

    /// Appends channels `range` of `row` as one `dim()`-wide row: a
    /// tensor-parallel rank's share of a row encoded once at full width.
    /// Dense codes are re-packed from the range's origin; COO entries
    /// inside it are re-based and re-bucketed into blocks (the range need
    /// not be block-aligned); the scales travel unchanged. Because Oaken's
    /// scales are whole-row min/max reductions and every element decodes
    /// as a pure function of its own code, outlier entry and the shared
    /// scales, decoding the slice is **bit-identical** to slicing the full
    /// row's decode: quantize once, shard the encoding, and every rank
    /// reconstructs the values the unsharded cache would.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not `dim()` long or exceeds `row`.
    pub fn push_channels(&mut self, row: EncodedRow<'_>, range: std::ops::Range<usize>) {
        assert!(range.end <= row.dim, "channel slice past the row");
        assert_eq!(range.len(), self.dim(), "row width mismatch");
        let at = self.dense.len();
        self.dense.resize(at + self.dense_stride(), 0);
        for (j, i) in range.clone().enumerate() {
            self.dense[at + j / 2] |= row.dense_code(i) << (4 * (j % 2));
        }
        let log = &mut self.log;
        let counts_at = log.block_counts.len();
        log.block_counts.resize(counts_at + log.blocks(), 0);
        let inside = row.outliers().skip_while(|e| e.index < range.start);
        for e in inside.take_while(|e| e.index < range.end) {
            let j = e.index - range.start;
            (log.sparse).push(CooEntry::pack((j % BLOCK_SIZE) as u8, e.group, e.high_side));
            log.block_counts[counts_at + j / BLOCK_SIZE] += 1;
        }
        log.end_row();
        log.scales.push(row.scales);
    }

    /// Reserves room for exactly `rows` more rows holding `sparse` COO
    /// bytes between them.
    pub(crate) fn reserve_exact(&mut self, rows: usize, sparse: usize) {
        self.dense.reserve_exact(rows * self.dense_stride());
        self.log.reserve_exact(rows, sparse);
    }

    /// Appends dense bytes for `rows` rows through `fill` (handed the
    /// zeroed slab of exactly those rows) and rows `rows` of `log`.
    pub(crate) fn extend(
        &mut self,
        log: &SparseLog,
        rows: std::ops::Range<usize>,
        fill: impl FnOnce(&mut [u8]),
    ) {
        assert_eq!(log.dim, self.dim(), "row width mismatch");
        let at = self.dense.len();
        self.dense.resize(at + rows.len() * self.dense_stride(), 0);
        fill(&mut self.dense[at..]);
        self.log.extend_from(log, rows);
    }

    /// Bytes of KV payload: every row's dense nibbles, COO entries and
    /// FP16 scales.
    pub fn payload_bytes(&self) -> usize {
        self.log.payload_bytes_to(self.rows())
    }

    /// Heap bytes the run holds.
    pub fn held_bytes(&self) -> usize {
        capacity_bytes(&self.dense) + self.log.held_bytes()
    }
}

/// Allocation-free iterator over an encoded row's COO entries in
/// ascending index order, or descending from the back. Created by
/// [`EncodedRow::outliers`].
#[derive(Debug, Clone)]
pub struct OutlierIter<'a> {
    sparse: &'a [u8],
    block_counts: &'a [u8],
    /// Next byte to read from the sparse stream.
    cursor: usize,
    /// Block the next entry belongs to.
    block: usize,
    /// Entries remaining in the current block.
    left_in_block: u8,
    /// One past the last byte left: the next byte read from the back is
    /// `end - 1`.
    end: usize,
    /// Block the last entry left belongs to, and its entries left from
    /// the back.
    back_block: usize,
    left_in_back_block: u8,
}

impl<'a> OutlierIter<'a> {
    /// The entries of `sparse`, attributed to blocks by `block_counts`.
    pub(crate) fn new(sparse: &'a [u8], block_counts: &'a [u8]) -> Self {
        Self {
            sparse,
            block_counts,
            cursor: 0,
            block: 0,
            left_in_block: block_counts.first().copied().unwrap_or(0),
            end: sparse.len(),
            back_block: block_counts.len().saturating_sub(1),
            left_in_back_block: block_counts.last().copied().unwrap_or(0),
        }
    }
}

impl Iterator for OutlierIter<'_> {
    type Item = CooEntry;

    fn next(&mut self) -> Option<CooEntry> {
        if self.cursor == self.end {
            return None;
        }
        while self.left_in_block == 0 {
            self.block += 1;
            self.left_in_block = *self.block_counts.get(self.block)?;
        }
        let byte = self.sparse[self.cursor];
        self.cursor += 1;
        self.left_in_block -= 1;
        Some(CooEntry::unpack(byte, self.block))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end - self.cursor;
        (left, Some(left))
    }
}

impl DoubleEndedIterator for OutlierIter<'_> {
    fn next_back(&mut self) -> Option<CooEntry> {
        if self.cursor == self.end {
            return None;
        }
        while self.left_in_back_block == 0 {
            self.back_block -= 1;
            self.left_in_back_block = self.block_counts[self.back_block];
        }
        self.end -= 1;
        self.left_in_back_block -= 1;
        Some(CooEntry::unpack(self.sparse[self.end], self.back_block))
    }
}

impl ExactSizeIterator for OutlierIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(index: usize, group: GroupKind, high: bool) -> CooEntry {
        CooEntry {
            index,
            group,
            high_side: high,
        }
    }

    #[test]
    fn coo_pack_unpack_roundtrip() {
        for offset in [0u8, 1, 17, 63] {
            for group in [GroupKind::Inner, GroupKind::Outer] {
                for high in [false, true] {
                    let b = CooEntry::pack(offset, group, high);
                    let e = CooEntry::unpack(b, 3);
                    assert_eq!(e.index, 3 * 64 + offset as usize);
                    assert_eq!(e.group, group);
                    assert_eq!(e.high_side, high);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "COO offset past its block")]
    fn pack_rejects_an_offset_past_the_block() {
        CooEntry::pack(64, GroupKind::Outer, true);
    }

    #[test]
    fn from_parts_validates() {
        let scales = ScaleSet::default();
        // Wrong dense length.
        assert!(PackedRows::from_parts(4, &[1, 2, 3], &[], scales).is_err());
        // Code too wide.
        assert!(PackedRows::from_parts(2, &[16, 0], &[], scales).is_err());
        // Out-of-range outlier.
        assert!(
            PackedRows::from_parts(2, &[0, 0], &[entry(5, GroupKind::Outer, true)], scales)
                .is_err()
        );
        // Unsorted outliers.
        assert!(PackedRows::from_parts(
            8,
            &[0; 8],
            &[
                entry(3, GroupKind::Inner, false),
                entry(1, GroupKind::Outer, true)
            ],
            scales
        )
        .is_err());
    }

    #[test]
    fn dense_nibble_roundtrip() {
        let codes: Vec<u8> = (0..9).map(|i| (i * 3) % 16).collect();
        let run = PackedRows::from_parts(9, &codes, &[], ScaleSet::default()).unwrap();
        let row = run.row(0);
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(row.dense_code(i), c, "element {i}");
        }
        assert_eq!(row.dense_bytes().len(), 5); // ceil(9/2)
    }

    #[test]
    fn outlier_decode_across_blocks() {
        let dim = 200; // blocks of 64 → 4 blocks
        let codes = vec![0u8; dim];
        let outs = vec![
            entry(0, GroupKind::Inner, true),
            entry(63, GroupKind::Outer, false),
            entry(64, GroupKind::Outer, true),
            entry(130, GroupKind::Inner, false),
            entry(199, GroupKind::Outer, true),
        ];
        let run = PackedRows::from_parts(dim, &codes, &outs, ScaleSet::default()).unwrap();
        assert_eq!(run.row(0).block_counts(), &[2, 1, 1, 1]);
        assert_eq!(run.row(0).outliers().collect::<Vec<_>>(), outs);
    }

    #[test]
    fn outlier_iterator_matches_decode_and_reports_len() {
        let dim = 300;
        let codes = vec![0u8; dim];
        let outs: Vec<CooEntry> = [1usize, 63, 64, 65, 190, 299]
            .iter()
            .map(|&i| entry(i, GroupKind::Outer, i % 2 == 0))
            .collect();
        let run = PackedRows::from_parts(dim, &codes, &outs, ScaleSet::default()).unwrap();
        let fv = run.row(0);
        let it = fv.outliers();
        assert_eq!(it.len(), outs.len());
        assert_eq!(it.collect::<Vec<_>>(), outs);
        // From the back, and from both ends until they meet.
        let back: Vec<_> = fv.outliers().rev().collect();
        assert!(back.iter().eq(outs.iter().rev()));
        let mut it = fv.outliers();
        let (first, last) = (it.next(), it.next_back());
        assert_eq!((first, last), (Some(outs[0]), Some(outs[5])));
        assert_eq!(it.len(), 4);
        assert_eq!(it.collect::<Vec<_>>(), outs[1..5]);
        // Empty stream iterates to nothing.
        let run = PackedRows::from_parts(dim, &codes, &[], ScaleSet::default()).unwrap();
        assert_eq!(run.row(0).outliers().count(), 0);
    }

    #[test]
    fn capacity_accounting() {
        let dim = 128;
        let codes = vec![0u8; dim];
        let outs: Vec<CooEntry> = (0..13)
            .map(|i| entry(i * 9, GroupKind::Outer, true))
            .collect();
        let run = PackedRows::from_parts(dim, &codes, &outs, ScaleSet::default()).unwrap();
        let fv = run.row(0);
        assert_eq!(fv.payload_bytes(), 64 + 13 + 8);
        assert_eq!(run.payload_bytes(), fv.payload_bytes());
        assert_eq!(fv.block_counts().len(), 2);
        // ~10% outliers → effective bits ≈ 4 + 0.8 + 0.5 (scales over 128)
        let eb = fv.payload_bytes() as f64 * 8.0 / dim as f64;
        assert!(eb > 4.7 && eb < 5.4, "{eb}");
    }

    #[test]
    fn empty_vector_is_legal() {
        let run = PackedRows::from_parts(0, &[], &[], ScaleSet::default()).unwrap();
        assert_eq!((run.dim(), run.rows()), (0, 1));
        assert_eq!(run.row(0).outliers().count(), 0);
    }
}
