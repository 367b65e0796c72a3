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
const BLOCK_SIZE: usize = 64;

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

/// A fused dense-and-sparse encoded vector: the unit the quantization engine
/// writes to memory and the MMU lays out in pages.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedVector {
    dim: usize,
    /// Packed 4-bit codes, element `i` in nibble `i` (low nibble first).
    dense: Vec<u8>,
    /// Packed COO entries ordered by ascending element index.
    sparse: Vec<u8>,
    /// Outliers per 64-element block; the sparse management table's
    /// transfer-size information.
    block_counts: Vec<u8>,
    /// Per-vector scales.
    scales: ScaleSet,
}

impl FusedVector {
    /// Builds an encoded vector from its parts.
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
        let num_blocks = dim.div_ceil(BLOCK_SIZE);
        let (pairs, odd) = dense_codes.as_chunks::<2>();
        let mut dense = Vec::with_capacity(dim.div_ceil(2));
        dense.extend(pairs.iter().map(|&[lo, hi]| lo | hi << 4));
        dense.extend_from_slice(odd);
        let mut sparse = Vec::with_capacity(outliers.len());
        let mut block_counts = vec![0u8; num_blocks];
        let mut prev: Option<usize> = None;
        for entry in outliers {
            if entry.index >= dim {
                return Err(OakenError::CorruptEncoding {
                    detail: format!("outlier index {} out of range {dim}", entry.index),
                });
            }
            if let Some(p) = prev {
                if entry.index <= p {
                    return Err(OakenError::CorruptEncoding {
                        detail: "outlier indices must be strictly increasing".to_owned(),
                    });
                }
            }
            prev = Some(entry.index);
            let block = entry.index / BLOCK_SIZE;
            let offset = (entry.index % BLOCK_SIZE) as u8;
            sparse.push(CooEntry::pack(offset, entry.group, entry.high_side));
            block_counts[block] += 1;
        }
        Ok(Self {
            dim,
            dense,
            sparse,
            block_counts,
            scales,
        })
    }

    /// Vector dimension (element count).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The per-vector scales.
    pub fn scales(&self) -> &ScaleSet {
        &self.scales
    }

    /// Number of outliers in the sparse stream.
    pub fn num_outliers(&self) -> usize {
        self.sparse.len()
    }

    /// Reads the 4-bit dense code of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim()`.
    pub fn dense_code(&self, i: usize) -> u8 {
        assert!(i < self.dim, "element {i} out of range {}", self.dim);
        let byte = self.dense[i / 2];
        if i.is_multiple_of(2) {
            byte & 0xF
        } else {
            byte >> 4
        }
    }

    /// The raw packed dense nibble buffer.
    pub fn dense_bytes(&self) -> &[u8] {
        &self.dense
    }

    /// The raw packed COO buffer.
    pub fn sparse_bytes(&self) -> &[u8] {
        &self.sparse
    }

    /// Per-block outlier counts (the sparse table's transfer sizes).
    pub fn block_counts(&self) -> &[u8] {
        &self.block_counts
    }

    /// Streams the COO entries in ascending index order without allocating,
    /// using the per-block counts to attribute bytes to blocks — exactly the
    /// zero-insert walk the dequantization engine performs (§5.2 "outlier
    /// dequantizer"). This is the decode hot path: the streaming
    /// dequantizer peeks it once per element.
    pub fn outliers(&self) -> OutlierIter<'_> {
        OutlierIter {
            fv: self,
            cursor: 0,
            block: 0,
            left_in_block: self.block_counts.first().copied().unwrap_or(0),
        }
    }

    /// Bytes of KV payload: dense nibbles + sparse COO entries + FP16 scales.
    pub fn payload_bytes(&self) -> usize {
        self.dense.len() + self.sparse.len() + (ScaleSet::STORAGE_BITS as usize / 8)
    }

    /// Bytes of MMU-side metadata (per-block transfer sizes). Reported
    /// separately because the paper accounts management tables to the MMU,
    /// not to the effective bitwidth.
    pub fn table_bytes(&self) -> usize {
        self.block_counts.len()
    }

    /// Mean stored bits per element, the paper's "effective bitwidth":
    /// `(dense + sparse + scales) × 8 / dim`.
    pub fn effective_bits(&self) -> f64 {
        self.payload_bytes() as f64 * 8.0 / self.dim.max(1) as f64
    }

    /// Extracts the encoding of a contiguous channel range as a standalone
    /// vector of dimension `range.len()` — the unit a tensor-parallel rank
    /// stores for its KV-head slice.
    ///
    /// Dense codes are positional and copy over directly; COO outliers are
    /// rebased to the new origin and re-bucketed into blocks (the range
    /// need not be block-aligned); the [`ScaleSet`] travels unchanged.
    /// Because Oaken's scales are whole-row min/max reductions and every
    /// element decodes as a pure function of its own code, outlier entry,
    /// and the shared scales, dequantizing the slice is **bit-identical**
    /// to slicing the full dequantization — quantize once, shard the
    /// encoding, and every rank reconstructs the same values the unsharded
    /// cache would.
    ///
    /// # Errors
    ///
    /// Returns [`OakenError::CorruptEncoding`] if the range exceeds the
    /// vector's dimension.
    pub fn slice_channels(&self, range: std::ops::Range<usize>) -> Result<Self, OakenError> {
        if range.start > range.end || range.end > self.dim {
            return Err(OakenError::CorruptEncoding {
                detail: format!(
                    "channel slice {}..{} out of range for dimension {}",
                    range.start, range.end, self.dim
                ),
            });
        }
        let codes: Vec<u8> = range.clone().map(|i| self.dense_code(i)).collect();
        let outliers: Vec<CooEntry> = self
            .outliers()
            .skip_while(|e| e.index < range.start)
            .take_while(|e| e.index < range.end)
            .map(|mut e| {
                e.index -= range.start;
                e
            })
            .collect();
        Self::from_parts(range.len(), &codes, &outliers, self.scales)
    }
}

/// Allocation-free iterator over a [`FusedVector`]'s COO entries in
/// ascending index order. Created by [`FusedVector::outliers`].
#[derive(Debug, Clone)]
pub struct OutlierIter<'a> {
    fv: &'a FusedVector,
    /// Next byte to read from the sparse stream.
    cursor: usize,
    /// Block the next entry belongs to.
    block: usize,
    /// Entries remaining in the current block.
    left_in_block: u8,
}

impl Iterator for OutlierIter<'_> {
    type Item = CooEntry;

    fn next(&mut self) -> Option<CooEntry> {
        while self.left_in_block == 0 {
            self.block += 1;
            self.left_in_block = *self.fv.block_counts.get(self.block)?;
        }
        let byte = self.fv.sparse[self.cursor];
        self.cursor += 1;
        self.left_in_block -= 1;
        Some(CooEntry::unpack(byte, self.block))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.fv.sparse.len() - self.cursor;
        (left, Some(left))
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
        assert!(FusedVector::from_parts(4, &[1, 2, 3], &[], scales).is_err());
        // Code too wide.
        assert!(FusedVector::from_parts(2, &[16, 0], &[], scales).is_err());
        // Out-of-range outlier.
        assert!(
            FusedVector::from_parts(2, &[0, 0], &[entry(5, GroupKind::Outer, true)], scales)
                .is_err()
        );
        // Unsorted outliers.
        assert!(FusedVector::from_parts(
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
        let fv = FusedVector::from_parts(9, &codes, &[], ScaleSet::default()).unwrap();
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(fv.dense_code(i), c, "element {i}");
        }
        assert_eq!(fv.dense_bytes().len(), 5); // ceil(9/2)
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
        let fv = FusedVector::from_parts(dim, &codes, &outs, ScaleSet::default()).unwrap();
        assert_eq!(fv.block_counts(), &[2, 1, 1, 1]);
        assert_eq!(fv.outliers().collect::<Vec<_>>(), outs);
    }

    #[test]
    fn outlier_iterator_matches_decode_and_reports_len() {
        let dim = 300;
        let codes = vec![0u8; dim];
        let outs: Vec<CooEntry> = [1usize, 63, 64, 65, 190, 299]
            .iter()
            .map(|&i| entry(i, GroupKind::Outer, i % 2 == 0))
            .collect();
        let fv = FusedVector::from_parts(dim, &codes, &outs, ScaleSet::default()).unwrap();
        let it = fv.outliers();
        assert_eq!(it.len(), outs.len());
        assert_eq!(it.collect::<Vec<_>>(), outs);
        // Empty stream iterates to nothing.
        let fv = FusedVector::from_parts(dim, &codes, &[], ScaleSet::default()).unwrap();
        assert_eq!(fv.outliers().count(), 0);
    }

    #[test]
    fn capacity_accounting() {
        let dim = 128;
        let codes = vec![0u8; dim];
        let outs: Vec<CooEntry> = (0..13)
            .map(|i| entry(i * 9, GroupKind::Outer, true))
            .collect();
        let fv = FusedVector::from_parts(dim, &codes, &outs, ScaleSet::default()).unwrap();
        assert_eq!(fv.payload_bytes(), 64 + 13 + 8);
        assert_eq!(fv.table_bytes(), 2);
        // ~10% outliers → effective bits ≈ 4 + 0.8 + 0.5 (scales over 128)
        let eb = fv.effective_bits();
        assert!(eb > 4.7 && eb < 5.4, "{eb}");
    }

    #[test]
    fn empty_vector_is_legal() {
        let fv = FusedVector::from_parts(0, &[], &[], ScaleSet::default()).unwrap();
        assert_eq!(fv.dim(), 0);
        assert_eq!(fv.outliers().count(), 0);
    }
}
