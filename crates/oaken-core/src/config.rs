//! Configuration of the hybrid quantizer: group ratios and bit-widths.

use crate::error::OakenError;
use serde::{Deserialize, Serialize};

/// Target fractions of values assigned to the outer / middle / inner groups.
///
/// The paper fixes a global configuration of **4% outer, 90% middle, 6%
/// inner** for all models and datasets (§6.1 "Thresholds"), justified by the
/// observation that the KV distribution is input-independent and the optimal
/// ratio varies only marginally across LLMs. Figure 12(a) sweeps this space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupRatios {
    /// Fraction of large-magnitude outliers (split across both tails).
    pub outer: f64,
    /// Fraction of inliers.
    pub middle: f64,
    /// Fraction of near-zero outliers.
    pub inner: f64,
}

impl GroupRatios {
    /// Creates a ratio set, validating positivity and that it sums to one.
    ///
    /// # Errors
    ///
    /// Returns [`OakenError::InvalidRatios`] if any ratio is negative, the
    /// middle ratio is zero, or the ratios do not sum to 1 (±1e-6).
    pub fn new(outer: f64, middle: f64, inner: f64) -> Result<Self, OakenError> {
        let sum = outer + middle + inner;
        if outer < 0.0 || inner < 0.0 || middle <= 0.0 || (sum - 1.0).abs() > 1e-6 {
            return Err(OakenError::InvalidRatios {
                outer,
                middle,
                inner,
            });
        }
        Ok(Self {
            outer,
            middle,
            inner,
        })
    }

    /// The paper's evaluation configuration: 4% / 90% / 6%.
    pub fn paper_default() -> Self {
        Self {
            outer: 0.04,
            middle: 0.90,
            inner: 0.06,
        }
    }

    /// Total outlier fraction (outer + inner), which determines the sparse
    /// storage overhead and therefore the effective bitwidth.
    pub fn outlier_fraction(&self) -> f64 {
        self.outer + self.inner
    }
}

impl Default for GroupRatios {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Bit-widths used by the quantizer.
///
/// Oaken quantizes the middle group to 4 bits and the inner/outer groups to
/// 5 bits (§4.4), where the 5th outlier bit is the sign/side bit stored in
/// the COO entry and the 4 magnitude bits are fused into the dense matrix
/// (§4.5). Table 3 ablates a 4-bit outlier variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitWidths {
    /// Bits for the dense middle-group codes.
    pub middle: u8,
    /// Magnitude bits for outlier codes (sign bit is stored separately in
    /// the COO entry, so the total outlier precision is `outlier_mag + 1`).
    pub outlier_mag: u8,
}

impl BitWidths {
    /// The paper's configuration: 4-bit middle, 5-bit (1+4) outliers.
    pub fn paper_default() -> Self {
        Self {
            middle: 4,
            outlier_mag: 4,
        }
    }

    /// Validates that both widths are in `1..=8`.
    ///
    /// # Errors
    ///
    /// Returns [`OakenError::UnsupportedBitWidth`] otherwise.
    pub fn validate(&self) -> Result<(), OakenError> {
        for bits in [self.middle, self.outlier_mag] {
            if bits == 0 || bits > 8 {
                return Err(OakenError::UnsupportedBitWidth { bits });
            }
        }
        Ok(())
    }

    /// Total bits carried per outlier entry in the fused encoding:
    /// 6 index bits + 1 group bit + 1 sign bit (the magnitude rides in the
    /// dense slot that was already paid for).
    pub fn sparse_entry_bits(&self) -> u32 {
        8
    }
}

impl Default for BitWidths {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Complete configuration of the Oaken quantization pipeline; the default
/// is the paper's.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OakenConfig {
    /// Target group ratios (drives offline threshold profiling).
    pub ratios: GroupRatios,
    /// Quantization bit-widths.
    pub bits: BitWidths,
}

impl OakenConfig {
    /// Creates a validated configuration.
    ///
    /// # Errors
    ///
    /// Propagates ratio and bit-width validation failures.
    pub fn new(ratios: GroupRatios, bits: BitWidths) -> Result<Self, OakenError> {
        bits.validate()?;
        GroupRatios::new(ratios.outer, ratios.middle, ratios.inner)?;
        Ok(Self { ratios, bits })
    }

    /// Predicted effective bits per element for dimension `d`, before
    /// observing data: `middle_bits + outlier_fraction × 8 + scales/d`.
    ///
    /// With the paper defaults (10% outliers) and large `d` this evaluates to
    /// ≈ 4.8 bits, matching Table 2's "Effective Bitwidth" row for Oaken.
    pub fn predicted_effective_bits(&self, d: usize) -> f64 {
        let scale_bits = ScaleOverhead::BITS_PER_VECTOR as f64;
        f64::from(self.bits.middle)
            + self.ratios.outlier_fraction() * f64::from(self.bits.sparse_entry_bits())
            + scale_bits / d.max(1) as f64
    }
}

/// Storage overhead of the per-vector scale metadata.
///
/// Oaken stores four scale values per token vector (middle min/max, inner
/// magnitude, outer magnitude) as FP16, i.e. 64 bits per vector.
pub(crate) struct ScaleOverhead;

impl ScaleOverhead {
    pub(crate) const BITS_PER_VECTOR: u32 = 64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_are_valid() {
        let c = OakenConfig::default();
        assert_eq!(c.ratios.outer, 0.04);
        assert_eq!(c.ratios.middle, 0.90);
        assert_eq!(c.ratios.inner, 0.06);
        assert_eq!(c.bits.middle, 4);
        assert_eq!(c.bits.outlier_mag, 4);
        assert!(OakenConfig::new(c.ratios, c.bits).is_ok());
    }

    #[test]
    fn ratios_must_sum_to_one() {
        assert!(GroupRatios::new(0.1, 0.8, 0.1).is_ok());
        assert!(GroupRatios::new(0.2, 0.9, 0.1).is_err());
        assert!(GroupRatios::new(-0.1, 1.0, 0.1).is_err());
        assert!(GroupRatios::new(0.5, 0.0, 0.5).is_err());
    }

    #[test]
    fn outlier_fraction_adds_tails() {
        let r = GroupRatios::paper_default();
        assert!((r.outlier_fraction() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn bitwidths_validated() {
        assert!(BitWidths {
            middle: 4,
            outlier_mag: 4
        }
        .validate()
        .is_ok());
        assert!(BitWidths {
            middle: 0,
            outlier_mag: 4
        }
        .validate()
        .is_err());
        assert!(BitWidths {
            middle: 4,
            outlier_mag: 9
        }
        .validate()
        .is_err());
    }

    #[test]
    fn effective_bits_match_paper() {
        let c = OakenConfig::default();
        // 4 + 0.10*8 + 64/4096 = 4.8156...
        let eb = c.predicted_effective_bits(4096);
        assert!((eb - 4.8156).abs() < 1e-3, "{eb}");
    }
}
