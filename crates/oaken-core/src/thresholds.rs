//! Outlier thresholds: the *offline* half of Oaken's hybrid scheme.
//!
//! Four thresholds per (layer, key|value) tensor partition the real line
//! into the three quantization groups of paper Eq. 1:
//!
//! ```text
//!   outer      middle      inner      middle      outer
//! ────────┬───────────┬───────────┬───────────┬────────→ x
//!      outer_lo    inner_lo    inner_hi    outer_hi
//! ```

use crate::error::OakenError;
use serde::{Deserialize, Serialize};

/// Whether a tensor holds attention keys or values.
///
/// The paper profiles keys and values separately because their distributions
/// differ (Figure 6 shows distinct ranges for keys and values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KvKind {
    /// Attention keys.
    Key,
    /// Attention values.
    Value,
}

impl KvKind {
    /// Both kinds, for iteration.
    pub const ALL: [KvKind; 2] = [KvKind::Key, KvKind::Value];
}

/// The four group thresholds of Eq. 1: `T_o_lo, T_i_lo, T_i_hi, T_o_hi`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Thresholds {
    /// Lower outer threshold `T_o_lo`; values below are outer outliers.
    pub outer_lo: f32,
    /// Lower inner threshold `T_i_lo`.
    pub inner_lo: f32,
    /// Upper inner threshold `T_i_hi`; values in `[inner_lo, inner_hi]` are
    /// inner (near-zero) outliers.
    pub inner_hi: f32,
    /// Upper outer threshold `T_o_hi`; values above are outer outliers.
    pub outer_hi: f32,
}

impl Thresholds {
    /// Creates a threshold set, validating the ordering invariant
    /// `outer_lo <= inner_lo <= inner_hi <= outer_hi`.
    ///
    /// # Errors
    ///
    /// Returns [`OakenError::InvalidThresholds`] when the ordering is violated
    /// or any threshold is not finite.
    pub fn new(
        outer_lo: f32,
        inner_lo: f32,
        inner_hi: f32,
        outer_hi: f32,
    ) -> Result<Self, OakenError> {
        let t = Self {
            outer_lo,
            inner_lo,
            inner_hi,
            outer_hi,
        };
        t.validate()?;
        Ok(t)
    }

    /// Checks the ordering invariant.
    ///
    /// # Errors
    ///
    /// Returns [`OakenError::InvalidThresholds`] on violation.
    pub fn validate(&self) -> Result<(), OakenError> {
        let vals = [self.outer_lo, self.inner_lo, self.inner_hi, self.outer_hi];
        if vals.iter().any(|v| !v.is_finite()) {
            return Err(OakenError::InvalidThresholds {
                detail: format!("non-finite threshold in {vals:?}"),
            });
        }
        if !(self.outer_lo <= self.inner_lo
            && self.inner_lo <= self.inner_hi
            && self.inner_hi <= self.outer_hi)
        {
            return Err(OakenError::InvalidThresholds {
                detail: format!(
                    "expected outer_lo <= inner_lo <= inner_hi <= outer_hi, got {:?}",
                    vals
                ),
            });
        }
        Ok(())
    }

    /// A permissive threshold set that classifies everything as middle
    /// except exact zeros; useful as a neutral default in tests.
    pub fn wide(limit: f32) -> Self {
        Self {
            outer_lo: -limit,
            inner_lo: 0.0,
            inner_hi: 0.0,
            outer_hi: limit,
        }
    }
}

/// Per-layer thresholds for keys and values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerThresholds {
    /// Thresholds for the key cache of this layer.
    pub key: Thresholds,
    /// Thresholds for the value cache of this layer.
    pub value: Thresholds,
}

impl LayerThresholds {
    /// Returns the thresholds for the requested tensor kind.
    pub fn for_kind(&self, kind: KvKind) -> &Thresholds {
        match kind {
            KvKind::Key => &self.key,
            KvKind::Value => &self.value,
        }
    }
}

/// Offline-profiled thresholds for every decoder layer of one model.
///
/// Observation 1 of §4.1: thresholds must be per-model and per-layer.
/// Observation 2: they need *not* be per-input, so this structure is
/// computed once offline and reused for all future requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ModelThresholds {
    layers: Vec<LayerThresholds>,
}

impl ModelThresholds {
    /// Creates a threshold table from per-layer entries.
    pub fn from_layers(layers: Vec<LayerThresholds>) -> Self {
        Self { layers }
    }

    /// Number of profiled layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Looks up thresholds for `(layer, kind)`.
    ///
    /// # Errors
    ///
    /// Returns [`OakenError::LayerOutOfRange`] for an invalid layer index.
    pub fn get(&self, layer: usize, kind: KvKind) -> Result<&Thresholds, OakenError> {
        self.layers
            .get(layer)
            .map(|lt| lt.for_kind(kind))
            .ok_or(OakenError::LayerOutOfRange {
                layer,
                layers: self.layers.len(),
            })
    }

    /// Iterates over `(layer_index, &LayerThresholds)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &LayerThresholds)> {
        self.layers.iter().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_invariant_enforced() {
        assert!(Thresholds::new(-4.0, -0.1, 0.1, 4.0).is_ok());
        assert!(Thresholds::new(4.0, -0.1, 0.1, -4.0).is_err());
        assert!(Thresholds::new(-4.0, 0.2, 0.1, 4.0).is_err());
        assert!(Thresholds::new(f32::NAN, -0.1, 0.1, 4.0).is_err());
    }

    #[test]
    fn wide_classifies_all_as_valid() {
        let t = Thresholds::wide(100.0);
        assert!(t.validate().is_ok());
        assert_eq!(t.outer_hi, 100.0);
    }

    #[test]
    fn model_thresholds_lookup() {
        let lt = LayerThresholds {
            key: Thresholds::wide(1.0),
            value: Thresholds::wide(2.0),
        };
        let mt = ModelThresholds::from_layers(vec![lt; 3]);
        assert_eq!(mt.num_layers(), 3);
        assert_eq!(mt.get(2, KvKind::Value).unwrap().outer_hi, 2.0);
        assert_eq!(mt.get(1, KvKind::Key).unwrap().outer_hi, 1.0);
        assert!(matches!(
            mt.get(3, KvKind::Key),
            Err(OakenError::LayerOutOfRange {
                layer: 3,
                layers: 3
            })
        ));
    }
}
