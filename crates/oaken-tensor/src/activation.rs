//! Activation functions used by the transformer substrate.
//!
//! Llama2/Mistral/Mixtral use SwiGLU (SiLU-gated) feed-forward networks;
//! OPT uses ReLU. GELU is provided for completeness with encoder-style
//! models.

use crate::exp::{exp, exp_map, ExpOf};

/// Sigmoid Linear Unit, `x * sigmoid(x)`, computed as `x / (1 + exp(−x))`
/// through [`exp`](crate::exp()).
pub fn silu(x: f32) -> f32 {
    x / (1.0 + exp(-x))
}

/// Rectified Linear Unit.
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Gaussian Error Linear Unit (tanh approximation).
pub fn gelu(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)).tanh())
}

/// Which activation a feed-forward network uses.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum Activation {
    /// SiLU-gated (SwiGLU) — Llama2, Mistral, Mixtral.
    #[default]
    Silu,
    /// ReLU — OPT.
    Relu,
    /// GELU — encoder-style transformers.
    Gelu,
}

impl Activation {
    /// Applies the activation to a single value.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Silu => silu(x),
            Activation::Relu => relu(x),
            Activation::Gelu => gelu(x),
        }
    }

    /// Applies the activation to every element of a slice in place, SiLU
    /// on the `exp` lane (elementwise, so the bits are [`silu`]'s).
    pub fn apply_in_place(self, xs: &mut [f32]) {
        if self == Activation::Silu {
            return exp_map(xs, ExpOf::Silu);
        }
        for x in xs {
            *x = self.apply(*x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::tests::{edge_inputs, same};

    #[test]
    fn silu_known_points() {
        assert_eq!(silu(0.0), 0.0);
        assert!((silu(1.0) - 0.731_058_6).abs() < 1e-5);
        assert!(silu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn relu_clamps_negative() {
        assert_eq!(relu(-1.0), 0.0);
        assert_eq!(relu(2.5), 2.5);
    }

    #[test]
    fn gelu_is_monotone_near_origin() {
        assert!(gelu(1.0) > gelu(0.0));
        assert!(gelu(0.0) > gelu(-1.0));
        assert!(gelu(0.0).abs() < 1e-6);
    }

    #[test]
    fn activation_dispatch() {
        let mut v = vec![-1.0, 0.0, 1.0];
        Activation::Relu.apply_in_place(&mut v);
        assert_eq!(v, vec![0.0, 0.0, 1.0]);
        assert_eq!(Activation::Silu.apply(0.0), 0.0);
        assert_eq!(Activation::default(), Activation::Silu);
    }

    /// `apply_in_place(Silu)` is [`silu`] element for element, at every
    /// tail width.
    #[test]
    fn silu_in_place_matches_silu() {
        let mut xs = edge_inputs();
        xs.extend((0..40).map(|i| i as f32 * 0.37 - 7.0));
        for n in 0..=xs.len() {
            let mut got = xs[..n].to_vec();
            Activation::Silu.apply_in_place(&mut got);
            for (&x, &got) in xs.iter().zip(&got) {
                assert!(same(got, silu(x)), "silu at {:#010x}", x.to_bits());
            }
        }
    }
}
