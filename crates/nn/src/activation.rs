//! Activation functions. NeuroSketch uses ReLU on every layer except the
//! (linear) output, exactly as in Sec. 4.2 of the paper.

use serde::{Deserialize, Serialize};

/// Element-wise activation applied after a dense layer's affine transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// `max(0, x)` — used on all hidden layers.
    Relu,
    /// The identity — used on the output layer.
    Identity,
}

impl Activation {
    /// Derivative recovered from the *post-activation* value `a = act(z)`.
    ///
    /// For the activations in this crate the derivative is a function of
    /// the output: ReLU has `a > 0 ⟺ z > 0`, and the identity is
    /// constant. ReLU takes the convention `relu'(0) = 0` (subgradient
    /// choice), which is what every mainstream framework does. This is
    /// what lets every backward pass keep only activations — no
    /// pre-activation storage.
    #[inline]
    pub fn derivative_from_output(self, a: f64) -> f64 {
        match self {
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Identity => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::forward_per_example;
    use crate::mlp::{Dense, Mlp};
    use crate::Matrix;

    /// `act` as the per-example forward applies it: one identity-weight
    /// layer with zero biases.
    fn applied(act: Activation, zs: &[f64]) -> Vec<f64> {
        let n = zs.len();
        let mut weights = Matrix::zeros(n, n);
        for i in 0..n {
            weights.set(i, i, 1.0);
        }
        let layer = Dense {
            weights,
            biases: vec![0.0; n],
            activation: act,
        };
        forward_per_example(&Mlp::from_layers(vec![layer]).unwrap(), zs)
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(
            applied(Activation::Relu, &[-1.0, 0.0, 2.5]),
            vec![0.0, 0.0, 2.5]
        );
    }

    #[test]
    fn identity_is_noop() {
        assert_eq!(applied(Activation::Identity, &[-1.0, 3.0]), vec![-1.0, 3.0]);
    }

    #[test]
    fn derivatives() {
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        assert_eq!(Activation::Relu.derivative_from_output(0.5), 1.0);
        assert_eq!(Activation::Identity.derivative_from_output(-7.0), 1.0);
    }

    #[test]
    fn output_derivative_agrees_with_preactivation_derivative() {
        let preactivation = |act, z: f64| match act {
            Activation::Relu if z <= 0.0 => 0.0,
            _ => 1.0,
        };
        for act in [Activation::Relu, Activation::Identity] {
            let zs = [-2.0, -0.5, 0.0, 0.5, 3.0];
            for (z, a) in zs.into_iter().zip(applied(act, &zs)) {
                assert_eq!(
                    preactivation(act, z),
                    act.derivative_from_output(a),
                    "{act:?} at z={z}"
                );
            }
        }
    }
}
