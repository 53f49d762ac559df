//! First-order optimizers. The paper trains with Adam (Kingma & Ba, 2014);
//! plain SGD is included for the construction-vs-SGD study (Fig. 19).

use crate::linalg::Matrix;
use crate::mlp::{Gradients, Mlp};

/// A stateful optimizer that applies [`Gradients`] to an [`Mlp`].
pub trait Optimizer {
    /// Apply one update step using `scale * grads`. `grads` must be
    /// shaped like `mlp`.
    ///
    /// The batched training loop hands the optimizer **summed** batch
    /// gradients with `scale = 1/batch_size`; folding the average into
    /// the update avoids a whole extra pass over the gradient buffers
    /// per step, and multiplies in the same order the scale-then-step
    /// path did, so results are bit-identical.
    fn step_scaled(&mut self, mlp: &mut Mlp, grads: &Gradients, scale: f64);

    /// Apply one update step. `grads` must be shaped like `mlp`.
    fn step(&mut self, mlp: &mut Mlp, grads: &Gradients) {
        self.step_scaled(mlp, grads, 1.0);
    }
}

/// Plain stochastic gradient descent with a fixed learning rate.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f64,
}

impl Optimizer for Sgd {
    fn step_scaled(&mut self, mlp: &mut Mlp, grads: &Gradients, scale: f64) {
        for (layer, (dw, db)) in mlp.layers_mut().iter_mut().zip(&grads.layers) {
            let w = layer.weights.as_mut_slice();
            for (wi, gi) in w.iter_mut().zip(dw.as_slice()) {
                *wi -= self.lr * (gi * scale);
            }
            for (bi, gi) in layer.biases.iter_mut().zip(db) {
                *bi -= self.lr * (gi * scale);
            }
        }
    }
}

/// Adam optimizer (Kingma & Ba 2014) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate (paper/TF default 1e-3).
    pub lr: f64,
    /// Exponential decay for the first moment.
    pub beta1: f64,
    /// Exponential decay for the second moment.
    pub beta2: f64,
    /// Numerical floor.
    pub eps: f64,
    t: u64,
    m: Option<Vec<(Matrix, Vec<f64>)>>,
    v: Option<Vec<(Matrix, Vec<f64>)>>,
}

impl Adam {
    /// Adam with standard hyperparameters and the given learning rate.
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: None,
            v: None,
        }
    }

    fn ensure_state(&mut self, grads: &Gradients) {
        if self.m.is_none() {
            let zeros = || {
                grads
                    .layers
                    .iter()
                    .map(|(w, b)| (Matrix::zeros(w.rows(), w.cols()), vec![0.0; b.len()]))
                    .collect::<Vec<_>>()
            };
            self.m = Some(zeros());
            self.v = Some(zeros());
        }
    }
}

impl Optimizer for Adam {
    fn step_scaled(&mut self, mlp: &mut Mlp, grads: &Gradients, scale: f64) {
        self.ensure_state(grads);
        self.t += 1;
        let (b1, b2) = (self.beta1, self.beta2);
        // Saturate rather than wrap: past `i32::MAX` steps both powers
        // have long underflowed to 0 and the corrections are exactly 1.
        let t = i32::try_from(self.t).unwrap_or(i32::MAX);
        let bc1 = 1.0 - b1.powi(t);
        let bc2 = 1.0 - b2.powi(t);
        let m = self.m.as_mut().expect("state initialized");
        let v = self.v.as_mut().expect("state initialized");
        for (li, layer) in mlp.layers_mut().iter_mut().enumerate() {
            let (dw, db) = &grads.layers[li];
            let (mw, mb) = &mut m[li];
            let (vw, vb) = &mut v[li];
            let ws = layer.weights.as_mut_slice();
            for (((wi, gi), mi), vi) in ws
                .iter_mut()
                .zip(dw.as_slice())
                .zip(mw.as_mut_slice())
                .zip(vw.as_mut_slice())
            {
                let g = gi * scale;
                *mi = b1 * *mi + (1.0 - b1) * g;
                *vi = b2 * *vi + (1.0 - b2) * g * g;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *wi -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
            for (((bi, gi), mi), vi) in layer
                .biases
                .iter_mut()
                .zip(db)
                .zip(mb.iter_mut())
                .zip(vb.iter_mut())
            {
                let g = gi * scale;
                *mi = b1 * *mi + (1.0 - b1) * g;
                *vi = b2 * *vi + (1.0 - b2) * g * g;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *bi -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::accumulate_example_gradient;

    /// One optimizer step on a single example must reduce that example's
    /// loss for a reasonable learning rate.
    fn loss_decreases_with<O: Optimizer>(mut opt: O) {
        let mut mlp = Mlp::new(&[2, 8, 1], 3);
        let x = [0.2, 0.8];
        let y = [2.0];
        let before = {
            let p = mlp.predict(&x);
            (p - y[0]).powi(2)
        };
        for _ in 0..50 {
            let mut g = Gradients::zeros_like(&mlp);
            accumulate_example_gradient(&mlp, &x, &y, &mut g);
            opt.step(&mut mlp, &g);
        }
        let after = {
            let p = mlp.predict(&x);
            (p - y[0]).powi(2)
        };
        assert!(after < before * 0.5, "before {before} after {after}");
    }

    #[test]
    fn sgd_decreases_loss() {
        loss_decreases_with(Sgd { lr: 0.01 });
    }

    #[test]
    fn adam_decreases_loss() {
        loss_decreases_with(Adam::new(0.01));
    }

    #[test]
    fn step_scaled_matches_scale_then_step() {
        // step_scaled(g, s) must equal the two-pass grads.scale(s); step(g)
        // bit for bit — the batched training loop relies on this.
        let mut a = Mlp::new(&[2, 6, 1], 8);
        let mut b = a.clone();
        let x = [0.3, -0.4];
        let y = [0.7];
        let mut adam_a = Adam::new(0.01);
        let mut adam_b = Adam::new(0.01);
        for _ in 0..5 {
            let mut g = Gradients::zeros_like(&a);
            accumulate_example_gradient(&a, &x, &y, &mut g);
            adam_a.step_scaled(&mut a, &g, 0.25);

            let mut g2 = Gradients::zeros_like(&b);
            accumulate_example_gradient(&b, &x, &y, &mut g2);
            g2.scale(0.25);
            adam_b.step(&mut b, &g2);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn adam_step_counter_saturates_past_i32_max() {
        // `t as i32` wrapped negative past 2^31 steps, turning the bias
        // corrections into `1 - beta^(-n)`: huge negative divisors and an
        // update that vanishes. Saturated, every step across the
        // boundary still moves the weight against the gradient.
        let mut mlp = Mlp::with_init(&[1, 1], crate::init::Init::Zeros, 0).unwrap();
        let mut g = Gradients::zeros_like(&mlp);
        g.layers[0].0.set(0, 0, 0.5);
        let mut adam = Adam::new(0.1);
        adam.t = i32::MAX as u64 - 2;
        for _ in 0..5 {
            let before = mlp.layers()[0].weights.get(0, 0);
            adam.step(&mut mlp, &g);
            let moved = before - mlp.layers()[0].weights.get(0, 0);
            assert!(
                (0.05..1.0).contains(&moved),
                "step {} moved the weight by {moved}",
                adam.t
            );
        }
        assert!(adam.t > i32::MAX as u64);
    }

    #[test]
    fn adam_bias_correction_first_step() {
        // With a single constant gradient g on the first step, Adam's update
        // must be lr * g/|g| = lr * sign(g) up to eps.
        let mut mlp = Mlp::with_init(&[1, 1], crate::init::Init::Zeros, 0).unwrap();
        let mut g = Gradients::zeros_like(&mlp);
        g.layers[0].0.set(0, 0, 0.5);
        let mut adam = Adam::new(0.1);
        adam.step(&mut mlp, &g);
        let w = mlp.layers()[0].weights.get(0, 0);
        assert!((w + 0.1).abs() < 1e-6, "w = {w}, expected ~ -0.1");
    }
}
