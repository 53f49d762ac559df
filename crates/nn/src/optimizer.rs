//! The optimizer the paper trains with: Adam (Kingma & Ba, 2014), in
//! `f32` over flat parameter slices.
//!
//! [`crate::train`] holds a model's master weights as one `f32` vector
//! in the serving layout's order and its gradient in the same order, so
//! a step is one elementwise sweep over four slices — parameters,
//! gradient, first and second moment — which the compiler vectorises.
//! Adam is elementwise, so the order is the caller's: any order of the
//! same values takes the same step.
//!
//! **Precision.** All of it is `f32` arithmetic: the hyperparameters
//! (`β₁`, `β₂`, `ε`, the learning rate) are rounded to `f32` once, and
//! what is derived from them — `1 − β` and, per step, the bias
//! corrections `1 − βᵗ` (`f32::powi`) — is computed from the rounded
//! values in `f32`. The update keeps the division form
//! `lr · m̂ / (√v̂ + ε)`. A moment below
//! [`f32::MIN_POSITIVE`] is flushed to zero: with a gradient that has
//! become exactly zero (a dead unit) `m ← β₁ m` reaches the subnormal
//! range after ≈ 800 steps and, rounded to nearest, would then stay a
//! few ulps above zero for good, every later step of every sweep doing
//! subnormal arithmetic — several times slower on common hardware.
//! Flushed, such a parameter's moments are exactly `+0.0` and its
//! weight stops moving.

/// First-moment decay.
const BETA1: f32 = 0.9;
/// Second-moment decay.
const BETA2: f32 = 0.999;
/// Numerical floor of the update's denominator.
const EPS: f32 = 1e-8;

/// Adam with bias correction (Kingma & Ba 2014), in `f32` (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Adam with standard hyperparameters (`β₁ = 0.9`, `β₂ = 0.999`,
    /// `ε = 1e-8`) and the given learning rate, for `len` parameters.
    pub fn new(lr: f64, len: usize) -> Self {
        Adam {
            lr: lr as f32,
            t: 0,
            m: vec![0.0; len],
            v: vec![0.0; len],
        }
    }

    /// The first and second moments, one per parameter.
    pub fn moments(&self) -> (&[f32], &[f32]) {
        (&self.m, &self.v)
    }

    /// One update of `params` with the gradient `scale * grads`.
    ///
    /// The training loop hands over **summed** batch gradients with
    /// `scale = 1 / batch_size`, which saves a pass over the gradient.
    ///
    /// # Panics
    /// Panics unless `params` and `grads` hold one entry per parameter.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32], scale: f32) {
        assert!(
            params.len() == self.m.len() && grads.len() == self.m.len(),
            "Adam state is for {} parameters",
            self.m.len()
        );
        self.t += 1;
        // Saturate rather than wrap: past `i32::MAX` steps both powers
        // have long underflowed to 0 and the corrections are exactly 1.
        let t = i32::try_from(self.t).unwrap_or(i32::MAX);
        let (b1, b2, lr) = (BETA1, BETA2, self.lr);
        let (bc1, bc2) = (1.0 - b1.powi(t), 1.0 - b2.powi(t));
        let flush = |x: f32| if x.abs() < f32::MIN_POSITIVE { 0.0 } else { x };
        for (((w, g), m), v) in params
            .iter_mut()
            .zip(grads)
            .zip(&mut self.m)
            .zip(&mut self.v)
        {
            let g = g * scale;
            *m = flush(b1 * *m + (1.0 - b1) * g);
            *v = flush(b2 * *v + (1.0 - b2) * g * g);
            *w -= lr * (*m / bc1) / ((*v / bc2).sqrt() + EPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;
    use crate::mlp::{batch_gradient_per_example, Gradients, Mlp};

    #[test]
    fn adam_decreases_loss() {
        // 50 steps on one example at a reasonable learning rate must
        // at least halve its loss.
        let mut mlp = Mlp::new(&[2, 8, 1], 3);
        let (x, y) = ([0.2, 0.8], [2.0]);
        let (xm, ym) = (
            Matrix::from_vec(1, 2, x.to_vec()),
            Matrix::from_vec(1, 1, y.to_vec()),
        );
        let loss = |m: &Mlp| (m.predict(&x) - y[0]).powi(2);
        let before = loss(&mlp);
        let mut params = mlp.row_major_f32();
        let mut adam = Adam::new(0.01, params.len());
        for _ in 0..50 {
            let mut g = Gradients::zeros_like(&mlp);
            batch_gradient_per_example::<f64>(&mlp, &xm, &ym, &mut g);
            adam.step(&mut params, &g.row_major_f32(), 1.0);
            mlp.set_row_major(&params);
        }
        let after = loss(&mlp);
        assert!(after < before * 0.5, "before {before} after {after}");
    }

    #[test]
    fn adam_bias_correction_first_step() {
        // With a single constant gradient g on the first step, Adam's
        // update is lr * g/|g| = lr * sign(g) up to eps.
        let (mut w, mut adam) = ([0.0f32], Adam::new(0.1, 1));
        adam.step(&mut w, &[0.5], 1.0);
        assert!((w[0] + 0.1).abs() < 1e-6, "w = {}, expected ~ -0.1", w[0]);
    }

    #[test]
    fn adam_step_counter_saturates_past_i32_max() {
        // `t as i32` wrapped negative past 2^31 steps, turning the bias
        // corrections into `1 - beta^(-n)`: huge negative divisors and an
        // update that vanishes. Saturated, every step across the
        // boundary still moves the weight against the gradient.
        let (mut w, mut adam) = ([0.0f32], Adam::new(0.1, 1));
        adam.t = i32::MAX as u64 - 2;
        for _ in 0..5 {
            let before = w[0];
            adam.step(&mut w, &[0.5], 1.0);
            let moved = before - w[0];
            assert!(
                (0.05..1.0).contains(&moved),
                "step {} moved the weight by {moved}",
                adam.t
            );
        }
        assert!(adam.t > i32::MAX as u64);
    }

    #[test]
    fn moments_of_a_vanished_gradient_flush_to_zero_and_the_weight_stops() {
        // Both gradients become exactly 0.0 after step 10. Unflushed,
        // `m ← 0.9 m` lands in the subnormal range after a few hundred
        // steps and round-to-nearest keeps it there (0.9 · m rounds back
        // up a few ulps above zero), and `v ← 0.999 v` likewise; this
        // test then fails on the first subnormal moment. Parameter 0
        // has an ordinary gradient: its `m` reaches zero near step 800,
        // its `v` not within the run. Parameter 1's is tiny (`(1 − β₂)
        // g²` just above `f32::MIN_POSITIVE`), so both of its moments
        // reach zero, and its weight is small enough that the updates
        // before that are visible.
        let start = [0.25f32, 1e-9];
        let (mut w, mut adam) = (start, Adam::new(1e-3, 2));
        let mut moving = [true; 2];
        for step in 1..=4_000 {
            let g = if step <= 10 { [0.3, 4e-18] } else { [0.0; 2] };
            let before = w;
            adam.step(&mut w, &g, 1.0);
            let (m, v) = adam.moments();
            for (i, x) in [m[0], m[1], v[0], v[1]].into_iter().enumerate() {
                assert!(!x.is_subnormal(), "step {step}: moment {i} is {x:e}");
            }
            for i in 0..2 {
                if m[i] == 0.0 {
                    assert_eq!(m[i].to_bits(), 0, "step {step}: m[{i}] is -0.0");
                    assert_eq!(
                        w[i].to_bits(),
                        before[i].to_bits(),
                        "step {step}: w[{i}] moved"
                    );
                    moving[i] = false;
                } else {
                    assert!(moving[i], "step {step}: m[{i}] left zero");
                }
            }
        }
        assert!(
            w[0] < start[0] && w[1] < start[1],
            "both weights moved at first"
        );
        let (m, v) = adam.moments();
        assert_eq!([m[0], m[1], v[1]].map(f32::to_bits), [0; 3]);
        assert!(v[0] > 0.0);
    }
}
