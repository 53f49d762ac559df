//! The accuracy gate of the `f32` serving forward (`nn::fused`): it is
//! bitwise its own `f32` oracle, `fused::forward_per_example` at `f32`
//! (`fused_parity.rs`), and it is *not* bitwise the same function at
//! `f64` — this file bounds how far from it. Every output must lie within `1e-5` of the `f64` forward,
//! relative to `max(|y|, 1)`: served outputs are standardized labels,
//! O(1) by construction, so below 1 the bound is absolute.
//!
//! Measured when the gate was written: worst 4.9e-7 on the paper shape,
//! 9.5e-7 on the deep/wide one (`f32` round-off is 6e-8 per operation),
//! so the bound has a factor of ten in hand and a kernel that loses a
//! digit trips it.

use nn::fused::{forward_per_example, ServingWorkspace};
use nn::{Mlp, QuantMode};

const ROWS: usize = 512;
const BOUND: f64 = 1e-5;

/// A He-initialised model with non-zero biases.
fn model(sizes: &[usize], seed: u64) -> Mlp {
    let mut mlp = Mlp::new(sizes, seed);
    for (l, layer) in mlp.layers_mut().iter_mut().enumerate() {
        for (j, b) in layer.biases.iter_mut().enumerate() {
            *b = ((l * 31 + j * 7) % 13) as f64 / 13.0 - 0.4;
        }
    }
    mlp
}

/// Worst `|served − f64| / max(|f64|, 1)` over `ROWS` inputs in `[0, 1)`.
fn worst_relative_error(mlp: &Mlp) -> f64 {
    let d = mlp.input_dim();
    let x: Vec<f64> = (0..ROWS * d)
        .map(|i| ((i * 7919 % 10_007) as f64) / 10_007.0)
        .collect();
    let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
    let mut served = vec![0.0f32; ROWS];
    mlp.serving_layout()
        .forward_into(&mut ServingWorkspace::default(), &x32, &mut served);
    x.chunks_exact(d)
        .zip(&served)
        .map(|(row, got)| {
            let want = forward_per_example(mlp, row)[0];
            (f64::from(*got) - want).abs() / want.abs().max(1.0)
        })
        .fold(0.0, f64::max)
}

#[test]
fn f32_serving_forward_stays_within_1e5_of_the_f64_forward() {
    for sizes in [&[4, 60, 30, 30, 1][..], &[6, 120, 120, 120, 120, 1]] {
        for seed in 0..4 {
            // As trained (`f64` weights, so the layout's rounding of
            // them counts too) and as decoded from each narrower mode.
            let trained = model(sizes, seed);
            let stored = [QuantMode::F16, QuantMode::I8].map(|m| trained.quantized_to(m));
            for (which, mlp) in std::iter::once(&trained).chain(&stored).enumerate() {
                let err = worst_relative_error(mlp);
                assert!(
                    err <= BOUND,
                    "{sizes:?} seed {seed} model {which}: {err:e} > {BOUND:e}"
                );
            }
        }
    }
}
