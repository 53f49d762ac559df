//! Kernel parity properties for the serving forward pass
//! (`nn::fused`): on random architectures and inputs the tiled, fused
//! kernel must equal `Mlp::forward_with` on every row **bit for bit**
//! (`to_bits()`, so `-0.0` vs `0.0` and NaN payloads count) — across
//! batch sizes that hit empty batches, remainder rows, whole tiles and
//! several row blocks, layer widths that are not multiples of the tile
//! width (including width 1 and a contraction of length 1), rows whose
//! ReLUs are all dead, inputs containing `-0.0`, and a final layer wider
//! than one unit.
//!
//! CI runs this file twice: once at the workspace's `target-cpu=native`
//! (hardware FMA) and once under `RUSTFLAGS="-C target-cpu=x86-64"`, so
//! the `a * b + c` fallback of `fmadd` is held to the same contract.

use nn::fused::{ServingWorkspace, BLOCK_ROWS, MR, NR};
use nn::mlp::Workspace;
use nn::Mlp;
use proptest::prelude::*;

/// The batch sizes every property sweeps.
const BATCHES: [usize; 6] = [0, 1, MR - 1, MR, MR + 1, 257];

/// Values a test draws inputs, weights and biases from: mostly ordinary
/// magnitudes, with exact zeros of both signs mixed in.
fn cells(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0.0f64..1.0, -2.0f64..2.0), len).prop_map(|cells| {
        cells
            .into_iter()
            .map(|(gate, v)| match gate {
                g if g < 0.1 => 0.0,
                g if g < 0.2 => -0.0,
                _ => v,
            })
            .collect()
    })
}

/// He-initialised model with its weights sign-flipped/zeroed and its
/// biases overwritten from the pool (a fresh `Mlp` has all-zero biases,
/// which would leave the fused bias add untested).
fn model(sizes: &[usize], seed: u64, pool: &[f64]) -> Mlp {
    let mut mlp = Mlp::new(sizes, seed);
    let mut at = 0;
    let mut next = || {
        at += 1;
        pool[at % pool.len()]
    };
    for layer in mlp.layers_mut() {
        for w in layer.weights.as_mut_slice() {
            *w *= next();
        }
        for b in &mut layer.biases {
            *b = next();
        }
    }
    mlp
}

/// Fused forward of `rows` rows cut from `pool` against the per-example
/// oracle, bit for bit. One workspace is reused across every call of a
/// test, so stale tile contents are part of what is being checked.
fn assert_parity(mlp: &Mlp, sws: &mut ServingWorkspace, rows: usize, pool: &[f64], offset: usize) {
    let (d, o) = (mlp.input_dim(), mlp.output_dim());
    let x: Vec<f64> = (0..rows * d)
        .map(|i| pool[(offset + i) % pool.len()])
        .collect();
    let mut got = vec![f64::NAN; rows * o];
    mlp.serving_layout().forward_into(sws, &x, &mut got);
    let mut ws = Workspace::default();
    for r in 0..rows {
        let want = mlp.forward_with(&mut ws, &x[r * d..(r + 1) * d]);
        for (c, (g, w)) in got[r * o..(r + 1) * o].iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "rows {rows}, row {r}, output {c}: fused {g:e} vs per-example {w:e}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random shapes: widths on both sides of `NR`, final layer 1–3 wide.
    #[test]
    fn fused_forward_is_bitwise_per_example(
        d in 1usize..7,
        h1 in 1usize..(2 * NR + 3),
        h2 in 1usize..(NR + 2),
        out in 1usize..4,
        seed in 0u64..1000,
        pool in cells(509),
    ) {
        let mlp = model(&[d, h1, h2, out], seed, &pool);
        let mut sws = ServingWorkspace::default();
        for (i, rows) in BATCHES.into_iter().enumerate() {
            assert_parity(&mlp, &mut sws, rows, &pool, 31 * i);
        }
    }

    /// Degenerate widths: a one-wide input (contraction length 1), a
    /// one-wide hidden layer, and no hidden layer at all.
    #[test]
    fn width_one_and_depth_two_models(
        h in 1usize..(NR + 2),
        seed in 0u64..1000,
        pool in cells(251),
    ) {
        let mut sws = ServingWorkspace::default();
        for sizes in [&[1, h, 1][..], &[3, 1, h, 2], &[1, 1], &[5, 3]] {
            let mlp = model(sizes, seed, &pool);
            for rows in BATCHES {
                assert_parity(&mlp, &mut sws, rows, &pool, rows);
            }
        }
    }

    /// Rows whose hidden units are all dead: with every first-layer bias
    /// far below anything the inputs can reach, each ReLU outputs its
    /// zero and the answer is the bias chain of the later layers.
    #[test]
    fn all_dead_relu_rows(
        d in 1usize..5,
        h in 1usize..(NR + 5),
        seed in 0u64..1000,
        pool in cells(251),
    ) {
        let mut mlp = model(&[d, h, 7, 2], seed, &pool);
        mlp.layers_mut()[0].biases.fill(-1e9);
        let mut ws = Workspace::default();
        let hidden_free = mlp.forward_with(&mut ws, &vec![0.5; d]).to_vec();
        prop_assert_eq!(
            mlp.forward_with(&mut ws, &vec![-1.5; d]),
            &hidden_free[..],
            "first layer is dead for every input"
        );
        let mut sws = ServingWorkspace::default();
        for rows in BATCHES {
            assert_parity(&mlp, &mut sws, rows, &pool, 7);
        }
    }
}

/// Signed zeros end to end: an all-`-0.0` batch, and a linear model
/// whose exact output is a signed zero.
#[test]
fn negative_zero_inputs_and_outputs_keep_their_sign() {
    let mut sws = ServingWorkspace::default();
    let pool = [-0.0];
    let mlp = model(&[3, NR + 1, 2], 5, &[0.75, -1.25, 0.5]);
    for rows in BATCHES {
        assert_parity(&mlp, &mut sws, rows, &pool, 0);
    }
    // One linear layer, zero weights, bias -0.0: `0.0 + -0.0` is `0.0`,
    // and the fused epilogue must round it the same way.
    let mut linear = Mlp::new(&[2, 2], 1);
    linear.layers_mut()[0].weights.as_mut_slice().fill(0.0);
    linear.layers_mut()[0].biases.fill(-0.0);
    assert_parity(&linear, &mut sws, MR + 1, &[-0.0, 3.0, -7.5], 0);
}

/// More rows than one L1 block, on a model wider than one tile: the
/// block loop and the panel loop both take several trips.
#[test]
fn many_blocks_and_many_panels() {
    let pool: Vec<f64> = (0..997)
        .map(|i| ((i * 37 % 101) as f64) / 101.0 - 0.4)
        .collect();
    let mlp = model(&[4, 60, 30, 30, 1], 0, &pool);
    let mut sws = ServingWorkspace::default();
    for rows in [
        BLOCK_ROWS - 1,
        BLOCK_ROWS,
        BLOCK_ROWS + 1,
        3 * BLOCK_ROWS + MR + 1,
    ] {
        assert_parity(&mlp, &mut sws, rows, &pool, rows);
    }
}
