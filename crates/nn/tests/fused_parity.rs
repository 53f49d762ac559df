//! Kernel parity properties for the serving forward pass
//! (`nn::fused`): on random architectures and inputs the tiled, fused
//! `f32` kernel must equal the scalar `f32` oracle
//! `nn::fused::forward_per_example` on every row **bit for bit**
//! (`to_bits()`, so `-0.0` vs `0.0` and NaN payloads count) — across
//! batch sizes that hit empty batches, remainder rows, whole tiles and
//! several row blocks, layer widths that are not multiples of the tile
//! width (including width 1 and a contraction of length 1), rows whose
//! ReLUs are all dead, inputs containing `-0.0`, and a final layer wider
//! than one unit. The last test is the edge of the `f64 → f32` cast
//! callers make on the way in: a coordinate beyond `f32` range poisons
//! its own row only.
//!
//! CI runs this file twice: once at the workspace's `target-cpu=native`
//! (hardware FMA) and once under `RUSTFLAGS="-C target-cpu=x86-64"`, so
//! the `a * b + c` fallback of `fmadd` is held to the same contract.

use nn::fused::{forward_per_example, ServingWorkspace, BLOCK_ROWS, MR, NR};
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

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Fused forward of the flat rows `x` against the per-example oracle,
/// bit for bit; returns the fused output.
fn assert_rows_parity(mlp: &Mlp, sws: &mut ServingWorkspace, x: &[f32]) -> Vec<f32> {
    let (d, o) = (mlp.input_dim(), mlp.output_dim());
    let rows = x.len() / d;
    let mut got = vec![f32::NAN; rows * o];
    mlp.serving_layout().forward_into(sws, x, &mut got);
    for (r, row) in x.chunks_exact(d).enumerate() {
        assert_eq!(
            bits(&got[r * o..(r + 1) * o]),
            bits(&forward_per_example(mlp, row)),
            "rows {rows}, row {r}: fused vs per-example"
        );
    }
    got
}

/// [`assert_rows_parity`] on `rows` rows cut from `pool` (cast to `f32`
/// the way a serving caller casts coordinates). One workspace is reused
/// across every call of a test, so stale tile contents are part of what
/// is being checked.
fn assert_parity(mlp: &Mlp, sws: &mut ServingWorkspace, rows: usize, pool: &[f64], offset: usize) {
    let x: Vec<f32> = (0..rows * mlp.input_dim())
        .map(|i| pool[(offset + i) % pool.len()] as f32)
        .collect();
    assert_rows_parity(mlp, sws, &x);
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
        prop_assert_eq!(
            bits(&forward_per_example(&mlp, &vec![-1.5; d])),
            bits(&forward_per_example(&mlp, &vec![0.5; d])),
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

/// A finite `f64` coordinate beyond `f32` range reaches the kernel as
/// `±inf`: its own row comes out non-finite (NaN here — the infinities
/// meet weights of both signs), nothing panics, and the other rows of
/// the same tile and block keep the bits they have without it.
#[test]
fn out_of_range_coordinate_poisons_only_its_own_row() {
    let pool: Vec<f64> = (0..211).map(|i| ((i * 29 % 97) as f64) / 97.0).collect();
    let mlp = model(&[4, 60, 30, 30, 1], 3, &[0.75, -1.25, 0.5, -0.5, 1.5]);
    let mut sws = ServingWorkspace::default();
    for rows in [1, MR, MR + 1, BLOCK_ROWS + 2] {
        let clean: Vec<f32> = (0..rows * 4).map(|i| pool[i % pool.len()] as f32).collect();
        let want = assert_rows_parity(&mlp, &mut sws, &clean);
        for (victim, huge) in [(0, 1e300f64), (rows - 1, -1e300), (rows / 2, f64::MAX)] {
            let mut x = clean.clone();
            x[victim * 4 + 1] = huge as f32;
            assert!(x[victim * 4 + 1].is_infinite());
            let got = assert_rows_parity(&mlp, &mut sws, &x);
            for r in 0..rows {
                if r == victim {
                    assert!(
                        got[r].is_nan(),
                        "rows {rows}: victim {r} answered {}",
                        got[r]
                    );
                } else {
                    assert_eq!(got[r].to_bits(), want[r].to_bits(), "rows {rows}, row {r}");
                }
            }
        }
    }
}
