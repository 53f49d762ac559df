//! # nn — feed-forward neural network substrate
//!
//! A small, dependency-light neural network library built from scratch for
//! the NeuroSketch reproduction. It provides exactly what the paper needs:
//!
//! * dense [`Mlp`] models with ReLU hidden layers and a linear output,
//!   and their per-example forward and gradient
//!   ([`fused::forward_per_example`], [`mlp::batch_gradient_per_example`]),
//!   one body each over the crate's element type [`linalg::Elem`]: the
//!   `f32` oracle of the batched kernels below, and at `f64` the
//!   crate's `f64` forward ([`Mlp::predict`]; allocation-free with a
//!   reused scratch, [`fused::activations_per_example`]) and gradient,
//! * mini-batch training with MSE loss and the [`optimizer::Adam`] optimizer
//!   (Alg. 4 of the paper), in `f32` end to end on master weights held
//!   in a [`ServingLayout`] ([`train`]), executed as whole-batch GEMMs
//!   ([`Mlp::forward_batch`] / [`Mlp::backward_batch`]) on the crate's
//!   one register-tiled micro-kernel ([`gemm`]) — the kernel
//!   [`linalg::matmul`] also runs on, at `f64` — with bias, activation,
//!   ReLU mask and bias-gradient sums fused into the tile store, and
//!   bitwise equal to the per-example gradient at `f32`,
//! * the serving forward ([`fused`]): the same kernel instantiated at
//!   `f32` — the precision every stored artifact has — over a packed
//!   [`ServingLayout`], bitwise equal to a scalar `f32` oracle at any
//!   batch size (the per-example forward at `f32`), and so bitwise the
//!   training forward,
//! * the explicit **memorization construction** of Theorem 3.4 / Algorithm 1
//!   ([`construction`]), usable directly ("CS") or as an initialization for
//!   SGD ("CS+SGD", Sec. A.5),
//! * parameter/storage accounting used by the paper's space-complexity
//!   arguments.
//!
//! An [`Mlp`]'s parameters are `f64`; a trained model's parameters are
//! all `f32` values, storage is *reported* as `f32` (4 bytes each),
//! matching how the paper counts model size, and serving and training
//! compute in that `f32`.
//!
//! ```
//! use nn::{Mlp, train::{train, TrainConfig}};
//!
//! // Learn y = x0 + x1 on a tiny synthetic set.
//! let xs: Vec<Vec<f64>> = (0..64)
//!     .map(|i| vec![(i % 8) as f64 / 8.0, (i / 8) as f64 / 8.0])
//!     .collect();
//! let ys: Vec<f64> = xs.iter().map(|x| x[0] + x[1]).collect();
//! let mut mlp = Mlp::new(&[2, 16, 16, 1], 7);
//! let cfg = TrainConfig { epochs: 300, ..TrainConfig::default() };
//! let report = train(&mut mlp, &xs, &ys, &cfg);
//! assert!(report.final_loss < 1e-2);
//! ```

#![deny(missing_docs)]

pub mod activation;
pub mod binary;
pub mod construction;
pub mod fused;
pub mod gemm;
pub mod init;
pub mod linalg;
pub mod mlp;
pub mod optimizer;
pub mod prune;
pub mod train;

pub use activation::Activation;
pub use binary::QuantMode;
pub use fused::ServingLayout;
pub use linalg::Matrix;
pub use mlp::Mlp;

/// Errors produced by the nn crate.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// Layer sizes are inconsistent with the provided input.
    ShapeMismatch {
        /// Dimensionality the layer expected.
        expected: usize,
        /// Dimensionality it was given.
        got: usize,
    },
    /// An architecture description was empty or degenerate.
    BadArchitecture(String),
    /// Model (de)serialization failed.
    Serde(String),
}

impl std::fmt::Display for NnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NnError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got}")
            }
            NnError::BadArchitecture(s) => write!(f, "bad architecture: {s}"),
            NnError::Serde(s) => write!(f, "serialization error: {s}"),
        }
    }
}

impl std::error::Error for NnError {}
