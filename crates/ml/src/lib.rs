//! # qfe-ml
//!
//! From-scratch machine-learning substrate for cardinality estimation.
//! The paper's models are reimplemented in pure Rust (the calibration note
//! "ML ecosystem thin; needs candle/tch bindings" is resolved by building
//! the three model families directly — see DESIGN.md):
//!
//! * [`mlp`] — feed-forward neural network (the paper's `NN`, after
//!   Woltmann et al. \[32\]): ReLU MLP with manual backprop and Adam.
//! * [`gbdt`] — gradient-boosted regression trees (the paper's `GB`, after
//!   Dutt et al. \[5\]): histogram-based split finding on binned features.
//! * [`mscn`] — multi-set convolutional network (Kipf et al. \[12\]):
//!   per-set MLPs with masked average pooling over the (table, join,
//!   predicate) sets.
//! * [`linreg`] — linear regression baseline (the paper tried it and found
//!   it "worse by a significant factor"; kept for completeness).
//!
//! All models train on log-transformed cardinalities ([`scaling`]) and are
//! deterministic given their seed — a hard requirement, since featurization
//! + training must satisfy the determinism property of Eq. 4 in the paper.

// Library code must fail with typed errors, never a panic: `unwrap`/`expect`
// are confined to tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
pub mod compiled;
pub mod gbdt;
pub mod linreg;
pub mod matrix;
pub mod mlp;
pub mod mscn;
pub mod scaling;
pub mod serialize;
pub mod train;

pub use chaos::{ChaosEstimator, ChaosRegressor, EstimatorFault, RegressorFault};
pub use compiled::{fma_available, mlp_simd_active, CompiledGbdt, CompiledMlp, MlpScratch};
pub use gbdt::{Gbdt, GbdtConfig};
pub use linreg::LinearRegression;
pub use matrix::Matrix;
pub use mlp::{Mlp, MlpConfig};
pub use mscn::{Mscn, MscnConfig};
pub use scaling::LogScaler;
pub use serialize::{
    fnv1a64, gbdt_from_bytes, gbdt_to_bytes, mlp_from_bytes, mlp_to_bytes, regressor_from_bytes,
    DecodeError,
};
pub use train::{Regressor, TrainError};
