//! # qfe-exec
//!
//! Query execution over `qfe-data` tables:
//!
//! * [`bitmap`] / [`eval`] — vectorized predicate evaluation into selection
//!   bitmaps, including mixed (AND/OR) compound predicates. Leaves run a
//!   word-packed kernel: the operator is dispatched once per column, and
//!   each 64-row word is built branch-free and stored whole.
//! * [`count`] — exact result cardinalities for selection and join queries;
//!   this is the labeling oracle that produces training/test cardinalities
//!   for the learned estimators and the ground truth for q-errors. It is
//!   a pure function of the database and the query, so
//!   `qfe-estimators::labels` can run it on many queries in parallel.
//! * [`join`] — hash-join machinery shared by counting and execution.
//! * [`cache`] — cross-call sub-plan estimate cache keyed on semantic
//!   query fingerprints, with generation-based invalidation for
//!   hot-swapped models.
//! * [`optimizer`] — a cost-based dynamic-programming join-order optimizer
//!   parameterized by any [`qfe_core::CardinalityEstimator`]; used by the
//!   end-to-end experiment (paper Table 4) to measure how estimate quality
//!   translates into plan quality and runtime.
//! * [`executor`] — physical execution of optimized plans with measured
//!   wall-clock time.

pub mod bitmap;
pub mod cache;
pub mod count;
pub mod eval;
pub mod executor;
pub mod join;
pub mod optimizer;

pub use bitmap::Bitmap;
pub use cache::{CacheStats, EstimateCache, FillToken, Probe};
pub use count::true_cardinality;
pub use optimizer::{JoinPlan, OptimizeError, OptimizeStats, OptimizedPlan, Optimizer};
