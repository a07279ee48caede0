//! # qfe-estimators
//!
//! Cardinality estimators, all implementing
//! [`qfe_core::CardinalityEstimator`]:
//!
//! * [`postgres`] — the PostgreSQL-style baseline: per-column equi-depth
//!   histograms + MCV lists combined under the attribute-value-independence
//!   assumption; FK joins via the `1 / max(nd)` formula. This is the
//!   "essentially independence assumption" estimator of the paper.
//! * [`sampling`] — per-query Bernoulli sampling (0.1 % in the paper).
//! * [`correlated`] — correlated sampling \[29\], the stronger sampling
//!   baseline for joins the related-work section discusses.
//! * [`truth`] — the oracle that executes the query (used for labeling and
//!   for the true-cardinality arm of the end-to-end experiment).
//! * [`learned`] — QFT × model combinations: a featurizer from `qfe-core`
//!   plus a regressor from `qfe-ml`, trained on labeled queries.
//! * [`local`] — the local-model approach (Section 2.1.2): one learned
//!   model per sub-schema.
//! * [`global`] — global models: one model with table-presence bits, and
//!   the MSCN global estimator.
//! * [`grouped`] — grouped-query (GROUP BY) result-size estimation via
//!   the Section 6 binary grouping vector.
//! * [`iep`] — inclusion-exclusion estimation of disjunctions (the
//!   Section 6 strawman: `2^m − 1` sub-estimates per query).
//! * [`labels`] — labeling utilities (run the oracle over a workload).
//! * [`breaker`] — per-stage circuit breaking: [`breaker::CircuitBreaker`]
//!   (closed → open → half-open with exponential cooldown), which lets
//!   the serving stage loop skip a persistently failing stage instead of
//!   paying for its failure on every query.
//!
//! Composing these into a fault-tolerant stack (learned → histogram →
//! sampling → constant floor) is the job of `qfe-serve`'s
//! `EstimatorService`, the one stage loop in the workspace; the seeded
//! `ChaosEstimator` its robustness tests drive it with lives in
//! `qfe_ml::chaos`.

// Library code must fail with typed errors, never a panic: `unwrap`/`expect`
// are confined to tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod breaker;
pub mod correlated;
pub mod global;
pub mod grouped;
pub mod iep;
pub mod labels;
pub mod learned;
pub mod local;
pub mod postgres;
pub mod sampling;
pub mod truth;

pub use breaker::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker};
pub use correlated::CorrelatedSamplingEstimator;
pub use global::{GlobalLearnedEstimator, MscnEstimator};
pub use grouped::GroupedLearnedEstimator;
pub use iep::IepEstimator;
pub use learned::LearnedEstimator;
pub use local::LocalModelEstimator;
pub use postgres::PostgresEstimator;
pub use sampling::SamplingEstimator;
pub use truth::TrueCardinalityEstimator;
