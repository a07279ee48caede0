//! # qfe-obs
//!
//! Observability for the estimation pipeline: lock-free counters,
//! log₂-bucketed latency histograms, and one-call snapshots with stable
//! JSON and human-readable renderings.
//!
//! Both the End-to-End Learned Cost Estimator line of work and the CardEst
//! benchmark study treat *inference latency* and *estimator accuracy over
//! time* as first-class evaluation axes; this crate makes both observable
//! in the production paths instead of only in offline experiments.
//!
//! The design has three layers:
//!
//! * [`Recorder`] — the trait instrumented code talks to. Call sites hold
//!   precomputed metric names and emit counter increments, latency
//!   observations, and gauge updates. The [`NoopRecorder`] default makes
//!   instrumentation cost ~nothing when observability is off (every method
//!   is an empty body behind a virtual call).
//! * [`MetricsRecorder`] — the real sink: a name-keyed registry of atomic
//!   counters, gauges, and [`LatencyHistogram`]s. After a metric's first
//!   observation the hot path is an uncontended read-lock + atomic ops —
//!   no allocation, no mutex on the per-observation path.
//! * [`MetricsSnapshot`] — one coherent copy of every metric, with
//!   [`MetricsSnapshot::to_json`] (stable: keys sorted, integers only) and
//!   [`MetricsSnapshot::render_text`] for dashboards, CI artifacts, and
//!   tests.
//!
//! [`QErrorWindow`] adds the accuracy axis: a sliding window of q-errors
//! fed whenever ground truth becomes available, so model drift is visible
//! at runtime. [`PageHinkley`] turns that feed into a *decision* signal —
//! a deterministic cumulative test that latches when the mean q-error
//! shifts upward, which is what the serving layer's adaptation controller
//! keys retraining off. [`ObservedFeaturizer`] wraps any
//! [`qfe_core::featurize::Featurizer`] with per-QFT encode-latency
//! recording.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

pub mod alloc;
pub mod drift;
pub mod hist;
pub mod observed;
pub mod qerror;
pub mod recorder;
pub mod snapshot;

pub use drift::{PageHinkley, PageHinkleyConfig, PageHinkleyStats};
pub use hist::{HistogramSnapshot, LatencyHistogram};
pub use observed::ObservedFeaturizer;
pub use qerror::QErrorWindow;
pub use recorder::{MetricsRecorder, NoopRecorder, Recorder};
pub use snapshot::MetricsSnapshot;
