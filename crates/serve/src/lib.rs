//! `qfe-serve` — deadline-aware, fault-isolated serving front end.
//!
//! The estimator crates answer "how do we estimate a cardinality?"; this
//! crate answers "how do we keep answering when things go wrong, under
//! concurrency, on a clock?". The entry point is
//! [`EstimatorService`], which layers, outermost
//! first:
//!
//! - **admission + load shedding** ([`admission`], [`error::ShedPolicy`]) —
//!   bounded concurrency and a bounded queue; overload becomes a typed
//!   [`ServeError::Overloaded`], not unbounded latency;
//! - **deadlines** ([`qfe_core::Deadline`]) — the per-request budget rides
//!   through the stage loop; slow stages are abandoned and the remaining
//!   budget flows to the fallbacks;
//! - **panic isolation** — every stage call is wrapped in `catch_unwind`,
//!   bounded calls on reused runner threads ([`runner`]);
//! - **circuit breaking** ([`qfe_estimators::breaker`]) — chronically
//!   failing stages are skipped and probed back in;
//! - **validated hot swap** ([`slot::ModelSlot`]) — retrained models are
//!   published atomically, and only after passing a checksum gate and a
//!   probe workload;
//! - **closed-loop adaptation** ([`adapt::AdaptController`]) — ground
//!   truth fed back through the service drives Page-Hinkley drift
//!   detection, budgeted retraining, shadow validation, and probationary
//!   swaps with automatic rollback — accuracy self-heals without a
//!   restart, and a broken trainer can never take serving down;
//! - **micro-batching** ([`batch::MicroBatcher`]) — singleton arrivals
//!   are coalesced, by the submitting threads themselves, into batched
//!   stage calls
//!   ([`EstimatorService::estimate_batch`](service::EstimatorService::estimate_batch)),
//!   amortizing featurization and model forwards across the batch while
//!   keeping per-request deadlines and per-row failure routing;
//! - **durability** ([`persist`]) — published models checkpoint to a
//!   crash-safe [`qfe_store::CheckpointStore`] off the hot path, and
//!   [`EstimatorService::warm_restart`](service::EstimatorService::warm_restart)
//!   rebuilds the newest valid checkpoint through the slot's probe gate
//!   on startup, so adapted accuracy survives a process death;
//! - **sharding** ([`shard`]) — a [`shard::ShardRegistry`] maps 128-bit
//!   tenant/schema fingerprints to per-tenant services (each with its
//!   own chain, breakers, slot, quota, and checkpoint namespace) with
//!   consistent rendezvous routing and one merged fleet snapshot;
//! - **the network front door** ([`net`], [`proto`]) — a std-only TCP
//!   server speaking a length-prefixed binary protocol: thread-per-core
//!   acceptors, per-connection deadlines, and typed [`proto::ProtoError`]s
//!   for every malformed byte a client can send — nothing on the wire
//!   panics or hangs the acceptor.
//!
//! The crate deliberately contains no estimation logic: it composes any
//! [`qfe_core::CardinalityEstimator`] stack.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

pub mod adapt;
pub mod admission;
pub mod batch;
pub mod error;
pub mod net;
pub mod persist;
pub mod proto;
pub mod runner;
pub mod service;
pub mod shard;
pub mod slot;

pub use adapt::{
    spawn_adaptation, AdaptConfig, AdaptController, AdaptHandle, AdaptPhase, AdaptStats,
    CandidateTrainer, FeedbackSink, StepReport,
};
pub use admission::AdmissionStats;
pub use batch::{BatcherStats, MicroBatcher};
pub use error::{FeedbackError, OverloadKind, ServeError, ShedPolicy};
pub use net::{NetConfig, NetServer, NetStats};
pub use persist::{AsyncCheckpointer, RestoreOutcome, WarmRestartReport};
pub use proto::{read_frame, write_frame, ErrCode, Frame, ProtoError, ReadError};
pub use runner::{stage_runner_stats, RunnerStats};
pub use service::{
    EstimatorService, ServiceConfig, ServiceStats, StageServiceStats, BATCH_SIZE_METRIC,
    REQUEST_LATENCY_METRIC,
};
pub use shard::{
    FleetError, RegisterError, RouteError, Shard, ShardConfig, ShardError, ShardKey, ShardRegistry,
    ShardStats,
};
pub use slot::{decode_validated, ModelPersister, ModelSlot, SharedEstimator, SwapError};

/// Install a panic hook that silences panics whose payload matches one of
/// `quiet` — chaos-injected panics, in practice — while delegating
/// everything else to the previously installed hook.
///
/// The service *contains* injected panics, but Rust's default hook prints
/// each one to stderr before `catch_unwind` sees it; a chaos stress run
/// would drown real failures in thousands of expected backtraces. Call
/// this once at the start of such a run (tests, demos). Process-global.
pub fn install_quiet_panic_hook(quiet: Vec<String>) {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| info.payload().downcast_ref::<String>().cloned());
        if let Some(msg) = payload {
            if quiet.contains(&msg) {
                return;
            }
        }
        previous(info);
    }));
}
