#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `synapse-cluster` — distributed campaign fan-out across cooperating
//! `synapse serve` processes.
//!
//! Since PR 3 one serve process bounds all sweep throughput; the next
//! scale step (ROADMAP "multi-process fan-out") is several processes
//! cooperating on one campaign. The unit of distribution is the grid
//! point — like task-level fan-out in the pilot-job systems the paper
//! builds on — batched into **leases**: contiguous slices of the grid
//! produced by `synapse_campaign::partition`.
//!
//! Topology: one **coordinator** (a serve process with a [`Coordinator`]
//! backend attached via `synapse_server::Server::with_cluster`) and N
//! **workers** (plain `synapse serve` processes, optionally sharing one
//! lock-aware sharded cache directory). A `POST /campaigns?cluster=1`
//! submission partitions the grid into leases, fans them out over the
//! registered workers (`POST /leases` + event-stream watch per lease),
//! and merges the returned point streams into
//!
//! * one ordered NDJSON event stream (globally monotone `done`
//!   counter, same event shapes as a local sweep), and
//! * one byte-stable report — results collected in grid order, with
//!   the slices of the job's live view, are bit-identical to a
//!   single-process run, because per-point results are deterministic,
//!   `f64`s round-trip exactly through the JSON layer, and a view's
//!   summaries do not depend on the order points arrived in.
//!
//! Failure model: a worker dying mid-lease breaks its event stream;
//! the driver releases the lease back to the table, marks the worker
//! dead, and a surviving worker (or, once none remain, the
//! coordinator's own engine) re-runs it. Replayed points deduplicate
//! in the merge collector, so partial lease replays are harmless. A
//! lease that keeps failing poisons the job after a bounded number of
//! attempts instead of retrying forever.
//!
//! Modules: [`protocol`] (wire forms), [`registry`] (worker
//! registry + health), [`merge`] (ordered merge collector),
//! [`coordinator`] (lease dispatch, retry, local fallback).

pub mod coordinator;
pub mod merge;
mod metrics;
pub mod protocol;
pub mod registry;

pub use coordinator::{ClusterConfig, Coordinator, Link, Transport};
pub use merge::Collector;
pub use registry::WorkerRegistry;
