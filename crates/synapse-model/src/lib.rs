#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Data model for Synapse profiles, samples, metrics and statistics.
//!
//! This crate is the foundation of the Synapse reproduction: it defines
//! the *profile* representation produced by the profiler and consumed by
//! the emulator, the metric registry mirroring Table 1 of the paper, and
//! the statistics helpers (mean, standard deviation, 99 % confidence
//! intervals, error percentages) used throughout the evaluation.
//!
//! The model is deliberately independent of how samples are *collected*
//! (see `synapse-proc`, `synapse-perf`) and of how they are *replayed*
//! (see `synapse-atoms`, `synapse`). Everything here is plain data with
//! `serde` round-tripping, so profiles can be stored in the document
//! store (`synapse-store`) or on disk as JSON.

pub mod analysis;
pub mod error;
pub mod metrics;
pub mod profile;
pub mod sample;
pub mod stats;
pub mod tags;
pub mod units;

pub use analysis::{compare_profiles, io_granularity, IoGranularity, ProfileComparison};
pub use error::ModelError;
pub use metrics::{Metric, MetricUsage, ResourceClass, Support, METRIC_REGISTRY};
pub use profile::{DerivedMetrics, Profile, ProfileSet, SystemInfo, Totals};
pub use sample::{ComputeSample, Demand, MemorySample, NetworkSample, Sample, StorageSample};
pub use stats::{ci99_halfwidth, error_pct, Summary};
pub use tags::{ProfileKey, Tags};
