//! Campaign error type.

use std::fmt;

/// Anything that can go wrong declaring, expanding or running a
/// campaign.
#[derive(Debug)]
pub enum CampaignError {
    /// The spec text could not be parsed (TOML/JSON syntax or shape).
    Spec(String),
    /// The spec references a machine the catalog does not model.
    UnknownMachine(String),
    /// The spec references an unknown compute kernel.
    UnknownKernel(String),
    /// The spec references an unknown parallel mode.
    UnknownMode(String),
    /// The spec references an unknown workload/application.
    UnknownWorkload(String),
    /// The spec references an unknown target filesystem.
    UnknownFilesystem(String),
    /// The spec references an unknown atom-ablation set.
    UnknownAtomSet(String),
    /// The spec references an unknown sample-order mode.
    UnknownSampleOrder(String),
    /// An axis expanded to nothing (empty grid).
    EmptyAxis(&'static str),
    /// Distributed (cluster) execution failed.
    Cluster(String),
    /// The run was cancelled cooperatively before draining the grid.
    Cancelled {
        /// Points that completed before cancellation took effect.
        done: usize,
        /// Total points in the grid.
        total: usize,
    },
    /// The live view a report reads its slices from holds another
    /// number of points than the sweep landed.
    ViewMismatch {
        /// Points the view recorded.
        view: u64,
        /// Points the sweep landed.
        results: usize,
    },
    /// Result-cache persistence failed.
    Store(synapse_store::StoreError),
    /// Reading the spec file failed.
    Io(std::io::Error),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Spec(msg) => write!(f, "invalid campaign spec: {msg}"),
            CampaignError::UnknownMachine(m) => {
                write!(f, "unknown machine {m:?} (catalog: thinkie, stampede, archer, supermic, comet, titan)")
            }
            CampaignError::UnknownKernel(k) => {
                write!(f, "unknown kernel {k:?} (asm | c | spin)")
            }
            CampaignError::UnknownMode(m) => {
                write!(f, "unknown parallel mode {m:?} (openmp | mpi)")
            }
            CampaignError::UnknownWorkload(w) => {
                write!(f, "unknown workload {w:?} (gromacs | amber)")
            }
            CampaignError::UnknownFilesystem(fs) => {
                write!(
                    f,
                    "unknown filesystem {fs:?} (default | local | lustre | nfs)"
                )
            }
            CampaignError::UnknownAtomSet(a) => {
                write!(
                    f,
                    "unknown atom set {a:?} (all, no-<atom>, or a '+'-joined subset of compute/memory/storage/network)"
                )
            }
            CampaignError::UnknownSampleOrder(o) => {
                write!(f, "unknown sample order {o:?} (preserve | shuffle)")
            }
            CampaignError::EmptyAxis(axis) => write!(f, "campaign axis {axis:?} is empty"),
            CampaignError::Cluster(msg) => write!(f, "cluster execution: {msg}"),
            CampaignError::Cancelled { done, total } => {
                write!(f, "campaign cancelled after {done}/{total} points")
            }
            CampaignError::ViewMismatch { view, results } => write!(
                f,
                "the live view recorded {view} points but the sweep landed {results}: no report"
            ),
            CampaignError::Store(e) => write!(f, "result cache: {e}"),
            CampaignError::Io(e) => write!(f, "spec file: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Store(e) => Some(e),
            CampaignError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<synapse_store::StoreError> for CampaignError {
    fn from(e: synapse_store::StoreError) -> Self {
        CampaignError::Store(e)
    }
}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> Self {
        CampaignError::Io(e)
    }
}

impl From<serde_json::Error> for CampaignError {
    fn from(e: serde_json::Error) -> Self {
        CampaignError::Spec(e.to_string())
    }
}
