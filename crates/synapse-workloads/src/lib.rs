#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Applications under test for the Synapse reproduction.
//!
//! The paper validates Synapse against **Gromacs**, a molecular
//! dynamics code whose CPU consumption and disk *output* scale with
//! the configured iteration count while disk input and memory stay
//! constant (§5, "Application"). Gromacs itself is not available here,
//! so this crate provides (the substitution is described in the
//! README's "Paper experiments" section):
//!
//! * [`mdsim`] — a real, runnable mini molecular-dynamics application
//!   (Lennard-Jones particles, velocity-Verlet integration, trajectory
//!   frames written to disk) with the same externally observable
//!   scaling signature. Built as the `synapse-mdsim` binary so the
//!   black-box profiler can observe it like any other executable.
//! * [`synthetic`] — phase-scripted workloads (serial and concurrent
//!   CPU/disk phases) used by the sampling-effect experiments
//!   (Figs 2–3) and by I/O experiments (E.5).
//! * [`appmodel`] — the *analytic* Gromacs-like application behaviour
//!   on a [`synapse_sim::MachineModel`], used by every simulated
//!   experiment: expected cycles/FLOPs/bytes for a step count,
//!   simulated execution reports with realistic noise, simulated
//!   profile generation at any sampling rate, and parallel (OpenMP /
//!   MPI) execution times for Figs 12–14.

pub mod appmodel;
pub mod mdsim;
pub mod synthetic;

pub use appmodel::{AppModel, ProfileSamples, SimRun};
pub use mdsim::{MdConfig, MdReport, MdSim};
pub use synthetic::{busy_flops, PhaseOp, PhaseScript};
