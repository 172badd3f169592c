#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Resource models of the paper's experiment platforms.
//!
//! The paper evaluates Synapse on six machines — Thinkie (the authors'
//! laptop), Stampede, Archer, Supermic, Comet and Titan — and three
//! filesystem classes (node-local disks, Lustre, NFS). None of those
//! testbeds are available to this reproduction, so this crate models
//! them parametrically (the substitution is described in the README's
//! "Paper experiments" section):
//!
//! * [`machine`] — CPU models (nominal and effective clock, core
//!   count, per-kernel IPC and cycle-overhead characteristics) and
//!   whole-machine models combining CPU, memory and filesystems.
//! * [`fsmodel`] — latency/bandwidth/cache models of the storage
//!   systems, used by E.5's block-size sweeps.
//! * [`parallel`] — thread (OpenMP-analogue) and process
//!   (MPI-analogue) scaling models with machine-specific overheads,
//!   used by E.4.
//! * [`vclock`] — the virtual clock that simulated executions advance.
//! * [`noise`] — deterministic measurement noise so repeated simulated
//!   runs produce realistic error bars.
//! * [`catalog`] — the six machines with parameters calibrated from
//!   the paper's own reported numbers (clock speeds, IPC rates,
//!   convergence offsets).
//!
//! The models are *mechanistic*: experiment outcomes (who wins, where
//! error converges) emerge from parameters like per-kernel loop
//! overhead and per-machine optimization factors, not from hard-coded
//! result curves.

pub mod catalog;
pub mod fsmodel;
pub mod machine;
pub mod noise;
pub mod parallel;
pub mod vclock;

pub use catalog::{
    archer, comet, machine_by_name, machine_ref, stampede, supermic, thinkie, titan, MACHINE_NAMES,
};
pub use fsmodel::{FsKind, FsModel, IoOp};
pub use machine::{CpuModel, KernelClass, KernelProfile, MachineModel};
pub use noise::Noise;
pub use parallel::{ParallelMode, ParallelModel};
pub use vclock::VirtualClock;
