#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! A miniature pilot-job agent scheduling Synapse proxy-task
//! durations.
//!
//! Use case 2.1 of the paper: RADICAL-Pilot's agent must be engineered
//! for "optimal resource utilization while maintaining full
//! generality" across task shapes — and Synapse proxy tasks are the
//! tool for exercising it without deploying real scientific codes.
//! This crate provides that downstream consumer: a node-local pilot
//! agent with core slots, a FIFO/backfill scheduler, and tasks that
//! are a core request plus a duration. The caller prices each task,
//! typically as the simulated Tx of emulating a Synapse profile on
//! the pilot's machine; the agent never calls the emulator.
//!
//! The agent runs in virtual time, so middleware experiments
//! (scheduler policies, task heterogeneity, pilot sizing) execute in
//! microseconds regardless of the workload's nominal hours.

pub mod agent;
pub mod report;
pub mod task;

pub use agent::{PilotAgent, SchedulerPolicy};
pub use report::{ScheduleReport, TaskRecord};
pub use task::ProxyTask;
