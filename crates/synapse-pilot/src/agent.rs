//! The pilot agent: core slots plus a scheduler, running in virtual
//! time.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use synapse_sim::MachineModel;

use crate::report::{ScheduleReport, TaskRecord};
use crate::task::ProxyTask;

/// Scheduling policy of the agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// Strict arrival order: a task that does not fit blocks the queue.
    Fifo,
    /// Arrival order with backfill: later tasks may start early when
    /// they fit into currently free cores.
    Backfill,
}

/// A node-local pilot agent executing proxy tasks on a machine model.
pub struct PilotAgent {
    machine: MachineModel,
    policy: SchedulerPolicy,
}

/// Totally-ordered f64 end-times for the event heap.
#[derive(PartialEq)]
struct EndEvent {
    time: f64,
    cores: u32,
}

impl Eq for EndEvent {}

impl PartialOrd for EndEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EndEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .partial_cmp(&other.time)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.cores.cmp(&other.cores))
    }
}

impl PilotAgent {
    /// An agent occupying one full node of `machine`.
    pub fn new(machine: MachineModel, policy: SchedulerPolicy) -> Self {
        PilotAgent { machine, policy }
    }

    /// Execute a workload; returns the schedule.
    ///
    /// Virtual-time event loop: tasks start when enough cores are
    /// free; under [`SchedulerPolicy::Backfill`] the scheduler scans
    /// past a blocked head-of-queue task for smaller ones that fit.
    pub fn execute(&self, tasks: &[ProxyTask]) -> ScheduleReport {
        let total_cores = self.machine.cpu.ncores;
        let mut pending: Vec<(usize, &ProxyTask)> = tasks.iter().enumerate().collect();
        let mut running: BinaryHeap<Reverse<EndEvent>> = BinaryHeap::new();
        let mut free = total_cores;
        let mut now = 0.0f64;
        let mut records: Vec<TaskRecord> = Vec::with_capacity(tasks.len());

        while !pending.is_empty() || !running.is_empty() {
            // Start everything that fits under the policy.
            let mut started = Vec::new();
            for (slot, (_, task)) in pending.iter().enumerate() {
                let cores = task.cores.min(total_cores);
                if cores <= free {
                    records.push(TaskRecord {
                        id: task.id.clone(),
                        cores,
                        start: now,
                        end: now + task.duration,
                    });
                    running.push(Reverse(EndEvent {
                        time: now + task.duration,
                        cores,
                    }));
                    free -= cores;
                    started.push(slot);
                    if free == 0 {
                        break;
                    }
                } else if self.policy == SchedulerPolicy::Fifo {
                    break; // FIFO: blocked head blocks everyone
                }
            }
            for slot in started.into_iter().rev() {
                pending.remove(slot);
            }
            // Advance time to the next completion.
            if let Some(Reverse(event)) = running.pop() {
                now = now.max(event.time);
                free += event.cores;
                // Drain every completion at the same instant.
                while let Some(Reverse(next)) = running.peek() {
                    if next.time <= now {
                        free += next.cores;
                        running.pop();
                    } else {
                        break;
                    }
                }
            } else if !pending.is_empty() {
                // Nothing running and nothing fits: impossible since
                // requests are clamped to the node size; defensive
                // break to avoid an infinite loop on malformed input.
                break;
            }
        }

        records.sort_by(|a, b| a.end.partial_cmp(&b.end).unwrap());
        let makespan = records.last().map_or(0.0, |r| r.end);
        ScheduleReport {
            tasks: records,
            total_cores,
            makespan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synapse_sim::titan;

    #[test]
    fn single_task_runs_alone() {
        let agent = PilotAgent::new(titan(), SchedulerPolicy::Fifo);
        let report = agent.execute(&[ProxyTask::new("only", 4, 10.0)]);
        assert_eq!(report.tasks.len(), 1);
        assert_eq!(report.makespan, 10.0);
        assert_eq!(report.tasks[0].start, 0.0);
    }

    #[test]
    fn parallel_tasks_share_the_node() {
        let agent = PilotAgent::new(titan(), SchedulerPolicy::Fifo);
        // Titan has 16 cores: four 4-core tasks run concurrently.
        let tasks: Vec<ProxyTask> = (0..4)
            .map(|i| ProxyTask::new(format!("t{i}"), 4, 10.0))
            .collect();
        let report = agent.execute(&tasks);
        assert_eq!(report.tasks.len(), 4);
        // All started at 0 (they fit together).
        assert!(report.tasks.iter().all(|t| t.start == 0.0));
        assert!(report.utilization() > 0.9);
    }

    #[test]
    fn oversubscription_serializes() {
        let agent = PilotAgent::new(titan(), SchedulerPolicy::Fifo);
        // Two 16-core tasks cannot overlap on a 16-core node.
        let tasks = [
            ProxyTask::new("first", 16, 10.0),
            ProxyTask::new("second", 16, 10.0),
        ];
        let report = agent.execute(&tasks);
        let first = report.tasks.iter().find(|t| t.id == "first").unwrap();
        let second = report.tasks.iter().find(|t| t.id == "second").unwrap();
        assert_eq!(second.start, first.end);
        assert_eq!(report.makespan, 20.0);
    }

    #[test]
    fn backfill_reduces_makespan_vs_fifo() {
        // Head-of-queue: a 16-core task after a 12-core task; FIFO
        // blocks the small 4-core task behind it, backfill slots it in.
        let workload = [
            ProxyTask::new("wide", 12, 40.0),
            ProxyTask::new("full", 16, 40.0),
            ProxyTask::new("small", 4, 40.0),
        ];
        let fifo = PilotAgent::new(titan(), SchedulerPolicy::Fifo).execute(&workload);
        let bf = PilotAgent::new(titan(), SchedulerPolicy::Backfill).execute(&workload);
        assert_eq!((fifo.makespan, bf.makespan), (120.0, 80.0));
        // Both ran everything.
        assert_eq!(fifo.tasks.len(), 3);
        assert_eq!(bf.tasks.len(), 3);
    }

    #[test]
    fn requests_wider_than_node_are_clamped() {
        let agent = PilotAgent::new(titan(), SchedulerPolicy::Fifo);
        let report = agent.execute(&[ProxyTask::new("huge", 64, 1.0)]);
        assert_eq!(report.tasks.len(), 1);
        assert_eq!(report.tasks[0].cores, 16);
    }

    #[test]
    fn empty_workload_is_empty_report() {
        let agent = PilotAgent::new(titan(), SchedulerPolicy::Backfill);
        let report = agent.execute(&[]);
        assert!(report.tasks.is_empty());
        assert_eq!(report.makespan, 0.0);
    }

    #[test]
    fn heterogeneous_workload_utilization_is_positive() {
        // Use case 2.3: ensemble stages with varying durations/widths.
        let agent = PilotAgent::new(titan(), SchedulerPolicy::Backfill);
        let tasks: Vec<ProxyTask> = (0..12)
            .map(|i| {
                ProxyTask::new(
                    format!("member-{i}"),
                    1 + (i % 4) as u32,
                    2.0 * (1 + i % 3) as f64,
                )
            })
            .collect();
        let report = agent.execute(&tasks);
        assert_eq!(report.tasks.len(), 12);
        assert!(report.utilization() > 0.3);
        assert!(report.utilization() <= 1.0);
    }
}
