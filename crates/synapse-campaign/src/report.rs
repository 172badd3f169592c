//! Campaign reports: deterministic JSON and CSV renderings.

use serde::{Deserialize, Serialize};
use synapse_pilot::{PilotAgent, ProxyTask};

use crate::aggregate::{axis_slices, reference_errors, AxisSlice, ReferenceError};
use crate::cache::ENGINE_VERSION;
use crate::error::CampaignError;
use crate::grid::{policy_by_name, Name};
use crate::live::LiveAggregates;
use crate::runner::PointResult;
use crate::spec::CampaignSpec;

/// One compact per-point row (the CSV payload, also embedded in the
/// JSON report).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointRow {
    /// Grid index.
    pub index: usize,
    /// Workload name.
    pub workload: Name,
    /// Iteration count.
    pub steps: u64,
    /// Target machine.
    pub machine: Name,
    /// Compute kernel.
    pub kernel: Name,
    /// Parallel mode.
    pub mode: Name,
    /// Worker width.
    pub threads: u32,
    /// I/O block size.
    pub io_block: u64,
    /// Sample rate in Hz.
    pub sample_rate: f64,
    /// Target filesystem axis value.
    pub fs: Name,
    /// Atom-ablation axis value.
    pub atoms: Name,
    /// Sample-ordering axis value (`preserve` | `shuffle`).
    pub sample_order: Name,
    /// Emulated runtime (virtual seconds).
    pub tx: f64,
    /// Application baseline runtime.
    pub app_tx: f64,
    /// Emulation error vs. the baseline, percent.
    pub error_pct: f64,
}

/// Outcome of the optional pilot-scheduling stage on one machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PilotSummary {
    /// The machine the pilot occupied.
    pub machine: String,
    /// Scheduler policy used.
    pub policy: String,
    /// Tasks scheduled (= scenario points on that machine).
    pub tasks: usize,
    /// Virtual makespan of the packed workload.
    pub makespan: f64,
    /// Core-seconds utilization of the pilot.
    pub utilization: f64,
}

/// The full, deterministic campaign report.
///
/// Identical spec + seed ⇒ byte-identical [`CampaignReport::to_json`]
/// output: every collection is sorted, floats format stably, and no
/// wall-clock quantity is included (throughput lives in
/// [`crate::runner::RunStats`], which is reported separately).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Campaign name from the spec.
    pub name: String,
    /// Engine version that produced the results.
    pub engine_version: u32,
    /// Master seed.
    pub seed: u64,
    /// Total scenario points.
    pub points: usize,
    /// Reference machine for the relative-difference view.
    pub reference_machine: String,
    /// Per-axis-value summaries, sorted by (axis, value).
    pub slices: Vec<AxisSlice>,
    /// Per-machine runtime deviation vs. the reference machine.
    pub reference_errors: Vec<ReferenceError>,
    /// Pilot stage summaries (empty when the stage is disabled).
    pub pilot: Vec<PilotSummary>,
    /// Per-point rows in grid order.
    pub results: Vec<PointRow>,
}

impl CampaignReport {
    /// Assemble a report from a finished sweep, folding its slices
    /// afresh.
    pub fn assemble(
        spec: &CampaignSpec,
        results: &[PointResult],
    ) -> Result<CampaignReport, CampaignError> {
        CampaignReport::with_slices(spec, results, axis_slices(results))
    }

    /// Assemble a report from a finished sweep whose points `live`
    /// recorded, one record each: its slices are the view's, read, not
    /// folded again. Refused with [`CampaignError::ViewMismatch`] when
    /// the view holds another number of points than `results`, so a
    /// report never carries slices of other points.
    pub fn assemble_from_view(
        spec: &CampaignSpec,
        results: &[PointResult],
        live: &LiveAggregates,
    ) -> Result<CampaignReport, CampaignError> {
        let view = live.points();
        if view != results.len() as u64 {
            return Err(CampaignError::ViewMismatch {
                view,
                results: results.len(),
            });
        }
        CampaignReport::with_slices(spec, results, live.slices())
    }

    fn with_slices(
        spec: &CampaignSpec,
        results: &[PointResult],
        slices: Vec<AxisSlice>,
    ) -> Result<CampaignReport, CampaignError> {
        let rows = results
            .iter()
            .map(|r| PointRow {
                index: r.point.index,
                workload: r.point.workload,
                steps: r.point.steps,
                machine: r.point.machine,
                kernel: r.point.kernel,
                mode: r.point.mode,
                threads: r.point.threads,
                io_block: r.point.io_block,
                sample_rate: r.point.sample_rate,
                fs: r.point.fs,
                atoms: r.point.atoms,
                sample_order: r.point.sample_order,
                tx: r.tx,
                app_tx: r.app_tx,
                error_pct: r.error_pct(),
            })
            .collect();
        let pilot = match &spec.pilot {
            Some(p) => pilot_stage(results, &p.policy)?,
            None => Vec::new(),
        };
        Ok(CampaignReport {
            name: spec.name.clone(),
            engine_version: ENGINE_VERSION,
            seed: spec.seed,
            points: results.len(),
            reference_machine: spec.reference_machine.clone(),
            slices,
            reference_errors: reference_errors(results, &spec.reference_machine),
            pilot,
            results: rows,
        })
    }

    /// Deterministic JSON rendering (compact).
    pub fn to_json(&self) -> Result<String, CampaignError> {
        Ok(serde_json::to_string(self)?)
    }

    /// Deterministic pretty JSON rendering.
    pub fn to_json_pretty(&self) -> Result<String, CampaignError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parse a report back from JSON.
    pub fn from_json(text: &str) -> Result<CampaignReport, CampaignError> {
        Ok(serde_json::from_str(text)?)
    }

    /// Per-point CSV rendering (header + one row per point, grid
    /// order).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "index,workload,steps,machine,kernel,mode,threads,io_block,sample_rate,fs,atoms,sample_order,tx,app_tx,error_pct\n",
        );
        for r in &self.results {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                r.index,
                r.workload,
                r.steps,
                r.machine,
                r.kernel,
                r.mode,
                r.threads,
                r.io_block,
                r.sample_rate,
                r.fs,
                r.atoms,
                r.sample_order,
                r.tx,
                r.app_tx,
                r.error_pct,
            ));
        }
        out
    }

    /// A short human-readable summary (CLI output).
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "campaign {:?}: {} points, reference machine {}\n",
            self.name, self.points, self.reference_machine
        ));
        for s in self.slices.iter().filter(|s| s.axis == "machine") {
            out.push_str(&format!(
                "  machine {:<10} tx p50={:>10.3}s p95={:>10.3}s p99={:>10.3}s  |err| mean={:>6.1}%\n",
                s.value, s.tx.p50, s.tx.p95, s.tx.p99, s.error_pct.mean.abs(),
            ));
        }
        for e in &self.reference_errors {
            out.push_str(&format!(
                "  vs {}: {:<10} mean {:+.1}% (p95 {:+.1}%) over {} pairs\n",
                self.reference_machine, e.machine, e.rel_diff_pct.mean, e.rel_diff_pct.p95, e.pairs,
            ));
        }
        for p in &self.pilot {
            out.push_str(&format!(
                "  pilot {:<10} {} tasks, makespan {:.1}s, utilization {:.0}%\n",
                p.machine,
                p.tasks,
                p.makespan,
                p.utilization * 100.0,
            ));
        }
        out
    }
}

/// Pack each machine's scenario points onto a pilot agent as proxy
/// tasks and report the schedule (use case 2.1 of the paper, at
/// campaign scale).
///
/// A point's task runs for the point's own emulated `tx` on its
/// `threads` cores: the report is a fold over the sweep's results, so
/// nothing is simulated again here.
fn pilot_stage(results: &[PointResult], policy: &str) -> Result<Vec<PilotSummary>, CampaignError> {
    let policy_enum = policy_by_name(policy)
        .ok_or_else(|| CampaignError::Spec(format!("unknown pilot policy {policy:?}")))?;
    let mut tasks_by_machine: std::collections::BTreeMap<&str, Vec<ProxyTask>> =
        std::collections::BTreeMap::new();
    for r in results {
        tasks_by_machine
            .entry(r.point.machine.as_str())
            .or_default()
            .push(ProxyTask::new(
                format!("point-{:06}", r.point.index),
                r.point.threads,
                r.tx,
            ));
    }

    let mut summaries = Vec::new();
    for (machine_name, tasks) in tasks_by_machine {
        let machine = synapse_sim::machine_by_name(machine_name)
            .ok_or_else(|| CampaignError::UnknownMachine(machine_name.to_string()))?;
        let agent = PilotAgent::new(machine, policy_enum);
        let schedule = agent.execute(&tasks);
        summaries.push(PilotSummary {
            machine: machine_name.to_string(),
            policy: policy.to_string(),
            tasks: schedule.tasks.len(),
            makespan: schedule.makespan,
            utilization: schedule.utilization(),
        });
    }
    Ok(summaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use crate::engine::{CampaignEngine, CancelToken};
    use crate::grid::expand;
    use crate::runner::RunConfig;

    fn spec(pilot: Option<&str>) -> CampaignSpec {
        let base = r#"
        name = "report"
        seed = 5
        machines = ["thinkie", "comet", "titan"]
        kernels = ["asm", "c"]

        [[workloads]]
        app = "gromacs"
        steps = [10000, 100000]
        "#;
        let text = match pilot {
            Some(policy) => format!("{base}\n[pilot]\npolicy = \"{policy}\"\n"),
            None => base.to_string(),
        };
        CampaignSpec::from_toml(&text).unwrap()
    }

    fn sweep(s: &CampaignSpec) -> Vec<PointResult> {
        CampaignEngine::new(&expand(s), &ResultCache::in_memory(), &RunConfig::default())
            .run(&|_| {}, &CancelToken::new())
            .unwrap()
            .0
    }

    fn report(pilot: Option<&str>) -> CampaignReport {
        let s = spec(pilot);
        CampaignReport::assemble(&s, &sweep(&s)).unwrap()
    }

    #[test]
    fn report_shape_and_grid_order() {
        let r = report(None);
        assert_eq!(r.points, 12);
        assert_eq!(r.results.len(), 12);
        for (i, row) in r.results.iter().enumerate() {
            assert_eq!(row.index, i);
        }
        assert!(r.pilot.is_empty());
        assert_eq!(r.reference_machine, "thinkie");
        assert_eq!(r.reference_errors.len(), 2);
        assert!(!r.slices.is_empty());
    }

    #[test]
    fn json_roundtrip_and_determinism() {
        let a = report(None);
        let b = report(None);
        let ja = a.to_json().unwrap();
        let jb = b.to_json().unwrap();
        assert_eq!(ja, jb, "byte-identical for identical spec+seed");
        let back = CampaignReport::from_json(&ja).unwrap();
        assert_eq!(back, a);
        // Pretty form parses back too.
        let pretty = a.to_json_pretty().unwrap();
        assert_eq!(CampaignReport::from_json(&pretty).unwrap(), a);
    }

    #[test]
    fn csv_has_header_and_all_rows() {
        let r = report(None);
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 13);
        assert!(lines[0].starts_with("index,workload,steps,machine"));
        assert!(lines[0].contains(",fs,atoms,sample_order,"));
        assert!(lines[1].starts_with("0,gromacs,10000,"));
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 15);
        }
    }

    #[test]
    fn pilot_stage_schedules_every_machine() {
        let r = report(Some("backfill"));
        assert_eq!(r.pilot.len(), 3);
        for p in &r.pilot {
            assert_eq!(p.policy, "backfill");
            assert_eq!(p.tasks, 4, "4 points per machine");
            assert!(p.makespan > 0.0);
            assert!(p.utilization > 0.0 && p.utilization <= 1.0);
        }
        let machines: Vec<&str> = r.pilot.iter().map(|p| p.machine.as_str()).collect();
        assert_eq!(machines, vec!["comet", "thinkie", "titan"], "sorted");
    }

    #[test]
    fn pilot_stage_schedules_each_point_for_its_own_tx() {
        // Ten-second single-core tasks under FIFO fill the node in
        // whole waves, so the schedule follows from `tx` alone.
        let s = spec(Some("fifo"));
        let mut results = sweep(&s);
        for r in &mut results {
            assert_eq!(r.point.threads, 1);
            r.tx = 10.0;
        }
        let r = CampaignReport::assemble(&s, &results).unwrap();
        assert_eq!(r.pilot.len(), 3);
        for p in &r.pilot {
            let ncores = synapse_sim::machine_ref(&p.machine).unwrap().cpu.ncores as usize;
            let waves = p.tasks.div_ceil(ncores);
            assert_eq!(p.makespan, waves as f64 * 10.0, "{}", p.machine);
            assert_eq!(
                p.utilization,
                p.tasks as f64 / (waves * ncores) as f64,
                "{}",
                p.machine
            );
        }
    }

    #[test]
    fn summary_renders_key_lines() {
        let r = report(Some("backfill"));
        let s = r.render_summary();
        assert!(s.contains("campaign \"report\""));
        assert!(s.contains("machine comet"));
        assert!(s.contains("vs thinkie"));
        assert!(s.contains("pilot"));
    }
}
