//! Declarative campaign specifications.
//!
//! A campaign declares *axes*; the engine sweeps their cartesian
//! product. Axes mirror the malleability dimensions of the paper's
//! evaluation: workloads × step counts (§5), machines (§5 "Experiment
//! Platform"), kernels (E.3), parallel modes and widths (E.4), I/O
//! block sizes (E.5) and profiling sample rates (E.1).

use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::error::CampaignError;
use crate::toml::toml_to_value;

/// Highest profiling sample rate a spec may ask for, in Hz. Together
/// with [`MAX_STEPS`] it bounds the samples one point can synthesize:
/// specs arrive from the network (`POST /campaigns`), and an unbounded
/// rate or step count is an effectively endless per-point loop.
pub const MAX_SAMPLE_RATE_HZ: f64 = 1000.0;

/// Highest iteration count a workload may sweep (see
/// [`MAX_SAMPLE_RATE_HZ`]).
pub const MAX_STEPS: u64 = 1_000_000_000;

/// One workload axis entry: an application model plus step counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Application name: `gromacs` or `amber`
    /// (see [`synapse_workloads::AppModel`]).
    pub app: String,
    /// Iteration counts to sweep.
    pub steps: Vec<u64>,
}

/// Optional pilot-scheduling stage: after the sweep, each machine's
/// scenario points are packed onto a pilot agent as proxy tasks, each
/// running for its point's emulated `tx`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PilotSpec {
    /// Scheduler policy: `fifo` or `backfill`.
    pub policy: String,
}

/// A declarative scenario sweep (deserializable from TOML or JSON).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Campaign name (reports carry it).
    pub name: String,
    /// Master seed; every scenario point derives its own seed from it.
    #[serde(default)]
    pub seed: u64,
    /// Workloads to sweep.
    pub workloads: Vec<WorkloadSpec>,
    /// Machine models to sweep (catalog names).
    pub machines: Vec<String>,
    /// Compute kernels to sweep (`asm` | `c` | `spin`).
    pub kernels: Vec<String>,
    /// Parallel modes (`openmp` | `mpi`). Empty ⇒ `["openmp"]`.
    #[serde(default)]
    pub modes: Vec<String>,
    /// Worker widths. Empty ⇒ `[1]`.
    #[serde(default)]
    pub threads: Vec<u32>,
    /// I/O block sizes in bytes. Empty ⇒ `[1 MiB]`.
    #[serde(default)]
    pub io_blocks: Vec<u64>,
    /// Profiling sample rates in Hz. Empty ⇒ `[10.0]`.
    #[serde(default)]
    pub sample_rates: Vec<f64>,
    /// Target filesystems (`default` | `local` | `lustre` | `nfs`).
    /// `default` resolves to each machine's own default filesystem.
    /// Empty ⇒ `["default"]`.
    #[serde(default)]
    pub filesystems: Vec<String>,
    /// Atom-enable ablations: which emulation atoms run per point.
    /// `all`, a `+`-joined subset of `compute`/`memory`/`storage`/
    /// `network` (e.g. `compute+storage`), or `no-<atom>` for all but
    /// one. Empty ⇒ `["all"]`.
    #[serde(default)]
    pub atoms: Vec<String>,
    /// Sample-ordering modes (`preserve` | `shuffle`): the paper's
    /// Fig. 2 sample-ordering ablation as a grid axis. `shuffle`
    /// merges the whole profile into one all-concurrent sample before
    /// replay. Empty ⇒ `["preserve"]`.
    #[serde(default)]
    pub sample_order: Vec<String>,
    /// Machine the synthetic profiles are "taken" on (the paper
    /// profiles on Thinkie). Empty ⇒ `thinkie`.
    #[serde(default)]
    pub profile_machine: String,
    /// Machine used as the baseline for relative-error aggregation.
    /// Empty ⇒ the first machine of the axis.
    #[serde(default)]
    pub reference_machine: String,
    /// Coefficient of variation of the simulated measurement noise
    /// (seeded, so still deterministic). Defaults to 0.
    #[serde(default)]
    pub noise_cv: f64,
    /// Optional pilot-scheduling stage.
    #[serde(default)]
    pub pilot: Option<PilotSpec>,
}

impl CampaignSpec {
    /// Parse a spec from JSON text.
    pub fn from_json(text: &str) -> Result<Self, CampaignError> {
        let spec: CampaignSpec = serde_json::from_str(text)?;
        spec.validated()
    }

    /// Parse a spec from TOML text (the subset documented in
    /// [`crate::toml`]).
    pub fn from_toml(text: &str) -> Result<Self, CampaignError> {
        let value = toml_to_value(text)?;
        let spec: CampaignSpec = serde_json::from_value(value)?;
        spec.validated()
    }

    /// Load a spec from a file, dispatching on the extension
    /// (`.json` ⇒ JSON, anything else ⇒ TOML).
    pub fn from_path(path: impl AsRef<Path>) -> Result<Self, CampaignError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)?;
        if path.extension().is_some_and(|e| e == "json") {
            Self::from_json(&text)
        } else {
            Self::from_toml(&text)
        }
    }

    /// Apply defaults, validate axis values against the catalogs and
    /// rewrite each to its catalog spelling. Idempotent: validating an
    /// already-canonical spec changes nothing, so specs can safely
    /// re-validate after a network hop (the cluster lease path does).
    pub fn validated(mut self) -> Result<Self, CampaignError> {
        if self.modes.is_empty() {
            self.modes = vec!["openmp".into()];
        }
        if self.threads.is_empty() {
            self.threads = vec![1];
        }
        if self.io_blocks.is_empty() {
            self.io_blocks = vec![1 << 20];
        }
        if self.sample_rates.is_empty() {
            self.sample_rates = vec![10.0];
        }
        if self.filesystems.is_empty() {
            self.filesystems = vec!["default".into()];
        }
        if self.atoms.is_empty() {
            self.atoms = vec!["all".into()];
        }
        if self.sample_order.is_empty() {
            self.sample_order = vec!["preserve".into()];
        }
        if self.profile_machine.is_empty() {
            self.profile_machine = "thinkie".into();
        }
        if self.reference_machine.is_empty() {
            self.reference_machine = self
                .machines
                .first()
                .cloned()
                .ok_or(CampaignError::EmptyAxis("machines"))?;
        }

        if self.workloads.is_empty() {
            return Err(CampaignError::EmptyAxis("workloads"));
        }
        if self.workloads.iter().any(|w| w.steps.is_empty()) {
            return Err(CampaignError::EmptyAxis("workloads.steps"));
        }
        if self.kernels.is_empty() {
            return Err(CampaignError::EmptyAxis("kernels"));
        }
        // Validate *and canonicalize* every named axis: the stored
        // strings feed fingerprints, per-point seeds and report
        // slices, so equivalent spellings ("Comet", "ASM", "omp",
        // "Lustre", "storage+compute") must collapse to one canonical
        // form or identical scenarios would miss the cache and draw
        // different noise.
        for w in &mut self.workloads {
            crate::grid::app_by_name(&w.app)
                .ok_or_else(|| CampaignError::UnknownWorkload(w.app.clone()))?;
            w.app.make_ascii_lowercase();
        }
        for m in self
            .machines
            .iter_mut()
            .chain([&mut self.profile_machine, &mut self.reference_machine])
        {
            *m = synapse_sim::machine_ref(m)
                .ok_or_else(|| CampaignError::UnknownMachine(m.clone()))?
                .name
                .clone();
        }
        for k in &mut self.kernels {
            let resolved = crate::grid::kernel_by_name(k)
                .ok_or_else(|| CampaignError::UnknownKernel(k.clone()))?;
            *k = resolved.name().into();
        }
        for m in &mut self.modes {
            let resolved = crate::grid::mode_by_name(m)
                .ok_or_else(|| CampaignError::UnknownMode(m.clone()))?;
            *m = match resolved {
                synapse_sim::ParallelMode::OpenMp => "openmp".into(),
                synapse_sim::ParallelMode::Mpi => "mpi".into(),
            };
        }
        for f in &mut self.filesystems {
            let resolved = crate::grid::fs_by_name(f)
                .ok_or_else(|| CampaignError::UnknownFilesystem(f.clone()))?;
            *f = match resolved {
                None => "default".into(),
                Some(kind) => kind.name().into(),
            };
        }
        for a in &mut self.atoms {
            let resolved = crate::grid::atoms_by_name(a)
                .ok_or_else(|| CampaignError::UnknownAtomSet(a.clone()))?;
            *a = resolved.canonical().to_string();
        }
        for o in &mut self.sample_order {
            let resolved = crate::grid::sample_order_by_name(o)
                .ok_or_else(|| CampaignError::UnknownSampleOrder(o.clone()))?;
            *o = resolved.into();
        }
        if !self.machines.contains(&self.reference_machine) {
            return Err(CampaignError::Spec(format!(
                "reference machine {:?} is not on the machines axis",
                self.reference_machine
            )));
        }
        if let Some(pilot) = &mut self.pilot {
            let resolved = crate::grid::policy_by_name(&pilot.policy).ok_or_else(|| {
                CampaignError::Spec(format!(
                    "unknown pilot policy {:?} (fifo | backfill)",
                    pilot.policy
                ))
            })?;
            pilot.policy = match resolved {
                synapse_pilot::SchedulerPolicy::Fifo => "fifo".into(),
                synapse_pilot::SchedulerPolicy::Backfill => "backfill".into(),
            };
        }
        for &rate in &self.sample_rates {
            // Written so that NaN fails the range test too.
            if !(rate > 0.0 && rate <= MAX_SAMPLE_RATE_HZ) {
                return Err(CampaignError::Spec(format!(
                    "sample rate must be in (0, {MAX_SAMPLE_RATE_HZ}] Hz, got {rate}"
                )));
            }
        }
        for w in &self.workloads {
            if let Some(steps) = w.steps.iter().find(|&&s| s > MAX_STEPS) {
                return Err(CampaignError::Spec(format!(
                    "workload {:?}: steps must be <= {MAX_STEPS}, got {steps}",
                    w.app
                )));
            }
        }
        if !self.noise_cv.is_finite() || self.noise_cv < 0.0 {
            return Err(CampaignError::Spec(format!(
                "noise_cv must be finite and >= 0, got {}",
                self.noise_cv
            )));
        }
        Ok(self)
    }

    /// Number of scenario points the spec expands into.
    pub fn point_count(&self) -> usize {
        let steps: usize = self.workloads.iter().map(|w| w.steps.len()).sum();
        steps
            * self.machines.len()
            * self.kernels.len()
            * self.modes.len()
            * self.threads.len()
            * self.io_blocks.len()
            * self.sample_rates.len()
            * self.filesystems.len()
            * self.atoms.len()
            * self.sample_order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_toml() -> &'static str {
        r#"
        name = "mini"
        seed = 7
        machines = ["thinkie", "comet"]
        kernels = ["asm", "c"]

        [[workloads]]
        app = "gromacs"
        steps = [10000, 50000]
        "#
    }

    #[test]
    fn toml_spec_parses_with_defaults() {
        let spec = CampaignSpec::from_toml(minimal_toml()).unwrap();
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.modes, vec!["openmp".to_string()]);
        assert_eq!(spec.threads, vec![1]);
        assert_eq!(spec.io_blocks, vec![1 << 20]);
        assert_eq!(spec.sample_rates, vec![10.0]);
        assert_eq!(spec.filesystems, vec!["default".to_string()]);
        assert_eq!(spec.atoms, vec!["all".to_string()]);
        assert_eq!(spec.sample_order, vec!["preserve".to_string()]);
        assert_eq!(spec.profile_machine, "thinkie");
        assert_eq!(spec.reference_machine, "thinkie");
        assert_eq!(spec.point_count(), 2 * 2 * 2);
        assert!(spec.pilot.is_none());
    }

    #[test]
    fn json_spec_parses() {
        let json =
            serde_json::to_string(&CampaignSpec::from_toml(minimal_toml()).unwrap()).unwrap();
        let spec = CampaignSpec::from_json(&json).unwrap();
        assert_eq!(spec.point_count(), 8);
    }

    #[test]
    fn unknown_axis_values_are_rejected() {
        let bad_machine = minimal_toml().replace("comet", "frontier");
        assert!(matches!(
            CampaignSpec::from_toml(&bad_machine),
            Err(CampaignError::UnknownMachine(_))
        ));
        let bad_kernel = minimal_toml().replace("\"c\"", "\"fortran\"");
        assert!(matches!(
            CampaignSpec::from_toml(&bad_kernel),
            Err(CampaignError::UnknownKernel(_))
        ));
        let bad_app = minimal_toml().replace("gromacs", "namd");
        assert!(matches!(
            CampaignSpec::from_toml(&bad_app),
            Err(CampaignError::UnknownWorkload(_))
        ));
    }

    #[test]
    fn reference_machine_must_be_on_axis() {
        // Top-level keys must precede table sections in TOML.
        let toml = format!("reference_machine = \"titan\"\n{}", minimal_toml());
        assert!(matches!(
            CampaignSpec::from_toml(&toml),
            Err(CampaignError::Spec(_))
        ));
        let ok = format!("reference_machine = \"comet\"\n{}", minimal_toml());
        assert_eq!(
            CampaignSpec::from_toml(&ok).unwrap().reference_machine,
            "comet"
        );
    }

    #[test]
    fn empty_axes_are_rejected() {
        let toml = r#"
        name = "empty"
        machines = ["thinkie"]
        kernels = []

        [[workloads]]
        app = "gromacs"
        steps = [1000]
        "#;
        assert!(matches!(
            CampaignSpec::from_toml(toml),
            Err(CampaignError::EmptyAxis("kernels"))
        ));
    }

    #[test]
    fn filesystem_and_atom_axes_parse_and_multiply() {
        let toml = format!(
            "filesystems = [\"default\", \"lustre\"]\natoms = [\"all\", \"no-storage\"]\n{}",
            minimal_toml()
        );
        let spec = CampaignSpec::from_toml(&toml).unwrap();
        assert_eq!(
            spec.filesystems,
            vec!["default".to_string(), "lustre".into()]
        );
        assert_eq!(spec.atoms, vec!["all".to_string(), "no-storage".into()]);
        assert_eq!(spec.point_count(), 2 * 2 * 2 * 2 * 2);
    }

    #[test]
    fn filesystem_and_atom_spellings_canonicalize() {
        // Equivalent spellings must collapse to one canonical form —
        // the stored strings feed fingerprints and per-point seeds.
        let toml = format!(
            "filesystems = [\"Lustre\", \"/tmp\"]\natoms = [\"ALL\", \"storage+compute\", \"No-Storage\"]\n{}",
            minimal_toml()
        );
        let spec = CampaignSpec::from_toml(&toml).unwrap();
        assert_eq!(spec.filesystems, vec!["lustre".to_string(), "local".into()]);
        assert_eq!(
            spec.atoms,
            vec![
                "all".to_string(),
                "compute+storage".into(),
                "no-storage".into()
            ]
        );
    }

    #[test]
    fn unknown_filesystem_and_atom_set_are_rejected() {
        let bad_fs = format!("filesystems = [\"gpfs\"]\n{}", minimal_toml());
        assert!(matches!(
            CampaignSpec::from_toml(&bad_fs),
            Err(CampaignError::UnknownFilesystem(_))
        ));
        let bad_atoms = format!("atoms = [\"no-everything\"]\n{}", minimal_toml());
        assert!(matches!(
            CampaignSpec::from_toml(&bad_atoms),
            Err(CampaignError::UnknownAtomSet(_))
        ));
    }

    #[test]
    fn sample_order_axis_parses_canonicalizes_and_multiplies() {
        let toml = format!(
            "sample_order = [\"Preserve\", \"SHUFFLE\"]\n{}",
            minimal_toml()
        );
        let spec = CampaignSpec::from_toml(&toml).unwrap();
        assert_eq!(
            spec.sample_order,
            vec!["preserve".to_string(), "shuffle".into()]
        );
        assert_eq!(spec.point_count(), 2 * 2 * 2 * 2);
        // Alternate spellings collapse onto the canonical pair.
        let merged = format!("sample_order = [\"merge\"]\n{}", minimal_toml());
        assert_eq!(
            CampaignSpec::from_toml(&merged).unwrap().sample_order,
            vec!["shuffle".to_string()]
        );
        let bad = format!("sample_order = [\"random\"]\n{}", minimal_toml());
        assert!(matches!(
            CampaignSpec::from_toml(&bad),
            Err(CampaignError::UnknownSampleOrder(_))
        ));
    }

    #[test]
    fn unbounded_sample_counts_are_rejected() {
        let ok = CampaignSpec::from_toml(minimal_toml()).unwrap();
        let with_rates = |rates: &[f64]| {
            let mut spec = ok.clone();
            spec.sample_rates = rates.to_vec();
            spec.validated()
        };
        for bad in [
            1e9,
            MAX_SAMPLE_RATE_HZ * 1.001,
            0.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
        ] {
            assert!(
                matches!(with_rates(&[10.0, bad]), Err(CampaignError::Spec(_))),
                "rate {bad} must be rejected"
            );
        }
        assert!(with_rates(&[0.001, MAX_SAMPLE_RATE_HZ]).is_ok());

        let with_steps = |steps: u64| {
            let mut spec = ok.clone();
            spec.workloads[0].steps.push(steps);
            spec.validated()
        };
        assert!(matches!(
            with_steps(1_000_000_000_000_000_000),
            Err(CampaignError::Spec(_))
        ));
        assert!(matches!(
            with_steps(MAX_STEPS + 1),
            Err(CampaignError::Spec(_))
        ));
        assert!(with_steps(MAX_STEPS).is_ok());

        // The same bound holds on the wire format the server parses.
        let json = serde_json::to_string(&ok)
            .unwrap()
            .replace("\"sample_rates\":[10.0]", "\"sample_rates\":[1e9]");
        assert!(json.contains("1e9"), "{json}");
        assert!(matches!(
            CampaignSpec::from_json(&json),
            Err(CampaignError::Spec(_))
        ));
    }

    #[test]
    fn pilot_stage_parses() {
        let toml = format!("{}\n[pilot]\npolicy = \"backfill\"\n", minimal_toml());
        let spec = CampaignSpec::from_toml(&toml).unwrap();
        assert_eq!(spec.pilot.unwrap().policy, "backfill");
        let bad = format!("{}\n[pilot]\npolicy = \"random\"\n", minimal_toml());
        assert!(CampaignSpec::from_toml(&bad).is_err());
    }
}
