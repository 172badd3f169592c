//! Cartesian expansion of campaign axes into concrete scenario points.

use std::cell::RefCell;
use std::fmt;
use std::ops::Deref;

use serde::json::{write_shortest, write_u64, Parser};
use serde::{Deserialize, Serialize, Value};
use synapse::emulator::KernelChoice;
use synapse_pilot::SchedulerPolicy;
use synapse_sim::{FsKind, ParallelMode, MACHINE_NAMES};
use synapse_workloads::AppModel;

use crate::spec::CampaignSpec;

/// Canonical application names ([`app_by_name`]).
const APPS: [&str; 2] = ["gromacs", "amber"];
/// Canonical kernel names ([`KernelChoice::name`]).
const KERNELS: [&str; 3] = ["asm", "c", "spin"];
/// Canonical parallel-mode names ([`mode_by_name`]).
const MODES: [&str; 2] = ["openmp", "mpi"];
/// Canonical filesystem axis values: `default`, then [`FsKind::name`].
const FILESYSTEMS: [&str; 4] = ["default", "local", "lustre", "nfs"];
/// Canonical [`AtomSet`] spellings, indexed by [`AtomSet::bits`] − 1
/// (the empty set enables nothing and has no spelling).
const ATOM_SETS: [&str; 15] = [
    "compute",
    "memory",
    "compute+memory",
    "storage",
    "compute+storage",
    "memory+storage",
    "no-network",
    "network",
    "compute+network",
    "memory+network",
    "no-storage",
    "storage+network",
    "no-memory",
    "no-compute",
    "all",
];
/// Canonical sample-order values ([`sample_order_by_name`]).
const SAMPLE_ORDERS: [&str; 2] = ["preserve", "shuffle"];

/// Every spelling a [`Name`] decodes from: the canonical catalogs of
/// the eight name axes.
const CATALOGS: [&[&str]; 7] = [
    &MACHINE_NAMES,
    &APPS,
    &KERNELS,
    &MODES,
    &FILESYSTEMS,
    &ATOM_SETS,
    &SAMPLE_ORDERS,
];

/// A scenario point's name-axis value: a catalog spelling (a machine,
/// an application, a kernel, a mode, a filesystem, an atom set or a
/// sample order), held as a `&'static str` so a point is `Copy` and
/// building, copying, decoding and dropping one allocates nothing.
///
/// It reads as the `str` it holds (`Deref`, `==` with `&str` and
/// `String`) and serializes as that string, so every byte on the wire,
/// in the cache and in the report is the text a `String` would write.
/// Decoding looks the spelling up in the catalogs and fails on any
/// other: a document naming something the engine does not model is
/// not a point.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Name(&'static str);

impl Name {
    /// The catalog name spelled exactly `spelling` (case-sensitive —
    /// [`CampaignSpec::validated`] rewrites axis values to these
    /// spellings), or `None`.
    pub fn resolve(spelling: &str) -> Option<Name> {
        CATALOGS
            .iter()
            .flat_map(|catalog| catalog.iter())
            .find(|name| **name == spelling)
            .map(|name| Name(name))
    }

    /// The spelling.
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

/// Any static spelling, catalog or not: for points built in code
/// (tests probe odd names this way). Only catalog spellings decode.
impl From<&'static str> for Name {
    fn from(spelling: &'static str) -> Name {
        Name(spelling)
    }
}

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        self.0
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.0, f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.0 == other
    }
}

impl Serialize for Name {
    fn write_json(&self, out: &mut String) {
        serde::json::write_escaped(out, self.0);
    }
}

fn unknown_name(spelling: &str) -> serde::Error {
    serde::Error::new(format!("unknown name {spelling:?}"))
}

impl<'de> Deserialize<'de> for Name {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        let spelling = value
            .as_str()
            .ok_or_else(|| serde::Error::new(format!("expected string, found {}", value.kind())))?;
        Name::resolve(spelling).ok_or_else(|| unknown_name(spelling))
    }
    fn parse_json(parser: &mut Parser<'_>) -> Result<Self, serde::Error> {
        if parser.peek() != Some(b'"') {
            return Self::deserialize(&parser.parse_value()?);
        }
        let spelling = parser.parse_str()?;
        Name::resolve(&spelling).ok_or_else(|| unknown_name(&spelling))
    }
}

/// One concrete scenario: a fully-bound combination of axis values.
///
/// The point carries everything that determines its simulation outcome
/// (including campaign-level knobs like the profiling machine and the
/// noise level), so its content fingerprint is a sound memoization key.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioPoint {
    /// Position in deterministic grid order.
    pub index: usize,
    /// Workload/application name.
    pub workload: Name,
    /// Iteration count.
    pub steps: u64,
    /// Target machine (catalog name).
    pub machine: Name,
    /// Compute kernel (`asm` | `c` | `spin`).
    pub kernel: Name,
    /// Parallel mode (`openmp` | `mpi`).
    pub mode: Name,
    /// Worker width.
    pub threads: u32,
    /// I/O block size in bytes.
    pub io_block: u64,
    /// Profiling sample rate in Hz.
    pub sample_rate: f64,
    /// Target filesystem (`default` ⇒ the machine's own default).
    pub fs: Name,
    /// Atom-enable ablation set (`all`, `compute+storage`, `no-network`,
    /// ... — see [`atoms_by_name`]).
    pub atoms: Name,
    /// Sample-ordering mode (`preserve` | `shuffle` — the Fig. 2
    /// ordering ablation, see [`sample_order_by_name`]).
    pub sample_order: Name,
    /// Machine the synthetic profile is taken on.
    pub profile_machine: Name,
    /// Measurement-noise coefficient of variation.
    pub noise_cv: f64,
    /// Per-point seed, derived deterministically from the campaign
    /// seed and the point's axis values (not its index, so growing an
    /// axis never reshuffles existing points' seeds).
    pub seed: u64,
}

impl ScenarioPoint {
    /// Human-readable one-line label.
    pub fn label(&self) -> String {
        let mut label = String::new();
        self.write_label(&mut label);
        label
    }

    /// Append [`label`](ScenarioPoint::label)'s text to `out`:
    /// `gromacs/10000steps on thinkie [asm･openmp×1 io=65536 rate=10
    /// fs=default atoms=all order=preserve]`, the numbers as `Display`
    /// writes them. A catalog spelling needs no JSON escape, so the
    /// point event writes the label straight into its JSON string.
    pub fn write_label(&self, out: &mut String) {
        out.push_str(&self.workload);
        out.push('/');
        write_u64(out, self.steps);
        out.push_str("steps on ");
        out.push_str(&self.machine);
        out.push_str(" [");
        out.push_str(&self.kernel);
        out.push('･');
        out.push_str(&self.mode);
        out.push('×');
        write_u64(out, u64::from(self.threads));
        out.push_str(" io=");
        write_u64(out, self.io_block);
        out.push_str(" rate=");
        write_shortest(out, self.sample_rate);
        out.push_str(" fs=");
        out.push_str(&self.fs);
        out.push_str(" atoms=");
        out.push_str(&self.atoms);
        out.push_str(" order=");
        out.push_str(&self.sample_order);
        out.push(']');
    }
}

/// The value `table` lists under a spelling of `name`, ignoring ASCII
/// case. The axis lookups run once per scenario point, so they compare
/// in place where `to_ascii_lowercase` would allocate.
fn by_name<T: Clone>(name: &str, table: &[(&str, T)]) -> Option<T> {
    table
        .iter()
        .find(|(spelling, _)| name.eq_ignore_ascii_case(spelling))
        .map(|(_, value)| value.clone())
}

/// Resolve a workload name to its application model.
pub fn app_by_name(name: &str) -> Option<AppModel> {
    let [gromacs, amber] = APPS;
    by_name(
        name,
        &[(gromacs, AppModel::gromacs()), (amber, AppModel::amber())],
    )
}

/// Resolve a kernel name to a [`KernelChoice`].
pub fn kernel_by_name(name: &str) -> Option<KernelChoice> {
    by_name(
        name,
        &[
            ("asm", KernelChoice::Asm),
            ("c", KernelChoice::C),
            ("spin", KernelChoice::Spin),
        ],
    )
}

/// Resolve a parallel-mode name.
pub fn mode_by_name(name: &str) -> Option<ParallelMode> {
    by_name(
        name,
        &[
            ("openmp", ParallelMode::OpenMp),
            ("omp", ParallelMode::OpenMp),
            ("mpi", ParallelMode::Mpi),
            ("openmpi", ParallelMode::Mpi),
        ],
    )
}

/// Resolve a target-filesystem axis value. `default` (or an empty
/// string) means "the machine's own default filesystem" and resolves
/// to `None`; anything else must be a modelled [`FsKind`].
pub fn fs_by_name(name: &str) -> Option<Option<FsKind>> {
    if name.is_empty() || name.eq_ignore_ascii_case("default") {
        Some(None)
    } else {
        FsKind::parse(name).map(Some)
    }
}

/// Which emulation atoms a scenario point enables (the ablation
/// dimension already plumbed through
/// [`synapse::emulator::EmulationPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomSet {
    /// Run the compute atom.
    pub compute: bool,
    /// Run the memory atom.
    pub memory: bool,
    /// Run the storage atom.
    pub storage: bool,
    /// Run the network atom.
    pub network: bool,
}

impl AtomSet {
    /// Every atom enabled (the non-ablated default).
    pub fn all() -> AtomSet {
        AtomSet {
            compute: true,
            memory: true,
            storage: true,
            network: true,
        }
    }

    /// The canonical spelling of this set — the one stored in
    /// [`ScenarioPoint::atoms`], so that every equivalent input
    /// spelling (`ALL`, `storage+compute`, ...) produces the same
    /// fingerprint and per-point seed: `all`, `no-<atom>` for all but
    /// one, else the enabled atoms `+`-joined in compute, memory,
    /// storage, network order.
    ///
    /// # Panics
    ///
    /// On the empty set, which [`atoms_by_name`] never returns: a
    /// point that emulates nothing has no spelling.
    pub fn canonical(self) -> Name {
        let index = self
            .bits()
            .checked_sub(1)
            .expect("an atom set enables an atom");
        Name(ATOM_SETS[index])
    }

    /// The set as a bit mask: compute, memory, storage, network from
    /// the lowest bit up.
    fn bits(self) -> usize {
        usize::from(self.compute)
            | usize::from(self.memory) << 1
            | usize::from(self.storage) << 2
            | usize::from(self.network) << 3
    }
}

/// Resolve an atom-ablation name: `all`, a `+`-joined subset of
/// `compute`/`memory`/`storage`/`network` (e.g. `compute+storage`), or
/// `no-<atom>` for all-but-one.
pub fn atoms_by_name(name: &str) -> Option<AtomSet> {
    if name.eq_ignore_ascii_case("all") {
        return Some(AtomSet::all());
    }
    if let (Some(prefix), Some(dropped)) = (name.get(..3), name.get(3..)) {
        if prefix.eq_ignore_ascii_case("no-") {
            let mut set = AtomSet::all();
            *atom_flag(&mut set, dropped)? = false;
            return Some(set);
        }
    }
    let mut set = AtomSet {
        compute: false,
        memory: false,
        storage: false,
        network: false,
    };
    for part in name.split('+') {
        *atom_flag(&mut set, part.trim())? = true;
    }
    Some(set)
}

/// The flag of `set` that an atom name selects.
fn atom_flag<'s>(set: &'s mut AtomSet, atom: &str) -> Option<&'s mut bool> {
    let flags = [
        ("compute", &mut set.compute),
        ("memory", &mut set.memory),
        ("storage", &mut set.storage),
        ("network", &mut set.network),
    ];
    flags
        .into_iter()
        .find(|(spelling, _)| atom.eq_ignore_ascii_case(spelling))
        .map(|(_, flag)| flag)
}

/// Resolve a sample-order axis value to its canonical spelling:
/// `preserve` replays the profile's samples in profiled order;
/// `shuffle` ablates ordering by merging the whole profile into one
/// all-concurrent sample (the paper's Fig. 2 sample-ordering
/// ablation, `EmulationPlan::preserve_sample_order = false`).
pub fn sample_order_by_name(name: &str) -> Option<&'static str> {
    by_name(
        name,
        &[
            ("preserve", "preserve"),
            ("ordered", "preserve"),
            ("", "preserve"),
            ("shuffle", "shuffle"),
            ("merge", "shuffle"),
            ("unordered", "shuffle"),
        ],
    )
}

/// Whether a canonical sample-order value preserves profiled order.
pub fn sample_order_preserves(canonical: &str) -> bool {
    canonical != "shuffle"
}

/// Resolve a pilot scheduler policy name.
pub fn policy_by_name(name: &str) -> Option<SchedulerPolicy> {
    by_name(
        name,
        &[
            ("fifo", SchedulerPolicy::Fifo),
            ("backfill", SchedulerPolicy::Backfill),
        ],
    )
}

/// FNV-1a 64-bit, the workspace-wide stable hash for seeds and
/// fingerprints (no `DefaultHasher` — its output may change between
/// Rust releases, which would silently invalidate caches).
pub fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut hash = Fnv::new(seed);
    hash.fold(bytes);
    hash.finish()
}

/// A running [`fnv1a`] state. FNV folds one byte at a time from the
/// left, so hashing a text in pieces gives the hash of the whole text:
/// a state can be carried past a common prefix and copied.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    /// The state before any byte, under `seed`.
    pub fn new(seed: u64) -> Fnv {
        Fnv(0xcbf29ce484222325 ^ seed)
    }

    /// Fold `bytes` in.
    pub fn fold(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
        self.0 = hash;
    }

    /// This state with the number `write` spells and then `end` folded
    /// in. The number is written by the JSON layer's writers (`{n}`'s
    /// and `{f}`'s text) into one buffer per thread, reused from grid
    /// to grid.
    fn number(mut self, write: impl FnOnce(&mut String), end: &[u8]) -> Fnv {
        thread_local! {
            static TEXT: RefCell<String> = const { RefCell::new(String::new()) };
        }
        TEXT.with_borrow_mut(|text| {
            text.clear();
            write(text);
            self.fold(text.as_bytes());
        });
        self.fold(end);
        self
    }

    /// This state with `name` and a `|` folded in.
    fn field(mut self, name: Name) -> Fnv {
        self.fold(name.as_bytes());
        self.fold(b"|");
        self
    }

    /// The hash of everything folded in so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Expand a validated spec into its full scenario grid, in
/// deterministic axis order (workloads ▸ steps ▸ machines ▸ kernels ▸
/// modes ▸ threads ▸ io_blocks ▸ sample_rates ▸ filesystems ▸ atoms ▸
/// sample_order).
pub fn expand(spec: &CampaignSpec) -> Vec<ScenarioPoint> {
    expand_range(spec, 0, usize::MAX)
}

/// Expand only grid indices `start..end` of the spec's scenario grid
/// (the unit a cluster lease executes): identical order and content to
/// the corresponding slice of [`expand`] — points keep their *global*
/// `index` — but only the requested range is materialized and the
/// walk stops at `end`, so serving a lease costs the lease, not the
/// grid.
///
/// Each axis value resolves to its [`Name`] once per grid. A point's
/// seed is the [`fnv1a`] hash of its axis values joined by `|`, and
/// the walk carries that hash down the loop nest: each value is folded
/// in once per loop level, so a point costs the fold of its last few
/// values, and a grid costs the returned vector and the resolved
/// names (and, on a thread's first grid, the buffer numbers are
/// written into), nothing per point.
///
/// # Panics
///
/// If a named axis holds a value outside the catalogs — `spec` must
/// have passed [`CampaignSpec::validated`], which spells every value
/// canonically.
pub fn expand_range(spec: &CampaignSpec, start: usize, end: usize) -> Vec<ScenarioPoint> {
    let name = |spelling: &str| {
        Name::resolve(spelling).unwrap_or_else(|| {
            panic!("axis value {spelling:?} is not canonical: validate the spec")
        })
    };
    let total = spec.point_count();
    let mut points = Vec::with_capacity(end.min(total).saturating_sub(start.min(total)));
    let profile_machine = name(&spec.profile_machine);
    let noise_cv = spec.noise_cv;
    let named = [
        &spec.machines,
        &spec.kernels,
        &spec.modes,
        &spec.filesystems,
        &spec.atoms,
        &spec.sample_order,
    ];
    let mut names = Vec::with_capacity(named.iter().map(|axis| axis.len()).sum());
    names.extend(named.iter().flat_map(|axis| axis.iter()).map(|v| name(v)));
    let (machines, rest) = names.split_at(spec.machines.len());
    let (kernels, rest) = rest.split_at(spec.kernels.len());
    let (modes, rest) = rest.split_at(spec.modes.len());
    let (filesystems, rest) = rest.split_at(spec.filesystems.len());
    let (atom_sets, orders) = rest.split_at(spec.atoms.len());
    let seeded = Fnv::new(spec.seed);
    let mut index = 0usize;
    'grid: for workload in &spec.workloads {
        let app = name(&workload.app);
        let h_app = seeded.field(app);
        for &steps in &workload.steps {
            let h_steps = h_app.number(|t| write_u64(t, steps), b"|");
            for &machine in machines {
                let h_machine = h_steps.field(machine);
                for &kernel in kernels {
                    let h_kernel = h_machine.field(kernel);
                    for &mode in modes {
                        let h_mode = h_kernel.field(mode);
                        for &threads in &spec.threads {
                            let h_threads = h_mode.number(|t| write_u64(t, threads.into()), b"|");
                            for &io_block in &spec.io_blocks {
                                let h_io = h_threads.number(|t| write_u64(t, io_block), b"|");
                                for &sample_rate in &spec.sample_rates {
                                    let h_rate =
                                        h_io.number(|t| write_shortest(t, sample_rate), b"|");
                                    for &fs in filesystems {
                                        let h_fs = h_rate.field(fs);
                                        for &atoms in atom_sets {
                                            let h_atoms = h_fs.field(atoms);
                                            for &order in orders {
                                                if index >= end {
                                                    break 'grid;
                                                }
                                                if index >= start {
                                                    let seed = h_atoms
                                                        .field(order)
                                                        .field(profile_machine)
                                                        .number(
                                                            |t| write_shortest(t, noise_cv),
                                                            b"",
                                                        );
                                                    points.push(ScenarioPoint {
                                                        index,
                                                        workload: app,
                                                        steps,
                                                        machine,
                                                        kernel,
                                                        mode,
                                                        threads,
                                                        io_block,
                                                        sample_rate,
                                                        fs,
                                                        atoms,
                                                        sample_order: order,
                                                        profile_machine,
                                                        noise_cv,
                                                        seed: seed.finish(),
                                                    });
                                                }
                                                index += 1;
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, WorkloadSpec};

    fn spec() -> CampaignSpec {
        CampaignSpec::from_toml(
            r#"
            name = "grid"
            seed = 3
            machines = ["thinkie", "comet", "titan"]
            kernels = ["asm", "c"]
            modes = ["openmp", "mpi"]
            threads = [1, 4]

            [[workloads]]
            app = "gromacs"
            steps = [10000, 100000]
            "#,
        )
        .unwrap()
    }

    #[test]
    fn expansion_matches_point_count_and_indices() {
        let s = spec();
        let points = expand(&s);
        assert_eq!(points.len(), s.point_count());
        assert_eq!(points.len(), 2 * 3 * 2 * 2 * 2);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
        }
    }

    #[test]
    fn expansion_is_deterministic() {
        let a = expand(&spec());
        let b = expand(&spec());
        assert_eq!(a, b);
    }

    #[test]
    fn range_expansion_matches_the_full_grid_slice() {
        let s = spec();
        let full = expand(&s);
        for (start, end) in [
            (0, full.len()),
            (3, 17),
            (0, 1),
            (full.len() - 1, full.len()),
        ] {
            let ranged = expand_range(&s, start, end);
            assert_eq!(ranged, full[start..end], "{start}..{end}");
        }
        // Global indices survive slicing; out-of-range is empty.
        assert_eq!(expand_range(&s, 5, 8)[0].index, 5);
        assert!(expand_range(&s, full.len(), full.len() + 4).is_empty());
        assert!(expand_range(&s, 9, 9).is_empty());
    }

    #[test]
    fn seeds_differ_per_point_but_are_stable_under_axis_growth() {
        let s = spec();
        let points = expand(&s);
        let mut seeds: Vec<u64> = points.iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), points.len(), "all seeds distinct");

        // Growing the machines axis keeps existing points' seeds.
        let mut grown = s.clone();
        grown.machines.push("stampede".into());
        let grown_points = expand(&grown);
        for p in &points {
            let same = grown_points
                .iter()
                .find(|q| {
                    q.machine == p.machine
                        && q.steps == p.steps
                        && q.kernel == p.kernel
                        && q.mode == p.mode
                        && q.threads == p.threads
                })
                .unwrap();
            assert_eq!(same.seed, p.seed, "seed survives axis growth");
        }
    }

    #[test]
    fn campaign_seed_changes_all_point_seeds() {
        let s = spec();
        let mut reseeded = s.clone();
        reseeded.seed = 4;
        let a = expand(&s);
        let b = expand(&reseeded);
        assert!(a.iter().zip(&b).all(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn name_resolvers() {
        assert!(app_by_name("GROMACS").is_some());
        assert!(app_by_name("amber").is_some());
        assert!(app_by_name("namd").is_none());
        assert!(kernel_by_name("ASM").is_some());
        assert!(kernel_by_name("rust").is_none());
        assert!(mode_by_name("mpi").is_some());
        assert!(mode_by_name("serial").is_none());
        assert!(policy_by_name("backfill").is_some());
        assert!(policy_by_name("sjf").is_none());
    }

    #[test]
    fn fs_and_atom_resolvers() {
        assert_eq!(fs_by_name("default"), Some(None));
        assert_eq!(fs_by_name(""), Some(None));
        assert_eq!(fs_by_name("lustre"), Some(Some(FsKind::Lustre)));
        assert_eq!(fs_by_name("LOCAL"), Some(Some(FsKind::Local)));
        assert_eq!(fs_by_name("gpfs"), None);

        assert_eq!(atoms_by_name("all"), Some(AtomSet::all()));
        let no_storage = atoms_by_name("no-storage").unwrap();
        assert!(no_storage.compute && no_storage.memory && no_storage.network);
        assert!(!no_storage.storage);
        let cs = atoms_by_name("compute+storage").unwrap();
        assert!(cs.compute && cs.storage);
        assert!(!cs.memory && !cs.network);
        assert_eq!(atoms_by_name("compute"), atoms_by_name("COMPUTE"));
        assert!(atoms_by_name("no-everything").is_none());
        assert!(atoms_by_name("compute+gpu").is_none());

        // Canonical spellings round-trip; variants collapse onto them.
        for name in ["all", "no-storage", "compute+storage", "memory"] {
            assert_eq!(atoms_by_name(name).unwrap().canonical(), name);
        }
        assert_eq!(
            atoms_by_name("storage+compute").unwrap().canonical(),
            "compute+storage"
        );
        assert_eq!(
            atoms_by_name("compute+memory+network").unwrap().canonical(),
            "no-storage"
        );
    }

    #[test]
    fn fs_and_atom_axes_expand_and_differentiate_seeds() {
        let toml = format!(
            "filesystems = [\"default\", \"nfs\"]\natoms = [\"all\", \"compute\"]\n{}",
            r#"
            name = "fs-atoms"
            seed = 3
            machines = ["thinkie"]
            kernels = ["asm"]

            [[workloads]]
            app = "gromacs"
            steps = [10000]
            "#
        );
        let spec = CampaignSpec::from_toml(&toml).unwrap();
        let points = expand(&spec);
        assert_eq!(points.len(), 4);
        let labels: Vec<String> = points.iter().map(|p| p.label()).collect();
        assert!(labels[0].contains("fs=default"), "{}", labels[0]);
        assert!(labels[3].contains("fs=nfs"), "{}", labels[3]);
        assert!(labels[1].contains("atoms=compute"), "{}", labels[1]);
        let mut seeds: Vec<u64> = points.iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "fs/atoms feed the per-point seed");
    }

    #[test]
    fn names_are_exactly_the_canonical_catalogs() {
        let mut canonical: Vec<String> = MACHINE_NAMES
            .iter()
            .map(|m| {
                // Validation spells a machine as its model's name.
                assert_eq!(synapse_sim::machine_ref(m).unwrap().name, *m);
                m.to_string()
            })
            .collect();
        canonical.extend(APPS.iter().map(|a| {
            assert!(app_by_name(a).is_some(), "{a}");
            a.to_string()
        }));
        for kernel in [KernelChoice::Asm, KernelChoice::C, KernelChoice::Spin] {
            canonical.push(kernel.name().into());
        }
        canonical.extend(["openmp".to_string(), "mpi".into(), "default".into()]);
        for fs in [FsKind::Local, FsKind::Lustre, FsKind::Nfs] {
            canonical.push(fs.name().into());
        }
        for bits in 1..16usize {
            let set = AtomSet {
                compute: bits & 1 != 0,
                memory: bits & 2 != 0,
                storage: bits & 4 != 0,
                network: bits & 8 != 0,
            };
            let name = set.canonical();
            assert_eq!(atoms_by_name(&name), Some(set), "{name} round-trips");
            canonical.push(name.to_string());
        }
        canonical.extend(["preserve", "shuffle"].map(|o| {
            assert_eq!(sample_order_by_name(o), Some(o));
            o.to_string()
        }));

        let catalog: Vec<&str> = CATALOGS.iter().flat_map(|c| c.iter().copied()).collect();
        assert_eq!(catalog, canonical);
        for spelling in &canonical {
            assert_eq!(Name::resolve(spelling).unwrap(), *spelling);
        }
        // Exact spellings only: validation canonicalizes first.
        for other in [
            "Comet",
            "ASM",
            "omp",
            "/tmp",
            "storage+compute",
            "",
            "frontier",
        ] {
            assert_eq!(Name::resolve(other), None, "{other}");
        }
    }

    #[test]
    fn names_round_trip_as_their_strings_and_unknown_ones_do_not_decode() {
        let point = expand(&spec())[5];
        let json = serde_json::to_string(&point).unwrap();
        assert!(json.contains(r#""machine":"thinkie""#), "{json}");
        assert_eq!(serde_json::from_str::<ScenarioPoint>(&json).unwrap(), point);
        let tree = serde_json::to_value(point).unwrap();
        assert_eq!(
            serde_json::from_value::<ScenarioPoint>(tree).unwrap(),
            point
        );

        let bogus = json.replace(r#""thinkie""#, r#""frontier""#);
        let err = serde_json::from_str::<ScenarioPoint>(&bogus).unwrap_err();
        assert!(
            err.to_string().contains("unknown name \"frontier\""),
            "{err}"
        );
        // An escaped spelling of a catalog name is that name.
        let escaped = json.replace(r#""thinkie""#, r#""thinki\u0065""#);
        assert_eq!(
            serde_json::from_str::<ScenarioPoint>(&escaped).unwrap(),
            point
        );
        let number = json.replace(r#""thinkie""#, "7");
        assert!(serde_json::from_str::<ScenarioPoint>(&number).is_err());
    }

    #[test]
    fn catalog_spellings_need_no_json_escape() {
        // The point event writes a label into its JSON string as it is.
        for spelling in CATALOGS.iter().flat_map(|catalog| catalog.iter()) {
            let mut quoted = String::new();
            serde::json::write_escaped(&mut quoted, spelling);
            assert_eq!(quoted, format!("\"{spelling}\""));
        }
    }

    #[test]
    fn labels_are_the_formatted_label() {
        // The label as it was written with the formatter.
        fn formatted(p: &ScenarioPoint) -> String {
            format!(
                "{}/{}steps on {} [{}･{}×{} io={} rate={} fs={} atoms={} order={}]",
                p.workload,
                p.steps,
                p.machine,
                p.kernel,
                p.mode,
                p.threads,
                p.io_block,
                p.sample_rate,
                p.fs,
                p.atoms,
                p.sample_order,
            )
        }
        let spec = CampaignSpec::from_toml(
            r#"
            name = "labels"
            machines = ["thinkie", "titan"]
            kernels = ["asm", "spin"]
            threads = [1, 64]
            io_blocks = [4096, 1099511627776]
            sample_rates = [0.25, 2.0, 10.5, 123.456]
            atoms = ["all", "no-network"]

            [[workloads]]
            app = "amber"
            steps = [1, 1000000000]
            "#,
        )
        .unwrap();
        let mut points = expand(&spec);
        let extremes = [f64::NAN, f64::INFINITY, -0.0, 1e21, 5e-324, -1.5, f64::MAX];
        for (point, rate) in points.iter_mut().zip(extremes) {
            point.sample_rate = rate;
            point.steps = u64::MAX;
            point.threads = u32::MAX;
        }
        for point in &points {
            assert_eq!(point.label(), formatted(point));
        }
    }

    /// The expansion as it was before seeds were carried down the
    /// loop nest: every point's seed input written out whole, then
    /// hashed.
    fn write_then_hash(spec: &CampaignSpec, start: usize, end: usize) -> Vec<ScenarioPoint> {
        use std::fmt::Write as _;
        let name = |spelling: &str| Name::resolve(spelling).unwrap();
        let mut points = Vec::new();
        let mut axes = String::new();
        let profile_machine = name(&spec.profile_machine);
        let mut index = 0usize;
        for workload in &spec.workloads {
            let app = name(&workload.app);
            for &steps in &workload.steps {
                for machine in spec.machines.iter().map(|v| name(v)) {
                    for kernel in spec.kernels.iter().map(|v| name(v)) {
                        for mode in spec.modes.iter().map(|v| name(v)) {
                            for &threads in &spec.threads {
                                for &io_block in &spec.io_blocks {
                                    for &sample_rate in &spec.sample_rates {
                                        for fs in spec.filesystems.iter().map(|v| name(v)) {
                                            for atoms in spec.atoms.iter().map(|v| name(v)) {
                                                for order in
                                                    spec.sample_order.iter().map(|v| name(v))
                                                {
                                                    if (start..end).contains(&index) {
                                                        axes.clear();
                                                        let _ = write!(
                                                            axes,
                                                            "{app}|{steps}|{machine}|{kernel}|{mode}|{threads}|{io_block}|{sample_rate}|{fs}|{atoms}|{order}|{profile_machine}|{}",
                                                            spec.noise_cv,
                                                        );
                                                        points.push(ScenarioPoint {
                                                            index,
                                                            workload: app,
                                                            steps,
                                                            machine,
                                                            kernel,
                                                            mode,
                                                            threads,
                                                            io_block,
                                                            sample_rate,
                                                            fs,
                                                            atoms,
                                                            sample_order: order,
                                                            profile_machine,
                                                            noise_cv: spec.noise_cv,
                                                            seed: fnv1a(axes.as_bytes(), spec.seed),
                                                        });
                                                    }
                                                    index += 1;
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }

    /// xorshift64*: a seeded, dependency-free stream of choices.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545f4914f6cdd1d) >> 33) as usize % n
        }

        /// 1-3 distinct values of `pool`, in a shuffled order.
        fn names(&mut self, pool: &[&str]) -> Vec<String> {
            let mut left = pool.to_vec();
            let n = 1 + self.below(3.min(left.len()));
            (0..n)
                .map(|_| left.remove(self.below(left.len())).to_string())
                .collect()
        }

        /// 1-3 values of `pool`, repeats allowed.
        fn numbers<T: Copy>(&mut self, pool: &[T]) -> Vec<T> {
            (0..1 + self.below(3))
                .map(|_| pool[self.below(pool.len())])
                .collect()
        }
    }

    #[test]
    fn carried_seeds_equal_the_write_then_hash_expansion() {
        let mut rng = Rng(0x9e3779b97f4a7c15);
        for case in 0..200 {
            let profile_machine = rng.names(&MACHINE_NAMES).swap_remove(0);
            let workloads = rng
                .names(&APPS)
                .into_iter()
                .map(|app| WorkloadSpec {
                    app,
                    steps: rng.numbers(&[1000, 10_000, 123_457, 2_000_000]),
                })
                .collect();
            let spec = CampaignSpec {
                name: format!("case {case}"),
                seed: rng.0,
                workloads,
                machines: rng.names(&MACHINE_NAMES),
                kernels: rng.names(&KERNELS),
                modes: rng.names(&MODES),
                threads: rng.numbers(&[1, 2, 8, 64]),
                io_blocks: rng.numbers(&[4096, 65536, 1_048_576]),
                // Integral rates print without a fraction (`2`), the
                // others with one: both reach the seed as `Display`
                // writes them.
                sample_rates: rng.numbers(&[1.0, 2.0, 10.5, 0.25, 1000.0]),
                filesystems: rng.names(&FILESYSTEMS),
                atoms: rng.names(&ATOM_SETS),
                sample_order: rng.names(&SAMPLE_ORDERS),
                profile_machine: profile_machine.clone(),
                reference_machine: profile_machine,
                noise_cv: rng.numbers(&[0.0, 0.02, 1.0, 0.125])[0],
                pilot: None,
            };
            let total = spec.point_count();
            let full = expand(&spec);
            assert_eq!(full.len(), total);
            assert_eq!(full, write_then_hash(&spec, 0, usize::MAX), "case {case}");
            // A range whose ends fall inside loop subtrees.
            let (a, b) = (rng.below(total + 1), rng.below(total + 1));
            let (start, end) = (a.min(b), a.max(b));
            assert_eq!(
                expand_range(&spec, start, end),
                write_then_hash(&spec, start, end),
                "case {case}: {start}..{end}"
            );
        }
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned value: if this changes, persisted caches invalidate.
        assert_eq!(fnv1a(b"synapse", 0), 0x617e928964c1b218);
        assert_eq!(fnv1a(b"", 0), 0xcbf29ce484222325);
        assert_ne!(fnv1a(b"a", 0), fnv1a(b"a", 1));
    }
}
