//! Seeded campaign-spec generator: the only input the program under
//! test ever sees is the JSON text built here.

/// Which of the two benchmark grids a spec sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// 1536 points of 12–155 profile samples each: the engine's fixed
    /// per-point overhead, the cache and the stream path dominate.
    Short,
    /// 768 points of 750–1500 samples each: the per-sample loops of
    /// the simulator dominate.
    Long,
}

impl Grid {
    fn steps(self) -> &'static str {
        match self {
            Grid::Short => "[10000,50000,100000,200000]",
            Grid::Long => "[1000000,2000000]",
        }
    }

    /// Points the grid expands to (6·2·2·2·2·2 axis values × 2 apps ×
    /// the step counts).
    pub fn points(self) -> usize {
        match self {
            Grid::Short => 1536,
            Grid::Long => 768,
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Grid::Short => "short",
            Grid::Long => "long",
        }
    }
}

/// splitmix64: decorrelates consecutive job indices of one `--seed`.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The campaign seed of job `job` under benchmark seed `seed`. It
/// depends on nothing else, so job 0 is the same campaign on every
/// workload of one grid (the cross-path report check relies on that).
pub fn job_seed(seed: u64, job: u64) -> u64 {
    // 53 bits: the spec travels as JSON, whose numbers are doubles.
    mix(mix(seed) ^ job) >> 11
}

/// JSON spec text of job `job`. A small measurement-noise term makes
/// the campaign seed matter to the simulated results, not only to the
/// cache keys.
pub fn spec_json(grid: Grid, seed: u64, job: u64) -> String {
    format!(
        concat!(
            "{{\"name\":\"bench-{tag}-{job}\",\"seed\":{seed},",
            "\"machines\":[\"thinkie\",\"stampede\",\"archer\",\"supermic\",\"comet\",\"titan\"],",
            "\"kernels\":[\"asm\",\"c\"],\"modes\":[\"openmp\",\"mpi\"],\"threads\":[1,8],",
            "\"io_blocks\":[65536,1048576],\"filesystems\":[\"default\",\"lustre\"],",
            "\"noise_cv\":0.02,",
            "\"workloads\":[{{\"app\":\"gromacs\",\"steps\":{steps}}},",
            "{{\"app\":\"amber\",\"steps\":{steps}}}]}}"
        ),
        tag = grid.tag(),
        job = job,
        seed = job_seed(seed, job),
        steps = grid.steps(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use synapse_campaign::{expand, fingerprint, CampaignSpec};

    #[test]
    fn grids_expand_to_their_declared_point_counts() {
        for grid in [Grid::Short, Grid::Long] {
            let spec = CampaignSpec::from_json(&spec_json(grid, 1, 0)).unwrap();
            assert_eq!(spec.point_count(), grid.points());
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_specs() {
        for job in [0, 1, 319] {
            assert_eq!(
                spec_json(Grid::Short, 42, job),
                spec_json(Grid::Short, 42, job)
            );
        }
        assert_ne!(spec_json(Grid::Short, 42, 0), spec_json(Grid::Short, 43, 0));
    }

    #[test]
    fn different_jobs_have_disjoint_fingerprints() {
        let prints = |job| -> HashSet<String> {
            let spec = CampaignSpec::from_json(&spec_json(Grid::Short, 7, job)).unwrap();
            expand(&spec).iter().map(fingerprint).collect()
        };
        let (a, b) = (prints(0), prints(1));
        assert_eq!(a.len(), Grid::Short.points());
        assert!(a.is_disjoint(&b));
    }
}
