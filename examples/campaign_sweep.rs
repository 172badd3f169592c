//! Run a scenario-sweep campaign programmatically.
//!
//! The declarative twin of this example lives in
//! `examples/campaign.toml` (run it with `synapse campaign run
//! examples/campaign.toml`); here the spec is built in code, executed
//! twice against a persistent cache to show memoization, and the
//! aggregate statistics are printed.
//!
//! ```sh
//! cargo run --release --example campaign_sweep
//! ```

#![expect(
    clippy::print_stdout,
    reason = "an example prints what it demonstrates"
)]

use synapse_repro::synapse_campaign::{
    run_campaign_on, CampaignSpec, CancelToken, ResultCache, RunConfig, WorkloadSpec,
};

fn main() {
    let spec = CampaignSpec::from_toml(
        r#"
        name = "example-sweep"
        seed = 2016
        machines = ["thinkie", "stampede", "supermic", "comet", "titan"]
        kernels = ["asm", "c"]
        modes = ["openmp", "mpi"]

        [[workloads]]
        app = "gromacs"
        steps = [10000, 100000, 1000000]

        [[workloads]]
        app = "amber"
        steps = [100000]
        "#,
    )
    .expect("spec parses");
    // Specs are plain data — grow an axis programmatically.
    let mut spec = spec;
    spec.workloads.push(WorkloadSpec {
        app: "gromacs".into(),
        steps: vec![5_000_000],
    });

    let cache_dir = std::env::temp_dir().join("synapse-campaign-example");
    let config = RunConfig::default();
    // Each run re-opens the cache directory, as a separate invocation
    // of the CLI would.
    let run = || {
        let cache = ResultCache::open(&cache_dir).expect("cache opens");
        run_campaign_on(&spec, &config, &cache, &|_| {}, &CancelToken::new())
    };

    let first = run().expect("campaign runs");
    println!("{}", first.report.render_summary());
    println!(
        "first run : {} points in {:.3}s ({:.0} points/s), {} simulated",
        first.stats.points,
        first.stats.wall_secs,
        first.stats.points_per_sec(),
        first.stats.simulated,
    );

    let second = run().expect("campaign repeats");
    println!(
        "second run: {} points in {:.3}s ({:.0} points/s), {} simulated, {:.0}% cache hits",
        second.stats.points,
        second.stats.wall_secs,
        second.stats.points_per_sec(),
        second.stats.simulated,
        second.stats.hit_rate() * 100.0,
    );
    assert_eq!(
        first.report.to_json().expect("report serializes"),
        second.report.to_json().expect("report serializes"),
        "memoized replay reproduces the report byte-for-byte"
    );
}
