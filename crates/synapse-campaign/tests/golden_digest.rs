//! Golden digest of the simulated physics: a 51 840-point grid over
//! every axis the simulator prices, folded into one FNV-1a hash of the
//! serialized results. Any change to a float operation's operands or
//! order anywhere between profile synthesis and pricing moves it — a
//! deliberate physics change bumps `ENGINE_VERSION` and re-pins the
//! value; a refactor or optimisation must leave it alone.

use synapse_campaign::grid::fnv1a;
use synapse_campaign::{expand, simulate_point, CampaignSpec, ENGINE_VERSION};

const SPEC: &str = r#"{"name":"d","seed":77,"machines":["thinkie","stampede","archer","supermic","comet","titan"],"kernels":["asm","c","spin"],"modes":["openmp","mpi"],"threads":[1,8],"io_blocks":[4096,1048576],"filesystems":["default","lustre","local"],"sample_rates":[0.1,1.0,7.0],"atoms":["all","compute","no-compute","storage"],"sample_order":["preserve","shuffle"],"noise_cv":0.02,"workloads":[{"app":"gromacs","steps":[500,10000,1000000]},{"app":"amber","steps":[999,200000]}]}"#;

#[test]
fn simulated_results_hash_to_the_pinned_digest() {
    assert_eq!(ENGINE_VERSION, 4, "the digest below is pinned to engine v4");
    let spec = CampaignSpec::from_json(SPEC).unwrap();
    let points = expand(&spec);
    assert_eq!(points.len(), 51_840);
    let mut h = 0u64;
    for p in &points {
        let result = simulate_point(p).unwrap();
        h = fnv1a(serde_json::to_string(&result).unwrap().as_bytes(), h);
    }
    assert_eq!(h, 0x9a0a_11ba_8b76_ff7b, "digest {h:#018x}");
}
