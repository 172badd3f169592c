//! The lazy sample stream and the materialized profile are one
//! synthesis: collected, the stream *is* the profile, and its
//! demand-only view differs from the full view only in the fields it
//! promises to leave unset.

use proptest::prelude::*;
use synapse_model::Sample;
use synapse_sim::{machine_by_name, Noise, MACHINE_NAMES};
use synapse_workloads::AppModel;

proptest! {
    #[test]
    fn stream_collects_to_the_materialized_profile(
        amber in any::<bool>(),
        machine_idx in 0usize..6,
        // Below, at and far above both apps' frame intervals.
        steps in 0u64..3_000_000,
        rate_hz in 0.05f64..50.0,
        seed in any::<u64>(),
        cv in 0.0f64..0.1,
    ) {
        let app = if amber { AppModel::amber() } else { AppModel::gromacs() };
        let machine = machine_by_name(MACHINE_NAMES[machine_idx]).unwrap();
        let stream = || app.profile_samples(&machine, steps, rate_hz, &mut Noise::new(seed, cv));
        let profile = app.simulate_profile(&machine, steps, rate_hz, &mut Noise::new(seed, cv));
        prop_assert!(profile.validate().is_ok());

        prop_assert_eq!(stream().runtime(), profile.runtime);
        prop_assert_eq!(stream().len(), profile.len());
        let mut partly = stream();
        partly.next();
        prop_assert_eq!(partly.len(), profile.len() - 1, "len() tracks consumption");
        prop_assert_eq!(&stream().collect::<Vec<_>>(), &profile.samples);

        // The demand view: same replayed quantities, nothing else.
        let demands = stream().demands();
        prop_assert_eq!(demands.len(), profile.len());
        let expected: Vec<Sample> = profile
            .samples
            .iter()
            .map(|full| {
                let mut demand = Sample::at(full.t, full.dt);
                demand.compute.cycles = full.compute.cycles;
                demand.storage = full.storage;
                demand.memory.allocated = full.memory.allocated;
                demand.memory.freed = full.memory.freed;
                demand
            })
            .collect();
        prop_assert_eq!(&demands.collect::<Vec<_>>(), &expected);
    }
}
