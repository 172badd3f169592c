//! The lazy sample stream and the materialized profile are one
//! synthesis: collected, the stream *is* the profile, and its
//! demand-only view carries exactly the replayed fields of the full
//! view.

use proptest::prelude::*;
use synapse_model::Demand;
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

        // The demand view: the replayed quantities of each full sample,
        // field by field (this model has no network traffic).
        let demands = stream().demands();
        prop_assert_eq!(demands.len(), profile.len());
        let expected: Vec<Demand> = profile
            .samples
            .iter()
            .map(|full| Demand {
                cycles: full.compute.cycles,
                bytes_read: full.storage.bytes_read,
                bytes_written: full.storage.bytes_written,
                allocated: full.memory.allocated,
                freed: full.memory.freed,
                sent: full.network.bytes_sent,
                recv: full.network.bytes_recv,
            })
            .collect();
        prop_assert_eq!(&demands.collect::<Vec<_>>(), &expected);
        prop_assert!(expected.iter().all(|d| d.sent == 0 && d.recv == 0));

        // What the full view adds to the storage demand: one write per
        // frame, reads in 1 MiB operations.
        let frame_bytes = app.frame_bytes;
        for full in &profile.samples {
            prop_assert_eq!(full.storage.write_ops * frame_bytes, full.storage.bytes_written);
            prop_assert_eq!(full.storage.read_ops, full.storage.bytes_read.div_ceil(1 << 20));
        }
    }
}
