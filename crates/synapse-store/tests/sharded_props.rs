//! Property tests for the sharded store's routing: totality and
//! stability. What the store does on disk is held by the crate's crash
//! property (`src/sharded/crash_props.rs`).

use proptest::prelude::*;
use synapse_store::{shard_of, SHARD_COUNT};

proptest! {
    #[test]
    fn every_key_routes_to_exactly_one_stable_shard(key in "[ -~]{0,24}") {
        // Totality: u8 return type already bounds the shard id; the
        // mapping must also be a function (same key ⇒ same shard).
        let s = shard_of(&key);
        prop_assert!((s as usize) < SHARD_COUNT);
        prop_assert_eq!(shard_of(&key), s);
        prop_assert_eq!(shard_of(&key.clone()), s);
    }

    #[test]
    fn hex_keys_route_by_their_visible_prefix(key in "[0-9a-f]{16}") {
        let expect = u8::from_str_radix(&key[..2], 16).unwrap();
        prop_assert_eq!(shard_of(&key), expect);
    }
}
