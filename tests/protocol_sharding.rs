//! Equivalence guarantees for the sharded CARD protocol sweeps.
//!
//! `CardWorld::select_all_contacts` and `CardWorld::validation_round` fan
//! out over shards of per-node protocol state on the persistent worker
//! pool. A one-shard world runs the same calls inline on the caller's
//! thread: that is the serial reference, and there is no other. The
//! determinism contract these tests pin:
//!
//! 1. the k-shard sweeps are **bit-identical** to the one-shard world —
//!    equal `CardWorld::fingerprint`s: contact ids and stored paths, RNG
//!    positions, backoffs, the per-bucket message series and every other
//!    layer — across seeds and shard counts, so the sweep is pinned as
//!    worker-count-independent too: every node's decisions draw from its
//!    own RNG stream, never from scheduling;
//! 2. equivalence survives *interleaved* mobility: validate → move →
//!    validate must agree between the k-shard and one-shard worlds at
//!    every step, not just at the end;
//! 3. protocol invariants hold on the parallel path's output (tables
//!    bounded by NoC, stored paths valid hop-by-hop routes at selection
//!    time).

use card_manet::card::world::CardWorld;
use card_manet::card::{CardConfig, SelectionMethod};
use card_manet::mobility::waypoint::RandomWaypoint;
use card_manet::sim::rng::SeedSplitter;
use card_manet::sim::time::SimDuration;
use card_manet::topology::node::NodeId;
use card_manet::topology::scenario::Scenario;
use proptest::prelude::*;

fn world(seed: u64, method: SelectionMethod, shards: Option<usize>) -> CardWorld {
    let scenario = Scenario::new(140, 460.0, 460.0, 55.0);
    let cfg = CardConfig::default()
        .with_radius(2)
        .with_max_contact_distance(8)
        .with_target_contacts(4)
        .with_method(method)
        .with_seed(seed);
    let mut w = CardWorld::build(&scenario, cfg);
    if let Some(k) = shards {
        w.set_shard_count(k);
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sharded select + validate is bit-identical to the one-shard world
    /// across seeds, selection methods and shard counts.
    #[test]
    fn prop_sharded_sweeps_match_serial(
        seed in 0u64..500,
        pm in any::<bool>(),
        shards in 1usize..40,
    ) {
        let method = if pm {
            SelectionMethod::ProbabilisticEq2
        } else {
            SelectionMethod::Edge
        };
        let mut serial = world(seed, method, Some(1));
        serial.select_all_contacts();
        serial.validation_round();
        let expected = serial.fingerprint();

        let mut par = world(seed, method, Some(shards));
        par.select_all_contacts();
        par.validation_round();
        prop_assert_eq!(par.fingerprint(), expected, "shards={}", shards);
    }

    /// Equivalence survives interleaved mobility: after every mobility
    /// burst, both worlds validate and must agree exactly.
    #[test]
    fn prop_equivalence_survives_mobility(seed in 0u64..200, shards in 2usize..24) {
        let mk_model = |w: &CardWorld| {
            RandomWaypoint::new(
                w.network().node_count(),
                w.network().field(),
                4.0,
                10.0,
                0.0,
                SeedSplitter::new(seed).stream("shard-prop-mob", 1),
            )
        };
        let mut serial = world(seed, SelectionMethod::Edge, Some(1));
        let mut par = world(seed, SelectionMethod::Edge, Some(shards));
        serial.select_all_contacts();
        par.select_all_contacts();
        let mut serial_model = mk_model(&serial);
        let mut par_model = mk_model(&par);
        for _ in 0..3 {
            serial.run_mobile(&mut serial_model, SimDuration::from_secs(1));
            par.run_mobile(&mut par_model, SimDuration::from_secs(1));
            prop_assert_eq!(par.fingerprint(), serial.fingerprint());
        }
    }

    /// Invariants of the parallel path's own output: NoC bound and valid
    /// stored paths on the selection-time topology.
    #[test]
    fn prop_parallel_output_well_formed(seed in 0u64..300, shards in 1usize..32) {
        let mut w = world(seed, SelectionMethod::Edge, Some(shards));
        w.select_all_contacts();
        let cfg = *w.config();
        for (i, table) in w.contact_tables().iter().enumerate() {
            prop_assert!(table.len() <= cfg.target_contacts);
            for c in table.contacts() {
                prop_assert_eq!(c.source(), NodeId::from(i));
                prop_assert!(c.hops() > 2 * cfg.radius);
                prop_assert!(c.hops() <= cfg.max_contact_distance);
                for hop in c.path.windows(2) {
                    prop_assert!(
                        w.network().is_link(hop[0], hop[1]),
                        "stored path of node {} has a dead hop {:?}",
                        i,
                        hop
                    );
                }
            }
        }
    }
}

/// One deterministic end-to-end anchor outside proptest: repeated runs
/// of the same seed at the default shard count agree with each other and
/// with the one-shard world, including after a mobile run (catches
/// nondeterminism that proptest shrinkage might mask).
#[test]
fn repeat_parallel_runs_are_identical() {
    let run = |shards: Option<usize>| {
        let mut w = world(77, SelectionMethod::Edge, shards);
        w.select_all_contacts();
        let mut model = RandomWaypoint::new(
            w.network().node_count(),
            w.network().field(),
            2.0,
            8.0,
            0.0,
            SeedSplitter::new(77).stream("anchor-mob", 0),
        );
        w.run_mobile(&mut model, SimDuration::from_secs(4));
        w.fingerprint()
    };
    let first = run(None);
    assert_eq!(run(None).diff(&first), None, "sharded runs must repeat");
    assert_eq!(run(Some(1)).diff(&first), None, "one shard differs");
}

/// Degenerate sizes: worlds smaller than their shard count,
/// empty and duplicated pair lists. Every sweep and query must return its
/// documented outcome — never panic — and equal the 1-shard world's.
#[test]
fn tiny_worlds_match_one_shard_at_any_shard_count() {
    let tiny = |n: usize, shards: usize, hints: bool| {
        let cfg = CardConfig::default()
            .with_radius(1)
            .with_max_contact_distance(4)
            .with_target_contacts(2)
            .with_seed(5);
        let mut w = CardWorld::build(&Scenario::new(n, 120.0, 120.0, 50.0), cfg);
        w.set_hints_enabled(hints);
        w.set_shard_count(shards);
        w
    };
    let run = |n: usize, shards: usize, hints: bool| {
        let mut w = tiny(n, shards, hints);
        w.select_all_contacts();
        w.validation_round();
        let pairs: Vec<(NodeId, NodeId)> = NodeId::all(n)
            .flat_map(|a| NodeId::all(n).map(move |b| (a, b)))
            .flat_map(|pair| [pair, pair])
            .collect();
        let swept = w.query_all(&pairs);
        assert!(w.query_all(&[]).is_empty());
        let single = w.query(NodeId::new(0), NodeId::from(n - 1));
        (w.fingerprint(), swept, single)
    };
    for n in [1usize, 2, 3, 5, 7] {
        for hints in [false, true] {
            let expected = run(n, 1, hints);
            for shards in [2usize, 4, 16] {
                assert_eq!(
                    run(n, shards, hints),
                    expected,
                    "N={n} shards={shards} hints={hints}"
                );
            }
        }
    }
    // `shard_count()` reports the non-empty spans of the canonical
    // partition, not the request: 5 nodes in spans of ceil(5/4) = 2.
    assert_eq!(tiny(5, 4, false).shard_count(), 3);
    assert_eq!(tiny(7, 4, false).shard_count(), 4);
}
