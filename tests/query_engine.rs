//! Equivalence guarantees for the re-platformed query engine.
//!
//! The determinism contract these tests pin (see `card_core::query` and
//! the query-sweep section of `card_core::world`):
//!
//! 1. **incremental escalation ≡ per-depth re-walk** — `dsq_query` on a
//!    reused [`QueryScratch`] (depth d only walks its final level; levels
//!    below are charged from the cached cumulative cost) is bit-identical
//!    to `dsq_query_rewalk` (every depth restarts its walk from scratch):
//!    same outcome *and* the same `MsgStats` bucket series, across seeds,
//!    topologies, depths, and scratch-reuse orders;
//! 2. **sharded query sweeps ≡ one query at a time** — `CardWorld::query_all`
//!    equals one `CardWorld::query` per pair on a one-shard world (outcomes
//!    in pair order, stats series) at any shard count, including repeated
//!    sweeps on the same world (shard count 1 runs the sweep inline on one
//!    lane, so the sweep is also pinned as worker-count-independent:
//!    queries draw no randomness);
//! 3. **resource anycast generalizes node lookup** — a resource hosted by
//!    exactly one node is discovered with exactly the node-lookup DSQ's
//!    outcome and message count (both run the one shared walker);
//! 4. **a sweep walks each source once** — a hint-less sweep visits its
//!    slots grouped by source over one walk memo per source, and still
//!    equals one query at a time when few sources repeat many times, calm
//!    or under crashes and an open partition.

use card_manet::card::query::{dsq_query, dsq_query_rewalk, QueryScratch};
use card_manet::card::resources::{resource_query, ResourceId, ResourceRegistry};
use card_manet::card::world::CardWorld;
use card_manet::card::CardConfig;
use card_manet::sim::faults::{FaultConfig, FaultPlan, PartitionWindow};
use card_manet::sim::stats::MsgStats;
use card_manet::sim::time::SimDuration;
use card_manet::topology::node::NodeId;
use card_manet::topology::scenario::Scenario;
use proptest::prelude::*;

const NODES: usize = 140;

fn world(seed: u64, depth: u16) -> CardWorld {
    let scenario = Scenario::new(NODES, 460.0, 460.0, 55.0);
    let cfg = CardConfig::default()
        .with_radius(2)
        .with_max_contact_distance(8)
        .with_target_contacts(4)
        .with_depth(depth)
        .with_seed(seed);
    let mut w = CardWorld::build(&scenario, cfg);
    w.select_all_contacts();
    w
}

fn mk_stats() -> MsgStats {
    MsgStats::new(SimDuration::from_secs(2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Incremental escalation is bit-identical to the from-scratch
    /// per-depth re-walk — outcome and message series — with one scratch
    /// reused across a whole batch of queries of mixed depths. The walk
    /// reads the store's `ids`/`hops` columns and the re-walk its stored
    /// paths, so the validation rounds before the batch also pin that
    /// every round's rewrite keeps the two in step.
    #[test]
    fn prop_incremental_matches_rewalk(
        seed in 0u64..300,
        queries in proptest::collection::vec(
            (0usize..NODES, 0usize..NODES, 1u16..5), 1..40),
        rounds in 0usize..3,
    ) {
        let mut w = world(seed, 3);
        for _ in 0..rounds {
            w.validation_round();
        }
        let mut scratch = QueryScratch::new();
        for &(s, t, max_depth) in &queries {
            let (s, t) = (NodeId::from(s), NodeId::from(t));
            let mut st_inc = mk_stats();
            let inc = dsq_query(
                w.network(), w.contact_tables(), None, s, t, max_depth,
                &mut st_inc, w.now(), &mut scratch,
            );
            let mut st_ref = mk_stats();
            let reference = dsq_query_rewalk(
                w.network(), w.contact_tables(), s, t, max_depth,
                &mut st_ref, w.now(),
            );
            prop_assert_eq!(&inc, &reference, "{} -> {} at D={}", s, t, max_depth);
            prop_assert_eq!(
                st_inc.series_where(|_| true),
                st_ref.series_where(|_| true),
                "stats series diverged for {} -> {} at D={}", s, t, max_depth
            );
        }
    }

    /// The sharded batched sweep equals one query at a time on a one-shard
    /// world — outcomes in pair order and the world fingerprint — at any
    /// shard count, and across repeated sweeps on the same world (scratch
    /// reuse).
    #[test]
    fn prop_query_all_sharded_matches_serial(
        seed in 0u64..300,
        shards in 1usize..40,
        pair_seeds in proptest::collection::vec((0usize..NODES, 0usize..NODES), 1..60),
        sweeps in 1usize..3,
    ) {
        let pairs: Vec<(NodeId, NodeId)> = pair_seeds
            .iter()
            .map(|&(s, t)| (NodeId::from(s), NodeId::from(t)))
            .collect();
        let mut serial = world(seed, 3);
        serial.set_shard_count(1);
        let mut par = world(seed, 3);
        par.set_shard_count(shards);
        for sweep in 0..sweeps {
            let expected: Vec<_> = pairs.iter().map(|&(s, t)| serial.query(s, t)).collect();
            let got = par.query_all(&pairs);
            prop_assert_eq!(got, expected, "sweep {} at {} shards", sweep, shards);
            prop_assert_eq!(
                par.fingerprint(),
                serial.fingerprint(),
                "worlds diverged on sweep {} at {} shards", sweep, shards
            );
        }
    }

    /// Sweeps of few sources with many targets each — interleaved,
    /// shuffled, with duplicate pairs — equal a loop of `CardWorld::query`
    /// on a one-shard world: outcomes in slot order and the fingerprint
    /// (retry queue included), at one shard and at `shards`, calm or under
    /// a plan whose crashes and open partition the walk memo must veto.
    /// Then every source asks for resources, which must equal the
    /// reference world's and, calm, the free call on a fresh scratch.
    #[test]
    fn prop_sweeps_with_repeated_sources_equal_single_queries(
        seed in 0u64..300,
        shards in 2usize..9,
        sources in proptest::collection::vec(0usize..NODES, 1..5),
        picks in proptest::collection::vec((0usize..4, 0usize..NODES), 20..120),
        dups in proptest::collection::vec(0usize..1000, 0..30),
        shuffle in 0u64..1 << 32,
        faulted in any::<bool>(),
    ) {
        let mut pairs: Vec<(NodeId, NodeId)> = picks
            .iter()
            .map(|&(k, t)| (NodeId::from(sources[k % sources.len()]), NodeId::from(t)))
            .collect();
        for &d in &dups {
            pairs.push(pairs[d % pairs.len()]);
        }
        let mut state = shuffle | 1;
        for i in (1..pairs.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            pairs.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut reg = ResourceRegistry::new(NODES, 3);
        for (r, host) in [(0, 5), (1, 60), (1, 111), (2, 97)] {
            reg.add_host(ResourceId(r), NodeId::new(host));
        }
        let build = |k: usize| {
            let mut w = world(seed, 3);
            w.set_shard_count(k);
            if faulted {
                let plan = FaultConfig {
                    churn_rate: 0.2,
                    partition: Some(PartitionWindow { start_round: 1, end_round: 9, fraction: 0.5 }),
                    rounds: 1,
                    ..FaultConfig::calm()
                };
                w.enable_faults(FaultPlan::generate(&plan, NODES, seed));
                w.validation_round();
                w.validation_round();
            }
            w
        };
        let mut serial = build(1);
        if faulted {
            let state = serial.fault_state().expect("armed");
            prop_assert!(state.down_count() > 0 && state.partition_active());
        }
        let expected: Vec<_> = pairs.iter().map(|&(s, t)| serial.query(s, t)).collect();
        for k in [1, shards] {
            let mut swept = build(k);
            prop_assert_eq!(&swept.query_all(&pairs), &expected, "{} shards", k);
            prop_assert_eq!(swept.pending_query_retries(), serial.pending_query_retries());
            prop_assert_eq!(swept.fingerprint().diff(&serial.fingerprint()), None, "{} shards", k);
            let mut reference = serial.clone();
            for &s in &sources {
                let s = NodeId::from(s);
                for r in (0..3).map(ResourceId) {
                    let got = swept.query_resource(&reg, s, r);
                    prop_assert_eq!(&got, &reference.query_resource(&reg, s, r), "{} for {}", s, r);
                    if !faulted {
                        let free = resource_query(
                            swept.network(), swept.contact_tables(), &reg, None, s, r, 3,
                            &mut mk_stats(), swept.now(), &mut QueryScratch::new(),
                        );
                        prop_assert_eq!(&got, &free, "{} for {}", s, r);
                    }
                }
            }
        }
    }

    /// Anycast over a single-host resource is exactly the node-lookup DSQ:
    /// same outcome, same message accounting (the §III.C.4 "node lookup is
    /// the one-replica special case" claim, engine-deep).
    #[test]
    fn prop_single_host_resource_equals_node_lookup(
        seed in 0u64..200,
        source in 0usize..NODES,
        host in 0usize..NODES,
        max_depth in 1u16..4,
    ) {
        let w = world(seed, 3);
        let mut reg = ResourceRegistry::new(NODES, 1);
        reg.add_host(ResourceId(0), NodeId::from(host));
        let mut scratch = QueryScratch::new();
        let mut st_res = mk_stats();
        let via_resource = resource_query(
            w.network(), w.contact_tables(), &reg, None,
            NodeId::from(source), ResourceId(0), max_depth,
            &mut st_res, w.now(), &mut scratch,
        );
        let mut st_node = mk_stats();
        let via_node = dsq_query(
            w.network(), w.contact_tables(), None,
            NodeId::from(source), NodeId::from(host), max_depth,
            &mut st_node, w.now(), &mut scratch,
        );
        prop_assert_eq!(via_resource, via_node);
        prop_assert_eq!(
            st_res.series_where(|_| true),
            st_node.series_where(|_| true)
        );
    }
}

/// One deterministic anchor outside proptest: repeated sharded sweeps of
/// the same seed agree with each other, with the one-shard sweep, and
/// with one-at-a-time `CardWorld::query` calls — outcomes and world
/// fingerprint, message statistics included (catches nondeterminism that shrinkage might mask).
#[test]
fn repeat_query_sweeps_are_identical() {
    let pairs: Vec<(NodeId, NodeId)> = (0..80u32)
        .map(|i| {
            (
                NodeId::new(i % NODES as u32),
                NodeId::new((i * 53 + 11) % NODES as u32),
            )
        })
        .collect();
    let run = |mode: u8| {
        let mut w = world(77, 3);
        let outcomes = match mode {
            0 => w.query_all(&pairs),
            1 => {
                w.set_shard_count(1);
                w.query_all(&pairs)
            }
            _ => pairs.iter().map(|&(s, t)| w.query(s, t)).collect(),
        };
        (outcomes, w.fingerprint())
    };
    let first = run(0);
    assert_eq!(first, run(0), "sharded sweeps must repeat exactly");
    assert_eq!(first, run(1), "sharded must equal one shard");
    assert_eq!(first, run(2), "sharded must equal one-at-a-time queries");
}
