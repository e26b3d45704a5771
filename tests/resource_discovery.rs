//! Integration: the resource layer end-to-end on scenario topologies.

use card_manet::card::resources::{
    discoverable_resources, distribute, resource_query, ResourceDistribution, ResourceId,
};
use card_manet::prelude::*;
use card_manet::sim::stats::MsgStats;

fn world() -> CardWorld {
    let scenario = Scenario::new(200, 550.0, 550.0, 55.0);
    let cfg = CardConfig::default()
        .with_radius(2)
        .with_max_contact_distance(10)
        .with_target_contacts(5)
        .with_depth(2)
        .with_seed(404);
    let mut w = CardWorld::build(&scenario, cfg);
    w.select_all_contacts();
    w
}

#[test]
fn node_lookup_is_a_special_case_of_resource_lookup() {
    let mut w = world();
    // a resource hosted by exactly one node behaves like node lookup
    let host = NodeId::new(150);
    let mut reg = card_manet::card::resources::ResourceRegistry::new(200, 1);
    reg.add_host(ResourceId(0), host);
    let source = NodeId::new(0);

    let mut st = MsgStats::default();
    let via_resource = resource_query(
        w.network(),
        w.contact_tables(),
        &reg,
        None,
        source,
        ResourceId(0),
        2,
        &mut st,
        w.now(),
        &mut QueryScratch::new(),
    );
    let via_node = w.query(source, host);
    assert_eq!(via_resource.found, via_node.found);
    if via_resource.found {
        assert_eq!(via_resource.depth_used, via_node.depth_used);
        assert_eq!(via_resource.query_msgs, via_node.query_msgs);
    }
}

#[test]
fn replication_weakly_improves_every_source() {
    let w = world();
    let mut rng = SeedSplitter::new(9).stream("hosts", 0);
    let sparse = distribute(
        w.network(),
        5,
        ResourceDistribution::UniformReplicated { replicas: 1 },
        &mut rng,
    );
    // add replicas ON TOP of the sparse placement: every formerly
    // discoverable resource stays discoverable
    let mut dense = sparse.clone();
    for r in 0..5u32 {
        for _ in 0..4 {
            dense.add_host(ResourceId(r), NodeId::from(rng.index(200)));
        }
    }
    for source in NodeId::all(40) {
        let before = discoverable_resources(w.network(), w.contact_tables(), &sparse, source, 2);
        let after = discoverable_resources(w.network(), w.contact_tables(), &dense, source, 2);
        for r in &before {
            assert!(
                after.contains(r),
                "adding replicas must not lose {r} for {source}"
            );
        }
    }
}

#[test]
fn anycast_cost_bounded_by_unicast_cost() {
    let w = world();
    let mut reg = card_manet::card::resources::ResourceRegistry::new(200, 1);
    // several replicas: the anycast query can stop at whichever zone
    // answers first, never costing more than the full sweep a miss costs
    for host in [30u32, 90, 160] {
        reg.add_host(ResourceId(0), NodeId::new(host));
    }
    let empty = card_manet::card::resources::ResourceRegistry::new(200, 1);
    for source in NodeId::all(25) {
        let mut st = MsgStats::default();
        let hit = resource_query(
            w.network(),
            w.contact_tables(),
            &reg,
            None,
            source,
            ResourceId(0),
            2,
            &mut st,
            w.now(),
            &mut QueryScratch::new(),
        );
        let mut st = MsgStats::default();
        let miss = resource_query(
            w.network(),
            w.contact_tables(),
            &empty,
            None,
            source,
            ResourceId(0),
            2,
            &mut st,
            w.now(),
            &mut QueryScratch::new(),
        );
        assert!(
            hit.query_msgs <= miss.query_msgs,
            "a hit ({}) can never out-cost the exhaustive miss ({}) from {source}",
            hit.query_msgs,
            miss.query_msgs
        );
    }
}

#[test]
fn distributions_cover_all_resources() {
    let w = world();
    let mut rng = SeedSplitter::new(11).stream("dist", 0);
    for dist in [
        ResourceDistribution::UniformReplicated { replicas: 3 },
        ResourceDistribution::Clustered { replicas: 3 },
    ] {
        let reg = distribute(w.network(), 8, dist, &mut rng);
        for r in 0..8u32 {
            assert!(
                reg.host_count(ResourceId(r)) >= 1,
                "{dist:?} left {r:?} without hosts"
            );
        }
    }
}
