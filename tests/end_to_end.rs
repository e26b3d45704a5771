//! End-to-end integration: the full CARD lifecycle across every crate.

use card_manet::prelude::*;
use card_manet::sim::stats::MsgKind;
use card_manet::sim::time::SimDuration;

fn world() -> CardWorld {
    let scenario = Scenario::new(250, 600.0, 600.0, 55.0);
    let cfg = CardConfig::default()
        .with_radius(2)
        .with_max_contact_distance(10)
        .with_target_contacts(5)
        .with_depth(3)
        .with_seed(99);
    CardWorld::build(&scenario, cfg)
}

#[test]
fn lifecycle_select_query_reach() {
    let mut w = world();
    w.select_all_contacts();
    assert!(
        w.total_contacts() > 100,
        "250 nodes should hold plenty of contacts"
    );

    // Reachability strictly grows with depth.
    let r1 = w.reachability_summary(1).mean_pct;
    let r2 = w.reachability_summary(2).mean_pct;
    let r3 = w.reachability_summary(3).mean_pct;
    assert!(r1 > 5.0);
    assert!(r2 > r1);
    assert!(r3 >= r2);

    // Every target inside a source's depth-3 reach set is found by a query,
    // and every found target costs messages unless it was in the zone.
    let source = NodeId::new(5);
    let reach = card_manet::card::reachability::reachability_set(
        w.network(),
        w.contact_tables(),
        source,
        3,
    );
    let mut checked = 0;
    for t in reach.iter().take(40) {
        let target = NodeId::from(t);
        let out = w.query(source, target);
        assert!(out.found, "target {target} in reach set must be found");
        if !w.network().tables().of(source).contains(target) {
            assert!(out.query_msgs > 0);
            assert!(out.depth_used >= 1);
        } else {
            assert_eq!(out.total_messages(), 0);
        }
        checked += 1;
    }
    assert!(checked > 10);
}

#[test]
fn determinism_full_stack() {
    let run = || {
        let mut w = world();
        w.select_all_contacts();
        let mut rwp = RandomWaypoint::new(
            250,
            w.network().field(),
            1.0,
            5.0,
            0.0,
            SeedSplitter::new(7).stream("m", 0),
        );
        w.run_mobile(&mut rwp, SimDuration::from_secs(5));
        let q = w.query(NodeId::new(0), NodeId::new(200));
        (w.fingerprint(), q)
    };
    assert_eq!(run(), run(), "identical seeds must give identical worlds");
}

#[test]
fn message_taxonomy_consistency() {
    let mut w = world();
    w.select_all_contacts();
    let sel = w.stats().total_where(MsgKind::is_selection);
    assert_eq!(
        sel,
        w.stats().total(MsgKind::Csq)
            + w.stats().total(MsgKind::CsqBacktrack)
            + w.stats().total(MsgKind::CsqReply)
    );
    // selection never emits query/maintenance kinds
    assert_eq!(w.stats().total(MsgKind::Dsq), 0);
    assert_eq!(w.stats().total(MsgKind::Validation), 0);

    let _ = w.query(NodeId::new(1), NodeId::new(240));
    assert_eq!(
        w.stats().total_where(MsgKind::is_selection),
        sel,
        "queries don't select"
    );
}

#[test]
fn contact_invariants_after_selection() {
    let mut w = world();
    w.select_all_contacts();
    let (min_hops, max_hops) = w.config().valid_path_hops();
    for node in NodeId::all(w.network().node_count()) {
        for c in w.contact_table(node).contacts() {
            // stored paths are valid routes on the live topology
            for hop in c.path.windows(2) {
                assert!(w.network().is_link(hop[0], hop[1]));
            }
            assert_eq!(c.source(), node);
            // EM guarantees the hop interval at selection time
            assert!(
                c.hops() > min_hops || c.hops() == min_hops,
                "hops {}",
                c.hops()
            );
            assert!(c.hops() <= max_hops);
            // no overlap: the contact's neighborhood excludes the source
            assert!(!w.network().tables().of(c.id).contains(node));
        }
    }
}

#[test]
fn rebuilding_with_different_seed_changes_world() {
    let scenario = Scenario::new(150, 500.0, 500.0, 50.0);
    let cfg = CardConfig::default()
        .with_radius(2)
        .with_max_contact_distance(8)
        .with_target_contacts(4);
    let mut a = CardWorld::build(&scenario, cfg.with_seed(1));
    let mut b = CardWorld::build(&scenario, cfg.with_seed(2));
    a.select_all_contacts();
    b.select_all_contacts();
    assert_ne!(
        (a.total_contacts(), a.stats().grand_total()),
        (b.total_contacts(), b.stats().grand_total()),
        "different seeds should differ somewhere"
    );
}
