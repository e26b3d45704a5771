//! Property-based integration tests across substrate crates.

use card_manet::prelude::*;
use card_manet::sim::stats::MsgStats;
use card_manet::sim::time::SimTime;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// EM selection invariants hold on arbitrary scenario seeds: contacts
    /// sit strictly beyond 2R true hops, within r walk hops, with valid
    /// stored paths and pairwise non-overlapping neighborhoods per source.
    #[test]
    fn em_selection_invariants(seed in 0u64..200) {
        let scenario = Scenario::new(120, 420.0, 420.0, 55.0);
        let cfg = CardConfig::default()
            .with_radius(2)
            .with_max_contact_distance(9)
            .with_target_contacts(4)
            .with_seed(seed);
        let mut world = CardWorld::build(&scenario, cfg);
        world.select_all_contacts();
        for node in NodeId::all(120) {
            let ids: Vec<NodeId> = world.contact_table(node).ids().collect();
            for c in world.contact_table(node).contacts() {
                prop_assert!(c.hops() >= 2 * cfg.radius);
                prop_assert!(c.hops() <= cfg.max_contact_distance);
                let true_dist = full_bfs(world.network().adj(), node)
                    .distance(c.id)
                    .expect("contact connected");
                prop_assert!(true_dist > 2 * cfg.radius, "EM overlap violated");
                for hop in c.path.windows(2) {
                    prop_assert!(world.network().is_link(hop[0], hop[1]));
                }
            }
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    prop_assert!(
                        !world.network().tables().of(a).contains(b),
                        "contacts {a}/{b} of {node} overlap"
                    );
                }
            }
        }
    }

    /// Reachability sets always contain the neighborhood and never exceed
    /// the network, and grow monotonically in depth.
    #[test]
    fn reachability_monotone_in_depth(seed in 0u64..200, depth in 1u16..4) {
        let scenario = Scenario::new(100, 400.0, 400.0, 55.0);
        let cfg = CardConfig::default()
            .with_radius(2)
            .with_max_contact_distance(9)
            .with_target_contacts(3)
            .with_seed(seed);
        let mut world = CardWorld::build(&scenario, cfg);
        world.select_all_contacts();
        for node in NodeId::all(20) {
            let shallow = card_manet::card::reachability::reachability_set(
                world.network(), world.contact_tables(), node, depth);
            let deep = card_manet::card::reachability::reachability_set(
                world.network(), world.contact_tables(), node, depth + 1);
            prop_assert!(shallow.len() <= deep.len());
            prop_assert!(deep.len() <= 100);
            // neighborhood ⊆ reach set
            for m in world.network().tables().of(node).iter_members() {
                prop_assert!(shallow.contains(m.index()));
            }
        }
    }

    /// A successful query implies the target is in the source's reach set;
    /// targets outside the depth-D reach set are never "found".
    #[test]
    fn query_found_iff_reachable(seed in 0u64..100) {
        let scenario = Scenario::new(100, 400.0, 400.0, 55.0);
        let cfg = CardConfig::default()
            .with_radius(2)
            .with_max_contact_distance(9)
            .with_target_contacts(3)
            .with_depth(2)
            .with_seed(seed);
        let mut world = CardWorld::build(&scenario, cfg);
        world.select_all_contacts();
        let source = NodeId::new(0);
        let reach = card_manet::card::reachability::reachability_set(
            world.network(), world.contact_tables(), source, 2);
        for t in 0..100u32 {
            let target = NodeId::new(t);
            let out = world.query(source, target);
            prop_assert_eq!(
                out.found,
                reach.contains(target.index()),
                "query({}) disagrees with reach set", target
            );
        }
    }

    /// Flooding transmissions equal the source's component size minus one
    /// when the target is found (duplicate suppression works everywhere).
    #[test]
    fn flood_cost_is_component_bound(seed in 0u64..200) {
        let scenario = Scenario::new(80, 400.0, 400.0, 55.0);
        let (_, adj) = scenario.instantiate(seed);
        let net = Network::from_positions(
            scenario.field(),
            scenario.instantiate(seed).0,
            scenario.tx_range,
            2,
        );
        let bfs = full_bfs(&adj, NodeId::new(0));
        if bfs.visited_count() >= 2 {
            let target = *bfs.visited().last().unwrap();
            let mut st = MsgStats::default();
            let out = flood_search(net.adj(), NodeId::new(0), target, &mut st, SimTime::ZERO);
            prop_assert!(out.found);
            prop_assert_eq!(out.transmissions, bfs.visited_count() as u64 - 1);
        }
    }
}
