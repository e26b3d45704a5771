//! The contact-selection decision (§III.C.2).
//!
//! When a CSQ reaches a node X at (walk) hop count `d`, X decides whether
//! to become a contact for the source:
//!
//! * **Overlap checks** (all methods): X refuses if the source itself or
//!   any already-chosen contact (the CSQ's `Contact_List`) lies inside X's
//!   own neighborhood — overlapping neighborhoods add little reachability.
//! * **PM** additionally accepts only with probability
//!   `P = (d − R)/(r − R)` (eq. 1) or `P = (d − 2R)/(r − 2R)` (eq. 2); the
//!   walk has no sense of direction, so `d` overestimates true distance and
//!   eq. 1 permits contacts inside 2R (Fig 1's overlap pathology).
//! * **EM** replaces the probability with one more overlap check: the CSQ
//!   carries the source's `Edge_List`, and X refuses if *any* edge node
//!   lies in its neighborhood. Any node closer than 2R to the source is
//!   within R of some edge node, so this enforces the 2R‥r annulus
//!   geometrically — no lost opportunities, no direction blindness.

use manet_routing::neighborhood::NeighborhoodTables;
use net_topology::node::NodeId;
use sim_core::rng::RngStream;

use crate::config::{CardConfig, SelectionMethod};

/// Acceptance probability of the probabilistic method, clamped to [0, 1].
///
/// `eq2 = false` gives equation (1), `eq2 = true` equation (2).
pub fn pm_probability(d: u16, radius: u16, r: u16, eq2: bool) -> f64 {
    let (lo, hi) = if eq2 { (2 * radius, r) } else { (radius, r) };
    if hi <= lo {
        // degenerate annulus: accept only at the outer rim
        return if d >= hi { 1.0 } else { 0.0 };
    }
    ((d as f64 - lo as f64) / (hi as f64 - lo as f64)).clamp(0.0, 1.0)
}

/// The overlap checks common to all methods: true when neither the source
/// nor any already-chosen contact lies in `candidate`'s neighborhood.
///
/// Membership is zone-local: one binary search over the candidate's
/// sorted member ids per probe, O(log zone) without any O(N) per-node
/// bitset behind it.
pub fn passes_overlap_checks(
    tables: &NeighborhoodTables,
    candidate: NodeId,
    source: NodeId,
    contact_list: &[NodeId],
) -> bool {
    let nb = tables.of(candidate);
    !nb.contains(source) && !nb.contains_any(contact_list)
}

/// The edge method's extra check: no source edge node inside the
/// candidate's neighborhood.
pub fn passes_edge_check(
    tables: &NeighborhoodTables,
    candidate: NodeId,
    edge_list: &[NodeId],
) -> bool {
    !tables.of(candidate).contains_any(edge_list)
}

/// Does the CSQ refuse at `candidate` on overlap grounds alone? The checks
/// common to all methods plus, for the edge method only, the `Edge_List`
/// check. Draws nothing, and — zone membership being symmetric — holds
/// exactly when `candidate` lies in the zone of the source, of one of its
/// contacts or (EM) of one of its edge nodes: the per-source *refusal set*
/// the CSQ walk stamps once instead of probing per candidate.
pub fn refuses_on_overlap(
    cfg: &CardConfig,
    tables: &NeighborhoodTables,
    candidate: NodeId,
    source: NodeId,
    contact_list: &[NodeId],
    edge_list: &[NodeId],
) -> bool {
    !passes_overlap_checks(tables, candidate, source, contact_list)
        || (cfg.method == SelectionMethod::Edge && !passes_edge_check(tables, candidate, edge_list))
}

/// The method's acceptance draw for a candidate at walk hop count `d` that
/// survived the overlap checks: PM draws eq. 1 / eq. 2 from `rng`, EM
/// accepts outright (its extra condition is an overlap check).
pub fn passes_acceptance_draw(cfg: &CardConfig, d: u16, rng: &mut RngStream) -> bool {
    let eq2 = match cfg.method {
        SelectionMethod::ProbabilisticEq1 => false,
        SelectionMethod::ProbabilisticEq2 => true,
        SelectionMethod::Edge => return true,
    };
    rng.chance(pm_probability(d, cfg.radius, cfg.max_contact_distance, eq2))
}

/// Full §III.C.2 decision at candidate node `candidate`, walk hop count
/// `d`. `edge_list` is consulted only by the edge method. Draws from `rng`
/// only for the probabilistic methods, and only past the overlap checks.
#[allow(clippy::too_many_arguments)] // mirrors the protocol message fields
pub fn decides_to_be_contact(
    cfg: &CardConfig,
    tables: &NeighborhoodTables,
    candidate: NodeId,
    source: NodeId,
    contact_list: &[NodeId],
    edge_list: &[NodeId],
    d: u16,
    rng: &mut RngStream,
) -> bool {
    !refuses_on_overlap(cfg, tables, candidate, source, contact_list, edge_list)
        && passes_acceptance_draw(cfg, d, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_topology::graph::Adjacency;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// A long path graph 0-1-2-...-19.
    fn path20() -> Adjacency {
        let mut adj = Adjacency::with_nodes(20);
        for i in 0..19u32 {
            adj.add_edge(n(i), n(i + 1));
        }
        adj
    }

    #[test]
    fn pm_probability_eq1_endpoints() {
        // R=3, r=20: P=0 at d=3, P=1 at d=20
        assert_eq!(pm_probability(3, 3, 20, false), 0.0);
        assert_eq!(pm_probability(20, 3, 20, false), 1.0);
        let mid = pm_probability(11, 3, 20, false);
        assert!((mid - 8.0 / 17.0).abs() < 1e-12);
    }

    #[test]
    fn pm_probability_eq2_endpoints() {
        // R=3, r=20: P=0 at d<=6, P=1 at d=20
        assert_eq!(pm_probability(6, 3, 20, true), 0.0);
        assert_eq!(pm_probability(4, 3, 20, true), 0.0, "below 2R clamps to 0");
        assert_eq!(pm_probability(20, 3, 20, true), 1.0);
        assert_eq!(pm_probability(25, 3, 20, true), 1.0, "beyond r clamps to 1");
        let mid = pm_probability(13, 3, 20, true);
        assert!((mid - 7.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn pm_probability_degenerate_annulus() {
        // r == 2R: accept only at the rim
        assert_eq!(pm_probability(5, 3, 6, true), 0.0);
        assert_eq!(pm_probability(6, 3, 6, true), 1.0);
    }

    #[test]
    fn overlap_check_rejects_source_in_neighborhood() {
        let adj = path20();
        let tables = NeighborhoodTables::compute(&adj, 3);
        // node 2 is within 3 hops of source 0 → overlap
        assert!(!passes_overlap_checks(&tables, n(2), n(0), &[]));
        // node 10 is 10 hops away → no overlap with source
        assert!(passes_overlap_checks(&tables, n(10), n(0), &[]));
    }

    #[test]
    fn overlap_check_rejects_existing_contact_nearby() {
        let adj = path20();
        let tables = NeighborhoodTables::compute(&adj, 3);
        // candidate 10, existing contact at 12 (2 hops away) → overlap
        assert!(!passes_overlap_checks(&tables, n(10), n(0), &[n(12)]));
        // existing contact at 17 (7 hops from 10) → fine
        assert!(passes_overlap_checks(&tables, n(10), n(0), &[n(17)]));
    }

    #[test]
    fn edge_check_enforces_2r_annulus_geometrically() {
        let adj = path20();
        let tables = NeighborhoodTables::compute(&adj, 3);
        let edge_list: Vec<NodeId> = tables.of(n(0)).edge_nodes().to_vec(); // {3}
        assert_eq!(edge_list, vec![n(3)]);
        // node 5 is 2 hops from edge node 3 → edge in neighborhood → reject
        assert!(!passes_edge_check(&tables, n(5), &edge_list));
        // node 6 is exactly 3 hops from edge 3 → still within R → reject
        assert!(!passes_edge_check(&tables, n(6), &edge_list));
        // node 7 is 4 hops from edge 3 → > R → accept (true distance 7 > 2R=6)
        assert!(passes_edge_check(&tables, n(7), &edge_list));
    }

    #[test]
    fn em_decision_deterministic() {
        let adj = path20();
        let tables = NeighborhoodTables::compute(&adj, 3);
        let cfg = CardConfig::default()
            .with_radius(3)
            .with_max_contact_distance(16)
            .with_method(SelectionMethod::Edge);
        let edges: Vec<NodeId> = tables.of(n(0)).edge_nodes().to_vec();
        let mut rng = RngStream::seed_from_u64(1);
        // node 8 (8 hops > 2R=6, no overlaps) accepts regardless of rng
        for _ in 0..10 {
            assert!(decides_to_be_contact(
                &cfg,
                &tables,
                n(8),
                n(0),
                &[],
                &edges,
                8,
                &mut rng
            ));
        }
        // node 5 always refuses
        for _ in 0..10 {
            assert!(!decides_to_be_contact(
                &cfg,
                &tables,
                n(5),
                n(0),
                &[],
                &edges,
                5,
                &mut rng
            ));
        }
    }

    #[test]
    fn pm_decision_respects_probability_extremes() {
        let adj = path20();
        let tables = NeighborhoodTables::compute(&adj, 3);
        let cfg = CardConfig::default()
            .with_radius(3)
            .with_max_contact_distance(16)
            .with_method(SelectionMethod::ProbabilisticEq2);
        let mut rng = RngStream::seed_from_u64(2);
        // d = r → P = 1 → always accepts (node 16 is 16 hops out, no overlap)
        assert!(decides_to_be_contact(
            &cfg,
            &tables,
            n(16),
            n(0),
            &[],
            &[],
            16,
            &mut rng
        ));
        // d = 2R → P = 0 → never accepts, even with no overlap
        assert!(!decides_to_be_contact(
            &cfg,
            &tables,
            n(16),
            n(0),
            &[],
            &[],
            6,
            &mut rng
        ));
    }

    #[test]
    fn pm_eq1_accepts_closer_than_eq2() {
        // With d=R+1 eq1 has nonzero probability while eq2 is zero — the
        // overlap pathology of Fig 1.
        let p1 = pm_probability(4, 3, 20, false);
        let p2 = pm_probability(4, 3, 20, true);
        assert!(p1 > 0.0);
        assert_eq!(p2, 0.0);
    }

    proptest! {
        /// PM probabilities are monotone in d and bounded in [0,1].
        #[test]
        fn prop_pm_monotone(radius in 1u16..5, extra in 1u16..20, d1 in 0u16..40, d2 in 0u16..40) {
            let r = 2 * radius + extra;
            for eq2 in [false, true] {
                let (lo, hi) = (d1.min(d2), d1.max(d2));
                let plo = pm_probability(lo, radius, r, eq2);
                let phi = pm_probability(hi, radius, r, eq2);
                prop_assert!((0.0..=1.0).contains(&plo));
                prop_assert!(plo <= phi);
            }
        }

        /// The refusal-set reading of the overlap checks, which the CSQ walk
        /// stamps once per source: a candidate refuses exactly when it lies
        /// in the zone of the source, of a contact or (EM) of an edge node.
        #[test]
        fn prop_overlap_refusal_is_zone_union(
            edges in proptest::collection::vec((0u32..18, 0u32..18), 0..60),
            contacts in proptest::collection::vec(0u32..18, 0..4),
            src in 0u32..18, radius in 1u16..3, method in 0usize..3,
        ) {
            let mut adj = Adjacency::with_nodes(18);
            for &(a, b) in &edges {
                if a != b {
                    adj.add_edge(n(a), n(b));
                }
            }
            let tables = NeighborhoodTables::compute(&adj, radius);
            let cfg = CardConfig::default().with_radius(radius).with_method([
                SelectionMethod::Edge,
                SelectionMethod::ProbabilisticEq1,
                SelectionMethod::ProbabilisticEq2,
            ][method]);
            let contacts: Vec<NodeId> = contacts.iter().map(|&c| n(c)).collect();
            let edge_list = tables.of(n(src)).edge_nodes();
            let mut refusing: Vec<NodeId> = contacts.clone();
            refusing.push(n(src));
            if cfg.method == SelectionMethod::Edge {
                refusing.extend_from_slice(edge_list);
            }
            for cand in NodeId::all(18) {
                let in_union = refusing.iter().any(|&z| tables.of(z).contains(cand));
                prop_assert_eq!(
                    refuses_on_overlap(&cfg, &tables, cand, n(src), &contacts, edge_list),
                    in_union
                );
            }
        }

        /// The edge check implies true distance > 2R on any graph
        /// (the geometric argument of §III.C.2.b).
        #[test]
        fn prop_edge_check_implies_distance(
            edges in proptest::collection::vec((0u32..18, 0u32..18), 0..60),
            src in 0u32..18, cand in 0u32..18, radius in 1u16..3,
        ) {
            let mut adj = Adjacency::with_nodes(18);
            for &(a, b) in &edges {
                if a != b {
                    adj.add_edge(n(a), n(b));
                }
            }
            let tables = NeighborhoodTables::compute(&adj, radius);
            let nb_src = tables.of(n(src));
            let edge_list: Vec<NodeId> = nb_src.edge_nodes().to_vec();
            let candidate = n(cand);
            // Only meaningful when source and candidate are connected.
            if let Some(true_dist) =
                net_topology::bfs::full_bfs(&adj, n(src)).distance(candidate)
            {
                let accepted = passes_overlap_checks(&tables, candidate, n(src), &[])
                    && passes_edge_check(&tables, candidate, &edge_list);
                if accepted {
                    prop_assert!(
                        true_dist > 2 * radius,
                        "EM accepted a node at {} hops with R={}",
                        true_dist, radius
                    );
                }
            }
        }
    }
}
