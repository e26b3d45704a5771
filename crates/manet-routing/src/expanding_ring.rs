//! Expanding-ring search (ERS).
//!
//! §III.C.4 compares CARD's depth-of-search escalation to "the expanding
//! ring search … However, querying in CARD is much more efficient … as the
//! queries are not flooded with different TTLs but are directed to
//! individual nodes". This module implements that comparison point: a
//! TTL-staged flood with duplicate suppression per stage, run beside Fig
//! 15's schemes by the `scheme_comparison` example.

use net_topology::bfs::full_bfs;
use net_topology::graph::Adjacency;
use net_topology::node::NodeId;
use sim_core::stats::{MsgKind, MsgStats};
use sim_core::time::SimTime;

/// Result of one expanding-ring search.
#[derive(Clone, Debug, PartialEq)]
pub struct ErsOutcome {
    /// Was the target reached by some ring?
    pub found: bool,
    /// Total broadcast transmissions across all stages.
    pub transmissions: u64,
    /// Reply messages (target back to source) if found.
    pub reply_messages: u64,
    /// Number of TTL stages actually executed.
    pub stages_used: usize,
    /// Hop distance to the target if found.
    pub hops_to_target: Option<u16>,
}

impl ErsOutcome {
    /// Total control messages: rings + reply.
    pub fn total_messages(&self) -> u64 {
        self.transmissions + self.reply_messages
    }
}

/// Run an expanding-ring search from `source` for `target` with the given
/// increasing TTL schedule (e.g. `[1, 2, 4, 8, 16]`).
///
/// Stage semantics: a flood with TTL `L` is rebroadcast by every node at
/// hop distance `< L` from the source (each exactly once per stage), and
/// reaches every node at distance `≤ L`. Stages run in order until the
/// target is reached or the schedule is exhausted. Earlier stages are *not*
/// free: their transmissions accumulate — that is exactly the inefficiency
/// CARD's directed DSQs avoid.
///
/// # Panics
/// Panics if `ttl_schedule` is empty or not strictly increasing.
pub fn expanding_ring_search(
    adj: &Adjacency,
    source: NodeId,
    target: NodeId,
    ttl_schedule: &[u16],
    stats: &mut MsgStats,
    at: SimTime,
) -> ErsOutcome {
    assert!(!ttl_schedule.is_empty(), "empty TTL schedule");
    assert!(
        ttl_schedule.windows(2).all(|w| w[0] < w[1]),
        "TTL schedule must be strictly increasing"
    );

    if source == target {
        return ErsOutcome {
            found: true,
            transmissions: 0,
            reply_messages: 0,
            stages_used: 0,
            hops_to_target: Some(0),
        };
    }

    let bfs = full_bfs(adj, source);
    let target_dist = bfs.distance(target);
    // Precompute the cumulative count of nodes by distance.
    let max_d = bfs.max_distance();
    let mut count_at = vec![0u64; max_d as usize + 1];
    for &v in bfs.visited() {
        count_at[bfs.distance(v).unwrap() as usize] += 1;
    }

    let mut transmissions = 0u64;
    let mut stages_used = 0usize;
    for &ttl in ttl_schedule {
        stages_used += 1;
        // Nodes at distance < ttl rebroadcast once each (the source counts,
        // at distance 0). Nodes exactly at ttl receive but do not forward.
        let forwarding: u64 = count_at
            .iter()
            .take((ttl as usize).min(count_at.len()))
            .sum();
        transmissions += forwarding;
        if let Some(d) = target_dist {
            if d <= ttl {
                let reply = d as u64;
                stats.record_n(at, MsgKind::ExpandingRing, transmissions + reply);
                return ErsOutcome {
                    found: true,
                    transmissions,
                    reply_messages: reply,
                    stages_used,
                    hops_to_target: Some(d),
                };
            }
        }
    }

    stats.record_n(at, MsgKind::ExpandingRing, transmissions);
    ErsOutcome {
        found: false,
        transmissions,
        reply_messages: 0,
        stages_used,
        hops_to_target: None,
    }
}

/// A doubling TTL schedule `1, 2, 4, …` capped at `max_ttl` (always ends
/// exactly at `max_ttl`).
pub fn doubling_schedule(max_ttl: u16) -> Vec<u16> {
    assert!(max_ttl >= 1);
    let mut out = Vec::new();
    let mut ttl = 1u16;
    while ttl < max_ttl {
        out.push(ttl);
        ttl = ttl.saturating_mul(2);
    }
    out.push(max_ttl);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimDuration;

    fn stats() -> MsgStats {
        MsgStats::new(SimDuration::from_secs(2))
    }

    fn path10() -> Adjacency {
        let mut adj = Adjacency::with_nodes(10);
        for i in 0..9u32 {
            adj.add_edge(NodeId(i), NodeId(i + 1));
        }
        adj
    }

    #[test]
    fn near_target_found_in_first_ring() {
        let adj = path10();
        let mut st = stats();
        let out = expanding_ring_search(
            &adj,
            NodeId(0),
            NodeId(1),
            &[1, 2, 4],
            &mut st,
            SimTime::ZERO,
        );
        assert!(out.found);
        assert_eq!(out.stages_used, 1);
        assert_eq!(out.hops_to_target, Some(1));
        // Stage TTL=1: only the source transmits.
        assert_eq!(out.transmissions, 1);
        assert_eq!(out.reply_messages, 1);
    }

    #[test]
    fn far_target_accumulates_stage_cost() {
        let adj = path10();
        let mut st = stats();
        let out = expanding_ring_search(
            &adj,
            NodeId(0),
            NodeId(8),
            &[1, 2, 4, 8],
            &mut st,
            SimTime::ZERO,
        );
        assert!(out.found);
        assert_eq!(out.stages_used, 4);
        // stage1: 1 tx; stage2: 2; stage4: 4; stage8: 8 → 15 total
        assert_eq!(out.transmissions, 15);
        assert_eq!(out.hops_to_target, Some(8));
        assert_eq!(st.total(MsgKind::ExpandingRing), out.total_messages());
    }

    #[test]
    fn miss_exhausts_schedule() {
        let adj = path10();
        let mut st = stats();
        let out =
            expanding_ring_search(&adj, NodeId(0), NodeId(9), &[1, 2], &mut st, SimTime::ZERO);
        assert!(!out.found, "n9 is 9 hops away, TTL 2 cannot reach it");
        assert_eq!(out.stages_used, 2);
        assert_eq!(out.reply_messages, 0);
    }

    #[test]
    fn disconnected_target_never_found() {
        let mut adj = Adjacency::with_nodes(4);
        adj.add_edge(NodeId(0), NodeId(1));
        // 2,3 disconnected
        adj.add_edge(NodeId(2), NodeId(3));
        let mut st = stats();
        let out = expanding_ring_search(
            &adj,
            NodeId(0),
            NodeId(3),
            &[1, 2, 4],
            &mut st,
            SimTime::ZERO,
        );
        assert!(!out.found);
    }

    #[test]
    fn self_query_free() {
        let adj = path10();
        let mut st = stats();
        let out = expanding_ring_search(&adj, NodeId(4), NodeId(4), &[1], &mut st, SimTime::ZERO);
        assert!(out.found);
        assert_eq!(out.total_messages(), 0);
        assert_eq!(out.stages_used, 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_increasing_schedule_rejected() {
        let adj = path10();
        expanding_ring_search(
            &adj,
            NodeId(0),
            NodeId(1),
            &[2, 2],
            &mut stats(),
            SimTime::ZERO,
        );
    }

    #[test]
    fn doubling_schedule_shape() {
        assert_eq!(doubling_schedule(1), vec![1]);
        assert_eq!(doubling_schedule(8), vec![1, 2, 4, 8]);
        assert_eq!(doubling_schedule(10), vec![1, 2, 4, 8, 10]);
        assert_eq!(doubling_schedule(16), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn ers_cheaper_than_flood_for_near_targets() {
        use crate::flooding::flood_search;
        let adj = path10();
        let mut st1 = stats();
        let mut st2 = stats();
        let ers = expanding_ring_search(
            &adj,
            NodeId(0),
            NodeId(1),
            &doubling_schedule(9),
            &mut st1,
            SimTime::ZERO,
        );
        let fl = flood_search(&adj, NodeId(0), NodeId(1), &mut st2, SimTime::ZERO);
        assert!(ers.total_messages() < fl.total_messages());
    }
}
