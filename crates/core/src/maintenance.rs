//! Contact maintenance — §III.C.3.
//!
//! Periodically each source sends a validation message along every stored
//! contact path. A relay whose next hop is no longer a direct neighbor
//! attempts **local recovery**: it looks the next hop up in its own
//! neighborhood table — and failing that, each *subsequent* node of the
//! source path — and splices the intra-zone route in, so the path heals
//! without a new source-initiated search. Rules, verbatim from the paper:
//!
//! 3. a path that cannot be salvaged ⇒ contact lost;
//! 4. a validated path whose hop count leaves `[2R, r]` ⇒ contact lost;
//! 5. after validating, if fewer than NoC contacts remain, new selection is
//!    initiated (done by the caller — see [`crate::world::CardWorld`]).
//!
//! ## Row stamps: which hops are re-tested
//!
//! The messages are the protocol's: every validation message and every
//! acknowledgement is charged hop for hop, every round. The *host* test of
//! each hop is not repeated needlessly. Each stored contact carries the
//! link version at which its whole stored path was last confirmed (CSQ
//! acceptance or a surviving validation; a hand-built contact starts
//! unconfirmed), and the network stamps every adjacency row a refresh
//! changes (see `manet_routing::network`, "Row stamps"). The walk tests
//! hop `(cur, next)` with `is_link` only when `cur`'s row changed since
//! that confirmation. That is sound because the walk keeps
//! `cur == path[at - 1]`: before any recovery trivially, and after a
//! splice too, since a splice ends on the stored node `path[k]` and
//! resumes at `at = k + 1`. So every tested hop is a stored hop, which
//! was a link at confirmation; if `cur`'s row is unchanged since, it
//! still holds `next`. The fault veto `allowed` is still asked on every
//! hop. The full walk is the same body when every row has changed (an
//! unconfirmed contact, or a wholesale rebuild's stamp-all watermark).
//!
//! Stored paths are simple — they never repeat a node, and every hop was
//! a link when stamped (debug builds assert both in the walk) — so an
//! unrecovered path is its own loop-free result: only a path that took a
//! recovery splice is copied and loop-compressed.

use manet_routing::network::Network;
use net_topology::node::NodeId;

use crate::config::CardConfig;
use crate::contact::{Contact, RowEdit};

/// Outcome counters of validation: one source's round (what
/// `validate_contacts` returns beside its metered crossings) or a whole
/// run's, summed in shard order
/// ([`crate::world::CardWorld::maintenance_totals`]).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct MaintenanceTotals {
    /// Successful path validations (possibly after recovery).
    pub validated: u64,
    /// Contacts lost to unsalvageable paths.
    pub lost: u64,
    /// Contacts dropped by the `[2R, r]` rule.
    pub dropped_out_of_range: u64,
    /// Paths healed by local recovery.
    pub recovered: u64,
}

impl MaintenanceTotals {
    /// Add `other`'s counters to these.
    pub(crate) fn merge(&mut self, other: &MaintenanceTotals) {
        self.validated += other.validated;
        self.lost += other.lost;
        self.dropped_out_of_range += other.dropped_out_of_range;
        self.recovered += other.recovered;
    }
}

/// Remove loops from a spliced path: keep the first occurrence of every
/// node, cutting the segment between repeats (the message would have
/// revisited a node — the node short-circuits the source route).
fn compress_loops(path: &mut Vec<NodeId>) {
    let mut i = 0;
    while i < path.len() {
        // find the LAST occurrence of path[i] and cut everything between
        if let Some(j) = (i + 1..path.len()).rev().find(|&j| path[j] == path[i]) {
            path.drain(i + 1..=j);
        }
        i += 1;
    }
}

/// Does `path` repeat no node?
fn is_simple(path: &[NodeId]) -> bool {
    path.iter()
        .enumerate()
        .all(|(i, v)| !path[i + 1..].contains(v))
}

/// Validate one stored path, last confirmed at link version `confirmed`,
/// against the current topology, healing it with local recovery where
/// allowed (`route` is the splice workspace). Returns (path survived,
/// recovery used); a path that used recovery leaves its healed,
/// loop-compressed form in `healed`, any other survivor is `path` itself.
/// The validation messages are added to `msgs`.
///
/// `allowed` is an extra per-hop admission predicate layered on top of the
/// substrate's `is_link`: the calm path passes `query::any_edge` (and compiles
/// to the unconditional walk), while fault injection uses it to veto hops
/// into crashed nodes or across a partition cut — including the hops of a
/// locally recovered splice, which would otherwise smuggle a route through
/// a region the fault plane has taken down.
#[allow(clippy::too_many_arguments)] // the walk's inputs and two workspaces
fn validate_path(
    net: &Network,
    cfg: &CardConfig,
    path: &[NodeId],
    confirmed: u32,
    msgs: &mut u64,
    allowed: impl Fn(NodeId, NodeId) -> bool + Copy,
    healed: &mut Vec<NodeId>,
    route: &mut Vec<NodeId>,
) -> (bool, bool) {
    debug_assert!(is_simple(path), "stored path repeats a node: {path:?}");
    // `path[at..]` is the part of the stored path still to be walked, and
    // the message sits at `path[at - 1]` (module docs). Until the first
    // recovery the walked prefix is `path[..at]` itself; from then on it
    // is built in `healed`.
    let mut at = 1;
    let mut used_recovery = false;

    'outer: while at < path.len() {
        let (cur, next) = (path[at - 1], path[at]);
        let linked = if net.row_changed_since(cur, confirmed) {
            net.is_link(cur, next)
        } else {
            debug_assert!(
                net.is_link(cur, next),
                "unchanged row {cur} lost its confirmed hop to {next}"
            );
            true
        };
        if linked && allowed(cur, next) {
            *msgs += 1; // the validation message traverses this hop
            if used_recovery {
                healed.push(next);
            }
            at += 1;
            continue;
        }
        // Next hop is gone. Local recovery (§III.C.3): look for the next
        // hop — or any later node of the source path — in cur's
        // neighborhood table and splice the intra-zone route in.
        if cfg.local_recovery {
            for (k, &candidate) in path.iter().enumerate().skip(at) {
                if net.tables().of(cur).path_into(candidate, route)
                    && route.windows(2).all(|w| allowed(w[0], w[1]))
                {
                    // route = [cur, ..., candidate]; message walks it
                    *msgs += route.len() as u64 - 1;
                    if !used_recovery {
                        healed.clear();
                        healed.extend_from_slice(&path[..at]);
                        used_recovery = true;
                    }
                    healed.extend_from_slice(&route[1..]);
                    at = k + 1;
                    continue 'outer;
                }
            }
        }
        return (false, used_recovery);
    }

    if used_recovery {
        compress_loops(healed);
    }
    (true, used_recovery)
}

/// Number of shard-boundary crossings along `path` when nodes are
/// partitioned into contiguous spans of `span_width` indices — how the
/// world meters validation traffic that the direct-read implementation
/// performs without materializing per-hop messages (see
/// `CardWorld::validation_round` and `ExchangeStats::metered_crossings`).
pub fn path_shard_crossings(path: &[NodeId], span_width: usize) -> u64 {
    let w = span_width.max(1);
    let Some((first, rest)) = path.split_first() else {
        return 0;
    };
    // `[lo, lo + w)` is the span of the last node seen: one division per
    // crossing, none for the hops that stay inside it.
    let mut lo = first.index() - first.index() % w;
    let mut crossings = 0;
    for v in rest.iter().map(|v| v.index()) {
        if v.wrapping_sub(lo) >= w {
            lo = v - v % w;
            crossings += 1;
        }
    }
    crossings
}

/// What a round does with a stored contact before walking its path. A
/// calm round walks every one; a faulted round tombstones the dead and
/// holds out the ones in a retry window or whose probe went unacked
/// (`world/round.rs`, "Fault injection").
#[derive(Clone, Copy, Debug)]
pub(crate) enum Probe {
    /// Walk the path.
    Walk,
    /// Keep the contact unwalked, after the row's survivors; `sent`
    /// charges the probe's hops (sent, never acked).
    Hold { sent: bool },
    /// Drop the contact, counted lost; `sent` charges the probe's hops.
    Drop { sent: bool },
}

/// Run one §III.C.3 validation round for `source`, whose row `row` is
/// being rewritten: walk every old contact's path, heal or drop and
/// enforce the hop-range rule, writing the survivors in order, confirmed
/// at the network's current link version, then the contacts `probe` held
/// out, unchanged. Returns `(totals, crossings, validation_msgs,
/// reply_msgs)`: the round's outcome counters, the span-boundary crossings
/// of every old path at span width `span_width` ([`path_shard_crossings`],
/// metered in the same pass), and its validation and acknowledgement
/// message counts, which the caller records (a shard records its span's
/// sums once).
///
/// `probe` decides each contact's fate before its walk and keeps the
/// row's tombstones and retry timers; a survivor's retry timer is
/// cleared. A hop `(cur, next)` is only traversable when it is a
/// substrate link *and* `allowed(cur, next)` holds: the calm round passes
/// `query::any_edge`, fault injection a predicate that vetoes crashed
/// endpoints and partition-crossing hops.
pub(crate) fn validate_contacts(
    net: &Network,
    cfg: &CardConfig,
    source: NodeId,
    row: &mut RowEdit<'_>,
    allowed: impl Fn(NodeId, NodeId) -> bool + Copy,
    span_width: usize,
    mut probe: impl FnMut(&mut RowEdit<'_>, Contact<'_>) -> Probe,
) -> (MaintenanceTotals, u64, u64, u64) {
    let mut totals = MaintenanceTotals::default();
    let (mut validation_msgs, mut reply_msgs, mut crossings) = (0u64, 0u64, 0u64);
    let (min_hops, max_hops) = cfg.valid_path_hops();
    let (mut healed, mut route, mut held) = (Vec::new(), Vec::new(), Vec::new());
    let version = net.link_version();

    for contact in row.old() {
        debug_assert_eq!(contact.source(), source, "foreign contact in row");
        crossings += path_shard_crossings(&contact.path, span_width);
        match probe(row, contact) {
            Probe::Walk => {}
            Probe::Hold { sent } => {
                validation_msgs += u64::from(sent) * contact.hops() as u64;
                held.push(contact);
                continue;
            }
            Probe::Drop { sent } => {
                validation_msgs += u64::from(sent) * contact.hops() as u64;
                totals.lost += 1;
                continue;
            }
        }
        let (alive, recovered) = validate_path(
            net,
            cfg,
            &contact.path,
            contact.confirmed,
            &mut validation_msgs,
            allowed,
            &mut healed,
            &mut route,
        );
        totals.recovered += u64::from(recovered);
        if !alive {
            totals.lost += 1;
            continue;
        }
        let path = if recovered {
            &healed[..]
        } else {
            &contact.path
        };
        let hops = (path.len() - 1) as u16;
        if hops < min_hops || hops > max_hops {
            // Rule 4: contact drifted too close or too far.
            totals.dropped_out_of_range += 1;
            continue;
        }
        // Ack travels back along the healed path.
        reply_msgs += hops as u64;
        totals.validated += 1;
        row.clear_retry(contact.id);
        row.push(path, version);
    }
    for contact in held {
        row.push(&contact.path, contact.confirmed);
    }

    (totals, crossings, validation_msgs, reply_msgs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::ContactStore;
    use crate::query::any_edge;
    use net_topology::geometry::{Field, Point2};
    use sim_core::stats::{MsgKind, MsgStats};
    use sim_core::time::SimTime;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// A line of nodes 40 m apart (range 50 m): 0-1-2-...-k.
    fn line_net(k: usize, radius: u16) -> Network {
        let positions: Vec<Point2> = (0..k)
            .map(|i| Point2::new(10.0 + 40.0 * i as f64, 10.0))
            .collect();
        Network::from_positions(
            Field::square(40.0 * k as f64 + 20.0),
            positions,
            50.0,
            radius,
        )
    }

    fn cfg(radius: u16, r: u16) -> CardConfig {
        CardConfig::default()
            .with_radius(radius)
            .with_max_contact_distance(r)
    }

    fn mk_stats() -> MsgStats {
        MsgStats::new(sim_core::time::SimDuration::from_secs(2))
    }

    /// A validation round of node 0 over a one-row store of `paths`
    /// under `allowed`, its messages recorded at time zero.
    fn validate(
        net: &Network,
        cfg: &CardConfig,
        paths: &[Vec<NodeId>],
        st: &mut MsgStats,
        allowed: impl Fn(NodeId, NodeId) -> bool + Copy,
    ) -> (MaintenanceTotals, ContactStore) {
        let mut store = ContactStore::from_paths(1, paths);
        let mut out = (MaintenanceTotals::default(), 0, 0, 0);
        store.rewrite(|_, row| {
            out = validate_contacts(net, cfg, n(0), row, allowed, 1, |_, _| Probe::Walk);
        });
        let (totals, _, validation, reply) = out;
        st.record_n(SimTime::ZERO, MsgKind::Validation, validation);
        st.record_n(SimTime::ZERO, MsgKind::ValidationReply, reply);
        (totals, store)
    }

    /// Node 0's one contact.
    fn only(store: &ContactStore) -> Contact<'_> {
        let mut contacts = store.table(0).contacts();
        assert_eq!(contacts.len(), 1);
        contacts.next().expect("one contact")
    }

    #[test]
    fn intact_path_validates_with_roundtrip_messages() {
        let net = line_net(10, 1);
        let cfg = cfg(1, 9);
        let path: Vec<NodeId> = (0..5).map(n).collect(); // 4 hops, in [2,9]
        let mut st = mk_stats();
        let (rep, store) = validate(&net, &cfg, &[path], &mut st, any_edge);
        assert_eq!(rep.validated, 1);
        assert_eq!(rep.lost, 0);
        assert_eq!(rep.recovered, 0);
        assert_eq!(store.contact_count(), 1);
        assert_eq!(st.total(MsgKind::Validation), 4);
        assert_eq!(st.total(MsgKind::ValidationReply), 4);
    }

    #[test]
    fn stale_hop_recovers_through_neighborhood() {
        // Stored path skips a relay that "moved": 0-1-3-4 is broken at 1->3
        // (distance 80 m), but 3 is within R=2 of 1 via 2, so recovery
        // splices 1-2-3.
        let net = line_net(6, 2);
        let cfg = cfg(2, 5);
        let broken = vec![n(0), n(1), n(3), n(4), n(5)];
        let mut st = mk_stats();
        let (rep, store) = validate(&net, &cfg, &[broken], &mut st, any_edge);
        assert_eq!(rep.validated, 1);
        assert_eq!(rep.recovered, 1);
        assert_eq!(*only(&store).path, [n(0), n(1), n(2), n(3), n(4), n(5)]);
        assert_eq!(only(&store).hops(), 5);
    }

    #[test]
    fn recovery_skips_to_later_path_node() {
        // Break at 1->3 AND node 3 unreachable? Use a path listing a node
        // that no longer exists on the line: 0-1-9-4-5 (1->9 broken, 9 not
        // within R of 1), but 4 IS within... R=2 of 1? dist(1,4)=3 > 2. So
        // make R=3: lookup of 9 fails (dist 8), then 4 at dist 3 found.
        let net = line_net(10, 3);
        let cfg = cfg(3, 9);
        let broken = vec![n(0), n(1), n(9), n(4), n(5), n(6), n(7)];
        let mut st = mk_stats();
        let (rep, store) = validate(&net, &cfg, &[broken], &mut st, any_edge);
        assert_eq!(rep.validated, 1, "should skip 9 and resume at 4");
        assert_eq!(rep.recovered, 1);
        assert_eq!(*only(&store).path, (0..8).map(n).collect::<Vec<_>>());
    }

    #[test]
    fn unsalvageable_path_loses_contact() {
        let net = line_net(12, 1); // R=1: tiny neighborhoods
        let cfg = cfg(1, 11);
        // 0-1-7-...: 1 cannot see 7 (6 hops) nor anything later within R=1
        let broken = vec![n(0), n(1), n(7), n(8)];
        let mut st = mk_stats();
        let (rep, store) = validate(&net, &cfg, &[broken], &mut st, any_edge);
        assert_eq!(rep.lost, 1);
        assert_eq!(rep.validated, 0);
        assert!(store.table(0).is_empty());
        assert_eq!(
            st.total(MsgKind::Validation),
            1,
            "one good hop before the break"
        );
    }

    #[test]
    fn local_recovery_disabled_loses_contact() {
        let net = line_net(6, 2);
        let mut c = cfg(2, 5);
        c.local_recovery = false;
        let broken = vec![n(0), n(1), n(3), n(4), n(5)];
        let mut st = mk_stats();
        let (rep, store) = validate(&net, &c, &[broken], &mut st, any_edge);
        assert_eq!(rep.lost, 1);
        assert_eq!(rep.recovered, 0);
        assert!(store.table(0).is_empty());
    }

    #[test]
    fn too_short_path_dropped_by_rule4() {
        let net = line_net(8, 2); // 2R = 4
        let cfg = cfg(2, 7);
        let path: Vec<NodeId> = (0..4).map(n).collect(); // 3 hops < 4
        let mut st = mk_stats();
        let (rep, store) = validate(&net, &cfg, &[path], &mut st, any_edge);
        assert_eq!(rep.dropped_out_of_range, 1);
        assert_eq!(rep.validated, 0);
        assert!(store.table(0).is_empty());
    }

    #[test]
    fn too_long_path_dropped_by_rule4() {
        let net = line_net(12, 2);
        let cfg = cfg(2, 6); // r = 6
        let path: Vec<NodeId> = (0..9).map(n).collect(); // 8 hops > 6
        let mut st = mk_stats();
        let (rep, store) = validate(&net, &cfg, &[path], &mut st, any_edge);
        assert_eq!(rep.dropped_out_of_range, 1);
        assert!(store.table(0).is_empty());
    }

    #[test]
    fn filtered_validation_vetoes_hops_and_recovery_routes() {
        // Same topology as stale_hop_recovers_through_neighborhood, but
        // node 2 — the only recovery relay for the 1->3 break — is down.
        let net = line_net(6, 2);
        let cfg = cfg(2, 5);
        let broken = vec![n(0), n(1), n(3), n(4), n(5)];
        let mut st = mk_stats();
        let down = n(2);
        let paths = [broken];
        let (rep, store) = validate(&net, &cfg, &paths, &mut st, |a, b| a != down && b != down);
        assert_eq!(rep.lost, 1, "recovery must not route through a down node");
        assert!(store.table(0).is_empty());
        // With the pass-all predicate the same path recovers.
        let (rep, _) = validate(&net, &cfg, &paths, &mut st, any_edge);
        assert_eq!(rep.validated, 1);
        assert_eq!(rep.recovered, 1);
    }

    #[test]
    fn compress_loops_removes_cycles() {
        let mut p = vec![n(0), n(1), n(2), n(1), n(3)];
        compress_loops(&mut p);
        assert_eq!(p, vec![n(0), n(1), n(3)]);
        let mut q = vec![n(0), n(1), n(2)];
        compress_loops(&mut q);
        assert_eq!(q, vec![n(0), n(1), n(2)]);
        let mut r = vec![n(0), n(1), n(0), n(1), n(2)];
        compress_loops(&mut r);
        assert_eq!(r, vec![n(0), n(1), n(2)]);
    }

    #[test]
    fn shard_crossings_on_degenerate_paths_and_widths() {
        assert_eq!(path_shard_crossings(&[], 4), 0);
        assert_eq!(path_shard_crossings(&[n(9)], 4), 0);
        // w = 0 is read as 1: every hop between distinct nodes crosses
        assert_eq!(path_shard_crossings(&[n(3), n(4), n(4), n(2)], 0), 2);
        // 3 and 9 share span [0, 10); 12 does not; back again
        assert_eq!(path_shard_crossings(&[n(3), n(9), n(12), n(3)], 10), 2);
        assert_eq!(path_shard_crossings(&[n(3), n(9), n(12)], usize::MAX), 0);
    }

    mod properties {
        use super::*;
        use net_topology::scenario::Scenario;
        use proptest::prelude::*;
        use sim_core::rng::SeedSplitter;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// After one validation round on a perturbed topology, every
            /// surviving contact path is a valid hop-by-hop route on the
            /// CURRENT topology, ends at the contact, and satisfies the
            /// [2R, r] rule.
            #[test]
            fn prop_survivors_have_valid_paths(seed in 0u64..300) {
                use crate::csq::{select_contacts, CsqScratch, ALL_EDGE_NODES};
                use mobility::waypoint::RandomWaypoint;

                let scenario = Scenario::new(120, 420.0, 420.0, 55.0);
                let config = CardConfig::default()
                    .with_radius(2)
                    .with_max_contact_distance(9)
                    .with_target_contacts(4)
                    .with_seed(seed);
                let mut net = Network::from_scenario(&scenario, 2, seed);
                let splitter = SeedSplitter::new(seed);
                let mut stats = mk_stats();

                // tables for a handful of sources
                let mut scratch = CsqScratch::new();
                let mut store = ContactStore::new(10);
                store.rewrite(|k, row| {
                    let mut rng = splitter.stream("prop-sel", k as u64);
                    select_contacts(
                        &net, &config, NodeId::from(k), row, &mut rng, &mut stats, SimTime::ZERO,
                        ALL_EDGE_NODES, &mut scratch,
                    );
                });

                // perturb the topology, then validate
                let mut model = RandomWaypoint::new(
                    120, scenario.field(), 1.0, 4.0, 0.0, splitter.stream("prop-mob", 0));
                net.advance(&mut model, sim_core::time::SimDuration::from_secs(1));

                let (min_hops, max_hops) = config.valid_path_hops();
                store.rewrite(|k, row| {
                    validate_contacts(&net, &config, NodeId::from(k), row, any_edge, 1, |_, _| Probe::Walk);
                });
                for (k, table) in store.view().iter().enumerate() {
                    for c in table.contacts() {
                        prop_assert_eq!(c.source(), NodeId::from(k));
                        prop_assert!(c.hops() >= min_hops && c.hops() <= max_hops);
                        for hop in c.path.windows(2) {
                            prop_assert!(
                                net.is_link(hop[0], hop[1]),
                                "surviving path has a dead hop {:?}", hop
                            );
                        }
                        // healed paths are loop-free
                        let mut seen = std::collections::HashSet::new();
                        for &p in c.path.iter() {
                            prop_assert!(seen.insert(p), "loop at {p} in healed path");
                        }
                    }
                }
            }

            /// The span-tracking count equals the definition — hops whose
            /// endpoints fall in different `w`-wide spans — for every
            /// width from 1 past the node count, on paths that revisit
            /// nodes and fold back.
            #[test]
            fn prop_shard_crossings_match_the_per_hop_definition(
                raw in proptest::collection::vec(0u32..40, 0..30),
                w in 1usize..50,
            ) {
                let path: Vec<NodeId> = raw.iter().map(|&i| NodeId::new(i)).collect();
                let by_definition = path
                    .windows(2)
                    .filter(|p| p[0].index() / w != p[1].index() / w)
                    .count() as u64;
                prop_assert_eq!(path_shard_crossings(&path, w), by_definition);
            }

            /// compress_loops is idempotent and never grows a path.
            #[test]
            fn prop_compress_loops_idempotent(raw in proptest::collection::vec(0u32..12, 1..30)) {
                let mut path: Vec<NodeId> = raw.iter().map(|&i| NodeId::new(i)).collect();
                let original_len = path.len();
                compress_loops(&mut path);
                prop_assert!(path.len() <= original_len);
                // no repeats afterwards
                let mut seen = std::collections::HashSet::new();
                for &p in &path {
                    prop_assert!(seen.insert(p));
                }
                // idempotent
                let once = path.clone();
                compress_loops(&mut path);
                prop_assert_eq!(once, path);
            }
        }
    }

    #[test]
    fn multiple_contacts_mixed_outcomes() {
        let net = line_net(12, 2);
        let cfg = cfg(2, 9);
        let paths = [
            (0..6).map(n).collect(), // 5 hops, fine
            (0..5).map(n).collect(), // 4 hops, = 2R fine
            (0..4).map(n).collect(), // 3 hops < 2R drop
        ];
        let mut st = mk_stats();
        let (rep, store) = validate(&net, &cfg, &paths, &mut st, any_edge);
        assert_eq!(rep.validated, 2);
        assert_eq!(rep.dropped_out_of_range, 1);
        assert_eq!(store.contact_count(), 2);
    }
}
