//! Resources and resource-level discovery.
//!
//! CARD is a *resource* discovery architecture (§I): the target `T` of a
//! DSQ is "a destination or target resource". Node lookup is the special
//! case of a resource hosted by exactly one node. This module supplies the
//! general case:
//!
//! * [`ResourceId`] — an application-level resource name;
//! * [`ResourceRegistry`] — which nodes host which resources. The
//!   proactive neighborhood protocol disseminates host announcements within
//!   R hops, so any node can answer "who in my zone hosts ρ?" from its
//!   tables — precisely the lookup a DSQ-carrying contact performs;
//! * [`resource_query`] — the §III.C.4 query mechanism with *anycast*
//!   semantics: it returns as soon as any instance of the resource is
//!   found, preferring zone-local instances (no messages) and escalating
//!   the depth of search exactly like the node-lookup DSQ.
//!
//! §V names "resource distributions in the network" as an evaluation
//! dimension; [`distribute`] provides the standard distributions (uniform
//! random, replicated, clustered) the experiments sweep.

use manet_routing::neighborhood::Neighborhood;
use manet_routing::network::Network;
use net_topology::node::NodeId;
use sim_core::rng::RngStream;
use sim_core::stats::MsgStats;
use sim_core::time::SimTime;
use sim_core::util::BitSet;

use crate::contact::TablesView;
use crate::hints::{DepositLog, HintKey, HintLookup, HintStats};
use crate::query::{any_edge, escalate, HintContext, QueryOutcome, QueryScratch};

/// An application-level resource identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub u32);

impl ResourceId {
    /// The dense index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ResourceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ρ{}", self.0)
    }
}

/// Which nodes host which resources.
///
/// Backed by per-resource host bitsets (O(resources · N) bits — resources
/// are few). The zone lookup ("any host of ρ within my neighborhood?")
/// probes each host against the zone-local membership structure instead
/// of intersecting whole-network bitsets.
#[derive(Clone, Debug)]
pub struct ResourceRegistry {
    nodes: usize,
    /// Per resource: hosts as a bitset over node ids.
    hosts: Vec<BitSet>,
    /// Per resource: host count, maintained by `add_host` so zone lookups
    /// can pick their iteration side in O(1).
    counts: Vec<usize>,
}

impl ResourceRegistry {
    /// An empty registry for `resources` resources over `nodes` nodes.
    pub fn new(nodes: usize, resources: usize) -> Self {
        ResourceRegistry {
            nodes,
            hosts: (0..resources).map(|_| BitSet::new(nodes)).collect(),
            counts: vec![0; resources],
        }
    }

    /// Number of distinct resources.
    pub fn resource_count(&self) -> usize {
        self.hosts.len()
    }

    /// Register `node` as a host of `resource`.
    ///
    /// # Panics
    /// Panics if the resource or node is out of range.
    pub fn add_host(&mut self, resource: ResourceId, node: NodeId) {
        let set = &mut self.hosts[resource.index()];
        if !set.contains(node.index()) {
            set.insert(node.index());
            self.counts[resource.index()] += 1;
        }
    }

    /// Does `node` host `resource`?
    pub fn hosts(&self, resource: ResourceId, node: NodeId) -> bool {
        self.hosts[resource.index()].contains(node.index())
    }

    /// All hosts of `resource`.
    pub fn hosts_of(&self, resource: ResourceId) -> impl Iterator<Item = NodeId> + '_ {
        self.hosts[resource.index()].iter().map(NodeId::from)
    }

    /// Number of hosts of `resource` (O(1), maintained by `add_host`).
    pub fn host_count(&self, resource: ResourceId) -> usize {
        self.counts[resource.index()]
    }

    /// Is some host of `resource` inside `zone` (an arbitrary node set,
    /// e.g. a reachability set)?
    pub fn in_zone(&self, resource: ResourceId, zone: &BitSet) -> bool {
        self.hosts[resource.index()].intersects(zone)
    }

    /// Is some host of `resource` inside the neighborhood `nb`? This is
    /// the table lookup a contact performs on receiving a DSQ for ρ.
    pub fn hosted_in_neighborhood(&self, resource: ResourceId, nb: &Neighborhood) -> bool {
        self.hosted_in_neighborhood_where(resource, nb, |_| true)
    }

    /// Is some host of `resource` that satisfies `usable` inside `nb`?
    ///
    /// Iterates whichever side is smaller: the host set against the
    /// zone-local membership (O(hosts · log zone), the common few-replica
    /// case), or the zone members against the host bitset (O(zone), which
    /// keeps heavily replicated resources from degrading to O(N) probes).
    /// No O(N) bitset is materialized either way.
    pub(crate) fn hosted_in_neighborhood_where(
        &self,
        resource: ResourceId,
        nb: &Neighborhood,
        usable: impl Fn(NodeId) -> bool,
    ) -> bool {
        if self.host_count(resource) <= nb.size() {
            self.hosts_of(resource).any(|h| nb.contains(h) && usable(h))
        } else {
            let hosts = &self.hosts[resource.index()];
            nb.iter_members()
                .any(|m| hosts.contains(m.index()) && usable(m))
        }
    }

    /// The number of nodes this registry covers.
    pub fn node_count(&self) -> usize {
        self.nodes
    }
}

/// How resource instances are spread over the network (§V "resource
/// distributions").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResourceDistribution {
    /// Each resource on `replicas` hosts chosen uniformly at random.
    UniformReplicated {
        /// Number of hosts per resource.
        replicas: usize,
    },
    /// Each resource's replicas clustered around a random seed host: the
    /// seed plus its `replicas - 1` nearest nodes (in hops).
    Clustered {
        /// Number of hosts per resource.
        replicas: usize,
    },
}

/// Build a registry of `resources` resources over the network per the
/// distribution, deterministically from `rng`.
pub fn distribute(
    net: &Network,
    resources: usize,
    dist: ResourceDistribution,
    rng: &mut RngStream,
) -> ResourceRegistry {
    let n = net.node_count();
    let mut reg = ResourceRegistry::new(n, resources);
    for ridx in 0..resources {
        let resource = ResourceId(ridx as u32);
        match dist {
            ResourceDistribution::UniformReplicated { replicas } => {
                let mut placed = 0;
                let mut guard = 0;
                while placed < replicas.min(n) && guard < 100 * replicas.max(1) {
                    let node = NodeId::from(rng.index(n));
                    guard += 1;
                    if !reg.hosts(resource, node) {
                        reg.add_host(resource, node);
                        placed += 1;
                    }
                }
            }
            ResourceDistribution::Clustered { replicas } => {
                let seed = NodeId::from(rng.index(n));
                reg.add_host(resource, seed);
                // nearest nodes by hop distance, BFS discovery order
                let bfs = net_topology::bfs::full_bfs(net.adj(), seed);
                for &v in bfs
                    .visited()
                    .iter()
                    .skip(1)
                    .take(replicas.saturating_sub(1))
                {
                    reg.add_host(resource, v);
                }
            }
        }
    }
    reg
}

/// The resource query without statistics recording and under an edge
/// veto — the per-call body of [`resource_query`] and
/// `CardWorld::query_resource`, over the hint cache or `NoHints` alike
/// (one [`escalate`] body). A resource is its hosts: a zone answers iff it
/// lists a host the answerer can actually reach (`edge_ok(answerer, host)`;
/// with the pass-all veto this is the plain
/// [`ResourceRegistry::hosted_in_neighborhood`] lookup).
#[allow(clippy::too_many_arguments)] // mirrors the protocol message fields
pub(crate) fn resource_query_unrecorded<S: HintLookup>(
    net: &Network,
    contact_tables: TablesView<'_>,
    registry: &ResourceRegistry,
    ctx: &mut HintContext<'_, S>,
    source: NodeId,
    resource: ResourceId,
    max_depth: u16,
    scratch: &mut QueryScratch,
    edge_ok: impl Fn(NodeId, NodeId) -> bool + Copy,
) -> QueryOutcome {
    let zones = net.tables();
    let hosted =
        |c: NodeId| registry.hosted_in_neighborhood_where(resource, zones.of(c), |h| edge_ok(c, h));
    // Zone-local instance: answered from the proactive tables, free.
    if hosted(source) {
        return QueryOutcome::LOCAL_HIT;
    }
    escalate(
        net.node_count(),
        contact_tables,
        ctx,
        HintKey::resource(resource),
        source,
        max_depth,
        &mut scratch.walk,
        edge_ok,
        hosted,
    )
}

/// Anycast resource query (§III.C.4 with a resource target): check the own
/// zone, then escalate D = 1, 2, … `max_depth`, forwarding to contacts
/// level-synchronously; a final-level contact answers iff some host of the
/// resource lies in its neighborhood table.
///
/// Runs on the same incremental escalation engine as
/// [`crate::query::dsq_query`] — the walk is allocation-free on `scratch`
/// and only the answer predicate differs (a resource is its hosts: for a
/// single-host resource this is *exactly* the node-lookup DSQ, message for
/// message — pinned by `tests/query_engine.rs`).
///
/// With `hints`, the §V route-hint cache is consulted first and hint
/// deposits are queued on resolution, keyed by the *resource*, so any
/// replica's answer warms later queries for the same resource (see
/// [`crate::hints`] and [`crate::query::HintContext`]). Outcomes match the
/// plain query exactly — hints change cost, never answers.
#[allow(clippy::too_many_arguments)] // mirrors the protocol message fields
pub fn resource_query(
    net: &Network,
    contact_tables: TablesView<'_>,
    registry: &ResourceRegistry,
    hints: Option<&mut HintContext<'_>>,
    source: NodeId,
    resource: ResourceId,
    max_depth: u16,
    stats: &mut MsgStats,
    at: SimTime,
    scratch: &mut QueryScratch,
) -> QueryOutcome {
    // A free call: no memo outlives it.
    scratch.walk.forget();
    let out = match hints {
        Some(ctx) => resource_query_unrecorded(
            net,
            contact_tables,
            registry,
            ctx,
            source,
            resource,
            max_depth,
            scratch,
            any_edge,
        ),
        None => resource_query_unrecorded(
            net,
            contact_tables,
            registry,
            &mut HintContext::off(&mut HintStats::default(), &mut DepositLog::new()),
            source,
            resource,
            max_depth,
            scratch,
            any_edge,
        ),
    };
    out.recorded(stats, at)
}

/// The set of resources discoverable by `source` at contact depth `depth`:
/// resources with a host inside the source's reachability set.
pub fn discoverable_resources(
    net: &Network,
    contact_tables: TablesView<'_>,
    registry: &ResourceRegistry,
    source: NodeId,
    depth: u16,
) -> Vec<ResourceId> {
    let reach = crate::reachability::reachability_set(net, contact_tables, source, depth);
    (0..registry.resource_count() as u32)
        .map(ResourceId)
        .filter(|&r| registry.in_zone(r, &reach))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::ContactStore;
    use net_topology::geometry::{Field, Point2};
    use sim_core::stats::MsgKind;
    use sim_core::time::SimDuration;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn mk_stats() -> MsgStats {
        MsgStats::new(SimDuration::from_secs(2))
    }

    /// 16-node line, 40 m spacing, range 50 m, R=2.
    fn line_net() -> Network {
        let positions: Vec<Point2> = (0..16)
            .map(|i| Point2::new(10.0 + 40.0 * i as f64, 10.0))
            .collect();
        Network::from_positions(Field::square(700.0), positions, 50.0, 2)
    }

    fn tables_for_line(net: &Network) -> ContactStore {
        ContactStore::from_paths(
            net.node_count(),
            &[(0..7).map(n).collect(), (6..13).map(n).collect()],
        )
    }

    #[test]
    fn registry_basics() {
        let mut reg = ResourceRegistry::new(10, 3);
        assert_eq!(reg.resource_count(), 3);
        assert_eq!(reg.node_count(), 10);
        let r = ResourceId(1);
        assert_eq!(reg.host_count(r), 0);
        reg.add_host(r, n(4));
        reg.add_host(r, n(7));
        reg.add_host(r, n(4)); // idempotent
        assert_eq!(reg.host_count(r), 2);
        assert!(reg.hosts(r, n(4)));
        assert!(!reg.hosts(r, n(5)));
        assert_eq!(reg.hosts_of(r).collect::<Vec<_>>(), vec![n(4), n(7)]);
        assert_eq!(format!("{r}"), "ρ1");
    }

    #[test]
    fn zone_lookup_uses_neighborhood_membership() {
        let net = line_net();
        let mut reg = ResourceRegistry::new(16, 1);
        let r = ResourceId(0);
        reg.add_host(r, n(8));
        // node 7's zone (R=2) = {5..9} contains host 8
        assert!(reg.hosted_in_neighborhood(r, net.tables().of(n(7))));
        // node 0's zone = {0,1,2} does not
        assert!(!reg.hosted_in_neighborhood(r, net.tables().of(n(0))));
    }

    #[test]
    fn zone_local_resource_is_free() {
        let net = line_net();
        let tables = tables_for_line(&net);
        let mut reg = ResourceRegistry::new(16, 1);
        reg.add_host(ResourceId(0), n(2));
        let mut st = mk_stats();
        let out = resource_query(
            &net,
            tables.view(),
            &reg,
            None,
            n(0),
            ResourceId(0),
            3,
            &mut st,
            SimTime::ZERO,
            &mut QueryScratch::new(),
        );
        assert!(out.found);
        assert_eq!(out.depth_used, 0);
        assert_eq!(out.total_messages(), 0);
    }

    #[test]
    fn contact_zone_resource_found_at_depth_one() {
        let net = line_net();
        let tables = tables_for_line(&net);
        let mut reg = ResourceRegistry::new(16, 1);
        reg.add_host(ResourceId(0), n(7)); // inside contact 6's zone
        let mut st = mk_stats();
        let out = resource_query(
            &net,
            tables.view(),
            &reg,
            None,
            n(0),
            ResourceId(0),
            3,
            &mut st,
            SimTime::ZERO,
            &mut QueryScratch::new(),
        );
        assert!(out.found);
        assert_eq!(out.depth_used, 1);
        assert_eq!(out.query_msgs, 6);
        assert_eq!(st.total(MsgKind::Dsq), 6);
    }

    #[test]
    fn anycast_prefers_any_instance() {
        let net = line_net();
        let tables = tables_for_line(&net);
        let mut reg = ResourceRegistry::new(16, 1);
        // replicas at 13 (needs depth 2) and at 5 (depth 1): depth-1 answer wins
        reg.add_host(ResourceId(0), n(13));
        reg.add_host(ResourceId(0), n(5));
        let mut st = mk_stats();
        let out = resource_query(
            &net,
            tables.view(),
            &reg,
            None,
            n(0),
            ResourceId(0),
            3,
            &mut st,
            SimTime::ZERO,
            &mut QueryScratch::new(),
        );
        assert!(out.found);
        assert_eq!(out.depth_used, 1, "nearer replica answers first");
    }

    #[test]
    fn missing_resource_escalates_and_misses() {
        let net = line_net();
        let tables = tables_for_line(&net);
        let reg = ResourceRegistry::new(16, 1); // no hosts anywhere
        let mut st = mk_stats();
        let out = resource_query(
            &net,
            tables.view(),
            &reg,
            None,
            n(0),
            ResourceId(0),
            3,
            &mut st,
            SimTime::ZERO,
            &mut QueryScratch::new(),
        );
        assert!(!out.found);
        assert!(out.query_msgs > 0, "escalation paid for nothing");
        assert_eq!(out.reply_msgs, 0);
    }

    #[test]
    fn uniform_distribution_places_exact_replicas() {
        let net = line_net();
        let mut rng = RngStream::seed_from_u64(5);
        let reg = distribute(
            &net,
            4,
            ResourceDistribution::UniformReplicated { replicas: 3 },
            &mut rng,
        );
        for r in 0..4u32 {
            assert_eq!(reg.host_count(ResourceId(r)), 3);
        }
    }

    #[test]
    fn clustered_distribution_places_adjacent_replicas() {
        let net = line_net();
        let mut rng = RngStream::seed_from_u64(7);
        let reg = distribute(
            &net,
            2,
            ResourceDistribution::Clustered { replicas: 3 },
            &mut rng,
        );
        for r in 0..2u32 {
            let hosts: Vec<NodeId> = reg.hosts_of(ResourceId(r)).collect();
            assert_eq!(hosts.len(), 3);
            // on a line, 3 BFS-nearest nodes span at most 2 hops
            let ids: Vec<i64> = hosts.iter().map(|h| h.index() as i64).collect();
            let spread = ids.iter().max().unwrap() - ids.iter().min().unwrap();
            assert!(spread <= 2, "clustered hosts too spread: {ids:?}");
        }
    }

    #[test]
    fn discoverable_matches_query_outcomes() {
        let net = line_net();
        let tables = tables_for_line(&net);
        let mut rng = RngStream::seed_from_u64(9);
        let reg = distribute(
            &net,
            6,
            ResourceDistribution::UniformReplicated { replicas: 2 },
            &mut rng,
        );
        let disc = discoverable_resources(&net, tables.view(), &reg, n(0), 2);
        for r in 0..6u32 {
            let resource = ResourceId(r);
            let mut st = mk_stats();
            let out = resource_query(
                &net,
                tables.view(),
                &reg,
                None,
                n(0),
                resource,
                2,
                &mut st,
                SimTime::ZERO,
                &mut QueryScratch::new(),
            );
            assert_eq!(
                out.found,
                disc.contains(&resource),
                "query({resource}) disagrees with discoverable set"
            );
        }
    }

    #[test]
    fn determinism_of_distribution() {
        let net = line_net();
        let mk = |seed| {
            let mut rng = RngStream::seed_from_u64(seed);
            let reg = distribute(
                &net,
                3,
                ResourceDistribution::UniformReplicated { replicas: 2 },
                &mut rng,
            );
            (0..3u32)
                .flat_map(|r| reg.hosts_of(ResourceId(r)).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(1), mk(1));
        assert_ne!(mk(1), mk(2));
    }
}
