//! R-hop neighborhood (zone) tables.
//!
//! A node's *neighborhood* is every node within R hops (§III.B); its *edge
//! nodes* are those at exactly R hops. `NeighborhoodTables` materializes,
//! for every node at once:
//!
//! * zone membership (the "is the source / a contact / an edge node inside
//!   my neighborhood?" overlap checks of contact selection),
//! * hop distances and BFS parents (for intra-zone path extraction — the
//!   paths returned by queries and spliced in by local recovery).
//!
//! The tables represent the *converged* state of the proactive intra-zone
//! protocol, computed directly rather than by simulating its messages.
//!
//! ## Memory model: O(zone) per node
//!
//! Every per-node structure here is sized by the *zone*, never by the
//! network: sorted member ids, hop distances, BFS parents, edge nodes, and
//! a small Bloom fingerprint ([`sim_core::util::BloomSet`], ~1 byte per
//! member) over the member ids. Total memory is O(Σ zone sizes) — at
//! Table-1 densities roughly a few hundred bytes per node regardless of N,
//! which is what lets the simulator hold N = 10⁵ worlds in laptop RAM.
//! (The previous design carried an N-bit membership bitset per node:
//! O(N²/8) bytes total, ~1.25 GB at N = 10⁵ — the "O(N²) memory wall".)
//!
//! Membership tests stay cheap without the bitset: the Bloom fingerprint
//! answers the common *negative* case ("that node is nowhere near my
//! zone") in two word reads, and only possible members pay the
//! O(log zone) binary search that confirms exactly. No false negatives;
//! a false positive merely costs the binary search.
//!
//! ## Refresh
//!
//! Tables are (re)computed with per-worker [`BfsScratch`] workspaces fanned
//! out over the persistent worker pool in [`sim_core::par`], and
//! [`NeighborhoodTables::recompute_nodes`] rebuilds an arbitrary subset —
//! the primitive behind the incremental mobility refresh in
//! [`crate::network`].

use net_topology::bfs::{BfsScratch, BfsView};
use net_topology::graph::Adjacency;
use net_topology::node::NodeId;
use sim_core::par::parallel_map_with;
use sim_core::util::BloomSet;

/// Neighborhood state of one node — all fields O(zone size).
#[derive(Clone, Debug)]
pub struct Neighborhood {
    owner: NodeId,
    /// Member ids in ascending order (owner included).
    ids: Vec<NodeId>,
    /// Bloom fingerprint over `ids` (fast-negative membership probe).
    filter: BloomSet,
    /// Hop distance of `ids[k]` from the owner.
    dist: Vec<u16>,
    /// BFS-tree parent of `ids[k]` (the owner is its own parent).
    parent: Vec<NodeId>,
    /// Nodes at exactly R hops, sorted by id.
    edge_nodes: Vec<NodeId>,
}

/// Empty `buf` and make room for exactly `len` entries.
fn refill<T>(buf: &mut Vec<T>, len: usize) {
    buf.clear();
    buf.reserve_exact(len);
}

impl Neighborhood {
    /// Capture one node's neighborhood from a hop-limited BFS view: an
    /// empty table, filled.
    fn from_view(owner: NodeId, view: BfsView<'_>, radius: u16) -> Self {
        let mut nb = Neighborhood {
            owner,
            ids: Vec::new(),
            filter: BloomSet::with_capacity(view.visited_count()),
            dist: Vec::new(),
            parent: Vec::new(),
            edge_nodes: Vec::new(),
        };
        nb.fill(view, radius);
        nb
    }

    /// Overwrite this table from a hop-limited BFS view of its owner,
    /// reusing its buffers. Growth is exact, so a long-lived table holds
    /// the largest zone it ever had, not an amortized doubling of it.
    fn fill(&mut self, view: BfsView<'_>, radius: u16) {
        let visited = view.visited();
        refill(&mut self.ids, visited.len());
        self.ids.extend_from_slice(visited);
        self.ids.sort_unstable();
        self.filter.reset(visited.len());
        refill(&mut self.dist, visited.len());
        refill(&mut self.parent, visited.len());
        for &v in &self.ids {
            self.filter.insert(u64::from(v.0));
            self.dist
                .push(view.distance(v).expect("visited node has a distance"));
            self.parent
                .push(view.parent(v).expect("visited node has a parent"));
        }
        let at_radius = self.dist.iter().filter(|&&d| d == radius).count();
        refill(&mut self.edge_nodes, at_radius);
        let members = self.ids.iter().zip(&self.dist);
        self.edge_nodes
            .extend(members.filter(|&(_, &d)| d == radius).map(|(&v, _)| v));
    }

    /// Position of `node` in the sorted member arrays.
    #[inline]
    fn pos(&self, node: NodeId) -> Option<usize> {
        self.ids.binary_search(&node).ok()
    }

    /// Is `node` within R hops of the owner (the owner itself counts)?
    ///
    /// Two-stage test: the Bloom fingerprint rejects most non-members in
    /// two word reads; survivors are confirmed by binary search on the
    /// sorted member array.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.filter.may_contain(u64::from(node.0)) && self.pos(node).is_some()
    }

    /// Is *any* of `nodes` a member? The batch form of the overlap checks
    /// in contact selection (`Contact_List` / `Edge_List` against a
    /// candidate's zone).
    #[inline]
    pub fn contains_any(&self, nodes: &[NodeId]) -> bool {
        nodes.iter().any(|&v| self.contains(v))
    }

    /// Member ids in ascending order, owner included.
    pub fn members(&self) -> &[NodeId] {
        &self.ids
    }

    /// Number of members including the owner.
    pub fn size(&self) -> usize {
        self.ids.len()
    }

    /// Nodes at exactly R hops from the owner.
    pub fn edge_nodes(&self) -> &[NodeId] {
        &self.edge_nodes
    }

    /// Hop distance to a member (`None` if outside the neighborhood).
    pub fn distance(&self, node: NodeId) -> Option<u16> {
        self.pos(node).map(|k| self.dist[k])
    }

    /// Hop-shortest intra-zone path from the owner to `node` (inclusive).
    pub fn path_to(&self, node: NodeId) -> Option<Vec<NodeId>> {
        let mut path = Vec::new();
        self.path_into(node, &mut path).then_some(path)
    }

    /// [`Neighborhood::path_to`] into a caller-owned buffer (overwritten):
    /// `false`, leaving `path` empty, when `node` is outside the
    /// neighborhood. The allocation-free form for per-walk hot paths.
    pub fn path_into(&self, node: NodeId, path: &mut Vec<NodeId>) -> bool {
        path.clear();
        let Some(mut k) = self.pos(node) else {
            return false;
        };
        path.reserve(self.dist[k] as usize + 1);
        let mut cur = node;
        path.push(cur);
        while cur != self.owner {
            cur = self.parent[k];
            path.push(cur);
            k = self.pos(cur).expect("parents stay inside the neighborhood");
        }
        path.reverse();
        true
    }

    /// Members in ascending id order (owner included).
    pub fn iter_members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ids.iter().copied()
    }

    /// Approximate heap bytes held by this neighborhood (memory
    /// observability for the scale scenarios).
    pub fn approx_heap_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<NodeId>()
            + self.dist.capacity() * std::mem::size_of::<u16>()
            + self.parent.capacity() * std::mem::size_of::<NodeId>()
            + self.edge_nodes.capacity() * std::mem::size_of::<NodeId>()
            + self.filter.heap_bytes()
    }
}

/// Per-node neighborhood tables for a whole network snapshot.
#[derive(Clone, Debug)]
pub struct NeighborhoodTables {
    radius: u16,
    tables: Vec<Neighborhood>,
}

/// Chunk length for fanning `len` work items out over the workers:
/// enough chunks to load every worker several times over (so stragglers
/// rebalance), but large enough to amortize the queue lock.
fn chunk_len(len: usize) -> usize {
    (len / (sim_core::par::max_workers() * 4)).max(32)
}

/// Split `0..n` into contiguous ranges of [`chunk_len`] size.
fn node_chunks(n: usize) -> Vec<std::ops::Range<usize>> {
    let chunk = chunk_len(n);
    (0..n.div_ceil(chunk))
        .map(|c| c * chunk..((c + 1) * chunk).min(n))
        .collect()
}

impl NeighborhoodTables {
    /// Compute R-hop tables for every node: one hop-limited BFS per node,
    /// fanned out over the worker pool with one [`BfsScratch`] each.
    pub fn compute(adj: &Adjacency, radius: u16) -> Self {
        let n = adj.node_count();
        let per_chunk = parallel_map_with(node_chunks(n), BfsScratch::new, |scratch, range| {
            range
                .map(|i| {
                    let src = NodeId::from(i);
                    Neighborhood::from_view(src, scratch.khop(adj, src, radius), radius)
                })
                .collect::<Vec<_>>()
        });
        NeighborhoodTables {
            radius,
            tables: per_chunk.into_iter().flatten().collect(),
        }
    }

    /// Recompute the neighborhoods of `nodes` only, each in its own
    /// buffers, leaving every other table untouched. The caller guarantees
    /// `nodes` covers every node whose R-hop view changed — see
    /// `Network::refresh` for how that set is derived. Small sets run on
    /// the caller's `scratch`; larger ones fan out over the worker pool
    /// with one scratch per worker.
    pub fn recompute_nodes(&mut self, adj: &Adjacency, nodes: &[NodeId], scratch: &mut BfsScratch) {
        let n = adj.node_count();
        assert_eq!(n, self.tables.len(), "node count changed; use compute()");
        let radius = self.radius;
        // Small dirty sets: one scratch on the caller's thread beats even
        // the pool's publish/wake cost.
        if nodes.len() < 96 {
            for &src in nodes {
                self.tables[src.index()].fill(scratch.khop(adj, src, radius), radius);
            }
            return;
        }
        // Chunks of the sorted node list cover disjoint, ascending index
        // ranges: split the matching table spans off the front in turn.
        let mut order = nodes.to_vec();
        order.sort_unstable();
        order.dedup();
        let (mut rest, mut base) = (&mut self.tables[..], 0);
        let spans: Vec<_> = order
            .chunks(chunk_len(order.len()))
            .map(|ids| {
                let end = ids[ids.len() - 1].index() + 1;
                let (span, tail) = std::mem::take(&mut rest).split_at_mut(end - base);
                let item = (base, span, ids);
                (rest, base) = (tail, end);
                item
            })
            .collect();
        parallel_map_with(spans, BfsScratch::new, |scratch, (base, span, ids)| {
            for &src in ids {
                span[src.index() - base].fill(scratch.khop(adj, src, radius), radius);
            }
        });
    }

    /// The zone radius R these tables were built with.
    pub fn radius(&self) -> u16 {
        self.radius
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.tables.len()
    }

    /// The neighborhood of `owner`.
    #[inline]
    pub fn of(&self, owner: NodeId) -> &Neighborhood {
        &self.tables[owner.index()]
    }

    /// Convenience: is `node` inside `owner`'s neighborhood?
    #[inline]
    pub fn contains(&self, owner: NodeId, node: NodeId) -> bool {
        self.of(owner).contains(node)
    }

    /// Mean neighborhood size (owner included) over all nodes.
    pub fn mean_size(&self) -> f64 {
        if self.tables.is_empty() {
            return 0.0;
        }
        self.tables.iter().map(|t| t.size()).sum::<usize>() as f64 / self.tables.len() as f64
    }

    /// Approximate total heap bytes of all neighborhood state — O(Σ zone),
    /// not O(N²) (memory observability for the scale scenarios).
    pub fn approx_heap_bytes(&self) -> usize {
        self.tables
            .iter()
            .map(Neighborhood::approx_heap_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_topology::bfs::full_bfs;
    use proptest::prelude::*;

    /// 0-1-2-3-4 path.
    fn path5() -> Adjacency {
        let mut adj = Adjacency::with_nodes(5);
        for i in 0..4u32 {
            adj.add_edge(NodeId(i), NodeId(i + 1));
        }
        adj
    }

    #[test]
    fn membership_and_edges_on_path() {
        let tables = NeighborhoodTables::compute(&path5(), 2);
        let nb0 = tables.of(NodeId(0));
        assert!(nb0.contains(NodeId(0)));
        assert!(nb0.contains(NodeId(1)));
        assert!(nb0.contains(NodeId(2)));
        assert!(!nb0.contains(NodeId(3)));
        assert_eq!(nb0.size(), 3);
        assert_eq!(nb0.edge_nodes(), &[NodeId(2)]);
        let nb2 = tables.of(NodeId(2));
        assert_eq!(nb2.size(), 5);
        assert_eq!(nb2.edge_nodes(), &[NodeId(0), NodeId(4)]);
        assert_eq!(tables.radius(), 2);
        assert_eq!(tables.node_count(), 5);
    }

    #[test]
    fn distances_and_paths() {
        let tables = NeighborhoodTables::compute(&path5(), 3);
        let nb0 = tables.of(NodeId(0));
        assert_eq!(nb0.distance(NodeId(3)), Some(3));
        assert_eq!(nb0.distance(NodeId(4)), None);
        assert_eq!(
            nb0.path_to(NodeId(3)),
            Some(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)])
        );
        assert_eq!(nb0.path_to(NodeId(4)), None);
        // The buffer form overwrites whatever the buffer held.
        let mut buf = vec![NodeId(9); 7];
        assert!(nb0.path_into(NodeId(2), &mut buf));
        assert_eq!(buf, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert!(!nb0.path_into(NodeId(4), &mut buf));
        assert!(buf.is_empty());
    }

    #[test]
    fn radius_zero_is_self_only() {
        let tables = NeighborhoodTables::compute(&path5(), 0);
        let nb = tables.of(NodeId(2));
        assert_eq!(nb.size(), 1);
        assert!(nb.contains(NodeId(2)));
        assert!(!nb.contains(NodeId(1)));
        assert_eq!(nb.edge_nodes(), &[NodeId(2)]); // the owner is its own edge at R=0
    }

    #[test]
    fn isolated_node() {
        let mut adj = Adjacency::with_nodes(3);
        adj.add_edge(NodeId(0), NodeId(1));
        let tables = NeighborhoodTables::compute(&adj, 2);
        let nb = tables.of(NodeId(2));
        assert_eq!(nb.size(), 1);
        assert!(nb.edge_nodes().is_empty()); // nothing at exactly 2 hops
    }

    #[test]
    fn mean_size() {
        let tables = NeighborhoodTables::compute(&path5(), 1);
        // sizes: 2,3,3,3,2 -> mean 2.6
        assert!((tables.mean_size() - 2.6).abs() < 1e-12);
    }

    #[test]
    fn iter_members_matches_members_slice() {
        let tables = NeighborhoodTables::compute(&path5(), 2);
        let nb = tables.of(NodeId(1));
        let from_iter: Vec<NodeId> = nb.iter_members().collect();
        assert_eq!(from_iter, nb.members());
        // sorted ascending, and contains() agrees with the slice
        for w in from_iter.windows(2) {
            assert!(w[0] < w[1]);
        }
        for m in nb.members() {
            assert!(nb.contains(*m));
        }
    }

    #[test]
    fn contains_any_matches_individual_checks() {
        let tables = NeighborhoodTables::compute(&path5(), 1);
        let nb = tables.of(NodeId(2));
        assert!(nb.contains_any(&[NodeId(0), NodeId(3)])); // 3 is a member
        assert!(!nb.contains_any(&[NodeId(0), NodeId(4)]));
        assert!(!nb.contains_any(&[]));
    }

    #[test]
    fn heap_bytes_scale_with_zone_not_network() {
        // Same zone structure embedded in a much larger id space must not
        // grow per-node memory: O(zone), not O(N).
        let small = NeighborhoodTables::compute(&path5(), 2);
        let mut big_adj = Adjacency::with_nodes(5000);
        for i in 0..4u32 {
            big_adj.add_edge(NodeId(i), NodeId(i + 1));
        }
        let big = NeighborhoodTables::compute(&big_adj, 2);
        assert_eq!(
            small.of(NodeId(0)).approx_heap_bytes(),
            big.of(NodeId(0)).approx_heap_bytes(),
            "per-node memory must not depend on network size"
        );
    }

    #[test]
    fn recompute_nodes_updates_only_listed_tables() {
        let mut adj = path5();
        let mut tables = NeighborhoodTables::compute(&adj, 1);
        // Add edge 0-4, then refresh only nodes 0 and 4.
        adj.add_edge(NodeId(0), NodeId(4));
        tables.recompute_nodes(&adj, &[NodeId(0), NodeId(4)], &mut BfsScratch::new());
        assert!(tables.of(NodeId(0)).contains(NodeId(4)));
        assert!(tables.of(NodeId(4)).contains(NodeId(0)));
        // node 2's table was intentionally left stale (not in the list)
        assert_eq!(tables.of(NodeId(2)).size(), 3);
    }

    fn random_graph(n: usize, edges: &[(u32, u32)]) -> Adjacency {
        let mut adj = Adjacency::with_nodes(n);
        for &(a, b) in edges {
            let a = a % n as u32;
            let b = b % n as u32;
            if a != b {
                adj.add_edge(NodeId(a), NodeId(b));
            }
        }
        adj
    }

    proptest! {
        /// Membership ⇔ full-BFS distance ≤ R, and edge nodes are exactly
        /// the distance-R members.
        #[test]
        fn prop_tables_match_bfs(
            edges in proptest::collection::vec((0u32..25, 0u32..25), 0..70),
            radius in 0u16..5,
        ) {
            let adj = random_graph(25, &edges);
            let tables = NeighborhoodTables::compute(&adj, radius);
            for owner in NodeId::all(25) {
                let truth = full_bfs(&adj, owner);
                let nb = tables.of(owner);
                for v in NodeId::all(25) {
                    let expect = matches!(truth.distance(v), Some(d) if d <= radius);
                    prop_assert_eq!(nb.contains(v), expect);
                }
                let mut expect_edges: Vec<NodeId> = NodeId::all(25)
                    .filter(|&v| truth.distance(v) == Some(radius))
                    .collect();
                expect_edges.sort_unstable();
                prop_assert_eq!(nb.edge_nodes(), &expect_edges[..]);
            }
        }

        /// Long-lived tables rebuilt in place through rounds of link edits
        /// that grow and shrink zones equal a fresh `compute` on the same
        /// graph, field for field — a stale tail or a Bloom bit left over
        /// from a larger zone would show — and on `contains` for every
        /// node. `serial` holds every call under the fan-out threshold;
        /// `fanned` hands over all 120 nodes at once, out of order and with
        /// a duplicate.
        #[test]
        fn prop_in_place_rebuild_equals_fresh_compute(
            rounds in proptest::collection::vec(
                proptest::collection::vec((0u32..120, 0u32..120, any::<bool>()), 1..80),
                1..5),
            radius in 0u16..4,
        ) {
            let n = 120;
            let mut adj = random_graph(n, &[]);
            let mut serial = NeighborhoodTables::compute(&adj, radius);
            let mut fanned = serial.clone();
            let mut scratch = BfsScratch::new();
            let mut all: Vec<NodeId> = NodeId::all(n).collect();
            all.reverse();
            // sorted, the pair straddles the first (32-node) chunk boundary
            all.push(NodeId(31));
            for edits in &rounds {
                for &(a, b, add) in edits {
                    match (a != b, add) {
                        (false, _) => {}
                        (true, true) => adj.add_edge(NodeId(a), NodeId(b)),
                        // dense removals: take a's whole row down with it
                        (true, false) => {
                            for nb in adj.neighbors(NodeId(a)).to_vec() {
                                adj.remove_edge(NodeId(a), nb);
                            }
                        }
                    }
                }
                for part in all.chunks(50) {
                    serial.recompute_nodes(&adj, part, &mut scratch);
                }
                fanned.recompute_nodes(&adj, &all, &mut scratch);
                let fresh = NeighborhoodTables::compute(&adj, radius);
                for tables in [&serial, &fanned] {
                    for owner in NodeId::all(n) {
                        let (got, want) = (tables.of(owner), fresh.of(owner));
                        prop_assert_eq!(got.owner, owner);
                        prop_assert_eq!(&got.ids, &want.ids, "members of {}", owner);
                        prop_assert_eq!(&got.dist, &want.dist, "distances of {}", owner);
                        prop_assert_eq!(&got.parent, &want.parent, "parents of {}", owner);
                        prop_assert_eq!(&got.edge_nodes, &want.edge_nodes, "edges of {}", owner);
                        prop_assert_eq!(&got.filter, &want.filter, "filter of {}", owner);
                        for v in NodeId::all(n) {
                            prop_assert_eq!(got.contains(v), want.contains(v));
                        }
                    }
                }
            }
        }

        /// Neighborhood membership is symmetric: b ∈ nbhd(a) ⇔ a ∈ nbhd(b).
        #[test]
        fn prop_membership_symmetric(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 0..60),
            radius in 0u16..5,
        ) {
            let adj = random_graph(20, &edges);
            let tables = NeighborhoodTables::compute(&adj, radius);
            for a in NodeId::all(20) {
                for b in NodeId::all(20) {
                    prop_assert_eq!(tables.contains(a, b), tables.contains(b, a));
                }
            }
        }

        /// Intra-zone paths from the compact representation are valid
        /// hop-by-hop routes of length == distance.
        #[test]
        fn prop_paths_valid(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 0..60),
            radius in 1u16..4,
        ) {
            let adj = random_graph(20, &edges);
            let tables = NeighborhoodTables::compute(&adj, radius);
            for owner in NodeId::all(20) {
                let nb = tables.of(owner);
                for m in nb.iter_members() {
                    let path = nb.path_to(m).expect("member has a path");
                    prop_assert_eq!(path[0], owner);
                    prop_assert_eq!(*path.last().unwrap(), m);
                    prop_assert_eq!(path.len() as u16 - 1, nb.distance(m).unwrap());
                    for w in path.windows(2) {
                        prop_assert!(adj.is_neighbor(w[0], w[1]));
                    }
                }
            }
        }

        /// `contains_any` over arbitrary probe sets equals the any() of
        /// per-node `contains` — the contract the selection overlap checks
        /// rely on.
        #[test]
        fn prop_contains_any_equals_pointwise(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 0..60),
            probes in proptest::collection::vec(0u32..40, 0..12),
            owner in 0u32..20,
            radius in 0u16..4,
        ) {
            let adj = random_graph(20, &edges);
            let tables = NeighborhoodTables::compute(&adj, radius);
            let nb = tables.of(NodeId(owner));
            let probe_ids: Vec<NodeId> = probes.iter().map(|&p| NodeId(p)).collect();
            let pointwise = probe_ids.iter().any(|&v| nb.contains(v));
            prop_assert_eq!(nb.contains_any(&probe_ids), pointwise);
        }
    }
}
