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
//! ## Memory model: one buffer per table
//!
//! Every per-node structure here is sized by the *zone*, never by the
//! network. A table is a 32-byte header (owner, member count, one `Vec`)
//! over a single heap buffer of node ids, for m members and e edge nodes:
//!
//! ```text
//! [ member ids, ascending (m) | BFS parent of each member (m) | edge nodes, ascending (e) ]
//! ```
//!
//! That is `4·(2m + e)` bytes of heap in one allocation — at Table-1
//! densities a few hundred bytes per node regardless of N, which is what
//! lets the simulator hold N = 10⁶ worlds in laptop RAM. (The first design
//! carried an N-bit membership bitset per node: O(N²/8) bytes total,
//! ~1.25 GB at N = 10⁵.) Nothing else is stored. Membership is a binary
//! search over the member ids; a hop distance is the length of the
//! member's parent chain (at most R steps), which only tests and
//! equivalence harnesses ask for. The CSQ walk and node queries of
//! `card_core` answer their zone tests from per-walk stamps of whole
//! zones instead.
//!
//! ## Refresh
//!
//! A table is refilled in place from a hop-limited BFS, reusing its buffer
//! with exact growth: a long-lived table holds the largest zone it ever
//! had, never an amortized doubling of it. Tables are (re)computed on
//! per-thread [`BfsScratch`] workspaces fanned out over the persistent
//! worker pool in [`sim_core::par`], and
//! [`NeighborhoodTables::recompute_nodes`] rebuilds an arbitrary subset —
//! the primitive behind the incremental mobility refresh in
//! [`crate::network`].

use net_topology::bfs::{with_local_scratch, BfsScratch, BfsView};
use net_topology::graph::Adjacency;
use net_topology::node::NodeId;
use sim_core::par::parallel_map;

/// Neighborhood state of one node: one O(zone) buffer (see the module
/// docs for its layout).
#[derive(Clone, Debug)]
pub struct Neighborhood {
    owner: NodeId,
    /// Member count m (owner included).
    members: u32,
    /// `[member ids, ascending | parent of each member | edge nodes,
    /// ascending]`: m + m + e entries. The owner is its own parent.
    buf: Vec<NodeId>,
}

impl Neighborhood {
    /// Capture one node's neighborhood from a hop-limited BFS view: an
    /// empty table, filled.
    fn from_view(owner: NodeId, view: BfsView<'_>, radius: u16) -> Self {
        let mut nb = Neighborhood {
            owner,
            members: 0,
            buf: Vec::new(),
        };
        nb.fill(view, radius);
        nb
    }

    /// Overwrite this table from a hop-limited BFS view of its owner,
    /// reusing its buffer. Growth is exact, so a long-lived table holds the
    /// largest zone it ever had, not an amortized doubling of it.
    fn fill(&mut self, view: BfsView<'_>, radius: u16) {
        let visited = view.visited();
        let m = visited.len();
        // Discovery order is non-decreasing in distance: the edge nodes
        // are the visited tail at exactly `radius` hops.
        let e = visited
            .iter()
            .rev()
            .take_while(|&&v| view.distance(v) == Some(radius))
            .count();
        self.buf.clear();
        self.buf.reserve_exact(2 * m + e);
        self.buf.extend_from_slice(visited);
        self.buf[..m].sort_unstable();
        for k in 0..m {
            let parent = view.parent(self.buf[k]);
            self.buf.push(parent.expect("visited node has a parent"));
        }
        self.buf.extend_from_slice(&visited[m - e..]);
        self.buf[2 * m..].sort_unstable();
        self.members = m as u32;
    }

    /// Member ids in ascending order (owner included).
    #[inline]
    fn ids(&self) -> &[NodeId] {
        &self.buf[..self.members as usize]
    }

    /// BFS-tree parent of each member, aligned with `ids`.
    #[inline]
    fn parents(&self) -> &[NodeId] {
        let m = self.members as usize;
        &self.buf[m..2 * m]
    }

    /// Position of `node` in the sorted member ids.
    #[inline]
    fn pos(&self, node: NodeId) -> Option<usize> {
        self.ids().binary_search(&node).ok()
    }

    /// Member positions along the BFS-tree chain from position `k` up to
    /// the owner, both inclusive: at most R + 1 of them.
    fn chain(&self, k: usize) -> impl Iterator<Item = usize> + '_ {
        let (ids, parents) = (self.ids(), self.parents());
        std::iter::successors(Some(k), move |&k| {
            (ids[k] != self.owner).then(|| {
                self.pos(parents[k])
                    .expect("parents stay inside the neighborhood")
            })
        })
    }

    /// Is `node` within R hops of the owner (the owner itself counts)?
    /// A binary search over the sorted member ids.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.pos(node).is_some()
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
        self.ids()
    }

    /// Number of members including the owner.
    pub fn size(&self) -> usize {
        self.members as usize
    }

    /// Nodes at exactly R hops from the owner, in ascending id order.
    pub fn edge_nodes(&self) -> &[NodeId] {
        &self.buf[2 * self.members as usize..]
    }

    /// Hop distance to a member (`None` if outside the neighborhood): the
    /// length of its parent chain, so O(R log zone).
    pub fn distance(&self, node: NodeId) -> Option<u16> {
        self.pos(node).map(|k| (self.chain(k).count() - 1) as u16)
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
        let Some(k) = self.pos(node) else {
            return false;
        };
        let ids = self.ids();
        path.extend(self.chain(k).map(|k| ids[k]));
        path.reverse();
        true
    }

    /// Members in ascending id order (owner included).
    pub fn iter_members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ids().iter().copied()
    }

    /// Heap bytes held by this neighborhood (memory observability for the
    /// scale scenarios): its one buffer's capacity.
    pub fn approx_heap_bytes(&self) -> usize {
        self.buf.capacity() * std::mem::size_of::<NodeId>()
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
    /// fanned out over the worker pool on each thread's own [`BfsScratch`].
    pub fn compute(adj: &Adjacency, radius: u16) -> Self {
        let n = adj.node_count();
        let per_chunk = parallel_map(node_chunks(n), |range| {
            with_local_scratch(|scratch| {
                range
                    .map(|i| {
                        let src = NodeId::from(i);
                        Neighborhood::from_view(src, scratch.khop(adj, src, radius), radius)
                    })
                    .collect::<Vec<_>>()
            })
        });
        NeighborhoodTables {
            radius,
            tables: per_chunk.into_iter().flatten().collect(),
        }
    }

    /// Recompute the neighborhoods of `nodes` only, each in its own
    /// buffer, leaving every other table untouched. The caller guarantees
    /// `nodes` covers every node whose R-hop view changed — see
    /// `Network::refresh` for how that set is derived. Small sets run on
    /// the caller's `scratch`; larger ones fan out over the worker pool,
    /// each thread on its own long-lived scratch (a fresh one would
    /// zero-fill O(N) marks on every call).
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
        parallel_map(spans, |(base, span, ids)| {
            with_local_scratch(|scratch| {
                for &src in ids {
                    span[src.index() - base].fill(scratch.khop(adj, src, radius), radius);
                }
            })
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
    fn one_buffer_per_table() {
        assert!(std::mem::size_of::<Neighborhood>() <= 32);
        let mut adj = Adjacency::with_nodes(40);
        for i in 0..40u32 {
            adj.add_edge(NodeId(i), NodeId((i * 7 + 3) % 40));
            adj.add_edge(NodeId(i), NodeId((i + 1) % 40));
        }
        for radius in 0..4 {
            let tables = NeighborhoodTables::compute(&adj, radius);
            for owner in NodeId::all(40) {
                let nb = tables.of(owner);
                assert_eq!(
                    nb.approx_heap_bytes(),
                    4 * (2 * nb.size() + nb.edge_nodes().len()),
                    "heap of {owner} at R = {radius}"
                );
            }
        }
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
        /// that grow and shrink zones answer every query exactly as a fresh
        /// `compute` on the same graph does — a stale tail or a parent
        /// column out of line with the members would show — and their
        /// buffers never shrink. `serial` holds every call under the
        /// fan-out threshold; `fanned` hands over all 120 nodes at once,
        /// out of order and with a duplicate.
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
            let heap = |t: &NeighborhoodTables| -> Vec<usize> {
                NodeId::all(n).map(|v| t.of(v).approx_heap_bytes()).collect()
            };
            let mut held = [heap(&serial), heap(&fanned)];
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
                for (tables, held) in [&serial, &fanned].into_iter().zip(&mut held) {
                    for owner in NodeId::all(n) {
                        let (got, want) = (tables.of(owner), fresh.of(owner));
                        prop_assert_eq!(got.members(), want.members(), "members of {}", owner);
                        prop_assert_eq!(got.edge_nodes(), want.edge_nodes(), "edges of {}", owner);
                        for &m in want.members() {
                            prop_assert_eq!(got.path_to(m), want.path_to(m), "path {}/{}", owner, m);
                        }
                        for v in NodeId::all(n) {
                            prop_assert_eq!(got.distance(v), want.distance(v));
                            prop_assert_eq!(got.contains(v), want.contains(v));
                        }
                    }
                    let now = heap(tables);
                    for (v, (&before, &after)) in held.iter().zip(&now).enumerate() {
                        prop_assert!(after >= before, "buffer of {} shrank: {} -> {}", v, before, after);
                    }
                    *held = now;
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
