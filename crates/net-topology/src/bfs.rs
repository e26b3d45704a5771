//! Breadth-first search over the connectivity graph.
//!
//! Three operations cover every need of the upper layers:
//!
//! * [`khop_bfs`] — hop-limited BFS building a node's *neighborhood* (all
//!   nodes within R hops, with distances and BFS parents for path
//!   extraction). This is the idealized converged state of the proactive
//!   intra-zone protocol (DSDV) the paper assumes;
//! * [`full_bfs`] — unlimited BFS (connected components, eccentricities);
//! * [`shortest_path`] — hop-shortest path between two nodes, extracted
//!   from BFS parents.
//!
//! ## Scratch workspaces
//!
//! The mobility hot path runs thousands of BFS traversals per tick (one per
//! refreshed neighborhood), so allocating `O(N)` result vectors per call is
//! the dominant cost at scale. [`BfsScratch`] is a reusable workspace:
//! distances, parents, the queue and the discovery order all live in
//! buffers that persist across calls, and *visited* is tracked by an
//! epoch-stamped mark array (`mark[v] == current epoch`), so starting a new
//! traversal is O(1) — no clearing, no zeroing, no allocation once the
//! buffers have grown to the graph size. Results are read through the
//! borrowing [`BfsView`]; callers that need an owned result use the
//! [`BfsResult`]-returning convenience wrappers, which run on a
//! thread-local scratch and only allocate for the output itself.
//!
//! The paper's cost model (§III.C) depends on exactly this: neighborhood
//! maintenance must stay proportional to the *local* zone, not to the
//! network, as the system grows.

use crate::graph::Adjacency;
use crate::node::NodeId;
use std::cell::RefCell;
use std::collections::VecDeque;

/// Sentinel distance for unreached nodes.
pub const UNREACHED: u16 = u16::MAX;

/// Result of a (possibly hop-limited) BFS from one source.
#[derive(Clone, Debug)]
pub struct BfsResult {
    source: NodeId,
    /// Hop distance per node (`UNREACHED` if not visited).
    dist: Vec<u16>,
    /// BFS-tree parent per node (self for the source, meaningless when
    /// unreached).
    parent: Vec<NodeId>,
    /// Visited nodes in discovery order (the source is first).
    order: Vec<NodeId>,
}

impl BfsResult {
    /// The BFS source node.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Hop distance to `node`, or `None` if it was not reached.
    #[inline]
    pub fn distance(&self, node: NodeId) -> Option<u16> {
        match self.dist[node.index()] {
            UNREACHED => None,
            d => Some(d),
        }
    }

    /// Was `node` reached?
    #[inline]
    pub fn reached(&self, node: NodeId) -> bool {
        self.dist[node.index()] != UNREACHED
    }

    /// All visited nodes in discovery (hence non-decreasing distance) order,
    /// including the source itself at distance 0.
    pub fn visited(&self) -> &[NodeId] {
        &self.order
    }

    /// Number of visited nodes (including the source).
    pub fn visited_count(&self) -> usize {
        self.order.len()
    }

    /// The maximum distance reached (the source's eccentricity for an
    /// unlimited BFS over its component). Zero for an isolated node.
    pub fn max_distance(&self) -> u16 {
        self.order
            .iter()
            .map(|&n| self.dist[n.index()])
            .max()
            .unwrap_or(0)
    }

    /// Path from the source to `target` (inclusive of both), following BFS
    /// parents; `None` if `target` was not reached.
    pub fn path_to(&self, target: NodeId) -> Option<Vec<NodeId>> {
        if !self.reached(target) {
            return None;
        }
        let mut path = Vec::with_capacity(self.dist[target.index()] as usize + 1);
        let mut cur = target;
        path.push(cur);
        while cur != self.source {
            cur = self.parent[cur.index()];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

/// Reusable BFS workspace: persistent buffers + epoch-stamped visited
/// marks, so repeated traversals allocate nothing (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct BfsScratch {
    /// Graph size of the last run (buffers may be larger).
    n: usize,
    /// Epoch stamp per node; `mark[v] == epoch` means visited this run.
    mark: Vec<u32>,
    /// Current epoch (bumped per run; marks are only valid against it).
    epoch: u32,
    /// Hop distance per node, valid only where `mark[v] == epoch`.
    dist: Vec<u16>,
    /// BFS-tree parent per node, valid only where `mark[v] == epoch`.
    parent: Vec<NodeId>,
    /// Visited nodes of the last run, in discovery order.
    order: Vec<NodeId>,
    queue: VecDeque<NodeId>,
    /// Sources of the last run (one entry for single-source traversals).
    sources: Vec<NodeId>,
}

impl BfsScratch {
    /// A fresh workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace pre-sized for graphs of `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        let mut s = Self::default();
        s.ensure(n);
        s
    }

    /// Grow buffers to cover `n` nodes and open a new epoch.
    fn begin(&mut self, n: usize) {
        self.ensure(n);
        self.n = n;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch counter wrapped: invalidate every stale mark once.
            self.mark.fill(0);
            self.epoch = 1;
        }
        self.order.clear();
        self.queue.clear();
        self.sources.clear();
    }

    fn ensure(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
            self.dist.resize(n, 0);
            self.parent.resize(n, NodeId::new(0));
        }
    }

    /// Hop-limited BFS from `source`; `max_hops = 0` visits just the source.
    pub fn khop<'a>(&'a mut self, adj: &Adjacency, source: NodeId, max_hops: u16) -> BfsView<'a> {
        self.run(adj, &[source], Some(max_hops));
        self.view()
    }

    /// Unlimited BFS from `source` over its connected component.
    pub fn full<'a>(&'a mut self, adj: &Adjacency, source: NodeId) -> BfsView<'a> {
        self.run(adj, &[source], None);
        self.view()
    }

    /// Multi-source hop-limited BFS: every node within `max_hops` of *any*
    /// source (all sources at distance 0). This is the "R-hop ball around
    /// the changed region" primitive of the incremental topology refresh.
    /// Duplicate sources are tolerated; an empty source set yields an
    /// empty traversal (on which [`BfsView::source`] must not be called).
    pub fn ball<'a>(
        &'a mut self,
        adj: &Adjacency,
        sources: &[NodeId],
        max_hops: u16,
    ) -> BfsView<'a> {
        self.run(adj, sources, Some(max_hops));
        self.view()
    }

    /// [`BfsScratch::ball`] over a *virtual* graph given by a neighbor
    /// closure instead of a materialized [`Adjacency`]: `neighbors(v)` must
    /// return `v`'s sorted neighbor slice for every `v` in `0..n`. This is
    /// how the mover-driven refresh walks the **old** graph without keeping
    /// an O(E) snapshot — the closure serves patched rows from a per-row
    /// undo log and everything else from the live CSR.
    pub fn ball_with<'a, 'g>(
        &'a mut self,
        n: usize,
        neighbors: impl Fn(NodeId) -> &'g [NodeId],
        sources: &[NodeId],
        max_hops: u16,
    ) -> BfsView<'a> {
        self.run_with(n, neighbors, sources, Some(max_hops));
        self.view()
    }

    /// The view of the most recent traversal.
    pub fn view(&self) -> BfsView<'_> {
        BfsView { s: self }
    }

    fn run(&mut self, adj: &Adjacency, sources: &[NodeId], limit: Option<u16>) {
        self.run_with(adj.node_count(), |u| adj.neighbors(u), sources, limit);
    }

    fn run_with<'g>(
        &mut self,
        n: usize,
        neighbors: impl Fn(NodeId) -> &'g [NodeId],
        sources: &[NodeId],
        limit: Option<u16>,
    ) {
        self.begin(n);
        let epoch = self.epoch;
        for &src in sources {
            if self.mark[src.index()] == epoch {
                continue; // duplicate source
            }
            self.mark[src.index()] = epoch;
            self.dist[src.index()] = 0;
            self.parent[src.index()] = src;
            self.order.push(src);
            self.queue.push_back(src);
            self.sources.push(src);
        }
        while let Some(u) = self.queue.pop_front() {
            let du = self.dist[u.index()];
            if let Some(l) = limit {
                if du >= l {
                    continue;
                }
            }
            for &v in neighbors(u) {
                if self.mark[v.index()] != epoch {
                    self.mark[v.index()] = epoch;
                    self.dist[v.index()] = du + 1;
                    self.parent[v.index()] = u;
                    self.order.push(v);
                    self.queue.push_back(v);
                }
            }
        }
    }
}

/// Borrowing read access to a [`BfsScratch`] traversal.
#[derive(Clone, Copy, Debug)]
pub struct BfsView<'a> {
    s: &'a BfsScratch,
}

impl BfsView<'_> {
    /// The first source of the traversal.
    ///
    /// # Panics
    /// Panics if the traversal had no sources (an empty [`BfsScratch::ball`]).
    pub fn source(&self) -> NodeId {
        assert!(!self.s.sources.is_empty(), "traversal had no sources");
        self.s.sources[0]
    }

    /// Was `node` reached?
    #[inline]
    pub fn reached(&self, node: NodeId) -> bool {
        self.s.mark[node.index()] == self.s.epoch
    }

    /// Hop distance to `node` (from the nearest source), or `None`.
    #[inline]
    pub fn distance(&self, node: NodeId) -> Option<u16> {
        if self.reached(node) {
            Some(self.s.dist[node.index()])
        } else {
            None
        }
    }

    /// BFS-tree parent of a reached node (a source is its own parent).
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        if self.reached(node) {
            Some(self.s.parent[node.index()])
        } else {
            None
        }
    }

    /// Visited nodes in discovery (non-decreasing distance) order.
    pub fn visited(&self) -> &[NodeId] {
        &self.s.order
    }

    /// Number of visited nodes (sources included).
    pub fn visited_count(&self) -> usize {
        self.s.order.len()
    }

    /// The maximum distance reached. Zero when only sources were visited.
    pub fn max_distance(&self) -> u16 {
        self.s
            .order
            .last()
            .map(|&n| self.s.dist[n.index()])
            .unwrap_or(0)
    }

    /// Path from the traversal's source set to `target` (both inclusive),
    /// or `None` when unreached.
    pub fn path_to(&self, target: NodeId) -> Option<Vec<NodeId>> {
        if !self.reached(target) {
            return None;
        }
        let mut path = Vec::with_capacity(self.s.dist[target.index()] as usize + 1);
        let mut cur = target;
        path.push(cur);
        while self.s.parent[cur.index()] != cur {
            cur = self.s.parent[cur.index()];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// Export an owned [`BfsResult`] (allocates; single-source runs only).
    pub fn to_result(&self) -> BfsResult {
        let n = self.s.n;
        let mut dist = vec![UNREACHED; n];
        let source = self.source();
        let mut parent = vec![source; n];
        for &v in &self.s.order {
            dist[v.index()] = self.s.dist[v.index()];
            parent[v.index()] = self.s.parent[v.index()];
        }
        BfsResult {
            source,
            dist,
            parent,
            order: self.s.order.clone(),
        }
    }
}

thread_local! {
    /// This thread's long-lived scratch: the owned-result convenience
    /// wrappers below and [`with_local_scratch`] share it.
    static LOCAL_SCRATCH: RefCell<BfsScratch> = RefCell::new(BfsScratch::new());
}

/// Run `f` on this thread's long-lived [`BfsScratch`], whose buffers stay
/// grown between calls — the scratch for fan-out work, where a fresh
/// workspace per call would zero-fill O(N) marks each time.
///
/// # Panics
/// Panics if `f` re-enters it (or a wrapper below) on the same thread.
pub fn with_local_scratch<R>(f: impl FnOnce(&mut BfsScratch) -> R) -> R {
    LOCAL_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// BFS from `source` visiting only nodes within `max_hops` hops.
/// `max_hops = 0` visits just the source.
///
/// Runs on a thread-local [`BfsScratch`]; only the returned [`BfsResult`]
/// is allocated. Hot paths that cannot afford that either should hold
/// their own scratch and use [`BfsScratch::khop`].
pub fn khop_bfs(adj: &Adjacency, source: NodeId, max_hops: u16) -> BfsResult {
    with_local_scratch(|s| s.khop(adj, source, max_hops).to_result())
}

/// Unlimited BFS from `source` over its whole connected component.
pub fn full_bfs(adj: &Adjacency, source: NodeId) -> BfsResult {
    with_local_scratch(|s| s.full(adj, source).to_result())
}

/// Hop-shortest path between `a` and `b` (inclusive), or `None` if they are
/// disconnected. Allocates only the returned path.
pub fn shortest_path(adj: &Adjacency, a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
    with_local_scratch(|s| s.full(adj, a).path_to(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// 0-1-2-3 path plus isolated node 4.
    fn path_graph() -> Adjacency {
        let mut adj = Adjacency::with_nodes(5);
        adj.add_edge(NodeId(0), NodeId(1));
        adj.add_edge(NodeId(1), NodeId(2));
        adj.add_edge(NodeId(2), NodeId(3));
        adj
    }

    #[test]
    fn distances_on_path() {
        let adj = path_graph();
        let bfs = full_bfs(&adj, NodeId(0));
        assert_eq!(bfs.distance(NodeId(0)), Some(0));
        assert_eq!(bfs.distance(NodeId(1)), Some(1));
        assert_eq!(bfs.distance(NodeId(2)), Some(2));
        assert_eq!(bfs.distance(NodeId(3)), Some(3));
        assert_eq!(bfs.distance(NodeId(4)), None);
        assert!(!bfs.reached(NodeId(4)));
        assert_eq!(bfs.max_distance(), 3);
        assert_eq!(bfs.visited_count(), 4);
        assert_eq!(bfs.source(), NodeId(0));
    }

    #[test]
    fn khop_limits_radius() {
        let adj = path_graph();
        let bfs = khop_bfs(&adj, NodeId(0), 2);
        assert_eq!(bfs.distance(NodeId(2)), Some(2));
        assert_eq!(bfs.distance(NodeId(3)), None);
        assert_eq!(bfs.visited_count(), 3);

        let self_only = khop_bfs(&adj, NodeId(0), 0);
        assert_eq!(self_only.visited(), &[NodeId(0)]);
    }

    #[test]
    fn discovery_order_distances_nondecreasing() {
        let adj = path_graph();
        let bfs = full_bfs(&adj, NodeId(1));
        let dists: Vec<u16> = bfs
            .visited()
            .iter()
            .map(|&v| bfs.distance(v).unwrap())
            .collect();
        for w in dists.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn path_extraction() {
        let adj = path_graph();
        let bfs = full_bfs(&adj, NodeId(0));
        assert_eq!(
            bfs.path_to(NodeId(3)),
            Some(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)])
        );
        assert_eq!(bfs.path_to(NodeId(0)), Some(vec![NodeId(0)]));
        assert_eq!(bfs.path_to(NodeId(4)), None);
        assert_eq!(
            shortest_path(&adj, NodeId(3), NodeId(0)),
            Some(vec![NodeId(3), NodeId(2), NodeId(1), NodeId(0)])
        );
        assert_eq!(shortest_path(&adj, NodeId(0), NodeId(4)), None);
    }

    #[test]
    fn isolated_source() {
        let adj = path_graph();
        let bfs = full_bfs(&adj, NodeId(4));
        assert_eq!(bfs.visited(), &[NodeId(4)]);
        assert_eq!(bfs.max_distance(), 0);
    }

    #[test]
    fn cycle_takes_shorter_arc() {
        // 6-cycle: distance from 0 to 3 is 3, to 4 is 2, to 5 is 1.
        let mut adj = Adjacency::with_nodes(6);
        for i in 0..6u32 {
            adj.add_edge(NodeId(i), NodeId((i + 1) % 6));
        }
        let bfs = full_bfs(&adj, NodeId(0));
        assert_eq!(bfs.distance(NodeId(3)), Some(3));
        assert_eq!(bfs.distance(NodeId(4)), Some(2));
        assert_eq!(bfs.distance(NodeId(5)), Some(1));
        // the path found must have length == distance
        assert_eq!(bfs.path_to(NodeId(3)).unwrap().len(), 4);
    }

    #[test]
    fn scratch_reuse_across_runs_and_graphs() {
        let mut scratch = BfsScratch::new();
        let adj = path_graph();
        // Same scratch, many runs: results must match the allocating API.
        for src in NodeId::all(5) {
            let view_count = scratch.full(&adj, src).visited_count();
            assert_eq!(view_count, full_bfs(&adj, src).visited_count());
        }
        // Shrinking to a smaller graph is fine too.
        let mut small = Adjacency::with_nodes(2);
        small.add_edge(NodeId(0), NodeId(1));
        let view = scratch.full(&small, NodeId(1));
        assert_eq!(view.visited_count(), 2);
        assert_eq!(view.path_to(NodeId(0)), Some(vec![NodeId(1), NodeId(0)]));
    }

    #[test]
    fn scratch_view_matches_result_export() {
        let adj = path_graph();
        let mut scratch = BfsScratch::new();
        let view = scratch.khop(&adj, NodeId(0), 2);
        let result = view.to_result();
        for v in NodeId::all(5) {
            assert_eq!(view.distance(v), result.distance(v));
            assert_eq!(view.reached(v), result.reached(v));
            assert_eq!(view.path_to(v), result.path_to(v));
        }
        assert_eq!(view.visited(), result.visited());
        assert_eq!(view.max_distance(), result.max_distance());
        assert_eq!(view.source(), result.source());
    }

    #[test]
    fn multi_source_ball() {
        // 0-1-2-3-4-5 path; ball({0, 5}, 1) = {0, 1, 4, 5}.
        let mut adj = Adjacency::with_nodes(6);
        for i in 0..5u32 {
            adj.add_edge(NodeId(i), NodeId(i + 1));
        }
        let mut scratch = BfsScratch::new();
        let view = scratch.ball(&adj, &[NodeId(0), NodeId(5)], 1);
        let mut got: Vec<u32> = view.visited().iter().map(|n| n.raw()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 4, 5]);
        assert_eq!(view.distance(NodeId(1)), Some(1));
        assert_eq!(view.distance(NodeId(4)), Some(1));
        assert_eq!(view.distance(NodeId(2)), None);
        // duplicate sources are tolerated
        let view = scratch.ball(&adj, &[NodeId(2), NodeId(2)], 0);
        assert_eq!(view.visited(), &[NodeId(2)]);
    }

    #[test]
    fn ball_with_closure_matches_ball_on_adjacency() {
        let mut adj = Adjacency::with_nodes(6);
        for i in 0..5u32 {
            adj.add_edge(NodeId(i), NodeId(i + 1));
        }
        let mut scratch = BfsScratch::new();
        let direct: Vec<NodeId> = scratch.ball(&adj, &[NodeId(2)], 2).visited().to_vec();
        let via_closure: Vec<NodeId> = scratch
            .ball_with(6, |u| adj.neighbors(u), &[NodeId(2)], 2)
            .visited()
            .to_vec();
        assert_eq!(direct, via_closure);
        // An override that severs 2-3 must confine the ball to the left arc.
        let empty: &[NodeId] = &[];
        let left: &[NodeId] = &[NodeId(1)];
        let view = scratch.ball_with(
            6,
            |u| match u.raw() {
                2 => left,
                3 => empty,
                _ => adj.neighbors(u),
            },
            &[NodeId(2)],
            3,
        );
        let mut got: Vec<u32> = view.visited().iter().map(|n| n.raw()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn epoch_wraparound_resets_marks() {
        let adj = path_graph();
        let mut scratch = BfsScratch::new();
        scratch.full(&adj, NodeId(0));
        // Force the epoch counter to the wrap point and run again: stale
        // marks must not leak into the new traversal.
        scratch.epoch = u32::MAX;
        let view = scratch.full(&adj, NodeId(4));
        assert_eq!(view.visited(), &[NodeId(4)]);
        assert!(!view.reached(NodeId(0)));
    }

    /// Build a random undirected graph from a proptest edge list.
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
        /// BFS distance is symmetric on undirected graphs.
        #[test]
        fn prop_distance_symmetric(
            edges in proptest::collection::vec((0u32..30, 0u32..30), 0..80),
            a in 0u32..30, b in 0u32..30,
        ) {
            let adj = random_graph(30, &edges);
            let dab = full_bfs(&adj, NodeId(a)).distance(NodeId(b));
            let dba = full_bfs(&adj, NodeId(b)).distance(NodeId(a));
            prop_assert_eq!(dab, dba);
        }

        /// Triangle inequality over hops: d(a,c) <= d(a,b) + d(b,c).
        #[test]
        fn prop_triangle_inequality(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 0..60),
            a in 0u32..20, b in 0u32..20, c in 0u32..20,
        ) {
            let adj = random_graph(20, &edges);
            let ab = full_bfs(&adj, NodeId(a)).distance(NodeId(b));
            let bc = full_bfs(&adj, NodeId(b)).distance(NodeId(c));
            let ac = full_bfs(&adj, NodeId(a)).distance(NodeId(c));
            if let (Some(ab), Some(bc)) = (ab, bc) {
                prop_assert!(ac.is_some());
                prop_assert!(ac.unwrap() <= ab + bc);
            }
        }

        /// Extracted paths are valid: consecutive nodes adjacent, length
        /// equals distance, endpoints correct.
        #[test]
        fn prop_paths_valid(
            edges in proptest::collection::vec((0u32..25, 0u32..25), 0..70),
            a in 0u32..25, b in 0u32..25,
        ) {
            let adj = random_graph(25, &edges);
            let bfs = full_bfs(&adj, NodeId(a));
            if let Some(path) = bfs.path_to(NodeId(b)) {
                prop_assert_eq!(path[0], NodeId(a));
                prop_assert_eq!(*path.last().unwrap(), NodeId(b));
                prop_assert_eq!(path.len() as u16 - 1, bfs.distance(NodeId(b)).unwrap());
                for w in path.windows(2) {
                    prop_assert!(adj.is_neighbor(w[0], w[1]));
                }
            }
        }

        /// khop BFS visits exactly the nodes whose full-BFS distance ≤ k.
        #[test]
        fn prop_khop_is_distance_filter(
            edges in proptest::collection::vec((0u32..25, 0u32..25), 0..70),
            src in 0u32..25, k in 0u16..6,
        ) {
            let adj = random_graph(25, &edges);
            let full = full_bfs(&adj, NodeId(src));
            let limited = khop_bfs(&adj, NodeId(src), k);
            for v in NodeId::all(25) {
                let expect = matches!(full.distance(v), Some(d) if d <= k);
                prop_assert_eq!(limited.reached(v), expect);
                if expect {
                    prop_assert_eq!(limited.distance(v), full.distance(v));
                }
            }
        }

        /// A scratch reused across random graphs gives the same answers as
        /// fresh allocating runs (epoch stamping never leaks state).
        #[test]
        fn prop_scratch_equals_fresh(
            edges in proptest::collection::vec((0u32..25, 0u32..25), 0..70),
            srcs in proptest::collection::vec(0u32..25, 1..8),
            k in 0u16..6,
        ) {
            let adj = random_graph(25, &edges);
            let mut scratch = BfsScratch::new();
            for &s in &srcs {
                let fresh = khop_bfs(&adj, NodeId(s), k);
                let view = scratch.khop(&adj, NodeId(s), k);
                for v in NodeId::all(25) {
                    prop_assert_eq!(view.distance(v), fresh.distance(v));
                }
                prop_assert_eq!(view.visited(), fresh.visited());
            }
        }

        /// The multi-source ball equals the union of single-source balls.
        #[test]
        fn prop_ball_is_union_of_balls(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 0..60),
            srcs in proptest::collection::vec(0u32..20, 1..6),
            k in 0u16..5,
        ) {
            let adj = random_graph(20, &edges);
            let sources: Vec<NodeId> = srcs.iter().map(|&s| NodeId(s)).collect();
            let mut scratch = BfsScratch::new();
            let view = scratch.ball(&adj, &sources, k);
            for v in NodeId::all(20) {
                let expect = sources
                    .iter()
                    .any(|&s| matches!(full_bfs(&adj, s).distance(v), Some(d) if d <= k));
                prop_assert_eq!(view.reached(v), expect, "node {}", v);
            }
        }
    }
}
