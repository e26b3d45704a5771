//! The network world: positions + connectivity + neighborhood tables.
//!
//! [`Network`] is the single mutable world object every experiment drives.
//! It owns the node positions, the unit-disk adjacency (with its spatial
//! grid), and the converged R-hop neighborhood tables, and it knows how to
//! advance mobility: move nodes, rebuild connectivity, recompute tables.
//!
//! ## Mover-driven incremental refresh
//!
//! A mobility tick used to recompute *every* node's neighborhood BFS. The
//! hot path is now mover-driven end-to-end ([`Network::advance`] →
//! [`Network::refresh_movers`]):
//!
//! 1. the mobility model reports exactly which nodes changed position
//!    (`MobilityModel::advance_reporting`);
//! 2. the adjacency is *patched* in place
//!    (`Adjacency::patch_with_grid`): the spatial grid re-buckets only
//!    reported movers that crossed a cell boundary, and every reported
//!    mover has its CSR row re-queried. Each row is diffed against its
//!    old content and the far, non-mover end of every appeared/disappeared
//!    link takes a half-edge edit — so the patch emits the *changed* nodes
//!    directly, with no O(N) snapshot diff, and saves each changed row's
//!    pre-patch content to a per-row **undo log** in the patch scratch
//!    (O(changed · degree) copies) because step 3 needs the old graph;
//! 3. a node `u`'s R-hop BFS relaxes exactly the edges incident to nodes
//!    at depth ≤ R−1 from `u`, so its table can only have changed if some
//!    changed node lies within **R−1** hops of `u` — in the old or the new
//!    graph (if no changed node is that close in either snapshot, an
//!    induction over BFS depth shows both frontiers stay identical). The
//!    *dirty* set is therefore the union of two multi-source (R−1)-hop
//!    balls around the changed nodes, one per snapshot — the old-snapshot
//!    ball runs over a *virtual* old graph ([`BfsScratch::ball_with`])
//!    that serves patched rows from the undo log and every other row from
//!    the live CSR; at R = 0 zones are `{self}` and no link change can
//!    dirty anything;
//! 4. only the dirty neighborhoods are rebuilt, each in its own buffers:
//!    small sets on the dirty-ball scratch, larger ones in parallel with
//!    per-worker [`net_topology::bfs::BfsScratch`] workspaces.
//!
//! Between mobility and the neighborhood refresh, no stage runs per-node
//! detection scans, range queries, diffs, or whole-CSR copies on the
//! steady-state path: every term is proportional to the movers and the
//! neighborhoods they disturb. (Earlier revisions paid one O(E)
//! double-buffer `clone_from` memcpy per tick to keep the old graph; the
//! undo log replaced it — the spare CSR buffer survives only as the
//! rebuild target of the report-free [`Network::refresh`] path.) Every
//! stage keeps its wholesale fallback (churn, slack overflow), and
//! [`Network::pipeline_counters`] reports what each stage actually did.
//!
//! The equivalence of this path with the naive rebuild is pinned by unit
//! tests below and by the randomized `tests/topology_refresh.rs` suite.
//!
//! ## Refresh roles
//!
//! * [`Network::refresh_movers`] is production for every mover report.
//! * [`Network::refresh`] is production too: the report-free path (full
//!   adjacency rebuild, all-rows diff, dirty balls). `refresh_movers`
//!   takes it whenever the reported movers exceed the patch budget — on
//!   every tick of a whole-network motion workload — and its all-rows
//!   diff keeps the table rebuild to the dirty balls (~10⁴ of 5·10⁴
//!   tables per tick when all 5·10⁴ nodes move) where a wholesale
//!   recompute would rebuild all of them. Callers that write positions
//!   without a report use it directly.
//! * [`Network::refresh_full`] is the layer's one oracle: scalar rebuild,
//!   every table recomputed; equivalence tests compare the other two
//!   against it.

use mobility::model::MobilityModel;
use net_topology::bfs::BfsScratch;
use net_topology::geometry::{Field, Point2};
use net_topology::graph::{Adjacency, AdjacencyUpdate, PatchScratch};
use net_topology::grid::{GridUpdate, SpatialGrid};
use net_topology::node::NodeId;
use net_topology::placement::place_uniform;
use net_topology::plane::{KernelScratch, KernelStats, PositionPlane};
use net_topology::scenario::Scenario;
use sim_core::rng::SeedSplitter;
use sim_core::time::SimDuration;

use crate::neighborhood::NeighborhoodTables;

/// Per-tick observability of the mover-driven mobility→topology pipeline:
/// how much work each stage of the last refresh actually did. On the
/// steady-state path every figure is O(movers); the O(N) values appear
/// exactly when a wholesale fallback ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineCounters {
    /// Nodes the mobility model reported as moved (N when the caller used
    /// a report-free refresh).
    pub movers_reported: usize,
    /// Always 0: every reported mover's row is re-queried. Kept only
    /// because the benchmark reads it; it goes together with the
    /// benchmark's `topology.movers_skipped_share` metric in the next
    /// benchmark revision.
    pub movers_skipped: usize,
    /// Grid entries re-bucketed: boundary-crossing movers, or N on a full
    /// relayout.
    pub grid_rebucketed: usize,
    /// CSR adjacency rows re-queried: the distinct reported movers, or N
    /// on a full rebuild.
    pub rows_patched: usize,
    /// Rows whose link set actually changed (the dirty-ball seeds).
    pub changed: usize,
    /// Neighborhood tables rebuilt (the dirty-ball members).
    pub dirty: usize,
    /// Did any wholesale fallback run (grid relayout, adjacency rebuild,
    /// or a report-free refresh)?
    pub full_fallback: bool,
    /// Candidate lanes classified by the two-phase f32 distance kernel
    /// (0 when the refresh ran a scalar path).
    pub kernel_lanes: u64,
    /// Kernel lanes that fell in the conservative error band and were
    /// resolved by the exact f64 test; `kernel_lanes - kernel_exact`
    /// lanes were decided purely in f32.
    pub kernel_exact: u64,
}

/// Which neighborhood tables the last refresh rebuilt — the invalidation
/// feed for state layered over the tables (card-core's route-hint cache
/// evicts the hints held at dirty nodes). The incremental paths retain the
/// exact dirty node list; wholesale fallbacks rebuilt everything without
/// keeping a list and report [`DirtyReport::All`].
#[derive(Clone, Copy, Debug)]
pub enum DirtyReport<'a> {
    /// Exactly these nodes' tables were rebuilt (possibly none).
    Exact(&'a [NodeId]),
    /// Every table was rebuilt (wholesale fallback).
    All,
}

/// A MANET snapshot plus the machinery to evolve it under mobility.
#[derive(Clone)]
pub struct Network {
    field: Field,
    tx_range: f64,
    radius: u16,
    positions: Vec<Point2>,
    adj: Adjacency,
    /// Spare CSR buffer for the report-free [`Network::refresh`] path: at
    /// entry it is swapped in as the rebuild target while the pre-refresh
    /// graph (which the tables reflect) becomes the diff baseline. The
    /// mover-driven path never copies into it — the old graph is
    /// reconstructed from the patch's per-row undo log instead — so its
    /// content between calls is unspecified.
    prev_adj: Adjacency,
    grid: SpatialGrid,
    /// SoA f32 mirror of `positions` feeding the two-phase distance
    /// kernels; kept coherent by the kernel refresh paths (mover lanes on
    /// patches, wholesale on rebuilds).
    plane: PositionPlane,
    /// Per-network kernel workspace (lane mirror, d² lanes, stats).
    kernel_scratch: KernelScratch,
    tables: NeighborhoodTables,
    /// Scratch for the dirty-ball traversals (reused across ticks).
    scratch: BfsScratch,
    /// Reusable buffers for the diff (changed nodes, dirty set).
    changed: Vec<NodeId>,
    dirty: Vec<NodeId>,
    dirty_flags: Vec<bool>,
    /// Workspace for the CSR adjacency patch (reused across ticks); also
    /// holds the per-row undo log the old-graph dirty ball reads.
    patch_scratch: PatchScratch,
    /// Sorted `(row, undo index)` lookup for the old-graph neighbor view
    /// (rebuilt per tick from the patch's undo log; reused buffer).
    undo_index: Vec<(NodeId, u32)>,
    /// Reusable buffer for the mobility model's mover report.
    movers_buf: Vec<NodeId>,
    /// What the last refresh actually did, stage by stage.
    counters: PipelineCounters,
}

impl Network {
    /// Instantiate a scenario: uniform random placement from `seed`, R-hop
    /// tables with zone radius `radius`.
    pub fn from_scenario(scenario: &Scenario, radius: u16, seed: u64) -> Self {
        let field = scenario.field();
        let mut rng = SeedSplitter::new(seed).stream("placement", 0);
        let positions = place_uniform(scenario.nodes, field, &mut rng);
        Self::from_positions(field, positions, scenario.tx_range, radius)
    }

    /// Build from explicit positions.
    ///
    /// # Panics
    /// Panics unless `tx_range` is positive and finite.
    pub fn from_positions(
        field: Field,
        positions: Vec<Point2>,
        tx_range: f64,
        radius: u16,
    ) -> Self {
        assert!(
            tx_range > 0.0 && tx_range.is_finite(),
            "invalid tx range {tx_range}"
        );
        let n = positions.len();
        let mut grid = SpatialGrid::new(field, tx_range);
        let mut plane = PositionPlane::new();
        let mut kernel_scratch = KernelScratch::new();
        let mut adj = Adjacency::with_nodes(n);
        adj.rebuild_with_grid_parallel(
            &mut grid,
            &mut plane,
            &positions,
            tx_range,
            &mut kernel_scratch,
        );
        let tables = NeighborhoodTables::compute(&adj, radius);
        Network {
            field,
            tx_range,
            radius,
            positions,
            prev_adj: adj.clone(),
            adj,
            grid,
            plane,
            kernel_scratch,
            tables,
            scratch: BfsScratch::with_capacity(n),
            changed: Vec::new(),
            dirty: Vec::new(),
            dirty_flags: vec![false; n],
            patch_scratch: PatchScratch::new(),
            undo_index: Vec::new(),
            movers_buf: Vec::new(),
            counters: PipelineCounters::default(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// The simulation field.
    pub fn field(&self) -> Field {
        self.field
    }

    /// The transmission range in meters.
    pub fn tx_range(&self) -> f64 {
        self.tx_range
    }

    /// The neighborhood radius R.
    pub fn radius(&self) -> u16 {
        self.radius
    }

    /// Node positions.
    pub fn positions(&self) -> &[Point2] {
        &self.positions
    }

    /// Mutable node positions. Every write must be followed by a refresh:
    /// [`Network::refresh_movers`] with a report covering the written
    /// nodes (what the event driver does after a per-region mobility
    /// advance), or the report-free [`Network::refresh`] /
    /// [`Network::refresh_full`] (custom placements in tests and benches).
    pub fn positions_mut(&mut self) -> &mut [Point2] {
        &mut self.positions
    }

    /// The current unit-disk adjacency.
    #[inline]
    pub fn adj(&self) -> &Adjacency {
        &self.adj
    }

    /// The current converged neighborhood tables.
    #[inline]
    pub fn tables(&self) -> &NeighborhoodTables {
        &self.tables
    }

    /// Advance mobility by `dt`: move nodes, patch connectivity and
    /// incrementally refresh neighborhood tables — all driven by the
    /// mobility model's mover report, so the steady-state tick does work
    /// proportional to actual motion. No-op for static models.
    ///
    /// The patch trusts the report: adjacency and tables must be in sync
    /// with the current positions when this is called. Callers that
    /// mutate positions directly ([`Network::positions_mut`],
    /// [`Network::advance_positions_only`]) must run
    /// [`Network::refresh`] first, as those APIs document — `advance` no
    /// longer rebuilds wholesale, so it cannot heal staleness smuggled in
    /// outside a mover report.
    pub fn advance(&mut self, model: &mut dyn MobilityModel, dt: SimDuration) {
        if model.is_static() {
            return;
        }
        let mut movers = std::mem::take(&mut self.movers_buf);
        model.advance_reporting(&mut self.positions, dt, &mut movers);
        self.refresh_movers(&movers);
        self.movers_buf = movers;
    }

    /// Move nodes *without* refreshing connectivity or tables (used to
    /// model stale state between proactive refreshes; callers must follow
    /// with [`Network::refresh`]).
    pub fn advance_positions_only(&mut self, model: &mut dyn MobilityModel, dt: SimDuration) {
        model.advance(&mut self.positions, dt);
    }

    /// Refresh connectivity and neighborhood tables given the set of nodes
    /// whose positions changed since the last refresh (`movers`, typically
    /// a `MobilityModel::advance_reporting` report — a superset is sound).
    /// The adjacency is patched in place (exactly the movers' rows are
    /// re-queried), the patch's changed-row output seeds the dirty
    /// neighborhood balls directly, and the old-graph ball reads the
    /// patch's per-row undo log — so no stage scans all N nodes or copies
    /// the CSR. Equivalent to — and checked against —
    /// [`Network::refresh_full`].
    pub fn refresh_movers(&mut self, movers: &[NodeId]) {
        let n = self.positions.len();
        if movers.is_empty() {
            // Nothing moved (the report is a superset of position
            // changes), so grid, adjacency and tables are all already
            // exact — the tick is O(1).
            self.counters = PipelineCounters {
                movers_reported: 0,
                ..PipelineCounters::default()
            };
            self.changed.clear();
            self.dirty.clear();
            return;
        }
        if !Adjacency::patch_viable(n, movers.len()) {
            // The churn fallback would rebuild wholesale anyway — take the
            // report-free path directly: its all-rows diff recovers the
            // changed set the patch can no longer report.
            self.refresh();
            self.counters.movers_reported = movers.len();
            return;
        }
        self.counters = PipelineCounters {
            movers_reported: movers.len(),
            ..PipelineCounters::default()
        };
        // The tables currently reflect `adj`; patch it in place. Old rows
        // live on in the patch scratch's undo log — no snapshot copy.
        // Every mover's row is re-queried through the two-phase f32
        // kernel against the SoA plane (mover lanes are refreshed first);
        // link decisions are bit-identical to the scalar f64 scan.
        self.kernel_scratch.stats = KernelStats::default();
        let outcome = self.adj.patch_with_grid(
            &mut self.grid,
            &mut self.plane,
            &self.positions,
            self.tx_range,
            movers,
            &mut self.changed,
            &mut self.patch_scratch,
            &mut self.kernel_scratch,
        );
        self.counters.kernel_lanes = self.kernel_scratch.stats.lanes;
        self.counters.kernel_exact = self.kernel_scratch.stats.exact_checks;
        match outcome {
            AdjacencyUpdate::Patched {
                rows_patched, grid, ..
            } => {
                self.counters.rows_patched = rows_patched;
                self.record_grid_update(grid);
                self.recompute_dirty_neighborhoods_from_undo();
            }
            AdjacencyUpdate::Full { grid } => {
                // Wholesale rebuild ran inside the patch (grid out of
                // sync): the pre-patch graph is gone and nothing was
                // logged, so rebuild every table.
                self.counters.full_fallback = true;
                self.counters.rows_patched = n;
                self.record_grid_update(grid);
                self.tables = NeighborhoodTables::compute(&self.adj, self.radius);
                self.changed.clear();
                self.dirty.clear();
                self.counters.changed = n;
                self.counters.dirty = n;
            }
        }
    }

    /// O(N) snapshot diff: collect into `self.changed` every node whose
    /// row differs between `prev_adj` and `adj` (the wholesale-path
    /// replacement for the patch's changed-row report).
    fn diff_changed_rows(&mut self) {
        self.changed.clear();
        for id in NodeId::all(self.positions.len()) {
            if self.adj.neighbors_changed(&self.prev_adj, id) {
                self.changed.push(id);
            }
        }
    }

    /// Fold a grid outcome into the tick counters: incremental updates
    /// report their boundary crossers, a full relayout reports N and
    /// flags the fallback.
    fn record_grid_update(&mut self, grid: GridUpdate) {
        self.counters.grid_rebucketed = match grid {
            GridUpdate::Incremental { movers } => movers,
            GridUpdate::Full => {
                self.counters.full_fallback = true;
                self.positions.len()
            }
        };
    }

    /// Rebuild connectivity from current positions and refresh only the
    /// neighborhoods whose R-hop view could have changed (see the module
    /// docs for the dirty-set derivation). This is the *report-free*
    /// production path — the adjacency is rebuilt wholesale (kernel,
    /// parallel) and diffed over all N rows — taken by
    /// [`Network::refresh_movers`] whenever its movers exceed the patch
    /// budget, and by callers that mutated positions without a report
    /// ([`Network::positions_mut`], [`Network::advance_positions_only`]).
    /// The diff is what keeps a churn tick's table rebuild to the dirty
    /// balls instead of all N tables. Equivalent to — and checked
    /// against — the oracle [`Network::refresh_full`].
    pub fn refresh(&mut self) {
        let n = self.positions.len();
        self.counters = PipelineCounters {
            movers_reported: n,
            rows_patched: n,
            full_fallback: true,
            ..PipelineCounters::default()
        };
        // The tables currently reflect `adj`; rebuild into the spare
        // buffer so old and new snapshots can be diffed. The rebuild is
        // the kernel/parallel path (canonical-CSR-identical to the serial
        // scalar rebuild).
        std::mem::swap(&mut self.adj, &mut self.prev_adj);
        self.kernel_scratch.stats = KernelStats::default();
        let grid_update = self.adj.rebuild_with_grid_parallel(
            &mut self.grid,
            &mut self.plane,
            &self.positions,
            self.tx_range,
            &mut self.kernel_scratch,
        );
        self.counters.kernel_lanes = self.kernel_scratch.stats.lanes;
        self.counters.kernel_exact = self.kernel_scratch.stats.exact_checks;
        self.record_grid_update(grid_update);
        self.diff_changed_rows();
        self.recompute_dirty_neighborhoods();
    }

    /// Dirty-ball tail of the mover-driven patch path: same derivation as
    /// [`Network::recompute_dirty_neighborhoods`], but the old-graph ball
    /// walks a *virtual* snapshot — patched rows served from the undo log
    /// recorded by [`Adjacency::patch_with_grid`], every other row from
    /// the live CSR — so no O(E) double-buffer copy is ever made.
    fn recompute_dirty_neighborhoods_from_undo(&mut self) {
        let Network {
            adj,
            tables,
            scratch,
            changed,
            dirty,
            dirty_flags,
            patch_scratch,
            undo_index,
            radius,
            counters,
            ..
        } = self;
        // Sorted (row → undo entry) lookup; the log holds exactly the
        // changed rows, so this is O(changed · log changed) to build and
        // O(log changed) per neighbor-slice fetch during the ball walk.
        undo_index.clear();
        undo_index.extend((0..patch_scratch.undo_count()).map(|k| {
            let (node, _) = patch_scratch.undo_entry(k);
            (node, k as u32)
        }));
        undo_index.sort_unstable_by_key(|&(v, _)| v);
        Self::dirty_ball_tail(
            adj,
            tables,
            scratch,
            changed,
            dirty,
            dirty_flags,
            counters,
            *radius,
            |v| match undo_index.binary_search_by_key(&v, |&(u, _)| u) {
                Ok(k) => patch_scratch.undo_entry(undo_index[k].1 as usize).1,
                Err(_) => adj.neighbors(v),
            },
        );
    }

    /// Shared tail of the report-free refresh paths: seed the (R−1)-hop
    /// dirty balls from `self.changed` in both snapshots and rebuild
    /// exactly those neighborhoods in parallel. The old snapshot here is
    /// `prev_adj` (the pre-swap graph the tables reflect).
    fn recompute_dirty_neighborhoods(&mut self) {
        let Network {
            adj,
            prev_adj,
            tables,
            scratch,
            changed,
            dirty,
            dirty_flags,
            radius,
            counters,
            ..
        } = self;
        Self::dirty_ball_tail(
            adj,
            tables,
            scratch,
            changed,
            dirty,
            dirty_flags,
            counters,
            *radius,
            |v| prev_adj.neighbors(v),
        );
    }

    /// The dirty-set derivation and rebuild shared by both refresh tails.
    ///
    /// Dirty = union of the (R−1)-hop balls around the changed nodes in
    /// the old and the new graph: a node's BFS-R relaxes only edges
    /// incident to depth ≤ R−1, so farther link changes cannot alter its
    /// table. The old graph is abstract — `old_neighbors(v)` must return
    /// `v`'s pre-refresh neighbor slice, however the caller keeps it
    /// (undo-log overlay or the `prev_adj` snapshot). At R = 0 zones are
    /// `{self}` and no link change can dirty anything.
    #[allow(clippy::too_many_arguments)] // exclusively-borrowed field set
    fn dirty_ball_tail<'g>(
        adj: &Adjacency,
        tables: &mut NeighborhoodTables,
        scratch: &mut BfsScratch,
        changed: &[NodeId],
        dirty: &mut Vec<NodeId>,
        dirty_flags: &mut [bool],
        counters: &mut PipelineCounters,
        radius: u16,
        old_neighbors: impl Fn(NodeId) -> &'g [NodeId],
    ) {
        counters.changed = changed.len();
        dirty.clear();
        counters.dirty = 0;
        if changed.is_empty() || radius == 0 {
            return;
        }
        let mut collect = |view: net_topology::bfs::BfsView<'_>| {
            for &v in view.visited() {
                if !dirty_flags[v.index()] {
                    dirty_flags[v.index()] = true;
                    dirty.push(v);
                }
            }
        };
        collect(scratch.ball_with(adj.node_count(), old_neighbors, changed, radius - 1));
        collect(scratch.ball(adj, changed, radius - 1));
        tables.recompute_nodes(adj, dirty, scratch);
        for &v in dirty.iter() {
            dirty_flags[v.index()] = false;
        }
        counters.dirty = dirty.len();
    }

    /// Rebuild connectivity and recompute *every* neighborhood from
    /// scratch: the layer's oracle. Semantically identical to
    /// [`Network::refresh`] and [`Network::refresh_movers`]; equivalence
    /// tests and the bench baseline compare against it.
    pub fn refresh_full(&mut self) {
        let n = self.positions.len();
        let grid_update =
            self.adj
                .rebuild_with_grid(&mut self.grid, &self.positions, self.tx_range);
        // This is the scalar reference path (no kernel), but the SoA
        // plane must still track the positions so a later kernel patch
        // finds coherent lanes.
        self.plane.rebuild(&self.positions);
        self.kernel_scratch.stats = KernelStats::default();
        // No double-buffer upkeep needed: `refresh` swaps the current
        // graph in as its own diff baseline before rebuilding, so the
        // spare buffer's content between calls is free to be stale.
        self.tables = NeighborhoodTables::compute(&self.adj, self.radius);
        self.counters = PipelineCounters {
            movers_reported: n,
            rows_patched: n,
            changed: n,
            dirty: n,
            full_fallback: true,
            ..PipelineCounters::default()
        };
        self.record_grid_update(grid_update);
        self.changed.clear();
        self.dirty.clear();
    }

    /// Are `a` and `b` currently within direct radio range?
    #[inline]
    pub fn is_link(&self, a: NodeId, b: NodeId) -> bool {
        self.adj.is_neighbor(a, b)
    }

    /// Stage-by-stage work counters of the last refresh (mover report,
    /// grid re-bucketing, CSR patching, dirty neighborhoods, kernel
    /// lane/exact-check volumes).
    pub fn pipeline_counters(&self) -> PipelineCounters {
        self.counters
    }

    /// The SoA f32 position mirror the distance kernels read (coherence
    /// with [`Network::positions`] is pinned by the refresh paths; exposed
    /// for the equivalence test suite).
    pub fn position_plane(&self) -> &PositionPlane {
        &self.plane
    }

    /// Sampled audit of the spatial grid's residency contract (see
    /// [`SpatialGrid::audit_residency`]): checks `samples` nodes — a
    /// rotating window across calls — against their current positions and
    /// returns the number of stale buckets found. A non-zero count means a
    /// mobility model under-reported its movers to
    /// [`Network::refresh_movers`]; this is the cheap release-build
    /// counterpart of the debug-only sweep inside `update_reported`.
    pub fn audit_grid_residency(&mut self, samples: usize) -> usize {
        self.grid.audit_residency(&self.positions, samples)
    }

    /// Targeted grid-residency audit of exactly `nodes` (see
    /// [`SpatialGrid::audit_nodes`]): crash and rejoin events leave a
    /// node's position untouched, so the fault plane audits the affected
    /// nodes directly — extending the sampled release audit to every
    /// tombstoned/rejoined site without advancing its rotating cursor.
    pub fn audit_grid_residency_nodes(&self, nodes: &[NodeId]) -> usize {
        self.grid.audit_nodes(&self.positions, nodes)
    }

    /// The last refresh's dirty set, for invalidating caches derived from
    /// the neighborhood tables. `Exact` whenever the refresh retained the
    /// per-node list (all incremental paths, including the no-motion
    /// tick); a wholesale rebuild that cleared the list reports `All`.
    pub fn dirty_report(&self) -> DirtyReport<'_> {
        if self.counters.dirty == self.dirty.len() {
            DirtyReport::Exact(&self.dirty)
        } else {
            DirtyReport::All
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobility::statics::StaticModel;
    use mobility::waypoint::RandomWaypoint;
    use proptest::prelude::*;
    use sim_core::rng::RngStream;

    fn small_scenario() -> Scenario {
        Scenario::new(60, 300.0, 300.0, 60.0)
    }

    #[test]
    fn from_scenario_builds_consistent_state() {
        let net = Network::from_scenario(&small_scenario(), 2, 42);
        assert_eq!(net.node_count(), 60);
        assert_eq!(net.radius(), 2);
        assert_eq!(net.tx_range(), 60.0);
        assert_eq!(net.tables().node_count(), 60);
        assert_eq!(net.positions().len(), 60);
        // tables must agree with adjacency: 1-hop members are exactly neighbors + self
        let tables_r1 = NeighborhoodTables::compute(net.adj(), 1);
        for id in NodeId::all(60) {
            assert_eq!(
                tables_r1.of(id).size(),
                net.adj().degree(id) + 1,
                "1-hop neighborhood = direct neighbors + self"
            );
        }
    }

    #[test]
    fn deterministic_instantiation() {
        let a = Network::from_scenario(&small_scenario(), 2, 7);
        let b = Network::from_scenario(&small_scenario(), 2, 7);
        assert_eq!(a.positions(), b.positions());
        assert_eq!(a.adj().link_count(), b.adj().link_count());
    }

    #[test]
    fn static_advance_is_noop() {
        let mut net = Network::from_scenario(&small_scenario(), 2, 1);
        let before = net.positions().to_vec();
        let links = net.adj().link_count();
        net.advance(&mut StaticModel, SimDuration::from_secs(10));
        assert_eq!(net.positions(), &before[..]);
        assert_eq!(net.adj().link_count(), links);
    }

    #[test]
    fn mobile_advance_updates_everything() {
        let mut net = Network::from_scenario(&small_scenario(), 2, 1);
        let before = net.positions().to_vec();
        let mut rwp =
            RandomWaypoint::new(60, net.field(), 5.0, 15.0, 0.0, RngStream::seed_from_u64(3));
        net.advance(&mut rwp, SimDuration::from_secs(5));
        assert_ne!(net.positions(), &before[..], "nodes should have moved");
        // adjacency is consistent with moved positions
        for a in NodeId::all(net.node_count()) {
            for &b in net.adj().neighbors(a) {
                let d = net.positions()[a.index()].dist(net.positions()[b.index()]);
                assert!(d <= net.tx_range() + 1e-9);
            }
        }
    }

    #[test]
    fn positions_only_then_refresh_matches_full_advance() {
        let mut a = Network::from_scenario(&small_scenario(), 2, 5);
        let mut b = Network::from_scenario(&small_scenario(), 2, 5);
        let mk = || {
            RandomWaypoint::new(
                60,
                Field::square(300.0),
                5.0,
                15.0,
                0.0,
                RngStream::seed_from_u64(9),
            )
        };
        let (mut ma, mut mb) = (mk(), mk());
        a.advance(&mut ma, SimDuration::from_secs(3));
        b.advance_positions_only(&mut mb, SimDuration::from_secs(3));
        b.refresh();
        assert_eq!(a.positions(), b.positions());
        assert_eq!(a.adj().link_count(), b.adj().link_count());
    }

    /// Compare every observable of two tables (the equivalence oracle for
    /// the incremental refresh).
    fn assert_tables_equal(a: &Network, b: &Network) {
        let n = a.node_count();
        assert_eq!(a.adj(), b.adj(), "adjacencies differ");
        for owner in NodeId::all(n) {
            let (na, nb) = (a.tables().of(owner), b.tables().of(owner));
            assert_eq!(na.size(), nb.size(), "size of {owner}");
            assert_eq!(na.edge_nodes(), nb.edge_nodes(), "edges of {owner}");
            for v in NodeId::all(n) {
                assert_eq!(na.contains(v), nb.contains(v), "membership {owner}/{v}");
                assert_eq!(na.distance(v), nb.distance(v), "distance {owner}/{v}");
            }
        }
    }

    #[test]
    fn incremental_refresh_matches_full_over_many_ticks() {
        for (seed, radius) in [(11u64, 1u16), (12, 2), (13, 3)] {
            let mut inc = Network::from_scenario(&small_scenario(), radius, seed);
            let mut full = Network::from_scenario(&small_scenario(), radius, seed);
            let mk = || {
                RandomWaypoint::new(
                    60,
                    Field::square(300.0),
                    5.0,
                    20.0,
                    0.0,
                    RngStream::seed_from_u64(seed ^ 0xabcd),
                )
            };
            let (mut mi, mut mf) = (mk(), mk());
            for _ in 0..8 {
                inc.advance_positions_only(&mut mi, SimDuration::from_secs(1));
                inc.refresh();
                full.advance_positions_only(&mut mf, SimDuration::from_secs(1));
                full.refresh_full();
                assert_tables_equal(&inc, &full);
            }
        }
    }

    #[test]
    fn refresh_with_no_movement_touches_nothing() {
        let mut net = Network::from_scenario(&small_scenario(), 2, 3);
        let links = net.adj().link_count();
        net.refresh();
        assert_eq!(net.adj().link_count(), links);
        assert!(net.changed.is_empty(), "no node may be flagged as changed");
    }

    #[test]
    fn full_then_incremental_interleave_stays_coherent() {
        let mut net = Network::from_scenario(&small_scenario(), 2, 21);
        let mut reference = Network::from_scenario(&small_scenario(), 2, 21);
        let mk = || {
            RandomWaypoint::new(
                60,
                Field::square(300.0),
                5.0,
                15.0,
                0.0,
                RngStream::seed_from_u64(5),
            )
        };
        let (mut ma, mut mb) = (mk(), mk());
        for step in 0..6 {
            net.advance_positions_only(&mut ma, SimDuration::from_secs(1));
            if step % 2 == 0 {
                net.refresh_full(); // interleaving must not confuse refresh()
            } else {
                net.refresh();
            }
            reference.advance_positions_only(&mut mb, SimDuration::from_secs(1));
            reference.refresh_full();
            assert_tables_equal(&net, &reference);
        }
    }

    #[test]
    fn mover_driven_advance_matches_full_over_many_ticks() {
        // The production path (advance → advance_reporting →
        // refresh_movers → patch) against the rebuild-everything
        // reference, per tick, across the four mobility models.
        use mobility::group::GroupMobility;
        use mobility::walk::RandomWalk;
        let field = Field::square(300.0);
        let models: Vec<(Box<dyn MobilityModel>, Box<dyn MobilityModel>)> = vec![
            (
                Box::new(RandomWalk::new(
                    60,
                    field,
                    0.5,
                    8.0,
                    2.0,
                    RngStream::seed_from_u64(31),
                )),
                Box::new(RandomWalk::new(
                    60,
                    field,
                    0.5,
                    8.0,
                    2.0,
                    RngStream::seed_from_u64(31),
                )),
            ),
            (
                Box::new(RandomWaypoint::new(
                    60,
                    field,
                    1.0,
                    15.0,
                    0.5,
                    RngStream::seed_from_u64(32),
                )),
                Box::new(RandomWaypoint::new(
                    60,
                    field,
                    1.0,
                    15.0,
                    0.5,
                    RngStream::seed_from_u64(32),
                )),
            ),
            (
                Box::new(GroupMobility::new(
                    60,
                    field,
                    4,
                    1.0,
                    8.0,
                    40.0,
                    RngStream::seed_from_u64(33),
                )),
                Box::new(GroupMobility::new(
                    60,
                    field,
                    4,
                    1.0,
                    8.0,
                    40.0,
                    RngStream::seed_from_u64(33),
                )),
            ),
        ];
        for (mut mi, mut mf) in models {
            let mut inc = Network::from_scenario(&small_scenario(), 2, 44);
            let mut full = Network::from_scenario(&small_scenario(), 2, 44);
            for _ in 0..8 {
                inc.advance(mi.as_mut(), SimDuration::from_millis(500));
                full.advance_positions_only(mf.as_mut(), SimDuration::from_millis(500));
                full.refresh_full();
                assert_tables_equal(&inc, &full);
                assert_eq!(
                    inc.adj().canonical_csr(),
                    full.adj().canonical_csr(),
                    "patched CSR must canonicalize identically to a rebuild"
                );
            }
        }
    }

    #[test]
    fn pipeline_counters_reflect_motion() {
        let mut net = Network::from_scenario(&small_scenario(), 2, 17);
        // A static model never even reaches the refresh.
        net.advance(&mut StaticModel, SimDuration::from_secs(1));
        // A full-motion tick: every node moves, far past the patch budget.
        let mut rwp =
            RandomWaypoint::new(60, net.field(), 0.5, 1.0, 0.0, RngStream::seed_from_u64(2));
        net.advance(&mut rwp, SimDuration::from_secs(1));
        let c = net.pipeline_counters();
        assert_eq!(c.movers_reported, 60, "zero-pause RWP moves everyone");
        assert!(
            c.full_fallback,
            "60 far-moving movers of 60 nodes must trip the churn fallback"
        );
        // Move only one node, via the explicit mover-report path: exactly
        // its own row is re-queried, however inert the 1 m hop.
        let p = net.positions()[5];
        net.positions_mut()[5] = Point2::new(p.x + 1.0, p.y);
        net.refresh_movers(&[NodeId::new(5)]);
        let c = net.pipeline_counters();
        assert_eq!(c.movers_reported, 1);
        assert!(!c.full_fallback, "one mover must stay on the patch path");
        assert_eq!(c.rows_patched, 1, "{c:?}");
        // No motion at all: nothing to do anywhere.
        net.refresh_movers(&[]);
        let c = net.pipeline_counters();
        assert_eq!(
            (c.movers_reported, c.rows_patched, c.changed, c.dirty),
            (0, 0, 0, 0)
        );
        assert!(!c.full_fallback);
    }

    #[test]
    fn kernel_counters_and_plane_track_refresh_paths() {
        let mut net = Network::from_scenario(&small_scenario(), 2, 19);
        assert!(
            net.position_plane().is_coherent(net.positions()),
            "construction must leave the plane coherent"
        );
        // The report-free refresh runs the kernel rebuild: every CSR
        // candidate lane goes through the f32 classifier.
        let mut rwp = RandomWaypoint::new(
            60,
            net.field(),
            5.0,
            15.0,
            0.0,
            RngStream::seed_from_u64(23),
        );
        net.advance_positions_only(&mut rwp, SimDuration::from_secs(2));
        net.refresh();
        let c = net.pipeline_counters();
        assert!(c.kernel_lanes > 0, "kernel rebuild must classify lanes");
        assert!(c.kernel_lanes >= c.kernel_exact);
        assert!(net.position_plane().is_coherent(net.positions()));
        // The scalar reference path reports no kernel work but still
        // re-mirrors the plane.
        net.advance_positions_only(&mut rwp, SimDuration::from_secs(2));
        net.refresh_full();
        let c = net.pipeline_counters();
        assert_eq!((c.kernel_lanes, c.kernel_exact), (0, 0));
        assert!(net.position_plane().is_coherent(net.positions()));
        // A mover patch classifies only the re-queried rows' lanes.
        let p = net.positions()[7];
        net.positions_mut()[7] = Point2::new((p.x + 40.0).min(299.0), p.y);
        net.refresh_movers(&[NodeId::new(7)]);
        let c = net.pipeline_counters();
        assert!(!c.full_fallback);
        assert!(
            c.rows_patched == 1 && c.kernel_lanes > 0,
            "the mover must route its re-query through the kernel: {c:?}"
        );
        assert!(net.position_plane().is_coherent(net.positions()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Zone membership is symmetric after every kind of refresh, at
        /// every radius: `a ∈ zone(b)` iff `b ∈ zone(a)`. Two layers of
        /// `card_core` answer "is X in *their* zone" by stamping *X's*
        /// members (the CSQ refusal set, the DSQ target zone), so a table
        /// left behind by an incremental rebuild would corrupt both.
        #[test]
        fn prop_zone_membership_is_symmetric(
            seed in 0u64..1000,
            radius in 0u16..4,
            steps in 1usize..8,
        ) {
            let n = 48;
            let scenario = Scenario::new(n, 300.0, 300.0, 60.0);
            let mut net = Network::from_scenario(&scenario, radius, seed);
            let mut rng = RngStream::seed_from_u64(seed ^ 0x5a5a);
            for step in 0..steps {
                // Few movers keep the patch path, most of the network
                // trips the churn (`Full`) fallback.
                let share = [0.05, 0.1, 1.0][rng.index(3)];
                let movers: Vec<NodeId> =
                    NodeId::all(n).filter(|_| rng.chance(share)).collect();
                for &m in &movers {
                    let p = net.positions()[m.index()];
                    let (dx, dy) = (rng.range_f64(-45.0, 45.0), rng.range_f64(-45.0, 45.0));
                    net.positions_mut()[m.index()] =
                        net.field().clamp(Point2::new(p.x + dx, p.y + dy));
                }
                let op = rng.index(4);
                match op {
                    0 => net.refresh(),
                    1 => net.refresh_full(),
                    _ => net.refresh_movers(&movers),
                }
                if op == 3 {
                    // Later steps refresh incrementally at a new radius.
                    let r = rng.index(4) as u16;
                    net = Network::from_positions(net.field(), net.positions().to_vec(), 60.0, r);
                }
                for a in NodeId::all(n) {
                    for b in NodeId::all(n) {
                        prop_assert_eq!(
                            net.tables().of(a).contains(b),
                            net.tables().of(b).contains(a),
                            "zone({}) vs zone({}) at step {} (op {}, {} movers, R = {})",
                            a, b, step, op, movers.len(), net.radius()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn is_link_matches_adjacency() {
        let net = Network::from_scenario(&small_scenario(), 2, 13);
        for a in NodeId::all(net.node_count()) {
            for &b in net.adj().neighbors(a) {
                assert!(net.is_link(a, b));
            }
        }
    }
}
