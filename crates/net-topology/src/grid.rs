//! Spatial hash grid for neighbor queries.
//!
//! Rebuilding the unit-disk graph naively is O(N²) distance checks per
//! mobility tick. The grid partitions the field into square cells whose side
//! equals the transmission range; all neighbors of a point then lie in its
//! own cell or the 8 surrounding ones, giving O(N · avg-degree) rebuilds.
//!
//! Like [`crate::graph::Adjacency`], the buckets are stored in CSR form
//! (one flat entry array plus per-cell offsets), but with a little *slack*
//! capacity per cell so occupancy can change without relaying the whole
//! array.
//!
//! ## Mover-only updates
//!
//! The grid tracks every node's *cell residency* (`cell_of_node` +
//! `slot_of_node`). On a mobility tick, [`SpatialGrid::update`] compares
//! each node's new cell against its recorded one and re-buckets **only the
//! movers that crossed a cell boundary** — an O(1) swap-remove from the old
//! cell and an append into the new cell's slack. At the protocol's 100 ms
//! tick and pedestrian speeds, a node crosses a 50 m cell boundary every
//! few hundred ticks, so the per-tick bucketing cost collapses from
//! "rewrite all N entries" to "touch a handful of movers".
//!
//! [`SpatialGrid::update_reported`] goes one step further: when the
//! mobility model reports which nodes actually moved
//! (`MobilityModel::advance_reporting`), even the *detection* scan is
//! skipped — the residency check runs only over the reported movers, so a
//! tick where k nodes move costs O(k) grid work total.
//!
//! Past a churn threshold (> 1/8 of nodes crossing at once), on any cell
//! overflowing its slack, or when the node count changes, `update` falls
//! back to [`SpatialGrid::rebuild`] — a full counting-sort relayout that
//! re-provisions slack — so heavy churn degrades to exactly the old
//! full-rebuild cost rather than to splice churn.
//!
//! ## Range scans
//!
//! Three scans read the buckets, one per job:
//!
//! * [`SpatialGrid::for_each_within`] — the scalar f64 walk of the 3×3
//!   cell ball. It is the oracle: [`crate::graph::Adjacency::build`] is
//!   built on it, and both kernel scans are tested against it.
//! * [`SpatialGrid::for_each_within_kernel`] — the two-phase f32 kernel
//!   over lanes *gathered* per row from the position plane; what the
//!   adjacency patch re-queries a mover's row with.
//! * `kernel_scan_row` over an entry-aligned lane mirror
//!   ([`SpatialGrid::fill_lane_mirror`]) and forward half-balls
//!   ([`SpatialGrid::half_ball_rows`]) — the same two-phase kernel as a
//!   contiguous stream; what the whole-CSR parallel rebuild runs.

use crate::geometry::{Field, Point2};
use crate::node::NodeId;
use crate::plane::{KernelBand, KernelScratch, KernelStats, PositionPlane};

/// Outcome of a [`SpatialGrid::update`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridUpdate {
    /// Only nodes that crossed a cell boundary were re-bucketed.
    Incremental {
        /// Number of nodes moved between cells.
        movers: usize,
    },
    /// A full relayout ran (first build, node-count change, cell overflow,
    /// or churn past the threshold).
    Full,
}

/// Churn fallback: if more than `N / CHURN_DIVISOR` nodes cross a cell
/// boundary in one update, a full relayout is cheaper than mover-by-mover
/// surgery (and re-provisions slack while at it).
const CHURN_DIVISOR: usize = 8;

/// Sentinel filling every slack slot, so range scans can fuse a whole
/// 3-cell row (gaps included) and skip vacancies with one compare.
const VACANT: NodeId = NodeId(u32::MAX);

/// A uniform grid over a [`Field`] with cell side ≥ the query radius.
#[derive(Clone)]
pub struct SpatialGrid {
    cell_side: f64,
    /// `1 / cell_side`, so bucketing multiplies instead of divides.
    inv_side: f64,
    cols: usize,
    rows: usize,
    /// Cell `c`'s capacity spans `entries[starts[c] .. starts[c + 1]]`; only
    /// the first `lens[c]` slots are live (the rest is slack).
    starts: Vec<u32>,
    /// Live occupant count per cell.
    lens: Vec<u32>,
    /// Node ids, bucketed by cell (unordered within a cell).
    entries: Vec<NodeId>,
    /// Cell residency per node (the mover-detection state).
    cell_of_node: Vec<u32>,
    /// Position of each node inside `entries` (O(1) removal).
    slot_of_node: Vec<u32>,
    /// Scratch: per-cell write cursor for the full relayout pass.
    cursor: Vec<u32>,
    /// Scratch: `(node, new_cell)` movers of the current update.
    movers: Vec<(u32, u32)>,
    /// Rotating start index for [`SpatialGrid::audit_residency`], so
    /// repeated sampled audits sweep the whole population.
    audit_cursor: u32,
}

impl SpatialGrid {
    /// Build a grid for `field` sized for range queries of radius `range`.
    ///
    /// # Panics
    /// Panics unless `range` is positive and finite.
    pub fn new(field: Field, range: f64) -> Self {
        assert!(range > 0.0 && range.is_finite(), "invalid range {range}");
        let cols = (field.width() / range).ceil().max(1.0) as usize;
        let rows = (field.height() / range).ceil().max(1.0) as usize;
        SpatialGrid {
            cell_side: range,
            inv_side: 1.0 / range,
            cols,
            rows,
            starts: vec![0; cols * rows + 1],
            lens: vec![0; cols * rows],
            entries: Vec::new(),
            cell_of_node: Vec::new(),
            slot_of_node: Vec::new(),
            cursor: Vec::new(),
            movers: Vec::new(),
            audit_cursor: 0,
        }
    }

    /// Number of grid cells.
    pub fn cell_count(&self) -> usize {
        self.starts.len() - 1
    }

    #[inline]
    fn cell_of(&self, p: Point2) -> (usize, usize) {
        let cx = ((p.x * self.inv_side) as usize).min(self.cols - 1);
        let cy = ((p.y * self.inv_side) as usize).min(self.rows - 1);
        (cx, cy)
    }

    #[inline]
    fn cell_index(&self, p: Point2) -> u32 {
        let (cx, cy) = self.cell_of(p);
        (cy * self.cols + cx) as u32
    }

    /// Slack slots provisioned for a cell of `len` occupants during a full
    /// relayout, absorbing arrivals until the next relayout. Kept tight:
    /// every slack slot is scanned (as a sentinel) by range queries, which
    /// dominate the adjacency rebuild — overflowing into an occasional
    /// O(N) relayout is cheaper than padding every scan.
    #[inline]
    fn slack(len: u32) -> u32 {
        1 + len / 8
    }

    /// Full relayout: clear and re-bucket every node position (counting
    /// sort into the CSR buffers with per-cell slack; no allocation once
    /// the buffers have grown). Positions outside the field are clamped
    /// into the boundary cells.
    pub fn rebuild(&mut self, positions: &[Point2]) {
        let cells = self.cell_count();
        // Pass 1: record each node's cell and count occupants per cell.
        self.lens.fill(0);
        self.cell_of_node.clear();
        for &p in positions {
            let cell = self.cell_index(p);
            self.cell_of_node.push(cell);
            self.lens[cell as usize] += 1;
        }
        // Capacity boundaries with slack, via prefix sum.
        let mut acc = 0u32;
        for c in 0..cells {
            self.starts[c] = acc;
            acc += self.lens[c] + Self::slack(self.lens[c]);
        }
        self.starts[cells] = acc;
        // Pass 2: place nodes, advancing a per-cell write cursor. Every
        // slack slot is stamped `VACANT` so row scans can run fused.
        self.entries.clear();
        self.entries.resize(acc as usize, VACANT);
        self.slot_of_node.resize(positions.len(), 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..cells]);
        for (i, &cell) in self.cell_of_node.iter().enumerate() {
            let slot = &mut self.cursor[cell as usize];
            self.entries[*slot as usize] = NodeId::from(i);
            self.slot_of_node[i] = *slot;
            *slot += 1;
        }
    }

    /// Bring the grid up to date with `positions`, re-bucketing only the
    /// nodes that crossed a cell boundary since the last
    /// `rebuild`/`update`. Falls back to a full relayout when the node
    /// count changed, churn exceeds the threshold, or a cell's slack
    /// overflows. Either way the resulting buckets are equivalent to a
    /// fresh [`SpatialGrid::rebuild`] (cell contents are unordered sets).
    ///
    /// This variant *scans all N residencies* to find the boundary
    /// crossers. When the caller already knows which nodes moved (a
    /// mobility model reporting its movers), prefer
    /// [`SpatialGrid::update_reported`], which skips the scan entirely.
    pub fn update(&mut self, positions: &[Point2]) -> GridUpdate {
        let n = positions.len();
        if self.cell_of_node.len() != n {
            self.rebuild(positions);
            return GridUpdate::Full;
        }
        // Detect boundary crossers (cheap: two divisions per node).
        let mut movers = std::mem::take(&mut self.movers);
        movers.clear();
        for (i, &p) in positions.iter().enumerate() {
            let new_cell = self.cell_index(p);
            if new_cell != self.cell_of_node[i] {
                movers.push((i as u32, new_cell));
            }
        }
        self.apply_movers(positions, movers)
    }

    /// Like [`SpatialGrid::update`], but the caller supplies the set of
    /// nodes whose positions may have changed (`reported`), so boundary
    /// crossing is checked only for those — O(movers), not O(N).
    ///
    /// # Contract
    /// `reported` must contain **every** node whose position changed since
    /// the grid last matched `positions` (a superset is fine — extra ids
    /// just cost one residency check each). Mobility models produce exact
    /// reports via `MobilityModel::advance_reporting`. An under-report
    /// leaves stale buckets; debug builds catch that with an O(N) sweep.
    pub fn update_reported(&mut self, positions: &[Point2], reported: &[NodeId]) -> GridUpdate {
        let n = positions.len();
        if self.cell_of_node.len() != n {
            self.rebuild(positions);
            return GridUpdate::Full;
        }
        let mut movers = std::mem::take(&mut self.movers);
        movers.clear();
        for &id in reported {
            let i = id.index();
            let new_cell = self.cell_index(positions[i]);
            if new_cell != self.cell_of_node[i] {
                movers.push((i as u32, new_cell));
            }
        }
        let out = self.apply_movers(positions, movers);
        #[cfg(debug_assertions)]
        for (i, &p) in positions.iter().enumerate() {
            debug_assert_eq!(
                self.cell_of_node[i],
                self.cell_index(p),
                "node {i} moved cells but was not in the reported mover set"
            );
        }
        out
    }

    /// Shared tail of `update`/`update_reported`: re-bucket the detected
    /// boundary crossers, falling back to a full relayout on churn or
    /// slack overflow. Takes ownership of the scratch mover list and
    /// stores it back for reuse.
    fn apply_movers(&mut self, positions: &[Point2], movers: Vec<(u32, u32)>) -> GridUpdate {
        let n = positions.len();
        if movers.len() > n / CHURN_DIVISOR {
            self.movers = movers;
            self.rebuild(positions);
            return GridUpdate::Full;
        }
        for k in 0..movers.len() {
            let (node, new_cell) = movers[k];
            let (node_u, old_cell, new_c) =
                (node as usize, self.cell_of_node[node as usize], new_cell);
            if self.lens[new_c as usize]
                >= self.starts[new_c as usize + 1] - self.starts[new_c as usize]
            {
                // Destination cell out of slack: full relayout re-provisions.
                self.movers = movers;
                self.rebuild(positions);
                return GridUpdate::Full;
            }
            // Swap-remove from the old cell (re-stamping the vacated slot)…
            let slot = self.slot_of_node[node_u];
            let last = self.starts[old_cell as usize] + self.lens[old_cell as usize] - 1;
            let displaced = self.entries[last as usize];
            self.entries[slot as usize] = displaced;
            self.slot_of_node[displaced.index()] = slot;
            self.entries[last as usize] = VACANT;
            self.lens[old_cell as usize] -= 1;
            // …and append into the new cell's slack.
            let dst = self.starts[new_c as usize] + self.lens[new_c as usize];
            self.entries[dst as usize] = NodeId::from(node_u);
            self.slot_of_node[node_u] = dst;
            self.cell_of_node[node_u] = new_c;
            self.lens[new_c as usize] += 1;
        }
        let count = movers.len();
        self.movers = movers;
        GridUpdate::Incremental { movers: count }
    }

    /// Sampled residency audit — the release-build counterpart of the
    /// debug-only O(N) sweep in [`SpatialGrid::update_reported`].
    ///
    /// Checks up to `samples` nodes (a rotating window starting where the
    /// previous audit stopped, so repeated calls sweep the whole
    /// population) against the contract that every node is bucketed in the
    /// cell its current position maps to. Returns the number of violations
    /// found; any non-zero count means a mobility model under-reported its
    /// movers and the grid is serving stale buckets. With `samples = N`
    /// this is exactly the debug sweep, as a count instead of an assert.
    pub fn audit_residency(&mut self, positions: &[Point2], samples: usize) -> usize {
        let n = self.cell_of_node.len().min(positions.len());
        debug_assert_eq!(
            self.cell_of_node.len(),
            positions.len(),
            "auditing against a position slice the grid does not track"
        );
        if n == 0 || samples == 0 {
            return 0;
        }
        let mut violations = 0;
        let mut i = self.audit_cursor as usize % n;
        for _ in 0..samples.min(n) {
            if self.cell_of_node[i] != self.cell_index(positions[i]) {
                violations += 1;
            }
            i += 1;
            if i == n {
                i = 0;
            }
        }
        self.audit_cursor = i as u32;
        violations
    }

    /// Targeted form of [`SpatialGrid::audit_residency`]: check exactly
    /// `nodes` against the residency contract instead of a rotating
    /// sample. Fault events (crash, rejoin) leave a node's position —
    /// and therefore its bucket — untouched, so the event sites are
    /// audited directly. Out-of-range ids are ignored; the sampling
    /// cursor does not advance.
    pub fn audit_nodes(&self, positions: &[Point2], nodes: &[NodeId]) -> usize {
        let n = self.cell_of_node.len().min(positions.len());
        let mut violations = 0;
        for &node in nodes {
            let i = node.index();
            if i < n && self.cell_of_node[i] != self.cell_index(positions[i]) {
                violations += 1;
            }
        }
        violations
    }

    /// Number of nodes the grid currently tracks residency for (the length
    /// of the position slice it was last rebuilt/updated with).
    #[inline]
    pub fn tracked_nodes(&self) -> usize {
        self.cell_of_node.len()
    }

    /// The cell `node` is currently bucketed in (its recorded residency as
    /// of the last `rebuild`/`update`).
    ///
    /// # Panics
    /// Panics if `node` is outside the tracked range.
    #[inline]
    pub fn node_cell(&self, node: NodeId) -> u32 {
        self.cell_of_node[node.index()]
    }

    /// The cell index position `p` buckets into (out-of-field positions
    /// clamp to the boundary cells, mirroring `rebuild`).
    #[inline]
    pub fn cell_at(&self, p: Point2) -> u32 {
        self.cell_index(p)
    }

    /// Conservative guarantee radius of the 3×3 cell ball around `p`'s
    /// cell: every node whose *bucketed position* lies within this
    /// distance of `p` is visited by
    /// [`SpatialGrid::for_each_in_cell_ball`]`(cell_at(p))`. The ball
    /// extends one full cell side beyond `p`'s cell, so the guarantee is
    /// the cell side plus `p`'s distance to its cell's nearest edge — and
    /// can drop below the cell side (even negative) for positions clamped
    /// into boundary cells from outside the field, where no guarantee
    /// holds. Callers gate range-annulus shortcuts on this value.
    #[inline]
    pub fn ball_coverage(&self, p: Point2) -> f64 {
        let (cx, cy) = self.cell_of(p);
        let fx = p.x - cx as f64 * self.cell_side;
        let fy = p.y - cy as f64 * self.cell_side;
        let margin = fx.min(self.cell_side - fx).min(fy).min(self.cell_side - fy);
        self.cell_side + margin
    }

    /// Visit every live occupant of the 3×3 cell ball centered on `cell` —
    /// the cells a range-≤`cell_side` query launched from anywhere inside
    /// `cell` can reach. No distance filtering: this is the *candidate*
    /// superset the CSR adjacency patcher uses to find nodes whose link
    /// set a mover may have touched.
    pub fn for_each_in_cell_ball(&self, cell: u32, mut visit: impl FnMut(NodeId)) {
        let cx = cell as usize % self.cols;
        let cy = cell as usize / self.cols;
        let x0 = cx.saturating_sub(1);
        let y0 = cy.saturating_sub(1);
        let x1 = (cx + 1).min(self.cols - 1);
        let y1 = (cy + 1).min(self.rows - 1);
        for gy in y0..=y1 {
            // Same fused-row trick as `for_each_within`: slack gaps hold
            // `VACANT` sentinels, so three cells scan as one slice.
            let lo = self.starts[gy * self.cols + x0] as usize;
            let hi = self.starts[gy * self.cols + x1 + 1] as usize;
            for &id in &self.entries[lo..hi] {
                if id != VACANT {
                    visit(id);
                }
            }
        }
    }

    /// Visit every node within `radius` of `center` (excluding `exclude`,
    /// typically the querying node itself). `radius` must not exceed the
    /// cell side the grid was built with.
    #[inline]
    pub fn for_each_within(
        &self,
        positions: &[Point2],
        center: Point2,
        radius: f64,
        exclude: Option<NodeId>,
        mut visit: impl FnMut(NodeId),
    ) {
        debug_assert!(
            radius <= self.cell_side + 1e-9,
            "query radius {radius} exceeds grid cell side {}",
            self.cell_side
        );
        let r_sq = radius * radius;
        let (cx, cy) = self.cell_of(center);
        let x0 = cx.saturating_sub(1);
        let y0 = cy.saturating_sub(1);
        let x1 = (cx + 1).min(self.cols - 1);
        let y1 = (cy + 1).min(self.rows - 1);
        for gy in y0..=y1 {
            // Cells x0..=x1 of this row are contiguous in the CSR buffers;
            // slack gaps between them hold `VACANT` sentinels, so the three
            // cells still scan as one fused slice.
            let lo = self.starts[gy * self.cols + x0] as usize;
            let hi = self.starts[gy * self.cols + x1 + 1] as usize;
            for &id in &self.entries[lo..hi] {
                if id == VACANT || Some(id) == exclude {
                    continue;
                }
                if positions[id.index()].dist_sq(center) <= r_sq {
                    visit(id);
                }
            }
        }
    }

    /// The cell side the grid was built with (the maximum query radius).
    #[inline]
    pub fn cell_side(&self) -> f64 {
        self.cell_side
    }

    /// The raw CSR entry array (kernel and bench plumbing): live node ids
    /// bucketed by cell, with every slack slot holding the vacant
    /// sentinel. Index it through [`SpatialGrid::ball_rows`].
    #[inline]
    pub fn entries_raw(&self) -> &[NodeId] {
        &self.entries
    }

    /// The fused entry-row spans of the 3×3 cell ball around `center`: up
    /// to three `(lo, hi)` ranges into [`SpatialGrid::entries_raw`], one
    /// per grid row, each covering three adjacent cells *including the
    /// interior slack gaps* (the gaps hold vacant sentinels, so a scan
    /// can stream the whole span). The trailing cell's slack is trimmed
    /// off the end — at typical occupancies that's a measurable fraction
    /// of the lanes a kernel would otherwise classify just to reject.
    /// Returns the spans and how many are valid.
    #[inline]
    pub fn ball_rows(&self, center: Point2) -> ([(u32, u32); 3], usize) {
        let (cx, cy) = self.cell_of(center);
        let x0 = cx.saturating_sub(1);
        let y0 = cy.saturating_sub(1);
        let x1 = (cx + 1).min(self.cols - 1);
        let y1 = (cy + 1).min(self.rows - 1);
        let mut spans = [(0u32, 0u32); 3];
        let mut count = 0;
        for gy in y0..=y1 {
            let last = gy * self.cols + x1;
            spans[count] = (
                self.starts[gy * self.cols + x0],
                self.starts[last] + self.lens[last],
            );
            count += 1;
        }
        (spans, count)
    }

    /// The *forward half* of the cell ball around `center`, for kernels
    /// that visit every unordered pair exactly once (the whole-CSR
    /// rebuild): the center's own cell, its east neighbor, and the fused
    /// south row (SW, S, SE). For nodes i ≠ j in range, exactly one of
    /// the two scans (from i or from j) covers the pair — east/south
    /// asymmetry resolves cross-cell pairs, and same-cell pairs are
    /// deduplicated by an `id > i` filter the caller applies to the own-
    /// cell span only. Own and east spans cover *live* entries exactly
    /// (no slack lanes); the south span is a fused row with interior
    /// slack and its tail trimmed. Absent neighbors (field edge) come
    /// back as empty spans.
    #[inline]
    pub fn half_ball_rows(&self, center: Point2) -> [(u32, u32); 3] {
        let (cx, cy) = self.cell_of(center);
        let own = cy * self.cols + cx;
        let own_span = (self.starts[own], self.starts[own] + self.lens[own]);
        let east_span = if cx + 1 < self.cols {
            let e = own + 1;
            (self.starts[e], self.starts[e] + self.lens[e])
        } else {
            (0, 0)
        };
        let south_span = if cy + 1 < self.rows {
            let x0 = cx.saturating_sub(1);
            let x1 = (cx + 1).min(self.cols - 1);
            let last = (cy + 1) * self.cols + x1;
            (
                self.starts[(cy + 1) * self.cols + x0],
                self.starts[last] + self.lens[last],
            )
        } else {
            (0, 0)
        };
        [own_span, east_span, south_span]
    }

    /// Fill `scratch`'s entry-aligned lane mirror from `plane`: one
    /// `(x, y)` f32 lane per CSR entry slot, with vacant slots mapped onto
    /// the plane's infinite sentinel lane (branch-free, and infinity
    /// classifies as "out of range" in every kernel pass for free). The
    /// mirror is valid until the grid or the plane next changes; the
    /// whole-CSR rebuild fills it once and then streams contiguous slices
    /// of it through `kernel_scan_row` instead of gathering per row.
    pub fn fill_lane_mirror(&self, plane: &PositionPlane, scratch: &mut KernelScratch) {
        let (xs, ys) = plane.lanes();
        let n = plane.len();
        scratch.mirror_x.clear();
        scratch.mirror_y.clear();
        scratch
            .mirror_x
            .extend(self.entries.iter().map(|&id| xs[id.index().min(n)]));
        scratch
            .mirror_y
            .extend(self.entries.iter().map(|&id| ys[id.index().min(n)]));
    }

    /// The two-phase f32 kernel form of [`SpatialGrid::for_each_within`]:
    /// candidate lanes are gathered per row straight from the plane (the
    /// patch re-queries a handful of rows, where filling a whole-CSR
    /// mirror would cost O(N)), classified through the plane's band —
    /// fast accept, fast reject, exact f64 resolution for borderline
    /// lanes. Visits exactly the nodes the scalar scan visits, in the same
    /// order.
    #[allow(clippy::too_many_arguments)]
    pub fn for_each_within_kernel(
        &self,
        plane: &PositionPlane,
        positions: &[Point2],
        center: Point2,
        radius: f64,
        exclude: Option<NodeId>,
        scratch: &mut KernelScratch,
        mut visit: impl FnMut(NodeId),
    ) {
        debug_assert!(
            radius <= self.cell_side + 1e-9,
            "query radius {radius} exceeds grid cell side {}",
            self.cell_side
        );
        let band = plane.band(radius, self.cell_side);
        let (spans, count) = self.ball_rows(center);
        let (xs, ys) = plane.lanes();
        let sentinel = plane.len();
        let (cx, cy) = (center.x as f32, center.y as f32);
        let KernelScratch { cand, stats, .. } = scratch;
        for &(lo, hi) in &spans[..count] {
            let (lo, hi) = (lo as usize, hi as usize);
            let row = &self.entries[lo..hi];
            // Fused gather + branch-free compaction (see
            // `kernel_scan_row`): lanes pulled straight from the plane by
            // id, vacant ids hit the infinite sentinel lane and compact
            // themselves away.
            let n = row.len();
            stats.lanes += n as u64;
            if cand.len() < n {
                cand.resize(n, (0.0, NodeId::from(0usize)));
            }
            let buf = &mut cand[..n];
            let mut m = 0usize;
            for &id in row {
                let lane = id.index().min(sentinel);
                let dx = xs[lane] - cx;
                let dy = ys[lane] - cy;
                let d2 = dx * dx + dy * dy;
                // `m` advances at most once per lane, so it stays in bounds.
                buf[m] = (d2, id);
                m += (d2 <= band.hi) as usize;
            }
            for &(d2, id) in &buf[..m] {
                if Some(id) == exclude {
                    continue;
                }
                if d2 > band.lo {
                    stats.exact_checks += 1;
                    if positions[id.index()].dist_sq(center) > band.r_sq {
                        continue;
                    }
                }
                visit(id);
            }
        }
    }

    /// Collect every node within `radius` of `center` into a vector.
    pub fn within(
        &self,
        positions: &[Point2],
        center: Point2,
        radius: f64,
        exclude: Option<NodeId>,
    ) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.for_each_within(positions, center, radius, exclude, |id| out.push(id));
        out
    }
}

/// Fused distance-and-compact pass of the two-phase kernel over one
/// fused entry row. Pass 1 streams every lane branch-free: compute the
/// squared f32 distance from the mirrored lane coordinates, uncondition-
/// ally store `(d2, id)` into the candidate buffer, and advance the
/// write cursor only when `d2 <= band.hi` (most lanes reject, and a
/// conditional *increment* never mispredicts the way a conditional
/// *branch* over a ~20% accept rate does; a chunked mask variant was
/// measured slower at the ~12-lane rows the grid actually produces).
/// Vacant entries carry infinite lanes and compact themselves away for
/// free. Pass 2 resolves the handful of survivors in lane order
/// (matching the scalar visit order): skip ids below `min_id` (the
/// half-ball rebuild's same-cell deduplication — pass 0 to keep every
/// id), fast-accept at `<= lo`, exact f64 `dist_sq` for borderline lanes.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn kernel_scan_row(
    entries: &[NodeId],
    xs: &[f32],
    ys: &[f32],
    band: KernelBand,
    positions: &[Point2],
    center: Point2,
    min_id: u32,
    cand: &mut Vec<(f32, NodeId)>,
    stats: &mut KernelStats,
    visit: &mut impl FnMut(NodeId),
) {
    let n = entries.len();
    // Equal-length reslice up front so the per-lane indexing below is
    // provably in bounds (one check here instead of three per lane).
    let (xs, ys) = (&xs[..n], &ys[..n]);
    stats.lanes += n as u64;
    let (cx, cy) = (center.x as f32, center.y as f32);
    if cand.len() < n {
        cand.resize(n, (0.0, NodeId::from(0usize)));
    }
    let buf = &mut cand[..n];
    let mut m = 0usize;
    for k in 0..n {
        let dx = xs[k] - cx;
        let dy = ys[k] - cy;
        let d2 = dx * dx + dy * dy;
        // `m <= k` always, so this store stays in bounds.
        buf[m] = (d2, entries[k]);
        m += (d2 <= band.hi) as usize;
    }
    for &(d2, id) in &buf[..m] {
        if (id.index() as u32) < min_id {
            continue;
        }
        if d2 > band.lo {
            stats.exact_checks += 1;
            if positions[id.index()].dist_sq(center) > band.r_sq {
                continue;
            }
        }
        visit(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn brute_force(
        positions: &[Point2],
        center: Point2,
        radius: f64,
        exclude: Option<NodeId>,
    ) -> Vec<NodeId> {
        let r_sq = radius * radius;
        positions
            .iter()
            .enumerate()
            .filter(|(i, p)| Some(NodeId::from(*i)) != exclude && p.dist_sq(center) <= r_sq)
            .map(|(i, _)| NodeId::from(i))
            .collect()
    }

    /// Every node's bucket matches its position, residency bookkeeping is
    /// self-consistent, and each node appears exactly once.
    fn assert_grid_invariants(grid: &SpatialGrid, positions: &[Point2]) {
        assert_eq!(grid.cell_of_node.len(), positions.len());
        assert_eq!(grid.slot_of_node.len(), positions.len());
        let mut seen = vec![false; positions.len()];
        for c in 0..grid.cell_count() {
            let lo = grid.starts[c] as usize;
            let hi = lo + grid.lens[c] as usize;
            assert!(
                hi <= grid.starts[c + 1] as usize,
                "cell {c} overflows capacity"
            );
            for (slot, &id) in grid.entries[lo..hi].iter().enumerate() {
                assert_ne!(id, super::VACANT, "live slot holds the sentinel");
                assert!(!seen[id.index()], "{id} bucketed twice");
                seen[id.index()] = true;
                assert_eq!(grid.cell_of_node[id.index()] as usize, c);
                assert_eq!(grid.slot_of_node[id.index()] as usize, lo + slot);
                assert_eq!(grid.cell_index(positions[id.index()]) as usize, c);
            }
            for &id in &grid.entries[hi..grid.starts[c + 1] as usize] {
                assert_eq!(id, super::VACANT, "slack slot holds a live id");
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "some node is missing from the grid"
        );
    }

    #[test]
    fn finds_neighbors_across_cells() {
        let field = Field::square(100.0);
        let mut grid = SpatialGrid::new(field, 10.0);
        let positions = vec![
            Point2::new(9.0, 9.0),   // cell (0,0)
            Point2::new(11.0, 11.0), // cell (1,1) — within 10m of node 0
            Point2::new(50.0, 50.0), // far away
        ];
        grid.rebuild(&positions);
        let mut found = grid.within(&positions, positions[0], 10.0, Some(NodeId(0)));
        found.sort();
        assert_eq!(found, vec![NodeId(1)]);
        assert_grid_invariants(&grid, &positions);
    }

    #[test]
    fn boundary_positions_are_bucketed() {
        let field = Field::square(100.0);
        let mut grid = SpatialGrid::new(field, 25.0);
        let positions = vec![Point2::new(100.0, 100.0), Point2::new(99.0, 99.0)];
        grid.rebuild(&positions);
        let found = grid.within(&positions, positions[0], 25.0, Some(NodeId(0)));
        assert_eq!(found, vec![NodeId(1)]);
    }

    #[test]
    fn exclude_self() {
        let field = Field::square(10.0);
        let mut grid = SpatialGrid::new(field, 5.0);
        let positions = vec![Point2::new(5.0, 5.0)];
        grid.rebuild(&positions);
        assert!(grid
            .within(&positions, positions[0], 5.0, Some(NodeId(0)))
            .is_empty());
        assert_eq!(
            grid.within(&positions, positions[0], 5.0, None),
            vec![NodeId(0)]
        );
    }

    #[test]
    fn cell_count_matches_dimensions() {
        let grid = SpatialGrid::new(Field::new(100.0, 50.0), 10.0);
        assert_eq!(grid.cell_count(), 10 * 5);
        // range larger than the field ⇒ a single cell
        let grid = SpatialGrid::new(Field::new(100.0, 50.0), 1000.0);
        assert_eq!(grid.cell_count(), 1);
    }

    #[test]
    fn empty_positions() {
        let field = Field::square(100.0);
        let mut grid = SpatialGrid::new(field, 10.0);
        grid.rebuild(&[]);
        assert!(grid
            .within(&[], Point2::new(5.0, 5.0), 10.0, None)
            .is_empty());
    }

    #[test]
    fn first_update_is_full_then_movers_only() {
        let field = Field::square(100.0);
        let mut grid = SpatialGrid::new(field, 10.0);
        let mut positions: Vec<Point2> = (0..40)
            .map(|i| Point2::new((i % 10) as f64 * 10.0 + 5.0, (i / 10) as f64 * 10.0 + 5.0))
            .collect();
        assert_eq!(grid.update(&positions), GridUpdate::Full);
        assert_grid_invariants(&grid, &positions);
        // no movement → zero movers
        assert_eq!(
            grid.update(&positions),
            GridUpdate::Incremental { movers: 0 }
        );
        // one node crosses a boundary, one jiggles within its cell
        positions[3] = Point2::new(positions[3].x + 10.0, positions[3].y);
        positions[7] = Point2::new(positions[7].x + 1.0, positions[7].y);
        assert_eq!(
            grid.update(&positions),
            GridUpdate::Incremental { movers: 1 }
        );
        assert_grid_invariants(&grid, &positions);
    }

    #[test]
    fn node_count_change_forces_full_relayout() {
        let field = Field::square(100.0);
        let mut grid = SpatialGrid::new(field, 10.0);
        let positions = vec![Point2::new(5.0, 5.0), Point2::new(55.0, 55.0)];
        grid.update(&positions);
        let more = vec![
            Point2::new(5.0, 5.0),
            Point2::new(55.0, 55.0),
            Point2::new(95.0, 95.0),
        ];
        assert_eq!(grid.update(&more), GridUpdate::Full);
        assert_grid_invariants(&grid, &more);
    }

    #[test]
    fn heavy_churn_falls_back_to_full_relayout() {
        let field = Field::square(100.0);
        let mut grid = SpatialGrid::new(field, 10.0);
        let positions: Vec<Point2> = (0..32).map(|i| Point2::new(5.0, i as f64 * 3.0)).collect();
        grid.update(&positions);
        // everyone crosses a cell boundary at once
        let moved: Vec<Point2> = positions
            .iter()
            .map(|p| Point2::new(p.x + 50.0, p.y))
            .collect();
        assert_eq!(grid.update(&moved), GridUpdate::Full);
        assert_grid_invariants(&grid, &moved);
    }

    #[test]
    fn slack_overflow_falls_back_to_full_relayout() {
        // 33 nodes spread over many cells, then 3 (≤ N/8 churn) pile into
        // one previously-single-occupant cell whose slack (2 + 1/4 = 2)
        // cannot hold them all.
        let field = Field::square(200.0);
        let mut grid = SpatialGrid::new(field, 10.0);
        let mut positions: Vec<Point2> = (0..33)
            .map(|i| Point2::new((i % 19) as f64 * 10.0 + 5.0, (i / 19) as f64 * 10.0 + 5.0))
            .collect();
        grid.update(&positions);
        for p in positions.iter_mut().take(3) {
            *p = Point2::new(195.0, 195.0);
        }
        let out = grid.update(&positions);
        assert_eq!(out, GridUpdate::Full, "overflow must re-provision slack");
        assert_grid_invariants(&grid, &positions);
        // and the result still answers queries correctly
        let mut got = grid.within(&positions, Point2::new(195.0, 195.0), 5.0, None);
        got.sort();
        assert_eq!(got, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn reported_update_rebuckets_only_reported_movers() {
        let field = Field::square(100.0);
        let mut grid = SpatialGrid::new(field, 10.0);
        let mut positions: Vec<Point2> = (0..40)
            .map(|i| Point2::new((i % 10) as f64 * 10.0 + 5.0, (i / 10) as f64 * 10.0 + 5.0))
            .collect();
        assert_eq!(grid.update_reported(&positions, &[]), GridUpdate::Full);
        // one node crosses a boundary, one jiggles within its cell; the
        // report names both, only the crosser is re-bucketed
        positions[3] = Point2::new(positions[3].x + 10.0, positions[3].y);
        positions[7] = Point2::new(positions[7].x + 1.0, positions[7].y);
        assert_eq!(
            grid.update_reported(&positions, &[NodeId(3), NodeId(7)]),
            GridUpdate::Incremental { movers: 1 }
        );
        assert_grid_invariants(&grid, &positions);
        // an empty report with no movement is a no-op
        assert_eq!(
            grid.update_reported(&positions, &[]),
            GridUpdate::Incremental { movers: 0 }
        );
    }

    #[test]
    fn ball_coverage_bounds_the_cell_ball_guarantee() {
        let field = Field::square(200.0);
        let mut grid = SpatialGrid::new(field, 25.0);
        let positions: Vec<Point2> = (0..60)
            .map(|i| Point2::new((i as f64 * 53.0) % 200.0, (i as f64 * 29.0) % 200.0))
            .collect();
        grid.rebuild(&positions);
        // In-field positions are guaranteed at least one cell side, at
        // most one and a half.
        for &p in &positions {
            let cov = grid.ball_coverage(p);
            assert!((25.0..=37.5 + 1e-9).contains(&cov), "coverage {cov}");
            // The guarantee itself: everything within `cov` of `p` shows
            // up in the ball.
            let mut ball = Vec::new();
            grid.for_each_in_cell_ball(grid.cell_at(p), |id| ball.push(id));
            for (i, &q) in positions.iter().enumerate() {
                if q.dist(p) <= cov {
                    assert!(
                        ball.contains(&NodeId::from(i)),
                        "node {i} within coverage of {p:?} missing from ball"
                    );
                }
            }
        }
        // Clamped positions forfeit the guarantee instead of lying.
        assert!(grid.ball_coverage(Point2::new(260.0, 100.0)) < 0.0);
    }

    #[test]
    fn cell_ball_covers_range_neighbors() {
        // Every node within `range` of a point must appear in the 3×3 cell
        // ball around that point's cell (the candidate superset contract).
        let field = Field::square(200.0);
        let mut grid = SpatialGrid::new(field, 25.0);
        let positions: Vec<Point2> = (0..50)
            .map(|i| Point2::new((i as f64 * 37.0) % 200.0, (i as f64 * 61.0) % 200.0))
            .collect();
        grid.rebuild(&positions);
        for (i, &p) in positions.iter().enumerate() {
            let mut ball = Vec::new();
            grid.for_each_in_cell_ball(grid.cell_at(p), |id| ball.push(id));
            assert_eq!(grid.node_cell(NodeId::from(i)), grid.cell_at(p));
            for id in grid.within(&positions, p, 25.0, None) {
                assert!(
                    ball.contains(&id),
                    "{id} within range of node {i} but missing from its cell ball"
                );
            }
        }
        assert_eq!(grid.tracked_nodes(), positions.len());
    }

    proptest! {
        /// The grid returns exactly the brute-force neighbor set, for any
        /// point cloud and any query point.
        #[test]
        fn prop_grid_equals_brute_force(
            pts in proptest::collection::vec((0.0..710.0f64, 0.0..710.0f64), 0..120),
            q in (0.0..710.0f64, 0.0..710.0f64),
            radius in 1.0..50.0f64,
        ) {
            let field = Field::square(710.0);
            let positions: Vec<Point2> = pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let mut grid = SpatialGrid::new(field, 50.0);
            grid.rebuild(&positions);
            let center = Point2::new(q.0, q.1);
            let mut got = grid.within(&positions, center, radius, None);
            got.sort();
            let mut expect = brute_force(&positions, center, radius, None);
            expect.sort();
            prop_assert_eq!(got, expect);
        }

        /// Mover-only updates answer queries identically to a fresh full
        /// rebuild, across arbitrary per-step displacement magnitudes
        /// (small jiggles stay incremental, big jumps trip the churn or
        /// slack fallbacks — both must stay exact).
        #[test]
        fn prop_update_equals_fresh_rebuild(
            pts in proptest::collection::vec((0.0..400.0f64, 0.0..400.0f64), 1..80),
            steps in proptest::collection::vec(
                proptest::collection::vec((-60.0..60.0f64, -60.0..60.0f64), 1..80), 1..5),
            q in (0.0..400.0f64, 0.0..400.0f64),
            radius in 1.0..40.0f64,
        ) {
            let field = Field::square(400.0);
            let mut positions: Vec<Point2> =
                pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let mut inc = SpatialGrid::new(field, 40.0);
            inc.update(&positions);
            for step in &steps {
                for (p, &(dx, dy)) in positions.iter_mut().zip(step.iter().cycle()) {
                    p.x = (p.x + dx).clamp(0.0, 400.0);
                    p.y = (p.y + dy).clamp(0.0, 400.0);
                }
                inc.update(&positions);
                let mut fresh = SpatialGrid::new(field, 40.0);
                fresh.rebuild(&positions);
                let center = Point2::new(q.0, q.1);
                let mut got = inc.within(&positions, center, radius, None);
                got.sort();
                let mut expect = fresh.within(&positions, center, radius, None);
                expect.sort();
                prop_assert_eq!(got, expect);
                assert_grid_invariants(&inc, &positions);
            }
        }

        /// `update_reported` with an exact mover report is equivalent to a
        /// fresh full rebuild, across displacement magnitudes that exercise
        /// the incremental path and the churn/overflow fallbacks alike.
        #[test]
        fn prop_reported_update_equals_fresh_rebuild(
            pts in proptest::collection::vec((0.0..400.0f64, 0.0..400.0f64), 1..80),
            steps in proptest::collection::vec(
                proptest::collection::vec((-60.0..60.0f64, -60.0..60.0f64), 1..80), 1..5),
            q in (0.0..400.0f64, 0.0..400.0f64),
            radius in 1.0..40.0f64,
        ) {
            let field = Field::square(400.0);
            let mut positions: Vec<Point2> =
                pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let mut inc = SpatialGrid::new(field, 40.0);
            inc.update_reported(&positions, &[]);
            for step in &steps {
                let mut movers = Vec::new();
                for (i, (p, &(dx, dy))) in
                    positions.iter_mut().zip(step.iter().cycle()).enumerate()
                {
                    let before = *p;
                    p.x = (p.x + dx).clamp(0.0, 400.0);
                    p.y = (p.y + dy).clamp(0.0, 400.0);
                    if *p != before {
                        movers.push(NodeId::from(i));
                    }
                }
                inc.update_reported(&positions, &movers);
                let mut fresh = SpatialGrid::new(field, 40.0);
                fresh.rebuild(&positions);
                let center = Point2::new(q.0, q.1);
                let mut got = inc.within(&positions, center, radius, None);
                got.sort();
                let mut expect = fresh.within(&positions, center, radius, None);
                expect.sort();
                prop_assert_eq!(got, expect);
                assert_grid_invariants(&inc, &positions);
            }
        }

        /// The two-phase f32 gather kernel visits exactly the nodes the
        /// scalar f64 scan visits, in the same order, for arbitrary point
        /// clouds, query centers and radii.
        #[test]
        fn prop_kernel_scans_equal_scalar_scan(
            pts in proptest::collection::vec((0.0..710.0f64, 0.0..710.0f64), 0..120),
            q in (0.0..710.0f64, 0.0..710.0f64),
            radius in 1.0..50.0f64,
            exclude_raw in 0u32..260,
        ) {
            let field = Field::square(710.0);
            let positions: Vec<Point2> = pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let mut grid = SpatialGrid::new(field, 50.0);
            grid.rebuild(&positions);
            let center = Point2::new(q.0, q.1);
            // the vendored proptest has no `option::of`; fold the upper
            // half of the range onto `None`
            let exclude = (exclude_raw < 130).then(|| NodeId::new(exclude_raw));
            let scalar = grid.within(&positions, center, radius, exclude);
            let plane = PositionPlane::with_positions(&positions);
            let mut scratch = KernelScratch::new();
            let mut gathered = Vec::new();
            grid.for_each_within_kernel(
                &plane, &positions, center, radius, exclude, &mut scratch,
                |id| gathered.push(id),
            );
            prop_assert_eq!(&scalar, &gathered, "gather kernel diverged");
            prop_assert!(scratch.stats.lanes >= scratch.stats.exact_checks);
        }
    }

    /// Regression for the release-build gap: `update_reported`'s
    /// under-report detection used to exist only as a `debug_assert` sweep,
    /// so release builds silently served stale buckets. The sampled
    /// `audit_residency` must (a) stay silent on an honest grid, (b) flag a
    /// stale bucket once its rotating window reaches it, and (c) with a
    /// full-population sample behave exactly like the debug sweep.
    #[test]
    fn sampled_audit_catches_under_reported_movers() {
        let field = Field::square(100.0);
        let mut grid = SpatialGrid::new(field, 10.0);
        let mut positions: Vec<Point2> = (0..16)
            .map(|i| Point2::new((i % 4) as f64 * 25.0 + 5.0, (i / 4) as f64 * 25.0 + 5.0))
            .collect();
        grid.rebuild(&positions);
        // An honest grid audits clean, whatever the sample size.
        assert_eq!(grid.audit_residency(&positions, 16), 0);
        assert_eq!(grid.audit_residency(&positions, 3), 0);
        // Under-report: node 9 crosses a cell boundary but is never passed
        // to `update_reported` (mutating `positions` directly models the
        // mobility bug the audit exists to catch — we cannot route this
        // through `update_reported` in debug builds, where the sweep
        // would assert first).
        positions[9] = Point2::new(95.0, 95.0);
        assert_eq!(
            grid.audit_residency(&positions, positions.len()),
            1,
            "full-sample audit must find exactly the one stale bucket"
        );
        // A small rotating window finds it within ceil(16/4) = 4 calls.
        let mut found = 0;
        for _ in 0..4 {
            found += grid.audit_residency(&positions, 4);
        }
        assert_eq!(found, 1, "rotating window must sweep the population");
        // Zero samples (audit disabled) and empty grids are no-ops.
        assert_eq!(grid.audit_residency(&positions, 0), 0);
        let mut empty = SpatialGrid::new(field, 10.0);
        empty.rebuild(&[]);
        assert_eq!(empty.audit_residency(&[], 8), 0);
    }

    /// Satellite audit: far-field-edge bucketing through the `inv_side`
    /// multiply. `cell_of` buckets in f64 with an explicit `.min(cols-1)`
    /// clamp, and that clamp is load-bearing: for many (width, range)
    /// pairs the rounded product `width * (1/range)` lands exactly on
    /// `cols` (e.g. 100 × fl(1/10) = 10.000000000000002), so an unclamped
    /// floor would index out of bounds for points on the far edge.
    #[test]
    fn far_edge_points_bucket_into_boundary_cells() {
        for &(w, range) in &[
            (100.0, 10.0),    // w * fl(1/range) > cols in f64
            (710.0, 50.0),    // the Table-1 scenario geometry
            (31_750.0, 50.0), // the N=10⁶ tier geometry
            (99.9, 3.33),     // non-divisible pair
            (1.0, 0.1),       // tiny field, product 10.000000000000002
        ] {
            let field = Field::new(w, w);
            let mut grid = SpatialGrid::new(field, range);
            let cols = (w / range).ceil().max(1.0) as usize;
            // the far corner and a neighbor just inside it
            let corner = Point2::new(w, w);
            let near = Point2::new(w - range * 0.5, w);
            let positions = vec![corner, near];
            grid.rebuild(&positions);
            assert_grid_invariants(&grid, &positions);
            assert!(
                (grid.cell_at(corner) as usize) < grid.cell_count(),
                "corner cell out of bounds for w={w} range={range}"
            );
            // the exact-edge product actually overshoots cols for these
            // pairs, proving the clamp is exercised, not decorative
            if (w * (1.0 / range)) as usize >= cols {
                assert_eq!(
                    grid.cell_at(corner) as usize % cols,
                    cols - 1,
                    "far edge must clamp into the last column"
                );
            }
            let found = grid.within(&positions, corner, range, Some(NodeId(0)));
            assert_eq!(found, vec![NodeId(1)], "w={w} range={range}");
        }
    }

    /// The f64 bucketing path is authoritative even where f32 rounding
    /// would overshoot the field edge: a point just inside the far edge
    /// whose f32 image rounds *past* it still buckets by its f64 value,
    /// and the kernels (whose lanes are that overshooting f32 image)
    /// still classify its links exactly like the scalar path.
    #[test]
    fn f32_overshooting_edge_points_stay_exact() {
        let w = 710.0;
        // x < w but (x as f32) > w
        let x = f64::from(710.0f32) - 1e-5;
        assert!((x as f32) as f64 > x, "pick a value f32 rounds upward");
        let positions = vec![Point2::new(x, w), Point2::new(w - 49.0, w)];
        let field = Field::square(w);
        let mut grid = SpatialGrid::new(field, 50.0);
        grid.rebuild(&positions);
        assert_grid_invariants(&grid, &positions);
        let scalar = grid.within(&positions, positions[0], 50.0, Some(NodeId(0)));
        let plane = PositionPlane::with_positions(&positions);
        let mut scratch = KernelScratch::new();
        let mut kernel = Vec::new();
        grid.for_each_within_kernel(
            &plane,
            &positions,
            positions[0],
            50.0,
            Some(NodeId(0)),
            &mut scratch,
            |id| kernel.push(id),
        );
        assert_eq!(scalar, kernel);
        assert_eq!(scalar, vec![NodeId(1)]);
    }
}
