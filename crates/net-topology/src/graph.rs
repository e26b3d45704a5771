//! The unit-disk connectivity graph.
//!
//! [`Adjacency`] stores, for each node, the sorted list of nodes within
//! transmission range. It is kept up to date from positions (via
//! [`SpatialGrid`]) whenever mobility moves nodes, and queried constantly
//! by every protocol layer (`is_neighbor` is the "is the next hop still
//! there?" check in contact maintenance).
//!
//! ## Layout
//!
//! The graph is kept in *compressed sparse row* (CSR) form with per-row
//! slack: one flat [`Vec<NodeId>`] of neighbor entries, an `offsets` array
//! with node `i`'s row *capacity* spanning `edges[offsets[i] ..
//! offsets[i + 1]]`, and a `lens` array so only the first `lens[i]` slots
//! are live (sorted by id); the rest of each row is slack. Compared to a
//! `Vec<Vec<NodeId>>`, this is three allocations instead of `N + 1`,
//! rebuilds in place with zero per-node allocation, and BFS walks touch
//! one contiguous cache-friendly buffer.
//!
//! ## One patch, one rebuild, one oracle
//!
//! * [`Adjacency::patch_with_grid`] — the mobility hot path and the only
//!   patch entry, an **edge diff**: a link can only appear or disappear if
//!   a mover is one of its endpoints, so only the reported movers' rows
//!   are re-queried, through the f32 gather kernel
//!   ([`SpatialGrid::for_each_within_kernel`]). Each mover's sorted old row
//!   is merge-diffed against its new one, and every appeared or
//!   disappeared neighbor that is not itself a mover gets the matching
//!   half-edge inserted into / removed from its row in place, inside the
//!   slack. A row outgrowing its slack triggers a whole-CSR compaction
//!   that re-provisions slack (rare).
//! * [`Adjacency::rebuild_with_grid_parallel`] — the wholesale production
//!   build, and the patch's fallback when mover churn passes a threshold:
//!   heavy motion degrades to exactly the rebuild's cost rather than to
//!   patch churn. It streams half cell balls through the same two-phase
//!   kernel over an entry-aligned lane mirror.
//! * [`Adjacency::build`] / [`Adjacency::rebuild_with_grid`] — the scalar
//!   f64 build over [`SpatialGrid::for_each_within`], re-querying the 3×3
//!   cell ball of *every* node: the layer's one oracle. Tests compare the
//!   patch and the parallel rebuild against it (canonical CSR); nothing on
//!   a mobility tick calls it.
//!
//! `add_edge` / `remove_edge` splice a single row in place (growing the
//! CSR only when the row's slack is exhausted); they exist for tests and
//! synthetic topologies, not for the mobility hot path.

use crate::geometry::{Field, Point2};
use crate::grid::{self, GridUpdate, SpatialGrid};
use crate::node::NodeId;
use crate::plane::{KernelScratch, KernelStats, PositionPlane};
use sim_core::par;

/// Sentinel written into slack slots (never read on any query path; it
/// exists so stale ids in the gaps can't masquerade as live edges when
/// eyeballing dumps).
const FILLER: NodeId = NodeId(u32::MAX);

/// Churn fallback: if more than `max(N / PATCH_CHURN_DIVISOR,
/// PATCH_CHURN_FLOOR)` nodes moved in one tick,
/// [`Adjacency::patch_with_grid`] falls back to the wholesale path. A
/// patch costs one range query, one row diff and a few half-edge splices
/// per mover, against one (cheaper, half-ball) range query per node for
/// the rebuild. The divisor was priced for the costlier cell-ball patch
/// this one replaced and still awaits re-pricing against the edge diff,
/// which now re-queries every reported mover (ROADMAP item 1). The floor
/// keeps tiny graphs — where the ratio test degenerates to "any mover at
/// all" — on the patch path, since a handful of rows is cheap either way.
const PATCH_CHURN_DIVISOR: usize = 8;
/// See [`PATCH_CHURN_DIVISOR`].
const PATCH_CHURN_FLOOR: usize = 4;

/// Outcome of an [`Adjacency::patch_with_grid`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdjacencyUpdate {
    /// Only the movers' rows were re-queried; their non-mover neighbors'
    /// rows took half-edge edits, and the rest of the CSR was not touched.
    Patched {
        /// Rows re-queried against the grid this tick (the distinct
        /// reported movers).
        rows_patched: usize,
        /// Rows whose neighbor set actually changed: movers whose re-query
        /// differed plus the far endpoints of their flipped links.
        rows_changed: usize,
        /// Whole-CSR re-layouts triggered by row-slack overflow.
        compactions: usize,
        /// What the spatial grid did underneath.
        grid: GridUpdate,
    },
    /// Full-rebuild fallback ran (node-count change or mover churn past
    /// the threshold). The caller must treat every row as potentially
    /// changed.
    Full {
        /// What the spatial grid did underneath (the grid may still have
        /// re-bucketed incrementally even though every CSR row was
        /// re-queried).
        grid: GridUpdate,
    },
}

/// Reusable workspace for [`Adjacency::patch_with_grid`] (epoch-stamped
/// mover dedup plus row scratch — no allocation in the steady state).
///
/// The scratch doubles as the patch's **per-row undo log**: for every row
/// the patch actually changed, the pre-patch live neighbor slice is saved
/// once, before the row's first edit (O(changed · degree) copies — exactly
/// the data that changed, never the whole CSR). Callers that need the *old*
/// graph after a patch — the mover-driven refresh walks it for the
/// old-snapshot dirty ball — read it back through
/// [`PatchScratch::undo_count`] / [`PatchScratch::undo_entry`] instead of
/// keeping an O(E) snapshot copy.
#[derive(Clone, Debug, Default)]
pub struct PatchScratch {
    /// `stamp[i] == epoch` ⇔ node `i` is a mover of this patch.
    stamp: Vec<u32>,
    /// `logged[i] == epoch` ⇔ non-mover row `i` already has its undo entry.
    logged: Vec<u32>,
    epoch: u32,
    /// The distinct movers of the current patch, in report order.
    candidates: Vec<NodeId>,
    /// The freshly recomputed row being compared/written.
    row: Vec<NodeId>,
    /// Undo log: `(changed row, offset into undo_edges)` per changed row
    /// of the last patch, in the same order as the `changed` output.
    undo_rows: Vec<(NodeId, u32)>,
    /// Flat pre-patch row contents; row `k` of the log spans
    /// `undo_rows[k].1 .. undo_rows[k + 1].1` (or the buffer end).
    undo_edges: Vec<NodeId>,
}

impl PatchScratch {
    /// Fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new patch over `n` nodes: bump the epoch (recycling the
    /// stamp arrays without clearing them) and reset the candidate list
    /// and undo log.
    fn begin(&mut self, n: usize) {
        self.stamp.resize(n, 0);
        self.logged.resize(n, 0);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.logged.fill(0);
            self.epoch = 1;
        }
        self.candidates.clear();
        self.undo_rows.clear();
        self.undo_edges.clear();
    }

    /// Number of rows in the undo log of the last patch (equals the
    /// changed-row count of a [`AdjacencyUpdate::Patched`] outcome; stale
    /// after a [`AdjacencyUpdate::Full`] fallback, which logs nothing).
    pub fn undo_count(&self) -> usize {
        self.undo_rows.len()
    }

    /// The `k`-th undo entry: the changed row and its *pre-patch* live
    /// neighbor slice.
    ///
    /// # Panics
    /// Panics if `k >= undo_count()`.
    pub fn undo_entry(&self, k: usize) -> (NodeId, &[NodeId]) {
        let (node, start) = self.undo_rows[k];
        let end = self
            .undo_rows
            .get(k + 1)
            .map_or(self.undo_edges.len(), |&(_, s)| s as usize);
        (node, &self.undo_edges[start as usize..end])
    }
}

/// Symmetric adjacency for the unit-disk graph, in slack-row CSR layout.
#[derive(Debug)]
pub struct Adjacency {
    /// Node `i`'s row capacity spans `edges[offsets[i] .. offsets[i + 1]]`.
    /// Always `node_count() + 1` entries; `offsets[0] == 0`.
    offsets: Vec<u32>,
    /// Live neighbor count per row (`lens[i] <= offsets[i+1] - offsets[i]`).
    lens: Vec<u32>,
    /// Flat neighbor entries, sorted by id within each live row prefix;
    /// slack tails hold [`FILLER`].
    edges: Vec<NodeId>,
    /// Running total of live entries (`Σ lens`), so `link_count` /
    /// `avg_degree` stay O(1) instead of summing N rows. Maintained by
    /// every mutation; checked against the row sum in test invariants.
    live: usize,
    /// Per-row base slack applied by every layout pass (`row_slack`).
    /// The serial reference rebuild pins it at 1 (the historical policy);
    /// the parallel rebuild derives it from the degree histogram so big
    /// graphs provision enough headroom that patch-time row growth stops
    /// triggering whole-CSR `reprovision` storms. Pure layout — never
    /// affects logical equality or the canonical CSR.
    slack_base: u32,
}

impl Default for Adjacency {
    fn default() -> Self {
        Adjacency {
            offsets: vec![0],
            lens: Vec::new(),
            edges: Vec::new(),
            live: 0,
            slack_base: 1,
        }
    }
}

impl Clone for Adjacency {
    fn clone(&self) -> Self {
        Adjacency {
            offsets: self.offsets.clone(),
            lens: self.lens.clone(),
            edges: self.edges.clone(),
            live: self.live,
            slack_base: self.slack_base,
        }
    }

    /// Buffer-reusing clone: the mobility tick double-buffers snapshots
    /// with `clone_from` every tick, so this must be memcpy, not realloc.
    fn clone_from(&mut self, source: &Self) {
        self.offsets.clone_from(&source.offsets);
        self.lens.clone_from(&source.lens);
        self.edges.clone_from(&source.edges);
        self.live = source.live;
        self.slack_base = source.slack_base;
    }
}

/// Structural equality is *logical*: same node count and same live
/// neighbor slice per node. Slack sizing and slack contents are layout,
/// not graph, and must never affect comparisons.
impl PartialEq for Adjacency {
    fn eq(&self, other: &Self) -> bool {
        self.node_count() == other.node_count()
            && NodeId::all(self.node_count()).all(|v| self.neighbors(v) == other.neighbors(v))
    }
}
impl Eq for Adjacency {}

impl Adjacency {
    /// An empty graph over `n` nodes.
    pub fn with_nodes(n: usize) -> Self {
        Adjacency {
            offsets: vec![0; n + 1],
            lens: vec![0; n],
            edges: Vec::new(),
            live: 0,
            slack_base: 1,
        }
    }

    /// Slack slots provisioned for a row of `len` live edges during a
    /// layout pass (rebuild or compaction). The historical policy is
    /// `1 + len / 8` — tight, because every slack slot is a sentinel some
    /// scan skips; `slack_base` lifts the constant term when the degree
    /// histogram says patch-time growth would otherwise overflow rows
    /// routinely (see [`Adjacency::rebuild_with_grid_parallel`]).
    #[inline]
    fn row_slack(&self, len: u32) -> u32 {
        self.slack_base + len / 8
    }

    /// Degree-histogram-driven base slack: provision every row with
    /// headroom matching the *spread* of the degree distribution (p95 −
    /// median, quartered), so typical mover-induced row growth lands in
    /// slack instead of triggering a whole-CSR `reprovision`. Clamped so
    /// sparse graphs keep the historical tight layout and dense ones
    /// don't balloon memory.
    fn histogram_slack_base(lens: &[u32]) -> u32 {
        let n = lens.len();
        if n == 0 {
            return 1;
        }
        let max_deg = lens.iter().copied().max().unwrap_or(0) as usize;
        let mut hist = vec![0usize; max_deg + 1];
        for &len in lens {
            hist[len as usize] += 1;
        }
        let quantile = |q_num: usize, q_den: usize| -> u32 {
            let target = (n * q_num).div_ceil(q_den);
            let mut seen = 0usize;
            for (deg, &count) in hist.iter().enumerate() {
                seen += count;
                if seen >= target {
                    return deg as u32;
                }
            }
            max_deg as u32
        };
        let spread = quantile(95, 100).saturating_sub(quantile(50, 100));
        (1 + spread / 4).clamp(1, 8)
    }

    /// Sort one freshly queried neighbor row into canonical (ascending
    /// id) order. Typical rows are a handful of entries, where a plain
    /// insertion sort beats `sort_unstable`'s dispatch overhead — across
    /// the N=10⁴ rebuild the difference is a measurable fraction of the
    /// whole pass. Long rows fall back to `sort_unstable`.
    #[inline]
    fn sort_row(row: &mut [NodeId]) {
        if row.len() > 24 {
            row.sort_unstable();
            return;
        }
        for i in 1..row.len() {
            let v = row[i];
            let mut j = i;
            while j > 0 && row[j - 1] > v {
                row[j] = row[j - 1];
                j -= 1;
            }
            row[j] = v;
        }
    }

    /// Would [`Adjacency::patch_with_grid`] take the patch path (rather
    /// than the churn fallback) for `movers` reported movers out of `n`?
    /// The budget is `max(N / PATCH_CHURN_DIVISOR, PATCH_CHURN_FLOOR)`.
    /// `Network::refresh_movers` asks first: when the fallback would run
    /// anyway it takes the report-free refresh, whose all-rows diff
    /// recovers the changed set a wholesale rebuild cannot report.
    #[inline]
    pub fn patch_viable(n: usize, movers: usize) -> bool {
        movers <= (n / PATCH_CHURN_DIVISOR).max(PATCH_CHURN_FLOOR)
    }

    /// The checked edge-capacity guard: CSR offsets are `u32`, so the
    /// total provisioned entry count must fit. A `debug_assert` here would
    /// vanish exactly in the release builds where a 4-billion-edge run
    /// could actually overflow, so this is a hard check on every layout
    /// pass (its cost is one compare per rebuild, not per edge).
    #[inline]
    fn check_edge_capacity(total: usize) {
        assert!(
            total <= u32::MAX as usize,
            "CSR edge capacity {total} overflows u32 offsets \
             (node count or graph density too large for this layout)"
        );
    }

    /// Build from positions with the given transmission `range`, using a
    /// spatial grid (O(N · avg-degree)).
    pub fn build(field: Field, positions: &[Point2], range: f64) -> Self {
        let mut grid = SpatialGrid::new(field, range);
        Self::build_with_grid(&mut grid, positions, range)
    }

    /// Build from positions, reusing a caller-owned grid (the grid is
    /// rebuilt from `positions` first). Useful on mobility ticks to avoid
    /// reallocating the grid each time.
    pub fn build_with_grid(grid: &mut SpatialGrid, positions: &[Point2], range: f64) -> Self {
        let mut adj = Adjacency::with_nodes(positions.len());
        adj.rebuild_with_grid(grid, positions, range);
        adj
    }

    /// Rebuild in place (reusing the CSR buffers) from new positions,
    /// re-querying the grid for **every** node with the scalar f64 scan
    /// and re-provisioning row slack. This is the oracle the kernel paths
    /// ([`Adjacency::patch_with_grid`],
    /// [`Adjacency::rebuild_with_grid_parallel`]) are tested against.
    ///
    /// The grid is brought up to date with [`SpatialGrid::update`]: only
    /// nodes that crossed a cell boundary are re-bucketed (with automatic
    /// full-relayout fallback on heavy churn).
    ///
    /// Returns what the grid update did (incremental re-bucket vs full
    /// relayout) so callers can report it.
    ///
    /// # Panics
    /// Panics if the total provisioned edge capacity would overflow the
    /// `u32` CSR offsets.
    pub fn rebuild_with_grid(
        &mut self,
        grid: &mut SpatialGrid,
        positions: &[Point2],
        range: f64,
    ) -> GridUpdate {
        let grid_update = grid.update(positions);
        let n = positions.len();
        // The serial reference pins the historical tight slack policy.
        self.slack_base = 1;
        self.offsets.clear();
        self.offsets.reserve(n + 1);
        self.lens.clear();
        self.lens.reserve(n);
        self.edges.clear();
        self.live = 0;
        for (i, &p) in positions.iter().enumerate() {
            let id = NodeId::from(i);
            let start = self.edges.len();
            self.offsets.push(start as u32);
            let edges = &mut self.edges;
            grid.for_each_within(positions, p, range, Some(id), |nb| edges.push(nb));
            self.edges[start..].sort_unstable();
            let len = (self.edges.len() - start) as u32;
            self.lens.push(len);
            self.live += len as usize;
            self.edges
                .resize(self.edges.len() + self.row_slack(len) as usize, FILLER);
        }
        // One check for the whole layout: per-node `start` casts above are
        // only trusted once the final total fits (a panic here discards
        // the half-built state before anyone reads it).
        Self::check_edge_capacity(self.edges.len());
        self.offsets.push(self.edges.len() as u32);
        grid_update
    }

    /// The kernel + parallel counterpart of
    /// [`Adjacency::rebuild_with_grid`]: canonical-CSR-identical output
    /// (pinned by proptests here and in `tests/topology_refresh.rs`),
    /// built as
    ///
    /// 1. grid update, [`PositionPlane::rebuild`], and one entry-aligned
    ///    lane-mirror gather ([`SpatialGrid::fill_lane_mirror`]);
    /// 2. a *pair-emission* pass parallelized over row spans via
    ///    `sim_core::par` — each span streams its nodes' forward
    ///    half-balls ([`SpatialGrid::half_ball_rows`]) through the
    ///    batched two-phase f32 kernel (fast accept / fast reject / exact
    ///    f64 borderline resolution), emitting each in-range unordered
    ///    pair exactly once into a span-local list. Scanning half the
    ///    ball is sound because the kernel's verdict is exactly
    ///    symmetric: IEEE subtraction gives `a - b == -(b - a)`, so both
    ///    the f32 `d2` and the f64 borderline check see bit-identical
    ///    values from either endpoint;
    /// 3. a serial layout pass: both endpoints' degrees accumulated from
    ///    the pair lists, degree histogram → `slack_base` provisioning,
    ///    prefix-sum offsets, one `FILLER` memset, and a scatter that
    ///    lands every pair at both endpoints' write cursors;
    /// 4. a disjoint parallel sort: the edge buffer is split at span
    ///    boundaries and every row is sorted in place.
    ///
    /// Span results are consumed in span order and rows are sorted, so
    /// the output is deterministic and identical whether the fan-outs run
    /// on the whole pool or inline on a single core. Kernel lane/exact
    /// counters accumulate into `scratch.stats`.
    ///
    /// # Panics
    /// Panics if the total provisioned edge capacity would overflow the
    /// `u32` CSR offsets.
    pub fn rebuild_with_grid_parallel(
        &mut self,
        grid: &mut SpatialGrid,
        plane: &mut PositionPlane,
        positions: &[Point2],
        range: f64,
        scratch: &mut KernelScratch,
    ) -> GridUpdate {
        let grid_update = grid.update(positions);
        plane.rebuild(positions);
        grid.fill_lane_mirror(plane, scratch);
        let n = positions.len();
        let band = plane.band(range, grid.cell_side());
        let spans = par::shard_spans(n, par::max_workers());

        /// One span's worth of half-ball link pairs.
        struct SpanPairs {
            /// Every in-range unordered pair whose *first* endpoint sits
            /// in the span, each exactly once.
            pairs: Vec<(NodeId, NodeId)>,
            stats: KernelStats,
        }
        let entries = grid.entries_raw();
        let (mirror_x, mirror_y) = (&scratch.mirror_x[..], &scratch.mirror_y[..]);
        let grid_ref = &*grid;
        let results: Vec<SpanPairs> =
            par::parallel_map_with(spans.clone(), Vec::<(f32, NodeId)>::new, |cand, span| {
                let mut out = SpanPairs {
                    // ~6 pairs/node up front; the paper's densest
                    // scenarios average ~4 (half the ~8 degree), so one
                    // allocation usually survives the whole span.
                    pairs: Vec::with_capacity(span.len() * 6),
                    stats: KernelStats::default(),
                };
                for i in span {
                    let id = NodeId::from(i);
                    let center = positions[i];
                    let rows = grid_ref.half_ball_rows(center);
                    // Same-cell pairs deduplicate through the `id > i`
                    // filter; the east/south spans cannot contain `id`.
                    let min_ids = [i as u32 + 1, 0, 0];
                    for (&(lo, hi), &min_id) in rows.iter().zip(&min_ids) {
                        let (lo, hi) = (lo as usize, hi as usize);
                        grid::kernel_scan_row(
                            &entries[lo..hi],
                            &mirror_x[lo..hi],
                            &mirror_y[lo..hi],
                            band,
                            positions,
                            center,
                            min_id,
                            cand,
                            &mut out.stats,
                            &mut |nb| out.pairs.push((id, nb)),
                        );
                    }
                }
                out
            });

        // Serial layout: accumulate both endpoints' degrees from the pair
        // lists, derive the slack base from the histogram, prefix-sum the
        // offsets, and memset the slack CSR.
        self.lens.clear();
        self.lens.resize(n, 0);
        for r in &results {
            scratch.stats.merge(r.stats);
            for &(a, b) in &r.pairs {
                self.lens[a.index()] += 1;
                self.lens[b.index()] += 1;
            }
        }
        self.slack_base = Self::histogram_slack_base(&self.lens);
        self.offsets.clear();
        self.offsets.reserve(n + 1);
        let mut total = 0usize;
        let mut live = 0usize;
        for i in 0..n {
            self.offsets.push(total as u32);
            let len = self.lens[i];
            live += len as usize;
            total += (len + self.row_slack(len)) as usize;
        }
        Self::check_edge_capacity(total);
        self.offsets.push(total as u32);
        self.live = live;
        let mut edges = std::mem::take(&mut self.edges);
        edges.clear();
        edges.resize(total, FILLER);

        // Serial scatter: every pair lands at both endpoints' write
        // cursors. Rows fill from their offsets, so slack stays FILLER
        // at each row's tail. Span order is deterministic and every row
        // gets sorted below, so the output cannot depend on how the
        // fan-out interleaved.
        let mut cursor: Vec<u32> = self.offsets[..n].to_vec();
        for r in &results {
            for &(a, b) in &r.pairs {
                let (ai, bi) = (a.index(), b.index());
                edges[cursor[ai] as usize] = b;
                cursor[ai] += 1;
                edges[cursor[bi] as usize] = a;
                cursor[bi] += 1;
            }
        }

        // Disjoint parallel sort: split the edge buffer at span
        // boundaries, then sort every row in place -> canonical CSR.
        struct SortShard<'a> {
            region: &'a mut [NodeId],
            lens: &'a [u32],
            /// `offsets[span.start .. span.end]`, for per-row placement.
            offsets: &'a [u32],
        }
        let mut shards: Vec<SortShard> = Vec::with_capacity(spans.len());
        let mut remaining: &mut [NodeId] = &mut edges;
        let mut consumed = 0usize;
        for span in &spans {
            let end = self.offsets[span.end] as usize;
            let (region, rest) = remaining.split_at_mut(end - consumed);
            remaining = rest;
            consumed = end;
            shards.push(SortShard {
                region,
                lens: &self.lens[span.clone()],
                offsets: &self.offsets[span.clone()],
            });
        }
        par::parallel_shard_map(&mut shards, |_, shard| {
            let base = shard.offsets.first().map_or(0, |&o| o as usize);
            for (k, &len) in shard.lens.iter().enumerate() {
                let dst = shard.offsets[k] as usize - base;
                Self::sort_row(&mut shard.region[dst..dst + len as usize]);
            }
        });
        self.edges = edges;
        grid_update
    }

    /// Patch the CSR in place after a mobility tick, given the nodes whose
    /// positions changed (`moved`, from
    /// `MobilityModel::advance_reporting`). Only the movers' rows are
    /// re-queried — through the gather kernel
    /// ([`SpatialGrid::for_each_within_kernel`]): an edge can only appear
    /// or disappear if at least one endpoint moved, so each mover's old row
    /// is diffed against its new one and the non-mover end of every
    /// flipped link takes a half-edge insert or remove; everyone else's
    /// row is provably unchanged. The grid's cell residency and the plane
    /// are brought up to date from the same report.
    ///
    /// `changed` receives the rows whose neighbor set actually changed (in
    /// first-edit order) — exactly the seed set an incremental
    /// neighborhood refresh needs, with no O(N) snapshot diff. Each changed
    /// row's *pre-patch* content is saved to `scratch`'s undo log
    /// ([`PatchScratch::undo_entry`], same order), so callers can
    /// reconstruct any old row without double-buffering the whole CSR.
    /// Kernel lane/exact counters accumulate into `kscratch.stats`.
    ///
    /// Falls back to [`Adjacency::rebuild_with_grid_parallel`] (returning
    /// [`AdjacencyUpdate::Full`] with the grid outcome, `changed` left
    /// empty) when the node count changed or `moved` is not
    /// [`Adjacency::patch_viable`].
    ///
    /// # Contract
    /// `self` must currently equal `build(field, previous_positions,
    /// range)`, the grid and the plane must be up to date with those
    /// previous positions, and `moved` must contain every node whose
    /// position differs between `previous_positions` and `positions`
    /// (supersets and duplicates are tolerated; duplicates count against
    /// the churn budget). The equivalence with a fresh scalar build
    /// ([`Adjacency::build`], the layer's one oracle) is pinned by
    /// proptests here and in `tests/topology_refresh.rs`.
    ///
    /// # Panics
    /// Panics if a compaction would overflow the `u32` CSR offsets, or if
    /// `moved` names a node outside `0..positions.len()`.
    #[allow(clippy::too_many_arguments)] // the refresh's long-lived state, borrowed piecewise
    pub fn patch_with_grid(
        &mut self,
        grid: &mut SpatialGrid,
        plane: &mut PositionPlane,
        positions: &[Point2],
        range: f64,
        moved: &[NodeId],
        changed: &mut Vec<NodeId>,
        scratch: &mut PatchScratch,
        kscratch: &mut KernelScratch,
    ) -> AdjacencyUpdate {
        changed.clear();
        let n = positions.len();
        if self.node_count() != n
            || grid.tracked_nodes() != n
            || !Self::patch_viable(n, moved.len())
        {
            let grid_update =
                self.rebuild_with_grid_parallel(grid, plane, positions, range, kscratch);
            return AdjacencyUpdate::Full { grid: grid_update };
        }
        plane.update_reported(positions, moved);

        // 1. The rows to re-query: the movers, deduped with epoch stamps.
        //    Every flipped link has one as an endpoint, so no other row
        //    needs a range query.
        scratch.begin(n);
        let PatchScratch {
            stamp,
            logged,
            epoch,
            candidates,
            row,
            undo_rows,
            undo_edges,
        } = scratch;
        let ep = *epoch;
        for &m in moved {
            if std::mem::replace(&mut stamp[m.index()], ep) != ep {
                candidates.push(m);
            }
        }

        // 2. Bring the grid up to date — O(movers), not O(N).
        let grid_update = grid.update_reported(positions, moved);

        // 3. Re-query each mover against the new grid. A row that differs
        //    is logged and rewritten inside its slack (compacting on
        //    overflow), then merge-diffed against its logged old content:
        //    the non-mover end of every appeared / disappeared link takes
        //    the half-edge edit, logged before its first one. A mover on
        //    the far end rewrites its own row — the range verdict is
        //    symmetric, so both ends agree.
        let mut compactions = 0usize;
        let mut log = |adj: &Adjacency, v: NodeId, undo_edges: &mut Vec<NodeId>| {
            changed.push(v);
            undo_rows.push((v, undo_edges.len() as u32));
            undo_edges.extend_from_slice(adj.neighbors(v));
        };
        for &c in candidates.iter() {
            let i = c.index();
            row.clear();
            grid.for_each_within_kernel(
                plane,
                positions,
                positions[i],
                range,
                Some(c),
                kscratch,
                |nb| row.push(nb),
            );
            Self::sort_row(row);
            if self.neighbors(c) == &row[..] {
                continue;
            }
            log(self, c, undo_edges);
            let old_end = undo_edges.len();
            let (mut a, mut b) = (old_end - self.lens[i] as usize, 0);
            if row.len() > (self.offsets[i + 1] - self.offsets[i]) as usize {
                compactions += 1;
                self.reprovision(i, row.len() as u32);
            }
            let (start, len) = (self.offsets[i] as usize, self.lens[i] as usize);
            self.edges[start..start + row.len()].copy_from_slice(row);
            if row.len() < len {
                // Shrunk row: re-stamp the vacated tail so stale ids can't
                // masquerade as live edges in raw dumps.
                self.edges[start + row.len()..start + len].fill(FILLER);
            }
            self.live = self.live - len + row.len();
            self.lens[i] = row.len() as u32;
            // Merge walk over the old (logged) and new row: each step takes
            // the smaller head, or both when equal. `FILLER` sorts after
            // every live id, so it stands in for an exhausted side.
            loop {
                let gone = if a < old_end { undo_edges[a] } else { FILLER };
                let came = row.get(b).copied().unwrap_or(FILLER);
                a += usize::from(gone <= came);
                b += usize::from(came <= gone);
                if gone == came {
                    if gone == FILLER {
                        break;
                    }
                    continue;
                }
                let y = gone.min(came);
                if stamp[y.index()] == ep {
                    continue;
                }
                if std::mem::replace(&mut logged[y.index()], ep) != ep {
                    log(self, y, undo_edges);
                }
                if came < gone {
                    compactions += usize::from(self.insert_half_edge(y, c));
                } else {
                    self.remove_half_edge(y, c);
                }
            }
        }
        AdjacencyUpdate::Patched {
            rows_patched: candidates.len(),
            rows_changed: changed.len(),
            compactions,
            grid: grid_update,
        }
    }

    /// Whole-CSR compaction: re-layout every row with fresh slack, sizing
    /// row `grow_row` for `need` live edges. Row contents are copied, not
    /// re-queried — O(E) memcpy, no grid work.
    fn reprovision(&mut self, grow_row: usize, need: u32) {
        let n = self.node_count();
        let mut new_offsets = Vec::with_capacity(n + 1);
        let mut total = 0usize;
        for i in 0..n {
            new_offsets.push(total as u32);
            let planned = if i == grow_row { need } else { self.lens[i] };
            total += (planned + self.row_slack(planned)) as usize;
        }
        Self::check_edge_capacity(total);
        new_offsets.push(total as u32);
        let mut new_edges = vec![FILLER; total];
        #[allow(clippy::needless_range_loop)] // index addresses parallel row arrays
        for i in 0..n {
            let src = self.offsets[i] as usize;
            let dst = new_offsets[i] as usize;
            let len = self.lens[i] as usize;
            new_edges[dst..dst + len].copy_from_slice(&self.edges[src..src + len]);
        }
        self.offsets = new_offsets;
        self.edges = new_edges;
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Sorted direct (1-hop) neighbors of `node`.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        let start = self.offsets[i] as usize;
        &self.edges[start..start + self.lens[i] as usize]
    }

    /// `node`'s first CSR slot together with its live neighbors: neighbor
    /// `j` of the returned slice occupies slot `first + j`, and every slot
    /// is below [`Adjacency::slot_count`]. Slots are a *layout* key for
    /// per-edge side arrays (the CSQ walk's tried stamps): valid only until
    /// the next mutation, which may move any row.
    #[inline]
    pub fn row(&self, node: NodeId) -> (usize, &[NodeId]) {
        let start = self.offsets[node.index()] as usize;
        (start, self.neighbors(node))
    }

    /// Total CSR slots (live entries plus slack) — the length a per-slot
    /// side array needs; see [`Adjacency::row`].
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.edges.len()
    }

    /// Degree of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.lens[node.index()] as usize
    }

    /// Are `a` and `b` directly connected? (binary search on the sorted slice)
    #[inline]
    pub fn is_neighbor(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Total number of live directed half-edges (`2 × link_count`).
    #[inline]
    fn half_edge_count(&self) -> usize {
        self.live
    }

    /// Total number of undirected links.
    pub fn link_count(&self) -> usize {
        self.half_edge_count() / 2
    }

    /// Average node degree.
    pub fn avg_degree(&self) -> f64 {
        let n = self.node_count();
        if n == 0 {
            return 0.0;
        }
        self.half_edge_count() as f64 / n as f64
    }

    /// The raw slack-CSR buffers `(offsets, lens, edges)`: row `i`'s
    /// capacity is `edges[offsets[i] .. offsets[i + 1]]`, its live prefix
    /// `lens[i]` entries (tests, benches, metrics).
    pub fn raw_csr(&self) -> (&[u32], &[u32], &[NodeId]) {
        (&self.offsets, &self.lens, &self.edges)
    }

    /// The *canonical* dense CSR `(offsets, edges)` — all slack squeezed
    /// out, so two logically equal graphs yield bit-identical buffers
    /// regardless of how they were built (fresh build, in-place rebuild,
    /// or any sequence of patches). The equivalence proptests compare
    /// these.
    pub fn canonical_csr(&self) -> (Vec<u32>, Vec<NodeId>) {
        let n = self.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(self.half_edge_count());
        for v in NodeId::all(n) {
            offsets.push(edges.len() as u32);
            edges.extend_from_slice(self.neighbors(v));
        }
        offsets.push(edges.len() as u32);
        (offsets, edges)
    }

    /// Do `a`'s neighbors differ between `self` and `other`? Nodes present
    /// in only one of the two graphs count as changed. This is the edge
    /// diff the incremental neighborhood refresh falls back on when no
    /// mover report is available.
    #[inline]
    pub fn neighbors_changed(&self, other: &Adjacency, a: NodeId) -> bool {
        if a.index() >= self.node_count() || a.index() >= other.node_count() {
            return true;
        }
        self.neighbors(a) != other.neighbors(a)
    }

    /// Insert `y` into `x`'s sorted row if absent (O(row) shift; grows the
    /// CSR only when the row's slack is exhausted — returns whether that
    /// compaction ran).
    fn insert_half_edge(&mut self, x: NodeId, y: NodeId) -> bool {
        let i = x.index();
        let Err(pos) = self.neighbors(x).binary_search(&y) else {
            return false;
        };
        let len = self.lens[i] as usize;
        let compacted = len == (self.offsets[i + 1] - self.offsets[i]) as usize;
        if compacted {
            self.reprovision(i, len as u32 + 1);
        }
        let start = self.offsets[i] as usize;
        self.edges
            .copy_within(start + pos..start + len, start + pos + 1);
        self.edges[start + pos] = y;
        self.lens[i] += 1;
        self.live += 1;
        compacted
    }

    /// Remove `y` from `x`'s sorted row if present (O(row) shift; the
    /// vacated slot becomes slack).
    fn remove_half_edge(&mut self, x: NodeId, y: NodeId) {
        let i = x.index();
        let Ok(pos) = self.neighbors(x).binary_search(&y) else {
            return;
        };
        let start = self.offsets[i] as usize;
        let len = self.lens[i] as usize;
        self.edges
            .copy_within(start + pos + 1..start + len, start + pos);
        self.edges[start + len - 1] = FILLER;
        self.lens[i] -= 1;
        self.live -= 1;
    }

    /// Add an undirected edge (used by tests and synthetic topologies).
    ///
    /// # Panics
    /// Panics on self-loops.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) {
        assert_ne!(a, b, "self-loop");
        self.insert_half_edge(a, b);
        self.insert_half_edge(b, a);
    }

    /// Remove an undirected edge if present.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) {
        self.remove_half_edge(a, b);
        self.remove_half_edge(b, a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Check the slack-CSR structural invariants.
    fn assert_csr_invariants(adj: &Adjacency) {
        let (offsets, lens, edges) = adj.raw_csr();
        assert_eq!(offsets.len(), adj.node_count() + 1);
        assert_eq!(lens.len(), adj.node_count());
        assert_eq!(
            adj.live,
            lens.iter().map(|&l| l as usize).sum::<usize>(),
            "live counter out of sync with row lengths"
        );
        assert_eq!(offsets[0], 0);
        assert_eq!(*offsets.last().unwrap() as usize, edges.len());
        for w in offsets.windows(2) {
            assert!(w[0] <= w[1], "offsets must be monotone");
        }
        for node in NodeId::all(adj.node_count()) {
            let i = node.index();
            assert!(
                lens[i] <= offsets[i + 1] - offsets[i],
                "row {node} live length exceeds capacity"
            );
            let nbs = adj.neighbors(node);
            let (first, row) = adj.row(node);
            assert_eq!((first, row), (offsets[i] as usize, nbs));
            assert!(first + row.len() <= adj.slot_count());
            for w in nbs.windows(2) {
                assert!(w[0] < w[1], "neighbor slice of {node} not strictly sorted");
            }
            for &nb in nbs {
                assert_ne!(nb, super::FILLER, "live slot holds the filler sentinel");
            }
            let tail = offsets[i] as usize + lens[i] as usize..offsets[i + 1] as usize;
            for &slot in &edges[tail] {
                assert_eq!(slot, super::FILLER, "slack slot holds a live-looking id");
            }
        }
    }

    /// What a patch must report: `changed`, as a set, is exactly the rows
    /// that differ between the pre-patch graph and the patched one (checked
    /// against a fresh build by the caller), and the undo log holds each
    /// one's exact pre-patch row, in `changed` order.
    fn assert_patch_report(
        before: &Adjacency,
        after: &Adjacency,
        changed: &[NodeId],
        scratch: &PatchScratch,
    ) {
        let mut got = changed.to_vec();
        got.sort();
        let expect: Vec<NodeId> = NodeId::all(after.node_count())
            .filter(|&v| after.neighbors_changed(before, v))
            .collect();
        assert_eq!(got, expect, "changed-row report is wrong");
        assert_eq!(scratch.undo_count(), changed.len());
        for (k, &row) in changed.iter().enumerate() {
            let (node, old) = scratch.undo_entry(k);
            assert_eq!(node, row);
            assert_eq!(
                old,
                before.neighbors(node),
                "undo row {node} does not match the snapshot"
            );
        }
    }

    /// The long-lived state a patch runs on, held as `Network` holds it:
    /// grid and plane in step with the positions of the previous call.
    struct PatchRig {
        range: f64,
        grid: SpatialGrid,
        plane: PositionPlane,
        kernel: KernelScratch,
        scratch: PatchScratch,
        changed: Vec<NodeId>,
    }

    impl PatchRig {
        /// The oracle build of `positions` (tight slack) and a rig in step
        /// with it.
        fn build(field: Field, positions: &[Point2], range: f64) -> (Adjacency, PatchRig) {
            let mut grid = SpatialGrid::new(field, range);
            let adj = Adjacency::build_with_grid(&mut grid, positions, range);
            let rig = PatchRig {
                range,
                grid,
                plane: PositionPlane::with_positions(positions),
                kernel: KernelScratch::new(),
                scratch: PatchScratch::new(),
                changed: Vec::new(),
            };
            (adj, rig)
        }

        /// The one patch entry, checking plane coherence afterwards.
        fn patch(
            &mut self,
            adj: &mut Adjacency,
            positions: &[Point2],
            moved: &[NodeId],
        ) -> AdjacencyUpdate {
            let out = adj.patch_with_grid(
                &mut self.grid,
                &mut self.plane,
                positions,
                self.range,
                moved,
                &mut self.changed,
                &mut self.scratch,
                &mut self.kernel,
            );
            assert!(self.plane.is_coherent(positions), "plane lost coherence");
            out
        }
    }

    /// Three nodes in a line, 40 m apart, range 50 m: 0-1 and 1-2 connect,
    /// 0-2 (80 m) does not.
    fn line3() -> (Field, Vec<Point2>) {
        (
            Field::square(200.0),
            vec![
                Point2::new(10.0, 10.0),
                Point2::new(50.0, 10.0),
                Point2::new(90.0, 10.0),
            ],
        )
    }

    #[test]
    fn build_line_topology() {
        let (field, pos) = line3();
        let adj = Adjacency::build(field, &pos, 50.0);
        assert_eq!(adj.node_count(), 3);
        assert_eq!(adj.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(adj.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        assert_eq!(adj.neighbors(NodeId(2)), &[NodeId(1)]);
        assert!(adj.is_neighbor(NodeId(0), NodeId(1)));
        assert!(!adj.is_neighbor(NodeId(0), NodeId(2)));
        assert_eq!(adj.link_count(), 2);
        assert!((adj.avg_degree() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(adj.degree(NodeId(1)), 2);
        assert_csr_invariants(&adj);
    }

    #[test]
    fn symmetry_of_links() {
        let (field, pos) = line3();
        let adj = Adjacency::build(field, &pos, 50.0);
        for a in NodeId::all(3) {
            for &b in adj.neighbors(a) {
                assert!(adj.is_neighbor(b, a), "{a}-{b} not symmetric");
            }
        }
    }

    #[test]
    fn rebuild_reflects_movement() {
        let (field, mut pos) = line3();
        let mut grid = SpatialGrid::new(field, 50.0);
        let mut adj = Adjacency::build_with_grid(&mut grid, &pos, 50.0);
        assert!(adj.is_neighbor(NodeId(0), NodeId(1)));
        // node 1 walks out of everyone's range
        pos[1] = Point2::new(190.0, 190.0);
        adj.rebuild_with_grid(&mut grid, &pos, 50.0);
        assert_eq!(adj.degree(NodeId(1)), 0);
        assert!(!adj.is_neighbor(NodeId(0), NodeId(1)));
        assert_csr_invariants(&adj);
    }

    #[test]
    fn patch_reflects_movement() {
        let (field, mut pos) = line3();
        let (mut adj, mut rig) = PatchRig::build(field, &pos, 50.0);
        // node 1 steps just out of node 0's range but stays near node 2
        pos[1] = Point2::new(95.0, 10.0);
        let out = rig.patch(&mut adj, &pos, &[NodeId(1)]);
        assert!(
            matches!(
                out,
                AdjacencyUpdate::Patched {
                    rows_changed: 2,
                    ..
                }
            ),
            "exactly nodes 0 and 1 change ({out:?})"
        );
        let mut sorted = rig.changed.clone();
        sorted.sort();
        assert_eq!(sorted, vec![NodeId(0), NodeId(1)]);
        assert_eq!(adj, Adjacency::build(field, &pos, 50.0));
        assert_csr_invariants(&adj);
        // the undo log holds exactly the changed rows' pre-patch content
        assert_eq!(rig.scratch.undo_count(), 2);
        for (k, &row) in rig.changed.iter().enumerate() {
            let (node, old) = rig.scratch.undo_entry(k);
            assert_eq!(node, row);
            // before the move, 0-1 and 1-2 were the links
            let expect: &[NodeId] = match node.raw() {
                0 => &[NodeId(1)],
                1 => &[NodeId(0), NodeId(2)],
                _ => unreachable!(),
            };
            assert_eq!(old, expect);
        }
        // no movement → nothing patched rows change
        let out = rig.patch(&mut adj, &pos, &[]);
        assert!(
            matches!(
                out,
                AdjacencyUpdate::Patched {
                    rows_patched: 0,
                    rows_changed: 0,
                    ..
                }
            ),
            "{out:?}"
        );
        assert!(rig.changed.is_empty());
    }

    #[test]
    fn patch_falls_back_on_churn_and_node_count_change() {
        let field = Field::square(300.0);
        let pos: Vec<Point2> = (0..10)
            .map(|i| Point2::new(i as f64 * 30.0 + 5.0, 150.0))
            .collect();
        let (mut adj, mut rig) = PatchRig::build(field, &pos, 50.0);
        // churn: more than N/8 movers
        let all: Vec<NodeId> = NodeId::all(10).collect();
        let out = rig.patch(&mut adj, &pos, &all);
        assert!(matches!(out, AdjacencyUpdate::Full { .. }), "{out:?}");
        // node count change
        let fewer = &pos[..7];
        let out = rig.patch(&mut adj, fewer, &[]);
        assert!(matches!(out, AdjacencyUpdate::Full { .. }), "{out:?}");
        assert_eq!(adj.node_count(), 7);
        assert_eq!(adj, Adjacency::build(field, fewer, 50.0));
    }

    #[test]
    fn patch_compacts_on_row_overflow() {
        // A lone node gains many neighbors at once: its row outgrows any
        // slack a fresh build provisioned, forcing a compaction.
        let field = Field::square(400.0);
        let mut pos = vec![Point2::new(10.0, 10.0); 9];
        for (i, p) in pos.iter_mut().enumerate().skip(1) {
            *p = Point2::new(300.0 + (i as f64), 300.0);
        }
        let (mut adj, mut rig) = PatchRig::build(field, &pos, 50.0);
        assert_eq!(adj.degree(NodeId(0)), 0);
        // node 0 teleports into the middle of the cluster
        pos[0] = Point2::new(304.0, 300.0);
        let out = rig.patch(&mut adj, &pos, &[NodeId(0)]);
        match out {
            AdjacencyUpdate::Patched {
                rows_changed,
                compactions,
                ..
            } => {
                assert_eq!(rows_changed, 9, "cluster + mover all gain an edge");
                assert!(compactions >= 1, "row 0 must overflow its empty-row slack");
            }
            AdjacencyUpdate::Full { .. } => panic!("one mover of nine must patch, not rebuild"),
        }
        assert_eq!(adj.degree(NodeId(0)), 8);
        assert_eq!(adj, Adjacency::build(field, &pos, 50.0));
        assert_csr_invariants(&adj);
    }

    #[test]
    fn lone_mover_requeries_exactly_its_own_row() {
        // Nobody within range before or after: the only row the patch may
        // look at is the mover's own, however crowded the cells around it.
        let field = Field::square(400.0);
        let mut pos = vec![
            Point2::new(200.0, 200.0),
            Point2::new(260.0, 200.0),
            Point2::new(200.0, 260.0),
            Point2::new(140.0, 140.0),
        ];
        let (mut adj, mut rig) = PatchRig::build(field, &pos, 50.0);
        assert_eq!(adj.link_count(), 0);
        pos[0] = Point2::new(205.0, 205.0);
        let movers = [NodeId(0)];
        let out = rig.patch(&mut adj, &pos, &movers);
        assert!(
            matches!(
                out,
                AdjacencyUpdate::Patched {
                    rows_patched: 1,
                    rows_changed: 0,
                    ..
                }
            ),
            "{out:?}"
        );
        assert!(rig.changed.is_empty());
        assert_eq!(rig.scratch.undo_count(), 0);
        assert_eq!(adj, Adjacency::build(field, &pos, 50.0));
    }

    #[test]
    fn swapping_mover_pair_hands_its_static_neighbor_over() {
        // A and B are linked and sit in adjacent cells; C hears only A. The
        // two swap places (and cells): A-B survives with both ends moving,
        // C — never re-queried — loses A and gains B by half-edge edits,
        // and is logged once for the two.
        let field = Field::square(200.0);
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        let mut pos = vec![
            Point2::new(40.0, 25.0),
            Point2::new(60.0, 25.0),
            Point2::new(0.0, 25.0),
        ];
        let (mut adj, mut rig) = PatchRig::build(field, &pos, 50.0);
        assert_eq!(adj.neighbors(c), &[a]);
        let before = adj.clone();
        pos.swap(0, 1);
        // duplicates in the report change nothing
        let movers = [a, b, b, a];
        let out = rig.patch(&mut adj, &pos, &movers);
        assert!(
            matches!(
                out,
                AdjacencyUpdate::Patched {
                    rows_patched: 2,
                    rows_changed: 3,
                    ..
                }
            ),
            "{out:?}"
        );
        assert_eq!(adj.neighbors(c), &[b]);
        assert_eq!(adj, Adjacency::build(field, &pos, 50.0));
        assert_csr_invariants(&adj);
        assert_patch_report(&before, &adj, &rig.changed, &rig.scratch);
    }

    /// Three movers leave static `z` (node 4) and land around static, so
    /// far isolated `y` (node 3), whose fresh-build row has one slack slot.
    fn pile_up() -> (Field, Vec<Point2>, Vec<Point2>) {
        let far = |k: usize| Point2::new(300.0 + 2.0 * k as f64, 300.0);
        let near = |k: usize| Point2::new(100.0 + 2.0 * k as f64, 104.0);
        let y = Point2::new(100.0, 100.0);
        let before = vec![far(0), far(1), far(2), y, far(3)];
        let after = vec![near(0), near(1), near(2), y, far(3)];
        (Field::square(400.0), before, after)
    }

    #[test]
    fn full_non_mover_row_compacts_mid_patch_and_keeps_the_undo_log() {
        let (field, pos, moved_pos) = pile_up();
        let (mut adj, mut rig) = PatchRig::build(field, &pos, 50.0);
        let (offsets, lens, _) = adj.raw_csr();
        assert_eq!((lens[3], offsets[4] - offsets[3]), (0, 1), "y: one slot");
        let before = adj.clone();
        let movers = [NodeId(0), NodeId(1), NodeId(2)];
        let out = rig.patch(&mut adj, &moved_pos, &movers);
        // y's second arriving mover finds the row full: the whole CSR is
        // re-laid out while the entries of both movers, y and z are
        // already in the log.
        match out {
            AdjacencyUpdate::Patched {
                rows_patched,
                rows_changed,
                compactions,
                ..
            } => {
                assert_eq!((rows_patched, rows_changed), (3, 5));
                assert!(compactions >= 1, "y's row must overflow its slack");
            }
            AdjacencyUpdate::Full { .. } => panic!("three movers of five must patch"),
        }
        assert_eq!(adj.neighbors(NodeId(3)), &movers[..]);
        assert_eq!(adj.degree(NodeId(4)), 0);
        assert_eq!(adj, Adjacency::build(field, &moved_pos, 50.0));
        assert_csr_invariants(&adj);
        assert_patch_report(&before, &adj, &rig.changed, &rig.scratch);
    }

    #[test]
    fn epoch_wraparound_zeroes_both_patch_stamp_arrays() {
        let (field, pos, moved_pos) = pile_up();
        let (mut adj, mut rig) = PatchRig::build(field, &pos, 50.0);
        // Size the arrays, then plant the worst case: every stamp equals
        // the first epoch after the wrap and the counter sits on the brink.
        // Without the zeroing every node would read as a mover already
        // queued (nothing re-queried) and every row as already logged (no
        // undo entry for y or z).
        rig.patch(&mut adj, &pos, &[]);
        rig.scratch.stamp.fill(1);
        rig.scratch.logged.fill(1);
        rig.scratch.epoch = u32::MAX;
        let before = adj.clone();
        let movers = [NodeId(0), NodeId(1), NodeId(2)];
        rig.patch(&mut adj, &moved_pos, &movers);
        assert_eq!(rig.scratch.epoch, 1);
        assert_eq!(adj, Adjacency::build(field, &moved_pos, 50.0));
        assert_patch_report(&before, &adj, &rig.changed, &rig.scratch);
    }

    #[test]
    fn add_remove_edge() {
        let mut adj = Adjacency::with_nodes(4);
        adj.add_edge(NodeId(0), NodeId(2));
        adj.add_edge(NodeId(0), NodeId(2)); // idempotent
        assert!(adj.is_neighbor(NodeId(0), NodeId(2)));
        assert!(adj.is_neighbor(NodeId(2), NodeId(0)));
        assert_eq!(adj.link_count(), 1);
        assert_csr_invariants(&adj);
        adj.remove_edge(NodeId(0), NodeId(2));
        assert_eq!(adj.link_count(), 0);
        adj.remove_edge(NodeId(0), NodeId(2)); // removing absent edge is fine
        assert_csr_invariants(&adj);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        Adjacency::with_nodes(2).add_edge(NodeId(1), NodeId(1));
    }

    #[test]
    fn exact_range_boundary_connects() {
        let field = Field::square(100.0);
        let pos = vec![Point2::new(0.0, 0.0), Point2::new(50.0, 0.0)];
        let adj = Adjacency::build(field, &pos, 50.0);
        assert!(
            adj.is_neighbor(NodeId(0), NodeId(1)),
            "distance == range is connected"
        );
    }

    #[test]
    fn rebuild_handles_node_count_changes() {
        let field = Field::square(200.0);
        let mut grid = SpatialGrid::new(field, 50.0);
        let mut adj = Adjacency::build_with_grid(
            &mut grid,
            &[Point2::new(10.0, 10.0), Point2::new(40.0, 10.0)],
            50.0,
        );
        assert_eq!(adj.node_count(), 2);
        let more = vec![
            Point2::new(10.0, 10.0),
            Point2::new(40.0, 10.0),
            Point2::new(70.0, 10.0),
        ];
        adj.rebuild_with_grid(&mut grid, &more, 50.0);
        assert_eq!(adj.node_count(), 3);
        assert!(adj.is_neighbor(NodeId(1), NodeId(2)));
        assert_csr_invariants(&adj);
    }

    #[test]
    fn parallel_rebuild_matches_serial_reference() {
        let (field, pos) = line3();
        let mut grid = SpatialGrid::new(field, 50.0);
        let serial = Adjacency::build_with_grid(&mut grid, &pos, 50.0);
        let mut grid2 = SpatialGrid::new(field, 50.0);
        let mut plane = PositionPlane::new();
        let mut scratch = KernelScratch::new();
        let mut parallel = Adjacency::with_nodes(pos.len());
        parallel.rebuild_with_grid_parallel(&mut grid2, &mut plane, &pos, 50.0, &mut scratch);
        assert_eq!(serial.canonical_csr(), parallel.canonical_csr());
        assert!(plane.is_coherent(&pos));
        assert!(scratch.stats.lanes > 0, "the kernel must classify lanes");
        assert_csr_invariants(&parallel);
        // empty graphs round-trip too
        let mut empty = Adjacency::default();
        empty.rebuild_with_grid_parallel(&mut grid2, &mut plane, &[], 50.0, &mut scratch);
        assert_eq!(empty.node_count(), 0);
        assert_csr_invariants(&empty);
    }

    #[test]
    fn histogram_slack_base_tracks_degree_spread() {
        // uniform degrees → no spread → historical tight base
        assert_eq!(Adjacency::histogram_slack_base(&[]), 1);
        assert_eq!(Adjacency::histogram_slack_base(&[5; 100]), 1);
        // wide spread (median 0, p95 at 40) → lifted but clamped base
        let mut lens = vec![0u32; 94];
        lens.extend_from_slice(&[40; 6]);
        assert_eq!(Adjacency::histogram_slack_base(&lens), 8);
        // moderate spread → proportional headroom
        let mut lens = vec![8u32; 90];
        lens.extend_from_slice(&[16; 10]);
        assert_eq!(Adjacency::histogram_slack_base(&lens), 3);
    }

    #[test]
    fn canonical_csr_is_layout_independent() {
        let (field, pos) = line3();
        // same logical graph, three different slack layouts
        let fresh = Adjacency::build(field, &pos, 50.0);
        let mut rebuilt = fresh.clone();
        let mut grid = SpatialGrid::new(field, 50.0);
        rebuilt.rebuild_with_grid(&mut grid, &pos, 50.0);
        let mut synthetic = Adjacency::with_nodes(3);
        synthetic.add_edge(NodeId(0), NodeId(1));
        synthetic.add_edge(NodeId(1), NodeId(2));
        assert_eq!(fresh.canonical_csr(), rebuilt.canonical_csr());
        assert_eq!(fresh.canonical_csr(), synthetic.canonical_csr());
        let (offsets, edges) = fresh.canonical_csr();
        assert_eq!(offsets, vec![0, 1, 3, 4]);
        assert_eq!(edges.len(), 4);
    }

    /// Reference O(N²) construction straight from the unit-disk definition.
    fn naive_build(positions: &[Point2], range: f64) -> Vec<Vec<NodeId>> {
        let r_sq = range * range;
        (0..positions.len())
            .map(|i| {
                (0..positions.len())
                    .filter(|&j| j != i && positions[i].dist_sq(positions[j]) <= r_sq)
                    .map(NodeId::from)
                    .collect()
            })
            .collect()
    }

    proptest! {
        /// Grid-accelerated CSR construction is edge-for-edge identical to
        /// the O(N²) definition: same neighbor slice for every node.
        #[test]
        fn prop_build_matches_naive(
            pts in proptest::collection::vec((0.0..710.0f64, 0.0..710.0f64), 1..80),
            range in 10.0..100.0f64,
        ) {
            let field = Field::square(710.0);
            let positions: Vec<Point2> = pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let adj = Adjacency::build(field, &positions, range);
            let naive = naive_build(&positions, range);
            for (i, expect) in naive.iter().enumerate() {
                prop_assert_eq!(
                    adj.neighbors(NodeId::from(i)),
                    &expect[..],
                    "neighbor slice of node {} differs", i
                );
            }
        }

        /// In-place rebuild from moved positions equals a fresh build, and
        /// the CSR invariants hold after every rebuild.
        #[test]
        fn prop_rebuild_equals_fresh_build(
            pts in proptest::collection::vec((0.0..710.0f64, 0.0..710.0f64), 1..60),
            moved in proptest::collection::vec((0.0..710.0f64, 0.0..710.0f64), 1..60),
            range in 10.0..100.0f64,
        ) {
            let field = Field::square(710.0);
            let first: Vec<Point2> = pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let second: Vec<Point2> = moved.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let mut grid = SpatialGrid::new(field, range);
            let mut adj = Adjacency::build_with_grid(&mut grid, &first, range);
            adj.rebuild_with_grid(&mut grid, &second, range);
            let fresh = Adjacency::build(field, &second, range);
            prop_assert_eq!(&adj, &fresh);
            assert_csr_invariants(&adj);
        }

        /// Multi-step mover-driven patching stays bit-identical (canonical
        /// CSR) to a fresh build, across per-step displacement magnitudes
        /// that keep some nodes still (exact mover reports), exercise the
        /// slack/compaction path, node jumps, and the churn fallback into
        /// the parallel rebuild — and the position plane stays coherent
        /// throughout (asserted by the rig after every patch).
        #[test]
        fn prop_patch_equals_fresh_build(
            pts in proptest::collection::vec((0.0..400.0f64, 0.0..400.0f64), 1..60),
            steps in proptest::collection::vec(
                proptest::collection::vec((-80.0..80.0f64, -80.0..80.0f64), 1..60),
                1..5),
            range in 30.0..60.0f64,
        ) {
            let field = Field::square(400.0);
            let mut positions: Vec<Point2> =
                pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let (mut adj, mut rig) = PatchRig::build(field, &positions, range);
            for step in &steps {
                // move an arbitrary subset (small draws mean "stay put",
                // so some nodes never move); report exactly who moved
                let mut movers = Vec::new();
                for (i, &(dx, dy)) in step.iter().cycle().take(positions.len()).enumerate() {
                    if dx.abs() + dy.abs() < 40.0 {
                        continue;
                    }
                    let p = &mut positions[i];
                    let before = *p;
                    p.x = (p.x + dx).clamp(0.0, 400.0);
                    p.y = (p.y + dy).clamp(0.0, 400.0);
                    if *p != before {
                        movers.push(NodeId::from(i));
                    }
                }
                let before = adj.clone();
                let out = rig.patch(&mut adj, &positions, &movers);
                let fresh = Adjacency::build(field, &positions, range);
                prop_assert_eq!(adj.canonical_csr(), fresh.canonical_csr());
                assert_csr_invariants(&adj);
                if let AdjacencyUpdate::Patched { .. } = out {
                    assert_patch_report(&before, &adj, &rig.changed, &rig.scratch);
                }
            }
        }

        /// The edge diff under a noisy report: `moved` is a superset of
        /// the nodes that moved (reported-but-still nodes, duplicates).
        /// Far jumps put both ends of a link among the movers; 1e-3 m
        /// jiggles put link-inert movers beside edited rows. Every
        /// distinct reported node is re-queried, the CSR must equal the
        /// fresh build, and the changed-row report and undo log must be
        /// exact.
        #[test]
        fn prop_active_subset_patch_reports_exactly_the_changed_rows(
            pts in proptest::collection::vec((0.0..300.0f64, 0.0..300.0f64), 2..48),
            steps in proptest::collection::vec(
                proptest::collection::vec(
                    (-90.0..90.0f64, -90.0..90.0f64, 0u8..64), 1..48),
                1..4),
            range in 30.0..60.0f64,
        ) {
            let field = Field::square(300.0);
            let mut positions: Vec<Point2> =
                pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let n = positions.len();
            let (mut adj, mut rig) = PatchRig::build(field, &positions, range);
            for step in &steps {
                // One node in sixteen draws a kind — 0: stay unreported,
                // 1: stay but reported, 2: jiggle, 3: jump — so most
                // reports, duplicates included, fit the patch budget
                let mut moved = Vec::new();
                for (i, &(dx, dy, bits)) in step.iter().cycle().take(n).enumerate() {
                    let kind = if bits < 4 { bits } else { 0 };
                    let scale = [0.0, 0.0, 1e-3, 1.0][kind as usize];
                    let p = &mut positions[i];
                    p.x = (p.x + dx * scale).clamp(0.0, 300.0);
                    p.y = (p.y + dy * scale).clamp(0.0, 300.0);
                    if kind > 0 {
                        moved.push(NodeId::from(i));
                    }
                }
                moved.extend_from_within(..moved.len() / 2);
                let fresh = Adjacency::build(field, &positions, range);
                let mut distinct = moved.clone();
                distinct.sort();
                distinct.dedup();
                let before = adj.clone();
                let out = rig.patch(&mut adj, &positions, &moved);
                prop_assert_eq!(adj.canonical_csr(), fresh.canonical_csr());
                assert_csr_invariants(&adj);
                if let AdjacencyUpdate::Patched { rows_patched, rows_changed, .. } = out {
                    prop_assert_eq!(rows_patched, distinct.len());
                    prop_assert_eq!(rows_changed, rig.changed.len());
                    assert_patch_report(&before, &adj, &rig.changed, &rig.scratch);
                }
            }
        }

        /// Borderline-pair stress: positions dithered within (multiples
        /// of) the f32 error band around `range`, so many pair distances
        /// land where f32 cannot decide. Kernel link decisions must equal
        /// the exact f64 decisions bit for bit, and the borderline lanes
        /// must actually hit the exact-check path.
        #[test]
        fn prop_borderline_pairs_match_exact_decisions(
            seeds in proptest::collection::vec((0usize..40, -400i64..400), 8..40),
            base in 0.0..300.0f64,
        ) {
            let field = Field::square(710.0);
            let range = 50.0;
            // cluster the nodes along a line at spacings dithered within
            // ±4e-6 of the range (≈ the f32 band at these coordinates)
            let positions: Vec<Point2> = seeds.iter().map(|&(k, d)| {
                let dither = d as f64 * 1e-8;
                Point2::new(base + k as f64 * (range / 8.0) + dither, base + range + dither)
            }).collect();
            let mut grid_k = SpatialGrid::new(field, range);
            let mut plane = PositionPlane::new();
            let mut kscratch = KernelScratch::new();
            let mut kernel = Adjacency::with_nodes(positions.len());
            kernel.rebuild_with_grid_parallel(
                &mut grid_k, &mut plane, &positions, range, &mut kscratch);
            let exact = Adjacency::build(field, &positions, range);
            prop_assert_eq!(kernel.canonical_csr(), exact.canonical_csr());
            // the naive O(N²) definition agrees too (belt and braces)
            let r_sq = range * range;
            for (i, &p) in positions.iter().enumerate() {
                let expect: Vec<NodeId> = positions.iter().enumerate()
                    .filter(|&(j, q)| j != i && q.dist_sq(p) <= r_sq)
                    .map(|(j, _)| NodeId::from(j))
                    .collect();
                prop_assert_eq!(kernel.neighbors(NodeId::from(i)), &expect[..]);
            }
        }
    }
}
