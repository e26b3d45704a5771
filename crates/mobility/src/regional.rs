//! Regional composition of mobility models.
//!
//! [`RegionalMobility`] partitions the node id space into contiguous
//! *regions*, each owned by an independent [`MobilityModel`] over its own
//! position sub-slice. It is the one model that overrides the trait's
//! region surface ([`MobilityModel::region_count`] and the three methods
//! beside it; every other model is a single region), which is what a
//! driver schedules by: a region whose model reports a quiescent window
//! ([`MobilityModel::quiescent_for`]) can sleep until the window expires
//! instead of being woken every tick. Because each region owns its RNG
//! stream and a disjoint slice of positions, per-region advances commute —
//! waking regions in any order at the same instant produces the same state
//! — so a schedule that skips still regions is bit-identical to one that
//! wakes every region every tick. Advanced as a whole
//! ([`MobilityModel::advance_reporting`]) the composite is every region
//! stepped in ascending order.

use crate::model::MobilityModel;
use net_topology::geometry::Point2;
use net_topology::node::NodeId;
use sim_core::time::SimDuration;
use std::ops::Range;

/// A partition of the node id space into independently-scheduled regions.
#[derive(Default)]
pub struct RegionalMobility {
    /// Contiguous, gap-free spans: region `r` owns `spans[r]` of the
    /// caller's position slice, with `spans[r].end == spans[r+1].start`.
    spans: Vec<Range<usize>>,
    models: Vec<Box<dyn MobilityModel>>,
    /// Region-local mover report, translated to global ids on the way out.
    scratch: Vec<NodeId>,
}

impl RegionalMobility {
    /// An empty partition; add regions with
    /// [`RegionalMobility::push_region`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a region of `len` nodes governed by `model`. Regions stack:
    /// the new region owns the next `len` node ids after the previous one.
    ///
    /// # Panics
    /// Panics if `len` is zero.
    pub fn push_region(&mut self, len: usize, model: Box<dyn MobilityModel>) {
        assert!(len > 0, "a region must own at least one node");
        let start = self.node_count();
        self.spans.push(start..start + len);
        self.models.push(model);
    }

    /// Total number of nodes across all regions.
    pub fn node_count(&self) -> usize {
        self.spans.last().map_or(0, |s| s.end)
    }

    /// The global id range region `r` owns.
    pub fn region_span(&self, r: usize) -> Range<usize> {
        self.spans[r].clone()
    }
}

impl MobilityModel for RegionalMobility {
    fn advance(&mut self, positions: &mut [Point2], dt: SimDuration) {
        assert_eq!(
            positions.len(),
            self.node_count(),
            "RegionalMobility built for {} nodes",
            self.node_count()
        );
        for (span, model) in self.spans.iter().zip(self.models.iter_mut()) {
            model.advance(&mut positions[span.clone()], dt);
        }
    }

    fn advance_reporting(
        &mut self,
        positions: &mut [Point2],
        dt: SimDuration,
        movers: &mut Vec<NodeId>,
    ) {
        movers.clear();
        // Regions ascend and each reports ascending local ids, so the
        // concatenated global report is ascending too.
        for r in 0..self.models.len() {
            self.advance_region_reporting(r, positions, dt, movers);
        }
    }

    fn name(&self) -> &'static str {
        "regional"
    }

    fn is_static(&self) -> bool {
        self.models.iter().all(|m| m.is_static())
    }

    fn quiescent_for(&self) -> Option<SimDuration> {
        // Still only if every non-static region is still; the composite
        // window is the tightest one.
        let mut min: Option<SimDuration> = None;
        for m in &self.models {
            if m.is_static() {
                continue;
            }
            let q = m.quiescent_for()?;
            min = Some(match min {
                None => q,
                Some(cur) if q < cur => q,
                Some(cur) => cur,
            });
        }
        min
    }

    fn region_count(&self) -> usize {
        self.models.len()
    }

    fn region_is_static(&self, r: usize) -> bool {
        self.models[r].is_static()
    }

    fn region_quiescent_for(&self, r: usize) -> Option<SimDuration> {
        self.models[r].quiescent_for()
    }

    /// The region's sub-slice of `positions` is carved out internally.
    ///
    /// # Panics
    /// Panics if `positions` is not the whole slice the partition covers.
    fn advance_region_reporting(
        &mut self,
        r: usize,
        positions: &mut [Point2],
        dt: SimDuration,
        movers: &mut Vec<NodeId>,
    ) {
        assert_eq!(
            positions.len(),
            self.node_count(),
            "mobility partition must cover the network"
        );
        let span = self.spans[r].clone();
        let RegionalMobility {
            models, scratch, ..
        } = self;
        models[r].advance_reporting(&mut positions[span.clone()], dt, scratch);
        movers.extend(
            scratch
                .iter()
                .map(|id| NodeId::from(span.start + id.index())),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statics::StaticModel;
    use crate::walk::RandomWalk;
    use net_topology::geometry::Field;
    use sim_core::rng::RngStream;

    fn walk(n: usize, seed: u64) -> RandomWalk {
        RandomWalk::new(
            n,
            Field::square(200.0),
            1.0,
            5.0,
            2.0,
            RngStream::seed_from_u64(seed),
        )
    }

    fn dwell_walk(n: usize, pause: f64, seed: u64) -> RandomWalk {
        RandomWalk::new_with_dwell(
            n,
            Field::square(200.0),
            1.0,
            5.0,
            2.0,
            pause,
            RngStream::seed_from_u64(seed),
        )
    }

    #[test]
    fn spans_stack_contiguously() {
        let mut m = RegionalMobility::new();
        m.push_region(3, Box::new(walk(3, 1)));
        m.push_region(5, Box::new(walk(5, 2)));
        assert_eq!(m.region_count(), 2);
        assert_eq!(m.node_count(), 8);
        assert_eq!(m.region_span(0), 0..3);
        assert_eq!(m.region_span(1), 3..8);
        assert_eq!(m.name(), "regional");
        assert!(!m.is_static());
    }

    #[test]
    fn composite_advance_matches_independent_models() {
        // Advancing the composite equals advancing each model on its own
        // sub-slice: the partition adds scheduling structure, not dynamics.
        let mut composite = RegionalMobility::new();
        composite.push_region(4, Box::new(walk(4, 10)));
        composite.push_region(6, Box::new(walk(6, 11)));
        let mut solo_a = walk(4, 10);
        let mut solo_b = walk(6, 11);
        let mut pos = vec![Point2::new(100.0, 100.0); 10];
        let mut pos_solo = pos.clone();
        let mut movers = Vec::new();
        for _ in 0..25 {
            composite.advance_reporting(&mut pos, SimDuration::from_millis(300), &mut movers);
            solo_a.advance(&mut pos_solo[0..4], SimDuration::from_millis(300));
            solo_b.advance(&mut pos_solo[4..10], SimDuration::from_millis(300));
            assert_eq!(pos, pos_solo);
            // everyone walks (v_min > 0), so the global report is 0..10
            let expect: Vec<NodeId> = (0..10usize).map(NodeId::from).collect();
            assert_eq!(movers, expect);
        }
    }

    #[test]
    fn per_region_advance_offsets_movers_to_global_ids() {
        let mut m = RegionalMobility::new();
        m.push_region(3, Box::new(StaticModel));
        m.push_region(4, Box::new(walk(4, 7)));
        let mut pos = vec![Point2::new(50.0, 50.0); 7];
        let mut movers = vec![NodeId::from(0usize)]; // appended to, not cleared
        m.advance_region_reporting(1, &mut pos, SimDuration::from_millis(500), &mut movers);
        assert_eq!(movers[0], NodeId::from(0usize));
        assert!(movers.len() > 1, "walkers must report");
        assert!(movers[1..].iter().all(|id| id.index() >= 3));
        let mut sorted = movers[1..].to_vec();
        sorted.sort();
        assert_eq!(&movers[1..], &sorted[..], "region report must ascend");
    }

    #[test]
    fn static_and_quiescence_queries_are_per_region() {
        let mut m = RegionalMobility::new();
        m.push_region(2, Box::new(StaticModel));
        // pause_prob = 1: every node dwells from the first epoch
        m.push_region(3, Box::new(dwell_walk(3, 1.0, 5)));
        assert!(m.region_is_static(0));
        assert!(!m.region_is_static(1));
        assert_eq!(m.region_quiescent_for(1), Some(SimDuration::from_secs(2)));
        // composite window skips the static region
        assert_eq!(m.quiescent_for(), Some(SimDuration::from_secs(2)));
        // an all-static composite is static
        let mut s = RegionalMobility::new();
        s.push_region(1, Box::new(StaticModel));
        assert!(s.is_static());
    }

    #[test]
    fn walking_region_voids_the_composite_window() {
        let mut m = RegionalMobility::new();
        m.push_region(3, Box::new(dwell_walk(3, 1.0, 5)));
        m.push_region(3, Box::new(walk(3, 6))); // v_min > 0: always walking
        assert_eq!(m.region_quiescent_for(1), None);
        assert_eq!(m.quiescent_for(), None);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_region_panics() {
        RegionalMobility::new().push_region(0, Box::new(StaticModel));
    }
}
