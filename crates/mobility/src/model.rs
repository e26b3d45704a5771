//! The mobility-model abstraction.

use net_topology::geometry::Point2;
use net_topology::node::NodeId;
use sim_core::time::SimDuration;

/// A mobility model advances node positions through virtual time.
///
/// Implementations own all per-node kinematic state (headings, waypoints,
/// pause timers, RNG streams); the *positions themselves* live in a
/// caller-owned slice so the connectivity layer can read them without
/// crossing the trait boundary.
pub trait MobilityModel {
    /// Advance every node by `dt`, updating `positions` in place.
    ///
    /// Implementations must keep every position inside the field they were
    /// configured with, and must behave identically for the same sequence of
    /// calls (determinism).
    fn advance(&mut self, positions: &mut [Point2], dt: SimDuration);

    /// Advance every node by `dt` and report which nodes actually changed
    /// position. `movers` is cleared first; afterwards it holds, in
    /// ascending id order, a *superset* of the nodes whose `positions`
    /// entry differs from before the call (precise implementations report
    /// exactly those nodes).
    ///
    /// The default implementation calls [`MobilityModel::advance`] and
    /// reports every node — always sound, never precise. The models in
    /// this crate override it with exact reports, which is what lets the
    /// downstream topology pipeline (grid re-bucketing, CSR adjacency
    /// patching) do per-tick work proportional to actual motion instead
    /// of N.
    fn advance_reporting(
        &mut self,
        positions: &mut [Point2],
        dt: SimDuration,
        movers: &mut Vec<NodeId>,
    ) {
        self.advance(positions, dt);
        movers.clear();
        movers.extend(NodeId::all(positions.len()));
    }

    /// Short model name for reports (e.g. `"random-waypoint"`).
    fn name(&self) -> &'static str;

    /// Is this model actually static? Lets simulations skip connectivity
    /// rebuilds. Defaults to `false`.
    fn is_static(&self) -> bool {
        false
    }

    /// How long the model is *exactly still* from now, if it is.
    ///
    /// `Some(d)` is a hard determinism contract the event-driven driver
    /// relies on to skip wake-ups:
    ///
    /// * no position changes and no internal randomness is consumed until
    ///   at least `d` of virtual time has elapsed, and
    /// * advancing by steps `s₁…sₖ` (sum `S`) produces bit-identical
    ///   positions, internal state, and mover reports as one `advance(S)`
    ///   whenever every intermediate boundary `s₁+…+sᵢ` (`i < k`) lies
    ///   strictly before `d` — i.e. any subdivision whose interior stays
    ///   inside the still window is equivalent to the single big step.
    ///
    /// `None` means "assume motion is possible immediately" and is always
    /// sound; it is the default.
    fn quiescent_for(&self) -> Option<SimDuration> {
        None
    }

    /// Number of independently schedulable *regions*: contiguous id spans
    /// with their own kinematic state and randomness, so that per-region
    /// advances at one instant commute. A plain model is one region — the
    /// default of this and the three methods below;
    /// [`crate::regional::RegionalMobility`] overrides all four.
    fn region_count(&self) -> usize {
        1
    }

    /// Whether region `r` is static (never needs waking).
    fn region_is_static(&self, _r: usize) -> bool {
        self.is_static()
    }

    /// Region `r`'s quiescent window, if any (see
    /// [`MobilityModel::quiescent_for`]).
    fn region_quiescent_for(&self, _r: usize) -> Option<SimDuration> {
        self.quiescent_for()
    }

    /// Advance only region `r` by `dt`, *appending* its movers to `movers`
    /// as global node ids (ascending within the region). `positions` is the
    /// full global slice.
    ///
    /// # Panics
    /// Panics if `r` is not a region of this model.
    fn advance_region_reporting(
        &mut self,
        r: usize,
        positions: &mut [Point2],
        dt: SimDuration,
        movers: &mut Vec<NodeId>,
    ) {
        assert_eq!(r, 0, "a plain model is one region");
        // `advance_reporting` clears its output, so what `movers` held is
        // set aside (nothing, hence no allocation, when region 0 reports
        // first — as under a driver) and put back in front.
        let held = movers.to_vec();
        self.advance_reporting(positions, dt, movers);
        movers.splice(0..0, held);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl MobilityModel for Nop {
        fn advance(&mut self, _positions: &mut [Point2], _dt: SimDuration) {}
        fn name(&self) -> &'static str {
            "nop"
        }
    }

    #[test]
    fn default_is_not_static() {
        assert!(!Nop.is_static());
        assert_eq!(Nop.name(), "nop");
    }

    #[test]
    fn trait_objects_work() {
        let mut m: Box<dyn MobilityModel> = Box::new(Nop);
        let mut pos = vec![Point2::new(1.0, 2.0)];
        m.advance(&mut pos, SimDuration::from_secs(1));
        assert_eq!(pos[0], Point2::new(1.0, 2.0));
    }

    #[test]
    fn default_reporting_reports_every_node() {
        // The default is a sound over-approximation: all nodes, sorted.
        let mut m = Nop;
        let mut pos = vec![Point2::ORIGIN; 4];
        let mut movers = vec![NodeId::new(99)]; // stale content must be cleared
        m.advance_reporting(&mut pos, SimDuration::from_secs(1), &mut movers);
        let expect: Vec<NodeId> = NodeId::all(4).collect();
        assert_eq!(movers, expect);
        // The default region surface is that same model as region 0, its
        // report appended rather than replacing.
        assert_eq!(m.region_count(), 1);
        assert!(!m.region_is_static(0));
        assert_eq!(m.region_quiescent_for(0), None);
        let mut appended = vec![NodeId::new(99)];
        m.advance_region_reporting(0, &mut pos, SimDuration::from_secs(1), &mut appended);
        assert_eq!(appended[0], NodeId::new(99));
        assert_eq!(appended[1..], expect[..]);
    }
}
