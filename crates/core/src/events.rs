//! The event-driven simulation core: the one clock that steps a world.
//!
//! [`EventDriver`] owns the only [`Engine`] that advances a [`CardWorld`]
//! through virtual time; [`CardWorld::run_mobile`] is one `drive` of a
//! fresh driver over an empty workload. It schedules any
//! [`MobilityModel`] by the trait's region surface — a plain model is one
//! region, a [`mobility::regional::RegionalMobility`] partition is many.
//! Three event kinds drive everything:
//!
//! * **Regional mobility wake-ups** — each non-static region is woken on
//!   the global tick lattice (`base + k · mobility_tick`) and advanced by
//!   exactly the virtual time since its own last wake; all wakes of an
//!   instant fold into one [`CardWorld::event_mobility_refresh`]. In
//!   [`DriveMode::Event`] — the production schedule — a region whose
//!   model reports a quiescent window
//!   ([`MobilityModel::quiescent_for`]) sleeps through
//!   `ceil(window / tick)` ticks and is advanced by the whole span in one
//!   step at the wake where motion first becomes possible. In
//!   [`DriveMode::Tick`] every region wakes every tick — the oracle
//!   schedule the differential harnesses compare against.
//! * **Validation rounds** — [`CardWorld::validation_round`] on the
//!   `base + 1 µs + m · validation_period` lattice: the first round
//!   effectively at the start (selection begins immediately), the 1 µs
//!   offset so a coincident mobility update applies first.
//! * **Workload arrivals** — queries and standing-query registrations at
//!   pre-declared offsets, executed over the live world.
//!
//! ## Determinism contract
//!
//! The two drive modes are **bit-identical** at every synchronization
//! instant — canonical CSR, neighborhood and contact tables, message
//! statistics, standing-query state (`tests/event_equivalence.rs` pins
//! this). The load-bearing facts:
//!
//! * Skipped wakes are observational no-ops: inside a quiescent window the
//!   tick schedule performs pure integer dwell-timer decrements — no
//!   position changes, no RNG draws, no dirty nodes — so eliding those
//!   region-ticks (and their empty refreshes) leaves every observable
//!   equal. The subdivision contract of `quiescent_for` makes the one big
//!   `advance` land epoch expiries on the same instants with the same
//!   integer residuals and the same node-order RNG draws as the many
//!   small ones.
//! * Coincident events order identically in both modes. Arrivals are
//!   scheduled first at construction, so the queue's FIFO tie-break
//!   delivers them ahead of any wake or round at the same instant; all
//!   wakes at one instant are drained together, advanced in ascending
//!   region order (per-region advances commute — disjoint position spans
//!   and RNG streams), and folded into a *single* refresh, exactly like a
//!   whole-network advance.
//! * Wake and validation instants never collide: the constructor rejects
//!   configurations where the `1 µs`-offset validation lattice can
//!   intersect the tick lattice (`gcd(tick, period)` must exceed 1 µs).
//! * The sampled grid audit (a rotating cursor) runs only on refreshes
//!   that reported movers, so both modes advance the cursor identically.
//! * Fault injection rides the ValidationRound lattice: an armed
//!   `sim_core::faults` plan is applied inside
//!   [`CardWorld::validation_round`] itself (crashes, rejoins, partition
//!   windows — see the world module's fault section), so either schedule
//!   and a hand-stepped world replay one fault history by construction;
//!   no separate fault event kind exists.
//!
//! At the end of each `drive` segment, regions still asleep are brought
//! forward to the last tick-lattice instant before the horizon (a pure
//! dwell decrement, asserted mover-free in debug builds), so both modes
//! hand identical model state to whatever runs next.

use mobility::model::MobilityModel;
use net_topology::node::NodeId;
use sim_core::engine::Engine;
use sim_core::time::{SimDuration, SimTime};

use crate::query::QueryOutcome;
use crate::world::CardWorld;

/// Events of the event-driven pipeline.
#[derive(Clone, Debug)]
enum CardEvent {
    /// Advance one mobility region (all wakes at an instant are drained
    /// and folded into one refresh).
    MobilityWake {
        /// Region index into the model's partition.
        region: u32,
    },
    /// Validate contacts and recheck standing queries.
    ValidationRound,
    /// Execute workload entry `index`.
    Arrival { index: u32 },
}

/// How the driver schedules regional mobility.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriveMode {
    /// Wake every non-static region every tick — the oracle schedule
    /// `event_equivalence.rs` / `fault_injection.rs` compare against.
    Tick,
    /// Let quiescent regions sleep through their still windows; wakes are
    /// elided, not merely cheap. What [`CardWorld::run_mobile`] and every
    /// benchmark and scale tier run.
    Event,
}

/// What happens when a workload arrival fires.
#[derive(Clone, Copy, Debug)]
pub enum ArrivalKind {
    /// A one-shot query ([`CardWorld::query`]); its outcome is appended to
    /// [`DriveReport::outcomes`].
    Query {
        /// Querying node.
        source: NodeId,
        /// Node searched for.
        target: NodeId,
    },
    /// A standing-query registration ([`CardWorld::standing_register`]);
    /// its id is appended to [`DriveReport::standing_registered`].
    Standing {
        /// Subscribing node.
        source: NodeId,
        /// Node the subscription tracks.
        target: NodeId,
    },
}

/// One scheduled workload entry.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Offset from the driver's construction instant.
    pub at: SimDuration,
    /// What to execute.
    pub kind: ArrivalKind,
}

/// Counters and outcomes accumulated across `drive` calls.
///
/// The world state the two drive modes produce is bit-identical, and so
/// are `outcomes`, `standing_registered`, `validation_rounds` and
/// `arrivals`; the *scheduling* counters (`events_processed`,
/// `region_wakes`, `region_ticks_skipped`, `refreshes`) measure how much
/// work each mode actually performed and differ by design.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DriveReport {
    /// Events delivered by the engine.
    pub events_processed: u64,
    /// Regional advances performed at wake-ups.
    pub region_wakes: u64,
    /// Region-ticks covered without a wake (quiescence skips and
    /// end-of-segment catch-up).
    pub region_ticks_skipped: u64,
    /// Topology refreshes performed.
    pub refreshes: u64,
    /// Validation rounds performed.
    pub validation_rounds: u64,
    /// Workload arrivals executed.
    pub arrivals: u64,
    /// Grid-residency violations found by the sampled audit (0 in a
    /// healthy pipeline).
    pub audit_violations: u64,
    /// Outcomes of [`ArrivalKind::Query`] arrivals, in arrival order.
    pub outcomes: Vec<QueryOutcome>,
    /// Ids returned by [`ArrivalKind::Standing`] arrivals, in arrival
    /// order.
    pub standing_registered: Vec<u32>,
}

/// The event-driven pipeline driver (see the module docs).
pub struct EventDriver {
    mode: DriveMode,
    engine: Engine<CardEvent>,
    /// Construction instant — origin of the tick lattice.
    base: SimTime,
    /// End of the last `drive` segment.
    cursor: SimTime,
    /// Per-region instant of the last advance.
    region_last: Vec<SimTime>,
    workload: Vec<Arrival>,
    /// Scratch: regions due at the instant being handled.
    due: Vec<u32>,
    /// Scratch: global mover report of the instant being handled.
    movers: Vec<NodeId>,
    report: DriveReport,
}

/// Nodes sampled by the grid-residency audit on each mover-bearing refresh.
const AUDIT_SAMPLES: usize = 8;

impl EventDriver {
    /// Build a driver over `world` and the regions of `model`, scheduling
    /// `workload` relative to the world's current instant. The same
    /// `model` must be passed to every subsequent [`EventDriver::drive`].
    ///
    /// # Panics
    /// Panics if the tick and validation lattices can collide
    /// (`gcd(mobility_tick, validation_period)` must exceed 1 µs —
    /// satisfied whenever the tick divides the period and is at least
    /// 2 µs, as with the defaults).
    pub fn new<M: MobilityModel + ?Sized>(
        world: &CardWorld,
        model: &M,
        mode: DriveMode,
        workload: Vec<Arrival>,
    ) -> Self {
        let tick = world.config().mobility_tick;
        let period = world.config().validation_period;
        assert!(
            gcd(tick.ticks(), period.ticks()) > 1,
            "tick ({tick:?}) and validation ({period:?}) lattices may collide: \
             their 1 µs-offset schedules need gcd > 1 µs to stay disjoint"
        );
        let base = world.now();
        let mut engine: Engine<CardEvent> = Engine::with_horizon(base);
        // Arrivals first: their FIFO sequence numbers precede every wake
        // and round ever scheduled, so coincident arrivals apply before
        // motion and validation — identically in both modes.
        for (i, a) in workload.iter().enumerate() {
            engine.schedule_at(base + a.at, CardEvent::Arrival { index: i as u32 });
        }
        for r in 0..model.region_count() {
            if !model.region_is_static(r) {
                engine.schedule_at(base + tick, CardEvent::MobilityWake { region: r as u32 });
            }
        }
        engine.schedule_at(
            base + SimDuration::from_micros(1),
            CardEvent::ValidationRound,
        );
        EventDriver {
            mode,
            engine,
            base,
            cursor: base,
            region_last: vec![base; model.region_count()],
            workload,
            due: Vec::new(),
            movers: Vec::new(),
            report: DriveReport::default(),
        }
    }

    /// The drive mode.
    pub fn mode(&self) -> DriveMode {
        self.mode
    }

    /// Accumulated counters and outcomes.
    pub fn report(&self) -> &DriveReport {
        &self.report
    }

    /// Advance the world by `duration` of virtual time, delivering every
    /// event strictly before the new horizon. Segments stack: driving
    /// twice for `d` equals driving once for `2 d`.
    ///
    /// # Panics
    /// Panics at the first wake if `model` does not cover the world's
    /// nodes ("mobility partition must cover the network" for a regional
    /// partition; each plain model names its own node count).
    pub fn drive<M: MobilityModel + ?Sized>(
        &mut self,
        world: &mut CardWorld,
        model: &mut M,
        duration: SimDuration,
    ) {
        let tick = world.config().mobility_tick;
        let end = self.cursor + duration;
        self.engine.set_horizon(end);
        while let Some((t, ev)) = self.engine.next_event() {
            world.set_now(t);
            self.report.events_processed += 1;
            match ev {
                CardEvent::MobilityWake { region } => {
                    self.handle_wakes(world, model, t, region, tick);
                }
                CardEvent::ValidationRound => {
                    world.validation_round();
                    self.report.validation_rounds += 1;
                    self.engine
                        .schedule_in(world.config().validation_period, CardEvent::ValidationRound);
                }
                CardEvent::Arrival { index } => {
                    self.report.arrivals += 1;
                    match self.workload[index as usize].kind {
                        ArrivalKind::Query { source, target } => {
                            let out = world.query(source, target);
                            self.report.outcomes.push(out);
                        }
                        ArrivalKind::Standing { source, target } => {
                            let id = world.standing_register(source, target);
                            self.report.standing_registered.push(id);
                        }
                    }
                }
            }
        }
        self.finalize_segment(world, model, end, tick);
    }

    /// Handle every wake due at instant `t`: drain coincident wakes (the
    /// FIFO tie-break guarantees no arrival can still be queued at `t`,
    /// and the lattice assertion keeps rounds off tick instants), advance
    /// the due regions in ascending order, then fold the union mover
    /// report into one refresh per instant.
    fn handle_wakes<M: MobilityModel + ?Sized>(
        &mut self,
        world: &mut CardWorld,
        model: &mut M,
        t: SimTime,
        first: u32,
        tick: SimDuration,
    ) {
        self.due.clear();
        self.due.push(first);
        loop {
            let next = match self.engine.peek() {
                Some((pt, CardEvent::MobilityWake { region })) if pt == t => *region,
                _ => break,
            };
            let popped = self.engine.next_event();
            debug_assert!(popped.is_some(), "peeked event must pop");
            self.report.events_processed += 1;
            self.due.push(next);
        }
        // Ascending region order: advances commute, but a fixed order keeps
        // the mover union sorted (regions are contiguous ascending spans).
        self.due.sort_unstable();
        self.movers.clear();
        for i in 0..self.due.len() {
            let r = self.due[i] as usize;
            self.report.region_wakes += 1;
            let dt = t.since(self.region_last[r]);
            debug_assert_eq!(
                dt.ticks() % tick.ticks(),
                0,
                "wakes live on the tick lattice"
            );
            self.report.region_ticks_skipped += dt.ticks() / tick.ticks() - 1;
            model.advance_region_reporting(r, world.positions_mut(), dt, &mut self.movers);
            self.region_last[r] = t;
            let sleep = match self.mode {
                DriveMode::Tick => tick,
                DriveMode::Event => match model.region_quiescent_for(r) {
                    // Motion first becomes possible at offset `q`; the
                    // first tick instant not strictly inside the still
                    // window is ceil(q / tick) ticks out, and everything
                    // before it is a pure dwell decrement.
                    Some(q) => tick * q.ticks().div_ceil(tick.ticks()).max(1),
                    None => tick,
                },
            };
            self.engine
                .schedule_in(sleep, CardEvent::MobilityWake { region: r as u32 });
        }
        debug_assert!(
            self.movers.windows(2).all(|w| w[0] < w[1]),
            "mover union must ascend"
        );
        self.report.refreshes += 1;
        self.report.audit_violations +=
            world.event_mobility_refresh(&self.movers, AUDIT_SAMPLES) as u64;
    }

    /// Bring every lagging region forward to the last tick-lattice instant
    /// strictly before `end`, so both modes end the segment with identical
    /// model state. The caught-up span lies inside a quiescent window (the
    /// region's next wake is at or past `end`), so the advance is a pure
    /// dwell decrement — asserted mover-free in debug builds.
    fn finalize_segment<M: MobilityModel + ?Sized>(
        &mut self,
        world: &mut CardWorld,
        model: &mut M,
        end: SimTime,
        tick: SimDuration,
    ) {
        let elapsed = end.since(self.base);
        if !elapsed.is_zero() {
            let k = (elapsed.ticks() - 1) / tick.ticks();
            let t_last = self.base + tick * k;
            for r in 0..model.region_count() {
                if model.region_is_static(r) || self.region_last[r] >= t_last {
                    continue;
                }
                let dt = t_last.since(self.region_last[r]);
                self.report.region_ticks_skipped += dt.ticks() / tick.ticks();
                self.movers.clear();
                model.advance_region_reporting(r, world.positions_mut(), dt, &mut self.movers);
                debug_assert!(
                    self.movers.is_empty(),
                    "end-of-segment catch-up crossed a motion instant"
                );
                self.region_last[r] = t_last;
            }
        }
        world.set_now(end);
        self.cursor = end;
    }
}

/// Greatest common divisor (Euclid).
fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CardConfig;
    use mobility::regional::RegionalMobility;
    use mobility::statics::StaticModel;
    use mobility::walk::RandomWalk;
    use mobility::waypoint::RandomWaypoint;
    use net_topology::scenario::Scenario;
    use sim_core::rng::SeedSplitter;

    fn scenario() -> Scenario {
        Scenario::new(120, 450.0, 450.0, 60.0)
    }

    fn cfg() -> CardConfig {
        CardConfig::default()
            .with_radius(2)
            .with_max_contact_distance(8)
            .with_target_contacts(4)
            .with_seed(33)
    }

    fn world() -> CardWorld {
        let mut w = CardWorld::build(&scenario(), cfg());
        w.select_all_contacts();
        w
    }

    fn dwell_region(
        n: usize,
        pause: f64,
        seed: u64,
        field: net_topology::geometry::Field,
    ) -> RandomWalk {
        RandomWalk::new_with_dwell(
            n,
            field,
            0.5,
            2.0,
            2.0,
            pause,
            SeedSplitter::new(seed).stream("mobility", 0),
        )
    }

    fn partition(w: &CardWorld, pause: f64) -> RegionalMobility {
        let n = w.network().node_count();
        let field = w.network().field();
        let mut m = RegionalMobility::new();
        m.push_region(n / 2, Box::new(dwell_region(n / 2, pause, 5, field)));
        m.push_region(
            n - n / 2,
            Box::new(dwell_region(n - n / 2, pause, 6, field)),
        );
        m
    }

    #[test]
    fn event_mode_skips_wakes_under_heavy_dwell() {
        let mut tick_world = world();
        let mut tick_model = partition(&tick_world, 0.98);
        let mut tick_driver =
            EventDriver::new(&tick_world, &tick_model, DriveMode::Tick, Vec::new());
        tick_driver.drive(&mut tick_world, &mut tick_model, SimDuration::from_secs(4));

        let mut ev_world = world();
        let mut ev_model = partition(&ev_world, 0.98);
        let mut ev_driver = EventDriver::new(&ev_world, &ev_model, DriveMode::Event, Vec::new());
        ev_driver.drive(&mut ev_world, &mut ev_model, SimDuration::from_secs(4));

        assert_eq!(ev_world.fingerprint().diff(&tick_world.fingerprint()), None);
        assert!(
            ev_driver.report().events_processed <= tick_driver.report().events_processed,
            "event mode may not deliver more events than the tick reference"
        );
    }

    #[test]
    fn arrivals_execute_in_declared_order_and_feed_the_report() {
        let mut w = world();
        let mut model = RegionalMobility::new();
        model.push_region(w.network().node_count(), Box::new(StaticModel));
        let workload = vec![
            Arrival {
                at: SimDuration::from_millis(250),
                kind: ArrivalKind::Query {
                    source: NodeId::new(0),
                    target: NodeId::new(90),
                },
            },
            Arrival {
                at: SimDuration::from_millis(250),
                kind: ArrivalKind::Standing {
                    source: NodeId::new(1),
                    target: NodeId::new(80),
                },
            },
            Arrival {
                at: SimDuration::from_millis(900),
                kind: ArrivalKind::Query {
                    source: NodeId::new(2),
                    target: NodeId::new(70),
                },
            },
        ];
        let mut driver = EventDriver::new(&w, &model, DriveMode::Event, workload);
        driver.drive(&mut w, &mut model, SimDuration::from_secs(2));
        let report = driver.report();
        assert_eq!(report.arrivals, 3);
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.standing_registered, vec![0]);
        assert_eq!(w.standing_queries().len(), 1);
        assert_eq!(w.standing_queries().stats().registered, 1);
        assert_eq!(report.validation_rounds, 2);
    }

    #[test]
    fn segments_stack_like_one_long_drive() {
        let start = world();
        let run = |mode: DriveMode, model: &mut dyn MobilityModel, chunks: &[u64]| {
            let mut w = start.clone();
            let mut driver = EventDriver::new(&w, model, mode, Vec::new());
            for &ms in chunks {
                driver.drive(&mut w, model, SimDuration::from_millis(ms));
            }
            w.fingerprint()
        };
        // A regional partition with skippable dwell windows, or a plain
        // model scheduled as one region (what `run_mobile` is handed).
        let model = |regional: bool| -> Box<dyn MobilityModel> {
            if regional {
                return Box::new(partition(&start, 0.9));
            }
            let rng = SeedSplitter::new(7).stream("mobility", 0);
            let field = start.network().field();
            Box::new(RandomWaypoint::new(120, field, 5.0, 10.0, 0.5, rng))
        };
        for regional in [true, false] {
            for mode in [DriveMode::Event, DriveMode::Tick] {
                // 3 s in one go vs awkward non-lattice splits, and vs
                // per-second segments ending exactly on a tick instant (the
                // seam a fresh schedule per segment would drop a tick at).
                let whole = run(mode, model(regional).as_mut(), &[3000]);
                for chunks in [&[1250, 50, 1700], &[1000, 1000, 1000]] {
                    let split = run(mode, model(regional).as_mut(), chunks);
                    assert_eq!(split.diff(&whole), None, "{mode:?} {chunks:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lattices may collide")]
    fn colliding_lattices_rejected() {
        let mut config = cfg();
        config.mobility_tick = SimDuration::from_micros(100_000);
        config.validation_period = SimDuration::from_micros(99_999);
        let w = CardWorld::build(&scenario(), config);
        let mut m = RegionalMobility::new();
        m.push_region(w.network().node_count(), Box::new(StaticModel));
        let _ = EventDriver::new(&w, &m, DriveMode::Event, Vec::new());
    }

    #[test]
    #[should_panic(expected = "must cover the network")]
    fn short_partition_rejected_at_its_first_wake() {
        let mut w = world();
        let mut m = RegionalMobility::new();
        let field = w.network().field();
        m.push_region(60, Box::new(dwell_region(60, 0.5, 5, field)));
        let mut driver = EventDriver::new(&w, &m, DriveMode::Event, Vec::new());
        driver.drive(&mut w, &mut m, SimDuration::from_secs(1));
    }

    #[test]
    fn static_partition_never_wakes() {
        let mut w = world();
        let mut m = RegionalMobility::new();
        m.push_region(w.network().node_count(), Box::new(StaticModel));
        let mut driver = EventDriver::new(&w, &m, DriveMode::Event, Vec::new());
        driver.drive(&mut w, &mut m, SimDuration::from_secs(2));
        assert_eq!(driver.report().region_wakes, 0);
        assert_eq!(driver.report().refreshes, 0);
        assert_eq!(driver.report().validation_rounds, 2);
        assert_eq!(w.now(), SimTime::from_secs(2));
    }
}
