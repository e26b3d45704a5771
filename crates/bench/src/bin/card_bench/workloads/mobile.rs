//! `mobile_calm` and `mobile_hostile`: the whole pipeline under the event
//! driver — regional mobility with event skipping, the mover-driven patch
//! path, validation with local recovery, single-query arrivals against the
//! hint cache and standing revalidation together. `mobile_hostile` is
//! `mobile_calm` with a fault plan armed, so the difference between the two
//! is the fault stage, tombstones and the retry queue.

use std::time::Instant;

use card_core::{Arrival, CardWorld, DriveMode, DriveReport, EventDriver};
use mobility::model::MobilityModel;
use mobility::walk::RandomWalk;
use mobility::RegionalMobility;
use sim_core::faults::FaultPlan;
use sim_core::rng::SeedSplitter;
use sim_core::stats::MsgKind;
use sim_core::time::SimDuration;

use super::{
    fill_faults, fill_hints_and_plane, fill_maintenance, fill_network, fill_selection,
    fill_tick_spans, prepare_world, probe_single_queries, ratio, Finish, QueryFacts, RunCfg, Shape,
    Tally, Workload, TICK, VALIDATION_PERIOD_S,
};
use crate::digest::Digest;
use crate::gen::{self, Pair, Rng};
use crate::stats::{mean, percentile};
use crate::trace::Tracer;

/// Nodes per mobility region; every `ACTIVE_EVERY`-th region walks and
/// dwells, the rest are near-still, so most region-ticks can be skipped.
const REGION_NODES: usize = 32;
const ACTIVE_EVERY: usize = 5;

pub struct Mobile<const HOSTILE: bool> {
    seed: u64,
    /// Selected, hints enabled and empty, at simulated time zero.
    base: CardWorld,
    pool: Vec<Pair>,
    arrivals: Vec<Arrival>,
    plan: Option<FaultPlan>,
    rounds: u32,
    last: Option<(CardWorld, RegionalMobility, DriveReport)>,
}

pub type Calm = Mobile<false>;
pub type Hostile = Mobile<true>;

fn partition(world: &CardWorld, seed: u64) -> RegionalMobility {
    let n = world.network().node_count();
    let field = world.network().field();
    let splitter = SeedSplitter::new(seed);
    let mut model = RegionalMobility::new();
    for (r, start) in (0..n).step_by(REGION_NODES).enumerate() {
        let len = REGION_NODES.min(n - start);
        let (epoch_s, pause) = if r % ACTIVE_EVERY == 0 {
            (10.0, 0.5)
        } else {
            (60.0, 0.9999)
        };
        let rng = splitter.stream("card-bench-region", r as u64);
        model.push_region(
            len,
            Box::new(RandomWalk::new_with_dwell(
                len, field, 0.5, 2.0, epoch_s, pause, rng,
            )),
        );
    }
    model
}

impl<const HOSTILE: bool> Mobile<HOSTILE> {
    fn sim_secs(&self) -> u64 {
        u64::from(self.rounds) * VALIDATION_PERIOD_S
    }
}

impl<const HOSTILE: bool> Workload for Mobile<HOSTILE> {
    const NAME: &'static str = if HOSTILE {
        "mobile_hostile"
    } else {
        "mobile_calm"
    };
    const RATE: &'static str = "wall_ms_per_sim_s";

    fn setup(cfg: &RunCfg, shape: &Shape, tr: &mut Tracer) -> Self {
        let mut p = prepare_world(shape.mobile_nodes, cfg, shape, tr);
        p.world.set_hints_enabled(true);
        let sim_secs = u64::from(shape.mobile_rounds) * VALIDATION_PERIOD_S;
        let arrivals = gen::arrivals(
            &p.popular,
            sim_secs,
            shape.standing,
            shape.arrivals_per_sim_s,
            &mut Rng::new(cfg.seed, "arrivals"),
        );
        Mobile {
            seed: cfg.seed,
            plan: HOSTILE
                .then(|| gen::fault_plan(shape.mobile_nodes, shape.mobile_rounds, cfg.seed)),
            base: p.world,
            pool: p.popular,
            arrivals,
            rounds: shape.mobile_rounds,
            last: None,
        }
    }

    fn sizes(&self) -> String {
        format!(
            "N={} unit={} simulated s in {} segments, {} arrivals, {}-node regions{}",
            self.base.network().node_count(),
            self.sim_secs(),
            self.rounds,
            self.arrivals.len(),
            REGION_NODES,
            if HOSTILE { ", fault plan armed" } else { "" }
        )
    }

    fn op(&self) -> (&'static str, u64) {
        ("simulated s", self.sim_secs())
    }

    fn unit(&mut self, tr: &mut Tracer) -> (f64, u64) {
        self.last = None; // before cloning, so two worlds are alive at most
        let mut world = self.base.clone();
        if let Some(plan) = &self.plan {
            world.enable_faults(plan.clone());
        }
        let mut model = partition(&world, self.seed);
        let mut driver = EventDriver::new(&world, &model, DriveMode::Event, self.arrivals.clone());
        let period = SimDuration::from_secs(VALIDATION_PERIOD_S);
        tr.next_unit();
        let t0 = Instant::now();
        let unit = tr.begin("unit");
        for _ in 0..self.rounds {
            tr.span("events.drive", || {
                driver.drive(&mut world, &mut model, period)
            });
        }
        tr.end(unit);
        let wall = t0.elapsed().as_secs_f64();
        let report = driver.report().clone();
        let mut d = Digest::new();
        d.world(&world);
        d.outcomes(&report.outcomes);
        self.last = Some((world, model, report));
        (wall, d.finish())
    }

    fn finish(&mut self, shape: &Shape, tr: &mut Tracer, fin: &mut Finish) {
        let sim_secs = self.sim_secs();
        let (world, model, report) = self.last.as_mut().expect("a unit ran");
        let rounds = report.validation_rounds;

        // Every protocol message of one simulated second of the network:
        // maintenance, re-selection, queries and standing upkeep.
        let msgs = world.stats().grand_total() - self.base.stats().grand_total();
        fin.sim_cost_per_op = ratio(msgs, sim_secs);
        let facts = QueryFacts::of(&report.outcomes);
        fin.success_share = ratio(facts.found, facts.queries);
        fin.report("msgs_per_query", ratio(facts.msgs, facts.queries));
        fin.report(
            "maintenance_msgs_per_node_s",
            ratio(
                world.stats().total_where(MsgKind::is_maintenance),
                world.network().node_count() as u64 * sim_secs,
            ),
        );
        fin.report("resolved_share", fin.success_share);

        fin.must_be_zero("events.audit_violations", report.audit_violations);
        fin.check(
            "every_arrival_executed",
            report.arrivals == self.arrivals.len() as u64,
            format!("{} of {}", report.arrivals, self.arrivals.len()),
        );
        fill_hints_and_plane(world, facts.queries, fin);
        fill_faults(world, HOSTILE, fin);

        let layers = &mut fin.layers;
        fill_selection(world, tr, layers);
        fill_maintenance(world, rounds, layers);
        facts.fill(layers);
        let region_ticks = report.region_wakes + report.region_ticks_skipped;
        let per_sim_s = |v: u64| ratio(v, sim_secs);
        layers.set(
            "events.processed_per_sim_s",
            per_sim_s(report.events_processed),
        );
        layers.set(
            "events.region_wakes_per_sim_s",
            per_sim_s(report.region_wakes),
        );
        layers.set(
            "events.ticks_skipped_share",
            ratio(report.region_ticks_skipped, region_ticks),
        );
        layers.set("events.refreshes", report.refreshes as f64);
        layers.set("events.validation_rounds", rounds as f64);
        layers.set("events.arrivals", report.arrivals as f64);
        layers.set("events.audit_violations", report.audit_violations as f64);
        let ss = world.standing_queries().stats().clone();
        layers.set("standing.breaks", ss.breaks as f64);
        layers.set("standing.reresolved", ss.reresolved as f64);
        layers.set("standing.revalidations", ss.revalidations as f64);
        layers.set("standing.broken_sim_s", ss.broken_ticks as f64 / 1e6);

        if !tr.on() {
            return;
        }
        let standing_msgs = world.stats().total_where(MsgKind::is_standing);
        let segments = tr.ms_of("events.drive");
        layers.set("events.segment_ms_p50", percentile(&segments, 0.5));
        layers.set("events.segment_ms_p90", percentile(&segments, 0.9));
        let unit_ms = mean(&tr.ms_of("unit"));

        // Post-run probes price one call of each layer on the world the
        // drive left behind: ticks on a copy of its network (the driver's
        // own mobility hooks are crate-private), then rounds and queries.
        let mut net = world.network().clone();
        let mut movers = Vec::new();
        let mut tally = Tally::default();
        for _ in 0..shape.probe_ticks {
            tr.span("mobility.advance", || {
                model.advance_reporting(net.positions_mut(), TICK, &mut movers)
            });
            tr.span("network.refresh", || net.refresh_movers(&movers));
            tally.add(net.pipeline_counters());
        }
        for _ in 0..shape.probe_rounds {
            tr.span("maintenance.probe_round", || world.validation_round());
        }
        probe_single_queries(world, &self.pool, shape.probe_queries, tr);

        let layers = &mut fin.layers;
        tally.fill(layers);
        fill_tick_spans(tr, layers);
        fill_network(&net, tr, layers);
        let round_ms = mean(&tr.ms_of("maintenance.probe_round"));
        let single_us = mean(&tr.ms_of("query.single")) * 1e3;
        layers.set("maintenance.probe_round_ms", round_ms);
        layers.set("query.single_us", single_us);

        // Unit cost x count per layer against the measured unit; what is
        // left over is advance + event-queue + standing upkeep + skew.
        let refresh_ms = layers.get("network.refresh_ms_per_tick") * report.refreshes as f64;
        let rounds_ms = round_ms * rounds as f64;
        let queries_ms = single_us * facts.queries as f64 / 1e3;
        let explained = refresh_ms + rounds_ms + queries_ms;
        fin.notes.push(format!(
            "unit {unit_ms:.1} ms ~ refresh {refresh_ms:.1} + rounds {rounds_ms:.1} + queries {queries_ms:.1} \
             = {explained:.1} ms; unexplained remainder {:.1} ms ({:.0}%); standing upkeep sent {standing_msgs} msgs",
            unit_ms - explained,
            100.0 * (unit_ms - explained) / unit_ms.max(1e-9),
        ));
    }
}
