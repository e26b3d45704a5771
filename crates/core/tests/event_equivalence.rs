//! Differential harness pinning the production schedule to its oracle.
//!
//! Two identical worlds are driven through the same virtual timeline and
//! the same workload by the one `EventDriver` — one under the
//! [`DriveMode::Tick`] schedule (every region wakes every tick: the
//! oracle, run nowhere else), one under [`DriveMode::Event`] (quiescent
//! regions sleep through their still windows: what `run_mobile`, the
//! benchmark and the scale tiers run). At every synchronization instant
//! (each `drive` segment boundary) the two worlds must be
//! **bit-identical**: equal `CardWorld::fingerprint`s, every layer of
//! world state from positions and zone tables to the message series. The
//! two worlds also run with *different protocol shard counts*, folding the
//! sharding-invariance contract into the same differential.

use card_core::prelude::*;
use mobility::statics::StaticModel;
use mobility::walk::RandomWalk;
use mobility::waypoint::RandomWaypoint;
use net_topology::geometry::Field;
use net_topology::node::NodeId;
use net_topology::scenario::Scenario;
use proptest::prelude::*;
use sim_core::rng::SeedSplitter;
use sim_core::time::SimDuration;

const NODES: usize = 120;

fn scenario() -> Scenario {
    Scenario::new(NODES, 450.0, 450.0, 60.0)
}

fn cfg(seed: u64) -> CardConfig {
    CardConfig::default()
        .with_radius(2)
        .with_max_contact_distance(8)
        .with_target_contacts(4)
        .with_depth(2)
        .with_seed(seed)
}

/// Which mobility mix a differential case runs.
#[derive(Clone, Copy, Debug)]
enum ModelKind {
    /// Heavy-dwell random walks: the quiescence-skipping regime.
    Dwell,
    /// Always-walking random walks: event mode degenerates to tick mode.
    Walk,
    /// A static region stacked with a dwell region.
    Mixed,
    /// Random waypoint (no `quiescent_for`): every region ticks.
    Waypoint,
}

/// Build one mobility partition. Called once per world with identical
/// arguments, so both sides own bit-identical models.
fn partition(
    kind: ModelKind,
    regions: usize,
    pause: f64,
    seed: u64,
    field: Field,
) -> mobility::RegionalMobility {
    let mut m = mobility::RegionalMobility::new();
    let split = NODES / regions.max(1);
    let mut placed = 0usize;
    for r in 0..regions.max(1) {
        let len = if r + 1 == regions.max(1) {
            NODES - placed
        } else {
            split
        };
        placed += len;
        let stream = SeedSplitter::new(seed).stream("mobility", r as u64);
        let model: Box<dyn mobility::MobilityModel> = match kind {
            ModelKind::Dwell => Box::new(RandomWalk::new_with_dwell(
                len, field, 0.5, 2.0, 2.0, pause, stream,
            )),
            ModelKind::Walk => Box::new(RandomWalk::new(len, field, 0.5, 4.0, 1.5, stream)),
            ModelKind::Mixed if r == 0 => Box::new(StaticModel),
            ModelKind::Mixed => Box::new(RandomWalk::new_with_dwell(
                len, field, 0.5, 2.0, 2.0, pause, stream,
            )),
            ModelKind::Waypoint => Box::new(RandomWaypoint::new(len, field, 0.5, 3.0, 0.5, stream)),
        };
        m.push_region(len, model);
    }
    m
}

/// A deterministic query/standing workload spread over the timeline.
fn workload(seed: u64, horizon_ms: u64) -> Vec<Arrival> {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    (0..14u32)
        .map(|i| {
            let at = SimDuration::from_millis(next() % horizon_ms.max(1));
            let source = NodeId::new((next() % NODES as u64) as u32);
            let target = NodeId::new((next() % NODES as u64) as u32);
            let kind = if i % 3 == 0 {
                ArrivalKind::Standing { source, target }
            } else {
                ArrivalKind::Query { source, target }
            };
            Arrival { at, kind }
        })
        .collect()
}

/// Build a prepared world: scenario placement, contact selection done.
fn world(seed: u64, shards: usize, hints: bool) -> CardWorld {
    let mut w = CardWorld::build(&scenario(), cfg(seed));
    w.set_hints_enabled(hints);
    w.set_shard_count(shards);
    w.select_all_contacts();
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline differential: for random seeds, mobility mixes, shard
    /// counts and segment splits, the event-driven world is bit-identical
    /// to the tick-driven world at every segment boundary, and their
    /// workload outcomes agree entry for entry.
    #[test]
    fn prop_event_and_tick_worlds_are_bit_identical(
        seed in 1u64..1_000_000,
        kind_ix in 0usize..4,
        regions in 1usize..4,
        pause_pct in 85u32..100,
        tick_shards in 1usize..7,
        event_shards in 1usize..7,
        hints in any::<bool>(),
        splits in proptest::collection::vec(300u64..1400, 1..4),
    ) {
        let kind = [ModelKind::Dwell, ModelKind::Walk, ModelKind::Mixed, ModelKind::Waypoint][kind_ix];
        let pause = pause_pct as f64 / 100.0;
        let horizon_ms: u64 = splits.iter().sum();

        let mut tick_world = world(seed, tick_shards, hints);
        let mut tick_model = partition(kind, regions, pause, seed, tick_world.network().field());
        let mut tick_driver = EventDriver::new(
            &tick_world, &tick_model, DriveMode::Tick, workload(seed, horizon_ms));

        let mut ev_world = world(seed, event_shards, hints);
        let mut ev_model = partition(kind, regions, pause, seed, ev_world.network().field());
        let mut ev_driver = EventDriver::new(
            &ev_world, &ev_model, DriveMode::Event, workload(seed, horizon_ms));

        for (i, &ms) in splits.iter().enumerate() {
            let d = SimDuration::from_millis(ms);
            tick_driver.drive(&mut tick_world, &mut tick_model, d);
            ev_driver.drive(&mut ev_world, &mut ev_model, d);
            prop_assert_eq!(
                ev_world.fingerprint(),
                tick_world.fingerprint(),
                "worlds diverged after segment {} ({:?}, regions {}, pause {})",
                i, kind, regions, pause
            );
        }
        // Workload observables agree entry for entry.
        prop_assert_eq!(&tick_driver.report().outcomes, &ev_driver.report().outcomes);
        prop_assert_eq!(
            &tick_driver.report().standing_registered,
            &ev_driver.report().standing_registered
        );
        prop_assert_eq!(tick_driver.report().arrivals, ev_driver.report().arrivals);
        prop_assert_eq!(
            tick_driver.report().validation_rounds,
            ev_driver.report().validation_rounds
        );
        // Event mode may only elide work, never add it.
        prop_assert!(
            ev_driver.report().events_processed <= tick_driver.report().events_processed
        );
        prop_assert_eq!(tick_driver.report().audit_violations, 0);
        prop_assert_eq!(ev_driver.report().audit_violations, 0);
    }

    /// Hint TTL counts validation *epochs*, not wall time: stretching the
    /// validation period by an arbitrary dilation factor (so the same
    /// epochs happen at very different virtual instants) leaves every hint
    /// counter — hits, deposits, TTL expiries — bit-identical, as long as
    /// the epoch sequence matches.
    #[test]
    fn prop_hint_ttl_counts_epochs_not_wall_time(
        seed in 1u64..1_000_000,
        ttl in 1u32..5,
        dilation in 2u64..9,
        rounds in 1u32..8,
    ) {
        let run = |period_secs: u64| {
            let mut config = CardConfig {
                hint_ttl: ttl,
                ..cfg(seed)
            };
            config.validation_period = SimDuration::from_secs(period_secs);
            let mut w = CardWorld::build(&scenario(), config);
            w.set_hints_enabled(true);
            w.select_all_contacts();
            let mut model = mobility::RegionalMobility::new();
            model.push_region(NODES, Box::new(StaticModel));
            let mut driver = EventDriver::new(&w, &model, DriveMode::Event, Vec::new());
            let pairs: Vec<(NodeId, NodeId)> = (0..40u32)
                .map(|i| (NodeId::new(i % NODES as u32), NodeId::new((i * 37 + 5) % NODES as u32)))
                .collect();
            // Warm the cache, age it by `rounds` epochs (wall spacing is
            // `period_secs` apart), then probe it again.
            let warm = w.query_all(&pairs);
            driver.drive(&mut w, &mut model, SimDuration::from_secs(period_secs * rounds as u64));
            let probe = w.query_all(&pairs);
            (warm, probe, w.hint_stats().clone(), w.hint_store().map(|s| s.epoch()))
        };
        let tight = run(1);
        let dilated = run(dilation);
        prop_assert_eq!(&tight.0, &dilated.0, "warm sweeps must agree");
        prop_assert_eq!(&tight.1, &dilated.1, "aged sweeps must agree");
        prop_assert_eq!(&tight.2, &dilated.2, "hint counters must be wall-time independent");
        prop_assert_eq!(tight.3, dilated.3, "epoch counts must match");
    }
}

/// Standing queries break and re-resolve under churn, and both drive modes
/// agree on every lifecycle count (non-proptest smoke: a failure names
/// the first differing layer and node).
#[test]
fn standing_queries_survive_churn_identically() {
    let build = |mode: DriveMode, shards: usize| {
        let mut w = world(77, shards, false);
        let mut model = partition(ModelKind::Dwell, 2, 0.90, 77, w.network().field());
        let mut driver = EventDriver::new(&w, &model, mode, workload(77, 5_000));
        driver.drive(&mut w, &mut model, SimDuration::from_secs(5));
        let stats = w.standing_queries().stats().clone();
        (w.fingerprint(), driver.report().clone(), stats)
    };
    let (tick_fp, tick_report, stats) = build(DriveMode::Tick, 1);
    let (ev_fp, ev_report, _) = build(DriveMode::Event, 5);
    assert_eq!(ev_fp.diff(&tick_fp), None);
    assert_eq!(ev_report.outcomes, tick_report.outcomes);
    assert!(
        stats.registered >= 4,
        "workload registers subscriptions: {stats:?}"
    );
    assert!(
        stats.revalidations > 0,
        "validation rounds must recheck standing chains: {stats:?}"
    );
}
