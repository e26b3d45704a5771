use super::*;
use crate::config::SelectionMethod;
use crate::hints::{HintDeposit, HintKey, HintStats, HintStore};
use crate::query::{dsq_query, QueryOutcome, QueryScratch};
use crate::reachability::reachability_set;
use crate::resources::{ResourceId, ResourceRegistry};
use mobility::statics::StaticModel;
use mobility::waypoint::RandomWaypoint;
use sim_core::faults::FaultPlan;
use sim_core::stats::MsgKind;

use super::queries::Goal;

fn scenario() -> Scenario {
    Scenario::new(150, 500.0, 500.0, 60.0)
}

fn cfg() -> CardConfig {
    CardConfig::default()
        .with_radius(2)
        .with_max_contact_distance(8)
        .with_target_contacts(4)
        .with_seed(21)
}

/// A `cfg()` world at search depth `depth` with the hint cache on.
fn hinted_world(depth: u16) -> CardWorld {
    let mut w = CardWorld::build(&scenario(), cfg().with_depth(depth));
    w.set_hints_enabled(true);
    w
}

#[test]
fn build_and_select() {
    let mut w = CardWorld::build(&scenario(), cfg());
    assert_eq!(w.network().node_count(), 150);
    assert_eq!(w.total_contacts(), 0);
    w.select_all_contacts();
    assert!(
        w.total_contacts() > 0,
        "a 150-node network must yield contacts"
    );
    assert!(w.mean_contacts() <= 4.0);
    assert!(w.stats().total(MsgKind::Csq) > 0);
}

#[test]
fn selection_raises_reachability() {
    let mut w = CardWorld::build(&scenario(), cfg());
    let before = w.reachability_summary(1).mean_pct;
    w.select_all_contacts();
    let after = w.reachability_summary(1).mean_pct;
    assert!(
        after > before,
        "contacts must increase mean reachability ({before:.1}% -> {after:.1}%)"
    );
}

#[test]
fn deterministic_end_to_end() {
    let run = || {
        let mut w = CardWorld::build(&scenario(), cfg());
        w.select_all_contacts();
        let mut model = RandomWaypoint::new(
            150,
            w.network().field(),
            1.0,
            10.0,
            0.0,
            SeedSplitter::new(w.config().seed).stream("mobility", 0),
        );
        w.run_mobile(&mut model, SimDuration::from_secs(3));
        w.fingerprint()
    };
    assert_eq!(run().diff(&run()), None);
}

#[test]
fn mobile_run_populates_pipeline_counters() {
    let mut w = CardWorld::build(&scenario(), cfg());
    let mut model = RandomWaypoint::new(
        150,
        w.network().field(),
        0.5,
        2.0,
        0.0,
        SeedSplitter::new(7).stream("mobility", 0),
    );
    w.run_mobile(&mut model, SimDuration::from_secs(2));
    let c = w.pipeline_counters();
    assert!(
        c.movers_reported > 0,
        "zero-pause RWP ticks must report movers"
    );
    // the accessor must surface the network's own counters, not a copy
    // that can drift
    assert_eq!(c, w.network().pipeline_counters());
}

#[test]
fn static_run_keeps_contacts_and_counts_maintenance() {
    let mut w = CardWorld::build(&scenario(), cfg());
    w.select_all_contacts();
    let contacts_before = w.total_contacts();
    w.run_mobile(&mut StaticModel, SimDuration::from_secs(4));
    // static topology: nothing lost, nothing out of range; re-selection
    // passes (rule 5) may only ADD contacts for nodes still below NoC
    assert!(w.total_contacts() >= contacts_before);
    assert_eq!(w.maintenance_totals().lost, 0);
    assert_eq!(w.maintenance_totals().dropped_out_of_range, 0);
    assert!(
        w.stats().total(MsgKind::Validation) > 0,
        "validation still polls"
    );
    // validation rounds happened at ~0,1,2,3 s (round at 4s is at the horizon)
    assert_eq!(w.contacts_series().len(), 4);
    assert_eq!(w.now(), SimTime::from_secs(4));
}

#[test]
fn mobile_run_loses_and_reselects() {
    let mut w = CardWorld::build(&scenario(), cfg());
    w.select_all_contacts();
    let mut model = RandomWaypoint::new(
        150,
        w.network().field(),
        10.0,
        20.0,
        0.0,
        SeedSplitter::new(7).stream("mobility", 0),
    );
    w.run_mobile(&mut model, SimDuration::from_secs(6));
    let totals = w.maintenance_totals();
    assert!(
        totals.lost + totals.dropped_out_of_range > 0,
        "fast mobility should break some contact paths"
    );
    assert!(w.stats().total(MsgKind::Validation) > 0);
    // re-selection kept tables alive
    assert!(w.total_contacts() > 0);
}

#[test]
fn local_recovery_heals_under_mild_mobility() {
    let mut config = cfg();
    config.validation_period = SimDuration::from_secs(1);
    let mut w = CardWorld::build(&scenario(), config);
    w.select_all_contacts();
    let mut model = RandomWaypoint::new(
        150,
        w.network().field(),
        3.0,
        8.0,
        0.0,
        SeedSplitter::new(9).stream("mobility", 0),
    );
    w.run_mobile(&mut model, SimDuration::from_secs(8));
    assert!(
        w.maintenance_totals().recovered > 0,
        "mild mobility should exercise local recovery"
    );
}

#[test]
fn standing_queries_are_rechecked_by_mobile_runs_and_by_hand_stepped_rounds() {
    let mut w = CardWorld::build(&scenario(), cfg());
    w.select_all_contacts();
    for i in 0..20 {
        w.standing_register(NodeId::new(i), NodeId::new(149 - i));
    }
    let mut model = RandomWaypoint::new(
        150,
        w.network().field(),
        5.0,
        10.0,
        0.0,
        SeedSplitter::new(7).stream("mobility", 0),
    );
    w.run_mobile(&mut model, SimDuration::from_secs(6));
    let driven = w.standing_queries().stats().revalidations;
    assert!(driven > 0, "a mobile run must recheck its subscriptions");
    // A round stepped by hand rechecks every subscription once.
    w.validation_round();
    assert_eq!(w.standing_queries().stats().revalidations, driven + 20);
}

#[test]
fn timeline_continues_across_runs() {
    let mut w = CardWorld::build(&scenario(), cfg());
    w.select_all_contacts();
    w.run_mobile(&mut StaticModel, SimDuration::from_secs(2));
    assert_eq!(w.now(), SimTime::from_secs(2));
    w.run_mobile(&mut StaticModel, SimDuration::from_secs(2));
    assert_eq!(w.now(), SimTime::from_secs(4));
    // series timestamps are strictly increasing across the two runs
    let times: Vec<_> = w
        .contacts_series()
        .points()
        .iter()
        .map(|(t, _)| *t)
        .collect();
    for pair in times.windows(2) {
        assert!(pair[0] < pair[1]);
    }
}

#[test]
fn query_uses_world_state() {
    let mut w = CardWorld::build(&scenario(), cfg().with_depth(3));
    w.select_all_contacts();
    // find some target beyond the source's neighborhood but reachable
    let source = NodeId::new(0);
    let reach = crate::reachability::reachability_set(w.network(), w.contact_tables(), source, 3);
    let nb = w.network().tables().of(source);
    let beyond: Vec<usize> = reach
        .iter()
        .filter(|&i| !nb.contains(NodeId::from(i)))
        .collect();
    if let Some(&target) = beyond.first() {
        let out = w.query(source, NodeId::from(target));
        assert!(
            out.found,
            "target inside the depth-3 reach set must be found"
        );
        assert!(out.depth_used >= 1);
        assert!(out.query_msgs > 0);
    }
}

#[test]
fn query_all_matches_serial_and_per_query_paths() {
    let pairs: Vec<(NodeId, NodeId)> = (0..60u32)
        .map(|i| (NodeId::new(i % 150), NodeId::new((i * 37 + 5) % 150)))
        .collect();
    let build = |shards: Option<usize>| {
        let mut w = CardWorld::build(&scenario(), cfg().with_depth(3));
        if let Some(k) = shards {
            w.set_shard_count(k);
        }
        w.select_all_contacts();
        w
    };
    let mut serial = build(Some(1));
    let expected_outcomes: Vec<QueryOutcome> =
        pairs.iter().map(|&(s, t)| serial.query(s, t)).collect();
    for shards in [None, Some(1), Some(3), Some(60), Some(500)] {
        let mut par = build(shards);
        let outcomes = par.query_all(&pairs);
        assert_eq!(outcomes, expected_outcomes, "shards {shards:?}");
        let diff = par.fingerprint().diff(&serial.fingerprint());
        assert_eq!(diff, None, "world diverged at shard count {shards:?}");
    }
    // and the one-at-a-time path agrees too
    let mut loose = build(None);
    let one_by_one: Vec<QueryOutcome> = pairs.iter().map(|&(s, t)| loose.query(s, t)).collect();
    assert_eq!(one_by_one, expected_outcomes);
}

#[test]
fn query_all_handles_empty_and_repeated_sweeps() {
    let mut w = CardWorld::build(&scenario(), cfg().with_depth(2));
    w.select_all_contacts();
    assert!(w.query_all(&[]).is_empty());
    let pairs = vec![(NodeId::new(0), NodeId::new(100)); 8];
    let first = w.query_all(&pairs);
    let second = w.query_all(&pairs); // scratch reuse across sweeps
    assert_eq!(first, second);
}

#[test]
#[should_panic(expected = "network zone radius")]
fn radius_mismatch_rejected() {
    let net = Network::from_scenario(&scenario(), 3, 1);
    let _ = CardWorld::from_network(net, cfg()); // cfg has R=2
}

#[test]
fn saturated_nodes_back_off_selection() {
    // A tiny NoC-unreachable configuration: after a few fruitless
    // rounds, selection traffic per round must fall toward zero even
    // though tables stay below NoC.
    let mut config = cfg().with_target_contacts(50); // far above capacity
    config.validation_period = SimDuration::from_secs(1);
    let mut w = CardWorld::build(&scenario(), config);
    w.select_all_contacts();
    // run long enough for the backoff to reach its cap
    w.run_mobile(&mut StaticModel, SimDuration::from_secs(12));
    let early: u64 = (0..3)
        .map(|b| w.stats().in_bucket_where(b, MsgKind::is_selection))
        .sum();
    let late: u64 = (3..6)
        .map(|b| w.stats().in_bucket_where(b, MsgKind::is_selection))
        .sum();
    assert!(
        late < early / 2,
        "backoff should quiesce fruitless selection (early {early}, late {late})"
    );
    assert!(w.mean_contacts() < 50.0, "capacity is genuinely below NoC");
}

#[test]
fn backoff_resets_when_a_contact_is_found() {
    // With NoC at capacity, nodes that reach NoC keep level 0: the
    // series stays stable and the maintenance counters keep moving.
    let mut w = CardWorld::build(&scenario(), cfg());
    w.select_all_contacts();
    let before = w.maintenance_totals().validated;
    w.run_mobile(&mut StaticModel, SimDuration::from_secs(3));
    assert!(w.maintenance_totals().validated > before);
}

#[test]
fn parallel_sweeps_match_serial_reference() {
    // Selection, two rounds and a hinted sweep leave the fingerprint of the
    // one-shard world at every shard count, N + 5 and more than N included.
    let pairs: Vec<(NodeId, NodeId)> = (0..60u32)
        .map(|i| (NodeId::new(i % 150), NodeId::new((i * 37 + 5) % 150)))
        .collect();
    let run = |shards: Option<usize>| {
        let mut w = hinted_world(3);
        if let Some(k) = shards {
            w.set_shard_count(k);
        }
        w.select_all_contacts();
        w.validation_round();
        w.validation_round();
        w.query_all(&pairs);
        w.fingerprint()
    };
    let expected = run(Some(1));
    for shards in [None, Some(1), Some(3), Some(150), Some(155), Some(1000)] {
        assert_eq!(run(shards).diff(&expected), None, "{shards:?} shards");
    }
}

#[test]
fn fingerprint_diff_names_the_layer_and_node_of_one_extra_call() {
    // One edit per layer on a clone of a selected, hinted four-shard world.
    let mut w = hinted_world(3);
    w.set_shard_count(4);
    w.select_all_contacts();
    let base = w.fingerprint();
    type Edit = fn(&mut CardWorld);
    let edits: [(Edit, Layer, Option<usize>); 5] = [
        (
            |c| c.net.positions_mut()[149].x += 1e-9,
            Layer::Topology,
            Some(149),
        ),
        (
            |c| _ = c.backoff[c.per + 3].fail(5),
            Layer::Tables,
            Some(w.per + 3),
        ),
        (|c| deposit_at(c, NodeId::new(90)), Layer::Hints, Some(90)),
        (|c| c.set_now(SimTime::from_secs(1)), Layer::Timeline, None),
        (|c| c.maintenance.validated += 1, Layer::Counters, None),
    ];
    for (edit, layer, node) in edits {
        let mut c = w.clone();
        edit(&mut c);
        let want = Some((layer, node.map(NodeId::from)));
        assert_eq!(c.fingerprint().diff(&base), want);
        assert_eq!(base.diff(&c.fingerprint()), want);
    }
    assert_eq!(w.clone().fingerprint().diff(&base), None);
    let debug = format!("{base:?}");
    let named = Layer::ALL.iter().all(|l| debug.contains(&format!("{l:?}")));
    assert!(named, "{debug}");
}

/// Write one hint straight into `holder`'s store.
fn deposit_at(w: &mut CardWorld, holder: NodeId) {
    let d = HintDeposit::new(holder, HintKey::node(NodeId::new(7)), NodeId::new(8), 2);
    let store = w.hints.as_mut().expect("hints on");
    store.deposit(&d, &mut HintStats::default());
}

#[test]
fn shard_count_is_settable_and_bounded() {
    let mut w = CardWorld::build(&scenario(), cfg());
    assert!(w.shard_count() >= 1);
    w.set_shard_count(7);
    assert_eq!(w.shard_count(), 7);
    w.select_all_contacts();
    assert!(w.total_contacts() > 0);
}

#[test]
#[should_panic(expected = "at least one protocol shard")]
fn zero_shards_rejected() {
    CardWorld::build(&scenario(), cfg()).set_shard_count(0);
}

#[test]
fn hints_toggle_round_trip() {
    let mut w = CardWorld::build(&scenario(), cfg());
    assert!(!w.hints_enabled());
    assert!(w.hint_store().is_none());
    w.set_hints_enabled(true);
    assert!(w.hints_enabled());
    let store = w.hint_store().expect("enabled world has a store");
    assert_eq!(store.node_count(), 150);
    assert!(store.is_empty());
    w.set_hints_enabled(true); // idempotent: must not rebuild/clear
    w.set_hints_enabled(false);
    assert!(!w.hints_enabled());
}

#[test]
#[should_panic(expected = "hint TTL must be >= 1 round")]
fn build_rejects_zero_hint_ttl_with_hints_off() {
    // The cache can be switched on after the build, so its sizing is
    // validated up front even though the world starts with it off.
    CardWorld::build(
        &scenario(),
        CardConfig {
            hint_ttl: 0,
            ..cfg()
        },
    );
}

#[test]
fn hinted_queries_agree_with_cache_off_on_found() {
    // Hints may only change the *cost* of a query, never its answer:
    // across repeated (warming) sweeps, every outcome's `found` verdict
    // must match the same sweep on a hints-off twin.
    let pairs: Vec<(NodeId, NodeId)> = (0..80u32)
        .map(|i| (NodeId::new(i % 150), NodeId::new((i * 13 + 31) % 150)))
        .collect();
    let mut base = CardWorld::build(&scenario(), cfg().with_depth(3));
    base.select_all_contacts();
    let mut hinted = hinted_world(3);
    hinted.select_all_contacts();
    let expected = base.query_all(&pairs);
    for sweep in 0..3 {
        let got = hinted.query_all(&pairs);
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.found, e.found, "answer flipped on sweep {sweep}");
        }
    }
    let stats = hinted.hint_stats();
    assert!(stats.lookups > 0, "hinted sweeps must consult the cache");
    assert!(stats.deposits > 0, "resolved queries must deposit hints");
    assert!(
        stats.hits > 0,
        "the repeat sweeps must hit deposited hints: {stats:?}"
    );
}

#[test]
fn hinted_sweep_is_shard_count_invariant() {
    let pairs: Vec<(NodeId, NodeId)> = (0..60u32)
        .map(|i| (NodeId::new((i * 7) % 150), NodeId::new((i * 53 + 2) % 150)))
        .collect();
    let build = |shards: Option<usize>| {
        let mut w = hinted_world(3);
        if let Some(k) = shards {
            w.set_shard_count(k);
        }
        w.select_all_contacts();
        w
    };
    let mut reference = build(Some(1));
    let warm = reference.query_all(&pairs);
    let warm2 = reference.query_all(&pairs);
    for shards in [None, Some(3), Some(60), Some(500)] {
        let mut par = build(shards);
        assert_eq!(par.query_all(&pairs), warm, "cold sweep at {shards:?}");
        assert_eq!(par.query_all(&pairs), warm2, "warm sweep at {shards:?}");
        let diff = par.fingerprint().diff(&reference.fingerprint());
        assert_eq!(diff, None, "world diverged at shard count {shards:?}");
    }
}

#[test]
fn live_queries_warm_the_very_next_call() {
    // The one-at-a-time path applies deposits immediately: repeating
    // the same resolved query must hit the cache on the second call
    // and spend no more messages than the first.
    let mut w = hinted_world(3);
    w.select_all_contacts();
    let reach =
        crate::reachability::reachability_set(w.network(), w.contact_tables(), NodeId::new(0), 3);
    let nb = w.network().tables().of(NodeId::new(0));
    let Some(target) = reach
        .iter()
        .map(NodeId::from)
        .find(|&t| !nb.contains(t) && t != NodeId::new(0))
    else {
        return; // topology left nothing beyond the zone — vacuous
    };
    let first = w.query(NodeId::new(0), target);
    assert!(first.found);
    let hits_before = w.hint_stats().hits;
    let second = w.query(NodeId::new(0), target);
    assert!(second.found);
    assert!(
        w.hint_stats().hits > hits_before,
        "second identical query must hit the cache: {:?}",
        w.hint_stats()
    );
    assert!(
        second.query_msgs <= first.query_msgs,
        "a cache hit may not cost more ({} > {})",
        second.query_msgs,
        first.query_msgs
    );
}

#[test]
fn live_deposits_cross_the_lossy_plane() {
    // A live query's deposits reach the store only through the deposit
    // exchange: under an all-drop plan a resolved query leaves the cache
    // empty, and the ledger counts its whole deposit weight (what a calm
    // twin writes) as sent and dropped.
    let mut w = hinted_world(3);
    w.select_all_contacts();
    let source = NodeId::new(0);
    let reach = crate::reachability::reachability_set(w.network(), w.contact_tables(), source, 3);
    let nb = w.network().tables().of(source);
    let target = reach
        .iter()
        .map(NodeId::from)
        .find(|&t| !nb.contains(t) && t != source)
        .expect("some target resolves beyond the source's zone");
    let all_drop = sim_core::faults::FaultConfig {
        drop_rate: 1.0,
        ..sim_core::faults::FaultConfig::calm()
    };
    // The same holds for an anycast query for a resource hosted at target.
    let mut registry = ResourceRegistry::new(150, 1);
    registry.add_host(ResourceId(0), target);
    let ask = |w: &mut CardWorld, resource: bool| match resource {
        false => w.query(source, target),
        true => w.query_resource(&registry, source, ResourceId(0)),
    };
    for resource in [false, true] {
        let mut calm = w.clone();
        let calm_out = ask(&mut calm, resource);
        let weight = calm.hint_stats().deposits;
        assert!(calm_out.found && weight > 0, "a resolved query deposits");
        let mut lossy = w.clone();
        lossy.enable_faults(FaultPlan::generate(&all_drop, 150, 5));
        assert_eq!(ask(&mut lossy, resource), calm_out);
        assert!(lossy.hint_store().expect("hints on").is_empty());
        assert_eq!(lossy.hint_stats().deposits, 0);
        let ps = lossy.plane_stats();
        assert_eq!((ps.sent, ps.dropped), (weight, weight));
        assert_eq!(ps.sent, ps.local + ps.cross_shard + ps.dropped);
    }
}

/// A plan that drops every deposit (`drop`) or delays every one.
fn all_lost(drop: bool) -> FaultPlan {
    let rate = |on: bool| if on { 1.0 } else { 0.0 };
    let cfg = sim_core::faults::FaultConfig {
        drop_rate: rate(drop),
        delay_rate: rate(!drop),
        ..sim_core::faults::FaultConfig::calm()
    };
    FaultPlan::generate(&cfg, 150, 5)
}

#[test]
fn deferred_runs_land_first_with_their_verdict_spent() {
    // Two deposits contest node 0's one depth-2 slot; the one applied
    // last keeps it. `late` is logged by lane 1 (node 0 lies in span 0:
    // a crossing) and delayed; `fresh` is logged by lane 0 one exchange
    // later. The deferred run must land first, and must land even when
    // the next exchange drops everything fresh.
    let holder = NodeId::new(0);
    let late = HintDeposit::new(holder, HintKey::node(NodeId::new(7)), NodeId::new(1), 2);
    let fresh = HintDeposit::new(holder, HintKey::node(NodeId::new(9)), NodeId::new(2), 2);
    let applied = |ds: &[&HintDeposit]| {
        let mut store = HintStore::new(150, 1, cfg().hint_ttl);
        ds.iter()
            .for_each(|d| store.deposit(d, &mut HintStats::default()));
        store
    };
    assert_ne!(applied(&[&late, &fresh]), applied(&[&fresh, &late]));
    for second in [None, Some(all_lost(true))] {
        let mut w = CardWorld::build(&scenario(), cfg().with_hint_slots_per_bucket(1));
        w.set_hints_enabled(true);
        w.set_shard_count(2);
        w.enable_faults(all_lost(false));
        w.lanes[1].deposits.push(late);
        w.exchange_deposits();
        assert_eq!(w.plane_deferred_pending(), 1);
        assert!(w.hint_store().unwrap().is_empty());
        w.faults = None;
        if let Some(plan) = second.clone() {
            w.enable_faults(plan);
        }
        w.lanes[0].deposits.push(fresh);
        w.exchange_deposits();
        let ps = w.plane_stats();
        assert_eq!(w.plane_deferred_pending(), 0);
        assert_eq!((ps.rounds, ps.sent, ps.envelopes, ps.delayed), (2, 2, 2, 1));
        assert_eq!(ps.sent, ps.local + ps.cross_shard + ps.dropped);
        assert_eq!(ps.cross_shard, 1, "the late run crossed a span boundary");
        if second.is_none() {
            assert_eq!(w.hint_store(), Some(&applied(&[&late, &fresh])));
            assert_eq!((ps.local, ps.dropped, ps.max_round_msgs), (1, 0, 2));
        } else {
            assert_eq!(w.hint_store(), Some(&applied(&[&late])));
            assert_eq!((ps.local, ps.dropped, ps.max_round_msgs), (0, 1, 1));
        }
    }
}

#[test]
fn em_vs_pm_reachability_order() {
    // The headline Fig 3 claim, in miniature: EM ≥ PM in mean reachability.
    let em = {
        let mut w = CardWorld::build(&scenario(), cfg().with_method(SelectionMethod::Edge));
        w.select_all_contacts();
        w.reachability_summary(1).mean_pct
    };
    let pm = {
        let mut w = CardWorld::build(
            &scenario(),
            cfg().with_method(SelectionMethod::ProbabilisticEq2),
        );
        w.select_all_contacts();
        w.reachability_summary(1).mean_pct
    };
    assert!(
        em >= pm * 0.95,
        "EM ({em:.1}%) should not trail PM ({pm:.1}%) meaningfully"
    );
}

#[test]
fn reshard_migrates_state_mid_run() {
    // Re-partitioning mid-run must carry contact tables, RNG streams,
    // backoff counters, and cached hints across intact: a world
    // resharded between sweeps stays bit-identical to one that never
    // resharded.
    let pairs: Vec<(NodeId, NodeId)> = (0..50u32)
        .map(|i| (NodeId::new((i * 3) % 150), NodeId::new((i * 41 + 7) % 150)))
        .collect();
    let mut a = hinted_world(3);
    a.select_all_contacts();
    let mut b = a.clone();
    let warm_a = a.query_all(&pairs); // deposits hints
    let warm_b = b.query_all(&pairs);
    assert_eq!(warm_a, warm_b);
    b.set_shard_count(5); // migrate mid-run, hints warm
    assert_eq!(b.shard_count(), 5);
    a.validation_round();
    b.validation_round();
    let again_a = a.query_all(&pairs);
    let again_b = b.query_all(&pairs);
    assert_eq!(again_a, again_b, "resharding changed query outcomes");
    // Hint slots, not just counters, survived the migration.
    assert_eq!(a.fingerprint().diff(&b.fingerprint()), None);
}

#[test]
fn query_all_into_reuses_buffers() {
    let mut w = hinted_world(2);
    w.select_all_contacts();
    let pairs: Vec<(NodeId, NodeId)> = (0..30u32)
        .map(|i| (NodeId::new(i % 150), NodeId::new((i * 17 + 9) % 150)))
        .collect();
    let mut buf = Vec::new();
    w.query_all_into(&pairs, &mut buf);
    let first = buf.clone();
    let cap = buf.capacity();
    w.query_all_into(&pairs, &mut buf);
    assert_eq!(buf.len(), pairs.len());
    assert_eq!(buf, w.query_all(&pairs.clone()), "buffer path diverged");
    assert!(
        buf.capacity() >= cap && cap >= pairs.len(),
        "reused buffer must keep its capacity"
    );
    // identical world state ⇒ repeated sweeps only differ through
    // fresh hint deposits, never through buffer reuse
    assert_eq!(first.len(), buf.len());
}

fn fault_cfg() -> sim_core::faults::FaultConfig {
    sim_core::faults::FaultConfig {
        churn_rate: 0.2,
        rejoin_after: 2,
        partition: Some(sim_core::faults::PartitionWindow {
            start_round: 1,
            end_round: 3,
            fraction: 0.5,
        }),
        drop_rate: 0.08,
        delay_rate: 0.08,
        rounds: 6,
    }
}

#[test]
fn faulted_rounds_are_deterministic_across_shards_and_drivers() {
    let pairs: Vec<(NodeId, NodeId)> = (0..30u32)
        .map(|i| (NodeId::new(i % 150), NodeId::new((i * 37 + 5) % 150)))
        .collect();
    let run = |shards: usize| {
        let mut w = hinted_world(3);
        w.set_shard_count(shards);
        w.select_all_contacts();
        w.enable_faults(FaultPlan::generate(&fault_cfg(), 150, 99));
        let mut outcomes = Vec::new();
        for _ in 0..6 {
            w.validation_round();
            outcomes.push(w.query_all(&pairs));
        }
        let rounds = w.plane_stats().rounds;
        (w.fingerprint(), outcomes, w.fault_report(), rounds)
    };
    let reference = run(1);
    assert!(reference.2.crashes > 0, "plan must crash someone");
    assert!(reference.2.rejoins > 0, "crashed nodes must rejoin");
    assert_eq!(reference.2.partitions_opened, 1);
    assert_eq!(reference.2.partitions_healed, 1);
    assert_eq!(reference.2.liveness_violations, 0);
    assert_eq!(reference.2.grid_audit_violations, 0);
    for shards in [1, 2, 4] {
        assert_eq!(
            run(shards),
            reference,
            "faulted run diverged at {shards} shards"
        );
    }
}

#[test]
fn crash_wipes_state_and_tombstones_bar_reselection() {
    let mut w = CardWorld::build(&scenario(), cfg());
    w.select_all_contacts();
    // Hand-build a plan: node 0 crashes at round 0, never rejoins.
    let plan = FaultPlan::generate(
        &sim_core::faults::FaultConfig {
            churn_rate: 0.0,
            rejoin_after: 0,
            partition: None,
            drop_rate: 0.0,
            delay_rate: 0.0,
            rounds: 4,
        },
        150,
        7,
    );
    assert!(plan.events().is_empty(), "zero churn schedules nothing");
    // Use a churny plan instead and inspect whichever node it crashes.
    let plan = FaultPlan::generate(
        &sim_core::faults::FaultConfig {
            churn_rate: 0.1,
            rejoin_after: 0,
            partition: None,
            drop_rate: 0.0,
            delay_rate: 0.0,
            rounds: 1,
        },
        150,
        7,
    );
    let victims: Vec<usize> = plan.events().iter().map(|e| e.node as usize).collect();
    assert!(!victims.is_empty());
    w.enable_faults(plan);
    for _ in 0..2 {
        w.validation_round();
    }
    let report = w.fault_report();
    assert_eq!(report.crashes as usize, victims.len());
    assert_eq!(report.down_now, victims.len(), "nobody rejoins");
    assert_eq!(report.liveness_violations, 0);
    for &v in &victims {
        assert_eq!(
            w.contact_table(NodeId::from(v)).len(),
            0,
            "crashed node keeps no contacts"
        );
        // Tombstones bar re-selection: a table that has watched `v`
        // die never lists it again while the tombstone lives. (A node
        // that never held `v` may still pick it as a *fresh* contact —
        // crashes are radio-off, so the graph keeps the node — and
        // tombstones it on its next validation round.)
        for i in 0..150 {
            if victims.contains(&i) {
                continue;
            }
            let table = w.contact_table(NodeId::from(i));
            assert!(
                !(table.is_tombstoned(NodeId::from(v)) && table.contains(NodeId::from(v))),
                "node {i} lists crashed contact {v} despite a live tombstone"
            );
        }
    }
}

#[test]
fn faulted_queries_fail_fast_on_down_endpoints_and_retry() {
    let mut w = CardWorld::build(&scenario(), cfg().with_depth(3));
    w.select_all_contacts();
    let plan = FaultPlan::generate(
        &sim_core::faults::FaultConfig {
            churn_rate: 0.1,
            rejoin_after: 2,
            partition: None,
            drop_rate: 0.0,
            delay_rate: 0.0,
            rounds: 1,
        },
        150,
        13,
    );
    let victim = NodeId::from(plan.events()[0].node as usize);
    w.enable_faults(plan);
    // Crash rounds are drawn from [1, rounds]; the world's first round
    // is 0, so two rounds cover every crash in this plan.
    w.validation_round();
    w.validation_round();
    let down_now: Vec<usize> = (0..150)
        .filter(|&i| w.fault_state().expect("armed").is_down(i))
        .collect();
    assert!(down_now.contains(&victim.index()));
    let out = w.query(NodeId::new(1), victim);
    assert!(!out.found, "query to a crashed node must fail");
    assert_eq!(out.query_msgs, 0, "nobody to ask charges nothing");
    assert_eq!(w.pending_query_retries(), 1, "failure enters the queue");
    // The drain's re-run misses (the victim is still down) and is requeued
    // by the queue alone: no second schedule, one entry for the pair.
    w.validation_round();
    let retry = w.fault_report().retry;
    assert_eq!((retry.scheduled, retry.retried), (1, 1));
    assert_eq!(w.pending_query_retries(), 1, "the pair is queued once");
    // Rounds drain the retry queue until the cap abandons the pair.
    for _ in 0..20 {
        w.validation_round();
    }
    let report = w.fault_report();
    assert_eq!(report.retry.scheduled, 1);
    assert!(report.retry.retried >= 1);
    assert_eq!(w.pending_query_retries(), 0, "cap bounds the queue");
}

#[test]
fn plane_buffers_scale_with_runs_not_queries() {
    // A few resolvable pairs, each repeated in one block: a cold sweep
    // logs one run per chain hop whatever the block length, so the
    // deposit transport's buffers must not grow with the repeats.
    let mut base = hinted_world(3);
    base.select_all_contacts();
    assert_eq!(base.plane_buffer_bytes(), 0, "no sweep, no buffers");
    let candidates: Vec<(NodeId, NodeId)> = (0..150u32)
        .map(|i| (NodeId::new(i), NodeId::new((i * 37 + 70) % 150)))
        .collect();
    let mut probe = base.clone();
    probe.set_hints_enabled(false);
    let outs = probe.query_all(&candidates);
    let few: Vec<(NodeId, NodeId)> = candidates
        .iter()
        .zip(&outs)
        .filter(|(_, o)| o.found && o.depth_used > 0)
        .map(|(&p, _)| p)
        .take(4)
        .collect();
    assert!(!few.is_empty(), "some pair resolves beyond its zone");
    let sweep = |reps: usize, shards: usize| {
        let mut w = base.clone();
        w.set_shard_count(shards);
        let pairs: Vec<(NodeId, NodeId)> = few
            .iter()
            .flat_map(|&p| std::iter::repeat_n(p, reps))
            .collect();
        w.query_all(&pairs);
        let ps = w.plane_stats();
        assert_eq!(ps.sent, w.hint_stats().deposits);
        (w.plane_buffer_bytes(), ps.sent, ps.envelopes)
    };
    for shards in [1, 3] {
        let (short, _, _) = sweep(10, shards);
        let (long, deposits, envelopes) = sweep(400, shards);
        assert!(
            envelopes * 50 < deposits,
            "{envelopes} envelopes for {deposits} deposits"
        );
        assert!(
            long <= 2 * short,
            "buffers grew with the queries: {short} B at 10 repeats, {long} B at 400"
        );
        assert!(
            long * 10 < deposits as usize * std::mem::size_of::<HintDeposit>(),
            "{long} B of buffers for {deposits} deposits"
        );
    }
}

#[test]
fn shard_memory_and_plane_stats_surface() {
    let mut w = hinted_world(3);
    w.select_all_contacts();
    let mem = w.shard_memory_bytes();
    assert_eq!(mem.len(), w.shard_count());
    assert!(
        mem.iter().sum::<usize>() > 0,
        "selected tables must occupy memory"
    );
    let pairs: Vec<(NodeId, NodeId)> = (0..40u32)
        .map(|i| (NodeId::new(i % 150), NodeId::new((i * 31 + 11) % 150)))
        .collect();
    w.query_all(&pairs);
    let ps = w.plane_stats().clone();
    assert!(ps.rounds >= 1, "hinted sweep exchanges deposits");
    if w.hint_stats().deposits > 0 {
        assert!(ps.sent > 0, "deposits must be exchanged");
        // Full ledger: faulted deliveries account drops and deferrals
        // (both zero on this calm world).
        assert_eq!(ps.sent, ps.local + ps.cross_shard + ps.dropped);
        assert_eq!(ps.dropped, 0);
        assert_eq!(ps.delayed, 0);
    }
    w.validation_round();
    assert!(
        w.plane_stats().metered_crossings >= ps.metered_crossings,
        "validation meters crossings monotonically"
    );
}

/// Every shard store of `w` holds its own invariants
/// (`ContactStore::assert_invariants`).
fn assert_stores_hold(w: &CardWorld, after: &str) {
    assert_eq!(w.contacts.len(), w.shard_count(), "after {after}");
    let spans = shard_spans(w.network().node_count(), w.shard_count());
    for (span, store) in spans.iter().zip(&w.contacts) {
        assert_eq!(store.len(), span.len(), "after {after}");
        store.assert_invariants(span.start);
    }
}

/// The stores keep their invariants after every call that writes them —
/// selection, calm and faulted rounds at several shard counts — and after
/// every reshard, which moves rows without changing them. A round that
/// holds contacts out writes the arena back to back all the same.
#[test]
fn contact_stores_hold_their_invariants_after_every_table_edit() {
    let mut w = CardWorld::build(&scenario(), cfg());
    assert_stores_hold(&w, "build");
    w.select_all_contacts();
    assert_stores_hold(&w, "select_all_contacts");
    let mut serial = CardWorld::build(&scenario(), cfg());
    serial.set_shard_count(1);
    serial.select_all_contacts();
    assert_stores_hold(&serial, "a one-shard select_all_contacts");
    assert_eq!(serial.fingerprint().diff(&w.fingerprint()), None);

    // Calm rounds after motion: validation drops and heals paths, and
    // re-selection refills the rows.
    let mut model = RandomWaypoint::new(
        150,
        w.network().field(),
        2.0,
        12.0,
        0.0,
        SeedSplitter::new(5).stream("mobility", 0),
    );
    let shards = w.shard_count();
    for _ in 0..3 {
        w.run_mobile(&mut model, SimDuration::from_secs(4));
        w.validation_round();
        assert_stores_hold(&w, "a calm validation_round");
        w.run_mobile(&mut model, SimDuration::from_secs(4));
        w.set_shard_count(1);
        w.validation_round();
        assert_stores_hold(&w, "a calm one-shard validation_round");
        w.set_shard_count(shards);
    }
    let totals = w.maintenance_totals();
    assert!(totals.recovered > 0 && totals.lost > 0, "{totals:?}");

    // Resharding moves the rows, not their contents.
    let before = w.fingerprint();
    for shards in [1, 3, 7] {
        w.set_shard_count(shards);
        assert_stores_hold(&w, "set_shard_count");
        assert_eq!(w.fingerprint().diff(&before), None, "{shards} shards");
    }

    // Faulted rounds: crash wipes, tombstones, held-out contacts.
    let mut f = hinted_world(3);
    f.select_all_contacts();
    f.enable_faults(FaultPlan::generate(&fault_cfg(), 150, 99));
    let mut tombstoned = false;
    for round in 0..6 {
        // Alternate a fanned-out and a one-shard round.
        f.set_shard_count(if round % 2 == 0 { 4 } else { 1 });
        f.validation_round();
        assert_stores_hold(&f, "a faulted round");
        tombstoned |= f
            .contact_tables()
            .iter()
            .any(|t| !t.tombstones().is_empty());
    }
    assert!(f.fault_report().crashes > 0, "plan must crash someone");
    assert!(tombstoned, "crashes must leave tombstones");
}

#[test]
fn a_query_right_after_a_round_walks_the_contacts_it_added() {
    // No selection: the first round's rule-5 re-selection writes every
    // contact, and the very next walk must read the rows it wrote.
    let mut w = CardWorld::build(&scenario(), cfg().with_depth(3));
    w.validation_round();
    let source = NodeId::all(150)
        .find(|&s| !w.contact_table(s).is_empty())
        .expect("the round selects some contact");
    let first = w
        .contact_table(source)
        .contacts()
        .next()
        .expect("a contact");
    let (id, hops) = (first.id, first.hops() as u64);
    let out = w.query(source, id);
    assert_eq!(
        out,
        QueryOutcome {
            found: true,
            depth_used: 1,
            query_msgs: hops,
            reply_msgs: hops,
        },
        "the query must resolve through the round's new contact {id:?}"
    );
}

/// `n` nodes on a horizontal line, `spacing` metres apart, at zone radius
/// 2 with the given radio range.
fn line_world(n: usize, spacing: f64, range: f64, cfg: CardConfig) -> CardWorld {
    use net_topology::geometry::{Field, Point2};
    let positions = (0..n)
        .map(|i| Point2::new(10.0 + spacing * i as f64, 10.0))
        .collect();
    let side = 20.0 + spacing * n as f64;
    CardWorld::from_network(
        Network::from_positions(Field::square(side), positions, range, 2),
        cfg,
    )
}

#[test]
fn a_partition_cutting_every_contact_of_a_source_misses_free_and_retries() {
    // A 16-node line, one hop per 40 m: node 0's zone is {0, 1, 2}, and
    // every contact it may hold (4‥8 hops) lies right of the cut between
    // nodes 3 and 4 (x = 130 | 170; the cut sits at 10 + 0.25 · 600 = 160).
    let mut w = line_world(16, 40.0, 50.0, cfg().with_depth(3).with_target_contacts(2));
    w.select_all_contacts();
    w.enable_faults(FaultPlan::generate(
        &sim_core::faults::FaultConfig {
            churn_rate: 0.0,
            rejoin_after: 0,
            partition: Some(sim_core::faults::PartitionWindow {
                start_round: 1,
                end_round: 3,
                fraction: 0.25,
            }),
            drop_rate: 0.0,
            delay_rate: 0.0,
            rounds: 4,
        },
        16,
        3,
    ));
    w.validation_round(); // round 0: calm
    w.validation_round(); // round 1: the partition opens
    assert!(w.fault_report().partition_active);
    let (source, target) = (NodeId::new(0), NodeId::new(3));
    let sides = w.fault_state().and_then(|s| s.sides()).expect("open");
    let contacts: Vec<NodeId> = w.contact_table(source).ids().collect();
    assert!(!contacts.is_empty(), "the source holds contacts");
    assert!(
        contacts.iter().all(|c| sides[c.index()] != sides[0]),
        "every contact of the source lies across the cut: {contacts:?}"
    );
    assert_eq!(sides[target.index()], sides[0], "the target is on our side");
    assert!(!w.network().tables().of(source).contains(target));

    let out = w.query(source, target);
    assert_eq!(
        out,
        QueryOutcome {
            found: false,
            depth_used: 3,
            query_msgs: 0,
            reply_msgs: 0,
        },
        "vetoed edges are neither walked nor charged"
    );
    assert_eq!(w.pending_query_retries(), 1, "the miss enters the queue");

    // Round 2 retries under the partition (a miss, requeued with a wait
    // of one round); round 3 heals and waits; round 4 retries and resolves.
    for _ in 0..3 {
        w.validation_round();
    }
    assert!(!w.fault_report().partition_active);
    let retry = w.fault_report().retry;
    assert_eq!(
        (retry.scheduled, retry.retried, retry.recovered),
        (1, 2, 1),
        "the retry after the heal resolves"
    );
    assert_eq!(w.pending_query_retries(), 0);
}

#[test]
fn a_radio_range_below_the_node_spacing_isolates_every_node() {
    // 40 m spacing, 10 m range: no links, so every zone is its owner.
    let n = 20;
    let mut w = line_world(n, 40.0, 10.0, cfg().with_depth(3));
    w.select_all_contacts();
    assert_eq!(w.stats().grand_total(), 0, "selection launches no walk");
    assert_eq!(w.total_contacts(), 0);
    w.validation_round();
    assert_eq!(w.stats().grand_total(), 0, "a round sends nothing");
    assert_eq!(w.plane_stats().metered_crossings, 0);
    for s in NodeId::all(n) {
        for t in NodeId::all(n).filter(|&t| t != s) {
            let out = w.query(s, t);
            assert!(!out.found, "{s:?} -> {t:?} cannot resolve");
            assert_eq!(out.total_messages(), 0, "{s:?} -> {t:?} is free");
        }
    }
    let summary = w.reachability_summary(3);
    for pct in &summary.per_node_pct {
        assert_eq!(*pct, 100.0 / n as f64);
    }
}

/// Move each of `movers` by up to 55 m along each axis (clamped to the
/// field): at the 60 m radio range of `scenario()`, far enough to flip
/// links. The caller refreshes the network.
fn displace(w: &mut CardWorld, movers: &[NodeId], rng: &mut sim_core::rng::RngStream) {
    use net_topology::geometry::Point2;
    let field = w.net.field();
    for &m in movers {
        let p = w.net.positions()[m.index()];
        let (dx, dy) = (rng.range_f64(-55.0, 55.0), rng.range_f64(-55.0, 55.0));
        w.net.positions_mut()[m.index()] = field.clamp(Point2::new(p.x + dx, p.y + dy));
    }
}

/// A random share `p` of the nodes, in id order.
fn some_nodes(n: usize, p: f64, rng: &mut sim_core::rng::RngStream) -> Vec<NodeId> {
    NodeId::all(n).filter(|_| rng.chance(p)).collect()
}

/// A round's row-stamp skips are invisible. A world refreshed through
/// each production path — the mover patch, the report-free `refresh`,
/// and `refresh_movers`' churn fallback to it — validates exactly like a
/// clone that re-tests every hop. The clone reaches the full walk through
/// ordinary calls: `refresh_full`'s stamp-all watermark dirties every
/// row, and on alternate rounds its contacts are also rewritten
/// unconfirmed, as hand-built ones are. Calm and faulted, at
/// one shard and at four. CI runs this on the release build too, where
/// the walk's `debug_assert`s are off and this comparison is the check.
#[test]
fn stamped_rounds_match_a_full_walk_through_every_refresh_path() {
    use crate::contact::UNCONFIRMED;
    let n = scenario().nodes;
    for faulted in [false, true] {
        for shards in [1, 4] {
            let mut w = CardWorld::build(&scenario(), cfg());
            w.set_shard_count(shards);
            w.select_all_contacts();
            if faulted {
                w.enable_faults(FaultPlan::generate(&fault_cfg(), n, 99));
            }
            let mut full = w.clone();
            let mut rng = SeedSplitter::new(17).stream("stamp-oracle", shards as u64);
            for round in 0..9 {
                // 0: the mover patch; 1: the report-free refresh; 2: too
                // many movers for the patch, so `refresh_movers` falls
                // back to the report-free refresh.
                let kind = round % 3;
                let movers = some_nodes(n, if kind == 2 { 0.5 } else { 0.06 }, &mut rng);
                displace(&mut w, &movers, &mut rng);
                match kind {
                    1 => w.net.refresh(),
                    _ => w.net.refresh_movers(&movers),
                }
                assert_eq!(
                    w.net.pipeline_counters().rows_patched < n,
                    kind == 0,
                    "round {round} took the wrong refresh path"
                );
                full.net.positions_mut().copy_from_slice(w.net.positions());
                full.net.refresh_full();
                if round % 2 == 1 {
                    for store in &mut full.contacts {
                        store.rewrite(|_, row| {
                            for c in row.old() {
                                row.push(&c.path, UNCONFIRMED);
                            }
                        });
                    }
                }
                w.validation_round();
                full.validation_round();
                let at = format!("round {round} (faulted {faulted}, {shards} shards)");
                assert_eq!(w.fingerprint().diff(&full.fingerprint()), None, "{at}");
                let crossings = |w: &CardWorld| w.plane_stats().metered_crossings;
                assert_eq!(crossings(&w), crossings(&full), "{at}");
            }
            let totals = w.maintenance_totals();
            assert!(
                totals.recovered > 0 && totals.lost + totals.dropped_out_of_range > 0,
                "motion must heal and break paths: {totals:?}"
            );
        }
    }
}

/// A round meters exactly the span crossings of every stored path of
/// every node that is up for it, read at round start: the contacts it
/// tombstones, holds out in a retry window or finds unacked count as
/// well as the ones it walks. Calm and faulted.
#[test]
fn metered_crossings_count_every_stored_path_of_every_up_node() {
    use crate::maintenance::path_shard_crossings;
    let n = scenario().nodes;
    for faulted in [false, true] {
        let mut w = CardWorld::build(&scenario(), cfg());
        w.set_shard_count(4);
        w.select_all_contacts();
        if faulted {
            w.enable_faults(FaultPlan::generate(&fault_cfg(), n, 99));
        }
        let mut rng = SeedSplitter::new(23).stream("meter", 0);
        let (mut tombstoned, mut unacked) = (false, 0);
        for round in 0..6u32 {
            let movers = some_nodes(n, 0.06, &mut rng);
            displace(&mut w, &movers, &mut rng);
            w.net.refresh_movers(&movers);
            let paths: Vec<Vec<Vec<NodeId>>> = w
                .contact_tables()
                .iter()
                .map(|t| t.contacts().map(|c| c.path.to_vec()).collect())
                .collect();
            let metered = w.plane_stats().metered_crossings;
            w.validation_round();
            let up = |i: usize| w.fault_state().is_none_or(|s| !s.is_down(i));
            let expected: u64 = paths
                .iter()
                .enumerate()
                .filter(|&(i, _)| up(i))
                .flat_map(|(_, ps)| ps.iter())
                .map(|p| path_shard_crossings(p, w.per))
                .sum();
            assert!(expected > 0, "round {round}: no path crosses a span");
            assert_eq!(
                w.plane_stats().metered_crossings - metered,
                expected,
                "round {round} (faulted {faulted})"
            );
            tombstoned |= w
                .contact_tables()
                .iter()
                .any(|t| !t.tombstones().is_empty());
            if let Some(rt) = &w.faults {
                unacked += paths
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| up(i))
                    .flat_map(|(i, ps)| ps.iter().map(move |p| (i, p)))
                    .filter(|(i, p)| {
                        rt.plan
                            .validation_lost(*i as u32, p.last().unwrap().index() as u32, round)
                    })
                    .count();
            }
        }
        assert_eq!(tombstoned, faulted, "only a faulted run tombstones");
        assert_eq!(unacked > 0, faulted, "only a faulted run loses probes");
    }
}

#[test]
fn a_world_without_hints_leaves_every_hint_counter_and_deposit_at_zero() {
    // Hints off is the hinted walk over `NoHints`. The cache-on/off
    // harnesses compare hint stats only between configurations, so equal
    // but wrong counters pass them: pin zero through sweeps, single
    // queries and their retries, resource queries and standing resolution.
    let pairs: Vec<(NodeId, NodeId)> = (0..60u32)
        .map(|i| (NodeId::new(i % 150), NodeId::new((i * 37 + 5) % 150)))
        .collect();
    let mut registry = ResourceRegistry::new(150, 1);
    registry.add_host(ResourceId(0), NodeId::new(90));
    for faulted in [false, true] {
        for shards in [1, 4] {
            let mut w = CardWorld::build(&scenario(), cfg().with_depth(3));
            w.set_shard_count(shards);
            w.select_all_contacts();
            if faulted {
                w.enable_faults(FaultPlan::generate(&fault_cfg(), 150, 99));
            }
            w.standing_register(NodeId::new(3), NodeId::new(120));
            let mut escalated = 0;
            for round in 0..4u32 {
                w.validation_round();
                let mut outs = w.query_all(&pairs);
                outs.push(w.query(NodeId::new(round), NodeId::new(140 - round)));
                outs.push(w.query_resource(&registry, NodeId::new(round * 7), ResourceId(0)));
                escalated += outs.iter().filter(|o| o.query_msgs > 0).count();
            }
            let at = format!("faulted {faulted}, {shards} shards");
            assert!(escalated > 0, "no query escalated ({at})");
            assert_eq!(*w.hint_stats(), crate::hints::HintStats::default(), "{at}");
            let ps = w.plane_stats();
            assert_eq!((ps.sent, ps.rounds, ps.envelopes), (0, 0, 0), "{at}");
            assert!(w.lanes.iter().all(|l| l.deposits.runs().is_empty()), "{at}");
        }
    }
}

mod stored_paths {
    use super::*;
    use crate::contact::UNCONFIRMED;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// After selection and after each of 0–3 rounds, calm or faulted,
        /// no stored path repeats a node, every contact is confirmed, and
        /// a path confirmed at the current link version is a chain of live
        /// links. The walk relies on both: it skips `is_link` on unchanged
        /// rows and `compress_loops` on paths that took no recovery.
        #[test]
        fn prop_stored_paths_are_simple_and_confirmed_links(
            seed in 0u64..1000,
            rounds in 0usize..4,
            faulted in 0u8..2,
        ) {
            let n = 90;
            let scenario = Scenario::new(n, 400.0, 400.0, 60.0);
            let mut w = CardWorld::build(&scenario, cfg().with_seed(seed));
            w.select_all_contacts();
            if faulted == 1 {
                w.enable_faults(FaultPlan::generate(&fault_cfg(), n, seed));
            }
            let mut rng = SeedSplitter::new(seed).stream("prop-paths", 0);
            for round in 0..=rounds {
                if round > 0 {
                    let movers = some_nodes(n, 0.08, &mut rng);
                    displace(&mut w, &movers, &mut rng);
                    w.net.refresh_movers(&movers);
                    w.validation_round();
                }
                let version = w.net.link_version();
                for c in w.contact_tables().iter().flat_map(|t| t.contacts()) {
                    let path = c.path;
                    for (i, v) in path.iter().enumerate() {
                        prop_assert!(!path[i + 1..].contains(v), "{v} repeats in {path:?}");
                    }
                    prop_assert!(c.confirmed != UNCONFIRMED && c.confirmed <= version);
                    if c.confirmed == version {
                        for hop in path.windows(2) {
                            prop_assert!(
                                w.net.is_link(hop[0], hop[1]),
                                "confirmed path {path:?} has a dead hop {hop:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// A hint-less sweep that mixes node and resource slots of three sources
/// (so each source's walk memo serves both goals) equals one query at a
/// time, calm and under crashes and an open partition, at one and four
/// shards: outcomes in slot order and the message totals.
#[test]
fn a_sweep_mixing_goals_of_repeated_sources_equals_single_queries() {
    let mut reg = ResourceRegistry::new(150, 3);
    for (r, host) in [(0, 9), (1, 70), (1, 131), (2, 44)] {
        reg.add_host(ResourceId(r), NodeId::new(host));
    }
    let asks: Vec<(NodeId, Goal<'_>)> = (0..120u32)
        .map(|i| {
            let source = NodeId::new([3, 77, 140][(i * 7 % 3) as usize]);
            let goal = match i % 4 {
                0 => Goal::Resource(&reg, ResourceId(i % 3)),
                _ => Goal::Node(NodeId::new(i * 37 % 150)),
            };
            (source, goal)
        })
        .collect();
    for faulted in [false, true] {
        for shards in [1, 4] {
            let mut w = CardWorld::build(&scenario(), cfg().with_depth(3));
            w.set_shard_count(shards);
            w.select_all_contacts();
            if faulted {
                w.enable_faults(FaultPlan::generate(&fault_cfg(), 150, 99));
                w.validation_round();
                w.validation_round();
                let state = w.fault_state().expect("armed");
                assert!(state.down_count() > 0 && state.partition_active());
            }
            let mut singles = w.clone();
            let expected: Vec<QueryOutcome> = asks
                .iter()
                .map(|&(s, goal)| match goal {
                    Goal::Node(t) => singles.sweep_one(s, t),
                    Goal::Resource(reg, r) => singles.query_resource(reg, s, r),
                })
                .collect();
            let mut out = vec![QueryOutcome::MISS; asks.len()];
            w.sweep(&asks, &mut out);
            let at = format!("faulted {faulted}, {shards} shards");
            assert_eq!(out, expected, "{at}");
            assert_eq!(w.fingerprint().diff(&singles.fingerprint()), None, "{at}");
        }
    }
}

/// A sweep's walk memos die with its frozen view. One lane and one source
/// per sweep: a memo kept past the first sweep would answer the second
/// from the contact tree before the motion and the validation round.
/// Both sweeps must equal the free query on a fresh scratch.
#[test]
fn a_walk_memo_never_outlives_its_view_across_sweeps() {
    let mut w = CardWorld::build(&scenario(), cfg().with_depth(3));
    w.set_shard_count(1);
    w.select_all_contacts();
    let source = NodeId::new(0);
    let pairs: Vec<(NodeId, NodeId)> = NodeId::all(150).map(|t| (source, t)).collect();
    let fresh = |w: &CardWorld| -> Vec<QueryOutcome> {
        let mut stats = MsgStats::new(SimDuration::from_secs(1));
        pairs
            .iter()
            .map(|&(s, t)| {
                let tables = w.contact_tables();
                let scratch = &mut QueryScratch::new();
                dsq_query(
                    w.network(),
                    tables,
                    None,
                    s,
                    t,
                    3,
                    &mut stats,
                    w.now(),
                    scratch,
                )
            })
            .collect()
    };
    let reach = |w: &CardWorld| reachability_set(w.network(), w.contact_tables(), source, 3);
    let before = w.query_all(&pairs);
    assert_eq!(before, fresh(&w));
    let reach_before = reach(&w);
    let mut model = RandomWaypoint::new(
        150,
        w.network().field(),
        5.0,
        20.0,
        0.0,
        SeedSplitter::new(7).stream("mobility", 0),
    );
    w.run_mobile(&mut model, SimDuration::from_secs(6));
    w.validation_round();
    assert_ne!(reach(&w), reach_before, "the source's contact tree moved");
    assert_eq!(w.query_all(&pairs), fresh(&w));
}
