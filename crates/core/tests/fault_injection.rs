//! Differential harness pinning the fault-injection plane.
//!
//! The determinism contract extends to hostile regimes: a faulted run —
//! node crashes and rejoins, a region-scoped partition window, per-message
//! drop/delay on the deposit plane — is **bit-identical** across protocol
//! shard counts, across the serial and parallel validation paths (the
//! worker axis: the parallel path fans out over the `sim_core::par` pool,
//! the serial path runs the same spans inline), and between the tick and
//! event drive modes. Faults are applied on the ValidationRound lattice
//! and every verdict is keyed on message *content* hashed with the plan
//! seed, so the whole fault history is a pure function of `(seed, plan)`.
//!
//! The chaos proptests draw random fault regimes and assert the same
//! invariants hold for all of them: bit-identical replay, a closed plane
//! ledger (`sent == local + cross_shard + dropped + deferred`), zero
//! tombstone-liveness violations, and zero grid-residency violations for
//! tombstoned/rejoined nodes.

use card_core::prelude::*;
use card_core::resources::distribute;
use mobility::walk::RandomWalk;
use net_topology::geometry::Point2;
use net_topology::node::NodeId;
use net_topology::scenario::Scenario;
use proptest::prelude::*;
use sim_core::faults::{FaultConfig, FaultPlan, PartitionWindow};
use sim_core::rng::SeedSplitter;
use sim_core::time::{SimDuration, SimTime};

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

/// The acceptance regime: crashes with rejoins, one partition window,
/// 1% drop and 1% delay on the plane.
fn hostile() -> FaultConfig {
    FaultConfig {
        churn_rate: 0.15,
        rejoin_after: 2,
        partition: Some(PartitionWindow {
            start_round: 1,
            end_round: 3,
            fraction: 0.5,
        }),
        drop_rate: 0.01,
        delay_rate: 0.01,
        rounds: 6,
    }
}

/// One dwell-heavy mobility partition; identical arguments build
/// bit-identical models.
fn model(seed: u64, field: net_topology::geometry::Field) -> mobility::RegionalMobility {
    let mut m = mobility::RegionalMobility::new();
    let stream = SeedSplitter::new(seed).stream("mobility", 0);
    m.push_region(
        NODES,
        Box::new(RandomWalk::new_with_dwell(
            NODES, field, 0.5, 2.0, 2.0, 0.9, stream,
        )),
    );
    m
}

fn workload(seed: u64, horizon_ms: u64) -> Vec<Arrival> {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    (0..12u32)
        .map(|_| {
            let at = SimDuration::from_millis(next() % horizon_ms.max(1));
            let source = NodeId::new((next() % NODES as u64) as u32);
            let target = NodeId::new((next() % NODES as u64) as u32);
            Arrival {
                at,
                kind: ArrivalKind::Query { source, target },
            }
        })
        .collect()
}

/// Shard-invariant observable state (plane totals are projected: the
/// local/cross split and metered crossings depend on shard boundaries).
#[derive(Debug, PartialEq)]
struct Snapshot {
    now: SimTime,
    positions: Vec<Point2>,
    contacts: Vec<Vec<(NodeId, Vec<NodeId>)>>,
    tombstones: Vec<Vec<(NodeId, u32)>>,
    msg_series: Vec<u64>,
    maintenance: card_core::world::MaintenanceTotals,
    hint_stats: HintStats,
    fault_report: FaultReport,
    plane_totals: (u64, u64, u64, u64),
    deferred: usize,
    pending_retries: usize,
}

fn snapshot(w: &CardWorld) -> Snapshot {
    let ps = w.plane_stats();
    Snapshot {
        now: w.now(),
        positions: w.network().positions().to_vec(),
        contacts: w
            .contact_tables()
            .iter()
            .map(|t| {
                t.contacts()
                    .iter()
                    .map(|c| (c.id, c.path.clone()))
                    .collect()
            })
            .collect(),
        tombstones: w
            .contact_tables()
            .iter()
            .map(|t| t.tombstones().to_vec())
            .collect(),
        msg_series: w.stats().series_where(|_| true),
        maintenance: w.maintenance_totals().clone(),
        hint_stats: w.hint_stats().clone(),
        fault_report: w.fault_report(),
        plane_totals: (ps.sent, ps.dropped, ps.delayed, ps.local + ps.cross_shard),
        deferred: w.plane_deferred_pending(),
        pending_retries: w.pending_query_retries(),
    }
}

fn world(seed: u64, shards: usize, hints: bool) -> CardWorld {
    let mut w = CardWorld::build(&scenario(), cfg(seed));
    w.set_hints_enabled(hints);
    w.set_shard_count(shards);
    w.select_all_contacts();
    w
}

/// Drive a faulted world through the full mobile pipeline and return its
/// observable state plus workload outcomes.
fn drive_faulted(
    seed: u64,
    shards: usize,
    mode: DriveMode,
    fault_cfg: &FaultConfig,
    hints: bool,
) -> (Snapshot, Vec<QueryOutcome>) {
    let mut w = world(seed, shards, hints);
    w.enable_faults(FaultPlan::generate(fault_cfg, NODES, seed ^ 0xfa17));
    let mut m = model(seed, w.network().field());
    // Validation rounds ride the 1 s lattice: 7.6 s covers rounds 0..=7,
    // so every crash in [1, 6] fires and early crashes rejoin in-run.
    let horizon_ms = 7600u64;
    let mut driver = EventDriver::new(&w, &m, mode, workload(seed, horizon_ms));
    driver.drive(&mut w, &mut m, SimDuration::from_millis(horizon_ms));
    assert_eq!(driver.report().audit_violations, 0);
    // Single queries apply hint deposits in place; only batched sweeps
    // route them through the (lossy) message plane. Two sweeps exercise
    // drop/delay verdicts and the deferred-delivery lane.
    let mut outcomes = driver.report().outcomes.clone();
    let pairs: Vec<(NodeId, NodeId)> = (0..48u32)
        .map(|i| {
            (
                NodeId::new(i % NODES as u32),
                NodeId::new((i * 29 + 7) % NODES as u32),
            )
        })
        .collect();
    for _ in 0..2 {
        outcomes.extend(w.query_all(&pairs));
        w.validation_round();
    }
    (snapshot(&w), outcomes)
}

/// The acceptance pin: crash + partition + 1% loss, bit-identical across
/// {1, 2, 4} shards × {tick, event} drivers over the mobile pipeline.
#[test]
fn hostile_run_is_bit_identical_across_shards_and_drivers() {
    let seed = 4242;
    let reference = drive_faulted(seed, 1, DriveMode::Tick, &hostile(), true);
    assert!(
        reference.0.fault_report.crashes > 0,
        "plan must crash someone"
    );
    assert!(reference.0.fault_report.rejoins > 0, "rejoins must fire");
    assert_eq!(reference.0.fault_report.partitions_opened, 1);
    assert_eq!(reference.0.fault_report.partitions_healed, 1);
    assert_eq!(reference.0.fault_report.liveness_violations, 0);
    assert_eq!(reference.0.fault_report.grid_audit_violations, 0);
    assert!(
        reference.0.plane_totals.1 + reference.0.plane_totals.2 > 0,
        "a lossy plan should drop or delay at least one deposit"
    );
    for shards in [1usize, 2, 4] {
        for mode in [DriveMode::Tick, DriveMode::Event] {
            if shards == 1 && mode == DriveMode::Tick {
                continue;
            }
            let run = drive_faulted(seed, shards, mode, &hostile(), true);
            assert_eq!(
                run, reference,
                "faulted run diverged at {shards} shards, {mode:?}"
            );
        }
    }
}

/// The serial validation path (the one-worker axis) replays the same
/// fault history as the parallel path on a static world.
#[test]
fn serial_and_parallel_validation_agree_under_faults() {
    let seed = 77;
    let run = |shards: usize, serial: bool| {
        let mut w = world(seed, shards, true);
        w.enable_faults(FaultPlan::generate(&hostile(), NODES, seed));
        let pairs: Vec<(NodeId, NodeId)> = (0..24u32)
            .map(|i| {
                (
                    NodeId::new(i % NODES as u32),
                    NodeId::new((i * 41 + 3) % NODES as u32),
                )
            })
            .collect();
        let mut outcomes = Vec::new();
        for _ in 0..6 {
            if serial {
                w.validation_round_serial();
            } else {
                w.validation_round();
            }
            outcomes.push(w.query_all(&pairs));
        }
        (snapshot(&w), outcomes)
    };
    let reference = run(1, true);
    for (shards, serial) in [(1, false), (2, true), (2, false), (4, true), (4, false)] {
        assert_eq!(
            run(shards, serial),
            reference,
            "diverged at {shards} shards, serial={serial}"
        );
    }
}

/// Everything a null plan must leave untouched: the world snapshot (its
/// fault report blanked — an armed plan counts applied rounds), the
/// standing table and every outcome handed back along the way.
type NullRun = (Snapshot, StandingQueries, Vec<QueryOutcome>);

/// One world through every query and maintenance entry point — selection,
/// four driven rounds with query and standing arrivals, a single query, a
/// sweep with hints off, a cold and a warm sweep with hints on, resource
/// queries, a fresh standing registration and one direct round —
/// optionally armed with a plan that schedules nothing.
fn drive_null(seed: u64, shards: usize, mode: DriveMode, armed: bool) -> NullRun {
    let mut w = CardWorld::build(&scenario(), cfg(seed).with_query_retry_cap(0));
    w.set_shard_count(shards);
    if armed {
        w.enable_faults(FaultPlan::calm(seed));
    }
    w.select_all_contacts();
    let mut m = model(seed, w.network().field());
    // Rounds ride the 1 s lattice: 3.6 s covers rounds 0..=3.
    let horizon_ms = 3600u64;
    let mut arrivals = workload(seed, horizon_ms);
    arrivals.push(Arrival {
        at: SimDuration::from_millis(500),
        kind: ArrivalKind::Standing {
            source: NodeId::new((seed % NODES as u64) as u32),
            target: NodeId::new(((seed / 7 + 61) % NODES as u64) as u32),
        },
    });
    let mut driver = EventDriver::new(&w, &m, mode, arrivals);
    driver.drive(&mut w, &mut m, SimDuration::from_millis(horizon_ms));
    let mut outcomes = driver.report().outcomes.clone();
    let pairs: Vec<(NodeId, NodeId)> = (0..48u32)
        .map(|i| {
            (
                NodeId::new(i % NODES as u32),
                NodeId::new((i * 29 + 7) % NODES as u32),
            )
        })
        .collect();
    outcomes.push(w.query(pairs[5].0, pairs[5].1));
    outcomes.extend(w.query_all(&pairs));
    w.set_hints_enabled(true);
    outcomes.extend(w.query_all(&pairs));
    outcomes.extend(w.query_all(&pairs));
    let registry = distribute(
        w.network(),
        6,
        ResourceDistribution::UniformReplicated { replicas: 2 },
        &mut SeedSplitter::new(seed).stream("resources", 0),
    );
    for r in 0..6u32 {
        let source = NodeId::new(r * 17 % NODES as u32);
        outcomes.push(w.query_resource(&registry, source, ResourceId(r)));
    }
    w.standing_register(pairs[9].0, pairs[9].1);
    w.validation_round();
    let mut snap = snapshot(&w);
    snap.fault_report = FaultReport::default();
    (snap, w.standing_queries().clone(), outcomes)
}

/// `CardWorld::query_resource` under an armed plan: a resource whose only
/// host is crashed cannot be answered — not even from the asker's own
/// zone, whose table still lists the silent host — a host across an open
/// partition is out of reach, and both come back with the rejoin and the
/// heal.
#[test]
fn resource_queries_honour_the_fault_plan() {
    // Every victim crashes at round 1 and rejoins at round 3; the
    // partition is open over rounds 4 and 5.
    let plan = FaultPlan::generate(
        &FaultConfig {
            churn_rate: 0.05,
            rejoin_after: 2,
            partition: Some(PartitionWindow {
                start_round: 4,
                end_round: 6,
                fraction: 0.5,
            }),
            drop_rate: 0.0,
            delay_rate: 0.0,
            rounds: 1,
        },
        NODES,
        9,
    );
    let mut w = world(9, 2, false);
    let zone_mate = |w: &CardWorld, host: NodeId, ok: &dyn Fn(NodeId) -> bool| {
        let zone = w.network().tables().of(host);
        zone.iter_members().find(|&m| m != host && ok(m))
    };
    let victims: Vec<usize> = plan.events().iter().map(|e| e.node as usize).collect();
    let host = NodeId::from(victims[0]);
    let source = zone_mate(&w, host, &|m| !victims.contains(&m.index()))
        .expect("the host has a neighbor that stays up");
    let mut registry = ResourceRegistry::new(NODES, 2);
    registry.add_host(ResourceId(0), host);
    w.enable_faults(plan);

    w.validation_round(); // round 0: calm
    assert_eq!(
        w.query_resource(&registry, source, ResourceId(0)),
        QueryOutcome::LOCAL_HIT
    );
    w.validation_round(); // round 1: the only host crashes
    assert!(w.fault_state().unwrap().is_down(host.index()));
    let down = w.query_resource(&registry, source, ResourceId(0));
    assert!(!down.found, "a crashed host must not answer");
    assert_eq!(down.reply_msgs, 0);
    let silent = w.query_resource(&registry, host, ResourceId(0));
    assert_eq!(silent, QueryOutcome::MISS, "a crashed source asks nothing");
    assert_eq!(w.pending_query_retries(), 0, "resource queries never retry");
    w.validation_round();
    w.validation_round(); // round 3: the host rejoins
    assert_eq!(
        w.query_resource(&registry, source, ResourceId(0)),
        QueryOutcome::LOCAL_HIT
    );

    w.validation_round(); // round 4: the partition opens
    let sides = w.fault_state().unwrap().sides().expect("open").to_vec();
    let (asker, far_host) = NodeId::all(NODES)
        .find_map(|h| zone_mate(&w, h, &|m| sides[m.index()] != sides[h.index()]).map(|a| (a, h)))
        .expect("some zone straddles the cut");
    registry.add_host(ResourceId(1), far_host);
    let cut = w.query_resource(&registry, asker, ResourceId(1));
    assert!(!cut.found, "a host across an open partition is unreachable");
    assert_eq!(cut.reply_msgs, 0);
    w.validation_round();
    w.validation_round(); // round 6: the cut heals
    assert_eq!(
        w.query_resource(&registry, asker, ResourceId(1)),
        QueryOutcome::LOCAL_HIT
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Null plan ≡ no plan: arming a plan with no events, no partition
    /// window and a lossless plane (and no retry queue) changes nothing a
    /// run can observe — the fault stages of the one round, the one sweep
    /// and the one query body are exact no-ops on it, at any shard count
    /// and under either driver.
    #[test]
    fn prop_null_plan_is_bit_identical_to_no_plan(seed in 1u64..1_000_000) {
        for shards in [1usize, 4] {
            for mode in [DriveMode::Tick, DriveMode::Event] {
                prop_assert_eq!(
                    drive_null(seed, shards, mode, true),
                    drive_null(seed, shards, mode, false),
                    "null plan diverged at {} shards, {:?}",
                    shards,
                    mode
                );
            }
        }
    }

    /// Chaos differential: random fault regimes replay bit-identically
    /// across shard counts and drive modes, with a closed plane ledger
    /// and zero liveness/grid violations.
    #[test]
    fn prop_chaos_regimes_replay_bit_identically(
        seed in 1u64..1_000_000,
        churn_pct in 0u32..30,
        rejoin_after in 0u32..4,
        has_partition in any::<bool>(),
        drop_pct in 0u32..10,
        delay_pct in 0u32..10,
        shards in 2usize..6,
        hints in any::<bool>(),
    ) {
        let fault_cfg = FaultConfig {
            churn_rate: churn_pct as f64 / 100.0,
            rejoin_after,
            partition: has_partition.then_some(PartitionWindow {
                start_round: 1,
                end_round: 3,
                fraction: 0.4,
            }),
            drop_rate: drop_pct as f64 / 100.0,
            delay_rate: delay_pct as f64 / 100.0,
            rounds: 5,
        };
        let reference = drive_faulted(seed, 1, DriveMode::Tick, &fault_cfg, hints);
        let other = drive_faulted(seed, shards, DriveMode::Event, &fault_cfg, hints);
        prop_assert_eq!(&other, &reference, "chaos run diverged");
        // No tombstoned contact outlives its TTL; tombstoned/rejoined
        // nodes stay resident in their grid cells.
        prop_assert_eq!(reference.0.fault_report.liveness_violations, 0);
        prop_assert_eq!(reference.0.fault_report.grid_audit_violations, 0);
        // The plane ledger closes with faulted deliveries accounted.
        let (sent, dropped, _delayed, delivered) = reference.0.plane_totals;
        prop_assert_eq!(
            sent,
            delivered + dropped + reference.0.deferred as u64,
            "plane ledger must account drops and deferrals"
        );
    }
}
