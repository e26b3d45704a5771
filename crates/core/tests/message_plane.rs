//! Proptest harness pinning the cross-shard message plane's delivery
//! contract: what the protocol routes through the plane — hint deposits
//! drained in `(dst shard, src shard, seq)` order — and what it meters
//! against it (validation traffic) must be **bit-identical** across
//! protocol shard counts (including the one-shard degenerate case and
//! more shards than nodes) and across
//! worker participation (the `*_serial` sweeps run the same rounds
//! inline on one thread; the parallel sweeps fan out over the worker
//! pool — the pool size itself is fixed per host, so serial-vs-pool is
//! the worker axis a single process can vary).
//!
//! The observables compared are the ones the plane could corrupt if its
//! ordering ever leaked scheduling: contact tables (ids *and* paths),
//! the bucketed message-statistics series, maintenance totals, query
//! outcomes entry for entry, and the hint store's observable state
//! (counters, live-slot count, epoch — plus a probe sweep, which reads
//! every slot that matters through the cache).

use card_core::prelude::*;
use card_core::world::MaintenanceTotals;
use net_topology::node::NodeId;
use net_topology::scenario::Scenario;
use proptest::prelude::*;
use sim_core::faults::{FaultConfig, FaultPlan, PartitionWindow};

const NODES: usize = 140;

fn scenario() -> Scenario {
    Scenario::new(NODES, 500.0, 500.0, 60.0)
}

fn world(seed: u64, hints: bool) -> CardWorld {
    let cfg = CardConfig::default()
        .with_radius(2)
        .with_max_contact_distance(8)
        .with_target_contacts(4)
        .with_depth(3)
        .with_seed(seed);
    let mut w = CardWorld::build(&scenario(), cfg);
    w.set_hints_enabled(hints);
    w
}

fn pairs(seed: u64, count: usize) -> Vec<(NodeId, NodeId)> {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    (0..count)
        .map(|_| {
            (
                NodeId::new((next() % NODES as u64) as u32),
                NodeId::new((next() % NODES as u64) as u32),
            )
        })
        .collect()
}

/// Everything the plane could corrupt, captured after a protocol run.
#[derive(Debug, PartialEq)]
struct Trace {
    contacts: Vec<Vec<(NodeId, Vec<NodeId>)>>,
    msg_series: Vec<u64>,
    maintenance: MaintenanceTotals,
    cold: Vec<QueryOutcome>,
    warm: Vec<QueryOutcome>,
    hint_stats: HintStats,
    hint_len: Option<usize>,
    hint_epoch: Option<u32>,
}

/// Run the full protocol — selection, two validation rounds, a cold and
/// a warm query sweep — on `shards` shards. `serial` switches selection
/// and validation to their `*_serial` references (same rounds, one
/// thread, no fan-out); the query sweeps always run through `query_all`
/// so both modes keep the sweep's frozen-batch hint semantics (the
/// one-at-a-time `query_all_serial` deliberately differs with hints on:
/// each query's deposits become visible to the *next* query in the
/// batch — that reference is pinned hints-off in `tests/hint_cache.rs`).
fn trace(seed: u64, hints: bool, shards: usize, serial: bool) -> Trace {
    let mut w = world(seed, hints);
    w.set_shard_count(shards);
    let workload = pairs(seed ^ 0xbeef, 48);
    if serial {
        w.select_all_contacts_serial();
        w.validation_round_serial();
        w.validation_round_serial();
    } else {
        w.select_all_contacts();
        w.validation_round();
        w.validation_round();
    }
    let cold = w.query_all(&workload);
    let warm = w.query_all(&workload);
    // Plane accounting must always balance — faulted deliveries (drops
    // and the deferred lane) are part of the ledger, and on this calm
    // world both fault legs are zero. One shard can never cross a
    // boundary.
    let ps = w.plane_stats();
    assert_eq!(
        ps.sent,
        ps.cross_shard + ps.local + ps.dropped + w.plane_deferred_pending() as u64,
        "plane ledger"
    );
    assert_eq!((ps.dropped, ps.delayed), (0, 0), "calm world never faults");
    if w.shard_count() == 1 {
        assert_eq!(ps.cross_shard, 0, "one shard has no boundary to cross");
    }
    Trace {
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
        msg_series: w.stats().series_where(|_| true),
        maintenance: w.maintenance_totals().clone(),
        cold,
        warm,
        hint_stats: w.hint_stats().clone(),
        hint_len: w.hint_store().map(|s| s.len()),
        hint_epoch: w.hint_store().map(|s| s.epoch()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline invariance: for random seeds, any shard count
    /// (1, a few, many, more-than-N) and either worker mode produces the
    /// exact trace of the one-shard serial reference.
    #[test]
    fn prop_plane_delivery_is_shard_and_worker_invariant(
        seed in 1u64..1_000_000,
        shards_ix in 0usize..7,
        serial in any::<bool>(),
        hints in any::<bool>(),
    ) {
        let shards = [1usize, 2, 3, 5, 6, 32, NODES + 9][shards_ix];
        let reference = trace(seed, hints, 1, true);
        let candidate = trace(seed, hints, shards, serial);
        prop_assert_eq!(
            candidate, reference,
            "shards={} serial={} hints={} diverged from the 1-shard serial reference",
            shards, serial, hints
        );
    }

    /// Hint deposits routed through the plane build the same cache as
    /// depositing in pair order directly: resharding *mid-run* (state
    /// migrated slot by slot) must not disturb a single counter of a
    /// subsequent warm sweep.
    #[test]
    fn prop_deposits_survive_mid_run_reshard(
        seed in 1u64..1_000_000,
        before_ix in 0usize..5,
        after_ix in 0usize..6,
    ) {
        let before = [1usize, 2, 3, 4, 5][before_ix];
        let after = [1usize, 3, 4, 6, 7, NODES + 1][after_ix];
        let workload = pairs(seed ^ 0xcafe, 48);
        let run = |reshard: Option<usize>| {
            let mut w = world(seed, true);
            w.set_shard_count(before);
            w.select_all_contacts();
            let cold = w.query_all(&workload); // deposits route via plane
            if let Some(k) = reshard {
                w.set_shard_count(k); // migrates hint slots + LRU clocks
            }
            w.reset_hint_stats();
            let warm = w.query_all(&workload);
            (cold, warm, w.hint_stats().clone(),
             w.hint_store().map(|s| (s.len(), s.epoch())))
        };
        let stayed = run(None);
        let moved = run(Some(after));
        prop_assert_eq!(&stayed.0, &moved.0, "cold sweeps ran identically");
        prop_assert_eq!(&stayed.1, &moved.1, "warm outcomes survive reshard");
        prop_assert_eq!(&stayed.2, &moved.2, "hint counters survive reshard");
        prop_assert_eq!(stayed.3, moved.3, "live slots + epoch survive reshard");
    }

    /// Reshard *under churn*: `set_shard_count` fired between a lossy
    /// sweep and the next round, while the plane's deferred lane may hold
    /// fault-delayed deposits and contact tables carry live tombstone,
    /// retry-backoff and fruitless-round state. The migrated world must
    /// finish the run bit-identically to one that never resharded —
    /// deferred messages are re-injected with their verdicts already
    /// spent, so no message draws a second verdict.
    #[test]
    fn prop_reshard_under_churn_preserves_faulted_trace(
        seed in 1u64..1_000_000,
        before_ix in 0usize..4,
        after_ix in 0usize..5,
        churn_pct in 0u32..25,
        drop_pct in 1u32..12,
        delay_pct in 1u32..12,
    ) {
        let before = [1usize, 2, 3, 5][before_ix];
        let after = [1usize, 2, 4, 6, NODES + 1][after_ix];
        let plan = lossy_plan(seed, churn_pct, drop_pct, delay_pct);
        let workload = pairs(seed ^ 0xd00d, 48);
        let (stayed, _) = lossy_run(seed, &plan, &workload, before, None);
        let (moved, _) = lossy_run(seed, &plan, &workload, before, Some(after));
        prop_assert_eq!(&stayed, &moved, "reshard under churn changed the run");
        // The ledger closes on both sides of the migration.
        let (sent, dropped, _delayed, delivered) = stayed.7;
        prop_assert_eq!(sent, delivered + dropped + stayed.8 as u64, "plane ledger");
    }

    /// The same lossy, resharded run on a skewed workload — a handful of
    /// resolvable pairs repeated to a few hundred queries — where the
    /// deposit logs combine repeats into runs: each run draws one verdict
    /// and is dropped, delayed (and migrated) or delivered whole, so the
    /// trace still ignores the shard count before and after the reshard,
    /// and the ledger still counts every logical deposit.
    #[test]
    fn prop_skewed_lossy_sweeps_survive_reshard(
        seed in 1u64..1_000_000,
        before_ix in 0usize..4,
        after_ix in 0usize..5,
        churn_pct in 0u32..25,
        drop_pct in 1u32..12,
        delay_pct in 1u32..12,
        block in 1usize..16,
    ) {
        let before = [1usize, 2, 3, 5][before_ix];
        let after = [1usize, 2, 4, 6, NODES + 1][after_ix];
        let plan = lossy_plan(seed, churn_pct, drop_pct, delay_pct);
        let workload = skewed_pairs(seed, block, 240);
        let (stayed, envelopes) = lossy_run(seed, &plan, &workload, before, None);
        let (moved, _) = lossy_run(seed, &plan, &workload, before, Some(after));
        let (other, _) = lossy_run(seed, &plan, &workload, 1, Some(before));
        prop_assert_eq!(&stayed, &moved, "reshard changed the skewed run");
        prop_assert_eq!(&stayed, &other, "shard counts changed the skewed run");
        let (sent, dropped, _delayed, delivered) = stayed.7;
        prop_assert_eq!(sent, delivered + dropped + stayed.8 as u64, "plane ledger");
        prop_assert!(
            envelopes < sent,
            "runs must combine: {} envelopes for {} deposits", envelopes, sent
        );
    }
}

/// The hostile plan of the lossy-run proptests: churn, a partition window
/// over rounds 1–3, and per-message drop and delay.
fn lossy_plan(seed: u64, churn_pct: u32, drop_pct: u32, delay_pct: u32) -> FaultPlan {
    let fault_cfg = FaultConfig {
        churn_rate: churn_pct as f64 / 100.0,
        rejoin_after: 1,
        partition: Some(PartitionWindow {
            start_round: 1,
            end_round: 3,
            fraction: 0.5,
        }),
        drop_rate: drop_pct as f64 / 100.0,
        delay_rate: delay_pct as f64 / 100.0,
        rounds: 4,
    };
    FaultPlan::generate(&fault_cfg, NODES, seed ^ 0xfa)
}

/// Five pairs that a calm, selected world resolves beyond the source's
/// zone (so they deposit hints), repeated to `len` queries in blocks of
/// `block`: block 1 interleaves them, longer blocks form runs.
fn skewed_pairs(seed: u64, block: usize, len: usize) -> Vec<(NodeId, NodeId)> {
    let mut w = world(seed, false);
    w.select_all_contacts();
    let candidates = pairs(seed ^ 0x5eed, 96);
    let outs = w.query_all(&candidates);
    let handful: Vec<(NodeId, NodeId)> = candidates
        .iter()
        .zip(&outs)
        .filter(|(_, o)| o.found && o.depth_used > 0)
        .map(|(&p, _)| p)
        .take(5)
        .collect();
    assert!(!handful.is_empty(), "seed {seed}: no resolvable pair");
    (0..len)
        .map(|i| handful[(i / block) % handful.len()])
        .collect()
}

/// Everything a lossy run leaves that the plane could corrupt: outcomes,
/// contact tables with tombstones, message series, maintenance, hint and
/// fault counters, the shard-invariant plane projection, deferred
/// deposits and pending retries.
type LossyTrace = (
    Vec<QueryOutcome>,
    Vec<QueryOutcome>,
    Vec<(Vec<(NodeId, Vec<NodeId>)>, Vec<(NodeId, u32)>)>,
    Vec<u64>,
    MaintenanceTotals,
    HintStats,
    FaultReport,
    (u64, u64, u64, u64),
    usize,
    usize,
);

/// Selection, a faulted round, a lossy cold sweep, an optional reshard
/// (while the deferred lane may hold delayed runs), a round, a warm
/// sweep and a round: the trace, plus the envelopes the plane moved
/// (which depend on the shard counts, so they stay out of the trace).
fn lossy_run(
    seed: u64,
    plan: &FaultPlan,
    workload: &[(NodeId, NodeId)],
    before: usize,
    reshard: Option<usize>,
) -> (LossyTrace, u64) {
    let mut w = world(seed, true);
    w.set_shard_count(before);
    w.select_all_contacts();
    w.enable_faults(plan.clone());
    w.validation_round();
    let cold = w.query_all(workload); // lossy: deposits drop/defer
    if let Some(k) = reshard {
        w.set_shard_count(k); // migrates deferred + queued messages
    }
    w.validation_round();
    let warm = w.query_all(workload);
    w.validation_round();
    let ps = w.plane_stats();
    let trace = (
        cold,
        warm,
        w.contact_tables()
            .iter()
            .map(|t| {
                (
                    t.contacts()
                        .iter()
                        .map(|c| (c.id, c.path.clone()))
                        .collect::<Vec<_>>(),
                    t.tombstones().to_vec(),
                )
            })
            .collect::<Vec<_>>(),
        w.stats().series_where(|_| true),
        w.maintenance_totals().clone(),
        w.hint_stats().clone(),
        w.fault_report(),
        // Shard-invariant plane projection: the local/cross split
        // moves with the boundaries, the totals may not.
        (ps.sent, ps.dropped, ps.delayed, ps.local + ps.cross_shard),
        w.plane_deferred_pending(),
        w.pending_query_retries(),
    );
    (trace, ps.envelopes)
}

/// Non-proptest smoke pinning the degenerate cases by name: one shard,
/// more shards than nodes, and a shard count equal to N.
#[test]
fn degenerate_shard_counts_agree_with_reference() {
    let reference = trace(4242, true, 1, true);
    for shards in [1usize, NODES, NODES + 17, 3] {
        for serial in [false, true] {
            assert_eq!(
                trace(4242, true, shards, serial),
                reference,
                "shards={shards} serial={serial}"
            );
        }
    }
}
