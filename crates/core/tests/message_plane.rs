//! Proptest harness pinning the hint-deposit exchange's delivery
//! contract: the deposits each hinted sweep drains into the store —
//! deferred runs first, then each lane's log in lane order — and the
//! validation traffic metered against the shard spans must be
//! **bit-identical** across protocol shard counts (including the
//! one-shard degenerate case and more shards than nodes), calm or lossy,
//! and across a mid-run reshard. The shard axis is also the worker axis: a
//! one-shard world runs every round and sweep inline on one thread, while
//! k shards fan out over the worker pool (the pool size itself is fixed
//! per host, so one shard vs k shards is the worker axis a single process
//! can vary).
//!
//! What is compared: the world's `CardWorld::fingerprint` — contact
//! tables, every hint slot (deposit order decides which hint keeps a
//! contested slot), the deposit ledger and the deferred runs, the message
//! series and the rest of world state — plus query outcomes entry for
//! entry, which are not world state, and the shard-invariant exchange
//! counters the fingerprint leaves out (`rounds`, `max_round_msgs`).

use card_core::prelude::*;
use card_core::world::{ExchangeStats, Fingerprint};
use net_topology::node::NodeId;
use net_topology::scenario::Scenario;
use proptest::prelude::*;
use sim_core::faults::{FaultConfig, FaultPlan, PartitionWindow};

const NODES: usize = 140;

fn scenario() -> Scenario {
    Scenario::new(NODES, 500.0, 500.0, 60.0)
}

fn config(seed: u64) -> CardConfig {
    CardConfig::default()
        .with_radius(2)
        .with_max_contact_distance(8)
        .with_target_contacts(4)
        .with_depth(3)
        .with_seed(seed)
}

fn world(seed: u64, hints: bool) -> CardWorld {
    let mut w = CardWorld::build(&scenario(), config(seed));
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

/// The exchange counters that do not depend on the shard count: `(sent,
/// dropped, delayed, rounds, max_round_msgs)`.
type Counters = (u64, u64, u64, u64, u64);

fn counters(ps: &ExchangeStats) -> Counters {
    (
        ps.sent,
        ps.dropped,
        ps.delayed,
        ps.rounds,
        ps.max_round_msgs,
    )
}

/// Everything the exchange could corrupt, captured after a protocol run:
/// the world's fingerprint, the cold and warm sweeps' outcomes and the
/// shard-invariant exchange counters.
type Trace = (Fingerprint, Vec<QueryOutcome>, Vec<QueryOutcome>, Counters);

/// Run the full protocol — selection, two validation rounds, a cold and
/// a warm query sweep — on `shards` shards (one shard: inline on the
/// caller's thread). The query sweeps run through `query_all`, so every
/// shard count keeps the sweep's frozen-batch hint semantics (one
/// `CardWorld::query` per pair deliberately differs with hints on: each
/// query's deposits become visible to the *next* query in the batch —
/// that equivalence is pinned hints-off in `tests/hint_cache.rs`).
fn trace(seed: u64, hints: bool, shards: usize) -> Trace {
    let mut w = world(seed, hints);
    w.set_shard_count(shards);
    let workload = pairs(seed ^ 0xbeef, 48);
    w.select_all_contacts();
    w.validation_round();
    w.validation_round();
    let cold = w.query_all(&workload);
    let warm = w.query_all(&workload);
    // The ledger must always balance — faulted deliveries (drops and the
    // deferred runs) are part of it, and on this calm world both fault
    // legs are zero. One shard can never cross a boundary.
    let ps = w.plane_stats();
    assert_eq!(
        ps.sent,
        ps.cross_shard + ps.local + ps.dropped + w.plane_deferred_pending() as u64,
        "deposit ledger"
    );
    assert_eq!((ps.dropped, ps.delayed), (0, 0), "calm world never faults");
    if w.shard_count() == 1 {
        assert_eq!(ps.cross_shard, 0, "one shard has no boundary to cross");
    }
    (w.fingerprint(), cold, warm, counters(ps))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline invariance: for random seeds, any shard count
    /// (1, a few, many, more-than-N; one runs inline, the rest on the
    /// pool) produces the exact trace of the one-shard world.
    #[test]
    fn prop_plane_delivery_is_shard_and_worker_invariant(
        seed in 1u64..1_000_000,
        shards_ix in 0usize..7,
        hints in any::<bool>(),
    ) {
        let shards = [1usize, 2, 3, 5, 6, 32, NODES + 9][shards_ix];
        let reference = trace(seed, hints, 1);
        let candidate = trace(seed, hints, shards);
        prop_assert_eq!(
            candidate, reference,
            "shards={} hints={} diverged from the 1-shard reference",
            shards, hints
        );
    }

    /// Hint deposits drained after a sweep build the same cache whether or
    /// not the world reshards *mid-run*: a reshard must not disturb a
    /// single counter of a subsequent warm sweep.
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
            let cold = w.query_all(&workload); // deposits drain into the store
            if let Some(k) = reshard {
                w.set_shard_count(k); // re-cuts contact stores and lanes
            }
            w.reset_hint_stats();
            let warm = w.query_all(&workload);
            (cold, warm, w.fingerprint())
        };
        let stayed = run(None);
        let moved = run(Some(after));
        prop_assert_eq!(&stayed.0, &moved.0, "cold sweeps ran identically");
        prop_assert_eq!(&stayed.1, &moved.1, "warm outcomes survive reshard");
        prop_assert_eq!(&stayed.2, &moved.2, "hint slots and counters survive reshard");
    }

    /// Reshard *under churn*: `set_shard_count` fired between a lossy
    /// sweep and the next round, while the world may hold fault-delayed
    /// deposits and contact tables carry live tombstone, retry-backoff and
    /// fruitless-round state. The resharded world must finish the run
    /// bit-identically to one that never resharded — deferred runs keep
    /// their spent verdicts, so no deposit draws a second verdict.
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
    }

    /// The same lossy, resharded run on a skewed workload — a handful of
    /// resolvable pairs repeated to a few hundred queries — where the
    /// deposit logs combine repeats into runs: each run draws one verdict
    /// and is dropped, delayed (across the reshard) or delivered whole, so the
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
        let (stayed, ps) = lossy_run(seed, &plan, &workload, before, None);
        let (moved, _) = lossy_run(seed, &plan, &workload, before, Some(after));
        let (other, _) = lossy_run(seed, &plan, &workload, 1, Some(before));
        prop_assert_eq!(&stayed, &moved, "reshard changed the skewed run");
        prop_assert_eq!(&stayed, &other, "shard counts changed the skewed run");
        prop_assert!(
            ps.envelopes < ps.sent,
            "runs must combine: {} envelopes for {} deposits", ps.envelopes, ps.sent
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

/// What a lossy run leaves: the world's fingerprint (tables with
/// tombstones, hint slots, the deposit ledger and deferred deposits,
/// pending retries, all counters), the cold, warm and live outcomes and
/// the shard-invariant exchange counters.
type LossyTrace = (Fingerprint, [Vec<QueryOutcome>; 3], Counters);

/// Selection, a faulted round, a lossy cold sweep, six live queries (each
/// an exchange of its own: the first delivers the sweep's delayed runs
/// ahead of its own deposits, which draw verdicts too), an optional
/// reshard (while the world may hold runs the last live query delayed;
/// the fingerprint must not move across it), a round, a warm sweep and a
/// round: the trace, plus the exchange counters (whose envelopes and
/// local/cross split depend on the shard counts, so they stay out of the
/// trace). The ledger must close.
fn lossy_run(
    seed: u64,
    plan: &FaultPlan,
    workload: &[(NodeId, NodeId)],
    before: usize,
    reshard: Option<usize>,
) -> (LossyTrace, ExchangeStats) {
    let mut w = world(seed, true);
    w.set_shard_count(before);
    w.select_all_contacts();
    w.enable_faults(plan.clone());
    w.validation_round();
    let cold = w.query_all(workload); // lossy: deposits drop/defer
    let live: Vec<QueryOutcome> = workload[..6].iter().map(|&(s, t)| w.query(s, t)).collect();
    if let Some(k) = reshard {
        // A reshard is state-neutral in itself: it re-cuts the contact
        // stores and the lanes, and the deferred deposits stay put.
        let before = w.fingerprint();
        w.set_shard_count(k);
        assert_eq!(w.fingerprint().diff(&before), None, "reshard to {k}");
    }
    w.validation_round();
    let warm = w.query_all(workload);
    w.validation_round();
    let ps = w.plane_stats().clone();
    let delivered = ps.local + ps.cross_shard + ps.dropped;
    assert_eq!(ps.sent, delivered + w.plane_deferred_pending() as u64);
    ((w.fingerprint(), [cold, warm, live], counters(&ps)), ps)
}

/// Deferred runs take the same place in each holder's arrival order
/// whichever shard sent them. Half of a first sweep's deposits are
/// delayed into a second sweep of different pairs; with one slot per
/// bucket the arrival order at each holder decides which hint keeps a
/// contested slot, so every slot must match the one-shard run's at any
/// shard count. That the place is ahead of every fresh run is pinned by
/// the world's `deferred_runs_land_first_with_their_verdict_spent`.
#[test]
fn delayed_deposits_land_first_at_any_shard_count() {
    let run = |seed: u64, shards: usize| {
        let mut w = CardWorld::build(&scenario(), config(seed).with_hint_slots_per_bucket(1));
        w.set_hints_enabled(true);
        w.set_shard_count(shards);
        w.select_all_contacts();
        w.enable_faults(lossy_plan(seed, 0, 0, 50));
        let first = w.query_all(&pairs(seed ^ 0x1, 300));
        let second = w.query_all(&pairs(seed ^ 0x2, 300));
        let held = w.hint_stats().deposits > 0 && w.plane_deferred_pending() > 0;
        (
            w.fingerprint(),
            first,
            second,
            counters(w.plane_stats()),
            held,
        )
    };
    for seed in [11u64, 23, 37, 41, 53] {
        let reference = run(seed, 1);
        assert!(reference.4, "seed {seed}: nothing deposited or deferred");
        for shards in [2usize, 3, 5, 8] {
            assert_eq!(
                run(seed, shards),
                reference,
                "seed {seed}: {shards} shards diverged from 1"
            );
        }
    }
}

/// Non-proptest smoke pinning the degenerate cases by name: one shard,
/// more shards than nodes, and a shard count equal to N.
#[test]
fn degenerate_shard_counts_agree_with_reference() {
    let reference = trace(4242, true, 1);
    for shards in [1usize, NODES, NODES + 17, 3] {
        assert_eq!(trace(4242, true, shards), reference, "shards={shards}");
    }
}
