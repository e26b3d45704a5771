//! Correctness guarantees for the §V route-hint cache.
//!
//! The contracts pinned here (see `card_core::hints` and the hinted-sweep
//! section of `card_core::world`):
//!
//! 1. **cache-off bit-identity** — with hints disabled, `query_all` is
//!    bit-identical to one `CardWorld::query` per pair on a one-shard
//!    world: same outcomes, same world fingerprint (the `MsgStats` series
//!    included), at any shard count — and never consults the cache;
//! 2. **hints change cost, never answers** — across arbitrarily warmed
//!    repeat-heavy sweeps, every hinted outcome's `found` flag equals the
//!    cache-off verdict, and the whole hinted sweep (outcomes and world
//!    fingerprint: hint slots, counters, message series) is
//!    shard-count-invariant;
//! 3. **staleness is safe** — hints invalidated by TTL epochs or by
//!    mobility dirty-ball reports are misses, never forwards: a hint
//!    whose next hop is no longer a live contact of its holder falls back
//!    to the plain escalation with the identical outcome and cost, and
//!    churned worlds keep answer parity with an identically-evolved
//!    cache-off world;
//! 4. **runs are exact** — on duplicate-heavy sweeps, where the deposit
//!    logs combine repeats into counted runs, the sharded sweep equals a
//!    serial reference that applies every deposit one at a time;
//! 5. **one recorded entry per goal** — `dsq_query` and `resource_query`
//!    take the cache as an `Option`: over an empty store `Some` equals
//!    `None` and logs the resolved chain, and warmed resource hints keep
//!    every answer, calm or under a fault plan.

use card_manet::card::hints::{DepositLog, HintDeposit, HintKey, HintStats, HintStore};
use card_manet::card::query::{dsq_query, HintContext, QueryOutcome, QueryScratch};
use card_manet::card::resources::{
    distribute, resource_query, ResourceDistribution, ResourceId, ResourceRegistry,
};
use card_manet::card::world::CardWorld;
use card_manet::card::CardConfig;
use card_manet::mobility::waypoint::RandomWaypoint;
use card_manet::sim::faults::{FaultConfig, FaultPlan, PartitionWindow};
use card_manet::sim::rng::SeedSplitter;
use card_manet::sim::stats::MsgStats;
use card_manet::sim::time::SimDuration;
use card_manet::topology::node::NodeId;
use card_manet::topology::scenario::Scenario;
use proptest::prelude::*;

const NODES: usize = 140;

fn config(seed: u64) -> CardConfig {
    CardConfig::default()
        .with_radius(2)
        .with_max_contact_distance(8)
        .with_target_contacts(4)
        .with_depth(3)
        .with_seed(seed)
}

/// Build `cfg`'s world with the hint cache switched to `hints`, contacts
/// not yet selected.
fn build(cfg: CardConfig, hints: bool) -> CardWorld {
    let mut w = CardWorld::build(&Scenario::new(NODES, 460.0, 460.0, 55.0), cfg);
    w.set_hints_enabled(hints);
    w
}

fn world(seed: u64, hints: bool) -> CardWorld {
    let mut w = build(config(seed), hints);
    w.select_all_contacts();
    w
}

/// Map raw index pairs into node pairs, repeating the list `reps` times —
/// the repeat-heavy mix that makes caches matter.
fn repeat_pairs(raw: &[(usize, usize)], reps: usize) -> Vec<(NodeId, NodeId)> {
    let one: Vec<(NodeId, NodeId)> = raw
        .iter()
        .map(|&(s, t)| (NodeId::from(s % NODES), NodeId::from(t % NODES)))
        .collect();
    let mut all = Vec::with_capacity(one.len() * reps);
    for _ in 0..reps {
        all.extend_from_slice(&one);
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Contract 1: the cache-off sweep is bit-identical to one query at a
    /// time on a one-shard world, at any shard count.
    #[test]
    fn prop_cache_off_sweep_is_bit_identical(
        seed in 0u64..200,
        shards in 1usize..40,
        raw in proptest::collection::vec((0usize..NODES, 0usize..NODES), 1..40),
    ) {
        let pairs = repeat_pairs(&raw, 1);
        let mut reference = world(seed, false);
        reference.set_shard_count(1);
        let expected: Vec<_> = pairs.iter().map(|&(s, t)| reference.query(s, t)).collect();

        let mut off = world(seed, false);
        off.set_shard_count(shards);
        prop_assert_eq!(&off.query_all(&pairs), &expected);
        prop_assert_eq!(off.fingerprint(), reference.fingerprint());
        prop_assert_eq!(off.hint_stats().lookups, 0);
    }

    /// Contract 2: warmed hinted sweeps keep exact answer parity with the
    /// cache-off baseline, and the full hinted observable state (outcomes
    /// with costs, message series, hint counters) is shard-invariant.
    #[test]
    fn prop_hints_change_cost_never_answers(
        seed in 0u64..200,
        shards in 2usize..40,
        raw in proptest::collection::vec((0usize..NODES, 0usize..NODES), 1..20),
    ) {
        let pairs = repeat_pairs(&raw, 3);
        let mut base = world(seed, false);
        let verdicts: Vec<bool> = base
            .query_all(&pairs)
            .iter()
            .map(|o| o.found)
            .collect();

        let mut reference = world(seed, true);
        reference.set_shard_count(1);
        let mut sharded = world(seed, true);
        sharded.set_shard_count(shards);
        for sweep in 0..3 {
            let expected = reference.query_all(&pairs);
            for (o, &found) in expected.iter().zip(&verdicts) {
                prop_assert_eq!(
                    o.found, found,
                    "hint changed an answer on sweep {}", sweep
                );
            }
            let got = sharded.query_all(&pairs);
            prop_assert_eq!(&got, &expected, "outcomes diverged on sweep {}", sweep);
        }
        prop_assert_eq!(reference.fingerprint(), sharded.fingerprint());
    }

    /// Contract 3 (mobility): warm the cache, churn the topology, query
    /// again — the hinted world must agree on every answer with a
    /// cache-off world that evolved through the identical mobility,
    /// whatever mix of TTL expiry, dirty-ball eviction and stale-contact
    /// misses the churn produced.
    #[test]
    fn prop_churned_hints_keep_answer_parity(
        seed in 0u64..150,
        vmax in 2.0..18.0f64,
        raw in proptest::collection::vec((0usize..NODES, 0usize..NODES), 1..16),
    ) {
        let pairs = repeat_pairs(&raw, 2);
        let mut hinted = world(seed, true);
        let mut base = world(seed, false);
        // identical mobility on both worlds (queries draw no randomness,
        // so the warming sweep cannot desynchronize the evolutions)
        let mk = || RandomWaypoint::new(
            NODES,
            Scenario::new(NODES, 460.0, 460.0, 55.0).field(),
            1.0,
            vmax,
            0.0,
            SeedSplitter::new(seed).stream("hint-churn", 0),
        );
        let (mut mh, mut mb) = (mk(), mk());
        hinted.query_all(&pairs); // warm pre-churn
        hinted.run_mobile(&mut mh, SimDuration::from_secs(3));
        base.run_mobile(&mut mb, SimDuration::from_secs(3));
        let expected = base.query_all(&pairs);
        let got = hinted.query_all(&pairs);
        for (g, e) in got.iter().zip(&expected) {
            prop_assert_eq!(
                g.found, e.found,
                "post-churn answer diverged (vmax {})", vmax
            );
        }
        prop_assert!(hinted.hint_stats().lookups > 0);
    }
}

/// A handful of pairs that resolve beyond the source's zone (so they
/// deposit hints) out of `raw`, repeated to `len` queries in blocks of
/// `block`: block 1 interleaves the handful, longer blocks form runs.
fn duplicate_heavy(
    w: &CardWorld,
    raw: &[(usize, usize)],
    block: usize,
    len: usize,
) -> Vec<(NodeId, NodeId)> {
    let candidates = repeat_pairs(raw, 1);
    let mut probe = w.clone();
    probe.set_hints_enabled(false);
    let outs = probe.query_all(&candidates);
    let handful: Vec<(NodeId, NodeId)> = candidates
        .iter()
        .zip(&outs)
        .filter(|(_, o)| o.found && o.depth_used > 0)
        .map(|(&p, _)| p)
        .take(5)
        .collect();
    if handful.is_empty() {
        return handful;
    }
    (0..len)
        .map(|i| handful[(i / block) % handful.len()])
        .collect()
}

/// The serial reference of a hinted sweep: every query reads the store
/// as it stood before the sweep, then each logged deposit is applied
/// alone, copy by copy, in pair order — no runs, no lanes.
fn serial_hinted_sweep(
    w: &CardWorld,
    store: &mut HintStore,
    stats: &mut HintStats,
    pairs: &[(NodeId, NodeId)],
) -> Vec<QueryOutcome> {
    let mut scratch = QueryScratch::new();
    let mut msgs = MsgStats::new(SimDuration::from_secs(2));
    let mut queued = Vec::new();
    let mut log = DepositLog::new();
    let outs = pairs
        .iter()
        .map(|&(s, t)| {
            log.clear();
            let mut ctx = HintContext {
                store: &*store,
                stats: &mut *stats,
                deposits: &mut log,
            };
            let out = dsq_query(
                w.network(),
                w.contact_tables(),
                Some(&mut ctx),
                s,
                t,
                w.config().depth,
                &mut msgs,
                w.now(),
                &mut scratch,
            );
            for run in log.runs() {
                let one = HintDeposit { count: 1, ..*run };
                queued.extend(std::iter::repeat_n(one, run.count as usize));
            }
            out
        })
        .collect();
    for d in &queued {
        store.deposit(d, stats);
    }
    outs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Contract 4: duplicate-heavy sweeps (a handful of pairs repeated to
    /// a few hundred queries, one slot per bucket so runs evict) give the
    /// sharded hinted sweep the serial reference's outcomes, hint
    /// counters and store at 1, 2, 4 and 7 shards — while the exchange
    /// applies fewer runs (envelopes) than logical deposits.
    #[test]
    fn prop_duplicate_heavy_sweeps_equal_the_serial_reference(
        seed in 0u64..200,
        raw in proptest::collection::vec((0usize..NODES, 0usize..NODES), 24),
        block in 1usize..24,
        len in 150usize..400,
    ) {
        let cfg = config(seed).with_hint_slots_per_bucket(1);
        let mut base = build(cfg, true);
        base.select_all_contacts();
        let pairs = duplicate_heavy(&base, &raw, block, len);
        prop_assume!(!pairs.is_empty());

        let mut store = HintStore::new(NODES, cfg.hint_slots_per_bucket, cfg.hint_ttl);
        let mut stats = HintStats::default();
        let expected: Vec<Vec<QueryOutcome>> = (0..3)
            .map(|_| serial_hinted_sweep(&base, &mut store, &mut stats, &pairs))
            .collect();
        for shards in [1usize, 2, 4, 7] {
            let mut w = base.clone();
            w.set_shard_count(shards);
            for (sweep, want) in expected.iter().enumerate() {
                prop_assert_eq!(
                    &w.query_all(&pairs), want,
                    "sweep {} outcomes at {} shards", sweep, shards
                );
            }
            prop_assert_eq!(w.hint_stats(), &stats, "hint counters at {} shards", shards);
            prop_assert_eq!(
                w.hint_store(), Some(&store),
                "hint slots, clocks and counts at {} shards", shards
            );
            let ps = w.plane_stats();
            prop_assert_eq!(ps.sent, stats.deposits, "the ledger counts deposits");
            prop_assert!(
                ps.envelopes < ps.sent,
                "runs must combine: {} envelopes for {} deposits", ps.envelopes, ps.sent
            );
        }
    }
}

/// A fresh hint whose next hop has left the holder's contact table is a
/// `stale_contact` miss: no probe is launched down the dead edge and the
/// fallback walk reproduces the plain query bit for bit.
#[test]
fn stale_contact_hint_falls_back_to_the_plain_walk() {
    let w = world(11, false);
    let source = NodeId::all(NODES)
        .find(|&s| !w.contact_table(s).is_empty())
        .expect("some node has contacts");
    // a target the plain escalation resolves beyond the zone
    let nb = w.network().tables().of(source);
    let mut scratch = QueryScratch::new();
    let mut plain_stats = MsgStats::new(SimDuration::from_secs(2));
    let Some((target, plain)) = NodeId::all(NODES)
        .filter(|&t| !nb.contains(t))
        .find_map(|t| {
            let out = dsq_query(
                w.network(),
                w.contact_tables(),
                None,
                source,
                t,
                3,
                &mut plain_stats,
                w.now(),
                &mut scratch,
            );
            out.found.then_some((t, out))
        })
    else {
        panic!("no beyond-zone target resolvable from {source}");
    };
    // a next hop that is NOT a contact of the source
    let bogus = NodeId::all(NODES)
        .find(|&v| v != source && w.contact_table(source).get(v).is_none())
        .expect("source cannot have contacted everyone");
    let mut store = HintStore::new(NODES, 4, 32);
    let mut stats = HintStats::default();
    store.deposit(
        &HintDeposit::new(source, HintKey::node(target), bogus, 1),
        &mut stats,
    );

    let mut stats = HintStats::default();
    let mut deposits = DepositLog::new();
    let mut ctx = HintContext {
        store: &store,
        stats: &mut stats,
        deposits: &mut deposits,
    };
    let mut hinted_stats = MsgStats::new(SimDuration::from_secs(2));
    let hinted = dsq_query(
        w.network(),
        w.contact_tables(),
        Some(&mut ctx),
        source,
        target,
        3,
        &mut hinted_stats,
        w.now(),
        &mut scratch,
    );
    assert_eq!(hinted, plain, "stale-contact fallback must cost the same");
    assert!(
        stats.stale_contact >= 1,
        "the dead edge must be counted: {stats:?}"
    );
    assert_eq!(stats.probe_msgs, 0, "no probe may cross a dead edge");
    assert_eq!(
        hinted_stats.series_where(|_| true),
        plain_stats.series_where(|_| true),
        "message series must match the plain walk"
    );
}

/// A goal of the two recorded query entries.
#[derive(Clone, Copy, Debug)]
enum Goal {
    Node(NodeId),
    Resource(ResourceId),
}

/// Ask `goal` from `source` at depth 3 through its recorded entry —
/// `dsq_query` or `resource_query` — with the cache when one is given.
fn ask(
    w: &CardWorld,
    reg: &ResourceRegistry,
    source: NodeId,
    goal: Goal,
    cache: Option<(&HintStore, &mut HintStats, &mut DepositLog)>,
) -> QueryOutcome {
    let (net, tables, at) = (w.network(), w.contact_tables(), w.now());
    let mut ctx = cache.map(|(store, stats, deposits)| HintContext {
        store,
        stats,
        deposits,
    });
    let hints = ctx.as_mut();
    let (msgs, scratch) = (&mut MsgStats::default(), &mut QueryScratch::new());
    match goal {
        Goal::Node(t) => dsq_query(net, tables, hints, source, t, 3, msgs, at, scratch),
        Goal::Resource(r) => {
            resource_query(net, tables, reg, hints, source, r, 3, msgs, at, scratch)
        }
    }
}

/// A resolved beyond-zone query logs one deposit per hop of its chain
/// under the goal's key: from the source, each hop's next hop holding the
/// next deposit, remaining depth counting down to 1, ending at a node
/// whose zone answers. Anything else logs nothing.
fn assert_chain_logged(
    w: &CardWorld,
    reg: &ResourceRegistry,
    log: &DepositLog,
    out: &QueryOutcome,
    source: NodeId,
    goal: Goal,
) {
    let runs = log.runs();
    if !out.found || out.depth_used == 0 {
        assert!(runs.is_empty(), "{goal:?}: {out:?} logged {runs:?}");
        return;
    }
    let zone = w.network().tables().of(runs[runs.len() - 1].next_hop);
    let (key, answers) = match goal {
        Goal::Node(t) => (HintKey::node(t), zone.contains(t)),
        Goal::Resource(r) => (HintKey::resource(r), reg.hosted_in_neighborhood(r, zone)),
    };
    assert!(answers, "{goal:?}: the chain must end at an answer");
    assert_eq!(runs.len(), out.depth_used as usize, "one deposit per hop");
    assert_eq!(runs[0].holder, source);
    for (i, d) in runs.iter().enumerate() {
        assert_eq!((d.key, d.count, d.depth as usize), (key, 1, runs.len() - i));
        if let Some(next) = runs.get(i + 1) {
            assert_eq!(d.next_hop, next.holder, "the chain is contiguous");
        }
    }
}

/// The one recorded entry per goal takes the cache as an argument:
/// (a) `Some` over an empty store costs exactly what `None` costs and logs
/// the resolved chain, keyed by target node or by resource; (b) over a
/// replicated registry, warmed hints never change an answer and never
/// raise the total cost — calm through `resource_query`, and under a
/// crash/partition plan through `CardWorld::query_resource`, whose edge
/// veto the hinted walk must honour.
#[test]
fn recorded_entries_take_hints_per_goal() {
    let w = world(3, false);
    let replicated = ResourceDistribution::UniformReplicated { replicas: 3 };
    let mut rng = SeedSplitter::new(3).stream("resources", 0);
    let reg = distribute(w.network(), 10, replicated, &mut rng);
    let resources = || (0..10).map(|r| Goal::Resource(ResourceId(r)));
    let (mut stats, mut log) = (HintStats::default(), DepositLog::new());

    // (a) an empty store: the same outcome, one deposit per hop.
    let empty = HintStore::new(NODES, 4, 32);
    let mut goals: Vec<Goal> = resources().collect();
    goals.extend(NodeId::all(NODES).step_by(9).map(Goal::Node));
    let mut resolved = 0;
    for source in NodeId::all(NODES).step_by(5) {
        for &goal in &goals {
            let plain = ask(&w, &reg, source, goal, None);
            log.clear();
            let hinted = ask(&w, &reg, source, goal, Some((&empty, &mut stats, &mut log)));
            assert_eq!(hinted, plain, "{goal:?} from {source}");
            assert_chain_logged(&w, &reg, &log, &hinted, source, goal);
            resolved += usize::from(hinted.found && hinted.depth_used > 0);
        }
    }
    assert!(resolved > 20, "too few beyond-zone answers to check chains");

    // (b) calm: a cold round, its deposits applied, then a warm round.
    let mut store = HintStore::new(NODES, 8, 32);
    let mut totals = [0u64; 2];
    for total in &mut totals {
        let mut queued = Vec::new();
        for source in NodeId::all(NODES).step_by(3) {
            for goal in resources() {
                let plain = ask(&w, &reg, source, goal, None);
                log.clear();
                let hinted = ask(&w, &reg, source, goal, Some((&store, &mut stats, &mut log)));
                assert_eq!(hinted.found, plain.found, "{goal:?} from {source}");
                *total += hinted.total_messages();
                queued.extend_from_slice(log.runs());
            }
        }
        for d in &queued {
            store.deposit(d, &mut stats);
        }
    }
    assert!(totals[1] <= totals[0], "warm {totals:?}");
    assert!(stats.chase_hits > 0, "the warm round must use hints");

    // (b) faulted: a hinted and a cache-off world warm up calm, then the
    // plan crashes a fifth of the nodes and cuts the field in two.
    let faults = FaultConfig {
        churn_rate: 0.2,
        partition: Some(PartitionWindow {
            start_round: 2,
            end_round: 4,
            fraction: 0.5,
        }),
        rounds: 2,
        ..FaultConfig::calm()
    };
    let plan = FaultPlan::generate(&faults, NODES, 3);
    let (mut hinted, mut base) = (world(3, true), world(3, false));
    hinted.enable_faults(plan.clone());
    base.enable_faults(plan);
    for round in 0..4 {
        for source in NodeId::all(NODES).step_by(2) {
            for r in (0..10).map(ResourceId) {
                assert_eq!(
                    hinted.query_resource(&reg, source, r).found,
                    base.query_resource(&reg, source, r).found,
                    "{r} from {source} in fault round {round}"
                );
            }
        }
        hinted.validation_round();
        base.validation_round();
    }
    assert!(hinted.hint_stats().chase_hits > 0);
}

/// TTL epochs expire hints: after enough validation rounds a once-hot
/// hint reads as `stale_ttl`, and the re-queried answer is still correct.
#[test]
fn ttl_expiry_is_counted_and_harmless() {
    use card_manet::mobility::statics::StaticModel;
    let cfg = CardConfig {
        hint_ttl: 1,
        ..config(5)
    };
    let mut w = build(cfg, true);
    w.select_all_contacts();
    let nb = w.network().tables().of(NodeId::new(0));
    let Some(target) = NodeId::all(NODES).filter(|&t| !nb.contains(t)).find(|&t| {
        // probe with a throwaway clone so the real world stays cold
        world(5, false).query(NodeId::new(0), t).found
    }) else {
        return; // vacuous topology
    };
    let first = w.query(NodeId::new(0), target);
    assert!(first.found);
    // static run: validation rounds advance the TTL epoch past ttl=1
    w.run_mobile(&mut StaticModel, SimDuration::from_secs(4));
    let stale_before = w.hint_stats().stale_ttl;
    let again = w.query(NodeId::new(0), target);
    assert!(again.found, "expiry must never lose the answer");
    assert!(
        w.hint_stats().stale_ttl > stale_before,
        "the expired hint must be counted: {:?}",
        w.hint_stats()
    );
}

/// A cache reset discards the deposits a lossy plan left deferred: under a
/// plan that delays every deposit, one sweep of 2 800 pairs leaves its
/// deposits deferred; after `reset`, the next hinted exchange must deliver
/// nothing into the emptied store, and the deposit ledger still closes.
fn assert_reset_discards_deferred_deposits(reset: impl FnOnce(&mut CardWorld)) {
    let mut w = world(7, true);
    let delay_all = FaultConfig {
        delay_rate: 1.0,
        ..FaultConfig::calm()
    };
    w.enable_faults(FaultPlan::generate(&delay_all, NODES, 7));
    let pairs: Vec<(NodeId, NodeId)> = NodeId::all(NODES)
        .flat_map(|s| NodeId::all(NODES).step_by(7).map(move |t| (s, t)))
        .collect();
    w.query_all(&pairs);
    assert!(
        w.plane_deferred_pending() > 0,
        "the sweep must defer deposits"
    );
    reset(&mut w);
    w.query_all(&[]);
    let landed = w.hint_store().map(|s| s.len());
    assert_eq!(landed, Some(0), "deposits sent before the reset landed");
    let ps = w.plane_stats();
    let pending = w.plane_deferred_pending() as u64;
    assert_eq!(ps.sent, ps.local + ps.cross_shard + ps.dropped + pending);
}

#[test]
fn clear_hints_discards_deferred_deposits() {
    assert_reset_discards_deferred_deposits(CardWorld::clear_hints);
}

#[test]
fn hint_switch_discards_deferred_deposits() {
    assert_reset_discards_deferred_deposits(|w| {
        w.set_hints_enabled(false);
        w.set_hints_enabled(true);
    });
}
