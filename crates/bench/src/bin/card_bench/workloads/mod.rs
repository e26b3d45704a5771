//! The six workloads and the loop that runs any of them: set-up (three
//! times, timed), one discarded warm-up unit, timed units for `--seconds`,
//! then correctness checks — and, with `--trace`, a second half of units
//! with spans on, plus post-run probes.
//!
//! Every unit of a workload replays the same simulated interval from the
//! same prepared state, so simulated statistics and `state_digest` do not
//! depend on how many units fit in the time budget, and the spread between
//! units is the machine's noise, not drift in the workload.
//!
//! Only each layer's one production path is called (`Network::advance` /
//! `refresh_movers`, `CardWorld::{from_network, select_all_contacts,
//! validation_round, query_all_into, query, set_hints_enabled, clear_hints,
//! enable_faults}`, `EventDriver::drive`) — never a `*_serial`, `*_full`,
//! `*_cache_off` or `*_plane` twin, so deleting those never touches this
//! package.

mod bootstrap;
mod churn;
mod mobile;
mod query;

use std::time::Instant;

use card_core::{CardConfig, CardWorld, QueryOutcome, SelectionMethod};
use manet_routing::network::{Network, PipelineCounters};
use net_topology::node::NodeId;
use sim_core::stats::MsgKind;
use sim_core::time::SimDuration;

use crate::gen::{self, Pair, Rng};
use crate::spec::{self, Metric, PER_LAYER};
use crate::stats::{mean, median, percentile};
use crate::trace::{Span, Tracer};

/// Zone radius R, maximum contact distance r, contacts per node NoC and
/// query depth D of every workload.
pub const R: u16 = 2;
pub const MAX_CONTACT_DISTANCE: u16 = 8;
pub const NOC: usize = 4;
pub const DEPTH: u16 = 3;
/// Mobility tick and contact-validation period.
pub const TICK: SimDuration = SimDuration::from_millis(100);
pub const VALIDATION_PERIOD_S: u64 = 2;

pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Override the protocol shard count (`card_bench check` only).
    pub shards: Option<usize>,
}

/// Sizes of one profile. `full` is what `BENCHMARK.json` measures; `quick`
/// is the same shapes at N = 2 000 for smoke runs and tests.
pub struct Shape {
    pub churn_nodes: usize,
    pub churn_ticks: usize,
    pub static_nodes: usize,
    pub bootstrap_rounds: usize,
    /// Uniform pairs swept in set-up to find the resolvable pool.
    pub pool_candidates: usize,
    /// Pool pairs the hinted and mobile workloads draw from.
    pub pool_take: usize,
    pub pairs_per_sweep: usize,
    pub warm_sweeps: usize,
    pub mobile_nodes: usize,
    /// Validation periods (= drive segments) per mobile unit.
    pub mobile_rounds: u32,
    pub arrivals_per_sim_s: usize,
    pub standing: usize,
    /// Times set-up runs; `setup_s` is their median.
    pub setup_reps: usize,
    pub min_units: usize,
    pub probe_ticks: usize,
    pub probe_rounds: usize,
    pub probe_queries: usize,
}

impl Shape {
    pub fn of(quick: bool) -> Shape {
        if quick {
            Shape {
                churn_nodes: 2_000,
                churn_ticks: 10,
                static_nodes: 2_000,
                bootstrap_rounds: 2,
                pool_candidates: 8_192,
                pool_take: 64,
                pairs_per_sweep: 8_000,
                warm_sweeps: 2,
                mobile_nodes: 2_000,
                mobile_rounds: 8,
                arrivals_per_sim_s: 100,
                standing: 16,
                setup_reps: 1,
                min_units: 2,
                probe_ticks: 5,
                probe_rounds: 2,
                probe_queries: 100,
            }
        } else {
            Shape {
                churn_nodes: 50_000,
                churn_ticks: 30,
                static_nodes: 20_000,
                bootstrap_rounds: 4,
                pool_candidates: 65_536,
                pool_take: 512,
                pairs_per_sweep: 400_000,
                warm_sweeps: 3,
                mobile_nodes: 10_000,
                mobile_rounds: 20,
                arrivals_per_sim_s: 1_000,
                standing: 64,
                setup_reps: 3,
                min_units: 3,
                probe_ticks: 20,
                probe_rounds: 5,
                probe_queries: 1_000,
            }
        }
    }
}

/// One line of the correctness gate.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Per-layer values, one slot per entry of [`PER_LAYER`] (0 until set).
pub struct Layers(Vec<f64>);

impl Layers {
    fn new() -> Layers {
        Layers(vec![0.0; PER_LAYER.len()])
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.0[i] = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        PER_LAYER
            .iter()
            .position(|m| m.name == name)
            .map_or(0.0, |i| self.0[i])
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }
}

/// What a workload's `finish` reports.
pub struct Finish {
    pub sim_cost_per_op: f64,
    pub success_share: f64,
    /// Operations whose result the correctness oracle rejected.
    pub failed: u64,
    /// The workload's own simulated end-to-end metrics, by their
    /// [`spec::NAMED`] names.
    pub named: Vec<(&'static Metric, f64)>,
    pub checks: Vec<Check>,
    pub layers: Layers,
    pub notes: Vec<String>,
}

impl Finish {
    pub fn report(&mut self, name: &str, value: f64) {
        self.named.push((spec::named(name), value));
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    /// A gate on a counter that must be zero; a non-zero count is also
    /// added to `failed`.
    pub fn must_be_zero(&mut self, name: &'static str, count: u64) {
        self.failed += count;
        self.check(name, count == 0, format!("{count}"));
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// The [`spec::NAMED`] host metric this workload's `ops_per_s` is.
    const RATE: &'static str;
    /// Untimed-by-the-units preparation, itself timed as `setup_s`.
    fn setup(cfg: &RunCfg, shape: &Shape, tr: &mut Tracer) -> Self;
    /// N and the shape of one unit, for the provenance header.
    fn sizes(&self) -> String;
    /// What `ops_per_s` counts, and how many of it one unit performs.
    fn op(&self) -> (&'static str, u64);
    /// Replay one unit; returns its timed wall seconds and state digest.
    fn unit(&mut self, tr: &mut Tracer) -> (f64, u64);
    /// Simulated metrics, correctness checks, per-layer values and (when
    /// tracing) post-run probes, all from the last unit's state.
    fn finish(&mut self, shape: &Shape, tr: &mut Tracer, fin: &mut Finish);
}

pub struct Outcome {
    pub workload: &'static str,
    pub sizes: String,
    pub op: &'static str,
    pub rate: &'static Metric,
    pub ops_per_unit: u64,
    pub setup_s: Vec<f64>,
    /// Timed wall seconds of each untraced unit.
    pub unit_s: Vec<f64>,
    pub peak_rss_mib: f64,
    pub digest: u64,
    pub fin: Finish,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn ops_per_s(&self) -> Vec<f64> {
        self.unit_s
            .iter()
            .map(|s| self.ops_per_unit as f64 / s.max(1e-9))
            .collect()
    }

    pub fn attempted(&self) -> u64 {
        self.ops_per_unit * self.unit_s.len() as u64
    }

    pub fn correct(&self) -> bool {
        self.fin.failed == 0 && self.fin.checks.iter().all(|c| c.ok)
    }
}

pub fn run_named(name: &str, cfg: &RunCfg) -> Option<Outcome> {
    Some(match name {
        "substrate_churn" => run::<churn::Churn>(cfg),
        "bootstrap_static" => run::<bootstrap::Bootstrap>(cfg),
        "query_escalate" => run::<query::Escalate>(cfg),
        "query_hinted" => run::<query::Hinted>(cfg),
        "mobile_calm" => run::<mobile::Calm>(cfg),
        "mobile_hostile" => run::<mobile::Hostile>(cfg),
        _ => return None,
    })
}

fn run<W: Workload>(cfg: &RunCfg) -> Outcome {
    let shape = Shape::of(cfg.quick);
    let mut tr = Tracer::new(cfg.trace);

    // Set-up runs several times so `setup_s` is a median. The previous
    // instance is dropped first, so peak memory is that of one instance.
    let mut setup_s = Vec::new();
    let mut built: Option<W> = None;
    for _ in 0..shape.setup_reps {
        drop(built.take());
        let t0 = Instant::now();
        let open = tr.begin("setup");
        built = Some(W::setup(cfg, &shape, &mut tr));
        tr.end(open);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = built.expect("at least one set-up repetition");

    tr.set_on(false);
    let (_, digest) = w.unit(&mut tr);
    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let (unit_s, mut replayed) = timed_units(&mut w, &mut tr, budget, shape.min_units, digest);
    let peak_rss_mib = peak_rss_mib();

    let mut fin = Finish {
        sim_cost_per_op: 0.0,
        success_share: 0.0,
        failed: 0,
        named: Vec::new(),
        checks: Vec::new(),
        layers: Layers::new(),
        notes: Vec::new(),
    };
    if cfg.trace {
        tr.set_on(true);
        let (traced_s, traced_replayed) =
            timed_units(&mut w, &mut tr, budget, shape.min_units, digest);
        replayed &= traced_replayed;
        let overhead = 100.0 * (median(&traced_s) / median(&unit_s) - 1.0);
        fin.layers.set("trace.overhead_pct", overhead);
    }
    fin.check(
        "units_replay_identically",
        replayed,
        format!("state_digest {digest:016x} on every unit, traced or not"),
    );
    w.finish(&shape, &mut tr, &mut fin);
    fin.layers.set("trace.spans", tr.spans().len() as f64);

    let (op, ops_per_unit) = w.op();
    Outcome {
        workload: W::NAME,
        sizes: w.sizes(),
        op,
        rate: spec::named(W::RATE),
        ops_per_unit,
        setup_s,
        unit_s,
        peak_rss_mib,
        digest,
        fin,
        spans: tr.into_spans(),
    }
}

/// Replay units until `budget_s` of wall time has passed (untimed parts of
/// a unit count towards the budget, so a run ends on time) and at least
/// `min_units` ran. Returns the units' timed wall seconds, and whether every
/// unit reproduced `digest`.
fn timed_units<W: Workload>(
    w: &mut W,
    tr: &mut Tracer,
    budget_s: f64,
    min_units: usize,
    digest: u64,
) -> (Vec<f64>, bool) {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut replayed = true;
    while walls.len() < min_units || start.elapsed().as_secs_f64() < budget_s {
        let (wall, d) = w.unit(tr);
        replayed &= d == digest;
        walls.push(wall);
    }
    (walls, replayed)
}

/// Peak resident set (`VmHWM`) in MiB; 0 where procfs is unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// Pieces the workloads share.
// ---------------------------------------------------------------------

fn card_config(seed: u64) -> CardConfig {
    let mut cfg = CardConfig::default()
        .with_radius(R)
        .with_max_contact_distance(MAX_CONTACT_DISTANCE)
        .with_target_contacts(NOC)
        .with_depth(DEPTH)
        .with_method(SelectionMethod::Edge)
        .with_seed(seed);
    cfg.mobility_tick = TICK;
    cfg.validation_period = SimDuration::from_secs(VALIDATION_PERIOD_S);
    cfg
}

fn build_network(n: usize, seed: u64, tr: &mut Tracer) -> Network {
    let (field, positions) = gen::positions(n, seed);
    tr.span("network.build", || {
        Network::from_positions(field, positions, gen::TX_RANGE, R)
    })
}

/// A static world with contacts selected, and the pairs of a uniform
/// candidate sweep (hints off) that resolved at contact depth >= 1: the
/// *resolvable pool*, the only pairs a route-hint cache can matter for.
struct Prepared {
    world: CardWorld,
    pool: Vec<Pair>,
    /// The `pool_take` pairs the hinted and mobile workloads make popular,
    /// most popular first.
    popular: Vec<Pair>,
}

/// 1/phi: steps of this size through `[0, 1)` never cluster.
const GOLDEN_STEP: f64 = 0.618_033_988_749_894_9;

fn prepare_world(n: usize, cfg: &RunCfg, shape: &Shape, tr: &mut Tracer) -> Prepared {
    let net = build_network(n, cfg.seed, tr);
    let mut world = CardWorld::from_network(net, card_config(cfg.seed));
    if let Some(k) = cfg.shards {
        world.set_shard_count(k);
    }
    tr.span("selection.sweep", || world.select_all_contacts());
    let candidates = gen::uniform_pairs(n, shape.pool_candidates, &mut Rng::new(cfg.seed, "pool"));
    let mut out = Vec::new();
    tr.span("pool.sweep", || world.query_all_into(&candidates, &mut out));
    let mut found: Vec<(u64, Pair)> = candidates
        .iter()
        .zip(&out)
        .filter(|(_, o)| o.found && o.depth_used >= 1)
        .map(|(&p, o)| (o.total_messages(), p))
        .collect();
    assert!(
        found.len() >= 8,
        "seed {} yields only {} resolvable pairs among {} candidates",
        cfg.seed,
        found.len(),
        candidates.len()
    );
    // The driver compares runs of different seeds, and which pairs a seed
    // makes popular decides what a skewed mix costs: with the head of the
    // pool taken in discovery order, msgs/query of the Zipf mix moved 28%
    // between seeds, more than any bound. So rank k is the pair at cost
    // quantile frac(1/2 + k/phi) of the pool: every seed's head holds the
    // same quantiles (the median pair, then a cheap one, a dear one, ...).
    found.sort_unstable();
    let popular = (0..shape.pool_take)
        .map(|rank| {
            let quantile = (0.5 + rank as f64 * GOLDEN_STEP).fract();
            found[(quantile * found.len() as f64) as usize].1
        })
        .collect();
    let pool = found.into_iter().map(|(_, pair)| pair).collect();
    Prepared {
        world,
        pool,
        popular,
    }
}

/// Per-tick pipeline counters summed over ticks.
#[derive(Default)]
struct Tally {
    ticks: u64,
    movers: u64,
    skipped: u64,
    rebucketed: u64,
    patched: u64,
    changed: u64,
    dirty: u64,
    fallback_ticks: u64,
    lanes: u64,
    exact: u64,
}

impl Tally {
    fn add(&mut self, c: PipelineCounters) {
        self.ticks += 1;
        self.movers += c.movers_reported as u64;
        self.skipped += c.movers_skipped as u64;
        self.rebucketed += c.grid_rebucketed as u64;
        self.patched += c.rows_patched as u64;
        self.changed += c.changed as u64;
        self.dirty += c.dirty as u64;
        self.fallback_ticks += u64::from(c.full_fallback);
        self.lanes += c.kernel_lanes;
        self.exact += c.kernel_exact;
    }

    fn fill(&self, layers: &mut Layers) {
        let per_tick = |v: u64| ratio(v, self.ticks);
        layers.set("mobility.movers_per_tick", per_tick(self.movers));
        layers.set(
            "topology.grid_rebucketed_per_tick",
            per_tick(self.rebucketed),
        );
        layers.set("topology.rows_patched_per_tick", per_tick(self.patched));
        layers.set("topology.rows_changed_per_tick", per_tick(self.changed));
        layers.set("topology.kernel_lanes_per_tick", per_tick(self.lanes));
        layers.set("topology.kernel_exact_share", ratio(self.exact, self.lanes));
        layers.set(
            "topology.fallback_tick_share",
            per_tick(self.fallback_ticks),
        );
        layers.set(
            "topology.movers_skipped_share",
            ratio(self.skipped, self.movers),
        );
        layers.set("network.dirty_tables_per_tick", per_tick(self.dirty));
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer that did nothing).
fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn fill_tick_spans(tr: &Tracer, layers: &mut Layers) {
    let refresh = tr.ms_of("network.refresh");
    layers.set(
        "mobility.advance_ms_per_tick",
        mean(&tr.ms_of("mobility.advance")),
    );
    layers.set("network.refresh_ms_per_tick", mean(&refresh));
    layers.set("network.refresh_ms_p95", percentile(&refresh, 0.95));
}

fn fill_network(net: &Network, tr: &Tracer, layers: &mut Layers) {
    layers.set("network.build_ms", mean(&tr.ms_of("network.build")));
    layers.set(
        "network.table_bytes",
        net.tables().approx_heap_bytes() as f64,
    );
}

/// Selection-layer values read off a world straight after its sweep.
fn fill_selection(world: &CardWorld, tr: &Tracer, layers: &mut Layers) {
    let n = world.network().node_count() as u64;
    let contacts = world.total_contacts() as u64;
    layers.set("selection.sweep_ms", mean(&tr.ms_of("selection.sweep")));
    layers.set(
        "selection.msgs_per_node",
        ratio(world.stats().total_where(MsgKind::is_selection), n),
    );
    layers.set("selection.contacts_per_node", ratio(contacts, n));
    layers.set("selection.fill_share", ratio(contacts, n * NOC as u64));
    let shard_max = world.shard_memory_bytes().into_iter().max().unwrap_or(0);
    layers.set("world.shard_bytes_max", shard_max as f64);
}

fn fill_maintenance(world: &CardWorld, rounds: u64, layers: &mut Layers) {
    let n = world.network().node_count() as u64;
    let mt = world.maintenance_totals();
    layers.set(
        "maintenance.msgs_per_node_round",
        ratio(
            world.stats().total_where(MsgKind::is_maintenance),
            n * rounds,
        ),
    );
    layers.set("maintenance.validated", mt.validated as f64);
    layers.set("maintenance.lost", mt.lost as f64);
    layers.set(
        "maintenance.dropped_out_of_range",
        mt.dropped_out_of_range as f64,
    );
    layers.set(
        "maintenance.recovered_share",
        ratio(mt.recovered, mt.recovered + mt.lost),
    );
}

/// Found share, mean answering depth and messages per query of a batch.
struct QueryFacts {
    queries: u64,
    found: u64,
    depth_sum: u64,
    msgs: u64,
}

impl QueryFacts {
    fn of<'a>(outcomes: impl IntoIterator<Item = &'a QueryOutcome>) -> QueryFacts {
        let mut f = QueryFacts {
            queries: 0,
            found: 0,
            depth_sum: 0,
            msgs: 0,
        };
        for o in outcomes {
            f.queries += 1;
            f.found += u64::from(o.found);
            f.depth_sum += if o.found { u64::from(o.depth_used) } else { 0 };
            f.msgs += o.total_messages();
        }
        f
    }

    fn fill(&self, layers: &mut Layers) {
        layers.set("query.found_share", ratio(self.found, self.queries));
        layers.set("query.mean_depth", ratio(self.depth_sum, self.found));
        layers.set("query.msgs_per_query", ratio(self.msgs, self.queries));
    }
}

/// Hint and plane counters of a world, as they stand (a world cloned from
/// a hint-free base starts them at zero, so totals are the run's deltas).
fn fill_hints_and_plane(world: &CardWorld, queries: u64, fin: &mut Finish) {
    let hs = world.hint_stats();
    let layers = &mut fin.layers;
    layers.set("hints.hit_share", ratio(hs.hits, hs.lookups));
    layers.set("hints.chase_hit_share", ratio(hs.chase_hits, hs.chases));
    layers.set("hints.stale_share", ratio(hs.stale_total(), hs.lookups));
    layers.set("hints.deposits", hs.deposits as f64);
    layers.set("hints.evicted_lru", hs.evicted_lru as f64);
    layers.set("hints.evicted_mobility", hs.evicted_mobility as f64);
    layers.set("hints.probe_msgs_per_query", ratio(hs.probe_msgs, queries));
    let bytes = world.hint_store().map_or(0, |h| h.memory_bytes());
    layers.set("hints.memory_bytes", bytes as f64);

    let ps = world.plane_stats();
    let deferred = world.plane_deferred_pending() as u64;
    layers.set("plane.sent", ps.sent as f64);
    layers.set("plane.cross_shard_share", ratio(ps.cross_shard, ps.sent));
    layers.set("plane.rounds", ps.rounds as f64);
    layers.set("plane.max_round_msgs", ps.max_round_msgs as f64);
    layers.set("plane.dropped", ps.dropped as f64);
    layers.set("plane.delayed", ps.delayed as f64);
    layers.set("plane.deferred_pending", deferred as f64);
    fin.check(
        "plane_ledger_balances",
        ps.sent == ps.local + ps.cross_shard + ps.dropped + deferred,
        format!(
            "sent {} == local {} + cross {} + dropped {} + deferred {}",
            ps.sent, ps.local, ps.cross_shard, ps.dropped, deferred
        ),
    );
}

/// Fault-layer values; on a calm workload every one of them, and the
/// plane's loss counters, must be zero.
fn fill_faults(world: &CardWorld, hostile: bool, fin: &mut Finish) {
    let fr = world.fault_report();
    let layers = &mut fin.layers;
    layers.set("faults.crashes", fr.crashes as f64);
    layers.set("faults.rejoins", fr.rejoins as f64);
    layers.set("faults.down_end", fr.down_now as f64);
    layers.set("faults.retry_scheduled", fr.retry.scheduled as f64);
    layers.set(
        "faults.retry_recovered_share",
        ratio(fr.retry.recovered, fr.retry.scheduled),
    );
    layers.set("faults.retry_abandoned", fr.retry.abandoned as f64);
    layers.set("faults.liveness_violations", fr.liveness_violations as f64);
    layers.set(
        "faults.grid_audit_violations",
        fr.grid_audit_violations as f64,
    );
    fin.must_be_zero("faults.liveness_violations", fr.liveness_violations);
    fin.must_be_zero("faults.grid_audit_violations", fr.grid_audit_violations);
    if !hostile {
        let ps = world.plane_stats();
        let stray = fr.crashes
            + fr.rejoins
            + fr.down_now as u64
            + fr.retry.scheduled
            + fr.retry.abandoned
            + ps.dropped
            + ps.delayed
            + world.plane_deferred_pending() as u64;
        fin.must_be_zero("no_fault_or_loss_counter_moves_without_a_plan", stray);
    }
}

/// Time `count` single `CardWorld::query` calls over `pairs` (trace only).
fn probe_single_queries(world: &mut CardWorld, pairs: &[Pair], count: usize, tr: &mut Tracer) {
    for &(s, t) in pairs.iter().cycle().take(count) {
        tr.span("query.single", || {
            std::hint::black_box(world.query(s, t));
        });
    }
}

/// Does every stored contact path still walk over live links, end at the
/// contact, and lead out of the owner's own neighbourhood? Returns the
/// number of contacts that do not.
fn invalid_contacts(world: &CardWorld) -> u64 {
    let net = world.network();
    let mut bad = 0;
    for (i, table) in world.contact_tables().iter().enumerate() {
        let owner = NodeId::from(i);
        for c in table.contacts() {
            let walks = c.path.windows(2).all(|w| net.is_link(w[0], w[1]));
            let ok = walks
                && c.source() == owner
                && c.path.last() == Some(&c.id)
                && c.hops() <= MAX_CONTACT_DISTANCE
                && !net.tables().of(owner).contains(c.id);
            bad += u64::from(!ok);
        }
    }
    bad
}
