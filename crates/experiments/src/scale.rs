//! The scale harness, and the `scale` and `scale-raw` tiers on it.
//!
//! The paper's pitch is resource discovery in *large-scale* MANets, but its
//! own evaluation stops at N = 1000 (Table 1). Every scale tier keeps
//! Table 1's scenario-5 density (500 nodes in a 710 m square, 50 m radio
//! range, [`scaled_scenario`]) and grows the field to N = 10⁴–10⁶. A tier
//! is three things, shared here:
//!
//! * **its config** — one protocol configuration, [`protocol_config`]
//!   (EM, r = 4R, NoC = 4, D = [`QUERY_DEPTH`]); a tier adjusts it at its
//!   call site (the raw tier's hint slots, scale-events' validation period);
//! * **its substrate run** — `substrate` builds the network, drives the
//!   mover-driven tick loop (summing the per-stage pipeline counters),
//!   moves the network into a [`CardWorld`] and times one from-scratch
//!   `select_all_contacts` pass plus [`PROTOCOL_ROUNDS`] validation rounds.
//!   scale-events and scale-hostile start from
//!   [`figures::selected`](crate::figures::selected) instead;
//! * **its columns** — every table is a [`Column`] spec rendered by
//!   [`table`]; derived cells (rates, shares, deltas) are computed there.
//!
//! `repro` dispatches the four tiers from [`TIERS`].
//!
//! `repro scale` runs three mobility profiles per N (10⁴, 5·10⁴, 10⁵):
//!
//! * **memory** — zone-table bytes, O(zone · N) (a per-node N-bit bitset
//!   would be ~1.25 GB at N = 10⁵);
//! * **time** — wall-clock per mobility tick for the mover-driven refresh
//!   plus the pipeline counters behind it: movers reported, grid entries
//!   re-bucketed, adjacency rows patched, changed rows, dirty
//!   neighborhoods, wholesale-fallback ticks and the f32 kernel's lanes;
//! * **full protocol** — selection and validation wall time, node
//!   throughput, contacts and the selection/maintenance message volume
//!   (seed-deterministic at any worker or shard count);
//! * **query workload** — random node-lookup DSQs swept through
//!   `CardWorld::query_all`, then anycast *resource* queries over a
//!   uniform and a clustered replica mix ([`QUERY_RESOURCES`] ×
//!   [`QUERY_REPLICAS`]);
//! * **route-hint cache** — repeat-heavy and Zipf-skewed mixes over a pool
//!   of resolvable targets with the §V cache off, cold and warm, then
//!   through a churn burst: messages per query, hit rates, staleness and
//!   the per-shard memory the cache costs.
//!
//! Three mobility profiles bracket the churn range: *pedestrian* (random
//! walk, 0.5–2 m/s; every node drifts every tick, so the wholesale
//! fallback carries the load), *ped-dwell* (same speeds, ~99% of nodes
//! standing still — the few-movers regime of the mover-driven patch) and
//! *vehicular* (random waypoint, 10–30 m/s).
//!
//! `repro scale-raw` is the N = 10⁶ tier: the same substrate run at R = 1
//! for the pedestrian and ped-dwell profiles, with RSS and node-tick
//! throughput columns, then hinted cold/warm query sweeps, with
//! per-shard memory and deposit-traffic columns.
//!
//! Override any tier's node counts with `--nodes N` — no recompile needed.

use crate::output::{table, Column};
use crate::{scale_events, scale_hostile};
use card_core::resources::{distribute, resource_query, ResourceDistribution, ResourceId};
use card_core::{CardConfig, CardWorld, QueryScratch};
use manet_routing::network::Network;
use mobility::model::MobilityModel;
use mobility::walk::RandomWalk;
use mobility::waypoint::RandomWaypoint;
use net_topology::node::NodeId;
use net_topology::scenario::Scenario;
use sim_core::rng::SeedSplitter;
use sim_core::stats::MsgKind;
use std::time::Instant;

/// Validation rounds run in the full-protocol phase of each scale row.
pub const PROTOCOL_ROUNDS: usize = 2;

/// Zone radius R of every tier but the raw one.
pub const RADIUS: u16 = 2;

/// Zone radius of the raw tier: 1, since it stresses scale, not table
/// depth (the paper's own r/NoC sweeps live in Figs 5–9).
pub const RAW_RADIUS: u16 = 1;

/// Distinct resources of each query-phase resource mix.
pub const QUERY_RESOURCES: usize = 64;

/// Replicas per resource in each query-phase resource mix.
pub const QUERY_REPLICAS: usize = 8;

/// Escalation depth of the query phase (D of §III.C.4). The selection
/// phase's contact annulus is shallow (r = 4R), so D = 3 exercises real
/// multi-level escalation without flooding the contact graph.
pub const QUERY_DEPTH: u16 = 3;

/// Zipf exponent of the hint phase's skewed target mix (mild skew: the
/// hot targets dominate without drowning the tail entirely).
pub const HINT_ZIPF_EXPONENT: f64 = 1.1;

/// Mobility ticks of the hint phase's churn burst (long enough to cross
/// one validation period, so TTL epochs advance too).
pub const HINT_CHURN_TICKS: u64 = 10;

/// Dwell probability of the [`MobilityProfile::PedestrianDwell`] profile:
/// at any instant ~1% of nodes are walking and the rest stand exactly
/// still — a campus/conference-style pedestrian population, and the
/// regime where the mover-driven pipeline (reported movers → grid
/// re-bucket → CSR patch) does per-tick work proportional to the walkers.
pub const DWELL_PAUSE_PROB: f64 = 0.99;

/// One `repro` scale command.
pub struct Tier {
    /// Its `repro` name.
    pub name: &'static str,
    /// Run it — `quick` sizes or the full ones, a root seed, an optional
    /// node-count override — and render its tables.
    pub run: fn(bool, u64, Option<&[usize]>) -> String,
}

/// The scale tiers `repro` dispatches, in usage-line order. None is in
/// `repro all` (minutes each at full size).
pub static TIERS: [Tier; 4] = [
    Tier {
        name: "scale",
        run: |quick, seed, nodes| {
            let p = Params::new(quick, seed, nodes);
            render(&p, &run(&p))
        },
    },
    Tier {
        name: "scale-raw",
        run: |quick, seed, nodes| {
            let p = RawParams::new(quick, seed, nodes);
            render_raw(&run_raw(&p))
        },
    },
    Tier {
        name: "scale-events",
        run: |quick, seed, nodes| {
            let p = scale_events::Params::new(quick, seed, nodes);
            scale_events::render(&p, &scale_events::run(&p))
        },
    },
    Tier {
        name: "scale-hostile",
        run: |quick, seed, nodes| {
            let p = scale_hostile::Params::new(quick, seed, nodes);
            scale_hostile::render(&p, &scale_hostile::run(&p))
        },
    },
];

/// The scale tier `repro` runs for `name`.
pub fn find_tier(name: &str) -> Option<&'static Tier> {
    TIERS.iter().find(|t| t.name == name)
}

/// Mobility profile of one scale run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MobilityProfile {
    /// Random walk at pedestrian speeds (0.5–2 m/s, 10 s heading epochs):
    /// every node drifts every tick, the full-churn stress case.
    Pedestrian,
    /// Pedestrian walk-and-dwell: same speeds, but ~99% of nodes stand
    /// exactly still at any instant ([`DWELL_PAUSE_PROB`]) — the
    /// few-movers regime the mover-driven pipeline targets.
    PedestrianDwell,
    /// Random waypoint at vehicular speeds (10–30 m/s, no pauses).
    Vehicular,
}

impl MobilityProfile {
    /// Human-readable label for tables.
    pub fn label(self) -> &'static str {
        match self {
            MobilityProfile::Pedestrian => "pedestrian",
            MobilityProfile::PedestrianDwell => "ped-dwell",
            MobilityProfile::Vehicular => "vehicular",
        }
    }

    /// Instantiate the model for `n` nodes on `scenario`'s field.
    fn model(self, scenario: &Scenario, seed: u64) -> Box<dyn MobilityModel> {
        let rng = SeedSplitter::new(seed).stream("scale-mobility", 0);
        match self {
            MobilityProfile::Pedestrian => Box::new(RandomWalk::new(
                scenario.nodes,
                scenario.field(),
                0.5,
                2.0,
                10.0,
                rng,
            )),
            MobilityProfile::PedestrianDwell => Box::new(RandomWalk::new_with_dwell(
                scenario.nodes,
                scenario.field(),
                0.5,
                2.0,
                10.0,
                DWELL_PAUSE_PROB,
                rng,
            )),
            MobilityProfile::Vehicular => Box::new(RandomWaypoint::new(
                scenario.nodes,
                scenario.field(),
                10.0,
                30.0,
                0.0,
                rng,
            )),
        }
    }
}

/// Scenario-5 density (500 nodes / 710 m square, 50 m tx) scaled to `n`.
pub fn scaled_scenario(n: usize) -> Scenario {
    let side = 710.0 * (n as f64 / 500.0).sqrt();
    Scenario::new(n, side, side, 50.0)
}

/// The protocol configuration of every scale tier: zone radius `radius`
/// with a modest contact annulus (r = 4R) and NoC = 4, so the cost profile
/// stays comparable across N (the paper's own r/NoC sweeps live in
/// Figs 5–9 at paper sizes).
pub fn protocol_config(radius: u16, seed: u64) -> CardConfig {
    CardConfig::default()
        .with_radius(radius)
        .with_max_contact_distance(4 * radius)
        .with_target_contacts(4)
        .with_depth(QUERY_DEPTH)
        .with_seed(seed)
}

/// What `substrate` measures, the same way for every tier that runs it.
/// Wall times in ms, resident-set sizes in bytes (0 off-Linux).
#[derive(Clone, Debug, Default)]
pub struct Substrate {
    /// Wall time of the network build (placement + adjacency + tables).
    pub build_ms: f64,
    /// Resident-set size right after the build.
    pub build_rss_bytes: usize,
    /// Mobility ticks executed.
    pub ticks: usize,
    /// Total wall time of all ticks.
    pub total_tick_ms: f64,
    /// Slowest single tick.
    pub max_tick_ms: f64,
    /// Movers reported by the mobility model, summed over the ticks.
    pub movers: u64,
    /// Grid entries re-bucketed (cell-boundary crossers), summed.
    pub rebucketed: u64,
    /// CSR adjacency rows re-queried by the patch, summed.
    pub patched: u64,
    /// Adjacency-changed nodes (link churn), summed.
    pub changed: u64,
    /// Dirty neighborhoods rebuilt, summed.
    pub dirty: u64,
    /// Ticks on which any wholesale fallback ran (grid relayout or full
    /// adjacency rebuild).
    pub fallback_ticks: usize,
    /// Candidate lanes classified by the two-phase f32 distance kernel
    /// (0 when every tick ran a scalar path).
    pub kernel_lanes: u64,
    /// Kernel lanes that needed the exact f64 borderline resolution.
    pub kernel_exact: u64,
    /// Resident-set size after the tick loop.
    pub end_rss_bytes: usize,
    /// Mean zone size (members incl. owner) after the tick loop.
    pub mean_zone: f64,
    /// Total neighborhood-table heap bytes after the tick loop.
    pub table_bytes: usize,
    /// Wall time of the from-scratch sharded `select_all_contacts` pass.
    pub select_ms: f64,
    /// Total wall time of the [`PROTOCOL_ROUNDS`] validation rounds.
    pub validate_ms: f64,
    /// Contacts standing after the validation rounds.
    pub total_contacts: usize,
    /// Selection messages (CSQ + backtrack + reply) of selection and the
    /// validation rounds' re-selection.
    pub selection_msgs: u64,
    /// Maintenance messages (validation + ack) of the validation rounds.
    pub maintenance_msgs: u64,
}

impl Substrate {
    /// `sum` averaged over the ticks.
    pub fn per_tick(&self, sum: u64) -> f64 {
        sum as f64 / self.ticks.max(1) as f64
    }

    /// Mean wall time per tick.
    pub fn mean_tick_ms(&self) -> f64 {
        self.total_tick_ms / self.ticks.max(1) as f64
    }
}

/// The substrate run of one (scenario, profile) row: build the network,
/// drive `ticks` mobility ticks of `cfg.mobility_tick`, move the network
/// into a [`CardWorld`] on `cfg` (route hints on when `hints`), select
/// every node's contacts and run [`PROTOCOL_ROUNDS`] validation rounds.
/// Returns the world and the mobility model for the tier's own phases.
fn substrate(
    scenario: &Scenario,
    profile: MobilityProfile,
    ticks: usize,
    cfg: CardConfig,
    hints: bool,
) -> (CardWorld, Box<dyn MobilityModel>, Substrate) {
    let t0 = Instant::now();
    let mut net = Network::from_scenario(scenario, cfg.radius, cfg.seed);
    let mut s = Substrate {
        build_ms: ms_since(t0),
        build_rss_bytes: rss_bytes(),
        ticks,
        ..Substrate::default()
    };
    let mut model = profile.model(scenario, cfg.seed);
    for _ in 0..ticks {
        let t = Instant::now();
        net.advance(model.as_mut(), cfg.mobility_tick);
        let ms = ms_since(t);
        s.total_tick_ms += ms;
        s.max_tick_ms = s.max_tick_ms.max(ms);
        let c = net.pipeline_counters();
        s.movers += c.movers_reported as u64;
        s.rebucketed += c.grid_rebucketed as u64;
        s.patched += c.rows_patched as u64;
        s.changed += c.changed as u64;
        s.dirty += c.dirty as u64;
        s.fallback_ticks += c.full_fallback as usize;
        s.kernel_lanes += c.kernel_lanes;
        s.kernel_exact += c.kernel_exact;
    }
    s.end_rss_bytes = rss_bytes();
    s.mean_zone = net.tables().mean_size();
    s.table_bytes = net.tables().approx_heap_bytes();

    let mut world = CardWorld::from_network(net, cfg);
    if hints {
        world.set_hints_enabled(true);
    }
    let t = Instant::now();
    world.select_all_contacts();
    s.select_ms = ms_since(t);
    let t = Instant::now();
    for _ in 0..PROTOCOL_ROUNDS {
        world.validation_round();
    }
    s.validate_ms = ms_since(t);
    s.total_contacts = world.total_contacts();
    s.selection_msgs = world.stats().total_where(MsgKind::is_selection);
    s.maintenance_msgs = world.stats().total_where(MsgKind::is_maintenance);
    (world, model, s)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `count` per second of `ms` wall time.
fn per_s(count: usize, ms: f64) -> f64 {
    count as f64 / (ms / 1e3).max(1e-9)
}

/// Fraction of kernel lanes decided purely in f32 (no exact f64
/// resolution needed); 1.0 when no lanes ran (vacuously all-fast).
fn kernel_fast_rate(lanes: u64, exact: u64) -> f64 {
    if lanes == 0 {
        1.0
    } else {
        1.0 - exact as f64 / lanes as f64
    }
}

/// The f32-only share of a substrate run, as a table cell.
fn f32_only(s: &Substrate) -> String {
    format!(
        "{:.2}%",
        100.0 * kernel_fast_rate(s.kernel_lanes, s.kernel_exact)
    )
}

/// A share in `[0, 1]` as a one-decimal percentage cell.
pub(crate) fn pct(share: f64) -> String {
    format!("{:.1}%", 100.0 * share)
}

/// Current resident-set size in bytes, read from `/proc/self/statm`
/// (second field × page size). Returns 0 where procfs is unavailable
/// (non-Linux), so callers render "0 B" rather than failing.
fn rss_bytes() -> usize {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .nth(1)
                .and_then(|f| f.parse::<usize>().ok())
        })
        .map_or(0, |pages| pages * 4096)
}

fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    } else {
        format!("{:.1} KiB", b as f64 / (1 << 10) as f64)
    }
}

/// A one-decimal cell.
fn fmt1(v: f64) -> String {
    format!("{v:.1}")
}

fn fmt_rate(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.0}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

// ---------------------------------------------------------------- scale

/// Sizes of `repro scale`.
#[derive(Clone, Debug)]
pub struct Params {
    /// Node counts to run (each at scenario-5 density).
    pub nodes: Vec<usize>,
    /// Mobility ticks per run.
    pub ticks: usize,
    /// Node-lookup DSQs issued per row in the query phase (random
    /// source/target pairs, swept through `CardWorld::query_all`).
    pub queries: usize,
    /// Root seed.
    pub seed: u64,
}

impl Params {
    /// The full sizes, or the CI smoke sizes when `quick`; `nodes`
    /// replaces the node counts.
    pub fn new(quick: bool, seed: u64, nodes: Option<&[usize]>) -> Self {
        let (sizes, ticks, queries) = if quick {
            (vec![2_000], 20, 2_000)
        } else {
            (vec![10_000, 50_000, 100_000], 100, 10_000)
        };
        Params {
            nodes: nodes.map_or(sizes, <[usize]>::to_vec),
            ticks,
            queries,
            seed,
        }
    }
}

/// Measured outcome of one `repro scale` (N, mobility) run.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// The scenario run.
    pub scenario: Scenario,
    /// Mobility profile.
    pub mobility: MobilityProfile,
    /// The substrate run and the first protocol phase.
    pub sub: Substrate,
    /// Node-lookup DSQs issued in the query phase.
    pub query_count: usize,
    /// Fraction of those DSQs that found their target.
    pub query_hit_rate: f64,
    /// Mean escalation depth over the *hits* (0 = answered from the
    /// source's own zone).
    pub query_mean_depth: f64,
    /// Mean control messages (query + reply) per DSQ, hits and misses.
    pub query_msgs_per: f64,
    /// Wall time of the sharded `query_all` sweep.
    pub query_ms: f64,
    /// Anycast hit rate over the uniform resource mix.
    pub res_uniform_hit_rate: f64,
    /// Anycast hit rate over the clustered resource mix.
    pub res_clustered_hit_rate: f64,
    /// Resolvable (source, target) pairs in the hint phase's repeat pool.
    pub hint_pool: usize,
    /// Cache-off messages per query over the repeat-heavy mix.
    pub hint_base_msgs_per: f64,
    /// First hinted sweep (cold cache) messages per query.
    pub hint_cold_msgs_per: f64,
    /// Warm-cache messages per query over the repeat-heavy mix.
    pub hint_warm_msgs_per: f64,
    /// Warm-sweep hint hit rate (hits / lookups).
    pub hint_hit_rate: f64,
    /// Messages per query on the sweep following the churn burst.
    pub hint_churn_msgs_per: f64,
    /// Stale encounters + mobility evictions across the churn burst and
    /// the post-churn sweep.
    pub hint_stale_total: u64,
    /// Warm-cache messages per query over the Zipf-skewed mix.
    pub zipf_warm_msgs_per: f64,
    /// Warm-sweep hit rate over the Zipf-skewed mix.
    pub zipf_hit_rate: f64,
    /// Largest per-shard protocol state after the Zipf sweeps, bytes
    /// ([`CardWorld::shard_memory_bytes`]).
    pub zipf_shard_mem_max: usize,
    /// Deposit-path buffers (the lanes' deposit logs, the deferred runs)
    /// held after the Zipf sweeps, bytes ([`CardWorld::plane_buffer_bytes`]).
    pub zipf_plane_buffer_bytes: usize,
}

/// Run every (N, mobility-profile) combination of `p`.
pub fn run(p: &Params) -> Vec<ScaleRow> {
    let mut rows = Vec::new();
    for &n in &p.nodes {
        let scenario = scaled_scenario(n);
        for profile in [
            MobilityProfile::Pedestrian,
            MobilityProfile::PedestrianDwell,
            MobilityProfile::Vehicular,
        ] {
            rows.push(run_one(&scenario, profile, p));
        }
    }
    rows
}

fn run_one(scenario: &Scenario, profile: MobilityProfile, p: &Params) -> ScaleRow {
    let cfg = protocol_config(RADIUS, p.seed);
    let (mut world, mut model, sub) = substrate(scenario, profile, p.ticks, cfg, false);
    let n = scenario.nodes;

    // Query workload phase: a batch of random node-lookup DSQs through the
    // sharded sweep, then anycast resource queries over the two §V mixes.
    let splitter = SeedSplitter::new(p.seed);
    let mut pair_rng = splitter.stream("scale-query-pairs", 0);
    let pairs: Vec<(NodeId, NodeId)> = (0..p.queries)
        .map(|_| {
            (
                NodeId::from(pair_rng.index(n)),
                NodeId::from(pair_rng.index(n)),
            )
        })
        .collect();
    let t_query = Instant::now();
    let outcomes = world.query_all(&pairs);
    let query_ms = ms_since(t_query);
    let hits = outcomes.iter().filter(|o| o.found).count();
    let depth_sum: u64 = outcomes
        .iter()
        .filter(|o| o.found)
        .map(|o| o.depth_used as u64)
        .sum();
    let query_msg_sum: u64 = outcomes.iter().map(|o| o.total_messages()).sum();

    let res_hit_rate = |label: &'static str, dist: ResourceDistribution| -> f64 {
        let mut place_rng = splitter.stream(label, 0);
        let registry = distribute(world.network(), QUERY_RESOURCES, dist, &mut place_rng);
        let mut rng = splitter.stream(label, 1);
        let mut scratch = QueryScratch::with_capacity(n);
        let queries = (p.queries / 4).max(1);
        let mut found = 0usize;
        let mut stats = sim_core::stats::MsgStats::default();
        for _ in 0..queries {
            let source = NodeId::from(rng.index(n));
            let resource = ResourceId(rng.index(QUERY_RESOURCES) as u32);
            let out = resource_query(
                world.network(),
                world.contact_tables(),
                &registry,
                None,
                source,
                resource,
                QUERY_DEPTH,
                &mut stats,
                world.now(),
                &mut scratch,
            );
            found += out.found as usize;
        }
        found as f64 / queries as f64
    };
    let res_uniform_hit_rate = res_hit_rate(
        "scale-res-uniform",
        ResourceDistribution::UniformReplicated {
            replicas: QUERY_REPLICAS,
        },
    );
    let res_clustered_hit_rate = res_hit_rate(
        "scale-res-clustered",
        ResourceDistribution::Clustered {
            replicas: QUERY_REPLICAS,
        },
    );

    // Route-hint phase (§V): repeat-heavy and Zipf-skewed mixes over a
    // pool of *resolvable* targets — the regime where a query cache can
    // matter at all — measured cache-off, cold and warm, then through a
    // churn burst that exercises TTL epochs and mobility invalidation.
    let msgs_per = |outs: &[card_core::QueryOutcome]| -> f64 {
        let sum: u64 = outs.iter().map(|o| o.total_messages()).sum();
        sum as f64 / outs.len().max(1) as f64
    };
    let pool_target = (p.queries / 16).clamp(8, 512);
    let mut pool_rng = splitter.stream("scale-hint-pool", 0);
    let mut pool: Vec<(NodeId, NodeId)> = Vec::with_capacity(pool_target);
    for _ in 0..4 {
        if pool.len() >= pool_target {
            break;
        }
        let candidates: Vec<(NodeId, NodeId)> = (0..pool_target * 2)
            .map(|_| {
                (
                    NodeId::from(pool_rng.index(n)),
                    NodeId::from(pool_rng.index(n)),
                )
            })
            .collect();
        let outs = world.query_all(&candidates);
        pool.extend(
            candidates
                .iter()
                .zip(&outs)
                .filter(|(_, o)| o.found)
                .map(|(&pair, _)| pair),
        );
    }
    pool.truncate(pool_target);
    if pool.is_empty() {
        // Pathological topology: fall back to trivially-resolvable self
        // lookups so the phase still measures the cache machinery.
        pool.push((NodeId::from(0usize), NodeId::from(0usize)));
    }
    let mut mix_rng = splitter.stream("scale-hint-mix", 0);
    let workload: Vec<(NodeId, NodeId)> = (0..p.queries)
        .map(|_| pool[mix_rng.index(pool.len())])
        .collect();

    let baseline = world.query_all(&workload);
    let hint_base_msgs_per = msgs_per(&baseline);
    world.set_hints_enabled(true);
    world.clear_hints();
    world.reset_hint_stats();
    let cold = world.query_all(&workload);
    let hint_cold_msgs_per = msgs_per(&cold);
    world.reset_hint_stats();
    let warm = world.query_all(&workload);
    let hint_warm_msgs_per = msgs_per(&warm);
    let hint_hit_rate = world.hint_stats().hit_rate();
    for ((b, c), w) in baseline.iter().zip(&cold).zip(&warm) {
        assert!(
            b.found == c.found && b.found == w.found,
            "hints changed an answer — cost-only contract broken"
        );
    }

    // Churn burst: mobility + one validation round age and invalidate
    // hints; the following sweep pays the staleness and re-warms.
    world.reset_hint_stats();
    world.run_mobile(
        model.as_mut(),
        world.config().mobility_tick * HINT_CHURN_TICKS,
    );
    let churned = world.query_all(&workload);
    let hint_churn_msgs_per = msgs_per(&churned);
    let hint_stale_total = world.hint_stats().stale_total();

    // Zipf-skewed mix: rank i of the pool drawn ∝ 1/(i+1)^s.
    let zipf_cum: Vec<f64> = pool
        .iter()
        .enumerate()
        .scan(0.0f64, |acc, (i, _)| {
            *acc += 1.0 / ((i + 1) as f64).powf(HINT_ZIPF_EXPONENT);
            Some(*acc)
        })
        .collect();
    let zipf_total = *zipf_cum.last().expect("pool is non-empty");
    let mut zipf_rng = splitter.stream("scale-hint-zipf", 0);
    let zipf_workload: Vec<(NodeId, NodeId)> = (0..p.queries)
        .map(|_| {
            let u = zipf_rng.next_f64() * zipf_total;
            let rank = zipf_cum.partition_point(|&c| c < u).min(pool.len() - 1);
            pool[rank]
        })
        .collect();
    world.clear_hints();
    world.query_all(&zipf_workload); // cold pass warms the skewed heads
    world.reset_hint_stats();
    let zipf_warm = world.query_all(&zipf_workload);

    ScaleRow {
        scenario: *scenario,
        mobility: profile,
        sub,
        query_count: p.queries,
        query_hit_rate: hits as f64 / p.queries.max(1) as f64,
        query_mean_depth: depth_sum as f64 / hits.max(1) as f64,
        query_msgs_per: query_msg_sum as f64 / p.queries.max(1) as f64,
        query_ms,
        res_uniform_hit_rate,
        res_clustered_hit_rate,
        hint_pool: pool.len(),
        hint_base_msgs_per,
        hint_cold_msgs_per,
        hint_warm_msgs_per,
        hint_hit_rate,
        hint_churn_msgs_per,
        hint_stale_total,
        zipf_warm_msgs_per: msgs_per(&zipf_warm),
        zipf_hit_rate: world.hint_stats().hit_rate(),
        zipf_shard_mem_max: world.shard_memory_bytes().into_iter().max().unwrap_or(0),
        zipf_plane_buffer_bytes: world.plane_buffer_bytes(),
    }
}

const SCALE_SUBSTRATE: &[Column<ScaleRow>] = &[
    ("N", |r| r.scenario.nodes.to_string()),
    ("Mobility", |r| r.mobility.label().to_string()),
    ("Mean zone", |r| fmt1(r.sub.mean_zone)),
    ("Table mem (O(zone·N))", |r| fmt_bytes(r.sub.table_bytes)),
    ("Bitset equiv (O(N²))", |r| {
        fmt_bytes(r.scenario.nodes * r.scenario.nodes.div_ceil(8))
    }),
    ("Build (ms)", |r| format!("{:.0}", r.sub.build_ms)),
    ("Ticks", |r| r.sub.ticks.to_string()),
    ("Tick mean/max (ms)", |r| {
        format!("{:.2} / {:.2}", r.sub.mean_tick_ms(), r.sub.max_tick_ms)
    }),
    ("Movers/tick", |r| fmt1(r.sub.per_tick(r.sub.movers))),
    ("Rebucket/tick", |r| fmt1(r.sub.per_tick(r.sub.rebucketed))),
    ("Patched/tick", |r| fmt1(r.sub.per_tick(r.sub.patched))),
    ("Changed/tick", |r| fmt1(r.sub.per_tick(r.sub.changed))),
    ("Dirty/tick", |r| fmt1(r.sub.per_tick(r.sub.dirty))),
    ("Fallback ticks", |r| r.sub.fallback_ticks.to_string()),
    ("Kernel lanes/tick", |r| {
        fmt_rate(r.sub.per_tick(r.sub.kernel_lanes))
    }),
    ("f32-only %", |r| f32_only(&r.sub)),
];

const SCALE_PROTOCOL: &[Column<ScaleRow>] = &[
    ("N", |r| r.scenario.nodes.to_string()),
    ("Mobility", |r| r.mobility.label().to_string()),
    ("Select (ms)", |r| format!("{:.0}", r.sub.select_ms)),
    ("Select (nodes/s)", |r| {
        fmt_rate(per_s(r.scenario.nodes, r.sub.select_ms))
    }),
    ("Contacts", |r| r.sub.total_contacts.to_string()),
    ("Selection msgs", |r| r.sub.selection_msgs.to_string()),
    ("Validate (ms)", |r| format!("{:.0}", r.sub.validate_ms)),
    ("Validate (nodes/s)", |r| {
        fmt_rate(per_s(PROTOCOL_ROUNDS * r.scenario.nodes, r.sub.validate_ms))
    }),
    ("Maintenance msgs", |r| r.sub.maintenance_msgs.to_string()),
];

const SCALE_QUERIES: &[Column<ScaleRow>] = &[
    ("N", |r| r.scenario.nodes.to_string()),
    ("Mobility", |r| r.mobility.label().to_string()),
    ("Queries", |r| r.query_count.to_string()),
    ("Hit %", |r| pct(r.query_hit_rate)),
    ("Mean depth", |r| format!("{:.2}", r.query_mean_depth)),
    ("Msgs/query", |r| fmt1(r.query_msgs_per)),
    ("Query (ms)", |r| format!("{:.0}", r.query_ms)),
    ("Queries/s", |r| fmt_rate(per_s(r.query_count, r.query_ms))),
    ("Res uni hit %", |r| pct(r.res_uniform_hit_rate)),
    ("Res clu hit %", |r| pct(r.res_clustered_hit_rate)),
];

const SCALE_HINTS: &[Column<ScaleRow>] = &[
    ("N", |r| r.scenario.nodes.to_string()),
    ("Mobility", |r| r.mobility.label().to_string()),
    ("Pool", |r| r.hint_pool.to_string()),
    ("Base msgs/q", |r| fmt1(r.hint_base_msgs_per)),
    ("Cold msgs/q", |r| fmt1(r.hint_cold_msgs_per)),
    ("Warm msgs/q", |r| fmt1(r.hint_warm_msgs_per)),
    ("Warm Δ%", |r| {
        let (base, warm) = (r.hint_base_msgs_per, r.hint_warm_msgs_per);
        let cut = if base > 0.0 {
            100.0 * (base - warm) / base
        } else {
            0.0
        };
        format!("{cut:.1}%")
    }),
    ("Hit %", |r| pct(r.hint_hit_rate)),
    ("Churn msgs/q", |r| fmt1(r.hint_churn_msgs_per)),
    ("Stale", |r| r.hint_stale_total.to_string()),
    ("Zipf msgs/q", |r| fmt1(r.zipf_warm_msgs_per)),
    ("Zipf hit %", |r| pct(r.zipf_hit_rate)),
    ("Shard mem max", |r| fmt_bytes(r.zipf_shard_mem_max)),
    ("Deposit buffers", |r| fmt_bytes(r.zipf_plane_buffer_bytes)),
];

/// Render the scale runs as four Markdown tables: the topology substrate,
/// the full-protocol phase, the query workload and the route-hint cache.
pub fn render(p: &Params, rows: &[ScaleRow]) -> String {
    let cfg = protocol_config(RADIUS, p.seed);
    format!(
        "### Scale — {}-tick mobility runs at scenario-5 density (R={}, tick={:.0} ms)\n\n{}\n\n\
         ### Scale — full-protocol phase (sharded sweeps; EM, r={}, NoC={}, {} validation rounds)\n\n{}\n\n\
         ### Scale — query workload phase (sharded `query_all` DSQs at D={}; resource mixes {}×{} replicas)\n\n{}\n\n\
         ### Scale — route-hint cache phase (repeat-heavy + Zipf s={} mixes over the resolvable pool; churn burst of {} ticks; memory after the Zipf sweeps)\n\n{}",
        p.ticks,
        RADIUS,
        cfg.mobility_tick.as_secs_f64() * 1e3,
        table(SCALE_SUBSTRATE, rows),
        cfg.max_contact_distance,
        cfg.target_contacts,
        PROTOCOL_ROUNDS,
        table(SCALE_PROTOCOL, rows),
        QUERY_DEPTH,
        QUERY_RESOURCES,
        QUERY_REPLICAS,
        table(SCALE_QUERIES, rows),
        HINT_ZIPF_EXPONENT,
        HINT_CHURN_TICKS,
        table(SCALE_HINTS, rows)
    )
}

// ------------------------------------------------------------ scale-raw

/// Sizes of `repro scale-raw`, the N = 10⁶ tier.
#[derive(Clone, Debug)]
pub struct RawParams {
    /// Node counts to run (each at scenario-5 density).
    pub nodes: Vec<usize>,
    /// Mobility ticks per run.
    pub ticks: usize,
    /// Queries per sweep of the query phase (two sweeps run: cold —
    /// deposits drain into the hint store — then warm).
    pub queries: usize,
    /// Root seed.
    pub seed: u64,
}

impl RawParams {
    /// The full sizes, or the CI smoke sizes when `quick`; `nodes`
    /// replaces the node counts.
    pub fn new(quick: bool, seed: u64, nodes: Option<&[usize]>) -> Self {
        let (sizes, ticks, queries) = if quick {
            (vec![20_000], 5, 1024)
        } else {
            (vec![1_000_000], 20, 4096)
        };
        RawParams {
            nodes: nodes.map_or(sizes, <[usize]>::to_vec),
            ticks,
            queries,
            seed,
        }
    }
}

/// Measured outcome of one raw-tier (N, mobility) run.
#[derive(Clone, Debug)]
pub struct RawRow {
    /// The scenario run.
    pub scenario: Scenario,
    /// Mobility profile.
    pub mobility: MobilityProfile,
    /// The substrate run and the first protocol phase.
    pub sub: Substrate,
    /// Queries per sweep of the query phase.
    pub queries: usize,
    /// Hit rate of the warm (second) sweep.
    pub query_hit_rate: f64,
    /// Wall time of both sweeps (cold + warm), ms.
    pub query_ms: f64,
    /// Protocol shards the world ran with.
    pub shard_count: usize,
    /// Smallest per-shard resident protocol state (contact tables + RNG
    /// streams + backoff + hint slots), bytes.
    pub shard_mem_min: usize,
    /// Mean per-shard resident protocol state, bytes.
    pub shard_mem_mean: usize,
    /// Largest per-shard resident protocol state, bytes.
    pub shard_mem_max: usize,
    /// Hint deposits exchanged (total sent).
    pub plane_sent: u64,
    /// Deposits whose holder lies outside the span of the lane that
    /// logged them.
    pub plane_cross: u64,
    /// Deposits whose holder lies inside that span.
    pub plane_local: u64,
    /// Validation-traffic span-boundary crossings metered (not
    /// materialized) into the deposit ledger.
    pub plane_span_crossings: u64,
    /// Resident-set size after the query phase (bytes).
    pub protocol_rss_bytes: usize,
}

/// Run the raw tier: pedestrian (full-churn kernel rebuild every tick)
/// and ped-dwell (mover-driven kernel patch) at each N.
pub fn run_raw(p: &RawParams) -> Vec<RawRow> {
    let mut rows = Vec::new();
    for &n in &p.nodes {
        let scenario = scaled_scenario(n);
        for profile in [
            MobilityProfile::Pedestrian,
            MobilityProfile::PedestrianDwell,
        ] {
            rows.push(run_one_raw(&scenario, profile, p));
        }
    }
    rows
}

fn run_one_raw(scenario: &Scenario, profile: MobilityProfile, p: &RawParams) -> RawRow {
    // Hints on, one slot per bucket so the per-node state stays lean at
    // N = 10⁶ (the hint table is the dominant per-node cost; one slot ×
    // `card_core::hints::HINT_BUCKETS` buckets ≈ 100 MB at a million nodes).
    let cfg = protocol_config(RAW_RADIUS, p.seed).with_hint_slots_per_bucket(1);
    let (mut world, _, sub) = substrate(scenario, profile, p.ticks, cfg, true);
    let n = scenario.nodes;

    // Targets are aimed through the contact graph: two random contact
    // hops from the source, then a random member of the landing node's
    // zone — resolvable within D by construction. Uniform random pairs
    // at N = 10⁶ essentially never resolve at this density, which would
    // leave the hint deposits (and so the plane columns) vacuously near
    // zero.
    let mut pair_rng = SeedSplitter::new(p.seed).stream("scale-raw-query-pairs", 0);
    let pairs: Vec<(NodeId, NodeId)> = {
        let nbhd = world.network().tables();
        (0..p.queries)
            .map(|_| {
                let s = NodeId::from(pair_rng.index(n));
                let mut at = s;
                for _ in 0..2 {
                    let t = world.contact_table(at);
                    if t.is_empty() {
                        break;
                    }
                    let pick = pair_rng.index(t.len());
                    at = t.ids().nth(pick).expect("pick < len");
                }
                let members = nbhd.of(at).members();
                let target = if members.is_empty() {
                    at
                } else {
                    members[pair_rng.index(members.len())]
                };
                (s, target)
            })
            .collect()
    };
    let mut outcomes = Vec::new();
    let t_query = Instant::now();
    world.query_all_into(&pairs, &mut outcomes); // cold: deposits route
    world.query_all_into(&pairs, &mut outcomes); // warm: hints pay out
    let query_ms = ms_since(t_query);
    let hits = outcomes.iter().filter(|o| o.found).count();

    let shard_mem = world.shard_memory_bytes();
    let ps = world.plane_stats();
    RawRow {
        scenario: *scenario,
        mobility: profile,
        sub,
        queries: p.queries,
        query_hit_rate: hits as f64 / p.queries.max(1) as f64,
        query_ms,
        shard_count: world.shard_count(),
        shard_mem_min: shard_mem.iter().copied().min().unwrap_or(0),
        shard_mem_mean: shard_mem.iter().sum::<usize>() / shard_mem.len().max(1),
        shard_mem_max: shard_mem.iter().copied().max().unwrap_or(0),
        plane_sent: ps.sent,
        plane_cross: ps.cross_shard,
        plane_local: ps.local,
        plane_span_crossings: ps.metered_crossings,
        protocol_rss_bytes: rss_bytes(),
    }
}

const RAW_SUBSTRATE: &[Column<RawRow>] = &[
    ("N", |r| r.scenario.nodes.to_string()),
    ("Mobility", |r| r.mobility.label().to_string()),
    ("Build (ms)", |r| format!("{:.0}", r.sub.build_ms)),
    ("RSS build", |r| fmt_bytes(r.sub.build_rss_bytes)),
    ("RSS end", |r| fmt_bytes(r.sub.end_rss_bytes)),
    ("Table mem", |r| fmt_bytes(r.sub.table_bytes)),
    ("Ticks", |r| r.sub.ticks.to_string()),
    ("Tick mean/max (ms)", |r| {
        format!("{:.2} / {:.2}", r.sub.mean_tick_ms(), r.sub.max_tick_ms)
    }),
    ("Node-ticks/s", |r| {
        fmt_rate(per_s(r.scenario.nodes * r.sub.ticks, r.sub.total_tick_ms))
    }),
    ("Movers/tick", |r| fmt1(r.sub.per_tick(r.sub.movers))),
    ("Fallback ticks", |r| r.sub.fallback_ticks.to_string()),
    ("Kernel lanes", |r| fmt_rate(r.sub.kernel_lanes as f64)),
    ("Exact checks", |r| fmt_rate(r.sub.kernel_exact as f64)),
    ("f32-only %", |r| f32_only(&r.sub)),
];

const RAW_PROTOCOL: &[Column<RawRow>] = &[
    ("N", |r| r.scenario.nodes.to_string()),
    ("Mobility", |r| r.mobility.label().to_string()),
    ("Select (ms)", |r| format!("{:.0}", r.sub.select_ms)),
    ("Validate (ms)", |r| format!("{:.0}", r.sub.validate_ms)),
    ("Node-sweeps/s", |r| {
        let nodes = (1 + PROTOCOL_ROUNDS) * r.scenario.nodes;
        fmt_rate(per_s(nodes, r.sub.select_ms + r.sub.validate_ms))
    }),
    ("Contacts", |r| fmt_rate(r.sub.total_contacts as f64)),
    ("Queries ×2", |r| r.queries.to_string()),
    ("Warm hit %", |r| pct(r.query_hit_rate)),
    ("Queries/s", |r| fmt_rate(per_s(2 * r.queries, r.query_ms))),
    ("Shards", |r| r.shard_count.to_string()),
    ("Shard mem min/mean/max", |r| {
        format!(
            "{} / {} / {}",
            fmt_bytes(r.shard_mem_min),
            fmt_bytes(r.shard_mem_mean),
            fmt_bytes(r.shard_mem_max)
        )
    }),
    ("Plane sent", |r| fmt_rate(r.plane_sent as f64)),
    ("Cross-shard", |r| fmt_rate(r.plane_cross as f64)),
    ("Local", |r| fmt_rate(r.plane_local as f64)),
    ("Span crossings", |r| {
        fmt_rate(r.plane_span_crossings as f64)
    }),
    ("RSS protocol", |r| fmt_bytes(r.protocol_rss_bytes)),
];

/// Render the raw tier as two Markdown tables: the topology-substrate
/// speed columns, then the full-protocol columns — per-shard memory,
/// protocol/query throughput and deposit traffic.
pub fn render_raw(rows: &[RawRow]) -> String {
    format!(
        "### Scale raw — topology-substrate speed runs at scenario-5 density (R={}, tick={:.0} ms)\n\n{}\n\n\
         ### Scale raw — full protocol on shard-resident state (selection + {} validation rounds + hinted cold/warm query sweeps)\n\n{}",
        RAW_RADIUS,
        CardConfig::default().mobility_tick.as_secs_f64() * 1e3,
        table(RAW_SUBSTRATE, rows),
        PROTOCOL_ROUNDS,
        table(RAW_PROTOCOL, rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn tiny() -> Params {
        Params {
            nodes: vec![500],
            ticks: 5,
            queries: 300,
            seed: crate::DEFAULT_SEED,
        }
    }

    /// `run(&tiny())`, computed once for every test that reads it.
    fn tiny_rows() -> &'static [ScaleRow] {
        static ROWS: OnceLock<Vec<ScaleRow>> = OnceLock::new();
        ROWS.get_or_init(|| run(&tiny()))
    }

    #[test]
    fn scaled_scenarios_keep_density() {
        let base = scaled_scenario(500);
        for n in [500usize, 10_000, 100_000] {
            let s = scaled_scenario(n);
            assert_eq!(s.nodes, n);
            assert!(
                (s.density() - base.density()).abs() < 1e-9,
                "density drifts at N={n}"
            );
        }
    }

    #[test]
    fn runs_every_mobility_profile_per_n() {
        let rows = tiny_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].mobility, MobilityProfile::Pedestrian);
        assert_eq!(rows[1].mobility, MobilityProfile::PedestrianDwell);
        assert_eq!(rows[2].mobility, MobilityProfile::Vehicular);
        for r in rows {
            assert_eq!(r.sub.ticks, 5);
            assert!(r.sub.mean_zone >= 1.0, "zones include at least the owner");
            assert!(r.sub.total_tick_ms >= 0.0);
        }
    }

    #[test]
    fn vehicular_churns_more_than_pedestrian() {
        let rows = tiny_rows();
        let (ped, veh) = (&rows[0].sub, &rows[2].sub);
        assert!(
            veh.changed >= ped.changed,
            "30 m/s should flip at least as many links per tick as 2 m/s (ped {}, veh {})",
            ped.per_tick(ped.changed),
            veh.per_tick(veh.changed)
        );
    }

    #[test]
    fn table_memory_is_zone_local_not_quadratic() {
        // Large enough that an N-bit-per-node bitset would dominate the
        // zone tables (the crossover is a few thousand nodes at this
        // density); only the build, since this test is about the tables.
        let n = 10_000;
        let net = Network::from_scenario(&scaled_scenario(n), RADIUS, crate::DEFAULT_SEED);
        let (table_bytes, mean_zone) = (net.tables().approx_heap_bytes(), net.tables().mean_size());
        let bitset_equiv_bytes = n * n.div_ceil(8);
        // the zone-local tables must come in far under the dense-bitset
        // footprint they replaced
        assert!(
            table_bytes < bitset_equiv_bytes / 2,
            "tables {table_bytes} B not well below bitset regime {bitset_equiv_bytes} B"
        );
        // and per-node cost must look like O(zone): a generous constant
        // times zone size, not anything resembling N bits
        let per_node = table_bytes as f64 / n as f64;
        assert!(
            per_node < 64.0 * mean_zone + 256.0,
            "per-node table memory {per_node:.0} B is not O(zone)"
        );
    }

    #[test]
    fn render_mentions_every_row() {
        let text = render(&tiny(), tiny_rows());
        assert!(text.contains("pedestrian"));
        assert!(text.contains("vehicular"));
        assert!(text.contains("500"));
        assert!(text.contains("full-protocol phase"));
        assert!(text.contains("Validate (nodes/s)"));
        assert!(text.contains("Movers/tick"));
        assert!(text.contains("Patched/tick"));
        assert!(text.contains("Fallback ticks"));
        assert!(text.contains("Kernel lanes/tick"));
        assert!(text.contains("f32-only %"));
        assert!(text.contains("query workload phase"));
        assert!(text.contains("Queries/s"));
        assert!(text.contains("Res uni hit %"));
        assert!(text.contains("route-hint cache phase"));
        assert!(text.contains("Warm Δ%"));
        assert!(text.contains("Zipf msgs/q"));
        assert!(text.contains("Deposit buffers"));
    }

    #[test]
    fn hint_phase_cuts_warm_traffic_on_repeat_mixes() {
        for r in tiny_rows() {
            assert!(r.hint_pool > 0, "{:?} built no pool", r.mobility);
            assert!(
                (0.0..=1.0).contains(&r.hint_hit_rate) && (0.0..=1.0).contains(&r.zipf_hit_rate)
            );
            assert!(
                r.hint_hit_rate > 0.0,
                "{:?}: a warm repeat sweep must hit the cache",
                r.mobility
            );
            assert!(
                r.zipf_hit_rate > 0.0,
                "{:?}: the Zipf heads must hit the cache",
                r.mobility
            );
            assert!(
                r.hint_warm_msgs_per <= r.hint_base_msgs_per,
                "{:?}: warm sweep ({:.1} msgs/q) may not exceed cache-off ({:.1})",
                r.mobility,
                r.hint_warm_msgs_per,
                r.hint_base_msgs_per
            );
            assert!(r.hint_churn_msgs_per >= 0.0);
        }
    }

    #[test]
    fn query_phase_produces_sane_throughput_columns() {
        for r in tiny_rows() {
            assert_eq!(r.query_count, 300);
            assert!(
                per_s(r.query_count, r.query_ms) > 0.0,
                "{:?} query throughput",
                r.mobility
            );
            assert!((0.0..=1.0).contains(&r.query_hit_rate));
            assert!((0.0..=1.0).contains(&r.res_uniform_hit_rate));
            assert!((0.0..=1.0).contains(&r.res_clustered_hit_rate));
            assert!(
                r.query_hit_rate > 0.0,
                "some of 300 random DSQs on a 500-node world must hit ({:?})",
                r.mobility
            );
            assert!(r.query_mean_depth <= QUERY_DEPTH as f64);
            // 64 resources × 8 replicas over 500 nodes: anycast should do
            // at least as well as same-depth unicast on average
            assert!(
                r.res_uniform_hit_rate >= r.query_hit_rate * 0.8,
                "uniform {} vs unicast {}",
                r.res_uniform_hit_rate,
                r.query_hit_rate
            );
        }
    }

    #[test]
    fn pipeline_counters_are_collected_per_tick() {
        let rows = tiny_rows();
        for r in rows {
            let s = &r.sub;
            assert!(s.movers > 0, "{:?} reported no movers", r.mobility);
            assert!(s.patched > 0 || s.fallback_ticks == s.ticks);
            assert!(s.fallback_ticks <= s.ticks);
            assert!(s.per_tick(s.rebucketed) <= r.scenario.nodes as f64);
        }
        let n = rows[0].scenario.nodes as f64;
        // continuous profiles move everyone: every tick falls back
        for r in [&rows[0], &rows[2]] {
            assert_eq!(
                r.sub.fallback_ticks, r.sub.ticks,
                "{:?} moves all nodes — every tick must take the wholesale path",
                r.mobility
            );
            assert!(r.sub.per_tick(r.sub.movers) >= n - 0.5);
        }
        // the dwell profile is the few-movers regime: the pipeline must
        // stay on the patch path and touch far fewer rows than N
        let dwell = &rows[1].sub;
        assert_eq!(
            dwell.fallback_ticks, 0,
            "~1% walkers must never trip the churn fallback"
        );
        let movers = dwell.per_tick(dwell.movers);
        assert!(
            movers < n / 8.0,
            "dwell movers/tick ({movers:.1}) should be a small fraction of N"
        );
        let patched = dwell.per_tick(dwell.patched);
        assert!(
            patched < 0.6 * n,
            "dwell patched rows/tick ({patched:.1}) should sit well under N={n}"
        );
        assert!(
            dwell.rebucketed <= dwell.movers,
            "only reported movers can be re-bucketed on patch ticks"
        );
    }

    #[test]
    fn kernel_counters_reflect_refresh_paths() {
        // pedestrian/vehicular ticks fall back to the report-free kernel
        // rebuild; the dwell profile patches through the kernel — either
        // way lanes must flow, and exact checks can never exceed them
        for r in tiny_rows() {
            assert!(
                r.sub.kernel_lanes > 0,
                "{:?}: kernel lanes must be counted",
                r.mobility
            );
            assert!(r.sub.kernel_exact <= r.sub.kernel_lanes);
        }
    }

    #[test]
    fn raw_tier_runs_and_reports_throughput() {
        let p = RawParams {
            nodes: vec![500],
            ticks: 3,
            queries: 4096,
            seed: crate::DEFAULT_SEED,
        };
        let rows = run_raw(&p);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].mobility, MobilityProfile::Pedestrian);
        assert_eq!(rows[1].mobility, MobilityProfile::PedestrianDwell);
        for r in &rows {
            let s = &r.sub;
            assert_eq!(s.ticks, 3);
            assert!(per_s(r.scenario.nodes * s.ticks, s.total_tick_ms) > 0.0);
            assert!(s.kernel_lanes > 0, "{:?} classified no lanes", r.mobility);
            assert!(s.kernel_exact <= s.kernel_lanes);
            assert!(s.movers > 0);
            // Linux (the only supported bench platform) must report RSS
            #[cfg(target_os = "linux")]
            assert!(s.build_rss_bytes > 0 && s.end_rss_bytes > 0);

            // Full-protocol phase: shard-resident state + deposit traffic
            // must be populated on a 500-node world.
            assert!(
                r.sub.total_contacts > 0,
                "{:?} found no contacts",
                r.mobility
            );
            assert!(per_s(r.scenario.nodes, s.select_ms + s.validate_ms) > 0.0);
            assert!(per_s(2 * r.queries, r.query_ms) > 0.0);
            assert!((0.0..=1.0).contains(&r.query_hit_rate));
            assert!(r.shard_count >= 1);
            assert!(r.shard_mem_min > 0, "every shard owns resident state");
            assert!(r.shard_mem_min <= r.shard_mem_mean);
            assert!(r.shard_mem_mean <= r.shard_mem_max);
            assert_eq!(
                r.plane_sent,
                r.plane_cross + r.plane_local,
                "deposit accounting must balance"
            );
            assert!(
                r.plane_span_crossings > 0,
                "validation traffic must meter span crossings"
            );
        }
        let text = render_raw(&rows);
        assert!(text.contains("Node-ticks/s"));
        assert!(text.contains("RSS build"));
        assert!(text.contains("f32-only %"));
        assert!(text.contains("ped-dwell"));
        assert!(text.contains("Shard mem min/mean/max"));
        assert!(text.contains("Cross-shard"));
    }

    #[test]
    fn raw_tier_full_protocol_is_run_deterministic() {
        // The raw tier's protocol phase rides the same sharded sweeps as
        // `run`; repeat runs must land identical protocol outcomes and
        // identical deposit traffic.
        let p = RawParams {
            nodes: vec![400],
            ticks: 2,
            queries: 128,
            seed: crate::DEFAULT_SEED,
        };
        let a = run_raw(&p);
        let b = run_raw(&p);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.sub.total_contacts, rb.sub.total_contacts);
            assert_eq!(ra.query_hit_rate, rb.query_hit_rate);
            assert_eq!(ra.plane_sent, rb.plane_sent);
            assert_eq!(ra.plane_cross, rb.plane_cross);
            assert_eq!(ra.plane_local, rb.plane_local);
            assert_eq!(ra.plane_span_crossings, rb.plane_span_crossings);
        }
    }

    #[test]
    fn kernel_fast_rate_handles_edge_cases() {
        assert_eq!(kernel_fast_rate(0, 0), 1.0);
        assert_eq!(kernel_fast_rate(100, 0), 1.0);
        assert_eq!(kernel_fast_rate(100, 100), 0.0);
        assert!((kernel_fast_rate(200, 50) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn protocol_phase_selects_contacts_and_counts_messages() {
        for r in tiny_rows() {
            assert!(
                r.sub.total_contacts > 0,
                "a 500-node world must yield contacts ({:?})",
                r.mobility
            );
            assert!(r.sub.selection_msgs > 0);
            assert!(
                r.sub.maintenance_msgs > 0,
                "validation rounds must poll paths"
            );
            assert!(per_s(r.scenario.nodes, r.sub.select_ms) > 0.0);
            assert!(per_s(r.scenario.nodes, r.sub.validate_ms) > 0.0);
        }
    }

    #[test]
    fn protocol_phase_is_seed_deterministic() {
        // The sharded sweeps must land identical protocol outcomes on
        // repeat runs (worker scheduling may differ; results must not).
        for (ra, rb) in tiny_rows().iter().zip(&run(&tiny())) {
            assert_eq!(ra.sub.total_contacts, rb.sub.total_contacts);
            assert_eq!(ra.sub.selection_msgs, rb.sub.selection_msgs);
            assert_eq!(ra.sub.maintenance_msgs, rb.sub.maintenance_msgs);
        }
    }
}
