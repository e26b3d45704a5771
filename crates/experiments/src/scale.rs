//! Scale scenarios — Table-1 densities pushed to N = 10⁴–10⁵.
//!
//! The paper's pitch is resource discovery in *large-scale* MANets, but its
//! own evaluation stops at N = 1000 (Table 1). This family keeps Table 1's
//! scenario-5 density (500 nodes in a 710 m square, 50 m radio range) and
//! scales the field so N grows to 10⁴, 5·10⁴ and 10⁵ nodes, then runs a
//! 100-tick mobility loop over the incremental topology refresh and reports
//! what the substrate refactors bought:
//!
//! * **memory** — total neighborhood-table bytes, which are O(zone · N)
//!   after the zone-local membership refactor (a per-node N-bit bitset
//!   would be ~1.25 GB at N = 10⁵; the actual tables are a few hundred
//!   bytes per node);
//! * **time** — wall-clock per mobility tick for the mover-driven refresh
//!   (mobility reports its movers; the grid and the CSR adjacency are
//!   patched around them; dirty-ball neighborhood rebuilds fan out over
//!   the persistent worker pool), plus the per-stage pipeline counters
//!   behind it: movers reported, grid entries re-bucketed, adjacency rows
//!   patched, changed rows, dirty neighborhoods, and how many ticks fell
//!   back to a wholesale pass;
//! * **full protocol** — after the tick loop, the network is wrapped in a
//!   [`CardWorld`] and the sharded protocol sweeps run at full N: one
//!   from-scratch `select_all_contacts` pass plus `PROTOCOL_ROUNDS`
//!   validation rounds, reporting wall time, per-second node throughput,
//!   contacts found, and the selection/maintenance message volume. This is
//!   the end-to-end demonstration that the *protocol* layers — not just
//!   the topology substrate — operate at N = 10⁵ (the tables produced are
//!   seed-deterministic regardless of worker or shard count; see
//!   `card_core::world`);
//! * **query workload** — queries are CARD's actual steady-state traffic
//!   (§III.C.4, Figs 13–15), so each row then drives the re-platformed
//!   query engine on the selected tables: a batch of random node-lookup
//!   DSQs swept through the sharded `CardWorld::query_all` (hit rate,
//!   mean escalation depth of the hits, messages per query, wall time and
//!   queries-per-second throughput), followed by anycast *resource*
//!   queries over a uniform and a clustered replica mix
//!   ([`QUERY_RESOURCES`] resources × [`QUERY_REPLICAS`] replicas,
//!   `card_core::resources::resource_query` on one reused scratch) whose
//!   hit rates land in the last two columns;
//! * **route-hint cache** — the §V hint phase drives repeat-heavy and
//!   Zipf-skewed query mixes over a pool of resolvable targets with the
//!   `card_core::hints` cache off (baseline), cold and warm, reporting
//!   messages per query for each, the warm hit rate, and the staleness
//!   counters after a burst of mobility churn — the headline
//!   messages-per-query cut the cache buys at N = 10⁵.
//!
//! Three mobility profiles bracket the churn range: *pedestrian* (random
//! walk, 0.5–2 m/s — the paper's assumed regime; every node drifts every
//! tick, so the pipeline's wholesale fallback carries the load),
//! *ped-dwell* (same speeds, but ~99% of nodes stand exactly still at any
//! instant — the few-movers regime where the mover-driven patch shines),
//! and *vehicular* (random waypoint, 10–30 m/s — an order of magnitude
//! more link churn per tick).
//!
//! Run from the CLI with `repro scale` (or `repro --scale`), overriding the
//! node counts with `--nodes N` — no recompile needed.

use crate::output::markdown_table;
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
use sim_core::time::SimDuration;
use std::time::Instant;

/// Validation rounds run in the full-protocol phase of each scale row.
pub const PROTOCOL_ROUNDS: usize = 2;

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

/// Parameters of the scale family.
#[derive(Clone, Debug)]
pub struct Params {
    /// Node counts to run (each at scenario-5 density).
    pub nodes: Vec<usize>,
    /// Mobility ticks per run.
    pub ticks: usize,
    /// Simulated time per tick (the protocol's default refresh period).
    pub tick: SimDuration,
    /// Zone radius R.
    pub radius: u16,
    /// Node-lookup DSQs issued per row in the query phase (random
    /// source/target pairs, swept through `CardWorld::query_all`).
    pub queries: usize,
    /// Root seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            nodes: vec![10_000, 50_000, 100_000],
            ticks: 100,
            tick: SimDuration::from_millis(100),
            radius: 2,
            queries: 10_000,
            seed: crate::DEFAULT_SEED,
        }
    }
}

impl Params {
    /// Small sizes for CI smoke runs.
    pub fn quick() -> Self {
        Params {
            nodes: vec![2_000],
            ticks: 20,
            queries: 2_000,
            ..Params::default()
        }
    }
}

/// Scenario-5 density (500 nodes / 710 m square, 50 m tx) scaled to `n`.
pub fn scaled_scenario(n: usize) -> Scenario {
    let side = 710.0 * (n as f64 / 500.0).sqrt();
    Scenario::new(n, side, side, 50.0)
}

/// Measured outcome of one (N, mobility) run.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// The scenario run.
    pub scenario: Scenario,
    /// Mobility profile.
    pub mobility: MobilityProfile,
    /// Mean zone size (members incl. owner).
    pub mean_zone: f64,
    /// Total neighborhood-table heap bytes (O(zone · N)).
    pub table_bytes: usize,
    /// What the same membership state would cost as per-node N-bit bitsets.
    pub bitset_equiv_bytes: usize,
    /// Wall time to build the initial world (placement + adjacency + tables).
    pub build_ms: f64,
    /// Mobility ticks executed.
    pub ticks: usize,
    /// Total wall time of all ticks.
    pub total_tick_ms: f64,
    /// Mean / max wall time per tick.
    pub mean_tick_ms: f64,
    /// Slowest single tick.
    pub max_tick_ms: f64,
    /// Mean movers reported per tick by the mobility model.
    pub mean_movers: f64,
    /// Mean grid entries re-bucketed per tick (cell-boundary crossers).
    pub mean_rebucketed: f64,
    /// Mean CSR adjacency rows re-queried per tick by the patch.
    pub mean_patched: f64,
    /// Ticks on which any wholesale fallback ran (grid relayout or full
    /// adjacency rebuild).
    pub full_fallback_ticks: usize,
    /// Mean adjacency-changed nodes per tick (link churn).
    pub mean_changed: f64,
    /// Mean dirty neighborhoods rebuilt per tick.
    pub mean_dirty: f64,
    /// Total candidate lanes classified by the two-phase f32 distance
    /// kernel across all ticks (0 when every tick ran a scalar path).
    pub kernel_lanes: u64,
    /// Kernel lanes that needed the exact f64 borderline resolution.
    pub kernel_exact: u64,
    /// Wall time of the from-scratch sharded `select_all_contacts` pass.
    pub select_ms: f64,
    /// Contact-selection throughput: nodes swept per second.
    pub select_nodes_per_s: f64,
    /// Total contacts standing after selection + validation rounds.
    pub total_contacts: usize,
    /// Selection messages (CSQ + backtrack + reply) over the whole phase.
    pub selection_msgs: u64,
    /// Total wall time of the [`PROTOCOL_ROUNDS`] validation rounds.
    pub validate_ms: f64,
    /// Validation throughput: nodes swept per second (all rounds pooled).
    pub validate_nodes_per_s: f64,
    /// Maintenance messages (validation + ack) over all rounds.
    pub maintenance_msgs: u64,
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
    /// Query throughput: DSQs per second through the batched sweep.
    pub queries_per_s: f64,
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
    /// Deposit-transport buffers (deposit logs, plane lanes, mailboxes)
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

/// The protocol configuration of the full-protocol phase: the scale
/// family's zone radius with a modest contact annulus and NoC, so the cost
/// profile stays comparable across N (the paper's own r/NoC sweeps live in
/// Figs 5–9 at paper sizes).
pub fn protocol_config(p: &Params) -> CardConfig {
    CardConfig::default()
        .with_radius(p.radius)
        .with_max_contact_distance(4 * p.radius)
        .with_target_contacts(4)
        .with_depth(QUERY_DEPTH)
        .with_seed(p.seed)
}

fn run_one(scenario: &Scenario, profile: MobilityProfile, p: &Params) -> ScaleRow {
    let t0 = Instant::now();
    let mut net = Network::from_scenario(scenario, p.radius, p.seed);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut model = profile.model(scenario, p.seed);

    let mut total_tick_ms = 0.0f64;
    let mut max_tick_ms = 0.0f64;
    let mut movers_sum = 0u64;
    let mut rebucketed_sum = 0u64;
    let mut patched_sum = 0u64;
    let mut full_fallback_ticks = 0usize;
    let mut changed_sum = 0u64;
    let mut dirty_sum = 0u64;
    let mut kernel_lanes = 0u64;
    let mut kernel_exact = 0u64;
    for _ in 0..p.ticks {
        let t = Instant::now();
        net.advance(model.as_mut(), p.tick);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        total_tick_ms += ms;
        max_tick_ms = max_tick_ms.max(ms);
        let c = net.pipeline_counters();
        movers_sum += c.movers_reported as u64;
        rebucketed_sum += c.grid_rebucketed as u64;
        patched_sum += c.rows_patched as u64;
        full_fallback_ticks += c.full_fallback as usize;
        changed_sum += c.changed as u64;
        dirty_sum += c.dirty as u64;
        kernel_lanes += c.kernel_lanes;
        kernel_exact += c.kernel_exact;
    }

    let n = scenario.nodes;
    let (mean_zone, table_bytes) = (net.tables().mean_size(), net.tables().approx_heap_bytes());

    // Full-protocol phase on the post-mobility topology: sharded contact
    // selection for every node, then PROTOCOL_ROUNDS validation rounds.
    let mut world = CardWorld::from_network(net, protocol_config(p));
    let t_sel = Instant::now();
    world.select_all_contacts();
    let select_ms = t_sel.elapsed().as_secs_f64() * 1e3;
    let t_val = Instant::now();
    for _ in 0..PROTOCOL_ROUNDS {
        world.validation_round();
    }
    let validate_ms = t_val.elapsed().as_secs_f64() * 1e3;
    let swept = (PROTOCOL_ROUNDS * n) as f64;

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
    let query_ms = t_query.elapsed().as_secs_f64() * 1e3;
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
    let zipf_warm_msgs_per = msgs_per(&zipf_warm);
    let zipf_hit_rate = world.hint_stats().hit_rate();
    let zipf_shard_mem_max = world.shard_memory_bytes().into_iter().max().unwrap_or(0);
    let zipf_plane_buffer_bytes = world.plane_buffer_bytes();

    ScaleRow {
        scenario: *scenario,
        mobility: profile,
        mean_zone,
        table_bytes,
        bitset_equiv_bytes: n * n.div_ceil(8),
        build_ms,
        ticks: p.ticks,
        total_tick_ms,
        mean_tick_ms: total_tick_ms / p.ticks.max(1) as f64,
        max_tick_ms,
        mean_movers: movers_sum as f64 / p.ticks.max(1) as f64,
        mean_rebucketed: rebucketed_sum as f64 / p.ticks.max(1) as f64,
        mean_patched: patched_sum as f64 / p.ticks.max(1) as f64,
        full_fallback_ticks,
        mean_changed: changed_sum as f64 / p.ticks.max(1) as f64,
        mean_dirty: dirty_sum as f64 / p.ticks.max(1) as f64,
        kernel_lanes,
        kernel_exact,
        select_ms,
        select_nodes_per_s: n as f64 / (select_ms / 1e3).max(1e-9),
        total_contacts: world.total_contacts(),
        selection_msgs: world.stats().total_where(MsgKind::is_selection),
        validate_ms,
        validate_nodes_per_s: swept / (validate_ms / 1e3).max(1e-9),
        maintenance_msgs: world.stats().total_where(MsgKind::is_maintenance),
        query_count: p.queries,
        query_hit_rate: hits as f64 / p.queries.max(1) as f64,
        query_mean_depth: depth_sum as f64 / hits.max(1) as f64,
        query_msgs_per: query_msg_sum as f64 / p.queries.max(1) as f64,
        query_ms,
        queries_per_s: p.queries as f64 / (query_ms / 1e3).max(1e-9),
        res_uniform_hit_rate,
        res_clustered_hit_rate,
        hint_pool: pool.len(),
        hint_base_msgs_per,
        hint_cold_msgs_per,
        hint_warm_msgs_per,
        hint_hit_rate,
        hint_churn_msgs_per,
        hint_stale_total,
        zipf_warm_msgs_per,
        zipf_hit_rate,
        zipf_shard_mem_max,
        zipf_plane_buffer_bytes,
    }
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

/// Parameters of the raw-speed tier (`repro scale-raw`): the N=10⁶ run.
/// First the topology substrate alone — placement, kernel build,
/// mobility + incremental refresh loop (with the range-annulus mover
/// pre-filter engaged; its skips land in the counter columns) — then a
/// **full-protocol** phase on the post-mobility topology: sharded
/// contact selection for every node, [`PROTOCOL_ROUNDS`] validation
/// rounds, and a hinted query sweep whose cross-shard hint deposits
/// travel the explicit message plane. Per-shard memory, throughput and
/// plane-traffic columns show what shard-resident protocol state costs
/// and carries at 10⁶ nodes.
#[derive(Clone, Debug)]
pub struct RawParams {
    /// Node counts to run (each at scenario-5 density).
    pub nodes: Vec<usize>,
    /// Mobility ticks per run.
    pub ticks: usize,
    /// Simulated time per tick.
    pub tick: SimDuration,
    /// Zone radius R (kept at 1: the tier stresses scale, not table
    /// depth — the paper's own r/NoC sweeps live in Figs 5–9).
    pub radius: u16,
    /// Queries per sweep of the full-protocol phase (two sweeps run:
    /// cold — deposits route through the plane — then warm).
    pub queries: usize,
    /// Root seed.
    pub seed: u64,
}

impl Default for RawParams {
    fn default() -> Self {
        RawParams {
            nodes: vec![1_000_000],
            ticks: 20,
            tick: SimDuration::from_millis(100),
            radius: 1,
            queries: 4096,
            seed: crate::DEFAULT_SEED,
        }
    }
}

impl RawParams {
    /// Small sizes for CI smoke runs.
    pub fn quick() -> Self {
        RawParams {
            nodes: vec![20_000],
            ticks: 5,
            queries: 1024,
            ..RawParams::default()
        }
    }
}

/// The protocol configuration of the raw tier's full-protocol phase:
/// shallow annulus and one hint slot per bucket so the per-node state
/// stays lean at N = 10⁶ (the hint table is the dominant per-node cost;
/// one slot × [`card_core::hints::HINT_BUCKETS`] buckets ≈ 100 MB total
/// at a million nodes).
pub fn raw_protocol_config(p: &RawParams) -> CardConfig {
    CardConfig::default()
        .with_radius(p.radius)
        .with_max_contact_distance(4 * p.radius)
        .with_target_contacts(4)
        .with_depth(QUERY_DEPTH)
        .with_hints(true)
        .with_hint_slots_per_bucket(1)
        .with_seed(p.seed)
}

/// Measured outcome of one raw-tier (N, mobility) run.
#[derive(Clone, Debug)]
pub struct RawRow {
    /// The scenario run.
    pub scenario: Scenario,
    /// Mobility profile.
    pub mobility: MobilityProfile,
    /// Wall time of the initial world build (placement + parallel kernel
    /// adjacency + tables).
    pub build_ms: f64,
    /// Resident-set size right after the build (bytes; 0 off-Linux).
    pub build_rss_bytes: usize,
    /// Resident-set size after the tick loop (bytes; 0 off-Linux).
    pub end_rss_bytes: usize,
    /// Mobility ticks executed.
    pub ticks: usize,
    /// Mean / max wall time per tick (ms).
    pub mean_tick_ms: f64,
    /// Slowest single tick (ms).
    pub max_tick_ms: f64,
    /// Mobility+refresh throughput: node-ticks per second over the loop.
    pub node_ticks_per_s: f64,
    /// Mean movers reported per tick.
    pub mean_movers: f64,
    /// Movers the range-annulus pre-filter proved inert (summed over all
    /// ticks) — work the patch never had to do.
    pub movers_skipped: u64,
    /// Ticks on which any wholesale fallback ran.
    pub full_fallback_ticks: usize,
    /// Total candidate lanes classified by the f32 kernel.
    pub kernel_lanes: u64,
    /// Kernel lanes resolved by the exact f64 borderline test.
    pub kernel_exact: u64,
    /// Total neighborhood-table heap bytes.
    pub table_bytes: usize,
    // --- full-protocol phase ---
    /// Wall time of the sharded from-scratch contact selection (ms).
    pub select_ms: f64,
    /// Wall time of the [`PROTOCOL_ROUNDS`] validation rounds (ms).
    pub validate_ms: f64,
    /// Node sweeps per second across selection + validation
    /// ((1 + PROTOCOL_ROUNDS) · N over their combined wall time).
    pub protocol_nodes_per_s: f64,
    /// Contacts held after selection + validation.
    pub total_contacts: usize,
    /// Queries per sweep of the query phase.
    pub queries: usize,
    /// Hit rate of the warm (second) sweep.
    pub query_hit_rate: f64,
    /// Queries per second over both sweeps (cold + warm).
    pub queries_per_s: f64,
    /// Protocol shards the world ran with.
    pub shard_count: usize,
    /// Smallest per-shard resident protocol state (contact tables + RNG
    /// streams + backoff + hint slots), bytes.
    pub shard_mem_min: usize,
    /// Mean per-shard resident protocol state, bytes.
    pub shard_mem_mean: usize,
    /// Largest per-shard resident protocol state, bytes.
    pub shard_mem_max: usize,
    /// Messages routed through the cross-shard plane (total sent).
    pub plane_sent: u64,
    /// Plane messages that actually crossed a shard boundary.
    pub plane_cross: u64,
    /// Plane messages whose source and destination shard coincided.
    pub plane_local: u64,
    /// Validation-traffic span-boundary crossings metered (not
    /// materialized) into the plane's stats.
    pub plane_span_crossings: u64,
    /// Resident-set size after the full-protocol phase (bytes).
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
    let t0 = Instant::now();
    let mut net = Network::from_scenario(scenario, p.radius, p.seed);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let build_rss_bytes = rss_bytes();
    let mut model = profile.model(scenario, p.seed);

    let mut total_tick_ms = 0.0f64;
    let mut max_tick_ms = 0.0f64;
    let mut movers_sum = 0u64;
    let mut movers_skipped = 0u64;
    let mut full_fallback_ticks = 0usize;
    let mut kernel_lanes = 0u64;
    let mut kernel_exact = 0u64;
    for _ in 0..p.ticks {
        let t = Instant::now();
        net.advance(model.as_mut(), p.tick);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        total_tick_ms += ms;
        max_tick_ms = max_tick_ms.max(ms);
        let c = net.pipeline_counters();
        movers_sum += c.movers_reported as u64;
        movers_skipped += c.movers_skipped as u64;
        full_fallback_ticks += c.full_fallback as usize;
        kernel_lanes += c.kernel_lanes;
        kernel_exact += c.kernel_exact;
    }
    let n = scenario.nodes;
    let end_rss_bytes = rss_bytes();
    let table_bytes = net.tables().approx_heap_bytes();

    // Full-protocol phase: the network moves into a sharded CardWorld
    // (per-node protocol state becomes shard-resident; cross-shard hint
    // deposits route through the explicit message plane). One
    // from-scratch selection pass, PROTOCOL_ROUNDS validation rounds,
    // then a hinted query sweep run twice over the same pairs — the cold
    // sweep's plane-routed deposits make the warm sweep's hits.
    let mut world = CardWorld::from_network(net, raw_protocol_config(p));
    let t_sel = Instant::now();
    world.select_all_contacts();
    let select_ms = t_sel.elapsed().as_secs_f64() * 1e3;
    let t_val = Instant::now();
    for _ in 0..PROTOCOL_ROUNDS {
        world.validation_round();
    }
    let validate_ms = t_val.elapsed().as_secs_f64() * 1e3;

    // Targets are aimed through the contact graph: two random contact
    // hops from the source, then a random member of the landing node's
    // zone — resolvable within D by construction. Uniform random pairs
    // at N = 10⁶ essentially never resolve at this density, which would
    // leave the hint deposits (and so the plane columns) vacuously near
    // zero.
    let splitter = SeedSplitter::new(p.seed);
    let mut pair_rng = splitter.stream("scale-raw-query-pairs", 0);
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
                    at = t.contacts()[pair_rng.index(t.len())].id;
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
    let query_ms = t_query.elapsed().as_secs_f64() * 1e3;
    let hits = outcomes.iter().filter(|o| o.found).count();

    let shard_mem = world.shard_memory_bytes();
    let ps = world.plane_stats();
    RawRow {
        scenario: *scenario,
        mobility: profile,
        build_ms,
        build_rss_bytes,
        end_rss_bytes,
        ticks: p.ticks,
        mean_tick_ms: total_tick_ms / p.ticks.max(1) as f64,
        max_tick_ms,
        node_ticks_per_s: (n * p.ticks) as f64 / (total_tick_ms / 1e3).max(1e-9),
        mean_movers: movers_sum as f64 / p.ticks.max(1) as f64,
        movers_skipped,
        full_fallback_ticks,
        kernel_lanes,
        kernel_exact,
        table_bytes,
        select_ms,
        validate_ms,
        protocol_nodes_per_s: ((1 + PROTOCOL_ROUNDS) * n) as f64
            / ((select_ms + validate_ms) / 1e3).max(1e-9),
        total_contacts: world.total_contacts(),
        queries: p.queries,
        query_hit_rate: hits as f64 / p.queries.max(1) as f64,
        queries_per_s: (2 * p.queries) as f64 / (query_ms / 1e3).max(1e-9),
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

/// Render the raw tier as two Markdown tables: the topology-substrate
/// speed columns (with the annulus pre-filter's skip counter), then the
/// full-protocol columns — per-shard memory, protocol/query throughput
/// and cross-shard plane traffic.
pub fn render_raw(p: &RawParams, rows: &[RawRow]) -> String {
    let headers = [
        "N",
        "Mobility",
        "Build (ms)",
        "RSS build",
        "RSS end",
        "Table mem",
        "Ticks",
        "Tick mean/max (ms)",
        "Node-ticks/s",
        "Movers/tick",
        "Movers skipped",
        "Fallback ticks",
        "Kernel lanes",
        "Exact checks",
        "f32-only %",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.nodes.to_string(),
                r.mobility.label().to_string(),
                format!("{:.0}", r.build_ms),
                fmt_bytes(r.build_rss_bytes),
                fmt_bytes(r.end_rss_bytes),
                fmt_bytes(r.table_bytes),
                r.ticks.to_string(),
                format!("{:.2} / {:.2}", r.mean_tick_ms, r.max_tick_ms),
                fmt_rate(r.node_ticks_per_s),
                format!("{:.1}", r.mean_movers),
                fmt_rate(r.movers_skipped as f64),
                r.full_fallback_ticks.to_string(),
                fmt_rate(r.kernel_lanes as f64),
                fmt_rate(r.kernel_exact as f64),
                format!(
                    "{:.2}%",
                    100.0 * kernel_fast_rate(r.kernel_lanes, r.kernel_exact)
                ),
            ]
        })
        .collect();
    let proto_headers = [
        "N",
        "Mobility",
        "Select (ms)",
        "Validate (ms)",
        "Node-sweeps/s",
        "Contacts",
        "Queries ×2",
        "Warm hit %",
        "Queries/s",
        "Shards",
        "Shard mem min/mean/max",
        "Plane sent",
        "Cross-shard",
        "Local",
        "Span crossings",
        "RSS protocol",
    ];
    let proto_body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.nodes.to_string(),
                r.mobility.label().to_string(),
                format!("{:.0}", r.select_ms),
                format!("{:.0}", r.validate_ms),
                fmt_rate(r.protocol_nodes_per_s),
                fmt_rate(r.total_contacts as f64),
                r.queries.to_string(),
                format!("{:.1}%", 100.0 * r.query_hit_rate),
                fmt_rate(r.queries_per_s),
                r.shard_count.to_string(),
                format!(
                    "{} / {} / {}",
                    fmt_bytes(r.shard_mem_min),
                    fmt_bytes(r.shard_mem_mean),
                    fmt_bytes(r.shard_mem_max)
                ),
                fmt_rate(r.plane_sent as f64),
                fmt_rate(r.plane_cross as f64),
                fmt_rate(r.plane_local as f64),
                fmt_rate(r.plane_span_crossings as f64),
                fmt_bytes(r.protocol_rss_bytes),
            ]
        })
        .collect();
    format!(
        "### Scale raw — topology-substrate speed runs at scenario-5 density (R={}, tick={:.0} ms)\n\n{}\n\n\
         ### Scale raw — full protocol on shard-resident state (selection + {} validation rounds + hinted cold/warm query sweeps through the message plane)\n\n{}",
        p.radius,
        p.tick.as_secs_f64() * 1e3,
        markdown_table(&headers, &body),
        PROTOCOL_ROUNDS,
        markdown_table(&proto_headers, &proto_body)
    )
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

fn fmt_rate(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.0}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Render the scale runs as two Markdown tables: the topology substrate
/// columns, then the full-protocol throughput columns.
pub fn render(p: &Params, rows: &[ScaleRow]) -> String {
    let headers = [
        "N",
        "Mobility",
        "Mean zone",
        "Table mem (O(zone·N))",
        "Bitset equiv (O(N²))",
        "Build (ms)",
        "Ticks",
        "Tick mean/max (ms)",
        "Movers/tick",
        "Rebucket/tick",
        "Patched/tick",
        "Changed/tick",
        "Dirty/tick",
        "Fallback ticks",
        "Kernel lanes/tick",
        "f32-only %",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.nodes.to_string(),
                r.mobility.label().to_string(),
                format!("{:.1}", r.mean_zone),
                fmt_bytes(r.table_bytes),
                fmt_bytes(r.bitset_equiv_bytes),
                format!("{:.0}", r.build_ms),
                r.ticks.to_string(),
                format!("{:.2} / {:.2}", r.mean_tick_ms, r.max_tick_ms),
                format!("{:.1}", r.mean_movers),
                format!("{:.1}", r.mean_rebucketed),
                format!("{:.1}", r.mean_patched),
                format!("{:.1}", r.mean_changed),
                format!("{:.1}", r.mean_dirty),
                r.full_fallback_ticks.to_string(),
                fmt_rate(r.kernel_lanes as f64 / r.ticks.max(1) as f64),
                format!(
                    "{:.2}%",
                    100.0 * kernel_fast_rate(r.kernel_lanes, r.kernel_exact)
                ),
            ]
        })
        .collect();
    let cfg = protocol_config(p);
    let proto_headers = [
        "N",
        "Mobility",
        "Select (ms)",
        "Select (nodes/s)",
        "Contacts",
        "Selection msgs",
        "Validate (ms)",
        "Validate (nodes/s)",
        "Maintenance msgs",
    ];
    let proto_body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.nodes.to_string(),
                r.mobility.label().to_string(),
                format!("{:.0}", r.select_ms),
                fmt_rate(r.select_nodes_per_s),
                r.total_contacts.to_string(),
                r.selection_msgs.to_string(),
                format!("{:.0}", r.validate_ms),
                fmt_rate(r.validate_nodes_per_s),
                r.maintenance_msgs.to_string(),
            ]
        })
        .collect();
    let query_headers = [
        "N",
        "Mobility",
        "Queries",
        "Hit %",
        "Mean depth",
        "Msgs/query",
        "Query (ms)",
        "Queries/s",
        "Res uni hit %",
        "Res clu hit %",
    ];
    let query_body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.nodes.to_string(),
                r.mobility.label().to_string(),
                r.query_count.to_string(),
                format!("{:.1}%", 100.0 * r.query_hit_rate),
                format!("{:.2}", r.query_mean_depth),
                format!("{:.1}", r.query_msgs_per),
                format!("{:.0}", r.query_ms),
                fmt_rate(r.queries_per_s),
                format!("{:.1}%", 100.0 * r.res_uniform_hit_rate),
                format!("{:.1}%", 100.0 * r.res_clustered_hit_rate),
            ]
        })
        .collect();
    let hint_headers = [
        "N",
        "Mobility",
        "Pool",
        "Base msgs/q",
        "Cold msgs/q",
        "Warm msgs/q",
        "Warm Δ%",
        "Hit %",
        "Churn msgs/q",
        "Stale",
        "Zipf msgs/q",
        "Zipf hit %",
        "Shard mem max",
        "Deposit buffers",
    ];
    let hint_body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let cut = if r.hint_base_msgs_per > 0.0 {
                100.0 * (r.hint_base_msgs_per - r.hint_warm_msgs_per) / r.hint_base_msgs_per
            } else {
                0.0
            };
            vec![
                r.scenario.nodes.to_string(),
                r.mobility.label().to_string(),
                r.hint_pool.to_string(),
                format!("{:.1}", r.hint_base_msgs_per),
                format!("{:.1}", r.hint_cold_msgs_per),
                format!("{:.1}", r.hint_warm_msgs_per),
                format!("{cut:.1}%"),
                format!("{:.1}%", 100.0 * r.hint_hit_rate),
                format!("{:.1}", r.hint_churn_msgs_per),
                r.hint_stale_total.to_string(),
                format!("{:.1}", r.zipf_warm_msgs_per),
                format!("{:.1}%", 100.0 * r.zipf_hit_rate),
                fmt_bytes(r.zipf_shard_mem_max),
                fmt_bytes(r.zipf_plane_buffer_bytes),
            ]
        })
        .collect();
    format!(
        "### Scale — {}-tick mobility runs at scenario-5 density (R={}, tick={:.0} ms)\n\n{}\n\n\
         ### Scale — full-protocol phase (sharded sweeps; EM, r={}, NoC={}, {} validation rounds)\n\n{}\n\n\
         ### Scale — query workload phase (sharded `query_all` DSQs at D={}; resource mixes {}×{} replicas)\n\n{}\n\n\
         ### Scale — route-hint cache phase (repeat-heavy + Zipf s={} mixes over the resolvable pool; churn burst of {} ticks; memory after the Zipf sweeps)\n\n{}",
        p.ticks,
        p.radius,
        p.tick.as_secs_f64() * 1e3,
        markdown_table(&headers, &body),
        cfg.max_contact_distance,
        cfg.target_contacts,
        PROTOCOL_ROUNDS,
        markdown_table(&proto_headers, &proto_body),
        QUERY_DEPTH,
        QUERY_RESOURCES,
        QUERY_REPLICAS,
        markdown_table(&query_headers, &query_body),
        HINT_ZIPF_EXPONENT,
        HINT_CHURN_TICKS,
        markdown_table(&hint_headers, &hint_body)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Params {
        Params {
            nodes: vec![500],
            ticks: 5,
            queries: 300,
            ..Params::default()
        }
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
        let rows = run(&tiny());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].mobility, MobilityProfile::Pedestrian);
        assert_eq!(rows[1].mobility, MobilityProfile::PedestrianDwell);
        assert_eq!(rows[2].mobility, MobilityProfile::Vehicular);
        for r in &rows {
            assert_eq!(r.ticks, 5);
            assert!(r.mean_zone >= 1.0, "zones include at least the owner");
            assert!(r.total_tick_ms >= 0.0);
        }
    }

    #[test]
    fn vehicular_churns_more_than_pedestrian() {
        let rows = run(&tiny());
        assert!(
            rows[2].mean_changed >= rows[0].mean_changed,
            "30 m/s should flip at least as many links per tick as 2 m/s (ped {}, veh {})",
            rows[0].mean_changed,
            rows[2].mean_changed
        );
    }

    #[test]
    fn table_memory_is_zone_local_not_quadratic() {
        // Large enough that an N-bit-per-node bitset would dominate the
        // zone tables (the crossover is a few thousand nodes at this
        // density); 0 ticks — this test is about the build, not mobility.
        let p = Params {
            nodes: vec![10_000],
            ticks: 0,
            ..Params::default()
        };
        let rows = run(&p);
        for r in &rows {
            // the zone-local tables must come in far under the dense-bitset
            // footprint they replaced
            assert!(
                r.table_bytes < r.bitset_equiv_bytes / 2,
                "tables {} B not well below bitset regime {} B",
                r.table_bytes,
                r.bitset_equiv_bytes
            );
            // and per-node cost must look like O(zone): a generous constant
            // times zone size, not anything resembling N bits
            let per_node = r.table_bytes as f64 / r.scenario.nodes as f64;
            assert!(
                per_node < 64.0 * r.mean_zone + 256.0,
                "per-node table memory {per_node:.0} B is not O(zone)"
            );
        }
    }

    #[test]
    fn render_mentions_every_row() {
        let p = tiny();
        let rows = run(&p);
        let text = render(&p, &rows);
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
        let rows = run(&tiny());
        for r in &rows {
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
        let rows = run(&tiny());
        for r in &rows {
            assert_eq!(r.query_count, 300);
            assert!(r.queries_per_s > 0.0, "{:?} query throughput", r.mobility);
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
        let rows = run(&tiny());
        for r in &rows {
            assert!(r.mean_movers > 0.0, "{:?} reported no movers", r.mobility);
            assert!(r.mean_patched > 0.0 || r.full_fallback_ticks == r.ticks);
            assert!(r.full_fallback_ticks <= r.ticks);
            assert!(r.mean_rebucketed <= r.scenario.nodes as f64);
        }
        let n = rows[0].scenario.nodes as f64;
        // continuous profiles move everyone: every tick falls back
        for r in [&rows[0], &rows[2]] {
            assert_eq!(
                r.full_fallback_ticks, r.ticks,
                "{:?} moves all nodes — every tick must take the wholesale path",
                r.mobility
            );
            assert!(r.mean_movers >= n - 0.5);
        }
        // the dwell profile is the few-movers regime: the pipeline must
        // stay on the patch path and touch far fewer rows than N
        let dwell = &rows[1];
        assert_eq!(
            dwell.full_fallback_ticks, 0,
            "~1% walkers must never trip the churn fallback"
        );
        assert!(
            dwell.mean_movers < n / 8.0,
            "dwell movers/tick ({:.1}) should be a small fraction of N",
            dwell.mean_movers
        );
        assert!(
            dwell.mean_patched < 0.6 * n,
            "dwell patched rows/tick ({:.1}) should sit well under N={n}",
            dwell.mean_patched
        );
        assert!(
            dwell.mean_rebucketed <= dwell.mean_movers,
            "only reported movers can be re-bucketed on patch ticks"
        );
    }

    #[test]
    fn kernel_counters_reflect_refresh_paths() {
        let rows = run(&tiny());
        // pedestrian/vehicular ticks fall back to the report-free kernel
        // rebuild; the dwell profile patches through the kernel — either
        // way lanes must flow, and exact checks can never exceed them
        for r in &rows {
            assert!(
                r.kernel_lanes > 0,
                "{:?}: kernel lanes must be counted",
                r.mobility
            );
            assert!(r.kernel_exact <= r.kernel_lanes);
        }
    }

    #[test]
    fn raw_tier_runs_and_reports_throughput() {
        let p = RawParams {
            nodes: vec![500],
            ticks: 3,
            ..RawParams::default()
        };
        let rows = run_raw(&p);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].mobility, MobilityProfile::Pedestrian);
        assert_eq!(rows[1].mobility, MobilityProfile::PedestrianDwell);
        for r in &rows {
            assert_eq!(r.ticks, 3);
            assert!(r.node_ticks_per_s > 0.0);
            assert!(r.kernel_lanes > 0, "{:?} classified no lanes", r.mobility);
            assert!(r.kernel_exact <= r.kernel_lanes);
            assert!(r.mean_movers > 0.0);
            assert!(
                r.movers_skipped <= r.ticks as u64 * r.scenario.nodes as u64,
                "skips are bounded by the reports"
            );
            // Linux (the only supported bench platform) must report RSS
            #[cfg(target_os = "linux")]
            assert!(r.build_rss_bytes > 0 && r.end_rss_bytes > 0);

            // Full-protocol phase: shard-resident state + plane traffic
            // must be populated on a 500-node world.
            assert!(r.total_contacts > 0, "{:?} found no contacts", r.mobility);
            assert!(r.protocol_nodes_per_s > 0.0);
            assert!(r.queries_per_s > 0.0);
            assert!((0.0..=1.0).contains(&r.query_hit_rate));
            assert!(r.shard_count >= 1);
            assert!(r.shard_mem_min > 0, "every shard owns resident state");
            assert!(r.shard_mem_min <= r.shard_mem_mean);
            assert!(r.shard_mem_mean <= r.shard_mem_max);
            assert_eq!(
                r.plane_sent,
                r.plane_cross + r.plane_local,
                "plane accounting must balance"
            );
            assert!(
                r.plane_span_crossings > 0,
                "validation traffic must meter span crossings"
            );
        }
        let text = render_raw(&p, &rows);
        assert!(text.contains("Node-ticks/s"));
        assert!(text.contains("RSS build"));
        assert!(text.contains("f32-only %"));
        assert!(text.contains("ped-dwell"));
        assert!(text.contains("Movers skipped"));
        assert!(text.contains("Shard mem min/mean/max"));
        assert!(text.contains("Cross-shard"));
    }

    #[test]
    fn raw_tier_full_protocol_is_run_deterministic() {
        // The raw tier's protocol phase rides the same sharded sweeps as
        // `run`; repeat runs must land identical protocol outcomes and
        // identical plane traffic.
        let p = RawParams {
            nodes: vec![400],
            ticks: 2,
            queries: 128,
            ..RawParams::default()
        };
        let a = run_raw(&p);
        let b = run_raw(&p);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.total_contacts, rb.total_contacts);
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
        let rows = run(&tiny());
        for r in &rows {
            assert!(
                r.total_contacts > 0,
                "a 500-node world must yield contacts ({:?})",
                r.mobility
            );
            assert!(r.selection_msgs > 0);
            assert!(r.maintenance_msgs > 0, "validation rounds must poll paths");
            assert!(r.select_nodes_per_s > 0.0);
            assert!(r.validate_nodes_per_s > 0.0);
        }
    }

    #[test]
    fn protocol_phase_is_seed_deterministic() {
        // The sharded sweeps must land identical protocol outcomes on
        // repeat runs (worker scheduling may differ; results must not).
        let a = run(&tiny());
        let b = run(&tiny());
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.total_contacts, rb.total_contacts);
            assert_eq!(ra.selection_msgs, rb.selection_msgs);
            assert_eq!(ra.maintenance_msgs, rb.maintenance_msgs);
        }
    }
}
