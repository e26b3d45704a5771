//! Micro-benchmarks of the hot substrate paths.
//!
//! These are the inner loops every experiment leans on: event scheduling,
//! connectivity rebuilds, grid re-bucketing, hop-limited BFS, bitset unions
//! (reachability) and single CSQ walks. Useful for catching performance
//! regressions that the end-to-end figure benches would only show
//! indirectly.
//!
//! Recorded baselines live in `BENCH_topology.json`; regenerate with
//! `BENCH_JSON=BENCH_topology.json cargo bench -p bench --bench microbench`.
//! Benchmark **ids are stable across PRs** (the CI `bench_diff` step fails
//! on missing/renamed ids) so the file doubles as a perf trend line. CI
//! runs this file under `BENCH_QUICK=1` (see [`bench::config`]).

use card_core::csq::{select_contacts, CsqScratch, ALL_EDGE_NODES};
use card_core::hints::{DepositLog, HintStats, HintStore};
use card_core::query::{dsq_query, dsq_query_rewalk, HintContext, QueryScratch};
use card_core::{CardConfig, ContactTable};
use criterion::{criterion_group, criterion_main, Criterion};
// scenario-5 density scaled to N nodes — shared with the scale experiments
// so benches and `repro scale` can never drift apart
use experiments::scale::scaled_scenario;
use manet_routing::neighborhood::NeighborhoodTables;
use manet_routing::network::Network;
use mobility::model::MobilityModel;
use mobility::walk::RandomWalk;
use mobility::waypoint::RandomWaypoint;
use net_topology::bfs::khop_bfs;
use net_topology::grid::SpatialGrid;
use net_topology::node::NodeId;
use net_topology::scenario::SCENARIO_5;
use sim_core::engine::Engine;
use sim_core::rng::{RngStream, SeedSplitter};
use sim_core::stats::MsgStats;
use sim_core::time::{SimDuration, SimTime};
use sim_core::util::BitSet;
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("engine_schedule_drain_10k", |b| {
        b.iter(|| {
            let mut engine: Engine<u32> = Engine::new();
            for i in 0..10_000u32 {
                engine.schedule_at(SimTime::from_ticks((i as u64 * 7919) % 100_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = engine.next_event() {
                acc += v as u64;
            }
            black_box(acc)
        })
    });
}

fn bench_topology_build(c: &mut Criterion) {
    let scenario = SCENARIO_5;
    c.bench_function("scenario5_build_adjacency", |b| {
        b.iter(|| black_box(scenario.instantiate(black_box(3))))
    });
}

fn bench_neighborhood_tables(c: &mut Criterion) {
    let (_, adj) = SCENARIO_5.instantiate(3);
    c.bench_function("scenario5_tables_r3", |b| {
        b.iter(|| black_box(NeighborhoodTables::compute(black_box(&adj), 3)))
    });
}

fn bench_khop_bfs(c: &mut Criterion) {
    let (_, adj) = SCENARIO_5.instantiate(3);
    c.bench_function("khop_bfs_r3_all_sources", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for src in NodeId::all(adj.node_count()) {
                total += khop_bfs(&adj, src, 3).visited_count();
            }
            black_box(total)
        })
    });
}

fn bench_mobility_tick(c: &mut Criterion) {
    let scenario = SCENARIO_5;
    c.bench_function("network_mobility_tick_500", |b| {
        let mut net = Network::from_scenario(&scenario, 3, 3);
        let mut model = RandomWaypoint::new(
            scenario.nodes,
            scenario.field(),
            1.0,
            5.0,
            0.0,
            RngStream::seed_from_u64(5),
        );
        b.iter(|| {
            net.advance(&mut model, SimDuration::from_millis(100));
            black_box(net.adj().link_count())
        })
    });
}

/// CSR adjacency rebuild from the spatial grid, N ∈ {250, 1000, 10000}
/// (the n10000 id joined with the mover-driven pipeline as the full-path
/// baseline the `adjacency_patch` benches are judged against). The
/// `/parallel` id is the SoA-kernel + row-span rebuild
/// (`rebuild_with_grid_parallel`) at n10000 — canonical-CSR-identical to
/// the scalar id, measured against it.
fn bench_adjacency_rebuild(c: &mut Criterion) {
    for n in [250usize, 1000, 10_000] {
        let scenario = scaled_scenario(n);
        let (positions, _) = scenario.instantiate(9);
        let mut grid = net_topology::grid::SpatialGrid::new(scenario.field(), scenario.tx_range);
        let mut adj = net_topology::graph::Adjacency::build_with_grid(
            &mut grid,
            &positions,
            scenario.tx_range,
        );
        c.bench_function(format!("adjacency_rebuild/n{n}"), |b| {
            b.iter(|| {
                adj.rebuild_with_grid(&mut grid, black_box(&positions), scenario.tx_range);
                black_box(adj.link_count())
            })
        });
        if n == 10_000 {
            let mut plane = net_topology::plane::PositionPlane::new();
            let mut scratch = net_topology::plane::KernelScratch::new();
            c.bench_function(format!("adjacency_rebuild/n{n}/parallel"), |b| {
                b.iter(|| {
                    adj.rebuild_with_grid_parallel(
                        &mut grid,
                        &mut plane,
                        black_box(&positions),
                        scenario.tx_range,
                        &mut scratch,
                    );
                    black_box(adj.link_count())
                })
            });
        }
    }
}

/// The cell-ball range scan head-to-head at n10000: the scalar f64 walk
/// of the oracle build (`for_each_within`) and the per-row gather kernel
/// the patch uses (`for_each_within_kernel`). Each id sweeps the same 512
/// query centers.
fn bench_grid_kernel_scan(c: &mut Criterion) {
    use net_topology::plane::{KernelScratch, PositionPlane};
    let n = 10_000usize;
    let scenario = scaled_scenario(n);
    let (positions, _) = scenario.instantiate(9);
    let mut grid = SpatialGrid::new(scenario.field(), scenario.tx_range);
    grid.rebuild(&positions);
    let plane = PositionPlane::with_positions(&positions);
    let centers: Vec<NodeId> = (0..512).map(|k| NodeId::from(k * 19 % n)).collect();
    let mut group = c.benchmark_group(format!("grid_kernel_scan/n{n}"));
    group.bench_function("scalar", |b| {
        b.iter(|| {
            let mut visited = 0usize;
            for &q in &centers {
                grid.for_each_within(
                    &positions,
                    positions[q.index()],
                    scenario.tx_range,
                    Some(q),
                    |_| visited += 1,
                );
            }
            black_box(visited)
        })
    });
    group.bench_function("gather", |b| {
        let mut scratch = KernelScratch::new();
        b.iter(|| {
            let mut visited = 0usize;
            for &q in &centers {
                grid.for_each_within_kernel(
                    &plane,
                    &positions,
                    positions[q.index()],
                    scenario.tx_range,
                    Some(q),
                    &mut scratch,
                    |_| visited += 1,
                );
            }
            black_box(visited)
        })
    });
    group.finish();
}

/// Mover-only grid re-bucketing vs full counting-sort relayout at
/// N ∈ {1000, 10000}, under the same pedestrian random-walk statistics as
/// the refresh bench. Position snapshots are precomputed (one per 100 ms
/// tick) and replayed ping-pong, so the timed region is *grid work only* —
/// not the mobility model. Per tick only the nodes that crossed a 50 m
/// cell boundary are re-bucketed (an O(1) swap each), so the mover path
/// should sit well under the full relayout that used to run every tick.
fn bench_grid_rebucket(c: &mut Criterion) {
    for n in [1000usize, 10_000] {
        let scenario = scaled_scenario(n);
        // Precompute a tick-by-tick trajectory; ping-pong playback keeps
        // every measured step a single tick of motion.
        let snapshots: Vec<Vec<net_topology::geometry::Point2>> = {
            let (mut positions, _) = scenario.instantiate(11);
            let mut model = RandomWalk::new(
                n,
                scenario.field(),
                0.5,
                2.0,
                10.0,
                RngStream::seed_from_u64(17),
            );
            let mut snaps = vec![positions.clone()];
            for _ in 0..63 {
                model.advance(&mut positions, SimDuration::from_millis(100));
                snaps.push(positions.clone());
            }
            snaps
        };
        let bounce = |i: usize| {
            let period = 2 * (snapshots.len() - 1);
            let k = i % period;
            if k < snapshots.len() {
                k
            } else {
                period - k
            }
        };
        let mut group = c.benchmark_group(format!("grid_rebucket/n{n}"));
        let mut run = |label: &str, incremental: bool| {
            group.bench_function(label, |b| {
                let mut grid = SpatialGrid::new(scenario.field(), scenario.tx_range);
                grid.rebuild(&snapshots[0]);
                let mut i = 0usize;
                b.iter(|| {
                    i += 1;
                    let positions = &snapshots[bounce(i)];
                    if incremental {
                        black_box(grid.update(positions));
                    } else {
                        grid.rebuild(positions);
                    }
                })
            });
        };
        run("mover_update", true);
        run("full_rebuild", false);
        group.finish();
    }
}

/// A precomputed tick-by-tick mobility trace: position snapshots plus the
/// exact mover report of each transition (`movers[t]` is the diff between
/// snapshots `t-1` and `t`). Benches replay it ping-pong so the timed
/// region is pipeline work only, never the mobility model — and because a
/// reversed transition moves exactly the same node set, the recorded
/// report stays exact in both directions.
struct MobilityTrace {
    snapshots: Vec<Vec<net_topology::geometry::Point2>>,
    movers: Vec<Vec<NodeId>>,
}

impl MobilityTrace {
    fn record(
        scenario: &net_topology::scenario::Scenario,
        model: &mut dyn MobilityModel,
        ticks: usize,
    ) -> Self {
        let (mut positions, _) = scenario.instantiate(11);
        let mut snapshots = vec![positions.clone()];
        let mut movers = vec![Vec::new()];
        for _ in 0..ticks {
            let mut report = Vec::new();
            model.advance_reporting(&mut positions, SimDuration::from_millis(100), &mut report);
            snapshots.push(positions.clone());
            movers.push(report);
        }
        MobilityTrace { snapshots, movers }
    }

    /// Snapshot index for iteration `i` of a ping-pong replay.
    fn bounce(&self, i: usize) -> usize {
        let period = 2 * (self.snapshots.len() - 1);
        let k = i % period;
        if k < self.snapshots.len() {
            k
        } else {
            period - k
        }
    }

    /// Mover report of the transition between adjacent snapshots `a`→`b`.
    fn transition_movers(&self, a: usize, b: usize) -> &[NodeId] {
        &self.movers[a.max(b)]
    }
}

/// The two mover-report bench workloads at N = 10000, scenario-5 density:
/// *pedestrian* is the walk-and-dwell mix (~1% of nodes walking at
/// 0.5–2 m/s per 100 ms tick — the few-movers regime the patch targets),
/// *vehicular* is full-churn random waypoint at 10–30 m/s (every node
/// moves every tick — measures the wholesale fallback honestly).
fn pipeline_traces(n: usize) -> Vec<(&'static str, MobilityTrace)> {
    let scenario = scaled_scenario(n);
    let mut pedestrian = RandomWalk::new_with_dwell(
        n,
        scenario.field(),
        0.5,
        2.0,
        10.0,
        experiments::scale::DWELL_PAUSE_PROB,
        RngStream::seed_from_u64(17),
    );
    let mut vehicular = RandomWaypoint::new(
        n,
        scenario.field(),
        10.0,
        30.0,
        0.0,
        RngStream::seed_from_u64(19),
    );
    vec![
        (
            "pedestrian",
            MobilityTrace::record(&scenario, &mut pedestrian, 63),
        ),
        (
            "vehicular",
            MobilityTrace::record(&scenario, &mut vehicular, 63),
        ),
    ]
}

/// Mover-driven CSR adjacency patching per tick at N = 10000, through the
/// one patch entry `Network` calls. Under the pedestrian (dwell) report
/// the patch re-queries only the movers' rows and must sit several times
/// under the `adjacency_rebuild/n10000` full path; under the vehicular
/// report every tick trips the churn fallback, pricing the parallel
/// rebuild through the patch entry point.
fn bench_adjacency_patch(c: &mut Criterion) {
    use net_topology::graph::PatchScratch;
    use net_topology::plane::{KernelScratch, PositionPlane};
    let n = 10_000usize;
    let scenario = scaled_scenario(n);
    let mut group = c.benchmark_group(format!("adjacency_patch/n{n}"));
    for (label, trace) in pipeline_traces(n) {
        group.bench_function(label, |b| {
            let mut grid = SpatialGrid::new(scenario.field(), scenario.tx_range);
            let mut adj = net_topology::graph::Adjacency::build_with_grid(
                &mut grid,
                &trace.snapshots[0],
                scenario.tx_range,
            );
            let mut plane = PositionPlane::with_positions(&trace.snapshots[0]);
            let mut kscratch = KernelScratch::new();
            let mut scratch = PatchScratch::new();
            let mut changed = Vec::new();
            let mut prev = 0usize;
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                let cur = trace.bounce(i);
                let movers = black_box(trace.transition_movers(prev, cur));
                let out = adj.patch_with_grid(
                    &mut grid,
                    &mut plane,
                    &trace.snapshots[cur],
                    scenario.tx_range,
                    movers,
                    &mut changed,
                    &mut scratch,
                    &mut kscratch,
                );
                prev = cur;
                black_box(out)
            })
        });
    }
    group.finish();
}

/// Reported-mover grid updates per tick at N = 10000: the residency check
/// runs only over the mobility model's report instead of scanning all N
/// positions (compare `grid_rebucket/n10000/mover_update`, which pays the
/// full scan every tick).
fn bench_grid_update_reported(c: &mut Criterion) {
    let n = 10_000usize;
    let scenario = scaled_scenario(n);
    let mut group = c.benchmark_group(format!("grid_update_reported/n{n}"));
    for (label, trace) in pipeline_traces(n) {
        group.bench_function(label, |b| {
            let mut grid = SpatialGrid::new(scenario.field(), scenario.tx_range);
            grid.rebuild(&trace.snapshots[0]);
            let mut prev = 0usize;
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                let cur = trace.bounce(i);
                let movers = trace.transition_movers(prev, cur);
                let out = grid.update_reported(&trace.snapshots[cur], black_box(movers));
                prev = cur;
                black_box(out)
            })
        });
    }
    group.finish();
}

/// The mobility-tick topology refresh (adjacency rebuild + neighborhood
/// update) at N ∈ {250, 1000, 10000}: the incremental dirty-set path vs
/// the naive full-rebuild path, driven by identical mobility statistics —
/// pedestrian speeds (0.5–2 m/s) at the protocol's default 100 ms tick,
/// under the random-walk model (its stationary node distribution stays
/// uniform, so per-tick churn is constant over an arbitrarily long
/// measurement). The incremental path is the guard: it must stay well
/// ahead of full rebuild (≥ 2× at N = 1000 — see BENCH_topology.json for
/// the recorded baseline; the margin grows further at finer ticks or lower
/// speeds, and shrinks toward parity as per-tick churn approaches
/// whole-network scale). N = 10000 was added with the zone-local
/// membership refactor; the N ∈ {250, 1000} ids predate it and stay
/// unchanged for trend comparison.
fn bench_topology_refresh(c: &mut Criterion) {
    for n in [250usize, 1000, 10_000] {
        let scenario = scaled_scenario(n);
        let mut group = c.benchmark_group(format!("topology_refresh/n{n}"));
        let mut run = |label: &str, incremental: bool| {
            group.bench_function(label, |b| {
                let mut net = Network::from_scenario(&scenario, 2, 7);
                let mut model = RandomWalk::new(
                    n,
                    scenario.field(),
                    0.5,
                    2.0,
                    10.0,
                    RngStream::seed_from_u64(42),
                );
                b.iter(|| {
                    net.advance_positions_only(&mut model, SimDuration::from_millis(100));
                    if incremental {
                        net.refresh();
                    } else {
                        net.refresh_full();
                    }
                    black_box(net.adj().link_count())
                })
            });
        };
        run("incremental", true);
        run("full_rebuild", false);
        group.finish();
    }
}

/// End-to-end `Network` mobility tick under the dwell workload at
/// N = 10000 (~1% walkers per tick): the mover-driven production path
/// (`advance` → mover report → CSR patch → dirty balls seeded from
/// patched rows) against the report-free path (`advance_positions_only` +
/// `refresh`: wholesale rebuild + O(N) row diff) on identical mobility
/// statistics. This is the Network-level number behind the `repro scale`
/// ped-dwell rows — the whole-pipeline win including the double-buffer
/// snapshot copy and counter bookkeeping the patch path pays.
fn bench_topology_refresh_dwell(c: &mut Criterion) {
    let n = 10_000usize;
    let scenario = scaled_scenario(n);
    let mut group = c.benchmark_group(format!("topology_refresh_dwell/n{n}"));
    let mut run = |label: &str, mover_driven: bool| {
        group.bench_function(label, |b| {
            let mut net = Network::from_scenario(&scenario, 2, 7);
            let mut model = RandomWalk::new_with_dwell(
                n,
                scenario.field(),
                0.5,
                2.0,
                10.0,
                experiments::scale::DWELL_PAUSE_PROB,
                RngStream::seed_from_u64(42),
            );
            b.iter(|| {
                if mover_driven {
                    net.advance(&mut model, SimDuration::from_millis(100));
                } else {
                    net.advance_positions_only(&mut model, SimDuration::from_millis(100));
                    net.refresh();
                }
                black_box(net.pipeline_counters().dirty)
            })
        });
    };
    run("mover_driven", true);
    run("report_free", false);
    group.finish();
}

fn bench_bitset_union(c: &mut Criterion) {
    let mut sets = Vec::new();
    let mut rng = RngStream::seed_from_u64(9);
    for _ in 0..64 {
        let mut s = BitSet::new(1000);
        for _ in 0..50 {
            s.insert(rng.index(1000));
        }
        sets.push(s);
    }
    c.bench_function("bitset_union_64x1000", |b| {
        b.iter(|| {
            let mut acc = BitSet::new(1000);
            for s in &sets {
                acc.union_with(s);
            }
            black_box(acc.len())
        })
    });
}

fn bench_csq_walk(c: &mut Criterion) {
    let net = Network::from_scenario(&SCENARIO_5, 3, 3);
    let cfg = CardConfig::default()
        .with_radius(3)
        .with_max_contact_distance(16)
        .with_target_contacts(5);
    let splitter = SeedSplitter::new(11);
    c.bench_function("select_contacts_one_source", |b| {
        let mut i = 0u64;
        let mut scratch = CsqScratch::new();
        b.iter(|| {
            let mut rng = splitter.stream("bench", i);
            i += 1;
            let mut table = ContactTable::new();
            let mut stats = MsgStats::default();
            select_contacts(
                &net,
                &cfg,
                NodeId::new(0),
                &mut table,
                &mut rng,
                &mut stats,
                SimTime::ZERO,
                ALL_EDGE_NODES,
                &mut scratch,
            );
            black_box(table.len())
        })
    });
}

/// Whole-network protocol sweeps at N = 1000 (scenario-5 density):
/// the sharded parallel path vs the serial reference, for both
/// `select_all_contacts` (from-scratch CSQ selection for every node) and
/// `validation_round` (validate + throttled re-select for every node).
/// Protocol parameters mirror `experiments::scale::protocol_config` so
/// these ids track the same workload `repro scale` reports at N = 10⁴–10⁵.
///
/// Each iteration rebuilds the world: the sweeps mutate per-node state
/// (contact tables, RNG streams, backoff), so timing a repeated sweep on a
/// saturated world would measure the (cheap) "already at NoC" path instead
/// of real selection. Build cost is identical across the serial/parallel
/// variants, so the comparison stays honest even though absolute numbers
/// include it.
fn bench_protocol_sweeps(c: &mut Criterion) {
    let n = 1000usize;
    let scenario = scaled_scenario(n);
    let cfg = CardConfig::default()
        .with_radius(2)
        .with_max_contact_distance(8)
        .with_target_contacts(4)
        .with_seed(29);
    let net = Network::from_scenario(&scenario, 2, 29);

    let mut group = c.benchmark_group(format!("select_all_contacts/n{n}"));
    let mut run_select = |label: &str, parallel: bool| {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut w = card_core::CardWorld::from_network(net.clone(), cfg);
                if parallel {
                    w.select_all_contacts();
                } else {
                    w.select_all_contacts_serial();
                }
                black_box(w.total_contacts())
            })
        });
    };
    run_select("sharded", true);
    run_select("serial", false);
    group.finish();

    let mut group = c.benchmark_group(format!("validation_round/n{n}"));
    let mut run_validate = |label: &str, parallel: bool| {
        group.bench_function(label, |b| {
            // One selected world per variant; each iteration clones it so
            // every measured round validates the same full tables.
            let mut seeded = card_core::CardWorld::from_network(net.clone(), cfg);
            seeded.select_all_contacts();
            b.iter(|| {
                let mut w = seeded.clone();
                if parallel {
                    w.validation_round();
                } else {
                    w.validation_round_serial();
                }
                black_box(w.maintenance_totals().validated)
            })
        });
    };
    run_validate("sharded", true);
    run_validate("serial", false);
    group.finish();
}

/// The re-platformed query engine at N = 1000 (scenario-5 density, D = 3,
/// protocol parameters of `experiments::scale::protocol_config`), on a
/// world with selected contact tables and a fixed random pair list.
///
/// * `dsq_query/n1000/{incremental,rewalk}` — a 256-query batch through
///   the incremental escalation engine (one reused `QueryScratch`; depth d
///   only walks its final level) vs the from-scratch per-depth re-walk
///   reference, which also re-allocates its visited/frontier buffers per
///   attempt. Outcomes and message totals are bit-identical
///   (`tests/query_engine.rs`); only the cost may differ.
/// * `dsq_query/n1000/{hinted_cold,hinted_warm}` — the same 256-query
///   batch through the route-hint path (`card_core::hints`). *cold* starts
///   every iteration from an empty store and applies deposits after each
///   query (the live `CardWorld::query` semantics): it prices the overhead
///   hints add when nothing is cached. *warm* replays the batch against a
///   pre-warmed frozen store (the sharded-sweep read phase): it prices the
///   directed-probe path. Note what these guard: hints cut protocol
///   *messages* (the `repro scale` hint table), not simulator CPU —
///   lookup + probe-chase bookkeeping keeps warm wall time near the plain
///   walk at this N, and these ids exist to keep that overhead bounded.
/// * `query_sweep/n1000/{sharded,serial}` — the whole pair list through
///   the batched `CardWorld::query_all` fan-out (shard-owned scratches,
///   per-shard `MsgStats` deltas) vs the serial reference
///   (`query_all_serial`: one query at a time into the world's stats).
/// * `query_sweep/n1000/hinted` — the same pair list through `query_all`
///   on a hints-enabled, pre-warmed world (frozen-store parallel phase +
///   shard-order deposit application each sweep).
fn bench_query_engine(c: &mut Criterion) {
    let n = 1000usize;
    let scenario = scaled_scenario(n);
    let cfg = CardConfig::default()
        .with_radius(2)
        .with_max_contact_distance(8)
        .with_target_contacts(4)
        .with_depth(3)
        .with_seed(29);
    let net = Network::from_scenario(&scenario, 2, 29);
    let mut world = card_core::CardWorld::from_network(net, cfg);
    world.select_all_contacts();
    let splitter = SeedSplitter::new(31);
    let mut pair_rng = splitter.stream("bench-query-pairs", 0);
    let pairs: Vec<(NodeId, NodeId)> = (0..2000)
        .map(|_| {
            (
                NodeId::from(pair_rng.index(n)),
                NodeId::from(pair_rng.index(n)),
            )
        })
        .collect();

    let mut group = c.benchmark_group("dsq_query/n1000");
    group.bench_function("incremental", |b| {
        let mut scratch = QueryScratch::new();
        b.iter(|| {
            let mut stats = MsgStats::default();
            let mut total = 0u64;
            for &(s, t) in &pairs[..256] {
                total += dsq_query(
                    world.network(),
                    world.contact_tables(),
                    None,
                    black_box(s),
                    t,
                    3,
                    &mut stats,
                    SimTime::ZERO,
                    &mut scratch,
                )
                .total_messages();
            }
            black_box(total)
        })
    });
    group.bench_function("rewalk", |b| {
        b.iter(|| {
            let mut stats = MsgStats::default();
            let mut total = 0u64;
            for &(s, t) in &pairs[..256] {
                total += dsq_query_rewalk(
                    world.network(),
                    world.contact_tables(),
                    black_box(s),
                    t,
                    3,
                    &mut stats,
                    SimTime::ZERO,
                )
                .total_messages();
            }
            black_box(total)
        })
    });
    // One hinted batch: 256 queries against `store`, deposits applied
    // after each query when `live` (the `CardWorld::query` semantics) or
    // discarded when frozen (the sharded-sweep read phase).
    let hinted_batch = |store: &mut HintStore, live: bool, scratch: &mut QueryScratch| {
        let mut hstats = HintStats::default();
        let mut deposits = DepositLog::new();
        let mut stats = MsgStats::default();
        let mut total = 0u64;
        for &(s, t) in &pairs[..256] {
            deposits.clear();
            let out = {
                let mut ctx = HintContext {
                    store: &*store,
                    stats: &mut hstats,
                    deposits: &mut deposits,
                };
                dsq_query(
                    world.network(),
                    world.contact_tables(),
                    Some(&mut ctx),
                    black_box(s),
                    t,
                    3,
                    &mut stats,
                    SimTime::ZERO,
                    scratch,
                )
            };
            if live {
                for d in deposits.runs() {
                    store.deposit(d, &mut hstats);
                }
            }
            total += out.total_messages();
        }
        total
    };
    group.bench_function("hinted_cold", |b| {
        let mut scratch = QueryScratch::new();
        b.iter(|| {
            let mut store = HintStore::new(n, 4, 32);
            black_box(hinted_batch(&mut store, true, &mut scratch))
        })
    });
    group.bench_function("hinted_warm", |b| {
        let mut scratch = QueryScratch::new();
        let mut store = HintStore::new(n, 4, 32);
        hinted_batch(&mut store, true, &mut scratch); // warm pass
        b.iter(|| black_box(hinted_batch(&mut store, false, &mut scratch)))
    });
    group.finish();

    let mut group = c.benchmark_group("query_sweep/n1000");
    let mut run_sweep = |label: &str, parallel: bool| {
        group.bench_function(label, |b| {
            // Queries leave the protocol state untouched; only stats
            // accumulate (into already-grown buckets), so the same world
            // serves every iteration allocation-free.
            let mut w = world.clone();
            b.iter(|| {
                let outcomes = if parallel {
                    w.query_all(black_box(&pairs))
                } else {
                    w.query_all_serial(black_box(&pairs))
                };
                black_box(outcomes.iter().filter(|o| o.found).count())
            })
        });
    };
    run_sweep("sharded", true);
    run_sweep("serial", false);
    group.bench_function("hinted", |b| {
        let mut w = world.clone();
        w.set_hints_enabled(true);
        w.query_all(&pairs); // warm pass: the steady state sweeps ride on
        b.iter(|| {
            let outcomes = w.query_all(black_box(&pairs));
            black_box(outcomes.iter().filter(|o| o.found).count())
        })
    });
    group.finish();
}

/// The cross-shard message plane in isolation: the `exchange` lane drain
/// (src-outer/dst-inner merge into `(dst, src, seq)` delivery order) and
/// the full route → exchange → drain round trip, at the shard/message
/// shape the sharded hint sweeps produce (16 shards, 8192 messages of a
/// deposit-sized payload, scatter-routed), plus the one-shard degenerate
/// case where every message stays local. Buffers are plane-owned and
/// reused, so steady-state iterations are allocation-free — these ids
/// guard exactly the per-sweep overhead `CardWorld` pays to make
/// cross-shard writes explicit.
fn bench_message_plane(c: &mut Criterion) {
    use sim_core::plane::{Envelope, MessagePlane};
    /// Holder, next-hop, depth — deposit-shaped (the drain reads only the
    /// holder; the rest is payload the exchange moves).
    #[allow(dead_code)]
    struct Payload(u32, u32, u16);
    impl Envelope for Payload {}
    let msgs = 8192usize;
    let splitter = SeedSplitter::new(41);
    let mut group = c.benchmark_group("message_plane");
    for shards in [1usize, 16] {
        let mut route_rng = splitter.stream("plane-routes", shards as u64);
        let routes: Vec<(usize, usize)> = (0..msgs)
            .map(|_| (route_rng.index(shards), route_rng.index(shards)))
            .collect();
        group.bench_function(format!("exchange/s{shards}_m{msgs}"), |b| {
            let mut plane: MessagePlane<Payload> = MessagePlane::new(shards);
            b.iter(|| {
                let (outboxes, _) = plane.split_mut();
                for (i, &(src, dst)) in routes.iter().enumerate() {
                    outboxes[src].send(dst, Payload(i as u32, i as u32 ^ 7, 2));
                }
                black_box(plane.exchange())
            })
        });
        group.bench_function(format!("round_trip/s{shards}_m{msgs}"), |b| {
            let mut plane: MessagePlane<Payload> = MessagePlane::new(shards);
            b.iter(|| {
                let (outboxes, _) = plane.split_mut();
                for (i, &(src, dst)) in routes.iter().enumerate() {
                    outboxes[src].send(dst, Payload(i as u32, i as u32 ^ 7, 2));
                }
                plane.exchange();
                let mut sum = 0u64;
                for mb in plane.mailboxes_mut() {
                    for (src, Payload(a, _, _)) in mb.drain() {
                        sum += src as u64 + a as u64;
                    }
                }
                black_box(sum)
            })
        });
    }
    group.finish();

    // The sharded validation round at N = 10000: path polling + absorb +
    // throttled re-select over shard-resident state, with validation
    // traffic metered against shard spans into the plane's stats. Each
    // iteration clones a selected world (mutating sweep — same pattern as
    // `validation_round/n1000`), so the absolute number includes the
    // clone; the id exists to track the full-protocol 10⁴ round the
    // `repro scale-raw` tier scales up from.
    let n = 10_000usize;
    let cfg = CardConfig::default()
        .with_radius(2)
        .with_max_contact_distance(8)
        .with_target_contacts(4)
        .with_seed(29);
    let net = Network::from_scenario(&scaled_scenario(n), 2, 29);
    let mut group = c.benchmark_group(format!("validation_round/n{n}"));
    group.bench_function("plane", |b| {
        let mut seeded = card_core::CardWorld::from_network(net.clone(), cfg);
        seeded.select_all_contacts();
        b.iter(|| {
            let mut w = seeded.clone();
            w.validation_round();
            black_box((
                w.maintenance_totals().validated,
                w.plane_stats().metered_crossings,
            ))
        })
    });
    // The same round under an armed hostile plan (10% churn, a half-field
    // partition window, 1% probe loss): prices the fault plane's per-round
    // overhead — event application, link vetoes, tombstone/retry
    // bookkeeping — over the calm `plane` id. One warm-up round advances
    // the runtime past round 0, so every measured round applies real
    // crash/rejoin events from the plan.
    group.bench_function("faulted", |b| {
        use sim_core::faults::{FaultConfig, FaultPlan, PartitionWindow};
        let mut seeded = card_core::CardWorld::from_network(net.clone(), cfg);
        seeded.select_all_contacts();
        seeded.enable_faults(FaultPlan::generate(
            &FaultConfig {
                churn_rate: 0.1,
                rejoin_after: 2,
                partition: Some(PartitionWindow {
                    start_round: 1,
                    end_round: 3,
                    fraction: 0.5,
                }),
                drop_rate: 0.01,
                delay_rate: 0.01,
                rounds: 4,
            },
            n,
            29,
        ));
        seeded.validation_round();
        b.iter(|| {
            let mut w = seeded.clone();
            w.validation_round();
            black_box((w.maintenance_totals().validated, w.fault_report().crashes))
        })
    });
    group.finish();
}

/// The query-retry path at N = 1000 (depth 3): a 256-query batch through
/// the faulted `CardWorld::query` dispatch plus one validation round that
/// drains the due retries. *calm* arms a no-op plan — every query walks
/// the faulted code path (down-mask filter, verdict lookups) but nothing
/// fails, pricing the fault plane's fixed overhead on healthy traffic.
/// *churn* arms a 20% crash plan applied over two warm-up rounds, so a
/// slice of the batch fails fast on down endpoints, enters the capped
/// backoff queue and is re-run by the round's drain.
fn bench_query_retry(c: &mut Criterion) {
    use sim_core::faults::{FaultConfig, FaultPlan};
    let n = 1000usize;
    let cfg = CardConfig::default()
        .with_radius(2)
        .with_max_contact_distance(8)
        .with_target_contacts(4)
        .with_depth(3)
        .with_seed(29);
    let net = Network::from_scenario(&scaled_scenario(n), 2, 29);
    let mut rng = SeedSplitter::new(31).stream("bench-query-retry", 0);
    let pairs: Vec<(NodeId, NodeId)> = (0..256)
        .map(|_| (NodeId::from(rng.index(n)), NodeId::from(rng.index(n))))
        .collect();
    let churny = FaultPlan::generate(
        &FaultConfig {
            churn_rate: 0.2,
            rejoin_after: 2,
            partition: None,
            drop_rate: 0.05,
            delay_rate: 0.05,
            rounds: 4,
        },
        n,
        29,
    );
    for (label, plan) in [("calm", FaultPlan::calm(29)), ("churn", churny)] {
        c.bench_function(format!("query_retry/n{n}/{label}"), |b| {
            let mut seeded = card_core::CardWorld::from_network(net.clone(), cfg);
            seeded.select_all_contacts();
            seeded.enable_faults(plan.clone());
            seeded.validation_round();
            seeded.validation_round();
            b.iter(|| {
                let mut w = seeded.clone();
                let mut hits = 0u64;
                for &(s, t) in &pairs {
                    hits += w.query(s, t).found as u64;
                }
                w.validation_round();
                black_box((hits, w.pending_query_retries()))
            })
        });
    }
}

/// The event-driven drive loop vs the tick-synchronous reference at
/// N = 10000 (scenario-5 density, the populations of `repro scale-events`):
/// each iteration advances the same live world by one virtual second
/// through `card_core::EventDriver`. *dense* walks every node every tick
/// (the event loop degenerates to the tick loop — parity is the guard);
/// *sparse* is the 99.99%-dwell small-region population where the event
/// loop sleeps through quiescent windows and must sit several times under
/// its tick twin. Validation is pushed out past the measured horizon so
/// the ids price the mobility/event machinery, not the validation sweep.
fn bench_drive_loops(c: &mut Criterion) {
    use card_core::DriveMode;
    use experiments::scale_events::{partition, MotionProfile, REGION_NODES};
    let n = 10_000usize;
    let scenario = scaled_scenario(n);
    let cfg = CardConfig::default()
        .with_radius(2)
        .with_max_contact_distance(8)
        .with_target_contacts(4)
        .with_depth(3)
        .with_seed(29);
    for (loop_name, mode) in [
        ("tick_loop", DriveMode::Tick),
        ("event_loop", DriveMode::Event),
    ] {
        for (label, motion) in [
            ("dense", MotionProfile::Dense),
            ("sparse", MotionProfile::Sparse),
        ] {
            c.bench_function(format!("{loop_name}/n{n}/{label}"), |b| {
                let mut config = cfg;
                config.validation_period = SimDuration::from_secs(1_000_000);
                let mut world = card_core::CardWorld::build(&scaled_scenario(n), config);
                world.select_all_contacts();
                let mut model = partition(&scenario, motion, REGION_NODES, 29);
                let mut driver = card_core::EventDriver::new(&world, &model, mode, Vec::new());
                b.iter(|| {
                    driver.drive(&mut world, &mut model, SimDuration::from_secs(1));
                    black_box(driver.report().events_processed)
                })
            });
        }
    }
}

criterion_group! {
    name = micro;
    config = bench::config();
    targets =
        bench_event_queue,
        bench_topology_build,
        bench_neighborhood_tables,
        bench_khop_bfs,
        bench_mobility_tick,
        bench_adjacency_rebuild,
        bench_grid_kernel_scan,
        bench_adjacency_patch,
        bench_grid_update_reported,
        bench_grid_rebucket,
        bench_topology_refresh,
        bench_topology_refresh_dwell,
        bench_bitset_union,
        bench_csq_walk,
        bench_protocol_sweeps,
        bench_query_engine,
        bench_message_plane,
        bench_query_retry,
        bench_drive_loops,
}
criterion_main!(micro);
