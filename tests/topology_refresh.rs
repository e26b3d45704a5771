//! Equivalence guarantees for the re-platformed topology hot path.
//!
//! The mobility tick now runs on a CSR adjacency, reusable BFS scratch
//! workspaces and an incremental parallel neighborhood refresh. These tests
//! pin the contracts that refactor must never break:
//!
//! 1. the CSR adjacency built through the spatial grid is edge-for-edge
//!    identical to the naive O(N²) unit-disk definition, and
//! 2. after arbitrary randomized mobility, `Network::refresh` (incremental,
//!    parallel, dirty-set based) produces neighborhood tables identical to
//!    `Network::refresh_full` (the naive rebuild-everything reference) —
//!    across seeds, radii and mobility intensities;
//! 3. the zone-local membership structure (sorted member array + Bloom
//!    fingerprint) answers exactly what the old whole-network membership
//!    bitset answered, for every (owner, probe) pair on random topologies;
//! 4. the mover-only spatial-grid re-bucketing answers range queries
//!    identically to a freshly rebuilt grid across seeds, radii and
//!    mobility intensities (including the churn/overflow fallbacks);
//! 5. the mover-driven pipeline — mobility mover reports feeding
//!    `Adjacency::patch_with_grid` and `Network::refresh_movers` — is
//!    bit-identical (canonical CSR) to the wholesale rebuild across all
//!    four mobility models, seeds, multi-tick sequences, churn-fallback
//!    transitions, and node-count changes.

use card_manet::mobility::model::MobilityModel;
use card_manet::mobility::statics::StaticModel;
use card_manet::prelude::*;
use card_manet::routing::Network;
use card_manet::sim::time::SimDuration;
use card_manet::topology::graph::{Adjacency, PatchScratch};
use card_manet::topology::grid::SpatialGrid;
use card_manet::topology::node::NodeId;
use card_manet::topology::plane::{KernelScratch, PositionPlane};
use proptest::prelude::*;

/// Compare every observable of the two table sets.
fn assert_equivalent(inc: &Network, full: &Network) {
    let n = inc.node_count();
    assert_eq!(inc.adj(), full.adj(), "adjacency snapshots differ");
    assert_eq!(inc.tables().radius(), full.tables().radius());
    for owner in NodeId::all(n) {
        let (a, b) = (inc.tables().of(owner), full.tables().of(owner));
        assert_eq!(a.size(), b.size(), "neighborhood size of {owner}");
        assert_eq!(a.edge_nodes(), b.edge_nodes(), "edge nodes of {owner}");
        for v in NodeId::all(n) {
            assert_eq!(a.contains(v), b.contains(v), "membership {owner}/{v}");
            assert_eq!(a.distance(v), b.distance(v), "distance {owner}/{v}");
        }
        // paths must exist for exactly the members and be valid routes of
        // length == distance (path contents may differ between BFS orders,
        // but both must be correct)
        for v in NodeId::all(n) {
            let (pa, pb) = (a.path_to(v), b.path_to(v));
            assert_eq!(pa.is_some(), pb.is_some(), "path existence {owner}/{v}");
            if let (Some(pa), Some(pb)) = (pa, pb) {
                assert_eq!(pa.len(), pb.len(), "path length {owner}/{v}");
                for w in pa.windows(2) {
                    assert!(
                        inc.adj().is_neighbor(w[0], w[1]),
                        "invalid incremental path hop"
                    );
                }
                for w in pb.windows(2) {
                    assert!(
                        full.adj().is_neighbor(w[0], w[1]),
                        "invalid reference path hop"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// CSR adjacency == naive O(N²) unit-disk graph on random scenarios.
    #[test]
    fn csr_matches_naive_unit_disk(
        seed in 0u64..1000,
        nodes in 2usize..120,
        range in 30.0..90.0f64,
    ) {
        let scenario = Scenario::new(nodes, 400.0, 400.0, range);
        let (positions, adj) = scenario.instantiate(seed);
        let r_sq = range * range;
        for i in 0..nodes {
            let expect: Vec<NodeId> = (0..nodes)
                .filter(|&j| j != i && positions[i].dist_sq(positions[j]) <= r_sq)
                .map(NodeId::from)
                .collect();
            prop_assert_eq!(
                adj.neighbors(NodeId::from(i)),
                &expect[..],
                "node {} differs from the O(N^2) definition", i
            );
        }
    }

    /// Incremental refresh == full refresh after randomized mobility, for
    /// R ∈ {1, 2, 3} and a spread of seeds and speeds.
    #[test]
    fn incremental_refresh_equals_full(
        seed in 0u64..500,
        radius in 1u16..4,
        vmax in 2.0..25.0f64,
        steps in 1usize..6,
    ) {
        let scenario = Scenario::new(80, 350.0, 350.0, 60.0);
        let mut inc = Network::from_scenario(&scenario, radius, seed);
        let mut full = Network::from_scenario(&scenario, radius, seed);
        let mk = || RandomWaypoint::new(
            80,
            scenario.field(),
            1.0,
            vmax,
            0.0,
            SeedSplitter::new(seed).stream("equiv-mobility", 0),
        );
        let (mut mi, mut mf) = (mk(), mk());
        for _ in 0..steps {
            inc.advance_positions_only(&mut mi, SimDuration::from_secs(1));
            inc.refresh();
            full.advance_positions_only(&mut mf, SimDuration::from_secs(1));
            full.refresh_full();
        }
        assert_equivalent(&inc, &full);
    }

    /// Zone-local membership (sorted member array + Bloom fingerprint)
    /// answers exactly what the old per-node whole-network bitset answered:
    /// for every (owner, probe) pair, `contains` ⇔ BFS distance ≤ R, and
    /// the sorted member slice is precisely the set bits of that reference
    /// bitset.
    #[test]
    fn zone_membership_matches_old_bitset_semantics(
        seed in 0u64..500,
        nodes in 2usize..90,
        range in 30.0..90.0f64,
        radius in 0u16..4,
    ) {
        let scenario = Scenario::new(nodes, 400.0, 400.0, range);
        let (_, adj) = scenario.instantiate(seed);
        let tables = card_manet::routing::NeighborhoodTables::compute(&adj, radius);
        for owner in NodeId::all(nodes) {
            // reference: the dense membership bitset the old design stored
            let truth = card_manet::topology::bfs::full_bfs(&adj, owner);
            let mut reference = BitSet::new(nodes);
            for v in NodeId::all(nodes) {
                if matches!(truth.distance(v), Some(d) if d <= radius) {
                    reference.insert(v.index());
                }
            }
            let nb = tables.of(owner);
            for v in NodeId::all(nodes) {
                prop_assert_eq!(
                    nb.contains(v),
                    reference.contains(v.index()),
                    "membership {}/{} disagrees with the bitset reference", owner, v
                );
            }
            // probes beyond the id space must read as absent (the old
            // bitset returned false out of range)
            prop_assert!(!nb.contains(NodeId::new(nodes as u32 + 7)));
            let member_indices: Vec<usize> =
                nb.members().iter().map(|m| m.index()).collect();
            prop_assert_eq!(member_indices, reference.to_vec());
        }
    }

    /// Mover-only grid re-bucketing == full rebuild: after randomized
    /// mobility at any intensity (gentle drifts keep the incremental path,
    /// violent ones trip the churn/overflow fallbacks), range queries from
    /// arbitrary centers return exactly the same neighbor sets, and the
    /// adjacency rebuilt through the updated grid equals a from-scratch
    /// build.
    #[test]
    fn mover_only_grid_equals_full_rebuild(
        seed in 0u64..500,
        nodes in 2usize..100,
        range in 30.0..80.0f64,
        vmax in 0.5..40.0f64,
        steps in 1usize..6,
    ) {
        let scenario = Scenario::new(nodes, 400.0, 400.0, range);
        let (mut positions, _) = scenario.instantiate(seed);
        let mut grid = SpatialGrid::new(scenario.field(), range);
        let mut adj = Adjacency::build_with_grid(&mut grid, &positions, range);
        let mut model = RandomWaypoint::new(
            nodes,
            scenario.field(),
            0.5,
            vmax,
            0.0,
            SeedSplitter::new(seed).stream("grid-equiv", 0),
        );
        for step in 0..steps {
            model.advance(&mut positions, SimDuration::from_secs(1));
            adj.rebuild_with_grid(&mut grid, &positions, range);
            // grid-level equivalence at a pseudo-random query center
            let q = positions[(seed as usize + step) % nodes];
            let mut got = grid.within(&positions, q, range, None);
            got.sort();
            let mut fresh = SpatialGrid::new(scenario.field(), range);
            fresh.rebuild(&positions);
            let mut expect = fresh.within(&positions, q, range, None);
            expect.sort();
            prop_assert_eq!(got, expect, "grid query diverged at step {}", step);
            // adjacency-level equivalence (what the protocol layers see)
            let reference = Adjacency::build(scenario.field(), &positions, range);
            prop_assert_eq!(&adj, &reference, "adjacency diverged at step {}", step);
        }
    }

    /// The dirty-set derivation is *sound*: every node whose table would
    /// change under a full recompute lies inside the R-hop ball (old or new
    /// graph) around some changed node — checked here indirectly by
    /// mutating single random links and asserting incremental == full.
    #[test]
    fn single_link_mutations_stay_equivalent(
        seed in 0u64..300,
        radius in 1u16..4,
        flips in proptest::collection::vec((0u32..60, 0u32..60), 1..10),
    ) {
        // Start from a random geometric graph, then flip random edges via
        // the synthetic-topology API and recompute both ways.
        let scenario = Scenario::new(60, 320.0, 320.0, 60.0);
        let (_, mut adj) = scenario.instantiate(seed);
        for &(a, b) in &flips {
            if a == b { continue; }
            let (a, b) = (NodeId::new(a), NodeId::new(b));
            if adj.is_neighbor(a, b) {
                adj.remove_edge(a, b);
            } else {
                adj.add_edge(a, b);
            }
        }
        // Tables computed in one parallel pass must equal per-node BFS.
        let tables = card_manet::routing::NeighborhoodTables::compute(&adj, radius);
        for owner in NodeId::all(60) {
            let truth = card_manet::topology::bfs::khop_bfs(&adj, owner, radius);
            for v in NodeId::all(60) {
                prop_assert_eq!(tables.of(owner).distance(v), truth.distance(v));
            }
        }
    }
}

/// Build one of the four mobility models for the pipeline-equivalence
/// suites. Kind 0 is the walk-and-dwell mix (few movers — the regime that
/// stays on the patch path); 1 is random waypoint with pauses; 2 is group
/// mobility (every member drifts — trips the churn fallback every tick);
/// 3 is the static model (no movers at all).
fn mobility_model(kind: u64, n: usize, field: Field, seed: u64) -> Box<dyn MobilityModel> {
    let rng = SeedSplitter::new(seed).stream("pipeline-equiv", kind);
    match kind % 4 {
        0 => Box::new(RandomWalk::new_with_dwell(
            n, field, 0.5, 2.0, 1.0, 0.9, rng,
        )),
        1 => Box::new(RandomWaypoint::new(n, field, 1.0, 12.0, 0.5, rng)),
        2 => Box::new(GroupMobility::new(n, field, 3, 1.0, 8.0, 30.0, rng)),
        _ => Box::new(StaticModel),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The mover-driven adjacency patch is bit-identical (canonical CSR:
    /// offsets + edges after slack removal) to both the in-place wholesale
    /// rebuild and a from-scratch build, across all four mobility models,
    /// seeds and multi-tick sequences — covering the patch path, the
    /// churn fallback, and no-motion ticks.
    #[test]
    fn patch_pipeline_equals_rebuild_and_fresh_build(
        seed in 0u64..500,
        kind in 0u64..4,
        nodes in 2usize..90,
        steps in 1usize..6,
    ) {
        let scenario = Scenario::new(nodes, 400.0, 400.0, 50.0);
        let (mut positions, _) = scenario.instantiate(seed);
        let field = scenario.field();
        let mut model = mobility_model(kind, nodes, field, seed);
        let mut grid = SpatialGrid::new(field, 50.0);
        let mut patched = Adjacency::build_with_grid(&mut grid, &positions, 50.0);
        let mut plane = PositionPlane::with_positions(&positions);
        let mut kscratch = KernelScratch::new();
        let mut grid_ref = SpatialGrid::new(field, 50.0);
        let mut rebuilt = Adjacency::build_with_grid(&mut grid_ref, &positions, 50.0);
        let mut scratch = PatchScratch::new();
        let mut changed = Vec::new();
        let mut movers = Vec::new();
        for step in 0..steps {
            model.advance_reporting(&mut positions, SimDuration::from_millis(600), &mut movers);
            patched.patch_with_grid(
                &mut grid, &mut plane, &positions, 50.0,
                &movers, &mut changed, &mut scratch, &mut kscratch);
            rebuilt.rebuild_with_grid(&mut grid_ref, &positions, 50.0);
            let fresh = Adjacency::build(field, &positions, 50.0);
            prop_assert_eq!(
                patched.canonical_csr(),
                fresh.canonical_csr(),
                "patched != fresh at step {} (model kind {})", step, kind
            );
            prop_assert_eq!(
                rebuilt.canonical_csr(),
                fresh.canonical_csr(),
                "rebuilt != fresh at step {} (model kind {})", step, kind
            );
        }
    }

    /// `Network::advance` — the mover-reported production path
    /// (`advance_reporting` → `refresh_movers` → `patch_with_grid`) —
    /// produces neighborhood tables identical to the rebuild-everything
    /// reference, across mobility models, radii and seeds.
    #[test]
    fn network_mover_path_equals_full(
        seed in 0u64..500,
        kind in 0u64..4,
        radius in 1u16..4,
        steps in 1usize..5,
    ) {
        let scenario = Scenario::new(70, 350.0, 350.0, 60.0);
        let mut inc = Network::from_scenario(&scenario, radius, seed);
        let mut full = Network::from_scenario(&scenario, radius, seed);
        let mut mi = mobility_model(kind, 70, scenario.field(), seed);
        let mut mf = mobility_model(kind, 70, scenario.field(), seed);
        for _ in 0..steps {
            inc.advance(mi.as_mut(), SimDuration::from_millis(800));
            if mf.is_static() {
                // `advance` skips static models entirely; keep the
                // reference in lockstep.
                continue;
            }
            full.advance_positions_only(mf.as_mut(), SimDuration::from_millis(800));
            full.refresh_full();
            assert_equivalent(&inc, &full);
            prop_assert_eq!(
                inc.adj().canonical_csr(),
                full.adj().canonical_csr(),
                "mover-path CSR diverged from reference (model kind {})", kind
            );
        }
    }

    /// Creep motion on the patch path — a dwell walk whose few walkers
    /// (about 6% of 70 nodes, redrawn every 1 s tick) fit the patch budget
    /// of 8, each moving well under a meter — stays bit-identical to the
    /// rebuild-everything reference across seeds, radii and speeds, and
    /// at least half the ticks really patch.
    #[test]
    fn network_creep_motion_equals_full(
        seed in 0u64..500,
        radius in 1u16..4,
        vmax in 0.02..0.4f64,
        steps in 6usize..10,
    ) {
        let scenario = Scenario::new(70, 350.0, 350.0, 60.0);
        let mut inc = Network::from_scenario(&scenario, radius, seed);
        let mut full = Network::from_scenario(&scenario, radius, seed);
        let mk = || RandomWalk::new_with_dwell(
            70,
            scenario.field(),
            vmax / 4.0,
            vmax,
            1.0,
            0.94,
            SeedSplitter::new(seed).stream("creep-equiv", 0),
        );
        let (mut mi, mut mf) = (mk(), mk());
        let mut patch_ticks = 0;
        for step in 0..steps {
            inc.advance(&mut mi, SimDuration::from_secs(1));
            let c = inc.pipeline_counters();
            patch_ticks += usize::from(!c.full_fallback && c.rows_patched > 0);
            full.advance_positions_only(&mut mf, SimDuration::from_secs(1));
            full.refresh_full();
            assert_equivalent(&inc, &full);
            prop_assert_eq!(
                inc.adj().canonical_csr(),
                full.adj().canonical_csr(),
                "creep-path CSR diverged from reference at step {}", step
            );
        }
        prop_assert!(
            2 * patch_ticks >= steps,
            "only {} of {} creep ticks took the patch path", patch_ticks, steps
        );
    }

    /// The SoA `PositionPlane` stays lane-for-lane coherent with the f64
    /// `Point2` array across mobility ticks of every model — through patch
    /// ticks, churn fallbacks and interleaved report-free/scalar refreshes.
    #[test]
    fn network_plane_stays_coherent(
        seed in 0u64..500,
        kind in 0u64..4,
        steps in 2usize..7,
    ) {
        let scenario = Scenario::new(70, 350.0, 350.0, 60.0);
        let mut net = Network::from_scenario(&scenario, 2, seed);
        prop_assert!(net.position_plane().is_coherent(net.positions()));
        let mut model = mobility_model(kind, 70, scenario.field(), seed);
        for step in 0..steps {
            match step % 3 {
                // the mover-driven kernel patch (or its churn fallback)
                0 => net.advance(model.as_mut(), SimDuration::from_millis(800)),
                // the report-free kernel rebuild
                1 => {
                    net.advance_positions_only(model.as_mut(), SimDuration::from_millis(800));
                    net.refresh();
                }
                // the scalar reference rebuild must re-mirror the plane too
                _ => {
                    net.advance_positions_only(model.as_mut(), SimDuration::from_millis(800));
                    net.refresh_full();
                }
            }
            prop_assert!(
                net.position_plane().is_coherent(net.positions()),
                "plane incoherent after step {} (model kind {})", step, kind
            );
        }
    }

    /// Borderline-pair stress at the network level: node clusters whose
    /// pair distances are dithered within (a few ulps of) the f32 error
    /// band around the transmission range, then creep motion keeping them
    /// there. The kernel-driven network must stay bit-identical to the
    /// scalar rebuild-everything reference — every near-range link
    /// decision resolved exactly.
    #[test]
    fn network_borderline_dither_equals_full(
        seed in 0u64..500,
        dithers in proptest::collection::vec(-300i64..300, 20..60),
        steps in 1usize..4,
    ) {
        let range = 60.0;
        let field = Field::square(350.0);
        // chain the nodes at near-range spacings with sub-f32-ulp dither
        let positions: Vec<Point2> = dithers.iter().enumerate().map(|(k, &d)| {
            let dither = d as f64 * 1e-8;
            let step = range * 0.5 + dither;
            Point2::new(
                (20.0 + (k as f64 * step) % 310.0).clamp(0.0, 350.0),
                (20.0 + ((k / 5) as f64) * (range + dither)).clamp(0.0, 350.0),
            )
        }).collect();
        let mut inc = Network::from_positions(field, positions.clone(), range, 2);
        let mut full = Network::from_positions(field, positions, range, 2);
        assert_equivalent(&inc, &full);
        let mk = || RandomWalk::new(
            dithers.len(),
            field,
            1e-7,
            3e-6,
            2.0,
            SeedSplitter::new(seed).stream("borderline-equiv", 0),
        );
        let (mut mi, mut mf) = (mk(), mk());
        for step in 0..steps {
            inc.advance(&mut mi, SimDuration::from_secs(1));
            full.advance_positions_only(&mut mf, SimDuration::from_secs(1));
            full.refresh_full();
            assert_equivalent(&inc, &full);
            prop_assert_eq!(
                inc.adj().canonical_csr(),
                full.adj().canonical_csr(),
                "borderline CSR diverged at step {}", step
            );
            prop_assert!(inc.position_plane().is_coherent(inc.positions()));
        }
    }
}

/// Patch through a shrink of the node set and keep ticking on the new
/// count: the patch must detect the count change and fall back to the
/// parallel rebuild, the plane must re-mirror the shorter array, and every
/// CSR must equal the from-scratch oracle build through each transition.
/// `parallel_start` picks how the first CSR was laid out: the parallel
/// rebuild (histogram slack, what `Network` starts from) or the oracle
/// build (tight slack).
fn patch_through_node_count_change(parallel_start: bool) {
    let scenario = Scenario::new(60, 400.0, 400.0, 50.0);
    let field = scenario.field();
    let (mut positions, _) = scenario.instantiate(11);
    let mut grid = SpatialGrid::new(field, 50.0);
    let mut plane = PositionPlane::new();
    let mut kscratch = KernelScratch::new();
    let mut adj = Adjacency::with_nodes(positions.len());
    if parallel_start {
        adj.rebuild_with_grid_parallel(&mut grid, &mut plane, &positions, 50.0, &mut kscratch);
    } else {
        adj.rebuild_with_grid(&mut grid, &positions, 50.0);
        plane.rebuild(&positions);
    }
    let mut scratch = PatchScratch::new();
    let mut changed = Vec::new();
    let mut movers = Vec::new();

    let mut tick = |positions: &[Point2], movers: &[NodeId]| {
        adj.patch_with_grid(
            &mut grid,
            &mut plane,
            positions,
            50.0,
            movers,
            &mut changed,
            &mut scratch,
            &mut kscratch,
        );
        assert!(plane.is_coherent(positions), "plane incoherent");
        assert_eq!(plane.len(), positions.len());
        assert_eq!(adj.node_count(), positions.len());
        assert_eq!(
            adj.canonical_csr(),
            Adjacency::build(field, positions, 50.0).canonical_csr()
        );
    };

    for (n, stream) in [(60, 0), (40, 1)] {
        if positions.len() != n {
            positions.truncate(n);
            tick(&positions, &[]);
        }
        let mut model = RandomWalk::new_with_dwell(
            n,
            field,
            0.5,
            2.0,
            1.0,
            0.9,
            SeedSplitter::new(3).stream("count-change", stream),
        );
        for _ in 0..3 {
            model.advance_reporting(&mut positions, SimDuration::from_millis(500), &mut movers);
            tick(&positions, &movers);
        }
    }
}

#[test]
fn patch_survives_node_count_transitions() {
    patch_through_node_count_change(false);
}

#[test]
fn kernel_patch_survives_node_count_transitions() {
    patch_through_node_count_change(true);
}

#[test]
fn refresh_is_identity_without_motion() {
    let scenario = Scenario::new(100, 400.0, 400.0, 55.0);
    let mut net = Network::from_scenario(&scenario, 2, 9);
    let before: Vec<usize> = NodeId::all(100)
        .map(|v| net.tables().of(v).size())
        .collect();
    for _ in 0..3 {
        net.refresh();
    }
    let after: Vec<usize> = NodeId::all(100)
        .map(|v| net.tables().of(v).size())
        .collect();
    assert_eq!(before, after);
}

#[test]
fn adjacency_equality_is_structural() {
    // PartialEq on the CSR type compares offsets + edges — the invariant
    // the diff in Network::refresh depends on.
    let scenario = Scenario::new(50, 300.0, 300.0, 60.0);
    let (_, a) = scenario.instantiate(4);
    let (_, b) = scenario.instantiate(4);
    assert_eq!(a, b);
    let mut c: Adjacency = a.clone();
    c.add_edge(NodeId::new(0), NodeId::new(49));
    assert_ne!(a, c);
    c.remove_edge(NodeId::new(0), NodeId::new(49));
    assert_eq!(a, c);
}
