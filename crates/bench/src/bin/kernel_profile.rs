//! Phase-level timing breakdown of the parallel CSR rebuild at N=10⁴.
//! Dev tool, not a recorded benchmark: run `cargo run --release -p bench
//! --bin kernel_profile` to see where rebuild wall time goes.

use experiments::scale::scaled_scenario;
use net_topology::graph::Adjacency;
use net_topology::grid::SpatialGrid;
use net_topology::plane::{KernelScratch, PositionPlane};
use std::time::Instant;

fn main() {
    let n = 10_000usize;
    let iters = 100u32;
    let scenario = scaled_scenario(n);
    let (positions, _) = scenario.instantiate(9);
    let mut grid = SpatialGrid::new(scenario.field(), scenario.tx_range);
    let mut adj = Adjacency::build_with_grid(&mut grid, &positions, scenario.tx_range);
    let mut plane = PositionPlane::new();
    let mut scratch = KernelScratch::new();
    for _ in 0..3 {
        adj.rebuild_with_grid_parallel(
            &mut grid,
            &mut plane,
            &positions,
            scenario.tx_range,
            &mut scratch,
        );
    }

    let t = Instant::now();
    for _ in 0..iters {
        adj.rebuild_with_grid_parallel(
            &mut grid,
            &mut plane,
            &positions,
            scenario.tx_range,
            &mut scratch,
        );
    }
    println!("full parallel      {:>10.1?}", t.elapsed() / iters);

    let t = Instant::now();
    for _ in 0..iters {
        adj.rebuild_with_grid(&mut grid, &positions, scenario.tx_range);
    }
    println!("full serial        {:>10.1?}", t.elapsed() / iters);

    let t = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(grid.update(&positions));
    }
    println!("grid.update        {:>10.1?}", t.elapsed() / iters);

    let t = Instant::now();
    for _ in 0..iters {
        plane.rebuild(&positions);
    }
    println!("plane.rebuild      {:>10.1?}", t.elapsed() / iters);

    let t = Instant::now();
    for _ in 0..iters {
        grid.fill_lane_mirror(&plane, &mut scratch);
    }
    println!("fill_lane_mirror   {:>10.1?}", t.elapsed() / iters);
}
