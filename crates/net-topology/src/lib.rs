//! # net-topology — geometry and connectivity substrate
//!
//! This crate models the physical layer of the CARD evaluation exactly the
//! way the paper's NS-2 setup did (no MAC, no loss): nodes are points in a
//! rectangular field and two nodes share a bidirectional link iff their
//! Euclidean distance is at most the transmission range (*unit-disk graph*).
//!
//! Components:
//!
//! * [`geometry`] — [`geometry::Point2`], [`geometry::Field`];
//! * [`node`] — dense [`node::NodeId`] handles;
//! * [`placement`] — uniform random node placement;
//! * [`grid`] — a spatial hash grid giving O(1)-neighborhood range queries,
//!   used to rebuild connectivity in O(N · avg-degree) instead of O(N²);
//! * [`plane`] — the SoA f32 position mirror ([`plane::PositionPlane`])
//!   and the two-phase (approximate filter → exact confirm) distance
//!   kernel machinery behind the batched grid scans;
//! * [`graph`] — the adjacency structure ([`graph::Adjacency`]);
//! * [`bfs`] — hop-limited and full breadth-first search (neighborhood
//!   tables, shortest hop paths);
//! * [`metrics`] — links, degree, diameter, average hops (Table 1);
//! * [`smallworld`] — Watts–Strogatz clustering / characteristic path
//!   length (the paper's §I small-world foundation);
//! * [`scenario`] — the 8 simulation scenarios of Table 1 plus custom ones.
//!
//! ## Hot-path layout (the mobility tick)
//!
//! This crate is the bottom of the 4-layer topology→routing→protocol stack
//! (`sim-core` → `net-topology` → `manet-routing` → `card-core`), and the
//! mobility tick is its hot path. Two structural decisions keep that path
//! allocation-free and cache-friendly at scale:
//!
//! * **CSR everywhere** — both the [`grid::SpatialGrid`] buckets and the
//!   [`graph::Adjacency`] neighbor lists are flat arrays with offset
//!   tables, rebuilt in place by counting passes. A rebuild touches two
//!   buffers, not N little vectors;
//! * **epoch-stamped scratch** — [`bfs::BfsScratch`] keeps distances,
//!   parents, queue and visited marks in persistent buffers; a new
//!   traversal costs O(1) setup (bump the epoch) instead of O(N) clearing.
//!   The convenience wrappers ([`bfs::khop_bfs`], [`bfs::full_bfs`],
//!   [`bfs::shortest_path`]) run on a thread-local scratch and allocate
//!   only their output; bulk work holds its own scratch or borrows the
//!   thread-local one through [`bfs::with_local_scratch`] (see
//!   `manet_routing::neighborhood`).

#![warn(missing_docs)]
pub mod bfs;
pub mod geometry;
pub mod graph;
pub mod grid;
pub mod metrics;
pub mod node;
pub mod placement;
pub mod plane;
pub mod scenario;
pub mod smallworld;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::bfs::{full_bfs, khop_bfs, shortest_path, BfsResult, BfsScratch, BfsView};
    pub use crate::geometry::{Field, Point2};
    pub use crate::graph::Adjacency;
    pub use crate::grid::SpatialGrid;
    pub use crate::metrics::TopologyMetrics;
    pub use crate::node::NodeId;
    pub use crate::placement::place_uniform;
    pub use crate::plane::{KernelBand, KernelScratch, KernelStats, PositionPlane};
    pub use crate::scenario::{Scenario, TABLE1_SCENARIOS};
    pub use crate::smallworld::SmallWorldMetrics;
}

pub use bfs::{full_bfs, khop_bfs, shortest_path, BfsResult, BfsScratch, BfsView};
pub use geometry::{Field, Point2};
pub use graph::Adjacency;
pub use grid::SpatialGrid;
pub use metrics::TopologyMetrics;
pub use node::NodeId;
pub use plane::{KernelBand, KernelScratch, KernelStats, PositionPlane};
pub use scenario::{Scenario, TABLE1_SCENARIOS};
pub use smallworld::SmallWorldMetrics;
