//! # manet-routing — routing substrates for the CARD reproduction
//!
//! CARD sits on top of a *proactive intra-neighborhood* routing layer and is
//! evaluated against two reactive discovery baselines. This crate implements
//! all of them:
//!
//! * [`neighborhood`] — R-hop neighborhood (zone) tables: membership,
//!   distances, edge nodes and intra-zone paths. These tables are the
//!   idealized converged state of a proactive protocol such as DSDV, which
//!   is exactly what the paper assumes (§III.C: "Each node proactively
//!   (using a protocol such as DSDV) maintains state for all the nodes in
//!   its neighborhood");
//! * [`dsdv`] — a real sequence-numbered distance-vector protocol, run in
//!   synchronous rounds, demonstrating that the oracle tables are attainable
//!   and at what message cost;
//! * [`network`] — [`network::Network`]: positions + connectivity +
//!   neighborhood tables + mobility stepping, the world object every
//!   experiment drives;
//! * [`flooding`] — global flooding search (baseline #1 of Fig 15);
//! * [`zrp`] — ZRP-style bordercasting with query detection QD1/QD2
//!   (baseline #2 of Fig 15, after Pearlman & Haas);
//! * [`expanding_ring`] — TTL-staged expanding ring search (the comparison
//!   point of §III.C.4, used in ablation benches).
//!
//! ## Memory model: O(zone) per node
//!
//! The paper's scalability claim (§III.C) rests on neighborhood state
//! staying *local* while the network grows; this crate enforces that for
//! the simulation's own memory too. Every per-node structure in
//! [`neighborhood`] is sized by the zone — sorted member ids, distances,
//! BFS parents, edge nodes, and a small Bloom fingerprint (~1 byte per
//! member) for fast-negative membership probes. Nothing per-node scales
//! with N (the former per-node N-bit membership bitset, O(N²/8) bytes in
//! total and ~1.25 GB at N = 10⁵, is gone), which is what lets
//! `repro --scale` run 10⁵-node worlds in tens of megabytes. Membership
//! tests are fingerprint-then-binary-search: no false negatives, and a
//! false positive only costs the O(log zone) confirm.
//!
//! ## Mover-driven incremental neighborhood refresh
//!
//! On a mobility tick, [`network::Network::advance`] (1) has the mobility
//! model report exactly which nodes changed position, (2) patches the
//! spatial grid and the CSR adjacency around those movers
//! (`Adjacency::patch_with_grid`: residency checks and row re-queries
//! only for movers, half-edge edits at the far ends of their flipped
//! links — the changed-row set falls out of the patch, no O(N) diff),
//! (3) marks as dirty exactly the union of the (R−1)-hop balls around the
//! changed nodes in the old and new graphs, and (4) rebuilds only the
//! dirty tables, each in its own buffers, fanned out over the persistent
//! `sim_core::par` worker pool with per-worker BFS scratch.
//! [`network::Network::refresh`] keeps the report-free variant
//! (wholesale rebuild + all-rows diff) for callers that mutate positions
//! directly, and every stage falls back to it on churn past the
//! thresholds.
//!
//! **Invariant:** after any refresh path, the tables are identical —
//! membership, distances, edge-node sets and path lengths — to what
//! [`network::Network::refresh_full`] (recompute everything) produces.
//! The (R−1)-ball is sufficient because a node's R-hop BFS only relaxes
//! edges incident to nodes at depth ≤ R−1; if no changed node is that
//! close in either snapshot, induction over BFS depth shows every frontier
//! is unchanged. `refresh_full` stays in the API as the reference path and
//! bench baseline; randomized equivalence is enforced by unit tests here
//! and `tests/topology_refresh.rs` at the workspace root.

#![warn(missing_docs)]
pub mod dsdv;
pub mod expanding_ring;
pub mod flooding;
pub mod neighborhood;
pub mod network;
pub mod zrp;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::dsdv::DsdvSim;
    pub use crate::expanding_ring::{expanding_ring_search, ErsOutcome};
    pub use crate::flooding::{flood_search, FloodOutcome};
    pub use crate::neighborhood::NeighborhoodTables;
    pub use crate::network::{Network, PipelineCounters};
    pub use crate::zrp::{bordercast_search, BordercastConfig, BordercastOutcome, QueryDetection};
}

pub use dsdv::DsdvSim;
pub use expanding_ring::{expanding_ring_search, ErsOutcome};
pub use flooding::{flood_search, FloodOutcome};
pub use neighborhood::NeighborhoodTables;
pub use network::{Network, PipelineCounters};
pub use zrp::{bordercast_search, BordercastConfig, BordercastOutcome, QueryDetection};
