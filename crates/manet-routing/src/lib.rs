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
//!   its neighborhood"). The paper measures none of that protocol's
//!   traffic, so the simulator computes the converged tables directly;
//! * [`network`] — [`network::Network`]: positions + connectivity +
//!   neighborhood tables + mobility stepping, the world object every
//!   experiment drives;
//! * [`flooding`] — global flooding search (baseline #1 of Fig 15);
//! * [`zrp`] — ZRP-style bordercasting with query detection QD1/QD2
//!   (baseline #2 of Fig 15, after Pearlman & Haas);
//! * [`expanding_ring`] — TTL-staged expanding ring search (the comparison
//!   point of §III.C.4, run beside Fig 15's schemes by the
//!   `scheme_comparison` example).
//!
//! ## Memory model: O(zone) per node
//!
//! The paper's scalability claim (§III.C) rests on neighborhood state
//! staying *local* while the network grows; this crate enforces that for
//! the simulation's own memory too. Each node's table in [`neighborhood`]
//! is one heap buffer sized by the zone — sorted member ids, their BFS
//! parents, and the edge nodes: `4·(2m + e)` bytes for m members and e
//! edge nodes. Nothing per-node scales with N (the former per-node N-bit
//! membership bitset, O(N²/8) bytes in total and ~1.25 GB at N = 10⁵, is
//! gone), which is what lets `repro --scale` run 10⁵-node worlds in tens
//! of megabytes. Membership is a binary search over the member ids;
//! distances are walked up the parent chain.
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
//! dirty tables, each in its own buffer, fanned out over the persistent
//! `sim_core::par` worker pool with per-thread BFS scratch.
//!
//! Two refresh entries are production, one is the oracle:
//!
//! * [`network::Network::refresh_movers`] — the mover-driven patch above;
//! * [`network::Network::refresh`] — the report-free path (wholesale
//!   adjacency rebuild + all-rows diff + dirty balls). It is
//!   `refresh_movers`' churn fallback, taken on every tick of a
//!   whole-network motion workload, and its all-rows diff still rebuilds
//!   only the dirty tables (~10⁴ of 5·10⁴ per tick at N = 5·10⁴ when
//!   every node moves);
//! * [`network::Network::refresh_full`] — the layer's oracle: recompute
//!   every table from a scalar rebuild.
//!
//! **Invariant:** after any refresh path, the tables are identical —
//! membership, distances, edge-node sets and path lengths — to what
//! `refresh_full` produces. The (R−1)-ball is sufficient because a node's
//! R-hop BFS only relaxes edges incident to nodes at depth ≤ R−1; if no
//! changed node is that close in either snapshot, induction over BFS depth
//! shows every frontier is unchanged. Randomized equivalence is enforced
//! by unit tests here and `tests/topology_refresh.rs` at the workspace
//! root.

#![warn(missing_docs)]
pub mod expanding_ring;
pub mod flooding;
pub mod neighborhood;
pub mod network;
pub mod zrp;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::expanding_ring::{expanding_ring_search, ErsOutcome};
    pub use crate::flooding::{flood_search, FloodOutcome};
    pub use crate::neighborhood::NeighborhoodTables;
    pub use crate::network::{Network, PipelineCounters};
    pub use crate::zrp::{bordercast_search, BordercastConfig, BordercastOutcome, QueryDetection};
}

pub use expanding_ring::{expanding_ring_search, ErsOutcome};
pub use flooding::{flood_search, FloodOutcome};
pub use neighborhood::NeighborhoodTables;
pub use network::{Network, PipelineCounters};
pub use zrp::{bordercast_search, BordercastConfig, BordercastOutcome, QueryDetection};
