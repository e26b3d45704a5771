//! # card-manet — CARD: Contact-Based Architecture for Resource Discovery
//!
//! Umbrella crate for the full reproduction of *"Contact-Based Architecture
//! for Resource Discovery (CARD) in Large Scale MANets"* (Garg, Pamu,
//! Nahata, Helmy — IPDPS 2003).
//!
//! CARD is a hybrid resource-discovery architecture for large mobile ad hoc
//! networks: each node proactively knows every node within `R` hops (its
//! *neighborhood*) and maintains a handful of *contacts* — nodes 2R‥r hops
//! away whose neighborhoods do not overlap its own. Contacts act as
//! small-world shortcuts: queries beyond the neighborhood are forwarded to
//! contacts (and, with depth of search `D > 1`, to contacts of contacts)
//! instead of being flooded.
//!
//! This crate re-exports the workspace layers:
//!
//! * [`sim`] — deterministic discrete-event engine (replaces NS-2);
//! * [`topology`] — placement, unit-disk connectivity, BFS, graph metrics;
//! * [`mobility`] — random waypoint and friends;
//! * [`routing`] — neighborhood (zone) tables and the `Network` world,
//!   flooding, ZRP bordercasting, expanding-ring search;
//! * [`card`] — the CARD protocol itself: contact selection (PM/EM),
//!   maintenance with local recovery, DSQ querying, reachability analysis.
//!
//! ## Quickstart
//!
//! ```
//! use card_manet::prelude::*;
//!
//! // A 200-node static network in a 500 m x 500 m field, 50 m radio range.
//! let scenario = Scenario::new(200, 500.0, 500.0, 50.0);
//! let mut world = CardWorld::build(&scenario, CardConfig::default().with_seed(7));
//!
//! // Select contacts for every node with the Edge Method, then measure
//! // how much of the network each node can see.
//! world.select_all_contacts();
//! let summary = world.reachability_summary(1);
//! println!("mean reachability: {:.1}%", summary.mean_pct);
//! ```
//!
//! See `examples/` for complete scenarios and `crates/experiments` for the
//! paper's full evaluation (every table and figure). `ARCHITECTURE.md` at
//! the repo root documents the crate layering, the mobility-tick /
//! validation-round data flow, and the scalability invariants (zone-local
//! membership, mover-only grid updates, sharded protocol state, and the
//! mover-driven mobility→topology pipeline);
//! `docs/REPRO.md` documents how to run every experiment family.

#![warn(missing_docs)]
pub use card_core as card;
pub use manet_routing as routing;
pub use mobility;
pub use net_topology as topology;
pub use sim_core as sim;

/// One-stop imports for applications.
pub mod prelude {
    pub use card_core::prelude::*;
    pub use manet_routing::prelude::*;
    pub use mobility::prelude::*;
    pub use net_topology::prelude::*;
    pub use sim_core::prelude::*;
}
