//! # card-core — the CARD protocol
//!
//! The paper's primary contribution (§III): a hybrid resource-discovery
//! architecture in which each node proactively knows its R-hop
//! *neighborhood* and reactively maintains a few *contacts* — nodes between
//! 2R and r hops away whose neighborhoods do not overlap its own — acting as
//! small-world shortcuts for queries beyond the neighborhood.
//!
//! Modules, mirroring the paper's §III.C mechanism descriptions:
//!
//! * [`config`] — every protocol parameter (R, r, NoC, D, selection method,
//!   validation period) in one [`config::CardConfig`];
//! * [`contact`] — contacts and the contact store: per-node tables as
//!   node-ordered rows over one path arena;
//! * [`selection`] — the contact-selection *decision*: probabilistic method
//!   PM (equations 1 and 2) and edge method EM (§III.C.2);
//! * [`csq`] — the Contact Selection Query: a random depth-first walk with
//!   backtracking out to at most r hops (§III.C.1);
//! * [`maintenance`] — periodic contact validation with local recovery
//!   (§III.C.3);
//! * [`query`] — the Destination Search Query with depth-of-search
//!   escalation (§III.C.4): one zero-allocation walk on an epoch-stamped
//!   [`query::QueryScratch`], shared by node queries, resource queries
//!   and reachability, calm or faulted (the fault view is the walk's
//!   edge-veto argument, not a second walk), with *incremental*
//!   escalation (depth d only walks its final level; accounting stays
//!   bit-identical to the per-depth re-walk reference
//!   [`query::dsq_query_rewalk`]) and one batched
//!   [`world::CardWorld::query_all`] sweep sharded over the worker pool;
//! * [`hints`] — the §V route-hint cache: bounded per-node hint tables
//!   (distance-bucketed, LRU within a bucket, one flat slot array) that
//!   turn repeat queries into directed probes, with TTL epochs and
//!   mobility-driven invalidation (see [`world::CardWorld::query_all`]
//!   for how the sharded sweep keeps determinism with the cache on);
//! * [`reachability`] — the paper's reachability metric (§III.B) and its
//!   distribution histograms;
//! * [`resources`] — resource-level (anycast) discovery: registries, the
//!   §V "resource distribution" models, and resource DSQs;
//! * [`world`] — [`world::CardWorld`]: network + per-node CARD state +
//!   event-driven simulation loop (mobility ticks, validation rounds).
//!   Only contact rows are stored per shard; RNG streams, backoffs and the
//!   hint store are node-indexed world arrays that each fan-out cuts into
//!   span slices. The whole-network selection and validation sweeps fan
//!   out over the persistent `sim_core::par` worker pool, one span and one
//!   scratch lane per worker, bit-identical at any worker or shard count;
//!   a one-shard world runs the same calls inline and is the serial
//!   reference (the module docs spell out the determinism contract). A seeded
//!   `sim_core::faults` plan can be armed on any world
//!   ([`world::CardWorld::enable_faults`]) for deterministic crash/
//!   partition/message-loss injection with tombstone, retry-timer, and
//!   query-retry hardening — as extra stages and arguments of the same
//!   round, sweep and query body, never as copies of them.

#![warn(missing_docs)]
pub mod config;
pub mod contact;
pub mod csq;
pub mod events;
pub mod hints;
pub mod maintenance;
pub mod query;
pub mod reachability;
pub mod resources;
pub mod selection;
pub mod standing;
pub mod world;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::config::{CardConfig, SelectionMethod};
    pub use crate::contact::{Contact, ContactStore, ContactTable};
    pub use crate::events::{Arrival, ArrivalKind, DriveMode, DriveReport, EventDriver};
    pub use crate::hints::{HintStats, HintStore};
    pub use crate::query::{QueryOutcome, QueryRetryQueue, QueryScratch, RetryStats};
    pub use crate::reachability::{ReachabilitySummary, REACH_BUCKET_PCT};
    pub use crate::resources::{ResourceDistribution, ResourceId, ResourceRegistry};
    pub use crate::standing::{StandingQueries, StandingQuery, StandingState, StandingStats};
    pub use crate::world::{CardWorld, FaultReport};
}

pub use config::{CardConfig, SelectionMethod};
pub use contact::{Contact, ContactStore, ContactTable};
pub use events::{Arrival, ArrivalKind, DriveMode, DriveReport, EventDriver};
pub use query::{QueryOutcome, QueryRetryQueue, QueryScratch, RetryStats};
pub use reachability::ReachabilitySummary;
pub use standing::{StandingQueries, StandingQuery, StandingState, StandingStats};
pub use world::{CardWorld, FaultReport};
