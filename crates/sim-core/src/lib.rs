//! # sim-core — deterministic discrete-event simulation engine
//!
//! This crate is the substrate that replaces NS-2 in the CARD reproduction
//! (see `ARCHITECTURE.md` at the repo root for where it sits in the
//! 4-layer stack). It provides:
//!
//! * [`time::SimTime`] / [`time::SimDuration`] — an integer virtual clock
//!   (microsecond ticks) so event ordering is exact and platform-independent;
//! * [`event::EventQueue`] — a stable priority queue: events pop in time
//!   order, FIFO among equal timestamps;
//! * [`engine::Engine`] — the simulation driver. The engine is *pull-based*:
//!   the caller pops `(time, event)` pairs and handles them, scheduling new
//!   events back onto the engine. This avoids callback-borrow gymnastics and
//!   keeps protocol state fully owned by the caller;
//! * [`rng`] — deterministic, splittable random-number streams
//!   (xoshiro256++, seeded via SplitMix64) so every node/purpose pair gets an
//!   independent reproducible stream;
//! * [`stats`] — per-kind message accounting and time-bucketed series
//!   used for every overhead figure in the paper;
//! * [`util`] — a compact fixed-capacity bitset (per-query reachability
//!   sets);
//! * [`par`] — order-preserving fork/join parallelism: owned-item maps
//!   with per-worker scratch buffers (the topology refresh idiom) and
//!   mutable-shard fan-outs ([`par::parallel_shard_map`], the sharded
//!   CARD protocol-state idiom), used by the experiment sweeps *and* by
//!   the layers below. Fan-outs execute on a process-wide persistent
//!   worker pool: `available_parallelism − 1` threads spawned lazily on
//!   first use, parked on a condvar between fan-outs (publish/retire
//!   costs ~1 µs instead of ~100 µs of scoped thread spawn), with the
//!   calling thread participating in every fan-out and nested fan-outs
//!   automatically inlined. The pool is never torn down; its parked
//!   threads die with the process.
//! * [`faults`] — deterministic fault injection: seeded [`faults::FaultPlan`]s
//!   scheduling node crash/rejoin events, a frozen partition window, and
//!   content-keyed per-message drop/delay verdicts that the protocol layer
//!   applies where it exchanges messages, all replayable from `(seed, plan)` at any shard or
//!   worker count.
//!
//! The engine knows nothing about networks; `net-topology`, `manet-routing`
//! and `card-core` build the MANET world on top of it.
//!
//! ## Example
//!
//! ```
//! use sim_core::prelude::*;
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32), Stop }
//!
//! let mut engine = Engine::new();
//! engine.schedule_at(SimTime::from_secs(1), Ev::Ping(1));
//! engine.schedule_at(SimTime::from_secs(2), Ev::Stop);
//!
//! let mut pings = 0;
//! while let Some((t, ev)) = engine.next_event() {
//!     match ev {
//!         Ev::Ping(n) => {
//!             pings += n;
//!             // reschedule relative to the current virtual time
//!             if t < SimTime::from_secs(2) {
//!                 engine.schedule_in(SimDuration::from_millis(500), Ev::Ping(1));
//!             }
//!         }
//!         Ev::Stop => break,
//!     }
//! }
//! assert!(pings >= 2);
//! ```

#![deny(missing_docs)]
pub mod engine;
pub mod event;
pub mod faults;
pub mod par;
pub mod rng;
pub mod stats;
pub mod time;
pub mod util;

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::engine::Engine;
    pub use crate::event::EventQueue;
    pub use crate::faults::{FaultConfig, FaultPlan, FaultState, FaultVerdict};
    pub use crate::par::{parallel_map, parallel_map_with, parallel_shard_map};
    pub use crate::rng::{RngStream, SeedSplitter};
    pub use crate::stats::{MsgStats, TimeSeries};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::util::BitSet;
}

pub use engine::Engine;
pub use par::{parallel_map, parallel_map_with};
pub use rng::{RngStream, SeedSplitter};
pub use time::{SimDuration, SimTime};
