//! # experiments — the paper's full evaluation, regenerated
//!
//! Table 1, every figure of §IV and the two extensions are entries of one
//! registry, [`figures::FIGURES`] (`docs/REPRO.md` at the repo root
//! catalogues them, with the CLI flags and output conventions). Each entry
//! is a value: its `repro` names and golden stem, a paper-sized and a
//! quick [`figures::Sweep`] (scenario, base `CardConfig`, swept knob and
//! values), and a [`figures::Measure`] that also picks its renderer.
//!
//! The `repro` binary drives everything:
//!
//! ```text
//! repro table1            # Table 1
//! repro fig3 … fig15      # individual figures
//! repro smallworld        # extension: contacts as small-world shortcuts
//! repro resources         # extension: §V resource-distribution study
//! repro scale             # extension: N = 10⁴–10⁵ substrate + protocol runs
//! repro scale --nodes N   # scale runs at a chosen N (no recompile)
//! repro scale-raw         # extension: substrate + full protocol at N = 10⁶
//! repro scale-events      # extension: event-driven vs tick-driven drive at N = 10⁵
//! repro scale-hostile     # extension: degradation under churn/partition/loss at N = 10⁵
//! repro all               # every registry entry, paper-sized
//! repro all --quick       # every registry entry, small sizes
//! ```
//!
//! The four scale tiers are the entries of [`scale::TIERS`], on one
//! harness (config, substrate run, column specs; see [`scale`]). They
//! assert their fidelity/parity contracts *in-run* (equal world
//! fingerprints between drive modes, the hint cost-only contract, the
//! hostile tier's liveness invariants): a failure panics, so `repro`
//! exits non-zero and CI can gate on the run itself.

#![warn(missing_docs)]
pub mod figures;
pub mod output;
pub mod scale;
pub mod scale_events;
pub mod scale_hostile;

/// Default root seed for all experiments (every run is deterministic).
pub const DEFAULT_SEED: u64 = 2003;

// The paper-claim tests, grouped by figure in crate-root modules
// (`fig05::tests::…`, the names the test suite reports).
#[cfg(test)]
include!("claims.rs");
