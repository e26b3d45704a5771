//! How the world is cut into shards, and the read view across the cut.
//!
//! Only state whose rows vary in length is stored per shard: shard `k`'s
//! [`ContactStore`] holds the contact rows of the contiguous node span
//! `[k·per, (k+1)·per)` (the canonical [`sim_core::par::shard_spans`]
//! partition; `per = ceil(N / shards)`), because each rewrite streams its
//! own arena. Fixed-size per-node state — RNG streams, selection
//! backoffs, the §V hint store — is node-indexed world-wide, and each
//! fan-out cuts it into the same spans (`chunks_mut(per)`), so the borrow
//! checker still hands every span `&mut` to its own nodes only. Scratch
//! lives in the query lanes, one per shard. The stores sit in a slice of
//! their own, so [`TablesView`] over them is the same type as a
//! hand-built store's view. Hint deposits, whose holders may lie in any
//! span, are logged per lane as [`HintDeposit`](crate::hints::HintDeposit)
//! runs and applied to the one store after the parallel phase
//! (`queries.rs`).
//!
//! The whole-network protocol sweeps ([`CardWorld::select_all_contacts`]
//! and [`CardWorld::validation_round`]) fan each span out to exactly one
//! worker via [`sim_core::par::parallel_shard_map`]; a span's sweep
//! touches only its own store, its slices of the node arrays and its
//! lane, plus the immutable network. A reshard therefore re-cuts the
//! stores and the lanes, and nothing else.

use sim_core::par::{max_workers, shard_spans};
use sim_core::rng::RngStream;

use crate::contact::{Backoff, ContactStore, TablesView};
use crate::hints::HintStore;

use super::queries::QueryLane;
use super::CardWorld;

/// Default protocol shard count: twice the fan-out width, so the pull-queue
/// scheduling in `sim_core::par` can rebalance when CSQ walk costs differ
/// across spans, without multiplying the O(N) per-shard scratch memory
/// further than needed.
pub(super) fn default_shard_count() -> usize {
    (2 * max_workers()).max(1)
}

impl CardWorld {
    /// Read view over all contact tables, indexed by node id.
    pub fn contact_tables(&self) -> TablesView<'_> {
        TablesView::new(&self.contacts, self.per)
    }

    /// Number of protocol shards the whole-network sweeps fan out over.
    pub fn shard_count(&self) -> usize {
        self.contacts.len()
    }

    /// Re-cut the world over `shards` shards: the contact stores move
    /// their rows to the new spans and the query lanes are resized. RNG
    /// streams, backoffs, the hint store and the deferred deposits are
    /// node-indexed or node-keyed, so they do not move. Results are
    /// shard-count-independent — per-node RNG streams make each node's
    /// decisions a function of its own state, and deposits are applied in
    /// the protocol's own query order — so this only moves the
    /// parallelism/memory trade-off. Only non-empty spans of the canonical
    /// partition (`ceil(N / shards)` nodes each) become shards, and
    /// [`shard_count`](Self::shard_count) reports those: 5 nodes over 4
    /// requested shards are 3 spans of 2, 2 and 1. Worlds smaller than
    /// their shard count are therefore valid, down to N = 1.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn set_shard_count(&mut self, shards: usize) {
        assert!(shards > 0, "need at least one protocol shard");
        if shards == self.contacts.len() {
            return;
        }
        let n = self.net.node_count();
        let stores = std::mem::take(&mut self.contacts);
        self.contacts = ContactStore::repartition(stores, self.per, &shard_spans(n, shards));
        self.per = n.div_ceil(shards).max(1);
        self.lanes.resize_with(shards, || QueryLane::new(n));
        self.lanes.shrink_to_fit();
    }

    /// Estimated live heap bytes of each shard's protocol state — the
    /// capacities of its contact store's buffers (both column sets, the
    /// path arenas, every node's tombstones and retry timers) plus its
    /// span's share of the node-indexed RNG streams, backoff counters and
    /// hint tables: the per-shard memory columns of the full-protocol
    /// scale tier.
    pub fn shard_memory_bytes(&self) -> Vec<usize> {
        let node_bytes = std::mem::size_of::<RngStream>()
            + std::mem::size_of::<Backoff>()
            + self.hints.as_ref().map_or(0, HintStore::node_bytes);
        self.contacts
            .iter()
            .map(|store| store.memory_bytes() + store.len() * node_bytes)
            .collect()
    }
}
