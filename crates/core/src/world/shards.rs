//! Shard ownership of the world's per-node protocol state, and the read
//! views across it.
//!
//! Per-node protocol state — contact tables, per-node RNG streams, backoff
//! counters, the §V hint-store span, and the CSQ walk workspace — is *owned*
//! by its shard: shard `k` holds the state of the contiguous node span
//! `[k·per, (k+1)·per)` (the canonical [`sim_core::par::shard_spans`]
//! partition; `per = ceil(N / shards)`) in `ProtocolShard` `k` and
//! [`ContactStore`] `k`, whose rows are the span's contact tables. The
//! stores sit in a slice of their own, so [`TablesView`] over them is the
//! same type as a hand-built store's view. Cross-shard reads go through
//! read-only views ([`TablesView`], [`HintsView`]) and cross-shard *writes*
//! — hint deposits — become [`HintDeposit`](crate::hints::HintDeposit) runs
//! routed through a [`MessagePlane`] and applied by the owning shard in a
//! deterministic drain phase (`queries.rs`).
//!
//! The whole-network protocol sweeps ([`CardWorld::select_all_contacts`]
//! and [`CardWorld::validation_round`]) fan each shard out to exactly one
//! worker via [`sim_core::par::parallel_shard_map`]; a shard's sweep
//! touches only its own state and store plus the immutable network.

use net_topology::node::NodeId;
use sim_core::par::{max_workers, shard_spans};
use sim_core::plane::MessagePlane;
use sim_core::rng::RngStream;

use crate::contact::{Backoff, ContactStore, TablesView};
use crate::csq::CsqScratch;
use crate::hints::{HintKey, HintLookup, HintStore, Lookup};

use super::queries::QueryLane;
use super::CardWorld;

/// One shard of the world's protocol state: the *owner* of a contiguous
/// node span's RNG streams, backoff counters, hint-store span, and walk
/// workspace (its contact tables are the world's store of the same
/// index). Sweeps hand each shard, with its store, to exactly one worker;
/// nothing outside the shard writes this state except through the message
/// plane's drain phase.
#[derive(Clone)]
pub(super) struct ProtocolShard {
    /// First node index of the owned span (`rngs[k]` is node `start + k`).
    pub(super) start: usize,
    pub(super) rngs: Vec<RngStream>,
    /// Selection backoff (`world/round.rs`), one per owned node.
    pub(super) backoff: Vec<Backoff>,
    /// Persistent CSQ walk workspace (grows to O(N) once, then reused
    /// allocation-free across every sweep).
    pub(super) scratch: CsqScratch,
    /// This span's slice of the §V route-hint cache (`Some` iff hints are
    /// enabled on the world).
    pub(super) hints: Option<HintStore>,
}

impl ProtocolShard {
    pub(super) fn len(&self) -> usize {
        self.rngs.len()
    }
}

/// Read-only view over the shard-owned hint-store spans — the
/// [`HintLookup`] consulted by queries (lookups never mutate a store, so
/// the view is safe to share across a frozen parallel phase).
#[derive(Clone, Copy)]
pub struct HintsView<'a> {
    pub(super) shards: &'a [ProtocolShard],
    pub(super) per: usize,
}

impl HintsView<'_> {
    fn store_of(&self, holder: NodeId) -> &HintStore {
        self.shards[holder.index() / self.per]
            .hints
            .as_ref()
            .expect("hint view over a world without stores")
    }

    /// Total nodes covered by the spans.
    pub fn node_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.hints.as_ref().map_or(0, HintStore::node_count))
            .sum()
    }

    /// Live (non-empty) hint slots across all spans.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.hints.as_ref().map_or(0, HintStore::len))
            .sum()
    }

    /// True when no span holds any hint.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The freshness epoch (all spans advance together each validation
    /// round, so any span's epoch is *the* epoch).
    pub fn epoch(&self) -> u32 {
        self.shards
            .first()
            .and_then(|s| s.hints.as_ref())
            .map_or(0, HintStore::epoch)
    }

    /// Estimated heap bytes across all spans.
    pub fn memory_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.hints.as_ref().map_or(0, HintStore::memory_bytes))
            .sum()
    }
}

impl HintLookup for HintsView<'_> {
    #[inline]
    fn lookup(&self, holder: NodeId, key: HintKey) -> Lookup {
        self.store_of(holder).lookup(holder, key)
    }

    #[inline]
    fn holds_hints(&self, holder: NodeId) -> bool {
        self.store_of(holder).holds_hints(holder)
    }
}

/// Default protocol shard count: twice the fan-out width, so the pull-queue
/// scheduling in `sim_core::par` can rebalance when CSQ walk costs differ
/// across spans, without multiplying the O(N) per-shard scratch memory
/// further than needed.
pub(super) fn default_shard_count() -> usize {
    (2 * max_workers()).max(1)
}

/// Partition flat per-node state into owned shards along the canonical
/// [`shard_spans`] partition. `hints` carries `(slots_per_bucket, ttl,
/// epoch)` when the route-hint cache is enabled; the created span stores
/// are empty (callers migrating an existing cache copy slots afterwards).
pub(super) fn partition_state(
    spans: &[std::ops::Range<usize>],
    mut rngs: Vec<RngStream>,
    mut backoff: Vec<Backoff>,
    hints: Option<(usize, u32, u32)>,
) -> Vec<ProtocolShard> {
    let mut out = Vec::with_capacity(spans.len());
    for span in spans {
        let len = span.end - span.start;
        let rest = rngs.split_off(len);
        let my_rngs = std::mem::replace(&mut rngs, rest);
        let rest = backoff.split_off(len);
        let my_backoff = std::mem::replace(&mut backoff, rest);
        let store = hints.map(|(spb, ttl, epoch)| {
            let mut s = HintStore::new_span(span.start, len, spb, ttl);
            s.set_epoch(epoch);
            s
        });
        out.push(ProtocolShard {
            start: span.start,
            rngs: my_rngs,
            backoff: my_backoff,
            scratch: CsqScratch::new(),
            hints: store,
        });
    }
    out
}

impl CardWorld {
    /// Read view over all contact tables, indexed by node id.
    pub fn contact_tables(&self) -> TablesView<'_> {
        TablesView::new(&self.contacts, self.per)
    }

    /// Number of protocol shards the whole-network sweeps fan out over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Re-partition the shard-owned protocol state over `shards` shards,
    /// migrating contact stores, RNG streams, backoff counters, and hint
    /// spans (slot contents and freshness epoch survive the move). Results
    /// are shard-count-independent — per-node RNG streams make each node's
    /// decisions a function of its own state, and plane delivery order is
    /// pinned to the protocol's send order — so this only moves the
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
        if shards == self.shards.len() {
            return;
        }
        let n = self.net.node_count();
        let old_per = self.per;
        let mut old = std::mem::take(&mut self.shards);
        let epoch = old
            .iter()
            .find_map(|s| s.hints.as_ref().map(HintStore::epoch))
            .unwrap_or(0);
        let mut rngs = Vec::with_capacity(n);
        let mut backoff = Vec::with_capacity(n);
        for s in &mut old {
            rngs.append(&mut s.rngs);
            backoff.append(&mut s.backoff);
        }
        let hcfg =
            self.hints_on
                .then_some((self.cfg.hint_slots_per_bucket, self.cfg.hint_ttl, epoch));
        let spans = shard_spans(n, shards);
        let mut new_shards = partition_state(&spans, rngs, backoff, hcfg);
        let stores = std::mem::take(&mut self.contacts);
        self.contacts = ContactStore::repartition(stores, old_per, &spans);
        if self.hints_on {
            // Migrate the cached hints: each node's slot region and LRU
            // clock move verbatim from its old span store to its new one.
            for s in &mut new_shards {
                let span = s.start..s.start + s.len();
                let store = s.hints.as_mut().expect("hinted world rebuilt hintless");
                for i in span {
                    let old_store = old[i / old_per]
                        .hints
                        .as_ref()
                        .expect("hinted world missing an old span store");
                    store.copy_node_from(old_store, NodeId::from(i));
                }
            }
        }
        self.shards = new_shards;
        self.per = n.div_ceil(shards).max(1);
        self.lanes.resize_with(shards, || QueryLane::new(n));
        self.lanes.shrink_to_fit();
        // Rebuild the plane at the new width, migrating the deposits a
        // lossy fault plane deferred from its last exchange (every send is
        // exchanged within the call that made it, so nothing else is in
        // flight). They re-enter the deferred lane of the holder's new
        // owner — their delivery verdict is already spent, so re-sending
        // them through an outbox would draw a second verdict and diverge
        // from a run that never resharded. The walk keeps delivery order,
        // so the per-holder delivery sequence is unchanged.
        let deferred = self.plane.take_deferred();
        let plane_stats = self.plane.stats().clone();
        self.plane = MessagePlane::new(shards);
        *self.plane.stats_mut() = plane_stats;
        for msg in deferred {
            self.plane.defer(msg.holder.index() / self.per, msg);
        }
    }

    /// Estimated live heap bytes of each shard's owned protocol state —
    /// the capacities of its contact store's buffers (both column sets,
    /// the path arenas, every node's tombstones and retry timers), its RNG
    /// streams, backoff counters and hint span: the per-shard memory
    /// columns of the full-protocol scale tier.
    pub fn shard_memory_bytes(&self) -> Vec<usize> {
        self.shards
            .iter()
            .zip(&self.contacts)
            .map(|(s, store)| {
                store.memory_bytes()
                    + s.rngs.len() * std::mem::size_of::<RngStream>()
                    + s.backoff.len() * std::mem::size_of::<Backoff>()
                    + s.hints.as_ref().map_or(0, HintStore::memory_bytes)
            })
            .collect()
    }
}
