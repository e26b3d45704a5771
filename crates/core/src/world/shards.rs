//! Shard ownership of the world's per-node protocol state, and the read
//! views across it.
//!
//! Per-node protocol state — contact tables, per-node RNG streams, backoff
//! counters, the §V hint-store span, and the CSQ walk workspace — is *owned*
//! by its `ProtocolShard`: shard `k` holds the state of the contiguous
//! node span `[k·per, (k+1)·per)` (the canonical
//! [`sim_core::par::shard_spans`] partition; `per = ceil(N / shards)`).
//! There is no flat whole-network table array behind the shards (the
//! world's contact graph is a read mirror of their links, rebuilt here by
//! `rebuild_contact_graph`); cross-shard reads go through read-only views
//! ([`TablesView`], [`HintsView`]) and cross-shard *writes* — hint
//! deposits — become [`HintDeposit`](crate::hints::HintDeposit) runs
//! routed through a [`MessagePlane`] and applied by the owning shard in a
//! deterministic drain phase (`queries.rs`).
//!
//! The whole-network protocol sweeps ([`CardWorld::select_all_contacts`]
//! and [`CardWorld::validation_round`]) fan each shard out to exactly one
//! worker via [`sim_core::par::parallel_shard_map`]; a shard's sweep
//! touches only its own state plus the immutable network.

use net_topology::node::NodeId;
use sim_core::par::{max_workers, shard_spans};
use sim_core::plane::MessagePlane;
use sim_core::rng::RngStream;

use crate::contact::{Backoff, ContactGraph, ContactTable, TableSource};
use crate::csq::CsqScratch;
use crate::hints::{HintKey, HintLookup, HintStore, Lookup};

use super::queries::QueryLane;
use super::CardWorld;

/// One shard of the world's protocol state: the *owner* of a contiguous
/// node span's contact tables, RNG streams, backoff counters, hint-store
/// span, and walk workspace. Sweeps hand each shard to exactly one worker;
/// nothing outside the shard writes this state except through the message
/// plane's drain phase.
#[derive(Clone)]
pub(super) struct ProtocolShard {
    /// First node index of the owned span (`contacts[k]` is node
    /// `start + k`).
    pub(super) start: usize,
    pub(super) contacts: Vec<ContactTable>,
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
        self.contacts.len()
    }
}

/// Read-only view over every node's contact table across the shard-owned
/// spans, plus the world's flat contact graph — the [`TableSource`] the
/// query/reachability/resource layers use. Walks read their links from the
/// graph; [`table`](TableSource::table) reaches the owning shard's table.
#[derive(Clone, Copy)]
pub struct TablesView<'a> {
    pub(super) shards: &'a [ProtocolShard],
    pub(super) per: usize,
    pub(super) graph: &'a ContactGraph,
    pub(super) n: usize,
}

impl<'a> TablesView<'a> {
    /// Number of nodes covered (= network size).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for an empty network.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Iterate every node's table in node-id order.
    pub fn iter(&self) -> impl Iterator<Item = &'a ContactTable> + Clone + 'a {
        self.shards.iter().flat_map(|s| s.contacts.iter())
    }
}

impl TableSource for TablesView<'_> {
    #[inline]
    fn table(&self, i: usize) -> &ContactTable {
        let s = &self.shards[i / self.per];
        &s.contacts[i - s.start]
    }

    #[inline]
    fn links(&self, i: usize) -> impl Iterator<Item = (NodeId, u16)> + '_ {
        self.graph.links(i).iter().copied()
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
    n: usize,
    shards: usize,
    mut contacts: Vec<ContactTable>,
    mut rngs: Vec<RngStream>,
    mut backoff: Vec<Backoff>,
    hints: Option<(usize, u32, u32)>,
) -> Vec<ProtocolShard> {
    let spans = shard_spans(n, shards);
    let mut out = Vec::with_capacity(spans.len());
    for span in spans {
        let len = span.end - span.start;
        let rest = contacts.split_off(len);
        let my_contacts = std::mem::replace(&mut contacts, rest);
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
            contacts: my_contacts,
            rngs: my_rngs,
            backoff: my_backoff,
            scratch: CsqScratch::new(),
            hints: store,
        });
    }
    out
}

impl CardWorld {
    /// Refill the flat contact graph from the shard tables, in node order.
    pub(super) fn rebuild_contact_graph(&mut self) {
        self.graph
            .rebuild(self.shards.iter().flat_map(|s| s.contacts.iter()));
    }

    /// Number of protocol shards the whole-network sweeps fan out over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Re-partition the shard-owned protocol state over `shards` shards,
    /// migrating contact tables, RNG streams, backoff counters, and hint
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
        let mut contacts = Vec::with_capacity(n);
        let mut rngs = Vec::with_capacity(n);
        let mut backoff = Vec::with_capacity(n);
        for s in &mut old {
            contacts.append(&mut s.contacts);
            rngs.append(&mut s.rngs);
            backoff.append(&mut s.backoff);
        }
        let hcfg =
            self.hints_on
                .then_some((self.cfg.hint_slots_per_bucket, self.cfg.hint_ttl, epoch));
        let mut new_shards = partition_state(n, shards, contacts, rngs, backoff, hcfg);
        if self.hints_on {
            // Migrate the cached hints: each node's slot region and LRU
            // clock move verbatim from its old span store to its new one.
            for s in &mut new_shards {
                let store = s.hints.as_mut().expect("hinted world rebuilt hintless");
                for i in s.start..s.start + s.contacts.len() {
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

    /// Estimated live heap bytes of each shard's owned protocol state
    /// (contact tables with their stored paths, RNG streams, backoff
    /// counters, hint span) — the per-shard memory columns of the
    /// full-protocol scale tier.
    pub fn shard_memory_bytes(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| {
                let mut b = s.contacts.len() * std::mem::size_of::<ContactTable>()
                    + s.rngs.len() * std::mem::size_of::<RngStream>()
                    + s.backoff.len() * std::mem::size_of::<Backoff>();
                for t in &s.contacts {
                    b += std::mem::size_of_val(t.contacts());
                    for c in t.contacts() {
                        b += c.path.len() * std::mem::size_of::<NodeId>();
                    }
                }
                if let Some(h) = &s.hints {
                    b += h.memory_bytes();
                }
                b
            })
            .collect()
    }
}
