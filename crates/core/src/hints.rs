//! Route-hint cache — the §V optimization the query engine plugs into.
//!
//! §V: "the contacts keep *route hints* for recently answered queries …
//! a later query for the same destination is forwarded directly instead
//! of searching level by level." When a DSQ or resource query resolves,
//! every node on the answer chain (the source and the relay contacts the
//! reply traversed) deposits a hint `(key → next-hop contact, remaining
//! depth)`. A later query consults the cache first: a fresh hint turns
//! the level-synchronous escalation into a *directed probe* down the hint
//! chain, charging only the probe's contact-path hops.
//!
//! ## Storage layout
//!
//! One [`HintStore`] holds every node's hint table in a single flat slot
//! array (no per-node boxes: node `i`'s slots at
//! `i·per_node‥(i+1)·per_node`). A `CardWorld` keeps one whole-network
//! store, like its RNG streams and backoffs: fixed-size per-node state is
//! node-indexed, never cut by shard. Each node's table is split into
//! [`HINT_BUCKETS`] *distance buckets* keyed by the hint's remaining
//! depth — the Kademlia idiom: near answers (depth 1) never fight far
//! answers (depth ≥ 4) for slots — with LRU replacement inside a bucket.
//! The LRU clock is **per node** (each node counts its own deposits), so
//! slot stamps are a pure function of that node's deposit history —
//! independent of the order in which different holders' deposits
//! interleave, which is what keeps hint state bit-identical across shard
//! counts. Beside the slots each node keeps a `u16` *occupancy count*
//! (2 B a node), updated by every slot write — deposit fill, bucket
//! migration, eviction, invalidation and clear — and checked against a
//! recount in debug builds. [`HintLookup::holds_hints`] reads it, so a query that
//! peeks at an empty table (every holder of a cold sweep) pays one load,
//! not a probe call and a 16-slot scan, and is charged the same `Absent`
//! lookup the scan would have reported. The count caches the slots; it is
//! no second source of truth, so every outcome and counter is unchanged.
//!
//! ## Staleness
//!
//! Hints go stale two ways, and the cache is *never* trusted for
//! correctness — a probe still verifies the answer against live
//! neighborhood tables, and a dead hint only costs its probe messages:
//!
//! * **TTL** — slots are stamped with the store epoch (advanced once per
//!   validation round); a slot older than the configured TTL is reported
//!   [`Lookup::Expired`] and recycled by later deposits.
//! * **Mobility invalidation** — `Network::refresh_movers` reports the
//!   dirty ball of every topology change; `CardWorld` evicts all hints
//!   *held at* dirty nodes (their neighborhood view changed, so their
//!   hints are the ones mobility may have broken). Hints *through* a
//!   departed contact are caught at use: the probe resolves its next hop
//!   against the holder's live [`ContactTable`](crate::contact::ContactTable)
//!   and a missing contact — or, under an armed fault plan, one the
//!   walk's edge veto rejects (crashed, or across an open partition) —
//!   is a `stale_contact` miss, not a forward.
//!
//! ## Determinism
//!
//! The store is plain state — lookups and deposits draw no randomness —
//! and it is written only in a sweep's drain: every deposit comes from a
//! sweep (`CardWorld::query_all`, whose parallel phase reads the *frozen*
//! store; a live `CardWorld::query` is a sweep of one) and waits in its
//! lane's log, and the drain applies the runs a lossy plan deferred from
//! the previous sweep, then the lanes' logs in lane order, each in log
//! order. The lanes hold contiguous spans of the sweep's slots, so
//! restricted to any one holder that order equals global query order,
//! deferred runs one sweep late — and with the per-node LRU clocks,
//! outcomes, hint statistics *and the store itself* are a pure function
//! of `(network, tables, store, pairs)` at any worker or shard count,
//! calm or lossy. With the cache disabled the same sweep runs without a
//! hint view — no lookup, no deposit stage — and is bit-identical to one
//! `CardWorld::query` per pair on a one-shard world (pinned by
//! `tests/hint_cache.rs`).
//!
//! ## Runs: deposits combine at the sender
//!
//! Under a skewed query mix a sweep deposits the same hint at the same
//! holder over and over. A [`DepositLog`] therefore merges a push into
//! that holder's *latest* entry when key, next hop and depth match, and
//! the entry becomes a counted run ([`HintDeposit::count`]) that the drain
//! judges and applies as one. [`HintStore::deposit`] applies a run
//! exactly: the first copy places the hint (and may evict), the other
//! copies would find it in place and only re-stamp it, so the run costs
//! one write at the holder's clock advanced by `count`. This equals
//! applying the copies one at a time because
//!
//! * a holder's state depends only on its own deposit order, and merging
//!   into the holder's latest entry — never an earlier one — leaves that
//!   order unchanged;
//! * the drain applies one lane's log in log order, and a log is one lane
//!   of one exchange: runs never span logs, exchanges or deferred runs;
//! * fault verdicts are keyed on a deposit's content, which excludes
//!   `count`, so every copy of a run would draw the run's one verdict —
//!   dropped, delayed or delivered together.
//!
//! A single query is a sweep of one and logs into lane 0's log; its
//! chains rarely repeat, so its runs are all of 1.

use std::hash::{Hash, Hasher};

use net_topology::node::NodeId;

use crate::resources::ResourceId;

/// Distance buckets per node: hints with remaining depth `d` land in
/// bucket `min(d − 1, HINT_BUCKETS − 1)`.
pub const HINT_BUCKETS: usize = 4;

/// What a hint points at: a node lookup target or an anycast resource.
/// Packed into one word so slot matching is a single compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HintKey(u64);

const RESOURCE_BIT: u64 = 1 << 32;

impl HintKey {
    /// Key for a node-lookup (DSQ) target.
    #[inline]
    pub fn node(target: NodeId) -> Self {
        HintKey(target.index() as u64)
    }

    /// Key for an anycast resource.
    #[inline]
    pub fn resource(resource: ResourceId) -> Self {
        HintKey(RESOURCE_BIT | resource.0 as u64)
    }

    /// The packed word, for content-keyed hashing (fault verdicts must be
    /// a pure function of the message payload, never of transport
    /// coordinates).
    #[inline]
    pub fn bits(self) -> u64 {
        self.0
    }
}

/// Slot sentinel: no hint stored.
const EMPTY: u64 = u64::MAX;

/// One stored hint (flat-array slot).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct HintSlot {
    /// Packed [`HintKey`], or [`EMPTY`].
    key: u64,
    /// The contact to forward to (must be resolved against the holder's
    /// live contact table at use).
    next_hop: NodeId,
    /// Remaining contact-graph steps to the answer when deposited.
    depth: u16,
    /// Store epoch at deposit (TTL stamp).
    stamp: u32,
    /// Deposit-clock value of the last touch (LRU ordering).
    used: u32,
}

const VACANT: HintSlot = HintSlot {
    key: EMPTY,
    next_hop: NodeId::new(u32::MAX),
    depth: 0,
    stamp: 0,
    used: 0,
};

/// A fresh hint returned by [`HintStore::lookup`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hint {
    /// The contact to probe next.
    pub next_hop: NodeId,
    /// Remaining steps the depositor took from here to the answer.
    pub depth: u16,
}

/// Outcome of a cache lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// A fresh hint (the best one: minimal remaining depth).
    Hit(Hint),
    /// Only TTL-expired hints matched.
    Expired,
    /// No slot matches the key.
    Absent,
}

/// A run of identical hints queued for deposit — the unit a query logs
/// and the drain applies, weighing `count` deposits (see "Runs" in the
/// module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HintDeposit {
    /// Node the hint is stored at.
    pub holder: NodeId,
    /// What the hint resolves.
    pub key: HintKey,
    /// Contact of `holder` to forward to.
    pub next_hop: NodeId,
    /// Contact-graph steps from `holder` to the answer.
    pub depth: u16,
    /// Consecutive identical deposits this entry stands for (≥ 1).
    pub count: u32,
}

impl HintDeposit {
    /// One deposit (a run of 1).
    pub fn new(holder: NodeId, key: HintKey, next_hop: NodeId, depth: u16) -> Self {
        HintDeposit {
            holder,
            key,
            next_hop,
            depth,
            count: 1,
        }
    }
}

/// Index slot of a vacant [`DepositLog`] holder entry.
const NO_RUN: u32 = u32::MAX;

/// A deposit log that combines at the sender: a push merges into its
/// holder's *latest* entry when the hint is the same, so repeated
/// deposits become counted runs (see "Runs" in the module docs).
#[derive(Clone, Debug, Default)]
pub struct DepositLog {
    runs: Vec<HintDeposit>,
    /// Open-addressing index `(holder, position of its latest run)`,
    /// vacant slots `(_, NO_RUN)`: a power of two at most half full,
    /// sized to the holders logged and allocated on the first push, so a
    /// log that never sees a deposit costs nothing.
    latest: Vec<(u32, u32)>,
    /// Occupied index slots, one per distinct holder logged: a clear costs
    /// these, not the index an earlier, larger sweep grew.
    occupied: Vec<u32>,
}

impl DepositLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The logged runs, in push order of their first copy.
    pub fn runs(&self) -> &[HintDeposit] {
        &self.runs
    }

    /// Log `d`: merged into its holder's latest run when that run holds
    /// the same hint, appended as a new run otherwise.
    pub fn push(&mut self, d: HintDeposit) {
        if 2 * (self.occupied.len() + 1) > self.latest.len() {
            self.grow();
        }
        let holder = d.holder.raw();
        let mask = self.latest.len() - 1;
        let mut i = Self::home(holder, mask);
        loop {
            let (h, pos) = self.latest[i];
            if pos == NO_RUN {
                self.latest[i] = (holder, self.runs.len() as u32);
                self.occupied.push(i as u32);
                break;
            }
            if h == holder {
                let run = &mut self.runs[pos as usize];
                if (run.key, run.next_hop, run.depth) == (d.key, d.next_hop, d.depth) {
                    run.count += d.count;
                    return;
                }
                self.latest[i].1 = self.runs.len() as u32;
                break;
            }
            i = (i + 1) & mask;
        }
        self.runs.push(d);
    }

    /// Empty the log, keeping its buffers.
    pub fn clear(&mut self) {
        self.runs.clear();
        for &i in &self.occupied {
            self.latest[i as usize] = (0, NO_RUN);
        }
        self.occupied.clear();
    }

    /// Heap bytes reserved by the runs and the holder index.
    pub fn memory_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<HintDeposit>()
            + self.latest.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.occupied.capacity() * std::mem::size_of::<u32>()
    }

    /// Fibonacci hash of a holder into a power-of-two index.
    #[inline]
    fn home(holder: u32, mask: usize) -> usize {
        (u64::from(holder).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
    }

    /// Double the index (16 slots at first) and re-seat its holders.
    fn grow(&mut self) {
        let len = (2 * self.latest.len()).max(16);
        let old = std::mem::replace(&mut self.latest, vec![(0, NO_RUN); len]);
        let mask = len - 1;
        for slot in &mut self.occupied {
            let (holder, pos) = old[*slot as usize];
            let mut i = Self::home(holder, mask);
            while self.latest[i].1 != NO_RUN {
                i = (i + 1) & mask;
            }
            self.latest[i] = (holder, pos);
            *slot = i as u32;
        }
    }
}

/// Counters of the hint subsystem, merged across shards in shard order
/// (all fields are sums, so the merge is order-insensitive).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct HintStats {
    /// Cache consultations (source + every relay peek + chase steps).
    pub lookups: u64,
    /// Lookups that returned a fresh hint whose contact is still live.
    pub hits: u64,
    /// Lookups with no matching slot.
    pub miss_absent: u64,
    /// Lookups where every matching slot had outlived its TTL.
    pub stale_ttl: u64,
    /// Fresh hints whose next hop is no longer a contact of the holder.
    pub stale_contact: u64,
    /// Queries that launched at least one directed probe.
    pub chases: u64,
    /// Queries answered by a probe (no escalation needed past it).
    pub chase_hits: u64,
    /// Messages spent on directed probes, successful or not.
    pub probe_msgs: u64,
    /// Hints written to the store.
    pub deposits: u64,
    /// Fresh hints displaced by LRU replacement.
    pub evicted_lru: u64,
    /// Hints evicted by mobility invalidation (dirty-ball reports).
    pub evicted_mobility: u64,
}

impl HintStats {
    /// Fold another shard's counters in.
    pub fn merge(&mut self, other: &HintStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.miss_absent += other.miss_absent;
        self.stale_ttl += other.stale_ttl;
        self.stale_contact += other.stale_contact;
        self.chases += other.chases;
        self.chase_hits += other.chase_hits;
        self.probe_msgs += other.probe_msgs;
        self.deposits += other.deposits;
        self.evicted_lru += other.evicted_lru;
        self.evicted_mobility += other.evicted_mobility;
    }

    /// Fraction of lookups that produced a usable hint.
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.lookups.max(1)) as f64
    }

    /// Stale encounters of every kind (TTL, dead contact, mobility).
    pub fn stale_total(&self) -> u64 {
        self.stale_ttl + self.stale_contact + self.evicted_mobility
    }
}

/// Read access to hint tables: a [`HintStore`] (or a reference to one),
/// or `NoHints` on a world without the cache. Implementations must be
/// pure reads (sharded sweeps consult the frozen store concurrently).
pub trait HintLookup {
    /// Whether hint tables stand behind this lookup at all. The walk checks
    /// it before every hint touch (probes, counters, deposits), so over
    /// `NoHints`, which clears it, it compiles to the plain escalation.
    const ENABLED: bool = true;

    /// Consult `holder`'s hint table for `key`.
    fn lookup(&self, holder: NodeId, key: HintKey) -> Lookup;

    /// Whether `holder`'s table holds any hint at all. `false` means every
    /// `lookup` at `holder` is [`Lookup::Absent`], so a caller may skip it
    /// (charging the lookup it would have made).
    fn holds_hints(&self, holder: NodeId) -> bool;
}

impl HintLookup for HintStore {
    #[inline]
    fn lookup(&self, holder: NodeId, key: HintKey) -> Lookup {
        HintStore::lookup(self, holder, key)
    }

    #[inline]
    fn holds_hints(&self, holder: NodeId) -> bool {
        HintStore::holds_hints(self, holder)
    }
}

impl<T: HintLookup + ?Sized> HintLookup for &T {
    const ENABLED: bool = T::ENABLED;

    #[inline]
    fn lookup(&self, holder: NodeId, key: HintKey) -> Lookup {
        (**self).lookup(holder, key)
    }

    #[inline]
    fn holds_hints(&self, holder: NodeId) -> bool {
        (**self).holds_hints(holder)
    }
}

/// The hint side of a walk on a world without the §V cache: a zero-sized
/// lookup with [`HintLookup::ENABLED`] cleared, so the walk touches no
/// table, counter or deposit log.
pub(crate) struct NoHints;

impl HintLookup for NoHints {
    const ENABLED: bool = false;

    fn lookup(&self, _holder: NodeId, _key: HintKey) -> Lookup {
        Lookup::Absent
    }

    fn holds_hints(&self, _holder: NodeId) -> bool {
        false
    }
}

/// Bounded per-node hint tables over one flat slot array, covering nodes
/// `0..n` (see the module docs for layout, staleness, and determinism).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HintStore {
    slots: Vec<HintSlot>,
    /// Slots per node (`HINT_BUCKETS · slots_per_bucket`).
    per_node: usize,
    slots_per_bucket: usize,
    /// TTL in epochs: a slot with `epoch − stamp > ttl` is expired.
    ttl: u32,
    /// Current epoch (advanced once per validation round).
    epoch: u32,
    /// Per-node monotone deposit clocks for LRU ordering (`clocks[i]`
    /// counts node `i`'s deposits). LRU comparisons only ever
    /// rank slots of one node, so per-node clocks order them exactly as
    /// a global clock would — while staying a pure function of the
    /// node's own history, independent of store layout.
    clocks: Vec<u32>,
    /// Per-node occupancy (`occupied[i]` = non-vacant slots of node
    /// `i`): a cache of the slot array, kept by every slot write,
    /// so an empty table answers `Absent` without a scan.
    occupied: Vec<u16>,
}

impl HintStore {
    /// A store for nodes `0..n` with `slots_per_bucket` LRU slots in each
    /// of the [`HINT_BUCKETS`] distance buckets, and the given TTL
    /// (epochs).
    pub fn new(n: usize, slots_per_bucket: usize, ttl: u32) -> Self {
        assert!(slots_per_bucket >= 1, "hint buckets need at least one slot");
        let per_node = HINT_BUCKETS * slots_per_bucket;
        assert!(
            per_node <= u16::MAX as usize,
            "a node's hint slots must fit the u16 occupancy count"
        );
        HintStore {
            slots: vec![VACANT; n * per_node],
            per_node,
            slots_per_bucket,
            ttl,
            epoch: 0,
            clocks: vec![0; n],
            occupied: vec![0; n],
        }
    }

    /// Nodes covered.
    pub fn node_count(&self) -> usize {
        self.slots.len() / self.per_node.max(1)
    }

    /// Current TTL epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Advance the TTL epoch (one validation round elapsed).
    pub fn advance_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Heap bytes held by the slot array, clocks and occupancy counts
    /// (per-shard memory accounting in the scale experiments).
    pub fn memory_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<HintSlot>()
            + self.clocks.capacity() * std::mem::size_of::<u32>()
            + self.occupied.capacity() * std::mem::size_of::<u16>()
    }

    /// Heap bytes a node's table takes (its slots, clock and count): a
    /// store of `n` nodes holds `n` times this, so a span of `k` nodes is
    /// charged `k` times it in per-shard memory accounting.
    pub(crate) fn node_bytes(&self) -> usize {
        self.per_node * std::mem::size_of::<HintSlot>()
            + std::mem::size_of::<u32>()
            + std::mem::size_of::<u16>()
    }

    /// Feed `node`'s slots, LRU clock and occupancy count into `h` (the
    /// world fingerprint's hint layer).
    pub(crate) fn hash_node(&self, node: NodeId, h: &mut impl Hasher) {
        self.slots[self.region(node)].hash(h);
        let i = node.index();
        (self.clocks[i], self.occupied[i]).hash(h);
    }

    /// Live (non-vacant) hints across all nodes — observability only.
    pub fn len(&self) -> usize {
        self.occupied.iter().map(|&c| c as usize).sum()
    }

    /// No hints stored anywhere.
    pub fn is_empty(&self) -> bool {
        self.occupied.iter().all(|&c| c == 0)
    }

    /// Whether `holder`'s table holds any hint (its occupancy count is
    /// non-zero): one read, no scan.
    #[inline]
    pub fn holds_hints(&self, holder: NodeId) -> bool {
        self.occupied[holder.index()] != 0
    }

    /// Debug builds: `node`'s occupancy count equals a recount of its slots.
    #[inline]
    fn debug_check_count(&self, node: NodeId) {
        debug_assert_eq!(
            self.occupied[node.index()] as usize,
            self.slots[self.region(node)]
                .iter()
                .filter(|s| s.key != EMPTY)
                .count(),
            "occupancy count of node {} disagrees with its slots",
            node.index()
        );
    }

    #[inline]
    fn bucket_of(&self, depth: u16) -> usize {
        (depth.saturating_sub(1) as usize).min(HINT_BUCKETS - 1)
    }

    #[inline]
    fn region(&self, node: NodeId) -> std::ops::Range<usize> {
        let start = node.index() * self.per_node;
        start..start + self.per_node
    }

    #[inline]
    fn fresh(&self, slot: &HintSlot) -> bool {
        self.epoch.wrapping_sub(slot.stamp) <= self.ttl
    }

    /// Consult `holder`'s table for `key`: the best (minimal remaining
    /// depth) fresh hint, or whether only expired ones / none matched.
    ///
    /// The scan does not re-check the occupancy count: the walk asks
    /// [`holds_hints`](Self::holds_hints) before it probes a holder, and a
    /// second check on every chain step made warm probes slower.
    pub fn lookup(&self, holder: NodeId, key: HintKey) -> Lookup {
        let mut best: Option<Hint> = None;
        let mut expired = false;
        for slot in &self.slots[self.region(holder)] {
            if slot.key != key.0 {
                continue;
            }
            if !self.fresh(slot) {
                expired = true;
                continue;
            }
            if best.is_none_or(|b| slot.depth < b.depth) {
                best = Some(Hint {
                    next_hop: slot.next_hop,
                    depth: slot.depth,
                });
            }
        }
        match best {
            Some(h) => Lookup::Hit(h),
            None if expired => Lookup::Expired,
            None => Lookup::Absent,
        }
    }

    /// Store (or refresh) the run `d` at its holder, counting it into
    /// `stats`. An existing slot for the same key is updated in place
    /// (migrating buckets when the depth moved); otherwise the bucket's
    /// first vacant slot is used, then the coldest expired slot, then the
    /// coldest live slot (LRU eviction). A run of `count` copies is
    /// exactly `count` single deposits: the first may evict, the rest
    /// re-stamp its slot, so the holder's clock advances by `count`, the
    /// slot carries the last value, and only the first eviction counts.
    pub fn deposit(&mut self, d: &HintDeposit, stats: &mut HintStats) {
        debug_assert!(d.count >= 1, "a run carries at least one deposit");
        stats.deposits += d.count as u64;
        let HintDeposit {
            holder,
            key,
            next_hop,
            depth,
            count,
        } = *d;
        let k = holder.index();
        let node_clock = &mut self.clocks[k];
        *node_clock = node_clock.wrapping_add(count);
        let clock = *node_clock;
        let epoch = self.epoch;
        let bucket = self.bucket_of(depth);
        let region = self.region(holder);

        // Refresh in place when the key is already hinted somewhere in the
        // holder's table (clearing the old slot on a bucket migration).
        let existing = self.slots[region.clone()]
            .iter()
            .position(|s| s.key == key.0);
        if let Some(off) = existing {
            let old_bucket = off / self.slots_per_bucket;
            if old_bucket == bucket {
                let slot = &mut self.slots[region.start + off];
                *slot = HintSlot {
                    key: key.0,
                    next_hop,
                    depth,
                    stamp: epoch,
                    used: clock,
                };
                return;
            }
            self.slots[region.start + off] = VACANT;
            self.occupied[k] -= 1;
        }

        // Victim selection inside the target bucket.
        let bucket_start = region.start + bucket * self.slots_per_bucket;
        let bucket_slots = &self.slots[bucket_start..bucket_start + self.slots_per_bucket];
        let mut victim = 0usize;
        let mut victim_rank = (u8::MAX, u32::MAX); // (class, used): lower wins
        for (i, slot) in bucket_slots.iter().enumerate() {
            let class = if slot.key == EMPTY {
                0
            } else if !self.fresh(slot) {
                1
            } else {
                2
            };
            let rank = (class, slot.used);
            if rank < victim_rank {
                victim_rank = rank;
                victim = i;
            }
        }
        stats.evicted_lru += u64::from(victim_rank.0 == 2);
        self.occupied[k] += u16::from(victim_rank.0 == 0);
        self.slots[bucket_start + victim] = HintSlot {
            key: key.0,
            next_hop,
            depth,
            stamp: epoch,
            used: clock,
        };
        self.debug_check_count(holder);
    }

    /// Drop every hint held at `node` (mobility invalidation: its
    /// neighborhood view changed). Returns how many hints were evicted.
    pub fn invalidate_node(&mut self, node: NodeId) -> usize {
        let evicted = std::mem::take(&mut self.occupied[node.index()]) as usize;
        if evicted > 0 {
            let region = self.region(node);
            self.slots[region].fill(VACANT);
        }
        evicted
    }

    /// Drop every hint in the store (wholesale topology refresh). Returns
    /// how many hints were evicted.
    pub fn invalidate_all(&mut self) -> usize {
        let evicted = self.len();
        self.clear();
        evicted
    }

    /// Empty the store without counting (cold-start resets in experiments).
    pub fn clear(&mut self) {
        self.slots.fill(VACANT);
        self.occupied.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Deposit one hint; reports whether it evicted a live one.
    fn put(
        store: &mut HintStore,
        holder: NodeId,
        key: HintKey,
        next_hop: NodeId,
        depth: u16,
    ) -> bool {
        let mut stats = HintStats::default();
        store.deposit(&HintDeposit::new(holder, key, next_hop, depth), &mut stats);
        assert_eq!(stats.deposits, 1);
        stats.evicted_lru == 1
    }

    #[test]
    fn keys_never_collide_across_kinds() {
        assert_ne!(HintKey::node(n(7)), HintKey::resource(ResourceId(7)));
        assert_eq!(HintKey::node(n(7)), HintKey::node(n(7)));
    }

    #[test]
    fn lookup_misses_on_empty_store() {
        let store = HintStore::new(4, 2, 8);
        assert_eq!(store.lookup(n(0), HintKey::node(n(3))), Lookup::Absent);
        assert!(store.is_empty());
    }

    #[test]
    fn deposit_then_lookup_round_trips() {
        let mut store = HintStore::new(4, 2, 8);
        put(&mut store, n(0), HintKey::node(n(3)), n(1), 2);
        assert_eq!(
            store.lookup(n(0), HintKey::node(n(3))),
            Lookup::Hit(Hint {
                next_hop: n(1),
                depth: 2
            })
        );
        // Held at node 0 only: other nodes stay absent.
        assert_eq!(store.lookup(n(1), HintKey::node(n(3))), Lookup::Absent);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn depths_land_in_distance_buckets() {
        let mut store = HintStore::new(1, 1, 8);
        // One slot per bucket: four different-depth keys must coexist.
        for (i, depth) in [1u16, 2, 3, 9].iter().enumerate() {
            put(
                &mut store,
                n(0),
                HintKey::node(n(10 + i as u32)),
                n(1),
                *depth,
            );
        }
        assert_eq!(store.len(), 4, "distinct buckets must not evict each other");
        // Depth ≥ HINT_BUCKETS shares the last bucket with depth 4.
        put(&mut store, n(0), HintKey::node(n(99)), n(1), 4);
        assert_eq!(store.len(), 4, "depth 4 and 9 share the far bucket");
        assert_eq!(store.lookup(n(0), HintKey::node(n(13))), Lookup::Absent);
    }

    #[test]
    fn lru_evicts_the_coldest_slot() {
        let mut store = HintStore::new(1, 2, 8);
        put(&mut store, n(0), HintKey::node(n(10)), n(1), 1);
        put(&mut store, n(0), HintKey::node(n(11)), n(2), 1);
        // Touch 10 (refresh): 11 becomes the coldest.
        put(&mut store, n(0), HintKey::node(n(10)), n(1), 1);
        let evicted = put(&mut store, n(0), HintKey::node(n(12)), n(3), 1);
        assert!(evicted);
        assert_eq!(store.lookup(n(0), HintKey::node(n(11))), Lookup::Absent);
        assert!(matches!(
            store.lookup(n(0), HintKey::node(n(10))),
            Lookup::Hit(_)
        ));
    }

    #[test]
    fn refresh_updates_in_place_and_migrates_buckets() {
        let mut store = HintStore::new(1, 2, 8);
        put(&mut store, n(0), HintKey::node(n(10)), n(1), 3);
        // Same key re-deposited at a nearer depth: moves bucket, one copy.
        put(&mut store, n(0), HintKey::node(n(10)), n(2), 1);
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.lookup(n(0), HintKey::node(n(10))),
            Lookup::Hit(Hint {
                next_hop: n(2),
                depth: 1
            })
        );
    }

    #[test]
    fn ttl_expires_hints_and_deposits_recycle_them() {
        let mut store = HintStore::new(1, 1, 2);
        put(&mut store, n(0), HintKey::node(n(10)), n(1), 1);
        for _ in 0..2 {
            store.advance_epoch();
        }
        assert!(matches!(
            store.lookup(n(0), HintKey::node(n(10))),
            Lookup::Hit(_)
        ));
        store.advance_epoch(); // now 3 epochs old > ttl 2
        assert_eq!(store.lookup(n(0), HintKey::node(n(10))), Lookup::Expired);
        // An expired slot is preferred over evicting live hints.
        let evicted = put(&mut store, n(0), HintKey::node(n(11)), n(2), 1);
        assert!(!evicted);
        assert_eq!(store.lookup(n(0), HintKey::node(n(10))), Lookup::Absent);
    }

    #[test]
    fn lookup_prefers_the_shallowest_fresh_hint() {
        let mut store = HintStore::new(1, 1, 8);
        put(&mut store, n(0), HintKey::node(n(10)), n(1), 3);
        put(&mut store, n(0), HintKey::node(n(10)), n(2), 1);
        // The bucket migration kept one copy; a *different* key at depth 3
        // then a fresh same-key deposit at depth 3 exercises min-depth
        // selection across buckets.
        put(&mut store, n(0), HintKey::node(n(11)), n(3), 3);
        match store.lookup(n(0), HintKey::node(n(10))) {
            Lookup::Hit(h) => assert_eq!(h.depth, 1),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn log_merges_only_into_the_holders_latest_entry() {
        let mut log = DepositLog::new();
        assert_eq!(log.memory_bytes(), 0, "an unused log allocates nothing");
        let a = HintDeposit::new(n(1), HintKey::node(n(9)), n(2), 2);
        let b = HintDeposit {
            next_hop: n(3),
            ..a
        };
        let other = HintDeposit::new(n(5), HintKey::node(n(9)), n(6), 1);
        // a a | other (another holder) | a: still a's latest → one run of 3
        for d in [a, a, other, a] {
            log.push(d);
        }
        assert_eq!(log.runs(), &[HintDeposit { count: 3, ..a }, other]);
        // b displaces a as holder 1's latest; a no longer merges back.
        log.push(b);
        log.push(a);
        assert_eq!(log.runs().len(), 4);
        assert_eq!(log.runs()[3], a);
        // A cleared log starts fresh: the old latest entries are gone.
        log.clear();
        log.push(a);
        assert_eq!(log.runs(), &[a]);
    }

    #[test]
    fn log_index_grows_past_many_holders() {
        let mut log = DepositLog::new();
        for round in 0..3 {
            for h in 0..1000u32 {
                log.push(HintDeposit::new(n(h * 7919), HintKey::node(n(1)), n(h), 1));
            }
            assert_eq!(log.runs().len(), 1000, "round {round}: one run per holder");
        }
        assert!(log.runs().iter().all(|r| r.count == 3));
        // Reuse past the big index: a clear vacates every occupied slot,
        // so holders colliding in one home slot log what a fresh log does.
        log.clear();
        let mask = log.latest.len() - 1;
        let home = |h| DepositLog::home(h, mask);
        let hs: Vec<u32> = (0..).filter(|&h| home(h) == home(0)).take(3).collect();
        let mut fresh = DepositLog::new();
        for h in [hs[0], hs[1], hs[2], hs[0], hs[1], hs[2], hs[1]] {
            let d = HintDeposit::new(n(h), HintKey::node(n(1)), n(2), 1);
            log.push(d);
            fresh.push(d);
        }
        assert_eq!(log.runs(), fresh.runs());
        assert_eq!(
            log.runs().iter().map(|r| r.count).collect::<Vec<_>>(),
            [2, 3, 2]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// A log's combined runs leave the store — slot for slot, with its
        /// per-node clocks — and the deposit/eviction counters exactly as
        /// applying the raw sequence one deposit at a time does, across
        /// runs, interleavings, bucket migrations, LRU evictions and
        /// expired-slot reuse.
        #[test]
        fn prop_combined_runs_apply_like_single_deposits(
            spb_ix in 0usize..3,
            ttl in 1u32..4,
            batches in collection::vec(
                (
                    0u32..4,
                    collection::vec(((0u32..4, 0u32..3), (0u32..3, 1u16..6), 1u32..5), 0..40),
                ),
                1..6,
            ),
        ) {
            let mut raw = HintStore::new(4, [1, 2, 4][spb_ix], ttl);
            let mut combined = raw.clone();
            let mut raw_stats = HintStats::default();
            let mut combined_stats = HintStats::default();
            let mut log = DepositLog::new();
            for (advance, deposits) in &batches {
                for _ in 0..*advance {
                    raw.advance_epoch();
                    combined.advance_epoch();
                }
                log.clear();
                for &((holder, key), (hop, depth), reps) in deposits {
                    let d = HintDeposit::new(n(holder), HintKey::node(n(10 + key)), n(20 + hop), depth);
                    for _ in 0..reps {
                        raw.deposit(&d, &mut raw_stats);
                        log.push(d);
                    }
                }
                for run in log.runs() {
                    combined.deposit(run, &mut combined_stats);
                }
                prop_assert_eq!(&combined, &raw);
                prop_assert_eq!(&combined_stats, &raw_stats);
            }
        }
    }

    /// Occupied slots of `node`, recounted from the slot array.
    fn recount(store: &HintStore, node: NodeId) -> usize {
        store.slots[store.region(node)]
            .iter()
            .filter(|s| s.key != EMPTY)
            .count()
    }

    /// Nodes covered by the occupancy proptest's store.
    const OCC_NODES: u32 = 5;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every slot write keeps each node's occupancy count equal to a
        /// recount of its slots — so a holder the walk skips as empty
        /// (`holds_hints` false) answers `Absent` for every key — over
        /// deposit runs (fills, bucket migrations, LRU and expired-slot
        /// evictions), per-node and wholesale invalidation, `clear` and TTL
        /// ageing.
        #[test]
        fn prop_occupancy_counts_match_the_slots(
            spb in 1usize..3,
            ttl in 1u32..3,
            steps in collection::vec(
                (0u32..10, (0..OCC_NODES, 0u32..5, 0u32..3), (1u16..6, 1u32..4)),
                1..80,
            ),
        ) {
            let keys: Vec<HintKey> = (0..4)
                .map(|k| HintKey::node(n(10 + k)))
                .chain([HintKey::resource(ResourceId(0))])
                .collect();
            let mut store = HintStore::new(OCC_NODES as usize, spb, ttl);
            let mut stats = HintStats::default();
            for &(op, (node, key, hop), (depth, count)) in &steps {
                let holder = n(node);
                match op {
                    0..=5 => {
                        let d = HintDeposit::new(holder, keys[key as usize], n(20 + hop), depth);
                        store.deposit(&HintDeposit { count, ..d }, &mut stats);
                    }
                    6 => {
                        let held = recount(&store, holder);
                        prop_assert_eq!(store.invalidate_node(holder), held);
                    }
                    7 => {
                        let held: usize = (0..OCC_NODES).map(|k| recount(&store, n(k))).sum();
                        prop_assert_eq!(store.invalidate_all(), held);
                    }
                    8 => store.clear(),
                    _ => store.advance_epoch(),
                }
                let mut total = 0;
                for holder in (0..OCC_NODES).map(n) {
                    let held = recount(&store, holder);
                    total += held;
                    prop_assert_eq!(store.occupied[holder.index()] as usize, held);
                    prop_assert_eq!(store.holds_hints(holder), held > 0);
                    if held == 0 {
                        for &key in &keys {
                            prop_assert_eq!(store.lookup(holder, key), Lookup::Absent);
                        }
                    }
                }
                prop_assert_eq!(store.len(), total);
                prop_assert_eq!(store.is_empty(), total == 0);
            }
        }
    }

    #[test]
    fn invalidation_evicts_per_node_and_wholesale() {
        let mut store = HintStore::new(3, 2, 8);
        put(&mut store, n(0), HintKey::node(n(10)), n(1), 1);
        put(&mut store, n(1), HintKey::node(n(10)), n(2), 2);
        put(&mut store, n(2), HintKey::resource(ResourceId(0)), n(1), 1);
        assert_eq!(store.invalidate_node(n(1)), 1);
        assert_eq!(store.lookup(n(1), HintKey::node(n(10))), Lookup::Absent);
        assert!(matches!(
            store.lookup(n(0), HintKey::node(n(10))),
            Lookup::Hit(_)
        ));
        assert_eq!(store.invalidate_all(), 2);
        assert!(store.is_empty());
    }
}
