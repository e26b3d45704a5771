//! The Destination Search Query (DSQ) — §III.C.4.
//!
//! A source looking for target T first checks its own neighborhood table.
//! Failing that it sends a DSQ with depth D=1 to each contact, one at a
//! time: the contact answers from its neighborhood table. If no answer
//! comes back, the source escalates with D=2 — contacts recognize the query
//! is not for them, decrement D and forward to *their* contacts — and so on
//! up to the configured maximum depth: a tree search over contact links,
//! "similar to the expanding ring search … \[but\] much more efficient … as
//! the queries are not flooded with different TTLs but are directed to
//! individual nodes".
//!
//! ## The query engine
//!
//! Queries are CARD's steady-state workload, so the walk machinery is built
//! for zero per-query allocation and shared by every consumer:
//!
//! * [`QueryScratch`] holds one source's contact tree as a **resumable
//!   level memo** ("State layout" below): entries in discovery order,
//!   level boundaries with each level's cumulative cost, and a cursor that
//!   expands the next parent row on demand. Opening a fresh memo is O(1)
//!   and allocation-free once its buffers have grown. [`dsq_query`],
//!   [`crate::resources::resource_query`] and
//!   [`crate::reachability::reachability_set`] all scan it level by level
//!   (`WalkScratch::scan_level`), differing only in their per-contact
//!   visit closure.
//! * There is **one walk, calm or faulted, hinted or not**. Every
//!   function on the path takes an *edge veto* `edge_ok(holder, contact)`
//!   as a generic, statically dispatched parameter: a vetoed contact edge
//!   is neither traversed, marked nor charged. The calm instantiation is
//!   the named pass-all `any_edge`; a world with an armed fault plan passes
//!   [`QueryFaultFilter::edge_ok`], so crashed relays and edges across an
//!   open partition drop out of the walk, the hint chase and the answer
//!   predicate alike. The hint side is a type parameter too: without the
//!   §V cache the one escalation body runs over `NoHints`, whose constant
//!   [`HintLookup::ENABLED`] folds every probe, counter and deposit away.
//! * Escalation is **incremental**: on the wire, a depth-d attempt re-sends
//!   DSQs along levels 1‥d−1 before probing level d, but the simulator need
//!   not re-traverse them — the memo keeps the cumulative per-level message
//!   cost (`WalkScratch::walked_msgs`), so depth d only scans its final
//!   level while the *accounting* stays bit-identical to the from-scratch
//!   re-walk: a scan pays each entry's hops as it reaches it, so the level
//!   that answers is charged up to its answer. [`dsq_query_rewalk`] keeps
//!   the literal per-depth re-walk as the equivalence reference (pinned by
//!   `tests/query_engine.rs` and the `dsq_query/*` benches).
//! * A memo is **reused only inside a sweep**. A source's tree depends on
//!   the tables and the edge veto alone, both frozen for a sweep, so the
//!   next walk from the same source resumes the memo instead of
//!   re-reading links and marks. Each sweep lane forgets its memo when a
//!   sweep starts and when it ends, and every free call ([`dsq_query`],
//!   [`crate::resources::resource_query`], `reachability_set`) forgets
//!   before it walks. A hint-less sweep visits its slots grouped by source,
//!   so each source's tree is walked once per sweep; a hinted sweep keeps
//!   slot order and reuses a memo between adjacent slots of one source.
//! * Batched sweeps (`CardWorld::query_all`) fan pair lists out over
//!   protocol shards, one scratch lane each; queries draw no
//!   randomness, so outcomes are a pure function of `(network, tables,
//!   fault view, pair)` and the sweep is bit-identical at any worker or
//!   shard count, one shard (a single inline lane) included.
//!
//! ## State layout
//!
//! A contact answers from its own table for zero messages, so the host
//! cost per visited contact is memory traffic: on a memo hit, one 16-byte
//! entry read and one zone stamp read; on a miss, the link read, a mark
//! and an entry write first.
//!
//! * **Contact links** (`TablesView::links`): `(contact, path hops)` in
//!   row order — one division to the owning store, one offset pair per
//!   parent row, then the row's contiguous runs of the `ids` and `hops`
//!   columns; never a stored path. [`dsq_query_rewalk`] reads the same
//!   rows as contacts with their paths (a contact's hops are its path's
//!   length there), so the oracle also pins the `hops` column to the
//!   path arena.
//! * **The memo** (`WalkScratch`): entries `(contact, parent entry, hops,
//!   distance from the source)` in discovery order, entry 0 the source;
//!   one `(end, cumulative cost)` per completed level; the cursor of the
//!   next parent row to expand. `mark[v] == epoch` is "the memo holds
//!   `v`" — a fresh epoch per fresh memo, zeroed once per `u32` wrap. An
//!   answer chain follows parent entries back to entry 0, so no per-node
//!   parent array exists.
//! * **Zone stamps**, one `u32` per node. Zone membership is symmetric
//!   (hop distance on an undirected graph, all tables built from one
//!   adjacency snapshot; proptested in `manet_routing::network`), so
//!   "target ∈ zone(c)" is "c ∈ zone(target)": `target_zone` stamps the
//!   target's ~24 members once per node query, under its own epoch, and
//!   the depth-0 shortcut, the answer predicate and every hint-chase step
//!   read `zone[c] == zone_epoch` where they used to fetch up to 84
//!   different `Neighborhood`s and search each (D = 3, NoC = 4).
//!   Grown on first use, so target-less walks never pay for it. The
//!   pointwise lookup stays the spec: asserted on every evaluation in
//!   debug builds, and all [`dsq_query_rewalk`] uses. Resource goals keep
//!   it (a replica set's zones can outnumber the walk).
//! * **The answer chain**: a plain reused buffer.

use manet_routing::network::Network;
use net_topology::node::NodeId;
use sim_core::stats::{MsgKind, MsgStats};
use sim_core::time::SimTime;

use crate::contact::{Backoff, TablesView};
use crate::hints::{
    DepositLog, HintDeposit, HintKey, HintLookup, HintStats, HintStore, Lookup, NoHints,
};

/// Result of one resource-discovery query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Was a path to the target returned?
    pub found: bool,
    /// The escalation depth that answered (0 = own neighborhood).
    pub depth_used: u16,
    /// DSQ forward messages (all escalation attempts).
    pub query_msgs: u64,
    /// Reply messages (answering contact chain back to the source).
    pub reply_msgs: u64,
}

impl QueryOutcome {
    /// Nothing asked, nothing found: a query that could not be issued (a
    /// crashed endpoint), and the filler of sweep output buffers.
    pub const MISS: QueryOutcome = QueryOutcome {
        found: false,
        depth_used: 0,
        query_msgs: 0,
        reply_msgs: 0,
    };

    /// Answered from the source's own neighborhood table: depth 0, free.
    pub const LOCAL_HIT: QueryOutcome = QueryOutcome {
        found: true,
        depth_used: 0,
        query_msgs: 0,
        reply_msgs: 0,
    };

    /// Total control messages.
    pub fn total_messages(&self) -> u64 {
        self.query_msgs + self.reply_msgs
    }

    /// Record this query's DSQ forwards and reply chain at `at` (a zero
    /// count never records, so free and unissued queries stay invisible
    /// in the buckets).
    pub(crate) fn recorded(self, stats: &mut MsgStats, at: SimTime) -> Self {
        stats.record_n(at, MsgKind::Dsq, self.query_msgs);
        stats.record_n(at, MsgKind::DsqReply, self.reply_msgs);
        self
    }
}

/// The calm edge veto: every contact edge may be walked. One named
/// function rather than a closure literal per call site, so all calm
/// callers share a single instantiation of the (large) hinted escalation.
#[inline]
pub(crate) fn any_edge(_holder: NodeId, _contact: NodeId) -> bool {
    true
}

/// Reusable query workspace: the contact-graph walk memo plus the
/// target-zone stamps ("State layout" in the module docs). One scratch
/// serves any number of sequential queries over graphs of any size.
#[derive(Clone, Debug, Default)]
pub struct QueryScratch {
    /// Borrowed mutably by the level walker while the predicate reads `zone`.
    pub(crate) walk: WalkScratch,
    /// `zone[v] == zone_epoch` means `v` lies in the current target's zone.
    zone: Vec<u32>,
    zone_epoch: u32,
}

impl QueryScratch {
    /// A fresh workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace whose seen marks are pre-sized for networks of `n`
    /// nodes (the zone stamps stay lazy: target-less walks never use them).
    pub fn with_capacity(n: usize) -> Self {
        let mut s = Self::default();
        s.walk.mark.resize(n, 0);
        s
    }
}

/// One contact the walk discovered: a row of the [`WalkScratch`] memo.
#[derive(Clone, Copy, Debug)]
struct Entry {
    node: NodeId,
    /// The entry whose contact link discovered this one (the source's own
    /// entry, 0, is its own parent).
    parent: u32,
    /// Path hops of that link: the DSQ messages one visit costs.
    hops: u32,
    /// Hops from the source along the contact chain: a reply's cost. A
    /// level adds at most `u16::MAX` hops and there are at most `u16::MAX`
    /// levels, so the sum fits.
    dist: u32,
}

/// A completed level of the memo.
#[derive(Clone, Copy, Debug)]
struct Level {
    /// One past the level's last entry.
    end: u32,
    /// DSQ messages of levels 1..=this one: what a from-scratch walk of
    /// them charges (see [`WalkScratch::walked_msgs`]).
    walked: u64,
}

/// The walk half of a [`QueryScratch`]: one source's contact tree as a
/// resumable level memo. Entries sit in discovery order — level by level,
/// each level in the order its parents' contact rows list them — so a
/// scan of the entries is the level-synchronous walk itself. The memo is
/// expanded one parent row at a time, only when a scan runs past its end,
/// and it is reused by the next walk from the same source until
/// [`WalkScratch::forget`]: only a sweep, whose tables and fault view are
/// frozen, lets a memo outlive one query.
#[derive(Clone, Debug, Default)]
pub(crate) struct WalkScratch {
    /// Epoch stamp per node; `mark[v] == epoch` means the memo holds `v`.
    mark: Vec<u32>,
    /// The memo's epoch (bumped per fresh memo; marks are only valid
    /// against it).
    epoch: u32,
    /// The discovered contacts; entry 0 is the source at distance 0.
    entries: Vec<Entry>,
    /// Every completed level, level 0 (the source) first.
    levels: Vec<Level>,
    /// The next entry whose contact row an expansion reads.
    cursor: u32,
    /// DSQ messages of the entries of the level being discovered.
    open_msgs: u64,
    /// The source the memo belongs to, `None` once forgotten.
    memo: Option<NodeId>,
    /// The entry whose visit ended the current walk (see
    /// [`WalkScratch::answer_path`]).
    hit: Option<u32>,
    /// The answer chain of the last [`WalkScratch::answer_path`].
    path: Vec<NodeId>,
}

impl WalkScratch {
    /// Drop the memo: the next [`open`](Self::open) starts a fresh one.
    /// A memo holds one frozen view's tables and edge veto, so every walk
    /// outside a sweep, and each sweep at its start and end, forgets.
    pub(crate) fn forget(&mut self) {
        self.memo = None;
    }

    /// Open a walk from `source` over a network of `n` nodes: resume the
    /// memo if it is `source`'s, else start a fresh one — bump the epoch
    /// (recycling the mark array without clearing it) and hold just the
    /// source. O(1) amortized.
    pub(crate) fn open(&mut self, n: usize, source: NodeId) {
        self.hit = None;
        if self.memo == Some(source) {
            return;
        }
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch counter wrapped: invalidate every stale mark once.
            self.mark.fill(0);
            self.epoch = 1;
        }
        self.mark[source.index()] = self.epoch;
        self.entries.clear();
        self.entries.push(Entry {
            node: source,
            parent: 0,
            hops: 0,
            dist: 0,
        });
        self.levels.clear();
        self.levels.push(Level { end: 1, walked: 0 });
        self.cursor = 0;
        self.open_msgs = 0;
        self.memo = Some(source);
    }

    /// DSQ messages a from-scratch walk of levels 1..`level` (exclusive)
    /// costs — the incremental escalation charges this instead of
    /// re-traversing (escalation re-sends queries on the wire; the message
    /// count is real even though the simulator walks each level once).
    /// Every level below `level` must be complete, which a scan of each of
    /// them that answered nothing guarantees.
    pub(crate) fn walked_msgs(&self, level: u16) -> u64 {
        self.levels[level as usize - 1].walked
    }

    /// Scan level `level` (≥ 1; the levels below it complete): visit its
    /// contacts in discovery order, charging each one's path hops to `msgs`
    /// and calling `visit(contact, hops from source)`. Each contact sits at
    /// its *minimal* level (loop prevention via the epoch marks, matching
    /// §III.C.4's query IDs). A `Some` from `visit` ends the scan on the
    /// spot: the query was answered, and the rest of the level is neither
    /// visited nor charged.
    ///
    /// The scan reads the part of the level the memo holds, then expands
    /// the remaining parent rows of the level below, visiting each contact
    /// as it is discovered. A row is expanded whole even when a contact in
    /// it answers, so a later walk can resume the memo; the last row closes
    /// the level.
    pub(crate) fn scan_level<R>(
        &mut self,
        level: u16,
        contact_tables: TablesView<'_>,
        msgs: &mut u64,
        edge_ok: impl Fn(NodeId, NodeId) -> bool,
        mut visit: impl FnMut(NodeId, u64) -> Option<R>,
    ) -> Option<R> {
        let level = level as usize;
        let below = self.levels[level - 1];
        let held = self
            .levels
            .get(level)
            .map_or(self.entries.len(), |l| l.end as usize);
        for (i, e) in self.entries[below.end as usize..held].iter().enumerate() {
            *msgs += e.hops as u64;
            if let Some(r) = visit(e.node, e.dist as u64) {
                self.hit = Some(below.end + i as u32);
                return Some(r);
            }
        }
        if self.levels.len() > level {
            return None;
        }
        while self.cursor < below.end {
            let parent = self.cursor;
            self.cursor += 1;
            let from = self.entries[parent as usize];
            let mut links = contact_tables.links(from.node.index());
            for (c, hops) in links.by_ref() {
                let Some(e) = self.discover(parent, from, c, hops, &edge_ok) else {
                    continue;
                };
                *msgs += e.hops as u64;
                if let Some(r) = visit(e.node, e.dist as u64) {
                    self.hit = Some(self.entries.len() as u32 - 1);
                    for (c, hops) in links {
                        self.discover(parent, from, c, hops, &edge_ok);
                    }
                    return Some(r);
                }
            }
        }
        self.levels.push(Level {
            end: self.entries.len() as u32,
            walked: below.walked + self.open_msgs,
        });
        self.open_msgs = 0;
        None
    }

    /// Append contact `c`, linked from entry `parent` (`from`) by a path of
    /// `hops`, to the level being discovered — unless the memo already
    /// holds it or `edge_ok` vetoes the edge. A vetoed contact edge is
    /// neither traversed, marked nor charged (the holder learned from its
    /// failed validation that the relay is gone, so no probe is emitted);
    /// the contact stays discoverable through a different (allowed) edge at
    /// this or a deeper level.
    #[inline(always)]
    fn discover(
        &mut self,
        parent: u32,
        from: Entry,
        c: NodeId,
        hops: u16,
        edge_ok: &impl Fn(NodeId, NodeId) -> bool,
    ) -> Option<Entry> {
        if self.mark[c.index()] == self.epoch || !edge_ok(from.node, c) {
            return None;
        }
        self.mark[c.index()] = self.epoch;
        self.open_msgs += hops as u64;
        let e = Entry {
            node: c,
            parent,
            hops: hops as u32,
            dist: from.dist + hops as u32,
        };
        self.entries.push(e);
        Some(e)
    }

    /// The contact chain source → the contact whose visit ended the
    /// current walk (for a plain escalation, the node that answered),
    /// source-first, in the scratch-owned chain buffer.
    ///
    /// # Panics
    /// Panics if the current walk has not been answered.
    pub(crate) fn answer_path(&mut self) -> &mut Vec<NodeId> {
        self.path.clear();
        let mut at = self.hit.expect("an answered walk has a hit") as usize;
        loop {
            let e = self.entries[at];
            self.path.push(e.node);
            if at == 0 {
                break;
            }
            at = e.parent as usize;
        }
        self.path.reverse();
        &mut self.path
    }
}

/// Open a node query: stamp `target`'s zone under a fresh zone epoch and
/// hand back the walk half with the predicate "`c`'s zone lists `target`
/// and `c` can reach it" — by symmetry one stamp read ("State layout" in
/// the module docs), checked against the table lookup in debug builds.
fn target_zone<'a>(
    net: &'a Network,
    scratch: &'a mut QueryScratch,
    target: NodeId,
    edge_ok: impl Fn(NodeId, NodeId) -> bool + Copy + 'a,
) -> (&'a mut WalkScratch, impl Fn(NodeId) -> bool + Copy + 'a) {
    if scratch.zone.len() < net.node_count() {
        scratch.zone.resize(net.node_count(), 0);
    }
    scratch.zone_epoch = scratch.zone_epoch.wrapping_add(1);
    if scratch.zone_epoch == 0 {
        // Epoch counter wrapped: invalidate every stale stamp once.
        scratch.zone.fill(0);
        scratch.zone_epoch = 1;
    }
    let epoch = scratch.zone_epoch;
    for &m in net.tables().of(target).members() {
        scratch.zone[m.index()] = epoch;
    }
    let zone = &scratch.zone[..];
    (&mut scratch.walk, move |c: NodeId| {
        let listed = zone[c.index()] == epoch;
        debug_assert_eq!(listed, net.tables().of(c).contains(target));
        listed && edge_ok(c, target)
    })
}

/// Run a full CARD query from `source` for `target`, escalating the depth
/// of search from 1 to `max_depth` (§III.C.4). Messages are recorded into
/// `stats` at time `at`; the walk runs allocation-free on `scratch`
/// (escalation is incremental — see the module docs).
///
/// With `hints`, the §V route-hint cache is consulted first and hint
/// deposits are queued on resolution (see [`HintContext`] and
/// [`crate::hints`]): `found` and `depth_used` match the plain query; only
/// the message cost differs. Both cases run the one escalation body;
/// without `hints` it is instantiated over `NoHints`, which touches no
/// cache, counter or log.
#[allow(clippy::too_many_arguments)] // mirrors the protocol message fields
pub fn dsq_query(
    net: &Network,
    contact_tables: TablesView<'_>,
    hints: Option<&mut HintContext<'_>>,
    source: NodeId,
    target: NodeId,
    max_depth: u16,
    stats: &mut MsgStats,
    at: SimTime,
    scratch: &mut QueryScratch,
) -> QueryOutcome {
    // A free call: no memo outlives it.
    scratch.walk.forget();
    let out = match hints {
        Some(ctx) => dsq_walk(
            net,
            contact_tables,
            ctx,
            source,
            target,
            max_depth,
            scratch,
            any_edge,
        ),
        None => dsq_walk(
            net,
            contact_tables,
            &mut HintContext::off(&mut HintStats::default(), &mut DepositLog::new()),
            source,
            target,
            max_depth,
            scratch,
            any_edge,
        ),
    };
    out.recorded(stats, at)
}

// ---------------------------------------------------------------------------
// The escalation, with or without the §V route-hint short-cut (see
// `crate::hints`).
// ---------------------------------------------------------------------------

/// Hard cap on a directed probe's chain length. Chain buffers live on the
/// stack; configured escalation depths sit far below this.
pub(crate) const MAX_CHAIN: usize = 16;

/// Failed directed probes tolerated per query before the walk stops
/// consulting relay hints — bounds the messages a trail of stale chains
/// can waste on one query.
const MAX_FAILED_CHASES: u32 = 4;

/// Borrowed view of the hint subsystem threaded through one hinted query:
/// a *read-only* store (frozen for the whole parallel phase of a sharded
/// sweep), the caller's counters, and a deposit log. Deposits are queued,
/// not applied — `CardWorld` drains the logs into its store after each
/// sweep (a single query is a sweep of one), which keeps hinted queries
/// bit-identical at any worker or shard count. The log combines repeated
/// deposits into counted runs as they are queued (see [`DepositLog`]).
pub struct HintContext<'a, S: HintLookup = &'a HintStore> {
    /// The hint tables consulted (never written during the query).
    pub store: S,
    /// Hit/miss/staleness counters (summed, so shard merges commute).
    pub stats: &'a mut HintStats,
    /// Hints the resolved query wants deposited along its answer chain.
    pub deposits: &'a mut DepositLog,
}

impl<'a> HintContext<'a, NoHints> {
    /// A context over `NoHints`: a walk leaves `stats` and `deposits` untouched.
    pub(crate) fn off(stats: &'a mut HintStats, deposits: &'a mut DepositLog) -> Self {
        HintContext {
            store: NoHints,
            stats,
            deposits,
        }
    }
}

/// Outcome of one directed probe down a hint chain.
#[derive(Default)]
struct Chase {
    /// Reply hop count when the probe reached an answering node.
    reply: Option<u64>,
    /// Contact-graph steps taken (chain nodes touched past the start).
    steps: usize,
    /// Probe messages spent (contact-path hops of every step).
    probe_msgs: u64,
}

/// Follow hints for `key` from `start` (at `start_dist` reply hops from
/// the source) for at most `budget` contact-graph steps, verifying each
/// reached node against `answers`. Every hop resolves the hint's next
/// contact against the holder's *live* contact links and the edge veto — a
/// departed contact, a crashed relay or a next hop beyond the partition
/// cut is a `stale_contact` miss, never a forward (the caller's walk takes
/// over) — so a probe can only reach nodes the plain escalation could
/// also reach, only cheaper. The chain walked is left in `chain[..=steps]`.
///
/// A `start` whose table is empty ([`HintLookup::holds_hints`]) is charged
/// the one `Absent` lookup the probe would have made, inline, without the
/// probe call or the slot scan — the common case of a cold sweep.
#[allow(clippy::too_many_arguments)] // mirrors the protocol message fields
#[inline(always)]
fn chase<S: HintLookup + ?Sized>(
    contact_tables: TablesView<'_>,
    store: &S,
    stats: &mut HintStats,
    key: HintKey,
    start: NodeId,
    start_dist: u64,
    budget: usize,
    chain: &mut [NodeId; MAX_CHAIN],
    edge_ok: impl Fn(NodeId, NodeId) -> bool,
    answers: &mut impl FnMut(NodeId) -> bool,
) -> Chase {
    if budget > 0 && !store.holds_hints(start) {
        stats.lookups += 1;
        stats.miss_absent += 1;
        return Chase::default();
    }
    follow_hints(
        contact_tables,
        store,
        stats,
        key,
        start,
        start_dist,
        budget,
        chain,
        edge_ok,
        answers,
    )
}

/// The probe body of [`chase`], from a holder that may hold hints.
#[allow(clippy::too_many_arguments)] // mirrors the protocol message fields
fn follow_hints<S: HintLookup + ?Sized>(
    contact_tables: TablesView<'_>,
    store: &S,
    stats: &mut HintStats,
    key: HintKey,
    start: NodeId,
    start_dist: u64,
    budget: usize,
    chain: &mut [NodeId; MAX_CHAIN],
    edge_ok: impl Fn(NodeId, NodeId) -> bool,
    answers: &mut impl FnMut(NodeId) -> bool,
) -> Chase {
    let budget = budget.min(MAX_CHAIN - 1);
    chain[0] = start;
    let mut node = start;
    let mut dist = start_dist;
    let mut probe_msgs = 0u64;
    let mut steps = 0usize;
    while steps < budget {
        stats.lookups += 1;
        let hint = match store.lookup(node, key) {
            Lookup::Hit(h) => h,
            Lookup::Expired => {
                stats.stale_ttl += 1;
                break;
            }
            Lookup::Absent => {
                stats.miss_absent += 1;
                break;
            }
        };
        let Some((_, hops)) = contact_tables
            .links(node.index())
            .find(|&(c, _)| c == hint.next_hop)
            .filter(|_| edge_ok(node, hint.next_hop))
        else {
            stats.stale_contact += 1;
            break;
        };
        stats.hits += 1;
        let hops = hops as u64;
        probe_msgs += hops;
        dist += hops;
        node = hint.next_hop;
        steps += 1;
        chain[steps] = node;
        if answers(node) {
            return Chase {
                reply: Some(dist),
                steps,
                probe_msgs,
            };
        }
    }
    Chase {
        reply: None,
        steps,
        probe_msgs,
    }
}

/// Queue one hint per chain node (except the answer itself): at chain
/// node `i`, forward to `chain[i+1]`, with the remaining steps as the
/// distance-bucket depth.
fn push_chain_deposits(deposits: &mut DepositLog, key: HintKey, chain: &[NodeId]) {
    let last = chain.len() - 1;
    for (i, pair) in chain.windows(2).enumerate() {
        deposits.push(HintDeposit::new(pair[0], key, pair[1], (last - i) as u16));
    }
}

/// A walk-level hit of [`escalate`]; the visited contact is the walk's
/// hit entry ([`WalkScratch::answer_path`]).
enum HintedHit {
    /// The plain level walk answered at the visited contact.
    Walk { reply: u64 },
    /// The visited relay's hint chain answered, `steps` probe hops past it.
    Chase { steps: usize, reply: u64 },
}

/// The one escalation driver, without statistics recording: walk depths
/// 1‥`max_depth` under the edge veto, each depth charging the re-walk cost
/// of the levels below it ([`WalkScratch::walked_msgs`]) and traversing
/// only its final level, where `answers(contact)` is the neighborhood-table
/// lookup (callers fold any target-side fault check into it). Without
/// hints, outcome and message totals equal the per-depth re-walk's
/// ([`dsq_query_rewalk`]). Sweeps record per-shard totals once.
///
/// With hint tables behind `ctx` ([`HintLookup::ENABLED`]) a directed probe
/// from the source's own hints goes first, and each visited relay's fresh
/// hint forks a bounded probe for the remaining depth. Probes and walk
/// share the edge veto, so a hint at a dead relay is a `stale_contact`
/// miss and the walk takes over; the answer predicate is always verified
/// against live state. Outcomes therefore equal the plain walk's (only
/// message costs differ): a probe follows contact edges, the relation the
/// walk expands, and reaches only nodes the walk visits within
/// `max_depth`. Resolved queries queue §V deposits along the
/// source → answer chain. Over `NoHints` every hint touch is a branch on a
/// constant `false`, so that instantiation is the plain walk: when the two
/// bodies were merged, the release `card_bench` build's calm node body was
/// 967 B of x86-64 code, against 961 B for the separate plain body.
#[allow(clippy::too_many_arguments)] // mirrors the protocol message fields
pub(crate) fn escalate<S: HintLookup>(
    n: usize,
    contact_tables: TablesView<'_>,
    ctx: &mut HintContext<'_, S>,
    key: HintKey,
    source: NodeId,
    max_depth: u16,
    scratch: &mut WalkScratch,
    edge_ok: impl Fn(NodeId, NodeId) -> bool + Copy,
    mut answers: impl FnMut(NodeId) -> bool,
) -> QueryOutcome {
    let mut query_msgs = 0u64;
    let mut failed_chases: u32 = 0;
    if S::ENABLED {
        // Source-side probe: a fresh chain answers for probe messages alone.
        let mut src_chain = [source; MAX_CHAIN];
        let src = chase(
            contact_tables,
            &ctx.store,
            ctx.stats,
            key,
            source,
            0,
            max_depth as usize,
            &mut src_chain,
            edge_ok,
            &mut answers,
        );
        if src.steps > 0 {
            ctx.stats.chases += 1;
        }
        ctx.stats.probe_msgs += src.probe_msgs;
        if let Some(reply) = src.reply {
            ctx.stats.chase_hits += 1;
            push_chain_deposits(ctx.deposits, key, &src_chain[..=src.steps]);
            return QueryOutcome {
                found: true,
                depth_used: src.steps as u16,
                query_msgs: src.probe_msgs,
                reply_msgs: reply,
            };
        }
        failed_chases = (src.steps > 0) as u32;
        query_msgs = src.probe_msgs;
    }

    // The incremental escalation, consulting relay hints on the way.
    // Failed probes cost their messages and the walk continues unchanged
    // (same order, same marks), so discovery is that of the plain walk.
    scratch.open(n, source);
    let mut chase_chain = [source; MAX_CHAIN];
    for depth in 1..=max_depth {
        // The wire cost of re-sending the query along levels 1..depth-1.
        query_msgs += scratch.walked_msgs(depth);
        let mut probe_spent = 0u64;
        let hit = {
            let tables = contact_tables;
            let stats = &mut *ctx.stats;
            let store = &ctx.store;
            let failed = &mut failed_chases;
            let probe = &mut probe_spent;
            let chain = &mut chase_chain;
            let ans = &mut answers;
            scratch.scan_level(depth, tables, &mut query_msgs, edge_ok, |c, at_contact| {
                if ans(c) {
                    return Some(HintedHit::Walk { reply: at_contact });
                }
                if S::ENABLED && depth < max_depth && *failed < MAX_FAILED_CHASES {
                    let budget = (max_depth - depth) as usize;
                    let res = chase(
                        tables, store, stats, key, c, at_contact, budget, chain, edge_ok, ans,
                    );
                    if res.steps > 0 {
                        stats.chases += 1;
                    }
                    stats.probe_msgs += res.probe_msgs;
                    *probe += res.probe_msgs;
                    if let Some(reply) = res.reply {
                        stats.chase_hits += 1;
                        return Some(HintedHit::Chase {
                            steps: res.steps,
                            reply,
                        });
                    }
                    if res.steps > 0 {
                        *failed += 1;
                    }
                }
                None
            })
        };
        query_msgs += probe_spent;
        if let Some(hit) = hit {
            return match hit {
                HintedHit::Walk { reply } => {
                    if S::ENABLED {
                        push_chain_deposits(ctx.deposits, key, scratch.answer_path());
                    }
                    QueryOutcome {
                        found: true,
                        depth_used: depth,
                        query_msgs,
                        reply_msgs: reply,
                    }
                }
                HintedHit::Chase { steps, reply } => {
                    let path = scratch.answer_path();
                    path.extend_from_slice(&chase_chain[1..=steps]);
                    push_chain_deposits(ctx.deposits, key, path);
                    QueryOutcome {
                        found: true,
                        depth_used: depth + steps as u16,
                        query_msgs,
                        reply_msgs: reply,
                    }
                }
            };
        }
    }
    QueryOutcome {
        found: false,
        depth_used: max_depth,
        query_msgs,
        reply_msgs: 0,
    }
}

/// The per-pair node query, without statistics recording and under an
/// edge veto — the body of [`dsq_query`] and of `CardWorld`'s single
/// queries and batched sweep (which accounts its shard's message totals
/// in bulk): answer from the source's own zone for free, else
/// [`escalate`]. A zone answers only if it can actually reach the target:
/// the depth-0 shortcut and the answer predicate are the one
/// [`target_zone`] closure.
#[allow(clippy::too_many_arguments)] // mirrors the protocol message fields
pub(crate) fn dsq_walk<S: HintLookup>(
    net: &Network,
    contact_tables: TablesView<'_>,
    ctx: &mut HintContext<'_, S>,
    source: NodeId,
    target: NodeId,
    max_depth: u16,
    scratch: &mut QueryScratch,
    edge_ok: impl Fn(NodeId, NodeId) -> bool + Copy,
) -> QueryOutcome {
    let (walk, answers) = target_zone(net, scratch, target, edge_ok);
    if answers(source) {
        return QueryOutcome::LOCAL_HIT;
    }
    escalate(
        net.node_count(),
        contact_tables,
        ctx,
        HintKey::node(target),
        source,
        max_depth,
        walk,
        edge_ok,
        answers,
    )
}

// ---------------------------------------------------------------------------
// The fault view — where the non-trivial edge veto comes from.
// ---------------------------------------------------------------------------

/// Fault view of a query: the crash mask and (while a partition window is
/// open) the frozen per-node sides, borrowed from the world's `FaultState`
/// once per query call or sweep span. Its [`edge_ok`](Self::edge_ok) is the
/// edge veto of every walk under an armed plan.
#[derive(Clone, Copy)]
pub struct QueryFaultFilter<'a> {
    /// `down[i]` — node `i` is crashed.
    pub down: &'a [bool],
    /// Frozen partition sides, `None` while no partition is active.
    pub sides: Option<&'a [u8]>,
}

impl QueryFaultFilter<'_> {
    /// Can a query hop travel from `a` to `b`? `a` is assumed alive (it
    /// is holding the query); `b` must be alive and on the same side of
    /// an open partition.
    #[inline]
    pub fn edge_ok(&self, a: NodeId, b: NodeId) -> bool {
        !self.down[b.index()] && self.sides.is_none_or(|s| s[a.index()] == s[b.index()])
    }

    /// Are both endpoints of a query up? A crashed endpoint fails the
    /// query outright with no messages — nobody to ask, nobody to answer.
    #[inline]
    pub fn endpoints_up(&self, source: NodeId, target: NodeId) -> bool {
        !self.down[source.index()] && !self.down[target.index()]
    }
}

// ---------------------------------------------------------------------------
// Query retry — capped exponential backoff for faulted misses.
// ---------------------------------------------------------------------------

/// Counters of one [`QueryRetryQueue`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct RetryStats {
    /// Failed queries accepted for retry.
    pub scheduled: u64,
    /// Retry attempts actually re-run.
    pub retried: u64,
    /// Retries that resolved.
    pub recovered: u64,
    /// Queries given up after the attempt cap.
    pub abandoned: u64,
}

#[derive(Clone, Debug, Hash)]
struct RetryEntry {
    source: NodeId,
    target: NodeId,
    /// Level = failed retries so far; attempt = level + 1.
    backoff: Backoff,
}

/// Cap on the query retry backoff: waits of 1, 2, 4, then 8 rounds.
const RETRY_BACKOFF_CAP: u32 = 3;

/// Retry queue for queries that failed under faults (frontier partitioned
/// away, relays crashed): each failed query re-runs after an exponentially
/// growing number of validation rounds (1, 2, 4, … capped at 8) until it
/// resolves or `cap` attempts are spent. Draining is driven by the
/// validation-round lattice, so retry timing — like everything else in the
/// fault plane — is identical between tick and event drivers and across
/// shard counts.
#[derive(Clone, Debug, Hash)]
pub struct QueryRetryQueue {
    entries: Vec<RetryEntry>,
    cap: u32,
    stats: RetryStats,
}

impl QueryRetryQueue {
    /// An empty queue abandoning queries after `cap` retry attempts.
    pub fn new(cap: u32) -> Self {
        QueryRetryQueue {
            entries: Vec::new(),
            cap,
            stats: RetryStats::default(),
        }
    }

    /// Outstanding retries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is waiting to retry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cumulative counters.
    pub fn stats(&self) -> &RetryStats {
        &self.stats
    }

    /// Accept a freshly failed query for retry (first attempt re-runs at
    /// the next round). A `(source, target)` pair already queued is not
    /// queued twice.
    pub fn schedule(&mut self, source: NodeId, target: NodeId) {
        if self.cap == 0 {
            return;
        }
        if self
            .entries
            .iter()
            .any(|e| e.source == source && e.target == target)
        {
            return;
        }
        self.stats.scheduled += 1;
        self.entries.push(RetryEntry {
            source,
            target,
            backoff: Backoff::default(),
        });
    }

    /// Advance one validation round: every entry's wait decreases by one
    /// and the now-due entries are moved into `due` (insertion order) as
    /// `(source, target, attempt)`. The caller re-runs each and feeds the
    /// outcome back through [`report`](Self::report).
    pub fn tick(&mut self, due: &mut Vec<(NodeId, NodeId, u32)>) {
        due.clear();
        self.entries.retain_mut(|e| {
            let waiting = e.backoff.tick();
            if !waiting {
                due.push((e.source, e.target, e.backoff.level() + 1));
            }
            waiting
        });
    }

    /// Record the outcome of a due retry: a hit counts as recovered; a
    /// miss re-queues with doubled backoff until `cap` attempts are spent.
    pub fn report(&mut self, source: NodeId, target: NodeId, attempt: u32, found: bool) {
        self.stats.retried += 1;
        if found {
            self.stats.recovered += 1;
        } else if attempt >= self.cap {
            self.stats.abandoned += 1;
        } else {
            self.entries.push(RetryEntry {
                source,
                target,
                backoff: Backoff::failed(attempt, RETRY_BACKOFF_CAP),
            });
        }
    }
}

/// One from-scratch escalation attempt at exactly `depth` levels: a
/// level-synchronous walk of the contact graph. Every contact is consumed
/// at its *minimal* level (loop prevention via query IDs), so the set of
/// neighborhoods consulted matches [`crate::reachability::reachability_set`]
/// exactly — level-k contacts relay when k < depth and answer from their
/// neighborhood tables when k = depth (§III.C.4). Returns the reply hop
/// count when found.
fn attempt_rewalk(
    net: &Network,
    contact_tables: TablesView<'_>,
    source: NodeId,
    target: NodeId,
    depth: u16,
    query_msgs: &mut u64,
) -> Option<u64> {
    let mut seen = vec![false; net.node_count()];
    seen[source.index()] = true;
    // (contact, accumulated hops from the source along contact paths)
    let mut frontier: Vec<(NodeId, u64)> = vec![(source, 0)];

    for level in 1..=depth {
        let mut next = Vec::new();
        for &(node, dist) in &frontier {
            for contact in contact_tables.table(node.index()).contacts() {
                let c = contact.id;
                if seen[c.index()] {
                    continue;
                }
                seen[c.index()] = true;
                let at_contact = dist + contact.hops() as u64;
                *query_msgs += contact.hops() as u64;
                if level == depth {
                    // final level: answer from the neighborhood table
                    if net.tables().of(c).contains(target) {
                        return Some(at_contact);
                    }
                } else {
                    next.push((c, at_contact));
                }
            }
        }
        frontier = next;
        if frontier.is_empty() && level < depth {
            break; // ran out of contacts before reaching the final level
        }
    }
    None
}

/// The from-scratch re-walk reference for [`dsq_query`]: every escalation
/// depth restarts its level-synchronous walk from the source, allocating
/// fresh visited/frontier buffers per attempt — the literal §III.C.4
/// semantics the incremental engine must reproduce bit for bit (outcome
/// *and* message accounting). The query layer's one oracle (as
/// `Network::refresh_full` is the topology's): the equivalence anchor for
/// tests (`tests/query_engine.rs`) and the `dsq_query/*` benches.
pub fn dsq_query_rewalk(
    net: &Network,
    contact_tables: TablesView<'_>,
    source: NodeId,
    target: NodeId,
    max_depth: u16,
    stats: &mut MsgStats,
    at: SimTime,
) -> QueryOutcome {
    if net.tables().of(source).contains(target) {
        return QueryOutcome::LOCAL_HIT;
    }

    let mut query_msgs = 0u64;
    for depth in 1..=max_depth {
        if let Some(reply) =
            attempt_rewalk(net, contact_tables, source, target, depth, &mut query_msgs)
        {
            stats.record_n(at, MsgKind::Dsq, query_msgs);
            stats.record_n(at, MsgKind::DsqReply, reply);
            return QueryOutcome {
                found: true,
                depth_used: depth,
                query_msgs,
                reply_msgs: reply,
            };
        }
    }

    stats.record_n(at, MsgKind::Dsq, query_msgs);
    QueryOutcome {
        found: false,
        depth_used: max_depth,
        query_msgs,
        reply_msgs: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CardConfig;
    use crate::contact::ContactStore;
    use crate::world::CardWorld;
    use mobility::waypoint::RandomWaypoint;
    use net_topology::geometry::{Field, Point2};
    use net_topology::scenario::Scenario;
    use proptest::prelude::*;
    use sim_core::rng::RngStream;
    use sim_core::time::SimDuration;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn mk_stats() -> MsgStats {
        MsgStats::new(SimDuration::from_secs(2))
    }

    /// `dsq_query` on a throwaway scratch, checked on the spot against the
    /// re-walk reference (every unit scenario doubles as an equivalence
    /// case; the broad pin lives in `tests/query_engine.rs`).
    fn query(
        net: &Network,
        tables: &ContactStore,
        source: NodeId,
        target: NodeId,
        max_depth: u16,
        st: &mut MsgStats,
    ) -> QueryOutcome {
        let tables = tables.view();
        let mut scratch = QueryScratch::new();
        let out = dsq_query(
            net,
            tables,
            None,
            source,
            target,
            max_depth,
            st,
            SimTime::ZERO,
            &mut scratch,
        );
        let mut ref_stats = mk_stats();
        let reference = dsq_query_rewalk(
            net,
            tables,
            source,
            target,
            max_depth,
            &mut ref_stats,
            SimTime::ZERO,
        );
        assert_eq!(out, reference, "incremental escalation diverged");
        out
    }

    /// A 16-node line, 40 m spacing, range 50 m, R = 2.
    fn line_net() -> Network {
        let positions: Vec<Point2> = (0..16)
            .map(|i| Point2::new(10.0 + 40.0 * i as f64, 10.0))
            .collect();
        Network::from_positions(Field::square(700.0), positions, 50.0, 2)
    }

    /// Hand-built contact structure on the line: node 0 has contact 6
    /// (6 hops), node 6 has contact 12 (6 hops), then the `extra` paths.
    fn line_tables(net: &Network, extra: &[Vec<NodeId>]) -> ContactStore {
        let mut paths: Vec<Vec<NodeId>> = vec![(0..7).map(n).collect(), (6..13).map(n).collect()];
        paths.extend_from_slice(extra);
        ContactStore::from_paths(net.node_count(), &paths)
    }

    fn tables_for_line(net: &Network) -> ContactStore {
        line_tables(net, &[])
    }

    #[test]
    fn own_neighborhood_is_depth_zero_and_free() {
        let net = line_net();
        let tables = tables_for_line(&net);
        let mut st = mk_stats();
        let out = query(&net, &tables, n(0), n(2), 3, &mut st);
        assert!(out.found);
        assert_eq!(out.depth_used, 0);
        assert_eq!(out.total_messages(), 0);
        assert_eq!(st.grand_total(), 0);
    }

    #[test]
    fn depth_one_answers_from_contact_neighborhood() {
        let net = line_net();
        let tables = tables_for_line(&net);
        let mut st = mk_stats();
        // node 7 is 1 hop from contact 6 → in its R=2 neighborhood
        let out = query(&net, &tables, n(0), n(7), 3, &mut st);
        assert!(out.found);
        assert_eq!(out.depth_used, 1);
        assert_eq!(out.query_msgs, 6, "one DSQ along the 6-hop contact path");
        assert_eq!(out.reply_msgs, 6);
        assert_eq!(st.total(MsgKind::Dsq), 6);
        assert_eq!(st.total(MsgKind::DsqReply), 6);
    }

    #[test]
    fn depth_two_reaches_contacts_of_contacts() {
        let net = line_net();
        let tables = tables_for_line(&net);
        let mut st = mk_stats();
        // node 13 is within R=2 of second-level contact 12, but NOT of 6.
        let out = query(&net, &tables, n(0), n(13), 3, &mut st);
        assert!(out.found);
        assert_eq!(out.depth_used, 2);
        // D=1 attempt: 6 msgs (failed). D=2 attempt: 6 (to c1) + 6 (to c2).
        assert_eq!(out.query_msgs, 6 + 12);
        // reply: from node 12 back through the contact chain: 12 hops
        assert_eq!(out.reply_msgs, 12);
    }

    #[test]
    fn miss_beyond_search_horizon() {
        let net = line_net();
        let tables = tables_for_line(&net);
        let mut st = mk_stats();
        // node 15 is 3 hops past contact 12: outside every queried zone
        let out = query(&net, &tables, n(0), n(15), 2, &mut st);
        assert!(!out.found);
        assert_eq!(out.depth_used, 2);
        assert!(out.query_msgs > 0);
        assert_eq!(out.reply_msgs, 0);
    }

    #[test]
    fn deeper_search_finds_what_shallow_missed() {
        let net = line_net();
        let tables = line_tables(&net, &[vec![n(12), n(13), n(14), n(15)]]);
        let mut st = mk_stats();
        let shallow = query(&net, &tables, n(0), n(15), 2, &mut st);
        // n15 IS within R=2 of contact n12's... dist(12,15)=3 > 2, so D=2 misses;
        // at D=3 the level-3 contact n15 sees itself in its own neighborhood.
        assert!(!shallow.found);
        let deep = query(&net, &tables, n(0), n(15), 3, &mut st);
        assert!(deep.found);
        assert_eq!(deep.depth_used, 3);
    }

    #[test]
    fn escalation_accumulates_messages() {
        let net = line_net();
        let tables = tables_for_line(&net);
        let mut st = mk_stats();
        // found at depth 2 → cost includes the failed depth-1 attempt
        let out = query(&net, &tables, n(0), n(13), 2, &mut st);
        // hypothetical: starting directly at D=2 would be cheaper
        let mut direct = 0u64;
        attempt_rewalk(&net, tables.view(), n(0), n(13), 2, &mut direct).unwrap();
        assert!(
            out.query_msgs > direct,
            "escalation must cost more than direct D=2"
        );
    }

    #[test]
    fn no_contacts_means_immediate_miss() {
        let net = line_net();
        let tables = ContactStore::new(net.node_count());
        let mut st = mk_stats();
        let out = query(&net, &tables, n(0), n(9), 3, &mut st);
        assert!(!out.found);
        assert_eq!(out.total_messages(), 0);
    }

    #[test]
    fn contact_cycles_do_not_loop() {
        let net = line_net();
        // 0 -> 6 -> 0 cycle
        let tables = ContactStore::from_paths(
            net.node_count(),
            &[(0..7).map(n).collect(), (0..7).rev().map(n).collect()],
        );
        let mut st = mk_stats();
        let out = query(&net, &tables, n(0), n(15), 3, &mut st);
        assert!(!out.found, "must terminate despite the contact cycle");
    }

    #[test]
    fn scratch_reuse_across_queries_leaks_nothing() {
        // One scratch, many queries in arbitrary order: every outcome must
        // match a fresh-scratch run (epoch stamping isolates queries).
        let net = line_net();
        let tables = tables_for_line(&net);
        let mut shared = QueryScratch::new();
        for target in [7u32, 13, 15, 2, 13, 7, 15] {
            for depth in [1u16, 2, 3] {
                let mut st_a = mk_stats();
                let out = dsq_query(
                    &net,
                    tables.view(),
                    None,
                    n(0),
                    n(target),
                    depth,
                    &mut st_a,
                    SimTime::ZERO,
                    &mut shared,
                );
                let mut st_b = mk_stats();
                let fresh = dsq_query(
                    &net,
                    tables.view(),
                    None,
                    n(0),
                    n(target),
                    depth,
                    &mut st_b,
                    SimTime::ZERO,
                    &mut QueryScratch::new(),
                );
                assert_eq!(out, fresh, "target {target} depth {depth}");
                assert_eq!(st_a.grand_total(), st_b.grand_total());
            }
        }
    }

    #[test]
    fn a_walk_memo_never_outlives_its_view_across_stores() {
        // The same source on one scratch over two stores: under the first,
        // contact 12 holds no contacts, so a memo kept into the second
        // would close level 3 empty and miss target 15.
        let net = line_net();
        let short = tables_for_line(&net);
        let long = line_tables(&net, &[(12..16).map(n).collect()]);
        let mut shared = QueryScratch::new();
        for (tables, found) in [(&short, false), (&long, true), (&short, false)] {
            let ask = |scratch: &mut QueryScratch| {
                let (tables, at) = (tables.view(), SimTime::ZERO);
                dsq_query(
                    &net,
                    tables,
                    None,
                    n(0),
                    n(15),
                    3,
                    &mut mk_stats(),
                    at,
                    scratch,
                )
            };
            let out = ask(&mut shared);
            assert_eq!(out, ask(&mut QueryScratch::new()));
            assert_eq!(out.found, found);
        }
    }

    #[test]
    fn epoch_wraparound_resets_marks() {
        let net = line_net();
        let tables = tables_for_line(&net);
        let mut scratch = QueryScratch::new();
        let mut st = mk_stats();
        let first = dsq_query(
            &net,
            tables.view(),
            None,
            n(0),
            n(13),
            3,
            &mut st,
            SimTime::ZERO,
            &mut scratch,
        );
        // Force the epoch to the wrap point: stale marks must not leak.
        scratch.walk.epoch = u32::MAX;
        let again = dsq_query(
            &net,
            tables.view(),
            None,
            n(0),
            n(13),
            3,
            &mut st,
            SimTime::ZERO,
            &mut scratch,
        );
        assert_eq!(first, again);
    }

    #[test]
    fn zone_epoch_wraparound_resets_stamps() {
        let net = line_net();
        let tables = tables_for_line(&net);
        let mut scratch = QueryScratch::new();
        let mut st = mk_stats();
        let mut ask = |scratch: &mut QueryScratch, target| {
            dsq_query(
                &net,
                tables.view(),
                None,
                n(0),
                n(target),
                2,
                &mut st,
                SimTime::ZERO,
                scratch,
            )
        };
        // Zone epoch 1 stamps zone(13) = {11..15}, contact 12 among them.
        assert!(ask(&mut scratch, 13).found);
        // Force the wrap: the next query runs under epoch 1 again, and
        // zone(15) = {13, 14, 15} excludes 12 — unless the stale stamp of
        // the first query survived and contact 12 "answers" for 15.
        scratch.zone_epoch = u32::MAX;
        assert!(!ask(&mut scratch, 15).found, "stale zone stamp leaked");
        assert_eq!(scratch.zone_epoch, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The stamped predicate equals the pointwise table lookup at every
        /// node (a superset of the contacts any walk or chase can visit),
        /// and the plain and hinted walks built on it equal the pointwise
        /// re-walk — on ONE scratch reused across sources, targets,
        /// radii-sized zones and mobility ticks (tables are rebuilt
        /// incrementally under it; stale stamps must never answer).
        #[test]
        fn prop_stamped_zone_equals_pointwise(
            seed in 0u64..500,
            radius in 1u16..4,
            ticks in 1usize..4,
        ) {
            let nodes = 70;
            let cfg = CardConfig::default()
                .with_radius(radius)
                .with_max_contact_distance(2 * radius + 3)
                .with_target_contacts(3)
                .with_seed(seed);
            let mut world = CardWorld::build(&Scenario::new(nodes, 350.0, 350.0, 60.0), cfg);
            world.set_hints_enabled(true);
            world.select_all_contacts();
            let field = world.network().field();
            let mut model =
                RandomWaypoint::new(nodes, field, 2.0, 12.0, 0.0, RngStream::seed_from_u64(seed));
            let mut rng = RngStream::seed_from_u64(seed ^ 0x2003);
            let mut scratch = QueryScratch::new();
            let (mut st, mut hint_stats, mut deposits) = (mk_stats(), HintStats::default(), DepositLog::new());
            for _ in 0..ticks {
                world.run_mobile(&mut model, SimDuration::from_secs(1));
                let pairs: Vec<(NodeId, NodeId)> = (0..60)
                    .map(|_| (NodeId::from(rng.index(nodes)), NodeId::from(rng.index(nodes))))
                    .collect();
                world.query_all(&pairs); // warm the hint tables the chases read
                let (net, tables) = (world.network(), world.contact_tables());
                let store = world.hint_store().expect("hints are on");
                for &(source, target) in &pairs {
                    {
                        let (_, answers) = target_zone(net, &mut scratch, target, any_edge);
                        for node in NodeId::all(nodes) {
                            prop_assert_eq!(
                                answers(node),
                                net.tables().of(node).contains(target),
                                "zone stamp of {} at {}", target, node
                            );
                        }
                    }
                    let oracle = dsq_query_rewalk(net, tables, source, target, 3, &mut st, SimTime::ZERO);
                    let plain =
                        dsq_query(net, tables, None, source, target, 3, &mut st, SimTime::ZERO, &mut scratch);
                    prop_assert_eq!(&plain, &oracle, "plain walk {} -> {}", source, target);
                    // The hinted walk resumes the plain walk's memo (same
                    // source, same view), and equals one on a fresh scratch.
                    let mut ctx = HintContext { store, stats: &mut hint_stats, deposits: &mut deposits };
                    ctx.deposits.clear();
                    let hinted = dsq_walk(
                        net, tables, &mut ctx, source, target, 3, &mut scratch, any_edge,
                    );
                    prop_assert_eq!(hinted.found, oracle.found, "hinted walk {} -> {}", source, target);
                    let resumed = deposits.runs().to_vec();
                    let mut ctx = HintContext { store, stats: &mut hint_stats, deposits: &mut deposits };
                    ctx.deposits.clear();
                    let fresh = dsq_walk(
                        net, tables, &mut ctx, source, target, 3, &mut QueryScratch::new(), any_edge,
                    );
                    prop_assert_eq!(&hinted, &fresh, "resumed hinted walk {} -> {}", source, target);
                    prop_assert_eq!(deposits.runs(), &resumed[..]);
                }
            }
        }
    }

    /// The plain unrecorded walk from node 0 under `filter`'s edge veto.
    fn walk_under(
        net: &Network,
        tables: &ContactStore,
        target: NodeId,
        filter: QueryFaultFilter<'_>,
    ) -> QueryOutcome {
        dsq_walk(
            net,
            tables.view(),
            &mut HintContext::off(&mut HintStats::default(), &mut DepositLog::new()),
            n(0),
            target,
            3,
            &mut QueryScratch::new(),
            |a, b| filter.edge_ok(a, b),
        )
    }

    #[test]
    fn crashed_relay_blocks_the_walk_through_it() {
        let net = line_net();
        let tables = tables_for_line(&net);
        // Depth-2 answers for target 13 route through contact 6; with 6
        // down the walk must miss instead of relaying through a corpse.
        let mut down = vec![false; net.node_count()];
        down[6] = true;
        let filter = QueryFaultFilter {
            down: &down,
            sides: None,
        };
        let out = walk_under(&net, &tables, n(13), filter);
        assert!(!out.found);
        assert_eq!(out.query_msgs, 0, "no probe is sent to a known-dead relay");
    }

    #[test]
    fn partition_blocks_answers_across_the_cut() {
        let net = line_net();
        let tables = tables_for_line(&net);
        let down = vec![false; net.node_count()];
        // Cut between node 9 and 10: source side 0, far side 1.
        let sides: Vec<u8> = (0..net.node_count()).map(|i| (i >= 10) as u8).collect();
        let filter = QueryFaultFilter {
            down: &down,
            sides: Some(&sides),
        };
        // Target 13 lives across the cut: depth-2 contact 12 is vetoed.
        let out = walk_under(&net, &tables, n(13), filter);
        assert!(!out.found);
        // Target 7 is on the source side and still resolves.
        let out = walk_under(&net, &tables, n(7), filter);
        assert!(out.found);
        assert_eq!(out.depth_used, 1);
    }

    #[test]
    fn retry_queue_backs_off_and_caps() {
        let mut q = QueryRetryQueue::new(2);
        let mut due = Vec::new();
        q.schedule(n(1), n(2));
        q.schedule(n(1), n(2)); // dedup: one outstanding entry per pair
        assert_eq!(q.len(), 1);
        assert_eq!(q.stats().scheduled, 1);
        q.tick(&mut due);
        assert_eq!(due, vec![(n(1), n(2), 1)]);
        // First retry misses: re-queued with wait 2.
        q.report(n(1), n(2), 1, false);
        q.tick(&mut due);
        assert!(due.is_empty(), "backoff wait of 2 rounds");
        q.tick(&mut due);
        assert_eq!(due, vec![(n(1), n(2), 2)]);
        // Second retry misses at the cap: abandoned.
        q.report(n(1), n(2), 2, false);
        assert!(q.is_empty());
        let st = q.stats().clone();
        assert_eq!((st.retried, st.recovered, st.abandoned), (2, 0, 1));
        // A recovery counts and does not re-queue.
        q.schedule(n(3), n(4));
        q.tick(&mut due);
        q.report(n(3), n(4), 1, true);
        assert!(q.is_empty());
        assert_eq!(q.stats().recovered, 1);
    }

    #[test]
    fn incremental_matches_rewalk_per_depth_on_deep_chains() {
        // A longer contact chain with branching: per-depth outcomes and
        // message totals must agree with the re-walk at every max_depth.
        let net = line_net();
        let tables = line_tables(&net, &[(12..16).map(n).collect(), (0..10).map(n).collect()]);
        let mut scratch = QueryScratch::new();
        for target in 0..16u32 {
            for max_depth in 1..=4u16 {
                let mut st_inc = mk_stats();
                let inc = dsq_query(
                    &net,
                    tables.view(),
                    None,
                    n(0),
                    n(target),
                    max_depth,
                    &mut st_inc,
                    SimTime::ZERO,
                    &mut scratch,
                );
                let mut st_ref = mk_stats();
                let reference = dsq_query_rewalk(
                    &net,
                    tables.view(),
                    n(0),
                    n(target),
                    max_depth,
                    &mut st_ref,
                    SimTime::ZERO,
                );
                assert_eq!(inc, reference, "target {target} depth {max_depth}");
                assert_eq!(
                    st_inc.series_where(|_| true),
                    st_ref.series_where(|_| true),
                    "stats series diverged for target {target} depth {max_depth}"
                );
            }
        }
    }
}
