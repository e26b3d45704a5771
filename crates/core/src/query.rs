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
//! * [`QueryScratch`] is an epoch-stamped workspace (mirroring
//!   `net_topology::bfs::BfsScratch`; "State layout" below), so starting a
//!   new walk is O(1) and allocation-free once its buffers have grown to
//!   the network size. [`dsq_query`], [`crate::resources::resource_query`]
//!   and [`crate::reachability::reachability_set`] all run on the same
//!   generic level-synchronous contact walker
//!   (`WalkScratch::advance_level`), differing only in their per-contact
//!   visit closure.
//! * There is **one walk, calm or faulted**. Every function on the path
//!   takes an *edge veto* `edge_ok(holder, contact)` as a generic,
//!   statically dispatched parameter: a vetoed contact edge is neither
//!   traversed, marked nor charged. The calm instantiation is the named
//!   pass-all `any_edge` (which compiles to the unconditional walk); a
//!   world with an armed fault plan passes [`QueryFaultFilter::edge_ok`],
//!   so crashed relays and edges across an open partition drop out of the
//!   walk, the hint chase and the answer predicate alike.
//! * Escalation is **incremental**: on the wire, a depth-d attempt re-sends
//!   DSQs along levels 1‥d−1 before probing level d, but the simulator need
//!   not re-traverse them — the scratch caches the deepest frontier and the
//!   cumulative per-level message cost (`WalkScratch::walked_msgs`), so
//!   depth d only walks its final level while the *accounting* stays
//!   bit-identical to the from-scratch re-walk. [`dsq_query_rewalk`] keeps
//!   the literal per-depth re-walk as the equivalence reference (pinned by
//!   `tests/query_engine.rs` and the `dsq_query/*` benches).
//! * Batched sweeps (`CardWorld::query_all`) fan pair lists out over
//!   protocol shards with shard-owned scratches; queries draw no
//!   randomness, so outcomes are a pure function of `(network, tables,
//!   fault view, pair)` and the sweep is bit-identical to its serial
//!   reference at any worker or shard count.
//!
//! ## State layout
//!
//! A contact answers from its own table for zero messages, so the host
//! cost per visited contact is memory traffic. [`QueryScratch`] makes it
//! two array reads:
//!
//! * **Marks and parents** (`WalkScratch`): `mark[v] == epoch` is "seen
//!   this walk" and validates `parent[v]`, the frontier node that found
//!   `v`. A fresh epoch per walk; zeroed once per `u32` wrap.
//! * **Zone stamps**, one `u32` per node. Zone membership is symmetric
//!   (hop distance on an undirected graph, all tables built from one
//!   adjacency snapshot; proptested in `manet_routing::network`), so
//!   "target ∈ zone(c)" is "c ∈ zone(target)": `target_zone` stamps the
//!   target's ~24 members once per node query, under its own epoch, and
//!   the depth-0 shortcut, the answer predicate and every hint-chase step
//!   read `zone[c] == zone_epoch` where they used to fetch up to 84
//!   different `Neighborhood`s and Bloom-probe each (D = 3, NoC = 4).
//!   Grown on first use, so target-less walks never pay for it. The
//!   pointwise lookup stays the spec: asserted on every evaluation in
//!   debug builds, and all [`dsq_query_rewalk`] uses. Resource goals keep
//!   it (a replica set's zones can outnumber the walk).
//! * **Frontiers and the answer chain**: plain reused buffers.

use manet_routing::network::Network;
use net_topology::node::NodeId;
use sim_core::stats::{MsgKind, MsgStats};
use sim_core::time::SimTime;

use crate::contact::TableSource;
use crate::hints::{DepositLog, HintDeposit, HintKey, HintLookup, HintStats, HintStore, Lookup};

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

/// Reusable query workspace: the contact-graph walk state plus the
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

    /// A workspace whose walk arrays are pre-sized for networks of `n`
    /// nodes (the zone stamps stay lazy: target-less walks never use them).
    pub fn with_capacity(n: usize) -> Self {
        let mut s = Self::default();
        s.walk.mark.resize(n, 0);
        s.walk.parent.resize(n, NodeId::new(u32::MAX));
        s
    }
}

/// The walk half of a [`QueryScratch`]: epoch-stamped *seen* marks, frontier
/// buffers and the incremental-escalation cache (cumulative walk cost).
#[derive(Clone, Debug, Default)]
pub(crate) struct WalkScratch {
    /// Epoch stamp per node; `mark[v] == epoch` means seen this query.
    mark: Vec<u32>,
    /// Current epoch (bumped per query; marks are only valid against it).
    epoch: u32,
    /// Contacts of the deepest completed level, with accumulated hop
    /// distance from the source along contact paths. (Level 0 holds the
    /// source itself at distance 0.)
    frontier: Vec<(NodeId, u64)>,
    /// Next-level staging buffer (swapped with `frontier` per level).
    next: Vec<(NodeId, u64)>,
    /// Cumulative DSQ messages of all *completed* levels — what a
    /// from-scratch re-walk of those levels would charge (see
    /// [`WalkScratch::walked_msgs`]).
    walked: u64,
    /// BFS parent per node (valid only where `mark[v] == epoch`): the
    /// frontier node whose contact link discovered `v`. Lets a resolved
    /// query reconstruct the source → answer contact chain so route hints
    /// can be deposited along it (§V; see [`crate::hints`]).
    parent: Vec<NodeId>,
    /// The contact whose visit ended the current walk (see
    /// [`WalkScratch::answerer`]).
    hit: Option<NodeId>,
    /// The answer chain of the last [`WalkScratch::walk_path`].
    path: Vec<NodeId>,
}

impl WalkScratch {
    /// Open a new walk from `source` over a network of `n` nodes: bump the
    /// epoch (recycling the mark array without clearing it) and reset the
    /// frontier to the source. O(1) amortized.
    pub(crate) fn begin(&mut self, n: usize, source: NodeId) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        if self.parent.len() < n {
            self.parent.resize(n, NodeId::new(u32::MAX));
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch counter wrapped: invalidate every stale mark once.
            self.mark.fill(0);
            self.epoch = 1;
        }
        self.frontier.clear();
        self.next.clear();
        self.mark[source.index()] = self.epoch;
        self.parent[source.index()] = source; // chain terminator
        self.frontier.push((source, 0));
        self.walked = 0;
        self.hit = None;
    }

    /// DSQ messages a from-scratch walk of every completed level would
    /// cost — the incremental escalation charges this instead of
    /// re-traversing (escalation re-sends queries on the wire; the message
    /// count is real even though the simulator walks each level once).
    pub(crate) fn walked_msgs(&self) -> u64 {
        self.walked
    }

    /// Advance the walk by one level: consume every not-yet-seen contact of
    /// the current frontier (each contact at its *minimal* level — loop
    /// prevention via the epoch marks, matching §III.C.4's query IDs),
    /// charging its path hops to `msgs` and calling
    /// `visit(contact, hops from source)`. A contact edge
    /// `(holder, contact)` vetoed by `edge_ok` is neither traversed, marked
    /// nor charged — the holder learned from its failed validation that the
    /// relay is gone, so no probe is emitted — and the contact stays
    /// discoverable through a different (allowed) edge at this or a deeper
    /// level. A `Some` from `visit` aborts the walk immediately (the query
    /// was answered; the scratch is left mid-level and must be
    /// re-`begin`ed). Otherwise the discovered contacts become the new
    /// frontier and the level's cost is added to
    /// [`WalkScratch::walked_msgs`].
    pub(crate) fn advance_level<R, T: TableSource + ?Sized>(
        &mut self,
        contact_tables: &T,
        msgs: &mut u64,
        edge_ok: impl Fn(NodeId, NodeId) -> bool,
        mut visit: impl FnMut(NodeId, u64) -> Option<R>,
    ) -> Option<R> {
        self.next.clear();
        let epoch = self.epoch;
        let mut level_msgs = 0u64;
        for fi in 0..self.frontier.len() {
            let (node, dist) = self.frontier[fi];
            for contact in contact_tables.table(node.index()).contacts() {
                let c = contact.id;
                if self.mark[c.index()] == epoch || !edge_ok(node, c) {
                    continue;
                }
                self.mark[c.index()] = epoch;
                self.parent[c.index()] = node;
                let hops = contact.hops() as u64;
                let at_contact = dist + hops;
                *msgs += hops;
                level_msgs += hops;
                if let Some(r) = visit(c, at_contact) {
                    self.hit = Some(c);
                    return Some(r);
                }
                self.next.push((c, at_contact));
            }
        }
        std::mem::swap(&mut self.frontier, &mut self.next);
        self.walked += level_msgs;
        None
    }

    /// No contact remains to expand (deeper levels cannot discover — or
    /// charge — anything).
    pub(crate) fn exhausted(&self) -> bool {
        self.frontier.is_empty()
    }

    /// The contact whose visit ended the current walk — for a plain
    /// escalation, the node that answered. `None` until a walk resolves.
    pub(crate) fn answerer(&self) -> Option<NodeId> {
        self.hit
    }

    /// The contact chain source → `node` recorded by the current walk's
    /// parent pointers, source-first, in the scratch-owned chain buffer.
    /// `node` must have been visited in the current epoch (parents of
    /// unvisited nodes are stale).
    pub(crate) fn walk_path(&mut self, node: NodeId) -> &mut Vec<NodeId> {
        self.path.clear();
        let mut cur = node;
        loop {
            self.path.push(cur);
            let p = self.parent[cur.index()];
            if p == cur {
                break;
            }
            cur = p;
        }
        self.path.reverse();
        &mut self.path
    }
}

/// The plain escalation driver, *without* statistics recording: walk
/// depths 1‥`max_depth` under the edge veto, each depth charging the full
/// re-walk cost of the levels below it ([`WalkScratch::walked_msgs`]) and
/// then traversing only its final level, where `answers(contact)` is the
/// neighborhood-table lookup (callers fold any target-side fault check
/// into it). Message totals and outcomes are bit-identical to the
/// per-depth re-walk ([`dsq_query_rewalk`]). Batched sweeps record
/// per-shard message *totals* once — identical buckets, since every query
/// of a sweep lands at the same instant and zero counts never record.
pub(crate) fn escalate_unrecorded<T: TableSource>(
    n: usize,
    contact_tables: T,
    source: NodeId,
    max_depth: u16,
    scratch: &mut WalkScratch,
    edge_ok: impl Fn(NodeId, NodeId) -> bool + Copy,
    mut answers: impl FnMut(NodeId) -> bool,
) -> QueryOutcome {
    scratch.begin(n, source);
    let mut query_msgs = 0u64;
    for depth in 1..=max_depth {
        // The wire cost of re-sending the query along levels 1..depth-1.
        query_msgs += scratch.walked_msgs();
        let reply = scratch.advance_level(
            &contact_tables,
            &mut query_msgs,
            edge_ok,
            |c, at_contact| answers(c).then_some(at_contact),
        );
        if let Some(reply) = reply {
            return QueryOutcome {
                found: true,
                depth_used: depth,
                query_msgs,
                reply_msgs: reply,
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

/// [`dsq_query`] without statistics recording and under an edge veto — the
/// per-pair body of `CardWorld`'s single queries and batched sweep (which
/// accounts its shard's message totals in bulk) on a world without the §V
/// cache: answer from the source's own zone for free, else escalate
/// ([`escalate_unrecorded`]). A zone answers only if it can actually reach
/// the target: the depth-0 shortcut and the answer predicate are the one
/// [`target_zone`] closure.
///
/// The hinted twin below is a separate function, not an `Option` argument
/// of this one: folding both escalations into one body cost the plain
/// sweep 4–7% of its throughput (`card_bench`, `query_escalate`).
pub(crate) fn dsq_query_unrecorded<T: TableSource>(
    net: &Network,
    contact_tables: T,
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
    escalate_unrecorded(
        net.node_count(),
        contact_tables,
        source,
        max_depth,
        walk,
        edge_ok,
        answers,
    )
}

/// Run a full CARD query from `source` for `target`, escalating the depth
/// of search from 1 to `max_depth` (§III.C.4). Messages are recorded into
/// `stats` at time `at`; the walk runs allocation-free on `scratch`
/// (escalation is incremental — see the module docs).
///
/// With `hints`, the §V route-hint cache is consulted first and hint
/// deposits are queued on resolution (see [`HintContext`] and
/// [`crate::hints`]): `found` and `depth_used` match the plain query; only
/// the message cost differs. The two cases run separate node bodies
/// (`dsq_query_unrecorded` and `dsq_query_hinted_unrecorded`).
#[allow(clippy::too_many_arguments)] // mirrors the protocol message fields
pub fn dsq_query<T: TableSource>(
    net: &Network,
    contact_tables: T,
    hints: Option<&mut HintContext<'_>>,
    source: NodeId,
    target: NodeId,
    max_depth: u16,
    stats: &mut MsgStats,
    at: SimTime,
    scratch: &mut QueryScratch,
) -> QueryOutcome {
    let out = match hints {
        Some(ctx) => dsq_query_hinted_unrecorded(
            net,
            contact_tables,
            ctx,
            source,
            target,
            max_depth,
            scratch,
            any_edge,
        ),
        None => dsq_query_unrecorded(
            net,
            contact_tables,
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
// Hinted queries — the §V route-hint short-cut (see `crate::hints`).
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
/// not applied — `CardWorld` applies them in shard order after the sweep
/// (or immediately after a single live query), which keeps hinted sweeps
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

/// Outcome of one directed probe down a hint chain.
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
/// contact against the holder's *live* contact table and the edge veto — a
/// departed contact, a crashed relay or a next hop beyond the partition
/// cut is a `stale_contact` miss, never a forward (the caller's walk takes
/// over) — so a probe can only reach nodes the plain escalation could
/// also reach, only cheaper. The chain walked is left in `chain[..=steps]`.
#[allow(clippy::too_many_arguments)] // mirrors the protocol message fields
fn chase<T: TableSource + ?Sized, S: HintLookup + ?Sized>(
    contact_tables: &T,
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
        let Some(contact) = contact_tables
            .table(node.index())
            .get(hint.next_hop)
            .filter(|_| edge_ok(node, hint.next_hop))
        else {
            stats.stale_contact += 1;
            break;
        };
        stats.hits += 1;
        let hops = contact.hops() as u64;
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

/// A walk-level hit of the hinted escalation.
enum HintedHit {
    /// The plain level walk answered at `answer`.
    Walk { answer: NodeId, reply: u64 },
    /// A relay's hint chain answered: `steps` probe hops past `relay`.
    Chase {
        relay: NodeId,
        steps: usize,
        reply: u64,
    },
}

/// The hinted escalation driver: try a directed probe from the source's
/// own hints first; on miss, fall back to the standard incremental
/// escalation ([`escalate_unrecorded`]), peeking at each visited relay's
/// hints along the way (a fresh relay hint forks a bounded probe for the
/// remaining depth). The source probe, every relay probe and the fallback
/// walk share one edge veto, so a cached hint pointing at a dead relay
/// degrades into a `stale_contact` miss and the (vetoed) walk takes over.
/// Either way the answer predicate is always verified against live state,
/// so *outcomes* match the plain escalation exactly — hints change message
/// cost, never answers: any node a probe can reach lies ≤ `max_depth`
/// allowed contact-edges from the source (probes follow contact-table
/// edges, the same relation the walk expands, and the walk visits every
/// such node at its minimal level), and a probe miss falls back to the
/// full walk. Resolved queries queue §V hint deposits along the entire
/// source → answer chain.
#[allow(clippy::too_many_arguments)] // mirrors the protocol message fields
pub(crate) fn escalate_hinted_unrecorded<T: TableSource, S: HintLookup>(
    n: usize,
    contact_tables: T,
    ctx: &mut HintContext<'_, S>,
    key: HintKey,
    source: NodeId,
    max_depth: u16,
    scratch: &mut WalkScratch,
    edge_ok: impl Fn(NodeId, NodeId) -> bool + Copy,
    mut answers: impl FnMut(NodeId) -> bool,
) -> QueryOutcome {
    // Source-side probe: a fresh chain answers for probe messages alone.
    let mut src_chain = [source; MAX_CHAIN];
    let src = chase(
        &contact_tables,
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
    let mut failed_chases: u32 = (src.steps > 0) as u32;

    // Fallback: the incremental escalation, consulting relay hints on the
    // way. Failed probes cost their messages and the walk continues
    // unchanged; the escalation itself is the one `escalate_unrecorded`
    // runs (same order, same marks), so discovery is identical.
    scratch.begin(n, source);
    let mut query_msgs = src.probe_msgs;
    let mut chase_chain = [source; MAX_CHAIN];
    for depth in 1..=max_depth {
        query_msgs += scratch.walked_msgs();
        let mut probe_spent = 0u64;
        let hit = {
            let tables = &contact_tables;
            let stats = &mut *ctx.stats;
            let store = &ctx.store;
            let failed = &mut failed_chases;
            let probe = &mut probe_spent;
            let chain = &mut chase_chain;
            let ans = &mut answers;
            scratch.advance_level(tables, &mut query_msgs, edge_ok, |c, at_contact| {
                if ans(c) {
                    return Some(HintedHit::Walk {
                        answer: c,
                        reply: at_contact,
                    });
                }
                if depth < max_depth && *failed < MAX_FAILED_CHASES {
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
                            relay: c,
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
                HintedHit::Walk { answer, reply } => {
                    push_chain_deposits(ctx.deposits, key, scratch.walk_path(answer));
                    QueryOutcome {
                        found: true,
                        depth_used: depth,
                        query_msgs,
                        reply_msgs: reply,
                    }
                }
                HintedHit::Chase {
                    relay,
                    steps,
                    reply,
                } => {
                    let path = scratch.walk_path(relay);
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

/// [`dsq_query_unrecorded`] through the §V route-hint cache
/// ([`escalate_hinted_unrecorded`]): same zone shortcut, same answer
/// predicate, same edge veto.
#[allow(clippy::too_many_arguments)] // mirrors the protocol message fields
pub(crate) fn dsq_query_hinted_unrecorded<T: TableSource, S: HintLookup>(
    net: &Network,
    contact_tables: T,
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
    escalate_hinted_unrecorded(
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
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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

#[derive(Clone, Debug)]
struct RetryEntry {
    source: NodeId,
    target: NodeId,
    attempt: u32,
    wait: u32,
}

/// Retry queue for queries that failed under faults (frontier partitioned
/// away, relays crashed): each failed query re-runs after an exponentially
/// growing number of validation rounds (1, 2, 4, … capped at 8) until it
/// resolves or `cap` attempts are spent. Draining is driven by the
/// validation-round lattice, so retry timing — like everything else in the
/// fault plane — is identical between tick and event drivers and across
/// shard counts.
#[derive(Clone, Debug)]
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
            attempt: 1,
            wait: 1,
        });
    }

    /// Advance one validation round: every entry's wait decreases by one
    /// and the now-due entries are moved into `due` (insertion order) as
    /// `(source, target, attempt)`. The caller re-runs each and feeds the
    /// outcome back through [`report`](Self::report).
    pub fn tick(&mut self, due: &mut Vec<(NodeId, NodeId, u32)>) {
        due.clear();
        let mut i = 0;
        while i < self.entries.len() {
            self.entries[i].wait -= 1;
            if self.entries[i].wait == 0 {
                let e = self.entries.remove(i);
                due.push((e.source, e.target, e.attempt));
            } else {
                i += 1;
            }
        }
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
                attempt: attempt + 1,
                wait: 1 << attempt.min(3),
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
fn attempt_rewalk<T: TableSource + ?Sized>(
    net: &Network,
    contact_tables: &T,
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
/// *and* message accounting). Kept, like `Network::refresh_full` and the
/// `CardWorld::*_serial` sweeps, as the equivalence anchor for tests
/// (`tests/query_engine.rs`) and the `dsq_query/*` benches.
pub fn dsq_query_rewalk<T: TableSource>(
    net: &Network,
    contact_tables: T,
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
            attempt_rewalk(net, &contact_tables, source, target, depth, &mut query_msgs)
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
    use crate::contact::{Contact, ContactTable};
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
        tables: &[ContactTable],
        source: NodeId,
        target: NodeId,
        max_depth: u16,
        st: &mut MsgStats,
    ) -> QueryOutcome {
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

    /// Hand-built contact structure on the line:
    /// node 0 has contact 6 (6 hops), node 6 has contact 12 (6 hops).
    fn tables_for_line(net: &Network) -> Vec<ContactTable> {
        let mut tables: Vec<ContactTable> =
            (0..net.node_count()).map(|_| ContactTable::new()).collect();
        tables[0].add(Contact::new(n(6), (0..7).map(n).collect()));
        tables[6].add(Contact::new(n(12), (6..13).map(n).collect()));
        tables
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
        let mut tables = tables_for_line(&net);
        tables[12].add(Contact::new(n(15), vec![n(12), n(13), n(14), n(15)]));
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
        attempt_rewalk(&net, &tables, n(0), n(13), 2, &mut direct).unwrap();
        assert!(
            out.query_msgs > direct,
            "escalation must cost more than direct D=2"
        );
    }

    #[test]
    fn no_contacts_means_immediate_miss() {
        let net = line_net();
        let tables: Vec<ContactTable> =
            (0..net.node_count()).map(|_| ContactTable::new()).collect();
        let mut st = mk_stats();
        let out = query(&net, &tables, n(0), n(9), 3, &mut st);
        assert!(!out.found);
        assert_eq!(out.total_messages(), 0);
    }

    #[test]
    fn contact_cycles_do_not_loop() {
        let net = line_net();
        let mut tables: Vec<ContactTable> =
            (0..net.node_count()).map(|_| ContactTable::new()).collect();
        // 0 -> 6 -> 0 cycle
        tables[0].add(Contact::new(n(6), (0..7).map(n).collect()));
        tables[6].add(Contact::new(n(0), (0..7).rev().map(n).collect()));
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
                    &tables,
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
                    &tables,
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
    fn epoch_wraparound_resets_marks() {
        let net = line_net();
        let tables = tables_for_line(&net);
        let mut scratch = QueryScratch::new();
        let mut st = mk_stats();
        let first = dsq_query(
            &net,
            &tables,
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
            &tables,
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
                &tables,
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
                    let mut ctx = HintContext { store, stats: &mut hint_stats, deposits: &mut deposits };
                    let hinted = dsq_query_hinted_unrecorded(
                        net, tables, &mut ctx, source, target, 3, &mut scratch, any_edge,
                    );
                    prop_assert_eq!(hinted.found, oracle.found, "hinted walk {} -> {}", source, target);
                }
            }
        }
    }

    /// The plain unrecorded walk from node 0 under `filter`'s edge veto.
    fn walk_under(
        net: &Network,
        tables: &[ContactTable],
        target: NodeId,
        filter: QueryFaultFilter<'_>,
    ) -> QueryOutcome {
        dsq_query_unrecorded(
            net,
            tables,
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
        let mut tables = tables_for_line(&net);
        tables[12].add(Contact::new(n(15), (12..16).map(n).collect()));
        tables[0].add(Contact::new(n(9), (0..10).map(n).collect()));
        let mut scratch = QueryScratch::new();
        for target in 0..16u32 {
            for max_depth in 1..=4u16 {
                let mut st_inc = mk_stats();
                let inc = dsq_query(
                    &net,
                    &tables,
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
                    &tables,
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
