//! Standing queries — long-lived resource subscriptions.
//!
//! A standing query is a `(source, target)` subscription registered once
//! and kept *resolved* for the rest of the run: the source holds a contact
//! chain `source → c₁ → … → cₖ` with the target inside `cₖ`'s
//! neighborhood (`k = 0` when the target sits inside the source's own
//! neighborhood). Instead of re-running the full DSQ escalation every time
//! the subscription is consulted, the chain is *revalidated incrementally*:
//!
//! * a mobility refresh marks exactly the standing queries whose chain (or
//!   target) intersects the refresh's dirty set — untouched chains cost
//!   nothing;
//! * a validation round marks every query (contact tables may have been
//!   rewritten wholesale by maintenance and re-selection);
//! * a marked, resolved query is probed along its chain
//!   ([`sim_core::stats::MsgKind::StandingProbe`] messages, one per
//!   contact-path hop); a probe failure *breaks* the query, which is
//!   immediately re-resolved with a fresh escalation
//!   ([`sim_core::stats::MsgKind::StandingDsq`] /
//!   [`sim_core::stats::MsgKind::StandingReply`]). A failed re-resolve
//!   leaves the query broken; it retries at the next validation round.
//!
//! [`StandingStats`] accounts the lifecycle — including total virtual time
//! spent broken, the re-resolve latency the paper-style evaluation reads
//! out. This module owns the pure bookkeeping (table, per-node path index,
//! mark/drain machinery); resolution and probing live on
//! [`crate::world::CardWorld`], which owns the network and message
//! statistics.

use net_topology::node::NodeId;
use sim_core::time::SimTime;

/// Lifecycle state of a standing query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StandingState {
    /// The cached chain was valid when last checked.
    Resolved,
    /// No valid chain is held; re-resolution is pending.
    Broken,
}

/// One standing subscription and its cached answer chain.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StandingQuery {
    /// The subscribing node.
    pub source: NodeId,
    /// The node the subscription tracks.
    pub target: NodeId,
    /// Source-first contact chain; `[source]` alone when the target lies in
    /// the source's own neighborhood. Empty while broken.
    pub path: Vec<NodeId>,
    /// Current lifecycle state.
    pub state: StandingState,
    /// When the query last entered [`StandingState::Broken`] (registration
    /// counts: a query is born broken and resolves immediately).
    pub broken_since: SimTime,
}

impl StandingQuery {
    /// Is the cached chain currently valid?
    pub fn is_resolved(&self) -> bool {
        self.state == StandingState::Resolved
    }
}

/// Lifecycle counters of the standing-query subsystem.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct StandingStats {
    /// Subscriptions registered.
    pub registered: u64,
    /// Successful initial resolutions.
    pub resolved: u64,
    /// Successful re-resolutions after a break.
    pub reresolved: u64,
    /// Resolution attempts (initial or re-) that found no chain.
    pub resolve_failures: u64,
    /// Probe failures that broke a resolved chain.
    pub breaks: u64,
    /// Marked queries examined by revalidation passes.
    pub revalidations: u64,
    /// Total virtual µs subscriptions spent broken (break → re-resolve).
    pub broken_ticks: u64,
}

/// The standing-query table: queries, the node → query path index, and the
/// pending-revalidation marks.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct StandingQueries {
    queries: Vec<StandingQuery>,
    /// `path_index[node]` lists the ids of resolved queries whose chain
    /// (or target) includes `node` — the set a dirty `node` invalidates.
    path_index: Vec<Vec<u32>>,
    /// Pending-revalidation flag per query id.
    marked: Vec<bool>,
    /// How many `marked` entries are set (fast emptiness check).
    mark_count: usize,
    stats: StandingStats,
}

impl StandingQueries {
    /// An empty table over a network of `n` nodes.
    pub fn new(n: usize) -> Self {
        StandingQueries {
            path_index: vec![Vec::new(); n],
            ..Self::default()
        }
    }

    /// Number of registered standing queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// All queries, indexed by id.
    pub fn queries(&self) -> &[StandingQuery] {
        &self.queries
    }

    /// One query by id.
    pub fn get(&self, id: u32) -> &StandingQuery {
        &self.queries[id as usize]
    }

    /// Lifecycle counters.
    pub fn stats(&self) -> &StandingStats {
        &self.stats
    }

    /// Create a new (broken, empty-chain) query and return its id. The
    /// caller resolves it and installs the chain via
    /// [`StandingQueries::set_resolved`].
    pub(crate) fn register(&mut self, source: NodeId, target: NodeId, now: SimTime) -> u32 {
        let id = self.queries.len() as u32;
        self.queries.push(StandingQuery {
            source,
            target,
            path: Vec::new(),
            state: StandingState::Broken,
            broken_since: now,
        });
        self.marked.push(false);
        self.stats.registered += 1;
        id
    }

    /// Install a freshly resolved chain: index it, flip the state, account
    /// the resolve (and the broken interval, for re-resolves).
    pub(crate) fn set_resolved(&mut self, id: u32, path: &[NodeId], now: SimTime, initial: bool) {
        debug_assert!(
            !path.is_empty(),
            "a resolved chain holds at least the source"
        );
        let q = &mut self.queries[id as usize];
        debug_assert_eq!(q.state, StandingState::Broken, "resolve of a live chain");
        for &node in path {
            self.path_index[node.index()].push(id);
        }
        if !path.contains(&q.target) {
            self.path_index[q.target.index()].push(id);
        }
        debug_assert!(q.path.is_empty(), "a broken query holds no chain");
        q.path.extend_from_slice(path); // into the broken chain's buffer
        q.state = StandingState::Resolved;
        if initial {
            self.stats.resolved += 1;
        } else {
            self.stats.reresolved += 1;
        }
        self.stats.broken_ticks += now.since(q.broken_since).ticks();
    }

    /// Account a resolution attempt that found no chain; the query stays
    /// broken and retries at the next validation round.
    pub(crate) fn set_failed(&mut self, _id: u32) {
        self.stats.resolve_failures += 1;
    }

    /// A probe failed: drop the chain from the index, flip to broken, and
    /// start the broken clock.
    pub(crate) fn record_break(&mut self, id: u32, now: SimTime) {
        let q = &mut self.queries[id as usize];
        debug_assert_eq!(q.state, StandingState::Resolved, "break of a broken chain");
        for &node in &q.path {
            self.path_index[node.index()].retain(|&qid| qid != id);
        }
        if !q.path.contains(&q.target) {
            self.path_index[q.target.index()].retain(|&qid| qid != id);
        }
        q.path.clear();
        q.state = StandingState::Broken;
        q.broken_since = now;
        self.stats.breaks += 1;
    }

    /// Mark every query whose indexed chain touches `node`.
    pub(crate) fn mark_node_dirty(&mut self, node: NodeId) {
        for &id in &self.path_index[node.index()] {
            if !self.marked[id as usize] {
                self.marked[id as usize] = true;
                self.mark_count += 1;
            }
        }
    }

    /// Mark every query (broken ones included — validation rounds are the
    /// retry heartbeat of failed re-resolves).
    pub(crate) fn mark_all(&mut self) {
        for m in &mut self.marked {
            *m = true;
        }
        self.mark_count = self.marked.len();
    }

    /// Any marks pending?
    pub(crate) fn has_marks(&self) -> bool {
        self.mark_count > 0
    }

    /// Drain the pending marks into `out`, ascending by id.
    pub(crate) fn take_marked(&mut self, out: &mut Vec<u32>) {
        out.clear();
        if self.mark_count == 0 {
            return;
        }
        for (id, m) in self.marked.iter_mut().enumerate() {
            if *m {
                *m = false;
                out.push(id as u32);
            }
        }
        self.mark_count = 0;
    }

    /// Account one revalidation examination.
    pub(crate) fn note_revalidation(&mut self) {
        self.stats.revalidations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from(i)
    }

    #[test]
    fn register_resolve_break_cycle() {
        let mut sq = StandingQueries::new(10);
        assert!(sq.is_empty());
        let id = sq.register(n(0), n(5), SimTime::from_secs(1));
        assert_eq!(sq.len(), 1);
        assert!(!sq.get(id).is_resolved());
        sq.set_resolved(id, &[n(0), n(3)], SimTime::from_secs(2), true);
        assert!(sq.get(id).is_resolved());
        assert_eq!(sq.get(id).path, vec![n(0), n(3)]);
        assert_eq!(sq.stats().resolved, 1);
        assert_eq!(sq.stats().broken_ticks, 1_000_000);
        // chain nodes and the target are indexed
        sq.mark_node_dirty(n(3));
        assert!(sq.has_marks());
        let mut ids = Vec::new();
        sq.take_marked(&mut ids);
        assert_eq!(ids, vec![id]);
        assert!(!sq.has_marks());
        sq.mark_node_dirty(n(5)); // the target, not on the chain
        assert!(sq.has_marks());
        sq.take_marked(&mut ids);
        assert_eq!(ids, vec![id]);
        // breaking unindexes everything
        sq.record_break(id, SimTime::from_secs(4));
        assert_eq!(sq.stats().breaks, 1);
        sq.mark_node_dirty(n(3));
        sq.mark_node_dirty(n(5));
        assert!(!sq.has_marks());
        // re-resolve accumulates broken time separately
        sq.set_resolved(id, &[n(0), n(7)], SimTime::from_secs(7), false);
        assert_eq!(sq.stats().reresolved, 1);
        assert_eq!(sq.stats().broken_ticks, 4_000_000);
    }

    #[test]
    fn mark_all_includes_broken_queries() {
        let mut sq = StandingQueries::new(4);
        let a = sq.register(n(0), n(1), SimTime::ZERO);
        let b = sq.register(n(2), n(3), SimTime::ZERO);
        sq.set_resolved(a, &[n(0)], SimTime::ZERO, true);
        sq.set_failed(b);
        assert_eq!(sq.stats().resolve_failures, 1);
        sq.mark_all();
        let mut ids = Vec::new();
        sq.take_marked(&mut ids);
        assert_eq!(ids, vec![a, b], "broken queries retry on mark_all");
    }

    #[test]
    fn duplicate_marks_count_once() {
        let mut sq = StandingQueries::new(4);
        let id = sq.register(n(0), n(3), SimTime::ZERO);
        sq.set_resolved(id, &[n(0), n(1), n(2)], SimTime::ZERO, true);
        sq.mark_node_dirty(n(1));
        sq.mark_node_dirty(n(2));
        let mut ids = Vec::new();
        sq.take_marked(&mut ids);
        assert_eq!(ids, vec![id]);
    }
}
