//! The query side (§III.C.4): the one per-pair body behind every
//! world-level query, the one sweep that drives it, and the one stage that
//! delivers §V hint deposits.
//!
//! ## One query body, one sweep
//!
//! Every world-level query runs the same per-pair body
//! (`QueryView::query`): the table, hint and fault views are picked once
//! per sweep, a crashed endpoint fails fast, and the [`crate::query`] walk
//! runs under the view's edge veto (pass-all on a calm world,
//! [`QueryFaultFilter::edge_ok`] under an armed plan). One sweep drives
//! it: [`CardWorld::query_all`], and as a sweep of one
//! [`CardWorld::query`], [`CardWorld::query_resource`] and each retry.
//! Only standing resolution calls the body directly: it records its own
//! message kinds and reads the walk's answer chain.
//!
//! Queries read protocol state and draw no randomness, so a sweep shards
//! its *slots*, not the node spans: each span runs on one `QueryLane` of
//! the world (a [`QueryScratch`] and a deposit log; a sweep of one runs
//! on lane 0), and the spans' DSQ/reply counters merge in shard order.
//!
//! ## Hint deposits
//!
//! A resolved query deposits hints at relay nodes that usually live on
//! other shards, and the store is written only after the parallel phase,
//! so every hinted sweep ends in the one deposit stage,
//! `exchange_deposits`: it drains each lane's [`DepositLog`] (which
//! combines a holder's repeated deposits into counted runs at the sender
//! — "Runs" in [`crate::hints`]) straight into the one [`HintStore`]. A
//! run weighs its count in the [`ExchangeStats`] ledger and draws one
//! content-keyed fault verdict — the one every copy would have drawn.
//! Query *reads* stay direct: remote contact links through
//! [`TablesView`], hints through the one `&HintStore`. The drain's
//! ordering contract is spelled out on `exchange_deposits`.

use manet_routing::network::Network;
use net_topology::node::NodeId;
use sim_core::faults::{FaultPlan, FaultVerdict};
use sim_core::par::parallel_shard_map;
use sim_core::stats::MsgKind;

use crate::contact::{ContactStore, TablesView};
use crate::csq::CsqScratch;
use crate::hints::{DepositLog, HintLookup, HintStats, HintStore, NoHints};
use crate::query::{any_edge, dsq_walk, HintContext, QueryFaultFilter, QueryOutcome, QueryScratch};
use crate::resources::{resource_query_unrecorded, ResourceId, ResourceRegistry};

use super::round::FaultRuntime;
use super::CardWorld;

/// What one query is looking for.
#[derive(Clone, Copy)]
pub(super) enum Goal<'a> {
    /// A node lookup (the DSQ of §III.C.4).
    Node(NodeId),
    /// Any host of a resource (anycast).
    Resource(&'a ResourceRegistry, ResourceId),
}

/// A sweep slot that names a node asks for that node.
impl From<NodeId> for Goal<'_> {
    fn from(target: NodeId) -> Self {
        Goal::Node(target)
    }
}

/// Everything a query reads, frozen for one sweep or standing resolution:
/// the network, the table view over the shards, the hint store, and the
/// fault view picked from the armed plan.
#[derive(Clone, Copy)]
pub(super) struct QueryView<'a> {
    net: &'a Network,
    tables: TablesView<'a>,
    /// The §V hint store, when the query consults (and feeds) the cache.
    hints: Option<&'a HintStore>,
    depth: u16,
    /// `None` on a calm world.
    faults: Option<QueryFaultFilter<'a>>,
}

/// What one query writes: its walk workspace and, with the cache on, the
/// hint counters and the deposit log.
pub(super) struct QuerySink<'a> {
    pub(super) scratch: &'a mut QueryScratch,
    pub(super) hint_stats: &'a mut HintStats,
    pub(super) deposits: &'a mut DepositLog,
}

impl<'a> QueryView<'a> {
    pub(super) fn over(
        net: &'a Network,
        contacts: &'a [ContactStore],
        per: usize,
        hints: Option<&'a HintStore>,
        depth: u16,
        faults: &'a Option<FaultRuntime>,
    ) -> Self {
        QueryView {
            net,
            tables: TablesView::new(contacts, per),
            hints,
            depth,
            faults: faults.as_ref().map(|rt| QueryFaultFilter {
                down: rt.state.down_mask(),
                sides: rt.state.sides(),
            }),
        }
    }

    /// The one per-pair body behind every world-level query — each slot
    /// of a sweep (a single query is a sweep of one) and standing
    /// resolution. This is the only place the calm/faulted choice is
    /// made: a calm world walks under the pass-all veto; under a fault view
    /// a crashed endpoint fails fast (no messages — nobody to ask, nobody
    /// to answer; a resource has no single target, so only its source is
    /// tested) and the walk vetoes crashed relays and cross-partition
    /// edges, falling back from a hint whose next hop is down to the plain
    /// escalation.
    pub(super) fn query(
        &self,
        source: NodeId,
        goal: Goal<'_>,
        sink: &mut QuerySink<'_>,
    ) -> QueryOutcome {
        match self.faults {
            None => self.walk(source, goal, sink, any_edge),
            Some(f) => {
                let up = match goal {
                    Goal::Node(target) => f.endpoints_up(source, target),
                    Goal::Resource(..) => !f.down[source.index()],
                };
                if !up {
                    return QueryOutcome::MISS;
                }
                self.walk(source, goal, sink, move |a, b| f.edge_ok(a, b))
            }
        }
    }

    /// The unrecorded [`crate::query`] walk for `goal` under one edge veto,
    /// instantiated over the view's hint store or, without the cache, over
    /// `NoHints` (which leaves the sink's counters and log untouched).
    fn walk(
        &self,
        source: NodeId,
        goal: Goal<'_>,
        sink: &mut QuerySink<'_>,
        edge_ok: impl Fn(NodeId, NodeId) -> bool + Copy,
    ) -> QueryOutcome {
        match self.hints {
            Some(store) => self.walk_over(store, source, goal, sink, edge_ok),
            None => self.walk_over(NoHints, source, goal, sink, edge_ok),
        }
    }

    /// [`QueryView::walk`] over one hint lookup.
    fn walk_over(
        &self,
        store: impl HintLookup,
        source: NodeId,
        goal: Goal<'_>,
        sink: &mut QuerySink<'_>,
        edge_ok: impl Fn(NodeId, NodeId) -> bool + Copy,
    ) -> QueryOutcome {
        let ctx = &mut HintContext {
            store,
            stats: &mut *sink.hint_stats,
            deposits: &mut *sink.deposits,
        };
        match goal {
            Goal::Node(target) => dsq_walk(
                self.net,
                self.tables,
                ctx,
                source,
                target,
                self.depth,
                sink.scratch,
                edge_ok,
            ),
            Goal::Resource(registry, resource) => resource_query_unrecorded(
                self.net,
                self.tables,
                registry,
                ctx,
                source,
                resource,
                self.depth,
                sink.scratch,
                edge_ok,
            ),
        }
    }
}

/// One lane: all the scratch a fan-out runs on — the query walk
/// workspace, the deposit log and the visiting order a span of a sweep's
/// slots uses, and the CSQ workspace of a selection or validation span. A
/// world keeps one per shard, reused across fan-outs (a reshard only adds
/// or drops lanes); a sweep of one runs on lane 0.
#[derive(Clone)]
pub(super) struct QueryLane {
    pub(super) scratch: QueryScratch,
    pub(super) deposits: DepositLog,
    /// A hint-less span's slot indices, in the order the lane visits them.
    order: Vec<u32>,
    /// CSQ walk workspace (grows to O(N) once, then reused
    /// allocation-free across every selection and validation fan-out).
    pub(super) csq: CsqScratch,
}

impl QueryLane {
    pub(super) fn new(nodes: usize) -> Self {
        QueryLane {
            scratch: QueryScratch::with_capacity(nodes),
            deposits: DepositLog::new(),
            order: Vec::new(),
            csq: CsqScratch::new(),
        }
    }
}

/// Traffic accounting of the world's hint-deposit exchanges (one per
/// hinted sweep), plus the validation crossings a round meters. All
/// counters are cumulative over the world's lifetime, in logical deposits:
/// a run weighs its count everywhere but in `envelopes`. The ledger
///
/// ```text
/// sent == local + cross_shard + dropped + CardWorld::plane_deferred_pending()
/// ```
///
/// holds at any instant. The local/cross split (a run's holder lies
/// outside the span of the lane that logged it), `envelopes` and
/// `metered_crossings` depend on how the world is cut into shards; the
/// other counters do not.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Exchanges run.
    pub rounds: u64,
    /// Deposits logged by the sweeps, each counted once, at its first
    /// exchange.
    pub sent: u64,
    /// Runs that carried them: `sent`'s physical count (not
    /// shard-invariant).
    pub envelopes: u64,
    /// Deposits applied whose holder lies outside the sending lane's span.
    pub cross_shard: u64,
    /// Deposits applied whose holder lies inside the sending lane's span.
    pub local: u64,
    /// Largest number of deposits one exchange applied.
    pub max_round_msgs: u64,
    /// Deposits a lossy fault plan dropped (never applied), and deferred
    /// ones a cache reset discarded.
    pub dropped: u64,
    /// Deposits a lossy fault plan delayed by one exchange. Nothing is
    /// delayed twice, so this also bounds the deferred backlog.
    pub delayed: u64,
    /// Shard-boundary crossings *metered* on paths the world resolves by
    /// direct reads (validation relay hops): the traffic a
    /// process-level deployment would route as messages.
    pub metered_crossings: u64,
    /// Weight of the deferred runs that cross a span boundary: the
    /// cross-shard part of their delivery.
    deferred_cross: u64,
}

impl ExchangeStats {
    /// Discard deferred runs of total weight `pending`: they were counted
    /// as sent at their exchange, so they count as dropped now.
    pub(super) fn discard_deferred(&mut self, pending: u64) {
        self.dropped += pending;
        self.deferred_cross = 0;
    }
}

impl CardWorld {
    /// Issue a resource-discovery query (§III.C.4) from `source` for
    /// `target`, escalating depth up to `cfg.depth`: [`CardWorld::query_all`]
    /// over one pair, run on the world's first query lane with a one-slot
    /// outcome buffer. With the route-hint cache enabled, the cache is
    /// consulted first and the query's deposits reach the store in an
    /// exchange of their own before this returns, so on a calm world
    /// the very next call can hit. Under an armed fault plan a failed query
    /// enters the retry queue.
    pub fn query(&mut self, source: NodeId, target: NodeId) -> QueryOutcome {
        let out = self.sweep_one(source, target);
        if self.faults.is_some() && !out.found {
            self.query_retry.schedule(source, target);
        }
        out
    }

    /// Queries waiting in the retry queue.
    pub fn pending_query_retries(&self) -> usize {
        self.query_retry.len()
    }

    /// Advance the retry queue one round and re-run each due query as a
    /// sweep of one, feeding outcomes back (recovered / requeued with
    /// doubled backoff / abandoned past the cap). A re-run schedules
    /// nothing: [`QueryRetryQueue::report`](crate::query::QueryRetryQueue::report)
    /// owns the requeue decision.
    pub(super) fn drain_query_retries(&mut self) {
        if self.query_retry.is_empty() {
            return;
        }
        let mut due = std::mem::take(&mut self.retry_due);
        self.query_retry.tick(&mut due);
        for &(source, target, attempt) in &due {
            let out = self.sweep_one(source, target);
            self.query_retry.report(source, target, attempt, out.found);
        }
        due.clear();
        self.retry_due = due;
    }

    /// Issue an anycast resource query (§III.C.4 with a resource target)
    /// from `source` as a sweep of one, escalating up to `cfg.depth` and
    /// consulting the route-hint cache when enabled (hints are keyed by the
    /// resource, so any replica's answer warms later queries for it). Under
    /// an armed fault plan a crashed source asks nothing, crashed or
    /// partitioned relays forward nothing, and a zone answers only through
    /// a host that is up and on the answerer's side. Resource queries are
    /// never retried: the retry queue is keyed by target *node*.
    pub fn query_resource(
        &mut self,
        registry: &ResourceRegistry,
        source: NodeId,
        resource: ResourceId,
    ) -> QueryOutcome {
        self.sweep_one(source, Goal::Resource(registry, resource))
    }

    /// Run a batch of queries — one DSQ per `(source, target)` pair,
    /// escalating up to `cfg.depth` — fanned out over the protocol shards
    /// (the *pair list* is sharded; see `world/queries.rs`), returning the
    /// outcomes in pair order. With the route-hint cache enabled the sweep
    /// consults views *frozen* for the whole parallel phase and drains the
    /// lanes' deposit logs into the store afterwards, so either way results
    /// and statistics are bit-identical at any worker or shard count (with
    /// the cache off the sweep additionally equals one [`CardWorld::query`]
    /// per pair, in order).
    pub fn query_all(&mut self, pairs: &[(NodeId, NodeId)]) -> Vec<QueryOutcome> {
        let mut out = Vec::new();
        self.query_all_into(pairs, &mut out);
        out
    }

    /// [`CardWorld::query_all`] into a caller-owned buffer: `out` is
    /// cleared and refilled, so repeated sweeps (scale tiers, benches)
    /// reuse one allocation instead of building a fresh `Vec` per sweep.
    pub fn query_all_into(&mut self, pairs: &[(NodeId, NodeId)], out: &mut Vec<QueryOutcome>) {
        out.clear();
        out.resize(pairs.len(), QueryOutcome::MISS);
        self.sweep(pairs, out);
        // Under faults, failed queries enter the retry queue in pair order
        // — what a loop of [`CardWorld::query`] calls would schedule
        // (`schedule` dedups outstanding pairs).
        if self.faults.is_some() {
            for (&(s, t), o) in pairs.iter().zip(out.iter()) {
                if !o.found {
                    self.query_retry.schedule(s, t);
                }
            }
        }
    }

    /// The sweep over one slot.
    pub(super) fn sweep_one<'g>(
        &mut self,
        source: NodeId,
        goal: impl Into<Goal<'g>> + Copy + Sync,
    ) -> QueryOutcome {
        let mut one = [QueryOutcome::MISS];
        self.sweep(&[(source, goal)], &mut one);
        let [out] = one;
        out
    }

    /// The one sweep. Slot `i` asks `asks[i]` — a source and a target node
    /// or a [`Goal`] — and its outcome lands in `out[i]`; nothing enters
    /// the retry queue. Each span of the slots runs the shared per-pair
    /// body on its own query lane against views frozen for the whole
    /// parallel phase: with the hint cache on, every query sees the same
    /// cache, and its deposits become visible to the *next* sweep, exactly
    /// as in a batch of concurrently in-flight queries. Message counters
    /// land in per-span deltas merged in shard order; the deposit stage
    /// follows when hints are on.
    ///
    /// A lane's walk memo (see [`crate::query`]) lives for one sweep: the
    /// lane forgets it when the sweep starts and when it ends. Without
    /// hints a query is a pure function of `(view, pair)`, so a span visits
    /// its slots grouped by source, stable by slot (the lane's order
    /// buffer, sorted in O(P log P)), and each source's contact tree is
    /// walked once. A hinted span keeps slot order: its deposit log merges
    /// a holder's consecutive deposits into runs, and the exchange applies
    /// them in slot order, so a different visiting order would change the
    /// runs it applies. It still resumes a memo between adjacent slots that
    /// share a source.
    pub(super) fn sweep<'g, G>(&mut self, asks: &[(NodeId, G)], out: &mut [QueryOutcome])
    where
        G: Copy + Sync + Into<Goal<'g>>,
    {
        debug_assert_eq!(asks.len(), out.len());
        let per = self.per;
        let CardWorld {
            net,
            cfg,
            stats,
            now,
            contacts,
            lanes,
            hints,
            hint_stats,
            faults,
            ..
        } = self;
        let view = QueryView::over(net, contacts, per, hints.as_ref(), cfg.depth, faults);
        // Each span of the canonical `shard_spans` partition owns its chunk
        // of the asks, the matching chunk of the output buffer (written in
        // place — no per-span collection) and one query lane.
        let span = asks.len().div_ceil(lanes.len()).max(1);
        let mut work: Vec<_> = (asks.chunks(span).zip(out.chunks_mut(span)))
            .zip(lanes.iter_mut())
            .map(|((asks, slots), lane)| (asks, slots, lane))
            .collect();
        let deltas = parallel_shard_map(&mut work, |_, (asks, slots, lane)| {
            let QueryLane {
                scratch,
                deposits,
                order,
                ..
            } = &mut **lane;
            deposits.clear();
            // A walk memo is good for this sweep's frozen view only.
            scratch.walk.forget();
            // The span's message delta: every query lands at the same
            // instant, so two counters recorded in bulk afterwards produce
            // buckets bit-identical to per-query recording.
            let (mut dsq, mut reply) = (0u64, 0u64);
            let mut hint_delta = HintStats::default();
            let mut sink = QuerySink {
                scratch,
                hint_stats: &mut hint_delta,
                deposits,
            };
            let mut ask = |i: usize| {
                let (s, goal) = asks[i];
                let o = view.query(s, goal.into(), &mut sink);
                dsq += o.query_msgs;
                reply += o.reply_msgs;
                slots[i] = o;
            };
            if view.hints.is_none() {
                // A hint-less query is a pure function of (view, pair), so
                // the span visits its slots grouped by source, stable by
                // slot: each source's memo serves all of its slots.
                order.clear();
                order.extend(0..asks.len() as u32);
                order.sort_unstable_by_key(|&i| (asks[i as usize].0, i));
                order.iter().for_each(|&i| ask(i as usize));
            } else {
                (0..asks.len()).for_each(ask);
            }
            sink.scratch.walk.forget();
            (dsq, reply, hint_delta)
        });
        for (dsq, reply, hint_delta) in &deltas {
            stats.record_n(*now, MsgKind::Dsq, *dsq);
            stats.record_n(*now, MsgKind::DsqReply, *reply);
            hint_stats.merge(hint_delta);
        }
        if self.hints.is_some() {
            self.exchange_deposits();
        }
    }

    /// The deposit stage that ends every hinted sweep (a single query is a
    /// sweep of one): apply the runs a lossy plan deferred from the
    /// previous exchange, then each lane's log in lane order, each in log
    /// order, and empty the logs.
    ///
    /// That order makes the stage deterministic. A deposit touches only
    /// its holder's slots, LRU clock and occupancy count, so only the
    /// sequence of deposits each holder receives matters. Lane `i` logs
    /// span `i`'s slots in slot order and the spans are contiguous in lane
    /// order, so that sequence is the global query order restricted to the
    /// holder, with deferred runs landing one exchange late and ahead of
    /// all fresh ones — bit-identical at any worker or shard count (pinned
    /// by `tests/hint_cache.rs` and `tests/message_plane.rs`). A run stands
    /// for its copies at the position of its first one; since it only ever
    /// absorbed pushes made while it was its holder's latest entry, the
    /// expanded sequence is unchanged.
    pub(super) fn exchange_deposits(&mut self) {
        let per = self.per;
        let CardWorld {
            lanes,
            hints,
            hint_stats,
            deferred,
            traffic,
            faults,
            ..
        } = self;
        let store = hints.as_mut().expect("hinted exchange without a store");
        // Deferred runs first: sent in an earlier exchange, they precede
        // everything sent in this one, and their verdict is already spent.
        let mut round = 0u64;
        for d in deferred.drain(..) {
            round += u64::from(d.count);
            store.deposit(&d, hint_stats);
        }
        traffic.cross_shard += traffic.deferred_cross;
        traffic.local += round - traffic.deferred_cross;
        traffic.deferred_cross = 0;
        // A lossy fault plan judges each run by its *content* (plus a
        // shard-invariant exchange salt, so identical payloads in different
        // exchanges draw independent verdicts) — never by lane or position
        // — keeping faulted deliveries bit-identical at any shard count.
        // The key leaves out a run's `count`: every copy would draw the
        // run's one verdict.
        let lossy = faults.as_mut().filter(|rt| rt.plan.lossy()).map(|rt| {
            rt.exchanges += 1;
            (&rt.plan, rt.exchanges)
        });
        for (k, lane) in lanes.iter_mut().enumerate() {
            let runs = lane.deposits.runs();
            traffic.envelopes += runs.len() as u64;
            for d in runs {
                let w = u64::from(d.count);
                traffic.sent += w;
                let cross = d.holder.index() / per != k;
                let verdict = lossy.map_or(FaultVerdict::Deliver, |(plan, salt)| {
                    plan.message_verdict(FaultPlan::salted_key(&[
                        d.holder.index() as u64,
                        d.next_hop.index() as u64,
                        d.depth as u64,
                        d.key.bits(),
                        salt,
                    ]))
                });
                match verdict {
                    FaultVerdict::Deliver => {
                        store.deposit(d, hint_stats);
                        round += w;
                        if cross {
                            traffic.cross_shard += w;
                        } else {
                            traffic.local += w;
                        }
                    }
                    FaultVerdict::Drop => traffic.dropped += w,
                    FaultVerdict::Delay => {
                        traffic.delayed += w;
                        if cross {
                            traffic.deferred_cross += w;
                        }
                        deferred.push(*d);
                    }
                }
            }
            lane.deposits.clear();
        }
        traffic.rounds += 1;
        traffic.max_round_msgs = traffic.max_round_msgs.max(round);
    }
}
