//! The query side (§III.C.4): the one per-pair body behind every
//! world-level query, live and retried queries, the batched sweep, and the
//! one stage that delivers §V hint deposits.
//!
//! ## One query body, one sweep
//!
//! Every world-level query — [`CardWorld::query`], the retry drain,
//! [`CardWorld::query_resource`], standing resolution and each pair of
//! [`CardWorld::query_all`] — runs the same per-pair body
//! (`QueryView::query`): the table, hint and fault views are picked once
//! per call or sweep, a crashed endpoint fails fast, and the
//! [`crate::query`] walk runs under the view's edge veto (pass-all on a
//! calm world, [`QueryFaultFilter::edge_ok`] under an armed plan).
//!
//! Queries read protocol state and draw no randomness, so
//! [`CardWorld::query_all`] shards the *pair list*, not the node spans:
//! each span runs on a shard-owned `QueryLane` (a [`QueryScratch`] and a
//! deposit log), and the spans' DSQ/reply counters merge in shard order.
//!
//! ## Hint deposits
//!
//! Every hinted query — a live one, a retry, a resource query or a pair
//! of a sweep — writes its deposits through the message plane: a resolved
//! query deposits hints at relay nodes that usually live on other shards,
//! and a store is written only by its owner shard's drain. Queries log
//! their deposits into a [`DepositLog`], which combines at the sender: a
//! push that repeats its holder's *latest* entry (key, next hop, depth)
//! bumps that entry's `count`, so a skewed sweep logs one run where it
//! used to log hundreds of copies; runs never span logs, exchanges or
//! deferred envelopes. A live query's log is sent from lane 0's outbox, a
//! sweep's from each span's lane; each run crosses the plane as one
//! envelope to the holder's owner shard in the one exchange stage,
//! `exchange_deposits`, which runs after every hinted query or sweep. A
//! run weighs its count in the plane's ledger and draws one content-keyed
//! fault verdict — the one every copy would have drawn. Each shard applies
//! its own mailbox through `HintStore::deposit`, which applies a run
//! exactly as that many single deposits ("Runs" in [`crate::hints`]).
//! Query *reads* (remote contact tables) stay direct reads through
//! [`TablesView`]. The drain's ordering contract is spelled out on
//! `exchange_deposits`.

use manet_routing::network::Network;
use net_topology::node::NodeId;
use sim_core::faults::FaultPlan;
use sim_core::par::{parallel_shard_map, shard_spans};
use sim_core::plane::Outbox;
use sim_core::stats::MsgKind;

use crate::hints::{DepositLog, HintDeposit, HintStats};
use crate::query::{
    any_edge, dsq_query_hinted_unrecorded, dsq_query_unrecorded, HintContext, QueryFaultFilter,
    QueryOutcome, QueryScratch,
};
use crate::resources::{resource_query_unrecorded, ResourceId, ResourceRegistry};

use super::round::FaultRuntime;
use super::shards::{HintsView, ProtocolShard, TablesView};
use super::CardWorld;

/// What one query is looking for.
#[derive(Clone, Copy)]
pub(super) enum Goal<'a> {
    /// A node lookup (the DSQ of §III.C.4).
    Node(NodeId),
    /// Any host of a resource (anycast).
    Resource(&'a ResourceRegistry, ResourceId),
}

/// Everything a query reads, frozen for one call or one sweep: the
/// network, the table and hint views over the shards, and the fault view
/// picked from the armed plan.
#[derive(Clone, Copy)]
pub(super) struct QueryView<'a> {
    net: &'a Network,
    tables: TablesView<'a>,
    /// The §V hint spans, when the query consults (and feeds) the cache.
    hints: Option<HintsView<'a>>,
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
        shards: &'a [ProtocolShard],
        per: usize,
        hints: bool,
        depth: u16,
        faults: &'a Option<FaultRuntime>,
    ) -> Self {
        QueryView {
            net,
            tables: TablesView {
                shards,
                per,
                n: net.node_count(),
            },
            hints: hints.then_some(HintsView { shards, per }),
            depth,
            faults: faults.as_ref().map(|rt| QueryFaultFilter {
                down: rt.state.down_mask(),
                sides: rt.state.sides(),
            }),
        }
    }

    /// The one per-pair body behind every world-level query — single
    /// queries, the retry drain, standing resolution and each pair of the
    /// batched sweep. This is the only place the calm/faulted choice is
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

    /// The unrecorded [`crate::query`] walk for `goal` under one edge veto.
    fn walk(
        &self,
        source: NodeId,
        goal: Goal<'_>,
        sink: &mut QuerySink<'_>,
        edge_ok: impl Fn(NodeId, NodeId) -> bool + Copy,
    ) -> QueryOutcome {
        let mut ctx = self.hints.map(|store| HintContext {
            store,
            stats: &mut *sink.hint_stats,
            deposits: &mut *sink.deposits,
        });
        match goal {
            Goal::Node(target) => match ctx.as_mut() {
                None => dsq_query_unrecorded(
                    self.net,
                    self.tables,
                    source,
                    target,
                    self.depth,
                    sink.scratch,
                    edge_ok,
                ),
                Some(ctx) => dsq_query_hinted_unrecorded(
                    self.net,
                    self.tables,
                    ctx,
                    source,
                    target,
                    self.depth,
                    sink.scratch,
                    edge_ok,
                ),
            },
            Goal::Resource(registry, resource) => resource_query_unrecorded(
                self.net,
                self.tables,
                registry,
                ctx.as_mut(),
                source,
                resource,
                self.depth,
                sink.scratch,
                edge_ok,
            ),
        }
    }
}

/// One sweep lane: the walk workspace and the deposit log a span of the
/// pair list runs on. A world keeps one per shard, reused across sweeps.
#[derive(Clone)]
pub(super) struct QueryLane {
    pub(super) scratch: QueryScratch,
    pub(super) deposits: DepositLog,
}

impl QueryLane {
    pub(super) fn new(nodes: usize) -> Self {
        QueryLane {
            scratch: QueryScratch::with_capacity(nodes),
            deposits: DepositLog::new(),
        }
    }
}

/// Queue a deposit log's runs in `outbox`, in log order, each to its
/// holder's owner shard, and empty the log.
fn send_deposits(outbox: &mut Outbox<HintDeposit>, log: &mut DepositLog, per: usize) {
    for &d in log.runs() {
        outbox.send(d.holder.index() / per, d);
    }
    log.clear();
}

impl CardWorld {
    /// Issue a resource-discovery query (§III.C.4) from `source` for
    /// `target`, escalating depth up to `cfg.depth`. Runs allocation-free
    /// on the world's first query lane; batches should prefer
    /// [`CardWorld::query_all`]. With the route-hint cache enabled, the
    /// cache is consulted first and the query's deposits cross the
    /// message plane in an exchange of their own before this returns, so
    /// on a calm world the very next call can hit; under a lossy plan
    /// they draw drop and delay verdicts like a sweep's. Under an armed
    /// fault plan a failed query enters the retry queue.
    pub fn query(&mut self, source: NodeId, target: NodeId) -> QueryOutcome {
        let out = self.query_once(source, Goal::Node(target));
        if self.faults.is_some() && !out.found {
            self.query_retry.schedule(source, target);
        }
        out
    }

    /// One live query through the shared per-pair body, recorded at `now`,
    /// its deposits (with the cache on) sent from lane 0's outbox through
    /// the one exchange stage, without retry scheduling (the retry drain
    /// calls this directly so a re-run never re-queues itself —
    /// [`QueryRetryQueue::report`](crate::query::QueryRetryQueue::report)
    /// owns the requeue decision).
    fn query_once(&mut self, source: NodeId, goal: Goal<'_>) -> QueryOutcome {
        let per = self.per;
        let CardWorld {
            net,
            cfg,
            shards,
            lanes,
            hints_on,
            hint_stats,
            hint_deposits,
            faults,
            ..
        } = self;
        let out = QueryView::over(net, shards, per, *hints_on, cfg.depth, faults).query(
            source,
            goal,
            &mut QuerySink {
                scratch: &mut lanes[0].scratch,
                hint_stats,
                deposits: &mut *hint_deposits,
            },
        );
        if self.hints_on {
            let outbox = &mut self.plane.outboxes_mut()[0];
            send_deposits(outbox, &mut self.hint_deposits, per);
            self.exchange_deposits();
        }
        out.recorded(&mut self.stats, self.now)
    }

    /// Queries waiting in the retry queue.
    pub fn pending_query_retries(&self) -> usize {
        self.query_retry.len()
    }

    /// Advance the retry queue one round and re-run the due queries,
    /// feeding outcomes back (recovered / requeued with doubled backoff /
    /// abandoned past the cap).
    pub(super) fn drain_query_retries(&mut self) {
        if self.query_retry.is_empty() {
            return;
        }
        let mut due = std::mem::take(&mut self.retry_due);
        self.query_retry.tick(&mut due);
        for &(source, target, attempt) in &due {
            let out = self.query_once(source, Goal::Node(target));
            self.query_retry.report(source, target, attempt, out.found);
        }
        due.clear();
        self.retry_due = due;
    }

    /// Issue an anycast resource query (§III.C.4 with a resource target)
    /// from `source`, escalating up to `cfg.depth` and consulting the
    /// route-hint cache when enabled (hints are keyed by the resource, so
    /// any replica's answer warms later queries for it). Under an armed
    /// fault plan a crashed source asks nothing, crashed or partitioned
    /// relays forward nothing, and a zone answers only through a host that
    /// is up and on the answerer's side. Resource queries are never
    /// retried: the retry queue is keyed by target *node*.
    pub fn query_resource(
        &mut self,
        registry: &ResourceRegistry,
        source: NodeId,
        resource: ResourceId,
    ) -> QueryOutcome {
        self.query_once(source, Goal::Resource(registry, resource))
    }

    /// Run a batch of queries — one DSQ per `(source, target)` pair,
    /// escalating up to `cfg.depth` — fanned out over the protocol shards
    /// (the *pair list* is sharded; see `world/queries.rs`), returning the
    /// outcomes in pair order. With the route-hint cache enabled the sweep
    /// consults views *frozen* for the whole parallel phase and routes the
    /// shards' deposit logs through the message plane to their owner shards
    /// afterwards, so either way results and statistics are bit-identical
    /// at any worker or shard count (with the cache off the sweep
    /// additionally equals [`CardWorld::query_all_serial`]).
    pub fn query_all(&mut self, pairs: &[(NodeId, NodeId)]) -> Vec<QueryOutcome> {
        let mut out = Vec::new();
        self.query_all_into(pairs, &mut out);
        out
    }

    /// [`CardWorld::query_all`] into a caller-owned buffer: `out` is
    /// cleared and refilled, so repeated sweeps (scale tiers, benches)
    /// reuse one allocation instead of building a fresh `Vec` per sweep.
    ///
    /// This is the one sweep. Each span of the pair list runs the shared
    /// per-pair body against views frozen for the whole parallel phase —
    /// with the hint cache on, every query sees the same cache and logs its
    /// deposits into a per-span buffer (reused across sweeps); they become
    /// visible to the *next* sweep, exactly as in a batch of concurrently
    /// in-flight queries. Message counters land in per-span deltas merged
    /// in shard order; the deposit stage follows when hints are on.
    pub fn query_all_into(&mut self, pairs: &[(NodeId, NodeId)], out: &mut Vec<QueryOutcome>) {
        out.clear();
        out.resize(pairs.len(), QueryOutcome::MISS);
        let per = self.per;
        let CardWorld {
            net,
            cfg,
            stats,
            now,
            shards,
            lanes,
            hints_on,
            hint_stats,
            faults,
            ..
        } = self;
        let view = QueryView::over(net, shards, per, *hints_on, cfg.depth, faults);
        // Each span owns its slice of the pair list, the matching slice of
        // the output buffer (written in place — no per-span collection)
        // and one query lane.
        let spans = shard_spans(pairs.len(), lanes.len());
        let mut work = Vec::with_capacity(spans.len());
        let mut out_rest: &mut [QueryOutcome] = out;
        let mut lanes = lanes.iter_mut();
        for span in spans {
            let (slots, rest) = out_rest.split_at_mut(span.end - span.start);
            out_rest = rest;
            let lane = lanes.next().expect("span count exceeds shard count");
            work.push((&pairs[span], slots, lane));
        }
        let deltas = parallel_shard_map(&mut work, |_, (pairs, slots, lane)| {
            let QueryLane { scratch, deposits } = &mut **lane;
            deposits.clear();
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
            for (slot, &(s, t)) in slots.iter_mut().zip(pairs.iter()) {
                let o = view.query(s, Goal::Node(t), &mut sink);
                dsq += o.query_msgs;
                reply += o.reply_msgs;
                *slot = o;
            }
            (dsq, reply, hint_delta)
        });
        for (dsq, reply, hint_delta) in &deltas {
            stats.record_n(*now, MsgKind::Dsq, *dsq);
            stats.record_n(*now, MsgKind::DsqReply, *reply);
            hint_stats.merge(hint_delta);
        }
        if self.hints_on {
            let outboxes = self.plane.outboxes_mut();
            for (outbox, lane) in outboxes.iter_mut().zip(&mut self.lanes) {
                send_deposits(outbox, &mut lane.deposits, per);
            }
            self.exchange_deposits();
        }
        // Under faults, failed sweep queries enter the retry queue in pair
        // order — the same sequence a loop of [`CardWorld::query`] calls
        // would schedule (`schedule` dedups outstanding pairs).
        if self.faults.is_some() {
            for (&(s, t), o) in pairs.iter().zip(out.iter()) {
                if !o.found {
                    self.query_retry.schedule(s, t);
                }
            }
        }
    }

    /// The deposit stage of every hinted query and sweep: exchange the
    /// deposit runs queued in the plane's outboxes, each to its holder's
    /// owner shard, and apply them in a parallel drain phase.
    ///
    /// Delivery order makes the drain deterministic. A mailbox holds the
    /// runs a lossy plane deferred from the previous exchange, then this
    /// exchange's runs by `(source shard, send sequence)`; a sweep sends
    /// in pair order within each source shard and a live query sends its
    /// one log from lane 0, so the deposit sequence each holder observes
    /// is the global query order restricted to that holder, with deferred
    /// runs landing one exchange late — bit-identical at any worker or
    /// shard count (pinned by `tests/hint_cache.rs` and
    /// `tests/message_plane.rs`). A run stands for its copies at the
    /// position of its first one; since it only ever absorbed pushes made
    /// while it was its holder's latest entry, the expanded sequence is
    /// unchanged.
    fn exchange_deposits(&mut self) {
        let CardWorld {
            shards,
            hint_stats,
            plane,
            faults,
            ..
        } = self;
        // A lossy fault plane judges each deposit by its *content* (plus a
        // shard-invariant exchange salt, so identical payloads in different
        // exchanges draw independent verdicts) — never by transport
        // coordinates — keeping faulted deliveries bit-identical at any
        // shard count. The key leaves out a run's `count`: every copy
        // would draw the run's one verdict. Delayed deposits park in the
        // plane's deferred lane and land first at the next exchange.
        match faults.as_mut().filter(|rt| rt.plan.lossy()) {
            Some(rt) => {
                rt.exchanges += 1;
                let salt = rt.exchanges;
                let plan = &rt.plan;
                plane.exchange_faulted(|d| {
                    plan.message_verdict(FaultPlan::salted_key(&[
                        d.holder.index() as u64,
                        d.next_hop.index() as u64,
                        d.depth as u64,
                        d.key.bits(),
                        salt,
                    ]))
                });
            }
            None => {
                plane.exchange();
            }
        }
        // Deterministic drain: each shard applies its own mailbox to its
        // own span store (no cross-shard writes), counters merged in
        // shard order.
        let mailboxes = plane.mailboxes_mut();
        let mut drains: Vec<_> = shards.iter_mut().zip(mailboxes.iter_mut()).collect();
        let applied = parallel_shard_map(&mut drains, |_, (shard, mailbox)| {
            let mut delta = HintStats::default();
            let store = shard
                .hints
                .as_mut()
                .expect("hinted exchange without span stores");
            for d in mailbox.drain(..) {
                store.deposit(&d, &mut delta);
            }
            delta
        });
        for delta in &applied {
            hint_stats.merge(delta);
        }
    }
}
