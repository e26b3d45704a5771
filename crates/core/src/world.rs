//! `CardWorld` — the complete protocol-over-network world.
//!
//! Couples a [`Network`] with per-node CARD state (contact tables, RNG
//! streams). Everything the protocol does is a direct method call on the
//! world — one-shot selection, a validation round with re-selection
//! (§III.C.3, rule 5) and the standing-query recheck, queries,
//! reachability. The world owns no clock: [`crate::events::EventDriver`]
//! steps it through virtual time (mobility wake-ups interleaved with
//! per-period rounds), and [`CardWorld::run_mobile`] is one drive of it.
//!
//! ## Shard-owned protocol state
//!
//! Per-node protocol state — contact tables, per-node RNG streams, backoff
//! counters, the §V hint-store span, and the CSQ walk workspace — is *owned*
//! by its `ProtocolShard`: shard `k` holds the state of the contiguous
//! node span `[k·per, (k+1)·per)` (the canonical
//! [`sim_core::par::shard_spans`] partition; `per = ceil(N / shards)`).
//! There is no flat whole-network array behind the shards; cross-shard
//! reads go through read-only views ([`TablesView`], [`HintsView`]) and
//! cross-shard *writes* — hint deposits — become [`HintDeposit`] runs
//! routed through a [`MessagePlane`] and applied by the owning shard in a
//! deterministic drain phase.
//!
//! The whole-network protocol sweeps ([`CardWorld::select_all_contacts`]
//! and [`CardWorld::validation_round`]) fan each shard out to exactly one
//! worker via [`sim_core::par::parallel_shard_map`]; a shard's sweep
//! touches only its own state plus the immutable [`Network`].
//!
//! **Determinism.** Every random protocol decision draws from the RNG
//! stream of the node making it (derived as `("card-node", node)` from the
//! config seed), never from a shared stream. Message counters accumulate
//! into per-shard [`MsgStats`] deltas merged in shard order afterwards, and
//! plane messages are delivered in `(destination shard, source shard,
//! send sequence)` order — a pure function of the protocol's own send
//! order, independent of worker scheduling. The result of a sweep is
//! therefore a pure function of `(network, config, per-node state)` —
//! bit-identical across worker counts, shard counts, and the serial
//! reference paths ([`CardWorld::select_all_contacts_serial`],
//! [`CardWorld::validation_round_serial`]), which exist precisely to pin
//! that equivalence in tests and benches.
//!
//! ## The message plane
//!
//! Two protocol interactions cross shard-ownership boundaries:
//!
//! * **Hint deposits** ([`HintDeposit`], the plane's one message type): a
//!   resolved query of a batched sweep deposits hints at relay nodes that
//!   usually live on other shards. The sweep logs deposits per source
//!   shard into a [`DepositLog`], which combines at the sender: a push
//!   that repeats its holder's *latest* entry (key, next hop, depth) bumps
//!   that entry's `count`, so a skewed sweep logs one run where it used
//!   to log hundreds of copies; runs never span lanes, sweeps or deferred
//!   envelopes. Each run crosses the plane as one envelope to the
//!   holder's owner shard in one exchange round. It weighs its count in
//!   the plane's ledger and draws one content-keyed fault verdict — the
//!   one every copy would have drawn. Each shard applies its own mailbox
//!   through `HintStore::deposit`, which applies a run exactly as that
//!   many single deposits ("Runs" in [`crate::hints`]; see
//!   [`CardWorld::query_all`]). Query *reads* (remote contact tables)
//!   stay direct reads through [`TablesView`].
//! * **Validation traffic metering**: contact-path validation walks paths
//!   that cross span boundaries; the direct-read implementation meters
//!   those crossings per round into [`PlaneStats::metered_crossings`] (via
//!   [`crate::maintenance::path_shard_crossings`]) without materializing
//!   per-hop messages, so the plane's traffic columns stay honest at
//!   N=10⁶.
//!
//! **Drain ordering contract.** A mailbox delivers `(src, msg)` pairs
//! sorted by source shard, then send order within the source — the order
//! [`MessagePlane::exchange`] constructs by draining outbox lanes
//! src-major. Because batched sweeps send in pair order within each source
//! shard, the per-holder deposit sequence any store observes equals the
//! global pair order restricted to that holder, which is what makes
//! hinted sweeps bit-identical at *any* shard count (the one-shard plane
//! degenerates to a single local lane with the same ordering).
//!
//! ## One query body, one sweep
//!
//! Every world-level query — [`CardWorld::query`], the retry drain,
//! [`CardWorld::query_resource`], standing resolution and each pair of
//! [`CardWorld::query_all`] — runs the same private per-pair body
//! (`QueryView::query`): the table, hint and fault views are picked once
//! per call or sweep, a crashed endpoint fails fast, and the
//! [`crate::query`] walk runs under the view's edge veto (pass-all on a
//! calm world, [`QueryFaultFilter::edge_ok`] under an armed plan).
//!
//! Queries are read-only over the protocol state (contact tables and
//! neighborhood tables; no RNG draws), so [`CardWorld::query_all`] shards
//! the *pair list* rather than the node spans: each shard of pairs runs
//! on a shard-owned [`QueryScratch`] (the incremental-escalation walk
//! workspace — see [`crate::query`]) and accumulates its DSQ/reply
//! counters into a per-shard delta, merged into the world statistics in
//! shard order. Every query of a sweep lands at the same virtual instant
//! and zero counts never record, so the shard deltas are plain counter
//! pairs recorded in bulk — the resulting buckets are bit-identical to
//! per-query recording, minus thousands of map probes per sweep. With the
//! hint cache on, the sweep reads hint views *frozen* for the whole
//! parallel phase and a deposit stage follows it (see above); with it off,
//! outcomes are a pure function of `(network, tables, fault view, pair)`,
//! so the sweep equals [`CardWorld::query_all_serial`] — a loop of
//! [`CardWorld::query`] calls — bit for bit at any worker or shard count.
//!
//! ## Fault injection
//!
//! [`CardWorld::enable_faults`] arms a seeded [`FaultPlan`]
//! (crash/rejoin events, a partition window, per-message drop/delay —
//! see [`sim_core::faults`]). Faults are a *parameter* of the one
//! production path, not a fork of it: the one validation round runs its
//! fault stages (event application, tombstones and retry windows, the
//! retry drain) only when a plan is armed, and the one query body takes
//! the fault view as its edge veto. Fault application is fused to the
//! validation round itself: round `r`'s node events and partition
//! transitions apply immediately before round `r` executes, whether the
//! event driver (either drive mode) or a direct call runs it, so all see
//! identical fault histories by construction. All fault
//! decisions key on protocol content (node ids, rounds, message
//! payloads) hashed with the plan seed — never on shard or worker
//! coordinates — which keeps a faulted run bit-identical at any shard
//! count and against the serial reference paths. Protocol hardening
//! under faults: confirmed-dead contacts are tombstoned (and skipped by
//! re-selection until the TTL expires), unacked validations extend
//! per-contact retry windows, hinted probes fall back to the plain walk
//! when a hint's next hop is crashed, and failed queries re-run with
//! capped exponential backoff through a [`QueryRetryQueue`] drained on
//! the validation-round lattice.

use manet_routing::network::Network;
use mobility::model::MobilityModel;
use net_topology::node::NodeId;
use net_topology::scenario::Scenario;
use sim_core::faults::{FaultPlan, FaultState, NodeFaultKind};
use sim_core::par::{max_workers, parallel_shard_map, shard_spans};
use sim_core::plane::{MessagePlane, PlaneStats};
use sim_core::rng::{RngStream, SeedSplitter};
use sim_core::stats::{MsgKind, MsgStats, TimeSeries};
use sim_core::time::{SimDuration, SimTime};

use crate::config::CardConfig;
use crate::contact::{ContactTable, TableSource};
use crate::csq::{select_contacts, CsqScratch, ALL_EDGE_NODES};
use crate::events::{DriveMode, EventDriver};
use crate::hints::{DepositLog, HintDeposit, HintKey, HintLookup, HintStats, HintStore, Lookup};
use crate::maintenance::{path_shard_crossings, validate_contacts, ValidationReport};
use crate::query::{
    any_edge, dsq_query_hinted_unrecorded, dsq_query_unrecorded, HintContext, QueryFaultFilter,
    QueryOutcome, QueryRetryQueue, QueryScratch, RetryStats,
};
use crate::reachability::ReachabilitySummary;
use crate::resources::{resource_query_unrecorded, ResourceId, ResourceRegistry};
use crate::standing::StandingQueries;
use manet_routing::network::DirtyReport;

/// Aggregated maintenance counters over a whole run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceTotals {
    /// Successful path validations.
    pub validated: u64,
    /// Contacts lost to unsalvageable paths.
    pub lost: u64,
    /// Contacts dropped by the `[2R, r]` rule.
    pub dropped_out_of_range: u64,
    /// Paths healed by local recovery.
    pub recovered: u64,
}

impl MaintenanceTotals {
    fn absorb(&mut self, r: &ValidationReport) {
        self.validated += r.validated as u64;
        self.lost += r.lost as u64;
        self.dropped_out_of_range += r.dropped_out_of_range as u64;
        self.recovered += r.recovered as u64;
    }

    fn merge(&mut self, other: &MaintenanceTotals) {
        self.validated += other.validated;
        self.lost += other.lost;
        self.dropped_out_of_range += other.dropped_out_of_range;
        self.recovered += other.recovered;
    }
}

/// Live fault-injection state of a world with faults armed: the immutable
/// plan plus the evolving down/partition state and lifecycle counters.
#[derive(Clone)]
struct FaultRuntime {
    plan: FaultPlan,
    state: FaultState,
    /// Fault rounds applied so far (the next validation round executes
    /// round `round`'s events first).
    round: u32,
    crashes: u64,
    rejoins: u64,
    partitions_opened: u64,
    partitions_healed: u64,
    /// Tombstones found past their TTL by the in-run liveness check
    /// (expected to stay 0; surfaced, never asserted, in release runs).
    liveness_violations: u64,
    /// Stale grid buckets found by the targeted residency audit of
    /// crash/rejoin sites (expected to stay 0).
    grid_audit_violations: u64,
    /// Shard-invariant salt mixed into deposit-message verdict keys so
    /// identical payloads in different sweeps draw independent verdicts.
    sweep_counter: u64,
}

/// Snapshot of the fault subsystem, surfaced by
/// [`CardWorld::fault_report`] (all-zero when faults are disabled).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Fault rounds applied so far.
    pub rounds_applied: u32,
    /// Crash events executed.
    pub crashes: u64,
    /// Rejoin events executed.
    pub rejoins: u64,
    /// Nodes currently down.
    pub down_now: usize,
    /// Partition windows opened.
    pub partitions_opened: u64,
    /// Partition windows healed.
    pub partitions_healed: u64,
    /// Is a partition open right now?
    pub partition_active: bool,
    /// Tombstones observed past their TTL (0 in a healthy run).
    pub liveness_violations: u64,
    /// Stale grid buckets at crash/rejoin sites (0 in a healthy run).
    pub grid_audit_violations: u64,
    /// Query-retry lifecycle counters.
    pub retry: RetryStats,
}

/// One shard of the world's protocol state: the *owner* of a contiguous
/// node span's contact tables, RNG streams, backoff counters, hint-store
/// span, and walk workspace. Sweeps hand each shard to exactly one worker;
/// nothing outside the shard writes this state except through the message
/// plane's drain phase.
#[derive(Clone)]
struct ProtocolShard {
    /// First node index of the owned span (`contacts[k]` is node
    /// `start + k`).
    start: usize,
    contacts: Vec<ContactTable>,
    rngs: Vec<RngStream>,
    backoff_remaining: Vec<u32>,
    backoff_level: Vec<u32>,
    /// Persistent CSQ walk workspace (grows to O(N) once, then reused
    /// allocation-free across every sweep).
    scratch: CsqScratch,
    /// This span's slice of the §V route-hint cache (`Some` iff hints are
    /// enabled on the world).
    hints: Option<HintStore>,
}

impl ProtocolShard {
    fn len(&self) -> usize {
        self.contacts.len()
    }
}

/// Read-only view over every node's contact table across the shard-owned
/// spans — the [`TableSource`] the query/reachability/resource layers use
/// now that no flat whole-network table array exists.
#[derive(Clone, Copy)]
pub struct TablesView<'a> {
    shards: &'a [ProtocolShard],
    per: usize,
    n: usize,
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
    pub fn iter(&self) -> impl Iterator<Item = &'a ContactTable> + 'a {
        self.shards.iter().flat_map(|s| s.contacts.iter())
    }
}

impl TableSource for TablesView<'_> {
    #[inline]
    fn table(&self, i: usize) -> &ContactTable {
        let s = &self.shards[i / self.per];
        &s.contacts[i - s.start]
    }
}

impl std::ops::Index<usize> for TablesView<'_> {
    type Output = ContactTable;

    #[inline]
    fn index(&self, i: usize) -> &ContactTable {
        let s = &self.shards[i / self.per];
        &s.contacts[i - s.start]
    }
}

/// Read-only view over the shard-owned hint-store spans — the
/// [`HintLookup`] consulted by queries (lookups never mutate a store, so
/// the view is safe to share across a frozen parallel phase).
#[derive(Clone, Copy)]
pub struct HintsView<'a> {
    shards: &'a [ProtocolShard],
    per: usize,
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
}

/// What one query is looking for.
#[derive(Clone, Copy)]
enum Goal<'a> {
    /// A node lookup (the DSQ of §III.C.4).
    Node(NodeId),
    /// Any host of a resource (anycast).
    Resource(&'a ResourceRegistry, ResourceId),
}

/// Everything a query reads, frozen for one call or one sweep: the
/// network, the table and hint views over the shards, and the fault view
/// picked from the armed plan.
#[derive(Clone, Copy)]
struct QueryView<'a> {
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
struct QuerySink<'a> {
    scratch: &'a mut QueryScratch,
    hint_stats: &'a mut HintStats,
    deposits: &'a mut DepositLog,
}

impl<'a> QueryView<'a> {
    fn over(
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
    fn query(&self, source: NodeId, goal: Goal<'_>, sink: &mut QuerySink<'_>) -> QueryOutcome {
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

/// Everything a shard's sweep emits, merged into the world in shard order.
#[derive(Debug)]
struct ShardDelta {
    stats: MsgStats,
    maintenance: MaintenanceTotals,
    /// Span-boundary crossings of the round's validation traffic (metered,
    /// not materialized — see the module docs).
    crossings: u64,
    /// Tombstones found past their TTL this round (always 0 on the calm
    /// path, which never creates tombstones).
    liveness_violations: u64,
}

/// The CARD world: network + shard-owned protocol state + measurement.
///
/// `Clone` snapshots the entire world — network, shards, RNG streams,
/// statistics — so divergent what-if runs (and the sweep benches) can
/// branch from a common prepared state.
#[derive(Clone)]
pub struct CardWorld {
    net: Network,
    cfg: CardConfig,
    stats: MsgStats,
    /// Absolute virtual time reached so far (advanced by the event driver).
    now: SimTime,
    /// (time, total live contacts) after each validation round (Fig 13).
    contacts_series: TimeSeries,
    maintenance: MaintenanceTotals,
    /// The shard-owned protocol state; `shards.len()` is the shard count.
    shards: Vec<ProtocolShard>,
    /// Span width of the canonical partition (`ceil(N / shards)`, min 1);
    /// node `i` is owned by shard `i / per`.
    per: usize,
    /// One persistent query walk workspace per shard (pair sweeps need a
    /// mutable scratch while reading *all* shards' tables immutably, so
    /// these live outside the shards, in lockstep with them). Scratch 0
    /// also serves the one-off [`CardWorld::query`] path.
    query_scratch: Vec<QueryScratch>,
    /// The cross-shard message plane (hint deposits, metered validation
    /// crossings).
    plane: MessagePlane<HintDeposit>,
    /// Is the §V route-hint cache active (spans allocated in the shards)?
    hints_on: bool,
    /// Hit/miss/staleness counters of the hint subsystem.
    hint_stats: HintStats,
    /// Reusable deposit log for the live single-query path.
    hint_deposits: DepositLog,
    /// Per-source-shard deposit logs reused across batched sweeps
    /// (allocated once, cleared per sweep).
    sweep_deposits: Vec<DepositLog>,
    /// Long-lived standing subscriptions (see [`crate::standing`]).
    standing: StandingQueries,
    /// Reusable drain buffer for pending standing-query revalidations.
    standing_ids: Vec<u32>,
    /// Armed fault plan and its evolving state; `None` (the common case)
    /// keeps every calm path untouched.
    faults: Option<FaultRuntime>,
    /// Failed faulted queries waiting to re-run (drained each round).
    query_retry: QueryRetryQueue,
    /// Reusable drain buffer for due query retries.
    retry_due: Vec<(NodeId, NodeId, u32)>,
}

/// Cap on the exponential selection backoff level (2^5 − 1 = 31 rounds).
const MAX_BACKOFF_LEVEL: u32 = 5;

/// Default protocol shard count: twice the fan-out width, so the pull-queue
/// scheduling in `sim_core::par` can rebalance when CSQ walk costs differ
/// across spans, without multiplying the O(N) per-shard scratch memory
/// further than needed.
fn default_shard_count() -> usize {
    (2 * max_workers()).max(1)
}

/// Partition flat per-node state into owned shards along the canonical
/// [`shard_spans`] partition. `hints` carries `(slots_per_bucket, ttl,
/// epoch)` when the route-hint cache is enabled; the created span stores
/// are empty (callers migrating an existing cache copy slots afterwards).
fn partition_state(
    n: usize,
    shards: usize,
    mut contacts: Vec<ContactTable>,
    mut rngs: Vec<RngStream>,
    mut backoff_remaining: Vec<u32>,
    mut backoff_level: Vec<u32>,
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
        let rest = backoff_remaining.split_off(len);
        let my_br = std::mem::replace(&mut backoff_remaining, rest);
        let rest = backoff_level.split_off(len);
        let my_bl = std::mem::replace(&mut backoff_level, rest);
        let store = hints.map(|(spb, ttl, epoch)| {
            let mut s = HintStore::new_span(span.start, len, spb, ttl);
            s.set_epoch(epoch);
            s
        });
        out.push(ProtocolShard {
            start: span.start,
            contacts: my_contacts,
            rngs: my_rngs,
            backoff_remaining: my_br,
            backoff_level: my_bl,
            scratch: CsqScratch::new(),
            hints: store,
        });
    }
    out
}

impl CardWorld {
    /// Instantiate a scenario (uniform placement from `cfg.seed`) and build
    /// the world.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`CardConfig::validate`]).
    pub fn build(scenario: &Scenario, cfg: CardConfig) -> Self {
        cfg.validate();
        let net = Network::from_scenario(scenario, cfg.radius, cfg.seed);
        Self::from_network(net, cfg)
    }

    /// Wrap an existing network (custom topologies, tests).
    ///
    /// # Panics
    /// Panics if the configuration is invalid or the network's zone radius
    /// differs from `cfg.radius`.
    pub fn from_network(net: Network, cfg: CardConfig) -> Self {
        cfg.validate();
        assert_eq!(
            net.radius(),
            cfg.radius,
            "network zone radius {} != config R {}",
            net.radius(),
            cfg.radius
        );
        let n = net.node_count();
        let splitter = SeedSplitter::new(cfg.seed);
        let contacts = (0..n).map(|_| ContactTable::new()).collect();
        let rngs = (0..n)
            .map(|i| splitter.stream("card-node", i as u64))
            .collect();
        let k = default_shard_count();
        let hcfg = cfg
            .hints_enabled
            .then_some((cfg.hint_slots_per_bucket, cfg.hint_ttl, 0u32));
        let shards = partition_state(n, k, contacts, rngs, vec![0; n], vec![0; n], hcfg);
        let hints_on = cfg.hints_enabled;
        CardWorld {
            net,
            cfg,
            stats: MsgStats::new(SimDuration::from_secs(2)),
            now: SimTime::ZERO,
            contacts_series: TimeSeries::new(),
            maintenance: MaintenanceTotals::default(),
            shards,
            per: n.div_ceil(k).max(1),
            query_scratch: (0..k).map(|_| QueryScratch::with_capacity(n)).collect(),
            plane: MessagePlane::new(k),
            hints_on,
            hint_stats: HintStats::default(),
            hint_deposits: DepositLog::new(),
            sweep_deposits: (0..k).map(|_| DepositLog::new()).collect(),
            standing: StandingQueries::new(n),
            standing_ids: Vec::new(),
            faults: None,
            query_retry: QueryRetryQueue::new(cfg.query_retry_cap),
            retry_due: Vec::new(),
        }
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
        let mut br = Vec::with_capacity(n);
        let mut bl = Vec::with_capacity(n);
        for s in &mut old {
            contacts.append(&mut s.contacts);
            rngs.append(&mut s.rngs);
            br.append(&mut s.backoff_remaining);
            bl.append(&mut s.backoff_level);
        }
        let hcfg =
            self.hints_on
                .then_some((self.cfg.hint_slots_per_bucket, self.cfg.hint_ttl, epoch));
        let mut new_shards = partition_state(n, shards, contacts, rngs, br, bl, hcfg);
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
        self.query_scratch
            .resize_with(shards, || QueryScratch::with_capacity(n));
        self.query_scratch.shrink_to_fit();
        self.sweep_deposits.resize_with(shards, DepositLog::new);
        self.sweep_deposits.shrink_to_fit();
        // Rebuild the plane at the new width, migrating any undelivered
        // messages (a lossy fault plane can park deferred deposits between
        // sweeps). Deferred messages re-enter the deferred lane of the
        // holder's new owner — their delivery verdict is already spent, so
        // re-sending them through an outbox would draw a second verdict
        // and diverge from a run that never resharded. Queued messages
        // (never yet exchanged) re-enter outboxes and are counted as sent
        // at their first exchange, exactly as before the move. Both walks
        // preserve global `(src, dst, seq)` order, so the per-holder
        // delivery sequence is unchanged.
        let (deferred, queued) = self.plane.take_undelivered();
        let plane_stats = self.plane.stats().clone();
        self.plane = MessagePlane::new(shards);
        *self.plane.stats_mut() = plane_stats;
        let new_per = self.per;
        let route = move |d: &HintDeposit| d.holder.index() / new_per;
        for msg in deferred {
            let dst = route(&msg);
            self.plane.defer(dst, dst, msg);
        }
        if !queued.is_empty() {
            let (outboxes, _) = self.plane.split_mut();
            for msg in queued {
                let dst = route(&msg);
                outboxes[dst].send(dst, msg);
            }
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Stage-by-stage work counters of the network's last topology
    /// refresh. A driven world's mobility ticks run the
    /// mover-driven pipeline (mobility reports its movers, the grid and
    /// CSR adjacency are patched around them), and these counters are the
    /// observability hook: movers reported, grid entries re-bucketed,
    /// adjacency rows patched, neighborhoods rebuilt.
    pub fn pipeline_counters(&self) -> manet_routing::network::PipelineCounters {
        self.net.pipeline_counters()
    }

    /// The protocol configuration.
    pub fn config(&self) -> &CardConfig {
        &self.cfg
    }

    /// Message statistics accumulated so far.
    pub fn stats(&self) -> &MsgStats {
        &self.stats
    }

    /// Cumulative message-plane statistics (exchange rounds, sent, local
    /// vs cross-shard deliveries, metered validation crossings).
    pub fn plane_stats(&self) -> &PlaneStats {
        self.plane.stats()
    }

    /// Number of fault-delayed plane messages parked in the deferred lane
    /// for the next exchange. With this the plane ledger closes at any
    /// instant: `sent == local + cross_shard + dropped + deferred`.
    pub fn plane_deferred_pending(&self) -> usize {
        self.plane.deferred_pending()
    }

    /// Heap bytes held by the hint-deposit transport between sweeps: the
    /// deposit logs' runs and holder indexes plus the plane's outbox lanes,
    /// deferred lanes and mailboxes. Transient traffic that
    /// [`CardWorld::shard_memory_bytes`] (protocol state) leaves out.
    pub fn plane_buffer_bytes(&self) -> usize {
        self.hint_deposits.memory_bytes()
            + self
                .sweep_deposits
                .iter()
                .map(DepositLog::memory_bytes)
                .sum::<usize>()
            + self.plane.buffer_bytes()
    }

    /// Arm deterministic fault injection: from the next validation round
    /// on, `plan`'s node events, partition window, and message verdicts
    /// apply. The faulted history is a pure function of `(world seed,
    /// plan)` — identical at any shard or worker count and between the
    /// tick and event drivers (see the module docs).
    ///
    /// # Panics
    /// Panics if the plan schedules an event for a node outside this
    /// network.
    pub fn enable_faults(&mut self, plan: FaultPlan) {
        let n = self.net.node_count();
        assert!(
            plan.events().iter().all(|e| (e.node as usize) < n),
            "fault plan targets a node outside the network"
        );
        self.faults = Some(FaultRuntime {
            plan,
            state: FaultState::new(n),
            round: 0,
            crashes: 0,
            rejoins: 0,
            partitions_opened: 0,
            partitions_healed: 0,
            liveness_violations: 0,
            grid_audit_violations: 0,
            sweep_counter: 0,
        });
    }

    /// The live down/partition state, when faults are armed.
    pub fn fault_state(&self) -> Option<&FaultState> {
        self.faults.as_ref().map(|rt| &rt.state)
    }

    /// Lifecycle counters of the fault subsystem (all-zero when disabled).
    pub fn fault_report(&self) -> FaultReport {
        let mut r = FaultReport {
            retry: self.query_retry.stats().clone(),
            ..FaultReport::default()
        };
        if let Some(rt) = &self.faults {
            r.rounds_applied = rt.round;
            r.crashes = rt.crashes;
            r.rejoins = rt.rejoins;
            r.down_now = rt.state.down_count();
            r.partitions_opened = rt.partitions_opened;
            r.partitions_healed = rt.partitions_healed;
            r.partition_active = rt.state.partition_active();
            r.liveness_violations = rt.liveness_violations;
            r.grid_audit_violations = rt.grid_audit_violations;
        }
        r
    }

    /// Queries waiting in the retry queue.
    pub fn pending_query_retries(&self) -> usize {
        self.query_retry.len()
    }

    /// Execute the current fault round's scheduled events: crash/rejoin
    /// the listed nodes (a crash wipes the node's protocol state — table,
    /// backoff, held hints — and a rejoined node rebuilds through ordinary
    /// rule-5 re-selection), open or heal the partition window (sides
    /// frozen from live positions at the opening instant), and audit the
    /// grid residency of every event site (positions are untouched by
    /// radio-off faults, so any stale bucket is a pipeline bug).
    fn apply_fault_round(&mut self) {
        let per = self.per;
        let CardWorld {
            net,
            shards,
            hint_stats,
            faults,
            ..
        } = self;
        let Some(rt) = faults.as_mut() else {
            return;
        };
        let round = rt.round;
        rt.round += 1;
        let events = rt.plan.events_at(round).to_vec();
        let mut touched: Vec<NodeId> = Vec::with_capacity(events.len());
        for ev in events {
            let i = ev.node as usize;
            touched.push(NodeId::from(i));
            match ev.kind {
                NodeFaultKind::Crash => {
                    rt.state.set_down(i, true);
                    rt.crashes += 1;
                    let shard = &mut shards[i / per];
                    let k = i - shard.start;
                    shard.contacts[k].clear();
                    shard.backoff_remaining[k] = 0;
                    shard.backoff_level[k] = 0;
                    if let Some(store) = &mut shard.hints {
                        hint_stats.evicted_mobility +=
                            store.invalidate_node(NodeId::from(i)) as u64;
                    }
                }
                NodeFaultKind::Rejoin => {
                    rt.state.set_down(i, false);
                    rt.rejoins += 1;
                }
            }
        }
        if let Some(w) = rt.plan.partition().copied() {
            if round == w.start_round {
                let positions = net.positions();
                let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
                for p in positions {
                    min_x = min_x.min(p.x);
                    max_x = max_x.max(p.x);
                }
                let cut = min_x + w.fraction * (max_x - min_x);
                let sides = positions.iter().map(|p| u8::from(p.x > cut)).collect();
                rt.state.activate_partition(sides);
                rt.partitions_opened += 1;
            }
            if round == w.end_round && rt.state.partition_active() {
                rt.state.heal_partition();
                rt.partitions_healed += 1;
            }
        }
        if !touched.is_empty() {
            rt.grid_audit_violations += net.audit_grid_residency_nodes(&touched) as u64;
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
                    + s.backoff_remaining.len() * std::mem::size_of::<u32>()
                    + s.backoff_level.len() * std::mem::size_of::<u32>();
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

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The contact table of one node.
    pub fn contact_table(&self, node: NodeId) -> &ContactTable {
        let s = &self.shards[node.index() / self.per];
        &s.contacts[node.index() - s.start]
    }

    /// Read view over all contact tables, indexed by node id.
    pub fn contact_tables(&self) -> TablesView<'_> {
        TablesView {
            shards: &self.shards,
            per: self.per,
            n: self.net.node_count(),
        }
    }

    /// Total live contacts across all nodes.
    pub fn total_contacts(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.contacts.iter().map(ContactTable::len).sum::<usize>())
            .sum()
    }

    /// Mean live contacts per node.
    pub fn mean_contacts(&self) -> f64 {
        let n = self.net.node_count();
        if n == 0 {
            return 0.0;
        }
        self.total_contacts() as f64 / n as f64
    }

    /// `(time, total contacts)` after each validation round.
    pub fn contacts_series(&self) -> &TimeSeries {
        &self.contacts_series
    }

    /// Aggregated maintenance outcomes.
    pub fn maintenance_totals(&self) -> &MaintenanceTotals {
        &self.maintenance
    }

    /// Is the §V route-hint cache active?
    pub fn hints_enabled(&self) -> bool {
        self.hints_on
    }

    /// Enable or disable the route-hint cache at runtime. Enabling builds
    /// an empty span store in every shard from the config's sizing knobs;
    /// disabling drops the stores entirely (without a hint view a query
    /// never touches the subsystem, so a disabled world is bit-identical
    /// to one that never had hints).
    pub fn set_hints_enabled(&mut self, enabled: bool) {
        if enabled && !self.hints_on {
            let (spb, ttl) = (self.cfg.hint_slots_per_bucket, self.cfg.hint_ttl);
            for shard in &mut self.shards {
                shard.hints = Some(HintStore::new_span(shard.start, shard.len(), spb, ttl));
            }
            self.hints_on = true;
        } else if !enabled {
            for shard in &mut self.shards {
                shard.hints = None;
            }
            self.hints_on = false;
        }
    }

    /// Hint-subsystem counters accumulated so far (see [`HintStats`]).
    pub fn hint_stats(&self) -> &HintStats {
        &self.hint_stats
    }

    /// Reset the hint counters (phase-by-phase measurement).
    pub fn reset_hint_stats(&mut self) {
        self.hint_stats = HintStats::default();
    }

    /// Read view over the shard-owned hint spans, when enabled
    /// (observability, tests).
    pub fn hint_store(&self) -> Option<HintsView<'_>> {
        self.hints_on.then(|| HintsView {
            shards: &self.shards,
            per: self.per,
        })
    }

    /// Empty every hint span (cold-cache resets) without touching counters.
    pub fn clear_hints(&mut self) {
        for shard in &mut self.shards {
            if let Some(store) = &mut shard.hints {
                store.clear();
            }
        }
    }

    /// Evict hints held at nodes the last topology refresh dirtied.
    /// Correctness never depends on this — a surviving stale hint is
    /// caught by the probe's live contact-table check — it just keeps the
    /// `stale_contact` miss rate down under churn.
    fn evict_dirty_hints(&mut self) {
        if !self.hints_on {
            return;
        }
        let per = self.per;
        let CardWorld {
            net,
            shards,
            hint_stats,
            ..
        } = self;
        match net.dirty_report() {
            DirtyReport::All => {
                for shard in shards.iter_mut() {
                    if let Some(store) = &mut shard.hints {
                        hint_stats.evicted_mobility += store.invalidate_all() as u64;
                    }
                }
            }
            DirtyReport::Exact(dirty) => {
                for &node in dirty {
                    let shard = &mut shards[node.index() / per];
                    if let Some(store) = &mut shard.hints {
                        hint_stats.evicted_mobility += store.invalidate_node(node) as u64;
                    }
                }
            }
        }
    }

    /// Run contact selection (one pass over shuffled edge nodes, §III.C.1)
    /// for a single node, topping its table up toward NoC.
    pub fn select_contacts_for(&mut self, node: NodeId) {
        let i = node.index();
        let per = self.per;
        let CardWorld {
            net,
            cfg,
            stats,
            now,
            shards,
            ..
        } = self;
        let shard = &mut shards[i / per];
        let k = i - shard.start;
        select_contacts(
            net,
            cfg,
            node,
            &mut shard.contacts[k],
            &mut shard.rngs[k],
            stats,
            *now,
            ALL_EDGE_NODES,
            &mut shard.scratch,
        );
    }

    /// Initial contact selection for every node, fanned out over the
    /// protocol shards (see the module docs). Bit-identical to
    /// [`CardWorld::select_all_contacts_serial`].
    pub fn select_all_contacts(&mut self) {
        let CardWorld {
            net,
            cfg,
            stats,
            now,
            shards,
            ..
        } = self;
        let width = stats.bucket_width();
        let at = *now;
        let deltas = parallel_shard_map(shards, |_, shard| {
            let mut delta = MsgStats::new(width);
            for k in 0..shard.contacts.len() {
                select_contacts(
                    net,
                    cfg,
                    NodeId::from(shard.start + k),
                    &mut shard.contacts[k],
                    &mut shard.rngs[k],
                    &mut delta,
                    at,
                    ALL_EDGE_NODES,
                    &mut shard.scratch,
                );
            }
            delta
        });
        for delta in &deltas {
            stats.merge(delta);
        }
    }

    /// Serial reference for [`CardWorld::select_all_contacts`]: the same
    /// per-node work on the caller's thread, one node at a time. Kept (like
    /// `Network::refresh_full`) as the equivalence anchor for tests and the
    /// `select_all_contacts/*` benches.
    pub fn select_all_contacts_serial(&mut self) {
        for node in NodeId::all(self.net.node_count()) {
            self.select_contacts_for(node);
        }
    }

    /// One validation round for every node: validate paths (healing with
    /// local recovery), drop rule-4 violators, then — per §III.C.3 rule 5 —
    /// re-select toward NoC. The sweep fans out over the protocol shards;
    /// [`CardWorld::validation_round_serial`] is the bit-identical serial
    /// reference. Span-boundary crossings of the validated paths are
    /// metered into [`PlaneStats::metered_crossings`]. With a fault plan
    /// armed the round first applies its scheduled fault events and
    /// re-runs the due query retries after the sweep — fused here so a
    /// driven and a hand-stepped world see one fault history. The round
    /// ends by rechecking every standing query (nothing on an empty
    /// table), which makes this *the* round entry either way.
    ///
    /// Re-selection is throttled twice, which is what keeps steady-state
    /// overhead at the per-node magnitudes of Figs 10–13 (the paper's
    /// steady state is essentially validation-only):
    /// * at most `cfg.selection_walks_per_round` CSQs per node per round
    ///   ("one at a time", §III.C.1);
    /// * exponential backoff after fruitless rounds — a node whose
    ///   selection attempt yields nothing skips `2^level − 1` rounds
    ///   (level capped at 5), resetting on any success. Saturated nodes
    ///   (NoC above the annulus capacity) therefore go quiet instead of
    ///   re-sweeping the region every period.
    pub fn validation_round(&mut self) {
        self.run_validation_round(true);
    }

    /// Serial reference for [`CardWorld::validation_round`]: the same
    /// round with the shards mapped in order on the caller's thread.
    pub fn validation_round_serial(&mut self) {
        self.run_validation_round(false);
    }

    /// The one round body. Its fault stages no-op on a calm world:
    /// [`CardWorld::apply_fault_round`] without a plan, the span body's
    /// fault block without a fault view, the retry drain on an empty queue.
    fn run_validation_round(&mut self, fan_out: bool) {
        self.apply_fault_round();
        let per = self.per;
        let CardWorld {
            net,
            cfg,
            stats,
            now,
            maintenance,
            shards,
            plane,
            faults,
            ..
        } = self;
        let fault_view = faults
            .as_ref()
            .map(|rt| (&rt.plan, &rt.state, rt.round - 1));
        let width = stats.bucket_width();
        let at = *now;
        let span = |shard: &mut ProtocolShard| {
            Self::validate_span(net, cfg, shard, at, width, per, fault_view)
        };
        let deltas: Vec<ShardDelta> = if fan_out {
            parallel_shard_map(shards, |_, shard| span(shard))
        } else {
            shards.iter_mut().map(span).collect()
        };
        let mut liveness = 0u64;
        for delta in &deltas {
            stats.merge(&delta.stats);
            maintenance.merge(&delta.maintenance);
            plane.stats_mut().metered_crossings += delta.crossings;
            liveness += delta.liveness_violations;
        }
        if let Some(rt) = faults {
            rt.liveness_violations += liveness;
        }
        self.advance_hint_epochs();
        self.contacts_series
            .push(self.now, self.total_contacts() as f64);
        self.drain_query_retries();
        // Maintenance may rewrite contact tables wholesale, so every
        // standing chain is rechecked (a broken subscription uses the
        // round as its retry heartbeat).
        if !self.standing.is_empty() {
            self.standing.mark_all();
            self.standing_revalidate_marked();
        }
    }

    /// Advance the freshness epoch of every hint span (all spans move
    /// together; the epoch is global).
    fn advance_hint_epochs(&mut self) {
        if !self.hints_on {
            return;
        }
        for shard in &mut self.shards {
            if let Some(store) = &mut shard.hints {
                store.advance_epoch();
            }
        }
    }

    /// The per-shard body of a validation round: validate every node of the
    /// span, then (throttled) re-select. Touches only shard-owned state and
    /// the immutable network; emits its message/maintenance counters and
    /// metered path crossings as a delta for in-order merging.
    ///
    /// Under a fault view `(plan, state, round)`, per up node: tombstone
    /// confirmed-dead contacts (evicted now, barred from re-selection until
    /// the TTL expires), hold out contacts inside a retry window or whose
    /// probe the plan loses this round (unacked probes extend the window;
    /// past `cfg.validation_retry_cap` the contact is dropped) and validate
    /// the rest with crashed/partitioned hops vetoed (including
    /// local-recovery splices). Crashed nodes send nothing and maintain
    /// nothing. The in-run liveness check counts any tombstone observed
    /// past its TTL before the round's decay.
    fn validate_span(
        net: &Network,
        cfg: &CardConfig,
        shard: &mut ProtocolShard,
        at: SimTime,
        bucket_width: SimDuration,
        per: usize,
        fault_view: Option<(&FaultPlan, &FaultState, u32)>,
    ) -> ShardDelta {
        let mut delta = ShardDelta {
            stats: MsgStats::new(bucket_width),
            maintenance: MaintenanceTotals::default(),
            crossings: 0,
            liveness_violations: 0,
        };
        let mut ids: Vec<NodeId> = Vec::new();
        let mut held: Vec<crate::contact::Contact> = Vec::new();
        for k in 0..shard.contacts.len() {
            let node = NodeId::from(shard.start + k);
            if fault_view.is_some_and(|(_, state, _)| state.is_down(node.index())) {
                // Radio off: no probes, no selection; the table was wiped
                // at the crash and stays empty until rejoin.
                continue;
            }
            let table = &mut shard.contacts[k];
            // Meter the validation traffic this node is about to send down
            // its stored paths: every span-boundary crossing is a message
            // the plane would carry if validation were materialized.
            for c in table.contacts() {
                delta.crossings += path_shard_crossings(&c.path, per);
            }
            if let Some((plan, state, round)) = fault_view {
                // Confirmed-dead contacts: tombstoned up front so neither
                // validation nor this round's re-selection resurrects them.
                ids.clear();
                ids.extend(table.contacts().iter().map(|c| c.id));
                for &c in &ids {
                    if state.is_down(c.index()) {
                        table.tombstone(c, cfg.tombstone_ttl);
                        delta.maintenance.lost += 1;
                    }
                }
                // Retry windows: a contact mid-window skips this round's
                // probe; a probe the plan loses goes unacked — its hops are
                // still charged, the window doubles, and past the cap the
                // contact is dropped.
                ids.clear();
                ids.extend(table.contacts().iter().map(|c| c.id));
                for &c in &ids {
                    let in_window = table.retry_skip(c);
                    if !in_window
                        && !plan.validation_lost(node.index() as u32, c.index() as u32, round)
                    {
                        continue;
                    }
                    let cs = table.contacts_mut();
                    let pos = cs
                        .iter()
                        .position(|x| x.id == c)
                        .expect("held-out contact present");
                    let entry = cs.remove(pos);
                    if in_window {
                        held.push(entry);
                        continue;
                    }
                    delta
                        .stats
                        .record_n(at, MsgKind::Validation, entry.hops() as u64);
                    let level = table.note_unacked(c);
                    if level > cfg.validation_retry_cap {
                        table.clear_retry(c);
                        delta.maintenance.lost += 1;
                    } else {
                        held.push(entry);
                    }
                }
            }
            let stats = &mut delta.stats;
            let report = match fault_view {
                None => validate_contacts(net, cfg, node, table, stats, at, any_edge),
                Some((_, state, _)) => {
                    validate_contacts(net, cfg, node, table, stats, at, |a, b| {
                        state.link_allowed(a.index(), b.index())
                    })
                }
            };
            delta.maintenance.absorb(&report);
            if fault_view.is_some() {
                // An acked validation resets the contact's retry state.
                ids.clear();
                ids.extend(table.contacts().iter().map(|c| c.id));
                for &c in &ids {
                    table.clear_retry(c);
                }
                // Re-admit the held-out contacts, windows intact.
                table.contacts_mut().append(&mut held);
                // Liveness: no tombstone may be observed past its TTL.
                if table.max_tombstone_ttl() > cfg.tombstone_ttl {
                    delta.liveness_violations += 1;
                }
                table.decay_tombstones();
            }
            if table.len() >= cfg.target_contacts {
                shard.backoff_level[k] = 0;
                shard.backoff_remaining[k] = 0;
                continue;
            }
            if shard.backoff_remaining[k] > 0 {
                shard.backoff_remaining[k] -= 1;
                continue;
            }
            let before = table.len();
            select_contacts(
                net,
                cfg,
                node,
                table,
                &mut shard.rngs[k],
                &mut delta.stats,
                at,
                cfg.selection_walks_per_round,
                &mut shard.scratch,
            );
            if table.len() > before {
                shard.backoff_level[k] = 0;
                shard.backoff_remaining[k] = 0;
            } else {
                shard.backoff_level[k] = (shard.backoff_level[k] + 1).min(MAX_BACKOFF_LEVEL);
                shard.backoff_remaining[k] = (1u32 << shard.backoff_level[k]) - 1;
            }
        }
        delta
    }

    /// Issue a resource-discovery query (§III.C.4) from `source` for
    /// `target`, escalating depth up to `cfg.depth`. Runs allocation-free
    /// on the world's first query scratch; batches should prefer
    /// [`CardWorld::query_all`]. With the route-hint cache enabled, the
    /// cache is consulted first and deposits from a resolved query are
    /// applied to their owner shards immediately (live queries warm the
    /// very next call; this host-local apply is the plane's one-round
    /// degenerate case — a single query's deposits drain in log order).
    /// Under an armed fault plan a failed query enters the retry queue.
    pub fn query(&mut self, source: NodeId, target: NodeId) -> QueryOutcome {
        let out = self.query_once(source, Goal::Node(target));
        if self.faults.is_some() && !out.found {
            self.query_retry.schedule(source, target);
        }
        out
    }

    /// One live query through the shared per-pair body, recorded at `now`,
    /// without retry scheduling (the retry drain calls this directly so a
    /// re-run never re-queues itself — [`QueryRetryQueue::report`] owns the
    /// requeue decision).
    fn query_once(&mut self, source: NodeId, goal: Goal<'_>) -> QueryOutcome {
        let per = self.per;
        let CardWorld {
            net,
            cfg,
            stats,
            now,
            shards,
            query_scratch,
            hints_on,
            hint_stats,
            hint_deposits,
            faults,
            ..
        } = self;
        hint_deposits.clear();
        let out = QueryView::over(net, shards, per, *hints_on, cfg.depth, faults).query(
            source,
            goal,
            &mut QuerySink {
                scratch: &mut query_scratch[0],
                hint_stats: &mut *hint_stats,
                deposits: &mut *hint_deposits,
            },
        );
        Self::apply_deposits_to_shards(shards, per, hint_stats, hint_deposits);
        out.recorded(stats, *now)
    }

    /// Advance the retry queue one round and re-run the due queries,
    /// feeding outcomes back (recovered / requeued with doubled backoff /
    /// abandoned past the cap).
    fn drain_query_retries(&mut self) {
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

    /// Apply a deposit log to the holders' owner shards in log order,
    /// counting writes and LRU evictions.
    fn apply_deposits_to_shards(
        shards: &mut [ProtocolShard],
        per: usize,
        stats: &mut HintStats,
        deposits: &DepositLog,
    ) {
        for d in deposits.runs() {
            shards[d.holder.index() / per]
                .hints
                .as_mut()
                .expect("deposit into a world without hint stores")
                .deposit(d, stats);
        }
    }

    /// Run a batch of queries — one DSQ per `(source, target)` pair,
    /// escalating up to `cfg.depth` — fanned out over the protocol shards
    /// (the *pair list* is sharded; see the module docs), returning the
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
            query_scratch,
            hints_on,
            hint_stats,
            sweep_deposits,
            faults,
            ..
        } = self;
        let view = QueryView::over(net, shards, per, *hints_on, cfg.depth, faults);
        // Each span owns its slice of the pair list, the matching slice of
        // the output buffer (written in place — no per-span collection),
        // one walk scratch and one deposit log.
        let spans = shard_spans(pairs.len(), query_scratch.len());
        let mut work = Vec::with_capacity(spans.len());
        let mut out_rest: &mut [QueryOutcome] = out;
        let mut lanes = query_scratch.iter_mut().zip(sweep_deposits.iter_mut());
        for span in spans {
            let (slots, rest) = out_rest.split_at_mut(span.end - span.start);
            out_rest = rest;
            let (scratch, deposits) = lanes.next().expect("span count exceeds shard count");
            work.push((&pairs[span], slots, scratch, deposits));
        }
        let deltas = parallel_shard_map(&mut work, |_, (pairs, slots, scratch, deposits)| {
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
            self.exchange_sweep_deposits();
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

    /// The deposit stage of a hinted sweep: route the per-span deposit logs
    /// through the message plane to each holder's owner shard and apply
    /// them in a parallel drain phase.
    ///
    /// Delivery order makes the drain deterministic: a mailbox is sorted
    /// by `(source shard, send sequence)` and sends happen in pair order
    /// within each source shard, so the deposit sequence each holder
    /// observes is the global pair order restricted to that holder —
    /// bit-identical at any worker or shard count (pinned by
    /// `tests/hint_cache.rs` and `tests/message_plane.rs`). A run stands
    /// for its copies at the position of its first one; since it only
    /// ever absorbed pushes made while it was its holder's latest entry,
    /// the expanded sequence is unchanged.
    fn exchange_sweep_deposits(&mut self) {
        let per = self.per;
        let CardWorld {
            shards,
            hint_stats,
            sweep_deposits,
            plane,
            faults,
            ..
        } = self;
        {
            let (outboxes, _) = plane.split_mut();
            for (src, deposits) in sweep_deposits.iter_mut().enumerate() {
                for &d in deposits.runs() {
                    outboxes[src].send(d.holder.index() / per, d);
                }
                deposits.clear();
            }
        }
        // A lossy fault plane judges each deposit by its *content* (plus a
        // shard-invariant sweep salt, so identical payloads in different
        // sweeps draw independent verdicts) — never by transport
        // coordinates — keeping faulted deliveries bit-identical at any
        // shard count. The key leaves out a run's `count`: every copy
        // would draw the run's one verdict. Delayed deposits park in the
        // plane's deferred lane and land at the next exchange.
        match faults.as_mut().filter(|rt| rt.plan.lossy()) {
            Some(rt) => {
                rt.sweep_counter += 1;
                let sweep = rt.sweep_counter;
                let plan = &rt.plan;
                plane.exchange_faulted(|_, _, d| {
                    plan.message_verdict(FaultPlan::salted_key(&[
                        d.holder.index() as u64,
                        d.next_hop.index() as u64,
                        d.depth as u64,
                        d.key.bits(),
                        sweep,
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
        let (_, mailboxes) = plane.split_mut();
        let mut drains: Vec<_> = shards.iter_mut().zip(mailboxes.iter_mut()).collect();
        let applied = parallel_shard_map(&mut drains, |_, (shard, mailbox)| {
            let mut delta = HintStats::default();
            let store = shard
                .hints
                .as_mut()
                .expect("hinted sweep without span stores");
            for (_src, d) in mailbox.drain() {
                store.deposit(&d, &mut delta);
            }
            delta
        });
        for delta in &applied {
            hint_stats.merge(delta);
        }
    }

    /// Serial reference for [`CardWorld::query_all`]: the same queries one
    /// at a time on the caller's thread, recording straight into the
    /// world's statistics. Kept (like the `*_serial` protocol sweeps) as
    /// the equivalence anchor for `tests/query_engine.rs` and the
    /// `query_sweep/*` benches.
    pub fn query_all_serial(&mut self, pairs: &[(NodeId, NodeId)]) -> Vec<QueryOutcome> {
        pairs.iter().map(|&(s, t)| self.query(s, t)).collect()
    }

    /// Reachability distribution at contact depth `depth` (Figs 5–9).
    pub fn reachability_summary(&self, depth: u16) -> ReachabilitySummary {
        ReachabilitySummary::compute(&self.net, self.contact_tables(), depth)
    }

    /// Run the mobile protocol for `duration` under [`EventDriver`]'s
    /// production schedule: mobility wake-ups on the `cfg.mobility_tick`
    /// lattice, validation rounds every `cfg.validation_period`, no
    /// workload. Virtual time (`now()`), statistics and the contacts series
    /// all advance, and a later call continues the timeline — but each
    /// call is one *fresh* schedule whose tick lattice restarts at `now()`
    /// and whose first round runs at once. To stack segments on one
    /// lattice (`d` twice ≡ `2 d` once), hold an [`EventDriver`] and
    /// `drive` it per segment.
    pub fn run_mobile(&mut self, model: &mut dyn MobilityModel, duration: SimDuration) {
        EventDriver::new(self, model, DriveMode::Event, Vec::new()).drive(self, model, duration);
    }

    // -----------------------------------------------------------------
    // What `crate::events::EventDriver` steps a world through, besides
    // `validation_round`, `query` and `standing_register`.
    // -----------------------------------------------------------------

    /// Advance the virtual clock to `t` (event delivery). Never rewinds.
    pub(crate) fn set_now(&mut self, t: SimTime) {
        debug_assert!(t >= self.now, "virtual time must not rewind");
        self.now = t;
    }

    /// Mutable node positions for the driver's per-region mobility
    /// advances; every mutation must be followed by
    /// [`CardWorld::event_mobility_refresh`] with the mover report.
    pub(crate) fn positions_mut(&mut self) -> &mut [net_topology::geometry::Point2] {
        self.net.positions_mut()
    }

    /// The post-motion half of a mobility tick: refresh connectivity
    /// around `movers`, evict route hints held at dirty nodes (they point
    /// along links that may be gone), revalidate the standing queries
    /// whose chains the dirty set touches, and (only when something moved
    /// — so both drive modes advance the sampling cursor identically) run
    /// the sampled grid-residency audit. Returns the number of audit
    /// violations (0 in a healthy pipeline).
    pub fn event_mobility_refresh(&mut self, movers: &[NodeId], audit_samples: usize) -> usize {
        self.net.refresh_movers(movers);
        self.evict_dirty_hints();
        if !self.standing.is_empty() {
            match self.net.dirty_report() {
                DirtyReport::All => self.standing.mark_all(),
                DirtyReport::Exact(dirty) => {
                    for &node in dirty {
                        self.standing.mark_node_dirty(node);
                    }
                }
            }
            self.standing_revalidate_marked();
        }
        if movers.is_empty() || audit_samples == 0 {
            0
        } else {
            self.net.audit_grid_residency(audit_samples)
        }
    }

    /// Register a standing subscription from `source` for `target` and
    /// resolve it immediately (a fresh escalation, recorded as
    /// `StandingDsq`/`StandingReply` messages). Returns the query id; the
    /// subscription is kept resolved by the event pipeline from here on.
    pub fn standing_register(&mut self, source: NodeId, target: NodeId) -> u32 {
        let id = self.standing.register(source, target, self.now);
        self.standing_resolve(id, true);
        id
    }

    /// The standing-query table (chains, states, lifecycle counters).
    pub fn standing_queries(&self) -> &StandingQueries {
        &self.standing
    }

    /// Resolve (or re-resolve) standing query `id` through the shared
    /// per-pair body, without the hint cache: depth-0 if the target sits in
    /// the source's own neighborhood, otherwise a full escalation whose
    /// answer chain is captured from the walk's parent pointers. Under
    /// faults a crashed endpoint fails the subscription outright (the
    /// round heartbeat re-marks it, so a rejoin re-resolves).
    fn standing_resolve(&mut self, id: u32, initial: bool) {
        let per = self.per;
        let CardWorld {
            net,
            cfg,
            stats,
            now,
            shards,
            query_scratch,
            hint_stats,
            hint_deposits,
            standing,
            faults,
            ..
        } = self;
        let (source, target) = {
            let q = standing.get(id);
            (q.source, q.target)
        };
        let scratch = &mut query_scratch[0];
        let out = QueryView::over(net, shards, per, false, cfg.depth, faults).query(
            source,
            Goal::Node(target),
            // A view without hint spans leaves the hint half untouched.
            &mut QuerySink {
                scratch: &mut *scratch,
                hint_stats,
                deposits: hint_deposits,
            },
        );
        stats.record_n(*now, MsgKind::StandingDsq, out.query_msgs);
        stats.record_n(*now, MsgKind::StandingReply, out.reply_msgs);
        if !out.found {
            standing.set_failed(id);
            return;
        }
        let own_zone = [source];
        let path: &[NodeId] = if out.depth_used > 0 {
            let answer = scratch.walk.answerer();
            scratch
                .walk
                .walk_path(answer.expect("a resolved escalation has an answerer"))
        } else {
            &own_zone
        };
        standing.set_resolved(id, path, *now, initial);
    }

    /// Probe standing query `id`'s cached chain against the live contact
    /// and neighborhood tables: each consecutive pair must still be a live
    /// contact (charging its path hops as probe messages), and the target
    /// must still sit in the tail's neighborhood (a free local check).
    fn standing_probe(&self, id: u32) -> (bool, u64) {
        let q = self.standing.get(id);
        // Fault-aware fast fail: a chain through a crashed node, or one
        // whose endpoints straddle an open partition, cannot answer probes.
        if let Some(rt) = &self.faults {
            if rt.state.is_down(q.target.index())
                || q.path.iter().any(|&p| rt.state.is_down(p.index()))
                || q.path
                    .windows(2)
                    .any(|w| !rt.state.link_allowed(w[0].index(), w[1].index()))
            {
                return (false, 0);
            }
        }
        let mut msgs = 0u64;
        for w in q.path.windows(2) {
            match self.contact_table(w[0]).get(w[1]) {
                Some(c) => msgs += c.hops() as u64,
                None => return (false, msgs),
            }
        }
        let last = *q.path.last().expect("resolved chain is non-empty");
        (self.net.tables().of(last).contains(q.target), msgs)
    }

    /// Drain the pending revalidation marks in id order: probe resolved
    /// chains (breaking failures), then immediately re-resolve everything
    /// broken. A failed re-resolve stays broken until the next mark.
    fn standing_revalidate_marked(&mut self) {
        if !self.standing.has_marks() {
            return;
        }
        let mut ids = std::mem::take(&mut self.standing_ids);
        self.standing.take_marked(&mut ids);
        for &id in &ids {
            self.standing.note_revalidation();
            if self.standing.get(id).is_resolved() {
                let (valid, probe_msgs) = self.standing_probe(id);
                self.stats
                    .record_n(self.now, MsgKind::StandingProbe, probe_msgs);
                if valid {
                    continue;
                }
                self.standing.record_break(id, self.now);
            }
            self.standing_resolve(id, false);
        }
        ids.clear();
        self.standing_ids = ids;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SelectionMethod;
    use mobility::statics::StaticModel;
    use mobility::waypoint::RandomWaypoint;

    fn scenario() -> Scenario {
        Scenario::new(150, 500.0, 500.0, 60.0)
    }

    fn cfg() -> CardConfig {
        CardConfig::default()
            .with_radius(2)
            .with_max_contact_distance(8)
            .with_target_contacts(4)
            .with_seed(21)
    }

    #[test]
    fn build_and_select() {
        let mut w = CardWorld::build(&scenario(), cfg());
        assert_eq!(w.network().node_count(), 150);
        assert_eq!(w.total_contacts(), 0);
        w.select_all_contacts();
        assert!(
            w.total_contacts() > 0,
            "a 150-node network must yield contacts"
        );
        assert!(w.mean_contacts() <= 4.0);
        assert!(w.stats().total(MsgKind::Csq) > 0);
    }

    #[test]
    fn selection_raises_reachability() {
        let mut w = CardWorld::build(&scenario(), cfg());
        let before = w.reachability_summary(1).mean_pct;
        w.select_all_contacts();
        let after = w.reachability_summary(1).mean_pct;
        assert!(
            after > before,
            "contacts must increase mean reachability ({before:.1}% -> {after:.1}%)"
        );
    }

    #[test]
    fn deterministic_end_to_end() {
        let run = || {
            let mut w = CardWorld::build(&scenario(), cfg());
            w.select_all_contacts();
            let mut model = RandomWaypoint::new(
                150,
                w.network().field(),
                1.0,
                10.0,
                0.0,
                SeedSplitter::new(w.config().seed).stream("mobility", 0),
            );
            w.run_mobile(&mut model, SimDuration::from_secs(3));
            (
                w.total_contacts(),
                w.stats().grand_total(),
                w.maintenance_totals().clone(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mobile_run_populates_pipeline_counters() {
        let mut w = CardWorld::build(&scenario(), cfg());
        let mut model = RandomWaypoint::new(
            150,
            w.network().field(),
            0.5,
            2.0,
            0.0,
            SeedSplitter::new(7).stream("mobility", 0),
        );
        w.run_mobile(&mut model, SimDuration::from_secs(2));
        let c = w.pipeline_counters();
        assert!(
            c.movers_reported > 0,
            "zero-pause RWP ticks must report movers"
        );
        // the accessor must surface the network's own counters, not a copy
        // that can drift
        assert_eq!(c, w.network().pipeline_counters());
        assert_eq!(c.changed, w.network().last_changed_count());
        assert_eq!(c.dirty, w.network().last_dirty_count());
    }

    #[test]
    fn static_run_keeps_contacts_and_counts_maintenance() {
        let mut w = CardWorld::build(&scenario(), cfg());
        w.select_all_contacts();
        let contacts_before = w.total_contacts();
        w.run_mobile(&mut StaticModel, SimDuration::from_secs(4));
        // static topology: nothing lost, nothing out of range; re-selection
        // passes (rule 5) may only ADD contacts for nodes still below NoC
        assert!(w.total_contacts() >= contacts_before);
        assert_eq!(w.maintenance_totals().lost, 0);
        assert_eq!(w.maintenance_totals().dropped_out_of_range, 0);
        assert!(
            w.stats().total(MsgKind::Validation) > 0,
            "validation still polls"
        );
        // validation rounds happened at ~0,1,2,3 s (round at 4s is at the horizon)
        assert_eq!(w.contacts_series().len(), 4);
        assert_eq!(w.now(), SimTime::from_secs(4));
    }

    #[test]
    fn mobile_run_loses_and_reselects() {
        let mut w = CardWorld::build(&scenario(), cfg());
        w.select_all_contacts();
        let mut model = RandomWaypoint::new(
            150,
            w.network().field(),
            10.0,
            20.0,
            0.0,
            SeedSplitter::new(7).stream("mobility", 0),
        );
        w.run_mobile(&mut model, SimDuration::from_secs(6));
        let totals = w.maintenance_totals();
        assert!(
            totals.lost + totals.dropped_out_of_range > 0,
            "fast mobility should break some contact paths"
        );
        assert!(w.stats().total(MsgKind::Validation) > 0);
        // re-selection kept tables alive
        assert!(w.total_contacts() > 0);
    }

    #[test]
    fn local_recovery_heals_under_mild_mobility() {
        let mut config = cfg();
        config.validation_period = SimDuration::from_secs(1);
        let mut w = CardWorld::build(&scenario(), config);
        w.select_all_contacts();
        let mut model = RandomWaypoint::new(
            150,
            w.network().field(),
            3.0,
            8.0,
            0.0,
            SeedSplitter::new(9).stream("mobility", 0),
        );
        w.run_mobile(&mut model, SimDuration::from_secs(8));
        assert!(
            w.maintenance_totals().recovered > 0,
            "mild mobility should exercise local recovery"
        );
    }

    #[test]
    fn standing_queries_are_rechecked_by_mobile_runs_and_by_hand_stepped_rounds() {
        let mut w = CardWorld::build(&scenario(), cfg());
        w.select_all_contacts();
        for i in 0..20 {
            w.standing_register(NodeId::new(i), NodeId::new(149 - i));
        }
        let mut model = RandomWaypoint::new(
            150,
            w.network().field(),
            5.0,
            10.0,
            0.0,
            SeedSplitter::new(7).stream("mobility", 0),
        );
        w.run_mobile(&mut model, SimDuration::from_secs(6));
        let driven = w.standing_queries().stats().revalidations;
        assert!(driven > 0, "a mobile run must recheck its subscriptions");
        // A round stepped by hand rechecks every subscription once.
        w.validation_round();
        assert_eq!(w.standing_queries().stats().revalidations, driven + 20);
    }

    #[test]
    fn timeline_continues_across_runs() {
        let mut w = CardWorld::build(&scenario(), cfg());
        w.select_all_contacts();
        w.run_mobile(&mut StaticModel, SimDuration::from_secs(2));
        assert_eq!(w.now(), SimTime::from_secs(2));
        w.run_mobile(&mut StaticModel, SimDuration::from_secs(2));
        assert_eq!(w.now(), SimTime::from_secs(4));
        // series timestamps are strictly increasing across the two runs
        let times: Vec<_> = w
            .contacts_series()
            .points()
            .iter()
            .map(|(t, _)| *t)
            .collect();
        for pair in times.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn query_uses_world_state() {
        let mut w = CardWorld::build(&scenario(), cfg().with_depth(3));
        w.select_all_contacts();
        // find some target beyond the source's neighborhood but reachable
        let source = NodeId::new(0);
        let reach =
            crate::reachability::reachability_set(w.network(), w.contact_tables(), source, 3);
        let nb = w.network().tables().of(source);
        let beyond: Vec<usize> = reach
            .iter()
            .filter(|&i| !nb.contains(NodeId::from(i)))
            .collect();
        if let Some(&target) = beyond.first() {
            let out = w.query(source, NodeId::from(target));
            assert!(
                out.found,
                "target inside the depth-3 reach set must be found"
            );
            assert!(out.depth_used >= 1);
            assert!(out.query_msgs > 0);
        }
    }

    #[test]
    fn query_all_matches_serial_and_per_query_paths() {
        let pairs: Vec<(NodeId, NodeId)> = (0..60u32)
            .map(|i| (NodeId::new(i % 150), NodeId::new((i * 37 + 5) % 150)))
            .collect();
        let build = |shards: Option<usize>| {
            let mut w = CardWorld::build(&scenario(), cfg().with_depth(3));
            if let Some(k) = shards {
                w.set_shard_count(k);
            }
            w.select_all_contacts();
            w
        };
        let mut serial = build(Some(1));
        let expected_outcomes = serial.query_all_serial(&pairs);
        let expected_series = serial.stats().series_where(|_| true);
        for shards in [None, Some(1), Some(3), Some(60), Some(500)] {
            let mut par = build(shards);
            let outcomes = par.query_all(&pairs);
            assert_eq!(outcomes, expected_outcomes, "shards {shards:?}");
            assert_eq!(
                par.stats().series_where(|_| true),
                expected_series,
                "stats diverged at shard count {shards:?}"
            );
        }
        // and the one-at-a-time path agrees too
        let mut loose = build(None);
        let one_by_one: Vec<QueryOutcome> = pairs.iter().map(|&(s, t)| loose.query(s, t)).collect();
        assert_eq!(one_by_one, expected_outcomes);
    }

    #[test]
    fn query_all_handles_empty_and_repeated_sweeps() {
        let mut w = CardWorld::build(&scenario(), cfg().with_depth(2));
        w.select_all_contacts();
        assert!(w.query_all(&[]).is_empty());
        let pairs = vec![(NodeId::new(0), NodeId::new(100)); 8];
        let first = w.query_all(&pairs);
        let second = w.query_all(&pairs); // scratch reuse across sweeps
        assert_eq!(first, second);
    }

    #[test]
    #[should_panic(expected = "network zone radius")]
    fn radius_mismatch_rejected() {
        let net = Network::from_scenario(&scenario(), 3, 1);
        let _ = CardWorld::from_network(net, cfg()); // cfg has R=2
    }

    #[test]
    fn saturated_nodes_back_off_selection() {
        // A tiny NoC-unreachable configuration: after a few fruitless
        // rounds, selection traffic per round must fall toward zero even
        // though tables stay below NoC.
        let mut config = cfg().with_target_contacts(50); // far above capacity
        config.validation_period = SimDuration::from_secs(1);
        let mut w = CardWorld::build(&scenario(), config);
        w.select_all_contacts();
        // run long enough for the backoff to reach its cap
        w.run_mobile(&mut StaticModel, SimDuration::from_secs(12));
        let early: u64 = (0..3)
            .map(|b| w.stats().in_bucket_where(b, MsgKind::is_selection))
            .sum();
        let late: u64 = (3..6)
            .map(|b| w.stats().in_bucket_where(b, MsgKind::is_selection))
            .sum();
        assert!(
            late < early / 2,
            "backoff should quiesce fruitless selection (early {early}, late {late})"
        );
        assert!(w.mean_contacts() < 50.0, "capacity is genuinely below NoC");
    }

    #[test]
    fn backoff_resets_when_a_contact_is_found() {
        // With NoC at capacity, nodes that reach NoC keep level 0: the
        // series stays stable and the maintenance counters keep moving.
        let mut w = CardWorld::build(&scenario(), cfg());
        w.select_all_contacts();
        let before = w.maintenance_totals().validated;
        w.run_mobile(&mut StaticModel, SimDuration::from_secs(3));
        assert!(w.maintenance_totals().validated > before);
    }

    /// Per-node contact (id, path) lists — the full observable table state.
    type TableSnapshot = Vec<Vec<(NodeId, Vec<NodeId>)>>;

    /// Full comparable state snapshot: contact tables (ids + paths),
    /// backoff state, stats totals and bucket series, maintenance totals.
    fn snapshot(w: &CardWorld) -> (TableSnapshot, Vec<u64>, MaintenanceTotals) {
        let tables: TableSnapshot = w
            .contact_tables()
            .iter()
            .map(|t| {
                t.contacts()
                    .iter()
                    .map(|c| (c.id, c.path.clone()))
                    .collect()
            })
            .collect();
        let series = w.stats().series_where(|_| true);
        (tables, series, w.maintenance_totals().clone())
    }

    #[test]
    fn parallel_sweeps_match_serial_reference() {
        let build = |shards: Option<usize>| {
            let mut w = CardWorld::build(&scenario(), cfg());
            if let Some(k) = shards {
                w.set_shard_count(k);
            }
            w
        };
        let mut serial = build(Some(1));
        serial.select_all_contacts_serial();
        serial.validation_round_serial();
        serial.validation_round_serial();
        let expected = snapshot(&serial);
        for shards in [None, Some(1), Some(3), Some(150), Some(1000)] {
            let mut par = build(shards);
            par.select_all_contacts();
            par.validation_round();
            par.validation_round();
            assert_eq!(
                snapshot(&par),
                expected,
                "sharded sweep diverged at shard count {shards:?}"
            );
        }
    }

    #[test]
    fn shard_count_is_settable_and_bounded() {
        let mut w = CardWorld::build(&scenario(), cfg());
        assert!(w.shard_count() >= 1);
        w.set_shard_count(7);
        assert_eq!(w.shard_count(), 7);
        w.select_all_contacts();
        assert!(w.total_contacts() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one protocol shard")]
    fn zero_shards_rejected() {
        CardWorld::build(&scenario(), cfg()).set_shard_count(0);
    }

    #[test]
    fn hints_toggle_round_trip() {
        let mut w = CardWorld::build(&scenario(), cfg());
        assert!(!w.hints_enabled());
        assert!(w.hint_store().is_none());
        w.set_hints_enabled(true);
        assert!(w.hints_enabled());
        let store = w.hint_store().expect("enabled world has a store");
        assert_eq!(store.node_count(), 150);
        assert!(store.is_empty());
        w.set_hints_enabled(true); // idempotent: must not rebuild/clear
        w.set_hints_enabled(false);
        assert!(!w.hints_enabled());
        // a world built with hints in the config starts enabled
        let w2 = CardWorld::build(&scenario(), cfg().with_hints(true));
        assert!(w2.hints_enabled());
    }

    #[test]
    fn hinted_queries_agree_with_cache_off_on_found() {
        // Hints may only change the *cost* of a query, never its answer:
        // across repeated (warming) sweeps, every outcome's `found` verdict
        // must match the same sweep on a hints-off twin.
        let pairs: Vec<(NodeId, NodeId)> = (0..80u32)
            .map(|i| (NodeId::new(i % 150), NodeId::new((i * 13 + 31) % 150)))
            .collect();
        let mut base = CardWorld::build(&scenario(), cfg().with_depth(3));
        base.select_all_contacts();
        let mut hinted = CardWorld::build(&scenario(), cfg().with_depth(3).with_hints(true));
        hinted.select_all_contacts();
        let expected = base.query_all(&pairs);
        for sweep in 0..3 {
            let got = hinted.query_all(&pairs);
            assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g.found, e.found, "answer flipped on sweep {sweep}");
            }
        }
        let stats = hinted.hint_stats();
        assert!(stats.lookups > 0, "hinted sweeps must consult the cache");
        assert!(stats.deposits > 0, "resolved queries must deposit hints");
        assert!(
            stats.hits > 0,
            "the repeat sweeps must hit deposited hints: {stats:?}"
        );
    }

    #[test]
    fn hinted_sweep_is_shard_count_invariant() {
        let pairs: Vec<(NodeId, NodeId)> = (0..60u32)
            .map(|i| (NodeId::new((i * 7) % 150), NodeId::new((i * 53 + 2) % 150)))
            .collect();
        let build = |shards: Option<usize>| {
            let mut w = CardWorld::build(&scenario(), cfg().with_depth(3).with_hints(true));
            if let Some(k) = shards {
                w.set_shard_count(k);
            }
            w.select_all_contacts();
            w
        };
        let mut reference = build(Some(1));
        let warm = reference.query_all(&pairs);
        let warm2 = reference.query_all(&pairs);
        let expected_stats = reference.hint_stats().clone();
        let expected_series = reference.stats().series_where(|_| true);
        for shards in [None, Some(3), Some(60), Some(500)] {
            let mut par = build(shards);
            assert_eq!(par.query_all(&pairs), warm, "cold sweep at {shards:?}");
            assert_eq!(par.query_all(&pairs), warm2, "warm sweep at {shards:?}");
            assert_eq!(
                par.hint_stats(),
                &expected_stats,
                "hint counters diverged at shard count {shards:?}"
            );
            assert_eq!(
                par.stats().series_where(|_| true),
                expected_series,
                "message series diverged at shard count {shards:?}"
            );
        }
    }

    #[test]
    fn live_queries_warm_the_very_next_call() {
        // The one-at-a-time path applies deposits immediately: repeating
        // the same resolved query must hit the cache on the second call
        // and spend no more messages than the first.
        let mut w = CardWorld::build(&scenario(), cfg().with_depth(3).with_hints(true));
        w.select_all_contacts();
        let reach = crate::reachability::reachability_set(
            w.network(),
            w.contact_tables(),
            NodeId::new(0),
            3,
        );
        let nb = w.network().tables().of(NodeId::new(0));
        let Some(target) = reach
            .iter()
            .map(NodeId::from)
            .find(|&t| !nb.contains(t) && t != NodeId::new(0))
        else {
            return; // topology left nothing beyond the zone — vacuous
        };
        let first = w.query(NodeId::new(0), target);
        assert!(first.found);
        let hits_before = w.hint_stats().hits;
        let second = w.query(NodeId::new(0), target);
        assert!(second.found);
        assert!(
            w.hint_stats().hits > hits_before,
            "second identical query must hit the cache: {:?}",
            w.hint_stats()
        );
        assert!(
            second.query_msgs <= first.query_msgs,
            "a cache hit may not cost more ({} > {})",
            second.query_msgs,
            first.query_msgs
        );
    }

    #[test]
    fn em_vs_pm_reachability_order() {
        // The headline Fig 3 claim, in miniature: EM ≥ PM in mean reachability.
        let em = {
            let mut w = CardWorld::build(&scenario(), cfg().with_method(SelectionMethod::Edge));
            w.select_all_contacts();
            w.reachability_summary(1).mean_pct
        };
        let pm = {
            let mut w = CardWorld::build(
                &scenario(),
                cfg().with_method(SelectionMethod::ProbabilisticEq2),
            );
            w.select_all_contacts();
            w.reachability_summary(1).mean_pct
        };
        assert!(
            em >= pm * 0.95,
            "EM ({em:.1}%) should not trail PM ({pm:.1}%) meaningfully"
        );
    }

    #[test]
    fn reshard_migrates_state_mid_run() {
        // Re-partitioning mid-run must carry contact tables, RNG streams,
        // backoff counters, and cached hints across intact: a world
        // resharded between sweeps stays bit-identical to one that never
        // resharded.
        let pairs: Vec<(NodeId, NodeId)> = (0..50u32)
            .map(|i| (NodeId::new((i * 3) % 150), NodeId::new((i * 41 + 7) % 150)))
            .collect();
        let mut a = CardWorld::build(&scenario(), cfg().with_depth(3).with_hints(true));
        a.select_all_contacts();
        let mut b = a.clone();
        let warm_a = a.query_all(&pairs); // deposits hints
        let warm_b = b.query_all(&pairs);
        assert_eq!(warm_a, warm_b);
        b.set_shard_count(5); // migrate mid-run, hints warm
        assert_eq!(b.shard_count(), 5);
        a.validation_round();
        b.validation_round();
        let again_a = a.query_all(&pairs);
        let again_b = b.query_all(&pairs);
        assert_eq!(again_a, again_b, "resharding changed query outcomes");
        assert_eq!(
            a.hint_stats(),
            b.hint_stats(),
            "resharding changed hint state"
        );
        assert_eq!(snapshot(&a), snapshot(&b), "resharding changed world state");
        // hint contents survived the migration (not just counters)
        assert_eq!(
            a.hint_store().map(|s| (s.len(), s.epoch())),
            b.hint_store().map(|s| (s.len(), s.epoch())),
        );
    }

    #[test]
    fn query_all_into_reuses_buffers() {
        let mut w = CardWorld::build(&scenario(), cfg().with_depth(2).with_hints(true));
        w.select_all_contacts();
        let pairs: Vec<(NodeId, NodeId)> = (0..30u32)
            .map(|i| (NodeId::new(i % 150), NodeId::new((i * 17 + 9) % 150)))
            .collect();
        let mut buf = Vec::new();
        w.query_all_into(&pairs, &mut buf);
        let first = buf.clone();
        let cap = buf.capacity();
        w.query_all_into(&pairs, &mut buf);
        assert_eq!(buf.len(), pairs.len());
        assert_eq!(buf, w.query_all(&pairs.clone()), "buffer path diverged");
        assert!(
            buf.capacity() >= cap && cap >= pairs.len(),
            "reused buffer must keep its capacity"
        );
        // identical world state ⇒ repeated sweeps only differ through
        // fresh hint deposits, never through buffer reuse
        assert_eq!(first.len(), buf.len());
    }

    fn fault_cfg() -> sim_core::faults::FaultConfig {
        sim_core::faults::FaultConfig {
            churn_rate: 0.2,
            rejoin_after: 2,
            partition: Some(sim_core::faults::PartitionWindow {
                start_round: 1,
                end_round: 3,
                fraction: 0.5,
            }),
            drop_rate: 0.08,
            delay_rate: 0.08,
            rounds: 6,
        }
    }

    #[test]
    fn faulted_rounds_are_deterministic_across_shards_and_drivers() {
        let pairs: Vec<(NodeId, NodeId)> = (0..30u32)
            .map(|i| (NodeId::new(i % 150), NodeId::new((i * 37 + 5) % 150)))
            .collect();
        let run = |shards: usize, serial: bool| {
            let mut w = CardWorld::build(&scenario(), cfg().with_depth(3).with_hints(true));
            w.set_shard_count(shards);
            w.select_all_contacts();
            w.enable_faults(FaultPlan::generate(&fault_cfg(), 150, 99));
            let mut outcomes = Vec::new();
            for _ in 0..6 {
                if serial {
                    w.validation_round_serial();
                } else {
                    w.validation_round();
                }
                outcomes.push(w.query_all(&pairs));
            }
            // Of the plane counters only the totals are shard-invariant:
            // the local/cross_shard split (and metered crossings) depend on
            // where the shard boundaries fall.
            let ps = w.plane_stats();
            let plane_totals = (
                ps.sent,
                ps.dropped,
                ps.delayed,
                ps.local + ps.cross_shard,
                ps.rounds,
            );
            (
                snapshot(&w),
                outcomes,
                w.fault_report(),
                w.hint_stats().clone(),
                plane_totals,
            )
        };
        let reference = run(1, true);
        assert!(reference.2.crashes > 0, "plan must crash someone");
        assert!(reference.2.rejoins > 0, "crashed nodes must rejoin");
        assert_eq!(reference.2.partitions_opened, 1);
        assert_eq!(reference.2.partitions_healed, 1);
        assert_eq!(reference.2.liveness_violations, 0);
        assert_eq!(reference.2.grid_audit_violations, 0);
        for (shards, serial) in [(1, false), (2, true), (2, false), (4, false), (4, true)] {
            assert_eq!(
                run(shards, serial),
                reference,
                "faulted run diverged at {shards} shards, serial={serial}"
            );
        }
    }

    #[test]
    fn crash_wipes_state_and_tombstones_bar_reselection() {
        let mut w = CardWorld::build(&scenario(), cfg());
        w.select_all_contacts();
        // Hand-build a plan: node 0 crashes at round 0, never rejoins.
        let plan = FaultPlan::generate(
            &sim_core::faults::FaultConfig {
                churn_rate: 0.0,
                rejoin_after: 0,
                partition: None,
                drop_rate: 0.0,
                delay_rate: 0.0,
                rounds: 4,
            },
            150,
            7,
        );
        assert!(plan.events().is_empty(), "zero churn schedules nothing");
        // Use a churny plan instead and inspect whichever node it crashes.
        let plan = FaultPlan::generate(
            &sim_core::faults::FaultConfig {
                churn_rate: 0.1,
                rejoin_after: 0,
                partition: None,
                drop_rate: 0.0,
                delay_rate: 0.0,
                rounds: 1,
            },
            150,
            7,
        );
        let victims: Vec<usize> = plan.events().iter().map(|e| e.node as usize).collect();
        assert!(!victims.is_empty());
        w.enable_faults(plan);
        for _ in 0..2 {
            w.validation_round();
        }
        let report = w.fault_report();
        assert_eq!(report.crashes as usize, victims.len());
        assert_eq!(report.down_now, victims.len(), "nobody rejoins");
        assert_eq!(report.liveness_violations, 0);
        for &v in &victims {
            assert_eq!(
                w.contact_table(NodeId::from(v)).len(),
                0,
                "crashed node keeps no contacts"
            );
            // Tombstones bar re-selection: a table that has watched `v`
            // die never lists it again while the tombstone lives. (A node
            // that never held `v` may still pick it as a *fresh* contact —
            // crashes are radio-off, so the graph keeps the node — and
            // tombstones it on its next validation round.)
            for i in 0..150 {
                if victims.contains(&i) {
                    continue;
                }
                let table = w.contact_table(NodeId::from(i));
                assert!(
                    !(table.is_tombstoned(NodeId::from(v)) && table.contains(NodeId::from(v))),
                    "node {i} lists crashed contact {v} despite a live tombstone"
                );
            }
        }
    }

    #[test]
    fn faulted_queries_fail_fast_on_down_endpoints_and_retry() {
        let mut w = CardWorld::build(&scenario(), cfg().with_depth(3));
        w.select_all_contacts();
        let plan = FaultPlan::generate(
            &sim_core::faults::FaultConfig {
                churn_rate: 0.1,
                rejoin_after: 2,
                partition: None,
                drop_rate: 0.0,
                delay_rate: 0.0,
                rounds: 1,
            },
            150,
            13,
        );
        let victim = NodeId::from(plan.events()[0].node as usize);
        w.enable_faults(plan);
        // Crash rounds are drawn from [1, rounds]; the world's first round
        // is 0, so two rounds cover every crash in this plan.
        w.validation_round();
        w.validation_round();
        let down_now: Vec<usize> = (0..150)
            .filter(|&i| w.fault_state().expect("armed").is_down(i))
            .collect();
        assert!(down_now.contains(&victim.index()));
        let out = w.query(NodeId::new(1), victim);
        assert!(!out.found, "query to a crashed node must fail");
        assert_eq!(out.query_msgs, 0, "nobody to ask charges nothing");
        assert_eq!(w.pending_query_retries(), 1, "failure enters the queue");
        // Rounds drain the retry queue until the cap abandons the pair.
        for _ in 0..20 {
            w.validation_round();
        }
        let report = w.fault_report();
        assert_eq!(report.retry.scheduled, 1);
        assert!(report.retry.retried >= 1);
        assert_eq!(w.pending_query_retries(), 0, "cap bounds the queue");
    }

    #[test]
    fn plane_buffers_scale_with_runs_not_queries() {
        // A few resolvable pairs, each repeated in one block: a cold sweep
        // logs one run per chain hop whatever the block length, so the
        // deposit transport's buffers must not grow with the repeats.
        let mut base = CardWorld::build(&scenario(), cfg().with_depth(3).with_hints(true));
        base.select_all_contacts();
        assert_eq!(base.plane_buffer_bytes(), 0, "no sweep, no buffers");
        let candidates: Vec<(NodeId, NodeId)> = (0..150u32)
            .map(|i| (NodeId::new(i), NodeId::new((i * 37 + 70) % 150)))
            .collect();
        let mut probe = base.clone();
        probe.set_hints_enabled(false);
        let outs = probe.query_all(&candidates);
        let few: Vec<(NodeId, NodeId)> = candidates
            .iter()
            .zip(&outs)
            .filter(|(_, o)| o.found && o.depth_used > 0)
            .map(|(&p, _)| p)
            .take(4)
            .collect();
        assert!(!few.is_empty(), "some pair resolves beyond its zone");
        let sweep = |reps: usize, shards: usize| {
            let mut w = base.clone();
            w.set_shard_count(shards);
            let pairs: Vec<(NodeId, NodeId)> = few
                .iter()
                .flat_map(|&p| std::iter::repeat_n(p, reps))
                .collect();
            w.query_all(&pairs);
            let ps = w.plane_stats();
            assert_eq!(ps.sent, w.hint_stats().deposits);
            (w.plane_buffer_bytes(), ps.sent, ps.envelopes)
        };
        for shards in [1, 3] {
            let (short, _, _) = sweep(10, shards);
            let (long, deposits, envelopes) = sweep(400, shards);
            assert!(
                envelopes * 50 < deposits,
                "{envelopes} envelopes for {deposits} deposits"
            );
            assert!(
                long <= 2 * short,
                "buffers grew with the queries: {short} B at 10 repeats, {long} B at 400"
            );
            assert!(
                long * 10 < deposits as usize * std::mem::size_of::<HintDeposit>(),
                "{long} B of buffers for {deposits} deposits"
            );
        }
    }

    #[test]
    fn shard_memory_and_plane_stats_surface() {
        let mut w = CardWorld::build(&scenario(), cfg().with_depth(3).with_hints(true));
        w.select_all_contacts();
        let mem = w.shard_memory_bytes();
        assert_eq!(mem.len(), w.shard_count());
        assert!(
            mem.iter().sum::<usize>() > 0,
            "selected tables must occupy memory"
        );
        let pairs: Vec<(NodeId, NodeId)> = (0..40u32)
            .map(|i| (NodeId::new(i % 150), NodeId::new((i * 31 + 11) % 150)))
            .collect();
        w.query_all(&pairs);
        let ps = w.plane_stats().clone();
        assert!(ps.rounds >= 1, "hinted sweep exchanges deposits");
        if w.hint_stats().deposits > 0 {
            assert!(ps.sent > 0, "deposits must travel the plane");
            // Full ledger: faulted deliveries account drops and deferrals
            // (both zero on this calm world).
            assert_eq!(ps.sent, ps.local + ps.cross_shard + ps.dropped);
            assert_eq!(ps.dropped, 0);
            assert_eq!(ps.delayed, 0);
        }
        w.validation_round();
        assert!(
            w.plane_stats().metered_crossings >= ps.metered_crossings,
            "validation meters crossings monotonically"
        );
    }
}
