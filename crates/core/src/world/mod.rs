//! `CardWorld` — the complete protocol-over-network world.
//!
//! Couples a [`Network`] with per-node CARD state (contact tables, RNG
//! streams, selection backoffs, the §V hint tables). Everything the
//! protocol does is a direct method call on the world — one-shot
//! selection, a validation round with re-selection (§III.C.3, rule 5) and
//! the standing-query recheck, queries, reachability. The world owns no
//! clock: [`crate::events::EventDriver`] steps it through virtual time
//! (mobility wake-ups interleaved with per-period rounds), and
//! [`CardWorld::run_mobile`] is one drive of it.
//!
//! ## One file per mechanism
//!
//! `CardWorld` is the façade. This file builds it and holds its read
//! accessors, the §V hint-cache switch and the hooks the event driver
//! steps; the methods of each protocol mechanism live in a file of their
//! own, whose module docs carry that mechanism's contract:
//!
//! | file | what it holds |
//! |---|---|
//! | `shards.rs` | the shard cut: one contact store per shard, the [`TablesView`] read view, resharding, per-shard memory |
//! | `round.rs` | contact selection (§III.C.1), the validation round with local recovery (§III.C.3), and the round's fault stage ([`FaultReport`]); each rewrites the contact stores row by row |
//! | `queries.rs` | DSQ queries (§III.C.4): the one per-pair body, the one sweep (a live or retried query is a sweep of one), and the one hint-deposit exchange with its [`ExchangeStats`] ledger |
//! | `subscriptions.rs` | standing-query upkeep: register, resolve, probe, revalidate |
//! | `fingerprint.rs` | [`CardWorld::fingerprint`]: what counts as world state, hashed in layers, for the tests that compare worlds |
//!
//! **Only contact rows are stored per shard.** Each shard's
//! [`ContactStore`] holds its span's contacts once, as node-ordered rows
//! over one path arena, with each node's tombstones and retry state.
//! Fixed-size per-node state — RNG streams, selection backoffs, the hint
//! store — is node-indexed world-wide and cut into span slices per
//! fan-out, and the scratch a fan-out needs lives in the query lanes.
//! Selection and the validation round rewrite every row of a store in
//! node order; every contact walk — queries, retries, standing
//! resolution, reachability — and every hint-chase next-hop lookup reads
//! a row's `ids` and `hops` columns through [`TablesView`] (the owning
//! store is `i / per`), and maintenance and the re-walk oracle read the
//! same rows' paths. There is no second copy to keep in step.
//!
//! **Determinism.** Every random protocol decision draws from the RNG
//! stream of the node making it (derived as `("card-node", node)` from the
//! config seed), never from a shared stream. Message counters accumulate
//! into per-shard [`MsgStats`] deltas merged in shard order afterwards, and
//! hint deposits are applied deferred runs first, then lane by lane in
//! log order — a pure function of the protocol's own query order,
//! independent of worker scheduling.
//! The result of a sweep is therefore a pure function of `(network,
//! config, per-node state)` — bit-identical across worker counts and shard
//! counts. There is no separate serial path: a world set to one shard
//! ([`CardWorld::set_shard_count`]) runs every sweep inline on the
//! caller's thread, and that one-shard world is the reference the tests
//! and benches pin the k-shard fan-outs to.

mod fingerprint;
mod queries;
mod round;
mod shards;
mod subscriptions;
#[cfg(test)]
mod tests;

pub use crate::contact::TablesView;
pub use crate::maintenance::MaintenanceTotals;
pub use fingerprint::{Fingerprint, Layer};
pub use queries::ExchangeStats;
pub use round::FaultReport;

use manet_routing::network::{DirtyReport, Network};
use mobility::model::MobilityModel;
use net_topology::node::NodeId;
use net_topology::scenario::Scenario;
use sim_core::par::shard_spans;
use sim_core::rng::{RngStream, SeedSplitter};
use sim_core::stats::{MsgStats, TimeSeries};
use sim_core::time::{SimDuration, SimTime};

use crate::config::CardConfig;
use crate::contact::{Backoff, ContactStore, ContactTable};
use crate::events::{DriveMode, EventDriver};
use crate::hints::{HintDeposit, HintStats, HintStore};
use crate::query::QueryRetryQueue;
use crate::reachability::ReachabilitySummary;
use crate::standing::StandingQueries;

use queries::QueryLane;
use round::FaultRuntime;
use shards::default_shard_count;

/// The CARD world: network + per-node protocol state + measurement.
///
/// `Clone` snapshots the entire world — network, contact stores, RNG
/// streams, hint tables, statistics — so divergent what-if runs (and the
/// sweep benches) can branch from a common prepared state.
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
    /// Shard `k`'s contact tables, rows in node order (`world/shards.rs`);
    /// `contacts.len()` is the shard count.
    contacts: Vec<ContactStore>,
    /// Node `i`'s RNG stream: every random protocol decision of `i`.
    rngs: Vec<RngStream>,
    /// Node `i`'s selection backoff (`world/round.rs`).
    backoff: Vec<Backoff>,
    /// Span width of the canonical partition (`ceil(N / shards)`, min 1);
    /// node `i` is owned by shard `i / per`.
    per: usize,
    /// One lane — query and CSQ walk workspaces plus deposit log — per
    /// shard: all the scratch a fan-out needs. A single query is a sweep
    /// of one and runs on lane 0, as does standing resolution.
    lanes: Vec<QueryLane>,
    /// Deposit runs a lossy fault plan delayed, in the order they were
    /// delayed: applied first, verdict spent, at the next exchange.
    deferred: Vec<HintDeposit>,
    /// The deposit exchanges' ledger, plus metered validation crossings.
    traffic: ExchangeStats,
    /// The §V route-hint cache, one whole-network store; `None` while the
    /// cache is off.
    hints: Option<HintStore>,
    /// Hit/miss/staleness counters of the hint subsystem.
    hint_stats: HintStats,
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

impl CardWorld {
    /// Instantiate a scenario (uniform placement from `cfg.seed`) and build
    /// the world, with the route-hint cache off (see
    /// [`CardWorld::set_hints_enabled`]).
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
        let k = default_shard_count();
        CardWorld {
            net,
            cfg,
            stats: MsgStats::new(SimDuration::from_secs(2)),
            now: SimTime::ZERO,
            contacts_series: TimeSeries::new(),
            maintenance: MaintenanceTotals::default(),
            contacts: shard_spans(n, k)
                .iter()
                .map(|s| ContactStore::new(s.len()))
                .collect(),
            rngs: (0..n)
                .map(|i| splitter.stream("card-node", i as u64))
                .collect(),
            backoff: vec![Backoff::default(); n],
            per: n.div_ceil(k).max(1),
            lanes: (0..k).map(|_| QueryLane::new(n)).collect(),
            deferred: Vec::new(),
            traffic: ExchangeStats::default(),
            hints: None,
            hint_stats: HintStats::default(),
            standing: StandingQueries::new(n),
            standing_ids: Vec::new(),
            faults: None,
            query_retry: QueryRetryQueue::new(cfg.query_retry_cap),
            retry_due: Vec::new(),
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

    /// Cumulative hint-deposit traffic (exchanges, sent, local vs
    /// cross-shard deliveries, losses, metered validation crossings).
    pub fn plane_stats(&self) -> &ExchangeStats {
        &self.traffic
    }

    /// Number of fault-delayed deposits held for the next exchange. With
    /// this the ledger closes at any instant:
    /// `sent == local + cross_shard + dropped + deferred`.
    pub fn plane_deferred_pending(&self) -> usize {
        self.deferred.iter().map(|d| d.count as usize).sum()
    }

    /// Heap bytes held by the hint-deposit path between sweeps: the
    /// deposit logs' runs and holder indexes plus the deferred runs'
    /// buffer. Transient traffic that [`CardWorld::shard_memory_bytes`]
    /// (protocol state) leaves out.
    pub fn plane_buffer_bytes(&self) -> usize {
        self.lanes
            .iter()
            .map(|lane| lane.deposits.memory_bytes())
            .sum::<usize>()
            + self.deferred.capacity() * std::mem::size_of::<HintDeposit>()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The contact table of one node.
    pub fn contact_table(&self, node: NodeId) -> ContactTable<'_> {
        self.contact_tables().table(node.index())
    }

    /// Total live contacts across all nodes.
    pub fn total_contacts(&self) -> usize {
        self.contacts.iter().map(ContactStore::contact_count).sum()
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

    /// Reachability distribution at contact depth `depth` (Figs 5–9).
    pub fn reachability_summary(&self, depth: u16) -> ReachabilitySummary {
        ReachabilitySummary::compute(&self.net, self.contact_tables(), depth)
    }

    /// Is the §V route-hint cache active?
    pub fn hints_enabled(&self) -> bool {
        self.hints.is_some()
    }

    /// Enable or disable the route-hint cache at runtime. Enabling builds
    /// an empty whole-network store from the config's sizing knobs;
    /// disabling drops the store entirely, and with it every deposit a
    /// lossy plan still holds deferred (counted as `dropped` in
    /// [`CardWorld::plane_stats`], so the ledger still closes). Without a
    /// hint view a query never touches the subsystem, so a disabled world
    /// answers bit-identically to one that never had hints, and a
    /// re-enabled one starts from a cold cache.
    pub fn set_hints_enabled(&mut self, enabled: bool) {
        if enabled && self.hints.is_none() {
            let (spb, ttl) = (self.cfg.hint_slots_per_bucket, self.cfg.hint_ttl);
            self.hints = Some(HintStore::new(self.net.node_count(), spb, ttl));
        } else if !enabled {
            self.hints = None;
            self.discard_deferred();
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

    /// The hint store, when enabled (observability, tests).
    pub fn hint_store(&self) -> Option<&HintStore> {
        self.hints.as_ref()
    }

    /// Empty the hint store (cold-cache resets) without touching the hint
    /// counters. Deposits still in flight — deferred by a lossy plan at
    /// the last exchange — go with the store (counted as `dropped` in
    /// [`CardWorld::plane_stats`]), so nothing sent before the reset lands
    /// after it. A calm world holds nothing between exchanges.
    pub fn clear_hints(&mut self) {
        if let Some(store) = &mut self.hints {
            store.clear();
        }
        self.discard_deferred();
    }

    /// Drop the deferred deposits, keeping the ledger closed.
    fn discard_deferred(&mut self) {
        let pending = self.plane_deferred_pending() as u64;
        self.traffic.discard_deferred(pending);
        self.deferred.clear();
    }

    /// Evict hints held at nodes the last topology refresh dirtied.
    /// Correctness never depends on this — a surviving stale hint is
    /// caught by the probe's live contact-table check — it just keeps the
    /// `stale_contact` miss rate down under churn.
    fn evict_dirty_hints(&mut self) {
        let Some(store) = &mut self.hints else {
            return;
        };
        let evicted = match self.net.dirty_report() {
            DirtyReport::All => store.invalidate_all(),
            DirtyReport::Exact(dirty) => dirty.iter().map(|&v| store.invalidate_node(v)).sum(),
        };
        self.hint_stats.evicted_mobility += evicted as u64;
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
}
