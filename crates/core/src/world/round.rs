//! The protocol round: contact selection (§III.C.1), the validation round
//! with local recovery and rule-5 re-selection (§III.C.3), and the fault
//! stage fused into that round.
//!
//! Validation walks contact paths that cross span boundaries; the round
//! meters those crossings into `ExchangeStats::metered_crossings` (via
//! [`path_shard_crossings`]) without materializing per-hop messages.
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
//! count, one shard (the inline serial run) included. Protocol hardening
//! under faults: confirmed-dead contacts are tombstoned (and skipped by
//! re-selection until the TTL expires), unacked validations extend
//! per-contact retry windows, hinted probes fall back to the plain walk
//! when a hint's next hop is crashed, and failed queries re-run with
//! capped exponential backoff through a `QueryRetryQueue` drained on
//! the validation-round lattice.

use manet_routing::network::Network;
use net_topology::node::NodeId;
use sim_core::faults::{FaultPlan, FaultState, NodeFaultKind};
use sim_core::par::parallel_shard_map;
use sim_core::rng::RngStream;
use sim_core::stats::{MsgKind, MsgStats};
use sim_core::time::{SimDuration, SimTime};

use crate::config::CardConfig;
use crate::contact::{
    Backoff, Contact, ContactStore, RowEdit, TOMBSTONE_TTL, VALIDATION_RETRY_CAP,
};
use crate::csq::{select_contacts, CsqScratch, ALL_EDGE_NODES};
use crate::maintenance::{validate_contacts, MaintenanceTotals, Probe};
use crate::query::{any_edge, RetryStats};

use super::queries::QueryLane;
use super::CardWorld;

/// Live fault-injection state of a world with faults armed: the immutable
/// plan, the evolving down/partition state and the lifecycle counters.
#[derive(Clone)]
pub(super) struct FaultRuntime {
    pub(super) plan: FaultPlan,
    pub(super) state: FaultState,
    /// Lifecycle counters: `rounds_applied` fault rounds have run (the
    /// next validation round executes that round's events first). The
    /// live fields — `down_now`, `partition_active`, `retry` — stay at
    /// their defaults here; [`CardWorld::fault_report`] reads them.
    report: FaultReport,
    /// Lossy deposit exchanges run so far: the shard-invariant salt mixed
    /// into deposit-message verdict keys, so identical payloads in
    /// different exchanges draw independent verdicts.
    pub(super) exchanges: u64,
}

/// Snapshot of the fault subsystem, surfaced by
/// [`CardWorld::fault_report`] (all-zero when faults are disabled).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
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

/// Cap on the selection backoff's window shift (2^5 − 1 = 31 rounds).
const SELECTION_BACKOFF_CAP: u32 = 5;

/// How many CSQ walks a below-NoC node launches per validation round
/// (§III.C.1 step 1 sends CSQs "one at a time"; Fig 13's slowly-growing
/// contact count shows selection trickling over many periods).
const SELECTION_WALKS_PER_ROUND: usize = 3;

/// One shard's cut of the world for a selection or validation fan-out:
/// its contact store, its span's slices of the node-indexed RNG streams
/// and backoffs (node `start + k` at `k`), and its lane's CSQ scratch.
struct Span<'a> {
    start: usize,
    store: &'a mut ContactStore,
    rngs: &'a mut [RngStream],
    backoff: &'a mut [Backoff],
    csq: &'a mut CsqScratch,
}

/// Cut the node-indexed state into the spans of `per` nodes the contact
/// stores cover, one lane each.
fn spans<'a>(
    per: usize,
    contacts: &'a mut [ContactStore],
    rngs: &'a mut [RngStream],
    backoff: &'a mut [Backoff],
    lanes: &'a mut [QueryLane],
) -> Vec<Span<'a>> {
    let cut = contacts.iter_mut().zip(rngs.chunks_mut(per));
    cut.zip(backoff.chunks_mut(per))
        .zip(lanes)
        .enumerate()
        .map(|(k, (((store, rngs), backoff), lane))| Span {
            start: k * per,
            store,
            rngs,
            backoff,
            csq: &mut lane.csq,
        })
        .collect()
}

impl CardWorld {
    /// Initial contact selection for every node, fanned out over the
    /// protocol shards (the cut: `world/shards.rs`). Bit-identical at any
    /// shard count; at one shard the fan-out runs inline on the caller's
    /// thread, which makes a one-shard world the serial reference.
    pub fn select_all_contacts(&mut self) {
        let CardWorld {
            net,
            cfg,
            stats,
            now,
            contacts,
            rngs,
            backoff,
            per,
            lanes,
            ..
        } = self;
        let width = stats.bucket_width();
        let at = *now;
        let mut work = spans(*per, contacts, rngs, backoff, lanes);
        let deltas = parallel_shard_map(&mut work, |_, span| {
            let mut delta = MsgStats::new(width);
            let Span {
                start,
                store,
                rngs,
                csq,
                ..
            } = span;
            store.rewrite(|k, row| {
                row.keep_all();
                let node = NodeId::from(*start + k);
                let rng = &mut rngs[k];
                select_contacts(
                    net,
                    cfg,
                    node,
                    row,
                    rng,
                    &mut delta,
                    at,
                    ALL_EDGE_NODES,
                    csq,
                );
            });
            delta
        });
        for delta in &deltas {
            stats.merge(delta);
        }
    }

    /// One validation round for every node: validate paths (healing with
    /// local recovery), drop rule-4 violators, then — per §III.C.3 rule 5 —
    /// re-select toward NoC. The sweep fans out over the protocol shards
    /// and is bit-identical at any shard count (one shard runs inline: the
    /// serial reference). Span-boundary crossings of the validated paths
    /// are metered into
    /// [`ExchangeStats::metered_crossings`](super::ExchangeStats::metered_crossings). With a fault plan
    /// armed the round first applies its scheduled fault events and
    /// re-runs the due query retries after the sweep — fused here so a
    /// driven and a hand-stepped world see one fault history. The round
    /// ends by rechecking every standing query (nothing on an empty
    /// table), which makes this *the* round entry either way.
    ///
    /// Re-selection is throttled twice, which is what keeps steady-state
    /// overhead at the per-node magnitudes of Figs 10–13 (the paper's
    /// steady state is essentially validation-only):
    /// * at most `SELECTION_WALKS_PER_ROUND` (three) CSQs per node per
    ///   round ("one at a time", §III.C.1);
    /// * exponential backoff after fruitless rounds — a node whose
    ///   selection attempt yields nothing skips `2^level − 1` rounds
    ///   (level capped at 5), resetting on any success. Saturated nodes
    ///   (NoC above the annulus capacity) therefore go quiet instead of
    ///   re-sweeping the region every period.
    ///
    /// The round's fault stages no-op on a calm world: `apply_fault_round`
    /// without a plan, the span body's fault block without a fault view,
    /// the retry drain on an empty queue.
    pub fn validation_round(&mut self) {
        self.apply_fault_round();
        let per = self.per;
        let CardWorld {
            net,
            cfg,
            stats,
            now,
            maintenance,
            contacts,
            rngs,
            backoff,
            lanes,
            traffic,
            faults,
            ..
        } = self;
        let fault_view = faults
            .as_ref()
            .map(|rt| (&rt.plan, &rt.state, rt.report.rounds_applied - 1));
        let width = stats.bucket_width();
        let at = *now;
        let mut work = spans(per, contacts, rngs, backoff, lanes);
        let deltas = parallel_shard_map(&mut work, |_, span| {
            Self::validate_span(net, cfg, span, at, width, per, fault_view)
        });
        let mut liveness = 0u64;
        for delta in &deltas {
            stats.merge(&delta.stats);
            maintenance.merge(&delta.maintenance);
            traffic.metered_crossings += delta.crossings;
            liveness += delta.liveness_violations;
        }
        if let Some(rt) = faults {
            rt.report.liveness_violations += liveness;
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

    /// Advance the hint store's freshness epoch.
    fn advance_hint_epochs(&mut self) {
        if let Some(store) = &mut self.hints {
            store.advance_epoch();
        }
    }

    /// The per-shard body of a validation round: one rewrite of the span's
    /// store, validating each node's row and then (throttled) re-selecting
    /// into it. Touches only the span's cut of the world and the immutable
    /// network; emits its message/maintenance counters and metered path
    /// crossings as a delta for in-order merging.
    ///
    /// Under a fault view `(plan, state, round)`, per up node: tombstone
    /// confirmed-dead contacts (evicted now, barred from re-selection until
    /// the TTL expires), hold out contacts inside a retry window or whose
    /// probe the plan loses this round (unacked probes extend the window;
    /// past `VALIDATION_RETRY_CAP` the contact is dropped) and validate
    /// the rest with crashed/partitioned hops vetoed (including
    /// local-recovery splices). A row is written as its validated
    /// survivors, then its held-out contacts, then the re-selected ones.
    /// Crashed nodes send nothing and maintain nothing: their rows are
    /// written empty. The in-run liveness check counts any tombstone
    /// observed past its TTL before the round's decay.
    fn validate_span(
        net: &Network,
        cfg: &CardConfig,
        span: &mut Span<'_>,
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
        // Every source sends at `at`, so recording the span's sums once per
        // kind fills the buckets per-source records would (zeros never do).
        let (mut validation_msgs, mut reply_msgs) = (0u64, 0u64);
        let Span {
            start,
            store,
            rngs,
            backoff,
            csq,
        } = span;
        store.rewrite(|k, row| {
            let node = NodeId::from(*start + k);
            // The validation traffic this node sends down its stored paths
            // is metered for every contact it held at round start — at its
            // tombstone, hold-out or walk: every span-boundary crossing is a
            // message a process-level deployment would carry if validation
            // were materialized.
            let (totals, crossings, validation, reply) = match fault_view {
                None => validate_contacts(net, cfg, node, row, any_edge, per, |_, _| Probe::Walk),
                Some((_, state, _)) if state.is_down(node.index()) => {
                    // Radio off: no probes, no selection, and nothing kept
                    // from before the crash until it rejoins.
                    row.clear();
                    return;
                }
                Some((plan, state, round)) => {
                    let allowed = |a: NodeId, b: NodeId| state.link_allowed(a.index(), b.index());
                    let probe = |row: &mut RowEdit<'_>, c: Contact<'_>| {
                        // Confirmed dead: tombstoned, so neither validation
                        // nor this round's re-selection resurrects it.
                        if state.is_down(c.id.index()) {
                            row.tombstone(c.id, TOMBSTONE_TTL);
                            return Probe::Drop { sent: false };
                        }
                        // Retry windows: a contact mid-window skips this
                        // round's probe; a probe the plan loses goes
                        // unacked — its hops are still charged, the window
                        // doubles, and past the cap the contact is dropped.
                        if row.retry_skip(c.id) {
                            return Probe::Hold { sent: false };
                        }
                        if !plan.validation_lost(node.index() as u32, c.id.index() as u32, round) {
                            return Probe::Walk;
                        }
                        if row.note_unacked(c.id) > VALIDATION_RETRY_CAP {
                            row.clear_retry(c.id);
                            return Probe::Drop { sent: true };
                        }
                        Probe::Hold { sent: true }
                    };
                    let out = validate_contacts(net, cfg, node, row, allowed, per, probe);
                    // Liveness: no tombstone may be observed past its TTL.
                    if row.max_tombstone_ttl() > TOMBSTONE_TTL {
                        delta.liveness_violations += 1;
                    }
                    row.decay_tombstones();
                    out
                }
            };
            delta.maintenance.merge(&totals);
            delta.crossings += crossings;
            validation_msgs += validation;
            reply_msgs += reply;
            if row.len() >= cfg.target_contacts {
                backoff[k].reset();
                return;
            }
            if backoff[k].tick() {
                return;
            }
            let before = row.len();
            select_contacts(
                net,
                cfg,
                node,
                row,
                &mut rngs[k],
                &mut delta.stats,
                at,
                SELECTION_WALKS_PER_ROUND,
                csq,
            );
            if row.len() > before {
                backoff[k].reset();
            } else {
                backoff[k].fail(SELECTION_BACKOFF_CAP);
            }
        });
        let stats = &mut delta.stats;
        stats.record_n(at, MsgKind::Validation, validation_msgs);
        stats.record_n(at, MsgKind::ValidationReply, reply_msgs);
        delta
    }

    /// Arm deterministic fault injection: from the next validation round
    /// on, `plan`'s node events, partition window, and message verdicts
    /// apply. The faulted history is a pure function of `(world seed,
    /// plan)` — identical at any shard or worker count and between the
    /// tick and event drivers (the contract: `world/round.rs`).
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
            report: FaultReport::default(),
            exchanges: 0,
        });
    }

    /// The live down/partition state, when faults are armed.
    pub fn fault_state(&self) -> Option<&FaultState> {
        self.faults.as_ref().map(|rt| &rt.state)
    }

    /// Lifecycle counters of the fault subsystem (all-zero when disabled).
    pub fn fault_report(&self) -> FaultReport {
        let retry = self.query_retry.stats().clone();
        match &self.faults {
            None => FaultReport {
                retry,
                ..FaultReport::default()
            },
            Some(rt) => FaultReport {
                down_now: rt.state.down_count(),
                partition_active: rt.state.partition_active(),
                retry,
                ..rt.report.clone()
            },
        }
    }

    /// Execute the current fault round's scheduled events: crash/rejoin
    /// the listed nodes (a crash wipes the node's protocol state — table,
    /// backoff, held hints — and a rejoined node rebuilds through ordinary
    /// rule-5 re-selection), open or heal the partition window (sides
    /// frozen from live positions at the opening instant), and audit the
    /// grid residency of every event site (positions are untouched by
    /// radio-off faults, so any stale bucket is a pipeline bug).
    fn apply_fault_round(&mut self) {
        let CardWorld {
            net,
            backoff,
            hints,
            hint_stats,
            faults,
            ..
        } = self;
        let Some(rt) = faults.as_mut() else {
            return;
        };
        let round = rt.report.rounds_applied;
        rt.report.rounds_applied += 1;
        let events = rt.plan.events_at(round).to_vec();
        let mut touched: Vec<NodeId> = Vec::with_capacity(events.len());
        for ev in events {
            let i = ev.node as usize;
            touched.push(NodeId::from(i));
            match ev.kind {
                NodeFaultKind::Crash => {
                    // The round's sweep, which runs next, writes a down
                    // node's row empty and drops its tombstones and retry
                    // timers: that is the wipe of its contact table. (A
                    // plan never rejoins a node in the round it crashes.)
                    rt.state.set_down(i, true);
                    rt.report.crashes += 1;
                    backoff[i].reset();
                    if let Some(store) = hints {
                        hint_stats.evicted_mobility +=
                            store.invalidate_node(NodeId::from(i)) as u64;
                    }
                }
                NodeFaultKind::Rejoin => {
                    rt.state.set_down(i, false);
                    rt.report.rejoins += 1;
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
                rt.report.partitions_opened += 1;
            }
            if round == w.end_round && rt.state.partition_active() {
                rt.state.heal_partition();
                rt.report.partitions_healed += 1;
            }
        }
        if !touched.is_empty() {
            rt.report.grid_audit_violations += net.audit_grid_residency_nodes(&touched) as u64;
        }
    }
}
