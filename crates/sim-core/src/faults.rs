//! Deterministic fault injection: seeded fault plans and runtime fault state.
//!
//! A [`FaultPlan`] is generated once from a [`FaultConfig`], a node count, and
//! a seed, and is then a pure value: every node crash/rejoin event, the
//! partition window, and the per-message drop/delay thresholds are fixed up
//! front. Protocol code consults the plan at *round* granularity (a round is
//! one validation-period instant on the engine's event lattice, so tick and
//! event drivers see identical fault histories by construction) and at
//! *message* granularity through [`FaultPlan::message_verdict`], which hashes
//! message content rather than transport coordinates. Nothing in this module
//! draws from a shared RNG at apply time, so a faulted run is replayable from
//! `(seed, plan)` at any shard or worker count.
//!
//! [`FaultState`] is the mutable runtime companion: which nodes are currently
//! down, and which side of a frozen partition cut each node was on when the
//! window opened. The simulation owns one `FaultState` and advances it by
//! applying the plan's events round by round.

use crate::rng::{RngStream, SeedSplitter};

/// Per-message delivery verdict from a [`FaultPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultVerdict {
    /// Deliver the message normally this round.
    Deliver,
    /// Drop the message: it never reaches its destination.
    Drop,
    /// Defer the message by one exchange: the caller holds it and
    /// delivers it unconditionally, ahead of fresh traffic, on the next
    /// exchange.
    Delay,
}

/// What happens to a node at a scheduled [`NodeFault`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeFaultKind {
    /// The node's radio goes silent: it answers no validations, relays no
    /// walks, and its own protocol state (contacts, hints, backoff) is lost.
    Crash,
    /// A previously crashed node comes back with empty protocol state and
    /// rebuilds its contact table through ordinary re-selection.
    Rejoin,
}

/// One scheduled node-level fault event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeFault {
    /// Validation round (0-based) at which the event fires.
    pub round: u32,
    /// Index of the affected node.
    pub node: u32,
    /// Crash or rejoin.
    pub kind: NodeFaultKind,
}

/// A region-scoped partition window: from `start_round` (inclusive) to
/// `end_round` (exclusive) the field is split by a frozen vertical cut and
/// no message or validation crosses sides.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionWindow {
    /// Round at which the partition opens (sides are frozen from positions
    /// at this instant).
    pub start_round: u32,
    /// Round at which the partition heals. Must be `> start_round`.
    pub end_round: u32,
    /// Fraction of the field's width left of the cut, in `(0, 1)`.
    pub fraction: f64,
}

/// Declarative description of a fault regime, turned into a concrete
/// [`FaultPlan`] by [`FaultPlan::generate`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Fraction of the population that crashes over the plan's horizon,
    /// in `[0, 1]`. Victims and crash rounds are drawn from the plan seed.
    pub churn_rate: f64,
    /// Rounds a crashed node stays down before rejoining; `0` means crashed
    /// nodes never come back.
    pub rejoin_after: u32,
    /// Optional partition/heal window.
    pub partition: Option<PartitionWindow>,
    /// Probability that an exchanged message is dropped, in `[0, 1]`.
    pub drop_rate: f64,
    /// Probability that an exchanged message is delayed by one exchange, in
    /// `[0, 1]`. Drop is tested first; `drop_rate + delay_rate` must be
    /// `<= 1`.
    pub delay_rate: f64,
    /// Number of validation rounds the plan covers; crash events are spread
    /// uniformly over `[1, rounds]`.
    pub rounds: u32,
}

impl FaultConfig {
    /// A no-op regime: no churn, no partition, no message loss.
    pub fn calm() -> Self {
        FaultConfig {
            churn_rate: 0.0,
            rejoin_after: 0,
            partition: None,
            drop_rate: 0.0,
            delay_rate: 0.0,
            rounds: 0,
        }
    }
}

/// SplitMix64 finalizer — the same mixing used by [`SeedSplitter`], kept
/// local so message verdicts are a pure function of `(plan seed, key)`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A fully materialized, replayable fault schedule.
///
/// Equality of two plans implies bit-identical fault histories; the plan is
/// `Clone` so worlds can retain it while tests compare against a reference.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Node events sorted by `(round, node)`; a node's rejoin always follows
    /// its crash and no node crashes twice.
    events: Vec<NodeFault>,
    partition: Option<PartitionWindow>,
    /// `Drop` when `hash < drop_cut`.
    drop_cut: u64,
    /// `Delay` when `drop_cut <= hash < delay_cut`.
    delay_cut: u64,
    rounds: u32,
}

impl FaultPlan {
    /// Generate a plan for `nodes` nodes from `cfg`, deterministically from
    /// `seed`. Victims are a seeded sample without replacement; each gets a
    /// crash round uniform in `[1, cfg.rounds]` and, when `rejoin_after > 0`,
    /// a rejoin `rejoin_after` rounds later.
    ///
    /// # Panics
    /// If rates are outside `[0, 1]`, `drop_rate + delay_rate > 1`, or a
    /// partition window is empty or has a fraction outside `(0, 1)`.
    pub fn generate(cfg: &FaultConfig, nodes: usize, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.churn_rate),
            "churn_rate must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.drop_rate) && (0.0..=1.0).contains(&cfg.delay_rate),
            "message fault rates must be in [0, 1]"
        );
        assert!(
            cfg.drop_rate + cfg.delay_rate <= 1.0,
            "drop_rate + delay_rate must be <= 1"
        );
        if let Some(w) = &cfg.partition {
            assert!(w.end_round > w.start_round, "empty partition window");
            assert!(
                w.fraction > 0.0 && w.fraction < 1.0,
                "partition fraction must be in (0, 1)"
            );
        }

        let splitter = SeedSplitter::new(seed);
        let mut rng: RngStream = splitter.stream("fault-plan", 0);
        let victims = ((cfg.churn_rate * nodes as f64).round() as usize).min(nodes);
        let mut events = Vec::with_capacity(victims * 2);
        if victims > 0 && cfg.rounds > 0 {
            // Partial Fisher-Yates: the first `victims` entries of a seeded
            // shuffle are a uniform sample without replacement.
            let mut pool: Vec<u32> = (0..nodes as u32).collect();
            for i in 0..victims {
                let j = i + rng.index(pool.len() - i);
                pool.swap(i, j);
                let node = pool[i];
                let round = 1 + rng.next_below(cfg.rounds as u64) as u32;
                events.push(NodeFault {
                    round,
                    node,
                    kind: NodeFaultKind::Crash,
                });
                if cfg.rejoin_after > 0 {
                    events.push(NodeFault {
                        round: round + cfg.rejoin_after,
                        node,
                        kind: NodeFaultKind::Rejoin,
                    });
                }
            }
        }
        events.sort_by_key(|e| (e.round, e.node, e.kind == NodeFaultKind::Rejoin));

        let to_cut = |rate: f64| (rate * u64::MAX as f64) as u64;
        FaultPlan {
            seed,
            events,
            partition: cfg.partition,
            drop_cut: to_cut(cfg.drop_rate),
            delay_cut: to_cut(cfg.drop_rate + cfg.delay_rate),
            rounds: cfg.rounds,
        }
    }

    /// A plan with no faults at all (every verdict is `Deliver`, no events,
    /// no partition). Useful as a baseline that still exercises the faulted
    /// code paths.
    pub fn calm(seed: u64) -> Self {
        Self::generate(&FaultConfig::calm(), 0, seed)
    }

    /// The seed the plan was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of validation rounds the plan covers.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// All scheduled node events, sorted by `(round, node)`.
    pub fn events(&self) -> &[NodeFault] {
        &self.events
    }

    /// The node events scheduled for `round`, in node order.
    pub fn events_at(&self, round: u32) -> &[NodeFault] {
        let lo = self.events.partition_point(|e| e.round < round);
        let hi = self.events.partition_point(|e| e.round <= round);
        &self.events[lo..hi]
    }

    /// The partition window, if the plan has one.
    pub fn partition(&self) -> Option<&PartitionWindow> {
        self.partition.as_ref()
    }

    /// True when the plan can drop or delay exchanged messages (saves the
    /// verdict draws when both rates are zero).
    pub fn lossy(&self) -> bool {
        self.delay_cut > 0
    }

    /// Delivery verdict for a message identified by `key`. The key must be
    /// derived from message *content* (and, if repeats are possible, a
    /// round or exchange salt) — never from shard indices or queue positions — so
    /// the verdict is invariant across shard and worker counts.
    pub fn message_verdict(&self, key: u64) -> FaultVerdict {
        if self.delay_cut == 0 {
            return FaultVerdict::Deliver;
        }
        let h = mix(self.seed ^ mix(key));
        if h < self.drop_cut {
            FaultVerdict::Drop
        } else if h < self.delay_cut {
            FaultVerdict::Delay
        } else {
            FaultVerdict::Deliver
        }
    }

    /// True when the validation probe from `source` to its contact `target`
    /// is lost this `round` (an independent content-keyed draw, since
    /// validation traffic is metered rather than exchanged as messages).
    /// The loss probability is the plan's drop rate.
    pub fn validation_lost(&self, source: u32, target: u32, round: u32) -> bool {
        if self.drop_cut == 0 {
            return false;
        }
        let key = (source as u64) << 40 | (target as u64) << 16 | round as u64;
        mix(self.seed ^ mix(key ^ 0x56414c)) < self.drop_cut
    }

    /// Mix a message-content key with a round or exchange salt, for callers
    /// that send identical payloads across rounds and want independent
    /// verdicts.
    pub fn salted_key(parts: &[u64]) -> u64 {
        let mut h = 0x100001b3u64;
        for &p in parts {
            h = mix(h ^ p);
        }
        h
    }
}

/// Mutable runtime fault state: which nodes are down and, while a partition
/// window is open, which side of the frozen cut each node is on.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultState {
    down: Vec<bool>,
    down_count: usize,
    sides: Vec<u8>,
    partition_active: bool,
}

impl FaultState {
    /// Fresh state for `nodes` nodes: everyone up, no partition.
    pub fn new(nodes: usize) -> Self {
        FaultState {
            down: vec![false; nodes],
            down_count: 0,
            sides: Vec::new(),
            partition_active: false,
        }
    }

    /// True when node `i` is currently crashed.
    pub fn is_down(&self, i: usize) -> bool {
        self.down[i]
    }

    /// Mark node `i` down (`true`) or up (`false`); idempotent.
    pub fn set_down(&mut self, i: usize, down: bool) {
        if self.down[i] != down {
            self.down[i] = down;
            if down {
                self.down_count += 1;
            } else {
                self.down_count -= 1;
            }
        }
    }

    /// Number of nodes currently down.
    pub fn down_count(&self) -> usize {
        self.down_count
    }

    /// The full down mask, indexed by node.
    pub fn down_mask(&self) -> &[bool] {
        &self.down
    }

    /// Open a partition with the given per-node sides (frozen at window
    /// start). `sides.len()` must match the node count.
    pub fn activate_partition(&mut self, sides: Vec<u8>) {
        assert_eq!(sides.len(), self.down.len(), "sides/node count mismatch");
        self.sides = sides;
        self.partition_active = true;
    }

    /// Heal the partition: all links are candidate links again.
    pub fn heal_partition(&mut self) {
        self.partition_active = false;
        self.sides.clear();
    }

    /// True while a partition window is open.
    pub fn partition_active(&self) -> bool {
        self.partition_active
    }

    /// The frozen per-node sides while a partition is active, else `None`.
    pub fn sides(&self) -> Option<&[u8]> {
        if self.partition_active {
            Some(&self.sides)
        } else {
            None
        }
    }

    /// True when the open partition separates nodes `a` and `b`. Always
    /// `false` while no partition is active.
    pub fn blocked(&self, a: usize, b: usize) -> bool {
        self.partition_active && self.sides[a] != self.sides[b]
    }

    /// True when a protocol interaction from `a` to `b` can happen at all:
    /// both ends up and not separated by the partition.
    pub fn link_allowed(&self, a: usize, b: usize) -> bool {
        !self.down[a] && !self.down[b] && !self.blocked(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn churny() -> FaultConfig {
        FaultConfig {
            churn_rate: 0.2,
            rejoin_after: 3,
            partition: Some(PartitionWindow {
                start_round: 2,
                end_round: 5,
                fraction: 0.5,
            }),
            drop_rate: 0.05,
            delay_rate: 0.05,
            rounds: 8,
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let cfg = churny();
        let a = FaultPlan::generate(&cfg, 500, 7);
        let b = FaultPlan::generate(&cfg, 500, 7);
        let c = FaultPlan::generate(&cfg, 500, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.events().len(), 200); // 100 crashes + 100 rejoins
    }

    #[test]
    fn events_are_sorted_and_rejoins_follow_crashes() {
        let plan = FaultPlan::generate(&churny(), 300, 11);
        let evs = plan.events();
        assert!(evs
            .windows(2)
            .all(|w| (w[0].round, w[0].node) <= (w[1].round, w[1].node)));
        for e in evs {
            if e.kind == NodeFaultKind::Rejoin {
                let crash = evs
                    .iter()
                    .find(|c| c.node == e.node && c.kind == NodeFaultKind::Crash)
                    .expect("rejoin without crash");
                assert_eq!(crash.round + 3, e.round);
            }
        }
        // No node crashes twice.
        let mut crashed: Vec<u32> = evs
            .iter()
            .filter(|e| e.kind == NodeFaultKind::Crash)
            .map(|e| e.node)
            .collect();
        let before = crashed.len();
        crashed.sort_unstable();
        crashed.dedup();
        assert_eq!(before, crashed.len());
    }

    #[test]
    fn events_at_slices_by_round() {
        let plan = FaultPlan::generate(&churny(), 400, 3);
        let total: usize = (0..=plan.rounds() + 4)
            .map(|r| plan.events_at(r).len())
            .sum();
        assert_eq!(total, plan.events().len());
        for r in 0..=plan.rounds() + 4 {
            assert!(plan.events_at(r).iter().all(|e| e.round == r));
        }
    }

    #[test]
    fn message_verdicts_match_configured_rates() {
        let plan = FaultPlan::generate(
            &FaultConfig {
                drop_rate: 0.1,
                delay_rate: 0.1,
                ..FaultConfig::calm()
            },
            0,
            42,
        );
        let n = 20_000u64;
        let (mut dropped, mut delayed) = (0u64, 0u64);
        for k in 0..n {
            match plan.message_verdict(k) {
                FaultVerdict::Drop => dropped += 1,
                FaultVerdict::Delay => delayed += 1,
                FaultVerdict::Deliver => {}
            }
        }
        // Within a loose tolerance of the nominal 10% each.
        assert!((dropped as f64 / n as f64 - 0.1).abs() < 0.02, "{dropped}");
        assert!((delayed as f64 / n as f64 - 0.1).abs() < 0.02, "{delayed}");
        // And a pure function of the key.
        assert_eq!(plan.message_verdict(17), plan.message_verdict(17));
    }

    #[test]
    fn calm_plan_never_faults() {
        let plan = FaultPlan::calm(9);
        assert!(!plan.lossy());
        assert!(plan.events().is_empty());
        for k in 0..1000 {
            assert_eq!(plan.message_verdict(k), FaultVerdict::Deliver);
        }
        assert!(!plan.validation_lost(1, 2, 3));
    }

    #[test]
    fn fault_state_tracks_down_and_partition() {
        let mut st = FaultState::new(4);
        assert_eq!(st.down_count(), 0);
        st.set_down(2, true);
        st.set_down(2, true); // idempotent
        assert_eq!(st.down_count(), 1);
        assert!(st.is_down(2));
        assert!(!st.blocked(0, 1));
        st.activate_partition(vec![0, 0, 1, 1]);
        assert!(st.partition_active());
        assert!(st.blocked(1, 2));
        assert!(!st.blocked(0, 1));
        assert!(!st.link_allowed(0, 3)); // cut
        assert!(!st.link_allowed(0, 2)); // down
        assert!(st.link_allowed(0, 1));
        st.heal_partition();
        assert!(!st.blocked(1, 2));
        st.set_down(2, false);
        assert_eq!(st.down_count(), 0);
        assert!(st.link_allowed(0, 2));
    }

    #[test]
    #[should_panic(expected = "drop_rate + delay_rate")]
    fn overlapping_rates_rejected() {
        let cfg = FaultConfig {
            drop_rate: 0.7,
            delay_rate: 0.7,
            ..FaultConfig::calm()
        };
        FaultPlan::generate(&cfg, 10, 1);
    }
}
