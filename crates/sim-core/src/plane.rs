//! Cross-shard message plane: shard-owned outboxes, batched exchange
//! rounds, deterministic delivery order.
//!
//! The sharded protocol layers (card-core) cut protocol state into
//! shards for their fan-outs — each shard writes only its own nodes'
//! contact rows, RNG streams, backoff state and hints during a parallel
//! phase. Any effect one shard wants to have on another shard's nodes
//! must travel as a typed message through a [`MessagePlane`]: the sending
//! shard pushes into its own [`Outbox`] during a parallel phase (no
//! locks, no sharing), the caller runs [`MessagePlane::exchange`] as a
//! sequential barrier, and the mailboxes (a plain `Vec`, one per
//! destination shard) are then drained in shard order.
//!
//! ## Delivery-order contract
//!
//! `exchange` moves every message into the destination mailboxes in
//! **(destination shard, deferred first, source shard, send sequence)**
//! order:
//!
//! * mailbox `d` holds all messages addressed to shard `d`: first every
//!   message a faulted exchange deferred to `d` (see below), then this
//!   round's fresh traffic grouped by ascending source shard;
//! * within one `(source, destination)` pair, messages appear in the
//!   exact order the source pushed them (per-channel FIFO).
//!
//! Draining mailboxes `0..shards` in index order therefore replays a
//! global order that is a pure function of *what each shard sent*, never
//! of worker count or thread interleaving. This is what lets
//! plane-routed protocol paths stay bit-identical to their retained
//! serial references at any shard x worker combination.
//!
//! ## Double buffering
//!
//! Outbox lanes and mailboxes are long-lived `Vec`s: `exchange` drains
//! lanes into mailboxes without freeing capacity, so steady-state rounds
//! allocate nothing.
//!
//! ## Faulted exchange
//!
//! [`MessagePlane::exchange_faulted`] is the fault-injection boundary: a
//! caller-supplied verdict function (see [`crate::faults::FaultPlan::message_verdict`])
//! classifies each *fresh* message as delivered, dropped, or delayed.
//! Delayed messages park in their destination's deferred lane and are
//! delivered **unconditionally** at the next exchange, ahead of all of
//! that round's fresh traffic: they were sent in an earlier round, so
//! they precede everything sent in this one, whatever shard sent them.
//! Deferred-first is what keeps a faulted history shard-invariant — if a
//! deferred message waited behind fresh traffic from lower-numbered
//! source shards, a holder's delivery order would depend on where the
//! shard boundaries fall. Nothing is delayed twice. The traffic ledger
//! accounts for every message exactly once:
//!
//! ```text
//! sent == local + cross_shard + dropped + deferred_pending()
//! ```
//!
//! which collapses to `sent == local + cross_shard + dropped` whenever
//! the deferred lanes are drained (and to the familiar
//! `sent == local + cross_shard` on a fault-free plane).
//!
//! ## Logical messages and envelopes
//!
//! A sender may combine identical logical messages into one *envelope*
//! that carries a count ([`Envelope::weight`]). The ledger above is kept
//! in logical messages: an envelope weighs its count in `sent`, `local`,
//! `cross_shard`, `dropped`, `delayed`, `max_round_msgs` and
//! [`MessagePlane::deferred_pending`], so combining at the sender moves
//! none of them. [`PlaneStats::envelopes`] counts what physically moved
//! (each fresh envelope once, at its first exchange); like the
//! local/cross split it depends on how senders are partitioned, so it is
//! not shard-invariant. An envelope draws *one* fault verdict, which is
//! exact as long as the verdict is keyed on content that excludes the
//! count: every logical copy would have drawn that same verdict.

use crate::faults::FaultVerdict;

/// A plane message's weight in the traffic ledger: how many logical
/// messages one envelope carries. Plain messages weigh one (the default);
/// a sender-side combined run weighs its count.
pub trait Envelope {
    /// Logical messages carried (at least 1).
    #[inline]
    fn weight(&self) -> u64 {
        1
    }
}

macro_rules! single_message {
    ($($t:ty),*) => {$(
        /// A bare integer payload is one logical message.
        impl Envelope for $t {}
    )*};
}

single_message!(u8, u32, u64);

/// Per-source-shard send queue, one FIFO lane per destination shard.
///
/// Each parallel worker owns exactly one `Outbox` (its shard's), so
/// sends are plain `Vec::push` — no synchronization.
#[derive(Debug, Default, Clone)]
pub struct Outbox<M> {
    /// `lanes[dst]` holds messages for shard `dst` in send order.
    lanes: Vec<Vec<M>>,
}

impl<M> Outbox<M> {
    fn new(shards: usize) -> Self {
        Outbox {
            lanes: (0..shards).map(|_| Vec::new()).collect(),
        }
    }

    /// Queue `msg` for delivery to `dst` at the next exchange.
    #[inline]
    pub fn send(&mut self, dst: usize, msg: M) {
        self.lanes[dst].push(msg);
    }

    /// Heap bytes reserved by the lanes.
    fn buffer_bytes(&self) -> usize {
        self.lanes.iter().map(Vec::capacity).sum::<usize>() * std::mem::size_of::<M>()
    }
}

/// Traffic accounting for one plane. All counters are cumulative over
/// the plane's lifetime.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PlaneStats {
    /// Exchange barriers run.
    pub rounds: u64,
    /// Total logical messages moved through exchanges.
    pub sent: u64,
    /// Envelopes that carried them: `sent`'s physical count (equal to
    /// `sent` unless senders combine runs; not shard-invariant).
    pub envelopes: u64,
    /// Messages whose source and destination shard differ.
    pub cross_shard: u64,
    /// Messages delivered back to their own shard.
    pub local: u64,
    /// Largest single-exchange message count.
    pub max_round_msgs: u64,
    /// Messages dropped by a faulted exchange (never delivered).
    pub dropped: u64,
    /// Messages delayed by one exchange via the deferred lanes. A message
    /// is delayed at most once, so this also bounds the deferred backlog.
    pub delayed: u64,
    /// Shard-boundary crossings *metered* on paths that the in-process
    /// build resolves by direct substrate reads (validation relay hops):
    /// the traffic a process-level deployment would route as messages.
    pub metered_crossings: u64,
}

/// Shard-to-shard message plane with deterministic batched delivery.
///
/// See the [module docs](self) for the ordering contract. Typical use:
///
/// ```
/// use sim_core::plane::MessagePlane;
///
/// let mut plane: MessagePlane<u64> = MessagePlane::new(3);
/// // parallel phase: each worker owns one outbox
/// for (src, ob) in plane.outboxes_mut().iter_mut().enumerate() {
///     ob.send((src + 1) % 3, src as u64);
/// }
/// plane.exchange();
/// // parallel phase: each worker drains its own mailbox
/// assert_eq!(plane.mailbox(1), &[0u64]);
/// assert_eq!(plane.stats().sent, 3);
/// ```
#[derive(Debug, Clone)]
pub struct MessagePlane<M> {
    shards: usize,
    outboxes: Vec<Outbox<M>>,
    /// Messages a faulted exchange delayed, one lane per destination in
    /// delivery order; delivered unconditionally, first, next exchange.
    deferred: Vec<Vec<M>>,
    /// Logical weight of the deferred messages whose source shard differs
    /// from their destination: the cross-shard part of their delivery.
    deferred_cross: u64,
    /// Delivered messages per destination shard, in delivery order.
    mailboxes: Vec<Vec<M>>,
    stats: PlaneStats,
}

impl<M: Envelope> MessagePlane<M> {
    /// A plane connecting `shards` shards (at least 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        MessagePlane {
            shards,
            outboxes: (0..shards).map(|_| Outbox::new(shards)).collect(),
            deferred: (0..shards).map(|_| Vec::new()).collect(),
            deferred_cross: 0,
            mailboxes: (0..shards).map(|_| Vec::new()).collect(),
            stats: PlaneStats::default(),
        }
    }

    /// The outboxes, one per source shard, for zipping into a parallel
    /// fan-out alongside the protocol shards they belong to.
    pub fn outboxes_mut(&mut self) -> &mut [Outbox<M>] {
        &mut self.outboxes
    }

    /// The mailboxes, one per destination shard, for a parallel drain
    /// phase after an exchange (`Vec::drain` keeps their capacity).
    pub fn mailboxes_mut(&mut self) -> &mut [Vec<M>] {
        &mut self.mailboxes
    }

    /// The messages delivered to shard `dst`, in delivery order.
    pub fn mailbox(&self, dst: usize) -> &[M] {
        &self.mailboxes[dst]
    }

    /// Deliver every queued message: sequential barrier between two
    /// parallel phases.
    ///
    /// Clears each mailbox (keeping capacity), then fills each one with
    /// the messages deferred to it, then its source shards' lanes in
    /// ascending source order, preserving per-lane FIFO. Returns the
    /// number of logical messages moved this round.
    pub fn exchange(&mut self) -> usize {
        self.exchange_faulted(|_| FaultVerdict::Deliver)
    }

    /// [`exchange`](Self::exchange) with a fault boundary: `verdict`
    /// classifies each fresh message by its content as delivered, dropped,
    /// or delayed by one exchange. Messages deferred by a *previous*
    /// exchange are delivered unconditionally, ahead of all fresh traffic
    /// to their destination, so nothing is delayed twice. Returns the
    /// number of logical messages delivered.
    ///
    /// `verdict` sees no shard index or queue position, so re-sharding
    /// the same protocol history yields the same fault history; a caller
    /// that sends identical payloads in different rounds salts its keys.
    pub fn exchange_faulted<F>(&mut self, mut verdict: F) -> usize
    where
        F: FnMut(&M) -> FaultVerdict,
    {
        // Deferred traffic first: it was sent in an earlier round and its
        // verdict is already spent.
        let mut deferred = 0u64;
        for (mailbox, dlane) in self.mailboxes.iter_mut().zip(&mut self.deferred) {
            mailbox.clear();
            deferred += dlane.iter().map(M::weight).sum::<u64>();
            mailbox.append(dlane);
        }
        self.stats.cross_shard += self.deferred_cross;
        self.stats.local += deferred - self.deferred_cross;
        self.deferred_cross = 0;
        let mut round = deferred;
        let mut fresh = 0u64;
        // Then fresh traffic, appended to each mailbox in ascending source
        // order. `sent` counts each message exactly once, at its first
        // exchange.
        for src in 0..self.shards {
            for dst in 0..self.shards {
                let mut delivered = 0u64;
                let lane = &mut self.outboxes[src].lanes[dst];
                self.stats.envelopes += lane.len() as u64;
                for m in lane.drain(..) {
                    let w = m.weight();
                    fresh += w;
                    match verdict(&m) {
                        FaultVerdict::Deliver => {
                            delivered += w;
                            self.mailboxes[dst].push(m);
                        }
                        FaultVerdict::Drop => self.stats.dropped += w,
                        FaultVerdict::Delay => {
                            self.stats.delayed += w;
                            if src != dst {
                                self.deferred_cross += w;
                            }
                            self.deferred[dst].push(m);
                        }
                    }
                }
                round += delivered;
                if src == dst {
                    self.stats.local += delivered;
                } else {
                    self.stats.cross_shard += delivered;
                }
            }
        }
        self.stats.rounds += 1;
        self.stats.sent += fresh;
        self.stats.max_round_msgs = self.stats.max_round_msgs.max(round);
        round as usize
    }

    /// Cumulative traffic statistics.
    pub fn stats(&self) -> &PlaneStats {
        &self.stats
    }

    /// Mutable statistics access (for metering direct-read crossings
    /// that a distributed build would route through the plane).
    pub fn stats_mut(&mut self) -> &mut PlaneStats {
        &mut self.stats
    }

    /// Drop any undelivered messages — queued-but-unexchanged *and*
    /// deferred-by-delay alike (keeps capacity). Deferred messages were
    /// counted as sent at their exchange, so their weight moves to
    /// `dropped` and the ledger still closes; queued ones were never sent.
    pub fn clear_pending(&mut self) {
        self.stats.dropped += self.deferred_pending() as u64;
        self.deferred_cross = 0;
        for lane in self.outboxes.iter_mut().flat_map(|ob| &mut ob.lanes) {
            lane.clear();
        }
        for lane in &mut self.deferred {
            lane.clear();
        }
    }

    /// Logical messages currently parked in the deferred lanes (delayed
    /// by a faulted exchange and not yet delivered).
    pub fn deferred_pending(&self) -> usize {
        self.deferred().map(|m| m.weight() as usize).sum()
    }

    /// The deferred messages, lane by lane, each lane in delivery order.
    pub fn deferred(&self) -> impl Iterator<Item = &M> {
        self.deferred.iter().flatten()
    }

    /// Heap bytes reserved by the outbox lanes, deferred lanes and
    /// mailboxes — transient buffers that live between exchanges, kept
    /// for reuse (see "Double buffering").
    pub fn buffer_bytes(&self) -> usize {
        let outboxes: usize = self.outboxes.iter().map(Outbox::buffer_bytes).sum();
        let held: usize = self
            .deferred
            .iter()
            .map(Vec::capacity)
            .chain(self.mailboxes.iter().map(Vec::capacity))
            .sum();
        outboxes + held * std::mem::size_of::<M>()
    }

    /// Take every deferred message out of the plane, in delivery order,
    /// for migration to a plane with a different shard count. They have
    /// already spent their fault verdict: re-inject them with
    /// [`defer`](Self::defer).
    pub fn take_deferred(&mut self) -> Vec<M> {
        self.deferred_cross = 0;
        self.deferred
            .iter_mut()
            .flat_map(|lane| lane.drain(..))
            .collect()
    }

    /// Park `msg` in `dst`'s deferred lane: it will be delivered
    /// unconditionally at the next exchange, ahead of fresh traffic, and
    /// counted as a local delivery. Used to migrate in-flight delayed
    /// messages across a shard-count change.
    pub fn defer(&mut self, dst: usize, msg: M) {
        self.deferred[dst].push(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_orders_by_dst_then_src_then_seq() {
        let mut plane: MessagePlane<u32> = MessagePlane::new(3);
        // shard 2 sends first; delivery order must not care.
        plane.outboxes_mut()[2].send(0, 20);
        plane.outboxes_mut()[2].send(0, 21);
        plane.outboxes_mut()[0].send(0, 1);
        plane.outboxes_mut()[1].send(0, 10);
        plane.outboxes_mut()[0].send(2, 2);
        let moved = plane.exchange();
        assert_eq!(moved, 5);
        // mailbox 0: src 0 first (FIFO), then src 1, then src 2 (FIFO)
        assert_eq!(plane.mailbox(0), &[1u32, 10, 20, 21]);
        assert!(plane.mailbox(1).is_empty());
        assert_eq!(plane.mailbox(2), &[2u32]);
    }

    #[test]
    fn stats_split_local_and_cross() {
        let mut plane: MessagePlane<u8> = MessagePlane::new(2);
        plane.outboxes_mut()[0].send(0, 1);
        plane.outboxes_mut()[0].send(1, 2);
        plane.outboxes_mut()[1].send(0, 3);
        plane.exchange();
        plane.exchange(); // empty round still counts
        let s = plane.stats();
        assert_eq!(s.rounds, 2);
        assert_eq!(s.sent, 3);
        assert_eq!(s.local, 1);
        assert_eq!(s.cross_shard, 2);
        assert_eq!(s.max_round_msgs, 3);
    }

    #[test]
    fn buffers_are_reused_across_rounds() {
        let mut plane: MessagePlane<u64> = MessagePlane::new(2);
        for i in 0..64 {
            plane.outboxes_mut()[0].send(1, i);
        }
        plane.exchange();
        let cap = plane.mailboxes_mut()[1].capacity();
        assert_eq!(plane.mailbox(1).len(), 64);
        for i in 0..64 {
            plane.outboxes_mut()[0].send(1, i);
        }
        plane.exchange();
        // same round shape: no mailbox regrowth
        assert_eq!(plane.mailboxes_mut()[1].capacity(), cap);
        assert_eq!(plane.mailbox(1).len(), 64);
    }

    #[test]
    fn one_shard_degenerate_plane_works() {
        let mut plane: MessagePlane<u8> = MessagePlane::new(1);
        plane.outboxes_mut()[0].send(0, 7);
        plane.exchange();
        assert_eq!(plane.mailbox(0), &[7u8]);
        assert_eq!(plane.stats().local, 1);
        assert_eq!(plane.stats().cross_shard, 0);
    }

    #[test]
    fn clear_pending_drops_queued_messages() {
        let mut plane: MessagePlane<u8> = MessagePlane::new(2);
        plane.outboxes_mut()[0].send(1, 9);
        plane.clear_pending();
        assert_eq!(plane.exchange(), 0);
        assert!(plane.mailbox(1).is_empty());
        // A deferred message was already sent: discarding it is a drop.
        plane.outboxes_mut()[0].send(1, 7);
        plane.exchange_faulted(|_| FaultVerdict::Delay);
        plane.clear_pending();
        let s = plane.stats();
        assert_eq!((s.sent, s.dropped, plane.deferred_pending()), (1, 1, 0));
        assert_eq!(s.sent, s.local + s.cross_shard + s.dropped);
    }

    #[test]
    fn faulted_exchange_keeps_the_ledger() {
        let mut plane: MessagePlane<u32> = MessagePlane::new(2);
        plane.outboxes_mut()[0].send(1, 1); // dropped
        plane.outboxes_mut()[0].send(1, 2); // delayed
        plane.outboxes_mut()[0].send(1, 3); // delivered
        plane.outboxes_mut()[1].send(1, 4); // delivered (local)
        let moved = plane.exchange_faulted(|&m| match m {
            1 => FaultVerdict::Drop,
            2 => FaultVerdict::Delay,
            _ => FaultVerdict::Deliver,
        });
        assert_eq!(moved, 2);
        assert_eq!(plane.mailbox(1), &[3u32, 4]);
        let s = plane.stats().clone();
        assert_eq!((s.sent, s.dropped, s.delayed), (4, 1, 1));
        assert_eq!(plane.deferred_pending(), 1);
        assert_eq!(
            s.sent,
            s.local + s.cross_shard + s.dropped + plane.deferred_pending() as u64
        );
        // Next exchange delivers the deferred message unconditionally,
        // even with an all-drop verdict, and ahead of fresh traffic.
        plane.outboxes_mut()[0].send(1, 5);
        let moved = plane.exchange_faulted(|&m| {
            assert_ne!(m, 2, "deferred message must not be re-verdicted");
            FaultVerdict::Deliver
        });
        assert_eq!(moved, 2);
        assert_eq!(plane.mailbox(1), &[2u32, 5]);
        assert_eq!(plane.deferred_pending(), 0);
        let s = plane.stats();
        assert_eq!(s.sent, s.local + s.cross_shard + s.dropped);
        assert_eq!((s.local, s.cross_shard), (1, 3));
    }

    #[test]
    fn deferred_messages_precede_all_fresh_traffic() {
        let mut plane: MessagePlane<u32> = MessagePlane::new(2);
        plane.outboxes_mut()[1].send(0, 10); // delayed
        plane.exchange_faulted(|_| FaultVerdict::Delay);
        assert!(plane.mailbox(0).is_empty());
        // Source 0's fresh traffic sorts ahead of source 1's on the same
        // round, but source 1's deferred message was sent a round earlier:
        // it lands first, wherever the shard boundaries fall.
        plane.outboxes_mut()[0].send(0, 1);
        plane.outboxes_mut()[1].send(0, 11);
        assert_eq!(plane.exchange(), 3);
        assert_eq!(plane.mailbox(0), &[10u32, 1, 11]);
        let s = plane.stats();
        assert_eq!((s.sent, s.local, s.cross_shard), (3, 1, 2));
    }

    /// A counted run of identical payloads, as a sender-side combiner
    /// emits them.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Run(u32, u32);

    impl Envelope for Run {
        fn weight(&self) -> u64 {
            self.1 as u64
        }
    }

    #[test]
    fn envelopes_weigh_their_count_in_the_ledger() {
        let mut plane: MessagePlane<Run> = MessagePlane::new(2);
        plane.outboxes_mut()[0].send(1, Run(1, 5)); // dropped
        plane.outboxes_mut()[0].send(1, Run(2, 3)); // delayed
        plane.outboxes_mut()[0].send(0, Run(3, 4)); // delivered (local)
        plane.outboxes_mut()[1].send(0, Run(4, 2)); // delivered (cross)
        let moved = plane.exchange_faulted(|m| match m.0 {
            1 => FaultVerdict::Drop,
            2 => FaultVerdict::Delay,
            _ => FaultVerdict::Deliver,
        });
        assert_eq!(moved, 6);
        assert_eq!(plane.mailbox(0), &[Run(3, 4), Run(4, 2)]);
        let s = plane.stats().clone();
        assert_eq!((s.sent, s.envelopes), (14, 4));
        assert_eq!((s.local, s.cross_shard, s.dropped, s.delayed), (4, 2, 5, 3));
        assert_eq!(s.max_round_msgs, 6);
        assert_eq!(plane.deferred_pending(), 3);
        assert_eq!(
            s.sent,
            s.local + s.cross_shard + s.dropped + plane.deferred_pending() as u64
        );
        // The delayed run lands whole at the next exchange; it was sent
        // (and counted as an envelope) once, at its first exchange.
        assert_eq!(plane.exchange(), 3);
        assert_eq!(plane.mailbox(1), &[Run(2, 3)]);
        let s = plane.stats();
        assert_eq!((s.sent, s.envelopes, s.cross_shard), (14, 4, 5));
        assert_eq!(s.sent, s.local + s.cross_shard + s.dropped);
        assert!(plane.buffer_bytes() > 0, "drained buffers keep capacity");
    }

    #[test]
    fn take_deferred_migrates_in_delivery_order() {
        let mut plane: MessagePlane<u32> = MessagePlane::new(2);
        plane.outboxes_mut()[1].send(1, 12);
        plane.outboxes_mut()[0].send(1, 10);
        plane.outboxes_mut()[0].send(0, 11);
        plane.exchange_faulted(|_| FaultVerdict::Delay);
        assert_eq!(plane.take_deferred(), vec![11, 10, 12]);
        assert_eq!(plane.deferred_pending(), 0);
        // Re-injecting via defer() delivers at the next exchange.
        let mut fresh: MessagePlane<u32> = MessagePlane::new(1);
        fresh.defer(0, 10);
        fresh.exchange();
        assert_eq!(fresh.mailbox(0), &[10u32]);
        // defer() delivery adds to local but not to sent: the message was
        // already counted at its original exchange.
        assert_eq!(fresh.stats().sent, 0);
        assert_eq!(fresh.stats().local, 1);
    }
}
