//! Standing-query upkeep: registering a subscription, resolving it through
//! the shared per-pair query body, probing its cached chain against the
//! live tables, and revalidating the chains a dirty node or a validation
//! round marked (the table and its node → chain index are
//! [`crate::standing`]).

use net_topology::node::NodeId;
use sim_core::stats::MsgKind;

use crate::standing::StandingQueries;

use super::queries::{Goal, QueryLane, QuerySink, QueryView};
use super::CardWorld;

impl CardWorld {
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
    /// answer chain is captured from the walk's parent entries. Under
    /// faults a crashed endpoint fails the subscription outright (the
    /// round heartbeat re-marks it, so a rejoin re-resolves).
    fn standing_resolve(&mut self, id: u32, initial: bool) {
        let per = self.per;
        let CardWorld {
            net,
            cfg,
            stats,
            now,
            contacts,
            lanes,
            hint_stats,
            standing,
            faults,
            ..
        } = self;
        let (source, target) = {
            let q = standing.get(id);
            (q.source, q.target)
        };
        let QueryLane {
            scratch, deposits, ..
        } = &mut lanes[0];
        // Resolution runs outside any sweep: its walk starts a fresh memo.
        scratch.walk.forget();
        let out = QueryView::over(net, contacts, per, None, cfg.depth, faults).query(
            source,
            Goal::Node(target),
            // A view without a hint store leaves the hint half (lane 0's
            // counters and log) untouched.
            &mut QuerySink {
                scratch: &mut *scratch,
                hint_stats,
                deposits,
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
            scratch.walk.answer_path()
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
    pub(super) fn standing_revalidate_marked(&mut self) {
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
