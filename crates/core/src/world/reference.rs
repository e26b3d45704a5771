//! The serial oracles of the world's parallel sweeps: the same per-node or
//! per-pair work on the caller's thread, in node or pair order. The
//! parallel paths must match them bit for bit at any worker or shard
//! count; the integration tests and the microbenches call them, so they
//! stay public.

use net_topology::node::NodeId;

use crate::csq::{select_contacts, ALL_EDGE_NODES};
use crate::query::QueryOutcome;

use super::CardWorld;

impl CardWorld {
    /// Serial reference for [`CardWorld::select_all_contacts`]: the same
    /// per-node work on the caller's thread, one node at a time, recording
    /// straight into the world's statistics. Kept (like
    /// `Network::refresh_full`) as the equivalence anchor for tests and the
    /// `select_all_contacts/*` benches.
    pub fn select_all_contacts_serial(&mut self) {
        for shard in &mut self.shards {
            for k in 0..shard.contacts.len() {
                select_contacts(
                    &self.net,
                    &self.cfg,
                    NodeId::from(shard.start + k),
                    &mut shard.contacts[k],
                    &mut shard.rngs[k],
                    &mut self.stats,
                    self.now,
                    ALL_EDGE_NODES,
                    &mut shard.scratch,
                );
            }
        }
        self.rebuild_contact_graph();
    }

    /// Serial reference for [`CardWorld::validation_round`]: the same
    /// round with the shards mapped in order on the caller's thread.
    pub fn validation_round_serial(&mut self) {
        self.run_validation_round(false);
    }

    /// Serial reference for [`CardWorld::query_all`]: the same queries one
    /// at a time on the caller's thread, each a sweep of one on lane 0. Kept (like the `*_serial` protocol sweeps) as
    /// the equivalence anchor for `tests/query_engine.rs` and the
    /// `query_sweep/*` benches.
    pub fn query_all_serial(&mut self, pairs: &[(NodeId, NodeId)]) -> Vec<QueryOutcome> {
        pairs.iter().map(|&(s, t)| self.query(s, t)).collect()
    }
}
