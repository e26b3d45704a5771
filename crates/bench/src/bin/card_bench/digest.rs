//! `state_digest`: one number over everything a unit of work leaves behind
//! (positions, adjacency, neighbourhood and contact tables, message
//! series, outcomes). A change that only makes the program faster must
//! leave it, and every simulated metric, as they were.

use card_core::{CardWorld, QueryOutcome};
use manet_routing::network::Network;
use net_topology::node::NodeId;

/// FNV-1a over 64-bit words with a SplitMix64 finish.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf29ce484222325)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x100000001b3);
    }

    pub fn finish(self) -> u64 {
        let mut z = self.0.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn nodes(&mut self, ids: &[NodeId]) {
        self.word(ids.len() as u64);
        for id in ids {
            self.word(u64::from(id.raw()));
        }
    }

    /// Positions (bit patterns), canonical adjacency CSR and every node's
    /// R-hop neighbourhood membership.
    pub fn network(&mut self, net: &Network) {
        for p in net.positions() {
            self.word(p.x.to_bits());
            self.word(p.y.to_bits());
        }
        let (offsets, edges) = net.adj().canonical_csr();
        for o in offsets {
            self.word(u64::from(o));
        }
        self.nodes(&edges);
        for node in NodeId::all(net.node_count()) {
            self.nodes(net.tables().of(node).members());
        }
    }

    /// The network plus the protocol state layered over it: contact tables
    /// with stored paths and tombstones, the bucketed message series,
    /// maintenance totals, hint and standing-query counters.
    pub fn world(&mut self, world: &CardWorld) {
        self.network(world.network());
        for table in world.contact_tables().iter() {
            self.word(table.len() as u64);
            for c in table.contacts() {
                self.word(u64::from(c.id.raw()));
                self.nodes(&c.path);
            }
            for &(node, ttl) in table.tombstones() {
                self.word(u64::from(node.raw()) << 32 | u64::from(ttl));
            }
        }
        for count in world.stats().series_where(|_| true) {
            self.word(count);
        }
        let mt = world.maintenance_totals();
        for v in [mt.validated, mt.lost, mt.dropped_out_of_range, mt.recovered] {
            self.word(v);
        }
        let hs = world.hint_stats();
        for v in [
            hs.lookups,
            hs.hits,
            hs.deposits,
            hs.probe_msgs,
            hs.evicted_mobility,
        ] {
            self.word(v);
        }
        let ss = world.standing_queries().stats();
        for v in [ss.resolved, ss.reresolved, ss.breaks, ss.broken_ticks] {
            self.word(v);
        }
    }

    pub fn outcomes(&mut self, outcomes: &[QueryOutcome]) {
        self.word(outcomes.len() as u64);
        for o in outcomes {
            self.word(u64::from(o.found) | u64::from(o.depth_used) << 1);
            self.word(o.query_msgs);
            self.word(o.reply_msgs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_order_and_content() {
        let run = |words: &[u64]| {
            let mut d = Digest::new();
            for &w in words {
                d.word(w);
            }
            d.finish()
        };
        assert_eq!(run(&[1, 2, 3]), run(&[1, 2, 3]));
        assert_ne!(run(&[1, 2, 3]), run(&[3, 2, 1]));
        assert_ne!(run(&[]), run(&[0]));
    }
}
