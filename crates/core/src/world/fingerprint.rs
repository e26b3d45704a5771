//! The world fingerprint: what counts as world state, in one place.
//!
//! [`CardWorld::fingerprint`] reduces a world to words, layer by layer, so
//! two worlds the determinism contract says are the same — at any shard
//! count, under tick or event drive, calm or faulted — compare with `==`,
//! and [`Fingerprint::diff`] names where two that differ first part: the
//! layer, and the node when that layer is kept per node. Each layer is
//! hashed in node order from canonical forms, so the shard count never
//! shows.
//!
//! | layer | per node | whole world |
//! |---|---|---|
//! | [`Layer::Topology`] | position (`to_bits`), adjacency row, zone members with their distances | — |
//! | [`Layer::Tables`] | contacts `(id, path)`, tombstones, validation-retry and selection backoffs, RNG position (the next draw of a clone of its stream) | — |
//! | [`Layer::Hints`] | hint slots, LRU clock and occupancy count; the deferred deposits it holds, in the order they were delayed, each run as its copies | cache on/off, epoch, deposit ledger `(sent, dropped, delayed, local + cross)` |
//! | [`Layer::Timeline`] | — | query-retry queue, standing queries, `now`, contacts series |
//! | [`Layer::Counters`] | — | per-kind `MsgStats` series, `MaintenanceTotals`, `HintStats`, `FaultReport`, lossy-exchange count |
//!
//! The contact walk reads each contact's id and hop count from the same
//! store rows whose `(id, path)` [`Layer::Tables`] hashes, so the walk
//! needs no layer of its own.
//!
//! **What stays out** is what only caches or meters: `Contact::confirmed`,
//! the network's row stamps and link version, the CSQ scratch, buffer
//! capacities, the shard count, the deposit ledger's local/cross split,
//! `metered_crossings`, and its `rounds` and `envelopes`. The split and
//! the crossings move with the shard boundaries, and `rounds`/`envelopes`
//! with how traffic was batched (a query is one exchange, a sweep of many
//! is one too). Confirmation stamps record *when* a path was last checked:
//! a clone that re-walks every hop (the stamp oracle's) holds the same
//! paths at other versions.

use std::fmt;
use std::hash::{Hash, Hasher};

use net_topology::node::NodeId;
use sim_core::stats::MsgKind;

use super::CardWorld;

/// A layer of the [`Fingerprint`] (the module docs list what each holds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Positions, adjacency and zone tables (per node).
    Topology,
    /// Contact tables, backoffs and RNG positions (per node).
    Tables,
    /// Hint stores and the deferred deposits (per node), the deposit
    /// ledger.
    Hints,
    /// Query retries, standing queries and the clock.
    Timeline,
    /// Message, maintenance, hint and fault counters.
    Counters,
}

impl Layer {
    /// Every layer, in [`Fingerprint::diff`] order.
    pub const ALL: [Layer; 5] = [
        Layer::Topology,
        Layer::Tables,
        Layer::Hints,
        Layer::Timeline,
        Layer::Counters,
    ];

    /// Does the layer keep one word per node (before any whole-world word)?
    fn per_node(self) -> bool {
        (self as usize) < Layer::Timeline as usize
    }
}

/// A world reduced to words: per layer, one word per node plus, where the
/// layer has one, a trailing whole-world word — or a single word for a
/// whole-world layer. `Debug` prints one word per layer.
#[derive(PartialEq, Eq)]
pub struct Fingerprint {
    nodes: usize,
    layers: [Vec<u64>; 5],
}

impl Fingerprint {
    /// The first layer in which `self` and `other` differ, with the first
    /// differing node when the differing word is a node's (`None` for a
    /// whole-world word); `None` when they are equal.
    pub fn diff(&self, other: &Fingerprint) -> Option<(Layer, Option<NodeId>)> {
        Layer::ALL
            .into_iter()
            .zip(self.layers.iter().zip(&other.layers))
            .find_map(|(layer, (a, b))| {
                let at = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))?;
                let node = layer.per_node() && at < self.nodes.min(other.nodes);
                Some((layer, node.then(|| NodeId::from(at))))
            })
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(Layer::ALL.iter().zip(self.layers.iter().map(word)))
            .finish()
    }
}

/// FNV-1a over the hashed bytes, finished with SplitMix64 so nearby
/// states spread over the whole word.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The word of one value.
fn word(x: &impl Hash) -> u64 {
    let mut h = Fnv::default();
    x.hash(&mut h);
    h.finish()
}

/// One word per node: what `f` feeds the hasher for node `i`.
fn per_node(n: usize, mut f: impl FnMut(usize, &mut Fnv)) -> Vec<u64> {
    (0..n)
        .map(|i| {
            let mut h = Fnv::default();
            f(i, &mut h);
            h.finish()
        })
        .collect()
}

impl CardWorld {
    /// This world's [`Fingerprint`] (what it covers: the
    /// `world/fingerprint.rs` module docs). Worlds the determinism
    /// contract calls the same have equal fingerprints. It is for tests
    /// and diagnostics; no protocol path calls it.
    pub fn fingerprint(&self) -> Fingerprint {
        let (n, net) = (self.net.node_count(), &self.net);
        let topology = per_node(n, |i, h| {
            let v = NodeId::from(i);
            let p = net.positions()[i];
            (p.x.to_bits(), p.y.to_bits(), net.adj().neighbors(v)).hash(h);
            let zone = net.tables().of(v);
            for &m in zone.members() {
                (m, zone.distance(m)).hash(h);
            }
        });
        let tables = per_node(n, |i, h| {
            let (store, k) = (&self.contacts[i / self.per], i % self.per);
            let table = store.table(k);
            table.len().hash(h);
            for c in table.contacts() {
                (c.id, c.path).hash(h);
            }
            (table.tombstones(), store.retries(k), self.backoff[i]).hash(h);
            self.rngs[i].clone().next_raw().hash(h);
        });
        let mut held: Vec<Fnv> = (0..n).map(|_| Fnv::default()).collect();
        // Runs expand to their copies: where a log splits a run depends on
        // how the sweep was cut into lanes.
        for d in &self.deferred {
            for _ in 0..d.count {
                (d.key, d.next_hop, d.depth).hash(&mut held[d.holder.index()]);
            }
        }
        let mut hints = per_node(n, |i, h| {
            if let Some(store) = &self.hints {
                store.hash_node(NodeId::from(i), h);
            }
            held[i].finish().hash(h);
        });
        let ps = &self.traffic;
        let epoch = self.hints.as_ref().map(|s| s.epoch());
        let ledger = (ps.sent, ps.dropped, ps.delayed, ps.local + ps.cross_shard);
        hints.push(word(&(self.hints.is_some(), epoch, ledger)));
        let mut h = Fnv::default();
        (&self.query_retry, &self.standing, self.now).hash(&mut h);
        for &(t, v) in self.contacts_series.points() {
            (t, v.to_bits()).hash(&mut h);
        }
        let timeline = vec![h.finish()];
        let mut h = Fnv::default();
        for kind in MsgKind::ALL {
            self.stats.series_where(|k| k == kind).hash(&mut h);
        }
        let exchanges = self.faults.as_ref().map(|rt| rt.exchanges);
        let counters = (&self.maintenance, &self.hint_stats, self.fault_report());
        (counters, exchanges).hash(&mut h);
        Fingerprint {
            nodes: n,
            layers: [topology, tables, hints, timeline, vec![h.finish()]],
        }
    }
}
