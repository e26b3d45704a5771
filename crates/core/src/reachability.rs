//! Reachability analysis — §III.B's metric and the §IV.A figures.
//!
//! The reachability of a source is the fraction of the network it can reach
//! through CARD: its own R-hop neighborhood plus the neighborhoods of its
//! contacts, contacts-of-contacts, … out to D levels. Figs 5–9 plot the
//! *distribution* of this value over all nodes as a histogram with 5%
//! buckets; this module computes both the per-node values and the
//! histograms.

use manet_routing::network::Network;
use net_topology::node::NodeId;
use sim_core::stats::PercentHistogram;
use sim_core::util::BitSet;
use std::cell::RefCell;

use crate::contact::TablesView;
use crate::query::{any_edge, QueryScratch};

/// Histogram bucket width used by every reachability figure (percent).
pub const REACH_BUCKET_PCT: f64 = 5.0;

/// The set of nodes `source` can reach at contact depth `depth`, written
/// into `out` (cleared first): its neighborhood ∪ neighborhoods of
/// contacts up to `depth` levels.
///
/// This is the allocation-free core: the contact walk runs on the shared
/// level-synchronous engine of [`QueryScratch`] (the same traversal a DSQ
/// performs — the set it accumulates is exactly the region a depth-`depth`
/// query consults), and `out` is reused by callers that sweep many
/// sources ([`ReachabilitySummary::compute`] runs all N sources on one
/// scratch and one bitset).
///
/// # Panics
/// Panics if `out` was built for fewer than `net.node_count()` nodes.
pub fn reachability_set_into(
    net: &Network,
    contact_tables: TablesView<'_>,
    source: NodeId,
    depth: u16,
    scratch: &mut QueryScratch,
    out: &mut BitSet,
) {
    let tables = net.tables();
    out.clear();
    for m in tables.of(source).iter_members() {
        out.insert(m.index());
    }

    // Level-synchronous walk of the contact graph on the query engine;
    // every newly consumed contact unions its neighborhood in. Messages
    // are not charged (this is the paper's §III.B *metric*, not a query).
    // A free call: no memo outlives it.
    let walk = &mut scratch.walk;
    walk.forget();
    walk.open(net.node_count(), source);
    let mut no_msgs = 0u64;
    for level in 1..=depth {
        walk.scan_level(level, contact_tables, &mut no_msgs, any_edge, |c, _| {
            for m in tables.of(c).iter_members() {
                out.insert(m.index());
            }
            None::<()>
        });
    }
}

thread_local! {
    /// Shared walk scratch for the owned-result convenience wrapper below.
    static LOCAL_SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::new());
}

/// The set of nodes `source` can reach at contact depth `depth`
/// (its neighborhood ∪ neighborhoods of contacts up to `depth` levels).
///
/// The returned [`BitSet`] is a *per-query* accumulator (one O(N)-bit set
/// alive at a time); the neighborhoods themselves store only O(zone)
/// sorted member arrays, so unioning a zone in is O(zone size) inserts.
/// The walk itself runs allocation-free on a thread-local
/// [`QueryScratch`]; sweeps that cannot afford the output allocation
/// either should hold their own scratch and use [`reachability_set_into`].
pub fn reachability_set(
    net: &Network,
    contact_tables: TablesView<'_>,
    source: NodeId,
    depth: u16,
) -> BitSet {
    let mut set = BitSet::new(net.node_count());
    LOCAL_SCRATCH.with(|s| {
        reachability_set_into(
            net,
            contact_tables,
            source,
            depth,
            &mut s.borrow_mut(),
            &mut set,
        );
    });
    set
}

/// Reachability of `source` as a percentage of the network size.
pub fn reachability_pct(
    net: &Network,
    contact_tables: TablesView<'_>,
    source: NodeId,
    depth: u16,
) -> f64 {
    let n = net.node_count();
    if n == 0 {
        return 0.0;
    }
    100.0 * reachability_set(net, contact_tables, source, depth).len() as f64 / n as f64
}

/// Network-wide reachability distribution (one observation per node).
#[derive(Clone, Debug)]
pub struct ReachabilitySummary {
    /// Mean reachability over all nodes, percent.
    pub mean_pct: f64,
    /// Per-node reachability, percent, indexed by node id.
    pub per_node_pct: Vec<f64>,
    /// 5%-bucket histogram (the y-axes of Figs 5–9).
    pub histogram: PercentHistogram,
}

impl ReachabilitySummary {
    /// Compute the distribution for every node at contact depth `depth`.
    ///
    /// One walk scratch and one accumulator bitset serve all N sources —
    /// the per-source work is the contact walk and the zone unions, with
    /// no per-source allocation (the old implementation allocated two
    /// O(N) vectors and a bitset per source: 2·N throwaway vectors per
    /// summary).
    pub fn compute(net: &Network, contact_tables: TablesView<'_>, depth: u16) -> Self {
        let n = net.node_count();
        let mut histogram = PercentHistogram::new(REACH_BUCKET_PCT);
        let mut per_node_pct = Vec::with_capacity(n);
        let mut sum = 0.0;
        let mut scratch = QueryScratch::with_capacity(n);
        let mut set = BitSet::new(n);
        for source in NodeId::all(n) {
            reachability_set_into(net, contact_tables, source, depth, &mut scratch, &mut set);
            let pct = 100.0 * set.len() as f64 / n as f64;
            histogram.record(pct);
            sum += pct;
            per_node_pct.push(pct);
        }
        ReachabilitySummary {
            mean_pct: if n == 0 { 0.0 } else { sum / n as f64 },
            per_node_pct,
            histogram,
        }
    }

    /// Fraction of nodes with reachability ≥ `threshold_pct` (the paper's
    /// "desirable region" of Fig 14 uses ≥ 50%).
    pub fn fraction_at_least(&self, threshold_pct: f64) -> f64 {
        if self.per_node_pct.is_empty() {
            return 0.0;
        }
        self.per_node_pct
            .iter()
            .filter(|&&p| p >= threshold_pct)
            .count() as f64
            / self.per_node_pct.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::ContactStore;
    use net_topology::geometry::{Field, Point2};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// 20-node line, 40 m spacing, range 50, R=2.
    fn line_net() -> Network {
        let positions: Vec<Point2> = (0..20)
            .map(|i| Point2::new(10.0 + 40.0 * i as f64, 10.0))
            .collect();
        Network::from_positions(Field::square(900.0), positions, 50.0, 2)
    }

    #[test]
    fn no_contacts_reachability_is_neighborhood() {
        let net = line_net();
        let tables = ContactStore::new(20);
        let set = reachability_set(&net, tables.view(), n(0), 1);
        // nbhd of node 0 at R=2: {0,1,2} → 3/20 = 15%
        assert_eq!(set.len(), 3);
        assert!((reachability_pct(&net, tables.view(), n(0), 1) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn contact_extends_reachability() {
        let net = line_net();
        let tables = ContactStore::from_paths(20, &[(0..9).map(n).collect()]);
        let set = reachability_set(&net, tables.view(), n(0), 1);
        // {0,1,2} ∪ nbhd(8) = {6,7,8,9,10} → 8 nodes
        assert_eq!(set.len(), 8);
        // the set always contains the full neighborhood
        for i in 0..3u32 {
            assert!(set.contains(i as usize));
        }
    }

    #[test]
    fn depth_two_includes_contacts_of_contacts() {
        let net = line_net();
        let tables =
            ContactStore::from_paths(20, &[(0..9).map(n).collect(), (8..17).map(n).collect()]);
        let d1 = reachability_set(&net, tables.view(), n(0), 1).len();
        let d2 = reachability_set(&net, tables.view(), n(0), 2).len();
        assert_eq!(d1, 8);
        assert_eq!(d2, 8 + 5, "level-2 contact adds nbhd(16) = {{14..18}}");
        // depth 3 with no level-3 contacts adds nothing
        let d3 = reachability_set(&net, tables.view(), n(0), 3).len();
        assert_eq!(d3, d2);
    }

    #[test]
    fn overlapping_contact_neighborhoods_do_not_double_count() {
        let net = line_net();
        let tables =
            ContactStore::from_paths(20, &[(0..9).map(n).collect(), (0..10).map(n).collect()]);
        let set = reachability_set(&net, tables.view(), n(0), 1);
        // nbhd(8)={6..10}, nbhd(9)={7..11}: union {6..11} (6 nodes) + {0,1,2}
        assert_eq!(set.len(), 9);
    }

    #[test]
    fn contact_cycles_terminate() {
        let net = line_net();
        let tables = ContactStore::from_paths(
            20,
            &[(0..9).map(n).collect(), (0..9).rev().map(n).collect()],
        );
        let set = reachability_set(&net, tables.view(), n(0), 5);
        assert!(set.len() <= 20);
    }

    #[test]
    fn summary_statistics() {
        let net = line_net();
        let tables = ContactStore::from_paths(20, &[(0..9).map(n).collect()]);
        let summary = ReachabilitySummary::compute(&net, tables.view(), 1);
        assert_eq!(summary.per_node_pct.len(), 20);
        assert_eq!(summary.histogram.total(), 20);
        // node 0: 40%; interior nodes without contacts: 25%; ends: 15%
        assert!((summary.per_node_pct[0] - 40.0).abs() < 1e-9);
        assert!(summary.mean_pct > 15.0 && summary.mean_pct < 40.0);
        assert_eq!(summary.fraction_at_least(0.0), 1.0);
        assert_eq!(summary.fraction_at_least(101.0), 0.0);
        let f40 = summary.fraction_at_least(40.0);
        assert!((f40 - 1.0 / 20.0).abs() < 1e-9, "only node 0 reaches 40%");
    }

    #[test]
    fn reused_scratch_and_bitset_match_fresh_runs() {
        let net = line_net();
        let tables =
            ContactStore::from_paths(20, &[(0..9).map(n).collect(), (8..17).map(n).collect()]);
        let mut scratch = crate::query::QueryScratch::new();
        let mut set = BitSet::new(20);
        for depth in [0u16, 1, 2, 3] {
            for src in [0u32, 5, 8, 19] {
                reachability_set_into(&net, tables.view(), n(src), depth, &mut scratch, &mut set);
                let fresh = reachability_set(&net, tables.view(), n(src), depth);
                assert_eq!(
                    set.to_vec(),
                    fresh.to_vec(),
                    "source {src} depth {depth} diverged on reuse"
                );
            }
        }
    }

    #[test]
    fn reachability_bounded_by_network() {
        let net = line_net();
        // chain of contacts covering everything
        let tables = ContactStore::from_paths(
            20,
            &[
                (0..9).map(n).collect(),
                (8..17).map(n).collect(),
                (16..20).map(n).collect(),
            ],
        );
        let pct = reachability_pct(&net, tables.view(), n(0), 10);
        assert!(pct <= 100.0);
    }
}
