//! The Contact Selection Query (CSQ) — §III.C.1.
//!
//! Selection procedure, exactly as the paper specifies:
//!
//! 1. the source sends a CSQ *through each of its edge nodes, one at a
//!    time* (the query travels the known intra-zone route, R hops);
//! 2. the edge node forwards the CSQ to a randomly chosen neighbor;
//! 3. each node receiving the CSQ runs the PM/EM decision
//!    ([`crate::selection`]);
//! 4. a refusing node forwards the query to a random untried neighbor
//!    (never back where it came from);
//! 5. the query walks depth-first to at most `r` hops, **backtracking**
//!    when it runs out of fresh neighbors or hits the hop limit; every
//!    backtrack hop is a counted control message (this is the overhead that
//!    separates PM from EM in Figs 4 and 12);
//! 6. on acceptance the traversed path is returned to the source (R + d
//!    reply hops) and stored.
//!
//! The walk keeps a per-query visited set — the protocol equivalent of
//! "query and source IDs are included to prevent looping" (§III.C.2.b).
//!
//! ## State layout
//!
//! Selection is the dearest host-side protocol call (every experiment pays
//! it as set-up, every validation round re-runs it for short tables), and
//! nearly all of its time is the candidate scan of step 4, not the PM/EM
//! decision. All DFS state therefore lives in a reusable [`CsqScratch`],
//! laid out so that the scan is one sequential, branch-free pass:
//!
//! * **Tried set — one `u32` stamp per CSR slot.** "Node `cur` already
//!   tried its `j`-th neighbor this walk" is `tried[first + j] == epoch`,
//!   with `first` from [`Adjacency::row`](net_topology::graph::Adjacency::row):
//!   the scan reads a row's stamps in address order beside its neighbor
//!   ids, at any degree, where per-node tried *lists* cost a linear search
//!   per scanned neighbor. Each walk takes a fresh epoch, so nothing is
//!   cleared between walks, and a stamp left by an earlier walk — even one
//!   written against a since-patched or re-provisioned adjacency whose
//!   slots have moved — can never equal the current epoch. On `u32`
//!   wrap-around the array is zeroed once.
//! * **Refusal set — one `u32` stamp per node, per source.** Zone
//!   membership is symmetric, so "the source, a contact or (EM) an edge
//!   node lies in X's zone" is "X lies in one of *their* zones".
//!   [`select_contacts`] stamps those zones once per source and extends
//!   the set when a contact is added; the §III.C.2 overlap decision at X
//!   is then one array read. [`crate::selection::decides_to_be_contact`]
//!   stays the pointwise spec: debug builds assert agreement on every
//!   evaluation.
//! * **Node flags — one byte per node** (`ON_PATH | EVALUATED`), cleared
//!   lazily from the list of nodes the walk touched.
//! * **Candidates, intra-zone route, DFS stack, shuffled edge list,
//!   accepted path** — plain reused buffers; an accepted contact's path is
//!   copied from the last into its row of the contact store.

use manet_routing::neighborhood::Neighborhood;
use manet_routing::network::Network;
use net_topology::node::NodeId;
use sim_core::rng::RngStream;
use sim_core::stats::{MsgKind, MsgStats};
use sim_core::time::SimTime;

use crate::config::{CardConfig, SelectionMethod};
use crate::contact::RowEdit;
use crate::selection::{decides_to_be_contact, passes_acceptance_draw};

/// Walk budget meaning "CSQ through every edge node" (no cap) — the
/// paper's from-scratch selection mode (Figs 3–9).
pub const ALL_EDGE_NODES: usize = usize::MAX;

/// Outcome counters of CSQ walks, summed over one selection pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CsqWalkStats {
    /// CSQ walks launched (one per edge node tried).
    pub walks: u64,
    /// Forward CSQ hops (including the R hops to the edge node).
    pub forward_msgs: u64,
    /// Backtrack hops.
    pub backtrack_msgs: u64,
    /// Reply hops returning the chosen paths (0 when no contact found).
    pub reply_msgs: u64,
    /// Nodes that evaluated the PM/EM decision.
    pub nodes_evaluated: u64,
}

impl CsqWalkStats {
    /// Total messages of these walks.
    pub fn total(&self) -> u64 {
        self.forward_msgs + self.backtrack_msgs + self.reply_msgs
    }
}

/// Node flag: currently on the query's path.
const ON_PATH: u8 = 1;
/// Node flag: has already run (or is exempt from) the PM/EM decision. Every
/// node a walk touches has it set, so it doubles as "listed in `marked`".
const EVALUATED: u8 = 2;

/// Reusable DFS state for CSQ walks (layout and rationale: module docs).
///
/// Nothing here is O(N) per walk: stamp arrays are recycled by epoch and
/// the flags are cleared from `marked`, so a long-lived scratch (one per
/// protocol *shard* in [`crate::world::CardWorld`]'s sharded sweeps) makes
/// walks allocation-free. Scratch history never leaks into results — a
/// reused scratch behaves exactly like a fresh one, across sources and
/// across topology changes — which is what lets any shard layout produce
/// identical walks.
#[derive(Clone, Debug, Default)]
pub struct CsqScratch {
    /// `tried[slot] == epoch` ⇔ the neighbor in that CSR slot was already
    /// tried by its row's node, for this walk.
    tried: Vec<u32>,
    epoch: u32,
    /// `refuse[v] == refuse_epoch` ⇔ `v` is in the current source's
    /// refusal set.
    refuse: Vec<u32>,
    refuse_epoch: u32,
    /// `ON_PATH | EVALUATED` per node, for this walk.
    flags: Vec<u8>,
    /// Nodes with flags set by the current walk (cleared on the next).
    marked: Vec<NodeId>,
    /// DFS stack of the walk beyond (and including) the edge node.
    walk: Vec<NodeId>,
    /// Intra-zone route source → edge node of the current walk.
    route: Vec<NodeId>,
    /// Row positions of the candidate neighbors for the forwarding choice.
    candidates: Vec<u32>,
    /// Shuffled edge-node list of the current selection pass.
    edges: Vec<NodeId>,
    /// Source path of the contact the last walk found.
    path: Vec<NodeId>,
}

/// Move a stamp array on to a fresh epoch, growing it to `len`. Stamps are
/// zeroed once per `u32` wrap-around (0 is never a live epoch).
fn next_epoch(stamps: &mut Vec<u32>, epoch: &mut u32, len: usize) {
    if stamps.len() < len {
        stamps.resize(len, 0);
    }
    *epoch = epoch.wrapping_add(1);
    if *epoch == 0 {
        stamps.fill(0);
        *epoch = 1;
    }
}

impl CsqScratch {
    /// A fresh workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Start `source`'s refusal set: its own zone, its edge nodes' zones
    /// (EM only) and its current contacts' zones.
    fn begin_source(
        &mut self,
        net: &Network,
        cfg: &CardConfig,
        source: NodeId,
        contacts: &[NodeId],
    ) {
        next_epoch(&mut self.refuse, &mut self.refuse_epoch, net.node_count());
        let tables = net.tables();
        let zone = tables.of(source);
        self.refuse_zone(zone);
        if cfg.method == SelectionMethod::Edge {
            for &edge in zone.edge_nodes() {
                self.refuse_zone(tables.of(edge));
            }
        }
        for &contact in contacts {
            self.refuse_zone(tables.of(contact));
        }
    }

    /// Add every member of `zone` to the refusal set.
    fn refuse_zone(&mut self, zone: &Neighborhood) {
        for &v in zone.members() {
            self.refuse[v.index()] = self.refuse_epoch;
        }
    }
}

/// Launch one CSQ from `source` through `edge`: random DFS with
/// backtracking out to `cfg.max_contact_distance` hops. Returns the contact
/// if one accepted, its source path left in `scratch.path`, adding the
/// walk's messages to `ws`. The caller has prepared `source`'s refusal set
/// in `scratch` — which is why this is not `pub`; `contacts` (the source's
/// current ones) is read only by the debug cross-check of that set.
///
/// DFS state is *per node, per query*, exactly as §III.C.1 describes it:
/// every node remembers which neighbors it has already tried for this query
/// (step 5: the previous node "forwards it to another randomly chosen
/// neighbor"), and never forwards to a node currently on the query's path
/// ("the query and source IDs are included to prevent looping"). Off-path
/// nodes may be *walked through* again via a different route — but each
/// node **evaluates the contact decision only once** per query: a node
/// whose probability draw failed stays failed, which is precisely the
/// "lost opportunities when the probability fails" cost the paper charges
/// against PM. The walk is bounded: each forward consumes one (node,
/// neighbor) pair, so it ends after at most 2·|edges| steps even without
/// the `max_csq_steps` budget.
#[allow(clippy::too_many_arguments)] // mirrors the protocol message fields
fn csq_walk(
    net: &Network,
    cfg: &CardConfig,
    source: NodeId,
    edge: NodeId,
    contacts: &[NodeId],
    rng: &mut RngStream,
    scratch: &mut CsqScratch,
    ws: &mut CsqWalkStats,
) -> Option<NodeId> {
    let (adj, tables) = (net.adj(), net.tables());
    let zone = tables.of(source);
    let CsqScratch {
        tried,
        epoch,
        refuse,
        refuse_epoch,
        flags,
        marked,
        walk,
        route,
        candidates,
        path,
        ..
    } = scratch;

    // Intra-zone route source -> edge node (known proactively).
    if !zone.path_into(edge, route) {
        return None; // stale edge (mobility raced the tables)
    }
    let base = route.len() - 1; // hops source -> edge
    ws.forward_msgs += base as u64;

    // Fresh per-walk state: new tried epoch, last walk's flags cleared.
    next_epoch(tried, epoch, adj.slot_count());
    let epoch = *epoch;
    for v in marked.drain(..) {
        flags[v.index()] = 0;
    }
    if flags.len() < net.node_count() {
        flags.resize(net.node_count(), 0);
    }
    // Intra-zone nodes are never candidates, and stay on the path for the
    // whole walk: the edge node cannot bounce the query back into the zone.
    for &v in route.iter() {
        marked.push(v);
        flags[v.index()] = ON_PATH | EVALUATED;
    }

    // Walk stack beyond (and including) the edge node. Walk depth
    // d = hops from source = base + (walk.len() - 1).
    walk.clear();
    walk.push(edge);
    let r = cfg.max_contact_distance;
    let budget = cfg.csq_budget();
    let mut steps: u32 = 0;

    while let Some(&cur) = walk.last() {
        if steps >= budget {
            break;
        }
        let d = (base + walk.len() - 1) as u16;

        // Untried, off-path neighbors of the current node, in row order.
        // Every row position is written; the count advances only past a
        // real candidate, so the scan has no per-neighbor branch.
        let (first, nbrs) = adj.row(cur);
        let mut count = 0;
        if d < r {
            if candidates.len() < nbrs.len() {
                candidates.resize(nbrs.len(), 0);
            }
            let stamps = &tried[first..first + nbrs.len()];
            for (j, (&nb, &stamp)) in nbrs.iter().zip(stamps).enumerate() {
                candidates[count] = j as u32;
                count += usize::from((stamp != epoch) & (flags[nb.index()] & ON_PATH == 0));
            }
        }
        if count == 0 {
            // Dead end (or hop limit): backtrack one hop.
            walk.pop();
            flags[cur.index()] &= !ON_PATH;
            if !walk.is_empty() {
                steps += 1;
                ws.backtrack_msgs += 1;
            }
            continue;
        }

        let j = candidates[rng.index(count)] as usize;
        let x = nbrs[j];
        tried[first + j] = epoch;
        steps += 1;
        ws.forward_msgs += 1;
        walk.push(x);
        let seen = flags[x.index()];
        flags[x.index()] = seen | ON_PATH | EVALUATED;
        if seen & EVALUATED != 0 {
            continue; // this node already declined this query
        }
        marked.push(x);
        ws.nodes_evaluated += 1;

        // §III.C.2 at `x`: one read of the refusal set, then the method's
        // draw — checked against the pointwise spec in debug builds.
        let d_x = d + 1;
        let mut spec_rng = rng.clone();
        let accepts = refuse[x.index()] != *refuse_epoch && passes_acceptance_draw(cfg, d_x, rng);
        debug_assert_eq!(
            accepts,
            decides_to_be_contact(
                cfg,
                tables,
                x,
                source,
                contacts,
                zone.edge_nodes(),
                d_x,
                &mut spec_rng,
            ),
            "refusal set of {source} disagrees with the §III.C.2 decision at {x}"
        );
        if accepts {
            // Path = intra-zone route + walk (skip duplicated edge node).
            path.clear();
            path.extend_from_slice(route);
            path.extend_from_slice(&walk[1..]);
            ws.reply_msgs += path.len() as u64 - 1;
            return Some(x);
        }
    }
    None
}

/// §III.C.1 step 1: run CSQs through the source's edge nodes (shuffled),
/// one at a time, until `row` holds `cfg.target_contacts` contacts,
/// `max_walks` CSQs have been launched, or every edge node has been tried.
/// Pass [`ALL_EDGE_NODES`] for an unrestricted from-scratch pass, or the
/// per-round walk budget for steady-state re-selection (§III.C.3 rule 5).
/// Each contact found is written to `row` after those it already holds,
/// confirmed at the current link version (every hop was just walked).
/// Records the pass's messages into `stats` at time `at` and returns its
/// summed walk counters.
#[allow(clippy::too_many_arguments)] // mirrors the protocol message fields
pub fn select_contacts(
    net: &Network,
    cfg: &CardConfig,
    source: NodeId,
    row: &mut RowEdit<'_>,
    rng: &mut RngStream,
    stats: &mut MsgStats,
    at: SimTime,
    max_walks: usize,
    scratch: &mut CsqScratch,
) -> CsqWalkStats {
    let mut edges = std::mem::take(&mut scratch.edges);
    edges.clear();
    edges.extend_from_slice(net.tables().of(source).edge_nodes());
    rng.shuffle(&mut edges);
    scratch.begin_source(net, cfg, source, row.ids());
    let mut ws = CsqWalkStats::default();

    for &edge in edges.iter().take(max_walks) {
        if row.len() >= cfg.target_contacts {
            break;
        }
        ws.walks += 1;
        if let Some(x) = csq_walk(net, cfg, source, edge, row.ids(), rng, scratch, &mut ws) {
            // A tombstoned candidate was just watched dying: don't
            // re-select it until its tombstone decays (calm worlds never
            // tombstone, so this is the pre-fault behavior there).
            if !row.contains(x) && !row.is_tombstoned(x) {
                scratch.refuse_zone(net.tables().of(x));
                row.push(&scratch.path, net.link_version());
            }
        }
    }

    scratch.edges = edges;
    stats.record_n(at, MsgKind::Csq, ws.forward_msgs);
    stats.record_n(at, MsgKind::CsqBacktrack, ws.backtrack_msgs);
    stats.record_n(at, MsgKind::CsqReply, ws.reply_msgs);
    ws
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::{ContactStore, ContactTable};
    use net_topology::scenario::Scenario;
    use sim_core::time::SimDuration;

    fn stats() -> MsgStats {
        MsgStats::new(SimDuration::from_secs(2))
    }

    /// One selection pass for `source` into an empty one-row store.
    fn select_into(
        net: &Network,
        cfg: &CardConfig,
        source: NodeId,
        rng: &mut RngStream,
        st: &mut MsgStats,
        max_walks: usize,
        scratch: &mut CsqScratch,
    ) -> (ContactStore, CsqWalkStats) {
        let mut store = ContactStore::new(1);
        let mut ws = CsqWalkStats::default();
        store.rewrite(|_, row| {
            ws = select_contacts(
                net,
                cfg,
                source,
                row,
                rng,
                st,
                SimTime::ZERO,
                max_walks,
                scratch,
            );
        });
        (store, ws)
    }

    /// A dense-enough random network where contacts exist.
    fn test_net() -> Network {
        // ~short paths: 200 nodes, 600x600, range 60 → avg degree ~ 6
        Network::from_scenario(&Scenario::new(200, 600.0, 600.0, 60.0), 2, 11)
    }

    fn cfg_em() -> CardConfig {
        CardConfig::default()
            .with_radius(2)
            .with_max_contact_distance(10)
            .with_target_contacts(4)
            .with_method(SelectionMethod::Edge)
    }

    #[test]
    fn em_walk_finds_valid_contact() {
        let net = test_net();
        let cfg = cfg_em();
        let mut rng = RngStream::seed_from_u64(3);
        let mut st = stats();
        let mut scratch = CsqScratch::new();
        let source = NodeId::new(0);
        let (store, walks) = select_into(
            &net,
            &cfg,
            source,
            &mut rng,
            &mut st,
            ALL_EDGE_NODES,
            &mut scratch,
        );
        let table = store.table(0);
        assert!(walks.walks > 0);
        if table.is_empty() {
            // extremely unlucky seed — fail loudly so we pick another seed
            panic!("no contacts selected on a 200-node network");
        }
        for c in table.contacts() {
            // EM invariant: walk-path hops within (2R, r]
            assert!(c.hops() > 2 * cfg.radius, "hops {} <= 2R", c.hops());
            assert!(c.hops() <= cfg.max_contact_distance);
            assert_eq!(c.source(), source);
            // true distance also > 2R (the edge check is geometric)
            let bfs = net_topology::bfs::full_bfs(net.adj(), source);
            assert!(bfs.distance(c.id).unwrap() > 2 * cfg.radius);
            // the stored path is a valid hop-by-hop route
            for w in c.path.windows(2) {
                assert!(net.is_link(w[0], w[1]), "broken stored path");
            }
            // no overlap with the source neighborhood at selection time
            assert!(!net.tables().of(c.id).contains(source));
        }
    }

    #[test]
    fn contact_list_prevents_overlapping_contacts() {
        let net = test_net();
        let cfg = cfg_em();
        let mut rng = RngStream::seed_from_u64(5);
        let mut st = stats();
        let mut scratch = CsqScratch::new();
        let (store, _) = select_into(
            &net,
            &cfg,
            NodeId::new(1),
            &mut rng,
            &mut st,
            ALL_EDGE_NODES,
            &mut scratch,
        );
        let table = store.table(0);
        // pairwise: no contact inside another contact's neighborhood
        let ids: Vec<NodeId> = table.ids().collect();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                assert!(
                    !net.tables().of(a).contains(b),
                    "contacts {a} and {b} have overlapping neighborhoods"
                );
            }
        }
    }

    #[test]
    fn messages_are_recorded_by_kind() {
        let net = test_net();
        let cfg = cfg_em();
        let mut rng = RngStream::seed_from_u64(7);
        let mut st = stats();
        let mut scratch = CsqScratch::new();
        let (_, walks) = select_into(
            &net,
            &cfg,
            NodeId::new(2),
            &mut rng,
            &mut st,
            ALL_EDGE_NODES,
            &mut scratch,
        );
        assert!(walks.forward_msgs > 0);
        assert_eq!(st.total(MsgKind::Csq), walks.forward_msgs);
        assert_eq!(st.total(MsgKind::CsqBacktrack), walks.backtrack_msgs);
        assert_eq!(st.total(MsgKind::CsqReply), walks.reply_msgs);
        assert_eq!(st.total_where(MsgKind::is_selection), walks.total());
    }

    #[test]
    fn respects_target_contacts_cap() {
        let net = test_net();
        let cfg = cfg_em().with_target_contacts(1);
        let mut rng = RngStream::seed_from_u64(9);
        let mut st = stats();
        let mut scratch = CsqScratch::new();
        let (store, _) = select_into(
            &net,
            &cfg,
            NodeId::new(3),
            &mut rng,
            &mut st,
            ALL_EDGE_NODES,
            &mut scratch,
        );
        let table = store.table(0);
        assert!(table.len() <= 1);
    }

    #[test]
    fn pm_eq2_contact_is_beyond_2r_in_walk_distance() {
        let net = test_net();
        let cfg = cfg_em().with_method(SelectionMethod::ProbabilisticEq2);
        let mut rng = RngStream::seed_from_u64(13);
        let mut st = stats();
        let mut scratch = CsqScratch::new();
        let (store, _) = select_into(
            &net,
            &cfg,
            NodeId::new(4),
            &mut rng,
            &mut st,
            ALL_EDGE_NODES,
            &mut scratch,
        );
        let table = store.table(0);
        for c in table.contacts() {
            assert!(
                c.hops() > 2 * cfg.radius,
                "eq2 P=0 at d<=2R, got {}",
                c.hops()
            );
            assert!(c.hops() <= cfg.max_contact_distance);
        }
    }

    #[test]
    fn isolated_source_selects_nothing() {
        // One lonely node: no edge nodes, no walks, no messages.
        let net = Network::from_positions(
            net_topology::geometry::Field::square(100.0),
            vec![net_topology::geometry::Point2::new(50.0, 50.0)],
            30.0,
            2,
        );
        let cfg = cfg_em();
        let mut rng = RngStream::seed_from_u64(1);
        let mut st = stats();
        let mut scratch = CsqScratch::new();
        let (store, walks) = select_into(
            &net,
            &cfg,
            NodeId::new(0),
            &mut rng,
            &mut st,
            ALL_EDGE_NODES,
            &mut scratch,
        );
        let table = store.table(0);
        assert_eq!(walks, CsqWalkStats::default());
        assert!(table.is_empty());
        assert_eq!(st.grand_total(), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let net = test_net();
            let cfg = cfg_em();
            let mut rng = RngStream::seed_from_u64(seed);
            let mut st = stats();
            let mut scratch = CsqScratch::new();
            let (store, _) = select_into(
                &net,
                &cfg,
                NodeId::new(5),
                &mut rng,
                &mut st,
                ALL_EDGE_NODES,
                &mut scratch,
            );
            let table = store.table(0);
            (table.ids().collect::<Vec<_>>(), st.grand_total())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        // One long-lived scratch across many sources must behave exactly
        // like a fresh scratch per source (lazy clearing leaks nothing).
        let net = test_net();
        let cfg = cfg_em();
        let run = |reuse: bool| {
            let mut st = stats();
            let mut shared = CsqScratch::new();
            let mut all: Vec<Vec<NodeId>> = Vec::new();
            for i in 0..20u32 {
                let mut rng = RngStream::seed_from_u64(1000 + i as u64);
                let mut fresh = CsqScratch::new();
                let scratch = if reuse { &mut shared } else { &mut fresh };
                let source = NodeId::new(i);
                let (store, _) = select_into(
                    &net,
                    &cfg,
                    source,
                    &mut rng,
                    &mut st,
                    ALL_EDGE_NODES,
                    scratch,
                );
                all.push(store.table(0).ids().collect());
            }
            all
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn budget_caps_walk() {
        let net = test_net();
        let mut cfg = cfg_em();
        cfg.max_csq_steps = 3; // floored to 2r by csq_budget()
        let budget = cfg.csq_budget() as u64;
        assert_eq!(budget, 2 * cfg.max_contact_distance as u64);
        let mut rng = RngStream::seed_from_u64(17);
        let mut st = stats();
        let mut scratch = CsqScratch::new();
        let (_, ws) = select_into(
            &net,
            &cfg,
            NodeId::new(0),
            &mut rng,
            &mut st,
            1,
            &mut scratch,
        );
        assert_eq!(ws.walks, 1);
        // intra-zone route hops are charged before the budgeted DFS
        assert!(ws.forward_msgs + ws.backtrack_msgs <= budget + cfg.radius as u64 + 1);
    }

    #[test]
    fn limited_selection_launches_at_most_max_walks() {
        let net = test_net();
        let cfg = cfg_em();
        let mut rng = RngStream::seed_from_u64(23);
        let mut st = stats();
        let mut scratch = CsqScratch::new();
        let (store, walks) = select_into(
            &net,
            &cfg,
            NodeId::new(6),
            &mut rng,
            &mut st,
            2,
            &mut scratch,
        );
        let table = store.table(0);
        assert!(walks.walks <= 2);
        assert!(table.len() <= 2);
    }

    // ---- differential tests against the oracle walk ----------------------

    use net_topology::geometry::{Field, Point2};
    use proptest::prelude::*;

    const METHODS: [SelectionMethod; 3] = [
        SelectionMethod::Edge,
        SelectionMethod::ProbabilisticEq1,
        SelectionMethod::ProbabilisticEq2,
    ];

    /// Run one selection pass for each of the first `sources` nodes of
    /// `net` — all on the caller's long-lived `scratch` — through the
    /// production walk and through the oracle (fresh state per pass), from
    /// identical inputs, and require every observable to agree per source:
    /// contacts with their paths, tombstones, summed walk counters, the
    /// recorded `MsgStats` and the RNG stream position. `store` carries
    /// the sweep's result forward.
    fn assert_sweep_matches_oracle(
        net: &Network,
        cfg: &CardConfig,
        store: &mut ContactStore,
        sources: usize,
        seed: u64,
        max_walks: usize,
        scratch: &mut CsqScratch,
    ) {
        let at = SimTime::ZERO;
        let mut want_store = store.clone();
        let rng = |k: usize| RngStream::seed_from_u64(seed + k as u64);
        // Per source: summed walk counters, the `MsgStats` and the next draw.
        let (mut got, mut want) = (Vec::new(), Vec::new());
        store.rewrite(|k, row| {
            row.keep_all();
            if k < sources {
                let (mut st, mut rng) = (stats(), rng(k));
                let source = NodeId::from(k);
                let ws = select_contacts(
                    net, cfg, source, row, &mut rng, &mut st, at, max_walks, scratch,
                );
                got.push((ws, format!("{st:?}"), rng.next_raw()));
            }
        });
        want_store.rewrite(|k, row| {
            row.keep_all();
            if k < sources {
                let (mut st, mut rng) = (stats(), rng(k));
                let fresh = &mut oracle::CsqScratch::new();
                let source = NodeId::from(k);
                let per_walk = oracle::select_contacts(
                    net, cfg, source, row, &mut rng, &mut st, at, max_walks, fresh,
                );
                let mut ws = CsqWalkStats::default();
                for w in &per_walk {
                    ws.walks += w.walks;
                    ws.forward_msgs += w.forward_msgs;
                    ws.backtrack_msgs += w.backtrack_msgs;
                    ws.reply_msgs += w.reply_msgs;
                    ws.nodes_evaluated += w.nodes_evaluated;
                }
                want.push((ws, format!("{st:?}"), rng.next_raw()));
            }
        });
        let paths = |t: ContactTable<'_>| t.contacts().map(|c| c.path.to_vec()).collect::<Vec<_>>();
        for (k, (got, want)) in got.iter().zip(&want).enumerate() {
            let (table, want_table) = (store.table(k), want_store.table(k));
            assert_eq!(got, want, "walk counters, MsgStats and RNG of node {k}");
            assert_eq!(paths(table), paths(want_table), "contacts of node {k}");
            assert_eq!(table.tombstones(), want_table.tombstones());
        }
    }

    /// Teleport nodes and refresh connectivity through the mover-driven
    /// patch path (rows rewritten in place, the CSR re-provisioned when one
    /// outgrows its slack — slot indices move either way).
    fn relocate(net: &mut Network, moves: &[(usize, Point2)]) {
        let n = net.node_count();
        let mut movers: Vec<NodeId> = Vec::new();
        for &(i, to) in moves {
            net.positions_mut()[i % n] = to;
            movers.push(NodeId::from(i % n));
        }
        movers.sort_unstable();
        movers.dedup();
        net.refresh_movers(&movers);
    }

    /// Make room for re-selection: every table loses its oldest contact,
    /// every other one to a tombstone (so walks re-find a barred node).
    fn evict_oldest(store: &mut ContactStore) {
        store.rewrite(|i, row| {
            let mut old = row.old();
            if let Some(oldest) = old.next() {
                if i % 2 == 1 {
                    row.tombstone(oldest.id, 2);
                }
            }
            for c in old {
                row.push(&c.path, c.confirmed);
            }
        });
    }

    fn row_starts(net: &Network) -> Vec<usize> {
        NodeId::all(net.node_count())
            .map(|v| net.adj().row(v).0)
            .collect()
    }

    #[test]
    fn long_lived_scratch_survives_csr_relayout() {
        // Stamps are keyed by CSR slot, and slots move when the adjacency
        // is patched past a row's slack. A scratch that has stamped the old
        // layout must walk the new one exactly like the oracle.
        let mut net = test_net();
        let mut scratch = CsqScratch::new();
        let n = net.node_count();
        let mut store = ContactStore::new(n);
        for (k, &method) in METHODS.iter().enumerate() {
            let cfg = cfg_em().with_method(method);
            assert_sweep_matches_oracle(
                &net,
                &cfg,
                &mut store,
                n,
                100,
                ALL_EDGE_NODES,
                &mut scratch,
            );
            // Pile twelve nodes onto node 0: its row (and its neighbors')
            // outgrows the slack, so the whole CSR is laid out afresh.
            let before = row_starts(&net);
            let hub = net.positions()[0];
            let moves: Vec<(usize, Point2)> = (0..12)
                .map(|j| (20 + 12 * k + j, Point2::new(hub.x + j as f64, hub.y)))
                .collect();
            relocate(&mut net, &moves);
            assert_ne!(before, row_starts(&net), "the relayout must move rows");
            evict_oldest(&mut store);
            assert_sweep_matches_oracle(&net, &cfg, &mut store, n, 200, 2, &mut scratch);
            evict_oldest(&mut store);
        }
    }

    #[test]
    fn hub_of_degree_over_64_matches_oracle() {
        // 70 nodes within a 20 m disc (a clique: degree >= 69), and a
        // chain leaving it so the hub's neighbors are walked through.
        let mut points: Vec<Point2> = (0..70)
            .map(|i| Point2::new(10.0 + (i % 10) as f64 * 1.5, 40.0 + (i / 10) as f64 * 2.0))
            .collect();
        points.extend((1..=14).map(|i| Point2::new(25.0 + i as f64 * 25.0, 45.0)));
        let net = Network::from_positions(Field::new(400.0, 100.0), points, 30.0, 2);
        assert!(net.adj().degree(NodeId::new(0)) > 64);
        let mut scratch = CsqScratch::new();
        for &method in &METHODS {
            let cfg = cfg_em().with_method(method);
            let n = net.node_count();
            let mut store = ContactStore::new(n);
            assert_sweep_matches_oracle(&net, &cfg, &mut store, n, 7, ALL_EDGE_NODES, &mut scratch);
            assert!(store.contact_count() > 0);
        }
    }

    #[test]
    fn epoch_wraparound_zeroes_both_stamp_arrays() {
        let net = test_net();
        let mut scratch = CsqScratch::new();
        let n = net.node_count();
        for &method in &METHODS {
            let mut store = ContactStore::new(n);
            let cfg = cfg_em().with_method(method);
            // Size the arrays, then plant the worst case: every stamp
            // equals the first epoch after the wrap, and both counters sit
            // on the brink. Without the zeroing, every neighbor would read
            // as tried and every node as refusing.
            assert_sweep_matches_oracle(&net, &cfg, &mut store, 4, 1, 1, &mut scratch);
            scratch.tried.fill(1);
            scratch.refuse.fill(1);
            scratch.epoch = u32::MAX;
            scratch.refuse_epoch = u32::MAX;
            assert_sweep_matches_oracle(&net, &cfg, &mut store, n, 2, ALL_EDGE_NODES, &mut scratch);
            assert!(scratch.epoch < 10_000 && scratch.refuse_epoch < 10_000);
            assert!(store.contact_count() > 0);
        }
    }

    #[test]
    fn stale_edge_returns_before_touching_anything() {
        // An "edge node" outside the source's zone has no intra-zone
        // route: no walk, no messages, no RNG draw.
        let net = test_net();
        let cfg = cfg_em();
        let source = NodeId::new(0);
        let outsider = NodeId::all(net.node_count())
            .find(|&v| !net.tables().of(source).contains(v))
            .expect("a 200-node field is wider than one zone");
        let mut rng = RngStream::seed_from_u64(29);
        let mut untouched = rng.clone();
        let mut scratch = CsqScratch::new();
        scratch.begin_source(&net, &cfg, source, &[]);
        let mut ws = CsqWalkStats::default();
        let found = csq_walk(
            &net,
            &cfg,
            source,
            outsider,
            &[],
            &mut rng,
            &mut scratch,
            &mut ws,
        );
        assert_eq!(found, None);
        assert_eq!(ws, CsqWalkStats::default());
        assert_eq!(rng.next_raw(), untouched.next_raw());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random unit-disk graphs × {EM, PM eq 1, PM eq 2} × walk and step
        /// budgets: the production pass equals the oracle pass for every
        /// source, with ONE scratch living through two topology changes
        /// (random relocations patched in place, then a pile-up that
        /// outgrows row slack) and through tables that already hold
        /// contacts and tombstones.
        #[test]
        fn prop_selection_matches_oracle(
            points in proptest::collection::vec((0.0f64..320.0, 0.0f64..320.0), 40..100),
            moves in proptest::collection::vec((0usize..100, 0.0f64..320.0, 0.0f64..320.0), 1..16),
            method in 0usize..3,
            radius in 1u16..3,
            annulus in 1u16..7,
            tight_budget in any::<bool>(),
            walks in 0usize..4,
            seed in 0u64..10_000,
        ) {
            let mut cfg = CardConfig::default()
                .with_radius(radius)
                .with_max_contact_distance(2 * radius + annulus)
                .with_target_contacts(3)
                .with_method(METHODS[method]);
            if tight_budget {
                cfg.max_csq_steps = 1; // floored to 2r by csq_budget()
            }
            let max_walks = if walks == 0 { ALL_EDGE_NODES } else { walks };
            let points: Vec<Point2> = points.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let mut net = Network::from_positions(Field::square(320.0), points, 60.0, radius);
            let mut scratch = CsqScratch::new();
            let n = net.node_count();
            let mut store = ContactStore::new(n);

            assert_sweep_matches_oracle(&net, &cfg, &mut store, n, seed, max_walks, &mut scratch);
            let scattered: Vec<(usize, Point2)> =
                moves.iter().map(|&(i, x, y)| (i, Point2::new(x, y))).collect();
            relocate(&mut net, &scattered);
            evict_oldest(&mut store);
            assert_sweep_matches_oracle(&net, &cfg, &mut store, n, seed + 1000, max_walks, &mut scratch);
            let hub = net.positions()[0];
            let piled: Vec<(usize, Point2)> = moves
                .iter()
                .enumerate()
                .map(|(k, &(i, ..))| (i, Point2::new(hub.x, (hub.y + k as f64).min(320.0))))
                .collect();
            relocate(&mut net, &piled);
            evict_oldest(&mut store);
            assert_sweep_matches_oracle(&net, &cfg, &mut store, n, seed + 2000, max_walks, &mut scratch);
        }
    }

    /// The walk as it was before the slot-stamped rewrite, kept verbatim as
    /// the single oracle: per-node `Vec` tried lists searched linearly, a
    /// branchy candidate filter, the pointwise §III.C.2 decision
    /// ([`decides_to_be_contact`]: binary searches per evaluation),
    /// `path_to` + `route.clone()`, messages recorded per walk and one
    /// `CsqWalkStats` per walk.
    mod oracle {
        use super::super::*;

        /// Per-query DFS state of the oracle walk: per-node tried *lists* and
        /// one `bool` array per flag.
        #[derive(Clone, Debug, Default)]
        pub struct CsqScratch {
            /// Neighbors already tried per node, for this query.
            tried: Vec<Vec<NodeId>>,
            /// Is the node currently on the query's path?
            on_path: Vec<bool>,
            /// Has the node already run (or been exempted from) the PM/EM decision?
            evaluated: Vec<bool>,
            /// Has the node been dirtied this walk (dedup for `marked`)?
            dirty: Vec<bool>,
            /// Nodes dirtied by the current walk (cleared on the next `begin`).
            marked: Vec<NodeId>,
            /// DFS stack of the walk beyond (and including) the edge node.
            walk: Vec<NodeId>,
            /// Candidate-neighbor buffer for the random forwarding choice.
            candidates: Vec<NodeId>,
            /// Shuffled edge-node list of the current selection pass.
            edges: Vec<NodeId>,
        }

        impl CsqScratch {
            /// A fresh workspace (buffers grow on first use).
            pub fn new() -> Self {
                Self::default()
            }

            /// Reset per-walk state, clearing only what the last walk touched.
            fn begin(&mut self, n: usize) {
                for &v in &self.marked {
                    self.tried[v.index()].clear();
                    self.on_path[v.index()] = false;
                    self.evaluated[v.index()] = false;
                    self.dirty[v.index()] = false;
                }
                self.marked.clear();
                self.walk.clear();
                if self.on_path.len() < n {
                    self.tried.resize_with(n, Vec::new);
                    self.on_path.resize(n, false);
                    self.evaluated.resize(n, false);
                    self.dirty.resize(n, false);
                }
            }

            /// Remember that `v`'s per-walk state must be cleared next time.
            #[inline]
            fn touch(&mut self, v: NodeId) {
                if !self.dirty[v.index()] {
                    self.dirty[v.index()] = true;
                    self.marked.push(v);
                }
            }
        }

        /// Launch one CSQ from `source` through `edge`: random DFS with
        /// backtracking out to `cfg.max_contact_distance` hops. Returns the contact
        /// if one accepted. Records messages into `stats` at time `at`.
        ///
        /// DFS state is *per node, per query*, exactly as §III.C.1 describes it:
        /// every node remembers which neighbors it has already tried for this query
        /// (step 5: the previous node "forwards it to another randomly chosen
        /// neighbor"), and never forwards to a node currently on the query's path
        /// ("the query and source IDs are included to prevent looping"). Off-path
        /// nodes may be *walked through* again via a different route — but each
        /// node **evaluates the contact decision only once** per query: a node
        /// whose probability draw failed stays failed, which is precisely the
        /// "lost opportunities when the probability fails" cost the paper charges
        /// against PM. The walk is bounded: each forward consumes one (node,
        /// neighbor) pair, so it ends after at most 2·|edges| steps even without
        /// the `max_csq_steps` budget.
        #[allow(clippy::too_many_arguments)] // mirrors the protocol message fields
        pub fn csq_walk(
            net: &Network,
            cfg: &CardConfig,
            source: NodeId,
            edge: NodeId,
            contact_list: &[NodeId],
            rng: &mut RngStream,
            stats: &mut MsgStats,
            at: SimTime,
            scratch: &mut CsqScratch,
        ) -> (Option<Vec<NodeId>>, CsqWalkStats) {
            let tables = net.tables();
            let mut ws = CsqWalkStats {
                walks: 1,
                ..CsqWalkStats::default()
            };

            // Intra-zone route source -> edge node (known proactively).
            let Some(route) = tables.of(source).path_to(edge) else {
                return (None, ws); // stale edge (mobility raced the tables)
            };
            ws.forward_msgs += route.len() as u64 - 1;

            let edge_list = tables.of(source).edge_nodes();
            let r = cfg.max_contact_distance;
            let n = net.node_count();

            // Per-node DFS state for this query, reused across walks.
            scratch.begin(n);
            for &v in &route {
                scratch.touch(v);
                scratch.on_path[v.index()] = true;
                scratch.evaluated[v.index()] = true; // intra-zone nodes are never candidates
            }
            // The edge node must not bounce the query straight back into the zone.
            if route.len() >= 2 {
                scratch.tried[edge.index()].push(route[route.len() - 2]);
            }

            // Walk stack beyond (and including) the edge node. Walk depth
            // d = hops from source = (route.len() - 1) + (walk.len() - 1).
            scratch.walk.push(edge);
            let mut steps: u32 = 0;
            let budget = cfg.csq_budget();

            while let Some(&cur) = scratch.walk.last() {
                if steps >= budget {
                    break;
                }
                let d = (route.len() - 1 + scratch.walk.len() - 1) as u16;

                // Untried, off-path neighbors of the current node.
                let next = if d < r {
                    scratch.candidates.clear();
                    scratch
                        .candidates
                        .extend(net.adj().neighbors(cur).iter().copied().filter(|nb| {
                            !scratch.on_path[nb.index()] && !scratch.tried[cur.index()].contains(nb)
                        }));
                    rng.choose(&scratch.candidates).copied()
                } else {
                    None
                };

                match next {
                    Some(x) => {
                        steps += 1;
                        ws.forward_msgs += 1;
                        scratch.touch(x);
                        scratch.tried[cur.index()].push(x);
                        scratch.on_path[x.index()] = true;
                        scratch.walk.push(x);
                        let d_x = d + 1;
                        let accepts = if scratch.evaluated[x.index()] {
                            false // this node already declined this query
                        } else {
                            scratch.evaluated[x.index()] = true;
                            ws.nodes_evaluated += 1;
                            decides_to_be_contact(
                                cfg,
                                tables,
                                x,
                                source,
                                contact_list,
                                edge_list,
                                d_x,
                                rng,
                            )
                        };
                        if accepts {
                            // Path = intra-zone route + walk (skip duplicated edge node).
                            let mut path = route.clone();
                            path.extend_from_slice(&scratch.walk[1..]);
                            ws.reply_msgs += path.len() as u64 - 1;
                            stats.record_n(at, MsgKind::Csq, ws.forward_msgs);
                            stats.record_n(at, MsgKind::CsqBacktrack, ws.backtrack_msgs);
                            stats.record_n(at, MsgKind::CsqReply, ws.reply_msgs);
                            return (Some(path), ws);
                        }
                    }
                    None => {
                        // Dead end (or hop limit): backtrack one hop.
                        let popped = scratch.walk.pop().expect("walk non-empty");
                        scratch.on_path[popped.index()] = false;
                        if !scratch.walk.is_empty() {
                            steps += 1;
                            ws.backtrack_msgs += 1;
                        }
                    }
                }
            }

            stats.record_n(at, MsgKind::Csq, ws.forward_msgs);
            stats.record_n(at, MsgKind::CsqBacktrack, ws.backtrack_msgs);
            (None, ws)
        }

        /// §III.C.1 step 1: run CSQs through the source's edge nodes (shuffled),
        /// one at a time, until the table holds `cfg.target_contacts` contacts,
        /// `max_walks` CSQs have been launched, or every edge node has been tried.
        /// Pass [`ALL_EDGE_NODES`] for an unrestricted from-scratch pass, or the
        /// per-round walk budget for steady-state re-selection (§III.C.3 rule 5).
        /// Returns per-walk stats.
        #[allow(clippy::too_many_arguments)] // mirrors the protocol message fields
        pub fn select_contacts(
            net: &Network,
            cfg: &CardConfig,
            source: NodeId,
            table: &mut RowEdit<'_>,
            rng: &mut RngStream,
            stats: &mut MsgStats,
            at: SimTime,
            max_walks: usize,
            scratch: &mut CsqScratch,
        ) -> Vec<CsqWalkStats> {
            let mut edges = std::mem::take(&mut scratch.edges);
            edges.clear();
            edges.extend_from_slice(net.tables().of(source).edge_nodes());
            rng.shuffle(&mut edges);
            let mut walk_stats = Vec::new();

            for &edge in edges.iter().take(max_walks) {
                if table.len() >= cfg.target_contacts {
                    break;
                }
                let (found, ws) =
                    csq_walk(net, cfg, source, edge, table.ids(), rng, stats, at, scratch);
                walk_stats.push(ws);
                if let Some(path) = found {
                    // A tombstoned candidate was just watched dying: don't
                    // re-select it until its tombstone decays (calm worlds never
                    // tombstone, so this is the pre-fault behavior there).
                    let x = path[path.len() - 1];
                    if !table.contains(x) && !table.is_tombstoned(x) {
                        table.push(&path, crate::contact::UNCONFIRMED);
                    }
                }
            }

            scratch.edges = edges;
            walk_stats
        }
    }
}
