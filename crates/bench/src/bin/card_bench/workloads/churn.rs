//! `substrate_churn`: a bare `Network` under a random walk in which every
//! node moves on every tick, so `mobility`, `net-topology` and
//! `manet-routing` do all the work and `card-core` does none.

use std::time::Instant;

use manet_routing::network::Network;
use mobility::model::MobilityModel;
use mobility::walk::RandomWalk;
use net_topology::node::NodeId;
use sim_core::rng::SeedSplitter;

use super::{
    build_network, fill_network, fill_tick_spans, ratio, Finish, RunCfg, Shape, Tally, Workload, R,
    TICK,
};
use crate::digest::Digest;
use crate::gen;
use crate::trace::Tracer;

pub struct Churn {
    seed: u64,
    ticks: usize,
    base: Network,
    movers: Vec<NodeId>,
    last: Option<(Network, Tally)>,
}

impl Workload for Churn {
    const NAME: &'static str = "substrate_churn";
    const RATE: &'static str = "ticks_per_s";

    fn setup(cfg: &RunCfg, shape: &Shape, tr: &mut Tracer) -> Churn {
        Churn {
            seed: cfg.seed,
            ticks: shape.churn_ticks,
            base: build_network(shape.churn_nodes, cfg.seed, tr),
            movers: Vec::new(),
            last: None,
        }
    }

    fn sizes(&self) -> String {
        format!(
            "N={} unit={} ticks of {} ms, walk 0.5-2 m/s",
            self.base.node_count(),
            self.ticks,
            TICK.ticks() / 1000
        )
    }

    fn op(&self) -> (&'static str, u64) {
        ("tick", self.ticks as u64)
    }

    fn unit(&mut self, tr: &mut Tracer) -> (f64, u64) {
        self.last = None; // before cloning, so two networks are alive at most
        let mut net = self.base.clone();
        let mut model = RandomWalk::new(
            net.node_count(),
            net.field(),
            0.5,
            2.0,
            10.0,
            SeedSplitter::new(self.seed).stream("card-bench-walk", 0),
        );
        let mut tally = Tally::default();
        tr.next_unit();
        let t0 = Instant::now();
        let unit = tr.begin("unit");
        for _ in 0..self.ticks {
            if tr.on() {
                // `Network::advance`, taken apart so each half gets a span.
                let open = tr.begin("mobility.advance");
                model.advance_reporting(net.positions_mut(), TICK, &mut self.movers);
                tr.end(open);
                let open = tr.begin("network.refresh");
                net.refresh_movers(&self.movers);
                tr.end(open);
            } else {
                net.advance(&mut model, TICK);
            }
            tally.add(net.pipeline_counters());
        }
        tr.end(unit);
        let wall = t0.elapsed().as_secs_f64();
        let mut d = Digest::new();
        d.network(&net);
        self.last = Some((net, tally));
        (wall, d.finish())
    }

    fn finish(&mut self, _shape: &Shape, tr: &mut Tracer, fin: &mut Finish) {
        let (net, tally) = self.last.as_ref().expect("a unit ran");
        let n = net.node_count();

        // No protocol runs here, so the simulated cost is the substrate's
        // own counter: neighbourhood tables rebuilt per tick (the updates a
        // real intra-zone routing protocol would have to send).
        fin.sim_cost_per_op = ratio(tally.dirty, tally.ticks);

        // Oracle: the incrementally maintained state must equal a network
        // built from scratch over the final positions.
        let fresh =
            Network::from_positions(net.field(), net.positions().to_vec(), gen::TX_RANGE, R);
        let mut wrong = 0u64;
        for node in NodeId::all(n) {
            let same = net.adj().neighbors(node).len() == fresh.adj().neighbors(node).len()
                && net.tables().of(node).members() == fresh.tables().of(node).members();
            wrong += u64::from(!same);
        }
        if net.adj().canonical_csr() != fresh.adj().canonical_csr() {
            wrong = wrong.max(1);
        }
        fin.must_be_zero("nodes_differing_from_a_from_scratch_build", wrong);
        // Nothing can fail to resolve here; what can fail is the incremental
        // refresh, so the share is that of nodes the oracle confirms.
        fin.success_share = 1.0 - wrong as f64 / n as f64;

        tally.fill(&mut fin.layers);
        fill_tick_spans(tr, &mut fin.layers);
        fill_network(net, tr, &mut fin.layers);
    }
}
