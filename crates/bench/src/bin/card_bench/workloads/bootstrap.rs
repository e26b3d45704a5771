//! `bootstrap_static`: contact selection for every node of a static
//! network, then a few calm validation rounds. Selection is the costliest
//! protocol call and is mere set-up in every other workload; the substrate
//! layers are idle once the network is built.

use std::time::Instant;

use card_core::{CardConfig, CardWorld};
use manet_routing::network::Network;
use sim_core::stats::MsgKind;

use super::{
    build_network, card_config, fill_maintenance, fill_network, fill_selection, invalid_contacts,
    ratio, Finish, RunCfg, Shape, Workload, DEPTH,
};
use crate::digest::Digest;
use crate::stats::mean;
use crate::trace::Tracer;

pub struct Bootstrap {
    cfg: CardConfig,
    shards: Option<usize>,
    rounds: usize,
    base: Network,
    last: Option<CardWorld>,
}

impl Workload for Bootstrap {
    const NAME: &'static str = "bootstrap_static";
    const RATE: &'static str = "select_nodes_per_s";

    fn setup(cfg: &RunCfg, shape: &Shape, tr: &mut Tracer) -> Bootstrap {
        Bootstrap {
            cfg: card_config(cfg.seed),
            shards: cfg.shards,
            rounds: shape.bootstrap_rounds,
            base: build_network(shape.static_nodes, cfg.seed, tr),
            last: None,
        }
    }

    fn sizes(&self) -> String {
        format!(
            "N={} unit=select_all_contacts + {} validation rounds",
            self.base.node_count(),
            self.rounds
        )
    }

    fn op(&self) -> (&'static str, u64) {
        ("node bootstrapped", self.base.node_count() as u64)
    }

    fn unit(&mut self, tr: &mut Tracer) -> (f64, u64) {
        self.last = None; // before cloning, so one world is alive at most
        let mut world = CardWorld::from_network(self.base.clone(), self.cfg);
        if let Some(k) = self.shards {
            world.set_shard_count(k);
        }
        tr.next_unit();
        let t0 = Instant::now();
        let unit = tr.begin("unit");
        tr.span("selection.sweep", || world.select_all_contacts());
        for _ in 0..self.rounds {
            tr.span("maintenance.calm_round", || world.validation_round());
        }
        tr.end(unit);
        let wall = t0.elapsed().as_secs_f64();
        let mut d = Digest::new();
        d.world(&world);
        self.last = Some(world);
        (wall, d.finish())
    }

    fn finish(&mut self, _shape: &Shape, tr: &mut Tracer, fin: &mut Finish) {
        let world = self.last.as_ref().expect("a unit ran");
        let n = world.network().node_count() as u64;

        // Every message of bootstrapping a node: selection plus the rounds.
        fin.sim_cost_per_op = ratio(world.stats().grand_total(), n);
        // Mean share of the network a node reaches at depth D, which is the
        // chance that a uniformly random query resolves.
        let summary = tr.span("reachability.summary", || world.reachability_summary(DEPTH));
        fin.success_share = summary.mean_pct / 100.0;
        fin.report("reachability_pct", summary.mean_pct);
        fin.report(
            "selection_msgs_per_node",
            ratio(world.stats().total_where(MsgKind::is_selection), n),
        );

        fin.must_be_zero(
            "contacts_with_an_unwalkable_or_misplaced_path",
            invalid_contacts(world),
        );
        fin.check(
            "selection_found_contacts",
            world.total_contacts() > 0,
            format!("{} contacts", world.total_contacts()),
        );

        fill_network(world.network(), tr, &mut fin.layers);
        fill_selection(world, tr, &mut fin.layers);
        fill_maintenance(world, self.rounds as u64, &mut fin.layers);
        let layers = &mut fin.layers;
        layers.set(
            "maintenance.calm_round_ms",
            mean(&tr.ms_of("maintenance.calm_round")),
        );
        layers.set(
            "reachability.summary_ms",
            mean(&tr.ms_of("reachability.summary")),
        );
    }
}
