//! `query_escalate` and `query_hinted`: the same static, selected world
//! swept by `query_all_into`, with route hints off and on.
//!
//! Hints off is read-only contact-graph walking: no hint lookups, no plane
//! traffic, no maintenance. Hints on uses the same query layer differently:
//! a cold sweep misses everywhere and deposits hints through the message
//! plane, warm sweeps read them back — so a gain for reads that costs
//! writes shows in the cycle total.

use std::time::Instant;

use card_core::reachability::reachability_set;
use card_core::{CardWorld, QueryOutcome};

use super::{
    fill_faults, fill_hints_and_plane, fill_network, fill_selection, prepare_world,
    probe_single_queries, ratio, Finish, QueryFacts, RunCfg, Shape, Workload, DEPTH,
};
use crate::digest::Digest;
use crate::gen::{self, Pair, Rng};
use crate::stats::mean;
use crate::trace::Tracer;

/// Zipf exponent of the hinted workload's pair popularity.
const ZIPF_S: f64 = 1.1;
/// Pairs whose `found` flag is checked against the reachability oracle.
const ORACLE_SAMPLE: usize = 256;

pub struct Escalate {
    world: CardWorld,
    /// First half uniform random (almost all unresolvable, so each walks
    /// the full depth), second half drawn from the resolvable pool.
    pairs: Vec<Pair>,
    out: Vec<QueryOutcome>,
}

impl Workload for Escalate {
    const NAME: &'static str = "query_escalate";
    const RATE: &'static str = "queries_per_s";

    fn setup(cfg: &RunCfg, shape: &Shape, tr: &mut Tracer) -> Escalate {
        let p = prepare_world(shape.static_nodes, cfg, shape, tr);
        let half = shape.pairs_per_sweep / 2;
        let mut rng = Rng::new(cfg.seed, "escalate-pairs");
        let mut pairs = gen::uniform_pairs(shape.static_nodes, half, &mut rng);
        pairs.extend(gen::pool_draws(&p.pool, half, &mut rng));
        Escalate {
            world: p.world,
            pairs,
            out: Vec::new(),
        }
    }

    fn sizes(&self) -> String {
        format!(
            "N={} unit=1 sweep of {} pairs (half uniform, half resolvable), hints off",
            self.world.network().node_count(),
            self.pairs.len()
        )
    }

    fn op(&self) -> (&'static str, u64) {
        ("query", self.pairs.len() as u64)
    }

    fn unit(&mut self, tr: &mut Tracer) -> (f64, u64) {
        let Escalate { world, pairs, out } = self;
        let before = world.stats().grand_total();
        tr.next_unit();
        let t0 = Instant::now();
        let unit = tr.begin("unit");
        tr.span("query.sweep", || world.query_all_into(pairs, out));
        tr.end(unit);
        let wall = t0.elapsed().as_secs_f64();
        let mut d = Digest::new();
        d.outcomes(out);
        d.word(world.stats().grand_total() - before);
        (wall, d.finish())
    }

    fn finish(&mut self, shape: &Shape, tr: &mut Tracer, fin: &mut Finish) {
        let facts = QueryFacts::of(&self.out);
        fin.sim_cost_per_op = ratio(facts.msgs, facts.queries);
        fin.success_share = ratio(facts.found, facts.queries);
        fin.report("msgs_per_query", fin.sim_cost_per_op);

        let half = self.pairs.len() / 2;
        let pool_missed = self.out[half..].iter().filter(|o| !o.found).count() as u64;
        fin.report(
            "resolved_share",
            1.0 - ratio(pool_missed, (self.pairs.len() - half) as u64),
        );
        fin.must_be_zero("resolvable_pairs_left_unresolved", pool_missed);

        // Oracle: a query resolves exactly when its target lies in the
        // source's depth-D reachability set.
        let net = self.world.network();
        let stride = (self.pairs.len() / ORACLE_SAMPLE).max(1);
        let mut disagree = 0u64;
        for (&(s, t), o) in self.pairs.iter().zip(&self.out).step_by(stride) {
            let reach = reachability_set(net, self.world.contact_tables(), s, DEPTH);
            disagree += u64::from(reach.contains(t.index()) != o.found);
        }
        fin.must_be_zero("answers_disagreeing_with_the_reachability_oracle", disagree);

        if tr.on() {
            probe_single_queries(
                &mut self.world,
                &self.pairs[half..],
                shape.probe_queries,
                tr,
            );
        }
        fill_network(self.world.network(), tr, &mut fin.layers);
        fill_selection(&self.world, tr, &mut fin.layers);
        facts.fill(&mut fin.layers);
        let layers = &mut fin.layers;
        let per_query_us = 1e3 / self.pairs.len() as f64;
        layers.set(
            "query.sweep_us_per_query",
            mean(&tr.ms_of("query.sweep")) * per_query_us,
        );
        layers.set("query.single_us", mean(&tr.ms_of("query.single")) * 1e3);
        fill_hints_and_plane(&self.world, facts.queries, fin);
        fill_faults(&self.world, false, fin);
    }
}

pub struct Hinted {
    /// Selected, hints enabled and empty; every unit runs on a clone, so a
    /// unit's counters are its own.
    base: CardWorld,
    /// Zipf-popular draws from the head of the resolvable pool; every one
    /// resolved with hints off in the set-up sweep.
    pairs: Vec<Pair>,
    warm_sweeps: usize,
    cold: Vec<QueryOutcome>,
    warm: Vec<QueryOutcome>,
    last: Option<CardWorld>,
}

impl Workload for Hinted {
    const NAME: &'static str = "query_hinted";
    const RATE: &'static str = "queries_per_s";

    fn setup(cfg: &RunCfg, shape: &Shape, tr: &mut Tracer) -> Hinted {
        let mut p = prepare_world(shape.static_nodes, cfg, shape, tr);
        let mut rng = Rng::new(cfg.seed, "hinted-pairs");
        let pairs = gen::zipf_draws(&p.popular, shape.pairs_per_sweep, ZIPF_S, &mut rng);
        p.world.set_hints_enabled(true);
        Hinted {
            base: p.world,
            pairs,
            warm_sweeps: shape.warm_sweeps,
            cold: Vec::new(),
            warm: Vec::new(),
            last: None,
        }
    }

    fn sizes(&self) -> String {
        format!(
            "N={} unit=clear_hints + 1 cold + {} warm sweeps of {} Zipf({ZIPF_S}) pairs, hints on",
            self.base.network().node_count(),
            self.warm_sweeps,
            self.pairs.len()
        )
    }

    fn op(&self) -> (&'static str, u64) {
        ("query", (self.pairs.len() * (1 + self.warm_sweeps)) as u64)
    }

    fn unit(&mut self, tr: &mut Tracer) -> (f64, u64) {
        let Hinted {
            pairs, cold, warm, ..
        } = self;
        self.last = None; // before cloning, so two worlds are alive at most
        let mut world = self.base.clone();
        tr.next_unit();
        let t0 = Instant::now();
        let unit = tr.begin("unit");
        world.clear_hints();
        tr.span("hints.cold_sweep", || world.query_all_into(pairs, cold));
        for _ in 0..self.warm_sweeps {
            tr.span("hints.warm_sweep", || world.query_all_into(pairs, warm));
        }
        tr.end(unit);
        let wall = t0.elapsed().as_secs_f64();
        let mut d = Digest::new();
        d.world(&world);
        d.outcomes(cold);
        d.outcomes(warm);
        self.last = Some(world);
        (wall, d.finish())
    }

    fn finish(&mut self, shape: &Shape, tr: &mut Tracer, fin: &mut Finish) {
        let world = self.last.as_mut().expect("a unit ran");
        let queries = (self.pairs.len() * (1 + self.warm_sweeps)) as u64;
        let msgs = world.stats().grand_total() - self.base.stats().grand_total();
        fin.sim_cost_per_op = ratio(msgs, queries);
        let facts = QueryFacts::of(self.cold.iter().chain(&self.warm));
        fin.success_share = ratio(facts.found, facts.queries);
        fin.report("msgs_per_query", fin.sim_cost_per_op);
        fin.report("resolved_share", fin.success_share);
        // Every pair resolved with hints off, so a hinted miss is a wrong
        // answer: the cache may change cost, never answers.
        fin.must_be_zero(
            "hinted_answers_differing_from_hints_off",
            facts.queries - facts.found,
        );

        fill_hints_and_plane(world, queries, fin);
        fill_faults(world, false, fin);
        if tr.on() {
            probe_single_queries(world, &self.pairs, shape.probe_queries, tr);
        }
        fill_network(world.network(), tr, &mut fin.layers);
        fill_selection(world, tr, &mut fin.layers);
        facts.fill(&mut fin.layers);
        let layers = &mut fin.layers;
        let per_query_us = 1e3 / self.pairs.len() as f64;
        layers.set("query.msgs_per_query", ratio(msgs, queries));
        layers.set("query.single_us", mean(&tr.ms_of("query.single")) * 1e3);
        layers.set(
            "hints.cold_us_per_query",
            mean(&tr.ms_of("hints.cold_sweep")) * per_query_us,
        );
        layers.set(
            "hints.warm_us_per_query",
            mean(&tr.ms_of("hints.warm_sweep")) * per_query_us,
        );
    }
}
