//! Extension experiment: resource distributions (§V future work).
//!
//! The paper closes with "We plan to further evaluate our protocols under
//! various scenarios of … resource distributions in the network". This
//! experiment runs that study: resources replicated k ∈ {1, 2, 4, 8} times,
//! placed either uniformly at random or clustered (replicas on adjacent
//! nodes), discovered by anycast DSQs from random sources. Expected shape:
//! success rises and per-query traffic falls with replication; *clustered*
//! replicas behave like fewer effective instances (they often share one
//! neighborhood), so uniform placement dominates at equal k.

use crate::output::markdown_table;
use crate::runner::parallel_map;
use card_core::resources::{distribute, resource_query, ResourceDistribution, ResourceId};
use card_core::{CardConfig, CardWorld, QueryScratch};
use net_topology::node::NodeId;
use net_topology::scenario::{Scenario, SCENARIO_5};
use sim_core::rng::SeedSplitter;
use sim_core::stats::MsgStats;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Topology family.
    pub scenario: Scenario,
    /// CARD neighborhood radius.
    pub radius: u16,
    /// CARD maximum contact distance.
    pub max_contact_distance: u16,
    /// CARD NoC.
    pub target_contacts: usize,
    /// Depth of search for the anycast queries.
    pub depth: u16,
    /// Replica counts to sweep.
    pub replica_counts: Vec<usize>,
    /// Number of distinct resources per cell.
    pub resources: usize,
    /// Queries per cell.
    pub queries: usize,
    /// Root seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            scenario: SCENARIO_5,
            radius: 3,
            max_contact_distance: 16,
            target_contacts: 10,
            depth: 2,
            replica_counts: vec![1, 2, 4, 8],
            resources: 20,
            queries: 100,
            seed: crate::DEFAULT_SEED,
        }
    }
}

impl Params {
    /// Reduced configuration for benches/CI.
    pub fn quick() -> Self {
        Params {
            scenario: Scenario::new(150, 400.0, 400.0, 50.0),
            radius: 2,
            max_contact_distance: 9,
            target_contacts: 5,
            depth: 2,
            replica_counts: vec![1, 4],
            resources: 10,
            queries: 40,
            seed: crate::DEFAULT_SEED,
        }
    }
}

/// Result of one (distribution, replicas) cell.
#[derive(Clone, Debug)]
pub struct DistRow {
    /// Distribution label.
    pub distribution: &'static str,
    /// Replicas per resource.
    pub replicas: usize,
    /// Fraction of queries that found an instance.
    pub success: f64,
    /// Mean messages per query (query + reply).
    pub msgs_per_query: f64,
    /// Fraction of queries answered from the source's own zone (free).
    pub zone_hits: f64,
}

/// Run the sweep (one world, shared across cells; registries differ).
pub fn run(params: &Params) -> Vec<DistRow> {
    let cfg = CardConfig::default()
        .with_seed(params.seed)
        .with_radius(params.radius)
        .with_max_contact_distance(params.max_contact_distance)
        .with_target_contacts(params.target_contacts)
        .with_depth(params.depth);
    let mut world = CardWorld::build(&params.scenario, cfg);
    world.select_all_contacts();
    let world = &world;

    let mut cells: Vec<(&'static str, ResourceDistribution, usize)> = Vec::new();
    for &k in &params.replica_counts {
        cells.push((
            "uniform",
            ResourceDistribution::UniformReplicated { replicas: k },
            k,
        ));
        cells.push((
            "clustered",
            ResourceDistribution::Clustered { replicas: k },
            k,
        ));
    }

    parallel_map(cells, move |(label, dist, k)| {
        let splitter = SeedSplitter::new(params.seed);
        let mut place_rng = splitter.stream("res-place", k as u64 ^ (label.len() as u64) << 32);
        let registry = distribute(world.network(), params.resources, dist, &mut place_rng);
        let mut query_rng = splitter.stream("res-query", k as u64);
        let mut stats = MsgStats::default();
        let mut scratch = QueryScratch::new(); // reused across the cell's queries
        let mut found = 0usize;
        let mut zone_hits = 0usize;
        let mut msgs = 0u64;
        for _ in 0..params.queries {
            let source = NodeId::from(query_rng.index(world.network().node_count()));
            let resource = ResourceId(query_rng.index(params.resources) as u32);
            let out = resource_query(
                world.network(),
                world.contact_tables(),
                &registry,
                None,
                source,
                resource,
                params.depth,
                &mut stats,
                world.now(),
                &mut scratch,
            );
            found += out.found as usize;
            zone_hits += (out.found && out.depth_used == 0) as usize;
            msgs += out.total_messages();
        }
        DistRow {
            distribution: label,
            replicas: k,
            success: found as f64 / params.queries as f64,
            msgs_per_query: msgs as f64 / params.queries as f64,
            zone_hits: zone_hits as f64 / params.queries as f64,
        }
    })
}

/// Render as Markdown.
pub fn render(params: &Params, rows: &[DistRow]) -> String {
    let headers = [
        "Distribution",
        "Replicas",
        "Success",
        "Msgs/query",
        "Zone hits",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.distribution.to_string(),
                r.replicas.to_string(),
                format!("{:.0}%", 100.0 * r.success),
                format!("{:.1}", r.msgs_per_query),
                format!("{:.0}%", 100.0 * r.zone_hits),
            ]
        })
        .collect();
    format!(
        "### Extension — resource distributions ({}, R={}, r={}, NoC={}, D={})\n\n{}",
        params.scenario.label(),
        params.radius,
        params.max_contact_distance,
        params.target_contacts,
        params.depth,
        markdown_table(&headers, &body)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_improves_discovery() {
        let params = Params::quick();
        let rows = run(&params);
        assert_eq!(rows.len(), 4);
        let uni: Vec<&DistRow> = rows
            .iter()
            .filter(|r| r.distribution == "uniform")
            .collect();
        assert!(
            uni[1].success >= uni[0].success,
            "more replicas must not hurt success ({:.2} -> {:.2})",
            uni[0].success,
            uni[1].success
        );
        assert!(
            uni[1].zone_hits >= uni[0].zone_hits,
            "more replicas mean more zone-local hits"
        );
    }

    #[test]
    fn uniform_beats_clustered_at_equal_replicas() {
        let params = Params::quick();
        let rows = run(&params);
        let hi = params.replica_counts.last().copied().unwrap();
        let uni = rows
            .iter()
            .find(|r| r.distribution == "uniform" && r.replicas == hi)
            .unwrap();
        let clu = rows
            .iter()
            .find(|r| r.distribution == "clustered" && r.replicas == hi)
            .unwrap();
        assert!(
            uni.success >= clu.success,
            "uniform replicas spread coverage wider than clustered \
             (uniform {:.2} vs clustered {:.2})",
            uni.success,
            clu.success
        );
    }

    #[test]
    fn deterministic() {
        let params = Params::quick();
        let a: Vec<(f64, f64)> = run(&params)
            .iter()
            .map(|r| (r.success, r.msgs_per_query))
            .collect();
        let b: Vec<(f64, f64)> = run(&params)
            .iter()
            .map(|r| (r.success, r.msgs_per_query))
            .collect();
        assert_eq!(a, b);
    }
}
