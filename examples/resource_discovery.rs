//! Resource discovery proper: replicated services found by anycast DSQs.
//!
//! ```text
//! cargo run --release --example resource_discovery
//! ```
//!
//! CARD's target `T` is "a destination or target resource" (§III.C.4) —
//! this example exercises the resource-level API: a handful of services
//! (storage, gateway, time-sync) replicated across a 500-node network,
//! discovered by anycast queries that stop at the nearest instance, under
//! the two §V resource distributions.

use card_manet::card::resources::{distribute, resource_query, ResourceDistribution, ResourceId};
use card_manet::prelude::*;
use card_manet::sim::rng::SeedSplitter;
use card_manet::sim::stats::MsgStats;

fn main() {
    let scenario = Scenario::new(500, 710.0, 710.0, 50.0);
    let cfg = CardConfig::default()
        .with_radius(3)
        .with_max_contact_distance(16)
        .with_target_contacts(10)
        .with_depth(2)
        .with_seed(2003);

    let mut world = CardWorld::build(&scenario, cfg);
    world.select_all_contacts();
    println!("== resource discovery on {} ==", scenario.label());
    println!(
        "architecture ready: {:.1} contacts/node, D<=2 reachability {:.0}%\n",
        world.mean_contacts(),
        world.reachability_summary(2).mean_pct
    );

    let services = ["storage", "gateway", "time-sync"];
    let splitter = SeedSplitter::new(cfg.seed);

    for (dist_name, dist) in [
        (
            "uniform",
            ResourceDistribution::UniformReplicated { replicas: 5 },
        ),
        ("clustered", ResourceDistribution::Clustered { replicas: 5 }),
    ] {
        let mut rng = splitter.stream(dist_name, 0);
        let registry = distribute(world.network(), services.len(), dist, &mut rng);
        println!("-- {dist_name} placement, 5 replicas per service --");
        for (i, name) in services.iter().enumerate() {
            let resource = ResourceId(i as u32);
            let hosts: Vec<NodeId> = registry.hosts_of(resource).collect();
            let mut stats = MsgStats::default();
            let mut query_rng = splitter.stream("clients", i as u64);
            let mut scratch = QueryScratch::new();
            let mut found = 0;
            let mut msgs = 0u64;
            let clients = 50;
            for _ in 0..clients {
                let client = NodeId::from(query_rng.index(world.network().node_count()));
                let out = resource_query(
                    world.network(),
                    world.contact_tables(),
                    &registry,
                    None,
                    client,
                    resource,
                    cfg.depth,
                    &mut stats,
                    world.now(),
                    &mut scratch,
                );
                found += out.found as usize;
                msgs += out.total_messages();
            }
            println!(
                "  {name:<10} hosts {hosts:?}: {found}/{clients} clients served, \
                 {:.1} msgs/query",
                msgs as f64 / clients as f64
            );
        }
        println!();
    }
    println!(
        "Uniform replication turns most queries into zone hits or one-contact \
         hops;\nclustered replicas keep sharing neighborhoods and behave like a \
         single instance."
    );

    // -- §V route hints: the same clients come back for the same services --
    //
    // Resource demand is repeat-heavy in practice, so flip the route-hint
    // cache on and replay a fixed client set: round 1 pays the plain DSQ
    // walks (and deposits hints along the resolved paths), later rounds
    // ride the cached next-hop contacts.
    let mut rng = splitter.stream("hint-placement", 0);
    let registry = distribute(
        world.network(),
        services.len(),
        ResourceDistribution::UniformReplicated { replicas: 5 },
        &mut rng,
    );
    world.set_hints_enabled(true);
    world.reset_hint_stats();
    let mut client_rng = splitter.stream("hint-clients", 0);
    let clients: Vec<NodeId> = (0..40)
        .map(|_| NodeId::from(client_rng.index(world.network().node_count())))
        .collect();
    println!(
        "\n-- route hints on, 40 repeat clients x {} services --",
        services.len()
    );
    let rounds = 4;
    let mut warm_msgs = 0u64;
    let mut warm_queries = 0u64;
    for round in 0..rounds {
        let mut msgs = 0u64;
        let mut found = 0usize;
        for &client in &clients {
            for i in 0..services.len() {
                let out = world.query_resource(&registry, client, ResourceId(i as u32));
                found += out.found as usize;
                msgs += out.total_messages();
            }
        }
        let queries = (clients.len() * services.len()) as u64;
        if round == 0 {
            println!(
                "  cold round: {found}/{queries} served, {:.2} msgs/query",
                msgs as f64 / queries as f64
            );
        } else {
            warm_msgs += msgs;
            warm_queries += queries;
        }
    }
    let hs = world.hint_stats();
    println!(
        "  warm rounds: {:.2} msgs/query, hit rate {:.0}%, {} deposits, {} stale",
        warm_msgs as f64 / warm_queries as f64,
        hs.hit_rate() * 100.0,
        hs.deposits,
        hs.stale_total()
    );
    println!(
        "Hints turn repeat discoveries into directed probes down remembered \
         contacts;\nstale entries fall back to the plain walk, so answers never \
         change — only cost."
    );
}
