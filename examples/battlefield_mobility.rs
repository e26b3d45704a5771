//! Mobile units under fire: contact maintenance and local recovery.
//!
//! ```text
//! cargo run --release --example battlefield_mobility
//! ```
//!
//! The paper's §I battlefield scenario: coordinated units move as groups
//! (reference-point group mobility) while every node keeps its contact
//! paths alive through periodic validation and §III.C.3 local recovery.
//! The example prints a per-second report of contact churn and shows how
//! much of the healing is done locally instead of by fresh selections.

use card_manet::card::events::{DriveMode, EventDriver};
use card_manet::mobility::GroupMobility;
use card_manet::prelude::*;
use card_manet::sim::rng::SeedSplitter;
use card_manet::sim::stats::MsgKind;
use card_manet::sim::time::SimDuration;

fn main() {
    // 300 nodes in 10 loosely-spread squads sweeping a 600 m x 600 m
    // theater; formations overlap so the force stays radio-connected.
    let field = Field::square(600.0);
    let cfg = CardConfig::default()
        .with_radius(2)
        .with_max_contact_distance(12)
        .with_target_contacts(4)
        .with_seed(1944);

    let mut squads = GroupMobility::new(
        300,
        field,
        10,
        1.0, // squads advance at 1–3 m/s
        3.0,
        150.0, // units spread up to 150 m around the squad leader
        SeedSplitter::new(cfg.seed).stream("squads", 0),
    );

    // Deploy: let the model place every unit in its squad formation, then
    // build the network (and select contacts) on that topology.
    let mut positions = vec![Point2::ORIGIN; 300];
    squads.advance(&mut positions, SimDuration::from_millis(1));
    let net = Network::from_positions(field, positions, 50.0, cfg.radius);
    let mut world = CardWorld::from_network(net, cfg);
    world.select_all_contacts();
    println!("== battlefield group mobility ==");
    println!(
        "t=0: {} contacts across {} units in 10 squads",
        world.total_contacts(),
        world.network().node_count()
    );

    // One driver for the whole march: its per-second segments stack on one
    // tick lattice (a fresh `run_mobile` per second would restart it).
    let mut driver = EventDriver::new(&world, &squads, DriveMode::Event, Vec::new());
    let mut prev_recovered = 0;
    let mut prev_lost = 0;
    for second in 1..=10u64 {
        driver.drive(&mut world, &mut squads, SimDuration::from_secs(1));
        let totals = world.maintenance_totals();
        let recovered = totals.recovered - prev_recovered;
        let lost = (totals.lost + totals.dropped_out_of_range) - prev_lost;
        prev_recovered = totals.recovered;
        prev_lost = totals.lost + totals.dropped_out_of_range;
        println!(
            "t={second:>2}s: {:>4} contacts | {:>3} paths healed locally | {:>3} contacts lost",
            world.total_contacts(),
            recovered,
            lost,
        );
    }

    let totals = world.maintenance_totals();
    let healed_ratio = totals.recovered as f64
        / (totals.recovered + totals.lost + totals.dropped_out_of_range).max(1) as f64;
    println!("\nover 10 s of maneuvering:");
    println!(
        "  {} validations, {} local recoveries, {} losses ({} of them rule-4 drops)",
        totals.validated,
        totals.recovered,
        totals.lost + totals.dropped_out_of_range,
        totals.dropped_out_of_range,
    );
    println!(
        "  local recovery absorbed {:.0}% of path disruptions without new searches",
        100.0 * healed_ratio
    );
    println!(
        "  maintenance traffic: {} validation + {} reply messages",
        world.stats().total(MsgKind::Validation),
        world.stats().total(MsgKind::ValidationReply),
    );

    // The network still answers queries after all that movement: query from
    // a unit that kept contacts alive.
    let source = NodeId::all(world.network().node_count())
        .max_by_key(|&n| world.contact_table(n).len())
        .expect("non-empty network");
    let target = if source == NodeId::new(299) {
        NodeId::new(0)
    } else {
        NodeId::new(299)
    };
    let out = world.query(source, target);
    println!(
        "  post-march query {source} -> {target}: {} ({} messages)",
        if out.found { "found" } else { "not found" },
        out.total_messages()
    );
}
