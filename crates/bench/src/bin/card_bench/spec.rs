//! The names this binary emits. `BENCHMARK.json` lists the same names; a
//! unit test keeps the two in step.

/// Is a number wall time of the simulator (noisy) or a simulated statistic
/// (a pure function of the seed, must repeat exactly)?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Host,
    Sim,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Sim => "sim",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
    /// Is a larger value better?
    pub higher_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, kind: Kind, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        kind,
        higher_is_better: higher,
    }
}

pub const WORKLOADS: [&str; 6] = [
    "substrate_churn",
    "bootstrap_static",
    "query_escalate",
    "query_hinted",
    "mobile_calm",
    "mobile_hostile",
];

/// What the driver gates. Its contract wants every workload to report every
/// end-to-end metric and none ever to be zero, while the workloads exist to
/// bypass layers — so the per-workload metrics of [`NAMED`] fold into three
/// slots whose meaning the workload fixes (see the README's table):
/// `ops_per_s` is the workload's host rate, `sim_cost_per_op` every protocol
/// message per op, `success_share` the share of ops that reached their goal.
pub const END_TO_END: [Metric; 5] = [
    m("setup_s", "s", Kind::Host, false),
    m("peak_rss_mib", "MiB", Kind::Host, false),
    m("ops_per_s", "1/s", Kind::Host, true),
    m("sim_cost_per_op", "count", Kind::Sim, false),
    m("success_share", "share", Kind::Sim, true),
];

/// The end-to-end metrics that exist only on some workloads, under the names
/// ISSUE 11 gives them. Each run prints and records the ones its workload
/// has, and `card_bench compare` judges them like the gated five; the
/// driver's contract line cannot carry them.
pub const NAMED: [Metric; 9] = [
    m("ticks_per_s", "1/s", Kind::Host, true),
    m("select_nodes_per_s", "1/s", Kind::Host, true),
    m("queries_per_s", "1/s", Kind::Host, true),
    m("wall_ms_per_sim_s", "ms", Kind::Host, false),
    m("msgs_per_query", "count", Kind::Sim, false),
    m("selection_msgs_per_node", "count", Kind::Sim, false),
    m("maintenance_msgs_per_node_s", "count", Kind::Sim, false),
    m("resolved_share", "share", Kind::Sim, true),
    m("reachability_pct", "%", Kind::Sim, true),
];

/// The entry of [`NAMED`] called `name`.
pub fn named(name: &str) -> &'static Metric {
    NAMED
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a named end-to-end metric"))
}

use Kind::{Host as H, Sim as S};

/// Per-layer metrics of the traced run, grouped by the module they observe.
/// A workload that bypasses a layer reports 0 for it.
pub const PER_LAYER: [Metric; 72] = [
    // mobility
    m("mobility.advance_ms_per_tick", "ms", H, false),
    m("mobility.movers_per_tick", "count", S, false),
    // net-topology
    m("topology.grid_rebucketed_per_tick", "count", S, false),
    m("topology.rows_patched_per_tick", "count", S, false),
    m("topology.rows_changed_per_tick", "count", S, false),
    m("topology.kernel_lanes_per_tick", "count", S, false),
    m("topology.kernel_exact_share", "share", S, false),
    m("topology.fallback_tick_share", "share", S, false),
    m("topology.movers_skipped_share", "share", S, true),
    // manet-routing
    m("network.build_ms", "ms", H, false),
    m("network.refresh_ms_per_tick", "ms", H, false),
    m("network.refresh_ms_p95", "ms", H, false),
    m("network.dirty_tables_per_tick", "count", S, false),
    m("network.table_bytes", "B", S, false),
    // card-core::selection
    m("selection.sweep_ms", "ms", H, false),
    m("selection.msgs_per_node", "count", S, false),
    m("selection.contacts_per_node", "count", S, true),
    m("selection.fill_share", "share", S, true),
    // card-core::maintenance
    m("maintenance.calm_round_ms", "ms", H, false),
    m("maintenance.probe_round_ms", "ms", H, false),
    m("maintenance.msgs_per_node_round", "count", S, false),
    m("maintenance.validated", "count", S, true),
    m("maintenance.lost", "count", S, false),
    m("maintenance.dropped_out_of_range", "count", S, false),
    m("maintenance.recovered_share", "share", S, true),
    // card-core::query
    m("query.sweep_us_per_query", "us", H, false),
    m("query.single_us", "us", H, false),
    m("query.found_share", "share", S, true),
    m("query.mean_depth", "count", S, false),
    m("query.msgs_per_query", "count", S, false),
    // card-core::hints
    m("hints.cold_us_per_query", "us", H, false),
    m("hints.warm_us_per_query", "us", H, false),
    m("hints.hit_share", "share", S, true),
    m("hints.chase_hit_share", "share", S, true),
    m("hints.stale_share", "share", S, false),
    m("hints.deposits", "count", S, false),
    m("hints.evicted_lru", "count", S, false),
    m("hints.evicted_mobility", "count", S, false),
    m("hints.probe_msgs_per_query", "count", S, false),
    m("hints.memory_bytes", "B", S, false),
    // sim-core::plane
    m("plane.sent", "count", S, false),
    m("plane.cross_shard_share", "share", S, false),
    m("plane.rounds", "count", S, false),
    m("plane.max_round_msgs", "count", S, false),
    m("plane.dropped", "count", S, false),
    m("plane.delayed", "count", S, false),
    m("plane.deferred_pending", "count", S, false),
    // sim-core::faults
    m("faults.crashes", "count", S, false),
    m("faults.rejoins", "count", S, false),
    m("faults.down_end", "count", S, false),
    m("faults.retry_scheduled", "count", S, false),
    m("faults.retry_recovered_share", "share", S, true),
    m("faults.retry_abandoned", "count", S, false),
    m("faults.liveness_violations", "count", S, false),
    m("faults.grid_audit_violations", "count", S, false),
    // card-core::events + sim-core::engine
    m("events.segment_ms_p50", "ms", H, false),
    m("events.segment_ms_p90", "ms", H, false),
    m("events.processed_per_sim_s", "count", S, false),
    m("events.region_wakes_per_sim_s", "count", S, false),
    m("events.ticks_skipped_share", "share", S, true),
    m("events.refreshes", "count", S, false),
    m("events.validation_rounds", "count", S, false),
    m("events.arrivals", "count", S, false),
    m("events.audit_violations", "count", S, false),
    // card-core::standing
    m("standing.breaks", "count", S, false),
    m("standing.reresolved", "count", S, true),
    m("standing.revalidations", "count", S, false),
    m("standing.broken_sim_s", "s", S, false),
    // card-core::reachability / world
    m("reachability.summary_ms", "ms", H, false),
    m("world.shard_bytes_max", "B", S, false),
    // the trace itself
    m("trace.spans", "count", H, false),
    m("trace.overhead_pct", "%", H, false),
];

/// Names are restricted to this alphabet by the benchmark contract.
#[cfg(test)]
fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The text of the repository's `BENCHMARK.json`: the nearest one above the
/// manifest these sources are built under (`crates/bench`'s, or this
/// directory's own).
#[cfg(test)]
pub fn benchmark_json() -> String {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .find_map(|dir| std::fs::read_to_string(dir.join("BENCHMARK.json")).ok())
        .expect("BENCHMARK.json above the manifest directory")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn name_charset() {
        for ok in ["a", "setup_s", "query.msgs-per_query", "9lives"] {
            assert!(name_ok(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_a", ".a", "a b", "a/b", "é", long.as_str()] {
            assert!(!name_ok(bad), "{bad}");
        }
    }

    fn names(list: &[Value]) -> Vec<String> {
        list.iter()
            .map(|e| {
                e.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// The names, units and directions this binary emits are exactly those
    /// `BENCHMARK.json` declares.
    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_emits() {
        let doc = parse(&benchmark_json()).expect("parses");

        let workloads = names(doc.get("workloads").expect("workloads").as_arr());
        assert_eq!(workloads, WORKLOADS);

        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).expect(key).as_arr();
            assert_eq!(
                names(listed),
                table.iter().map(|m| m.name).collect::<Vec<_>>(),
                "{key} names"
            );
            for (entry, metric) in listed.iter().zip(table) {
                assert!(name_ok(metric.name), "{}", metric.name);
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(metric.unit));
                let better = if metric.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    entry.get("better").and_then(Value::as_str),
                    Some(better),
                    "{}",
                    metric.name
                );
            }
        }
        for name in WORKLOADS.iter().chain(NAMED.iter().map(|m| &m.name)) {
            assert!(name_ok(name), "{name}");
        }
    }
}
