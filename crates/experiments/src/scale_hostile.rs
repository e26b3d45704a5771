//! Protocol degradation under hostile regimes (`repro scale-hostile`).
//!
//! The fault plane (`sim_core::faults`) makes hostility a first-class,
//! replayable input: seeded node crashes with rejoins, a region-scoped
//! partition window over a frozen x-cut, and per-message drop/delay on
//! the cross-shard deposit plane. This tier measures what the hardening
//! layer — contact tombstones, per-contact validation retry timers,
//! hinted-probe fallback and capped query retries — buys at scale:
//! **resolution success, messages per query and hint hit-rate as
//! functions of churn rate and partition fraction** at N = 10⁵
//! (scenario-5 density, like the other scale tiers).
//!
//! Every cell of the (churn × partition) grid branches from one prepared
//! world (`CardWorld` is `Clone`), arms a fresh [`FaultPlan`] and drives
//! the same round/sweep cadence as the calm baseline row, so the deltas
//! are attributable to the fault regime alone. Two liveness invariants
//! are asserted **in-run** and surfaced per row:
//!
//! * no tombstoned contact survives past its TTL (the world counts a
//!   violation before each round's tombstone decay);
//! * tombstoned and rejoined nodes stay resident in their spatial-grid
//!   cells (the targeted release audit runs on every fault event).
//!
//! [`passed`] folds those invariants over the report; the `repro` binary
//! exits non-zero when it returns `false`, so CI's chaos smoke run gates
//! on them.
//!
//! Run from the CLI with `repro scale-hostile [--quick] [--nodes N]`.

use crate::output::markdown_table;
use crate::scale::scaled_scenario;
use card_core::{CardConfig, CardWorld, RetryStats};
use net_topology::node::NodeId;
use sim_core::faults::{FaultConfig, FaultPlan, PartitionWindow};
use sim_core::rng::SeedSplitter;

/// Query escalation depth of the hostile sweeps.
pub const QUERY_DEPTH: u16 = 3;

/// Parameters of the scale-hostile tier.
#[derive(Clone, Debug)]
pub struct Params {
    /// Node counts to run (each at scenario-5 density).
    pub nodes: Vec<usize>,
    /// Validation rounds each cell drives (one query sweep per round).
    pub rounds: u32,
    /// Query pairs swept per round.
    pub queries_per_round: usize,
    /// Churn-rate axis of the grid (fraction of the population crashed
    /// over the run).
    pub churn_rates: Vec<f64>,
    /// Partition-fraction axis (`0` = no partition window).
    pub partition_fractions: Vec<f64>,
    /// Per-message drop probability on the deposit plane.
    pub drop_rate: f64,
    /// Per-message one-exchange delay probability.
    pub delay_rate: f64,
    /// Rounds a crashed node stays down before rejoining.
    pub rejoin_after: u32,
    /// Zone radius R.
    pub radius: u16,
    /// Root seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            nodes: vec![100_000],
            rounds: 6,
            queries_per_round: 384,
            churn_rates: vec![0.05, 0.2],
            partition_fractions: vec![0.0, 0.5],
            drop_rate: 0.01,
            delay_rate: 0.01,
            rejoin_after: 2,
            radius: 2,
            seed: crate::DEFAULT_SEED,
        }
    }
}

impl Params {
    /// Small sizes for CI smoke runs.
    pub fn quick() -> Self {
        Params {
            nodes: vec![2_000],
            rounds: 4,
            queries_per_round: 128,
            churn_rates: vec![0.1],
            partition_fractions: vec![0.0, 0.5],
            ..Params::default()
        }
    }
}

/// The protocol configuration of a hostile run (the run enables hints:
/// the tier reports cache degradation too).
pub fn protocol_config(p: &Params) -> CardConfig {
    CardConfig::default()
        .with_radius(p.radius)
        .with_max_contact_distance(4 * p.radius)
        .with_target_contacts(4)
        .with_depth(QUERY_DEPTH)
        .with_seed(p.seed)
}

/// One cell of the degradation grid (`churn == 0 && fraction == 0` with
/// zero message loss is the calm baseline row).
#[derive(Clone, Debug)]
pub struct DegradationRow {
    /// Nodes in the scenario.
    pub n: usize,
    /// Churn rate of this cell.
    pub churn: f64,
    /// Partition fraction of this cell (`0` = no window).
    pub fraction: f64,
    /// Queries issued over the run.
    pub queries: usize,
    /// Fraction of them that resolved, in `[0, 1]`.
    pub success: f64,
    /// Mean protocol messages (DSQ + replies) per query.
    pub msgs_per_query: f64,
    /// Hint-cache hit rate over the run.
    pub hint_hit_rate: f64,
    /// Crash events applied.
    pub crashes: u64,
    /// Rejoin events applied.
    pub rejoins: u64,
    /// Nodes still down when the run ended.
    pub down_end: usize,
    /// Query-retry counters (scheduled/retried/recovered/abandoned).
    pub retry: RetryStats,
    /// Deposits dropped by the fault plane.
    pub dropped: u64,
    /// Deposits delayed by one exchange.
    pub delayed: u64,
    /// Tombstones seen past their TTL (must be 0).
    pub liveness_violations: u64,
    /// Grid-residency violations on tombstoned/rejoined nodes (must be 0).
    pub grid_audit_violations: u64,
}

/// The degradation grid of one `repro scale-hostile` invocation: the calm
/// baseline first, then one row per (N, churn, fraction) cell.
#[derive(Clone, Debug)]
pub struct DegradationReport {
    /// All measured rows, calm baselines first per N.
    pub rows: Vec<DegradationRow>,
}

fn workload(n: usize, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = SeedSplitter::new(seed).stream("scale-hostile-workload", 0);
    (0..count)
        .map(|_| (NodeId::from(rng.index(n)), NodeId::from(rng.index(n))))
        .collect()
}

/// Drive one cell: `rounds` validation rounds, one query sweep per round.
fn run_cell(
    mut world: CardWorld,
    plan: Option<FaultPlan>,
    p: &Params,
    churn: f64,
    fraction: f64,
) -> DegradationRow {
    let n = world.network().node_count();
    if let Some(plan) = plan {
        world.enable_faults(plan);
    }
    let pairs = workload(n, p.queries_per_round, p.seed ^ 0x4057);
    let mut queries = 0usize;
    let mut found = 0usize;
    let mut msgs = 0u64;
    for _ in 0..p.rounds {
        world.validation_round();
        for o in world.query_all(&pairs) {
            queries += 1;
            found += o.found as usize;
            msgs += o.query_msgs + o.reply_msgs;
        }
        // The in-run liveness invariant: the world counts any tombstone
        // older than its TTL *before* decaying it, so a violation here is
        // a hardening bug, not a fault of the regime.
        assert_eq!(
            world.fault_report().liveness_violations,
            0,
            "a tombstoned contact survived past its TTL"
        );
    }
    let report = world.fault_report();
    let ps = world.plane_stats();
    DegradationRow {
        n,
        churn,
        fraction,
        queries,
        success: found as f64 / queries.max(1) as f64,
        msgs_per_query: msgs as f64 / queries.max(1) as f64,
        hint_hit_rate: world.hint_stats().hit_rate(),
        crashes: report.crashes,
        rejoins: report.rejoins,
        down_end: report.down_now,
        retry: report.retry.clone(),
        dropped: ps.dropped,
        delayed: ps.delayed,
        liveness_violations: report.liveness_violations,
        grid_audit_violations: report.grid_audit_violations,
    }
}

/// Run the full grid: per N one calm baseline, then every
/// (churn, fraction) cell branched from the same prepared world.
pub fn run(p: &Params) -> DegradationReport {
    let mut rows = Vec::new();
    for &n in &p.nodes {
        let scenario = scaled_scenario(n);
        let mut base = CardWorld::build(&scenario, protocol_config(p));
        base.set_hints_enabled(true);
        base.select_all_contacts();
        rows.push(run_cell(base.clone(), None, p, 0.0, 0.0));
        for &churn in &p.churn_rates {
            for &fraction in &p.partition_fractions {
                let cfg = FaultConfig {
                    churn_rate: churn,
                    rejoin_after: p.rejoin_after,
                    partition: (fraction > 0.0).then_some(PartitionWindow {
                        start_round: 1,
                        end_round: 1 + (p.rounds / 2).max(1),
                        fraction,
                    }),
                    drop_rate: p.drop_rate,
                    delay_rate: p.delay_rate,
                    rounds: p.rounds,
                };
                let plan = FaultPlan::generate(&cfg, n, p.seed ^ 0xfa17);
                rows.push(run_cell(base.clone(), Some(plan), p, churn, fraction));
            }
        }
    }
    DegradationReport { rows }
}

/// The tier's pass/fail verdict: every row kept both in-run liveness
/// invariants. The `repro` binary exits non-zero when this is `false`.
pub fn passed(report: &DegradationReport) -> bool {
    report
        .rows
        .iter()
        .all(|r| r.liveness_violations == 0 && r.grid_audit_violations == 0)
}

/// Render the degradation grid as a Markdown table.
pub fn render(p: &Params, report: &DegradationReport) -> String {
    let headers = [
        "N",
        "Churn",
        "Partition",
        "Success %",
        "Msgs/query",
        "Hint hit %",
        "Crash/rejoin",
        "Down end",
        "Retry s/r/rec/ab",
        "Plane drop/delay",
        "Liveness",
    ];
    let body: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                if r.churn == 0.0 && r.fraction == 0.0 {
                    "calm".to_string()
                } else {
                    format!("{:.0}%", 100.0 * r.churn)
                },
                if r.fraction == 0.0 {
                    "-".to_string()
                } else {
                    format!("{:.0}%", 100.0 * r.fraction)
                },
                format!("{:.1}%", 100.0 * r.success),
                format!("{:.1}", r.msgs_per_query),
                format!("{:.1}%", 100.0 * r.hint_hit_rate),
                format!("{}/{}", r.crashes, r.rejoins),
                r.down_end.to_string(),
                format!(
                    "{}/{}/{}/{}",
                    r.retry.scheduled, r.retry.retried, r.retry.recovered, r.retry.abandoned
                ),
                format!("{}/{}", r.dropped, r.delayed),
                if r.liveness_violations == 0 && r.grid_audit_violations == 0 {
                    "ok".to_string()
                } else {
                    format!("{}+{}", r.liveness_violations, r.grid_audit_violations)
                },
            ]
        })
        .collect();
    format!(
        "### Scale hostile — degradation under churn × partition at scenario-5 density \
         ({} rounds × {} queries/round, plane drop {:.0}% + delay {:.0}%, rejoin after {} rounds; \
         tombstone-TTL and grid-residency liveness asserted in-run)\n\n{}",
        p.rounds,
        p.queries_per_round,
        100.0 * p.drop_rate,
        100.0 * p.delay_rate,
        p.rejoin_after,
        markdown_table(&headers, &body),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Params {
        Params {
            nodes: vec![400],
            rounds: 3,
            queries_per_round: 48,
            churn_rates: vec![0.15],
            partition_fractions: vec![0.0, 0.5],
            ..Params::default()
        }
    }

    #[test]
    fn grid_runs_calm_first_and_passes_liveness() {
        let p = tiny();
        let report = run(&p);
        // 1 calm + 1 churn × 2 fractions
        assert_eq!(report.rows.len(), 3);
        let calm = &report.rows[0];
        assert_eq!((calm.churn, calm.fraction), (0.0, 0.0));
        assert_eq!(calm.crashes, 0);
        assert_eq!((calm.dropped, calm.delayed), (0, 0));
        assert!(calm.success > 0.0, "calm world resolves something");
        for r in &report.rows[1..] {
            assert!(r.crashes > 0, "a 15% churn plan must crash someone");
            assert_eq!(r.queries, calm.queries);
        }
        assert!(passed(&report));
    }

    #[test]
    fn hostile_cells_degrade_but_keep_invariants() {
        let report = run(&tiny());
        let calm = &report.rows[0];
        let partitioned = &report.rows[2];
        assert!(
            partitioned.success <= calm.success + 1e-9,
            "a half-field partition cannot improve resolution \
             ({} vs calm {})",
            partitioned.success,
            calm.success
        );
        for r in &report.rows {
            assert_eq!(r.liveness_violations, 0);
            assert_eq!(r.grid_audit_violations, 0);
        }
    }

    #[test]
    fn render_mentions_every_column() {
        let p = tiny();
        let report = run(&p);
        let text = render(&p, &report);
        assert!(text.contains("calm"));
        assert!(text.contains("Success %"));
        assert!(text.contains("Msgs/query"));
        assert!(text.contains("Hint hit %"));
        assert!(text.contains("Retry s/r/rec/ab"));
        assert!(text.contains("Plane drop/delay"));
        assert!(text.contains("liveness asserted in-run"));
    }
}
