//! Protocol degradation under hostile regimes (`repro scale-hostile`).
//!
//! The fault plane (`sim_core::faults`) makes hostility a first-class,
//! replayable input: seeded node crashes with rejoins, a region-scoped
//! partition window over a frozen x-cut, and per-message drop/delay of
//! hint deposits. This tier measures what the hardening
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
//! are asserted **in-run**, after every round:
//!
//! * no tombstoned contact survives past its TTL (the world counts a
//!   violation before each round's tombstone decay);
//! * tombstoned and rejoined nodes stay resident in their spatial-grid
//!   cells (the targeted release audit runs on every fault event).
//!
//! A failed invariant panics, so `repro` exits non-zero and CI's chaos
//! smoke run gates on them.
//!
//! Run from the CLI with `repro scale-hostile [--quick] [--nodes N]`.

use crate::figures::selected;
use crate::output::{table, Column};
use crate::scale::{pct, protocol_config, scaled_scenario, RADIUS};
use card_core::{CardWorld, RetryStats};
use net_topology::node::NodeId;
use sim_core::faults::{FaultConfig, FaultPlan, PartitionWindow};
use sim_core::rng::SeedSplitter;

/// Per-deposit drop probability.
pub const DROP_RATE: f64 = 0.01;

/// Per-deposit one-exchange delay probability.
pub const DELAY_RATE: f64 = 0.01;

/// Rounds a crashed node stays down before rejoining.
pub const REJOIN_AFTER: u32 = 2;

/// Sizes of `repro scale-hostile`.
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
    /// Root seed.
    pub seed: u64,
}

impl Params {
    /// The full sizes, or the CI smoke sizes when `quick`; `nodes`
    /// replaces the node counts.
    pub fn new(quick: bool, seed: u64, nodes: Option<&[usize]>) -> Self {
        let (sizes, rounds, queries_per_round, churn_rates) = if quick {
            (vec![2_000], 4, 128, vec![0.1])
        } else {
            (vec![100_000], 6, 384, vec![0.05, 0.2])
        };
        Params {
            nodes: nodes.map_or(sizes, <[usize]>::to_vec),
            rounds,
            queries_per_round,
            churn_rates,
            partition_fractions: vec![0.0, 0.5],
            seed,
        }
    }
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
        // The in-run liveness invariants: the world counts any tombstone
        // older than its TTL *before* decaying it, and audits the grid
        // residency of every node a fault event touches, so a violation
        // here is a hardening bug, not a fault of the regime.
        let report = world.fault_report();
        assert_eq!(
            report.liveness_violations, 0,
            "a tombstoned contact survived past its TTL"
        );
        assert_eq!(
            report.grid_audit_violations, 0,
            "a tombstoned or rejoined node left its spatial-grid cell"
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
    }
}

/// Run the full grid: per N one calm baseline, then every
/// (churn, fraction) cell branched from the same prepared world (hints on:
/// the tier reports cache degradation too). Calm baselines come first per N.
pub fn run(p: &Params) -> Vec<DegradationRow> {
    let mut rows = Vec::new();
    for &n in &p.nodes {
        let mut base = selected(&scaled_scenario(n), protocol_config(RADIUS, p.seed));
        base.set_hints_enabled(true);
        rows.push(run_cell(base.clone(), None, p, 0.0, 0.0));
        for &churn in &p.churn_rates {
            for &fraction in &p.partition_fractions {
                let cfg = FaultConfig {
                    churn_rate: churn,
                    rejoin_after: REJOIN_AFTER,
                    partition: (fraction > 0.0).then_some(PartitionWindow {
                        start_round: 1,
                        end_round: 1 + (p.rounds / 2).max(1),
                        fraction,
                    }),
                    drop_rate: DROP_RATE,
                    delay_rate: DELAY_RATE,
                    rounds: p.rounds,
                };
                let plan = FaultPlan::generate(&cfg, n, p.seed ^ 0xfa17);
                rows.push(run_cell(base.clone(), Some(plan), p, churn, fraction));
            }
        }
    }
    rows
}

const COLUMNS: &[Column<DegradationRow>] = &[
    ("N", |r| r.n.to_string()),
    ("Churn", |r| {
        if r.churn == 0.0 && r.fraction == 0.0 {
            "calm".to_string()
        } else {
            format!("{:.0}%", 100.0 * r.churn)
        }
    }),
    ("Partition", |r| {
        if r.fraction == 0.0 {
            "-".to_string()
        } else {
            format!("{:.0}%", 100.0 * r.fraction)
        }
    }),
    ("Success %", |r| pct(r.success)),
    ("Msgs/query", |r| format!("{:.1}", r.msgs_per_query)),
    ("Hint hit %", |r| pct(r.hint_hit_rate)),
    ("Crash/rejoin", |r| format!("{}/{}", r.crashes, r.rejoins)),
    ("Down end", |r| r.down_end.to_string()),
    ("Retry s/r/rec/ab", |r| {
        let t = &r.retry;
        format!(
            "{}/{}/{}/{}",
            t.scheduled, t.retried, t.recovered, t.abandoned
        )
    }),
    ("Plane drop/delay", |r| {
        format!("{}/{}", r.dropped, r.delayed)
    }),
    // `run` returns only when both invariants held after every round.
    ("Liveness", |_| "ok".to_string()),
];

/// Render the degradation grid as a Markdown table.
pub fn render(p: &Params, rows: &[DegradationRow]) -> String {
    format!(
        "### Scale hostile — degradation under churn × partition at scenario-5 density \
         ({} rounds × {} queries/round, plane drop {:.0}% + delay {:.0}%, rejoin after {} rounds; \
         tombstone-TTL and grid-residency liveness asserted in-run)\n\n{}",
        p.rounds,
        p.queries_per_round,
        100.0 * DROP_RATE,
        100.0 * DELAY_RATE,
        REJOIN_AFTER,
        table(COLUMNS, rows),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn tiny() -> Params {
        Params {
            nodes: vec![400],
            rounds: 3,
            queries_per_round: 48,
            churn_rates: vec![0.15],
            partition_fractions: vec![0.0, 0.5],
            seed: crate::DEFAULT_SEED,
        }
    }

    /// `run(&tiny())`, computed once for every test that reads it.
    fn tiny_rows() -> &'static [DegradationRow] {
        static ROWS: OnceLock<Vec<DegradationRow>> = OnceLock::new();
        ROWS.get_or_init(|| run(&tiny()))
    }

    #[test]
    fn grid_runs_calm_first_and_passes_liveness() {
        // `run` panics on a liveness violation in any round.
        let rows = tiny_rows();
        // 1 calm + 1 churn × 2 fractions
        assert_eq!(rows.len(), 3);
        let calm = &rows[0];
        assert_eq!((calm.churn, calm.fraction), (0.0, 0.0));
        assert_eq!(calm.crashes, 0);
        assert_eq!((calm.dropped, calm.delayed), (0, 0));
        assert!(calm.success > 0.0, "calm world resolves something");
        for r in &rows[1..] {
            assert!(r.crashes > 0, "a 15% churn plan must crash someone");
            assert_eq!(r.queries, calm.queries);
        }
    }

    #[test]
    fn hostile_cells_degrade_but_keep_invariants() {
        // `run` panics on a liveness violation in any round.
        let rows = tiny_rows();
        let (calm, partitioned) = (&rows[0], &rows[2]);
        assert!(
            partitioned.success <= calm.success + 1e-9,
            "a half-field partition cannot improve resolution \
             ({} vs calm {})",
            partitioned.success,
            calm.success
        );
    }

    #[test]
    fn render_mentions_every_column() {
        let text = render(&tiny(), tiny_rows());
        assert!(text.contains("calm"));
        assert!(text.contains("Success %"));
        assert!(text.contains("Msgs/query"));
        assert!(text.contains("Hint hit %"));
        assert!(text.contains("Retry s/r/rec/ab"));
        assert!(text.contains("Plane drop/delay"));
        assert!(text.contains("liveness asserted in-run"));
    }
}
