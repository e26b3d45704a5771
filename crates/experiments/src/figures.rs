//! Every table and figure of §IV, and the two extensions, as one registry
//! of sweep specs.
//!
//! A [`Figure`] measures its metrics against one swept knob (NoC, R, r, D
//! or network size; arXiv cs/0208024 §IV). Each entry of
//! [`FIGURES`] carries its `repro` names (the first is its golden stem,
//! `docs/golden/<stem>.txt`), its title templates, a paper-sized and a
//! quick [`Sweep`], and a [`Measure`] that also picks the renderer:
//! histogram (Figs 5–9), time series (Figs 10–13) or row table (the rest),
//! all over [`markdown_table`].
//!
//! Cells of a sweep are independent worlds, fanned out with
//! [`parallel_map`]; results come back in input order, so every table is
//! deterministic per seed.

use crate::output::{histogram_table, markdown_table};
use card_core::reachability::REACH_BUCKET_PCT;
use card_core::resources::ResourceDistribution::{self, Clustered, UniformReplicated};
use card_core::resources::{distribute, resource_query, ResourceId};
use card_core::{CardConfig, CardWorld, QueryScratch, SelectionMethod};
use manet_routing::flooding::flood_search;
use manet_routing::network::Network;
use manet_routing::zrp::{bordercast_search, BordercastConfig};
use mobility::waypoint::RandomWaypoint;
use net_topology::bfs::full_bfs;
use net_topology::metrics::TopologyMetrics;
use net_topology::node::NodeId;
use net_topology::scenario::{Scenario, SCENARIO_5, TABLE1_SCENARIOS};
use net_topology::smallworld::{with_shortcuts, SmallWorldMetrics};
use sim_core::par::parallel_map;
use sim_core::rng::{RngStream, SeedSplitter};
use sim_core::stats::{MsgKind, MsgStats};
use sim_core::time::{SimDuration, SimTime};

/// One table or figure of the evaluation.
pub struct Figure {
    /// The `repro` names that print it; the first is its golden stem.
    pub names: &'static [&'static str],
    /// One title per printed table. `{scenario}`, `{R}`, `{r}`, `{NoC}`,
    /// `{D}` and `{queries}` are filled from the sweep's base.
    pub titles: &'static [&'static str],
    /// The sweep at paper size (`false`) or quick size (`true`).
    pub spec: fn(quick: bool) -> Sweep,
    /// What each swept cell measures.
    pub measure: Measure,
}

/// What a figure measures, and so how it prints.
pub enum Measure {
    /// One reachability histogram per swept value (Figs 5–9); `contacts`
    /// adds the mean-contacts line.
    Histogram {
        /// Print the mean contacts selected per swept value.
        contacts: bool,
    },
    /// Per-node control messages per 2 s bucket under mobility, one table
    /// per predicate (paired with the titles), one column per swept value
    /// (Figs 10–12).
    Overhead(&'static [fn(MsgKind) -> bool]),
    /// One row of numbers per swept value, printed by `columns`.
    Rows {
        /// Header and format of each cell.
        columns: &'static [Col],
        /// The row of one swept value.
        row: fn(&Sweep, usize) -> Vec<f64>,
    },
    /// A bespoke table of ready-formatted rows.
    Table {
        /// Column headers.
        headers: &'static [&'static str],
        /// The rows.
        rows: fn(&Sweep) -> Vec<Vec<String>>,
    },
}

/// A printed column of a [`Measure::Rows`] table.
#[derive(Clone, Copy, Debug)]
pub enum Col {
    /// A number with this many decimals.
    Dec(&'static str, usize),
    /// A share, printed as a whole percentage.
    Pct(&'static str),
    /// The column divided by its maximum, two decimals.
    Norm(&'static str),
}

/// The parameters of one figure: a scenario, a base configuration and the
/// knob swept over `values`.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Topology family.
    pub scenario: Scenario,
    /// Configuration every cell starts from (its seed is the root seed).
    pub base: CardConfig,
    /// The swept knob.
    pub knob: Knob,
    /// The swept values.
    pub values: Vec<usize>,
    /// Simulated seconds under mobility (mobile figures).
    pub secs: u64,
    /// Queries per cell (Fig 15, resources).
    pub queries: usize,
    /// Distinct resources per cell (resources).
    pub resources: usize,
}

/// The knob a figure sweeps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Knob {
    /// Number of contacts, NoC.
    Noc,
    /// Neighborhood radius R.
    Radius,
    /// Maximum contact distance r.
    MaxDistance,
    /// Depth of search D.
    Depth,
    /// Value `i` is the `i`th sized configuration.
    Size(&'static [SizeCase]),
    /// Value `i` is Table 1's scenario `i + 1`.
    Table1,
    /// Replicas per resource; every cell shares the base world.
    Replicas,
}

/// A network size with its per-size tuning of R, r and NoC.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SizeCase {
    /// Topology family.
    pub scenario: Scenario,
    /// Neighborhood (and bordercast zone) radius R.
    pub radius: u16,
    /// Maximum contact distance r.
    pub max_contact_distance: u16,
    /// NoC.
    pub target_contacts: usize,
}

impl Sweep {
    /// The scenario and configuration of swept value `v`.
    pub fn cell(&self, v: usize) -> (Scenario, CardConfig) {
        let c = self.base;
        match self.knob {
            Knob::Noc => (self.scenario, c.with_target_contacts(v)),
            Knob::Radius => (self.scenario, c.with_radius(v as u16)),
            Knob::MaxDistance => (self.scenario, c.with_max_contact_distance(v as u16)),
            Knob::Depth => (self.scenario, c.with_depth(v as u16)),
            Knob::Size(cases) => {
                let k = &cases[v];
                let c = c
                    .with_radius(k.radius)
                    .with_max_contact_distance(k.max_contact_distance)
                    .with_target_contacts(k.target_contacts);
                (k.scenario, c)
            }
            Knob::Table1 => (TABLE1_SCENARIOS[v], c),
            Knob::Replicas => (self.scenario, c),
        }
    }

    /// The series label of swept value `v` (`NoC=4`, `r=10`, …).
    pub fn label(&self, v: usize) -> String {
        match self.knob {
            Knob::Noc => format!("NoC={v}"),
            Knob::Radius => format!("R={v}"),
            Knob::MaxDistance => format!("r={v}"),
            Knob::Depth => format!("D={v}"),
            Knob::Size(cases) => {
                let k = &cases[v];
                let (r, noc) = (k.max_contact_distance, k.target_contacts);
                format!("{} R={} r={r} NoC={noc}", k.scenario.label(), k.radius)
            }
            Knob::Table1 | Knob::Replicas => v.to_string(),
        }
    }

    /// Number of 2 s reporting buckets in `secs`.
    pub fn buckets(&self) -> usize {
        (self.secs as usize).div_ceil(2)
    }

    fn title(&self, template: &str) -> String {
        let b = &self.base;
        template
            .replace("{scenario}", &self.scenario.label())
            .replace("{R}", &b.radius.to_string())
            .replace("{r}", &b.max_contact_distance.to_string())
            .replace("{NoC}", &b.target_contacts.to_string())
            .replace("{D}", &b.depth.to_string())
            .replace("{queries}", &self.queries.to_string())
    }
}

impl Figure {
    /// The golden stem (`docs/golden/<stem>.txt`).
    pub fn stem(&self) -> &'static str {
        self.names[0]
    }

    /// The sweep at paper or quick size, rooted at `seed`.
    pub fn sweep(&self, quick: bool, seed: u64) -> Sweep {
        let mut s = (self.spec)(quick);
        s.base.seed = seed;
        s
    }

    /// Run the figure and render it as the Markdown `repro` prints.
    pub fn render(&self, quick: bool, seed: u64) -> String {
        let s = self.sweep(quick, seed);
        let title = |i: usize| s.title(self.titles[i]);
        match self.measure {
            Measure::Histogram { contacts } => render_histograms(title(0), &s, contacts),
            Measure::Overhead(preds) => {
                let runs = overhead(&s, preds);
                let mut headers = vec!["t (s)".to_string()];
                headers.extend(s.values.iter().map(|&v| s.label(v)));
                (0..preds.len())
                    .map(|p| {
                        let columns: Vec<_> = runs.iter().map(|run| run[p].clone()).collect();
                        let rows = series_rows(&columns, &vec![1; columns.len()]);
                        table(title(p), &headers, &rows)
                    })
                    .collect::<Vec<_>>()
                    .join("\n")
            }
            Measure::Rows { columns, row } => {
                let headers: Vec<&str> = columns.iter().map(|c| c.header()).collect();
                let cells: Vec<Vec<String>> = rows(&s, columns, row)
                    .iter()
                    .map(|r| r.iter().zip(columns).map(|(&x, c)| c.cell(x)).collect())
                    .collect();
                table(title(0), &headers, &cells)
            }
            Measure::Table { headers, rows } => table(title(0), headers, &rows(&s)),
        }
    }
}

/// The registered figure `repro` knows as `name`.
pub fn find(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.names.contains(&name))
}

impl Col {
    fn header(&self) -> &'static str {
        match *self {
            Col::Dec(h, _) | Col::Pct(h) | Col::Norm(h) => h,
        }
    }

    fn cell(&self, x: f64) -> String {
        match *self {
            Col::Dec(_, digits) => format!("{x:.digits$}"),
            Col::Pct(_) => format!("{:.0}%", 100.0 * x),
            Col::Norm(_) => format!("{x:.2}"),
        }
    }
}

fn table(title: String, headers: &[impl AsRef<str>], rows: &[Vec<String>]) -> String {
    let headers: Vec<&str> = headers.iter().map(AsRef::as_ref).collect();
    format!("{title}\n\n{}", markdown_table(&headers, rows))
}

/// Rows of a time-series table: the report time `2(k+1)` s, then bucket
/// `k` of each column at its number of decimals.
pub fn series_rows(columns: &[Vec<f64>], digits: &[usize]) -> Vec<Vec<String>> {
    let buckets = columns.first().map_or(0, Vec::len);
    (0..buckets)
        .map(|k| {
            let mut row = vec![format!("{}", 2 * (k + 1))];
            row.extend(
                columns
                    .iter()
                    .zip(digits)
                    .map(|(c, &d)| format!("{:.d$}", c[k])),
            );
            row
        })
        .collect()
}

// --- the registry ------------------------------------------------------

const QUICK: Scenario = Scenario::new(150, 400.0, 400.0, 50.0);
const QUICK_MOBILE: Scenario = Scenario::new(120, 400.0, 400.0, 50.0);

const fn size(scenario: Scenario, radius: u16, r: u16, noc: usize) -> SizeCase {
    SizeCase {
        scenario,
        radius,
        max_contact_distance: r,
        target_contacts: noc,
    }
}

/// The paper's three sizes at near-constant density, each with its tuning
/// (Fig 9's legend); Fig 15 compares the protocols on the same three.
pub const PAPER_SIZES: [SizeCase; 3] = [
    size(Scenario::new(250, 500.0, 500.0, 50.0), 3, 14, 10),
    size(Scenario::new(500, 710.0, 710.0, 50.0), 5, 17, 12),
    size(Scenario::new(1000, 1000.0, 1000.0, 50.0), 6, 24, 15),
];
const QUICK_SIZES: [SizeCase; 2] = [
    size(Scenario::new(100, 320.0, 320.0, 50.0), 2, 8, 5),
    size(Scenario::new(200, 450.0, 450.0, 50.0), 3, 10, 6),
];
const QUICK_FIG15: [SizeCase; 1] = [size(QUICK, 2, 10, 5)];

fn card(radius: u16, r: u16, noc: usize) -> CardConfig {
    CardConfig::default()
        .with_radius(radius)
        .with_max_contact_distance(r)
        .with_target_contacts(noc)
}

fn sweep(scenario: Scenario, base: CardConfig, knob: Knob, values: Vec<usize>) -> Sweep {
    Sweep {
        scenario,
        base,
        knob,
        values,
        secs: 0,
        queries: 0,
        resources: 0,
    }
}

fn sizes(cases: &'static [SizeCase], base: CardConfig) -> Sweep {
    let values = (0..cases.len()).collect();
    sweep(cases[0].scenario, base, Knob::Size(cases), values)
}

/// Every table and figure, in `repro all` order. Laid out by hand: one
/// line per size of each sweep.
#[rustfmt::skip]
pub static FIGURES: [Figure; 14] = [
    // Table 1: topology statistics of the eight scenarios, ours vs the
    // paper's. Fresh random draws match in magnitude, not digit for digit;
    // sparse scenarios are disconnected, so diameter and average hops are
    // over connected pairs, and the component count is ours.
    Figure {
        names: &["table1"],
        titles: &["### Table 1 — scenario topology statistics"],
        spec: |_| sweep(SCENARIO_5, card(3, 16, 10), Knob::Table1, (0..8).collect()),
        measure: Measure::Table {
            headers: &["#", "Nodes", "Area", "Tx", "Links (ours/paper)", "Degree (ours/paper)",
                "Diameter (ours/paper)", "Avg hops (ours/paper)", "Components"],
            rows: table1_rows,
        },
    },
    // Figs 3 & 4: PM(eq1) vs EM, reachability and backtracking vs NoC
    // (paper: scenario 5, R=3, r=20, D=1; Fig 4 plots NoC 1–5). EM reaches
    // more than PM at every NoC, as in Fig 3. Fig 4's PM ≫ EM backtracking
    // does not hold under our walk semantics (uniform-random DFS, sticky
    // per-node decisions): EM pays to escape the 2R ball before any node
    // may accept, while PM's inflated walk-hop count lets it accept nearby,
    // overlapping nodes cheaply. Total selection traffic is reported
    // beside backtracking, and the deviation is documented, not tuned away.
    Figure {
        names: &["fig3", "fig4"],
        titles: &["### Figs 3 & 4 — PM vs EM ({scenario}, R={R}, r={r}, D=1)"],
        spec: |quick| match quick {
            false => sweep(SCENARIO_5, card(3, 20, 1), Knob::Noc, (1..=9).collect()),
            true => sweep(QUICK, card(2, 10, 1), Knob::Noc, (1..=4).collect()),
        },
        measure: Measure::Rows {
            columns: &[Col::Dec("NoC", 0),
                Col::Dec("PM(eq1) reach %", 1), Col::Dec("PM(eq1) backtracks/node", 1),
                Col::Dec("PM(eq1) sel msgs/node", 1), Col::Dec("PM(eq1) contacts", 2),
                Col::Dec("EM reach %", 1), Col::Dec("EM backtracks/node", 1),
                Col::Dec("EM sel msgs/node", 1), Col::Dec("EM contacts", 2)],
            row: pm_vs_em,
        },
    },
    // Fig 5: the distribution shifts right as R grows, then collapses at
    // R=7, where the 2R..r annulus (14..16) is too thin for contacts.
    Figure {
        names: &["fig5"],
        titles: &["### Fig 5 — reachability distribution vs R ({scenario}, r={r}, NoC={NoC}, D=1)"],
        spec: |quick| match quick {
            false => sweep(SCENARIO_5, card(1, 16, 10), Knob::Radius, (1..=7).collect()),
            true => sweep(QUICK, card(1, 8, 5), Knob::Radius, vec![1, 2, 3]),
        },
        measure: Measure::Histogram { contacts: true },
    },
    // Fig 6: r = 2R, 2R+2, …, 2R+12. A wider annulus fits more
    // non-overlapping contacts, with diminishing returns past 2R+8;
    // r = 2R is (almost) the bare neighborhood.
    Figure {
        names: &["fig6"],
        titles: &["### Fig 6 — reachability distribution vs r ({scenario}, R={R}, NoC={NoC}, D=1)"],
        spec: |quick| match quick {
            false => sweep(SCENARIO_5, card(3, 6, 10), Knob::MaxDistance, offsets(3, 12)),
            true => sweep(QUICK, card(2, 4, 5), Knob::MaxDistance, offsets(2, 4)),
        },
        measure: Measure::Histogram { contacts: true },
    },
    // Fig 7: reachability rises sharply with the first contacts, then
    // saturates around NoC ≈ 6: the R=3, r=10 annulus fits only so many.
    Figure {
        names: &["fig7"],
        titles: &["### Fig 7 — reachability distribution vs NoC ({scenario}, R={R}, r={r}, D=1)"],
        spec: |quick| match quick {
            false => sweep(SCENARIO_5, card(3, 10, 0), Knob::Noc, (0..=12).step_by(2).collect()),
            true => sweep(QUICK, card(2, 8, 0), Knob::Noc, vec![0, 2, 4, 6]),
        },
        measure: Measure::Histogram { contacts: true },
    },
    // Fig 8: reachability climbs sharply with D, the contact tree that
    // makes CARD scale. D is a query parameter only, so one selected world
    // serves every depth.
    Figure {
        names: &["fig8"],
        titles: &["### Fig 8 — reachability distribution vs D ({scenario}, R={R}, r={r}, NoC={NoC})"],
        spec: |quick| match quick {
            false => sweep(SCENARIO_5, card(3, 10, 10), Knob::Depth, vec![1, 2, 3]),
            true => sweep(QUICK, card(2, 8, 4), Knob::Depth, vec![1, 2, 3]),
        },
        measure: Measure::Histogram { contacts: false },
    },
    // Fig 9: with R, r and NoC tuned per size, every size concentrates at
    // high reachability (the paper's configurability claim).
    Figure {
        names: &["fig9"],
        titles: &["### Fig 9 — reachability for different network sizes (D=1)"],
        spec: |quick| match quick {
            false => sizes(&PAPER_SIZES, CardConfig::default()),
            true => sizes(&QUICK_SIZES, CardConfig::default()),
        },
        measure: Measure::Histogram { contacts: false },
    },
    // Fig 10: more contacts mean more paths to validate and re-select, so
    // uniformly higher overhead curves.
    Figure {
        names: &["fig10"],
        titles: &["### Fig 10 — overhead/node vs time by NoC ({scenario}, R={R}, r={r}, D=1)"],
        spec: |quick| match quick {
            false => Sweep { secs: 10, ..sweep(SCENARIO_5, card(3, 10, 3), Knob::Noc, vec![3, 4, 5, 7]) },
            true => Sweep { secs: 6, ..sweep(QUICK_MOBILE, card(2, 8, 2), Knob::Noc, vec![2, 4]) },
        },
        measure: Measure::Overhead(&[total_overhead]),
    },
    // Figs 11 & 12 (§IV.B.2): total overhead *decreases* with r, because a
    // wider annulus makes walks succeed sooner; the collapse in
    // backtracking (Fig 12) outweighs the longer validation paths.
    Figure {
        names: &["fig11", "fig12"],
        titles: &[
            "### Fig 11 — total overhead/node vs time by r ({scenario}, NoC={NoC}, R={R}, D=1)",
            "### Fig 12 — backtracking overhead/node vs time by r ({scenario}, NoC={NoC}, R={R}, D=1)",
        ],
        spec: |quick| match quick {
            false => Sweep { secs: 10, ..sweep(SCENARIO_5, card(3, 8, 5), Knob::MaxDistance, vec![8, 9, 10, 12, 15]) },
            true => Sweep { secs: 6, ..sweep(QUICK_MOBILE, card(2, 5, 3), Knob::MaxDistance, vec![5, 8]) },
        },
        measure: Measure::Overhead(&[total_overhead, |k| k == MsgKind::CsqBacktrack]),
    },
    // Fig 13: one run. Contacts creep up while the overhead per contact
    // falls, as sources settle on stable contacts.
    Figure {
        names: &["fig13"],
        titles: &["### Fig 13 — overhead and contacts over time ({scenario}, NoC={NoC}, R={R}, r={r}, D=1)"],
        spec: |quick| match quick {
            false => Sweep { secs: 20, ..sweep(Scenario::new(250, 710.0, 710.0, 50.0), card(4, 16, 6), Knob::Noc, vec![6]) },
            true => Sweep { secs: 8, ..sweep(Scenario::new(100, 400.0, 400.0, 50.0), card(2, 8, 3), Knob::Noc, vec![3]) },
        },
        measure: Measure::Table {
            headers: &["t (s)", "Total contacts selected", "Selection + maintenance overhead / node", "Overhead / contact"],
            rows: |s| series_rows(&fig13_series(s), &[0, 1, 1]),
        },
    },
    // Fig 14: reachability saturates while overhead keeps climbing,
    // leaving a region where ≥ 50% reachability costs moderate overhead.
    Figure {
        names: &["fig14"],
        titles: &["### Fig 14 — reachability vs overhead trade-off ({scenario}, R={R}, r={r})"],
        spec: |quick| match quick {
            false => Sweep { secs: 10, ..sweep(SCENARIO_5, card(3, 16, 0), Knob::Noc, (0..=10).collect()) },
            true => Sweep { secs: 4, ..sweep(QUICK_MOBILE, card(2, 8, 0), Knob::Noc, vec![0, 2, 4, 6]) },
        },
        measure: Measure::Rows {
            columns: &[Col::Dec("NoC", 0), Col::Dec("Reachability (%)", 1), Col::Dec("Overhead / node", 1),
                Col::Norm("Reachability (norm)"), Col::Norm("Overhead (norm)")],
            row: tradeoff,
        },
    },
    // Fig 15: query traffic of CARD (D=3) vs flooding vs bordercasting
    // over random pairs in the largest component, where the baselines
    // always succeed. Expected: flooding ≫ bordercasting ≫ CARD, widening
    // with size; CARD's own selection + maintenance cost is a column.
    Figure {
        names: &["fig15"],
        titles: &["### Fig 15 — querying traffic: CARD vs flooding vs bordercasting ({queries} queries, D={D})"],
        spec: |quick| match quick {
            false => Sweep { secs: 10, queries: 50, ..sizes(&PAPER_SIZES, CardConfig::default().with_depth(3)) },
            true => Sweep { secs: 4, queries: 15, ..sizes(&QUICK_FIG15, CardConfig::default().with_depth(3)) },
        },
        measure: Measure::Rows {
            columns: &[Col::Dec("Nodes", 0), Col::Dec("Flooding msgs/node", 1),
                Col::Dec("Bordercast msgs/node", 1), Col::Dec("CARD query msgs/node", 1),
                Col::Dec("CARD sel+maint msgs/node", 1),
                Col::Pct("Flood success"), Col::Pct("BC success"), Col::Pct("CARD success")],
            row: query_traffic,
        },
    },
    // Extension (§I): contacts as small-world shortcuts. Overlay each
    // node's contact links on the unit-disk graph: path length drops while
    // clustering stays high.
    Figure {
        names: &["smallworld"],
        titles: &["### Extension — small-world effect of contacts ({scenario}, R={R}, r={r})"],
        spec: |quick| match quick {
            false => sweep(SCENARIO_5, card(3, 16, 0), Knob::Noc, (0..=10).step_by(2).collect()),
            true => sweep(QUICK, card(2, 9, 0), Knob::Noc, vec![0, 2, 4]),
        },
        measure: Measure::Rows {
            columns: &[Col::Dec("NoC", 0), Col::Dec("Contact shortcuts", 0), Col::Dec("Clustering", 3),
                Col::Dec("Char. path length", 2), Col::Pct("Connected pairs")],
            row: small_world,
        },
    },
    // Extension (§V): resources replicated k times, uniformly or clustered
    // on adjacent nodes, found by anycast DSQs. Replication raises success
    // and cuts traffic; clustered replicas act like fewer instances.
    Figure {
        names: &["resources"],
        titles: &["### Extension — resource distributions ({scenario}, R={R}, r={r}, NoC={NoC}, D={D})"],
        spec: |quick| match quick {
            false => Sweep { queries: 100, resources: 20, ..sweep(SCENARIO_5, card(3, 16, 10).with_depth(2), Knob::Replicas, vec![1, 2, 4, 8]) },
            true => Sweep { queries: 40, resources: 10, ..sweep(QUICK, card(2, 9, 5).with_depth(2), Knob::Replicas, vec![1, 4]) },
        },
        measure: Measure::Table {
            headers: &["Distribution", "Replicas", "Success", "Msgs/query", "Zone hits"],
            rows: resource_table,
        },
    },
];

/// r = 2R + 0, 2, …, `max_offset` (Fig 6).
fn offsets(radius: usize, max_offset: usize) -> Vec<usize> {
    (0..=max_offset)
        .step_by(2)
        .map(|o| 2 * radius + o)
        .collect()
}

// --- measures ----------------------------------------------------------

/// A world with every node's contacts selected from scratch.
pub fn selected(scenario: &Scenario, cfg: CardConfig) -> CardWorld {
    let mut world = CardWorld::build(scenario, cfg);
    world.select_all_contacts();
    world
}

/// Reachability histograms of a sweep, one per swept value.
#[derive(Clone, Debug)]
pub struct Histograms {
    /// 5%-bucket node counts.
    pub counts: Vec<Vec<u64>>,
    /// Mean reachability (%).
    pub mean_pct: Vec<f64>,
    /// Mean contacts actually selected.
    pub mean_contacts: Vec<f64>,
}

/// Each swept world's reachability at its depth. A depth sweep reads every
/// depth from one selected world.
pub fn histograms(s: &Sweep) -> Histograms {
    let shared = (s.knob == Knob::Depth).then(|| selected(&s.scenario, s.base));
    let cells = parallel_map(s.values.clone(), |v| {
        let (scenario, cfg) = s.cell(v);
        let own;
        let world = match &shared {
            Some(world) => world,
            None => {
                own = selected(&scenario, cfg);
                &own
            }
        };
        let summary = world.reachability_summary(cfg.depth);
        let counts = summary.histogram.counts().to_vec();
        (counts, summary.mean_pct, world.mean_contacts())
    });
    Histograms {
        counts: cells.iter().map(|c| c.0.clone()).collect(),
        mean_pct: cells.iter().map(|c| c.1).collect(),
        mean_contacts: cells.iter().map(|c| c.2).collect(),
    }
}

fn render_histograms(title: String, s: &Sweep, contacts: bool) -> String {
    let h = histograms(s);
    let edges: Vec<f64> = (1..=20).map(|i| i as f64 * REACH_BUCKET_PCT).collect();
    let labels: Vec<String> = s.values.iter().map(|&v| s.label(v)).collect();
    let series: Vec<(String, Vec<u64>)> = labels.iter().cloned().zip(h.counts).collect();
    let table = histogram_table(&edges, &series);
    let mut out = format!("{title}\n\n{table}\nMean reachability %: ");
    for (label, m) in labels.iter().zip(&h.mean_pct) {
        match s.knob {
            Knob::Size(_) => out.push_str(&format!("[{label}]: {m:.1}  ")),
            _ => out.push_str(&format!("{label}: {m:.1}  ")),
        }
    }
    if contacts {
        out.push_str("\nMean contacts: ");
        for (label, c) in labels.iter().zip(&h.mean_contacts) {
            out.push_str(&format!("{label}: {c:.2}  "));
        }
    }
    out.push('\n');
    out
}

/// Default random-waypoint speed range (m/s). The paper states none;
/// this is the usual pedestrian-to-vehicle range, with zero pause.
pub const DEFAULT_SPEED: (f64, f64) = (0.5, 5.0);

fn waypoints(scenario: &Scenario, rng: RngStream) -> RandomWaypoint {
    let (min, max) = DEFAULT_SPEED;
    RandomWaypoint::new(scenario.nodes, scenario.field(), min, max, 0.0, rng)
}

/// Build a world, select contacts at t=0, then run §III.C.3 maintenance
/// under random-waypoint mobility for `secs` simulated seconds.
/// Re-selection after losses is trickled, so the first 2 s bucket holds
/// the selection burst and later buckets decline toward the steady
/// validation cost.
pub fn run_mobile(scenario: &Scenario, cfg: CardConfig, secs: u64) -> CardWorld {
    let mut world = selected(scenario, cfg);
    let rng = SeedSplitter::new(cfg.seed).stream("mobility", 0);
    world.run_mobile(&mut waypoints(scenario, rng), SimDuration::from_secs(secs));
    world
}

/// Per-bucket control messages **per node** for kinds matching `pred`,
/// padded or truncated to exactly `buckets` entries (bucket k covers
/// `[2k, 2k+2)` seconds).
pub fn per_node_series(world: &CardWorld, pred: fn(MsgKind) -> bool, buckets: usize) -> Vec<f64> {
    let n = world.network().node_count() as f64;
    let mut series = world.stats().series_where(pred);
    series.resize(buckets, 0);
    series.iter().map(|&c| c as f64 / n).collect()
}

/// Selection + maintenance overhead (the paper's §IV.B "total overhead").
pub fn total_overhead(kind: MsgKind) -> bool {
    kind.is_selection() || kind.is_maintenance()
}

/// Each swept value's per-node series under `preds`: `[value][pred][bucket]`.
pub fn overhead(s: &Sweep, preds: &[fn(MsgKind) -> bool]) -> Vec<Vec<Vec<f64>>> {
    parallel_map(s.values.clone(), |v| {
        let (scenario, cfg) = s.cell(v);
        let world = run_mobile(&scenario, cfg, s.secs);
        let series = |&p| per_node_series(&world, p, s.buckets());
        preds.iter().map(series).collect()
    })
}

/// A sweep's rows, with [`Col::Norm`] columns divided by their maximum.
pub fn rows(s: &Sweep, columns: &[Col], row: fn(&Sweep, usize) -> Vec<f64>) -> Vec<Vec<f64>> {
    let mut rows = parallel_map(s.values.clone(), |v| row(s, v));
    for (i, col) in columns.iter().enumerate() {
        if let Col::Norm(_) = col {
            let max = rows.iter().map(|r| r[i]).fold(f64::MIN, f64::max).max(1e-9);
            rows.iter_mut().for_each(|r| r[i] /= max);
        }
    }
    rows
}

fn pm_vs_em(s: &Sweep, v: usize) -> Vec<f64> {
    let (scenario, cfg) = s.cell(v);
    let mut row = vec![v as f64];
    for method in [SelectionMethod::ProbabilisticEq1, SelectionMethod::Edge] {
        let world = selected(&scenario, cfg.with_method(method));
        let (n, stats) = (world.network().node_count() as f64, world.stats());
        row.extend([
            world.reachability_summary(1).mean_pct,
            stats.total(MsgKind::CsqBacktrack) as f64 / n,
            stats.total_where(MsgKind::is_selection) as f64 / n,
            world.mean_contacts(),
        ]);
    }
    row
}

fn tradeoff(s: &Sweep, noc: usize) -> Vec<f64> {
    let (scenario, cfg) = s.cell(noc);
    let world = run_mobile(&scenario, cfg, s.secs);
    let reach = world.reachability_summary(1).mean_pct;
    let n = world.network().node_count() as f64;
    let overhead = world.stats().total_where(total_overhead) as f64 / n;
    vec![noc as f64, reach, overhead, reach, overhead]
}

fn small_world(s: &Sweep, noc: usize) -> Vec<f64> {
    let (scenario, cfg) = s.cell(noc);
    let world = selected(&scenario, cfg);
    let shortcuts: Vec<(NodeId, NodeId)> = NodeId::all(world.network().node_count())
        .flat_map(|a| world.contact_table(a).ids().map(move |b| (a, b)))
        .collect();
    let m = SmallWorldMetrics::compute(&with_shortcuts(world.network().adj(), &shortcuts));
    let links = shortcuts.len() as f64;
    vec![
        noc as f64,
        links,
        m.clustering,
        m.path_length,
        m.connected_pair_fraction,
    ]
}

/// Table 1: each scenario instantiated and measured.
pub fn table1(s: &Sweep) -> Vec<(Scenario, TopologyMetrics)> {
    parallel_map(s.values.clone(), |v| {
        let (scenario, cfg) = s.cell(v);
        let (_, adj) = scenario.instantiate(cfg.seed);
        (scenario, TopologyMetrics::compute(&adj))
    })
}

/// Paper-reported Table 1 rows (links, degree, diameter, avg hops).
pub const PAPER_ROWS: [(f64, f64, u16, f64); 8] = [
    (837.0, 6.75, 23, 9.378),
    (632.0, 5.223, 25, 9.614),
    (284.0, 2.57, 13, 3.76),
    (702.0, 4.32, 20, 5.8744),
    (1854.0, 7.416, 29, 11.641),
    (3564.0, 14.184, 17, 7.06),
    (8019.0, 16.038, 24, 8.75),
    (4062.0, 8.156, 37, 14.33),
];

fn table1_rows(s: &Sweep) -> Vec<Vec<String>> {
    let rows = table1(s).into_iter().zip(PAPER_ROWS).enumerate();
    rows.map(|(i, ((s, m), p))| {
        vec![
            (i + 1).to_string(),
            s.nodes.to_string(),
            format!("{:.0}x{:.0}", s.width, s.height),
            format!("{:.0}", s.tx_range),
            format!("{} / {:.0}", m.links, p.0),
            format!("{:.2} / {:.2}", m.avg_degree, p.1),
            format!("{} / {}", m.diameter, p.2),
            format!("{:.2} / {:.2}", m.avg_hops, p.3),
            m.components.to_string(),
        ]
    })
    .collect()
}

/// Fig 13's series: total live contacts at each bucket's end, selection +
/// maintenance messages per node, and that overhead per live contact.
pub fn fig13_series(s: &Sweep) -> [Vec<f64>; 3] {
    let (scenario, cfg) = s.cell(s.values[0]);
    let world = run_mobile(&scenario, cfg, s.secs);
    let overhead = per_node_series(&world, total_overhead, s.buckets());
    let points = world.contacts_series().points();
    // The last contacts sample before each bucket's end.
    let contacts: Vec<f64> = (1..=s.buckets() as u64)
        .map(|k| SimTime::ZERO + SimDuration::from_secs(2).times(k))
        .map(|end| points.iter().rev().find(|p| p.0 < end).map_or(0.0, |p| p.1))
        .collect();
    let n = scenario.nodes as f64;
    let per_contact = overhead
        .iter()
        .zip(&contacts)
        .map(|(&oh, &c)| if c > 0.0 { oh * n / c } else { 0.0 })
        .collect();
    [contacts, overhead, per_contact]
}

/// Nodes of the largest connected component.
pub fn largest_component(net: &Network) -> Vec<NodeId> {
    let mut seen = vec![false; net.node_count()];
    let mut best: Vec<NodeId> = Vec::new();
    for s in NodeId::all(net.node_count()) {
        if !seen[s.index()] {
            let bfs = full_bfs(net.adj(), s);
            bfs.visited().iter().for_each(|v| seen[v.index()] = true);
            if bfs.visited_count() > best.len() {
                best = bfs.visited().to_vec();
            }
        }
    }
    best
}

/// `count` source ≠ target pairs drawn from `pool`.
fn draw_pairs(pool: &[NodeId], count: usize, rng: &mut RngStream) -> Vec<(NodeId, NodeId)> {
    assert!(pool.len() >= 2, "need at least two connected nodes");
    let mut pick = || *rng.choose(pool).expect("non-empty");
    (0..count)
        .map(|_| loop {
            let (s, t) = (pick(), pick());
            if s != t {
                break (s, t);
            }
        })
        .collect()
}

/// Fig 15's row for one size: nodes, then flooding, bordercast, CARD query
/// and CARD selection + maintenance messages per node, then the three
/// success shares.
fn query_traffic(s: &Sweep, v: usize) -> Vec<f64> {
    let (scenario, cfg) = s.cell(v);
    let splitter = SeedSplitter::new(cfg.seed);
    let net = Network::from_scenario(&scenario, cfg.radius, cfg.seed);
    let pool = largest_component(&net);
    let mut pair_rng = splitter.stream("fig15-pairs", scenario.nodes as u64);
    let pairs = draw_pairs(&pool, s.queries, &mut pair_rng);
    let (mut flood, mut bc) = (MsgStats::default(), MsgStats::default());
    let bc_cfg = BordercastConfig::default();
    let (mut flood_hits, mut bc_hits, mut card_hits) = (0, 0, 0);
    for &(a, b) in &pairs {
        flood_hits += flood_search(net.adj(), a, b, &mut flood, SimTime::ZERO).found as usize;
    }
    for &(a, b) in &pairs {
        let out = bordercast_search(
            net.adj(),
            net.tables(),
            a,
            b,
            &bc_cfg,
            &mut bc,
            SimTime::ZERO,
        );
        bc_hits += out.found as usize;
    }
    // CARD on the same placement (same seed), queried on fresh tables, then
    // a maintenance window under mobility for its own overhead.
    let mut world = selected(&scenario, cfg);
    for &(a, b) in &pairs {
        card_hits += world.query(a, b).found as usize;
    }
    let card_query = world.stats().total(MsgKind::Dsq) + world.stats().total(MsgKind::DsqReply);
    let mut model = waypoints(
        &scenario,
        splitter.stream("fig15-mobility", scenario.nodes as u64),
    );
    world.run_mobile(&mut model, SimDuration::from_secs(s.secs));
    let overhead = world.stats().total_where(total_overhead);
    let (n, q) = (net.node_count() as f64, s.queries as f64);
    vec![
        scenario.nodes as f64,
        flood.total(MsgKind::Flood) as f64 / n,
        bc.total(MsgKind::Bordercast) as f64 / n,
        card_query as f64 / n,
        overhead as f64 / n,
        flood_hits as f64 / q,
        bc_hits as f64 / q,
        card_hits as f64 / q,
    ]
}

/// One (distribution, replicas) cell of the resources extension.
#[derive(Clone, Debug)]
pub struct DistRow {
    /// Distribution label.
    pub distribution: &'static str,
    /// Replicas per resource.
    pub replicas: usize,
    /// Share of queries that found an instance.
    pub success: f64,
    /// Mean messages per query (query + reply).
    pub msgs_per_query: f64,
    /// Share of queries answered from the source's own zone (free).
    pub zone_hits: f64,
}

/// The resources extension: one selected world, each cell with its own
/// registry and query stream.
pub fn resource_rows(s: &Sweep) -> Vec<DistRow> {
    let world = &selected(&s.scenario, s.base);
    let cells: Vec<(&'static str, ResourceDistribution, usize)> = s
        .values
        .iter()
        .flat_map(|&k| {
            [
                ("uniform", UniformReplicated { replicas: k }),
                ("clustered", Clustered { replicas: k }),
            ]
            .map(|(l, d)| (l, d, k))
        })
        .collect();
    let (depth, queries) = (s.base.depth, s.queries);
    parallel_map(cells, |(label, dist, k)| {
        let splitter = SeedSplitter::new(s.base.seed);
        let mut place_rng = splitter.stream("res-place", k as u64 ^ (label.len() as u64) << 32);
        let registry = distribute(world.network(), s.resources, dist, &mut place_rng);
        let mut query_rng = splitter.stream("res-query", k as u64);
        let mut stats = MsgStats::default();
        let mut scratch = QueryScratch::new();
        let (mut found, mut zone_hits, mut msgs) = (0usize, 0usize, 0u64);
        for _ in 0..queries {
            let source = NodeId::from(query_rng.index(world.network().node_count()));
            let resource = ResourceId(query_rng.index(s.resources) as u32);
            let (net, tables, now) = (world.network(), world.contact_tables(), world.now());
            let out = resource_query(
                net,
                tables,
                &registry,
                None,
                source,
                resource,
                depth,
                &mut stats,
                now,
                &mut scratch,
            );
            found += out.found as usize;
            zone_hits += (out.found && out.depth_used == 0) as usize;
            msgs += out.total_messages();
        }
        let q = queries as f64;
        DistRow {
            distribution: label,
            replicas: k,
            success: found as f64 / q,
            msgs_per_query: msgs as f64 / q,
            zone_hits: zone_hits as f64 / q,
        }
    })
}

fn resource_table(s: &Sweep) -> Vec<Vec<String>> {
    let pct = |x: f64| Col::Pct("").cell(x);
    resource_rows(s)
        .iter()
        .map(|r| {
            let (k, msgs) = (r.replicas.to_string(), format!("{:.1}", r.msgs_per_query));
            vec![
                r.distribution.to_string(),
                k,
                pct(r.success),
                msgs,
                pct(r.zone_hits),
            ]
        })
        .collect()
}
