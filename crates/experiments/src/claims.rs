// Included by `lib.rs` under `cfg(test)`: each figure's paper-claim tests,
// asserted over the registry's quick sweeps.

/// One memo cell per stem: what the helpers below compute from a quick
/// sweep runs once per test binary, however many tests read it.
type Memo<T> = std::sync::OnceLock<std::sync::Mutex<MemoCells<T>>>;
type MemoCells<T> =
    std::collections::BTreeMap<&'static str, std::sync::Arc<std::sync::OnceLock<T>>>;

/// `run()`'s value for `stem`, computed on the first call. Different stems
/// compute in parallel; a second caller of the same stem waits for it.
fn memo<T: Clone>(table: &Memo<T>, stem: &'static str, run: impl FnOnce() -> T) -> T {
    let cells = table.get_or_init(Default::default);
    let cell = cells.lock().unwrap().entry(stem).or_default().clone();
    cell.get_or_init(run).clone()
}

/// The quick sweep of the registry entry `stem`, at the default seed.
fn quick(stem: &str) -> figures::Sweep {
    figures::find(stem).unwrap().sweep(true, DEFAULT_SEED)
}

/// The quick rendering of the registry entry `stem`.
fn quick_text(stem: &'static str) -> String {
    static MEMO: Memo<String> = Memo::new();
    memo(&MEMO, stem, || {
        figures::find(stem).unwrap().render(true, DEFAULT_SEED)
    })
}

/// The numeric rows of a quick row-table entry.
fn quick_rows(stem: &'static str) -> Vec<Vec<f64>> {
    let figures::Measure::Rows { columns, row } = figures::find(stem).unwrap().measure else {
        panic!("{stem} is not a row table");
    };
    static MEMO: Memo<Vec<Vec<f64>>> = Memo::new();
    memo(&MEMO, stem, || figures::rows(&quick(stem), columns, row))
}

/// The `[value][predicate][bucket]` series of a quick overhead entry.
fn quick_overhead(stem: &'static str) -> Vec<Vec<Vec<f64>>> {
    let figures::Measure::Overhead(preds) = figures::find(stem).unwrap().measure else {
        panic!("{stem} is not an overhead series");
    };
    static MEMO: Memo<Vec<Vec<Vec<f64>>>> = Memo::new();
    memo(&MEMO, stem, || figures::overhead(&quick(stem), preds))
}

/// The reachability histograms of a quick histogram entry.
fn quick_histograms(stem: &'static str) -> figures::Histograms {
    static MEMO: Memo<figures::Histograms> = Memo::new();
    memo(&MEMO, stem, || figures::histograms(&quick(stem)))
}

/// Fig 13's quick series.
fn quick_fig13() -> [Vec<f64>; 3] {
    static MEMO: Memo<[Vec<f64>; 3]> = Memo::new();
    memo(&MEMO, "fig13", || figures::fig13_series(&quick("fig13")))
}

/// The resources extension's quick rows.
fn quick_resources() -> Vec<figures::DistRow> {
    static MEMO: Memo<Vec<figures::DistRow>> = Memo::new();
    memo(&MEMO, "resources", || {
        figures::resource_rows(&quick("resources"))
    })
}

/// Column `i` of `rows`.
fn column(rows: &[Vec<f64>], i: usize) -> Vec<f64> {
    rows.iter().map(|r| r[i]).collect()
}

/// Every histogram of `stem`'s quick sweep covers all of its nodes.
fn assert_histograms_cover_all_nodes(stem: &'static str) {
    let params = quick(stem);
    let counts = quick_histograms(stem).counts;
    for (&v, h) in params.values.iter().zip(&counts) {
        assert_eq!(h.iter().sum::<u64>(), params.cell(v).0.nodes as u64);
    }
}

mod table1 {
    mod tests {
        use crate::figures::{find, table1, PAPER_ROWS};
        use net_topology::metrics::TopologyMetrics;
        use net_topology::scenario::{Scenario, TABLE1_SCENARIOS};

        fn run(seed: u64) -> Vec<(Scenario, TopologyMetrics)> {
            table1(&find("table1").unwrap().sweep(false, seed))
        }

        /// The paper-sized table at seed 1, shared by the tests below.
        fn seed_one() -> Vec<(Scenario, TopologyMetrics)> {
            static MEMO: crate::Memo<Vec<(Scenario, TopologyMetrics)>> = crate::Memo::new();
            crate::memo(&MEMO, "table1", || run(1))
        }

        #[test]
        fn produces_all_eight_rows() {
            let rows = seed_one();
            assert_eq!(rows.len(), 8);
            for (i, (_, m)) in rows.iter().enumerate() {
                assert_eq!(m.nodes, TABLE1_SCENARIOS[i].nodes);
            }
        }

        #[test]
        fn magnitudes_track_paper() {
            for (i, (_, m)) in seed_one().iter().enumerate() {
                let (paper_links, paper_degree, ..) = PAPER_ROWS[i];
                let links = m.links as f64 / paper_links;
                assert!((0.5..2.0).contains(&links), "scenario {}: {m:?}", i + 1);
                let degree = m.avg_degree / paper_degree;
                assert!((0.5..2.0).contains(&degree), "scenario {}: {m:?}", i + 1);
            }
        }

        #[test]
        fn denser_tx_means_more_links() {
            // scenarios 4/5/6 share N and area, tx 30/50/70
            let rows = run(2);
            assert!(rows[3].1.links < rows[4].1.links);
            assert!(rows[4].1.links < rows[5].1.links);
        }

        #[test]
        fn render_contains_every_scenario() {
            let text = find("table1").unwrap().render(false, 1);
            assert!(text.contains("710x710"));
            assert!(text.contains("1000x1000"));
            assert_eq!(text.matches('\n').count(), 1 + 1 + 2 + 8); // title + blank + header/sep + 8 rows
        }
    }
}

mod fig03_04 {
    mod tests {
        use crate::figures::{find, Col, Measure};
        use card_core::SelectionMethod::{Edge, ProbabilisticEq1};

        // Each method's columns: reach %, backtracks/node, selection
        // msgs/node, contacts. PM(eq1) starts at column 1, EM at column 5.
        const PM: usize = 1;
        const EM: usize = 5;

        #[test]
        fn quick_run_shapes_hold() {
            let Measure::Rows { columns, .. } = find("fig3").unwrap().measure else {
                panic!("figs 3 & 4 are a row table");
            };
            for (at, method) in [(PM, ProbabilisticEq1), (EM, Edge)] {
                assert!(matches!(columns[at], Col::Dec(h, _) if h.starts_with(method.label())));
            }
            let rows = crate::quick_rows("fig3");
            let k = crate::quick("fig3").values.len();
            assert_eq!(rows.len(), k);
            assert!(rows.iter().all(|r| r.len() == 9));
            let col = |at: usize| crate::column(&rows, at);

            // Fig 3 shape: reachability is (weakly) increasing in NoC for EM.
            for w in col(EM).windows(2) {
                assert!(w[1] >= w[0] - 1.0, "EM reachability should not drop: {w:?}");
            }
            // Fig 3 headline: EM >= PM at the top of the sweep (PM's contacts
            // overlap, buying less reachability per contact).
            let (em, pm) = (col(EM)[k - 1], col(PM)[k - 1]);
            assert!(em >= pm * 0.9, "EM {em:.1}% should not trail PM {pm:.1}%");
            for method in [PM, EM] {
                // Backtracking grows with NoC for both methods (saturation cost).
                let backtracks = col(method + 1);
                assert!(backtracks[k - 1] > backtracks[0], "{backtracks:?}");
                // Selection traffic includes the backtracking component.
                for (sel, bt) in col(method + 2).iter().zip(&backtracks) {
                    assert!(sel >= bt);
                }
            }
        }

        #[test]
        fn render_mentions_both_methods() {
            let text = crate::quick_text("fig3");
            assert!(text.contains("PM(eq1)"));
            assert!(text.contains("EM"));
        }
    }
}

mod fig05 {
    mod tests {
        #[test]
        fn distribution_shifts_right_with_r() {
            let sweep = crate::quick_histograms("fig5");
            assert_eq!(sweep.counts.len(), 3);
            crate::assert_histograms_cover_all_nodes("fig5");
            // R=2 and R=3 both dominate R=1 in mean reachability (Fig 5 shape)
            let m = &sweep.mean_pct;
            assert!(m[1] > m[0], "R=2 must beat R=1: {m:?}");
        }

        #[test]
        fn annulus_collapse_reduces_contacts() {
            // When 2R approaches r the contact count collapses (the R=7 effect):
            // quick params: r=8, so R=3 (2R=6) has a thinner annulus than R=2.
            let c = crate::quick_histograms("fig5").mean_contacts;
            assert!(c[2] < c[1], "thin annulus must yield fewer contacts: {c:?}");
        }

        #[test]
        fn render_has_all_radius_columns() {
            let text = crate::quick_text("fig5");
            for r in crate::quick("fig5").values {
                assert!(text.contains(&format!("R={r}")));
            }
        }
    }
}

mod fig06 {
    mod tests {
        use crate::figures::find;

        #[test]
        fn reachability_grows_with_r() {
            let sweep = crate::quick_histograms("fig6");
            let (c, m) = (&sweep.mean_contacts, &sweep.mean_pct);
            // r = 2R: (almost) no contacts, reachability ≈ neighborhood only
            assert!(c[0] < 0.25, "r=2R: ~no contacts: {c:?}");
            // wider annulus ⇒ more contacts and more reachability
            let last = c.len() - 1;
            assert!(c[last] > c[0]);
            assert!(m[last] > m[0] + 3.0, "r=2R+4 must clearly beat r=2R: {m:?}");
        }

        #[test]
        fn r_values_derived_from_offsets() {
            let params = find("fig6").unwrap().sweep(false, crate::DEFAULT_SEED);
            assert_eq!(params.base.radius, 3);
            assert_eq!(params.values, vec![6, 8, 10, 12, 14, 16, 18]);
        }

        #[test]
        fn histograms_cover_all_nodes() {
            crate::assert_histograms_cover_all_nodes("fig6");
        }
    }
}

mod fig07 {
    mod tests {
        #[test]
        fn reachability_rises_then_saturates() {
            let params = crate::quick("fig7");
            let sweep = crate::quick_histograms("fig7");
            let (c, m) = (&sweep.mean_contacts, &sweep.mean_pct);
            // NoC=0: bare neighborhood
            assert_eq!(c[0], 0.0);
            // first contacts buy the most reachability
            assert!(m[1] > m[0] + 2.0, "NoC=2 must clearly beat NoC=0: {m:?}");
            // saturation: contacts actually selected stop tracking NoC
            let last = params.values.len() - 1;
            assert!(c[last] < params.values[last] as f64, "saturation");
            // monotone non-decreasing means (within noise)
            for w in m.windows(2) {
                assert!(w[1] >= w[0] - 1.0, "reachability dropped: {w:?}");
            }
        }

        #[test]
        fn noc_zero_distribution_is_neighborhood_only() {
            let params = crate::quick("fig7");
            let sweep = crate::quick_histograms("fig7");
            // with R=2 on a 150-node network, neighborhoods stay under ~30%
            let low_buckets: u64 = sweep.counts[0][..6].iter().sum();
            assert_eq!(low_buckets, params.scenario.nodes as u64);
        }
    }
}

mod fig08 {
    mod tests {
        #[test]
        fn reachability_climbs_sharply_with_depth() {
            let m = crate::quick_histograms("fig8").mean_pct;
            assert_eq!(m.len(), 3);
            assert!(m[1] > m[0] * 1.3, "D=2 should be well above D=1: {m:?}");
            assert!(m[2] >= m[1], "D=3 must not lose reachability");
        }

        #[test]
        fn histograms_cover_all_nodes() {
            crate::assert_histograms_cover_all_nodes("fig8");
        }

        #[test]
        fn render_lists_depths() {
            let text = crate::quick_text("fig8");
            assert!(text.contains("D=1") && text.contains("D=2") && text.contains("D=3"));
        }
    }
}

mod fig09 {
    mod tests {
        #[test]
        fn all_sizes_achieve_substantial_reachability() {
            let params = crate::quick("fig9");
            let m = crate::quick_histograms("fig9").mean_pct;
            assert_eq!(m.len(), params.values.len());
            for (&v, &m) in params.values.iter().zip(&m) {
                let label = params.label(v);
                assert!(m > 15.0, "[{label}]: {m:.1}%");
            }
        }

        #[test]
        fn histograms_sum_to_network_size() {
            crate::assert_histograms_cover_all_nodes("fig9");
        }
    }
}

mod fig10 {
    mod tests {
        #[test]
        fn more_contacts_cost_more_overhead() {
            let runs = crate::quick_overhead("fig10");
            assert_eq!(runs.len(), 2);
            let low: f64 = runs[0][0].iter().sum();
            let high: f64 = runs[1][0].iter().sum();
            assert!(high > low, "NoC=4 ({high:.1}) must exceed NoC=2 ({low:.1})");
        }

        #[test]
        fn every_bucket_reported() {
            let params = crate::quick("fig10");
            for run in crate::quick_overhead("fig10") {
                assert_eq!(run[0].len(), params.buckets());
            }
            let text = crate::quick_text("fig10");
            assert!(text.contains("NoC=2") && text.contains("NoC=4"));
        }
    }
}

mod fig11_12 {
    mod tests {
        /// Summed (total, backtracking) overhead of the narrow and the wide
        /// annulus: each run's series are Fig 11's and Fig 12's.
        fn narrow_and_wide() -> [(f64, f64); 2] {
            let runs = crate::quick_overhead("fig11");
            let sum = |s: &Vec<f64>| s.iter().sum::<f64>();
            [0, 1].map(|i| (sum(&runs[i][0]), sum(&runs[i][1])))
        }

        #[test]
        fn backtracking_drops_with_wider_annulus() {
            let [(_, narrow), (_, wide)] = narrow_and_wide();
            assert!(wide < narrow, "{wide:.1} vs {narrow:.1}");
        }

        #[test]
        fn total_overhead_follows_backtracking_down() {
            // The Fig 11 headline: total overhead decreases with r because the
            // backtracking savings dominate the longer paths.
            let [(narrow, _), (wide, _)] = narrow_and_wide();
            assert!(wide < narrow * 1.1, "{wide:.1} vs {narrow:.1}");
        }

        #[test]
        fn render_emits_both_figures() {
            let text = crate::quick_text("fig11");
            assert!(text.contains("Fig 11"));
            assert!(text.contains("Fig 12"));
        }
    }
}

mod fig13 {
    mod tests {
        #[test]
        fn per_contact_overhead_decreases_over_time() {
            let params = crate::quick("fig13");
            let [_, overhead, per_contact] = crate::quick_fig13();
            let k = overhead.len();
            assert_eq!(k, params.buckets());
            // The normalized maintenance cost falls as stable contacts
            // accumulate (Fig 13's "source nodes find more stable contacts").
            let (first, last) = (per_contact[0], per_contact[k - 1]);
            assert!(last < first, "must decline: {per_contact:?}");
        }

        #[test]
        fn contacts_stay_populated() {
            let [contacts, ..] = crate::quick_fig13();
            // after the first bucket, the network should hold contacts
            for (k, &c) in contacts.iter().enumerate().skip(1) {
                assert!(c > 0.0, "bucket {k} has no contacts");
            }
        }

        #[test]
        fn render_has_all_series() {
            let text = crate::quick_text("fig13");
            assert!(text.contains("Total contacts selected"));
            assert!(text.contains("Selection + maintenance overhead / node"));
            assert!(text.contains("Overhead / contact"));
        }
    }
}

mod fig14 {
    mod tests {
        // Columns: NoC, reachability %, overhead/node, then both normalized.
        #[test]
        fn both_curves_rise_with_noc() {
            let rows = crate::quick_rows("fig14");
            let k = rows.len();
            assert!(rows[k - 1][1] > rows[0][1]);
            assert!(rows[k - 1][2] > rows[0][2]);
            // normalized curves peak at 1.0
            for i in [3, 4] {
                let max = crate::column(&rows, i).into_iter().fold(f64::MIN, f64::max);
                assert!((max - 1.0).abs() < 1e-9);
            }
        }

        #[test]
        fn tradeoff_exists() {
            // Reachability saturates; overhead does not: their normalized gap
            // should widen at high NoC. At minimum they must not be identical.
            let rows = crate::quick_rows("fig14");
            assert_ne!(crate::column(&rows, 3), crate::column(&rows, 4));
        }
    }
}

mod fig15 {
    mod tests {
        use crate::figures::largest_component;
        use manet_routing::network::Network;
        use net_topology::bfs::full_bfs;

        /// The one quick size's (flooding, bordercast, CARD query)
        /// msgs/node and their success shares.
        fn quick_case() -> ([f64; 3], [f64; 3]) {
            let rows = crate::quick_rows("fig15");
            assert_eq!(rows.len(), 1);
            let [_, flood, bc, card, _, flood_ok, bc_ok, card_ok] = rows[0][..] else {
                panic!("fig15 rows have eight columns");
            };
            ([flood, bc, card], [flood_ok, bc_ok, card_ok])
        }

        #[test]
        fn card_beats_baselines_on_query_traffic() {
            let ([flooding, bordercast, card], _) = quick_case();
            assert!(flooding > bordercast, "{flooding} vs {bordercast}");
            assert!(bordercast > card, "{bordercast} vs {card}");
        }

        #[test]
        fn success_rates_ordered_as_paper() {
            let (_, [flooding, bordercast, card]) = quick_case();
            assert_eq!(flooding, 1.0, "flooding always succeeds in-component");
            assert_eq!(bordercast, 1.0, "bordercasting always succeeds");
            assert!(card >= 0.6, "CARD found {card:.2} at D=3");
        }

        #[test]
        fn largest_component_is_connected_pool() {
            let params = crate::quick("fig15");
            let net = Network::from_scenario(&params.cell(0).0, 2, params.base.seed);
            let pool = largest_component(&net);
            assert!(pool.len() >= 2);
            let bfs = full_bfs(net.adj(), pool[0]);
            for &v in &pool {
                assert!(bfs.reached(v), "pool member {v} not connected to pool head");
            }
        }
    }
}

mod ext_resources {
    mod tests {
        use crate::figures::{resource_rows, DistRow};

        #[test]
        fn replication_improves_discovery() {
            let rows = crate::quick_resources();
            assert_eq!(rows.len(), 4);
            let uni: Vec<&DistRow> = rows
                .iter()
                .filter(|r| r.distribution == "uniform")
                .collect();
            assert!(uni[1].success >= uni[0].success, "{uni:?}");
            assert!(uni[1].zone_hits >= uni[0].zone_hits, "{uni:?}");
        }

        #[test]
        fn uniform_beats_clustered_at_equal_replicas() {
            let params = crate::quick("resources");
            let rows = crate::quick_resources();
            let hi = params.values.last().copied().unwrap();
            let at = |d: &str| {
                rows.iter()
                    .find(|r| r.distribution == d && r.replicas == hi)
            };
            let (uni, clu) = (at("uniform").unwrap(), at("clustered").unwrap());
            // uniform replicas spread coverage wider than clustered ones
            assert!(uni.success >= clu.success, "{uni:?} vs {clu:?}");
        }

        #[test]
        fn deterministic() {
            // A fresh run against the shared one: two runs of one sweep.
            let cells = |rows: Vec<DistRow>| -> Vec<(f64, f64)> {
                rows.iter().map(|r| (r.success, r.msgs_per_query)).collect()
            };
            let fresh = resource_rows(&crate::quick("resources"));
            assert_eq!(cells(fresh), cells(crate::quick_resources()));
        }
    }
}

mod ext_smallworld {
    mod tests {
        // Columns: NoC, contact shortcuts, clustering, path length,
        // connected pairs.
        #[test]
        fn contacts_shrink_path_length_without_killing_clustering() {
            let params = crate::quick("smallworld");
            let rows = crate::quick_rows("smallworld");
            let (base, most) = (&rows[0], rows.last().unwrap());
            assert_eq!(base[0], 0.0);
            assert_eq!(base[1], 0.0);
            assert!(most[1] > 0.0);
            let (before, after) = (base[3], most[3]);
            assert!(after < before * 0.9, "{before:.2} -> {after:.2}");
            // Watts–Strogatz small-world criterion: clustering stays far above
            // the random-graph level C_rand ≈ <k>/n even after the overlay
            // dilutes it with (non-triangle-forming) long-range shortcuts.
            let n = params.scenario.nodes as f64;
            let approx_degree = 8.0; // unit-disk degree at these densities
            let c_random = approx_degree / n;
            assert!(most[2] > 5.0 * c_random, "{most:?} vs {c_random:.3}");
        }

        #[test]
        fn path_length_decreases_monotonically_with_noc() {
            let path_length = crate::column(&crate::quick_rows("smallworld"), 3);
            for w in path_length.windows(2) {
                assert!(w[1] <= w[0] + 0.05, "paths lengthened: {w:?}");
            }
        }

        #[test]
        fn render_shape() {
            let text = crate::quick_text("smallworld");
            assert!(text.contains("small-world"));
            assert!(text.contains("Char. path length"));
        }
    }
}

mod mobile {
    mod tests {
        use crate::figures::{per_node_series, run_mobile, total_overhead};
        use card_core::CardConfig;
        use net_topology::scenario::Scenario;

        fn cfg(noc: usize, seed: u64) -> CardConfig {
            let cfg = CardConfig::default()
                .with_radius(2)
                .with_max_contact_distance(8);
            cfg.with_target_contacts(noc).with_seed(seed)
        }

        #[test]
        fn mobile_run_produces_bucketed_overhead() {
            let world = run_mobile(&Scenario::new(100, 350.0, 350.0, 50.0), cfg(3, 5), 6);
            let series = per_node_series(&world, total_overhead, 3);
            assert_eq!(series.len(), 3);
            assert!(series[0] > 0.0, "bucket 0 contains the initial selection");
            assert!(series[1] > 0.0, "no maintenance: {series:?}");
        }

        #[test]
        fn series_pads_missing_buckets() {
            let world = run_mobile(&Scenario::new(60, 300.0, 300.0, 50.0), cfg(2, 6), 2);
            let series = per_node_series(&world, total_overhead, 10);
            assert_eq!(series.len(), 10);
        }
    }
}
