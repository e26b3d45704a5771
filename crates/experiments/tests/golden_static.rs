//! Golden tables of the static half of the evaluation (Table 1, Figs 3–9,
//! the small-world and resource-distribution extensions); see
//! `golden/mod.rs` for the method. `resources` (with `fig15` on the mobile
//! side) is the table whose DSQs run through the query walk.

use experiments::figures::{find, FIGURES};
use experiments::scale::{find_tier, TIERS};

#[macro_use]
mod golden;

golden!(table1_matches_golden, "table1");
golden!(fig3_4_matches_golden, "fig3");
golden!(fig5_matches_golden, "fig5");
golden!(fig6_matches_golden, "fig6");
golden!(fig7_matches_golden, "fig7");
golden!(fig8_matches_golden, "fig8");
golden!(fig9_matches_golden, "fig9");
golden!(smallworld_matches_golden, "smallworld");
golden!(resources_matches_golden, "resources");

/// Every golden file belongs to a registry figure, and every figure has a
/// golden file.
#[test]
fn golden_files_match_the_registry() {
    let mut files: Vec<String> = std::fs::read_dir(golden::dir())
        .expect("docs/golden")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter_map(|name| name.strip_suffix(".txt").map(str::to_string))
        .collect();
    let mut stems: Vec<String> = FIGURES.iter().map(|f| f.stem().to_string()).collect();
    files.sort();
    stems.sort();
    assert_eq!(files, stems);
}

/// `repro` takes figure and scale-tier names from one namespace: no tier
/// shares a name with a figure (one would shadow the other), neither is
/// `all`, and every tier name dispatches to its own tier.
#[test]
fn scale_tiers_and_figures_share_one_namespace() {
    for fig in &FIGURES {
        assert!(!fig.names.contains(&"all"), "a figure is named `all`");
    }
    for tier in &TIERS {
        assert!(
            find(tier.name).is_none(),
            "{} is a figure name too",
            tier.name
        );
        assert_ne!(tier.name, "all");
        let dispatched = find_tier(tier.name).is_some_and(|t| std::ptr::eq(t, tier));
        assert!(dispatched, "{} is not dispatched", tier.name);
    }
}
