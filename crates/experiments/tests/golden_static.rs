//! Golden tables of the static half of the evaluation (Table 1, Figs 3–9,
//! the small-world and resource-distribution extensions); see
//! `golden/mod.rs` for the method. `resources` (with `fig15` on the mobile
//! side) is the table whose DSQs run through the query walk.

use experiments::figures::FIGURES;

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
