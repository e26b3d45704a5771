//! Golden tables of the static half of the evaluation (Table 1, Figs 3–9,
//! the small-world and resource-distribution extensions); see
//! `golden/mod.rs` for the method. `resources` (with `fig15` on the mobile
//! side) is the table whose DSQs run through the query walk.

use experiments::{
    ext_resources, ext_smallworld, fig03_04, fig05, fig06, fig07, fig08, fig09, table1,
};

#[macro_use]
mod golden;

/// Table 1 has no quick variant and no parameters beyond the seed.
#[test]
fn table1_matches_golden() {
    golden::assert_golden("table1", table1::render(&table1::run(golden::SEED)));
}

golden!(fig3_4_matches_golden, "fig3", fig03_04);
golden!(fig5_matches_golden, "fig5", fig05);
golden!(fig6_matches_golden, "fig6", fig06);
golden!(fig7_matches_golden, "fig7", fig07);
golden!(fig8_matches_golden, "fig8", fig08);
golden!(fig9_matches_golden, "fig9", fig09, |_p, sweep| {
    fig09::render(sweep)
});
golden!(smallworld_matches_golden, "smallworld", ext_smallworld);
golden!(resources_matches_golden, "resources", ext_resources);
