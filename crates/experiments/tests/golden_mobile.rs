//! Golden tables of the mobile figures (Figs 10, 11/12, 13, 14, 15); see
//! `golden/mod.rs` for the method.

#[macro_use]
mod golden;

golden!(fig10_matches_golden, "fig10");
golden!(fig11_12_matches_golden, "fig11");
golden!(fig13_matches_golden, "fig13");
golden!(fig14_matches_golden, "fig14");
golden!(fig15_matches_golden, "fig15");
