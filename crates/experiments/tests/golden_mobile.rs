//! Golden tables of the mobile figures (Figs 10, 11/12, 13, 14, 15).
//!
//! `docs/golden/<fig>.txt` is the verbatim stdout of
//! `repro <fig> --quick --seed 2003`. Each figure is rendered here through
//! the library, exactly as the `repro` binary does, and compared byte for
//! byte: the mobile pipeline is deterministic per seed, so any difference
//! is a behaviour change of the run loop, the protocol or the substrate.
//! When such a change is intended, regenerate the file with the command
//! the failure prints.

use experiments::{fig10, fig11_12, fig13, fig14, fig15};

const SEED: u64 = 2003;

fn assert_golden(fig: &str, rendered: String) {
    let path = format!("{}/../../docs/golden/{fig}.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    // `repro` prints the table with `println!`.
    assert!(
        golden == format!("{rendered}\n"),
        "{fig} differs from docs/golden/{fig}.txt; reproduce with\n  \
         cargo run --release --offline -p experiments --bin repro -- {fig} --quick --seed {SEED}\n\
         --- golden ---\n{golden}--- rendered ---\n{rendered}\n"
    );
}

/// `run` + `render` of one figure module under its quick parameters.
macro_rules! golden {
    ($test:ident, $fig:literal, $module:ident) => {
        #[test]
        fn $test() {
            let mut p = $module::Params::quick();
            p.seed = SEED;
            let result = $module::run(&p);
            assert_golden($fig, $module::render(&p, &result));
        }
    };
}

golden!(fig10_matches_golden, "fig10", fig10);
golden!(fig11_12_matches_golden, "fig11", fig11_12);
golden!(fig13_matches_golden, "fig13", fig13);
golden!(fig14_matches_golden, "fig14", fig14);
golden!(fig15_matches_golden, "fig15", fig15);
