//! The byte-compare harness shared by `golden_mobile.rs` and
//! `golden_static.rs`.
//!
//! `docs/golden/<fig>.txt` is the verbatim stdout of
//! `repro <fig> --quick --seed 2003`. Each figure is rendered through the
//! library, exactly as the `repro` binary does, and compared byte for
//! byte: every experiment is deterministic per seed, so any difference is
//! a behaviour change of the run loop, the protocol or the substrate.
//! When such a change is intended, regenerate the file with the command
//! the failure prints.

pub const SEED: u64 = 2003;

pub fn assert_golden(fig: &str, rendered: String) {
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

/// `run` + `render` of one figure module under its quick parameters (a
/// fourth argument overrides the `render(&params, &result)` call shape).
macro_rules! golden {
    ($test:ident, $fig:literal, $module:ident) => {
        golden!($test, $fig, $module, |p, result| $module::render(p, result));
    };
    ($test:ident, $fig:literal, $module:ident, |$p:ident, $result:ident| $render:expr) => {
        #[test]
        fn $test() {
            let mut params = $module::Params::quick();
            params.seed = $crate::golden::SEED;
            let ($p, $result) = (&params, &$module::run(&params));
            $crate::golden::assert_golden($fig, $render);
        }
    };
}
