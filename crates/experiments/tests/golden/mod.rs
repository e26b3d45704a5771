//! The byte-compare harness shared by `golden_mobile.rs` and
//! `golden_static.rs`.
//!
//! `docs/golden/<stem>.txt` is the verbatim stdout of
//! `repro <stem> --quick --seed 2003`. Each registry figure is rendered
//! through the library, exactly as the `repro` binary does, and compared
//! byte for byte: every experiment is deterministic per seed, so any
//! difference is a behaviour change of the run loop, the protocol or the
//! substrate. When such a change is intended, regenerate the file with the
//! command the failure prints.

pub const SEED: u64 = 2003;

/// The directory of the golden files.
pub fn dir() -> String {
    format!("{}/../../docs/golden", env!("CARGO_MANIFEST_DIR"))
}

pub fn assert_golden(stem: &str) {
    let fig = experiments::figures::find(stem).unwrap_or_else(|| panic!("no figure {stem}"));
    let rendered = fig.render(true, SEED);
    let path = format!("{}/{stem}.txt", dir());
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    // `repro` prints the table with `println!`.
    assert!(
        golden == format!("{rendered}\n"),
        "{stem} differs from docs/golden/{stem}.txt; reproduce with\n  \
         cargo run --release --offline -p experiments --bin repro -- {stem} --quick --seed {SEED}\n\
         --- golden ---\n{golden}--- rendered ---\n{rendered}\n"
    );
}

/// One test per golden file: the quick rendering of the figure `$stem`.
macro_rules! golden {
    ($test:ident, $stem:literal) => {
        #[test]
        fn $test() {
            $crate::golden::assert_golden($stem);
        }
    };
}
