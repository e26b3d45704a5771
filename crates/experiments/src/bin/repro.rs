//! `repro` — regenerate every table and figure of the CARD paper.
//!
//! ```text
//! repro table1 | fig3 | fig4 | fig5 | … | fig15 | scale | all
//!       [--quick] [--seed N] [--scale] [--nodes N[,N…]]
//! ```
//!
//! The figure names, and what `all` runs, come from
//! `experiments::figures::FIGURES`; `fig3`/`fig4` and `fig11`/`fig12` share
//! runs and print together. The scale tiers come from
//! `experiments::scale::TIERS`: `scale` (equivalently the `--scale` flag)
//! runs the N = 10⁴–10⁵ substrate scale family; `scale-raw` the N = 10⁶
//! raw-speed tier (kernel build + mobility/refresh loop, then the full
//! protocol on shard-resident state with per-shard memory and
//! deposit-traffic columns); `scale-events` the event-vs-tick drive race;
//! `scale-hostile` the fault-injection degradation grid (churn ×
//! partition × message loss). `--nodes` overrides any tier's node counts
//! from the command line so new sizes need no recompile. A tier panics,
//! and so exits non-zero, when an in-run fidelity, parity or liveness
//! assertion fails.
//! Output is Markdown (tables matching the paper's figures); see
//! `docs/REPRO.md` for the experiment catalogue and conventions.

use experiments::figures::{find, Figure, FIGURES};
use experiments::scale::{find_tier, TIERS};
use experiments::DEFAULT_SEED;

struct Options {
    quick: bool,
    seed: u64,
    /// `--nodes` override for the scale tiers (`None` = their own sizes).
    nodes: Option<Vec<usize>>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut opts = Options {
        quick: false,
        seed: DEFAULT_SEED,
        nodes: None,
    };

    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--seed" => {
                let v = it.next().unwrap_or_else(|| usage("--seed needs a value"));
                opts.seed = v
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"));
            }
            "--scale" => which.push("scale".to_string()),
            "--nodes" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--nodes needs a value (e.g. 10000 or 10000,50000)"));
                let parsed: Result<Vec<usize>, _> =
                    v.split(',').map(|s| s.trim().parse::<usize>()).collect();
                match parsed {
                    Ok(list) if !list.is_empty() && list.iter().all(|&n| n > 0) => {
                        opts.nodes = Some(list);
                    }
                    _ => usage("--nodes needs positive integers (comma-separated)"),
                }
            }
            "-h" | "--help" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown flag {other}")),
            other => which.push(other.to_string()),
        }
    }
    // `--nodes` without an experiment implies the scale family; with a
    // non-scale experiment it would be silently ignored, so reject it.
    if which.is_empty() && opts.nodes.is_some() {
        which.push("scale".to_string());
    }
    if opts.nodes.is_some() && !which.iter().any(|w| find_tier(w).is_some()) {
        let tiers: Vec<&str> = TIERS.iter().map(|t| t.name).collect();
        usage(&format!(
            "--nodes only applies to the {} experiments",
            tiers.join(" / ")
        ));
    }
    if which.is_empty() {
        usage("choose an experiment or `all`");
    }

    for name in which {
        if name == "all" {
            FIGURES.iter().for_each(|fig| print(fig, &opts));
        } else if let Some(tier) = find_tier(&name) {
            stamp(tier.name);
            println!(
                "{}",
                (tier.run)(opts.quick, opts.seed, opts.nodes.as_deref())
            );
        } else if let Some(fig) = find(&name) {
            print(fig, &opts);
        } else {
            usage(&format!("unknown experiment {name}"));
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    let names: Vec<&str> = FIGURES
        .iter()
        .flat_map(|f| f.names.iter().copied())
        .chain(TIERS.iter().map(|t| t.name))
        .collect();
    eprintln!(
        "usage: repro <{}|all> [--quick] [--seed N] [--scale] [--nodes N[,N...]]\n\n\
         scale runs are excluded from `all` (minutes at N=10^5); invoke them\n\
         explicitly via `repro scale`, `repro --scale`, or `repro --nodes N`.\n\
         `repro scale-raw` runs the N=10^6 raw-speed tier (substrate loop\n\
         plus the full protocol on shard-resident state).\n\
         `repro scale-events` races the event-driven drive against the tick\n\
         reference at N=10^5 (fidelity asserted in-run).\n\
         `repro scale-hostile` measures degradation under churn, partition\n\
         windows and message loss at N=10^5 (liveness asserted in-run).\n\
         Scale tiers exit non-zero when an in-run fidelity, parity or\n\
         liveness assertion fails.",
        names.join("|")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn stamp(name: &str) {
    eprintln!("[repro] running {name} …");
}

/// Run one registry figure and print its Markdown.
fn print(fig: &Figure, opts: &Options) {
    stamp(fig.stem());
    println!("{}", fig.render(opts.quick, opts.seed));
}
