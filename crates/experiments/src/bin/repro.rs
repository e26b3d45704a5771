//! `repro` — regenerate every table and figure of the CARD paper.
//!
//! ```text
//! repro table1 | fig3 | fig4 | fig5 | … | fig15 | scale | all
//!       [--quick] [--seed N] [--scale] [--nodes N[,N…]]
//! ```
//!
//! The figure names, and what `all` runs, come from
//! `experiments::figures::FIGURES`; `fig3`/`fig4` and `fig11`/`fig12` share
//! runs and print together.
//! `scale` (equivalently the `--scale` flag) runs the N = 10⁴–10⁵
//! substrate scale family; `scale-raw` the N = 10⁶ raw-speed tier
//! (kernel build + mobility/refresh loop, then the full protocol on
//! shard-resident state: selection, validation rounds and hinted query
//! sweeps through the cross-shard message plane, with per-shard memory
//! and plane-traffic columns); `scale-hostile` the fault-injection
//! degradation grid (churn × partition × message loss, liveness asserted
//! in-run). `--nodes` overrides any scale family's node counts from the
//! command line so new sizes need no recompile. Scale tiers exit
//! non-zero when an in-run fidelity/parity/liveness assertion fails.
//! Output is Markdown (tables matching the paper's figures); see
//! `docs/REPRO.md` for the experiment catalogue and conventions.

use experiments::figures::{find, Figure, FIGURES};
use experiments::*;

struct Options {
    quick: bool,
    seed: u64,
    /// `--nodes` override for the scale family (`None` = module defaults).
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
    if opts.nodes.is_some()
        && !which.iter().any(|w| {
            w == "scale" || w == "scale-raw" || w == "scale-events" || w == "scale-hostile"
        })
    {
        usage("--nodes only applies to the scale / scale-raw / scale-events / scale-hostile experiments");
    }
    if which.is_empty() {
        usage("choose an experiment or `all`");
    }

    for name in which {
        match name.as_str() {
            "scale" => gate(name.as_str(), || scale_cmd(&opts)),
            "scale-raw" => gate(name.as_str(), || scale_raw_cmd(&opts)),
            "scale-events" => gate(name.as_str(), || scale_events_cmd(&opts)),
            "scale-hostile" => gate(name.as_str(), || scale_hostile_cmd(&opts)),
            "all" => FIGURES.iter().for_each(|fig| print(fig, &opts)),
            other => match find(other) {
                Some(fig) => print(fig, &opts),
                None => usage(&format!("unknown experiment {other}")),
            },
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    let figures: Vec<&str> = FIGURES
        .iter()
        .flat_map(|f| f.names.iter().copied())
        .collect();
    eprintln!(
        "usage: repro <{}|scale|scale-raw|scale-events|scale-hostile|all> [--quick] [--seed N] [--scale] [--nodes N[,N...]]\n\n\
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
        figures.join("|")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Run a scale-tier command and turn any in-run fidelity/parity/liveness
/// assertion failure into a clean non-zero exit, so CI gates on the run.
fn gate(name: &str, cmd: impl FnOnce() + std::panic::UnwindSafe) {
    if std::panic::catch_unwind(cmd).is_err() {
        eprintln!("[repro] {name}: an in-run assertion failed");
        std::process::exit(1);
    }
}

fn stamp(name: &str) {
    eprintln!("[repro] running {name} …");
}

/// Run one registry figure and print its Markdown.
fn print(fig: &Figure, opts: &Options) {
    stamp(fig.stem());
    println!("{}", fig.render(opts.quick, opts.seed));
}

fn scale_cmd(opts: &Options) {
    stamp("scale");
    let mut p = if opts.quick {
        scale::Params::quick()
    } else {
        scale::Params::default()
    };
    p.seed = opts.seed;
    if let Some(nodes) = &opts.nodes {
        p.nodes = nodes.clone();
    }
    let rows = scale::run(&p);
    println!("{}", scale::render(&p, &rows));
}

fn scale_raw_cmd(opts: &Options) {
    stamp("scale-raw");
    let mut p = if opts.quick {
        scale::RawParams::quick()
    } else {
        scale::RawParams::default()
    };
    p.seed = opts.seed;
    if let Some(nodes) = &opts.nodes {
        p.nodes = nodes.clone();
    }
    let rows = scale::run_raw(&p);
    println!("{}", scale::render_raw(&p, &rows));
}

fn scale_events_cmd(opts: &Options) {
    stamp("scale-events");
    let mut p = if opts.quick {
        scale_events::Params::quick()
    } else {
        scale_events::Params::default()
    };
    p.seed = opts.seed;
    if let Some(nodes) = &opts.nodes {
        p.nodes = nodes.clone();
    }
    let rows = scale_events::run(&p);
    println!("{}", scale_events::render(&p, &rows));
}

fn scale_hostile_cmd(opts: &Options) {
    stamp("scale-hostile");
    let mut p = if opts.quick {
        scale_hostile::Params::quick()
    } else {
        scale_hostile::Params::default()
    };
    p.seed = opts.seed;
    if let Some(nodes) = &opts.nodes {
        p.nodes = nodes.clone();
    }
    let report = scale_hostile::run(&p);
    println!("{}", scale_hostile::render(&p, &report));
    assert!(
        scale_hostile::passed(&report),
        "hostile tier failed its liveness invariants"
    );
}
