//! Turning an [`Outcome`] into what gets printed: the human report, the
//! full run record (`--out`, one JSON object per line) and the contract
//! line the driver reads.

use crate::json::Value;
use crate::spec::{Kind, Metric, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::trace;
use crate::workloads::{Outcome, RunCfg};

/// Where a number came from, so a trajectory of runs can be compared.
pub struct Provenance {
    pub commit: String,
    pub rustc: String,
    /// CPUs of the machine, read before pinning.
    pub nproc: usize,
    pub pool_size: usize,
    /// Was the process pinned to one CPU before the pool was sized?
    pub pinned: bool,
}

impl Provenance {
    pub fn collect(nproc: usize, pinned: bool) -> Provenance {
        Provenance {
            nproc,
            pinned,
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
            rustc: rustc_version().unwrap_or_else(|| "unknown".to_string()),
            pool_size: sim_core::par::pool_size(),
        }
    }
}

/// `rustc --version` of the toolchain on `PATH`, which is the one `cargo run`
/// built this binary with.
fn rustc_version() -> Option<String> {
    let out = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()?;
    Some(String::from_utf8(out.stdout).ok()?.trim().to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git (a checkout that is no repository has none).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)
            .map(|hash| hash.trim().to_string())
    })
}

/// One reported metric: its value (the median, for host samples) and, for
/// host metrics, the samples' summary.
pub struct Reported {
    pub metric: &'static Metric,
    pub value: f64,
    pub summary: Option<Summary>,
    /// The host samples `summary` was taken over.
    pub samples: Vec<f64>,
}

/// The end-to-end metrics of an untraced run, in `END_TO_END` order.
pub fn end_to_end(out: &Outcome) -> Vec<Reported> {
    let host = |samples: Vec<f64>| {
        let s = Summary::of(&samples);
        (s.median, Some(s), samples)
    };
    let values = [
        host(out.setup_s.clone()),
        host(vec![out.peak_rss_mib]),
        host(out.ops_per_s()),
        (out.fin.sim_cost_per_op, None, Vec::new()),
        (out.fin.success_share, None, Vec::new()),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(metric, (value, summary, samples))| Reported {
            metric,
            value,
            summary,
            samples,
        })
        .collect()
}

/// The workload's own end-to-end metrics under their `NAMED` names: its
/// host rate (the `ops_per_s` samples; inverted where the name counts
/// milliseconds per op), then its simulated ones.
pub fn named(out: &Outcome) -> Vec<Reported> {
    let per_op_ms = out.rate.unit == "ms";
    let samples: Vec<f64> = out
        .ops_per_s()
        .into_iter()
        .map(|rate| if per_op_ms { 1e3 / rate } else { rate })
        .collect();
    let summary = Summary::of(&samples);
    let mut all = vec![Reported {
        metric: out.rate,
        value: summary.median,
        summary: Some(summary),
        samples,
    }];
    all.extend(out.fin.named.iter().map(|&(metric, value)| Reported {
        metric,
        value,
        summary: None,
        samples: Vec::new(),
    }));
    all
}

/// The per-layer metrics of a traced run, in `PER_LAYER` order.
pub fn per_layer(out: &Outcome) -> Vec<Reported> {
    PER_LAYER
        .iter()
        .zip(out.fin.layers.values())
        .map(|(metric, &value)| Reported {
            metric,
            value,
            summary: None,
            samples: Vec::new(),
        })
        .collect()
}

pub fn print_human(out: &Outcome, cfg: &RunCfg, prov: &Provenance, metrics: &[Reported]) {
    println!("== {} ==", out.workload);
    println!(
        "provenance: commit {} | seed {} | nproc {}{} | pool_size {} | {} | profile {}",
        prov.commit,
        cfg.seed,
        prov.nproc,
        if prov.pinned { " (pinned to 1)" } else { "" },
        prov.pool_size,
        prov.rustc,
        if cfg.quick { "quick" } else { "full" },
    );
    println!("shape: {}", out.sizes);
    println!(
        "units: 1 warm-up discarded + {} timed, {} {} each",
        out.unit_s.len(),
        out.ops_per_unit,
        out.op
    );
    for r in metrics {
        let m = r.metric;
        let mut line = format!(
            "  {:<36} {:>16.6} {:<6} [{}]",
            m.name,
            r.value,
            m.unit,
            m.kind.label()
        );
        if let Some(s) = r.summary.filter(|_| m.kind == Kind::Host) {
            line.push_str(&format!(
                " n={} median={:.6} q1={:.6} q3={:.6} iqr/median={:.2}%",
                s.n,
                s.median,
                s.q1,
                s.q3,
                100.0 * s.spread()
            ));
        }
        println!("{line}");
    }
    println!("state_digest: {:016x}", out.digest);
    if cfg.trace {
        println!("layer self time over the traced units and probes (ms):");
        for (name, calls, total, own) in trace::by_name(&out.spans) {
            println!("  {name:<28} calls={calls:<6} total={total:>12.3} self={own:>12.3}");
        }
        for note in &out.fin.notes {
            println!("  {note}");
        }
    }
    for c in &out.fin.checks {
        println!(
            "check {:<52} {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
}

fn metrics_value(metrics: &[Reported], full: bool) -> Value {
    Value::obj(metrics.iter().map(|r| {
        let mut fields = vec![
            ("value", Value::Num(r.value)),
            ("unit", Value::str(r.metric.unit)),
        ];
        if full {
            fields.push(("kind", Value::str(r.metric.kind.label())));
            if let Some(s) = r.summary {
                fields.push(("n", Value::Num(s.n as f64)));
                fields.push(("q1", Value::Num(s.q1)));
                fields.push(("q3", Value::Num(s.q3)));
                let samples = r.samples.iter().map(|&x| Value::Num(x)).collect();
                fields.push(("samples", Value::Arr(samples)));
            }
        }
        (r.metric.name, Value::obj(fields))
    }))
}

/// Exactly the keys the driver expects: `correct`, `attempted`, `failed`
/// and `metrics` (name -> value and unit).
pub fn contract_line(out: &Outcome, metrics: &[Reported]) -> String {
    Value::obj([
        ("correct", Value::Bool(out.correct())),
        ("attempted", Value::Num(out.attempted() as f64)),
        ("failed", Value::Num(out.fin.failed as f64)),
        ("metrics", metrics_value(metrics, false)),
    ])
    .to_json()
}

/// The full record of one run, for `--out` files and `card_bench compare`.
pub fn record(out: &Outcome, cfg: &RunCfg, prov: &Provenance, metrics: &[Reported]) -> Value {
    Value::obj([
        ("workload", Value::str(out.workload)),
        ("trace", Value::Bool(cfg.trace)),
        ("correct", Value::Bool(out.correct())),
        ("attempted", Value::Num(out.attempted() as f64)),
        ("failed", Value::Num(out.fin.failed as f64)),
        ("state_digest", Value::Str(format!("{:016x}", out.digest))),
        (
            "provenance",
            Value::obj([
                ("commit", Value::str(prov.commit.clone())),
                // As a string: a 64-bit seed does not fit a JSON number.
                ("seed", Value::Str(cfg.seed.to_string())),
                ("nproc", Value::Num(prov.nproc as f64)),
                ("pool_size", Value::Num(prov.pool_size as f64)),
                ("pinned", Value::Bool(prov.pinned)),
                ("rustc", Value::str(prov.rustc.clone())),
                (
                    "profile",
                    Value::str(if cfg.quick { "quick" } else { "full" }),
                ),
                ("shape", Value::str(out.sizes.clone())),
                ("op", Value::str(out.op)),
                ("ops_per_unit", Value::Num(out.ops_per_unit as f64)),
                ("timed_units", Value::Num(out.unit_s.len() as f64)),
            ]),
        ),
        ("metrics", metrics_value(metrics, true)),
        (
            "checks",
            Value::Arr(
                out.fin
                    .checks
                    .iter()
                    .map(|c| {
                        Value::obj([
                            ("name", Value::str(c.name)),
                            ("ok", Value::Bool(c.ok)),
                            ("detail", Value::str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
