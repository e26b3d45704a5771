//! `card_bench compare A.jsonl B.jsonl`: two sets of run records (as
//! `run --out` writes them), one row per (workload, end-to-end metric).
//!
//! Host metrics are judged against the bounds `BENCHMARK.json` fixes, and a
//! spread wider than the bound reads `unresolved`, not `unchanged`.
//! Simulated metrics and `state_digest` must be exactly equal wherever both
//! sets ran the same seed.

use std::collections::BTreeMap;

use crate::json::{parse, Value};
use crate::spec::{Kind, Metric, END_TO_END, NAMED, WORKLOADS};
use crate::stats::Summary;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

struct Run {
    workload: String,
    seed: String,
    digest: String,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if v.get("trace").and_then(Value::as_bool) != Some(false) {
            continue;
        }
        let field = |key: &str| -> Result<String, String> {
            v.get(key)
                .or_else(|| v.get("provenance").and_then(|p| p.get(key)))
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{path}:{}: no {key}", i + 1))
        };
        let metrics = v
            .get("metrics")
            .map(Value::as_obj)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        runs.push(Run {
            workload: field("workload")?,
            seed: field("seed")?,
            digest: field("state_digest")?,
            metrics,
        });
    }
    Ok(runs)
}

/// `name -> bound` from `BENCHMARK.json`'s `end_to_end` list.
fn bounds(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = doc
        .get("end_to_end")
        .ok_or(format!("{path}: no end_to_end"))?;
    Ok(list
        .as_arr()
        .iter()
        .filter_map(|e| {
            Some((
                e.get("name")?.as_str()?.to_string(),
                e.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

fn of<'a>(runs: &'a [Run], workload: &str) -> Vec<&'a Run> {
    runs.iter().filter(|r| r.workload == workload).collect()
}

/// By how much of A's median B is worse (negative: better).
fn worse_by(metric: &Metric, a: f64, b: f64) -> f64 {
    let delta = if metric.higher_is_better {
        a - b
    } else {
        b - a
    };
    if a == 0.0 {
        delta.signum()
    } else {
        delta / a.abs()
    }
}

/// Judge host samples `b` against `a` under `bound`.
pub fn judge_host(metric: &Metric, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let worse = worse_by(metric, sa.median, sb.median);
    let better = |x: f64, y: f64| {
        if metric.higher_is_better {
            x > y
        } else {
            x < y
        }
    };
    let every_b_beats_every_a = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if every_b_beats_every_a {
        Verdict::Improved
    } else if worse > bound {
        Verdict::Worse
    } else if sa.spread().max(sb.spread()) > bound {
        Verdict::Unresolved
    } else if -worse > sa.spread() {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Print the comparison; returns whether no row reads worse or unresolved.
pub fn compare(path_a: &str, path_b: &str, benchmark: &str) -> Result<bool, String> {
    let (runs_a, runs_b) = (load(path_a)?, load(path_b)?);
    let bounds = bounds(benchmark)?;
    let mut clean = true;
    println!("A = {path_a}\nB = {path_b}\nbounds from {benchmark}");
    println!(
        "{:<18} {:<27} {:<5} {:>28} {:>28} {:>8}  verdict",
        "workload", "metric", "kind", "A median (n, iqr/median)", "B median (n, iqr/median)", "B/A"
    );
    for workload in WORKLOADS {
        let (a, b) = (of(&runs_a, workload), of(&runs_b, workload));
        if a.is_empty() || b.is_empty() {
            println!(
                "{workload:<18} missing from {}",
                if a.is_empty() { "A" } else { "B" }
            );
            clean = false;
            continue;
        }
        // Runs of the same seed must agree on every simulated number.
        let same_seed: Vec<(&Run, &Run)> = a
            .iter()
            .flat_map(|ra| {
                b.iter()
                    .filter(|rb| rb.seed == ra.seed)
                    .map(move |rb| (*ra, *rb))
            })
            .collect();
        for metric in END_TO_END.iter().chain(&NAMED) {
            let values = |runs: &[&Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(metric.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&a), values(&b));
            if va.is_empty() && vb.is_empty() {
                continue; // a named metric this workload does not have
            }
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            // A named metric is judged under the bound of the gated slot it
            // folds into.
            let slot = match (metric.kind, metric.higher_is_better) {
                (Kind::Host, _) => "ops_per_s",
                (Kind::Sim, false) => "sim_cost_per_op",
                (Kind::Sim, true) => "success_share",
            };
            let bound = bounds
                .get(metric.name)
                .or(bounds.get(slot))
                .copied()
                .unwrap_or(0.0);
            let exact = metric.kind == Kind::Sim && !same_seed.is_empty();
            let verdict = if exact {
                let equal = same_seed
                    .iter()
                    .all(|(ra, rb)| ra.metrics.get(metric.name) == rb.metrics.get(metric.name));
                if equal {
                    Verdict::Unchanged
                } else if worse_by(metric, sa.median, sb.median) > 0.0 {
                    Verdict::Worse
                } else {
                    Verdict::Improved
                }
            } else {
                judge_host(metric, bound, &va, &vb)
            };
            clean &= !matches!(verdict, Verdict::Worse | Verdict::Unresolved);
            let cell =
                |s: Summary| format!("{:.6} ({}, {:.2}%)", s.median, s.n, 100.0 * s.spread());
            let ratio = if sa.median == 0.0 {
                f64::NAN
            } else {
                sb.median / sa.median
            };
            println!(
                "{:<18} {:<27} {:<5} {:>28} {:>28} {:>8.4}  {} ({}, base A {:.6} {})",
                workload,
                metric.name,
                metric.kind.label(),
                cell(sa),
                cell(sb),
                ratio,
                verdict.label(),
                if exact {
                    "exact per seed".to_string()
                } else {
                    format!("bound {:.0}%", 100.0 * bound)
                },
                sa.median,
                metric.unit,
            );
        }
        let digests_equal = same_seed.iter().all(|(ra, rb)| ra.digest == rb.digest);
        let label = match (same_seed.is_empty(), digests_equal) {
            (true, _) => "not compared (no seed in common)",
            (false, true) => "identical",
            (false, false) => "DIFFERENT",
        };
        clean &= digests_equal;
        println!(
            "{workload:<18} {:<27} sim   {label} over {} same-seed pairs",
            "state_digest",
            same_seed.len()
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: &Metric = &END_TO_END[2];
    const SETUP: &Metric = &END_TO_END[0];

    #[test]
    fn verdicts_follow_bound_and_spread() {
        assert!(RATE.higher_is_better && !SETUP.higher_is_better);
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound and within the noise.
        assert_eq!(
            judge_host(RATE, 0.1, &base, &[100.2, 99.8, 100.0, 100.4, 99.9]),
            Verdict::Unchanged
        );
        // 20% fewer ops per second is worse; 20% less set-up time is better.
        let low = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(judge_host(RATE, 0.1, &base, &low), Verdict::Worse);
        assert_eq!(judge_host(SETUP, 0.1, &base, &low), Verdict::Improved);
        assert_eq!(judge_host(SETUP, 0.1, &low, &base), Verdict::Worse);
        // A spread wider than the bound cannot certify "unchanged".
        let noisy = [100.0, 130.0, 75.0, 110.0, 90.0];
        assert_eq!(judge_host(RATE, 0.1, &base, &noisy), Verdict::Unresolved);
        // Every run better than every base run is an improvement, even a small one.
        assert_eq!(
            judge_host(RATE, 0.1, &base, &[102.0, 103.0, 102.5]),
            Verdict::Improved
        );
    }
}
