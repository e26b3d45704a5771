//! Shared infrastructure for the criterion benches and the CI bench-id
//! guard. The benchmarks themselves live in `benches/microbench.rs`; run
//! them with `cargo bench -p bench` (set `BENCH_JSON=<path>` to record a
//! machine-readable baseline, `BENCH_QUICK=1` for the fast CI profile).

use std::time::Duration;

/// The criterion configuration every microbench group uses.
///
/// Default profile: 20 samples, 500 ms warm-up, 2 s measurement (the
/// profile `BENCH_topology.json` baselines were recorded with). With
/// `BENCH_QUICK` set (to anything but `0`), a drastically shortened
/// profile runs instead — noisy numbers, but every benchmark id still
/// executes and lands in `BENCH_JSON`, which is all the CI id-drift guard
/// needs.
pub fn config() -> criterion::Criterion {
    if quick_mode() {
        criterion::Criterion::default()
            .sample_size(5)
            .warm_up_time(Duration::from_millis(50))
            .measurement_time(Duration::from_millis(250))
    } else {
        criterion::Criterion::default()
            .sample_size(20)
            .warm_up_time(Duration::from_millis(500))
            .measurement_time(Duration::from_secs(2))
    }
}

/// Is the `BENCH_QUICK` fast profile active?
pub fn quick_mode() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// One `(id, median_ns)` row of a `BENCH_*.json` file.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRow {
    /// Full benchmark id (`group/name` or bare `name`).
    pub id: String,
    /// Median per-iteration nanoseconds.
    pub median_ns: f64,
}

/// Parse the `BENCH_*.json` format written by the vendored criterion's
/// `flush_json` (a JSON array of flat objects with string `id` and numeric
/// `median_ns` fields, one object per line). Returns rows in file order.
///
/// This is a purpose-built parser for that fixed, self-produced format —
/// not a general JSON parser.
pub fn parse_bench_json(text: &str) -> Result<Vec<BenchRow>, String> {
    let mut rows = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') {
            continue; // array brackets / blank lines
        }
        let id = extract_string_field(line, "id")
            .ok_or_else(|| format!("line {}: no \"id\" field in {line}", lineno + 1))?;
        let median_ns = extract_number_field(line, "median_ns")
            .ok_or_else(|| format!("line {}: no \"median_ns\" field in {line}", lineno + 1))?;
        rows.push(BenchRow { id, median_ns });
    }
    Ok(rows)
}

fn extract_string_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    // ids are written with `"` escaped as `\"`
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => out.push(chars.next()?),
            '"' => return Some(out),
            c => out.push(c),
        }
    }
    None
}

fn extract_number_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| {
            c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && !c.is_ascii_digit()
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Result of diffing a freshly recorded bench run against the committed
/// baseline.
#[derive(Clone, Debug, Default)]
pub struct BenchDiff {
    /// `(id, baseline median, new median)` for ids present in both.
    pub matched: Vec<(String, f64, f64)>,
    /// Baseline ids absent from the new run — the failure condition
    /// (a benchmark was renamed or dropped without updating the baseline).
    pub missing: Vec<String>,
    /// Ids only in the new run (newly added benchmarks; informational).
    pub added: Vec<String>,
}

/// Compare baseline rows against newly recorded rows by id.
pub fn diff(baseline: &[BenchRow], new: &[BenchRow]) -> BenchDiff {
    let mut out = BenchDiff::default();
    for b in baseline {
        match new.iter().find(|n| n.id == b.id) {
            Some(n) => out.matched.push((b.id.clone(), b.median_ns, n.median_ns)),
            None => out.missing.push(b.id.clone()),
        }
    }
    for n in new {
        if !baseline.iter().any(|b| b.id == n.id) {
            out.added.push(n.id.clone());
        }
    }
    out
}

/// Render the perf-trend table (markdown-ish, printed by the CI step).
pub fn render_trend(diff: &BenchDiff) -> String {
    let mut out = String::from("| benchmark id | baseline median | current median | ratio |\n");
    out.push_str("|---|---|---|---|\n");
    for (id, base, new) in &diff.matched {
        out.push_str(&format!(
            "| {id} | {} | {} | {:.2}x |\n",
            fmt_ns(*base),
            fmt_ns(*new),
            new / base
        ));
    }
    for id in &diff.added {
        out.push_str(&format!("| {id} | — (new) | recorded | — |\n"));
    }
    out
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"[
  {"id": "adjacency_rebuild/n250", "min_ns": 15083.5, "median_ns": 15577.5, "mean_ns": 15618.2, "samples": 20, "iters_per_sample": 5321},
  {"id": "topology_refresh/n1000/incremental", "min_ns": 645006.2, "median_ns": 675667.9, "mean_ns": 674426.8, "samples": 20, "iters_per_sample": 149}
]
"#;

    #[test]
    fn parses_the_flush_json_format() {
        let rows = parse_bench_json(SAMPLE).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].id, "adjacency_rebuild/n250");
        assert!((rows[0].median_ns - 15577.5).abs() < 1e-9);
        assert_eq!(rows[1].id, "topology_refresh/n1000/incremental");
    }

    #[test]
    fn parse_rejects_malformed_rows() {
        assert!(parse_bench_json("[\n  {\"median_ns\": 3.0}\n]").is_err());
        assert!(parse_bench_json("[\n  {\"id\": \"x\"}\n]").is_err());
        assert!(parse_bench_json("[]").unwrap().is_empty());
    }

    #[test]
    fn diff_classifies_ids() {
        let baseline = parse_bench_json(SAMPLE).unwrap();
        let new = vec![
            BenchRow {
                id: "adjacency_rebuild/n250".into(),
                median_ns: 31155.0,
            },
            BenchRow {
                id: "grid_rebucket/n1000/mover_update".into(),
                median_ns: 5.0,
            },
        ];
        let d = diff(&baseline, &new);
        assert_eq!(d.matched.len(), 1);
        assert_eq!(d.missing, vec!["topology_refresh/n1000/incremental"]);
        assert_eq!(d.added, vec!["grid_rebucket/n1000/mover_update"]);
        let trend = render_trend(&d);
        assert!(
            trend.contains("2.00x"),
            "trend table shows the ratio: {trend}"
        );
        assert!(trend.contains("(new)"));
    }

    #[test]
    fn both_config_profiles_build() {
        // the env var is process-global, so only exercise the constructors
        let _ = config();
        let _ = quick_mode();
    }
}
