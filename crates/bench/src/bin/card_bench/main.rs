//! `card_bench` — the repository's benchmark. See `README.md` beside this
//! package for the workloads, the metrics and how they interact.
//!
//! ```text
//! card_bench run --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! card_bench check [--seed N]
//! card_bench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]
//! ```

mod compare;
mod digest;
mod gen;
mod json;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::io::Write as _;
use std::process::ExitCode;

use json::Value;
use report::Provenance;
use spec::WORKLOADS;
use workloads::{run_named, Outcome, RunCfg};

/// The seed runs use unless told otherwise.
const DEFAULT_SEED: u64 = 2003;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;

const USAGE: &str = "usage:
  card_bench run --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
  card_bench check [--seed N]
  card_bench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]
workloads: substrate_churn bootstrap_static query_escalate query_hinted mobile_calm mobile_hostile
seeds: default 2003; 7919 is held out (never used while writing a change) for confirming a claim";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
    benchmark: String,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: None,
        benchmark: "BENCHMARK.json".to_string(),
        files: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?;
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=600.0).contains(s))
                    .ok_or("--seconds needs a number from 0 to 600")?;
            }
            // `--trace 0|1` as the driver passes it, or a bare `--trace`.
            "--trace" => {
                a.trace = match it.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--quick" => a.quick = true,
            "--out" => a.out = Some(value("--out")?),
            "--benchmark" => a.benchmark = value("--benchmark")?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => a.files.push(file.to_string()),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("card_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "run" => match args.workload.as_deref() {
            Some("all") => run_all(&args),
            Some(name) => run_one(name, &args),
            None => Err("run needs --workload".to_string()),
        },
        "check" => check(args.seed),
        "compare" => match args.files.as_slice() {
            [a, b] => compare::compare(a, b, &args.benchmark),
            _ => Err("compare needs two record files".to_string()),
        },
        _ => Err(format!("unknown command {command}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("card_bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Pin this process to the first CPU it may run on, before the simulator
/// sizes its worker pool from `available_parallelism`.
///
/// On the 2-vCPU sandbox this benchmark is gated in, the speed-up of the
/// second worker swings between about 1.0x and 1.6x from run to run with
/// where the host places the two vCPUs (same physical core or not), which
/// is several times the regression bound. One CPU measures the same code
/// (shards run one after another on the calling thread) without that term.
/// Returns whether pinning took effect; elsewhere the run proceeds unpinned.
fn pin_to_one_cpu() -> bool {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        let mut mask = [0u64; 16];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: both calls get a pointer to `mask`, valid for `bytes`
        // bytes for the duration of the call, which is all they require;
        // pid 0 names the calling thread, and no other thread exists yet.
        unsafe {
            if sched_getaffinity(0, bytes, mask.as_mut_ptr()) != 0 {
                return false;
            }
            let Some(word) = mask.iter().position(|&w| w != 0) else {
                return false;
            };
            let lowest = mask[word] & mask[word].wrapping_neg();
            mask = [0u64; 16];
            mask[word] = lowest;
            sched_setaffinity(0, bytes, mask.as_ptr()) == 0
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

fn run_cfg(args: &Args) -> RunCfg {
    RunCfg {
        seed: args.seed,
        seconds: if args.quick { 0.0 } else { args.seconds },
        trace: args.trace,
        quick: args.quick,
        shards: None,
    }
}

/// Generated files (span files, the records of `--workload all`) go beside
/// the executable: inside the checkout's build directory, which is ignored.
fn out_dir() -> std::path::PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("card_bench_out")))
        .unwrap_or_else(|| "card_bench_out".into())
}

/// Run one workload in this process. Prints the report, then the contract
/// line last. `Ok(false)` (exit code 1) when the correctness gate fails.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    // The machine's CPU count is read before pinning hides it, the worker
    // pool's size after, because pinning is what sizes the pool.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let pinned = pin_to_one_cpu();
    let cfg = run_cfg(args);
    let out = run_named(name, &cfg).ok_or(format!("unknown workload {name}"))?;
    let prov = Provenance::collect(nproc, pinned);
    // The driver's line carries the gated metrics only; the report and the
    // record add the workload's own end-to-end metrics by name.
    let mut metrics = if cfg.trace {
        report::per_layer(&out)
    } else {
        report::end_to_end(&out)
    };
    let contract_line = report::contract_line(&out, &metrics);
    if !cfg.trace {
        metrics.extend(report::named(&out));
    }
    report::print_human(&out, &cfg, &prov, &metrics);
    if cfg.trace {
        let path = out_dir().join(format!("{name}.trace.jsonl"));
        trace::write_jsonl(&path, &out.spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans: {} written to {}", out.spans.len(), path.display());
    }
    if let Some(path) = &args.out {
        let line = report::record(&out, &cfg, &prov, &metrics).to_json();
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{contract_line}");
    Ok(out.correct())
}

/// Run every workload, each in a process of its own (so peak memory is per
/// workload), then print all their metrics side by side.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let records = match &args.out {
        Some(path) => std::path::PathBuf::from(path),
        None => out_dir().join(format!("all.{}.jsonl", std::process::id())),
    };
    if let Some(dir) = records.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let before = std::fs::read_to_string(&records).map_or(0, |t| t.lines().count());
    let mut all_ok = true;
    for name in WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["run", "--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&records);
        if args.quick {
            child.arg("--quick");
        }
        let status = child
            .status()
            .map_err(|e| format!("spawning {name}: {e}"))?;
        all_ok &= status.success();
    }

    let text =
        std::fs::read_to_string(&records).map_err(|e| format!("{}: {e}", records.display()))?;
    if args.out.is_none() {
        // The file was only a channel from the children to this summary.
        let _ = std::fs::remove_file(&records);
    }
    println!("== all workloads ==");
    let mut summary = Vec::new();
    let (mut attempted, mut failed) = (0.0, 0.0);
    for line in text.lines().skip(before) {
        let rec = json::parse(line)?;
        let name = rec
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        attempted += rec.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
        failed += rec.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        let metrics = rec.get("metrics").cloned().unwrap_or(Value::Null);
        for (metric, m) in metrics.as_obj() {
            println!(
                "{name:<18} {metric:<36} {:>16.6} {}",
                m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
                m.get("unit").and_then(Value::as_str).unwrap_or(""),
            );
        }
        let digest = rec.get("state_digest").cloned().unwrap_or(Value::Null);
        println!("{name:<18} state_digest {}", digest.as_str().unwrap_or("?"));
        summary.push((
            name,
            Value::obj([("state_digest", digest), ("metrics", metrics)]),
        ));
    }
    all_ok &= summary.len() == WORKLOADS.len();
    let line = Value::obj([
        ("correct", Value::Bool(all_ok)),
        ("attempted", Value::Num(attempted)),
        ("failed", Value::Num(failed)),
        ("workloads", Value::Obj(summary)),
    ]);
    println!("{}", line.to_json());
    Ok(all_ok)
}

/// The numbers of a run that must not depend on shard count, worker count
/// or how often it is repeated.
fn sim_fingerprint(out: &Outcome) -> Vec<u64> {
    let named = out.fin.named.iter().map(|(_, value)| value.to_bits());
    [
        out.digest,
        out.fin.sim_cost_per_op.to_bits(),
        out.fin.success_share.to_bits(),
    ]
    .into_iter()
    .chain(named)
    .collect()
}

fn quick_cfg(seed: u64, shards: Option<usize>) -> RunCfg {
    RunCfg {
        seed,
        seconds: 0.0,
        trace: false,
        quick: true,
        shards,
    }
}

/// Re-run every workload's quick shape with one protocol shard and with the
/// default count: the correctness gate must pass and the simulated numbers
/// must be identical.
fn check(seed: u64) -> Result<bool, String> {
    let mut all_ok = true;
    for name in WORKLOADS {
        let one = run_named(name, &quick_cfg(seed, Some(1))).expect("known workload");
        let many = run_named(name, &quick_cfg(seed, None)).expect("known workload");
        let same = sim_fingerprint(&one) == sim_fingerprint(&many);
        let ok = same && one.correct() && many.correct();
        all_ok &= ok;
        println!(
            "check {name:<18} {} (state_digest {:016x} at 1 shard, {:016x} at the default count; gates {})",
            if ok { "ok" } else { "FAILED" },
            one.digest,
            many.digest,
            if one.correct() && many.correct() { "pass" } else { "FAIL" },
        );
        for c in one
            .fin
            .checks
            .iter()
            .chain(&many.fin.checks)
            .filter(|c| !c.ok)
        {
            println!("  failed: {} ({})", c.name, c.detail);
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_style_and_bare_trace_flags_parse() {
        let a = parse_args(&strings(&[
            "--workload",
            "query_hinted",
            "--seed",
            "11",
            "--seconds",
            "3",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("query_hinted"));
        assert_eq!((a.seed, a.seconds, a.trace), (11, 3.0, false));
        assert!(parse_args(&strings(&["--trace", "1"])).unwrap().trace);
        let bare = parse_args(&strings(&["--trace", "--quick"])).unwrap();
        assert!(bare.trace && bare.quick);
        assert!(parse_args(&strings(&["--seed", "x"])).is_err());
        assert!(parse_args(&strings(&["--seconds", "-1"])).is_err());
        assert!(parse_args(&strings(&["--bogus"])).is_err());
    }

    #[test]
    fn default_seconds_is_the_benchmarks_run_seconds() {
        let doc = json::parse(&spec::benchmark_json()).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    /// The quick suite, twice: every gate passes, every workload reports
    /// every gated metric, the simulated numbers repeat exactly, and
    /// between them the workloads report every named metric.
    #[test]
    fn quick_suite_is_correct_and_repeats_exactly() {
        let mut named = std::collections::BTreeSet::new();
        for name in WORKLOADS {
            let first = run_named(name, &quick_cfg(DEFAULT_SEED, None)).expect("known workload");
            let second = run_named(name, &quick_cfg(DEFAULT_SEED, None)).expect("known workload");
            for c in &first.fin.checks {
                assert!(c.ok, "{name}: {} ({})", c.name, c.detail);
            }
            assert_eq!(first.fin.failed, 0, "{name}");
            assert_eq!(sim_fingerprint(&first), sim_fingerprint(&second), "{name}");
            for r in report::end_to_end(&first) {
                assert!(
                    r.value.is_finite() && r.value > 0.0,
                    "{name}: {} = {}",
                    r.metric.name,
                    r.value
                );
            }
            let line =
                json::parse(&report::contract_line(&first, &report::end_to_end(&first))).unwrap();
            let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                line.get("metrics").unwrap().as_obj().len(),
                spec::END_TO_END.len()
            );
            for r in report::named(&first) {
                assert!(r.value.is_finite() && r.value > 0.0, "{name}");
                named.insert(r.metric.name);
            }
        }
        let all: std::collections::BTreeSet<_> = spec::NAMED.iter().map(|m| m.name).collect();
        assert_eq!(named, all);
    }

    /// A traced run reports every per-layer metric, reproduces the untraced
    /// digest, and the layers a workload bypasses read zero.
    #[test]
    fn traced_quick_run_fills_layers_and_bypassed_layers_read_zero() {
        let traced = |name: &str| {
            let cfg = RunCfg {
                trace: true,
                ..quick_cfg(DEFAULT_SEED, None)
            };
            let out = run_named(name, &cfg).expect("known workload");
            assert!(out.correct(), "{name}");
            assert_eq!(report::per_layer(&out).len(), spec::PER_LAYER.len());
            assert!(!out.spans.is_empty());
            out
        };
        let untraced = run_named("query_escalate", &quick_cfg(DEFAULT_SEED, None)).unwrap();
        let escalate = traced("query_escalate");
        assert_eq!(escalate.digest, untraced.digest);
        for name in [
            "hints.deposits",
            "hints.hit_share",
            "plane.sent",
            "faults.crashes",
        ] {
            assert_eq!(escalate.fin.layers.get(name), 0.0, "{name}");
        }
        assert!(escalate.fin.layers.get("query.sweep_us_per_query") > 0.0);

        let churn = traced("substrate_churn");
        assert_eq!(churn.fin.layers.get("topology.fallback_tick_share"), 1.0);
        assert_eq!(churn.fin.layers.get("selection.sweep_ms"), 0.0);

        let hostile = traced("mobile_hostile");
        assert!(hostile.fin.layers.get("faults.crashes") > 0.0);
        assert!(hostile.fin.layers.get("topology.fallback_tick_share") < 0.1);
        assert!(hostile.fin.layers.get("events.ticks_skipped_share") > 0.0);
        let calm = traced("mobile_calm");
        assert_eq!(calm.fin.layers.get("faults.crashes"), 0.0);
        assert!(calm.fin.layers.get("hints.deposits") > 0.0);
    }
}
