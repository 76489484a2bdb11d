//! `e2e` — runs the end-to-end benchmark.
//!
//! ```text
//! e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]
//!     [--repeat K] [--smoke] [--json OUT]
//! ```
//!
//! With one `--workload` it runs that workload in this process and prints
//! its metrics, ending with one JSON result line. Otherwise it runs every
//! workload (or the named one `--repeat` times), each in a child process
//! of its own so that peak memory is per workload, alternating the
//! workload order between rounds, and prints the median, quartiles and
//! spread of every metric. The exit code is 0 only when every check
//! passed.

use crace_e2e_bench::catalog::{self, WORKLOADS};
use crace_e2e_bench::harness::{Opts, DEFAULT_SEED};
use crace_e2e_bench::{run_workload, stats};
use crace_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Default measurement time per run, matching `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Measurement time per run with `--smoke`.
const SMOKE_SECONDS: f64 = 0.2;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    trace_dir: PathBuf,
    repeat: usize,
    smoke: bool,
    json: Option<PathBuf>,
}

const USAGE: &str = "usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--trace-dir DIR] [--repeat K] [--smoke] [--json OUT]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        trace_dir: PathBuf::from(".bench_run/trace"),
        repeat: 1,
        smoke: false,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|(n, _)| *n == w) {
                    return Err(format!("unknown workload `{w}`"));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace-dir" => args.trace_dir = PathBuf::from(value()?),
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--smoke" => args.smoke = true,
            "--json" => args.json = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.repeat, &args.json) {
        (Some(name), 1, None) => run_here(name, &args),
        _ => run_children(&args),
    }
}

fn seconds(args: &Args) -> f64 {
    args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    })
}

/// Runs one workload in this process.
fn run_here(name: &str, args: &Args) -> ExitCode {
    let run_dir = PathBuf::from(format!(".bench_run/{name}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("e2e: {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    let opts = Opts {
        seed: args.seed,
        seconds: seconds(args),
        trace: args.trace,
        trace_dir: args.trace_dir.clone(),
        smoke: args.smoke,
        run_dir: run_dir.clone(),
    };
    let outcome = run_workload(name, &opts).expect("workload names are checked at parse time");
    let _ = std::fs::remove_dir_all(&run_dir);

    println!(
        "workload {name} (seed {}, {}traced)",
        opts.seed,
        if opts.trace { "" } else { "un" }
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in catalog::metrics_for(opts.trace) {
        if let Some(v) = outcome.metrics.get(m.name) {
            println!("  {:<28} {:>16.6} {}", m.name, v, m.unit);
        }
    }
    println!(
        "  error_rate {:.6} ({} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for e in &outcome.errors {
        println!("  FAILED: {e}");
    }
    match outcome.result_line(opts.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child run's result line, parsed.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

fn run_child(name: &str, args: &Args) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds(args).to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--trace-dir")
        .arg(&args.trace_dir)
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.contains("FAILED")) {
        println!("{name}: {}", line.trim());
    }
    let last = stdout.lines().last().unwrap_or_default();
    let doc = json::parse(last).map_err(|e| format!("{name}: no result line ({e})"))?;
    let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: output.status.success() && doc.get("correct") == Some(&Json::Bool(true)),
        attempted: num("attempted"),
        failed: num("failed"),
        metrics,
    })
}

/// Runs workloads in child processes, `--repeat` rounds with the order
/// reversed every other round, then prints the per-metric statistics.
fn run_children(args: &Args) -> ExitCode {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|(n, _)| *n).collect(),
    };
    let mut runs: BTreeMap<&str, Vec<ChildResult>> = BTreeMap::new();
    let mut all_ok = true;
    for round in 0..args.repeat {
        let mut order = names.clone();
        if round % 2 == 1 {
            order.reverse();
        }
        for name in order {
            match run_child(name, args) {
                Ok(r) => {
                    println!(
                        "round {round} {name}: correct={} attempted={} failed={}",
                        r.correct, r.attempted, r.failed
                    );
                    all_ok &= r.correct;
                    runs.entry(name).or_default().push(r);
                }
                Err(e) => {
                    println!("round {round} {name}: {e}");
                    all_ok = false;
                }
            }
        }
    }

    let metrics = catalog::metrics_for(args.trace);
    let mut doc = String::from("{\"bench\": \"e2e\", \"meta\": {");
    let _ = write!(
        doc,
        "\"host_cpus\": {}, \"seed\": {}, \"seconds\": {}, \"repeats\": {}, \"traced\": {}, \
         \"git_rev\": \"{}\"}}, \"workloads\": {{",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        args.seed,
        seconds(args),
        args.repeat,
        args.trace,
        json::escape(&git_rev())
    );
    println!();
    println!(
        "{:<15} {:<28} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for (wi, name) in names.iter().enumerate() {
        let results = runs.get(name).map(Vec::as_slice).unwrap_or_default();
        let attempted: f64 = results.iter().map(|r| r.attempted).sum();
        let failed: f64 = results.iter().map(|r| r.failed).sum();
        let error_rate = failed / attempted.max(1.0);
        let _ = write!(
            doc,
            "{}\"{name}\": {{\"runs\": {}, \"error_rate\": {error_rate}, \"metrics\": {{",
            if wi > 0 { ", " } else { "" },
            results.len()
        );
        for (mi, m) in metrics.iter().enumerate() {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| r.metrics.get(m.name).copied())
                .collect();
            let mid = stats::median(&values);
            let (q1, q3) = stats::quartiles(&values).unwrap_or((mid, mid));
            let spread = stats::spread(&values);
            let flag = match (spread, m.bound) {
                (Some(s), Some(b)) if s > b => "  SPREAD ABOVE BOUND",
                _ => "",
            };
            println!(
                "{:<15} {:<28} {:>14.6} {:>14.6} {:>14.6} {:>8} {:>6}{flag}",
                name,
                m.name,
                mid,
                q1,
                q3,
                spread.map_or("-".to_string(), |s| format!("{s:.4}")),
                m.bound.map_or("-".to_string(), |b| b.to_string()),
            );
            let list: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            let _ = write!(
                doc,
                "{}\"{}\": {{\"unit\": \"{}\", \"median\": {mid}, \"q1\": {q1}, \"q3\": {q3}, \
                 \"spread\": {}, \"values\": [{}]}}",
                if mi > 0 { ", " } else { "" },
                m.name,
                m.unit,
                spread.map_or("null".to_string(), |s| s.to_string()),
                list.join(", ")
            );
        }
        doc.push_str("}}");
        println!("{name:<15} error_rate {error_rate}");
    }
    doc.push_str("}}\n");
    if let Some(path) = &args.json {
        debug_assert!(json::validate(&doc).is_ok());
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("e2e: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The checked-out revision, when `git` can tell.
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}
