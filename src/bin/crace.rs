//! The `crace` command-line tool.
//!
//! ```text
//! crace check   <spec-file>                 # parse a specification, show basic facts
//! crace lint    <spec-file> [--json] [--max-actions N]  # full static analysis (L000–L011)
//! crace synth   <type|all> [--universe N] [--max-actions N] [--json]
//!               [--out spec.ecl]            # synthesize weakest commutativity specs
//! crace compile <spec-file> [--dot]         # show its access points (or DOT graph)
//! crace replay  <trace-file> --spec <file> [--detector rd2|direct|fasttrack]
//!               [--workers N] [--json] [--metrics[=json|prom]] [--explain]
//!               [--sample-rate N] [--trace-out <file>] [--folded <file>]
//!               [--tolerate-truncation]
//! crace stats   <trace-file> --spec <file> [--detector …] [--format pretty|json|prom]
//! crace explore <program-file> [--no-dpor] [--max-schedules N] [--preemption-bound N]
//!               [--shrink] [--out <stem>] [--metrics[=json|prom]] [--trace-out <file>]
//! crace chaos   <program-file> [--seed N] [--trials N] [--faults N]
//!               [--workers N] [--metrics[=json|prom]] [--trace-out <file>]
//! crace frame   <trace-file> --spec <file>  # convert to the framed format
//! crace serve   (--socket <path> | --tcp <addr>) [--workers N] [--ring N]
//!               [--grace-ms N] [--max-conns N] [--record-dir D] [--trace-dir D]
//!               [--allow-faults] [--addr-file F]   # streaming detection daemon
//! crace submit  <trace-file> --spec <name> (--socket <path> | --tcp <addr>)
//!               [--session NAME] [--workers N] [--chunk BYTES] [--json]
//!               [--tolerate-truncation]   # stream a trace to a daemon
//! crace table2  [scale] [--metrics[=json|prom]]  # regenerate Table 2
//! crace builtins                            # list builtin specifications
//! ```
//!
//! Spec files may also name a builtin (`dictionary`, `dictionary_ext`,
//! `set`, `counter`, `register`, `queue`) instead of a path.
//!
//! Exit codes: 0 success, 1 error, 2 usage, 3 races found (replay,
//! explore or chaos), 4 explore found a detector invariant
//! violation, 5 chaos found a degradation-contract violation, 6 the
//! trace file is torn (truncated mid-record; `--tolerate-truncation`
//! recovers the valid prefix instead), 7 submit could not reach the
//! daemon (connection refused/reset, or lost after exhausting
//! `--retry`). `lint` has its own contract: 0 clean, 2 warnings only,
//! 3 any error.

use crace_cli::{parse_program, parse_trace, render_program, render_trace};
use crace_core::{
    translate, Direct, FrontEnd, ParallelConfig, ParallelRd2, TraceDetector, TranslateError,
};
use crace_fasttrack::FastTrack;
use crace_model::{replay, Analysis, Event, ObjId, Observer, RaceReport, Trace};
use crace_obs::{Registry, Snapshot, Tracer};
use crace_spec::{builtin, Spec};
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("synth") => cmd_synth(&args[1..]),
        Some("compile") => cmd_compile(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("explore") => cmd_explore(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("frame") => cmd_frame(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("table2") => cmd_table2(&args[1..]),
        Some("builtins") => cmd_builtins(),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
        Err(CliError::Failed(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Why a subcommand stopped: a usage error (an unknown option, a flag
/// without its value, a missing argument; exit 2) or a failure to do
/// what was asked (exit 1).
enum CliError {
    Usage(String),
    Failed(String),
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::Failed(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> CliError {
        CliError::Failed(message.to_string())
    }
}

type CmdResult<T = ExitCode> = Result<T, CliError>;

fn usage(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

/// A usage error for the first of `args` not in `allowed`.
fn reject_options(args: &[String], allowed: &[&str]) -> CmdResult<()> {
    match args.iter().find(|a| !allowed.contains(&a.as_str())) {
        Some(other) => Err(usage(format!("unknown option `{other}`"))),
        None => Ok(()),
    }
}

/// `value`, or a usage error saying what is missing.
fn need<T>(value: Option<T>, missing: &str) -> CmdResult<T> {
    value.ok_or_else(|| usage(missing))
}

const USAGE: &str = "\
usage:
  crace check   <spec-file|builtin>
  crace lint    <spec-file|builtin> [--json] [--max-actions N]
  crace synth   <type|all> [--universe N] [--max-actions N] [--json]
                [--out <file>]
  crace compile <spec-file|builtin> [--dot]
  crace replay  <trace-file> --spec <spec-file|builtin>
                [--detector rd2|direct|fasttrack] [--workers N] [--json]
                [--metrics[=json|prom]] [--explain] [--sample-rate N]
                [--trace-out <file>] [--folded <file>] [--tolerate-truncation]
  crace stats   <trace-file> --spec <spec-file|builtin>
                [--detector rd2|direct|fasttrack] [--format pretty|json|prom]
  crace explore <program-file> [--no-dpor] [--max-schedules N]
                [--preemption-bound N] [--shrink] [--out <stem>]
                [--metrics[=json|prom]] [--trace-out <file>]
  crace chaos   <program-file> [--seed N] [--trials N] [--faults N]
                [--workers N] [--metrics[=json|prom]] [--trace-out <file>]
  crace frame   <trace-file> --spec <spec-file|builtin>
  crace serve   (--socket <path> | --tcp <addr>) [--workers N] [--ring N]
                [--grace-ms N] [--max-conns N] [--record-dir <dir>]
                [--trace-dir <dir>] [--checkpoint-every N]
                [--checkpoint-age-ms N] [--allow-faults] [--addr-file <file>]
  crace submit  <trace-file> --spec <spec-file|builtin>
                (--socket <path> | --tcp <addr>) [--session NAME]
                [--workers N] [--chunk BYTES] [--retry N] [--backoff-ms N]
                [--json] [--tolerate-truncation]
  crace table2  [scale] [--metrics[=json|prom]]
  crace builtins

exit codes: 0 ok, 1 error, 2 usage, 3 races found, 4 invariant violation,
            5 chaos degradation-contract violation, 6 torn trace file,
            7 submit could not reach the daemon (connection refused, reset,
            or lost after exhausting --retry)
            (lint: 0 clean, 2 warnings only, 3 any error)
";

/// Window of trailing events kept per object for `--explain`.
const EXPLAIN_WINDOW: usize = 8;

/// Reads a spec source text: a builtin's embedded source, or a file.
fn load_source(name: &str) -> Result<String, String> {
    match builtin::source(name) {
        Some(src) => Ok(src.to_string()),
        None => std::fs::read_to_string(name).map_err(|e| format!("cannot read `{name}`: {e}")),
    }
}

/// Loads a spec together with its source text, so later errors (e.g. a
/// failed translation) can point back into the offending rule.
fn load_spec(name: &str) -> Result<(Spec, String), String> {
    let source = load_source(name)?;
    let spec = crace_spec::parse(&source).map_err(|e| e.render(&source))?;
    Ok((spec, source))
}

/// Renders a [`TranslateError`] as a compiler-style report with the span of
/// the offending rule, falling back to the bare message when the spec has
/// no recorded span for it.
fn render_translate_error(e: &TranslateError, spec: &Spec, source: &str) -> String {
    let span = match e {
        TranslateError::NotEcl { m1, m2, .. } => spec
            .method_id(m1)
            .zip(spec.method_id(m2))
            .and_then(|(a, b)| spec.rule_span(a, b)),
        TranslateError::TooManyAtoms { method, .. } => spec.method_id(method).and_then(|m| {
            (0..spec.num_methods())
                .filter_map(|o| spec.rule_span(m, crace_model::MethodId(o as u32)))
                .min_by_key(|s| s.start)
        }),
    };
    match span {
        Some(span) => {
            let (line, col) = crace_spec::line_col(source, span);
            format!(
                "{e} (line {line}, column {col})\n{}",
                crace_spec::render_snippet(source, span)
            )
        }
        None => e.to_string(),
    }
}

fn cmd_builtins() -> CmdResult {
    for spec in builtin::all() {
        println!(
            "{:<16} {} method(s), ECL: {}",
            spec.name(),
            spec.num_methods(),
            spec.is_ecl()
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Exit 2 means warnings here, so `lint`'s usage errors stay exit 1.
fn cmd_lint(args: &[String]) -> CmdResult {
    let name = args.first().ok_or("expected a spec file")?;
    let mut json = false;
    let mut options = crace_speclint::LintOptions::default();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--max-actions" => {
                let n = it.next().ok_or("--max-actions needs a budget")?;
                options.max_actions = n.parse().map_err(|_| format!("bad budget `{n}`"))?;
            }
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }
    let source = load_source(name)?;
    let report = match crace_speclint::lint_with(&source, &options) {
        Ok(report) => report,
        Err(e) => {
            // Unrecoverable (syntax / method table): render and use the
            // lint error exit code.
            eprint!("{}", e.render(&source));
            return Ok(ExitCode::from(3));
        }
    };
    if json {
        println!("{}", report.to_json(&source));
    } else {
        print!("{}", report.render_pretty(&source));
    }
    Ok(ExitCode::from(report.exit_code() as u8))
}

/// Renders the synthesis reports as one JSON object (validated against
/// the crate's own RFC 8259 checker in the test suite).
fn synth_json(syntheses: &[crace_specsynth::Synthesis]) -> String {
    use crace_obs::json::escape;
    use std::fmt::Write;
    let mut out = String::from("{\"types\":[");
    for (i, s) in syntheses.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"lint_exit\":{},\"pairs\":[",
            escape(&s.name),
            s.lint_exit
        );
        for (j, p) in s.pairs.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let equivalent = match p.handwritten.equivalent {
                Some(b) => b.to_string(),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "{{\"method1\":\"{}\",\"method2\":\"{}\",\"condition\":\"{}\",\
                 \"samples\":{},\"commuting\":{},\"uncovered\":{},\
                 \"handwritten\":{{\"condition\":\"{}\",\"equivalent\":{equivalent},\
                 \"admitted\":{}}}}}",
                escape(&p.method1),
                escape(&p.method2),
                escape(&p.condition),
                p.samples,
                p.commuting,
                p.uncovered,
                escape(&p.handwritten.formula.to_string()),
                p.handwritten.admitted
            );
        }
        let _ = write!(out, "],\"source\":\"{}\"}}", escape(&s.source));
    }
    out.push_str("]}");
    out
}

/// One human-readable line per pair: the synthesized condition and how it
/// relates to the handwritten builtin.
fn synth_summary(s: &crace_specsynth::Synthesis, out: &mut String) {
    use std::fmt::Write;
    let _ = writeln!(
        out,
        "synthesized `{}`: {} pair(s), lint exit {}",
        s.name,
        s.pairs.len(),
        s.lint_exit
    );
    for p in &s.pairs {
        let verdict = if p.handwritten.equivalent == Some(true) {
            "matches handwritten".to_string()
        } else if p.handwritten.admitted < p.commuting {
            format!(
                "handwritten is stronger: rejects {} always-commuting pair(s)",
                p.commuting - p.handwritten.admitted
            )
        } else {
            "equal on all realized pairs".to_string()
        };
        let _ = writeln!(
            out,
            "  ({}, {}): {}\n      [{verdict}]",
            p.method1, p.method2, p.condition
        );
    }
}

fn cmd_synth(args: &[String]) -> CmdResult {
    let target = need(
        args.first(),
        "expected a data type (`dictionary`, `set`, …) or `all`",
    )?
    .clone();
    let mut json = false;
    let mut out_path: Option<String> = None;
    let mut config = crace_specsynth::SynthConfig::default();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--out" => out_path = Some(need(it.next(), "--out needs a file")?.clone()),
            "--universe" => {
                let n = need(it.next(), "--universe needs an integer bound")?;
                config.max_int = n.parse().map_err(|_| format!("bad bound `{n}`"))?;
                if config.max_int < 1 {
                    return Err("--universe must be at least 1".into());
                }
            }
            "--max-actions" => {
                let n = need(it.next(), "--max-actions needs a budget")?;
                config.max_actions = n.parse().map_err(|_| format!("bad budget `{n}`"))?;
            }
            other => return Err(usage(format!("unknown option `{other}`"))),
        }
    }
    let syntheses = if target == "all" {
        crace_specsynth::synthesize_all(&config)
    } else {
        crace_specsynth::synthesize(&target, &config).map(|s| vec![s])
    }
    .map_err(|e| e.to_string())?;

    let mut sources = String::new();
    for (i, s) in syntheses.iter().enumerate() {
        if i > 0 {
            sources.push('\n');
        }
        sources.push_str(&s.source);
    }
    if json {
        println!("{}", synth_json(&syntheses));
    }
    if let Some(path) = &out_path {
        std::fs::write(path, &sources).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        if !json {
            let mut summary = String::new();
            for s in &syntheses {
                synth_summary(s, &mut summary);
            }
            print!("{summary}");
            println!("wrote {} spec(s) to `{path}`", syntheses.len());
        }
    } else if !json {
        // Sources go to stdout (`crace synth dictionary > dict.ecl` is a
        // valid spec file); the summary goes to stderr.
        let mut summary = String::new();
        for s in &syntheses {
            synth_summary(s, &mut summary);
        }
        eprint!("{summary}");
        print!("{sources}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_check(args: &[String]) -> CmdResult {
    let name = need(args.first(), "expected a spec file")?;
    reject_options(&args[1..], &[])?;
    let (spec, _) = load_spec(name)?;
    println!("spec `{}`: {} method(s)", spec.name(), spec.num_methods());
    println!("  ECL fragment: {}", spec.is_ecl());
    let missing = spec.missing_rules();
    if missing.is_empty() {
        println!("  all method pairs have commute rules");
    } else {
        println!(
            "  {} pair(s) default to `false` (never commute):",
            missing.len()
        );
        for (a, b) in missing {
            println!("    ({}, {})", spec.sig(a).name(), spec.sig(b).name());
        }
    }
    match translate(&spec) {
        Ok(compiled) => {
            let stats = compiled.stats();
            println!(
                "  translation: {} classes (from {} symbolic), max conflict degree {}",
                stats.classes, stats.raw_classes, stats.max_conflict_degree
            );
        }
        Err(e) => println!("  translation: not translatable — {e}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compile(args: &[String]) -> CmdResult {
    let name = need(args.first(), "expected a spec file")?;
    reject_options(&args[1..], &["--dot"])?;
    let dot = args.iter().any(|a| a == "--dot");
    let (spec, source) = load_spec(name)?;
    let compiled = translate(&spec).map_err(|e| render_translate_error(&e, &spec, &source))?;
    if dot {
        println!("graph conflicts {{");
        println!("  label=\"access-point conflicts of `{}`\";", spec.name());
        for i in 0..compiled.num_classes() {
            let class = crace_core::ClassId(i as u32);
            let shape = match compiled.kind(class) {
                crace_core::PointKind::Ds => "box",
                crace_core::PointKind::Slot => "ellipse",
            };
            println!(
                "  c{i} [label=\"{}\", shape={shape}];",
                compiled.label(class)
            );
        }
        for i in 0..compiled.num_classes() {
            let class = crace_core::ClassId(i as u32);
            for &other in compiled.conflicting(class) {
                if other.index() >= i {
                    println!("  c{i} -- c{};", other.index());
                }
            }
        }
        println!("}}");
    } else {
        print!("{compiled}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Options shared by `replay` and `stats`.
struct ReplayOpts {
    trace_path: String,
    spec_name: String,
    detector: String,
}

fn parse_replay_opts<'a>(
    args: &'a [String],
    mut extra: impl FnMut(&str, &mut std::slice::Iter<'a, String>) -> CmdResult<bool>,
) -> CmdResult<ReplayOpts> {
    let trace_path = need(args.first(), "expected a trace file")?.clone();
    let mut spec_name = None;
    let mut detector = "rd2".to_string();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => {
                spec_name = Some(need(it.next(), "--spec needs a spec file or builtin")?.clone())
            }
            "--detector" => detector = need(it.next(), "--detector needs a name")?.clone(),
            other => {
                if !extra(other, &mut it)? {
                    return Err(usage(format!("unknown option `{other}`")));
                }
            }
        }
    }
    Ok(ReplayOpts {
        trace_path,
        spec_name: need(spec_name, "missing --spec")?,
        detector,
    })
}

/// The replayed detector behind one observer, plus the detector-specific
/// statistics the snapshot should carry.
struct Replayed {
    report: RaceReport,
    snapshot: Snapshot,
}

/// Replays `trace` through the named detector wrapped in an [`Observer`],
/// returning the race report and the full metrics snapshot. `workers > 0`
/// selects the sharded parallel pipeline (rd2 only). `sample_rate` is the
/// one 1-in-N sampling period (`0` disables): it drives the observer's
/// latency timing and, when `tracer` is set, the serial detector's
/// `rd2.on_action` spans. With a `tracer`, the rd2 paths record span
/// timelines into it (and fold the derived timeline metrics into the
/// snapshot); `direct` and `fasttrack` are not instrumented and leave
/// the tracer empty.
#[allow(clippy::too_many_arguments)]
fn run_observed(
    trace: &Trace,
    spec: &Spec,
    source: &str,
    detector: &str,
    workers: usize,
    explain: bool,
    sample_rate: u64,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Replayed, String> {
    if workers > 0 && detector != "rd2" {
        return Err(format!(
            "--workers is only supported by the rd2 detector, not `{detector}`"
        ));
    }
    Ok(match detector {
        "rd2" => {
            let provenance_window = explain.then_some(EXPLAIN_WINDOW);
            let d: Box<dyn FrontEnd> = if workers > 0 {
                let cfg = ParallelConfig {
                    provenance_window,
                    tracer: tracer.cloned(),
                    ..ParallelConfig::default()
                };
                Box::new(ParallelRd2::with_config(workers, cfg))
            } else {
                let d = provenance_window
                    .map_or_else(TraceDetector::new, TraceDetector::with_provenance);
                Box::new(match tracer {
                    Some(t) => d.traced(t, sample_rate),
                    None => d,
                })
            };
            let compiled =
                Arc::new(translate(spec).map_err(|e| render_translate_error(&e, spec, source))?);
            for obj in objects_of(trace) {
                d.register(obj, Arc::clone(&compiled));
            }
            let obs = Observer::with_sampling(d, Arc::new(Registry::new()), sample_rate);
            let report = replay(trace, &obs);
            obs.inner().feed(obs.registry(), obs.name());
            if let Some(t) = tracer {
                t.feed_timeline(obs.registry());
            }
            Replayed {
                report,
                snapshot: obs.snapshot(),
            }
        }
        "direct" => {
            let d = Direct::new();
            let spec = Arc::new(spec.clone());
            for obj in objects_of(trace) {
                d.register(obj, Arc::clone(&spec));
            }
            let obs = Observer::with_sampling(d, Arc::new(Registry::new()), sample_rate);
            let report = replay(trace, &obs);
            Replayed {
                report,
                snapshot: obs.snapshot(),
            }
        }
        "fasttrack" => {
            let d = if explain {
                FastTrack::with_provenance()
            } else {
                FastTrack::new()
            };
            let obs = Observer::with_sampling(d, Arc::new(Registry::new()), sample_rate);
            let report = replay(trace, &obs);
            Replayed {
                report,
                snapshot: obs.snapshot(),
            }
        }
        other => return Err(format!("unknown detector `{other}`")),
    })
}

/// A loaded trace, plus the recovery note when `tolerate` salvaged a
/// torn file.
struct LoadedTrace {
    spec: Spec,
    spec_source: String,
    trace: Trace,
    recovery: Option<crace_cli::TornTrace>,
}

/// Why a trace failed to load: ordinary errors exit 1, a torn framed
/// file (without `--tolerate-truncation`) exits 6 with a spanned
/// diagnostic.
enum LoadFailure {
    Message(String),
    Torn(String),
}

impl From<String> for LoadFailure {
    fn from(message: String) -> LoadFailure {
        LoadFailure::Message(message)
    }
}

/// Renders a compiler-style diagnostic pointing at the line where the
/// trace file tears.
fn render_torn(path: &str, source: &str, e: &crace_cli::TraceParseError) -> String {
    let line = source.lines().nth(e.line - 1).unwrap_or("");
    let shown: String = line.chars().take(60).collect();
    let ellipsis = if shown.len() < line.len() { "…" } else { "" };
    format!(
        "{path}:{}: trace file is torn: {}\n  {} | {shown}{ellipsis}\n  \
         hint: re-run with --tolerate-truncation to replay the valid prefix",
        e.line, e.message, e.line
    )
}

fn load_trace(opts: &ReplayOpts, tolerate: bool) -> Result<LoadedTrace, LoadFailure> {
    let (spec, spec_source) = load_spec(&opts.spec_name)?;
    let trace_source = std::fs::read_to_string(&opts.trace_path)
        .map_err(|e| format!("cannot read `{}`: {e}", opts.trace_path))?;
    let (trace, recovery) = match parse_trace(&trace_source, &spec) {
        Ok(trace) => (trace, None),
        Err(e) if e.kind == crace_cli::TraceErrorKind::Torn && tolerate => {
            crace_cli::parse_framed_tolerant(&trace_source, &spec)
        }
        Err(e) if e.kind == crace_cli::TraceErrorKind::Torn => {
            return Err(LoadFailure::Torn(render_torn(
                &opts.trace_path,
                &trace_source,
                &e,
            )));
        }
        Err(e) => return Err(LoadFailure::Message(e.to_string())),
    };
    Ok(LoadedTrace {
        spec,
        spec_source,
        trace,
        recovery,
    })
}

/// Maps a [`LoadFailure`] to the command result: torn files print their
/// diagnostic and exit 6, everything else becomes an ordinary error.
fn torn_exit(failure: LoadFailure) -> CmdResult {
    match failure {
        LoadFailure::Message(message) => Err(message.into()),
        LoadFailure::Torn(diagnostic) => {
            eprintln!("error: {diagnostic}");
            Ok(ExitCode::from(6))
        }
    }
}

fn cmd_replay(args: &[String]) -> CmdResult {
    let mut json = false;
    let mut metrics: Option<String> = None;
    let mut explain = false;
    let mut tolerate = false;
    let mut workers = 0usize;
    let mut sample_rate = crace_model::DEFAULT_SAMPLE_EVERY;
    let mut trace_out: Option<String> = None;
    let mut folded: Option<String> = None;
    let opts = parse_replay_opts(args, |arg, it| {
        if let Some(format) = metrics_flag(arg)? {
            metrics = Some(format);
            return Ok(true);
        }
        match arg {
            "--json" => json = true,
            "--explain" => explain = true,
            "--tolerate-truncation" => tolerate = true,
            "--workers" => {
                let n = need(it.next(), "--workers needs a count")?;
                workers = n.parse().map_err(|_| format!("bad worker count `{n}`"))?;
            }
            "--sample-rate" => {
                let n = need(it.next(), "--sample-rate needs a period (0 disables)")?;
                sample_rate = n.parse().map_err(|_| format!("bad sample rate `{n}`"))?;
            }
            "--trace-out" => trace_out = Some(need(it.next(), "--trace-out needs a file")?.clone()),
            "--folded" => folded = Some(need(it.next(), "--folded needs a file")?.clone()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let loaded = match load_trace(&opts, tolerate) {
        Ok(loaded) => loaded,
        Err(failure) => return torn_exit(failure),
    };
    let (spec, spec_source, trace) = (loaded.spec, loaded.spec_source, loaded.trace);
    if let Some(recovery) = &loaded.recovery {
        eprintln!("warning: `{}` is torn: {recovery}", opts.trace_path);
    }
    if !json {
        let pool = if workers > 0 {
            format!(" ({workers} worker(s))")
        } else {
            String::new()
        };
        println!(
            "replaying {} event(s), {} thread(s), detector `{}`{pool} …",
            trace.len(),
            trace.num_threads(),
            opts.detector
        );
    }
    let tracer = (trace_out.is_some() || folded.is_some()).then(|| Arc::new(Tracer::new()));
    let run = run_observed(
        &trace,
        &spec,
        &spec_source,
        &opts.detector,
        workers,
        explain,
        sample_rate,
        tracer.as_ref(),
    )?;
    if let (Some(path), Some(tracer)) = (&trace_out, &tracer) {
        write_span_trace(path, tracer)?;
    }
    if let (Some(path), Some(tracer)) = (&folded, &tracer) {
        std::fs::write(path, tracer.to_folded())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("trace: wrote collapsed stacks to `{path}`");
    }

    if json {
        print!("{}", run.report.to_json());
    } else {
        println!("races: {}", run.report);
        for race in run.report.samples() {
            println!("  - {race}");
            if explain {
                if let Some(p) = &race.provenance {
                    print!("{p}");
                }
            }
        }
    }
    if let Some(format) = metrics {
        print_snapshot(&run.snapshot, &format);
    }
    Ok(if run.report.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    })
}

fn cmd_stats(args: &[String]) -> CmdResult {
    let mut format = "pretty".to_string();
    let opts = parse_replay_opts(args, |arg, it| {
        if arg == "--format" {
            format = need(it.next(), "--format needs pretty, json or prom")?.clone();
            Ok(true)
        } else {
            Ok(false)
        }
    })?;
    if !matches!(format.as_str(), "json" | "prom" | "pretty") {
        return Err(format!("unknown format `{format}`").into());
    }
    let loaded = match load_trace(&opts, false) {
        Ok(loaded) => loaded,
        Err(failure) => return torn_exit(failure),
    };
    let (spec, spec_source, trace) = (loaded.spec, loaded.spec_source, loaded.trace);
    let run = run_observed(
        &trace,
        &spec,
        &spec_source,
        &opts.detector,
        0,
        false,
        crace_model::DEFAULT_SAMPLE_EVERY,
        None,
    )?;
    print_snapshot(&run.snapshot, &format);
    Ok(ExitCode::SUCCESS)
}

fn objects_of(trace: &Trace) -> BTreeSet<ObjId> {
    trace
        .iter()
        .filter_map(|e| match e {
            Event::Action { action, .. } => Some(action.obj()),
            _ => None,
        })
        .collect()
}

/// Writes a tracer's Chrome trace-event JSON to `path` (self-checked
/// against the RFC 8259 validator first) and prints a one-line summary
/// on stderr. Open the file in `chrome://tracing` or Perfetto.
fn write_span_trace(path: &str, tracer: &Tracer) -> Result<(), String> {
    let chrome = tracer.to_chrome_json();
    crace_obs::json::validate(&chrome)
        .map_err(|e| format!("internal: chrome trace export is not valid JSON: {e}"))?;
    std::fs::write(path, &chrome).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    eprintln!(
        "trace: wrote {} span event(s) across {} lane(s) ({} dropped) to `{path}`",
        tracer.recorded(),
        tracer.lanes().len(),
        tracer.dropped()
    );
    Ok(())
}

fn cmd_explore(args: &[String]) -> CmdResult {
    use crace_runtime::explore::{explore_traced, shrink, ExploreConfig};

    let program_path = need(args.first(), "expected a program file")?.clone();
    let mut cfg = ExploreConfig::default();
    let mut do_shrink = false;
    let mut out_stem: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--no-dpor" => cfg.dpor = false,
            "--trace-out" => trace_out = Some(need(it.next(), "--trace-out needs a file")?.clone()),
            "--max-schedules" => {
                let n = need(it.next(), "--max-schedules needs a count")?;
                cfg.max_schedules = n.parse().map_err(|_| format!("bad count `{n}`"))?;
            }
            "--preemption-bound" => {
                let n = need(it.next(), "--preemption-bound needs a count")?;
                cfg.max_preemptions = Some(n.parse().map_err(|_| format!("bad count `{n}`"))?);
            }
            "--shrink" => do_shrink = true,
            "--out" => out_stem = Some(need(it.next(), "--out needs a file stem")?.clone()),
            other => match metrics_flag(other)? {
                Some(format) => metrics = Some(format),
                None => return Err(usage(format!("unknown option `{other}`"))),
            },
        }
    }

    let source = std::fs::read_to_string(&program_path)
        .map_err(|e| format!("cannot read `{program_path}`: {e}"))?;
    let program = parse_program(&source).map_err(|e| e.to_string())?;
    println!(
        "exploring {} thread(s), {} op(s), dpor {} …",
        program.threads.len(),
        program.num_ops(),
        if cfg.dpor { "on" } else { "off" }
    );

    let tracer = trace_out.as_ref().map(|_| Tracer::new());
    let report = explore_traced(&program, &cfg, tracer.as_ref());
    if let (Some(path), Some(tracer)) = (&trace_out, &tracer) {
        write_span_trace(path, tracer)?;
    }
    let mut stats = report.stats;
    println!(
        "schedules: {} explored, {} pruned, {} bounded{}",
        stats.schedules_explored,
        stats.schedules_pruned,
        stats.schedules_bounded,
        if stats.truncated { " (truncated)" } else { "" }
    );
    println!(
        "final states: {} distinct; deadlocks: {}; racy schedules: {}",
        stats.distinct_final_states, stats.deadlocks, stats.racy_schedules
    );

    if let Some((violation, witness)) = &report.violation {
        println!("INVARIANT VIOLATION: {violation}");
        println!("  schedule: {:?}", witness.schedule);
    } else if let Some(witness) = &report.race {
        println!(
            "race: {} race(s) on schedule {:?}",
            witness.races, witness.schedule
        );
        if do_shrink {
            let stem = out_stem.unwrap_or_else(|| {
                program_path
                    .strip_suffix(".sim")
                    .unwrap_or(&program_path)
                    .to_string()
            });
            let shrunk = shrink(&program, &cfg).ok_or("shrink lost the race (bound too tight?)")?;
            stats.shrink_iterations = shrunk.iterations;
            let spec = builtin::dictionary();
            let trace_path = format!("{stem}.min.trace");
            let sim_path = format!("{stem}.min.sim");
            std::fs::write(&trace_path, render_trace(&shrunk.witness.trace, &spec))
                .map_err(|e| format!("cannot write `{trace_path}`: {e}"))?;
            std::fs::write(&sim_path, render_program(&shrunk.program))
                .map_err(|e| format!("cannot write `{sim_path}`: {e}"))?;
            println!(
                "shrunk to {} op(s) on {} thread(s) in {} iteration(s)",
                shrunk.program.num_ops(),
                shrunk.program.threads.len(),
                shrunk.iterations
            );
            println!("  wrote {trace_path} and {sim_path}");
        }
    } else {
        println!("no races found");
    }

    if let Some(format) = metrics {
        let registry = Registry::new();
        stats.feed(&registry);
        print_snapshot(&registry.snapshot(), &format);
    }

    Ok(if report.violation.is_some() {
        ExitCode::from(4)
    } else if report.race.is_some() {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    })
}

/// Converts a trace (plain or already framed) to the framed,
/// checksummed format on stdout — the capture format `crace replay
/// --tolerate-truncation` can recover after a crash.
fn cmd_frame(args: &[String]) -> CmdResult {
    let opts = parse_replay_opts(args, |_, _| Ok(false))?;
    let loaded = match load_trace(&opts, false) {
        Ok(loaded) => loaded,
        Err(failure) => return torn_exit(failure),
    };
    print!("{}", crace_cli::render_framed(&loaded.trace, &loaded.spec));
    Ok(ExitCode::SUCCESS)
}

/// Parses the one endpoint flag shared by `serve` and `submit`. Returns
/// `Ok(None)` when `arg` is neither flag.
fn parse_endpoint_flag<'a>(
    arg: &str,
    it: &mut std::slice::Iter<'a, String>,
) -> CmdResult<Option<crace_daemon::Endpoint>> {
    match arg {
        "--socket" => {
            let path = need(it.next(), "--socket needs a path")?;
            Ok(Some(crace_daemon::Endpoint::Unix(path.into())))
        }
        "--tcp" => {
            let addr = need(it.next(), "--tcp needs an address")?;
            Ok(Some(crace_daemon::Endpoint::Tcp(addr.clone())))
        }
        _ => Ok(None),
    }
}

fn cmd_serve(args: &[String]) -> CmdResult {
    let mut endpoint: Option<crace_daemon::Endpoint> = None;
    let mut cfg = crace_daemon::ServerConfig {
        // A network-facing daemon takes no fault plans unless the
        // operator opts into the chaos test plane.
        allow_faults: false,
        ..crace_daemon::ServerConfig::default()
    };
    let mut addr_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(e) = parse_endpoint_flag(arg, &mut it)? {
            endpoint = Some(e);
            continue;
        }
        match arg.as_str() {
            "--workers" => {
                let n = need(it.next(), "--workers needs a count")?;
                cfg.default_workers = n.parse().map_err(|_| format!("bad worker count `{n}`"))?;
            }
            "--ring" => {
                let n = need(it.next(), "--ring needs a capacity")?;
                cfg.ring_capacity = n.parse().map_err(|_| format!("bad ring capacity `{n}`"))?;
            }
            "--grace-ms" => {
                let n = need(it.next(), "--grace-ms needs a duration")?;
                let ms: u64 = n.parse().map_err(|_| format!("bad grace `{n}`"))?;
                cfg.shed_grace = std::time::Duration::from_millis(ms);
            }
            "--max-conns" => {
                let n = need(it.next(), "--max-conns needs a count")?;
                cfg.max_connections = n.parse().map_err(|_| format!("bad bound `{n}`"))?;
            }
            "--record-dir" => {
                cfg.record_dir = Some(need(it.next(), "--record-dir needs a directory")?.into());
            }
            "--trace-dir" => {
                cfg.trace_dir = Some(need(it.next(), "--trace-dir needs a directory")?.into());
            }
            "--checkpoint-every" => {
                let n = need(it.next(), "--checkpoint-every needs a record count")?;
                cfg.checkpoint_every = n.parse().map_err(|_| format!("bad record count `{n}`"))?;
            }
            "--checkpoint-age-ms" => {
                let n = need(it.next(), "--checkpoint-age-ms needs a duration")?;
                let ms: u64 = n.parse().map_err(|_| format!("bad duration `{n}`"))?;
                cfg.checkpoint_max_age = std::time::Duration::from_millis(ms);
            }
            "--allow-faults" => cfg.allow_faults = true,
            "--addr-file" => addr_file = Some(need(it.next(), "--addr-file needs a file")?.clone()),
            other => return Err(usage(format!("unknown option `{other}`"))),
        }
    }
    let endpoint = need(endpoint, "serve needs --socket <path> or --tcp <addr>")?;
    let server =
        crace_daemon::Server::start(&endpoint, cfg).map_err(|e| format!("cannot bind: {e}"))?;
    // The resolved endpoint (TCP port 0 becomes the real port) goes to
    // stdout and, for scripts, the --addr-file.
    println!("craced listening on {}", server.endpoint());
    if let Some(path) = addr_file {
        let bare = match server.endpoint() {
            crace_daemon::Endpoint::Unix(p) => p.display().to_string(),
            crace_daemon::Endpoint::Tcp(a) => a.clone(),
        };
        std::fs::write(&path, format!("{bare}\n")).map_err(|e| format!("--addr-file: {e}"))?;
    }
    // Serve until killed; the accept loop runs on its own thread.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// True for the IO failures that mean "the daemon is not there (yet)" —
/// the class `submit --retry` waits out, and exit code 7 reports.
fn is_conn_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::NotFound // unix socket path gone while the daemon is down
            | std::io::ErrorKind::UnexpectedEof
    )
}

/// True when a client-layer error string wraps a socket failure (the
/// daemon died mid-exchange) rather than a server `ERR` rejection.
fn is_wire_failure(message: &str) -> bool {
    [
        "write failed",
        "read failed",
        "short report",
        "expected `REPORT",
    ]
    .iter()
    .any(|p| message.starts_with(p))
}

/// Backoff jitter without a PRNG dependency: a hash of pid + wall-clock
/// nanoseconds, bounded to a quarter of the current delay.
fn backoff_jitter(delay: u64) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::process::id().hash(&mut h);
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos())
        .hash(&mut h);
    h.finish() % (delay / 4).max(1)
}

/// Connects to the daemon, spending retries from `attempts_left` on
/// connection-level failures with bounded exponential backoff + jitter.
fn connect_with_retry(
    endpoint: &crace_daemon::Endpoint,
    attempts_left: &mut u32,
    backoff_ms: u64,
) -> std::io::Result<crace_daemon::Client> {
    let mut delay = backoff_ms.max(1);
    loop {
        match crace_daemon::Client::connect(endpoint) {
            Ok(client) => return Ok(client),
            Err(e) => {
                if *attempts_left == 0 || !is_conn_error(&e) {
                    return Err(e);
                }
                *attempts_left -= 1;
                std::thread::sleep(std::time::Duration::from_millis(
                    delay + backoff_jitter(delay),
                ));
                delay = (delay * 2).min(10_000);
            }
        }
    }
}

fn cmd_submit(args: &[String]) -> CmdResult {
    let mut endpoint: Option<crace_daemon::Endpoint> = None;
    let mut session: Option<String> = None;
    let mut workers = 0usize;
    let mut chunk = 0usize;
    let mut retry = 0u32;
    let mut backoff_ms = 200u64;
    let mut json = false;
    let mut tolerate = false;
    let opts = parse_replay_opts(args, |arg, it| {
        if let Some(e) = parse_endpoint_flag(arg, it)? {
            endpoint = Some(e);
            return Ok(true);
        }
        match arg {
            "--session" => session = Some(need(it.next(), "--session needs a name")?.clone()),
            "--workers" => {
                let n = need(it.next(), "--workers needs a count")?;
                workers = n.parse().map_err(|_| format!("bad worker count `{n}`"))?;
            }
            "--chunk" => {
                let n = need(it.next(), "--chunk needs a byte count")?;
                chunk = n.parse().map_err(|_| format!("bad chunk size `{n}`"))?;
            }
            "--retry" => {
                let n = need(it.next(), "--retry needs a count")?;
                retry = n.parse().map_err(|_| format!("bad retry count `{n}`"))?;
            }
            "--backoff-ms" => {
                let n = need(it.next(), "--backoff-ms needs a duration")?;
                backoff_ms = n.parse().map_err(|_| format!("bad backoff `{n}`"))?;
            }
            "--json" => json = true,
            "--tolerate-truncation" => tolerate = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let endpoint = need(endpoint, "submit needs --socket <path> or --tcp <addr>")?;
    let loaded = match load_trace(&opts, tolerate) {
        Ok(loaded) => loaded,
        Err(failure) => return torn_exit(failure),
    };
    if let Some(recovery) = &loaded.recovery {
        eprintln!("warning: `{}` is torn: {recovery}", opts.trace_path);
    }
    // Default session name: the trace file's stem, sanitized to the
    // protocol's name alphabet, pid-suffixed so repeats don't collide.
    let session = session.unwrap_or_else(|| {
        let stem = std::path::Path::new(&opts.trace_path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "submit".to_string());
        let mut name: String = stem
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .take(40)
            .collect();
        if name.is_empty() || name.starts_with('-') {
            name.insert(0, 's');
        }
        format!("{name}-{}", std::process::id())
    });

    // Streams events[from..]; `chunk > 0` keeps the pathological-framing
    // byte dribble, re-rendered per attempt so a resume starts exactly at
    // the recovered record.
    let stream_from = |client: &mut crace_daemon::Client, from: usize| -> std::io::Result<()> {
        if chunk > 0 {
            let mut body = String::new();
            for event in &loaded.trace.events()[from..] {
                body.push_str(&crace_cli::frame_event(event, &loaded.spec));
                body.push('\n');
            }
            client.send_chunked(body.as_bytes(), chunk)
        } else {
            for event in &loaded.trace.events()[from..] {
                client.send_event(event, &loaded.spec)?;
            }
            Ok(())
        }
    };

    let mut attempts_left = retry;
    let mut client = match connect_with_retry(&endpoint, &mut attempts_left, backoff_ms) {
        Ok(client) => client,
        Err(e) if is_conn_error(&e) => {
            eprintln!("error: cannot connect to {endpoint}: {e}");
            return Ok(ExitCode::from(7));
        }
        Err(e) => return Err(format!("cannot connect to {endpoint}: {e}").into()),
    };
    let ok = client
        .hello(&session, &opts.spec_name, workers, None)
        .map_err(|e| format!("daemon rejected HELLO: {e}"))?;
    if !json {
        println!("{ok}");
        println!(
            "streaming {} event(s) as session `{session}` …",
            loaded.trace.len()
        );
    }
    let mut sent = 0usize;
    loop {
        // One delivery attempt; on success the session closes and we are
        // done. Any socket failure below falls through to the
        // reconnect-and-resume tail of the loop.
        let disconnect = match stream_from(&mut client, sent) {
            Ok(()) => match client.bye() {
                Ok((report, stats)) => {
                    if json {
                        print!("{report}");
                    } else {
                        println!(
                            "events={} shed={} races={} degraded={}",
                            stats.get("events"),
                            stats.get("shed_ring") + stats.get("shed_quarantine"),
                            stats.get("races"),
                            stats.get("degraded"),
                        );
                    }
                    return Ok(if stats.get("races") > 0 {
                        ExitCode::from(3)
                    } else {
                        ExitCode::SUCCESS
                    });
                }
                Err(message) if is_wire_failure(&message) => message,
                Err(message) => return Err(format!("daemon error: {message}").into()),
            },
            Err(e) => e.to_string(),
        };
        if attempts_left == 0 {
            eprintln!("error: connection to {endpoint} lost ({disconnect}); no retries left");
            return Ok(ExitCode::from(7));
        }
        if !json {
            eprintln!("connection lost ({disconnect}); reconnecting …");
        }
        client = match connect_with_retry(&endpoint, &mut attempts_left, backoff_ms) {
            Ok(client) => client,
            Err(e) if is_conn_error(&e) => {
                eprintln!("error: cannot reconnect to {endpoint}: {e}");
                return Ok(ExitCode::from(7));
            }
            Err(e) => return Err(format!("cannot reconnect to {endpoint}: {e}").into()),
        };
        match client.resume(&session, sent as u64, &opts.spec_name, workers) {
            Ok((ok_line, recovered)) => {
                sent = recovered as usize;
                if !json {
                    println!("{ok_line}");
                    println!("resuming at record {sent} …");
                }
            }
            Err(message) => {
                // The server cannot resume (no capture dir, old build, a
                // rejected RESUME closes the connection) — start the
                // session over on a fresh connection and resend all.
                if !json {
                    eprintln!("resume unavailable ({message}); resending from the start");
                }
                client = match connect_with_retry(&endpoint, &mut attempts_left, backoff_ms) {
                    Ok(client) => client,
                    Err(e) if is_conn_error(&e) => {
                        eprintln!("error: cannot reconnect to {endpoint}: {e}");
                        return Ok(ExitCode::from(7));
                    }
                    Err(e) => return Err(format!("cannot reconnect to {endpoint}: {e}").into()),
                };
                client
                    .hello(&session, &opts.spec_name, workers, None)
                    .map_err(|e| format!("daemon rejected HELLO: {e}"))?;
                sent = 0;
            }
        }
    }
}

fn cmd_chaos(args: &[String]) -> CmdResult {
    use crace_runtime::chaos::{run_chaos_traced, ChaosConfig};

    let program_path = need(args.first(), "expected a program file")?.clone();
    let mut cfg = ChaosConfig::default();
    let mut metrics: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace-out" => trace_out = Some(need(it.next(), "--trace-out needs a file")?.clone()),
            "--seed" => {
                let n = need(it.next(), "--seed needs a number")?;
                cfg.seed = n.parse().map_err(|_| format!("bad seed `{n}`"))?;
            }
            "--trials" => {
                let n = need(it.next(), "--trials needs a count")?;
                cfg.trials = n.parse().map_err(|_| format!("bad count `{n}`"))?;
            }
            "--faults" => {
                let n = need(it.next(), "--faults needs a count")?;
                cfg.faults = n.parse().map_err(|_| format!("bad count `{n}`"))?;
            }
            "--workers" => {
                let n = need(it.next(), "--workers needs a count")?;
                cfg.workers = n.parse().map_err(|_| format!("bad worker count `{n}`"))?;
            }
            other => match metrics_flag(other)? {
                Some(format) => metrics = Some(format),
                None => return Err(usage(format!("unknown option `{other}`"))),
            },
        }
    }

    let source = std::fs::read_to_string(&program_path)
        .map_err(|e| format!("cannot read `{program_path}`: {e}"))?;
    let program = parse_program(&source).map_err(|e| e.to_string())?;
    println!(
        "chaos: {} trial(s) over {} thread(s), {} op(s); seed {}, {} fault(s)/trial …",
        cfg.trials,
        program.threads.len(),
        program.num_ops(),
        cfg.seed,
        cfg.faults
    );

    let tracer = trace_out.as_ref().map(|_| Tracer::new());
    let report = run_chaos_traced(&program, &cfg, tracer.as_ref());
    if let (Some(path), Some(tracer)) = (&trace_out, &tracer) {
        write_span_trace(path, tracer)?;
    }
    println!(
        "faults: {} fired across {} trial(s); {} thread(s) killed, {} abandoned, {} lock(s) poisoned",
        report.faults_fired,
        report.trials_faulted,
        report.threads_killed,
        report.threads_abandoned,
        report.locks_poisoned
    );
    println!(
        "degradation: {} dispatch(es) shed, {} delayed; races on delivered traces: {}",
        report.events_shed, report.events_delayed, report.races
    );
    for violation in &report.violations {
        println!("CONTRACT VIOLATION: {violation}");
    }

    if let Some(format) = metrics {
        let registry = Registry::new();
        report.feed(&registry);
        print_snapshot(&registry.snapshot(), &format);
    }

    Ok(if !report.ok() {
        ExitCode::from(5)
    } else if report.races > 0 {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    })
}

/// Regenerates Table 2, then prints each row's FastTrack and RD2
/// slowdown over the uninstrumented run. `scale` multiplies the default
/// operation counts (0 selects the fast smoke configuration).
/// `--metrics` adds the table as a snapshot: per-row qps gauges and race
/// counters. With `--metrics=json|prom` the table and the summary go to
/// stderr, so stdout is one machine-readable document.
fn cmd_table2(args: &[String]) -> CmdResult {
    use crace_workloads::table2::{run_table2, Table2Config};
    use std::fmt::Write;
    let mut scale = 1usize;
    let mut metrics: Option<String> = None;
    for arg in args {
        match (metrics_flag(arg), arg.parse()) {
            (Ok(Some(format)), _) => metrics = Some(format),
            (Ok(None), Ok(s)) => scale = s,
            _ => {
                eprintln!("error: unknown argument `{arg}`\nusage: crace table2 [scale] [--metrics[=json|prom]]");
                return Ok(ExitCode::from(2));
            }
        }
    }
    let config = if scale == 0 {
        Table2Config::smoke()
    } else {
        let mut c = Table2Config::default();
        c.circuit.ops_per_worker *= scale;
        c.snitch.updates_per_sampler *= scale;
        c.snitch.rank_iterations *= scale;
        c
    };
    let table = run_table2(&config);
    let mut human = format!("{table}\n");
    for row in &table.rows {
        let slowdown = |qps: f64| row.uninstrumented.qps() / qps.max(1e-9);
        let _ = writeln!(
            human,
            "{:<46} FT slowdown {:>5.2}×, RD2 slowdown {:>5.2}×, races FT {} vs RD2 {}",
            row.benchmark,
            slowdown(row.fasttrack.qps()),
            slowdown(row.rd2.qps()),
            row.fasttrack.races,
            row.rd2.races
        );
    }
    if matches!(metrics.as_deref(), Some("json" | "prom")) {
        eprint!("{human}");
    } else {
        print!("{human}");
    }
    let Some(format) = metrics else {
        return Ok(ExitCode::SUCCESS);
    };
    let registry = Registry::new();
    for row in &table.rows {
        // Dotted names keyed by the benchmark; the Prometheus renderer
        // mangles the spaces away.
        let base = format!("table2.{}", row.benchmark);
        registry.set_gauge(
            &format!("{base}.qps.uninstrumented"),
            row.uninstrumented.qps(),
        );
        registry.set_gauge(&format!("{base}.qps.fasttrack"), row.fasttrack.qps());
        registry.set_gauge(&format!("{base}.qps.rd2"), row.rd2.qps());
        registry
            .counter(&format!("{base}.races.fasttrack"))
            .add(row.fasttrack.races.total());
        registry
            .counter(&format!("{base}.races.rd2"))
            .add(row.rd2.races.total());
    }
    print_snapshot(&registry.snapshot(), &format);
    Ok(ExitCode::SUCCESS)
}

/// Parses `--metrics` (pretty) or `--metrics=json|prom|pretty`;
/// `Ok(None)` when `arg` is neither.
fn metrics_flag(arg: &str) -> Result<Option<String>, String> {
    let format = match arg.strip_prefix("--metrics") {
        Some("") => "pretty",
        Some(rest) => match rest.strip_prefix('=') {
            Some(format) => format,
            None => return Ok(None),
        },
        None => return Ok(None),
    };
    if !matches!(format, "json" | "prom" | "pretty") {
        return Err(format!("unknown metrics format `{format}`"));
    }
    Ok(Some(format.to_string()))
}

/// Prints `snapshot` as `json`, `prom` (Prometheus text) or, for any
/// other format, the pretty table.
fn print_snapshot(snapshot: &Snapshot, format: &str) {
    match format {
        "json" => print!("{}", snapshot.to_json()),
        "prom" => print!("{}", snapshot.to_prometheus()),
        _ => print!("{}", snapshot.to_pretty()),
    }
}
