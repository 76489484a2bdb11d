//! End-to-end tests of the observability surface of the `crace` binary:
//! exit codes, `--json`, `--metrics`, `--explain`, and `stats`. These are
//! the same invocations CI runs against the committed sample traces.

use std::path::PathBuf;
use std::process::{Command, Output};

fn data(name: &str) -> String {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.push("crates/cli/tests/data");
    p.push(name);
    p.to_str().unwrap().to_string()
}

fn crace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_crace"))
        .args(args)
        .output()
        .expect("run crace")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

#[test]
fn replay_exits_3_when_races_found() {
    let out = crace(&["replay", &data("fig3.trace"), "--spec", "dictionary"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(stdout(&out).contains("races: 1 (1)"));
}

#[test]
fn replay_exits_0_on_race_free_traces() {
    let out = crace(&[
        "replay",
        &data("fig3_ordered.trace"),
        "--spec",
        "dictionary",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(stdout(&out).contains("races: 0 (0)"));
}

#[test]
fn replay_unknown_subcommand_exits_2() {
    let out = crace(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn replay_bad_file_exits_1() {
    let out = crace(&["replay", "/nonexistent.trace", "--spec", "dictionary"]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn replay_json_is_valid_and_machine_readable() {
    let out = crace(&[
        "replay",
        &data("fig3.trace"),
        "--spec",
        "dictionary",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(3));
    let json = stdout(&out);
    crace_obs::json::validate(&json).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{json}"));
    assert!(json.contains("\"total\": 1"));
    assert!(json.contains("\"sites\": {\"o1\": 1}"));
    assert!(json.contains("\"kind\": \"commutativity\""));
}

#[test]
fn replay_metrics_json_is_valid_and_has_latency_summaries() {
    let out = crace(&[
        "replay",
        &data("fig3.trace"),
        "--spec",
        "dictionary",
        "--metrics=json",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(3));
    let text = stdout(&out);
    // Two JSON documents: the race report, then the metrics snapshot.
    // Split at the boundary between them ("}\n{") and validate both.
    let boundary = text.find("}\n{").expect("two documents") + 2;
    let (report, metrics) = text.split_at(boundary);
    crace_obs::json::validate(report).unwrap_or_else(|e| panic!("report: {e}\n{report}"));
    crace_obs::json::validate(metrics).unwrap_or_else(|e| panic!("metrics: {e}\n{metrics}"));
    assert!(metrics.contains("\"rd2-trace.events.action\": 3"));
    assert!(metrics.contains("\"rd2-trace.races.site.o1\""));
    assert!(metrics.contains("\"p99\""));
    assert!(metrics.contains("rd2-trace.clock.epoch_hit_rate"));
}

#[test]
fn replay_metrics_prom_is_well_formed() {
    let out = crace(&[
        "replay",
        &data("fig3.trace"),
        "--spec",
        "dictionary",
        "--metrics=prom",
    ]);
    assert_eq!(out.status.code(), Some(3));
    let text = stdout(&out);
    let prom_start = text.find("# TYPE").expect("prometheus section");
    let prom = &text[prom_start..];
    assert!(prom.contains("# TYPE crace_rd2_trace_events_action counter"));
    assert!(prom.contains("crace_rd2_trace_events_action 3"));
    assert!(prom.contains("quantile=\"0.99\""));
    assert!(prom.contains("crace_rd2_trace_races_site_o1 1"));
    assert!(prom.contains("crace_rd2_trace_clock_epoch_hit_rate"));
    for line in prom
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (_, value) = line.rsplit_once(' ').expect("name value");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("bad line: {line}"));
    }
}

#[test]
fn replay_explain_prints_provenance() {
    let out = crace(&[
        "replay",
        &data("fig3.trace"),
        "--spec",
        "dictionary",
        "--explain",
    ]);
    assert_eq!(out.status.code(), Some(3));
    let text = stdout(&out);
    assert!(text.contains("current:"), "{text}");
    assert!(text.contains("collision:"), "{text}");
    assert!(text.contains("clocks:"), "{text}");
    assert!(text.contains("last 1 event(s) on the object:"), "{text}");
    // Actions render with numeric method ids (the model layer has no
    // spec-name context): m0 is `put` in the dictionary spec.
    assert!(text.contains("τ2: o1.m0(\"a.com\", 1)/nil"), "{text}");
}

#[test]
fn stats_subcommand_renders_all_formats() {
    let pretty = crace(&["stats", &data("fig3.trace"), "--spec", "dictionary"]);
    assert_eq!(pretty.status.code(), Some(0));
    assert!(stdout(&pretty).contains("rd2-trace.events.action"));

    let json = crace(&[
        "stats",
        &data("fig3.trace"),
        "--spec",
        "dictionary",
        "--format",
        "json",
    ]);
    assert_eq!(json.status.code(), Some(0));
    crace_obs::json::validate(&stdout(&json)).expect("valid stats json");

    let prom = crace(&[
        "stats",
        &data("fig3.trace"),
        "--spec",
        "dictionary",
        "--format",
        "prom",
    ]);
    assert_eq!(prom.status.code(), Some(0));
    assert!(stdout(&prom).starts_with("# TYPE"));
}

#[test]
fn fasttrack_detector_also_reports_through_the_observer() {
    // The commutativity trace has no low-level reads/writes, so FastTrack
    // sees only synchronization — no races, exit 0, but events counted.
    let out = crace(&[
        "stats",
        &data("fig3.trace"),
        "--spec",
        "dictionary",
        "--detector",
        "fasttrack",
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("fasttrack.events.fork"));
}

/// `--trace-out` writes the span timeline at every width, and `--explain`
/// does not turn it off: the serial detector records sampled
/// `rd2.on_action` spans, the pipeline its `parallel.*` phases, and both
/// still print provenance.
#[test]
fn replay_trace_out_records_spans_at_every_width_with_and_without_explain() {
    for (workers, phase) in [("0", "\"rd2.on_action\""), ("4", "\"parallel.worker\"")] {
        for explain in [false, true] {
            let path = std::env::temp_dir().join(format!(
                "crace-trace-out-{}-w{workers}-{explain}.json",
                std::process::id()
            ));
            let (path, fig3) = (path.to_str().unwrap(), data("fig3.trace"));
            let mut args = vec![
                "replay",
                &fig3,
                "--spec",
                "dictionary",
                "--workers",
                workers,
            ];
            args.extend(["--trace-out", path]);
            if explain {
                args.push("--explain");
            }
            let out = crace(&args);
            assert_eq!(out.status.code(), Some(3), "{out:?}");
            let chrome = std::fs::read_to_string(path).expect("trace file written");
            let _ = std::fs::remove_file(path);
            crace_obs::json::validate(&chrome).expect("valid chrome trace json");
            let case = format!("workers {workers}, explain {explain}");
            assert!(chrome.contains(phase), "{case}: no {phase} span\n{chrome}");
            assert_eq!(
                stdout(&out).contains("collision:"),
                explain,
                "{case}: provenance printed iff --explain"
            );
        }
    }
}

/// `replay --folded` profiles exactly the detector `replay` runs, at any
/// width. The trace is 200 puts by thread 0 and then a conflicting put by
/// thread 1, which no fork introduces. An epoch-GC sweep would retire
/// thread 0's points and hide the race; the profiled 2-worker replay
/// must still print the serial report byte for byte.
#[test]
fn replay_folded_profile_at_two_workers_prints_the_serial_report() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let trace = dir.join(format!("crace-unforked-{pid}.trace"));
    let spans = dir.join(format!("crace-unforked-{pid}.json"));
    let folded = dir.join(format!("crace-unforked-{pid}.folded"));
    let mut text: String = (1..=200)
        .map(|i| format!("act 0 o1 put({i}, 1)/nil\n"))
        .collect();
    text.push_str("act 1 o1 put(1, 2)/1\n");
    std::fs::write(&trace, text).expect("write trace");
    let [trace, spans, folded] = [&trace, &spans, &folded].map(|p| p.to_str().unwrap());

    let serial = crace(&["replay", trace, "--spec", "dictionary", "--json"]);
    assert_eq!(serial.status.code(), Some(3), "{serial:?}");
    let profiled = crace(&[
        "replay",
        trace,
        "--spec",
        "dictionary",
        "--workers",
        "2",
        "--trace-out",
        spans,
        "--folded",
        folded,
        "--json",
    ]);
    let chrome = std::fs::read_to_string(spans).expect("span trace written");
    let stacks = std::fs::read_to_string(folded).expect("folded stacks written");
    for path in [trace, spans, folded] {
        let _ = std::fs::remove_file(path);
    }
    assert_eq!(profiled.status.code(), Some(3), "{profiled:?}");
    assert_eq!(stdout(&profiled), stdout(&serial));
    assert!(stdout(&serial).contains("\"total\": 1"), "{serial:?}");
    crace_obs::json::validate(&chrome).expect("valid chrome trace json");
    assert!(!stacks.is_empty(), "empty collapsed stacks");
}

/// `table2 --metrics=json` prints one JSON document on stdout (the table
/// and the slowdown summary go to stderr) with the three qps gauges of
/// every row.
#[test]
fn table2_metrics_json_has_qps_for_every_row() {
    let out = crace(&["table2", "0", "--metrics=json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stdout(&out);
    let json =
        crace_obs::json::parse(&text).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{text}"));
    let rows: Vec<&str> = crace::workloads::circuits::Circuit::ALL
        .iter()
        .map(|c| c.name())
        .chain(["DynamicEndpointSnitch test"])
        .collect();
    assert_eq!(rows.len(), 7);
    for row in rows {
        for setting in ["uninstrumented", "fasttrack", "rd2"] {
            let key = format!("table2.{row}.qps.{setting}");
            let qps = json.get(&key).and_then(|v| v.as_f64());
            assert!(qps.is_some_and(|q| q > 0.0), "{key}: {qps:?}\n{text}");
        }
    }
    let human = String::from_utf8_lossy(&out.stderr);
    assert!(human.contains("RD2 slowdown"), "{human}");
}

#[test]
fn table2_unknown_argument_exits_2() {
    let out = crace(&["table2", "0", "--bogus"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn usage_errors_exit_2_in_every_subcommand() {
    let trace = data("fig3.trace");
    let sim = data("racy3.sim");
    let cases: &[&[&str]] = &[
        &["replay", &trace, "--spec", "dictionary", "--bogus"],
        &["replay", &trace, "--spec", "dictionary", "--workers"],
        &["replay", &trace, "--spec"],
        &["replay", &trace],
        &["replay"],
        &["stats", &trace, "--spec", "dictionary", "--format"],
        &["frame", &trace, "--spec", "dictionary", "--bogus"],
        &["check", "dictionary", "--bogus"],
        &["compile", "dictionary", "--bogus"],
        &["synth", "dictionary", "--bogus"],
        &["synth", "dictionary", "--out"],
        &["explore", &sim, "--bogus"],
        &["explore", &sim, "--trace-out"],
        &["explore", &sim, "--out"],
        &["chaos", &sim, "--trace-out"],
        &["chaos", &sim, "--seed"],
        &["serve", "--bogus"],
        &["serve", "--tcp"],
        &["submit", &trace, "--spec", "dictionary", "--bogus"],
    ];
    for args in cases {
        let out = crace(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    }
    // `lint` reserves 2 for warnings, so its usage errors stay 1.
    assert_eq!(
        crace(&["lint", "dictionary", "--bogus"]).status.code(),
        Some(1)
    );
}

#[test]
fn trailing_trace_out_without_a_file_is_a_usage_error_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("crace_trailing_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for cmd in ["explore", "chaos"] {
        let out = Command::new(env!("CARGO_BIN_EXE_crace"))
            .args([cmd, &data("racy3.sim"), "--trace-out"])
            .current_dir(&dir)
            .output()
            .expect("run crace");
        assert_eq!(out.status.code(), Some(2), "{cmd}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--trace-out needs a file"),
            "{cmd}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{cmd} ran before rejecting its flags"
        );
        let written = std::fs::read_dir(&dir).expect("read dir").count();
        assert_eq!(written, 0, "{cmd} wrote files");
    }
    std::fs::remove_dir_all(&dir).ok();
}
