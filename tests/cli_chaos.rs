//! End-to-end tests of the chaos plane's CLI surface: `crace chaos`
//! exit codes and determinism, `crace frame` conversion, and torn-trace
//! detection/recovery through `crace replay`.

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

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

fn exit(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

#[test]
fn chaos_on_racy_program_exits_3_and_is_deterministic() {
    let args = ["chaos", &data("fig3.sim"), "--seed", "7", "--trials", "10"];
    let a = crace(&args);
    let b = crace(&args);
    assert_eq!(exit(&a), 3, "fig3 races: {}", stderr(&a));
    assert_eq!(stdout(&a), stdout(&b), "chaos runs must be reproducible");
    assert!(stdout(&a).contains("faults:"));
    assert!(!stdout(&a).contains("CONTRACT VIOLATION"));
}

#[test]
fn chaos_on_race_free_program_exits_0() {
    let out = crace(&[
        "chaos",
        &data("fig3_ordered.sim"),
        "--seed",
        "3",
        "--trials",
        "10",
    ]);
    assert_eq!(
        exit(&out),
        0,
        "stdout: {}\nstderr: {}",
        stdout(&out),
        stderr(&out)
    );
}

#[test]
fn chaos_metrics_export_campaign_counters() {
    let out = crace(&[
        "chaos",
        &data("racy3.sim"),
        "--seed",
        "11",
        "--trials",
        "5",
        "--metrics=json",
    ]);
    let text = stdout(&out);
    assert!(text.contains("\"chaos.trials\": 5"), "{text}");
    assert!(text.contains("\"chaos.violations\": 0"), "{text}");
}

#[test]
fn chaos_rejects_bad_options() {
    assert_eq!(
        exit(&crace(&["chaos", &data("fig3.sim"), "--seed", "x"])),
        1
    );
    // A bad value is an error (1); an unknown option is a usage error (2).
    assert_eq!(exit(&crace(&["chaos", &data("fig3.sim"), "--bogus"])), 2);
}

#[test]
fn frame_round_trips_through_replay() {
    let plain = crace(&[
        "replay",
        &data("fig3.trace"),
        "--spec",
        "dictionary",
        "--json",
    ]);
    let framed = crace(&[
        "replay",
        &data("fig3.framed.trace"),
        "--spec",
        "dictionary",
        "--json",
    ]);
    assert_eq!(exit(&plain), 3);
    assert_eq!(exit(&framed), 3);
    assert_eq!(
        stdout(&plain),
        stdout(&framed),
        "framed and plain encodings of the same trace must replay identically"
    );

    // `crace frame` reproduces the committed fixture byte-for-byte.
    let converted = crace(&["frame", &data("fig3.trace"), "--spec", "dictionary"]);
    assert_eq!(exit(&converted), 0);
    let committed = std::fs::read_to_string(data("fig3.framed.trace")).unwrap();
    assert_eq!(stdout(&converted), committed);
}

#[test]
fn torn_trace_exits_6_with_a_spanned_diagnostic() {
    let committed = std::fs::read_to_string(data("fig3.framed.trace")).unwrap();
    let dir = std::env::temp_dir().join("crace-cli-chaos-test");
    std::fs::create_dir_all(&dir).unwrap();
    let torn_path = dir.join("fig3.torn.trace");
    // Tear the file mid-way through the final record, as `head -c` would.
    std::fs::write(&torn_path, &committed[..committed.len() - 9]).unwrap();
    let torn = torn_path.to_str().unwrap();

    let out = crace(&["replay", torn, "--spec", "dictionary"]);
    assert_eq!(exit(&out), 6, "stderr: {}", stderr(&out));
    let diag = stderr(&out);
    assert!(diag.contains("torn"), "{diag}");
    assert!(diag.contains("line") || diag.contains(":8:"), "{diag}");
    assert!(diag.contains("--tolerate-truncation"), "{diag}");

    // With the flag, the valid prefix replays: 6 of 7 events survive,
    // the duplicate-put race is still there, and the warning accounts
    // for the loss.
    let out = crace(&[
        "replay",
        torn,
        "--spec",
        "dictionary",
        "--tolerate-truncation",
    ]);
    assert_eq!(exit(&out), 3, "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("replaying 6 event(s)"),
        "{}",
        stdout(&out)
    );
    assert!(
        stderr(&out).contains("recovered 6 event(s)"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn truncation_at_any_point_keeps_replay_usable() {
    let committed = std::fs::read_to_string(data("fig3.framed.trace")).unwrap();
    let dir = std::env::temp_dir().join("crace-cli-chaos-test");
    std::fs::create_dir_all(&dir).unwrap();
    let header_len = committed.lines().next().unwrap().len() + 1;
    for (i, cut) in (header_len..committed.len()).step_by(7).enumerate() {
        let path = dir.join(format!("cut{i}.trace"));
        std::fs::write(&path, &committed[..cut]).unwrap();
        let out = crace(&[
            "replay",
            path.to_str().unwrap(),
            "--spec",
            "dictionary",
            "--tolerate-truncation",
        ]);
        // Recovery must always yield a replayable prefix: exit 0 (no
        // race survived the cut) or 3 (race in the prefix) — never a
        // parse failure.
        assert!(
            matches!(exit(&out), 0 | 3),
            "cut at byte {cut}: exit {} stderr {}",
            exit(&out),
            stderr(&out)
        );
    }
}

#[test]
fn usage_mentions_the_chaos_surface() {
    let out = crace(&[]);
    assert_eq!(exit(&out), 2);
    let usage = stderr(&out);
    assert!(usage.contains("crace chaos"), "{usage}");
    assert!(usage.contains("--tolerate-truncation"), "{usage}");
    assert!(usage.contains("6 torn trace"), "{usage}");
}
