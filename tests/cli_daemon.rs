//! Binary-level tests for `crace serve` / `crace submit`: the same
//! process boundary CI's smoke job exercises. A real daemon child
//! process, real sockets, real exit codes.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_crace")
}

/// A running `crace serve` child, killed on drop so a failing assertion
/// never leaks a daemon.
struct Daemon {
    child: Child,
    addr: String,
    #[allow(dead_code)]
    dir: PathBuf,
}

impl Daemon {
    /// Spawns `crace serve --tcp 127.0.0.1:0` with extra args, waits for
    /// the addr file, returns the handle. Each call gets its own directory,
    /// so concurrently running tests never delete each other's addr file.
    fn spawn(extra: &[&str]) -> Daemon {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "craced-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let addr_file = dir.join("addr");
        let child = Command::new(bin())
            .arg("serve")
            .args(["--tcp", "127.0.0.1:0"])
            .args(["--addr-file", addr_file.to_str().unwrap()])
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn crace serve");
        let deadline = Instant::now() + Duration::from_secs(20);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                let text = text.trim().to_string();
                if !text.is_empty() {
                    break text;
                }
            }
            assert!(
                Instant::now() < deadline,
                "daemon never wrote its addr file"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        Daemon { child, addr, dir }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn fixture() -> &'static str {
    "crates/cli/tests/data/fig3.framed.trace"
}

fn submit(daemon: &Daemon, args: &[&str]) -> std::process::Output {
    Command::new(bin())
        .arg("submit")
        .args(args)
        .args(["--tcp", &daemon.addr])
        .output()
        .expect("run crace submit")
}

/// The CI smoke path: submit the fixture, get exit 3 (races found) and a
/// report byte-identical to offline `crace replay --json`.
#[test]
fn submit_exits_3_with_the_exact_replay_report() {
    let daemon = Daemon::spawn(&[]);
    let offline = Command::new(bin())
        .args(["replay", fixture(), "--spec", "dictionary", "--json"])
        .output()
        .expect("run crace replay");
    assert!(offline.status.code() == Some(3), "fig3 has a race");

    let streamed = submit(
        &daemon,
        &[
            fixture(),
            "--spec",
            "dictionary",
            "--session",
            "smoke",
            "--workers",
            "2",
            "--json",
        ],
    );
    assert_eq!(
        streamed.status.code(),
        Some(3),
        "submit must exit 3 on races"
    );
    assert_eq!(
        String::from_utf8_lossy(&streamed.stdout),
        String::from_utf8_lossy(&offline.stdout),
        "daemon-streamed report must equal `crace replay --json` byte-for-byte"
    );
}

/// `--tolerate-truncation` through the daemon path: a torn trace file is
/// refused with exit 6 by default, and with the flag the valid prefix
/// streams and the report matches tolerant offline replay.
#[test]
fn tolerate_truncation_streams_the_valid_prefix() {
    let daemon = Daemon::spawn(&[]);
    let torn_path =
        std::env::temp_dir().join(format!("fig3-torn-{}.framed.trace", std::process::id()));
    let full = std::fs::read_to_string(fixture()).unwrap();
    // Chop into the final record: bytes arrive, the record never completes.
    std::fs::write(&torn_path, &full[..full.len() - 5]).unwrap();

    let refused = submit(
        &daemon,
        &[torn_path.to_str().unwrap(), "--spec", "dictionary"],
    );
    assert_eq!(
        refused.status.code(),
        Some(6),
        "a torn file without the flag is exit 6: {}",
        String::from_utf8_lossy(&refused.stderr)
    );

    let tolerated = submit(
        &daemon,
        &[
            torn_path.to_str().unwrap(),
            "--spec",
            "dictionary",
            "--tolerate-truncation",
            "--session",
            "tolerant",
            "--json",
        ],
    );
    let offline = Command::new(bin())
        .args([
            "replay",
            torn_path.to_str().unwrap(),
            "--spec",
            "dictionary",
            "--tolerate-truncation",
            "--json",
        ])
        .output()
        .expect("run crace replay");
    assert_eq!(tolerated.status.code(), offline.status.code());
    assert_eq!(
        String::from_utf8_lossy(&tolerated.stdout),
        String::from_utf8_lossy(&offline.stdout),
        "tolerant daemon submit must equal tolerant offline replay"
    );
    assert!(
        String::from_utf8_lossy(&tolerated.stderr).contains("torn"),
        "the recovery warning must be surfaced"
    );
    let _ = std::fs::remove_file(&torn_path);
}

/// `--record-dir` captures each session to its own framed file; a reused
/// session name claims a `-2` suffix instead of clobbering or
/// interleaving (the single-writer audit, at the service boundary).
#[test]
fn concurrent_session_captures_never_share_a_file() {
    let record_dir = std::env::temp_dir().join(format!("craced-caps-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&record_dir);
    let daemon = Daemon::spawn(&["--record-dir", record_dir.to_str().unwrap()]);

    // Same session name, twice, sequentially: two distinct files.
    for _ in 0..2 {
        let out = submit(
            &daemon,
            &[fixture(), "--spec", "dictionary", "--session", "cap"],
        );
        assert_eq!(out.status.code(), Some(3));
    }
    // Different names, concurrently: one file each.
    let concurrent: Vec<_> = (0..3)
        .map(|i| {
            let addr = daemon.addr.clone();
            std::thread::spawn(move || {
                Command::new(bin())
                    .arg("submit")
                    .args([fixture(), "--spec", "dictionary"])
                    .args(["--session", &format!("par-{i}")])
                    .args(["--chunk", "7"])
                    .args(["--tcp", &addr])
                    .output()
                    .expect("run crace submit")
            })
        })
        .collect();
    for handle in concurrent {
        assert_eq!(handle.join().unwrap().status.code(), Some(3));
    }

    let spec = crace::spec::builtin::dictionary();
    let original =
        crace::cli::parse_trace(&std::fs::read_to_string(fixture()).unwrap(), &spec).unwrap();
    let mut expected: Vec<String> = vec!["cap".into(), "cap-2".into()];
    expected.extend((0..3).map(|i| format!("par-{i}")));
    for name in expected {
        let path = record_dir.join(format!("{name}.framed.trace"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("capture `{}` missing: {e}", path.display()));
        let captured = crace::cli::parse_trace(&text, &spec)
            .unwrap_or_else(|e| panic!("capture `{name}` is damaged (interleaved writes?): {e}"));
        assert_eq!(
            captured, original,
            "capture `{name}` diverged from the stream"
        );
    }
    let _ = std::fs::remove_dir_all(&record_dir);
}

/// The `/metrics` endpoint on a daemon child: Prometheus text has TYPE
/// lines and the `crace_` prefix; the JSON rendering passes the
/// RFC 8259 validator.
#[test]
fn metrics_endpoint_serves_valid_prometheus_and_json() {
    let daemon = Daemon::spawn(&[]);
    let out = submit(
        &daemon,
        &[fixture(), "--spec", "dictionary", "--session", "m"],
    );
    assert_eq!(out.status.code(), Some(3));

    let prom = http_get(&daemon.addr, "/metrics");
    assert!(prom.starts_with("HTTP/1.1 200 OK"), "{prom:.120}");
    let prom_body = prom.split("\r\n\r\n").nth(1).unwrap_or("");
    assert!(prom_body.contains("# TYPE crace_daemon_sessions_closed counter"));
    assert!(prom_body.contains("crace_daemon_events_total 7"));

    let json = http_get(&daemon.addr, "/metrics.json");
    let json_body = json.split("\r\n\r\n").nth(1).unwrap_or("");
    crace::obs::json::validate(json_body).expect("scrape must be RFC 8259 valid");
    assert!(json_body.contains("\"daemon.races_total\": 1"));

    let missing = http_get(&daemon.addr, "/nothere");
    assert!(missing.starts_with("HTTP/1.1 404"));
}

/// Exit-code contract for an unreachable daemon: connection refused maps
/// to exit 7, with and without the retry loop.
#[test]
fn submit_to_a_dead_daemon_exits_7() {
    // Bind-then-drop: the port is real but nobody listens.
    let dead = {
        let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        sock.local_addr().unwrap().to_string()
    };
    let refused = Command::new(bin())
        .arg("submit")
        .args([fixture(), "--spec", "dictionary"])
        .args(["--tcp", &dead])
        .output()
        .expect("run crace submit");
    assert_eq!(
        refused.status.code(),
        Some(7),
        "refused connection must exit 7: {}",
        String::from_utf8_lossy(&refused.stderr)
    );

    let retried = Command::new(bin())
        .arg("submit")
        .args([fixture(), "--spec", "dictionary"])
        .args(["--retry", "2", "--backoff-ms", "10"])
        .args(["--tcp", &dead])
        .output()
        .expect("run crace submit");
    assert_eq!(
        retried.status.code(),
        Some(7),
        "exhausted retries must still exit 7"
    );
    assert!(
        String::from_utf8_lossy(&retried.stderr).contains("cannot connect"),
        "stderr must say the daemon was unreachable: {}",
        String::from_utf8_lossy(&retried.stderr)
    );
}

/// Durability telemetry at the scrape boundary: a live checkpointing
/// session exposes `checkpoint.seq` / `checkpoint.age_ms` gauges and the
/// `supervisor.respawns` counter under its `session.<name>.` prefix, and
/// the closing STATS line carries the same fields.
#[test]
fn scrape_and_stats_expose_checkpoint_and_supervisor_fields() {
    use crace::daemon::{Client, Endpoint};

    let record_dir =
        std::env::temp_dir().join(format!("craced-ckpt-scrape-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&record_dir);
    let daemon = Daemon::spawn(&[
        "--record-dir",
        record_dir.to_str().unwrap(),
        "--checkpoint-every",
        "2",
    ]);

    let spec = crace::spec::builtin::dictionary();
    let trace = crace::cli::parse_trace(&std::fs::read_to_string(fixture()).unwrap(), &spec)
        .expect("fixture parses");
    let endpoint = Endpoint::Tcp(daemon.addr.clone());
    let mut client = Client::connect(&endpoint).expect("connect");
    client
        .hello("live", "dictionary", 2, None)
        .expect("HELLO accepted");
    for event in trace.events() {
        client.send_event(event, &spec).expect("send");
    }
    // Interim REPORT forces a drain, so the scrape sees settled gauges.
    client.report().expect("interim REPORT");

    let prom = http_get(&daemon.addr, "/metrics");
    let body = prom.split("\r\n\r\n").nth(1).unwrap_or("");
    let gauge = |name: &str| -> f64 {
        body.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("scrape lacks {name}:\n{body}"))
            .parse()
            .unwrap()
    };
    assert!(
        gauge("crace_session_live_checkpoint_seq") >= 2.0,
        "checkpoint-every=2 over 7 records must have checkpointed"
    );
    assert!(gauge("crace_session_live_checkpoint_age_ms") >= 0.0);
    assert!(
        body.contains("# TYPE crace_session_live_supervisor_respawns counter"),
        "supervisor.respawns must be scraped:\n{body}"
    );

    let (_, stats) = client.bye().expect("BYE");
    assert!(stats.get("checkpoint_seq") >= 2, "STATS line: {stats:?}");
    assert!(stats.fields.contains_key("checkpoint_age_ms"));
    assert_eq!(stats.get("respawns"), 0, "healthy run respawns nothing");
    let _ = std::fs::remove_dir_all(&record_dir);
}

fn http_get(addr: &str, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect http");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: craced\r\n\r\n").as_bytes())
        .expect("write http");
    let mut body = String::new();
    let _ = stream.read_to_string(&mut body);
    body
}
