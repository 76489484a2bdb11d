//! Chaos plane for the daemon: torn streams, injected detector panics,
//! forced overload shedding, and a bounded connect/disconnect soak.
//!
//! The contract under test is the degradation contract of DESIGN.md,
//! now at the service boundary: under *any* of these failures the
//! daemon **may hide races but never invents them**, every loss is
//! counted exactly, one tenant's failure never touches another, and no
//! session or connection leaks.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{assert_all_paths_agree, random_trace, Shape};
use crace::daemon::{Client, Endpoint, Server, ServerConfig};
use crace::obs::MetricValue;
use crace::spec::builtin;
use crace::{RaceReport, Trace};

const OBJECTS: u64 = 4;

fn start_server(cfg: ServerConfig) -> Server {
    Server::start(&Endpoint::Tcp("127.0.0.1:0".to_string()), cfg).expect("bind test server")
}

/// `a`'s per-site counts are a pointwise subset of `b`'s — the "may hide,
/// never invent" order on reports.
fn is_subreport(a: &RaceReport, b: &RaceReport) -> bool {
    let full: std::collections::HashMap<String, u64> = b.per_site().into_iter().collect();
    a.per_site()
        .into_iter()
        .all(|(site, n)| full.get(&site).is_some_and(|&m| n <= m))
}

/// Polls until the server retains an outcome for `name` (the connection
/// handler finalizes asynchronously after a disconnect).
fn wait_outcome(server: &Server, name: &str) -> crace::SessionOutcome {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(outcome) = server.outcome(name) {
            return outcome;
        }
        assert!(
            Instant::now() < deadline,
            "no outcome for `{name}` within 10s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn wait_no_sessions(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_sessions() > 0 {
        assert!(Instant::now() < deadline, "sessions leaked");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A client killed mid-record still yields a report: the valid prefix is
/// analyzed, the torn tail is counted byte-for-byte, and nothing leaks.
#[test]
fn mid_stream_kill_reports_the_torn_prefix_with_exact_loss_accounting() {
    let server = start_server(ServerConfig::default());
    let spec = builtin::dictionary();
    let trace = random_trace(&spec, Shape::Structured, 11, 60, OBJECTS);
    let lines: Vec<String> = trace
        .events()
        .iter()
        .map(|e| crace::cli::frame_event(e, &spec))
        .collect();

    // Case 1: die in the middle of a record.
    let cut = 40usize;
    let partial = &lines[cut].as_bytes()[..7];
    {
        let mut client = Client::connect(server.endpoint()).expect("connect");
        client
            .hello("kill-mid", "dictionary", 2, None)
            .expect("HELLO");
        for line in &lines[..cut] {
            client
                .send_raw(format!("{line}\n").as_bytes())
                .expect("send");
        }
        client.send_raw(partial).expect("send partial");
        // Drop without BYE: the socket closes with a torn tail in flight.
    }
    let outcome = wait_outcome(&server, "kill-mid");
    let damage = outcome.damage.expect("mid-record kill must be torn");
    assert_eq!(
        damage.lost_bytes,
        partial.len() as u64,
        "exact torn-tail bytes"
    );
    assert_eq!(damage.lost_records, 1);
    assert!(!outcome.clean_bye);
    assert!(outcome.degraded, "a torn session is a degraded session");
    let mut prefix = Trace::new();
    for event in &trace.events()[..cut] {
        prefix.push(event.clone());
    }
    let expected = assert_all_paths_agree(&spec, &prefix, OBJECTS).to_json();
    assert_eq!(
        outcome.report_json, expected,
        "torn-prefix report must equal offline replay of the prefix"
    );

    // Case 2: die exactly on a record boundary — nothing was lost, but
    // the missing BYE still marks the stream torn.
    {
        let mut client = Client::connect(server.endpoint()).expect("connect");
        client
            .hello("kill-edge", "dictionary", 0, None)
            .expect("HELLO");
        for line in &lines[..cut] {
            client
                .send_raw(format!("{line}\n").as_bytes())
                .expect("send");
        }
    }
    let outcome = wait_outcome(&server, "kill-edge");
    let damage = outcome.damage.expect("no BYE means torn");
    assert_eq!(damage.lost_bytes, 0);
    assert_eq!(damage.lost_records, 0);
    assert_eq!(outcome.report_json, expected);

    wait_no_sessions(&server);
    server.shutdown();
}

/// A damaged record (CRC flip) on the wire tears the session at that
/// line: the intact prefix reports, the bad line is counted.
#[test]
fn damaged_record_tears_the_session_and_counts_the_bad_line() {
    let server = start_server(ServerConfig::default());
    let spec = builtin::dictionary();
    let trace = random_trace(&spec, Shape::Structured, 12, 30, OBJECTS);
    let lines: Vec<String> = trace
        .events()
        .iter()
        .map(|e| crace::cli::frame_event(e, &spec))
        .collect();
    let mut client = Client::connect(server.endpoint()).expect("connect");
    client
        .hello("crc-flip", "dictionary", 0, None)
        .expect("HELLO");
    for line in &lines[..20] {
        client
            .send_raw(format!("{line}\n").as_bytes())
            .expect("send");
    }
    // Flip one payload byte: the length still matches, the CRC cannot.
    let mut bad = lines[20].clone().into_bytes();
    let last = bad.len() - 1;
    bad[last] ^= 0x01;
    bad.push(b'\n');
    client.send_raw(&bad).expect("send damaged");
    let reply = client.drain();
    assert!(
        reply.contains("ERR torn:"),
        "server must name the tear: {reply}"
    );
    let outcome = wait_outcome(&server, "crc-flip");
    let damage = outcome.damage.expect("damaged record is a torn stream");
    assert_eq!(damage.lost_bytes, bad.len() as u64);
    assert_eq!(damage.lost_records, 1);
    let mut prefix = Trace::new();
    for event in &trace.events()[..20] {
        prefix.push(event.clone());
    }
    assert_eq!(
        outcome.report_json,
        assert_all_paths_agree(&spec, &prefix, OBJECTS).to_json()
    );
    wait_no_sessions(&server);
    server.shutdown();
}

/// `faults=panic@K` detonates inside one tenant's detector: that session
/// quarantines and fails open (a subreport, panic counted, degraded
/// flagged, metrics visible) while a concurrent clean tenant's report
/// stays bit-for-bit exact.
#[test]
fn injected_detector_panic_is_isolated_to_its_tenant() {
    let server = Arc::new(start_server(ServerConfig::default()));
    let spec = builtin::dictionary();
    let trace = random_trace(&spec, Shape::Structured, 13, 80, OBJECTS);
    let offline = assert_all_paths_agree(&spec, &trace, OBJECTS);

    // The clean tenant runs concurrently with the panicking one.
    let clean_server = Arc::clone(&server);
    let clean_trace = trace.clone();
    let clean = std::thread::spawn(move || {
        let spec = builtin::dictionary();
        let mut client = Client::connect(clean_server.endpoint()).expect("connect");
        client.hello("clean", "dictionary", 4, None).expect("HELLO");
        for event in clean_trace.events() {
            client.send_event(event, &spec).expect("send");
        }
        client.bye().expect("BYE")
    });

    let mut client = Client::connect(server.endpoint()).expect("connect");
    client
        .hello("chaotic", "dictionary", 0, Some("panic@5"))
        .expect("faults accepted when the server allows them");
    for event in trace.events() {
        client.send_event(event, &spec).expect("send");
    }
    // Barrier mid-session so the scrape below observes the armed state.
    client.report().expect("interim report");
    let scrape = server.scrape();
    assert_eq!(
        scrape.get("session.chaotic.rd2.analysis_panics"),
        Some(&MetricValue::Counter(1)),
        "the panic counter must move on the live scrape"
    );
    assert_eq!(
        scrape.get("session.chaotic.rd2.degraded_mode"),
        Some(&MetricValue::Gauge(1.0)),
        "the degraded gauge must move on the live scrape"
    );
    assert_eq!(
        scrape.get("session.chaotic.fault.panics_injected"),
        Some(&MetricValue::Counter(1)),
    );
    let (_, stats) = client.bye().expect("BYE");
    assert_eq!(stats.get("panics"), 1);
    assert_eq!(stats.get("degraded"), 1);
    let outcome = wait_outcome(&server, "chaotic");
    assert!(outcome.degraded);
    assert_eq!(outcome.analysis_panics, 1);
    assert!(
        is_subreport(&outcome.report, &offline),
        "fail-open may hide races, never invent them"
    );

    let (clean_report, clean_stats) = clean.join().expect("clean tenant panicked");
    assert_eq!(
        clean_report,
        offline.to_json(),
        "a neighbor's panic must not touch a clean tenant"
    );
    assert_eq!(clean_stats.get("degraded"), 0);
    assert_eq!(clean_stats.get("panics"), 0);
    wait_no_sessions(&server);
}

/// A server configured to refuse faults rejects the HELLO outright.
#[test]
fn fault_plans_are_rejected_when_not_allowed() {
    let server = start_server(ServerConfig {
        allow_faults: false,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.endpoint()).expect("connect");
    let err = client
        .hello("nope", "dictionary", 0, Some("panic@1"))
        .expect_err("faults must be refused");
    assert!(err.contains("disabled"), "got: {err}");
    assert_eq!(server.active_sessions(), 0);
    server.shutdown();
}

/// Forced overload: a tiny ring, a near-zero grace, and an injected
/// dispatch delay on every slot keep the dispatcher slower than the
/// producer, so the ladder must shed. Sync events still all arrive
/// (backpressure), only data-plane events are shed, every shed is
/// counted, and the report is a subreport.
#[test]
fn overload_sheds_data_plane_only_and_counts_every_loss() {
    let server = start_server(ServerConfig {
        ring_capacity: 2,
        shed_grace: Duration::from_millis(1),
        ..ServerConfig::default()
    });
    let spec = builtin::dictionary();
    let trace = random_trace(&spec, Shape::Structured, 14, 120, OBJECTS);
    let sync_events = trace.events().iter().filter(|e| e.is_sync()).count() as u64;
    let offline = assert_all_paths_agree(&spec, &trace, OBJECTS);
    let mut client = Client::connect(server.endpoint()).expect("connect");
    // Stall the dispatcher 2ms on every dispatch; with a 2-slot ring and
    // 1ms grace the producer must shed. Stalling only a few slots is not
    // enough: while the handler is held back by a sync event's
    // backpressure the ring drains, so whether a data event ever meets a
    // full ring would depend on the trace's mix of sync and data events.
    let delays: Vec<String> = (0..trace.len())
        .map(|i| format!("delay@{i}:2000"))
        .collect();
    client
        .hello("overload", "dictionary", 0, Some(&delays.join(",")))
        .expect("HELLO");
    for event in trace.events() {
        client.send_event(event, &spec).expect("send");
    }
    let (_, stats) = client.bye().expect("BYE");
    assert!(
        stats.get("shed_ring") > 0,
        "the ladder never shed: {stats:?}"
    );
    assert_eq!(stats.get("events"), trace.len() as u64);
    let outcome = wait_outcome(&server, "overload");
    assert_eq!(outcome.shed_ring, stats.get("shed_ring"));
    assert!(
        outcome.shed_ring <= trace.len() as u64 - sync_events,
        "sync events must never shed (only {} data events existed)",
        trace.len() as u64 - sync_events
    );
    assert!(
        is_subreport(&outcome.report, &offline),
        "shedding may hide races, never invent them"
    );
    server.shutdown();
}

/// The bounded soak: churn connections against one daemon — clean runs,
/// mid-stream kills, fault injections, instant disconnects, HTTP scrapes
/// — for `CRACE_SOAK_SECS` (default 30). The daemon must stay live
/// (every thread makes progress), keep counters monotone, end with zero
/// sessions, and never diverge on the clean runs.
#[test]
fn soak_survives_connect_disconnect_churn_with_monotone_counters() {
    let secs: u64 = std::env::var("CRACE_SOAK_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    let server = Arc::new(start_server(ServerConfig::default()));
    let deadline = Instant::now() + Duration::from_secs(secs);
    let iterations = Arc::new(AtomicU64::new(0));
    let mut churners = Vec::new();
    for worker in 0..4u64 {
        let server = Arc::clone(&server);
        let iterations = Arc::clone(&iterations);
        churners.push(std::thread::spawn(move || {
            let spec = builtin::dictionary();
            let mut round = 0u64;
            while Instant::now() < deadline {
                round += 1;
                let seed = worker * 1_000_000 + round;
                let name = format!("soak-{worker}-{round}");
                let trace = random_trace(&spec, Shape::Structured, seed, 40, OBJECTS);
                match round % 5 {
                    // Clean run: the report must stay exact even while
                    // neighbors are being killed and panicked.
                    0 | 1 => {
                        let mut client = Client::connect(server.endpoint()).expect("connect");
                        client
                            .hello(&name, "dictionary", (seed % 4) as usize, None)
                            .expect("HELLO");
                        for event in trace.events() {
                            client.send_event(event, &spec).expect("send");
                        }
                        let (report, _) = client.bye().expect("BYE");
                        assert_eq!(
                            report,
                            assert_all_paths_agree(&spec, &trace, OBJECTS).to_json(),
                            "{name} diverged"
                        );
                    }
                    // Mid-stream kill.
                    2 => {
                        let mut client = Client::connect(server.endpoint()).expect("connect");
                        client.hello(&name, "dictionary", 0, None).expect("HELLO");
                        for event in &trace.events()[..20] {
                            client.send_event(event, &spec).expect("send");
                        }
                        client.send_raw(b"=13:00000000 par").expect("partial");
                        drop(client);
                    }
                    // Injected detector panic.
                    3 => {
                        let mut client = Client::connect(server.endpoint()).expect("connect");
                        client
                            .hello(&name, "dictionary", 0, Some("panic@3"))
                            .expect("HELLO");
                        for event in trace.events() {
                            client.send_event(event, &spec).expect("send");
                        }
                        let (_, stats) = client.bye().expect("BYE");
                        assert_eq!(stats.get("panics"), 1, "{name}");
                    }
                    // Connect-and-vanish, then an HTTP scrape.
                    _ => {
                        let client = Client::connect(server.endpoint()).expect("connect");
                        drop(client);
                        let prom = http_get(server.endpoint(), "/metrics");
                        assert!(prom.contains("crace_daemon_connections"), "scrape broke");
                    }
                }
                iterations.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }

    // Meanwhile: counters sampled from the scrape must be monotone.
    let monotone = [
        "daemon.connections",
        "daemon.sessions_opened",
        "daemon.sessions_closed",
        "daemon.events_total",
        "daemon.races_total",
    ];
    let mut last = [0u64; 5];
    while Instant::now() < deadline {
        let scrape = server.scrape();
        for (i, name) in monotone.iter().enumerate() {
            if let Some(MetricValue::Counter(n)) = scrape.get(name) {
                assert!(
                    *n >= last[i],
                    "counter {name} went backwards: {} -> {n}",
                    last[i]
                );
                last[i] = *n;
            }
        }
        std::thread::sleep(Duration::from_millis(250));
    }
    for churner in churners {
        churner
            .join()
            .expect("churner panicked (deadlock or divergence)");
    }
    let total = iterations.load(Ordering::Relaxed);
    assert!(
        total >= 8,
        "only {total} iterations in {secs}s — the daemon stalled"
    );
    wait_no_sessions(&server);
    // Every opened session must eventually close (handlers finalize
    // asynchronously after the churners drop their sockets).
    let end = Instant::now() + Duration::from_secs(10);
    loop {
        let scrape = server.scrape();
        let opened = match scrape.get("daemon.sessions_opened") {
            Some(MetricValue::Counter(n)) => *n,
            _ => 0,
        };
        let closed = match scrape.get("daemon.sessions_closed") {
            Some(MetricValue::Counter(n)) => *n,
            _ => 0,
        };
        if opened == closed {
            break;
        }
        assert!(
            Instant::now() < end,
            "sessions never finished closing: opened={opened} closed={closed}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Minimal HTTP/1.1 GET against the daemon's sniffed endpoint.
fn http_get(endpoint: &Endpoint, path: &str) -> String {
    use std::io::{Read, Write};
    let Endpoint::Tcp(addr) = endpoint else {
        panic!("soak server is TCP");
    };
    let mut stream = std::net::TcpStream::connect(addr).expect("connect http");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: craced\r\n\r\n").as_bytes())
        .expect("write http");
    let mut body = String::new();
    let _ = stream.read_to_string(&mut body);
    body
}
