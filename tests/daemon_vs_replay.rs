//! Differential soak: the daemon-streamed report is bit-for-bit the
//! offline replay report.
//!
//! The daemon path has every opportunity to diverge from `crace replay`:
//! a socket in the middle, arbitrary write chunking, a bounded ingress
//! ring, a dispatcher thread, lazy per-object registration, concurrent
//! tenants sharing one process. None of it may show: for every program
//! here — random and fixture, serial and sharded at 1/2/4/8 workers,
//! streamed whole, chunked, or dribbled one byte at a time, alone or as
//! one of eight simultaneous tenants — the `REPORT` JSON coming back
//! over the wire must equal `RaceReport::to_json()` of an offline serial
//! replay of the same events, byte for byte. That offline report comes
//! from `common::assert_all_paths_agree`, so it is itself checked against
//! every other path and the quadratic oracle.

mod common;

use std::sync::Arc;

use common::{assert_all_paths_agree, random_trace, Shape, WIDTHS};
use crace::daemon::{Client, Endpoint, Server, ServerConfig};
use crace::spec::builtin;
use crace::{Spec, Trace};

const OBJECTS: u64 = 4;

fn start_server() -> Server {
    Server::start(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        ServerConfig::default(),
    )
    .expect("bind test server")
}

/// Streams `trace` to `server` as a fresh session and returns the final
/// report JSON. `chunk == 0` sends one framed line per write; otherwise
/// the whole framed body goes out in `chunk`-byte pieces.
fn stream_session(
    server: &Server,
    session: &str,
    trace: &Trace,
    spec: &Spec,
    workers: usize,
    chunk: usize,
) -> String {
    let mut client = Client::connect(server.endpoint()).expect("connect");
    client
        .hello(session, "dictionary", workers, None)
        .expect("HELLO accepted");
    if chunk == 0 {
        for event in trace.events() {
            client.send_event(event, spec).expect("send");
        }
    } else {
        let body = crace::cli::render_framed(trace, spec);
        client.send_chunked(body.as_bytes(), chunk).expect("send");
    }
    let (report, stats) = client.bye().expect("BYE accepted");
    assert_eq!(
        stats.get("events"),
        trace.len() as u64,
        "session `{session}`: daemon ingested a different event count"
    );
    assert_eq!(stats.get("torn"), 0, "clean session must not be torn");
    report
}

/// The headline: 100+ random programs, every worker width, chunk sizes
/// down to a single byte per write — wire report equals offline replay.
#[test]
fn daemon_reports_equal_offline_replay_on_random_programs() {
    let server = start_server();
    let spec = builtin::dictionary();
    // Chunk cycle: per-event lines, big chunks, awkward primes, and the
    // 1-byte dribble (kept for the smaller corpus below — it is slow).
    let chunks = [0usize, 4096, 17, 3];
    for seed in 0..100u64 {
        let trace = random_trace(&spec, Shape::Structured, seed, 100, OBJECTS);
        let offline = assert_all_paths_agree(&spec, &trace, OBJECTS).to_json();
        let workers = WIDTHS[seed as usize % WIDTHS.len()];
        let chunk = chunks[seed as usize % chunks.len()];
        let wire = stream_session(
            &server,
            &format!("rand-{seed}"),
            &trace,
            &spec,
            workers,
            chunk,
        );
        assert_eq!(
            wire, offline,
            "seed {seed}, {workers} worker(s), chunk {chunk}: daemon diverges from replay"
        );
    }
    server.shutdown();
}

/// A smaller corpus crossed against *every* width, plus the 1-byte
/// dribble — the pathological framing case where each socket read sees
/// a fragment of a record.
#[test]
fn every_width_and_the_one_byte_dribble_agree() {
    let server = start_server();
    let spec = builtin::dictionary();
    for seed in 1000..1010u64 {
        let trace = random_trace(&spec, Shape::Structured, seed, 60, OBJECTS);
        let offline = assert_all_paths_agree(&spec, &trace, OBJECTS).to_json();
        for workers in WIDTHS {
            let wire = stream_session(
                &server,
                &format!("width-{seed}-{workers}"),
                &trace,
                &spec,
                workers,
                0,
            );
            assert_eq!(wire, offline, "seed {seed}, {workers} worker(s)");
        }
        let dribbled = stream_session(&server, &format!("dribble-{seed}"), &trace, &spec, 2, 1);
        assert_eq!(dribbled, offline, "seed {seed}: dribble diverges");
    }
    server.shutdown();
}

/// Concurrent tenants: 2–8 clients stream different programs into one
/// daemon simultaneously; each gets exactly its own offline report.
#[test]
fn concurrent_tenants_each_get_their_own_report() {
    let server = Arc::new(start_server());
    for tenants in [2usize, 5, 8] {
        let mut workers_threads = Vec::new();
        for t in 0..tenants {
            let server = Arc::clone(&server);
            workers_threads.push(std::thread::spawn(move || {
                let spec = builtin::dictionary();
                let seed = 2000 + (tenants * 100 + t) as u64;
                let trace = random_trace(&spec, Shape::Structured, seed, 120, OBJECTS);
                let offline = assert_all_paths_agree(&spec, &trace, OBJECTS).to_json();
                let wire = stream_session(
                    &server,
                    &format!("tenant-{tenants}-{t}"),
                    &trace,
                    &spec,
                    WIDTHS[t % WIDTHS.len()],
                    [0usize, 64][t % 2],
                );
                assert_eq!(
                    wire, offline,
                    "tenant {t}/{tenants}: report cross-contaminated or diverged"
                );
            }));
        }
        for handle in workers_threads {
            handle.join().expect("tenant thread panicked");
        }
        assert_eq!(server.active_sessions(), 0, "sessions leaked");
    }
}

/// Interim REPORTs mid-stream are a read-only barrier: they must be
/// valid JSON, monotone in total, and must not perturb the final report.
#[test]
fn interim_reports_do_not_perturb_the_final_report() {
    let server = start_server();
    let spec = builtin::dictionary();
    let trace = random_trace(&spec, Shape::Structured, 77, 150, OBJECTS);
    let offline = assert_all_paths_agree(&spec, &trace, OBJECTS).to_json();
    let mut client = Client::connect(server.endpoint()).expect("connect");
    client
        .hello("interim", "dictionary", 4, None)
        .expect("HELLO");
    let mut last_total = 0u64;
    for (i, event) in trace.events().iter().enumerate() {
        client.send_event(event, &spec).expect("send");
        if i % 40 == 39 {
            let interim = client.report().expect("interim REPORT");
            crace::obs::json::validate(&interim).expect("interim report is valid JSON");
            let total = total_of(&interim);
            assert!(total >= last_total, "interim totals must be monotone");
            last_total = total;
        }
    }
    let (fin, _) = client.bye().expect("BYE");
    assert_eq!(fin, offline, "interim barriers perturbed the final report");
    assert!(total_of(&fin) >= last_total);
    server.shutdown();
}

/// The paper's fixture file, streamed verbatim (header line and all) the
/// way `crace submit` does, against the known answer and offline replay.
#[test]
fn fixture_trace_streams_verbatim_to_the_fixture_answer() {
    let server = start_server();
    let spec = builtin::dictionary();
    let body = std::fs::read_to_string("crates/cli/tests/data/fig3.framed.trace").unwrap();
    let trace = crace::cli::parse_trace(&body, &spec).unwrap();
    let offline = assert_all_paths_agree(&spec, &trace, OBJECTS).to_json();

    for (chunk, name) in [(4096usize, "fixture-whole"), (1, "fixture-dribble")] {
        let mut client = Client::connect(server.endpoint()).expect("connect");
        client.hello(name, "dictionary", 2, None).expect("HELLO");
        client.send_chunked(body.as_bytes(), chunk).expect("send");
        let (report, stats) = client.bye().expect("BYE");
        assert_eq!(report, offline, "{name}: fixture diverges");
        assert_eq!(stats.get("races"), 1, "{name}: fig3 has exactly one race");
        assert_eq!(stats.get("events"), trace.len() as u64);
    }
    server.shutdown();
}

/// Pulls `"total": N` out of a report JSON (first field, hand-written
/// deterministic writer — no parser needed).
fn total_of(report: &str) -> u64 {
    report
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"total\": "))
        .and_then(|v| v.trim_end_matches(',').parse().ok())
        .expect("report carries a total")
}
