//! Durable-state differential gate: kill the daemon at random record
//! boundaries, restart it, RESUME the session — the final report must be
//! bit-for-bit the uninterrupted (offline serial replay) report.
//!
//! The "kill" here is the in-process equivalent of SIGKILL: the first
//! server's in-memory state is discarded entirely, and the second server
//! reconstructs the session purely from what is durable on disk — the
//! last atomic checkpoint plus the flush-per-record capture file. The
//! suite also drives every fallback the recovery path promises to fail
//! *closed* through: no checkpoint at all, a corrupted or truncated
//! checkpoint, a capture with a torn tail (clipped with exact
//! `lost_bytes`/`lost_records` accounting), and the lineage rule that a
//! resumed session appends to its original capture instead of forking a
//! `-2` sibling.

mod common;

use std::time::{Duration, Instant};

use common::{assert_all_paths_agree, random_trace, Shape, Universe};
use crace::daemon::{Client, Endpoint, Server, ServerConfig};
use crace::spec::builtin;
use crace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OBJECTS: u64 = 4;

/// A fresh per-test record dir under the system temp dir.
fn record_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("crace-daemon-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_config(dir: &std::path::Path, checkpoint_every: u64) -> ServerConfig {
    ServerConfig {
        record_dir: Some(dir.to_path_buf()),
        checkpoint_every,
        ..ServerConfig::default()
    }
}

fn start(cfg: ServerConfig) -> Server {
    Server::start(&Endpoint::Tcp("127.0.0.1:0".to_string()), cfg).expect("bind test server")
}

/// "Kills" a daemon whose client connection was dropped: waits for the
/// torn finalization (so no handler thread still appends to the capture
/// — a real SIGKILL stops all writers at once), then discards the
/// server's in-memory state.
fn kill(server: Server) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_sessions() > 0 {
        assert!(Instant::now() < deadline, "torn finalization stuck");
        std::thread::sleep(Duration::from_millis(2));
    }
    server.shutdown();
}

/// Streams `trace[..kill_at]` into a fresh session, drops the
/// connection and [`kill`]s the daemon.
fn stream_then_kill(
    cfg: ServerConfig,
    session: &str,
    trace: &Trace,
    workers: usize,
    kill_at: usize,
) {
    let spec = builtin::dictionary();
    let server = start(cfg);
    let mut client = Client::connect(server.endpoint()).expect("connect");
    client
        .hello(session, "dictionary", workers, None)
        .expect("HELLO accepted");
    for event in &trace.events()[..kill_at] {
        client.send_event(event, &spec).expect("send");
    }
    drop(client);
    kill(server);
}

/// Restarts the daemon on the same record dir, RESUMEs, resends from the
/// recovered sequence, and returns the final `(report, events)` plus the
/// restarted server (so callers can inspect its counters).
fn resume_and_finish(
    cfg: ServerConfig,
    session: &str,
    trace: &Trace,
    workers: usize,
) -> (String, u64, Server) {
    let spec = builtin::dictionary();
    let server = start(cfg);
    let mut client = Client::connect(server.endpoint()).expect("connect");
    let (ok, recovered) = client
        .resume(session, trace.len() as u64, "dictionary", workers)
        .expect("RESUME accepted");
    assert!(ok.starts_with("OK craced/1 resume "), "bad reply: {ok}");
    assert!(
        recovered <= trace.len() as u64,
        "recovered {recovered} past what was ever sent"
    );
    for event in &trace.events()[recovered as usize..] {
        client.send_event(event, &spec).expect("resend");
    }
    let (report, stats) = client.bye().expect("BYE accepted");
    assert_eq!(stats.get("torn"), 0, "resumed session must close clean");
    (report, stats.get("events"), server)
}

/// The headline gate: 100 random kill points (20 programs × 5 cuts) over
/// serial and sharded sessions — every resumed report is byte-identical
/// to the uninterrupted offline replay.
#[test]
fn killed_and_resumed_sessions_report_bit_for_bit() {
    let spec = builtin::dictionary();
    let widths = [0usize, 1, 2, 4, 8];
    for seed in 0..20u64 {
        let trace = random_trace(
            &spec,
            Shape::Structured,
            Universe::Small,
            seed,
            120,
            OBJECTS,
        );
        let offline = assert_all_paths_agree(&spec, &trace, OBJECTS).to_json();
        let workers = widths[seed as usize % widths.len()];
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        for cut in 0..5 {
            let kill_at = rng.gen_range(0..=trace.len());
            let dir = record_dir(&format!("kill-{seed}-{cut}"));
            let session = format!("k{seed}-{cut}");
            stream_then_kill(durable_config(&dir, 16), &session, &trace, workers, kill_at);
            let (report, events, server) =
                resume_and_finish(durable_config(&dir, 16), &session, &trace, workers);
            assert_eq!(
                report, offline,
                "seed {seed} cut {cut} (kill at {kill_at}, {workers} workers): \
                 resumed report diverges from the uninterrupted run"
            );
            assert_eq!(events, trace.len() as u64, "seed {seed} cut {cut}");
            assert_eq!(
                server.registry().counter("daemon.sessions_resumed").get(),
                1
            );
            server.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A checkpoint restores at any width: a session killed at one worker
/// count and resumed at another (serial ↔ sharded, wide → narrow)
/// restores from its checkpoint — no capture-replay fallback — and still
/// reports bit-for-bit.
#[test]
fn resume_at_a_changed_width_restores_from_the_checkpoint() {
    let spec = builtin::dictionary();
    for (i, (before, after)) in [(0usize, 4usize), (2, 0), (8, 1)].into_iter().enumerate() {
        let trace = random_trace(
            &spec,
            Shape::Structured,
            Universe::Small,
            107 + i as u64,
            140,
            OBJECTS,
        );
        let offline = assert_all_paths_agree(&spec, &trace, OBJECTS).to_json();
        let dir = record_dir(&format!("width-{i}"));
        let session = format!("width-{i}");
        stream_then_kill(durable_config(&dir, 16), &session, &trace, before, 100);
        assert!(
            dir.join(format!("{session}.ckpt")).exists(),
            "{before}->{after}: no checkpoint to resume from"
        );
        let (report, events, server) =
            resume_and_finish(durable_config(&dir, 16), &session, &trace, after);
        assert_eq!(
            report, offline,
            "{before}->{after} workers: resumed report diverges from the uninterrupted run"
        );
        assert_eq!(events, trace.len() as u64, "{before}->{after}");
        let counter = |name: &str| server.registry().counter(name).get();
        assert_eq!(counter("daemon.sessions_resumed"), 1, "{before}->{after}");
        assert_eq!(
            counter("daemon.checkpoint_restore_failures"),
            0,
            "{before}->{after}: the checkpoint must serve the resume"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// With checkpointing disabled the resume falls back to a full capture
/// replay and still reports bit-for-bit.
#[test]
fn resume_without_a_checkpoint_replays_the_full_capture() {
    let spec = builtin::dictionary();
    let trace = random_trace(&spec, Shape::Structured, Universe::Small, 31, 150, OBJECTS);
    let offline = assert_all_paths_agree(&spec, &trace, OBJECTS).to_json();
    let dir = record_dir("nockpt");
    stream_then_kill(durable_config(&dir, 0), "nockpt", &trace, 2, 90);
    assert!(
        !dir.join("nockpt.ckpt").exists(),
        "checkpoint_every=0 must write no checkpoint"
    );
    let (report, events, server) = resume_and_finish(durable_config(&dir, 0), "nockpt", &trace, 2);
    assert_eq!(report, offline);
    assert_eq!(events, trace.len() as u64);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Byte offset of a session `.ckpt`'s seam: where the detector's own
/// `rd2` checkpoint starts, right after the session header.
fn seam(ckpt: &[u8]) -> usize {
    let text = std::str::from_utf8(ckpt).expect("checkpoints are text");
    text.find("\n#%crace-ckpt v1 rd2\n")
        .expect("a detector checkpoint follows the session header")
        + 1
}

/// Rewrites a session `.ckpt` into the retired layout: the `meta` record
/// with its worker count and the detector checkpoint escaped into one
/// nested `detector` record of the session blob.
fn nest_detector_record(b: &mut Vec<u8>) {
    use crace::vclock::ckpt::{esc, unframe, CkptWriter};
    let at = seam(b);
    let text = std::str::from_utf8(b).unwrap();
    let mut w = CkptWriter::new("craced-session");
    for line in text[..at].lines().skip(1) {
        match unframe(line).unwrap().split_once(' ').unwrap() {
            ("meta", rest) => {
                let (spec, seq) = rest.split_once(' ').unwrap();
                w.rec(&format!("meta {spec} 4 {seq}"));
            }
            ("end", _) => {}
            (tag, rest) => w.rec(&format!("{tag} {rest}")),
        }
    }
    w.rec(&format!("detector {}", esc(&text[at..])));
    *b = w.finish().into_bytes();
}

/// Damaged checkpoints — flipped bytes in the `rd2` tail or the session
/// header, truncation, plain garbage, a missing or bare detector
/// checkpoint, the retired nested layout — must fail closed: the restore
/// is abandoned, the capture is replayed in full, and the report is
/// still exact.
#[test]
fn corrupt_checkpoints_fall_closed_to_capture_replay() {
    let spec = builtin::dictionary();
    let trace = random_trace(&spec, Shape::Structured, Universe::Small, 47, 140, OBJECTS);
    let offline = assert_all_paths_agree(&spec, &trace, OBJECTS).to_json();
    for (i, corrupt) in [
        |b: &mut Vec<u8>| {
            let mid = b.len() / 2;
            b[mid] = b[mid].wrapping_add(1);
        },
        |b: &mut Vec<u8>| b.truncate(b.len() / 3),
        |b: &mut Vec<u8>| *b = b"#%crace-ckpt v9 craced-session\n".to_vec(),
        |b: &mut Vec<u8>| {
            let at = seam(b) / 2;
            b[at] = b[at].wrapping_add(1);
        },
        |b: &mut Vec<u8>| b.truncate(seam(b)),
        |b: &mut Vec<u8>| *b = b.split_off(seam(b)),
        nest_detector_record,
    ]
    .iter()
    .enumerate()
    {
        let dir = record_dir(&format!("corrupt-{i}"));
        let session = format!("corrupt-{i}");
        stream_then_kill(durable_config(&dir, 16), &session, &trace, 4, 100);
        let ckpt = dir.join(format!("{session}.ckpt"));
        let mut bytes = std::fs::read(&ckpt).expect("a checkpoint was written");
        corrupt(&mut bytes);
        std::fs::write(&ckpt, &bytes).unwrap();
        let (report, events, server) =
            resume_and_finish(durable_config(&dir, 16), &session, &trace, 4);
        assert_eq!(
            report, offline,
            "variant {i}: corrupt checkpoint leaked state"
        );
        assert_eq!(events, trace.len() as u64);
        assert!(
            server
                .registry()
                .counter("daemon.checkpoint_restore_failures")
                .get()
                >= 1,
            "variant {i}: the failed restore must be counted"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A record that is valid but not in canonical form — hex locations, no
/// space after argument commas — is captured as it came over the wire,
/// not re-rendered; the resumed session replays it from the capture and
/// still reports bit-for-bit.
#[test]
fn non_canonical_records_are_captured_verbatim_and_resume_exactly() {
    let spec = builtin::dictionary();
    let trace = random_trace(&spec, Shape::Structured, Universe::Small, 83, 120, OBJECTS);
    let offline = assert_all_paths_agree(&spec, &trace, OBJECTS).to_json();
    let sent: Vec<String> = crace::cli::render_trace(&trace, &spec)
        .lines()
        .map(|text| {
            let text = match text.split_once(" @") {
                Some((head, loc)) => format!("{head} @0x{:x}", loc.parse::<u64>().unwrap()),
                None => text.replace(", ", ","),
            };
            let mut line = String::new();
            crace::vclock::ckpt::frame(&mut line, &text);
            line
        })
        .collect();
    let canonical: Vec<String> = trace
        .iter()
        .map(|event| crace::cli::frame_event(event, &spec))
        .collect();
    let differ = sent.iter().zip(&canonical).filter(|(a, b)| a != b).count();
    assert!(differ > 10, "only {differ} records differ from a re-render");
    let kill_at = 70;
    let dir = record_dir("verbatim");
    let server = start(durable_config(&dir, 16));
    let mut client = Client::connect(server.endpoint()).expect("connect");
    client
        .hello("verbatim", "dictionary", 2, None)
        .expect("HELLO accepted");
    for line in &sent[..kill_at] {
        client
            .send_raw(format!("{line}\n").as_bytes())
            .expect("send");
    }
    drop(client);
    kill(server);
    let (report, events, server) =
        resume_and_finish(durable_config(&dir, 16), "verbatim", &trace, 2);
    assert_eq!(report, offline, "non-canonical capture replayed wrongly");
    assert_eq!(events, trace.len() as u64);
    assert_eq!(
        server
            .registry()
            .counter("daemon.checkpoint_restore_failures")
            .get(),
        0
    );
    let mut wire = format!("{}\n", crace::cli::FRAMED_HEADER);
    for line in sent[..kill_at].iter().chain(&canonical[kill_at..]) {
        wire.push_str(line);
        wire.push('\n');
    }
    let capture = std::fs::read_to_string(dir.join("verbatim.framed.trace")).unwrap();
    assert_eq!(capture, wire, "the capture must hold the bytes sent");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A capture with a torn tail — the record that was mid-write at the
/// kill — is clipped back to the valid prefix with exact byte/record
/// accounting in the RESUME reply, and the resend covers the clipped
/// record so nothing is lost end-to-end.
#[test]
fn torn_capture_tails_are_clipped_with_exact_accounting() {
    let spec = builtin::dictionary();
    let trace = random_trace(&spec, Shape::Structured, Universe::Small, 59, 130, OBJECTS);
    let offline = assert_all_paths_agree(&spec, &trace, OBJECTS).to_json();
    let dir = record_dir("torn");
    stream_then_kill(durable_config(&dir, 32), "torn", &trace, 2, 80);
    // Half a record, no newline: exactly what a SIGKILL mid-write leaves.
    let tail = b"=41:0000";
    let capture = dir.join("torn.framed.trace");
    {
        use std::io::Write;
        let mut f = std::fs::File::options()
            .append(true)
            .open(&capture)
            .unwrap();
        f.write_all(tail).unwrap();
    }
    let server = start(durable_config(&dir, 32));
    let mut client = Client::connect(server.endpoint()).expect("connect");
    let (ok, recovered) = client
        .resume("torn", trace.len() as u64, "dictionary", 2)
        .expect("RESUME accepted");
    let field = |k: &str| -> u64 {
        ok.split_whitespace()
            .find_map(|w| w.strip_prefix(&format!("{k}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("reply lacks {k}=: {ok}"))
    };
    assert_eq!(field("lost_bytes"), tail.len() as u64, "{ok}");
    assert_eq!(field("lost_records"), 1, "{ok}");
    assert_eq!(recovered, 80, "the valid prefix is everything sent");
    for event in &trace.events()[recovered as usize..] {
        client.send_event(event, &spec).expect("resend");
    }
    let (report, stats) = client.bye().expect("BYE");
    assert_eq!(report, offline, "clipped tail leaked into the report");
    assert_eq!(stats.get("events"), trace.len() as u64);
    // The clipped capture was healed in place: it now parses whole.
    let text = std::fs::read_to_string(&capture).unwrap();
    let (reparsed, torn) = crace::cli::parse_framed_tolerant(&text, &spec);
    assert!(
        torn.is_none(),
        "capture still torn after clipping: {torn:?}"
    );
    assert_eq!(reparsed.len(), trace.len(), "capture lineage incomplete");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The lineage audit: a resumed session appends to its original capture
/// file — no `-2` sibling is forked, and the single capture ends up
/// holding the entire stream.
#[test]
fn resumed_sessions_append_to_their_original_capture_lineage() {
    let spec = builtin::dictionary();
    let trace = random_trace(&spec, Shape::Structured, Universe::Small, 73, 110, OBJECTS);
    let dir = record_dir("lineage");
    stream_then_kill(durable_config(&dir, 16), "lineage", &trace, 0, 60);
    let (_, _, server) = resume_and_finish(durable_config(&dir, 16), "lineage", &trace, 0);
    server.shutdown();
    assert!(dir.join("lineage.framed.trace").exists());
    assert!(
        !dir.join("lineage-2.framed.trace").exists(),
        "resume forked a -2 capture lineage"
    );
    let text = std::fs::read_to_string(dir.join("lineage.framed.trace")).unwrap();
    let (reparsed, torn) = crace::cli::parse_framed_tolerant(&text, &spec);
    assert!(torn.is_none());
    assert_eq!(
        reparsed.events(),
        trace.events(),
        "the original capture must hold the whole stream"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A clean BYE retires the session's checkpoint: nothing is left to
/// resume, and a future session reusing the name starts unshadowed.
#[test]
fn clean_bye_retires_the_checkpoint() {
    let spec = builtin::dictionary();
    let trace = random_trace(&spec, Shape::Structured, Universe::Small, 91, 120, OBJECTS);
    let dir = record_dir("retire");
    let server = start(durable_config(&dir, 8));
    let mut client = Client::connect(server.endpoint()).expect("connect");
    client
        .hello("retire", "dictionary", 2, None)
        .expect("HELLO");
    for event in trace.events() {
        client.send_event(event, &spec).expect("send");
    }
    // Mid-session, checkpoints exist …
    client.report().expect("interim REPORT");
    assert!(
        dir.join("retire.ckpt").exists(),
        "checkpoint_every=8 over 100+ records must have checkpointed"
    );
    let (_, stats) = client.bye().expect("BYE");
    assert!(stats.get("checkpoint_seq") > 0, "STATS carries the seq");
    // … and a clean close retires them.
    assert!(
        !dir.join("retire.ckpt").exists(),
        "clean BYE must delete the checkpoint"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
