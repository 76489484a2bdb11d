//! Daemon streaming: an in-process [`Server`] on a Unix socket, driven by
//! one [`Client`] on one connection, closed loop — every `REPORT` waits
//! for its reply before more records go out.
//!
//! `stream-narrow` streams exactly `replay-narrow`'s events, so the two
//! differ only in the wire plane. `stream-durable` runs the daemon with a
//! capture directory and its default checkpoint cadence, drops the
//! connection part-way and resumes the session with `RESUME`.

use crate::harness::{self, phase_ns, span, timed, Opts, Outcome, Spans};
use crate::replay::{self, Input, Shape};
use crate::stats::median;
use crace_core::TraceDetector;
use crace_daemon::{Client, Endpoint, Server, ServerConfig, Session, SessionConfig, WireStats};
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Client write size.
const CHUNK: usize = 64 * 1024;

/// How long a full ingress ring may stall a data-plane record before the
/// daemon sheds it. Far above the default so that a descheduled
/// dispatcher on a busy host shows up as latency, not as lost records:
/// every pass must be lossless to be correct.
const SHED_GRACE: Duration = Duration::from_secs(5);

/// What a streaming workload sends.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// The generated trace.
    pub shape: Shape,
    /// `REPORT` after every this many records.
    pub every: usize,
    /// Drop the connection after this many records and `RESUME`.
    pub drop_at: Option<usize>,
    /// Run the daemon with a capture directory (and so checkpoints).
    pub durable: bool,
}

/// `replay-narrow`'s events, a `REPORT` every 10 000 records.
pub const NARROW: Plan = Plan {
    shape: replay::NARROW,
    every: replay::REPORT_EVERY,
    drop_at: None,
    durable: false,
};

/// The first 30 000 events of the `replay-dense` shape, a `REPORT` every
/// 500 records, the connection dropped after record 20 000.
pub const DURABLE: Plan = Plan {
    shape: Shape {
        body: 30_000 - 3 * 256,
        ..replay::DENSE
    },
    every: 500,
    drop_at: Some(20_000),
    durable: true,
};

impl Plan {
    fn smoke(self) -> Plan {
        if self.durable {
            Plan {
                shape: Shape {
                    body: 3_000 - 3 * 256,
                    ..self.shape
                },
                every: 500,
                drop_at: Some(2_000),
                ..self
            }
        } else {
            Plan {
                shape: Shape {
                    body: 4_000,
                    ..self.shape
                },
                every: replay::SMOKE_REPORT_EVERY,
                ..self
            }
        }
    }
}

struct Setup {
    plan: Plan,
    input: Input,
    /// Byte offset of every record in `input.records()`, plus the end.
    offsets: Vec<usize>,
    server: Server,
    capture_dir: Option<PathBuf>,
    checkpoint_every: u64,
    ring_capacity: usize,
}

impl Setup {
    fn records(&self) -> usize {
        self.offsets.len() - 1
    }

    fn remove_capture(&self, session: &str) {
        if let Some(dir) = &self.capture_dir {
            let _ = std::fs::remove_file(dir.join(format!("{session}.framed.trace")));
        }
    }
}

fn start(opts: &Opts, plan: Plan) -> Result<Setup, String> {
    let input = Input::generate(plan.shape, opts.seed, plan.every);
    let mut offsets = vec![0];
    offsets.extend(
        input
            .records()
            .bytes()
            .enumerate()
            .filter(|&(_, b)| b == b'\n')
            .map(|(i, _)| i + 1),
    );
    let capture_dir = plan.durable.then(|| opts.run_dir.join("captures"));
    let cfg = ServerConfig {
        shed_grace: SHED_GRACE,
        record_dir: capture_dir.clone(),
        // Retained outcomes hold whole reports; keeping few makes peak
        // memory independent of how many passes fit in the run.
        outcome_capacity: 2,
        ..ServerConfig::default()
    };
    let (checkpoint_every, ring_capacity) = (cfg.checkpoint_every, cfg.ring_capacity);
    let endpoint = Endpoint::Unix(opts.run_dir.join("craced.sock"));
    let server =
        Server::start(&endpoint, cfg).map_err(|e| format!("cannot start the daemon: {e}"))?;
    Ok(Setup {
        plan,
        input,
        offsets,
        server,
        capture_dir,
        checkpoint_every,
        ring_capacity,
    })
}

/// One streamed session.
struct StreamPass {
    wall: f64,
    /// Seconds spent dropping the connection and resuming.
    resume_wall: f64,
    reports: Vec<f64>,
    resume_ms: Option<f64>,
    stats: WireStats,
}

fn wait_idle(server: &Server) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.active_sessions() > 0 {
        if Instant::now() > deadline {
            return Err("dropped session never finalized".to_string());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

/// Streams the first `upto` records as session `name` — `REPORT` at the
/// plan's cadence, an optional drop and `RESUME` at `drop_at`, then `BYE`
/// — and checks every report against offline replay.
fn stream_pass(
    s: &Setup,
    name: &str,
    upto: usize,
    drop_at: Option<usize>,
    spans: Option<&Spans>,
) -> Result<StreamPass, String> {
    let endpoint = s.server.endpoint();
    let records = s.input.records().as_bytes();
    let every = s.plan.every;
    let connect = || Client::connect(endpoint).map_err(|e| format!("connect: {e}"));
    let t0 = Instant::now();
    let mut client = {
        let _s = span(spans, "stream.hello");
        let mut c = connect()?;
        c.hello(name, "dictionary", 0, None)
            .map_err(|e| format!("HELLO: {e}"))?;
        c
    };
    let mut sent = 0;
    let mut reports = Vec::new();
    let mut resume_ms = None;
    let mut resume_wall = 0.0;
    while sent < upto {
        let mut end = ((sent / every + 1) * every).min(upto);
        if let Some(d) = drop_at.filter(|&d| sent < d && d < end) {
            end = d;
        }
        {
            let _s = span(spans, "stream.send");
            client
                .send_chunked(&records[s.offsets[sent]..s.offsets[end]], CHUNK)
                .map_err(|e| format!("send: {e}"))?;
        }
        sent = end;
        if drop_at == Some(sent) {
            let t = Instant::now();
            {
                let _s = span(spans, "stream.drop");
                drop(client);
                wait_idle(&s.server)?;
            }
            let _s = span(spans, "stream.resume");
            let mut c = connect()?;
            let (resumed, secs) = timed(|| c.resume(name, sent as u64, "dictionary", 0));
            let (reply, seq) = resumed.map_err(|e| format!("RESUME: {e}"))?;
            resume_ms = Some(secs * 1e3);
            if seq != sent as u64 || !reply.contains("lost_bytes=0 lost_records=0") {
                return Err(format!("RESUME after {sent} records: `{reply}`"));
            }
            client = c;
            resume_wall = t.elapsed().as_secs_f64();
        }
        if sent % every == 0 {
            let _s = span(spans, "stream.report");
            let (json, secs) = timed(|| client.report());
            let json = json.map_err(|e| format!("REPORT: {e}"))?;
            reports.push(secs * 1e3);
            if json != s.input.reference_at(sent) {
                return Err(format!(
                    "interim report after {sent} records differs from offline replay"
                ));
            }
        }
    }
    let (json, stats) = {
        let _s = span(spans, "stream.bye");
        client.bye().map_err(|e| format!("BYE: {e}"))?
    };
    let wall = t0.elapsed().as_secs_f64();
    s.remove_capture(name);
    if json != s.input.reference_at(upto) {
        return Err("final streamed report differs from offline replay".to_string());
    }
    let lost = stats.get("shed_ring") + stats.get("shed_quarantine") + stats.get("lost_records");
    if lost != 0 || stats.get("torn") != 0 || stats.get("events") != upto as u64 {
        return Err(format!("lossy stream: {:?}", stats.fields));
    }
    Ok(StreamPass {
        wall,
        resume_wall,
        reports,
        resume_ms,
        stats,
    })
}

/// The daemon's per-session work without the socket: the same records
/// through `Session::ingest_line`, the same report cadence and, when
/// durable, the same capture file and checkpoint cadence the server
/// applies. Returns the wall time.
fn session_pass(s: &Setup, name: &str) -> Result<f64, String> {
    let input = &s.input;
    let capture: Option<Box<dyn Write + Send>> = match &s.capture_dir {
        Some(dir) => {
            let path = dir.join(format!("{name}.framed.trace"));
            let file =
                std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            Some(Box::new(file))
        }
        None => None,
    };
    let cfg = SessionConfig {
        workers: 0,
        ring_capacity: s.ring_capacity,
        shed_grace: SHED_GRACE,
        faults: None,
        capture_name: capture.is_some().then(|| format!("{name}.framed.trace")),
        record_to: capture,
        traced: false,
    };
    let t0 = Instant::now();
    let session = Session::spawn(
        name,
        "dictionary",
        input.spec.clone(),
        input.compiled.clone(),
        cfg,
    )
    .map_err(|e| format!("session: {e}"))?;
    let every = s.plan.every;
    for (i, line) in input.records().lines().enumerate() {
        session
            .ingest_line(line)
            .map_err(|e| format!("ingest: {e}"))?;
        let seq = (i + 1) as u64;
        if let (Some(dir), true) = (&s.capture_dir, seq.is_multiple_of(s.checkpoint_every)) {
            let (blob, at) = session.checkpoint_blob();
            harness::write_checkpoint_file(dir, name, &blob)?;
            session.note_checkpoint(at);
        }
        if (i + 1) % every == 0 && session.report_now().to_json() != input.reference_at(i + 1) {
            return Err("in-process interim report differs from offline replay".to_string());
        }
    }
    let outcome = session.finalize(true, None);
    let wall = t0.elapsed().as_secs_f64();
    s.remove_capture(name);
    if outcome.report_json != input.reference.last {
        return Err("in-process final report differs from offline replay".to_string());
    }
    Ok(wall)
}

#[derive(Default)]
struct Phase {
    walls: Vec<f64>,
    resume_walls: Vec<f64>,
    rates: Vec<f64>,
    reports: Vec<f64>,
    resumes: Vec<f64>,
    shed: u64,
}

fn measure(s: &Setup, opts: &Opts, tag: &str, spans: Option<&Spans>, out: &mut Outcome) -> Phase {
    let mut phase = Phase::default();
    let n = s.records();
    harness::run_for(opts.phase_time(), 3, |i| {
        match stream_pass(s, &format!("{tag}{i}"), n, s.plan.drop_at, spans) {
            Ok(p) => {
                out.check(true, n as u64, String::new);
                phase.walls.push(p.wall);
                phase.resume_walls.push(p.resume_wall);
                phase.rates.push(n as f64 / p.wall);
                phase.reports.extend_from_slice(&p.reports);
                phase.resumes.extend(p.resume_ms);
                phase.shed += p.stats.get("shed_ring");
            }
            Err(e) => out.check(false, n as u64, || e),
        }
    });
    phase
}

/// Per-layer metrics no streaming pass crosses on its blocking path.
const NOT_ON_STREAM_PATH: [&str; 11] = [
    "parallel.speedup_w2",
    "parallel.worker_skew",
    "parallel.events_shed",
    "runtime.rd2_slowdown",
    "runtime.fasttrack_slowdown",
    "runtime.events_per_op",
    "share.decode",
    "share.sync",
    "share.detect",
    "share.parallel",
    "share.app",
];

/// Runs `stream-narrow` or `stream-durable`.
pub fn run(opts: &Opts, name: &str, plan: Plan) -> Outcome {
    let mut out = Outcome::default();
    let plan = if opts.smoke { plan.smoke() } else { plan };
    // Set-up: generation, framing, reference reports, daemon start, and
    // one warm-up session over a prefix (with the drop and resume).
    let (setup, setup_s) = harness::repeated_setup(|| {
        let s = start(opts, plan)?;
        let prefix = (s.records() / 4 / plan.every).max(1) * plan.every;
        let warm_drop = plan
            .drop_at
            .map(|_| (prefix / 2 / plan.every).max(1) * plan.every);
        let warm_drop = warm_drop.filter(|&d| d < prefix);
        stream_pass(&s, "warmup", prefix.min(s.records()), warm_drop, None)?;
        Ok::<_, String>(s)
    });
    let s = match setup {
        Ok(s) => s,
        Err(e) => {
            out.check(false, 1, || e);
            return out;
        }
    };
    let oracle = replay::oracle_check(&s.input, replay::ORACLE_PREFIX);
    out.check(oracle.is_ok(), 1, || format!("{oracle:?}"));

    let untraced = measure(&s, opts, "p", None, &mut out);
    out.note(format!("passes: {}", untraced.walls.len()));
    out.note(harness::latency_note(&untraced.reports));
    if plan.drop_at.is_some() {
        out.note(format!(
            "resume_ms p50: {:.3} over {} resumes",
            median(&untraced.resumes),
            untraced.resumes.len()
        ));
    }
    if !opts.trace {
        out.set("events_per_s", median(&untraced.rates));
        out.set("report_ms_p50", median(&untraced.reports));
        out.set("peak_rss_mb", harness::peak_rss_mb());
        out.set("setup_s", setup_s);
        return out;
    }

    let spans = Spans::new();
    let checkpoints = || {
        s.server
            .registry()
            .counter("daemon.checkpoints_written")
            .get()
    };
    let before = checkpoints();
    let traced = measure(&s, opts, "t", Some(&spans), &mut out);
    let written = checkpoints() - before;
    // The same records through the session alone, for the transport share.
    let mut inproc = Vec::new();
    harness::run_for(opts.phase_time() / 3, 1, |i| {
        let _s = spans.span("session.pass");
        match session_pass(&s, &format!("inproc{i}")) {
            Ok(w) => inproc.push(w),
            Err(e) => out.check(false, 0, || e),
        }
    });
    let totals = match spans.totals() {
        Ok(t) => t,
        Err(e) => {
            out.check(false, 0, || e);
            return out;
        }
    };
    let wall: f64 = traced.walls.iter().sum::<f64>() * 1e9;
    let ns = |p: &str| phase_ns(&totals, p);
    let wire = ns("stream.hello") + ns("stream.send") + ns("stream.bye");
    let report = ns("stream.report");
    let resume = ns("stream.drop") + ns("stream.resume");
    out.set("share.wire", wire / wall);
    out.set("share.report", report / wall);
    out.set("share.resume", resume / wall);
    out.set("layers.sum_over_wall", (wire + report + resume) / wall);
    let socket: Vec<f64> = traced
        .walls
        .iter()
        .zip(&traced.resume_walls)
        .map(|(w, r)| w - r)
        .collect();
    out.set(
        "daemon.transport_share",
        1.0 - median(&inproc) / median(&socket),
    );
    out.set("ring.shed", traced.shed as f64);
    out.set(
        "ckpt.per_pass",
        written as f64 / traced.walls.len().max(1) as f64,
    );
    out.set(
        "trace.overhead",
        median(&traced.walls) / median(&untraced.walls),
    );

    // Detector layers, measured by replaying the streamed events through
    // the serial detector the session runs.
    let det = replay::fresh_detector(&s.input.compiled, s.input.objects);
    let mut renders = Vec::new();
    let probe = {
        let _s = spans.span("replay.probe");
        replay::detect_with_reports(
            &det,
            s.input.trace.events(),
            &s.input,
            Some(&spans),
            &mut renders,
        )
    };
    match probe {
        Ok(json) => {
            let totals = spans.totals().unwrap_or_default();
            let sync = phase_ns(&totals, "sync");
            let syncs = harness::phase_count(&totals, "sync").max(1) as f64;
            out.set("sync.ns_per_sync_event", sync / syncs);
            out.set(
                "detect.ns_per_action",
                (phase_ns(&totals, "detect") - sync) / s.input.actions() as f64,
            );
            out.set("report.render_ms", median(&renders));
            replay::detector_metrics(&det, &s.input, &json, &mut out);
            replay::checkpoint_probe(&det, &TraceDetector::new(), opts, &mut out, &spans);
        }
        Err(e) => out.check(false, 0, || e),
    }
    replay::framing_probe(&s.input, &mut out);
    out.set_zero(&NOT_ON_STREAM_PATH);
    harness::finish_trace(opts, name, &spans, &mut out);
    out
}
