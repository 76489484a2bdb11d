//! The daemon server: a Unix-domain or TCP listener multiplexing
//! concurrent detection sessions, std-only, thread-per-connection.
//!
//! The accept loop is bounded (at most [`ServerConfig::max_connections`]
//! handler threads; excess connections get one `ERR` line and a close),
//! and each connection speaks either:
//!
//! * the control protocol of [`crate::protocol`] — `HELLO`, framed
//!   records, `REPORT`, `BYE` — driving exactly one session, or
//! * HTTP, sniffed from a leading `GET `: `/metrics` answers the
//!   Prometheus text exposition, `/metrics.json` (or
//!   `/metrics?format=json`) the JSON rendering. The scrape merges the
//!   server's own registry with every live session's, prefixed
//!   `session.<name>.` — the hand-written writers from `crace-obs`, no
//!   HTTP library.
//!
//! A client disconnect or damaged record finalizes the session as
//! *torn*: the valid prefix is still reported (the same recovery
//! posture as `parse_framed_tolerant`), with exact lost-bytes/records
//! accounting, and the outcome is retained server-side so nothing about
//! the tenant's run is lost with the connection.

use crate::client::Transport;
use crate::protocol::{parse_request, Request, Resume, MAX_LINE_BYTES};
use crate::session::{peek_checkpoint_meta, Session, SessionConfig, SessionOutcome, StreamDamage};
use crace_cli::{parse_framed_tolerant, FRAMED_HEADER};
use crace_core::{translate, CompiledSpec};
use crace_obs::{Registry, Snapshot};
use crace_runtime::FaultPlan;
use crace_spec::{builtin, Spec};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Where a server listens (or a client connects).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address like `127.0.0.1:7414` (port 0 picks a free port).
    Tcp(String),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// Server configuration. The defaults suit tests and small deployments;
/// `crace serve` exposes the interesting ones as flags.
pub struct ServerConfig {
    /// Worker count for sessions whose HELLO has no `workers=` option.
    pub default_workers: usize,
    /// Per-session ingress ring capacity (events).
    pub ring_capacity: usize,
    /// Grace a data-plane push waits on a full ring before shedding.
    pub shed_grace: Duration,
    /// Handler-thread bound; further connections are turned away.
    pub max_connections: usize,
    /// Accept `faults=` HELLO options (the chaos test plane). A
    /// production `crace serve` keeps this off unless `--allow-faults`.
    pub allow_faults: bool,
    /// When set, every session's intact records are captured to
    /// `<dir>/<session>.framed.trace` (collision-safe suffixes).
    pub record_dir: Option<PathBuf>,
    /// When set, every session records a span timeline, written to
    /// `<dir>/<session>.spans.json` at finalize.
    pub trace_dir: Option<PathBuf>,
    /// How many finished-session outcomes to retain for inspection.
    pub outcome_capacity: usize,
    /// Write a durable session checkpoint every this many ingested
    /// records (`0` disables checkpointing). Requires `record_dir` —
    /// a checkpoint without its capture tail cannot catch up to the
    /// present, so none is written.
    pub checkpoint_every: u64,
    /// Also checkpoint when the last one is older than this *and* new
    /// records arrived since (checked on ingest; an idle session has
    /// nothing new to make durable).
    pub checkpoint_max_age: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            default_workers: 0,
            ring_capacity: 4096,
            shed_grace: Duration::from_millis(50),
            max_connections: 64,
            allow_faults: true,
            record_dir: None,
            trace_dir: None,
            outcome_capacity: 128,
            checkpoint_every: 256,
            checkpoint_max_age: Duration::from_secs(5),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

struct Inner {
    cfg: ServerConfig,
    registry: Registry,
    stop: AtomicBool,
    active_conns: AtomicUsize,
    sessions: Mutex<HashMap<String, Arc<Session>>>,
    outcomes: Mutex<OutcomeLog>,
    specs: Mutex<HashMap<String, (Spec, Arc<CompiledSpec>)>>,
}

/// Bounded log of finished sessions: latest outcome per name wins,
/// oldest names evicted beyond the capacity.
#[derive(Default)]
struct OutcomeLog {
    by_name: HashMap<String, SessionOutcome>,
    order: Vec<String>,
}

impl OutcomeLog {
    fn insert(&mut self, outcome: SessionOutcome, capacity: usize) {
        let name = outcome.name.clone();
        if self.by_name.insert(name.clone(), outcome).is_none() {
            self.order.push(name);
        }
        while self.order.len() > capacity.max(1) {
            let evicted = self.order.remove(0);
            self.by_name.remove(&evicted);
        }
    }
}

/// A running daemon. Dropping it stops the accept loop (in-flight
/// connections finish on their own threads) and removes a Unix socket
/// file the server created.
pub struct Server {
    inner: Arc<Inner>,
    endpoint: Endpoint,
    accept_thread: Option<JoinHandle<()>>,
    socket_path: Option<PathBuf>,
}

impl Server {
    /// Binds `endpoint` and starts accepting.
    ///
    /// # Errors
    ///
    /// Propagates bind errors (address in use, bad path, …).
    pub fn start(endpoint: &Endpoint, cfg: ServerConfig) -> std::io::Result<Server> {
        let (listener, bound, socket_path) = match endpoint {
            Endpoint::Unix(path) => {
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                (
                    Listener::Unix(l),
                    Endpoint::Unix(path.clone()),
                    Some(path.clone()),
                )
            }
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                let bound = Endpoint::Tcp(l.local_addr()?.to_string());
                (Listener::Tcp(l), bound, None)
            }
        };
        let inner = Arc::new(Inner {
            cfg,
            registry: Registry::new(),
            stop: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            sessions: Mutex::new(HashMap::new()),
            outcomes: Mutex::new(OutcomeLog::default()),
            specs: Mutex::new(HashMap::new()),
        });
        let accept_inner = Arc::clone(&inner);
        let accept_thread = std::thread::Builder::new()
            .name("craced-accept".to_string())
            .spawn(move || accept_loop(accept_inner, listener))?;
        Ok(Server {
            inner,
            endpoint: bound,
            accept_thread: Some(accept_thread),
            socket_path,
        })
    }

    /// The endpoint actually bound (for `Tcp` with port 0, the real port).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Number of live sessions.
    pub fn active_sessions(&self) -> usize {
        self.inner
            .sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// The retained outcome of a finished session, if any.
    pub fn outcome(&self, name: &str) -> Option<SessionOutcome> {
        self.inner
            .outcomes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .by_name
            .get(name)
            .cloned()
    }

    /// The merged metrics snapshot (server + live sessions), exactly
    /// what `/metrics` renders.
    pub fn scrape(&self) -> Snapshot {
        scrape(&self.inner)
    }

    /// The server's own registry (connection/session totals).
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Stops accepting and joins the accept thread. Connection handler
    /// threads finish on their own (they exit when their client does).
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        if let Some(path) = self.socket_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

fn accept_loop(inner: Arc<Inner>, listener: Listener) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !inner.stop.load(Ordering::SeqCst) {
        let accepted = match &listener {
            Listener::Unix(l) => l.accept().map(|(s, _)| Transport::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Transport::Tcp(s)),
        };
        match accepted {
            Ok(conn) => {
                handlers.retain(|h| !h.is_finished());
                inner.registry.counter("daemon.connections").inc();
                if inner.active_conns.load(Ordering::Relaxed) >= inner.cfg.max_connections {
                    inner.registry.counter("daemon.connections_rejected").inc();
                    let mut conn = conn;
                    let _ = conn.write_all(b"ERR server at connection capacity\n");
                    continue;
                }
                inner.active_conns.fetch_add(1, Ordering::Relaxed);
                let conn_inner = Arc::clone(&inner);
                match std::thread::Builder::new()
                    .name("craced-conn".to_string())
                    .spawn(move || {
                        handle_connection(&conn_inner, conn);
                        conn_inner.active_conns.fetch_sub(1, Ordering::Relaxed);
                    }) {
                    Ok(handle) => handlers.push(handle),
                    Err(_) => {
                        inner.active_conns.fetch_sub(1, Ordering::Relaxed);
                        inner.registry.counter("daemon.connections_rejected").inc();
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    // Grace for handlers whose clients already hung up; live ones are
    // left to finish on their own.
    for handle in handlers {
        if handle.is_finished() {
            let _ = handle.join();
        }
    }
}

/// Reads one line (up to `\n`) with a hard size cap. Returns the raw
/// bytes without the newline, whether a newline terminated the line, or
/// `None` at EOF before any byte.
fn read_capped_line<R: BufRead>(reader: &mut R) -> std::io::Result<Option<(Vec<u8>, bool)>> {
    let mut buf = Vec::new();
    let n = reader
        .take((MAX_LINE_BYTES + 2) as u64)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    let newline = buf.last() == Some(&b'\n');
    if newline {
        buf.pop();
    }
    Ok(Some((buf, newline)))
}

fn handle_connection(inner: &Arc<Inner>, conn: Transport) {
    let writer = match conn.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(conn);
    let mut writer = writer;
    let first = match read_capped_line(&mut reader) {
        Ok(Some(line)) => line,
        _ => return,
    };
    if first.0.starts_with(b"GET ") {
        serve_http(inner, &mut reader, &mut writer, &first.0);
        return;
    }
    drive_protocol(inner, &mut reader, &mut writer, first);
}

fn drive_protocol(
    inner: &Arc<Inner>,
    reader: &mut BufReader<Transport>,
    writer: &mut Transport,
    first: (Vec<u8>, bool),
) {
    let mut state: Option<Arc<Session>> = None;
    let mut pending = Some(first);
    loop {
        let (bytes, newline) = match pending.take() {
            Some(line) => line,
            None => match read_capped_line(reader) {
                Ok(Some(line)) => line,
                Ok(None) => {
                    // EOF. Without a BYE this is a torn stream; a clean
                    // close after BYE never reaches here (BYE breaks).
                    if let Some(s) = state.take() {
                        finish_torn(inner, writer, s, 0, 0, "connection closed without BYE");
                    }
                    return;
                }
                Err(_) => {
                    if let Some(s) = state.take() {
                        finish_torn(inner, writer, s, 0, 0, "read error mid-stream");
                    }
                    return;
                }
            },
        };
        if !newline {
            // A torn tail: bytes arrived but the line never completed.
            let lost = bytes.len() as u64;
            if let Some(s) = state.take() {
                finish_torn(inner, writer, s, lost, 1, "stream tore mid-record");
            } else {
                protocol_error(inner, writer, "input ended mid-line");
            }
            return;
        }
        let line = match String::from_utf8(bytes) {
            Ok(line) => line,
            Err(e) => {
                let lost = (e.as_bytes().len() + 1) as u64;
                if let Some(s) = state.take() {
                    finish_torn(inner, writer, s, lost, 1, "record is not valid UTF-8");
                } else {
                    protocol_error(inner, writer, "request is not valid UTF-8");
                }
                return;
            }
        };
        let request = match parse_request(&line) {
            Ok(request) => request,
            Err(message) => {
                // Garbage on an open session tears it; before HELLO it
                // is just a rejected connection.
                if let Some(s) = state.take() {
                    let lost = (line.len() + 1) as u64;
                    finish_torn(inner, writer, s, lost, 1, &message);
                } else {
                    protocol_error(inner, writer, &message);
                }
                return;
            }
        };
        match request {
            Request::Ignored => {}
            Request::Hello(hello) => {
                if let Some(s) = state.take() {
                    // A second HELLO is a protocol error, but the open
                    // session still gets its torn finalization — it must
                    // never leak.
                    inner.registry.counter("daemon.protocol_errors").inc();
                    finish_torn(inner, writer, s, 0, 0, "second HELLO on an open session");
                    return;
                }
                match open_session(inner, &hello) {
                    Ok(session) => {
                        let ok = format!(
                            "OK craced/1 session={} spec={} workers={}\n",
                            session.name(),
                            hello.spec,
                            if hello.workers > 0 {
                                hello.workers
                            } else {
                                inner.cfg.default_workers
                            }
                        );
                        if writer.write_all(ok.as_bytes()).is_err() {
                            close_session(inner, session, false, None);
                            return;
                        }
                        state = Some(session);
                    }
                    Err(message) => {
                        protocol_error(inner, writer, &message);
                        return;
                    }
                }
            }
            Request::Resume(resume) => {
                if let Some(s) = state.take() {
                    inner.registry.counter("daemon.protocol_errors").inc();
                    finish_torn(inner, writer, s, 0, 0, "RESUME on an open session");
                    return;
                }
                match resume_session(inner, &resume) {
                    Ok(resumed) => {
                        let ok = format!(
                            "OK craced/1 resume session={} spec={} workers={} seq={} \
                             lost_bytes={} lost_records={}\n",
                            resumed.session.name(),
                            resume.spec,
                            if resume.workers > 0 {
                                resume.workers
                            } else {
                                inner.cfg.default_workers
                            },
                            resumed.recovered,
                            resumed.lost_bytes,
                            resumed.lost_records,
                        );
                        if writer.write_all(ok.as_bytes()).is_err() {
                            close_session(inner, resumed.session, false, None);
                            return;
                        }
                        state = Some(resumed.session);
                    }
                    Err(message) => {
                        protocol_error(inner, writer, &message);
                        return;
                    }
                }
            }
            Request::Record(record) => match state.take() {
                Some(s) => {
                    if let Err(e) = s.ingest_line(&record) {
                        let lost = (record.len() + 1) as u64;
                        finish_torn(inner, writer, s, lost, 1, &e.message);
                        return;
                    }
                    maybe_checkpoint(inner, &s);
                    state = Some(s);
                }
                None => {
                    protocol_error(inner, writer, "HELLO first");
                    return;
                }
            },
            Request::Report => match state.take() {
                Some(s) => {
                    let json = s.report_now().to_json();
                    if write_report(writer, &json).is_err() {
                        finish_torn(inner, writer, s, 0, 0, "write failed mid-report");
                        return;
                    }
                    state = Some(s);
                }
                None => {
                    protocol_error(inner, writer, "HELLO first");
                    return;
                }
            },
            Request::Bye => match state.take() {
                Some(s) => {
                    let outcome = close_session(inner, s, true, None);
                    let _ = write_report(writer, &outcome.report_json);
                    let _ = writer.write_all(stats_line(&outcome).as_bytes());
                    return;
                }
                None => {
                    protocol_error(inner, writer, "HELLO first");
                    return;
                }
            },
        }
    }
}

fn protocol_error(inner: &Arc<Inner>, writer: &mut Transport, message: &str) {
    inner.registry.counter("daemon.protocol_errors").inc();
    let _ = writer.write_all(format!("ERR {message}\n").as_bytes());
}

fn write_report(writer: &mut Transport, json: &str) -> std::io::Result<()> {
    writer.write_all(format!("REPORT {}\n", json.len()).as_bytes())?;
    writer.write_all(json.as_bytes())?;
    writer.flush()
}

fn stats_line(outcome: &SessionOutcome) -> String {
    let damage = outcome.damage.as_ref();
    format!(
        "STATS events={} shed_ring={} shed_quarantine={} panics={} races={} \
         lost_bytes={} lost_records={} torn={} degraded={} \
         checkpoint_seq={} checkpoint_age_ms={} respawns={}\n",
        outcome.events_ingested,
        outcome.shed_ring,
        outcome.shed_quarantine,
        outcome.analysis_panics,
        outcome.report.total(),
        damage.map_or(0, |d| d.lost_bytes),
        damage.map_or(0, |d| d.lost_records),
        u8::from(outcome.damage.is_some()),
        u8::from(outcome.degraded),
        outcome.checkpoint_seq,
        outcome.checkpoint_age_ms,
        outcome.respawns,
    )
}

/// Finalizes a torn session: report + stats still go out (best effort —
/// the peer may already be gone), the outcome is retained.
fn finish_torn(
    inner: &Arc<Inner>,
    writer: &mut Transport,
    session: Arc<Session>,
    lost_bytes: u64,
    lost_records: u64,
    reason: &str,
) {
    let damage = StreamDamage {
        lost_bytes,
        lost_records,
        reason: reason.to_string(),
    };
    let outcome = close_session(inner, session, false, Some(damage));
    let _ = writer.write_all(format!("ERR torn: {reason}\n").as_bytes());
    let _ = write_report(writer, &outcome.report_json);
    let _ = writer.write_all(stats_line(&outcome).as_bytes());
}

/// Resolves a spec by builtin name or server-side path, caching the
/// parse + translation.
fn resolve_spec(inner: &Inner, name: &str) -> Result<(Spec, Arc<CompiledSpec>), String> {
    let mut cache = inner.specs.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(entry) = cache.get(name) {
        return Ok(entry.clone());
    }
    let source = match builtin::source(name) {
        Some(src) => src.to_string(),
        None => std::fs::read_to_string(name).map_err(|e| format!("cannot read `{name}`: {e}"))?,
    };
    let spec = crace_spec::parse(&source).map_err(|e| format!("spec `{name}`: {}", e.message()))?;
    let compiled = Arc::new(translate(&spec).map_err(|e| format!("spec `{name}`: {e}"))?);
    cache.insert(name.to_string(), (spec.clone(), Arc::clone(&compiled)));
    Ok((spec, compiled))
}

/// The capture file name of `session` at lineage `attempt` (1 = the
/// original, 2… = collision suffixes).
fn capture_file_name(session: &str, attempt: u32) -> String {
    if attempt == 1 {
        format!("{session}.framed.trace")
    } else {
        format!("{session}-{attempt}.framed.trace")
    }
}

/// Opens a collision-safe per-session capture file in `dir`:
/// `<session>.framed.trace`, then `<session>-2.framed.trace`, … —
/// `create_new` makes the claim atomic, so two *fresh* sessions with a
/// reused name never interleave writes into one file. A RESUME never
/// comes through here: it reopens its original lineage in append mode
/// (see [`resume_session`]) instead of forking a `-N` sibling.
fn open_record_file(
    dir: &std::path::Path,
    session: &str,
) -> std::io::Result<(std::fs::File, String)> {
    std::fs::create_dir_all(dir)?;
    for attempt in 1..10_000u32 {
        let name = capture_file_name(session, attempt);
        match std::fs::File::options()
            .write(true)
            .create_new(true)
            .open(dir.join(&name))
        {
            Ok(f) => return Ok((f, name)),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::AlreadyExists,
        "no free capture file name",
    ))
}

/// The newest existing capture lineage of `session` in `dir`, if any —
/// what a RESUME without a (readable) checkpoint replays and appends to.
fn latest_capture(dir: &std::path::Path, session: &str) -> Option<String> {
    let mut newest = None;
    for attempt in 1..10_000u32 {
        let name = capture_file_name(session, attempt);
        if dir.join(&name).exists() {
            newest = Some(name);
        } else if attempt > 1 {
            break;
        }
    }
    newest
}

fn open_session(
    inner: &Arc<Inner>,
    hello: &crate::protocol::Hello,
) -> Result<Arc<Session>, String> {
    let faults = match &hello.faults {
        Some(plan) if !inner.cfg.allow_faults => {
            return Err(format!(
                "fault injection is disabled on this server (rejected faults={plan})"
            ));
        }
        Some(plan) => Some(FaultPlan::parse(plan)?),
        None => None,
    };
    let (spec, compiled) = resolve_spec(inner, &hello.spec)?;
    let (record_to, capture_name): (Option<Box<dyn Write + Send>>, Option<String>) =
        match &inner.cfg.record_dir {
            Some(dir) => {
                let (file, name) = open_record_file(dir, &hello.session)
                    .map_err(|e| format!("capture file: {e}"))?;
                (Some(Box::new(file)), Some(name))
            }
            None => (None, None),
        };
    let cfg = SessionConfig {
        workers: if hello.workers > 0 {
            hello.workers
        } else {
            inner.cfg.default_workers
        },
        ring_capacity: inner.cfg.ring_capacity,
        shed_grace: inner.cfg.shed_grace,
        faults,
        record_to,
        capture_name,
        traced: inner.cfg.trace_dir.is_some(),
    };
    let mut sessions = inner
        .sessions
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if sessions.contains_key(&hello.session) {
        return Err(format!("session `{}` is already open", hello.session));
    }
    let session = Session::spawn(&hello.session, &hello.spec, spec, compiled, cfg)
        .map_err(|e| format!("cannot start session: {e}"))?;
    sessions.insert(hello.session.clone(), Arc::clone(&session));
    drop(sessions);
    inner.registry.counter("daemon.sessions_opened").inc();
    Ok(session)
}

/// Writes a durable checkpoint of `session` when one is due: every
/// [`ServerConfig::checkpoint_every`] ingested records, or sooner when
/// the last one is older than [`ServerConfig::checkpoint_max_age`] and
/// records arrived since. The write is atomic (`.ckpt.tmp` + rename), so
/// a crash mid-write leaves the previous checkpoint intact, never a torn
/// one.
fn maybe_checkpoint(inner: &Arc<Inner>, session: &Arc<Session>) {
    let every = inner.cfg.checkpoint_every;
    let Some(dir) = &inner.cfg.record_dir else {
        return;
    };
    if every == 0 {
        return;
    }
    let seq = session.seq();
    let due = match session.checkpoint_state() {
        None => seq >= every,
        Some((at, age)) => seq >= at + every || (seq > at && age >= inner.cfg.checkpoint_max_age),
    };
    if !due {
        return;
    }
    let (blob, seq) = session.checkpoint_blob();
    let tmp = dir.join(format!("{}.ckpt.tmp", session.name()));
    let fin = dir.join(format!("{}.ckpt", session.name()));
    match std::fs::write(&tmp, &blob).and_then(|()| std::fs::rename(&tmp, &fin)) {
        Ok(()) => {
            session.note_checkpoint(seq);
            inner.registry.counter("daemon.checkpoints_written").inc();
        }
        Err(_) => {
            inner
                .registry
                .counter("daemon.checkpoint_write_failures")
                .inc();
        }
    }
}

/// A successfully-resumed session and what its recovery observed.
struct Resumed {
    session: Arc<Session>,
    /// Records recovered from durable state — the client resends from
    /// this sequence number.
    recovered: u64,
    /// Bytes clipped from the capture's torn tail (the record that was
    /// mid-write at the crash; the client's resend covers it).
    lost_bytes: u64,
    /// Records those bytes amounted to.
    lost_records: u64,
}

/// Reopens a session from its durable state: restores the last
/// checkpoint when it is intact and matches the requested spec, falls
/// closed to a full capture replay otherwise, clips a torn capture tail
/// to the valid prefix with exact loss accounting, replays the tail past
/// the checkpoint, and reopens the *same* capture lineage in append mode
/// — a resumed session never forks a `-N` sibling capture.
fn resume_session(inner: &Arc<Inner>, resume: &Resume) -> Result<Resumed, String> {
    let Some(dir) = inner.cfg.record_dir.clone() else {
        return Err("this server keeps no captures (no record dir); RESUME is unavailable".into());
    };
    if inner
        .sessions
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .contains_key(&resume.session)
    {
        return Err(format!("session `{}` is still open", resume.session));
    }
    let (spec, compiled) = resolve_spec(inner, &resume.spec)?;
    let workers = if resume.workers > 0 {
        resume.workers
    } else {
        inner.cfg.default_workers
    };

    // The checkpoint, if present, intact, and for this spec (at any
    // width); anything else falls closed to a full capture replay. The
    // failure counter is exported from the first RESUME on, even at 0.
    let restore_failures = inner.registry.counter("daemon.checkpoint_restore_failures");
    let ckpt_text = std::fs::read_to_string(dir.join(format!("{}.ckpt", resume.session))).ok();
    let ckpt = ckpt_text
        .as_deref()
        .and_then(|text| match peek_checkpoint_meta(text) {
            Ok(meta) if meta.spec_name == resume.spec => Some((text, meta)),
            Ok(_) | Err(_) => {
                restore_failures.inc();
                None
            }
        });

    // Locate the capture lineage: the checkpoint names its file; without
    // one, the newest lineage on disk.
    let capture = ckpt
        .as_ref()
        .and_then(|(_, meta)| meta.capture.clone())
        .or_else(|| latest_capture(&dir, &resume.session))
        .unwrap_or_else(|| capture_file_name(&resume.session, 1));
    let path = dir.join(&capture);

    // Read the capture, clipping any torn tail (a record half-written at
    // the crash) back to the valid prefix.
    let (trace, lost_bytes, lost_records) = if path.exists() {
        let bytes = std::fs::read(&path).map_err(|e| format!("capture file: {e}"))?;
        let (text, utf8_lost) = match String::from_utf8(bytes) {
            Ok(s) => (s, 0usize),
            Err(e) => {
                let valid = e.utf8_error().valid_up_to();
                let bytes = e.into_bytes();
                (
                    String::from_utf8_lossy(&bytes[..valid]).into_owned(),
                    bytes.len() - valid,
                )
            }
        };
        let (trace, torn) = parse_framed_tolerant(&text, &spec);
        let torn_lost = torn.as_ref().map_or(0, |t| t.lost_bytes);
        if torn_lost + utf8_lost > 0 {
            let keep = (text.len() - torn_lost) as u64;
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| format!("capture file: {e}"))?;
            f.set_len(keep).map_err(|e| format!("capture file: {e}"))?;
        }
        (
            trace,
            (torn_lost + utf8_lost) as u64,
            u64::from(torn_lost + utf8_lost > 0),
        )
    } else {
        // Nothing was captured before the crash: resume from zero into a
        // fresh file of the same name.
        std::fs::create_dir_all(&dir).map_err(|e| format!("capture file: {e}"))?;
        std::fs::write(&path, format!("{FRAMED_HEADER}\n"))
            .map_err(|e| format!("capture file: {e}"))?;
        (crace_model::Trace::new(), 0, 0)
    };

    let make_cfg = || SessionConfig {
        workers,
        ring_capacity: inner.cfg.ring_capacity,
        shed_grace: inner.cfg.shed_grace,
        faults: None,
        record_to: None,
        capture_name: Some(capture.clone()),
        traced: inner.cfg.trace_dir.is_some(),
    };
    let spawn = |cfg: SessionConfig| {
        Session::spawn(
            &resume.session,
            &resume.spec,
            spec.clone(),
            Arc::clone(&compiled),
            cfg,
        )
        .map_err(|e| format!("cannot start session: {e}"))
    };
    let mut session = spawn(make_cfg())?;
    let mut from = 0usize;
    if let Some((text, meta)) = ckpt {
        let resolver = |name: &str| -> Option<Arc<CompiledSpec>> {
            if name == spec.name() {
                Some(Arc::clone(&compiled))
            } else {
                resolve_spec(inner, name).ok().map(|(_, c)| c)
            }
        };
        // A checkpoint ahead of its capture means the capture lost
        // history the detector already folded — replay from scratch
        // rather than trust state the tail cannot reach.
        let restored =
            meta.seq as usize <= trace.len() && session.restore_blob(text, &resolver).is_ok();
        if restored {
            from = meta.seq as usize;
        } else {
            restore_failures.inc();
            // The half-restored session is scrap: retire it, start clean.
            session.finalize(true, None);
            session = spawn(make_cfg())?;
        }
    }
    for event in &trace.events()[from..] {
        session.resume_feed(event);
    }
    // Reopen the capture for appending — same lineage, no forked `-N`.
    let file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .map_err(|e| format!("capture file: {e}"))?;
    session.attach_recorder(Box::new(file));
    {
        let mut sessions = inner
            .sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if sessions.contains_key(&resume.session) {
            session.finalize(true, None);
            return Err(format!("session `{}` is still open", resume.session));
        }
        sessions.insert(resume.session.clone(), Arc::clone(&session));
    }
    inner.registry.counter("daemon.sessions_resumed").inc();
    if lost_bytes > 0 {
        inner
            .registry
            .counter("daemon.capture_lost_bytes")
            .add(lost_bytes);
        inner
            .registry
            .counter("daemon.capture_lost_records")
            .add(lost_records);
    }
    Ok(Resumed {
        session,
        recovered: trace.len() as u64,
        lost_bytes,
        lost_records,
    })
}

fn close_session(
    inner: &Arc<Inner>,
    session: Arc<Session>,
    clean: bool,
    damage: Option<StreamDamage>,
) -> SessionOutcome {
    inner
        .sessions
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .remove(session.name());
    let outcome = session.finalize(clean, damage);
    if clean {
        // A clean BYE is the end of the lineage: its checkpoint has
        // nothing left to resume and would only shadow a future session
        // reusing the name.
        if let Some(dir) = &inner.cfg.record_dir {
            let _ = std::fs::remove_file(dir.join(format!("{}.ckpt", outcome.name)));
            let _ = std::fs::remove_file(dir.join(format!("{}.ckpt.tmp", outcome.name)));
        }
    }
    if let Some(dir) = &inner.cfg.trace_dir {
        if let Some(tracer) = session.tracer() {
            let chrome = tracer.to_chrome_json();
            if crace_obs::json::validate(&chrome).is_ok() {
                let _ = std::fs::create_dir_all(dir);
                let _ = std::fs::write(dir.join(format!("{}.spans.json", outcome.name)), chrome);
            }
        }
    }
    // Fold the finished session into the server totals, then retain the
    // outcome (latest per name wins).
    let r = &inner.registry;
    r.counter("daemon.sessions_closed").inc();
    if outcome.damage.is_some() {
        r.counter("daemon.sessions_torn").inc();
    }
    if outcome.degraded {
        r.counter("daemon.sessions_degraded").inc();
    }
    r.counter("daemon.events_total")
        .add(outcome.events_ingested);
    r.counter("daemon.shed_total")
        .add(outcome.shed_ring + outcome.shed_quarantine);
    r.counter("daemon.races_total").add(outcome.report.total());
    inner
        .outcomes
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(outcome.clone(), inner.cfg.outcome_capacity);
    outcome
}

/// Builds the merged scrape: server registry plus every live session's,
/// prefixed `session.<name>.`.
fn scrape(inner: &Arc<Inner>) -> Snapshot {
    let sessions: Vec<(String, Arc<Session>)> = inner
        .sessions
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(name, session)| (name.clone(), Arc::clone(session)))
        .collect();
    inner
        .registry
        .set_gauge("daemon.sessions_active", sessions.len() as f64);
    inner.registry.set_gauge(
        "daemon.connections_active",
        inner.active_conns.load(Ordering::Relaxed) as f64,
    );
    let mut parts = vec![inner.registry.snapshot()];
    for (name, session) in sessions {
        session.feed_metrics();
        parts.push(
            session
                .registry()
                .snapshot()
                .prefixed(&format!("session.{name}.")),
        );
    }
    Snapshot::merged(parts)
}

fn serve_http(
    inner: &Arc<Inner>,
    reader: &mut BufReader<Transport>,
    writer: &mut Transport,
    first: &[u8],
) {
    // Drain request headers (bounded) so the peer's write never blocks.
    for _ in 0..128 {
        match read_capped_line(reader) {
            Ok(Some((bytes, _))) if bytes.is_empty() || bytes == b"\r" => break,
            Ok(Some(_)) => continue,
            _ => break,
        }
    }
    inner.registry.counter("daemon.http_scrapes").inc();
    let request = String::from_utf8_lossy(first);
    let path = request.split(' ').nth(1).unwrap_or("/");
    let (status, content_type, body) = match path {
        "/metrics" | "/metrics?format=prom" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            scrape(inner).to_prometheus(),
        ),
        "/metrics.json" | "/metrics?format=json" => {
            ("200 OK", "application/json", scrape(inner).to_json())
        }
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "try /metrics or /metrics.json\n".to_string(),
        ),
    };
    let _ = writer.write_all(
        format!(
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
    let _ = writer.flush();
}
