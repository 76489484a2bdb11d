//! One detection session: a tenant's spec, detector, metrics, tracer,
//! ingress ring, and dispatcher thread.
//!
//! A session is the unit of isolation. Each owns:
//!
//! * its compiled spec (and the [`Spec`] used to decode wire records),
//! * its detector — serial [`TraceDetector`] or sharded [`ParallelRd2`]
//!   behind one [`FrontEnd`] — wrapped as `Isolated<FaultedAnalysis<…>>`
//!   so an analysis panic (organic or injected through the `faults=` test
//!   plane) quarantines *this* session and fails open, leaving other
//!   tenants untouched,
//! * its own [`Registry`] and [`Tracer`] — tenants never share detector
//!   state, so they never physically conflict (the Scalable
//!   Commutativity Rule posture),
//! * a bounded [`IngressRing`] and the dispatcher thread draining it.
//!
//! Objects are registered lazily, on the first action naming them: a
//! streaming server cannot scan the trace for its object set up front
//! the way `crace replay` does. Registration on a fresh object only
//! installs the spec (no clock interaction), so lazy and up-front
//! registration yield bit-for-bit identical reports — the property
//! `tests/daemon_vs_replay.rs` checks at every worker width.

use crate::ring::IngressRing;
use crace_cli::{parse_framed_record, TraceParseError, FRAMED_HEADER};
use crace_core::{
    CompiledSpec, FrontEnd, ParallelConfig, ParallelRd2, SpecResolver, TraceDetector,
};
use crace_model::{Action, Analysis, Event, Isolated, LocId, LockId, ObjId, RaceReport, ThreadId};
use crace_obs::{Registry, Tracer};
use crace_runtime::{FaultInjector, FaultPlan, FaultedAnalysis};
use crace_spec::Spec;
use crace_vclock::ckpt::{esc, CkptError, CkptReader, CkptWriter, CKPT_MAGIC};
use std::collections::BTreeSet;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sampling period for per-event dispatch spans on the session lane.
const DISPATCH_SPAN_EVERY: u64 = 64;

/// Checkpoint-kind tag of the session header that opens a daemon
/// `.ckpt` file. The detector's own `rd2` checkpoint follows the header
/// byte for byte.
pub const SESSION_CKPT_KIND: &str = "craced-session";

/// The session-level header of a `.ckpt` file, readable without (and
/// before) constructing the session it restores into.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CkptMeta {
    /// Spec name the session detected against.
    pub spec_name: String,
    /// Records the detector had absorbed when the checkpoint was taken.
    pub seq: u64,
    /// Capture file (relative to the record dir) the sequence refers to.
    pub capture: Option<String>,
}

/// Reads a session `.ckpt`: its header's metadata and registered object
/// set, plus the detector checkpoint after the seam, untouched. The seam
/// is the first line after line 1 that starts with [`CKPT_MAGIC`]; header
/// payloads are single framed lines of escaped words, so no header line
/// can begin with it.
fn read_checkpoint(text: &str) -> Result<(CkptMeta, Vec<ObjId>, &str), CkptError> {
    let seam = text.find(&format!("\n{CKPT_MAGIC}")).ok_or_else(|| {
        CkptError::at(
            text.lines().count().max(1),
            "no detector checkpoint follows the session header",
        )
    })?;
    let (head, detector) = text.split_at(seam + 1);
    let mut r = CkptReader::new(head, SESSION_CKPT_KIND)?;
    let rec = r
        .next_rec()
        .ok_or_else(|| CkptError::at(0, "checkpoint has no `meta` record"))?;
    if rec.tag() != "meta" {
        return Err(CkptError::at(
            rec.line,
            format!("expected `meta` record, found `{}`", rec.tag()),
        ));
    }
    let mut meta = CkptMeta {
        spec_name: rec.text(1)?,
        seq: rec.num(2)?,
        capture: None,
    };
    let mut objects = Vec::new();
    while let Some(rec) = r.next_rec() {
        match rec.tag() {
            "capture" => meta.capture = Some(rec.text(1)?),
            "registered" => {
                let count: usize = rec.num(1)?;
                for i in 0..count {
                    objects.push(ObjId(rec.num(2 + i)?));
                }
            }
            other => {
                return Err(CkptError::at(
                    rec.line,
                    format!("unknown session record `{other}`"),
                ))
            }
        }
    }
    Ok((meta, objects, detector))
}

/// Validates `text` as a session checkpoint and returns its metadata —
/// the server peeks this to configure the replacement session before
/// restoring into it.
///
/// # Errors
///
/// A spanned [`CkptError`] on any damage to the session header, or when
/// no detector checkpoint follows it.
pub fn peek_checkpoint_meta(text: &str) -> Result<CkptMeta, CkptError> {
    read_checkpoint(text).map(|(meta, _, _)| meta)
}

/// Per-session knobs, resolved by the server from its config plus the
/// HELLO options.
pub struct SessionConfig {
    /// Worker count for the sharded detector; `0` selects the serial one.
    pub workers: usize,
    /// Ingress ring capacity (events).
    pub ring_capacity: usize,
    /// How long a data-plane push waits on a full ring before shedding.
    pub shed_grace: Duration,
    /// Fault plan for the chaos test plane, armed on the dispatch path.
    pub faults: Option<FaultPlan>,
    /// When set, the framed header and then every verified wire record
    /// are appended to this sink verbatim (the per-session capture file).
    pub record_to: Option<Box<dyn Write + Send>>,
    /// File name of the capture sink (relative to the record dir), so a
    /// checkpoint can name the capture its sequence number refers to and
    /// a resume can append to the same lineage instead of forking one.
    pub capture_name: Option<String>,
    /// When `true`, a tracer records the session's span timeline.
    pub traced: bool,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            workers: 0,
            ring_capacity: 4096,
            shed_grace: Duration::from_millis(50),
            faults: None,
            record_to: None,
            capture_name: None,
            traced: false,
        }
    }
}

/// The analysis a session's dispatcher drives: lazy object registration
/// in front of the detector, whose metrics it exports under `rd2` at
/// every width.
struct SessionAnalysis {
    detector: Box<dyn FrontEnd>,
    compiled: Arc<CompiledSpec>,
    registered: Mutex<BTreeSet<ObjId>>,
}

impl SessionAnalysis {
    fn ensure_registered(&self, obj: ObjId) {
        let mut seen = self
            .registered
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if seen.insert(obj) {
            self.detector.register(obj, Arc::clone(&self.compiled));
        }
    }
}

impl Analysis for SessionAnalysis {
    fn name(&self) -> &str {
        "rd2"
    }

    fn on_fork(&self, parent: ThreadId, child: ThreadId) {
        self.detector.on_fork(parent, child);
    }

    fn on_join(&self, parent: ThreadId, child: ThreadId) {
        self.detector.on_join(parent, child);
    }

    fn on_acquire(&self, tid: ThreadId, lock: LockId) {
        self.detector.on_acquire(tid, lock);
    }

    fn on_release(&self, tid: ThreadId, lock: LockId) {
        self.detector.on_release(tid, lock);
    }

    fn on_action(&self, tid: ThreadId, action: &Action) {
        self.ensure_registered(action.obj());
        self.detector.on_action(tid, action);
    }

    fn on_read(&self, tid: ThreadId, loc: LocId) {
        self.detector.on_read(tid, loc);
    }

    fn on_write(&self, tid: ThreadId, loc: LocId) {
        self.detector.on_write(tid, loc);
    }

    fn report(&self) -> RaceReport {
        self.detector.report()
    }
}

/// Exactly what a stream lost, for the final accounting. Mirrors
/// [`crace_cli::TornTrace`] but for a live connection, where only the
/// damage actually observed on the wire can be counted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamDamage {
    /// Bytes received that could not be interpreted (a torn tail, or a
    /// damaged record line including its newline).
    pub lost_bytes: u64,
    /// Damaged record lines observed (a mid-record disconnect tail
    /// counts as one).
    pub lost_records: u64,
    /// What was wrong with the first damaged input.
    pub reason: String,
}

/// A finished session's full accounting — the server keeps these so a
/// torn session's report outlives its connection.
#[derive(Clone, Debug)]
pub struct SessionOutcome {
    /// Session name.
    pub name: String,
    /// Spec it detected against (as given in HELLO).
    pub spec_name: String,
    /// Worker count (0 = serial).
    pub workers: usize,
    /// Framed records decoded and offered to the ring.
    pub events_ingested: u64,
    /// Events shed by the ingress ring's overload ladder.
    pub shed_ring: u64,
    /// Events shed after quarantine (the fail-open window).
    pub shed_quarantine: u64,
    /// Analysis panics absorbed (organic or injected).
    pub analysis_panics: u64,
    /// True iff the session ended degraded (quarantined detector or a
    /// degraded parallel pipeline).
    pub degraded: bool,
    /// Wire damage, if the stream tore.
    pub damage: Option<StreamDamage>,
    /// Sequence number of the last durable checkpoint (0 = never).
    pub checkpoint_seq: u64,
    /// Milliseconds since the last durable checkpoint (0 = never).
    pub checkpoint_age_ms: u64,
    /// Chaos poisons the pipeline's workers caught and skipped.
    pub respawns: u64,
    /// True iff the client closed with BYE.
    pub clean_bye: bool,
    /// The final report.
    pub report: RaceReport,
    /// `report.to_json()`, the bytes served to the client — kept so
    /// tests can compare bit-for-bit without re-rendering.
    pub report_json: String,
}

/// The per-session capture file and the buffer each record line is
/// staged in, reused so appending a record allocates nothing.
struct Capture {
    sink: Box<dyn Write + Send>,
    line: Vec<u8>,
}

impl Capture {
    fn new(sink: Box<dyn Write + Send>) -> Capture {
        Capture {
            sink,
            line: Vec::new(),
        }
    }

    /// Appends one record line and its newline in a single write, so a
    /// crash tears at most this line, then flushes.
    fn append(&mut self, line: &str) -> std::io::Result<()> {
        self.line.clear();
        self.line.extend_from_slice(line.as_bytes());
        self.line.push(b'\n');
        self.sink.write_all(&self.line)?;
        self.sink.flush()
    }
}

/// A live session. Owned by an `Arc` shared between the connection
/// handler and the server's scrape path.
pub struct Session {
    name: String,
    spec_name: String,
    workers: usize,
    spec: Spec,
    ring: Arc<IngressRing>,
    analysis: Arc<Isolated<FaultedAnalysis<SessionAnalysis>>>,
    injector: Arc<FaultInjector>,
    registry: Arc<Registry>,
    tracer: Option<Arc<Tracer>>,
    recorder: Mutex<Option<Capture>>,
    capture_name: Option<String>,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
    lineno: AtomicU64,
    /// Records already absorbed by the restored checkpoint — counted
    /// into `events_ingested` although they never crossed this ring.
    restored_seq: AtomicU64,
    last_ckpt: Mutex<Option<(u64, Instant)>>,
}

impl Session {
    /// Builds the session and starts its dispatcher thread.
    ///
    /// # Errors
    ///
    /// Fails when the capture sink rejects the framed header.
    pub fn spawn(
        name: &str,
        spec_name: &str,
        spec: Spec,
        compiled: Arc<CompiledSpec>,
        cfg: SessionConfig,
    ) -> std::io::Result<Arc<Session>> {
        let tracer = cfg.traced.then(|| Arc::new(Tracer::new()));
        let detector: Box<dyn FrontEnd> = if cfg.workers > 0 {
            let pcfg = ParallelConfig {
                tracer: tracer.clone(),
                ..ParallelConfig::default()
            };
            Box::new(ParallelRd2::with_config(cfg.workers, pcfg))
        } else if let Some(t) = &tracer {
            Box::new(TraceDetector::with_tracer(t, DISPATCH_SPAN_EVERY))
        } else {
            Box::new(TraceDetector::new())
        };
        let injector = Arc::new(FaultInjector::new(cfg.faults.unwrap_or_default()));
        let faulted = FaultedAnalysis::new(
            SessionAnalysis {
                detector,
                compiled,
                registered: Mutex::new(BTreeSet::new()),
            },
            Arc::clone(&injector),
        );
        let analysis = Arc::new(match &tracer {
            Some(t) => Isolated::with_tracer(faulted, t),
            None => Isolated::new(faulted),
        });
        let mut recorder = cfg.record_to;
        if let Some(sink) = &mut recorder {
            sink.write_all(format!("{FRAMED_HEADER}\n").as_bytes())?;
            sink.flush()?;
        }
        let ring = Arc::new(IngressRing::new(cfg.ring_capacity, cfg.shed_grace));
        let dispatcher = {
            let ring = Arc::clone(&ring);
            let analysis = Arc::clone(&analysis);
            std::thread::Builder::new()
                .name(format!("craced-session-{name}"))
                .spawn(move || {
                    while let Some(event) = ring.pop() {
                        analysis.on_event(&event);
                    }
                })?
        };
        Ok(Arc::new(Session {
            name: name.to_string(),
            spec_name: spec_name.to_string(),
            workers: cfg.workers,
            spec,
            ring,
            analysis,
            injector,
            registry: Arc::new(Registry::new()),
            tracer,
            recorder: Mutex::new(recorder.map(Capture::new)),
            capture_name: cfg.capture_name,
            dispatcher: Mutex::new(Some(dispatcher)),
            lineno: AtomicU64::new(0),
            restored_seq: AtomicU64::new(0),
            last_ckpt: Mutex::new(None),
        }))
    }

    /// Session name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The spec used to decode wire records.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// The session's metric registry (fed lazily; see
    /// [`Session::feed_metrics`]).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The session's tracer, when tracing was requested.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Decodes one framed record line and enqueues the event (appending
    /// the verified line to the capture file first, so the capture holds
    /// everything that arrived intact — including events later shed).
    ///
    /// # Errors
    ///
    /// Returns the decode error for a damaged or malformed record; the
    /// caller turns it into the torn-stream finalization.
    pub fn ingest_line(&self, line: &str) -> Result<(), TraceParseError> {
        let lineno = self.lineno.fetch_add(1, Ordering::Relaxed) + 1;
        let event = parse_framed_record(line, &self.spec, lineno as usize)?;
        {
            let mut guard = self.recorder.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(capture) = guard.as_mut() {
                // Capture I/O errors must not kill the session: the capture
                // is an observability artifact, detection is the product.
                let _ = capture.append(line);
            }
        }
        self.ring.push(event);
        Ok(())
    }

    /// Enqueues an event recovered from the capture file during resume.
    /// Advances the ingest sequence like [`Session::ingest_line`] but
    /// bypasses the recorder — the event is already durable in the
    /// capture, and re-recording it would duplicate the lineage.
    pub fn resume_feed(&self, event: &Event) {
        self.lineno.fetch_add(1, Ordering::Relaxed);
        self.ring.push(event.clone());
    }

    /// Attaches (or replaces) the capture sink after a resume: the sink
    /// must already carry the framed header, so writing continues the
    /// original record sequence in place.
    pub fn attach_recorder(&self, sink: Box<dyn Write + Send>) {
        let mut guard = self.recorder.lock().unwrap_or_else(PoisonError::into_inner);
        *guard = Some(Capture::new(sink));
    }

    /// Records decoded and enqueued so far — the sequence number a
    /// checkpoint of the current state belongs to.
    pub fn seq(&self) -> u64 {
        self.lineno.load(Ordering::Relaxed)
    }

    /// Waits until everything ingested so far is absorbed, then renders
    /// the report — the interim `REPORT` request.
    pub fn report_now(&self) -> RaceReport {
        self.ring.wait_drained();
        self.analysis.report()
    }

    /// Serializes the whole session at the current record boundary:
    /// drains the ring so the detector has absorbed every ingested
    /// record, then writes a session header (spec, sequence, capture
    /// lineage, the lazily-registered object set) followed byte for byte
    /// by the detector's own checkpoint. Returns the blob plus the
    /// sequence number it is valid at.
    pub fn checkpoint_blob(&self) -> (String, u64) {
        self.ring.wait_drained();
        let seq = self.seq();
        let sa = self.analysis.inner().inner();
        let mut w = CkptWriter::new(SESSION_CKPT_KIND);
        w.rec(&format!("meta {} {seq}", esc(&self.spec_name)));
        if let Some(capture) = &self.capture_name {
            w.rec(&format!("capture {}", esc(capture)));
        }
        {
            let seen = sa.registered.lock().unwrap_or_else(PoisonError::into_inner);
            let mut rec = format!("registered {}", seen.len());
            for obj in seen.iter() {
                rec.push_str(&format!(" {}", obj.0));
            }
            w.rec(&rec);
        }
        // The short header goes in front of the detector's blob, whose
        // writer left room for it, so the blob is never copied whole.
        let mut blob = sa.detector.checkpoint();
        blob.insert_str(0, &w.finish());
        (blob, seq)
    }

    /// Restores a freshly-spawned session from a [`Session::checkpoint_blob`]:
    /// validates the spec name against this session's configuration (the
    /// worker count may differ — every width reads the one `rd2` detector
    /// state), rebuilds the lazily-registered object set *without*
    /// re-registering (registration wipes object state the detector
    /// restore is about to install), restores the detector from the text
    /// after the seam as is, and fast-forwards the ingest sequence.
    /// Returns the sequence number the capture tail must be replayed from.
    ///
    /// # Errors
    ///
    /// A spanned [`CkptError`] on any damage or configuration mismatch;
    /// the session must then be discarded and the capture replayed in
    /// full.
    pub fn restore_blob(&self, text: &str, resolve: &SpecResolver<'_>) -> Result<u64, CkptError> {
        let (meta, objects, detector) = read_checkpoint(text)?;
        if meta.spec_name != self.spec_name {
            return Err(CkptError::at(
                2,
                format!(
                    "checkpoint is for spec `{}`, session runs `{}`",
                    meta.spec_name, self.spec_name
                ),
            ));
        }
        let sa = self.analysis.inner().inner();
        sa.detector.restore(detector, resolve)?;
        {
            let mut seen = sa.registered.lock().unwrap_or_else(PoisonError::into_inner);
            seen.clear();
            seen.extend(objects);
        }
        self.lineno.store(meta.seq, Ordering::Relaxed);
        self.restored_seq.store(meta.seq, Ordering::Relaxed);
        self.note_checkpoint(meta.seq);
        Ok(meta.seq)
    }

    /// Remembers that a checkpoint at `seq` was made durable — feeds the
    /// `checkpoint.seq` / `checkpoint.age_ms` gauges and the STATS line.
    pub fn note_checkpoint(&self, seq: u64) {
        let mut guard = self
            .last_ckpt
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *guard = Some((seq, Instant::now()));
    }

    /// `(seq, age)` of the last durable checkpoint, if any.
    pub fn checkpoint_state(&self) -> Option<(u64, Duration)> {
        let guard = self
            .last_ckpt
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        guard.map(|(seq, at)| (seq, at.elapsed()))
    }

    /// Folds current detector/ring/fault/isolation counters into the
    /// session registry (idempotent where the sources are).
    pub fn feed_metrics(&self) {
        let r = &*self.registry;
        r.counter("ingress.events").advance_to(
            self.restored_seq.load(Ordering::Relaxed) + self.ring.pushed() + self.ring.shed(),
        );
        r.counter("shed.ring").advance_to(self.ring.shed());
        r.counter("shed.quarantine")
            .advance_to(self.analysis.events_shed());
        r.set_gauge("ingress.depth", self.ring.depth() as f64);
        self.analysis.feed(r); // rd2.analysis_panics / events_shed / degraded_mode
        self.injector.feed(r); // fault.*
        let sa = self.analysis.inner().inner();
        // rd2.conflict_probes / clock.*, and at width > 0 parallel.* and
        // supervisor.respawns. Only the pipeline counts respawns, but every
        // width exports the counter that `SessionOutcome::respawns` reads.
        sa.detector.feed(r, sa.name());
        r.counter("supervisor.respawns");
        match self.checkpoint_state() {
            Some((seq, age)) => {
                r.set_gauge("checkpoint.seq", seq as f64);
                r.set_gauge("checkpoint.age_ms", age.as_millis() as f64);
            }
            None => {
                r.set_gauge("checkpoint.seq", 0.0);
                r.set_gauge("checkpoint.age_ms", 0.0);
            }
        }
        if let Some(t) = &self.tracer {
            t.feed_timeline(r);
        }
    }

    /// Closes the ring, joins the dispatcher, and produces the final
    /// accounting. Idempotent: later calls return an outcome with the
    /// same counters (the first call's join already happened).
    pub fn finalize(&self, clean_bye: bool, damage: Option<StreamDamage>) -> SessionOutcome {
        self.ring.close();
        if let Some(handle) = self
            .dispatcher
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            // The dispatcher drains the ring then exits; a panic inside
            // it is impossible by construction (Isolated absorbs them),
            // but a poisoned join must not take the server down.
            let _ = handle.join();
        }
        let report = self.analysis.report();
        let report_json = report.to_json();
        let degraded = self.analysis.quarantined()
            || self.analysis.inner().inner().detector.degraded()
            || damage.is_some();
        self.feed_metrics();
        self.registry
            .counter("races.total")
            .advance_to(report.total());
        if let Some(d) = &damage {
            self.registry.counter("stream.lost_bytes").add(d.lost_bytes);
            self.registry
                .counter("stream.lost_records")
                .add(d.lost_records);
        }
        let (checkpoint_seq, checkpoint_age_ms) = self
            .checkpoint_state()
            .map_or((0, 0), |(seq, age)| (seq, age.as_millis() as u64));
        SessionOutcome {
            name: self.name.clone(),
            spec_name: self.spec_name.clone(),
            workers: self.workers,
            events_ingested: self.restored_seq.load(Ordering::Relaxed)
                + self.ring.pushed()
                + self.ring.shed(),
            shed_ring: self.ring.shed(),
            shed_quarantine: self.analysis.events_shed(),
            analysis_panics: self.analysis.analysis_panics(),
            degraded,
            damage,
            checkpoint_seq,
            checkpoint_age_ms,
            respawns: self.registry.counter("supervisor.respawns").get(),
            clean_bye,
            report,
            report_json,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crace_cli::frame_event;
    use crace_core::translate;
    use crace_model::Trace;
    use crace_spec::builtin;

    fn fig3() -> (Trace, Spec) {
        let spec = builtin::dictionary();
        let text = "fork 0 1\nfork 0 2\nact 2 o1 put(\"a.com\", 1)/nil\nact 1 o1 put(\"a.com\", 2)/1\njoin 0 1\njoin 0 2\n";
        let trace = crace_cli::parse_trace(text, &spec).unwrap();
        (trace, spec)
    }

    fn session(workers: usize, cfg: SessionConfig) -> Arc<Session> {
        let (_, spec) = fig3();
        let compiled = Arc::new(translate(&spec).unwrap());
        Session::spawn(
            "t",
            "dictionary",
            spec,
            compiled,
            SessionConfig { workers, ..cfg },
        )
        .unwrap()
    }

    #[test]
    fn streamed_records_match_offline_replay() {
        let (trace, spec) = fig3();
        for workers in [0usize, 2] {
            let s = session(workers, SessionConfig::default());
            for event in trace.iter() {
                s.ingest_line(&frame_event(event, &spec)).unwrap();
            }
            let outcome = s.finalize(true, None);
            // Offline reference: serial detector, up-front registration.
            let d = TraceDetector::new();
            let compiled = Arc::new(translate(&spec).unwrap());
            d.register(crace_model::ObjId(1), Arc::clone(&compiled));
            let offline = crace_model::replay(&trace, &d);
            assert_eq!(outcome.report, offline, "workers={workers}");
            assert_eq!(outcome.report_json, offline.to_json());
            assert_eq!(outcome.events_ingested, trace.len() as u64);
            assert_eq!(outcome.shed_ring, 0);
            assert!(!outcome.degraded);
            assert!(outcome.report.total() > 0, "fig3 has the race");
        }
    }

    #[test]
    fn every_width_feeds_the_same_detector_metrics() {
        let (trace, spec) = fig3();
        let fed = |workers: usize| {
            let s = session(workers, SessionConfig::default());
            for event in trace.iter() {
                s.ingest_line(&frame_event(event, &spec)).unwrap();
            }
            s.finalize(true, None);
            let snapshot = s.registry().snapshot();
            let detector: Vec<(String, crace_obs::MetricValue)> = snapshot
                .iter()
                .filter(|(name, _)| name.starts_with("rd2."))
                .cloned()
                .collect();
            (detector, snapshot.get("supervisor.respawns").cloned())
        };
        let (serial, serial_respawns) = fed(0);
        let (sharded, sharded_respawns) = fed(4);
        // The same Algorithm 1 work at every width, so equal values too.
        assert_eq!(sharded, serial, "workers=4 vs workers=0");
        assert_eq!(sharded_respawns, serial_respawns);
        let names: Vec<&str> = serial.iter().map(|(name, _)| name.as_str()).collect();
        for name in [
            "rd2.conflict_probes",
            "rd2.clock.epoch_updates",
            "rd2.clock.promotions",
            "rd2.clock.vector_updates",
            "rd2.clock.epoch_hit_rate",
        ] {
            assert!(names.contains(&name), "session lacks {name}: {names:?}");
        }
        assert_eq!(serial_respawns, Some(crace_obs::MetricValue::Counter(0)));
    }

    #[test]
    fn damaged_record_is_rejected_with_line_number() {
        let s = session(0, SessionConfig::default());
        let (trace, spec) = fig3();
        let mut line = frame_event(&trace.events()[0], &spec);
        line.push('x'); // breaks the length field
        let e = s.ingest_line(&line).unwrap_err();
        assert_eq!(e.kind, crace_cli::TraceErrorKind::Torn);
        s.finalize(
            false,
            Some(StreamDamage {
                lost_bytes: (line.len() + 1) as u64,
                lost_records: 1,
                reason: e.message,
            }),
        );
    }

    #[test]
    fn injected_panic_quarantines_and_fails_open() {
        let (trace, spec) = fig3();
        let cfg = SessionConfig {
            faults: Some(FaultPlan::parse("panic@2").unwrap()),
            ..SessionConfig::default()
        };
        let s = session(0, cfg);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for event in trace.iter() {
            s.ingest_line(&frame_event(event, &spec)).unwrap();
        }
        let outcome = s.finalize(true, None);
        std::panic::set_hook(prev);
        assert_eq!(outcome.analysis_panics, 1);
        assert!(outcome.degraded);
        // Fail open: a report still comes out, and shedding can only
        // hide races, never invent them.
        let d = TraceDetector::new();
        let compiled = Arc::new(translate(&spec).unwrap());
        d.register(crace_model::ObjId(1), Arc::clone(&compiled));
        let offline = crace_model::replay(&trace, &d);
        assert!(outcome.report.total() <= offline.total());
    }

    #[test]
    fn capture_file_holds_every_intact_record() {
        let (trace, spec) = fig3();
        let buf: Arc<Mutex<Vec<u8>>> = Arc::default();
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let cfg = SessionConfig {
            record_to: Some(Box::new(Shared(Arc::clone(&buf)))),
            ..SessionConfig::default()
        };
        let s = session(0, cfg);
        let mut wire = format!("{}\n", crace_cli::FRAMED_HEADER);
        for event in trace.iter() {
            let line = frame_event(event, &spec);
            s.ingest_line(&line).unwrap();
            wire.push_str(&line);
            wire.push('\n');
        }
        s.finalize(true, None);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(crace_cli::parse_trace(&text, &spec).unwrap(), trace);
        assert_eq!(text, wire, "the capture holds the wire bytes verbatim");
    }

    /// `fig3` followed by a seeded random tail on three fresh threads:
    /// dictionary calls on three objects, some under a lock, and writes.
    fn fig3_then_random(seed: u64) -> (Trace, Spec) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (fig3, spec) = fig3();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut text = crace_cli::render_trace(&fig3, &spec);
        text.push_str("fork 0 3\nfork 0 4\nfork 0 5\n");
        for _ in 0..200 {
            let t = rng.gen_range(3..=5u32);
            let o = rng.gen_range(1..=3u32);
            let [k, v, r] = [(); 3].map(|()| rng.gen_range(0..3u32));
            let call = match rng.gen_range(0..3u32) {
                0 => format!(
                    "act {t} o{o} put({k}, {v})/{}",
                    if r == 0 { "nil".into() } else { r.to_string() }
                ),
                1 => format!("act {t} o{o} get({k})/{v}"),
                _ => format!("act {t} o{o} size()/{r}"),
            };
            match rng.gen_range(0..4u32) {
                0 => text.push_str(&format!("acq {t} 1\n{call}\nrel {t} 1\n")),
                1 => text.push_str(&format!("write {t} @{k}\n")),
                _ => text.push_str(&format!("{call}\n")),
            }
        }
        text.push_str("join 0 3\njoin 0 4\njoin 0 5\n");
        (crace_cli::parse_trace(&text, &spec).unwrap(), spec)
    }

    #[test]
    fn session_checkpoint_carries_the_detector_checkpoint_verbatim() {
        let resolve = crace_core::builtin_resolver();
        for (seed, workers) in [(1u64, 0usize), (2, 2)] {
            let (trace, spec) = fig3_then_random(seed);
            let compiled = Arc::new(translate(&spec).unwrap());
            let offline = TraceDetector::new();
            for obj in 1..=3 {
                offline.register(ObjId(obj), Arc::clone(&compiled));
            }
            let offline = crace_model::replay(&trace, &offline);
            assert!(offline.total() > 0, "seed {seed}: fig3's race is kept");
            let s = session(workers, SessionConfig::default());
            for event in trace.iter() {
                s.ingest_line(&frame_event(event, &spec)).unwrap();
            }
            let (blob, seq) = s.checkpoint_blob();
            assert_eq!(seq, trace.len() as u64);
            let seam = blob.find("\n#%crace-ckpt").expect("a seam") + 1;
            let tail = &blob[seam..];
            assert!(tail.starts_with("#%crace-ckpt v1 rd2\n"), "seed {seed}");
            let fresh: [Box<dyn FrontEnd>; 2] = [
                Box::new(TraceDetector::new()),
                Box::new(ParallelRd2::new(3)),
            ];
            for detector in fresh {
                detector.restore(tail, &resolve).unwrap();
                assert_eq!(
                    detector.report(),
                    offline,
                    "seed {seed}, from width {workers}"
                );
                assert_eq!(
                    detector.checkpoint(),
                    tail,
                    "seed {seed}, from width {workers}"
                );
            }
            s.finalize(true, None);
        }
    }
}
