//! `ParallelRd2` — the sharded parallel detection pipeline.
//!
//! RD2 is inherently per-access-point: once the synchronization clocks are
//! known, actions on different objects never touch the same shadow state.
//! This module exploits that independence with a pool of N detector
//! workers, each owning a disjoint slice of the 64-way object-shard space:
//!
//! * **routing** — action events are dispatched to the worker owning their
//!   object's shard (`(obj % 64) % N`), so each access point is only ever
//!   touched by one worker and workers need no locks around their shadow
//!   state — each worker runs Algorithm 1 through its own `Shard`, the
//!   same state machine the serial detector is;
//! * **one admission step** — every event, fed online through the `on_*`
//!   callbacks or recorded and passed to [`ParallelRd2::ingest_shared`],
//!   goes through the same ingress step: the abandoned-thread shed filter,
//!   Table 1 on the master [`SyncClocks`] (the only place synchronization
//!   events are applied), and the pick of an action for its object's
//!   owner. Each fork/join/acquire/release (and a thread's first action,
//!   which initializes its clock as the serial detector does) yields the
//!   thread clocks it set as `Arc`'d `ClockSet`s. A worker installs a
//!   clock with a pointer swap and never redoes a join. Action events read
//!   `T(τ)` but never write it (the last row of Table 1), so each worker's
//!   clocks are exactly the serial detector's at every one of its actions;
//! * **one chunk message** — events reach the workers in chunks of up to
//!   `batch` consecutive events of one `Arc<Trace>`: the ingress's open
//!   online chunk, or a slice of a shared recording, never copied. Each
//!   worker receives the chunk with the offsets of its own actions and the
//!   clock sets every worker shares. A chunk ships when full and always
//!   before a control message or barrier, so each worker sees one ordered
//!   stream. Messages travel through bounded per-worker rings of
//!   `QUEUE_DEPTH` messages (producers block while a ring is full);
//! * **deterministic merge** — every race is tagged with the global
//!   ingress sequence number of its action; [`ParallelRd2::report`]
//!   stably sorts the sampled records by that sequence number and rebuilds
//!   the report through the ordinary [`RaceReport`] machinery, which makes
//!   the merged report *bit-for-bit equal* to the serial detector's
//!   (`tests/parallel_vs_serial.rs` asserts exactly that);
//! * **panic shield** — each message is processed under `catch_unwind`.
//!   The chaos poison panics before it writes anything, so the worker
//!   skips it and carries on with its state. Any other panic may have
//!   left clock or registry state half-written, and losing a
//!   happens-before edge could fabricate races, so the worker degrades
//!   fail-open instead: it sheds its further events, keeps the races
//!   found before the panic and still answers barriers. Only a checkpoint
//!   restore rebuilds a worker. The contract: *never invent races*;
//! * **checkpoint/restore** — the pipeline implements
//!   [`Checkpoint`](crate::Checkpoint) in the one `rd2` format every RD2
//!   front-end shares: at one ingress sequence number, a barrier renders
//!   the head of the blob (counts, master clocks, abandoned set) under
//!   the ingress lock while each worker renders its own shard's object
//!   records; the merged report and the records (merged by object id)
//!   follow the head. Restore
//!   routes each object to its owner at *this*
//!   pipeline's width, so a checkpoint restores at any worker count.

use crate::checkpoint::{rd2_head, report_write, write_blocks, Blocks, Rd2Meta, Rd2State};
use crate::engine::ClockMode;
use crate::front_end::feed_work;
use crate::points::CompiledSpec;
use crate::shard::{Abandoned, Findings, Shard, ShardConfig, SpecCache};
use crace_model::{Action, Analysis, Event, LockId, ObjId, RaceReport, ThreadId, Trace};
use crace_obs::trace::{Lane, PhaseId, Tracer};
use crace_obs::Registry;
use crace_vclock::{ClockStats, SyncClocks, VectorClock};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Number of object shards. Objects route to shards by `obj % OBJ_SHARDS`
/// and shards to workers by `shard % workers`, so the width is at most
/// this.
const OBJ_SHARDS: usize = 64;

/// Maximum in-flight messages per worker ring; producers block (back
/// pressure) when a ring is full.
const QUEUE_DEPTH: usize = 8;

/// Tuning knobs of the parallel pipeline. The defaults favor throughput;
/// tests shrink `batch` to exercise multi-chunk delivery on small traces.
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Events per chunk: the ingress ships its open chunk once it holds
    /// this many events (barriers and control messages ship a partial
    /// one). Larger chunks amortize ring synchronization; smaller ones
    /// reduce detection latency.
    pub batch: usize,
    /// Access-point clock representation, as in the serial detectors.
    pub mode: ClockMode,
    /// When set, workers collect race provenance with this event window.
    pub provenance_window: Option<usize>,
    /// When set, the pipeline records span timelines into this tracer:
    /// ingress chunk shipments, sync-event admissions, per-worker message
    /// dispatch and the report merge, plus
    /// ring-queue-depth counter samples. `None` (the default) records
    /// nothing and adds no work to any path — the same double-gating
    /// discipline as `provenance_window`.
    pub tracer: Option<Arc<Tracer>>,
}

impl ParallelConfig {
    fn shard_config(&self) -> ShardConfig {
        ShardConfig {
            mode: self.mode,
            provenance_window: self.provenance_window,
        }
    }
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig {
            batch: 512,
            mode: ClockMode::Adaptive,
            provenance_window: None,
            tracer: None,
        }
    }
}

/// One message on a worker ring. Every event travels inside a `Chunk`;
/// the rest are control messages, sent only after the open chunk ships.
enum Msg {
    /// Consecutive events of one shared trace — the ingress's open online
    /// chunk or a slice of a recording — with what this worker needs of
    /// them: no per-event clone, no per-event message, no per-worker
    /// rescan.
    Chunk {
        /// `base + 1 + offset` is an event's global sequence number.
        base: u64,
        trace: Arc<Trace>,
        /// Trace offsets of this worker's shard's actions, ascending.
        picks: Vec<u32>,
        /// The thread clocks the chunk's events set, ascending by offset,
        /// shared by all workers.
        sets: Arc<Vec<ClockSet>>,
        /// Synchronization events in the chunk.
        syncs: u64,
    },
    Register(ObjId, Arc<CompiledSpec>),
    Forget(ObjId),
    Abandon(ThreadId),
    /// Chaos hook: makes the worker panic while processing, before it
    /// writes anything, exercising the panic shield end to end.
    Poison,
    /// Barrier: run the visitor on the worker's shard (it fills a reply
    /// slot), in stream order — reports, statistics and checkpoints.
    Visit(Box<dyn Fn(&mut Shard) + Send>),
    /// Restore: replace the worker's state with this one (clearing any
    /// degradation).
    Install(Box<WorkerState>),
}

/// One thread clock set by the ingress's replay of Table 1: `tid`'s clock
/// *after* the event at trace offset `off`.
struct ClockSet {
    off: u32,
    tid: ThreadId,
    clock: Arc<VectorClock>,
}

impl Msg {
    /// How many events this message stands for in a worker's counters: a
    /// chunk's actions for this worker plus its synchronization events;
    /// barriers none; every other control message one.
    fn weight(&self) -> u64 {
        match self {
            Msg::Chunk { picks, syncs, .. } => picks.len() as u64 + syncs,
            Msg::Visit(_) | Msg::Install(_) => 0,
            _ => 1,
        }
    }
}

/// The bounded message queue between the ingress and one worker.
#[derive(Default)]
struct Ring {
    state: Mutex<RingState>,
    can_pop: Condvar,
    can_push: Condvar,
}

#[derive(Default)]
struct RingState {
    queue: VecDeque<Msg>,
    closed: bool,
}

impl Ring {
    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Ships one message, blocking while the ring is full (back pressure).
    fn push(&self, msg: Msg, shared: &WorkerShared) {
        let mut state = self.lock();
        while state.queue.len() >= QUEUE_DEPTH && !state.closed {
            state = self
                .can_push
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if !state.closed {
            state.queue.push_back(msg);
            shared
                .max_queue_depth
                .fetch_max(state.queue.len() as u64, Ordering::Relaxed);
        }
        drop(state);
        self.can_pop.notify_one();
    }

    /// Takes the next message; `None` once the ring is closed and drained.
    fn pop(&self, shared: &WorkerShared) -> Option<Msg> {
        let mut state = self.lock();
        loop {
            if let Some(msg) = state.queue.pop_front() {
                drop(state);
                self.can_push.notify_one();
                return Some(msg);
            }
            if state.closed {
                return None;
            }
            shared.parks.fetch_add(1, Ordering::Relaxed);
            state = self
                .can_pop
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.can_pop.notify_all();
        self.can_push.notify_all();
    }

    /// Messages currently queued (traced runs sample this after pushes).
    fn depth(&self) -> usize {
        self.lock().queue.len()
    }
}

/// Pre-resolved tracing handles of the ingress side; present only when
/// [`ParallelConfig::tracer`] is set.
struct IngressTrace {
    lane: Arc<Lane>,
    p_ingress: PhaseId,
    p_sync: PhaseId,
    p_merge: PhaseId,
    p_depth: PhaseId,
}

/// Pre-resolved tracing handles of one worker thread.
struct WorkerTrace {
    lane: Arc<Lane>,
    p_batch: PhaseId,
}

/// Lock-free per-worker counters, shared between the worker thread and
/// [`ParallelRd2::stats`].
#[derive(Default)]
struct WorkerShared {
    events: AtomicU64,
    batches: AtomicU64,
    max_queue_depth: AtomicU64,
    parks: AtomicU64,
    panics: AtomicU64,
    shed: AtomicU64,
    degraded: AtomicBool,
    respawns: AtomicU64,
}

/// Snapshot of one worker's pipeline counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Events this worker processed: each chunk's actions for this worker
    /// plus its synchronization events, and one per register, forget,
    /// abandon or poison message.
    pub events: u64,
    /// Messages (chunks, control messages, barriers) this worker drained
    /// from its ring.
    pub batches: u64,
    /// High-watermark of the ring's queued-message depth.
    pub max_queue_depth: u64,
    /// Times the worker slept waiting for work (idle transitions).
    pub parks: u64,
    /// Panics caught inside this worker.
    pub panics: u64,
    /// Events shed after the worker degraded, plus one per poison skipped.
    pub events_shed: u64,
    /// True once a panic other than the chaos poison tripped this worker
    /// into shedding mode; a checkpoint restore clears it.
    pub degraded: bool,
    /// Chaos poisons caught and skipped in place (the worker's state is
    /// untouched, so it carries on).
    pub respawns: u64,
}

/// Snapshot of the whole pipeline's counters — the `parallel.*` metrics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerStats>,
    /// Events accepted at the ingress (not shed).
    pub events_in: u64,
    /// Synchronization events broadcast to every worker.
    pub sync_broadcasts: u64,
    /// Events shed at the ingress because they named an abandoned thread.
    pub events_shed: u64,
}

impl ParallelStats {
    /// Exports the pipeline counters into `registry` under `parallel.*`:
    /// ingress totals as counters, per-worker occupancy (this worker's
    /// share of processed events), queue-depth high-watermarks and
    /// degradation flags as gauges. Safe to call repeatedly — counters are
    /// advanced by delta, never double-counted.
    pub fn feed(&self, registry: &Registry) {
        let sum = |field: fn(&WorkerStats) -> u64| self.workers.iter().map(field).sum();
        for (name, total) in [
            ("parallel.events_in", self.events_in),
            ("parallel.sync_broadcasts", self.sync_broadcasts),
            ("parallel.events_shed", self.events_shed),
            ("supervisor.respawns", sum(|w| w.respawns)),
        ] {
            registry.counter(name).advance_to(total);
        }
        registry.set_gauge("parallel.workers", self.workers.len() as f64);
        let total: u64 = self.workers.iter().map(|w| w.events).sum();
        for (i, w) in self.workers.iter().enumerate() {
            let share = if total > 0 {
                w.events as f64 / total as f64
            } else {
                0.0
            };
            registry.set_gauge(&format!("parallel.w{i}.occupancy"), share);
            registry.set_gauge(
                &format!("parallel.w{i}.queue_depth_max"),
                w.max_queue_depth as f64,
            );
            registry.set_gauge(
                &format!("parallel.w{i}.degraded"),
                if w.degraded { 1.0 } else { 0.0 },
            );
        }
    }
}

/// Producer-side state, serialized by the ingress lock.
struct Ingress {
    /// The global sequence counter: one per accepted online event, one
    /// per offset of a shared recording.
    seq: u64,
    /// The Table 1 clocks: the one copy the pipeline applies
    /// synchronization events to.
    sync: SyncClocks,
    /// The open online chunk: the events accepted since it last shipped.
    open: Trace,
    /// What the chunk being cut holds for the workers.
    cut: Cut,
}

/// The per-worker content of the chunk being cut, filled by
/// [`ParallelRd2::admit`] and emptied by [`ParallelRd2::ship`].
struct Cut {
    /// Per worker, the offsets of the actions it owns.
    picks: Vec<Vec<u32>>,
    sets: Vec<ClockSet>,
    syncs: u64,
}

/// The sharded parallel commutativity race detector.
///
/// Functionally identical to the serial [`TraceDetector`](crate::TraceDetector)
/// — the differential suite asserts bit-for-bit equal [`RaceReport`]s — but
/// the per-event work is split between a thin ingress (admit, route, chunk)
/// and N single-owner workers that run phase 1/phase 2 of Algorithm 1
/// without any locking around their shadow state.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use crace_core::{translate, ParallelRd2};
/// use crace_model::{Action, Analysis, ObjId, ThreadId, Value};
/// use crace_spec::builtin;
///
/// let spec = builtin::dictionary();
/// let rd2 = ParallelRd2::new(4);
/// rd2.register(ObjId(1), Arc::new(translate(&spec)?));
///
/// let put = spec.method_id("put").unwrap();
/// rd2.on_fork(ThreadId(0), ThreadId(1));
/// rd2.on_action(ThreadId(0), &Action::new(
///     ObjId(1), put, vec![Value::Int(5), Value::Int(1)], Value::Nil));
/// rd2.on_action(ThreadId(1), &Action::new(
///     ObjId(1), put, vec![Value::Int(5), Value::Int(2)], Value::Int(1)));
/// assert_eq!(rd2.report().total(), 1);
/// # Ok::<(), crace_core::TranslateError>(())
/// ```
pub struct ParallelRd2 {
    ingress: Mutex<Ingress>,
    rings: Vec<Arc<Ring>>,
    shared: Vec<Arc<WorkerShared>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    cfg: ParallelConfig,
    workers: usize,
    /// The shed filter runs at the ingress (under the ingress lock), so
    /// shed events are never routed at all.
    abandoned: Abandoned,
    compiled: SpecCache,
    events_in: AtomicU64,
    sync_broadcasts: AtomicU64,
    trace: Option<IngressTrace>,
    /// Length of the last checkpoint, the next one's starting capacity.
    ckpt_len: AtomicUsize,
}

impl ParallelRd2 {
    /// Spawns a pipeline with `workers` detector workers (clamped to
    /// `1..=64`) and default tuning.
    pub fn new(workers: usize) -> ParallelRd2 {
        ParallelRd2::with_config(workers, ParallelConfig::default())
    }

    /// Spawns a pipeline with an explicit clock representation.
    pub fn with_mode(workers: usize, mode: ClockMode) -> ParallelRd2 {
        ParallelRd2::with_config(
            workers,
            ParallelConfig {
                mode,
                ..ParallelConfig::default()
            },
        )
    }

    /// Spawns a pipeline that collects race provenance with the given
    /// event window, as
    /// [`TraceDetector::with_provenance`](crate::TraceDetector::with_provenance).
    pub fn with_provenance(workers: usize, window: usize) -> ParallelRd2 {
        ParallelRd2::with_config(
            workers,
            ParallelConfig {
                provenance_window: Some(window),
                ..ParallelConfig::default()
            },
        )
    }

    /// Spawns a pipeline with full control over the tuning knobs.
    pub fn with_config(workers: usize, cfg: ParallelConfig) -> ParallelRd2 {
        let workers = workers.clamp(1, OBJ_SHARDS);
        let cfg = ParallelConfig {
            batch: cfg.batch.max(1),
            ..cfg
        };
        let rings: Vec<Arc<Ring>> = (0..workers).map(|_| Arc::default()).collect();
        let shared: Vec<Arc<WorkerShared>> = (0..workers).map(|_| Arc::default()).collect();
        let handles = rings
            .iter()
            .zip(&shared)
            .enumerate()
            .map(|(w, (ring, shared))| {
                let ring = Arc::clone(ring);
                let shared = Arc::clone(shared);
                let cfg = cfg.clone();
                std::thread::Builder::new()
                    .name(format!("crace-rd2-w{w}"))
                    .spawn(move || worker_main(&ring, &shared, &cfg, w))
                    .expect("spawn detector worker")
            })
            .collect();
        let trace = cfg.tracer.as_ref().map(|t| IngressTrace {
            lane: t.lane("ingress"),
            p_ingress: t.phase("parallel.ingress"),
            p_sync: t.phase("parallel.sync"),
            p_merge: t.phase("parallel.merge"),
            p_depth: t.phase("parallel.queue_depth"),
        });
        ParallelRd2 {
            ingress: Mutex::new(Ingress {
                seq: 0,
                sync: SyncClocks::new(),
                open: Trace::new(),
                cut: Cut {
                    picks: vec![Vec::new(); workers],
                    sets: Vec::new(),
                    syncs: 0,
                },
            }),
            rings,
            shared,
            handles: Mutex::new(handles),
            cfg,
            workers,
            abandoned: Abandoned::default(),
            compiled: SpecCache::default(),
            events_in: AtomicU64::new(0),
            sync_broadcasts: AtomicU64::new(0),
            trace,
            ckpt_len: AtomicUsize::new(0),
        }
    }

    /// Number of detector workers in the pool.
    pub fn num_workers(&self) -> usize {
        self.workers
    }

    /// The worker owning `obj`'s shard — the same partition the serial
    /// sharded detector uses, folded onto the worker pool.
    fn route(&self, obj: ObjId) -> usize {
        (obj.0 as usize % OBJ_SHARDS) % self.workers
    }

    fn lock_ingress(&self) -> MutexGuard<'_, Ingress> {
        self.ingress.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The one admission step of every event, online or shared: the
    /// abandoned-thread shed filter, Table 1 on the master clocks (each
    /// thread clock the event sets joins `cut` at trace offset `off`), and
    /// the pick of an action for its object's owner. Returns whether the
    /// event was accepted; reads and writes never are, RD2 ignores them.
    fn admit(&self, sync: &mut SyncClocks, cut: &mut Cut, event: &Event, off: u32) -> bool {
        let other = match *event {
            Event::Fork { child, .. } | Event::Join { child, .. } => child,
            Event::Read { .. } | Event::Write { .. } => return false,
            _ => event.tid(),
        };
        if self.abandoned.sheds(&[event.tid(), other]) {
            return false;
        }
        self.events_in.fetch_add(1, Ordering::Relaxed);
        let _span = (self.trace.as_ref())
            .filter(|_| event.is_sync())
            .map(|t| t.lane.span(t.p_sync));
        let mut set = |sync: &mut SyncClocks, tid: ThreadId| {
            cut.sets.push(ClockSet {
                off,
                tid,
                clock: Arc::new(sync.clock(tid).clone()),
            });
        };
        match *event {
            Event::Fork { parent, child } => {
                sync.fork(parent, child);
                set(sync, parent);
                set(sync, child);
            }
            Event::Join { parent, child } => {
                sync.join(parent, child);
                set(sync, parent);
                set(sync, child);
            }
            Event::Acquire { tid, lock } => {
                sync.acquire(tid, lock);
                set(sync, tid);
            }
            Event::Release { tid, lock } => {
                sync.release(tid, lock);
                set(sync, tid);
            }
            Event::Action { tid, ref action } => {
                // A thread whose first event is an action starts at its
                // fresh clock, exactly as the serial detector initializes it.
                if sync.peek_clock(tid).is_none() {
                    set(sync, tid);
                }
                cut.picks[self.route(action.obj())].push(off);
                return true;
            }
            Event::Read { .. } | Event::Write { .. } => return false,
        }
        cut.syncs += 1;
        self.sync_broadcasts.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Ships the chunk `cut` describes — `events` events of `trace`, whose
    /// offset `off` has sequence number `base + 1 + off` — to every worker
    /// it concerns, leaving `cut` empty.
    fn ship(&self, cut: &mut Cut, trace: &Arc<Trace>, base: u64, events: usize) {
        let _span = self.trace.as_ref().map(|t| {
            let mut span = t.lane.span(t.p_ingress);
            span.set_aux(events as u64);
            span
        });
        let sets = Arc::new(std::mem::take(&mut cut.sets));
        let syncs = std::mem::take(&mut cut.syncs);
        for (w, picks) in cut.picks.iter_mut().enumerate() {
            if picks.is_empty() && sets.is_empty() {
                continue;
            }
            let chunk = Msg::Chunk {
                base,
                trace: Arc::clone(trace),
                picks: std::mem::take(picks),
                sets: Arc::clone(&sets),
                syncs,
            };
            self.push(w, chunk);
        }
    }

    /// Ships the open online chunk, if it holds any event.
    fn seal(&self, ingress: &mut Ingress) {
        if ingress.open.is_empty() {
            return;
        }
        let trace = Arc::new(std::mem::take(&mut ingress.open));
        let base = ingress.seq - trace.len() as u64;
        self.ship(&mut ingress.cut, &trace, base, trace.len());
    }

    fn push(&self, w: usize, msg: Msg) {
        self.rings[w].push(msg, &self.shared[w]);
        if let Some(t) = &self.trace {
            t.lane.counter(t.p_depth, self.rings[w].depth() as u64);
        }
    }

    /// Sends a control message to worker `w` behind the open chunk, so
    /// the worker sees events and controls in stream order.
    fn send(&self, ingress: &mut Ingress, w: usize, msg: Msg) {
        self.seal(ingress);
        self.push(w, msg);
    }

    /// Admits one online event into the open chunk, which ships once it
    /// holds `batch` events.
    fn online(&self, event: Event) {
        let mut ingress = self.lock_ingress();
        let Ingress {
            seq,
            sync,
            open,
            cut,
        } = &mut *ingress;
        if self.admit(sync, cut, &event, open.len() as u32) {
            open.push(event);
            *seq += 1;
            if open.len() >= self.cfg.batch {
                self.seal(&mut ingress);
            }
        }
    }

    /// Registers `obj` to be checked against `spec`. Actions on
    /// unregistered objects are ignored (selective instrumentation).
    pub fn register(&self, obj: ObjId, spec: Arc<CompiledSpec>) {
        let w = self.route(obj);
        self.send(&mut self.lock_ingress(), w, Msg::Register(obj, spec));
    }

    /// Registers `obj` against an uncompiled specification, translating on
    /// first use and caching by spec name (as the serial detectors do).
    ///
    /// # Errors
    ///
    /// Returns the translation error if the specification is outside ECL.
    pub fn register_spec(
        &self,
        obj: ObjId,
        spec: &crace_spec::Spec,
    ) -> Result<(), crate::TranslateError> {
        self.register(obj, self.compiled.get(spec)?);
        Ok(())
    }

    /// Drops all shadow state of `obj` (the §5.3 reclamation).
    pub fn forget(&self, obj: ObjId) {
        self.send(&mut self.lock_ingress(), self.route(obj), Msg::Forget(obj));
    }

    /// Number of events shed at the ingress because they named an
    /// abandoned thread.
    pub fn events_shed(&self) -> u64 {
        self.abandoned.shed()
    }

    /// Chaos hook: delivers a poison message to `worker` (modulo the pool
    /// size), making it panic in-stream. The poison panics before it
    /// writes anything, so the worker skips it and carries on, and the
    /// report stays bit-for-bit equal to serial.
    pub fn inject_worker_panic(&self, worker: usize) {
        self.send(&mut self.lock_ingress(), worker % self.workers, Msg::Poison);
    }

    /// Zero-copy offline ingestion: feeds an entire recorded trace
    /// through the pipeline without cloning a single event. The ingress
    /// ships its open online chunk, then cuts the recording into chunks of
    /// `batch` events, admitting each event exactly as the online path
    /// does; every chunk message points into the one shared trace.
    /// Sequence numbers derive from the trace position, so the
    /// deterministic merge — and hence the report — is bit-for-bit what
    /// per-event dispatch produces, and the two paths compose freely
    /// within one stream.
    pub fn ingest_shared(&self, trace: &Arc<Trace>) {
        let mut ingress = self.lock_ingress();
        self.seal(&mut ingress);
        let Ingress { seq, sync, cut, .. } = &mut *ingress;
        // Each event's sequence number is `base + 1 + trace offset`;
        // unpicked offsets (reads, writes, shed events) leave gaps, which
        // the merge tolerates.
        let base = *seq;
        *seq += trace.len() as u64;
        let batch = self.cfg.batch;
        for (i, chunk) in trace.events().chunks(batch).enumerate() {
            for (j, event) in chunk.iter().enumerate() {
                self.admit(sync, cut, event, (i * batch + j) as u32);
            }
            self.ship(cut, trace, base, chunk.len());
        }
    }

    /// Barrier: ships the open chunk and runs `read` on every worker's
    /// shard once it has absorbed it. `at` runs on the ingress state under
    /// the same lock, so both sides describe exactly the same stream
    /// prefix.
    fn barrier<T: Send + 'static, U>(
        &self,
        read: fn(&mut Shard) -> T,
        at: impl FnOnce(&Ingress) -> U,
    ) -> (U, Vec<T>) {
        let mut ingress = self.lock_ingress();
        let replies: Vec<_> = (0..self.workers)
            .map(|w| {
                // The one-shot reply slot for this worker's answer.
                let (reply, answer) = mpsc::sync_channel(1);
                let visit = move |shard: &mut Shard| drop(reply.send(read(shard)));
                self.send(&mut ingress, w, Msg::Visit(Box::new(visit)));
                answer
            })
            .collect();
        let at = at(&ingress);
        drop(ingress);
        let answer = |rx: mpsc::Receiver<T>| rx.recv().expect("workers answer every barrier");
        (at, replies.into_iter().map(answer).collect())
    }

    /// Total phase-1 conflict probes across all workers (the §5.4 work
    /// measure). A report barrier.
    pub fn num_probes(&self) -> u64 {
        self.barrier(|s| s.num_probes(), |_| ()).1.iter().sum()
    }

    /// Aggregated clock-representation statistics across all workers. A
    /// report barrier.
    pub fn clock_stats(&self) -> ClockStats {
        let mut stats = ClockStats::default();
        for shard_stats in self.barrier(|s| s.clock_stats(), |_| ()).1 {
            stats.merge(&shard_stats);
        }
        stats
    }

    /// Non-blocking snapshot of the pipeline counters (ingress totals,
    /// per-worker occupancy / queue depth / degradation).
    pub fn stats(&self) -> ParallelStats {
        ParallelStats {
            workers: self
                .shared
                .iter()
                .map(|s| WorkerStats {
                    events: s.events.load(Ordering::Relaxed),
                    batches: s.batches.load(Ordering::Relaxed),
                    max_queue_depth: s.max_queue_depth.load(Ordering::Relaxed),
                    parks: s.parks.load(Ordering::Relaxed),
                    panics: s.panics.load(Ordering::Relaxed),
                    events_shed: s.shed.load(Ordering::Relaxed),
                    degraded: s.degraded.load(Ordering::Relaxed),
                    respawns: s.respawns.load(Ordering::Relaxed),
                })
                .collect(),
            events_in: self.events_in.load(Ordering::Relaxed),
            sync_broadcasts: self.sync_broadcasts.load(Ordering::Relaxed),
            events_shed: self.events_shed(),
        }
    }
}

impl crate::FrontEnd for ParallelRd2 {
    fn register(&self, obj: ObjId, spec: Arc<CompiledSpec>) {
        ParallelRd2::register(self, obj, spec);
    }

    /// Both the work measure and the clock statistics are report barriers.
    fn feed(&self, registry: &Registry, prefix: &str) {
        feed_work(registry, prefix, self.num_probes(), &self.clock_stats());
        self.stats().feed(registry);
    }

    fn degraded(&self) -> bool {
        self.shared
            .iter()
            .any(|s| s.degraded.load(Ordering::Relaxed))
    }
}

impl crate::Checkpoint for ParallelRd2 {
    /// Folds the pipeline into the one `rd2` layout at a barrier: the
    /// ingress renders the head (counts, master clocks, abandoned set)
    /// under its lock while each worker renders its own shard's object
    /// records; the merged report and the records, merged by object id,
    /// follow the head.
    fn checkpoint(&self) -> String {
        let read = |shard: &mut Shard| (Arc::clone(shard.findings()), Blocks::of(shard));
        let (mut w, parts) = self.barrier(read, |ingress| {
            let meta = Rd2Meta {
                shed: self.abandoned.shed(),
                events: self.events_in.load(Ordering::Relaxed),
                syncs: self.sync_broadcasts.load(Ordering::Relaxed),
            };
            rd2_head(
                self.cfg.shard_config(),
                &ingress.sync,
                meta,
                &self.abandoned.tids(),
                self.ckpt_len.load(Ordering::Relaxed),
            )
        });
        let (findings, blocks): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
        report_write(&mut w, &Findings::merge(&findings));
        write_blocks(&mut w, &blocks);
        let blob = w.finish();
        self.ckpt_len.store(blob.len(), Ordering::Relaxed);
        blob
    }

    /// Routes each restored object to its owner at this pipeline's width,
    /// installs the master clocks in every worker, and restores the
    /// ingress counts.
    fn restore(
        &self,
        text: &str,
        resolve: &crate::SpecResolver<'_>,
    ) -> Result<(), crace_vclock::CkptError> {
        let mut state = Rd2State::read(text, resolve, self.cfg.shard_config())?;
        let shards = state.take_shards(self.workers, |obj| self.route(obj));
        let clocks: HashMap<ThreadId, Arc<VectorClock>> = state
            .sync
            .initialized()
            .map(|(tid, clock)| (tid, Arc::new(clock.clone())))
            .collect();
        {
            let mut ingress = self.lock_ingress();
            for (w, shard) in shards.into_iter().enumerate() {
                let worker = WorkerState {
                    clocks: clocks.clone(),
                    shard,
                };
                self.send(&mut ingress, w, Msg::Install(Box::new(worker)));
            }
            ingress.sync = state.sync;
            self.abandoned.restore(state.abandoned, state.meta.shed);
            self.events_in.store(state.meta.events, Ordering::Relaxed);
            self.sync_broadcasts
                .store(state.meta.syncs, Ordering::Relaxed);
        }
        // Wait until every worker has installed its state.
        self.barrier(|_| (), |_| ());
        Ok(())
    }
}

impl Analysis for ParallelRd2 {
    fn name(&self) -> &str {
        "rd2-parallel"
    }

    fn on_fork(&self, parent: ThreadId, child: ThreadId) {
        self.online(Event::Fork { parent, child });
    }

    fn on_join(&self, parent: ThreadId, child: ThreadId) {
        self.online(Event::Join { parent, child });
    }

    fn on_acquire(&self, tid: ThreadId, lock: LockId) {
        self.online(Event::Acquire { tid, lock });
    }

    fn on_release(&self, tid: ThreadId, lock: LockId) {
        self.online(Event::Release { tid, lock });
    }

    fn on_action(&self, tid: ThreadId, action: &Action) {
        self.online(Event::Action {
            tid,
            action: action.clone(),
        });
    }

    /// Finalizes a dead thread exactly as the serial detectors do: later
    /// events naming it are shed at the ingress, and every worker drops its
    /// clock in-stream (no happens-before edges introduced).
    fn abandon_thread(&self, tid: ThreadId) {
        let mut ingress = self.lock_ingress();
        self.abandoned.insert(tid);
        ingress.sync.retire(tid);
        for w in 0..self.workers {
            self.send(&mut ingress, w, Msg::Abandon(tid));
        }
    }

    /// The deterministic merge: flushes the pipeline, gathers every
    /// worker's findings at a barrier, and merges them by the global
    /// ingress sequence number of each race's action — bit-for-bit what
    /// the serial detector would have produced.
    fn report(&self) -> RaceReport {
        let _span = self.trace.as_ref().map(|t| t.lane.span(t.p_merge));
        let findings = self.barrier(|shard| Arc::clone(shard.findings()), |_| ()).1;
        Findings::merge(&findings)
    }
}

impl Drop for ParallelRd2 {
    fn drop(&mut self) {
        self.seal(&mut self.lock_ingress());
        for ring in &self.rings {
            ring.close();
        }
        for handle in self
            .handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
        {
            let _ = handle.join();
        }
    }
}

/// A worker's complete state: the thread clocks the ingress set and its
/// Algorithm 1 shard. Restore installs a fresh one.
struct WorkerState {
    clocks: HashMap<ThreadId, Arc<VectorClock>>,
    shard: Shard,
}

impl WorkerState {
    fn new(cfg: &ParallelConfig) -> WorkerState {
        WorkerState {
            clocks: HashMap::new(),
            shard: Shard::new(cfg.shard_config()),
        }
    }

    /// Installs one thread clock from the ingress: an `Arc` pointer swap.
    fn clock_set(&mut self, set: &ClockSet) {
        self.clocks.insert(set.tid, Arc::clone(&set.clock));
    }

    /// Applies one message.
    fn process(&mut self, msg: Msg) {
        match msg {
            Msg::Chunk {
                base,
                trace: events,
                picks,
                sets,
                ..
            } => {
                let events = events.events();
                let mut next = 0usize;
                for off in picks {
                    // A set at the action's own offset is its thread's
                    // first clock, so it goes in before the action.
                    while next < sets.len() && sets[next].off <= off {
                        self.clock_set(&sets[next]);
                        next += 1;
                    }
                    // The ingress only picks action offsets; anything else
                    // would be an indexing bug, so don't detect on it.
                    if let Event::Action { tid, action } = &events[off as usize] {
                        self.action(base + 1 + u64::from(off), *tid, action);
                    }
                }
                // Sets past the last pick still matter: later actions read
                // the clocks this chunk left.
                for set in &sets[next..] {
                    self.clock_set(set);
                }
            }
            Msg::Register(obj, spec) => self.shard.register(obj, spec),
            Msg::Forget(obj) => self.shard.forget(obj),
            Msg::Abandon(tid) => {
                self.clocks.remove(&tid);
            }
            Msg::Poison => panic!("injected worker panic"),
            // Handled by the worker loop, never forwarded here.
            Msg::Visit(_) | Msg::Install(_) => {
                unreachable!("barriers handled by the worker loop")
            }
        }
    }

    /// Algorithm 1 on one routed action.
    fn action(&mut self, seq: u64, tid: ThreadId, action: &Action) {
        let clock = self
            .clocks
            .get(&tid)
            .expect("the ingress sets a thread's clock before its first action");
        self.shard.action(|| seq, tid, action, clock);
    }
}

/// The worker loop: drain messages, process each under a panic shield,
/// answer barriers even when degraded, and skip the chaos poison in place.
fn worker_main(ring: &Ring, shared: &WorkerShared, cfg: &ParallelConfig, w: usize) {
    let trace = cfg.tracer.as_ref().map(|t| WorkerTrace {
        lane: t.lane(&format!("worker{w}")),
        p_batch: t.phase("parallel.worker"),
    });
    let trace = trace.as_ref();
    let mut state = WorkerState::new(cfg);
    while let Some(msg) = ring.pop(shared) {
        shared.batches.fetch_add(1, Ordering::Relaxed);
        let msg = match msg {
            // Fail-open: even a degraded worker answers barriers with what
            // it has, and a visitor that panics trips the quarantine and
            // answers as an empty shard, so the barrier never waits on a
            // dead worker.
            Msg::Visit(visit) => {
                if catch_unwind(AssertUnwindSafe(|| visit(&mut state.shard))).is_err() {
                    shared.panics.fetch_add(1, Ordering::Relaxed);
                    shared.degraded.store(true, Ordering::Relaxed);
                    visit(&mut Shard::new(cfg.shard_config()));
                }
                continue;
            }
            // Restore: replace the state wholesale and clear any
            // degradation — the state is rebuilt, so the quarantine
            // reason is gone.
            Msg::Install(installed) => {
                state = *installed;
                shared.degraded.store(false, Ordering::Relaxed);
                continue;
            }
            msg => msg,
        };
        let weight = msg.weight();
        if shared.degraded.load(Ordering::Relaxed) {
            shared.shed.fetch_add(weight, Ordering::Relaxed);
            continue;
        }
        let poison = matches!(msg, Msg::Poison);
        // The span's `aux` is exactly what `events` gets: the span-derived
        // per-worker occupancy share is the counter-based `parallel.*` one
        // by construction.
        let mut span = trace.map(|t| t.lane.span(t.p_batch));
        if catch_unwind(AssertUnwindSafe(|| state.process(msg))).is_ok() {
            shared.events.fetch_add(weight, Ordering::Relaxed);
            if let Some(span) = span.as_mut() {
                span.set_aux(weight);
            }
            continue;
        }
        drop(span);
        shared.panics.fetch_add(1, Ordering::Relaxed);
        // Only the poison is skipped: it panics before it writes, so the
        // state is exactly what it was. A panic anywhere else may have
        // half-applied a chunk, and a lost happens-before edge could make
        // a later pair look concurrent, i.e. invent a race; a register,
        // forget or abandon may have left registry or clock state wrong.
        // Those quarantine the worker until a restore.
        if poison {
            shared.shed.fetch_add(weight, Ordering::Relaxed);
            shared.respawns.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.degraded.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate;
    use crate::{FrontEnd, TraceDetector};
    use crace_model::Value;
    use crace_spec::builtin;

    fn dict_pair() -> (crace_spec::Spec, Arc<CompiledSpec>) {
        let spec = builtin::dictionary();
        let compiled = Arc::new(translate(&spec).unwrap());
        (spec, compiled)
    }

    fn put(spec: &crace_spec::Spec, obj: u64, k: i64, v: i64, prev: Value) -> Action {
        Action::new(
            ObjId(obj),
            spec.method_id("put").unwrap(),
            vec![Value::Int(k), Value::Int(v)],
            prev,
        )
    }

    /// Runs `f` with the default panic hook silenced, so intentional
    /// worker panics don't spam test output.
    fn quiet<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn detects_the_running_example_race_at_any_width() {
        let (spec, compiled) = dict_pair();
        for workers in [1, 2, 4] {
            let rd2 = ParallelRd2::new(workers);
            rd2.register(ObjId(1), Arc::clone(&compiled));
            rd2.on_fork(ThreadId(0), ThreadId(1));
            rd2.on_fork(ThreadId(0), ThreadId(2));
            rd2.on_action(ThreadId(2), &put(&spec, 1, 5, 1, Value::Nil));
            rd2.on_action(ThreadId(1), &put(&spec, 1, 5, 2, Value::Int(1)));
            let report = rd2.report();
            assert_eq!(report.total(), 1, "workers={workers}");
            assert_eq!(report.distinct(), 1, "workers={workers}");
        }
    }

    #[test]
    fn merged_report_equals_serial_rd2_across_objects() {
        let (spec, compiled) = dict_pair();
        let parallel = ParallelRd2::with_config(
            3,
            ParallelConfig {
                batch: 2, // force multi-batch delivery
                ..ParallelConfig::default()
            },
        );
        let serial = TraceDetector::new();
        for obj in 1..=8u64 {
            parallel.register(ObjId(obj), Arc::clone(&compiled));
            serial.register(ObjId(obj), Arc::clone(&compiled));
        }
        let drive = |a: &dyn Analysis| {
            a.on_fork(ThreadId(0), ThreadId(1));
            a.on_fork(ThreadId(0), ThreadId(2));
            for obj in 1..=8u64 {
                a.on_action(ThreadId(1), &put(&spec, obj, 1, 1, Value::Nil));
                a.on_action(ThreadId(2), &put(&spec, obj, 1, 2, Value::Int(1)));
            }
            a.on_join(ThreadId(0), ThreadId(1));
            a.on_action(ThreadId(0), &put(&spec, 3, 1, 3, Value::Int(2)));
        };
        drive(&parallel);
        drive(&serial);
        assert_eq!(parallel.report(), serial.report());
    }

    /// A recorded trace exercising every event kind the shared path
    /// handles: forks, racing puts across several objects, a
    /// lock-protected action, and a join.
    fn recorded_trace(spec: &crace_spec::Spec) -> Trace {
        let mut trace = Trace::new();
        for t in 1..=3 {
            trace.push(Event::Fork {
                parent: ThreadId(0),
                child: ThreadId(t),
            });
        }
        for obj in 1..=6u64 {
            trace.push(Event::Action {
                tid: ThreadId(1),
                action: put(spec, obj, 1, 1, Value::Nil),
            });
            trace.push(Event::Action {
                tid: ThreadId(2),
                action: put(spec, obj, 1, 2, Value::Int(1)),
            });
        }
        trace.push(Event::Acquire {
            tid: ThreadId(3),
            lock: LockId(1),
        });
        trace.push(Event::Action {
            tid: ThreadId(3),
            action: put(spec, 1, 9, 1, Value::Nil),
        });
        trace.push(Event::Release {
            tid: ThreadId(3),
            lock: LockId(1),
        });
        trace.push(Event::Join {
            parent: ThreadId(0),
            child: ThreadId(1),
        });
        trace
    }

    #[test]
    fn shared_ingestion_matches_per_event_dispatch_and_serial() {
        let (spec, compiled) = dict_pair();
        let trace = Arc::new(recorded_trace(&spec));
        let serial = TraceDetector::new();
        for obj in 1..=6u64 {
            serial.register(ObjId(obj), Arc::clone(&compiled));
        }
        let expected = crace_model::replay(&trace, &serial);
        for workers in [1usize, 3] {
            for batch in [1usize, 4, 512] {
                let rd2 = ParallelRd2::with_config(
                    workers,
                    ParallelConfig {
                        batch,
                        ..ParallelConfig::default()
                    },
                );
                for obj in 1..=6u64 {
                    rd2.register(ObjId(obj), Arc::clone(&compiled));
                }
                rd2.ingest_shared(&trace);
                assert_eq!(rd2.report(), expected, "workers={workers} batch={batch}");
                assert_eq!(rd2.stats().events_in, trace.len() as u64);
            }
        }
    }

    #[test]
    fn shared_ingestion_sheds_events_of_abandoned_threads() {
        let (spec, compiled) = dict_pair();
        let rd2 = ParallelRd2::new(2);
        rd2.register(ObjId(1), Arc::clone(&compiled));
        rd2.on_fork(ThreadId(0), ThreadId(1));
        rd2.on_fork(ThreadId(0), ThreadId(2));
        rd2.abandon_thread(ThreadId(2));
        let mut trace = Trace::new();
        trace.push(Event::Action {
            tid: ThreadId(1),
            action: put(&spec, 1, 1, 1, Value::Nil),
        });
        trace.push(Event::Action {
            tid: ThreadId(2), // abandoned: must be shed, not detected
            action: put(&spec, 1, 1, 9, Value::Int(1)),
        });
        trace.push(Event::Action {
            tid: ThreadId(0),
            action: put(&spec, 1, 1, 2, Value::Int(1)),
        });
        rd2.ingest_shared(&Arc::new(trace));
        assert_eq!(rd2.events_shed(), 1);
        assert_eq!(rd2.report().total(), 1);
    }

    #[test]
    fn report_is_deterministic_across_collections() {
        let (spec, compiled) = dict_pair();
        let rd2 = ParallelRd2::new(4);
        for obj in 1..=16u64 {
            rd2.register(ObjId(obj), Arc::clone(&compiled));
        }
        rd2.on_fork(ThreadId(0), ThreadId(1));
        for obj in 1..=16u64 {
            rd2.on_action(ThreadId(0), &put(&spec, obj, 1, 1, Value::Nil));
            rd2.on_action(ThreadId(1), &put(&spec, obj, 1, 2, Value::Int(1)));
        }
        let first = rd2.report();
        assert_eq!(first.total(), 16);
        for _ in 0..5 {
            assert_eq!(rd2.report(), first);
        }
    }

    #[test]
    fn abandonment_sheds_at_the_ingress_like_serial() {
        let (spec, compiled) = dict_pair();
        let rd2 = ParallelRd2::new(2);
        rd2.register(ObjId(1), Arc::clone(&compiled));
        rd2.on_fork(ThreadId(0), ThreadId(1));
        rd2.on_fork(ThreadId(0), ThreadId(2));
        rd2.on_action(ThreadId(1), &put(&spec, 1, 1, 1, Value::Nil));
        rd2.abandon_thread(ThreadId(1));
        rd2.on_action(ThreadId(1), &put(&spec, 1, 1, 9, Value::Int(1)));
        rd2.on_join(ThreadId(0), ThreadId(1));
        assert_eq!(rd2.events_shed(), 2);
        rd2.on_action(ThreadId(2), &put(&spec, 1, 1, 2, Value::Int(1)));
        assert_eq!(rd2.report().total(), 1, "{:?}", rd2.report());
    }

    #[test]
    fn injected_worker_panic_heals_and_matches_serial() {
        quiet(|| {
            let (spec, compiled) = dict_pair();
            // The poison writes nothing, so the worker skips it in place
            // and the final report is bit-for-bit the serial one.
            let rd2 = ParallelRd2::new(1);
            let serial = TraceDetector::new();
            rd2.register(ObjId(1), Arc::clone(&compiled));
            serial.register(ObjId(1), Arc::clone(&compiled));
            let pre = |a: &dyn Analysis| {
                a.on_fork(ThreadId(0), ThreadId(1));
                a.on_action(ThreadId(0), &put(&spec, 1, 1, 1, Value::Nil));
                a.on_action(ThreadId(1), &put(&spec, 1, 1, 2, Value::Int(1)));
            };
            let post = |a: &dyn Analysis| {
                a.on_action(ThreadId(0), &put(&spec, 1, 2, 1, Value::Nil));
                a.on_action(ThreadId(1), &put(&spec, 1, 2, 2, Value::Int(1)));
            };
            pre(&rd2);
            rd2.inject_worker_panic(0);
            post(&rd2);
            pre(&serial);
            post(&serial);
            assert_eq!(rd2.report(), serial.report(), "healed run equals serial");
            assert!(!rd2.degraded(), "healed, not quarantined");
            let stats = rd2.stats();
            assert_eq!(stats.workers[0].panics, 1);
            assert_eq!(stats.workers[0].respawns, 1);
            assert_eq!(stats.workers[0].events_shed, 1, "only the poison is shed");
        });
    }

    #[test]
    fn repeated_panics_on_every_worker_are_skipped_in_place() {
        quiet(|| {
            let (spec, compiled) = dict_pair();
            // One-event chunks: every worker is poisoned between rounds,
            // three times, and carries on each time.
            let rd2 = ParallelRd2::with_config(
                2,
                ParallelConfig {
                    batch: 1,
                    ..ParallelConfig::default()
                },
            );
            let serial = TraceDetector::new();
            for obj in 1..=4u64 {
                rd2.register(ObjId(obj), Arc::clone(&compiled));
                serial.register(ObjId(obj), Arc::clone(&compiled));
            }
            let drive = |a: &dyn Analysis, chaos: bool| {
                a.on_fork(ThreadId(0), ThreadId(1));
                for round in 0..3i64 {
                    for obj in 1..=4u64 {
                        a.on_action(ThreadId(0), &put(&spec, obj, round, 1, Value::Nil));
                        a.on_action(ThreadId(1), &put(&spec, obj, round, 2, Value::Int(1)));
                    }
                    if chaos {
                        rd2.inject_worker_panic(0);
                        rd2.inject_worker_panic(1);
                    }
                }
            };
            drive(&rd2, true);
            drive(&serial, false);
            assert_eq!(rd2.report(), serial.report());
            assert!(!rd2.degraded());
            let stats = rd2.stats();
            assert_eq!(stats.workers.iter().map(|w| w.respawns).sum::<u64>(), 6);
        });
    }

    /// A worker that owns no action, poisoned after a long shared stream
    /// of synchronization events, skips the poison and stays healthy.
    #[test]
    fn an_idle_worker_skips_a_poison_after_a_long_stream() {
        quiet(|| {
            let (spec, compiled) = dict_pair();
            let cfg = ParallelConfig {
                batch: 8,
                ..ParallelConfig::default()
            };
            let rd2 = ParallelRd2::with_config(2, cfg);
            let owned = ObjId(2);
            assert_eq!(rd2.route(owned), 0, "worker 1 must own no action");
            rd2.register(owned, Arc::clone(&compiled));
            let mut trace = Trace::new();
            trace.push(Event::Fork {
                parent: ThreadId(0),
                child: ThreadId(1),
            });
            for i in 0..2000i64 {
                let (tid, lock) = (ThreadId(1), LockId(1));
                trace.push(Event::Acquire { tid, lock });
                trace.push(Event::Action {
                    tid,
                    action: put(&spec, owned.0, i, 1, Value::Nil),
                });
                trace.push(Event::Release { tid, lock });
            }
            rd2.ingest_shared(&Arc::new(trace));
            rd2.inject_worker_panic(1);
            assert!(rd2.report().is_empty());
            let idle = &rd2.stats().workers[1];
            assert_eq!((idle.respawns, idle.degraded), (1, false));
        });
    }

    /// Runs a barrier whose visitor panics on every shard with a
    /// registered object and answers 7 on an empty one.
    fn faulty_barrier(rd2: &ParallelRd2) -> Vec<u8> {
        let visit = |shard: &mut Shard| {
            let objects = shard.ckpt_objects(&mut String::new());
            assert!(objects.is_empty(), "visitor fault");
            7u8
        };
        rd2.barrier(visit, |_| ()).1
    }

    #[test]
    fn a_worker_panic_degrades_fail_open() {
        quiet(|| {
            let (spec, compiled) = dict_pair();
            // A panic other than the poison quarantines the worker: the
            // race before it survives, events after it are shed, report
            // still works.
            let rd2 = ParallelRd2::new(1);
            rd2.register(ObjId(1), Arc::clone(&compiled));
            rd2.on_fork(ThreadId(0), ThreadId(1));
            rd2.on_action(ThreadId(0), &put(&spec, 1, 1, 1, Value::Nil));
            rd2.on_action(ThreadId(1), &put(&spec, 1, 1, 2, Value::Int(1)));
            faulty_barrier(&rd2);
            rd2.on_action(ThreadId(0), &put(&spec, 1, 2, 1, Value::Nil));
            rd2.on_action(ThreadId(1), &put(&spec, 1, 2, 2, Value::Int(1)));
            let report = rd2.report();
            assert_eq!(report.total(), 1, "pre-panic race kept, no invented races");
            assert!(rd2.degraded());
            let stats = rd2.stats();
            assert_eq!(stats.workers[0].panics, 1);
            assert!(stats.workers[0].events_shed >= 2);
            assert_eq!(stats.workers[0].respawns, 0);
        });
    }

    #[test]
    fn checkpoint_restore_resumes_bit_for_bit() {
        use crate::Checkpoint;
        let (spec, compiled) = dict_pair();
        let resolver = crate::builtin_resolver();
        for workers in [1usize, 2, 4] {
            let cfg = ParallelConfig {
                batch: 2,
                provenance_window: Some(4),
                ..ParallelConfig::default()
            };
            let rd2 = ParallelRd2::with_config(workers, cfg.clone());
            for obj in 1..=6u64 {
                rd2.register(ObjId(obj), Arc::clone(&compiled));
            }
            rd2.on_fork(ThreadId(0), ThreadId(1));
            rd2.on_fork(ThreadId(0), ThreadId(2));
            for obj in 1..=6u64 {
                rd2.on_action(ThreadId(1), &put(&spec, obj, 1, 1, Value::Nil));
            }
            let blob = rd2.checkpoint();
            let restored = ParallelRd2::with_config(workers, cfg.clone());
            restored.restore(&blob, &resolver).unwrap();
            // The suffix after the checkpoint runs on both pipelines.
            for a in [&rd2, &restored] {
                for obj in 1..=6u64 {
                    a.on_action(ThreadId(2), &put(&spec, obj, 1, 2, Value::Int(1)));
                }
                a.on_join(ThreadId(0), ThreadId(1));
            }
            let (expected, resumed) = (rd2.report(), restored.report());
            assert_eq!(resumed, expected, "workers={workers}");
            assert_eq!(resumed.to_json(), expected.to_json(), "workers={workers}");
            assert_eq!(restored.stats().events_in, rd2.stats().events_in);
        }
    }

    /// Restore loses nothing a checkpoint records: re-checkpointing a
    /// restored pipeline, at any width, gives back the same blob — event
    /// counts and the reserved constants included — and the restored
    /// pipeline's counters match.
    #[test]
    fn checkpoint_is_a_fixed_point_of_restore_at_any_width() {
        use crate::Checkpoint;
        let (spec, compiled) = dict_pair();
        let resolver = crate::builtin_resolver();
        let cfg = ParallelConfig {
            batch: 2,
            ..ParallelConfig::default()
        };
        let rd2 = ParallelRd2::with_config(2, cfg.clone());
        rd2.register(ObjId(1), Arc::clone(&compiled));
        rd2.register(ObjId(2), Arc::clone(&compiled));
        for g in 0..4u32 {
            let (c1, c2) = (ThreadId(2 * g + 1), ThreadId(2 * g + 2));
            rd2.on_fork(ThreadId(0), c1);
            rd2.on_fork(ThreadId(0), c2);
            for i in 0..4i64 {
                let (key, obj) = (10 * i64::from(g) + i, 1 + (i as u64 % 2));
                rd2.on_action(c1, &put(&spec, obj, key, 1, Value::Nil));
                rd2.on_action(c2, &put(&spec, obj, key, 2, Value::Int(1)));
            }
            rd2.on_join(ThreadId(0), c1);
            // The last generation's second child stays live.
            if g < 3 {
                rd2.on_join(ThreadId(0), c2);
            }
        }
        let blob = rd2.checkpoint();
        assert!(
            blob.contains(" meta adaptive - 0 47 15 0 0 0,0,0\n"),
            "{blob}"
        );
        assert!(blob.contains(" joined 0\n"), "{blob}");
        for workers in [1usize, 2, 3, 4] {
            let restored = ParallelRd2::with_config(workers, cfg.clone());
            restored.restore(&blob, &resolver).unwrap();
            assert_eq!(restored.checkpoint(), blob, "workers={workers}");
            let (a, b) = (restored.stats(), rd2.stats());
            assert_eq!(a.events_in, b.events_in, "workers={workers}");
            assert_eq!(a.sync_broadcasts, b.sync_broadcasts, "workers={workers}");
            assert_eq!(restored.num_probes(), rd2.num_probes(), "workers={workers}");
            assert_eq!(
                restored.clock_stats(),
                rd2.clock_stats(),
                "workers={workers}"
            );
        }
    }

    /// A barrier whose visitor panics must still be answered: the worker
    /// degrades and answers as an empty shard instead of dying with the
    /// reply slot unfilled.
    #[test]
    fn a_panicking_barrier_visitor_degrades_instead_of_hanging() {
        quiet(|| {
            let (_spec, compiled) = dict_pair();
            let rd2 = ParallelRd2::new(2);
            rd2.register(ObjId(1), Arc::clone(&compiled));
            // Panics on the shard that owns object 1, not on an empty one.
            assert_eq!(faulty_barrier(&rd2), vec![7, 7]);
            assert!(rd2.degraded());
            assert_eq!(rd2.stats().workers.iter().map(|w| w.panics).sum::<u64>(), 1);
            assert!(rd2.report().is_empty(), "barriers still answered");
        });
    }

    #[test]
    fn checkpoint_restore_rejects_config_mismatch() {
        use crate::Checkpoint;
        let (_spec, compiled) = dict_pair();
        let resolver = crate::builtin_resolver();
        let rd2 = ParallelRd2::new(2);
        rd2.register(ObjId(1), Arc::clone(&compiled));
        let blob = rd2.checkpoint();
        // Different clock mode: fail closed.
        let other = ParallelRd2::with_mode(2, ClockMode::FullVector);
        assert!(other.restore(&blob, &resolver).is_err());
        // Different provenance configuration: fail closed.
        let other = ParallelRd2::with_provenance(2, 8);
        assert!(other.restore(&blob, &resolver).is_err());
        // Same configuration restores, at any worker count.
        for workers in [1, 2, 3] {
            let same = ParallelRd2::new(workers);
            same.restore(&blob, &resolver).unwrap();
            assert!(same.report().is_empty());
        }
    }

    #[test]
    fn restore_heals_a_degraded_pipeline() {
        use crate::Checkpoint;
        quiet(|| {
            let (spec, compiled) = dict_pair();
            let resolver = crate::builtin_resolver();
            let rd2 = ParallelRd2::new(1);
            rd2.register(ObjId(1), Arc::clone(&compiled));
            rd2.on_fork(ThreadId(0), ThreadId(1));
            let blob = rd2.checkpoint();
            faulty_barrier(&rd2);
            assert!(rd2.degraded());
            // Installing a checkpoint rebuilds the state and clears the
            // quarantine.
            rd2.restore(&blob, &resolver).unwrap();
            assert!(!rd2.degraded());
            rd2.on_action(ThreadId(0), &put(&spec, 1, 1, 1, Value::Nil));
            rd2.on_action(ThreadId(1), &put(&spec, 1, 1, 2, Value::Int(1)));
            assert_eq!(rd2.report().total(), 1);
        });
    }

    #[test]
    fn stats_and_feed_expose_worker_occupancy() {
        let (spec, compiled) = dict_pair();
        let rd2 = ParallelRd2::new(2);
        for obj in 1..=4u64 {
            rd2.register(ObjId(obj), Arc::clone(&compiled));
        }
        rd2.on_fork(ThreadId(0), ThreadId(1));
        for obj in 1..=4u64 {
            for i in 0..10i64 {
                rd2.on_action(ThreadId(1), &put(&spec, obj, i, i, Value::Int(7)));
            }
        }
        let _ = rd2.report(); // barrier: everything delivered
        let stats = rd2.stats();
        assert_eq!(stats.events_in, 41);
        assert_eq!(stats.sync_broadcasts, 1);
        let processed: u64 = stats.workers.iter().map(|w| w.events).sum();
        // Each worker processed its actions + registrations + the broadcast fork.
        assert_eq!(processed, 40 + 4 + 2);
        assert!(stats.workers.iter().all(|w| w.events > 0));

        let registry = Registry::new();
        rd2.feed(&registry, "rd2");
        let snap = registry.snapshot();
        assert_eq!(
            snap.get("parallel.events_in"),
            Some(&crace_obs::MetricValue::Counter(41))
        );
        assert!(snap.get("parallel.w0.occupancy").is_some());
        assert!(snap.get("parallel.w1.queue_depth_max").is_some());
        // Feeding twice must not double-count.
        rd2.feed(&registry, "rd2");
        assert_eq!(
            registry.snapshot().get("parallel.events_in"),
            Some(&crace_obs::MetricValue::Counter(41))
        );
    }

    #[test]
    fn forget_and_reregister_reset_state_in_stream() {
        let (spec, compiled) = dict_pair();
        let rd2 = ParallelRd2::new(2);
        rd2.register(ObjId(1), Arc::clone(&compiled));
        rd2.on_fork(ThreadId(0), ThreadId(1));
        rd2.on_action(ThreadId(0), &put(&spec, 1, 1, 1, Value::Nil));
        rd2.forget(ObjId(1));
        // Unregistered: ignored.
        rd2.on_action(ThreadId(1), &put(&spec, 1, 1, 2, Value::Int(1)));
        rd2.register(ObjId(1), Arc::clone(&compiled));
        // Fresh state: no active point to conflict with.
        rd2.on_action(ThreadId(1), &put(&spec, 1, 1, 2, Value::Int(1)));
        assert!(rd2.report().is_empty());
    }
}
