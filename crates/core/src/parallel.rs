//! `ParallelRd2` — the sharded parallel detection pipeline.
//!
//! RD2 is inherently per-access-point: once the synchronization clocks are
//! known, actions on different objects never touch the same shadow state.
//! This module exploits that independence with a pool of N detector
//! workers, each owning a disjoint slice of the 64-way object-shard space:
//!
//! * **routing** — action events are dispatched to the worker owning their
//!   object's shard (`(obj % 64) % N`, the same shard function the live
//!   [`Rd2`](crate::Rd2) uses), so each access point is only ever touched
//!   by one worker and workers need no locks around their shadow state —
//!   each worker runs Algorithm 1 through its own `Shard`, the same state
//!   machine the serial detector is;
//! * **one Table 1 replay** — the ingress is the only place synchronization
//!   events are applied, on its master [`SyncClocks`]. Each
//!   fork/join/acquire/release (and a thread's first action, which
//!   initializes its clock as the serial detector does) yields the thread
//!   clocks it set as `Arc`'d `ClockSet`s, and every worker receives them
//!   *in ingress order*: broadcast one event at a time on the online path,
//!   inside the chunk's message on the [`ParallelRd2::ingest_shared`] path.
//!   A worker installs a clock with a pointer swap and never redoes a
//!   join. Action events read `T(τ)` but never write it (the last row of
//!   Table 1), so each worker's clocks are exactly the serial detector's at
//!   every one of its actions;
//! * **batched delivery** — events travel in batches through bounded
//!   per-worker rings of `QUEUE_DEPTH` batches (producers block while a
//!   ring is full); batch buffers are pooled and recycled between producer
//!   and worker, so steady-state delivery does not allocate per batch;
//! * **deterministic merge** — every race is tagged with the global
//!   ingress sequence number of its action; [`ParallelRd2::report`]
//!   stably sorts the sampled records by that sequence number and rebuilds
//!   the report through the ordinary [`RaceReport`] machinery, which makes
//!   the merged report *bit-for-bit equal* to the serial detector's
//!   (`tests/parallel_vs_serial.rs` asserts exactly that);
//! * **epoch GC** — per-thread abandonment generalizes to a
//!   watermark sweep: every `gc_every` actions a worker computes the meet
//!   of all live thread clocks and retires access points dominated by it
//!   (see [`ObjState::retire_quiesced`](crate::ObjState::retire_quiesced));
//!   a retired point re-materializes
//!   exactly if touched again, so GC never changes a report;
//! * **supervision** — each event is processed under `catch_unwind`, and
//!   a panicking worker is *healed* when that is sound: the worker keeps a
//!   periodic in-memory snapshot of its shadow state plus a journal of the
//!   batches processed since, rebuilds itself from the snapshot, replays
//!   the journal, and skips only the poisoned message. Skipping an action
//!   event can only *hide* a race (it removes a point update and a
//!   detection), so the heal never invents one; a panic on a message that
//!   writes clock or registry state (sync events, shared-stream views,
//!   register/forget) cannot be healed by skipping — losing a
//!   happens-before edge could fabricate races — so the worker degrades
//!   fail-open instead (sheds its further events, keeps the races found
//!   before the panic, still answers report barriers). The contract:
//!   *heal when possible, shed only when healing fails, never invent
//!   races*;
//! * **checkpoint/restore** — the pipeline implements
//!   [`Checkpoint`](crate::Checkpoint) in the one `rd2` format every RD2
//!   front-end shares: a barrier gathers the master clocks, the union of
//!   the workers' objects and the merged report at one ingress sequence
//!   number, and restore routes each object to its owner at *this*
//!   pipeline's width, so a checkpoint restores at any worker count.

use crate::checkpoint::{write_shards, Rd2Meta, Rd2State, RD2_KIND};
use crate::engine::ClockMode;
use crate::front_end::feed_work;
use crate::points::CompiledSpec;
use crate::rd2::OBJ_SHARDS;
use crate::shard::{Abandoned, Findings, Shard, ShardConfig, SpecCache};
use crace_model::{Action, Analysis, Event, LockId, ObjId, RaceReport, ThreadId, Trace};
use crace_obs::trace::{Lane, PhaseId, Tracer};
use crace_obs::Registry;
use crace_vclock::{ClockStats, SyncClocks, VectorClock};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Maximum recycled batch buffers kept per worker ring.
const FREE_POOL: usize = 16;

/// Maximum in-flight batches per worker ring; producers block (back
/// pressure) when a ring is full.
const QUEUE_DEPTH: usize = 8;

/// Tuning knobs of the parallel pipeline. The defaults favor throughput;
/// tests shrink `batch` to exercise multi-batch delivery on small traces.
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Events accumulated per worker before a batch is shipped (report
    /// barriers flush partial batches). Larger batches amortize ring
    /// synchronization; smaller ones reduce detection latency.
    pub batch: usize,
    /// Access-point clock representation, as in the serial detectors.
    pub mode: ClockMode,
    /// When set, workers collect race provenance with this event window.
    pub provenance_window: Option<usize>,
    /// Run the epoch-GC watermark sweep every this many actions per
    /// worker; `0` disables GC. Enabling GC assumes a fork-structured
    /// stream (every thread except the root enters via a fork event).
    pub gc_every: usize,
    /// Refresh each worker's in-memory supervision snapshot every this
    /// many processed events; `0` disables supervision entirely (a panic
    /// then degrades the worker forever, the pre-PR-10 behavior). Between
    /// refreshes the worker journals its processed batches, so a heal
    /// costs one snapshot clone plus a bounded replay — there is no
    /// per-event cloning on the hot path.
    pub snapshot_every: usize,
    /// When set, the pipeline records span timelines into this tracer:
    /// ingress batch pushes, sync broadcasts, per-worker batch dispatch,
    /// GC sweeps, worker heals, and the report merge, plus
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
            gc_every: 0,
            snapshot_every: 4096,
            tracer: None,
        }
    }
}

/// One message on a worker ring. Clock updates and control messages are
/// broadcast to all workers; actions go to their object's owner only.
enum Msg {
    /// The thread clocks one online event set at the ingress.
    Clocks(Arc<Vec<ClockSet>>),
    Action {
        /// Global ingress sequence number — the merge key.
        seq: u64,
        tid: ThreadId,
        action: Action,
    },
    /// A zero-copy view into a shared recorded trace
    /// ([`ParallelRd2::ingest_shared`]): the ingress indexed the chunk
    /// once and each worker receives only the trace offsets of its
    /// shard's actions — no per-event clone, no per-event message, no
    /// per-worker rescan — plus the thread clocks the chunk's events set.
    Shared {
        /// `base + 1 + offset` is an event's global sequence number.
        base: u64,
        trace: Arc<Trace>,
        /// Trace offsets of this worker's shard's actions, ascending.
        picks: Vec<u32>,
        /// The thread clocks the chunk's events set, ascending by offset,
        /// shared by all workers.
        sets: Arc<Vec<ClockSet>>,
    },
    Register(ObjId, Arc<CompiledSpec>),
    Forget(ObjId),
    Abandon(ThreadId),
    /// Chaos hook: makes the worker panic while processing, exercising the
    /// supervision path (heal, or degrade without a snapshot) end to end.
    Poison,
    /// Barrier: run the visitor on the worker's shard (it fills a reply
    /// slot), in stream order — reports, statistics and checkpoints.
    Visit(Box<dyn Fn(&Shard) + Send>),
    /// Restore: replace the worker's state with this one (clearing any
    /// degradation).
    Install(Box<WorkerState>),
}

/// One thread clock set by the ingress's replay of Table 1: `tid`'s clock
/// *after* the event at trace offset `off` (`0` on the online path, where
/// each message carries one event's sets).
struct ClockSet {
    off: u32,
    tid: ThreadId,
    clock: Arc<VectorClock>,
    /// The thread emits no further events (a joined child): it leaves the
    /// GC live set instead of entering it.
    dead: bool,
}

impl Msg {
    /// How many events this message stands for in a worker's counters
    /// (shared views span many; barriers none; everything else is one).
    fn weight(&self) -> u64 {
        match self {
            Msg::Shared { picks, .. } => picks.len() as u64,
            Msg::Visit(_) | Msg::Install(_) => 0,
            _ => 1,
        }
    }

    /// Barrier/control messages the worker loop answers itself; a heal
    /// replay skips them (they were already answered).
    fn is_control(&self) -> bool {
        matches!(self, Msg::Visit(_) | Msg::Install(_))
    }

    /// Whether a panic on this message can be healed by skipping it.
    /// Only pure detection work qualifies: dropping an action removes a
    /// point update and a detection, which can only *hide* a race.
    /// Everything that writes clock or registry state is
    /// excluded — skipping one of those could delete a happens-before
    /// edge and make a later pair look concurrent, i.e. invent a race —
    /// so those degrade instead.
    fn heals_by_skipping(&self) -> bool {
        matches!(self, Msg::Action { .. } | Msg::Poison)
    }
}

/// The bounded ring between the ingress and one worker: a batch queue plus
/// a free list of recycled batch buffers.
struct Ring {
    state: Mutex<RingState>,
    can_pop: Condvar,
    can_push: Condvar,
    cap: usize,
}

#[derive(Default)]
struct RingState {
    queue: VecDeque<Vec<Msg>>,
    free: Vec<Vec<Msg>>,
    closed: bool,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            state: Mutex::new(RingState::default()),
            can_pop: Condvar::new(),
            can_push: Condvar::new(),
            cap: cap.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Ships one batch, blocking while the ring is full (back pressure).
    /// Returns a recycled buffer for the producer's next batch.
    fn push(&self, batch: Vec<Msg>, shared: &WorkerShared) -> Vec<Msg> {
        let mut state = self.lock();
        while state.queue.len() >= self.cap && !state.closed {
            state = self
                .can_push
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if !state.closed {
            state.queue.push_back(batch);
            shared
                .max_queue_depth
                .fetch_max(state.queue.len() as u64, Ordering::Relaxed);
        }
        let spare = state.free.pop().unwrap_or_default();
        drop(state);
        self.can_pop.notify_one();
        spare
    }

    /// Takes the next batch; `None` once the ring is closed and drained.
    fn pop(&self, shared: &WorkerShared) -> Option<Vec<Msg>> {
        let mut state = self.lock();
        loop {
            if let Some(batch) = state.queue.pop_front() {
                drop(state);
                self.can_push.notify_one();
                return Some(batch);
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

    /// Returns a drained batch buffer to the free pool.
    fn recycle(&self, mut batch: Vec<Msg>) {
        batch.clear();
        let mut state = self.lock();
        if state.free.len() < FREE_POOL {
            state.free.push(batch);
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.can_pop.notify_all();
        self.can_push.notify_all();
    }

    /// Batches currently queued (traced runs sample this after pushes).
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
    p_gc: PhaseId,
    p_heal: PhaseId,
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
    healed_events: AtomicU64,
    heal_micros: AtomicU64,
}

/// Snapshot of one worker's pipeline counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Messages this worker processed (actions, sync events, control).
    pub events: u64,
    /// Batches this worker drained from its ring.
    pub batches: u64,
    /// High-watermark of the ring's queued-batch depth.
    pub max_queue_depth: u64,
    /// Times the worker slept waiting for work (idle transitions).
    pub parks: u64,
    /// Panics caught inside this worker.
    pub panics: u64,
    /// Events shed after the worker degraded (plus one per message
    /// skipped by a heal).
    pub events_shed: u64,
    /// True once a panic tripped this worker into shedding mode (healing
    /// failed or supervision is off).
    pub degraded: bool,
    /// Times the supervisor rebuilt this worker from its snapshot after
    /// a panic.
    pub respawns: u64,
    /// Journal events replayed across all heals.
    pub healed_events: u64,
    /// Total wall-clock microseconds spent healing.
    pub heal_micros: u64,
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
            ("supervisor.healed_events", sum(|w| w.healed_events)),
            ("supervisor.heal_micros", sum(|w| w.heal_micros)),
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

/// Producer-side state, serialized by the ingress lock: the global
/// sequence counter, the per-worker pending batches, and the master
/// clocks.
struct Ingress {
    seq: u64,
    pending: Vec<Vec<Msg>>,
    /// The Table 1 clocks: the one copy the pipeline applies
    /// synchronization events to.
    sync: SyncClocks,
}

impl Ingress {
    /// Table 1 on the master clocks: applies `event` (at trace offset
    /// `off`) and appends every thread clock it sets to `sets`. Returns
    /// true for a synchronization event.
    fn replay(&mut self, event: &Event, off: u32, sets: &mut Vec<ClockSet>) -> bool {
        let sync = &mut self.sync;
        let mut set = |sync: &mut SyncClocks, tid: ThreadId, dead: bool| {
            sets.push(ClockSet {
                off,
                tid,
                clock: Arc::new(sync.clock(tid).clone()),
                dead,
            });
        };
        match *event {
            Event::Fork { parent, child } => {
                sync.fork(parent, child);
                set(sync, parent, false);
                set(sync, child, false);
            }
            Event::Join { parent, child } => {
                sync.join(parent, child);
                set(sync, parent, false);
                // A joined thread emits no further events (well-formed
                // traces), so it leaves the GC live set.
                set(sync, child, true);
            }
            Event::Acquire { tid, lock } => {
                sync.acquire(tid, lock);
                set(sync, tid, false);
            }
            Event::Release { tid, lock } => {
                sync.release(tid, lock);
                set(sync, tid, false);
            }
            // A thread whose first event is an action starts at its fresh
            // clock, exactly as the serial detector initializes it.
            Event::Action { tid, .. } => {
                if sync.peek_clock(tid).is_none() {
                    set(sync, tid, false);
                }
                return false;
            }
            Event::Read { .. } | Event::Write { .. } => return false,
        }
        true
    }
}

/// The sharded parallel commutativity race detector.
///
/// Functionally identical to the serial [`Rd2`](crate::Rd2) — the
/// differential suite asserts bit-for-bit equal [`RaceReport`]s — but the
/// per-event work is split between a thin ingress (route, stamp, batch)
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
    /// event window, as [`Rd2::with_provenance`](crate::Rd2::with_provenance).
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
        let rings: Vec<Arc<Ring>> = (0..workers)
            .map(|_| Arc::new(Ring::new(QUEUE_DEPTH)))
            .collect();
        let shared: Vec<Arc<WorkerShared>> = (0..workers)
            .map(|_| Arc::new(WorkerShared::default()))
            .collect();
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
                pending: (0..workers).map(|_| Vec::new()).collect(),
                sync: SyncClocks::new(),
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

    /// Appends `msg` to worker `w`'s pending batch, shipping the batch
    /// when it reaches the configured size.
    fn enqueue(&self, ingress: &mut Ingress, w: usize, msg: Msg) {
        ingress.pending[w].push(msg);
        if ingress.pending[w].len() >= self.cfg.batch {
            self.flush(ingress, w);
        }
    }

    /// Ships worker `w`'s pending batch (if any), leaving a recycled
    /// buffer in its place.
    fn flush(&self, ingress: &mut Ingress, w: usize) {
        if ingress.pending[w].is_empty() {
            return;
        }
        let batch = std::mem::take(&mut ingress.pending[w]);
        let span = self.trace.as_ref().map(|t| {
            let mut span = t.lane.span(t.p_ingress);
            span.set_aux(batch.len() as u64);
            span
        });
        ingress.pending[w] = self.rings[w].push(batch, &self.shared[w]);
        drop(span);
        if let Some(t) = &self.trace {
            t.lane.counter(t.p_depth, self.rings[w].depth() as u64);
        }
    }

    /// Applies one online event to the master clocks and broadcasts the
    /// thread clocks it set, in ingress order, to every worker.
    fn replay_online(&self, ingress: &mut Ingress, event: &Event) {
        let mut sets = Vec::new();
        ingress.replay(event, 0, &mut sets);
        if !sets.is_empty() {
            let sets = Arc::new(sets);
            for w in 0..self.workers {
                self.enqueue(ingress, w, Msg::Clocks(Arc::clone(&sets)));
            }
        }
    }

    /// One online synchronization event naming `tids`.
    fn sync_event(&self, tids: &[ThreadId], event: Event) {
        let mut ingress = self.lock_ingress();
        if self.abandoned.sheds(tids) {
            return;
        }
        ingress.seq += 1;
        self.events_in.fetch_add(1, Ordering::Relaxed);
        self.sync_broadcasts.fetch_add(1, Ordering::Relaxed);
        let _span = self.trace.as_ref().map(|t| t.lane.span(t.p_sync));
        self.replay_online(&mut ingress, &event);
    }

    /// Registers `obj` to be checked against `spec`. Actions on
    /// unregistered objects are ignored (selective instrumentation).
    pub fn register(&self, obj: ObjId, spec: Arc<CompiledSpec>) {
        let mut ingress = self.lock_ingress();
        let w = self.route(obj);
        self.enqueue(&mut ingress, w, Msg::Register(obj, spec));
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
        let mut ingress = self.lock_ingress();
        let w = self.route(obj);
        self.enqueue(&mut ingress, w, Msg::Forget(obj));
    }

    /// Number of events shed at the ingress because they named an
    /// abandoned thread.
    pub fn events_shed(&self) -> u64 {
        self.abandoned.shed()
    }

    /// Chaos hook: delivers a poison message to `worker` (modulo the pool
    /// size), making it panic in-stream. With supervision enabled
    /// ([`ParallelConfig::snapshot_every`] > 0, the default) the worker
    /// heals: it rebuilds from its last snapshot, replays its journal,
    /// skips only the poisoned message, and the report stays bit-for-bit
    /// equal to serial. Without supervision it degrades fail-open: sheds
    /// its further events but keeps the races found so far and still
    /// answers report barriers.
    pub fn inject_worker_panic(&self, worker: usize) {
        let mut ingress = self.lock_ingress();
        let w = worker % self.workers;
        self.enqueue(&mut ingress, w, Msg::Poison);
    }

    /// Zero-copy offline ingestion: feeds an entire recorded trace
    /// through the pipeline without cloning a single event. The ingress
    /// scans the trace once, chunk by chunk (`batch` events per chunk),
    /// replays the chunk's synchronization events on its master clocks,
    /// and ships each worker the trace *offsets* of its shard's actions
    /// plus the thread clocks the chunk set (one `Arc`'d clock per set,
    /// shared by all workers). A worker installs each clock in O(1) and
    /// detects only its own actions, so sync-clock maintenance does not
    /// multiply by the worker count. Sequence numbers derive from the
    /// trace position, so the deterministic merge — and hence the report —
    /// is bit-for-bit what per-event dispatch produces, and the two paths
    /// compose freely within one stream.
    ///
    /// Falls back to per-event dispatch once any thread has been
    /// abandoned, because the ingress shed filter must then inspect
    /// every event individually.
    pub fn ingest_shared(&self, trace: &Arc<Trace>) {
        if trace.is_empty() {
            return;
        }
        if self.abandoned.any() {
            for event in trace.events() {
                self.on_event(event);
            }
            return;
        }
        let events = trace.events();
        let mut ingress = self.lock_ingress();
        // Each event's sequence number is `base + 1 + trace offset`;
        // unpicked offsets (reads/writes) leave gaps, which the merge
        // tolerates, and online dispatch can resume after the stream.
        let base = ingress.seq;
        ingress.seq += events.len() as u64;
        let mut start = 0usize;
        while start < events.len() {
            let end = start.saturating_add(self.cfg.batch).min(events.len());
            let _span = self.trace.as_ref().map(|t| {
                let mut span = t.lane.span(t.p_ingress);
                span.set_aux((end - start) as u64);
                span
            });
            let mut picks: Vec<Vec<u32>> = vec![Vec::new(); self.workers];
            let mut sets: Vec<ClockSet> = Vec::new();
            let (mut syncs, mut actions) = (0u64, 0u64);
            for (i, event) in events[start..end].iter().enumerate() {
                let off = (start + i) as u32;
                if ingress.replay(event, off, &mut sets) {
                    syncs += 1;
                } else if let Event::Action { action, .. } = event {
                    actions += 1;
                    picks[self.route(action.obj())].push(off);
                }
            }
            self.events_in.fetch_add(syncs + actions, Ordering::Relaxed);
            self.sync_broadcasts.fetch_add(syncs, Ordering::Relaxed);
            let sets = Arc::new(sets);
            for (w, p) in picks.into_iter().enumerate() {
                if p.is_empty() && sets.is_empty() {
                    continue;
                }
                self.enqueue(
                    &mut ingress,
                    w,
                    Msg::Shared {
                        base,
                        trace: Arc::clone(trace),
                        picks: p,
                        sets: Arc::clone(&sets),
                    },
                );
                self.flush(&mut ingress, w);
            }
            start = end;
        }
    }

    /// Barrier: flushes all pending batches and runs `read` on every
    /// worker's shard once it has absorbed them. `at` runs on the ingress
    /// state under the same lock, so both sides describe exactly the same
    /// stream prefix.
    fn barrier<T: Send + 'static, U>(
        &self,
        read: fn(&Shard) -> T,
        at: impl FnOnce(&Ingress) -> U,
    ) -> (U, Vec<T>) {
        let mut ingress = self.lock_ingress();
        let replies: Vec<_> = (0..self.workers)
            .map(|w| {
                // The one-shot reply slot for this worker's answer.
                let (reply, answer) = mpsc::sync_channel(1);
                let visit = move |shard: &Shard| drop(reply.send(read(shard)));
                ingress.pending[w].push(Msg::Visit(Box::new(visit)));
                self.flush(&mut ingress, w);
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
        self.barrier(Shard::num_probes, |_| ()).1.iter().sum()
    }

    /// Aggregated clock-representation statistics across all workers. A
    /// report barrier.
    pub fn clock_stats(&self) -> ClockStats {
        let mut stats = ClockStats::default();
        for shard_stats in self.barrier(Shard::clock_stats, |_| ()).1 {
            stats.merge(&shard_stats);
        }
        stats
    }

    /// Access points retired by the epoch-GC watermark sweeps so far. A
    /// report barrier.
    pub fn gc_retired(&self) -> u64 {
        self.barrier(Shard::gc_retired, |_| ()).1.iter().sum()
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
                    healed_events: s.healed_events.load(Ordering::Relaxed),
                    heal_micros: s.heal_micros.load(Ordering::Relaxed),
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
    fn checkpoint_kind(&self) -> &'static str {
        RD2_KIND
    }

    /// Folds the pipeline into the one `rd2` layout at a barrier: the
    /// ingress counts and master clocks, the union of the workers' objects
    /// and live sets, their summed GC totals, and the merged report.
    fn checkpoint(&self) -> String {
        let ((sync, abandoned, meta), shards) = self.barrier(Shard::clone, |ingress| {
            let meta = Rd2Meta {
                shed: self.abandoned.shed(),
                events: self.events_in.load(Ordering::Relaxed),
                syncs: self.sync_broadcasts.load(Ordering::Relaxed),
                ..Rd2Meta::default()
            };
            (ingress.sync.clone(), self.abandoned.tids(), meta)
        });
        write_shards(self.cfg.shard_config(), &sync, meta, &abandoned, &shards)
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
        let shards = state.take_shards(self.workers, self.cfg.gc_every, |obj| self.route(obj));
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
                ingress.pending[w].clear();
                ingress.pending[w].push(Msg::Install(Box::new(worker)));
                self.flush(&mut ingress, w);
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
        self.sync_event(&[parent, child], Event::Fork { parent, child });
    }

    fn on_join(&self, parent: ThreadId, child: ThreadId) {
        self.sync_event(&[parent, child], Event::Join { parent, child });
    }

    fn on_acquire(&self, tid: ThreadId, lock: LockId) {
        self.sync_event(&[tid], Event::Acquire { tid, lock });
    }

    fn on_release(&self, tid: ThreadId, lock: LockId) {
        self.sync_event(&[tid], Event::Release { tid, lock });
    }

    fn on_action(&self, tid: ThreadId, action: &Action) {
        let mut ingress = self.lock_ingress();
        if self.abandoned.sheds(&[tid]) {
            return;
        }
        ingress.seq += 1;
        let seq = ingress.seq;
        self.events_in.fetch_add(1, Ordering::Relaxed);
        let event = Event::Action {
            tid,
            action: action.clone(),
        };
        self.replay_online(&mut ingress, &event);
        if let Event::Action { action, .. } = event {
            let w = self.route(action.obj());
            self.enqueue(&mut ingress, w, Msg::Action { seq, tid, action });
        }
    }

    /// Finalizes a dead thread exactly as the serial detectors do: later
    /// events naming it are shed at the ingress, and every worker drops its
    /// clock in-stream (no happens-before edges introduced).
    fn abandon_thread(&self, tid: ThreadId) {
        let mut ingress = self.lock_ingress();
        self.abandoned.insert(tid);
        ingress.sync.retire(tid);
        for w in 0..self.workers {
            self.enqueue(&mut ingress, w, Msg::Abandon(tid));
        }
    }

    /// The deterministic merge: flushes the pipeline, gathers every
    /// worker's findings at a barrier, and merges them by the global
    /// ingress sequence number of each race's action — bit-for-bit what
    /// the serial detector would have produced.
    fn report(&self) -> RaceReport {
        let _span = self.trace.as_ref().map(|t| t.lane.span(t.p_merge));
        let findings = self.barrier(|shard| shard.findings().clone(), |_| ()).1;
        Findings::merge(&findings)
    }
}

impl Drop for ParallelRd2 {
    fn drop(&mut self) {
        {
            let mut ingress = self.lock_ingress();
            for w in 0..self.workers {
                self.flush(&mut ingress, w);
            }
        }
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
/// Algorithm 1 shard. It is a plain value, so a clone is the supervision
/// snapshot a heal rebuilds from, and restore installs one.
#[derive(Clone)]
struct WorkerState {
    clocks: HashMap<ThreadId, Arc<VectorClock>>,
    shard: Shard,
}

impl WorkerState {
    fn new(cfg: &ParallelConfig) -> WorkerState {
        WorkerState {
            clocks: HashMap::new(),
            shard: Shard::new(cfg.shard_config(), cfg.gc_every),
        }
    }

    /// Installs one thread clock from the ingress: an `Arc` pointer swap.
    fn clock_set(&mut self, set: &ClockSet) {
        self.clocks.insert(set.tid, Arc::clone(&set.clock));
        self.shard.observe(set.tid, !set.dead);
    }

    /// Applies one message; returns how many events of this worker's
    /// sub-stream it processed (for the occupancy counters). Takes the
    /// message by reference so the worker loop can journal processed
    /// batches for heal replay without cloning the hot path.
    fn process(&mut self, msg: &Msg, trace: Option<&WorkerTrace>) -> u64 {
        match msg {
            Msg::Clocks(sets) => {
                for set in sets.iter() {
                    self.clock_set(set);
                }
            }
            Msg::Action { seq, tid, action } => self.action(*seq, *tid, action, trace),
            Msg::Shared {
                base,
                trace: events,
                picks,
                sets,
            } => {
                let events = events.events();
                let mut next = 0usize;
                for &off in picks {
                    // A set at the action's own offset is its thread's
                    // first clock, so it goes in before the action.
                    while next < sets.len() && sets[next].off <= off {
                        self.clock_set(&sets[next]);
                        next += 1;
                    }
                    // The ingress only picks action offsets; anything else
                    // would be an indexing bug, so don't detect on it.
                    if let Event::Action { tid, action } = &events[off as usize] {
                        self.action(*base + 1 + u64::from(off), *tid, action, trace);
                    }
                }
                // Sets past the last pick still matter: later actions read
                // the clocks this chunk left.
                for set in &sets[next..] {
                    self.clock_set(set);
                }
                return picks.len() as u64;
            }
            Msg::Register(obj, spec) => self.shard.register(*obj, Arc::clone(spec)),
            Msg::Forget(obj) => self.shard.forget(*obj),
            Msg::Abandon(tid) => {
                self.clocks.remove(tid);
                self.shard.observe(*tid, false);
            }
            Msg::Poison => panic!("injected worker panic"),
            // Handled by the worker loop, never forwarded here.
            Msg::Visit(_) | Msg::Install(_) => {
                unreachable!("barriers handled by the worker loop")
            }
        }
        1
    }

    /// Algorithm 1 on one routed action, then the epoch-GC sweep when due.
    fn action(&mut self, seq: u64, tid: ThreadId, action: &Action, trace: Option<&WorkerTrace>) {
        let clock = self
            .clocks
            .get(&tid)
            .expect("the ingress sets a thread's clock before its first action");
        self.shard.action(|| seq, tid, action, clock);
        if self.shard.gc_due() {
            let _span = trace.map(|t| t.lane.span(t.p_gc));
            self.shard.sweep(&self.clocks);
        }
    }
}

/// The supervisor's view of one worker: the last known-good snapshot and
/// the journal of batches processed since. Each journal entry carries the
/// index of the first message to replay (messages before it are already
/// folded into the snapshot by a mid-batch install or heal).
struct Supervisor {
    snap: Option<Box<WorkerState>>,
    journal: Vec<(Vec<Msg>, usize)>,
    events_since_snap: u64,
}

impl Supervisor {
    /// Refreshes the snapshot to `state`'s current value and recycles the
    /// journal buffers back to the ring.
    fn refresh(&mut self, state: &WorkerState, ring: &Ring) {
        self.snap = Some(Box::new(state.clone()));
        for (batch, _) in self.journal.drain(..) {
            ring.recycle(batch);
        }
        self.events_since_snap = 0;
    }

    /// Rebuilds a worker from the snapshot, replaying the journal and the
    /// current batch up to (but excluding) the panicking message at
    /// `batch[at]`. Returns the healed state and the number of events
    /// replayed, or `None` when the replay itself panics (healing failed
    /// — the caller degrades).
    fn replay(
        &self,
        trace: Option<&WorkerTrace>,
        batch: &[Msg],
        from: usize,
        at: usize,
    ) -> Option<(WorkerState, u64)> {
        let mut fresh = (**self.snap.as_ref()?).clone();
        let mut replayed = 0u64;
        let ok = catch_unwind(AssertUnwindSafe(|| {
            let journal = self.journal.iter().map(|(b, start)| &b[*start..]);
            for msgs in journal.chain(std::iter::once(&batch[from..at])) {
                for msg in msgs.iter().filter(|m| !m.is_control()) {
                    replayed += fresh.process(msg, trace);
                }
            }
        }));
        ok.ok().map(|()| (fresh, replayed))
    }
}

/// The worker loop: drain batches, process each message under a panic
/// shield, answer barriers even when degraded, and heal from the
/// supervision snapshot when a panic hits pure detection work.
fn worker_main(ring: &Ring, shared: &WorkerShared, cfg: &ParallelConfig, w: usize) {
    let trace = cfg.tracer.as_ref().map(|t| WorkerTrace {
        lane: t.lane(&format!("worker{w}")),
        p_batch: t.phase("parallel.worker"),
        p_gc: t.phase("parallel.gc"),
        p_heal: t.phase("parallel.heal"),
    });
    let trace = trace.as_ref();
    let mut state = WorkerState::new(cfg);
    let supervise = cfg.snapshot_every > 0;
    let mut sup = Supervisor {
        snap: supervise.then(|| Box::new(state.clone())),
        journal: Vec::new(),
        events_since_snap: 0,
    };
    while let Some(batch) = ring.pop(shared) {
        shared.batches.fetch_add(1, Ordering::Relaxed);
        // The batch span's `aux` accumulates exactly what `events` gets:
        // the span-derived per-worker occupancy share is the counter-based
        // `parallel.*` one by construction.
        let mut span = trace.map(|t| t.lane.span(t.p_batch));
        // First index of this batch not yet folded into the snapshot.
        let mut replay_from = 0usize;
        for idx in 0..batch.len() {
            match &batch[idx] {
                // Fail-open: even a degraded worker answers barriers with
                // what it has, and a visitor that panics trips the
                // quarantine and answers as an empty shard, so the
                // barrier never waits on a dead worker.
                Msg::Visit(visit) => {
                    if catch_unwind(AssertUnwindSafe(|| visit(&state.shard))).is_err() {
                        shared.panics.fetch_add(1, Ordering::Relaxed);
                        shared.degraded.store(true, Ordering::Relaxed);
                        visit(&Shard::new(cfg.shard_config(), 0));
                    }
                    continue;
                }
                Msg::Install(installed) => {
                    // Restore: replace the state wholesale and clear any
                    // degradation — the state is rebuilt, so the
                    // quarantine reason is gone.
                    state = (**installed).clone();
                    shared.degraded.store(false, Ordering::Relaxed);
                    if supervise {
                        sup.refresh(&state, ring);
                        replay_from = idx + 1;
                    }
                    continue;
                }
                _ => {}
            }
            if shared.degraded.load(Ordering::Relaxed) {
                shared
                    .shed
                    .fetch_add(batch[idx].weight(), Ordering::Relaxed);
                continue;
            }
            match catch_unwind(AssertUnwindSafe(|| state.process(&batch[idx], trace))) {
                Ok(processed) => {
                    shared.events.fetch_add(processed, Ordering::Relaxed);
                    sup.events_since_snap += processed;
                    if let Some(span) = span.as_mut() {
                        span.add_aux(processed);
                    }
                }
                Err(_) => {
                    shared.panics.fetch_add(1, Ordering::Relaxed);
                    let healed = batch[idx].heals_by_skipping() && sup.snap.is_some() && {
                        let started = std::time::Instant::now();
                        let _hspan = trace.map(|t| t.lane.span(t.p_heal));
                        match sup.replay(trace, &batch, replay_from, idx) {
                            Some((fresh, replayed)) => {
                                state = fresh;
                                // The poisoned message is skipped —
                                // shed, exactly one.
                                shared
                                    .shed
                                    .fetch_add(batch[idx].weight().max(1), Ordering::Relaxed);
                                shared.respawns.fetch_add(1, Ordering::Relaxed);
                                shared.healed_events.fetch_add(replayed, Ordering::Relaxed);
                                shared.heal_micros.fetch_add(
                                    started.elapsed().as_micros() as u64,
                                    Ordering::Relaxed,
                                );
                                // Re-baseline right away so the skipped
                                // message never re-enters a replay.
                                sup.refresh(&state, ring);
                                replay_from = idx + 1;
                                true
                            }
                            None => false,
                        }
                    };
                    if !healed {
                        // Healing impossible (sync-class message, no
                        // snapshot) or the replay panicked too: quarantine.
                        shared.degraded.store(true, Ordering::Relaxed);
                        sup.snap = None;
                        for (b, _) in sup.journal.drain(..) {
                            ring.recycle(b);
                        }
                    }
                }
            }
        }
        drop(span);
        if supervise && sup.snap.is_some() {
            sup.journal.push((batch, replay_from));
            if sup.events_since_snap >= cfg.snapshot_every as u64 {
                sup.refresh(&state, ring);
            }
        } else {
            ring.recycle(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate;
    use crate::{FrontEnd, Rd2};
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
        let serial = Rd2::new();
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
        let serial = Rd2::new();
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

    /// GC must stay report-preserving on the shared path too, where the
    /// watermark is computed from the clocks a chunk's message installs.
    #[test]
    fn shared_ingestion_with_gc_matches_gc_off() {
        let (spec, compiled) = dict_pair();
        let trace = Arc::new(recorded_trace(&spec));
        let run = |gc_every: usize| {
            let rd2 = ParallelRd2::with_config(
                2,
                ParallelConfig {
                    gc_every,
                    batch: 4,
                    ..ParallelConfig::default()
                },
            );
            for obj in 1..=6u64 {
                rd2.register(ObjId(obj), Arc::clone(&compiled));
            }
            rd2.ingest_shared(&trace);
            rd2.report()
        };
        assert_eq!(run(3), run(0));
    }

    #[test]
    fn shared_ingestion_falls_back_to_the_shed_filter_after_abandonment() {
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
            // Supervision on (the default): the worker rebuilds from its
            // snapshot, replays its journal, skips only the poison, and
            // the final report is bit-for-bit the serial one.
            let rd2 = ParallelRd2::new(1);
            let serial = Rd2::new();
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
    fn repeated_panics_heal_across_snapshot_refreshes() {
        quiet(|| {
            let (spec, compiled) = dict_pair();
            // Tiny batches and a tiny snapshot interval: heals replay
            // partially from refreshed snapshots, repeatedly.
            let rd2 = ParallelRd2::with_config(
                2,
                ParallelConfig {
                    batch: 1,
                    snapshot_every: 2,
                    ..ParallelConfig::default()
                },
            );
            let serial = Rd2::new();
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

    #[test]
    fn panic_without_supervision_degrades_fail_open() {
        quiet(|| {
            let (spec, compiled) = dict_pair();
            // snapshot_every: 0 turns supervision off — the legacy
            // degrade-forever contract: the race before the poison
            // survives, events after it are shed, report still works.
            let rd2 = ParallelRd2::with_config(
                1,
                ParallelConfig {
                    snapshot_every: 0,
                    ..ParallelConfig::default()
                },
            );
            rd2.register(ObjId(1), Arc::clone(&compiled));
            rd2.on_fork(ThreadId(0), ThreadId(1));
            rd2.on_action(ThreadId(0), &put(&spec, 1, 1, 1, Value::Nil));
            rd2.on_action(ThreadId(1), &put(&spec, 1, 1, 2, Value::Int(1)));
            rd2.inject_worker_panic(0);
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
    /// counts, GC totals and the GC live set (via the `joined` set)
    /// included — and the restored pipeline's counters match.
    #[test]
    fn checkpoint_is_a_fixed_point_of_restore_at_any_width() {
        use crate::Checkpoint;
        let (spec, compiled) = dict_pair();
        let resolver = crate::builtin_resolver();
        let cfg = ParallelConfig {
            gc_every: 3,
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
        assert!(rd2.gc_retired() > 0, "no GC totals to carry");
        assert!(blob.contains(" joined 7 1 2 3 4 5 6 7\n"), "{blob}");
        for workers in [1usize, 2, 3, 4] {
            let restored = ParallelRd2::with_config(workers, cfg.clone());
            restored.restore(&blob, &resolver).unwrap();
            assert_eq!(restored.checkpoint(), blob, "workers={workers}");
            let (a, b) = (restored.stats(), rd2.stats());
            assert_eq!(a.events_in, b.events_in, "workers={workers}");
            assert_eq!(a.sync_broadcasts, b.sync_broadcasts, "workers={workers}");
            assert_eq!(restored.gc_retired(), rd2.gc_retired(), "workers={workers}");
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
            let (_, answers) = rd2.barrier(
                |shard| {
                    assert!(shard.registered().next().is_none(), "visitor fault");
                    7u8
                },
                |_| (),
            );
            assert_eq!(answers, vec![7, 7]);
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
            let cfg = ParallelConfig {
                snapshot_every: 0, // supervision off: poison quarantines
                ..ParallelConfig::default()
            };
            let rd2 = ParallelRd2::with_config(1, cfg.clone());
            rd2.register(ObjId(1), Arc::clone(&compiled));
            rd2.on_fork(ThreadId(0), ThreadId(1));
            let blob = rd2.checkpoint();
            rd2.inject_worker_panic(0);
            let _ = rd2.report(); // deliver the poison
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
    fn gc_on_and_off_report_identically_and_gc_retires() {
        let (spec, compiled) = dict_pair();
        let gc = ParallelRd2::with_config(
            2,
            ParallelConfig {
                gc_every: 4,
                ..ParallelConfig::default()
            },
        );
        let plain = ParallelRd2::new(2);
        for rd2 in [&gc, &plain] {
            rd2.register(ObjId(1), Arc::clone(&compiled));
            rd2.register(ObjId(2), Arc::clone(&compiled));
        }
        let drive = |a: &dyn Analysis| {
            // Fork/join generations touching generation-unique keys: once a
            // generation is joined back, its points are dominated by every
            // later clock and the next watermark sweep retires them. The
            // two children of each generation race on shared keys, so GC
            // must also preserve already-found races exactly.
            let root = ThreadId(0);
            for g in 0..6u32 {
                let (c1, c2) = (ThreadId(2 * g + 1), ThreadId(2 * g + 2));
                a.on_fork(root, c1);
                a.on_fork(root, c2);
                for i in 0..4i64 {
                    let key = 10 * i64::from(g) + i;
                    let obj = 1 + (i as u64 % 2);
                    a.on_action(c1, &put(&spec, obj, key, 1, Value::Nil));
                }
                for i in 0..4i64 {
                    let key = 10 * i64::from(g) + i;
                    let obj = 1 + (i as u64 % 2);
                    a.on_action(c2, &put(&spec, obj, key, 2, Value::Int(1)));
                }
                a.on_join(root, c1);
                a.on_join(root, c2);
            }
        };
        drive(&gc);
        drive(&plain);
        let (gc_report, plain_report) = (gc.report(), plain.report());
        assert_eq!(gc_report, plain_report);
        assert_eq!(
            gc_report.total(),
            24,
            "one race per shared key per generation"
        );
        assert!(gc.gc_retired() > 0, "watermark sweep never retired a point");
        assert_eq!(plain.gc_retired(), 0);
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
