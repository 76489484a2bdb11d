//! The instrumented runtime: thread and lock tracking.

use crate::fault::{Fault, FaultInjector};
use crate::registry::ObjectRegistry;
use crace_model::{Action, LocId, LockId, ObjId, ThreadId};
use parking_lot::{Mutex, MutexGuard};
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Shared interior of a [`Runtime`].
pub(crate) struct Inner {
    pub(crate) analysis: Arc<dyn ObjectRegistry>,
    /// When armed, every analysis dispatch consults the fault plane.
    faults: Option<Arc<FaultInjector>>,
    next_tid: AtomicU32,
    next_obj: AtomicU64,
    next_lock: AtomicU64,
    next_loc: AtomicU64,
}

impl Inner {
    /// Routes one analysis dispatch through the fault plane.
    ///
    /// Without an injector this is a direct call. With one, the dispatch
    /// claims the next global event index and the planned fault (if any)
    /// fires *here*, on the delivering thread:
    ///
    /// * `PanicThread` panics instead of delivering — the event is not
    ///   part of the delivered prefix. If the thread is already
    ///   unwinding (e.g. the fault lands on the release event a
    ///   [`TrackedMutexGuard`] emits during an earlier injected panic),
    ///   the event is delivered normally instead: a second panic would
    ///   abort the process, which is the one outcome chaos runs must
    ///   never produce.
    /// * `Drop` sheds the dispatch: the analysis never sees the event.
    ///   Only *data-plane* dispatches (actions, reads, writes) are
    ///   sheddable. Synchronization events (fork/join/acquire/release)
    ///   always deliver: losing a happens-before edge would make the
    ///   detector report races the program cannot have — degradation
    ///   must fail toward *fewer* reports, never invented ones (the same
    ///   rule sampling detectors like LiteRace and Pacer follow).
    /// * `Delay` sleeps, then delivers.
    pub(crate) fn dispatch(&self, sheddable: bool, deliver: impl FnOnce(&dyn ObjectRegistry)) {
        let Some(injector) = &self.faults else {
            deliver(&*self.analysis);
            return;
        };
        let (at, fault) = injector.next();
        match fault {
            Some(Fault::PanicThread) if !std::thread::panicking() => {
                injector.record_panic();
                panic!("crace: injected thread panic at event {at}");
            }
            Some(Fault::Drop) if sheddable => injector.record_drop(),
            Some(Fault::Delay(us)) => {
                injector.record_delay();
                std::thread::sleep(std::time::Duration::from_micros(us));
                deliver(&*self.analysis);
            }
            _ => deliver(&*self.analysis),
        }
    }

    pub(crate) fn emit_fork(&self, parent: ThreadId, child: ThreadId) {
        self.dispatch(false, |a| a.on_fork(parent, child));
    }

    pub(crate) fn emit_join(&self, parent: ThreadId, child: ThreadId) {
        self.dispatch(false, |a| a.on_join(parent, child));
    }

    pub(crate) fn emit_acquire(&self, tid: ThreadId, lock: LockId) {
        self.dispatch(false, |a| a.on_acquire(tid, lock));
    }

    pub(crate) fn emit_release(&self, tid: ThreadId, lock: LockId) {
        self.dispatch(false, |a| a.on_release(tid, lock));
    }

    pub(crate) fn emit_action(&self, tid: ThreadId, action: &Action) {
        self.dispatch(true, |a| a.on_action(tid, action));
    }

    pub(crate) fn emit_read(&self, tid: ThreadId, loc: LocId) {
        self.dispatch(true, |a| a.on_read(tid, loc));
    }

    pub(crate) fn emit_write(&self, tid: ThreadId, loc: LocId) {
        self.dispatch(true, |a| a.on_write(tid, loc));
    }
}

/// An instrumented runtime bound to one analysis.
///
/// All identifier allocation (threads, objects, locks, shadow locations)
/// goes through the runtime, so every entity a workload creates is known to
/// the attached analysis.
///
/// `Runtime` is cheap to clone (it is a handle to shared state).
#[derive(Clone)]
pub struct Runtime {
    pub(crate) inner: Arc<Inner>,
}

impl Runtime {
    /// Creates a runtime whose events feed `analysis`. The main thread gets
    /// [`ThreadId::MAIN`].
    pub fn new(analysis: Arc<dyn ObjectRegistry>) -> Runtime {
        Runtime::build(analysis, None)
    }

    /// Creates a runtime whose dispatches additionally consult `injector`
    /// (see [`crate::fault`]): chaos-mode instrumentation, replayable
    /// because the injector's event cursor is deterministic per schedule.
    pub fn with_faults(analysis: Arc<dyn ObjectRegistry>, injector: Arc<FaultInjector>) -> Runtime {
        Runtime::build(analysis, Some(injector))
    }

    fn build(analysis: Arc<dyn ObjectRegistry>, faults: Option<Arc<FaultInjector>>) -> Runtime {
        Runtime {
            inner: Arc::new(Inner {
                analysis,
                faults,
                next_tid: AtomicU32::new(1), // 0 is the main thread
                next_obj: AtomicU64::new(1),
                next_lock: AtomicU64::new(1),
                next_loc: AtomicU64::new(1),
            }),
        }
    }

    /// The context of the main thread.
    pub fn main_ctx(&self) -> ThreadCtx {
        ThreadCtx {
            tid: ThreadId::MAIN,
            inner: Arc::clone(&self.inner),
        }
    }

    /// The attached analysis.
    pub fn analysis(&self) -> &Arc<dyn ObjectRegistry> {
        &self.inner.analysis
    }

    /// Allocates a fresh object identifier (used by monitored objects).
    pub(crate) fn fresh_obj(&self) -> ObjId {
        ObjId(self.inner.next_obj.fetch_add(1, Ordering::Relaxed))
    }

    /// Allocates a fresh lock identifier.
    pub(crate) fn fresh_lock(&self) -> LockId {
        LockId(self.inner.next_lock.fetch_add(1, Ordering::Relaxed))
    }

    /// Allocates a fresh shadow-memory location.
    pub(crate) fn fresh_loc(&self) -> LocId {
        LocId(self.inner.next_loc.fetch_add(1, Ordering::Relaxed))
    }

    /// Spawns an instrumented thread: emits the fork event (before the
    /// child can run), then runs `f` on a new OS thread with the child's
    /// [`ThreadCtx`].
    pub fn spawn<F>(&self, parent: &ThreadCtx, f: F) -> TrackedJoinHandle
    where
        F: FnOnce(&ThreadCtx) + Send + 'static,
    {
        let child = ThreadId(self.inner.next_tid.fetch_add(1, Ordering::Relaxed));
        // The fork event must be processed before any child event; calling
        // it before `thread::spawn` guarantees that order in real time.
        self.inner.emit_fork(parent.tid, child);
        let ctx = ThreadCtx {
            tid: child,
            inner: Arc::clone(&self.inner),
        };
        let handle = std::thread::spawn(move || f(&ctx));
        TrackedJoinHandle { handle, child }
    }

    /// Creates an instrumented mutex.
    pub fn new_mutex(&self) -> TrackedMutex {
        TrackedMutex {
            id: self.fresh_lock(),
            mutex: Mutex::new(()),
            inner: Arc::clone(&self.inner),
        }
    }
}

/// The identity of a running instrumented thread. Passed explicitly to
/// every instrumented operation (the runtime does not use thread-locals, so
/// contexts can also drive scripted single-threaded tests).
#[derive(Clone)]
pub struct ThreadCtx {
    tid: ThreadId,
    pub(crate) inner: Arc<Inner>,
}

impl ThreadCtx {
    /// This thread's identifier.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }
}

/// The error [`TrackedJoinHandle::join`] returns when the joined thread
/// panicked: carries the child's identity and its panic payload, so the
/// caller can rethrow, log, or ignore it — the choice the old
/// `expect("instrumented thread panicked")` took away.
pub struct JoinError {
    tid: ThreadId,
    payload: Box<dyn std::any::Any + Send + 'static>,
}

impl JoinError {
    /// The panicked thread.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// The panic message, when the payload was a string (the common
    /// `panic!("…")` case).
    pub fn message(&self) -> Option<&str> {
        self.payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| self.payload.downcast_ref::<String>().map(String::as_str))
    }
}

impl fmt::Debug for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JoinError")
            .field("tid", &self.tid)
            .field("message", &self.message())
            .finish()
    }
}

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.message() {
            Some(msg) => write!(f, "instrumented thread {} panicked: {msg}", self.tid),
            None => write!(f, "instrumented thread {} panicked", self.tid),
        }
    }
}

impl std::error::Error for JoinError {}

/// Join handle for an instrumented thread.
pub struct TrackedJoinHandle {
    handle: JoinHandle<()>,
    child: ThreadId,
}

impl TrackedJoinHandle {
    /// Waits for the thread and emits the join event (after the child has
    /// finished, so every child event precedes it).
    ///
    /// # Errors
    ///
    /// If the child panicked, returns a [`JoinError`] carrying its panic
    /// payload. The join event is emitted **in both cases** — the child
    /// is equally finished either way, and the parent must fold in the
    /// clock covering whatever events the child delivered before dying —
    /// and on the error path the analysis is additionally told to
    /// [`abandon`](crace_model::Analysis::abandon_thread) the child, so
    /// its clock is finalized rather than left dangling.
    pub fn join(self, parent: &ThreadCtx) -> Result<(), JoinError> {
        let result = self.handle.join();
        parent.inner.emit_join(parent.tid, self.child);
        match result {
            Ok(()) => Ok(()),
            Err(payload) => {
                // Control-plane notification: not routed through the
                // fault plane (it is not a trace event and must not be
                // droppable), delivered after the join so the clock fold
                // happens first.
                parent.inner.analysis.abandon_thread(self.child);
                Err(JoinError {
                    tid: self.child,
                    payload,
                })
            }
        }
    }

    /// The spawned thread's identifier.
    pub fn child_tid(&self) -> ThreadId {
        self.child
    }
}

/// An instrumented mutex: the real lock plus acquire/release events emitted
/// *while the lock is held*, so the analysis sees critical sections in
/// their true serialization order.
pub struct TrackedMutex {
    id: LockId,
    mutex: Mutex<()>,
    inner: Arc<Inner>,
}

impl TrackedMutex {
    /// Acquires the lock, emitting the acquire event.
    pub fn lock<'a>(&'a self, ctx: &ThreadCtx) -> TrackedMutexGuard<'a> {
        let guard = self.mutex.lock();
        self.inner.emit_acquire(ctx.tid(), self.id);
        TrackedMutexGuard {
            _guard: guard,
            lock_id: self.id,
            tid: ctx.tid(),
            inner: Arc::clone(&self.inner),
        }
    }

    /// The lock's identifier in the event stream.
    pub fn id(&self) -> LockId {
        self.id
    }
}

/// Guard of a [`TrackedMutex`]; emits the release event on drop, before the
/// real unlock.
pub struct TrackedMutexGuard<'a> {
    _guard: MutexGuard<'a, ()>,
    lock_id: LockId,
    tid: ThreadId,
    inner: Arc<Inner>,
}

impl Drop for TrackedMutexGuard<'_> {
    fn drop(&mut self) {
        // Emitted while `_guard` is still held: release precedes the next
        // holder's acquire in analysis order. When an injected panic is
        // unwinding this thread, the dispatch still runs (the fault plane
        // never double-panics in drop) — the lock is released by the
        // unwind, so the analysis must see the release or its lock clock
        // would dangle like a poisoned `std` mutex.
        self.inner.emit_release(self.tid, self.lock_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crace_fasttrack::FastTrack;
    use crace_model::{Analysis, NoopAnalysis, Value};

    #[test]
    fn spawn_allocates_distinct_tids() {
        let rt = Runtime::new(Arc::new(NoopAnalysis::new()));
        let main = rt.main_ctx();
        let h1 = rt.spawn(&main, |_| {});
        let h2 = rt.spawn(&main, |_| {});
        assert_ne!(h1.child_tid(), h2.child_tid());
        assert_ne!(h1.child_tid(), ThreadId::MAIN);
        h1.join(&main).unwrap();
        h2.join(&main).unwrap();
    }

    #[test]
    fn fork_join_order_reaches_analysis() {
        // FastTrack as a convenient HB-sensitive analysis: parent writes a
        // location, child writes it too — with fork/join edges there is no
        // race.
        let ft = Arc::new(FastTrack::new());
        let rt = Runtime::new(ft.clone());
        let main = rt.main_ctx();
        let loc = LocId(42);
        ft.on_write(main.tid(), loc);
        let ft2 = ft.clone();
        let h = rt.spawn(&main, move |ctx| {
            ft2.on_write(ctx.tid(), loc);
        });
        h.join(&main).unwrap();
        ft.on_write(main.tid(), loc);
        assert!(ft.report().is_empty(), "{:?}", ft.report());
    }

    #[test]
    fn tracked_mutex_creates_happens_before() {
        let ft = Arc::new(FastTrack::new());
        let rt = Runtime::new(ft.clone());
        let main = rt.main_ctx();
        let mutex = Arc::new(rt.new_mutex());
        let loc = LocId(7);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let ft = ft.clone();
            let mutex = Arc::clone(&mutex);
            handles.push(rt.spawn(&main, move |ctx| {
                for _ in 0..50 {
                    let _g = mutex.lock(ctx);
                    ft.on_write(ctx.tid(), loc);
                    ft.on_read(ctx.tid(), loc);
                }
            }));
        }
        for h in handles {
            h.join(&main).unwrap();
        }
        assert!(ft.report().is_empty(), "{:?}", ft.report());
    }

    #[test]
    fn unprotected_writes_race_under_fasttrack() {
        let ft = Arc::new(FastTrack::new());
        let rt = Runtime::new(ft.clone());
        let main = rt.main_ctx();
        let loc = LocId(9);
        let mut handles = Vec::new();
        for _ in 0..2 {
            let ft = ft.clone();
            handles.push(rt.spawn(&main, move |ctx| {
                ft.on_write(ctx.tid(), loc);
            }));
        }
        for h in handles {
            h.join(&main).unwrap();
        }
        assert!(ft.report().total() >= 1);
    }

    #[test]
    fn fresh_ids_are_unique() {
        let rt = Runtime::new(Arc::new(NoopAnalysis::new()));
        assert_ne!(rt.fresh_obj(), rt.fresh_obj());
        assert_ne!(rt.fresh_lock(), rt.fresh_lock());
        assert_ne!(rt.fresh_loc(), rt.fresh_loc());
    }

    #[test]
    fn join_returns_child_panic_and_still_emits_join() {
        use crace_model::{Event, Recorder};

        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let recorder = Arc::new(Recorder::new());
        let rt = Runtime::new(recorder.clone());
        let main = rt.main_ctx();
        let h = rt.spawn(&main, |_| panic!("boom"));
        let child = h.child_tid();
        let err = h.join(&main).unwrap_err();
        std::panic::set_hook(prev);

        // The panic payload is preserved, not swallowed.
        assert_eq!(err.tid(), child);
        assert_eq!(err.message(), Some("boom"));
        assert!(err.to_string().contains("boom"));
        // The join event was still emitted, so clocks stay consistent.
        let trace = recorder.snapshot();
        assert!(
            trace
                .events()
                .iter()
                .any(|e| matches!(e, Event::Join { child: c, .. } if *c == child)),
            "{trace:?}"
        );
    }

    #[test]
    fn join_after_panic_abandons_child_in_analysis() {
        use crace_core::TraceDetector;

        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let detector = Arc::new(TraceDetector::new());
        let rt = Runtime::new(detector.clone());
        let main = rt.main_ctx();
        let h = rt.spawn(&main, |_| panic!("dead"));
        let child = h.child_tid();
        assert!(h.join(&main).is_err());
        std::panic::set_hook(prev);

        // The detector was told to abandon the child: a stray late event
        // naming the dead tid is shed, not processed.
        detector.on_acquire(child, LockId(1));
        assert_eq!(detector.events_shed(), 1);
    }

    #[test]
    fn injected_panic_fault_kills_worker_not_host() {
        use crate::fault::{Fault, FaultInjector, FaultPlan};
        use crace_model::Recorder;

        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        // Event indices: 0 = fork, 1 = the child's acquire — panic there.
        let plan = FaultPlan::new().with(1, Fault::PanicThread);
        let injector = Arc::new(FaultInjector::new(plan));
        let recorder = Arc::new(Recorder::new());
        let rt = Runtime::with_faults(recorder.clone(), Arc::clone(&injector));
        let main = rt.main_ctx();
        let mutex = Arc::new(rt.new_mutex());
        let m2 = Arc::clone(&mutex);
        let h = rt.spawn(&main, move |ctx| {
            let _g = m2.lock(ctx);
        });
        let err = h.join(&main).unwrap_err();
        std::panic::set_hook(prev);

        assert!(err
            .message()
            .unwrap_or("")
            .contains("injected thread panic"));
        assert_eq!(injector.degradation().panics_injected, 1);
        // The host survived and the lock is usable again (parking_lot
        // does not poison): the panicking child's unwind released it.
        let _g = mutex.lock(&main);
    }

    #[test]
    fn drop_fault_sheds_exactly_one_dispatch() {
        use crate::fault::{Fault, FaultInjector, FaultPlan};
        use crace_model::Recorder;

        // Index 1 is the child's dictionary action — drop it. The fork
        // (0) and join (2) are synchronization events: a drop planned
        // there would be suppressed, never shed.
        let plan = FaultPlan::new().with(1, Fault::Drop);
        let injector = Arc::new(FaultInjector::new(plan));
        let recorder = Arc::new(Recorder::new());
        let rt = Runtime::with_faults(recorder.clone(), Arc::clone(&injector));
        let dict = crate::MonitoredDict::new(&rt);
        let main = rt.main_ctx();
        let h = rt.spawn(&main, {
            let dict = dict.clone();
            move |ctx| {
                dict.put(ctx, Value::Int(1), Value::Int(10));
            }
        });
        h.join(&main).unwrap();
        assert_eq!(injector.degradation().events_dropped, 1);
        let trace = recorder.snapshot();
        assert_eq!(trace.len(), 2, "{trace:?}");
        assert!(matches!(trace.events()[0], crace_model::Event::Fork { .. }));
        assert!(matches!(trace.events()[1], crace_model::Event::Join { .. }));
    }

    #[test]
    fn drop_fault_on_sync_event_is_suppressed() {
        use crate::fault::{Fault, FaultInjector, FaultPlan};
        use crace_model::Recorder;

        // Plan drops on the fork (0) and join (1): both must deliver
        // anyway — shedding a happens-before edge is never allowed.
        let plan = FaultPlan::new().with(0, Fault::Drop).with(1, Fault::Drop);
        let injector = Arc::new(FaultInjector::new(plan));
        let recorder = Arc::new(Recorder::new());
        let rt = Runtime::with_faults(recorder.clone(), Arc::clone(&injector));
        let main = rt.main_ctx();
        let h = rt.spawn(&main, |_| {});
        h.join(&main).unwrap();
        assert_eq!(injector.degradation().events_dropped, 0);
        assert_eq!(recorder.snapshot().len(), 2);
    }
}
