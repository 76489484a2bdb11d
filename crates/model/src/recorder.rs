//! Recording analysis: capture a live execution as a [`Trace`].

use crate::{Action, Analysis, Event, LocId, LockId, RaceReport, ThreadId, Trace};
use std::sync::{Mutex, PoisonError};

/// An [`Analysis`] that records every event into a [`Trace`] instead of
/// analyzing it.
///
/// The recorded trace is a linearization of the execution consistent with
/// the order the instrumentation emitted events (per-thread program order
/// and lock-protected critical sections are preserved — see the runtime's
/// emission discipline). Recordings can be replayed offline into any
/// detector or written to the textual trace format — the RoadRunner
/// record-and-replay workflow.
///
/// # Examples
///
/// ```
/// use crace_model::{Analysis, Recorder, ThreadId};
///
/// let recorder = Recorder::new();
/// recorder.on_fork(ThreadId(0), ThreadId(1));
/// let trace = recorder.into_trace();
/// assert_eq!(trace.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Recorder {
    trace: Mutex<Trace>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Consumes the recorder and returns the recorded trace.
    ///
    /// Poison-recovering: a workload thread that panicked while an event
    /// was being appended never loses the trace collected so far. The
    /// recorder's invariant (the event vector is valid after every
    /// `push`) holds even mid-unwind, so recovering the poisoned lock is
    /// safe.
    pub fn into_trace(self) -> Trace {
        self.trace
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Clones the trace recorded so far. Poison-recovering, like
    /// [`Recorder::into_trace`].
    pub fn snapshot(&self) -> Trace {
        self.trace
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn push(&self, event: Event) {
        self.trace
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event);
    }
}

impl Analysis for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }

    fn on_fork(&self, parent: ThreadId, child: ThreadId) {
        self.push(Event::Fork { parent, child });
    }

    fn on_join(&self, parent: ThreadId, child: ThreadId) {
        self.push(Event::Join { parent, child });
    }

    fn on_acquire(&self, tid: ThreadId, lock: LockId) {
        self.push(Event::Acquire { tid, lock });
    }

    fn on_release(&self, tid: ThreadId, lock: LockId) {
        self.push(Event::Release { tid, lock });
    }

    fn on_action(&self, tid: ThreadId, action: &Action) {
        self.push(Event::Action {
            tid,
            action: action.clone(),
        });
    }

    fn on_read(&self, tid: ThreadId, loc: LocId) {
        self.push(Event::Read { tid, loc });
    }

    fn on_write(&self, tid: ThreadId, loc: LocId) {
        self.push(Event::Write { tid, loc });
    }

    fn report(&self) -> RaceReport {
        RaceReport::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{replay, MethodId, ObjId, Value};

    #[test]
    fn records_all_event_kinds_in_order() {
        let r = Recorder::new();
        r.on_fork(ThreadId(0), ThreadId(1));
        r.on_acquire(ThreadId(1), LockId(2));
        r.on_action(
            ThreadId(1),
            &Action::new(ObjId(3), MethodId(0), vec![Value::Int(1)], Value::Nil),
        );
        r.on_read(ThreadId(1), LocId(4));
        r.on_write(ThreadId(1), LocId(4));
        r.on_release(ThreadId(1), LockId(2));
        r.on_join(ThreadId(0), ThreadId(1));
        let trace = r.into_trace();
        assert_eq!(trace.len(), 7);
        assert!(matches!(trace.events()[0], Event::Fork { .. }));
        assert!(matches!(trace.events()[6], Event::Join { .. }));
    }

    #[test]
    fn snapshot_does_not_consume() {
        let r = Recorder::new();
        r.on_fork(ThreadId(0), ThreadId(1));
        assert_eq!(r.snapshot().len(), 1);
        r.on_join(ThreadId(0), ThreadId(1));
        assert_eq!(r.snapshot().len(), 2);
        assert!(r.report().is_empty());
    }

    /// A thread that panics while holding the recorder lock poisons it;
    /// the recorder must still yield the full trace collected so far,
    /// both as a live snapshot and when consumed.
    #[test]
    fn poisoned_lock_still_yields_full_snapshot() {
        use std::sync::Arc;

        let r = Arc::new(Recorder::new());
        r.on_fork(ThreadId(0), ThreadId(1));
        r.on_write(ThreadId(1), LocId(7));

        let poisoner = Arc::clone(&r);
        let result = std::thread::spawn(move || {
            let _guard = poisoner.trace.lock().unwrap();
            panic!("injected panic while holding the recorder lock");
        })
        .join();
        assert!(result.is_err(), "poisoner thread must panic");

        // Lock is now poisoned; recording and snapshotting must both
        // keep working without losing anything.
        r.on_join(ThreadId(0), ThreadId(1));
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        assert!(matches!(snap.events()[2], Event::Join { .. }));

        let r = Arc::try_unwrap(r).expect("sole owner");
        assert_eq!(r.into_trace().len(), 3);
    }

    #[test]
    fn recorded_trace_replays_into_itself() {
        let r = Recorder::new();
        r.on_fork(ThreadId(0), ThreadId(1));
        r.on_write(ThreadId(1), LocId(9));
        let trace = r.into_trace();
        let copy = Recorder::new();
        replay(&trace, &copy);
        assert_eq!(copy.into_trace(), trace);
    }
}
