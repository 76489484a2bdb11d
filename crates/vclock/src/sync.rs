//! Standard vector-clock handling of synchronization events (Table 1).

use crate::VectorClock;
use crace_model::{Event, LockId, ThreadId};
use std::collections::HashMap;
use std::fmt;

/// The auxiliary synchronization state of Table 1: the thread-clock map
/// `T : Tid → VC` and the lock-clock map `L : Lock → VC`.
///
/// All detectors (the commutativity detector, the direct detector and the
/// FastTrack baseline) share this treatment of fork/join/acquire/release;
/// only their handling of the remaining events differs.
///
/// A thread's clock is initialized on first use with its own component set
/// to one, so that events of two threads that have never synchronized get
/// incomparable clocks (with the all-bottom initialization of the table, two
/// fresh threads would be spuriously *equal*, i.e. ordered). Forked children
/// inherit the parent clock with their own component incremented, exactly as
/// in the table.
///
/// # Examples
///
/// ```
/// use crace_model::{LockId, ThreadId};
/// use crace_vclock::SyncClocks;
///
/// let mut sync = SyncClocks::new();
/// let (main, worker) = (ThreadId(0), ThreadId(1));
/// sync.fork(main, worker);
/// // After the fork, the child and the parent's subsequent events are
/// // concurrent …
/// let child = sync.clock(worker).clone();
/// let parent = sync.clock(main).clone();
/// assert!(child.concurrent_with(&parent));
/// // … until the parent joins the child.
/// sync.join(main, worker);
/// assert!(child.le(sync.clock(main)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SyncClocks {
    threads: Vec<VectorClock>,
    locks: HashMap<LockId, VectorClock>,
}

impl SyncClocks {
    /// Creates the initial state: every clock at `⊥` (threads are
    /// lazily initialized on first use).
    pub fn new() -> SyncClocks {
        SyncClocks::default()
    }

    fn ensure(&mut self, tid: ThreadId) {
        let idx = tid.index();
        if idx >= self.threads.len() {
            self.threads.resize_with(idx + 1, VectorClock::new);
        }
        // A live thread always has its own component ≥ 1; zero means this
        // thread is being observed for the first time.
        if self.threads[idx].get(tid) == 0 {
            self.threads[idx].inc(tid);
        }
    }

    /// The current clock `T(tid)` of a thread. This is the clock stamped
    /// onto action events (`vc(e) ← T(τ)`, last row of Table 1).
    pub fn clock(&mut self, tid: ThreadId) -> &VectorClock {
        self.ensure(tid);
        &self.threads[tid.index()]
    }

    /// The clock `T(tid)` if the thread has already been initialized (by a
    /// fork or a previous [`SyncClocks::clock`] call); `None` otherwise.
    ///
    /// This is the read-only fast path for online detectors: it lets the
    /// hot action path take a shared lock, falling back to the
    /// lazily-initializing [`SyncClocks::clock`] only on a thread's first
    /// event.
    pub fn peek_clock(&self, tid: ThreadId) -> Option<&VectorClock> {
        let clock = self.threads.get(tid.index())?;
        if clock.get(tid) == 0 {
            None
        } else {
            Some(clock)
        }
    }

    /// `τ : fork(u)` — `T(u) ← inc_u(T(τ)); T(τ) ← inc_τ(T(τ))`.
    pub fn fork(&mut self, parent: ThreadId, child: ThreadId) {
        self.ensure(parent);
        let mut child_clock = self.threads[parent.index()].clone();
        child_clock.inc(child);
        let idx = child.index();
        if idx >= self.threads.len() {
            self.threads.resize_with(idx + 1, VectorClock::new);
        }
        self.threads[idx] = child_clock;
        let p = parent.index();
        self.threads[p].inc(parent);
    }

    /// `τ : join(u)` — `T(τ) ← T(τ) ⊔ T(u)`.
    pub fn join(&mut self, parent: ThreadId, child: ThreadId) {
        self.ensure(parent);
        self.ensure(child);
        let child_clock = self.threads[child.index()].clone();
        self.threads[parent.index()].join_in_place(&child_clock);
    }

    /// `τ : acq(l)` — `T(τ) ← T(τ) ⊔ L(l)`.
    pub fn acquire(&mut self, tid: ThreadId, lock: LockId) {
        self.ensure(tid);
        if let Some(lock_clock) = self.locks.get(&lock) {
            let lock_clock = lock_clock.clone();
            self.threads[tid.index()].join_in_place(&lock_clock);
        }
    }

    /// `τ : rel(l)` — `L(l) ← T(τ); T(τ) ← inc_τ(T(τ))`.
    pub fn release(&mut self, tid: ThreadId, lock: LockId) {
        self.ensure(tid);
        let clock = self.threads[tid.index()].clone();
        self.locks.insert(lock, clock);
        self.threads[tid.index()].inc(tid);
    }

    /// Applies one synchronization event; non-synchronization events are
    /// ignored (their handling is detector-specific).
    pub fn apply(&mut self, event: &Event) {
        match *event {
            Event::Fork { parent, child } => self.fork(parent, child),
            Event::Join { parent, child } => self.join(parent, child),
            Event::Acquire { tid, lock } => self.acquire(tid, lock),
            Event::Release { tid, lock } => self.release(tid, lock),
            Event::Action { .. } | Event::Read { .. } | Event::Write { .. } => {}
        }
    }

    /// Retires a dead thread's clock: resets `T(tid)` to `⊥`.
    ///
    /// Used by the abandonment path when a monitored thread dies without
    /// being joined. Retiring introduces **no happens-before edges** —
    /// nothing is folded into any other clock — it only finalizes the
    /// slot so stale state cannot leak if the detector ever sees the tid
    /// again (callers are expected to shed such late events; a retired
    /// slot reinitializes lazily like a fresh thread if they do not).
    pub fn retire(&mut self, tid: ThreadId) {
        if let Some(slot) = self.threads.get_mut(tid.index()) {
            *slot = VectorClock::new();
        }
    }

    /// Number of threads observed so far.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Iterates the initialized thread clocks `(τ, T(τ))` in tid order —
    /// the slots [`SyncClocks::peek_clock`] answers.
    pub fn initialized(&self) -> impl Iterator<Item = (ThreadId, &VectorClock)> {
        (0..self.threads.len() as u32).filter_map(|t| {
            self.peek_clock(ThreadId(t))
                .map(|clock| (ThreadId(t), clock))
        })
    }

    /// Iterates the lock-clock map `L` in arbitrary order, for
    /// checkpoint serialization (callers sort for determinism).
    pub fn lock_slots(&self) -> impl Iterator<Item = (LockId, &VectorClock)> {
        self.locks.iter().map(|(l, c)| (*l, c))
    }

    /// Rebuilds the state from raw thread slots (`⊥` where uninitialized)
    /// and the lock clocks.
    pub fn from_slots(
        threads: Vec<VectorClock>,
        locks: impl IntoIterator<Item = (LockId, VectorClock)>,
    ) -> SyncClocks {
        SyncClocks {
            threads,
            locks: locks.into_iter().collect(),
        }
    }
}

impl fmt::Display for SyncClocks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.threads.iter().enumerate() {
            writeln!(f, "T(τ{i}) = {c}")?;
        }
        for (l, c) in &self.locks {
            writeln!(f, "L({l}) = {c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAIN: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);

    #[test]
    fn fresh_threads_are_concurrent() {
        let mut s = SyncClocks::new();
        let a = s.clock(T1).clone();
        let b = s.clock(T2).clone();
        assert!(a.concurrent_with(&b));
    }

    #[test]
    fn fork_orders_parent_prefix_before_child() {
        let mut s = SyncClocks::new();
        let before_fork = s.clock(MAIN).clone();
        s.fork(MAIN, T1);
        assert!(before_fork.le(s.clock(T1)));
        // But the parent's *subsequent* events are concurrent with the child.
        let parent_after = s.clock(MAIN).clone();
        assert!(parent_after.concurrent_with(s.clock(T1)));
    }

    #[test]
    fn join_orders_child_before_parent_suffix() {
        let mut s = SyncClocks::new();
        s.fork(MAIN, T1);
        let child_work = s.clock(T1).clone();
        s.join(MAIN, T1);
        assert!(child_work.le(s.clock(MAIN)));
    }

    #[test]
    fn lock_release_acquire_creates_order() {
        let mut s = SyncClocks::new();
        let lock = LockId(7);
        s.fork(MAIN, T1);
        s.fork(MAIN, T2);
        // T1 works under the lock, then releases.
        s.acquire(T1, lock);
        let t1_critical = s.clock(T1).clone();
        s.release(T1, lock);
        // T2 acquires the same lock: T1's critical section happens before.
        s.acquire(T2, lock);
        assert!(t1_critical.le(s.clock(T2)));
    }

    #[test]
    fn release_increments_releasing_thread() {
        let mut s = SyncClocks::new();
        let lock = LockId(0);
        s.acquire(T1, lock);
        let during = s.clock(T1).clone();
        s.release(T1, lock);
        let after = s.clock(T1).clone();
        assert!(during.le(&after));
        assert_ne!(during, after);
        // Events after the release are NOT ordered before a later acquire's
        // critical section in the other direction: after ⋢ L(l).
        s.acquire(T2, lock);
        assert!(!after.le(s.clock(T2)));
    }

    #[test]
    fn acquire_of_untouched_lock_is_noop() {
        let mut s = SyncClocks::new();
        let before = s.clock(T1).clone();
        s.acquire(T1, LockId(99));
        assert_eq!(&before, s.clock(T1));
    }

    #[test]
    fn apply_dispatches_sync_events_only() {
        let mut s = SyncClocks::new();
        s.apply(&Event::Fork {
            parent: MAIN,
            child: T1,
        });
        s.apply(&Event::Read {
            tid: T2,
            loc: crace_model::LocId(0),
        });
        assert!(s.num_threads() >= 2);
        s.apply(&Event::Join {
            parent: MAIN,
            child: T1,
        });
        let child = s.clock(T1).clone();
        assert!(child.le(s.clock(MAIN)));
    }

    #[test]
    fn retire_resets_slot_without_ordering_anyone() {
        let mut s = SyncClocks::new();
        s.fork(MAIN, T1);
        let main_before = s.clock(MAIN).clone();
        s.retire(T1);
        // Retiring creates no happens-before edges: main is untouched.
        assert_eq!(&main_before, s.clock(MAIN));
        // The slot is back to bottom; a later sighting reinitializes it
        // as a fresh thread, concurrent with everything.
        assert!(s.peek_clock(T1).is_none());
        assert!(s.clock(T1).clone().concurrent_with(&main_before));
        // Retiring an unseen thread is a no-op.
        s.retire(ThreadId(99));
    }

    #[test]
    fn fig3_trace_reproduces_paper_relationships() {
        // Main forks τ2 and τ3; their put actions are concurrent; after
        // joinall, main's size() dominates both.
        let mut s = SyncClocks::new();
        let (t2, t3) = (ThreadId(1), ThreadId(2));
        s.fork(MAIN, t2);
        s.fork(MAIN, t3);
        let a1 = s.clock(t3).clone(); // τ3: put('a.com', c1)/nil
        let a2 = s.clock(t2).clone(); // τ2: put('a.com', c2)/c1
        assert!(a1.concurrent_with(&a2));
        s.join(MAIN, t2);
        s.join(MAIN, t3);
        let a3 = s.clock(MAIN).clone(); // τm: size()/1
        assert!(a1.le(&a3));
        assert!(a2.le(&a3));
    }
}
