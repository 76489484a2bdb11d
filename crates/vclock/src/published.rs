//! Sharded, snapshot-published synchronization clocks for online
//! detectors.

use crate::{SyncClocks, VectorClock};
use crace_model::{Event, LockId, ThreadId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Number of shards for the thread and lock maps. A power of two ≥ any
/// plausible hardware concurrency, so threads with distinct ids virtually
/// never contend on a shard lock.
const SHARDS: usize = 64;

/// One thread's published clock: an [`Arc`] snapshot swapped out whole on
/// every synchronization event.
struct ThreadSlot {
    clock: RwLock<Arc<VectorClock>>,
}

/// The Table 1 synchronization state (`T : Tid → VC`, `L : Lock → VC`)
/// engineered so that *reading a thread's own clock* — the only
/// synchronization query on an action event — touches no process-global
/// lock.
///
/// [`crate::SyncClocks`] is the textbook single-owner version; putting it
/// behind one `RwLock` (as the seed's `Rd2` did) makes every action event
/// of every thread acquire the same global lock and **deep-copy** the
/// clock out of it. `PublishedClocks` instead:
///
/// * shards the thread map by `tid % 64`, so a clock read takes a shard
///   read lock shared with (essentially) no other thread,
/// * stores each clock as an `Arc<VectorClock>` snapshot, so
///   [`PublishedClocks::clock`] is a pointer clone, not a vector copy,
/// * confines writes to synchronization events (fork/join/acquire/
///   release), which swap in a freshly built snapshot under the slot's own
///   lock.
///
/// # Consistency contract
///
/// The semantics are exactly [`crate::SyncClocks`]'s (the unit tests here
/// replay random event sequences through both and compare every clock).
/// Concurrent use is sound under the discipline real instrumented programs
/// obey: the events that *write* thread `τ`'s clock are issued by `τ`
/// itself (acquire/release, forking a child) or strictly outside its
/// lifetime (the parent forks `τ` before it starts; joins `τ` after it
/// ends), so per-thread writes are never concurrent with each other.
/// Readers always observe some complete snapshot because snapshots are
/// swapped atomically behind the slot lock.
///
/// # Examples
///
/// ```
/// use crace_model::ThreadId;
/// use crace_vclock::PublishedClocks;
///
/// let sync = PublishedClocks::new();
/// let (main, worker) = (ThreadId(0), ThreadId(1));
/// sync.fork(main, worker);
/// let child = sync.clock(worker);
/// assert!(child.concurrent_with(&sync.clock(main)));
/// sync.join(main, worker);
/// assert!(child.le(&sync.clock(main)));
/// ```
pub struct PublishedClocks {
    threads: [RwLock<HashMap<ThreadId, Arc<ThreadSlot>>>; SHARDS],
    locks: [RwLock<HashMap<LockId, Arc<VectorClock>>>; SHARDS],
}

impl PublishedClocks {
    /// Creates the initial state: every clock at `⊥`, threads lazily
    /// initialized on first use exactly like [`crate::SyncClocks`].
    pub fn new() -> PublishedClocks {
        PublishedClocks {
            threads: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            locks: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        }
    }

    fn thread_shard(&self, tid: ThreadId) -> &RwLock<HashMap<ThreadId, Arc<ThreadSlot>>> {
        &self.threads[tid.index() % SHARDS]
    }

    fn lock_shard(&self, lock: LockId) -> &RwLock<HashMap<LockId, Arc<VectorClock>>> {
        &self.locks[(lock.0 as usize) % SHARDS]
    }

    /// The slot of `tid`, created with the fresh-thread clock `{τ ↦ 1}` on
    /// first sight (the lazy initialization of [`crate::SyncClocks`]).
    fn slot(&self, tid: ThreadId) -> Arc<ThreadSlot> {
        if let Some(slot) = self.thread_shard(tid).read().get(&tid) {
            return Arc::clone(slot);
        }
        let mut shard = self.thread_shard(tid).write();
        Arc::clone(shard.entry(tid).or_insert_with(|| {
            let mut clock = VectorClock::new();
            clock.inc(tid);
            Arc::new(ThreadSlot {
                clock: RwLock::new(Arc::new(clock)),
            })
        }))
    }

    /// Publishes `clock` as `T(tid)`, creating the slot if needed.
    fn publish(&self, tid: ThreadId, clock: VectorClock) {
        let clock = Arc::new(clock);
        if let Some(slot) = self.thread_shard(tid).read().get(&tid) {
            *slot.clock.write() = clock;
            return;
        }
        let mut shard = self.thread_shard(tid).write();
        match shard.entry(tid) {
            std::collections::hash_map::Entry::Occupied(e) => {
                *e.get().clock.write() = clock;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(Arc::new(ThreadSlot {
                    clock: RwLock::new(clock),
                }));
            }
        }
    }

    /// The current clock `T(tid)` as a shared snapshot — the clock stamped
    /// onto action events (`vc(e) ← T(τ)`, last row of Table 1).
    ///
    /// This is the hot-path read: one shard read lock, one slot read lock,
    /// one `Arc` clone. No vector is copied and no lock shared by all
    /// threads is taken.
    pub fn clock(&self, tid: ThreadId) -> Arc<VectorClock> {
        let slot = self.slot(tid);
        let snapshot = slot.clock.read();
        Arc::clone(&snapshot)
    }

    /// `τ : fork(u)` — `T(u) ← inc_u(T(τ)); T(τ) ← inc_τ(T(τ))`.
    pub fn fork(&self, parent: ThreadId, child: ThreadId) {
        let slot = self.slot(parent);
        let parent_clock = Arc::clone(&slot.clock.read());
        let mut child_clock = (*parent_clock).clone();
        child_clock.inc(child);
        self.publish(child, child_clock);
        let mut bumped = (*parent_clock).clone();
        bumped.inc(parent);
        *slot.clock.write() = Arc::new(bumped);
    }

    /// `τ : join(u)` — `T(τ) ← T(τ) ⊔ T(u)`.
    pub fn join(&self, parent: ThreadId, child: ThreadId) {
        let child_clock = self.clock(child);
        let slot = self.slot(parent);
        let mut joined = (**slot.clock.read()).clone();
        joined.join_in_place(&child_clock);
        *slot.clock.write() = Arc::new(joined);
    }

    /// `τ : acq(l)` — `T(τ) ← T(τ) ⊔ L(l)`.
    pub fn acquire(&self, tid: ThreadId, lock: LockId) {
        let slot = self.slot(tid);
        let lock_clock = self.lock_shard(lock).read().get(&lock).map(Arc::clone);
        if let Some(lock_clock) = lock_clock {
            let mut joined = (**slot.clock.read()).clone();
            joined.join_in_place(&lock_clock);
            *slot.clock.write() = Arc::new(joined);
        }
    }

    /// `τ : rel(l)` — `L(l) ← T(τ); T(τ) ← inc_τ(T(τ))`.
    ///
    /// The lock clock is published as the same `Arc` snapshot the thread
    /// held — no copy.
    pub fn release(&self, tid: ThreadId, lock: LockId) {
        let slot = self.slot(tid);
        let snapshot = Arc::clone(&slot.clock.read());
        self.lock_shard(lock).write().insert(lock, snapshot);
        let mut bumped = (**slot.clock.read()).clone();
        bumped.inc(tid);
        *slot.clock.write() = Arc::new(bumped);
    }

    /// Applies one synchronization event; non-synchronization events are
    /// ignored (their handling is detector-specific).
    pub fn apply(&self, event: &Event) {
        match *event {
            Event::Fork { parent, child } => self.fork(parent, child),
            Event::Join { parent, child } => self.join(parent, child),
            Event::Acquire { tid, lock } => self.acquire(tid, lock),
            Event::Release { tid, lock } => self.release(tid, lock),
            Event::Action { .. } | Event::Read { .. } | Event::Write { .. } => {}
        }
    }

    /// Retires a dead thread's clock: removes its slot entirely.
    ///
    /// The abandonment analogue of [`crate::SyncClocks::retire`]: no
    /// happens-before edges are introduced, the slot is simply dropped.
    /// Snapshots already handed out by [`PublishedClocks::clock`] stay
    /// valid (they are `Arc`s); a later event naming the retired tid
    /// would lazily reinitialize it as a fresh thread, so callers shed
    /// such events.
    pub fn retire(&self, tid: ThreadId) {
        self.thread_shard(tid).write().remove(&tid);
    }

    /// Number of threads observed so far.
    pub fn num_threads(&self) -> usize {
        self.threads.iter().map(|s| s.read().len()).sum()
    }

    /// A single-owner copy of every initialized thread clock and every
    /// lock clock, for checkpoint serialization.
    pub fn snapshot(&self) -> SyncClocks {
        let mut threads: Vec<VectorClock> = Vec::new();
        for shard in &self.threads {
            for (tid, slot) in shard.read().iter() {
                if tid.index() >= threads.len() {
                    threads.resize_with(tid.index() + 1, VectorClock::new);
                }
                threads[tid.index()] = (**slot.clock.read()).clone();
            }
        }
        let locks = self.locks.iter().flat_map(|shard| {
            let shard = shard.read();
            shard
                .iter()
                .map(|(lock, clock)| (*lock, (**clock).clone()))
                .collect::<Vec<_>>()
        });
        SyncClocks::from_slots(threads, locks)
    }

    /// Publishes a restored thread clock verbatim (checkpoint import;
    /// bypasses the fresh-thread lazy initialization).
    pub fn import_thread(&self, tid: ThreadId, clock: VectorClock) {
        self.publish(tid, clock);
    }

    /// Installs a restored lock clock verbatim (checkpoint import).
    pub fn import_lock(&self, lock: LockId, clock: VectorClock) {
        self.lock_shard(lock).write().insert(lock, Arc::new(clock));
    }
}

impl Default for PublishedClocks {
    fn default() -> PublishedClocks {
        PublishedClocks::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const MAIN: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);

    #[test]
    fn fresh_threads_are_concurrent() {
        let s = PublishedClocks::new();
        assert!(s.clock(T1).concurrent_with(&s.clock(T2)));
    }

    #[test]
    fn fork_join_mirror_sync_clocks() {
        let s = PublishedClocks::new();
        let before_fork = s.clock(MAIN);
        s.fork(MAIN, T1);
        assert!(before_fork.le(&s.clock(T1)));
        assert!(s.clock(MAIN).concurrent_with(&s.clock(T1)));
        let child_work = s.clock(T1);
        s.join(MAIN, T1);
        assert!(child_work.le(&s.clock(MAIN)));
    }

    #[test]
    fn lock_release_acquire_creates_order() {
        let s = PublishedClocks::new();
        let lock = LockId(7);
        s.fork(MAIN, T1);
        s.fork(MAIN, T2);
        s.acquire(T1, lock);
        let critical = s.clock(T1);
        s.release(T1, lock);
        s.acquire(T2, lock);
        assert!(critical.le(&s.clock(T2)));
        // The releasing thread's post-release events are not ordered.
        assert!(!s.clock(T1).le(&s.clock(T2)));
    }

    #[test]
    fn acquire_of_untouched_lock_is_noop() {
        let s = PublishedClocks::new();
        let before = s.clock(T1);
        s.acquire(T1, LockId(99));
        assert_eq!(*before, *s.clock(T1));
    }

    #[test]
    fn clock_reads_share_one_snapshot() {
        let s = PublishedClocks::new();
        let a = s.clock(T1);
        let b = s.clock(T1);
        // Hot-path reads alias the same allocation — no deep copies.
        assert!(Arc::ptr_eq(&a, &b));
        s.release(T1, LockId(0));
        assert!(!Arc::ptr_eq(&a, &s.clock(T1)));
    }

    #[test]
    fn shard_collisions_are_harmless() {
        // Thread ids 1 and 65 share a shard (65 % 64 == 1).
        let s = PublishedClocks::new();
        let far = ThreadId(65);
        s.fork(MAIN, T1);
        s.fork(MAIN, far);
        assert!(s.clock(T1).concurrent_with(&s.clock(far)));
        assert_eq!(s.num_threads(), 3);
    }

    /// Replays random well-formed event sequences through both
    /// implementations and demands identical clocks after every step.
    #[test]
    fn random_schedules_agree_with_sync_clocks() {
        for seed in 0..50u64 {
            let mut rng = StdRng::seed_from_u64(0x5EED ^ seed);
            let reference = &mut SyncClocks::new();
            let published = PublishedClocks::new();
            let mut live = vec![MAIN];
            let mut next_tid = 1u32;
            for _ in 0..120 {
                let actor = live[rng.gen_range(0..live.len())];
                match rng.gen_range(0u32..4) {
                    0 if live.len() < 6 => {
                        let child = ThreadId(next_tid);
                        next_tid += 1;
                        reference.fork(actor, child);
                        published.fork(actor, child);
                        live.push(child);
                    }
                    1 if live.len() > 1 => {
                        // Join a random other live thread and retire it so
                        // no later events violate well-formedness.
                        let idx = rng.gen_range(0..live.len());
                        let child = live[idx];
                        if child != actor {
                            reference.join(actor, child);
                            published.join(actor, child);
                            live.remove(idx);
                        }
                    }
                    2 => {
                        let lock = LockId(rng.gen_range(0u64..3));
                        reference.acquire(actor, lock);
                        published.acquire(actor, lock);
                        reference.release(actor, lock);
                        published.release(actor, lock);
                    }
                    _ => {
                        // An "action": just compare the stamped clock.
                    }
                }
                for &tid in &live {
                    assert_eq!(
                        reference.clock(tid),
                        &*published.clock(tid),
                        "seed {seed}, thread {tid}"
                    );
                }
            }
        }
    }

    #[test]
    fn retire_drops_slot_but_keeps_snapshots_valid() {
        let s = PublishedClocks::new();
        s.fork(MAIN, T1);
        let snapshot = s.clock(T1);
        let main_before = s.clock(MAIN);
        s.retire(T1);
        // No happens-before edges introduced; old snapshots stay usable.
        assert_eq!(*main_before, *s.clock(MAIN));
        assert!(snapshot.get(T1) >= 1);
        assert_eq!(s.num_threads(), 1);
        // Retiring an unseen thread is a no-op.
        s.retire(ThreadId(99));
    }

    #[test]
    fn apply_dispatches_sync_events_only() {
        let s = PublishedClocks::new();
        s.apply(&Event::Fork {
            parent: MAIN,
            child: T1,
        });
        s.apply(&Event::Read {
            tid: T2,
            loc: crace_model::LocId(0),
        });
        s.apply(&Event::Join {
            parent: MAIN,
            child: T1,
        });
        let child = s.clock(T1);
        assert!(child.le(&s.clock(MAIN)));
    }
}
