//! FastTrack — the efficient happens-before data race detector of Flanagan
//! & Freund (PLDI'09), reimplemented as the low-level baseline for the
//! commutativity race evaluation (Table 2 of the PLDI'14 paper).
//!
//! FastTrack tracks, per memory location, the *epoch* `c@t` of the last
//! write and either the epoch of the last read or — once reads become
//! concurrent — a full read vector clock ("read-shared" mode). Because
//! accesses to a given location are almost always totally ordered, the
//! common case costs O(1) instead of O(#threads).
//!
//! Two entry points:
//!
//! * [`VarState`] — the per-location state machine, usable directly,
//! * [`FastTrack`] — an [`Analysis`] over event streams: synchronization
//!   events update the Table 1 clocks, [`Analysis::on_read`] /
//!   [`Analysis::on_write`] drive the per-location automaton, and
//!   [`Analysis::on_action`] is ignored (method invocations are invisible
//!   at this level; their internal reads/writes are what arrive here).
//!
//! # Examples
//!
//! ```
//! use crace_fasttrack::FastTrack;
//! use crace_model::{Analysis, LocId, ThreadId};
//!
//! let ft = FastTrack::new();
//! ft.on_fork(ThreadId(0), ThreadId(1));
//! ft.on_write(ThreadId(0), LocId(0x10));
//! ft.on_write(ThreadId(1), LocId(0x10)); // unordered write-write race
//! assert_eq!(ft.report().total(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod djit;
pub use djit::DjitVar;

use crace_model::{
    Action, Analysis, LocId, LockId, Provenance, RaceKind, RaceRecord, RaceReport, ThreadId,
};
use crace_vclock::{Epoch, SyncClocks, VectorClock};
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The read component of a location's shadow state: an epoch in the common
/// totally-ordered case, or a full vector clock once reads are concurrent.
#[derive(Clone, Debug, PartialEq, Eq)]
enum ReadState {
    Epoch(Epoch),
    Shared(VectorClock),
}

/// The kind of access-pair a data race was detected on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessRace {
    /// A write concurrent with a previous write.
    WriteWrite,
    /// A read concurrent with a previous write.
    WriteRead,
    /// A write concurrent with a previous read.
    ReadWrite,
}

impl AccessRace {
    fn describe(self) -> &'static str {
        match self {
            AccessRace::WriteWrite => "write-write",
            AccessRace::WriteRead => "write-read",
            AccessRace::ReadWrite => "read-write",
        }
    }
}

/// Per-location FastTrack shadow state.
///
/// # Examples
///
/// ```
/// use crace_fasttrack::VarState;
/// use crace_model::ThreadId;
/// use crace_vclock::VectorClock;
///
/// let mut var = VarState::new();
/// let t0 = VectorClock::from_components([1, 0]);
/// let t1 = VectorClock::from_components([0, 1]);
/// assert!(var.write(ThreadId(0), &t0).is_none());
/// // Concurrent write from the other thread races.
/// assert!(var.write(ThreadId(1), &t1).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct VarState {
    write: Epoch,
    read: ReadState,
}

impl VarState {
    /// Fresh state: never read, never written.
    pub fn new() -> VarState {
        VarState {
            write: Epoch::NONE,
            read: ReadState::Epoch(Epoch::NONE),
        }
    }

    /// Processes a read by thread `tid` whose clock is `clock`. Returns the
    /// race kind if the read races with a previous write.
    pub fn read(&mut self, tid: ThreadId, clock: &VectorClock) -> Option<AccessRace> {
        let here = Epoch::of(tid, clock);
        // Same-epoch fast path (FastTrack rule [READ SAME EPOCH]).
        if self.read == ReadState::Epoch(here) {
            return None;
        }
        // Write-read check.
        let race = if !self.write.le_clock(clock) {
            Some(AccessRace::WriteRead)
        } else {
            None
        };
        match &mut self.read {
            ReadState::Epoch(prev) => {
                if prev.le_clock(clock) {
                    // [READ EXCLUSIVE]: the previous read happens before us.
                    self.read = ReadState::Epoch(here);
                } else {
                    // [READ SHARE]: reads become concurrent — inflate.
                    let mut vc = VectorClock::new();
                    vc.set(prev.tid(), prev.clock());
                    vc.set(tid, here.clock());
                    self.read = ReadState::Shared(vc);
                }
            }
            ReadState::Shared(vc) => {
                // [READ SHARED]: update our slot.
                vc.set(tid, here.clock());
            }
        }
        race
    }

    /// Processes a write by thread `tid` whose clock is `clock`. Returns
    /// the race kind if the write races with a previous access.
    pub fn write(&mut self, tid: ThreadId, clock: &VectorClock) -> Option<AccessRace> {
        let here = Epoch::of(tid, clock);
        // Same-epoch fast path ([WRITE SAME EPOCH]).
        if self.write == here {
            return None;
        }
        // Write-write check.
        if !self.write.le_clock(clock) {
            self.write = here;
            return Some(AccessRace::WriteWrite);
        }
        // Read-write check.
        let race = match &self.read {
            ReadState::Epoch(r) => {
                if !r.le_clock(clock) {
                    Some(AccessRace::ReadWrite)
                } else {
                    None
                }
            }
            ReadState::Shared(vc) => {
                if !vc.le(clock) {
                    Some(AccessRace::ReadWrite)
                } else {
                    None
                }
            }
        };
        // [WRITE SHARED] deflates the read state back to an epoch.
        if matches!(self.read, ReadState::Shared(_)) {
            self.read = ReadState::Epoch(Epoch::NONE);
        }
        self.write = here;
        race
    }

    /// Is the location currently in read-shared mode?
    pub fn is_read_shared(&self) -> bool {
        matches!(self.read, ReadState::Shared(_))
    }

    /// The read component as the clock string provenance reports.
    fn read_desc(&self) -> String {
        match &self.read {
            ReadState::Epoch(e) => e.to_string(),
            ReadState::Shared(vc) => vc.to_string(),
        }
    }
}

impl Default for VarState {
    fn default() -> VarState {
        VarState::new()
    }
}

const SHARDS: usize = 64;

/// The FastTrack detector as a thread-safe [`Analysis`].
///
/// Shadow-variable state is sharded by location hash so that accesses to
/// different locations rarely contend — the analogue of RoadRunner's
/// per-field shadow memory.
pub struct FastTrack {
    sync: RwLock<SyncClocks>,
    shards: Vec<Mutex<HashMap<LocId, VarState>>>,
    report: Mutex<RaceReport>,
    /// Collect race provenance (prior shadow state and both clocks) for
    /// sampled races. Off by default: it clones the shadow state of every
    /// access, which the overhead benchmarks must not pay.
    provenance: bool,
    /// Threads abandoned via [`Analysis::abandon_thread`]: retired clocks,
    /// later events naming them shed.
    abandoned: RwLock<HashSet<ThreadId>>,
    /// Fast-path guard: true iff `abandoned` is non-empty.
    has_abandoned: AtomicBool,
    /// Events shed because they named an abandoned thread.
    shed: AtomicU64,
}

impl FastTrack {
    /// Creates a detector with no shadowed locations.
    pub fn new() -> FastTrack {
        FastTrack {
            sync: RwLock::new(SyncClocks::new()),
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            report: Mutex::new(RaceReport::new()),
            provenance: false,
            abandoned: RwLock::new(HashSet::new()),
            has_abandoned: AtomicBool::new(false),
            shed: AtomicU64::new(0),
        }
    }

    /// Creates a detector whose sampled races carry provenance: the
    /// access pair, the racing thread's clock, and the conflicting shadow
    /// component's clock at detection time.
    pub fn with_provenance() -> FastTrack {
        FastTrack {
            provenance: true,
            ..FastTrack::new()
        }
    }

    fn shard(&self, loc: LocId) -> &Mutex<HashMap<LocId, VarState>> {
        let mut h = DefaultHasher::new();
        loc.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// True iff an event naming any of `tids` must be shed because that
    /// thread was abandoned. One relaxed load in the fault-free case.
    fn sheds(&self, tids: &[ThreadId]) -> bool {
        if !self.has_abandoned.load(Ordering::Relaxed) {
            return false;
        }
        let abandoned = self.abandoned.read();
        if tids.iter().any(|t| abandoned.contains(t)) {
            self.shed.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Number of events shed because they named an abandoned thread.
    pub fn events_shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    fn clock_of(&self, tid: ThreadId) -> VectorClock {
        if let Some(c) = self.sync.read().peek_clock(tid) {
            return c.clone();
        }
        self.sync.write().clock(tid).clone()
    }

    fn access(&self, tid: ThreadId, loc: LocId, is_write: bool) {
        let clock = self.clock_of(tid);
        let (race, prior) = {
            let mut shard = self.shard(loc).lock();
            let var = shard.entry(loc).or_default();
            // The update overwrites the conflicting component, so snapshot
            // the state first — only in provenance mode.
            let prior = self.provenance.then(|| var.clone());
            let race = if is_write {
                var.write(tid, &clock)
            } else {
                var.read(tid, &clock)
            };
            (race, prior)
        };
        if let Some(kind) = race {
            self.report
                .lock()
                .record_with(RaceKind::ReadWrite { loc }, || RaceRecord {
                    kind: RaceKind::ReadWrite { loc },
                    tid,
                    action: None,
                    detail: kind.describe().to_string(),
                    provenance: prior.map(|p| {
                        let this = if is_write { "write" } else { "read" };
                        let (conflicting, point_clock) = match kind {
                            AccessRace::WriteWrite | AccessRace::WriteRead => {
                                ("write".to_string(), p.write.to_string())
                            }
                            AccessRace::ReadWrite => ("read".to_string(), p.read_desc()),
                        };
                        Box::new(Provenance {
                            current: format!("{tid}: {this} {loc}"),
                            prior: None,
                            touched: format!("{this}:{loc}"),
                            conflicting: format!("{conflicting}:{loc}"),
                            thread_clock: clock.to_string(),
                            point_clock,
                            recent: Vec::new(),
                        })
                    }),
                });
        }
    }
}

impl Default for FastTrack {
    fn default() -> FastTrack {
        FastTrack::new()
    }
}

impl Analysis for FastTrack {
    fn name(&self) -> &str {
        "fasttrack"
    }

    fn on_fork(&self, parent: ThreadId, child: ThreadId) {
        if self.sheds(&[parent, child]) {
            return;
        }
        self.sync.write().fork(parent, child);
    }

    fn on_join(&self, parent: ThreadId, child: ThreadId) {
        // Joining an abandoned child is shed: its clock was retired, so
        // the join would fold a lazily reinitialized fresh clock.
        if self.sheds(&[parent, child]) {
            return;
        }
        self.sync.write().join(parent, child);
    }

    fn on_acquire(&self, tid: ThreadId, lock: LockId) {
        if self.sheds(&[tid]) {
            return;
        }
        self.sync.write().acquire(tid, lock);
    }

    fn on_release(&self, tid: ThreadId, lock: LockId) {
        if self.sheds(&[tid]) {
            return;
        }
        self.sync.write().release(tid, lock);
    }

    /// Method invocations are invisible to a low-level detector; their
    /// constituent reads/writes arrive via [`Analysis::on_read`] /
    /// [`Analysis::on_write`].
    fn on_action(&self, _tid: ThreadId, _action: &Action) {}

    fn on_read(&self, tid: ThreadId, loc: LocId) {
        if self.sheds(&[tid]) {
            return;
        }
        self.access(tid, loc, false);
    }

    fn on_write(&self, tid: ThreadId, loc: LocId) {
        if self.sheds(&[tid]) {
            return;
        }
        self.access(tid, loc, true);
    }

    /// Finalizes a dead thread: retires its sync clock and sheds all
    /// later events naming it. No happens-before edges are introduced and
    /// the report over the delivered prefix is untouched.
    fn abandon_thread(&self, tid: ThreadId) {
        self.abandoned.write().insert(tid);
        self.has_abandoned.store(true, Ordering::Relaxed);
        self.sync.write().retire(tid);
    }

    fn report(&self) -> RaceReport {
        self.report.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crace_model::{replay, Event, Trace};

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);
    const X: LocId = LocId(1);

    fn vc(c: &[u64]) -> VectorClock {
        VectorClock::from_components(c.iter().copied())
    }

    // ---- VarState unit tests ----

    #[test]
    fn sequential_accesses_never_race() {
        let mut v = VarState::new();
        assert!(v.write(T0, &vc(&[1])).is_none());
        assert!(v.read(T0, &vc(&[1])).is_none());
        assert!(v.write(T0, &vc(&[2])).is_none());
        // T1 after synchronizing with T0 (clock dominates).
        assert!(v.read(T1, &vc(&[2, 1])).is_none());
        assert!(v.write(T1, &vc(&[2, 1])).is_none());
    }

    #[test]
    fn concurrent_write_write_races() {
        let mut v = VarState::new();
        assert!(v.write(T0, &vc(&[1, 0])).is_none());
        assert_eq!(v.write(T1, &vc(&[0, 1])), Some(AccessRace::WriteWrite));
    }

    #[test]
    fn concurrent_write_then_read_races() {
        let mut v = VarState::new();
        v.write(T0, &vc(&[1, 0]));
        assert_eq!(v.read(T1, &vc(&[0, 1])), Some(AccessRace::WriteRead));
    }

    #[test]
    fn concurrent_read_then_write_races() {
        let mut v = VarState::new();
        v.read(T0, &vc(&[1, 0]));
        assert_eq!(v.write(T1, &vc(&[0, 1])), Some(AccessRace::ReadWrite));
    }

    #[test]
    fn concurrent_reads_are_fine_and_inflate() {
        let mut v = VarState::new();
        assert!(v.read(T0, &vc(&[1, 0])).is_none());
        assert!(!v.is_read_shared());
        assert!(v.read(T1, &vc(&[0, 1])).is_none());
        assert!(v.is_read_shared());
        assert!(v.read(T2, &vc(&[0, 0, 1])).is_none());
        // A write ordered after ALL reads does not race…
        let mut ordered = v.clone();
        assert!(ordered.write(T0, &vc(&[2, 1, 1])).is_none());
        // …and deflates back to epoch mode.
        assert!(!ordered.is_read_shared());
        // A write ordered after only SOME reads races.
        assert_eq!(v.write(T0, &vc(&[2, 1, 0])), Some(AccessRace::ReadWrite));
    }

    #[test]
    fn same_epoch_fast_paths() {
        let mut v = VarState::new();
        let c = vc(&[3]);
        v.write(T0, &c);
        // Repeated accesses in the same epoch are no-ops.
        assert!(v.write(T0, &c).is_none());
        v.read(T0, &c);
        assert!(v.read(T0, &c).is_none());
    }

    #[test]
    fn read_exclusive_hands_over_epoch() {
        let mut v = VarState::new();
        v.read(T0, &vc(&[1, 0]));
        // T1 read that happens after T0's read stays in epoch mode.
        assert!(v.read(T1, &vc(&[1, 1])).is_none());
        assert!(!v.is_read_shared());
        // Now a concurrent-with-T1 write by T0 must still race (the epoch
        // now belongs to T1).
        assert_eq!(v.write(T0, &vc(&[2, 0])), Some(AccessRace::ReadWrite));
    }

    // ---- FastTrack end-to-end tests ----

    #[test]
    fn fork_join_program_is_race_free() {
        let ft = FastTrack::new();
        let mut trace = Trace::new();
        trace.push(Event::Fork {
            parent: T0,
            child: T1,
        });
        trace.push(Event::Write { tid: T1, loc: X });
        trace.push(Event::Join {
            parent: T0,
            child: T1,
        });
        trace.push(Event::Write { tid: T0, loc: X });
        assert!(replay(&trace, &ft).is_empty());
    }

    #[test]
    fn lock_protected_writes_are_race_free() {
        let ft = FastTrack::new();
        let l = LockId(0);
        let mut trace = Trace::new();
        trace.push(Event::Fork {
            parent: T0,
            child: T1,
        });
        for &t in &[T0, T1] {
            trace.push(Event::Acquire { tid: t, lock: l });
            trace.push(Event::Write { tid: t, loc: X });
            trace.push(Event::Release { tid: t, lock: l });
        }
        assert!(replay(&trace, &ft).is_empty());
    }

    #[test]
    fn unlocked_writes_race_once_per_access() {
        let ft = FastTrack::new();
        let mut trace = Trace::new();
        trace.push(Event::Fork {
            parent: T0,
            child: T1,
        });
        trace.push(Event::Write { tid: T0, loc: X });
        trace.push(Event::Write { tid: T1, loc: X });
        trace.push(Event::Write { tid: T0, loc: X });
        let report = replay(&trace, &ft);
        // T1's write races with T0's; T0's second write races with T1's
        // (FastTrack keeps reporting on subsequent conflicting epochs).
        assert_eq!(report.total(), 2);
        assert_eq!(report.distinct(), 1); // same location
    }

    #[test]
    fn distinct_locations_count_separately() {
        let ft = FastTrack::new();
        let mut trace = Trace::new();
        trace.push(Event::Fork {
            parent: T0,
            child: T1,
        });
        for loc in [LocId(1), LocId(2), LocId(3)] {
            trace.push(Event::Write { tid: T0, loc });
            trace.push(Event::Write { tid: T1, loc });
        }
        let report = replay(&trace, &ft);
        assert_eq!(report.total(), 3);
        assert_eq!(report.distinct(), 3);
    }

    #[test]
    fn actions_are_ignored() {
        use crace_model::{Action, MethodId, ObjId, Value};
        let ft = FastTrack::new();
        ft.on_fork(T0, T1);
        for t in [T0, T1] {
            ft.on_action(
                t,
                &Action::new(ObjId(1), MethodId(0), vec![Value::Int(1)], Value::Nil),
            );
        }
        assert!(ft.report().is_empty());
    }

    /// Abandonment on the low-level detector: the delivered write still
    /// races with a survivor, late accesses of the dead tid are shed.
    #[test]
    fn abandon_sheds_late_accesses_and_orders_nobody() {
        let ft = FastTrack::new();
        ft.on_fork(T0, T1);
        ft.on_fork(T0, T2);
        ft.on_write(T1, X);
        ft.abandon_thread(T1);
        // Late events of the dead thread are shed…
        ft.on_write(T1, LocId(99));
        ft.on_join(T0, T1);
        assert_eq!(ft.events_shed(), 2);
        assert!(ft.report().is_empty());
        // …and no HB edge protects T2's concurrent write.
        ft.on_write(T2, X);
        assert_eq!(ft.report().total(), 1);
    }

    #[test]
    fn concurrent_hammering_is_deadlock_free() {
        use std::sync::Arc;
        let ft = Arc::new(FastTrack::new());
        let mut handles = Vec::new();
        for t in 1..=4u32 {
            ft.on_fork(T0, ThreadId(t));
            let ft = Arc::clone(&ft);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    // Per-thread locations: no races.
                    ft.on_write(ThreadId(t), LocId(t as u64 * 1000 + i));
                    ft.on_read(ThreadId(t), LocId(t as u64 * 1000 + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(ft.report().is_empty());
    }
}
