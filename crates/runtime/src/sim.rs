//! Deterministic simulated scheduler: scripted multi-threaded programs
//! executed under a pluggable interleaving policy, producing reproducible
//! traces.
//!
//! Real threads make race *presence* reproducible but not event order;
//! for schedule-space exploration (run the same program under many
//! interleavings and check detector invariants on every one) the runtime
//! offers this single-threaded simulator. A [`SimProgram`] gives each
//! simulated thread a script of [`SimOp`]s over shared dictionaries and
//! locks; the scheduling loop interleaves the scripts — respecting lock
//! blocking — executes them against reference semantics (so return values
//! are those of a real execution under that schedule), and returns the
//! recorded [`Trace`].
//!
//! Scheduling decisions go through the [`Scheduler`] trait:
//! [`SeededScheduler`] (what [`simulate`] uses) draws from a seeded RNG,
//! [`ScriptedScheduler`] replays a fixed choice sequence, and the
//! [`crate::explore`] model checker drives [`SimState`] directly to
//! enumerate *every* inequivalent schedule.
//!
//! # Examples
//!
//! ```
//! use crace_model::Value;
//! use crace_runtime::sim::{simulate, SimOp, SimProgram};
//!
//! let program = SimProgram {
//!     num_dicts: 1,
//!     num_locks: 0,
//!     threads: vec![
//!         vec![SimOp::DictPut { dict: 0, key: Value::Int(1), value: Value::Int(10) }],
//!         vec![SimOp::DictGet { dict: 0, key: Value::Int(1) }],
//!     ],
//! };
//! let trace = simulate(&program, 42);
//! assert_eq!(trace, simulate(&program, 42)); // fully deterministic
//! ```

use crate::fault::{Degradation, Fault, FaultInjector, FaultPlan};
use crace_model::{Action, Event, LockId, MethodId, ObjId, ThreadId, Trace, Value};
use crace_spec::builtin;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::OnceLock;

/// One scripted operation of a simulated thread.
#[derive(Clone, Debug, PartialEq)]
pub enum SimOp {
    /// `dicts[dict].put(key, value)`.
    DictPut {
        /// Index of the dictionary.
        dict: usize,
        /// The key.
        key: Value,
        /// The new value (`nil` removes).
        value: Value,
    },
    /// `dicts[dict].get(key)`.
    DictGet {
        /// Index of the dictionary.
        dict: usize,
        /// The key.
        key: Value,
    },
    /// `dicts[dict].size()`.
    DictSize {
        /// Index of the dictionary.
        dict: usize,
    },
    /// Acquire lock `lock` (blocks while held by another thread).
    Lock(usize),
    /// Release lock `lock`.
    ///
    /// # Panics
    ///
    /// [`simulate`] panics if the thread does not hold it.
    Unlock(usize),
}

/// A scripted program: `threads[i]` is the body of simulated thread
/// `i + 1`; the main thread (id 0) forks them all at the start and joins
/// them all at the end, as in the paper's fork/join examples.
#[derive(Clone, Debug, PartialEq)]
pub struct SimProgram {
    /// Number of shared dictionaries (object ids `1..=num_dicts`).
    pub num_dicts: usize,
    /// Number of locks (lock ids `0..num_locks`).
    pub num_locks: usize,
    /// Per-thread scripts.
    pub threads: Vec<Vec<SimOp>>,
}

impl SimProgram {
    /// Total number of scripted operations across all threads (the exact
    /// number of scheduling decisions every complete schedule makes).
    pub fn num_ops(&self) -> usize {
        self.threads.iter().map(Vec::len).sum()
    }
}

struct DictIds {
    put: MethodId,
    get: MethodId,
    size: MethodId,
}

fn dict_ids() -> &'static DictIds {
    static CELL: OnceLock<DictIds> = OnceLock::new();
    CELL.get_or_init(|| {
        let spec = builtin::dictionary();
        DictIds {
            put: spec.method_id("put").expect("builtin"),
            get: spec.method_id("get").expect("builtin"),
            size: spec.method_id("size").expect("builtin"),
        }
    })
}

/// The object id of simulated dictionary `dict`.
pub fn sim_dict_obj(dict: usize) -> ObjId {
    ObjId(dict as u64 + 1)
}

/// The builtin-dictionary [`MethodId`]s a [`SimOp`] maps to:
/// `(put, get, size)`. Exposed so the explorer and the program format can
/// build [`Action`]s without re-resolving names.
pub fn sim_dict_methods() -> (MethodId, MethodId, MethodId) {
    let ids = dict_ids();
    (ids.put, ids.get, ids.size)
}

/// A scheduling policy: at every step of the simulation loop, picks which
/// runnable thread executes its next operation.
pub trait Scheduler {
    /// Picks one element of `runnable` — the 0-based indices into
    /// [`SimProgram::threads`] of the threads that have operations left
    /// and are not blocked on a foreign-held lock, sorted ascending and
    /// never empty.
    fn choose(&mut self, runnable: &[usize]) -> usize;
}

/// The seeded-RNG scheduler behind [`simulate`]: uniform choice among the
/// runnable threads, fully reproducible from the seed.
pub struct SeededScheduler {
    rng: StdRng,
}

impl SeededScheduler {
    /// Creates the scheduler for `seed`. Equal seeds yield equal
    /// schedules on equal programs.
    pub fn new(seed: u64) -> SeededScheduler {
        SeededScheduler {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for SeededScheduler {
    fn choose(&mut self, runnable: &[usize]) -> usize {
        runnable[self.rng.gen_range(0..runnable.len())]
    }
}

/// Replays a fixed schedule: the thread index to run at each step, as
/// recorded by the explorer. This is what makes an explored
/// counterexample *replayable*.
pub struct ScriptedScheduler {
    choices: Vec<usize>,
    pos: usize,
}

impl ScriptedScheduler {
    /// Creates a scheduler replaying `choices` in order.
    pub fn new(choices: Vec<usize>) -> ScriptedScheduler {
        ScriptedScheduler { choices, pos: 0 }
    }

    /// How many choices have been consumed so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }
}

impl Scheduler for ScriptedScheduler {
    /// # Panics
    ///
    /// Panics if the script is exhausted or names a thread that is not
    /// currently runnable — a scripted schedule is only meaningful for
    /// the exact program it was recorded from.
    fn choose(&mut self, runnable: &[usize]) -> usize {
        let t = *self
            .choices
            .get(self.pos)
            .expect("scripted schedule exhausted before the program finished");
        self.pos += 1;
        assert!(
            runnable.contains(&t),
            "scripted schedule picks thread {t}, which is not runnable"
        );
        t
    }
}

/// A mid-execution snapshot of a simulated program: reference-semantics
/// dictionary contents, lock ownership and per-thread program counters.
///
/// [`SimState::step`] executes exactly one operation, and the state is
/// [`Clone`] — together these let the [`crate::explore`] model checker
/// fork execution at every scheduling decision instead of re-running the
/// whole program per schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct SimState<'p> {
    program: &'p SimProgram,
    dicts: Vec<HashMap<Value, Value>>,
    lock_owner: Vec<Option<usize>>,
    pc: Vec<usize>,
}

impl<'p> SimState<'p> {
    /// The initial state of `program`: empty dictionaries, free locks,
    /// every thread at its first operation.
    pub fn new(program: &'p SimProgram) -> SimState<'p> {
        SimState {
            program,
            dicts: vec![HashMap::new(); program.num_dicts],
            lock_owner: vec![None; program.num_locks],
            pc: vec![0; program.threads.len()],
        }
    }

    /// The threads that can execute a step right now: operations left and
    /// not blocked on a foreign-held lock, ascending. Locks are
    /// non-reentrant, so a thread re-acquiring its own lock blocks
    /// forever (surfacing as a deadlock).
    pub fn runnable(&self) -> Vec<usize> {
        (0..self.program.threads.len())
            .filter(|&t| match self.next_op(t) {
                None => false,
                Some(SimOp::Lock(l)) => self.lock_owner[*l].is_none(),
                Some(_) => true,
            })
            .collect()
    }

    /// The next operation of thread `t`, or `None` if its script is done.
    pub fn next_op(&self, t: usize) -> Option<&'p SimOp> {
        self.program.threads[t].get(self.pc[t])
    }

    /// The program counter of thread `t`: how many of its operations have
    /// executed.
    pub fn pc(&self, t: usize) -> usize {
        self.pc[t]
    }

    /// Has every thread finished its script?
    pub fn finished(&self) -> bool {
        (0..self.program.threads.len()).all(|t| self.next_op(t).is_none())
    }

    /// The current dictionary contents — after [`SimState::finished`],
    /// the final state Theorem 5.2's determinism guarantee talks about.
    pub fn dicts(&self) -> &[HashMap<Value, Value>] {
        &self.dicts
    }

    /// Consumes the state, returning the dictionary contents.
    pub fn into_dicts(self) -> Vec<HashMap<Value, Value>> {
        self.dicts
    }

    /// Marks thread `t` dead: its script is cut short (it executes no
    /// further operations) and any locks it holds stay held forever —
    /// the poisoned-lock scenario an injected mid-critical-section panic
    /// produces. Threads blocked on such a lock never become runnable
    /// again.
    pub fn kill(&mut self, t: usize) {
        self.pc[t] = self.program.threads[t].len();
    }

    /// The thread currently holding simulated lock `lock`, if any.
    pub fn lock_owner(&self, lock: usize) -> Option<usize> {
        self.lock_owner[lock]
    }

    /// Executes the next operation of thread `t` against the reference
    /// semantics and returns the recorded event (actions carry the real
    /// return value under this schedule).
    ///
    /// # Panics
    ///
    /// Panics on script errors: `t` blocked or finished,
    /// dictionary/lock indices out of range, or unlocking a lock the
    /// thread does not hold.
    pub fn step(&mut self, t: usize) -> Event {
        let tid = ThreadId(t as u32 + 1);
        let op = self.next_op(t).expect("stepping a finished thread");
        self.pc[t] += 1;
        match op {
            SimOp::DictPut { dict, key, value } => {
                let map = &mut self.dicts[*dict];
                let prev = if value.is_nil() {
                    map.remove(key).unwrap_or(Value::Nil)
                } else {
                    map.insert(key.clone(), value.clone()).unwrap_or(Value::Nil)
                };
                Event::Action {
                    tid,
                    action: Action::new(
                        sim_dict_obj(*dict),
                        dict_ids().put,
                        vec![key.clone(), value.clone()],
                        prev,
                    ),
                }
            }
            SimOp::DictGet { dict, key } => {
                let v = self.dicts[*dict].get(key).cloned().unwrap_or(Value::Nil);
                Event::Action {
                    tid,
                    action: Action::new(sim_dict_obj(*dict), dict_ids().get, vec![key.clone()], v),
                }
            }
            SimOp::DictSize { dict } => {
                let v = Value::Int(self.dicts[*dict].len() as i64);
                Event::Action {
                    tid,
                    action: Action::new(sim_dict_obj(*dict), dict_ids().size, vec![], v),
                }
            }
            SimOp::Lock(l) => {
                assert!(
                    self.lock_owner[*l].is_none(),
                    "scheduler picked a blocked thread"
                );
                self.lock_owner[*l] = Some(t);
                Event::Acquire {
                    tid,
                    lock: LockId(*l as u64),
                }
            }
            SimOp::Unlock(l) => {
                assert_eq!(
                    self.lock_owner[*l],
                    Some(t),
                    "thread {tid} unlocks lock {l} it does not hold"
                );
                self.lock_owner[*l] = None;
                Event::Release {
                    tid,
                    lock: LockId(*l as u64),
                }
            }
        }
    }
}

/// Executes `program` under the seeded schedule and returns the trace
/// (actions carry the Fig. 5 reference semantics' return values).
///
/// Simulated dictionaries use the [`builtin::dictionary`] specification's
/// method numbering, with object ids [`sim_dict_obj`]`(0..num_dicts)`.
///
/// # Panics
///
/// Panics on script errors: dictionary/lock indices out of range,
/// unlocking a lock the thread does not hold, or a deadlock (every
/// unfinished thread blocked).
pub fn simulate(program: &SimProgram, seed: u64) -> Trace {
    simulate_with_state(program, seed).0
}

/// Like [`simulate`], additionally returning the final contents of every
/// simulated dictionary — what Theorem 5.2's determinism guarantee talks
/// about.
///
/// # Panics
///
/// Same conditions as [`simulate`].
pub fn simulate_with_state(program: &SimProgram, seed: u64) -> (Trace, Vec<HashMap<Value, Value>>) {
    simulate_with_scheduler(program, &mut SeededScheduler::new(seed))
}

/// Executes `program` under an arbitrary [`Scheduler`], returning the
/// trace and the final dictionary contents.
///
/// # Panics
///
/// Same conditions as [`simulate`], plus whatever the scheduler's
/// [`Scheduler::choose`] panics on (e.g. a [`ScriptedScheduler`] replayed
/// against the wrong program).
///
/// # Examples
///
/// Replaying an explicit schedule:
///
/// ```
/// use crace_model::Value;
/// use crace_runtime::sim::{simulate_with_scheduler, ScriptedScheduler, SimOp, SimProgram};
///
/// let program = SimProgram {
///     num_dicts: 1,
///     num_locks: 0,
///     threads: vec![
///         vec![SimOp::DictPut { dict: 0, key: Value::Int(1), value: Value::Int(10) }],
///         vec![SimOp::DictGet { dict: 0, key: Value::Int(1) }],
///     ],
/// };
/// // Thread 1 (index 0) first, then thread 2: the get sees the put.
/// let (trace, _) = simulate_with_scheduler(&program, &mut ScriptedScheduler::new(vec![0, 1]));
/// let get = trace.events()[3].action().unwrap();
/// assert_eq!(get.ret(), &Value::Int(10));
/// ```
pub fn simulate_with_scheduler(
    program: &SimProgram,
    scheduler: &mut dyn Scheduler,
) -> (Trace, Vec<HashMap<Value, Value>>) {
    let (trace, _, dicts) = simulate_faulty_with_scheduler(program, scheduler, &FaultPlan::new());
    (trace, dicts)
}

/// What happened during one chaos execution, beyond the delivered trace.
///
/// Everything needed to *replay* the run is here: the recorded
/// `schedule` plus the original [`FaultPlan`] reproduce the trace and
/// this outcome bit-for-bit via [`crate::explore::replay_with_faults`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosOutcome {
    /// Script thread indices killed by an injected [`Fault::PanicThread`].
    pub panicked: Vec<usize>,
    /// Script thread indices abandoned at exit: alive but permanently
    /// blocked on a lock a dead thread still holds.
    pub abandoned: Vec<usize>,
    /// Lock indices still held at exit by a dead or abandoned thread.
    pub poisoned_locks: Vec<usize>,
    /// Dispatches lost to [`Fault::Drop`] (executed against the reference
    /// semantics, never recorded in the trace).
    pub events_shed: u64,
    /// Dispatches hit by [`Fault::Delay`] (recorded; a delay is an
    /// identity in the single-consumer simulator, but it is counted so
    /// degradation totals match the real-thread runtime).
    pub events_delayed: u64,
    /// Global event index of the first fault that fired, if any. Every
    /// slot before it was delivered fault-free, so the trace's first
    /// `first_fault_index` events are bit-for-bit those of the fault-free
    /// run under the same schedule — the delivered-prefix guarantee.
    pub first_fault_index: Option<u64>,
    /// Total planned faults that actually fired.
    pub faults_fired: u64,
    /// Degradation counters as the runtime's [`FaultInjector`] saw them.
    pub degradation: Degradation,
    /// Scheduler choices in order, for replay.
    pub schedule: Vec<usize>,
}

impl ChaosOutcome {
    /// True iff no fault fired: the run was observationally fault-free.
    pub fn clean(&self) -> bool {
        self.faults_fired == 0
    }
}

/// What to do with one dispatch slot after consulting the fault plane.
enum Slot {
    Deliver,
    Shed,
    Panic,
}

fn claim_slot(injector: &FaultInjector, outcome: &mut ChaosOutcome, sheddable: bool) -> Slot {
    let (at, fault) = injector.next();
    let Some(fault) = fault else {
        return Slot::Deliver;
    };
    if fault == Fault::Drop && !sheddable {
        // Synchronization events are never shed: losing a happens-before
        // edge would make the detector invent races. The planned drop is
        // suppressed (same rule as the real-thread runtime).
        return Slot::Deliver;
    }
    outcome.faults_fired += 1;
    if outcome.first_fault_index.is_none() {
        outcome.first_fault_index = Some(at);
    }
    match fault {
        Fault::PanicThread => {
            injector.record_panic();
            Slot::Panic
        }
        Fault::Drop => {
            injector.record_drop();
            outcome.events_shed += 1;
            Slot::Shed
        }
        Fault::Delay(_) => {
            injector.record_delay();
            outcome.events_delayed += 1;
            Slot::Deliver
        }
    }
}

/// Executes `program` under the seeded schedule with `plan`'s faults
/// injected, returning the *delivered* trace (exactly the events an
/// analysis would have seen) and the [`ChaosOutcome`].
///
/// Fault semantics per dispatch slot (slots are numbered like the
/// fault-free run: fork prologue, one per scheduled step, join epilogue):
///
/// * [`Fault::PanicThread`] on a scheduled step kills the chosen thread
///   *instead of* executing its operation — its script ends there and any
///   locks it holds stay held (poisoned). On a fork-prologue slot the
///   child dies before running anything (and the fork is not delivered);
///   on a join-epilogue slot the join dispatch is lost but the simulator
///   host survives, mirroring [`crate::TrackedJoinHandle::join`] catching
///   the child's panic.
/// * [`Fault::Drop`] executes the operation against the reference
///   semantics but does not record the event: shared state advances, the
///   analysis is blind to it. Only data-plane slots (dictionary actions)
///   are sheddable — a drop planned on a fork/join/lock/unlock slot is
///   suppressed and delivers normally, because losing a happens-before
///   edge would make the detector invent races (degradation must fail
///   toward fewer reports, never more).
/// * [`Fault::Delay`] delivers normally (counted; no actual sleep — the
///   simulator is single-consumer so a delay cannot reorder anything).
///
/// Threads left permanently blocked on a dead thread's lock are
/// *abandoned*: the run ends without a deadlock panic (the degradation
/// contract's poisoned-lock scenario) and they get no join event, just as
/// a real host that cannot join a wedged thread would move on. The
/// deadlock panic is preserved when no fault fired.
///
/// # Panics
///
/// Same script-error conditions as [`simulate`], plus genuine deadlocks
/// in fault-free runs.
pub fn simulate_with_faults(
    program: &SimProgram,
    seed: u64,
    plan: &FaultPlan,
) -> (Trace, ChaosOutcome) {
    let (trace, outcome, _) =
        simulate_faulty_with_scheduler(program, &mut SeededScheduler::new(seed), plan);
    (trace, outcome)
}

/// [`simulate_with_faults`] under an arbitrary [`Scheduler`], also
/// returning the final dictionary contents — pair with
/// [`ScriptedScheduler`] over [`ChaosOutcome::schedule`] to replay a
/// chaos run exactly. This is the one scheduling loop: every `simulate*`
/// entry point runs it, the fault-free ones with an empty plan.
pub fn simulate_faulty_with_scheduler(
    program: &SimProgram,
    scheduler: &mut dyn Scheduler,
    plan: &FaultPlan,
) -> (Trace, ChaosOutcome, Vec<HashMap<Value, Value>>) {
    let injector = FaultInjector::new(plan.clone());
    let mut trace = Trace::new();
    let mut outcome = ChaosOutcome::default();
    let main = ThreadId(0);
    let n = program.threads.len();
    let mut state = SimState::new(program);
    let mut dead = vec![false; n];

    for (t, slot) in dead.iter_mut().enumerate() {
        match claim_slot(&injector, &mut outcome, false) {
            Slot::Deliver => trace.push(Event::Fork {
                parent: main,
                child: ThreadId(t as u32 + 1),
            }),
            Slot::Shed => {}
            Slot::Panic => {
                *slot = true;
                outcome.panicked.push(t);
                state.kill(t);
            }
        }
    }

    loop {
        let runnable = state.runnable();
        if runnable.is_empty() {
            break;
        }
        let t = scheduler.choose(&runnable);
        outcome.schedule.push(t);
        let sheddable = !matches!(state.next_op(t), Some(SimOp::Lock(_) | SimOp::Unlock(_)));
        match claim_slot(&injector, &mut outcome, sheddable) {
            Slot::Deliver => {
                let event = state.step(t);
                trace.push(event);
            }
            Slot::Shed => {
                let _ = state.step(t);
            }
            Slot::Panic => {
                dead[t] = true;
                outcome.panicked.push(t);
                state.kill(t);
            }
        }
    }

    for (t, &is_dead) in dead.iter().enumerate() {
        if !is_dead && state.next_op(t).is_some() {
            outcome.abandoned.push(t);
        }
    }
    if !outcome.abandoned.is_empty() && outcome.clean() {
        panic!("simulated deadlock: all unfinished threads are blocked");
    }
    for lock in 0..program.num_locks {
        if let Some(owner) = state.lock_owner(lock) {
            if dead[owner] || outcome.abandoned.contains(&owner) {
                outcome.poisoned_locks.push(lock);
            }
        }
    }

    for t in 0..n {
        if outcome.abandoned.contains(&t) {
            continue; // a wedged thread cannot be joined; the host moves on
        }
        match claim_slot(&injector, &mut outcome, false) {
            Slot::Deliver => trace.push(Event::Join {
                parent: main,
                child: ThreadId(t as u32 + 1),
            }),
            Slot::Shed | Slot::Panic => {}
        }
    }

    outcome.degradation = injector.degradation();
    (trace, outcome, state.into_dicts())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crace_core::{translate, TraceDetector};
    use crace_model::replay;
    use std::sync::Arc;

    fn detect(trace: &Trace, num_dicts: usize) -> u64 {
        let detector = TraceDetector::new();
        let compiled = Arc::new(translate(&builtin::dictionary()).unwrap());
        for d in 0..num_dicts {
            detector.register(sim_dict_obj(d), Arc::clone(&compiled));
        }
        replay(trace, &detector).total()
    }

    fn put(dict: usize, k: i64, v: i64) -> SimOp {
        SimOp::DictPut {
            dict,
            key: Value::Int(k),
            value: Value::Int(v),
        }
    }

    fn get(dict: usize, k: i64) -> SimOp {
        SimOp::DictGet {
            dict,
            key: Value::Int(k),
        }
    }

    #[test]
    fn deterministic_per_seed_and_varies_across_seeds() {
        let program = SimProgram {
            num_dicts: 1,
            num_locks: 0,
            threads: vec![
                vec![put(0, 1, 10), get(0, 1), put(0, 2, 20)],
                vec![put(0, 3, 30), get(0, 3)],
            ],
        };
        assert_eq!(simulate(&program, 1), simulate(&program, 1));
        // Some pair of seeds yields different interleavings.
        let t0 = simulate(&program, 0);
        assert!((1..20).any(|s| simulate(&program, s) != t0));
    }

    #[test]
    fn scripted_scheduler_reproduces_an_exact_interleaving() {
        let program = SimProgram {
            num_dicts: 1,
            num_locks: 0,
            threads: vec![vec![put(0, 1, 10), get(0, 1)], vec![put(0, 1, 20)]],
        };
        // t2's put lands between t1's put and get.
        let (trace, dicts) =
            simulate_with_scheduler(&program, &mut ScriptedScheduler::new(vec![0, 1, 0]));
        let actions: Vec<_> = trace.iter().filter_map(|e| e.action()).collect();
        assert_eq!(actions[1].ret(), &Value::Int(10)); // t2 overwrites t1's put
        assert_eq!(actions[2].ret(), &Value::Int(20)); // get sees t2's value
        assert_eq!(dicts[0][&Value::Int(1)], Value::Int(20));
    }

    #[test]
    #[should_panic(expected = "not runnable")]
    fn scripted_scheduler_rejects_blocked_threads() {
        let program = SimProgram {
            num_dicts: 0,
            num_locks: 1,
            threads: vec![
                vec![SimOp::Lock(0), SimOp::Unlock(0)],
                vec![SimOp::Lock(0), SimOp::Unlock(0)],
            ],
        };
        // Thread 1 (index 1) cannot run while thread 0 holds the lock.
        simulate_with_scheduler(&program, &mut ScriptedScheduler::new(vec![0, 1, 0, 1]));
    }

    #[test]
    fn disjoint_keys_are_race_free_under_every_schedule() {
        let program = SimProgram {
            num_dicts: 1,
            num_locks: 0,
            threads: vec![
                vec![put(0, 1, 10), get(0, 1), put(0, 1, 11)],
                vec![put(0, 2, 20), get(0, 2)],
                vec![
                    put(0, 3, 30),
                    SimOp::DictGet {
                        dict: 0,
                        key: Value::Int(3),
                    },
                ],
            ],
        };
        for seed in 0..50 {
            let trace = simulate(&program, seed);
            assert_eq!(detect(&trace, 1), 0, "seed {seed}\n{trace}");
        }
    }

    #[test]
    fn same_key_writes_race_under_every_schedule() {
        let program = SimProgram {
            num_dicts: 1,
            num_locks: 0,
            threads: vec![vec![put(0, 1, 10)], vec![put(0, 1, 20)]],
        };
        for seed in 0..50 {
            let trace = simulate(&program, seed);
            assert!(detect(&trace, 1) > 0, "seed {seed}\n{trace}");
        }
    }

    #[test]
    fn lock_protected_rmw_is_race_free_under_every_schedule() {
        let rmw = |l: usize| vec![SimOp::Lock(l), get(0, 1), put(0, 1, 99), SimOp::Unlock(l)];
        let program = SimProgram {
            num_dicts: 1,
            num_locks: 1,
            threads: vec![rmw(0), rmw(0), rmw(0)],
        };
        for seed in 0..50 {
            let trace = simulate(&program, seed);
            assert_eq!(detect(&trace, 1), 0, "seed {seed}\n{trace}");
        }
    }

    #[test]
    fn unlocked_rmw_races_under_every_schedule() {
        // Same program without the lock: both orders of the two writes
        // conflict (v ≠ p in at least one), so every schedule races.
        let rmw = || vec![get(0, 1), put(0, 1, 99)];
        let program = SimProgram {
            num_dicts: 1,
            num_locks: 0,
            threads: vec![rmw(), rmw()],
        };
        for seed in 0..50 {
            let trace = simulate(&program, seed);
            assert!(detect(&trace, 1) > 0, "seed {seed}\n{trace}");
        }
    }

    #[test]
    fn reference_semantics_produce_correct_returns() {
        let program = SimProgram {
            num_dicts: 1,
            num_locks: 1,
            threads: vec![vec![
                put(0, 7, 1),
                put(0, 7, 2),
                get(0, 7),
                SimOp::DictSize { dict: 0 },
            ]],
        };
        let trace = simulate(&program, 5);
        let actions: Vec<_> = trace.iter().filter_map(|e| e.action()).collect();
        assert_eq!(actions[0].ret(), &Value::Nil); // first put: empty slot
        assert_eq!(actions[1].ret(), &Value::Int(1)); // overwrites 1
        assert_eq!(actions[2].ret(), &Value::Int(2)); // reads 2
        assert_eq!(actions[3].ret(), &Value::Int(1)); // one key present
    }

    #[test]
    fn multiple_dicts_are_independent() {
        let program = SimProgram {
            num_dicts: 2,
            num_locks: 0,
            threads: vec![vec![put(0, 1, 10)], vec![put(1, 1, 20)]],
        };
        for seed in 0..20 {
            let trace = simulate(&program, seed);
            // Same key but different objects: never a race.
            assert_eq!(detect(&trace, 2), 0, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn unlocking_foreign_lock_panics() {
        let program = SimProgram {
            num_dicts: 0,
            num_locks: 1,
            threads: vec![vec![SimOp::Unlock(0)]],
        };
        simulate(&program, 0);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn self_deadlock_panics() {
        let program = SimProgram {
            num_dicts: 0,
            num_locks: 1,
            threads: vec![vec![SimOp::Lock(0), SimOp::Lock(0)]],
        };
        simulate(&program, 0);
    }

    #[test]
    fn empty_fault_plan_matches_fault_free_run() {
        let program = SimProgram {
            num_dicts: 1,
            num_locks: 1,
            threads: vec![
                vec![SimOp::Lock(0), put(0, 1, 10), SimOp::Unlock(0)],
                vec![put(0, 2, 20), get(0, 2)],
            ],
        };
        for seed in 0..10 {
            let plain = simulate(&program, seed);
            let (chaotic, outcome) = simulate_with_faults(&program, seed, &FaultPlan::new());
            assert_eq!(plain, chaotic, "seed {seed}");
            assert!(outcome.clean());
            assert_eq!(outcome.degradation, Degradation::default());
        }
    }

    #[test]
    fn drop_fault_sheds_one_event_and_keeps_reference_semantics() {
        // Single thread, so the schedule is forced: slots are
        // fork(0), put(1), get(2), join(3). Drop the put's dispatch.
        let program = SimProgram {
            num_dicts: 1,
            num_locks: 0,
            threads: vec![vec![put(0, 1, 10), get(0, 1)]],
        };
        let plan = FaultPlan::new().with(1, Fault::Drop);
        let (trace, outcome) = simulate_with_faults(&program, 0, &plan);
        assert_eq!(outcome.events_shed, 1);
        assert_eq!(outcome.first_fault_index, Some(1));
        // fork, get, join — the put is gone from the trace…
        assert_eq!(trace.len(), 3);
        // …but it executed: the get still observes the stored value.
        let got = trace.events()[1].action().unwrap();
        assert_eq!(got.ret(), &Value::Int(10));
    }

    #[test]
    fn panic_fault_kills_thread_and_poisons_its_lock() {
        // Thread 0 takes the lock then dies; thread 1 needs the lock and
        // is abandoned, blocked forever on the poisoned lock.
        let program = SimProgram {
            num_dicts: 1,
            num_locks: 1,
            threads: vec![
                vec![SimOp::Lock(0), put(0, 1, 10), SimOp::Unlock(0)],
                vec![SimOp::Lock(0), put(0, 2, 20), SimOp::Unlock(0)],
            ],
        };
        // Force thread 0 first; slot 2 is fork(0), fork(1), then thread
        // 0's Lock at slot 2 — panic at slot 3 (its put, lock held).
        let plan = FaultPlan::new().with(3, Fault::PanicThread);
        let mut scheduler = ScriptedScheduler::new(vec![0, 0]);
        let (trace, outcome, _) = simulate_faulty_with_scheduler(&program, &mut scheduler, &plan);
        assert_eq!(outcome.panicked, vec![0]);
        assert_eq!(outcome.abandoned, vec![1]);
        assert_eq!(outcome.poisoned_locks, vec![0]);
        assert_eq!(outcome.degradation.panics_injected, 1);
        // fork, fork, acquire, then the dead thread's join only (the
        // abandoned thread gets none).
        assert_eq!(trace.len(), 4);
        assert!(matches!(
            trace.events()[3],
            Event::Join {
                child: ThreadId(1),
                ..
            }
        ));
    }

    #[test]
    fn chaos_runs_replay_bit_for_bit() {
        let program = SimProgram {
            num_dicts: 2,
            num_locks: 1,
            threads: vec![
                vec![SimOp::Lock(0), put(0, 1, 10), SimOp::Unlock(0), get(1, 5)],
                vec![put(0, 1, 20), put(1, 5, 50)],
                vec![get(0, 1), SimOp::DictSize { dict: 1 }],
            ],
        };
        for seed in 0..20 {
            let plan = FaultPlan::seeded(seed, 20, 3);
            let (trace, outcome) = simulate_with_faults(&program, seed, &plan);
            let (trace2, outcome2) = simulate_with_faults(&program, seed, &plan);
            assert_eq!(trace, trace2, "seed {seed}");
            assert_eq!(outcome, outcome2, "seed {seed}");
            let (replayed, routcome) =
                crate::explore::replay_with_faults(&program, &outcome.schedule, &plan);
            assert_eq!(trace, replayed, "seed {seed}");
            assert_eq!(outcome, routcome, "seed {seed}");
        }
    }

    #[test]
    fn delivered_prefix_matches_fault_free_run() {
        let program = SimProgram {
            num_dicts: 1,
            num_locks: 1,
            threads: vec![
                vec![SimOp::Lock(0), put(0, 1, 10), SimOp::Unlock(0)],
                vec![put(0, 1, 20), get(0, 1)],
            ],
        };
        for seed in 0..30 {
            let plain = simulate(&program, seed);
            let plan = FaultPlan::seeded(seed.wrapping_mul(7), 12, 2);
            let (trace, outcome) = simulate_with_faults(&program, seed, &plan);
            let k = outcome
                .first_fault_index
                .map(|k| k as usize)
                .unwrap_or(trace.len());
            assert!(trace.len() >= k, "seed {seed}");
            assert_eq!(
                &trace.events()[..k],
                &plain.events()[..k],
                "seed {seed}: delivered prefix diverged"
            );
        }
    }
}
