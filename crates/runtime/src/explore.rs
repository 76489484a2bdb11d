//! Systematic schedule exploration: a DPOR-lite model checker for
//! [`SimProgram`]s.
//!
//! Random seeds ([`crate::sim::simulate`]) *sample* the schedule space;
//! [`explore`] *enumerates* it. A depth-first search forks the
//! [`SimState`] at every scheduling decision and walks every maximal
//! interleaving, pruned by two classic techniques:
//!
//! * **Sleep sets** (Flanagan–Godefroid's DPOR family): after exploring
//!   thread `t` from a node, `t` is put to sleep for the node's remaining
//!   children and stays asleep down a branch until some *dependent*
//!   operation executes. Two operations are independent iff their
//!   access-point footprints cannot collide — the same
//!   `⟨Xₒ, ηₒ, Cₒ⟩` representation (§4.2) the detector itself uses, so
//!   the equivalence classes the explorer prunes are exactly the
//!   commutativity classes the paper's theory is built on. Sleep sets
//!   keep at least one representative of every Mazurkiewicz trace, so
//!   every reachable *final state* (and every race) is still visited.
//! * **Preemption bounding** (CHESS): optionally limit the number of
//!   context switches away from a still-runnable thread. Unlike sleep
//!   sets this is an under-approximation, but small bounds find most
//!   bugs and give shrinking its notion of a "simplest" schedule.
//!
//! On every explored schedule the detector invariants are asserted:
//! Algorithm 1 must agree with the quadratic oracle (Theorem 5.1), and
//! if *no* schedule races, every schedule of a lock-free (pure
//! fork/join) program must end in the same dictionary state
//! (Theorem 5.2; with locks, race freedom only bounds nondeterminism to
//! the critical-section acquisition order). A violation of either is a
//! detector bug, reported as [`Violation`] with a replayable witness.
//!
//! When a race is found, [`shrink`] delta-debugs the program (drop
//! threads, then single ops) and then minimizes the schedule (smallest
//! preemption bound that still races), yielding a minimal replayable
//! counterexample.
//!
//! # Examples
//!
//! ```
//! use crace_model::Value;
//! use crace_runtime::explore::{explore, ExploreConfig};
//! use crace_runtime::sim::{SimOp, SimProgram};
//!
//! // Two unordered puts of the same key: the Fig. 3 race, scripted.
//! let put = |v| SimOp::DictPut { dict: 0, key: Value::Int(1), value: Value::Int(v) };
//! let program = SimProgram {
//!     num_dicts: 1,
//!     num_locks: 0,
//!     threads: vec![vec![put(10)], vec![put(20)]],
//! };
//! let report = explore(&program, &ExploreConfig::default());
//! assert!(report.race.is_some());          // found without any seed
//! assert_eq!(report.stats.schedules_explored, 2); // both orders race
//! ```

use crate::sim::{sim_dict_methods, sim_dict_obj, SimOp, SimProgram, SimState};
use crace_core::oracle::find_races;
use crace_core::{translate, ClassId, CompiledSpec, TraceDetector};
use crace_model::{replay, Event, MethodId, ObjId, ThreadId, Trace, Value};
use crace_obs::Registry;
use crace_spec::{builtin, Spec};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Bounds and switches for [`explore`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Sleep-set pruning on/off. Off means brute-force enumeration of
    /// every interleaving — the reference the soundness tests compare
    /// against.
    pub dpor: bool,
    /// Stop after this many maximal schedules (`0` = unlimited). When the
    /// cap is hit [`ExploreStats::truncated`] is set and the
    /// determinism invariant is not judged (coverage was partial).
    pub max_schedules: u64,
    /// CHESS-style preemption bound: maximum number of context switches
    /// away from a still-runnable thread per schedule. `None` = no bound.
    pub max_preemptions: Option<u32>,
    /// Check Theorem 5.1 (detector ≡ oracle, per schedule) and
    /// Theorem 5.2 (race freedom ⇒ determinism, across schedules).
    pub check_invariants: bool,
    /// Stop the search at the first racy schedule (used by shrinking).
    pub stop_on_race: bool,
}

impl Default for ExploreConfig {
    fn default() -> ExploreConfig {
        ExploreConfig {
            dpor: true,
            max_schedules: 100_000,
            max_preemptions: None,
            check_invariants: true,
            stop_on_race: false,
        }
    }
}

/// Counters describing one exploration, mirrored into a
/// [`crace_obs::Registry`] by [`ExploreStats::feed`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Maximal schedules executed to completion (or deadlock).
    pub schedules_explored: u64,
    /// Subtrees cut because every runnable thread was asleep — each is a
    /// schedule prefix whose continuations are all equivalent to an
    /// already-explored interleaving.
    pub schedules_pruned: u64,
    /// Branches cut by the preemption bound.
    pub schedules_bounded: u64,
    /// Schedules that ended in a deadlock (all unfinished threads
    /// blocked); counted in `schedules_explored`, excluded from the
    /// invariant checks.
    pub deadlocks: u64,
    /// Simulator steps executed (states visited by the DFS).
    pub states_visited: u64,
    /// Completed schedules on which the detector reported ≥ 1 race.
    pub racy_schedules: u64,
    /// Distinct final dictionary states over completed schedules.
    pub distinct_final_states: u64,
    /// Candidate executions tried while shrinking (0 when not shrinking).
    pub shrink_iterations: u64,
    /// Did the search hit `max_schedules` before finishing?
    pub truncated: bool,
}

impl ExploreStats {
    /// Mirrors the counters into `registry` under `explore.*`, the names
    /// the `crace explore --metrics` surface reports.
    pub fn feed(&self, registry: &Registry) {
        registry
            .counter("explore.schedules.explored")
            .add(self.schedules_explored);
        registry
            .counter("explore.schedules.pruned")
            .add(self.schedules_pruned);
        registry
            .counter("explore.schedules.bounded")
            .add(self.schedules_bounded);
        registry
            .counter("explore.schedules.racy")
            .add(self.racy_schedules);
        registry.counter("explore.deadlocks").add(self.deadlocks);
        registry
            .counter("explore.states.visited")
            .add(self.states_visited);
        registry
            .counter("explore.shrink.iterations")
            .add(self.shrink_iterations);
        registry
            .gauge("explore.final_states")
            .set(self.distinct_final_states as f64);
        registry
            .gauge("explore.truncated")
            .set(u64::from(self.truncated) as f64);
    }
}

/// A replayable counterexample: the schedule (thread picked at each
/// step), the trace it produces, and how many races the detector
/// reported on it.
#[derive(Clone, Debug, PartialEq)]
pub struct Witness {
    /// Thread index chosen at each scheduling decision — feed to
    /// [`crate::sim::ScriptedScheduler`] to reproduce the run exactly.
    pub schedule: Vec<usize>,
    /// The recorded trace of that schedule.
    pub trace: Trace,
    /// Detector race count on the trace.
    pub races: u64,
}

/// A detector-invariant violation found by exploration — by Theorems 5.1
/// and 5.2 these indicate a bug in the detector (or the simulator), never
/// in the explored program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Algorithm 1 and the quadratic oracle disagree on one schedule
    /// (Theorem 5.1 exactness).
    DetectorOracleMismatch {
        /// Races reported by [`TraceDetector`].
        detector_races: u64,
        /// Racing pairs found by [`find_races`].
        oracle_pairs: usize,
    },
    /// No explored schedule raced, yet two schedules ended in different
    /// dictionary states (Theorem 5.2 determinism). Only checked for
    /// lock-free (pure fork/join) programs: critical sections may
    /// legitimately run in either acquisition order, so with locks race
    /// freedom bounds nondeterminism to that order instead of
    /// eliminating it.
    NondeterministicRaceFree,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::DetectorOracleMismatch {
                detector_races,
                oracle_pairs,
            } => write!(
                f,
                "Theorem 5.1 violated: detector reports {detector_races} race(s) \
                 but the oracle finds {oracle_pairs} racing pair(s)"
            ),
            Violation::NondeterministicRaceFree => write!(
                f,
                "Theorem 5.2 violated: no schedule races, \
                 yet final dictionary states differ"
            ),
        }
    }
}

/// A canonical (ordered) rendering of the final dictionary contents,
/// comparable across schedules.
pub type FinalState = Vec<BTreeMap<Value, Value>>;

/// Everything [`explore`] found.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Search counters.
    pub stats: ExploreStats,
    /// The first racy schedule in DFS order, if any.
    pub race: Option<Witness>,
    /// An invariant violation with its witness schedule, if any.
    pub violation: Option<(Violation, Witness)>,
    /// Every distinct final dictionary state over completed schedules,
    /// with an example schedule reaching it.
    pub final_states: BTreeMap<FinalState, Vec<usize>>,
}

/// How one access point of a statically known op constrains the point's
/// slot value: `ds` points carry none, argument slots are known before
/// execution, return-value slots could be anything.
#[derive(Clone, Debug, PartialEq, Eq)]
enum SlotVal {
    Ds,
    Known(Value),
    Any,
}

impl SlotVal {
    /// Could two concrete points of conflicting classes with these value
    /// constraints collide? Mirrors [`CompiledSpec::actions_conflict`]'s
    /// `y.value == x.value` on `Option<Value>`: `ds` points (value
    /// `None`) only ever collide with other `ds` points.
    fn may_equal(&self, other: &SlotVal) -> bool {
        match (self, other) {
            (SlotVal::Ds, SlotVal::Ds) => true,
            (SlotVal::Ds, _) | (_, SlotVal::Ds) => false,
            (SlotVal::Known(a), SlotVal::Known(b)) => a == b,
            _ => true, // Any matches any concrete value
        }
    }
}

/// The static may-touch footprint of one [`SimOp`]: which shared
/// resource, and (for dictionary ops) which access points with what value
/// constraints, over *all* possible β vectors — a sound over-approximation
/// of the points the op will actually touch.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Footprint {
    LockOp(usize),
    DictOp {
        dict: usize,
        points: Vec<(ClassId, SlotVal)>,
    },
}

fn footprint(op: &SimOp, compiled: &CompiledSpec) -> Footprint {
    let (put, get, size) = sim_dict_methods();
    let (dict, method, args): (usize, MethodId, Vec<&Value>) = match op {
        SimOp::Lock(l) | SimOp::Unlock(l) => return Footprint::LockOp(*l),
        SimOp::DictPut { dict, key, value } => (*dict, put, vec![key, value]),
        SimOp::DictGet { dict, key } => (*dict, get, vec![key]),
        SimOp::DictSize { dict } => (*dict, size, vec![]),
    };
    let points = compiled
        .method_touch_universe(method)
        .into_iter()
        .map(|(class, slot)| {
            let val = match slot {
                None => SlotVal::Ds,
                // Slot indices follow Action::slots: arguments first,
                // then the return value (unknown before execution).
                Some(i) => match args.get(i) {
                    Some(v) => SlotVal::Known((*v).clone()),
                    None => SlotVal::Any,
                },
            };
            (class, val)
        })
        .collect();
    Footprint::DictOp { dict, points }
}

/// May the two ops fail to commute in *some* state? Dependence relation
/// of the partial-order reduction: over-approximating it only costs
/// pruning, never soundness.
fn may_conflict(a: &Footprint, b: &Footprint, compiled: &CompiledSpec) -> bool {
    match (a, b) {
        // Operations on the same lock never commute (acquire order is
        // observable through blocking); different locks are independent.
        (Footprint::LockOp(l1), Footprint::LockOp(l2)) => l1 == l2,
        (Footprint::LockOp(_), Footprint::DictOp { .. })
        | (Footprint::DictOp { .. }, Footprint::LockOp(_)) => false,
        (
            Footprint::DictOp {
                dict: d1,
                points: p1,
            },
            Footprint::DictOp {
                dict: d2,
                points: p2,
            },
        ) => {
            if d1 != d2 {
                return false; // different objects always commute
            }
            p1.iter().any(|(c1, v1)| {
                compiled
                    .conflicting(*c1)
                    .iter()
                    .any(|c2| p2.iter().any(|(c, v2)| c == c2 && v1.may_equal(v2)))
            })
        }
    }
}

struct Explorer<'p> {
    program: &'p SimProgram,
    cfg: &'p ExploreConfig,
    compiled: Arc<CompiledSpec>,
    oracle_specs: HashMap<ObjId, Spec>,
    footprints: Vec<Vec<Footprint>>,
    stats: ExploreStats,
    final_states: BTreeMap<FinalState, Vec<usize>>,
    race: Option<Witness>,
    violation: Option<(Violation, Witness)>,
    schedule: Vec<usize>,
    events: Vec<Event>,
    done: bool,
    /// Lane + phase for per-schedule spans; `None` when untraced.
    trace: Option<(Arc<crace_obs::Lane>, crace_obs::PhaseId)>,
}

impl<'p> Explorer<'p> {
    fn new(program: &'p SimProgram, cfg: &'p ExploreConfig) -> Explorer<'p> {
        let spec = builtin::dictionary();
        let compiled = Arc::new(translate(&spec).expect("builtin dictionary translates"));
        let oracle_specs = (0..program.num_dicts)
            .map(|d| (sim_dict_obj(d), spec.clone()))
            .collect();
        let footprints = program
            .threads
            .iter()
            .map(|script| script.iter().map(|op| footprint(op, &compiled)).collect())
            .collect();
        Explorer {
            program,
            cfg,
            compiled,
            oracle_specs,
            footprints,
            stats: ExploreStats::default(),
            final_states: BTreeMap::new(),
            race: None,
            violation: None,
            schedule: Vec::new(),
            events: Vec::new(),
            done: false,
            trace: None,
        }
    }

    /// The full trace of the current path: fork prologue, recorded
    /// events, join epilogue.
    fn build_trace(&self) -> Trace {
        let main = ThreadId(0);
        let n = self.program.threads.len();
        let mut trace = Trace::new();
        for t in 0..n {
            trace.push(Event::Fork {
                parent: main,
                child: ThreadId(t as u32 + 1),
            });
        }
        trace.extend(self.events.iter().cloned());
        for t in 0..n {
            trace.push(Event::Join {
                parent: main,
                child: ThreadId(t as u32 + 1),
            });
        }
        trace
    }

    fn detect(&self, trace: &Trace) -> u64 {
        let detector = TraceDetector::new();
        for d in 0..self.program.num_dicts {
            detector.register(sim_dict_obj(d), Arc::clone(&self.compiled));
        }
        replay(trace, &detector).total()
    }

    fn witness(&self, trace: Trace, races: u64) -> Witness {
        Witness {
            schedule: self.schedule.clone(),
            trace,
            races,
        }
    }

    fn budget_spent(&mut self) {
        if self.cfg.max_schedules != 0 && self.stats.schedules_explored >= self.cfg.max_schedules {
            self.stats.truncated = true;
            self.done = true;
        }
    }

    fn on_terminal(&mut self, state: &SimState<'_>) {
        self.stats.schedules_explored += 1;
        let mut span = self.trace.as_ref().map(|(lane, phase)| lane.span(*phase));
        let trace = self.build_trace();
        let races = self.detect(&trace);
        if let Some(span) = span.as_mut() {
            span.set_aux(races);
        }
        if self.cfg.check_invariants {
            let pairs = find_races(&trace, &self.oracle_specs);
            if (races > 0) == pairs.is_empty() {
                let v = Violation::DetectorOracleMismatch {
                    detector_races: races,
                    oracle_pairs: pairs.len(),
                };
                self.violation = Some((v, self.witness(trace, races)));
                self.done = true;
                return;
            }
        }
        let key: FinalState = state
            .dicts()
            .iter()
            .map(|m| m.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
            .collect();
        self.final_states
            .entry(key)
            .or_insert_with(|| self.schedule.clone());
        if races > 0 {
            self.stats.racy_schedules += 1;
            if self.race.is_none() {
                self.race = Some(self.witness(trace, races));
            }
            if self.cfg.stop_on_race {
                self.done = true;
                return;
            }
        }
        self.budget_spent();
    }

    fn dfs(&mut self, state: &SimState<'p>, sleep: u64, last: Option<usize>, preemptions: u32) {
        if self.done {
            return;
        }
        let runnable = state.runnable();
        if runnable.is_empty() {
            if state.finished() {
                self.on_terminal(state);
            } else {
                self.stats.schedules_explored += 1;
                self.stats.deadlocks += 1;
                self.budget_spent();
            }
            return;
        }
        // Prefer continuing the last thread (fewest context switches
        // first — DFS then finds low-preemption witnesses early), then
        // ascending thread order for determinism.
        let mut order = runnable.clone();
        if let Some(l) = last {
            if let Some(pos) = order.iter().position(|&t| t == l) {
                order.remove(pos);
                order.insert(0, l);
            }
        }
        if self.cfg.dpor && order.iter().all(|&t| (sleep >> t) & 1 == 1) {
            // Every runnable thread is asleep: every continuation is
            // equivalent to an already-explored interleaving.
            self.stats.schedules_pruned += 1;
            return;
        }
        let mut sleep = sleep;
        for &t in &order {
            if self.done {
                return;
            }
            if self.cfg.dpor && (sleep >> t) & 1 == 1 {
                continue;
            }
            let mut p = preemptions;
            if let (Some(l), Some(bound)) = (last, self.cfg.max_preemptions) {
                if l != t && runnable.contains(&l) {
                    p += 1;
                    if p > bound {
                        self.stats.schedules_bounded += 1;
                        continue;
                    }
                }
            }
            let fp = &self.footprints[t][state.pc(t)];
            // Wake every sleeping thread whose next op depends on `fp`.
            let mut child_sleep = 0u64;
            if self.cfg.dpor {
                for u in 0..self.program.threads.len() {
                    if (sleep >> u) & 1 == 1
                        && u != t
                        && !may_conflict(fp, &self.footprints[u][state.pc(u)], &self.compiled)
                    {
                        child_sleep |= 1 << u;
                    }
                }
            }
            let mut child = state.clone();
            let event = child.step(t);
            self.stats.states_visited += 1;
            self.schedule.push(t);
            self.events.push(event);
            self.dfs(&child, child_sleep, Some(t), p);
            self.schedule.pop();
            self.events.pop();
            if self.cfg.dpor {
                sleep |= 1 << t;
            }
        }
    }
}

/// Explores every schedule of `program` up to the configured bounds,
/// checking the detector invariants on each, and returns what was found.
///
/// Deterministic: equal programs and configs produce equal reports — no
/// seed anywhere.
///
/// # Panics
///
/// Panics on script errors (dictionary/lock indices out of range,
/// unlocking a lock the thread does not hold) and on programs with more
/// than 64 threads.
pub fn explore(program: &SimProgram, cfg: &ExploreConfig) -> ExploreReport {
    explore_traced(program, cfg, None)
}

/// [`explore`] with an optional span tracer: each completed schedule
/// records one `explore.schedule` span on the `explore` lane (`aux` =
/// races found on that schedule), timing the per-schedule detect +
/// invariant check. `None` is exactly [`explore`].
///
/// # Panics
///
/// As [`explore`].
pub fn explore_traced(
    program: &SimProgram,
    cfg: &ExploreConfig,
    tracer: Option<&crace_obs::Tracer>,
) -> ExploreReport {
    assert!(
        program.threads.len() <= 64,
        "explorer supports at most 64 threads"
    );
    let mut explorer = Explorer::new(program, cfg);
    explorer.trace = tracer.map(|t| (t.lane("explore"), t.phase("explore.schedule")));
    let initial = SimState::new(program);
    explorer.dfs(&initial, 0, None, 0);
    explorer.stats.distinct_final_states = explorer.final_states.len() as u64;
    // Theorem 5.2, across schedules: only judged on full coverage
    // (bounding and truncation leave schedules unseen; sleep sets do
    // not — they preserve every reachable final state). Lock-using
    // programs are exempt: critical sections serialize conflicting ops
    // (so no race is reported) yet may run in either acquisition order,
    // and race freedom only bounds the nondeterminism to that order —
    // the theorem's guarantee is for pure fork/join programs.
    let full_coverage =
        !explorer.stats.truncated && explorer.stats.schedules_bounded == 0 && !cfg.stop_on_race;
    let uses_locks = program
        .threads
        .iter()
        .flatten()
        .any(|op| matches!(op, SimOp::Lock(_) | SimOp::Unlock(_)));
    if cfg.check_invariants
        && explorer.violation.is_none()
        && full_coverage
        && !uses_locks
        && explorer.race.is_none()
        && explorer.final_states.len() > 1
    {
        let schedule = explorer
            .final_states
            .values()
            .nth(1)
            .expect("len > 1")
            .clone();
        let (trace, _) = crate::sim::simulate_with_scheduler(
            program,
            &mut crate::sim::ScriptedScheduler::new(schedule.clone()),
        );
        explorer.violation = Some((
            Violation::NondeterministicRaceFree,
            Witness {
                schedule,
                trace,
                races: 0,
            },
        ));
    }
    ExploreReport {
        stats: explorer.stats,
        race: explorer.race,
        violation: explorer.violation,
        final_states: explorer.final_states,
    }
}

/// The result of [`shrink`]: a minimal racy program with a replayable
/// minimal-schedule witness.
#[derive(Clone, Debug)]
pub struct Shrunk {
    /// The reduced program — removing any further op loses the race.
    pub program: SimProgram,
    /// A racy schedule of the reduced program with the smallest
    /// preemption count the search found.
    pub witness: Witness,
    /// Candidate executions tried (delta-debugging steps plus schedule
    /// minimization rounds).
    pub iterations: u64,
}

/// Does `program` race under some schedule? Cheap check for shrinking:
/// DPOR on, invariants off, stop at the first race.
fn first_race(program: &SimProgram, cfg: &ExploreConfig) -> Option<Witness> {
    let probe = ExploreConfig {
        dpor: true,
        check_invariants: false,
        stop_on_race: true,
        max_preemptions: None,
        ..cfg.clone()
    };
    explore(program, &probe).race
}

/// Shrinks a racy `program` to a minimal counterexample: greedily drops
/// whole threads, then single operations (re-exploring after each
/// candidate removal to confirm the race survives), trims unused
/// dictionaries/locks, and finally searches for a racy schedule under
/// the smallest preemption bound. Returns `None` if `program` does not
/// race under any schedule within `cfg`'s budget.
///
/// The returned witness replays exactly: feed
/// [`Shrunk`]`.witness.schedule` to a
/// [`crate::sim::ScriptedScheduler`] or replay the recorded trace into
/// any detector.
pub fn shrink(program: &SimProgram, cfg: &ExploreConfig) -> Option<Shrunk> {
    let mut iterations = 0u64;
    let try_race = |p: &SimProgram, iterations: &mut u64| -> Option<Witness> {
        *iterations += 1;
        first_race(p, cfg)
    };
    try_race(program, &mut iterations)?;
    let mut current = program.clone();
    // Pass 1: delta-debug at thread granularity, then single ops, until
    // a fixpoint — every removal must preserve *some* racy schedule.
    loop {
        let mut reduced = false;
        let mut i = current.threads.len();
        while i > 0 && current.threads.len() > 2 {
            i -= 1;
            let mut cand = current.clone();
            cand.threads.remove(i);
            if try_race(&cand, &mut iterations).is_some() {
                current = cand;
                reduced = true;
            }
        }
        for t in 0..current.threads.len() {
            let mut j = current.threads[t].len();
            while j > 0 {
                j -= 1;
                let mut cand = current.clone();
                cand.threads[t].remove(j);
                if try_race(&cand, &mut iterations).is_some() {
                    current = cand;
                    reduced = true;
                }
            }
        }
        if !reduced {
            break;
        }
    }
    // Idle threads only add fork/join noise to the counterexample.
    current.threads.retain(|script| !script.is_empty());
    current.num_dicts = current
        .threads
        .iter()
        .flatten()
        .filter_map(|op| match op {
            SimOp::DictPut { dict, .. }
            | SimOp::DictGet { dict, .. }
            | SimOp::DictSize { dict } => Some(*dict + 1),
            _ => None,
        })
        .max()
        .expect("a racy program performs dictionary actions");
    current.num_locks = current
        .threads
        .iter()
        .flatten()
        .filter_map(|op| match op {
            SimOp::Lock(l) | SimOp::Unlock(l) => Some(*l + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    // Pass 2: minimal schedule — the smallest preemption bound that
    // still exhibits the race (CHESS's "simplest interleaving").
    let mut witness = None;
    for bound in 0..=8u32 {
        iterations += 1;
        let probe = ExploreConfig {
            dpor: true,
            check_invariants: false,
            stop_on_race: true,
            max_preemptions: Some(bound),
            ..cfg.clone()
        };
        if let Some(w) = explore(&current, &probe).race {
            witness = Some(w);
            break;
        }
    }
    let witness = match witness {
        Some(w) => w,
        None => try_race(&current, &mut iterations)?, // bound 8 exceeded: fall back
    };
    Some(Shrunk {
        program: current,
        witness,
        iterations,
    })
}

/// Replays a chaos run exactly: `choices` is the
/// [`ChaosOutcome::schedule`](crate::sim::ChaosOutcome::schedule) a
/// previous [`simulate_with_faults`](crate::sim::simulate_with_faults)
/// recorded, and `plan` the fault plan it ran under. Returns the same
/// delivered trace and outcome bit-for-bit — the chaos analogue of
/// replaying a [`Witness`] schedule.
///
/// # Panics
///
/// Panics if `choices` does not match the program's runnable sets under
/// `plan` (a schedule recorded from a different program or plan).
pub fn replay_with_faults(
    program: &SimProgram,
    choices: &[usize],
    plan: &crate::fault::FaultPlan,
) -> (Trace, crate::sim::ChaosOutcome) {
    let mut scheduler = crate::sim::ScriptedScheduler::new(choices.to_vec());
    let (trace, outcome, _) =
        crate::sim::simulate_faulty_with_scheduler(program, &mut scheduler, plan);
    assert_eq!(
        scheduler.consumed(),
        choices.len(),
        "chaos replay did not consume the whole schedule"
    );
    (trace, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate_with_scheduler, ScriptedScheduler};

    fn put(k: i64, v: i64) -> SimOp {
        SimOp::DictPut {
            dict: 0,
            key: Value::Int(k),
            value: Value::Int(v),
        }
    }

    fn get(k: i64) -> SimOp {
        SimOp::DictGet {
            dict: 0,
            key: Value::Int(k),
        }
    }

    fn dict_program(threads: Vec<Vec<SimOp>>, num_locks: usize) -> SimProgram {
        SimProgram {
            num_dicts: 1,
            num_locks,
            threads,
        }
    }

    #[test]
    fn finds_the_fig3_race_without_a_seed() {
        let program = dict_program(vec![vec![put(1, 10)], vec![put(1, 20)]], 0);
        let report = explore(&program, &ExploreConfig::default());
        let race = report.race.expect("both orders race");
        assert_eq!(report.stats.schedules_explored, 2);
        assert_eq!(report.stats.racy_schedules, 2);
        assert!(race.races >= 1);
        assert!(report.violation.is_none());
    }

    #[test]
    fn dpor_prunes_commuting_interleavings() {
        // Threads on disjoint keys: all 6 interleavings are equivalent.
        let program = dict_program(vec![vec![put(1, 1)], vec![put(2, 2)], vec![put(3, 3)]], 0);
        let brute = explore(
            &program,
            &ExploreConfig {
                dpor: false,
                ..ExploreConfig::default()
            },
        );
        let dpor = explore(&program, &ExploreConfig::default());
        assert_eq!(brute.stats.schedules_explored, 6);
        assert!(
            dpor.stats.schedules_explored < 6,
            "dpor explored {}",
            dpor.stats.schedules_explored
        );
        assert_eq!(dpor.final_states, brute.final_states);
        assert!(dpor.race.is_none() && brute.race.is_none());
    }

    #[test]
    fn racefree_locked_program_is_deterministic_and_clean() {
        let rmw = || vec![SimOp::Lock(0), get(1), put(1, 9), SimOp::Unlock(0)];
        let program = dict_program(vec![rmw(), rmw()], 1);
        let report = explore(&program, &ExploreConfig::default());
        assert!(report.race.is_none());
        assert!(report.violation.is_none());
        assert_eq!(report.stats.distinct_final_states, 1);
        assert_eq!(report.stats.deadlocks, 0);
    }

    #[test]
    fn deadlocks_are_counted_not_fatal() {
        // Classic lock-order inversion: AB vs BA.
        let t1 = vec![
            SimOp::Lock(0),
            SimOp::Lock(1),
            SimOp::Unlock(1),
            SimOp::Unlock(0),
        ];
        let t2 = vec![
            SimOp::Lock(1),
            SimOp::Lock(0),
            SimOp::Unlock(0),
            SimOp::Unlock(1),
        ];
        let program = SimProgram {
            num_dicts: 0,
            num_locks: 2,
            threads: vec![t1, t2],
        };
        let report = explore(&program, &ExploreConfig::default());
        assert!(report.stats.deadlocks > 0);
        assert!(report.violation.is_none());
    }

    #[test]
    fn preemption_bound_zero_explores_only_non_preemptive_schedules() {
        let program = dict_program(vec![vec![put(1, 1), get(1)], vec![put(2, 2), get(2)]], 0);
        let report = explore(
            &program,
            &ExploreConfig {
                dpor: false,
                max_preemptions: Some(0),
                check_invariants: false,
                ..ExploreConfig::default()
            },
        );
        // Without preemptions only the two serial orders survive.
        assert_eq!(report.stats.schedules_explored, 2);
        assert!(report.stats.schedules_bounded > 0);
    }

    #[test]
    fn max_schedules_truncates() {
        let program = dict_program(
            vec![vec![put(1, 1), put(1, 2)], vec![put(1, 3), put(1, 4)]],
            0,
        );
        let report = explore(
            &program,
            &ExploreConfig {
                dpor: false,
                max_schedules: 2,
                ..ExploreConfig::default()
            },
        );
        assert!(report.stats.truncated);
        assert_eq!(report.stats.schedules_explored, 2);
    }

    #[test]
    fn shrink_reduces_to_the_racing_pair() {
        // Two racing puts buried under commuting noise.
        let program = dict_program(
            vec![
                vec![put(7, 1), get(2), put(1, 10)],
                vec![put(1, 20), get(3)],
                vec![put(5, 5), get(5)],
            ],
            0,
        );
        let shrunk = shrink(&program, &ExploreConfig::default()).expect("program races");
        assert_eq!(shrunk.program.num_ops(), 2, "{:?}", shrunk.program);
        assert_eq!(shrunk.program.threads.len(), 2);
        assert!(shrunk.iterations > 0);
        // The witness replays to the recorded trace, bit for bit.
        let (replayed, _) = simulate_with_scheduler(
            &shrunk.program,
            &mut ScriptedScheduler::new(shrunk.witness.schedule.clone()),
        );
        assert_eq!(replayed, shrunk.witness.trace);
        assert!(shrunk.witness.races >= 1);
    }

    #[test]
    fn shrink_returns_none_on_race_free_programs() {
        let program = dict_program(vec![vec![put(1, 1)], vec![put(2, 2)]], 0);
        assert!(shrink(&program, &ExploreConfig::default()).is_none());
    }

    #[test]
    fn stats_feed_into_a_registry() {
        use crace_obs::MetricValue;
        let program = dict_program(vec![vec![put(1, 1)], vec![put(1, 2)]], 0);
        let report = explore(&program, &ExploreConfig::default());
        let registry = Registry::new();
        report.stats.feed(&registry);
        let snap = registry.snapshot();
        assert_eq!(
            snap.get("explore.schedules.explored"),
            Some(&MetricValue::Counter(2))
        );
        assert_eq!(
            snap.get("explore.schedules.racy"),
            Some(&MetricValue::Counter(2))
        );
    }
}
