//! The one generator of each kind of random test input: values
//! ([`Universe`]), actions, traces, simulator programs and ECL
//! specifications. A suite that needs another distribution adds a
//! parameter here instead of a second generator; CI fails on any
//! `fn random_*` or `fn gen_*` name defined twice under the test
//! directories.

use std::ops::RangeInclusive;

use crace::runtime::sim::{SimOp, SimProgram};
use crace::{Action, Event, LocId, LockId, MethodId, ObjId, Spec, ThreadId, Trace, Value};
use crace_spec::{CmpOp, Formula, Side, SpecBuilder, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Characters chosen to stress escaping and quote handling: quotes,
/// backslashes, separators, line breaks, a control character and
/// multi-byte UTF-8.
pub const NASTY: &[char] = &[
    'a', 'b', '"', '\\', ',', '\n', '\r', '\t', '#', '(', ')', '/', ' ', '\u{1}', 'é', '⚡',
];

/// The values a generator draws: every argument and return value of an
/// action, and every constant of a spec formula.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Universe {
    /// `nil`, the booleans and `0..3`. Few values make equal slots, and
    /// hence conflicts and races, common.
    Small,
    /// `nil` (a third of the time) and `0..3`: the constants on which
    /// `random_formulas` bounds a translated spec's conflict degree.
    Ints,
    /// Every kind of constant a spec's source can spell: `nil`, the
    /// booleans, `-2..3` and the strings `"a"`, `"b"` and `"c"`.
    Spelled,
    /// Every kind of value a trace file can hold, at its edges: integers
    /// up to a million either way, [`Value::Ref`] and strings of up to
    /// seven [`NASTY`] characters.
    Nasty,
}

impl Universe {
    /// One value of the universe.
    pub fn value(self, rng: &mut StdRng) -> Value {
        match self {
            Universe::Small => match rng.gen_range(0..4) {
                0 => Value::Nil,
                1 => Value::Bool(rng.gen_bool(0.5)),
                _ => Value::Int(rng.gen_range(0..3)),
            },
            Universe::Ints => match rng.gen_range(0..3) {
                0 => Value::Nil,
                _ => Value::Int(rng.gen_range(0..3)),
            },
            Universe::Spelled => match rng.gen_range(0..5) {
                0 => Value::Nil,
                1 => Value::Bool(rng.gen_bool(0.5)),
                2 => Value::str(["a", "b", "c"][rng.gen_range(0..3)]),
                _ => Value::Int(rng.gen_range(-2..3)),
            },
            Universe::Nasty => match rng.gen_range(0..5) {
                0 => Value::Nil,
                1 => Value::Bool(rng.gen_bool(0.5)),
                2 => Value::Int(rng.gen_range(-1_000_000..1_000_000)),
                3 => Value::Ref(rng.gen_range(0..u64::MAX / 2)),
                _ => {
                    let len = rng.gen_range(0..8);
                    let text: String = (0..len)
                        .map(|_| NASTY[rng.gen_range(0..NASTY.len())])
                        .collect();
                    Value::str(text)
                }
            },
        }
    }
}

/// A random action of `spec` on `obj`: any method, with every slot drawn
/// from `universe`.
pub fn random_action(spec: &Spec, obj: ObjId, universe: Universe, rng: &mut StdRng) -> Action {
    let method = MethodId(rng.gen_range(0..spec.num_methods()) as u32);
    let args = (0..spec.sig(method).num_args())
        .map(|_| universe.value(rng))
        .collect();
    Action::new(obj, method, args, universe.value(rng))
}

/// How threads enter a [`random_trace`] stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Every thread but the root enters through a fork.
    Structured,
    /// About half the new threads are never forked: each first appears
    /// through an action or a lock acquire, so its clock starts fresh and
    /// is concurrent with everything before it.
    Unforked,
}

/// A random trace of `shape` with `events` steps over objects
/// `1..=objects`, all monitored with `spec` and acted on with values of
/// `universe`: new threads (at most six live), joins that retire the
/// joined thread, lock acquire/release pairs, reads and writes of four
/// locations (which RD2 must ignore), and actions. No thread acts after
/// it is joined. A `Structured` trace of a seed is the same whatever
/// other shapes exist.
pub fn random_trace(
    spec: &Spec,
    shape: Shape,
    universe: Universe,
    seed: u64,
    events: usize,
    objects: u64,
) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace::new();
    let mut live = vec![0u32];
    let mut next = 1u32;
    for _ in 0..events {
        let tid = ThreadId(live[rng.gen_range(0..live.len())]);
        match rng.gen_range(0..16) {
            0 if live.len() < 6 => {
                let child = ThreadId(next);
                next += 1;
                // `Structured` draws nothing from `rng` here, so a seed's
                // structured trace stays fixed (suites pin seeds).
                if shape == Shape::Structured || rng.gen_bool(0.5) {
                    trace.push(Event::Fork { parent: tid, child });
                } else if rng.gen_bool(0.5) {
                    let obj = ObjId(1 + rng.gen_range(0..objects));
                    let action = random_action(spec, obj, universe, &mut rng);
                    trace.push(Event::Action { tid: child, action });
                } else {
                    let lock = LockId(rng.gen_range(0..2));
                    trace.push(Event::Acquire { tid: child, lock });
                    trace.push(Event::Release { tid: child, lock });
                }
                live.push(child.0);
            }
            1 if live.len() > 1 => {
                let victim = live[rng.gen_range(0..live.len())];
                if victim != tid.0 {
                    trace.push(Event::Join {
                        parent: tid,
                        child: ThreadId(victim),
                    });
                    live.retain(|&t| t != victim);
                }
            }
            2 | 3 => {
                let lock = LockId(rng.gen_range(0..2));
                trace.push(Event::Acquire { tid, lock });
                trace.push(Event::Release { tid, lock });
            }
            4 => trace.push(Event::Write {
                tid,
                loc: LocId(rng.gen_range(0..4)),
            }),
            5 => trace.push(Event::Read {
                tid,
                loc: LocId(rng.gen_range(0..4)),
            }),
            _ => {
                let obj = ObjId(1 + rng.gen_range(0..objects));
                let action = random_action(spec, obj, universe, &mut rng);
                trace.push(Event::Action { tid, action });
            }
        }
    }
    trace
}

/// What a [`random_program`] may contain: the only things the suites
/// vary.
#[derive(Clone, Debug)]
pub struct Programs {
    /// Threads per program.
    pub threads: RangeInclusive<usize>,
    /// Dictionary operations per thread; lock steps come on top.
    pub ops: RangeInclusive<usize>,
    /// Locks per program. With any, each thread guards one random run of
    /// its operations (possibly all of them) with a random lock half the
    /// time.
    pub locks: RangeInclusive<usize>,
    /// The chance that a program is disjoint: each thread writes only its
    /// own key and never asks the size, so every pair of operations
    /// commutes and no schedule races.
    pub disjoint: f64,
}

/// A random program over one dictionary. Shared keys come from `0..3`,
/// so conflicts are common but not universal, and each thread also owns
/// a private key (`100 + thread`). An operation is a put, a get, a size
/// query, a put of the private key, or a read-modify-write (a get and a
/// put of one key).
pub fn random_program(programs: &Programs, rng: &mut StdRng) -> SimProgram {
    let disjoint = rng.gen_bool(programs.disjoint);
    let num_locks = rng.gen_range(programs.locks.clone());
    let threads = (0..rng.gen_range(programs.threads.clone()))
        .map(|thread| {
            let private = Value::Int(100 + thread as i64);
            let len = rng.gen_range(programs.ops.clone());
            let mut ops = Vec::new();
            while ops.len() < len {
                let key = Value::Int(rng.gen_range(0..3));
                let written = if disjoint {
                    private.clone()
                } else {
                    key.clone()
                };
                let value = Value::Int(rng.gen_range(0..5));
                match rng.gen_range(0..8) {
                    0..=2 => ops.push(put(written, value)),
                    3 | 4 => ops.push(SimOp::DictGet { dict: 0, key }),
                    5 if !disjoint => ops.push(SimOp::DictSize { dict: 0 }),
                    6 if len - ops.len() >= 2 => {
                        ops.push(SimOp::DictGet {
                            dict: 0,
                            key: written.clone(),
                        });
                        ops.push(put(written, value));
                    }
                    _ => ops.push(put(private.clone(), value)),
                }
            }
            if num_locks > 0 && rng.gen_bool(0.5) {
                let lock = rng.gen_range(0..num_locks);
                let start = rng.gen_range(0..ops.len());
                let end = rng.gen_range(start..ops.len()) + 1;
                ops.insert(end, SimOp::Unlock(lock));
                ops.insert(start, SimOp::Lock(lock));
            }
            ops
        })
        .collect();
    SimProgram {
        num_dicts: 1,
        num_locks,
        threads,
    }
}

fn put(key: Value, value: Value) -> SimOp {
    SimOp::DictPut {
        dict: 0,
        key,
        value,
    }
}

/// Slots of every [`random_spec`] method: two arguments and the return
/// value.
pub const SLOTS: usize = 3;

/// A random two-method specification whose three rules are random ECL
/// formulas, `X ::= S | B | X ∧ X | X ∨ B`, with constants from
/// `universe`. Same-method rules are symmetrized as `ϕ ∧ swap(ϕ)`, which
/// stays in ECL. `None` if the builder rejects a rule.
pub fn random_spec(universe: Universe, rng: &mut StdRng) -> Option<Spec> {
    let mut b = SpecBuilder::new("random");
    let m0 = b.method("m0", SLOTS - 1);
    let m1 = b.method("m1", SLOTS - 1);
    for (x, y) in [(m0.id, m0.id), (m0.id, m1.id), (m1.id, m1.id)] {
        let phi = random_ecl(universe, rng, 3);
        let phi = if x == y {
            phi.clone().and(phi.swap_sides())
        } else {
            phi
        };
        b.rule(x, y, phi).ok()?;
    }
    b.finish().ok()
}

fn random_ecl(universe: Universe, rng: &mut StdRng, depth: usize) -> Formula {
    if depth == 0 {
        return if rng.gen_bool(0.5) {
            random_ls(rng, 1)
        } else {
            random_lb(universe, rng, 1)
        };
    }
    match rng.gen_range(0..4) {
        0 => random_ls(rng, depth),
        1 => random_lb(universe, rng, depth),
        2 => random_ecl(universe, rng, depth - 1).and(random_ecl(universe, rng, depth - 1)),
        _ => random_ecl(universe, rng, depth - 1).or(random_lb(universe, rng, depth - 1)),
    }
}

/// An `LS` formula: a conjunction of cross-inequalities.
fn random_ls(rng: &mut StdRng, depth: usize) -> Formula {
    if depth == 0 || rng.gen_bool(0.5) {
        return Formula::NeqCross {
            i: rng.gen_range(0..SLOTS),
            j: rng.gen_range(0..SLOTS),
        };
    }
    random_ls(rng, depth - 1).and(random_ls(rng, depth - 1))
}

/// An `LB` formula: atoms over a single side under `¬`, `∧`, `∨`, and
/// the constants `true` and `false`.
fn random_lb(universe: Universe, rng: &mut StdRng, depth: usize) -> Formula {
    if depth == 0 || rng.gen_bool(0.4) {
        let side = if rng.gen_bool(0.5) {
            Side::First
        } else {
            Side::Second
        };
        let op = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ][rng.gen_range(0..6)];
        let lhs = random_term(universe, rng);
        return Formula::atom(side, op, lhs, random_term(universe, rng));
    }
    match rng.gen_range(0..4) {
        0 => random_lb(universe, rng, depth - 1).not(),
        1 => random_lb(universe, rng, depth - 1).and(random_lb(universe, rng, depth - 1)),
        2 => random_lb(universe, rng, depth - 1).or(random_lb(universe, rng, depth - 1)),
        _ => {
            if rng.gen_bool(0.5) {
                Formula::True
            } else {
                Formula::False
            }
        }
    }
}

fn random_term(universe: Universe, rng: &mut StdRng) -> Term {
    if rng.gen_bool(0.6) {
        Term::Slot(rng.gen_range(0..SLOTS))
    } else {
        Term::Const(universe.value(rng))
    }
}
