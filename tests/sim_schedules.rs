//! Schedule-space property tests on the deterministic simulator: random
//! scripted programs, many seeded interleavings per program.
//!
//! Checked per schedule:
//!
//! 1. **Theorem 5.1** — Algorithm 1 reports a race iff the quadratic
//!    oracle finds a racing pair (on *consistent* executions with real
//!    return values, complementing the random-trace tests whose returns
//!    are arbitrary);
//! 2. **Theorem 5.2** — if no sampled schedule of a program races, all
//!    sampled schedules end in the same dictionary state (determinism),
//!    and conversely nondeterministic final states imply some schedule
//!    raced.

mod common;

use common::{random_program, Programs};
use crace::core::oracle::find_races;
use crace::runtime::sim::{sim_dict_obj, simulate_with_state, SimOp, SimProgram};
use crace::{translate, TraceDetector, Value};
use crace_model::replay;
use crace_spec::builtin;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

/// Scheduled programs: up to four threads over one lock. About a third
/// are disjoint, so the race-free regime is sampled too.
const PROGRAMS: Programs = Programs {
    threads: 2..=4,
    ops: 1..=6,
    locks: 1..=1,
    disjoint: 0.35,
};

fn detect(trace: &crace::Trace) -> u64 {
    let detector = TraceDetector::new();
    detector.register(
        sim_dict_obj(0),
        Arc::new(translate(&builtin::dictionary()).unwrap()),
    );
    replay(trace, &detector).total()
}

#[test]
fn algorithm1_matches_oracle_on_simulated_schedules() {
    let spec = builtin::dictionary();
    for program_seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(program_seed);
        let program = random_program(&PROGRAMS, &mut rng);
        for schedule_seed in 0..8u64 {
            let (trace, _) = simulate_with_state(&program, schedule_seed);
            let registry: HashMap<_, _> = [(sim_dict_obj(0), spec.clone())].into();
            let oracle = find_races(&trace, &registry);
            assert_eq!(
                detect(&trace) > 0,
                !oracle.is_empty(),
                "program {program_seed}, schedule {schedule_seed}\n{trace}"
            );
        }
    }
}

#[test]
fn race_free_programs_are_schedule_deterministic() {
    let mut deterministic_checked = 0;
    let mut racy_checked = 0;
    for program_seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(1_000 + program_seed);
        let program = random_program(&PROGRAMS, &mut rng);
        let runs: Vec<_> = (0..10u64)
            .map(|s| simulate_with_state(&program, s))
            .collect();
        let any_race = runs.iter().any(|(trace, _)| detect(trace) > 0);
        let states: Vec<_> = runs.iter().map(|(_, state)| state.clone()).collect();
        let all_equal = states.iter().all(|s| *s == states[0]);
        if !any_race {
            // Theorem 5.2: race freedom ⇒ determinism.
            assert!(
                all_equal,
                "program {program_seed}: race-free but nondeterministic"
            );
            deterministic_checked += 1;
        } else if !all_equal {
            // Contrapositive sanity: nondeterminism ⇒ some schedule raced.
            racy_checked += 1;
        }
    }
    // The generator must actually produce both regimes for the test to
    // mean anything.
    assert!(deterministic_checked > 0, "no race-free programs sampled");
    assert!(racy_checked > 0, "no nondeterministic programs sampled");
}

#[test]
fn lock_protected_rmw_programs_never_race() {
    // Programs whose every shared access is the lock-protected RMW shape.
    let rmw = |key: i64, value: i64| {
        vec![
            SimOp::Lock(0),
            SimOp::DictGet {
                dict: 0,
                key: Value::Int(key),
            },
            SimOp::DictPut {
                dict: 0,
                key: Value::Int(key),
                value: Value::Int(value),
            },
            SimOp::Unlock(0),
        ]
    };
    let program = SimProgram {
        num_dicts: 1,
        num_locks: 1,
        threads: vec![
            [rmw(1, 1), rmw(2, 2)].concat(),
            [rmw(1, 3), rmw(2, 4)].concat(),
            [rmw(2, 5), rmw(1, 6)].concat(),
        ],
    };
    for seed in 0..60u64 {
        let (trace, _) = simulate_with_state(&program, seed);
        assert_eq!(detect(&trace), 0, "seed {seed}\n{trace}");
    }
}
