//! Chaos-plane determinism and the delivered-prefix soundness contract,
//! tested across the committed fixtures and randomly generated programs.
//!
//! The contract (DESIGN.md, "Failure model & degradation contract"):
//!
//! 1. Same `(program, schedule, FaultPlan)` → bit-for-bit identical
//!    delivered trace, outcome and degradation counters, every time.
//! 2. The delivered trace's prefix up to the first fired fault equals
//!    the fault-free run's prefix — so any race report computed on that
//!    prefix is exactly what the fault-free run would have reported.
//! 3. The differential harness ([`run_chaos`]) finds no contract
//!    violations on any of these programs.

mod common;

use common::{random_program, Programs};
use crace::runtime::chaos::{run_chaos, ChaosConfig};
use crace::runtime::explore::replay_with_faults;
use crace::runtime::sim::{sim_dict_obj, simulate, simulate_with_faults, SimProgram};
use crace::{replay, FaultPlan, Isolated, TraceDetector};
use crace_spec::builtin;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fixture(name: &str) -> SimProgram {
    let path = format!(
        "{}/crates/cli/tests/data/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    crace::cli::parse_program(&source).expect("fixture parses")
}

/// Chaos programs: up to four threads, and critical sections over up to
/// two locks.
const PROGRAMS: Programs = Programs {
    threads: 2..=4,
    ops: 1..=6,
    locks: 0..=2,
    disjoint: 0.0,
};

/// Satellite requirement: the same `(program, schedule, FaultPlan)`
/// triple produces identical race reports and degradation counters
/// across 50 runs.
#[test]
fn fifty_runs_of_one_chaos_triple_are_identical() {
    let program = fixture("racy3.sim");
    let plan = FaultPlan::seeded(99, 24, 3);
    let (reference_trace, reference_outcome) = simulate_with_faults(&program, 99, &plan);
    let reference_report = {
        let d = armed(&program);
        replay(&reference_trace, &d).to_json()
    };
    for run in 0..50 {
        let (trace, outcome) = simulate_with_faults(&program, 99, &plan);
        assert_eq!(trace, reference_trace, "run {run}: trace diverged");
        assert_eq!(outcome, reference_outcome, "run {run}: outcome diverged");
        assert_eq!(
            outcome.degradation, reference_outcome.degradation,
            "run {run}: degradation counters diverged"
        );
        let d = armed(&program);
        assert_eq!(
            replay(&trace, &d).to_json(),
            reference_report,
            "run {run}: race report diverged"
        );
        // And the recorded schedule replays to the same run.
        let (replayed, routcome) = replay_with_faults(&program, &outcome.schedule, &plan);
        assert_eq!(replayed, reference_trace, "run {run}: replay diverged");
        assert_eq!(routcome, reference_outcome);
    }
}

fn armed(program: &SimProgram) -> Isolated<TraceDetector> {
    let d = TraceDetector::new();
    let spec = builtin::dictionary();
    for dict in 0..program.num_dicts {
        d.register_spec(sim_dict_obj(dict), &spec).unwrap();
    }
    Isolated::new(d)
}

/// Satellite requirement: prefix-differential over the fig3 and racy3
/// fixtures — the faulty run's delivered prefix replays to the same
/// report as the fault-free run truncated at the same point.
#[test]
fn prefix_differential_over_committed_fixtures() {
    for name in ["fig3.sim", "fig3_ordered.sim", "racy3.sim"] {
        let program = fixture(name);
        for seed in 0..25u64 {
            let plain = simulate(&program, seed);
            let plan = FaultPlan::seeded(seed ^ 0xC0FFEE, 24, 2);
            let (trace, outcome) = simulate_with_faults(&program, seed, &plan);
            let k = outcome
                .first_fault_index
                .map(|k| k as usize)
                .unwrap_or(trace.len())
                .min(trace.len())
                .min(plain.len());
            assert_eq!(
                &trace.events()[..k],
                &plain.events()[..k],
                "{name} seed {seed}: delivered prefix diverged"
            );
            let faulty = armed(&program);
            let clean = armed(&program);
            let mut faulty_prefix = crace::Trace::new();
            let mut clean_prefix = crace::Trace::new();
            for e in &trace.events()[..k] {
                faulty_prefix.push(e.clone());
            }
            for e in &plain.events()[..k] {
                clean_prefix.push(e.clone());
            }
            assert_eq!(
                replay(&faulty_prefix, &faulty).to_json(),
                replay(&clean_prefix, &clean).to_json(),
                "{name} seed {seed}: prefix reports diverged"
            );
            assert!(!faulty.quarantined(), "detector panicked on a prefix");
        }
    }
}

/// The differential harness itself finds no contract violations across
/// fixtures and random programs — and stays deterministic.
#[test]
fn chaos_campaigns_uphold_the_contract_on_random_programs() {
    let mut rng = StdRng::seed_from_u64(2024);
    let mut programs: Vec<SimProgram> = vec![fixture("fig3.sim"), fixture("fig3_ordered.sim")];
    for _ in 0..10 {
        programs.push(random_program(&PROGRAMS, &mut rng));
    }
    for (i, program) in programs.iter().enumerate() {
        let cfg = ChaosConfig {
            seed: 1000 + i as u64,
            trials: 10,
            faults: 2,
            workers: 0,
        };
        let report = run_chaos(program, &cfg);
        assert!(
            report.ok(),
            "program {i}: contract violations: {:?}",
            report.violations
        );
        assert_eq!(
            report,
            run_chaos(program, &cfg),
            "program {i}: nondeterministic"
        );
    }
}
