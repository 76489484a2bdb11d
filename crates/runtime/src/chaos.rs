//! The chaos driver: differential fault-injection trials over simulated
//! programs.
//!
//! Each trial runs the same `(program, seed)` twice — once fault-free,
//! once under a seeded [`FaultPlan`] — and checks the degradation
//! contract (DESIGN.md) *by construction*:
//!
//! 1. **Delivered-prefix integrity.** Every event delivered before the
//!    first fault fired must be bit-for-bit the event the fault-free run
//!    delivered at the same slot.
//! 2. **Prefix-report equality.** A detector fed the faulty run's
//!    delivered prefix must produce the same race report (same JSON, so
//!    same races, same provenance) as one fed the fault-free trace
//!    truncated at that point. Faults may *hide* races that happen after
//!    the first casualty; they must never invent or distort one.
//! 3. **Replayability.** Re-running the same `(program, seed, plan)`
//!    must reproduce the trace, the [`ChaosOutcome`](crate::sim::ChaosOutcome)
//!    and the degradation
//!    counters exactly, and replaying the recorded schedule through
//!    [`crate::explore::replay_with_faults`] must agree with both.
//!
//! The detector runs inside [`Isolated`], so a detector bug tripped by a
//! torn prefix quarantines the analysis instead of killing the driver —
//! that too is recorded as a violation (a healthy detector must not
//! panic on any delivered prefix).

use crate::fault::FaultPlan;
use crate::sim::{sim_dict_obj, simulate, simulate_with_faults, SimProgram};
use crace_core::{translate, FrontEnd, ParallelRd2, TraceDetector};
use crace_model::{replay, Analysis, Isolated, RaceReport, ThreadId, Trace};
use crace_obs::Registry;
use crace_spec::builtin;
use std::sync::Arc;

/// Bounds and seeds for [`run_chaos`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Base seed; trial `i` uses `seed + i` for both the schedule and the
    /// fault plan, so a whole campaign is reproducible from one number.
    pub seed: u64,
    /// Number of trials to run.
    pub trials: u64,
    /// Faults drawn per trial's plan.
    pub faults: usize,
    /// Detector workers: `0` runs the serial trace detector, `n > 0` the
    /// sharded parallel pipeline — the contract checks are detector-
    /// agnostic, so a campaign doubles as a differential test of the two.
    pub workers: usize,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 42,
            trials: 20,
            faults: 2,
            workers: 0,
        }
    }
}

/// Aggregated result of a chaos campaign.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Trials executed.
    pub trials: u64,
    /// Trials in which at least one fault fired.
    pub trials_faulted: u64,
    /// Total faults fired across all trials.
    pub faults_fired: u64,
    /// Threads killed by injected panics, across all trials.
    pub threads_killed: u64,
    /// Threads abandoned blocked on poisoned locks, across all trials.
    pub threads_abandoned: u64,
    /// Locks left poisoned at exit, across all trials.
    pub locks_poisoned: u64,
    /// Analysis dispatches shed (dropped), across all trials.
    pub events_shed: u64,
    /// Analysis dispatches delayed, across all trials.
    pub events_delayed: u64,
    /// Races the detector reported on the delivered traces (faults can
    /// only hide races, so this is a lower bound on the fault-free count).
    pub races: u64,
    /// Degradation-contract violations, each a human-readable description
    /// pinpointing the trial and the invariant that failed. Non-empty
    /// means a detector or runtime bug, not an application race.
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// True iff every trial upheld the degradation contract.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Mirrors the campaign counters into `registry` under `chaos.*`
    /// (idempotent, same convention as the other `feed` methods).
    pub fn feed(&self, registry: &Registry) {
        for (name, value) in [
            ("chaos.trials", self.trials),
            ("chaos.trials_faulted", self.trials_faulted),
            ("chaos.faults_fired", self.faults_fired),
            ("chaos.threads_killed", self.threads_killed),
            ("chaos.threads_abandoned", self.threads_abandoned),
            ("chaos.locks_poisoned", self.locks_poisoned),
            ("chaos.events_shed", self.events_shed),
            ("chaos.events_delayed", self.events_delayed),
            ("chaos.races", self.races),
            ("chaos.violations", self.violations.len() as u64),
        ] {
            registry.counter(name).advance_to(value);
        }
    }
}

/// A detector — serial [`TraceDetector`] or the sharded [`ParallelRd2`]
/// pipeline, by `workers` — with the program's dictionary specifications
/// registered, wrapped in [`Isolated`] so a panicking analysis degrades
/// instead of killing the campaign.
fn armed_detector(program: &SimProgram, workers: usize) -> Isolated<Box<dyn FrontEnd>> {
    let detector: Box<dyn FrontEnd> = if workers > 0 {
        Box::new(ParallelRd2::new(workers))
    } else {
        Box::new(TraceDetector::new())
    };
    let dict =
        Arc::new(translate(&builtin::dictionary()).expect("the dictionary specification is ECL"));
    for d in 0..program.num_dicts {
        detector.register(sim_dict_obj(d), Arc::clone(&dict));
    }
    Isolated::new(detector)
}

/// Replays `trace` through an armed detector, abandoning `panicked`
/// threads afterwards (the runtime does this when a join observes the
/// child's panic payload), and returns the report.
fn detect(
    program: &SimProgram,
    trace: &Trace,
    panicked: &[usize],
    workers: usize,
) -> (RaceReport, bool) {
    let isolated = armed_detector(program, workers);
    let report = replay(trace, &isolated);
    for &t in panicked {
        isolated.abandon_thread(ThreadId(t as u32 + 1));
    }
    (report, isolated.quarantined())
}

fn prefix_of(trace: &Trace, k: usize) -> Trace {
    let mut prefix = Trace::new();
    for event in trace.events().iter().take(k) {
        prefix.push(event.clone());
    }
    prefix
}

/// Runs a chaos campaign over `program` and checks the degradation
/// contract on every trial. Never panics on contract violations — they
/// are collected in [`ChaosReport::violations`] so callers (the `crace
/// chaos` subcommand) can report them and exit nonzero.
///
/// # Panics
///
/// Panics only on script errors in `program` itself (bad indices,
/// fault-free deadlock) — the same conditions as
/// [`simulate`].
pub fn run_chaos(program: &SimProgram, cfg: &ChaosConfig) -> ChaosReport {
    run_chaos_traced(program, cfg, None)
}

/// [`run_chaos`] with an optional span tracer: each trial records one
/// `chaos.trial` span on the `chaos` lane (`aux` = faults fired in the
/// trial), so a timeline shows where a campaign spends its time. `None`
/// is exactly `run_chaos`.
pub fn run_chaos_traced(
    program: &SimProgram,
    cfg: &ChaosConfig,
    tracer: Option<&crace_obs::Tracer>,
) -> ChaosReport {
    let trace_handles = tracer.map(|t| (t.lane("chaos"), t.phase("chaos.trial")));
    let mut report = ChaosReport::default();
    let horizon = (program.num_ops() + 2 * program.threads.len()) as u64;
    for i in 0..cfg.trials {
        let mut span = trace_handles
            .as_ref()
            .map(|(lane, phase)| lane.span(*phase));
        let seed = cfg.seed.wrapping_add(i);
        let plan = FaultPlan::seeded(seed, horizon, cfg.faults);
        let clean_trace = simulate(program, seed);
        let (trace, outcome) = simulate_with_faults(program, seed, &plan);

        report.trials += 1;
        if !outcome.clean() {
            report.trials_faulted += 1;
        }
        if let Some(span) = span.as_mut() {
            span.set_aux(outcome.faults_fired);
        }
        report.faults_fired += outcome.faults_fired;
        report.threads_killed += outcome.panicked.len() as u64;
        report.threads_abandoned += outcome.abandoned.len() as u64;
        report.locks_poisoned += outcome.poisoned_locks.len() as u64;
        report.events_shed += outcome.events_shed;
        report.events_delayed += outcome.events_delayed;

        let mut violation = |msg: String| {
            report.violations.push(format!(
                "trial {i} (seed {seed}, plan `{}`): {msg}",
                plan.render()
            ));
        };

        // 1. Delivered-prefix integrity.
        let k = outcome
            .first_fault_index
            .map(|k| k as usize)
            .unwrap_or(trace.len());
        if k > trace.len() || k > clean_trace.len() {
            violation(format!(
                "first fault index {k} exceeds a trace (delivered {}, fault-free {})",
                trace.len(),
                clean_trace.len()
            ));
        } else if trace.events()[..k] != clean_trace.events()[..k] {
            violation(format!(
                "delivered prefix of {k} events differs from the fault-free run"
            ));
        }

        // 2. Prefix-report equality (and no detector panics on either side).
        let k = k.min(trace.len()).min(clean_trace.len());
        let (faulty_report, faulty_quarantined) = detect(
            program,
            &prefix_of(&trace, k),
            &outcome.panicked,
            cfg.workers,
        );
        let (clean_report, clean_quarantined) =
            detect(program, &prefix_of(&clean_trace, k), &[], cfg.workers);
        if faulty_quarantined || clean_quarantined {
            violation("detector panicked on a delivered prefix".to_string());
        } else if faulty_report.to_json() != clean_report.to_json() {
            violation(format!(
                "prefix reports diverge: faulty {} races vs fault-free {}",
                faulty_report.total(),
                clean_report.total()
            ));
        }

        // Races on the full delivered trace (what an operator would see).
        let (delivered_report, delivered_quarantined) =
            detect(program, &trace, &outcome.panicked, cfg.workers);
        if delivered_quarantined {
            violation("detector panicked on the full delivered trace".to_string());
        }
        report.races += delivered_report.total();

        // 3. Replayability: same inputs → same run; recorded schedule
        // replays to the same run.
        let rerun = simulate_with_faults(program, seed, &plan);
        if rerun != (trace.clone(), outcome.clone()) {
            violation("re-running the same (seed, plan) diverged".to_string());
        }
        let replayed = crate::explore::replay_with_faults(program, &outcome.schedule, &plan);
        if replayed != (trace, outcome) {
            violation("replaying the recorded schedule diverged".to_string());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimOp;
    use crace_model::Value;

    fn racy_program() -> SimProgram {
        let put = |v| SimOp::DictPut {
            dict: 0,
            key: Value::Int(1),
            value: Value::Int(v),
        };
        SimProgram {
            num_dicts: 1,
            num_locks: 1,
            threads: vec![
                vec![SimOp::Lock(0), put(10), SimOp::Unlock(0)],
                vec![
                    put(20),
                    SimOp::DictGet {
                        dict: 0,
                        key: Value::Int(1),
                    },
                ],
            ],
        }
    }

    #[test]
    fn campaign_upholds_contract_and_fires_faults() {
        let cfg = ChaosConfig {
            seed: 7,
            trials: 40,
            faults: 2,
            workers: 0,
        };
        let report = run_chaos(&racy_program(), &cfg);
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.trials, 40);
        assert!(report.trials_faulted > 0, "no trial fired a fault");
        assert!(report.faults_fired >= report.trials_faulted);
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = ChaosConfig::default();
        let a = run_chaos(&racy_program(), &cfg);
        let b = run_chaos(&racy_program(), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn feed_exports_counters_idempotently() {
        let cfg = ChaosConfig {
            seed: 3,
            trials: 5,
            faults: 1,
            workers: 0,
        };
        let report = run_chaos(&racy_program(), &cfg);
        let registry = Registry::new();
        report.feed(&registry);
        report.feed(&registry);
        let snap = registry.snapshot();
        assert_eq!(
            snap.get("chaos.trials"),
            Some(&crace_obs::MetricValue::Counter(5))
        );
    }

    #[test]
    fn parallel_campaign_agrees_with_serial() {
        let serial = run_chaos(&racy_program(), &ChaosConfig::default());
        let parallel = run_chaos(
            &racy_program(),
            &ChaosConfig {
                workers: 4,
                ..ChaosConfig::default()
            },
        );
        assert!(parallel.ok(), "violations: {:?}", parallel.violations);
        assert_eq!(serial.races, parallel.races);
        assert_eq!(serial.violations, parallel.violations);
    }

    #[test]
    fn fault_free_plan_reports_the_same_races_as_simulate() {
        let cfg = ChaosConfig {
            seed: 11,
            trials: 1,
            faults: 0,
            workers: 0,
        };
        let report = run_chaos(&racy_program(), &cfg);
        assert!(report.ok());
        assert_eq!(report.trials_faulted, 0);
        assert!(report.races >= 1, "the unordered puts race");
    }
}
