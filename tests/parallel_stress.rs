//! Concurrency stress tests for the sharded parallel pipeline.
//!
//! [`ParallelRd2`]'s ingress is driven here by real application threads
//! through the instrumented runtime while its detector workers run on
//! their own threads — producers and consumers genuinely overlap. The
//! assertions are all *invariant under scheduling*:
//!
//! 1. workloads whose race count is the same in every linearization
//!    (disjoint keys → zero; k pairwise-concurrent same-key writes →
//!    2k−3; lock-protected writers → zero),
//! 2. skip-in-place: a chaos poison injected into one detector worker
//!    mid-stream panics before it writes anything, so the worker skips
//!    it and carries on — no races are invented, no shard is poisoned,
//!    and the pipeline keeps answering reports without ever entering the
//!    degraded quarantine,
//! 3. replay determinism: the merged report — including the order of its
//!    retained sample records — is identical over 50 replays of one
//!    recorded trace at every worker count.

use std::sync::Arc;

use crace::core::FrontEnd;
use crace::model::replay;
use crace::{
    Action, Analysis, Event, Isolated, MonitoredDict, ObjId, ParallelRd2, Runtime, ThreadId, Trace,
    Value,
};

const THREADS: u32 = 8;
const OPS_PER_THREAD: i64 = 200;
const WORKERS: usize = 4;

/// Silences panic backtraces for the duration of a fail-open test (the
/// injected worker panic is caught inside the pipeline, but the default
/// hook would still print).
fn quiet() -> impl Drop {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            let _ = std::panic::take_hook();
        }
    }
    std::panic::set_hook(Box::new(|_| {}));
    Restore
}

/// Disjoint keys: every thread owns its own key, so all cross-thread
/// pairs commute and *no* linearization contains a race — regardless of
/// how producer batches interleave with worker processing.
#[test]
fn concurrent_disjoint_writers_never_race() {
    let pipeline = Arc::new(ParallelRd2::new(WORKERS));
    let rt = Runtime::new(pipeline.clone());
    let main = rt.main_ctx();
    let dict = MonitoredDict::new(&rt);
    for t in 0..THREADS {
        dict.put(&main, Value::Int(i64::from(t)), Value::Int(-1));
    }

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let dict = dict.clone();
        handles.push(rt.spawn(&main, move |ctx| {
            for i in 0..OPS_PER_THREAD {
                dict.put(ctx, Value::Int(i64::from(t)), Value::Int(i));
                dict.get(ctx, Value::Int(i64::from(t)));
            }
        }));
    }
    for h in handles {
        h.join(&main).unwrap();
    }

    let report = pipeline.report();
    assert!(report.is_empty(), "disjoint keys cannot race: {report:?}");
    assert!(!pipeline.degraded());
}

/// k pairwise-concurrent writers of the *same* key race exactly `2k−3`
/// times in every schedule (see `rd2_stress.rs` for the derivation), and
/// the sharded pipeline must agree in all ten rounds even though each
/// round's producer interleaving differs.
#[test]
fn same_key_writers_race_exactly_2k_minus_3_times_through_the_pipeline() {
    for round in 0..10u64 {
        let pipeline = Arc::new(ParallelRd2::new(WORKERS));
        let rt = Runtime::new(pipeline.clone());
        let main = rt.main_ctx();
        let dict = MonitoredDict::new(&rt);

        let mut handles = Vec::new();
        for t in 0..THREADS {
            let dict = dict.clone();
            handles.push(rt.spawn(&main, move |ctx| {
                dict.put(ctx, Value::Int(7), Value::Int(i64::from(t)));
            }));
        }
        for h in handles {
            h.join(&main).unwrap();
        }

        let report = pipeline.report();
        assert_eq!(
            report.total(),
            2 * u64::from(THREADS) - 3,
            "round {round}: {report:?}"
        );
        assert_eq!(report.distinct(), 1, "round {round}: one race class");
    }
}

/// Mutex-protected same-key writers: the tracked lock orders all critical
/// sections, and the ingress broadcasts every acquire/release in global
/// order, so no shard may ever report a race.
#[test]
fn lock_protected_writers_never_race_through_the_pipeline() {
    let pipeline = Arc::new(ParallelRd2::new(WORKERS));
    let rt = Runtime::new(pipeline.clone());
    let main = rt.main_ctx();
    let dict = MonitoredDict::new(&rt);
    let mutex = Arc::new(rt.new_mutex());

    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let dict = dict.clone();
        let mutex = Arc::clone(&mutex);
        handles.push(rt.spawn(&main, move |ctx| {
            for _ in 0..50 {
                let _g = mutex.lock(ctx);
                let v = dict.get(ctx, Value::Int(1)).as_int().unwrap_or(0);
                dict.put(ctx, Value::Int(1), Value::Int(v + 1));
            }
        }));
    }
    for h in handles {
        h.join(&main).unwrap();
    }
    assert_eq!(
        dict.get_untracked(&Value::Int(1)),
        Value::Int(i64::from(THREADS) * 50)
    );
    let report = pipeline.report();
    assert!(report.is_empty(), "{report:?}");
}

/// Skip-in-place under load: detector workers are poisoned mid-stream
/// while real producer threads keep hammering both a racy shared key and
/// safe private keys. Each poisoned worker skips only the poison, which
/// wrote nothing, and keeps detecting: nothing real is shed, no race may be
/// *invented*, everything reported must be the one genuine shared-key
/// class, and the pipeline (wrapped in [`Isolated`], as the chaos plane
/// runs it) never enters the degraded quarantine.
#[test]
fn injected_worker_panic_under_load_heals_without_degrading() {
    let _quiet = quiet();
    let shield = Arc::new(Isolated::new(ParallelRd2::new(WORKERS)));
    let rt = Runtime::new(shield.clone());
    let main = rt.main_ctx();
    let dict = MonitoredDict::new(&rt);

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let dict = dict.clone();
        handles.push(rt.spawn(&main, move |ctx| {
            for i in 0..OPS_PER_THREAD {
                if i % 4 == 0 {
                    dict.put(ctx, Value::Int(0), Value::Int(i)); // racy shared key
                } else {
                    dict.put(ctx, Value::Int(100 + i64::from(t)), Value::Int(i));
                }
            }
        }));
    }
    // Poison the worker owning the dictionary's shard while the producers
    // above are still running.
    shield.inner().inject_worker_panic(0);
    shield.inner().inject_worker_panic(1);
    for h in handles {
        h.join(&main).unwrap();
    }

    let report = shield.report();
    // The worker skips only the poison messages themselves, so no real race
    // may be lost *or* fabricated: exactly the genuine shared-key class.
    assert_eq!(
        report.distinct(),
        1,
        "exactly the shared-key class: {report:?}"
    );
    let stats = shield.inner().stats();
    assert!(
        !shield.inner().degraded() && stats.workers.iter().all(|w| !w.degraded),
        "healed workers must not quarantine the pipeline: {stats:?}"
    );
    assert_eq!(
        stats.workers.iter().map(|w| w.panics).sum::<u64>(),
        2,
        "both injected panics must be accounted: {stats:?}"
    );
    assert_eq!(
        stats.workers.iter().map(|w| w.respawns).sum::<u64>(),
        2,
        "each poison must be skipped exactly once: {stats:?}"
    );
    assert!(
        !shield.quarantined(),
        "worker panics must not trip the outer shield"
    );
    // The pipeline still answers (fail-open), repeatedly.
    assert_eq!(shield.report(), report);
}

/// Builds a deliberately messy recorded trace: forks, joins, locks, racy
/// and private keys over several objects.
fn messy_trace() -> (Trace, Vec<ObjId>) {
    use crace::LockId;
    let spec = crace::spec::builtin::dictionary();
    let put = spec.method_id("put").unwrap();
    let get = spec.method_id("get").unwrap();
    let objects: Vec<ObjId> = (1..=6).map(ObjId).collect();
    let mut trace = Trace::new();
    for t in 1..=6u32 {
        trace.push(Event::Fork {
            parent: ThreadId(0),
            child: ThreadId(t),
        });
    }
    for i in 0..600i64 {
        let tid = ThreadId(1 + (i as u32 * 7 + i as u32 / 5) % 6);
        let obj = objects[(i as usize * 5 + 3) % objects.len()];
        match i % 5 {
            0 => trace.push(Event::Action {
                tid,
                action: Action::new(obj, put, vec![Value::Int(0), Value::Int(i)], Value::Nil),
            }),
            1 => trace.push(Event::Action {
                tid,
                action: Action::new(obj, get, vec![Value::Int(0)], Value::Int(i)),
            }),
            2 => {
                trace.push(Event::Acquire {
                    tid,
                    lock: LockId(0),
                });
                trace.push(Event::Action {
                    tid,
                    action: Action::new(obj, put, vec![Value::Int(1), Value::Int(i)], Value::Nil),
                });
                trace.push(Event::Release {
                    tid,
                    lock: LockId(0),
                });
            }
            _ => trace.push(Event::Action {
                tid,
                action: Action::new(
                    obj,
                    put,
                    vec![Value::Int(1000 + i64::from(tid.0)), Value::Int(i)],
                    Value::Nil,
                ),
            }),
        }
    }
    (trace, objects)
}

/// Replay determinism: the merged report — a value including the retained
/// sample records and their order — must be identical over 50 replays of
/// the same trace, at one worker and at several, even though worker
/// scheduling differs every run.
#[test]
fn merged_report_is_identical_over_fifty_replays() {
    let (trace, objects) = messy_trace();
    let compiled = Arc::new(crace::translate(&crace::spec::builtin::dictionary()).unwrap());
    for workers in [1usize, WORKERS] {
        let reference = {
            let pipeline = ParallelRd2::new(workers);
            for &obj in &objects {
                pipeline.register(obj, Arc::clone(&compiled));
            }
            replay(&trace, &pipeline)
        };
        assert!(reference.total() > 0, "workload must race");
        for run in 0..49 {
            let pipeline = ParallelRd2::new(workers);
            for &obj in &objects {
                pipeline.register(obj, Arc::clone(&compiled));
            }
            let report = replay(&trace, &pipeline);
            assert_eq!(
                report, reference,
                "run {run}, {workers} worker(s): merge order is not deterministic"
            );
        }
    }
}
