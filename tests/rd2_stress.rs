//! Concurrency stress tests for the in-process detector on real threads.
//!
//! [`Rd2`] (the paper's name for [`TraceDetector`]) takes every event
//! under one lock, from whichever thread delivers it. These tests drive it
//! with real threads through the instrumented runtime and check it against
//! results that are *invariant under scheduling*:
//!
//! 1. workloads whose race count is the same in every linearization
//!    (disjoint keys → zero; k pairwise-concurrent same-key writes → k−1),
//! 2. an exact record/replay differential: a `Tee` analysis atomically
//!    feeds every event to both a [`Recorder`] and a live [`Rd2`], and the
//!    recorded trace replayed through a fresh detector must yield a
//!    bit-for-bit identical [`RaceReport`].

use std::sync::{Arc, Mutex};

use crace::model::replay;
use crace::runtime::ObjectRegistry;
use crace::{
    translate, Action, Analysis, LockId, MonitoredDict, ObjId, RaceReport, Rd2, Recorder, Runtime,
    Spec, ThreadId, TraceDetector, Value,
};

const THREADS: u32 = 8;
const OPS_PER_THREAD: i64 = 200;

/// Disjoint keys: every thread owns its own key, so all cross-thread pairs
/// commute and *no* linearization contains a race. The main thread
/// pre-populates every key (so no worker put resizes the dictionary and
/// touches the shared resize class); after that ordered handoff each key's
/// access points are only ever touched by one thread, so the adaptive
/// clocks must also stay entirely in the epoch representation.
#[test]
fn disjoint_key_writers_report_no_races_and_stay_on_epochs() {
    let rd2 = Arc::new(Rd2::new());
    let rt = Runtime::new(rd2.clone());
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

    let report = rd2.report();
    assert!(report.is_empty(), "disjoint keys cannot race: {report:?}");

    let stats = rd2.clock_stats();
    assert_eq!(stats.promotions, 0, "single-owner points must stay epochs");
    assert_eq!(stats.vector_updates, 0);
    assert!(stats.epoch_updates as i64 >= i64::from(THREADS) * (2 * OPS_PER_THREAD - 2));
}

/// k pairwise-concurrent writers of the *same* key: the dictionary emits
/// each action under the key's shard lock, so the analysis always sees the
/// resizing (nil-returning) put first. It installs the `put|remove` class;
/// the second put conflicts with that one class, and each of the remaining
/// k−2 puts conflicts with both it and the `put` class installed by the
/// second — a total of exactly `1 + 2(k−2) = 2k−3` races in *every*
/// schedule, with a single distinct race class.
#[test]
fn same_key_writers_race_exactly_2k_minus_3_times() {
    for round in 0..10u64 {
        let rd2 = Arc::new(Rd2::new());
        let rt = Runtime::new(rd2.clone());
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

        let report = rd2.report();
        assert_eq!(
            report.total(),
            2 * u64::from(THREADS) - 3,
            "round {round}: {report:?}"
        );
        assert_eq!(report.distinct(), 1, "round {round}: one race class");
    }
}

/// Mutex-protected same-key writers: the runtime's tracked lock orders all
/// critical sections, so no linearization contains a race even though every
/// thread hammers one key.
#[test]
fn lock_protected_writers_never_race() {
    let rd2 = Arc::new(Rd2::new());
    let rt = Runtime::new(rd2.clone());
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
    let report = rd2.report();
    assert!(report.is_empty(), "{report:?}");
}

/// An [`Analysis`] that atomically forwards every event to both a
/// [`Recorder`] and a live [`Rd2`]. The mutex serializes the pair, so the
/// recorded trace is exactly the event order the live detector saw — which
/// makes an *exact* (not merely existence-level) differential against a
/// serial replay possible even though race totals are schedule-dependent.
struct Tee {
    gate: Mutex<()>,
    recorder: Recorder,
    rd2: Rd2,
}

impl Tee {
    fn new() -> Tee {
        Tee {
            gate: Mutex::new(()),
            recorder: Recorder::new(),
            rd2: Rd2::new(),
        }
    }
}

impl Analysis for Tee {
    fn name(&self) -> &str {
        "tee(recorder, rd2)"
    }

    fn on_fork(&self, parent: ThreadId, child: ThreadId) {
        let _g = self.gate.lock().unwrap();
        self.recorder.on_fork(parent, child);
        self.rd2.on_fork(parent, child);
    }

    fn on_join(&self, parent: ThreadId, child: ThreadId) {
        let _g = self.gate.lock().unwrap();
        self.recorder.on_join(parent, child);
        self.rd2.on_join(parent, child);
    }

    fn on_acquire(&self, tid: ThreadId, lock: LockId) {
        let _g = self.gate.lock().unwrap();
        self.recorder.on_acquire(tid, lock);
        self.rd2.on_acquire(tid, lock);
    }

    fn on_release(&self, tid: ThreadId, lock: LockId) {
        let _g = self.gate.lock().unwrap();
        self.recorder.on_release(tid, lock);
        self.rd2.on_release(tid, lock);
    }

    fn on_action(&self, tid: ThreadId, action: &Action) {
        let _g = self.gate.lock().unwrap();
        self.recorder.on_action(tid, action);
        self.rd2.on_action(tid, action);
    }

    fn report(&self) -> RaceReport {
        self.rd2.report()
    }
}

impl ObjectRegistry for Tee {
    fn on_new_object(&self, obj: ObjId, spec: &Spec) {
        let _g = self.gate.lock().unwrap();
        self.recorder.on_new_object(obj, spec);
        self.rd2.on_new_object(obj, spec);
    }
}

/// The exact differential: run a deliberately messy workload (two dicts,
/// shared and private keys, a partially-protecting lock) under the `Tee`,
/// then replay the recording through the serial detector and require the
/// two reports to be equal as values — same total, same race-class set,
/// same per-class counts, same retained sample records in the same order.
#[test]
fn live_rd2_report_equals_serial_replay_of_the_recorded_trace() {
    for round in 0..5u64 {
        let tee = Arc::new(Tee::new());
        let rt = Runtime::new(tee.clone());
        let main = rt.main_ctx();
        let d1 = MonitoredDict::new(&rt);
        let d2 = MonitoredDict::new(&rt);
        let mutex = Arc::new(rt.new_mutex());

        let mut handles = Vec::new();
        for t in 0..THREADS {
            let d1 = d1.clone();
            let d2 = d2.clone();
            let mutex = Arc::clone(&mutex);
            handles.push(rt.spawn(&main, move |ctx| {
                for i in 0..40i64 {
                    match (i64::from(t) + i) % 4 {
                        0 => {
                            // Unprotected shared-key put: races.
                            d1.put(ctx, Value::Int(0), Value::Int(i));
                        }
                        1 => {
                            // Private key: never races.
                            d1.put(ctx, Value::Int(100 + i64::from(t)), Value::Int(i));
                        }
                        2 => {
                            // Lock-protected shared key on the other dict.
                            let _g = mutex.lock(ctx);
                            d2.put(ctx, Value::Int(1), Value::Int(i));
                        }
                        _ => {
                            // Unprotected read of the shared key.
                            d1.get(ctx, Value::Int(0));
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join(&main).unwrap();
        }

        let live = tee.rd2.report();
        let trace = tee.recorder.snapshot();

        let detector = TraceDetector::new();
        let compiled = Arc::new(translate(MonitoredDict::spec()).unwrap());
        detector.register(d1.obj(), compiled.clone());
        detector.register(d2.obj(), compiled);
        let replayed = replay(&trace, &detector);

        assert_eq!(
            live, replayed,
            "round {round}: live Rd2 and serial replay diverge"
        );
        assert!(live.total() > 0, "round {round}: workload must race");
    }
}
