//! Differential test harness for the epoch-compressed access points.
//!
//! `ClockMode::Adaptive` (the default) stores each active access point's
//! `pt.vc` as a FastTrack-style epoch `c@t` while the point is touched by a
//! single thread, promoting to a full vector clock on contention.
//! `ClockMode::FullVector` is the reference: every `pt.vc` is always a
//! complete vector clock, exactly as Algorithm 1 is written in the paper.
//!
//! The representations must be observationally identical: for any trace,
//! both modes must produce *bit-for-bit equal* `RaceReport`s — same
//! total, same distinct race-class count, same per-class counts, same
//! sample records. This file runs random well-formed traces through
//! `common::assert_all_paths_agree`, which replays them in both modes, and
//! checks that the adaptive mode really takes its epoch path.

mod common;

use common::{assert_all_paths_agree, monitored, random_trace, Shape};
use crace::model::replay;
use crace::spec::builtin;
use crace::{Action, ClockMode, ClockStats, Event, ObjId, ThreadId, Trace, TraceDetector, Value};

const OBJECTS: u64 = 2;

/// The access-point clock statistics of a dictionary replay of `trace` in
/// the given mode.
fn clock_stats(trace: &Trace, mode: ClockMode) -> ClockStats {
    let detector = monitored(
        TraceDetector::with_mode(mode),
        &builtin::dictionary(),
        OBJECTS,
    );
    replay(trace, &detector);
    detector.clock_stats()
}

/// The tentpole guarantee: on random traces the epoch fast path produces a
/// report *identical* to the full-vector reference — the harness compares
/// the serial, live and pipeline detectors in both modes bit for bit, and
/// anchors them to the quadratic oracle (Theorem 5.1).
#[test]
fn adaptive_reports_equal_full_vector_reports_on_random_traces() {
    let spec = builtin::dictionary();
    let mut epoch_updates = 0u64;
    let mut promotions = 0u64;
    for seed in 0..80u64 {
        let trace = random_trace(&spec, Shape::Structured, seed, 120, OBJECTS);
        assert_all_paths_agree(&spec, &trace, OBJECTS);
        let stats = clock_stats(&trace, ClockMode::Adaptive);
        let full_stats = clock_stats(&trace, ClockMode::FullVector);
        epoch_updates += stats.epoch_updates;
        promotions += stats.promotions;
        // The reference mode must never take the epoch path.
        assert_eq!(full_stats.epoch_updates, 0, "seed {seed}");
        assert_eq!(full_stats.promotions, 0, "seed {seed}");
    }
    // The harness is only meaningful if it actually exercised both the
    // O(1) epoch path and the promotion path.
    assert!(epoch_updates > 0, "no trace ever hit the epoch fast path");
    assert!(promotions > 0, "no trace ever promoted an epoch");
}

/// A purely single-threaded trace never leaves the epoch representation:
/// every occupied-point update is an O(1) epoch overwrite.
#[test]
fn single_threaded_traces_stay_entirely_on_the_epoch_path() {
    let spec = builtin::dictionary();
    let put = spec.method_id("put").unwrap();
    let mut trace = Trace::new();
    for i in 0..200 {
        trace.push(Event::Action {
            tid: ThreadId(0),
            action: Action::new(
                ObjId(1),
                put,
                vec![Value::Int(i % 3), Value::Int(i)],
                Value::Nil,
            ),
        });
    }
    assert!(assert_all_paths_agree(&spec, &trace, OBJECTS).is_empty());
    let stats = clock_stats(&trace, ClockMode::Adaptive);
    assert!(stats.epoch_updates > 0);
    assert_eq!(stats.promotions, 0);
    assert_eq!(stats.vector_updates, 0);
    assert_eq!(stats.epoch_hit_rate(), 1.0);
}

/// Well-ordered multi-thread traces (every handoff through fork/join) also
/// stay on the epoch path: the next thread's clock always absorbs the
/// previous epoch, so ownership transfers without promotion.
#[test]
fn fork_join_pipelines_transfer_epoch_ownership_without_promotion() {
    let spec = builtin::dictionary();
    let put = spec.method_id("put").unwrap();
    let mut trace = Trace::new();
    let mut prev = ThreadId(0);
    for gen in 1..6u32 {
        trace.push(Event::Action {
            tid: prev,
            action: Action::new(
                ObjId(1),
                put,
                vec![Value::Int(0), Value::Int(i64::from(gen))],
                Value::Nil,
            ),
        });
        let child = ThreadId(gen);
        trace.push(Event::Fork {
            parent: prev,
            child,
        });
        trace.push(Event::Join {
            parent: child,
            child: prev,
        });
        prev = child;
    }
    let report = assert_all_paths_agree(&spec, &trace, OBJECTS);
    assert!(report.is_empty(), "{report:?}");
    let stats = clock_stats(&trace, ClockMode::Adaptive);
    assert_eq!(stats.promotions, 0);
    assert_eq!(stats.vector_updates, 0);
    assert!(stats.epoch_updates >= 4);
}
