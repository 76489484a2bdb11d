//! Differential equivalence test-bed for the sharded parallel pipeline.
//!
//! [`ParallelRd2`] splits detection across N workers: action events are
//! routed to the worker owning their object's shard, synchronization
//! events are broadcast in ingress order, and per-worker findings merge
//! by global sequence number. None of that may be observable: for any
//! trace and any worker count, the merged [`RaceReport`] must be
//! **bit-for-bit equal** to the serial references' — same total, same race
//! classes, same per-class counts, same sample records in the same order
//! (`RaceReport` derives `Eq`, so one `assert_eq!` checks all of it). The
//! references are [`TraceDetector`] (one shard) and the live [`Rd2`] (64
//! object shards merged by the sequence numbers of their races), which
//! must agree with each other first.
//!
//! This file replays the paper's fixture traces and randomly generated
//! well-formed programs through both detectors at worker counts 1/2/4/8,
//! with batch sizes down to a single event per batch, with the epoch GC
//! on and off, and checks the pipeline against the quadratic oracle.

use std::sync::Arc;

use crace::core::{oracle, ParallelConfig, ParallelRd2};
use crace::model::replay;
use crace::spec::builtin;
use crace::{
    translate, Action, Analysis, Event, LockId, ObjId, RaceReport, Rd2, ThreadId, Trace,
    TraceDetector, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WIDTHS: [usize; 4] = [1, 2, 4, 8];
const NUM_OBJECTS: u64 = 4;

/// Generates a random well-formed dictionary program over four monitored
/// objects (so the object space actually spreads across workers): forks,
/// joins, lock acquire/release pairs, and put / get / size actions with
/// small keys so that conflicts are frequent.
fn random_trace(seed: u64, events: usize) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = builtin::dictionary();
    let put = spec.method_id("put").unwrap();
    let get = spec.method_id("get").unwrap();
    let size = spec.method_id("size").unwrap();
    let mut trace = Trace::new();
    let mut live: Vec<u32> = vec![0];
    let mut next_tid = 1u32;
    let value = |rng: &mut StdRng| -> Value {
        if rng.gen_bool(0.3) {
            Value::Nil
        } else {
            Value::Int(rng.gen_range(0..3))
        }
    };
    for _ in 0..events {
        let tid = ThreadId(live[rng.gen_range(0..live.len())]);
        let obj = ObjId(1 + rng.gen_range(0..NUM_OBJECTS));
        match rng.gen_range(0..10) {
            0 => {
                let child = ThreadId(next_tid);
                next_tid += 1;
                trace.push(Event::Fork { parent: tid, child });
                live.push(child.0);
            }
            1 if live.len() > 1 => {
                let other = live[rng.gen_range(0..live.len())];
                if other != tid.0 {
                    trace.push(Event::Join {
                        parent: tid,
                        child: ThreadId(other),
                    });
                    live.retain(|&t| t != other);
                }
            }
            2 => {
                let lock = LockId(rng.gen_range(0..2));
                trace.push(Event::Acquire { tid, lock });
                trace.push(Event::Release { tid, lock });
            }
            3..=6 => {
                let k = Value::Int(rng.gen_range(0..3));
                let action = Action::new(obj, put, vec![k, value(&mut rng)], value(&mut rng));
                trace.push(Event::Action { tid, action });
            }
            7 | 8 => {
                let k = Value::Int(rng.gen_range(0..3));
                let action = Action::new(obj, get, vec![k], value(&mut rng));
                trace.push(Event::Action { tid, action });
            }
            _ => {
                let action = Action::new(obj, size, vec![], Value::Int(rng.gen_range(0..4)));
                trace.push(Event::Action { tid, action });
            }
        }
    }
    trace
}

fn compiled_dict() -> Arc<crace::core::CompiledSpec> {
    Arc::new(translate(&builtin::dictionary()).unwrap())
}

/// Replays `trace` through both serial references, the single-shard
/// [`TraceDetector`] and the 64-shard live [`Rd2`], and returns their
/// report after asserting they agree.
fn run_serial(trace: &Trace) -> RaceReport {
    let (single, sharded) = (TraceDetector::new(), Rd2::new());
    let compiled = compiled_dict();
    for obj in 1..=NUM_OBJECTS {
        single.register(ObjId(obj), Arc::clone(&compiled));
        sharded.register(ObjId(obj), Arc::clone(&compiled));
    }
    let report = replay(trace, &single);
    assert_eq!(
        replay(trace, &sharded),
        report,
        "Rd2 and TraceDetector diverge"
    );
    report
}

/// Replays `trace` through the parallel pipeline at the given width and
/// batch size.
fn run_parallel(trace: &Trace, workers: usize, cfg: ParallelConfig) -> RaceReport {
    let detector = ParallelRd2::with_config(workers, cfg);
    let compiled = compiled_dict();
    for obj in 1..=NUM_OBJECTS {
        detector.register(ObjId(obj), Arc::clone(&compiled));
    }
    replay(trace, &detector)
}

/// The tentpole guarantee: on 100 random programs, at every worker count
/// and across batch sizes (including one event per batch, so the ring and
/// merge paths are exercised hard), the merged parallel report equals the
/// serial one bit for bit. The last seeds are long enough that races on
/// several objects overflow the report's sample cap, so which samples the
/// sequence-number merge keeps across shards decides the equality.
#[test]
fn parallel_reports_equal_serial_at_every_width_on_random_traces() {
    for seed in 0..104u64 {
        let long = seed >= 100;
        let trace = random_trace(seed, if long { 1_500 } else { 120 });
        let serial = run_serial(&trace);
        if long {
            let objects: std::collections::HashSet<_> =
                serial.samples().iter().map(|r| r.kind.clone()).collect();
            assert!(
                serial.samples().len() < serial.total() as usize && objects.len() >= 2,
                "seed {seed}: {} races over {} sampled objects do not overflow the cap",
                serial.total(),
                objects.len()
            );
        }
        // Cycle the batch size so single-message batches, small batches
        // and the one-big-batch default all get coverage.
        let batch = [1usize, 3, 512][seed as usize % 3];
        for workers in WIDTHS {
            let cfg = ParallelConfig {
                batch,
                ..ParallelConfig::default()
            };
            let parallel = run_parallel(&trace, workers, cfg);
            assert_eq!(
                parallel, serial,
                "seed {seed}, {workers} worker(s), batch {batch}: reports diverge"
            );
        }
    }
}

/// The paper's fixture traces, parsed from the same files the CLI uses.
#[test]
fn parallel_reports_equal_serial_on_the_fixture_traces() {
    let spec = builtin::dictionary();
    for (fixture, races) in [("fig3.trace", 1u64), ("fig3_ordered.trace", 0)] {
        let path = format!("crates/cli/tests/data/{fixture}");
        let source = std::fs::read_to_string(&path).unwrap();
        let trace = crace::cli::parse_trace(&source, &spec).unwrap();
        let serial = run_serial(&trace);
        assert_eq!(serial.total(), races, "{fixture}");
        for workers in WIDTHS {
            let parallel = run_parallel(&trace, workers, ParallelConfig::default());
            assert_eq!(parallel, serial, "{fixture}, {workers} worker(s)");
        }
    }
}

/// The epoch GC must be invisible in reports: with the watermark sweep
/// running aggressively (every 8 actions per worker), every random
/// program still produces the exact serial report — retired points
/// re-materialize without losing or inventing races.
#[test]
fn gc_on_and_off_produce_identical_reports_on_random_traces() {
    let mut retired_total = 0u64;
    for seed in 300..340u64 {
        let trace = random_trace(seed, 150);
        let serial = run_serial(&trace);
        for workers in [1usize, 4] {
            let cfg = ParallelConfig {
                batch: 16,
                gc_every: 8,
                ..ParallelConfig::default()
            };
            let detector = ParallelRd2::with_config(workers, cfg);
            let compiled = compiled_dict();
            for obj in 1..=NUM_OBJECTS {
                detector.register(ObjId(obj), Arc::clone(&compiled));
            }
            let gc_report = replay(&trace, &detector);
            assert_eq!(
                gc_report, serial,
                "seed {seed}, {workers} worker(s): GC changed the report"
            );
            retired_total += detector.gc_retired();
        }
    }
    // The differential is only meaningful if sweeps actually retired
    // state somewhere in the corpus.
    assert!(retired_total > 0, "no sweep ever retired an access point");
}

/// The zero-copy offline path: `ingest_shared` broadcasts `Arc`'d trace
/// ranges instead of cloning events into messages, and every worker
/// filters its own shard out of the shared stream. That, too, must be
/// invisible: on random programs, at every width and batch size, the
/// shared-ingestion report equals serial per-event dispatch bit for bit.
#[test]
fn shared_ingestion_equals_serial_at_every_width_on_random_traces() {
    for seed in 500..560u64 {
        let trace = Arc::new(random_trace(seed, 120));
        let serial = run_serial(&trace);
        let batch = [1usize, 7, 512][seed as usize % 3];
        for workers in WIDTHS {
            let detector = ParallelRd2::with_config(
                workers,
                ParallelConfig {
                    batch,
                    ..ParallelConfig::default()
                },
            );
            let compiled = compiled_dict();
            for obj in 1..=NUM_OBJECTS {
                detector.register(ObjId(obj), Arc::clone(&compiled));
            }
            detector.ingest_shared(&trace);
            assert_eq!(
                detector.report(),
                serial,
                "seed {seed}, {workers} worker(s), batch {batch}: shared ingestion diverges"
            );
        }
    }
}

/// Shared ingestion composes with online dispatch: a stream may mix
/// per-event prefixes, a shared recorded middle, and a per-event suffix
/// without perturbing the merge order.
#[test]
fn shared_ingestion_composes_with_online_dispatch() {
    for seed in 600..620u64 {
        let full = random_trace(seed, 150);
        let serial = run_serial(&full);
        let events = full.events();
        let (head, rest) = events.split_at(events.len() / 3);
        let (mid, tail) = rest.split_at(rest.len() / 2);
        let mut middle = Trace::new();
        for event in mid {
            middle.push(event.clone());
        }
        let middle = Arc::new(middle);
        for workers in [1usize, 4] {
            let detector = ParallelRd2::with_config(workers, ParallelConfig::default());
            let compiled = compiled_dict();
            for obj in 1..=NUM_OBJECTS {
                detector.register(ObjId(obj), Arc::clone(&compiled));
            }
            for event in head {
                detector.on_event(event);
            }
            detector.ingest_shared(&middle);
            for event in tail {
                detector.on_event(event);
            }
            assert_eq!(
                detector.report(),
                serial,
                "seed {seed}, {workers} worker(s): mixed dispatch diverges"
            );
        }
    }
}

/// The pipeline also agrees with the quadratic oracle (Theorem 5.1): it
/// reports a race iff some pair of actions races.
#[test]
fn parallel_detector_agrees_with_the_quadratic_oracle() {
    let spec = builtin::dictionary();
    for seed in 200..220u64 {
        let trace = random_trace(seed, 60);
        let registry: std::collections::HashMap<_, _> = (1..=NUM_OBJECTS)
            .map(|o| (ObjId(o), spec.clone()))
            .collect();
        let oracle_races = oracle::find_races(&trace, &registry);
        let parallel = run_parallel(&trace, 4, ParallelConfig::default());
        assert_eq!(
            parallel.is_empty(),
            oracle_races.is_empty(),
            "seed {seed}: pipeline and oracle disagree on race existence"
        );
    }
}

/// Interleaved report barriers: asking a pipeline for interim reports
/// mid-stream must not perturb the final report (collect is a read-only
/// barrier), and the final report still equals serial.
#[test]
fn interim_report_barriers_do_not_perturb_the_final_report() {
    let trace = random_trace(4242, 200);
    let serial = run_serial(&trace);
    let detector = ParallelRd2::with_config(
        4,
        ParallelConfig {
            batch: 8,
            ..ParallelConfig::default()
        },
    );
    let compiled = compiled_dict();
    for obj in 1..=NUM_OBJECTS {
        detector.register(ObjId(obj), Arc::clone(&compiled));
    }
    let mut interim_totals = Vec::new();
    for (i, event) in trace.iter().enumerate() {
        detector.on_event(event);
        if i % 50 == 49 {
            interim_totals.push(detector.report().total());
        }
    }
    let fin = detector.report();
    assert_eq!(fin, serial);
    // Interim totals are monotone prefixes of the final count.
    assert!(interim_totals.windows(2).all(|w| w[0] <= w[1]));
    assert!(interim_totals.last().is_none_or(|&t| t <= fin.total()));
}
