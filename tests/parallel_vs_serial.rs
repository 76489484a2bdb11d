//! Differential equivalence test-bed for the sharded parallel pipeline.
//!
//! [`ParallelRd2`] splits detection across N workers: action events are
//! routed to the worker owning their object's shard, synchronization
//! events are broadcast in ingress order, and per-worker findings merge
//! by global sequence number. None of that may be observable: for any
//! trace and any worker count, the merged `RaceReport` must be
//! **bit-for-bit equal** to the serial reference's — same total, same race
//! classes, same per-class counts, same sample records in the same order.
//!
//! `common::assert_all_paths_agree` checks exactly that at worker counts
//! 1/2/4/8, online and through `ingest_shared`, with batch sizes down to a
//! single event per batch, and anchors the reference to the quadratic
//! oracle. This file drives it over random programs of both shapes
//! (every thread forked, and threads that first appear unforked) and the
//! paper's fixture traces, and adds what one replay cannot show:
//! sample-cap overflow, shared ingestion at every batch size, mixed
//! dispatch and interim report barriers.

mod common;

use std::sync::Arc;

use common::{assert_all_paths_agree, monitored, random_trace, Shape, WIDTHS};
use crace::core::{ParallelConfig, ParallelRd2};
use crace::spec::builtin;
use crace::{Analysis, Trace};

const OBJECTS: u64 = 4;

/// The tentpole guarantee: on 104 random programs, every path — the
/// pipeline at every worker count, online and shared, across batch sizes
/// (including one event per batch, so the ring and merge paths are
/// exercised hard) — equals the serial report bit for bit. The last seeds
/// are long enough that races on several objects overflow the report's
/// sample cap, so which samples the sequence-number merge keeps across
/// shards decides the equality.
#[test]
fn parallel_reports_equal_serial_at_every_width_on_random_traces() {
    let spec = builtin::dictionary();
    for seed in 0..104u64 {
        let long = seed >= 100;
        let trace = random_trace(
            &spec,
            Shape::Structured,
            seed,
            if long { 1_500 } else { 120 },
            OBJECTS,
        );
        let serial = assert_all_paths_agree(&spec, &trace, OBJECTS);
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
        let serial = assert_all_paths_agree(&spec, &trace, 1);
        assert_eq!(serial.total(), races, "{fixture}");
    }
}

/// Threads that first appear through an action or an acquire, with no
/// fork naming them, start at a fresh clock concurrent with everything
/// before them: every path must report their races exactly as serial
/// replay does, at every width.
#[test]
fn parallel_reports_equal_serial_on_unforked_threads() {
    let spec = builtin::dictionary();
    for seed in 300..340u64 {
        let trace = random_trace(&spec, Shape::Unforked, seed, 150, OBJECTS);
        assert_all_paths_agree(&spec, &trace, OBJECTS);
    }
}

/// The zero-copy offline path: `ingest_shared` broadcasts `Arc`'d trace
/// ranges instead of cloning events into messages, and every worker
/// filters its own shard out of the shared stream. The harness runs it at
/// one batch size per trace; this crosses every width with every batch
/// size, and each must equal serial per-event dispatch bit for bit.
#[test]
fn shared_ingestion_equals_serial_at_every_width_on_random_traces() {
    let spec = builtin::dictionary();
    for seed in 500..560u64 {
        let trace = Arc::new(random_trace(&spec, Shape::Structured, seed, 120, OBJECTS));
        let serial = assert_all_paths_agree(&spec, &trace, OBJECTS);
        for batch in [1usize, 7, 512] {
            for workers in WIDTHS {
                let cfg = ParallelConfig {
                    batch,
                    ..ParallelConfig::default()
                };
                let detector = monitored(ParallelRd2::with_config(workers, cfg), &spec, OBJECTS);
                detector.ingest_shared(&trace);
                assert_eq!(
                    detector.report(),
                    serial,
                    "seed {seed}, {workers} worker(s), batch {batch}: shared ingestion diverges"
                );
            }
        }
    }
}

/// Shared ingestion composes with online dispatch: a stream may mix
/// per-event prefixes, a shared recorded middle, and a per-event suffix
/// without perturbing the merge order.
#[test]
fn shared_ingestion_composes_with_online_dispatch() {
    let spec = builtin::dictionary();
    for seed in 600..620u64 {
        let full = random_trace(&spec, Shape::Structured, seed, 150, OBJECTS);
        let serial = assert_all_paths_agree(&spec, &full, OBJECTS);
        let events = full.events();
        let (head, rest) = events.split_at(events.len() / 3);
        let (mid, tail) = rest.split_at(rest.len() / 2);
        let mut middle = Trace::new();
        for event in mid {
            middle.push(event.clone());
        }
        let middle = Arc::new(middle);
        for workers in [1usize, 4] {
            let detector = monitored(ParallelRd2::new(workers), &spec, OBJECTS);
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

/// Interleaved report barriers: asking a pipeline for interim reports
/// mid-stream must not perturb the final report (collect is a read-only
/// barrier), and the final report still equals serial.
#[test]
fn interim_report_barriers_do_not_perturb_the_final_report() {
    let spec = builtin::dictionary();
    let trace = random_trace(&spec, Shape::Structured, 4242, 200, OBJECTS);
    let serial = assert_all_paths_agree(&spec, &trace, OBJECTS);
    for workers in WIDTHS {
        let cfg = ParallelConfig {
            batch: 8,
            ..ParallelConfig::default()
        };
        let detector = monitored(ParallelRd2::with_config(workers, cfg), &spec, OBJECTS);
        let mut interim_totals = Vec::new();
        for (i, event) in trace.iter().enumerate() {
            detector.on_event(event);
            if i % 50 == 49 {
                interim_totals.push(detector.report().total());
            }
        }
        let fin = detector.report();
        assert_eq!(fin, serial, "{workers} worker(s)");
        // Interim totals are monotone prefixes of the final count.
        assert!(interim_totals.windows(2).all(|w| w[0] <= w[1]));
        assert!(interim_totals.last().is_none_or(|&t| t <= fin.total()));
    }
}
