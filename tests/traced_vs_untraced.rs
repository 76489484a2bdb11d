//! Differential guarantees for the tracing plane.
//!
//! Span tracing is observability, not semantics: wiring a [`Tracer`]
//! into any detector must not change a single bit of its `RaceReport`,
//! at any worker count. This file replays random
//! well-formed programs through the serial detector and the parallel
//! pipeline with tracing enabled, and asserts the reports are identical
//! to the untraced reference of `common::assert_all_paths_agree` — then
//! checks the timeline itself: every pipeline phase shows up as at least
//! one span, the Chrome export parses under the repo's RFC 8259
//! validator, the collapsed stacks are non-empty, and per-worker occupancy
//! derived from span payloads agrees with the pipeline's own `parallel.*`
//! counters.

mod common;

use std::sync::Arc;

use common::{assert_all_paths_agree, monitored, random_trace, Shape, Universe, WIDTHS};
use crace::core::{ParallelConfig, ParallelRd2};
use crace::model::replay;
use crace::obs::EventKind;
use crace::spec::builtin;
use crace::{Analysis, TraceDetector, Tracer};

const OBJECTS: u64 = 4;

/// The serial detector: the report with a tracer attached (at several
/// sampling periods, including every-action) is bit-for-bit the untraced
/// reference.
#[test]
fn serial_reports_are_identical_traced_and_untraced() {
    let spec = builtin::dictionary();
    for seed in 0..30u64 {
        let trace = random_trace(
            &spec,
            Shape::Structured,
            Universe::Small,
            seed,
            120,
            OBJECTS,
        );
        let reference = assert_all_paths_agree(&spec, &trace, OBJECTS);
        for sample in [1u64, 64] {
            let tracer = Tracer::new();
            let detector = monitored(TraceDetector::with_tracer(&tracer, sample), &spec, OBJECTS);
            assert_eq!(
                replay(&trace, &detector),
                reference,
                "seed {seed}, sample {sample}: TraceDetector report changed under tracing"
            );
        }
    }
}

/// The pipeline: at widths 1/2/4/8, the traced report equals the
/// untraced reference bit for bit.
#[test]
fn parallel_reports_are_identical_traced_and_untraced_at_every_width() {
    let spec = builtin::dictionary();
    for seed in 100..130u64 {
        let trace = random_trace(
            &spec,
            Shape::Structured,
            Universe::Small,
            seed,
            150,
            OBJECTS,
        );
        let reference = assert_all_paths_agree(&spec, &trace, OBJECTS);
        for workers in WIDTHS {
            let cfg = ParallelConfig {
                batch: 16,
                tracer: Some(Arc::new(Tracer::new())),
                ..ParallelConfig::default()
            };
            let detector = monitored(ParallelRd2::with_config(workers, cfg), &spec, OBJECTS);
            assert_eq!(
                replay(&trace, &detector),
                reference,
                "seed {seed}, {workers} worker(s): tracing changed the report"
            );
        }
    }
}

/// Returns the total span `aux` payload per phase name, across lanes.
fn aux_by_phase(tracer: &Tracer) -> std::collections::BTreeMap<String, (u64, u64)> {
    let mut by_phase = std::collections::BTreeMap::new();
    for lane in tracer.lanes() {
        for event in lane.events() {
            if let Some(name) = tracer.phase_name(event.phase) {
                let slot = by_phase.entry(name).or_insert((0u64, 0u64));
                slot.0 += 1;
                slot.1 += event.aux;
            }
        }
    }
    by_phase
}

/// A traced pipeline run covers every phase — ingress, worker batches,
/// sync broadcasts and the report merge all record at least
/// one span — and both exports are well-formed.
#[test]
fn parallel_timeline_covers_every_phase_and_exports_validate() {
    let spec = builtin::dictionary();
    let trace = random_trace(
        &spec,
        Shape::Structured,
        Universe::Small,
        4242,
        400,
        OBJECTS,
    );
    let tracer = Arc::new(Tracer::new());
    let cfg = ParallelConfig {
        batch: 8,
        tracer: Some(Arc::clone(&tracer)),
        ..ParallelConfig::default()
    };
    replay(
        &trace,
        &monitored(ParallelRd2::with_config(4, cfg), &spec, OBJECTS),
    );

    let by_phase = aux_by_phase(&tracer);
    for phase in [
        "parallel.ingress",
        "parallel.worker",
        "parallel.sync",
        "parallel.merge",
    ] {
        let (spans, _) = by_phase.get(phase).copied().unwrap_or((0, 0));
        assert!(
            spans > 0,
            "phase {phase} recorded no span; got {by_phase:?}"
        );
    }

    let chrome = tracer.to_chrome_json();
    crace::obs::json::validate(&chrome).expect("chrome export is RFC 8259 valid");
    assert!(chrome.contains("\"traceEvents\""));
    let folded = tracer.to_folded();
    assert!(!folded.is_empty(), "collapsed stacks are empty");
    assert!(
        folded.lines().all(|l| l.rsplit_once(' ').is_some()),
        "every folded line ends in a self-time sample"
    );
}

/// Span payloads are the pipeline's own counters: each worker's batch
/// spans accumulate exactly the messages that worker processed, so the
/// span-derived per-worker occupancy share must agree with
/// [`ParallelStats`](crace::ParallelStats) — the acceptance bound is 5%,
/// the construction makes it exact.
#[test]
fn span_derived_worker_occupancy_agrees_with_pipeline_stats() {
    let spec = builtin::dictionary();
    let trace = random_trace(&spec, Shape::Structured, Universe::Small, 777, 600, OBJECTS);
    let tracer = Arc::new(Tracer::new());
    let cfg = ParallelConfig {
        batch: 8,
        tracer: Some(Arc::clone(&tracer)),
        ..ParallelConfig::default()
    };
    let detector = monitored(ParallelRd2::with_config(4, cfg), &spec, OBJECTS);
    replay(&trace, &detector);
    let stats = detector.stats();

    let total_events: u64 = stats.workers.iter().map(|w| w.events).sum();
    assert!(total_events > 0, "pipeline processed nothing");
    for (w, worker) in stats.workers.iter().enumerate() {
        let lane = tracer.lane(&format!("worker{w}"));
        let span_events: u64 = lane
            .events()
            .iter()
            .filter(|e| {
                matches!(e.kind, EventKind::Span)
                    && tracer.phase_name(e.phase).as_deref() == Some("parallel.worker")
            })
            .map(|e| e.aux)
            .sum();
        assert!(lane.dropped() == 0, "worker{w} lane overflowed the test");
        let span_share = span_events as f64 / total_events as f64;
        let stats_share = worker.events as f64 / total_events as f64;
        assert!(
            (span_share - stats_share).abs() <= 0.05,
            "worker{w}: span share {span_share:.4} vs stats share {stats_share:.4}"
        );
    }
}

/// Tracing composes with the zero-copy offline path: `ingest_shared`
/// under a tracer still produces the untraced report and a phase-complete
/// timeline.
#[test]
fn shared_ingestion_is_unchanged_by_tracing() {
    let spec = builtin::dictionary();
    let trace = Arc::new(random_trace(
        &spec,
        Shape::Structured,
        Universe::Small,
        999,
        300,
        OBJECTS,
    ));
    let untraced = assert_all_paths_agree(&spec, &trace, OBJECTS);
    let tracer = Arc::new(Tracer::new());
    let cfg = ParallelConfig {
        tracer: Some(Arc::clone(&tracer)),
        ..ParallelConfig::default()
    };
    let detector = monitored(ParallelRd2::with_config(4, cfg), &spec, OBJECTS);
    detector.ingest_shared(&trace);
    assert_eq!(detector.report(), untraced, "tracing changed the report");
    let by_phase = aux_by_phase(&tracer);
    for phase in ["parallel.ingress", "parallel.worker", "parallel.merge"] {
        assert!(
            by_phase.get(phase).is_some_and(|&(spans, _)| spans > 0),
            "phase {phase} missing from shared-ingestion timeline: {by_phase:?}"
        );
    }
}
