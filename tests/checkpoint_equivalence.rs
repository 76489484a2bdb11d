//! Differential gate for durable detector state (checkpoint/restore).
//!
//! The RD2 detectors are deterministic folds over the event stream, so
//! durability has a crisp correctness statement:
//!
//! ```text
//! restore(checkpoint(fold(prefix))) ⨟ fold(suffix)  ≡  fold(prefix ⨟ suffix)
//! ```
//!
//! This file proves that equivalence bit-for-bit (`RaceReport` derives
//! `Eq`) on randomly generated programs, split at random boundaries, for
//! every checkpointable detector: the in-process [`TraceDetector`] (also
//! named `Rd2`) and the sharded [`ParallelRd2`] at worker counts 1/2/4/8.
//! The two share one checkpoint kind, so every front-end must also
//! restore every other's checkpoint, at any width, including on streams
//! whose threads first appear unforked. The `rd2` bytes are pinned by a
//! committed fixture that every front-end must write. It also checks the
//! fail-closed half of the contract — a version-bumped, re-kinded,
//! truncated or byte-flipped checkpoint, or one whose reserved fields are
//! not their constants, must be rejected with an error, never silently
//! restored into a detector that reports wrong races — and the
//! panic-shield half: a worker skips a chaos poison mid-stream in place,
//! so the final report equals serial and the checkpoint equals an
//! un-poisoned pipeline's, byte for byte. Finally, a detector that
//! checkpoints over and over copies unchanged `pt` records from its last
//! checkpoint, so each of those warm blobs must equal a cold render of
//! the same state.

mod common;

use std::sync::Arc;

use common::{
    assert_all_paths_agree, assert_resumes, front_ends, monitored, random_trace, Shape, Universe,
    WIDTHS,
};
use crace::core::{
    builtin_resolver, Checkpoint, ClockMode, FrontEnd, ParallelConfig, ParallelRd2, TraceDetector,
};
use crace::model::replay;
use crace::spec::builtin;
use crace::vclock::ckpt::{frame, unframe};
use crace::vclock::CkptError;
use crace::{translate, Action, Analysis, Event, ObjId, ThreadId, Trace, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OBJECTS: u64 = 4;

/// `restore(checkpoint(fold(prefix))) ≡ fold(prefix)` for the serial
/// detector restoring its own checkpoint, on random programs split at
/// random boundaries. The harness adds a cross-front-end restore.
#[test]
fn restore_equals_fold_prefix_for_serial_detectors_on_random_traces() {
    let spec = builtin::dictionary();
    for seed in 0..40u64 {
        let trace = random_trace(
            &spec,
            Shape::Structured,
            Universe::Small,
            seed,
            140,
            OBJECTS,
        );
        let expected = assert_all_paths_agree(&spec, &trace, OBJECTS);
        let split = StdRng::seed_from_u64(seed ^ 0xC4E9).gen_range(0..=trace.len());
        let serial = || monitored(TraceDetector::new(), &spec, OBJECTS);
        let label = format!("serial seed {seed} split {split}");
        assert_resumes(&label, &serial(), &serial(), &trace, split, &expected);
    }
}

/// The same equivalence for the sharded pipeline at every worker count:
/// the checkpoint barrier snapshots ingress and all workers against one
/// consistent stream prefix, and a fresh pipeline restored from it and
/// fed the suffix merges to the exact serial report.
#[test]
fn restore_equals_fold_prefix_for_the_parallel_pipeline_at_every_width() {
    let spec = builtin::dictionary();
    for seed in 100..125u64 {
        let trace = random_trace(
            &spec,
            Shape::Structured,
            Universe::Small,
            seed,
            120,
            OBJECTS,
        );
        let expected = assert_all_paths_agree(&spec, &trace, OBJECTS);
        let split = StdRng::seed_from_u64(seed ^ 0x9E37).gen_range(0..=trace.len());
        let batch = [1usize, 3, 512][seed as usize % 3];
        for workers in WIDTHS {
            let cfg = ParallelConfig {
                batch,
                ..ParallelConfig::default()
            };
            let pipeline = || {
                monitored(
                    ParallelRd2::with_config(workers, cfg.clone()),
                    &spec,
                    OBJECTS,
                )
            };
            assert_resumes(
                &format!("parallel w{workers} seed {seed} split {split} batch {batch}"),
                &pipeline(),
                &pipeline(),
                &trace,
                split,
                &expected,
            );
        }
    }
}

/// Panic-shield differential: poison messages injected at several points
/// mid-stream are skipped in place, and the final report is still
/// bit-for-bit equal to serial. The pipeline never enters the degraded
/// quarantine, `respawns` counts every poison, and the checkpoint equals
/// that of an un-poisoned pipeline fed the same trace (poisons are not
/// ingress events), which catches lost state that no race shows.
#[test]
fn healed_pipelines_match_serial_bit_for_bit_on_random_traces() {
    let spec = builtin::dictionary();
    for seed in 700..720u64 {
        let trace = random_trace(
            &spec,
            Shape::Structured,
            Universe::Small,
            seed,
            140,
            OBJECTS,
        );
        let serial = assert_all_paths_agree(&spec, &trace, OBJECTS);
        for workers in [1usize, 4] {
            let cfg = ParallelConfig {
                batch: 4,
                ..ParallelConfig::default()
            };
            let pipeline = || {
                monitored(
                    ParallelRd2::with_config(workers, cfg.clone()),
                    &spec,
                    OBJECTS,
                )
            };
            let detector = pipeline();
            let events = trace.events();
            let injections = [events.len() / 3, 2 * events.len() / 3];
            for (i, event) in events.iter().enumerate() {
                if injections.contains(&i) {
                    detector.inject_worker_panic(seed as usize + i);
                }
                detector.on_event(event);
            }
            let report = detector.report();
            assert_eq!(
                report, serial,
                "seed {seed}, {workers} worker(s): healed run diverges from serial"
            );
            assert!(
                !detector.degraded(),
                "seed {seed}, {workers} worker(s): pipeline degraded on a poison"
            );
            let stats = detector.stats();
            let respawns: u64 = stats.workers.iter().map(|w| w.respawns).sum();
            assert_eq!(
                respawns,
                injections.len() as u64,
                "seed {seed}, {workers} worker(s): every poison is skipped exactly once"
            );
            let clean = pipeline();
            for event in events {
                clean.on_event(event);
            }
            assert_eq!(
                detector.checkpoint(),
                clean.checkpoint(),
                "seed {seed}, {workers} worker(s): a skipped poison changed the state"
            );
        }
    }
}

/// Fail-closed format evolution: a future format version, a checkpoint
/// of another kind, and a checkpoint whose spec names this
/// process cannot resolve are all rejected with an error — never
/// half-restored.
#[test]
fn version_bumps_kind_mismatches_and_unknown_specs_fail_closed() {
    let spec = builtin::dictionary();
    let rd2 = || monitored(TraceDetector::new(), &spec, OBJECTS);
    let trace = random_trace(&spec, Shape::Structured, Universe::Small, 7, 120, OBJECTS);
    let detector = rd2();
    for event in trace.events() {
        detector.on_event(event);
    }
    let blob = detector.checkpoint();
    let resolve = builtin_resolver();
    assert!(
        blob.starts_with("#%crace-ckpt v1 "),
        "checkpoint header changed; update the format-evolution tests"
    );

    // A version bump from a future writer must be refused.
    let bumped = blob.replacen("#%crace-ckpt v1 ", "#%crace-ckpt v2 ", 1);
    let err = rd2().restore(&bumped, &resolve).unwrap_err();
    assert!(
        err.to_string().contains("v"),
        "version error should mention the version: {err}"
    );

    // A blob of another kind — here the retired `fasttrack` kind — is
    // refused, naming the kind.
    let other = blob.replacen(" rd2\n", " fasttrack\n", 1);
    let err = rd2().restore(&other, &resolve).unwrap_err();
    assert!(err.reason.contains("fasttrack"), "{err}");

    // A resolver that cannot supply the referenced spec fails the
    // restore closed instead of silently dropping the object.
    let none: &crace::core::SpecResolver<'_> = &|_: &str| None;
    assert!(rd2().restore(&blob, none).is_err());

    // An empty blob is damage, not an empty detector.
    assert!(rd2().restore("", &resolve).is_err());
}

/// Truncation property: cutting the checkpoint anywhere that loses
/// information is detected (the record count trailer or a CRC frame no
/// longer checks out). A cut may only restore cleanly when it removed
/// nothing but trailing whitespace.
#[test]
fn truncated_checkpoints_fail_closed() {
    let spec = builtin::dictionary();
    let rd2 = || monitored(TraceDetector::new(), &spec, OBJECTS);
    let trace = random_trace(&spec, Shape::Structured, Universe::Small, 11, 100, OBJECTS);
    let detector = rd2();
    for event in trace.events() {
        detector.on_event(event);
    }
    let blob = detector.checkpoint();
    let resolve = builtin_resolver();
    for cut in (0..blob.len()).step_by(17).chain([blob.len() - 1]) {
        let truncated = &blob[..cut];
        if rd2().restore(truncated, &resolve).is_ok() {
            assert!(
                blob[cut..].trim().is_empty(),
                "cut at {cut} lost content but restored cleanly"
            );
        }
    }
}

/// Corruption property, in the style of `tracefmt_roundtrip`: flipping
/// any single byte of a checkpoint either leaves a blob that is
/// rejected outright, or — if it somehow still restores — the restored
/// detector must finish with the exact uninterrupted report. A damaged
/// checkpoint never produces a *wrong* report.
#[test]
fn byte_flipped_checkpoints_never_restore_to_a_wrong_report() {
    let spec = builtin::dictionary();
    let rd2 = || monitored(TraceDetector::new(), &spec, OBJECTS);
    let trace = random_trace(&spec, Shape::Structured, Universe::Small, 13, 100, OBJECTS);
    let split = trace.len() / 2;
    let uninterrupted = replay(&trace, &rd2());
    let (prefix, suffix) = trace.events().split_at(split);
    let detector = rd2();
    for event in prefix {
        detector.on_event(event);
    }
    let blob = detector.checkpoint();
    let resolve = builtin_resolver();
    let mut rejected = 0usize;
    let mut tried = 0usize;
    for pos in (0..blob.len()).step_by(5) {
        let mut bytes = blob.clone().into_bytes();
        bytes[pos] = if bytes[pos] == b'~' { b'!' } else { b'~' };
        let Ok(flipped) = String::from_utf8(bytes) else {
            continue;
        };
        tried += 1;
        let fresh = rd2();
        match fresh.restore(&flipped, &resolve) {
            Err(_) => rejected += 1,
            Ok(()) => {
                for event in suffix {
                    fresh.on_event(event);
                }
                assert_eq!(
                    fresh.report(),
                    uninterrupted,
                    "flip at {pos} restored but changed the report"
                );
            }
        }
    }
    // The CRC framing should catch essentially every flip; if most get
    // through, the format lost its integrity checking.
    assert!(
        rejected * 10 >= tried * 9,
        "only {rejected}/{tried} byte flips were rejected"
    );
}

/// Cross-width durability: a checkpoint taken by any RD2 front-end at any
/// width restores into every other one, and the resumed run's report is
/// bit-for-bit the uninterrupted serial report — on structured streams
/// and on streams with unforked threads alike.
#[test]
fn checkpoints_restore_across_every_front_end_and_width() {
    let spec = builtin::dictionary();
    let resolve = builtin_resolver();
    let fronts = front_ends(&spec, OBJECTS, 3);
    let shapes = [Shape::Structured, Shape::Unforked];
    for (seed, shape) in (200..208u64).flat_map(|seed| shapes.map(|shape| (seed, shape))) {
        let trace = random_trace(&spec, shape, Universe::Small, seed, 120, OBJECTS);
        let expected = assert_all_paths_agree(&spec, &trace, OBJECTS);
        let split = StdRng::seed_from_u64(seed ^ 0x77AA).gen_range(0..=trace.len());
        let (prefix, suffix) = trace.events().split_at(split);
        for (from, make_from) in &fronts {
            let source = make_from();
            for event in prefix {
                source.on_event(event);
            }
            let blob = source.checkpoint();
            for (to, make_to) in &fronts {
                let label = format!("{shape:?} seed {seed} split {split}: {from} -> {to}");
                let restored = make_to();
                restored
                    .restore(&blob, &resolve)
                    .unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));
                if from == to {
                    assert_eq!(restored.checkpoint(), blob, "{label}: lossy restore");
                }
                for event in suffix {
                    restored.on_event(event);
                }
                let report = restored.report();
                assert_eq!(report, expected, "{label}");
                assert_eq!(report.to_json(), expected.to_json(), "{label}");
            }
        }
    }
}

/// One logical state, one blob: the serial detector and the pipeline at
/// every width — fed event by event or through
/// `ingest_shared` — write byte-identical `rd2` checkpoints. Each stream
/// has a thread that acts without any synchronization event ever naming
/// it, whose fresh clock only exists if the pipeline's ingress
/// initializes it the way the serial detector does. Each stream is also
/// fed a second time with a forked thread abandoned mid-stream, so the
/// shed filter runs on both ingress paths and the blob's shed count and
/// abandoned set must agree too.
#[test]
fn serial_and_pipeline_write_identical_checkpoints_at_every_width() {
    let spec = builtin::dictionary();
    let orphan = ThreadId(99);
    let put = spec.method_id("put").unwrap();
    for seed in 300..308u64 {
        let mut events = random_trace(
            &spec,
            Shape::Structured,
            Universe::Small,
            seed,
            120,
            OBJECTS,
        )
        .events()
        .to_vec();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        for key in 0..2 {
            let action = Action::new(
                ObjId(1 + seed % OBJECTS),
                put,
                vec![Value::Int(key), Value::Int(1)],
                Value::Nil,
            );
            let at = rng.gen_range(0..=events.len());
            events.insert(
                at,
                Event::Action {
                    tid: orphan,
                    action,
                },
            );
        }
        // The abandoned thread: the child forked before the cut that the
        // suffix names most often.
        let (prefix, suffix) = events.split_at(events.len() / 2);
        let names = |e: &Event, t: ThreadId| {
            e.tid() == t
                || matches!(e, Event::Fork { child, .. } | Event::Join { child, .. } if *child == t)
        };
        let victim = prefix
            .iter()
            .filter_map(|e| match e {
                Event::Fork { child, .. } => Some(*child),
                _ => None,
            })
            .max_by_key(|&t| suffix.iter().filter(|e| names(e, t)).count())
            .expect("a fork before the cut");
        assert!(suffix.iter().any(|e| names(e, victim)), "seed {seed}");
        let trace = |events: &[Event]| Arc::new(events.iter().cloned().collect::<Trace>());
        let inputs = [
            ("whole", [trace(&events), trace(&[])], None),
            ("abandoned", [trace(prefix), trace(suffix)], Some(victim)),
        ];
        for (input, parts, abandon) in inputs {
            let online = |detector: &dyn FrontEnd| {
                for (i, part) in parts.iter().enumerate() {
                    if let (1, Some(t)) = (i, abandon) {
                        detector.abandon_thread(t);
                    }
                    for event in part.events() {
                        detector.on_event(event);
                    }
                }
            };
            let serial = monitored(TraceDetector::new(), &spec, OBJECTS);
            online(&serial);
            assert_eq!(serial.events_shed() > 0, abandon.is_some(), "seed {seed}");
            let expected = serial.checkpoint();
            assert!(expected.contains(" thread 99 "), "seed {seed}: {expected}");
            for workers in WIDTHS {
                let cfg = ParallelConfig {
                    batch: [1usize, 5, 512][seed as usize % 3],
                    ..ParallelConfig::default()
                };
                let per_event = monitored(
                    ParallelRd2::with_config(workers, cfg.clone()),
                    &spec,
                    OBJECTS,
                );
                online(&per_event);
                let shared = monitored(ParallelRd2::with_config(workers, cfg), &spec, OBJECTS);
                shared.ingest_shared(&parts[0]);
                if let Some(t) = abandon {
                    shared.abandon_thread(t);
                }
                shared.ingest_shared(&parts[1]);
                for (path, pipeline) in [("online", per_event), ("shared", shared)] {
                    assert_eq!(
                        pipeline.checkpoint(),
                        expected,
                        "seed {seed}, {input}, {workers} worker(s), {path}"
                    );
                }
            }
        }
    }
}

/// The `rd2` bytes are pinned. Fig. 3's trace has two joins, so its
/// blob holds the reserved `joined 0` record and GC totals; the serial
/// detector and the pipeline at every width must write the committed
/// fixture byte for byte, and each restored from it reports Fig. 3's one
/// race.
#[test]
fn fig3_checkpoint_is_the_committed_fixture_on_every_front_end() {
    let spec = builtin::dictionary();
    let resolve = builtin_resolver();
    let source = std::fs::read_to_string("crates/cli/tests/data/fig3.trace").unwrap();
    let trace = crace::cli::parse_trace(&source, &spec).unwrap();
    let fixture = std::fs::read_to_string("crates/cli/tests/data/fig3.rd2.ckpt").unwrap();
    let expected = replay(&trace, &monitored(TraceDetector::new(), &spec, 1));
    assert_eq!(expected.total(), 1);
    for (name, make) in front_ends(&spec, 1, 2) {
        let detector = make();
        for event in trace.events() {
            detector.on_event(event);
        }
        assert_eq!(detector.checkpoint(), fixture, "{name}");
        let restored = make();
        restored
            .restore(&fixture, &resolve)
            .unwrap_or_else(|e| panic!("{name}: restore failed: {e}"));
        assert_eq!(restored.report(), expected, "{name}");
    }
}

/// The reserved fields hold state no detector keeps any more: a blob
/// whose GC totals are not zero, or whose `joined` set is not empty, is
/// refused by every front-end even when re-framed with a valid CRC, so a
/// resume falls back to a capture replay.
#[test]
fn non_zero_reserved_fields_fail_closed() {
    let spec = builtin::dictionary();
    let resolve = builtin_resolver();
    let fixture = std::fs::read_to_string("crates/cli/tests/data/fig3.rd2.ckpt").unwrap();
    // The fixture with the record whose payload is `old` re-framed as `new`.
    let reframe = |old: &str, new: &str| {
        let mut out = String::new();
        for line in fixture.lines() {
            if unframe(line) == Ok(old) {
                frame(&mut out, new);
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
        assert_ne!(out, fixture, "no `{old}` record");
        out
    };
    let meta = "meta adaptive - 0 7 4 0 0 0,0,0";
    for (field, blob) in [
        ("retired", reframe(meta, "meta adaptive - 0 7 4 3 0 0,0,0")),
        ("probes", reframe(meta, "meta adaptive - 0 7 4 0 5 0,0,0")),
        ("stats", reframe(meta, "meta adaptive - 0 7 4 0 0 1,0,0")),
        ("joined", reframe("joined 0", "joined 1 1")),
    ] {
        for (name, make) in front_ends(&spec, 1, 2) {
            let err: CkptError = make()
                .restore(&blob, &resolve)
                .expect_err(&format!("{name} restored a blob with a non-zero {field}"));
            assert!(err.reason.contains("reserved"), "{name}, {field}: {err}");
        }
    }
}

/// The retired per-detector kinds (`rd2-trace`, `rd2-parallel`) have no
/// compatibility reader: every front-end rejects them with a
/// `CkptError`, which the daemon turns into a full capture replay.
#[test]
fn retired_rd2_checkpoint_kinds_are_rejected() {
    let spec = builtin::dictionary();
    let resolve = builtin_resolver();
    let trace = random_trace(&spec, Shape::Structured, Universe::Small, 17, 100, OBJECTS);
    let detector = monitored(TraceDetector::new(), &spec, OBJECTS);
    for event in trace.events() {
        detector.on_event(event);
    }
    let blob = detector.checkpoint();
    assert!(blob.starts_with("#%crace-ckpt v1 rd2\n"), "{blob:.40}");
    for kind in ["rd2-trace", "rd2-parallel"] {
        let old = blob.replacen(" rd2\n", &format!(" {kind}\n"), 1);
        for (name, make) in front_ends(&spec, OBJECTS, 3) {
            let err: CkptError = make()
                .restore(&old, &resolve)
                .expect_err(&format!("{name} restored a `{kind}` checkpoint"));
            assert!(err.reason.contains(kind), "{name}: {err}");
        }
    }
}

/// One step of a warm-checkpoint stream: an event, or re-registering an
/// object, which clears its shadow state.
enum Step {
    Event(Event),
    Register(ObjId),
}

/// Warm equals cold. A detector that checkpoints repeatedly copies the
/// `pt` records whose clocks no action wrote since its last checkpoint,
/// and renders only the rest; none of that may show in the bytes. One
/// long-lived detector per front-end and configuration checkpoints after
/// every k steps (k random in 1..64) of a random structured stream in
/// which one object is re-registered mid-stream. Each blob must equal:
///
/// * the cold checkpoint of a fresh detector folded over the same prefix;
/// * the re-checkpoint of a fresh detector restored from it, and, after
///   the next steps, that restored detector's warm checkpoint must equal
///   the cold checkpoint of a second one restored and fed the same way,
///   and the long-lived detector's next blob.
///
/// The front-ends are the serial detector and the pipeline at widths 1, 2
/// and 4, each with and without a provenance window; the serial detector
/// also runs with full-vector clocks.
#[test]
fn warm_checkpoints_equal_cold_renders_on_every_front_end() {
    type Make = Box<dyn Fn() -> Box<dyn FrontEnd>>;
    let spec = builtin::dictionary();
    let compiled = Arc::new(translate(&spec).expect("builtin specs are ECL"));
    let resolve = builtin_resolver();
    let mut cases: Vec<(String, Make)> = Vec::new();
    for window in [None, Some(3)] {
        let prov = window.map_or(String::new(), |w| format!(" window {w}"));
        cases.push((
            format!("serial{prov}"),
            Box::new(move || match window {
                Some(w) => Box::new(TraceDetector::with_provenance(w)),
                None => Box::new(TraceDetector::new()),
            }),
        ));
        for workers in [1usize, 2, 4] {
            let cfg = ParallelConfig {
                batch: 3,
                provenance_window: window,
                ..ParallelConfig::default()
            };
            cases.push((
                format!("w{workers}{prov}"),
                Box::new(move || Box::new(ParallelRd2::with_config(workers, cfg.clone()))),
            ));
        }
    }
    cases.push((
        "serial full-vector".into(),
        Box::new(|| Box::new(TraceDetector::with_mode(ClockMode::FullVector))),
    ));
    let fresh = |make: &Make| {
        let detector = make();
        for obj in 1..=OBJECTS {
            detector.register(ObjId(obj), Arc::clone(&compiled));
        }
        detector
    };
    let apply = |detector: &dyn FrontEnd, steps: &[Step]| {
        for step in steps {
            match step {
                Step::Event(event) => detector.on_event(event),
                Step::Register(obj) => detector.register(*obj, Arc::clone(&compiled)),
            }
        }
    };
    for seed in 900..906u64 {
        let mut steps: Vec<Step> = random_trace(
            &spec,
            Shape::Structured,
            Universe::Small,
            seed,
            160,
            OBJECTS,
        )
        .events()
        .iter()
        .cloned()
        .map(Step::Event)
        .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCAC4E);
        let at = rng.gen_range(steps.len() / 4..steps.len() * 3 / 4);
        steps.insert(at, Step::Register(ObjId(1 + seed % OBJECTS)));
        let mut cuts = vec![0];
        while *cuts.last().unwrap() < steps.len() {
            let next = cuts.last().unwrap() + rng.gen_range(1..64usize);
            cuts.push(next.min(steps.len()));
        }
        for (name, make) in &cases {
            let live = fresh(make);
            let mut blobs = Vec::new();
            for pair in cuts.windows(2) {
                let (from, to) = (pair[0], pair[1]);
                let label = format!("{name}, seed {seed}, steps ..{to}");
                apply(&*live, &steps[from..to]);
                let blob = live.checkpoint();
                let cold = fresh(make);
                apply(&*cold, &steps[..to]);
                assert_eq!(blob, cold.checkpoint(), "{label}: warm != cold");
                blobs.push(blob);
            }
            for (i, blob) in blobs.iter().enumerate() {
                let label = format!("{name}, seed {seed}, checkpoint {i}");
                let restored = fresh(make);
                restored
                    .restore(blob, &resolve)
                    .unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));
                assert_eq!(&restored.checkpoint(), blob, "{label}: lossy restore");
                let Some(next) = blobs.get(i + 1) else {
                    continue;
                };
                let more = &steps[cuts[i + 1]..cuts[i + 2]];
                apply(&*restored, more);
                let warm = restored.checkpoint();
                let twin = fresh(make);
                twin.restore(blob, &resolve).expect("restored once already");
                apply(&*twin, more);
                assert_eq!(
                    warm,
                    twin.checkpoint(),
                    "{label}: warm != cold after restore"
                );
                assert_eq!(&warm, next, "{label}: resumed != uninterrupted");
            }
        }
    }
}
