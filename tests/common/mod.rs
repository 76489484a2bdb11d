//! Shared test support: the one random-trace generator and the one
//! differential harness, [`assert_all_paths_agree`].
//!
//! Theorem 5.1 says Algorithm 1 reports a race iff the trace has one. The
//! harness checks that on every execution path the repo has: the serial
//! [`TraceDetector`] (the one in-process detector, also named `Rd2`) is
//! anchored to the quadratic oracle, and every other path — full-vector
//! clocks, the [`ParallelRd2`] pipeline at every width (online, zero-copy
//! shared, full-vector clocks), traced runs, checkpoint-and-resume across
//! front-ends and widths, and in-process daemon sessions — must produce a
//! bit-for-bit equal [`RaceReport`]. The generator makes two [`Shape`]s
//! of stream; `theorem_5_1`, `parallel_vs_serial` and
//! `checkpoint_equivalence` run both through the harness.
//!
//! Each integration suite includes this module with `mod common;` and uses
//! only part of it, hence the module-wide `dead_code` allowance.
#![allow(dead_code)]

use std::collections::HashMap;
use std::sync::Arc;

use crace::cli::frame_event;
use crace::core::{builtin_resolver, oracle, Checkpoint, CompiledSpec, FrontEnd, SpecResolver};
use crace::daemon::SessionConfig;
use crace::{
    replay, translate, Action, Analysis, ClockMode, Direct, Event, LocId, LockId, MethodId, ObjId,
    ParallelConfig, ParallelRd2, RaceReport, Session, Spec, ThreadId, Trace, TraceDetector, Tracer,
    Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Worker counts the pipeline runs at.
pub const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// A random action of `spec` on `obj`: any method, with every slot drawn
/// from a small universe so that collisions (and hence races) are common.
fn random_action(spec: &Spec, obj: ObjId, rng: &mut StdRng) -> Action {
    let method = MethodId(rng.gen_range(0..spec.num_methods()) as u32);
    let value = |rng: &mut StdRng| match rng.gen_range(0..4) {
        0 => Value::Nil,
        1 => Value::Bool(rng.gen_bool(0.5)),
        _ => Value::Int(rng.gen_range(0..3)),
    };
    let args = (0..spec.sig(method).num_args())
        .map(|_| value(rng))
        .collect();
    Action::new(obj, method, args, value(rng))
}

/// How threads enter a [`random_trace`] stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Every thread but the root enters through a fork.
    Structured,
    /// About half the new threads are never forked: each first appears
    /// through an action or a lock acquire, so its clock starts fresh and
    /// is concurrent with everything before it.
    Unforked,
}

/// A random trace of `shape` with `events` steps over objects
/// `1..=objects`, all monitored with `spec`: new threads (at most six
/// live), joins that retire the joined thread, lock acquire/release pairs,
/// reads and writes of four locations (which RD2 must ignore), and
/// actions. No thread acts after it is joined. A `Structured` trace of a
/// seed is the same whatever other shapes exist.
pub fn random_trace(spec: &Spec, shape: Shape, seed: u64, events: usize, objects: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace::new();
    let mut live = vec![0u32];
    let mut next = 1u32;
    for _ in 0..events {
        let tid = ThreadId(live[rng.gen_range(0..live.len())]);
        match rng.gen_range(0..16) {
            0 if live.len() < 6 => {
                let child = ThreadId(next);
                next += 1;
                // `Structured` draws nothing from `rng` here, so a seed's
                // structured trace stays fixed (suites pin seeds).
                if shape == Shape::Structured || rng.gen_bool(0.5) {
                    trace.push(Event::Fork { parent: tid, child });
                } else if rng.gen_bool(0.5) {
                    let obj = ObjId(1 + rng.gen_range(0..objects));
                    let action = random_action(spec, obj, &mut rng);
                    trace.push(Event::Action { tid: child, action });
                } else {
                    let lock = LockId(rng.gen_range(0..2));
                    trace.push(Event::Acquire { tid: child, lock });
                    trace.push(Event::Release { tid: child, lock });
                }
                live.push(child.0);
            }
            1 if live.len() > 1 => {
                let victim = live[rng.gen_range(0..live.len())];
                if victim != tid.0 {
                    trace.push(Event::Join {
                        parent: tid,
                        child: ThreadId(victim),
                    });
                    live.retain(|&t| t != victim);
                }
            }
            2 | 3 => {
                let lock = LockId(rng.gen_range(0..2));
                trace.push(Event::Acquire { tid, lock });
                trace.push(Event::Release { tid, lock });
            }
            4 => trace.push(Event::Write {
                tid,
                loc: LocId(rng.gen_range(0..4)),
            }),
            5 => trace.push(Event::Read {
                tid,
                loc: LocId(rng.gen_range(0..4)),
            }),
            _ => {
                let obj = ObjId(1 + rng.gen_range(0..objects));
                let action = random_action(spec, obj, &mut rng);
                trace.push(Event::Action { tid, action });
            }
        }
    }
    trace
}

fn compile(spec: &Spec) -> Arc<CompiledSpec> {
    Arc::new(translate(spec).expect("builtin specs are ECL"))
}

fn register<D: FrontEnd + ?Sized>(detector: &D, spec: &Arc<CompiledSpec>, objects: u64) {
    for obj in 1..=objects {
        detector.register(ObjId(obj), Arc::clone(spec));
    }
}

/// `detector` with objects `1..=objects` registered against `spec`.
pub fn monitored<D: FrontEnd>(detector: D, spec: &Spec, objects: u64) -> D {
    register(&detector, &compile(spec), objects);
    detector
}

/// Builds a fresh, monitored front-end.
pub type Make = Box<dyn Fn() -> Box<dyn FrontEnd>>;

/// Every RD2 front-end: the serial detector and the pipeline at every
/// width with the given batch size.
pub fn front_ends(spec: &Spec, objects: u64, batch: usize) -> Vec<(String, Make)> {
    let mut all: Vec<(String, Make)> =
        vec![("serial".into(), Box::new(|| Box::new(TraceDetector::new())))];
    for workers in WIDTHS {
        let cfg = ParallelConfig {
            batch,
            ..ParallelConfig::default()
        };
        all.push((
            format!("w{workers}"),
            Box::new(move || Box::new(ParallelRd2::with_config(workers, cfg.clone()))),
        ));
    }
    let compiled = compile(spec);
    all.into_iter()
        .map(|(name, make)| {
            let compiled = Arc::clone(&compiled);
            let monitored: Make = Box::new(move || {
                let detector = make();
                register(&*detector, &compiled, objects);
                detector
            });
            (name, monitored)
        })
        .collect()
}

/// The durability equivalence
/// `restore(checkpoint(fold(prefix))) ⨟ fold(suffix) ≡ fold(trace)`:
/// `source` folds the prefix, checkpoints, and folds the suffix (a
/// checkpoint must be observation-only); `target` restores that checkpoint
/// and folds the suffix. Both must end with `expected`.
pub fn assert_resumes<S, T>(
    label: &str,
    source: &S,
    target: &T,
    trace: &Trace,
    cut: usize,
    expected: &RaceReport,
) where
    S: Analysis + Checkpoint + ?Sized,
    T: Analysis + Checkpoint + ?Sized,
{
    let (prefix, suffix) = trace.events().split_at(cut);
    prefix.iter().for_each(|e| source.on_event(e));
    let blob = source.checkpoint();
    suffix.iter().for_each(|e| source.on_event(e));
    assert_eq!(
        &source.report(),
        expected,
        "{label}: taking a checkpoint at {cut} perturbed the live detector\n{trace}"
    );
    let resolve: &SpecResolver<'_> = &builtin_resolver();
    target
        .restore(&blob, resolve)
        .unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));
    suffix.iter().for_each(|e| target.on_event(e));
    assert_eq!(
        &target.report(),
        expected,
        "{label}: restore(checkpoint(fold(prefix))) at {cut} != fold(trace)\n{trace}"
    );
}

/// Per-trace choices for the paths that run one configuration: the
/// pipeline batch size, the single width, the checkpoint cut, and which
/// front-end checkpoints and which resumes. They are drawn from a hash of
/// the trace, so a sweep over seeds covers them all and a failing seed
/// reproduces on its own.
struct Knobs {
    batch: usize,
    width: usize,
    cut: usize,
    from: usize,
    to: usize,
}

impl Knobs {
    fn of(trace: &Trace) -> Knobs {
        // FNV-1a: stable across toolchains, unlike `DefaultHasher`.
        let hash = trace
            .to_string()
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
        let mut rng = StdRng::seed_from_u64(hash);
        // The serial detector and the pipeline at every width.
        let front_ends = WIDTHS.len() + 1;
        let from = rng.gen_range(0..front_ends);
        Knobs {
            batch: [1, 3, 7, 512][rng.gen_range(0..4)],
            width: WIDTHS[rng.gen_range(0..WIDTHS.len())],
            cut: rng.gen_range(0..=trace.len()),
            from,
            to: (from + rng.gen_range(1..front_ends)) % front_ends,
        }
    }
}

/// Runs `trace` through every detector path and returns the serial
/// reference report, after checking:
///
/// * Theorem 5.1 on the reference: the serial [`TraceDetector`] reports a
///   race iff the quadratic oracle finds a racing pair, and [`Direct`]
///   counts exactly the oracle's pairs;
/// * bit-for-bit report equality with the reference for serial
///   full-vector clocks; the pipeline at every width, online and through
///   `ingest_shared`; full-vector clocks in the pipeline; traced serial
///   and pipeline runs; a checkpoint at a cut restored into a different
///   front-end at another width; and in-process daemon sessions, serial
///   and sharded, whose JSON must be the reference's.
///
/// Objects `1..=objects` are monitored with `spec`.
pub fn assert_all_paths_agree(spec: &Spec, trace: &Trace, objects: u64) -> RaceReport {
    let name = spec.name();
    let compiled = compile(spec);
    let serial = TraceDetector::new();
    register(&serial, &compiled, objects);
    let reference = replay(trace, &serial);

    let registry: HashMap<_, _> = (1..=objects).map(|o| (ObjId(o), spec.clone())).collect();
    let races = oracle::find_races(trace, &registry);
    assert_eq!(
        reference.total() > 0,
        !races.is_empty(),
        "{name}: serial reports {reference:?}, the oracle finds {} racing pairs\n{trace}",
        races.len(),
    );
    let direct = Direct::new();
    for obj in 1..=objects {
        direct.register(ObjId(obj), Arc::new(spec.clone()));
    }
    assert_eq!(
        replay(trace, &direct).total() as usize,
        races.len(),
        "{name}: Direct does not count the oracle's racing pairs\n{trace}",
    );

    let knobs = Knobs::of(trace);
    let (batch, width) = (knobs.batch, knobs.width);
    let full = ClockMode::FullVector;
    let cfg = ParallelConfig {
        batch,
        ..ParallelConfig::default()
    };
    let (mut full_vector, mut traced) = (cfg.clone(), cfg.clone());
    full_vector.mode = full;
    traced.tracer = Some(Arc::new(Tracer::new()));
    let tracer = Tracer::new();
    let mut paths: Vec<(String, Box<dyn FrontEnd>)> = vec![
        (
            "serial full-vector".into(),
            Box::new(TraceDetector::with_mode(full)),
        ),
        (
            "serial traced".into(),
            Box::new(TraceDetector::with_tracer(&tracer, 1)),
        ),
    ];
    for workers in WIDTHS {
        let pipeline = ParallelRd2::with_config(workers, cfg.clone());
        paths.push((format!("w{workers}"), Box::new(pipeline)));
    }
    for (what, cfg) in [("full-vector", full_vector), ("traced", traced)] {
        let pipeline = ParallelRd2::with_config(width, cfg);
        paths.push((format!("w{width} {what}"), Box::new(pipeline)));
    }
    let agree = |path: &str, report: RaceReport| {
        assert_eq!(
            report, reference,
            "{name}, {path} (batch {batch}): report diverges from the serial reference\n{trace}"
        );
    };
    for (path, detector) in paths {
        register(&*detector, &compiled, objects);
        agree(&path, replay(trace, &*detector));
    }
    let shared = Arc::new(trace.clone());
    for workers in WIDTHS {
        let detector = ParallelRd2::with_config(workers, cfg.clone());
        register(&detector, &compiled, objects);
        detector.ingest_shared(&shared);
        agree(&format!("w{workers} ingest_shared"), detector.report());
    }

    let fronts = front_ends(spec, objects, batch);
    let (from, make_from) = &fronts[knobs.from];
    let (to, make_to) = &fronts[knobs.to];
    assert_resumes(
        &format!("{name}: checkpoint {from} -> restore {to}"),
        &*make_from(),
        &*make_to(),
        trace,
        knobs.cut,
        &reference,
    );

    for workers in [0, width] {
        let cfg = SessionConfig {
            workers,
            ..SessionConfig::default()
        };
        let session = Session::spawn("harness", name, spec.clone(), Arc::clone(&compiled), cfg)
            .expect("daemon session starts");
        for event in trace.events() {
            session
                .ingest_line(&frame_event(event, spec))
                .expect("a framed record decodes");
        }
        let outcome = session.finalize(true, None);
        assert!(
            !outcome.degraded && outcome.shed_ring == 0,
            "{name}, daemon w{workers}: session degraded or shed"
        );
        assert_eq!(
            outcome.report_json,
            reference.to_json(),
            "{name}, daemon w{workers}: report diverges from the serial reference\n{trace}"
        );
    }
    reference
}
