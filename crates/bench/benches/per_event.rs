//! Per-event detector cost on recorded traces — the microscopic view of
//! the Table 2 overhead columns.
//!
//! Replays the same mixed dictionary trace into RD2 (in both clock
//! representations: the adaptive epoch fast path and the full-vector
//! reference, so the before/after cost of the epoch compression is a
//! single diff of adjacent rows), the sharded live `Rd2` analysis, and the
//! direct detector, and an equally-sized read/write trace into FastTrack,
//! so the per-event costs are directly comparable. The epoch-hit rate of
//! the benchmarked trace is printed alongside the timings.
//!
//! A local tool: it prints one line per row and writes no file. The
//! repository's committed numbers come from the end-to-end benchmark
//! (`BENCH_e2e.json`, see EXPERIMENTS.md).

use crace_bench::{local_dict_trace, mixed_dict_trace, rw_trace, sharded_dict_trace, OBJ};
use crace_core::{
    translate, Checkpoint, ClockMode, Direct, ParallelConfig, ParallelRd2, Rd2, TraceDetector,
};
use crace_fasttrack::FastTrack;
use crace_model::{replay, Analysis, Isolated, NoopAnalysis, ObjId, Observer};
use crace_obs::{Registry, Tracer};
use crace_spec::builtin;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::sync::Arc;

const N: usize = 10_000;

/// Span-sampling period of the `-traced` rows: the tracer's cost is
/// amortized 1-in-64 exactly as `crace replay --trace-out` configures it.
const TRACE_SAMPLE_EVERY: u64 = 64;

/// Workload shape of the sharded parallel rows (10× longer trace so the
/// fixed thread-spawn cost does not drown the per-event story).
const SHARD_N: usize = 10 * N;
const SHARD_THREADS: u32 = 256;
const SHARD_OBJECTS: u64 = 48;

/// Worker widths measured by the `rd2-parallel-w*` rows.
const WORKER_WIDTHS: [usize; 5] = [1, 2, 4, 8, 16];

fn bench_per_event(c: &mut Criterion) {
    let spec = builtin::dictionary();
    let compiled = Arc::new(translate(&spec).expect("ECL"));
    let dict_trace = mixed_dict_trace(N, 4, 64, 0xFEED);
    let local_trace = local_dict_trace(N, 4, 64, 0xFEED);
    let mem_trace = rw_trace(N, 4, 256, 0xFEED);

    // How compressible each trace's access points are: replay once and
    // report the phase-2 update breakdown.
    for (name, trace) in [("mixed", &dict_trace), ("local", &local_trace)] {
        let detector = TraceDetector::new();
        detector.register(OBJ, Arc::clone(&compiled));
        replay(trace, &detector);
        println!(
            "per_event: {name} trace adaptive clock updates: {}",
            detector.clock_stats()
        );
    }

    let mut group = c.benchmark_group("per_event");
    group.throughput(Throughput::Elements(N as u64));

    group.bench_function("noop", |b| {
        b.iter(|| replay(&dict_trace, &NoopAnalysis::new()));
    });

    group.bench_function("rd2-adaptive", |b| {
        b.iter(|| {
            let detector = TraceDetector::new();
            detector.register(OBJ, Arc::clone(&compiled));
            replay(&dict_trace, &detector)
        });
    });

    // The panic shield: the same adaptive run through `Isolated`, the
    // chaos plane's hot-path overhead (one quarantine load plus a
    // `catch_unwind` frame per dispatch).
    group.bench_function("rd2-adaptive-isolated", |b| {
        b.iter(|| {
            let detector = TraceDetector::new();
            detector.register(OBJ, Arc::clone(&compiled));
            replay(&dict_trace, &Isolated::new(detector))
        });
    });

    // The tracing plane's hot-path overhead: the same adaptive run with a
    // live tracer sampling `rd2.on_action` spans 1-in-64, diffed against
    // `rd2-adaptive`. The tracer outlives the iterations (lanes are keyed
    // by name, so every iteration reuses the same bounded ring).
    {
        let tracer = Tracer::new();
        group.bench_function("rd2-adaptive-traced", |b| {
            b.iter(|| {
                let detector = TraceDetector::with_tracer(&tracer, TRACE_SAMPLE_EVERY);
                detector.register(OBJ, Arc::clone(&compiled));
                replay(&dict_trace, &detector)
            });
        });
    }

    group.bench_function("rd2-fullvector", |b| {
        b.iter(|| {
            let detector = TraceDetector::with_mode(ClockMode::FullVector);
            detector.register(OBJ, Arc::clone(&compiled));
            replay(&dict_trace, &detector)
        });
    });

    // The thread-local trace: the epoch fast path's best case (every
    // phase-2 update stays an O(1) epoch overwrite) vs the same trace on
    // full vectors. The gap widens with the thread count, since a full
    // vector join is O(threads) while an epoch overwrite stays O(1).
    for threads in [4u32, 16, 64] {
        let local = local_dict_trace(N, threads, 64, 0xFEED);
        group.bench_function(format!("rd2-adaptive-local-t{threads}"), |b| {
            b.iter(|| {
                let detector = TraceDetector::new();
                detector.register(OBJ, Arc::clone(&compiled));
                replay(&local, &detector)
            });
        });
        group.bench_function(format!("rd2-fullvector-local-t{threads}"), |b| {
            b.iter(|| {
                let detector = TraceDetector::with_mode(ClockMode::FullVector);
                detector.register(OBJ, Arc::clone(&compiled));
                replay(&local, &detector)
            });
        });
    }

    // The same adaptive run through the Observer tee, for the tee's
    // per-event overhead. Once at the default 1-in-64 latency sampling,
    // once with sampling disabled (counters only), so the cost of the two
    // Instant reads is its own diff.
    group.bench_function("rd2-adaptive-observed", |b| {
        b.iter(|| {
            let detector = TraceDetector::new();
            detector.register(OBJ, Arc::clone(&compiled));
            replay(&dict_trace, &Observer::new(detector))
        });
    });

    group.bench_function("rd2-adaptive-observed-nosample", |b| {
        b.iter(|| {
            let detector = TraceDetector::new();
            detector.register(OBJ, Arc::clone(&compiled));
            let observer = Observer::with_sampling(detector, Arc::new(Registry::new()), 0);
            replay(&dict_trace, &observer)
        });
    });

    // One observed replay with its snapshot printed, so a bench run
    // doubles as a smoke test of the metrics surface.
    {
        let detector = TraceDetector::new();
        detector.register(OBJ, Arc::clone(&compiled));
        let observer = Observer::new(detector);
        replay(&dict_trace, &observer);
        println!(
            "per_event: observed rd2 snapshot:\n{}",
            observer.snapshot().to_pretty()
        );
    }

    // The live sharded analysis (published clock snapshots, per-object
    // mutexes) driven from one thread — measures hot-path bookkeeping, not
    // contention.
    group.bench_function("rd2-live", |b| {
        b.iter(|| {
            let detector = Rd2::new();
            detector.register(OBJ, Arc::clone(&compiled));
            replay(&dict_trace, &detector)
        });
    });

    // The direct detector is quadratic: run it on a 10× smaller trace and
    // report per-element cost (still ~10× worse per event at this size).
    let small_trace = mixed_dict_trace(N / 10, 4, 64, 0xFEED);
    group.bench_function("direct", |b| {
        b.iter(|| {
            let detector = Direct::new();
            detector.register(OBJ, Arc::new(spec.clone()));
            replay(&small_trace, &detector)
        });
    });

    group.bench_function("fasttrack", |b| {
        b.iter(|| {
            let detector = FastTrack::new();
            replay(&mem_trace, &detector)
        });
    });

    // The sharded parallel pipeline vs the serial replay paths, all on the
    // same many-thread multi-dictionary trace. The serial trace detector
    // pays a sync-clock clone per action (O(threads), and this trace has
    // 256 threads precisely because many-thread traces are where the
    // pipeline earns its keep); the pipeline's workers read `Arc`'d
    // clocks the ingress replayed once, so the pipeline comes out ahead
    // even on one CPU, and on many CPUs the shards additionally detect
    // concurrently. Each iteration builds the whole pipeline (thread
    // spawn included) and ends with the report barrier, so setup and
    // merge are priced in — which is why these rows use a 10× longer
    // trace: spawning N worker threads is a fixed millisecond-scale cost
    // that would otherwise drown the per-event story for both sides.
    let sharded = Arc::new(sharded_dict_trace(
        SHARD_N,
        SHARD_THREADS,
        SHARD_OBJECTS,
        16,
        0xFEED,
    ));
    let objects: Vec<ObjId> = (1..=SHARD_OBJECTS).map(ObjId).collect();
    group.throughput(Throughput::Elements(SHARD_N as u64));

    group.bench_function("rd2-serial-sharded", |b| {
        b.iter(|| {
            let detector = TraceDetector::new();
            for &obj in &objects {
                detector.register(obj, Arc::clone(&compiled));
            }
            replay(&sharded, &detector)
        });
    });

    group.bench_function("rd2-live-sharded", |b| {
        b.iter(|| {
            let detector = Rd2::new();
            for &obj in &objects {
                detector.register(obj, Arc::clone(&compiled));
            }
            replay(&sharded, &detector)
        });
    });

    // The parallel rows take the zero-copy offline path (`ingest_shared`):
    // a recorded trace is already a shared immutable buffer, so the
    // ingress ships each worker index views into it instead of cloning
    // events into messages. One chunk for the whole trace: on few cores
    // there is no pipelining win from smaller chunks, and every chunk
    // costs one wake per worker.
    let throughput_cfg = ParallelConfig {
        batch: usize::MAX,
        ..ParallelConfig::default()
    };
    for workers in WORKER_WIDTHS {
        group.bench_function(format!("rd2-parallel-w{workers}"), |b| {
            b.iter(|| {
                let detector = ParallelRd2::with_config(workers, throughput_cfg.clone());
                for &obj in &objects {
                    detector.register(obj, Arc::clone(&compiled));
                }
                detector.ingest_shared(&sharded);
                detector.report()
            });
        });
    }

    // The pipeline with span tracing on every phase (ingress, workers,
    // sync, merge), diffed against `rd2-parallel-w8`.
    {
        let tracer = Arc::new(Tracer::new());
        let traced_cfg = ParallelConfig {
            tracer: Some(Arc::clone(&tracer)),
            ..throughput_cfg.clone()
        };
        group.bench_function("rd2-parallel-w8-traced", |b| {
            b.iter(|| {
                let detector = ParallelRd2::with_config(8, traced_cfg.clone());
                for &obj in &objects {
                    detector.register(obj, Arc::clone(&compiled));
                }
                detector.ingest_shared(&sharded);
                detector.report()
            });
        });
    }

    // The durable variant: same stream, plus one full-state checkpoint
    // blob — the cost `crace serve` pays at every checkpoint boundary,
    // priced per 100k events here so the row tracks serialization
    // regressions: its delta over `rd2-parallel-w8` is the cost of one
    // checkpoint.
    group.bench_function("rd2-parallel-w8-checkpointed", |b| {
        b.iter(|| {
            let detector = ParallelRd2::with_config(8, throughput_cfg.clone());
            for &obj in &objects {
                detector.register(obj, Arc::clone(&compiled));
            }
            detector.ingest_shared(&sharded);
            let blob = detector.checkpoint();
            (detector.report(), blob.len())
        });
    });

    group.finish();
}

criterion_group!(benches, bench_per_event);
criterion_main!(benches);
