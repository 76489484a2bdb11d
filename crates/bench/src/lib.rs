//! Shared generators for the `crace` benchmarks.
//!
//! The repository's committed performance numbers come from the
//! end-to-end benchmark (`e2e-bench/`, snapshots `BENCH_e2e.json` and
//! `BENCH_e2e_layers.json`), which builds its traces with the generators
//! below. The benches in this crate are local tools that print their rows
//! and write no file:
//!
//! * the `table2` **binary** reruns every Table 2 row (six Pole-Position
//!   circuits under uninstrumented / FastTrack / RD2 + the snitch),
//! * `direct_vs_rd2` measures the §5.4 complexity claim — Θ(1) checks per
//!   action with access points vs Θ(|A|) with the direct approach,
//! * `translate` measures the §6.2 translation + optimization pipeline,
//! * `per_event` measures raw per-event detector cost on recorded traces,
//! * `vclock_ops` measures the vector-clock primitives underlying all
//!   detectors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use crace_model::{Action, Event, ObjId, ThreadId, Trace, Value};
use crace_spec::{builtin, CmpOp, Formula, Side, Spec, SpecBuilder, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The object id used by generated traces.
pub const OBJ: ObjId = ObjId(1);

/// Generates a trace of `n` dictionary actions from `threads` pre-forked
/// threads: a mix of fresh inserts (each to a distinct key, so the active
/// access-point set keeps growing) punctuated by `size()` calls.
///
/// This is the Fig. 4 shape: under the direct approach each `size()` must
/// be checked against *every* recorded put, while RD2 performs a single
/// lookup against the `resize` point.
pub fn put_size_storm(n: usize, threads: u32, seed: u64) -> Trace {
    let spec = builtin::dictionary();
    let put = spec.method_id("put").expect("builtin");
    let size = spec.method_id("size").expect("builtin");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace::new();
    for t in 1..=threads {
        trace.push(Event::Fork {
            parent: ThreadId(0),
            child: ThreadId(t),
        });
    }
    for i in 0..n {
        let tid = ThreadId(1 + rng.gen_range(0..threads));
        if i % 64 == 63 {
            trace.push(Event::Action {
                tid,
                action: Action::new(OBJ, size, vec![], Value::Int(i as i64)),
            });
        } else {
            // Fresh key every time: the active set grows linearly.
            trace.push(Event::Action {
                tid,
                action: Action::new(
                    OBJ,
                    put,
                    vec![Value::Int(i as i64), Value::Int(1)],
                    Value::Nil,
                ),
            });
        }
    }
    trace
}

/// Generates a mixed dictionary trace (puts, gets, sizes over a bounded
/// key space) for per-event cost measurements.
pub fn mixed_dict_trace(n: usize, threads: u32, key_space: i64, seed: u64) -> Trace {
    let spec = builtin::dictionary();
    let put = spec.method_id("put").expect("builtin");
    let get = spec.method_id("get").expect("builtin");
    let size = spec.method_id("size").expect("builtin");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace::new();
    for t in 1..=threads {
        trace.push(Event::Fork {
            parent: ThreadId(0),
            child: ThreadId(t),
        });
    }
    for _ in 0..n {
        let tid = ThreadId(1 + rng.gen_range(0..threads));
        let k = Value::Int(rng.gen_range(0..key_space));
        let action = match rng.gen_range(0..10) {
            0..=5 => Action::new(
                OBJ,
                put,
                vec![k, Value::Int(rng.gen_range(0..100))],
                Value::Int(rng.gen_range(0..100)),
            ),
            6..=8 => Action::new(OBJ, get, vec![k], Value::Int(rng.gen_range(0..100))),
            _ => Action::new(OBJ, size, vec![], Value::Int(rng.gen_range(0..100))),
        };
        trace.push(Event::Action { tid, action });
    }
    trace
}

/// Generates a *thread-local* dictionary trace: every thread works a
/// disjoint key range, so each access point is only ever touched by one
/// thread. This is the FastTrack-motivating common case where the adaptive
/// clock representation keeps every `pt.vc` as an epoch — the counterpart
/// to the contended [`mixed_dict_trace`], whose shared bounded key space
/// promotes almost every point to a full vector.
pub fn local_dict_trace(n: usize, threads: u32, keys_per_thread: i64, seed: u64) -> Trace {
    let spec = builtin::dictionary();
    let put = spec.method_id("put").expect("builtin");
    let get = spec.method_id("get").expect("builtin");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace::new();
    for t in 1..=threads {
        trace.push(Event::Fork {
            parent: ThreadId(0),
            child: ThreadId(t),
        });
    }
    for _ in 0..n {
        let t = rng.gen_range(0..threads);
        let tid = ThreadId(1 + t);
        let base = i64::from(t) * keys_per_thread;
        let k = Value::Int(base + rng.gen_range(0..keys_per_thread));
        let action = if rng.gen_bool(0.6) {
            Action::new(
                OBJ,
                put,
                vec![k, Value::Int(rng.gen_range(0..100))],
                Value::Int(rng.gen_range(0..100)),
            )
        } else {
            Action::new(OBJ, get, vec![k], Value::Int(rng.gen_range(0..100)))
        };
        trace.push(Event::Action { tid, action });
    }
    trace
}

/// Generates a *sharded* dictionary trace: `objects` independent
/// dictionaries (ids `1..=objects`), each worked by all `threads` over a
/// bounded per-object key space, with realistic cross-thread
/// synchronization — one warm-up acquire/release of a global lock per
/// thread (so thread clocks are dense, as they would be in any program
/// whose threads ever synchronized) and a lock pair every ~200 events
/// thereafter. Because the dictionaries are
/// independent, this is the shape the parallel pipeline can split across
/// detector workers — and the dense clocks make the serial replay path
/// pay its per-action cost in full (a sync-clock clone per action,
/// O(threads)), which is exactly the work the pipeline's workers avoid
/// by reading the `Arc`'d clocks the ingress replayed once. The trace
/// has `n + 3 * threads` events.
pub fn sharded_dict_trace(
    n: usize,
    threads: u32,
    objects: u64,
    key_space: i64,
    seed: u64,
) -> Trace {
    let spec = builtin::dictionary();
    let put = spec.method_id("put").expect("builtin");
    let get = spec.method_id("get").expect("builtin");
    let size = spec.method_id("size").expect("builtin");
    let lock = crace_model::LockId(0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace::new();
    for t in 1..=threads {
        trace.push(Event::Fork {
            parent: ThreadId(0),
            child: ThreadId(t),
        });
    }
    for t in 1..=threads {
        let tid = ThreadId(t);
        trace.push(Event::Acquire { tid, lock });
        trace.push(Event::Release { tid, lock });
    }
    let objects = objects.max(1);
    let mut i = 0usize;
    while i < n {
        let tid = ThreadId(1 + rng.gen_range(0..threads));
        if i % 200 == 198 && i + 1 < n {
            trace.push(Event::Acquire { tid, lock });
            trace.push(Event::Release { tid, lock });
            i += 2;
            continue;
        }
        let obj = ObjId(1 + rng.gen_range(0..objects));
        let k = Value::Int(rng.gen_range(0..key_space));
        let action = match rng.gen_range(0..10) {
            0..=5 => Action::new(
                obj,
                put,
                vec![k, Value::Int(rng.gen_range(0..100))],
                Value::Int(rng.gen_range(0..100)),
            ),
            6..=8 => Action::new(obj, get, vec![k], Value::Int(rng.gen_range(0..100))),
            _ => Action::new(obj, size, vec![], Value::Int(rng.gen_range(0..100))),
        };
        trace.push(Event::Action { tid, action });
        i += 1;
    }
    trace
}

/// Generates a read/write shadow-memory trace for FastTrack measurements.
pub fn rw_trace(n: usize, threads: u32, locs: u64, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace::new();
    for t in 1..=threads {
        trace.push(Event::Fork {
            parent: ThreadId(0),
            child: ThreadId(t),
        });
    }
    for _ in 0..n {
        let tid = ThreadId(1 + rng.gen_range(0..threads));
        let loc = crace_model::LocId(rng.gen_range(0..locs));
        if rng.gen_bool(0.3) {
            trace.push(Event::Write { tid, loc });
        } else {
            trace.push(Event::Read { tid, loc });
        }
    }
    trace
}

/// Builds a synthetic ECL specification with `methods` methods and `atoms`
/// LB atoms per same-method rule — used to measure how translation scales
/// with specification size.
pub fn synthetic_spec(methods: usize, atoms: usize) -> Spec {
    let mut b = SpecBuilder::new(format!("synthetic_{methods}x{atoms}"));
    let mut refs = Vec::new();
    for m in 0..methods {
        refs.push(b.method(format!("m{m}"), 1));
    }
    for (i, mi) in refs.iter().enumerate() {
        for mj in refs.iter().skip(i) {
            // k1 != k2 || (per-side atom conjunction)
            let mut lhs = Formula::True;
            let mut rhs = Formula::True;
            for a in 0..atoms {
                lhs = lhs.and(Formula::atom(
                    Side::First,
                    CmpOp::Eq,
                    Term::Slot(1),
                    Term::Const(Value::Int(a as i64)),
                ));
                rhs = rhs.and(Formula::atom(
                    Side::Second,
                    CmpOp::Eq,
                    Term::Slot(1),
                    Term::Const(Value::Int(a as i64)),
                ));
            }
            let phi = Formula::NeqCross { i: 0, j: 0 }.or(lhs.and(rhs));
            b.rule(mi.id, mj.id, phi).expect("well-formed");
        }
    }
    b.finish().expect("well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_has_requested_size() {
        let t = put_size_storm(256, 4, 1);
        assert_eq!(t.len(), 256 + 4);
        assert!(t.iter().any(|e| e.action().is_some()));
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(put_size_storm(100, 2, 9), put_size_storm(100, 2, 9));
        assert_eq!(
            mixed_dict_trace(100, 2, 16, 9),
            mixed_dict_trace(100, 2, 16, 9)
        );
        assert_eq!(rw_trace(100, 2, 16, 9), rw_trace(100, 2, 16, 9));
        assert_eq!(
            sharded_dict_trace(100, 8, 32, 16, 9),
            sharded_dict_trace(100, 8, 32, 16, 9)
        );
    }

    #[test]
    fn sharded_trace_spreads_over_objects() {
        let t = sharded_dict_trace(512, 8, 32, 16, 7);
        assert_eq!(t.len(), 512 + 3 * 8);
        let objects: std::collections::BTreeSet<_> = t
            .iter()
            .filter_map(|e| e.action().map(|a| a.obj()))
            .collect();
        assert!(objects.len() > 16, "only {} objects touched", objects.len());
        let syncs = t
            .iter()
            .filter(|e| matches!(e, Event::Acquire { .. } | Event::Release { .. }))
            .count();
        assert_eq!(syncs, 2 * 8 + 2 * (512 / 200), "warm-up + sparse pairs");
    }

    /// The committed end-to-end snapshots, `BENCH_e2e.json` and its traced
    /// twin `BENCH_e2e_layers.json` (both written by `e2e --json`), cover
    /// every workload and metric `BENCHMARK.json` declares, with no failed
    /// operation, ordered quartiles and the provenance to regenerate them.
    #[test]
    fn committed_e2e_snapshots_match_the_benchmark() {
        use crace_obs::json::{self, Json};
        let decl = json::parse(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json");
        let names = |key: &str| -> Vec<&str> {
            let list = decl.get(key).and_then(Json::as_array).expect(key);
            list.iter()
                .map(|e| e.get("name").and_then(Json::as_str).expect("name"))
                .collect()
        };
        let snapshots = [
            (
                "BENCH_e2e.json",
                include_str!("../../../BENCH_e2e.json"),
                false,
                names("end_to_end"),
            ),
            (
                "BENCH_e2e_layers.json",
                include_str!("../../../BENCH_e2e_layers.json"),
                true,
                names("per_layer"),
            ),
        ];
        for (file, text, traced, metrics) in snapshots {
            let doc = json::parse(text).unwrap_or_else(|e| panic!("{file}: {e}"));
            let meta = doc.get("meta").expect("meta");
            let meta_num = |k: &str| meta.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            assert_eq!(meta.get("traced"), Some(&Json::Bool(traced)), "{file}");
            assert!(meta_num("host_cpus") >= 1.0, "{file}: meta.host_cpus");
            assert!(meta_num("repeats") >= 3.0, "{file}: meta.repeats");
            let rev = meta.get("git_rev").and_then(Json::as_str).unwrap_or("");
            assert!(
                rev.len() == 40 && rev.bytes().all(|b| b.is_ascii_hexdigit()),
                "{file}: git_rev `{rev}`"
            );
            for workload in names("workloads") {
                let w = doc
                    .get("workloads")
                    .and_then(|ws| ws.get(workload))
                    .unwrap_or_else(|| panic!("{file}: no workload {workload}"));
                let error_rate = w.get("error_rate").and_then(Json::as_f64);
                assert_eq!(error_rate, Some(0.0), "{file}: {workload} error_rate");
                let got = w.get("metrics").and_then(Json::as_object).expect("metrics");
                for m in &metrics {
                    assert!(
                        got.iter().any(|(k, _)| k == m),
                        "{file}: {workload} lacks {m}"
                    );
                }
                for (m, v) in got {
                    let q = |k: &str| v.get(k).and_then(Json::as_f64).expect(k);
                    assert!(
                        q("q1") <= q("median") && q("median") <= q("q3"),
                        "{file}: {workload} {m} quartiles out of order"
                    );
                }
            }
        }
    }

    #[test]
    fn synthetic_specs_translate() {
        let spec = synthetic_spec(3, 2);
        assert!(spec.is_ecl());
        let compiled = crace_core::translate(&spec).unwrap();
        assert!(compiled.num_classes() > 0);
    }
}
