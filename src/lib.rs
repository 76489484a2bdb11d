//! # crace — commutativity race detection
//!
//! A Rust implementation of *“Commutativity Race Detection”* (Dimitrov,
//! Raychev, Vechev, Koskinen — PLDI 2014). A **commutativity race** occurs
//! when two library-method invocations may happen in parallel (unordered
//! by happens-before) yet the library's commutativity specification does
//! not assert that they commute — a generalization of read-write data
//! races to arbitrary library interfaces.
//!
//! This facade re-exports the whole toolkit:
//!
//! * [`spec`] — the ECL specification language: parser, resolver, fragment
//!   checker, builtin specifications (dictionary/set/counter/…),
//! * [`core`] — the ECL → access-point translation and the Algorithm 1
//!   detectors ([`Rd2`], the paper's name for [`TraceDetector`], and the
//!   [`ParallelRd2`] pipeline) plus the naive
//!   [`Direct`] baseline and a quadratic test [`oracle`](core::oracle),
//! * [`speclint`] — static analysis for specifications (`crace lint`):
//!   fragment conformance, symmetry and orientation consistency,
//!   access-point diagnostics, a differential audit of the A.3
//!   optimization passes, and a bounded-model soundness and precision
//!   audit against executable builtin semantics,
//! * [`specsynth`] — the linter's oracle run in reverse (`crace synth`):
//!   synthesizes the weakest bounded-domain ECL commutativity condition
//!   for every method pair of a type with executable reference semantics,
//! * [`fasttrack`] — the FastTrack read-write race detector baseline,
//! * [`vclock`] — vector clocks, epochs and Table 1 synchronization
//!   handling,
//! * [`runtime`] — the instrumented runtime: tracked threads and locks,
//!   monitored dictionaries/sets/counters, tracked plain variables,
//! * [`workloads`] — the paper's evaluation workloads (mini-MVStore with
//!   six Pole-Position circuits, the Cassandra snitch, the Fig. 1
//!   connections program) and the Table 2 harness,
//! * [`model`] — the shared vocabulary (values, actions, events, traces,
//!   the [`Analysis`] interface),
//! * [`obs`] — the observability layer: lock-free counters, gauges and
//!   latency histograms behind a [`Registry`], rendered as JSON or
//!   Prometheus text from a [`Snapshot`], fed by the [`Observer`] tee and
//!   surfaced as race provenance in `crace replay --explain`,
//! * [`cli`] — the textual trace format behind the `crace` command-line
//!   tool,
//! * [`daemon`] — the multi-tenant streaming detection service
//!   (`crace serve` / `crace submit`): framed events over Unix or TCP
//!   sockets, one detector per session, live `/metrics`.
//!
//! # Quickstart
//!
//! Detect the paper's running example race in five lines:
//!
//! ```
//! use std::sync::Arc;
//! use crace::{Analysis, MonitoredDict, Rd2, Runtime, Value};
//!
//! let rd2 = Arc::new(Rd2::new());
//! let rt = Runtime::new(rd2.clone());
//! let dict = MonitoredDict::new(&rt);
//! let main = rt.main_ctx();
//!
//! let d = dict.clone();
//! let worker = rt.spawn(&main, move |ctx| {
//!     d.put(ctx, Value::str("a.com"), Value::Int(1));
//! });
//! dict.put(&main, Value::str("a.com"), Value::Int(2)); // concurrent, same key
//! worker.join(&main).unwrap();
//!
//! assert_eq!(rd2.report().total(), 1); // the commutativity race
//! ```
//!
//! Or write your own commutativity specification and compile it to access
//! points:
//!
//! ```
//! use crace::{parse_spec, translate};
//!
//! let spec = parse_spec(r#"
//!     spec bank_account {
//!         method deposit(amount);
//!         method balance() -> b;
//!         commute deposit(_), deposit(_) when true;   # deposits commute!
//!         commute deposit(_), balance() -> _ when false;
//!         commute balance() -> _, balance() -> _ when true;
//!     }
//! "#)?;
//! let compiled = translate(&spec)?;
//! assert!(compiled.stats().max_conflict_degree <= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use crace_cli as cli;
pub use crace_core as core;
pub use crace_daemon as daemon;
pub use crace_fasttrack as fasttrack;
pub use crace_model as model;
pub use crace_obs as obs;
pub use crace_runtime as runtime;
pub use crace_spec as spec;
pub use crace_speclint as speclint;
pub use crace_specsynth as specsynth;
pub use crace_vclock as vclock;
pub use crace_workloads as workloads;

pub use crace_core::{
    translate, ClockMode, Direct, ParallelConfig, ParallelRd2, ParallelStats, Rd2, TraceDetector,
    TranslateError,
};
pub use crace_daemon::{Client, Endpoint, Server, ServerConfig, Session, SessionOutcome};
pub use crace_fasttrack::FastTrack;
pub use crace_model::{
    replay, Action, Analysis, Event, Isolated, LocId, LockId, MethodId, NoopAnalysis, ObjId,
    Observer, RaceReport, Recorder, ThreadId, Trace, Value,
};
pub use crace_obs::{Registry, Snapshot, SpanGuard, Tracer};
pub use crace_runtime::{
    Fault, FaultInjector, FaultPlan, JoinError, MonitoredCounter, MonitoredDict, MonitoredQueue,
    MonitoredRegister, MonitoredSet, Runtime, ThreadCtx, TrackedCell, TrackedMutex,
};
pub use crace_spec::{parse as parse_spec, Spec, SpecBuilder};
pub use crace_speclint::{lint as lint_spec, lint_with, LintOptions, LintReport};
pub use crace_specsynth::{synthesize, synthesize_all, SynthConfig, SynthError, Synthesis};
pub use crace_vclock::{AdaptiveClock, ClockStats, VectorClock};
