//! Commutativity race detection — the paper's primary contribution.
//!
//! This crate implements:
//!
//! * the **access-point representation** `⟨Xₒ, ηₒ, Cₒ⟩` of a commutativity
//!   specification (§4.2) in compiled form — [`CompiledSpec`],
//! * the **translation** from ECL specifications to access-point
//!   representations (§6.2), including the optimization pipeline of
//!   Appendix A.3 (consolidation, dropping, cleanup, congruence
//!   replacement) — [`translate`],
//! * **Algorithm 1**, the online commutativity race detector combining the
//!   access points with vector clocks (§5.3) — [`TraceDetector`] (also
//!   named [`Rd2`], the paper's name for the tool) for recorded traces and
//!   live multi-threaded programs alike, and the [`ParallelRd2`] pipeline
//!   for width; both implement [`FrontEnd`],
//! * the **direct detector** (§5.1), which checks the logical specification
//!   pairwise against all previous actions — the Θ(|A|)-per-action baseline
//!   the access-point representation improves on — [`DirectDetector`] /
//!   [`Direct`],
//! * a **quadratic oracle** ([`oracle::find_races`]) enumerating every
//!   racing pair, used to validate the precision guarantee of Theorem 5.1.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use crace_core::{translate, TraceDetector};
//! use crace_model::{replay, Action, Event, ObjId, ThreadId, Trace, Value};
//! use crace_spec::builtin;
//!
//! // 1. Compile the Fig. 6 dictionary specification to access points.
//! let spec = builtin::dictionary();
//! let compiled = Arc::new(translate(&spec)?);
//! let put = spec.method_id("put").unwrap();
//!
//! // 2. Record the trace of the paper's running example (Fig. 3).
//! let (main, t2, t3) = (ThreadId(0), ThreadId(1), ThreadId(2));
//! let o = ObjId(1);
//! let mut trace = Trace::new();
//! trace.push(Event::Fork { parent: main, child: t2 });
//! trace.push(Event::Fork { parent: main, child: t3 });
//! trace.push(Event::Action {
//!     tid: t3,
//!     action: Action::new(o, put, vec![Value::str("a.com"), Value::Int(1)], Value::Nil),
//! });
//! trace.push(Event::Action {
//!     tid: t2,
//!     action: Action::new(o, put, vec![Value::str("a.com"), Value::Int(2)], Value::Int(1)),
//! });
//!
//! // 3. Detect: the two unordered, same-key puts race.
//! let mut detector = TraceDetector::new();
//! detector.register(o, compiled);
//! let report = replay(&trace, &detector);
//! assert_eq!(report.total(), 1);
//! # Ok::<(), crace_core::TranslateError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod detector;
mod direct;
mod engine;
mod front_end;
mod fxhash;
pub mod oracle;
mod points;
mod shard;
mod translate;

pub use checkpoint::{builtin_resolver, Checkpoint, SpecResolver};
pub use detector::{Rd2, TraceDetector};
pub use direct::{Direct, DirectDetector};
pub use engine::{ClockMode, ObjState, RaceHit};
pub use front_end::FrontEnd;
pub use points::{AccessPoint, ClassId, CompiledSpec, PointKind, TranslationStats};
pub use translate::{
    translate, translate_with, OptPass, TranslateError, A3_PIPELINE, MAX_ATOMS_PER_METHOD,
};

mod parallel;
pub use parallel::{ParallelConfig, ParallelRd2, ParallelStats, WorkerStats};
