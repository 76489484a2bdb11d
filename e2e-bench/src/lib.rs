//! End-to-end benchmark of `crace`.
//!
//! Five workloads drive the repository's public APIs from outside and
//! time the calls: offline replay of a framed trace at two clock widths,
//! streaming the same events through the daemon, a durable daemon
//! session that is dropped and resumed, and the paper's Table 2 circuit
//! on real threads. Every output is checked (against offline replay, the
//! quadratic oracle, or the Table 2 race shape) while it is measured.
//!
//! An untraced run prints the end-to-end metrics of
//! [`catalog::END_TO_END`]; a traced run repeats the workload with spans
//! around every call into a layer and prints [`catalog::PER_LAYER`].
//! See `README.md` for the metric definitions and the run commands.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod harness;
mod replay;
pub mod schema;
pub mod stats;
mod stream;
mod table2;

use harness::{Opts, Outcome};

/// Runs the workload called `name`, or returns `None` for an unknown name.
pub fn run_workload(name: &str, opts: &Opts) -> Option<Outcome> {
    Some(match name {
        "replay-dense" => replay::run(opts, name, replay::DENSE, true),
        "replay-narrow" => replay::run(opts, name, replay::NARROW, false),
        "stream-narrow" => stream::run(opts, name, stream::NARROW),
        "stream-durable" => stream::run(opts, name, stream::DURABLE),
        "table2-live" => table2::run(opts, name),
        _ => return None,
    })
}
