//! Library half of the `crace` command-line tool: the textual trace
//! and simulator-program formats.
//!
//! Recorded executions can be stored as plain text, one event per line,
//! and replayed into any detector offline — the workflow RoadRunner users
//! get from its trace dumps:
//!
//! ```text
//! # fork/join/acq/rel <tid> <id>, act <tid> o<obj> name(args…)/ret
//! fork 0 1
//! fork 0 2
//! act 2 o1 put("a.com", 1)/nil
//! act 1 o1 put("a.com", 2)/1
//! join 0 1
//! join 0 2
//! act 0 o1 size()/1
//! ```
//!
//! See [`parse_trace`] and [`render_trace`]. Values are `nil`, `true`,
//! `false`, integers, `"strings"`, and `ref#N`. Method names are resolved
//! against a [`Spec`](crace_spec::Spec), so a trace file is interpreted relative to the
//! specification it is replayed under.
//!
//! [`parse_program`] and [`render_program`] do the same for the scripted
//! [`SimProgram`](crace_runtime::sim::SimProgram)s that `crace explore`
//! model-checks.
//!
//! For capture that must survive crashes there is a second, *framed*
//! trace format ([`render_framed`], [`frame_event`]): every event is a
//! length-prefixed, CRC-checksummed record, so a file torn mid-write is
//! detected ([`TraceErrorKind::Torn`]) and its intact prefix recovered
//! ([`parse_framed_tolerant`]). [`parse_trace`] auto-detects the framed
//! header, so framed files work everywhere plain ones do.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod framed;
mod progfmt;
mod tracefmt;

pub use framed::{
    crc32, frame_event, is_framed, parse_framed, parse_framed_record, parse_framed_tolerant,
    render_framed, TornTrace, FRAMED_HEADER,
};
pub use progfmt::{parse_program, render_program, ProgParseError};
pub use tracefmt::{parse_trace, render_trace, TraceErrorKind, TraceParseError};
