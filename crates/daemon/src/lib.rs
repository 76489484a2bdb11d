//! `crace-daemon` — the multi-tenant streaming detection service.
//!
//! The offline pipeline (`crace replay`) analyzes a trace after the
//! fact; this crate turns the same detectors into a *service*: clients
//! stream framed trace records over a Unix-domain or TCP socket, the
//! daemon multiplexes any number of concurrent detection sessions —
//! each with its own spec, detector (serial `TraceDetector` or sharded
//! `ParallelRd2`), metrics registry, and optional span tracer — and
//! answers `GET /metrics` on the same socket with Prometheus or JSON
//! renderings of the merged state.
//!
//! Everything is std-only and thread-per-connection: no async runtime,
//! no HTTP or serialization dependency. The load-bearing invariants:
//!
//! * **Differential equality.** A healthy session's report is
//!   bit-for-bit the JSON `crace replay --json` produces for the same
//!   events, at any worker width — `tests/daemon_vs_replay.rs` proves
//!   it under concurrent tenants, chunked and dribbled writes.
//! * **Degradation contract.** Under overload or injected faults the
//!   daemon may *hide* races (shed data-plane events, quarantined
//!   analyses) but never invents them: synchronization events are never
//!   shed (a lost happens-before edge could fabricate races), and every
//!   loss is counted (`shed.*`, `stream.lost_*`).
//! * **Torn streams still report.** A client that dies mid-record gets
//!   the valid prefix analyzed and an outcome retained server-side with
//!   exact lost-bytes/records accounting — the socket analogue of
//!   `parse_framed_tolerant`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod ring;
pub mod server;
pub mod session;

pub use client::{parse_stats, Client, Transport, WireStats};
pub use protocol::{
    parse_request, valid_session_name, Hello, Request, MAX_LINE_BYTES, MAX_SESSION_NAME,
    MAX_SPEC_NAME, MAX_WORKERS,
};
pub use ring::IngressRing;
pub use server::{Endpoint, Server, ServerConfig};
pub use session::{Session, SessionConfig, SessionOutcome, StreamDamage};
