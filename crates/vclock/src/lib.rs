//! Vector clocks and happens-before machinery (§3.2 of the paper).
//!
//! This crate provides the temporal bookkeeping the detectors share:
//!
//! * [`VectorClock`] — the lattice `VC = Tid → ℕ` with pointwise order `⊑`,
//!   join `⊔`, bottom `⊥` and the per-component increment `inc_υ`,
//! * [`Epoch`] — FastTrack's compressed `c@t` clocks (one component plus the
//!   thread that owns it), used by the low-level baseline,
//! * [`SyncClocks`] — the standard Table 1 treatment of
//!   fork/join/acquire/release events, maintaining the thread-clock map
//!   `T : Tid → VC` and the lock-clock map `L : Lock → VC`,
//! * [`AdaptiveClock`] — a per-access-point clock that stays an epoch
//!   while accesses are totally ordered and promotes to a full vector on
//!   the first concurrent access, with [`ClockStats`] counting how often
//!   the compressed path was taken.
//!
//! # Examples
//!
//! ```
//! use crace_model::ThreadId;
//! use crace_vclock::VectorClock;
//!
//! let mut a = VectorClock::new();
//! a.inc(ThreadId(0));
//! let mut b = VectorClock::new();
//! b.inc(ThreadId(1));
//! // Two events on different threads with no synchronization in between
//! // are concurrent: their clocks are incomparable.
//! assert!(a.concurrent_with(&b));
//! assert!(a.le(&a.join(&b)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
pub mod ckpt;
mod clock;
mod epoch;
mod sync;

pub use adaptive::{AdaptiveClock, ClockStats, Observation};
pub use ckpt::{CkptError, CkptReader, CkptWriter};
pub use clock::VectorClock;
pub use epoch::Epoch;
pub use sync::SyncClocks;
