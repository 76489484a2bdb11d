//! Epoch-compressed clocks that promote to full vectors on contention.

use crate::{Epoch, VectorClock};
use crace_model::ThreadId;
use std::fmt;

/// How an [`AdaptiveClock::observe`] call updated the representation — fed
/// into the detectors' [`ClockStats`] counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Observation {
    /// The clock stayed an epoch: same owning thread, or an ordered
    /// handoff to a new one. This is the O(1) fast path.
    EpochFast,
    /// The clock was an epoch but the observing access was concurrent with
    /// it, so it was promoted to a full vector.
    Promoted,
    /// The clock was already a vector; a pointwise join was performed.
    VectorJoin,
}

/// The clock of one active access point, stored adaptively: a FastTrack
/// [`Epoch`] `c@t` while the point's accesses are totally ordered, a full
/// [`VectorClock`] once two concurrent accesses have touched it.
///
/// This is the access-point analogue of FastTrack's insight about memory
/// locations: the overwhelming majority of points (a dictionary key, say)
/// are only ever touched by one thread at a time, so keeping the whole
/// `pt.vc` vector — and joining into it on every touch — wastes both space
/// and time. An epoch compares and updates in O(1).
///
/// # Exactness
///
/// Against the clocks produced by [`crate::SyncClocks`] over a
/// *well-formed* trace (no events of a thread after it is joined), the
/// adaptive representation answers every happens-before query identically
/// to the full vector it stands for:
///
/// * An epoch `c@t` stands for the acting thread's full clock `C` at the
///   access, where `c = C(t)`. Every export of `t`'s component (fork,
///   release) publishes `t`'s *entire* clock and then increments `t`'s own
///   component, and a join publishes the child's final clock. So any later
///   thread clock `D` with `D(t) ≥ c` necessarily absorbed all of `C`,
///   giving `c ≤ D(t) ⟺ C ⊑ D` — the epoch test is exact.
/// * Promotion materializes the epoch into the join `D ⊔ {t ↦ c}` where
///   `D` is the promoting access's clock. The hidden remainder of `C` is
///   dominated by any clock that dominates `c@t` (same argument), so every
///   subsequent `⊑`-query against thread clocks is unchanged.
///
/// The differential test `tests/adaptive_vs_full.rs` checks this claim
/// end-to-end: random traces produce bit-for-bit identical race reports
/// under both representations.
///
/// # Examples
///
/// ```
/// use crace_model::ThreadId;
/// use crace_vclock::{AdaptiveClock, Observation, VectorClock};
///
/// let t0 = VectorClock::from_components([1, 0]);
/// let t1 = VectorClock::from_components([0, 1]);
/// let mut clock = AdaptiveClock::first(ThreadId(0), &t0);
/// assert!(clock.is_epoch());
/// // A concurrent access by thread 1 forces promotion …
/// assert!(!clock.le(&t1));
/// assert_eq!(clock.observe(ThreadId(1), &t1), Observation::Promoted);
/// // … to the exact join of both access clocks.
/// assert_eq!(clock.to_vector(), VectorClock::from_components([1, 1]));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdaptiveClock {
    /// All accesses so far are totally ordered; the last one is `c@t`.
    Epoch(Epoch),
    /// Concurrent accesses have been observed; the full `pt.vc` join.
    Vector(VectorClock),
}

impl AdaptiveClock {
    /// The clock of a point's *first* access, by `tid` at thread clock
    /// `clock`: always an epoch.
    ///
    /// `clock` must be a live thread clock, i.e. `clock(tid) ≥ 1` (the
    /// [`crate::SyncClocks`] initialization invariant); a zero own
    /// component would alias the "never accessed" epoch.
    pub fn first(tid: ThreadId, clock: &VectorClock) -> AdaptiveClock {
        debug_assert!(clock.get(tid) >= 1, "clock of {tid} not initialized");
        AdaptiveClock::Epoch(Epoch::of(tid, clock))
    }

    /// Phase-1 test of Algorithm 1: does every access summarized by this
    /// clock happen before an event at `clock`?
    #[inline]
    pub fn le(&self, clock: &VectorClock) -> bool {
        match self {
            AdaptiveClock::Epoch(e) => e.le_clock(clock),
            AdaptiveClock::Vector(v) => v.le(clock),
        }
    }

    /// Phase-2 update of Algorithm 1: fold an access by `tid` at thread
    /// clock `clock` into this point's clock, keeping the epoch
    /// representation whenever the access is ordered after everything the
    /// clock summarizes.
    pub fn observe(&mut self, tid: ThreadId, clock: &VectorClock) -> Observation {
        match self {
            AdaptiveClock::Epoch(e) => {
                if e.tid() == tid || e.le_clock(clock) {
                    // Same thread (per-thread clocks are monotone), or an
                    // ordered handoff: the new access dominates the old
                    // one, so its thread clock is the exact new `pt.vc`.
                    *e = Epoch::of(tid, clock);
                    Observation::EpochFast
                } else {
                    // Concurrent access: materialize the epoch and join.
                    let mut v = clock.clone();
                    if e.clock() > v.get(e.tid()) {
                        v.set(e.tid(), e.clock());
                    }
                    *self = AdaptiveClock::Vector(v);
                    Observation::Promoted
                }
            }
            AdaptiveClock::Vector(v) => {
                v.join_in_place(clock);
                Observation::VectorJoin
            }
        }
    }

    /// Returns `true` while the clock is in the compressed representation.
    #[inline]
    pub fn is_epoch(&self) -> bool {
        matches!(self, AdaptiveClock::Epoch(_))
    }

    /// The clock as a full vector (materializing an epoch to its single
    /// known component). For diagnostics and tests; the detectors never
    /// need this on the hot path.
    pub fn to_vector(&self) -> VectorClock {
        match self {
            AdaptiveClock::Epoch(e) => {
                let mut v = VectorClock::new();
                v.set(e.tid(), e.clock());
                v
            }
            AdaptiveClock::Vector(v) => v.clone(),
        }
    }
}

impl fmt::Display for AdaptiveClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdaptiveClock::Epoch(e) => write!(f, "{e}"),
            AdaptiveClock::Vector(v) => write!(f, "{v}"),
        }
    }
}

/// Counters describing how a detector's adaptive clocks behaved — the
/// epoch-hit rate the benchmarks report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClockStats {
    /// Phase-2 updates that stayed in the epoch representation.
    pub epoch_updates: u64,
    /// Phase-2 updates that promoted an epoch to a full vector.
    pub promotions: u64,
    /// Phase-2 updates that joined into an existing full vector.
    pub vector_updates: u64,
}

impl ClockStats {
    /// Folds one observation into the counters.
    pub fn record(&mut self, obs: Observation) {
        match obs {
            Observation::EpochFast => self.epoch_updates += 1,
            Observation::Promoted => self.promotions += 1,
            Observation::VectorJoin => self.vector_updates += 1,
        }
    }

    /// Total phase-2 updates counted.
    pub fn total(&self) -> u64 {
        self.epoch_updates + self.promotions + self.vector_updates
    }

    /// Fraction of updates served by the O(1) epoch path, in `[0, 1]`.
    pub fn epoch_hit_rate(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.epoch_updates as f64 / self.total() as f64
    }

    /// Componentwise sum, for aggregating per-object stats.
    pub fn merge(&mut self, other: &ClockStats) {
        self.epoch_updates += other.epoch_updates;
        self.promotions += other.promotions;
        self.vector_updates += other.vector_updates;
    }
}

impl fmt::Display for ClockStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} epoch / {} promoted / {} vector ({:.1}% epoch hits)",
            self.epoch_updates,
            self.promotions,
            self.vector_updates,
            self.epoch_hit_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(c: &[u64]) -> VectorClock {
        VectorClock::from_components(c.iter().copied())
    }

    #[test]
    fn same_thread_accesses_stay_epoch() {
        let mut c = AdaptiveClock::first(ThreadId(0), &vc(&[1]));
        assert_eq!(c.observe(ThreadId(0), &vc(&[2])), Observation::EpochFast);
        assert_eq!(c.observe(ThreadId(0), &vc(&[5])), Observation::EpochFast);
        assert!(c.is_epoch());
        assert_eq!(c.to_vector(), vc(&[5]));
    }

    #[test]
    fn ordered_handoff_stays_epoch() {
        // τ0 accesses at ⟨2,0⟩; τ1 has synchronized (clock ⟨2,1⟩ ⊒ 2@0).
        let mut c = AdaptiveClock::first(ThreadId(0), &vc(&[2, 0]));
        assert_eq!(c.observe(ThreadId(1), &vc(&[2, 1])), Observation::EpochFast);
        assert!(c.is_epoch());
        // The epoch now belongs to τ1.
        assert!(!c.le(&vc(&[9, 0])));
        assert!(c.le(&vc(&[0, 1])));
    }

    #[test]
    fn concurrent_access_promotes_to_exact_join() {
        let mut c = AdaptiveClock::first(ThreadId(0), &vc(&[3, 0]));
        assert_eq!(c.observe(ThreadId(1), &vc(&[0, 2])), Observation::Promoted);
        assert!(!c.is_epoch());
        // ⟨3,0⟩ known only as 3@0, joined with ⟨0,2⟩.
        assert_eq!(c.to_vector(), vc(&[3, 2]));
        // Later accesses join as plain vectors.
        assert_eq!(
            c.observe(ThreadId(2), &vc(&[0, 0, 4])),
            Observation::VectorJoin
        );
        assert_eq!(c.to_vector(), vc(&[3, 2, 4]));
    }

    #[test]
    fn le_matches_the_materialized_vector() {
        let epoch = AdaptiveClock::first(ThreadId(1), &vc(&[0, 4]));
        for probe in [vc(&[0, 4]), vc(&[9, 3]), vc(&[1, 7]), vc(&[])] {
            assert_eq!(epoch.le(&probe), epoch.to_vector().le(&probe), "{probe}");
        }
    }

    #[test]
    fn promotion_keeps_larger_own_component() {
        // The epoch's component exceeds the promoting clock's view of that
        // thread: the max must win or later queries would falsely order.
        let mut c = AdaptiveClock::first(ThreadId(0), &vc(&[7]));
        c.observe(ThreadId(1), &vc(&[2, 1]));
        assert_eq!(c.to_vector(), vc(&[7, 1]));
    }

    #[test]
    fn stats_track_hit_rate() {
        let mut stats = ClockStats::default();
        stats.record(Observation::EpochFast);
        stats.record(Observation::EpochFast);
        stats.record(Observation::Promoted);
        stats.record(Observation::VectorJoin);
        assert_eq!(stats.total(), 4);
        assert_eq!(stats.epoch_hit_rate(), 0.5);
        let mut agg = ClockStats::default();
        agg.merge(&stats);
        agg.merge(&stats);
        assert_eq!(agg.total(), 8);
        assert_eq!(
            agg.to_string(),
            "4 epoch / 2 promoted / 2 vector (50.0% epoch hits)"
        );
    }

    #[test]
    fn empty_stats_have_zero_hit_rate() {
        assert_eq!(ClockStats::default().epoch_hit_rate(), 0.0);
    }

    #[test]
    fn display_shows_representation() {
        let e = AdaptiveClock::first(ThreadId(1), &vc(&[0, 3]));
        assert_eq!(e.to_string(), "3@τ1");
        let mut v = e.clone();
        v.observe(ThreadId(0), &vc(&[1, 0]));
        assert_eq!(v.to_string(), "⟨1, 3⟩");
    }
}
