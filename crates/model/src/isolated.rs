//! The [`Isolated`] wrapper — panic isolation and graceful degradation
//! for any [`Analysis`].
//!
//! A buggy detector must never take the monitored application down with
//! it. `Isolated<A>` wraps every dispatch in [`std::panic::catch_unwind`]
//! and declares a simple degradation contract:
//!
//! * **fail open** — a panic inside the analysis is caught; the
//!   application thread that delivered the event keeps running;
//! * **quarantine** — after the first panic the analysis is considered
//!   compromised: subsequent events are shed (counted, not delivered),
//!   because its shadow state may be half-updated;
//! * **visible degradation** — the number of panics, the number of shed
//!   events, and the quarantine flag are exported as metrics
//!   (`<name>.analysis_panics`, `<name>.events_shed`,
//!   `<name>.degraded_mode`) via [`Isolated::feed`], never hidden.
//!
//! The soundness statement for the surrounding pipeline (see DESIGN.md,
//! "Failure model & degradation contract"): races reported over the
//! *delivered prefix* of the event stream are bit-for-bit identical to a
//! fault-free run over that same prefix. `Isolated` contributes to that
//! statement by making the boundary of the delivered prefix explicit —
//! everything before the first panic was delivered, everything after is
//! shed and counted.

use crate::{Action, Analysis, LocId, LockId, RaceReport, ThreadId};
use crace_obs::Registry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Wraps an [`Analysis`] so that a panic inside any callback is caught,
/// counted, and followed by quarantine instead of unwinding into (and
/// killing) the application thread that delivered the event.
///
/// # Examples
///
/// ```
/// use crace_model::{Analysis, Isolated, NoopAnalysis, ThreadId};
///
/// let iso = Isolated::new(NoopAnalysis::new());
/// iso.on_fork(ThreadId(0), ThreadId(1));
/// assert!(!iso.quarantined());
/// assert_eq!(iso.analysis_panics(), 0);
/// ```
pub struct Isolated<A> {
    inner: A,
    /// Set on the first caught panic; once set, events are shed.
    quarantined: AtomicBool,
    /// Total panics caught (report-path panics included).
    analysis_panics: AtomicU64,
    /// Events not delivered because the analysis was quarantined.
    events_shed: AtomicU64,
    /// Message of the most recent caught panic, for diagnostics.
    last_panic: Mutex<Option<String>>,
    /// When set, quarantine transitions and shed progress are recorded
    /// onto a tracer lane (see [`Isolated::with_tracer`]).
    trace: Option<ShieldTrace>,
}

/// Pre-resolved tracing handles of the shield: an instant event per
/// caught panic (the quarantine transition) and a running shed counter
/// sampled every [`SHED_SAMPLE`] shed events.
struct ShieldTrace {
    lane: std::sync::Arc<crace_obs::Lane>,
    p_panic: crace_obs::PhaseId,
    p_shed: crace_obs::PhaseId,
}

/// Sampling stride of the shed-counter trace events: dense enough to see
/// degradation progress on a timeline, sparse enough to stay off the
/// per-event cost profile.
const SHED_SAMPLE: u64 = 64;

impl<A: Analysis> Isolated<A> {
    /// Wraps `inner` in a fresh, un-quarantined shield.
    pub fn new(inner: A) -> Isolated<A> {
        Isolated {
            inner,
            quarantined: AtomicBool::new(false),
            analysis_panics: AtomicU64::new(0),
            events_shed: AtomicU64::new(0),
            last_panic: Mutex::new(None),
            trace: None,
        }
    }

    /// Wraps `inner` in a shield that records its degradation timeline
    /// onto `tracer`'s `shield` lane: one `shield.panic` instant per
    /// caught panic and a `shield.shed` counter sample every
    /// 64 shed events (plus the first).
    pub fn with_tracer(inner: A, tracer: &crace_obs::Tracer) -> Isolated<A> {
        let mut isolated = Isolated::new(inner);
        isolated.trace = Some(ShieldTrace {
            lane: tracer.lane("shield"),
            p_panic: tracer.phase("shield.panic"),
            p_shed: tracer.phase("shield.shed"),
        });
        isolated
    }

    /// The wrapped analysis. Its shadow state is suspect once
    /// [`Isolated::quarantined`] returns true.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Consumes the shield, returning the wrapped analysis.
    pub fn into_inner(self) -> A {
        self.inner
    }

    /// True once a panic has been caught; all later events are shed.
    pub fn quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Acquire)
    }

    /// Number of panics caught so far.
    pub fn analysis_panics(&self) -> u64 {
        self.analysis_panics.load(Ordering::Relaxed)
    }

    /// Number of events shed (not delivered) due to quarantine.
    pub fn events_shed(&self) -> u64 {
        self.events_shed.load(Ordering::Relaxed)
    }

    /// Message of the most recent caught panic, if any.
    pub fn last_panic(&self) -> Option<String> {
        self.last_panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Exports the degradation counters into `registry`:
    /// `<name>.analysis_panics` and `<name>.events_shed` counters plus a
    /// `<name>.degraded_mode` gauge (1.0 when quarantined, else 0.0).
    pub fn feed(&self, registry: &Registry) {
        let name = self.inner.name();
        registry
            .counter(&format!("{name}.analysis_panics"))
            .advance_to(self.analysis_panics());
        registry
            .counter(&format!("{name}.events_shed"))
            .advance_to(self.events_shed());
        registry
            .gauge(&format!("{name}.degraded_mode"))
            .set(if self.quarantined() { 1.0 } else { 0.0 });
    }

    /// Records a caught panic: counts it, captures its message, and
    /// trips the quarantine.
    fn trip(&self, payload: Box<dyn std::any::Any + Send>) {
        self.analysis_panics.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.trace {
            t.lane.instant(t.p_panic);
        }
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        *self
            .last_panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(msg);
        self.quarantined.store(true, Ordering::Release);
    }

    /// Delivers one dispatch through the shield: shed if quarantined,
    /// otherwise run under `catch_unwind` and quarantine on panic.
    ///
    /// `AssertUnwindSafe` is justified by the quarantine itself: the only
    /// state that might be left inconsistent by the unwind belongs to
    /// `self.inner`, and after a panic that state is never read again
    /// except through the equally shielded `report()` path.
    fn shield(&self, f: impl FnOnce()) {
        if self.quarantined() {
            let shed = self.events_shed.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(t) = &self.trace {
                if shed % SHED_SAMPLE == 1 {
                    t.lane.counter(t.p_shed, shed);
                }
            }
            return;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
            self.trip(payload);
        }
    }
}

impl<A: Analysis> Analysis for Isolated<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_fork(&self, parent: ThreadId, child: ThreadId) {
        self.shield(|| self.inner.on_fork(parent, child));
    }

    fn on_join(&self, parent: ThreadId, child: ThreadId) {
        self.shield(|| self.inner.on_join(parent, child));
    }

    fn on_acquire(&self, tid: ThreadId, lock: LockId) {
        self.shield(|| self.inner.on_acquire(tid, lock));
    }

    fn on_release(&self, tid: ThreadId, lock: LockId) {
        self.shield(|| self.inner.on_release(tid, lock));
    }

    fn on_action(&self, tid: ThreadId, action: &Action) {
        self.shield(|| self.inner.on_action(tid, action));
    }

    fn on_read(&self, tid: ThreadId, loc: LocId) {
        self.shield(|| self.inner.on_read(tid, loc));
    }

    fn on_write(&self, tid: ThreadId, loc: LocId) {
        self.shield(|| self.inner.on_write(tid, loc));
    }

    fn abandon_thread(&self, tid: ThreadId) {
        self.shield(|| self.inner.abandon_thread(tid));
    }

    /// Fail-open report: races found before the quarantine are returned
    /// if the inner report path still works; a panicking report path
    /// yields an empty report rather than an unwinding one.
    fn report(&self) -> RaceReport {
        match catch_unwind(AssertUnwindSafe(|| self.inner.report())) {
            Ok(report) => report,
            Err(payload) => {
                self.trip(payload);
                RaceReport::new()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MethodId, NoopAnalysis, ObjId, RaceKind, RaceRecord, Value};
    use crace_obs::MetricValue;
    use std::sync::atomic::AtomicU64 as Count;

    /// Panics on the `n`-th action (1-based); counts deliveries.
    struct Grenade {
        fuse: u64,
        delivered: Count,
    }

    impl Grenade {
        fn armed(fuse: u64) -> Grenade {
            Grenade {
                fuse,
                delivered: Count::new(0),
            }
        }
    }

    impl Analysis for Grenade {
        fn name(&self) -> &str {
            "grenade"
        }
        fn on_fork(&self, _: ThreadId, _: ThreadId) {}
        fn on_join(&self, _: ThreadId, _: ThreadId) {}
        fn on_acquire(&self, _: ThreadId, _: LockId) {}
        fn on_release(&self, _: ThreadId, _: LockId) {}
        fn on_action(&self, _: ThreadId, _: &Action) {
            let n = self.delivered.fetch_add(1, Ordering::Relaxed) + 1;
            if n == self.fuse {
                panic!("boom at delivery {n}");
            }
        }
        fn report(&self) -> RaceReport {
            let mut r = RaceReport::new();
            r.record(RaceRecord {
                kind: RaceKind::Commutativity { obj: ObjId(1) },
                tid: ThreadId(0),
                action: None,
                detail: String::new(),
                provenance: None,
            });
            r
        }
    }

    fn action() -> Action {
        Action::new(ObjId(0), MethodId(0), vec![Value::Int(1)], Value::Nil)
    }

    /// Runs `f` with the default panic hook silenced, so intentional
    /// panics don't spam test output.
    fn quiet<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn panic_is_caught_and_quarantines() {
        quiet(|| {
            let iso = Isolated::new(Grenade::armed(3));
            for _ in 0..5 {
                iso.on_action(ThreadId(0), &action());
            }
            assert!(iso.quarantined());
            assert_eq!(iso.analysis_panics(), 1);
            // Events 4 and 5 were shed, not delivered.
            assert_eq!(iso.events_shed(), 2);
            assert_eq!(iso.inner().delivered.load(Ordering::Relaxed), 3);
            assert_eq!(iso.last_panic().as_deref(), Some("boom at delivery 3"));
        });
    }

    #[test]
    fn fail_open_report_survives_quarantine() {
        quiet(|| {
            let iso = Isolated::new(Grenade::armed(1));
            iso.on_action(ThreadId(0), &action());
            assert!(iso.quarantined());
            // Report path still works: races found so far are returned.
            assert_eq!(iso.report().total(), 1);
        });
    }

    #[test]
    fn report_path_panic_yields_empty_report() {
        struct BadReport;
        impl Analysis for BadReport {
            fn name(&self) -> &str {
                "badreport"
            }
            fn on_fork(&self, _: ThreadId, _: ThreadId) {}
            fn on_join(&self, _: ThreadId, _: ThreadId) {}
            fn on_acquire(&self, _: ThreadId, _: LockId) {}
            fn on_release(&self, _: ThreadId, _: LockId) {}
            fn on_action(&self, _: ThreadId, _: &Action) {}
            fn report(&self) -> RaceReport {
                panic!("report path broken");
            }
        }
        quiet(|| {
            let iso = Isolated::new(BadReport);
            assert!(iso.report().is_empty());
            assert!(iso.quarantined());
            assert_eq!(iso.analysis_panics(), 1);
        });
    }

    #[test]
    fn healthy_analysis_is_transparent() {
        let iso = Isolated::new(NoopAnalysis::new());
        iso.on_fork(ThreadId(0), ThreadId(1));
        iso.on_acquire(ThreadId(1), LockId(0));
        iso.on_action(ThreadId(1), &action());
        iso.on_release(ThreadId(1), LockId(0));
        iso.on_join(ThreadId(0), ThreadId(1));
        iso.abandon_thread(ThreadId(1));
        assert!(!iso.quarantined());
        assert_eq!(iso.analysis_panics(), 0);
        assert_eq!(iso.events_shed(), 0);
        assert!(iso.report().is_empty());
        assert!(iso.last_panic().is_none());
    }

    #[test]
    fn feed_exports_degradation_metrics() {
        quiet(|| {
            let iso = Isolated::new(Grenade::armed(1));
            let registry = Registry::new();
            iso.feed(&registry);
            assert_eq!(
                registry.snapshot().get("grenade.degraded_mode"),
                Some(&MetricValue::Gauge(0.0))
            );

            iso.on_action(ThreadId(0), &action());
            iso.on_action(ThreadId(0), &action());
            iso.feed(&registry);
            // Feeding twice must not double-count.
            iso.feed(&registry);
            let snap = registry.snapshot();
            assert_eq!(
                snap.get("grenade.analysis_panics"),
                Some(&MetricValue::Counter(1))
            );
            assert_eq!(
                snap.get("grenade.events_shed"),
                Some(&MetricValue::Counter(1))
            );
            assert_eq!(
                snap.get("grenade.degraded_mode"),
                Some(&MetricValue::Gauge(1.0))
            );
        });
    }
}
