//! The [`Observer`] — an [`Analysis`] that wraps any other analysis and
//! measures it.
//!
//! The observer is a *tee*: every event is forwarded to the wrapped
//! detector unchanged, while a [`crace_obs::Registry`] accumulates
//! per-kind event counts and (sampled) per-dispatch latency histograms.
//! Wrapping costs one relaxed atomic increment per event plus, on every
//! `sample_every`-th event, two monotonic clock reads — measured well
//! under 5% of a bare RD2 dispatch (see EXPERIMENTS.md).

use crate::{Action, Analysis, LocId, LockId, RaceReport, ThreadId};
use crace_obs::{Counter, Histogram, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of event kinds ([`Event`] variants) tracked separately.
const KINDS: usize = 7;

/// Metric-name suffix per event kind; the index is the `kind` each
/// `Analysis` callback passes to [`Observer::observe`].
const KIND_NAMES: [&str; KINDS] = [
    "fork", "join", "acquire", "release", "action", "read", "write",
];

/// Default sampling period for dispatch timing: time one event in 64.
/// Counting stays exact; only the latency histogram is sampled.
pub const DEFAULT_SAMPLE_EVERY: u64 = 64;

/// Wraps an [`Analysis`], forwarding every callback while recording
/// per-kind event counters (`<name>.events.<kind>`, exact) and sampled
/// dispatch-latency histograms (`<name>.event_ns.<kind>`, nanoseconds).
///
/// [`Observer::snapshot`] additionally folds the wrapped detector's
/// current [`RaceReport`] into the registry (`<name>.races.total`,
/// `<name>.races.distinct`, and a `<name>.races.site.<site>` counter per
/// racing object), so one snapshot carries the whole picture.
///
/// # Examples
///
/// ```
/// use crace_model::{Analysis, Event, NoopAnalysis, Observer, ThreadId};
///
/// let obs = Observer::new(NoopAnalysis::new());
/// obs.on_event(&Event::Fork { parent: ThreadId(0), child: ThreadId(1) });
/// let snap = obs.snapshot();
/// assert_eq!(
///     snap.get("uninstrumented.events.fork"),
///     Some(&crace_obs::MetricValue::Counter(1))
/// );
/// ```
pub struct Observer<A> {
    inner: A,
    registry: Arc<Registry>,
    /// `<name>.events.<kind>` counters, pre-resolved so the hot path does
    /// no registry lookups.
    events: [Arc<Counter>; KINDS],
    /// `<name>.event_ns.<kind>` histograms, likewise pre-resolved.
    latency: [Arc<Histogram>; KINDS],
    /// Global event sequence, used only to pick timing samples.
    seq: AtomicU64,
    sample_every: u64,
}

impl<A: Analysis> Observer<A> {
    /// Wraps `inner` with a fresh registry and default timing sampling.
    pub fn new(inner: A) -> Observer<A> {
        Observer::with_registry(inner, Arc::new(Registry::new()))
    }

    /// Wraps `inner`, recording into a shared `registry` (so one snapshot
    /// can span several observed detectors, or application metrics).
    pub fn with_registry(inner: A, registry: Arc<Registry>) -> Observer<A> {
        Observer::with_sampling(inner, registry, DEFAULT_SAMPLE_EVERY)
    }

    /// Wraps `inner` with a fresh registry and an explicit dispatch-latency
    /// sampling rate: time one event in `rate` (`1` times every dispatch,
    /// `0` disables timing). Event counting stays exact regardless. The
    /// default rate is [`DEFAULT_SAMPLE_EVERY`] (64), surfaced on the CLI
    /// as `crace replay --metrics --sample-rate <n>`.
    pub fn with_sample_rate(inner: A, rate: u64) -> Observer<A> {
        Observer::with_sampling(inner, Arc::new(Registry::new()), rate)
    }

    /// Full-control constructor: `sample_every` = 1 times every dispatch
    /// (highest fidelity, highest overhead); 0 disables timing entirely.
    pub fn with_sampling(inner: A, registry: Arc<Registry>, sample_every: u64) -> Observer<A> {
        let name = inner.name().to_string();
        let events = KIND_NAMES.map(|k| registry.counter(&format!("{name}.events.{k}")));
        let latency = KIND_NAMES.map(|k| registry.histogram(&format!("{name}.event_ns.{k}")));
        Observer {
            inner,
            registry,
            events,
            latency,
            seq: AtomicU64::new(0),
            sample_every,
        }
    }

    /// The wrapped analysis.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Consumes the observer, returning the wrapped analysis.
    pub fn into_inner(self) -> A {
        self.inner
    }

    /// The registry this observer records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Folds the wrapped detector's race report into the registry and
    /// returns a point-in-time snapshot of everything recorded so far.
    pub fn snapshot(&self) -> crace_obs::Snapshot {
        let name = self.inner.name();
        let report = self.inner.report();
        self.registry
            .gauge(&format!("{name}.races.total"))
            .set(report.total() as f64);
        self.registry
            .gauge(&format!("{name}.races.distinct"))
            .set(report.distinct() as f64);
        for (site, count) in report.per_site() {
            self.registry
                .counter(&format!("{name}.races.site.{site}"))
                .advance_to(count);
        }
        self.registry.snapshot()
    }

    /// Counts `kind`, runs `f`, and (on sampled events) records its wall
    /// time into the kind's latency histogram.
    #[inline]
    fn observe(&self, kind: usize, f: impl FnOnce()) {
        self.events[kind].inc();
        let timed = self.sample_every != 0
            && self
                .seq
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(self.sample_every);
        if timed {
            let start = Instant::now();
            f();
            self.latency[kind].record(start.elapsed().as_nanos() as u64);
        } else {
            f();
        }
    }
}

impl<A: Analysis> Analysis for Observer<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_fork(&self, parent: ThreadId, child: ThreadId) {
        self.observe(0, || self.inner.on_fork(parent, child));
    }

    fn on_join(&self, parent: ThreadId, child: ThreadId) {
        self.observe(1, || self.inner.on_join(parent, child));
    }

    fn on_acquire(&self, tid: ThreadId, lock: LockId) {
        self.observe(2, || self.inner.on_acquire(tid, lock));
    }

    fn on_release(&self, tid: ThreadId, lock: LockId) {
        self.observe(3, || self.inner.on_release(tid, lock));
    }

    fn on_action(&self, tid: ThreadId, action: &Action) {
        self.observe(4, || self.inner.on_action(tid, action));
    }

    fn on_read(&self, tid: ThreadId, loc: LocId) {
        self.observe(5, || self.inner.on_read(tid, loc));
    }

    fn on_write(&self, tid: ThreadId, loc: LocId) {
        self.observe(6, || self.inner.on_write(tid, loc));
    }

    fn abandon_thread(&self, tid: ThreadId) {
        // Control-plane notification, not a trace event: forward without
        // counting it against any event kind.
        self.inner.abandon_thread(tid);
    }

    fn report(&self) -> RaceReport {
        self.inner.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, MethodId, NoopAnalysis, ObjId, RaceKind, RaceRecord, Value};
    use crace_obs::MetricValue;
    use std::sync::Mutex;

    /// Reports one canned race per `report()` call count — enough to test
    /// snapshot folding.
    struct OneRace;

    impl Analysis for OneRace {
        fn name(&self) -> &str {
            "onerace"
        }
        fn on_fork(&self, _: ThreadId, _: ThreadId) {}
        fn on_join(&self, _: ThreadId, _: ThreadId) {}
        fn on_acquire(&self, _: ThreadId, _: LockId) {}
        fn on_release(&self, _: ThreadId, _: LockId) {}
        fn on_action(&self, _: ThreadId, _: &Action) {}
        fn report(&self) -> RaceReport {
            let mut r = RaceReport::new();
            r.record(RaceRecord {
                kind: RaceKind::Commutativity { obj: ObjId(9) },
                tid: ThreadId(1),
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

    #[test]
    fn counts_every_event_kind_exactly() {
        let obs = Observer::new(NoopAnalysis::new());
        for _ in 0..10 {
            obs.on_action(ThreadId(0), &action());
        }
        obs.on_fork(ThreadId(0), ThreadId(1));
        obs.on_read(ThreadId(1), LocId(4));
        let snap = obs.snapshot();
        assert_eq!(
            snap.get("uninstrumented.events.action"),
            Some(&MetricValue::Counter(10))
        );
        assert_eq!(
            snap.get("uninstrumented.events.fork"),
            Some(&MetricValue::Counter(1))
        );
        assert_eq!(
            snap.get("uninstrumented.events.read"),
            Some(&MetricValue::Counter(1))
        );
    }

    #[test]
    fn sampled_timing_records_some_latencies() {
        let obs = Observer::with_sampling(NoopAnalysis::new(), Arc::new(Registry::new()), 1);
        for _ in 0..5 {
            obs.on_action(ThreadId(0), &action());
        }
        let snap = obs.snapshot();
        match snap.get("uninstrumented.event_ns.action") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count, 5),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn sampling_zero_disables_timing() {
        let obs = Observer::with_sampling(NoopAnalysis::new(), Arc::new(Registry::new()), 0);
        obs.on_action(ThreadId(0), &action());
        let snap = obs.snapshot();
        match snap.get("uninstrumented.event_ns.action") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count, 0),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_folds_race_report_in() {
        let obs = Observer::new(OneRace);
        let snap = obs.snapshot();
        assert_eq!(
            snap.get("onerace.races.total"),
            Some(&MetricValue::Gauge(1.0))
        );
        assert_eq!(
            snap.get("onerace.races.site.o9"),
            Some(&MetricValue::Counter(1))
        );
        // Snapshotting twice must not double-count sites.
        let snap = obs.snapshot();
        assert_eq!(
            snap.get("onerace.races.site.o9"),
            Some(&MetricValue::Counter(1))
        );
    }

    #[test]
    fn events_are_forwarded_in_order() {
        struct Log(Mutex<Vec<&'static str>>);
        impl Analysis for Log {
            fn name(&self) -> &str {
                "log"
            }
            fn on_fork(&self, _: ThreadId, _: ThreadId) {
                self.0.lock().unwrap().push("fork");
            }
            fn on_join(&self, _: ThreadId, _: ThreadId) {
                self.0.lock().unwrap().push("join");
            }
            fn on_acquire(&self, _: ThreadId, _: LockId) {
                self.0.lock().unwrap().push("acq");
            }
            fn on_release(&self, _: ThreadId, _: LockId) {
                self.0.lock().unwrap().push("rel");
            }
            fn on_action(&self, _: ThreadId, _: &Action) {
                self.0.lock().unwrap().push("action");
            }
            fn report(&self) -> RaceReport {
                RaceReport::new()
            }
        }
        let obs = Observer::new(Log(Mutex::new(Vec::new())));
        obs.on_event(&Event::Fork {
            parent: ThreadId(0),
            child: ThreadId(1),
        });
        obs.on_event(&Event::Action {
            tid: ThreadId(1),
            action: action(),
        });
        obs.on_event(&Event::Join {
            parent: ThreadId(0),
            child: ThreadId(1),
        });
        assert_eq!(
            *obs.inner().0.lock().unwrap(),
            vec!["fork", "action", "join"]
        );
    }
}
