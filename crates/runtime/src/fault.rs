//! The fault plane: deterministic, seeded fault injection for chaos runs.
//!
//! A [`FaultPlan`] maps *global event indices* to [`Fault`]s. The index
//! counts every analysis dispatch slot the runtime (or the simulator)
//! would perform, in emission order, so the same plan replayed against
//! the same schedule fires at exactly the same points — chaos runs are
//! replayable by construction.
//!
//! Three fault kinds cover the failure modes the degradation contract
//! (DESIGN.md) speaks about:
//!
//! * [`Fault::PanicThread`] — the thread delivering the event panics
//!   instead; inside a monitored object this means dying while holding a
//!   shard lock, between a `TrackedMutex` acquire and release it means a
//!   poisoned-lock scenario,
//! * [`Fault::Drop`] — the analysis dispatch is silently lost (a shed
//!   event), modelling an overloaded or lossy telemetry channel. Only
//!   data-plane dispatches (actions, reads, writes) are sheddable;
//!   synchronization events always deliver, because a lost
//!   happens-before edge would make detectors report races the program
//!   cannot have — a drop planned on a sync slot is suppressed,
//! * [`Fault::Delay`] — the dispatch is delayed by a bounded number of
//!   microseconds, modelling a slow analysis without losing the event.
//!
//! A [`FaultInjector`] owns a plan plus the monotone event cursor and the
//! degradation counters; it is the object the runtime consults once per
//! dispatch slot.

use crace_model::Analysis;
use crace_obs::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// One injectable fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The thread delivering the event panics instead of delivering it.
    PanicThread,
    /// The dispatch is dropped: the event never reaches the analysis.
    Drop,
    /// The dispatch is delayed by this many microseconds, then delivered.
    Delay(u64),
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::PanicThread => write!(f, "panic"),
            Fault::Drop => write!(f, "drop"),
            Fault::Delay(us) => write!(f, "delay:{us}"),
        }
    }
}

/// A deterministic schedule of faults, keyed by global event index.
///
/// # Examples
///
/// ```
/// use crace_runtime::fault::{Fault, FaultPlan};
///
/// let plan = FaultPlan::new().with(5, Fault::PanicThread).with(9, Fault::Drop);
/// assert_eq!(plan.get(5), Some(Fault::PanicThread));
/// assert_eq!(plan.first_index(), Some(5));
/// assert_eq!(FaultPlan::parse(&plan.render()).unwrap(), plan);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<u64, Fault>,
}

impl FaultPlan {
    /// The empty plan: no faults ever fire.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a fault at event index `at` (replacing any fault already
    /// planned there) and returns the plan, builder-style.
    pub fn with(mut self, at: u64, fault: Fault) -> FaultPlan {
        self.faults.insert(at, fault);
        self
    }

    /// Draws `count` faults at distinct indices in `0..horizon` from a
    /// seeded RNG. Same `(seed, horizon, count)` → same plan, always.
    pub fn seeded(seed: u64, horizon: u64, count: usize) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        if horizon == 0 {
            return plan;
        }
        let mut attempts = 0;
        while plan.faults.len() < count && attempts < count * 16 {
            attempts += 1;
            let at = rng.gen_range(0..horizon);
            let fault = match rng.gen_range(0u32..3) {
                0 => Fault::PanicThread,
                1 => Fault::Drop,
                _ => Fault::Delay(rng.gen_range(1..500)),
            };
            plan.faults.entry(at).or_insert(fault);
        }
        plan
    }

    /// Parses the textual form produced by [`FaultPlan::render`]:
    /// comma-separated `panic@IDX`, `drop@IDX`, `delay@IDX:MICROS`
    /// entries (an empty string is the empty plan).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed entry.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for entry in text.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (kind, rest) = entry
                .split_once('@')
                .ok_or_else(|| format!("fault `{entry}`: expected `<kind>@<index>`"))?;
            let fault = match kind {
                "panic" => Fault::PanicThread,
                "drop" => Fault::Drop,
                "delay" => {
                    let (_, us) = rest
                        .split_once(':')
                        .ok_or_else(|| format!("fault `{entry}`: expected `delay@IDX:MICROS`"))?;
                    Fault::Delay(
                        us.parse()
                            .map_err(|_| format!("fault `{entry}`: bad delay `{us}`"))?,
                    )
                }
                other => return Err(format!("fault `{entry}`: unknown kind `{other}`")),
            };
            let idx = rest.split(':').next().unwrap_or(rest);
            let at: u64 = idx
                .parse()
                .map_err(|_| format!("fault `{entry}`: bad index `{idx}`"))?;
            plan.faults.insert(at, fault);
        }
        Ok(plan)
    }

    /// Renders the plan in the form [`FaultPlan::parse`] accepts.
    pub fn render(&self) -> String {
        self.faults
            .iter()
            .map(|(at, fault)| match fault {
                Fault::Delay(us) => format!("delay@{at}:{us}"),
                other => format!("{other}@{at}"),
            })
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The fault planned at event index `at`, if any.
    pub fn get(&self, at: u64) -> Option<Fault> {
        self.faults.get(&at).copied()
    }

    /// The smallest event index with a planned fault.
    pub fn first_index(&self) -> Option<u64> {
        self.faults.keys().next().copied()
    }

    /// True iff no faults are planned.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Iterates over `(index, fault)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Fault)> + '_ {
        self.faults.iter().map(|(&at, &f)| (at, f))
    }
}

/// Degradation counters accumulated while a plan executes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Degradation {
    /// Thread panics injected.
    pub panics_injected: u64,
    /// Dispatches dropped before reaching the analysis.
    pub events_dropped: u64,
    /// Dispatches delayed (then delivered).
    pub events_delayed: u64,
}

/// Executes a [`FaultPlan`] against a live event stream: one
/// [`FaultInjector::next`] call per dispatch slot advances the global
/// event cursor and says what (if anything) to inject there.
///
/// Shared by reference between all instrumented threads; the cursor is a
/// single atomic, so indices are allocated exactly once across threads.
pub struct FaultInjector {
    plan: FaultPlan,
    cursor: AtomicU64,
    panics: AtomicU64,
    dropped: AtomicU64,
    delayed: AtomicU64,
}

impl FaultInjector {
    /// Arms `plan` with the cursor at event index 0.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            cursor: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Claims the next dispatch slot: returns its global index and the
    /// fault to inject there, if any. The caller records the outcome via
    /// [`FaultInjector::record_panic`] / [`record_drop`](FaultInjector::record_drop)
    /// / [`record_delay`](FaultInjector::record_delay).
    pub fn next(&self) -> (u64, Option<Fault>) {
        let at = self.cursor.fetch_add(1, Ordering::Relaxed);
        (at, self.plan.get(at))
    }

    /// Number of dispatch slots claimed so far.
    pub fn events_seen(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Records an injected thread panic.
    pub fn record_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a dropped dispatch.
    pub fn record_drop(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a delayed dispatch.
    pub fn record_delay(&self) {
        self.delayed.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the degradation counters.
    pub fn degradation(&self) -> Degradation {
        Degradation {
            panics_injected: self.panics.load(Ordering::Relaxed),
            events_dropped: self.dropped.load(Ordering::Relaxed),
            events_delayed: self.delayed.load(Ordering::Relaxed),
        }
    }

    /// Exports the degradation counters into `registry` as
    /// `fault.panics_injected`, `fault.events_dropped`,
    /// `fault.events_delayed` (idempotent: feeding twice does not
    /// double-count).
    pub fn feed(&self, registry: &Registry) {
        let d = self.degradation();
        for (name, now) in [
            ("fault.panics_injected", d.panics_injected),
            ("fault.events_dropped", d.events_dropped),
            ("fault.events_delayed", d.events_delayed),
        ] {
            registry.counter(name).advance_to(now);
        }
    }
}

/// An [`Analysis`] wrapper that executes a [`FaultPlan`] on the dispatch
/// path: every delivered event claims one injector slot, and the planned
/// fault (if any) fires *inside* the dispatch.
///
/// This is how a service layer (the `crace-daemon` session dispatcher)
/// chaos-tests its own degradation ladder: wrap the session detector as
/// `Isolated<FaultedAnalysis<D>>` and an injected [`Fault::PanicThread`]
/// panics in exactly the place a detector bug would, so the surrounding
/// [`Isolated`](crace_model::Isolated) must quarantine and fail open.
///
/// The shed discipline matches the runtime's: [`Fault::Drop`] planned on
/// a synchronization slot is suppressed (the event still delivers),
/// because losing a happens-before edge could *invent* races, which the
/// degradation contract forbids. Drops on data-plane slots (actions,
/// reads, writes) skip delivery and are counted. [`Fault::Delay`] sleeps
/// for the planned microseconds, then delivers.
pub struct FaultedAnalysis<A: Analysis> {
    inner: A,
    injector: std::sync::Arc<FaultInjector>,
}

impl<A: Analysis> FaultedAnalysis<A> {
    /// Wraps `inner`, consulting `injector` once per delivered event.
    pub fn new(inner: A, injector: std::sync::Arc<FaultInjector>) -> FaultedAnalysis<A> {
        FaultedAnalysis { inner, injector }
    }

    /// The injector this wrapper consults (for degradation counters).
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// The wrapped analysis.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Claims the next slot and executes its fault. Returns `false` iff
    /// the dispatch was shed (data-plane drop).
    ///
    /// # Panics
    ///
    /// Panics when the slot holds [`Fault::PanicThread`] — by design; the
    /// caller is expected to sit inside a panic-isolation boundary.
    fn gate(&self, sync: bool) -> bool {
        let (at, fault) = self.injector.next();
        match fault {
            None => true,
            Some(Fault::PanicThread) => {
                self.injector.record_panic();
                panic!("injected analysis panic at dispatch slot {at}");
            }
            Some(Fault::Drop) => {
                if sync {
                    true // never shed a happens-before edge
                } else {
                    self.injector.record_drop();
                    false
                }
            }
            Some(Fault::Delay(us)) => {
                self.injector.record_delay();
                std::thread::sleep(std::time::Duration::from_micros(us));
                true
            }
        }
    }
}

impl<A: Analysis> Analysis for FaultedAnalysis<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_fork(&self, parent: crace_model::ThreadId, child: crace_model::ThreadId) {
        if self.gate(true) {
            self.inner.on_fork(parent, child);
        }
    }

    fn on_join(&self, parent: crace_model::ThreadId, child: crace_model::ThreadId) {
        if self.gate(true) {
            self.inner.on_join(parent, child);
        }
    }

    fn on_acquire(&self, tid: crace_model::ThreadId, lock: crace_model::LockId) {
        if self.gate(true) {
            self.inner.on_acquire(tid, lock);
        }
    }

    fn on_release(&self, tid: crace_model::ThreadId, lock: crace_model::LockId) {
        if self.gate(true) {
            self.inner.on_release(tid, lock);
        }
    }

    fn on_action(&self, tid: crace_model::ThreadId, action: &crace_model::Action) {
        if self.gate(false) {
            self.inner.on_action(tid, action);
        }
    }

    fn on_read(&self, tid: crace_model::ThreadId, loc: crace_model::LocId) {
        if self.gate(false) {
            self.inner.on_read(tid, loc);
        }
    }

    fn on_write(&self, tid: crace_model::ThreadId, loc: crace_model::LocId) {
        if self.gate(false) {
            self.inner.on_write(tid, loc);
        }
    }

    fn abandon_thread(&self, tid: crace_model::ThreadId) {
        // Control-plane: not a dispatch slot, always delivered.
        self.inner.abandon_thread(tid);
    }

    fn report(&self) -> crace_model::RaceReport {
        self.inner.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_parse_render_round_trip() {
        let plan = FaultPlan::new()
            .with(5, Fault::PanicThread)
            .with(9, Fault::Drop)
            .with(12, Fault::Delay(250));
        assert_eq!(plan.render(), "panic@5,drop@9,delay@12:250");
        assert_eq!(FaultPlan::parse(&plan.render()).unwrap(), plan);
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::new());
        assert_eq!(plan.first_index(), Some(5));
        assert_eq!(plan.len(), 3);
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        for bad in ["panic", "panic@x", "delay@3", "delay@3:x", "fizz@1"] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn seeded_plans_are_deterministic_and_bounded() {
        let a = FaultPlan::seeded(42, 100, 5);
        let b = FaultPlan::seeded(42, 100, 5);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(a.iter().all(|(at, _)| at < 100));
        // A different seed gives a different plan (overwhelmingly likely
        // for this index space; pinned seeds keep it deterministic).
        assert_ne!(a, FaultPlan::seeded(43, 100, 5));
        assert!(FaultPlan::seeded(7, 0, 5).is_empty());
    }

    #[test]
    fn injector_fires_exactly_at_planned_indices() {
        let plan = FaultPlan::new().with(2, Fault::Drop);
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.next(), (0, None));
        assert_eq!(inj.next(), (1, None));
        assert_eq!(inj.next(), (2, Some(Fault::Drop)));
        assert_eq!(inj.next(), (3, None));
        assert_eq!(inj.events_seen(), 4);
    }

    #[test]
    fn faulted_analysis_sheds_data_plane_only_and_panics_on_cue() {
        use crace_model::{Recorder, ThreadId};
        use std::sync::Arc;

        // Slots: 0 fork (sync), 1 read (data), 2 read (data), 3 rel (sync).
        let plan = FaultPlan::new()
            .with(0, Fault::Drop)
            .with(1, Fault::Drop)
            .with(2, Fault::Delay(1));
        let inj = Arc::new(FaultInjector::new(plan));
        let wrapped = FaultedAnalysis::new(Recorder::new(), Arc::clone(&inj));
        wrapped.on_fork(ThreadId(0), ThreadId(1));
        wrapped.on_read(ThreadId(1), crace_model::LocId(7));
        wrapped.on_read(ThreadId(1), crace_model::LocId(8));
        wrapped.on_release(ThreadId(1), crace_model::LockId(0));
        // The sync drop was suppressed, the data drop shed, the delay
        // delivered: 3 of 4 events reach the recorder.
        assert_eq!(wrapped.inner().snapshot().len(), 3);
        assert_eq!(
            inj.degradation(),
            Degradation {
                panics_injected: 0,
                events_dropped: 1,
                events_delayed: 1,
            }
        );

        let inj = Arc::new(FaultInjector::new(
            FaultPlan::new().with(0, Fault::PanicThread),
        ));
        let wrapped = FaultedAnalysis::new(Recorder::new(), Arc::clone(&inj));
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            wrapped.on_fork(ThreadId(0), ThreadId(1));
        }))
        .is_err();
        std::panic::set_hook(prev);
        assert!(died, "planned panic must fire inside the dispatch");
        assert_eq!(inj.degradation().panics_injected, 1);
    }

    #[test]
    fn degradation_counters_feed_idempotently() {
        let inj = FaultInjector::new(FaultPlan::new());
        inj.record_panic();
        inj.record_drop();
        inj.record_drop();
        inj.record_delay();
        assert_eq!(
            inj.degradation(),
            Degradation {
                panics_injected: 1,
                events_dropped: 2,
                events_delayed: 1,
            }
        );
        let registry = Registry::new();
        inj.feed(&registry);
        inj.feed(&registry);
        let snap = registry.snapshot();
        assert_eq!(
            snap.get("fault.events_dropped"),
            Some(&crace_obs::MetricValue::Counter(2))
        );
        assert_eq!(
            snap.get("fault.panics_injected"),
            Some(&crace_obs::MetricValue::Counter(1))
        );
    }
}
