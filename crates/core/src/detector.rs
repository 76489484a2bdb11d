//! The in-process commutativity race detector, for recorded traces and
//! live programs alike.

use crate::checkpoint::{rd2_head, report_write, Rd2Meta, Rd2State};
use crate::engine::ClockMode;
use crate::front_end::feed_work;
use crate::points::CompiledSpec;
use crate::shard::{Abandoned, Findings, Shard, ShardConfig, SpecCache};
use crace_model::{Action, Analysis, LockId, ObjId, RaceReport, ThreadId};
use crace_vclock::{ClockStats, SyncClocks};
use parking_lot::Mutex;
use std::sync::Arc;

/// The commutativity race detector of §5 over a single event stream —
/// Table 1 synchronization handling plus Algorithm 1 per action.
///
/// `TraceDetector` implements [`Analysis`] behind one internal lock, so
/// the same detector replays recorded traces ([`crace_model::replay`]) and
/// takes the events of a live multi-threaded program from every thread at
/// once; [`crate::ParallelRd2`] is the path for width.
///
/// Objects must be [registered](TraceDetector::register) with a compiled
/// specification; actions on unregistered objects are ignored, mirroring
/// how the paper's tool instruments only the `ConcurrentHashMap`s.
///
/// # Examples
///
/// See the crate-level example, which runs the Fig. 3 trace.
pub struct TraceDetector {
    inner: Mutex<Inner>,
    compiled: SpecCache,
    /// When set, `on_action` records sampled spans into a tracer lane
    /// (see [`TraceDetector::with_tracer`]); `None` costs one branch.
    tracer: Option<crace_obs::SampledSpans>,
}

/// The detector state: Table 1 clocks, one Algorithm 1 shard over every
/// object, the shed filter, and the event counts.
struct Inner {
    sync: SyncClocks,
    shard: Shard,
    abandoned: Abandoned,
    /// Events accepted so far; an action's count is its sequence number.
    seq: u64,
    /// Synchronization events accepted so far.
    syncs: u64,
    /// Length of the last checkpoint, the next one's starting capacity.
    ckpt_len: usize,
}

/// RD2, the paper's name for its tool: Algorithm 1 over a Table 1 event
/// stream, which [`TraceDetector`] is. Live programs, the runtime and the
/// Table 2 workloads use this name.
pub type Rd2 = TraceDetector;

impl TraceDetector {
    /// Creates a detector with no registered objects, using the adaptive
    /// (epoch-compressed) access-point clocks.
    pub fn new() -> TraceDetector {
        TraceDetector::with_mode(ClockMode::Adaptive)
    }

    /// Creates a detector with an explicit clock representation.
    /// [`ClockMode::FullVector`] keeps every `pt.vc` as a complete vector
    /// — the reference the differential tests compare the epoch fast path
    /// against.
    pub fn with_mode(mode: ClockMode) -> TraceDetector {
        TraceDetector::with_config(ShardConfig {
            mode,
            provenance_window: None,
        })
    }

    fn with_config(cfg: ShardConfig) -> TraceDetector {
        TraceDetector {
            inner: Mutex::new(Inner {
                sync: SyncClocks::new(),
                shard: Shard::new(cfg),
                abandoned: Abandoned::default(),
                seq: 0,
                syncs: 0,
                ckpt_len: 0,
            }),
            compiled: SpecCache::default(),
            tracer: None,
        }
    }

    /// Creates a detector that collects race provenance: each sampled race
    /// carries the colliding access points, both clocks at detection time,
    /// the prior action on the conflicting point, and the last `window`
    /// actions on the racing object. This is what `crace replay --explain`
    /// replays through.
    pub fn with_provenance(window: usize) -> TraceDetector {
        TraceDetector::with_config(ShardConfig {
            mode: ClockMode::Adaptive,
            provenance_window: Some(window),
        })
    }

    /// Creates a detector that records one-in-`sample_every` `on_action`
    /// dispatches as spans on `tracer`'s `rd2` lane (phase
    /// `rd2.on_action`). `sample_every == 0` disables the sampling.
    pub fn with_tracer(tracer: &crace_obs::Tracer, sample_every: u64) -> TraceDetector {
        TraceDetector::new().traced(tracer, sample_every)
    }

    /// This detector, recording spans as [`TraceDetector::with_tracer`]
    /// does; `TraceDetector::with_provenance(w).traced(t, n)` collects
    /// both provenance and spans.
    pub fn traced(mut self, tracer: &crace_obs::Tracer, sample_every: u64) -> TraceDetector {
        self.tracer = Some(crace_obs::SampledSpans::new(
            tracer,
            "rd2",
            "rd2.on_action",
            sample_every,
        ));
        self
    }

    /// Registers `obj` to be checked against `spec`. Re-registering an
    /// object replaces its specification and clears its shadow state.
    pub fn register(&self, obj: ObjId, spec: Arc<CompiledSpec>) {
        self.inner.lock().shard.register(obj, spec);
    }

    /// Registers `obj` against an (uncompiled) logical specification,
    /// translating on first use and caching by spec name.
    ///
    /// # Errors
    ///
    /// Returns the translation error if the specification is outside ECL.
    pub fn register_spec(
        &self,
        obj: ObjId,
        spec: &crace_spec::Spec,
    ) -> Result<(), crate::TranslateError> {
        self.register(obj, self.compiled.get(spec)?);
        Ok(())
    }

    /// Drops all shadow state of `obj` (the object-reclamation optimization
    /// of §5.3: no new races can be reported on a dead object).
    pub fn forget(&self, obj: ObjId) {
        self.inner.lock().shard.forget(obj);
    }

    /// Number of active access points currently tracked for `obj`.
    pub fn num_active(&self, obj: ObjId) -> usize {
        self.inner.lock().shard.num_active(obj)
    }

    /// Total phase-1 conflict probes across all tracked objects (one per
    /// conflicting class per touched point — the §5.4 work measure).
    pub fn num_probes(&self) -> u64 {
        self.inner.lock().shard.num_probes()
    }

    /// Number of events shed because they named an abandoned thread.
    pub fn events_shed(&self) -> u64 {
        self.inner.lock().abandoned.shed()
    }

    /// Aggregated clock-representation statistics over all tracked
    /// objects: how many phase-2 updates stayed on the O(1) epoch path.
    pub fn clock_stats(&self) -> ClockStats {
        self.inner.lock().shard.clock_stats()
    }

    /// Applies a synchronization event to the clocks unless it names an
    /// abandoned thread.
    fn sync_event(&self, tids: &[ThreadId], apply: impl FnOnce(&mut SyncClocks)) {
        let inner = &mut *self.inner.lock();
        if !inner.abandoned.sheds(tids) {
            inner.seq += 1;
            inner.syncs += 1;
            apply(&mut inner.sync);
        }
    }
}

impl Default for TraceDetector {
    fn default() -> TraceDetector {
        TraceDetector::new()
    }
}

impl Analysis for TraceDetector {
    fn name(&self) -> &str {
        "rd2-trace"
    }

    fn on_fork(&self, parent: ThreadId, child: ThreadId) {
        self.sync_event(&[parent, child], |sync| sync.fork(parent, child));
    }

    /// A join of an abandoned child is shed too: the child's clock was
    /// retired (reset to ⊥), so folding it into the parent would either be
    /// a no-op or, worse, a spurious edge from a lazily reinitialized
    /// fresh clock.
    fn on_join(&self, parent: ThreadId, child: ThreadId) {
        self.sync_event(&[parent, child], |sync| sync.join(parent, child));
    }

    fn on_acquire(&self, tid: ThreadId, lock: LockId) {
        self.sync_event(&[tid], |sync| sync.acquire(tid, lock));
    }

    fn on_release(&self, tid: ThreadId, lock: LockId) {
        self.sync_event(&[tid], |sync| sync.release(tid, lock));
    }

    fn on_action(&self, tid: ThreadId, action: &Action) {
        let _span = self
            .tracer
            .as_ref()
            .and_then(crace_obs::SampledSpans::maybe);
        let Inner {
            sync,
            shard,
            abandoned,
            seq,
            ..
        } = &mut *self.inner.lock();
        if abandoned.sheds(&[tid]) {
            return;
        }
        *seq += 1;
        let seq = *seq;
        shard.action(|| seq, tid, action, sync.clock(tid));
    }

    /// Finalizes a dead thread: retires its sync clock and sheds any
    /// later event naming it. Creates no happens-before edges and never
    /// changes what was already reported — the report over the events
    /// delivered before the abandonment is untouched.
    fn abandon_thread(&self, tid: ThreadId) {
        let inner = &mut *self.inner.lock();
        inner.abandoned.insert(tid);
        inner.sync.retire(tid);
    }

    fn report(&self) -> RaceReport {
        self.inner.lock().shard.findings().report.clone()
    }
}

impl crate::FrontEnd for TraceDetector {
    fn register(&self, obj: ObjId, spec: Arc<CompiledSpec>) {
        TraceDetector::register(self, obj, spec);
    }

    fn feed(&self, registry: &crace_obs::Registry, prefix: &str) {
        feed_work(registry, prefix, self.num_probes(), &self.clock_stats());
    }
}

impl crate::Checkpoint for TraceDetector {
    fn checkpoint(&self) -> String {
        let inner = &mut *self.inner.lock();
        let meta = Rd2Meta {
            shed: inner.abandoned.shed(),
            events: inner.seq,
            syncs: inner.syncs,
        };
        let mut w = rd2_head(
            inner.shard.cfg(),
            &inner.sync,
            meta,
            &inner.abandoned.tids(),
            inner.ckpt_len,
        );
        report_write(&mut w, &Findings::merge([inner.shard.findings()]));
        // One shard: its blocks are already in id order, so they render
        // straight into the blob.
        w.framed(|out| inner.shard.ckpt_objects(out).iter().map(|b| b.2).sum());
        let blob = w.finish();
        inner.ckpt_len = blob.len();
        blob
    }

    fn restore(
        &self,
        text: &str,
        resolve: &crate::SpecResolver<'_>,
    ) -> Result<(), crace_vclock::CkptError> {
        let inner = &mut *self.inner.lock();
        let mut state = Rd2State::read(text, resolve, inner.shard.cfg())?;
        inner.shard = state.take_shards(1, |_| 0).remove(0);
        inner.sync = state.sync;
        inner.abandoned.restore(state.abandoned, state.meta.shed);
        (inner.seq, inner.syncs) = (state.meta.events, state.meta.syncs);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate;
    use crace_model::{replay, Event, Trace, Value};
    use crace_spec::builtin;

    fn dict() -> (crace_spec::Spec, Arc<CompiledSpec>) {
        let spec = builtin::dictionary();
        let compiled = Arc::new(translate(&spec).unwrap());
        (spec, compiled)
    }

    fn put_event(spec: &crace_spec::Spec, tid: u32, obj: u64, k: &str, v: i64, p: Value) -> Event {
        Event::Action {
            tid: ThreadId(tid),
            action: Action::new(
                ObjId(obj),
                spec.method_id("put").unwrap(),
                vec![Value::str(k), Value::Int(v)],
                p,
            ),
        }
    }

    /// The full Fig. 3 trace: fork two threads that put the same key, then
    /// joinall and size() — exactly one race (the two puts).
    #[test]
    fn fig3_trace_reports_exactly_the_put_put_race() {
        let (spec, compiled) = dict();
        let detector = TraceDetector::new();
        detector.register(ObjId(1), compiled);
        let (tm, t2, t3) = (ThreadId(0), ThreadId(1), ThreadId(2));
        let mut trace = Trace::new();
        trace.push(Event::Fork {
            parent: tm,
            child: t2,
        });
        trace.push(Event::Fork {
            parent: tm,
            child: t3,
        });
        trace.push(put_event(&spec, 2, 1, "a.com", 1, Value::Nil));
        trace.push(put_event(&spec, 1, 1, "a.com", 2, Value::Int(1)));
        trace.push(Event::Join {
            parent: tm,
            child: t2,
        });
        trace.push(Event::Join {
            parent: tm,
            child: t3,
        });
        trace.push(Event::Action {
            tid: tm,
            action: Action::new(
                ObjId(1),
                spec.method_id("size").unwrap(),
                vec![],
                Value::Int(1),
            ),
        });
        let report = replay(&trace, &detector);
        assert_eq!(report.total(), 1, "{report:?}");
        assert_eq!(report.distinct(), 1);
        assert!(report.samples()[0].detail.contains("put"));
    }

    /// Without the joinall, size() additionally races with the resizing put
    /// (the a3/a1 observation of §2) but NOT with the non-resizing put.
    #[test]
    fn fig3_without_join_adds_exactly_the_resize_race() {
        let (spec, compiled) = dict();
        let detector = TraceDetector::new();
        detector.register(ObjId(1), compiled);
        let (tm, t2, t3) = (ThreadId(0), ThreadId(1), ThreadId(2));
        let mut trace = Trace::new();
        trace.push(Event::Fork {
            parent: tm,
            child: t2,
        });
        trace.push(Event::Fork {
            parent: tm,
            child: t3,
        });
        trace.push(put_event(&spec, 2, 1, "a.com", 1, Value::Nil)); // resizes
        trace.push(put_event(&spec, 1, 1, "a.com", 2, Value::Int(1))); // no resize
        trace.push(Event::Action {
            tid: tm,
            action: Action::new(
                ObjId(1),
                spec.method_id("size").unwrap(),
                vec![],
                Value::Int(1),
            ),
        });
        let report = replay(&trace, &detector);
        // put/put race + size/resize race.
        assert_eq!(report.total(), 2, "{report:?}");
    }

    #[test]
    fn unregistered_objects_are_ignored() {
        let (spec, _) = dict();
        let detector = TraceDetector::new();
        let mut trace = Trace::new();
        trace.push(Event::Fork {
            parent: ThreadId(0),
            child: ThreadId(1),
        });
        trace.push(put_event(&spec, 0, 9, "k", 1, Value::Nil));
        trace.push(put_event(&spec, 1, 9, "k", 2, Value::Int(1)));
        assert!(replay(&trace, &detector).is_empty());
    }

    #[test]
    fn lock_ordering_suppresses_races() {
        let (spec, compiled) = dict();
        let detector = TraceDetector::new();
        detector.register(ObjId(1), compiled);
        let (t1, t2) = (ThreadId(1), ThreadId(2));
        let lock = LockId(0);
        let mut trace = Trace::new();
        trace.push(Event::Fork {
            parent: ThreadId(0),
            child: t1,
        });
        trace.push(Event::Fork {
            parent: ThreadId(0),
            child: t2,
        });
        trace.push(Event::Acquire { tid: t1, lock });
        trace.push(put_event(&spec, 1, 1, "k", 1, Value::Nil));
        trace.push(Event::Release { tid: t1, lock });
        trace.push(Event::Acquire { tid: t2, lock });
        trace.push(put_event(&spec, 2, 1, "k", 2, Value::Int(1)));
        trace.push(Event::Release { tid: t2, lock });
        assert!(replay(&trace, &detector).is_empty());
        // Sanity: without the lock events the same puts do race.
        let detector2 = TraceDetector::new();
        detector2.register(
            ObjId(1),
            Arc::new(translate(&builtin::dictionary()).unwrap()),
        );
        let mut unordered = Trace::new();
        unordered.push(Event::Fork {
            parent: ThreadId(0),
            child: t1,
        });
        unordered.push(Event::Fork {
            parent: ThreadId(0),
            child: t2,
        });
        unordered.push(put_event(&spec, 1, 1, "k", 1, Value::Nil));
        unordered.push(put_event(&spec, 2, 1, "k", 2, Value::Int(1)));
        assert_eq!(replay(&unordered, &detector2).total(), 1);
    }

    #[test]
    fn races_on_different_objects_count_as_distinct() {
        let (spec, compiled) = dict();
        let detector = TraceDetector::new();
        detector.register(ObjId(1), compiled.clone());
        detector.register(ObjId(2), compiled);
        let mut trace = Trace::new();
        trace.push(Event::Fork {
            parent: ThreadId(0),
            child: ThreadId(1),
        });
        for obj in [1u64, 2] {
            trace.push(put_event(&spec, 0, obj, "k", 1, Value::Nil));
            trace.push(put_event(&spec, 1, obj, "k", 2, Value::Int(1)));
        }
        let report = replay(&trace, &detector);
        assert_eq!(report.total(), 2);
        assert_eq!(report.distinct(), 2);
    }

    /// Abandoning a thread must (a) keep every race already reported,
    /// (b) shed all later events naming the dead tid, and (c) introduce
    /// no happens-before edges — a survivor's conflicting action still
    /// races with the dead thread's delivered action.
    #[test]
    fn abandon_finalizes_clock_without_ordering_survivors() {
        let (spec, compiled) = dict();
        let detector = TraceDetector::new();
        detector.register(ObjId(1), compiled);
        let (tm, t1, t2) = (ThreadId(0), ThreadId(1), ThreadId(2));
        detector.on_fork(tm, t1);
        detector.on_fork(tm, t2);
        // t1 delivers one put, then dies mid-flight.
        detector.on_action(
            ThreadId(1),
            &Action::new(
                ObjId(1),
                spec.method_id("put").unwrap(),
                vec![Value::str("k"), Value::Int(1)],
                Value::Nil,
            ),
        );
        detector.abandon_thread(t1);
        // Post-abandonment events from the dead tid are shed, including a
        // stray join that would otherwise fold a reinitialized clock.
        detector.on_action(
            ThreadId(1),
            &Action::new(
                ObjId(1),
                spec.method_id("put").unwrap(),
                vec![Value::str("k"), Value::Int(9)],
                Value::Int(1),
            ),
        );
        detector.on_join(tm, t1);
        assert_eq!(detector.events_shed(), 2);
        // No HB edge was created: t2's overlapping put still races with
        // t1's delivered one.
        detector.on_action(
            ThreadId(2),
            &Action::new(
                ObjId(1),
                spec.method_id("put").unwrap(),
                vec![Value::str("k"), Value::Int(2)],
                Value::Int(1),
            ),
        );
        assert_eq!(detector.report().total(), 1);
    }

    #[test]
    fn forget_drops_shadow_state() {
        let (spec, compiled) = dict();
        let detector = TraceDetector::new();
        detector.register(ObjId(1), compiled);
        detector.on_fork(ThreadId(0), ThreadId(1));
        detector.on_action(
            ThreadId(0),
            &Action::new(
                ObjId(1),
                spec.method_id("put").unwrap(),
                vec![Value::str("k"), Value::Int(1)],
                Value::Nil,
            ),
        );
        assert!(detector.num_active(ObjId(1)) > 0);
        detector.forget(ObjId(1));
        assert_eq!(detector.num_active(ObjId(1)), 0);
        // Actions after forget are ignored — no panic, no race.
        detector.on_action(
            ThreadId(1),
            &Action::new(
                ObjId(1),
                spec.method_id("put").unwrap(),
                vec![Value::str("k"), Value::Int(2)],
                Value::Int(1),
            ),
        );
        assert!(detector.report().is_empty());
    }
}
