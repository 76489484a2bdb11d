//! RD2 — the online commutativity race detector for live multi-threaded
//! programs: the Table 1 clocks published lock-free, and Algorithm 1 in 64
//! object shards, each behind its own mutex.

use crate::checkpoint::{rd2_writer, write_blocks, Blocks, Rd2Meta, Rd2State, RD2_KIND};
use crate::engine::ClockMode;
use crate::front_end::feed_work;
use crate::points::CompiledSpec;
use crate::shard::{Abandoned, Findings, Shard, ShardConfig, SpecCache};
use crace_model::{Action, Analysis, LockId, ObjId, RaceReport, ThreadId};
use crace_vclock::{ClockStats, PublishedClocks};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of object shards. Objects route to shards by `obj % OBJ_SHARDS`,
/// so actions on different objects essentially never contend on a shard
/// lock.
pub(crate) const OBJ_SHARDS: usize = 64;

/// The online commutativity race detector (the paper's RD2 tool).
///
/// Functionally identical to [`crate::TraceDetector`], but engineered so
/// that the action hot path acquires **no process-global lock**:
///
/// * synchronization clocks live in a [`PublishedClocks`]: per-thread
///   `Arc` snapshots in a map sharded by thread id. An action event reads
///   the acting thread's own snapshot — one shard read lock it shares with
///   (essentially) nobody, one `Arc` clone, no vector copy. Only
///   fork/join/acquire/release swap snapshots,
/// * Algorithm 1 runs in 64 `Shard`s, each behind its own mutex, so
///   actions on objects of different shards proceed fully in parallel and
///   actions on one object serialize only with their shard,
/// * each shard keeps its own races. An action that finds one takes a
///   sequence number from one atomic counter while it holds its shard
///   lock; [`Analysis::report`] merges the shards by those numbers. A
///   race-free action touches no shared counter at all.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use crace_core::{translate, Rd2};
/// use crace_model::{Action, Analysis, ObjId, ThreadId, Value};
/// use crace_spec::builtin;
///
/// let spec = builtin::dictionary();
/// let rd2 = Rd2::new();
/// rd2.register(ObjId(1), Arc::new(translate(&spec)?));
///
/// let put = spec.method_id("put").unwrap();
/// rd2.on_fork(ThreadId(0), ThreadId(1));
/// rd2.on_action(ThreadId(0), &Action::new(
///     ObjId(1), put, vec![Value::Int(5), Value::Int(1)], Value::Nil));
/// rd2.on_action(ThreadId(1), &Action::new(
///     ObjId(1), put, vec![Value::Int(5), Value::Int(2)], Value::Int(1)));
/// assert_eq!(rd2.report().total(), 1);
/// # Ok::<(), crace_core::TranslateError>(())
/// ```
pub struct Rd2 {
    sync: PublishedClocks,
    shards: [Mutex<Shard>; OBJ_SHARDS],
    /// The last sequence number handed to an action that found a race.
    seq: AtomicU64,
    compiled: SpecCache,
    abandoned: Abandoned,
    /// When set, `on_action` records sampled spans into a tracer lane
    /// (see [`Rd2::with_tracer`]); `None` costs one branch per action.
    tracer: Option<crace_obs::SampledSpans>,
    /// Length of the last checkpoint, the next one's starting capacity.
    ckpt_len: AtomicUsize,
}

impl Rd2 {
    /// Creates a detector with no registered objects, using the adaptive
    /// (epoch-compressed) access-point clocks.
    pub fn new() -> Rd2 {
        Rd2::with_mode(ClockMode::Adaptive)
    }

    /// Creates a detector with an explicit clock representation —
    /// [`ClockMode::FullVector`] is the differential-testing and
    /// benchmarking reference.
    pub fn with_mode(mode: ClockMode) -> Rd2 {
        Rd2::with_config(ShardConfig {
            mode,
            provenance_window: None,
        })
    }

    fn with_config(cfg: ShardConfig) -> Rd2 {
        Rd2 {
            sync: PublishedClocks::new(),
            shards: std::array::from_fn(|_| Mutex::new(Shard::new(cfg, 0))),
            seq: AtomicU64::new(0),
            compiled: SpecCache::default(),
            abandoned: Abandoned::default(),
            tracer: None,
            ckpt_len: AtomicUsize::new(0),
        }
    }

    /// Creates a detector that collects race provenance — each sampled
    /// race carries the colliding access points, both clocks at detection
    /// time, the prior action on the conflicting point, and the last
    /// `window` actions on the racing object (`crace replay --explain`).
    ///
    /// Provenance costs a descriptor render and window push per action on
    /// registered objects; leave it off for overhead measurements.
    pub fn with_provenance(window: usize) -> Rd2 {
        Rd2::with_config(ShardConfig {
            mode: ClockMode::Adaptive,
            provenance_window: Some(window),
        })
    }

    /// Creates a detector that records one-in-`sample_every` `on_action`
    /// dispatches as spans on `tracer`'s `rd2` lane (phase
    /// `rd2.on_action`). `sample_every == 0` disables the sampling; the
    /// untraced constructors skip even the sampling branch's atomic.
    pub fn with_tracer(tracer: &crace_obs::Tracer, sample_every: u64) -> Rd2 {
        Rd2 {
            tracer: Some(crace_obs::SampledSpans::new(
                tracer,
                "rd2",
                "rd2.on_action",
                sample_every,
            )),
            ..Rd2::new()
        }
    }

    fn shard(&self, obj: ObjId) -> MutexGuard<'_, Shard> {
        self.shards[(obj.0 as usize) % OBJ_SHARDS].lock()
    }

    /// Every shard, locked in index order: one consistent cut.
    fn lock_all(&self) -> Vec<MutexGuard<'_, Shard>> {
        self.shards.iter().map(|s| s.lock()).collect()
    }

    /// Number of events shed because they named an abandoned thread.
    pub fn events_shed(&self) -> u64 {
        self.abandoned.shed()
    }

    /// Registers `obj` against an (uncompiled) logical specification,
    /// translating it on first use and caching the result by spec name.
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

    /// Registers `obj` to be checked against `spec`. Actions on
    /// unregistered objects are ignored (selective instrumentation).
    pub fn register(&self, obj: ObjId, spec: Arc<CompiledSpec>) {
        self.shard(obj).register(obj, spec);
    }

    /// Drops all shadow state of `obj` — the object-reclamation
    /// optimization of §5.3.
    pub fn forget(&self, obj: ObjId) {
        self.shard(obj).forget(obj);
    }

    /// Total phase-1 conflict probes across all registered objects (one
    /// per conflicting class per touched point — the §5.4 work measure).
    pub fn num_probes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().num_probes()).sum()
    }

    /// Aggregated clock-representation statistics over all registered
    /// objects: how many phase-2 updates stayed on the O(1) epoch path.
    pub fn clock_stats(&self) -> ClockStats {
        let mut stats = ClockStats::default();
        for shard in &self.shards {
            stats.merge(&shard.lock().clock_stats());
        }
        stats
    }
}

impl Default for Rd2 {
    fn default() -> Rd2 {
        Rd2::new()
    }
}

impl Analysis for Rd2 {
    fn name(&self) -> &str {
        "rd2"
    }

    fn on_fork(&self, parent: ThreadId, child: ThreadId) {
        if !self.abandoned.sheds(&[parent, child]) {
            self.sync.fork(parent, child);
        }
    }

    /// Joining an abandoned child is shed: its slot was dropped, so the
    /// join would fold a lazily reinitialized fresh clock.
    fn on_join(&self, parent: ThreadId, child: ThreadId) {
        if !self.abandoned.sheds(&[parent, child]) {
            self.sync.join(parent, child);
        }
    }

    fn on_acquire(&self, tid: ThreadId, lock: LockId) {
        if !self.abandoned.sheds(&[tid]) {
            self.sync.acquire(tid, lock);
        }
    }

    fn on_release(&self, tid: ThreadId, lock: LockId) {
        if !self.abandoned.sheds(&[tid]) {
            self.sync.release(tid, lock);
        }
    }

    fn on_action(&self, tid: ThreadId, action: &Action) {
        if self.abandoned.sheds(&[tid]) {
            return;
        }
        let _span = self
            .tracer
            .as_ref()
            .and_then(crace_obs::SampledSpans::maybe);
        // A shared snapshot of the acting thread's clock, read before the
        // shard lock: no global lock, no vector copy.
        let clock = self.sync.clock(tid);
        // The number is taken under the shard lock, so within a shard the
        // races' numbers ascend in the order they were recorded.
        let seq = || self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.shard(action.obj()).action(seq, tid, action, &clock);
    }

    /// Finalizes a dead thread: retires its published clock slot and
    /// sheds all later events naming it. No happens-before edges are
    /// introduced and the report over the delivered prefix is untouched.
    fn abandon_thread(&self, tid: ThreadId) {
        self.abandoned.insert(tid);
        self.sync.retire(tid);
    }

    fn report(&self) -> RaceReport {
        Findings::merge(self.lock_all().iter().map(|s| s.findings()))
    }
}

impl crate::FrontEnd for Rd2 {
    fn register(&self, obj: ObjId, spec: Arc<CompiledSpec>) {
        Rd2::register(self, obj, spec);
    }

    fn feed(&self, registry: &crace_obs::Registry, prefix: &str) {
        feed_work(registry, prefix, self.num_probes(), &self.clock_stats());
    }
}

impl crate::Checkpoint for Rd2 {
    fn checkpoint_kind(&self) -> &'static str {
        RD2_KIND
    }

    /// Keeps no event counts or GC state, so those checkpoint fields are
    /// zero and the `joined` set is empty.
    fn checkpoint(&self) -> String {
        let mut shards = self.lock_all();
        let meta = Rd2Meta {
            shed: self.abandoned.shed(),
            ..Rd2Meta::default()
        };
        let summaries: Vec<_> = shards.iter().map(|s| s.ckpt_summary()).collect();
        let mut w = rd2_writer(
            shards[0].cfg(),
            &self.sync.snapshot(),
            meta,
            &self.abandoned.tids(),
            &summaries,
            self.ckpt_len.load(Ordering::Relaxed),
        );
        let blocks: Vec<Blocks> = shards.iter_mut().map(|s| Blocks::of(s)).collect();
        write_blocks(&mut w, &blocks);
        let blob = w.finish();
        self.ckpt_len.store(blob.len(), Ordering::Relaxed);
        blob
    }

    fn restore(
        &self,
        text: &str,
        resolve: &crate::SpecResolver<'_>,
    ) -> Result<(), crace_vclock::CkptError> {
        let mut shards = self.lock_all();
        let mut state = Rd2State::read(text, resolve, shards[0].cfg())?;
        for (tid, clock) in state.sync.initialized() {
            self.sync.import_thread(tid, clock.clone());
        }
        for (lock, clock) in state.sync.lock_slots() {
            self.sync.import_lock(lock, clock.clone());
        }
        self.abandoned
            .restore(std::mem::take(&mut state.abandoned), state.meta.shed);
        let restored = state.take_shards(OBJ_SHARDS, 0, |obj| (obj.0 as usize) % OBJ_SHARDS);
        for (shard, restored) in shards.iter_mut().zip(restored) {
            **shard = restored;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate;
    use crace_model::Value;
    use crace_spec::builtin;
    use std::thread;

    fn dict_rd2() -> (crace_spec::Spec, Rd2) {
        let spec = builtin::dictionary();
        let rd2 = Rd2::new();
        rd2.register(ObjId(1), Arc::new(translate(&spec).unwrap()));
        (spec, rd2)
    }

    #[test]
    fn detects_the_running_example_race() {
        let (spec, rd2) = dict_rd2();
        let put = spec.method_id("put").unwrap();
        rd2.on_fork(ThreadId(0), ThreadId(1));
        rd2.on_fork(ThreadId(0), ThreadId(2));
        rd2.on_action(
            ThreadId(2),
            &Action::new(
                ObjId(1),
                put,
                vec![Value::str("a.com"), Value::Int(1)],
                Value::Nil,
            ),
        );
        rd2.on_action(
            ThreadId(1),
            &Action::new(
                ObjId(1),
                put,
                vec![Value::str("a.com"), Value::Int(2)],
                Value::Int(1),
            ),
        );
        let report = rd2.report();
        assert_eq!(report.total(), 1);
        assert_eq!(report.distinct(), 1);
    }

    #[test]
    fn join_orders_suppress_races() {
        let (spec, rd2) = dict_rd2();
        let put = spec.method_id("put").unwrap();
        rd2.on_fork(ThreadId(0), ThreadId(1));
        rd2.on_action(
            ThreadId(1),
            &Action::new(
                ObjId(1),
                put,
                vec![Value::Int(1), Value::Int(1)],
                Value::Nil,
            ),
        );
        rd2.on_join(ThreadId(0), ThreadId(1));
        rd2.on_action(
            ThreadId(0),
            &Action::new(
                ObjId(1),
                put,
                vec![Value::Int(1), Value::Int(2)],
                Value::Int(1),
            ),
        );
        assert!(rd2.report().is_empty());
    }

    #[test]
    fn concurrent_callers_do_not_deadlock_or_miss_state() {
        // Hammer one RD2 from many real threads; every thread writes its
        // own key so no races are expected, which also checks we do not
        // false-positive under concurrency for per-thread keys.
        let spec = builtin::dictionary();
        let rd2 = Arc::new(Rd2::new());
        rd2.register(ObjId(1), Arc::new(translate(&spec).unwrap()));
        let put = spec.method_id("put").unwrap();
        let mut handles = Vec::new();
        for t in 1..=4u32 {
            let rd2 = Arc::clone(&rd2);
            rd2.on_fork(ThreadId(0), ThreadId(t));
            handles.push(thread::spawn(move || {
                for i in 0..500i64 {
                    let prev = if i == 0 {
                        Value::Nil
                    } else {
                        Value::Int(i - 1)
                    };
                    rd2.on_action(
                        ThreadId(t),
                        &Action::new(
                            ObjId(1),
                            put,
                            vec![Value::Int(t as i64 * 1_000), Value::Int(i)],
                            prev,
                        ),
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Writes to distinct keys never race; resize points are only touched
        // by each thread's first insert, which IS concurrent across threads…
        // each thread's first put resizes, so resize/resize conflicts?
        // resize conflicts only with size (Fig. 7c), so still no races.
        assert!(rd2.report().is_empty(), "{:?}", rd2.report());
        // Per-thread keys are single-writer: their updates all take the
        // epoch path (only the shared resize point may promote).
        let stats = rd2.clock_stats();
        assert!(stats.epoch_updates >= 4 * 499, "{stats}");
    }

    /// Mirror of the TraceDetector abandonment test on the sharded
    /// detector: delivered races survive, later events of the dead tid
    /// are shed, and no spurious ordering protects survivors.
    #[test]
    fn abandon_sheds_late_events_and_orders_nobody() {
        let (spec, rd2) = dict_rd2();
        let put = spec.method_id("put").unwrap();
        rd2.on_fork(ThreadId(0), ThreadId(1));
        rd2.on_fork(ThreadId(0), ThreadId(2));
        rd2.on_action(
            ThreadId(1),
            &Action::new(
                ObjId(1),
                put,
                vec![Value::str("k"), Value::Int(1)],
                Value::Nil,
            ),
        );
        rd2.abandon_thread(ThreadId(1));
        rd2.on_action(
            ThreadId(1),
            &Action::new(
                ObjId(1),
                put,
                vec![Value::str("k"), Value::Int(9)],
                Value::Int(1),
            ),
        );
        rd2.on_join(ThreadId(0), ThreadId(1));
        assert_eq!(rd2.events_shed(), 2);
        rd2.on_action(
            ThreadId(2),
            &Action::new(
                ObjId(1),
                put,
                vec![Value::str("k"), Value::Int(2)],
                Value::Int(1),
            ),
        );
        assert_eq!(rd2.report().total(), 1, "{:?}", rd2.report());
    }

    #[test]
    fn forget_makes_later_actions_noops() {
        let (spec, rd2) = dict_rd2();
        let put = spec.method_id("put").unwrap();
        rd2.on_fork(ThreadId(0), ThreadId(1));
        rd2.on_action(
            ThreadId(0),
            &Action::new(
                ObjId(1),
                put,
                vec![Value::Int(1), Value::Int(1)],
                Value::Nil,
            ),
        );
        rd2.forget(ObjId(1));
        rd2.on_action(
            ThreadId(1),
            &Action::new(
                ObjId(1),
                put,
                vec![Value::Int(1), Value::Int(2)],
                Value::Int(1),
            ),
        );
        assert!(rd2.report().is_empty());
    }

    #[test]
    fn objects_in_different_shards_are_independent() {
        // Objects 3 and 3 + 64 share a shard; 3 and 4 do not. All work.
        let spec = builtin::dictionary();
        let rd2 = Rd2::new();
        let compiled = Arc::new(translate(&spec).unwrap());
        for obj in [3u64, 4, 67] {
            rd2.register(ObjId(obj), Arc::clone(&compiled));
        }
        let put = spec.method_id("put").unwrap();
        rd2.on_fork(ThreadId(0), ThreadId(1));
        for obj in [3u64, 4, 67] {
            rd2.on_action(
                ThreadId(0),
                &Action::new(
                    ObjId(obj),
                    put,
                    vec![Value::Int(1), Value::Int(1)],
                    Value::Nil,
                ),
            );
            rd2.on_action(
                ThreadId(1),
                &Action::new(
                    ObjId(obj),
                    put,
                    vec![Value::Int(1), Value::Int(2)],
                    Value::Int(1),
                ),
            );
        }
        let report = rd2.report();
        assert_eq!(report.total(), 3);
        assert_eq!(report.distinct(), 3);
    }

    #[test]
    fn full_vector_mode_matches_adaptive() {
        let spec = builtin::dictionary();
        let compiled = Arc::new(translate(&spec).unwrap());
        let adaptive = Rd2::new();
        let full = Rd2::with_mode(ClockMode::FullVector);
        for rd2 in [&adaptive, &full] {
            rd2.register(ObjId(1), Arc::clone(&compiled));
            let put = spec.method_id("put").unwrap();
            rd2.on_fork(ThreadId(0), ThreadId(1));
            rd2.on_action(
                ThreadId(0),
                &Action::new(
                    ObjId(1),
                    put,
                    vec![Value::Int(1), Value::Int(1)],
                    Value::Nil,
                ),
            );
            rd2.on_action(
                ThreadId(1),
                &Action::new(
                    ObjId(1),
                    put,
                    vec![Value::Int(1), Value::Int(2)],
                    Value::Int(1),
                ),
            );
        }
        assert_eq!(adaptive.report().total(), full.report().total());
        assert_eq!(adaptive.report().distinct(), full.report().distinct());
        // The contended w:1 point was promoted; the reference mode only
        // ever performs vector joins.
        assert_eq!(adaptive.clock_stats().promotions, 1);
        assert_eq!(full.clock_stats().promotions, 0);
        assert_eq!(full.clock_stats().epoch_updates, 0);
    }
}
