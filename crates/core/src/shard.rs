//! The one Algorithm 1 state machine behind every RD2 front-end.
//!
//! Once the Table 1 thread clocks are known, actions on different objects
//! touch disjoint shadow state — the per-object independence the scalable
//! commutativity rule formalises. A [`Shard`] is exactly that unit: the
//! registry and [`ObjState`]s of a set of objects plus the races found on
//! them, keyed by the ingress sequence number of the racing action.
//! It is the only caller of Algorithm 1 ([`ObjState`]) among the detectors:
//! [`TraceDetector`](crate::TraceDetector) is one shard behind a lock,
//! and each [`ParallelRd2`](crate::ParallelRd2) worker owns one shard.
//! The front-ends also share the spec cache and the shed filter below.

use crate::engine::{ClockMode, ObjState, PointLines, RaceHit};
use crate::fxhash::FxHashMap;
use crate::points::CompiledSpec;
use crace_model::{Action, ObjId, RaceKind, RaceRecord, RaceReport, ThreadId};
use crace_vclock::ckpt::{esc, frame_line, push_u64};
use crace_vclock::{ClockStats, VectorClock};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The configuration a checkpoint must match: how object states keep
/// their clocks and whether they collect provenance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ShardConfig {
    pub mode: ClockMode,
    /// When set, objects collect race provenance with an event window of
    /// this many actions (see [`ObjState::with_provenance`]).
    pub provenance_window: Option<usize>,
}

impl ShardConfig {
    /// Fresh shadow state for a newly touched object.
    pub fn new_state(&self) -> ObjState {
        match self.provenance_window {
            Some(window) => ObjState::with_provenance(self.mode, window),
            None => ObjState::with_mode(self.mode),
        }
    }
}

/// Races found by one shard: the report (exact counts, the first samples)
/// and the ingress sequence number of each sample's racing action.
#[derive(Clone, Debug)]
pub(crate) struct Findings {
    pub report: RaceReport,
    /// `seqs[i]` is the sequence number of `report.samples()[i]`.
    pub seqs: Vec<u64>,
}

impl Findings {
    fn new() -> Findings {
        Findings {
            report: RaceReport::new(),
            seqs: Vec::new(),
        }
    }

    /// The deterministic merge: exact counts summed over all parts, and the
    /// first samples by sequence number — bit-for-bit the report one shard
    /// over the whole stream would hold. Each part's samples are already
    /// in sequence order, so a k-way merge that stops at the sample cap
    /// suffices. Ties go to the earlier part, and within a part keep their
    /// order, so one action's hits keep their detection order.
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a Arc<Findings>>) -> RaceReport {
        let mut counts = RaceReport::with_sample_capacity(0);
        let mut heads: Vec<(&Findings, usize)> = Vec::new();
        for part in parts {
            counts.merge(&part.report);
            heads.push((part, 0));
        }
        let cap = RaceReport::new().sample_capacity();
        let mut samples = Vec::new();
        while samples.len() < cap {
            let next = heads
                .iter_mut()
                .filter(|(part, at)| *at < part.seqs.len())
                .min_by_key(|(part, at)| part.seqs[*at]);
            let Some((part, at)) = next else { break };
            samples.push(part.report.samples()[*at].clone());
            *at += 1;
        }
        RaceReport::from_parts(counts.total(), counts.site_counts(), samples, cap)
    }
}

/// One Algorithm 1 shard: the objects it owns, their shadow state and
/// the races found on them. Single-threaded; the caller supplies each
/// action's thread clock.
#[derive(Clone)]
pub(crate) struct Shard {
    cfg: ShardConfig,
    registry: FxHashMap<ObjId, Arc<CompiledSpec>>,
    objects: FxHashMap<ObjId, ObjState>,
    /// Copy-on-write, so a reader (a pipeline report barrier) takes a
    /// reference instead of a deep copy, and the thread that allocated
    /// the records is the one that frees them.
    findings: Arc<Findings>,
    /// Scratch for one action's race hits, reused across actions.
    hits: Vec<RaceHit>,
    /// Each object's `pt` records as the last checkpoint rendered them,
    /// so the next one renders only the points whose clocks changed. Text
    /// only; an entry goes with its object (re-registered or forgotten),
    /// and a restore starts from fresh shards.
    ckpt_lines: FxHashMap<ObjId, PointLines>,
}

impl Shard {
    pub fn new(cfg: ShardConfig) -> Shard {
        Shard {
            cfg,
            registry: FxHashMap::default(),
            objects: FxHashMap::default(),
            findings: Arc::new(Findings::new()),
            hits: Vec::new(),
            ckpt_lines: FxHashMap::default(),
        }
    }

    pub fn cfg(&self) -> ShardConfig {
        self.cfg
    }

    /// Registers `obj` against `spec`; re-registering clears its state.
    pub fn register(&mut self, obj: ObjId, spec: Arc<CompiledSpec>) {
        self.objects.remove(&obj);
        self.ckpt_lines.remove(&obj);
        self.registry.insert(obj, spec);
    }

    /// Drops all shadow state of `obj` (the §5.3 reclamation).
    pub fn forget(&mut self, obj: ObjId) {
        self.registry.remove(&obj);
        self.objects.remove(&obj);
        self.ckpt_lines.remove(&obj);
    }

    /// Installs a restored object with its shadow state.
    pub fn insert(&mut self, obj: ObjId, spec: Arc<CompiledSpec>, state: ObjState) {
        self.registry.insert(obj, spec);
        self.objects.insert(obj, state);
        self.ckpt_lines.remove(&obj);
    }

    /// Replaces the findings with a restored report. Its samples sort
    /// ahead of every later race (sequence numbers start at 1).
    pub fn set_base(&mut self, report: RaceReport) {
        let seqs = vec![0; report.samples().len()];
        self.findings = Arc::new(Findings { report, seqs });
    }

    /// Algorithm 1 on one action event by thread `tid` whose clock `T(tid)`
    /// is `clock`. `seq` yields the action's sequence number; it is called
    /// only when a race is kept as a sample, so a front-end can number just
    /// those actions. Actions on unregistered objects are ignored.
    pub fn action(
        &mut self,
        seq: impl FnOnce() -> u64,
        tid: ThreadId,
        action: &Action,
        clock: &VectorClock,
    ) {
        let Some(spec) = self.registry.get(&action.obj()) else {
            return;
        };
        // Rendering provenance is pointless once the sample buffer is full.
        let want_detail =
            self.cfg.provenance_window.is_some() && self.findings.report.wants_detail();
        let cfg = self.cfg;
        let state = self
            .objects
            .entry(action.obj())
            .or_insert_with(|| cfg.new_state());
        state.on_action_into(spec, action, tid, clock, want_detail, &mut self.hits);
        if self.hits.is_empty() {
            return;
        }
        let Findings { report, seqs } = Arc::make_mut(&mut self.findings);
        let before = report.samples().len();
        let kind = RaceKind::Commutativity { obj: action.obj() };
        for hit in self.hits.drain(..) {
            // The record is built only when the report keeps it as a sample.
            report.record_with(kind.clone(), || RaceRecord {
                kind: kind.clone(),
                tid,
                action: Some(action.clone()),
                detail: format!(
                    "{} touched {} conflicting with active {}",
                    action,
                    spec.label(hit.touched),
                    spec.label(hit.conflicting)
                ),
                provenance: hit.provenance,
            });
        }
        let kept = report.samples().len() - before;
        if kept > 0 {
            seqs.resize(seqs.len() + kept, seq());
        }
    }

    /// Appends one checkpoint block per registered object to `out`, in
    /// ascending id order: `object <id> <spec>` followed by its shadow
    /// state (an empty one while it has none yet). `pt` records whose
    /// clocks did not change since the last checkpoint are copied from the
    /// cache. Returns each block's object, end offset in `out` and record
    /// count.
    pub fn ckpt_objects(&mut self, out: &mut String) -> Vec<(ObjId, usize, u64)> {
        let mut ids: Vec<ObjId> = self.registry.keys().copied().collect();
        ids.sort_unstable();
        let mut blocks = Vec::with_capacity(ids.len());
        let mut scratch = String::new();
        for obj in ids {
            let spec = &self.registry[&obj];
            frame_line(out, &mut scratch, |p| {
                p.push_str("object ");
                push_u64(p, obj.0);
                p.push(' ');
                p.push_str(&esc(spec.spec().name()));
            });
            let state_records = match self.objects.get_mut(&obj) {
                Some(state) => {
                    let lines = self.ckpt_lines.entry(obj).or_default();
                    state.ckpt_render(out, lines, &mut scratch)
                }
                None => {
                    let mut empty = PointLines::default();
                    self.cfg
                        .new_state()
                        .ckpt_render(out, &mut empty, &mut scratch)
                }
            };
            blocks.push((obj, out.len(), 1 + state_records));
        }
        blocks
    }

    pub fn findings(&self) -> &Arc<Findings> {
        &self.findings
    }

    pub fn num_active(&self, obj: ObjId) -> usize {
        self.objects.get(&obj).map_or(0, ObjState::num_active)
    }

    /// Phase-1 conflict probes.
    pub fn num_probes(&self) -> u64 {
        self.objects.values().map(ObjState::num_probes).sum()
    }

    /// Clock-representation statistics.
    pub fn clock_stats(&self) -> ClockStats {
        let mut stats = ClockStats::default();
        for state in self.objects.values() {
            stats.merge(&state.clock_stats());
        }
        stats
    }
}

/// Compiled specifications keyed by spec name, so registering the Nth
/// object of a spec does not re-run the translation.
#[derive(Default)]
pub(crate) struct SpecCache(Mutex<HashMap<String, Arc<CompiledSpec>>>);

impl SpecCache {
    /// The compiled form of `spec`, translating it on first use.
    pub fn get(&self, spec: &crace_spec::Spec) -> Result<Arc<CompiledSpec>, crate::TranslateError> {
        let mut cache = self.0.lock();
        if let Some(c) = cache.get(spec.name()) {
            return Ok(Arc::clone(c));
        }
        let c = Arc::new(crate::translate(spec)?);
        cache.insert(spec.name().to_string(), Arc::clone(&c));
        Ok(c)
    }
}

/// The abandoned-thread shed filter: threads finalized via
/// [`Analysis::abandon_thread`](crace_model::Analysis::abandon_thread)
/// and the count of later events shed because they named one, so a dead
/// thread can never introduce spurious happens-before edges.
#[derive(Default)]
pub(crate) struct Abandoned {
    tids: RwLock<HashSet<ThreadId>>,
    /// True iff `tids` is non-empty, so the common (no faults ever) case
    /// pays one relaxed load, not a lock.
    any: AtomicBool,
    shed: AtomicU64,
}

impl Abandoned {
    /// True iff an event naming any of `tids` must be shed; counts it.
    pub fn sheds(&self, tids: &[ThreadId]) -> bool {
        if !self.any() {
            return false;
        }
        let abandoned = self.tids.read();
        if tids.iter().any(|t| abandoned.contains(t)) {
            self.shed.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    pub fn any(&self) -> bool {
        self.any.load(Ordering::Relaxed)
    }

    pub fn insert(&self, tid: ThreadId) {
        self.tids.write().insert(tid);
        self.any.store(true, Ordering::Relaxed);
    }

    /// Events shed so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// The abandoned threads, in tid order.
    pub fn tids(&self) -> Vec<ThreadId> {
        let mut tids: Vec<ThreadId> = self.tids.read().iter().copied().collect();
        tids.sort_unstable_by_key(|t| t.0);
        tids
    }

    /// Replaces the set and the shed count with restored ones.
    pub fn restore(&self, tids: Vec<ThreadId>, shed: u64) {
        self.any.store(!tids.is_empty(), Ordering::Relaxed);
        *self.tids.write() = tids.into_iter().collect();
        self.shed.store(shed, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The merge this replaces: gather every sample, stable-sort by
    /// sequence number, keep the first `cap`.
    fn sort_merge(parts: &[Arc<Findings>]) -> RaceReport {
        let mut counts = RaceReport::with_sample_capacity(0);
        let mut samples: Vec<(u64, &RaceRecord)> = Vec::new();
        for part in parts {
            counts.merge(&part.report);
            samples.extend(part.seqs.iter().copied().zip(part.report.samples()));
        }
        samples.sort_by_key(|&(seq, _)| seq);
        let cap = RaceReport::new().sample_capacity();
        let samples = samples.into_iter().take(cap).map(|(_, r)| r.clone());
        RaceReport::from_parts(counts.total(), counts.site_counts(), samples.collect(), cap)
    }

    /// One shard's findings: races in nondecreasing sequence order (an
    /// action's hits share its number), on a few objects, with a distinct
    /// detail each so a reordering would show.
    fn random_findings(rng: &mut StdRng, part: usize) -> Arc<Findings> {
        let mut findings = Findings::new();
        let mut seq = rng.gen_range(0..4u64);
        for i in 0..rng.gen_range(0..120usize) {
            seq += rng.gen_range(0..3u64);
            let kind = RaceKind::Commutativity {
                obj: ObjId(rng.gen_range(0..5u64)),
            };
            let before = findings.report.samples().len();
            findings.report.record_with(kind.clone(), || RaceRecord {
                kind: kind.clone(),
                tid: ThreadId(part as u32),
                action: None,
                detail: format!("part {part} race {i}"),
                provenance: None,
            });
            if findings.report.samples().len() > before {
                findings.seqs.push(seq);
            }
        }
        Arc::new(findings)
    }

    #[test]
    fn k_way_merge_equals_the_sort_based_merge() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for _ in 0..300 {
            let parts: Vec<Arc<Findings>> = (0..rng.gen_range(0..9usize))
                .map(|p| random_findings(&mut rng, p))
                .collect();
            let merged = Findings::merge(&parts);
            assert_eq!(merged, sort_merge(&parts));
            assert_eq!(merged.to_json(), sort_merge(&parts).to_json());
        }
    }
}
