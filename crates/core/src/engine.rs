//! The per-object core of Algorithm 1.

use crate::fxhash::FxHashMap;
use crate::points::{AccessPoint, ClassId, CompiledSpec};
use crace_model::{Action, Provenance, ThreadId};
use crace_vclock::ckpt::{adaptive_append, frame, frame_line, push_u64, stats_append};
use crace_vclock::{AdaptiveClock, ClockStats, VectorClock};
use std::collections::VecDeque;

/// One commutativity race found by phase 1 of Algorithm 1: the touched
/// point's class and the conflicting active class.
///
/// Stays tiny on the default path (two indices and a null pointer): race
/// *recording* must remain cheap even when a workload races millions of
/// times, so human-readable details are only rendered for the sampled
/// records a report retains. The `provenance` box is populated only by
/// states built with [`ObjState::with_provenance`], and only when the
/// caller asks for detail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceHit {
    /// The class of the point touched by the current action.
    pub touched: ClassId,
    /// The conflicting active class.
    pub conflicting: ClassId,
    /// Full race provenance, when collection is enabled and requested.
    pub provenance: Option<Box<Provenance>>,
}

/// Which representation an [`ObjState`] keeps for its access-point clocks.
///
/// The two modes are observationally equivalent — same races, same counts
/// — which `tests/adaptive_vs_full.rs` verifies on random traces; the full
///-vector mode exists exactly to serve as that differential reference (and
/// as the before/after baseline in the benchmarks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ClockMode {
    /// Epoch-compressed `pt.vc` with promotion on contention (the fast
    /// default).
    #[default]
    Adaptive,
    /// Always keep the full vector (the seed behaviour; reference mode).
    FullVector,
}

/// The per-object auxiliary state of Algorithm 1: the vector clock
/// `pt.vc` of every *active* access point.
///
/// The paper keeps a global `active : Obj → P(X)` plus a clock map
/// `ptvc : X → VC`; following the implementation note in §5.3 we attach the
/// state to the object it belongs to, so reclaiming an object reclaims its
/// shadow state (the `forget`-style optimization the tool implements).
///
/// Point clocks are stored as [`AdaptiveClock`]s: an access point touched
/// by one thread at a time (or handed off in order) costs O(1) per touch —
/// an epoch compare and overwrite — instead of an O(threads) vector join.
/// The first concurrent touch promotes that point to a full vector. See
/// [`AdaptiveClock`] for why this never changes a race verdict, and
/// [`ObjState::clock_stats`] for how often each path was taken.
///
/// # Examples
///
/// ```
/// use crace_core::{translate, ObjState};
/// use crace_model::{Action, ObjId, ThreadId, Value};
/// use crace_spec::builtin;
/// use crace_vclock::VectorClock;
///
/// let spec = builtin::dictionary();
/// let compiled = translate(&spec).unwrap();
/// let put = spec.method_id("put").unwrap();
/// let mut state = ObjState::new();
///
/// // Two concurrent same-key puts: the second one races.
/// let a = Action::new(ObjId(0), put, vec![Value::Int(5), Value::Int(1)], Value::Nil);
/// let b = Action::new(ObjId(0), put, vec![Value::Int(5), Value::Int(2)], Value::Int(1));
/// let c1 = VectorClock::from_components([1, 0]);
/// let c2 = VectorClock::from_components([0, 1]);
/// assert_eq!(state.on_action(&compiled, &a, ThreadId(0), &c1).len(), 0);
/// assert_eq!(state.on_action(&compiled, &b, ThreadId(1), &c2).len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ObjState {
    /// `pt.vc` for every active point, keyed by `(class, value)`.
    active: FxHashMap<AccessPoint, PointClock>,
    /// A point was added since the last checkpoint render, so
    /// the cached `pt` line order no longer matches the active set.
    reshaped: bool,
    /// Total phase-1 conflict probes performed (one per conflicting class
    /// per touched point) — the quantity §5.4 bounds by `|Cₒ(pt)|`.
    probes: u64,
    /// How the phase-2 updates were served (epoch / promotion / vector).
    stats: ClockStats,
    mode: ClockMode,
    /// Provenance bookkeeping — absent (and costing one branch per action)
    /// unless the state was built with [`ObjState::with_provenance`].
    trace: Option<Box<TraceState>>,
    /// Scratch for `ηₒ(a)`, reused by every action so phase 1 and 2
    /// allocate nothing once it has grown to the widest method.
    touched: Vec<AccessPoint>,
}

/// An active point's clock `pt.vc`, and whether phase 2 wrote it since
/// the last checkpoint rendered the point's `pt` line.
#[derive(Clone, Debug)]
struct PointClock {
    clock: AdaptiveClock,
    stale: bool,
}

/// One object's `pt` checkpoint lines as the last checkpoint rendered
/// them, in point-word order: each active point's key, its
/// [`point_word`](crate::checkpoint::point_word) (the sort key) and its
/// framed line. Text and keys only — never a copy of a clock — so it is
/// bounded by the object's share of one checkpoint. An empty cache makes
/// the next render a cold one.
#[derive(Clone, Debug, Default)]
pub(crate) struct PointLines(Vec<PointLine>);

#[derive(Clone, Debug)]
struct PointLine {
    pt: AccessPoint,
    word: String,
    line: String,
}

/// Renders the framed `pt <word> <clock>` line of one point into `line`,
/// growing it only to what the line needs: the cache keeps every line.
fn render_point(line: &mut String, word: &str, clock: &AdaptiveClock, scratch: &mut String) {
    scratch.clear();
    scratch.push_str("pt ");
    scratch.push_str(word);
    scratch.push(' ');
    adaptive_append(scratch, clock);
    line.clear();
    // The frame adds `=<len>:<crc> ` and the newline: at most 31 bytes.
    line.reserve_exact(scratch.len() + 31);
    frame(line, scratch);
    line.push('\n');
}

/// What [`ObjState`] remembers for race explanations: the trailing window
/// of event descriptors on the object, and the descriptor of the last
/// action that touched each active access point.
#[derive(Clone, Debug, Default)]
struct TraceState {
    /// Window capacity; the window holds the most recent `cap` actions.
    cap: usize,
    /// The last `cap` action descriptors on this object, oldest first.
    window: VecDeque<String>,
    /// Descriptor of the most recent action that touched each point.
    last_touch: FxHashMap<AccessPoint, String>,
}

/// The human-readable name of a concrete access point: the class label
/// plus the slot value when the class carries one, e.g. `w:"a.com"`.
fn point_label(spec: &CompiledSpec, pt: &AccessPoint) -> String {
    match &pt.value {
        Some(v) => format!("{}:{v}", spec.label(pt.class)),
        None => spec.label(pt.class).to_string(),
    }
}

impl ObjState {
    /// Creates empty state (no active access points), with adaptive
    /// clocks.
    pub fn new() -> ObjState {
        ObjState::default()
    }

    /// Creates empty state with an explicit clock representation.
    pub fn with_mode(mode: ClockMode) -> ObjState {
        ObjState {
            mode,
            ..ObjState::default()
        }
    }

    /// Creates empty state that additionally collects race provenance: a
    /// trailing window of the last `window` actions on the object, plus
    /// the last action that touched each active access point. A `window`
    /// of 0 keeps the point/clock provenance but no event window.
    pub fn with_provenance(mode: ClockMode, window: usize) -> ObjState {
        ObjState {
            mode,
            trace: Some(Box::new(TraceState {
                cap: window,
                ..TraceState::default()
            })),
            ..ObjState::default()
        }
    }

    /// Number of active access points (the `|active(o)|` the direct
    /// approach's complexity depends on, §5.4).
    pub fn num_active(&self) -> usize {
        self.active.len()
    }

    /// Total phase-1 conflict probes performed so far. Per Theorem 6.6
    /// this grows by at most a spec-dependent constant per action — the
    /// Fig. 4 claim ("a single conflict check and not three") made
    /// countable.
    pub fn num_probes(&self) -> u64 {
        self.probes
    }

    /// How this object's phase-2 clock updates were served — the epoch-hit
    /// rate of the adaptive representation. All counts land in
    /// `vector_updates` when the state runs in
    /// [`ClockMode::FullVector`].
    pub fn clock_stats(&self) -> ClockStats {
        self.stats
    }

    /// Renders this object's shadow state as framed checkpoint lines
    /// into `out`: one `ostate` header (mode, probes, clock stats,
    /// provenance cap), one `pt` record per active access point (sorted by
    /// point word, for reproducible checkpoints), and — in provenance mode
    /// — `owin`/`otouch` records for the event window and last-touch map.
    ///
    /// `lines` holds the `pt` lines this state's previous render produced.
    /// A point whose clock phase 2 has not written since is copied from
    /// there verbatim; only stale and new points are rendered, and the
    /// lines are sorted again only when a point was added.
    /// The bytes are always those of a cold render (an empty `lines`).
    /// Returns the number of records rendered.
    pub(crate) fn ckpt_render(
        &mut self,
        out: &mut String,
        lines: &mut PointLines,
        scratch: &mut String,
    ) -> u64 {
        use crate::checkpoint::{mode_word, point_word};
        use crace_vclock::ckpt::esc;
        frame_line(out, scratch, |p| {
            p.push_str("ostate ");
            p.push_str(mode_word(self.mode));
            p.push(' ');
            push_u64(p, self.probes);
            p.push(' ');
            stats_append(p, &self.stats);
            p.push(' ');
            match &self.trace {
                Some(t) => push_u64(p, t.cap as u64),
                None => p.push('-'),
            }
        });
        let start = out.len();
        if !self.reshaped && lines.0.len() == self.active.len() {
            // The active set is the cached one: walk it in cached order.
            for cached in &mut lines.0 {
                let Some(pt) = self.active.get_mut(&cached.pt) else {
                    // Only a missed `reshaped` mark gets here: render the
                    // whole set below rather than write a wrong blob.
                    out.truncate(start);
                    self.reshaped = true;
                    break;
                };
                if pt.stale {
                    render_point(&mut cached.line, &cached.word, &pt.clock, scratch);
                    pt.stale = false;
                }
                out.push_str(&cached.line);
            }
        } else {
            self.reshaped = true;
        }
        if std::mem::take(&mut self.reshaped) {
            let mut old: FxHashMap<AccessPoint, (String, String)> = lines
                .0
                .drain(..)
                .map(|cached| (cached.pt, (cached.word, cached.line)))
                .collect();
            for (pt, clock) in &mut self.active {
                let (pt, word, mut line, current) = match old.remove_entry(pt) {
                    Some((pt, (word, line))) => (pt, word, line, !clock.stale),
                    None => (pt.clone(), point_word(pt), String::new(), false),
                };
                if !current {
                    render_point(&mut line, &word, &clock.clock, scratch);
                }
                clock.stale = false;
                lines.0.push(PointLine { pt, word, line });
            }
            lines.0.sort_unstable_by(|a, b| a.word.cmp(&b.word));
            for cached in &lines.0 {
                out.push_str(&cached.line);
            }
        }
        let mut records = 1 + lines.0.len();
        if let Some(trace) = &self.trace {
            records += trace.window.len() + trace.last_touch.len();
            for entry in &trace.window {
                frame_line(out, scratch, |p| {
                    p.push_str("owin ");
                    p.push_str(&esc(entry));
                });
            }
            let mut touches: Vec<(String, &String)> = trace
                .last_touch
                .iter()
                .map(|(pt, desc)| (point_word(pt), desc))
                .collect();
            touches.sort_by(|a, b| a.0.cmp(&b.0));
            for (pt, desc) in touches {
                frame_line(out, scratch, |p| {
                    p.push_str("otouch ");
                    p.push_str(&pt);
                    p.push(' ');
                    p.push_str(&esc(desc));
                });
            }
        }
        records as u64
    }

    /// Reads back the state written by [`ObjState::ckpt_render`]; the
    /// reader must be positioned on the `ostate` record.
    ///
    /// # Errors
    ///
    /// A spanned [`crace_vclock::CkptError`] on any malformation.
    pub(crate) fn ckpt_read(
        r: &mut crace_vclock::CkptReader<'_>,
    ) -> Result<ObjState, crace_vclock::CkptError> {
        use crate::checkpoint::{mode_parse, point_parse};
        use crace_vclock::ckpt::{adaptive_parse, stats_parse, CkptError};
        let head = r
            .next_rec()
            .ok_or_else(|| CkptError::at(0, "checkpoint ends where `ostate` was expected"))?;
        if head.tag() != "ostate" {
            return Err(CkptError::at(
                head.line,
                format!("expected `ostate`, found `{}`", head.tag()),
            ));
        }
        let mode = mode_parse(head.word(1)?, head.line)?;
        let probes: u64 = head.num(2)?;
        let stats = stats_parse(head.word(3)?, head.line)?;
        let trace = match head.word(4)? {
            "-" => None,
            cap => {
                let cap: usize = cap.parse().map_err(|_| {
                    CkptError::at(head.line, format!("bad provenance window `{cap}`"))
                })?;
                Some(Box::new(TraceState {
                    cap,
                    ..TraceState::default()
                }))
            }
        };
        let mut state = ObjState {
            active: FxHashMap::default(),
            reshaped: true,
            probes,
            stats,
            mode,
            trace,
            touched: Vec::new(),
        };
        while let Some(rec) = r.peek() {
            match rec.tag() {
                "pt" => {
                    let pt = point_parse(rec.word(1)?, rec.line)?;
                    let clock = adaptive_parse(rec.word(2)?, rec.line)?;
                    state.active.insert(pt, PointClock { clock, stale: true });
                }
                "owin" => {
                    let trace = state.trace.as_mut().ok_or_else(|| {
                        CkptError::at(rec.line, "`owin` record on a provenance-free object")
                    })?;
                    trace.window.push_back(rec.text(1)?);
                }
                "otouch" => {
                    let pt = point_parse(rec.word(1)?, rec.line)?;
                    let desc = rec.text(2)?;
                    let trace = state.trace.as_mut().ok_or_else(|| {
                        CkptError::at(rec.line, "`otouch` record on a provenance-free object")
                    })?;
                    trace.last_touch.insert(pt, desc);
                }
                _ => break,
            }
            r.next_rec();
        }
        Ok(state)
    }

    /// Processes one action event by thread `tid` with vector clock
    /// `vc(e) = clock` (which must be `T(tid)`, the acting thread's
    /// current clock): phase 1 checks every touched point against its
    /// conflicting active points; phase 2 folds `clock` into the touched
    /// points' clocks.
    ///
    /// Returns one [`RaceHit`] per conflicting access-point pair (what the
    /// algorithm reports at line 6).
    pub fn on_action(
        &mut self,
        spec: &CompiledSpec,
        action: &Action,
        tid: ThreadId,
        clock: &VectorClock,
    ) -> Vec<RaceHit> {
        self.on_action_detailed(spec, action, tid, clock, true)
    }

    /// [`ObjState::on_action`] with explicit control over provenance
    /// rendering: when `want_detail` is false the bookkeeping (event
    /// window, last-touch map) still advances but no [`Provenance`] is
    /// rendered for the returned hits — the path detectors take once their
    /// report's sample buffer is full.
    pub fn on_action_detailed(
        &mut self,
        spec: &CompiledSpec,
        action: &Action,
        tid: ThreadId,
        clock: &VectorClock,
        want_detail: bool,
    ) -> Vec<RaceHit> {
        let mut races = Vec::new();
        self.on_action_into(spec, action, tid, clock, want_detail, &mut races);
        races
    }

    /// [`ObjState::on_action_detailed`] that appends its hits to `races`
    /// instead of returning a fresh `Vec`: the detectors' path, which
    /// reuses one hit buffer and this state's touched-point buffer, so an
    /// action allocates nothing unless it creates an access point or
    /// renders provenance.
    pub fn on_action_into(
        &mut self,
        spec: &CompiledSpec,
        action: &Action,
        tid: ThreadId,
        clock: &VectorClock,
        want_detail: bool,
        races: &mut Vec<RaceHit>,
    ) {
        let mut touched = std::mem::take(&mut self.touched);
        spec.touched_into(action, &mut touched);
        // Rendered once per action, only when provenance is on.
        let desc = self.trace.as_ref().map(|_| format!("{tid}: {action}"));

        // Phase 1: check for commutativity races.
        for pt in &touched {
            for &other_class in spec.conflicting(pt.class) {
                self.probes += 1;
                let key = AccessPoint {
                    class: other_class,
                    value: pt.value.clone(),
                };
                if let Some(PointClock { clock: pt_vc, .. }) = self.active.get(&key) {
                    if !pt_vc.le(clock) {
                        let provenance = match (&self.trace, &desc, want_detail) {
                            (Some(trace), Some(desc), true) => Some(Box::new(Provenance {
                                current: desc.clone(),
                                prior: trace.last_touch.get(&key).cloned(),
                                touched: point_label(spec, pt),
                                conflicting: point_label(spec, &key),
                                thread_clock: clock.to_string(),
                                point_clock: pt_vc.to_string(),
                                recent: trace.window.iter().cloned().collect(),
                            })),
                            _ => None,
                        };
                        races.push(RaceHit {
                            touched: pt.class,
                            conflicting: other_class,
                            provenance,
                        });
                    }
                }
            }
        }

        // Provenance bookkeeping, before phase 2 consumes the points.
        if let Some(trace) = &mut self.trace {
            let desc = desc.as_deref().unwrap_or_default();
            for pt in &touched {
                trace.last_touch.insert(pt.clone(), desc.to_string());
            }
            if trace.cap > 0 {
                if trace.window.len() == trace.cap {
                    trace.window.pop_front();
                }
                trace.window.push_back(desc.to_string());
            }
        }

        // Phase 2: update auxiliary state, marking each written clock
        // stale for the next checkpoint render.
        for pt in touched.drain(..) {
            match self.active.entry(pt) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let pt = e.get_mut();
                    match self.mode {
                        ClockMode::Adaptive => {
                            pt.stale = true;
                            self.stats.record(pt.clock.observe(tid, clock));
                        }
                        ClockMode::FullVector => {
                            pt.stale = true;
                            let AdaptiveClock::Vector(v) = &mut pt.clock else {
                                unreachable!("FullVector state never stores epochs");
                            };
                            v.join_in_place(clock);
                            self.stats.record(crace_vclock::Observation::VectorJoin);
                        }
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    let clock = match self.mode {
                        ClockMode::Adaptive => AdaptiveClock::first(tid, clock),
                        ClockMode::FullVector => AdaptiveClock::Vector(clock.clone()),
                    };
                    e.insert(PointClock { clock, stale: true });
                    self.reshaped = true;
                }
            }
        }
        self.touched = touched;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::translate;
    use crace_model::{MethodId, ObjId, Value};
    use crace_spec::{builtin, Spec};

    fn setup() -> (Spec, CompiledSpec) {
        let spec = builtin::dictionary();
        let compiled = translate(&spec).unwrap();
        (spec, compiled)
    }

    fn put(spec: &Spec, k: i64, v: Value, p: Value) -> Action {
        Action::new(
            ObjId(0),
            spec.method_id("put").unwrap(),
            vec![Value::Int(k), v],
            p,
        )
    }

    fn vc(c: &[u64]) -> VectorClock {
        VectorClock::from_components(c.iter().copied())
    }

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);

    #[test]
    fn ordered_actions_do_not_race() {
        let (spec, c) = setup();
        let mut st = ObjState::new();
        let a = put(&spec, 1, Value::Int(1), Value::Nil);
        let b = put(&spec, 1, Value::Int(2), Value::Int(1));
        assert!(st.on_action(&c, &a, T0, &vc(&[1, 0])).is_empty());
        // b's clock dominates a's: ordered, no race.
        assert!(st.on_action(&c, &b, T1, &vc(&[2, 1])).is_empty());
    }

    #[test]
    fn concurrent_same_key_writes_race() {
        let (spec, c) = setup();
        let mut st = ObjState::new();
        let a = put(&spec, 1, Value::Int(1), Value::Nil);
        let b = put(&spec, 1, Value::Int(2), Value::Int(1));
        assert!(st.on_action(&c, &a, T0, &vc(&[1, 0])).is_empty());
        let races = st.on_action(&c, &b, T1, &vc(&[0, 1]));
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].touched, races[0].conflicting); // w:k vs w:k
    }

    #[test]
    fn concurrent_different_key_writes_do_not_race() {
        let (spec, c) = setup();
        let mut st = ObjState::new();
        let a = put(&spec, 1, Value::Int(1), Value::Int(9));
        let b = put(&spec, 2, Value::Int(2), Value::Int(9));
        assert!(st.on_action(&c, &a, T0, &vc(&[1, 0])).is_empty());
        assert!(st.on_action(&c, &b, T1, &vc(&[0, 1])).is_empty());
    }

    #[test]
    fn resize_races_with_concurrent_size() {
        let (spec, c) = setup();
        let mut st = ObjState::new();
        // Fresh insert resizes.
        let grow = put(&spec, 1, Value::Int(1), Value::Nil);
        let size = Action::new(
            ObjId(0),
            spec.method_id("size").unwrap(),
            vec![],
            Value::Int(1),
        );
        assert!(st.on_action(&c, &grow, T0, &vc(&[1, 0])).is_empty());
        assert_eq!(st.on_action(&c, &size, T1, &vc(&[0, 1])).len(), 1);
    }

    #[test]
    fn non_resizing_put_does_not_race_with_size() {
        let (spec, c) = setup();
        let mut st = ObjState::new();
        // Overwrite non-nil → non-nil: no resize (the a2/a3 observation in §2).
        let over = put(&spec, 1, Value::Int(2), Value::Int(1));
        let size = Action::new(
            ObjId(0),
            spec.method_id("size").unwrap(),
            vec![],
            Value::Int(1),
        );
        assert!(st.on_action(&c, &over, T0, &vc(&[1, 0])).is_empty());
        assert!(st.on_action(&c, &size, T1, &vc(&[0, 1])).is_empty());
    }

    #[test]
    fn concurrent_reads_never_race() {
        let (spec, c) = setup();
        let mut st = ObjState::new();
        let get = |k: i64| {
            Action::new(
                ObjId(0),
                spec.method_id("get").unwrap(),
                vec![Value::Int(k)],
                Value::Int(7),
            )
        };
        assert!(st.on_action(&c, &get(1), T0, &vc(&[1, 0])).is_empty());
        assert!(st.on_action(&c, &get(1), T1, &vc(&[0, 1])).is_empty());
        // A read-like put is also a read.
        let noop = put(&spec, 1, Value::Int(7), Value::Int(7));
        assert!(st.on_action(&c, &noop, T2, &vc(&[0, 0, 1])).is_empty());
    }

    #[test]
    fn read_write_on_same_key_races() {
        let (spec, c) = setup();
        let mut st = ObjState::new();
        let get = Action::new(
            ObjId(0),
            spec.method_id("get").unwrap(),
            vec![Value::Int(1)],
            Value::Nil,
        );
        let write = put(&spec, 1, Value::Int(5), Value::Nil);
        assert!(st.on_action(&c, &get, T0, &vc(&[1, 0])).is_empty());
        let races = st.on_action(&c, &write, T1, &vc(&[0, 1]));
        // put touches w:1 (conflicts with r:1) and resize (no active size).
        assert_eq!(races.len(), 1);
    }

    #[test]
    fn phase2_joins_clocks_of_repeated_touches() {
        let (spec, c) = setup();
        let mut st = ObjState::new();
        let w1 = put(&spec, 1, Value::Int(1), Value::Int(9));
        let w2 = put(&spec, 1, Value::Int(2), Value::Int(1));
        // τ0 writes, τ1 writes unordered → race; afterwards the point's
        // clock is the join ⟨1,1⟩, so a later τ0 action with clock ⟨2,1⟩ is
        // ordered after BOTH writes and must not race (the Fig. 3 a3 case).
        st.on_action(&c, &w1, T0, &vc(&[1, 0]));
        assert_eq!(st.on_action(&c, &w2, T1, &vc(&[0, 1])).len(), 1);
        let w3 = put(&spec, 1, Value::Int(3), Value::Int(2));
        assert!(st.on_action(&c, &w3, T0, &vc(&[2, 1])).is_empty());
        // But a τ0 action that saw only its own history still races.
        let mut st2 = ObjState::new();
        st2.on_action(&c, &w1, T0, &vc(&[1, 0]));
        st2.on_action(&c, &w2, T1, &vc(&[0, 1]));
        assert_eq!(st2.on_action(&c, &w3, T0, &vc(&[2, 0])).len(), 1);
    }

    #[test]
    fn one_action_can_race_with_multiple_points() {
        let (spec, c) = setup();
        let mut st = ObjState::new();
        // Two concurrent fresh inserts on different keys, then a size()
        // concurrent with both: size races once per active resize-conflict…
        st.on_action(
            &c,
            &put(&spec, 1, Value::Int(1), Value::Nil),
            T0,
            &vc(&[1, 0, 0]),
        );
        st.on_action(
            &c,
            &put(&spec, 2, Value::Int(1), Value::Nil),
            T1,
            &vc(&[0, 1, 0]),
        );
        let size = Action::new(
            ObjId(0),
            spec.method_id("size").unwrap(),
            vec![],
            Value::Int(2),
        );
        // …but resize is ONE ds point (value-free), so one race is reported
        // against the joined clock.
        let races = st.on_action(&c, &size, T2, &vc(&[0, 0, 1]));
        assert_eq!(races.len(), 1);
    }

    #[test]
    fn num_active_grows_with_distinct_points_only() {
        let (spec, c) = setup();
        let mut st = ObjState::new();
        assert_eq!(st.num_active(), 0);
        st.on_action(&c, &put(&spec, 1, Value::Int(1), Value::Nil), T0, &vc(&[1]));
        assert_eq!(st.num_active(), 2); // w:1 + resize
        st.on_action(
            &c,
            &put(&spec, 1, Value::Int(2), Value::Int(1)),
            T0,
            &vc(&[2]),
        );
        assert_eq!(st.num_active(), 2); // w:1 again
        st.on_action(&c, &put(&spec, 2, Value::Int(1), Value::Nil), T0, &vc(&[3]));
        assert_eq!(st.num_active(), 3); // w:2 (+ resize already active)
    }

    #[test]
    fn single_thread_workload_stays_all_epochs() {
        let (spec, c) = setup();
        let mut st = ObjState::new();
        for i in 1..=10u64 {
            let prev = if i == 1 {
                Value::Nil
            } else {
                Value::Int(i as i64 - 1)
            };
            st.on_action(
                &c,
                &put(&spec, 1, Value::Int(i as i64), prev),
                T0,
                &vc(&[i]),
            );
        }
        let stats = st.clock_stats();
        assert_eq!(stats.promotions, 0);
        assert_eq!(stats.vector_updates, 0);
        assert!(stats.epoch_updates > 0);
        assert_eq!(stats.epoch_hit_rate(), 1.0);
    }

    #[test]
    fn contention_promotes_and_is_counted() {
        let (spec, c) = setup();
        let mut st = ObjState::new();
        let w1 = put(&spec, 1, Value::Int(1), Value::Int(9));
        let w2 = put(&spec, 1, Value::Int(2), Value::Int(1));
        st.on_action(&c, &w1, T0, &vc(&[1, 0]));
        st.on_action(&c, &w2, T1, &vc(&[0, 1]));
        let stats = st.clock_stats();
        assert_eq!(stats.promotions, 1); // the shared w:1 point
                                         // A third, ordered access joins into the now-vector clock.
        let w3 = put(&spec, 1, Value::Int(3), Value::Int(2));
        st.on_action(&c, &w3, T0, &vc(&[2, 1]));
        assert_eq!(st.clock_stats().vector_updates, 1);
    }

    #[test]
    fn full_vector_mode_reports_identically() {
        let (spec, c) = setup();
        let mut adaptive = ObjState::new();
        let mut full = ObjState::with_mode(ClockMode::FullVector);
        let w1 = put(&spec, 1, Value::Int(1), Value::Int(9));
        let w2 = put(&spec, 1, Value::Int(2), Value::Int(1));
        let w3 = put(&spec, 1, Value::Int(3), Value::Int(2));
        for (action, tid, clock) in [
            (&w1, T0, vc(&[1, 0])),
            (&w2, T1, vc(&[0, 1])),
            (&w3, T0, vc(&[2, 0])),
        ] {
            assert_eq!(
                adaptive.on_action(&c, action, tid, &clock),
                full.on_action(&c, action, tid, &clock)
            );
        }
        // The reference mode never uses the compressed path.
        assert_eq!(full.clock_stats().epoch_updates, 0);
        assert_eq!(full.clock_stats().promotions, 0);
    }

    #[test]
    fn provenance_carries_points_clocks_and_window() {
        let (spec, c) = setup();
        let mut st = ObjState::with_provenance(ClockMode::Adaptive, 4);
        let w1 = put(&spec, 1, Value::Int(1), Value::Int(9));
        let w2 = put(&spec, 1, Value::Int(2), Value::Int(1));
        assert!(st.on_action(&c, &w1, T0, &vc(&[1, 0])).is_empty());
        let races = st.on_action(&c, &w2, T1, &vc(&[0, 1]));
        assert_eq!(races.len(), 1);
        let p = races[0].provenance.as_ref().expect("provenance collected");
        assert!(p.current.contains("τ1"), "{}", p.current);
        assert_eq!(p.prior.as_deref(), Some(format!("τ0: {w1}").as_str()));
        assert_eq!(p.touched, "put.w0:1");
        assert_eq!(p.conflicting, "put.w0:1");
        assert_eq!(p.thread_clock, "⟨0, 1⟩");
        // The conflicting w:1 point was only touched by τ0 → still an epoch.
        assert_eq!(p.point_clock, "1@τ0");
        assert_eq!(p.recent, vec![format!("τ0: {w1}")]);
    }

    #[test]
    fn provenance_window_is_bounded_and_oldest_first() {
        let (spec, c) = setup();
        let mut st = ObjState::with_provenance(ClockMode::Adaptive, 2);
        for i in 1..=4i64 {
            st.on_action(
                &c,
                &put(&spec, i, Value::Int(i), Value::Nil),
                T0,
                &vc(&[i as u64]),
            );
        }
        let racy = put(&spec, 4, Value::Int(9), Value::Int(4));
        let races = st.on_action(&c, &racy, T1, &vc(&[0, 1]));
        let p = races[0].provenance.as_ref().unwrap();
        assert_eq!(p.recent.len(), 2);
        assert!(p.recent[0].contains("(3, 3)"), "{:?}", p.recent);
        assert!(p.recent[1].contains("(4, 4)"), "{:?}", p.recent);
    }

    #[test]
    fn want_detail_false_skips_rendering_but_keeps_bookkeeping() {
        let (spec, c) = setup();
        let mut st = ObjState::with_provenance(ClockMode::Adaptive, 4);
        let w1 = put(&spec, 1, Value::Int(1), Value::Int(9));
        let w2 = put(&spec, 1, Value::Int(2), Value::Int(1));
        st.on_action_detailed(&c, &w1, T0, &vc(&[1, 0]), false);
        let races = st.on_action_detailed(&c, &w2, T1, &vc(&[0, 1]), false);
        assert_eq!(races.len(), 1);
        assert!(races[0].provenance.is_none());
        // The window kept advancing: a later detailed race still sees w1/w2.
        let w3 = put(&spec, 1, Value::Int(3), Value::Int(2));
        let races = st.on_action_detailed(&c, &w3, T2, &vc(&[0, 0, 1]), true);
        let p = races[0].provenance.as_ref().unwrap();
        assert_eq!(p.recent.len(), 2);
    }

    #[test]
    fn default_state_collects_no_provenance() {
        let (spec, c) = setup();
        let mut st = ObjState::new();
        let w1 = put(&spec, 1, Value::Int(1), Value::Int(9));
        let w2 = put(&spec, 1, Value::Int(2), Value::Int(1));
        st.on_action(&c, &w1, T0, &vc(&[1, 0]));
        let races = st.on_action(&c, &w2, T1, &vc(&[0, 1]));
        assert_eq!(races.len(), 1);
        assert!(races[0].provenance.is_none());
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn mismatched_action_arity_panics() {
        let (_, c) = setup();
        let bogus = Action::new(ObjId(0), MethodId(0), vec![], Value::Nil);
        ObjState::new().on_action(&c, &bogus, T0, &VectorClock::new());
    }
}
