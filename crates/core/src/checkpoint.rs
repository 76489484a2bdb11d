//! Durable detector state: the [`Checkpoint`] trait and the one `rd2`
//! checkpoint format every RD2 front-end implements it with.
//!
//! A detector is a deterministic fold over the event stream, so its
//! state at any record boundary is a value. `checkpoint()` writes that
//! value down in the versioned, CRC-framed format of
//! [`crace_vclock::ckpt`]; `restore()` reads it back into a
//! freshly-configured detector, after which
//! `restore(checkpoint(fold(prefix))) ≡ fold(prefix)` — the equivalence
//! `tests/checkpoint_equivalence.rs` proves differentially for the serial
//! detector and the pipeline at every width.
//!
//! Compiled specifications are deliberately **not** serialized: a
//! checkpoint records each registered object's *spec name*, and restore
//! resolves names through a caller-supplied [`SpecResolver`] (the daemon
//! resolves against its session spec; tests against the builtins). This
//! keeps checkpoints small and means a spec bugfix applies on restore
//! rather than being fossilized into old state.
//!
//! Failure is always closed: any damage — version skew, kind mismatch,
//! torn line, flipped byte, unresolvable spec — surfaces as a spanned
//! [`CkptError`] and the caller falls back to replaying the full
//! capture. A checkpoint never restores into a wrong report.

use crate::engine::{ClockMode, ObjState};
use crate::points::{AccessPoint, ClassId, CompiledSpec};
use crate::shard::{Shard, ShardConfig};
use crace_model::{
    Action, LocId, MethodId, ObjId, Provenance, RaceKind, RaceRecord, RaceReport, ThreadId, Value,
};
use crace_vclock::ckpt::{
    clocks_write, esc, push_u64, sync_read, CkptError, CkptReader, CkptRecord, CkptWriter,
};
use crace_vclock::SyncClocks;
use std::sync::Arc;

/// Resolves a registered object's spec name back to its compiled
/// specification during restore. Returning `None` fails the restore
/// closed (the checkpoint references a spec this process cannot check).
pub type SpecResolver<'a> = dyn Fn(&str) -> Option<Arc<CompiledSpec>> + 'a;

/// Durable detector state: serialize to the versioned CRC-framed
/// checkpoint format, and restore from it.
///
/// `restore` is called on a **freshly-constructed detector with the
/// same configuration** (clock mode, provenance window); a checkpoint
/// written under a different configuration is rejected — silently
/// continuing with different semantics could change verdicts. Every
/// implementation writes the one `rd2` kind and refuses any other, so a
/// checkpoint of any RD2 front-end restores into any other, at any worker
/// count.
pub trait Checkpoint {
    /// Serializes the complete detector state.
    fn checkpoint(&self) -> String;

    /// Restores state from `text` into `self`, resolving each
    /// registered object's spec name through `resolve`.
    ///
    /// # Errors
    ///
    /// A spanned [`CkptError`] on any damage or mismatch; `self` must
    /// then be discarded (it may be partially overwritten).
    fn restore(&self, text: &str, resolve: &SpecResolver<'_>) -> Result<(), CkptError>;
}

/// A [`SpecResolver`] over the builtin specifications, for tests and
/// the CLI: translates the builtin of that name on demand.
pub fn builtin_resolver() -> impl Fn(&str) -> Option<Arc<CompiledSpec>> {
    |name: &str| {
        let spec = crace_spec::builtin::all()
            .into_iter()
            .find(|s| s.name() == name)?;
        crate::translate(&spec).ok().map(Arc::new)
    }
}

// ---------------------------------------------------------------------
// Word-level serializers.
// ---------------------------------------------------------------------

/// A [`Value`] as a single word: `n` (nil), `b0`/`b1`, `i<int>`,
/// `s<escaped>`, `r<id>`.
pub fn value_word(v: &Value) -> String {
    match v {
        Value::Nil => "n".to_string(),
        Value::Bool(b) => if *b { "b1" } else { "b0" }.to_string(),
        Value::Int(i) => format!("i{i}"),
        Value::Str(s) => format!("s{}", esc(s)),
        Value::Ref(r) => format!("r{r}"),
    }
}

/// Parses a [`value_word`] rendering.
///
/// # Errors
///
/// [`CkptError`] at `line` on malformation.
pub fn value_parse(word: &str, line: usize) -> Result<Value, CkptError> {
    let bad = || CkptError::at(line, format!("bad value token `{word}`"));
    match word.split_at_checked(1) {
        Some(("n", "")) => Ok(Value::Nil),
        Some(("b", "0")) => Ok(Value::Bool(false)),
        Some(("b", "1")) => Ok(Value::Bool(true)),
        Some(("i", rest)) => rest.parse().map(Value::Int).map_err(|_| bad()),
        Some(("s", rest)) => crace_vclock::ckpt::unesc(rest)
            .map(|s| Value::Str(s.into()))
            .map_err(|e| CkptError::at(line, e)),
        Some(("r", rest)) => rest.parse().map(Value::Ref).map_err(|_| bad()),
        _ => Err(bad()),
    }
}

/// An [`AccessPoint`] as a single word: `<class>:<value>` with `_` for
/// the value-free (ds) points.
pub fn point_word(pt: &AccessPoint) -> String {
    match &pt.value {
        Some(v) => format!("{}:{}", pt.class.0, value_word(v)),
        None => format!("{}:_", pt.class.0),
    }
}

/// Parses a [`point_word`] rendering.
///
/// # Errors
///
/// [`CkptError`] at `line` on malformation.
pub fn point_parse(word: &str, line: usize) -> Result<AccessPoint, CkptError> {
    let (class, value) = word
        .split_once(':')
        .ok_or_else(|| CkptError::at(line, format!("bad access point `{word}`")))?;
    let class: u32 = class
        .parse()
        .map_err(|_| CkptError::at(line, format!("bad access-point class `{class}`")))?;
    let value = match value {
        "_" => None,
        v => Some(value_parse(v, line)?),
    };
    Ok(AccessPoint {
        class: ClassId(class),
        value,
    })
}

/// Appends an [`Action`] to `words` as `<obj> <method> <argc> <args…>
/// <ret>`.
fn action_words(words: &mut Vec<String>, action: &Action) {
    words.push(action.obj().0.to_string());
    words.push(action.method().0.to_string());
    words.push(action.args().len().to_string());
    for arg in action.args() {
        words.push(value_word(arg));
    }
    words.push(value_word(action.ret()));
}

/// Parses an [`action_words`] rendering starting at `rec.words[at]`,
/// returning the action and the index just past it.
fn action_parse(rec: &CkptRecord<'_>, at: usize) -> Result<(Action, usize), CkptError> {
    let obj: u64 = rec.num(at)?;
    let method: u32 = rec.num(at + 1)?;
    let argc: usize = rec.num(at + 2)?;
    let mut args = Vec::with_capacity(argc);
    for i in 0..argc {
        args.push(value_parse(rec.word(at + 3 + i)?, rec.line)?);
    }
    let ret = value_parse(rec.word(at + 3 + argc)?, rec.line)?;
    Ok((
        Action::new(ObjId(obj), MethodId(method), args, ret),
        at + 4 + argc,
    ))
}

/// Appends a [`RaceRecord`] to `words`:
/// `<family> <site> <tid> <detail> (A <action…> | -) (P <prov…> | -)`.
fn record_words(words: &mut Vec<String>, rec: &RaceRecord) {
    let (family, site) = match &rec.kind {
        RaceKind::Commutativity { obj } => (0u8, obj.0),
        RaceKind::ReadWrite { loc } => (1, loc.0),
    };
    words.push(family.to_string());
    words.push(site.to_string());
    words.push(rec.tid.0.to_string());
    words.push(esc(&rec.detail));
    match &rec.action {
        Some(a) => {
            words.push("A".to_string());
            action_words(words, a);
        }
        None => words.push("-".to_string()),
    }
    match &rec.provenance {
        Some(p) => {
            words.push("P".to_string());
            words.push(esc(&p.current));
            words.push(
                p.prior
                    .as_deref()
                    .map_or("-".to_string(), |s| format!("+{}", esc(s))),
            );
            words.push(esc(&p.touched));
            words.push(esc(&p.conflicting));
            words.push(esc(&p.thread_clock));
            words.push(esc(&p.point_clock));
            words.push(p.recent.len().to_string());
            for r in &p.recent {
                words.push(esc(r));
            }
        }
        None => words.push("-".to_string()),
    }
}

/// Parses a [`record_words`] rendering starting at `rec.words[at]`,
/// returning the record and the index just past it.
fn record_parse(rec: &CkptRecord<'_>, at: usize) -> Result<(RaceRecord, usize), CkptError> {
    let family: u8 = rec.num(at)?;
    let site: u64 = rec.num(at + 1)?;
    let kind = match family {
        0 => RaceKind::Commutativity { obj: ObjId(site) },
        1 => RaceKind::ReadWrite { loc: LocId(site) },
        _ => {
            return Err(CkptError::at(
                rec.line,
                format!("unknown race family {family}"),
            ))
        }
    };
    let tid = ThreadId(rec.num(at + 2)?);
    let detail = rec.text(at + 3)?;
    let mut next = at + 4;
    let action = match rec.word(next)? {
        "A" => {
            let (a, after) = action_parse(rec, next + 1)?;
            next = after;
            Some(a)
        }
        "-" => {
            next += 1;
            None
        }
        other => {
            return Err(CkptError::at(
                rec.line,
                format!("bad action marker `{other}`"),
            ))
        }
    };
    let provenance = match rec.word(next)? {
        "P" => {
            let current = rec.text(next + 1)?;
            let prior = match rec.word(next + 2)? {
                "-" => None,
                tagged => Some(
                    tagged
                        .strip_prefix('+')
                        .ok_or_else(|| {
                            CkptError::at(rec.line, format!("bad prior marker `{tagged}`"))
                        })
                        .and_then(|w| {
                            crace_vclock::ckpt::unesc(w).map_err(|e| CkptError::at(rec.line, e))
                        })?,
                ),
            };
            let touched = rec.text(next + 3)?;
            let conflicting = rec.text(next + 4)?;
            let thread_clock = rec.text(next + 5)?;
            let point_clock = rec.text(next + 6)?;
            let nrecent: usize = rec.num(next + 7)?;
            let mut recent = Vec::with_capacity(nrecent);
            for i in 0..nrecent {
                recent.push(rec.text(next + 8 + i)?);
            }
            next += 8 + nrecent;
            Some(Box::new(Provenance {
                current,
                prior,
                touched,
                conflicting,
                thread_clock,
                point_clock,
                recent,
            }))
        }
        "-" => {
            next += 1;
            None
        }
        other => {
            return Err(CkptError::at(
                rec.line,
                format!("bad provenance marker `{other}`"),
            ))
        }
    };
    Ok((
        RaceRecord {
            kind,
            tid,
            action,
            detail,
            provenance,
        },
        next,
    ))
}

/// Writes a [`RaceReport`] as a `report` record (totals + capacity),
/// one `site` record per distinct site, and one `rsample` record per
/// retained sample.
pub fn report_write(w: &mut CkptWriter, report: &RaceReport) {
    w.rec(&format!(
        "report {} {} {}",
        report.total(),
        report.sample_capacity(),
        report.samples().len()
    ));
    let mut sites: Vec<_> = report.site_counts().collect();
    sites.sort();
    for ((family, site), count) in sites {
        w.rec(&format!("site {family} {site} {count}"));
    }
    for sample in report.samples() {
        let mut words = vec!["rsample".to_string()];
        record_words(&mut words, sample);
        w.rec(&words.join(" "));
    }
}

/// Reads back a report written by [`report_write`]. The reader must be
/// positioned on the `report` record.
///
/// # Errors
///
/// [`CkptError`] on malformation or when the record counts disagree
/// with the `report` header record.
pub fn report_read(r: &mut CkptReader<'_>) -> Result<RaceReport, CkptError> {
    let head = expect(r, "report")?;
    let total: u64 = head.num(1)?;
    let capacity: usize = head.num(2)?;
    let nsamples: usize = head.num(3)?;
    let mut sites = Vec::new();
    while let Some(rec) = r.peek() {
        if rec.tag() != "site" {
            break;
        }
        let family: u8 = rec.num(1)?;
        let site: u64 = rec.num(2)?;
        let count: u64 = rec.num(3)?;
        sites.push(((family, site), count));
        r.next_rec();
    }
    let mut samples = Vec::with_capacity(nsamples);
    for _ in 0..nsamples {
        let (sample, _) = record_parse(expect(r, "rsample")?, 1)?;
        samples.push(sample);
    }
    Ok(RaceReport::from_parts(total, sites, samples, capacity))
}

/// The next record, which must be tagged `tag`.
fn expect<'r, 'a>(r: &'r mut CkptReader<'a>, tag: &str) -> Result<&'r CkptRecord<'a>, CkptError> {
    let rec = r
        .next_rec()
        .ok_or_else(|| CkptError::at(0, format!("checkpoint ends where `{tag}` was expected")))?;
    if rec.tag() != tag {
        return Err(CkptError::at(
            rec.line,
            format!("expected `{tag}`, found `{}`", rec.tag()),
        ));
    }
    Ok(rec)
}

/// [`ClockMode`] as a word.
pub fn mode_word(mode: ClockMode) -> &'static str {
    match mode {
        ClockMode::Adaptive => "adaptive",
        ClockMode::FullVector => "full",
    }
}

/// Parses a [`mode_word`] rendering.
///
/// # Errors
///
/// [`CkptError`] at `line` on an unknown mode.
pub fn mode_parse(word: &str, line: usize) -> Result<ClockMode, CkptError> {
    match word {
        "adaptive" => Ok(ClockMode::Adaptive),
        "full" => Ok(ClockMode::FullVector),
        other => Err(CkptError::at(line, format!("unknown clock mode `{other}`"))),
    }
}

// ---------------------------------------------------------------------
// The one RD2 checkpoint kind.
// ---------------------------------------------------------------------

/// The checkpoint kind every RD2 front-end writes and reads —
/// `TraceDetector` and `ParallelRd2` at any worker count — since they
/// fold the stream into one logical state.
pub(crate) const RD2_KIND: &str = "rd2";

/// The reserved fields of an `rd2` checkpoint: the `meta` record's three
/// GC totals (points retired, probes and clock statistics of reclaimed
/// states) and the `joined` record. Every writer emits these constants;
/// they are what a detector without epoch GC always wrote there.
const RESERVED_GC: [&str; 3] = ["0", "0", "0,0,0"];
const RESERVED_JOINED: [&str; 2] = ["joined", "0"];

/// The counters an `rd2` checkpoint's `meta` record carries besides the
/// configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Rd2Meta {
    /// Events shed by the abandoned-thread filter.
    pub shed: u64,
    /// Events accepted (not shed).
    pub events: u64,
    /// Synchronization events accepted.
    pub syncs: u64,
}

/// Starts the `rd2` checkpoint of a front-end under the Table 1 clocks
/// `sync` and writes every record that precedes the report:
/// `meta <mode> <window|-> <shed> <events> <syncs> 0 0 0,0,0` (the last
/// three reserved); a `thread <tid> <vc>` record per initialized thread
/// (tid order) and a `lock <id> <vc>` record per lock (id order); the
/// `abandoned` set; and the reserved `joined 0`. The caller appends the
/// report ([`report_write`] of the merged findings), then every
/// registered object's block in id order ([`Shard::ckpt_objects`], or
/// [`write_blocks`] for several shards), and finishes the writer.
///
/// `last` is the length of the previous blob: the writer starts with room
/// for it and an eighth more, so a blob a little longer than the last
/// never doubles its buffer.
pub(crate) fn rd2_head(
    cfg: ShardConfig,
    sync: &SyncClocks,
    meta: Rd2Meta,
    abandoned: &[ThreadId],
    last: usize,
) -> CkptWriter {
    let mut w = CkptWriter::with_capacity(RD2_KIND, last + last / 8);
    w.rec_with(|out| {
        out.push_str("meta ");
        out.push_str(mode_word(cfg.mode));
        out.push(' ');
        match cfg.provenance_window {
            Some(window) => push_u64(out, window as u64),
            None => out.push('-'),
        }
        for n in [meta.shed, meta.events, meta.syncs] {
            out.push(' ');
            push_u64(out, n);
        }
        for word in RESERVED_GC {
            out.push(' ');
            out.push_str(word);
        }
    });
    clocks_write(&mut w, sync.initialized(), sync.lock_slots());
    w.rec_with(|out| {
        out.push_str("abandoned ");
        push_u64(out, abandoned.len() as u64);
        for t in abandoned {
            out.push(' ');
            push_u64(out, t.0.into());
        }
    });
    w.rec(&RESERVED_JOINED.join(" "));
    w
}

/// One shard's object blocks, rendered apart from the blob (on the
/// shard's own thread, for a pipeline worker): the text and each block's
/// object, end offset and record count.
pub(crate) struct Blocks {
    text: String,
    ends: Vec<(ObjId, usize, u64)>,
}

impl Blocks {
    pub fn of(shard: &mut Shard) -> Blocks {
        let mut text = String::new();
        let ends = shard.ckpt_objects(&mut text);
        Blocks { text, ends }
    }
}

/// Appends the blocks of several shards to `w`, merged by object id.
pub(crate) fn write_blocks(w: &mut CkptWriter, shards: &[Blocks]) {
    let mut blocks: Vec<(ObjId, &str, u64)> = Vec::new();
    for shard in shards {
        let mut start = 0;
        for &(obj, end, records) in &shard.ends {
            blocks.push((obj, &shard.text[start..end], records));
            start = end;
        }
    }
    blocks.sort_unstable_by_key(|&(obj, ..)| obj);
    for (_, block, records) in blocks {
        w.framed(|out| {
            out.push_str(block);
            records
        });
    }
}

/// A parsed `rd2` checkpoint, ready to be installed into any front-end.
pub(crate) struct Rd2State {
    cfg: ShardConfig,
    pub meta: Rd2Meta,
    /// The Table 1 clocks (uninitialized slots at ⊥).
    pub sync: SyncClocks,
    pub abandoned: Vec<ThreadId>,
    pub report: RaceReport,
    pub objects: Vec<(ObjId, Arc<CompiledSpec>, ObjState)>,
}

impl Rd2State {
    /// Validates and parses `text`, resolving spec names through
    /// `resolve`.
    ///
    /// # Errors
    ///
    /// A spanned [`CkptError`] on any damage, on another kind (including
    /// the retired `rd2-trace` / `rd2-parallel` kinds), when the
    /// checkpoint was written under a configuration other than `cfg`, or
    /// when a reserved field is not its constant (a blob of a detector
    /// that ran epoch GC, whose state this one cannot hold).
    pub fn read(
        text: &str,
        resolve: &SpecResolver<'_>,
        cfg: ShardConfig,
    ) -> Result<Rd2State, CkptError> {
        let mut r = CkptReader::new(text, RD2_KIND)?;
        let head = expect(&mut r, "meta")?;
        let mode = mode_parse(head.word(1)?, head.line)?;
        let window =
            match head.word(2)? {
                "-" => None,
                p => Some(p.parse::<usize>().map_err(|_| {
                    CkptError::at(head.line, format!("bad provenance window `{p}`"))
                })?),
            };
        let found = ShardConfig {
            mode,
            provenance_window: window,
        };
        if found != cfg {
            return Err(CkptError::at(
                head.line,
                format!(
                    "checkpoint configuration {found:?} does not match this detector's {cfg:?} — \
                     restore into a detector with the same configuration"
                ),
            ));
        }
        let meta = Rd2Meta {
            shed: head.num(3)?,
            events: head.num(4)?,
            syncs: head.num(5)?,
        };
        if head.words[6..] != RESERVED_GC {
            return Err(CkptError::at(
                head.line,
                "reserved GC totals are not `0 0 0,0,0` — written with epoch GC",
            ));
        }
        let sync = sync_read(&mut r)?;
        let rec = expect(&mut r, "abandoned")?;
        let abandoned = (0..rec.num::<usize>(1)?)
            .map(|i| rec.num(2 + i).map(ThreadId))
            .collect::<Result<_, _>>()?;
        let rec = expect(&mut r, "joined")?;
        if rec.words != RESERVED_JOINED {
            return Err(CkptError::at(
                rec.line,
                "reserved `joined` set is not empty — written with epoch GC",
            ));
        }
        let report = report_read(&mut r)?;
        let mut objects = Vec::new();
        while r.peek().is_some() {
            let rec = expect(&mut r, "object")?;
            let obj = ObjId(rec.num(1)?);
            let name = rec.text(2)?;
            let spec = resolve(&name).ok_or_else(|| {
                CkptError::at(
                    rec.line,
                    format!("checkpoint references unknown spec `{name}` — cannot restore"),
                )
            })?;
            objects.push((obj, spec, ObjState::ckpt_read(&mut r)?));
        }
        Ok(Rd2State {
            cfg,
            meta,
            sync,
            abandoned,
            report,
            objects,
        })
    }

    /// Moves the objects into `n` fresh shards, `route` naming each
    /// object's owner; shard 0 keeps the report as the base its later
    /// findings add to.
    pub fn take_shards(&mut self, n: usize, route: impl Fn(ObjId) -> usize) -> Vec<Shard> {
        let mut shards = vec![Shard::new(self.cfg); n];
        shards[0].set_base(std::mem::take(&mut self.report));
        for (obj, spec, state) in self.objects.drain(..) {
            shards[route(obj)].insert(obj, spec, state);
        }
        shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_words_round_trip() {
        for v in [
            Value::Nil,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Str("a b\nc".into()),
            Value::Str("".into()),
            Value::Ref(7),
        ] {
            assert_eq!(value_parse(&value_word(&v), 1).unwrap(), v, "{v}");
        }
        assert!(value_parse("x9", 1).is_err());
        assert!(value_parse("", 1).is_err());
        assert!(value_parse("b7", 1).is_err());
    }

    #[test]
    fn point_words_round_trip() {
        for pt in [
            AccessPoint {
                class: ClassId(3),
                value: None,
            },
            AccessPoint {
                class: ClassId(0),
                value: Some(Value::Str("a.com".into())),
            },
        ] {
            assert_eq!(point_parse(&point_word(&pt), 1).unwrap(), pt);
        }
        assert!(point_parse("nocolon", 1).is_err());
    }

    #[test]
    fn reports_round_trip_with_action_and_provenance() {
        let mut report = RaceReport::with_sample_capacity(4);
        report.record(RaceRecord {
            kind: RaceKind::Commutativity { obj: ObjId(1) },
            tid: ThreadId(2),
            action: Some(Action::new(
                ObjId(1),
                MethodId(0),
                vec![Value::str("a.com"), Value::Int(2)],
                Value::Int(1),
            )),
            detail: "w:\"a.com\" vs w:\"a.com\"".to_string(),
            provenance: Some(Box::new(Provenance {
                current: "τ2: o1.put(\"a.com\", 2)/1".into(),
                prior: Some("τ1: o1.put(\"a.com\", 1)/nil".into()),
                touched: "put.w0:\"a.com\"".into(),
                conflicting: "put.w0:\"a.com\"".into(),
                thread_clock: "⟨0, 1⟩".into(),
                point_clock: "1@τ1".into(),
                recent: vec!["e1".into(), "e2 with space".into()],
            })),
        });
        report.record(RaceRecord {
            kind: RaceKind::ReadWrite { loc: LocId(16) },
            tid: ThreadId(0),
            action: None,
            detail: String::new(),
            provenance: None,
        });
        for _ in 0..10 {
            // Push the total past the sample capacity.
            report.record(RaceRecord {
                kind: RaceKind::Commutativity { obj: ObjId(9) },
                tid: ThreadId(1),
                action: None,
                detail: "overflow".into(),
                provenance: None,
            });
        }
        let mut w = CkptWriter::new("t");
        report_write(&mut w, &report);
        let blob = w.finish();
        let mut r = CkptReader::new(&blob, "t").unwrap();
        let restored = report_read(&mut r).unwrap();
        assert_eq!(restored, report);
        assert_eq!(restored.to_json(), report.to_json());
    }
}
