//! Race reports — what an analysis hands back, in the shape of Table 2.

use crate::{Action, LocId, ObjId, ThreadId};
use crace_obs::json::{escape, escape_into};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// The kind of conflict a race was detected on.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RaceKind {
    /// A commutativity race on a shared object (RD2 / direct detector).
    Commutativity {
        /// The object whose invocations did not commute.
        obj: ObjId,
    },
    /// A low-level read-write or write-write data race (FastTrack).
    ReadWrite {
        /// The racing memory location.
        loc: LocId,
    },
}

impl RaceKind {
    /// A stable key identifying the *site* of the race (the object or the
    /// location) — Table 2 counts distinct sites in parentheses.
    fn site(&self) -> (u8, u64) {
        match self {
            RaceKind::Commutativity { obj } => (0, obj.0),
            RaceKind::ReadWrite { loc } => (1, loc.0),
        }
    }

    /// The short label of a site key (`o3` for objects, `@0x10` for
    /// locations) — the keys of the per-site breakdowns.
    fn site_label(site: (u8, u64)) -> String {
        match site {
            (0, id) => ObjId(id).to_string(),
            (_, id) => LocId(id).to_string(),
        }
    }

    /// The race family as a lowercase word, for machine-readable output.
    fn word(&self) -> &'static str {
        match self {
            RaceKind::Commutativity { .. } => "commutativity",
            RaceKind::ReadWrite { .. } => "read-write",
        }
    }
}

/// Where a sampled race came from: the colliding access points, the
/// descriptors of the two racing actions, both clocks at detection time,
/// and the trailing window of events on the racing object.
///
/// Everything is pre-rendered to strings by the reporting detector, so the
/// model layer needs no dependency on clock or access-point types and
/// reports stay cheap to clone. Detectors only build provenance when it is
/// enabled on their constructor *and* the report will retain the sample
/// (see [`RaceReport::wants_detail`]); hot paths are untouched otherwise.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Provenance {
    /// The reporting event, e.g. `τ1: o1.put("a.com", 2)/1`.
    pub current: String,
    /// The most recent earlier event that touched the conflicting access
    /// point, when the detector tracks it.
    pub prior: Option<String>,
    /// The access point the current action touched, e.g. `w:"a.com"`.
    pub touched: String,
    /// The active access point it collided with.
    pub conflicting: String,
    /// The reporting thread's vector clock at detection time.
    pub thread_clock: String,
    /// The conflicting point's clock at detection time (an epoch `c@t` or
    /// a full vector, whichever representation the detector held).
    pub point_clock: String,
    /// The last events observed on the racing object before detection,
    /// oldest first (bounded by the detector's configured window).
    pub recent: Vec<String>,
}

impl Provenance {
    fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"current\": \"{}\", ", escape(&self.current));
        match &self.prior {
            Some(p) => {
                let _ = write!(out, "\"prior\": \"{}\", ", escape(p));
            }
            None => out.push_str("\"prior\": null, "),
        }
        let _ = write!(out, "\"touched\": \"{}\", ", escape(&self.touched));
        let _ = write!(out, "\"conflicting\": \"{}\", ", escape(&self.conflicting));
        let _ = write!(
            out,
            "\"thread_clock\": \"{}\", ",
            escape(&self.thread_clock)
        );
        let _ = write!(out, "\"point_clock\": \"{}\", ", escape(&self.point_clock));
        out.push_str("\"recent\": [");
        for (i, e) in self.recent.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", escape(e));
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for Provenance {
    /// The multi-line rendering `crace replay --explain` prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "    current:     {}", self.current)?;
        if let Some(prior) = &self.prior {
            writeln!(f, "    prior:       {prior}")?;
        }
        writeln!(
            f,
            "    collision:   {} vs active {}",
            self.touched, self.conflicting
        )?;
        writeln!(f, "    clocks:      thread {}", self.thread_clock)?;
        writeln!(f, "                 point  {}", self.point_clock)?;
        if !self.recent.is_empty() {
            writeln!(f, "    last {} event(s) on the object:", self.recent.len())?;
            for e in &self.recent {
                writeln!(f, "      {e}")?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaceKind::Commutativity { obj } => write!(f, "commutativity race on {obj}"),
            RaceKind::ReadWrite { loc } => write!(f, "read-write race on {loc}"),
        }
    }
}

/// One detected race.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceRecord {
    /// What kind of race, and on what site.
    pub kind: RaceKind,
    /// The thread executing the second (reporting) event.
    pub tid: ThreadId,
    /// The reporting action, for commutativity races.
    pub action: Option<Action>,
    /// Human-readable detail (e.g. the conflicting access points).
    pub detail: String,
    /// Full provenance, when the detector was configured to collect it.
    pub provenance: Option<Box<Provenance>>,
}

impl fmt::Display for RaceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in {}", self.kind, self.tid)?;
        if let Some(a) = &self.action {
            write!(f, " at {a}")?;
        }
        if !self.detail.is_empty() {
            write!(f, " ({})", self.detail)?;
        }
        Ok(())
    }
}

/// Aggregated race statistics for one run, in the shape Table 2 reports:
/// a total count and the number of distinct sites (variables for FastTrack,
/// objects for RD2), plus a bounded sample of concrete records.
///
/// # Examples
///
/// ```
/// use crace_model::{RaceKind, RaceRecord, RaceReport, ObjId, ThreadId};
///
/// let mut report = RaceReport::new();
/// for _ in 0..3 {
///     report.record(RaceRecord {
///         kind: RaceKind::Commutativity { obj: ObjId(1) },
///         tid: ThreadId(2),
///         action: None,
///         detail: String::new(),
///         provenance: None,
///     });
/// }
/// assert_eq!(report.total(), 3);
/// assert_eq!(report.distinct(), 1);
/// assert_eq!(report.to_string(), "3 (1)");
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RaceReport {
    total: u64,
    /// Races per site — the keys give `distinct()`, the values the
    /// per-object / per-location breakdown the metrics snapshots expose.
    sites: BTreeMap<(u8, u64), u64>,
    samples: Vec<RaceRecord>,
    max_samples: usize,
}

/// Default cap on retained concrete race records.
const DEFAULT_MAX_SAMPLES: usize = 64;

impl RaceReport {
    /// Creates an empty report retaining up to a default number of samples.
    pub fn new() -> RaceReport {
        RaceReport {
            max_samples: DEFAULT_MAX_SAMPLES,
            ..RaceReport::default()
        }
    }

    /// Creates an empty report retaining up to `max_samples` concrete
    /// records (counts are always exact regardless of the cap).
    pub fn with_sample_capacity(max_samples: usize) -> RaceReport {
        RaceReport {
            max_samples,
            ..RaceReport::default()
        }
    }

    /// Records one detected race.
    pub fn record(&mut self, record: RaceRecord) {
        self.total += 1;
        *self.sites.entry(record.kind.site()).or_insert(0) += 1;
        if self.samples.len() < self.max_samples {
            self.samples.push(record);
        }
    }

    /// Will the next [`RaceReport::record`] retain its record as a sample?
    ///
    /// Producers use this to skip building the (expensive) human-readable
    /// parts of a record that would only be counted: a workload can race
    /// hundreds of thousands of times, and reporting must not dominate the
    /// measured overhead.
    pub fn wants_detail(&self) -> bool {
        self.samples.len() < self.max_samples
    }

    /// Records a race cheaply: `make_record` is only invoked if the record
    /// will be retained as a sample; otherwise only the counters move.
    pub fn record_with(&mut self, kind: RaceKind, make_record: impl FnOnce() -> RaceRecord) {
        self.total += 1;
        *self.sites.entry(kind.site()).or_insert(0) += 1;
        if self.samples.len() < self.max_samples {
            self.samples.push(make_record());
        }
    }

    /// Total number of races reported (left column of each Table 2 pair).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct racy sites — variables for a read-write detector,
    /// objects for a commutativity detector (the parenthesised column).
    #[inline]
    pub fn distinct(&self) -> usize {
        self.sites.len()
    }

    /// Returns `true` iff no race was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The retained sample records (at most the configured capacity).
    pub fn samples(&self) -> &[RaceRecord] {
        &self.samples
    }

    /// Races per distinct site, as `(label, count)` pairs in label-sorted
    /// order — `o3` for objects, `@0x10` for memory locations. This is the
    /// races-per-object breakdown the observability layer exports.
    pub fn per_site(&self) -> Vec<(String, u64)> {
        self.sites
            .iter()
            .map(|(&site, &count)| (RaceKind::site_label(site), count))
            .collect()
    }

    /// Merges another report into this one (used when per-thread or
    /// per-shard reports are aggregated).
    pub fn merge(&mut self, other: &RaceReport) {
        self.total += other.total;
        for (&site, &count) in &other.sites {
            *self.sites.entry(site).or_insert(0) += count;
        }
        for s in &other.samples {
            if self.samples.len() >= self.max_samples {
                break;
            }
            self.samples.push(s.clone());
        }
    }

    /// The raw per-site counters keyed by the stable `(family, id)` site
    /// key, for checkpoint serialization. `family` is 0 for objects
    /// (commutativity races) and 1 for memory locations.
    pub fn site_counts(&self) -> impl Iterator<Item = ((u8, u64), u64)> + '_ {
        self.sites.iter().map(|(&site, &count)| (site, count))
    }

    /// The configured sample-retention cap.
    pub fn sample_capacity(&self) -> usize {
        self.max_samples
    }

    /// Rebuilds a report from its raw parts — the exact inverse of
    /// [`RaceReport::total`] / [`RaceReport::site_counts`] /
    /// [`RaceReport::samples`] / [`RaceReport::sample_capacity`], used by
    /// checkpoint restore. The caller is trusted to pass counters
    /// consistent with the samples (a checkpoint written by this build
    /// always is; the CRC framing rejects damaged ones).
    pub fn from_parts(
        total: u64,
        sites: impl IntoIterator<Item = ((u8, u64), u64)>,
        samples: Vec<RaceRecord>,
        max_samples: usize,
    ) -> RaceReport {
        RaceReport {
            total,
            sites: sites.into_iter().collect(),
            samples,
            max_samples,
        }
    }

    /// The report as a JSON document (hand-written; the workspace builds
    /// with no registry access, so no serde):
    ///
    /// ```json
    /// {
    ///   "total": 2, "distinct": 1,
    ///   "sites": {"o1": 2},
    ///   "samples": [{"kind": "commutativity", "site": "o1", "tid": 1,
    ///                "action": "…", "detail": "…", "provenance": null}]
    /// }
    /// ```
    ///
    /// The output is a single self-contained object, safe to pipe into any
    /// JSON consumer — `crace replay --json` prints exactly this.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 192 * self.samples.len());
        out.push_str("{\n");
        let _ = writeln!(out, "  \"total\": {},", self.total);
        let _ = writeln!(out, "  \"distinct\": {},", self.sites.len());
        out.push_str("  \"sites\": {");
        for (i, (&site, &count)) in self.sites.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            escape_into(&mut out, &RaceKind::site_label(site));
            let _ = write!(out, "\": {count}");
        }
        out.push_str("},\n  \"samples\": [");
        // One buffer for every sample's rendered action.
        let mut action = String::new();
        for (i, s) in self.samples.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            let _ = write!(out, "{{\"kind\": \"{}\", \"site\": \"", s.kind.word());
            escape_into(&mut out, &RaceKind::site_label(s.kind.site()));
            let _ = write!(out, "\", \"tid\": {}, ", s.tid.0);
            match &s.action {
                Some(a) => {
                    action.clear();
                    let _ = write!(action, "{a}");
                    out.push_str("\"action\": \"");
                    escape_into(&mut out, &action);
                    out.push_str("\", ");
                }
                None => out.push_str("\"action\": null, "),
            }
            out.push_str("\"detail\": \"");
            escape_into(&mut out, &s.detail);
            out.push_str("\", ");
            match &s.provenance {
                Some(p) => {
                    let _ = write!(out, "\"provenance\": {}", p.to_json());
                }
                None => out.push_str("\"provenance\": null"),
            }
            out.push('}');
        }
        if !self.samples.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

impl fmt::Display for RaceReport {
    /// Formats as `total (distinct)`, the notation of Table 2.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.total, self.sites.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commut(obj: u64) -> RaceRecord {
        RaceRecord {
            kind: RaceKind::Commutativity { obj: ObjId(obj) },
            tid: ThreadId(1),
            action: None,
            detail: String::new(),
            provenance: None,
        }
    }

    fn rw(loc: u64) -> RaceRecord {
        RaceRecord {
            kind: RaceKind::ReadWrite { loc: LocId(loc) },
            tid: ThreadId(1),
            action: None,
            detail: String::new(),
            provenance: None,
        }
    }

    #[test]
    fn empty_report() {
        let r = RaceReport::new();
        assert!(r.is_empty());
        assert_eq!(r.to_string(), "0 (0)");
    }

    #[test]
    fn distinct_counts_sites_not_records() {
        let mut r = RaceReport::new();
        r.record(commut(1));
        r.record(commut(1));
        r.record(commut(2));
        assert_eq!(r.total(), 3);
        assert_eq!(r.distinct(), 2);
    }

    #[test]
    fn object_and_location_sites_do_not_collide() {
        let mut r = RaceReport::new();
        r.record(commut(7));
        r.record(rw(7));
        assert_eq!(r.distinct(), 2);
    }

    #[test]
    fn sample_capacity_bounds_samples_not_counts() {
        let mut r = RaceReport::with_sample_capacity(2);
        for i in 0..10 {
            r.record(commut(i));
        }
        assert_eq!(r.total(), 10);
        assert_eq!(r.distinct(), 10);
        assert_eq!(r.samples().len(), 2);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = RaceReport::new();
        a.record(commut(1));
        let mut b = RaceReport::new();
        b.record(commut(1));
        b.record(commut(2));
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.distinct(), 2);
    }

    #[test]
    fn record_display_mentions_site() {
        let rec = commut(3);
        assert!(rec.to_string().contains("o3"));
    }

    #[test]
    fn per_site_breaks_down_counts() {
        let mut r = RaceReport::new();
        r.record(commut(1));
        r.record(commut(1));
        r.record(commut(2));
        assert_eq!(
            r.per_site(),
            vec![("o1".to_string(), 2), ("o2".to_string(), 1)]
        );
    }

    #[test]
    fn json_is_valid_and_carries_provenance() {
        let mut r = RaceReport::new();
        let mut rec = commut(1);
        rec.detail = "w:\"a\" vs r:\"a\"".to_string();
        rec.provenance = Some(Box::new(Provenance {
            current: "τ1: o1.put(\"a\", 2)/1".into(),
            prior: Some("τ2: o1.get(\"a\")/0".into()),
            touched: "w:\"a\"".into(),
            conflicting: "r:\"a\"".into(),
            thread_clock: "[3, 1]".into(),
            point_clock: "2@τ2".into(),
            recent: vec!["τ2: o1.get(\"a\")/0".into()],
        }));
        r.record(rec);
        r.record(rw(16));
        let json = r.to_json();
        crace_obs::json::validate(&json).expect("valid json");
        assert!(json.contains("\"total\": 2"));
        assert!(json.contains("\"o1\": 1"));
        assert!(json.contains("\"point_clock\": \"2@τ2\""));
        assert!(json.contains("\"provenance\": null"));
    }

    #[test]
    fn empty_report_json_is_valid() {
        let json = RaceReport::new().to_json();
        crace_obs::json::validate(&json).expect("valid json");
        assert!(json.contains("\"samples\": []"));
    }

    #[test]
    fn provenance_display_lists_collision_and_window() {
        let p = Provenance {
            current: "cur".into(),
            prior: None,
            touched: "w:k".into(),
            conflicting: "r:k".into(),
            thread_clock: "[1]".into(),
            point_clock: "1@τ1".into(),
            recent: vec!["e1".into(), "e2".into()],
        };
        let text = p.to_string();
        assert!(text.contains("collision:   w:k vs active r:k"));
        assert!(text.contains("last 2 event(s)"));
    }
}
