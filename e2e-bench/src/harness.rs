//! Shared run machinery: options, the outcome a workload reports, the
//! timed set-up and measurement loops, span bookkeeping, and the result
//! line.

use crate::catalog;
use crace_obs::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many times set-up runs; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20140609;

/// Options of one workload run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Input seed: the same seed generates the same inputs.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Traced run: print the per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where a traced run writes `<workload>.spans.json`.
    pub trace_dir: PathBuf,
    /// Tiny inputs, for the smoke test.
    pub smoke: bool,
    /// Scratch directory for sockets, captures and checkpoints; removed
    /// when the run ends.
    pub run_dir: PathBuf,
}

impl Opts {
    /// Measurement deadline for one phase: the whole run untraced, half
    /// of it for each phase of a traced run.
    pub fn phase_time(&self) -> Duration {
        let s = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(s.max(0.0))
    }
}

/// What a workload run reports: operation counts, correctness failures,
/// and metric values by catalog name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (passes, reps or records).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Checks that failed, described (capped).
    pub errors: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra numbers printed for people, not part of the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts `weight` operations, failing them all when `ok` is false.
    /// A check that is not an operation of its own passes `weight` 0: it
    /// fails the run without counting toward `failed`.
    pub fn check(&mut self, ok: bool, weight: u64, what: impl FnOnce() -> String) {
        self.attempted += weight;
        if !ok {
            self.failed += weight;
            if self.errors.len() < 10 {
                self.errors.push(what());
            }
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            catalog::find(name).is_some(),
            "{name} is not in the catalog"
        );
        self.metrics.insert(name, value);
    }

    /// Sets each named per-layer metric to 0: the workload's path does
    /// not cross that layer.
    pub fn set_zero(&mut self, names: &[&'static str]) {
        for &name in names {
            self.set(name, 0.0);
        }
    }

    /// Records a human-readable extra line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// True iff every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the run's metrics (the catalog's per-layer set when
    /// traced, end-to-end otherwise). A metric the workload did not
    /// produce, or a non-finite value, is a harness bug and is reported
    /// as an error instead.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let mut metrics = Vec::new();
        for m in catalog::metrics_for(traced) {
            let v = *self
                .metrics
                .get(m.name)
                .ok_or_else(|| format!("metric {} was not measured", m.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite: {v}", m.name));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// The report-latency line printed with every run: median and p95 with
/// the sample count (p95 is printed, not gated: its run-to-run spread is
/// too wide for a regression bound).
pub fn latency_note(samples: &[f64]) -> String {
    format!(
        "report_ms p50 {:.4}, p95 {:.4} over {} samples",
        crate::stats::median(samples),
        crate::stats::percentile(samples, 95.0),
        samples.len()
    )
}

/// Runs `setup` [`SETUP_REPEATS`] times, keeping the last result, and
/// returns it with the median set-up time in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("SETUP_REPEATS > 0"),
        crate::stats::median(&times),
    )
}

/// Calls `pass(i)` for i = 0, 1, … until `budget` has elapsed and at
/// least `min_passes` ran. Returns the number of passes.
pub fn run_for(budget: Duration, min_passes: usize, mut pass: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut i = 0;
    while i < min_passes || start.elapsed() < budget {
        pass(i);
        i += 1;
    }
    i
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Spans recorded by the benchmark around its calls into each layer,
/// kept in one in-memory [`Tracer`] lane and summed by phase afterwards.
pub struct Spans {
    tracer: Tracer,
    lane: Arc<crace_obs::Lane>,
}

/// Lane capacity: large enough that a traced run never overwrites a span
/// (checked by [`Spans::totals`]).
const LANE_CAPACITY: usize = 1 << 18;

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

impl Spans {
    /// An empty span recorder.
    pub fn new() -> Spans {
        let tracer = Tracer::new();
        let lane = tracer.lane_with_capacity("bench", LANE_CAPACITY);
        Spans { tracer, lane }
    }

    /// Opens a span of `phase`, closed when the guard drops.
    pub fn span(&self, phase: &str) -> crace_obs::SpanGuard {
        self.lane.span(self.tracer.phase(phase))
    }

    /// Total nanoseconds and span count per phase.
    ///
    /// # Errors
    ///
    /// When the lane overwrote spans, the totals would be short.
    pub fn totals(&self) -> Result<BTreeMap<String, (u64, f64)>, String> {
        if self.lane.dropped() > 0 {
            return Err(format!(
                "span lane overflowed: {} spans lost",
                self.lane.dropped()
            ));
        }
        let mut out: BTreeMap<String, (u64, f64)> = BTreeMap::new();
        for ev in self.lane.events() {
            let name = self.tracer.phase_name(ev.phase).unwrap_or_default();
            let e = out.entry(name).or_default();
            e.0 += 1;
            e.1 += ev.dur_ns as f64;
        }
        Ok(out)
    }

    /// Writes the spans as Chrome trace-event JSON to `path`, after
    /// checking the document with the repository's RFC 8259 validator.
    ///
    /// # Errors
    ///
    /// Invalid JSON or an I/O failure.
    pub fn export(&self, path: &Path) -> Result<(), String> {
        let chrome = self.tracer.to_chrome_json();
        crace_obs::json::validate(&chrome).map_err(|e| format!("span JSON invalid: {e}"))?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, chrome).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Ends a traced run: writes the spans to
/// `<trace_dir>/<workload>.spans.json` and checks that the layer times
/// account for the traced wall time (`layers.sum_over_wall` within
/// [0.9, 1.1]).
pub fn finish_trace(opts: &Opts, workload: &str, spans: &Spans, out: &mut Outcome) {
    let path = opts.trace_dir.join(format!("{workload}.spans.json"));
    let exported = spans.export(&path);
    out.check(exported.is_ok(), 0, || format!("span export: {exported:?}"));
    let sum = out
        .metrics
        .get("layers.sum_over_wall")
        .copied()
        .unwrap_or(0.0);
    out.check((0.9..=1.1).contains(&sum), 0, || {
        format!("layers.sum_over_wall = {sum:.3}, outside [0.9, 1.1]")
    });
    out.note(format!("spans written to {}", path.display()));
}

/// Opens a span when tracing, nothing otherwise.
pub fn span(spans: Option<&Spans>, phase: &str) -> Option<crace_obs::SpanGuard> {
    spans.map(|s| s.span(phase))
}

/// Sum of the named phases in nanoseconds.
pub fn phase_ns(totals: &BTreeMap<String, (u64, f64)>, phase: &str) -> f64 {
    totals.get(phase).map_or(0.0, |t| t.1)
}

/// Span count of a phase.
pub fn phase_count(totals: &BTreeMap<String, (u64, f64)>, phase: &str) -> u64 {
    totals.get(phase).map_or(0, |t| t.0)
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Checkpoint file write the way the daemon does it: a temporary file,
/// then an atomic rename. Returns the elapsed milliseconds; the file is
/// removed afterwards so that repeated probes leave nothing behind.
pub fn write_checkpoint_file(dir: &Path, name: &str, blob: &str) -> Result<f64, String> {
    let tmp = dir.join(format!("{name}.ckpt.tmp"));
    let fin = dir.join(format!("{name}.ckpt"));
    let (written, secs) =
        timed(|| std::fs::write(&tmp, blob).and_then(|()| std::fs::rename(&tmp, &fin)));
    written.map_err(|e| format!("{}: {e}", fin.display()))?;
    let _ = std::fs::remove_file(&fin);
    Ok(secs * 1e3)
}
