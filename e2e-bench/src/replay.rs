//! Offline replay: decode a framed trace, run the serial detector with an
//! interim report every [`REPORT_EVERY`] events, and (on `replay-dense`)
//! run the 2-worker pipeline over the same decoded trace.
//!
//! The generated inputs, reference reports and the checkpoint probe are
//! shared with the streaming workloads.

use crate::harness::{self, phase_count, phase_ns, span, timed, Opts, Outcome, Spans};
use crate::stats::median;
use crace_cli::{crc32, parse_trace, render_framed, FRAMED_HEADER};
use crace_core::{
    builtin_resolver, oracle, translate, Checkpoint, CompiledSpec, Direct, ParallelRd2,
    TraceDetector,
};
use crace_model::{replay, Analysis, Event, ObjId, RaceReport, Trace};
use crace_spec::{builtin, Spec};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Shape of a generated sharded-dictionary trace
/// ([`crace_bench::sharded_dict_trace`]).
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Events after the fork and warm-up lock prologue (`3 × threads`).
    pub body: usize,
    /// Threads.
    pub threads: u32,
    /// Dictionaries.
    pub objects: u64,
    /// Keys per dictionary.
    pub keys: i64,
}

/// 256 threads, 48 dictionaries × 16 keys.
pub const DENSE: Shape = Shape {
    body: 200_000,
    threads: 256,
    objects: 48,
    keys: 16,
};

/// 4 threads, 8 dictionaries × 64 keys.
pub const NARROW: Shape = Shape {
    body: 200_000,
    threads: 4,
    objects: 8,
    keys: 64,
};

/// Interim report cadence of replay and `stream-narrow` passes, in events.
pub const REPORT_EVERY: usize = 10_000;

/// Cadence used with `--smoke` inputs.
pub const SMOKE_REPORT_EVERY: usize = 1_000;

/// Events of the prefix checked against the quadratic oracle at set-up.
pub const ORACLE_PREFIX: usize = 3_000;

/// A generated trace, its framed rendering, and the serial detector's
/// reports over the generated events.
pub struct Input {
    /// The dictionary specification every object is checked against.
    pub spec: Spec,
    /// Its compiled form.
    pub compiled: Arc<CompiledSpec>,
    /// Objects `1..=objects` are registered.
    pub objects: u64,
    /// The generated events.
    pub trace: Trace,
    /// `render_framed(trace)`.
    pub framed: String,
    /// Reference reports.
    pub reference: Reference,
}

/// Reports of the serial detector over the generated events.
pub struct Reference {
    /// Interim cadence in events.
    pub every: usize,
    /// `to_json()` after every `every` events.
    pub interim: Vec<String>,
    /// `to_json()` after the last event.
    pub last: String,
}

impl Input {
    /// Generates the trace for `shape` and `seed` and computes the
    /// reference reports.
    pub fn generate(shape: Shape, seed: u64, every: usize) -> Input {
        let spec = builtin::dictionary();
        let compiled = Arc::new(translate(&spec).expect("the dictionary spec is ECL"));
        let trace = crace_bench::sharded_dict_trace(
            shape.body,
            shape.threads,
            shape.objects,
            shape.keys,
            seed,
        );
        let framed = render_framed(&trace, &spec);
        let det = fresh_detector(&compiled, shape.objects);
        let mut interim = Vec::new();
        for (i, event) in trace.iter().enumerate() {
            det.on_event(event);
            if (i + 1) % every == 0 {
                interim.push(det.report().to_json());
            }
        }
        let last = det.report().to_json();
        Input {
            spec,
            compiled,
            objects: shape.objects,
            trace,
            framed,
            reference: Reference {
                every,
                interim,
                last,
            },
        }
    }

    /// The framed records without the header line.
    pub fn records(&self) -> &str {
        &self.framed[FRAMED_HEADER.len() + 1..]
    }

    /// Events in the trace.
    pub fn events(&self) -> usize {
        self.trace.len()
    }

    /// Actions in the trace.
    pub fn actions(&self) -> usize {
        self.trace.iter().filter(|e| e.action().is_some()).count()
    }

    /// The reference report after the first `n` events (`n` a multiple
    /// of the cadence, or the whole trace).
    pub fn reference_at(&self, n: usize) -> &str {
        if n == self.events() {
            &self.reference.last
        } else {
            &self.reference.interim[n / self.reference.every - 1]
        }
    }
}

/// A serial detector with objects `1..=objects` registered.
pub fn fresh_detector(compiled: &Arc<CompiledSpec>, objects: u64) -> TraceDetector {
    let det = TraceDetector::new();
    for o in 1..=objects {
        det.register(ObjId(o), Arc::clone(compiled));
    }
    det
}

/// Theorem 5.1 on a prefix, compared the way `tests/theorem_5_1.rs` does:
/// RD2 reports a race on an object iff the quadratic oracle finds a
/// racing pair on it, and the direct detector finds exactly the oracle's
/// pairs.
pub fn oracle_check(input: &Input, prefix: usize) -> Result<(), String> {
    let prefix: Trace = input.trace.iter().take(prefix).cloned().collect();
    let registry: HashMap<ObjId, Spec> = (1..=input.objects)
        .map(|o| (ObjId(o), input.spec.clone()))
        .collect();
    let pairs = oracle::find_races(&prefix, &registry);
    let rd2 = replay(&prefix, &fresh_detector(&input.compiled, input.objects));
    let direct = Direct::new();
    let spec = Arc::new(input.spec.clone());
    for o in 1..=input.objects {
        direct.register(ObjId(o), Arc::clone(&spec));
    }
    let direct = replay(&prefix, &direct);
    let obj_of = |i: usize| prefix.events()[i].action().map(|a| a.obj().0);
    let oracle_objs: BTreeSet<u64> = pairs.iter().filter_map(|p| obj_of(p.first)).collect();
    let rd2_objs: BTreeSet<u64> = rd2.site_counts().map(|((_, o), _)| o).collect();
    if oracle_objs != rd2_objs {
        return Err(format!(
            "oracle prefix: RD2 races on objects {rd2_objs:?}, oracle on {oracle_objs:?}"
        ));
    }
    if direct.total() as usize != pairs.len() {
        return Err(format!(
            "oracle prefix: direct detector found {} races, oracle {} pairs",
            direct.total(),
            pairs.len()
        ));
    }
    Ok(())
}

/// Feeds `events` to `det`, rendering the report after every
/// `reference.every` events and at the end, and compares each rendering
/// with the reference. Render times (ms) go to `renders`. Returns the
/// first mismatch as an error.
///
/// When traced, each segment between reports is a `detect` span and each
/// synchronization event inside it a `sync` span, so per-call clock reads
/// stay off the action path.
pub fn detect_with_reports(
    det: &TraceDetector,
    events: &[Event],
    input: &Input,
    spans: Option<&Spans>,
    renders: &mut Vec<f64>,
) -> Result<String, String> {
    let every = input.reference.every;
    let mut first_error = None;
    for (seg, chunk) in events.chunks(every).enumerate() {
        {
            let _detect = span(spans, "detect");
            match spans {
                None => chunk.iter().for_each(|e| det.on_event(e)),
                Some(s) => {
                    for e in chunk {
                        if e.is_sync() {
                            let _sync = s.span("sync");
                            det.on_event(e);
                        } else {
                            det.on_event(e);
                        }
                    }
                }
            }
        }
        if chunk.len() == every {
            let _report = span(spans, "report");
            let (json, secs) = timed(|| det.report().to_json());
            renders.push(secs * 1e3);
            if json != input.reference.interim[seg] && first_error.is_none() {
                first_error = Some(format!("interim report {seg} differs from the reference"));
            }
        }
    }
    let _report = span(spans, "report");
    let (json, secs) = timed(|| det.report().to_json());
    renders.push(secs * 1e3);
    if json != input.reference.last && first_error.is_none() {
        first_error = Some("final report differs from the reference".to_string());
    }
    first_error.map_or(Ok(json), Err)
}

/// Checkpoints `det`, writes the blob the way the daemon does, restores
/// it into `fresh`, and checks the restored report. Sets the `ckpt.*`
/// layer metrics.
pub fn checkpoint_probe<D: Checkpoint + Analysis>(
    det: &D,
    fresh: &D,
    opts: &Opts,
    out: &mut Outcome,
    spans: &Spans,
) {
    let (blob, ser) = {
        let _s = spans.span("ckpt.serialize");
        timed(|| det.checkpoint())
    };
    let write = {
        let _s = spans.span("ckpt.write");
        harness::write_checkpoint_file(&opts.run_dir, "probe", &blob)
    };
    let (restored, res) = {
        let _s = spans.span("ckpt.restore");
        timed(|| fresh.restore(&blob, &builtin_resolver()))
    };
    let same = restored.is_ok() && fresh.report() == det.report();
    out.check(same, 1, || {
        format!(
            "checkpoint probe: restored report differs ({:?})",
            restored.err()
        )
    });
    out.check(write.is_ok(), 0, || format!("checkpoint write: {write:?}"));
    out.set("ckpt.serialize_ms", ser * 1e3);
    out.set("ckpt.disk_write_ms", write.unwrap_or(0.0));
    out.set("ckpt.restore_ms", res * 1e3);
    out.set("ckpt.bytes", blob.len() as f64);
}

/// Framing costs measured on `input`: bytes per event, and the share of a
/// full decode (`parse_trace`) spent computing record checksums.
pub fn framing_probe(input: &Input, out: &mut Outcome) {
    let records = input.records();
    let payloads: Vec<&[u8]> = records
        .lines()
        .filter_map(|l| l.split_once(' ').map(|(_, p)| p.as_bytes()))
        .collect();
    let mut crc = Vec::new();
    let mut decode = Vec::new();
    for _ in 0..3 {
        let (sum, s) = timed(|| payloads.iter().fold(0u32, |a, p| a ^ crc32(p)));
        std::hint::black_box(sum);
        crc.push(s);
        let (t, s) = timed(|| parse_trace(&input.framed, &input.spec));
        std::hint::black_box(t.map(|t| t.len()).unwrap_or(0));
        decode.push(s);
    }
    out.set(
        "framed.bytes_per_event",
        records.len() as f64 / input.events() as f64,
    );
    out.set("framed.crc_share", median(&crc) / median(&decode));
}

/// Detector-level layer metrics over a finished serial detection.
pub fn detector_metrics(det: &TraceDetector, input: &Input, final_json: &str, out: &mut Outcome) {
    let report: RaceReport = det.report();
    let syncs = input.trace.iter().filter(|e| e.is_sync()).count();
    out.set("sync.event_share", syncs as f64 / input.events() as f64);
    out.set(
        "detect.probes_per_action",
        det.num_probes() as f64 / input.actions() as f64,
    );
    out.set("detect.epoch_hit_rate", det.clock_stats().epoch_hit_rate());
    out.set("detect.races_total", report.total() as f64);
    out.set("detect.races_distinct", report.distinct() as f64);
    out.set("report.json_bytes", final_json.len() as f64);
}

/// One measured pass.
pub struct Pass {
    /// Wall time in seconds.
    pub wall: f64,
    /// Events detected (twice the trace with the pipeline).
    pub events: usize,
    /// Seconds spent in the 2-worker pipeline.
    pub w2_wall: f64,
    /// Report render times in ms.
    pub renders: Vec<f64>,
    /// The serial detector, for the layer metrics and checkpoint probe.
    pub detector: TraceDetector,
    /// The 2-worker pipeline, when run.
    pub w2: Option<ParallelRd2>,
    /// The final serial report.
    pub final_json: String,
}

/// One pass: decode, serial detection with interim reports, and with
/// `pipeline` the 2-worker pipeline over the decoded trace, whose report
/// must equal the serial one.
pub fn pass(input: &Input, pipeline: bool, spans: Option<&Spans>) -> Result<Pass, String> {
    let t0 = Instant::now();
    let trace = {
        let _s = span(spans, "decode");
        parse_trace(&input.framed, &input.spec).map_err(|e| format!("decode: {e}"))?
    };
    let det = fresh_detector(&input.compiled, input.objects);
    let mut renders = Vec::new();
    let final_json = detect_with_reports(&det, trace.events(), input, spans, &mut renders)?;
    let mut events = trace.len();
    let mut w2_wall = 0.0;
    let w2 = if pipeline {
        let t1 = Instant::now();
        let shared = Arc::new(trace);
        let p = {
            let _s = span(spans, "parallel.ingest");
            let p = ParallelRd2::new(2);
            for o in 1..=input.objects {
                p.register(ObjId(o), Arc::clone(&input.compiled));
            }
            p.ingest_shared(&shared);
            p
        };
        let json = {
            let _s = span(spans, "parallel.report");
            p.report().to_json()
        };
        if json != final_json {
            return Err("2-worker report differs from the serial report".to_string());
        }
        events += shared.len();
        w2_wall = t1.elapsed().as_secs_f64();
        Some(p)
    } else {
        None
    };
    Ok(Pass {
        wall: t0.elapsed().as_secs_f64(),
        events,
        w2_wall,
        renders,
        detector: det,
        w2,
        final_json,
    })
}

/// Passes of one measurement phase.
#[derive(Default)]
struct Phase {
    walls: Vec<f64>,
    rates: Vec<f64>,
    w2_rates: Vec<f64>,
    renders: Vec<f64>,
    last: Option<Pass>,
}

fn measure(
    input: &Input,
    pipeline: bool,
    opts: &Opts,
    spans: Option<&Spans>,
    out: &mut Outcome,
) -> Phase {
    let mut phase = Phase::default();
    harness::run_for(opts.phase_time(), 3, |_| {
        // One pass's state alive at a time: peak memory must not depend
        // on how many passes fit in the run.
        phase.last = None;
        match pass(input, pipeline, spans) {
            Ok(p) => {
                out.check(true, 1, String::new);
                phase.walls.push(p.wall);
                phase.rates.push(p.events as f64 / p.wall);
                if p.w2_wall > 0.0 {
                    phase.w2_rates.push(input.events() as f64 / p.w2_wall);
                }
                phase.renders.extend_from_slice(&p.renders);
                phase.last = Some(p);
            }
            Err(e) => out.check(false, 1, || e),
        }
    });
    phase
}

/// Per-layer metrics no replay pass crosses.
const NOT_ON_REPLAY_PATH: [&str; 9] = [
    "ckpt.per_pass",
    "daemon.transport_share",
    "ring.shed",
    "runtime.rd2_slowdown",
    "runtime.fasttrack_slowdown",
    "runtime.events_per_op",
    "share.wire",
    "share.resume",
    "share.app",
];

/// Runs `replay-dense` (`pipeline`) or `replay-narrow`.
pub fn run(opts: &Opts, name: &str, shape: Shape, pipeline: bool) -> Outcome {
    let mut out = Outcome::default();
    let (shape, every) = if opts.smoke {
        (
            Shape {
                body: 4_000,
                ..shape
            },
            SMOKE_REPORT_EVERY,
        )
    } else {
        (shape, REPORT_EVERY)
    };
    // Set-up: generation, framing, the reference reports, and one
    // warm-up pass.
    let (input, setup_s) = harness::repeated_setup(|| {
        let input = Input::generate(shape, opts.seed, every);
        let _ = pass(&input, pipeline, None);
        input
    });
    let oracle = oracle_check(&input, ORACLE_PREFIX);
    out.check(oracle.is_ok(), 1, || format!("{oracle:?}"));

    let untraced = measure(&input, pipeline, opts, None, &mut out);
    out.note(format!("passes: {}", untraced.walls.len()));
    out.note(harness::latency_note(&untraced.renders));
    if pipeline {
        out.note(format!(
            "events_per_s serial+w2 pass: {:.0}; 2-worker pipeline alone: {:.0} ev/s",
            median(&untraced.rates),
            median(&untraced.w2_rates)
        ));
    }
    if !opts.trace {
        out.set("events_per_s", median(&untraced.rates));
        out.set("report_ms_p50", median(&untraced.renders));
        out.set("peak_rss_mb", harness::peak_rss_mb());
        out.set("setup_s", setup_s);
        return out;
    }

    let spans = Spans::new();
    let traced = measure(&input, pipeline, opts, Some(&spans), &mut out);
    let Some(last) = traced.last.as_ref() else {
        return out;
    };
    let totals = match spans.totals() {
        Ok(t) => t,
        Err(e) => {
            out.check(false, 1, || e);
            return out;
        }
    };
    let wall: f64 = traced.walls.iter().sum::<f64>() * 1e9;
    let decode = phase_ns(&totals, "decode");
    let sync = phase_ns(&totals, "sync");
    let detect = phase_ns(&totals, "detect");
    let report = phase_ns(&totals, "report");
    let parallel = phase_ns(&totals, "parallel.ingest") + phase_ns(&totals, "parallel.report");
    let actions = (input.actions() * traced.walls.len()) as f64;
    out.set(
        "sync.ns_per_sync_event",
        sync / phase_count(&totals, "sync").max(1) as f64,
    );
    out.set("detect.ns_per_action", (detect - sync) / actions);
    out.set("report.render_ms", median(&traced.renders));
    out.set("share.decode", decode / wall);
    out.set("share.sync", sync / wall);
    out.set("share.detect", (detect - sync) / wall);
    out.set("share.report", report / wall);
    out.set("share.parallel", parallel / wall);
    out.set(
        "layers.sum_over_wall",
        (decode + detect + report + parallel) / wall,
    );
    out.set(
        "trace.overhead",
        median(&traced.walls) / median(&untraced.walls),
    );
    match &last.w2 {
        Some(p) => {
            let stats = p.stats();
            let counts: Vec<f64> = stats.workers.iter().map(|w| w.events as f64).collect();
            let mean = counts.iter().sum::<f64>() / counts.len().max(1) as f64;
            let max = counts.iter().copied().fold(0.0, f64::max);
            out.set("parallel.speedup_w2", (detect + report) / parallel);
            out.set(
                "parallel.worker_skew",
                if mean > 0.0 { max / mean } else { 0.0 },
            );
            out.set(
                "parallel.events_shed",
                (stats.events_shed + stats.workers.iter().map(|w| w.events_shed).sum::<u64>())
                    as f64,
            );
        }
        None => out.set_zero(&[
            "parallel.speedup_w2",
            "parallel.worker_skew",
            "parallel.events_shed",
        ]),
    }
    detector_metrics(&last.detector, &input, &last.final_json, &mut out);
    checkpoint_probe(
        &last.detector,
        &TraceDetector::new(),
        opts,
        &mut out,
        &spans,
    );
    framing_probe(&input, &mut out);
    out.set_zero(&NOT_ON_REPLAY_PATH);
    harness::finish_trace(opts, name, &spans, &mut out);
    out
}
