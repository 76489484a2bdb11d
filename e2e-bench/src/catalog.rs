//! The benchmark's workloads and metric catalog.
//!
//! `BENCHMARK.json` at the repository root declares the same names, units,
//! directions and bounds; `tests/e2e_smoke.rs` fails when the two drift.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput, hit rates).
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its name, unit, direction and — for end-to-end metrics —
/// the share of the baseline median by which it may worsen.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The workloads, with the reason each is in the set.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "replay-dense",
        "256 threads: O(threads) clock work per action dominates; the only workload \
         that also runs the 2-worker parallel pipeline",
    ),
    (
        "replay-narrow",
        "4 threads: cheap clocks, so Algorithm 1 bookkeeping and framed decode dominate",
    ),
    (
        "stream-narrow",
        "replay-narrow's events and detector over the daemon socket: the difference is \
         the wire plane",
    ),
    (
        "stream-durable",
        "daemon with capture and checkpoints every 256 records, a dropped connection \
         and a RESUME: the only checkpointing workload",
    ),
    (
        "table2-live",
        "the paper's Table 2 circuit on real threads: uninstrumented, FastTrack and RD2 \
         through the runtime's dispatch",
    ),
];

/// Metrics every untraced run prints. The bounds are wide because the
/// run-to-run spread on a shared 2-CPU host reaches 10–20 % on every
/// timing (see `README.md`).
pub const END_TO_END: [Metric; 4] = [
    e2e("events_per_s", "ev/s", Better::Higher, 0.25),
    e2e("report_ms_p50", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Metrics every traced run prints. Layer times are measured on every
/// workload; a `share.*` metric is the fraction of the traced wall time
/// spent in one layer on the blocking path, 0 where the workload's path
/// does not cross that layer.
pub const PER_LAYER: [Metric; 34] = [
    layer("sync.ns_per_sync_event", "ns", Better::Lower),
    layer("sync.event_share", "ratio", Better::Lower),
    layer("detect.ns_per_action", "ns", Better::Lower),
    layer("detect.probes_per_action", "count", Better::Lower),
    layer("detect.epoch_hit_rate", "ratio", Better::Higher),
    layer("detect.races_total", "count", Better::Lower),
    layer("detect.races_distinct", "count", Better::Lower),
    layer("report.render_ms", "ms", Better::Lower),
    layer("report.json_bytes", "bytes", Better::Lower),
    layer("ckpt.serialize_ms", "ms", Better::Lower),
    layer("ckpt.disk_write_ms", "ms", Better::Lower),
    layer("ckpt.restore_ms", "ms", Better::Lower),
    layer("ckpt.bytes", "bytes", Better::Lower),
    layer("ckpt.per_pass", "count", Better::Lower),
    layer("framed.bytes_per_event", "bytes", Better::Lower),
    layer("framed.crc_share", "ratio", Better::Lower),
    layer("parallel.speedup_w2", "ratio", Better::Higher),
    layer("parallel.worker_skew", "ratio", Better::Lower),
    layer("parallel.events_shed", "count", Better::Lower),
    layer("daemon.transport_share", "ratio", Better::Lower),
    layer("ring.shed", "count", Better::Lower),
    layer("runtime.rd2_slowdown", "ratio", Better::Lower),
    layer("runtime.fasttrack_slowdown", "ratio", Better::Lower),
    layer("runtime.events_per_op", "count", Better::Lower),
    layer("share.decode", "ratio", Better::Lower),
    layer("share.sync", "ratio", Better::Lower),
    layer("share.detect", "ratio", Better::Lower),
    layer("share.report", "ratio", Better::Lower),
    layer("share.parallel", "ratio", Better::Lower),
    layer("share.wire", "ratio", Better::Lower),
    layer("share.resume", "ratio", Better::Lower),
    layer("share.app", "ratio", Better::Lower),
    layer("layers.sum_over_wall", "ratio", Better::Higher),
    layer("trace.overhead", "ratio", Better::Lower),
];

/// The metrics a run prints: the per-layer set when traced, the
/// end-to-end set otherwise.
pub fn metrics_for(traced: bool) -> &'static [Metric] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Looks a metric up in either set.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}
