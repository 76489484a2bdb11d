//! The live Table 2 circuit: `ComplexConcurrency` on real threads through
//! `crace-runtime`, run uninstrumented, under FastTrack and under RD2 in
//! every rep, in an order rotated rep by rep.
//!
//! Both detectors sit behind [`Tee`], a benchmark-local
//! [`ObjectRegistry`] that counts delivered events per thread and kind,
//! renders an interim report every [`REPORT_EVERY`] actions of a thread (a
//! live detector polled for its report), and in a traced run times one
//! call of each kind in [`SAMPLE_EVERY`].

use crate::harness::{self, span, timed, Opts, Outcome, Spans};
use crate::replay;
use crate::stats::median;
use crace_core::Rd2;
use crace_fasttrack::FastTrack;
use crace_model::{Action, Analysis, LocId, LockId, NoopAnalysis, ObjId, RaceReport, ThreadId};
use crace_runtime::ObjectRegistry;
use crace_spec::Spec;
use crace_workloads::circuits::{run_circuit, Circuit, CircuitConfig};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// A thread renders an interim report after every this many of its actions.
pub const REPORT_EVERY: u64 = 1024;

/// A traced run times one call in this many.
pub const SAMPLE_EVERY: u64 = 16;

/// Per-thread counter slots (thread ids fold onto them).
const SLOTS: usize = 64;

/// Event kinds the tee tells apart.
const SYNC: usize = 0;
const ACTION: usize = 1;
const ACCESS: usize = 2;

/// One thread's counters, on its own cache lines so the client threads
/// never contend.
#[derive(Default)]
#[repr(align(128))]
struct Slot {
    count: [AtomicU64; 3],
    sampled: [AtomicU64; 3],
    sampled_ns: [AtomicU64; 3],
    report_ns: AtomicU64,
    /// Start of the thread's first sampled call and end of its last, in
    /// ns since the tee's epoch: the thread's lifetime to within
    /// [`SAMPLE_EVERY`] calls at either end.
    first_ns: AtomicU64,
    last_ns: AtomicU64,
}

/// Counting, reporting and sampling tee in front of a detector.
pub struct Tee<A> {
    inner: A,
    epoch: Instant,
    slots: Vec<Slot>,
    sampling: bool,
    renders: Mutex<Vec<f64>>,
}

impl<A: Analysis> Tee<A> {
    /// Wraps `inner`; `sampling` times one call in [`SAMPLE_EVERY`].
    pub fn new(inner: A, sampling: bool) -> Tee<A> {
        Tee {
            inner,
            epoch: Instant::now(),
            slots: (0..SLOTS).map(|_| Slot::default()).collect(),
            sampling,
            renders: Mutex::new(Vec::new()),
        }
    }

    /// The wrapped detector.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    fn call(&self, tid: ThreadId, kind: usize, deliver: impl FnOnce(&A)) {
        let slot = &self.slots[tid.0 as usize % SLOTS];
        let n = slot.count[kind].fetch_add(1, Relaxed) + 1;
        if self.sampling && n.is_multiple_of(SAMPLE_EVERY) {
            let start = self.epoch.elapsed().as_nanos() as u64;
            deliver(&self.inner);
            let end = self.epoch.elapsed().as_nanos() as u64;
            slot.sampled[kind].fetch_add(1, Relaxed);
            slot.sampled_ns[kind].fetch_add(end - start, Relaxed);
            if slot.first_ns.load(Relaxed) == 0 {
                slot.first_ns.store(start.max(1), Relaxed);
            }
            slot.last_ns.store(end, Relaxed);
        } else {
            deliver(&self.inner);
        }
        if kind == ACTION && n.is_multiple_of(REPORT_EVERY) {
            let (json, secs) = timed(|| self.inner.report().to_json());
            std::hint::black_box(json.len());
            slot.report_ns.fetch_add((secs * 1e9) as u64, Relaxed);
            self.renders
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(secs * 1e3);
        }
    }

    /// Interim report render times in ms.
    fn renders(&self) -> Vec<f64> {
        self.renders
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// A copy of one thread's tee counters.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    count: [u64; 3],
    sampled: [u64; 3],
    sampled_ns: [u64; 3],
    report_ns: u64,
    life_ns: u64,
}

impl Counters {
    fn of(slot: &Slot) -> Counters {
        let load = |a: &[AtomicU64; 3]| a.each_ref().map(|c| c.load(Relaxed));
        Counters {
            count: load(&slot.count),
            sampled: load(&slot.sampled),
            sampled_ns: load(&slot.sampled_ns),
            report_ns: slot.report_ns.load(Relaxed),
            life_ns: slot
                .last_ns
                .load(Relaxed)
                .saturating_sub(slot.first_ns.load(Relaxed)),
        }
    }

    fn add(&mut self, other: &Counters) {
        for k in 0..3 {
            self.count[k] += other.count[k];
            self.sampled[k] += other.sampled[k];
            self.sampled_ns[k] += other.sampled_ns[k];
        }
        self.report_ns += other.report_ns;
        self.life_ns += other.life_ns;
    }

    /// Synchronization events and actions: the events RD2 acts on.
    fn detector_events(&self) -> u64 {
        self.count[SYNC] + self.count[ACTION]
    }
}

impl<A: Analysis> Analysis for Tee<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_fork(&self, parent: ThreadId, child: ThreadId) {
        self.call(parent, SYNC, |a| a.on_fork(parent, child));
    }

    fn on_join(&self, parent: ThreadId, child: ThreadId) {
        self.call(parent, SYNC, |a| a.on_join(parent, child));
    }

    fn on_acquire(&self, tid: ThreadId, lock: LockId) {
        self.call(tid, SYNC, |a| a.on_acquire(tid, lock));
    }

    fn on_release(&self, tid: ThreadId, lock: LockId) {
        self.call(tid, SYNC, |a| a.on_release(tid, lock));
    }

    fn on_action(&self, tid: ThreadId, action: &Action) {
        self.call(tid, ACTION, |a| a.on_action(tid, action));
    }

    fn on_read(&self, tid: ThreadId, loc: LocId) {
        self.call(tid, ACCESS, |a| a.on_read(tid, loc));
    }

    fn on_write(&self, tid: ThreadId, loc: LocId) {
        self.call(tid, ACCESS, |a| a.on_write(tid, loc));
    }

    fn abandon_thread(&self, tid: ThreadId) {
        self.inner.abandon_thread(tid);
    }

    fn report(&self) -> RaceReport {
        self.inner.report()
    }
}

impl<A: ObjectRegistry> ObjectRegistry for Tee<A> {
    fn on_new_object(&self, obj: ObjId, spec: &Spec) {
        self.inner.on_new_object(obj, spec);
    }
}

fn config(opts: &Opts, ops_per_worker: usize) -> CircuitConfig {
    CircuitConfig {
        workers: 2,
        ops_per_worker,
        keys_per_worker: 2_048,
        busy_units: 40,
        seed: opts.seed,
        locked_maintenance: true,
    }
}

/// One rep: the three runs, in an order rotated by `r`, and what the
/// RD2 run's tee counted.
struct Rep {
    base: f64,
    fasttrack: f64,
    rd2: f64,
    ops: u64,
    /// Counters of the RD2 run's client threads (every thread but main).
    clients: Vec<Counters>,
    /// Counters of every thread of the RD2 run, summed.
    all: Counters,
    renders: Vec<f64>,
    /// The RD2 detector, kept until the next rep starts.
    rd2_detector: Option<Arc<Tee<Rd2>>>,
}

impl Rep {
    fn client_events(&self) -> u64 {
        self.clients.iter().map(Counters::detector_events).sum()
    }
}

fn rep(
    cfg: &CircuitConfig,
    r: usize,
    sampling: bool,
    spans: Option<&Spans>,
) -> Result<Rep, String> {
    let circuit = Circuit::ComplexConcurrency;
    let noop = Arc::new(NoopAnalysis::new());
    let ft = Arc::new(Tee::new(FastTrack::new(), false));
    let tee = Arc::new(Tee::new(Rd2::new(), sampling));
    let (mut base, mut fasttrack, mut rd2, mut ops) = (0.0, 0.0, 0.0, 0);
    for k in 0..3 {
        match (k + r) % 3 {
            0 => {
                let _s = span(spans, "table2.uninstrumented");
                let res = run_circuit(circuit, noop.clone(), cfg);
                base = res.elapsed.as_secs_f64();
                ops = res.total_ops;
            }
            1 => {
                let _s = span(spans, "table2.fasttrack");
                fasttrack = run_circuit(circuit, ft.clone(), cfg).elapsed.as_secs_f64();
            }
            _ => {
                let _s = span(spans, "table2.rd2");
                rd2 = run_circuit(circuit, tee.clone(), cfg).elapsed.as_secs_f64();
            }
        }
    }
    let (rd2_report, ft_report) = (tee.report(), ft.report());
    if !noop.report().is_empty() {
        return Err("the uninstrumented run reported races".to_string());
    }
    if !(1..=2).contains(&rd2_report.distinct()) {
        return Err(format!(
            "RD2 found {rd2_report} races; expected 1 or 2 distinct"
        ));
    }
    if ft_report.distinct() < rd2_report.distinct() {
        return Err(format!(
            "FastTrack found {ft_report} races, fewer distinct than RD2's {rd2_report}"
        ));
    }
    let clients: Vec<Counters> = tee.slots[1..]
        .iter()
        .map(Counters::of)
        .filter(|c| c.count.iter().any(|&n| n > 0))
        .collect();
    let mut all = Counters::default();
    for slot in &tee.slots {
        all.add(&Counters::of(slot));
    }
    Ok(Rep {
        base,
        fasttrack,
        rd2,
        ops,
        clients,
        all,
        renders: tee.renders(),
        rd2_detector: Some(tee),
    })
}

#[derive(Default)]
struct Phase {
    reps: Vec<Rep>,
}

impl Phase {
    fn col(&self, f: impl Fn(&Rep) -> f64) -> Vec<f64> {
        self.reps.iter().map(f).collect()
    }

    fn renders(&self) -> Vec<f64> {
        self.reps
            .iter()
            .flat_map(|r| r.renders.iter().copied())
            .collect()
    }
}

fn measure(
    cfg: &CircuitConfig,
    opts: &Opts,
    sampling: bool,
    spans: Option<&Spans>,
    out: &mut Outcome,
) -> Phase {
    let mut phase = Phase::default();
    harness::run_for(opts.phase_time(), 3, |r| {
        // One rep's detector alive at a time: peak memory must not
        // depend on how many reps fit in the run.
        if let Some(prev) = phase.reps.last_mut() {
            prev.rd2_detector = None;
        }
        match rep(cfg, r, sampling, spans) {
            Ok(rep) => {
                out.check(true, 1, String::new);
                phase.reps.push(rep);
            }
            Err(e) => out.check(false, 1, || e),
        }
    });
    phase
}

/// Per-layer metrics the live circuit does not cross.
const NOT_ON_LIVE_PATH: [&str; 12] = [
    "framed.bytes_per_event",
    "framed.crc_share",
    "parallel.speedup_w2",
    "parallel.worker_skew",
    "parallel.events_shed",
    "daemon.transport_share",
    "ring.shed",
    "ckpt.per_pass",
    "share.decode",
    "share.parallel",
    "share.wire",
    "share.resume",
];

/// Runs `table2-live`.
pub fn run(opts: &Opts, name: &str) -> Outcome {
    let mut out = Outcome::default();
    let ops = if opts.smoke { 20_000 } else { 100_000 };
    let cfg = config(opts, ops);
    // Set-up: one warm-up rep at a tenth of the size.
    let ((), setup_s) = harness::repeated_setup(|| {
        let warm = config(opts, (ops / 10).max(1_000));
        let _ = rep(&warm, 0, false, None);
    });

    let untraced = measure(&cfg, opts, false, None, &mut out);
    let slowdown_rd2 = median(&untraced.col(|r| r.rd2 / r.base));
    let slowdown_ft = median(&untraced.col(|r| r.fasttrack / r.base));
    let renders = untraced.renders();
    out.note(format!("reps: {}", untraced.reps.len()));
    out.note(harness::latency_note(&renders));
    out.note(format!(
        "rd2_slowdown {slowdown_rd2:.3}x, fasttrack_slowdown {slowdown_ft:.3}x (medians over reps)"
    ));
    if !opts.trace {
        out.set(
            "events_per_s",
            median(&untraced.col(|r| r.client_events() as f64 / r.rd2)),
        );
        out.set("report_ms_p50", median(&renders));
        out.set("peak_rss_mb", harness::peak_rss_mb());
        out.set("setup_s", setup_s);
        return out;
    }

    let spans = Spans::new();
    let traced = measure(&cfg, opts, true, Some(&spans), &mut out);
    let Some(rd2) = traced.reps.last().and_then(|r| r.rd2_detector.clone()) else {
        return out;
    };
    // Per-kind mean call time over every sampled call of the traced reps.
    let mut all = Counters::default();
    for r in &traced.reps {
        all.add(&r.all);
    }
    let mean_ns: Vec<f64> = (0..3)
        .map(|k| all.sampled_ns[k] as f64 / all.sampled[k].max(1) as f64)
        .collect();
    out.set("sync.ns_per_sync_event", mean_ns[SYNC]);
    out.set("detect.ns_per_action", mean_ns[ACTION]);
    out.set(
        "sync.event_share",
        all.count[SYNC] as f64 / all.count.iter().sum::<u64>().max(1) as f64,
    );
    // An average client thread's lifetime in the RD2 run, split into
    // detector calls (estimated from the sampled ones) and the program's
    // own work, which is the rest: the lifetime's self time.
    let (mut wall, mut life, mut sync, mut detect, mut report) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for r in &traced.reps {
        let per_client = |f: &dyn Fn(&Counters) -> f64| {
            r.clients.iter().map(f).sum::<f64>() / r.clients.len().max(1) as f64 / 1e9
        };
        wall += r.rd2;
        life += per_client(&|c| c.life_ns as f64);
        sync += per_client(&|c| c.count[SYNC] as f64 * mean_ns[SYNC]);
        detect += per_client(&|c| {
            c.count[ACTION] as f64 * mean_ns[ACTION] + c.count[ACCESS] as f64 * mean_ns[ACCESS]
        });
        report += per_client(&|c| c.report_ns as f64);
    }
    out.set("share.app", (life - sync - detect - report) / wall);
    out.set("share.sync", sync / wall);
    out.set("share.detect", detect / wall);
    out.set("share.report", report / wall);
    out.set("layers.sum_over_wall", life / wall);
    out.set(
        "trace.overhead",
        median(&traced.col(|r| r.rd2)) / median(&untraced.col(|r| r.rd2)),
    );
    out.set("runtime.rd2_slowdown", slowdown_rd2);
    out.set("runtime.fasttrack_slowdown", slowdown_ft);
    out.set(
        "runtime.events_per_op",
        median(&untraced.col(|r| r.client_events() as f64 / r.ops as f64)),
    );
    let detector = rd2.inner();
    let final_report = detector.report();
    let actions = traced.reps.last().map_or(0, |r| r.all.count[ACTION]);
    out.set(
        "detect.probes_per_action",
        detector.num_probes() as f64 / actions.max(1) as f64,
    );
    out.set(
        "detect.epoch_hit_rate",
        detector.clock_stats().epoch_hit_rate(),
    );
    out.set("detect.races_total", final_report.total() as f64);
    out.set("detect.races_distinct", final_report.distinct() as f64);
    out.set("report.render_ms", median(&traced.renders()));
    out.set("report.json_bytes", final_report.to_json().len() as f64);
    replay::checkpoint_probe(detector, &Rd2::new(), opts, &mut out, &spans);
    out.set_zero(&NOT_ON_LIVE_PATH);
    harness::finish_trace(opts, name, &spans, &mut out);
    out
}
