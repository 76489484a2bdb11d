//! [`FrontEnd`]: the one interface of the two RD2 detectors.

use crate::points::CompiledSpec;
use crate::Checkpoint;
use crace_model::{Analysis, ObjId};
use crace_obs::Registry;
use crace_vclock::ClockStats;
use std::sync::Arc;

/// An RD2 front-end: the serial [`TraceDetector`](crate::TraceDetector)
/// or the [`ParallelRd2`](crate::ParallelRd2) pipeline. Both run
/// Algorithm 1 on the same shard, give
/// bit-for-bit equal reports and read and write the one `rd2` checkpoint
/// kind, so a caller that picks the worker count at run time builds one of
/// them and drives a `Box<dyn FrontEnd>` from then on.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use crace_core::{translate, FrontEnd, ParallelRd2, TraceDetector};
/// use crace_model::ObjId;
/// use crace_obs::Registry;
///
/// let workers = 2;
/// let detector: Box<dyn FrontEnd> = if workers > 0 {
///     Box::new(ParallelRd2::new(workers))
/// } else {
///     Box::new(TraceDetector::new())
/// };
/// let spec = Arc::new(translate(&crace_spec::builtin::dictionary())?);
/// detector.register(ObjId(1), spec);
/// let registry = Registry::new();
/// detector.feed(&registry, "rd2");
/// assert!(registry.snapshot().get("rd2.conflict_probes").is_some());
/// assert!(!detector.degraded());
/// # Ok::<(), crace_core::TranslateError>(())
/// ```
pub trait FrontEnd: Analysis + Checkpoint {
    /// Monitors `obj` with `spec`. Re-registering an object replaces its
    /// specification and clears its shadow state.
    fn register(&self, obj: ObjId, spec: Arc<CompiledSpec>);

    /// Exports the detector's metrics into `registry`: the
    /// `<prefix>.conflict_probes` counter, the
    /// `<prefix>.clock.{epoch_updates,promotions,vector_updates}` counters
    /// and the `<prefix>.clock.epoch_hit_rate` gauge; the pipeline adds the
    /// unprefixed `parallel.*` and `supervisor.respawns` metrics of
    /// [`ParallelStats::feed`](crate::ParallelStats::feed). Counters advance
    /// by delta, so feeding again never double-counts.
    fn feed(&self, registry: &Registry, prefix: &str);

    /// True iff a pipeline worker degraded (caught a panic other than the
    /// chaos poison and sheds events until a checkpoint restore). The
    /// serial front-ends never degrade.
    fn degraded(&self) -> bool {
        false
    }
}

/// The metrics every front-end exports: the §5.4 work measure and the
/// clock-representation statistics.
pub(crate) fn feed_work(registry: &Registry, prefix: &str, probes: u64, clocks: &ClockStats) {
    registry
        .counter(&format!("{prefix}.conflict_probes"))
        .advance_to(probes);
    for (name, total) in [
        ("epoch_updates", clocks.epoch_updates),
        ("promotions", clocks.promotions),
        ("vector_updates", clocks.vector_updates),
    ] {
        registry
            .counter(&format!("{prefix}.clock.{name}"))
            .advance_to(total);
    }
    registry.set_gauge(
        &format!("{prefix}.clock.epoch_hit_rate"),
        clocks.epoch_hit_rate(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{translate, ParallelRd2, TraceDetector};
    use crace_model::{replay, Action, Event, MethodId, ThreadId, Trace, Value};
    use crace_obs::MetricValue;

    /// Two unordered `put`s on one key: one race.
    fn racy_trace() -> Trace {
        let put = |k, v| Action::new(ObjId(1), MethodId(0), vec![Value::Int(k), v], Value::Nil);
        let mut trace = Trace::new();
        trace.push(Event::Fork {
            parent: ThreadId(0),
            child: ThreadId(1),
        });
        trace.push(Event::Action {
            tid: ThreadId(0),
            action: put(1, Value::Int(1)),
        });
        trace.push(Event::Action {
            tid: ThreadId(1),
            action: put(1, Value::Int(2)),
        });
        trace
    }

    fn counters(registry: &Registry) -> Vec<(String, u64)> {
        registry
            .snapshot()
            .iter()
            .filter_map(|(name, value)| match value {
                MetricValue::Counter(n) => Some((name.to_string(), *n)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn feeding_twice_leaves_every_counter_unchanged() {
        let spec = Arc::new(translate(&crace_spec::builtin::dictionary()).unwrap());
        let front_ends: [(&str, Box<dyn FrontEnd>); 2] = [
            ("serial", Box::new(TraceDetector::new())),
            ("w2", Box::new(ParallelRd2::new(2))),
        ];
        for (name, detector) in front_ends {
            detector.register(ObjId(1), Arc::clone(&spec));
            assert_eq!(replay(&racy_trace(), &*detector).total(), 1, "{name}");
            let registry = Registry::new();
            detector.feed(&registry, "rd2");
            let once = counters(&registry);
            assert!(
                once.iter()
                    .any(|(n, v)| n == "rd2.conflict_probes" && *v > 0),
                "{name}: {once:?}"
            );
            detector.feed(&registry, "rd2");
            assert_eq!(
                counters(&registry),
                once,
                "{name}: a second feed moved a counter"
            );
        }
    }
}
