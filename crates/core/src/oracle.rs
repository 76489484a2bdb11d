//! A quadratic reference oracle for commutativity races.
//!
//! [`find_races`] enumerates *every* racing event pair of a trace by
//! definition — computing the happens-before relation with per-event vector
//! clocks and evaluating the logical specification on each unordered pair
//! (Definition 4.3). It makes no use of access points and is deliberately
//! naive; its only purpose is to validate the online detectors:
//!
//! * Theorem 5.1 says Algorithm 1 reports a race **iff** the trace contains
//!   one — so `TraceDetector` reports ≥ 1 race exactly when the oracle's
//!   pair list is nonempty;
//! * the direct detector's total count must equal the oracle's pair count
//!   (it enumerates the same pairs incrementally).

use crace_model::ObjId;
use crace_model::{Event, Trace};
use crace_spec::Spec;
use crace_vclock::{SyncClocks, VectorClock};
use std::collections::HashMap;

/// A racing pair of events, by trace position.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RacePair {
    /// Index of the earlier event in the trace.
    pub first: usize,
    /// Index of the later event.
    pub second: usize,
}

/// Enumerates all commutativity races of `trace` with respect to the
/// specifications in `registry` (one [`Spec`] per object; actions of
/// unregistered objects are ignored).
///
/// Runs in `Θ(n²)` formula evaluations over the trace's actions — use only
/// on test-sized traces.
///
/// # Examples
///
/// ```
/// use crace_core::oracle::find_races;
/// use crace_model::{Action, Event, ObjId, ThreadId, Trace, Value};
/// use crace_spec::builtin;
/// use std::collections::HashMap;
///
/// let spec = builtin::dictionary();
/// let put = spec.method_id("put").unwrap();
/// let mut trace = Trace::new();
/// trace.push(Event::Fork { parent: ThreadId(0), child: ThreadId(1) });
/// trace.push(Event::Action {
///     tid: ThreadId(0),
///     action: Action::new(ObjId(1), put, vec![Value::Int(1), Value::Int(1)], Value::Nil),
/// });
/// trace.push(Event::Action {
///     tid: ThreadId(1),
///     action: Action::new(ObjId(1), put, vec![Value::Int(1), Value::Int(2)], Value::Int(1)),
/// });
/// let registry: HashMap<_, _> = [(ObjId(1), spec)].into();
/// assert_eq!(find_races(&trace, &registry).len(), 1);
/// ```
pub fn find_races(trace: &Trace, registry: &HashMap<ObjId, Spec>) -> Vec<RacePair> {
    // Pass 1: stamp every action event with its vector clock.
    let mut sync = SyncClocks::new();
    let mut stamped: Vec<(usize, &crace_model::Action, VectorClock)> = Vec::new();
    for (idx, event) in trace.iter().enumerate() {
        match event {
            Event::Action { tid, action } => {
                let clock = sync.clock(*tid).clone();
                stamped.push((idx, action, clock));
            }
            other => sync.apply(other),
        }
    }

    // Pass 2: all unordered, non-commuting pairs on the same object.
    let mut races = Vec::new();
    for (i, (idx_a, a, ca)) in stamped.iter().enumerate() {
        for (idx_b, b, cb) in stamped.iter().skip(i + 1) {
            if a.obj() != b.obj() {
                continue; // actions of different objects always commute
            }
            let Some(spec) = registry.get(&a.obj()) else {
                continue;
            };
            if ca.concurrent_with(cb) && !spec.commute(a, b) {
                races.push(RacePair {
                    first: *idx_a,
                    second: *idx_b,
                });
            }
        }
    }
    races
}

#[cfg(test)]
mod tests {
    use super::*;
    use crace_model::{Action, MethodId, ThreadId, Value};
    use crace_spec::builtin;

    #[test]
    fn oracle_ignores_unregistered_objects_and_cross_object_pairs() {
        let spec = builtin::dictionary();
        let put = spec.method_id("put").unwrap();
        let mut trace = Trace::new();
        trace.push(Event::Fork {
            parent: ThreadId(0),
            child: ThreadId(1),
        });
        // Same key, unordered, but different objects.
        trace.push(Event::Action {
            tid: ThreadId(0),
            action: Action::new(
                ObjId(1),
                put,
                vec![Value::Int(1), Value::Int(1)],
                Value::Nil,
            ),
        });
        trace.push(Event::Action {
            tid: ThreadId(1),
            action: Action::new(
                ObjId(2),
                put,
                vec![Value::Int(1), Value::Int(2)],
                Value::Nil,
            ),
        });
        let registry: HashMap<_, _> = [(ObjId(1), spec)].into();
        assert!(find_races(&trace, &registry).is_empty());
    }

    #[test]
    fn oracle_reports_positions_in_trace_order() {
        let spec = builtin::dictionary();
        let put = spec.method_id("put").unwrap();
        let mut trace = Trace::new();
        trace.push(Event::Fork {
            parent: ThreadId(0),
            child: ThreadId(1),
        });
        trace.push(Event::Action {
            tid: ThreadId(0),
            action: Action::new(
                ObjId(1),
                put,
                vec![Value::Int(1), Value::Int(1)],
                Value::Nil,
            ),
        });
        trace.push(Event::Action {
            tid: ThreadId(1),
            action: Action::new(
                ObjId(1),
                put,
                vec![Value::Int(1), Value::Int(2)],
                Value::Int(1),
            ),
        });
        let registry: HashMap<_, _> = [(ObjId(1), spec)].into();
        let races = find_races(&trace, &registry);
        assert_eq!(
            races,
            vec![RacePair {
                first: 1,
                second: 2
            }]
        );
    }

    #[test]
    fn oracle_treats_unknown_methods_as_never_commuting() {
        // Method pairs with no rule default to `false` (Spec::formula), so
        // concurrent invocations of an undeclared method id are
        // conservatively racy rather than a panic.
        let spec = builtin::dictionary();
        let mut trace = Trace::new();
        trace.push(Event::Fork {
            parent: ThreadId(0),
            child: ThreadId(1),
        });
        for t in 0..2u32 {
            trace.push(Event::Action {
                tid: ThreadId(t),
                action: Action::new(ObjId(1), MethodId(9), vec![], Value::Nil),
            });
        }
        let registry: HashMap<_, _> = [(ObjId(1), spec)].into();
        assert_eq!(find_races(&trace, &registry).len(), 1);
    }
}
