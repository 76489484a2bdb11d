//! Recorded traces and offline replay.

use crate::{Analysis, Event, ThreadId};
use std::fmt;

/// A recorded program trace: the sequence `π = e₁ e₂ … eₙ` of events in the
/// order they were observed (a linearization consistent with real time).
///
/// Traces decouple workload execution from analysis: the same recorded trace
/// can be replayed into the commutativity detector, the FastTrack baseline
/// and the naive direct detector, which is how the per-event benchmarks and
/// the precision tests compare detectors on identical inputs.
///
/// # Examples
///
/// ```
/// use crace_model::{Event, ThreadId, Trace};
///
/// let mut trace = Trace::new();
/// trace.push(Event::Fork { parent: ThreadId(0), child: ThreadId(1) });
/// assert_eq!(trace.len(), 1);
/// assert_eq!(trace.num_threads(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<Event>,
    max_tid: u32,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Creates an empty trace with room for `events` events, so a
    /// decoder that knows the record count fills it without regrowing.
    pub fn with_capacity(events: usize) -> Trace {
        Trace {
            events: Vec::with_capacity(events),
            max_tid: 0,
        }
    }

    /// Appends an event.
    pub fn push(&mut self, event: Event) {
        self.note_tid(event.tid());
        if let Event::Fork { child, .. } | Event::Join { child, .. } = event {
            self.note_tid(child);
        }
        self.events.push(event);
    }

    fn note_tid(&mut self, tid: ThreadId) {
        if tid.0 > self.max_tid {
            self.max_tid = tid.0;
        }
    }

    /// The recorded events in observation order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` iff the trace contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// An upper bound on the number of threads mentioned in the trace
    /// (largest thread id + 1; the main thread is id 0).
    pub fn num_threads(&self) -> usize {
        self.max_tid as usize + 1
    }

    /// Iterates over the recorded events.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }
}

impl Extend<Event> for Trace {
    fn extend<I: IntoIterator<Item = Event>>(&mut self, iter: I) {
        for e in iter {
            self.push(e);
        }
    }
}

impl FromIterator<Event> for Trace {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Trace {
        let mut t = Trace::new();
        t.extend(iter);
        t
    }
}

impl IntoIterator for Trace {
    type Item = Event;
    type IntoIter = std::vec::IntoIter<Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.events.iter().enumerate() {
            writeln!(f, "{i:>4}  {e}")?;
        }
        Ok(())
    }
}

/// Replays a recorded trace into an analysis and returns its race report.
///
/// # Examples
///
/// ```
/// use crace_model::{replay, Event, NoopAnalysis, ThreadId, Trace};
///
/// let trace: Trace = vec![Event::Fork { parent: ThreadId(0), child: ThreadId(1) }]
///     .into_iter()
///     .collect();
/// let report = replay(&trace, &NoopAnalysis::new());
/// assert!(report.is_empty());
/// ```
pub fn replay<A: Analysis + ?Sized>(trace: &Trace, analysis: &A) -> crate::RaceReport {
    for event in trace {
        analysis.on_event(event);
    }
    analysis.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Action, LockId, MethodId, NoopAnalysis, ObjId, Value};

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Fork {
                parent: ThreadId(0),
                child: ThreadId(2),
            },
            Event::Acquire {
                tid: ThreadId(2),
                lock: LockId(1),
            },
            Event::Action {
                tid: ThreadId(2),
                action: Action::new(ObjId(1), MethodId(0), vec![Value::Int(5)], Value::Nil),
            },
            Event::Release {
                tid: ThreadId(2),
                lock: LockId(1),
            },
            Event::Join {
                parent: ThreadId(0),
                child: ThreadId(2),
            },
        ]
    }

    #[test]
    fn num_threads_tracks_forked_children() {
        let trace: Trace = sample_events().into_iter().collect();
        assert_eq!(trace.num_threads(), 3); // ids 0..=2
    }

    #[test]
    fn collect_and_iterate_round_trip() {
        let events = sample_events();
        let trace: Trace = events.clone().into_iter().collect();
        assert_eq!(trace.len(), events.len());
        let back: Vec<Event> = trace.clone().into_iter().collect();
        assert_eq!(back, events);
        assert_eq!(trace.iter().count(), events.len());
    }

    #[test]
    fn empty_trace() {
        let trace = Trace::new();
        assert!(trace.is_empty());
        assert_eq!(trace.num_threads(), 1); // the main thread always exists
    }

    #[test]
    fn replay_visits_every_event() {
        let trace: Trace = sample_events().into_iter().collect();
        // NoopAnalysis never reports; we mainly check replay doesn't panic
        // and returns an empty report.
        let report = replay(&trace, &NoopAnalysis::new());
        assert!(report.is_empty());
    }

    #[test]
    fn display_numbers_events() {
        let trace: Trace = sample_events().into_iter().collect();
        let s = trace.to_string();
        assert!(s.contains("0  τ0: fork(τ2)"));
        assert!(s.lines().count() == 5);
    }
}
