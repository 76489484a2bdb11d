//! The [`ObjectRegistry`] trait: analyses that can be told about new
//! monitored objects.

use crace_core::{Direct, ParallelRd2, TraceDetector};
use crace_fasttrack::FastTrack;
use crace_model::{Analysis, Isolated, NoopAnalysis, ObjId, Observer, Recorder};
use crace_spec::Spec;

/// An [`Analysis`] that monitored objects can register themselves with.
///
/// When a [`crate::MonitoredDict`] (or set, counter, …) is created, the
/// runtime calls [`ObjectRegistry::on_new_object`] with the object's id and
/// its commutativity specification. Detectors that track the library
/// interface (RD2, the direct detector) compile/store the specification;
/// low-level and no-op analyses ignore it.
///
/// # Panics
///
/// The RD2 implementations panic if the specification is outside ECL —
/// monitored objects ship ECL specifications, so this indicates misuse.
pub trait ObjectRegistry: Analysis {
    /// Called when a monitored object is created.
    fn on_new_object(&self, obj: ObjId, spec: &Spec) {
        let _ = (obj, spec);
    }
}

impl ObjectRegistry for NoopAnalysis {}

impl ObjectRegistry for Recorder {}

impl ObjectRegistry for FastTrack {}

impl ObjectRegistry for ParallelRd2 {
    fn on_new_object(&self, obj: ObjId, spec: &Spec) {
        self.register_spec(obj, spec)
            .expect("monitored objects use ECL specifications");
    }
}

impl ObjectRegistry for TraceDetector {
    fn on_new_object(&self, obj: ObjId, spec: &Spec) {
        self.register_spec(obj, spec)
            .expect("monitored objects use ECL specifications");
    }
}

impl ObjectRegistry for Direct {
    fn on_new_object(&self, obj: ObjId, spec: &Spec) {
        self.register(obj, std::sync::Arc::new(spec.clone()));
    }
}

/// Registration goes through to the wrapped analysis unguarded: it runs
/// at object-construction time on a healthy analysis, and a panic there
/// is misuse (a non-ECL specification), not a runtime fault.
impl<A: ObjectRegistry> ObjectRegistry for Isolated<A> {
    fn on_new_object(&self, obj: ObjId, spec: &Spec) {
        self.inner().on_new_object(obj, spec);
    }
}

impl<A: ObjectRegistry> ObjectRegistry for Observer<A> {
    fn on_new_object(&self, obj: ObjId, spec: &Spec) {
        self.inner().on_new_object(obj, spec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_impl_is_a_noop() {
        let noop = NoopAnalysis::new();
        noop.on_new_object(ObjId(1), &crace_spec::builtin::dictionary());
        assert!(noop.report().is_empty());
    }

    #[test]
    fn all_detectors_are_registries() {
        fn assert_registry<T: ObjectRegistry>(_: &T) {}
        assert_registry(&NoopAnalysis::new());
        assert_registry(&FastTrack::new());
        assert_registry(&ParallelRd2::new(2));
        assert_registry(&TraceDetector::new());
        assert_registry(&Direct::new());
    }
}
