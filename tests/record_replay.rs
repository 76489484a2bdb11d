//! Record-and-replay integration: capture a live workload run with the
//! [`Recorder`], then replay the recording into offline detectors and the
//! textual trace format.

use crace::cli::{parse_trace, render_trace};
use crace::workloads::connections::run_connections;
use crace::{
    translate, Analysis, Direct, MonitoredDict, Rd2, Recorder, Runtime, TraceDetector, Value,
};
use crace_model::replay;
use std::sync::Arc;

#[test]
fn live_run_and_recorded_replay_agree() {
    // Run the duplicate-hosts program twice with identical structure: once
    // under the online detector, once under the recorder.
    let hosts: &[&'static str] = &["a.com", "a.com", "b.com"];

    let rd2 = Arc::new(Rd2::new());
    run_connections(rd2.clone(), hosts);
    let live_report = rd2.report();

    let recorder = Arc::new(Recorder::new());
    run_connections(recorder.clone(), hosts);
    let trace = recorder.snapshot();

    // The recording contains the fork/join skeleton and all dictionary
    // actions.
    assert!(trace.iter().any(|e| e.is_sync()));
    assert_eq!(trace.iter().filter(|e| e.action().is_some()).count(), 4); // 3 puts + size

    // Replay into the offline detector: the put/put race is found again.
    let detector = TraceDetector::new();
    let spec = MonitoredDict::spec();
    let obj = trace
        .iter()
        .find_map(|e| e.action())
        .map(|a| a.obj())
        .expect("actions recorded");
    detector.register(obj, Arc::new(translate(spec).unwrap()));
    let replayed_report = replay(&trace, &detector);
    assert!(replayed_report.total() >= 1);
    assert_eq!(replayed_report.total() > 0, live_report.total() > 0);

    // The direct detector agrees on existence.
    let direct = Direct::new();
    direct.register(obj, Arc::new(spec.clone()));
    assert!(replay(&trace, &direct).total() >= 1);
}

#[test]
fn recording_round_trips_through_the_text_format() {
    let recorder = Arc::new(Recorder::new());
    run_connections(recorder.clone(), &["x.com", "y.com"]);
    let trace = recorder.snapshot();
    let spec = MonitoredDict::spec();
    let text = render_trace(&trace, spec);
    let reparsed = parse_trace(&text, spec).expect("rendered traces parse");
    assert_eq!(reparsed, trace);
}

#[test]
fn recorder_preserves_lock_critical_sections() {
    // A lock-protected counter-style program: the recorded trace must
    // replay race-free because acquire/release events were captured in
    // their true serialization order.
    let recorder = Arc::new(Recorder::new());
    let rt = Runtime::new(recorder.clone());
    let main = rt.main_ctx();
    let dict = MonitoredDict::new(&rt);
    let mutex = Arc::new(rt.new_mutex());
    let mut handles = Vec::new();
    for _ in 0..3 {
        let dict = dict.clone();
        let mutex = Arc::clone(&mutex);
        handles.push(rt.spawn(&main, move |ctx| {
            for _ in 0..20 {
                let _g = mutex.lock(ctx);
                let v = dict.get(ctx, Value::Int(1)).as_int().unwrap_or(0);
                dict.put(ctx, Value::Int(1), Value::Int(v + 1));
            }
        }));
    }
    for h in handles {
        h.join(&main).unwrap();
    }
    assert_eq!(dict.get_untracked(&Value::Int(1)), Value::Int(60));

    let trace = recorder.snapshot();
    let detector = TraceDetector::new();
    detector.register(
        dict.obj(),
        Arc::new(translate(MonitoredDict::spec()).unwrap()),
    );
    let report = replay(&trace, &detector);
    assert!(report.is_empty(), "{report:?}");
}
