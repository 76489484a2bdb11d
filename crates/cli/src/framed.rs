//! The framed, checksummed trace format: crash-consistent capture.
//!
//! The plain textual format (one event per line) cannot tell a complete
//! trace from one whose writer died mid-line — the torn tail parses as a
//! malformed event, or worse, as a *different* event. The framed format
//! makes truncation detectable and the intact prefix recoverable:
//!
//! ```text
//! #%crace-trace v1 framed
//! =8:9b8b1ef1 fork 0 1
//! =24:0c33964a act 1 o1 put(5, 7)/nil
//! ```
//!
//! Each record line is `=<len>:<crc32> <event-text>`: the byte length of
//! the event text in decimal and its IEEE CRC-32 in 8 hex digits. A
//! writer appends one whole record line per event in a single write and
//! flushes (the daemon's per-session capture does exactly that), so after
//! a crash the file is a sequence of valid records followed by at most
//! one torn line. [`parse_framed_tolerant`] recovers exactly that valid
//! prefix and reports what was lost; [`parse_framed`] (and
//! [`parse_trace`](crate::parse_trace), which auto-detects the header)
//! rejects damage with a [`TraceErrorKind::Torn`] error instead.
//!
//! The header line starts with `#`, so a framed file shown to the plain
//! parser fails on the first record rather than being silently
//! misread — the formats cannot be confused.

use crate::tracefmt::{parse_event, render_event, torn, TraceErrorKind, TraceParseError};
use crace_model::{Event, Trace};
use crace_spec::Spec;

/// First line of every framed trace file.
pub const FRAMED_HEADER: &str = "#%crace-trace v1 framed";

/// True iff `source` declares the framed format.
pub fn is_framed(source: &str) -> bool {
    source.lines().next() == Some(FRAMED_HEADER)
}

pub use crace_vclock::ckpt::crc32;

fn frame(payload: &str) -> String {
    let mut out = String::with_capacity(payload.len() + 16);
    crace_vclock::ckpt::frame(&mut out, payload);
    out
}

/// Renders one event as a single framed record line (no trailing
/// newline) — the streaming counterpart of [`render_framed`], for
/// writers that emit records one at a time (e.g. a socket client).
pub fn frame_event(event: &Event, spec: &Spec) -> String {
    frame(&render_event(event, spec))
}

/// Checks and parses one framed record line (without its newline) into
/// an event — the streaming counterpart of [`parse_framed`], for readers
/// that consume records one at a time (e.g. a socket server). `lineno`
/// is only used in error messages.
///
/// # Errors
///
/// [`TraceErrorKind::Torn`] for framing damage (bad prefix, length, or
/// checksum), [`TraceErrorKind::Malformed`] for a checksummed record
/// whose payload is not a well-formed event.
///
/// [`TraceErrorKind::Torn`]: crate::TraceErrorKind::Torn
/// [`TraceErrorKind::Malformed`]: crate::TraceErrorKind::Malformed
pub fn parse_framed_record(
    line: &str,
    spec: &Spec,
    lineno: usize,
) -> Result<Event, TraceParseError> {
    let payload = unframe(line, lineno)?;
    parse_event(payload, spec, lineno)
}

/// Renders a whole trace in the framed format (header + one record per
/// event, each newline-terminated).
pub fn render_framed(trace: &Trace, spec: &Spec) -> String {
    let mut out = String::from(FRAMED_HEADER);
    out.push('\n');
    for event in trace {
        out.push_str(&frame(&render_event(event, spec)));
        out.push('\n');
    }
    out
}

/// Description of the damage [`parse_framed_tolerant`] recovered from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TornTrace {
    /// Events recovered from the valid prefix.
    pub recovered_events: usize,
    /// Bytes after the last valid record that could not be interpreted.
    pub lost_bytes: usize,
    /// 1-based line number where the damage starts.
    pub first_bad_line: usize,
    /// What exactly was wrong with the first damaged line.
    pub reason: String,
}

impl std::fmt::Display for TornTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovered {} event(s); lost {} byte(s) from line {} ({})",
            self.recovered_events, self.lost_bytes, self.first_bad_line, self.reason
        )
    }
}

/// One framed line checked and unwrapped to its payload.
fn unframe(line: &str, lineno: usize) -> Result<&str, TraceParseError> {
    crace_vclock::ckpt::unframe(line).map_err(|e| torn(lineno, e))
}

/// Strict framed parse: any torn record is an error (kind
/// [`TraceErrorKind::Torn`]); a valid record whose payload is not a
/// well-formed event is [`TraceErrorKind::Malformed`].
///
/// # Errors
///
/// Returns a [`TraceParseError`] carrying the first offending line.
///
/// [`TraceErrorKind::Torn`]: crate::TraceErrorKind::Torn
/// [`TraceErrorKind::Malformed`]: crate::TraceErrorKind::Malformed
pub fn parse_framed(source: &str, spec: &Spec) -> Result<Trace, TraceParseError> {
    match parse_framed_inner(source, spec) {
        (trace, None) => Ok(trace),
        (_, Some((e, _))) => Err(e),
    }
}

/// Shared scan: the longest valid prefix, plus the first error and the
/// byte offset where its line starts.
fn parse_framed_inner(source: &str, spec: &Spec) -> (Trace, Option<(TraceParseError, usize)>) {
    assert!(is_framed(source), "not a framed trace");
    // One record per line after the header: size the trace once.
    let records = source.bytes().filter(|&b| b == b'\n').count();
    let mut trace = Trace::with_capacity(records);
    let mut offset = 0usize;
    for (idx, line) in source.split('\n').enumerate() {
        let lineno = idx + 1;
        let start = offset;
        offset += line.len() + 1; // the split-off '\n'
        if lineno == 1 || line.is_empty() {
            continue; // the header, the final newline, or a stray blank
        }
        match unframe(line, lineno).and_then(|payload| parse_event(payload, spec, lineno)) {
            Ok(event) => trace.push(event),
            Err(e) => return (trace, Some((e, start))),
        }
    }
    (trace, None)
}

/// Truncation-tolerant framed parse: returns the longest valid prefix
/// plus, when the file is damaged, a [`TornTrace`] accounting for
/// exactly what was lost. A malformed *payload* inside a checksummed
/// record is not truncation — it still ends the prefix, but the reason
/// says so (it indicates a writer bug, not a crash).
///
/// # Panics
///
/// Panics if `source` does not start with the framed header — check
/// [`is_framed`] first.
pub fn parse_framed_tolerant(source: &str, spec: &Spec) -> (Trace, Option<TornTrace>) {
    let (trace, error) = parse_framed_inner(source, spec);
    let outcome = error.map(|(e, start)| TornTrace {
        recovered_events: trace.len(),
        lost_bytes: source.len() - start,
        first_bad_line: e.line,
        reason: match e.kind {
            TraceErrorKind::Torn => e.message,
            TraceErrorKind::Malformed => {
                format!("checksummed record holds a malformed event: {}", e.message)
            }
        },
    });
    (trace, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_trace;
    use crace_spec::builtin;

    fn sample() -> (Trace, Spec) {
        let spec = builtin::dictionary();
        let trace = parse_trace(
            "fork 0 1\nfork 0 2\nact 2 o1 put(\"a.com\", 1)/nil\nact 1 o1 put(\"a.com\", 2)/1\njoin 0 1\njoin 0 2\n",
            &spec,
        )
        .unwrap();
        (trace, spec)
    }

    #[test]
    fn framed_round_trip_via_autodetect() {
        let (trace, spec) = sample();
        let rendered = render_framed(&trace, &spec);
        assert!(is_framed(&rendered));
        // Both the explicit and the auto-detecting entry points agree.
        assert_eq!(parse_framed(&rendered, &spec).unwrap(), trace);
        assert_eq!(parse_trace(&rendered, &spec).unwrap(), trace);
    }

    #[test]
    fn torn_tail_is_detected_and_recovered() {
        let (trace, spec) = sample();
        let rendered = render_framed(&trace, &spec);
        // Tear the file mid-way through the final record.
        let cut = rendered.len() - 7;
        let torn_text = &rendered[..cut];
        let e = parse_trace(torn_text, &spec).unwrap_err();
        assert_eq!(e.kind, crate::TraceErrorKind::Torn);

        let (recovered, outcome) = parse_framed_tolerant(torn_text, &spec);
        let outcome = outcome.expect("damage must be reported");
        assert_eq!(recovered.len(), trace.len() - 1);
        assert_eq!(recovered.events(), &trace.events()[..trace.len() - 1]);
        assert_eq!(outcome.recovered_events, trace.len() - 1);
        // Exactly the torn last line was lost.
        let last_line_start = torn_text.rfind('\n').unwrap() + 1;
        assert_eq!(outcome.lost_bytes, torn_text.len() - last_line_start);
    }

    #[test]
    fn every_truncation_point_recovers_a_clean_prefix() {
        let (trace, spec) = sample();
        let rendered = render_framed(&trace, &spec);
        for cut in FRAMED_HEADER.len() + 1..rendered.len() {
            let torn_text = &rendered[..cut];
            let (recovered, outcome) = parse_framed_tolerant(torn_text, &spec);
            assert!(recovered.len() <= trace.len());
            assert_eq!(
                recovered.events(),
                &trace.events()[..recovered.len()],
                "cut at byte {cut} must recover a prefix"
            );
            if recovered.len() < trace.len() {
                match outcome {
                    Some(outcome) => {
                        assert_eq!(outcome.recovered_events, recovered.len());
                        assert!(outcome.lost_bytes > 0);
                    }
                    // A cut on a record boundary (or one losing only the
                    // trailing newline of a CRC-valid record) leaves a
                    // valid shorter file: only whole events are lost,
                    // which a record-granular format cannot (and need
                    // not) flag.
                    None => assert!(
                        torn_text.ends_with('\n') || rendered.as_bytes()[cut] == b'\n',
                        "cut at byte {cut}"
                    ),
                }
            }
        }
    }

    #[test]
    fn corruption_flips_are_always_detected() {
        let (trace, spec) = sample();
        let rendered = render_framed(&trace, &spec);
        let body_start = FRAMED_HEADER.len() + 1;
        // Flip one bit at a time through the whole body; the parse must
        // either fail or (for flips inside a record header's numbers
        // that keep it self-consistent — impossible for CRC-protected
        // payloads) still yield a prefix of the original.
        let bytes = rendered.as_bytes();
        for pos in body_start..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.to_vec();
                mutated[pos] ^= 1 << bit;
                let Ok(text) = String::from_utf8(mutated) else {
                    continue;
                };
                match parse_framed(&text, &spec) {
                    Err(_) => {}
                    Ok(parsed) => assert_eq!(
                        parsed, trace,
                        "flip at byte {pos} bit {bit} silently changed the trace"
                    ),
                }
            }
        }
    }

    #[test]
    fn per_record_api_round_trips_and_rejects_damage() {
        let (trace, spec) = sample();
        for (i, event) in trace.iter().enumerate() {
            let line = frame_event(event, &spec);
            assert_eq!(&parse_framed_record(&line, &spec, i + 1).unwrap(), event);
            // A flipped payload byte must be caught by the checksum.
            let mut damaged = line.clone().into_bytes();
            let last = damaged.len() - 1;
            damaged[last] ^= 0x20;
            let damaged = String::from_utf8(damaged).unwrap();
            if damaged != line {
                let e = parse_framed_record(&damaged, &spec, i + 1).unwrap_err();
                assert_eq!(e.kind, crate::TraceErrorKind::Torn);
            }
        }
        // The per-record renderer agrees with the whole-trace renderer.
        let rendered = render_framed(&trace, &spec);
        let from_records: String = std::iter::once(FRAMED_HEADER.to_string())
            .chain(trace.iter().map(|e| frame_event(e, &spec)))
            .map(|l| l + "\n")
            .collect();
        assert_eq!(rendered, from_records);
    }
}
