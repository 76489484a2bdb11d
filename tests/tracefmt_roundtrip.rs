//! Round-trip and robustness property tests for the textual trace
//! format: `parse_trace ∘ render_trace` must be the identity on every
//! well-formed trace — including string values full of quotes, commas,
//! backslashes, newlines, parentheses and `#` — and malformed input must
//! produce a [`TraceParseError`], never a panic.

mod common;

use common::{random_trace, Shape, Universe, NASTY};
use crace_cli::{
    parse_framed, parse_framed_tolerant, parse_trace, render_framed, render_trace, TraceErrorKind,
};
use crace_model::{Action, Event, ObjId, ThreadId, Trace, Value};
use crace_spec::{builtin, Spec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Objects the random traces act on: two-digit ids included.
const OBJECTS: u64 = 12;

/// The `i`th random trace: 1–20 steps of every kind, threads entering
/// with and without forks, values from [`Universe::Nasty`].
fn nasty_trace(spec: &Spec, seed: u64, i: u64) -> Trace {
    let events = 1 + (i % 20) as usize;
    random_trace(
        spec,
        Shape::Unforked,
        Universe::Nasty,
        seed ^ i,
        events,
        OBJECTS,
    )
}

#[test]
fn parse_render_is_the_identity_on_random_traces() {
    let spec = builtin::dictionary();
    let mut unrendered: BTreeSet<char> = NASTY.iter().copied().collect();
    for i in 0..300 {
        let trace = nasty_trace(&spec, 0x70AD_7217, i);
        let rendered = render_trace(&trace, &spec);
        let reparsed = parse_trace(&rendered, &spec)
            .unwrap_or_else(|e| panic!("iteration {i}: failed to reparse: {e}\n{rendered}"));
        assert_eq!(
            trace, reparsed,
            "iteration {i} round-trip mismatch:\n{rendered}"
        );
        for event in trace.events() {
            let Event::Action { action, .. } = event else {
                continue;
            };
            for value in action.slots() {
                if let Value::Str(s) = value {
                    s.chars().for_each(|c| {
                        unrendered.remove(&c);
                    });
                }
            }
        }
    }
    assert!(unrendered.is_empty(), "never rendered: {unrendered:?}");
}

#[test]
fn worst_case_strings_round_trip() {
    let spec = builtin::dictionary();
    for s in [
        "",
        "\"",
        "\\",
        "\\\"",
        "a,b",
        "a#b",
        "a #b",
        "#",
        "put(x)/nil",
        "(((",
        ")/nil",
        "line\nbreak",
        "tab\there",
        "\r\n",
        "\u{1}\u{2}\u{1f}",
        "ünïcødé ⚡",
        "trailing\\",
    ] {
        let mut trace = Trace::new();
        trace.push(Event::Action {
            tid: ThreadId(0),
            action: Action::new(
                ObjId(1),
                crace_model::MethodId(0), // put(k, v)
                vec![Value::str(s), Value::str(s)],
                Value::str(s),
            ),
        });
        let rendered = render_trace(&trace, &spec);
        let reparsed = parse_trace(&rendered, &spec)
            .unwrap_or_else(|e| panic!("string {s:?}: {e}\n{rendered}"));
        assert_eq!(trace, reparsed, "string {s:?} round-trip mismatch");
    }
}

/// The framed (checksummed) format must round-trip every trace the
/// plain format does — same generator, same nasty strings — through
/// both the strict parser and `parse_trace`'s header sniffing.
#[test]
fn framed_parse_render_is_the_identity_on_random_traces() {
    let spec = builtin::dictionary();
    for i in 0..300 {
        let trace = nasty_trace(&spec, 0xF4A3_ED01, i);
        let rendered = render_framed(&trace, &spec);
        let strict = parse_framed(&rendered, &spec)
            .unwrap_or_else(|e| panic!("iteration {i}: strict reparse failed: {e}\n{rendered}"));
        assert_eq!(trace, strict, "iteration {i}: framed round-trip mismatch");
        // `parse_trace` sniffs the header and takes the framed path.
        let sniffed = parse_trace(&rendered, &spec)
            .unwrap_or_else(|e| panic!("iteration {i}: sniffed reparse failed: {e}"));
        assert_eq!(trace, sniffed, "iteration {i}: header sniffing mismatch");
        // A tolerant parse of an intact file loses nothing.
        let (tolerant, outcome) = parse_framed_tolerant(&rendered, &spec);
        assert_eq!(trace, tolerant, "iteration {i}: tolerant parse mismatch");
        assert!(outcome.is_none(), "iteration {i}: intact file flagged torn");
    }
}

/// Corruption property: flip any single byte of a framed trace's body
/// and the strict parser must either reject the file (kind `Torn` for a
/// broken frame, `Malformed` for a payload the CRC can't save — it
/// can't, frames are checked first) or — only when the flip lands in
/// skippable whitespace — still parse to the original trace. A silent
/// wrong parse is the one forbidden outcome.
#[test]
fn random_byte_flips_never_parse_to_a_different_trace() {
    let spec = builtin::dictionary();
    let mut rng = StdRng::seed_from_u64(0x0BAD_F11B);
    for i in 0..150 {
        let trace = nasty_trace(&spec, 0x0BAD_F11B, i);
        let rendered = render_framed(&trace, &spec);
        let header_len = rendered.find('\n').unwrap() + 1;
        if header_len >= rendered.len() {
            continue;
        }
        let pos = rng.gen_range(header_len..rendered.len());
        let flip = rendered.as_bytes()[pos] ^ (1 << rng.gen_range(0..7));
        let mut bytes = rendered.clone().into_bytes();
        bytes[pos] = flip;
        let Ok(corrupted) = String::from_utf8(bytes) else {
            continue; // the flip broke UTF-8; parsing never sees it
        };
        match parse_framed(&corrupted, &spec) {
            Err(e) => assert!(
                matches!(e.kind, TraceErrorKind::Torn | TraceErrorKind::Malformed),
                "iteration {i}: unexpected error kind"
            ),
            Ok(parsed) => assert_eq!(
                trace, parsed,
                "iteration {i}: flipped byte {pos} silently changed the trace:\n{corrupted}"
            ),
        }
    }
}

/// Truncation property: cut a framed trace at any byte offset and the
/// tolerant parser recovers a prefix of the original events — never
/// reordered, never invented — and reports a loss iff events were lost.
#[test]
fn random_truncations_recover_a_clean_prefix() {
    let spec = builtin::dictionary();
    let mut rng = StdRng::seed_from_u64(0x0709_4CA7);
    for i in 0..150 {
        let trace = nasty_trace(&spec, 0x0709_4CA7, i);
        let rendered = render_framed(&trace, &spec);
        let cut = rng.gen_range(0..rendered.len());
        let Some(torn) = rendered.get(..cut) else {
            continue; // cut inside a multi-byte character
        };
        if !crace_cli::is_framed(torn) {
            continue; // the header itself is torn; callers sniff it first
        }
        let (recovered, outcome) = parse_framed_tolerant(torn, &spec);
        assert!(
            recovered.len() <= trace.len(),
            "iteration {i}: recovered more events than were written"
        );
        assert_eq!(
            recovered.events(),
            &trace.events()[..recovered.len()],
            "iteration {i}: recovered events are not a prefix"
        );
        if recovered.len() < trace.len() {
            // A cut at a record boundary (or one that only eats the final
            // newline of a CRC-valid record) yields a *valid* shorter
            // file — undetectable by design. Everywhere else the tear
            // must be reported.
            let undetectable = torn.ends_with('\n') || rendered.as_bytes()[cut] == b'\n';
            assert!(
                outcome.is_some() || undetectable,
                "iteration {i}: lost {} event(s) without a torn-trace report",
                trace.len() - recovered.len()
            );
        }
    }
}

/// Every malformed input must surface as a structured parse error — a
/// panic here means a `crace replay` user can crash the tool with a bad
/// trace file.
#[test]
fn malformed_traces_error_without_panicking() {
    let spec = builtin::dictionary();
    let cases: &[&str] = &[
        // Truncated event lines.
        "fork",
        "fork 0",
        "join 1",
        "acq 0",
        "rel",
        "read 0",
        "write 0 16",
        "act",
        "act 0",
        "act 0 o1",
        "act 0 o1 put",
        "act 0 o1 put(",
        "act 0 o1 put(1",
        "act 0 o1 put(1, 2",
        "act 0 o1 put(1, 2)",
        "act 0 o1 put(1, 2)/",
        // Bad ids and locations.
        "fork x 1",
        "fork 0 -1",
        "acq 0 lock",
        "read 0 16",
        "read 0 @x10",
        "act 0 1 put(1, 2)/nil",
        "act 0 o put(1, 2)/nil",
        "act 0 o-1 put(1, 2)/nil",
        // Unknown kinds and methods.
        "explode 0 1",
        "act 0 o1 frobnicate(1)/nil",
        // Arity and value errors.
        "act 0 o1 put(1)/nil",
        "act 0 o1 put(1, 2, 3)/nil",
        "act 0 o1 size(1)/0",
        "act 0 o1 put(1, 1.5)/nil",
        "act 0 o1 put(1, ref#)/nil",
        "act 0 o1 put(1, ref#x)/nil",
        "act 0 o1 put(1, tru)/nil",
        // String escape errors.
        "act 0 o1 put(\"\\q\", 1)/nil",
        "act 0 o1 put(\"\\u12\", 1)/nil",
        "act 0 o1 put(\"\\uzzzz\", 1)/nil",
        "act 0 o1 put(\"a\\\", 1)/nil",
        // Unterminated strings (the closing paren hides in the quote).
        "act 0 o1 put(\"abc, 1)/nil",
        "act 0 o1 put(\"a)b, 1)/nil",
        // Mismatched parentheses.
        "act 0 o1 put)1, 2(/nil",
    ];
    for case in cases {
        let result = std::panic::catch_unwind(|| parse_trace(case, &spec));
        match result {
            Ok(Ok(trace)) => panic!("`{case}` parsed as {trace:?}, expected an error"),
            Ok(Err(e)) => assert!(e.line >= 1, "`{case}`: error lost its line number"),
            Err(_) => panic!("`{case}` panicked instead of returning a parse error"),
        }
    }
}
