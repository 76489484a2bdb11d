//! Parsing and rendering of the textual trace format.

use crace_model::{Action, Event, LocId, LockId, ObjId, ThreadId, Trace, Value};
use crace_spec::Spec;
use std::error::Error;
use std::fmt;

/// What class of damage a [`TraceParseError`] describes — callers branch
/// on this to pick an exit code and to decide whether
/// truncation-tolerant recovery is even possible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceErrorKind {
    /// The input is well-framed but the content is wrong: unknown event,
    /// bad value, arity mismatch. Recovery cannot help.
    Malformed,
    /// A framed trace ends mid-record or a record fails its length/CRC
    /// check — the signature of a crash mid-write. The prefix before the
    /// damage is intact and recoverable.
    Torn,
}

/// An error while parsing a trace file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
    /// Whether this is malformed content or a torn (truncated) file.
    pub kind: TraceErrorKind,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for TraceParseError {}

pub(crate) fn err(line: usize, message: impl Into<String>) -> TraceParseError {
    TraceParseError {
        line,
        message: message.into(),
        kind: TraceErrorKind::Malformed,
    }
}

pub(crate) fn torn(line: usize, message: impl Into<String>) -> TraceParseError {
    TraceParseError {
        line,
        message: message.into(),
        kind: TraceErrorKind::Torn,
    }
}

/// Parses a trace file; method names in `act` lines are resolved against
/// `spec`.
///
/// # Errors
///
/// Returns a [`TraceParseError`] with the offending line for malformed
/// events, unknown methods, or arity mismatches.
///
/// # Examples
///
/// ```
/// use crace_cli::parse_trace;
/// use crace_spec::builtin;
///
/// let spec = builtin::dictionary();
/// let trace = parse_trace("fork 0 1\nact 1 o1 put(5, 7)/nil\n", &spec)?;
/// assert_eq!(trace.len(), 2);
/// # Ok::<(), crace_cli::TraceParseError>(())
/// ```
pub fn parse_trace(source: &str, spec: &Spec) -> Result<Trace, TraceParseError> {
    if crate::framed::is_framed(source) {
        return crate::framed::parse_framed(source, spec);
    }
    let mut trace = Trace::new();
    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        trace.push(parse_event(line, spec, lineno)?);
    }
    Ok(trace)
}

/// Parses one already-stripped, nonempty event line.
pub(crate) fn parse_event(
    line: &str,
    spec: &Spec,
    lineno: usize,
) -> Result<Event, TraceParseError> {
    // `splitn(3, char::is_whitespace)`: the kind, one word, the rest.
    let (kind, rest) = split_ws(line).unwrap_or((line, ""));
    let (word, rest) = split_ws(rest).unwrap_or((rest, ""));
    let mut words = [word, rest].into_iter();
    let parse_tid = |w: Option<&str>| -> Result<ThreadId, TraceParseError> {
        w.and_then(|s| trim(s).parse::<u32>().ok())
            .map(ThreadId)
            .ok_or_else(|| err(lineno, "expected a thread id"))
    };
    Ok(match kind {
        "fork" | "join" => {
            let parent = parse_tid(words.next())?;
            let child = parse_tid(words.next())?;
            if kind == "fork" {
                Event::Fork { parent, child }
            } else {
                Event::Join { parent, child }
            }
        }
        "acq" | "rel" => {
            let tid = parse_tid(words.next())?;
            let lock = words
                .next()
                .and_then(|s| trim(s).parse::<u64>().ok())
                .map(LockId)
                .ok_or_else(|| err(lineno, "expected a lock id"))?;
            if kind == "acq" {
                Event::Acquire { tid, lock }
            } else {
                Event::Release { tid, lock }
            }
        }
        "read" | "write" => {
            let tid = parse_tid(words.next())?;
            let loc = words
                .next()
                .map(trim)
                .and_then(|s| s.strip_prefix('@'))
                .and_then(|s| {
                    s.strip_prefix("0x")
                        .map(|h| u64::from_str_radix(h, 16).ok())
                        .unwrap_or_else(|| s.parse::<u64>().ok())
                })
                .map(LocId)
                .ok_or_else(|| err(lineno, "expected a location like @16 or @0x10"))?;
            if kind == "read" {
                Event::Read { tid, loc }
            } else {
                Event::Write { tid, loc }
            }
        }
        "act" => {
            let tid = parse_tid(words.next())?;
            let rest = words
                .next()
                .ok_or_else(|| err(lineno, "expected `o<id> name(args)/ret`"))?;
            let action = parse_action(rest, spec, lineno)?;
            Event::Action { tid, action }
        }
        other => {
            return Err(err(
                lineno,
                format!("unknown event `{other}` (expected fork/join/acq/rel/read/write/act)"),
            ));
        }
    })
}

fn parse_action(text: &str, spec: &Spec, lineno: usize) -> Result<Action, TraceParseError> {
    // Shape: o<obj> name(arg, …)/ret
    let text = trim(text);
    let (obj_text, call) =
        split_ws(text).ok_or_else(|| err(lineno, "expected `o<id> name(args)/ret`"))?;
    let obj = obj_text
        .strip_prefix('o')
        .and_then(|s| s.parse::<u64>().ok())
        .map(ObjId)
        .ok_or_else(|| err(lineno, format!("bad object id `{obj_text}`")))?;
    let call = trim(call);

    // One pass over the call's bytes, outside string quotes: the first
    // `(` ends the method name, the last `)` ends the argument list, and
    // every comma after the `(` ends an argument, which is parsed on the
    // spot. A comma past the final `)` belongs to the return text, so
    // the arguments it ended are dropped again once that `)` is known.
    let mut open = None;
    let mut method = None;
    let mut args = Vec::new();
    // Comma-ended arguments so far, where the current one starts, and the
    // first one that failed to parse (by index).
    let (mut ended, mut arg_start) = (0, 0);
    let mut bad: Option<(usize, TraceParseError)> = None;
    // At the last `)` so far: its position, the comma-ended arguments
    // before it, and where its final argument starts.
    let mut close: Option<(usize, usize, usize)> = None;
    let (mut in_quote, mut escaped) = (false, false);
    for (i, &b) in call.as_bytes().iter().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_quote => escaped = true,
            b'"' => in_quote = !in_quote,
            _ if in_quote => {}
            b'(' if open.is_none() => {
                open = Some(i);
                arg_start = i + 1;
                method = spec.method_id(trim(&call[..i]));
                if let Some(m) = method {
                    args.reserve_exact(spec.sig(m).num_args());
                }
            }
            b')' => close = Some((i, ended, arg_start)),
            b',' if open.is_some() => {
                if bad.is_none() {
                    match parse_value(trim(&call[arg_start..i]), lineno) {
                        Ok(v) => args.push(v),
                        Err(e) => bad = Some((ended, e)),
                    }
                }
                ended += 1;
                arg_start = i + 1;
            }
            _ => {}
        }
    }
    let open = open.ok_or_else(|| err(lineno, "expected `(` in invocation"))?;
    let (close, ended, last_start) =
        close.ok_or_else(|| err(lineno, "expected `)` in invocation"))?;
    if close < open {
        return Err(err(lineno, "mismatched parentheses"));
    }
    let ret_text = trim(&call[close + 1..])
        .strip_prefix('/')
        .map(trim)
        .ok_or_else(|| err(lineno, "expected `/ret` after invocation"))?;
    let name = trim(&call[..open]);
    let method = method.ok_or_else(|| {
        err(
            lineno,
            format!("unknown method `{name}` in spec `{}`", spec.name()),
        )
    })?;
    match bad {
        Some((idx, e)) if idx < ended => return Err(e),
        _ => args.truncate(ended),
    }
    let last = trim(&call[last_start..close]);
    if ended > 0 || !last.is_empty() {
        args.push(parse_value(last, lineno)?);
    }
    if args.len() != spec.sig(method).num_args() {
        return Err(err(
            lineno,
            format!(
                "method `{name}` takes {} argument(s), found {}",
                spec.sig(method).num_args(),
                args.len()
            ),
        ));
    }
    let ret = parse_value(ret_text, lineno)?;
    Ok(Action::new(obj, method, args, ret))
}

/// `str::trim`, reading bytes while the ends are ASCII — as they are in
/// every rendered trace — and deferring to `str::trim` otherwise.
fn trim(s: &str) -> &str {
    let t = s.trim_ascii();
    let plain = |b: Option<&u8>| b.is_none_or(|&b| b.is_ascii() && !(b as char).is_whitespace());
    if plain(t.as_bytes().first()) && plain(t.as_bytes().last()) {
        t
    } else {
        t.trim()
    }
}

/// `s.split_once(char::is_whitespace)`, reading bytes while they are
/// ASCII.
fn split_ws(s: &str) -> Option<(&str, &str)> {
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !b.is_ascii() {
            let (head, tail) = s[i..].split_once(char::is_whitespace)?;
            return Some((&s[..i + head.len()], tail));
        }
        if (b as char).is_whitespace() {
            return Some((&s[..i], &s[i + 1..]));
        }
    }
    None
}

/// Strips a `#` comment; a `#` counts as a comment start only outside of
/// string quotes and at the beginning of the line or after whitespace, so
/// `ref#9`, `"a#b"` and `"a #b"` all survive.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_quote = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_quote => escaped = true,
            b'"' => in_quote = !in_quote,
            b'#' if !in_quote && (i == 0 || bytes[i - 1].is_ascii_whitespace()) => {
                return &line[..i];
            }
            _ => {}
        }
    }
    line
}

/// Decodes the body of a quoted string literal: the inverse of
/// [`crace_obs::json::escape`], which [`render_value`] uses to emit it.
fn unescape_str(body: &str, lineno: usize) -> Result<String, TraceParseError> {
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let code = (hex.len() == 4)
                    .then(|| u32::from_str_radix(&hex, 16).ok())
                    .flatten()
                    .and_then(char::from_u32)
                    .ok_or_else(|| err(lineno, format!("bad \\u escape `\\u{hex}`")))?;
                out.push(code);
            }
            other => {
                return Err(err(
                    lineno,
                    match other {
                        Some(c) => format!("unknown escape `\\{c}` in string"),
                        None => "string ends in a bare backslash".to_string(),
                    },
                ));
            }
        }
    }
    Ok(out)
}

pub(crate) fn parse_value(text: &str, lineno: usize) -> Result<Value, TraceParseError> {
    // Integers are the common case; no other value starts like one.
    if let Some(b'0'..=b'9' | b'-' | b'+') = text.as_bytes().first() {
        return text
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| err(lineno, format!("bad value `{text}`")));
    }
    match text {
        "nil" => Ok(Value::Nil),
        "true" => Ok(Value::Bool(true)),
        "false" => Ok(Value::Bool(false)),
        _ => {
            if let Some(stripped) = text.strip_prefix("ref#") {
                return stripped
                    .parse::<u64>()
                    .map(Value::Ref)
                    .map_err(|_| err(lineno, format!("bad reference `{text}`")));
            }
            if text.starts_with('"') && text.ends_with('"') && text.len() >= 2 {
                return unescape_str(&text[1..text.len() - 1], lineno).map(|s| Value::str(&s));
            }
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| err(lineno, format!("bad value `{text}`")))
        }
    }
}

/// Renders a trace back to the textual format (method names taken from
/// `spec`; methods not in the spec render as `m<id>`).
pub fn render_trace(trace: &Trace, spec: &Spec) -> String {
    let mut out = String::new();
    for event in trace {
        out.push_str(&render_event(event, spec));
        out.push('\n');
    }
    out
}

/// Renders one event as a single line (no trailing newline) — the unit
/// the framed format checksums.
pub(crate) fn render_event(event: &Event, spec: &Spec) -> String {
    match event {
        Event::Fork { parent, child } => format!("fork {} {}", parent.0, child.0),
        Event::Join { parent, child } => format!("join {} {}", parent.0, child.0),
        Event::Acquire { tid, lock } => format!("acq {} {}", tid.0, lock.0),
        Event::Release { tid, lock } => format!("rel {} {}", tid.0, lock.0),
        Event::Read { tid, loc } => format!("read {} @{}", tid.0, loc.0),
        Event::Write { tid, loc } => format!("write {} @{}", tid.0, loc.0),
        Event::Action { tid, action } => {
            format!(
                "act {} o{} {}",
                tid.0,
                action.obj().0,
                render_call(action, spec)
            )
        }
    }
}

fn render_call(action: &Action, spec: &Spec) -> String {
    let name = if action.method().index() < spec.num_methods() {
        spec.sig(action.method()).name().to_string()
    } else {
        format!("m{}", action.method().0)
    };
    let args: Vec<String> = action.args().iter().map(render_value).collect();
    format!("{name}({})/{}", args.join(", "), render_value(action.ret()))
}

pub(crate) fn render_value(v: &Value) -> String {
    match v {
        Value::Nil => "nil".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Str(s) => format!("\"{}\"", crace_obs::json::escape(s)),
        Value::Ref(r) => format!("ref#{r}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crace_spec::builtin;

    const SAMPLE: &str = r#"
# the running example
fork 0 1
fork 0 2
act 2 o1 put("a.com", 1)/nil
act 1 o1 put("a.com", 2)/1
join 0 1
join 0 2
act 0 o1 size()/1
"#;

    #[test]
    fn parses_the_running_example() {
        let spec = builtin::dictionary();
        let trace = parse_trace(SAMPLE, &spec).unwrap();
        assert_eq!(trace.len(), 7);
        assert_eq!(trace.num_threads(), 3);
        let act = trace.events()[2].action().unwrap();
        assert_eq!(act.obj(), ObjId(1));
        assert_eq!(act.args()[0], Value::str("a.com"));
        assert_eq!(act.ret(), &Value::Nil);
    }

    #[test]
    fn round_trips_through_render() {
        let spec = builtin::dictionary();
        let trace = parse_trace(SAMPLE, &spec).unwrap();
        let rendered = render_trace(&trace, &spec);
        let reparsed = parse_trace(&rendered, &spec).unwrap();
        assert_eq!(trace, reparsed);
    }

    #[test]
    fn parses_all_value_shapes_and_locations() {
        let spec = builtin::dictionary();
        let src = "act 0 o1 put(true, ref#9)/\"x\"\nread 1 @0x10\nwrite 1 @16\nacq 0 3\nrel 0 3\n";
        let trace = parse_trace(src, &spec).unwrap();
        let a = trace.events()[0].action().unwrap();
        assert_eq!(a.args(), &[Value::Bool(true), Value::Ref(9)]);
        assert_eq!(a.ret(), &Value::str("x"));
        assert_eq!(
            trace.events()[1],
            Event::Read {
                tid: ThreadId(1),
                loc: LocId(16)
            }
        );
        assert_eq!(
            trace.events()[2],
            Event::Write {
                tid: ThreadId(1),
                loc: LocId(16)
            }
        );
    }

    #[test]
    fn string_arguments_may_contain_commas() {
        let spec = builtin::dictionary();
        let trace = parse_trace("act 0 o1 put(\"a,b\", 1)/nil\n", &spec).unwrap();
        let a = trace.events()[0].action().unwrap();
        assert_eq!(a.args()[0], Value::str("a,b"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let spec = builtin::dictionary();
        let e = parse_trace("fork 0 1\nact 1 o1 bogus(1)/nil\n", &spec).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown method"));

        let e = parse_trace("explode 1 2\n", &spec).unwrap_err();
        assert!(e.message.contains("unknown event"));

        let e = parse_trace("act 0 o1 put(1)/nil\n", &spec).unwrap_err();
        assert!(e.message.contains("takes 2 argument(s)"));

        let e = parse_trace("act 0 x1 put(1, 2)/nil\n", &spec).unwrap_err();
        assert!(e.message.contains("bad object id"));
    }

    /// The one-pass scan reports the same first error as separate scans
    /// for `(`, the last `)` and the argument commas would: framing
    /// errors, then the method, then arguments in order, then arity,
    /// then the return value.
    #[test]
    fn the_single_pass_keeps_the_error_order() {
        let spec = builtin::dictionary();
        let message = |line: &str| parse_trace(line, &spec).unwrap_err().message;
        assert!(message("act 0 o1 put(x, 1)/nil").contains("bad value `x`"));
        assert!(message("act 0 o1 put(1, x)/nil").contains("bad value `x`"));
        assert!(message("act 0 o1 put(1, 2, 3)/nil").contains("takes 2 argument(s), found 3"));
        assert!(message("act 0 o1 bogus(x)/nil").contains("unknown method"));
        assert!(message("act 0 o1 put(x, 1)").contains("expected `/ret`"));
        assert!(message("act 0 o1 put(1, 2").contains("expected `)`"));
        assert!(message("act 0 o1 )put(1, 2/nil").contains("mismatched"));
        assert!(message("act 0 o1 put(1), 2)/nil").contains("bad value `1)`"));
        // A comma after the last `)` is return text, not an argument.
        assert!(message("act 0 o1 put(1, 2)/nil, 3").contains("bad value `nil, 3`"));
        let trace = parse_trace("act 0 o1 put(\"a,b)\", 1)/\")\"\n", &spec).unwrap();
        let a = trace.events()[0].action().unwrap();
        assert_eq!(a.args(), &[Value::str("a,b)"), Value::Int(1)]);
        assert_eq!(a.ret(), &Value::str(")"));
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let spec = builtin::dictionary();
        let trace = parse_trace("# header\n\nfork 0 1 # trailing\n   \n", &spec).unwrap();
        assert_eq!(trace.len(), 1);
    }
}
