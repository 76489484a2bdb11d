//! Report rendering: compiler-style text with source carets, and a
//! stable hand-written JSON shape for tooling.

use crate::{Diagnostic, LintReport, Severity};
use crace_obs::json::escape_into;
use crace_spec::{line_col, render_snippet};
use std::fmt::Write;

/// Renders one report as a text listing against its source.
pub(crate) fn pretty(report: &LintReport, source: &str) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let _ = write!(out, "{}[{}]: {}", d.severity, d.code, d.message);
        if let Some(span) = d.span {
            let (line, col) = line_col(source, span);
            let _ = writeln!(out, " (line {line}, column {col})");
            out.push_str(&render_snippet(source, span));
        } else {
            out.push('\n');
        }
        for note in &d.notes {
            let _ = writeln!(out, "  = {note}");
        }
    }
    let s = &report.summary;
    let _ = writeln!(
        out,
        "spec `{}`: {} method(s), {} rule(s), ECL: {}",
        s.spec_name,
        s.methods,
        s.rules,
        if s.is_ecl { "yes" } else { "no" }
    );
    if let (Some(raw), Some(classes), Some(degree)) =
        (s.raw_classes, s.classes, s.max_conflict_degree)
    {
        let _ = writeln!(
            out,
            "access points: {raw} raw -> {classes} class(es), max conflict degree {degree}"
        );
    }
    if !s.conflict_checks.is_empty() {
        let costs: Vec<String> = s
            .conflict_checks
            .iter()
            .map(|c| format!("{} <= {}", c.method, c.max_conflict_checks))
            .collect();
        let _ = writeln!(out, "conflict checks per invocation: {}", costs.join(", "));
    }
    let errors = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = report.diagnostics.len() - errors;
    if report.diagnostics.is_empty() {
        out.push_str("clean: no findings\n");
    } else {
        let _ = writeln!(out, "{errors} error(s), {warnings} warning(s)");
    }
    out
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, "\"{key}\":\"");
    escape_into(out, value);
    out.push('"');
}

fn push_opt_usize(out: &mut String, key: &str, value: Option<usize>) {
    match value {
        Some(v) => {
            let _ = write!(out, "\"{key}\":{v}");
        }
        None => {
            let _ = write!(out, "\"{key}\":null");
        }
    }
}

fn diagnostic_json(d: &Diagnostic, source: &str, out: &mut String) {
    out.push('{');
    push_str_field(out, "code", d.code.as_str());
    out.push(',');
    push_str_field(out, "severity", &d.severity.to_string());
    out.push(',');
    push_str_field(out, "message", &d.message);
    out.push(',');
    match d.span {
        Some(span) => {
            let (line, col) = line_col(source, span);
            let _ = write!(
                out,
                "\"line\":{line},\"column\":{col},\"span\":{{\"start\":{},\"end\":{}}}",
                span.start, span.end
            );
        }
        None => out.push_str("\"line\":null,\"column\":null,\"span\":null"),
    }
    out.push_str(",\"notes\":[");
    for (i, note) in d.notes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(out, note);
        out.push('"');
    }
    out.push_str("]}");
}

/// Renders one report as a single JSON object. The shape is stable:
/// `spec`, `summary` (sizes, ECL flag, translation stats or `null`, the
/// per-method conflict-check bounds), `diagnostics` (code, severity,
/// message, 1-based line/column or `null`, byte span, notes), and
/// `exit_code`.
pub(crate) fn json(report: &LintReport, source: &str) -> String {
    let mut out = String::new();
    out.push('{');
    push_str_field(&mut out, "spec", &report.summary.spec_name);
    let s = &report.summary;
    let _ = write!(
        out,
        ",\"summary\":{{\"methods\":{},\"rules\":{},\"is_ecl\":{},",
        s.methods, s.rules, s.is_ecl
    );
    push_opt_usize(&mut out, "raw_classes", s.raw_classes);
    out.push(',');
    push_opt_usize(&mut out, "classes", s.classes);
    out.push(',');
    push_opt_usize(&mut out, "max_conflict_degree", s.max_conflict_degree);
    out.push_str(",\"conflict_checks\":[");
    for (i, c) in s.conflict_checks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        push_str_field(&mut out, "method", &c.method);
        let _ = write!(out, ",\"max_conflict_checks\":{}", c.max_conflict_checks);
        out.push('}');
    }
    out.push_str("]},\"diagnostics\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        diagnostic_json(d, source, &mut out);
    }
    let _ = write!(out, "],\"exit_code\":{}}}", report.exit_code());
    out
}

#[cfg(test)]
mod tests {
    use crate::lint;
    use crace_spec::builtin;

    #[test]
    fn pretty_renders_carets_and_summary() {
        let src = "spec s { method m(a) -> r; commute m(x1) -> r1, m(x2) -> r2 when x1 == r1; }";
        let report = lint(src).unwrap();
        let text = report.render_pretty(src);
        assert!(text.contains("error[L003]"), "{text}");
        assert!(text.contains("^"), "{text}");
        assert!(text.contains("1 error(s), 0 warning(s)"), "{text}");
    }

    #[test]
    fn pretty_clean_report() {
        let src = builtin::source("counter").unwrap();
        let report = lint(src).unwrap();
        let text = report.render_pretty(src);
        assert!(text.contains("clean: no findings"), "{text}");
        assert!(text.contains("conflict checks per invocation"), "{text}");
    }

    #[test]
    fn json_is_well_formed_for_clean_and_dirty_reports() {
        let dirty = "spec s { method m(a); commute m(x1), m(x2) when !(x1 != x2); }";
        for src in [builtin::source("dictionary").unwrap(), dirty] {
            let report = lint(src).unwrap();
            let json = report.to_json(src);
            crace_obs::json::validate(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
            assert!(json.contains("\"exit_code\""));
        }
    }

    #[test]
    fn json_escapes_quoted_names() {
        let src = "spec s { method m(a); commute m(x1), m(x2) when !(x1 != x2); }";
        let report = lint(src).unwrap();
        let json = report.to_json(src);
        // Messages quote source constructs with backticks, never raw quotes,
        // but the escaper must keep the output parseable regardless.
        assert!(json.contains("\"code\":\"L001\""), "{json}");
    }
}
