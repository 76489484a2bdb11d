//! Schema check for the repository's `BENCHMARK.json`.

use crace_obs::json::{self, Json};
use std::collections::BTreeSet;

/// Validates a `BENCHMARK.json` document: RFC 8259 syntax; exactly the
/// keys `command`, `paths`, `run_seconds`, `workloads`, `end_to_end`
/// and `per_layer`; 2–8 workloads with a one-line reason each; 1–16
/// end-to-end metrics with a unit, a direction and a regression bound in
/// (0, 0.25], one of them `setup_s`; 1–128 per-layer metrics with a unit
/// and a direction; names matching `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}` and
/// used once. Returns the first problem found.
pub fn validate_benchmark(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    let keys: Vec<&str> = doc
        .as_object()
        .ok_or("the document must be an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let want = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    if keys.len() != want.len() || want.iter().any(|k| !keys.contains(k)) {
        return Err(format!("keys must be exactly {want:?}, found {keys:?}"));
    }

    let command = strings(&doc, "command", 1, 32)?;
    for arg in &command {
        if arg.len() > 200 || arg.starts_with('/') || arg.split('/').any(|p| p == "..") {
            return Err(format!(
                "`command` argument `{arg}` is not a short relative word"
            ));
        }
    }
    for path in strings(&doc, "paths", 1, 16)? {
        let ok = !path.is_empty()
            && path.len() <= 200
            && !path.starts_with('/')
            && !path.split('/').any(|p| p == "..")
            && path
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c));
        if !ok {
            return Err(format!(
                "`paths` entry `{path}` is not a plain relative path"
            ));
        }
    }
    let secs = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("`run_seconds` must be a number")?;
    if secs.fract() != 0.0 || !(1.0..=60.0).contains(&secs) {
        return Err(format!(
            "`run_seconds` must be a whole number in 1..=60, got {secs}"
        ));
    }

    let mut names = BTreeSet::new();
    let workloads = entries(&doc, "workloads", 2, 8, &["name", "why"])?;
    for w in workloads {
        let name = name(w, &mut names)?;
        let why = w.get("why").and_then(Json::as_str).unwrap_or_default();
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            return Err(format!(
                "workload `{name}`: `why` must be one line of 1–200 characters"
            ));
        }
    }
    let mut setup = false;
    for m in entries(
        &doc,
        "end_to_end",
        1,
        16,
        &["name", "unit", "better", "bound"],
    )? {
        let (name, unit, better) = metric(m, &mut names)?;
        let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(f64::NAN);
        if !(bound > 0.0 && bound <= 0.25) {
            return Err(format!("metric `{name}`: `bound` must be in (0, 0.25]"));
        }
        setup |= name == "setup_s" && unit == "s" && better == "lower";
    }
    if !setup {
        return Err("`end_to_end` must declare `setup_s` in `s`, lower is better".to_string());
    }
    for m in entries(&doc, "per_layer", 1, 128, &["name", "unit", "better"])? {
        metric(m, &mut names)?;
    }
    Ok(())
}

fn strings<'a>(doc: &'a Json, key: &str, min: usize, max: usize) -> Result<Vec<&'a str>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("`{key}` must be an array"))?;
    if !(min..=max).contains(&items.len()) {
        return Err(format!("`{key}` must hold {min}–{max} entries"));
    }
    items
        .iter()
        .map(|v| {
            v.as_str()
                .ok_or_else(|| format!("`{key}` must hold strings"))
        })
        .collect()
}

fn entries<'a>(
    doc: &'a Json,
    key: &str,
    min: usize,
    max: usize,
    fields: &[&str],
) -> Result<&'a [Json], String> {
    let items = doc
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("`{key}` must be an array"))?;
    if !(min..=max).contains(&items.len()) {
        return Err(format!(
            "`{key}` must hold {min}–{max} entries, found {}",
            items.len()
        ));
    }
    for (i, item) in items.iter().enumerate() {
        let keys: Vec<&str> = item
            .as_object()
            .ok_or_else(|| format!("`{key}[{i}]` must be an object"))?
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        if keys.len() != fields.len() || fields.iter().any(|f| !keys.contains(f)) {
            return Err(format!(
                "`{key}[{i}]` must have exactly the keys {fields:?}"
            ));
        }
    }
    Ok(items)
}

fn name<'a>(item: &'a Json, seen: &mut BTreeSet<String>) -> Result<&'a str, String> {
    let name = item.get("name").and_then(Json::as_str).unwrap_or_default();
    let ok = name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
    if !ok {
        return Err(format!("`{name}` is not a valid name"));
    }
    if !seen.insert(name.to_string()) {
        return Err(format!("`{name}` is used twice"));
    }
    Ok(name)
}

fn metric<'a>(
    item: &'a Json,
    seen: &mut BTreeSet<String>,
) -> Result<(&'a str, &'a str, &'a str), String> {
    let name = name(item, seen)?;
    let unit = item.get("unit").and_then(Json::as_str).unwrap_or_default();
    let unit_ok = !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
    if !unit_ok {
        return Err(format!("metric `{name}`: bad unit `{unit}`"));
    }
    let better = item
        .get("better")
        .and_then(Json::as_str)
        .unwrap_or_default();
    if better != "lower" && better != "higher" {
        return Err(format!(
            "metric `{name}`: `better` must be \"lower\" or \"higher\""
        ));
    }
    Ok((name, unit, better))
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = r#"{"command": ["cargo", "run"], "paths": ["bench"], "run_seconds": 10,
        "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
        "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "l.x", "unit": "ns", "better": "lower"}]}"#;

    #[test]
    fn accepts_a_well_formed_document() {
        validate_benchmark(OK).expect("well-formed");
    }

    #[test]
    fn rejects_malformed_documents() {
        let cases: &[(String, &str)] = &[
            ("[]".to_string(), "must be an object"),
            (
                OK.replace(r#""run_seconds": 10,"#, ""),
                "keys must be exactly",
            ),
            (
                OK.replace(r#""run_seconds": 10"#, r#""run_seconds": 61"#),
                "1..=60",
            ),
            (
                OK.replace(r#"["bench"]"#, r#"["../x"]"#),
                "plain relative path",
            ),
            (
                OK.replace(r#"["cargo", "run"]"#, r#"["/bin/sh"]"#),
                "short relative word",
            ),
            (
                OK.replace(r#", {"name": "b", "why": "y"}"#, ""),
                "2–8 entries",
            ),
            (OK.replace(r#""name": "b""#, r#""name": "a""#), "used twice"),
            (
                OK.replace(r#""name": "b""#, r#""name": "-b""#),
                "not a valid name",
            ),
            (OK.replace(r#""why": "y""#, r#""why": """#), "one line"),
            (OK.replace("0.25", "0.3"), "(0, 0.25]"),
            (
                OK.replace(r#""name": "setup_s""#, r#""name": "boot_s""#),
                "`setup_s`",
            ),
            (
                OK.replace(r#""unit": "ns""#, r#""unit": "n s""#),
                "bad unit",
            ),
            (
                OK.replace(r#""better": "lower"}]}"#, r#""better": "up"}]}"#),
                "`better`",
            ),
            (
                OK.replace(r#""unit": "ns", "better""#, r#""better""#),
                "exactly the keys",
            ),
        ];
        for (doc, want) in cases {
            let err = validate_benchmark(doc).expect_err(doc);
            assert!(err.contains(want), "`{err}` should mention {want}");
        }
    }
}
