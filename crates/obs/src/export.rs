//! Exposition formats: Prometheus text and a JSON snapshot.
//!
//! Both exporters walk [`Registry::snapshot`], which is deterministically
//! ordered, so output is stable for golden tests. The JSON renderer is
//! hand-rolled (this crate takes no dependencies); it emits a restricted
//! but valid subset — objects, arrays, strings, numbers — that
//! `serde_json`-style parsers read back without loss.

use crate::registry::{MetricSnapshot, Registry, SnapshotValue};
use std::fmt::Write as _;

/// Render the registry in the Prometheus text exposition format (v0.0.4):
/// `# HELP` / `# TYPE` headers per family, one sample line per metric,
/// histograms as cumulative `_bucket{le=...}` series plus `_sum`/`_count`.
/// Only non-empty buckets are emitted (plus the mandatory `+Inf`).
pub fn prometheus_text(registry: &Registry) -> String {
    let mut out = String::new();
    let mut last_family = String::new();
    for m in registry.snapshot() {
        if m.name != last_family {
            let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
            let _ = writeln!(out, "# TYPE {} {}", m.name, m.kind.name());
            last_family = m.name.clone();
        }
        match &m.value {
            SnapshotValue::Counter(v) => {
                let _ = writeln!(out, "{}{} {}", m.name, label_set(&m.labels, None), v);
            }
            SnapshotValue::Gauge(v) => {
                let _ = writeln!(out, "{}{} {}", m.name, label_set(&m.labels, None), fmt_f64(*v));
            }
            SnapshotValue::Histogram(h) => {
                for b in &h.buckets {
                    let le = if b.le.is_finite() { fmt_f64(b.le) } else { "+Inf".to_string() };
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        m.name,
                        label_set(&m.labels, Some(("le", &le))),
                        b.cumulative
                    );
                }
                if h.buckets.last().map(|b| b.le.is_finite()).unwrap_or(true) {
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        m.name,
                        label_set(&m.labels, Some(("le", "+Inf"))),
                        h.count
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    m.name,
                    label_set(&m.labels, None),
                    fmt_f64(h.sum)
                );
                let _ = writeln!(out, "{}_count{} {}", m.name, label_set(&m.labels, None), h.count);
            }
        }
    }
    out
}

/// Render the registry (metrics and buffered events) as a JSON document.
///
/// Shape:
/// ```json
/// {"metrics": [{"name": "...", "kind": "counter", "labels": {...},
///               "value": 1}, ...,
///              {"name": "...", "kind": "histogram", "labels": {...},
///               "count": 3, "sum": 0.5, "max": 0.3,
///               "p50": 0.1, "p95": 0.3, "p99": 0.3}],
///  "events": [{"level": "info", "target": "...", "message": "...",
///              "fields": {...}}]}
/// ```
pub fn json_snapshot(registry: &Registry) -> String {
    let mut out = String::from("{\"metrics\":[");
    for (i, m) in registry.snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&metric_json(m));
    }
    out.push_str("],\"events\":");
    write_events_array(&mut out, registry);
    out.push('}');
    out
}

/// Render only the buffered structured events as `{"events":[...]}` — the
/// body of the introspection server's `/events` endpoint.
pub(crate) fn events_json(registry: &Registry) -> String {
    let mut out = String::from("{\"events\":");
    write_events_array(&mut out, registry);
    out.push('}');
    out
}

fn write_events_array(out: &mut String, registry: &Registry) {
    out.push('[');
    for (i, e) in registry.events().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"level\":{},\"target\":{},\"message\":{},\"fields\":{{",
            json_str(e.level.name()),
            json_str(&e.target),
            json_str(&e.message)
        );
        for (j, (k, v)) in e.fields.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_str(k), json_str(v));
        }
        out.push_str("}}");
    }
    out.push(']');
}

fn metric_json(m: &MetricSnapshot) -> String {
    let mut s =
        format!("{{\"name\":{},\"kind\":\"{}\",\"labels\":{{", json_str(&m.name), m.kind.name());
    for (i, (k, v)) in m.labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}:{}", json_str(k), json_str(v));
    }
    s.push('}');
    match &m.value {
        SnapshotValue::Counter(v) => {
            let _ = write!(s, ",\"value\":{v}");
        }
        SnapshotValue::Gauge(v) => {
            let _ = write!(s, ",\"value\":{}", json_f64(*v));
        }
        SnapshotValue::Histogram(h) => {
            let _ = write!(
                s,
                ",\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}",
                h.count,
                json_f64(h.sum),
                json_f64(h.max),
                json_f64(h.p50),
                json_f64(h.p95),
                json_f64(h.p99)
            );
        }
    }
    s.push('}');
    s
}

/// `{a="1",b="2"}` label rendering, with an optional extra pair appended
/// (used for histogram `le`); empty label sets render as nothing.
fn label_set(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut s = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            s.push(',');
        }
        let _ = write!(s, "{k}=\"{}\"", escape_label(v));
        first = false;
    }
    if let Some((k, v)) = extra {
        if !first {
            s.push(',');
        }
        let _ = write!(s, "{k}=\"{}\"", escape_label(v));
    }
    s.push('}');
    s
}

/// Prometheus label-value escaping: backslash, quote, newline.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Float formatting shared by the text format: integral values render
/// without an exponent or trailing `.0`, everything else as shortest `f64`.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v.trunc() as i64)
    } else {
        format!("{v}")
    }
}

/// JSON number rendering; non-finite values become null.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        fmt_f64(v)
    } else {
        "null".to_string()
    }
}

/// Minimal JSON string escaping (shared with the trace exporter).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_rendering() {
        assert_eq!(label_set(&[], None), "");
        let labels = vec![("stage".to_string(), "build".to_string())];
        assert_eq!(label_set(&labels, None), "{stage=\"build\"}");
        assert_eq!(label_set(&labels, Some(("le", "1.4"))), "{stage=\"build\",le=\"1.4\"}");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn each_family_is_headed_by_its_own_help() {
        let r = Registry::new();
        r.counter(&crate::names::LOUVAIN_SWEEPS_TOTAL, []).inc();
        let text = prometheus_text(&r);
        assert!(
            text.contains(
                "# HELP commgraph_louvain_sweeps_total \
                 Local-move sweeps executed by Louvain clustering."
            ),
            "table help: {text}"
        );
        r.counter(&crate::names::Family::new("off_table_total", "Its help.", []), []).inc();
        assert!(prometheus_text(&r).contains("# HELP off_table_total Its help."));
    }
}
