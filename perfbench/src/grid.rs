//! Scoring the description grid from the service's `query` replies:
//! per-activity f1 against the gold description's reply, with the
//! time-point counting of `adgen_core::evaluation::accuracy`.

use maritime::gold::activities;
use rtec::interval::INF;
use rtec::{IntervalList, Timepoint};
use serde_json::Value;

/// The `(fvp, intervals)` rows and the warnings of a `query` reply.
pub fn query_rows(reply: &str) -> (Vec<(String, String)>, Vec<String>) {
    let v: Value = serde_json::from_str(reply).expect("query reply is JSON");
    let text = |x: &Value, k: &str| x.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    let rows = v
        .get("rows")
        .and_then(Value::as_array)
        .map(|rows| {
            rows.iter()
                .map(|r| (text(r, "fvp"), text(r, "intervals")))
                .collect()
        })
        .unwrap_or_default();
    let warnings = v
        .get("warnings")
        .and_then(Value::as_array)
        .map(|ws| {
            ws.iter()
                .filter_map(Value::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    (rows, warnings)
}

/// Parses a rendered interval list (`[[1, 5), [9, inf)]`).
pub fn parse_intervals(text: &str) -> IntervalList {
    let bounds: Vec<Timepoint> = text
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|tok| !tok.is_empty())
        .map(|tok| match tok {
            "inf" => INF,
            n => n.parse().expect("interval bounds are integers"),
        })
        .collect();
    let pairs: Vec<(Timepoint, Timepoint)> = bounds.chunks(2).map(|c| (c[0], c[1])).collect();
    IntervalList::from_pairs(&pairs)
}

/// The fluent functor name of a rendered FVP (`trawling(v1)=true`).
fn functor_name(fvp: &str) -> &str {
    let end = fvp.find(['(', '=']).unwrap_or(fvp.len());
    fvp[..end].trim()
}

/// Per activity (Figure 2 order), the union of the intervals of every
/// recognised instance whose functor is named like the activity.
pub fn activity_unions(rows: &[(String, String)]) -> Vec<IntervalList> {
    activities()
        .iter()
        .map(|a| {
            let lists: Vec<IntervalList> = rows
                .iter()
                .filter(|(fvp, _)| functor_name(fvp) == a.name)
                .map(|(_, iv)| parse_intervals(iv))
                .collect();
            IntervalList::union_all(&lists.iter().collect::<Vec<_>>())
        })
        .collect()
}

/// Per-activity f1 of `generated` against `gold` up to `horizon`.
pub fn f1(generated: &[IntervalList], gold: &[IntervalList], horizon: Timepoint) -> Vec<f64> {
    generated
        .iter()
        .zip(gold)
        .map(|(g, r)| {
            let tp = g.intersect(r).duration_up_to(horizon) as f64;
            let fp = g.difference(r).duration_up_to(horizon) as f64;
            let fneg = r.difference(g).duration_up_to(horizon) as f64;
            if 2.0 * tp + fp + fneg > 0.0 {
                2.0 * tp / (2.0 * tp + fp + fneg)
            } else {
                0.0
            }
        })
        .collect()
}
