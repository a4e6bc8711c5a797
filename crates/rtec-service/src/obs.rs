//! Service telemetry: process-global metric handles and exposition
//! helpers.
//!
//! Monotonic service counters (events in, ticks, backpressure stalls)
//! live in the [`rtec_obs::global`] registry and are recorded through
//! `Arc` handles resolved once. Per-session *state* (queue depth,
//! high-water marks, buffered items, open-session count) is sampled at
//! scrape time by [`crate::Registry::render_metrics`] instead, so a
//! closed session leaves no stale series behind.
//!
//! Series (all prefixed `rtec_service_`):
//!
//! | name | kind | labels |
//! |------|------|--------|
//! | `rtec_service_sessions_opened_total` | counter | — |
//! | `rtec_service_sessions_closed_total` | counter | — |
//! | `rtec_service_events_ingested_total` | counter | — |
//! | `rtec_service_intervals_ingested_total` | counter | — |
//! | `rtec_service_backpressure_waits_total` | counter | — |
//! | `rtec_service_ticks_total` | counter | — |
//! | `rtec_service_tick_duration_us` | histogram | — |
//! | `rtec_recognition_latency_us` | histogram | `stage=admission\|release` |
//! | `rtec_service_query_rows_total` | counter | — |
//! | `rtec_service_faults_injected_total` | counter | — |
//! | `rtec_service_worker_restarts_total` | counter | — |
//! | `rtec_service_frames_rejected_total` | counter | — |
//! | `rtec_service_deadletter_total` | counter | `reason=late\|duplicate\|past_horizon\|malformed\|shed` |
//! | `rtec_service_shed_total` | counter | — |
//! | `rtec_service_journal_appends_total` | counter | — |
//! | `rtec_service_journal_bytes_total` | counter | — |
//! | `rtec_service_journal_rotations_total` | counter | — |
//! | `rtec_service_journal_truncations_total` | counter | — |
//! | `rtec_service_journal_replayed_total` | counter | — |
//! | `rtec_service_restores_total` | counter | — |
//! | `rtec_service_sessions_open` | gauge (sampled) | — |
//! | `rtec_service_queue_depth` | gauge (sampled) | `session`, `shard` |
//! | `rtec_service_queue_high_water` | gauge (sampled) | `session`, `shard` |
//! | `rtec_service_buffered` | gauge (sampled) | `session` |
//! | `rtec_service_watermark_lag` | gauge (sampled) | `session` |
//! | `rtec_service_reorder_buffered` | gauge (sampled) | `session` |
//! | `rtec_profile_rule_self_us` | gauge (sampled) | `session`, `rule`, `kind` |
//! | `rtec_profile_rule_calls` | gauge (sampled) | `session`, `rule`, `kind` |
//! | `rtec_profile_rule_interval_ops` | gauge (sampled) | `session`, `rule`, `kind` |
//!
//! The three `rtec_profile_rule_*` families are **bounded**: top-N rules
//! by self-time per session plus one `rule="other"` rollup (see
//! [`rtec_obs::profile::bounded_samples`]), so scrape cardinality stays
//! capped however many rules a description defines.

use rtec::reorder::DeadLetterReason;
use rtec_obs::{Counter, Histogram};
use serde_json::Value;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

/// Handles to every monotonic service metric series.
pub struct ServiceMetrics {
    /// Sessions opened over the process lifetime.
    pub sessions_opened: Arc<Counter>,
    /// Sessions closed (including shutdown drains).
    pub sessions_closed: Arc<Counter>,
    /// Events accepted by `event`/`batch` commands.
    pub events_ingested: Arc<Counter>,
    /// Input-interval declarations accepted.
    pub intervals_ingested: Arc<Counter>,
    /// Items whose hand-off to a shard blocked on a full queue.
    pub backpressure_waits: Arc<Counter>,
    /// Ticks served across all sessions.
    pub ticks: Arc<Counter>,
    /// Tick wall-clock latency (microseconds).
    pub tick_duration: Arc<Histogram>,
    /// End-to-end recognition latency from service admission to the
    /// tick that evaluated the event's timepoint.
    pub recognition_latency_admission: Arc<Histogram>,
    /// End-to-end recognition latency from reorder-buffer release (or
    /// direct routing) to the evaluating tick.
    pub recognition_latency_release: Arc<Histogram>,
    /// Recognition rows returned by `query` commands.
    pub query_rows: Arc<Counter>,
    /// Faults injected by registries and sessions run under a fault
    /// plan (0 without one).
    pub faults_injected: Arc<Counter>,
    /// Crashed shard workers respawned from checkpoint.
    pub worker_restarts: Arc<Counter>,
    /// Request frames answered with an error frame (malformed JSON,
    /// bad fields, oversized or non-UTF-8 lines, unknown commands…).
    pub frames_rejected: Arc<Counter>,
    /// Records refused as `late` dead letters.
    pub deadletter_late: Arc<Counter>,
    /// Records refused as `duplicate` dead letters.
    pub deadletter_duplicate: Arc<Counter>,
    /// Records refused as `past_horizon` dead letters.
    pub deadletter_past_horizon: Arc<Counter>,
    /// Records refused as `malformed` dead letters.
    pub deadletter_malformed: Arc<Counter>,
    /// Records refused as `shed` dead letters.
    pub deadletter_shed: Arc<Counter>,
    /// Ingest operations refused by admission control (also counted in
    /// `rtec_service_deadletter_total{reason="shed"}`).
    pub shed: Arc<Counter>,
    /// Write-ahead journal commits (one per acked event or batch).
    pub journal_appends: Arc<Counter>,
    /// Bytes appended to write-ahead journals.
    pub journal_bytes: Arc<Counter>,
    /// Journal segment rotations at checkpoint boundaries.
    pub journal_rotations: Arc<Counter>,
    /// Torn or corrupt journal tails truncated during recovery.
    pub journal_truncations: Arc<Counter>,
    /// Journal records replayed through the ingest path by restores.
    pub journal_replayed: Arc<Counter>,
    /// Sessions restored from checkpoint (+ journal tail) by the
    /// `restore` command.
    pub restores: Arc<Counter>,
}

impl ServiceMetrics {
    fn new() -> ServiceMetrics {
        let r = rtec_obs::global();
        ServiceMetrics {
            sessions_opened: r.counter(
                "rtec_service_sessions_opened_total",
                "Recognition sessions opened.",
                &[],
            ),
            sessions_closed: r.counter(
                "rtec_service_sessions_closed_total",
                "Recognition sessions closed.",
                &[],
            ),
            events_ingested: r.counter(
                "rtec_service_events_ingested_total",
                "Events accepted by event/batch commands.",
                &[],
            ),
            intervals_ingested: r.counter(
                "rtec_service_intervals_ingested_total",
                "Input-interval declarations accepted.",
                &[],
            ),
            backpressure_waits: r.counter(
                "rtec_service_backpressure_waits_total",
                "Items whose hand-off to a shard blocked on a full queue.",
                &[],
            ),
            ticks: r.counter("rtec_service_ticks_total", "Ticks served.", &[]),
            tick_duration: r.histogram(
                "rtec_service_tick_duration_us",
                "Tick wall-clock latency (microseconds).",
                &[],
            ),
            recognition_latency_admission: r.histogram(
                "rtec_recognition_latency_us",
                "Recognition latency from event arrival to the evaluating tick \
                 (microseconds), by pipeline stage.",
                &[("stage", "admission")],
            ),
            recognition_latency_release: r.histogram(
                "rtec_recognition_latency_us",
                "Recognition latency from event arrival to the evaluating tick \
                 (microseconds), by pipeline stage.",
                &[("stage", "release")],
            ),
            query_rows: r.counter(
                "rtec_service_query_rows_total",
                "Recognition rows returned by query commands.",
                &[],
            ),
            faults_injected: r.counter(
                "rtec_service_faults_injected_total",
                "Faults injected by fault plans (0 unless a registry or session runs under one).",
                &[],
            ),
            worker_restarts: r.counter(
                "rtec_service_worker_restarts_total",
                "Crashed shard workers respawned from checkpoint.",
                &[],
            ),
            frames_rejected: r.counter(
                "rtec_service_frames_rejected_total",
                "Request frames answered with an error frame.",
                &[],
            ),
            deadletter_late: r.counter(
                "rtec_service_deadletter_total",
                "Records refused to the dead-letter ledger, by reason.",
                &[("reason", "late")],
            ),
            deadletter_duplicate: r.counter(
                "rtec_service_deadletter_total",
                "Records refused to the dead-letter ledger, by reason.",
                &[("reason", "duplicate")],
            ),
            deadletter_past_horizon: r.counter(
                "rtec_service_deadletter_total",
                "Records refused to the dead-letter ledger, by reason.",
                &[("reason", "past_horizon")],
            ),
            deadletter_malformed: r.counter(
                "rtec_service_deadletter_total",
                "Records refused to the dead-letter ledger, by reason.",
                &[("reason", "malformed")],
            ),
            deadletter_shed: r.counter(
                "rtec_service_deadletter_total",
                "Records refused to the dead-letter ledger, by reason.",
                &[("reason", "shed")],
            ),
            shed: r.counter(
                "rtec_service_shed_total",
                "Ingest operations refused by admission control.",
                &[],
            ),
            journal_appends: r.counter(
                "rtec_service_journal_appends_total",
                "Write-ahead journal commits.",
                &[],
            ),
            journal_bytes: r.counter(
                "rtec_service_journal_bytes_total",
                "Bytes appended to write-ahead journals.",
                &[],
            ),
            journal_rotations: r.counter(
                "rtec_service_journal_rotations_total",
                "Journal segment rotations at checkpoint boundaries.",
                &[],
            ),
            journal_truncations: r.counter(
                "rtec_service_journal_truncations_total",
                "Torn or corrupt journal tails truncated during recovery.",
                &[],
            ),
            journal_replayed: r.counter(
                "rtec_service_journal_replayed_total",
                "Journal records replayed through the ingest path by restores.",
                &[],
            ),
            restores: r.counter(
                "rtec_service_restores_total",
                "Sessions restored from checkpoint and journal tail.",
                &[],
            ),
        }
    }

    /// The `rtec_service_deadletter_total` handle for one reason.
    pub fn deadletter(&self, reason: DeadLetterReason) -> &Arc<Counter> {
        match reason {
            DeadLetterReason::Late => &self.deadletter_late,
            DeadLetterReason::Duplicate => &self.deadletter_duplicate,
            DeadLetterReason::PastHorizon => &self.deadletter_past_horizon,
            DeadLetterReason::Malformed => &self.deadletter_malformed,
            DeadLetterReason::Shed => &self.deadletter_shed,
        }
    }
}

/// The process-global service metric handles (created on first use).
pub fn metrics() -> &'static ServiceMetrics {
    static METRICS: OnceLock<ServiceMetrics> = OnceLock::new();
    METRICS.get_or_init(ServiceMetrics::new)
}

/// Renders a histogram into the legacy `stats`-frame JSON shape:
/// `{count, mean_us, max_us, buckets: [[label, n], ...]}` with empty
/// buckets omitted (the shape `LatencyHistogram::to_value` produced
/// before the histogram moved to `rtec-obs`).
pub fn histogram_value(h: &Histogram) -> Value {
    let snapshot = h.snapshot();
    let buckets: Vec<Value> = snapshot
        .nonzero_buckets("us")
        .into_iter()
        .map(|(label, n)| {
            Value::Array(vec![
                Value::from(label),
                Value::from(i64::try_from(n).unwrap_or(i64::MAX)),
            ])
        })
        .collect();
    let mut map = std::collections::BTreeMap::new();
    map.insert(
        "count".to_string(),
        Value::from(i64::try_from(snapshot.count()).unwrap_or(i64::MAX)),
    );
    map.insert(
        "mean_us".to_string(),
        Value::from(i64::try_from(snapshot.mean()).unwrap_or(i64::MAX)),
    );
    map.insert(
        "max_us".to_string(),
        Value::from(i64::try_from(snapshot.max).unwrap_or(i64::MAX)),
    );
    map.insert("buckets".to_string(), Value::Array(buckets));
    Value::Object(map)
}

/// Appends one scrape-time gauge family to `out`: a `# HELP`/`# TYPE`
/// header plus one sample per `(rendered_labels, value)` pair.
pub(crate) fn render_gauge_family(
    out: &mut String,
    name: &str,
    help: &str,
    samples: &[(String, i64)],
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    for (labels, value) in samples {
        if labels.is_empty() {
            let _ = writeln!(out, "{name} {value}");
        } else {
            let _ = writeln!(out, "{name}{{{labels}}} {value}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_value_keeps_the_legacy_shape() {
        let h = Histogram::new();
        for us in [0u64, 1, 3, 2000] {
            h.observe(us);
        }
        let v = histogram_value(&h);
        assert_eq!(v["count"], 4i64);
        assert_eq!(v["max_us"], 2000i64);
        assert!(v["mean_us"].as_i64().unwrap() >= 500);
        let buckets = v["buckets"].as_array().unwrap();
        assert_eq!(buckets[0][0], "<1us");
        assert_eq!(buckets[0][1], 1i64);
        assert!(buckets.iter().any(|b| b[0] == "<2048us"));
    }

    #[test]
    fn gauge_families_render_valid_exposition() {
        let mut out = String::new();
        render_gauge_family(
            &mut out,
            "rtec_service_sessions_open",
            "Open sessions.",
            &[(String::new(), 2)],
        );
        render_gauge_family(
            &mut out,
            "rtec_service_queue_depth",
            "Queued items.",
            &[
                ("session=\"s\",shard=\"0\"".to_string(), 5),
                ("session=\"s\",shard=\"1\"".to_string(), 0),
            ],
        );
        rtec_obs::expo::validate(&out).expect("valid exposition");
        assert!(out.contains("rtec_service_queue_depth{session=\"s\",shard=\"0\"} 5"));
    }
}
