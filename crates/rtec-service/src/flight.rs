//! Slow-tick flight recorder: a fixed-size ring of recent per-tick
//! traces, promoted to structured JSON dumps when something goes wrong.
//!
//! Every profiled tick records a [`TickTrace`] — the per-rule cost
//! delta attributed to that tick, queue depths, reorder-buffer state
//! and shed counts — into a bounded ring. The ring costs a few KB per
//! session and is pure telemetry: it never feeds back into
//! recognition, is not checkpointed, and dies with the session.
//!
//! Two conditions promote traces to retained JSON dumps:
//!
//! * a tick slower than [`crate::session::SessionConfig::slow_tick_ms`]
//!   promotes *that tick's* trace (what was the session doing when it
//!   was slow?);
//! * a shard-worker restart dumps the *whole ring* (what led up to the
//!   crash?).
//!
//! Dumps are JSON documents, logged through [`rtec_obs`] at warn level
//! and retained (bounded) on the session for the `profile` wire
//! command and post-mortem tests.

use rtec_obs::profile::ProfileEntry;
use serde_json::Value;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Traces retained in the ring.
pub const RING_CAPACITY: usize = 32;

/// Promoted dumps retained per session (oldest evicted first).
pub const DUMP_CAPACITY: usize = 8;

/// Everything the recorder knows about one completed tick.
#[derive(Clone, Debug, Default)]
pub struct TickTrace {
    /// 1-based tick ordinal within the session.
    pub tick: u64,
    /// The tick's horizon (`to`).
    pub to: rtec::Timepoint,
    /// Wall-clock time of the tick, microseconds.
    pub elapsed_us: u64,
    /// Per-rule cost delta attributed to this tick (merged across
    /// shards), sorted by self-time descending.
    pub rules: Vec<ProfileEntry>,
    /// Per-shard queue depths sampled right after the tick.
    pub queue_depths: Vec<usize>,
    /// Events held in the reorder buffer after the tick.
    pub reorder_buffered: usize,
    /// Reorder watermark lag after the tick (absent without a buffer).
    pub watermark_lag: Option<rtec::Timepoint>,
    /// Ingest operations shed since the previous tick.
    pub shed: u64,
    /// Whether the tick overran its deadline.
    pub degraded: bool,
}

impl TickTrace {
    fn to_value(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("tick".to_string(), u64_value(self.tick));
        map.insert("to".to_string(), Value::from(self.to));
        map.insert("elapsed_us".to_string(), u64_value(self.elapsed_us));
        map.insert(
            "rules".to_string(),
            Value::Array(
                self.rules
                    .iter()
                    .map(|e| {
                        let mut rule = BTreeMap::new();
                        rule.insert("rule".to_string(), Value::from(e.name.as_str()));
                        rule.insert("kind".to_string(), Value::from(e.kind.as_str()));
                        rule.insert("calls".to_string(), u64_value(e.cost.calls));
                        rule.insert("self_us".to_string(), u64_value(e.cost.self_us()));
                        rule.insert("interval_ops".to_string(), u64_value(e.cost.interval_ops));
                        Value::Object(rule.into_iter().collect())
                    })
                    .collect(),
            ),
        );
        map.insert(
            "queue_depths".to_string(),
            Value::Array(
                self.queue_depths
                    .iter()
                    .map(|&d| u64_value(d as u64))
                    .collect(),
            ),
        );
        map.insert(
            "reorder_buffered".to_string(),
            u64_value(self.reorder_buffered as u64),
        );
        map.insert(
            "watermark_lag".to_string(),
            match self.watermark_lag {
                Some(lag) => Value::from(lag),
                None => Value::Null,
            },
        );
        map.insert("shed".to_string(), u64_value(self.shed));
        map.insert("degraded".to_string(), Value::Bool(self.degraded));
        Value::Object(map.into_iter().collect())
    }
}

/// The bounded trace ring plus its promoted dumps.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    ring: VecDeque<TickTrace>,
    dumps: Vec<String>,
    dumps_evicted: u64,
}

impl FlightRecorder {
    /// An empty recorder.
    pub fn new() -> FlightRecorder {
        FlightRecorder::default()
    }

    /// Records one tick's trace, evicting the oldest past capacity.
    pub fn record(&mut self, trace: TickTrace) {
        if self.ring.len() == RING_CAPACITY {
            self.ring.pop_front();
        }
        self.ring.push_back(trace);
    }

    /// Traces currently held (oldest first).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no traces.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Promotes the most recent trace (the offending slow tick) to a
    /// retained JSON dump and returns it.
    pub fn dump_last(&mut self, session: &str, reason: &str) -> Option<String> {
        let trace = self.ring.back()?.to_value();
        Some(self.retain_dump(session, reason, Value::Array(vec![trace])))
    }

    /// Promotes the whole ring (the lead-up to a crash) to a retained
    /// JSON dump and returns it. Dumps an empty ring too — "nothing was
    /// recorded" is itself evidence.
    pub fn dump_ring(&mut self, session: &str, reason: &str) -> String {
        let traces = Value::Array(self.ring.iter().map(TickTrace::to_value).collect());
        self.retain_dump(session, reason, traces)
    }

    fn retain_dump(&mut self, session: &str, reason: &str, traces: Value) -> String {
        let mut doc = BTreeMap::new();
        doc.insert("session".to_string(), Value::from(session));
        doc.insert("reason".to_string(), Value::from(reason));
        doc.insert("traces".to_string(), traces);
        let dump = serde_json::to_string(&Value::Object(doc.into_iter().collect()))
            .unwrap_or_else(|_| "{}".into());
        if self.dumps.len() == DUMP_CAPACITY {
            self.dumps.remove(0);
            self.dumps_evicted += 1;
        }
        self.dumps.push(dump.clone());
        dump
    }

    /// Retained dumps, oldest first.
    pub fn dumps(&self) -> &[String] {
        &self.dumps
    }

    /// Dumps evicted from the bounded retention list.
    pub fn dumps_evicted(&self) -> u64 {
        self.dumps_evicted
    }
}

fn u64_value(n: u64) -> Value {
    Value::from(i64::try_from(n).unwrap_or(i64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtec_obs::profile::{RuleCost, RuleKind};

    fn trace(tick: u64, elapsed_us: u64) -> TickTrace {
        TickTrace {
            tick,
            to: tick as rtec::Timepoint * 10,
            elapsed_us,
            rules: vec![ProfileEntry {
                name: "f/1".to_string(),
                kind: RuleKind::Simple,
                cost: RuleCost {
                    calls: 1,
                    self_ns: elapsed_us * 1_000,
                    interval_ops: 2,
                },
            }],
            queue_depths: vec![0, 3],
            reorder_buffered: 1,
            watermark_lag: Some(5),
            shed: 0,
            degraded: false,
        }
    }

    #[test]
    fn ring_is_bounded_and_fifo() {
        let mut fr = FlightRecorder::new();
        for i in 0..(RING_CAPACITY as u64 + 5) {
            fr.record(trace(i + 1, 100));
        }
        assert_eq!(fr.len(), RING_CAPACITY);
        let dump = fr.dump_ring("s", "test");
        let v: Value = serde_json::from_str(&dump).unwrap();
        let traces = v["traces"].as_array().unwrap();
        assert_eq!(traces.len(), RING_CAPACITY);
        // Oldest retained trace is #6 (the first five were evicted).
        assert_eq!(traces[0]["tick"], 6);
        assert_eq!(traces.last().unwrap()["tick"], RING_CAPACITY as u64 + 5);
    }

    #[test]
    fn dump_last_promotes_the_offending_tick() {
        let mut fr = FlightRecorder::new();
        assert!(fr.dump_last("s", "slow_tick").is_none(), "empty ring");
        fr.record(trace(1, 50));
        fr.record(trace(2, 9_000));
        let dump = fr.dump_last("s", "slow_tick").unwrap();
        let v: Value = serde_json::from_str(&dump).unwrap();
        assert_eq!(v["reason"], "slow_tick");
        assert_eq!(v["session"], "s");
        let traces = v["traces"].as_array().unwrap();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0]["tick"], 2);
        assert_eq!(traces[0]["elapsed_us"], 9_000);
        assert_eq!(traces[0]["rules"][0]["rule"], "f/1");
        assert_eq!(traces[0]["rules"][0]["kind"], "simple");
        assert_eq!(traces[0]["queue_depths"][1], 3);
        assert_eq!(fr.dumps().len(), 1);
    }

    #[test]
    fn dump_retention_is_bounded() {
        let mut fr = FlightRecorder::new();
        fr.record(trace(1, 10));
        for _ in 0..(DUMP_CAPACITY + 3) {
            fr.dump_ring("s", "respawn");
        }
        assert_eq!(fr.dumps().len(), DUMP_CAPACITY);
        assert_eq!(fr.dumps_evicted(), 3);
    }
}
