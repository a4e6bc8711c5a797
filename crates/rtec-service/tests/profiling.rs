//! Profiler integration: the per-rule profiler must be a pure
//! observer. Toggling it on or off must leave every recognition
//! artefact byte-identical — query rows, warnings, tick replies, and
//! on-disk checkpoint state — on the compiled plan every session runs.
//! On top of that the
//! `profile` wire command must report attributed rule costs, the
//! Prometheus exposition must stay valid and bounded in cardinality,
//! and a seeded slow tick must promote a flight-recorder dump.

use rtec_service::Registry;
use serde_json::Value;
use std::path::{Path, PathBuf};

const DESC: &str = "initiatedAt(on(X)=true, T) :- happensAt(up(X), T).
                    terminatedAt(on(X)=true, T) :- happensAt(down(X), T).
                    holdsFor(busy(X)=true, I) :- holdsFor(on(X)=true, I).";

const TICK_EVERY: i64 = 40;
const TICKS: i64 = 4;

fn parse_reply(raw: &str) -> Value {
    let v: Value =
        serde_json::from_str(raw).unwrap_or_else(|e| panic!("malformed reply {raw:?}: {e}"));
    assert_eq!(v["ok"], true, "error reply: {raw:?}");
    v
}

fn open_line(session: &str, extra: &str) -> String {
    format!(
        "{{\"cmd\":\"open\",\"session\":\"{session}\",\"description\":{},\"shards\":2,\"window\":{TICK_EVERY}{extra}}}",
        serde_json::to_string(&Value::from(DESC)).unwrap()
    )
}

/// Streams the deterministic workload; returns every tick reply and
/// every post-tick query reply, verbatim.
fn run_workload(registry: &Registry, session: &str, extra: &str) -> (Vec<String>, Vec<String>) {
    parse_reply(&registry.dispatch(&open_line(session, extra)));
    let mut ticks = Vec::new();
    let mut queries = Vec::new();
    for k in 0..TICKS {
        for t in k * TICK_EVERY..(k + 1) * TICK_EVERY {
            let entity = ["a", "b", "c"][(t % 3) as usize];
            let ev = if t % 10 < 5 { "up" } else { "down" };
            let line = format!(
                "{{\"cmd\":\"event\",\"session\":\"{session}\",\"t\":{t},\"event\":\"{ev}({entity})\"}}"
            );
            parse_reply(&registry.dispatch(&line));
        }
        let tick = format!(
            "{{\"cmd\":\"tick\",\"session\":\"{session}\",\"to\":{}}}",
            (k + 1) * TICK_EVERY
        );
        ticks.push(registry.dispatch(&tick));
        queries
            .push(registry.dispatch(&format!("{{\"cmd\":\"query\",\"session\":\"{session}\"}}")));
    }
    (ticks, queries)
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rtec-prof-{tag}-{}", std::process::id()))
}

/// A checkpoint with the profiler *configuration* masked out: the
/// recorded `profile`/`slow_tick_ms` knobs are the one legitimate
/// difference between a profiled and an unprofiled run, so strip them
/// before demanding byte-identity of everything else.
fn normalized_checkpoint(dir: &Path, session: &str) -> String {
    let path = rtec_service::persist::checkpoint_path(dir, session);
    let raw =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read checkpoint {path:?}: {e}"));
    let mut v: Value = serde_json::from_str(&raw).expect("checkpoint is JSON");
    let Value::Object(doc) = &mut v else {
        panic!("checkpoint is not an object");
    };
    // The crc covers the state payload, so it tracks the config flags;
    // drop it along with them.
    doc.remove("crc");
    let Some(Value::Object(state)) = doc.get_mut("state") else {
        panic!("checkpoint has no state object");
    };
    let Some(Value::Object(config)) = state.get_mut("config") else {
        panic!("checkpoint has no config object");
    };
    config.remove("profile");
    config.remove("slow_tick_ms");
    // Queue high-water marks depend on thread scheduling, not on what
    // was recognised — they differ between any two runs.
    if let Some(Value::Object(stats)) = state.get_mut("stats") {
        stats.remove("queue_high_water");
    }
    serde_json::to_string(&v).unwrap()
}

#[test]
fn profiler_toggle_is_output_invariant() {
    let mut runs = Vec::new();
    for profile in [true, false] {
        let dir = temp_dir(&format!("toggle-{profile}"));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = Registry::with_options(Some(dir.clone()), None);
        let extra = format!(",\"profile\":{profile}");
        let (ticks, queries) = run_workload(&registry, "inv", &extra);
        let checkpoint = normalized_checkpoint(&dir, "inv");
        let _ = std::fs::remove_dir_all(&dir);
        runs.push((ticks, queries, checkpoint));
    }
    let (on, off) = (&runs[0], &runs[1]);
    assert_eq!(on.0, off.0, "tick replies diverged");
    assert_eq!(on.1, off.1, "query rows/warnings diverged");
    assert_eq!(on.2, off.2, "checkpoint state diverged");
}

#[test]
fn profile_command_reports_attributed_rule_costs() {
    // A client that still sends the removed `eval` option is served
    // like any other: the field is ignored and the plan runs.
    for extra in ["", ",\"eval\":\"interpreter\""] {
        let registry = Registry::new();
        run_workload(&registry, "prof", extra);
        let v = parse_reply(&registry.dispatch("{\"cmd\":\"profile\",\"session\":\"prof\"}"));
        assert_eq!(v["evaluator"], "plan", "{v:?}");
        assert_eq!(v["enabled"], true, "{v:?}");
        assert!(v["windows"].as_i64().unwrap() >= 1, "{v:?}");
        let rules = v["rules"].as_array().expect("rules array");
        assert!(!rules.is_empty(), "no rule costs attributed: {v:?}");
        let names: Vec<&str> = rules.iter().map(|r| r["rule"].as_str().unwrap()).collect();
        assert!(names.contains(&"on/1"), "missing on/1 in {names:?}");
        for rule in rules {
            assert!(rule["calls"].as_i64().unwrap() >= 1, "{rule:?}");
            assert!(rule["self_us"].as_i64().is_some(), "{rule:?}");
            assert!(rule["interval_ops"].as_i64().is_some(), "{rule:?}");
            assert!(
                matches!(rule["kind"].as_str(), Some("simple") | Some("static")),
                "{rule:?}"
            );
        }
        assert!(v["total_self_us"].as_i64().is_some(), "{v:?}");
        // `top` truncates the list without touching the totals.
        let top =
            parse_reply(&registry.dispatch("{\"cmd\":\"profile\",\"session\":\"prof\",\"top\":1}"));
        assert_eq!(top["rules"].as_array().unwrap().len(), 1, "{top:?}");
        assert_eq!(top["total_self_us"], v["total_self_us"]);
    }
}

#[test]
fn profile_disabled_session_reports_enabled_false() {
    let registry = Registry::new();
    run_workload(&registry, "off", ",\"profile\":false");
    let v = parse_reply(&registry.dispatch("{\"cmd\":\"profile\",\"session\":\"off\"}"));
    assert_eq!(v["enabled"], false, "{v:?}");
    assert!(v.get("rules").is_none(), "{v:?}");
    // stats still names the evaluator even when profiling is off.
    let stats = parse_reply(&registry.dispatch("{\"cmd\":\"stats\",\"session\":\"off\"}"));
    assert_eq!(stats["evaluator"], "plan", "{stats:?}");
    assert_eq!(stats["evaluator"], v["evaluator"], "{stats:?} vs {v:?}");
}

#[test]
fn profile_metrics_are_valid_and_bounded() {
    let registry = Registry::new();
    run_workload(&registry, "metrics", "");
    let text = registry.render_metrics();
    rtec_obs::expo::validate(&text).expect("valid exposition with profile families");
    for family in [
        "rtec_profile_rule_self_us",
        "rtec_profile_rule_calls",
        "rtec_profile_rule_interval_ops",
    ] {
        let series = text
            .lines()
            .filter(|l| l.starts_with(&format!("{family}{{")))
            .count();
        assert!(series >= 1, "missing family {family}");
        // Bounded cardinality: at most top-N rules plus the "other"
        // rollup, for the single profiled session.
        assert!(
            series <= rtec_obs::profile::DEFAULT_TOP_N + 1,
            "{family}: {series} series exceeds top-N bound"
        );
        // Label keys render sorted (kind, rule, session).
        assert!(
            text.lines().any(|l| {
                l.starts_with(&format!("{family}{{")) && l.contains("session=\"metrics\"")
            }),
            "{family} missing session label"
        );
    }
    // Recognition-latency histograms observed something.
    assert!(
        text.contains("rtec_recognition_latency_us_count{stage=\"admission\"}"),
        "missing admission latency series"
    );
    assert!(
        text.contains("rtec_recognition_latency_us_count{stage=\"release\"}"),
        "missing release latency series"
    );
    // One tick-duration series, no longer split by evaluator.
    assert!(
        text.lines()
            .any(|l| l.starts_with("rtec_service_tick_duration_us_count ")),
        "missing tick duration"
    );
    assert!(
        !text.contains("rtec_service_tick_duration_us_count{"),
        "{text}"
    );
}

/// The count of one `rtec_engine_fluent_eval_us` series in `text`.
fn fluent_eval_count(text: &str, kind: &str) -> u64 {
    let prefix = format!("rtec_engine_fluent_eval_us_count{{kind=\"{kind}\"}} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .map_or(0, |n| n.trim().parse().expect("a count"))
}

/// Plan-evaluated sessions time every stratum into the engine's
/// per-fluent histograms, simple and static alike.
#[test]
fn plan_sessions_feed_fluent_eval_metrics() {
    let registry = Registry::new();
    let before = registry.render_metrics();
    run_workload(&registry, "fluent-eval", ",\"profile\":false");
    let after = registry.render_metrics();
    for kind in ["simple", "static"] {
        assert!(
            fluent_eval_count(&after, kind) > fluent_eval_count(&before, kind),
            "no {kind} fluent evaluations observed"
        );
    }
}

/// A seeded tick stall crossing `slow_tick_ms` must promote the
/// offending tick's trace into a retained flight-recorder dump.
#[test]
fn seeded_slow_tick_promotes_a_flight_dump() {
    use rtec_service::FaultPlan;

    let registry = Registry::new().with_faults(FaultPlan::new().delay_tick(2, 30));
    run_workload(&registry, "slow", ",\"slow_tick_ms\":20");
    let injected = registry.faults().injected();
    assert_eq!(injected, 1, "the tick delay must fire exactly once");
    let v = parse_reply(
        &registry.dispatch("{\"cmd\":\"profile\",\"session\":\"slow\",\"dumps\":true}"),
    );
    let dumps = v["flight_dumps"].as_array().expect("flight_dumps array");
    assert!(!dumps.is_empty(), "no flight dump after seeded slow tick");
    let dump = &dumps[0];
    assert_eq!(dump["session"], "slow", "{dump:?}");
    assert_eq!(dump["reason"], "slow_tick", "{dump:?}");
    let traces = dump["traces"].as_array().expect("traces array");
    assert_eq!(traces.len(), 1, "slow-tick dump carries the one tick");
    let trace = &traces[0];
    assert_eq!(trace["tick"], 2, "{trace:?}");
    assert!(
        trace["elapsed_us"].as_i64().unwrap() >= 20_000,
        "stall not visible in trace: {trace:?}"
    );
    assert!(
        trace["rules"].as_array().is_some_and(|r| !r.is_empty()),
        "dump lost per-rule attribution: {trace:?}"
    );
}
