//! Tests of the benchmark's own parts: seeded frame generation, the
//! disorder/tick-lag rule, the percentile helpers and the row scoring.

use perfbench::grid::{f1, parse_intervals};
use perfbench::stats::{named_percentile, percentile_metric, weighted_percentile_metric};
use perfbench::system::Link;
use perfbench::workload::{
    grid_input, send_order, stream_session, synth_input, synth_input_sized, SessionPlan, DURABLE,
    FULL, SLACK,
};
use rtec::interval::INF;
use rtec_service::{FsyncPolicy, Registry};

fn lines(plan: &SessionPlan) -> Vec<&str> {
    plan.frames.iter().map(|f| f.line.as_str()).collect()
}

#[test]
fn same_seed_gives_identical_frames_and_seeds_differ() {
    for shape in [DURABLE, FULL] {
        let a = stream_session(&synth_input(7), shape, 7, "s");
        let b = stream_session(&synth_input(7), shape, 7, "s");
        let c = stream_session(&synth_input(8), shape, 8, "s");
        assert_eq!(lines(&a), lines(&b));
        assert_ne!(lines(&a), lines(&c));
    }
    let a = grid_input(7);
    let b = grid_input(7);
    let c = grid_input(8);
    assert_eq!(a.sessions.len(), 16);
    for i in 0..a.sessions.len() {
        assert_eq!(lines(&a.sessions[i]), lines(&b.sessions[i]));
        assert_ne!(lines(&a.sessions[i]), lines(&c.sessions[i]));
    }
}

#[test]
fn displacement_stays_within_the_slack() {
    let input = synth_input(3);
    let order = send_order(&input.events, SLACK, 3);
    let mut newest_sent = i64::MIN;
    let mut displaced = 0usize;
    for &(key, i) in &order {
        let t = input.events[i].0;
        assert!(key >= t && key - t <= SLACK, "key {key} for t {t}");
        assert!(
            newest_sent <= t + SLACK,
            "t {t} arrives after {newest_sent}"
        );
        newest_sent = newest_sent.max(t);
        displaced += usize::from(key != t);
    }
    let share = displaced as f64 / order.len() as f64;
    assert!((0.07..0.13).contains(&share), "displaced share {share}");
}

#[test]
fn the_tick_lag_rule_refuses_nothing() {
    let input = synth_input_sized(5, 4, 200);
    let plan = stream_session(&input, DURABLE, 5, "lag");
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("tick_lag");
    let _ = std::fs::remove_dir_all(&dir);
    let mut registry = Registry::with_options(Some(dir.join("cp")), None)
        .with_journal(Some(dir.join("journal")), FsyncPolicy::Never);
    let mut stats = String::new();
    for frame in &plan.frames {
        let reply = registry.roundtrip(&frame.line);
        assert!(reply.contains("\"ok\":true"), "{} -> {reply}", frame.line);
        assert!(!reply.contains("\"refused\""), "{} -> {reply}", frame.line);
        if frame.line.contains("\"cmd\":\"stats\"") {
            stats = reply;
        }
    }
    let stats: serde_json::Value = serde_json::from_str(&stats).expect("stats reply");
    let deadletters = stats
        .get("deadletter")
        .and_then(|d| d.as_object())
        .expect("ledger");
    assert!(
        deadletters.values().all(|n| n.as_i64() == Some(0)),
        "{deadletters:?}"
    );
    assert_eq!(
        stats.get("events_ingested").and_then(|v| v.as_i64()),
        Some(input.events.len() as i64)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn percentile_helpers_pick_the_rank_their_name_states() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json beside the benchmark");
    let manifest: serde_json::Value =
        serde_json::from_str(&manifest).expect("BENCHMARK.json parses");
    let mut names: Vec<String> = manifest
        .get("end_to_end")
        .and_then(|m| m.as_array())
        .expect("end_to_end metrics")
        .iter()
        .filter_map(|m| m.get("name")?.as_str().map(str::to_string))
        .collect();
    // The run record carries these percentiles besides the gated metrics.
    names.extend(
        [
            "restore_p50_ms",
            "batch_p50_us",
            "batch_p99_us",
            "tick_p90_ms",
            "recognition_p50_ms",
            "recognition_p99_ms",
        ]
        .map(String::from),
    );
    // 1..=1000 in scrambled order: the p-th percentile is rank 10p.
    let samples: Vec<f64> = (0..1000u64)
        .map(|i| ((i * 617) % 1000 + 1) as f64)
        .collect();
    let weighted: Vec<(f64, u64)> = samples.iter().map(|&x| (x, 1)).collect();
    // The same 1..=1000 as 100 values of weight 10: rank 10p is value p.
    let grouped: Vec<(f64, u64)> = (1..=100u64).rev().map(|v| (v as f64, 10)).collect();
    let mut checked = 0;
    for name in &names {
        if let Some(p) = named_percentile(name) {
            assert_eq!(percentile_metric(name, &samples), Some(p * 10.0), "{name}");
            assert_eq!(
                weighted_percentile_metric(name, &weighted),
                Some(p * 10.0),
                "{name}"
            );
            assert_eq!(
                weighted_percentile_metric(name, &grouped),
                Some(p),
                "{name}"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 7, "{names:?}");
    assert_eq!(named_percentile("setup_s"), None);
    assert_eq!(named_percentile("peak_rss_mb"), None);
    assert_eq!(percentile_metric("tick_p90_ms", &[]), None);
    assert_eq!(percentile_metric("tick_p90_ms", &[5.0]), Some(5.0));
}

#[test]
fn rows_score_like_the_paper() {
    let a = parse_intervals("[[1, 5), [9, inf)]");
    assert_eq!(a.to_string(), "[[1, 5), [9, inf)]");
    assert!(a.contains(INF - 1));
    let gold = vec![parse_intervals("[[0, 10)]")];
    assert_eq!(f1(&gold, &gold, 100), vec![1.0]);
    // tp 5, fp 5, fn 5: 2*5 / (10 + 10).
    assert_eq!(f1(&[parse_intervals("[[5, 15)]")], &gold, 100), vec![0.5]);
    assert_eq!(
        f1(&[parse_intervals("[]")], &[parse_intervals("[]")], 100),
        vec![0.0]
    );
}
