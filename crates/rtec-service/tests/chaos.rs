//! Seeded chaos sweep: [`FaultPlan::random`] derives a schedule of
//! worker panics, queue rejections, and checkpoint I/O faults from a
//! single `u64` seed; the same scripted workload is then driven through
//! a `Registry` built with that plan. Whatever the plan does, the service
//! must either converge to the fault-free output (clients retry
//! rejected frames once) or quarantine the session with structured
//! errors — it must never panic and never return a malformed reply.
//!
//! The CI `chaos` job sweeps fixed seeds via `RTEC_CHAOS_SEED`, plus
//! one random seed whose value is logged so failures reproduce.

use rtec_service::{FaultPlan, Registry};
use serde_json::Value;
use std::path::PathBuf;

const DESC: &str = "initiatedAt(on(X)=true, T) :- happensAt(up(X), T).
                    terminatedAt(on(X)=true, T) :- happensAt(down(X), T).";

const TICK_EVERY: i64 = 50;
const TICKS: i64 = 6;

/// One tick's worth of events: alternating `up`/`down` over three
/// entities, deterministic in `t`.
fn events_for_tick(k: i64) -> Vec<(i64, String)> {
    (k * TICK_EVERY..(k + 1) * TICK_EVERY)
        .map(|t| {
            let entity = ["a", "b", "c"][(t % 3) as usize];
            let ev = if t % 10 < 5 { "up" } else { "down" };
            (t, format!("{ev}({entity})"))
        })
        .collect()
}

/// What a workload run observed: the sorted query rows after each
/// completed tick, which ticks were checkpointed to disk, and any
/// structured errors the client saw (after one retry each).
#[derive(Debug, Default)]
struct Outcome {
    tick_rows: Vec<Vec<(String, String)>>,
    checkpointed: Vec<bool>,
    errors: Vec<String>,
    quarantined: bool,
}

fn parse_reply(raw: &str) -> Value {
    let v: Value =
        serde_json::from_str(raw).unwrap_or_else(|e| panic!("malformed reply {raw:?}: {e}"));
    assert!(v.get("ok").is_some(), "reply without ok: {raw:?}");
    if v["ok"] == false {
        assert!(
            v["code"].as_str().is_some_and(|c| !c.is_empty()),
            "error reply without code: {raw:?}"
        );
    }
    v
}

/// Dispatches `line`, retrying once on a structured error (the client
/// model for transient faults: one retry, then give up).
fn dispatch_retry(registry: &Registry, line: &str, outcome: &mut Outcome) -> Option<Value> {
    for attempt in 0..2 {
        let v = parse_reply(&registry.dispatch(line));
        if v["ok"] == true {
            return Some(v);
        }
        if v["code"] == "quarantined" || v["error"].as_str().unwrap_or("").contains("quarantined") {
            outcome.quarantined = true;
            outcome.errors.push(format!("{:?}", v["error"]));
            return None;
        }
        if attempt == 1 {
            outcome.errors.push(format!("{:?}", v["error"]));
        }
    }
    None
}

fn query_rows(registry: &Registry, session: &str) -> Option<Vec<(String, String)>> {
    let v = parse_reply(
        &registry.dispatch(&format!("{{\"cmd\":\"query\",\"session\":\"{session}\"}}")),
    );
    if v["ok"] != true {
        return None;
    }
    let mut rows: Vec<(String, String)> = v["rows"]
        .as_array()?
        .iter()
        .map(|r| {
            (
                r["fvp"].as_str().unwrap_or_default().to_string(),
                r["intervals"].as_str().unwrap_or_default().to_string(),
            )
        })
        .collect();
    rows.sort();
    Some(rows)
}

/// Drives the scripted workload through `registry`: per tick, feed the
/// events (retried once on rejection), tick, and query.
fn run_workload(registry: &Registry, session: &str) -> Outcome {
    let mut outcome = Outcome::default();
    let open = format!(
        "{{\"cmd\":\"open\",\"session\":\"{session}\",\"description\":{},\"shards\":2,\"window\":{TICK_EVERY}}}",
        serde_json::to_string(&Value::from(DESC)).unwrap()
    );
    if dispatch_retry(registry, &open, &mut outcome).is_none() {
        return outcome;
    }
    for k in 0..TICKS {
        for (t, ev) in events_for_tick(k) {
            let line = format!(
                "{{\"cmd\":\"event\",\"session\":\"{session}\",\"t\":{t},\"event\":\"{ev}\"}}"
            );
            dispatch_retry(registry, &line, &mut outcome);
            if outcome.quarantined {
                return outcome;
            }
        }
        let tick = format!(
            "{{\"cmd\":\"tick\",\"session\":\"{session}\",\"to\":{}}}",
            (k + 1) * TICK_EVERY
        );
        match dispatch_retry(registry, &tick, &mut outcome) {
            Some(v) => outcome
                .checkpointed
                .push(v["checkpointed"].as_bool().unwrap_or(false)),
            None => return outcome,
        }
        match query_rows(registry, session) {
            Some(rows) => outcome.tick_rows.push(rows),
            None => return outcome,
        }
    }
    outcome
}

fn chaos_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("rtec-chaos-{}-{seed}", std::process::id()))
}

fn run_seed(seed: u64, reference: &Outcome) {
    let dir = chaos_dir(seed);
    let _ = std::fs::remove_dir_all(&dir);
    let plan = FaultPlan::random(seed, 2, 150);
    eprintln!("chaos seed {seed}: plan {plan:?}");

    let registry = Registry::with_options(Some(dir.clone()), None).with_faults(plan);
    let outcome = run_workload(&registry, "chaos");
    let injected = registry.faults().injected();
    eprintln!(
        "chaos seed {seed}: injected {injected} fault(s), {} error(s), quarantined={}",
        outcome.errors.len(),
        outcome.quarantined
    );

    if outcome.quarantined {
        // Quarantine must be reported in stats and be terminal.
        let v = parse_reply(&registry.dispatch("{\"cmd\":\"stats\",\"session\":\"chaos\"}"));
        assert_ne!(v["quarantined"], Value::Null, "seed {seed}: {v:?}");
    } else {
        // Convergence: with every rejected frame retried once, the
        // faulted run's per-tick outputs are byte-identical to the
        // fault-free reference.
        assert!(
            outcome.errors.is_empty(),
            "seed {seed}: unrecovered errors: {:?}",
            outcome.errors
        );
        assert_eq!(
            outcome.tick_rows, reference.tick_rows,
            "seed {seed}: outputs diverged from the fault-free run"
        );
        // Crash-equivalent restore: a fresh registry restoring the last
        // on-disk checkpoint sees exactly the output the original
        // session had at that tick boundary.
        if let Some(last) = outcome
            .checkpointed
            .iter()
            .rposition(|&checkpointed| checkpointed)
        {
            let restored = Registry::with_options(Some(dir.clone()), None);
            let v = parse_reply(&restored.dispatch("{\"cmd\":\"restore\",\"session\":\"chaos\"}"));
            assert_eq!(v["ok"], true, "seed {seed}: restore failed: {v:?}");
            let rows = query_rows(&restored, "chaos").expect("restored session answers queries");
            assert_eq!(
                rows, outcome.tick_rows[last],
                "seed {seed}: restored output differs from checkpointed tick {last}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_chaos_sweep_converges_or_quarantines() {
    // The fault-free reference (a registry without a plan — its hooks
    // are inert).
    let reference = run_workload(&Registry::new(), "reference");
    assert_eq!(reference.tick_rows.len() as i64, TICKS);
    assert!(reference.errors.is_empty(), "{:?}", reference.errors);
    assert!(!reference.tick_rows.last().unwrap().is_empty());

    // One seed from the environment (the CI matrix), or a fixed local
    // sweep when unset.
    let seeds: Vec<u64> = match std::env::var("RTEC_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("RTEC_CHAOS_SEED must be a u64")],
        Err(_) => (1..=8).collect(),
    };
    for seed in seeds {
        run_seed(seed, &reference);
    }
}
