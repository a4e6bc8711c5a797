//! Fault plans are scoped to the registry that owns them. Three
//! registries run the same workload at the same time on three threads:
//! one with a tick stall, one with an ingest rejection, one with no
//! plan. Each must count exactly its own injections, and the unplanned
//! registry must answer exactly what a fault-free run answers.

use rtec_service::{FaultPlan, Registry};
use serde_json::Value;
use std::sync::Barrier;

const DESC: &str = "initiatedAt(on(X)=true, T) :- happensAt(up(X), T).
                    terminatedAt(on(X)=true, T) :- happensAt(down(X), T).";

const TICK_EVERY: i64 = 30;
const TICKS: i64 = 4;

fn parse_reply(raw: &str) -> Value {
    serde_json::from_str(raw).unwrap_or_else(|e| panic!("malformed reply {raw:?}: {e}"))
}

/// Dispatches `line`, retrying once on an error reply (the client model
/// for transient faults); panics if the retry fails too.
fn dispatch_retry(registry: &Registry, line: &str) -> Value {
    let v = parse_reply(&registry.dispatch(line));
    if v["ok"] == true {
        return v;
    }
    let v = parse_reply(&registry.dispatch(line));
    assert_eq!(v["ok"], true, "{line} failed twice: {v:?}");
    v
}

/// Streams the workload into `registry` once `start` releases it;
/// returns the query rows after every tick.
fn run_workload(registry: &Registry, start: &Barrier) -> Vec<Value> {
    let open = format!(
        "{{\"cmd\":\"open\",\"session\":\"s\",\"description\":{},\"shards\":2,\"window\":{TICK_EVERY}}}",
        serde_json::to_string(&Value::from(DESC)).unwrap()
    );
    dispatch_retry(registry, &open);
    start.wait();
    let mut rows = Vec::new();
    for k in 0..TICKS {
        for t in k * TICK_EVERY..(k + 1) * TICK_EVERY {
            let entity = ["a", "b", "c"][(t % 3) as usize];
            let ev = if t % 10 < 5 { "up" } else { "down" };
            dispatch_retry(
                registry,
                &format!("{{\"cmd\":\"event\",\"session\":\"s\",\"t\":{t},\"event\":\"{ev}({entity})\"}}"),
            );
        }
        let to = (k + 1) * TICK_EVERY;
        dispatch_retry(
            registry,
            &format!("{{\"cmd\":\"tick\",\"session\":\"s\",\"to\":{to}}}"),
        );
        let v = dispatch_retry(registry, r#"{"cmd":"query","session":"s"}"#);
        rows.push(v["rows"].clone());
    }
    rows
}

#[test]
fn concurrent_registries_fire_only_their_own_plans() {
    let reference = run_workload(&Registry::new(), &Barrier::new(1));
    assert!(reference
        .last()
        .unwrap()
        .as_array()
        .is_some_and(|r| !r.is_empty()));

    let registries = [
        Registry::new().with_faults(FaultPlan::new().delay_tick(2, 30)),
        Registry::new().with_faults(FaultPlan::new().reject_ingest(3)),
        Registry::new(),
    ];
    let start = Barrier::new(registries.len());
    let rows: Vec<Vec<Value>> = std::thread::scope(|scope| {
        let runs: Vec<_> = registries
            .iter()
            .map(|registry| scope.spawn(|| run_workload(registry, &start)))
            .collect();
        runs.into_iter().map(|run| run.join().unwrap()).collect()
    });

    let injected: Vec<u64> = registries.iter().map(|r| r.faults().injected()).collect();
    assert_eq!(injected, [1, 1, 0], "each registry counts its own faults");
    assert_eq!(rows[2], reference, "the unplanned registry saw a fault");
}
