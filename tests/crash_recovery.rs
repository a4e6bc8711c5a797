//! Crash-equivalence: a [`FaultPlan`] kills a shard worker mid-stream;
//! the session supervisor respawns the worker from its last in-memory
//! checkpoint, replays the un-checkpointed items, and the final output
//! is byte-identical to an uninterrupted batch engine run.
//!
//! Every test opens its session with its own [`Faults`] handle, so the
//! seeded schedules stay deterministic while the tests run in parallel:
//! a plan fires only for the session it was handed to.

use maritime::{BrestScenario, Dataset};
use rtec::{Engine, EngineConfig};
use rtec_service::{FaultPlan, Faults, Session, SessionConfig};

/// The gold description in concrete syntax (rules + this dataset's
/// background knowledge), as a client would send it over the wire.
fn gold_source(dataset: &Dataset) -> String {
    format!("{}\n{}", maritime::gold::GOLD_RULES, dataset.background)
}

/// Reference: one batch engine over the full stream, no faults.
fn batch_rows(dataset: &Dataset, horizon: i64) -> Vec<(String, String)> {
    let compiled = dataset.gold_description().compile().unwrap();
    let mut engine = Engine::new(&compiled, EngineConfig::default());
    dataset.stream.load_into(&mut engine);
    engine.run_to(horizon);
    let symbols = engine.symbols().clone();
    let out = engine.into_output();
    let mut rows: Vec<(String, String)> = out
        .iter()
        .map(|(fvp, list)| (fvp.display(&symbols), list.to_string()))
        .collect();
    rows.sort();
    rows
}

/// Runs the full dataset through a session under `faults`, ticking at
/// `ticks` (the last entry must be the horizon), and returns the sorted
/// output rows.
fn session_rows(
    dataset: &Dataset,
    config: SessionConfig,
    ticks: &[i64],
    faults: &Faults,
) -> (Vec<(String, String)>, Session) {
    let gold = gold_source(dataset);
    let mut session = Session::open_with_faults("crash", &gold, config, faults.clone()).unwrap();
    let symbols = &dataset.stream.symbols;
    for (fvp, list) in dataset.stream.intervals() {
        let pairs: Vec<(i64, i64)> = list.iter().map(|iv| (iv.start, iv.end)).collect();
        session
            .ingest_intervals(
                &fvp.fluent.display(symbols).to_string(),
                &fvp.value.display(symbols).to_string(),
                &pairs,
            )
            .unwrap();
    }
    let mut events: Vec<_> = dataset.stream.events().to_vec();
    events.sort_by_key(|&(_, t)| t);
    let mut fed = 0;
    for &to in ticks {
        while fed < events.len() && events[fed].1 < to {
            let (ev, t) = &events[fed];
            session
                .ingest_event(&ev.display(symbols).to_string(), *t)
                .unwrap();
            fed += 1;
        }
        session.tick(to).unwrap();
    }
    let (out, out_symbols) = session.query().unwrap();
    let mut rows: Vec<(String, String)> = out
        .iter()
        .map(|(fvp, list)| (fvp.display(&out_symbols), list.to_string()))
        .collect();
    rows.sort();
    (rows, session)
}

#[test]
fn worker_panic_before_any_checkpoint_recovers_byte_identically() {
    let dataset = Dataset::generate(&BrestScenario::small());
    let horizon = dataset.horizon() + 1;
    let reference = batch_rows(&dataset, horizon);
    assert!(!reference.is_empty());

    // One tick only: the panic fires before any checkpoint exists, so
    // the supervisor restarts the shard fresh and replays everything.
    let faults = Faults::new(FaultPlan::new().panic_worker(0, 10));
    let (rows, session) = session_rows(&dataset, SessionConfig::default(), &[horizon], &faults);
    assert_eq!(faults.injected(), 1, "the scheduled panic must fire");
    assert_eq!(rows, reference, "recovered output differs from batch");
    assert_eq!(session.stats().worker_restarts, 1);
    assert!(session.quarantined().is_none());
    session.close().unwrap();
}

#[test]
fn worker_panic_mid_stream_restores_from_checkpoint() {
    let dataset = Dataset::generate(&BrestScenario::small());
    let horizon = dataset.horizon() + 1;
    let reference = batch_rows(&dataset, horizon);

    // Multiple window-sized ticks so checkpoints exist, then a late
    // panic: the respawned worker resumes from the last checkpoint and
    // replays only the items sent since it.
    let ticks: Vec<i64> = (1..=4).map(|i| i * horizon / 4).chain([horizon]).collect();
    for shards in [1, 2] {
        for step in [40u64, 200] {
            let faults = Faults::new(FaultPlan::new().panic_worker(0, step));
            let config = SessionConfig {
                window: Some(horizon / 4 + 1),
                shards,
                ..SessionConfig::default()
            };
            let (rows, session) = session_rows(&dataset, config, &ticks, &faults);
            assert_eq!(faults.injected(), 1, "shards={shards} step={step}");
            assert_eq!(
                rows, reference,
                "shards={shards} step={step}: output differs from batch"
            );
            assert!(
                session.stats().worker_restarts >= 1,
                "shards={shards} step={step}"
            );
            assert!(session.quarantined().is_none());
            session.close().unwrap();
        }
    }
}

#[test]
fn repeated_panics_on_both_shards_still_converge() {
    let dataset = Dataset::generate(&BrestScenario::small());
    let horizon = dataset.horizon() + 1;
    let reference = batch_rows(&dataset, horizon);

    let faults = Faults::new(
        FaultPlan::new()
            .panic_worker(0, 25)
            .panic_worker(1, 60)
            .panic_worker(0, 120),
    );
    let config = SessionConfig {
        window: Some(horizon / 3 + 1),
        shards: 2,
        max_worker_restarts: 4,
        ..SessionConfig::default()
    };
    let ticks: Vec<i64> = (1..=3).map(|i| i * horizon / 3).chain([horizon]).collect();
    let (rows, session) = session_rows(&dataset, config, &ticks, &faults);
    assert_eq!(faults.injected(), 3, "all three panics must fire");
    assert_eq!(rows, reference, "output differs from batch");
    assert!(session.stats().worker_restarts >= 3);
    assert!(session.quarantined().is_none());
    session.close().unwrap();
}

#[test]
fn exhausted_restart_budget_quarantines_the_session() {
    let dataset = Dataset::generate(&BrestScenario::small());
    let horizon = dataset.horizon() + 1;
    let gold = gold_source(&dataset);

    let faults = Faults::new(FaultPlan::new().panic_worker(0, 1).panic_worker(0, 2));
    let config = SessionConfig {
        max_worker_restarts: 1,
        ..SessionConfig::default()
    };
    let mut session = Session::open_with_faults("doomed", &gold, config, faults).unwrap();
    let symbols = &dataset.stream.symbols;
    let mut events: Vec<_> = dataset.stream.events().to_vec();
    events.sort_by_key(|&(_, t)| t);
    let mut failed = None;
    for (ev, t) in &events {
        if let Err(e) = session.ingest_event(&ev.display(symbols).to_string(), *t) {
            failed = Some(e);
            break;
        }
    }
    let err = match failed {
        Some(e) => e,
        None => session.tick(horizon).unwrap_err(),
    };
    assert!(
        err.contains("quarantined") || err.contains("shard worker"),
        "unexpected error: {err}"
    );
    // The budget is charged per respawn attempt; keep driving the dead
    // shard until the budget runs out and the session is quarantined
    // for good.
    for i in 0..4 {
        if session.quarantined().is_some() {
            break;
        }
        let _ = session.tick(horizon + i);
    }
    // Once quarantined, every entry point reports it and nothing
    // panics; close() still returns the stats.
    assert!(session.quarantined().is_some());
    let err = session.ingest_event("ping(x)", horizon + 10).unwrap_err();
    assert!(err.contains("quarantined"), "unexpected error: {err}");
    assert!(session.tick(horizon + 11).is_err());
    assert!(session.query().is_err());
    let stats = session.close().unwrap();
    assert!(stats.worker_restarts >= 1);
}
