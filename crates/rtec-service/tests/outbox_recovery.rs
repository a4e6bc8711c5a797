//! Crash recovery with batched hand-off: a shard's inputs wait in its
//! outbox (the unsent tail of its replay log) and reach the worker in
//! batches. A worker that panics inside a batch is respawned from its
//! checkpoint with only the batches it had received; what was still in
//! any outbox goes out afterwards. No item may be lost or applied
//! twice.

use rtec::{Engine, EngineConfig};
use rtec_service::{FaultPlan, Faults, Session, SessionConfig};

const DESC: &str = "initiatedAt(on(X)=true, T) :- happensAt(up(X), T).
                    terminatedAt(on(X)=true, T) :- happensAt(down(X), T).";

/// `n` alternating `up`/`down` events of `entity` from `t0` on.
fn toggles(entity: &str, t0: i64, n: i64) -> Vec<(i64, String)> {
    (t0..t0 + n)
        .map(|t| {
            let ev = if t % 10 < 5 { "up" } else { "down" };
            (t, format!("{ev}({entity})"))
        })
        .collect()
}

fn rows(out: &rtec::engine::RecognitionOutput, symbols: &rtec::SymbolTable) -> Vec<String> {
    let mut rows: Vec<String> = out
        .iter()
        .map(|(fvp, list)| format!("{}={list}", fvp.display(symbols)))
        .collect();
    rows.sort();
    rows
}

#[test]
fn panic_inside_a_batch_loses_and_duplicates_nothing() {
    let horizon = 200;
    // `a` is discovered first, so the first tick pins it to shard 0 and
    // `b` to shard 1. After that tick shard 0 has taken four steps: its
    // one-item batch, RunTo, Checkpoint and Profile. Then 30 events of
    // `b` wait in shard 1's outbox while 128 events of `a` go to shard 0
    // as two batches of 64 (steps 5-68 and 69-132). The panic at step
    // 100 lands inside the second batch. The session learns of it only
    // when it next sends to shard 0: the tick's hand-off of 22 more
    // events of `a`, still in the outbox when the worker is respawned.
    let first = vec![(1, "up(a)".to_string()), (2, "up(b)".to_string())];
    let batched: Vec<(i64, String)> = toggles("b", 10, 30)
        .into_iter()
        .chain(toggles("a", 10, 128))
        .collect();
    let tail = toggles("a", 138, 22);

    let compiled = rtec::description::EventDescription::parse(DESC)
        .unwrap()
        .compile()
        .unwrap();
    let mut stream = rtec::stream::InputStream::new();
    for (t, ev) in first.iter().chain(&batched).chain(&tail) {
        stream.push_event_src(ev, *t).unwrap();
    }
    let mut engine = Engine::new(&compiled, EngineConfig::default());
    stream.load_into(&mut engine);
    engine.run_to(horizon);
    let reference = rows(engine.output(), engine.symbols());
    let reference_processed = engine.stats().events_processed;
    assert_eq!(reference_processed, 182);

    let faults = Faults::new(FaultPlan::new().panic_worker(0, 100));
    let mut session =
        Session::open_with_faults("outbox", DESC, SessionConfig::default(), faults.clone())
            .unwrap();
    for (t, ev) in &first {
        session.ingest_event(ev, *t).unwrap();
    }
    session.tick(5).unwrap();
    for (t, ev) in &batched {
        session.ingest_event(ev, *t).unwrap();
    }
    // Give the poisoned worker time to die, so the next hand-off finds
    // it dead with items still in its outbox.
    std::thread::sleep(std::time::Duration::from_millis(100));
    for (t, ev) in &tail {
        session.ingest_event(ev, *t).unwrap();
    }
    let report = session.tick(horizon).unwrap();
    let (out, symbols) = session.query().unwrap();
    let got = rows(&out, &symbols);
    let processed = report.engine.events_processed;
    assert_eq!(faults.injected(), 1, "the scheduled panic must fire");
    assert_eq!(got, reference, "recovered output differs from batch");
    assert_eq!(
        processed, reference_processed,
        "an event was lost or doubled"
    );
    assert_eq!(session.stats().worker_restarts, 1);
    assert!(session.quarantined().is_none());
    session.close().unwrap();
}
