//! Entity-partitioned recognition through the service `Router` must
//! agree exactly with one batch engine on the full maritime dataset.
//! The pair activities (tugging, pilot boarding) hold only if the
//! router's union-find over proximity couplings pinned both vessels of
//! every pair to the same shard, so that placement is checked directly.

use maritime::{BrestScenario, Dataset};
use rtec::{Engine, EngineConfig, Term};
use rtec_service::router::RouterSnapshot;
use rtec_service::{Session, SessionConfig};
use std::collections::HashMap;

type Rows = Vec<(String, String)>;

/// Reference: one batch engine over the full stream, rows sorted.
fn batch_rows(dataset: &Dataset, horizon: i64) -> Rows {
    let compiled = dataset.gold_description().compile().unwrap();
    let mut engine = Engine::new(&compiled, EngineConfig::default());
    dataset.stream.load_into(&mut engine);
    engine.run_to(horizon);
    let symbols = engine.symbols().clone();
    let mut rows: Rows = engine
        .into_output()
        .iter()
        .map(|(fvp, list)| (fvp.display(&symbols), list.to_string()))
        .collect();
    rows.sort();
    rows
}

/// Shard of every entity the router has seen, keyed by its name.
fn shard_by_entity(snap: &RouterSnapshot, symbols: &rtec::SymbolTable) -> HashMap<String, usize> {
    let root = |mut x: usize| {
        while snap.parent[x] != x {
            x = snap.parent[x];
        }
        x
    };
    let pins: HashMap<usize, usize> = snap.shard_of_root.iter().copied().collect();
    snap.entities
        .iter()
        .enumerate()
        .map(|(id, e)| (e.display(symbols).to_string(), pins[&root(id)]))
        .collect()
}

/// Replays the dataset through a fresh session configured by `config`
/// up to `horizon`. Returns the sorted rows, the number of windows the
/// shards evaluated, and the number of pair-activity rows whose vessels
/// the router placed on different shards.
fn sharded_run(dataset: &Dataset, horizon: i64, config: SessionConfig) -> (Rows, usize, usize) {
    let shards = config.shards;
    let gold = format!("{}\n{}", maritime::gold::GOLD_RULES, dataset.background);
    let mut session = Session::open("maritime", &gold, config).unwrap();
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
    for (ev, t) in events {
        session
            .ingest_event(&ev.display(symbols).to_string(), t)
            .unwrap();
    }
    session.tick(horizon).unwrap();
    let (out, out_symbols) = session.query().unwrap();
    assert_eq!(session.late_couplings(), 0, "shards={shards}");

    let shard_of = shard_by_entity(&session.router_snapshot(), &out_symbols);
    assert_eq!(shard_of.values().max().map(|&s| s + 1), Some(shards));
    let mut split_pairs = 0;
    let mut rows: Rows = Vec::new();
    for (fvp, list) in out.iter() {
        let name = fvp.display(&out_symbols);
        if name.starts_with("tugging(") || name.starts_with("pilotOps(") {
            let vessels: Vec<usize> = fvp
                .fluent
                .args()
                .iter()
                .filter(|a| matches!(a, Term::Atom(_)))
                .map(|a| shard_of[&a.display(&out_symbols).to_string()])
                .collect();
            assert_eq!(vessels.len(), 2, "{name}");
            if vessels[0] != vessels[1] {
                split_pairs += 1;
            }
        }
        rows.push((name, list.to_string()));
    }
    rows.sort();
    let windows = session.stats().engine.windows;
    session.close().unwrap();
    (rows, windows, split_pairs)
}

#[test]
fn partitioned_maritime_recognition_equals_single_engine() {
    let dataset = Dataset::generate(&BrestScenario::small());
    let horizon = dataset.horizon() + 1;
    let reference = batch_rows(&dataset, horizon);

    for shards in [2, 4, 8] {
        let config = SessionConfig {
            shards,
            queue_capacity: 256,
            ..SessionConfig::default()
        };
        let (rows, _, split_pairs) = sharded_run(&dataset, horizon, config);
        assert_eq!(rows, reference, "shards={shards}");
        for pair in ["tugging(", "pilotOps("] {
            assert!(
                rows.iter().any(|(fvp, _)| fvp.starts_with(pair)),
                "shards={shards}: {pair} lost"
            );
        }
        assert_eq!(split_pairs, 0, "shards={shards}: a pair spans two shards");
    }
}

#[test]
fn partitioned_windowed_also_agrees() {
    let dataset = Dataset::generate(&BrestScenario::small());
    let horizon = dataset.horizon() + 1;
    let reference = batch_rows(&dataset, horizon);

    // Sliding windows over eight shards, recomputed and incremental.
    for incremental in [false, true] {
        let config = SessionConfig {
            window: Some(3600),
            slide: Some(600),
            incremental,
            shards: 8,
            queue_capacity: 256,
            ..SessionConfig::default()
        };
        let (rows, windows, split_pairs) = sharded_run(&dataset, horizon, config);
        assert!(
            windows > 1,
            "incremental={incremental}: {windows} window(s)"
        );
        assert_eq!(rows, reference, "incremental={incremental}");
        assert_eq!(split_pairs, 0, "incremental={incremental}");
    }
}
