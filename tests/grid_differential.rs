//! The paper's Fig 2c grid through the engine and the reference
//! interpreter of the point semantics (`integration::reference`): the
//! gold description and the three generated descriptions the service
//! accepts, each over a seeded Brest scenario with its proximity
//! intervals, in batch, tumbling and sliding-incremental runs.

use integration::reference::{assert_agrees, Feed};
use maritime::{BrestScenario, Dataset};
use rtec::Timepoint;

/// The paper's Fig 2c grid: the gold description and the three
/// generated descriptions the service accepts (o1□, o1■ and Llama-3■)
/// over a seeded Brest scenario with its proximity intervals, stepped
/// through 12 `run_to` calls before the horizon, agree with the
/// reference in every configuration.
#[test]
fn grid_descriptions_agree_across_evaluators() {
    // Two pairs of each coupled kind, so the proximity statics see
    // several candidate partners per vessel.
    let dataset = Dataset::generate(&BrestScenario {
        seed: 7,
        tug_pairs: 2,
        pilot_pairs: 2,
        rendezvous_pairs: 2,
        ..BrestScenario::default()
    });
    let horizon = dataset.horizon() + 1;
    let step = (horizon / 12).max(1);
    let steps: Vec<Timepoint> = (1..=12).map(|k| step * k - 1).chain([horizon]).collect();
    let feed = Feed {
        symbols: dataset.stream.symbols.clone(),
        events: dataset.stream.events().to_vec(),
        inputs: dataset.stream.intervals().to_vec(),
    };
    for (label, rules) in &bench::grid_descriptions() {
        let compiled = dataset
            .with_background(rules)
            .compile()
            .unwrap_or_else(|e| panic!("{label} compiles: {e}"));
        let rows = assert_agrees(&compiled, &feed, &steps, (3600, 600), label);
        // The proximity statics are the lookups the plan indexes; the
        // comparison must include some of their rows.
        assert!(
            rows.keys()
                .any(|r| r.starts_with("rendezVous(") || r.starts_with("tugging(")),
            "{label}: no proximity-driven row among {} rows",
            rows.len()
        );
    }
}
