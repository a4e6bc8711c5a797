//! The paper's Fig 2c grid through both evaluators: the gold description
//! and the three generated descriptions the service accepts (o1□, o1■
//! and Llama-3■), each over a seeded Brest scenario with its proximity
//! intervals, run windowless with 12 intermediate `run_to` steps plus
//! the horizon. After every step the compiled plan must equal the
//! interpreter in output rows, warnings and checkpoint state.

use maritime::{BrestScenario, Dataset};
use rtec::{Engine, EngineConfig};
use rtec_plan::WithPlan;

/// Intermediate `run_to` steps before the horizon.
const STEPS: i64 = 12;

/// Sorted rendered rows, the warning log and the checkpoint state.
fn observe(engine: &Engine<'_>) -> (Vec<String>, Vec<String>, String) {
    let symbols = engine.symbols();
    let out = engine.output();
    let mut rows: Vec<String> = out
        .iter()
        .map(|(fvp, list)| format!("{} = {}", fvp.display(symbols), list))
        .collect();
    rows.sort();
    let mut state = String::new();
    engine.checkpoint().write_state(&mut state);
    (rows, out.warnings.clone(), state)
}

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
    let step = (horizon / STEPS).max(1);
    let targets: Vec<i64> = (1..=STEPS).map(|k| step * k - 1).chain([horizon]).collect();
    for (label, rules) in &bench::grid_descriptions() {
        let compiled = dataset
            .with_background(rules)
            .compile()
            .unwrap_or_else(|e| panic!("{label} compiles: {e}"));
        let mut interp = Engine::new(&compiled, EngineConfig::default());
        let mut plan = Engine::with_plan(&compiled, EngineConfig::default());
        dataset.stream.load_into(&mut interp);
        dataset.stream.load_into(&mut plan);
        for &to in &targets {
            interp.run_to(to);
            plan.run_to(to);
            let (irows, iwarns, istate) = observe(&interp);
            let (prows, pwarns, pstate) = observe(&plan);
            assert_eq!(irows, prows, "{label} at {to}: rows diverge");
            assert_eq!(iwarns, pwarns, "{label} at {to}: warnings diverge");
            assert_eq!(istate, pstate, "{label} at {to}: checkpoint state diverges");
        }
        let rows = observe(&plan).0;
        // The proximity statics are the lookups the plan indexes; the
        // comparison must include some of their rows.
        assert!(
            rows.iter()
                .any(|r| r.starts_with("rendezVous(") || r.starts_with("tugging(")),
            "{label}: no proximity-driven row among {} rows",
            rows.len()
        );
    }
}
