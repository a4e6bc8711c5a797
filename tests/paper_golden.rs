//! The paper's results, pinned byte for byte.
//!
//! Figures 2a, 2b and 2c are rebuilt in-process at the default scale (the
//! one EXPERIMENTS.md quotes) through `adgen_core::figures` and written
//! with the same `report::*_json` writers `reproduce_all --json` uses. Each
//! must equal its committed fixture under `tests/fixtures/`, so any change
//! to generation, similarity, correction or recognition that moves a
//! number shows up here as a diff of the artefact.
//!
//! To regenerate the fixtures after an intended change, run
//! `cargo run --release -p experiments --bin reproduce_all -- --json` and
//! copy `target/figures/fig2{a,b,c}.json` over them.

use adgen_core::figures::{fig2a, fig2b, fig2c};
use adgen_core::report;
use maritime::{BrestScenario, Dataset};

fn fixture(name: &str) -> String {
    let path = format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn assert_golden(name: &str, actual: &str) {
    let expected = fixture(name);
    assert!(
        actual == expected,
        "{name} differs from its fixture\n--- expected\n{expected}\n--- actual\n{actual}"
    );
}

#[test]
fn figures_match_the_committed_fixtures() {
    let a = fig2a();
    let b = fig2b(&a);
    let dataset = Dataset::generate(&BrestScenario::default());
    let c = fig2c(&b, &dataset);
    assert_golden("fig2a.json", &report::series_json("2a", &a.series));
    assert_golden("fig2b.json", &report::series_json("2b", &b.series));
    assert_golden("fig2c.json", &report::fig2c_json(&c));
}
