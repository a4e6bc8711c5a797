//! The engine against the brute-force reference of the language's
//! point semantics (`integration::reference`, docs/LANGUAGE.md).
//!
//! [`engine_agrees_with_reference`] runs randomized descriptions and
//! feeds through the engine in batch, tumbling-window and
//! sliding-incremental configurations, each stepped through several
//! `run_to` calls, and requires the rows at the horizon to equal the
//! reference's. [`every_generator_shape_fires`] shows that every
//! ingredient of the generator can matter. That warnings and checkpoint
//! bytes do not depend on the configuration is pinned by
//! `rtec/tests/incremental_differential.rs`.

use integration::scenario::{
    base_shape, fixed, flip, scenario, Shape, EXTRAS, S1_BODIES, STATIC_SHAPES,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Over randomized descriptions (multi-valued fluents, explicit and
    /// pattern terminations, negation, background facts, comparisons and
    /// `=` assignment, every interval construct, several `holdsFor`
    /// rules, undefined references, an input fluent) and randomized
    /// feeds, the engine's rows at the horizon equal the reference's in
    /// batch, tumbling and sliding-incremental configurations.
    #[test]
    fn engine_agrees_with_reference(sc in scenario()) {
        sc.check();
    }
}

/// Every ingredient of the generator, on one fixed feed, agrees with the
/// reference in all three configurations, and the ones that can fire do:
/// every rule of the full description derives rows, and switching on a
/// satisfiable literal, rule or expression changes the rows while a
/// provably dead one leaves them as they were. The lookups reach
/// instances and facts by a bound atom, by a bound number (the integer
/// `e4` argument against the float `lim` facts and `lk` instances) and
/// with the first argument unbound.
#[test]
fn every_generator_shape_fires() {
    let full = fixed(base_shape(flip::ALL & !flip::NEGATED_HOLDS_AT)).check();
    for present in [
        "s0(v0)=lo",
        "s0(v0)=hi",
        "s1(v0)=true",
        "s3(v0)=c0",
        "s3(v0)=c1",
        "s4(v0)=true",
        "s5(v0)=true",
        "s6(v0, c0)=true",
        "s6(v0, c1)=true",
        "s9(v0)=11",
        "s9(v0)=21",
        "st0(v0)=true",
        "st1(1.0, v0)=true",
        "st1(v1, v0)=true",
        "st2(v0, v2)=true",
        "st2(1.0, v0)=true",
        "st3(v0)=true",
        "st5(v0)=true",
    ] {
        assert!(
            full.contains_key(present),
            "no `{present}` row in {full:#?}"
        );
    }
    for absent in ["dead0(", "st4(", "s8("] {
        assert!(
            !full.keys().any(|k| k.starts_with(absent)),
            "a `{absent}` row in {full:#?}"
        );
    }

    let base = fixed(base_shape(0)).check();
    let changes = |shape: Shape| fixed(shape).check() != base;
    // `lim(1, c0)` matches the fact `lim(1.0, c0)`: it holds, so it
    // changes nothing.
    for (i, live) in [true, true, true, true, true, true, false, true, true, true]
        .into_iter()
        .enumerate()
    {
        let mut shape = base_shape(0);
        shape.extras_lo = vec![i];
        assert_eq!(changes(shape), live, "extra {i}: {}", EXTRAS[i]);
    }
    for (i, live) in [false, false, false, false, false, true]
        .into_iter()
        .enumerate()
    {
        let mut shape = base_shape(0);
        shape.s1_bodies = vec![i];
        assert_eq!(changes(shape), live, "s1 body {i}: {}", S1_BODIES[i]);
    }
    // Declarations, a rule over a value never taken and a non-ground
    // initiation derive nothing; every other optional rule does.
    let inert = flip::DECLARATIONS | flip::DISJOINT_STATIC | flip::NON_GROUND_INITIATION;
    for bit in (0..9).map(|b| 1u16 << b) {
        assert_eq!(changes(base_shape(bit)), inert & bit == 0, "flip {bit:#b}");
    }
    // With an `s1` that can start while `s0=lo` holds, every interval
    // expression derives `st0`.
    for static_shape in 0..STATIC_SHAPES.len() {
        let mut shape = base_shape(0);
        shape.s1_bodies = vec![5];
        shape.static_shape = static_shape;
        let rows = fixed(shape).check();
        assert!(
            rows.keys().any(|k| k.starts_with("st0(")),
            "static shape {static_shape}: no st0 row in {rows:#?}"
        );
    }
}
