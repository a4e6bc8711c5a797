//! Differential tests: the compiled plan must be *observationally
//! identical* to the AST interpreter — same recognised intervals, same
//! inertia carries, same warnings in first-occurrence order, and
//! byte-identical checkpoint state — over randomized descriptions and
//! event streams, over the maritime gold description, and across
//! checkpoint/restore boundaries that switch evaluation mode mid-stream.

use proptest::prelude::*;
use rtec::checkpoint::EngineCheckpoint;
use rtec::description::CompiledDescription;
use rtec::engine::{Engine, EngineConfig};
use rtec::{EventDescription, Timepoint};
use rtec_plan::WithPlan;

/// Everything observable about an engine at a point in time: sorted
/// rendered output rows, the warning log, and the canonical checkpoint
/// state JSON (symbols, pending, inputs, inertia, frontier, output,
/// warnings, counters — everything `restore` consumes).
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

/// Asserts full observational equality between two engines, labelling
/// the failure with `what`.
fn assert_identical(interp: &Engine<'_>, plan: &Engine<'_>, what: &str) {
    let (irows, iwarns, istate) = observe(interp);
    let (prows, pwarns, pstate) = observe(plan);
    assert_eq!(irows, prows, "{what}: output rows diverge");
    assert_eq!(iwarns, pwarns, "{what}: warnings diverge");
    assert_eq!(istate, pstate, "{what}: checkpoint state diverges");
}

// ---------------------------------------------------------------------
// Randomized descriptions and streams
// ---------------------------------------------------------------------

/// A randomly generated recognition scenario: an event-description
/// source, a raw event feed, a window configuration, and the `run_to`
/// milestones.
#[derive(Debug, Clone)]
struct Scenario {
    desc_src: String,
    /// `(event index 0..4, entity index 0..3, time)` triples, unsorted.
    events: Vec<(usize, usize, Timepoint)>,
    window: Option<Timepoint>,
    milestones: Vec<Timepoint>,
}

/// Optional body literals appended to simple-fluent rules. Index 5
/// (`r(V)`, a predicate with no background facts) exists to exercise the
/// precomputed "no background facts" warning.
const EXTRAS: [&str; 6] = [
    ",\n    not happensAt(e3(V), T)",
    ",\n    q(V)",
    ",\n    not q(V)",
    ",\n    p(V, c0)",
    ",\n    T >= 5",
    ",\n    r(V)",
];

/// Interval-algebra tails for the `st0` static fluent, over `I1`
/// (`s0=lo`) and `I2` (`s1=true`). Shapes 1, 2 and 4 contain chains the
/// plan compiler fuses; the interpreter executes them literally.
const STATIC_SHAPES: [&str; 6] = [
    "union_all([I1, I2], I)",
    "union_all([I1, I2], I3),\n    relative_complement_all(I3, [I2], I)",
    "union_all([I1, I2], I3),\n    union_all([I3, I1], I)",
    "intersect_all([I1, I2], I)",
    "intersect_all([I1, I2], I3),\n    intersect_all([I3, I1], I)",
    "relative_complement_all(I1, [I2], I)",
];

fn render_description(
    extras_lo: &[usize],
    extras_hi: &[usize],
    // Bit 0: terminate-lo rule; bit 1: pattern termination; bit 2:
    // negated holdsAt in the s1 initiation.
    flips: u8,
    static_shape: usize,
    facts_p: &[(usize, usize)],
    facts_q: &[usize],
) -> String {
    let (term_lo, pattern_term, s1_neg) = (flips & 1 != 0, flips & 2 != 0, flips & 4 != 0);
    let mut src = String::new();
    for &(v, c) in facts_p {
        src.push_str(&format!("p(v{v}, c{c}).\n"));
    }
    for &v in facts_q {
        src.push_str(&format!("q(v{v}).\n"));
    }
    let extra = |ix: &[usize]| -> String { ix.iter().map(|&i| EXTRAS[i]).collect() };
    src.push_str(&format!(
        "initiatedAt(s0(V)=lo, T) :-\n    happensAt(e0(V), T){}.\n",
        extra(extras_lo)
    ));
    // Cross-value initiation: starting `hi` must terminate a running
    // `lo` (and vice versa), the edge the inertia collector handles.
    src.push_str(&format!(
        "initiatedAt(s0(V)=hi, T) :-\n    happensAt(e1(V), T){}.\n",
        extra(extras_hi)
    ));
    if term_lo {
        src.push_str("terminatedAt(s0(V)=lo, T) :-\n    happensAt(e2(V), T).\n");
    }
    if pattern_term {
        // Value left as a variable: terminates whichever value holds.
        src.push_str("terminatedAt(s0(V)=_X, T) :-\n    happensAt(e3(V), T).\n");
    }
    let maybe_not = if s1_neg { "not " } else { "" };
    src.push_str(&format!(
        "initiatedAt(s1(V)=true, T) :-\n    happensAt(e1(V), T),\n    \
         {maybe_not}holdsAt(s0(V)=lo, T).\n"
    ));
    src.push_str("terminatedAt(s1(V)=true, T) :-\n    happensAt(e0(V), T),\n    T >= 3.\n");
    src.push_str(&format!(
        "holdsFor(st0(V)=true, I) :-\n    holdsFor(s0(V)=lo, I1),\n    \
         holdsFor(s1(V)=true, I2),\n    {}.\n",
        STATIC_SHAPES[static_shape]
    ));
    src
}

fn scenario() -> impl Strategy<Value = Scenario> {
    let structure = (
        prop::collection::vec(0usize..EXTRAS.len(), 0..3),
        prop::collection::vec(0usize..EXTRAS.len(), 0..3),
        // Three independent coin flips: terminate-lo rule, pattern
        // termination, negated holdsAt in the s1 initiation.
        0u8..8,
        0usize..STATIC_SHAPES.len(),
    );
    let facts = (
        prop::collection::vec((0usize..3, 0usize..2), 0..4),
        prop::collection::vec(0usize..3, 0..3),
    );
    let feed = (
        prop::collection::vec((0usize..4, 0usize..3, 0i64..60), 0..40),
        // Below 6 means "unwindowed".
        0i64..25,
        prop::collection::vec(1i64..70, 1..4),
    );
    (structure, facts, feed).prop_map(
        |(
            (extras_lo, extras_hi, flips, static_shape),
            (facts_p, facts_q),
            (events, window, mut milestones),
        )| {
            milestones.sort_unstable();
            milestones.dedup();
            Scenario {
                desc_src: render_description(
                    &extras_lo,
                    &extras_hi,
                    flips,
                    static_shape,
                    &facts_p,
                    &facts_q,
                ),
                events,
                window: (window >= 6).then_some(window),
                milestones,
            }
        },
    )
}

/// Builds the engine pair and replays the scenario feed into both,
/// checking observational equality at every milestone.
fn run_differential(sc: &Scenario) {
    let desc = EventDescription::parse(&sc.desc_src)
        .unwrap_or_else(|e| panic!("parse: {e}\n{}", sc.desc_src));
    let compiled = match desc.compile() {
        Ok(c) => c,
        // Rejected descriptions (e.g. a generated cycle) are out of
        // scope: both evaluators only ever see compiled descriptions.
        Err(_) => return,
    };
    let config = match sc.window {
        Some(w) => EngineConfig::windowed(w),
        None => EngineConfig::default(),
    };
    let mut interp = Engine::new(&compiled, config);
    let mut plan = Engine::with_plan(&compiled, config);
    let mut syms = rtec::SymbolTable::new();
    // Events are fed unsorted and may be stale relative to the
    // processed frontier; both engines must reject identically.
    for &(ev, v, t) in &sc.events {
        let term =
            rtec::parser::parse_term(&format!("e{ev}(v{v})"), &mut syms).expect("event parses");
        interp.add_event_from(&term, &syms, t);
        plan.add_event_from(&term, &syms, t);
    }
    for (i, &milestone) in sc.milestones.iter().enumerate() {
        interp.run_to(milestone);
        plan.run_to(milestone);
        assert_identical(
            &interp,
            &plan,
            &format!("milestone {i} (run_to {milestone})"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over randomized descriptions (cross-value terminations, pattern
    /// terminations, negation, comparisons, background facts, fusable
    /// interval chains) and randomized unsorted event feeds, the plan
    /// evaluator is observationally identical to the interpreter at
    /// every window boundary.
    #[test]
    fn plan_matches_interpreter_on_random_descriptions(sc in scenario()) {
        run_differential(&sc);
    }
}

// ---------------------------------------------------------------------
// Maritime gold description
// ---------------------------------------------------------------------

/// The full gold maritime description over a generated Brest scenario:
/// identical intervals, warnings and checkpoint state, windowed and
/// unwindowed.
#[test]
fn plan_matches_interpreter_on_maritime_gold() {
    let dataset = maritime::Dataset::generate(&maritime::BrestScenario::small());
    let compiled = dataset.gold_description().compile().expect("gold compiles");
    let horizon = dataset.horizon() + 1;
    for config in [EngineConfig::default(), EngineConfig::windowed(3600)] {
        let mut interp = Engine::new(&compiled, config);
        let mut plan = Engine::with_plan(&compiled, config);
        dataset.stream.load_into(&mut interp);
        dataset.stream.load_into(&mut plan);
        interp.run_to(horizon);
        plan.run_to(horizon);
        assert_identical(&interp, &plan, "maritime gold");
        assert!(
            !interp.output().is_empty(),
            "gold run must recognise something for the comparison to bite"
        );
    }
}

// ---------------------------------------------------------------------
// Cross-mode checkpoint restore
// ---------------------------------------------------------------------

const CKPT_DESC: &str = "
initiatedAt(s0(V)=lo, T) :- happensAt(e0(V), T).
initiatedAt(s0(V)=hi, T) :- happensAt(e1(V), T).
terminatedAt(s0(V)=_X, T) :- happensAt(e3(V), T).
initiatedAt(s1(V)=true, T) :- happensAt(e1(V), T), holdsAt(s0(V)=lo, T).
terminatedAt(s1(V)=true, T) :- happensAt(e0(V), T).
holdsFor(st0(V)=true, I) :-
    holdsFor(s0(V)=lo, I1),
    holdsFor(s1(V)=true, I2),
    union_all([I1, I2], I3),
    relative_complement_all(I3, [I2], I).
";

fn ckpt_feed() -> Vec<(&'static str, Timepoint)> {
    vec![
        ("e0(v0)", 2),
        ("e1(v0)", 7),
        ("e0(v1)", 9),
        ("e1(v1)", 14),
        ("e3(v0)", 21),
        ("e0(v0)", 26),
        ("e1(v0)", 33),
        ("e3(v1)", 38),
        ("e0(v1)", 44),
        ("e3(v0)", 52),
    ]
}

fn feed_range(engine: &mut Engine<'_>, from: Timepoint, to: Timepoint) {
    let mut syms = rtec::SymbolTable::new();
    for (src, t) in ckpt_feed() {
        if t >= from && t < to {
            let term = rtec::parser::parse_term(src, &mut syms).expect("event parses");
            engine.add_event_from(&term, &syms, t);
        }
    }
}

/// Runs the checkpoint scenario: the first half under `first_plan`
/// (plan evaluator iff true), checkpoint at the boundary, restore and
/// finish under `second_plan`. Returns the boundary document and the
/// final observation.
fn run_with_handover(
    compiled: &CompiledDescription,
    first_plan: bool,
    second_plan: bool,
) -> (String, (Vec<String>, Vec<String>, String)) {
    let config = EngineConfig::windowed(10);
    let mut engine = if first_plan {
        Engine::with_plan(compiled, config)
    } else {
        Engine::new(compiled, config)
    };
    feed_range(&mut engine, 0, 30);
    engine.run_to(30);
    let checkpoint = engine.checkpoint();
    let expected_label = if first_plan { "plan" } else { "interpreter" };
    assert_eq!(checkpoint.eval_mode(), Some(expected_label));

    // Round-trip through the JSON envelope: the label survives, and the
    // checksummed state parses back.
    let doc = checkpoint.to_json();
    let parsed = EngineCheckpoint::from_json(&doc).expect("envelope parses");
    assert_eq!(parsed.eval_mode(), Some(expected_label));

    let mut resumed = Engine::restore(compiled, config, &parsed).expect("restore");
    if second_plan {
        resumed.set_evaluator(Box::new(rtec_plan::Plan::compile(compiled)));
    }
    feed_range(&mut resumed, 30, 60);
    resumed.run_to(60);
    (doc, observe(&resumed))
}

/// Checkpoints are portable across evaluation modes, both directions:
/// every handover combination finishes with byte-identical state, and
/// the boundary documents written by the two modes differ only in the
/// informational `eval_mode` envelope field.
#[test]
fn checkpoints_restore_across_eval_modes() {
    let compiled = EventDescription::parse(CKPT_DESC)
        .expect("parses")
        .compile()
        .expect("compiles");

    let (doc_interp, baseline) = run_with_handover(&compiled, false, false);
    let (doc_plan, plan_plan) = run_with_handover(&compiled, true, true);
    let (_, interp_to_plan) = run_with_handover(&compiled, false, true);
    let (_, plan_to_interp) = run_with_handover(&compiled, true, false);

    assert_eq!(baseline, plan_plan, "pure plan run diverges");
    assert_eq!(
        baseline, interp_to_plan,
        "interpreter→plan handover diverges"
    );
    assert_eq!(
        baseline, plan_to_interp,
        "plan→interpreter handover diverges"
    );
    assert!(
        !baseline.0.is_empty(),
        "scenario must recognise something for the comparison to bite"
    );

    // The two boundary documents: identical modulo the envelope label.
    assert_ne!(doc_interp, doc_plan);
    assert_eq!(
        doc_interp.replace("\"eval_mode\":\"interpreter\"", ""),
        doc_plan.replace("\"eval_mode\":\"plan\"", ""),
        "checkpoint state must not depend on the evaluation mode"
    );
}
