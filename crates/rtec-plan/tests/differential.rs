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
/// source, a raw event feed, input-fluent intervals, a window
/// configuration, and the `run_to` milestones.
#[derive(Debug, Clone)]
struct Scenario {
    desc_src: String,
    /// `(event index 0..5, entity index 0..3, time)` triples, unsorted.
    events: Vec<(usize, usize, Timepoint)>,
    /// `lk(A, B)=true` intervals: `(first 0..5, second 0..3, start,
    /// length, milestone before which it is added)`. First arguments 3
    /// and 4 are the floats `1.0` and `2.0`.
    inputs: Vec<(usize, usize, Timepoint, Timepoint, usize)>,
    window: Option<Timepoint>,
    milestones: Vec<Timepoint>,
}

/// Optional body literals appended to simple-fluent rules. Index 5
/// (`r(V)`, a predicate with no background facts) exists to exercise the
/// precomputed "no background facts" warning; indexes 6 and 7 look up
/// background facts by a numeric constant first argument.
const EXTRAS: [&str; 8] = [
    ",\n    not happensAt(e3(V), T)",
    ",\n    q(V)",
    ",\n    not q(V)",
    ",\n    p(V, c0)",
    ",\n    T >= 5",
    ",\n    r(V)",
    ",\n    lim(1, c0)",
    ",\n    not lim(2.0, c1)",
];

/// Rules over the numeric event `e4(V, N)`, the 2-ary input fluent
/// `lk/2` and numeric background facts `lim/2`. Between them they reach
/// every way the plan looks up an instance or a fact: by a bound atom,
/// by a bound number, and with the first argument unbound.
const INDEXED_RULES: &str = "
initiatedAt(s3(V)=C, T) :-
    happensAt(e4(V, N), T),
    lim(N, C).
terminatedAt(s3(V)=c0, T) :-
    happensAt(e4(V, N), T),
    not lim(N, c0).
initiatedAt(s4(V)=true, T) :-
    happensAt(e4(V, N), T),
    holdsAt(lk(N, _W)=true, T).
terminatedAt(s4(V)=true, T) :-
    happensAt(e2(V), T),
    not holdsAt(lk(V, _B)=true, T).
initiatedAt(s5(V)=true, T) :-
    happensAt(e2(V), T),
    holdsAt(lk(_A, V)=true, T).
terminatedAt(s5(V)=true, T) :-
    happensAt(e3(V), T),
    holdsAt(s0(V)=_X, T).
holdsFor(st1(A, V)=true, I) :-
    holdsFor(s1(V)=true, I1),
    holdsFor(lk(A, V)=true, I2),
    intersect_all([I1, I2], I).
holdsFor(st2(V, B)=true, I) :-
    holdsFor(s0(V)=lo, I1),
    holdsFor(lk(V, B)=true, I2),
    union_all([I1, I2], I).
";

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
    // `(n, as a float, c)`: the fact `lim(n, cC)`, `n` written `n.0`
    // when the flag is set.
    facts_lim: &[(usize, bool, usize)],
) -> String {
    let (term_lo, pattern_term, s1_neg) = (flips & 1 != 0, flips & 2 != 0, flips & 4 != 0);
    let mut src = String::new();
    for &(v, c) in facts_p {
        src.push_str(&format!("p(v{v}, c{c}).\n"));
    }
    for &v in facts_q {
        src.push_str(&format!("q(v{v}).\n"));
    }
    for &(n, float, c) in facts_lim {
        let n = if float {
            format!("{n}.0")
        } else {
            n.to_string()
        };
        src.push_str(&format!("lim({n}, c{c}).\n"));
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
    src.push_str(INDEXED_RULES);
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
        prop::collection::vec((1usize..3, 0u8..2, 0usize..2), 0..4),
    );
    let feed = (
        prop::collection::vec((0usize..5, 0usize..3, 0i64..60), 0..40),
        prop::collection::vec((0usize..5, 0usize..3, 0i64..60, 1i64..20, 0usize..3), 0..6),
        // Below 6 means "unwindowed".
        0i64..25,
        prop::collection::vec(1i64..70, 1..4),
    );
    (structure, facts, feed).prop_map(
        |(
            (extras_lo, extras_hi, flips, static_shape),
            (facts_p, facts_q, facts_lim),
            (events, inputs, window, mut milestones),
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
                    &facts_lim
                        .iter()
                        .map(|&(n, float, c)| (n, float == 1, c))
                        .collect::<Vec<_>>(),
                ),
                events,
                inputs,
                window: (window >= 6).then_some(window),
                milestones,
            }
        },
    )
}

/// Builds the engine pair and replays the scenario feed into both,
/// checking observational equality at every milestone. Returns the
/// final output rows (none for a description that does not compile).
fn run_differential(sc: &Scenario) -> Vec<String> {
    let desc = EventDescription::parse(&sc.desc_src)
        .unwrap_or_else(|e| panic!("parse: {e}\n{}", sc.desc_src));
    let compiled = match desc.compile() {
        Ok(c) => c,
        // Rejected descriptions (e.g. a generated cycle) are out of
        // scope: both evaluators only ever see compiled descriptions.
        Err(_) => return Vec::new(),
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
        // `e4` carries an integer, which matches the float `lim` facts
        // and `lk` first arguments only by value.
        let src = match ev {
            4 => format!("e4(v{v}, {})", 1 + t % 2),
            _ => format!("e{ev}(v{v})"),
        };
        let term = rtec::parser::parse_term(&src, &mut syms).expect("event parses");
        interp.add_event_from(&term, &syms, t);
        plan.add_event_from(&term, &syms, t);
    }
    for (i, &milestone) in sc.milestones.iter().enumerate() {
        for &(a, b, start, len, _) in sc.inputs.iter().filter(|input| input.4 == i) {
            let first = match a {
                3 => "1.0".to_string(),
                4 => "2.0".to_string(),
                _ => format!("v{a}"),
            };
            let fluent = rtec::parser::parse_term(&format!("lk({first}, v{b})"), &mut syms)
                .expect("fluent parses");
            let value = rtec::parser::parse_term("true", &mut syms).expect("value parses");
            let fvp = rtec::term::GroundFvp::new(fluent, value).expect("ground");
            let list = rtec::IntervalList::from_pairs(&[(start, start + len)]);
            interp.add_input_intervals_from(&fvp, &syms, list.clone());
            plan.add_input_intervals_from(&fvp, &syms, list);
        }
        interp.run_to(milestone);
        plan.run_to(milestone);
        assert_identical(
            &interp,
            &plan,
            &format!("milestone {i} (run_to {milestone})"),
        );
    }
    observe(&interp).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over randomized descriptions (cross-value terminations, pattern
    /// terminations, negation, comparisons, background facts with atom
    /// and numeric first arguments, a 2-ary input fluent looked up with
    /// its first argument bound and unbound, fusable interval chains)
    /// and randomized unsorted event feeds, the plan evaluator is
    /// observationally identical to the interpreter at every window
    /// boundary.
    #[test]
    fn plan_matches_interpreter_on_random_descriptions(sc in scenario()) {
        run_differential(&sc);
    }
}

/// A fixed scenario in which every rule of [`INDEXED_RULES`] fires, so
/// each lookup shape of the randomized test is known to be exercised:
/// an integer event argument against float facts and instances, a
/// float first argument bound by seeding, atom probes of input and
/// computed fluents, and unbound first arguments.
#[test]
fn indexed_lookups_fire_and_agree() {
    let sc = Scenario {
        desc_src: render_description(&[], &[], 0, 0, &[], &[], &[(1, true, 0), (2, false, 1)]),
        events: vec![
            (0, 0, 2),
            (1, 0, 7),
            (4, 0, 10),
            (4, 0, 11),
            (2, 0, 12),
            (3, 0, 40),
        ],
        inputs: vec![(3, 0, 5, 25, 0), (1, 0, 0, 50, 0), (0, 2, 20, 20, 0)],
        window: None,
        milestones: vec![60],
    };
    let rows = run_differential(&sc);
    for expected in [
        "s3(v0)=c0 = ",
        "s3(v0)=c1 = ",
        "s4(v0)=true = ",
        "s5(v0)=true = ",
        "st1(1.0, v0)=true = ",
        "st1(v1, v0)=true = ",
        "st2(v0, v2)=true = ",
    ] {
        assert!(
            rows.iter().any(|r| r.starts_with(expected)),
            "no `{expected}` row in {rows:#?}"
        );
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
        resumed.set_evaluator(std::sync::Arc::new(rtec_plan::Plan::compile(compiled)));
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

/// The profiler is a pure observer on the plan path too, and it
/// attributes the same strata as on the interpreter: profiled and
/// unprofiled plan engines are observationally identical, and both
/// evaluators report the same rules, kinds and call counts.
#[test]
fn plan_profiler_attributes_without_perturbing_output() {
    let compiled = EventDescription::parse(CKPT_DESC)
        .expect("parses")
        .compile()
        .expect("compiles");
    let run = |plan: bool, profiled: bool| {
        let config = EngineConfig::windowed(10);
        let mut engine = if plan {
            Engine::with_plan(&compiled, config)
        } else {
            Engine::new(&compiled, config)
        };
        if profiled {
            engine.enable_profiler();
        }
        feed_range(&mut engine, 0, 60);
        engine.run_to(60);
        (observe(&engine), engine.profile().cloned())
    };
    let shape = |profile: rtec_obs::profile::ProfileAggregate| {
        let mut rows: Vec<(String, &'static str, u64)> = profile
            .sorted()
            .into_iter()
            .map(|e| (e.name, e.kind.as_str(), e.cost.calls))
            .collect();
        rows.sort();
        rows
    };
    let (plain, no_profile) = run(true, false);
    let (profiled, profile) = run(true, true);
    assert!(no_profile.is_none());
    assert_eq!(plain, profiled, "profiling perturbed the plan's output");
    let profile = profile.expect("profiler enabled");
    // Windows end at 9, 19, ..., 59 and 60.
    assert_eq!(profile.windows, 7);
    let (_, interp_profile) = run(false, true);
    let plan_rows = shape(profile);
    assert!(!plan_rows.is_empty());
    assert_eq!(plan_rows, shape(interp_profile.expect("profiler enabled")));
}
