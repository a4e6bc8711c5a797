//! Differential tests on the descriptions the analysis reasons about:
//! the compiled plan must be *observationally identical* to the AST
//! interpreter — same recognised intervals, same inertia carries, same
//! warnings in first-occurrence order, and byte-identical checkpoint
//! state — over randomized descriptions that deliberately contain
//! statically-empty rules, disjoint-value queries, undeclared-fluent
//! references, foldable interval algebra and unreachable triggers, and
//! across checkpoint/restore boundaries that switch evaluator
//! mid-stream.

use proptest::prelude::*;
use rtec::checkpoint::EngineCheckpoint;
use rtec::description::CompiledDescription;
use rtec::engine::{Engine, EngineConfig};
use rtec::{EventDescription, Timepoint};
use rtec_plan::WithPlan;
use std::sync::Arc;

/// Everything observable about an engine at a point in time: sorted
/// rendered output rows, the warning log, and the canonical checkpoint
/// state JSON.
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

fn assert_identical(reference: &Engine<'_>, plan: &Engine<'_>, what: &str) {
    let (rrows, rwarns, rstate) = observe(reference);
    let (prows, pwarns, pstate) = observe(plan);
    assert_eq!(rrows, prows, "{what}: output rows diverge");
    assert_eq!(rwarns, pwarns, "{what}: warnings diverge");
    assert_eq!(rstate, pstate, "{what}: checkpoint state diverges");
}

// ---------------------------------------------------------------------
// Randomized descriptions and streams
// ---------------------------------------------------------------------

/// A randomly generated recognition scenario, biased towards rules the
/// analysis proves empty or unreachable.
#[derive(Debug, Clone)]
struct Scenario {
    desc_src: String,
    /// `(event index 0..4, entity index 0..3, time)` triples, unsorted.
    events: Vec<(usize, usize, Timepoint)>,
    window: Option<Timepoint>,
    milestones: Vec<Timepoint>,
}

/// Dead or near-dead `initiatedAt(s1(V)=true, ...)` rule bodies, each a
/// distinct case for the analysis and the evaluators:
///
/// 0. contradictory time comparison — provably empty and warning-free;
/// 1. disjoint-value query on a defined fluent;
/// 2. reference to an undeclared fluent — empty under a closed schema,
///    but the runtime warns about `ghost` every window;
/// 3. trigger outside the declared schema (unreachable when
///    declarations are present);
/// 4. contradiction guarded by a background predicate — without `q`
///    facts the precomputed no-facts warning fires;
/// 5. satisfiable rule with a live comparison.
const DEAD_BODIES: [&str; 6] = [
    "happensAt(e0(V), T),\n    T >= 50, T < 10",
    "happensAt(e2(V), T),\n    holdsAt(s0(V)=mid, T)",
    "happensAt(e3(V), T),\n    holdsAt(ghost(V)=true, T)",
    "happensAt(e9(V), T)",
    "happensAt(e0(V), T),\n    q(V),\n    T < 2, T > 90",
    "happensAt(e3(V), T),\n    T >= 4",
];

/// Interval-algebra tails for `st0` over `I1` (`s0=lo`) and `I2`
/// (`s1=true`).
const STATIC_SHAPES: [&str; 4] = [
    "union_all([I1, I2], I)",
    "union_all([I1, I2], I3),\n    relative_complement_all(I3, [I2], I)",
    "intersect_all([I1, I2], I)",
    "relative_complement_all(I1, [I2], I)",
];

fn render_description(
    // Bit 0: terminate-lo rule; bit 1: pattern termination; bit 2:
    // declarations (closed schema); bit 3: dead defined fluent feeding
    // a foldable static; bit 4: disjoint-value static rule.
    flips: u8,
    dead_bodies: &[usize],
    static_shape: usize,
    facts_q: &[usize],
) -> String {
    let (term_lo, pattern_term, declared, dead_static, disjoint_static) = (
        flips & 1 != 0,
        flips & 2 != 0,
        flips & 4 != 0,
        flips & 8 != 0,
        flips & 16 != 0,
    );
    let mut src = String::new();
    for &v in facts_q {
        src.push_str(&format!("q(v{v}).\n"));
    }
    if declared {
        // The feed only ever contains e0..e3, so the schema is honest
        // and `e9` triggers are provably unreachable.
        for e in 0..4 {
            src.push_str(&format!("inputEvent(e{e}/1).\n"));
        }
    }
    src.push_str("initiatedAt(s0(V)=lo, T) :-\n    happensAt(e0(V), T).\n");
    src.push_str("initiatedAt(s0(V)=hi, T) :-\n    happensAt(e1(V), T).\n");
    if term_lo {
        src.push_str("terminatedAt(s0(V)=lo, T) :-\n    happensAt(e2(V), T).\n");
    }
    if pattern_term {
        src.push_str("terminatedAt(s0(V)=_X, T) :-\n    happensAt(e3(V), T).\n");
    }
    src.push_str(
        "initiatedAt(s1(V)=true, T) :-\n    happensAt(e1(V), T),\n    holdsAt(s0(V)=lo, T).\n",
    );
    for &i in dead_bodies {
        src.push_str(&format!(
            "initiatedAt(s1(V)=true, T) :-\n    {}.\n",
            DEAD_BODIES[i]
        ));
    }
    src.push_str("terminatedAt(s1(V)=true, T) :-\n    happensAt(e0(V), T),\n    T >= 3.\n");
    if dead_static {
        // `dead0` is defined but its only initiation is contradictory,
        // so `holdsFor(dead0(x)=true, _)` is a provably-empty ground
        // read inside the algebra below.
        src.push_str("initiatedAt(dead0(V)=true, T) :-\n    happensAt(e0(V), T),\n    1 > 2.\n");
        src.push_str(
            "holdsFor(st2(V)=true, I) :-\n    holdsFor(s0(V)=lo, I1),\n    \
             holdsFor(dead0(x)=true, I2),\n    union_all([I1, I2], I3),\n    \
             relative_complement_all(I3, [I2], I).\n",
        );
    }
    if disjoint_static {
        // `s0` can only be lo/hi: the whole rule is provably empty.
        src.push_str(
            "holdsFor(st1(V)=true, I) :-\n    holdsFor(s0(V)=mid, I1),\n    union_all([I1], I).\n",
        );
    }
    src.push_str(&format!(
        "holdsFor(st0(V)=true, I) :-\n    holdsFor(s0(V)=lo, I1),\n    \
         holdsFor(s1(V)=true, I2),\n    {}.\n",
        STATIC_SHAPES[static_shape]
    ));
    src
}

fn scenario() -> impl Strategy<Value = Scenario> {
    let structure = (
        0u8..32,
        prop::collection::vec(0usize..DEAD_BODIES.len(), 0..4),
        0usize..STATIC_SHAPES.len(),
        prop::collection::vec(0usize..3, 0..3),
    );
    let feed = (
        prop::collection::vec((0usize..4, 0usize..3, 0i64..60), 0..40),
        // Below 6 means "unwindowed".
        0i64..25,
        prop::collection::vec(1i64..70, 1..4),
    );
    (structure, feed).prop_map(
        |((flips, dead_bodies, static_shape, facts_q), (events, window, mut milestones))| {
            milestones.sort_unstable();
            milestones.dedup();
            Scenario {
                desc_src: render_description(flips, &dead_bodies, static_shape, &facts_q),
                events,
                window: (window >= 6).then_some(window),
                milestones,
            }
        },
    )
}

/// Replays the scenario feed into the interpreter and the plan, checking
/// observational equality at every milestone.
fn run_differential(sc: &Scenario) {
    let desc = EventDescription::parse(&sc.desc_src)
        .unwrap_or_else(|e| panic!("parse: {e}\n{}", sc.desc_src));
    let compiled = match desc.compile() {
        Ok(c) => c,
        Err(_) => return,
    };
    let config = match sc.window {
        Some(w) => EngineConfig::windowed(w),
        None => EngineConfig::default(),
    };
    let mut interp = Engine::new(&compiled, config);
    let mut plan = Engine::with_plan(&compiled, config);
    let mut syms = rtec::SymbolTable::new();
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
            &format!("interp vs plan, milestone {i} (run_to {milestone})"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over randomized descriptions salted with statically-empty rules,
    /// disjoint-value queries, undeclared fluents, foldable algebra and
    /// unreachable triggers, the plan is observationally identical to
    /// the interpreter at every milestone.
    #[test]
    fn plan_matches_interpreter_on_salted_descriptions(sc in scenario()) {
        run_differential(&sc);
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
initiatedAt(s1(V)=true, T) :- happensAt(e0(V), T), T >= 50, T < 10.
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

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Interpreter,
    Plan,
}

impl Mode {
    fn engine<'a>(self, compiled: &'a CompiledDescription, config: EngineConfig) -> Engine<'a> {
        match self {
            Mode::Interpreter => Engine::new(compiled, config),
            Mode::Plan => Engine::with_plan(compiled, config),
        }
    }

    fn label(self) -> &'static str {
        match self {
            Mode::Interpreter => "interpreter",
            Mode::Plan => "plan",
        }
    }
}

/// Runs the checkpoint scenario: first half under `first`, checkpoint,
/// restore and finish under `second`. Returns the boundary document and
/// the final observation.
fn run_with_handover(
    compiled: &CompiledDescription,
    first: Mode,
    second: Mode,
) -> (String, (Vec<String>, Vec<String>, String)) {
    let config = EngineConfig::windowed(10);
    let mut engine = first.engine(compiled, config);
    feed_range(&mut engine, 0, 30);
    engine.run_to(30);
    let checkpoint = engine.checkpoint();
    assert_eq!(checkpoint.eval_mode(), Some(first.label()));

    let doc = checkpoint.to_json();
    let parsed = EngineCheckpoint::from_json(&doc).expect("envelope parses");
    assert_eq!(parsed.eval_mode(), Some(first.label()));

    let mut resumed = Engine::restore(compiled, config, &parsed).expect("restore");
    if second == Mode::Plan {
        resumed.set_evaluator(Arc::new(rtec_plan::Plan::compile(compiled)));
    }
    feed_range(&mut resumed, 30, 60);
    resumed.run_to(60);
    (doc, observe(&resumed))
}

/// Checkpoints are portable across both evaluators: every
/// handover combination finishes with byte-identical state, and the
/// boundary documents differ only in the informational `eval_mode`
/// envelope field.
#[test]
fn checkpoints_restore_across_all_eval_modes() {
    let compiled = EventDescription::parse(CKPT_DESC)
        .expect("parses")
        .compile()
        .expect("compiles");

    let modes = [Mode::Interpreter, Mode::Plan];
    let (doc_interp, baseline) = run_with_handover(&compiled, Mode::Interpreter, Mode::Interpreter);
    assert!(
        !baseline.0.is_empty(),
        "scenario must recognise something for the comparison to bite"
    );
    let mut doc_plan = None;
    for first in modes {
        for second in modes {
            if first == Mode::Interpreter && second == Mode::Interpreter {
                continue;
            }
            let (doc, observed) = run_with_handover(&compiled, first, second);
            assert_eq!(
                baseline,
                observed,
                "{} → {} handover diverges",
                first.label(),
                second.label()
            );
            if first == Mode::Plan {
                doc_plan = Some(doc);
            }
        }
    }

    // The boundary documents: identical modulo the envelope label.
    let doc_plan = doc_plan.expect("plan-first handovers ran");
    assert_ne!(doc_interp, doc_plan);
    assert_eq!(
        doc_interp.replace("\"eval_mode\":\"interpreter\"", ""),
        doc_plan.replace("\"eval_mode\":\"plan\"", ""),
        "checkpoint state must not depend on the evaluation mode"
    );
}
