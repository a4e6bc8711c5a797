//! Differential tests of the plan every engine runs.
//!
//! "Interpreter" here is the brute-force interpreter of the point
//! semantics in `integration::reference`: the plan must recognise what
//! it derives at every `run_to` step of a randomized run, on salted
//! descriptions whose dead rules must change nothing, and on the
//! maritime gold description. Checkpoints carry an evaluator label in
//! their envelope; every label ever written restores to the state of an
//! uninterrupted run, and the profiler observes the plan without
//! changing what it computes.

use integration::reference::{assert_agrees, engine_rows, reference_rows, Feed};
use integration::scenario::{flip, scenario, Scenario};
use proptest::prelude::*;
use rtec::checkpoint::{write_envelope, EngineCheckpoint, EVALUATOR_LABELS};
use rtec::description::CompiledDescription;
use rtec::{Engine, EngineConfig, EventDescription, Timepoint};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every `run_to` step, not only at the horizon, the rows of a
    /// batch and of a sliding-incremental engine equal the reference's
    /// over the events up to that step.
    #[test]
    fn plan_matches_interpreter_on_random_descriptions(sc in scenario()) {
        let src = sc.shape.render();
        let desc = EventDescription::parse(&src).unwrap_or_else(|e| panic!("parse: {e}\n{src}"));
        let Ok(compiled) = desc.compile() else {
            return;
        };
        let feed = sc.feed();
        for config in [
            EngineConfig::default(),
            EngineConfig::sliding(sc.window, sc.slide()).with_incremental(true),
        ] {
            let mut engine = Engine::new(&compiled, config);
            for (fvp, list) in &feed.inputs {
                engine.add_input_intervals_from(fvp, &feed.symbols, list.clone());
            }
            let mut from = Timepoint::MIN;
            for to in sc.steps() {
                for (event, t) in feed.events.iter().filter(|(_, t)| *t > from && *t <= to) {
                    engine.add_event_from(event, &feed.symbols, *t);
                }
                engine.run_to(to);
                from = to;
                prop_assert_eq!(
                    engine_rows(&engine),
                    reference_rows(&compiled, &feed, to),
                    "{:?} at run_to({})\n{}",
                    config,
                    to,
                    src
                );
            }
        }
    }
}

/// `sc` with every provably dead ingredient of the generator switched
/// on: input declarations, a `holdsFor` over a value never taken, a
/// non-ground initiation, and the five `s1` initiations that can never
/// fire.
fn salted(sc: &Scenario) -> Scenario {
    let mut salted = sc.clone();
    salted.shape.flips |= flip::DECLARATIONS | flip::DISJOINT_STATIC | flip::NON_GROUND_INITIATION;
    salted.shape.s1_bodies.extend(0..5);
    salted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A description salted with rules that can never fire agrees with
    /// the reference, and its rows are the unsalted description's.
    #[test]
    fn plan_matches_interpreter_on_salted_descriptions(sc in scenario()) {
        let plain = sc.check();
        prop_assert_eq!(salted(&sc).check(), plain, "{}", salted(&sc).shape.render());
    }
}

/// The gold description over the small Brest scenario agrees with the
/// reference in batch, tumbling and sliding-incremental runs, and
/// recognises something.
#[test]
fn plan_matches_interpreter_on_maritime_gold() {
    let dataset = maritime::Dataset::generate(&maritime::BrestScenario::small());
    let compiled = dataset.gold_description().compile().expect("gold compiles");
    let horizon = dataset.horizon() + 1;
    let feed = Feed {
        symbols: dataset.stream.symbols.clone(),
        events: dataset.stream.events().to_vec(),
        inputs: dataset.stream.intervals().to_vec(),
    };
    let steps = [horizon / 3, 2 * horizon / 3, horizon];
    let rows = assert_agrees(&compiled, &feed, &steps, (3600, 600), "maritime gold");
    assert!(
        !rows.is_empty(),
        "gold must recognise something for the comparison to bite"
    );
}

// ---------------------------------------------------------------------
// Checkpoints and the profiler
// ---------------------------------------------------------------------

/// A description with an inertia carry across windows, a multi-valued
/// fluent, a pattern termination, a rule that can never fire and a
/// static fluent.
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

const CKPT_FEED: [(&str, Timepoint); 10] = [
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
];

/// The run every checkpoint test stops and resumes.
const END: Timepoint = 60;

fn ckpt_description() -> CompiledDescription {
    EventDescription::parse(CKPT_DESC)
        .expect("parses")
        .compile()
        .expect("compiles")
}

/// Adds the feed's events in `[from, to)`.
fn feed_range(engine: &mut Engine<'_>, from: Timepoint, to: Timepoint) {
    let mut syms = rtec::SymbolTable::new();
    for (src, t) in CKPT_FEED {
        if t >= from && t < to {
            let term = rtec::parser::parse_term(src, &mut syms).expect("event parses");
            engine.add_event_from(&term, &syms, t);
        }
    }
}

/// Everything observable about an engine: sorted rendered output rows,
/// the warning log, and the canonical checkpoint state JSON.
type Observation = (Vec<String>, Vec<String>, String);

fn observe(engine: &Engine<'_>) -> Observation {
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

/// The windowed run over the whole feed, uninterrupted.
fn uninterrupted(compiled: &CompiledDescription) -> Observation {
    let mut engine = Engine::new(compiled, EngineConfig::windowed(10));
    feed_range(&mut engine, 0, END);
    engine.run_to(END);
    let observed = observe(&engine);
    assert!(
        !observed.0.is_empty(),
        "the feed must recognise something for the comparison to bite"
    );
    observed
}

/// The checkpoint of the windowed run stopped at `boundary`.
fn checkpoint_at(compiled: &CompiledDescription, boundary: Timepoint) -> EngineCheckpoint {
    let mut engine = Engine::new(compiled, EngineConfig::windowed(10));
    feed_range(&mut engine, 0, boundary);
    engine.run_to(boundary);
    engine.checkpoint()
}

/// Restores `doc` and runs the rest of the feed from `boundary`.
fn resume(compiled: &CompiledDescription, doc: &str, boundary: Timepoint) -> Observation {
    let parsed = EngineCheckpoint::from_json(doc).expect("envelope parses");
    let mut resumed =
        Engine::restore(compiled, EngineConfig::windowed(10), &parsed).expect("restore");
    feed_range(&mut resumed, boundary, END);
    resumed.run_to(END);
    observe(&resumed)
}

/// A checkpoint the engine writes mid-stream is labelled `plan`, survives
/// its JSON envelope, and resumes to the rows, warnings and state bytes
/// of an uninterrupted run. The same state written under the label of
/// the evaluator the engine used to run (`interpreter`) differs only in
/// that label, and resumes alike.
#[test]
fn checkpoints_restore_across_eval_modes() {
    let compiled = ckpt_description();
    let expected = uninterrupted(&compiled);

    let checkpoint = checkpoint_at(&compiled, 30);
    assert_eq!(checkpoint.eval_mode(), Some("plan"));
    let doc_plan = checkpoint.to_json();
    let parsed = EngineCheckpoint::from_json(&doc_plan).expect("envelope parses");
    assert_eq!(parsed.eval_mode(), Some("plan"));
    assert_eq!(resume(&compiled, &doc_plan, 30), expected, "plan handover");

    let mut doc_interp = String::new();
    write_envelope(&mut doc_interp, Some("interpreter"), |out| {
        checkpoint.write_state(out)
    });
    assert_ne!(doc_interp, doc_plan);
    assert_eq!(
        doc_interp.replace("\"eval_mode\":\"interpreter\"", ""),
        doc_plan.replace("\"eval_mode\":\"plan\"", ""),
        "checkpoint state must not depend on the evaluator label"
    );
    assert_eq!(
        resume(&compiled, &doc_interp, 30),
        expected,
        "interpreter handover"
    );
}

/// Every evaluator label a checkpoint has carried restores, at every
/// window boundary of the run, to the state of an uninterrupted run.
#[test]
fn checkpoints_restore_across_all_eval_modes() {
    let compiled = ckpt_description();
    let expected = uninterrupted(&compiled);
    for boundary in (10..END).step_by(10) {
        let checkpoint = checkpoint_at(&compiled, boundary);
        for label in EVALUATOR_LABELS {
            let mut doc = String::new();
            write_envelope(&mut doc, Some(label), |out| checkpoint.write_state(out));
            let parsed = EngineCheckpoint::from_json(&doc).expect("envelope parses");
            assert_eq!(parsed.eval_mode(), Some(label));
            assert_eq!(
                resume(&compiled, &doc, boundary),
                expected,
                "{label} checkpoint at {boundary}"
            );
        }
    }
}

/// The profiler is a pure observer of the plan: profiled and unprofiled
/// engines are observationally identical, and the profile attributes
/// one evaluation per window to each fluent of the description, with
/// its kind.
#[test]
fn plan_profiler_attributes_without_perturbing_output() {
    let compiled = ckpt_description();
    let run = |profiled: bool| {
        let mut engine = Engine::new(&compiled, EngineConfig::windowed(10));
        if profiled {
            engine.enable_profiler();
        }
        feed_range(&mut engine, 0, END);
        engine.run_to(END);
        (observe(&engine), engine.profile().cloned())
    };
    let (plain, no_profile) = run(false);
    let (profiled, profile) = run(true);
    assert!(no_profile.is_none());
    assert_eq!(plain, profiled, "profiling perturbed the plan's output");
    let profile = profile.expect("profiler enabled");
    // Windows end at 9, 19, ..., 59 and 60.
    assert_eq!(profile.windows, 7);
    let mut rows: Vec<(String, &'static str, u64)> = profile
        .sorted()
        .into_iter()
        .map(|e| (e.name, e.kind.as_str(), e.cost.calls))
        .collect();
    rows.sort();
    assert_eq!(
        rows,
        [
            ("s0/1".to_string(), "simple", 7),
            ("s1/1".to_string(), "simple", 7),
            ("st0/1".to_string(), "static", 7),
        ]
    );
}
