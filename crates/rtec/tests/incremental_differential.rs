//! Differential tests pinning incremental sliding-window evaluation to
//! full recomputation: over randomized descriptions, window/slide
//! configurations and out-of-order arrival patterns, the incremental
//! mode must be *observationally identical* — same intervals, same
//! warnings in first-occurrence order, byte-identical normalized
//! checkpoints — to the full-replay mode, including the
//! `slide == window` (zero overlap) and `slide == 1` (maximal overlap)
//! edges. See `docs/SCALE.md` for the semantics being pinned; what the
//! rows themselves must be is pinned by the point-semantics reference in
//! `crates/integration/src/reference.rs`.

use proptest::prelude::*;
use rtec::engine::{Engine, EngineConfig};
use rtec::{EventDescription, Timepoint};

/// Everything observable about an engine: sorted rendered output rows,
/// the warning log, and the canonical checkpoint state JSON (the
/// normalized form — no envelope, so the informational evaluator label
/// does not participate).
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

// ---------------------------------------------------------------------
// Randomized scenarios
// ---------------------------------------------------------------------

/// A randomized recognition scenario: a description with cross-value
/// terminations, negation and a static fluent; an event feed where each
/// event carries an *arrival segment* (so events can arrive out of
/// order, behind the query frontier); and a sliding configuration.
#[derive(Debug, Clone)]
struct Scenario {
    desc_src: String,
    /// `(event index 0..4, entity index 0..3, time, arrival segment)`.
    events: Vec<(usize, usize, Timepoint, usize)>,
    window: Timepoint,
    /// 0 => slide 1 (maximal overlap), 1 => slide == window (zero
    /// overlap), otherwise a mid-range slide.
    slide_sel: Timepoint,
    milestones: Vec<Timepoint>,
}

impl Scenario {
    fn slide(&self) -> Timepoint {
        match self.slide_sel {
            0 => 1,
            1 => self.window,
            s => (s % self.window).max(1),
        }
    }
}

const EXTRAS: [&str; 4] = [
    ",\n    not happensAt(e3(V), T)",
    ",\n    q(V)",
    ",\n    not q(V)",
    ",\n    T >= 5",
];

const STATIC_SHAPES: [&str; 4] = [
    "union_all([I1, I2], I)",
    "union_all([I1, I2], I3),\n    relative_complement_all(I3, [I2], I)",
    "intersect_all([I1, I2], I)",
    "relative_complement_all(I1, [I2], I)",
];

fn render_description(
    extras_lo: &[usize],
    flips: u8,
    static_shape: usize,
    facts_q: &[usize],
) -> String {
    let (term_lo, pattern_term, s1_neg) = (flips & 1 != 0, flips & 2 != 0, flips & 4 != 0);
    let mut src = String::new();
    for &v in facts_q {
        src.push_str(&format!("q(v{v}).\n"));
    }
    let extra: String = extras_lo.iter().map(|&i| EXTRAS[i]).collect();
    src.push_str(&format!(
        "initiatedAt(s0(V)=lo, T) :-\n    happensAt(e0(V), T){extra}.\n"
    ));
    src.push_str("initiatedAt(s0(V)=hi, T) :-\n    happensAt(e1(V), T).\n");
    if term_lo {
        src.push_str("terminatedAt(s0(V)=lo, T) :-\n    happensAt(e2(V), T).\n");
    }
    if pattern_term {
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
        0u8..8,
        0usize..STATIC_SHAPES.len(),
        prop::collection::vec(0usize..3, 0..3),
    );
    let feed = (
        prop::collection::vec((0usize..4, 0usize..3, 0i64..60, 0usize..4), 0..40),
        6i64..25,
        0i64..6,
        prop::collection::vec(1i64..70, 1..4),
    );
    (structure, feed).prop_map(
        |(
            (extras_lo, flips, static_shape, facts_q),
            (events, window, slide_sel, mut milestones),
        )| {
            milestones.sort_unstable();
            milestones.dedup();
            Scenario {
                desc_src: render_description(&extras_lo, flips, static_shape, &facts_q),
                events,
                window,
                slide_sel,
                milestones,
            }
        },
    )
}

/// Builds the two sliding engines (full and incremental), replays the
/// scenario with its out-of-order arrival pattern into each, and checks
/// observational equality at every milestone.
fn run_differential(sc: &Scenario) {
    let desc = EventDescription::parse(&sc.desc_src)
        .unwrap_or_else(|e| panic!("parse: {e}\n{}", sc.desc_src));
    let compiled = match desc.compile() {
        Ok(c) => c,
        Err(_) => return,
    };
    let full = EngineConfig::sliding(sc.window, sc.slide());
    let incr = full.with_incremental(true);
    let mut engines = [
        ("full", Engine::new(&compiled, full)),
        ("incr", Engine::new(&compiled, incr)),
    ];
    let mut syms = rtec::SymbolTable::new();
    let segments = sc.milestones.len();
    for (seg, &milestone) in sc.milestones.iter().enumerate() {
        for &(ev, v, t, s) in &sc.events {
            // Events of later segments arrive later — possibly behind
            // the query frontier, exercising amendment and fallback.
            if s.min(segments - 1) == seg {
                let term = rtec::parser::parse_term(&format!("e{ev}(v{v})"), &mut syms)
                    .expect("event parses");
                for (_, engine) in engines.iter_mut() {
                    engine.add_event_from(&term, &syms, t);
                }
            }
        }
        let mut baseline: Option<(Vec<String>, Vec<String>, String)> = None;
        for (label, engine) in engines.iter_mut() {
            engine.run_to(milestone);
            let seen = observe(engine);
            match &baseline {
                None => baseline = Some(seen),
                Some(base) => {
                    assert_eq!(
                        base.0, seen.0,
                        "{label}: output rows diverge at milestone {milestone}\n{}",
                        sc.desc_src
                    );
                    assert_eq!(
                        base.1, seen.1,
                        "{label}: warnings diverge at milestone {milestone}"
                    );
                    assert_eq!(
                        base.2, seen.2,
                        "{label}: checkpoint state diverges at milestone {milestone}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Incremental sliding evaluation is byte-identical to full
    /// recomputation over randomized descriptions, window/slide configurations (including the
    /// slide==1 and slide==window edges via `slide_sel`) and
    /// out-of-order arrivals.
    #[test]
    fn incremental_matches_full_recompute(sc in scenario()) {
        run_differential(&sc);
    }
}

// ---------------------------------------------------------------------
// Deterministic edges
// ---------------------------------------------------------------------

const EDGE_DESC: &str = "
initiatedAt(s0(V)=lo, T) :- happensAt(e0(V), T).
initiatedAt(s0(V)=hi, T) :- happensAt(e1(V), T).
terminatedAt(s0(V)=_X, T) :- happensAt(e3(V), T).
initiatedAt(s1(V)=true, T) :- happensAt(e1(V), T), holdsAt(s0(V)=lo, T).
terminatedAt(s1(V)=true, T) :- happensAt(e0(V), T).
holdsFor(st0(V)=true, I) :-
    holdsFor(s0(V)=lo, I1),
    holdsFor(s1(V)=true, I2),
    relative_complement_all(I1, [I2], I).
";

fn edge_feed() -> Vec<(&'static str, Timepoint)> {
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

/// Both edge configurations: incremental equals full equals the
/// tumbling batch oracle when events arrive in order.
#[test]
fn edge_slides_match_batch_oracle() {
    let compiled = EventDescription::parse(EDGE_DESC)
        .expect("parses")
        .compile()
        .expect("compiles");
    let mut syms = rtec::SymbolTable::new();
    let feed: Vec<(rtec::Term, Timepoint)> = edge_feed()
        .into_iter()
        .map(|(src, t)| {
            (
                rtec::parser::parse_term(src, &mut syms).expect("event parses"),
                t,
            )
        })
        .collect();

    let mut oracle = Engine::new(&compiled, EngineConfig::default());
    for (term, t) in &feed {
        oracle.add_event_from(term, &syms, *t);
    }
    oracle.run_to(60);
    let (oracle_rows, oracle_warns, _) = observe(&oracle);
    assert!(!oracle_rows.is_empty(), "oracle must recognise something");

    for (window, slide) in [(10, 1), (10, 10), (7, 3)] {
        let full = EngineConfig::sliding(window, slide);
        for (label, config) in [("full", full), ("incr", full.with_incremental(true))] {
            let mut engine = Engine::new(&compiled, config);
            for (term, t) in &feed {
                engine.add_event_from(term, &syms, *t);
            }
            engine.run_to(60);
            let (rows, warns, _) = observe(&engine);
            assert_eq!(
                oracle_rows, rows,
                "{label} w={window} s={slide}: rows diverge from batch"
            );
            assert_eq!(oracle_warns, warns, "{label}: warnings diverge from batch");
        }
    }
}

/// Input-fluent intervals arriving between queries force the
/// incremental shortcut to fall back to replay; output stays identical
/// to the full mode.
#[test]
fn input_interval_arrival_falls_back_identically() {
    const SRC: &str = "
initiatedAt(s0(V)=lo, T) :- happensAt(e0(V), T).
terminatedAt(s0(V)=lo, T) :- happensAt(e3(V), T).
holdsFor(st0(V)=true, I) :-
    holdsFor(s0(V)=lo, I1),
    holdsFor(inp(V)=true, I2),
    intersect_all([I1, I2], I).
inputFluent(inp(_V)=true).
";
    let run = |incremental: bool| {
        let mut desc = EventDescription::parse(SRC).expect("parses");
        let e0 = desc.term("e0(v0)").unwrap();
        let e3 = desc.term("e3(v0)").unwrap();
        let inp = desc.fvp("inp(v0)=true").unwrap();
        let compiled = desc.compile().expect("compiles");
        let config = EngineConfig::sliding(10, 2).with_incremental(incremental);
        let mut engine = Engine::new(&compiled, config);
        engine.add_event(e0, 3);
        engine.run_to(8);
        engine.add_input_intervals(inp, rtec::IntervalList::from_pairs(&[(5, 30)]));
        engine.add_event(e3, 22);
        engine.run_to(40);
        let symbols = engine.symbols().clone();
        let out = engine.output().clone();
        let mut state = String::new();
        engine.checkpoint().write_state(&mut state);
        let mut rows: Vec<String> = out
            .iter()
            .map(|(fvp, list)| format!("{} = {}", fvp.display(&symbols), list))
            .collect();
        rows.sort();
        (rows, out.warnings.clone(), state)
    };
    let full = run(false);
    let incr = run(true);
    assert_eq!(full, incr);
    assert!(!full.0.is_empty(), "scenario must recognise something");
}
