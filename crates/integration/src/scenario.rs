//! The one scenario generator the reference properties draw from: a
//! randomized description over a small language-covering vocabulary,
//! a feed of events and input-fluent intervals, and the window, slide
//! and `run_to` steps the engine runs it with.

use crate::reference::{assert_agrees, Feed, Rows};
use proptest::prelude::*;
use rtec::interval::IntervalList;
use rtec::term::GroundFvp;
use rtec::{EventDescription, SymbolTable, Timepoint};

/// The horizon every randomized scenario runs to.
pub const HORIZON: Timepoint = 70;

/// Optional body literals appended to the `s0` initiations: negated and
/// second positive events, background facts with atom and numeric first
/// arguments (`r/1` has none, so its "no background facts" path runs),
/// a time comparison, and `=` assigning a value a comparison then reads.
pub const EXTRAS: [&str; 10] = [
    ",\n    not happensAt(e3(V), T)",
    ",\n    q(V)",
    ",\n    not q(V)",
    ",\n    p(V, c0)",
    ",\n    T >= 5",
    ",\n    r(V)",
    ",\n    lim(1, c0)",
    ",\n    not lim(2.0, c1)",
    ",\n    D = T * 2,\n    D > 20",
    ",\n    happensAt(e2(V), T)",
];

/// Extra `s1` initiation bodies, mostly rules that can never fire:
///
/// 0. contradictory time comparison;
/// 1. a value `s0` never takes;
/// 2. a fluent no rule defines and no input provides;
/// 3. an event the feed never carries;
/// 4. a contradiction behind a background predicate;
/// 5. a satisfiable rule with a live comparison.
pub const S1_BODIES: [&str; 6] = [
    "happensAt(e0(V), T),\n    T >= 50, T < 10",
    "happensAt(e2(V), T),\n    holdsAt(s0(V)=mid, T)",
    "happensAt(e3(V), T),\n    holdsAt(ghost(V)=true, T)",
    "happensAt(e9(V), T)",
    "happensAt(e0(V), T),\n    q(V),\n    T < 2, T > 90",
    "happensAt(e3(V), T),\n    T >= 4",
];

/// Interval-expression tails of `st0` over `I1` (`s0=lo`) and `I2`
/// (`s1=true`). Shapes 1, 2 and 4 chain operators the plan fuses.
pub const STATIC_SHAPES: [&str; 6] = [
    "union_all([I1, I2], I)",
    "union_all([I1, I2], I3),\n    relative_complement_all(I3, [I2], I)",
    "union_all([I1, I2], I3),\n    union_all([I3, I1], I)",
    "intersect_all([I1, I2], I)",
    "intersect_all([I1, I2], I3),\n    intersect_all([I3, I1], I)",
    "relative_complement_all(I1, [I2], I)",
];

/// Rules over the numeric event `e4(V, N)`, the 2-ary input fluent
/// `lk/2` and the numeric facts `lim/2`: value-assigned and fact-bound
/// heads, a 2-ary simple fluent terminated by a non-ground fluent
/// pattern, lookups of instances and facts by a bound atom, by a bound
/// number and with the first argument unbound.
const LOOKUP_RULES: &str = "
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
initiatedAt(s6(V, C)=true, T) :-
    happensAt(e4(V, N), T),
    lim(N, C).
terminatedAt(s6(V, _C)=true, T) :-
    happensAt(e2(V), T).
initiatedAt(s9(V)=M, T) :-
    happensAt(e4(V, N), T),
    M = N * 10 + 1.
holdsFor(st1(A, V)=true, I) :-
    holdsFor(s1(V)=true, I1),
    holdsFor(lk(A, V)=true, I2),
    intersect_all([I1, I2], I).
holdsFor(st2(V, B)=true, I) :-
    holdsFor(s0(V)=lo, I1),
    holdsFor(lk(V, B)=true, I2),
    union_all([I1, I2], I).
";

/// Which optional rules a description carries, one bit each.
pub mod flip {
    /// `terminatedAt(s0(V)=lo)` on `e2`.
    pub const TERMINATE_LO: u16 = 1;
    /// `terminatedAt(s0(V)=_X)` on `e3`: a pattern termination.
    pub const PATTERN_TERMINATION: u16 = 1 << 1;
    /// The `s1` initiation reads `not holdsAt(s0(V)=lo)`.
    pub const NEGATED_HOLDS_AT: u16 = 1 << 2;
    /// Input declarations: a closed schema.
    pub const DECLARATIONS: u16 = 1 << 3;
    /// `st3` over a defined fluent whose only rule never fires.
    pub const DEAD_STATIC: u16 = 1 << 4;
    /// `st4` over a value `s0` never takes.
    pub const DISJOINT_STATIC: u16 = 1 << 5;
    /// A second `holdsFor` rule for `st0`, unioned with the first.
    pub const SECOND_ST0_RULE: u16 = 1 << 6;
    /// `st5` subtracting a fluent nothing defines.
    pub const UNDEFINED_IN_STATIC: u16 = 1 << 7;
    /// An `initiatedAt` head the body leaves non-ground.
    pub const NON_GROUND_INITIATION: u16 = 1 << 8;
    /// Every bit.
    pub const ALL: u16 = (1 << 9) - 1;
}

/// The structure of one generated description.
#[derive(Clone, Debug)]
pub struct Shape {
    pub extras_lo: Vec<usize>,
    pub extras_hi: Vec<usize>,
    pub flips: u16,
    pub s1_bodies: Vec<usize>,
    pub static_shape: usize,
    pub facts_p: Vec<(usize, usize)>,
    pub facts_q: Vec<usize>,
    /// `(n, written as a float, c)`: the fact `lim(n, cC)`.
    pub facts_lim: Vec<(usize, bool, usize)>,
}

impl Shape {
    pub fn render(&self) -> String {
        let on = |bit: u16| self.flips & bit != 0;
        let mut src = String::new();
        for &(v, c) in &self.facts_p {
            src.push_str(&format!("p(v{v}, c{c}).\n"));
        }
        for &v in &self.facts_q {
            src.push_str(&format!("q(v{v}).\n"));
        }
        for &(n, float, c) in &self.facts_lim {
            let n = if float {
                format!("{n}.0")
            } else {
                n.to_string()
            };
            src.push_str(&format!("lim({n}, c{c}).\n"));
        }
        if on(flip::DECLARATIONS) {
            // The feed carries e0..e4 only, so `e9` is out of schema.
            for e in 0..4 {
                src.push_str(&format!("inputEvent(e{e}/1).\n"));
            }
            src.push_str("inputEvent(e4/2).\ninputFluent(lk/2).\n");
        }
        let extra = |ix: &[usize]| -> String { ix.iter().map(|&i| EXTRAS[i]).collect() };
        // Cross-value initiation: starting `hi` terminates a running `lo`
        // and vice versa.
        src.push_str(&format!(
            "initiatedAt(s0(V)=lo, T) :-\n    happensAt(e0(V), T){}.\n",
            extra(&self.extras_lo)
        ));
        src.push_str(&format!(
            "initiatedAt(s0(V)=hi, T) :-\n    happensAt(e1(V), T){}.\n",
            extra(&self.extras_hi)
        ));
        if on(flip::TERMINATE_LO) {
            src.push_str("terminatedAt(s0(V)=lo, T) :-\n    happensAt(e2(V), T).\n");
        }
        if on(flip::PATTERN_TERMINATION) {
            src.push_str("terminatedAt(s0(V)=_X, T) :-\n    happensAt(e3(V), T).\n");
        }
        let maybe_not = if on(flip::NEGATED_HOLDS_AT) {
            "not "
        } else {
            ""
        };
        src.push_str(&format!(
            "initiatedAt(s1(V)=true, T) :-\n    happensAt(e1(V), T),\n    \
             {maybe_not}holdsAt(s0(V)=lo, T).\n"
        ));
        for &i in &self.s1_bodies {
            src.push_str(&format!(
                "initiatedAt(s1(V)=true, T) :-\n    {}.\n",
                S1_BODIES[i]
            ));
        }
        src.push_str("terminatedAt(s1(V)=true, T) :-\n    happensAt(e0(V), T),\n    T >= 3.\n");
        if on(flip::DEAD_STATIC) {
            src.push_str(
                "initiatedAt(dead0(V)=true, T) :-\n    happensAt(e0(V), T),\n    1 > 2.\n",
            );
            src.push_str(
                "holdsFor(st3(V)=true, I) :-\n    holdsFor(s0(V)=lo, I1),\n    \
                 holdsFor(dead0(x)=true, I2),\n    union_all([I1, I2], I3),\n    \
                 relative_complement_all(I3, [I2], I).\n",
            );
        }
        if on(flip::DISJOINT_STATIC) {
            src.push_str(
                "holdsFor(st4(V)=true, I) :-\n    holdsFor(s0(V)=mid, I1),\n    union_all([I1], I).\n",
            );
        }
        src.push_str(&format!(
            "holdsFor(st0(V)=true, I) :-\n    holdsFor(s0(V)=lo, I1),\n    \
             holdsFor(s1(V)=true, I2),\n    {}.\n",
            STATIC_SHAPES[self.static_shape]
        ));
        if on(flip::SECOND_ST0_RULE) {
            src.push_str(
                "holdsFor(st0(V)=true, I) :-\n    holdsFor(s5(V)=true, I1),\n    \
                 holdsFor(s0(V)=hi, I2),\n    intersect_all([I1, I2], I).\n",
            );
        }
        if on(flip::UNDEFINED_IN_STATIC) {
            src.push_str(
                "holdsFor(st5(V)=true, I) :-\n    holdsFor(s1(V)=true, I1),\n    \
                 holdsFor(ghost2(V)=true, I2),\n    relative_complement_all(I1, [I2], I).\n",
            );
        }
        if on(flip::NON_GROUND_INITIATION) {
            src.push_str("initiatedAt(s8(V)=_Z, T) :-\n    happensAt(e1(V), T).\n");
        }
        src.push_str(LOOKUP_RULES);
        src
    }
}

/// One generated scenario: a description, a feed and the engine
/// configurations.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub shape: Shape,
    /// `(event 0..5, entity 0..3, time)`; `e4` carries the integer
    /// `1 + time % 2`.
    pub events: Vec<(usize, usize, Timepoint)>,
    /// `lk(A, vB)=true` over `[start, start + length)`: `(A 0..5, B 0..3,
    /// start, length)`. `A` 3 and 4 are the floats `1.0` and `2.0`.
    pub inputs: Vec<(usize, usize, Timepoint, Timepoint)>,
    pub window: Timepoint,
    /// 0: slide 1 (maximal overlap), 1: slide == window (none), else a
    /// mid-range slide.
    pub slide_sel: Timepoint,
    /// `run_to` steps before the horizon.
    pub milestones: Vec<Timepoint>,
}

impl Scenario {
    pub fn slide(&self) -> Timepoint {
        match self.slide_sel {
            0 => 1,
            1 => self.window,
            s => (s % self.window).max(1),
        }
    }

    pub fn feed(&self) -> Feed {
        let mut symbols = SymbolTable::new();
        let mut term = |src: &str| rtec::parser::parse_term(src, &mut symbols).expect("parses");
        let events = self
            .events
            .iter()
            .map(|&(ev, v, t)| {
                let src = match ev {
                    4 => format!("e4(v{v}, {})", 1 + t % 2),
                    _ => format!("e{ev}(v{v})"),
                };
                (term(&src), t)
            })
            .collect();
        let inputs = self
            .inputs
            .iter()
            .map(|&(a, b, start, len)| {
                let first = match a {
                    3 => "1.0".to_string(),
                    4 => "2.0".to_string(),
                    _ => format!("v{a}"),
                };
                let fvp = GroundFvp::new(term(&format!("lk({first}, v{b})")), term("true"))
                    .expect("ground");
                (fvp, IntervalList::from_pairs(&[(start, start + len)]))
            })
            .collect();
        Feed {
            symbols,
            events,
            inputs,
        }
    }

    pub fn steps(&self) -> Vec<Timepoint> {
        self.milestones.iter().copied().chain([HORIZON]).collect()
    }

    /// Checks every configuration against the reference; returns the
    /// reference rows (none for a description that does not compile).
    pub fn check(&self) -> Rows {
        let src = self.shape.render();
        let desc = EventDescription::parse(&src).unwrap_or_else(|e| panic!("parse: {e}\n{src}"));
        let Ok(compiled) = desc.compile() else {
            return Rows::new();
        };
        assert_agrees(
            &compiled,
            &self.feed(),
            &self.steps(),
            (self.window, self.slide()),
            &format!("{self:?}\n{src}"),
        )
    }
}

pub fn scenario() -> impl Strategy<Value = Scenario> {
    let structure = (
        prop::collection::vec(0usize..EXTRAS.len(), 0..3),
        prop::collection::vec(0usize..EXTRAS.len(), 0..3),
        0u16..flip::ALL + 1,
        prop::collection::vec(0usize..S1_BODIES.len(), 0..3),
        0usize..STATIC_SHAPES.len(),
    );
    let facts = (
        prop::collection::vec((0usize..3, 0usize..2), 0..4),
        prop::collection::vec(0usize..3, 0..3),
        prop::collection::vec((1usize..3, 0u8..2, 0usize..2), 0..4),
    );
    let feed = (
        prop::collection::vec((0usize..5, 0usize..3, 0i64..60), 0..40),
        prop::collection::vec((0usize..5, 0usize..3, 0i64..60, 1i64..20), 0..6),
        6i64..25,
        0i64..6,
        prop::collection::vec(1i64..HORIZON, 0..4),
    );
    (structure, facts, feed).prop_map(
        |(
            (extras_lo, extras_hi, flips, s1_bodies, static_shape),
            (facts_p, facts_q, facts_lim),
            (events, inputs, window, slide_sel, mut milestones),
        )| {
            milestones.sort_unstable();
            milestones.dedup();
            Scenario {
                shape: Shape {
                    extras_lo,
                    extras_hi,
                    flips,
                    s1_bodies,
                    static_shape,
                    facts_p,
                    facts_q,
                    facts_lim: facts_lim
                        .into_iter()
                        .map(|(n, float, c)| (n, float == 1, c))
                        .collect(),
                },
                events,
                inputs,
                window,
                slide_sel,
                milestones,
            }
        },
    )
}

/// A fixed scenario over `shape`: a feed on which every rule of the
/// full description fires.
pub fn fixed(shape: Shape) -> Scenario {
    Scenario {
        shape,
        events: vec![
            (0, 0, 2),
            (1, 0, 7),
            (0, 1, 9),
            (4, 0, 10),
            (4, 0, 11),
            (2, 0, 12),
            (1, 1, 14),
            (0, 0, 21),
            (2, 0, 24),
            (2, 1, 24),
            (3, 0, 26),
            (0, 2, 30),
            (3, 2, 30),
            (3, 1, 33),
            (4, 1, 36),
            (3, 0, 40),
            (1, 2, 44),
            (2, 2, 50),
        ],
        inputs: vec![(3, 0, 5, 25), (1, 0, 0, 50), (0, 2, 20, 20), (2, 1, 30, 10)],
        window: 8,
        slide_sel: 3,
        milestones: vec![13, 29, 41],
    }
}

pub fn base_shape(flips: u16) -> Shape {
    Shape {
        extras_lo: vec![],
        extras_hi: vec![],
        flips,
        s1_bodies: vec![],
        static_shape: 1,
        facts_p: vec![(0, 0), (2, 1)],
        facts_q: vec![0],
        facts_lim: vec![(1, true, 0), (2, false, 1)],
    }
}
