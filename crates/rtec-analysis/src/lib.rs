//! # rtec-analysis — abstract interpretation over RTEC evaluation plans
//!
//! A whole-program static analysis over the lowered IR of [`rtec::plan`]. For
//! every rule and every defined fluent it computes:
//!
//! * **value-domain facts** — per-variable constant / finite-set /
//!   numeric-interval lattices ([`domain::Dom`]), seeded from background
//!   facts baked into the plan and from the derivable value sets of
//!   referenced fluents;
//! * **emptiness proofs** — rules whose body can never be satisfied on
//!   any conforming input stream: contradictory comparisons, values
//!   outside a fluent's derivable set, references to fluents that can
//!   never hold, interval algebra whose output register is provably
//!   always empty, and (under a closed input schema) trigger events
//!   that can never occur;
//! * **reachability / productivity per fluent** — can it ever hold, and
//!   (for simple fluents) can it ever terminate once initiated — the
//!   source of silent forget-horizon blowup.
//!
//! The same interpreter runs under two sets of assumptions:
//!
//! * **lint semantics** mirror the engine's runtime behaviour on the
//!   description alone: a fluent that is neither defined nor declared
//!   never holds (the engine warns and fails such references). These
//!   results feed the `RL1xxx` diagnostics in `rtec-lint` and the
//!   [`Analysis`] facts tables.
//! * **strict semantics** only admit conclusions that are sound for
//!   *any* stream conforming to the declared input schema; with no
//!   declarations the schema is open and undeclared fluents may be fed
//!   by the stream. These results are the [`Proofs`] that
//!   `rtec-cli analyze` summarises.
//!
//! ```
//! use rtec::description::EventDescription;
//!
//! let desc = EventDescription::parse(
//!     "initiatedAt(hot(V)=true, T) :- happensAt(reading(V, C), T), C > 10, C < 5.
//!      initiatedAt(hot(V)=true, T) :- happensAt(overheat(V), T).
//!      terminatedAt(hot(V)=true, T) :- happensAt(cool(V), T).",
//! )
//! .unwrap()
//! .compile()
//! .unwrap();
//! let analysis = rtec_analysis::analyze(&desc);
//! // The first rule's comparisons are contradictory.
//! assert!(analysis.rules[0].empty.is_some());
//! assert!(analysis.rules[1].empty.is_none());
//! // The fluent itself still holds through the second rule.
//! assert!(analysis.fluents.iter().all(|f| f.can_hold));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod domain;
mod interp;

use domain::Dom;
use rtec::ast::{FluentKey, SimpleKind};
use rtec::description::CompiledDescription;
use rtec::plan::Plan;
use rtec::term::Term;
use std::collections::{BTreeSet, HashMap};

/// Why a rule body can never be satisfied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EmptyReason {
    /// An always-false comparison or an unmatchable background lookup.
    Contradiction(String),
    /// A fluent is queried with a value outside its derivable set.
    DisjointValue {
        /// The queried fluent, as `name/arity`.
        fluent: String,
        /// The offending value (pre-rendered).
        value: String,
    },
    /// A positive reference to a fluent that can never hold.
    NeverHolds {
        /// The referenced fluent, as `name/arity`.
        fluent: String,
    },
    /// The rule's interval-algebra output register is provably always
    /// empty.
    EmptyAlgebra {
        /// The head fluent, as `name/arity`.
        fluent: String,
    },
    /// The rule's trigger event is not in the closed input schema.
    UnreachableTrigger {
        /// The trigger signature, as `name/arity`.
        event: String,
    },
}

impl EmptyReason {
    /// One human-readable sentence.
    pub fn describe(&self) -> String {
        match self {
            EmptyReason::Contradiction(s) => s.clone(),
            EmptyReason::DisjointValue { fluent, value } => {
                format!("fluent `{fluent}` is queried with {value}, which no rule can derive")
            }
            EmptyReason::NeverHolds { fluent } => {
                format!("requires fluent `{fluent}`, which can never hold")
            }
            EmptyReason::EmptyAlgebra { fluent } => {
                format!("interval algebra for `{fluent}` always produces an empty list")
            }
            EmptyReason::UnreachableTrigger { event } => {
                format!("trigger event `{event}` is not a declared input event")
            }
        }
    }
}

/// What kind of rule a [`RuleFacts`] entry describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleKind {
    /// An `initiatedAt` rule.
    Initiated,
    /// A `terminatedAt` rule.
    Terminated,
    /// A `holdsFor` rule.
    HoldsFor,
}

impl RuleKind {
    /// The concrete-syntax predicate name.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleKind::Initiated => "initiatedAt",
            RuleKind::Terminated => "terminatedAt",
            RuleKind::HoldsFor => "holdsFor",
        }
    }
}

/// Per-rule analysis results (lint semantics).
#[derive(Clone, Debug)]
pub struct RuleFacts {
    /// Index of the originating clause in the event description.
    pub clause: usize,
    /// The rule kind.
    pub kind: RuleKind,
    /// The head fluent key.
    pub head: FluentKey,
    /// The head, rendered as `fluent=value`.
    pub head_display: String,
    /// The emptiness proof, if the body can never be satisfied.
    pub empty: Option<EmptyReason>,
    /// Final `(variable, domain)` facts per rule variable, rendered.
    pub slots: Vec<(String, String)>,
}

/// Per-fluent analysis results (lint semantics).
#[derive(Clone, Debug)]
pub struct FluentFacts {
    /// The fluent key.
    pub key: FluentKey,
    /// The fluent, as `name/arity`.
    pub name: String,
    /// Whether the fluent is simple (initiated/terminated) rather than
    /// statically determined.
    pub simple: bool,
    /// Whether the fluent can ever hold.
    pub can_hold: bool,
    /// For simple fluents: whether it can ever terminate once initiated
    /// (through a satisfiable `terminatedAt` rule or a cross-value
    /// initiation). `None` for static fluents, which carry no inertia.
    pub can_terminate: Option<bool>,
    /// The derivable value set, when finite and fully ground.
    pub values: Option<Vec<String>>,
    /// The fluent's defining clauses.
    pub clauses: Vec<usize>,
}

/// Stream-independent emptiness and reachability evidence: conclusions
/// of the strict-semantics run, sound for any stream that conforms to
/// the description's declared input schema and does not inject
/// intervals for rule-defined fluents.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Proofs {
    /// Fluents that can never hold on any conforming stream: every
    /// defining rule is strictly unsatisfiable, or (under a closed
    /// input schema) the fluent is neither defined nor declared as an
    /// input.
    pub never_holds: BTreeSet<FluentKey>,
    /// Clause indices of rules whose body is unsatisfiable on every
    /// conforming stream — contradictory comparisons, disjoint value
    /// sets, or (for static rules) a candidate seed that provably
    /// yields zero candidates.
    pub unsat_clauses: BTreeSet<usize>,
    /// Clause indices of simple rules whose leading `happensAt`
    /// signature is not a declared input event and not derivable from
    /// any rule (closed input schema only).
    pub unreachable_clauses: BTreeSet<usize>,
}

impl Proofs {
    /// Whether nothing was proven.
    pub fn is_empty(&self) -> bool {
        self.never_holds.is_empty()
            && self.unsat_clauses.is_empty()
            && self.unreachable_clauses.is_empty()
    }
}

/// The complete analysis of one plan.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Per-rule facts, in stratum order (lint semantics).
    pub rules: Vec<RuleFacts>,
    /// Per-fluent facts, in stratum (bottom-up) order (lint semantics).
    pub fluents: Vec<FluentFacts>,
    /// Whether the description declares inputs (closed schema).
    pub closed_schema: bool,
    proofs: Proofs,
}

impl Analysis {
    /// Stream-independent proofs (strict semantics — sound for any
    /// conforming stream).
    pub fn proofs(&self) -> &Proofs {
        &self.proofs
    }

    /// The fluents that can never hold under lint semantics.
    pub fn never_holding(&self) -> impl Iterator<Item = &FluentFacts> {
        self.fluents.iter().filter(|f| !f.can_hold)
    }

    /// Renders the per-rule and per-fluent facts tables (the output of
    /// `rtec-cli analyze`).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "schema: {}\n\nfluents ({}):\n",
            if self.closed_schema {
                "closed (input declarations present)"
            } else {
                "open (no input declarations)"
            },
            self.fluents.len()
        ));
        out.push_str("  fluent                  kind    holds  terminates  values\n");
        for f in &self.fluents {
            let values = match &f.values {
                Some(v) if v.is_empty() => "{}".to_string(),
                Some(v) => format!("{{{}}}", v.join(", ")),
                None => "any".to_string(),
            };
            out.push_str(&format!(
                "  {:<23} {:<7} {:<6} {:<11} {}\n",
                f.name,
                if f.simple { "simple" } else { "static" },
                if f.can_hold { "yes" } else { "NO" },
                match f.can_terminate {
                    Some(true) => "yes",
                    Some(false) => "NO",
                    None => "-",
                },
                values
            ));
        }
        out.push_str(&format!("\nrules ({}):\n", self.rules.len()));
        for r in &self.rules {
            let status = match &r.empty {
                None => "ok".to_string(),
                Some(reason) => format!("EMPTY: {}", reason.describe()),
            };
            out.push_str(&format!(
                "  clause {:>3}  {} {}  —  {}\n",
                r.clause,
                r.kind.as_str(),
                r.head_display,
                status
            ));
            if !r.slots.is_empty() && r.empty.is_none() {
                let rendered: Vec<String> =
                    r.slots.iter().map(|(v, d)| format!("{v}: {d}")).collect();
                out.push_str(&format!("             {}\n", rendered.join(", ")));
            }
        }
        out
    }
}

/// Per-fluent conclusions of one interpreter run.
struct FInfo {
    can_hold: bool,
    values: Option<Vec<Term>>,
}

/// One set of assumptions plus accumulated per-fluent conclusions.
pub(crate) struct Env<'a> {
    desc: &'a CompiledDescription,
    plan: &'a Plan,
    closed: bool,
    input_events: BTreeSet<FluentKey>,
    input_fluents: BTreeSet<FluentKey>,
    /// Whether a fluent that is neither defined nor declared can be
    /// assumed to never hold. Always true under lint semantics; true
    /// only for closed schemas under strict semantics.
    undeclared_never_holds: bool,
    fluents: HashMap<FluentKey, FInfo>,
}

impl<'a> Env<'a> {
    /// Whether a referenced fluent can ever hold under this run's
    /// assumptions. Unanalyzed defined fluents (forward references are
    /// impossible in a stratified plan, but be defensive) and declared
    /// input fluents conservatively can.
    pub(crate) fn can_hold(&self, key: FluentKey) -> bool {
        if let Some(info) = self.fluents.get(&key) {
            return info.can_hold;
        }
        if self.plan.defined().contains(&key) || self.input_fluents.contains(&key) {
            return true;
        }
        !self.undeclared_never_holds
    }

    /// The derivable value set of a referenced fluent, when known to be
    /// finite and ground.
    pub(crate) fn values(&self, key: FluentKey) -> Option<&[Term]> {
        self.fluents
            .get(&key)
            .filter(|i| i.can_hold)
            .and_then(|i| i.values.as_deref())
    }

    /// Renders a key as `name/arity`.
    pub(crate) fn key_name(&self, key: FluentKey) -> String {
        format!("{}/{}", self.desc.symbols.name(key.0), key.1)
    }
}

use interp::{analyze_simple, analyze_static};

/// Parses `inputEvent(name/arity)` / `inputFluent(name/arity)`
/// declaration facts out of the description's fact store, mirroring
/// `rtec-lint`'s model. Returns `None` when no well-formed declaration
/// is present (open schema).
fn declarations(desc: &CompiledDescription) -> Option<(BTreeSet<FluentKey>, BTreeSet<FluentKey>)> {
    let symbols = &desc.symbols;
    let ev = symbols.get("inputEvent");
    let fl = symbols.get("inputFluent");
    let slash = symbols.get("/");
    let (Some(slash), true) = (slash, ev.is_some() || fl.is_some()) else {
        return None;
    };
    let mut events = BTreeSet::new();
    let mut fluents = BTreeSet::new();
    let mut any = false;
    for fact in desc.facts.iter() {
        let Some(sig) = fact.signature() else {
            continue;
        };
        let target = if Some(sig.0) == ev && sig.1 == 1 {
            &mut events
        } else if Some(sig.0) == fl && sig.1 == 1 {
            &mut fluents
        } else {
            continue;
        };
        let spec = &fact.args()[0];
        if spec.signature() != Some((slash, 2)) {
            continue;
        }
        let Some(name) = spec.args()[0].functor() else {
            continue;
        };
        let Term::Int(arity) = spec.args()[1] else {
            continue;
        };
        if arity < 0 {
            continue;
        }
        target.insert((name, arity as usize));
        any = true;
    }
    any.then_some((events, fluents))
}

/// The raw output of one interpreter run.
struct Run {
    rules: Vec<RuleFacts>,
    fluents: Vec<FluentFacts>,
    /// Clause indices with pruning-kind emptiness proofs.
    unsat_clauses: BTreeSet<usize>,
    /// Clause indices with unreachable triggers (closed schema).
    unreachable_clauses: BTreeSet<usize>,
    /// Defined fluents that can never hold.
    never_holds: BTreeSet<FluentKey>,
}

fn run(desc: &CompiledDescription, plan: &Plan, closed: bool, undeclared_never_holds: bool) -> Run {
    let (input_events, input_fluents) = declarations(desc).unwrap_or_default();
    let mut env = Env {
        desc,
        plan,
        closed,
        input_events,
        input_fluents,
        undeclared_never_holds,
        fluents: HashMap::new(),
    };
    let mut out = Run {
        rules: Vec::new(),
        fluents: Vec::new(),
        unsat_clauses: BTreeSet::new(),
        unreachable_clauses: BTreeSet::new(),
        never_holds: BTreeSet::new(),
    };

    let render_slots = |vars: &rtec::plan::ir::VarTable, doms: &[Dom]| -> Vec<(String, String)> {
        vars.syms
            .iter()
            .zip(doms.iter())
            .map(|(v, d)| (desc.symbols.name(*v).to_string(), d.render(&desc.symbols)))
            .collect()
    };

    for stratum in plan.strata() {
        let key = stratum.key;
        let mut clauses: Vec<usize> = Vec::new();
        let mut init_ok = false;
        let mut term_ok = false;
        let mut init_values: Option<Vec<Term>> = Some(Vec::new());
        let mut static_ok = false;
        let mut static_values: Option<Vec<Term>> = Some(Vec::new());

        // Accumulates a satisfiable rule's ground head value into the
        // fluent's derivable set; a non-ground head value makes the set
        // unknown (`None`).
        fn add_value(set: &mut Option<Vec<Term>>, value: Option<Term>) {
            match (set.as_mut(), value) {
                (Some(s), Some(v)) => {
                    if !s.contains(&v) {
                        s.push(v);
                    }
                }
                (Some(_), None) => *set = None,
                (None, _) => {}
            }
        }

        for rule in &stratum.simple {
            clauses.push(rule.rule.clause);
            let (reason, doms) = analyze_simple(rule, &env);
            if let Some(r) = &reason {
                if matches!(r, EmptyReason::UnreachableTrigger { .. }) {
                    out.unreachable_clauses.insert(rule.rule.clause);
                } else {
                    out.unsat_clauses.insert(rule.rule.clause);
                }
            } else {
                let head_value = interp::lterm_term(&rule.head_value);
                match rule.rule.kind {
                    SimpleKind::Initiated => {
                        init_ok = true;
                        add_value(&mut init_values, head_value);
                    }
                    SimpleKind::Terminated => term_ok = true,
                }
            }
            out.rules.push(RuleFacts {
                clause: rule.rule.clause,
                kind: match rule.rule.kind {
                    SimpleKind::Initiated => RuleKind::Initiated,
                    SimpleKind::Terminated => RuleKind::Terminated,
                },
                head: key,
                head_display: rule.rule.fvp.display(&desc.symbols),
                empty: reason,
                slots: render_slots(&rule.vars, &doms),
            });
        }

        for rule in &stratum.statics {
            clauses.push(rule.rule.clause);
            let outcome = analyze_static(rule, key, &env);
            if outcome.reason.is_some() {
                if outcome.prunes {
                    out.unsat_clauses.insert(rule.rule.clause);
                }
            } else {
                static_ok = true;
                add_value(&mut static_values, interp::lterm_term(&rule.head_value));
            }
            out.rules.push(RuleFacts {
                clause: rule.rule.clause,
                kind: RuleKind::HoldsFor,
                head: key,
                head_display: rule.rule.fvp.display(&desc.symbols),
                empty: outcome.reason,
                slots: render_slots(&rule.vars, &outcome.doms),
            });
        }

        let (can_hold, values) = if stratum.has_simple {
            (init_ok, init_values.clone())
        } else {
            (static_ok, static_values)
        };
        // A simple fluent terminates through a satisfiable terminatedAt
        // rule, or through a cross-value initiation (initiating f=v2
        // closes an open f=v1 interval): possible whenever the
        // satisfiable initiation values are not a single known ground
        // value.
        let cross_value = match &init_values {
            None => true,
            Some(vals) => vals.len() >= 2,
        };
        let can_terminate = term_ok || cross_value;
        env.fluents.insert(
            key,
            FInfo {
                can_hold,
                values: values.clone(),
            },
        );
        if !can_hold {
            out.never_holds.insert(key);
        }
        out.fluents.push(FluentFacts {
            key,
            name: env.key_name(key),
            simple: stratum.has_simple,
            can_hold,
            can_terminate: stratum.has_simple.then_some(can_terminate),
            values: values.map(|vs| {
                vs.iter()
                    .map(|v| v.display(&desc.symbols).to_string())
                    .collect()
            }),
            clauses,
        });
    }
    out
}

/// Analyzes the plan of `desc` under both semantics (see the crate
/// docs).
pub fn analyze(desc: &CompiledDescription) -> Analysis {
    let plan = desc.plan();
    let closed = declarations(desc).is_some();
    let lint = run(desc, plan, closed, true);
    // Under a closed schema the two sets of assumptions coincide; with
    // an open schema the strict run must assume undeclared fluents may
    // be fed by the stream.
    let strict = if closed {
        None
    } else {
        Some(run(desc, plan, closed, false))
    };
    let (unsat, unreachable, never) = match &strict {
        Some(s) => (
            s.unsat_clauses.clone(),
            s.unreachable_clauses.clone(),
            s.never_holds.clone(),
        ),
        None => (
            lint.unsat_clauses.clone(),
            lint.unreachable_clauses.clone(),
            lint.never_holds.clone(),
        ),
    };
    Analysis {
        rules: lint.rules,
        fluents: lint.fluents,
        closed_schema: closed,
        proofs: Proofs {
            never_holds: never,
            unsat_clauses: unsat,
            unreachable_clauses: unreachable,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtec::description::EventDescription;

    fn compiled(src: &str) -> CompiledDescription {
        EventDescription::parse(src)
            .expect("parses")
            .compile()
            .expect("compiles")
    }

    fn rule_for(a: &Analysis, clause: usize) -> &RuleFacts {
        a.rules
            .iter()
            .find(|r| r.clause == clause)
            .unwrap_or_else(|| panic!("no facts for clause {clause}"))
    }

    fn fluent_named<'a>(a: &'a Analysis, name: &str) -> &'a FluentFacts {
        a.fluents
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no facts for fluent {name}"))
    }

    #[test]
    fn contradictory_comparisons_are_empty() {
        let a = analyze(&compiled(
            "initiatedAt(f(V)=true, T) :- happensAt(e(V, C), T), C > 10, C < 5.
             initiatedAt(f(V)=true, T) :- happensAt(e(V, C), T), C > 10, C < 20.
             terminatedAt(f(V)=true, T) :- happensAt(g(V), T).",
        ));
        assert!(matches!(
            rule_for(&a, 0).empty,
            Some(EmptyReason::Contradiction(_))
        ));
        assert!(rule_for(&a, 1).empty.is_none());
        // The satisfiable initiation keeps the fluent alive; the empty
        // clause is provable on any stream, so it reaches the proofs.
        assert!(fluent_named(&a, "f/1").can_hold);
        assert!(a.proofs().unsat_clauses.contains(&0));
        assert!(!a.proofs().unsat_clauses.contains(&1));
    }

    #[test]
    fn never_holding_fluent_poisons_dependents_under_lint_semantics() {
        // `ghost` is neither defined nor declared: under lint semantics
        // it never holds, so `f` can never hold either. With an open
        // schema the stream could feed `ghost`, so the strict proofs
        // must stay empty.
        let a = analyze(&compiled(
            "initiatedAt(f(V)=true, T) :- happensAt(e(V), T), holdsAt(ghost(V)=true, T).",
        ));
        assert!(!a.closed_schema);
        assert!(matches!(
            &rule_for(&a, 0).empty,
            Some(EmptyReason::NeverHolds { fluent }) if fluent == "ghost/1"
        ));
        assert!(!fluent_named(&a, "f/1").can_hold);
        assert!(a.proofs().is_empty());
    }

    #[test]
    fn closed_schema_makes_never_holds_a_proof() {
        let a = analyze(&compiled(
            "inputEvent(e/1).
             initiatedAt(f(V)=true, T) :- happensAt(e(V), T), holdsAt(ghost(V)=true, T).",
        ));
        assert!(a.closed_schema);
        assert!(a.proofs().unsat_clauses.contains(&1));
        assert!(a.proofs().never_holds.len() == 1);
    }

    #[test]
    fn closed_schema_flags_unreachable_triggers() {
        let a = analyze(&compiled(
            "inputEvent(e/1).
             initiatedAt(f(V)=true, T) :- happensAt(e(V), T).
             initiatedAt(f(V)=true, T) :- happensAt(phantom(V), T).",
        ));
        assert!(matches!(
            &rule_for(&a, 2).empty,
            Some(EmptyReason::UnreachableTrigger { event }) if event == "phantom/1"
        ));
        assert!(a.proofs().unreachable_clauses.contains(&2));
        assert!(!a.proofs().unsat_clauses.contains(&2));
        assert!(fluent_named(&a, "f/1").can_hold);
    }

    #[test]
    fn disjoint_value_query_is_empty() {
        // `s` can only ever be `lo`; querying `hi` is provably empty.
        let a = analyze(&compiled(
            "initiatedAt(s(V)=lo, T) :- happensAt(e(V), T).
             terminatedAt(s(V)=lo, T) :- happensAt(g(V), T).
             initiatedAt(f(V)=true, T) :- happensAt(e(V), T), holdsAt(s(V)=hi, T).
             terminatedAt(f(V)=true, T) :- happensAt(g(V), T).",
        ));
        assert!(matches!(
            &rule_for(&a, 2).empty,
            Some(EmptyReason::DisjointValue { fluent, .. }) if fluent == "s/1"
        ));
        assert_eq!(
            fluent_named(&a, "s/1").values.as_deref(),
            Some(&["lo".to_string()][..])
        );
        // Sound for any stream: `s`'s value set is closed by its rules.
        assert!(a.proofs().unsat_clauses.contains(&2));
    }

    #[test]
    fn background_facts_narrow_and_refute() {
        let a = analyze(&compiled(
            "areaType(a1, fishing).
             areaType(a2, anchorage).
             initiatedAt(w(V, K)=true, T) :- happensAt(enters(V, A), T), areaType(A, K).
             initiatedAt(bad(V)=true, T) :- happensAt(enters(V, A), T), areaType(A, nowhere).
             terminatedAt(w(V, K)=true, T) :- happensAt(leaves(V), T).
             terminatedAt(bad(V)=true, T) :- happensAt(leaves(V), T).",
        ));
        let w = rule_for(&a, 2);
        assert!(w.empty.is_none());
        let area_dom = w
            .slots
            .iter()
            .find(|(v, _)| v == "A")
            .map(|(_, d)| d.clone())
            .expect("A has a domain");
        assert!(
            area_dom.contains("a1") && area_dom.contains("a2"),
            "{area_dom}"
        );
        assert!(matches!(
            rule_for(&a, 3).empty,
            Some(EmptyReason::Contradiction(_))
        ));
        assert!(a.proofs().unsat_clauses.contains(&3));
    }

    #[test]
    fn single_value_no_termination_is_unproductive() {
        let a = analyze(&compiled(
            "initiatedAt(leak(V)=true, T) :- happensAt(e(V), T).",
        ));
        let f = fluent_named(&a, "leak/1");
        assert!(f.can_hold);
        assert_eq!(f.can_terminate, Some(false));
        // A second initiation value terminates cross-value.
        let b = analyze(&compiled(
            "initiatedAt(st(V)=lo, T) :- happensAt(e(V), T).
             initiatedAt(st(V)=hi, T) :- happensAt(g(V), T).",
        ));
        assert_eq!(fluent_named(&b, "st/1").can_terminate, Some(true));
    }

    #[test]
    fn static_empty_algebra_is_detected_but_not_a_proof() {
        // `src` never holds under lint semantics (no rules, undeclared),
        // so the holdsFor body's output register is provably empty — but
        // the head-instantiation warning still fires at runtime, so the
        // rule must never be deleted.
        let a = analyze(&compiled(
            "holdsFor(agg(V)=true, I) :- holdsFor(src(V)=true, I1), union_all([I1], I).",
        ));
        assert!(matches!(
            &rule_for(&a, 0).empty,
            Some(EmptyReason::NeverHolds { fluent }) if fluent == "src/1"
        ));
        assert!(!fluent_named(&a, "agg/1").can_hold);
        assert!(a.proofs().is_empty());
    }

    #[test]
    fn ground_holds_for_reads_propagate_emptiness_without_pruning() {
        // Ground reads never prune at runtime (they propagate empty
        // lists), so the emptiness must surface as EmptyAlgebra.
        let a = analyze(&compiled(
            "inputEvent(e/1).
             inputEvent(g/1).
             holdsFor(agg=true, I) :- holdsFor(gone(x)=true, I1), union_all([I1], I).
             initiatedAt(gone(V)=true, T) :- happensAt(e(V), T), 1 > 2.
             terminatedAt(gone(V)=true, T) :- happensAt(g(V), T).",
        ));
        assert!(matches!(
            &rule_for(&a, 2).empty,
            Some(EmptyReason::EmptyAlgebra { fluent }) if fluent == "agg/0"
        ));
        // EmptyAlgebra affects can_hold but is not a deletion proof.
        assert!(!fluent_named(&a, "agg/0").can_hold);
        assert!(!a.proofs().unsat_clauses.contains(&2));
        // The contradictory initiation is a proof.
        assert!(a.proofs().unsat_clauses.contains(&3));
    }

    #[test]
    fn table_renders() {
        let a = analyze(&compiled(
            "initiatedAt(f(V)=true, T) :- happensAt(e(V, C), T), C > 10, C < 5.
             terminatedAt(f(V)=true, T) :- happensAt(g(V), T).",
        ));
        let table = a.render_table();
        assert!(table.contains("fluents (1)"), "{table}");
        assert!(table.contains("EMPTY"), "{table}");
        assert!(table.contains("open"), "{table}");
    }
}
