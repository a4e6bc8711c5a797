//! Event descriptions: parsing, compilation, dependency analysis.
//!
//! An [`EventDescription`] is the parsed form of an RTEC program — the set
//! of clauses formalising the composite activities of a domain (the paper
//! calls this set an *event description*). Compiling it validates every
//! clause, indexes rules by the fluent they define, and computes a
//! bottom-up evaluation order over the fluent dependency graph (RTEC's
//! activity hierarchies; cyclic definitions are rejected).

use crate::ast::{BodyLiteral, Clause, FluentKey, SimpleRule, StaticLiteral, StaticRule};
use crate::background::FactStore;
use crate::error::{RtecError, RtecResult, ValidationReport};
use crate::parser::{parse_program, parse_program_lenient, parse_term};
use crate::plan::Plan;
use crate::semantics::{FluentGraph, StratifyFailure};
use crate::symbol::SymbolTable;
use crate::term::{GroundFvp, Term};
use crate::validate::{validate, SysSymbols};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A parsed (but not yet compiled) event description.
#[derive(Clone, Debug)]
pub struct EventDescription {
    /// Symbol table shared by all terms of the description.
    pub symbols: SymbolTable,
    /// The clauses, in source order.
    pub clauses: Vec<Clause>,
    /// Errors collected when parsing leniently (empty for strict parses).
    pub parse_errors: Vec<RtecError>,
}

impl EventDescription {
    /// Parses strictly: the first syntax error aborts.
    pub fn parse(src: &str) -> RtecResult<EventDescription> {
        let mut symbols = SymbolTable::new();
        let clauses = parse_program(src, &mut symbols)?;
        Ok(EventDescription {
            symbols,
            clauses,
            parse_errors: Vec::new(),
        })
    }

    /// Parses leniently: malformed clauses are skipped and recorded in
    /// [`EventDescription::parse_errors`]. This is the entry point for
    /// LLM-generated text.
    pub fn parse_lenient(src: &str) -> EventDescription {
        let mut symbols = SymbolTable::new();
        let (clauses, parse_errors) = parse_program_lenient(src, &mut symbols);
        EventDescription {
            symbols,
            clauses,
            parse_errors,
        }
    }

    /// Builds an event description from pre-parsed clauses.
    pub fn from_clauses(symbols: SymbolTable, clauses: Vec<Clause>) -> EventDescription {
        EventDescription {
            symbols,
            clauses,
            parse_errors: Vec::new(),
        }
    }

    /// Parses a term in this description's symbol table (handy for building
    /// events and query patterns).
    pub fn term(&mut self, src: &str) -> RtecResult<Term> {
        parse_term(src, &mut self.symbols)
    }

    /// Parses a ground FVP written as `fluent=value`.
    pub fn fvp(&mut self, src: &str) -> RtecResult<GroundFvp> {
        let t = self.term(src)?;
        let eq = self.symbols.intern("=");
        let fvp = crate::ast::Fvp::from_term(&t, eq)
            .ok_or_else(|| RtecError::eval(format!("'{src}' is not of the form F=V")))?;
        GroundFvp::new(fvp.fluent, fvp.value)
            .ok_or_else(|| RtecError::eval(format!("'{src}' is not ground")))
    }

    /// Renders the description back to concrete syntax.
    pub fn to_source(&self) -> String {
        self.clauses
            .iter()
            .map(|c| c.display(&self.symbols))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Validates and compiles the description for execution.
    ///
    /// Returns an error only for fatal, description-wide problems (cyclic
    /// fluent dependencies). Per-clause violations are collected in the
    /// compiled description's [`ValidationReport`] and the offending
    /// clauses excluded, mirroring how a human would set aside broken
    /// LLM-generated rules while running the rest.
    pub fn compile(&self) -> RtecResult<CompiledDescription> {
        let mut symbols = self.symbols.clone();
        let validated = validate(&self.clauses, &mut symbols);
        let sys = SysSymbols::intern(&mut symbols);
        CompiledDescription::from_validated(symbols, sys, validated)
    }
}

/// An executable event description.
#[derive(Clone, Debug)]
pub struct CompiledDescription {
    /// Symbol table snapshot (self-contained; independent of the source
    /// description).
    pub symbols: SymbolTable,
    /// Reserved-predicate symbols.
    pub sys: SysSymbols,
    /// Simple-fluent rules.
    pub simple: Vec<SimpleRule>,
    /// Statically-determined-fluent rules.
    pub statics: Vec<StaticRule>,
    /// Background knowledge.
    pub facts: FactStore,
    /// Validation findings (rejected clauses, tolerated deviations).
    pub report: ValidationReport,
    /// Fluents defined by rules, in bottom-up evaluation order.
    pub strata: Vec<FluentKey>,
    /// Indices into [`CompiledDescription::simple`], per fluent.
    pub simple_by_fluent: HashMap<FluentKey, Vec<usize>>,
    /// Indices into [`CompiledDescription::statics`], per fluent.
    pub static_by_fluent: HashMap<FluentKey, Vec<usize>>,
    /// The evaluation plan lowered from the rules above, once, when the
    /// description was compiled; clones share it.
    plan: Arc<Plan>,
}

impl CompiledDescription {
    /// Compiles rules already validated against `symbols` (the table
    /// [`validate`] interned the reserved names into, described by
    /// `sys`): sets aside cross-rule conflicts, indexes rules by fluent,
    /// stratifies and lowers the evaluation plan.
    /// [`EventDescription::compile`] is `validate` followed by this.
    pub fn from_validated(
        symbols: SymbolTable,
        sys: SysSymbols,
        validated: crate::validate::ValidatedRules,
    ) -> RtecResult<CompiledDescription> {
        let crate::validate::ValidatedRules {
            mut simple,
            mut statics,
            facts,
            mut report,
        } = validated;

        // A fluent must be either simple or statically determined, never
        // both (the paper's two FVP kinds are mutually exclusive). When an
        // LLM mixes them we keep the simple definition and reject the
        // holdsFor rules, reporting each.
        let simple_keys: HashSet<FluentKey> = simple.iter().filter_map(|r| r.fvp.key()).collect();
        let mut rejected_static = Vec::new();
        for (i, r) in statics.iter().enumerate() {
            if let Some(key) = r.fvp.key() {
                if simple_keys.contains(&key) {
                    report.push(
                        crate::error::Severity::Error,
                        r.clause,
                        format!(
                            "fluent '{}/{}' is defined both as simple and as statically \
                             determined; rejecting the holdsFor rule",
                            symbols.name(key.0),
                            key.1
                        ),
                    );
                    rejected_static.push(i);
                }
            }
        }
        for &i in rejected_static.iter().rev() {
            statics.remove(i);
        }

        // Rules whose head FVP has no usable key cannot be indexed.
        simple.retain(|r| {
            let ok = r.fvp.key().is_some();
            if !ok {
                report.push(
                    crate::error::Severity::Error,
                    r.clause,
                    "head fluent is not a predicate".to_string(),
                );
            }
            ok
        });
        statics.retain(|r| {
            let ok = r.fvp.key().is_some();
            if !ok {
                report.push(
                    crate::error::Severity::Error,
                    r.clause,
                    "head fluent is not a predicate".to_string(),
                );
            }
            ok
        });

        let mut simple_by_fluent: HashMap<FluentKey, Vec<usize>> = HashMap::new();
        for (i, r) in simple.iter().enumerate() {
            simple_by_fluent
                .entry(r.fvp.key().expect("retained above"))
                .or_default()
                .push(i);
        }
        let mut static_by_fluent: HashMap<FluentKey, Vec<usize>> = HashMap::new();
        for (i, r) in statics.iter().enumerate() {
            static_by_fluent
                .entry(r.fvp.key().expect("retained above"))
                .or_default()
                .push(i);
        }

        let strata = stratify(
            &symbols,
            &simple,
            &statics,
            &simple_by_fluent,
            &static_by_fluent,
        )?;

        let mut desc = CompiledDescription {
            symbols,
            sys,
            simple,
            statics,
            facts: FactStore::from_facts(facts),
            report,
            strata,
            simple_by_fluent,
            static_by_fluent,
            plan: Arc::default(),
        };
        desc.plan = Arc::new(Plan::compile(&desc));
        Ok(desc)
    }

    /// The evaluation plan every engine over this description runs.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Whether `key` is defined by some rule of this description.
    pub fn defines(&self, key: FluentKey) -> bool {
        self.simple_by_fluent.contains_key(&key) || self.static_by_fluent.contains_key(&key)
    }

    /// The set of fluent keys referenced in rule bodies but defined nowhere
    /// in this description — the paper's third error category ("conditions
    /// include composite activities that are not defined"). Input entities
    /// (events, input fluents) must be excluded by the caller, who knows
    /// the input schema.
    pub fn referenced_fluents(&self) -> HashSet<FluentKey> {
        let mut out = HashSet::new();
        for r in &self.simple {
            for lit in &r.body {
                if let BodyLiteral::HoldsAt { fvp, .. } = lit {
                    if let Some(k) = fvp.key() {
                        out.insert(k);
                    }
                }
            }
        }
        for r in &self.statics {
            for lit in &r.body {
                if let StaticLiteral::HoldsFor { fvp, .. } = lit {
                    if let Some(k) = fvp.key() {
                        out.insert(k);
                    }
                }
            }
        }
        out
    }
}

/// Computes a bottom-up evaluation order of the defined fluents via the
/// shared dependency graph ([`crate::semantics`]); errors out on cycles.
fn stratify(
    symbols: &SymbolTable,
    simple: &[SimpleRule],
    statics: &[StaticRule],
    simple_by_fluent: &HashMap<FluentKey, Vec<usize>>,
    static_by_fluent: &HashMap<FluentKey, Vec<usize>>,
) -> RtecResult<Vec<FluentKey>> {
    let defined = simple_by_fluent
        .keys()
        .chain(static_by_fluent.keys())
        .copied();
    let graph = FluentGraph::from_rules(defined, simple, statics);
    graph.stratify().map_err(|failure| match failure {
        StratifyFailure::SelfCycle((f, a)) => RtecError::CyclicDependency {
            cycle: format!("{}/{} depends on itself", symbols.name(f), a),
        },
        StratifyFailure::Cycle(members) => RtecError::CyclicDependency {
            cycle: members
                .iter()
                .map(|(f, a)| format!("{}/{}", symbols.name(*f), a))
                .collect::<Vec<_>>()
                .join(" -> "),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_simple_description() {
        let desc = EventDescription::parse(
            "initiatedAt(f(V)=true, T) :- happensAt(e(V), T).\n\
             terminatedAt(f(V)=true, T) :- happensAt(x(V), T).\n\
             holdsFor(g(V)=true, I) :- holdsFor(f(V)=true, I1), union_all([I1], I).",
        )
        .unwrap();
        let c = desc.compile().unwrap();
        assert!(!c.report.has_errors());
        assert_eq!(c.simple.len(), 2);
        assert_eq!(c.statics.len(), 1);
        // f must come before g in the evaluation order.
        let f = c.symbols.get("f").unwrap();
        let g = c.symbols.get("g").unwrap();
        let fi = c.strata.iter().position(|k| k.0 == f).unwrap();
        let gi = c.strata.iter().position(|k| k.0 == g).unwrap();
        assert!(fi < gi);
    }

    #[test]
    fn hierarchy_orders_deep_chains() {
        let desc = EventDescription::parse(
            "holdsFor(c(V)=true, I) :- holdsFor(b(V)=true, I1), union_all([I1], I).\n\
             holdsFor(b(V)=true, I) :- holdsFor(a(V)=true, I1), union_all([I1], I).\n\
             initiatedAt(a(V)=true, T) :- happensAt(e(V), T).\n\
             initiatedAt(d(V)=true, T) :- happensAt(e(V), T), holdsAt(c(V)=true, T).",
        )
        .unwrap();
        let c = desc.compile().unwrap();
        let pos = |n: &str| {
            let s = c.symbols.get(n).unwrap();
            c.strata.iter().position(|k| k.0 == s).unwrap()
        };
        assert!(pos("a") < pos("b"));
        assert!(pos("b") < pos("c"));
        assert!(pos("c") < pos("d"));
    }

    #[test]
    fn cyclic_descriptions_are_rejected() {
        let desc = EventDescription::parse(
            "holdsFor(a(V)=true, I) :- holdsFor(b(V)=true, I1), union_all([I1], I).\n\
             holdsFor(b(V)=true, I) :- holdsFor(a(V)=true, I1), union_all([I1], I).",
        )
        .unwrap();
        assert!(matches!(
            desc.compile(),
            Err(RtecError::CyclicDependency { .. })
        ));
    }

    #[test]
    fn self_dependency_rejected() {
        let desc = EventDescription::parse(
            "initiatedAt(a(V)=true, T) :- happensAt(e(V), T), holdsAt(a(V)=false, T).",
        )
        .unwrap();
        assert!(matches!(
            desc.compile(),
            Err(RtecError::CyclicDependency { .. })
        ));
    }

    #[test]
    fn mixed_fluent_kind_keeps_simple_rejects_static() {
        let desc = EventDescription::parse(
            "initiatedAt(f(V)=true, T) :- happensAt(e(V), T).\n\
             holdsFor(f(V)=true, I) :- holdsFor(g(V)=true, I1), union_all([I1], I).",
        )
        .unwrap();
        let c = desc.compile().unwrap();
        assert_eq!(c.simple.len(), 1);
        assert!(c.statics.is_empty());
        assert!(c.report.has_errors());
    }

    #[test]
    fn lenient_parse_keeps_good_clauses() {
        let desc = EventDescription::parse_lenient(
            "initiatedAt(f(V)=true, T) :- happensAt(e(V), T).\n\
             this is (not { valid prolog.\n\
             terminatedAt(f(V)=true, T) :- happensAt(x(V), T).",
        );
        assert_eq!(desc.clauses.len(), 2);
        assert!(!desc.parse_errors.is_empty());
    }

    /// Sources that parse cleanly: rules of both kinds, facts,
    /// declarations, comments, numbers, lists, negation and comparisons.
    const CLEAN: [&str; 4] = [
        "initiatedAt(f(V)=true, T) :- happensAt(e(V), T).",
        "% a comment\n\
         inputEvent(velocity/4).\n\
         areaType(a1, fishing).\n\
         initiatedAt(fast(V)=true, T) :- happensAt(velocity(V, S, _H, _C), T), S > 12.5.\n\
         terminatedAt(fast(V)=true, T) :- happensAt(velocity(V, S, _H, _C), T), S =< 12.5.\n\
         holdsFor(g(V)=true, I) :- holdsFor(fast(V)=true, I1), \
             relative_complement_all(I1, [], I2), union_all([I2], I).",
        "initiatedAt(w(V, A)=true, T) :- happensAt(enter(V, A), T), \
             not holdsAt(w(V, A)=true, T), areaType(A, -3).",
        "",
    ];

    /// Sources that fail: a parse error after good clauses, one in the
    /// first clause, and lexical errors (which take the parser's
    /// line-by-line fallback).
    const FAILING: [&str; 4] = [
        "initiatedAt(f(V)=true, T) :- happensAt(e(V), T).\n\
         terminatedAt(f(V)=true, T) :- happensAt(x(V) T).\n\
         initiatedAt(g(V)=true, T) :- happensAt(e(V), T).",
        "initiatedAt(f(V)=true T) :- happensAt(e(V), T).",
        "initiatedAt(f(V)=true, T) :- happensAt(e(V), T).\n\
         terminatedAt(f(V)=true, T) : happensAt(x(V), T).",
        "initiatedAt(f(V)=true, T) :- happensAt(e(V), T) # oops.\n\
         terminatedAt(f(V)=true, T) :- happensAt(x(V), T).",
    ];

    #[test]
    fn clean_lenient_parse_is_the_strict_parse() {
        for src in CLEAN {
            let strict = EventDescription::parse(src).expect("parses strictly");
            let lenient = EventDescription::parse_lenient(src);
            assert!(lenient.parse_errors.is_empty(), "{src}");
            assert_eq!(lenient.clauses, strict.clauses, "{src}");
            let names = |d: &EventDescription| -> Vec<String> {
                d.symbols.iter().map(|(_, n)| n.to_string()).collect()
            };
            assert_eq!(names(&lenient), names(&strict), "{src}");
        }
    }

    #[test]
    fn first_lenient_error_is_the_strict_error() {
        for src in FAILING {
            let strict = EventDescription::parse(src).expect_err("strict parse fails");
            let lenient = EventDescription::parse_lenient(src);
            let first = lenient.parse_errors.first().expect("lenient records it");
            assert_eq!(first.to_string(), strict.to_string(), "{src}");
        }
    }

    #[test]
    fn to_source_round_trips() {
        let src = "initiatedAt(f(V)=true, T) :- happensAt(e(V), T), not holdsAt(g(V)=true, T).";
        let desc = EventDescription::parse(src).unwrap();
        let printed = desc.to_source();
        let reparsed = EventDescription::parse(&printed).unwrap();
        assert_eq!(desc.clauses[0].head, reparsed.clauses[0].head);
        assert_eq!(desc.clauses[0].body.len(), reparsed.clauses[0].body.len());
    }

    #[test]
    fn referenced_fluents_reports_undefined() {
        let desc = EventDescription::parse(
            "holdsFor(g(V)=true, I) :- holdsFor(phantom(V)=true, I1), union_all([I1], I).",
        )
        .unwrap();
        let c = desc.compile().unwrap();
        let phantom = c.symbols.get("phantom").unwrap();
        assert!(c.referenced_fluents().contains(&(phantom, 1)));
        assert!(!c.defines((phantom, 1)));
    }
}
