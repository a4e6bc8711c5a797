//! # rtec-lint — whole-description semantic analysis for RTEC
//!
//! `rtec::validate` checks each clause in isolation against the rule
//! syntax of the paper's Definitions 2.2 and 2.4. This crate analyzes a
//! parsed [`EventDescription`] *as a whole*: it builds the fluent/event
//! dependency graph and reports structured [`Diagnostic`]s — each with a
//! stable code (`RL0xxx`), a [`Severity`], the source position of the
//! offending clause, a human-readable message, and (where a fix is
//! obvious) a suggestion.
//!
//! The analysis set targets exactly the error classes that the paper
//! observes in LLM-generated event descriptions (§5.2): undefined
//! activities and out-of-schema references, renamed or re-ordered
//! arguments, wrong fluent kind, dropped conditions that leave
//! variables unbound, and dead or duplicated rules. The full catalogue
//! with triggering examples lives in `docs/LINTS.md`.
//!
//! ## Diagnostic codes
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | [`SYNTAX_ERROR`](codes::SYNTAX_ERROR) | error | the source failed to parse |
//! | [`INVALID_CLAUSE`](codes::INVALID_CLAUSE) | per issue | a clause violates Definition 2.2/2.4 (from `rtec::validate`) |
//! | [`UNDEFINED_FLUENT`](codes::UNDEFINED_FLUENT) | warning / error¹ | a fluent is referenced but never defined or declared |
//! | [`UNDECLARED_EVENT`](codes::UNDECLARED_EVENT) | error¹ | an event is used but not declared as an input |
//! | [`ARITY_MISMATCH`](codes::ARITY_MISMATCH) | warning | one name is used with different arities |
//! | [`KIND_CONFLICT`](codes::KIND_CONFLICT) | error / warning² | one name is defined as both a simple and a static fluent, or used as both an event and a fluent |
//! | [`DEPENDENCY_CYCLE`](codes::DEPENDENCY_CYCLE) | error | the fluent dependency graph is cyclic (stratification impossible) |
//! | [`UNSAFE_VARIABLE`](codes::UNSAFE_VARIABLE) | error / warning³ | a head or comparison variable is never bound by a positive body literal |
//! | [`SINGLETON_VARIABLE`](codes::SINGLETON_VARIABLE) | warning | a variable occurs exactly once in its clause |
//! | [`DEAD_RULE`](codes::DEAD_RULE) | warning | a rule can never fire (fluent never initiated, or body references an undefined fluent) |
//! | [`DUPLICATE_CLAUSE`](codes::DUPLICATE_CLAUSE) | warning | a clause duplicates or is subsumed by an earlier one |
//! | [`UNUSED_DECLARATION`](codes::UNUSED_DECLARATION) | warning | a declared input event/fluent is never referenced |
//! | [`EMPTY_RULE`](codes::EMPTY_RULE) | warning | flow analysis proved the rule body can never be satisfied |
//! | [`UNREACHABLE_FLUENT`](codes::UNREACHABLE_FLUENT) | warning | every rule deriving the fluent is statically empty |
//! | [`NON_TERMINATING_FLUENT`](codes::NON_TERMINATING_FLUENT) | warning | once initiated, the fluent can never terminate |
//!
//! ¹ undefined references are errors when the description carries
//! `inputEvent`/`inputFluent` declarations (the schema is then closed),
//! warnings otherwise. ² the simple-vs-static conflict is an error (the
//! engine rejects such definitions); event/fluent cross-use is a
//! warning. ³ unbound head and comparison variables are errors;
//! unbound variables inside negated literals are warnings.
//!
//! ## Example
//!
//! ```
//! use rtec::prelude::*;
//! use rtec_lint::{analyze, codes};
//!
//! let desc = EventDescription::parse_lenient(
//!     "initiatedAt(moving(V)=true, T) :- happensAt(startMoving(V), T), holdsAt(engine(V)=on, T).",
//! );
//! let report = analyze(&desc);
//! // `engine` is referenced but never defined: RL0101.
//! assert!(report.diagnostics.iter().any(|d| d.code == codes::UNDEFINED_FLUENT));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use rtec::description::EventDescription;
use rtec::error::{Pos, RtecError, Severity};
use rtec::validate::SysSymbols;
use rtec_plan::FrontEnd;
use serde_json::Value;
use std::collections::BTreeMap;

mod checks;
mod flow;
mod model;

pub use model::DescriptionModel;

/// Stable diagnostic codes. Codes are grouped by hundreds: `RL00xx`
/// syntax/validation, `RL01xx` name resolution, `RL02xx` signature
/// consistency, `RL03xx` dependency structure, `RL04xx` variable
/// safety, `RL05xx` redundancy.
pub mod codes {
    /// The source failed to lex or parse.
    pub const SYNTAX_ERROR: &str = "RL0001";
    /// A clause violates the rule syntax of Definition 2.2/2.4
    /// (forwarded from `rtec::validate`).
    pub const INVALID_CLAUSE: &str = "RL0002";
    /// A fluent is referenced (`holdsAt`/`holdsFor`) but never defined
    /// by a rule and never declared as an input fluent.
    pub const UNDEFINED_FLUENT: &str = "RL0101";
    /// An event is used (`happensAt`) but not declared as an input
    /// event (only checked when declarations are present).
    pub const UNDECLARED_EVENT: &str = "RL0102";
    /// One predicate name is used with more than one arity.
    pub const ARITY_MISMATCH: &str = "RL0201";
    /// One name is defined as both a simple and a statically-determined
    /// fluent, or used as both an event and a fluent.
    pub const KIND_CONFLICT: &str = "RL0202";
    /// The fluent dependency graph contains a cycle, so no bottom-up
    /// evaluation order (stratification) exists.
    pub const DEPENDENCY_CYCLE: &str = "RL0301";
    /// A variable in the head or in a negated/comparison literal is
    /// never bound by a positive body literal.
    pub const UNSAFE_VARIABLE: &str = "RL0401";
    /// A variable occurs exactly once in its clause (likely a typo);
    /// prefix with `_` to mark it intentional.
    pub const SINGLETON_VARIABLE: &str = "RL0402";
    /// The rule can never fire: it terminates a fluent that is never
    /// initiated, or its body references a fluent that is neither
    /// defined nor declared.
    pub const DEAD_RULE: &str = "RL0501";
    /// A clause is an exact duplicate of, or is subsumed by, an
    /// earlier clause.
    pub const DUPLICATE_CLAUSE: &str = "RL0502";
    /// A declared input event or fluent is never referenced by any
    /// rule.
    pub const UNUSED_DECLARATION: &str = "RL0503";
    /// The rule body is statically empty: the whole-program abstract
    /// interpreter (`rtec-analysis`) proved it has no solution on any
    /// stream — contradictory comparisons, a fluent value outside the
    /// derivable set, or interval algebra that always yields an empty
    /// list.
    pub const EMPTY_RULE: &str = "RL1001";
    /// A defined fluent can never hold: every initiation / holdsFor
    /// rule is statically empty (flow analysis, transitive through
    /// dependent fluents).
    pub const UNREACHABLE_FLUENT: &str = "RL1002";
    /// A simple fluent can hold but can never terminate once initiated:
    /// no satisfiable `terminatedAt` rule and a single initiation
    /// value, so its intervals only ever end at the forget horizon.
    pub const NON_TERMINATING_FLUENT: &str = "RL1003";
}

/// One structured finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code (one of [`codes`]).
    pub code: &'static str,
    /// Error (the description should be rejected) or warning
    /// (suspicious but runnable).
    pub severity: Severity,
    /// Index of the offending clause in `EventDescription::clauses`,
    /// when the finding is anchored to one.
    pub clause: Option<usize>,
    /// Source position of the offending clause (or token, for syntax
    /// errors).
    pub pos: Option<Pos>,
    /// Human-readable message.
    pub message: String,
    /// A suggested fix, when one is obvious (e.g. "did you mean …?").
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Renders one human-readable line, e.g.
    /// `error[RL0101] (clause 3, line 7:1): undefined fluent ...`.
    pub fn render(&self) -> String {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        let mut out = format!("{sev}[{}]", self.code);
        match (self.clause, self.pos) {
            (Some(c), Some(p)) => out.push_str(&format!(" (clause {c}, line {p})")),
            (Some(c), None) => out.push_str(&format!(" (clause {c})")),
            (None, Some(p)) => out.push_str(&format!(" (line {p})")),
            (None, None) => {}
        }
        out.push_str(&format!(": {}", self.message));
        if let Some(s) = &self.suggestion {
            out.push_str(&format!("\n    help: {s}"));
        }
        out
    }

    /// Serialises the diagnostic as a stable JSON object with keys
    /// `code`, `severity`, `clause`, `line`, `col`, `message`,
    /// `suggestion` (absent fields are `null`).
    pub fn to_json(&self) -> Value {
        let opt = |v: Option<i64>| v.map(Value::from).unwrap_or(Value::Null);
        let mut fields = BTreeMap::new();
        fields.insert("code".to_string(), Value::from(self.code));
        fields.insert(
            "severity".to_string(),
            Value::from(match self.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
            }),
        );
        fields.insert("clause".to_string(), opt(self.clause.map(|c| c as i64)));
        fields.insert("line".to_string(), opt(self.pos.map(|p| i64::from(p.line))));
        fields.insert("col".to_string(), opt(self.pos.map(|p| i64::from(p.col))));
        fields.insert("message".to_string(), Value::from(self.message.clone()));
        fields.insert(
            "suggestion".to_string(),
            self.suggestion
                .clone()
                .map(Value::from)
                .unwrap_or(Value::Null),
        );
        Value::Object(fields)
    }
}

/// The result of analysing one event description.
#[derive(Clone, Debug, Default)]
pub struct AnalysisReport {
    /// All findings, ordered by clause index, then code.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Warning-severity diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Whether any error-severity diagnostic was reported.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Whether the description is completely clean (no errors, no
    /// warnings).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Error-severity diagnostics from the *semantic* passes — i.e.
    /// excluding [`codes::SYNTAX_ERROR`] and [`codes::INVALID_CLAUSE`],
    /// which the parser and per-clause validator already own (the
    /// service maps parse failures to `bad_request` and tolerates
    /// invalid clauses by setting them aside, so only semantic errors
    /// should trigger `invalid_description` rejection).
    pub fn semantic_errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.errors()
            .filter(|d| d.code != codes::SYNTAX_ERROR && d.code != codes::INVALID_CLAUSE)
    }

    /// Whether any semantic (non-syntax, non-validation) error was
    /// reported. This is the predicate `rtec-service` gates session
    /// `open` on.
    pub fn has_semantic_errors(&self) -> bool {
        self.semantic_errors().next().is_some()
    }

    /// The distinct codes that fired, in code order.
    pub fn codes_fired(&self) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = self.diagnostics.iter().map(|d| d.code).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Serialises the report as a stable JSON array of diagnostic
    /// objects (see [`Diagnostic::to_json`]).
    pub fn to_json(&self) -> Value {
        Value::Array(self.diagnostics.iter().map(Diagnostic::to_json).collect())
    }

    /// Renders all findings as human-readable lines.
    pub fn render(&self) -> String {
        self.diagnostics
            .iter()
            .map(Diagnostic::render)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Analyses a lenient-parsed source string: shorthand for [`lint`] over
/// [`FrontEnd::lenient`].
pub fn analyze_source(src: &str) -> AnalysisReport {
    lint(&FrontEnd::lenient(src))
}

/// Runs every analysis pass over `desc`: shorthand for [`lint`] over
/// [`FrontEnd::from_parsed`].
pub fn analyze(desc: &EventDescription) -> AnalysisReport {
    lint(&FrontEnd::from_parsed(String::new(), desc.clone()))
}

/// Runs every analysis pass over a description's front-end value and
/// returns the collected diagnostics, ordered by clause index then
/// code. Reads the value's parse, validated rules, compiled description
/// and plan; validates, compiles and lowers nothing itself.
pub fn lint(front: &FrontEnd) -> AnalysisReport {
    let desc = &front.parsed;
    let mut diagnostics = Vec::new();

    // RL0001: syntax errors recorded by the lenient parser.
    for err in &desc.parse_errors {
        let pos = match err {
            RtecError::Lex { pos, .. } | RtecError::Parse { pos, .. } => Some(*pos),
            _ => None,
        };
        diagnostics.push(Diagnostic {
            code: codes::SYNTAX_ERROR,
            severity: Severity::Error,
            clause: None,
            pos,
            message: err.to_string(),
            suggestion: None,
        });
    }

    // Per-clause validation (Definitions 2.2/2.4), forwarded as RL0002.
    // Validation interns only the reserved names, so interning them
    // into the parse's table rebuilds the table it validated against.
    let mut symbols = desc.symbols.clone();
    let sys = SysSymbols::intern(&mut symbols);
    let validated = &front.validated;
    for issue in &validated.report.issues {
        diagnostics.push(Diagnostic {
            code: codes::INVALID_CLAUSE,
            severity: issue.severity,
            clause: Some(issue.clause),
            pos: desc.clauses.get(issue.clause).map(|c| c.pos),
            message: issue.message.clone(),
            suggestion: None,
        });
    }

    // Whole-description semantic passes over the validated rule set.
    let model = DescriptionModel::build(desc, validated, &sys, &mut symbols);
    // Whole-program flow analysis (rtec-analysis): absent when the
    // description does not compile (e.g. a dependency cycle, which
    // RL0301 reports); `dead_rules` then falls back to its local
    // heuristic.
    let flow = front
        .compiled
        .as_ref()
        .ok()
        .map(|c| rtec_analysis::analyze(c));
    let flow_never_holds = flow.as_ref().map(|a| flow::never_holding(a, &model));
    checks::undefined_references(&model, &mut diagnostics);
    checks::arity_consistency(&model, &mut diagnostics);
    checks::kind_conflicts(&model, &mut diagnostics);
    checks::dependency_cycles(&model, &mut diagnostics);
    checks::variable_safety(&model, &mut diagnostics);
    checks::singleton_variables(&model, &mut diagnostics);
    checks::dead_rules(&model, flow_never_holds.as_ref(), &mut diagnostics);
    checks::duplicate_clauses(&model, &mut diagnostics);
    checks::unused_declarations(&model, &mut diagnostics);
    if let Some(analysis) = &flow {
        flow::flow_lints(analysis, &model, &mut diagnostics);
    }

    diagnostics.sort_by(|a, b| (a.clause, a.code, &a.message).cmp(&(b.clause, b.code, &b.message)));
    AnalysisReport { diagnostics }
}

/// Levenshtein edit distance, used for "did you mean …?" suggestions.
pub(crate) fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests;
