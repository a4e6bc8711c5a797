//! The individual analysis passes. Each takes the prebuilt
//! [`DescriptionModel`] and appends [`Diagnostic`]s; `analyze` sorts
//! the combined list afterwards.

use crate::model::DescriptionModel;
use crate::{codes, Diagnostic};
use rtec::ast::{BodyLiteral, CmpOp, FluentKey, SimpleKind, StaticLiteral};
use rtec::error::Severity;
use rtec::semantics::FluentGraph;
use rtec::symbol::Symbol;
use rtec::term::Term;
use std::collections::{BTreeMap, BTreeSet};

pub(crate) fn diag(
    model: &DescriptionModel<'_>,
    code: &'static str,
    severity: Severity,
    clause: Option<usize>,
    message: String,
    suggestion: Option<String>,
) -> Diagnostic {
    Diagnostic {
        code,
        severity,
        clause,
        pos: clause
            .and_then(|c| model.desc.clauses.get(c))
            .map(|c| c.pos),
        message,
        suggestion,
    }
}

/// RL0101 / RL0102: fluents referenced but never defined or declared;
/// events used but not declared (when declarations close the schema).
pub fn undefined_references(model: &DescriptionModel<'_>, out: &mut Vec<Diagnostic>) {
    let severity = if model.has_declarations {
        Severity::Error
    } else {
        Severity::Warning
    };
    let mut seen = BTreeSet::new();
    for r in &model.fluent_refs {
        if model.fluent_known(r.key) || !seen.insert(r.key) {
            continue;
        }
        let known = model
            .defined
            .keys()
            .copied()
            .chain(model.input_fluents.iter().copied());
        let suggestion = model
            .nearest_key(r.key, known)
            .map(|k| format!("did you mean `{}`?", model.key_name(k)));
        let tail = if model.has_declarations {
            " and is not declared as an input fluent"
        } else {
            ""
        };
        out.push(diag(
            model,
            codes::UNDEFINED_FLUENT,
            severity,
            Some(r.clause),
            format!(
                "fluent `{}` is referenced but never defined{tail}",
                model.key_name(r.key)
            ),
            suggestion,
        ));
    }
    if !model.has_declarations {
        return;
    }
    let mut seen = BTreeSet::new();
    for r in &model.event_refs {
        if model.input_events.contains(&r.key) || !seen.insert(r.key) {
            continue;
        }
        let suggestion = model
            .nearest_key(r.key, model.input_events.iter().copied())
            .map(|k| format!("did you mean `{}`?", model.key_name(k)));
        out.push(diag(
            model,
            codes::UNDECLARED_EVENT,
            Severity::Error,
            Some(r.clause),
            format!(
                "event `{}` is not declared as an input event",
                model.key_name(r.key)
            ),
            suggestion,
        ));
    }
}

/// RL0201: one name used with more than one arity within a namespace
/// (events, fluents, background predicates). Atom constants (arity 0)
/// are exempt — `sar` the constant and `sar/1` the fluent may coexist.
pub fn arity_consistency(model: &DescriptionModel<'_>, out: &mut Vec<Diagnostic>) {
    type Uses = BTreeMap<Symbol, BTreeMap<usize, Vec<Option<usize>>>>;
    let mut namespaces: [(&str, Uses); 3] = [
        ("event", BTreeMap::new()),
        ("fluent", BTreeMap::new()),
        ("background predicate", BTreeMap::new()),
    ];
    let mut record = |ns: usize, key: FluentKey, clause: Option<usize>| {
        if key.1 == 0 {
            return;
        }
        namespaces[ns]
            .1
            .entry(key.0)
            .or_default()
            .entry(key.1)
            .or_default()
            .push(clause);
    };
    for r in &model.event_refs {
        record(0, r.key, Some(r.clause));
    }
    for &key in &model.input_events {
        record(0, key, None);
    }
    for r in &model.fluent_refs {
        record(1, r.key, Some(r.clause));
    }
    for (&key, def) in &model.defined {
        for &c in def
            .init_clauses
            .iter()
            .chain(&def.term_clauses)
            .chain(&def.static_clauses)
        {
            record(1, key, Some(c));
        }
    }
    for &key in &model.input_fluents {
        record(1, key, None);
    }
    for &(sig, clause) in &model.atemporal_sigs {
        record(2, sig, Some(clause));
    }
    for &sig in &model.fact_sigs {
        record(2, sig, None);
    }

    for (ns_name, uses) in &namespaces {
        for (&name, arities) in uses {
            if arities.len() < 2 {
                continue;
            }
            // Anchor at the least-used arity: that is usually the typo.
            let (&odd_arity, odd_uses) = arities
                .iter()
                .min_by_key(|(_, v)| v.len())
                .expect("at least two arities");
            let listing = arities
                .iter()
                .map(|(a, v)| {
                    format!(
                        "{}/{} ({} use{})",
                        model.symbols.name(name),
                        a,
                        v.len(),
                        if v.len() == 1 { "" } else { "s" }
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            let clause = odd_uses.iter().flatten().copied().next();
            out.push(diag(
                model,
                codes::ARITY_MISMATCH,
                Severity::Warning,
                clause,
                format!(
                    "{ns_name} `{}` is used with inconsistent arities: {listing}",
                    model.symbols.name(name)
                ),
                Some(format!(
                    "check the arguments of `{}/{odd_arity}` against the other uses",
                    model.symbols.name(name)
                )),
            ));
        }
    }
}

/// RL0202: a fluent defined by both simple (`initiatedAt`/`terminatedAt`)
/// and static (`holdsFor`) rules — the engine rejects such definitions —
/// and names used as both events and fluents.
pub fn kind_conflicts(model: &DescriptionModel<'_>, out: &mut Vec<Diagnostic>) {
    for (&key, def) in &model.defined {
        let simple = def.init_clauses.iter().chain(&def.term_clauses).min();
        let stat = def.static_clauses.iter().min();
        if let (Some(&simple_clause), Some(&static_clause)) = (simple, stat) {
            out.push(diag(
                model,
                codes::KIND_CONFLICT,
                Severity::Error,
                Some(static_clause.max(simple_clause)),
                format!(
                    "fluent `{}` is defined both as a simple fluent (initiatedAt/terminatedAt, clause {}) and as a statically-determined fluent (holdsFor, clause {})",
                    model.key_name(key),
                    simple_clause,
                    static_clause
                ),
                Some("keep either the initiatedAt/terminatedAt rules or the holdsFor rules, not both".into()),
            ));
        }
    }

    let event_keys: BTreeSet<FluentKey> = model
        .event_refs
        .iter()
        .map(|r| r.key)
        .chain(model.input_events.iter().copied())
        .collect();
    let mut seen = BTreeSet::new();
    for r in &model.fluent_refs {
        if event_keys.contains(&r.key) && seen.insert(r.key) {
            out.push(diag(
                model,
                codes::KIND_CONFLICT,
                Severity::Warning,
                Some(r.clause),
                format!(
                    "`{}` is used both as an event (happensAt) and as a fluent",
                    model.key_name(r.key)
                ),
                None,
            ));
        }
    }
    for (&key, def) in &model.defined {
        if event_keys.contains(&key) && seen.insert(key) {
            let clause = def
                .init_clauses
                .iter()
                .chain(&def.term_clauses)
                .chain(&def.static_clauses)
                .min()
                .copied();
            out.push(diag(
                model,
                codes::KIND_CONFLICT,
                Severity::Warning,
                clause,
                format!(
                    "`{}` is used both as an event (happensAt) and defined as a fluent",
                    model.key_name(key)
                ),
                None,
            ));
        }
    }
}

/// RL0301: cycles in the fluent dependency graph. A cycle makes the
/// engine's stratified bottom-up evaluation impossible; `compile()`
/// would fail with `CyclicDependency`, so the analyzer reports it
/// first, with positions. The graph itself — and the cycle enumeration —
/// lives in [`rtec::semantics`], shared with the compiler's stratifier,
/// which also orders the plan's strata.
pub fn dependency_cycles(model: &DescriptionModel<'_>, out: &mut Vec<Diagnostic>) {
    // clause index -> defined key, so body refs can be attributed.
    let mut clause_defines: BTreeMap<usize, FluentKey> = BTreeMap::new();
    for (&key, def) in &model.defined {
        for &c in def
            .init_clauses
            .iter()
            .chain(&def.term_clauses)
            .chain(&def.static_clauses)
        {
            clause_defines.insert(c, key);
        }
    }
    let mut graph = FluentGraph::new(model.defined.keys().copied());
    for r in &model.fluent_refs {
        if let Some(&from) = clause_defines.get(&r.clause) {
            graph.add_dependency(from, r.key);
        }
    }
    for cycle in graph.cycles() {
        let mut path: Vec<String> = cycle.iter().map(|&k| model.key_name(k)).collect();
        path.push(model.key_name(cycle[0]));
        let clause = cycle
            .iter()
            .filter_map(|k| {
                let def = model.defined.get(k)?;
                def.init_clauses
                    .iter()
                    .chain(&def.term_clauses)
                    .chain(&def.static_clauses)
                    .min()
                    .copied()
            })
            .min();
        out.push(diag(
            model,
            codes::DEPENDENCY_CYCLE,
            Severity::Error,
            clause,
            format!(
                "cyclic fluent dependency: {}; no stratified evaluation order exists",
                path.join(" -> ")
            ),
            Some("break the cycle by removing or restructuring one of the references".into()),
        ));
    }
}

/// RL0401: range restriction / safety. Head variables of `initiatedAt`
/// and `holdsFor` rules, and variables in comparisons, must be bound by
/// a preceding positive body literal (errors); variables in negated
/// literals that are nowhere bound are reported as warnings.
/// `terminatedAt` heads are exempt: the engine matches them against
/// already-initiated instances, so gold-standard rules such as
/// `terminatedAt(stopped(V)=_Value, T)` are legitimate.
pub fn variable_safety(model: &DescriptionModel<'_>, out: &mut Vec<Diagnostic>) {
    let underscore =
        |model: &DescriptionModel<'_>, v: Symbol| model.symbols.name(v).starts_with('_');

    for rule in &model.validated.simple {
        let mut bound: BTreeSet<Symbol> = BTreeSet::new();
        bound.insert(rule.time_var);
        let mut reported: BTreeSet<Symbol> = BTreeSet::new();
        for lit in &rule.body {
            match lit {
                BodyLiteral::HappensAt { negated, event } => {
                    step_pattern(
                        model,
                        &mut bound,
                        &mut reported,
                        *negated,
                        &[event],
                        rule.clause,
                        out,
                        &underscore,
                    );
                }
                BodyLiteral::HoldsAt { negated, fvp } => {
                    step_pattern(
                        model,
                        &mut bound,
                        &mut reported,
                        *negated,
                        &[&fvp.fluent, &fvp.value],
                        rule.clause,
                        out,
                        &underscore,
                    );
                }
                BodyLiteral::Atemporal { negated, pattern } => {
                    step_pattern(
                        model,
                        &mut bound,
                        &mut reported,
                        *negated,
                        &[pattern],
                        rule.clause,
                        out,
                        &underscore,
                    );
                }
                BodyLiteral::Compare { op, lhs, rhs } => {
                    step_compare(
                        model,
                        &mut bound,
                        &mut reported,
                        *op,
                        lhs,
                        rhs,
                        rule.clause,
                        out,
                    );
                }
            }
        }
        if rule.kind == SimpleKind::Initiated {
            let mut head_vars = Vec::new();
            rule.fvp.fluent.variables_into(&mut head_vars);
            rule.fvp.value.variables_into(&mut head_vars);
            for v in head_vars {
                if !bound.contains(&v) && reported.insert(v) {
                    out.push(diag(
                        model,
                        codes::UNSAFE_VARIABLE,
                        Severity::Error,
                        Some(rule.clause),
                        format!(
                            "head variable `{}` of initiatedAt rule is never bound by a positive body literal",
                            model.symbols.name(v)
                        ),
                        None,
                    ));
                }
            }
        }
    }

    for rule in &model.validated.statics {
        let mut bound: BTreeSet<Symbol> = BTreeSet::new();
        let mut reported: BTreeSet<Symbol> = BTreeSet::new();
        for lit in &rule.body {
            match lit {
                StaticLiteral::HoldsFor { fvp, .. } => {
                    step_pattern(
                        model,
                        &mut bound,
                        &mut reported,
                        false,
                        &[&fvp.fluent, &fvp.value],
                        rule.clause,
                        out,
                        &underscore,
                    );
                }
                StaticLiteral::Atemporal { negated, pattern } => {
                    step_pattern(
                        model,
                        &mut bound,
                        &mut reported,
                        *negated,
                        &[pattern],
                        rule.clause,
                        out,
                        &underscore,
                    );
                }
                StaticLiteral::Compare { op, lhs, rhs } => {
                    step_compare(
                        model,
                        &mut bound,
                        &mut reported,
                        *op,
                        lhs,
                        rhs,
                        rule.clause,
                        out,
                    );
                }
                StaticLiteral::Union { .. }
                | StaticLiteral::Intersect { .. }
                | StaticLiteral::RelComplement { .. } => {}
            }
        }
        let mut head_vars = Vec::new();
        rule.fvp.fluent.variables_into(&mut head_vars);
        rule.fvp.value.variables_into(&mut head_vars);
        for v in head_vars {
            if !bound.contains(&v) && reported.insert(v) {
                out.push(diag(
                    model,
                    codes::UNSAFE_VARIABLE,
                    Severity::Error,
                    Some(rule.clause),
                    format!(
                        "head variable `{}` of holdsFor rule is never bound by a positive body literal",
                        model.symbols.name(v)
                    ),
                    None,
                ));
            }
        }
    }
}

/// One positive or negated pattern literal: positive binds its
/// variables; negated requires them already bound (warning otherwise —
/// an unbound variable under negation quantifies over all instances,
/// which is rarely what the author meant).
#[allow(clippy::too_many_arguments)]
fn step_pattern(
    model: &DescriptionModel<'_>,
    bound: &mut BTreeSet<Symbol>,
    reported: &mut BTreeSet<Symbol>,
    negated: bool,
    terms: &[&Term],
    clause: usize,
    out: &mut Vec<Diagnostic>,
    underscore: &impl Fn(&DescriptionModel<'_>, Symbol) -> bool,
) {
    let mut vars = Vec::new();
    for t in terms {
        t.variables_into(&mut vars);
    }
    if negated {
        for v in vars {
            if !bound.contains(&v) && !underscore(model, v) && reported.insert(v) {
                out.push(diag(
                    model,
                    codes::UNSAFE_VARIABLE,
                    Severity::Warning,
                    Some(clause),
                    format!(
                        "variable `{}` in negated literal is not bound by a preceding positive literal",
                        model.symbols.name(v)
                    ),
                    Some(format!(
                        "bind `{}` earlier in the body, or prefix it with `_` if any instance should match",
                        model.symbols.name(v)
                    )),
                ));
            }
        }
    } else {
        bound.extend(vars);
    }
}

/// One comparison literal: `V = expr` with `V` unbound acts as an
/// assignment and binds `V`; every other variable must already be
/// bound, otherwise the engine skips the comparison at run time.
#[allow(clippy::too_many_arguments)]
fn step_compare(
    model: &DescriptionModel<'_>,
    bound: &mut BTreeSet<Symbol>,
    reported: &mut BTreeSet<Symbol>,
    op: CmpOp,
    lhs: &Term,
    rhs: &Term,
    clause: usize,
    out: &mut Vec<Diagnostic>,
) {
    if op == CmpOp::Eq {
        // `X = expr` / `expr = X` with exactly one unbound side binds X.
        let unbound_var = |t: &Term| match t {
            Term::Var(v) if !bound.contains(v) => Some(*v),
            _ => None,
        };
        let all_bound = |t: &Term| t.variables().iter().all(|v| bound.contains(v));
        if let Some(v) = unbound_var(lhs) {
            if all_bound(rhs) {
                bound.insert(v);
                return;
            }
        }
        if let Some(v) = unbound_var(rhs) {
            if all_bound(lhs) {
                bound.insert(v);
                return;
            }
        }
    }
    let mut vars = Vec::new();
    lhs.variables_into(&mut vars);
    rhs.variables_into(&mut vars);
    for v in vars {
        if !bound.contains(&v) && reported.insert(v) {
            out.push(diag(
                model,
                codes::UNSAFE_VARIABLE,
                Severity::Error,
                Some(clause),
                format!(
                    "variable `{}` in comparison is not bound by a preceding positive literal; the engine will skip the comparison",
                    model.symbols.name(v)
                ),
                None,
            ));
        }
    }
}

/// RL0402: variables occurring exactly once in their clause. A
/// leading underscore marks a singleton as intentional.
pub fn singleton_variables(model: &DescriptionModel<'_>, out: &mut Vec<Diagnostic>) {
    for (idx, clause) in model.desc.clauses.iter().enumerate() {
        let mut occurrences = Vec::new();
        clause.head.variables_into(&mut occurrences);
        for t in &clause.body {
            t.variables_into(&mut occurrences);
        }
        let mut counts: BTreeMap<Symbol, usize> = BTreeMap::new();
        for v in occurrences {
            *counts.entry(v).or_default() += 1;
        }
        for (v, n) in counts {
            let name = model.symbols.name(v);
            if n == 1 && !name.starts_with('_') {
                out.push(diag(
                    model,
                    codes::SINGLETON_VARIABLE,
                    Severity::Warning,
                    Some(idx),
                    format!("singleton variable `{name}`"),
                    Some(format!(
                        "rename to `_{name}` if intentional, or check for a typo against the other variables"
                    )),
                ));
            }
        }
    }
}

/// RL0501: rules that can never fire — `terminatedAt` rules for a
/// fluent (or fluent value) that is never initiated, and rules whose
/// positive body references a fluent that can never hold.
///
/// `flow_never_holds` carries the flow analysis' never-holding set
/// (fluents whose every derivation is statically empty, transitively).
/// When the description does not compile to a plan the caller passes
/// `None` and part (b) falls back to the local heuristic — fluents
/// defined only by `terminatedAt` rules.
pub fn dead_rules(
    model: &DescriptionModel<'_>,
    flow_never_holds: Option<&BTreeSet<FluentKey>>,
    out: &mut Vec<Diagnostic>,
) {
    // (a) terminations of never-initiated fluents / values.
    for rule in &model.validated.simple {
        if rule.kind != SimpleKind::Terminated {
            continue;
        }
        let Some(key) = rule.fvp.key() else { continue };
        if model.input_fluents.contains(&key) {
            continue;
        }
        let Some(def) = model.defined.get(&key) else {
            continue;
        };
        if def.init_clauses.is_empty() && def.static_clauses.is_empty() {
            out.push(diag(
                model,
                codes::DEAD_RULE,
                Severity::Warning,
                Some(rule.clause),
                format!(
                    "rule terminates fluent `{}`, which is never initiated",
                    model.key_name(key)
                ),
                Some("add an initiatedAt rule or remove this termination".into()),
            ));
            continue;
        }
        // Value-level: a ground termination value no ground-or-variable
        // initiation value can produce.
        if rule.fvp.value.is_ground() {
            let init_can_match = model.validated.simple.iter().any(|r| {
                r.kind == SimpleKind::Initiated
                    && r.fvp.key() == Some(key)
                    && (!r.fvp.value.is_ground() || r.fvp.value == rule.fvp.value)
            });
            if !init_can_match && !def.init_clauses.is_empty() {
                out.push(diag(
                    model,
                    codes::DEAD_RULE,
                    Severity::Warning,
                    Some(rule.clause),
                    format!(
                        "rule terminates `{}` with value `{}`, but no initiatedAt rule produces that value",
                        model.key_name(key),
                        rule.fvp.value.display(&model.symbols)
                    ),
                    None,
                ));
            }
        }
    }

    // (b) positive references to fluents that can never hold. With
    // flow facts this covers emptiness that propagates transitively
    // (all initiations statically empty); the fallback only sees the
    // local shape (defined by terminatedAt rules alone).
    let local_never_holds = || -> BTreeSet<FluentKey> {
        model
            .defined
            .iter()
            .filter(|(key, def)| {
                def.init_clauses.is_empty()
                    && def.static_clauses.is_empty()
                    && !def.term_clauses.is_empty()
                    && !model.input_fluents.contains(*key)
            })
            .map(|(&key, _)| key)
            .collect()
    };
    let never_holds: BTreeSet<FluentKey> = match flow_never_holds {
        Some(flow) => flow
            .iter()
            .copied()
            .filter(|key| !model.input_fluents.contains(key))
            .collect(),
        None => local_never_holds(),
    };
    let mut seen = BTreeSet::new();
    for r in &model.fluent_refs {
        if !r.negated && never_holds.contains(&r.key) && seen.insert((r.clause, r.key)) {
            // Keep the historical wording for the historical case; the
            // flow-derived case (initiations exist but are all empty)
            // gets its own phrasing.
            let has_derivations = model
                .defined
                .get(&r.key)
                .is_some_and(|def| !def.init_clauses.is_empty() || !def.static_clauses.is_empty());
            let why = if has_derivations {
                "can never hold"
            } else {
                "is never initiated"
            };
            out.push(diag(
                model,
                codes::DEAD_RULE,
                Severity::Warning,
                Some(r.clause),
                format!(
                    "rule can never fire: it requires fluent `{}`, which {why}",
                    model.key_name(r.key)
                ),
                None,
            ));
        }
    }
}

/// Canonical rendering of a term with variables numbered by first
/// occurrence, for structural clause comparison.
fn canon_term(t: &Term, map: &mut BTreeMap<Symbol, usize>, model: &DescriptionModel<'_>) -> String {
    match t {
        Term::Var(v) => {
            let next = map.len();
            format!("V{}", *map.entry(*v).or_insert(next))
        }
        Term::Atom(s) => model.symbols.name(*s).to_string(),
        Term::Int(n) => n.to_string(),
        Term::Float(f) => format!("{f:?}"),
        Term::Compound(f, args) => {
            let rendered: Vec<String> = args.iter().map(|a| canon_term(a, map, model)).collect();
            format!("{}({})", model.symbols.name(*f), rendered.join(","))
        }
        Term::List(items) => {
            let rendered: Vec<String> = items.iter().map(|a| canon_term(a, map, model)).collect();
            format!("[{}]", rendered.join(","))
        }
    }
}

/// RL0502: duplicate and subsumed clauses, compared structurally after
/// canonical variable renaming. A clause whose body is a strict
/// superset of a same-head clause's body is redundant (subsumed): the
/// smaller rule already fires whenever the larger one would.
pub fn duplicate_clauses(model: &DescriptionModel<'_>, out: &mut Vec<Diagnostic>) {
    struct Canon {
        head: String,
        body: Vec<String>,
        body_set: BTreeSet<String>,
    }
    let canons: Vec<Canon> = model
        .desc
        .clauses
        .iter()
        .map(|c| {
            let mut map = BTreeMap::new();
            let head = canon_term(&c.head, &mut map, model);
            let body: Vec<String> = c
                .body
                .iter()
                .map(|t| canon_term(t, &mut map, model))
                .collect();
            let body_set = body.iter().cloned().collect();
            Canon {
                head,
                body,
                body_set,
            }
        })
        .collect();

    let mut flagged = BTreeSet::new();
    for j in 0..canons.len() {
        if flagged.contains(&j) {
            continue;
        }
        for i in 0..j {
            if flagged.contains(&i) || canons[i].head != canons[j].head {
                continue;
            }
            if canons[i].body == canons[j].body {
                flagged.insert(j);
                out.push(diag(
                    model,
                    codes::DUPLICATE_CLAUSE,
                    Severity::Warning,
                    Some(j),
                    format!("clause {j} is an exact duplicate of clause {i}"),
                    Some("remove one of the two clauses".into()),
                ));
                break;
            }
            if canons[j].body_set.is_superset(&canons[i].body_set)
                && canons[j].body_set != canons[i].body_set
            {
                flagged.insert(j);
                out.push(diag(
                    model,
                    codes::DUPLICATE_CLAUSE,
                    Severity::Warning,
                    Some(j),
                    format!(
                        "clause {j} is subsumed by clause {i}: its body is a superset of clause {i}'s body under the same head"
                    ),
                    Some(format!("remove clause {j}, or differentiate its head")),
                ));
                break;
            }
            if canons[i].body_set.is_superset(&canons[j].body_set)
                && canons[i].body_set != canons[j].body_set
            {
                flagged.insert(i);
                out.push(diag(
                    model,
                    codes::DUPLICATE_CLAUSE,
                    Severity::Warning,
                    Some(i),
                    format!(
                        "clause {i} is subsumed by clause {j}: its body is a superset of clause {j}'s body under the same head"
                    ),
                    Some(format!("remove clause {i}, or differentiate its head")),
                ));
            }
        }
    }
}

/// RL0503: declared input events/fluents never referenced by any rule.
pub fn unused_declarations(model: &DescriptionModel<'_>, out: &mut Vec<Diagnostic>) {
    let used_events: BTreeSet<FluentKey> = model.event_refs.iter().map(|r| r.key).collect();
    let used_fluents: BTreeSet<FluentKey> = model.fluent_refs.iter().map(|r| r.key).collect();
    for (&key, kind, used) in model
        .input_events
        .iter()
        .map(|k| (k, "inputEvent", &used_events))
        .chain(
            model
                .input_fluents
                .iter()
                .map(|k| (k, "inputFluent", &used_fluents)),
        )
    {
        if used.contains(&key) {
            continue;
        }
        let clause = declaration_clause(model, kind, key);
        out.push(diag(
            model,
            codes::UNUSED_DECLARATION,
            Severity::Warning,
            clause,
            format!(
                "declared {kind} `{}` is never referenced by any rule",
                model.key_name(key)
            ),
            Some("remove the declaration, or add the missing rule".into()),
        ));
    }
}

/// Finds the clause index of a declaration fact, for anchoring.
fn declaration_clause(model: &DescriptionModel<'_>, kind: &str, key: FluentKey) -> Option<usize> {
    let lookup = |name: &str| {
        model
            .symbols
            .iter()
            .find(|(_, n)| *n == name)
            .map(|(s, _)| s)
    };
    let decl_sym = lookup(kind)?;
    let slash_sym = lookup("/")?;
    model.desc.clauses.iter().position(|c| {
        c.body.is_empty()
            && c.head.signature() == Some((decl_sym, 1))
            && c.head.args().first().is_some_and(|spec| {
                spec.signature() == Some((slash_sym, 2))
                    && spec.args()[0].functor() == Some(key.0)
                    && matches!(spec.args()[1], Term::Int(n) if n as usize == key.1)
            })
    })
}
