//! The plan evaluator: executes lowered rules over one window.
//!
//! Variables live in slot-indexed [`Frame`]s and a static rule's
//! interval variables in a dense register file. Candidates are matched
//! while the body recurses, without collecting clones first: matching
//! never emits warnings and the fluent cache is immutable while a rule
//! body is being solved, so the warnings and cache contents do not
//! depend on that interleaving.

use super::ir::{LBody, LStatic, LTerm, LoweredSimple, LoweredStatic};
use crate::ast::{FluentKey, SimpleKind, StaticLiteral, StaticRule};
use crate::background::FactStore;
use crate::eval::arith::{compare_frame, CompareOutcome};
use crate::eval::cache::FluentCache;
use crate::eval::events::EventIndex;
use crate::eval::simple::{finalize_simple_fluent, InertiaState, PointCollector};
use crate::eval::WarningSink;
use crate::frame::{match_fvp, match_lterm, materialize, Frame};
use crate::interval::{IntervalList, Timepoint};
use crate::symbol::{Symbol, SymbolTable};
use crate::term::{match_term, Bindings, GroundFvp, Term};
use std::borrow::Cow;
use std::collections::HashSet;

/// Read-only evaluation context shared by all rules of one window.
pub(crate) struct ExecCtx<'a> {
    pub(crate) symbols: &'a SymbolTable,
    pub(crate) eq: Symbol,
    pub(crate) facts: &'a FactStore,
    /// Fluent keys the description defines (simple or static).
    pub(crate) defined: &'a HashSet<FluentKey>,
    pub(crate) events: &'a EventIndex,
}

/// Evaluates all lowered rules of simple fluent `key` for one window:
/// collects the initiation and termination points its rules fire on the
/// window's events, then assembles intervals under inertia with
/// [`finalize_simple_fluent`].
pub(crate) fn eval_simple_stratum(
    ctx: &ExecCtx<'_>,
    key: FluentKey,
    rules: &[LoweredSimple],
    cache: &mut FluentCache<'_>,
    inertia: &mut InertiaState,
    warnings: &mut WarningSink,
) {
    let mut collector = PointCollector::new();
    // Warnings raised inside the solution callback (which already borrows
    // the main sink) are buffered and reported after the rule scan.
    let mut deferred_warnings: Vec<String> = Vec::new();

    for rule in rules {
        let mut frame = Frame::new(&rule.vars);
        for (t, ev) in ctx.events.all(rule.first_sig) {
            frame.clear();
            if !match_lterm(&rule.first_event, ev, &mut frame) {
                continue;
            }
            // The head's time variable is visible to comparisons.
            if frame.get_slot(rule.time_slot).is_none() {
                frame.bind_slot(rule.time_slot, Term::Int(*t));
            }
            let t = *t;
            solve_body(
                ctx,
                cache,
                &rule.body,
                0,
                t,
                &mut frame,
                warnings,
                &mut |fr: &mut Frame<'_>| {
                    let fluent = materialize(&rule.head_fluent, fr);
                    let value = materialize(&rule.head_value, fr);
                    if !fluent.is_ground() || !value.is_ground() {
                        if rule.rule.kind == SimpleKind::Terminated {
                            let pat = Term::Compound(ctx.eq, vec![fluent, value]);
                            collector.record_pattern_termination(pat, t);
                        } else {
                            deferred_warnings.push(format!(
                                "initiatedAt head '{}' not fully instantiated; \
                                 instance dropped",
                                rule.rule.fvp.display(ctx.symbols)
                            ));
                        }
                        return;
                    }
                    collector.record(rule.rule.kind, fluent, value, t);
                },
            );
        }
    }

    for w in deferred_warnings {
        warnings.push(w);
    }

    finalize_simple_fluent(key, ctx.eq, collector, cache, inertia);
}

/// Solves `body[idx..]` at time `t` under `frame` by backtracking,
/// calling `on_solution` once per solution. The frame is restored on
/// return.
#[allow(clippy::too_many_arguments)]
fn solve_body(
    ctx: &ExecCtx<'_>,
    cache: &FluentCache<'_>,
    body: &[LBody],
    idx: usize,
    t: Timepoint,
    frame: &mut Frame<'_>,
    warnings: &mut WarningSink,
    on_solution: &mut dyn FnMut(&mut Frame<'_>),
) {
    let Some(lit) = body.get(idx) else {
        on_solution(frame);
        return;
    };
    let mark = frame.mark();
    match lit {
        LBody::HappensAt {
            negated: false,
            event,
            sig,
        } => {
            let sig = match sig {
                Some(s) => Some(*s),
                None => materialize(event, frame).signature(),
            };
            if let Some(sig) = sig {
                for (_, ev) in ctx.events.at(sig, t) {
                    if match_lterm(event, ev, frame) {
                        solve_body(ctx, cache, body, idx + 1, t, frame, warnings, on_solution);
                        frame.undo(mark);
                    }
                }
            }
        }
        LBody::HappensAt {
            negated: true,
            event,
            sig,
        } => {
            let exists = match sig {
                Some(s) => {
                    let evs = ctx.events.at(*s, t);
                    !evs.is_empty() && {
                        let pattern = materialize(event, frame);
                        evs.iter()
                            .any(|(_, ev)| match_term(&pattern, ev, &mut Bindings::new()))
                    }
                }
                None => {
                    let pattern = materialize(event, frame);
                    pattern.signature().is_some_and(|s| {
                        ctx.events
                            .at(s, t)
                            .iter()
                            .any(|(_, ev)| match_term(&pattern, ev, &mut Bindings::new()))
                    })
                }
            };
            if !exists {
                solve_body(ctx, cache, body, idx + 1, t, frame, warnings, on_solution);
                frame.undo(mark);
            }
        }
        LBody::HoldsAt {
            negated,
            fluent,
            value,
        } => {
            let fluent = materialize(fluent, frame);
            let value = materialize(value, frame);
            let Some(key) = fluent.signature() else {
                warnings.push("holdsAt over a non-predicate fluent".to_string());
                return;
            };
            if !ctx.defined.contains(&key) && !cache.knows_key(key) {
                warnings.push(format!(
                    "undefined fluent '{}/{}' referenced in a rule body; it never holds",
                    ctx.symbols.name(key.0),
                    key.1
                ));
                // Negation-by-failure: an undefined fluent never holds.
                if *negated {
                    solve_body(ctx, cache, body, idx + 1, t, frame, warnings, on_solution);
                    frame.undo(mark);
                }
                return;
            }
            if fluent.is_ground() && value.is_ground() {
                let g = GroundFvp { fluent, value };
                if cache.holds_at(&g, t) != *negated {
                    solve_body(ctx, cache, body, idx + 1, t, frame, warnings, on_solution);
                    frame.undo(mark);
                }
                return;
            }
            // Non-ground: match fluent and value in place against the
            // instances that can match, then check the match holds at t.
            let candidates = cache.candidates(key, fluent.args().first());
            if *negated {
                let mut any = false;
                for inst in candidates {
                    if match_fvp(&fluent, &value, inst, frame) {
                        frame.undo(mark);
                        if cache.holds_at(inst, t) {
                            any = true;
                            break;
                        }
                    }
                }
                if !any {
                    solve_body(ctx, cache, body, idx + 1, t, frame, warnings, on_solution);
                    frame.undo(mark);
                }
            } else {
                for inst in candidates {
                    if match_fvp(&fluent, &value, inst, frame) {
                        if cache.holds_at(inst, t) {
                            solve_body(ctx, cache, body, idx + 1, t, frame, warnings, on_solution);
                        }
                        frame.undo(mark);
                    }
                }
            }
        }
        LBody::Atemporal {
            negated: false,
            pattern,
            sig_warn,
        } => {
            if let Some(w) = sig_warn {
                warnings.push(w.clone());
            }
            for fact in fact_candidates(ctx.facts, pattern, frame) {
                if match_lterm(pattern, fact, frame) {
                    solve_body(ctx, cache, body, idx + 1, t, frame, warnings, on_solution);
                    frame.undo(mark);
                }
            }
        }
        LBody::Atemporal {
            negated: true,
            pattern,
            ..
        } => {
            if !any_fact_matches(ctx.facts, pattern, frame) {
                solve_body(ctx, cache, body, idx + 1, t, frame, warnings, on_solution);
                frame.undo(mark);
            }
        }
        LBody::Compare { op, lhs, rhs } => match compare_frame(*op, lhs, rhs, frame, ctx.symbols) {
            CompareOutcome::Decided(true) | CompareOutcome::Bound => {
                solve_body(ctx, cache, body, idx + 1, t, frame, warnings, on_solution);
                frame.undo(mark);
            }
            CompareOutcome::Decided(false) => {}
            CompareOutcome::Failed(issue) => {
                warnings.push(format!("comparison skipped: {issue}"));
            }
        },
    }
}

/// The background facts `pattern` can match under `frame`, to be matched
/// with [`match_lterm`] — the same facts, in the same order, as
/// [`FactStore::candidates`] of the materialized pattern. A compound or
/// atom pattern is probed by its first argument's slot or constant
/// without materializing it; only other shapes (a bare slot, a number,
/// a list) are materialized to find their bucket.
fn fact_candidates<'f>(facts: &'f FactStore, pattern: &LTerm, frame: &Frame<'_>) -> &'f [Term] {
    match pattern {
        LTerm::Atom(a) => facts.candidates_for((*a, 0), None),
        LTerm::Compound(f, args) => {
            let sig = (*f, args.len());
            match args.first() {
                Some(LTerm::Atom(a)) => facts.candidates_for(sig, Some(&Term::Atom(*a))),
                Some(LTerm::Slot(i)) => facts.candidates_for(sig, frame.get_slot(*i)),
                Some(nested @ (LTerm::Compound(..) | LTerm::List(_))) => {
                    facts.candidates_for(sig, Some(&materialize(nested, frame)))
                }
                Some(LTerm::Int(_) | LTerm::Float(_)) | None => facts.candidates_for(sig, None),
            }
        }
        _ => facts.candidates(&materialize(pattern, frame)),
    }
}

/// Whether any background fact matches `pattern` under `frame`; the
/// frame is left as it was.
fn any_fact_matches(facts: &FactStore, pattern: &LTerm, frame: &mut Frame<'_>) -> bool {
    let mark = frame.mark();
    fact_candidates(facts, pattern, frame).iter().any(|fact| {
        let hit = match_lterm(pattern, fact, frame);
        frame.undo(mark);
        hit
    })
}

/// Evaluates all lowered `holdsFor` rules of one static fluent: seeds
/// candidate bindings, then runs each rule's body per candidate.
pub(crate) fn eval_static_stratum(
    ctx: &ExecCtx<'_>,
    rules: &[LoweredStatic],
    cache: &mut FluentCache<'_>,
    warnings: &mut WarningSink,
) {
    for rule in rules {
        let results = {
            let cache: &FluentCache<'_> = cache;
            let candidates = seed_candidates(ctx, &rule.rule, cache, warnings);
            let mut results: Vec<(GroundFvp, IntervalList)> = Vec::new();
            let mut frame = Frame::new(&rule.vars);
            // Interval register file, reused across candidates: every
            // literal restores its output register to `None` after
            // backtracking, so the file is all-`None` between candidates.
            // `holdsFor` registers borrow the cache's lists.
            let mut env: Vec<Option<Cow<'_, IntervalList>>> = vec![None; rule.n_regs];
            for cand in &candidates {
                frame.clear();
                frame.load(cand);
                exec_static(
                    ctx,
                    rule,
                    0,
                    &mut frame,
                    &mut env,
                    cache,
                    warnings,
                    &mut results,
                );
            }
            results
        };
        for (g, list) in results {
            cache.insert(g, list);
        }
    }
}

/// Phase 1 of static evaluation: bindings obtained by matching every
/// `holdsFor` condition of the *original* rule against the cached ground
/// instances, deduplicated. Seeding works on names (`Bindings`); the
/// result is loaded into the frame per candidate.
fn seed_candidates(
    ctx: &ExecCtx<'_>,
    rule: &StaticRule,
    cache: &FluentCache<'_>,
    warnings: &mut WarningSink,
) -> Vec<Bindings> {
    let mut out: Vec<Bindings> = Vec::new();
    let mut seen: HashSet<Vec<(Symbol, Term)>> = HashSet::new();
    let push = |b: Bindings, seen: &mut HashSet<Vec<(Symbol, Term)>>, out: &mut Vec<Bindings>| {
        let mut sig: Vec<(Symbol, Term)> = b.iter().map(|(v, t)| (v, t.clone())).collect();
        sig.sort_by_key(|(v, _)| *v);
        if seen.insert(sig) {
            out.push(b);
        }
    };

    for lit in &rule.body {
        let StaticLiteral::HoldsFor { fvp, .. } = lit else {
            continue;
        };
        let Some(k) = fvp.key() else { continue };
        if !ctx.defined.contains(&k) && !cache.knows_key(k) {
            warnings.push(format!(
                "undefined fluent '{}/{}' referenced in a holdsFor rule; it never holds",
                ctx.symbols.name(k.0),
                k.1
            ));
            continue;
        }
        if fvp.fluent.is_ground() && fvp.value.is_ground() {
            push(Bindings::new(), &mut seen, &mut out);
            continue;
        }
        for inst in cache.candidates(k, fvp.fluent.args().first()) {
            let mut b = Bindings::new();
            if match_term(&fvp.fluent, &inst.fluent, &mut b)
                && match_term(&fvp.value, &inst.value, &mut b)
            {
                push(b, &mut seen, &mut out);
            }
        }
    }
    out
}

/// A `holdsFor` register: the cache's list, borrowed, or an empty one
/// for an FVP the cache does not know.
fn registered(list: Option<&IntervalList>) -> Cow<'_, IntervalList> {
    list.map_or_else(|| Cow::Owned(IntervalList::new()), Cow::Borrowed)
}

/// Phase 2: left-to-right evaluation with backtracking, interval
/// variables held in the register file.
#[allow(clippy::too_many_arguments)]
fn exec_static<'c>(
    ctx: &ExecCtx<'_>,
    rule: &LoweredStatic,
    idx: usize,
    frame: &mut Frame<'_>,
    env: &mut Vec<Option<Cow<'c, IntervalList>>>,
    cache: &'c FluentCache<'_>,
    warnings: &mut WarningSink,
    results: &mut Vec<(GroundFvp, IntervalList)>,
) {
    let Some(lit) = rule.body.get(idx) else {
        // All conditions satisfied: emit the head instance.
        let fluent = materialize(&rule.head_fluent, frame);
        let value = materialize(&rule.head_value, frame);
        if !fluent.is_ground() || !value.is_ground() {
            warnings.push(format!(
                "holdsFor head '{}' not fully instantiated; instance dropped",
                rule.rule.fvp.display(ctx.symbols)
            ));
            return;
        }
        let Some(list) = env[rule.out_reg as usize].as_ref() else {
            return; // validation guarantees presence; defensive
        };
        if !list.is_empty() {
            results.push((GroundFvp { fluent, value }, IntervalList::clone(list)));
        }
        return;
    };

    match lit {
        LStatic::HoldsFor { fluent, value, out } => {
            let fluent = materialize(fluent, frame);
            let value = materialize(value, frame);
            if fluent.is_ground() && value.is_ground() {
                let g = GroundFvp { fluent, value };
                env[*out as usize] = Some(registered(cache.get(&g)));
                exec_static(ctx, rule, idx + 1, frame, env, cache, warnings, results);
                env[*out as usize] = None;
            } else {
                let Some(k) = fluent.signature() else { return };
                let mark = frame.mark();
                for inst in cache.candidates(k, fluent.args().first()) {
                    if match_fvp(&fluent, &value, inst, frame) {
                        env[*out as usize] = Some(registered(cache.get(inst)));
                        exec_static(ctx, rule, idx + 1, frame, env, cache, warnings, results);
                        env[*out as usize] = None;
                        frame.undo(mark);
                    }
                }
            }
        }
        LStatic::Union { inputs, out } => {
            let u = {
                let mut lists: Vec<&IntervalList> = Vec::with_capacity(inputs.len());
                for r in inputs {
                    match env[*r as usize].as_ref() {
                        Some(l) => lists.push(l),
                        None => return, // undefined interval register; validation rejects this
                    }
                }
                IntervalList::union_all(&lists)
            };
            env[*out as usize] = Some(Cow::Owned(u));
            exec_static(ctx, rule, idx + 1, frame, env, cache, warnings, results);
            env[*out as usize] = None;
        }
        LStatic::Intersect { inputs, out } => {
            let i = {
                let mut lists: Vec<&IntervalList> = Vec::with_capacity(inputs.len());
                for r in inputs {
                    match env[*r as usize].as_ref() {
                        Some(l) => lists.push(l),
                        None => return,
                    }
                }
                IntervalList::intersect_all(&lists)
            };
            env[*out as usize] = Some(Cow::Owned(i));
            exec_static(ctx, rule, idx + 1, frame, env, cache, warnings, results);
            env[*out as usize] = None;
        }
        LStatic::RelComplement {
            base,
            subtract,
            out,
        } => {
            let rc = {
                let Some(base_list) = env[*base as usize].as_ref() else {
                    return;
                };
                let mut lists: Vec<&IntervalList> = Vec::with_capacity(subtract.len());
                for r in subtract {
                    match env[*r as usize].as_ref() {
                        Some(l) => lists.push(l),
                        None => return,
                    }
                }
                base_list.relative_complement_all(&lists)
            };
            env[*out as usize] = Some(Cow::Owned(rc));
            exec_static(ctx, rule, idx + 1, frame, env, cache, warnings, results);
            env[*out as usize] = None;
        }
        LStatic::Atemporal {
            negated: false,
            pattern,
            sig_warn,
        } => {
            if let Some(w) = sig_warn {
                warnings.push(w.clone());
            }
            let mark = frame.mark();
            for fact in fact_candidates(ctx.facts, pattern, frame) {
                if match_lterm(pattern, fact, frame) {
                    exec_static(ctx, rule, idx + 1, frame, env, cache, warnings, results);
                    frame.undo(mark);
                }
            }
        }
        LStatic::Atemporal {
            negated: true,
            pattern,
            ..
        } => {
            if !any_fact_matches(ctx.facts, pattern, frame) {
                exec_static(ctx, rule, idx + 1, frame, env, cache, warnings, results);
            }
        }
        LStatic::Compare { op, lhs, rhs } => {
            let mark = frame.mark();
            match compare_frame(*op, lhs, rhs, frame, ctx.symbols) {
                CompareOutcome::Decided(true) | CompareOutcome::Bound => {
                    exec_static(ctx, rule, idx + 1, frame, env, cache, warnings, results);
                    frame.undo(mark);
                }
                CompareOutcome::Decided(false) => {}
                CompareOutcome::Failed(issue) => {
                    warnings.push(format!("comparison skipped: {issue}"));
                }
            }
        }
    }
}
