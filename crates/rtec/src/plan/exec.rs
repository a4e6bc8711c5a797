//! The plan evaluator: executes lowered rules over one window.
//!
//! Variables live in slot-indexed [`Frame`]s of interned [`TermId`]s and
//! a static rule's interval variables in a dense register file.
//! Candidates are matched while the body recurses, without collecting
//! them first: matching never emits warnings and the fluent cache is
//! immutable while a rule body is being solved, so the warnings and
//! cache contents do not depend on that interleaving.

use super::ir::{LBody, LStatic, LoweredSimple, LoweredStatic};
use crate::arena::{FxHashSet, Shape, TermId, Terms};
use crate::ast::{FluentKey, SimpleKind};
use crate::background::FactIndex;
use crate::eval::arith::{compare, ArithCtx, CompareOutcome};
use crate::eval::cache::{FluentCache, Instance};
use crate::eval::events::EventIndex;
use crate::eval::simple::{finalize_simple_fluent, Carried, InertiaState, PointCollector};
use crate::eval::WarningSink;
use crate::frame::{
    first_arg_key, match_fvp, match_lterm, materialize, probe, signature, Frame, Probe,
};
use crate::interval::{IntervalList, Timepoint};
use crate::symbol::SymbolTable;
use std::borrow::Cow;

/// Read-only evaluation context shared by all rules of one window.
pub(crate) struct ExecCtx<'a> {
    pub(crate) symbols: &'a SymbolTable,
    pub(crate) facts: &'a FactIndex,
    /// Fluent keys the description defines (simple or static).
    pub(crate) defined: &'a FxHashSet<FluentKey>,
    pub(crate) events: &'a EventIndex,
    pub(crate) arith: ArithCtx<'a>,
}

/// Evaluates all lowered rules of one simple fluent for one window:
/// collects the initiation and termination points its rules fire on the
/// window's events, then assembles intervals under inertia with
/// [`finalize_simple_fluent`]. `carried` is the fluent's share of the
/// inertia state.
#[allow(clippy::too_many_arguments)]
pub(crate) fn eval_simple_stratum(
    ctx: &ExecCtx<'_>,
    rules: &[LoweredSimple],
    cache: &mut FluentCache<'_>,
    carried: Carried,
    inertia: &mut InertiaState,
    terms: &mut Terms<'_>,
    warnings: &mut WarningSink,
) {
    let mut collector = PointCollector::new();
    // Warnings raised inside the solution callback (which already borrows
    // the main sink) are buffered and reported after the rule scan.
    let mut deferred_warnings: Vec<String> = Vec::new();

    for rule in rules {
        let mut frame = Frame::new(&rule.vars);
        for &(t, ev) in ctx.events.all(rule.first_sig) {
            frame.clear();
            if !match_lterm(&rule.first_event, ev, &mut frame, terms) {
                continue;
            }
            // The head's time variable is visible to comparisons.
            if rule.reads_time && frame.get_slot(rule.time_slot).is_none() {
                let time = terms.intern(Shape::Int(t));
                frame.bind_slot(rule.time_slot, time);
            }
            solve_body(
                ctx,
                cache,
                terms,
                &rule.body,
                0,
                t,
                &mut frame,
                warnings,
                &mut |fr: &mut Frame<'_>, terms: &mut Terms<'_>| {
                    let fluent = materialize(&rule.head_fluent, fr, terms);
                    let value = materialize(&rule.head_value, fr, terms);
                    if !terms.is_ground(fluent) || !terms.is_ground(value) {
                        if rule.rule.kind == SimpleKind::Terminated {
                            collector.record_pattern_termination(fluent, value, t);
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

    finalize_simple_fluent(collector, carried, cache, inertia, terms);
}

/// Solves `body[idx..]` at time `t` under `frame` by backtracking,
/// calling `on_solution` once per solution. The frame is restored on
/// return.
#[allow(clippy::too_many_arguments)]
fn solve_body(
    ctx: &ExecCtx<'_>,
    cache: &FluentCache<'_>,
    terms: &mut Terms<'_>,
    body: &[LBody],
    idx: usize,
    t: Timepoint,
    frame: &mut Frame<'_>,
    warnings: &mut WarningSink,
    on_solution: &mut dyn FnMut(&mut Frame<'_>, &mut Terms<'_>),
) {
    let Some(lit) = body.get(idx) else {
        on_solution(frame, terms);
        return;
    };
    let mark = frame.mark();
    let mut next = |frame: &mut Frame<'_>, terms: &mut Terms<'_>, warnings: &mut WarningSink| {
        solve_body(
            ctx,
            cache,
            terms,
            body,
            idx + 1,
            t,
            frame,
            warnings,
            on_solution,
        );
        frame.undo(mark);
    };
    match lit {
        LBody::HappensAt {
            negated: false,
            event,
            sig,
        } => {
            let sig = sig.or_else(|| signature(event, frame, terms));
            if let Some(sig) = sig {
                for &(_, ev) in ctx.events.at(sig, t) {
                    if match_lterm(event, ev, frame, terms) {
                        next(frame, terms, warnings);
                    }
                }
            }
        }
        LBody::HappensAt {
            negated: true,
            event,
            sig,
        } => {
            let sig = sig.or_else(|| signature(event, frame, terms));
            let exists = sig.is_some_and(|sig| {
                ctx.events.at(sig, t).iter().any(|&(_, ev)| {
                    let hit = match_lterm(event, ev, frame, terms);
                    frame.undo(mark);
                    hit
                })
            });
            if !exists {
                next(frame, terms, warnings);
            }
        }
        LBody::HoldsAt {
            negated,
            fluent,
            value,
        } => {
            let Some(key) = signature(fluent, frame, terms) else {
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
                    next(frame, terms, warnings);
                }
                return;
            }
            match (probe(fluent, frame, terms), probe(value, frame, terms)) {
                (Probe::Open, _) | (_, Probe::Open) => {}
                (Probe::Found(f), Probe::Found(v)) => {
                    if cache.holds_at((f, v), t) != *negated {
                        next(frame, terms, warnings);
                    }
                    return;
                }
                // A ground FVP that is not interned is not in the cache.
                _ => {
                    cache.miss();
                    if *negated {
                        next(frame, terms, warnings);
                    }
                    return;
                }
            }
            // Non-ground: match fluent and value in place against the
            // instances that can match, then check the match holds at t.
            let candidates = cache.candidates(key, first_arg_key(fluent, frame, terms));
            if *negated {
                let mut any = false;
                for inst in candidates {
                    if match_fvp(fluent, value, inst, frame, terms) {
                        frame.undo(mark);
                        if cache.holds_at(inst, t) {
                            any = true;
                            break;
                        }
                    }
                }
                if !any {
                    next(frame, terms, warnings);
                }
            } else {
                for inst in candidates {
                    if match_fvp(fluent, value, inst, frame, terms) {
                        if cache.holds_at(inst, t) {
                            next(frame, terms, warnings);
                        } else {
                            frame.undo(mark);
                        }
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
            for &fact in ctx.facts.matching(pattern, frame, terms) {
                if match_lterm(pattern, fact, frame, terms) {
                    next(frame, terms, warnings);
                }
            }
        }
        LBody::Atemporal {
            negated: true,
            pattern,
            ..
        } => {
            if !ctx.facts.any_match(pattern, frame, terms) {
                next(frame, terms, warnings);
            }
        }
        LBody::Compare { op, lowered } => match compare(*op, lowered, frame, terms, &ctx.arith) {
            CompareOutcome::Decided(true) | CompareOutcome::Bound => {
                next(frame, terms, warnings);
            }
            CompareOutcome::Decided(false) => {}
            CompareOutcome::Failed(issue) => {
                warnings.push(format!("comparison skipped: {issue}"));
            }
        },
    }
}

/// Evaluates all lowered `holdsFor` rules of one static fluent: seeds
/// candidate bindings, then runs each rule's body per candidate.
pub(crate) fn eval_static_stratum(
    ctx: &ExecCtx<'_>,
    rules: &[LoweredStatic],
    cache: &mut FluentCache<'_>,
    terms: &mut Terms<'_>,
    warnings: &mut WarningSink,
) {
    for rule in rules {
        let results = {
            let cache: &FluentCache<'_> = cache;
            let mut frame = Frame::new(&rule.vars);
            let candidates = seed_candidates(ctx, rule, cache, &mut frame, terms, warnings);
            let mut results: Vec<(Instance, IntervalList)> = Vec::new();
            // Interval register file, reused across candidates: every
            // literal restores its output register to `None` after
            // backtracking, so the file is all-`None` between candidates.
            // `holdsFor` registers borrow the cache's lists.
            let mut env: Vec<Option<Cow<'_, IntervalList>>> = vec![None; rule.n_regs];
            for cand in &candidates {
                frame.clear();
                for &(slot, id) in cand {
                    frame.bind_slot(slot, id);
                }
                exec_static(
                    ctx,
                    rule,
                    0,
                    &mut frame,
                    &mut env,
                    cache,
                    terms,
                    warnings,
                    &mut results,
                );
            }
            results
        };
        for (inst, list) in results {
            cache.insert(inst, list, terms);
        }
    }
}

/// Phase 1 of static evaluation: the slot bindings obtained by matching
/// every `holdsFor` condition of the rule, unbound, against the cached
/// ground instances, deduplicated, in first-found order.
fn seed_candidates(
    ctx: &ExecCtx<'_>,
    rule: &LoweredStatic,
    cache: &FluentCache<'_>,
    frame: &mut Frame<'_>,
    terms: &Terms<'_>,
    warnings: &mut WarningSink,
) -> Vec<Vec<(u16, TermId)>> {
    let mut out: Vec<Vec<(u16, TermId)>> = Vec::new();
    let mut seen: FxHashSet<Vec<(u16, TermId)>> = FxHashSet::default();
    let mut push = |b: Vec<(u16, TermId)>| {
        if seen.insert(b.clone()) {
            out.push(b);
        }
    };

    for lit in &rule.body {
        let LStatic::HoldsFor { fluent, value, .. } = lit else {
            continue;
        };
        let Some(k) = fluent.signature() else {
            continue;
        };
        if !ctx.defined.contains(&k) && !cache.knows_key(k) {
            warnings.push(format!(
                "undefined fluent '{}/{}' referenced in a holdsFor rule; it never holds",
                ctx.symbols.name(k.0),
                k.1
            ));
            continue;
        }
        if fluent.is_ground() && value.is_ground() {
            push(Vec::new());
            continue;
        }
        frame.clear();
        for inst in cache.candidates(k, first_arg_key(fluent, frame, terms)) {
            frame.clear();
            if match_fvp(fluent, value, inst, frame, terms) {
                push(frame.bound_slots().collect());
            }
        }
    }
    frame.clear();
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
    terms: &mut Terms<'_>,
    warnings: &mut WarningSink,
    results: &mut Vec<(Instance, IntervalList)>,
) {
    let Some(lit) = rule.body.get(idx) else {
        // All conditions satisfied: emit the head instance.
        let fluent = materialize(&rule.head_fluent, frame, terms);
        let value = materialize(&rule.head_value, frame, terms);
        if !terms.is_ground(fluent) || !terms.is_ground(value) {
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
            results.push(((fluent, value), IntervalList::clone(list)));
        }
        return;
    };

    let mark = frame.mark();
    let mut next = |frame: &mut Frame<'_>,
                    env: &mut Vec<Option<Cow<'c, IntervalList>>>,
                    terms: &mut Terms<'_>,
                    warnings: &mut WarningSink| {
        exec_static(
            ctx,
            rule,
            idx + 1,
            frame,
            env,
            cache,
            terms,
            warnings,
            results,
        );
    };
    match lit {
        LStatic::HoldsFor { fluent, value, out } => {
            let out = *out as usize;
            match (probe(fluent, frame, terms), probe(value, frame, terms)) {
                (Probe::Found(f), Probe::Found(v)) => {
                    env[out] = Some(registered(cache.get((f, v))));
                    next(frame, env, terms, warnings);
                    env[out] = None;
                }
                (Probe::Open, _) | (_, Probe::Open) => {
                    let Some(k) = signature(fluent, frame, terms) else {
                        return;
                    };
                    let first = first_arg_key(fluent, frame, terms);
                    for inst in cache.candidates(k, first) {
                        if match_fvp(fluent, value, inst, frame, terms) {
                            env[out] = Some(registered(cache.get(inst)));
                            next(frame, env, terms, warnings);
                            env[out] = None;
                            frame.undo(mark);
                        }
                    }
                }
                // A ground FVP that is not interned is not in the cache.
                _ => {
                    cache.miss();
                    env[out] = Some(registered(None));
                    next(frame, env, terms, warnings);
                    env[out] = None;
                }
            }
        }
        LStatic::Union { inputs, out } => {
            let Some(lists) = registers(env, inputs) else {
                return; // undefined interval register; validation rejects this
            };
            let u = IntervalList::union_all(&lists);
            env[*out as usize] = Some(Cow::Owned(u));
            next(frame, env, terms, warnings);
            env[*out as usize] = None;
        }
        LStatic::Intersect { inputs, out } => {
            let Some(lists) = registers(env, inputs) else {
                return;
            };
            let i = IntervalList::intersect_all(&lists);
            env[*out as usize] = Some(Cow::Owned(i));
            next(frame, env, terms, warnings);
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
                let Some(lists) = registers(env, subtract) else {
                    return;
                };
                base_list.relative_complement_all(&lists)
            };
            env[*out as usize] = Some(Cow::Owned(rc));
            next(frame, env, terms, warnings);
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
            for &fact in ctx.facts.matching(pattern, frame, terms) {
                if match_lterm(pattern, fact, frame, terms) {
                    next(frame, env, terms, warnings);
                    frame.undo(mark);
                }
            }
        }
        LStatic::Atemporal {
            negated: true,
            pattern,
            ..
        } => {
            if !ctx.facts.any_match(pattern, frame, terms) {
                next(frame, env, terms, warnings);
            }
        }
        LStatic::Compare { op, lowered } => match compare(*op, lowered, frame, terms, &ctx.arith) {
            CompareOutcome::Decided(true) | CompareOutcome::Bound => {
                next(frame, env, terms, warnings);
                frame.undo(mark);
            }
            CompareOutcome::Decided(false) => {}
            CompareOutcome::Failed(issue) => {
                warnings.push(format!("comparison skipped: {issue}"));
            }
        },
    }
}

/// The lists in registers `regs`, or `None` if one is unset.
fn registers<'e>(
    env: &'e [Option<Cow<'_, IntervalList>>],
    regs: &[u16],
) -> Option<Vec<&'e IntervalList>> {
    regs.iter().map(|r| env[*r as usize].as_deref()).collect()
}
