//! The per-rule abstract interpreter.
//!
//! Each rule body is walked once, literal by literal, accumulating
//! per-slot [`Dom`]s and looking for *refutations* — evidence that the
//! body, as a conjunction, has no solution on any stream conforming to
//! the declared input schema. Because a conjunction is order-independent
//! for satisfiability, evidence accumulates by intersection: narrowing
//! discovered at a later literal can retroactively contradict an earlier
//! one, and any empty intersection is a proof.

use crate::domain::{Dom, Narrow};
use crate::{EmptyReason, Env};
use rtec::ast::CmpOp;
use rtec::plan::ir::{LBody, LCompare, LStatic, LTerm, LoweredSimple, LoweredStatic, VarTable};
use rtec::term::Term;
use std::collections::HashSet;

/// Converts a ground lowered term back to a [`Term`].
pub(crate) fn lterm_term(t: &LTerm) -> Option<Term> {
    match t {
        LTerm::Slot(_) => None,
        LTerm::Atom(s) => Some(Term::Atom(*s)),
        LTerm::Int(n) => Some(Term::Int(*n)),
        LTerm::Float(f) => Some(Term::Float(*f)),
        LTerm::Compound(s, args) => args
            .iter()
            .map(lterm_term)
            .collect::<Option<Vec<_>>>()
            .map(|a| Term::Compound(*s, a)),
        LTerm::List(items) => items
            .iter()
            .map(lterm_term)
            .collect::<Option<Vec<_>>>()
            .map(Term::List),
    }
}

/// One comparison side, abstracted.
fn operand_dom(t: &Term, vars: &VarTable, doms: &[Dom]) -> Dom {
    match t {
        Term::Var(v) => match vars.slot(*v) {
            Some(s) => doms[s as usize].clone(),
            None => Dom::Any,
        },
        _ if t.is_ground() => Dom::Fin(vec![t.clone()]),
        // Arithmetic expressions and partially-ground compounds: give up.
        _ => Dom::Any,
    }
}

/// Narrows `doms[slot]` with `n`; an empty intersection becomes a
/// contradiction built by `reason`.
fn narrow_slot(
    doms: &mut [Dom],
    slot: u16,
    n: &Narrow,
    reason: impl FnOnce() -> EmptyReason,
) -> Result<(), EmptyReason> {
    match doms[slot as usize].intersect(n) {
        Some(d) => {
            doms[slot as usize] = d;
            Ok(())
        }
        None => Err(reason()),
    }
}

/// Applies one comparison literal: refutes, then narrows bare-variable
/// sides against the other side's range.
fn apply_compare(
    op: CmpOp,
    lowered: &LCompare,
    vars: &VarTable,
    doms: &mut [Dom],
    env: &Env<'_>,
) -> Result<(), EmptyReason> {
    let lhs = &lowered.lhs_term.to_term(vars);
    let rhs = &lowered.rhs_term.to_term(vars);
    let symbols = &env.desc.symbols;
    let contradiction = || {
        EmptyReason::Contradiction(format!(
            "comparison `{} {} {}` can never hold",
            lhs.display(symbols),
            op.as_str(),
            rhs.display(symbols)
        ))
    };
    let l = operand_dom(lhs, vars, doms);
    let r = operand_dom(rhs, vars, doms);
    match op {
        CmpOp::Eq => {
            if l.disjoint(&r) {
                return Err(contradiction());
            }
        }
        CmpOp::Neq => {
            if let (Some(a), Some(b)) = (l.singleton(), r.singleton()) {
                if crate::domain::may_equal(a, b) {
                    return Err(contradiction());
                }
            }
        }
        CmpOp::Lt | CmpOp::Gt | CmpOp::Le | CmpOp::Ge => {
            // Ordering comparisons are numeric-only at runtime: a side
            // with no possible numeric value can never satisfy one.
            let (Some((llo, lhi)), Some((rlo, rhi))) = (l.num_range(), r.num_range()) else {
                return Err(contradiction());
            };
            let refuted = match op {
                CmpOp::Lt => llo >= rhi,
                CmpOp::Gt => lhi <= rlo,
                CmpOp::Le => llo > rhi,
                CmpOp::Ge => lhi < rlo,
                _ => unreachable!(),
            };
            if refuted {
                return Err(contradiction());
            }
        }
    }

    // Narrowing: only bare variables, against the other side's
    // abstraction (closed hulls for strict comparisons — sound
    // over-approximation).
    let sides = [(lhs, &r), (rhs, &l)];
    for (i, (side, other)) in sides.into_iter().enumerate() {
        let Term::Var(v) = side else { continue };
        let Some(slot) = vars.slot(*v) else { continue };
        let n = match op {
            CmpOp::Eq => match other {
                Dom::Any => None,
                Dom::Fin(s) => Some(Narrow::Fin(s.clone())),
                Dom::Num(lo, hi) => Some(Narrow::Range(*lo, *hi)),
            },
            CmpOp::Neq => None,
            CmpOp::Lt | CmpOp::Le => {
                let bound = other
                    .num_range()
                    .map(|(lo, hi)| if i == 0 { hi } else { lo });
                bound.map(|b| {
                    if i == 0 {
                        Narrow::Range(f64::NEG_INFINITY, b)
                    } else {
                        Narrow::Range(b, f64::INFINITY)
                    }
                })
            }
            CmpOp::Gt | CmpOp::Ge => {
                let bound = other
                    .num_range()
                    .map(|(lo, hi)| if i == 0 { lo } else { hi });
                bound.map(|b| {
                    if i == 0 {
                        Narrow::Range(b, f64::INFINITY)
                    } else {
                        Narrow::Range(f64::NEG_INFINITY, b)
                    }
                })
            }
        };
        if let Some(n) = n {
            narrow_slot(doms, slot, &n, contradiction)?;
        }
    }
    Ok(())
}

/// Applies one positive background lookup: per-column narrowing against
/// the fact store (facts are baked into the plan, so this evidence is
/// stream-independent). Signatures with *no* facts are deliberately not
/// treated as evidence — the engine already warns about them at run
/// time, and cascading emptiness from missing background data would
/// flood the lint report.
fn apply_atemporal(
    pattern: &LTerm,
    sig_warn: &Option<String>,
    vars: &VarTable,
    doms: &mut [Dom],
    env: &Env<'_>,
) -> Result<(), EmptyReason> {
    if sig_warn.is_some() {
        return Ok(());
    }
    let Some(sig) = pattern.signature() else {
        return Ok(());
    };
    let facts: Vec<&Term> = env
        .desc
        .facts
        .iter()
        .filter(|f| f.signature() == Some(sig))
        .collect();
    if facts.is_empty() {
        return Ok(());
    }
    let args: &[LTerm] = match pattern {
        LTerm::Compound(_, args) => args,
        _ => return Ok(()),
    };
    for (i, arg) in args.iter().enumerate() {
        match arg {
            LTerm::Slot(s) => {
                let mut col: Vec<Term> = Vec::new();
                for f in &facts {
                    let v = &f.args()[i];
                    if !col.contains(v) {
                        col.push(v.clone());
                    }
                }
                narrow_slot(doms, *s, &Narrow::Fin(col), || {
                    EmptyReason::Contradiction(format!(
                        "variable `{}` cannot match any `{}` background fact",
                        &env.desc.symbols.name(vars.syms[*s as usize]),
                        env.key_name(sig),
                    ))
                })?;
            }
            _ => {
                let Some(g) = lterm_term(arg) else { continue };
                if !facts.iter().any(|f| f.args()[i] == g) {
                    return Err(EmptyReason::Contradiction(format!(
                        "no `{}` background fact has `{}` in position {}",
                        env.key_name(sig),
                        g.display(&env.desc.symbols),
                        i + 1,
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Applies one positive `holdsAt`/`holdsFor` fluent reference: refutes
/// never-holding fluents and out-of-set values, narrows slot-valued
/// value patterns by the fluent's derivable value set. Value matching
/// in the engine is structural (cache keys are ground FVPs), so the
/// membership checks here are structural too.
fn apply_fluent_ref(
    fluent: &LTerm,
    value: &LTerm,
    env: &Env<'_>,
    doms: &mut [Dom],
    vars: &VarTable,
) -> Result<(), EmptyReason> {
    let Some(key) = fluent.signature() else {
        return Ok(());
    };
    if !env.can_hold(key) {
        return Err(EmptyReason::NeverHolds {
            fluent: env.key_name(key),
        });
    }
    let Some(values) = env.values(key) else {
        return Ok(());
    };
    match value {
        LTerm::Slot(s) => narrow_slot(doms, *s, &Narrow::Fin(values.to_vec()), || {
            EmptyReason::DisjointValue {
                fluent: env.key_name(key),
                value: format!(
                    "`{}`'s domain",
                    &env.desc.symbols.name(vars.syms[*s as usize])
                ),
            }
        }),
        _ => {
            if let Some(g) = lterm_term(value) {
                if !values.contains(&g) {
                    return Err(EmptyReason::DisjointValue {
                        fluent: env.key_name(key),
                        value: format!("`{}`", g.display(&env.desc.symbols)),
                    });
                }
            }
            Ok(())
        }
    }
}

/// Abstractly interprets one simple rule's body. Returns the emptiness
/// proof (if any) and the final per-slot domains.
pub(crate) fn analyze_simple(
    rule: &LoweredSimple,
    env: &Env<'_>,
) -> (Option<EmptyReason>, Vec<Dom>) {
    let mut doms = vec![Dom::Any; rule.vars.len()];
    // The time slot is always bound to the candidate timepoint.
    doms[rule.time_slot as usize] = Dom::Num(f64::NEG_INFINITY, f64::INFINITY);

    if env.closed && !env.input_events.contains(&rule.first_sig) {
        let reason = EmptyReason::UnreachableTrigger {
            event: env.key_name(rule.first_sig),
        };
        return (Some(reason), doms);
    }

    for lit in &rule.body {
        let step = match lit {
            LBody::HappensAt { .. } => Ok(()),
            LBody::HoldsAt {
                negated: false,
                fluent,
                value,
            } => apply_fluent_ref(fluent, value, env, &mut doms, &rule.vars),
            LBody::HoldsAt { negated: true, .. } => Ok(()),
            LBody::Atemporal {
                negated: false,
                pattern,
                sig_warn,
            } => apply_atemporal(pattern, sig_warn, &rule.vars, &mut doms, env),
            LBody::Atemporal { negated: true, .. } => Ok(()),
            LBody::Compare { op, lowered } => {
                apply_compare(*op, lowered, &rule.vars, &mut doms, env)
            }
        };
        if let Err(reason) = step {
            return (Some(reason), doms);
        }
    }
    (None, doms)
}

/// Outcome of abstractly interpreting one `holdsFor` rule.
pub(crate) struct StaticOutcome {
    /// The emptiness proof, if any.
    pub reason: Option<EmptyReason>,
    /// Whether the proof is of the *pruning* kind: the rule produces no
    /// output rows at all (safe to consider for deletion). An
    /// `EmptyAlgebra` proof is not — the rule still runs its head
    /// instantiation with an empty interval list.
    pub prunes: bool,
    /// Final per-slot domains.
    pub doms: Vec<Dom>,
}

/// Abstractly interprets one static rule of the fluent `key`: candidate
/// seeding, the lowered body (including interval-register emptiness
/// propagation), and the output register.
pub(crate) fn analyze_static(
    rule: &LoweredStatic,
    key: rtec::ast::FluentKey,
    env: &Env<'_>,
) -> StaticOutcome {
    let mut doms = vec![Dom::Any; rule.vars.len()];
    let mut empty_regs: HashSet<u16> = HashSet::new();

    // Candidate seeding matches the *original* body's holdsFor patterns
    // against the cache: a non-ground pattern over a never-holding
    // fluent yields no instances, and failing to match is a prune.
    for lit in &rule.body {
        let prune = |reason| StaticOutcome {
            reason: Some(reason),
            prunes: true,
            doms: Vec::new(),
        };
        match lit {
            LStatic::HoldsFor { fluent, value, out } => {
                let Some(key) = fluent.signature() else {
                    continue;
                };
                let ground = fluent.is_ground() && value.is_ground();
                if ground {
                    // A ground read never prunes: it loads the (possibly
                    // empty) interval list and continues.
                    let value_dead = env
                        .values(key)
                        .is_some_and(|vals| lterm_term(value).is_some_and(|g| !vals.contains(&g)));
                    if !env.can_hold(key) || value_dead {
                        empty_regs.insert(*out);
                    }
                } else {
                    // A non-ground read iterates the fluent's cached
                    // instances: none to iterate (or none matching the
                    // value pattern) is a prune.
                    match apply_fluent_ref(fluent, value, env, &mut doms, &rule.vars) {
                        Ok(()) => {}
                        Err(reason) => return prune(reason),
                    }
                }
            }
            LStatic::Union { inputs, out } => {
                if !inputs.is_empty() && inputs.iter().all(|r| empty_regs.contains(r)) {
                    empty_regs.insert(*out);
                }
            }
            LStatic::Intersect { inputs, out } => {
                if inputs.iter().any(|r| empty_regs.contains(r)) {
                    empty_regs.insert(*out);
                }
            }
            LStatic::RelComplement { base, out, .. } => {
                if empty_regs.contains(base) {
                    empty_regs.insert(*out);
                }
            }
            LStatic::Atemporal {
                negated: false,
                pattern,
                sig_warn,
            } => match apply_atemporal(pattern, sig_warn, &rule.vars, &mut doms, env) {
                Ok(()) => {}
                Err(reason) => return prune(reason),
            },
            LStatic::Atemporal { negated: true, .. } => {}
            LStatic::Compare { op, lowered } => {
                match apply_compare(*op, lowered, &rule.vars, &mut doms, env) {
                    Ok(()) => {}
                    Err(reason) => return prune(reason),
                }
            }
        }
    }

    // A rule with no holdsFor condition at all seeds zero candidates
    // and can never run; validation rejects that shape, so it is not
    // reported here.
    let reason = if empty_regs.contains(&rule.out_reg) {
        Some(EmptyReason::EmptyAlgebra {
            fluent: env.key_name(key),
        })
    } else {
        None
    };
    StaticOutcome {
        reason,
        prunes: false,
        doms,
    }
}
