//! Lowering from validated rules to the slot-indexed plan IR, including
//! interval-operator fusion.

use crate::arena::Terms;
use crate::ast::{BodyLiteral, SimpleRule, StaticLiteral, StaticRule};
use crate::background::FactStore;
use crate::eval::arith::Expr;
use crate::plan::ir::{LBody, LCompare, LStatic, LTerm, LoweredSimple, LoweredStatic, VarTable};
use crate::symbol::{Symbol, SymbolTable};
use crate::term::Term;

/// Lowers a term, interning its variables into the rule's table and its
/// ground sub-terms — the rule's constants — into `terms`, the arena
/// being built.
pub(crate) fn lower_term(term: &Term, vars: &mut VarTable, terms: &mut Terms<'_>) -> LTerm {
    let lowered = match term {
        Term::Var(v) => LTerm::Slot(vars.intern(*v)),
        Term::Atom(s) => LTerm::Atom(*s),
        Term::Int(i) => LTerm::Int(*i),
        Term::Float(f) => LTerm::Float(*f),
        Term::Compound(f, args) => LTerm::Compound(
            *f,
            args.iter().map(|a| lower_term(a, vars, terms)).collect(),
        ),
        Term::List(items) => {
            LTerm::List(items.iter().map(|a| lower_term(a, vars, terms)).collect())
        }
    };
    if lowered.is_ground() {
        terms.intern_term(term);
    }
    lowered
}

/// Lowers a comparison's operands, interning their variables into the
/// rule's table and their constants into `terms`.
pub fn lower_compare(
    lhs: &Term,
    rhs: &Term,
    vars: &mut VarTable,
    symbols: &SymbolTable,
    terms: &mut Terms<'_>,
) -> LCompare {
    let lhs_term = lower_term(lhs, vars, terms);
    let rhs_term = lower_term(rhs, vars, terms);
    LCompare {
        lhs: Expr::lower(lhs, vars, symbols),
        rhs: Expr::lower(rhs, vars, symbols),
        lhs_term,
        rhs_term,
    }
}

/// Pre-renders the "no background facts" warning for a
/// positive atemporal literal. The condition — no fact shares the
/// pattern's signature — depends only on the fact store, which is
/// immutable after compilation, so it can be decided once here instead
/// of on every evaluation.
fn atemporal_warning(pattern: &Term, facts: &FactStore, symbols: &SymbolTable) -> Option<String> {
    if facts.has_signature_of(pattern) {
        return None;
    }
    pattern
        .signature()
        .map(|(f, a)| format!("no background facts for '{}/{}'", symbols.name(f), a))
}

/// Lowers one simple-fluent rule, interning its constants into `terms`.
/// Returns `None` for a rule whose first literal is not a positive
/// `happensAt` over a predicate (validation normally prevents both; such
/// a rule could never fire).
pub fn lower_simple(
    rule: &SimpleRule,
    facts: &FactStore,
    symbols: &SymbolTable,
    terms: &mut Terms<'_>,
) -> Option<LoweredSimple> {
    let BodyLiteral::HappensAt {
        negated: false,
        event,
    } = rule.body.first()?
    else {
        return None;
    };
    let first_sig = event.signature()?;

    let mut vars = VarTable::default();
    let head_fluent = lower_term(&rule.fvp.fluent, &mut vars, terms);
    let head_value = lower_term(&rule.fvp.value, &mut vars, terms);
    let time_slot = vars.intern(rule.time_var);
    let first_event = lower_term(event, &mut vars, terms);

    let body = rule.body[1..]
        .iter()
        .map(|lit| match lit {
            BodyLiteral::HappensAt { negated, event } => LBody::HappensAt {
                negated: *negated,
                event: lower_term(event, &mut vars, terms),
                sig: event.signature(),
            },
            BodyLiteral::HoldsAt { negated, fvp } => LBody::HoldsAt {
                negated: *negated,
                fluent: lower_term(&fvp.fluent, &mut vars, terms),
                value: lower_term(&fvp.value, &mut vars, terms),
            },
            BodyLiteral::Atemporal { negated, pattern } => LBody::Atemporal {
                negated: *negated,
                pattern: lower_term(pattern, &mut vars, terms),
                sig_warn: if *negated {
                    None
                } else {
                    atemporal_warning(pattern, facts, symbols)
                },
            },
            BodyLiteral::Compare { op, lhs, rhs } => LBody::Compare {
                op: *op,
                lowered: lower_compare(lhs, rhs, &mut vars, symbols, terms),
            },
        })
        .collect::<Vec<_>>();

    let reads_time = [&head_fluent, &head_value, &first_event]
        .into_iter()
        .any(|p| p.uses_slot(time_slot))
        || body.iter().any(|lit| match lit {
            LBody::HappensAt { event: p, .. } | LBody::Atemporal { pattern: p, .. } => {
                p.uses_slot(time_slot)
            }
            LBody::HoldsAt { fluent, value, .. } => {
                fluent.uses_slot(time_slot) || value.uses_slot(time_slot)
            }
            LBody::Compare { lowered, .. } => {
                lowered.lhs_term.uses_slot(time_slot) || lowered.rhs_term.uses_slot(time_slot)
            }
        });

    Some(LoweredSimple {
        rule: rule.clone(),
        vars,
        first_event,
        first_sig,
        time_slot,
        reads_time,
        body,
        head_fluent,
        head_value,
    })
}

/// How many times interval variable `v` is *read* by the body, and
/// whether any literal other than index `skip` *writes* it.
fn interval_reads(body: &[StaticLiteral], v: Symbol, skip: usize) -> (usize, bool) {
    let mut reads = 0;
    let mut foreign_write = false;
    for (i, lit) in body.iter().enumerate() {
        let (ins, base, out) = match lit {
            StaticLiteral::HoldsFor { out, .. } => (None, None, Some(*out)),
            StaticLiteral::Union { inputs, out } | StaticLiteral::Intersect { inputs, out } => {
                (Some(inputs), None, Some(*out))
            }
            StaticLiteral::RelComplement {
                base,
                subtract,
                out,
            } => (Some(subtract), Some(*base), Some(*out)),
            _ => (None, None, None),
        };
        if let Some(ins) = ins {
            reads += ins.iter().filter(|x| **x == v).count();
        }
        if base == Some(v) {
            reads += 1;
        }
        if out == Some(v) && i != skip {
            foreign_write = true;
        }
    }
    (reads, foreign_write)
}

/// Fuses adjacent interval-operator chains: a `union_all`/`intersect_all`
/// whose result feeds exactly one compatible consumer in the *next*
/// literal is inlined into that consumer's input list, eliminating the
/// intermediate list.
///
/// Soundness: over normalized maximal interval lists, `union_all` and
/// `intersect_all` are associative (`union_all([union_all(xs), y]) =
/// union_all(xs ++ [y])`), and `relative_complement_all(b, ls)` subtracts
/// `union_all(ls)`, so a union feeding a subtrahend flattens losslessly.
/// The interval operators emit no warnings and read only their input
/// registers, and adjacency guarantees no literal observes the
/// eliminated intermediate, so evaluation stays observationally
/// identical — including the empty-register pruning: a missing input
/// prunes the branch at the producer unfused and at the consumer fused,
/// with nothing emitted either way.
///
/// Returns the fused body plus the number of operators eliminated.
pub fn fuse_interval_ops(body: &[StaticLiteral], head_out: Symbol) -> (Vec<StaticLiteral>, usize) {
    let mut body: Vec<StaticLiteral> = body.to_vec();
    let mut fused = 0;
    'outer: loop {
        for i in 0..body.len().saturating_sub(1) {
            let (kind_union, inputs, out) = match &body[i] {
                StaticLiteral::Union { inputs, out } => (true, inputs.clone(), *out),
                StaticLiteral::Intersect { inputs, out } => (false, inputs.clone(), *out),
                _ => continue,
            };
            if out == head_out || inputs.contains(&out) {
                continue;
            }
            let (reads, foreign_write) = interval_reads(&body, out, i);
            if reads != 1 || foreign_write {
                continue;
            }
            // The single read must sit in the immediately following
            // literal, in a position where flattening is associative.
            let consumer_inputs: Option<&mut Vec<Symbol>> = match &mut body[i + 1] {
                StaticLiteral::Union {
                    inputs: consumer, ..
                } if kind_union => Some(consumer),
                StaticLiteral::Intersect {
                    inputs: consumer, ..
                } if !kind_union => Some(consumer),
                StaticLiteral::RelComplement {
                    subtract: consumer, ..
                } if kind_union => Some(consumer),
                _ => None,
            };
            let Some(consumer) = consumer_inputs else {
                continue;
            };
            let Some(pos) = consumer.iter().position(|x| *x == out) else {
                continue;
            };
            consumer.splice(pos..=pos, inputs.iter().copied());
            body.remove(i);
            fused += 1;
            continue 'outer;
        }
        break;
    }
    (body, fused)
}

/// Lowers one statically-determined-fluent rule (with fusion),
/// interning its constants into `terms`.
pub fn lower_static(
    rule: &StaticRule,
    facts: &FactStore,
    symbols: &SymbolTable,
    terms: &mut Terms<'_>,
) -> (LoweredStatic, usize) {
    let (fused_body, fused) = fuse_interval_ops(&rule.body, rule.out);

    let mut vars = VarTable::default();
    let head_fluent = lower_term(&rule.fvp.fluent, &mut vars, terms);
    let head_value = lower_term(&rule.fvp.value, &mut vars, terms);

    // Dense interval registers, in first-appearance order.
    let mut regs: Vec<Symbol> = Vec::new();
    let reg = |regs: &mut Vec<Symbol>, v: Symbol| -> u16 {
        if let Some(i) = regs.iter().position(|s| *s == v) {
            return i as u16;
        }
        regs.push(v);
        (regs.len() - 1) as u16
    };

    let body = fused_body
        .iter()
        .map(|lit| match lit {
            StaticLiteral::HoldsFor { fvp, out } => LStatic::HoldsFor {
                fluent: lower_term(&fvp.fluent, &mut vars, terms),
                value: lower_term(&fvp.value, &mut vars, terms),
                out: reg(&mut regs, *out),
            },
            StaticLiteral::Union { inputs, out } => LStatic::Union {
                inputs: inputs.iter().map(|v| reg(&mut regs, *v)).collect(),
                out: reg(&mut regs, *out),
            },
            StaticLiteral::Intersect { inputs, out } => LStatic::Intersect {
                inputs: inputs.iter().map(|v| reg(&mut regs, *v)).collect(),
                out: reg(&mut regs, *out),
            },
            StaticLiteral::RelComplement {
                base,
                subtract,
                out,
            } => LStatic::RelComplement {
                base: reg(&mut regs, *base),
                subtract: subtract.iter().map(|v| reg(&mut regs, *v)).collect(),
                out: reg(&mut regs, *out),
            },
            StaticLiteral::Atemporal { negated, pattern } => LStatic::Atemporal {
                negated: *negated,
                pattern: lower_term(pattern, &mut vars, terms),
                sig_warn: if *negated {
                    None
                } else {
                    atemporal_warning(pattern, facts, symbols)
                },
            },
            StaticLiteral::Compare { op, lhs, rhs } => LStatic::Compare {
                op: *op,
                lowered: lower_compare(lhs, rhs, &mut vars, symbols, terms),
            },
        })
        .collect::<Vec<_>>();

    let out_reg = reg(&mut regs, rule.out);
    (
        LoweredStatic {
            rule: rule.clone(),
            vars,
            body,
            head_fluent,
            head_value,
            out_reg,
            n_regs: regs.len(),
        },
        fused,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::description::EventDescription;

    fn static_rule(src: &str) -> StaticRule {
        let desc = EventDescription::parse(src).unwrap();
        let compiled = desc.compile().unwrap();
        compiled.statics[0].clone()
    }

    #[test]
    fn adjacent_unions_fuse() {
        let rule = static_rule(
            "holdsFor(g(V)=true, I) :- holdsFor(a(V)=true, I1), holdsFor(b(V)=true, I2), \
             holdsFor(c(V)=true, I3), union_all([I1, I2], U), union_all([U, I3], I).",
        );
        let (fused, n) = fuse_interval_ops(&rule.body, rule.out);
        assert_eq!(n, 1);
        let ops: Vec<_> = fused
            .iter()
            .filter(|l| matches!(l, StaticLiteral::Union { .. }))
            .collect();
        assert_eq!(ops.len(), 1);
        if let StaticLiteral::Union { inputs, out } = ops[0] {
            assert_eq!(inputs.len(), 3);
            assert_eq!(*out, rule.out);
        }
    }

    #[test]
    fn union_fuses_into_relative_complement_subtrahend() {
        let rule = static_rule(
            "holdsFor(g(V)=true, I) :- holdsFor(a(V)=true, I1), holdsFor(b(V)=true, I2), \
             holdsFor(c(V)=true, I3), union_all([I2, I3], U), \
             relative_complement_all(I1, [U], I).",
        );
        let (fused, n) = fuse_interval_ops(&rule.body, rule.out);
        assert_eq!(n, 1);
        assert!(fused.iter().any(
            |l| matches!(l, StaticLiteral::RelComplement { subtract, .. } if subtract.len() == 2)
        ));
    }

    #[test]
    fn head_output_is_never_fused_away() {
        let rule = static_rule(
            "holdsFor(g(V)=true, I) :- holdsFor(a(V)=true, I1), holdsFor(b(V)=true, I2), \
             union_all([I1, I2], I).",
        );
        let (fused, n) = fuse_interval_ops(&rule.body, rule.out);
        assert_eq!(n, 0);
        assert_eq!(fused.len(), rule.body.len());
    }

    #[test]
    fn intermediate_read_twice_is_kept() {
        let rule = static_rule(
            "holdsFor(g(V)=true, I) :- holdsFor(a(V)=true, I1), holdsFor(b(V)=true, I2), \
             union_all([I1, I2], U), intersect_all([U, U], I).",
        );
        let (_, n) = fuse_interval_ops(&rule.body, rule.out);
        assert_eq!(n, 0);
    }

    #[test]
    fn cross_kind_chains_do_not_fuse() {
        let rule = static_rule(
            "holdsFor(g(V)=true, I) :- holdsFor(a(V)=true, I1), holdsFor(b(V)=true, I2), \
             holdsFor(c(V)=true, I3), intersect_all([I1, I2], X), union_all([X, I3], I).",
        );
        let (_, n) = fuse_interval_ops(&rule.body, rule.out);
        assert_eq!(n, 0);
    }
}
