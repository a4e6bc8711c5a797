//! The reference's arithmetic: expressions and comparisons evaluated
//! under [`Bindings`], written from LANGUAGE.md §4 and independent of
//! the engine's lowered `rtec::eval::arith`. The tests below hold the
//! two to the same values.

use rtec::ast::CmpOp;
use rtec::term::{match_term, Bindings, Term};
use rtec::SymbolTable;

/// Whether two ground terms are equal, numbers by value.
pub fn same(a: &Term, b: &Term) -> bool {
    match_term(a, b, &mut Bindings::new())
}

/// The value of an arithmetic expression under `b`, if it has one.
pub fn number(t: &Term, b: &Bindings, symbols: &SymbolTable) -> Option<f64> {
    match t {
        Term::Int(i) => Some(*i as f64),
        Term::Float(f) => Some(*f),
        Term::Var(v) => number(b.lookup(*v)?, b, symbols),
        Term::Compound(f, args) => {
            let arg = |i: usize| number(&args[i], b, symbols);
            match (symbols.name(*f), args.len()) {
                ("+", 2) => Some(arg(0)? + arg(1)?),
                ("-", 2) => Some(arg(0)? - arg(1)?),
                ("*", 2) => Some(arg(0)? * arg(1)?),
                ("/", 2) => {
                    let d = arg(1)?;
                    (d != 0.0).then_some(arg(0)? / d)
                }
                ("abs", 1) => Some(arg(0)?.abs()),
                ("min", 2) => Some(arg(0)?.min(arg(1)?)),
                ("max", 2) => Some(arg(0)?.max(arg(1)?)),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Whether `lhs op rhs` holds under `b`. With one side an unbound
/// variable and the other ground, `=` assigns: the variable is bound to
/// the other side, evaluated when it is an arithmetic expression.
pub fn compare(op: CmpOp, lhs: &Term, rhs: &Term, b: &mut Bindings, symbols: &SymbolTable) -> bool {
    let (ln, rn) = (number(lhs, b, symbols), number(rhs, b, symbols));
    if let (Some(l), Some(r)) = (ln, rn) {
        return match op {
            CmpOp::Eq => l == r,
            CmpOp::Neq => l != r,
            CmpOp::Lt => l < r,
            CmpOp::Gt => l > r,
            CmpOp::Le => l <= r,
            CmpOp::Ge => l >= r,
        };
    }
    let (la, ra) = (lhs.apply(b), rhs.apply(b));
    let value = |side: Term, n: Option<f64>| match (&side, n) {
        (Term::Compound(..), Some(x)) if x.fract() == 0.0 && x.abs() < 9e15 => Term::Int(x as i64),
        (Term::Compound(..), Some(x)) => Term::Float(x),
        _ => side,
    };
    match op {
        CmpOp::Eq if la.is_ground() && ra.is_ground() => same(&la, &ra),
        CmpOp::Eq => match (&la, &ra) {
            (Term::Var(v), _) if ra.is_ground() => {
                b.bind(*v, value(ra.clone(), rn));
                true
            }
            (_, Term::Var(v)) if la.is_ground() => {
                b.bind(*v, value(la.clone(), ln));
                true
            }
            _ => false,
        },
        CmpOp::Neq => la.is_ground() && ra.is_ground() && !same(&la, &ra),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtec::arena::{TermArena, Terms};
    use rtec::eval::arith::{ArithCtx, ArithOps, CompareOutcome, Expr};
    use rtec::frame::Frame;
    use rtec::lower::lower_compare;
    use rtec::parser::parse_term;
    use rtec::plan::ir::VarTable;

    /// The engine's lowered arithmetic and the reference's agree on the
    /// value of every expression, and on which have none.
    #[test]
    fn mirrors_agree_with_bindings_arith() {
        let mut sym = SymbolTable::new();
        let x = sym.intern("X");
        let y = sym.intern("Y");
        let sources = [
            ("X + 1", Some(6.0)),
            ("abs(X - Y) * 2", Some(5.0)),
            ("min(X, 3) + max(Y, 4)", Some(7.0)),
            ("X / Y", Some(2.0)),
            ("f(X)", None),
            ("Speed / 0", None),
            ("X / 0", None),
            ("Unknown", None),
        ];
        let parsed: Vec<Term> = sources
            .iter()
            .map(|(src, _)| parse_term(src, &mut sym).unwrap())
            .collect();
        let frozen = TermArena::frozen(sym.len(), |_| {});
        let ops = ArithOps::new(&sym);
        let ctx = ArithCtx {
            symbols: &sym,
            ops: &ops,
        };
        for ((src, expected), t) in sources.iter().zip(&parsed) {
            let mut vars = VarTable::default();
            let sx = vars.intern(x);
            let sy = vars.intern(y);
            for v in t.variables() {
                vars.intern(v);
            }
            let mut b = Bindings::new();
            b.bind(x, Term::Int(5));
            b.bind(y, Term::Float(2.5));
            let mut overlay = TermArena::overlay(&frozen);
            let mut terms = Terms::new(&frozen, &mut overlay);
            let mut frame = Frame::new(&vars);
            frame.bind_slot(sx, terms.intern_term(&Term::Int(5)));
            frame.bind_slot(sy, terms.intern_term(&Term::Float(2.5)));
            let via_bindings = number(t, &b, &sym);
            assert_eq!(via_bindings, *expected, "{src}");
            let lowered = Expr::lower(t, &vars, &sym);
            assert_eq!(
                via_bindings,
                lowered.eval(&frame, &terms, &ctx).ok(),
                "{src}"
            );
        }
    }

    /// `D = X + 1` binds `D` to the evaluated `6`, not the expression,
    /// in both.
    #[test]
    fn compare_mirror_binds_same_values() {
        let mut sym = SymbolTable::new();
        let lhs = parse_term("D", &mut sym).unwrap();
        let rhs = parse_term("X + 1", &mut sym).unwrap();
        let d = sym.get("D").unwrap();
        let x = sym.get("X").unwrap();
        let mut vars = VarTable::default();
        let mut lowered = None;
        let frozen = TermArena::frozen(sym.len(), |terms| {
            lowered = Some(lower_compare(&lhs, &rhs, &mut vars, &sym, terms));
        });
        let lowered = lowered.expect("lowered");
        let sd = vars.slot(d).unwrap();
        let sx = vars.slot(x).unwrap();

        let mut b = Bindings::new();
        b.bind(x, Term::Int(5));
        let mut overlay = TermArena::overlay(&frozen);
        let mut terms = Terms::new(&frozen, &mut overlay);
        let mut frame = Frame::new(&vars);
        frame.bind_slot(sx, terms.intern_term(&Term::Int(5)));
        let ops = ArithOps::new(&sym);
        let ctx = ArithCtx {
            symbols: &sym,
            ops: &ops,
        };

        assert!(compare(CmpOp::Eq, &lhs, &rhs, &mut b, &sym));
        assert!(matches!(
            rtec::eval::arith::compare(CmpOp::Eq, &lowered, &mut frame, &mut terms, &ctx),
            CompareOutcome::Bound
        ));
        let bound = frame.get_slot(sd).map(|id| terms.to_term(id));
        assert_eq!(b.lookup(d), bound.as_ref());
        assert_eq!(bound, Some(Term::Int(6)));
    }
}
