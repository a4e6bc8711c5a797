//! Arithmetic expression evaluation and comparisons.
//!
//! Rule bodies may compare arithmetic expressions over numbers bound from
//! events and background knowledge, e.g. `Speed > Max * 1.1` or
//! `abs(Heading - Cog) >= Thr`. Supported functions: `+`, `-`, `*`, `/`
//! (binary), `abs`, `min`, `max`. Lowering turns each operand into an
//! [`Expr`] whose leaves are slots or constants and whose operators are
//! [`ArithOp`]s resolved once, so evaluation neither matches functor names
//! nor clones bound terms. Failure texts, which become engine warnings,
//! display the *unapplied* sub-term at the point of failure; lowering
//! renders them once.

use crate::arena::{Shape, TermId, Terms};
use crate::ast::CmpOp;
use crate::frame::{materialize, Frame};
use crate::plan::ir::{LCompare, VarTable};
use crate::symbol::{Symbol, SymbolTable};
use crate::term::Term;
/// Why an arithmetic evaluation failed; surfaced as an engine warning.
#[derive(Clone, Debug, PartialEq)]
pub enum ArithIssue {
    /// A variable in the expression is not bound at evaluation time.
    Unbound(String),
    /// A sub-term is not numeric and not a known function.
    NotNumeric(String),
    /// Division by zero.
    DivisionByZero,
}

impl std::fmt::Display for ArithIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArithIssue::Unbound(v) => write!(f, "unbound variable '{v}' in arithmetic"),
            ArithIssue::NotNumeric(t) => write!(f, "non-numeric term '{t}' in arithmetic"),
            ArithIssue::DivisionByZero => write!(f, "division by zero"),
        }
    }
}

/// Outcome of a comparison attempt.
pub enum CompareOutcome {
    /// The comparison evaluated to a boolean.
    Decided(bool),
    /// `=` acted as an assignment, binding a variable (already applied to
    /// the frame).
    Bound,
    /// The comparison could not be evaluated.
    Failed(ArithIssue),
}

/// An arithmetic function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArithOp {
    /// `A + B`.
    Add,
    /// `A - B`.
    Sub,
    /// `A * B`.
    Mul,
    /// `A / B`; a zero divisor fails.
    Div,
    /// `min(A, B)`.
    Min,
    /// `max(A, B)`.
    Max,
    /// `abs(A)`.
    Abs,
}

impl ArithOp {
    const ALL: [(&'static str, usize, ArithOp); 7] = [
        ("+", 2, ArithOp::Add),
        ("-", 2, ArithOp::Sub),
        ("*", 2, ArithOp::Mul),
        ("/", 2, ArithOp::Div),
        ("min", 2, ArithOp::Min),
        ("max", 2, ArithOp::Max),
        ("abs", 1, ArithOp::Abs),
    ];

    /// The function a functor of this name and arity denotes, if any.
    pub fn from_name(name: &str, arity: usize) -> Option<ArithOp> {
        Self::ALL
            .iter()
            .find(|(n, a, _)| *n == name && *a == arity)
            .map(|(_, _, op)| *op)
    }
}

/// The arithmetic functors of one symbol table, for evaluating bound
/// terms (a variable bound to `S + 1` by a non-numeric `=`) without
/// name lookups.
#[derive(Clone, Debug, Default)]
pub struct ArithOps {
    by_symbol: Vec<(Symbol, usize, ArithOp)>,
}

impl ArithOps {
    /// Resolves the arithmetic functors interned in `symbols`.
    pub fn new(symbols: &SymbolTable) -> ArithOps {
        ArithOps {
            by_symbol: ArithOp::ALL
                .iter()
                .filter_map(|(name, arity, op)| symbols.get(name).map(|s| (s, *arity, *op)))
                .collect(),
        }
    }

    fn get(&self, functor: Symbol, arity: usize) -> Option<ArithOp> {
        self.by_symbol
            .iter()
            .find(|(s, a, _)| *s == functor && *a == arity)
            .map(|(_, _, op)| *op)
    }
}

/// What evaluation reads besides the frame: names for failure texts and
/// the arithmetic functors.
#[derive(Clone, Copy, Debug)]
pub struct ArithCtx<'a> {
    /// The description's symbols.
    pub symbols: &'a SymbolTable,
    /// The arithmetic functors of `symbols`.
    pub ops: &'a ArithOps,
}

/// A lowered arithmetic operand.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A numeric literal.
    Num(f64),
    /// A rule variable.
    Slot(u16),
    /// A one-argument function.
    Unary(ArithOp, Box<Expr>),
    /// A two-argument function.
    Binary(ArithOp, Box<Expr>, Box<Expr>),
    /// A sub-term that is neither a number, a variable nor a function:
    /// evaluating it fails with this text.
    NotNumeric(String),
}

impl Expr {
    /// Lowers `term`, whose variables `vars` already holds.
    ///
    /// # Panics
    /// Panics if a variable of `term` has no slot in `vars`.
    pub fn lower(term: &Term, vars: &VarTable, symbols: &SymbolTable) -> Expr {
        let lower = |t: &Term| Box::new(Expr::lower(t, vars, symbols));
        match term {
            Term::Int(i) => Expr::Num(*i as f64),
            Term::Float(x) => Expr::Num(*x),
            Term::Var(v) => Expr::Slot(vars.slot(*v).expect("comparison variables have slots")),
            Term::Compound(f, args) => match ArithOp::from_name(symbols.name(*f), args.len()) {
                Some(op) if args.len() == 1 => Expr::Unary(op, lower(&args[0])),
                Some(op) => Expr::Binary(op, lower(&args[0]), lower(&args[1])),
                None => Expr::NotNumeric(term.display(symbols).to_string()),
            },
            _ => Expr::NotNumeric(term.display(symbols).to_string()),
        }
    }

    /// Evaluates the operand to a number under the frame.
    pub fn eval(
        &self,
        frame: &Frame<'_>,
        terms: &Terms<'_>,
        ctx: &ArithCtx<'_>,
    ) -> Result<f64, ArithIssue> {
        match self {
            Expr::Num(x) => Ok(*x),
            Expr::Slot(i) => match frame.get_slot(*i) {
                Some(bound) => eval_id(bound, frame, terms, ctx),
                None => Err(ArithIssue::Unbound(
                    ctx.symbols.name(frame.vars().syms[*i as usize]).to_owned(),
                )),
            },
            Expr::Unary(op, a) => apply(*op, || a.eval(frame, terms, ctx), || Ok(0.0)),
            Expr::Binary(op, a, b) => apply(
                *op,
                || a.eval(frame, terms, ctx),
                || b.eval(frame, terms, ctx),
            ),
            Expr::NotNumeric(text) => Err(ArithIssue::NotNumeric(text.clone())),
        }
    }
}

/// Applies `op` to its lazily evaluated arguments: left to right, except
/// that a division checks its divisor first.
fn apply(
    op: ArithOp,
    lhs: impl FnOnce() -> Result<f64, ArithIssue>,
    rhs: impl FnOnce() -> Result<f64, ArithIssue>,
) -> Result<f64, ArithIssue> {
    if op == ArithOp::Div {
        let d = rhs()?;
        if d == 0.0 {
            return Err(ArithIssue::DivisionByZero);
        }
        return Ok(lhs()? / d);
    }
    let l = lhs()?;
    Ok(match op {
        ArithOp::Abs => l.abs(),
        ArithOp::Add => l + rhs()?,
        ArithOp::Sub => l - rhs()?,
        ArithOp::Mul => l * rhs()?,
        ArithOp::Min => l.min(rhs()?),
        ArithOp::Max => l.max(rhs()?),
        ArithOp::Div => unreachable!("handled above"),
    })
}

/// Evaluates a bound term to a number, resolving its variables through
/// the frame.
fn eval_id(
    id: TermId,
    frame: &Frame<'_>,
    terms: &Terms<'_>,
    ctx: &ArithCtx<'_>,
) -> Result<f64, ArithIssue> {
    let not_numeric = || ArithIssue::NotNumeric(terms.to_term(id).display(ctx.symbols).to_string());
    match terms.shape(id) {
        Shape::Int(i) => Ok(i as f64),
        Shape::Float(x) => Ok(x),
        Shape::Var(v) => match frame.lookup_sym(v) {
            Some(bound) => eval_id(bound, frame, terms, ctx),
            None => Err(ArithIssue::Unbound(ctx.symbols.name(v).to_owned())),
        },
        Shape::Compound(f, args) => match ctx.ops.get(f, args.len()) {
            Some(op) => apply(
                op,
                || eval_id(args[0], frame, terms, ctx),
                || {
                    args.get(1)
                        .map_or(Ok(0.0), |b| eval_id(*b, frame, terms, ctx))
                },
            ),
            None => Err(not_numeric()),
        },
        _ => Err(not_numeric()),
    }
}

/// Evaluates a lowered comparison under the frame.
///
/// `=` additionally supports Prolog-style one-sided unification: when one
/// operand is an unbound variable and the other is ground, the variable is
/// bound (LLM-generated rules use this for intermediate values).
pub fn compare(
    op: CmpOp,
    cmp: &LCompare,
    frame: &mut Frame<'_>,
    terms: &mut Terms<'_>,
    ctx: &ArithCtx<'_>,
) -> CompareOutcome {
    let ln = cmp.lhs.eval(frame, terms, ctx);
    let rn = cmp.rhs.eval(frame, terms, ctx);
    if let (Ok(l), Ok(r)) = (&ln, &rn) {
        let v = match op {
            CmpOp::Eq => l == r,
            CmpOp::Neq => l != r,
            CmpOp::Lt => l < r,
            CmpOp::Gt => l > r,
            CmpOp::Le => l <= r,
            CmpOp::Ge => l >= r,
        };
        return CompareOutcome::Decided(v);
    }
    let la = materialize(&cmp.lhs_term, frame, terms);
    let ra = materialize(&cmp.rhs_term, frame, terms);
    // When `=` acts as an assignment of an arithmetic expression
    // (`Diff = A - B`), bind the *evaluated* number, not the raw compound:
    // the bound variable may later appear in structural-match positions
    // (holdsAt values, event arguments), where `+(5, 1)` would never
    // match the integer 6.
    let as_value = |terms: &mut Terms<'_>, side: TermId, num: Result<f64, ArithIssue>| -> TermId {
        match num {
            Ok(x) if matches!(terms.shape(side), Shape::Compound(..)) => {
                if x.fract() == 0.0 && x.abs() < 9e15 {
                    terms.intern(Shape::Int(x as i64))
                } else {
                    terms.intern(Shape::Float(x))
                }
            }
            _ => side,
        }
    };
    let var = |terms: &Terms<'_>, id: TermId| match terms.shape(id) {
        Shape::Var(v) => Some(v),
        _ => None,
    };
    let unbound = |terms: &Terms<'_>, symbol: &str| {
        CompareOutcome::Failed(ArithIssue::Unbound(format!(
            "{} {symbol} {}",
            terms.to_term(la).display(ctx.symbols),
            terms.to_term(ra).display(ctx.symbols)
        )))
    };
    let (lg, rg) = (terms.is_ground(la), terms.is_ground(ra));
    match op {
        CmpOp::Eq => {
            if lg && rg {
                CompareOutcome::Decided(la == ra)
            } else if let (Some(v), true) = (var(terms, la), rg) {
                let value = as_value(terms, ra, rn);
                frame.bind_sym(v, value);
                CompareOutcome::Bound
            } else if let (true, Some(v)) = (lg, var(terms, ra)) {
                let value = as_value(terms, la, ln);
                frame.bind_sym(v, value);
                CompareOutcome::Bound
            } else {
                unbound(terms, "=")
            }
        }
        CmpOp::Neq => {
            if lg && rg {
                CompareOutcome::Decided(la != ra)
            } else {
                unbound(terms, "\\=")
            }
        }
        _ => CompareOutcome::Failed(match (ln, rn) {
            (Err(e), _) | (_, Err(e)) => e,
            _ => unreachable!("numeric fast path handled Ok/Ok"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::TermArena;
    use crate::parser::parse_term;

    /// Evaluates `src` with each `(name, value)` bound.
    fn eval_src(src: &str, bound: &[(&str, Term)]) -> Result<f64, ArithIssue> {
        let mut sym = SymbolTable::new();
        let t = parse_term(src, &mut sym).unwrap();
        let mut vars = VarTable::default();
        for v in t.variables() {
            vars.intern(v);
        }
        let expr = Expr::lower(&t, &vars, &sym);
        let frozen = TermArena::frozen(sym.len(), |_| {});
        let mut overlay = TermArena::overlay(&frozen);
        let mut terms = Terms::new(&frozen, &mut overlay);
        let mut frame = Frame::new(&vars);
        for (name, value) in bound {
            let id = terms.intern_term(value);
            frame.bind_sym(sym.get(name).unwrap(), id);
        }
        let ops = ArithOps::new(&sym);
        expr.eval(
            &frame,
            &terms,
            &ArithCtx {
                symbols: &sym,
                ops: &ops,
            },
        )
    }

    /// Evaluates `lhs op rhs` with each `(name, value)` bound, the value
    /// parsed from source; returns the outcome and every variable bound
    /// afterwards, in a rule slot or not, rendered.
    fn compare_src(
        op: CmpOp,
        lhs: &str,
        rhs: &str,
        bound: &[(&str, &str)],
    ) -> (CompareOutcome, Vec<(String, String)>) {
        let mut sym = SymbolTable::new();
        let l = parse_term(lhs, &mut sym).unwrap();
        let r = parse_term(rhs, &mut sym).unwrap();
        let bound: Vec<(Symbol, Term)> = bound
            .iter()
            .map(|(name, value)| (sym.intern(name), parse_term(value, &mut sym).unwrap()))
            .collect();
        let mut vars = VarTable::default();
        let mut cmp = None;
        let frozen = TermArena::frozen(sym.len(), |terms| {
            cmp = Some(crate::lower::lower_compare(&l, &r, &mut vars, &sym, terms));
        });
        let cmp = cmp.expect("lowered");
        let mut overlay = TermArena::overlay(&frozen);
        let mut terms = Terms::new(&frozen, &mut overlay);
        let mut frame = Frame::new(&vars);
        for (var, value) in &bound {
            let id = terms.intern_term(value);
            frame.bind_sym(*var, id);
        }
        let ops = ArithOps::new(&sym);
        let ctx = ArithCtx {
            symbols: &sym,
            ops: &ops,
        };
        let outcome = compare(op, &cmp, &mut frame, &mut terms, &ctx);
        let bound = (0..sym.len() as u32)
            .map(Symbol)
            .filter_map(|s| {
                let value = terms.to_term(frame.lookup_sym(s)?);
                Some((sym.name(s).to_owned(), value.display(&sym).to_string()))
            })
            .collect();
        (outcome, bound)
    }

    #[test]
    fn evaluates_nested_arithmetic() {
        assert_eq!(eval_src("abs(3 - 10) * 2 + 1", &[]).unwrap(), 15.0);
    }

    #[test]
    fn variables_resolve_through_bindings() {
        assert_eq!(eval_src("X + 1", &[("X", Term::Float(2.5))]).unwrap(), 3.5);
    }

    #[test]
    fn unbound_variable_is_reported() {
        assert!(matches!(
            eval_src("Speed", &[]),
            Err(ArithIssue::Unbound(v)) if v == "Speed"
        ));
    }

    #[test]
    fn division_by_zero_is_reported() {
        assert_eq!(eval_src("1 / 0", &[]), Err(ArithIssue::DivisionByZero));
        // The divisor is checked first: an unbound dividend is not
        // reached.
        assert_eq!(eval_src("Speed / 0", &[]), Err(ArithIssue::DivisionByZero));
    }

    #[test]
    fn min_max_functions() {
        assert_eq!(eval_src("min(3, 5) + max(3, 5)", &[]).unwrap(), 8.0);
        let bound = [("X", Term::Int(5)), ("Y", Term::Float(2.5))];
        assert_eq!(
            eval_src("min(X, 3) + max(Y, 4) + abs(X - Y) * 2", &bound).unwrap(),
            12.0
        );
    }

    #[test]
    fn non_numeric_term_is_reported_unapplied() {
        assert_eq!(
            eval_src("f(X) + 1", &[("X", Term::Int(5))]),
            Err(ArithIssue::NotNumeric("f(X)".to_string()))
        );
    }

    #[test]
    fn numeric_comparison() {
        assert!(matches!(
            compare_src(CmpOp::Gt, "3.5", "3", &[]).0,
            CompareOutcome::Decided(true)
        ));
        assert!(matches!(
            compare_src(CmpOp::Le, "3.5", "3", &[]).0,
            CompareOutcome::Decided(false)
        ));
    }

    #[test]
    fn structural_equality_on_atoms() {
        assert!(matches!(
            compare_src(CmpOp::Eq, "fishing", "fishing", &[]).0,
            CompareOutcome::Decided(true)
        ));
        assert!(matches!(
            compare_src(CmpOp::Neq, "fishing", "anchorage", &[]).0,
            CompareOutcome::Decided(true)
        ));
    }

    #[test]
    fn eq_binds_evaluated_number_not_raw_expression() {
        let (outcome, bound) = compare_src(CmpOp::Eq, "Diff", "S + 1", &[("S", "5")]);
        assert!(matches!(outcome, CompareOutcome::Bound));
        // The variable must hold 6, not the compound +(5, 1), so that it
        // structurally matches integer values elsewhere.
        assert!(bound.contains(&("Diff".to_string(), "6".to_string())));
        // Non-numeric ground terms still bind structurally.
        let (outcome, bound) = compare_src(CmpOp::Eq, "X", "f(a)", &[]);
        assert!(matches!(outcome, CompareOutcome::Bound));
        assert_eq!(bound, vec![("X".to_string(), "f(a)".to_string())]);
    }

    #[test]
    fn eq_binds_unbound_variable() {
        for (lhs, rhs) in [("X", "fishing"), ("fishing", "X")] {
            let (outcome, bound) = compare_src(CmpOp::Eq, lhs, rhs, &[]);
            assert!(matches!(outcome, CompareOutcome::Bound), "{lhs} = {rhs}");
            assert_eq!(bound, vec![("X".to_string(), "fishing".to_string())]);
        }
        // A slot bound to a variable outside the rule's slots (events may
        // carry variables) binds that variable all the same.
        for (lhs, rhs) in [("X", "fishing"), ("fishing", "X")] {
            let (outcome, bound) = compare_src(CmpOp::Eq, lhs, rhs, &[("X", "Y")]);
            assert!(matches!(outcome, CompareOutcome::Bound), "{lhs} = {rhs}");
            assert_eq!(
                bound,
                vec![
                    ("X".to_string(), "Y".to_string()),
                    ("Y".to_string(), "fishing".to_string())
                ]
            );
        }
        // Two unbound sides cannot be decided.
        assert!(matches!(
            compare_src(CmpOp::Eq, "X", "Y", &[]).0,
            CompareOutcome::Failed(ArithIssue::Unbound(text)) if text == "X = Y"
        ));
    }

    #[test]
    fn ordered_comparison_of_atoms_fails() {
        assert!(matches!(
            compare_src(CmpOp::Lt, "fishing", "anchorage", &[]).0,
            CompareOutcome::Failed(_)
        ));
    }
}
