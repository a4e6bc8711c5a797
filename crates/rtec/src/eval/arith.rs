//! Arithmetic expression evaluation and comparisons.
//!
//! Rule bodies may compare arithmetic expressions over numbers bound from
//! events and background knowledge, e.g. `Speed > Max * 1.1` or
//! `abs(Heading - Cog) >= Thr`. Supported functions: `+`, `-`, `*`, `/`
//! (binary), `abs`, `min`, `max`. Variables resolve through the rule's
//! [`Frame`]; failure texts, which become engine warnings, display the
//! *unapplied* sub-term at the point of failure.

use crate::ast::CmpOp;
use crate::frame::{resolve, Frame};
use crate::symbol::SymbolTable;
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

/// Evaluates `term` to a number under the frame.
pub fn eval_num_frame(
    term: &Term,
    frame: &Frame<'_>,
    symbols: &SymbolTable,
) -> Result<f64, ArithIssue> {
    match term {
        Term::Int(i) => Ok(*i as f64),
        Term::Float(f) => Ok(*f),
        Term::Var(v) => match frame.lookup_sym(*v) {
            Some(bound) => eval_num_frame(&bound.clone(), frame, symbols),
            None => Err(ArithIssue::Unbound(symbols.name(*v).to_owned())),
        },
        Term::Compound(f, args) => {
            let name = symbols.name(*f);
            match (name, args.len()) {
                ("+", 2) => Ok(eval_num_frame(&args[0], frame, symbols)?
                    + eval_num_frame(&args[1], frame, symbols)?),
                ("-", 2) => Ok(eval_num_frame(&args[0], frame, symbols)?
                    - eval_num_frame(&args[1], frame, symbols)?),
                ("*", 2) => Ok(eval_num_frame(&args[0], frame, symbols)?
                    * eval_num_frame(&args[1], frame, symbols)?),
                ("/", 2) => {
                    let d = eval_num_frame(&args[1], frame, symbols)?;
                    if d == 0.0 {
                        return Err(ArithIssue::DivisionByZero);
                    }
                    Ok(eval_num_frame(&args[0], frame, symbols)? / d)
                }
                ("abs", 1) => Ok(eval_num_frame(&args[0], frame, symbols)?.abs()),
                ("min", 2) => Ok(eval_num_frame(&args[0], frame, symbols)?
                    .min(eval_num_frame(&args[1], frame, symbols)?)),
                ("max", 2) => Ok(eval_num_frame(&args[0], frame, symbols)?
                    .max(eval_num_frame(&args[1], frame, symbols)?)),
                _ => Err(ArithIssue::NotNumeric(term.display(symbols).to_string())),
            }
        }
        _ => Err(ArithIssue::NotNumeric(term.display(symbols).to_string())),
    }
}

/// Evaluates `lhs op rhs` under the frame.
///
/// `=` additionally supports Prolog-style one-sided unification: when one
/// operand is an unbound variable and the other is ground, the variable is
/// bound (LLM-generated rules use this for intermediate values).
pub fn compare_frame(
    op: CmpOp,
    lhs: &Term,
    rhs: &Term,
    frame: &mut Frame<'_>,
    symbols: &SymbolTable,
) -> CompareOutcome {
    let ln = eval_num_frame(lhs, frame, symbols);
    let rn = eval_num_frame(rhs, frame, symbols);
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
    let la = resolve(lhs, frame);
    let ra = resolve(rhs, frame);
    // When `=` acts as an assignment of an arithmetic expression
    // (`Diff = A - B`), bind the *evaluated* number, not the raw compound:
    // the bound variable may later appear in structural-match positions
    // (holdsAt values, event arguments), where `+(5, 1)` would never
    // match the integer 6.
    let as_value = |side: Term, num: Result<f64, ArithIssue>| -> Term {
        match (&side, num) {
            (Term::Compound(..), Ok(x)) => {
                if x.fract() == 0.0 && x.abs() < 9e15 {
                    Term::Int(x as i64)
                } else {
                    Term::Float(x)
                }
            }
            _ => side,
        }
    };
    match op {
        CmpOp::Eq => {
            if la.is_ground() && ra.is_ground() {
                CompareOutcome::Decided(la == ra)
            } else if let (Term::Var(v), true) = (&la, ra.is_ground()) {
                let v = *v;
                let value = as_value(ra, rn);
                frame.bind_sym(v, value);
                CompareOutcome::Bound
            } else if let (true, Term::Var(v)) = (la.is_ground(), &ra) {
                let v = *v;
                let value = as_value(la, ln);
                frame.bind_sym(v, value);
                CompareOutcome::Bound
            } else {
                CompareOutcome::Failed(ArithIssue::Unbound(format!(
                    "{} = {}",
                    la.display(symbols),
                    ra.display(symbols)
                )))
            }
        }
        CmpOp::Neq => {
            if la.is_ground() && ra.is_ground() {
                CompareOutcome::Decided(la != ra)
            } else {
                CompareOutcome::Failed(ArithIssue::Unbound(format!(
                    "{} \\= {}",
                    la.display(symbols),
                    ra.display(symbols)
                )))
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
    use crate::parser::parse_term;
    use crate::plan::ir::VarTable;

    /// Parses `expr` and gives every variable of it a slot.
    fn setup(expr: &str) -> (Term, SymbolTable, VarTable) {
        let mut sym = SymbolTable::new();
        let t = parse_term(expr, &mut sym).unwrap();
        let mut vars = VarTable::default();
        for v in t.variables() {
            vars.intern(v);
        }
        (t, sym, vars)
    }

    /// A frame over `vars` with each `(name, value)` bound.
    fn frame_with<'v>(vars: &'v VarTable, sym: &SymbolTable, bound: &[(&str, Term)]) -> Frame<'v> {
        let mut frame = Frame::new(vars);
        for (name, value) in bound {
            frame.bind_sym(sym.get(name).unwrap(), value.clone());
        }
        frame
    }

    #[test]
    fn evaluates_nested_arithmetic() {
        let (t, sym, vars) = setup("abs(3 - 10) * 2 + 1");
        let frame = Frame::new(&vars);
        assert_eq!(eval_num_frame(&t, &frame, &sym).unwrap(), 15.0);
    }

    #[test]
    fn variables_resolve_through_bindings() {
        let (t, sym, vars) = setup("X + 1");
        let frame = frame_with(&vars, &sym, &[("X", Term::Float(2.5))]);
        assert_eq!(eval_num_frame(&t, &frame, &sym).unwrap(), 3.5);
    }

    #[test]
    fn unbound_variable_is_reported() {
        let (t, sym, vars) = setup("Speed");
        let frame = Frame::new(&vars);
        assert!(matches!(
            eval_num_frame(&t, &frame, &sym),
            Err(ArithIssue::Unbound(v)) if v == "Speed"
        ));
    }

    #[test]
    fn division_by_zero_is_reported() {
        let (t, sym, vars) = setup("1 / 0");
        let frame = Frame::new(&vars);
        assert_eq!(
            eval_num_frame(&t, &frame, &sym),
            Err(ArithIssue::DivisionByZero)
        );
        // The divisor is checked first: an unbound dividend is not
        // reached.
        let (t, sym, vars) = setup("Speed / 0");
        let frame = Frame::new(&vars);
        assert_eq!(
            eval_num_frame(&t, &frame, &sym),
            Err(ArithIssue::DivisionByZero)
        );
    }

    #[test]
    fn min_max_functions() {
        let (t, sym, vars) = setup("min(3, 5) + max(3, 5)");
        let frame = Frame::new(&vars);
        assert_eq!(eval_num_frame(&t, &frame, &sym).unwrap(), 8.0);
        let (t, sym, vars) = setup("min(X, 3) + max(Y, 4) + abs(X - Y) * 2");
        let frame = frame_with(&vars, &sym, &[("X", Term::Int(5)), ("Y", Term::Float(2.5))]);
        assert_eq!(eval_num_frame(&t, &frame, &sym).unwrap(), 12.0);
    }

    #[test]
    fn non_numeric_term_is_reported_unapplied() {
        let (t, sym, vars) = setup("f(X) + 1");
        let frame = frame_with(&vars, &sym, &[("X", Term::Int(5))]);
        assert_eq!(
            eval_num_frame(&t, &frame, &sym),
            Err(ArithIssue::NotNumeric("f(X)".to_string()))
        );
    }

    #[test]
    fn numeric_comparison() {
        let mut sym = SymbolTable::new();
        let l = parse_term("3.5", &mut sym).unwrap();
        let r = parse_term("3", &mut sym).unwrap();
        let vars = VarTable::default();
        let mut frame = Frame::new(&vars);
        assert!(matches!(
            compare_frame(CmpOp::Gt, &l, &r, &mut frame, &sym),
            CompareOutcome::Decided(true)
        ));
        assert!(matches!(
            compare_frame(CmpOp::Le, &l, &r, &mut frame, &sym),
            CompareOutcome::Decided(false)
        ));
    }

    #[test]
    fn structural_equality_on_atoms() {
        let mut sym = SymbolTable::new();
        let l = parse_term("fishing", &mut sym).unwrap();
        let r = parse_term("fishing", &mut sym).unwrap();
        let r2 = parse_term("anchorage", &mut sym).unwrap();
        let vars = VarTable::default();
        let mut frame = Frame::new(&vars);
        assert!(matches!(
            compare_frame(CmpOp::Eq, &l, &r, &mut frame, &sym),
            CompareOutcome::Decided(true)
        ));
        assert!(matches!(
            compare_frame(CmpOp::Neq, &l, &r2, &mut frame, &sym),
            CompareOutcome::Decided(true)
        ));
    }

    #[test]
    fn eq_binds_evaluated_number_not_raw_expression() {
        let mut sym = SymbolTable::new();
        let lhs = parse_term("Diff", &mut sym).unwrap();
        let rhs = parse_term("S + 1", &mut sym).unwrap();
        let lhs2 = parse_term("X", &mut sym).unwrap();
        let rhs2 = parse_term("f(a)", &mut sym).unwrap();
        let mut vars = VarTable::default();
        let diff = vars.intern(sym.get("Diff").unwrap());
        vars.intern(sym.get("S").unwrap());
        let x = vars.intern(sym.get("X").unwrap());
        let mut frame = frame_with(&vars, &sym, &[("S", Term::Int(5))]);
        assert!(matches!(
            compare_frame(CmpOp::Eq, &lhs, &rhs, &mut frame, &sym),
            CompareOutcome::Bound
        ));
        // The variable must hold 6, not the compound +(5, 1), so that it
        // structurally matches integer values elsewhere.
        assert_eq!(frame.get_slot(diff), Some(&Term::Int(6)));
        // Non-numeric ground terms still bind structurally.
        assert!(matches!(
            compare_frame(CmpOp::Eq, &lhs2, &rhs2, &mut frame, &sym),
            CompareOutcome::Bound
        ));
        assert_eq!(frame.get_slot(x), Some(&rhs2));
    }

    #[test]
    fn eq_binds_unbound_variable() {
        let mut sym = SymbolTable::new();
        let l = parse_term("X", &mut sym).unwrap();
        let r = parse_term("fishing", &mut sym).unwrap();
        let mut vars = VarTable::default();
        let x = vars.intern(sym.get("X").unwrap());
        let mut frame = Frame::new(&vars);
        assert!(matches!(
            compare_frame(CmpOp::Eq, &l, &r, &mut frame, &sym),
            CompareOutcome::Bound
        ));
        assert_eq!(frame.get_slot(x), Some(&r));
        // A variable outside the rule's slots binds all the same.
        let y = parse_term("Y", &mut sym).unwrap();
        assert!(matches!(
            compare_frame(CmpOp::Eq, &r, &y, &mut frame, &sym),
            CompareOutcome::Bound
        ));
        assert_eq!(frame.lookup_sym(sym.get("Y").unwrap()), Some(&r));
    }

    #[test]
    fn ordered_comparison_of_atoms_fails() {
        let mut sym = SymbolTable::new();
        let l = parse_term("fishing", &mut sym).unwrap();
        let r = parse_term("anchorage", &mut sym).unwrap();
        let vars = VarTable::default();
        let mut frame = Frame::new(&vars);
        assert!(matches!(
            compare_frame(CmpOp::Lt, &l, &r, &mut frame, &sym),
            CompareOutcome::Failed(_)
        ));
    }
}
