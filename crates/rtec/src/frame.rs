//! Slot-indexed binding frames.
//!
//! A [`Frame`] replaces [`crate::term::Bindings`] during plan execution:
//! the rule's own variables live in a flat slot array (O(1) access by
//! compile-time index), while variables that only appear at run time —
//! degenerate streams can carry variables inside event terms — fall back
//! to an overflow `Bindings`. A trail records slot writes so a failed
//! branch unwinds in LIFO order, exactly like `Bindings::truncate`.

use crate::plan::ir::{LTerm, VarTable};
use crate::symbol::Symbol;
use crate::term::{match_term, Bindings, GroundFvp, Term};

/// Undo point of a [`Frame`]; see [`Frame::mark`].
#[derive(Clone, Copy, Debug)]
pub struct FrameMark {
    trail: usize,
    overflow: usize,
}

/// The run-time variable store of one rule activation.
#[derive(Debug)]
pub struct Frame<'v> {
    vars: &'v VarTable,
    slots: Vec<Option<Term>>,
    trail: Vec<u16>,
    overflow: Bindings,
}

impl<'v> Frame<'v> {
    /// Creates an empty frame for a rule's variable table.
    pub fn new(vars: &'v VarTable) -> Frame<'v> {
        Frame {
            vars,
            slots: vec![None; vars.len()],
            trail: Vec::new(),
            overflow: Bindings::new(),
        }
    }

    /// The variable table this frame indexes into.
    pub fn vars(&self) -> &VarTable {
        self.vars
    }

    /// A restore point capturing the current binding state.
    pub fn mark(&self) -> FrameMark {
        FrameMark {
            trail: self.trail.len(),
            overflow: self.overflow.len(),
        }
    }

    /// Unwinds all bindings made after `mark`.
    pub fn undo(&mut self, mark: FrameMark) {
        while self.trail.len() > mark.trail {
            let slot = self.trail.pop().expect("trail length checked");
            self.slots[slot as usize] = None;
        }
        self.overflow.truncate(mark.overflow);
    }

    /// Unwinds every binding (reuse between rule activations).
    pub fn clear(&mut self) {
        self.undo(FrameMark {
            trail: 0,
            overflow: 0,
        });
    }

    /// The value bound to `slot`, if any.
    pub fn get_slot(&self, slot: u16) -> Option<&Term> {
        self.slots[slot as usize].as_ref()
    }

    /// Binds `slot` to `value`.
    ///
    /// # Panics
    /// Panics in debug builds if the slot is already bound (mirroring
    /// [`Bindings::bind`]).
    pub fn bind_slot(&mut self, slot: u16, value: Term) {
        debug_assert!(self.slots[slot as usize].is_none(), "slot already bound");
        self.slots[slot as usize] = Some(value);
        self.trail.push(slot);
    }

    /// The value bound to variable symbol `sym` — slot first, overflow
    /// second. This is the frame's equivalent of `Bindings::lookup`.
    pub fn lookup_sym(&self, sym: Symbol) -> Option<&Term> {
        match self.vars.slot(sym) {
            Some(i) => self.slots[i as usize].as_ref(),
            None => self.overflow.lookup(sym),
        }
    }

    /// Binds variable symbol `sym` (slot if it is a rule variable,
    /// overflow otherwise).
    pub fn bind_sym(&mut self, sym: Symbol, value: Term) {
        match self.vars.slot(sym) {
            Some(i) => self.bind_slot(i, value),
            None => self.overflow.bind(sym, value),
        }
    }

    /// Loads a `Bindings` produced by candidate seeding into the frame.
    pub fn load(&mut self, bindings: &Bindings) {
        for (v, t) in bindings.iter() {
            self.bind_sym(v, t.clone());
        }
    }
}

/// Matches a lowered pattern against a fact term, extending `frame`. On
/// failure the frame is restored and `false` returned — the lowered
/// mirror of [`crate::term::match_term`].
pub fn match_lterm(pattern: &LTerm, fact: &Term, frame: &mut Frame<'_>) -> bool {
    let mark = frame.mark();
    if match_lterm_inner(pattern, fact, frame) {
        true
    } else {
        frame.undo(mark);
        false
    }
}

fn match_lterm_inner(pattern: &LTerm, fact: &Term, frame: &mut Frame<'_>) -> bool {
    match pattern {
        LTerm::Slot(i) => match frame.get_slot(*i) {
            // A ground binding binds nothing more: match it in place.
            Some(bound) if bound.is_ground() => match_term(bound, fact, &mut Bindings::new()),
            Some(bound) => {
                let bound = bound.clone();
                match_resolved_inner(&bound, fact, frame)
            }
            None => {
                frame.bind_slot(*i, fact.clone());
                true
            }
        },
        LTerm::Atom(a) => matches!(fact, Term::Atom(b) if a == b),
        LTerm::Int(i) => match fact {
            Term::Int(j) => i == j,
            Term::Float(f) => (*i as f64) == *f,
            _ => false,
        },
        LTerm::Float(x) => match fact {
            Term::Float(y) => x == y,
            Term::Int(j) => *x == (*j as f64),
            _ => false,
        },
        LTerm::Compound(f, args) => match fact {
            Term::Compound(g, fargs) if f == g && args.len() == fargs.len() => args
                .iter()
                .zip(fargs)
                .all(|(p, q)| match_lterm_inner(p, q, frame)),
            _ => false,
        },
        LTerm::List(items) => match fact {
            Term::List(fitems) if items.len() == fitems.len() => items
                .iter()
                .zip(fitems)
                .all(|(p, q)| match_lterm_inner(p, q, frame)),
            _ => false,
        },
    }
}

/// Matches a materialized fluent and value against a ground instance,
/// resolving variables through the frame and extending it — what
/// `match_term` of `=(fluent, value)` against `=(inst.fluent,
/// inst.value)` would do, without building either pair. On failure the
/// frame is restored.
pub fn match_fvp(fluent: &Term, value: &Term, inst: &GroundFvp, frame: &mut Frame<'_>) -> bool {
    let mark = frame.mark();
    if match_resolved_inner(fluent, &inst.fluent, frame)
        && match_resolved_inner(value, &inst.value, frame)
    {
        true
    } else {
        frame.undo(mark);
        false
    }
}

fn match_resolved_inner(pattern: &Term, fact: &Term, frame: &mut Frame<'_>) -> bool {
    match pattern {
        Term::Var(v) => match frame.lookup_sym(*v) {
            Some(bound) if bound.is_ground() => match_term(bound, fact, &mut Bindings::new()),
            Some(bound) => {
                let bound = bound.clone();
                match_resolved_inner(&bound, fact, frame)
            }
            None => {
                frame.bind_sym(*v, fact.clone());
                true
            }
        },
        Term::Atom(a) => matches!(fact, Term::Atom(b) if a == b),
        Term::Int(i) => match fact {
            Term::Int(j) => i == j,
            Term::Float(f) => (*i as f64) == *f,
            _ => false,
        },
        Term::Float(x) => match fact {
            Term::Float(y) => x == y,
            Term::Int(j) => *x == (*j as f64),
            _ => false,
        },
        Term::Compound(f, args) => match fact {
            Term::Compound(g, fargs) if f == g && args.len() == fargs.len() => args
                .iter()
                .zip(fargs)
                .all(|(p, q)| match_resolved_inner(p, q, frame)),
            _ => false,
        },
        Term::List(items) => match fact {
            Term::List(fitems) if items.len() == fitems.len() => items
                .iter()
                .zip(fitems)
                .all(|(p, q)| match_resolved_inner(p, q, frame)),
            _ => false,
        },
    }
}

/// Instantiates a lowered pattern under the frame, producing the same
/// term `pattern.apply(bindings)` would: bound variables are replaced
/// (resolving chains), unbound ones reappear as their original symbols.
pub fn materialize(pattern: &LTerm, frame: &Frame<'_>) -> Term {
    match pattern {
        LTerm::Slot(i) => match frame.get_slot(*i) {
            Some(t) => resolve(t, frame),
            None => Term::Var(frame.vars().syms[*i as usize]),
        },
        LTerm::Atom(s) => Term::Atom(*s),
        LTerm::Int(i) => Term::Int(*i),
        LTerm::Float(f) => Term::Float(*f),
        LTerm::Compound(f, args) => {
            Term::Compound(*f, args.iter().map(|a| materialize(a, frame)).collect())
        }
        LTerm::List(items) => Term::List(items.iter().map(|a| materialize(a, frame)).collect()),
    }
}

/// Applies the frame to a plain term — the frame-backed mirror of
/// [`Term::apply`].
pub fn resolve(term: &Term, frame: &Frame<'_>) -> Term {
    match term {
        Term::Var(v) => match frame.lookup_sym(*v) {
            Some(bound) => resolve(bound, frame),
            None => term.clone(),
        },
        Term::Compound(f, args) => {
            Term::Compound(*f, args.iter().map(|a| resolve(a, frame)).collect())
        }
        Term::List(items) => Term::List(items.iter().map(|a| resolve(a, frame)).collect()),
        _ => term.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolTable;

    #[test]
    fn slot_binding_and_undo() {
        let mut sym = SymbolTable::new();
        let x = sym.intern("X");
        let mut vars = VarTable::default();
        let sx = vars.intern(x);
        let mut frame = Frame::new(&vars);
        let mark = frame.mark();
        frame.bind_slot(sx, Term::Int(7));
        assert_eq!(frame.get_slot(sx), Some(&Term::Int(7)));
        assert_eq!(frame.lookup_sym(x), Some(&Term::Int(7)));
        frame.undo(mark);
        assert!(frame.get_slot(sx).is_none());
    }

    #[test]
    fn overflow_for_foreign_symbols() {
        let mut sym = SymbolTable::new();
        let x = sym.intern("X");
        let y = sym.intern("Y");
        let mut vars = VarTable::default();
        vars.intern(x);
        let mut frame = Frame::new(&vars);
        let mark = frame.mark();
        frame.bind_sym(y, Term::Int(1));
        assert_eq!(frame.lookup_sym(y), Some(&Term::Int(1)));
        frame.undo(mark);
        assert!(frame.lookup_sym(y).is_none());
    }

    #[test]
    fn match_and_materialize_round_trip() {
        let mut sym = SymbolTable::new();
        let f = sym.intern("f");
        let x = sym.intern("X");
        let a = sym.intern("a");
        let mut vars = VarTable::default();
        let sx = vars.intern(x);
        let pattern = LTerm::Compound(f, vec![LTerm::Slot(sx), LTerm::Atom(a)]);
        let fact = Term::Compound(f, vec![Term::Int(3), Term::Atom(a)]);
        let mut frame = Frame::new(&vars);
        assert!(match_lterm(&pattern, &fact, &mut frame));
        assert_eq!(materialize(&pattern, &frame), fact);
        // Mismatch restores the frame.
        let clash = Term::Compound(f, vec![Term::Int(4), Term::Atom(a)]);
        assert!(!match_lterm(&pattern, &clash, &mut frame));
        assert_eq!(frame.get_slot(sx), Some(&Term::Int(3)));
    }

    #[test]
    fn unbound_slot_materializes_as_variable() {
        let mut sym = SymbolTable::new();
        let x = sym.intern("X");
        let mut vars = VarTable::default();
        let sx = vars.intern(x);
        let frame = Frame::new(&vars);
        assert_eq!(materialize(&LTerm::Slot(sx), &frame), Term::Var(x));
    }
}
