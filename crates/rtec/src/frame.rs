//! Slot-indexed binding frames over interned terms.
//!
//! A [`Frame`] replaces [`crate::term::Bindings`] during plan execution:
//! the rule's own variables live in a flat slot array of [`TermId`]s
//! (O(1) access by compile-time index), while variables that only appear
//! at run time — degenerate streams can carry variables inside event
//! terms — fall back to an overflow list. A trail records slot writes so
//! a failed branch unwinds in LIFO order, exactly like
//! `Bindings::truncate`.

use crate::arena::{IdBuf, Shape, TermId, Terms};
use crate::plan::ir::{LTerm, VarTable};
use crate::symbol::Symbol;

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
    slots: Vec<Option<TermId>>,
    trail: Vec<u16>,
    overflow: Vec<(Symbol, TermId)>,
}

impl<'v> Frame<'v> {
    /// Creates an empty frame for a rule's variable table.
    pub fn new(vars: &'v VarTable) -> Frame<'v> {
        Frame {
            vars,
            slots: vec![None; vars.len()],
            trail: Vec::new(),
            overflow: Vec::new(),
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
    pub fn get_slot(&self, slot: u16) -> Option<TermId> {
        self.slots[slot as usize]
    }

    /// Binds `slot` to `value`.
    ///
    /// # Panics
    /// Panics in debug builds if the slot is already bound (mirroring
    /// [`crate::term::Bindings::bind`]).
    pub fn bind_slot(&mut self, slot: u16, value: TermId) {
        debug_assert!(self.slots[slot as usize].is_none(), "slot already bound");
        self.slots[slot as usize] = Some(value);
        self.trail.push(slot);
    }

    /// The value bound to variable symbol `sym` — slot first, overflow
    /// second. This is the frame's equivalent of `Bindings::lookup`.
    pub fn lookup_sym(&self, sym: Symbol) -> Option<TermId> {
        match self.vars.slot(sym) {
            Some(i) => self.slots[i as usize],
            None => self
                .overflow
                .iter()
                .find(|(s, _)| *s == sym)
                .map(|(_, id)| *id),
        }
    }

    /// Binds variable symbol `sym` (slot if it is a rule variable,
    /// overflow otherwise).
    pub fn bind_sym(&mut self, sym: Symbol, value: TermId) {
        match self.vars.slot(sym) {
            Some(i) => self.bind_slot(i, value),
            None => {
                debug_assert!(self.lookup_sym(sym).is_none(), "variable already bound");
                self.overflow.push((sym, value));
            }
        }
    }

    /// The bound slots, in slot order.
    pub fn bound_slots(&self) -> impl Iterator<Item = (u16, TermId)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|id| (i as u16, id)))
    }
}

/// Matches a lowered pattern against an interned fact, extending `frame`.
/// On failure the frame is restored and `false` returned — the lowered
/// mirror of [`crate::term::match_term`]: numbers compare by value, and
/// a slot bound to a ground term is compared in place.
pub fn match_lterm(
    pattern: &LTerm,
    fact: TermId,
    frame: &mut Frame<'_>,
    terms: &Terms<'_>,
) -> bool {
    let mark = frame.mark();
    if match_lterm_inner(pattern, fact, frame, terms) {
        true
    } else {
        frame.undo(mark);
        false
    }
}

fn match_lterm_inner(
    pattern: &LTerm,
    fact: TermId,
    frame: &mut Frame<'_>,
    terms: &Terms<'_>,
) -> bool {
    match pattern {
        LTerm::Slot(i) => match frame.get_slot(*i) {
            // A ground binding binds nothing more.
            Some(bound) if terms.is_ground(bound) => terms.value_eq(bound, fact),
            Some(bound) => match_resolved(bound, fact, frame, terms),
            None => {
                frame.bind_slot(*i, fact);
                true
            }
        },
        LTerm::Atom(a) => matches!(terms.shape(fact), Shape::Atom(b) if *a == b),
        LTerm::Int(i) => match terms.shape(fact) {
            Shape::Int(j) => *i == j,
            Shape::Float(f) => (*i as f64) == f,
            _ => false,
        },
        LTerm::Float(x) => match terms.shape(fact) {
            Shape::Float(y) => *x == y,
            Shape::Int(j) => *x == (j as f64),
            _ => false,
        },
        LTerm::Compound(f, args) => match terms.shape(fact) {
            Shape::Compound(g, fargs) if *f == g && args.len() == fargs.len() => args
                .iter()
                .zip(fargs)
                .all(|(p, q)| match_lterm_inner(p, *q, frame, terms)),
            _ => false,
        },
        LTerm::List(items) => match terms.shape(fact) {
            Shape::List(fitems) if items.len() == fitems.len() => items
                .iter()
                .zip(fitems)
                .all(|(p, q)| match_lterm_inner(p, *q, frame, terms)),
            _ => false,
        },
    }
}

/// Matches a fluent and a value pattern against an instance's fluent and
/// value — what matching `=(fluent, value)` against the instance's pair
/// would do, without building either pair. On failure the frame is
/// restored.
pub fn match_fvp(
    fluent: &LTerm,
    value: &LTerm,
    inst: (TermId, TermId),
    frame: &mut Frame<'_>,
    terms: &Terms<'_>,
) -> bool {
    let mark = frame.mark();
    if match_lterm_inner(fluent, inst.0, frame, terms)
        && match_lterm_inner(value, inst.1, frame, terms)
    {
        true
    } else {
        frame.undo(mark);
        false
    }
}

/// Matches a bound, non-ground term against a fact, resolving its
/// variables through the frame (and binding the unbound ones).
fn match_resolved(pattern: TermId, fact: TermId, frame: &mut Frame<'_>, terms: &Terms<'_>) -> bool {
    if terms.is_ground(pattern) {
        return terms.value_eq(pattern, fact);
    }
    match (terms.shape(pattern), terms.shape(fact)) {
        (Shape::Var(v), _) => match frame.lookup_sym(v) {
            Some(bound) => match_resolved(bound, fact, frame, terms),
            None => {
                frame.bind_sym(v, fact);
                true
            }
        },
        (Shape::Compound(f, xs), Shape::Compound(g, ys)) => {
            f == g
                && xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|(x, y)| match_resolved(*x, *y, frame, terms))
        }
        (Shape::List(xs), Shape::List(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|(x, y)| match_resolved(*x, *y, frame, terms))
        }
        _ => false,
    }
}

/// A lowered pattern looked up under a frame without interning it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// Ground, and interned as this id.
    Found(TermId),
    /// Ground, but holding a sub-term neither arena knows: no cache,
    /// fact or event can hold it.
    Absent,
    /// Not ground under the frame.
    Open,
}

/// Looks `pattern` up under `frame` without interning: the id of the
/// term [`materialize`] would build, when it is ground and already
/// interned.
pub fn probe(pattern: &LTerm, frame: &Frame<'_>, terms: &Terms<'_>) -> Probe {
    let found = |id: Option<TermId>| id.map_or(Probe::Absent, Probe::Found);
    match pattern {
        LTerm::Slot(i) => match frame.get_slot(*i) {
            Some(bound) if terms.is_ground(bound) => Probe::Found(bound),
            _ => Probe::Open,
        },
        LTerm::Atom(a) => found(terms.find(Shape::Atom(*a))),
        LTerm::Int(i) => found(terms.find(Shape::Int(*i))),
        LTerm::Float(x) => found(terms.find(Shape::Float(*x))),
        LTerm::Compound(_, items) | LTerm::List(items) => {
            let mut ids = IdBuf::new();
            let mut absent = false;
            for item in items {
                match probe(item, frame, terms) {
                    Probe::Found(id) => ids.push(id),
                    Probe::Absent => absent = true,
                    Probe::Open => return Probe::Open,
                }
            }
            if absent {
                return Probe::Absent;
            }
            found(terms.find(match pattern {
                LTerm::Compound(f, _) => Shape::Compound(*f, ids.as_slice()),
                _ => Shape::List(ids.as_slice()),
            }))
        }
    }
}

/// The first argument of a fluent or fact pattern under `frame`, as an
/// index key: `Found` for a number-free ground term (the only kind the
/// first-argument indexes hold), `Absent` for one no index can hold, and
/// `Open` — scan the whole signature — for anything else.
pub fn first_arg_key(pattern: &LTerm, frame: &Frame<'_>, terms: &Terms<'_>) -> Probe {
    let LTerm::Compound(_, args) = pattern else {
        return Probe::Open;
    };
    let Some(first) = args.first() else {
        return Probe::Open;
    };
    match probe(first, frame, terms) {
        Probe::Found(id) if terms.is_number_free(id) => Probe::Found(id),
        Probe::Absent if number_free(first, frame, terms) => Probe::Absent,
        _ => Probe::Open,
    }
}

/// Whether `pattern` holds no number under `frame` (its slots bound to
/// number-free terms).
fn number_free(pattern: &LTerm, frame: &Frame<'_>, terms: &Terms<'_>) -> bool {
    match pattern {
        LTerm::Slot(i) => frame
            .get_slot(*i)
            .is_some_and(|id| terms.is_number_free(id)),
        LTerm::Atom(_) => true,
        LTerm::Int(_) | LTerm::Float(_) => false,
        LTerm::Compound(_, items) | LTerm::List(items) => {
            items.iter().all(|p| number_free(p, frame, terms))
        }
    }
}

/// The `(functor, arity)` of the term [`materialize`] would build.
pub fn signature(pattern: &LTerm, frame: &Frame<'_>, terms: &Terms<'_>) -> Option<(Symbol, usize)> {
    match pattern {
        LTerm::Atom(a) => Some((*a, 0)),
        LTerm::Compound(f, args) => Some((*f, args.len())),
        LTerm::Slot(i) => frame.get_slot(*i).and_then(|id| terms.signature(id)),
        _ => None,
    }
}

/// Instantiates a lowered pattern under the frame, interning the result:
/// the same term `pattern.apply(bindings)` would build — bound variables are replaced (resolving chains), unbound ones
/// reappear as their original symbols.
pub fn materialize(pattern: &LTerm, frame: &Frame<'_>, terms: &mut Terms<'_>) -> TermId {
    match pattern {
        LTerm::Slot(i) => match frame.get_slot(*i) {
            Some(id) => resolve(id, frame, terms),
            None => terms.intern(Shape::Var(frame.vars().syms[*i as usize])),
        },
        LTerm::Atom(s) => terms.intern(Shape::Atom(*s)),
        LTerm::Int(i) => terms.intern(Shape::Int(*i)),
        LTerm::Float(x) => terms.intern(Shape::Float(*x)),
        LTerm::Compound(f, items) => {
            let ids = materialize_all(items, frame, terms);
            terms.intern(Shape::Compound(*f, ids.as_slice()))
        }
        LTerm::List(items) => {
            let ids = materialize_all(items, frame, terms);
            terms.intern(Shape::List(ids.as_slice()))
        }
    }
}

fn materialize_all(items: &[LTerm], frame: &Frame<'_>, terms: &mut Terms<'_>) -> IdBuf {
    let mut ids = IdBuf::new();
    for item in items {
        ids.push(materialize(item, frame, terms));
    }
    ids
}

/// Applies the frame to a term — the frame-backed mirror of
/// [`crate::term::Term::apply`] — and interns the result.
pub fn resolve(id: TermId, frame: &Frame<'_>, terms: &mut Terms<'_>) -> TermId {
    if terms.is_ground(id) {
        return id;
    }
    match terms.shape(id) {
        Shape::Var(v) => match frame.lookup_sym(v) {
            Some(bound) => resolve(bound, frame, terms),
            None => id,
        },
        Shape::Compound(f, items) => {
            let items: Vec<TermId> = items.to_vec();
            let mut ids = IdBuf::new();
            for item in items {
                ids.push(resolve(item, frame, terms));
            }
            terms.intern(Shape::Compound(f, ids.as_slice()))
        }
        Shape::List(items) => {
            let items: Vec<TermId> = items.to_vec();
            let mut ids = IdBuf::new();
            for item in items {
                ids.push(resolve(item, frame, terms));
            }
            terms.intern(Shape::List(ids.as_slice()))
        }
        _ => id,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::TermArena;
    use crate::symbol::SymbolTable;
    use crate::term::Term;

    fn arenas(symbols: &SymbolTable) -> (TermArena, TermArena) {
        let frozen = TermArena::frozen(symbols.len(), |_| {});
        let overlay = TermArena::overlay(&frozen);
        (frozen, overlay)
    }

    #[test]
    fn slot_binding_and_undo() {
        let mut sym = SymbolTable::new();
        let x = sym.intern("X");
        let mut vars = VarTable::default();
        let sx = vars.intern(x);
        let (frozen, mut overlay) = arenas(&sym);
        let mut terms = Terms::new(&frozen, &mut overlay);
        let seven = terms.intern_term(&Term::Int(7));
        let mut frame = Frame::new(&vars);
        let mark = frame.mark();
        frame.bind_slot(sx, seven);
        assert_eq!(frame.get_slot(sx), Some(seven));
        assert_eq!(frame.lookup_sym(x), Some(seven));
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
        let (frozen, mut overlay) = arenas(&sym);
        let one = Terms::new(&frozen, &mut overlay).intern_term(&Term::Int(1));
        let mut frame = Frame::new(&vars);
        let mark = frame.mark();
        frame.bind_sym(y, one);
        assert_eq!(frame.lookup_sym(y), Some(one));
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
        let (frozen, mut overlay) = arenas(&sym);
        let mut terms = Terms::new(&frozen, &mut overlay);
        let fact = terms.intern_term(&Term::Compound(f, vec![Term::Int(3), Term::Atom(a)]));
        let clash = terms.intern_term(&Term::Compound(f, vec![Term::Int(4), Term::Atom(a)]));
        let three_point_oh =
            terms.intern_term(&Term::Compound(f, vec![Term::Float(3.0), Term::Atom(a)]));
        let mut frame = Frame::new(&vars);
        assert!(match_lterm(&pattern, fact, &mut frame, &terms));
        assert_eq!(materialize(&pattern, &frame, &mut terms), fact);
        assert_eq!(probe(&pattern, &frame, &terms), Probe::Found(fact));
        // Mismatch restores the frame; numbers match by value.
        assert!(!match_lterm(&pattern, clash, &mut frame, &terms));
        assert!(match_lterm(&pattern, three_point_oh, &mut frame, &terms));
        let three = terms.intern_term(&Term::Int(3));
        assert_eq!(frame.get_slot(sx), Some(three));
    }

    #[test]
    fn unbound_slot_materializes_as_variable() {
        let mut sym = SymbolTable::new();
        let x = sym.intern("X");
        let mut vars = VarTable::default();
        let sx = vars.intern(x);
        let (frozen, mut overlay) = arenas(&sym);
        let mut terms = Terms::new(&frozen, &mut overlay);
        let frame = Frame::new(&vars);
        let id = materialize(&LTerm::Slot(sx), &frame, &mut terms);
        assert_eq!(terms.to_term(id), Term::Var(x));
        assert_eq!(probe(&LTerm::Slot(sx), &frame, &terms), Probe::Open);
    }

    #[test]
    fn probing_a_ground_pattern_never_interns() {
        let mut sym = SymbolTable::new();
        let f = sym.intern("f");
        let a = sym.intern("a");
        let vars = VarTable::default();
        let (frozen, mut overlay) = arenas(&sym);
        let terms = Terms::new(&frozen, &mut overlay);
        let frame = Frame::new(&vars);
        let pattern = LTerm::Compound(f, vec![LTerm::Atom(a), LTerm::Float(2.5)]);
        assert_eq!(probe(&pattern, &frame, &terms), Probe::Absent);
        assert_eq!(terms.overlay_len(), 0);
    }
}
