//! First-order terms, bindings and unification.
//!
//! Terms are the universal currency of the crate: event patterns, fluents,
//! fluent values, background facts and arithmetic expressions are all
//! [`Term`]s. Names are interned [`Symbol`]s; see [`crate::symbol`].

use crate::symbol::{Symbol, SymbolTable};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A first-order term.
///
/// Prolog lists are given their own variant rather than being encoded as
/// `'.'/2` chains; this keeps the similarity metric's tree representation
/// (paper Definition 4.7) aligned with how humans read a rule.
#[derive(Clone, Debug)]
pub enum Term {
    /// A logic variable, e.g. `Vessel`.
    Var(Symbol),
    /// A constant, e.g. `fishing`.
    Atom(Symbol),
    /// An integer constant, e.g. a time-point.
    Int(i64),
    /// A floating-point constant, e.g. a speed threshold.
    Float(f64),
    /// A compound term `functor(arg1, ..., argk)` with `k >= 1`.
    Compound(Symbol, Vec<Term>),
    /// A Prolog list `[t1, ..., tk]`.
    List(Vec<Term>),
}

impl Term {
    /// Builds a compound term; collapses to [`Term::Atom`] when `args` is empty.
    pub fn compound(functor: Symbol, args: Vec<Term>) -> Term {
        if args.is_empty() {
            Term::Atom(functor)
        } else {
            Term::Compound(functor, args)
        }
    }

    /// The functor symbol of an atom or compound term.
    pub fn functor(&self) -> Option<Symbol> {
        match self {
            Term::Atom(s) | Term::Compound(s, _) => Some(*s),
            _ => None,
        }
    }

    /// The arity: 0 for atoms/numbers/variables, `k` for compounds and lists.
    pub fn arity(&self) -> usize {
        match self {
            Term::Compound(_, args) => args.len(),
            Term::List(items) => items.len(),
            _ => 0,
        }
    }

    /// The `(functor, arity)` signature of an atom or compound term.
    pub fn signature(&self) -> Option<(Symbol, usize)> {
        self.functor().map(|f| (f, self.arity()))
    }

    /// Argument slice for compounds and lists; empty otherwise.
    pub fn args(&self) -> &[Term] {
        match self {
            Term::Compound(_, args) => args,
            Term::List(items) => items,
            _ => &[],
        }
    }

    /// Whether the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Atom(_) | Term::Int(_) | Term::Float(_) => true,
            Term::Compound(_, args) => args.iter().all(Term::is_ground),
            Term::List(items) => items.iter().all(Term::is_ground),
        }
    }

    /// Whether the term can key a first-argument index: ground and free
    /// of numbers at every depth. Matching unifies `1` with `1.0`, which
    /// bit-exact hashing does not, so a term holding a number has to be
    /// looked up by scanning the whole signature instead.
    pub fn is_probe_key(&self) -> bool {
        match self {
            Term::Var(_) | Term::Int(_) | Term::Float(_) => false,
            Term::Atom(_) => true,
            Term::Compound(_, args) => args.iter().all(Term::is_probe_key),
            Term::List(items) => items.iter().all(Term::is_probe_key),
        }
    }

    /// Whether the term is a number (integer or float).
    pub fn is_number(&self) -> bool {
        matches!(self, Term::Int(_) | Term::Float(_))
    }

    /// Numeric value of an [`Term::Int`] or [`Term::Float`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Term::Int(i) => Some(*i as f64),
            Term::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Collects the variables of the term, in depth-first left-to-right
    /// order, with duplicates.
    pub fn variables_into(&self, out: &mut Vec<Symbol>) {
        match self {
            Term::Var(v) => out.push(*v),
            Term::Compound(_, args) => args.iter().for_each(|a| a.variables_into(out)),
            Term::List(items) => items.iter().for_each(|a| a.variables_into(out)),
            _ => {}
        }
    }

    /// The distinct variables of the term, in first-occurrence order.
    pub fn variables(&self) -> Vec<Symbol> {
        let mut all = Vec::new();
        self.variables_into(&mut all);
        let mut seen = Vec::new();
        for v in all {
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        seen
    }

    /// Applies `bindings`, replacing bound variables with their values.
    /// Unbound variables are left in place.
    pub fn apply(&self, bindings: &Bindings) -> Term {
        match self {
            Term::Var(v) => bindings
                .lookup(*v)
                .map(|t| t.apply(bindings))
                .unwrap_or_else(|| self.clone()),
            Term::Compound(f, args) => {
                Term::Compound(*f, args.iter().map(|a| a.apply(bindings)).collect())
            }
            Term::List(items) => Term::List(items.iter().map(|a| a.apply(bindings)).collect()),
            _ => self.clone(),
        }
    }

    /// Renders the term against a symbol table.
    pub fn display<'a>(&'a self, symbols: &'a SymbolTable) -> TermDisplay<'a> {
        TermDisplay {
            term: self,
            symbols,
        }
    }
}

impl PartialEq for Term {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Term::Var(a), Term::Var(b)) => a == b,
            (Term::Atom(a), Term::Atom(b)) => a == b,
            (Term::Int(a), Term::Int(b)) => a == b,
            // Bit-level equality so that Term can be a hash-map key; NaN
            // never appears in well-formed event descriptions.
            (Term::Float(a), Term::Float(b)) => a.to_bits() == b.to_bits(),
            (Term::Compound(f, a), Term::Compound(g, b)) => f == g && a == b,
            (Term::List(a), Term::List(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Term {}

impl Hash for Term {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Term::Var(s) | Term::Atom(s) => s.hash(state),
            Term::Int(i) => i.hash(state),
            Term::Float(f) => f.to_bits().hash(state),
            Term::Compound(f, args) => {
                f.hash(state);
                args.hash(state);
            }
            Term::List(items) => items.hash(state),
        }
    }
}

/// A ground fluent-value pair, used as the key of recognition results.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GroundFvp {
    /// The ground fluent term, e.g. `withinArea(v42, fishing)`.
    pub fluent: Term,
    /// The ground value term, e.g. `true`.
    pub value: Term,
}

impl GroundFvp {
    /// Creates a ground FVP; returns `None` if either part has variables.
    pub fn new(fluent: Term, value: Term) -> Option<GroundFvp> {
        if fluent.is_ground() && value.is_ground() {
            Some(GroundFvp { fluent, value })
        } else {
            None
        }
    }

    /// Renders the FVP as `fluent=value` against a symbol table.
    pub fn display<'a>(&'a self, symbols: &'a SymbolTable) -> String {
        format!(
            "{}={}",
            self.fluent.display(symbols),
            self.value.display(symbols)
        )
    }
}

/// A substitution: an ordered set of `variable -> term` pairs.
///
/// Bindings are tiny (rules rarely have more than ten variables), so a
/// vector with linear lookup beats a hash map here.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Bindings {
    pairs: Vec<(Symbol, Term)>,
}

impl Bindings {
    /// An empty substitution.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bound value of `var`, if any.
    pub fn lookup(&self, var: Symbol) -> Option<&Term> {
        self.pairs.iter().find(|(v, _)| *v == var).map(|(_, t)| t)
    }

    /// Binds `var` to `value`.
    ///
    /// # Panics
    /// Panics in debug builds if `var` is already bound; unification must
    /// check for existing bindings first.
    pub fn bind(&mut self, var: Symbol, value: Term) {
        debug_assert!(self.lookup(var).is_none(), "variable already bound");
        self.pairs.push((var, value));
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no variables are bound.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Truncates to the first `n` bindings — used to undo speculative
    /// bindings after a failed unification branch.
    pub fn truncate(&mut self, n: usize) {
        self.pairs.truncate(n);
    }

    /// Iterates over `(variable, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Term)> {
        self.pairs.iter().map(|(v, t)| (*v, t))
    }
}

/// Unifies `pattern` (which may contain variables) against `fact`,
/// extending `bindings` in place. On failure the bindings are restored to
/// their prior state and `false` is returned.
///
/// `fact` is typically ground (an input event or a background fact) but the
/// implementation is a full syntactic one-sided match: variables in `fact`
/// are treated as constants, which suffices because facts in RTEC streams
/// and background knowledge are ground.
pub fn match_term(pattern: &Term, fact: &Term, bindings: &mut Bindings) -> bool {
    let mark = bindings.len();
    if match_inner(pattern, fact, bindings) {
        true
    } else {
        bindings.truncate(mark);
        false
    }
}

fn match_inner(pattern: &Term, fact: &Term, bindings: &mut Bindings) -> bool {
    match pattern {
        Term::Var(v) => {
            if let Some(bound) = bindings.lookup(*v).cloned() {
                match_inner(&bound, fact, bindings)
            } else {
                bindings.bind(*v, fact.clone());
                true
            }
        }
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
                .all(|(p, q)| match_inner(p, q, bindings)),
            _ => false,
        },
        Term::List(items) => match fact {
            Term::List(fitems) if items.len() == fitems.len() => items
                .iter()
                .zip(fitems)
                .all(|(p, q)| match_inner(p, q, bindings)),
            _ => false,
        },
    }
}

/// Re-interns `term` from one symbol table into another, preserving
/// structure. Used to feed an input stream built against one event
/// description into an engine compiled from another (e.g. running the same
/// maritime stream against the gold-standard and an LLM-generated
/// description). For bulk translation use [`SymbolMapper`], which
/// memoises the per-symbol name lookups.
pub fn translate(term: &Term, from: &SymbolTable, to: &mut SymbolTable) -> Term {
    SymbolMapper::new().translate(term, from, to)
}

/// Memoising symbol translator: maps each source symbol to its
/// destination symbol once, so translating a whole stream is O(1) hash
/// work per *distinct* name rather than per occurrence.
#[derive(Debug, Default)]
pub struct SymbolMapper {
    map: Vec<Option<Symbol>>,
}

impl SymbolMapper {
    /// Creates an empty mapper (tied to one `(from, to)` table pair by
    /// usage convention).
    pub fn new() -> SymbolMapper {
        SymbolMapper::default()
    }

    fn map_sym(&mut self, s: Symbol, from: &SymbolTable, to: &mut SymbolTable) -> Symbol {
        let idx = s.index();
        if idx >= self.map.len() {
            self.map.resize(idx + 1, None);
        }
        if let Some(mapped) = self.map[idx] {
            return mapped;
        }
        let name = from.try_name(s).unwrap_or("<unknown-symbol>");
        let mapped = to.intern(name);
        self.map[idx] = Some(mapped);
        mapped
    }

    /// Translates one term, reusing previously resolved symbols.
    pub fn translate(&mut self, term: &Term, from: &SymbolTable, to: &mut SymbolTable) -> Term {
        match term {
            Term::Var(s) => Term::Var(self.map_sym(*s, from, to)),
            Term::Atom(s) => Term::Atom(self.map_sym(*s, from, to)),
            Term::Int(i) => Term::Int(*i),
            Term::Float(f) => Term::Float(*f),
            Term::Compound(f, args) => {
                let nf = self.map_sym(*f, from, to);
                Term::Compound(
                    nf,
                    args.iter().map(|a| self.translate(a, from, to)).collect(),
                )
            }
            Term::List(items) => {
                Term::List(items.iter().map(|a| self.translate(a, from, to)).collect())
            }
        }
    }
}

/// Display adaptor produced by [`Term::display`].
pub struct TermDisplay<'a> {
    term: &'a Term,
    symbols: &'a SymbolTable,
}

impl fmt::Display for TermDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_term(f, self.term, self.symbols)
    }
}

fn write_term(f: &mut fmt::Formatter<'_>, t: &Term, symbols: &SymbolTable) -> fmt::Result {
    match t {
        Term::Var(s) | Term::Atom(s) => {
            f.write_str(symbols.try_name(*s).unwrap_or("<unknown-symbol>"))
        }
        Term::Int(i) => write!(f, "{i}"),
        Term::Float(x) => {
            if x.fract() == 0.0 && x.abs() < 1e15 {
                write!(f, "{x:.1}")
            } else {
                write!(f, "{x}")
            }
        }
        Term::Compound(func, args) => {
            let name = symbols.try_name(*func).unwrap_or("<unknown-symbol>");
            // Render infix operators the way the paper writes them,
            // parenthesising operands whose own operator binds no tighter
            // than this one, so that display output re-parses to the same
            // tree (e.g. `(A - B) * C`, `A - (B + C)`).
            if args.len() == 2 && is_infix(name) {
                let parent = infix_prec(name);
                let operand =
                    |f: &mut fmt::Formatter<'_>, arg: &Term, is_right: bool| -> fmt::Result {
                        let child = arg
                            .functor()
                            .and_then(|s| symbols.try_name(s))
                            .filter(|n| arg.arity() == 2 && is_infix(n))
                            .map(infix_prec);
                        let wrap = match child {
                            Some(c) => c < parent || (c == parent && is_right),
                            None => false,
                        };
                        if wrap {
                            f.write_str("(")?;
                            write_term(f, arg, symbols)?;
                            f.write_str(")")
                        } else {
                            write_term(f, arg, symbols)
                        }
                    };
                operand(f, &args[0], false)?;
                if name == "=" {
                    write!(f, "{name}")?;
                } else {
                    write!(f, " {name} ")?;
                }
                return operand(f, &args[1], true);
            }
            f.write_str(name)?;
            f.write_str("(")?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write_term(f, a, symbols)?;
            }
            f.write_str(")")
        }
        Term::List(items) => {
            f.write_str("[")?;
            for (i, a) in items.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write_term(f, a, symbols)?;
            }
            f.write_str("]")
        }
    }
}

fn is_infix(name: &str) -> bool {
    matches!(
        name,
        "=" | "<" | ">" | "=<" | ">=" | "\\=" | "+" | "-" | "*" | "/"
    )
}

/// Display precedence classes mirroring the parser: comparisons loosest,
/// then additive, then multiplicative.
fn infix_prec(name: &str) -> u8 {
    match name {
        "=" | "<" | ">" | "=<" | ">=" | "\\=" => 1,
        "+" | "-" => 2,
        _ => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SymbolTable {
        SymbolTable::new()
    }

    #[test]
    fn ground_checks() {
        let mut t = table();
        let v = Term::Var(t.intern("X"));
        let a = Term::Atom(t.intern("a"));
        let c = Term::Compound(t.intern("f"), vec![a.clone(), v.clone()]);
        assert!(!v.is_ground());
        assert!(a.is_ground());
        assert!(!c.is_ground());
        assert!(Term::Compound(t.intern("g"), vec![a]).is_ground());
    }

    #[test]
    fn probe_keys_are_ground_and_number_free() {
        let mut t = table();
        let a = Term::Atom(t.intern("a"));
        let g = t.intern("g");
        assert!(a.is_probe_key());
        assert!(Term::Compound(g, vec![a.clone()]).is_probe_key());
        assert!(!Term::Int(1).is_probe_key());
        assert!(!Term::Float(1.0).is_probe_key());
        assert!(!Term::Compound(g, vec![a, Term::Int(1)]).is_probe_key());
        assert!(!Term::Var(t.intern("X")).is_probe_key());
    }

    #[test]
    fn match_binds_variables() {
        let mut t = table();
        let x = t.intern("X");
        let f = t.intern("entersArea");
        let v42 = Term::Atom(t.intern("v42"));
        let a1 = Term::Atom(t.intern("a1"));
        let pattern = Term::Compound(f, vec![Term::Var(x), a1.clone()]);
        let fact = Term::Compound(f, vec![v42.clone(), a1]);
        let mut b = Bindings::new();
        assert!(match_term(&pattern, &fact, &mut b));
        assert_eq!(b.lookup(x), Some(&v42));
    }

    #[test]
    fn match_fails_and_restores_bindings() {
        let mut t = table();
        let x = t.intern("X");
        let f = t.intern("f");
        let g = t.intern("g");
        let a = Term::Atom(t.intern("a"));
        let b_atom = Term::Atom(t.intern("b"));
        // f(X, X) against f(a, b) must fail and leave bindings empty.
        let pattern = Term::Compound(f, vec![Term::Var(x), Term::Var(x)]);
        let fact = Term::Compound(f, vec![a.clone(), b_atom]);
        let mut b = Bindings::new();
        assert!(!match_term(&pattern, &fact, &mut b));
        assert!(b.is_empty());
        // Completely different functor also fails.
        let fact2 = Term::Compound(g, vec![a.clone(), a]);
        assert!(!match_term(&pattern, &fact2, &mut b));
        assert!(b.is_empty());
    }

    #[test]
    fn match_respects_existing_bindings() {
        let mut t = table();
        let x = t.intern("X");
        let a = Term::Atom(t.intern("a"));
        let b_atom = Term::Atom(t.intern("b"));
        let mut b = Bindings::new();
        b.bind(x, a.clone());
        assert!(match_term(&Term::Var(x), &a, &mut b));
        assert!(!match_term(&Term::Var(x), &b_atom, &mut b));
    }

    #[test]
    fn numeric_cross_type_match() {
        let mut b = Bindings::new();
        assert!(match_term(&Term::Int(3), &Term::Float(3.0), &mut b));
        assert!(match_term(&Term::Float(2.0), &Term::Int(2), &mut b));
        assert!(!match_term(&Term::Int(3), &Term::Float(3.5), &mut b));
    }

    #[test]
    fn apply_substitutes_recursively() {
        let mut t = table();
        let x = t.intern("X");
        let y = t.intern("Y");
        let f = t.intern("f");
        let a = Term::Atom(t.intern("a"));
        let mut b = Bindings::new();
        b.bind(x, Term::Var(y));
        b.bind(y, a.clone());
        let term = Term::Compound(f, vec![Term::Var(x)]);
        assert_eq!(term.apply(&b), Term::Compound(f, vec![a]));
    }

    #[test]
    fn display_round_trip_shapes() {
        let mut t = table();
        let f = t.intern("entersArea");
        let v = Term::Var(t.intern("Vl"));
        let a = Term::Atom(t.intern("a1"));
        let term = Term::Compound(f, vec![v, a]);
        assert_eq!(term.display(&t).to_string(), "entersArea(Vl, a1)");
        let eq = t.intern("=");
        let tru = Term::Atom(t.intern("true"));
        let fvp = Term::Compound(eq, vec![term, tru]);
        assert_eq!(fvp.display(&t).to_string(), "entersArea(Vl, a1)=true");
    }

    #[test]
    fn infix_display_parenthesises_for_round_trip() {
        use crate::parser::parse_term;
        let mut t = table();
        for src in [
            "(A - B) * C",
            "A - (B + C)",
            "A / (B / C)",
            "(A + B) * (C - D)",
            "abs(A - B) > T",
        ] {
            let parsed = parse_term(src, &mut t).unwrap();
            let printed = parsed.display(&t).to_string();
            let reparsed = parse_term(&printed, &mut t).unwrap();
            assert_eq!(parsed, reparsed, "{src} -> {printed}");
        }
        // No spurious parentheses where associativity already agrees.
        let plain = parse_term("A - B + C", &mut t).unwrap();
        assert_eq!(plain.display(&t).to_string(), "A - B + C");
    }

    #[test]
    fn variables_in_first_occurrence_order() {
        let mut t = table();
        let x = t.intern("X");
        let y = t.intern("Y");
        let f = t.intern("f");
        let term = Term::Compound(f, vec![Term::Var(y), Term::Var(x), Term::Var(y)]);
        assert_eq!(term.variables(), vec![y, x]);
    }

    #[test]
    fn list_matching() {
        let mut t = table();
        let x = t.intern("X");
        let a = Term::Atom(t.intern("a"));
        let b_atom = Term::Atom(t.intern("b"));
        let pat = Term::List(vec![Term::Var(x), b_atom.clone()]);
        let fact = Term::List(vec![a.clone(), b_atom]);
        let mut b = Bindings::new();
        assert!(match_term(&pat, &fact, &mut b));
        assert_eq!(b.lookup(x), Some(&a));
        // Different lengths never match.
        let short = Term::List(vec![a]);
        let mut b2 = Bindings::new();
        assert!(!match_term(&pat, &short, &mut b2));
    }
}
