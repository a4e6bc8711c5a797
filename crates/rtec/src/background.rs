//! Background ("atemporal") knowledge store.
//!
//! RTEC rules consult static domain knowledge such as
//! `areaType(AreaId, AreaType)`, `vesselType(Vessel, Type)` and
//! `thresholds(Name, Value)`. Facts are ground; queries are patterns with
//! variables that get bound by matching.

use crate::symbol::Symbol;
use crate::term::{match_term, Bindings, Term};
use std::collections::HashMap;

/// An indexed store of ground facts.
///
/// Facts are indexed by `(functor, arity)` and additionally by their
/// first argument: rule bodies overwhelmingly query with the first
/// argument already bound (e.g. `vesselType(v17, Type)` after the
/// vessel was bound by an event), so the first-argument index turns the
/// dominant lookups into O(1) bucket probes instead of scans over every
/// fact of the predicate. Only first arguments that pass
/// [`Term::is_probe_key`] are indexed and probed; a numeric one matches
/// facts that are not bit-identical (`1` matches `1.0`), so it is looked
/// up in the signature bucket.
#[derive(Clone, Debug, Default)]
pub struct FactStore {
    by_signature: HashMap<(Symbol, usize), Vec<Term>>,
    by_first_arg: HashMap<(Symbol, usize, Term), Vec<Term>>,
    len: usize,
}

impl FactStore {
    /// Creates an empty store.
    pub fn new() -> FactStore {
        FactStore::default()
    }

    /// Builds a store from ground facts; non-indexable terms (numbers,
    /// variables) are ignored.
    pub fn from_facts(facts: impl IntoIterator<Item = Term>) -> FactStore {
        let mut s = FactStore::new();
        for f in facts {
            s.add(f);
        }
        s
    }

    /// Adds one ground fact. Duplicates are stored once.
    pub fn add(&mut self, fact: Term) {
        let Some(sig) = fact.signature() else { return };
        let bucket = self.by_signature.entry(sig).or_default();
        if !bucket.contains(&fact) {
            if let Some(first) = fact.args().first().filter(|f| f.is_probe_key()) {
                self.by_first_arg
                    .entry((sig.0, sig.1, first.clone()))
                    .or_default()
                    .push(fact.clone());
            }
            bucket.push(fact);
            self.len += 1;
        }
    }

    /// Number of stored facts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether any fact has the given signature.
    pub fn has_signature(&self, sig: (Symbol, usize)) -> bool {
        self.by_signature.contains_key(&sig)
    }

    /// Whether any fact shares `pattern`'s signature.
    pub fn has_signature_of(&self, pattern: &Term) -> bool {
        pattern
            .signature()
            .is_some_and(|sig| self.has_signature(sig))
    }

    /// The facts that can possibly match `pattern`, in insertion order:
    /// the first-argument bucket when the pattern's first argument is a
    /// probe key, else the full signature bucket.
    pub fn candidates(&self, pattern: &Term) -> &[Term] {
        match pattern.signature() {
            Some(sig) => self.candidates_for(sig, pattern.args().first()),
            None => &[],
        }
    }

    /// The facts of signature `sig` that can possibly match a pattern
    /// whose first argument is `first` (`None` for an atom pattern), in
    /// insertion order. Matching the result in order finds the same
    /// solutions in the same order as matching the whole signature.
    pub fn candidates_for(&self, sig: (Symbol, usize), first: Option<&Term>) -> &[Term] {
        let bucket = match first.filter(|f| f.is_probe_key()) {
            Some(first) => self.by_first_arg.get(&(sig.0, sig.1, first.clone())),
            None => self.by_signature.get(&sig),
        };
        bucket.map(Vec::as_slice).unwrap_or(&[])
    }

    /// Calls `on_solution` once per fact matching `pattern` under
    /// `bindings`; bindings are extended for the duration of each call and
    /// restored afterwards.
    ///
    /// The pattern is instantiated with the current bindings *before* the
    /// index lookup, so a variable first argument that is already bound
    /// still hits the narrow first-argument bucket.
    pub fn for_each_match(
        &self,
        pattern: &Term,
        bindings: &mut Bindings,
        mut on_solution: impl FnMut(&mut Bindings),
    ) {
        let applied = pattern.apply(bindings);
        let mark = bindings.len();
        for fact in self.candidates(&applied) {
            if match_term(&applied, fact, bindings) {
                on_solution(bindings);
                bindings.truncate(mark);
            }
        }
    }

    /// Whether at least one fact matches `pattern` under `bindings`
    /// (bindings are left untouched).
    pub fn any_match(&self, pattern: &Term, bindings: &mut Bindings) -> bool {
        let applied = pattern.apply(bindings);
        let mark = bindings.len();
        for fact in self.candidates(&applied) {
            if match_term(&applied, fact, bindings) {
                bindings.truncate(mark);
                return true;
            }
        }
        false
    }

    /// Iterates over all facts.
    pub fn iter(&self) -> impl Iterator<Item = &Term> {
        self.by_signature.values().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_term;
    use crate::symbol::SymbolTable;

    fn store(facts: &[&str], sym: &mut SymbolTable) -> FactStore {
        FactStore::from_facts(facts.iter().map(|f| parse_term(f, sym).unwrap()))
    }

    #[test]
    fn add_and_query() {
        let mut sym = SymbolTable::new();
        let s = store(
            &["areaType(a1, fishing)", "areaType(a2, anchorage)"],
            &mut sym,
        );
        assert_eq!(s.len(), 2);
        let pat = parse_term("areaType(X, fishing)", &mut sym).unwrap();
        let mut b = Bindings::new();
        let mut hits = 0;
        s.for_each_match(&pat, &mut b, |bb| {
            hits += 1;
            let x = sym.get("X").unwrap();
            assert!(bb.lookup(x).is_some());
        });
        assert_eq!(hits, 1);
        assert!(b.is_empty());
    }

    #[test]
    fn duplicates_stored_once() {
        let mut sym = SymbolTable::new();
        let s = store(&["f(a)", "f(a)"], &mut sym);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn any_match_restores_bindings() {
        let mut sym = SymbolTable::new();
        let s = store(&["thresholds(max, 5.0)"], &mut sym);
        let pat = parse_term("thresholds(max, V)", &mut sym).unwrap();
        let mut b = Bindings::new();
        assert!(s.any_match(&pat, &mut b));
        assert!(b.is_empty());
        let miss = parse_term("thresholds(min, V)", &mut sym).unwrap();
        assert!(!s.any_match(&miss, &mut b));
    }

    #[test]
    fn numeric_first_argument_matches_across_int_and_float() {
        let mut sym = SymbolTable::new();
        let s = store(
            &["limit(1.0, high)", "limit(2, low)", "limit(a, mid)"],
            &mut sym,
        );
        let mut b = Bindings::new();
        // `1` unifies with `1.0` and `2.0` with `2`, although neither
        // pair is bit-identical.
        for pattern in ["limit(1, high)", "limit(2.0, Level)"] {
            let pat = parse_term(pattern, &mut sym).unwrap();
            assert_eq!(s.candidates(&pat).len(), 3, "{pattern}");
            assert!(s.any_match(&pat, &mut b), "{pattern}");
        }
        let miss = parse_term("limit(1, low)", &mut sym).unwrap();
        assert!(!s.any_match(&miss, &mut b));
        // An atom first argument still probes its own bucket.
        let atom = parse_term("limit(a, Level)", &mut sym).unwrap();
        assert_eq!(s.candidates(&atom).len(), 1);
    }

    #[test]
    fn multiple_solutions_enumerated() {
        let mut sym = SymbolTable::new();
        let s = store(
            &[
                "areaType(a1, fishing)",
                "areaType(a2, fishing)",
                "areaType(a3, natura)",
            ],
            &mut sym,
        );
        let pat = parse_term("areaType(X, fishing)", &mut sym).unwrap();
        let mut b = Bindings::new();
        let mut ids = Vec::new();
        let x = sym.get("X").unwrap();
        s.for_each_match(&pat, &mut b, |bb| {
            ids.push(bb.lookup(x).unwrap().clone());
        });
        assert_eq!(ids.len(), 2);
    }
}
