//! Background ("atemporal") knowledge store.
//!
//! RTEC rules consult static domain knowledge such as
//! `areaType(AreaId, AreaType)`, `vesselType(Vessel, Type)` and
//! `thresholds(Name, Value)`. Facts are ground; queries are patterns with
//! variables that get bound by matching.

use crate::arena::{FxHashMap, TermId, Terms};
use crate::frame::{first_arg_key, match_lterm, signature, Frame, Probe};
use crate::plan::ir::LTerm;
use crate::symbol::Symbol;
use crate::term::Term;
use std::collections::HashMap;

/// The ground facts of a description, by `(functor, arity)` in
/// insertion order. The executor reads them through the interned
/// [`FactIndex`] built at lowering.
#[derive(Clone, Debug, Default)]
pub struct FactStore {
    by_signature: HashMap<(Symbol, usize), Vec<Term>>,
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

    /// Iterates over all facts.
    pub fn iter(&self) -> impl Iterator<Item = &Term> {
        self.by_signature.values().flatten()
    }
}

/// The facts of a [`FactStore`], interned, indexed by signature and by
/// first argument.
///
/// Rule bodies overwhelmingly query with the first argument already
/// bound (e.g. `vesselType(v17, Type)` after the vessel was bound by an
/// event), so the first-argument index turns the dominant lookups into
/// O(1) bucket probes instead of scans over every fact of the
/// predicate. Only number-free first arguments are indexed and probed
/// ([`Terms::is_number_free`]); a numeric one matches facts that are not
/// identical (`1` matches `1.0`), so it is looked up in the signature
/// bucket.
#[derive(Clone, Debug, Default)]
pub struct FactIndex {
    by_signature: FxHashMap<(Symbol, usize), Vec<TermId>>,
    by_first_arg: FxHashMap<(Symbol, usize, TermId), Vec<TermId>>,
}

impl FactIndex {
    /// Interns every fact of `facts` and indexes it.
    pub fn build(facts: &FactStore, terms: &mut Terms<'_>) -> FactIndex {
        let mut index = FactIndex::default();
        for (sig, bucket) in &facts.by_signature {
            let ids: Vec<TermId> = bucket.iter().map(|f| terms.intern_term(f)).collect();
            for &id in &ids {
                if let Some(first) = terms.first_arg(id).filter(|a| terms.is_number_free(*a)) {
                    index
                        .by_first_arg
                        .entry((sig.0, sig.1, first))
                        .or_default()
                        .push(id);
                }
            }
            index.by_signature.insert(*sig, ids);
        }
        index
    }

    /// The facts `pattern` can match under `frame`, in insertion order:
    /// the first-argument bucket when the pattern's first argument is a
    /// number-free ground term (none when no arena holds it), else the
    /// signature's facts. Matching the result in order finds the same
    /// solutions in the same order as matching the whole signature.
    pub fn matching(&self, pattern: &LTerm, frame: &Frame<'_>, terms: &Terms<'_>) -> &[TermId] {
        let (sig, first) = match pattern {
            LTerm::Compound(f, args) => ((*f, args.len()), first_arg_key(pattern, frame, terms)),
            _ => match signature(pattern, frame, terms) {
                Some(sig) => (sig, Probe::Open),
                None => return &[],
            },
        };
        let bucket = match first {
            Probe::Found(first) => self.by_first_arg.get(&(sig.0, sig.1, first)),
            Probe::Absent => None,
            Probe::Open => self.by_signature.get(&sig),
        };
        bucket.map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether any fact matches `pattern` under `frame`; the frame is
    /// left as it was.
    pub fn any_match(&self, pattern: &LTerm, frame: &mut Frame<'_>, terms: &Terms<'_>) -> bool {
        let mark = frame.mark();
        self.matching(pattern, frame, terms).iter().any(|&fact| {
            let hit = match_lterm(pattern, fact, frame, terms);
            frame.undo(mark);
            hit
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::TermArena;
    use crate::lower::lower_term;
    use crate::parser::parse_term;
    use crate::plan::ir::VarTable;
    use crate::symbol::SymbolTable;

    fn store(facts: &[&str], sym: &mut SymbolTable) -> FactStore {
        FactStore::from_facts(facts.iter().map(|f| parse_term(f, sym).unwrap()))
    }

    /// Runs `query` over `facts`, indexed in a frozen arena, and over
    /// `pattern`, lowered against a scratch arena: its constants are not
    /// interned beside the facts, like a first argument the executor
    /// builds from bound slots.
    fn with_pattern<R>(
        facts: &FactStore,
        sym: &SymbolTable,
        pattern: &str,
        query: impl FnOnce(&FactIndex, &LTerm, &mut Frame<'_>, &Terms<'_>, &SymbolTable) -> R,
    ) -> R {
        let mut sym = sym.clone();
        let pattern = parse_term(pattern, &mut sym).unwrap();
        let mut vars = VarTable::default();
        let mut lowered = None;
        TermArena::frozen(sym.len(), |terms| {
            lowered = Some(lower_term(&pattern, &mut vars, terms));
        });
        let mut index = FactIndex::default();
        let frozen = TermArena::frozen(sym.len(), |terms| index = FactIndex::build(facts, terms));
        let mut overlay = TermArena::overlay(&frozen);
        let terms = Terms::new(&frozen, &mut overlay);
        let mut frame = Frame::new(&vars);
        query(&index, &lowered.unwrap(), &mut frame, &terms, &sym)
    }

    /// The bindings of every fact matching `pattern`, in order, as the
    /// executor finds them.
    fn solutions(facts: &FactStore, sym: &SymbolTable, pattern: &str) -> Vec<Vec<(String, Term)>> {
        with_pattern(facts, sym, pattern, |index, pattern, frame, terms, sym| {
            let mut found = Vec::new();
            for &fact in index.matching(pattern, frame, terms) {
                let mark = frame.mark();
                if match_lterm(pattern, fact, frame, terms) {
                    found.push(
                        frame
                            .bound_slots()
                            .map(|(i, id)| {
                                let var = frame.vars().syms[i as usize];
                                (sym.name(var).to_owned(), terms.to_term(id))
                            })
                            .collect(),
                    );
                }
                frame.undo(mark);
            }
            found
        })
    }

    #[test]
    fn add_and_query() {
        let mut sym = SymbolTable::new();
        let s = store(
            &["areaType(a1, fishing)", "areaType(a2, anchorage)"],
            &mut sym,
        );
        assert_eq!(s.len(), 2);
        let hits = solutions(&s, &sym, "areaType(X, fishing)");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0][0].0, "X");
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
        sym.intern("min");
        for (pattern, hit) in [("thresholds(max, V)", true), ("thresholds(min, V)", false)] {
            with_pattern(&s, &sym, pattern, |index, pattern, frame, terms, _| {
                assert_eq!(index.any_match(pattern, frame, terms), hit);
                assert_eq!(
                    frame.bound_slots().count(),
                    0,
                    "the frame is left as it was"
                );
            });
        }
        let hit = solutions(&s, &sym, "thresholds(max, V)");
        assert_eq!(hit, vec![vec![("V".to_string(), Term::Float(5.0))]]);
    }

    #[test]
    fn numeric_first_argument_matches_across_int_and_float() {
        let mut sym = SymbolTable::new();
        let s = store(
            &["limit(1.0, high)", "limit(2, low)", "limit(a, mid)"],
            &mut sym,
        );
        // `1` unifies with `1.0` and `2.0` with `2`, although neither
        // pair is bit-identical.
        assert_eq!(solutions(&s, &sym, "limit(1, high)").len(), 1);
        assert_eq!(solutions(&s, &sym, "limit(2.0, Level)").len(), 1);
        assert!(solutions(&s, &sym, "limit(1, low)").is_empty());
        // An atom first argument still probes its own bucket.
        assert_eq!(solutions(&s, &sym, "limit(a, Level)").len(), 1);
    }

    #[test]
    fn first_argument_no_arena_holds_has_no_candidates() {
        let mut sym = SymbolTable::new();
        let s = store(&["near(pair(a1, a2), close)"], &mut sym);
        with_pattern(
            &s,
            &sym,
            "near(pair(a1, a3), D)",
            |index, pattern, frame, terms, _| {
                assert_eq!(first_arg_key(pattern, frame, terms), Probe::Absent);
                assert!(index.matching(pattern, frame, terms).is_empty());
            },
        );
        assert_eq!(solutions(&s, &sym, "near(pair(a1, a2), D)").len(), 1);
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
        assert_eq!(solutions(&s, &sym, "areaType(X, fishing)").len(), 2);
    }
}
