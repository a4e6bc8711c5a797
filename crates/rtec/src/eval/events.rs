//! Per-window index over input events.

use crate::arena::{FxHashMap, TermId, Terms};
use crate::interval::Timepoint;
use crate::symbol::Symbol;
use crate::term::Term;

/// Events of one processing window as interned ids, indexed by
/// `(functor, arity)` and sorted by time within each bucket.
#[derive(Debug, Default)]
pub struct EventIndex {
    by_sig: FxHashMap<(Symbol, usize), Vec<(Timepoint, TermId)>>,
    count: usize,
}

impl EventIndex {
    /// Interns the `(event, time)` pairs into `terms` and indexes them.
    /// Events without a functor (numbers, variables) are ignored.
    pub fn build<'e>(
        events: impl IntoIterator<Item = &'e (Term, Timepoint)>,
        terms: &mut Terms<'_>,
    ) -> EventIndex {
        let mut idx = EventIndex::default();
        for (ev, t) in events {
            let Some(sig) = ev.signature() else {
                continue;
            };
            let id = terms.intern_term(ev);
            idx.by_sig.entry(sig).or_default().push((*t, id));
            idx.count += 1;
        }
        for bucket in idx.by_sig.values_mut() {
            bucket.sort_by_key(|(t, _)| *t);
        }
        idx
    }

    /// Total number of indexed events.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the index holds no events.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// All events with the given signature, time-ordered.
    pub fn all(&self, sig: (Symbol, usize)) -> &[(Timepoint, TermId)] {
        self.by_sig.get(&sig).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The events with the given signature occurring exactly at `t`.
    pub fn at(&self, sig: (Symbol, usize), t: Timepoint) -> &[(Timepoint, TermId)] {
        let bucket = self.all(sig);
        let lo = bucket.partition_point(|(et, _)| *et < t);
        let hi = bucket.partition_point(|(et, _)| *et <= t);
        &bucket[lo..hi]
    }

    /// The signatures present in this window.
    pub fn signatures(&self) -> impl Iterator<Item = (Symbol, usize)> + '_ {
        self.by_sig.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::TermArena;
    use crate::parser::parse_term;
    use crate::symbol::SymbolTable;

    /// Indexes `events` over a fresh arena.
    fn index(sym: &SymbolTable, events: &[(Term, Timepoint)]) -> EventIndex {
        let frozen = TermArena::frozen(sym.len(), |_| {});
        let mut overlay = TermArena::overlay(&frozen);
        EventIndex::build(events, &mut Terms::new(&frozen, &mut overlay))
    }

    #[test]
    fn index_and_point_lookup() {
        let mut sym = SymbolTable::new();
        let e1 = parse_term("e(v1)", &mut sym).unwrap();
        let e2 = parse_term("e(v2)", &mut sym).unwrap();
        let f1 = parse_term("f(v1)", &mut sym).unwrap();
        let idx = index(&sym, &[(e1.clone(), 5), (e2, 5), (f1, 5), (e1, 9)]);
        assert_eq!(idx.len(), 4);
        let e = sym.get("e").unwrap();
        assert_eq!(idx.all((e, 1)).len(), 3);
        assert_eq!(idx.at((e, 1), 5).len(), 2);
        assert_eq!(idx.at((e, 1), 9).len(), 1);
        assert!(idx.at((e, 1), 7).is_empty());
    }

    #[test]
    fn unknown_signature_is_empty() {
        let mut sym = SymbolTable::new();
        let g = sym.intern("g");
        let idx = index(&sym, &[]);
        assert!(idx.all((g, 2)).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn buckets_are_time_sorted() {
        let mut sym = SymbolTable::new();
        let e = parse_term("e(v1)", &mut sym).unwrap();
        let idx = index(&sym, &[(e.clone(), 9), (e.clone(), 3), (e, 6)]);
        let sig = (sym.get("e").unwrap(), 1);
        let times: Vec<_> = idx.all(sig).iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![3, 6, 9]);
    }
}
