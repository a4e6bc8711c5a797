//! Per-window change detection for incremental re-evaluation.
//!
//! Candidate instances of a simple fluent's rules come *only* from the
//! first body literal (a positive `happensAt`): the plan scans the
//! window's [`EventIndex`] for events matching that literal's signature
//! and solve the remaining conditions per candidate. A fluent key whose
//! rules find **zero** candidate events therefore evaluates exactly as
//! if the window were empty — the finalization step folds the carried
//! inertia and nothing else. [`WindowDelta`] precomputes that emptiness
//! per key, so incremental mode can hand such "clean" keys an empty
//! index and skip the event scan while remaining identical by
//! construction (same code path, same finalization, same warnings —
//! none in either case).
//!
//! The analysis is deliberately conservative:
//!
//! * a rule whose first literal is not the expected positive
//!   `happensAt` shape (the validator forbids this; lowering drops such
//!   rules) marks its key dirty,
//! * statically-determined fluents are **not** tracked — they read the
//!   cache and the input-fluent intervals, both of which may change
//!   without any event arriving, so they are always re-evaluated,
//! * dependency effects need no tracking at all: a clean key has zero
//!   candidates, so its body conditions (which are only solved *per
//!   candidate*) never read another fluent's output.

use crate::ast::{BodyLiteral, FluentKey};
use crate::description::CompiledDescription;
use crate::eval::events::EventIndex;
use std::collections::HashSet;

/// The set of simple-fluent keys whose rules can match at least one
/// event of the current window ("dirty"). Keys absent from the set are
/// provably unaffected by the window's events and may be evaluated
/// against an empty index.
#[derive(Debug, Default)]
pub struct WindowDelta {
    dirty: HashSet<FluentKey>,
    simple_keys: usize,
}

impl WindowDelta {
    /// Computes the dirty set of one window: a simple-fluent key is
    /// dirty iff some event of `events` matches the signature of the
    /// first body literal of one of its rules (or a rule has an
    /// unexpected shape, conservatively).
    pub fn compute(desc: &CompiledDescription, events: &EventIndex) -> WindowDelta {
        let mut dirty = HashSet::new();
        let mut simple_keys = 0;
        for (key, rule_ids) in &desc.simple_by_fluent {
            simple_keys += 1;
            let affected = rule_ids.iter().any(|&rid| {
                let rule = &desc.simple[rid];
                match rule.body.first() {
                    Some(BodyLiteral::HappensAt {
                        negated: false,
                        event,
                    }) => match event.signature() {
                        Some(sig) => !events.all(sig).is_empty(),
                        // First literal without a functor: defensive.
                        None => true,
                    },
                    // Validation guarantees the shape; defensive.
                    _ => true,
                }
            });
            if affected {
                dirty.insert(*key);
            }
        }
        WindowDelta { dirty, simple_keys }
    }

    /// Whether the window's events can affect the simple fluent `key`.
    pub fn is_dirty(&self, key: FluentKey) -> bool {
        self.dirty.contains(&key)
    }

    /// Number of dirty simple-fluent keys.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Number of simple-fluent keys provably unaffected by the window.
    pub fn clean_count(&self) -> usize {
        self.simple_keys - self.dirty.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::description::EventDescription;

    const SRC: &str = "
        initiatedAt(a(V)=true, T) :- happensAt(astart(V), T).
        terminatedAt(a(V)=true, T) :- happensAt(aend(V), T).
        initiatedAt(b(V)=true, T) :- happensAt(bstart(V), T).
    ";

    /// Indexes `events` over a fresh arena.
    fn index(
        desc: &crate::description::CompiledDescription,
        events: &[(crate::term::Term, i64)],
    ) -> EventIndex {
        let frozen = desc.plan().arena();
        let mut overlay = crate::arena::TermArena::overlay(frozen);
        let mut terms = crate::arena::Terms::new(frozen, &mut overlay);
        EventIndex::build(events, &mut terms)
    }

    #[test]
    fn only_matching_keys_are_dirty() {
        let mut desc = EventDescription::parse(SRC).unwrap();
        let ev = desc.term("bstart(v1)").unwrap();
        let compiled = desc.compile().unwrap();
        let b = compiled.symbols.get("b").unwrap();
        let a = compiled.symbols.get("a").unwrap();
        let index = index(&compiled, &[(ev, 5)]);
        let delta = WindowDelta::compute(&compiled, &index);
        assert!(delta.is_dirty((b, 1)));
        assert!(!delta.is_dirty((a, 1)));
        assert_eq!(delta.dirty_count(), 1);
        assert_eq!(delta.clean_count(), 1);
    }

    #[test]
    fn empty_window_is_all_clean() {
        let desc = EventDescription::parse(SRC).unwrap().compile().unwrap();
        let delta = WindowDelta::compute(&desc, &index(&desc, &[]));
        assert_eq!(delta.dirty_count(), 0);
        assert_eq!(delta.clean_count(), 2);
    }
}
