//! The per-window fluent cache.
//!
//! RTEC evaluates hierarchical event descriptions bottom-up, caching the
//! maximal intervals of every fluent-value pair so that higher-level
//! definitions reuse them (the paper's "activity hierarchies that pave the
//! way for caching"). The cache also fronts the *input* fluents — interval
//! lists supplied with the stream, such as vessel `proximity` in the
//! maritime domain.

use crate::ast::FluentKey;
use crate::interval::{IntervalList, Timepoint};
use crate::term::{GroundFvp, Term};
use std::cell::Cell;
use std::collections::HashMap;

/// Ground FVPs grouped by fluent key in insertion order, with a
/// secondary index from the fluent's first argument to positions in
/// that order. The engine keeps one for the input fluents; the cache
/// keeps one per window for the computed fluents.
#[derive(Debug, Default)]
pub struct InstanceIndex {
    keys: HashMap<FluentKey, KeyInstances>,
}

#[derive(Debug, Default)]
struct KeyInstances {
    all: Vec<GroundFvp>,
    /// Positions in `all`, by first argument; only first arguments that
    /// pass [`Term::is_probe_key`] are indexed.
    by_first_arg: HashMap<Term, Vec<u32>>,
}

impl InstanceIndex {
    /// Appends an instance. The caller keeps instances distinct.
    pub fn push(&mut self, fvp: GroundFvp) {
        let Some(key) = fvp.fluent.signature() else {
            return;
        };
        let entry = self.keys.entry(key).or_default();
        if let Some(first) = fvp.fluent.args().first().filter(|f| f.is_probe_key()) {
            let pos = u32::try_from(entry.all.len()).expect("fewer than 2^32 instances per key");
            entry
                .by_first_arg
                .entry(first.clone())
                .or_default()
                .push(pos);
        }
        entry.all.push(fvp);
    }

    /// Whether any instance of `key` is known.
    pub fn contains_key(&self, key: FluentKey) -> bool {
        self.keys.contains_key(&key)
    }

    /// The instances of `key` that can match a fluent pattern whose first
    /// argument is `first`, in insertion order: the first-argument bucket
    /// when `first` is a probe key, else every instance of `key`.
    pub fn candidates<'s>(
        &'s self,
        key: FluentKey,
        first: Option<&Term>,
    ) -> impl Iterator<Item = &'s GroundFvp> + 's {
        let entry = self.keys.get(&key);
        let all: &[GroundFvp] = entry.map_or(&[], |e| &e.all);
        let bucket: Option<&[u32]> = match (entry, first.filter(|f| f.is_probe_key())) {
            (Some(e), Some(first)) => Some(e.by_first_arg.get(first).map_or(&[], Vec::as_slice)),
            _ => None,
        };
        // At most one of the two halves yields anything.
        let scan = if bucket.is_some() { &[] } else { all };
        bucket
            .into_iter()
            .flatten()
            .map(move |&pos| &all[pos as usize])
            .chain(scan)
    }
}

/// Interval lists of ground FVPs known in the current window: computed
/// (lower-strata) fluents plus input fluents.
#[derive(Debug)]
pub struct FluentCache<'a> {
    chunk: HashMap<GroundFvp, IntervalList>,
    chunk_by_key: InstanceIndex,
    inputs: &'a HashMap<GroundFvp, IntervalList>,
    inputs_by_key: &'a InstanceIndex,
    // Hit/miss tallies stay in thread-local `Cell`s on the hot lookup
    // path and reach the global atomic counters once, on drain.
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl<'a> FluentCache<'a> {
    /// Creates a cache fronting the given input-fluent maps.
    pub fn new(
        inputs: &'a HashMap<GroundFvp, IntervalList>,
        inputs_by_key: &'a InstanceIndex,
    ) -> FluentCache<'a> {
        FluentCache {
            chunk: HashMap::new(),
            chunk_by_key: InstanceIndex::default(),
            inputs,
            inputs_by_key,
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// The interval list of `fvp`, if known (computed first, inputs second).
    pub fn get(&self, fvp: &GroundFvp) -> Option<&IntervalList> {
        let found = self.chunk.get(fvp).or_else(|| self.inputs.get(fvp));
        let tally = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        tally.set(tally.get() + 1);
        found
    }

    /// Whether `fvp` holds at `t` according to the cache.
    pub fn holds_at(&self, fvp: &GroundFvp, t: Timepoint) -> bool {
        self.get(fvp).is_some_and(|l| l.contains(t))
    }

    /// All ground instances with the given fluent key (computed plus
    /// input), without duplicates.
    pub fn instances(&self, key: FluentKey) -> Vec<&GroundFvp> {
        self.candidates(key, None).collect()
    }

    /// The instances of `key` that can match a fluent pattern whose first
    /// argument is `first` — computed first, then inputs without a
    /// computed entry, each in insertion order. Matching them in order
    /// finds the same instances in the same order as matching
    /// [`FluentCache::instances`]; with a probe-key `first` (see
    /// [`Term::is_probe_key`]) only its first-argument buckets are read.
    pub fn candidates<'s>(
        &'s self,
        key: FluentKey,
        first: Option<&Term>,
    ) -> impl Iterator<Item = &'s GroundFvp> + 's {
        // Only a key with computed instances can shadow an input.
        let shadowing = self.chunk_by_key.contains_key(key);
        self.chunk_by_key.candidates(key, first).chain(
            self.inputs_by_key
                .candidates(key, first)
                .filter(move |f| !shadowing || !self.chunk.contains_key(*f)),
        )
    }

    /// Whether the cache knows any instance (computed or input) of `key`.
    pub fn knows_key(&self, key: FluentKey) -> bool {
        self.chunk_by_key.contains_key(key) || self.inputs_by_key.contains_key(key)
    }

    /// Records the interval list of a computed FVP, unioning with any list
    /// already recorded for it. Empty lists are ignored.
    pub fn insert(&mut self, fvp: GroundFvp, list: IntervalList) {
        if list.is_empty() {
            return;
        }
        match self.chunk.get_mut(&fvp) {
            Some(existing) => existing.merge(&list),
            None => {
                self.chunk_by_key.push(fvp.clone());
                self.chunk.insert(fvp, list);
            }
        }
    }

    /// Drains the computed entries (called when folding a window's results
    /// into the global recognition output) and flushes the hit/miss
    /// tallies to the global metrics.
    pub fn into_computed(self) -> HashMap<GroundFvp, IntervalList> {
        let metrics = crate::obs::metrics();
        metrics.cache_hits.add(self.hits.get());
        metrics.cache_misses.add(self.misses.get());
        self.chunk
    }

    /// Iterates over the computed entries.
    pub fn computed(&self) -> impl Iterator<Item = (&GroundFvp, &IntervalList)> {
        self.chunk.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_term;
    use crate::symbol::SymbolTable;
    use crate::term::Term;

    fn gfvp(sym: &mut SymbolTable, fluent: &str, value: &str) -> GroundFvp {
        let f = parse_term(fluent, sym).unwrap();
        let v = parse_term(value, sym).unwrap();
        GroundFvp::new(f, v).unwrap()
    }

    #[test]
    fn inputs_are_visible_through_cache() {
        let mut sym = SymbolTable::new();
        let fvp = gfvp(&mut sym, "proximity(v1, v2)", "true");
        let key = fvp.fluent.signature().unwrap();
        let mut inputs = HashMap::new();
        inputs.insert(fvp.clone(), IntervalList::from_pairs(&[(0, 10)]));
        let mut by_key = InstanceIndex::default();
        by_key.push(fvp.clone());
        let cache = FluentCache::new(&inputs, &by_key);
        assert!(cache.holds_at(&fvp, 5));
        assert!(!cache.holds_at(&fvp, 10));
        assert_eq!(cache.instances(key).len(), 1);
    }

    #[test]
    fn insert_unions_duplicate_entries() {
        let mut sym = SymbolTable::new();
        let fvp = gfvp(&mut sym, "f(v1)", "true");
        let inputs = HashMap::new();
        let by_key = InstanceIndex::default();
        let mut cache = FluentCache::new(&inputs, &by_key);
        cache.insert(fvp.clone(), IntervalList::from_pairs(&[(0, 5)]));
        cache.insert(fvp.clone(), IntervalList::from_pairs(&[(5, 9)]));
        assert_eq!(cache.get(&fvp).unwrap().len(), 1);
        assert!(cache.holds_at(&fvp, 8));
    }

    #[test]
    fn empty_insert_is_ignored() {
        let mut sym = SymbolTable::new();
        let fvp = gfvp(&mut sym, "f(v1)", "true");
        let inputs = HashMap::new();
        let by_key = InstanceIndex::default();
        let mut cache = FluentCache::new(&inputs, &by_key);
        cache.insert(fvp.clone(), IntervalList::new());
        assert!(cache.get(&fvp).is_none());
        let _ = Term::Int(0); // silence unused import in some cfgs
    }
}
