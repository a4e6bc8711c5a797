//! The per-window fluent cache.
//!
//! RTEC evaluates hierarchical event descriptions bottom-up, caching the
//! maximal intervals of every fluent-value pair so that higher-level
//! definitions reuse them (the paper's "activity hierarchies that pave the
//! way for caching"). The cache also fronts the *input* fluents — interval
//! lists supplied with the stream, such as vessel `proximity` in the
//! maritime domain.

use crate::arena::{FxHashMap, TermId, Terms};
use crate::ast::FluentKey;
use crate::frame::Probe;
use crate::interval::{IntervalList, Timepoint};
use crate::term::GroundFvp;
use std::cell::Cell;
use std::collections::HashMap;

/// A ground fluent-value pair as interned ids: `(fluent, value)`.
pub type Instance = (TermId, TermId);

/// Instances grouped by fluent key in insertion order, with a secondary
/// index from the fluent's first argument to positions in that order.
/// The cache keeps one for the window's computed fluents and one for the
/// input fluents the window reads.
#[derive(Debug, Default)]
pub struct InstanceIndex {
    keys: FxHashMap<FluentKey, KeyInstances>,
}

#[derive(Debug, Default)]
struct KeyInstances {
    all: Vec<Instance>,
    /// Positions in `all`, by first argument; only number-free first
    /// arguments are indexed.
    by_first_arg: FxHashMap<TermId, Vec<u32>>,
}

impl InstanceIndex {
    /// Appends an instance. The caller keeps instances distinct.
    pub fn push(&mut self, inst: Instance, terms: &Terms<'_>) {
        let Some(key) = terms.signature(inst.0) else {
            return;
        };
        let entry = self.keys.entry(key).or_default();
        if let Some(first) = terms.first_arg(inst.0).filter(|a| terms.is_number_free(*a)) {
            let pos = u32::try_from(entry.all.len()).expect("fewer than 2^32 instances per key");
            entry.by_first_arg.entry(first).or_default().push(pos);
        }
        entry.all.push(inst);
    }

    /// Whether any instance of `key` is known.
    pub fn contains_key(&self, key: FluentKey) -> bool {
        self.keys.contains_key(&key)
    }

    /// The instances of `key` that can match a fluent pattern whose first
    /// argument is `first` (see [`crate::frame::first_arg_key`]), in
    /// insertion order: the first-argument bucket for a `Found` key,
    /// nothing for an `Absent` one, every instance of `key` otherwise.
    pub fn candidates(&self, key: FluentKey, first: Probe) -> impl Iterator<Item = Instance> + '_ {
        let entry = self.keys.get(&key);
        let all: &[Instance] = entry.map_or(&[], |e| &e.all);
        let (bucket, scan): (&[u32], &[Instance]) = match (entry, first) {
            (Some(e), Probe::Found(first)) => {
                (e.by_first_arg.get(&first).map_or(&[], Vec::as_slice), &[])
            }
            (_, Probe::Absent) | (None, _) => (&[], &[]),
            (Some(_), Probe::Open) => (&[], all),
        };
        // At most one of the two halves yields anything.
        bucket
            .iter()
            .map(move |&pos| all[pos as usize])
            .chain(scan.iter().copied())
    }
}

/// The input fluents an engine holds across windows (interval lists
/// supplied with the stream, such as vessel `proximity`), in insertion
/// order. Each window interns the ones it reads.
#[derive(Debug, Default)]
pub struct InputFluents {
    positions: HashMap<GroundFvp, usize>,
    entries: Vec<(GroundFvp, IntervalList)>,
}

impl InputFluents {
    /// Records the interval list of an input FVP, unioning with any list
    /// already recorded for it.
    pub fn insert(&mut self, fvp: GroundFvp, list: IntervalList) {
        match self.positions.get(&fvp) {
            Some(&pos) => self.entries[pos].1.merge(&list),
            None => {
                self.positions.insert(fvp.clone(), self.entries.len());
                self.entries.push((fvp, list));
            }
        }
    }

    /// The FVPs and their interval lists, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &(GroundFvp, IntervalList)> {
        self.entries.iter()
    }
}

/// Interval lists of ground FVPs known in the current window: computed
/// (lower-strata) fluents plus input fluents.
#[derive(Debug)]
pub struct FluentCache<'a> {
    chunk: FxHashMap<Instance, IntervalList>,
    chunk_by_key: InstanceIndex,
    inputs: FxHashMap<Instance, &'a IntervalList>,
    inputs_by_key: InstanceIndex,
    // Hit/miss tallies stay in thread-local `Cell`s on the hot lookup
    // path and reach the global atomic counters once, on drain.
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl<'a> FluentCache<'a> {
    /// Creates a cache fronting the input fluents whose key `reads`
    /// accepts, interning them into `terms`.
    pub fn new(
        inputs: &'a InputFluents,
        reads: impl Fn(FluentKey) -> bool,
        terms: &mut Terms<'_>,
    ) -> FluentCache<'a> {
        let mut cache = FluentCache {
            chunk: FxHashMap::default(),
            chunk_by_key: InstanceIndex::default(),
            inputs: FxHashMap::default(),
            inputs_by_key: InstanceIndex::default(),
            hits: Cell::new(0),
            misses: Cell::new(0),
        };
        for (fvp, list) in &inputs.entries {
            if !fvp.fluent.signature().is_some_and(&reads) {
                continue;
            }
            let inst = (
                terms.intern_term(&fvp.fluent),
                terms.intern_term(&fvp.value),
            );
            cache.inputs_by_key.push(inst, terms);
            cache.inputs.insert(inst, list);
        }
        cache
    }

    /// The interval list of `inst`, if known (computed first, inputs
    /// second).
    pub fn get(&self, inst: Instance) -> Option<&IntervalList> {
        let found = self
            .chunk
            .get(&inst)
            .or_else(|| self.inputs.get(&inst).copied());
        let tally = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        tally.set(tally.get() + 1);
        found
    }

    /// Counts a lookup of an FVP that is not interned, and so cannot be
    /// known: a miss.
    pub fn miss(&self) {
        self.misses.set(self.misses.get() + 1);
    }

    /// Whether `inst` holds at `t` according to the cache.
    pub fn holds_at(&self, inst: Instance, t: Timepoint) -> bool {
        self.get(inst).is_some_and(|l| l.contains(t))
    }

    /// The instances of `key` that can match a fluent pattern whose first
    /// argument is `first` — computed first, then inputs without a
    /// computed entry, each in insertion order. Matching them in order
    /// finds the same instances in the same order as matching every
    /// instance of `key`.
    pub fn candidates(&self, key: FluentKey, first: Probe) -> impl Iterator<Item = Instance> + '_ {
        // Only a key with computed instances can shadow an input.
        let shadowing = self.chunk_by_key.contains_key(key);
        self.chunk_by_key.candidates(key, first).chain(
            self.inputs_by_key
                .candidates(key, first)
                .filter(move |inst| !shadowing || !self.chunk.contains_key(inst)),
        )
    }

    /// Whether the cache knows any instance (computed or input) of `key`.
    pub fn knows_key(&self, key: FluentKey) -> bool {
        self.chunk_by_key.contains_key(key) || self.inputs_by_key.contains_key(key)
    }

    /// Records the interval list of a computed FVP, unioning with any list
    /// already recorded for it. Empty lists are ignored.
    pub fn insert(&mut self, inst: Instance, list: IntervalList, terms: &Terms<'_>) {
        if list.is_empty() {
            return;
        }
        match self.chunk.get_mut(&inst) {
            Some(existing) => existing.merge(&list),
            None => {
                self.chunk_by_key.push(inst, terms);
                self.chunk.insert(inst, list);
            }
        }
    }

    /// Drains the computed entries (called when folding a window's results
    /// into the global recognition output) and flushes the hit/miss
    /// tallies to the global metrics.
    pub fn into_computed(self) -> impl Iterator<Item = (Instance, IntervalList)> {
        let metrics = crate::obs::metrics();
        metrics.cache_hits.add(self.hits.get());
        metrics.cache_misses.add(self.misses.get());
        self.chunk.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::TermArena;
    use crate::parser::parse_term;
    use crate::symbol::SymbolTable;

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
        let mut inputs = InputFluents::default();
        inputs.insert(fvp.clone(), IntervalList::from_pairs(&[(0, 10)]));
        let frozen = TermArena::frozen(sym.len(), |_| {});
        let mut overlay = TermArena::overlay(&frozen);
        let mut terms = Terms::new(&frozen, &mut overlay);
        let cache = FluentCache::new(&inputs, |_| true, &mut terms);
        let inst = (
            terms.find_term(&fvp.fluent).unwrap(),
            terms.find_term(&fvp.value).unwrap(),
        );
        assert!(cache.holds_at(inst, 5));
        assert!(!cache.holds_at(inst, 10));
        assert_eq!(cache.candidates(key, Probe::Open).count(), 1);
        // An input the plan does not read is not interned.
        let mut overlay = TermArena::overlay(&frozen);
        let mut terms = Terms::new(&frozen, &mut overlay);
        let cache = FluentCache::new(&inputs, |_| false, &mut terms);
        assert!(!cache.knows_key(key));
        assert_eq!(terms.overlay_len(), 0);
    }

    #[test]
    fn insert_unions_duplicate_entries() {
        let mut sym = SymbolTable::new();
        let fvp = gfvp(&mut sym, "f(v1)", "true");
        let inputs = InputFluents::default();
        let frozen = TermArena::frozen(sym.len(), |_| {});
        let mut overlay = TermArena::overlay(&frozen);
        let mut terms = Terms::new(&frozen, &mut overlay);
        let inst = (
            terms.intern_term(&fvp.fluent),
            terms.intern_term(&fvp.value),
        );
        let mut cache = FluentCache::new(&inputs, |_| true, &mut terms);
        cache.insert(inst, IntervalList::from_pairs(&[(0, 5)]), &terms);
        cache.insert(inst, IntervalList::from_pairs(&[(5, 9)]), &terms);
        assert_eq!(cache.get(inst).unwrap().len(), 1);
        assert!(cache.holds_at(inst, 8));
    }

    #[test]
    fn empty_insert_is_ignored() {
        let mut sym = SymbolTable::new();
        let fvp = gfvp(&mut sym, "f(v1)", "true");
        let inputs = InputFluents::default();
        let frozen = TermArena::frozen(sym.len(), |_| {});
        let mut overlay = TermArena::overlay(&frozen);
        let mut terms = Terms::new(&frozen, &mut overlay);
        let inst = (
            terms.intern_term(&fvp.fluent),
            terms.intern_term(&fvp.value),
        );
        let mut cache = FluentCache::new(&inputs, |_| true, &mut terms);
        cache.insert(inst, IntervalList::new(), &terms);
        assert!(cache.get(inst).is_none());
    }
}
