//! Engine-side per-rule profiling.
//!
//! The data model ([`rtec_obs::profile`]) is string-keyed and
//! engine-agnostic; this module supplies the engine-facing pieces:
//!
//! * a thread-local interval-algebra op counter, bumped by the three
//!   primitive operations in [`crate::interval`] alongside their global
//!   metrics, so an evaluator can attribute ops to the rule it is
//!   currently running by snapshotting the counter around the call
//!   (each shard worker evaluates on its own thread, so the counter
//!   never mixes rules across engines);
//! * [`EngineProfiler`], the per-engine accumulator holding the
//!   session-lifetime [`ProfileAggregate`], the most recent window's
//!   trace, and a fluent-key → `functor/arity` name cache.
//!
//! Profiling is off by default and costs nothing when disabled (the
//! thread-local counter is a single `Cell` add on paths that already
//! do an atomic metric increment). When enabled it adds two `Instant`
//! reads and one `Vec` push per stratum per window — cheap enough to
//! leave on in production, and it never touches recognition state, so
//! output (intervals, warnings, checkpoint bytes) is identical either
//! way.

use crate::ast::FluentKey;
use crate::symbol::SymbolTable;
use rtec_obs::profile::{ProfileAggregate, RuleKind, WindowProfile};
use std::cell::Cell;
use std::collections::HashMap;

thread_local! {
    static INTERVAL_OPS: Cell<u64> = const { Cell::new(0) };
}

/// Bumps the current thread's interval-algebra op counter (called by
/// the three primitive ops in [`crate::interval`]).
pub(crate) fn count_interval_op() {
    INTERVAL_OPS.with(|c| c.set(c.get().wrapping_add(1)));
}

/// The current thread's cumulative interval-algebra primitive op count
/// (union / intersect / complement executions since the thread
/// started). Evaluators snapshot this before and after a rule to
/// attribute the delta.
pub fn interval_ops() -> u64 {
    INTERVAL_OPS.with(Cell::get)
}

/// Renders the conventional profile name of a fluent key:
/// `functor/arity`.
pub fn rule_name(symbols: &SymbolTable, key: FluentKey) -> String {
    match symbols.try_name(key.0) {
        Some(name) => format!("{name}/{}", key.1),
        None => format!("?{}/{}", key.0.index(), key.1),
    }
}

/// Per-engine profiling state: lifetime aggregate, the window being
/// evaluated, the last finished window trace, and a name cache so the
/// hot path never re-renders symbols.
#[derive(Debug, Default)]
pub struct EngineProfiler {
    aggregate: ProfileAggregate,
    current: WindowProfile,
    last_window: Option<WindowProfile>,
    names: HashMap<FluentKey, String>,
}

impl EngineProfiler {
    /// A fresh profiler with nothing attributed.
    pub fn new() -> EngineProfiler {
        EngineProfiler::default()
    }

    /// The session-lifetime per-rule totals.
    pub fn aggregate(&self) -> &ProfileAggregate {
        &self.aggregate
    }

    /// The most recent window's trace, if one was evaluated since the
    /// last [`EngineProfiler::take_last_window`].
    pub fn last_window(&self) -> Option<&WindowProfile> {
        self.last_window.as_ref()
    }

    /// Takes the most recent window's trace (used by the service's
    /// flight recorder).
    pub fn take_last_window(&mut self) -> Option<WindowProfile> {
        self.last_window.take()
    }

    /// Attributes one stratum's cost to `key` in the current window.
    pub(crate) fn record(
        &mut self,
        symbols: &SymbolTable,
        key: FluentKey,
        kind: RuleKind,
        self_ns: u64,
        interval_ops: u64,
    ) {
        let name = self
            .names
            .entry(key)
            .or_insert_with(|| rule_name(symbols, key))
            .clone();
        self.current.record(name, kind, self_ns, interval_ops);
    }

    /// Closes the current window: folds its trace into the aggregate and
    /// retains it as the last window.
    pub(crate) fn finish_window(&mut self, total_ns: u64) {
        let mut window = std::mem::take(&mut self.current);
        window.total_ns = total_ns;
        self.aggregate.absorb_window(&window);
        self.last_window = Some(window);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_ops_counter_is_monotonic_per_thread() {
        let before = interval_ops();
        count_interval_op();
        count_interval_op();
        assert_eq!(interval_ops(), before + 2);
        // Another thread starts from its own counter, unaffected by ours.
        let theirs = std::thread::spawn(|| {
            let start = interval_ops();
            count_interval_op();
            interval_ops() - start
        })
        .join()
        .unwrap();
        assert_eq!(theirs, 1);
        assert_eq!(interval_ops(), before + 2);
    }
}
