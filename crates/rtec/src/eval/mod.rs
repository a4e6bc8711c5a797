//! The per-window state the evaluation plan ([`crate::plan`]) reads and
//! writes.
//!
//! Split by concern: [`arith`] evaluates arithmetic comparisons,
//! [`events`] indexes a window's input events, [`cache`] holds computed and
//! input interval lists, [`delta`] finds the simple fluents a window's
//! events can affect, and [`simple`] turns initiation and termination
//! points into maximal intervals under the law of inertia.

pub mod arith;
pub mod cache;
pub mod delta;
pub mod events;
pub mod simple;

use std::collections::HashSet;

/// Collects deduplicated, human-readable evaluation warnings (undefined
/// fluents, unbound arithmetic, non-ground rule heads, ...).
#[derive(Debug, Default)]
pub struct WarningSink {
    seen: HashSet<String>,
    ordered: Vec<String>,
}

impl WarningSink {
    /// Creates an empty sink.
    pub fn new() -> WarningSink {
        WarningSink::default()
    }

    /// Records a warning once; duplicates are dropped.
    pub fn push(&mut self, message: impl Into<String>) {
        let message = message.into();
        if self.seen.insert(message.clone()) {
            self.ordered.push(message);
        }
    }

    /// The warnings in first-occurrence order.
    pub fn messages(&self) -> &[String] {
        &self.ordered
    }

    /// Consumes the sink, returning the ordered warnings.
    pub fn into_messages(self) -> Vec<String> {
        self.ordered
    }

    /// Number of distinct warnings.
    pub fn len(&self) -> usize {
        self.ordered.len()
    }

    /// Whether no warnings were recorded.
    pub fn is_empty(&self) -> bool {
        self.ordered.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warnings_are_deduplicated() {
        let mut w = WarningSink::new();
        w.push("a");
        w.push("b");
        w.push("a");
        assert_eq!(w.messages(), &["a".to_string(), "b".to_string()]);
        assert_eq!(w.len(), 2);
    }
}
