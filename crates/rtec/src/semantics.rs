//! Shared semantic model: the fluent dependency graph.
//!
//! Both the compiler ([`crate::description`], which needs a bottom-up
//! stratum order for evaluation) and external analyzers (rtec-lint's
//! RL0301 cycle check, rtec-analysis) reason over the same
//! graph: defined fluents as nodes, "the definition of `head` references
//! `dep`" as edges. This module is the single home of that graph so the
//! three consumers cannot drift apart.
//!
//! Determinism contract: node iteration is sorted by [`FluentKey`],
//! dependency iteration is sorted, [`FluentGraph::stratify`] processes
//! zero-indegree nodes in sorted order (Kahn's algorithm), and
//! [`FluentGraph::cycles`] visits nodes and neighbours in sorted order —
//! so every derived artefact (stratum order, cycle reports) is a pure
//! function of the rule set.

use crate::ast::{BodyLiteral, FluentKey, SimpleRule, StaticLiteral, StaticRule};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Why no stratum order exists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StratifyFailure {
    /// A fluent's definition references the fluent itself.
    SelfCycle(FluentKey),
    /// A dependency cycle through the listed fluents (sorted).
    Cycle(Vec<FluentKey>),
}

/// The fluent dependency graph of one event description.
#[derive(Clone, Debug, Default)]
pub struct FluentGraph {
    defined: BTreeSet<FluentKey>,
    /// head -> referenced defined fluents (self-edges included).
    deps: BTreeMap<FluentKey, BTreeSet<FluentKey>>,
    /// Self-referencing heads, in the order they were recorded.
    self_deps: Vec<FluentKey>,
}

impl FluentGraph {
    /// Creates a graph over the given defined fluents, with no edges yet.
    pub fn new(defined: impl IntoIterator<Item = FluentKey>) -> FluentGraph {
        FluentGraph {
            defined: defined.into_iter().collect(),
            deps: BTreeMap::new(),
            self_deps: Vec::new(),
        }
    }

    /// Builds the graph of a validated rule set: an edge `head -> dep` for
    /// every `holdsAt` condition of a simple rule and every `holdsFor`
    /// condition of a static rule whose fluent is itself defined.
    pub fn from_rules(
        defined: impl IntoIterator<Item = FluentKey>,
        simple: &[SimpleRule],
        statics: &[StaticRule],
    ) -> FluentGraph {
        let mut g = FluentGraph::new(defined);
        for r in simple {
            let Some(head) = r.fvp.key() else { continue };
            for lit in &r.body {
                if let BodyLiteral::HoldsAt { fvp, .. } = lit {
                    if let Some(dep) = fvp.key() {
                        g.add_dependency(head, dep);
                    }
                }
            }
        }
        for r in statics {
            let Some(head) = r.fvp.key() else { continue };
            for lit in &r.body {
                if let StaticLiteral::HoldsFor { fvp, .. } = lit {
                    if let Some(dep) = fvp.key() {
                        g.add_dependency(head, dep);
                    }
                }
            }
        }
        g
    }

    /// Records that the definition of `head` references `dep`. Edges whose
    /// endpoints are not defined fluents are ignored.
    pub fn add_dependency(&mut self, head: FluentKey, dep: FluentKey) {
        if !self.defined.contains(&head) || !self.defined.contains(&dep) {
            return;
        }
        if head == dep {
            self.self_deps.push(head);
        }
        self.deps.entry(head).or_default().insert(dep);
    }

    /// The defined fluents, sorted.
    pub fn nodes(&self) -> impl Iterator<Item = FluentKey> + '_ {
        self.defined.iter().copied()
    }

    /// The defined fluents referenced by `head`'s definition, sorted.
    pub fn dependencies(&self, head: FluentKey) -> impl Iterator<Item = FluentKey> + '_ {
        self.deps.get(&head).into_iter().flatten().copied()
    }

    /// A bottom-up evaluation order (dependencies before dependents) via
    /// Kahn's algorithm, deterministic under the sorted-queue tie-break.
    ///
    /// A self-referencing fluent is reported before any longer cycle; when
    /// several definitions self-reference, the last recorded one wins
    /// (matching the compiler's historical rule-scan order).
    pub fn stratify(&self) -> Result<Vec<FluentKey>, StratifyFailure> {
        if let Some(&k) = self.self_deps.last() {
            return Err(StratifyFailure::SelfCycle(k));
        }
        let nodes: Vec<FluentKey> = self.defined.iter().copied().collect();
        let mut indegree: HashMap<FluentKey, usize> = nodes.iter().map(|&n| (n, 0)).collect();
        // dep -> dependents
        let mut dependents: HashMap<FluentKey, Vec<FluentKey>> = HashMap::new();
        for (&head, deps) in &self.deps {
            for &dep in deps {
                if dep == head {
                    continue;
                }
                dependents.entry(dep).or_default().push(head);
                *indegree.entry(head).or_default() += 1;
            }
        }
        let mut queue: Vec<FluentKey> =
            nodes.iter().filter(|n| indegree[n] == 0).copied().collect();
        queue.sort_unstable();
        let mut order = Vec::with_capacity(nodes.len());
        let mut qi = 0;
        while qi < queue.len() {
            let n = queue[qi];
            qi += 1;
            order.push(n);
            if let Some(ds) = dependents.get(&n) {
                let mut newly_free: Vec<FluentKey> = Vec::new();
                for &d in ds {
                    let e = indegree.get_mut(&d).expect("node exists");
                    *e -= 1;
                    if *e == 0 {
                        newly_free.push(d);
                    }
                }
                newly_free.sort_unstable();
                queue.extend(newly_free);
            }
        }
        if order.len() != nodes.len() {
            let remaining: Vec<FluentKey> = nodes
                .iter()
                .filter(|n| !order.contains(n))
                .copied()
                .collect();
            return Err(StratifyFailure::Cycle(remaining));
        }
        Ok(order)
    }

    /// Enumerates dependency cycles by depth-first search, one
    /// representative path per distinct cycle (deduplicated by member
    /// set), in deterministic discovery order. A self-edge yields a
    /// one-element cycle.
    pub fn cycles(&self) -> Vec<Vec<FluentKey>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        fn dfs(
            node: FluentKey,
            deps: &BTreeMap<FluentKey, BTreeSet<FluentKey>>,
            color: &mut BTreeMap<FluentKey, Color>,
            stack: &mut Vec<FluentKey>,
            found: &mut Vec<Vec<FluentKey>>,
        ) {
            color.insert(node, Color::Grey);
            stack.push(node);
            if let Some(next) = deps.get(&node) {
                for &n in next {
                    match color.get(&n).copied().unwrap_or(Color::Black) {
                        Color::White => dfs(n, deps, color, stack, found),
                        Color::Grey => {
                            let start = stack.iter().position(|&k| k == n).unwrap_or(0);
                            found.push(stack[start..].to_vec());
                        }
                        Color::Black => {}
                    }
                }
            }
            stack.pop();
            color.insert(node, Color::Black);
        }

        let mut color: BTreeMap<FluentKey, Color> =
            self.defined.iter().map(|&k| (k, Color::White)).collect();
        let mut found = Vec::new();
        for &k in &self.defined {
            if color.get(&k) == Some(&Color::White) {
                dfs(k, &self.deps, &mut color, &mut Vec::new(), &mut found);
            }
        }
        let mut seen: BTreeSet<BTreeSet<FluentKey>> = BTreeSet::new();
        found
            .into_iter()
            .filter(|cycle| seen.insert(cycle.iter().copied().collect()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolTable;

    fn key(sym: &mut SymbolTable, name: &str) -> FluentKey {
        (sym.intern(name), 1)
    }

    #[test]
    fn stratify_orders_dependencies_first() {
        let mut sym = SymbolTable::new();
        let (a, b, c) = (key(&mut sym, "a"), key(&mut sym, "b"), key(&mut sym, "c"));
        let mut g = FluentGraph::new([a, b, c]);
        g.add_dependency(c, b); // c references b
        g.add_dependency(b, a); // b references a
        assert_eq!(g.stratify().unwrap(), vec![a, b, c]);
    }

    #[test]
    fn self_cycle_beats_longer_cycle() {
        let mut sym = SymbolTable::new();
        let (a, b) = (key(&mut sym, "a"), key(&mut sym, "b"));
        let mut g = FluentGraph::new([a, b]);
        g.add_dependency(a, b);
        g.add_dependency(b, a);
        g.add_dependency(b, b);
        assert_eq!(g.stratify(), Err(StratifyFailure::SelfCycle(b)));
    }

    #[test]
    fn cycle_lists_members_sorted() {
        let mut sym = SymbolTable::new();
        let (a, b, c) = (key(&mut sym, "a"), key(&mut sym, "b"), key(&mut sym, "c"));
        let mut g = FluentGraph::new([a, b, c]);
        g.add_dependency(a, b);
        g.add_dependency(b, a);
        match g.stratify() {
            Err(StratifyFailure::Cycle(members)) => assert_eq!(members, vec![a, b]),
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn cycles_deduplicates_by_member_set() {
        let mut sym = SymbolTable::new();
        let (a, b) = (key(&mut sym, "a"), key(&mut sym, "b"));
        let mut g = FluentGraph::new([a, b]);
        g.add_dependency(a, b);
        g.add_dependency(b, a);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0], vec![a, b]);
    }

    #[test]
    fn undefined_endpoints_are_ignored() {
        let mut sym = SymbolTable::new();
        let (a, x) = (key(&mut sym, "a"), key(&mut sym, "x"));
        let mut g = FluentGraph::new([a]);
        g.add_dependency(a, x);
        g.add_dependency(x, a);
        assert_eq!(g.stratify().unwrap(), vec![a]);
        assert!(g.cycles().is_empty());
    }
}
