//! Entity-to-shard routing for a streaming session.
//!
//! Entities (named by an [`rtec::parallel::Partitioner`]) are grouped
//! into interaction components with a union-find over coupling inputs
//! (multi-entity events, input-fluent instances such as
//! `proximity(v1, v2)`), and components are pinned to shards round-robin
//! in entity-discovery order.
//!
//! Pinning is deferred: items whose component is not pinned yet are
//! buffered, and every buffered component is pinned at the next *flush*
//! (a tick or a drain). When **all couplings arrive before the first
//! tick** — the natural shape of a stream whose proximity intervals are
//! declared up front — no rule joins entities on different shards, so
//! the merged output is identical to a single-engine run.
//!
//! A coupling that arrives *after* the components it joins were pinned
//! to different shards cannot be honoured without re-sharding; it is
//! counted in [`Router::late_couplings`] and routed best-effort to the
//! first entity's shard.

use rtec::interval::IntervalList;
use rtec::term::GroundFvp;
use rtec::{Term, Timepoint};
use std::collections::HashMap;

/// Where an input item should go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Deliver to one shard.
    Shard(usize),
    /// Deliver to every shard (entity-less items; the merge is
    /// idempotent for them).
    Broadcast,
    /// Held back until the next flush pins the item's component.
    Buffered,
}

/// A buffered input item (kept in arrival order).
pub enum PendingItem {
    /// An event at a time-point.
    Event(Term, Timepoint),
    /// An input-fluent interval list.
    Intervals(GroundFvp, IntervalList),
}

/// Serializable image of a [`Router`]'s sharding decisions, taken at a
/// tick boundary (the buffer is empty then — `flush` ran). Restoring it
/// into a fresh router reproduces the exact entity→shard assignment, so
/// a session rebuilt from a checkpoint routes future items identically.
#[derive(Clone, Debug)]
pub struct RouterSnapshot {
    /// Shard count the assignment was made for.
    pub n_shards: usize,
    /// Entities in id (discovery) order.
    pub entities: Vec<Term>,
    /// Union-find parent array, indexed by entity id.
    pub parent: Vec<usize>,
    /// `(component root, shard)` pins, sorted by root.
    pub shard_of_root: Vec<(usize, usize)>,
    /// Round-robin pin counter.
    pub pinned: usize,
    /// Late couplings observed so far.
    pub late_couplings: u64,
}

/// Incremental entity partitioner. Terms handed in must be interned in
/// the session's master symbol table.
pub struct Router {
    n_shards: usize,
    entity_ids: HashMap<Term, usize>,
    parent: Vec<usize>,
    /// Component root -> pinned shard.
    shard_of_root: HashMap<usize, usize>,
    /// Number of components pinned so far (round-robin counter).
    pinned: usize,
    buffer: Vec<(PendingItem, Option<usize>)>,
    /// Couplings that arrived after their components were pinned apart.
    pub late_couplings: u64,
}

impl Router {
    /// A router distributing components over `n_shards` shards.
    pub fn new(n_shards: usize) -> Router {
        assert!(n_shards >= 1, "at least one shard required");
        Router {
            n_shards,
            entity_ids: HashMap::new(),
            parent: Vec::new(),
            shard_of_root: HashMap::new(),
            pinned: 0,
            buffer: Vec::new(),
            late_couplings: 0,
        }
    }

    fn id_of(&mut self, entity: &Term) -> usize {
        if let Some(&id) = self.entity_ids.get(entity) {
            return id;
        }
        let id = self.parent.len();
        self.entity_ids.insert(entity.clone(), id);
        self.parent.push(id);
        id
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Unions two entities' components, propagating an existing pin. A
    /// union of components pinned to different shards is counted as a
    /// late coupling (the pins stay as they are).
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let pa = self.shard_of_root.get(&ra).copied();
        let pb = self.shard_of_root.get(&rb).copied();
        self.parent[ra] = rb;
        match (pa, pb) {
            (Some(sa), Some(sb)) if sa != sb => self.late_couplings += 1,
            (Some(sa), None) => {
                self.shard_of_root.insert(rb, sa);
            }
            _ => {}
        }
    }

    /// Registers an item's entities (interning new ones, unioning
    /// couplings) and decides its route. `entities` comes from a
    /// [`rtec::parallel::Partitioner`].
    pub fn route(&mut self, entities: &[Term]) -> Route {
        if entities.is_empty() {
            return Route::Broadcast;
        }
        let ids: Vec<usize> = entities.iter().map(|e| self.id_of(e)).collect();
        for w in ids.windows(2) {
            self.union(w[0], w[1]);
        }
        let root = self.find(ids[0]);
        match self.shard_of_root.get(&root) {
            Some(&s) => Route::Shard(s),
            None => Route::Buffered,
        }
    }

    /// Stores an item whose route was [`Route::Buffered`].
    pub fn buffer(&mut self, item: PendingItem, first_entity: &Term) {
        let id = self.id_of(first_entity);
        self.buffer.push((item, Some(id)));
    }

    /// Number of items waiting for a flush.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Pins every unpinned component (round-robin in entity-discovery
    /// order, like the batch partitioner) and drains the buffer as
    /// `(shard, item)` pairs in arrival order.
    pub fn flush(&mut self) -> Vec<(usize, PendingItem)> {
        for e in 0..self.parent.len() {
            let root = self.find(e);
            if !self.shard_of_root.contains_key(&root) {
                let shard = self.pinned % self.n_shards;
                self.shard_of_root.insert(root, shard);
                self.pinned += 1;
            }
        }
        let buffer = std::mem::take(&mut self.buffer);
        buffer
            .into_iter()
            .map(|(item, ent)| {
                let shard = match ent {
                    Some(e) => {
                        let root = self.find(e);
                        self.shard_of_root[&root]
                    }
                    None => 0,
                };
                (shard, item)
            })
            .collect()
    }

    /// Captures the sharding state. Buffered items are deliberately not
    /// part of the snapshot — callers snapshot at tick boundaries, right
    /// after [`Router::flush`].
    pub fn snapshot(&self) -> RouterSnapshot {
        let mut entities: Vec<(usize, Term)> = self
            .entity_ids
            .iter()
            .map(|(term, &id)| (id, term.clone()))
            .collect();
        entities.sort_by_key(|(id, _)| *id);
        let mut shard_of_root: Vec<(usize, usize)> = self
            .shard_of_root
            .iter()
            .map(|(&root, &shard)| (root, shard))
            .collect();
        shard_of_root.sort_unstable();
        RouterSnapshot {
            n_shards: self.n_shards,
            entities: entities.into_iter().map(|(_, term)| term).collect(),
            parent: self.parent.clone(),
            shard_of_root,
            pinned: self.pinned,
            late_couplings: self.late_couplings,
        }
    }

    /// Rebuilds a router from a snapshot. Fails if the snapshot is
    /// internally inconsistent (mismatched lengths, out-of-range ids).
    pub fn restore(snap: &RouterSnapshot) -> Result<Router, String> {
        if snap.n_shards == 0 {
            return Err("router snapshot: zero shards".into());
        }
        let n = snap.entities.len();
        if snap.parent.len() != n {
            return Err("router snapshot: parent/entity length mismatch".into());
        }
        if snap.parent.iter().any(|&p| p >= n)
            || snap
                .shard_of_root
                .iter()
                .any(|&(root, shard)| root >= n || shard >= snap.n_shards)
        {
            return Err("router snapshot: id out of range".into());
        }
        let entity_ids = snap
            .entities
            .iter()
            .enumerate()
            .map(|(id, term)| (term.clone(), id))
            .collect();
        Ok(Router {
            n_shards: snap.n_shards,
            entity_ids,
            parent: snap.parent.clone(),
            shard_of_root: snap.shard_of_root.iter().copied().collect(),
            pinned: snap.pinned,
            buffer: Vec::new(),
            late_couplings: snap.late_couplings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtec::SymbolTable;

    fn atom(sym: &mut SymbolTable, name: &str) -> Term {
        Term::Atom(sym.intern(name))
    }

    #[test]
    fn pre_flush_coupling_keeps_entities_together() {
        let mut sym = SymbolTable::new();
        let (a, b, c) = (
            atom(&mut sym, "a"),
            atom(&mut sym, "b"),
            atom(&mut sym, "c"),
        );
        let mut r = Router::new(2);
        assert_eq!(r.route(std::slice::from_ref(&a)), Route::Buffered);
        assert_eq!(r.route(&[a.clone(), b.clone()]), Route::Buffered);
        assert_eq!(r.route(std::slice::from_ref(&c)), Route::Buffered);
        let _ = r.flush();
        let sa = r.route(std::slice::from_ref(&a));
        let sb = r.route(std::slice::from_ref(&b));
        let sc = r.route(std::slice::from_ref(&c));
        assert_eq!(sa, sb, "coupled entities must share a shard");
        assert_ne!(sa, sc, "two components round-robin across two shards");
        assert_eq!(r.late_couplings, 0);
    }

    #[test]
    fn post_pin_cross_shard_coupling_is_counted() {
        let mut sym = SymbolTable::new();
        let (a, b) = (atom(&mut sym, "a"), atom(&mut sym, "b"));
        let mut r = Router::new(2);
        let _ = r.route(std::slice::from_ref(&a));
        let _ = r.route(std::slice::from_ref(&b));
        let _ = r.flush(); // pins a and b to different shards
        let _ = r.route(&[a, b]);
        assert_eq!(r.late_couplings, 1);
    }

    #[test]
    fn entity_less_items_broadcast() {
        let mut r = Router::new(3);
        assert_eq!(r.route(&[]), Route::Broadcast);
    }

    #[test]
    fn snapshot_restore_preserves_the_assignment() {
        let mut sym = SymbolTable::new();
        let names = ["a", "b", "c", "d", "e"];
        let terms: Vec<Term> = names.iter().map(|n| atom(&mut sym, n)).collect();
        let mut r = Router::new(3);
        for t in &terms {
            let _ = r.route(std::slice::from_ref(t));
        }
        let _ = r.route(&[terms[0].clone(), terms[3].clone()]);
        let _ = r.flush();

        let snap = r.snapshot();
        let mut restored = Router::restore(&snap).unwrap();
        for t in &terms {
            assert_eq!(
                r.route(std::slice::from_ref(t)),
                restored.route(std::slice::from_ref(t)),
                "entity {t:?}"
            );
        }
        // A new entity discovered after restore pins identically too.
        let f = atom(&mut sym, "f");
        let _ = r.route(std::slice::from_ref(&f));
        let _ = restored.route(std::slice::from_ref(&f));
        let _ = r.flush();
        let _ = restored.flush();
        assert_eq!(
            r.route(std::slice::from_ref(&f)),
            restored.route(std::slice::from_ref(&f))
        );
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let mut sym = SymbolTable::new();
        let a = atom(&mut sym, "a");
        let mut r = Router::new(2);
        let _ = r.route(std::slice::from_ref(&a));
        let _ = r.flush();
        let good = r.snapshot();

        let mut bad = good.clone();
        bad.parent = vec![5];
        assert!(Router::restore(&bad).is_err());
        let mut bad = good.clone();
        bad.n_shards = 0;
        assert!(Router::restore(&bad).is_err());
        let mut bad = good;
        bad.shard_of_root = vec![(0, 9)];
        assert!(Router::restore(&bad).is_err());
    }
}
