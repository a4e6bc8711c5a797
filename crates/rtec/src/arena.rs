//! Hash-consed terms: every distinct term gets one `u32` id.
//!
//! The plan executor runs on [`TermId`]s instead of [`Term`] trees, so a
//! keyed lookup hashes one or two integers and a match compares ids
//! before it walks any structure. Two arenas hold the ids:
//!
//! * the **frozen arena**, built once when a description is lowered: an
//!   atom for every symbol of the description, the rules' constants and
//!   the background facts. Every engine over the description reads it,
//!   and nothing writes it after lowering;
//! * a window **overlay** on top of it ([`TermArena::overlay`]), which
//!   interns one window's events, the input fluents the window reads and
//!   the fluent instances it derives. The engine clears it once the
//!   window's output is folded, so it never grows with the stream.
//!
//! Interning is exact: `1` and `1.0`, or `0.0` and `-0.0`, get different
//! ids, so two interned ids are equal exactly when the terms are equal
//! under [`Term`]'s bit-exact `Eq`, and keyed lookups use id identity.
//! Matching compares numbers by value ([`Terms::value_eq`]). Every node
//! carries a number-free flag, the id counterpart of
//! [`Term::is_probe_key`]: two distinct number-free ids never match.

use crate::symbol::Symbol;
use crate::term::Term;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// A small multiplicative hasher in the style of rustc's `FxHasher`: a
/// rotate, an xor and a multiply per word. The executor's maps are keyed
/// by ids and symbols, which the program assigns densely and clients
/// cannot choose, and the std hasher costs several times as much per
/// key.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the entropy in the high bits; the table
        // index is taken from the low ones.
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// An interned term: an index into a frozen arena or a window overlay.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u32);

/// The shape of a term, with its arguments as ids: what
/// [`Terms::shape`] returns and what [`Terms::find`] and
/// [`Terms::intern`] look up.
#[derive(Clone, Copy, Debug)]
pub enum Shape<'a> {
    /// A constant.
    Atom(Symbol),
    /// A variable (degenerate streams can carry them inside events; a
    /// rule head left non-ground interns them too).
    Var(Symbol),
    /// An integer.
    Int(i64),
    /// A float; interned by its bits.
    Float(f64),
    /// A compound term.
    Compound(Symbol, &'a [TermId]),
    /// A Prolog list.
    List(&'a [TermId]),
}

#[derive(Clone, Copy, Debug)]
enum Node {
    Atom(Symbol),
    Var(Symbol),
    Int(i64),
    Float(u64),
    /// Functor, then the arguments' start and length in `args`.
    Compound(Symbol, u32, u32),
    List(u32, u32),
}

const GROUND: u8 = 1;
const NUMBER_FREE: u8 = 2;

/// One arena of hash-consed nodes. A frozen arena numbers its nodes from
/// 0; an overlay continues after the arena it overlays. Read and extend
/// either through [`Terms`].
#[derive(Clone, Debug, Default)]
pub struct TermArena {
    /// Id of this arena's first node.
    base: u32,
    /// Symbols `0..atoms` are pre-interned as the atoms `base..base +
    /// atoms`, so an atom of the description is found without hashing.
    atoms: u32,
    /// Ids of the other atoms this arena holds, by symbol index (`FREE`
    /// where none): atoms are found without hashing.
    more_atoms: Vec<u32>,
    nodes: Vec<Node>,
    flags: Vec<u8>,
    args: Vec<TermId>,
    table: Table,
}

/// The arena under a frozen arena while it is being built.
static NO_ARENA: TermArena = TermArena::new();

impl TermArena {
    const fn new() -> TermArena {
        TermArena {
            base: 0,
            atoms: 0,
            more_atoms: Vec::new(),
            nodes: Vec::new(),
            flags: Vec::new(),
            args: Vec::new(),
            table: Table::new(),
        }
    }

    /// Builds a frozen arena: the atoms of symbols `0..symbols` first,
    /// then whatever `fill` interns.
    pub fn frozen(symbols: usize, fill: impl FnOnce(&mut Terms<'_>)) -> TermArena {
        let atoms = u32::try_from(symbols).expect("fewer than 2^32 symbols");
        let mut arena = TermArena {
            atoms,
            nodes: (0..atoms).map(|s| Node::Atom(Symbol(s))).collect(),
            flags: vec![GROUND | NUMBER_FREE; symbols],
            ..TermArena::new()
        };
        fill(&mut Terms::new(&NO_ARENA, &mut arena));
        arena
    }

    /// An empty overlay over `frozen`: its ids continue after
    /// `frozen`'s.
    pub fn overlay(frozen: &TermArena) -> TermArena {
        TermArena {
            base: frozen.end(),
            ..TermArena::new()
        }
    }

    /// Number of nodes in this arena (not counting the one it overlays).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Drops every node, keeping the allocations for the next window.
    pub fn clear(&mut self) {
        self.nodes.truncate(self.atoms as usize);
        self.flags.truncate(self.atoms as usize);
        self.more_atoms.clear();
        self.args.clear();
        self.table.clear();
    }

    fn end(&self) -> u32 {
        self.base + u32::try_from(self.nodes.len()).expect("fewer than 2^32 terms")
    }

    fn node(&self, id: TermId) -> Node {
        self.nodes[(id.0 - self.base) as usize]
    }

    fn shape(&self, id: TermId) -> Shape<'_> {
        let slice = |start: u32, len: u32| &self.args[start as usize..(start + len) as usize];
        match self.node(id) {
            Node::Atom(s) => Shape::Atom(s),
            Node::Var(s) => Shape::Var(s),
            Node::Int(i) => Shape::Int(i),
            Node::Float(bits) => Shape::Float(f64::from_bits(bits)),
            Node::Compound(f, start, len) => Shape::Compound(f, slice(start, len)),
            Node::List(start, len) => Shape::List(slice(start, len)),
        }
    }

    fn atom(&self, s: Symbol) -> Option<TermId> {
        if s.0 < self.atoms {
            return Some(TermId(self.base + s.0));
        }
        self.more_atoms
            .get(s.index())
            .filter(|id| **id != FREE)
            .map(|id| TermId(*id))
    }

    fn lookup(&self, hash: u32, shape: Shape<'_>) -> Option<TermId> {
        self.table
            .find(hash, |id| same_shape(self.shape(TermId(id)), shape))
            .map(TermId)
    }
}

fn same_shape(a: Shape<'_>, b: Shape<'_>) -> bool {
    match (a, b) {
        (Shape::Atom(x), Shape::Atom(y)) | (Shape::Var(x), Shape::Var(y)) => x == y,
        (Shape::Int(x), Shape::Int(y)) => x == y,
        (Shape::Float(x), Shape::Float(y)) => x.to_bits() == y.to_bits(),
        (Shape::Compound(f, xs), Shape::Compound(g, ys)) => f == g && xs == ys,
        (Shape::List(xs), Shape::List(ys)) => xs == ys,
        _ => false,
    }
}

/// A per-process random start for [`hash_shape`]. The node table hashes
/// term content that clients supply (numbers in input fluents and in
/// derived heads), so which values collide must not be predictable.
fn table_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0u8))
}

fn hash_shape(shape: Shape<'_>) -> u32 {
    let mut h = FxHasher { hash: table_seed() };
    match shape {
        Shape::Atom(s) => {
            h.add(1);
            h.add(u64::from(s.0));
        }
        Shape::Var(s) => {
            h.add(2);
            h.add(u64::from(s.0));
        }
        Shape::Int(i) => {
            h.add(3);
            h.add(i as u64);
        }
        Shape::Float(x) => {
            h.add(4);
            h.add(x.to_bits());
        }
        Shape::Compound(f, args) => {
            h.add(5);
            h.add(u64::from(f.0));
            h.add(args.len() as u64);
            args.iter().for_each(|a| h.add(u64::from(a.0)));
        }
        Shape::List(args) => {
            h.add(6);
            h.add(args.len() as u64);
            args.iter().for_each(|a| h.add(u64::from(a.0)));
        }
    }
    (h.hash >> 32) as u32
}

/// Open-addressing table from node hashes to ids, linear probing.
#[derive(Clone, Debug, Default)]
struct Table {
    /// `(hash, id)`; an id of [`FREE`] marks an empty slot.
    slots: Vec<(u32, u32)>,
    len: usize,
}

const FREE: u32 = u32::MAX;

impl Table {
    const fn new() -> Table {
        Table {
            slots: Vec::new(),
            len: 0,
        }
    }

    fn find(&self, hash: u32, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (h, id) = self.slots[i];
            if id == FREE {
                return None;
            }
            if h == hash && eq(id) {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, hash: u32, id: u32) {
        // At most half full: linear probing stays short.
        if (self.len + 1) * 2 > self.slots.len() {
            let grown = (self.slots.len() * 2).max(64);
            let old = std::mem::replace(&mut self.slots, vec![(0, FREE); grown]);
            for (h, id) in old.into_iter().filter(|(_, id)| *id != FREE) {
                self.place(h, id);
            }
        }
        self.place(hash, id);
        self.len += 1;
    }

    fn place(&mut self, hash: u32, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i].1 != FREE {
            i = (i + 1) & mask;
        }
        self.slots[i] = (hash, id);
    }

    fn clear(&mut self) {
        if self.len > 0 {
            self.slots.fill((0, FREE));
            self.len = 0;
        }
    }
}

/// A few ids, inline up to eight: the arguments of one compound while it
/// is interned or looked up.
#[derive(Debug)]
pub(crate) struct IdBuf {
    len: usize,
    inline: [TermId; 8],
    spill: Vec<TermId>,
}

impl IdBuf {
    pub(crate) fn new() -> IdBuf {
        IdBuf {
            len: 0,
            inline: [TermId(0); 8],
            spill: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, id: TermId) {
        if self.len < self.inline.len() {
            self.inline[self.len] = id;
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(id);
        }
        self.len += 1;
    }

    pub(crate) fn as_slice(&self) -> &[TermId] {
        if self.len <= self.inline.len() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

/// A frozen arena and a window overlay read as one id space. Lookups try
/// the frozen arena first, so a term is interned in one of the two,
/// never both, and ids stay canonical.
#[derive(Debug)]
pub struct Terms<'a> {
    frozen: &'a TermArena,
    overlay: &'a mut TermArena,
}

impl<'a> Terms<'a> {
    /// Reads `frozen` and `overlay` (built by [`TermArena::overlay`] over
    /// `frozen`) as one id space; new terms go to the overlay.
    pub fn new(frozen: &'a TermArena, overlay: &'a mut TermArena) -> Terms<'a> {
        assert_eq!(
            overlay.base,
            frozen.end(),
            "an overlay continues the ids of the arena it overlays"
        );
        Terms { frozen, overlay }
    }

    fn arena(&self, id: TermId) -> &TermArena {
        if id.0 < self.overlay.base {
            self.frozen
        } else {
            self.overlay
        }
    }

    /// The shape of `id`.
    pub fn shape(&self, id: TermId) -> Shape<'_> {
        self.arena(id).shape(id)
    }

    fn flags(&self, id: TermId) -> u8 {
        let arena = self.arena(id);
        arena.flags[(id.0 - arena.base) as usize]
    }

    /// Whether `id` holds no variable.
    pub fn is_ground(&self, id: TermId) -> bool {
        self.flags(id) & GROUND != 0
    }

    /// Whether `id` is ground and holds no number at any depth: the id
    /// counterpart of [`Term::is_probe_key`].
    pub fn is_number_free(&self, id: TermId) -> bool {
        self.flags(id) & NUMBER_FREE != 0
    }

    /// The `(functor, arity)` of an atom or compound.
    pub fn signature(&self, id: TermId) -> Option<(Symbol, usize)> {
        match self.shape(id) {
            Shape::Atom(s) => Some((s, 0)),
            Shape::Compound(f, args) => Some((f, args.len())),
            _ => None,
        }
    }

    /// The first argument of a compound or list.
    pub fn first_arg(&self, id: TermId) -> Option<TermId> {
        match self.shape(id) {
            Shape::Compound(_, args) | Shape::List(args) => args.first().copied(),
            _ => None,
        }
    }

    /// Number of terms interned in the overlay.
    pub fn overlay_len(&self) -> usize {
        self.overlay.len()
    }

    /// The id of `shape`, if either arena holds it. Never inserts.
    pub fn find(&self, shape: Shape<'_>) -> Option<TermId> {
        if let Shape::Atom(s) = shape {
            return self.frozen.atom(s).or_else(|| self.overlay.atom(s));
        }
        let hash = hash_shape(shape);
        // A compound with an overlay argument cannot be frozen.
        let may_be_frozen = match shape {
            Shape::Compound(_, args) | Shape::List(args) => {
                args.iter().all(|a| a.0 < self.overlay.base)
            }
            _ => true,
        };
        may_be_frozen
            .then(|| self.frozen.lookup(hash, shape))
            .flatten()
            .or_else(|| self.overlay.lookup(hash, shape))
    }

    /// The id of `shape`, interning it in the overlay when neither arena
    /// holds it.
    pub fn intern(&mut self, shape: Shape<'_>) -> TermId {
        if let Some(id) = self.find(shape) {
            return id;
        }
        let id = self.push(shape);
        match shape {
            Shape::Atom(s) => {
                let atoms = &mut self.overlay.more_atoms;
                if atoms.len() <= s.index() {
                    atoms.resize(s.index() + 1, FREE);
                }
                atoms[s.index()] = id.0;
            }
            _ => self.overlay.table.insert(hash_shape(shape), id.0),
        }
        id
    }

    /// Appends a node for `shape` to the overlay without looking it up.
    fn push(&mut self, shape: Shape<'_>) -> TermId {
        let (node, flags) = match shape {
            Shape::Atom(s) => (Node::Atom(s), GROUND | NUMBER_FREE),
            Shape::Var(s) => (Node::Var(s), 0),
            Shape::Int(i) => (Node::Int(i), GROUND),
            Shape::Float(x) => (Node::Float(x.to_bits()), GROUND),
            Shape::Compound(_, args) | Shape::List(args) => {
                let flags = args
                    .iter()
                    .fold(GROUND | NUMBER_FREE, |acc, a| acc & self.flags(*a));
                let start = u32::try_from(self.overlay.args.len()).expect("fewer than 2^32 args");
                let len = u32::try_from(args.len()).expect("fewer than 2^32 args");
                self.overlay.args.extend_from_slice(args);
                let node = match shape {
                    Shape::Compound(f, _) => Node::Compound(f, start, len),
                    _ => Node::List(start, len),
                };
                (node, flags)
            }
        };
        let id = self.overlay.end();
        self.overlay.nodes.push(node);
        self.overlay.flags.push(flags);
        TermId(id)
    }

    /// Interns `term` and every sub-term of it.
    pub fn intern_term(&mut self, term: &Term) -> TermId {
        match term {
            Term::Var(s) => self.intern(Shape::Var(*s)),
            Term::Atom(s) => self.intern(Shape::Atom(*s)),
            Term::Int(i) => self.intern(Shape::Int(*i)),
            Term::Float(x) => self.intern(Shape::Float(*x)),
            Term::Compound(f, args) => {
                let ids = self.intern_all(args);
                self.intern(Shape::Compound(*f, ids.as_slice()))
            }
            Term::List(items) => {
                let ids = self.intern_all(items);
                self.intern(Shape::List(ids.as_slice()))
            }
        }
    }

    fn intern_all(&mut self, terms: &[Term]) -> IdBuf {
        let mut ids = IdBuf::new();
        for t in terms {
            ids.push(self.intern_term(t));
        }
        ids
    }

    /// The id of `term`, if it is interned. Never inserts: a term with
    /// any sub-term the arenas do not hold is `None`.
    pub fn find_term(&self, term: &Term) -> Option<TermId> {
        let all = |items: &[Term]| -> Option<IdBuf> {
            let mut ids = IdBuf::new();
            for t in items {
                ids.push(self.find_term(t)?);
            }
            Some(ids)
        };
        match term {
            Term::Var(s) => self.find(Shape::Var(*s)),
            Term::Atom(s) => self.find(Shape::Atom(*s)),
            Term::Int(i) => self.find(Shape::Int(*i)),
            Term::Float(x) => self.find(Shape::Float(*x)),
            Term::Compound(f, args) => self.find(Shape::Compound(*f, all(args)?.as_slice())),
            Term::List(items) => self.find(Shape::List(all(items)?.as_slice())),
        }
    }

    /// The term `id` stands for.
    pub fn to_term(&self, id: TermId) -> Term {
        match self.shape(id) {
            Shape::Atom(s) => Term::Atom(s),
            Shape::Var(s) => Term::Var(s),
            Shape::Int(i) => Term::Int(i),
            Shape::Float(x) => Term::Float(x),
            Shape::Compound(f, args) => {
                Term::Compound(f, args.iter().map(|a| self.to_term(*a)).collect())
            }
            Shape::List(items) => Term::List(items.iter().map(|a| self.to_term(*a)).collect()),
        }
    }

    /// Whether the ground term `a` matches `b`: structural equality with
    /// numbers compared by value (`1` matches `1.0`), what
    /// [`crate::term::match_term`] decides for a ground pattern.
    pub fn value_eq(&self, a: TermId, b: TermId) -> bool {
        let (fa, fb) = (self.flags(a), self.flags(b));
        if a == b && fa & NUMBER_FREE != 0 {
            return true;
        }
        // Two distinct number-free ids differ.
        if fa & fb & NUMBER_FREE != 0 {
            return false;
        }
        match (self.shape(a), self.shape(b)) {
            (Shape::Atom(x), Shape::Atom(y)) | (Shape::Var(x), Shape::Var(y)) => x == y,
            (Shape::Int(i), Shape::Int(j)) => i == j,
            (Shape::Int(i), Shape::Float(y)) => (i as f64) == y,
            (Shape::Float(x), Shape::Int(j)) => x == (j as f64),
            (Shape::Float(x), Shape::Float(y)) => x == y,
            (Shape::Compound(f, xs), Shape::Compound(g, ys)) => {
                f == g
                    && xs.len() == ys.len()
                    && xs.iter().zip(ys).all(|(x, y)| self.value_eq(*x, *y))
            }
            (Shape::List(xs), Shape::List(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| self.value_eq(*x, *y))
            }
            _ => false,
        }
    }

    /// One-sided match of `pattern` against `fact`, the id counterpart
    /// of [`crate::term::match_term`]: the pattern's variables bind in
    /// `bindings`, numbers compare by value, and on failure `bindings`
    /// is left as it was.
    pub fn match_id(
        &self,
        pattern: TermId,
        fact: TermId,
        bindings: &mut Vec<(Symbol, TermId)>,
    ) -> bool {
        let mark = bindings.len();
        if self.match_id_inner(pattern, fact, bindings) {
            true
        } else {
            bindings.truncate(mark);
            false
        }
    }

    fn match_id_inner(
        &self,
        pattern: TermId,
        fact: TermId,
        bindings: &mut Vec<(Symbol, TermId)>,
    ) -> bool {
        if self.is_ground(pattern) {
            return self.value_eq(pattern, fact);
        }
        match (self.shape(pattern), self.shape(fact)) {
            (Shape::Var(v), _) => match bindings.iter().find(|(s, _)| *s == v) {
                Some(&(_, bound)) => self.match_id_inner(bound, fact, bindings),
                None => {
                    bindings.push((v, fact));
                    true
                }
            },
            (Shape::Compound(f, xs), Shape::Compound(g, ys)) => {
                f == g
                    && xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|(x, y)| self.match_id_inner(*x, *y, bindings))
            }
            (Shape::List(xs), Shape::List(ys)) => {
                xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|(x, y)| self.match_id_inner(*x, *y, bindings))
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_term;
    use crate::symbol::SymbolTable;
    use crate::term::{match_term, Bindings};
    use proptest::prelude::*;

    /// A frozen arena with the atoms of `symbols` and an empty overlay.
    fn arenas(symbols: &SymbolTable) -> (TermArena, TermArena) {
        let frozen = TermArena::frozen(symbols.len(), |_| {});
        let overlay = TermArena::overlay(&frozen);
        (frozen, overlay)
    }

    #[test]
    fn round_trips_are_bit_identical() {
        let mut sym = SymbolTable::new();
        let f = sym.intern("f");
        let a = Term::Atom(sym.intern("a"));
        let terms = [
            Term::Float(-0.0),
            Term::Float(0.0),
            Term::Int(i64::MIN),
            Term::Int(i64::MAX),
            Term::Float(f64::MIN_POSITIVE),
            Term::Compound(
                f,
                vec![
                    Term::List(vec![Term::Int(1), Term::Float(1.0), a.clone()]),
                    Term::Compound(f, vec![Term::Float(-0.0), Term::List(Vec::new())]),
                    Term::Var(sym.intern("X")),
                ],
            ),
            Term::List(vec![Term::List(vec![a.clone()]), a]),
        ];
        let (frozen, mut overlay) = arenas(&sym);
        let mut pool = Terms::new(&frozen, &mut overlay);
        let ids: Vec<TermId> = terms.iter().map(|t| pool.intern_term(t)).collect();
        for (t, id) in terms.iter().zip(&ids) {
            let back = pool.to_term(*id);
            assert_eq!(&back, t);
            if let (Term::Float(x), Term::Float(y)) = (&back, t) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // `0.0` and `-0.0`, and `1` and `1.0`, are distinct terms.
        assert_ne!(ids[0], ids[1]);
        assert_ne!(
            pool.intern_term(&Term::Int(1)),
            pool.intern_term(&Term::Float(1.0))
        );
    }

    #[test]
    fn equal_terms_get_equal_ids() {
        let mut sym = SymbolTable::new();
        let src = [
            "velocity(v1, 12.5, 3, [a, b])",
            "f(g(h(1)), -0.0)",
            "[]",
            "x",
        ];
        let parsed: Vec<Term> = src
            .iter()
            .map(|s| parse_term(s, &mut sym).unwrap())
            .collect();
        let (frozen, mut overlay) = arenas(&sym);
        let mut pool = Terms::new(&frozen, &mut overlay);
        let first: Vec<TermId> = parsed.iter().map(|t| pool.intern_term(t)).collect();
        let size = pool.overlay_len();
        let again: Vec<TermId> = parsed.iter().map(|t| pool.intern_term(t)).collect();
        assert_eq!(first, again);
        assert_eq!(pool.overlay_len(), size, "re-interning adds nothing");
        let distinct: FxHashSet<TermId> = first.iter().copied().collect();
        assert_eq!(distinct.len(), first.len());
    }

    #[test]
    fn frozen_terms_are_found_not_copied() {
        let mut sym = SymbolTable::new();
        let fact = parse_term("vesselType(v1, tug)", &mut sym).unwrap();
        let mut frozen_id = None;
        let frozen = TermArena::frozen(sym.len(), |pool| {
            frozen_id = Some(pool.intern_term(&fact));
        });
        let mut overlay = TermArena::overlay(&frozen);
        let mut pool = Terms::new(&frozen, &mut overlay);
        assert_eq!(pool.intern_term(&fact), frozen_id.unwrap());
        assert_eq!(pool.overlay_len(), 0);
    }

    #[test]
    fn ground_probe_of_an_unknown_term_misses_without_inserting() {
        let mut sym = SymbolTable::new();
        let known = parse_term("withinArea(v1, nearCoast)", &mut sym).unwrap();
        let unknown = parse_term("withinArea(v2, nearCoast)", &mut sym).unwrap();
        let stranger = Term::Atom(Symbol(sym.len() as u32 + 7));
        let (frozen, mut overlay) = arenas(&sym);
        let mut pool = Terms::new(&frozen, &mut overlay);
        let id = pool.intern_term(&known);
        let size = pool.overlay_len();
        assert_eq!(pool.find_term(&known), Some(id));
        assert_eq!(pool.find_term(&unknown), None);
        assert_eq!(pool.find_term(&stranger), None);
        assert_eq!(pool.find_term(&Term::Float(2.5)), None);
        assert_eq!(pool.overlay_len(), size, "a probe never inserts");
    }

    #[test]
    fn number_free_flag_mirrors_probe_keys() {
        let mut sym = SymbolTable::new();
        let src = ["a", "f(a, [b])", "f(a, 1)", "1", "2.5", "[]", "g(X)"];
        let parsed: Vec<Term> = src
            .iter()
            .map(|s| parse_term(s, &mut sym).unwrap())
            .collect();
        let (frozen, mut overlay) = arenas(&sym);
        let mut pool = Terms::new(&frozen, &mut overlay);
        for t in &parsed {
            let id = pool.intern_term(t);
            assert_eq!(pool.is_number_free(id), t.is_probe_key(), "{t:?}");
            assert_eq!(pool.is_ground(id), t.is_ground(), "{t:?}");
        }
    }

    #[test]
    fn overlay_clears_back_to_empty() {
        let mut sym = SymbolTable::new();
        let t = parse_term("e(v1, 3.5)", &mut sym).unwrap();
        let (frozen, mut overlay) = arenas(&sym);
        let id = Terms::new(&frozen, &mut overlay).intern_term(&t);
        assert!(!overlay.is_empty());
        overlay.clear();
        assert!(overlay.is_empty());
        let mut pool = Terms::new(&frozen, &mut overlay);
        assert_eq!(pool.find_term(&t), None);
        assert_eq!(pool.intern_term(&t), id, "ids restart where they started");
    }

    /// Terms over a few atoms, a variable pool and numbers chosen so
    /// that ints and floats collide by value.
    fn term_strategy(vars: bool) -> impl Strategy<Value = Term> {
        let leaf = prop_oneof![
            (0u32..3).prop_map(|s| Term::Atom(Symbol(s))),
            (-2i64..3).prop_map(Term::Int),
            (-2i64..3).prop_map(|i| Term::Float(i as f64)),
            Just(Term::Float(-0.0)),
            Just(Term::Float(0.5)),
            (3u32..5).prop_map(move |s| if vars {
                Term::Var(Symbol(s))
            } else {
                Term::Atom(Symbol(s - 3))
            }),
        ];
        leaf.prop_recursive(3, 16, 3, |inner| {
            prop_oneof![
                ((5u32..7), prop::collection::vec(inner.clone(), 1..3))
                    .prop_map(|(f, args)| Term::Compound(Symbol(f), args)),
                prop::collection::vec(inner, 0..3).prop_map(Term::List),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 256 }))]

        #[test]
        fn id_matching_agrees_with_match_term(
            pattern in term_strategy(true),
            fact in term_strategy(false),
        ) {
            let frozen = TermArena::frozen(7, |_| {});
            let mut overlay = TermArena::overlay(&frozen);
            let mut pool = Terms::new(&frozen, &mut overlay);
            let p = pool.intern_term(&pattern);
            let f = pool.intern_term(&fact);
            let mut by_term = Bindings::new();
            let mut by_id = Vec::new();
            let expected = match_term(&pattern, &fact, &mut by_term);
            prop_assert_eq!(pool.match_id(p, f, &mut by_id), expected);
            let bound: Vec<(Symbol, Term)> =
                by_id.iter().map(|(v, id)| (*v, pool.to_term(*id))).collect();
            let want: Vec<(Symbol, Term)> =
                by_term.iter().map(|(v, t)| (v, t.clone())).collect();
            prop_assert_eq!(bound, want);
            if pattern.is_ground() {
                prop_assert_eq!(pool.value_eq(p, f), expected);
            }
        }
    }
}
